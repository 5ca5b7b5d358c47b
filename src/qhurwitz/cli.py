"""Command-line surface.

Commands:

    qhurwitz compute geometric     --n N --mu M --nu V --species S... --degrees D
    qhurwitz compute combinatorial --n N --mu M --nu V --species S... --degrees D
    qhurwitz compute tau           --n N --species S... --maxdeg D [--mu M --nu V]
    qhurwitz verify triangle       --n-max N --deg-max D --species S...
    qhurwitz oracle paths          --n N --d D --mu M --nu V
    qhurwitz chartable             --n N

Species flags repeat, one per slot, in slot order: --species "E:q=1/2"
--species "H:p=1/5".  Degree and maxdeg strings list the E-type block and the
H-type block separated by ";" ("1,2;1"); the semicolon may be omitted when
only one family is present.  Every rational in the output is an exact
"numerator/denominator" string in lowest terms with positive denominator.

Exit codes: 0 success, 1 verification discrepancy, 2 usage error, 3 capacity,
pole or output error.  Output is deterministic for identical requests.

``run`` is the process entry of every launch form (``python -m qhurwitz``,
``python -m qhurwitz.cli`` and the ``qhurwitz`` script); ``main`` is the same
request without the process-exit steps, for callers that stay in the process.

The commands and their flags are declared once, in the table ``_SURFACE``.
``_read_exact`` reads a well-formed request straight from it: one command's
words, then that command's own flags spelled in full, each with a valid
value.  Every other argv goes to ``build_parser``, the full argparse parser
built from the same table, which writes every help text and usage error;
argparse is imported only there.

``compute tau`` reads the spectral layer's integer numerators directly, in
every form (table, row and entry), and makes no Fraction: an entry (mu, nu)
is S / (D z_mu z_nu), written reduced by one gcd, and every S = 0 is the
one text "0/1".  The kernel sums only the (mu, nu) with |colength(mu) -
colength(nu)| <= the multidegree's total degree: by Jucys (1974) a content
product's coefficient of total degree t lies in the span of the class sums
of colength <= t, so every other entry is 0.
"""

from __future__ import annotations

import gc
import itertools
import os
import sys
import types
from math import gcd

from . import combinatorial, geometric, qweights, scalars, spectral, tau
from .characters import character_table
from .errors import CapacityError, PoleError
from .partitions import format_partition, parse_partition


def _parse_species_list(texts: list[str]) -> tuple[qweights.Species, ...]:
    if not texts:
        raise ValueError("at least one --species flag is required")
    return tuple(qweights.parse_species_flag(text) for text in texts)


def _parse_degree_blocks(text: str, species: tuple[qweights.Species, ...]) -> tuple[int, ...]:
    """Map an "e1,e2;h1" degree string onto the species: each block in species order."""
    is_h = [s.family == "H" for s in species]
    h_count = sum(is_h)
    e_count = len(species) - h_count
    blocks = text.split(";")
    if len(blocks) > 2:
        raise ValueError(f"at most two ;-separated degree blocks allowed: {text!r}")
    if len(blocks) == 1:
        if e_count and h_count:
            raise ValueError("mixed-family species need an E-block and an H-block separated by ';'")
        blocks = [blocks[0], ""] if e_count else ["", blocks[0]]
    parsed = []
    for block in blocks:
        block = block.strip()
        if not block:
            parsed.append([])
            continue
        try:
            parsed.append([int(tok) for tok in block.split(",")])
        except ValueError as exc:
            raise ValueError(f"invalid degree block {block!r}") from exc
    e_values, h_values = parsed
    if len(e_values) != e_count:
        raise ValueError(f"expected {e_count} E-type degrees, got {len(e_values)}")
    if len(h_values) != h_count:
        raise ValueError(f"expected {h_count} H-type degrees, got {len(h_values)}")
    e_values, h_values = iter(e_values), iter(h_values)
    return tuple(next(h_values if h else e_values) for h in is_h)


def _partition_arg(text: str, n: int, name: str):
    mu = parse_partition(text)
    if sum(mu) != n:
        raise ValueError(f"--{name} {text!r} is not a partition of {n}")
    return mu


def _emit_json(document) -> None:
    # Imported here: compute tau and CSV chartables write their text without it.
    import json

    sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _csv_field(text: str) -> str:
    """A field as csv.QUOTE_MINIMAL writes it here: quoted exactly when it holds a comma.

    The fields written are partition labels, degree lists, integers and "a/b"
    values, none of which holds a quote, a CR or an LF.
    """
    return f'"{text}"' if "," in text else text


def _entry_text(numerator: int, denominator: int) -> str:
    """The text of numerator / denominator, reduced by one gcd: "0/1" for every 0."""
    if not numerator:
        return "0/1"
    common = gcd(numerator, denominator)
    return scalars.ratio_text(numerator // common, denominator // common)


def _write_tau_table(n: int, labels: list[str], blocks: list, mus, nus, texts: list[str], fmt: str) -> None:
    """Write the records of a tau table to stdout in one write, in multidegree, then mu, then nu order.

    labels are the partition labels of n in canonical order, mus and nus
    the indices into them of the rows and columns written, blocks lists the
    multidegrees and texts the value texts in that order.  A record is the
    head text of its (multidegree, mu), the tail text of its nu and its
    value, so the document is one join over precomputed texts.
    The JSON text is json.dumps(records, indent=2, sort_keys=True) of the
    scalar records: the keys are fixed, and every string is a partition
    label or "a/b" text, which JSON never escapes.  The CSV text is
    csv.writer's, with a newline as line terminator.
    """
    if fmt == "csv":
        degree_fields = [_csv_field(",".join(map(str, degrees))) for degrees in blocks]
        heads = [
            f"{degrees},{_csv_field(labels[mu])},"
            for degrees, mu in itertools.product(degree_fields, mus)
        ]
        tails = [f"{_csv_field(labels[nu])}," for nu in nus]
        start, separator, end = "degrees,mu,nu,value\n", "\n", "\n"
    else:
        degree_lists = [",\n      ".join(map(str, degrees)) for degrees in blocks]
        heads = [
            f'  {{\n    "degrees": [\n      {degrees}\n    ],\n    "mu": "{labels[mu]}",\n'
            f'    "n": {n},\n    "nu": "'
            for degrees, mu in itertools.product(degree_lists, mus)
        ]
        tails = [f'{labels[nu]}",\n    "value": "' for nu in nus]
        start, separator, end = "[\n", '"\n  },\n', '"\n  }\n]\n'
    # Four pieces per record: the text before it (start or separator), its
    # head, its tail and its value; one join copies each piece once.
    pieces = [separator] * (4 * len(heads) * len(tails))
    pieces[0] = start
    pieces[1::4] = [head for head in heads for _ in tails]
    pieces[2::4] = tails * len(heads)
    pieces[3::4] = texts
    pieces.append(end)
    sys.stdout.write("".join(pieces))


def _cmd_compute(args) -> int:
    species = _parse_species_list(args.species)
    config = qweights.WeightConfig(species=species, n=args.n)
    if args.pipeline == "tau":
        maxdeg = _parse_degree_blocks(args.maxdeg, species)
        mu_filter = _partition_arg(args.mu, args.n, "mu") if args.mu is not None else None
        nu_filter = _partition_arg(args.nu, args.n, "nu") if args.nu is not None else None
        tbl, keys, blocks = spectral.eigenvalue_blocks(config, [range(m + 1) for m in config.degrees(maxdeg)], args.N)
        mus = None if mu_filter is None else [tbl.index(mu_filter)]
        nus = None if nu_filter is None else [tbl.index(nu_filter)]
        # Under a filter, one row or one entry per multidegree; the table is
        # symmetric, so a --nu filter alone reads the row of nu.
        # Without one, one text per distinct entry, laid out by tbl.symmetric.
        row, columns = (nus, None) if mus is None else (mus, nus)
        everything = range(len(tbl.partitions))
        pairs = None if row is None else [(row[0], j) for j in columns or everything]
        scales, sums = spectral.spectral_numerators(tbl, blocks, pairs)
        texts = []
        for (_, denominator, _), numerators in zip(blocks, sums):
            entry_texts = [_entry_text(s, denominator * scale) for s, scale in zip(numerators, scales)]
            texts += itertools.chain.from_iterable(tbl.symmetric(entry_texts)) if pairs is None else entry_texts
        labels = list(map(format_partition, tbl.partitions))
        _write_tau_table(args.n, labels, keys, mus or everything, nus or everything, texts, args.format)
        return 0
    mu = _partition_arg(args.mu, args.n, "mu")
    nu = _partition_arg(args.nu, args.n, "nu")
    degrees = _parse_degree_blocks(args.degrees, species)
    if args.pipeline == "geometric":
        value = geometric.multispecies_hurwitz_number(config, degrees, mu, nu)
    else:
        value = combinatorial.multispecies_hurwitz_entry(config, degrees, mu, nu)
    _emit_json(
        {
            "n": args.n,
            "mu": format_partition(mu),
            "nu": format_partition(nu),
            "degrees": list(degrees),
            "value": scalars.format_rational(value),
        }
    )
    return 0


def _cmd_verify(args) -> int:
    species = _parse_species_list(args.species)
    if args.n_max < 2:
        raise ValueError("--n-max must be at least 2")
    if args.deg_max < 0:
        raise ValueError("--deg-max must be nonnegative")
    maxdeg = (args.deg_max,) * len(species)
    tau.check_triangle_bounds(qweights.WeightConfig(species=species, n=args.n_max), maxdeg, first_n=2)
    reports = []
    for n in range(2, args.n_max + 1):
        config = qweights.WeightConfig(species=species, n=n)
        reports.append(tau.verify_triangle(config, maxdeg).to_dict())
    ok = all(r["status"] == "ok" for r in reports)
    _emit_json(
        {
            "command": "verify triangle",
            "n_max": args.n_max,
            "deg_max": args.deg_max,
            "status": "ok" if ok else "fail",
            "reports": reports,
        }
    )
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    mu = _partition_arg(args.mu, args.n, "mu")
    nu = _partition_arg(args.nu, args.n, "nu")
    counts = combinatorial.path_counts(args.n, args.d, mu, nu)
    _emit_json(
        {
            "n": args.n,
            "d": args.d,
            "mu": format_partition(mu),
            "nu": format_partition(nu),
            "paths": [
                {
                    "signature": format_partition(lam),
                    "m": scalars.format_rational(ordered),
                    "m_tilde": scalars.format_rational(unrestricted),
                }
                for lam, (ordered, unrestricted) in counts.items()
            ],
        }
    )
    return 0


def _cmd_chartable(args) -> int:
    table = character_table(args.n)
    labels = [format_partition(p) for p in table.partitions]
    if args.format == "csv":
        fields = list(map(_csv_field, labels))
        rows = [("lambda", *fields)]
        rows += [(field, *map(str, row)) for field, row in zip(fields, table.values)]
        sys.stdout.write("".join(",".join(row) + "\n" for row in rows))
    else:
        _emit_json({"n": args.n, "labels": labels, "matrix": [list(row) for row in table.values]})
    return 0


#: Options that several commands share, each a flag and its add_argument keywords.
_N = {"--n": {"type": int, "required": True}}
_MU_NU = {"--mu": {"required": True}, "--nu": {"required": True}}
_SPECIES = {"--species": {"action": "append", "default": [], "metavar": "FAMILY:name=value"}}
_FORMAT = {"--format": {"choices": ("json", "csv"), "default": "json"}}
_VALUE = {**_N, **_MU_NU, **_SPECIES, "--degrees": {"required": True}}

#: The CLI surface, which _read_exact and build_parser both read.  A command
#: is (help, dest, subcommands) when a subcommand follows its word, dest
#: naming the attribute that holds that word, and (help, func, options) when
#: it answers requests: func(args) answers it, and options maps each flag to
#: its add_argument keywords, in help order.  The keywords use type int,
#: choices, required, default, metavar, help and one action, append; a
#: value's attribute is the one argparse derives from its flag.  The root is
#: the program, its help the description.
_SURFACE = ("Exact quantum and multispecies weighted Hurwitz numbers.", "command", {
    "compute": ("compute Hurwitz numbers or tables", "pipeline", {
        "geometric": ("geometric pipeline value", _cmd_compute, _VALUE),
        "combinatorial": ("combinatorial pipeline value", _cmd_compute, _VALUE),
        "tau": ("tau coefficient table", _cmd_compute, {
            **_N, "--mu": {}, "--nu": {}, **_SPECIES, "--maxdeg": {"required": True},
            "--N": {"type": int, "default": 0, "help": "content shift (0 for Hurwitz numbers)"},
            **_FORMAT,
        }),
    }),
    "verify": ("run cross-pipeline verification", "suite", {
        "triangle": ("three-pipeline equality suite", _cmd_verify, {
            "--n-max": {"type": int, "required": True},
            "--deg-max": {"type": int, "required": True},
            **_SPECIES,
        }),
    }),
    "oracle": ("brute-force oracles", "oracle_kind", {
        "paths": ("path counts by signature", _cmd_oracle, {
            **_N, "--d": {"type": int, "required": True}, **_MU_NU,
        }),
    }),
    "chartable": ("exact character table", _cmd_chartable, {**_N, **_FORMAT}),
})


def _read_exact(argv: list[str]):
    """The request of argv, read straight from _SURFACE, or None when argparse must read it.

    argv must be exactly one command's words followed by flag-value pairs of
    that command's own flags, each flag spelled in full: a flag that does
    not append appears once, every required flag appears, an int is ASCII
    decimal with an optional leading "-" that int() accepts, a choice is one
    of its choices, and a value starts with "-" only when it is such an int.
    Every argv that passes is one that the full parser accepts, and the
    request holds exactly the attributes its parse_args sets.  Any other
    argv, a help request or a usage error among them, gives None.
    """
    _, target, commands = _SURFACE
    request = {}
    words = iter(argv)
    while isinstance(target, str):
        word = next(words, None)
        if word not in commands:
            return None
        request[target] = word
        _, target, commands = commands[word]
    func, options = target, commands
    values = {}
    # The words left, two at a time: a last word without a value pairs with None.
    for flag, text in itertools.zip_longest(words, words):
        keywords = options.get(flag)
        if keywords is None or text is None or (flag in values and "action" not in keywords):
            return None
        negative = text[:1] == "-"
        plain = text[negative:].isascii() and text[negative:].isdigit()
        if negative and not plain:
            return None
        if keywords.get("type") is int:
            if not plain:
                return None
            try:
                value = int(text)
            except ValueError:  # past int()'s digit limit
                return None
        else:
            value = text
        if value not in keywords.get("choices", (value,)):
            return None
        values.setdefault(flag, []).append(value)
    for flag, keywords in options.items():
        appends = "action" in keywords
        if flag in values:
            value = values[flag] if appends else values[flag][0]
        elif keywords.get("required"):
            return None
        else:
            value = list(keywords["default"]) if appends else keywords.get("default")
        request[flag.lstrip("-").replace("-", "_")] = value
    return types.SimpleNamespace(**request, func=func)


def build_parser():
    """The full argparse parser of _SURFACE: the one writer of help texts and usage errors.

    argparse is imported here, so a request that _read_exact reads never
    loads it.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse's parser, but a help text that cannot be written raises OSError, as any output does.

        argparse's own print_help drops an OSError of the write, and its exit
        comes before main's flush, so the text is written and flushed here.
        """

        def print_help(self, file=None):
            print(self.format_help(), end="", file=file or sys.stdout, flush=True)

    def fill(parser, command):
        _, target, commands = command
        if isinstance(target, str):
            subparsers = parser.add_subparsers(dest=target, required=True)
            for word, sub in commands.items():
                fill(subparsers.add_parser(word, help=sub[0]), sub)
        else:
            for flag, keywords in commands.items():
                parser.add_argument(flag, **keywords)
            parser.set_defaults(func=target)
        return parser

    return fill(_Parser(prog="qhurwitz", description=_SURFACE[0]), _SURFACE)


def main(argv=None) -> int:
    """Answer one request on stdout and return its exit code.

    A closed stdout (None) is refused before any work, and a write or flush
    of stdout that fails exits 3, a help text's too; each prints one error
    line.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if sys.stdout is None:
        print("error: cannot write output: stdout is closed", file=sys.stderr)
        return 3
    try:
        args = _read_exact(argv) or build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3


def run(argv=None) -> int:
    """The process entry: main, then what the process needs before it exits.

    Finalization flushes stdout once more, so after a failed flush fd 1 is
    pointed at os.devnull: the exit code stays main's, not 120.  gc.freeze()
    then moves every live object out of the collector's reach, so the full
    collections of finalization skip the modules, functions and classes that
    start-up made.  Finalization itself still runs: atexit handlers, stream
    flushes and profiler output.  Only a process that is about to exit calls
    this; main never freezes, because frozen objects are never collected.
    """
    code = main(argv)
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
