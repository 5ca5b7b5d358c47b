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

Exit codes: 0 success, 1 verification discrepancy, 2 usage error, 3 capacity
or pole error.  Output is deterministic for identical requests.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from . import combinatorial, geometric, qweights, scalars, tau
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


def _matrix_texts(matrices) -> list[str]:
    """The value texts of whole symmetric matrices, in matrix, then row, then column order.

    Each upper-triangle value is formatted once, from its row: row i takes
    its first i texts from column i of the rows above it.
    """
    texts = []
    for rows in matrices:
        above = []
        for i, row in enumerate(rows):
            above.append([done[i] for done in above] + list(map(scalars.format_rational, row[i:])))
        texts += itertools.chain.from_iterable(above)
    return texts


def _write_tau_table(n: int, blocks: list, mu_filter, nu_filter, texts: list[str], fmt: str) -> None:
    """Write the records of a tau table to stdout in one write, in multidegree, then mu, then nu order.

    blocks lists the multidegrees and texts the value texts in that order,
    over the partitions of n that the filters keep, each order canonical.
    A record is the head text of its (multidegree, mu), the tail text of its
    nu and its value, so the document is one join over precomputed texts.
    The JSON text is json.dumps(records, indent=2, sort_keys=True) of the
    scalar records: the keys are fixed, and every string is a partition
    label or "a/b" text, which JSON never escapes.  The CSV text is
    csv.writer's, with a newline as line terminator.
    """
    tbl = character_table(n)
    labels = list(map(format_partition, tbl.partitions))
    mus = range(len(labels)) if mu_filter is None else (tbl.index(mu_filter),)
    nus = range(len(labels)) if nu_filter is None else (tbl.index(nu_filter),)
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
        if mu_filter is None and nu_filter is None:
            blocks = tau.tau_coefficients(config, maxdeg, shift=args.N).matrices
            texts = _matrix_texts(blocks.values())
        else:
            # One row, or one entry, per multidegree; the table is symmetric,
            # so a --nu filter alone reads the row of nu.
            first, second = (nu_filter, None) if mu_filter is None else (mu_filter, nu_filter)
            blocks = tau.tau_row(config, maxdeg, first, second, shift=args.N)
            texts = [scalars.format_rational(value) for row in blocks.values() for value in row]
        _write_tau_table(args.n, list(blocks), mu_filter, nu_filter, texts, args.format)
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


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI's parser: every command registered, complete where argv names it.

    Every command and subcommand is registered with its help, so every choice
    list, usage line and help text is the full parser's.  One rule decides
    the rest: a (sub)command gets its -h, its subparsers, its arguments and
    its func exactly when its name is a word of argv, or always when argv is
    None.  argparse descends only into a (sub)command whose exact name is an
    argv word, so every parser a parse of argv reaches is complete, and the
    parse prints, exits and returns byte for byte what the full parser's
    does; the parsers it never reaches are only a choice and a help line.
    """

    def add(subparsers, name: str, help: str):
        """name's parser, complete when argv names it; None when it stays a choice only."""
        complete = argv is None or name in argv
        sub = subparsers.add_parser(name, help=help, add_help=complete)
        return sub if complete else None

    parser = argparse.ArgumentParser(
        prog="qhurwitz",
        description="Exact quantum and multispecies weighted Hurwitz numbers.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    if compute := add(subparsers, "compute", "compute Hurwitz numbers or tables"):
        compute_sub = compute.add_subparsers(dest="pipeline", required=True)
        for pipeline in ("geometric", "combinatorial"):
            if sub := add(compute_sub, pipeline, f"{pipeline} pipeline value"):
                sub.add_argument("--n", type=int, required=True)
                sub.add_argument("--mu", required=True)
                sub.add_argument("--nu", required=True)
                sub.add_argument("--species", action="append", default=[], metavar="FAMILY:name=value")
                sub.add_argument("--degrees", required=True)
                sub.set_defaults(func=_cmd_compute)
        if tau_sub := add(compute_sub, "tau", "tau coefficient table"):
            tau_sub.add_argument("--n", type=int, required=True)
            tau_sub.add_argument("--mu", default=None)
            tau_sub.add_argument("--nu", default=None)
            tau_sub.add_argument("--species", action="append", default=[], metavar="FAMILY:name=value")
            tau_sub.add_argument("--maxdeg", required=True)
            tau_sub.add_argument("--N", type=int, default=0, help="content shift (0 for Hurwitz numbers)")
            tau_sub.add_argument("--format", choices=("json", "csv"), default="json")
            tau_sub.set_defaults(func=_cmd_compute)

    if verify := add(subparsers, "verify", "run cross-pipeline verification"):
        verify_sub = verify.add_subparsers(dest="suite", required=True)
        if triangle := add(verify_sub, "triangle", "three-pipeline equality suite"):
            triangle.add_argument("--n-max", type=int, required=True, dest="n_max")
            triangle.add_argument("--deg-max", type=int, required=True, dest="deg_max")
            triangle.add_argument("--species", action="append", default=[], metavar="FAMILY:name=value")
            triangle.set_defaults(func=_cmd_verify)

    if oracle := add(subparsers, "oracle", "brute-force oracles"):
        oracle_sub = oracle.add_subparsers(dest="oracle_kind", required=True)
        if paths := add(oracle_sub, "paths", "path counts by signature"):
            paths.add_argument("--n", type=int, required=True)
            paths.add_argument("--d", type=int, required=True)
            paths.add_argument("--mu", required=True)
            paths.add_argument("--nu", required=True)
            paths.set_defaults(func=_cmd_oracle)

    if chartable := add(subparsers, "chartable", "exact character table"):
        chartable.add_argument("--n", type=int, required=True)
        chartable.add_argument("--format", choices=("json", "csv"), default="json")
        chartable.set_defaults(func=_cmd_chartable)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
