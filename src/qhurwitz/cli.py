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
import csv
import json
import sys

from .characters import character_table
from .combinatorial import multispecies_transfer_matrix, path_counts
from .errors import CapacityError, PoleError
from .geometric import multispecies_hurwitz_number
from .partitions import format_partition, parse_partition
from .qweights import Species, WeightConfig, parse_species_flag
from .series import format_rational
from .tau import check_triangle_bounds, tau_coefficients, verify_triangle


def _parse_species_list(texts: list[str]) -> tuple[Species, ...]:
    if not texts:
        raise ValueError("at least one --species flag is required")
    return tuple(parse_species_flag(text) for text in texts)


def _parse_degree_blocks(text: str, species: tuple[Species, ...]) -> tuple[int, ...]:
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
    sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _write_tau_table(table, mu_filter, nu_filter, fmt: str) -> None:
    """Write the table's records to stdout in the order of table.entries.

    That order is multidegree, then mu, then nu, each in canonical order.  The
    JSON text is json.dumps(records, indent=2, sort_keys=True) of the scalar
    records, built from a fixed template: the keys are fixed, and every
    string is a partition label or "a/b" text, which JSON never escapes.
    """
    labels = {p: format_partition(p) for p in character_table(table.n).partitions}
    rows = (
        (degrees, labels[mu], labels[nu], format_rational(value))
        for (degrees, mu, nu), value in table.entries.items()
        if (mu_filter is None or mu == mu_filter) and (nu_filter is None or nu == nu_filter)
    )
    if fmt == "csv":
        degree_text = {degrees: ",".join(map(str, degrees)) for degrees in table.multidegrees()}
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("degrees", "mu", "nu", "value"))
        writer.writerows((degree_text[degrees], mu, nu, value) for degrees, mu, nu, value in rows)
        return
    opening = {
        degrees: '  {\n    "degrees": [\n      ' + ",\n      ".join(map(str, degrees))
        + '\n    ],\n    "mu": "'
        for degrees in table.multidegrees()
    }
    n_text = f'",\n    "n": {table.n},\n    "nu": "'
    sys.stdout.write("[\n")
    sys.stdout.write(",\n".join(
        f'{opening[degrees]}{mu}{n_text}{nu}",\n    "value": "{value}"\n  }}'
        for degrees, mu, nu, value in rows
    ))
    sys.stdout.write("\n]\n")


def _cmd_compute(args) -> int:
    species = _parse_species_list(args.species)
    config = WeightConfig(species=species, n=args.n)
    if args.pipeline == "tau":
        maxdeg = _parse_degree_blocks(args.maxdeg, species)
        table = tau_coefficients(config, maxdeg, shift=args.N)
        mu_filter = _partition_arg(args.mu, args.n, "mu") if args.mu is not None else None
        nu_filter = _partition_arg(args.nu, args.n, "nu") if args.nu is not None else None
        _write_tau_table(table, mu_filter, nu_filter, args.format)
        return 0
    mu = _partition_arg(args.mu, args.n, "mu")
    nu = _partition_arg(args.nu, args.n, "nu")
    degrees = _parse_degree_blocks(args.degrees, species)
    if args.pipeline == "geometric":
        value = multispecies_hurwitz_number(config, degrees, mu, nu)
    else:
        value = multispecies_transfer_matrix(config, degrees).hurwitz_entry(mu, nu)
    _emit_json(
        {
            "n": args.n,
            "mu": format_partition(mu),
            "nu": format_partition(nu),
            "degrees": list(degrees),
            "value": format_rational(value),
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
    check_triangle_bounds(WeightConfig(species=species, n=args.n_max), maxdeg, first_n=2)
    reports = []
    for n in range(2, args.n_max + 1):
        config = WeightConfig(species=species, n=n)
        reports.append(verify_triangle(config, maxdeg).to_dict())
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
    counts = path_counts(args.n, args.d, mu, nu)
    _emit_json(
        {
            "n": args.n,
            "d": args.d,
            "mu": format_partition(mu),
            "nu": format_partition(nu),
            "paths": [
                {
                    "signature": format_partition(lam),
                    "m": format_rational(ordered),
                    "m_tilde": format_rational(unrestricted),
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
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["lambda"] + labels)
        writer.writerows([label, *row] for label, row in zip(labels, table.values))
    else:
        _emit_json({"n": args.n, "labels": labels, "matrix": [list(row) for row in table.values]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhurwitz",
        description="Exact quantum and multispecies weighted Hurwitz numbers.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compute = subparsers.add_parser("compute", help="compute Hurwitz numbers or tables")
    compute_sub = compute.add_subparsers(dest="pipeline", required=True)
    for pipeline in ("geometric", "combinatorial"):
        sub = compute_sub.add_parser(pipeline, help=f"{pipeline} pipeline value")
        sub.add_argument("--n", type=int, required=True)
        sub.add_argument("--mu", required=True)
        sub.add_argument("--nu", required=True)
        sub.add_argument("--species", action="append", default=[], metavar="FAMILY:name=value")
        sub.add_argument("--degrees", required=True)
        sub.set_defaults(func=_cmd_compute)
    tau_sub = compute_sub.add_parser("tau", help="tau coefficient table")
    tau_sub.add_argument("--n", type=int, required=True)
    tau_sub.add_argument("--mu", default=None)
    tau_sub.add_argument("--nu", default=None)
    tau_sub.add_argument("--species", action="append", default=[], metavar="FAMILY:name=value")
    tau_sub.add_argument("--maxdeg", required=True)
    tau_sub.add_argument("--N", type=int, default=0, help="content shift (0 for Hurwitz numbers)")
    tau_sub.add_argument("--format", choices=("json", "csv"), default="json")
    tau_sub.set_defaults(func=_cmd_compute)

    verify = subparsers.add_parser("verify", help="run cross-pipeline verification")
    verify_sub = verify.add_subparsers(dest="suite", required=True)
    triangle = verify_sub.add_parser("triangle", help="three-pipeline equality suite")
    triangle.add_argument("--n-max", type=int, required=True, dest="n_max")
    triangle.add_argument("--deg-max", type=int, required=True, dest="deg_max")
    triangle.add_argument("--species", action="append", default=[], metavar="FAMILY:name=value")
    triangle.set_defaults(func=_cmd_verify)

    oracle = subparsers.add_parser("oracle", help="brute-force oracles")
    oracle_sub = oracle.add_subparsers(dest="oracle_kind", required=True)
    paths = oracle_sub.add_parser("paths", help="path counts by signature")
    paths.add_argument("--n", type=int, required=True)
    paths.add_argument("--d", type=int, required=True)
    paths.add_argument("--mu", required=True)
    paths.add_argument("--nu", required=True)
    paths.set_defaults(func=_cmd_oracle)

    chartable = subparsers.add_parser("chartable", help="exact character table")
    chartable.add_argument("--n", type=int, required=True)
    chartable.add_argument("--format", choices=("json", "csv"), default="json")
    chartable.set_defaults(func=_cmd_chartable)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
