"""The benchmark's workloads: request lists, and the checks on their outputs.

A request is a qhurwitz CLI argv plus the exit code it must end with.  One
pass runs a workload's list once, each request in a fresh process.

* ``tau-table``: two whole tau tables, MB-scale output.  The spectral sum in
  ``tau_coefficients`` dominates and geometric code never runs.
* ``triangle``: two ``verify triangle`` suites and one value by the geometric
  and the combinatorial leg.  Symmetrized weights and profile-tuple sums
  dominate; the spectral kernel is under a tenth of the time.
* ``point-queries``: short single-value requests across every command, drawn
  from a seed.  Process start, import, cold character tables and parsing
  dominate, which the other two workloads amortize.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
import shlex
from functools import lru_cache

#: Passes per run at --seconds 25, the benchmark's run length; other lengths
#: scale it.  The count does not depend on the program's speed, so every run
#: of a workload holds the same number of requests.  The counts put the
#: request with ten slower ones beyond it (request_s_tail) inside a group of
#: like requests, not at its edge: the median n=8 value of triangle, the
#: second-fastest n=10 tau query of point-queries.  A pass of tau-table,
#: triangle and point-queries takes about 5.5, 2.5 and 4 s at the reference
#: speed.
PASSES_AT_25_S = {"tau-table": 5, "triangle": 7, "point-queries": 6}

#: The point-queries seed whose outputs are pinned, and a held-out one.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20141031

SPECIES_MIX = ("E:q=1/2", "H:p=1/5")
TRIANGLE_VALUE = ("--n", "8", "--mu", "4,4", "--nu", "8", "--species", "H:q=1/2", "--degrees", "7")

FIXED = {
    "tau-table": (
        ("compute", "tau", "--n", "12", "--species", "H:q=1/2", "--maxdeg", "3"),
        ("compute", "tau", "--n", "10", "--species", SPECIES_MIX[0], "--species", SPECIES_MIX[1],
         "--maxdeg", "2;2", "--format", "csv"),
    ),
    "triangle": (
        ("verify", "triangle", "--n-max", "5", "--deg-max", "3",
         "--species", SPECIES_MIX[0], "--species", SPECIES_MIX[1]),
        ("verify", "triangle", "--n-max", "5", "--deg-max", "3", "--species", "H:q=1/2"),
        ("compute", "geometric") + TRIANGLE_VALUE,
        ("compute", "combinatorial") + TRIANGLE_VALUE,
    ),
}

WORKLOADS = ("tau-table", "triangle", "point-queries")


def requests(workload: str, seed: int) -> list[tuple[tuple[str, ...], int]]:
    """(argv, expected exit code) of one pass; only point-queries uses the seed."""
    if workload == "point-queries":
        return point_queries(seed)
    return [(argv, 0) for argv in FIXED[workload]]


# --------------------------------------------------------------------------
# point-queries generator

_PARAMETERS = ("1/2", "1/3", "2/5", "1/5", "3/4", "-1/3", "-1/2")
_FAMILIES = ("E", "E'", "H")


def _partition(rng: random.Random, n: int) -> str:
    parts, left = [], n
    while left:
        part = rng.randint(1, left)
        parts.append(part)
        left -= part
    return ",".join(str(p) for p in sorted(parts, reverse=True))


def _species(rng: random.Random, count: int) -> tuple[list[str], list[str]]:
    """Families and --species flags for ``count`` slots."""
    families = [rng.choice(_FAMILIES) for _ in range(count)]
    flags = []
    for family, label in zip(families, ("q", "p")):
        flags += ["--species", f"{family}:{label}={rng.choice(_PARAMETERS)}"]
    return families, flags


def _degree_string(families: list[str], degrees: list[int]) -> str:
    """The CLI's "E-block;H-block" form of per-slot degrees."""
    e_block = ",".join(str(d) for f, d in zip(families, degrees) if f != "H")
    h_block = ",".join(str(d) for f, d in zip(families, degrees) if f == "H")
    return f"{e_block};{h_block}" if e_block and h_block else e_block or h_block


#: Shapes of the point-queries value requests: (n, degree of each species).
_GEOMETRIC = ((3, (2,)), (4, (1, 2)), (5, (3,)), (6, (2, 2)), (7, (4,)), (8, (6,)), (8, (3, 3)))
_COMBINATORIAL = ((4, (1, 1)), (6, (2, 1)), (8, (2, 2)), (9, (3,)), (10, (3,)), (11, (4,)))
#: Shapes of the filtered tau requests: (n, maxdeg of each species, filter on nu too).
_TAU = ((4, (1, 2), True), (6, (2,), False), (8, (1,), True), (10, (2,), False))


def point_queries(seed: int) -> list[tuple[tuple[str, ...], int]]:
    """One pass of point-queries: a fixed mix of request shapes, drawn from seed.

    The shapes (command, n, degrees, filters) are fixed, so that every seed
    gives a pass of about the same cost and exactly the same number of
    values.  The seed draws everything else: families, parameters,
    partitions, the oracle and chartable sizes, output formats and the order.
    The last geometric request is repeated through the combinatorial
    pipeline, and the two values must agree.
    """
    rng = random.Random(seed)
    out: list[tuple[tuple[str, ...], int]] = []

    def value_request(pipeline, n, degrees):
        families, flags = _species(rng, len(degrees))
        return (("compute", pipeline, "--n", str(n), "--mu", _partition(rng, n),
                 "--nu", _partition(rng, n), *flags,
                 "--degrees", _degree_string(families, degrees)), 0)

    out += [value_request("geometric", n, degrees) for n, degrees in _GEOMETRIC]
    out.append((("compute", "combinatorial") + out[-1][0][2:], 0))
    out += [value_request("combinatorial", n, degrees) for n, degrees in _COMBINATORIAL]
    for n, maxdeg, filter_nu in _TAU:
        families, flags = _species(rng, len(maxdeg))
        argv = ("compute", "tau", "--n", str(n), *flags,
                "--maxdeg", _degree_string(families, maxdeg), "--mu", _partition(rng, n))
        out.append((argv + ("--nu", _partition(rng, n)) if filter_nu else argv, 0))
    for n in (2, 3, 4, 5):
        d = rng.randint(1, 4)
        out.append((("oracle", "paths", "--n", str(n), "--d", str(d),
                     "--mu", _partition(rng, n), "--nu", _partition(rng, n)), 0))
    for _ in range(4):
        out.append((("chartable", "--n", str(rng.randint(1, 12)),
                     "--format", rng.choice(("json", "csv"))), 0))
    # Requests past a documented limit: they must be refused with exit 3.
    n = rng.randint(6, 7)
    out += [
        (("chartable", "--n", str(rng.randint(13, 15))), 3),
        (("oracle", "paths", "--n", str(n), "--d", "1",
          "--mu", _partition(rng, n), "--nu", _partition(rng, n)), 3),
        (("oracle", "paths", "--n", "4", "--d", str(rng.randint(5, 6)),
          "--mu", _partition(rng, 4), "--nu", _partition(rng, 4)), 3),
    ]
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------------
# output checks

_RATIONAL = re.compile(r"-?\d+/[1-9]\d*")


@lru_cache(maxsize=None)
def partition_count(n: int, largest: int | None = None) -> int:
    largest = n if largest is None else largest
    if n == 0:
        return 1
    return sum(partition_count(n - k, k) for k in range(1, min(n, largest) + 1))


def _flag(argv, name):
    values = [argv[i + 1] for i, a in enumerate(argv) if a == name]
    return values[-1] if values else None


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise ValueError(what)


def _check_scalar_record(record: dict, argv) -> None:
    _require(set(record) == {"n", "mu", "nu", "degrees", "value"}, "record keys")
    _require(_RATIONAL.fullmatch(record["value"]) is not None, "value is not a/b")
    _require(str(record["n"]) == _flag(argv, "--n"), "record n")


def count_values(argv, stdout: bytes) -> int:
    """Exact Hurwitz values in a successful request's output, after checking its shape.

    A value is a table record, a checked entry of a triangle report, or one
    scalar record.  Raises ValueError when the output does not have the
    documented shape.
    """
    text = stdout.decode()
    if argv[0] == "compute" and argv[1] == "tau":
        n = int(_flag(argv, "--n"))
        if _flag(argv, "--format") == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            _require(rows[0] == ["degrees", "mu", "nu", "value"], "csv header")
            records = rows[1:]
            _require(all(_RATIONAL.fullmatch(r[3]) for r in records), "csv value is not a/b")
        else:
            records = json.loads(text)
            for record in records:
                _check_scalar_record(record, argv)
        per_block = (1 if _flag(argv, "--mu") else partition_count(n)) * (
            1 if _flag(argv, "--nu") else partition_count(n))
        _require(records and len(records) % per_block == 0, "table size")
        return len(records)
    if argv[0] == "chartable":
        size = partition_count(int(_flag(argv, "--n")))
        if _flag(argv, "--format") == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            _require(len(rows) == size + 1 and all(len(r) == size + 1 for r in rows),
                     "csv table size")
            _require(rows[1][1:] == ["1"] * size, "trivial character first")
            return 0
        document = json.loads(text)
        _require(len(document["labels"]) == size, "one label per partition")
        _require(len(document["matrix"]) == size
                 and all(len(row) == size for row in document["matrix"]), "square table")
        _require(document["matrix"][0] == [1] * size, "trivial character first")
        return 0
    document = json.loads(text)
    if argv[0] == "compute":
        _check_scalar_record(document, argv)
        return 1
    if argv[0] == "verify":
        _require(document["status"] == "ok", "triangle status")
        _require(all(r["status"] == "ok" and not r["discrepancies"]
                     for r in document["reports"]), "triangle report status")
        return sum(r["checked"] for r in document["reports"])
    if argv[0] == "oracle":
        d = int(_flag(argv, "--d"))
        _require(len(document["paths"]) == partition_count(d), "one path entry per signature")
        _require(all(_RATIONAL.fullmatch(p["m"]) and _RATIONAL.fullmatch(p["m_tilde"])
                     for p in document["paths"]), "path counts are not a/b")
        return 0
    raise ValueError(f"unknown command {argv[0]!r}")


def key(argv) -> str:
    return shlex.join(argv)
