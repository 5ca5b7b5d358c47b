"""Measure the geometric leg against its cost model and print a CSV table.

Run from the repository root:

    PYTHONPATH=src python3 tools/geometric_cost_times.py > tools/geometric_cost_times.csv

For each n and species the degree d grows by half from 2 until one walk or
one entry passes 1.5 s, or the weight bits pass the limit.  Each row holds
the in-process seconds of the walk (_species_eigenvalues up to d), of one
matrix entry (_character_sums on one pair whose parity is live) and of one
whole matrix (_character_sums on the upper triangle, measured while it
stays under 1.5 s), each the best of up to three runs, next to the
estimates _geometric_cost gives a single entry and one matrix.  The walk,
entry and matrix terms of _geometric_cost are fitted to these seconds; an
empty cost is past the weight-bit limit.  One process, one core; the whole
table takes about 8 minutes on a 2-CPU Xeon with Python 3.11.7.
"""

import sys
import time
from fractions import Fraction

from qhurwitz import Species, WeightConfig, character_table
from qhurwitz.geometric import (
    GEOMETRIC_COST_LIMIT,
    _character_sums,
    _colength_characters,
    _geometric_cost,
    _species_eigenvalues,
)

SPECIES = {
    "H:q=1/2": Species("H", Fraction(1, 2)),
    "E:q=1/3": Species("E", Fraction(1, 3)),
    "E':q=-2/5": Species("E'", Fraction(-2, 5)),
    "E':q=999/1000": Species("E'", Fraction(999, 1000)),
    "H:q=1/2^20": Species("H", Fraction(1, 2**20)),
    "H:q=1/2^240": Species("H", Fraction(1, 2**240)),
}
SIZES = (2, 3, 4, 6, 8, 10, 12)
STOP = 1.5


def best(run, limit=3):
    """Smallest of up to limit timings of run(); one run when it passes STOP / 3."""
    times = []
    for _ in range(limit):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
        if times[-1] > STOP / 3:
            break
    return min(times), result


def main() -> None:
    print("n,species,bits,d,x,walk_s,entry_s,matrix_s,entry_cost,matrix_cost")
    for n in SIZES:
        tbl = character_table(n)
        classes = _colength_characters(tbl)
        shapes = [k for k, _ in tbl.conjugate_pairs]
        for label, species in SPECIES.items():
            d, matrix_s = 2, 0.0
            while True:
                walk_s, values = best(lambda: _species_eigenvalues(species, {d}, classes, shapes), 2)
                values = [(*values[d], d % 2)]
                pair = (0, tbl.index((n,) if d % 2 == 0 else (n - 1, 1)))
                entry_s, _ = best(lambda: _character_sums(tbl, values, [pair]))
                if matrix_s is not None and matrix_s < STOP:
                    matrix_s, _ = best(lambda: _character_sums(tbl, values))
                else:
                    matrix_s = None
                config = WeightConfig((species,), n)
                costs = [_geometric_cost(config, [(d,)], entry) for entry in (True, False)]
                costs = ["" if c > GEOMETRIC_COST_LIMIT and c == species.bits * d * d else c for c in costs]
                x = species.bits * d * d / 2**13
                matrix = "" if matrix_s is None else f"{matrix_s:.6f}"
                print(f"{n},{label},{species.bits},{d},{x:.4f},{walk_s:.6f},{entry_s:.6f},"
                      f"{matrix},{costs[0]},{costs[1]}", flush=True)
                if walk_s > STOP or entry_s > STOP or "" in costs:
                    break
                d = d * 3 // 2 + 1
            print(f"n = {n} {label} done", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
