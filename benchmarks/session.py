"""The ``session`` workload: one process imports plates once and issues the
same request list twice, so module-level caches live across requests.

Usage: python3 benchmarks/session.py --seed N   (with src/ on PYTHONPATH)

Prints one JSON line {"requests": answered, "problems": [...]} and exits 1
when any answer disagrees with its independent check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import plates
from workloads import closed_form


def _cycle_type(images: tuple[int, ...]) -> tuple[int, ...]:
    seen, lengths = set(), []
    for start in range(1, len(images) + 1):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = images[j - 1]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def run_requests(seed: int) -> tuple[int, list[str]]:
    """One pass over the request list; returns (answered, problems)."""
    answered, problems = 0, []
    for s in (seed, seed + 1):
        plan = plates.SamplePlan(4, 3, seed=s)
        for p in plates.all_plates(4, 3):
            if plates.oracle_expand(p, plan) != plates.expand(p):
                problems.append(f"oracle != shuffle for {plates.print_plate(p)}, seed {s}")
            answered += 1
    for n, r in ((5, 3), (6, 3), (5, 4)):
        for lam, value in plates.plate_character(n, r).values:
            if value != closed_form(lam, r):
                problems.append(f"plate_character({n}, {r}) at {lam} is {value}")
        answered += 1
    # the trace of every element of S_5 on the (5, 3) module, one expansion per basis plate
    basis = plates.standard_basis(5, 3)
    for images in itertools.permutations(range(1, 6)):
        sigma = plates.Permutation(images)
        trace = sum(
            plates.expand(plates.apply_permutation(sigma, p)).coefficient(p).to_fraction()
            for p in basis
        )
        if trace != closed_form(_cycle_type(images), 3):
            problems.append(f"trace of {images} on (5, 3) is {trace}")
        answered += 1
    return answered, problems


def main(argv=None, after_pass=None) -> int:
    parser = argparse.ArgumentParser(prog="session")
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args(argv).seed
    answered, problems = 0, []
    for _ in range(2):
        done, bad = run_requests(seed)
        answered += done
        problems += bad
        if after_pass is not None:
            after_pass()
    print(json.dumps({"requests": answered, "problems": problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
