"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and asserting the stated budget."""

import random
import time
from contextlib import contextmanager

from plates.characters import (
    character,
    gcd_formula,
    irreducible_dimension,
    multiplicities,
    plate_character,
)
from plates.combinatorics import (
    enumerate_compositions,
    enumerate_osp,
    eulerian_row,
    parse_permutation,
    partitions,
    permutation_with_cycle_type,
)
from plates.core import (
    Plate,
    all_plates,
    parse_plate,
    print_plate,
    rotate,
    standard_basis,
)
from plates.exactnum import CyclotomicNumber, q_pow
from plates.expansion import (
    expand,
    oracle_expand,
    qbasis_is_invertible,
    qbasis_matrix,
    qplate_expand,
)
from matrix_helpers import action_matrix, invert, mat_mul
from reference import trivial_multiplicity_series
from plates.oracle import SamplePlan, rank_report, verify_identity_ae
from plates.translation import (
    diophantine_count,
    fixed_label_count,
    ta_trace,
    verify_partition_of_unity,
)
from plates.worpitzky import classical_worpitzky_check, verify_categorified_worpitzky


@contextmanager
def budget(criterion: int, seconds: float, description: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"criterion {criterion:2d}: PASS ({elapsed:6.2f}s / "
          f"budget {seconds:g}s) {description}")
    assert elapsed < seconds, f"criterion {criterion} exceeded {seconds}s budget"


def test_criterion_01_eulerian_rows():
    with budget(1, 1, "Eulerian triangle rows 1-5"):
        rows = [eulerian_row(m) for m in range(1, 6)]
        assert rows == [
            [1],
            [1, 1],
            [1, 4, 1],
            [1, 11, 11, 1],
            [1, 26, 66, 26, 1],
        ]


def test_criterion_02_standard_basis_count():
    with budget(2, 5, "standard-basis count r^(n-1), n<=5, r<=5"):
        for n in range(1, 6):
            for r in range(1, 6):
                assert len(standard_basis(n, r)) == r ** (n - 1), (n, r)


def test_criterion_03_oracle_rank():
    with budget(3, 120, "oracle rank of the standard basis, n<=4, r<=4"):
        for n in range(1, 5):
            for r in range(1, 5):
                plan = SamplePlan(n, r)
                assert rank_report(standard_basis(n, r), plan).rank == r ** (n - 1), (n, r)


def test_criterion_04_dual_engine_agreement():
    with budget(4, 300, "shuffle expansion == oracle expansion, n<=4, r<=3"):
        for n in range(1, 5):
            for r in range(1, 4):
                plan = SamplePlan(n, r)
                for plate in all_plates(n, r):
                    assert expand(plate) == oracle_expand(plate, plan), print_plate(plate)


def test_criterion_05_worked_expansion_examples():
    with budget(5, 10, "worked expansions: signs and corrected positions"):
        first = expand(parse_plate("[[{3,5}_1 {1,2,4}_1 {6}_1]]"))
        assert {print_plate(p): c.to_fraction() for p, c in first.items()} == {
            "[[{1,2,4}_1 {3,5,6}_2]]": 1,
            "[[{1,2,3,4,5}_2 {6}_1]]": 1,
            "[[{1,2,4}_1 {6}_1 {3,5}_1]]": -1,
            "[[{1,2,4}_1 {3,5}_1 {6}_1]]": -1,
        }
        second = expand(parse_plate("[[{3,5}_1 {1,2,4}_1 {6}_1 {7}_1]]"))
        assert {print_plate(p): c.to_fraction() for p, c in second.items()} == {
            "[[{1,2,4}_1 {6}_1 {3,5,7}_2]]": 1,
            "[[{1,2,4}_1 {3,5,6}_2 {7}_1]]": 1,
            "[[{1,2,3,4,5}_2 {6}_1 {7}_1]]": 1,
            "[[{1,2,4}_1 {6}_1 {7}_1 {3,5}_1]]": -1,
            "[[{1,2,4}_1 {6}_1 {3,5}_1 {7}_1]]": -1,
            "[[{1,2,4}_1 {3,5}_1 {6}_1 {7}_1]]": -1,
        }
        # position-subscript corrections, certified at distinct positions
        src6 = parse_plate("[[{3,5}_2 {1,2,4}_1 {6}_3]]")
        ok, witness = verify_identity_ae(src6, expand(src6), SamplePlan(6, 6, denominator=23))
        assert ok, witness
        src7 = parse_plate("[[{3,5}_2 {1,2,4}_1 {6}_3 {7}_4]]")
        ok, witness = verify_identity_ae(src7, expand(src7), SamplePlan(7, 10, denominator=101))
        assert ok, witness


def test_criterion_06_cyclic_sum_relation():
    with budget(6, 120, "cyclic sum relation a.e., all plates with n<=4, r<=3"):
        for n in range(1, 5):
            for r in range(1, 4):
                plan = SamplePlan(n, r)
                whole = Plate(n, (tuple(range(1, n + 1)),), (r,))
                for plate in all_plates(n, r):
                    rotations = [(1, rotate(plate, t)) for t in range(plate.k)]
                    ok, witness = verify_identity_ae(whole, rotations, plan)
                    assert ok, (print_plate(plate), witness)


def test_criterion_07_four_way_character_agreement():
    with budget(7, 300, "plate trace = translation trace = count = closed form"):
        for n in range(1, 5):
            for r in range(1, 5):
                assert plate_character(n, r).as_dict() == character("formula", n, r).as_dict()
        for n in range(1, 6):
            for r in range(1, 7):
                for lam in partitions(n):
                    sigma = permutation_with_cycle_type(lam)
                    trace = ta_trace(sigma, n, r)
                    assert trace.is_rational()
                    value = trace.to_fraction()
                    assert value == diophantine_count(lam, r) == gcd_formula(lam, r)
                    assert value == fixed_label_count(sigma, n, r)


def test_criterion_08_fixed_point_datapoints():
    with budget(8, 1, "fixed-label counts at n=3, r=10"):
        assert fixed_label_count(parse_permutation("(1 2)", n=3), 3, 10) == 10
        assert fixed_label_count(parse_permutation("(1 2 3)"), 3, 10) == 1


MULTIPLICITY_TABLE = {
    (1, 1): {(1,): 1},
    (1, 2): {(1,): 1},
    (1, 3): {(1,): 1},
    (1, 4): {(1,): 1},
    (2, 1): {(2,): 1},
    (2, 2): {(2,): 1, (1, 1): 1},
    (2, 3): {(2,): 2, (1, 1): 1},
    (2, 4): {(2,): 2, (1, 1): 2},
    (3, 1): {(3,): 1},
    (3, 2): {(3,): 2, (2, 1): 1},
    (3, 3): {(3,): 3, (2, 1): 3},  # printed exponent corrected: 2^1 1^1
    (3, 4): {(3,): 5, (2, 1): 5, (1, 1, 1): 1},
    (4, 1): {(4,): 1},
    (4, 2): {(4,): 2, (3, 1): 2},
    (4, 3): {(4,): 5, (2, 2): 2, (3, 1): 5, (2, 1, 1): 1},
    (4, 4): {(4,): 8, (2, 2): 4, (3, 1): 12, (2, 1, 1): 4},
}


def test_criterion_09_multiplicity_tables_and_series():
    with budget(9, 30, "multiplicity tables n<=4, r<=4 and trivial series"):
        for (n, r), expected in MULTIPLICITY_TABLE.items():
            table = multiplicities(plate_character(n, r))
            assert table == expected, (n, r, table)
            total = sum(m * irreducible_dimension(mu) for mu, m in table.items())
            assert total == r ** (n - 1), (n, r)
        assert trivial_multiplicity_series(3, 6) == [1, 2, 3, 5, 7, 9]
        assert trivial_multiplicity_series(4, 6) == [1, 2, 5, 8, 14, 20]


def test_criterion_10_worpitzky():
    with budget(10, 60, "classical and module-level power-to-Eulerian identities"):
        for n in range(2, 7):
            for r in range(1, 9):
                assert classical_worpitzky_check(n, r), (n, r)
        for n in range(2, 6):
            report = verify_categorified_worpitzky(n, 2 * n)
            assert report.ok, report.failures
            assert all(
                m >= 0 for table in report.hypersimplex_multiplicities for m in table.values()
            )
        assert verify_categorified_worpitzky(4, 8).dims == (1, 4, 1)
        assert verify_categorified_worpitzky(5, 10).dims == (1, 11, 11, 1)


def test_criterion_11_idempotents():
    with budget(11, 60, "partition of unity and eigen-relations"):
        for n, r in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            ok, details = verify_partition_of_unity(n, r)
            assert ok, details


def test_criterion_12_qbasis():
    with budget(12, 60, "q-basis invertibility, covariance, trace invariance"):
        for n in range(1, 5):
            for r in range(1, 4):
                assert qbasis_is_invertible(qbasis_matrix(n, r)[0]), (n, r)
        # rotation covariance on randomized plates
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(2, 5)
            k = rng.randint(2, n)
            blocks = rng.choice(enumerate_osp(n, k))
            r = rng.randint(k, k + 2)
            comp = rng.choice(enumerate_compositions(r, k))
            plate = Plate(n, blocks, comp)
            t = rng.randint(1, k - 1)
            moved = sum(plate.positions[plate.k - t :])
            assert qplate_expand(rotate(plate, t)) == qplate_expand(plate).scale(
                q_pow(r, moved)
            )
        # trace invariance under q-basis conjugation
        for n in range(1, 4):
            for r in range(1, 4):
                q_rows, _ = qbasis_matrix(n, r)
                zero, one = CyclotomicNumber.zero(r), CyclotomicNumber.one(r)
                q_inv = invert([list(row) for row in q_rows], zero, one)
                for lam in partitions(n):
                    m = action_matrix(permutation_with_cycle_type(lam), n, r)
                    rows = [list(row) for row in m.entries]
                    conj = mat_mul(mat_mul([list(x) for x in q_rows], rows, zero), q_inv, zero)
                    trace = conj[0][0]
                    for i in range(1, len(conj)):
                        trace = trace + conj[i][i]
                    assert trace == m.trace()
