from collections import Counter

import pytest

from plates import worpitzky
from plates.characters import irreducible_dimension, multiplicities
from plates.combinatorics import eulerian, partitions
from plates.worpitzky import (
    classical_worpitzky_check,
    derive_hypersimplex_characters,
    verify_categorified_worpitzky,
)
from reference import triangular_hypersimplex_characters


def wrong_count_at(monkeypatch, lam, r):
    """Make the Diophantine count the module identity reads one too large at
    cycle type lam and slice r."""
    right = worpitzky.diophantine_count
    monkeypatch.setattr(
        worpitzky, "diophantine_count", lambda mu, s: right(mu, s) + ((mu, s) == (lam, r))
    )


def test_classical_identity_examples():
    assert classical_worpitzky_check(3, 2)  # 4 = 1*3 + 1*1
    assert classical_worpitzky_check(4, 3)  # 27 = 1 + 4*4 + 10
    for r in range(1, 10):
        assert classical_worpitzky_check(2, r)  # r = C(r,1)*1


def test_classical_identity_range():
    for n in range(2, 7):
        for r in range(1, 9):
            assert classical_worpitzky_check(n, r), (n, r)


def test_derived_characters_small():
    chis3 = derive_hypersimplex_characters(3)
    assert chis3[0].as_dict() == {(1, 1, 1): 1, (2, 1): 1, (3,): 1}
    assert chis3[1].as_dict() == {(1, 1, 1): 1, (2, 1): 1, (3,): 1}
    chis4 = derive_hypersimplex_characters(4)
    assert chis4[1].as_dict() == {
        (1, 1, 1, 1): 4,
        (2, 1, 1): 2,
        (2, 2): 0,
        (3, 1): 1,
        (4,): 0,
    }


def test_derived_dimensions_are_eulerian():
    for n in range(2, 7):
        chis = derive_hypersimplex_characters(n)
        dims = tuple(chi.identity_value() for chi in chis)
        assert dims == tuple(eulerian(a - 1, n - a - 1) for a in range(1, n))
    assert tuple(c.identity_value() for c in derive_hypersimplex_characters(4)) == (1, 4, 1)
    assert tuple(c.identity_value() for c in derive_hypersimplex_characters(5)) == (1, 11, 11, 1)


def test_derived_characters_are_genuine_modules():
    for n in range(2, 6):
        for chi in derive_hypersimplex_characters(n):
            table = multiplicities(chi)  # raises if non-integral or negative
            assert all(m > 0 for m in table.values())
            total = sum(m * irreducible_dimension(mu) for mu, m in table.items())
            assert total == chi.identity_value()


def test_series_route_matches_the_triangular_inversion():
    for n in range(2, 9):
        assert derive_hypersimplex_characters(n) == triangular_hypersimplex_characters(n), n
        assert verify_categorified_worpitzky(n, 3 * n).residuals_ok, n  # tail to degree 3n


def test_wrong_count_past_n_fails_the_residual_check(monkeypatch):
    wrong_count_at(monkeypatch, (7,), 13)
    report = verify_categorified_worpitzky(7, 14)
    assert not report.residuals_ok
    assert report.failures == ["residual at r=13, class (7,)"]
    assert report.classical_ok and report.dims_ok and report.multiplicities_ok


@pytest.mark.parametrize(
    "lam, r, audit", [((1, 1, 1, 1), 1, "dims_ok"), ((4,), 2, "multiplicities_ok")]
)
def test_wrong_count_below_n_fails_an_audit(monkeypatch, lam, r, audit):
    wrong_count_at(monkeypatch, lam, r)
    report = verify_categorified_worpitzky(4, 8)
    assert getattr(report, audit) is False
    assert not report.ok


def test_each_cycle_type_series_is_built_once(monkeypatch):
    # the hypersimplex characters are the low coefficients of the r_max series
    calls = Counter()
    right = worpitzky.diophantine_count

    def counting(lam, r):
        calls[lam] += 1
        return right(lam, r)

    monkeypatch.setattr(worpitzky, "diophantine_count", counting)
    assert verify_categorified_worpitzky(7, 14).ok
    assert calls == {lam: 14 for lam in partitions(7)}
    calls.clear()
    derive_hypersimplex_characters(5)
    assert calls == {lam: 4 for lam in partitions(5)}


def test_report_overdetermined_range():
    # characters are pinned by r <= n-1; holding through 2n is a real check
    for n in range(2, 6):
        report = verify_categorified_worpitzky(n, 2 * n)
        assert report.ok, report.failures
        assert report.dims == report.eulerian_dims
        assert report.classical_ok and report.residuals_ok
        assert report.dims_ok and report.multiplicities_ok


def test_report_serializes():
    report = verify_categorified_worpitzky(4, 8)
    data = report.to_json()
    assert data["dims"] == [1, 4, 1]
    assert data["failures"] == []


def test_preconditions():
    with pytest.raises(ValueError):
        classical_worpitzky_check(1, 3)
    with pytest.raises(ValueError):
        verify_categorified_worpitzky(3, 2)  # r_max < n
