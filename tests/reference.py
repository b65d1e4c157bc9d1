"""Helpers and reference implementations that only the tests use; the package
needs none of them.

``sym_power_character`` and ``triangular_hypersimplex_characters`` are the
symmetric-power route to the hypersimplex characters, the cross-check of the
series route in ``plates.worpitzky``.  ``trivial_multiplicity_series`` averages
the gcd closed form over the classes.  ``product_idempotent`` expands an
idempotent's product form, the cross-check of its closed form.
``cyclotomic_text`` writes a cyclotomic number's text form from its
``Fraction`` coefficients, the cross-check of ``CyclotomicNumber.__str__``,
which reads the integers.  The rest
build test inputs: every permutation, every lumping of a plate, one
translation-algebra monomial and the basis exponent vectors."""

from __future__ import annotations

import itertools
import math

from plates.characters import ClassFunction, character, gcd_formula
from plates.combinatorics import Permutation, class_size, enumerate_compositions, partitions
from plates.core import Plate
from plates.exactnum import CyclotomicNumber
from plates.translation import TranslationElement


def all_permutations(n: int):
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def lumpings(p: Plate) -> list[Plate]:
    """All plates obtained by merging maximal runs of consecutive lumps
    (positions add); includes p itself, 2^{k-1} in total."""
    out = []
    # a lumping is a composition of k: the run lengths of merged lumps
    for m in range(1, p.k + 1):
        for runs in enumerate_compositions(p.k, m):
            blocks = []
            positions = []
            a = 0
            for length in runs:
                blocks.append(tuple(e for blk in p.blocks[a : a + length] for e in blk))
                positions.append(sum(p.positions[a : a + length]))
                a += length
            out.append(Plate(p.n, tuple(blocks), tuple(positions)))
    return out


def monomial(n: int, r: int, exps, coeff=1) -> TranslationElement:
    return TranslationElement(n, r, {tuple(exps): coeff})


def basis_exponents(n: int, r: int):
    """The exponent vectors of the monomial basis, in lexicographic order."""
    return itertools.product(range(r), repeat=n - 1)


def product_idempotent(label, r: int) -> TranslationElement:
    """The idempotent of an admissible label by expanding its product form
    (1/r^n) * prod_j sum_k (q^{-i_j} e_j)^k term by term: r^n terms, the
    cross-check of the closed form in ``plates.translation.idempotent``."""
    n = len(label)
    powers: dict[tuple[int, ...], list[int]] = {}  # per monomial, counts of each power of zeta
    for ks in itertools.product(range(r), repeat=n):
        # the term q^{-sum k_j i_j} e_1^{k_1}...e_n^{k_n}, with e_1^a = q^a e_2^{-a}...e_n^{-a}
        a = ks[0]
        exps = tuple((k - a) % r for k in ks[1:])
        counts = powers.setdefault(exps, [0] * r)
        counts[(sum(k * i for k, i in zip(ks, label)) - a) % r] += 1
    den = r**n
    return TranslationElement(
        n, r, {e: CyclotomicNumber.from_integer_poly(r, c, den) for e, c in powers.items()}
    )


def sym_power_character(k: int, n: int) -> ClassFunction:
    """Character of the degree-k symmetric power of the permutation space:
    value at lam is the t^k coefficient of prod_i 1/(1 - t^{lam_i})."""
    table = {}
    for lam in partitions(n):
        if k < 0:
            table[lam] = 0
            continue
        coeffs = [0] * (k + 1)
        coeffs[0] = 1
        for part in lam:
            for d in range(part, k + 1):
                coeffs[d] += coeffs[d - part]
        table[lam] = coeffs[k]
    return ClassFunction.from_dict(n, table)


def triangular_hypersimplex_characters(n: int) -> list[ClassFunction]:
    """chi_B(a) for a = 1..n-1 by triangular inversion of the gcd characters:
    chi_B(a) = chi_simplex(a) - sum_{a' < a} sym^{a-a'} * chi_B(a')."""
    derived: list[ClassFunction] = []
    for a in range(1, n):
        chi = character("formula", n, a)
        for a_prev, chi_prev in enumerate(derived, start=1):
            chi = chi - sym_power_character(a - a_prev, n) * chi_prev
        derived.append(chi)
    return derived


def trivial_multiplicity_series(n: int, r_max: int) -> list[int]:
    """Multiplicity of the trivial representation in the plate module for
    r = 1..r_max, averaging the gcd closed form over the classes."""
    out = []
    fact = math.factorial(n)
    for r in range(1, r_max + 1):
        total = sum(class_size(lam) * gcd_formula(lam, r) for lam in partitions(n))
        q, rem = divmod(total, fact)
        assert rem == 0, "trivial multiplicity must be an integer"
        out.append(q)
    return out


def cyclotomic_text(coeffs) -> str:
    """The text form of sum(coeffs[i] * z^i) for a vector of Fractions."""
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mon = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
        if i == 0:
            term = str(c)
        elif c == 1:
            term = mon
        elif c == -1:
            term = f"-{mon}"
        else:
            term = f"{c}*{mon}"
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"
