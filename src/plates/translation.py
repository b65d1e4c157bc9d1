"""The translation algebra on a discrete torus: the commutative algebra on
generators e_1..e_n with e_i^r = 1 and e_1*...*e_n = q, where q is the
clockwise primitive r-th root of unity.

Normal form eliminates e_1 through e_1 = q * (e_2*...*e_n)^{-1}, leaving the
monomial basis e_2^{j_2}...e_n^{j_n} with exponents mod r; the dimension is
r^{n-1}.  The module also provides the permutation action, traces, the
idempotent family indexed by labels summing to 1 mod r, and the modular
counting of character values.
"""

from __future__ import annotations

import itertools
import random
from math import lcm
from typing import Iterable, Sequence

from .combinatorics import Permutation
from .exactnum import CyclotomicNumber, euler_phi, q_pow

Exponents = tuple[int, ...]


class TranslationElement:
    """Element of the algebra in normal form: sparse map from exponent
    vectors (j_2..j_n) to cyclotomic coefficients of order r."""

    __slots__ = ("n", "r", "terms")

    def __init__(self, n: int, r: int, terms: dict[Exponents, CyclotomicNumber] | None = None):
        if n < 1 or r < 1:
            raise ValueError("need n >= 1 and r >= 1")
        clean: dict[Exponents, CyclotomicNumber] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != n - 1:
                raise ValueError(f"exponent vector {exps} must have length n-1 = {n-1}")
            key = tuple(e % r for e in exps)
            c = clean.get(key)
            c = coeff if c is None else c + coeff
            if c:
                clean[key] = c
            else:
                clean.pop(key, None)
        self.n = n
        self.r = r
        self.terms = clean

    def _check(self, other: "TranslationElement") -> None:
        if self.n != other.n or self.r != other.r:
            raise ValueError(
                f"algebra mismatch: (n={self.n}, r={self.r}) vs (n={other.n}, r={other.r})"
            )

    def __add__(self, other: "TranslationElement") -> "TranslationElement":
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = terms.get(exps)
            terms[exps] = coeff if cur is None else cur + coeff
        return TranslationElement(self.n, self.r, terms)

    def __neg__(self) -> "TranslationElement":
        return TranslationElement(self.n, self.r, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TranslationElement") -> "TranslationElement":
        return self + (-other)

    def __mul__(self, other: "TranslationElement") -> "TranslationElement":
        """Convolution of the exponent maps.  Coefficients are multiplied as
        integer numerator vectors over the product of the two common
        denominators, summed per exponent key, and reduced mod the cyclotomic
        polynomial once per key."""
        self._check(other)
        r = self.r
        den1, terms1 = _integer_terms(self.terms)
        den2, terms2 = _integer_terms(other.terms)
        width = 2 * euler_phi(r) - 1
        sums: dict[Exponents, list[int]] = {}
        for e1, c1 in terms1:
            for e2, c2 in terms2:
                key = tuple([(a + b) % r for a, b in zip(e1, e2)])
                conv = sums.get(key)
                if conv is None:
                    conv = sums[key] = [0] * width
                for i, x in c1:
                    for j, y in c2:
                        conv[i + j] += x * y
        den = den1 * den2
        return TranslationElement(
            self.n,
            r,
            {key: CyclotomicNumber.from_integer_poly(r, conv, den) for key, conv in sums.items()},
        )

    def scale(self, scalar) -> "TranslationElement":
        if not isinstance(scalar, CyclotomicNumber):
            scalar = CyclotomicNumber.from_rational(self.r, scalar)
        return TranslationElement(self.n, self.r, {e: scalar * c for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, TranslationElement):
            return NotImplemented
        return self.n == other.n and self.r == other.r and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms):
            mono = "*".join(
                f"e{i+2}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            ) or "1"
            bits.append(f"({self.terms[exps]})*{mono}")
        return " + ".join(bits)

    __repr__ = __str__


def _integer_terms(terms: dict[Exponents, CyclotomicNumber]):
    """(D, [(exponents, [(i, numerator of coeffs[i] * D), ...]), ...]) over the
    least common denominator D, listing nonzero numerators only."""
    den = lcm(1, *(c.denominator for c in terms.values()))
    return den, [
        (exps, [(i, a * (den // c.denominator)) for i, a in enumerate(c.numerators) if a])
        for exps, c in terms.items()
    ]


def one(n: int, r: int) -> TranslationElement:
    return TranslationElement(n, r, {(0,) * (n - 1): CyclotomicNumber.one(r)})


def monomial(n: int, r: int, exps: Exponents, coeff=1) -> TranslationElement:
    if not isinstance(coeff, CyclotomicNumber):
        coeff = CyclotomicNumber.from_rational(r, coeff)
    return TranslationElement(n, r, {tuple(exps): coeff})


def normalize_word(n: int, r: int, word: Iterable[tuple[int, int]], scalar=1) -> TranslationElement:
    """Normal form of scalar * prod e_i^{m_i} over (generator index, exponent)
    pairs; e_1^a contributes q^a and shifts every other exponent by -a."""
    exps = [0] * (n + 1)  # 1-based, slot 0 unused
    for gen, power in word:
        if not 1 <= gen <= n:
            raise ValueError(f"generator index {gen} out of range 1..{n}")
        exps[gen] += power
    a = exps[1] % r
    coeff = q_pow(r, a)
    if not isinstance(scalar, CyclotomicNumber):
        scalar = CyclotomicNumber.from_rational(r, scalar)
    reduced = tuple((exps[i] - a) % r for i in range(2, n + 1))
    return TranslationElement(n, r, {reduced: scalar * coeff})


def generator(n: int, r: int, i: int) -> TranslationElement:
    return normalize_word(n, r, [(i, 1)])


def ta_multiply(a: TranslationElement, b: TranslationElement) -> TranslationElement:
    return a * b


def ta_act(sigma: Permutation, elt: TranslationElement) -> TranslationElement:
    """Permute generators e_i -> e_{sigma(i)} and renormalize."""
    if sigma.n != elt.n:
        raise ValueError(f"permutation on {sigma.n} letters, algebra has n={elt.n}")
    out = TranslationElement(elt.n, elt.r)
    for exps, coeff in elt.terms.items():
        word = [(sigma(i + 2), e) for i, e in enumerate(exps)]
        out = out + normalize_word(elt.n, elt.r, word, coeff)
    return out


def _monomial_image(slots: list[int], r: int, exps: Exponents):
    """Image of a basis monomial under sigma, given slots[i] = sigma(i + 2), as
    (a, exponent vector): sigma maps it to q^a times the monomial with that
    exponent vector."""
    new = [0] * (len(slots) + 2)
    for slot, e in zip(slots, exps):
        new[slot] = e
    a = new[1] % r
    return a, tuple([(x - a) % r for x in new[2:]])


def _act_on_monomial(sigma: Permutation, n: int, r: int, exps: Exponents):
    """Image of a basis monomial: (coefficient, exponent vector)."""
    a, image = _monomial_image([sigma(i) for i in range(2, n + 1)], r, exps)
    return q_pow(r, a), image


def basis_exponents(n: int, r: int):
    return itertools.product(range(r), repeat=n - 1)


def ta_trace(sigma: Permutation, n: int, r: int) -> CyclotomicNumber:
    """Trace of the permutation on the monomial basis; the action matrix is
    monomial, so only self-mapped monomials contribute.  They are counted per
    power of zeta, and the counts become one cyclotomic number."""
    slots = [sigma(i) for i in range(2, n + 1)]
    counts = [0] * r  # counts[m]: fixed monomials with coefficient q^{-m} = zeta^m
    for exps in basis_exponents(n, r):
        a, image = _monomial_image(slots, r, exps)
        if image == exps:
            counts[-a % r] += 1
    return CyclotomicNumber.from_integer_poly(r, counts)


def diophantine_count(lam: Sequence[int], r: int) -> int:
    """Number of x in (Z/r)^k with sum(lam_i * x_i) = 1 mod r.

    Dynamic programming over the residue of the partial sum: counts[s] is the
    number of prefixes (x_1..x_j) with sum(lam_i * x_i) = s mod r, so the cost
    is O(k * r^2) at every size.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    counts = [0] * r
    counts[0] = 1
    for part in lam:
        steps = [0] * r  # steps[t]: residues x with part * x = t mod r
        for x in range(r):
            steps[part * x % r] += 1
        nxt = [0] * r
        for s, c in enumerate(counts):
            if c:
                for t, m in enumerate(steps):
                    if m:
                        nxt[(s + t) % r] += c * m
        counts = nxt
    return counts[1 % r]


# ---------------------------------------------------------------------------
# idempotents


def admissible_labels(n: int, r: int) -> list[tuple[int, ...]]:
    """All labels (i_1..i_n) in {0..r-1}^n with sum = 1 mod r."""
    return [
        label
        for label in itertools.product(range(r), repeat=n)
        if sum(label) % r == 1 % r
    ]


def idempotent(label: Sequence[int], r: int) -> TranslationElement:
    """The projector with eigenvalue q^{i_j} for e_j:
    (1/r^n) * prod_j sum_k (q^{-i_j} e_j)^k."""
    label = tuple(label)
    n = len(label)
    if any(not 0 <= i < r for i in label):
        raise ValueError(f"label entries must lie in 0..{r-1}: {label}")
    if sum(label) % r != 1 % r:
        raise ValueError(f"label {label} not in the admissible set: sum != 1 mod {r}")
    powers: dict[Exponents, list[int]] = {}  # per monomial, counts of each power of zeta
    for ks in itertools.product(range(r), repeat=n):
        # the term q^{-sum k_j i_j} e_1^{k_1}...e_n^{k_n}, with e_1^a = q^a e_2^{-a}...e_n^{-a}
        a = ks[0]
        exps = tuple((k - a) % r for k in ks[1:])
        counts = powers.get(exps)
        if counts is None:
            counts = powers[exps] = [0] * r
        counts[(sum(k * i for k, i in zip(ks, label)) - a) % r] += 1
    den = r**n
    return TranslationElement(
        n, r, {e: CyclotomicNumber.from_integer_poly(r, c, den) for e, c in powers.items()}
    )


def fixed_label_count(sigma: Permutation, n: int, r: int) -> int:
    """Labels in the admissible set fixed by coordinate permutation."""
    count = 0
    for label in admissible_labels(n, r):
        if all(label[sigma(j + 1) - 1] == label[j] for j in range(n)):
            count += 1
    return count


# The pair check of verify_partition_of_unity is exhaustive up to this r^n,
# and above it checks this many pairs drawn with a fixed seed.
_EXHAUSTIVE_CAP = 4096
_SAMPLE_PAIRS = 64


def verify_partition_of_unity(n: int, r: int):
    """Check the idempotent family: orthogonality, completeness, and the
    eigen-relations e_j eps = q^{i_j} eps and (e_1...e_n) eps = q eps.

    All labels are checked individually; the quadratic pair check is
    exhaustive when r^n <= _EXHAUSTIVE_CAP, else a deterministic sample of
    _SAMPLE_PAIRS pairs.  Returns (ok, details dict).
    """
    labels = admissible_labels(n, r)
    eps = {label: idempotent(label, r) for label in labels}
    gens = [generator(n, r, i) for i in range(1, n + 1)]
    failures = []

    total = TranslationElement(n, r)
    for label in labels:
        total = total + eps[label]
    if total != one(n, r):
        failures.append("sum of idempotents is not the identity")

    for label in labels:
        e = eps[label]
        if e * e != e:
            failures.append(f"idempotency fails for {label}")
        for j, g in enumerate(gens):
            if g * e != e.scale(q_pow(r, label[j])):
                failures.append(f"eigen-relation fails for e_{j+1} on {label}")
        prod = e
        for g in gens:
            prod = g * prod
        if prod != e.scale(q_pow(r, 1)):
            failures.append(f"(e_1...e_n) eigenvalue fails for {label}")

    pairs = [(a, b) for a in labels for b in labels if a != b]
    if r**n > _EXHAUSTIVE_CAP:
        rng = random.Random(2718281828 + n * 31 + r)
        pairs = rng.sample(pairs, min(_SAMPLE_PAIRS, len(pairs)))
        checked = "sampled"
    else:
        checked = "exhaustive"
    zero = TranslationElement(n, r)
    for a, b in pairs:
        if eps[a] * eps[b] != zero:
            failures.append(f"orthogonality fails for {a}, {b}")

    details = {
        "labels": len(labels),
        "pair_mode": checked,
        "checked_pairs": len(pairs),
        "failures": failures,
    }
    return not failures, details
