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
from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import lcm

from .combinatorics import Permutation
from .exactnum import Combination, CyclotomicNumber, euler_phi, q_pow

Exponents = tuple[int, ...]


class TranslationElement(Combination):
    """Element of the algebra in normal form: sparse map from exponent
    vectors (j_2..j_n) to cyclotomic coefficients of order r."""

    __slots__ = ()

    @staticmethod
    def _key(n: int, r: int, exps: Exponents) -> Exponents:
        if len(exps) != n - 1:
            raise ValueError(f"exponent vector {exps} must have length n-1 = {n-1}")
        return tuple(e % r for e in exps)

    def __mul__(self, other: "TranslationElement") -> "TranslationElement":
        """Convolution of the exponent maps, as one integer product per pair
        of terms.

        An exponent vector e becomes the code sum(e_j * (2r)^j), so a product
        monomial's code is the sum of two codes with every digit below 2r and
        no carry.  A coefficient becomes its numerator vector over the
        operand's common denominator, packed into one integer with k-bit
        digits.  Products are summed per code, and each distinct code is
        reduced mod r once.  A key whose packed sum is 0 is dropped at once;
        any other is unpacked into balanced digits and reduced mod the
        cyclotomic polynomial."""
        if not isinstance(other, Combination):
            return NotImplemented
        self._check(other)
        n, r = self.n, self.r
        den1, largest1, terms1 = _integer_terms(self.terms, r)
        den2, largest2, terms2 = _integer_terms(other.terms, r)
        # a key's convolution digit sums at most min(len) pairs of terms (one
        # per term of the shorter operand), each adding at most phi products
        phi = euler_phi(r)
        bound = largest1 * largest2 * phi * min(len(terms1), len(terms2))
        k = bound.bit_length() + 1  # every digit lies in (-2^(k-1), 2^(k-1))
        packed1 = [(code, _pack(nums, k)) for code, nums in terms1]
        packed2 = [(code, _pack(nums, k)) for code, nums in terms2]
        sums: dict[int, int] = {}
        get = sums.get
        for code1, p1 in packed1:
            for code2, p2 in packed2:
                code = code1 + code2
                sums[code] = get(code, 0) + p1 * p2
        keyed: dict[Exponents, int] = {}
        base = 2 * r
        for code, total in sums.items():
            key = []
            for _ in range(n - 1):
                code, digit = divmod(code, base)
                key.append(digit - r if digit >= r else digit)
            key = tuple(key)
            keyed[key] = keyed.get(key, 0) + total
        den = den1 * den2
        terms = {}
        for key, total in keyed.items():
            if total:
                value = CyclotomicNumber.from_integer_poly(r, _unpack(total, k, 2 * phi - 1), den)
                if value:
                    terms[key] = value
        return TranslationElement._trusted(n, r, terms)

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


def _integer_terms(terms: dict[Exponents, CyclotomicNumber], r: int):
    """(D, M, [(code of exponents, [numerator of coeff * D, ...]), ...]) over
    the least common denominator D, where the code is sum(e_j * (2r)^j) and M
    is the largest absolute numerator."""
    den = lcm(1, *(c.denominator for c in terms.values()))
    out = []
    for exps, c in terms.items():
        code = 0
        for e in reversed(exps):
            code = code * 2 * r + e
        scale = den // c.denominator
        out.append((code, [a * scale for a in c.numerators] if scale != 1 else c.numerators))
    largest = max(map(abs, itertools.chain.from_iterable(nums for _, nums in out)), default=0)
    return den, largest, out


def _pack(nums: Sequence[int], k: int) -> int:
    """sum(nums[i] * 2^(k*i)): the polynomial evaluated at 2^k."""
    packed = 0
    for a in reversed(nums):
        packed = (packed << k) + a
    return packed


def _unpack(packed: int, k: int, length: int) -> list[int]:
    """The length digits of sum(d_i * 2^(k*i)), each d_i in [-2^(k-1), 2^(k-1))."""
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    digits = []
    for _ in range(length):
        d = packed & mask
        if d >= half:
            d -= 1 << k
        digits.append(d)
        packed = (packed - d) >> k
    return digits


def one(n: int, r: int) -> TranslationElement:
    return TranslationElement(n, r, {(0,) * (n - 1): 1})


def normalize_word(n: int, r: int, word: Iterable[tuple[int, int]], scalar=1) -> TranslationElement:
    """Normal form of scalar * prod e_i^{m_i} over (generator index, exponent)
    pairs; e_1^a contributes q^a and shifts every other exponent by -a."""
    exps = [0] * (n + 1)  # 1-based, slot 0 unused
    for gen, power in word:
        if not 1 <= gen <= n:
            raise ValueError(f"generator index {gen} out of range 1..{n}")
        exps[gen] += power
    a = exps[1] % r
    reduced = tuple((exps[i] - a) % r for i in range(2, n + 1))
    return TranslationElement(n, r, {reduced: q_pow(r, a) * scalar})


def generator(n: int, r: int, i: int) -> TranslationElement:
    return normalize_word(n, r, [(i, 1)])


def ta_act(sigma: Permutation, elt: TranslationElement) -> TranslationElement:
    """Permute generators e_i -> e_{sigma(i)} and renormalize each term by
    ``normalize_word``; sigma permutes the basis monomials, so no two terms
    land on one monomial."""
    if sigma.n != elt.n:
        raise ValueError(f"permutation on {sigma.n} letters, algebra has n={elt.n}")
    n, r = elt.n, elt.r
    words = (normalize_word(n, r, zip(sigma.images[1:], exps), c) for exps, c in elt.items())
    return TranslationElement(n, r, (term for word in words for term in word.items()))


@lru_cache(maxsize=4)
def _digit_columns(n: int, r: int) -> tuple[int, int, tuple[int, ...]]:
    """The basis exponent vectors as packed digit columns: (width, ones,
    columns), where field i of columns[s], bits width*i up, holds digit s of
    the i-th exponent vector in lexicographic order (digit 0 varies slowest,
    as in itertools.product(range(r), repeat=n - 1)), and ones has a 1 in
    every field.  Fields are whole bytes and hold any value below 3r with the
    top bit clear."""
    size = r ** (n - 1)
    nbytes = (3 * r - 1).bit_length() // 8 + 1
    columns = []
    for s in range(n - 1):
        run = r ** (n - 2 - s)  # digit s is constant over runs of this length
        cycle = b"".join(d.to_bytes(nbytes, "little") * run for d in range(r))
        columns.append(int.from_bytes(cycle * (size // (r * run)), "little"))
    ones = int.from_bytes((1).to_bytes(nbytes, "little") * size, "little")
    return 8 * nbytes, ones, tuple(columns)


def ta_trace(sigma: Permutation, n: int, r: int) -> CyclotomicNumber:
    """Trace of the permutation on the monomial basis; the action matrix is
    monomial, so only self-mapped monomials contribute.  They are counted per
    power of zeta, and the counts become one cyclotomic number.

    Every basis monomial is tested, one packed field each: sigma sends the
    monomial with exponents e to q^a times the one with digits
    (x_j - a) mod r, where x_j is the exponent moved onto e_{j+2} and a the
    one moved onto e_1 (0 from e_1 itself).  Digit j is fixed iff
    x_j + 2r - a - e_j, a field value in [2, 3r), is r or 2r."""
    width, ones, columns = _digit_columns(n, r)
    top = ones << (width - 1)
    below = top - ones  # the bits under each field's top bit

    def zero_fields(v):  # top bit of each field of v that is 0; fields < 2^(width-1)
        return top & ~(v + below)

    moved = [0] * (n + 1)  # moved[i]: column of the exponent sigma moves onto e_i
    for s, column in enumerate(columns):
        moved[sigma(s + 2)] = column
    a = moved[1]
    fixed = top
    for column, x in zip(columns, moved[2:]):
        diff = x + 2 * r * ones - a - column
        fixed &= zero_fields(diff ^ r * ones) | zero_fields(diff ^ 2 * r * ones)
    counts = [0] * r  # counts[m]: fixed monomials with coefficient q^{-m} = zeta^m
    for digit in range(r):
        counts[-digit % r] = (fixed & zero_fields(a ^ digit * ones)).bit_count()
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
    """The projector (1/r^n) * prod_j sum_k (q^{-i_j} e_j)^k, with eigenvalue
    q^{i_j} for e_j.  As sum(label) = 1 mod r, the product puts r equal terms
    on each basis monomial e, so its coefficient is zeta^{e . label[1:]} / r^{n-1}."""
    label = tuple(label)
    n = len(label)
    if any(not 0 <= i < r for i in label):
        raise ValueError(f"label entries must lie in 0..{r-1}: {label}")
    if sum(label) % r != 1 % r:
        raise ValueError(f"label {label} not in the admissible set: sum != 1 mod {r}")
    den = r ** (n - 1)
    powers = [CyclotomicNumber.from_integer_poly(r, [0] * k + [1], den) for k in range(r)]
    terms = {
        exps: powers[sum(e * i for e, i in zip(exps, label[1:])) % r]
        for exps in itertools.product(range(r), repeat=n - 1)
    }
    return TranslationElement._trusted(n, r, terms)


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

    total = TranslationElement(n, r, (term for e in eps.values() for term in e.items()))
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
        import random  # here, as only this sampled branch draws pairs
        rng = random.Random(2718281828 + n * 31 + r)
        pairs = rng.sample(pairs, min(_SAMPLE_PAIRS, len(pairs)))
        checked = "sampled"
    else:
        checked = "exhaustive"
    for a, b in pairs:
        if eps[a] * eps[b]:
            failures.append(f"orthogonality fails for {a}, {b}")

    details = {
        "labels": len(labels),
        "pair_mode": checked,
        "checked_pairs": len(pairs),
        "failures": failures,
    }
    return not failures, details
