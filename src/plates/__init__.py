"""Exact engine for simplicial plate modules.

Plates are indicator functions of flag cones on the scaled simplex; this
package expands them in the standard basis (symbolically and through a
geometric oracle), computes the symmetric-group characters of the plate
modules by four independent routes, and verifies the power-to-Eulerian
identity at the level of characters.
"""

import sys

from .combinatorics import (
    Permutation,
    enumerate_compositions,
    enumerate_osp,
    eulerian,
    eulerian_row,
    parse_permutation,
    partitions,
)
from .core import (
    Plate,
    PlateParseError,
    all_plates,
    apply_permutation,
    evaluate,
    is_standard,
    parse_plate,
    print_plate,
    rotate,
    standard_basis,
)
from .exactnum import (
    CyclotomicNumber,
    OrderMismatchError,
    cyclotomic_polynomial,
    euler_phi,
    q_pow,
    zeta_pow,
)
from .expansion import (
    PlateVector,
    expand,
    lumped_shuffles,
    oracle_expand,
    qbasis_is_invertible,
    qbasis_matrix,
    qplate,
    qplate_expand,
)
from .characters import (
    ClassFunction,
    NotACharacterError,
    character,
    gcd_formula,
    irreducible_dimension,
    mn_character,
    multiplicities,
    plate_character,
)
from .oracle import (
    SamplePlan,
    SpanError,
    solve_in_basis,
    verify_identity_ae,
)
from .translation import (
    TranslationElement,
    admissible_labels,
    diophantine_count,
    fixed_label_count,
    idempotent,
    normalize_word,
    ta_act,
    ta_trace,
    verify_partition_of_unity,
)
from .worpitzky import (
    WorpitzkyReport,
    classical_worpitzky_check,
    derive_hypersimplex_characters,
    verify_categorified_worpitzky,
)

__version__ = "0.1.0"

# captured at import, so clear_caches still reaches a cache after a tracer
# rebinds a module name to a wrapper without cache_clear; a cache imported
# into several modules is one object, kept once
_LRU_CACHES = tuple(
    {
        id(value): value
        for name, module in sys.modules.items()
        if name.startswith(__name__ + ".")
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    }.values()
)


def clear_caches() -> None:
    """Empty every module-level cache: expansions, standard bases, partitions,
    Eulerian numbers, cyclotomic tables and zeros, Murnaghan-Nakayama values,
    the oracle's check points and basis solvers, and the translation algebra's
    digit columns.  Results are unchanged; only the memory and the work of
    rebuilding them move."""
    for cache in _LRU_CACHES:
        cache.cache_clear()
