"""Exact engine for simplicial plate modules.

Plates are indicator functions of flag cones on the scaled simplex; this
package expands them in the standard basis (symbolically and through a
geometric oracle), computes the symmetric-group characters of the plate
modules by four independent routes, and verifies the power-to-Eulerian
identity at the level of characters.
"""

from .combinatorics import (
    Permutation,
    compose,
    cycle_type,
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
    lumpings,
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
    QPlate,
    expand,
    lumped_shuffles,
    oracle_expand,
    plate_vector,
    qbasis_is_invertible,
    qbasis_matrix,
    qplate,
    qplate_expand,
)
from .characters import (
    ClassFunction,
    NotACharacterError,
    action_matrix,
    gcd_character,
    gcd_formula,
    irreducible_dimension,
    mn_character,
    multiplicities,
    plate_character,
    sym_power_character,
    trivial_multiplicity_series,
)
from .oracle import (
    SamplePlan,
    SpanError,
    sample_generic,
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

from . import characters as _characters
from . import combinatorics as _combinatorics
from . import core as _core
from . import exactnum as _exactnum
from . import oracle as _oracle
from . import translation as _translation

__version__ = "0.1.0"

# captured at import, so clear_caches still reaches a cache after a tracer
# rebinds the module name to a wrapper without cache_clear
_LRU_CACHES = (
    _core._standard_basis,
    _combinatorics._partitions,
    _combinatorics._eulerian_ascents,
    _exactnum.cyclotomic_polynomial,
    _exactnum._power_table,
    _exactnum._zero,
    _characters._mn_value,
    _oracle._check_points,
    _oracle._solver,
    _translation._digit_columns,
    expand,
)


def clear_caches() -> None:
    """Empty every module-level cache: expansions, standard bases, partitions,
    Eulerian numbers, cyclotomic tables and zeros, Murnaghan-Nakayama values,
    the oracle's check points and basis solvers, and the translation algebra's
    digit columns.  Results are unchanged; only the memory and the work of
    rebuilding them move."""
    for cache in _LRU_CACHES:
        cache.cache_clear()
