import sys

import plates
from plates import oracle
from plates.characters import mn_character, plate_character
from plates.combinatorics import eulerian_row, partitions, permutation_with_cycle_type
from plates.core import all_plates, parse_plate, standard_basis
from plates.expansion import expand, oracle_expand, qbasis_matrix
from plates.oracle import SamplePlan, next_prime_above, rank_report, verify_identity_ae
from plates.translation import ta_trace, verify_partition_of_unity
from plates.worpitzky import verify_categorified_worpitzky


def lru_caches():
    """Every lru_cache bound to a name in a loaded plates module."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "plates" or name.startswith("plates."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_info"):
                    found[f"{name}.{attr}"] = value
    return found


def results():
    return (
        [c.to_json() for row in qbasis_matrix(2, 3)[0] for c in row],
        plate_character(4, 3).values,
        [mn_character(mu).values for mu in partitions(4)],
        eulerian_row(6),
        [expand(p).to_json() for p in all_plates(3, 3)],
        oracle_expand(parse_plate("[[{2}_1 {1,3}_2]]")).to_json(),
        rank_report(standard_basis(3, 2), SamplePlan(3, 2)).rank,
        verify_identity_ae(parse_plate("[[{1,2}_2]]"), parse_plate("[[{1}_1 {2}_1]]"), SamplePlan(2, 2)),
        verify_categorified_worpitzky(4, 4).to_json(),
        verify_partition_of_unity(2, 3),
        ta_trace(permutation_with_cycle_type((2, 1)), 3, 4),
    )


def test_every_cache_is_bounded():
    caches = lru_caches()
    assert caches
    unbounded = [name for name, cache in caches.items() if cache.cache_info().maxsize is None]
    assert unbounded == []


def test_clear_caches_empties_every_cache_and_keeps_results():
    before = results()
    assert oracle._check_points.cache_info().currsize and oracle._solver.cache_info().currsize
    plates.clear_caches()
    left = {name: c.cache_info().currsize for name, c in lru_caches().items()}
    assert set(left.values()) == {0}, left
    assert "plates.oracle._check_points" in left and "plates.oracle._solver" in left
    assert results() == before


def _primes_above(n, count):
    primes = [next_prime_above(n)]
    while len(primes) < count:
        primes.append(next_prime_above(primes[-1]))
    return primes


def _stats(cache):
    info = cache.cache_info()
    return info.hits, info.misses, info.currsize


def test_plan_caches_evict_the_oldest_plan():
    # both oracle caches are LRU: the plan evicted is the least recently used
    plates.clear_caches()
    size = oracle._solver.cache_info().maxsize
    # solvers are keyed by the plan without its seed, so they are told apart
    # by a pinned denominator
    target = parse_plate("[[{2}_1 {1}_1]]")
    plans = [SamplePlan(2, 2, denominator=d) for d in _primes_above(2, size + 3)]
    first = oracle_expand(target, plans[0])
    for plan in plans[1:]:
        assert oracle_expand(target, plan) == first
    assert _stats(oracle._solver) == (0, size + 3, size)
    assert oracle_expand(target, plans[3]._replace(seed=5)) == first  # now most recent
    assert _stats(oracle._solver) == (1, size + 3, size)
    assert oracle_expand(target, plans[0]) == first  # evicts plans[4], not plans[3]
    assert oracle_expand(target, plans[3]) == first
    assert _stats(oracle._solver) == (2, size + 4, size)
    assert oracle_expand(target, plans[4]) == first
    assert _stats(oracle._solver) == (2, size + 5, size)
    # check points are keyed by the whole plan, seed included
    lhs = parse_plate("[[{1,2}_2]]")
    cells = [(1, parse_plate("[[{1}_1 {2}_1]]")), (1, parse_plate("[[{2}_1 {1}_1]]"))]
    seeded = [SamplePlan(2, 2, seed=seed) for seed in range(size + 3)]
    for plan in seeded:
        assert verify_identity_ae(lhs, cells, plan) == (True, None)
    assert _stats(oracle._check_points) == (0, size + 3, size)
    assert verify_identity_ae(lhs, cells, seeded[-1]) == (True, None)
    assert _stats(oracle._check_points) == (1, size + 3, size)
    assert verify_identity_ae(lhs, cells, seeded[0]) == (True, None)
    assert _stats(oracle._check_points) == (1, size + 4, size)
