import sys

import plates
from plates import oracle
from plates.characters import mn_character, plate_character
from plates.combinatorics import eulerian_row, partitions
from plates.core import all_plates, parse_plate, standard_basis
from plates.expansion import expand, oracle_expand, qbasis_matrix
from plates.oracle import SamplePlan, next_prime_above, rank_report, verify_identity_ae
from plates.translation import verify_partition_of_unity
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
    )


def test_every_cache_is_bounded():
    caches = lru_caches()
    assert caches
    unbounded = [name for name, cache in caches.items() if cache.cache_info().maxsize is None]
    assert unbounded == []


def test_clear_caches_empties_every_cache_and_keeps_results():
    before = results()
    assert all(oracle._point_cache.values()) and oracle._solver_cache
    plates.clear_caches()
    left = {name: c.cache_info().currsize for name, c in lru_caches().items()}
    assert set(left.values()) == {0}, left
    assert oracle._point_cache == {} and oracle._solver_cache == {}
    assert results() == before


def _primes_above(n, count):
    primes = [next_prime_above(n)]
    while len(primes) < count:
        primes.append(next_prime_above(primes[-1]))
    return primes


def test_plan_caches_evict_the_oldest_plan():
    plates.clear_caches()
    size = oracle._PLAN_CACHE_SIZE
    # solvers are keyed by the plan without its seed, so they are told apart
    # by a pinned denominator
    target = parse_plate("[[{2}_1 {1}_1]]")
    plans = [SamplePlan(2, 2, denominator=d) for d in _primes_above(2, size + 3)]
    first = oracle_expand(target, plans[0])
    for plan in plans[1:]:
        assert oracle_expand(target, plan) == first
    assert len(oracle._solver_cache) == size
    keys = [key for _, key in oracle._solver_cache]
    assert plans[0] not in keys and plans[-1] in keys
    assert oracle_expand(target, plans[0]) == first
    # sampled points are keyed by the whole plan, seed included
    lhs = parse_plate("[[{1,2}_2]]")
    cells = [(1, parse_plate("[[{1}_1 {2}_1]]")), (1, parse_plate("[[{2}_1 {1}_1]]"))]
    seeded = [SamplePlan(2, 2, seed=seed) for seed in range(size + 3)]
    for plan in seeded:
        assert verify_identity_ae(lhs, cells, plan) == (True, None)
    assert len(oracle._point_cache) == size
    assert seeded[0].key() not in oracle._point_cache
    assert seeded[-1].key() in oracle._point_cache
    assert verify_identity_ae(lhs, cells, seeded[0]) == (True, None)
