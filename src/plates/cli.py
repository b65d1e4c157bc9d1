"""Command-line interface: expansions, characters, and verification suites.

Exit codes: 0 success, 1 verification failure (witness in the JSON, or an
error on stderr when the oracle cannot fit), 2 usage errors.  With
--json the stdout payload is deterministic for fixed flags and seed (per-check
timings go to stderr, never into the JSON).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .characters import (
    ENGINES,
    NotACharacterError,
    character,
    irreducible_dimension,
    multiplicities,
)
from .combinatorics import (
    PermutationParseError,
    eulerian_row,
    partitions,
    parse_permutation,
    permutation_with_cycle_type,
)
from .core import (
    Plate,
    PlateParseError,
    all_plates,
    apply_permutation,
    parse_plate,
    print_plate,
    rotate,
    standard_basis,
)
from .expansion import (
    PlateVector,
    expand,
    oracle_expand,
    qbasis_is_invertible,
    qbasis_matrix,
    qplate,
    qplate_expand,
)
from .oracle import SamplePlan, SpanError, rank_report, verify_identity_ae
from .translation import fixed_label_count, verify_partition_of_unity
from .worpitzky import classical_worpitzky_check, verify_categorified_worpitzky

SCHEMA = 1


def _partition_key(lam) -> str:
    return "-".join(str(part) for part in lam)


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _plan(args, n: int, r: int) -> SamplePlan:
    return SamplePlan(n=n, r=r, seed=args.seed, denominator=args.denominator)


def _parse_plate_arg(text: str, n=None) -> tuple[Plate, bool]:
    """Returns (plate, is_qplate); q-plates are written q[[ ... ]]."""
    stripped = text.strip()
    if stripped.startswith("q"):
        return parse_plate(stripped[1:], n=n), True
    return parse_plate(stripped, n=n), False


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(args) -> int:
    plate, is_q = _parse_plate_arg(args.plate, n=args.n)
    method = args.method
    sym = orc = None
    if method in ("shuffle", "both"):
        sym = qplate_expand(plate) if is_q else expand(plate)
    if method in ("oracle", "both"):
        plan = _plan(args, plate.n, plate.r)
        if is_q:
            rotations = qplate(plate).expansion
            images = ((coeff, oracle_expand(rotated, plan)) for coeff, rotated in rotations)
            orc = PlateVector.combine(plate.n, plate.r, images)
        else:
            orc = oracle_expand(plate, plan)
    result = sym if sym is not None else orc
    agree = sym == orc if method == "both" else None
    payload = {
        "command": "expand",
        "input": ("q" if is_q else "") + print_plate(plate),
        "method": method,
        "expansion": result.to_json(),
    }
    lines = [f"{payload['input']} = {result}"]
    if agree is not None:
        payload["engines_agree"] = agree
        lines.append(f"engines agree: {agree}")
    _emit(args, payload, lines)
    return 0 if agree in (None, True) else 1


def cmd_act(args) -> int:
    plate, is_q = _parse_plate_arg(args.plate, n=args.n)
    sigma = parse_permutation(args.perm, n=plate.n)
    if is_q:
        result = qplate_expand(plate).apply_permutation(sigma)
    else:
        result = expand(apply_permutation(sigma, plate))
    payload = {
        "command": "act",
        "perm": sigma.to_cycle_string(),
        "input": ("q" if is_q else "") + print_plate(plate),
        "result": result.to_json(),
    }
    _emit(args, payload, [f"{sigma} . {payload['input']} = {result}"])
    return 0


def cmd_character(args) -> int:
    chi = character(args.engine, args.n, args.r)
    values = {_partition_key(lam): int(v) for lam, v in chi.values}
    payload = {
        "command": "character",
        "engine": args.engine,
        "n": args.n,
        "r": args.r,
        "values": values,
    }
    lines = [f"character of the plate module, n={args.n}, r={args.r} ({args.engine})"]
    lines += [f"  {key:>12}  {val}" for key, val in values.items()]
    _emit(args, payload, lines)
    return 0


def cmd_multiplicities(args) -> int:
    chi = character(args.engine, args.n, args.r)
    table = multiplicities(chi)
    payload = {
        "command": "multiplicities",
        "engine": args.engine,
        "n": args.n,
        "r": args.r,
        "multiplicities": {_partition_key(mu): m for mu, m in table.items()},
        "dimension_audit": sum(m * irreducible_dimension(mu) for mu, m in table.items())
        == args.r ** (args.n - 1),
    }
    lines = [f"irreducible multiplicities, n={args.n}, r={args.r}"]
    lines += [f"  {_partition_key(mu):>12}  {m}" for mu, m in table.items()]
    lines.append(f"dimension audit: {payload['dimension_audit']}")
    _emit(args, payload, lines)
    return 0 if payload["dimension_audit"] else 1


def cmd_eulerian(args) -> int:
    rows = [eulerian_row(m) for m in range(1, args.rows + 1)]
    payload = {"command": "eulerian", "rows": rows}
    _emit(args, payload, [" ".join(str(v) for v in row) for row in rows])
    return 0


def cmd_dims(args) -> int:
    basis = standard_basis(args.n, args.r)
    plan = _plan(args, args.n, args.r)
    report = rank_report(basis, plan)
    expected = args.r ** (args.n - 1)
    payload = {
        "command": "dims",
        "n": args.n,
        "r": args.r,
        "standard_count": len(basis),
        "rank": report.rank,
        "points_used": report.points_used,
        "expected": expected,
        "match": len(basis) == report.rank == expected,
        "denominator": report.denominator,
    }
    _emit(
        args,
        payload,
        [
            f"standard basis size: {len(basis)}",
            f"oracle rank: {report.rank} (points used: {report.points_used}, "
            f"denominator: {report.denominator})",
            f"expected r^(n-1): {expected}",
            f"match: {payload['match']}",
        ],
    )
    return 0 if payload["match"] else 1


def cmd_qbasis(args) -> int:
    rows, basis = qbasis_matrix(args.n, args.r)
    invertible = qbasis_is_invertible(rows)
    payload = {
        "command": "qbasis",
        "n": args.n,
        "r": args.r,
        "size": len(basis),
        "invertible": invertible,
        "matrix": [[c.to_json() for c in row] for row in rows],
    }
    lines = [f"q-basis matrix, n={args.n}, r={args.r}, size {len(basis)}"]
    if len(basis) <= 12:
        lines += ["  [" + ", ".join(str(c) for c in row) + "]" for row in rows]
    lines.append(f"invertible: {invertible}")
    _emit(args, payload, lines)
    return 0 if invertible else 1


# ---------------------------------------------------------------------------
# verification suites


def _checks_cyclic_sum(n: int, r: int, plan: SamplePlan):
    full = Plate(n, (tuple(range(1, n + 1)),), (r,))
    for base in all_plates(n, r):
        name = f"cyclic-sum {print_plate(base)}"

        def check(base=base):
            rotations = [(1, rotate(base, t)) for t in range(base.k)]
            ok, witness = verify_identity_ae(full, rotations, plan)
            return ok, None if ok else {"point": [str(v) for v in witness]}

        yield name, check


def _checks_relations(n: int, r: int, plan: SamplePlan):
    for plate in all_plates(n, r):
        name = f"expansion {print_plate(plate)}"

        def check(plate=plate):
            sym = expand(plate)
            orc = oracle_expand(plate, plan)
            ok = sym == orc
            return ok, None if ok else {"shuffle": str(sym), "oracle": str(orc)}

        yield name, check


def _checks_characters(n: int, r: int):
    for lam in partitions(n):
        name = f"character class {_partition_key(lam)}"

        def check(lam=lam):
            values = {engine: value(lam, r) for engine, value in ENGINES.items()}
            values["fixed-labels"] = fixed_label_count(permutation_with_cycle_type(lam), n, r)
            ok = len(set(values.values())) == 1
            return ok, None if ok else {k: str(v) for k, v in values.items()}

        yield name, check


def _checks_worpitzky(n: int, r_max: int):
    def classical():
        bad = [r for r in range(1, r_max + 1) if not classical_worpitzky_check(n, r)]
        return not bad, None if not bad else {"failing_r": bad}

    yield f"classical identity r<={r_max}", classical

    def categorified():
        report = verify_categorified_worpitzky(n, r_max)
        return report.ok, None if report.ok else {"failures": report.failures}

    yield f"module identity r<={r_max}", categorified


def _checks_idempotents(n: int, r: int):
    # details (checked_pairs and failures) are always reported
    yield f"partition of unity n={n} r={r}", lambda: verify_partition_of_unity(n, r)


def cmd_verify(args) -> int:
    n, r = args.n, args.r
    r_max = args.rmax if args.rmax is not None else max(2 * n, r)
    plan = _plan(args, n, r)
    suites = {
        "cyclic-sum": lambda: _checks_cyclic_sum(n, r, plan),
        "relations": lambda: _checks_relations(n, r, plan),
        "worpitzky": lambda: _checks_worpitzky(n, r_max),
        "idempotents": lambda: _checks_idempotents(n, r),
        "characters": lambda: _checks_characters(n, r),
    }
    selected = list(suites) if args.suite == "all" else [args.suite]
    results = []
    for suite_name in selected:
        for name, check in suites[suite_name]():
            start = time.perf_counter()
            ok, witness = check()
            elapsed = time.perf_counter() - start
            print(
                f"[{suite_name}] {'ok  ' if ok else 'FAIL'} {name} ({elapsed:.3f}s)",
                file=sys.stderr,
            )
            entry = {"suite": suite_name, "check": name, "ok": ok}
            if witness is not None:
                entry["details"] = witness
            results.append(entry)
    all_ok = all(e["ok"] for e in results)
    results.sort(key=lambda e: (e["suite"], e["check"]))
    payload = {
        "command": "verify",
        "suite": args.suite,
        "n": n,
        "r": r,
        "r_max": r_max,
        "seed": args.seed,
        "checks": results,
        "ok": all_ok,
    }
    lines = [
        f"{'ok  ' if e['ok'] else 'FAIL'} [{e['suite']}] {e['check']}" for e in results
    ]
    lines.append(f"verify --suite {args.suite}: {'PASS' if all_ok else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_sampling(sub) -> None:
    sub.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the points that identity checks sample (default 0); no effect "
        "on dims, expand or the relations suite, which walk the lattice of points",
    )
    sub.add_argument(
        "--denominator",
        type=int,
        default=None,
        help="prime denominator of the oracle's points (default: first prime > n; "
        "unless it is given, ranks and solves move on to larger primes while the "
        "rank is short)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plates",
        description="Exact engine for simplicial plate modules.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("expand", help="standard-basis expansion of a plate or q-plate")
    p.add_argument("--plate", required=True, help="plate notation, q[[...]] for q-plates")
    p.add_argument("--n", type=int, default=None, help="ambient size (default: inferred)")
    p.add_argument("--method", choices=("shuffle", "oracle", "both"), default="both")
    _add_sampling(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_expand)

    p = subs.add_parser("act", help="apply a permutation to a plate and expand")
    p.add_argument("--perm", required=True, help="permutation, e.g. '(1 2)' or '[2,1]'")
    p.add_argument("--plate", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_act)

    p = subs.add_parser("character", help="class-function table of the plate module")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--engine", choices=tuple(ENGINES), default="formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_character)

    p = subs.add_parser("multiplicities", help="irreducible decomposition of the plate module")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--engine", choices=tuple(ENGINES), default="formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_multiplicities)

    p = subs.add_parser("eulerian", help="rows of the Eulerian triangle")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eulerian)

    p = subs.add_parser("dims", help="standard-basis count and oracle rank")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_sampling(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dims)

    p = subs.add_parser("qbasis", help="q-basis change-of-basis matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_qbasis)

    p = subs.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=("cyclic-sum", "relations", "worpitzky", "idempotents", "characters", "all"),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2, help="slice parameter (default 2)")
    p.add_argument("--rmax", type=int, default=None, help="identity range (default max(2n, r))")
    _add_sampling(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotACharacterError, SpanError) as exc:  # failures, not usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PlateParseError, PermutationParseError, ValueError) as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
