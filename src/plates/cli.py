"""Command-line interface: expansions, characters, and verification suites.

Exit codes: 0 success, 1 verification failure (witness in the JSON, or an
error on stderr when the oracle cannot fit), 2 usage errors.  With
--json the stdout payload is deterministic for fixed flags and seed (per-check
timings go to stderr, never into the JSON).

``COMMANDS`` is the whole interface: each command's handler, help text and
argument specs.  A handler returns ``(payload, lines, ok)`` and never prints;
``main`` alone prints the payload (``--json``) or the lines, and maps the
result to the exit code.
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
    eulerian_row,
    partitions,
    parse_permutation,
    permutation_with_cycle_type,
)
from .core import (
    Plate,
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


def _plan(args, n: int, r: int) -> SamplePlan:
    return SamplePlan(n=n, r=r, seed=args.seed, denominator=args.denominator)


def _parse_plate_arg(text: str, n=None) -> tuple[Plate, bool]:
    """Returns (plate, is_qplate); q-plates are written q[[ ... ]]."""
    stripped = text.strip()
    if stripped.startswith("q"):
        return parse_plate(stripped[1:], n=n), True
    return parse_plate(stripped, n=n), False


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, lines, ok)


def cmd_expand(args):
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
    payload = {
        "input": ("q" if is_q else "") + print_plate(plate),
        "method": method,
        "expansion": result.to_json(),
    }
    lines = [f"{payload['input']} = {result}"]
    if method == "both":
        payload["engines_agree"] = sym == orc
        lines.append(f"engines agree: {payload['engines_agree']}")
    return payload, lines, payload.get("engines_agree", True)


def cmd_act(args):
    plate, is_q = _parse_plate_arg(args.plate, n=args.n)
    sigma = parse_permutation(args.perm, n=plate.n)
    result = (qplate_expand if is_q else expand)(apply_permutation(sigma, plate))
    payload = {
        "perm": sigma.to_cycle_string(),
        "input": ("q" if is_q else "") + print_plate(plate),
        "result": result.to_json(),
    }
    return payload, [f"{sigma} . {payload['input']} = {result}"], True


def cmd_character(args):
    chi = character(args.engine, args.n, args.r)
    values = {_partition_key(lam): v for lam, v in chi.values}
    payload = {"engine": args.engine, "n": args.n, "r": args.r, "values": values}
    lines = [f"character of the plate module, n={args.n}, r={args.r} ({args.engine})"]
    lines += [f"  {key:>12}  {val}" for key, val in values.items()]
    return payload, lines, True


def cmd_multiplicities(args):
    table = multiplicities(character(args.engine, args.n, args.r))
    audit = sum(m * irreducible_dimension(mu) for mu, m in table.items()) == args.r ** (args.n - 1)
    payload = {
        "engine": args.engine,
        "n": args.n,
        "r": args.r,
        "multiplicities": {_partition_key(mu): m for mu, m in table.items()},
        "dimension_audit": audit,
    }
    lines = [f"irreducible multiplicities, n={args.n}, r={args.r}"]
    lines += [f"  {_partition_key(mu):>12}  {m}" for mu, m in table.items()]
    lines.append(f"dimension audit: {audit}")
    return payload, lines, audit


def cmd_eulerian(args):
    if args.rows < 0:
        raise ValueError(f"need rows >= 0, got rows={args.rows}")
    rows = [eulerian_row(m) for m in range(1, args.rows + 1)]
    return {"rows": rows}, [" ".join(str(v) for v in row) for row in rows], True


def cmd_dims(args):
    basis = standard_basis(args.n, args.r)
    report = rank_report(basis, _plan(args, args.n, args.r))
    expected = args.r ** (args.n - 1)
    match = len(basis) == report.rank == expected
    payload = {
        "n": args.n,
        "r": args.r,
        "standard_count": len(basis),
        "rank": report.rank,
        "points_used": report.points_used,
        "expected": expected,
        "match": match,
        "denominator": report.denominator,
    }
    lines = [
        f"standard basis size: {len(basis)}",
        f"oracle rank: {report.rank} (points used: {report.points_used}, "
        f"denominator: {report.denominator})",
        f"expected r^(n-1): {expected}",
        f"match: {match}",
    ]
    return payload, lines, match


def cmd_qbasis(args):
    rows, basis = qbasis_matrix(args.n, args.r)
    invertible = qbasis_is_invertible(rows)
    payload = {
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
    return payload, lines, invertible


# ---------------------------------------------------------------------------
# verification suites: generators that run each check as they yield
# (name, ok, details), with details None when the check passes


def _suite_cyclic_sum(n: int, r: int, r_max: int, plan: SamplePlan):
    full = Plate(n, (tuple(range(1, n + 1)),), (r,))
    for base in all_plates(n, r):
        rotations = [(1, rotate(base, t)) for t in range(base.k)]
        ok, witness = verify_identity_ae(full, rotations, plan)
        details = None if ok else {"point": [str(v) for v in witness]}
        yield f"cyclic-sum {print_plate(base)}", ok, details


def _suite_relations(n: int, r: int, r_max: int, plan: SamplePlan):
    for plate in all_plates(n, r):
        sym, orc = expand(plate), oracle_expand(plate, plan)
        details = None if sym == orc else {"shuffle": str(sym), "oracle": str(orc)}
        yield f"expansion {print_plate(plate)}", details is None, details


def _suite_worpitzky(n: int, r: int, r_max: int, plan: SamplePlan):
    report = verify_categorified_worpitzky(n, r_max)  # runs the classical check once per r
    bad = None
    if not report.classical_ok:
        bad = {"failing_r": [s for s in range(1, r_max + 1) if not classical_worpitzky_check(n, s)]}
    yield f"classical identity r<={r_max}", report.classical_ok, bad
    details = None if report.ok else {"failures": report.failures}
    yield f"module identity r<={r_max}", report.ok, details


def _suite_idempotents(n: int, r: int, r_max: int, plan: SamplePlan):
    # details (checked_pairs and failures) are always reported
    yield f"partition of unity n={n} r={r}", *verify_partition_of_unity(n, r)


def _suite_characters(n: int, r: int, r_max: int, plan: SamplePlan):
    for lam in partitions(n):
        values = {engine: value(lam, r) for engine, value in ENGINES.items()}
        values["fixed-labels"] = fixed_label_count(permutation_with_cycle_type(lam), n, r)
        details = None if len(set(values.values())) == 1 else {k: str(v) for k, v in values.items()}
        yield f"character class {_partition_key(lam)}", details is None, details


SUITES = {
    "cyclic-sum": _suite_cyclic_sum,
    "relations": _suite_relations,
    "worpitzky": _suite_worpitzky,
    "idempotents": _suite_idempotents,
    "characters": _suite_characters,
}


def cmd_verify(args):
    n, r = args.n, args.r
    r_max = args.rmax if args.rmax is not None else max(2 * n, r)
    plan = _plan(args, n, r)
    selected = list(SUITES) if args.suite == "all" else [args.suite]
    if "worpitzky" in selected and (n < 2 or r_max < n):
        raise ValueError("need n >= 2 and r_max >= n")
    results = []
    for suite_name in selected:
        start = time.perf_counter()
        for name, ok, details in SUITES[suite_name](n, r, r_max, plan):
            elapsed = time.perf_counter() - start
            status = "ok  " if ok else "FAIL"
            print(f"[{suite_name}] {status} {name} ({elapsed:.3f}s)", file=sys.stderr)
            entry = {"suite": suite_name, "check": name, "ok": ok}
            if details is not None:
                entry["details"] = details
            results.append(entry)
            start = time.perf_counter()
    all_ok = all(e["ok"] for e in results)
    results.sort(key=lambda e: (e["suite"], e["check"]))
    payload = {
        "suite": args.suite,
        "n": n,
        "r": r,
        "r_max": r_max,
        "seed": args.seed,
        "checks": results,
        "ok": all_ok,
    }
    lines = [f"{'ok  ' if e['ok'] else 'FAIL'} [{e['suite']}] {e['check']}" for e in results]
    lines.append(f"verify --suite {args.suite}: {'PASS' if all_ok else 'FAIL'}")
    return payload, lines, all_ok


# ---------------------------------------------------------------------------
# the command table and the parser built from it

_NR = (("--n", {"type": int, "required": True}), ("--r", {"type": int, "required": True}))
_ENGINE = ("--engine", {"choices": tuple(ENGINES), "default": "formula"})
_SAMPLING = (
    (
        "--seed",
        {
            "type": int,
            "default": 0,
            "help": "seed of the points that identity checks sample (default 0); no effect "
            "on dims, expand or the relations suite, which walk the lattice of points",
        },
    ),
    (
        "--denominator",
        {
            "type": int,
            "default": None,
            "help": "prime denominator of the oracle's points (default: first prime > n; "
            "unless it is given, ranks and solves move on to larger primes while the "
            "rank is short)",
        },
    ),
)

COMMANDS = {
    "expand": (
        cmd_expand,
        "standard-basis expansion of a plate or q-plate",
        (
            ("--plate", {"required": True, "help": "plate notation, q[[...]] for q-plates"}),
            ("--n", {"type": int, "default": None, "help": "ambient size (default: inferred)"}),
            ("--method", {"choices": ("shuffle", "oracle", "both"), "default": "both"}),
            *_SAMPLING,
        ),
    ),
    "act": (
        cmd_act,
        "apply a permutation to a plate and expand",
        (
            ("--perm", {"required": True, "help": "permutation, e.g. '(1 2)' or '[2,1]'"}),
            ("--plate", {"required": True}),
            ("--n", {"type": int, "default": None}),
        ),
    ),
    "character": (cmd_character, "class-function table of the plate module", (*_NR, _ENGINE)),
    "multiplicities": (
        cmd_multiplicities,
        "irreducible decomposition of the plate module",
        (*_NR, _ENGINE),
    ),
    "eulerian": (
        cmd_eulerian,
        "rows of the Eulerian triangle",
        (("--rows", {"type": int, "required": True}),),
    ),
    "dims": (cmd_dims, "standard-basis count and oracle rank", (*_NR, *_SAMPLING)),
    "qbasis": (cmd_qbasis, "q-basis change-of-basis matrix", _NR),
    "verify": (
        cmd_verify,
        "run a verification suite",
        (
            ("--suite", {"required": True, "choices": (*SUITES, "all")}),
            ("--n", {"type": int, "required": True}),
            ("--r", {"type": int, "default": 2, "help": "slice parameter (default 2)"}),
            ("--rmax", {"type": int, "help": "identity range (default max(2n, r))"}),
            *_SAMPLING,
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plates",
        description="Exact engine for simplicial plate modules.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, specs) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag, spec in (*specs, ("--json", {"action": "store_true"})):
            sub.add_argument(flag, **spec)
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, ok = args.func(args)
    except (NotACharacterError, SpanError) as exc:  # failures, not usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # bad plates, permutations and sizes
        parser.exit(2, f"error: {exc}\n")
    if args.json:
        print(json.dumps({"schema": SCHEMA, "command": args.command, **payload}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
