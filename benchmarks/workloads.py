"""Workloads of the plates benchmark and the checks that judge their outputs.

Every check recomputes the expected answer from mathematics (closed forms,
counting formulas), never from a stored digest of earlier output, so that a
legitimate change such as fewer oracle points still passes.

A check returns one of three outcomes:

- ``OK``: the output is right.
- ``SHORT``: the oracle's sampled rank stayed below the true dimension and
  the program said so (``match: false``, exit 1).  A sampled rank is a lower
  bound, so the output is truthful, but the job did not do its work: it counts
  as a failed job.
- ``WRONG``: the output contradicts mathematics, or it is malformed, or the
  process crashed or timed out.  Such a run is not correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

OK, SHORT, WRONG = "ok", "short", "wrong"

Check = Callable[[dict], tuple[str, str | None]]


@dataclass(frozen=True)
class Job:
    """One request: a CLI call (``kind == "cli"``) or one library session."""

    command: str  # the group whose time it adds to: dims, verify, expand, character, ...
    kind: str
    args: tuple[str, ...]
    reason: str
    check: Check

    @property
    def label(self) -> str:
        return " ".join(self.args) if self.kind == "cli" else f"session {' '.join(self.args)}"


Workload = Callable[[int], list[Job]]  # seed -> job list


# ---------------------------------------------------------------------------
# mathematics the checks rely on


def partitions(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, prefix: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(prefix)
        for part in range(min(rest, cap), 0, -1):
            rec(rest - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def closed_form(cycle_type, r: int) -> int:
    """Character of the plate module at a cycle type: r^(k-1) when
    gcd(cycle lengths, r) = 1, else 0."""
    return r ** (len(cycle_type) - 1) if math.gcd(r, *cycle_type) == 1 else 0


def plate_count(n: int, r: int) -> int:
    """Plates on (n, r): ordered set partitions into k blocks times
    compositions of r into k parts, summed over k."""
    return sum(
        math.factorial(k) * _stirling2(n, k) * math.comb(r - 1, k - 1)
        for k in range(1, min(n, r) + 1)
    )


def _stirling2(n: int, k: int) -> int:
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def irreducible_dimension(mu: tuple[int, ...]) -> int:
    """Hook length formula."""
    conj = [sum(1 for part in mu if part > j) for j in range(mu[0])]
    hooks = 1
    for i, part in enumerate(mu):
        for j in range(part):
            hooks *= part - j + conj[j] - i - 1
    return math.factorial(sum(mu)) // hooks


def partition_key(lam) -> str:
    return "-".join(str(part) for part in lam)


# ---------------------------------------------------------------------------
# checks, one per CLI command


def check_dims(n: int, r: int) -> Check:
    def check(out: dict):
        dim = r ** (n - 1)
        rank = out["rank"]
        if out["standard_count"] != dim:
            return WRONG, f"standard_count {out['standard_count']} != r^(n-1) = {dim}"
        if rank > dim:
            return WRONG, f"rank {rank} exceeds the dimension {dim}"
        if out["match"] is not (rank == dim):
            return WRONG, f"match is {out['match']} for rank {rank} of {dim}"
        if rank < dim:
            return SHORT, f"oracle rank {rank} < {dim}"
        return OK, None

    return check


def check_verify(suite: str, n: int, r: int) -> Check:
    if suite in ("relations", "cyclic-sum"):
        expected = plate_count(n, r)
    elif suite == "characters":
        expected = len(partitions(n))
    elif suite == "worpitzky":
        expected = 2
    else:
        expected = 1

    def check(out: dict):
        checks = out["checks"]
        if len(checks) != expected:
            return WRONG, f"{len(checks)} checks, expected {expected}"
        bad = [c["check"] for c in checks if c["suite"] != suite or c["ok"] is not True]
        if bad or out["ok"] is not True:
            return WRONG, f"failed checks: {bad[:3]}"
        if suite == "idempotents":
            return _check_partition_of_unity(checks[0]["details"], n, r)
        return OK, None

    return check


def _check_partition_of_unity(details: dict, n: int, r: int):
    labels = r ** (n - 1)
    pairs = labels * (labels - 1)
    if r**n > 4096:  # the suite samples 64 pairs above this size
        pairs = min(64, pairs)
    if details["labels"] != labels or details["checked_pairs"] != pairs:
        return WRONG, f"checked {details['labels']} labels, {details['checked_pairs']} pairs"
    if details["failures"]:
        return WRONG, f"failures: {details['failures'][:3]}"
    return OK, None


def check_character(n: int, r: int) -> Check:
    def check(out: dict):
        want = {partition_key(lam): closed_form(lam, r) for lam in partitions(n)}
        if out["values"] != want:
            diff = sorted(k for k in want if out["values"].get(k) != want[k])
            return WRONG, f"character differs from the closed form at {diff[:3]}"
        return OK, None

    return check


def check_multiplicities(n: int, r: int) -> Check:
    def check(out: dict):
        table = out["multiplicities"]
        total = sum(
            m * irreducible_dimension(tuple(int(p) for p in key.split("-")))
            for key, m in table.items()
        )
        if out["dimension_audit"] is not True or total != r ** (n - 1):
            return WRONG, f"dimension audit: sum m*dim = {total} != {r ** (n - 1)}"
        return OK, None

    return check


def check_qbasis(n: int, r: int) -> Check:
    def check(out: dict):
        size = r ** (n - 1)
        if out["size"] != size or len(out["matrix"]) != size:
            return WRONG, f"q-basis size {out['size']} != {size}"
        if out["invertible"] is not True:
            return WRONG, "q-basis matrix reported singular"
        return OK, None

    return check


def check_expand(out: dict):
    if out["engines_agree"] is not True:
        return WRONG, "shuffle and oracle expansions differ"
    return OK, None


SESSION_REQUESTS = 2 * (2 * plate_count(4, 3) + 3 + math.factorial(5))


def check_session(out: dict):
    if out["problems"]:
        return WRONG, "; ".join(out["problems"][:3])
    if out["requests"] != SESSION_REQUESTS:
        return WRONG, f"{out['requests']} requests answered, expected {SESSION_REQUESTS}"
    return OK, None


# ---------------------------------------------------------------------------
# job constructors


def _nr(n: int, r: int) -> tuple[str, ...]:
    return ("--n", str(n), "--r", str(r))


def dims(n: int, r: int, seed: int, reason: str) -> Job:
    args = ("dims", *_nr(n, r), "--seed", str(seed), "--json")
    return Job("dims", "cli", args, reason, check_dims(n, r))


def verify(suite: str, n: int, r: int, seed: int, reason: str) -> Job:
    args = ("verify", "--suite", suite, *_nr(n, r), "--seed", str(seed), "--json")
    return Job("verify", "cli", args, reason, check_verify(suite, n, r))


def expand(plate: str, seed: int, reason: str) -> Job:
    args = ("expand", "--plate", plate, "--method", "both", "--seed", str(seed), "--json")
    return Job("expand", "cli", args, reason, check_expand)


def character(engine: str, n: int, r: int, reason: str) -> Job:
    args = ("character", "--engine", engine, *_nr(n, r), "--json")
    return Job("character", "cli", args, reason, check_character(n, r))


def multiplicities(engine: str, n: int, r: int, reason: str) -> Job:
    args = ("multiplicities", "--engine", engine, *_nr(n, r), "--json")
    return Job("character", "cli", args, reason, check_multiplicities(n, r))


def qbasis(n: int, r: int, reason: str) -> Job:
    return Job("qbasis", "cli", ("qbasis", *_nr(n, r), "--json"), reason, check_qbasis(n, r))


def session(seed: int, reason: str) -> Job:
    return Job("session", "session", ("--seed", str(seed)), reason, check_session)


# ---------------------------------------------------------------------------
# the four workloads
#
# Sizes keep one pass to about 4-8 s on a 2-core shared machine, so that a
# run of four or more passes stays near half a minute.


def _geometric(seed: int) -> list[Job]:
    return [
        dims(4, 5, seed, "rank growth over 125 columns; falls short at some seeds"),
        dims(6, 2, seed, "rejection-heavy sampling; rank falls short at every seed tried"),
        dims(4, 3, seed, "rank growth over 27 columns; full rank at every seed tried"),
        verify("relations", 3, 4, seed, "one cached solver reused for 37 targets"),
        verify("cyclic-sum", 4, 3, seed, "identity checks at generic points, no solver"),
        expand("q[[{2}_2 {1}_1 {3}_2]]", seed, "q-plate: three rotations through one solver"),
    ]


def _cyclotomic(seed: int) -> list[Job]:
    return [
        verify("idempotents", 3, 4, seed, "partition of unity, phi(4) = 2"),
        verify("idempotents", 2, 7, seed, "phi(7) = 6: cost per coefficient"),
        verify("idempotents", 4, 2, seed, "phi(2) = 1 with many terms: cost per term"),
        qbasis(3, 5, "cyclotomic elimination of the q-basis matrix"),
        character("translation", 7, 4, "translation-algebra traces"),
    ]


def _symbolic(seed: int) -> list[Job]:
    return [
        character("plates", 7, 3, "action matrices over 729 basis plates"),
        multiplicities("plates", 5, 5, "plate character, then Murnaghan-Nakayama"),
        character("diophantine", 6, 9, "531k-tuple modular enumeration"),
        verify("characters", 5, 4, seed, "five character routes per cycle type"),
        verify("worpitzky", 7, 2, seed, "module-level Worpitzky identity up to r = 14"),
    ]


def _session(seed: int) -> list[Job]:
    return [session(seed, "one process, caches shared across two identical request lists")]


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS: dict[str, Workload] = {
    "geometric": _geometric,
    "cyclotomic": _cyclotomic,
    "symbolic": _symbolic,
    "session": _session,
}
