"""Per-layer tracing for the plates benchmark, from outside the package.

The tracer wraps public functions of each plates module in a recorder and
patches the wrapper into every plates namespace that bound the original, so
``from .core import evaluate`` in ``oracle`` is traced too.  Each call becomes
a span (name, start, end, parent); the job is the process, one per job.
Spans stay in memory and are written once, when the job ends.

Run a traced job:

    python3 benchmarks/tracer.py SPANS_FILE cli <plates CLI arguments>
    python3 benchmarks/tracer.py SPANS_FILE session --seed N

``summarize`` turns the span files of one pass into per-layer metrics.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# (span name, module, class or None, attributes, stats it reports)
TARGETS = [
    ("core.evaluate", "core", None, ("evaluate",), ("calls", "self_s")),
    ("oracle.sample_generic", "oracle", None, ("sample_generic",), ("calls", "self_s")),
    ("oracle.rank_report", "oracle", None, ("rank_report",), ("total_s", "points_used")),
    ("oracle.solve_in_basis", "oracle", None, ("solve_in_basis",), ("calls", "self_s")),
    ("oracle.verify_identity_ae", "oracle", None, ("verify_identity_ae",), ("total_s",)),
    ("linalg.Echelon.add_row", "linalg", "Echelon", ("add_row",), ("calls", "self_s", "useful_ratio")),
    ("linalg.solve_square", "linalg", None, ("solve_square",), ("calls",)),
    ("exactnum.CyclotomicNumber.mul", "exactnum", "CyclotomicNumber", ("__mul__", "__rmul__"), ("calls", "self_s")),
    ("exactnum.CyclotomicNumber.add", "exactnum", "CyclotomicNumber", ("__add__", "__radd__"), ("calls", "self_s")),
    ("exactnum.CyclotomicNumber.inverse", "exactnum", "CyclotomicNumber", ("inverse",), ("calls",)),
    ("expansion.expand", "expansion", None, ("expand",), ("calls", "self_s", "hit_ratio", "cache_size")),
    ("expansion.oracle_expand", "expansion", None, ("oracle_expand",), ("total_s",)),
    ("expansion.qplate_expand", "expansion", None, ("qplate_expand",), ("total_s",)),
    ("characters.action_matrix", "characters", None, ("action_matrix",), ("calls", "self_s")),
    ("characters.plate_character", "characters", None, ("plate_character",), ("total_s",)),
    ("characters.multiplicities", "characters", None, ("multiplicities",), ("total_s",)),
    ("translation.TranslationElement.mul", "translation", "TranslationElement", ("__mul__",), ("calls", "self_s")),
    ("translation.idempotent", "translation", None, ("idempotent",), ("total_s",)),
    ("translation.verify_partition_of_unity", "translation", None, ("verify_partition_of_unity",), ("total_s",)),
    ("translation.ta_trace", "translation", None, ("ta_trace",), ("self_s",)),
    ("translation.diophantine_count", "translation", None, ("diophantine_count",), ("calls", "self_s", "tuples")),
    ("worpitzky.verify_categorified_worpitzky", "worpitzky", None, ("verify_categorified_worpitzky",), ("total_s",)),
]

# counts taken from a call's arguments or result, at the same boundary as its span
TALLIES = {
    "oracle.rank_report": lambda args, result: result.points_used,
    "linalg.Echelon.add_row": lambda args, result: 1 if result else 0,
    "translation.diophantine_count": lambda args, result: args[1] ** len(args[0]),
}

CACHE_METRICS = ("oracle.point_cache.points", "oracle.solver_cache.entries")

UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "points_used": "count",
    "useful_ratio": "ratio",
    "hit_ratio": "ratio",
    "cache_size": "count",
    "tuples": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric that ``summarize`` reports, with its unit."""
    units = {f"{name}.{stat}": UNITS[stat] for name, *_, stats in TARGETS for stat in stats}
    units.update({name: "count" for name in CACHE_METRICS})
    return units


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.tallies: dict[str, int] = {}
        self.snapshots: list[dict] = []
        self.expand_cache = None

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        tally = TALLIES.get(name)
        self.tallies[name] = 0
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack
        )
        tallies = self.tallies
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(ends)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if tally is not None:
                tallies[name] += tally(args, result)
            return result

        return traced

    def install(self) -> None:
        """Import every plates module and patch the targets.  A target the
        package no longer has is skipped and its metrics read as zero."""
        importlib.import_module("plates.cli")
        modules = [m for key, m in sys.modules.items() if key == "plates" or key.startswith("plates.")]
        for name, module, cls, attrs, _ in TARGETS:
            owner = sys.modules.get(f"plates.{module}")
            if cls is not None:
                owner = getattr(owner, cls, None)
            originals = {attr: getattr(owner, attr, None) for attr in attrs}
            if owner is None or None in originals.values():
                continue
            wrappers: dict[int, object] = {}
            for attr, fn in originals.items():
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(name, fn)
                if cls is not None:
                    setattr(owner, attr, wrappers[id(fn)])
            if cls is None:
                fn = originals[attrs[0]]
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrappers[id(fn)])
                if name == "expansion.expand":
                    self.expand_cache = getattr(fn, "cache_info", None)

    def snapshot(self) -> None:
        """Cache sizes now; taken after each job or session pass."""
        oracle = sys.modules["plates.oracle"]
        points = getattr(oracle, "_point_cache", {})
        snap = {
            "oracle.point_cache.points": sum(len(entry[1]) for entry in points.values()),
            "oracle.solver_cache.entries": len(getattr(oracle, "_solver_cache", {})),
        }
        if self.expand_cache is not None:
            info = self.expand_cache()
            snap.update(hits=info.hits, misses=info.misses, size=info.currsize)
        self.snapshots.append(snap)

    def dump(self, path: str) -> None:
        header = {
            "names": self.names,
            "spans": len(self.ends),
            "tallies": self.tallies,
            "snapshots": self.snapshots,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(f)


def load(path: Path):
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        count = header["spans"]
        arrays = []
        for code in ("i", "q", "q", "q"):
            arr = array(code)
            arr.fromfile(f, count)
            arrays.append(arr)
    return header, arrays


def summarize(paths: list[Path]) -> dict[str, float]:
    """Per-layer metrics of one pass from the span files of its jobs."""
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    tallies: dict[str, int] = {}
    caches = dict.fromkeys(CACHE_METRICS, 0)
    hits = misses = cache_size = 0
    for path in paths:
        header, (name_ids, parents, starts, ends) = load(path)
        names = header["names"]
        covered = array("q", bytes(8 * len(ends)))
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        job_calls = [0] * len(names)
        job_self = [0] * len(names)
        outer = {nid for nid, name in enumerate(names) if _wants(name, "total_s")}
        for i, nid in enumerate(name_ids):
            duration = ends[i] - starts[i]
            job_calls[nid] += 1
            job_self[nid] += duration - covered[i]
            if nid in outer and not _nested_in_same(i, nid, name_ids, parents):
                total_ns[names[nid]] = total_ns.get(names[nid], 0) + duration
        for nid, name in enumerate(names):
            calls[name] = calls.get(name, 0) + job_calls[nid]
            self_ns[name] = self_ns.get(name, 0) + job_self[nid]
        for name, count in header["tallies"].items():
            tallies[name] = tallies.get(name, 0) + count
        for snap in header["snapshots"]:
            for key in CACHE_METRICS:
                caches[key] = max(caches[key], snap[key])
        if header["snapshots"] and "hits" in header["snapshots"][-1]:
            last = header["snapshots"][-1]  # cache_info counts are cumulative per process
            hits += last["hits"]
            misses += last["misses"]
            cache_size = max(cache_size, max(s["size"] for s in header["snapshots"]))
    out: dict[str, float] = dict(caches)
    for name, *_, stats in TARGETS:
        n = calls.get(name, 0)
        values = {
            "calls": n,
            "self_s": self_ns.get(name, 0) / 1e9,
            "total_s": total_ns.get(name, 0) / 1e9,
            "points_used": tallies.get(name, 0),
            "tuples": tallies.get(name, 0),
            "useful_ratio": tallies.get(name, 0) / n if n else 0.0,
            "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache_size": cache_size,
        }
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    return out


def _wants(name: str, stat: str) -> bool:
    return any(t[0] == name and stat in t[4] for t in TARGETS)


def _nested_in_same(i: int, nid: int, name_ids, parents) -> bool:
    parent = parents[i]
    while parent >= 0:
        if name_ids[parent] == nid:
            return True
        parent = parents[parent]
    return False


def main(argv: list[str]) -> int:
    spans_file, kind, *args = argv
    recorder = Recorder()
    recorder.install()
    try:
        if kind == "cli":
            from plates.cli import main as cli_main

            code = cli_main(args)
        else:
            import session

            code = session.main(args, after_pass=recorder.snapshot)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        if kind == "cli":
            recorder.snapshot()
        recorder.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
