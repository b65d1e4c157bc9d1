"""Self-test of the benchmark: tiny variants of the workloads run end to end,
traced and untraced, and the checks flag doctored outputs.

Run from the repository root:  python3 benchmarks/selftest.py
"""

from __future__ import annotations

import json
import shutil
import time
import unittest

import run
import workloads as w
from workloads import OK, SHORT, WRONG

TINY = {
    "geometric": lambda seed: [
        w.dims(3, 2, seed, "tiny"),
        w.verify("relations", 3, 2, seed, "tiny"),
        w.verify("cyclic-sum", 3, 2, seed, "tiny"),
        w.expand("q[[{2}_1 {1,3}_1]]", seed, "tiny"),
    ],
    "cyclotomic": lambda seed: [
        w.verify("idempotents", 2, 3, seed, "tiny"),
        w.qbasis(2, 3, "tiny"),
        w.character("translation", 3, 3, "tiny"),
    ],
    "symbolic": lambda seed: [
        w.character("plates", 3, 3, "tiny"),
        w.multiplicities("plates", 3, 3, "tiny"),
        w.character("diophantine", 3, 4, "tiny"),
        w.verify("characters", 3, 3, seed, "tiny"),
        w.verify("worpitzky", 3, 2, seed, "tiny"),
    ],
    "session": lambda seed: [w.session(seed, "the full request list")],
}


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.runner = run.Runner(time.monotonic() + 600)
        with open(run.ROOT / "BENCHMARK.json") as f:
            cls.spec = json.load(f)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(run.OUT, ignore_errors=True)

    def test_workloads_run_traced_and_untraced(self):
        layer_names = [m["name"] for m in self.spec["per_layer"]]
        for name, jobs in TINY.items():
            with self.subTest(workload=name):
                result = run.run_workload(name, jobs, 0, 0.1, True, self.runner)
                self.assertTrue(result["correct"], result["failures"])
                self.assertEqual(result["failed"], 0, result["failures"])
                self.assertEqual(list(result["metrics"]), layer_names)
        calls = result["metrics"]["expansion.expand.calls"][0]
        self.assertGreater(calls, 0)

    def test_end_to_end_metrics_match_the_spec(self):
        result = run.run_workload("tiny", TINY["cyclotomic"], 0, 0.1, False, self.runner)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in self.spec["end_to_end"]])
        for value, _ in result["metrics"].values():
            self.assertGreater(value, 0)


class DoctoredOutputs(unittest.TestCase):
    def test_dims(self):
        check = w.check_dims(3, 2)
        good = {"standard_count": 4, "rank": 4, "match": True}
        self.assertEqual(check(good)[0], OK)
        self.assertEqual(check({**good, "match": False})[0], WRONG)
        self.assertEqual(check({**good, "rank": 5, "match": False})[0], WRONG)
        self.assertEqual(check({**good, "standard_count": 3})[0], WRONG)
        self.assertEqual(check({**good, "rank": 3, "match": False})[0], SHORT)

    def test_exit_code_must_agree_with_the_output(self):
        job = w.dims(3, 2, 0, "doctored")
        short = json.dumps({"standard_count": 4, "rank": 3, "match": False}).encode()
        self.assertEqual(run.judge(job, 1, short)[0], SHORT)
        self.assertEqual(run.judge(job, 0, short)[0], WRONG)
        self.assertEqual(run.judge(job, None, short)[0], WRONG)
        self.assertEqual(run.judge(job, 0, b"not json")[0], WRONG)

    def test_character_off_by_one(self):
        values = {"3": 0, "2-1": 3, "1-1-1": 9}
        check = w.check_character(3, 3)
        self.assertEqual(check({"values": values})[0], OK)
        self.assertEqual(check({"values": {**values, "1-1-1": 10}})[0], WRONG)
        self.assertEqual(check({"values": {"2-1": 3, "1-1-1": 9}})[0], WRONG)

    def test_verify_counts_and_flags(self):
        check = w.check_verify("characters", 3, 3)
        checks = [{"suite": "characters", "check": str(i), "ok": True} for i in range(3)]
        self.assertEqual(check({"checks": checks, "ok": True})[0], OK)
        self.assertEqual(check({"checks": checks[:2], "ok": True})[0], WRONG)
        bad = checks[:2] + [{**checks[2], "ok": False}]
        self.assertEqual(check({"checks": bad, "ok": False})[0], WRONG)
        idem = w.check_verify("idempotents", 2, 3)
        details = {"labels": 3, "checked_pairs": 6, "failures": []}
        entry = {"suite": "idempotents", "check": "p", "ok": True, "details": details}
        self.assertEqual(idem({"checks": [entry], "ok": True})[0], OK)
        fewer = {**entry, "details": {**details, "checked_pairs": 5}}
        self.assertEqual(idem({"checks": [fewer], "ok": True})[0], WRONG)

    def test_other_commands(self):
        self.assertEqual(w.check_expand({"engines_agree": False})[0], WRONG)
        qb = w.check_qbasis(2, 3)
        self.assertEqual(qb({"size": 3, "matrix": [[]] * 3, "invertible": False})[0], WRONG)
        mult = w.check_multiplicities(3, 2)
        self.assertEqual(mult({"multiplicities": {"3": 2, "2-1": 1}, "dimension_audit": True})[0], OK)
        self.assertEqual(mult({"multiplicities": {"3": 1, "2-1": 1}, "dimension_audit": True})[0], WRONG)
        self.assertEqual(mult({"multiplicities": {"3": 2}, "dimension_audit": True})[0], WRONG)
        self.assertEqual(mult({"multiplicities": {"3": 1, "1-1-1": 1}, "dimension_audit": True})[0], WRONG)
        answered = {"requests": w.SESSION_REQUESTS, "problems": []}
        self.assertEqual(w.check_session(answered)[0], OK)
        self.assertEqual(w.check_session({**answered, "problems": ["x"]})[0], WRONG)
        self.assertEqual(w.check_session({**answered, "requests": 1})[0], WRONG)


if __name__ == "__main__":
    unittest.main()
