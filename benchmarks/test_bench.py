"""Tests of the benchmark's own helpers.

    python3 -m pytest benchmarks        # or: python3 -m unittest discover benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import mix  # noqa: E402
import run  # noqa: E402
from spans import Recorder, Summary, install, self_times  # noqa: E402

PINNED_6X6 = {
    "roundtrip": 16226,
    "commutativity": 19148,
    "lemma41": 19148,
    "lemma42": 19148,
    "lemma43": 19148,
    "dominance": 8113,
    "schur-identities": 207,
}
CT_INPUT = {"validate-ct", "rho", "rectify-ct", "rectify-ct-trace"}


class FakeClock:
    """Returns 0, 1, 2, ... on successive calls."""

    def __init__(self):
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        rec = Recorder(clock=FakeClock())
        leaf = rec.wrap("leaf", lambda: None)

        def middle():
            leaf()
            leaf()

        middle = rec.wrap("middle", middle)
        with rec.span("root"):
            middle()
            leaf()
        # root 0..9, middle 1..6 with leaves 2..3 and 4..5, leaf 7..8.
        self.assertEqual(list(rec.parent), [-1, 0, 1, 1, 0])
        self.assertEqual(self_times(rec.parent, rec.start, rec.end), [3.0, 3.0, 1.0, 1.0, 1.0])
        s = Summary(rec)
        self.assertEqual(s.calls, {"root": 1, "middle": 1, "leaf": 3})
        self.assertEqual(s.self_s, {"root": 3.0, "middle": 3.0, "leaf": 3.0})
        self.assertEqual(s.roots_s, 9.0)
        self.assertEqual(sum(s.self_s.values()), s.roots_s)
        self.assertEqual(s.durations("middle"), [5.0])

    def test_span_closes_when_the_call_raises(self):
        rec = Recorder(clock=FakeClock())

        def boom():
            raise ValueError("boom")

        boom = rec.wrap("boom", boom)
        with rec.span("root"):
            with self.assertRaises(ValueError):
                boom()
        self.assertEqual(self_times(rec.parent, rec.start, rec.end), [2.0, 1.0])

    def test_install_wraps_calls_between_modules_and_restores(self):
        import ctrect
        from ctrect import bijection, tableaux

        original = tableaux.violations
        rec = Recorder()
        uninstall = install(rec)
        try:
            self.assertIsNot(bijection.violations, original)
            ctrect.rho(ctrect.parse_filling("3 2\n5"))
        finally:
            uninstall()
        self.assertIs(bijection.violations, original)
        self.assertIs(tableaux.violations, original)
        s = Summary(rec)
        self.assertEqual(s.calls["tableaux.parse_filling"], 1)
        self.assertEqual(s.calls["bijection.rho"], 1)
        # validate("ct") on the input and violations("rssyt") on the output,
        # both called from rho.
        self.assertEqual(s.calls["tableaux.violations"], 2)
        rho_id = rec.names.index("bijection.rho")
        rho_span = list(rec.name).index(rho_id)
        self.assertEqual(rec.parent[rho_span], -1)
        self.assertEqual(s.roots_s, sum(s.self_s.values()))
        self.assertGreaterEqual(s.counts["tableaux.Filling.constructed"], 2)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(list(reversed(values)), 90), 90)
        self.assertEqual(run.percentile([7.0, 1.0, 3.0], 50), 3.0)
        self.assertEqual(run.percentile([7.0, 1.0, 3.0], 90), 7.0)
        self.assertEqual(run.percentile([4.0], 90), 4.0)

    def test_p90_of_min_calls_leaves_ten_samples_beyond(self):
        values = list(range(run.MIN_CALLS))
        p90 = run.percentile(values, 90)
        self.assertGreaterEqual(sum(v > p90 for v in values), 10)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        first, problems = mix.generate(11)
        self.assertEqual(problems, [])
        self.assertEqual(json.dumps(first), json.dumps(mix.generate(11)[0]))
        self.assertNotEqual(json.dumps(first), json.dumps(mix.generate(12)[0]))

    def test_mix_composition_and_valid_inputs(self):
        from ctrect import parse_filling, violations

        calls, _ = mix.generate(5)
        per_command = {}
        for call in calls:
            per_command[call["command"]] = per_command.get(call["command"], 0) + 1
        expected = {name: len(mix.SIZE_STRATA) for name in mix.TABLEAU_COMMANDS}
        expected.update({f"expand-{b}": len(mix.EXPAND_VARS) for b in mix.EXPAND_BASES})
        self.assertEqual(per_command, expected)
        for call in calls:
            if call["stdin"] is None:
                continue
            f = parse_filling(call["stdin"])
            self.assertTrue(15 <= f.cell_count <= 40)
            kind = "ct" if call["command"] in CT_INPUT else "rssyt"
            self.assertEqual(violations(kind, f), [], call["argv"])


class GoldenTest(unittest.TestCase):
    def test_verify_golden_pins_the_instance_counts(self):
        golden = child.golden_reports(child.GOLDEN.read_text(encoding="utf-8"))
        self.assertEqual(set(golden), set(PINNED_6X6))
        for prop, count in PINNED_6X6.items():
            lines = golden[prop].splitlines()
            self.assertEqual(lines[0], f"property: {prop}")
            self.assertIn(f"instances: {count}", lines)
            self.assertIn("counterexamples: 0", lines)

    def test_verify_golden_matches_render(self):
        from ctrect.verify import run_property

        golden = child.golden_reports(child.GOLDEN.read_text(encoding="utf-8"))
        self.assertEqual(run_property("schur-identities", 6, 6).render(), golden["schur-identities"])

    def test_cli_goldens_match_in_process_runs(self):
        from ctrect.cli import main

        calls, _ = mix.generate(3)
        for call in calls:
            code, stdout, _ = mix.run_in_process(main, call["argv"], call["stdin"])
            self.assertTrue(mix.matches(call, code, stdout), call["argv"])

    def test_mismatch_is_detected(self):
        call = {"argv": ["rho"], "stdin": "", "stdout": "1\n", "exit": 0}
        self.assertTrue(mix.matches(call, 0, "1\n"))
        self.assertFalse(mix.matches(call, 0, "1 \n"))
        self.assertFalse(mix.matches(call, 2, "1\n"))


class RunTest(unittest.TestCase):
    def test_traced_cli_run_reports_every_per_layer_metric(self):
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cli-calls",
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(res.returncode, 0, res.stderr)
        result = json.loads(res.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], res.stderr)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["per_layer"]})
        self.assertGreater(result["metrics"]["cli.main_us.rectify"]["value"], 0)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            res = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "cli-calls",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    unittest.main()
