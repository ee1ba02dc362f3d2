"""Self-tests of the benchmark harness (they time nothing).

    python3 perfbench/selftest.py

Run from the root of a source checkout. They run the fig1a ops of
`fig1_pipeline` once, traced, in this process, and check that failed ops
are counted and that layer self times add up.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

from run import E2E_UNITS, ROOT, SRC, TMP_ROOT

sys.path.insert(0, str(SRC))

import alleechain  # noqa: E402
from alleechain import cli  # noqa: E402
from checks import check_rep  # noqa: E402
from child import run_ops  # noqa: E402
from tracing import LAYER_METRICS, OP_SPAN, TRACED, Tracer, install, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        TMP_ROOT.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
        cls.ops = [op for op in WORKLOADS["fig1_pipeline"] if op.preset == "fig1a"]
        cls.tracer = Tracer()
        restore = install(cls.tracer, alleechain)
        try:
            cls.records = run_ops(cli.main, cls.ops, cls.tmp / "clean", 0, cls.tracer)
        finally:
            restore()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    def _failures_with(self, label: str, corrupt) -> list[str]:
        """Check a copy of the outputs in which `corrupt(out_dir)` edited one op's files."""
        root = Path(tempfile.mkdtemp(dir=self.tmp))
        records = []
        for record in self.records:
            copy = root / Path(record["out_dir"]).name
            shutil.copytree(record["out_dir"], copy)
            if record["label"] == label:
                corrupt(copy)
            records.append({**record, "out_dir": str(copy)})
        return check_rep(self.ops, records, REFERENCE, 0)

    def test_clean_outputs_pass(self):
        self.assertTrue(all(r["exit"] == 0 for r in self.records))
        self.assertEqual(check_rep(self.ops, self.records, REFERENCE, 0), [])

    def test_corrupted_output_counts_as_failed_op(self):
        def edit(name, old, new):
            def corrupt(out):
                text = (out / name).read_text()
                self.assertIn(old, text)
                (out / name).write_text(text.replace(old, new, 1))
            return corrupt

        def truncate(out):
            text = (out / "psd.csv").read_text()
            (out / "psd.csv").write_text(text[: len(text) // 2])

        cases = [
            ("fig1a.sweep", edit("sweep.csv", "100,39,", "100,40,")),
            ("fig1a.ode", edit("basin.csv", "to_zero", "to_x_plus")),
            ("fig1a.simulate", edit("ensemble.json", '"epsilon": 0.05', '"epsilon": NaN')),
            ("fig1a.threshold", edit("threshold.json", "extinction", "persistence")),
            ("fig1a.psd", truncate),
        ]
        for label, corrupt in cases:
            with self.subTest(label=label):
                failures = self._failures_with(label, corrupt)
                self.assertTrue(any(f.startswith(label + ":") for f in failures), failures)

    def test_nonzero_exit_counts_as_failed_op(self):
        ops = [Op("fig1a.psd", "psd", ("--preset", "no_such_preset")),
               Op("fig1a.sweep", "sweep", ("--preset", "fig1a", "--n-list", "100,x"))]
        with contextlib.redirect_stderr(io.StringIO()):
            records = run_ops(cli.main, ops, self.tmp / "bad", 0)
        self.assertEqual([r["exit"] for r in records], [2, 2])
        self.assertEqual(len(check_rep(ops, records, REFERENCE, 0)), 2)

    def test_layer_self_times(self):
        spans = self.tracer.spans
        own = self_times(spans)
        self.assertTrue(all(s >= 0.0 for s in own))
        for k, record in enumerate(self.records):
            in_op = [s for span, s in zip(spans, own) if span[4] == k]
            self.assertEqual(sum(span[0] == OP_SPAN for span in spans if span[4] == k), 1)
            self.assertLessEqual(sum(in_op), record["seconds"])

    def test_by_name_imports_are_traced(self):
        names = {span[0] for span in self.tracer.spans}
        self.assertEqual({name for name, _, _, _ in TRACED} - names, set())
        parents = {(self.tracer.spans[span[3]][0], span[0]) for span in self.tracer.spans if span[3] is not None}
        self.assertIn(("asymptotics.limit_distribution_diagnostic", "stationary.psd_product"), parents)
        self.assertIn(("asymptotics.limit_distribution_diagnostic", "stationary.mode_profile"), parents)
        self.assertIn((OP_SPAN, "stationary.psd_product"), parents)
        self.assertIn(("ssa.simulate", "model.rate_arrays"), parents)

    def test_layer_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(LAYER_METRICS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, E2E_UNITS)
        metrics = layer_metrics(self.tracer.spans, 0)
        self.assertEqual(set(metrics) | {"trace.overhead_s"}, {name for name, _, _ in LAYER_METRICS})
        self.assertEqual(metrics["ssa.simulate.calls"], 9)
        self.assertEqual(metrics["deterministic.integrate.calls"], 100)


if __name__ == "__main__":
    unittest.main()
