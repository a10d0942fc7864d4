"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import json  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from pexpfan import catalog, ktheory  # noqa: E402
from pexpfan.laurent import LaurentPoly  # noqa: E402
from pexpfan.pexp import gkm_validate  # noqa: E402


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(stats.tail(values), (90, 90.0, 10, 100))

    def test_smallest_sample_count(self):
        self.assertEqual(stats.tail(list(range(11))), (0, 100 / 11, 10, 11))
        self.assertIsNone(stats.tail(list(range(10))))

    def test_ties_count_by_rank(self):
        value, pct, beyond, n = stats.tail([5.0] * 30)
        self.assertEqual((value, beyond, n), (5.0, 10, 30))
        self.assertAlmostEqual(pct, 200 / 3)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans_ = [["a", 0, 10, -1], ["b", 1, 4, 0], ["b", 2, 3, 1], ["c", 5, 9, 0]]
        got = spans.self_times(spans_)
        self.assertEqual(got["a"], [1, 10, 3])
        self.assertEqual(got["b"], [2, 3, 3])  # self: outer 3 - 1, inner 1; inclusive: outer only
        self.assertEqual(got["c"], [1, 4, 4])

    def test_recursive_poly_det(self):
        ticks = iter(range(10 ** 6))
        tracer = spans.Tracer(clock=lambda: next(ticks))
        one, e = LaurentPoly.one(2), LaurentPoly.exponential
        m = [[one, e((1, 0)), e((0, 1))], [e((1, 1)), one, e((2, 0))], [e((0, 2)), e((1, 2)), one]]
        with tracer.installed():
            tracer.active = True
            ktheory.poly_det(m, 2)
            tracer.active = False
        row = spans.self_times(tracer.spans)["ktheory.poly_det"]
        self.assertEqual(row[0], 1 + 3 + 3 * 2)  # 3x3, three 2x2 minors, six 1x1
        # a 1x1 span reads the clock twice and nothing in between
        leaves = [s for s in tracer.spans if s[2] - s[1] == 1]
        self.assertEqual(len(leaves), 6)
        # recursion is not counted twice: self times add up to the root span
        root = tracer.spans[0]
        self.assertEqual(row[2], root[2] - root[1])
        self.assertEqual(row[1], root[2] - root[1])

    def test_installed_restores_bindings(self):
        import pexpfan.fan as fan_module
        import pexpfan.lattice as lattice

        snf, build = lattice.smith_normal_form, fan_module.Fan.__dict__["build"]
        with spans.Tracer().installed():
            self.assertIsNot(fan_module.smith_normal_form, snf)
            self.assertIs(fan_module.smith_normal_form, lattice.smith_normal_form)
        self.assertIs(fan_module.smith_normal_form, snf)
        self.assertIs(fan_module.Fan.__dict__["build"], build)


class SmallLocalize(workloads.Localize):
    GROUPS = (("cube", ("pair",), (0, 1)), ("p112", None, (0, 1)))


class SmallResolve(workloads.Resolve):
    A_BINS = ((10, 14),)
    R3_BINS = ((6, 8),)
    CUBE_OPS = 0


class CountRepeatTest(unittest.TestCase):
    def traced_counts(self, cls, seed):
        expected = json.loads((HERE / "expected.json").read_text())
        wl = cls(HERE.parent, expected)
        wl.setup()
        tracer = spans.Tracer()
        with tracer.installed():
            for op in wl.pass_ops(seed, 0):
                tracer.active = True
                result = op.call()
                tracer.active = False
                self.assertIsNone(op.check(result))
        summary = tracer.summary()
        return {n: r["calls"] for n, r in summary["layers"].items()}, summary["counts"]

    def test_counts_repeat_exactly(self):
        for cls in (SmallLocalize, SmallResolve):
            first = self.traced_counts(cls, 7)
            self.assertEqual(first, self.traced_counts(cls, 7))
            self.assertGreater(first[0]["lattice.smith_normal_form"], 0)


class OracleTest(unittest.TestCase):
    def test_disagreements_match_gkm_validate(self):
        fan = catalog.weighted_p112()
        good = [oracle.poly(v) for v in catalog.p112_demo_class(fan).values]
        bad = [dict(v) for v in good]
        bad[0] = {(5, 0) if e == (1, 0) else e: c for e, c in bad[0].items()}
        report = gkm_validate(fan, [LaurentPoly.from_dict(2, v) for v in bad])
        want = [(v.cone_a, v.cone_b, v.face) for v in report.violations]
        self.assertTrue(want)
        self.assertEqual(oracle.gkm_disagreements(fan.rays, fan.maximal_cones, bad), want)
        self.assertEqual(oracle.gkm_disagreements(fan.rays, fan.maximal_cones, good), [])

    def test_cone_containment_and_det(self):
        normals = oracle.facet_normals([(1, 0, 0), (0, 1, 0), (1, 1, 3)])
        self.assertTrue(oracle.in_cone((1, 1, 1), normals))
        self.assertFalse(oracle.in_cone((0, 0, 1), normals))
        self.assertEqual(oracle.det([(1, 0, 0), (0, 1, 0), (1, 1, 3)]), 3)


if __name__ == "__main__":
    unittest.main()
