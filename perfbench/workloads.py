"""The three benchmark workloads.

Each workload is a closed loop with one client.  Its inputs come in passes:
pass p of seed s is the same list of operations on every run, and every
pass has the same mix of operation kinds and sizes, so the run-to-run spread
comes from the seeded content and the machine, not from the mix.  Every
operation carries a check of its result against the benchmark's own exact
arithmetic (``oracle``), the goldens under ``tests/golden``, or values
recorded at the defining commit in ``expected.json``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Any, Callable

import oracle

from pexpfan import catalog, fan as F, ktheory as K, pexp as P
from pexpfan.laurent import LaurentPoly, poly_to_json


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the result is right
    canon: Callable[[Any], str]  # canonical text of the result, for digests


class Workload:
    """Set-up once, then passes of operations; ``close`` frees what set-up holds."""

    name: str
    pass_seconds: float  # nominal time of one pass at the defining commit
    kind_metrics: dict = {}  # op kind -> name of its printed median
    ref_samples = 1  # reference kernel runs after each op; a few percent of its time
    tracer = None  # the traced run's Tracer, for work done in child processes

    def __init__(self, root: Path, expected: dict):
        pass

    def setup(self) -> None:
        pass

    def pass_ops(self, seed: int, p: int) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _rng(workload: str, seed: int, *index) -> random.Random:
    return random.Random(":".join(str(x) for x in (workload, seed) + index))


def _expect(label: str, got, want) -> str | None:
    return None if got == want else f"{label}: got {got!r}, want {want!r}"


def _cartier_cube(fan, scale: int) -> P.CartierData:
    """Local data of a multiple of the octahedron class on the cube fan."""
    exps = []
    for rs in fan.maximal_cones:
        gens = [fan.rays[i] for i in rs]
        axis = next(c for c in range(3) if all(g[c] == gens[0][c] for g in gens))
        m = [0, 0, 0]
        m[axis] = -scale * gens[0][axis]
        exps.append(tuple(m))
    return P.CartierData(tuple(exps))


def _cartier_p112(b: int) -> P.CartierData:
    return P.CartierData(((0, 0), (0, b), (2 * b, 0)))


def _random_terms(rng: random.Random, rank: int, classes):
    """The terms (class index, coefficient, exponent) of a random
    R(T)-combination of the line-bundle classes with the given indices."""
    return [(k, rng.choice((-3, -2, -1, 1, 2, 3)), tuple(rng.randint(-2, 2) for _ in range(rank))) for k in classes]


def _combine(base: list[dict], terms) -> dict:
    """sum of c * e^u * base[k] over the terms, in the oracle's arithmetic."""
    acc: dict = {}
    for k, c, u in terms:
        oracle.add_scaled(acc, base[k], c, u)
    return acc


def _tau_key(fan, rs) -> str:
    return oracle.canonical(sorted(list(fan.rays[i]) for i in rs))


# -- localize -----------------------------------------------------------------


class Localize(Workload):
    """chi and Kronecker pairings of random combinations of line-bundle
    classes, each computed on two different resolutions."""

    name = "localize"
    kind_metrics = {"chi": "chi_ms_p50", "pair": "pair_ms_p50"}
    # (fan, kinds, classes) per group: each kind is timed on both
    # resolutions, on a combination of one term per listed class.  The cost
    # of a cube chi is set by its resolution (the 52-cone one costs about
    # half as much again) and its classes (a term of the doubled class adds
    # about a third), so every pass has the same classes and the seed draws
    # only coefficients and exponents; with free classes the median moved by
    # a tenth from seed to seed.  Of the 12 ops of a pass, 8 are cube chi, so
    # the median and the tail fall inside the chi cluster, away from the gap
    # to the fast ray pairings and P(1,1,2) ops, where they would jump from
    # run to run.  P(1,1,2) alternates chi and pair.
    GROUPS = (("cube", ("chi", "pair"), (0, 1)), ("cube", ("chi",), (0, 1)), ("cube", ("chi",), (1, 1)),
              ("cube", ("chi",), (1, 1)), ("p112", None, (0, 1)))
    pass_seconds = 4.3

    def __init__(self, root: Path, expected: dict):
        self.base = expected["localize"]

    def setup(self) -> None:
        cube, p112 = catalog.cube_fan(), catalog.weighted_p112()
        self.fans = {"cube": cube, "p112": p112}
        self.classes = {
            "cube": [P.from_cartier(cube, _cartier_cube(cube, s)) for s in (1, 2)],
            "p112": [P.from_cartier(p112, _cartier_p112(b)) for b in (1, 2)],
        }
        self.taus = {
            "cube": [cube.rayset_from_vectors([(1, 1, 1)])],
            "p112": list(catalog.p112_duality_cones(p112)),
        }
        self.resolutions = {}
        for key, fan in self.fans.items():
            pair = (F.resolve(fan), F.resolve(fan, rng=random.Random(99), extra_rounds=2))
            for sub in pair:
                sub.fine.is_smooth()
                sub.fine.faces
            self.resolutions[key] = pair

    def pass_ops(self, seed: int, p: int) -> list[Op]:
        ops = []
        for g, (key, kinds, classes) in enumerate(self.GROUPS):
            fan = self.fans[key]
            rng = _rng(self.name, seed, p, g)
            terms = _random_terms(rng, fan.rank, classes)
            f = P.PiecewiseExponential.constant(fan, 0)
            for k, c, u in terms:
                f = f + self.classes[key][k].module_action(LaurentPoly.exponential(u, c))
            if kinds is None:
                kinds = ("chi",) if p % 2 == 0 else ("pair",)
            tau = self.taus[key][p % len(self.taus[key])]
            base = self.base[key]
            first: dict = {}
            for kind in kinds:
                if kind == "chi":
                    want = _combine([oracle.poly(b) for b in base["chi"]], terms)
                else:
                    want = _combine([oracle.poly(b) for b in base["pair"][_tau_key(fan, tau)]], terms)
                for res in self.resolutions[key]:
                    if kind == "chi":
                        call = lambda fan=fan, f=f, res=res: K.chi(fan, f, resolution=res)
                    else:
                        call = lambda fan=fan, f=f, tau=tau, res=res: K.kronecker_pair(fan, f, tau, resolution=res)
                    ops.append(Op(kind, call, self._checker(kind, want, first), _canon_poly))
        return ops

    @staticmethod
    def _checker(kind, want, first):
        def check(result):
            got = oracle.poly(result)
            if kind in first and first[kind] != got:
                return f"{kind} differs between the two resolutions"
            first.setdefault(kind, got)
            return _expect(f"{kind} against the linear combination of recorded values", got, want)
        return check


def _canon_poly(result) -> str:
    return oracle.canonical(poly_to_json(result))


# -- resolve ------------------------------------------------------------------


class Resolve(Workload):
    """Toric resolution of singular cones and of the cube fan."""

    name = "resolve"
    # The median falls among the A_{N-1} cones with N near 41 and the tail
    # among those with N near 86: inside clusters of ops of one cost, not in
    # the gaps between clusters, where they would jump from run to run.  The
    # cube resolutions are kept out of the median: their seeded rng and
    # extra_rounds move their cost by a fifth.
    A_BINS = ((10, 14), (20, 24), (40, 42), (40, 42), (40, 42), (84, 88), (84, 88), (84, 88))
    # multiplicity m of <e1, e2, (1, b, m)>; other generators (a, b, m) make
    # the cost swing fourfold with a*b, which no run length averages out
    R3_BINS = ((6, 8), (10, 12), (28, 30))
    CUBE_OPS = 1
    pass_seconds = 5.5

    def setup(self) -> None:
        self.cube = catalog.cube_fan()

    def pass_ops(self, seed: int, p: int) -> list[Op]:
        rng = _rng(self.name, seed, p)
        ops = []
        for lo, hi in self.A_BINS:  # N of <(1,0),(1,N)>
            n = rng.randint(lo, hi)
            fan = F.Fan.build(2, [(1, 0), (1, n)], [(0, 1)])
            ops.append(Op("a_cone", lambda fan=fan: F.resolve(fan), self._checker(fan), _canon_sub))
        for lo, hi in self.R3_BINS:
            m = rng.randint(lo, hi)
            b = rng.choice([b for b in range(m // 4, m // 2 + 1) if gcd(b, m) == 1])
            fan = F.Fan.build(3, [(1, 0, 0), (0, 1, 0), (1, b, m)], [(0, 1, 2)])
            ops.append(Op("rank3_cone", lambda fan=fan: F.resolve(fan), self._checker(fan), _canon_sub))
        for _ in range(self.CUBE_OPS):
            s, extra = rng.randrange(2 ** 31), rng.randint(0, 3)
            call = lambda s=s, extra=extra: F.resolve(self.cube, rng=random.Random(s), extra_rounds=extra)
            ops.append(Op("cube", call, self._checker(self.cube), _canon_sub))
        return ops

    @staticmethod
    def _checker(coarse):
        coarse_rays = [tuple(r) for r in coarse.rays]
        normals = [oracle.facet_normals([coarse_rays[i] for i in c]) for c in coarse.maximal_cones]

        def check(sub):
            if sub.coarse.rays != coarse.rays or sub.coarse.maximal_cones != coarse.maximal_cones:
                return "resolution of another fan"
            fine = sub.fine
            if len(sub.assignment) != len(fine.maximal_cones):
                return "assignment length differs from the fine cone count"
            for idx, (cone, src) in enumerate(zip(fine.maximal_cones, sub.assignment)):
                gens = [fine.rays[i] for i in cone]
                if len(gens) != fine.rank or abs(oracle.det(gens)) != 1:
                    return f"fine cone {idx} is not smooth"
                if not all(oracle.in_cone(g, normals[src]) for g in gens):
                    return f"fine cone {idx} is not inside coarse cone {src}"
            return None
        return check


def _canon_sub(sub) -> str:
    return oracle.canonical([sub.fine.rays, sub.fine.maximal_cones, sub.assignment])


# -- cli ----------------------------------------------------------------------


def _doc_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


class Cli(Workload):
    """One ``python -m pexpfan`` process at a time: every command on data/,
    and generated documents on the 48-cone resolution of the cube fan.

    Each of the CLASSES seeded classes runs through four commands that cost
    1.2-2.4 s (validated ``Fan.build`` of 48 cones, ``gkm_validate`` and
    chi), against 0.1-0.16 s for a command on data/, which is mostly start-up
    and import.  With more 48-cone commands than data/ commands, the median
    and the tail both fall among the 48-cone ones, with ten of them beyond
    the tail."""

    name = "cli"
    ref_samples = 6  # a gauge of 1 s ops in a child tracks the host better when longer
    TERMS = 3
    CLASSES = 4
    pass_seconds = 27

    def __init__(self, root: Path, expected: dict):
        self.root = root
        self.recorded = expected["cli"]
        self.cube_chi = [oracle.poly(b) for b in expected["localize"]["cube"]["chi"]]
        golden = root / "tests" / "golden"
        self.golden = {name: json.loads((golden / f"p112_{name}.json").read_text())
                       for name in ("chi_demo_class", "gram", "dual_basis")}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.work = None

    def setup(self) -> None:
        self.work = tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=self.root)
        work = Path(self.work.name)
        data = self.root / "data"
        p112 = F.Fan.from_json(json.loads((data / "p112_fan.json").read_text()))
        cls = P.pexp_from_json(json.loads((data / "p112_class.json").read_text()), p112)
        sub = F.resolve(p112)
        (work / "p112_resolution.json").write_text(json.dumps(sub.to_json()))
        (work / "p112_fine_class.json").write_text(json.dumps(P.pexp_to_json(P.pullback(cls, sub))))
        cube = catalog.cube_fan()
        res = F.resolve(cube)
        self.fine_doc = res.fine.to_json()
        (work / "cube48_fan.json").write_text(json.dumps(self.fine_doc))
        self.fine_cartier = [
            [_cartier_cube(cube, s).exponents[a] for a in res.assignment] for s in (1, 2)
        ]

    def close(self) -> None:
        if self.work is not None:
            self.work.cleanup()
            self.work = None

    def _invoke(self, args: list[str]):
        traced = self.tracer is not None and self.tracer.active
        if traced:
            argv = [sys.executable, str(self.root / "perfbench" / "traced_cli.py"), *args]
        else:
            argv = [sys.executable, "-m", "pexpfan", *args]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, timeout=170)
        if traced:
            self.tracer.absorb(json.loads(proc.stderr.decode().splitlines()[-1]))
        return proc.returncode, proc.stdout

    def pass_ops(self, seed: int, p: int) -> list[Op]:
        work = Path(self.work.name)
        rel = os.path.relpath(work, self.root)
        d = "data/"
        fan, cls, spn, cones = d + "p112_fan.json", d + "p112_class.json", d + "p112_spanning.json", d + "p112_duality_cones.json"
        data_jobs = {
            "validate-fan": ["validate-fan", "--fan", fan],
            "resolve": ["resolve", "--fan", fan],
            "gkm-check": ["gkm-check", "--pexp", cls],
            "restrict": ["restrict", "--fan", fan, "--pexp", cls, "--cone", "[[-1,-2]]"],
            "chi": ["chi", "--fan", fan, "--pexp", cls],
            "pair": ["pair", "--fan", fan, "--pexp", cls, "--cone", "[]"],
            "gram": ["gram", "--fan", fan, "--functions", spn, "--cones", cones],
            "decompose": ["decompose", "--fan", fan, "--pexp", cls, "--basis", spn],
            "dual-basis": ["dual-basis", "--fan", fan, "--spanning", spn, "--cones", cones],
            "descend": ["descend", "--map", f"{rel}/p112_resolution.json", "--pexp", f"{rel}/p112_fine_class.json"],
        }
        golden_key = {"chi": "chi_demo_class", "gram": "gram", "dual-basis": "dual_basis"}
        ops = []
        for name, args in data_jobs.items():
            ops.append(Op("data:" + name, lambda args=args: self._invoke(args),
                          self._data_checker(name, golden_key.get(name)), _canon_proc))

        for j in range(self.CLASSES):
            ops += self._generated_ops(_rng(self.name, seed, p, j), work, rel, j)
        return ops

    def _generated_ops(self, rng: random.Random, work: Path, rel: str, j: int) -> list[Op]:
        """validate-fan, gkm-check and chi on a seeded class on the fine fan,
        and gkm-check on the class with one exponent moved."""
        terms = _random_terms(rng, 3, [rng.randrange(2) for _ in range(self.TERMS)])
        values = []
        for cone in range(len(self.fine_doc["max_cones"])):
            v: dict = {}
            for k, c, u in terms:
                oracle.add_scaled(v, {self.fine_cartier[k][cone]: 1}, c, u)
            values.append(v)
        bad_cone = rng.randrange(len(values))
        bad = [dict(v) for v in values]
        while True:
            shift = tuple(rng.randint(-1, 1) for _ in range(3))
            if any(shift):
                break
        exp, c = min(bad[bad_cone].items()) if bad[bad_cone] else ((0, 0, 0), 1)
        bad[bad_cone].pop(exp, None)
        oracle.add_scaled(bad[bad_cone], {exp: c}, 1, shift)
        good, corrupt = f"cube48_class_{j}.json", f"cube48_corrupted_{j}.json"
        for name, vals in ((good, values), (corrupt, bad)):
            doc = {"fan": "cube48_fan.json", "values": [oracle.poly_json(3, v) for v in vals]}
            (work / name).write_text(json.dumps(doc))
        fine_fan, good, corrupt = f"{rel}/cube48_fan.json", f"{rel}/{good}", f"{rel}/{corrupt}"
        good_doc = {"fan": self.fine_doc, "values": [oracle.poly_json(3, v) for v in values]}
        want_chi = oracle.poly_json(3, _combine(self.cube_chi, terms))
        rays = [tuple(r) for r in self.fine_doc["rays"]]
        want_violations = oracle.gkm_disagreements(rays, self.fine_doc["max_cones"], bad)
        return [
            Op("generated", lambda: self._invoke(["validate-fan", "--fan", fine_fan]),
               _bytes_checker(0, _doc_bytes({"status": "ok", "result": self.fine_doc})), _canon_proc),
            Op("generated", lambda: self._invoke(["gkm-check", "--pexp", good]),
               _bytes_checker(0, _doc_bytes({"status": "ok", "result": good_doc})), _canon_proc),
            Op("generated", lambda: self._invoke(["chi", "--fan", fine_fan, "--pexp", good]),
               _bytes_checker(0, _doc_bytes({"status": "ok", "result": want_chi})), _canon_proc),
            Op("generated", lambda: self._invoke(["gkm-check", "--pexp", corrupt]),
               _violation_checker(want_violations), _canon_proc),
        ]

    def _data_checker(self, name: str, golden: str | None):
        def check(result):
            code, out = result
            if code != 0:
                return f"{name}: exit code {code}"
            if golden is not None:
                doc = json.loads(out)["result"]
                if name == "dual-basis":
                    doc = doc["functions"]
                if doc != self.golden[golden]:
                    return f"{name}: result differs from tests/golden/p112_{golden}.json"
            return _expect(f"{name} stdout sha256", oracle.sha256(out), self.recorded[name])
        return check


def _bytes_checker(code_want: int, want: bytes):
    def check(result):
        code, out = result
        if code != code_want:
            return f"exit code {code}, want {code_want}"
        return None if out == want else "stdout bytes differ from the expected document"
    return check


def _violation_checker(want):
    def check(result):
        code, out = result
        if code != 2:
            return f"corrupted class: exit code {code}, want 2"
        doc = json.loads(out)
        if doc.get("status") != "violation" or doc.get("kind") != "gkm":
            return f"corrupted class: status {doc.get('status')!r}"
        got = [(v["cone_a"], v["cone_b"], tuple(v["face"])) for v in doc["violations"]]
        return _expect("violating pairs", got, [(i, j, tuple(f)) for i, j, f in want])
    return check


def _canon_proc(result) -> str:
    code, out = result
    return f"{code}:{oracle.sha256(out)}"


WORKLOADS = {w.name: w for w in (Localize, Resolve, Cli)}
