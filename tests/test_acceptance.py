"""Acceptance suite: one test (or tightly-related group) per criterion.

Each criterion prints a PASS line with its runtime when it holds; run with
``pytest tests/test_acceptance.py -v -s`` to see the report.

Criterion 7 rests on two theorems of the paper: the Kronecker map
op K_T(X) -> Hom(K_0^T(X), Z[M]) is an isomorphism for a complete linear
variety, and op K_T(X) of a toric variety is the ring PExp of integral
piecewise exponential functions.  So the Gram matrix of a Z[M]-basis of
PExp(P(1,1,2)) against the orbit-closure classes of the duality cones has a
unit determinant, and that is what the unit-invertibility test asserts.

The three displayed spanning functions are not such a basis.  They are the
unit f0, the divisor class f1 and the Koszul point class f2 at the singular
fixed point, and they span a submodule of PExp of index 1 + e^{u1}; their
Gram determinant is 1 + e^{u1}, pinned in ``tests/test_ktheory.py``.  The
missing generator is the Koszul point class f3 at the smooth fixed point of
the cone <e2, -e1-2e2>.  PExp is the direct sum of Z[M]*1 and the module K
of functions vanishing on <e1, e2>, and the ray conditions show that f1 and
f3 generate K, so (f0, f1, f3) is a basis.  The exact relation

    f2 = -e^{-2u1+u2} * ((1 - e^{2u1-u2}) * f1 - (1 + e^{u1}) * f3)

gives det Gram(f0, f1, f2) = e^{-2u1+u2} (1 + e^{u1}) det Gram(f0, f1, f3),
and det Gram(f0, f1, f3) = e^{2u1-u2}.  The class f2 lies in no basis:
PExp / Z[M]*f2 is the direct sum of Z[M] and the ideal
(1 + e^{u1}, 1 - e^{2u1-u2}), which is not projective.  The rest of criterion 7 (golden recording, dual-basis solving
with an exactly identity Gram, face compatibility, integrality) is kept in
separate tests.
"""

import json
import random
import time
from pathlib import Path

import pytest

from pexpfan import catalog
from pexpfan.errors import NotDescendable, NotIntegral
from pexpfan.fan import Fan, resolve, stellar_subdivision
from pexpfan.ktheory import (
    chi,
    decompose,
    dual_basis_solve,
    gram_matrix,
    kronecker_pair,
    poly_det,
)
from pexpfan.lattice import mat_mul, smith_normal_form
from pexpfan.laurent import (
    LaurentPoly,
    LocalizationSum,
    divide_exact,
    reduce_localization,
)
from pexpfan.pexp import (
    CartierData,
    PiecewiseExponential,
    descend,
    from_cartier,
    gkm_validate,
    pullback,
)

from oracles import (
    augmentation,
    cartier_polytope_points,
    det_expansion,
    random_cartier_combination,
    total_excess_multiplicity,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
E = LaurentPoly.exponential


def report(number, name, started):
    print(f"ACCEPTANCE {number} {name}: PASS ({time.monotonic() - started:.2f} s)")


def test_criterion_1_worked_example_reproduction():
    started = time.monotonic()
    fan = Fan.build(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (0, 2), (1, 2)])
    one = LaurentPoly.one(2)
    zero = LaurentPoly.zero(2)
    displayed = {
        "sample": (E((1, 0)) + E((0, 1)), one + E((1, -1)), E((-2, 1)) + E((-1, 0))),
        "unit": (one, one, one),
        "divisor": (zero, one - E((0, 1)), one - E((2, 0))),
        "point": (zero, (one - E((0, 1))) * (one - E((-2, 1))), zero),
    }
    functions = {}
    for name, values in displayed.items():
        rep = gkm_validate(fan, values)
        assert rep.ok, f"{name} failed GKM validation: {rep.violations}"
        functions[name] = rep.function

    coeffs = decompose(
        functions["sample"],
        (functions["unit"], functions["divisor"], functions["point"]),
    )
    assert coeffs == (
        E((1, 0)) + E((0, 1)),
        E((-2, 1)) + E((-1, 0)),
        one + E((1, -1)),
    )
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f} s"
    report(1, "worked example reproduction", started)


def test_criterion_2_normalization_suite(complete_corpus):
    started = time.monotonic()
    for name, fan in complete_corpus.items():
        one = PiecewiseExponential.constant(fan, 1)
        res = resolve(fan)
        assert chi(fan, one, resolution=res) == LaurentPoly.one(fan.rank), name
        for face in fan.faces:
            value = kronecker_pair(fan, one, face, resolution=res)
            assert augmentation(value) == 1, (name, face)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f} s"
    report(2, "normalization suite", started)


def test_criterion_3_lattice_point_oracle(p2):
    started = time.monotonic()
    expected_counts = {0: 1, 1: 3, 2: 6, 3: 10}
    for d in range(4):
        data = catalog.p2_degree_cartier(p2, d)
        value = chi(p2, from_cartier(p2, data))
        assert augmentation(value) == expected_counts[d]
        points = cartier_polytope_points(p2, data.exponents)
        assert len(points) == expected_counts[d]
        target = sum((E(p) for p in points), LaurentPoly.zero(2))
        assert value == target, f"degree {d}: {value} != {target}"
    elapsed = time.monotonic() - started
    assert elapsed < 2.0, f"criterion 3 took {elapsed:.2f} s"
    report(3, "lattice point oracle", started)


def test_criterion_4_resolution_independence(p112, cube):
    started = time.monotonic()
    rng = random.Random(20260810)

    p112_cartiers = [
        from_cartier(p112, CartierData(((0, 0), (0, b), (2 * b, 0)))) for b in (1, 2)
    ]
    cube_cartiers = [catalog.octahedron_class(cube, s) for s in (1, 2)]

    jobs = [
        (p112, p112_cartiers, 35, list(catalog.p112_duality_cones(p112))),
        (cube, cube_cartiers, 15, [cube.rayset_from_vectors([(1, 1, 1)]), ()]),
    ]
    total = 0
    for fan, cartiers, count, taus in jobs:
        res_a = resolve(fan)
        res_b = resolve(fan, rng=random.Random(99), extra_rounds=2)
        assert res_a.fine != res_b.fine, "the two resolutions must differ"
        for k in range(count):
            f = random_cartier_combination(fan, cartiers, rng)
            assert chi(fan, f, resolution=res_a) == chi(fan, f, resolution=res_b)
            tau = taus[k % len(taus)]
            pa = kronecker_pair(fan, f, tau, resolution=res_a)
            pb = kronecker_pair(fan, f, tau, resolution=res_b)
            assert pa == pb
            total += 1
    assert total >= 50
    report(4, f"resolution independence ({total} random classes)", started)


def test_criterion_5_descent_pullback_laws(complete_corpus):
    started = time.monotonic()
    rng = random.Random(5)
    fans = [complete_corpus["p112"], complete_corpus["p2"], complete_corpus["p1xp1"]]
    checked = 0
    for fan in fans:
        subdivisions = [resolve(fan, rng=random.Random(3), extra_rounds=1)]
        interior = tuple(
            sum(fan.rays[i][c] for i in fan.maximal_cones[0])
            for c in range(fan.rank)
        )
        from pexpfan.lattice import primitive_vector

        subdivisions.append(stellar_subdivision(fan, primitive_vector(interior)))
        cartiers = [PiecewiseExponential.constant(fan, 1)]
        if fan is complete_corpus["p112"]:
            cartiers = catalog.p112_spanning_classes(fan)
        for sub in subdivisions:
            for _ in range(17):
                f = random_cartier_combination(fan, cartiers, rng)
                assert descend(pullback(f, sub), sub) == f
                checked += 1
    assert checked >= 100

    # the constructed non-descendable witness, with the coarse cone named
    coarse = Fan.build(2, [(1, 0), (0, 1)], [(0, 1)])
    sub = stellar_subdivision(coarse, (1, 1))
    one = LaurentPoly.one(2)
    values = []
    for c in sub.fine.maximal_cones:
        rays = {sub.fine.rays[i] for i in c}
        values.append(one + E((1, 2)) if rays == {(1, 0), (1, 1)} else one + E((2, 1)))
    witness = PiecewiseExponential.from_values(sub.fine, values)
    with pytest.raises(NotDescendable) as err:
        descend(witness, sub)
    assert err.value.coarse_index == 0
    report(5, f"descent laws ({checked} roundtrips)", started)


def test_criterion_6_laurent_kernel():
    started = time.monotonic()
    rng = random.Random(424242)
    for _ in range(1000):
        rank = rng.randint(1, 3)
        f = LaurentPoly.from_dict(
            rank,
            {
                tuple(rng.randint(-4, 4) for _ in range(rank)): rng.randint(-6, 6)
                for _ in range(rng.randint(0, 5))
            },
        )
        w = tuple(rng.randint(-3, 3) for _ in range(rank))
        if not any(w):
            w = (0,) * (rank - 1) + (1,)
        product = f * (LaurentPoly.one(rank) - E(w))
        assert divide_exact(product, w) == f

    one = LaurentPoly.one(1)
    identity = LocalizationSum.build(1, [(one, ((1,),)), (one, ((-1,),))])
    assert reduce_localization(identity) == one

    for _ in range(200):
        f = LaurentPoly.from_dict(
            2,
            {
                (rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-5, 5)
                for _ in range(rng.randint(0, 4))
            },
        )
        g = LaurentPoly.from_dict(
            2,
            {
                (rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-5, 5)
                for _ in range(rng.randint(0, 4))
            },
        )
        assert augmentation(f * g) == augmentation(f) * augmentation(g)
    report(6, "laurent kernel (1000 division roundtrips)", started)


def _gram_fixture(p112):
    spans = catalog.p112_spanning_classes(p112)
    cones = catalog.p112_duality_cones(p112)
    res = resolve(p112)
    return spans, cones, res, gram_matrix(p112, spans, cones, resolution=res)


def test_criterion_7_duality_diagnostic_golden_and_report(p112):
    started = time.monotonic()
    spans, cones, res, gram = _gram_fixture(p112)
    with open(GOLDEN / "p112_gram.json", "r", encoding="utf-8") as fh:
        assert gram.to_json() == json.load(fh)

    det = poly_det([list(r) for r in gram.entries], 2)
    assert not det.is_zero(), "Gram matrix must be invertible over fractions"

    one = LaurentPoly.one(2)
    is_identity = all(
        gram.entries[i][j] == (one if i == j else LaurentPoly.zero(2))
        for i in range(3)
        for j in range(3)
    )
    is_unitriangular = all(
        gram.entries[i][i] == one for i in range(3)
    ) and (
        all(gram.entries[i][j].is_zero() for i in range(3) for j in range(i))
        or all(gram.entries[i][j].is_zero() for i in range(3) for j in range(i + 1, 3))
    )
    print(
        "ACCEPTANCE 7 duality diagnostic report: the displayed functions pair "
        f"to a Gram matrix with det = {det} (augmentation {augmentation(det)}); "
        f"identity: {is_identity}; unitriangular: {is_unitriangular}. "
        "They are related to the solved dual basis by this non-unimodular "
        "change of basis, so they are not the literal Kronecker duals."
    )
    report(7, "duality diagnostic (golden + report)", started)


def test_criterion_7_gram_unit_invertibility_as_specified(p112):
    """The Gram matrix of a Z[M]-basis of PExp(P(1,1,2)) is unit-invertible.

    The basis is (unit, divisor, smooth-point class) = (f0, f1, f3), written
    out by hand.  f3 = (0, 0, (1 - e^{u1})(1 - e^{2u1-u2})) is the Koszul
    point class at the smooth fixed point of <e2, -e1-2e2>; its tangent
    weights there are (1, 0) and (2, -1) up to sign, each vanishing on one
    ray of the cone, so f3 restricts to zero on both neighbours.

    The displayed functions (f0, f1, f2) span a submodule of index 1 + e^{u1}:
    on the smooth cone a coefficient of f3 over them would need 1 + e^{u1} to
    divide 1 - e^{2u1-u2}, so decomposing f3 raises NotIntegral.  The point
    class f2 at the singular fixed point is tied to the basis by the Koszul
    relation

        f2 = -e^{-2u1+u2} * ((1 - e^{2u1-u2}) * f1 - (1 + e^{u1}) * f3),

    so det Gram(f0, f1, f2) = e^{-2u1+u2} (1 + e^{u1}) det Gram(f0, f1, f3).
    f2 lies in no basis of PExp: PExp / Z[M]*f2 is the direct sum of Z[M]
    and the ideal (1 + e^{u1}, 1 - e^{2u1-u2}), which is not projective.
    A unit determinant on a true basis is what the duality theorem predicts;
    it also cross-checks the pairing code on the singular fan, since a wrong
    pairing would not give a unit.
    """
    spans, cones, res, displayed_gram = _gram_fixture(p112)
    f0, f1, f2 = spans
    one, zero = LaurentPoly.one(2), LaurentPoly.zero(2)
    # cone order: <e1, e2>, <e1, -e1-2e2> (singular), <e2, -e1-2e2> (smooth)
    smooth_point = (zero, zero, (one - E((1, 0))) * (one - E((2, -1))))
    rep = gkm_validate(p112, smooth_point)
    assert rep.ok, f"smooth-point class failed GKM validation: {rep.violations}"
    f3 = rep.function

    with pytest.raises(NotIntegral):
        decompose(f3, spans)

    koszul = (
        f1.module_action(one - E((2, -1))) - f3.module_action(one + E((1, 0)))
    ).module_action(-E((-2, 1)))
    assert koszul == f2, "the Koszul relation between f2 and (f1, f3) fails"

    gram = gram_matrix(p112, (f0, f1, f3), cones, resolution=res)
    det = poly_det([list(r) for r in gram.entries], 2)
    displayed_det = poly_det([list(r) for r in displayed_gram.entries], 2)
    assert displayed_det == E((-2, 1)) * (one + E((1, 0))) * det
    assert det.is_unit(), (
        f"the Gram matrix of the basis (f0, f1, f3) has det = {det}, "
        "which is not a unit of Z[M]; see the test docstring"
    )


def test_criterion_7_dual_basis_solve(p112):
    started = time.monotonic()
    spans, cones, res, _ = _gram_fixture(p112)
    duals = dual_basis_solve(p112, cones, spans, resolution=res)
    with open(GOLDEN / "p112_dual_basis.json", "r", encoding="utf-8") as fh:
        from pexpfan.pexp import pexp_to_json

        assert [pexp_to_json(g) for g in duals] == json.load(fh)
    check = gram_matrix(p112, duals, cones, resolution=res)
    one, zero = LaurentPoly.one(2), LaurentPoly.zero(2)
    assert check.entries == (
        (one, zero, zero),
        (zero, one, zero),
        (zero, zero, one),
    )
    for g in duals:
        assert gkm_validate(p112, g.values).ok
        assert all(
            all(isinstance(c, int) for _, c in v.terms) for v in g.values
        )
    report(7, "dual basis solve (identity Gram)", started)


def test_criterion_8_fan_engine():
    started = time.monotonic()
    corpus = [
        catalog.singular_quadric_cone_fan(),   # the A^2 / +- chart
        catalog.weighted_p112(),
        catalog.rank3_multiplicity3_fan(),
        catalog.cube_fan(),
    ]
    for fan in corpus:
        sub = resolve(fan)  # raises if a step fails to drop
        assert total_excess_multiplicity(sub.fine) == 0
        assert all(
            c.is_simplicial and c.multiplicity() == 1
            for c in sub.fine.cone_objects
        )

    rng = random.Random(612)
    for _ in range(1000):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = tuple(
            tuple(rng.randint(-25, 25) for _ in range(n)) for _ in range(m)
        )
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det_expansion(u)) == 1
        assert abs(det_expansion(v)) == 1
        diag = [d[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if y != 0:
                assert x != 0 and y % x == 0
    report(8, "fan engine and SNF invariants (1000 matrices)", started)
