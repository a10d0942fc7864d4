import json
import random
from math import prod
from types import SimpleNamespace

import pytest

import pexpfan.pexp as pexp_module
from pexpfan import catalog
from pexpfan.cli import run
from pexpfan.errors import (
    FanMismatch,
    GkmViolationError,
    IncompatibleCartierData,
    NotAFan,
    NotDescendable,
    RankMismatch,
)
from pexpfan.fan import Fan, stellar_subdivision, resolve
from pexpfan.laurent import LaurentPoly
from pexpfan.lattice import vec_add
from pexpfan.pexp import (
    CartierData,
    PiecewiseExponential,
    _comparison_matrix,
    descend,
    from_cartier,
    gkm_validate,
    pexp_from_json,
    pexp_to_json,
    pullback,
)
from oracles import gkm_violations_pairwise


E = LaurentPoly.exponential
# two cones meeting in more than a common face
OVERLAPPING = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1], [1, 2]]}
ONE2 = LaurentPoly.one(2)
ZERO2 = LaurentPoly.zero(2)


def random_class(fan, rng, classes):
    out = PiecewiseExponential.constant(fan, 0)
    for _ in range(rng.randint(1, 3)):
        g = rng.choice(classes)
        coeff = rng.randint(-3, 3)
        exp = tuple(rng.randint(-2, 2) for _ in range(fan.rank))
        out = out + g.module_action(E(exp, coeff))
    return out


def p112_classes(fan):
    xi = catalog.p112_demo_class(fan)
    unit, divisor, point = catalog.p112_spanning_classes(fan)
    return [xi, unit, divisor, point]


def move_one_exponent(values, rng):
    """The values with the least term of one cone moved by a nonzero shift in
    {-1, 0, 1}^rank, the way perfbench corrupts a class (e^shift on a zero)."""
    bad = list(values)
    cone = rng.randrange(len(bad))
    rank = bad[cone].rank
    shift = (0,) * rank
    while not any(shift):
        shift = tuple(rng.randint(-1, 1) for _ in range(rank))
    if bad[cone].terms:
        exp, c = bad[cone].terms[0]
        rest = bad[cone] - E(exp, c)
    else:
        exp, c, rest = (0,) * rank, 1, bad[cone]
    bad[cone] = rest + E(vec_add(exp, shift), c)
    return bad


class TestGkmValidate:
    def test_demo_class_is_valid(self, p112):
        values = (
            E((1, 0)) + E((0, 1)),
            ONE2 + E((1, -1)),
            E((-2, 1)) + E((-1, 0)),
        )
        report = gkm_validate(p112, values)
        assert report.ok and not report.violations

    def test_point_class_is_valid(self, p112):
        values = (ZERO2, (ONE2 - E((0, 1))) * (ONE2 - E((-2, 1))), ZERO2)
        assert gkm_validate(p112, values).ok

    def test_violation_reports_the_face(self):
        fan = catalog.p1_times_p1()
        # cones 0 and 1 share the ray through e2; 1 and e^{u2} restrict to
        # 1 and e^t there since <u2, e2> = 1
        values = [ONE2, E((0, 1)), ONE2, ONE2]
        report = gkm_validate(fan, values)
        assert not report.ok
        bad = [v for v in report.violations if v.cone_a == 0 and v.cone_b == 1]
        assert len(bad) == 1
        v = bad[0]
        assert v.face == (1,)  # the shared ray index
        assert v.restriction_a == LaurentPoly.one(1)
        assert v.restriction_b == E((1,))

    def test_walls_match_the_pairwise_loop(self, p112, cube, monkeypatch):
        """On resolutions of P(1,1,2) and of the cube, gkm_validate reports
        the same whether the walls may accept or only the pass over the star
        table runs: the same function for random classes, and for each class
        with one exponent moved the same violations in the same order."""
        rng = random.Random(20261018)
        octahedron = catalog.octahedron_class(cube)
        cases = []
        for fan, classes in ((p112, p112_classes(p112)),
                             (cube, [PiecewiseExponential.constant(cube, 1), octahedron,
                                     octahedron * octahedron])):
            for rounds in (0, 2):
                sub = resolve(fan, rng=random.Random(rounds), extra_rounds=rounds)
                pulled = [pullback(f, sub) for f in classes]
                for _ in range(3):
                    values = random_class(sub.fine, rng, pulled).values
                    cases += [(sub.fine, values), (sub.fine, move_one_exponent(values, rng))]

        def reports():
            return [(r.ok, r.function, r.violations)
                    for r in (gkm_validate(fan, values) for fan, values in cases)]

        agree = pexp_module._agree_across_walls
        seen = []
        with monkeypatch.context() as m:
            m.setattr(pexp_module, "_agree_across_walls",
                      lambda fan, vals: seen.append(agree(fan, vals)) or seen[-1])
            got = reports()
        with monkeypatch.context() as m:
            m.setattr(pexp_module, "_agree_across_walls", lambda fan, vals: False)
            assert got == reports()
        assert seen == [True, False] * (len(cases) // 2)
        assert [ok for ok, _, _ in got] == seen
        assert max(len(fan.maximal_cones) for fan, _ in cases) >= 48

    def test_violations_match_the_uncached_pairwise_loop(self, complete_corpus):
        """On the corpus, seeded resolutions of it, the mixed-dimension fan
        and the fine fans of resolutions of one rank-2 and one rank-3 cone
        (neither complete), gkm_validate reports the violations of the loop
        that restricted both cones of every pair afresh, in the same order:
        for global classes with one exponent moved, random values, the unit
        with one cone moved by e^(unit vector) (violations at faces of
        positive dimension only), the unit with one cone doubled (its
        augmentation differs, so it also fails at the zero cone) and a class
        that fails exactly one wall.  from_cartier names the loop's first
        violation for the cone moved by a unit vector."""
        rng = random.Random(20261019)
        fans = [Fan.build(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)]),
                resolve(Fan.build(2, [(1, 0), (1, 7)], [(0, 1)])).fine,
                resolve(Fan.build(3, [(1, 0, 0), (0, 1, 0), (1, 2, 5)], [(0, 1, 2)])).fine]
        for fan in complete_corpus.values():
            fans += [fan, resolve(fan, rng=random.Random(1), extra_rounds=1).fine]
        reported, one_wall, refused = 0, 0, 0
        for fan in fans:
            unit, one = PiecewiseExponential.constant(fan, 1), LaurentPoly.one(fan.rank)
            e1 = tuple(int(a == 0) for a in range(fan.rank))
            characters = [(0,) * fan.rank] * (len(unit.values) - 1) + [e1]
            want = gkm_violations_pairwise(fan, [E(m) for m in characters])
            if want:
                with pytest.raises(IncompatibleCartierData) as exc:
                    from_cartier(fan, CartierData(tuple(characters)))
                assert str(exc.value) == (f"characters on cones {want[0].cone_a} and {want[0].cone_b} "
                                          f"differ on their common face {list(want[0].face)}")
                refused += 1
            moved, doubled = list(unit.values), list(unit.values)
            moved[-1], doubled[0] = moved[-1] * E(e1[:moved[-1].rank]), doubled[0] * 2
            cases = [moved, doubled]
            # across a wall W of a full-dimensional simplicial cone i, the
            # product of 1 - e^u over the normals u of i's other facets
            # restricts to 0 on every face of i but W and i itself
            walls = [(rs, cones) for rs, cones in fan.walls.items() if len(cones) == 2]
            if walls and all(c.dim == fan.rank and c.is_simplicial for c in fan.cone_objects):
                wall, ((i, _), (j, _)) = walls[len(walls) // 2]
                values = list(unit.values)
                values[i] = values[i] + prod((one - E(u) for rs, cones in fan.walls.items() for c, u in cones
                                              if c == i and rs != wall), start=one)
                assert [(v.cone_a, v.cone_b, v.face) for v in gkm_validate(fan, values).violations] == [
                    (i, j, wall)]
                cases.append(values)
                one_wall += 1
            for _ in range(3):
                cases.append(move_one_exponent(random_class(fan, rng, [unit]).values, rng))
                cases.append([LaurentPoly.from_dict(v.rank, {tuple(rng.randint(-1, 1) for _ in range(v.rank)):
                                                             rng.randint(1, 2)}) for v in unit.values])
            for values in cases:
                report = gkm_validate(fan, values)
                assert report.violations == gkm_violations_pairwise(fan, values), fan
                assert report.ok == (not report.violations)
                reported += len(report.violations)
        assert reported > 1000 and refused > 10 and one_wall > 10

    def test_the_violation_pass_restricts_each_star_cone_once(self, cube, monkeypatch):
        """A corrupted class on the 48-cone resolution of the cube restricts
        each cone once at each face of the fan held by two or more maximal
        cones: 336 restrictions, as many as the (cone, common face) pairs,
        where the loop restricted both cones of each of the 1,128 pairs
        afresh (2,256 restrictions)."""
        sub = resolve(cube)
        values = move_one_exponent(pullback(catalog.octahedron_class(cube), sub).values, random.Random(7))
        want = gkm_violations_pairwise(sub.fine, values)
        calls = []
        restriction = pexp_module._restriction
        monkeypatch.setattr(pexp_module, "_restriction",
                            lambda fan, vals, i, face: calls.append((i, face)) or restriction(fan, vals, i, face))
        report = gkm_validate(sub.fine, values)
        assert report.violations == want and want
        cones = sub.fine.maximal_cones
        stars = {(k, face) for face, star in sub.fine._star.items() if len(star) > 1 for k in star}
        pairs = {(k, tuple(sorted(set(cones[i]) & set(cones[j]))))
                 for i in range(len(cones)) for j in range(i + 1, len(cones)) for k in (i, j)}
        assert len(cones) == 48 and len(calls) == len(set(calls)) == 336
        assert set(calls) == stars == pairs

    def test_wall_congruence_matches_restriction(self, p112, cube):
        """On every wall of resolutions of P(1,1,2) and of the cube, the
        congruence mod (1 - e^u) of ``_agree_across_walls`` holds for two
        seeded random values exactly when their restrictions through the
        wall's quotient lattice are equal.  One value is the other moved by
        terms c * (e^v - e^(v + w)), with w a multiple of the normal u or a
        random character."""
        rng = random.Random(20261018)
        verdicts = []
        for fan in (p112, cube):
            for rounds in (0, 2):
                fine = resolve(fan, rng=random.Random(rounds), extra_rounds=rounds).fine
                zero = LaurentPoly.zero(fine.rank)
                for wall, entries in fine.walls.items():
                    (i, u), (j, _) = entries
                    a = LaurentPoly.from_dict(fine.rank, {
                        tuple(rng.randint(-2, 2) for _ in u): rng.randint(-3, 3) for _ in range(3)})
                    b = a
                    for _ in range(rng.randint(1, 2)):
                        v = tuple(rng.randint(-2, 2) for _ in u)
                        if rng.random() < 0.6:
                            k = rng.randint(-2, 2)
                            w = tuple(k * x for x in u)
                        else:
                            w = tuple(rng.randint(-1, 1) for _ in u)
                        c = rng.randint(1, 3)
                        b = b + E(v, c) - E(vec_add(v, w), c)
                    vals = [zero] * len(fine.maximal_cones)
                    vals[i], vals[j] = a, b
                    want = (pexp_module._restriction(fine, vals, i, wall)
                            == pexp_module._restriction(fine, vals, j, wall))
                    one_wall = SimpleNamespace(walls={wall: entries})
                    assert pexp_module._agree_across_walls(one_wall, vals) == want, (wall, a, b)
                    verdicts.append(want)
        assert verdicts.count(True) > 50 and verdicts.count(False) > 50

    def test_wrong_value_count(self, p112):
        with pytest.raises(RankMismatch):
            gkm_validate(p112, (ONE2,))

    def test_from_values_raises_on_violation(self):
        fan = catalog.p1_times_p1()
        with pytest.raises(GkmViolationError):
            PiecewiseExponential.from_values(fan, [ONE2, E((0, 1)), ONE2, ONE2])


class TestRestrict:
    def test_demo_at_singular_ray(self, p112):
        xi = catalog.p112_demo_class(p112)
        tau = p112.rayset_from_vectors([(-1, -2)])
        assert xi.restrict(tau) == LaurentPoly.one(1) + E((1,))

    def test_restrict_at_origin_is_augmentation(self, p112):
        xi = catalog.p112_demo_class(p112)
        assert xi.restrict(()) == LaurentPoly.constant(0, 2)

    def test_restrict_at_maximal_cone(self, p112):
        xi = catalog.p112_demo_class(p112)
        assert xi.restrict((0, 1)) == E((1, 0)) + E((0, 1))

    def test_functorial_through_intermediate_face(self, p112):
        xi = catalog.p112_demo_class(p112)
        for top in p112.maximal_cones:
            for face in ((), (top[0],), (top[1],)):
                phi = _comparison_matrix(p112, top, p112, face)
                assert xi.restrict(face) == xi.restrict(top).map_exponents(phi)

    def test_multiplicative(self, p112):
        rng = random.Random(2)
        classes = p112_classes(p112)
        for _ in range(10):
            f = random_class(p112, rng, classes)
            g = random_class(p112, rng, classes)
            for face in p112.faces:
                assert (f * g).restrict(face) == f.restrict(face) * g.restrict(face)


class TestRingOps:
    def test_unit(self, p112):
        xi = catalog.p112_demo_class(p112)
        one = PiecewiseExponential.constant(p112, 1)
        assert one * xi == xi

    def test_divisor_times_unit(self, p112):
        unit, divisor, _ = catalog.p112_spanning_classes(p112)
        assert divisor * unit == divisor

    def test_module_action_constant(self, p112):
        f = PiecewiseExponential.constant(p112, 1).module_action(E((1, 0)))
        assert all(v == E((1, 0)) for v in f.values)

    def test_closure_under_products(self, p112):
        # ring operations build their results without re-checking GKM, so the
        # invariant is asserted here instead
        rng = random.Random(3)
        classes = p112_classes(p112)
        for _ in range(15):
            f = random_class(p112, rng, classes)
            g = random_class(p112, rng, classes)
            h = LaurentPoly.from_dict(
                2,
                {
                    tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(-3, 3)
                    for _ in range(rng.randint(1, 3))
                },
            )
            assert gkm_validate(p112, (f * g).values).ok
            assert gkm_validate(p112, (f + g).values).ok
            assert gkm_validate(p112, (f - g).values).ok
            assert gkm_validate(p112, f.module_action(h).values).ok

    def test_module_action_needs_an_ambient_sum(self, p112):
        with pytest.raises(RankMismatch) as exc:
            PiecewiseExponential.constant(p112, 1).module_action(LaurentPoly.one(1))
        assert str(exc.value) == "module action needs an ambient exponential sum"

    def test_fan_mismatch(self, p112, p2):
        with pytest.raises(FanMismatch):
            PiecewiseExponential.constant(p112, 1) + PiecewiseExponential.constant(p2, 1)


class TestCartier:
    def test_trivial_bundle(self, p112):
        d = CartierData(((0, 0), (0, 0), (0, 0)))
        assert from_cartier(p112, d) == PiecewiseExponential.constant(p112, 1)

    def test_degree_one_on_line(self, p1):
        f = from_cartier(p1, CartierData(((0,), (1,))))
        assert f.values == (LaurentPoly.one(1), E((1,)))

    def test_globally_linear(self, p112):
        d = CartierData(((1, 0), (1, 0), (1, 0)))
        f = from_cartier(p112, d)
        assert all(v == E((1, 0)) for v in f.values)

    @pytest.mark.parametrize("call, error, message", [
        (lambda fan: from_cartier(fan, CartierData(((0, 0), (0, 0)))), IncompatibleCartierData,
         "one character per maximal cone is required"),
        (lambda fan: from_cartier(fan, CartierData(((0, 0), (0,), (0, 0)))), IncompatibleCartierData,
         "character (0,) has wrong length"),
    ], ids=["character-count", "character-length"])
    def test_malformed_data_is_refused(self, p112, call, error, message):
        with pytest.raises(IncompatibleCartierData) as exc:
            call(p112)
        assert (type(exc.value), str(exc.value)) == (error, message)

    def test_incompatible_data(self, p112):
        with pytest.raises(IncompatibleCartierData) as err:
            from_cartier(p112, CartierData(((0, 0), (1, 0), (0, 0))))
        assert str(err.value) == "characters on cones 0 and 1 differ on their common face [0]"

    def test_p2_degree_data_needs_the_projective_plane_fan(self):
        with pytest.raises(ValueError) as exc:
            catalog.p2_degree_cartier(catalog.p1_times_p1(), 1)
        assert (type(exc.value), str(exc.value)) == (ValueError, "not the standard projective plane fan")

    @pytest.mark.parametrize("fan", [
        catalog.weighted_p112,
        lambda: catalog.hirzebruch(1),
        lambda: Fan.build(2, [(0, 1), (1, 0), (-1, -1)], [(0, 1), (0, 2), (1, 2)]),
        lambda: Fan.build(2, [(1, 0), (1, 1), (-2, -1)], [(0, 1), (0, 2), (1, 2)]),
        lambda: Fan.build(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)]),
    ], ids=["p112-same-labels", "hirzebruch-1", "p2-rays-swapped", "p2-other-coordinates",
            "p2-missing-cone"])
    def test_p2_degree_data_refuses_fans_that_are_not_the_standard_plane(self, fan):
        # P(1,1,2) and the swapped or moved planes have P^2's cone labels, so the
        # rays must be compared as well
        with pytest.raises(ValueError) as exc:
            catalog.p2_degree_cartier(fan(), 2)
        assert (type(exc.value), str(exc.value)) == (ValueError, "not the standard projective plane fan")

    def test_p2_degree_data_reads_each_cone_by_its_rays(self):
        fan = Fan.build(2, [(1, 0), (0, 1), (-1, -1)], [(1, 2), (0, 1), (0, 2)])
        assert catalog.p2_degree_cartier(fan, 3) == CartierData(((3, 0), (0, 0), (0, 3)))
        assert catalog.p2_degree_cartier(catalog.projective_plane(), 3) == CartierData(
            ((0, 0), (0, 3), (3, 0)))

    def test_multiplicative(self, p112):
        d1 = CartierData(((0, 0), (0, 1), (2, 0)))
        d2 = CartierData(((0, 0), (0, 2), (4, 0)))
        d_sum = CartierData(tuple(
            tuple(a + b for a, b in zip(m1, m2))
            for m1, m2 in zip(d1.exponents, d2.exponents)
        ))
        assert from_cartier(p112, d_sum) == from_cartier(p112, d1) * from_cartier(p112, d2)


class TestPullbackDescend:
    def test_constant_pulls_back_to_constant(self, p112):
        sub = resolve(p112)
        one = PiecewiseExponential.constant(p112, 1)
        assert pullback(one, sub) == PiecewiseExponential.constant(sub.fine, 1)

    def test_demo_class_pullback_values(self, p112):
        sub = resolve(p112)
        xi = catalog.p112_demo_class(p112)
        lifted = pullback(xi, sub)
        # both new cones subdivide the cone carrying 1 + e^{u1-u2}
        inside = [
            i for i, src in enumerate(sub.assignment)
            if p112.maximal_cones[src] == (0, 2)
        ]
        assert len(inside) == 2
        for i in inside:
            assert lifted.values[i] == ONE2 + E((1, -1))

    def test_identity_pullback(self, p112):
        from pexpfan.fan import SubdivisionMap

        xi = catalog.p112_demo_class(p112)
        assert pullback(xi, SubdivisionMap.identity(p112)) == xi

    def test_roundtrip(self, p112):
        rng = random.Random(7)
        sub = resolve(p112)
        classes = p112_classes(p112)
        for _ in range(20):
            f = random_class(p112, rng, classes)
            assert descend(pullback(f, sub), sub) == f

    def test_non_descendable_witness(self):
        coarse = Fan.build(2, [(1, 0), (0, 1)], [(0, 1)])
        sub = stellar_subdivision(coarse, (1, 1))
        values = []
        for c in sub.fine.maximal_cones:
            rays = {sub.fine.rays[i] for i in c}
            values.append(ONE2 + E((1, 2)) if rays == {(1, 0), (1, 1)} else ONE2 + E((2, 1)))
        f = PiecewiseExponential.from_values(sub.fine, values)  # GKM holds on the wall
        with pytest.raises(NotDescendable) as err:
            descend(f, sub)
        assert err.value.coarse_index == 0
        assert {err.value.value_a, err.value.value_b} == {ONE2 + E((1, 2)), ONE2 + E((2, 1))}

    def test_global_exponential_descends(self):
        coarse = Fan.build(2, [(1, 0), (0, 1)], [(0, 1)])
        sub = stellar_subdivision(coarse, (1, 1))
        f = PiecewiseExponential.constant(sub.fine, 1).module_action(E((2, -1)))
        assert descend(f, sub) == PiecewiseExponential.constant(coarse, 1).module_action(E((2, -1)))

    def test_fan_mismatch_on_pullback_and_descend(self, p112, p2):
        sub = resolve(p112)
        with pytest.raises(FanMismatch):
            pullback(PiecewiseExponential.constant(p2, 1), sub)
        with pytest.raises(FanMismatch):
            descend(PiecewiseExponential.constant(p2, 1), sub)

    def test_pullback_is_ring_homomorphism_and_injective(self, p112):
        rng = random.Random(9)
        sub = resolve(p112)
        classes = p112_classes(p112)
        seen = {}
        for _ in range(15):
            f = random_class(p112, rng, classes)
            g = random_class(p112, rng, classes)
            assert pullback(f * g, sub) == pullback(f, sub) * pullback(g, sub)
            assert pullback(f + g, sub) == pullback(f, sub) + pullback(g, sub)
            key = pullback(f, sub)
            if key in seen:
                assert seen[key] == f
            seen[key] = f


class TestSerialization:
    def test_round_trip(self, p112):
        xi = catalog.p112_demo_class(p112)
        assert pexp_from_json(pexp_to_json(xi)) == xi

    def test_external_fan(self, p112):
        xi = catalog.p112_demo_class(p112)
        obj = pexp_to_json(xi)
        del obj["fan"]
        assert pexp_from_json(obj, fan=p112) == xi

    def test_path_valued_fan_needs_the_fan_argument(self):
        with pytest.raises(ValueError, match="only the CLI resolves; library callers pass fan="):
            pexp_from_json({"fan": "x.json", "values": []})

    def test_class_on_another_fan_is_refused(self, p112, p2):
        obj = pexp_to_json(PiecewiseExponential.constant(p112, 1))
        with pytest.raises(ValueError) as exc:
            pexp_from_json(obj, p2)
        assert str(exc.value) == "embedded fan differs from the --fan argument"

    def test_invalid_embedded_fan_is_refused_next_to_the_fan_argument(self, p112):
        obj = dict(pexp_to_json(PiecewiseExponential.constant(p112, 1)), fan=OVERLAPPING)
        with pytest.raises(NotAFan) as exc:
            pexp_from_json(obj, p112)
        assert str(exc.value) == "cones (0, 1) and (1, 2) intersect in a non-face"

    def test_array_document_is_refused(self, p112):
        with pytest.raises(ValueError) as exc:
            pexp_from_json([1, 2], p112)
        assert str(exc.value) == "a piecewise exponential must be a JSON object, got [1, 2]"

    @pytest.mark.parametrize("doc, with_fan", [
        ({"values": 3}, True),
        ([1, 2], True),
        (3, True),
        ({"values": []}, False),
        ("overlapping", True),
        ("plane", True),
    ], ids=["number-values", "array", "number", "no-fan", "invalid-embedded", "differing-embedded"])
    def test_library_and_cli_refuse_alike(self, p112, tmp_path, capsys, doc, with_fan):
        """The CLI's kind and detail are the library's error class and message."""
        embedded = {"overlapping": OVERLAPPING, "plane": catalog.projective_plane().to_json()}
        if isinstance(doc, str):
            doc = dict(pexp_to_json(catalog.p112_demo_class(p112)), fan=embedded[doc])
        fan_path, doc_path = tmp_path / "fan.json", tmp_path / "doc.json"
        fan_path.write_text(json.dumps(p112.to_json()))
        doc_path.write_text(json.dumps(doc))
        argv = ["gkm-check", "--pexp", str(doc_path)] + (["--fan", str(fan_path)] if with_fan else [])
        assert run(argv) == 1
        cli_doc = json.loads(capsys.readouterr().out)
        with pytest.raises((ValueError, NotAFan)) as exc:
            pexp_from_json(doc, p112 if with_fan else None)
        assert (type(exc.value).__name__, str(exc.value)) == (cli_doc["kind"], cli_doc["detail"])

    def test_number_values_are_refused(self, p112):
        # the CLI refuses it with this detail too (test_cli.py, number-values)
        with pytest.raises(ValueError, match="values must be a list, got 3"):
            pexp_from_json({"values": 3}, p112)
