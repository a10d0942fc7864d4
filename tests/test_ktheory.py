import copy
import itertools
import random
import time
from fractions import Fraction
from functools import cache, cached_property
from math import prod

import pytest

from pexpfan import catalog, ktheory, laurent
from pexpfan.errors import (
    ConeNotInFan,
    DependentBasis,
    NotComplete,
    NotFullDimensional,
    NotInSpan,
    NotIntegral,
    NotPolynomial,
    NotSmooth,
    PExpFanError,
    ResolutionCheckFailed,
    ResultCheckFailed,
    SingularGram,
)
import pexpfan.fan as fan_module
from pexpfan.fan import Cone, Fan, SubdivisionMap, resolve, stellar_subdivision
from pexpfan.ktheory import (
    chi,
    decompose,
    dual_basis_solve,
    gram_matrix,
    kronecker_pair,
    orbit_closure_class,
    PairingMatrix,
    poly_det,
    tangent_weights,
)
from pexpfan.lattice import adjugate, mat_vec, primitive_vector, transpose, vec_scale
from pexpfan.laurent import LaurentPoly, LocalizationSum
from pexpfan.pexp import CartierData, PiecewiseExponential, descend, from_cartier, gkm_validate, pullback

from oracles import (
    augmentation,
    basis_rows_by_subsets,
    cartier_polytope_points,
    det_expansion,
    euler_characteristic,
    merge_rounds_by_dicts,
    plan_tables_by_occurrence,
    random_cartier_combination,
    random_complete_rank2_data,
    reduce_localization_greedy,
    solve_rational,
    star_sum_ungrouped,
    star_walls_scan,
)

E = LaurentPoly.exponential


def poly(rank, d):
    return LaurentPoly.from_dict(rank, d)


class TestTangentWeights:
    def test_standard_cone(self):
        cone = Cone.from_generators(2, [(1, 0), (0, 1)])
        assert set(tangent_weights(cone)) == {(1, 0), (0, 1)}

    def test_weights_are_dual_to_the_generators(self):
        cone = Cone.from_generators(2, [(1, 0), (0, 1)])
        weights = tangent_weights(cone)
        for i, w in enumerate(weights):
            for j, v in enumerate(cone.generators):
                assert sum(a * b for a, b in zip(w, v)) == (1 if i == j else 0)

    def test_singular_chart_neighbor(self):
        cone = Cone.from_generators(2, [(0, 1), (-1, -2)])
        assert set(tangent_weights(cone)) == {(-2, 1), (-1, 0)}

    def test_singular_cone_rejected(self):
        cone = Cone.from_generators(2, [(1, 0), (-1, -2)])
        with pytest.raises(NotSmooth):
            tangent_weights(cone)

    def test_lower_dimensional_cone_rejected(self):
        cone = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(NotFullDimensional):
            tangent_weights(cone)


def localize(f, epsilon):
    """The localization sum of f's values on its smooth complete fan over
    epsilon times the tangent weights, as scripts/determine_sign_convention.py
    builds it."""
    terms = [
        (value, [vec_scale(epsilon, w) for w in tangent_weights(cone)])
        for value, cone in zip(f.values, f.fan.cone_objects)
    ]
    return LocalizationSum.build(f.fan.rank, terms).reduce()


class TestSignConvention:
    """The experiment that fixed the sign: only the tangent weights
    (epsilon = +1), not their negatives, make the degree-one class on the
    line localize to the polytope's lattice points."""

    def test_epsilon_plus_one_matches_lattice_points(self, p1):
        cls = catalog.p1_degree_class(p1, 1)
        value = localize(cls, 1)
        assert value == chi(p1, cls)
        assert value == LaurentPoly.one(1) + E((1,))
        pts = cartier_polytope_points(p1, ((0,), (1,)))
        assert sorted(pts) == [(0,), (1,)]
        assert value == sum(
            (E(tuple(p)) for p in pts), LaurentPoly.zero(1)
        )

    def test_epsilon_minus_one_fails_the_oracle(self, p1):
        cls = catalog.p1_degree_class(p1, 1)
        assert localize(cls, -1) == LaurentPoly.zero(1)

    def test_both_choices_normalize_the_unit(self, p1):
        one = PiecewiseExponential.constant(p1, 1)
        assert localize(one, 1) == LaurentPoly.one(1)
        assert localize(one, -1) == LaurentPoly.one(1)


class TestOrbitClosureClass:
    def test_origin_gives_unit_numerators(self, p2):
        numerators = orbit_closure_class(p2, ())
        assert all(n == LaurentPoly.one(2) for n in numerators)

    def test_full_cone_gives_point_class(self, p2):
        numerators = orbit_closure_class(p2, (0, 1))
        weights = tangent_weights(p2.cone_objects[0])
        koszul = (LaurentPoly.one(2) - E(weights[0])) * (
            LaurentPoly.one(2) - E(weights[1])
        )
        assert numerators[0] == koszul
        assert all(n.is_zero() for n in numerators[1:])

    def test_ray_on_resolved_weighted_plane(self, p112):
        fine = resolve(p112).fine
        tau = fine.rayset_from_vectors([(-1, -2)])
        numerators = orbit_closure_class(fine, tau)
        nonzero = [i for i, n in enumerate(numerators) if not n.is_zero()]
        assert len(nonzero) == 2
        for i in nonzero:
            assert tau[0] in fine.maximal_cones[i]
            assert len(numerators[i].terms) == 2  # a single Koszul factor


class TestEulerCharacteristic:
    def test_line_unit(self, p1):
        assert euler_characteristic(p1, [LaurentPoly.one(1)] * 2) == LaurentPoly.one(1)

    def test_line_degree_one(self, p1):
        value = euler_characteristic(p1, [LaurentPoly.one(1), E((1,))])
        assert value == LaurentPoly.one(1) + E((1,))

    def test_plane_unit(self, p2):
        assert euler_characteristic(p2, [LaurentPoly.one(2)] * 3) == LaurentPoly.one(2)

    def test_projective_space_rank3(self):
        fan = catalog.projective_space(3)
        assert fan.is_complete() and fan.is_smooth()
        assert euler_characteristic(fan, [LaurentPoly.one(3)] * 4) == LaurentPoly.one(3)

    def test_incomplete_fan_rejected(self):
        fan = catalog.singular_quadric_cone_fan()
        with pytest.raises((NotComplete, NotSmooth)):
            euler_characteristic(fan, [LaurentPoly.one(2)])

    def test_inconsistent_data_is_not_polynomial(self, p1):
        from pexpfan.errors import NotPolynomial

        # a lone nonzero residue at one fixed point cannot cancel its pole
        with pytest.raises(NotPolynomial):
            euler_characteristic(p1, [LaurentPoly.one(1), LaurentPoly.zero(1)])

    def test_numerators_of_another_fan_are_refused(self, p2):
        # P^2 has three fixed points and P^1 x P^1 four: the weights are
        # always read from the fan that is passed
        with pytest.raises(ValueError, match="one numerator per maximal cone"):
            euler_characteristic(catalog.p1_times_p1(), [LaurentPoly.one(2)] * len(p2.maximal_cones))


class TestChi:
    def test_unit_on_corpus(self, complete_corpus):
        for name, fan in complete_corpus.items():
            one = PiecewiseExponential.constant(fan, 1)
            assert chi(fan, one) == LaurentPoly.one(fan.rank), name

    def test_degree_class_on_line(self, p1):
        assert chi(p1, catalog.p1_degree_class(p1, 1)) == LaurentPoly.one(1) + E((1,))

    def test_demo_class_regression(self, p112):
        xi = catalog.p112_demo_class(p112)
        assert chi(p112, xi) == LaurentPoly.zero(2)

    def test_resolution_independence_on_demo(self, p112):
        xi = catalog.p112_demo_class(p112)
        r1 = resolve(p112)
        r2 = resolve(p112, rng=random.Random(41), extra_rounds=2)
        assert r1.fine != r2.fine
        assert chi(p112, xi, resolution=r1) == chi(p112, xi, resolution=r2)

    def test_seeded_resolutions_with_extra_rounds_agree(self, complete_corpus):
        """On P^2, F_2, P(1,1,2) and the cube, chi and the pairing with the
        first ray of a fixed class are the same through
        ``resolve(fan, rng=Random(s), extra_rounds=e)`` for e = 0..3, each
        extra round giving another fine fan."""
        for name in ("p2", "hirzebruch2", "p112", "cube"):
            fan = complete_corpus[name]
            f = random_cartier_combination(fan, line_bundle_classes(fan), random.Random(1301))
            for seed in (5, 17):
                resolutions = [resolve(fan, rng=random.Random(seed), extra_rounds=e) for e in range(4)]
                assert len({r.fine for r in resolutions}) == 4, (name, seed)
                values = {(chi(fan, f, resolution=r), kronecker_pair(fan, f, (0,), resolution=r))
                          for r in resolutions}
                assert len(values) == 1, (name, seed)

    def test_relabelled_fans_keep_chi_every_pairing_and_the_gkm_verdict(self, complete_corpus):
        """Relabelling invariance on the fixed complete corpus.  With the rays
        and the maximal cones permuted by a seeded draw, and a class's values
        and every face moved with them, chi, the pairing with every face and
        the ``gkm_validate`` verdict on the class and on a copy broken at one
        cone stay as they were, though ``resolve`` meets the cells of some
        relabelled fans in another order and resolves them otherwise."""
        rng = random.Random(20261020)
        reshaped = 0
        for name, fan in complete_corpus.items():
            rays, cones = list(range(len(fan.rays))), list(range(len(fan.maximal_cones)))
            rng.shuffle(rays), rng.shuffle(cones)
            where = {old: new for new, old in enumerate(rays)}
            moved = Fan.build(fan.rank, [fan.rays[i] for i in rays],
                              [[where[i] for i in fan.maximal_cones[c]] for c in cones])
            f = random_cartier_combination(fan, line_bundle_classes(fan), rng)
            moved_f = PiecewiseExponential.from_values(moved, [f.values[c] for c in cones])
            assert chi(moved, moved_f) == chi(fan, f), name
            for face in fan.faces:
                assert kronecker_pair(moved, moved_f, [where[i] for i in face]) == kronecker_pair(fan, f, face)
            broken = [f.values[0] + E((1,) + (0,) * (fan.rank - 1)), *f.values[1:]]
            verdicts = [(gkm_validate(moved, [values[c] for c in cones]).ok, gkm_validate(fan, values).ok)
                        for values in (f.values, broken)]
            assert verdicts == [(True, True), (False, False)], name
            fine, image = resolve(moved).fine, resolve(fan).fine
            reshaped += {frozenset(fine.rays[i] for i in c) for c in fine.maximal_cones} != {
                frozenset(image.rays[i] for i in c) for c in image.maximal_cones}
        assert reshaped > 0

    def test_unimodular_images_map_chi_by_the_inverse_transpose(self, complete_corpus):
        """GL_n(Z) invariance on the fixed complete corpus.  With the rays
        moved by a seeded unimodular A, two per fan, the fan resolves to a
        smooth complete fan, the Cartier data of k times the anticanonical
        class (the characters pairing to k with every ray of their cone)
        move by A^-T, and chi of that class, times e^u + 2e^w moved by A^-T,
        is chi on the original fan with its exponents mapped by A^-T.  On
        some moved fans ``resolve`` makes other choices than the image of
        the original's resolution, so this also compares two resolutions."""
        from test_lattice import random_unimodular

        def anticanonical(fan, k):
            exps = []
            for rs in fan.maximal_cones:
                m = solve_rational([fan.rays[i] for i in rs], [k] * len(rs))
                assert m is not None and all(x.denominator == 1 for x in m)
                exps.append(tuple(int(x) for x in m))
            return exps

        rng = random.Random(20261019)
        moved_shapes = 0
        for name, fan in [item for item in complete_corpus.items() for _ in range(2)]:
            a = random_unimodular(rng, fan.rank)
            det, adj = adjugate(a)  # det = +-1, so a^-1 = det * adj
            dual = transpose([vec_scale(det, row) for row in adj])
            moved = Fan.build(fan.rank, [mat_vec(a, r) for r in fan.rays], fan.maximal_cones)
            fine = resolve(moved).fine
            assert fine.is_smooth() and fine.is_complete(), name
            image = resolve(fan).fine
            moved_shapes += {frozenset(fine.rays[i] for i in c) for c in fine.maximal_cones} != {
                frozenset(mat_vec(a, image.rays[i]) for i in c) for c in image.maximal_cones}
            g = E(tuple(rng.randint(-2, 2) for _ in range(fan.rank)))
            g = g + E(tuple(rng.randint(-2, 2) for _ in range(fan.rank)), 2)
            for k in (1, 2):
                data = anticanonical(fan, k)
                moved_data = anticanonical(moved, k)
                assert moved_data == [mat_vec(dual, m) for m in data], name
                cls = from_cartier(fan, CartierData(tuple(data))).module_action(g)
                moved_cls = from_cartier(moved, CartierData(tuple(moved_data)))
                got = chi(moved, moved_cls.module_action(g.map_exponents(dual)))
                assert got == chi(fan, cls).map_exponents(dual), (name, k)
        assert moved_shapes > 0

    def test_not_complete(self):
        fan = catalog.singular_quadric_cone_fan()
        with pytest.raises(NotComplete):
            chi(fan, PiecewiseExponential.constant(fan, 1))


QUADRANT = Fan.build(2, [(1, 0), (0, 1)], [(0, 1)])


@pytest.mark.parametrize("call, error, message", [
    (lambda p1, p2: chi(p2, PiecewiseExponential.constant(p2, 1), resolution=resolve(p1)),
     ValueError, "resolution does not refine the given fan"),
    (lambda p1, p2: chi(p2, PiecewiseExponential.constant(p1, 1)),
     ValueError, "class does not live on the given fan"),
    (lambda p1, p2: gram_matrix(p2, [PiecewiseExponential.constant(p1, 1)], [()]),
     ValueError, "class does not live on the given fan"),
    (lambda p1, p2: gram_matrix(QUADRANT, [PiecewiseExponential.constant(QUADRANT, 1)], [()]),
     NotComplete, "the pairing needs a complete fan"),
    (lambda p1, p2: chi(QUADRANT, PiecewiseExponential.constant(QUADRANT, 1)),
     NotComplete, "the pairing needs a complete fan"),
    (lambda p1, p2: chi(QUADRANT, PiecewiseExponential.constant(p2, 1)),
     ValueError, "class does not live on the given fan"),
    (lambda p1, p2: decompose(PiecewiseExponential.constant(p2, 1), [PiecewiseExponential.constant(p1, 1)]),
     ValueError, "basis functions live on a different fan"),
    # a resolution whose fine fan lost a cone of P^2
    (lambda p1, p2: chi(p2, PiecewiseExponential.constant(p2, 1),
                        resolution=SubdivisionMap(Fan.build(2, p2.rays, p2.maximal_cones[:2]), p2, (0, 1))),
     NotComplete, "localization needs a complete fan"),
], ids=["foreign-resolution", "chi-foreign-class", "gram-foreign-class", "gram-incomplete",
        "chi-incomplete", "chi-foreign-class-on-incomplete", "decompose-foreign-basis",
        "chi-incomplete-resolution"])
def test_arguments_on_another_fan_are_refused(p1, p2, call, error, message):
    with pytest.raises((ValueError, NotComplete)) as exc:
        call(p1, p2)
    assert (type(exc.value), str(exc.value)) == (error, message)


def p1_cubed_over_the_cube(cube):
    """The eight octants of (P^1)^3 passed as a refinement of the cube fan,
    each assigned the cube cone over the face x = +-1 of its x-sign: a
    smooth complete fan, but not a subdivision of the cube fan."""
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rays = units + [tuple(-x for x in e) for e in units]
    octants = Fan.build(3, rays, [tuple(i + 3 * s for i, s in enumerate(signs))
                                  for signs in itertools.product((0, 1), repeat=3)])
    side = {s: cube.maximal_cones.index(cube.rayset_from_vectors([(s, a, b) for a in (1, -1) for b in (1, -1)]))
            for s in (1, -1)}
    return SubdivisionMap(octants, cube, tuple(side[1 if 0 in c else -1] for c in octants.maximal_cones))


def swapped_cube_resolution(cube):
    """``resolve(cube)`` with the assignments of its first fine cones in
    coarse cones 0 and 1 swapped."""
    sub = resolve(cube)
    assignment = list(sub.assignment)
    i, j = assignment.index(0), assignment.index(1)
    assignment[i], assignment[j] = assignment[j], assignment[i]
    return SubdivisionMap(sub.fine, cube, tuple(assignment))


class TestHandBuiltMaps:
    """A map built in Python is checked once, as ``SubdivisionMap.from_json``
    checks a map it reads, before a pairing, ``pullback`` or ``descend``
    reads it; the maps the package builds are never checked again."""

    @pytest.mark.parametrize("build, message", [
        (p1_cubed_over_the_cube, "fine cone 0 does not lie in its coarse cone 0"),
        (swapped_cube_resolution, "fine cone 0 does not lie in its coarse cone 1"),
    ], ids=["p1-cubed", "swapped-assignment"])
    def test_a_map_that_is_no_subdivision_is_refused(self, cube, build, message):
        # the (P^1)^3 map gave chi = e^(-1,0,0) + 1 + e^(1,0,0), a 3-term
        # value where the true one has 7; the swapped one raised NotPolynomial
        octahedron = line_bundle_classes(cube)[1]
        calls = [lambda sub: chi(cube, octahedron, resolution=sub),
                 lambda sub: gram_matrix(cube, [octahedron], [()], resolution=sub),
                 lambda sub: pullback(octahedron, sub),
                 lambda sub: descend(PiecewiseExponential.constant(sub.fine, 1), sub),
                 lambda sub: SubdivisionMap.from_json(sub.to_json())]
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call(build(cube))
            assert (type(exc.value), str(exc.value)) == (ValueError, message)

    def test_only_a_hand_built_map_runs_the_check(self, cube, monkeypatch):
        checked = []
        check = fan_module._check_subdivision
        monkeypatch.setattr(fan_module, "_check_subdivision", lambda sub: checked.append(sub) or check(sub))
        octahedron = line_bundle_classes(cube)[1]
        built = [resolve(cube), resolve(cube, rng=random.Random(3), extra_rounds=2),
                 stellar_subdivision(cube, (1, 1, 0)), SubdivisionMap.identity(catalog.p1_times_p1())]
        for sub in built:
            f = octahedron if sub.coarse == cube else PiecewiseExponential.constant(sub.coarse, 1)
            if sub.fine.is_smooth():
                chi(sub.coarse, f, resolution=sub)
            assert descend(pullback(f, sub), sub) == f
        assert checked == []
        sub = built[0]
        by_hand = SubdivisionMap(sub.fine, sub.coarse, sub.assignment)
        assert chi(cube, octahedron, resolution=by_hand) == chi(cube, octahedron, resolution=sub)
        square = octahedron * octahedron
        assert chi(cube, square, resolution=by_hand) == chi(cube, square, resolution=sub)
        assert descend(pullback(octahedron, by_hand), by_hand) == octahedron
        assert checked == [by_hand]


class TestKroneckerPair:
    def test_unit_at_origin(self, complete_corpus):
        for name, fan in complete_corpus.items():
            one = PiecewiseExponential.constant(fan, 1)
            assert kronecker_pair(fan, one, ()) == LaurentPoly.one(fan.rank), name

    def test_unit_pairs_augment_to_one(self, p112):
        one = PiecewiseExponential.constant(p112, 1)
        res = resolve(p112)
        for face in p112.faces:
            assert augmentation(kronecker_pair(p112, one, face, resolution=res)) == 1

    def test_hand_derived_gram_entries(self, p112):
        """Frozen oracle values computed by hand from the localization sum on
        the four-cone resolution (see the decisions notes)."""
        unit, divisor, point = catalog.p112_spanning_classes(p112)
        tau_d = p112.rayset_from_vectors([(-1, -2)])
        sigma_p = p112.rayset_from_vectors([(1, 0), (-1, -2)])
        res = resolve(p112)
        pair = lambda f, t: kronecker_pair(p112, f, t, resolution=res)
        one = LaurentPoly.one(2)
        assert pair(unit, ()) == one
        assert pair(unit, tau_d) == one
        assert pair(unit, sigma_p) == one
        assert pair(divisor, ()) == poly(2, {(1, 0): -1, (2, 0): -1, (0, 1): -1})
        assert pair(divisor, tau_d) == poly(2, {(0, 0): 1, (2, 0): -1, (0, 1): -1})
        assert pair(divisor, sigma_p) == one - E((0, 1))
        assert pair(point, ()) == poly(2, {(-1, 1): 1, (-2, 2): 1})
        assert pair(point, tau_d) == poly(2, {(-2, 1): -1, (-2, 2): 1})
        assert pair(point, sigma_p) == (one - E((0, 1))) * (one - E((-2, 1)))

    def test_point_pairing_is_the_value_at_the_cone(self, p112):
        # <f, [O_point]> equals the class's value on the corresponding cone
        rng = random.Random(13)
        sigma_p = p112.rayset_from_vectors([(1, 0), (-1, -2)])
        res = resolve(p112)
        classes = [catalog.p112_demo_class(p112), *catalog.p112_spanning_classes(p112)]
        for _ in range(8):
            f = classes[rng.randrange(len(classes))]
            idx = p112.maximal_cones.index(sigma_p)
            assert kronecker_pair(p112, f, sigma_p, resolution=res) == f.values[idx]

    def test_bilinearity_and_additivity(self, p112):
        xi = catalog.p112_demo_class(p112)
        unit, divisor, point = catalog.p112_spanning_classes(p112)
        res = resolve(p112)
        tau = p112.rayset_from_vectors([(-1, -2)])
        g = E((1, -2))
        lhs = kronecker_pair(p112, xi.module_action(g), tau, resolution=res)
        assert lhs == g * kronecker_pair(p112, xi, tau, resolution=res)
        both = kronecker_pair(p112, xi + divisor, tau, resolution=res)
        assert both == kronecker_pair(p112, xi, tau, resolution=res) + kronecker_pair(
            p112, divisor, tau, resolution=res
        )

    def test_strict_transform_choice_does_not_matter(self, p112):
        # the singular maximal cone contains two full-dimensional fine cones;
        # pairing against either point class gives the same answer
        res = resolve(p112)
        fine = res.fine
        sigma_p = p112.maximal_cones[1]
        coarse_cone = p112.cone_objects[1]
        candidates = [
            c for c in fine.maximal_cones
            if all(coarse_cone.contains(fine.rays[i]) for i in c)
        ]
        assert len(candidates) == 2
        xi = catalog.p112_demo_class(p112)
        lifted_values = {}
        from pexpfan.pexp import pullback

        lifted = pullback(xi, res)
        results = []
        for cand in candidates:
            orbit = orbit_closure_class(fine, cand)
            results.append(
                euler_characteristic(fine, [n * v for n, v in zip(orbit, lifted.values)])
            )
        assert results[0] == results[1]
        assert results[0] == kronecker_pair(p112, xi, sigma_p, resolution=res)

    @pytest.mark.parametrize("rayset", [(), (0, 2)], ids=["origin", "singular-cone"])
    def test_non_smooth_resolution_is_refused(self, p112, rayset):
        # (0, 2) is the cone on (1, 0) and (-1, -2), of multiplicity 2
        unit = catalog.p112_spanning_classes(p112)[0]
        with pytest.raises(NotSmooth):
            kronecker_pair(p112, unit, rayset, resolution=SubdivisionMap.identity(p112))

    def test_chi_decomposes_against_column(self, p112):
        # chi is the pairing against the origin; expanding in the spanning
        # classes must reproduce it R(T)-bilinearly
        xi = catalog.p112_demo_class(p112)
        spans = catalog.p112_spanning_classes(p112)
        coeffs = decompose(xi, spans)
        res = resolve(p112)
        acc = LaurentPoly.zero(2)
        for c, g in zip(coeffs, spans):
            acc = acc + c * kronecker_pair(p112, g, (), resolution=res)
        assert acc == chi(p112, xi, resolution=res)


class TestGramMatrix:
    def test_unit_against_origin(self, p1):
        m = gram_matrix(p1, [PiecewiseExponential.constant(p1, 1)], [()])
        assert m.entries == ((LaurentPoly.one(1),),)

    def test_empty(self, p1):
        m = gram_matrix(p1, [], [])
        assert m.entries == ()

    def test_no_orbit_class(self, p112, monkeypatch):
        # every entry is a star sum, so no Koszul numerator is built
        orbits = []
        orbit = ktheory.orbit_closure_class
        monkeypatch.setattr(ktheory, "orbit_closure_class", lambda *a: orbits.append(a) or orbit(*a))
        spans = catalog.p112_spanning_classes(p112)[:2]
        gram_matrix(p112, spans, catalog.p112_duality_cones(p112))
        assert orbits == []

    def test_one_weight_read_per_fine_cone(self, monkeypatch):
        """The weights of a smooth full-dimensional cone are its scaled
        inverse, which a lower-dimensional cone computes for its facets.  A
        2x2 Gram through the 48-cone resolution of the cube computes the
        weights of each fine cone exactly once and of no other
        full-dimensional cone (reading them per entry made 108 reads), and a
        following chi on the same fine fan computes no scaled inverse."""
        cube = catalog.cube_fan()
        resolution = resolve(cube)
        fine = resolution.fine.cone_objects
        computed, compute = [], Cone._scaled_inverse.func
        counting = cached_property(lambda cone: computed.append(cone) or compute(cone))
        counting.__set_name__(Cone, "_scaled_inverse")
        monkeypatch.setattr(Cone, "_scaled_inverse", counting)
        classes = [PiecewiseExponential.constant(cube, c) for c in (1, 2)]
        gram_matrix(cube, classes, [(), (cube.rays.index((1, 1, 1)),)], resolution=resolution)
        assert len(resolution.fine.maximal_cones) == len(fine) == 48
        weights = [cone for cone in computed if cone.dim == 3]
        assert len(weights) == len({id(c) for c in weights}) == 48
        assert {id(c) for c in weights} == {id(c) for c in fine}
        before = len(computed)
        assert chi(cube, classes[1], resolution=resolution) == 2 * LaurentPoly.one(3)
        assert len(computed) == before

    def test_kronecker_pair_is_a_one_by_one_gram(self, p112, monkeypatch):
        calls, gram = [], ktheory.gram_matrix
        monkeypatch.setattr(ktheory, "gram_matrix", lambda *a, **kw: calls.append(a) or gram(*a, **kw))
        unit = catalog.p112_spanning_classes(p112)[0]
        assert kronecker_pair(p112, unit, ()) == LaurentPoly.one(2)
        assert calls == [(p112, [unit], [()])]

    def test_p112_determinant(self, p112):
        spans = catalog.p112_spanning_classes(p112)
        cones = catalog.p112_duality_cones(p112)
        m = gram_matrix(p112, spans, cones)
        det = poly_det([list(r) for r in m.entries], 2)
        assert det == LaurentPoly.one(2) + E((1, 0))
        assert not det.is_unit()
        assert augmentation(det) == 2


def divisor_classes(fan):
    """The line-bundle classes of the torus-invariant prime divisors of a
    smooth complete fan: at a cone holding the ray, the weight dual to it;
    0 at every other cone."""
    classes = []
    for ray in fan.rays:
        exps = tuple(
            tangent_weights(cone)[cone.generators.index(ray)] if ray in cone.generators
            else (0,) * fan.rank
            for cone in fan.cone_objects
        )
        classes.append(from_cartier(fan, CartierData(exps)))
    return classes


SMOOTH_FANS = {
    "p1": catalog.projective_line,
    "p2": catalog.projective_plane,
    "p1xp1": catalog.p1_times_p1,
    "f2": lambda: catalog.hirzebruch(2),
    "p3": lambda: catalog.projective_space(3),
    "cube-48": lambda: resolve(catalog.cube_fan()).fine,
}


class TestStarSum:
    """Every pairing is the star sum over its face; the oracle is the Koszul
    round trip, the orbit class's numerators times the values, summed over
    every fixed point."""

    @pytest.mark.parametrize("name", SMOOTH_FANS)
    def test_pairings_match_the_koszul_round_trip(self, name):
        fan = SMOOTH_FANS[name]()
        rng = random.Random(1301)
        cartiers = [PiecewiseExponential.constant(fan, 1), *divisor_classes(fan)]
        functions = [random_cartier_combination(fan, cartiers, rng) for _ in range(2)]
        gram = gram_matrix(fan, functions, fan.faces)
        for f, row in zip(functions, gram.entries):
            for face, entry in zip(fan.faces, row):
                orbit = orbit_closure_class(fan, face)
                assert entry == euler_characteristic(fan, [n * v for n, v in zip(orbit, f.values)])
            face = rng.choice(fan.faces)
            assert kronecker_pair(fan, f, face) == row[fan.faces.index(face)]


CATALOG_FANS = {
    "p1": catalog.projective_line,
    "p2": catalog.projective_plane,
    "p3": lambda: catalog.projective_space(3),
    "p1xp1": catalog.p1_times_p1,
    "f2": lambda: catalog.hirzebruch(2),
    "p112": catalog.weighted_p112,
    "cube": catalog.cube_fan,
    "quadric-cone": catalog.singular_quadric_cone_fan,
    "rank3-mult3": catalog.rank3_multiplicity3_fan,
}


def four_cube_fan():
    """The face fan of the 4-cube: rays (+-1, +-1, +-1, +-1), a cone over
    each 3-cube."""
    vertices = list(itertools.product((-1, 1), repeat=4))
    return Fan.build(4, vertices, [tuple(i for i, v in enumerate(vertices) if v[a] == s)
                                   for a in range(4) for s in (-1, 1)])


def line_bundle_classes(fan):
    """The unit and some line-bundle classes of a catalog fan: the divisor
    classes of a smooth complete fan, the spanning classes of P(1,1,2), and
    the octahedron class of the cube (at the cone over a face of the cube,
    minus the face's outer normal)."""
    unit = PiecewiseExponential.constant(fan, 1)
    if fan.is_complete() and fan.is_smooth():
        return [unit, *divisor_classes(fan)]
    if fan == catalog.weighted_p112():
        return [unit, *catalog.p112_spanning_classes(fan)]
    if fan == catalog.cube_fan():
        return [unit, catalog.octahedron_class(fan)]
    return [unit]


class TestChiIsTheZeroConePairing:
    """chi(f) = <f, [O_{V(0)}]> by one path; the oracle is the localization
    sum of the values pulled back to the resolution."""

    @pytest.mark.parametrize("name", CATALOG_FANS)
    def test_on_every_catalog_fan(self, name):
        fan = CATALOG_FANS[name]()
        f = random_cartier_combination(fan, line_bundle_classes(fan), random.Random(1301))
        if not fan.is_complete():
            for call in (lambda: chi(fan, f), lambda: kronecker_pair(fan, f, ())):
                with pytest.raises(NotComplete, match="^the pairing needs a complete fan$"):
                    call()
            return
        r = resolve(fan)
        expected = euler_characteristic(r.fine, pullback(f, r).values)
        assert chi(fan, f, resolution=r) == kronecker_pair(fan, f, (), resolution=r) == expected

    def test_on_a_seeded_cube_resolution_with_one_gram(self, cube, monkeypatch):
        r = resolve(cube, rng=random.Random(20261017))
        f = random_cartier_combination(cube, line_bundle_classes(cube), random.Random(1301))
        calls, gram = [], ktheory.gram_matrix
        monkeypatch.setattr(ktheory, "gram_matrix", lambda *a, **kw: calls.append(a) or gram(*a, **kw))
        value = chi(cube, f, resolution=r)
        assert calls == [(cube, [f], [()])]
        assert value == kronecker_pair(cube, f, (), resolution=r)
        assert value == euler_characteristic(r.fine, pullback(f, r).values)


class TestPairingSeries:
    """A pairing sums one fraction per coarse cone whose fine cones fold into
    its series (``ktheory._pairing_series``), cached on the resolution; the
    oracle is the star sum with one term per fine cone, folded greedily
    (``oracles.star_sum_ungrouped``)."""

    @pytest.mark.parametrize("name", ["p1", "p2", "p1xp1", "hirzebruch2", "p112", "cube"])
    def test_grouped_sums_match_the_ungrouped_fold(self, name, complete_corpus):
        fan = complete_corpus[name]
        rng = random.Random(20261020)
        folded = 0
        for rounds in range(3):
            r = resolve(fan, rng=random.Random(rounds), extra_rounds=rounds)
            f = random_cartier_combination(fan, line_bundle_classes(fan), rng)
            for face in fan.faces:
                assert kronecker_pair(fan, f, face, resolution=r) == star_sum_ungrouped(r, f, face), (rounds, face)
                folded += sum(num is not None for _, num, _ in ktheory._pairing_series(r, face)[1])
        # extra rounds split the smooth cones, whose series is one term; the
        # cones of P^1 are rays, which no round splits
        assert folded > 0 or name == "p1"

    @pytest.mark.parametrize("name", ["p1", "p2", "p1xp1", "hirzebruch2", "p112", "cube"])
    def test_the_compiled_plan_serves_every_class_in_either_order(self, name, complete_corpus):
        """Each face's plan is compiled by the first pairing there and run by
        every later one.  For the unit, a class vanishing on half the cones,
        a Koszul point class and two random combinations, at every face and
        through resolutions with 0-2 extra rounds, the pairings match the
        ungrouped fold, and are the same when the classes come in reverse
        order on a fresh resolution, whose plans the last class compiles."""
        fan = complete_corpus[name]
        rng = random.Random(20261020)
        n = len(fan.maximal_cones)

        def point(i):  # the Koszul factors of the facets of cone i, 0 elsewhere
            value = prod((LaurentPoly.one(fan.rank) - E(u) for u, _ in fan.cone_objects[i].facets),
                         start=LaurentPoly.one(fan.rank))
            zero = LaurentPoly.zero(fan.rank)
            return PiecewiseExponential.from_values(fan, [value if j == i else zero for j in range(n)])

        combinations = [random_cartier_combination(fan, line_bundle_classes(fan), rng) for _ in range(3)]
        half = sum((point(i) for i in range(1, n // 2 + 1)), PiecewiseExponential.constant(fan, 0))
        classes = [PiecewiseExponential.constant(fan, 1), combinations[0] * half, point(0), *combinations[1:]]
        assert any(v.is_zero() for v in classes[1].values) and not all(v.is_zero() for v in classes[1].values)
        for rounds in range(3):
            runs = []
            for order in (classes, classes[::-1]):
                r = resolve(fan, rng=random.Random(rounds), extra_rounds=rounds)
                runs.append({(id(g), face): kronecker_pair(fan, g, face, resolution=r)
                             for g in order for face in fan.faces})
            assert runs[0] == runs[1]
            for g in classes:
                for face in fan.faces:
                    assert runs[0][id(g), face] == star_sum_ungrouped(r, g, face), (rounds, face)

    @pytest.mark.parametrize("qs", [(1, 2, 3), (2, 3, 5)])
    def test_chi_of_a_twisted_unit_on_a_weighted_projective_space(self, qs):
        """chi(e^m * unit) = e^m on P(1,q1,q2,q3) through a passed
        resolution: the first call builds the series, the others reuse them."""
        fan = catalog.weighted_projective_space(qs)
        r = resolve(fan)
        unit = PiecewiseExponential.constant(fan, 1)
        for m in ((0, 0, 0), (1, -2, 3), (-4, 0, 7)):
            assert chi(fan, unit.module_action(E(m)), resolution=r) == E(m)
        assert () in r.__dict__["_series"]

    def test_the_cube_folds_each_coarse_cone_into_four_terms(self, cube):
        r = resolve(cube)
        face, terms, plan = ktheory._pairing_series(r, ())
        assert face == () and [a for a, _, _ in terms] == list(range(6))
        assert {(len(num.terms), len(den)) for _, num, den in terms} == {(4, 4)}
        star = r.fine._star[()]
        across = [wall for wall in r.fine.star_walls(()) if len({r.assignment[star[q]] for q in wall[:2]}) == 2]
        assert len(across) == 24 == 2 * 12  # two fine walls across each edge of the cube
        assert len(plan.steps) == 5 and plan.rest == [0]  # the six series merge along them, no fallback

    def test_cube_resolutions_compile_one_chi_plan(self, cube):
        """The fine walls along a coarse wall all repeat its direction and
        count once, so the 48-cone, the 52-cone (``Random(99)``, 2 extra
        rounds) and the 128-cone (``Random(5)``, 40 extra rounds) resolutions
        of the cube fan compile the same merges of their six series for chi."""
        resolutions = [resolve(cube), resolve(cube, rng=random.Random(99), extra_rounds=2),
                       resolve(cube, rng=random.Random(5), extra_rounds=40)]
        assert [len(r.fine.maximal_cones) for r in resolutions] == [48, 52, 128]
        plans = []
        for r in resolutions:
            _, terms, plan = ktheory._pairing_series(r, ())
            assert [a for a, _, _ in terms] == list(range(6)) and plan.rest == [0]
            plans.append(plan.steps)
        assert len(plans[0]) == 5 and plans[0] == plans[1] == plans[2]

    @pytest.mark.parametrize("qs", [(2, 3, 5), (3, 5, 7)])
    def test_the_guard_keeps_wide_series_split(self, qs):
        """The cones of P(1,2,3,5) and P(1,3,5,7) predict more series terms
        than they have fine cones, so at the zero face every fine cone stays
        its own term.  At another face the guard reads each cone's image
        modulo the face: a group of two or more fine cones folds iff the
        image predicts no more terms than it has cones, and some do at the
        rays.  An image of dimension 2 is simplicial, its index the count of
        its parallelepiped points, so each folded series has as many terms
        as predicted."""
        fan = catalog.weighted_projective_space(qs)
        r = resolve(fan)
        rng = random.Random(1301)
        f = random_cartier_combination(fan, [PiecewiseExponential.constant(fan, 1)], rng)
        folded = 0
        for face in fan.faces:
            fine_face, terms, _ = ktheory._pairing_series(r, face)
            star = r.fine._star[fine_face]
            spanning = [r.fine.rays[i] for i in fine_face]
            size = {a: sum(r.assignment[i] == a for i in star) for a, _, _ in terms}
            predicted = {a: ktheory._series_size(fan.cone_objects[a], spanning, 10 ** 9) for a in size}
            assert face or all(predicted[a] > size[a] for a in size if size[a] > 1)
            for a, num, _ in terms:
                assert (num is not None) == (1 < size[a] and predicted[a] <= size[a]), (face, a)
                assert num is None or len(num.terms) == predicted[a]
                folded += num is not None
            assert len(terms) == len(star) - sum(size[a] - 1 for a, num, _ in terms if num is not None)
            assert kronecker_pair(fan, f, face, resolution=r) == star_sum_ungrouped(r, f, face)
        assert folded > 0

    def test_a_cone_with_dependent_facet_normals_predicts_its_zonotope(self, monkeypatch):
        """On the face fan of the 4-cube, rays (+-1, +-1, +-1, +-1) and a cone
        over each 3-cube, each cone has 6 facet normals, some 4 of them
        dependent, and at the zero face ``_series_size`` adds 0 for those: it
        is the sum of |det| over the 4-subsets, 24, below the 48 fine cones of
        each cone in the 384-cone resolution, so the unit's chi folds each
        group, and is 1.  At a ray and at a 2-face each cone's image modulo
        the face is smooth, so it predicts 1 and its group folds to N = 1, a
        unit +-e^m once its denominator's characters are made lexicographically
        positive, and the pairings equal those with ``_series_size`` made huge,
        which keeps every group split."""
        fan = four_cube_fan()
        r = resolve(fan)
        assert len(r.fine.maximal_cones) == 384
        for cone in fan.cone_objects:
            dets = [abs(det_expansion(rows)) for rows in itertools.combinations([u for u, _ in cone.facets], 4)]
            assert len(dets) == 15 and 0 in dets
            assert ktheory._series_size(cone, (), 10 ** 9) == sum(dets) == 24
        one = PiecewiseExponential.constant(fan, 1)
        assert chi(fan, one, resolution=r) == LaurentPoly.one(4)
        assert all(num is not None for _, num, _ in ktheory._pairing_series(r, ())[1])
        faces = [(0,), next(face for face in fan.faces if len(face) == 2)]
        f = random_cartier_combination(fan, [one], random.Random(1301))
        want = [kronecker_pair(fan, f, face, resolution=r) for face in faces]
        for face, count in zip(faces, (4, 3)):
            fine_face, terms, _ = ktheory._pairing_series(r, face)
            spanning = [r.fine.rays[i] for i in fine_face]
            assert len(terms) == count and all(len(num.terms) == 1 for _, num, _ in terms)
            assert {ktheory._series_size(fan.cone_objects[a], spanning, 10 ** 9) for a, _, _ in terms} == {1}
        monkeypatch.setattr(ktheory, "_series_size", lambda cone, face, bound: 10 ** 9)
        split = resolve(fan)
        assert [kronecker_pair(fan, f, face, resolution=split) for face in faces] == want
        assert all(num is None for face in faces for _, num, _ in ktheory._pairing_series(split, face)[1])

    @pytest.mark.parametrize("name", ["p1", "p2", "p1xp1", "hirzebruch2", "p112", "cube", "p1235", "p1357",
                                      "cube4"])
    def test_every_face_pairs_as_the_ungrouped_star_sum(self, name, complete_corpus):
        """At every face of the corpus, of P(1,2,3,5), of P(1,3,5,7) and of
        the face fan of the 4-cube, through the resolution without rng, a
        random class pairs as the star sum with one term per fine cone.  The
        4-cube's zero face is left to the unit's chi above: the ungrouped
        fold of its 384 terms takes minutes.  Its ray groups fold to N = 1."""
        if name in complete_corpus:
            fan = complete_corpus[name]
            classes = line_bundle_classes(fan)
        else:
            fan = {"p1235": lambda: catalog.weighted_projective_space((2, 3, 5)),
                   "p1357": lambda: catalog.weighted_projective_space((3, 5, 7)), "cube4": four_cube_fan}[name]()
            classes = [PiecewiseExponential.constant(fan, 1)]
        r = resolve(fan)
        f = random_cartier_combination(fan, classes, random.Random(20261020))
        for face in fan.faces:
            if face or name != "cube4":
                assert kronecker_pair(fan, f, face, resolution=r) == star_sum_ungrouped(r, f, face), face
        if name == "cube4":
            rays = [face for face in fan.faces if len(face) == 1]
            assert len(rays) == 16
            assert all(len(num.terms) == 1 for face in rays for _, num, _ in ktheory._pairing_series(r, face)[1])

    @pytest.mark.parametrize("name", ["p1", "p2", "p1xp1", "hirzebruch2", "p112", "cube"])
    def test_wall_normals_are_the_tangent_weights_off_the_wall(self, name, complete_corpus):
        """A series reads each star wall's direction from the normal the
        wall table stores, the inward normal of the wall's first cone: it is
        that cone's tangent weight at its ray off the other cone, the
        direction the series computed from the weights before, on every star
        wall of every face of the resolutions with 0-2 extra rounds."""
        fan = complete_corpus[name]
        walls = 0
        for rounds in range(3):
            fine = resolve(fan, rng=random.Random(rounds), extra_rounds=rounds).fine
            for face in fine.faces:
                star = fine._star[face]
                for q, r, u in fine.star_walls(face):
                    other = fine.maximal_cones[star[r]]
                    weights = zip(fine._generator_rays[star[q]], tangent_weights(fine.cone_objects[star[q]]))
                    assert [w for ray, w in weights if ray not in other] == [u], (rounds, face)
                    walls += 1
        assert walls > 0

    @pytest.mark.parametrize("name", ["p1", "p2", "p1xp1", "hirzebruch2", "p112", "cube", "p1235"])
    def test_group_folds_match_the_localization_sum_fold(self, name, complete_corpus, monkeypatch):
        """Each group's fold is compiled from its fine cones' weights, with no
        ``LocalizationSum``: its fraction, numerator and denominator, is the
        ``laurent._fold`` of the sum of unit numerators over those weights
        on the same walls, the fold it replaced, at every face through the
        resolutions with 0-2 extra rounds, and each folded term of the
        series holds that fraction."""
        fan = catalog.weighted_projective_space((2, 3, 5)) if name == "p1235" else complete_corpus[name]
        plans, plan = [], ktheory._Plan
        monkeypatch.setattr(ktheory, "_Plan", lambda *a: plans.append(a) or plan(*a))
        folded = 0
        for rounds in range(3):
            r = resolve(fan, rng=random.Random(rounds), extra_rounds=rounds)
            for face in fan.faces:
                plans.clear()
                _, terms, _ = ktheory._pairing_series(r, face)
                groups = [(num, den) for _, num, den in terms if num is not None]
                assert len(plans) == len(groups) + 1
                for (rank, group_terms, inner), (num, den) in zip(plans, groups):
                    one = LaurentPoly.one(rank)
                    want = laurent._fold(LocalizationSum.build(rank, [(one, d) for _, d in group_terms]), inner)
                    assert plan(rank, group_terms, inner).run([one] * len(group_terms)) == want
                    assert (num, sorted(den)) == (want[0], sorted(w for w, m in want[1].items() for _ in range(m)))
                    folded += 1
        assert folded > 0 or name in ("p1", "p1235")

    def test_a_marked_map_pairs_with_no_fine_completeness_check(self, complete_corpus, monkeypatch):
        """The maps of ``resolve``, ``stellar_subdivision``, ``identity`` and
        ``from_json`` over a complete fan are marked checked, and each fine
        fan is complete, as a subdivision of a complete fan is; so a
        pairing through a smooth one, marked, asks the fine fan no
        ``is_complete``, and gives what the same map built by hand gives,
        which asks it first: the localization sum of the pulled-back
        values."""
        maps = 0
        for name, fan in complete_corpus.items():
            cone = fan.cone_objects[0]
            subs = [*(resolve(fan, rng=random.Random(k), extra_rounds=k) for k in range(3)),
                    SubdivisionMap.identity(fan), SubdivisionMap.from_json(resolve(fan).to_json())]
            if len(cone.generators) > 1:
                subs.append(stellar_subdivision(fan, primitive_vector([sum(x) for x in zip(*cone.generators)])))
            f = random_cartier_combination(fan, line_bundle_classes(fan), random.Random(1301))
            for sub in subs:
                assert "_checked" in sub.__dict__ and sub.fine.is_complete(), name
                if not sub.fine.is_smooth():  # a stellar subdivision of a singular fan
                    continue
                want = euler_characteristic(sub.fine, pullback(f, sub).values)
                for marked in (True, False):
                    # a fresh fine fan, which is not the coarse fan even for the identity
                    fine = Fan.build(sub.fine.rank, sub.fine.rays, sub.fine.maximal_cones, validate=False)
                    s = SubdivisionMap(fine, sub.coarse, sub.assignment)
                    s = s._marked() if marked else s
                    asked, is_complete = [], Fan.is_complete
                    with monkeypatch.context() as m:
                        m.setattr(Fan, "is_complete", lambda self: asked.append(self) or is_complete(self))
                        assert chi(fan, f, resolution=s) == want, name
                    assert any(x is fine for x in asked) != marked, name
                maps += 1
        assert maps >= 30

    def test_a_second_call_folds_no_series(self, cube, monkeypatch):
        """The series and the strict transform are built on the first call:
        a second gram compiles no plan, for a group's fold or for a series'
        sum, and builds no cone."""
        r = resolve(cube, rng=random.Random(5), extra_rounds=2)
        classes = line_bundle_classes(cube)
        functions = [random_cartier_combination(cube, classes, random.Random(1301)), classes[1]]
        faces = [(), *cube.faces[1:3], cube.faces[-1]]
        plans, plan = [], ktheory._Plan
        monkeypatch.setattr(ktheory, "_Plan", lambda *a: plans.append(a) or plan(*a))
        cones, from_generators = [], Cone.from_generators
        monkeypatch.setattr(Cone, "from_generators", staticmethod(lambda *a: cones.append(a) or from_generators(*a)))
        first = gram_matrix(cube, functions, faces, resolution=r)
        # six group folds at the zero face, and one sum per face
        assert len(plans) >= 6 + len(faces) and len(cones) == 3
        plans.clear(), cones.clear()
        assert gram_matrix(cube, functions, faces, resolution=r) == first
        assert kronecker_pair(cube, functions[0], faces[1], resolution=r) == first.entries[0][1]
        assert plans == [] and cones == []


@cache
def random_complete_rank2_fans(count, seed):
    """The first ``count`` draws of ``random_complete_rank2_data`` that build
    a complete fan."""
    rng, fans = random.Random(seed), []
    while len(fans) < count:
        try:
            fan = Fan.build(*random_complete_rank2_data(rng))
        except PExpFanError:
            continue
        if fan.is_complete():
            fans.append(fan)
    return fans


WALL_MERGE_FANS = {
    "p1": catalog.projective_line,
    "p2": catalog.projective_plane,
    "p1xp1": catalog.p1_times_p1,
    "f2": lambda: catalog.hirzebruch(2),
    "p112": catalog.weighted_p112,
    "cube": catalog.cube_fan,
    **{f"rank2-{i}": lambda i=i: random_complete_rank2_fans(10, 20261019)[i] for i in range(10)},
}


class TestWallMerge:
    """Star sums merge along the walls of the star (``Fan.star_walls``).  The
    oracles fold the same sums greedily, and no answer may depend on the
    order of the maximal cones."""

    @pytest.mark.parametrize("name", WALL_MERGE_FANS)
    def test_chi_and_a_ray_pairing_match_the_greedy_folds(self, name):
        fine = resolve(WALL_MERGE_FANS[name]()).fine
        rng = random.Random(1301)
        f = random_cartier_combination(
            fine, [PiecewiseExponential.constant(fine, 1), *divisor_classes(fine)], rng)
        ray = rng.randrange(len(fine.rays))
        value, pairing = chi(fine, f), kronecker_pair(fine, f, (ray,))
        assert value == euler_characteristic(fine, f.values)
        koszul = [(n * v, tangent_weights(c))
                  for n, v, c in zip(orbit_closure_class(fine, (ray,)), f.values, fine.cone_objects)]
        assert pairing == reduce_localization_greedy(LocalizationSum.build(fine.rank, koszul))
        # the same class with the maximal cones, and their values, shuffled
        order = rng.sample(range(len(fine.maximal_cones)), len(fine.maximal_cones))
        shuffled = Fan.build(fine.rank, fine.rays, [fine.maximal_cones[i] for i in order])
        g = PiecewiseExponential.from_values(shuffled, [f.values[i] for i in order])
        assert chi(shuffled, g) == value
        assert kronecker_pair(shuffled, g, (ray,)) == pairing

    @pytest.mark.parametrize("name", [*WALL_MERGE_FANS, "p1235"])
    def test_directed_walls_fold_as_bare_pairs(self, name, monkeypatch):
        """Every series and every plan a pairing compiles carries each wall's
        direction, so a merge tries only the directions of the walls it
        joins and the fold cancels what is left at its end.  Each gives the
        fraction, numerator and denominator, of the same fold on the bare
        pairs, whose merges try every direction both denominators hold: for
        seeded line-bundle combinations, and for random sparse values, which
        are no class and leave a denominator.  At every face, through
        resolutions with 0 and 1 extra rounds."""
        fan = catalog.weighted_projective_space((2, 3, 5)) if name == "p1235" else WALL_MERGE_FANS[name]()
        rng = random.Random(20261020)
        pool = [LaurentPoly.zero(fan.rank), *(E(u, c) for u in itertools.product((-1, 0, 1), repeat=fan.rank)
                                              for c in (-1, 1))]
        plans, plan = [], ktheory._Plan
        monkeypatch.setattr(ktheory, "_Plan", lambda *a: plans.append(a) or plan(*a))
        narrowed = 0
        for rounds in range(2):
            r = resolve(fan, rng=random.Random(rounds), extra_rounds=rounds)
            for face in fan.faces:
                plans.clear()
                _, terms, compiled = ktheory._pairing_series(r, face)
                *groups, (rank, plan_terms, walls) = plans  # the groups' folds, then the sum's plan
                assert len(groups) == sum(num is not None for _, num, _ in terms)
                for group_rank, group_terms, inner in groups:
                    assert all(len(wall) == 3 for wall in inner)
                    ones = [LaurentPoly.one(group_rank)] * len(group_terms)
                    assert (plan(group_rank, group_terms, inner).run(ones)
                            == plan(group_rank, group_terms, [wall[:2] for wall in inner]).run(ones))
                bare = plan(rank, plan_terms, [wall[:2] for wall in walls])
                classes = [random_cartier_combination(fan, line_bundle_classes(fan), rng).values for _ in range(2)]
                noise = [[rng.choice(pool) + rng.choice(pool) for _ in fan.maximal_cones] for _ in range(8)]
                for values in (*classes, *noise):
                    numerators = [values[a] for a, _, _ in terms]
                    assert compiled.run(numerators) == bare.run(numerators), (rounds, face)
                narrowed += compiled.narrowed
        assert narrowed or name == "p1"

    def test_a_cancellation_no_joined_wall_allows_is_made_at_the_end(self):
        """On P^1 x P^1, cones 0, 1 and cones 2, 3 merge along their walls of
        direction (1, 0), then the two halves along those of direction
        (0, 1).  With the values 1, -e^(1,1), 0 and 1 + e^(-1,-1), which are
        no class, the last sum is divisible by 1 - e^(1,0) too, which that
        merge does not try: the fold's final cancel divides it, so the sum
        is refused for 1 - e^(0,1) alone, as the greedy fold refuses it."""
        fan = catalog.p1_times_p1()
        r = resolve(fan)
        _, terms, plan = ktheory._pairing_series(r, ())
        assert [(keep, gone) for keep, gone, _ in plan.steps] == [(0, 1), (2, 3), (0, 2)]
        assert [directions for _, _, directions in plan.steps] == [{(1, 0)}, {(1, 0)}, {(0, 1)}]
        one = LaurentPoly.one(2)
        values = [one, -E((1, 1)), LaurentPoly.zero(2), one + E((-1, -1))]
        numerators = [values[a] for a, _, _ in terms]
        unfinished = copy.copy(plan)
        unfinished.narrowed = False  # the same merges, with no final cancel
        assert unfinished.run(numerators)[1] == {(0, 1): 1, (1, 0): 1}
        assert plan.run(numerators)[1] == {(0, 1): 1}
        message = r"^localization sum is not polynomial: factor 1 - e\^\(0, 1\) does not divide$"
        with pytest.raises(NotPolynomial, match=message):
            ktheory._star_sum(r, values, ())
        with pytest.raises(NotPolynomial, match=message):
            reduce_localization_greedy(LocalizationSum.build(2, [
                (v, tangent_weights(c)) for v, c in zip(values, fan.cone_objects)]))

    @pytest.mark.parametrize("seed", [None, 3, 7])
    def test_the_rank3_fan_of_multiplicities_17_to_80(self, seed):
        """The six-cone fan found by the random rank-3 probe: the unit's chi
        is 1 on each of three resolutions."""
        fan = Fan.build(3, [(1, 3, 2), (-2, -3, -3), (3, 1, -3), (3, -2, 2), (-3, 0, 2)],
                        [(0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4)])
        assert sorted(c.multiplicity() for c in fan.cone_objects)[::5] == [17, 80]
        r = resolve(fan, rng=None if seed is None else random.Random(seed))
        assert chi(fan, PiecewiseExponential.constant(fan, 1), resolution=r) == LaurentPoly.one(3)

    def test_the_plan_is_cached_per_face(self, cube):
        fine = resolve(cube).fine
        assert fine.star_walls(()) is fine.star_walls(())
        # every wall of a complete fan lies in the star of the zero cone
        assert len(fine.star_walls(())) == len(fine.walls)

    def test_the_plan_is_read_through_require_face(self, p2):
        """An unsorted face has the plan of the sorted one; a cone that is
        not in the fan is refused."""
        assert p2.star_walls((2, 0)) == p2.star_walls((0, 2)) == star_walls_scan(p2, (0, 2))
        assert p2.star_walls((2, 0)) is p2.star_walls((0, 2))
        with pytest.raises(ConeNotInFan):
            p2.star_walls((0, 1, 2))

    def test_the_plans_match_the_wall_scan(self):
        """Every face's plan, read from the walls of its star's cones, is the
        scan over every wall of the fan, pair for pair and in order: on the
        fans of this class, seeded resolutions of them, the resolutions with
        their maximal cones shuffled, and two fans that are not complete."""
        rng = random.Random(20261019)
        fans = [Fan.build(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)]),
                Fan.build(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)], [(0, 1, 2), (0, 3), (1, 3)])]
        for make in WALL_MERGE_FANS.values():
            fan = make()
            fine = resolve(fan, rng=random.Random(3), extra_rounds=2).fine
            order = rng.sample(range(len(fine.maximal_cones)), len(fine.maximal_cones))
            fans += [fan, fine, Fan.build(fine.rank, fine.rays, [fine.maximal_cones[i] for i in order])]
        plans = 0
        for fan in fans:
            for face in fan.faces:
                plan = fan.star_walls(face)
                assert plan == star_walls_scan(fan, face), (fan, face)
                plans += bool(plan)
        assert plans > 500

    def test_the_walls_are_read_once_for_every_plan(self):
        """The plans of all faces of a 304-cone fan read the wall table once,
        where a scan per face read it for every face."""
        fine = resolve(Fan.build(2, [(1, 0), (1, 300), (-1, 0), (0, -1)],
                                 [(0, 1), (1, 2), (2, 3), (0, 3)])).fine
        reads = []

        class CountingWalls(dict):
            def values(self):
                reads.append(1)
                return super().values()

        walls = fine.walls
        fine.__dict__["walls"] = CountingWalls(walls)
        plans = [fine.star_walls(face) for face in fine.faces]
        assert len(fine.maximal_cones) == 304 and len(reads) == 1
        fine.__dict__["walls"] = walls
        assert plans == [star_walls_scan(fine, face) for face in fine.faces]


class TestPlanCompiler:
    """The compiler reads each distinct factor once and ``_merge_rounds``
    keeps its regions in lists (``laurent._Plan``): on every plan that the
    pairings of the complete corpus compile, they give what the loops they
    replaced gave (``merge_rounds_by_dicts``, ``plan_tables_by_occurrence``),
    and the last cancel, which tries only the deferred directions, gives
    what a cancel of every factor left gives."""

    @pytest.fixture(scope="class")
    def corpus_plans(self, complete_corpus):
        """(rank, terms, walls) of every plan that the series of the corpus
        compile, at every face, through resolutions with 0, 1 and 2 extra
        rounds, with the fan and its resolution."""
        plans, plan = [], ktheory._Plan
        with pytest.MonkeyPatch.context() as patch:
            for fan in complete_corpus.values():
                for rounds in range(3):
                    r = resolve(fan, rng=random.Random(rounds), extra_rounds=rounds)
                    patch.setattr(ktheory, "_Plan", lambda *a: plans.append((fan, r, a)) or plan(*a))
                    for face in fan.faces:
                        ktheory._pairing_series(r, face)
        return plans

    def test_merges_and_tables_match_the_replaced_loops(self, corpus_plans):
        assert len(corpus_plans) == 264
        for _, _, (rank, terms, walls) in corpus_plans:
            compiled = laurent._Plan(rank, terms, walls)
            steps, rest = merge_rounds_by_dicts(len(terms), walls)
            assert laurent._merge_rounds(len(terms), walls) == (steps, rest)
            assert compiled.rest == rest
            assert compiled.steps == [(keep, gone, None if None in joined else set(joined))
                                      for keep, gone, joined in steps]
            tables = (compiled.widening, compiled.order, compiled.top, compiled.reach)
            assert tables == plan_tables_by_occurrence(rank, terms)

    def test_the_last_cancel_tries_only_deferred_directions(self, corpus_plans, monkeypatch):
        """Each plan run on its series' numerators, or on random sparse
        values, which are no class, gives the fraction that the same merges
        give when the last cancel tries every factor left, with fewer
        refused divisions: 494 against 690 on these values."""
        calls = []
        divide = laurent._packed_divide

        def counted(f, ch):
            q = divide(f, ch)
            calls.append(q is not None)
            return q

        monkeypatch.setattr(laurent, "_packed_divide", counted)
        rng, refused = random.Random(20261021), [0, 0]
        for fan, r, (rank, terms, walls) in corpus_plans:
            compiled = laurent._Plan(rank, terms, walls)
            every = copy.copy(compiled)
            every.deferred = frozenset(compiled.direction.values())
            if all(num is None for num, _ in terms):  # a group's fold, run on units
                ones = [LaurentPoly.one(rank)] * len(terms)
                assert compiled.run(ones) == every.run(ones)
                continue
            pool = [LaurentPoly.zero(rank), *(E(u, c) for u in itertools.product((-1, 0, 1), repeat=rank)
                                              for c in (-1, 1))]
            for _ in range(2):
                numerators = [rng.choice(pool) + rng.choice(pool) for _ in terms]
                calls.clear()
                got = compiled.run(numerators)
                refused[0] += calls.count(False)
                calls.clear()
                assert got == every.run(numerators)
                refused[1] += calls.count(False)
        assert refused == [494, 690]

    def test_a_fold_defers_the_directions_its_merges_leave(self):
        """Each coarse cone of the cube folds its 8 fine cones along the
        walls inside it, and each merge tries only the directions of the
        walls it joins: two fine cones that share a factor and no wall defer
        its direction, so the 4 directions left in D_sigma are all deferred,
        and the last cancel refuses each once, the 24 refused divisions of
        a cold chi (``test_failed_divisions_of_one_chi``)."""
        r = resolve(catalog.cube_fan())
        plans, plan = [], ktheory._Plan
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ktheory, "_Plan", lambda *a: plans.append(plan(*a)) or plans[-1])
            _, terms, series = ktheory._pairing_series(r, ())
        *groups, last = plans
        assert last is series and len(groups) == 6
        for (_, num, den), fold in zip(terms, groups):
            assert fold.narrowed and len(den) == 4 and {primitive_vector(w) for w in den} <= fold.deferred


class TestDecompose:
    def test_lower_dimensional_maximal_cone_is_refused(self):
        fan = Fan.build(2, [(1, 0), (0, 1)], [(0,), (1,)])
        one = PiecewiseExponential.constant(fan, 1)
        with pytest.raises(NotFullDimensional):
            decompose(one, [one])

    def test_worked_decomposition(self, p112):
        xi = catalog.p112_demo_class(p112)
        spans = catalog.p112_spanning_classes(p112)
        coeffs = decompose(xi, spans)
        assert coeffs == (
            poly(2, {(1, 0): 1, (0, 1): 1}),
            poly(2, {(-2, 1): 1, (-1, 0): 1}),
            poly(2, {(0, 0): 1, (1, -1): 1}),
        )

    def test_basis_element(self, p112):
        spans = catalog.p112_spanning_classes(p112)
        coeffs = decompose(spans[0], spans)
        assert coeffs == (LaurentPoly.one(2), LaurentPoly.zero(2), LaurentPoly.zero(2))

    def test_unit_coefficient_is_integral(self, p1):
        one = PiecewiseExponential.constant(p1, 1)
        basis = [one.module_action(E((1,)))]
        assert decompose(one, basis) == (E((-1,)),)

    def test_constant_two_is_not_integral(self, p1):
        one = PiecewiseExponential.constant(p1, 1)
        with pytest.raises(NotIntegral):
            decompose(one, [PiecewiseExponential.constant(p1, 2)])

    def test_dependent_basis(self, p1):
        one = PiecewiseExponential.constant(p1, 1)
        with pytest.raises(DependentBasis):
            decompose(one, [one, one])

    def test_not_in_span(self, p1):
        cls = catalog.p1_degree_class(p1, 1)
        with pytest.raises(NotInSpan):
            decompose(cls, [PiecewiseExponential.constant(p1, 1)])

    def test_empty_basis_spans_only_zero(self, p1):
        # k = 0 runs the Cramer path: the empty subsystem has determinant 1
        assert decompose(PiecewiseExponential.constant(p1, 0), []) == ()
        with pytest.raises(NotInSpan, match="^no solution: equation on maximal cone 0 fails$"):
            decompose(PiecewiseExponential.constant(p1, 1), [])

    @pytest.mark.parametrize("specialized", [True, False], ids=["specialized", "exact-only"])
    def test_basis_rows_match_the_subset_search(self, specialized, monkeypatch):
        """The rows ``decompose`` solves on, and their determinant, are the
        first k-subset with a nonzero determinant, as the search over every
        subset found them, or neither has any: on seeded random systems over
        Z[M] of 0-6 rows and 0-4 columns, with rows repeated, zero or
        combinations of others, and with fewer rows than columns.  With the
        specialization into Z made blind, every row is decided by the exact
        elimination over Z[M] alone, with the same rows chosen.

        First, on systems whose row 0 goes to 0 in Z while it is not 0:
        e^{e1} - 2, and 1 - e^{(-2,0,1)}, whose row is shifted by e^{(2,0,0)}
        to e^{(2,0,0)} - e^{(0,0,1)}, with 4 = 2^2.  Rows 1 and 2 are then
        pivots of the images, yet row 1 is dependent on row 0, so a pivot
        after a chosen non-pivot must take the exact test."""
        if not specialized:
            monkeypatch.setattr(ktheory, "_specialized", lambda row: [0] * len(row))
        one, zero = LaurentPoly.one, LaurentPoly.zero
        for rank, kill in ((1, E((1,)) - LaurentPoly.constant(1, 2)), (3, one(3) - E((-2, 0, 1)))):
            assert ktheory._specialized([kill, zero(rank)]) == [0, 0]
            for k in (2, 3):
                rows = [[kill] + [zero(rank)] * (k - 1)] + [[one(rank) if j == i else zero(rank)
                                                             for j in range(k)] for i in range(k)]
                want = ((0,) + tuple(range(2, k + 1)), kill)
                assert ktheory._basis_rows(rows, k, rank) == basis_rows_by_subsets(rows, k, rank) == want
        rng = random.Random(20261019)

        def entry(rank):
            return poly(rank, {tuple(rng.randint(-1, 1) for _ in range(rank)): rng.randint(-2, 2)
                               for _ in range(rng.randint(0, 2))})

        kinds = []
        for _ in range(400):
            rank, k, n = rng.randint(1, 2), rng.randint(0, 4), rng.randint(0, 6)
            rows = []
            for _ in range(n):
                kind = rng.choice(("random", "random", "zero", "copy", "combination"))
                if kind == "zero" or (kind != "random" and not rows):
                    rows.append([LaurentPoly.zero(rank)] * k)
                elif kind == "copy":
                    rows.append(list(rng.choice(rows)))
                elif kind == "combination":
                    a, b, x, y = rng.choice(rows), rng.choice(rows), entry(rank), entry(rank)
                    rows.append([x * s + y * t for s, t in zip(a, b)])
                else:
                    rows.append([entry(rank) for _ in range(k)])
            want = basis_rows_by_subsets(rows, k, rank)
            try:
                got = ktheory._basis_rows(rows, k, rank)
            except DependentBasis:
                got = None
            assert got == want, (rows, k)
            kinds.append((n < k, want is None, want is not None and want[0] != tuple(range(k))))
        assert kinds.count((True, True, False)) > 20 and kinds.count((False, True, False)) > 20
        assert kinds.count((False, False, True)) > 30 and kinds.count((False, False, False)) > 30

    def test_a_repeated_row_takes_no_exact_test(self, monkeypatch):
        """A row equal to an earlier one, chosen or rejected, is skipped
        before any test: with the specialization into Z made blind, rows 0,
        1, 4 and 5 take one ``matrix_rank`` each and the copies 2 and 3
        none, and the rows chosen are those the subset search finds."""
        monkeypatch.setattr(ktheory, "_specialized", lambda row: [0] * len(row))
        calls, rank_of = [], ktheory.matrix_rank
        monkeypatch.setattr(ktheory, "matrix_rank", lambda m: calls.append(len(m)) or rank_of(m))
        one, zero, x = LaurentPoly.one(1), LaurentPoly.zero(1), E((1,))
        rows = [[zero, zero], [one, x], [zero, zero], [one, x], [x, x * x], [one, one]]
        got = ktheory._basis_rows(rows, 2, 1)
        assert got == basis_rows_by_subsets(rows, 2, 1) and got[0] == (1, 5)
        assert calls == [1, 1, 2, 2]

    def test_the_specialization_is_a_ring_map(self):
        """Each row's image in Z is an integer vector: its image under the
        ring map e^m -> prod (i + 2)^m_i into Q times one nonzero factor per
        row, the image of the unit that clears its negative exponents; that
        map takes products and differences to theirs."""
        rng = random.Random(7)

        def entry():
            return poly(3, {tuple(rng.randint(-3, 3) for _ in range(3)): rng.randint(-5, 5)
                            for _ in range(rng.randint(0, 4))})

        def image(f):
            return sum(c * Fraction(2) ** a * Fraction(3) ** b * Fraction(4) ** d for (a, b, d), c in f.terms)

        for _ in range(200):
            f, g = entry(), entry()
            assert image(f * g) == image(f) * image(g) and image(f - g) == image(f) - image(g)
            row = [entry() for _ in range(rng.randint(0, 4))] + [f * g, f - g]
            got = ktheory._specialized(row)
            assert all(type(x) is int for x in got)
            scale = {x / image(e) for x, e in zip(got, row) if image(e)}
            assert len(scale) <= 1 and 0 not in scale
            assert all(x == 0 for x, e in zip(got, row) if not image(e))
        assert ktheory._specialized([LaurentPoly.one(3), LaurentPoly.zero(3)]) == [1, 0]
        assert ktheory._specialized([E((-1, 0, 2)), E((1, -1, 0))]) == [48, 4]

    @pytest.mark.parametrize("k", [4, 16])
    def test_a_dependent_basis_is_refused_without_a_subset_search(self, k, monkeypatch):
        # the unit over k copies of the unit on the 48-cone cube resolution:
        # C(48, 4) = 194,580 subsets to search at k = 4, and a 16 x 16
        # cofactor expansion of 16! terms for rows 0..15 alone at k = 16;
        # one elimination per row refuses it, with no determinant expanded
        fine = resolve(catalog.cube_fan()).fine
        one = PiecewiseExponential.constant(fine, 1)
        fine.is_complete()
        calls = []
        monkeypatch.setattr(ktheory, "poly_det", lambda m, rank: calls.append(len(m)) or poly_det(m, rank))
        start = time.perf_counter()
        with pytest.raises(DependentBasis, match="^basis values are linearly dependent over Z\\[M\\]$"):
            decompose(one, [one] * k)
        assert time.perf_counter() - start < 1
        assert calls == []

    def test_reexpansion_roundtrip(self, p112):
        rng = random.Random(17)
        spans = catalog.p112_spanning_classes(p112)
        for _ in range(10):
            coeffs = [
                poly(2, {tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(-3, 3)
                         for _ in range(rng.randint(0, 2))})
                for _ in spans
            ]
            f = PiecewiseExponential.constant(p112, 0)
            for c, g in zip(coeffs, spans):
                f = f + g.module_action(c)
            recovered = decompose(f, spans)
            rebuilt = PiecewiseExponential.constant(p112, 0)
            for c, g in zip(recovered, spans):
                rebuilt = rebuilt + g.module_action(c)
            assert rebuilt == f


class TestDualBasisSolve:
    def test_no_cones_gives_no_functions(self, p1):
        assert dual_basis_solve(p1, [], []) == ()

    def test_unit_against_origin(self, p1):
        out = dual_basis_solve(p1, [()], [PiecewiseExponential.constant(p1, 1)])
        assert out == (PiecewiseExponential.constant(p1, 1),)

    def test_line_pair(self, p1):
        spanning = [PiecewiseExponential.constant(p1, 1), catalog.p1_degree_class(p1, 1)]
        duals = dual_basis_solve(p1, [(), (0,)], spanning)
        # hand-solved: dual of the fundamental class and of the fixed point
        assert duals[0].values == (LaurentPoly.zero(1), LaurentPoly.one(1) - E((-1,)))
        assert duals[1].values == (LaurentPoly.one(1), E((-1,)))

    def test_p112_duals_have_identity_gram(self, p112):
        spans = catalog.p112_spanning_classes(p112)
        cones = catalog.p112_duality_cones(p112)
        duals = dual_basis_solve(p112, cones, spans)
        m = gram_matrix(p112, duals, cones)
        one, zero = LaurentPoly.one(2), LaurentPoly.zero(2)
        assert m.entries == (
            (one, zero, zero),
            (zero, one, zero),
            (zero, zero, one),
        )
        for g in duals:
            assert gkm_validate(p112, g.values).ok

    def test_non_integral_dual(self, p1):
        # unit + point class pairs to 2 with the fundamental class, so its
        # dual is half of it, and 2 - e^w on cone 0 is not divisible by 2
        point = PiecewiseExponential.from_values(p1, orbit_closure_class(p1, (0,)))
        spanning = PiecewiseExponential.constant(p1, 1) + point
        assert gram_matrix(p1, [spanning], [()]).entries == ((2 * LaurentPoly.one(1),),)
        with pytest.raises(NotIntegral, match="dual function 0 has a non-integral value on cone 0"):
            dual_basis_solve(p1, [()], [spanning])

    def test_singular_gram(self, p1):
        one = PiecewiseExponential.constant(p1, 1)
        with pytest.raises(SingularGram):
            dual_basis_solve(p1, [(), (0,)], [one, one])

    def test_incomplete_fan_is_refused_before_resolving(self, p112, monkeypatch):
        calls = []
        monkeypatch.setattr(ktheory, "resolve", lambda *a, **k: calls.append(a) or resolve(*a, **k))
        cone = Fan.build(2, [(1, 0), (1, 2)], [(0, 1)])
        one = PiecewiseExponential.constant(cone, 1)
        with pytest.raises(NotComplete, match="the pairing needs a complete fan"):
            dual_basis_solve(cone, [()], [one])
        with pytest.raises(NotComplete, match="the pairing needs a complete fan"):
            dual_basis_solve(cone, [()], [one], resolution=resolve(p112))
        assert calls == []


class TestResultChecks:
    """The checks on returned results raise package errors, so that they
    still run under python -O."""

    def test_missing_strict_transform(self, p2):
        # no ray of P^2 lies in the cone on (1, 1)
        with pytest.raises(ResolutionCheckFailed, match="strict transform"):
            ktheory._strict_transform_face(p2, Cone.from_generators(2, [(1, 1)]))

    def test_decompose_reexpansion(self, p112, monkeypatch):
        exact = ktheory.try_div
        monkeypatch.setattr(ktheory, "try_div", lambda a, b: exact(a, b) + LaurentPoly.one(2))
        with pytest.raises(ResultCheckFailed, match="re-expansion"):
            decompose(catalog.p112_demo_class(p112), catalog.p112_spanning_classes(p112))

    def test_dual_basis_gram_is_identity(self, p1, monkeypatch):
        exact, calls = ktheory.gram_matrix, []

        def doubled_check(*args, **kwargs):
            m = exact(*args, **kwargs)
            calls.append(m)
            if len(calls) == 2:  # the re-verification of the solved duals
                m = PairingMatrix(m.row_labels, m.col_labels,
                                  tuple(tuple(e + e for e in row) for row in m.entries))
            return m

        monkeypatch.setattr(ktheory, "gram_matrix", doubled_check)
        spanning = [PiecewiseExponential.constant(p1, 1), catalog.p1_degree_class(p1, 1)]
        with pytest.raises(ResultCheckFailed, match="not the identity"):
            dual_basis_solve(p1, [(), (0,)], spanning)


class TestRandomCombinations:
    def test_generator_produces_valid_classes(self, p112):
        rng = random.Random(5)
        cartiers = [
            from_cartier(p112, CartierData(((0, 0), (0, b), (2 * b, 0))))
            for b in (1, 2)
        ]
        for _ in range(10):
            f = random_cartier_combination(p112, cartiers, rng)
            assert gkm_validate(p112, f.values).ok


class TestLatticePointOracleOnSmoothSurfaces:
    """Ample line bundle classes localize to the polytope's lattice points."""

    def test_product_of_lines(self):
        fan = catalog.p1_times_p1()
        # the a x b rectangle, vertices assigned by the minimizing rule
        a, b = 2, 3
        data = CartierData(((0, 0), (a, 0), (a, b), (0, b)))
        value = chi(fan, from_cartier(fan, data))
        pts = cartier_polytope_points(fan, data.exponents)
        assert len(pts) == (a + 1) * (b + 1)
        assert value == sum((E(p) for p in pts), LaurentPoly.zero(2))

    def test_hirzebruch_trapezoid(self):
        fan = catalog.hirzebruch(2)
        d, c = 2, 1
        data = CartierData(((0, 0), (d, 0), (d + 2 * c, c), (0, c)))
        value = chi(fan, from_cartier(fan, data))
        pts = cartier_polytope_points(fan, data.exponents)
        assert len(pts) == (c + 1) * (d + c + 1)
        assert value == sum((E(p) for p in pts), LaurentPoly.zero(2))

