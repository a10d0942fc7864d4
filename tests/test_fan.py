import functools
import hashlib
import itertools
import json
import operator
import random
import re
import sys
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pexpfan.chains as chains_module
import pexpfan.fan as fan_module
import pexpfan.lattice as lattice_module
import pexpfan.pexp as pexp_module
from pexpfan import catalog
from pexpfan.errors import (
    ConeNotInFan,
    NonPrimitiveRay,
    NotAFan,
    NotSimplicial,
    NotStronglyConvex,
    PExpFanError,
    RayOutsideSupport,
    ResolutionCheckFailed,
    UnsupportedDimension,
)
from pexpfan.fan import (
    Cone,
    Fan,
    SubdivisionMap,
    resolve,
    stellar_subdivision,
)
from pexpfan.ktheory import tangent_weights
from pexpfan.lattice import (
    identity_matrix, mat_mul, mat_vec, matrix_rank, pair, primitive_vector, transpose,
    vec_scale)
from oracles import (
    adjugate_by_elimination,
    box_points_listing,
    box_points_scan,
    box_scan_size,
    complete_by_point_search,
    det_expansion,
    extreme_generators_by_rank,
    extreme_rays_smith,
    face_quotient_oracle,
    faces_by_closure,
    facet_normals_full_dim,
    facets_by_generator_subsets,
    grid_covers_fan,
    least_box_points_listing,
    multiplicity_by_adjugate,
    pointed_by_rank,
    random_complete_rank2_data,
    resolve_all_cones,
    smallest_face_by_adjugate,
    smith_local_generators,
    smith_diagonal_oracle,
    solve_rational,
    star_quotient_oracle,
    stellar_all_cones,
    total_excess_multiplicity,
)


def random_simplicial_cone(rng, rank, dim):
    while True:
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(dim)]
        if len(smith_diagonal_oracle(gens)) == dim:
            return Cone.from_generators(rank, gens)


def random_fan_data(rng):
    """(rank, rays, cones) of a random, mostly invalid fan in rank 1-4: two to
    five distinct cones of one to rank + 1 rays each, so dimensions are mixed."""
    rank = rng.randint(1, 4)
    rays = sorted({primitive_vector(v) for v in (
        tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rank + 3)) if any(v)})
    rays = rays or [(1,) * rank]
    cones = set()
    for _ in range(rng.randint(2, 5)):
        size = rng.randint(1, min(len(rays), rank + rng.randint(0, 1)))
        cones.add(tuple(sorted(rng.sample(range(len(rays)), size))))
    used = sorted({i for c in cones for i in c})
    return rank, [rays[i] for i in used], [tuple(used.index(i) for i in c) for c in sorted(cones)]


# a "fan" winding twice around the origin, and its suspension by +-e3: every
# wall lies in exactly two cones on opposite sides, yet a generic point lies
# in two cones
DOUBLE_COVER_RAYS = [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)]
DOUBLE_COVER_CONES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
DOUBLE_COVERS = {
    "plane": (2, DOUBLE_COVER_RAYS, DOUBLE_COVER_CONES),
    "suspension": (3, [r + (0,) for r in DOUBLE_COVER_RAYS] + [(0, 0, 1), (0, 0, -1)],
                   [c + (apex,) for apex in (5, 6) for c in DOUBLE_COVER_CONES]),
}


def tied_singular_fan(m):
    """The complete fan with rays (1, 2j) for j = 0..m, (-1, 0) and (0, -1): m
    cones of multiplicity 2 between consecutive rays (1, 2j), (1, 2j + 2)."""
    rays = [(1, 2 * j) for j in range(m + 1)] + [(-1, 0), (0, -1)]
    return Fan.build(2, rays, [(j, j + 1) for j in range(m + 2)] + [(0, m + 2)])


def tied_cone_fan(m):
    """``tied_singular_fan(m)`` coned over (0, 0, 1): the rank-3 fan whose cones
    join the apex to the cones of the tied fan in the plane z = 0, m of them
    of multiplicity 2."""
    plane = tied_singular_fan(m)
    apex = len(plane.rays)
    return Fan.build(3, [r + (0,) for r in plane.rays] + [(0, 0, 1)],
                     [c + (apex,) for c in plane.maximal_cones])


def chain_points(point):
    """A stand-in for ``chains.least_chain_points`` whose one least point is
    ``point(g1, g2)``, given as (a, k) for (a g1 + k g2) / mult."""
    return lambda g1, g2, mult: (1, point(g1, g2, mult), (0, 0), 1)


def least_box_point_listed(cell, draw):
    """The ``least`` of a cell with its ``Cone`` drawing from the listed
    parallelepiped."""
    points = least_box_points_listing(cell[5])[1]
    return points[draw(len(points))]


def box_points(cone):
    """``fan._box_points`` of a singular simplicial cone, on its generators
    and multiplicity."""
    return fan_module._box_points(cone.generators, cone.multiplicity())


def least_box_points_drawn(cone):
    """Every point ``resolve`` draws on the cell (``fan._cell``) of a
    singular simplicial cone, one per index its draw may pick, in index
    order: on the Hirzebruch-Jung walk for a 2-dimensional cone
    (``chains.drawn_chain_point``), else by ``fan._least_box_point``."""
    rs = tuple(range(len(cone.generators)))
    cell = fan_module._cell(rs, cone, {g: i for i, g in enumerate(cone.generators)}, 0)
    least = chains_module.drawn_chain_point if cone.dim == 2 else fan_module._least_box_point
    counts = []
    least(cell, lambda count: counts.append(count) or 0)
    return [least(cell, lambda count: i) for i in range(counts[0])]


def resolve_both_ways(fan, rng_seed=None, extra_rounds=0, least=None):
    """``resolve`` and the all-``Cone`` path ``resolve_all_cones`` (drawing
    with ``least`` if given) on the same input, each with its own
    ``Random(rng_seed)``: (document or error, state of the rng afterwards)
    per path."""
    out = []
    for run in (resolve, lambda f, rng, extra_rounds: resolve_all_cones(f, rng, extra_rounds, least)):
        rng = None if rng_seed is None else random.Random(rng_seed)
        try:
            got = run(fan, rng=rng, extra_rounds=extra_rounds).to_json()
        except PExpFanError as exc:
            got = (type(exc).__name__, str(exc))
        out.append((got, rng and rng.getstate()))
    return out


def rank3_cones(top):
    """The cones <e1, e2, (1, b, m)> for 2 <= m < top, with b = 1 and the
    least unit mod m from m // 3 on."""
    return [Fan.build(3, [(1, 0, 0), (0, 1, 0), (1, b, m)], [(0, 1, 2)])
            for m in range(2, top) for b in sorted({1, next(b for b in range(m // 3, m) if gcd(b, m) == 1)})]


def step_cases():
    """The 173 (fan, seed, extra rounds) resolve cases of
    ``test_steps_carry_unchanged_cones_and_match_the_replaced_path``: the
    A-cones <(1,0),(1,N)> for 2 <= N <= 90, ``rank3_cones(31)``, and the
    cube, P(1,1,2) and a rank-4 pyramid with seeds and extra rounds."""
    pyramid = Fan.build(4, [(-5, 0, 1, 1), (1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0),
                            (0, -1, 1, 0)], [(0, 1, 2, 3, 4)])
    cases = [(Fan.build(2, [(1, 0), (1, n)], [(0, 1)]), None, 0) for n in range(2, 91)]
    cases += [(fan, None, 0) for fan in rank3_cones(31)]
    for fan in (catalog.cube_fan(), catalog.weighted_p112(), pyramid):
        for seed in (None, 1, 2, 3, 99):
            for extra in (0, 2):
                cases.append((fan, seed, extra))
    return cases


def catalog_resolution_data():
    """(rank, rays, cones) of seeded resolutions of every catalog fan."""
    fans = [catalog.projective_line(), catalog.projective_plane(), catalog.projective_space(3),
            catalog.p1_times_p1(), catalog.hirzebruch(2), catalog.weighted_p112(),
            catalog.cube_fan(), catalog.singular_quadric_cone_fan(),
            catalog.rank3_multiplicity3_fan()]
    out = []
    for fan in fans:
        for rounds in range(4):
            fine = resolve(fan, rng=random.Random(rounds), extra_rounds=rounds).fine
            out.append((fine.rank, list(fine.rays), list(fine.maximal_cones)))
    return out


def fan_data(fan):
    return fan.rank, list(fan.rays), list(fan.maximal_cones)


def on_used_rays(rank, rays, cones):
    """(rank, rays, cones) with the rays no cone uses dropped."""
    used = sorted({r for c in cones for r in c})
    return rank, [rays[r] for r in used], [tuple(used.index(r) for r in c) for c in cones]


def without_cone(fan, i):
    """(rank, rays, cones) of ``fan`` with maximal cone i dropped, and the
    rays it alone used."""
    return on_used_rays(fan.rank, fan.rays, [c for k, c in enumerate(fan.maximal_cones) if k != i])


def listed_together(*fans):
    """(rank, rays, cones) listing the maximal cones of all the fans, of one
    rank, on the union of their rays."""
    rays = sorted({r for fan in fans for r in fan.rays})
    cones = sorted({tuple(sorted(rays.index(fan.rays[r]) for r in c)) for fan in fans for c in fan.maximal_cones})
    return fans[0].rank, rays, cones


def flipped(fan, i):
    """(rank, rays, cones) of ``fan`` with maximal cone i moved across its
    first wall onto the side of the cone beyond it: its rays off the wall
    give way to one ray inside that cone, the sum of the wall's rays and a
    ray of that cone off the wall."""
    for rs, entries in fan.walls.items():
        if len(entries) == 2 and i in (entries[0][0], entries[1][0]):
            other = entries[0][0] + entries[1][0] - i
            off = next(r for r in fan.maximal_cones[other] if r not in rs)
            ray = primitive_vector(tuple(map(sum, zip(fan.rays[off], *(fan.rays[r] for r in rs)))))
            rays = list(fan.rays) + ([] if ray in fan.rays else [ray])
            cone = tuple(sorted((*rs, rays.index(ray))))
            return on_used_rays(fan.rank, rays, [cone if k == i else c for k, c in enumerate(fan.maximal_cones)])
    raise ValueError(f"cone {i} has no wall of two cones")


def doubled(fan, i):
    """(rank, rays, cones) of ``fan`` with maximal cone i listed beside its
    stellar subdivision at the sum of its rays."""
    gens = [fan.rays[r] for r in fan.maximal_cones[i]]
    centre = primitive_vector(tuple(map(sum, zip(*gens))))
    return listed_together(fan, stellar_subdivision(Fan.build(fan.rank, gens, [tuple(range(len(gens)))]), centre).fine)


def wall_rule_cases():
    """(valid, broken): (rank, rays, cones) of fans in ranks 1 to 4 whose
    maximal cones tile a convex cone, complete or not, simplicial or not,
    and of such fans broken on purpose.

    The valid ones are the cube fan, the face fan of the 4-cube, P^1, P^2,
    a ray, a half-plane, a half-space, unimodular cones and a pentagon's
    cone, and single cones with their resolutions and stellar
    subdivisions.  The broken ones are the cube fan
    with a cone dropped or an overlapping cone added, resolutions with a
    fine cone dropped, listed twice, or flipped across a wall, a cone listed
    beside its own stellar subdivision, two triangulations of one cone
    listed together, and a fan folding back across a wall."""
    from test_ktheory import four_cube_fan

    def cone(*gens):
        return Fan.build(len(gens[0]), gens, [tuple(range(len(gens)))])

    square = cone((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
    pyramid = cone((-5, 0, 1, 1), (1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0))
    singles = [cone((1, 0), (1, 7)), cone((2, -1), (1, 4)), cone((1, 0, 0), (0, 1, 0), (1, 3, 7)),
               cone((1, 0, 0), (0, 1, 0), (1, 4, 9)), catalog.rank3_multiplicity3_fan(), square,
               cone((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5)), pyramid]
    resolutions = [resolve(fan, rng=random.Random(seed), extra_rounds=seed).fine
                   for fan in singles for seed in (0, 1)]
    stellar = [stellar_subdivision(cone((1, 0), (1, 7)), (1, 3)).fine,
               stellar_subdivision(square, (0, 0, 1)).fine,
               stellar_subdivision(square, (1, 1, 2)).fine,
               stellar_subdivision(pyramid, (0, 0, 1, 0)).fine,
               stellar_subdivision(cone((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), (1, 1, 1, 1)).fine]
    half_plane = Fan.build(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
    half_space = Fan.build(3, [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 1)],
                           [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)])
    # one cone tiles itself (``_tiling`` reads its facets alone): unimodular in
    # ranks 2 to 4 and a pentagon, beside the singles below
    one_cone = [cone((1, 0), (0, 1)), cone((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                cone((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                cone((1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -2, 1))]
    valid_fans = [catalog.cube_fan(), four_cube_fan(), catalog.projective_line(), catalog.projective_plane(),
                  cone((1,)), cone((-1,)), half_plane, half_space, *one_cone,
                  resolve(half_space, rng=random.Random(2), extra_rounds=2).fine,
                  *singles, *resolutions, *stellar]
    cube = catalog.cube_fan()
    broken = [without_cone(cube, 0), without_cone(cube, 5),
              (3, list(cube.rays), list(cube.maximal_cones) + [(0, 3, 5)]),
              listed_together(resolve(square).fine, resolve(square, rng=random.Random(1), extra_rounds=2).fine),
              listed_together(stellar_subdivision(square, (1, 1, 2)).fine,
                              stellar_subdivision(square, (-1, 1, 2)).fine),
              listed_together(square, stellar_subdivision(square, (0, 0, 1)).fine),
              listed_together(half_plane, Fan.build(2, [(1, 1), (-1, 1)], [(0, 1)])),
              # every ray in two cones, but the cones on (0, 1) lie on one side of
              # it, and near the sum of the first cone's rays one cone holds a point
              (2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], [(2, 3), (0, 1), (1, 4), (2, 4), (0, 3)])]
    for fine in resolutions:
        if len(fine.maximal_cones) > 2:
            n = len(fine.maximal_cones)
            broken += [without_cone(fine, n // 2), flipped(fine, n // 2), flipped(fine, 0),
                       (fine.rank, list(fine.rays), list(fine.maximal_cones) + [fine.maximal_cones[0]]),
                       doubled(fine, 0)]
    return list(map(fan_data, valid_fans)), broken


class TestBuildFan:
    def test_weighted_projective_plane(self, p112):
        assert p112.rays == ((1, 0), (0, 1), (-1, -2))
        assert len(p112.maximal_cones) == 3
        assert len(p112.faces) == 7  # 3 maximal + 3 rays + origin

    def test_projective_line(self, p1):
        assert p1.maximal_cones == ((0,), (1,))

    def test_overlapping_cones_rejected(self):
        # cone {0,1} contains the line through e1, and the listed cones
        # overlap; either defect invalidates the input
        with pytest.raises((NotAFan, NotStronglyConvex)):
            Fan.build(2, [(1, 0), (-1, 0), (1, 1)], [(0, 2), (1, 2), (0, 1)])

    def test_two_dim_overlap_is_not_a_fan(self):
        with pytest.raises(NotAFan):
            Fan.build(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])

    def test_non_primitive_ray(self):
        with pytest.raises(NonPrimitiveRay):
            Fan.build(2, [(2, 0), (0, 1)], [(0, 1)])

    def test_nested_maximal_cones(self):
        with pytest.raises(NotAFan):
            Fan.build(2, [(1, 0), (0, 1)], [(0, 1), (0,)])

    def test_nonsimplicial_rank5_unsupported(self):
        # a 5-dim cone over a pyramid with a square base: more generators
        # than its dimension, in ambient rank 5
        rays = [
            (1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (1, 1, 0, 0, 1), (0, 0, 1, 0, 1),
            (0, 0, 0, 0, 1),
        ]
        with pytest.raises(UnsupportedDimension):
            Fan.build(5, rays, [(0, 1, 2, 3, 4)])

    def test_nonpointed_rank5_is_not_strongly_convex(self):
        # pointedness is decided before the rank limit, so a cone containing
        # a line is refused as such in any rank
        rays = [(1, 0, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]
        with pytest.raises(NotStronglyConvex):
            Fan.build(5, rays, [(0, 1, 2)])

    @pytest.mark.parametrize("name, message", [
        ("plane", "cones (0, 1) and (2, 3) intersect in a non-face"),
        ("suspension", "cones (0, 1, 5) and (2, 3, 5) intersect in a non-face"),
    ])
    def test_double_cover_is_neither_a_fan_nor_complete(self, name, message):
        rank, rays, cones = DOUBLE_COVERS[name]
        with pytest.raises(NotAFan, match=re.escape(message)):
            Fan.build(rank, rays, cones)
        assert not Fan.build(rank, rays, cones, validate=False).is_complete()

    def test_cones_meeting_outside_a_common_face(self):
        # the simplicial cone shares the diagonal {0, 2} of the square cone,
        # which is no face of the square
        rays = [(1, 1, 1), (1, 1, -1), (1, -1, -1), (1, -1, 1), (0, 1, -1)]
        message = "cones (0, 1, 2, 3) and (0, 2, 4) meet outside a common face"
        with pytest.raises(NotAFan, match=re.escape(message)):
            Fan.build(3, rays, [(0, 1, 2, 3), (0, 2, 4)])

    def test_negative_rank(self):
        with pytest.raises(NotAFan, match="fan rank must be nonnegative, got -1"):
            Fan.build(-1, [], [[]])

    def test_json_round_trip(self, p112):
        assert Fan.from_json(p112.to_json()) == p112

    def test_duplicate_cones_rejected(self):
        with pytest.raises(NotAFan):
            Fan.from_json({
                "rank": 1,
                "rays": [[1], [-1]],
                "max_cones": [[0], [1], [0]],
            })

    @pytest.mark.parametrize("rays, cones, error, message", [
        ([(1, 0), (0, 0)], [(0, 1)], NonPrimitiveRay, "the zero vector is not a ray"),
        ([(1, 0), (1, 0)], [(0,), (1,)], NotAFan, "duplicate rays"),
        ([(1, 0), (0, 1), (-1, 0)], [(0, 1)], NotAFan, "every ray must appear in some maximal cone"),
        ([(1, 0), (0, 1)], [(0, 0, 1)], NotAFan, "cone [0, 0, 1] lists a ray twice"),
        ([], [], NotAFan, "a fan needs at least the zero cone"),
    ], ids=["zero-ray", "duplicate-rays", "unused-ray", "repeated-index", "no-cones"])
    def test_malformed_input_is_refused(self, rays, cones, error, message):
        with pytest.raises(PExpFanError) as exc:
            Fan.build(2, rays, cones)
        assert (type(exc.value), str(exc.value)) == (error, message)


class TestConeReader:
    def test_generators_name_the_cone(self, p112):
        assert p112.rayset_from_vectors([(-2, -4), [1, 0]]) == (0, 2)
        assert p112.rayset_from_vectors([]) == ()

    @pytest.mark.parametrize("vectors, error, message", [
        ([(True, 0)], ValueError, "cone coordinate must be an integer, got True"),
        ([(1.5, 0)], ValueError, "cone coordinate must be an integer, got 1.5"),
        (3, ValueError, "cone must be a list, got 3"),
        ([3], ValueError, "cone generator must be a list, got 3"),
        ([(1, 0), (1, 0)], ConeNotInFan, "cone lists the ray (1, 0) twice"),
        ([(1, 0), (2, 0)], ConeNotInFan, "cone lists the ray (1, 0) twice"),
        ([(1, 1)], ConeNotInFan, "(1, 1) is not a ray of the fan"),
        ([(1, 0), (0, 1), (-1, -2)], ConeNotInFan, "[0, 1, 2] is not a cone of the fan"),
    ], ids=["boolean", "float", "number-cone", "number-generator", "repeated-generator",
            "repeated-ray", "foreign-ray", "foreign-cone"])
    def test_malformed_cone_is_refused(self, p112, vectors, error, message):
        with pytest.raises((ValueError, ConeNotInFan)) as exc:
            p112.rayset_from_vectors(vectors)
        assert (type(exc.value), str(exc.value)) == (error, message)


class TestMultiplicity:
    def test_smooth_cone(self):
        assert Cone.from_generators(2, [(1, 0), (0, 1)]).multiplicity() == 1

    def test_singular_chart(self):
        assert Cone.from_generators(2, [(1, 0), (-1, -2)]).multiplicity() == 2

    def test_other_chart_is_smooth(self):
        assert Cone.from_generators(2, [(0, 1), (-1, -2)]).multiplicity() == 1

    def test_non_simplicial_raises(self, cube):
        with pytest.raises(NotSimplicial):
            cube.cone_objects[0].multiplicity()

    def test_invariant_under_unimodular_change(self):
        rng = random.Random(11)
        from test_lattice import random_unimodular

        for _ in range(40):
            n = rng.randint(2, 3)
            gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
            try:
                cone = Cone.from_generators(n, gens)
            except (NotStronglyConvex, PExpFanError):
                continue
            if not cone.is_simplicial:
                continue
            u = random_unimodular(rng, n)
            moved = Cone.from_generators(n, [mat_vec(u, g) for g in cone.generators])
            assert moved.multiplicity() == cone.multiplicity()

    def test_dim_and_multiplicity_match_rank_and_adjugate(self):
        """``dim`` and ``multiplicity()``, read from the cone's one frame
        and the one adjugate of its local generators in it, equal
        ``matrix_rank`` of the generators and |det| of the local generators
        in the Smith form's coordinates by their Bareiss adjugate, on seeded
        random cones of every dimension in ranks 1-5:
        non-simplicial ones, and lower-dimensional ones whose generators span
        a sublattice of index > 1 of their saturated span.  The facets, read
        off the scaled inverse on a simplicial cone, equal the subset loop's;
        the scaled inverse is mult * G^-1 for the cone's own local
        generators G; and a smooth cone's dual basis, its tangent weights
        when it is full-dimensional, equals G^-1 @ P by a Bareiss adjugate in
        the Smith form's coordinates."""
        from test_lattice import random_unimodular

        rng = random.Random(20261019)
        kinds = []
        for _ in range(1200):
            rank = rng.randint(1, 5)
            dim = rng.randint(1, rank)
            # generators in the span of the first dim rows of a unimodular matrix
            u = random_unimodular(rng, rank)
            gens = [tuple(map(sum, zip(*(vec_scale(rng.randint(-3, 3), row) for row in u[:dim]))))
                    for _ in range(rng.randint(1, dim + 2))]
            try:
                cone = Cone.from_generators(rank, gens)
            except PExpFanError:
                continue
            assert cone.dim == matrix_rank(cone.generators), gens
            assert cone.facets == facets_by_generator_subsets(cone), gens
            if cone.is_simplicial:
                assert cone.multiplicity() == multiplicity_by_adjugate(cone), gens
                kinds.append((cone.dim < rank, cone.multiplicity() > 1))
                mult, d = cone.multiplicity(), cone.dim
                assert mat_mul(cone._scaled_inverse, transpose(cone.local_generators)) == tuple(
                    tuple(mult * (i == j) for j in range(d)) for i in range(d)), gens
                if mult == 1:
                    projection, local = smith_local_generators(cone)
                    det, adj = adjugate_by_elimination(transpose(local))
                    # det = +-1, so G^-1 = det * adj
                    want = mat_mul(tuple(vec_scale(det, row) for row in adj), projection)
                    if d == rank:
                        assert tangent_weights(cone) == want, gens
                    else:
                        assert mat_mul(cone._scaled_inverse, cone._coordinates[0]) == want, gens
            else:
                kinds.append("non-simplicial")
        assert kinds.count((True, True)) > 80 and kinds.count((False, True)) > 50
        assert kinds.count((True, False)) > 100 and kinds.count((False, False)) > 100
        assert kinds.count("non-simplicial") > 20


class TestCompleteness:
    def test_corpus_complete(self, complete_corpus):
        for name, fan in complete_corpus.items():
            assert fan.is_complete(), name

    def test_affine_plane_not_complete(self):
        fan = Fan.build(2, [(1, 0), (0, 1)], [(0, 1)])
        assert not fan.is_complete()

    def test_grid_cross_check(self, complete_corpus):
        for name, fan in complete_corpus.items():
            if fan.rank <= 3:
                assert grid_covers_fan(fan), name

    def test_incomplete_fan_misses_grid_points(self):
        fan = Fan.build(2, [(1, 0), (0, 1)], [(0, 1)])
        assert not grid_covers_fan(fan)
        # a cone over a square, three-dimensional in rank 4: a point off its
        # span pairs nonnegatively with every facet normal
        square = Fan.build(4, [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)],
                           [(0, 1, 2, 3)])
        cone = square.cone_objects[0]
        assert not cone.is_simplicial and cone.dim == 3
        assert all(pair(u, (0, 0, 1, 1)) >= 0 for u, _ in cone.facets)
        assert cone.contains((0, 0, 1, 0)) and not cone.contains((0, 0, 1, 1))
        assert not grid_covers_fan(square)

    def test_the_generic_point_matches_the_point_search(self):
        """On the inputs of the validation test, each built unvalidated,
        is_complete gives the verdict, or the error, of the search over
        k = 1, 2, ... for a point off every wall normal's hyperplane."""
        rng = random.Random(20261018)
        cases = [random_fan_data(rng) for _ in range(1500)]
        cases += [random_complete_rank2_data(rng) for _ in range(300)]
        cases += catalog_resolution_data() + list(DOUBLE_COVERS.values()) + sum(wall_rule_cases(), [])

        def verdict(complete, rank, rays, cones):
            try:
                return complete(Fan.build(rank, rays, cones, validate=False))
            except PExpFanError as exc:
                return type(exc).__name__, str(exc)

        got = [verdict(Fan.is_complete, *case) for case in cases]
        assert got == [verdict(complete_by_point_search, *case) for case in cases]
        assert got.count(True) > 300 and got.count(False) > 500

    def test_completeness_pairs_each_facet_at_most_once(self, monkeypatch):
        """With its walls built, is_complete of the 204-cone resolution of
        the fan on (1,0), (1,200), (-1,0), (0,-1) pairs its generic point
        with each facet normal at most once, where the search over k paired
        29,281 times."""
        rays = [(1, 0), (1, 200), (-1, 0), (0, -1)]
        fine = resolve(Fan.build(2, rays, [(0, 1), (1, 2), (2, 3), (0, 3)])).fine
        fan = Fan.build(2, fine.rays, fine.maximal_cones, validate=False)
        assert len(fan.maximal_cones) == 204 and fan.walls
        calls = []
        monkeypatch.setattr(fan_module, "pair", lambda u, v: calls.append(u) or pair(u, v))
        assert fan.is_complete()
        assert len(calls) <= sum(len(c.facets) for c in fan.cone_objects)


STAR_TABLE_FANS = {
    "p1": catalog.projective_line,
    "p2": catalog.projective_plane,
    "p3": lambda: catalog.projective_space(3),
    "p1xp1": catalog.p1_times_p1,
    "f2": lambda: catalog.hirzebruch(2),
    "p112": catalog.weighted_p112,
    "cube": catalog.cube_fan,
    "quadric-cone": catalog.singular_quadric_cone_fan,
    "rank3-mult3": catalog.rank3_multiplicity3_fan,
    "cube-48": lambda: resolve(catalog.cube_fan()).fine,
    "cube-52": lambda: resolve(catalog.cube_fan(), rng=random.Random(99), extra_rounds=2).fine,
    # the quadrant plus a stray ray of tests/test_mixed_dimension.py
    "mixed": lambda: Fan.build(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)]),
}


class TestStarTable:
    @pytest.mark.parametrize("name", STAR_TABLE_FANS)
    def test_star_table_matches_the_ray_scan(self, name):
        """Each cone's star is every maximal cone whose rays contain it, in
        fan order, and the cones are every face of every maximal cone."""
        fan = STAR_TABLE_FANS[name]()
        if name.startswith("cube-"):
            assert len(fan.maximal_cones) == int(name[5:])
        for tau in fan.faces:
            scan = tuple(i for i, c in enumerate(fan.maximal_cones) if set(tau) <= set(c))
            assert fan._star[tau] == scan, tau
        faces = {tuple(sorted(fan.rays.index(cone.generators[i]) for i in subset))
                 for cone in fan.cone_objects for subset in cone.faces_as_generator_subsets()}
        assert len(fan.faces) == len(faces) and set(fan.faces) == faces


class TestStarQuotient:
    """The star of a face projected to N/N_tau (``star_quotient_oracle``) is
    the fan of the orbit closure V(tau): ``Fan.build`` accepts it, or refuses
    an overlap, and ``is_complete`` holds on every projected star of a
    complete fan."""

    def test_ray_of_weighted_plane(self, p112):
        tau = p112.rayset_from_vectors([(-1, -2)])
        qfan, lifting, _ = star_quotient_oracle(p112, tau)
        assert qfan.rank == 1
        assert sorted(qfan.rays) == [(-1,), (1,)]
        assert qfan.is_complete()
        assert len(lifting) == 2

    def test_maximal_cone_gives_point(self, p112):
        qfan, _, _ = star_quotient_oracle(p112, p112.maximal_cones[0])
        assert qfan.rank == 0
        assert qfan.maximal_cones == ((),)
        assert qfan.is_complete()

    def test_overlapping_star_is_refused(self):
        # <(1,0),(1,1)> and <(1,0),(1,2)> overlap, so both project onto the ray (1) of N/Z(1,0)
        overlapping = Fan.build(2, [(1, 0), (1, 1), (1, 2)], [(0, 1), (0, 2)], validate=False)
        with pytest.raises(NotAFan, match="duplicate maximal cones"):
            star_quotient_oracle(overlapping, (0,))

    def test_preserves_completeness(self, complete_corpus):
        for name, fan in complete_corpus.items():
            for face in fan.faces:
                qfan, _, _ = star_quotient_oracle(fan, face)
                assert qfan.is_complete(), (name, face)


def random_mixed_fans(seed: int, count: int) -> list[Fan]:
    """The first ``count`` valid fans of ``random_fan_data`` whose maximal
    cones have more than one dimension."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rank, rays, cones = random_fan_data(rng)
        try:
            fan = Fan.build(rank, rays, cones)
        except PExpFanError:
            continue
        if len({c.dim for c in fan.cone_objects}) > 1:
            out.append(fan)
    return out


class TestQuotientsAgainstOracles:
    def test_face_and_star_quotients_match_the_replaced_path(self, complete_corpus):
        """Face quotients and comparison matrices read off one
        span_coordinates, the span basis from its V and D, equal those the
        second Smith form built, with U^-1 as det * adj."""
        fans = list(complete_corpus.values()) + [
            catalog.singular_quadric_cone_fan(),
            catalog.rank3_multiplicity3_fan(),
            resolve(catalog.cube_fan()).fine,
            Fan.build(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)]),
            # rays out of sorted order: cone (0, 3) has other coordinates in Cone._span
            Fan.build(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)], [(0, 1, 2), (0, 3), (1, 3)]),
        ] + random_mixed_fans(20261018, 30)
        faces = 0
        for fan in fans:
            for rs in fan.faces:
                faces += 1
                q = fan.face_quotient(rs)
                projection, section = face_quotient_oracle(fan, rs)
                assert q.projection == projection, (fan, rs)
                assert mat_mul(q.projection, q.section) == identity_matrix(q.rank)
                for c in fan.maximal_cones:
                    if set(rs) <= set(c):
                        want = mat_mul(projection, face_quotient_oracle(fan, c)[1])
                        assert pexp_module._comparison_matrix(fan, c, fan, rs) == want
        assert faces > 500

    def test_ray_quotients_match_the_smith_form(self, complete_corpus):
        """On every ray of the corpus and of its resolutions, the quotient
        read off the extended gcd has the projection the ray's Smith form
        gives, and its section pairs to 1 with the ray."""
        fans = list(complete_corpus.values()) + [catalog.singular_quadric_cone_fan(),
                                                 catalog.rank3_multiplicity3_fan()]
        fans += [resolve(fan, rng=random.Random(seed), extra_rounds=seed).fine
                 for fan in list(fans) for seed in range(4)]
        rays = 0
        for fan in fans:
            for i, g in enumerate(fan.rays):
                q = fan.face_quotient((i,))
                if fan.rank == 1:
                    assert q.projection == identity_matrix(1)
                    continue
                rays += 1
                factors, _, _, v = fan_module.span_coordinates(fan.rank, [g])
                assert q.projection == (tuple(x * v[0][0] // factors[0] for x in g),)
                assert mat_mul(q.projection, q.section) == ((1,),)
        assert rays > 200


def without_fine_cone(sub: SubdivisionMap, i: int) -> dict:
    """The JSON document of ``sub`` with fine cone i and its assignment
    dropped, and the fine rays it alone used."""
    cones = [c for k, c in enumerate(sub.fine.maximal_cones) if k != i]
    used = sorted({r for c in cones for r in c})
    return {"fine": {"rank": sub.fine.rank, "rays": [list(sub.fine.rays[r]) for r in used],
                     "max_cones": [[used.index(r) for r in c] for c in cones]},
            "coarse": sub.coarse.to_json(),
            "assignment": [j for k, j in enumerate(sub.assignment) if k != i]}


class TestSubdivisionMapCover:
    """``SubdivisionMap.from_json`` refuses a map whose fine cones do not
    cover their coarse cone, and accepts every map the package builds."""

    @staticmethod
    def maps():
        # rank <= 3: a fine fan with a lower-dimensional cone is validated by the
        # pairwise loop, quadratic in its cones, and the rank-4 resolutions have over 150
        mixed = [fan for fan in random_mixed_fans(20261019, 30) if fan.rank <= 3]
        fans = [catalog.projective_line(), catalog.projective_plane(), catalog.hirzebruch(2),
                catalog.weighted_p112(), catalog.cube_fan(), catalog.singular_quadric_cone_fan(),
                catalog.rank3_multiplicity3_fan()] + mixed
        for fan in fans:
            yield SubdivisionMap.identity(fan)
            yield resolve(fan)
            yield resolve(fan, rng=random.Random(5), extra_rounds=2)
        yield stellar_subdivision(catalog.projective_plane(), (1, 1))
        yield stellar_subdivision(catalog.cube_fan(), (1, 1, 0))

    def test_identity_resolve_and_stellar_maps_are_accepted(self):
        count = 0
        for sub in self.maps():
            assert SubdivisionMap.from_json(sub.to_json()) == sub
            count += 1
        assert count == 59

    def test_a_map_missing_a_fine_cone_is_refused(self):
        refused = 0
        for sub in self.maps():
            shared = [i for i, j in enumerate(sub.assignment) if sub.assignment.count(j) > 1]
            for i in shared[:2]:
                with pytest.raises(ValueError, match=re.escape(
                        f"the fine cones assigned to coarse cone {sub.assignment[i]} do not cover it")):
                    SubdivisionMap.from_json(without_fine_cone(sub, i))
                refused += 1
        assert refused > 40

    def test_a_fine_cone_of_lower_dimension_is_refused(self):
        coarse = Fan.build(2, [(1, 0), (0, 1)], [(0, 1)])
        fine = Fan.build(2, [(1, 0), (0, 1)], [(0,), (1,)])
        doc = {"fine": fine.to_json(), "coarse": coarse.to_json(), "assignment": [0, 0]}
        with pytest.raises(ValueError, match="fine cone 0 has a dimension other than its coarse cone 0"):
            SubdivisionMap.from_json(doc)


class TestStellarSubdivision:
    def test_blowup_of_affine_plane(self):
        fan = Fan.build(2, [(1, 0), (0, 1)], [(0, 1)])
        sub = stellar_subdivision(fan, (1, 1))
        gens = {
            tuple(sorted(sub.fine.rays[i] for i in c)) for c in sub.fine.maximal_cones
        }
        assert gens == {((1, 0), (1, 1)), ((0, 1), (1, 1))}
        assert sub.fine.is_smooth()

    def test_weighted_plane_at_minus_e2(self, p112):
        sub = stellar_subdivision(p112, (0, -1))
        assert len(sub.fine.maximal_cones) == 4
        assert sub.fine.is_smooth()

    def test_existing_ray_is_identity(self, p112):
        sub = stellar_subdivision(p112, (1, 0))
        assert sub.fine == p112
        assert sub.assignment == (0, 1, 2)

    def test_outside_support(self):
        fan = Fan.build(2, [(1, 0), (0, 1)], [(0, 1)])
        with pytest.raises(RayOutsideSupport):
            stellar_subdivision(fan, (-1, 0))

    def test_non_primitive(self, p112):
        with pytest.raises(NonPrimitiveRay):
            stellar_subdivision(p112, (0, -2))

    @pytest.mark.parametrize("call, error, message", [
        (lambda fan: stellar_subdivision(fan, (0, 0)), NonPrimitiveRay,
         "cannot subdivide at the zero vector"),
        (lambda fan: Cone.from_generators(2, [(1, 0), (0, 1, 0)]), ValueError,
         "generator (0, 1, 0) has length != rank 2"),
        (lambda fan: fan.cone_objects[0].contains((1, 0, 0)), ValueError,
         "point has the wrong length"),
    ], ids=["zero-ray", "generator-length", "point-length"])
    def test_malformed_points_are_refused(self, p112, call, error, message):
        with pytest.raises((PExpFanError, ValueError)) as exc:
            call(p112)
        assert (type(exc.value), str(exc.value)) == (error, message)

    def test_output_is_a_fan_with_same_support(self, p112, cube):
        for fan, ray in (
            (p112, (0, -1)),
            (p112, (1, 1)),
            (cube, (1, 0, 0)),
            (cube, (1, 1, 1)),
        ):
            sub = stellar_subdivision(fan, ray)
            revalidated = Fan.build(
                sub.fine.rank, sub.fine.rays, sub.fine.maximal_cones
            )
            assert revalidated.is_complete()
            for i, c in enumerate(sub.fine.maximal_cones):
                coarse = fan.cone_objects[sub.assignment[i]]
                assert all(coarse.contains(sub.fine.rays[k]) for k in c)

    def test_random_support_rays(self, complete_corpus):
        # the fan axiom and completeness survive subdivision at primitive
        # support points: a nonnegative combination of a seeded cone's
        # generators, one coefficient per generator
        rng = random.Random(23)
        for name, fan in complete_corpus.items():
            for _ in range(6):
                cone = fan.cone_objects[rng.randrange(len(fan.maximal_cones))]
                coefficients = [rng.randint(0, 3) for _ in cone.generators]
                point = tuple(sum(map(operator.mul, coefficients, column)) for column in zip(*cone.generators))
                if not any(point):
                    continue
                assert cone.contains(point), (name, point)
                sub = stellar_subdivision(fan, primitive_vector(point))
                revalidated = Fan.build(
                    sub.fine.rank, sub.fine.rays, sub.fine.maximal_cones
                )
                assert revalidated.is_complete(), name

    def test_matches_the_all_cone_path(self, complete_corpus):
        """Split on the records of ``resolve``, a stellar subdivision gives
        the map and fine cones of the all-Cone step (``stellar_all_cones``):
        at seeded primitive support points, at a ray of the fan, which
        changes no simplicial fan, and at a point outside the support, which
        both refuse; on the complete corpus, on mixed fans and on single
        cones of ranks 2-4, simplicial or not."""
        rng = random.Random(29)
        cones = [random_simplicial_cone(rng, rank, dim) for rank in (2, 3, 4) for dim in range(1, rank + 1)]
        cones += [Cone.from_generators(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
                  Cone.from_generators(4, [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)]),
                  Cone.from_generators(4, [(1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1)])]
        fans = [*complete_corpus.values(), *random_mixed_fans(31, 10),
                *(Fan.build(c.rank, c.generators, [tuple(range(len(c.generators)))]) for c in cones)]
        compared = changed = refused = 0
        for fan in fans:
            at_ray = fan.rays[rng.randrange(len(fan.rays))]
            points = [at_ray]
            for _ in range(4):
                cone = fan.cone_objects[rng.randrange(len(fan.maximal_cones))]
                coefficients = [rng.randint(0, 3) for _ in cone.generators]
                point = [sum(map(operator.mul, coefficients, column)) for column in zip(*cone.generators)]
                if any(point):
                    points.append(primitive_vector(point))
            for point in points:
                sub, old = stellar_subdivision(fan, point), stellar_all_cones(fan, point)
                assert sub.to_json() == old.to_json(), (fan, point)
                for cone, fresh in zip(sub.fine.cone_objects, old.fine.cone_objects, strict=True):
                    assert_matches_fresh_cone(cone, fresh)
                compared += 1
                changed += sub.fine != fan
            if all(c.is_simplicial for c in fan.cone_objects):
                assert stellar_subdivision(fan, at_ray).to_json() == SubdivisionMap.identity(fan).to_json()
            outside = next((v for v in itertools.product(range(-2, 3), repeat=fan.rank)
                            if gcd(*v) == 1 and not any(c.contains(v) for c in fan.cone_objects)), None)
            if outside:
                for subdivide in (stellar_subdivision, stellar_all_cones):
                    with pytest.raises(RayOutsideSupport):
                        subdivide(fan, outside)
                refused += 1
        assert (compared, changed, refused) == (129, 62, 22)


class TestResolve:
    def test_smooth_is_identity(self, p2):
        sub = resolve(p2)
        assert sub.fine is p2 and sub.coarse is p2
        assert sub.assignment == tuple(range(3))

    def test_weighted_plane(self, p112):
        sub = resolve(p112)
        assert (0, -1) in sub.fine.rays
        assert len(sub.fine.rays) == 4
        assert sub.fine.is_smooth()

    def test_quadric_cone_chart(self):
        fan = catalog.singular_quadric_cone_fan()
        sub = resolve(fan)
        assert (1, 1) in sub.fine.rays
        assert len(sub.fine.maximal_cones) == 2
        assert sub.fine.is_smooth()

    def test_rank3_multiplicity3(self):
        fan = catalog.rank3_multiplicity3_fan()
        assert fan.cone_objects[0].multiplicity() == 3
        sub = resolve(fan)
        assert sub.fine.is_smooth()

    def test_cube_fan(self, cube):
        sub = resolve(cube)
        assert sub.fine.is_smooth()
        assert sub.fine.is_complete()

    def test_excess_multiplicity_drops_stepwise(self, p112):
        # replay the loop: the default resolve raises if a step fails to drop
        sub = resolve(p112)
        assert total_excess_multiplicity(sub.fine) == 0

    def test_empty_parallelepiped_is_a_check_failure(self, p112, monkeypatch):
        # chain records read their points from the chain walk, cells with
        # their Cone from _least_box_point; both name the cone by its place
        # in fan order
        monkeypatch.setattr(chains_module, "least_chain_points", lambda g1, g2, mult: (1, (0, 0), (0, 0), 0))
        monkeypatch.setattr(fan_module, "_least_box_point", lambda cell, draw: None)
        for fan, message in ((p112, "singular cone 1 "), (catalog.rank3_multiplicity3_fan(), "singular cone 0 ")):
            with pytest.raises(ResolutionCheckFailed, match=message + "has no parallelepiped points"):
                resolve(fan)
        (chained, _), (refined, _) = resolve_both_ways(p112)
        assert chained == refined

    def test_a_step_that_keeps_the_excess_is_a_check_failure(self, p112, monkeypatch):
        # subdividing at a generator of the singular cone leaves the fan as it is
        monkeypatch.setattr(chains_module, "least_chain_points", chain_points(lambda g1, g2, mult: (mult, 0)))
        monkeypatch.setattr(fan_module, "_least_box_point", lambda cell, draw: cell[1][0])
        for fan, ray in ((p112, (-1, -2)), (catalog.rank3_multiplicity3_fan(), (0, 0, 1))):
            with pytest.raises(ResolutionCheckFailed,
                               match=re.escape(f"did not drop: subdividing at {ray} changed no cone")):
                resolve(fan)
        (chained, _), (refined, _) = resolve_both_ways(p112)
        assert chained == refined

    def test_a_piece_as_large_as_its_cone_is_a_check_failure(self, p112, monkeypatch):
        # a point with a coefficient of 1 leaves a piece of the cone's own multiplicity
        monkeypatch.setattr(chains_module, "least_chain_points",
                            chain_points(lambda g1, g2, mult: (2 * mult, mult)))
        monkeypatch.setattr(fan_module, "_least_box_point", lambda cell, draw: tuple(
            2 * x + sum(rest) for x, *rest in zip(*cell[1])))
        for fan, mult in ((p112, 2), (catalog.rank3_multiplicity3_fan(), 3)):
            with pytest.raises(ResolutionCheckFailed, match=(
                    f"did not drop: a cone of multiplicity {mult} has a piece of multiplicity {mult}")):
                resolve(fan)
        (chained, _), (refined, _) = resolve_both_ways(p112)
        assert chained == refined

    @pytest.mark.parametrize("apex", [(1, 3, 9, 10), (1, 1, 3, 10), (1, 1, 11, 30), (1, 1, 33, 100),
                                      (1, 1, 4, 5), (1, 2, 3, 5), (1, 3, 4, 7)])
    def test_rank4_cones_whose_total_excess_rises_resolve(self, apex, monkeypatch):
        """<e1, e2, e3, apex> resolves to a smooth fan inside the cone, though
        some step raises the total excess multiplicity, which the check on it
        refused: each piece of a step is still smaller than its cone."""
        fan = Fan.build(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), apex], [(0, 1, 2, 3)])
        step, rises = fan_module._Refinement.step, []

        def excess(ref):
            cells = {id(cell): cell for held in ref.incidence.values() for cell in held.values()}
            return sum(cell[3] - 1 for cell in cells.values())

        def watched(ref, ray, holding, *known):
            before = excess(ref)
            change = step(ref, ray, holding, *known)
            rises.append(excess(ref) >= before)
            return change

        monkeypatch.setattr(fan_module._Refinement, "step", watched)
        sub = resolve(fan)
        assert any(rises) and sub.fine.is_smooth()
        assert all(fan.cone_objects[0].contains(r) for r in sub.fine.rays)

    def test_assignment_containment(self, p112, cube):
        for fan in (p112, cube):
            sub = resolve(fan)
            for i, c in enumerate(sub.fine.maximal_cones):
                coarse = fan.cone_objects[sub.assignment[i]]
                assert all(coarse.contains(sub.fine.rays[k]) for k in c)

    def test_seeded_variants_are_valid(self, p112):
        sub = resolve(p112, rng=random.Random(5), extra_rounds=2)
        assert sub.fine.is_smooth()
        assert Fan.build(sub.fine.rank, sub.fine.rays, sub.fine.maximal_cones).is_complete()

    def test_negative_extra_rounds_is_refused(self, p112):
        with pytest.raises(ValueError, match="extra_rounds must be nonnegative, got -3"):
            resolve(p112, extra_rounds=-3)

    def test_pulling_a_pyramid_apex_falls_back_to_the_next_ray(self):
        # the apex (-5,0,1,1) sorts first, and its one facet missing it is the
        # square base, so pulling it leaves the cone as it is
        rays = [(-5, 0, 1, 1), (1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)]
        fan = Fan.build(4, rays, [(0, 1, 2, 3, 4)])
        assert stellar_subdivision(fan, rays[0]).fine == fan
        for rng in (None, random.Random(0)):
            sub = resolve(fan, rng=rng)
            assert sub.fine.is_smooth() and len(sub.fine.maximal_cones) > 1
            assert all(fan.cone_objects[0].contains(r) for r in sub.fine.rays)

    def test_a_strip_of_more_squares_than_any_fixed_step_cap_resolves(self):
        # each square takes one pull of a ray of its own: 1,010 steps in
        # phase 1, which is bounded by the number of rays
        n = 1010
        rays = [(i, j, 1) for i in range(n + 1) for j in range(2)]
        cones = [(2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3) for i in range(n)]
        sub = resolve(Fan.build(3, rays, cones, validate=False))
        assert len(sub.fine.maximal_cones) == 2 * n and sub.fine.is_smooth()

    def test_more_stellar_steps_than_any_fixed_step_cap_resolve(self):
        # multiplicity 10,002 takes 10,001 stellar steps, one per interior
        # Hilbert basis vector (1, k); each lowers the excess multiplicity
        sub = resolve(Fan.build(2, [(1, 0), (1, 10002)], [(0, 1)]))
        assert len(sub.fine.maximal_cones) == 10002 and sub.fine.is_smooth()

    def test_tied_singular_cones_resolve_as_pinned(self):
        """Resolutions of fans with up to 40 singular cones of one top
        multiplicity, with and without an rng, serialize as pinned: the
        default subdivides the first such cone in fan order, and an rng draws
        from the singular cones in fan order."""
        docs = [resolve(tied_singular_fan(m), rng=rng).to_json()
                for m in range(2, 41) for rng in (None, random.Random(1), random.Random(7))]
        digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        assert digest == "3e80eab8aaff809fcca7b9e7a824f77e28e466df1ad6411166264dce35ab7f13"

    def test_rank3_cones_resolve_as_pinned(self):
        """Resolutions of <e1, e2, (1, b, m)> for 2 <= m < 200, with b = 1 and
        the least unit mod m from m // 3 on, serialize as pinned."""
        docs = [resolve(fan).to_json() for fan in rank3_cones(200)]
        assert len(docs) == 392
        digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        assert digest == "337ae92aa2f7348bd1cdcaa32a0d06a434011ddb527def99e8344861500bca6c"

    def test_tied_cone_fans_resolve_as_pinned(self):
        """Resolutions of the tied fan coned over (0, 0, 1), with up to 40
        singular cones of one top multiplicity, with and without an rng and
        with 0 or 2 extra rounds, serialize as pinned, and so does the state
        of the rng afterwards."""
        docs = []
        for m in range(2, 41):
            fan = tied_cone_fan(m)
            for seed in (None, 1, 7):
                for extra in (0, 2):
                    rng = None if seed is None else random.Random(seed)
                    docs.append([resolve(fan, rng=rng, extra_rounds=extra).to_json(),
                                 rng and rng.random()])
        digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        assert digest == "059545068b73a59cea8d2e7dff50f37f0bdd794b615f3e1562c720c8e43fc86b"

    def test_no_fan_position_is_looked_up_during_a_resolve(self, monkeypatch):
        """Resolving a rank-3 fan with 300 cones of multiplicity 2, the tied
        fan's cones coned over (0, 0, 1), runs one step per singular cone,
        each holding one cone, and looks up no fan position: it calls no
        list.index.  Neither does the rank-2 tied fan, which makes no
        refinement at all, nor the cube with extra rounds, whose steps hold
        up to four cones."""
        m = 300
        fan = Fan.build(3, [(1, 2 * j, 0) for j in range(m + 1)] + [(0, 0, 1)],
                        [(j, j + 1, m + 1) for j in range(m)], validate=False)
        lookups, steps = [], []

        def profile(frame, event, arg):
            # list.index, or the same search as operator.indexOf
            name = getattr(arg, "__name__", None)
            if event == "c_call" and (name == "indexOf"
                                      or name == "index" and isinstance(arg.__self__, list)):
                lookups.append(arg)

        def profiled(fan, **kwargs):
            sys.setprofile(profile)
            try:
                return resolve(fan, **kwargs)
            finally:
                sys.setprofile(None)

        step = fan_module._Refinement.step
        monkeypatch.setattr(fan_module._Refinement, "step",
                            lambda ref, ray, holding, *known: steps.append(len(holding)) or step(ref, ray, holding, *known))
        assert profiled(fan).fine.is_smooth()
        assert steps == [1] * m and lookups == []
        steps.clear()
        cube = profiled(catalog.cube_fan(), rng=random.Random(3), extra_rounds=2)
        assert len(cube.fine.maximal_cones) == 52
        assert max(steps) > 1 and lookups == []
        monkeypatch.setattr(fan_module._Refinement, "__init__", lambda ref, fan: steps.append(fan))
        steps.clear()
        assert profiled(tied_singular_fan(m)).fine.is_smooth() and steps == [] and lookups == []

    def test_identity_composition(self, p112):
        ident = SubdivisionMap.identity(p112)
        assert ident.fine == ident.coarse == p112

    @pytest.mark.parametrize("n", [50, 200])
    def test_each_step_builds_only_its_new_cones(self, n, monkeypatch):
        """Building and resolving the 2-dimensional cone <(1,0,0),(1,N,0)>
        beside the ray (0,0,1) takes two Smith forms (``span_coordinates``),
        one per input cone: each piece of a step takes its cell's
        coordinates, where each took a Smith form of its own (2N in all), and
        so does each of the fine fan's cones, read with its facets.
        The result is the minimal resolution of the A_{N-1} singularity: the
        rays (1,k,0) for 0 <= k <= N, consecutive ones spanning a cone
        (Fulton, Introduction to Toric Varieties, 2.6), beside (0,0,1)."""
        span, calls = fan_module.span_coordinates, []
        monkeypatch.setattr(fan_module, "span_coordinates",
                            lambda rank, vectors: calls.append(tuple(vectors)) or span(rank, vectors))
        fan = Fan.build(3, [(1, 0, 0), (1, n, 0), (0, 0, 1)], [(0, 1), (2,)])
        fine = resolve(fan).fine
        assert all(cone.multiplicity() == 1 and len(cone.facets) == cone.dim for cone in fine.cone_objects)
        assert sorted(calls) == [((0, 0, 1),), ((1, 0, 0), (1, n, 0))]
        assert set(fine.rays) == {(1, k, 0) for k in range(n + 1)} | {(0, 0, 1)}
        assert {tuple(sorted(fine.rays[i] for i in c)) for c in fine.maximal_cones} == {
            ((1, k, 0), (1, k + 1, 0)) for k in range(n)} | {((0, 0, 1),)}

    def test_an_a_cone_resolves_without_scans_into_one_fan(self, monkeypatch):
        """Resolving <(1,0),(1,N)> finds the cones holding each new ray from
        the incidence map, with at most 2N Cone.contains calls where a scan
        per step made N(N-1)/2, and builds one fan, the fine one, in one
        ``_fine_map`` with no ``Fan.build``."""
        n = 200
        fan = Fan.build(2, [(1, 0), (1, n)], [(0, 1)])
        contains, build, fine_map, calls = Cone.contains, Fan.build, fan_module._fine_map, []
        monkeypatch.setattr(Cone, "contains",
                            lambda cone, v: calls.append("contains") or contains(cone, v))
        monkeypatch.setattr(Fan, "build",
                            staticmethod(lambda *a, **k: calls.append("build") or build(*a, **k)))
        monkeypatch.setattr(fan_module, "_fine_map", lambda *a: calls.append("fine") or fine_map(*a))
        resolve(fan)
        assert calls.count("contains") <= 2 * n and calls.count("fine") == 1 and "build" not in calls

    def test_an_a_cone_resolves_with_no_cone_or_adjugate(self, monkeypatch):
        """Resolving <(1,0),(1,41)> splits its cones on plain integers: it
        builds no Cone and runs no refinement step, adjugate, Smith form,
        rank elimination or vertex enumeration, where each of its 40 steps
        built two cones, each with its adjugate."""
        fan = Fan.build(2, [(1, 0), (1, 41)], [(0, 1)])
        calls = []

        def counted(name, f):
            return lambda *a, **k: calls.append(name) or f(*a, **k)

        patches = [(module, name) for module in (fan_module, lattice_module)
                   for name in ("smith_normal_form", "independent_rows", "adjugate")]
        patches += [(lattice_module, "matrix_rank"), (fan_module, "extreme_rays_of_region")]
        for module, name in patches:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        init = Cone.__init__
        monkeypatch.setattr(Cone, "__init__", lambda self, *a: calls.append("Cone") or init(self, *a))
        monkeypatch.setattr(fan_module._Refinement, "step", lambda *a: calls.append("step"))
        fine = resolve(fan).fine
        assert len(fine.maximal_cones) == 41 and calls == []
        assert fine.is_smooth() and calls.count("adjugate") == calls.count("Cone") == 41

    def test_extra_rounds_build_one_fine_fan(self, cube, monkeypatch):
        # one _fine_map per resolve, and no Fan.build inside it
        build, fine_map, calls = Fan.build, fan_module._fine_map, []
        monkeypatch.setattr(Fan, "build",
                            staticmethod(lambda *a, **k: calls.append("build") or build(*a, **k)))
        monkeypatch.setattr(fan_module, "_fine_map", lambda *a: calls.append("fine") or fine_map(*a))
        sub = resolve(cube, rng=random.Random(5), extra_rounds=40)
        assert calls == ["fine"] and len(sub.fine.maximal_cones) == 128

    @pytest.mark.parametrize("step, message", [
        (lambda self, ray, holding: None, "no subdividing ray found"),
        (lambda self, ray, holding: [(holding[0][3], holding[:1])],
         "simplicialization did not terminate"),
    ], ids=["no-change", "no-progress"])
    def test_a_stalled_simplicialization_is_a_check_failure(self, cube, monkeypatch, step, message):
        monkeypatch.setattr(fan_module._Refinement, "step", step)
        with pytest.raises(ResolutionCheckFailed, match=message):
            resolve(cube)

    def test_ambiguous_piece_is_a_check_failure(self):
        # both overlapping cones hold (2, 1), and both give the piece <(1,0),(2,1)>
        fan = Fan.build(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)], validate=False)
        with pytest.raises(ResolutionCheckFailed, match=r"ambiguous subdivision piece \(0, 3\)"):
            stellar_subdivision(fan, (2, 1))

    def test_a_singular_extra_round_is_a_check_failure(self, p2, monkeypatch):
        # refining at 2 g_a + g_b in place of g_a + g_b leaves a piece of multiplicity 2
        monkeypatch.setattr(chains_module, "vec_add", lambda u, v: tuple(2 * x + y for x, y in zip(u, v)))
        for fan, ray in ((p2, (1, 2)), (catalog.projective_space(3), (-2, -2, -1))):
            with pytest.raises(ResolutionCheckFailed,
                               match=re.escape(f"refining at {ray} left a singular cone")):
                resolve(fan, extra_rounds=1)
        (chained, _), (refined, _) = resolve_both_ways(p2, extra_rounds=1)
        assert chained == refined

    def test_a_drawn_point_left_non_primitive_is_a_check_failure(self, monkeypatch):
        # a least parallelepiped point is primitive, so a step takes it as
        # drawn and the fine map's check is the guard: the first point of
        # <e1, e2, (-1,-1,3)>, (0,0,1), drawn doubled: both pieces through
        # (0,0,2) drop to multiplicity 2, and the next step, at (0,0,1),
        # leaves (0,0,2) on no cone
        drawn, least = [], fan_module._least_box_point

        def doubled(cell, draw):
            drawn.append(least(cell, draw))
            return vec_scale(2, drawn[-1]) if len(drawn) == 1 else drawn[-1]

        monkeypatch.setattr(fan_module, "_least_box_point", doubled)
        fan = Fan.build(3, [(1, 0, 0), (0, 1, 0), (-1, -1, 3)], [(0, 1, 2)])
        with pytest.raises(ResolutionCheckFailed, match=re.escape(
                "the refinement's ray (0, 0, 2) is not a primitive vector of rank 3")):
            resolve(fan)
        assert drawn == [(0, 0, 1), (0, 0, 1)]

    def test_a_repeated_ray_set_is_not_a_fan(self, p112, monkeypatch):
        # the rank-2 path reads its cells in fan order only to build the fine
        # fan: give it the last cell twice
        monkeypatch.setattr(fan_module, "fan_order", lambda cell: (lambda cells: cells + cells[-1:])(
            chains_module.fan_order(cell)))
        for fan in (p112, catalog.singular_quadric_cone_fan()):
            with pytest.raises(NotAFan, match="^duplicate maximal cones$"):
                resolve(fan)

    def test_an_unused_ray_is_not_a_fan(self, monkeypatch):
        # the cone on (1,0), (1,1), (0,1) lists (1,1) though it is no extreme
        # ray, so no piece of the step at (1,2) has it
        fan = Fan.build(2, [(1, 0), (1, 1), (0, 1)], [(0, 1, 2)], validate=False)
        with pytest.raises(NotAFan, match="^every ray must appear in some maximal cone$"):
            stellar_subdivision(fan, (1, 2))
        # the resolution of <(1,0),(1,2)> without its first cell, <(1,0),(1,1)>
        monkeypatch.setattr(fan_module, "fan_order", lambda cell: chains_module.fan_order(cell)[1:])
        with pytest.raises(NotAFan, match="^every ray must appear in some maximal cone$"):
            resolve(catalog.singular_quadric_cone_fan())

    def test_an_extra_round_that_changes_nothing_is_a_check_failure(self, p2, monkeypatch):
        # refining at g_a in place of g_a + g_b leaves every cone as it is
        monkeypatch.setattr(chains_module, "vec_add", lambda u, v: u)
        for fan, ray in ((p2, (0, 1)), (catalog.projective_space(3), (-1, -1, -1))):
            with pytest.raises(ResolutionCheckFailed, match=re.escape(f"refining at {ray} changed no cone")):
                resolve(fan, extra_rounds=1)
        (chained, _), (refined, _) = resolve_both_ways(p2, extra_rounds=1)
        assert chained == refined

    def test_extra_rounds_split_cells_of_two_or_more_generators(self):
        """Each extra round is drawn among the cells it can split, so a fan
        with a cell of one generator still takes every round it asks for,
        on both paths; a fan with none, such as P^1, takes none."""
        fan = Fan.build(2, [(1, 0), (0, 1), (-1, -1)], [(0,), (1, 2)])
        for seed, rounds in ((None, 1), (None, 2), (1, 2), (2, 2), (3, 2), (4, 3)):
            (chained, _), (refined, _) = resolve_both_ways(fan, seed, rounds)
            assert chained == refined
            fine = resolve(fan, rng=_seeded(seed), extra_rounds=rounds).fine
            assert len(fine.rays) == 3 + rounds and len(fine.maximal_cones) == 2 + rounds, seed
            assert fine.is_smooth() and (0,) in fine.maximal_cones
        mixed = Fan.build(3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], [(0, 1), (1, 2), (3,)])
        fine = resolve(mixed, rng=random.Random(1), extra_rounds=2).fine
        assert len(fine.rays) == 6 and (3,) in fine.maximal_cones
        p1 = catalog.projective_line()
        assert resolve(p1, rng=random.Random(1), extra_rounds=2) == SubdivisionMap.identity(p1)

    @pytest.mark.parametrize("extra, message", [
        (1.5, "an integer, got 1.5"), (True, "an integer, got True"), ("2", "an integer, got '2'"),
        (-1, "nonnegative, got -1")])
    def test_extra_rounds_must_be_a_nonnegative_int(self, p2, cube, extra, message):
        # refused before either path runs
        for fan in (p2, cube):
            with pytest.raises(ValueError, match=re.escape(f"extra_rounds must be {message}")):
                resolve(fan, extra_rounds=extra)

    def test_a_point_outside_the_chosen_cone_is_a_check_failure(self, p112, monkeypatch):
        monkeypatch.setattr(chains_module, "least_chain_points", chain_points(lambda g1, g2, mult: (-mult, 0)))
        monkeypatch.setattr(fan_module, "_least_box_point",
                            lambda cell, draw: tuple(-x for x in cell[1][0]))
        for fan, ray in ((p112, (1, 2)), (catalog.rank3_multiplicity3_fan(), (0, 0, -1))):
            with pytest.raises(ResolutionCheckFailed,
                               match=re.escape(f"{ray} does not lie in the cone it subdivides")):
                resolve(fan)
        (chained, _), (refined, _) = resolve_both_ways(p112)
        assert chained == refined

    @pytest.mark.parametrize("point, ray", [
        (lambda g1, g2: (g1[0], g1[1], g1[2] + 1), (1, 0, 1)),
        (lambda g1, g2: tuple(-x for x in g1), (-1, 0, 0)),
    ], ids=["off-plane", "in-plane"])
    def test_a_point_outside_a_chain_record_is_a_check_failure(self, monkeypatch, point, ray):
        # a record of rank 3 refuses a point off its plane before any
        # determinant, and one on it outside the cone by its signs, as the
        # all-Cone path refuses both
        fan = Fan.build(3, [(1, 0, 0), (1, 2, 0), (0, 0, 1)], [(0, 1), (2,)])
        least = lambda cell, draw: point(*cell[1])
        monkeypatch.setattr(fan_module, "drawn_chain_point", least)
        with pytest.raises(ResolutionCheckFailed, match=re.escape(f"{ray} does not lie in the cone it subdivides")):
            resolve(fan)
        (chained, _), (general, _) = resolve_both_ways(fan, least=least)
        assert chained == general

    def test_steps_carry_unchanged_cones_and_match_the_replaced_path(self, monkeypatch):
        """At every refinement step of a resolution of rank >= 3 the cells
        found to hold the new ray, from the incidence map, are those a
        Cone.contains scan over the current cells finds, a cell's own Cone or
        a fresh one on a record's generators; every cell holding it has the
        same smallest face holding it, whose star is the holding set, and on
        every simplicial cone that face is the one the adjugate solve found;
        every cell the step leaves keeps its slot 5, its Cone or its record's
        S, the cells then run in fan order with each holding cell replaced by
        its pieces in its place, the first piece taking the cell over, and
        each piece is reported with the multiplicity of the cell it
        replaces.  Each new piece of a refinement step, and of every chain
        split (rank 2), holds the sorted generators of a fresh
        Cone.from_generators on its rays and their ray indices; a piece with
        its Cone (while pulling) is not simplicial and has that cone, and
        every simplicial piece is a record from the moment it is made, with
        |det| of its generators (these cells are all full-dimensional, in the
        frame of N, the caller's table) and the fresh cone's scaled inverse
        as its S, the rows a chain split turns from x's local vector
        included.  Every resolved fan's cone objects equal fresh
        ones, with the same multiplicity, scaled inverse and facets, each
        handed its (det, adj) up to sign when the fan is built, and the
        serialized resolutions equal those of the all-Cone path (compared
        directly in rank 2, where chain records run no refinement step),
        pinned by their digest."""
        step_through, init = fan_module._Refinement.step, fan_module._Refinement.__init__
        chain_split = fan_module.chain_split
        steps, splits, fresh = [], [], functools.cache(Cone.from_generators)

        def check_pieces(rays, frames, replaced):
            for _, pieces in replaced:
                for rs, gens, gen_rays, mult, source, slot, _ in pieces:
                    cone = Cone.from_generators(len(rays[0]), [rays[j] for j in rs])
                    assert gens == cone.generators and gen_rays == tuple(map(rays.index, gens))
                    if isinstance(slot, Cone):
                        assert slot == cone and mult == 0 and not cone.is_simplicial
                    else:
                        assert frames[source] is None and cone.dim == len(gens) == len(rays[0])
                        assert mult == abs(det_expansion(gens)) and slot == list(cone._scaled_inverse)

        def chain_checked(index, frames):
            split = chain_split(index, frames)

            def checked_split(cell, x):
                change = split(cell, x)
                check_pieces(list(index), frames, change or ())
                splits.append(x)
                return change
            return checked_split

        def first_kept(ref, rank, index, cells, frames):
            # every cell of these fans of rank >= 3 is in the refinement, so the first is the fan's
            init(ref, rank, index, cells, frames)
            ref.first = cells[0]

        def cone_of(ref, cell):
            return cell[5] if isinstance(cell[5], Cone) else fresh(ref.rank, cell[1])

        def checked(ref, ray, holding, *known):
            cells = chains_module.fan_order(ref.first)
            held = [id(cell) for cell in holding]
            assert sorted(held) == sorted(id(cell) for cell in cells if cone_of(ref, cell).contains(ray))
            faces = set()
            for cell in cells:
                cone, gen_rays = cone_of(ref, cell), cell[2]
                face = cone._smallest_face(ray)
                if cone.is_simplicial:
                    assert face == smallest_face_by_adjugate(cone, ray)
                if face is not None:
                    faces.add(tuple(sorted(gen_rays[i] for i in face)))
            assert len(faces) == 1 and sorted(map(id, ref.star(faces.pop()))) == sorted(held)
            before = [(cell, cell[5], cell[3]) for cell in cells]
            change = step_through(ref, ray, holding, *known)
            replaced = {id(pieces[0]): (was, pieces) for was, pieces in change or ()}
            assert sorted(replaced) == (sorted(held) if change else [])
            for cell, slot, mult in before:
                if id(cell) in replaced:
                    assert replaced[id(cell)][0] == mult
                else:
                    assert cell[5] is slot
            assert [id(c) for c in chains_module.fan_order(ref.first)] == [
                id(piece) for cell, _, _ in before
                for piece in (replaced[id(cell)][1] if id(cell) in replaced else [cell])]
            check_pieces(list(ref.ray_index), ref.frames, replaced.values())
            steps.append(ray)
            return change

        monkeypatch.setattr(fan_module._Refinement, "step", checked)
        monkeypatch.setattr(fan_module._Refinement, "__init__", first_kept)
        monkeypatch.setattr(fan_module, "chain_split", chain_checked)
        cases = step_cases()
        docs = []
        for fan, seed, extra in cases:
            sub = resolve(fan, rng=_seeded(seed), extra_rounds=extra)
            if fan.rank == 2:
                # chain records run no refinement step: compare with the all-Cone path
                assert resolve_all_cones(fan, _seeded(seed), extra).to_json() == sub.to_json()
            fine = sub.fine
            for rs, cone in zip(fine.maximal_cones, fine.cone_objects):
                assert "_adjugate" in cone.__dict__
                new = Cone.from_generators(fine.rank, [fine.rays[k] for k in rs])
                assert (cone, cone.multiplicity(), cone._scaled_inverse, cone.facets) == (
                    new, new.multiplicity(), new._scaled_inverse, new.facets)
            docs.append(sub.to_json())
        assert len(cases) == 173 and len(steps) > 1000 and len(splits) > 1000
        digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        assert digest == "4d5d87c999e55fb90ae4fdf56b8b220de63c486029e14a9994d1b098f1760701"


def _seeded(seed):
    return None if seed is None else random.Random(seed)


def tied_maps():
    for m in range(2, 41):
        for seed in (None, 1, 7):
            yield resolve(tied_singular_fan(m), rng=_seeded(seed))


def tied_cone_maps():
    for m in range(2, 41):
        fan = tied_cone_fan(m)
        for seed in (None, 1, 7):
            for extra in (0, 2):
                yield resolve(fan, rng=_seeded(seed), extra_rounds=extra)


def mixed_maps():
    for fan in random_mixed_fans(20261019, 30):
        if fan.rank <= 3:
            yield resolve(fan)
            yield resolve(fan, rng=random.Random(5), extra_rounds=2)


def plane_maps():
    """Fans of singular 2-dimensional cones in ranks 3 and 4, in planes off
    the coordinate planes, so that no cone's frame is a sub-basis of N: the
    A-cones <(1,0),(1,n)> for n = 3, 5 and a tied chain of three cones on
    (1, 2j), each the image of the plane under a seeded injection whose two
    image vectors have no zero coordinate, and in rank 4 two such cones in
    independent planes; each resolved with seeds None and 1 and 0 or 2
    extra rounds."""
    rng = random.Random(20261021)
    for rank in (3, 4):
        plane_fans = []
        for points, cones in ([[(1, 0), (1, 3)], [(0, 1)]], [[(1, 0), (1, 5)], [(0, 1)]],
                              [[(1, 2 * j) for j in range(4)], [(0, 1), (1, 2), (2, 3)]]):
            while True:
                image = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(2)]
                rays = [primitive_vector([a * x + b * y for x, y in zip(*image)]) for a, b in points]
                if all(map(all, image)) and matrix_rank(image) == 2:
                    fan = Fan.build(rank, rays, cones)
                    if all(c.multiplicity() > 1 for c in fan.cone_objects):
                        plane_fans.append(fan)
                        break
        if rank == 4:
            first, second = (fan.rays for fan in plane_fans[:2])
            plane_fans.append(Fan.build(4, [*first, *second], [(0, 1), (2, 3)]))
        for fan in plane_fans:
            for seed in (None, 1):
                for extra in (0, 2):
                    yield resolve(fan, rng=_seeded(seed), extra_rounds=extra)


def cube_maps():
    cube = catalog.cube_fan()
    for seed in (None, 1, 2, 3, 99):
        for extra in (0, 1, 2, 5):
            yield resolve(cube, rng=_seeded(seed), extra_rounds=extra)


def stellar_maps():
    p112, cube = catalog.weighted_p112(), catalog.cube_fan()
    for fan, ray in ((p112, (0, -1)), (p112, (1, 1)), (catalog.projective_plane(), (1, 1)),
                     (cube, (1, 0, 0)), (cube, (1, 1, 1)), (cube, (1, 1, 0)),
                     (catalog.rank3_multiplicity3_fan(), (1, 1, 1)),
                     (Fan.build(2, [(1, 0), (0, 1)], [(0, 1)]), (1, 1))):
        yield stellar_subdivision(fan, ray)


def assert_matches_fresh_cone(cone, fresh):
    """A fine fan's cone against ``Cone.from_generators`` on its rays: equal
    and of one dimension, with equal facets at full dimension; below it the
    same contacts and the same pairings of each normal with every
    generator, so the same normals on the span, off which a normal is an
    arbitrary choice of coordinates.  A simplicial cone's multiplicity is
    ``multiplicity_by_adjugate``'s, and its scaled inverse pairs with its
    local generators to mult * delta."""
    assert cone == fresh and cone.dim == fresh.dim
    if cone.dim == cone.rank:
        assert cone.facets == fresh.facets
    else:
        def on_span(c):
            return [(tuple(pair(u, g) for g in c.generators), contact) for u, contact in c.facets]
        assert on_span(cone) == on_span(fresh)
    if cone.is_simplicial:
        mult, d = cone.multiplicity(), cone.dim
        assert mult == fresh.multiplicity() == multiplicity_by_adjugate(cone)
        assert mat_mul(cone._scaled_inverse, transpose(cone.local_generators)) == tuple(
            tuple(mult * (i == j) for j in range(d)) for i in range(d))


class TestFineFanAgainstBuild:
    """``resolve`` and ``stellar_subdivision`` build their fine fan and its
    pieces' cones from the refinement's own data, with no ``Fan.build`` and
    no ``Cone.from_generators``, each piece in its cell's coordinates: each
    agrees with what the replaced path built that way
    (``assert_matches_fresh_cone``), on the pinned resolve corpora and on
    stellar maps."""

    @pytest.mark.parametrize("maps, count", [
        (lambda: (resolve(fan, rng=_seeded(seed), extra_rounds=extra) for fan, seed, extra in step_cases()), 173),
        (lambda: map(resolve, rank3_cones(200)), 392),
        (tied_maps, 117),
        (tied_cone_maps, 234),
        (mixed_maps, 24),
        (plane_maps, 28),
        (cube_maps, 20),
        (stellar_maps, 8),
    ], ids=["steps", "rank3", "tied", "tied-cone", "mixed", "plane", "cube", "stellar"])
    def test_fine_fans_and_cones_match_the_replaced_path(self, maps, count):
        seen = 0
        for sub in maps():
            fine = sub.fine
            assert fine == Fan.build(fine.rank, fine.rays, fine.maximal_cones, validate=False)
            for rs, cone in zip(fine.maximal_cones, fine.cone_objects):
                assert_matches_fresh_cone(cone, Cone.from_generators(fine.rank, [fine.rays[k] for k in rs]))
            seen += 1
        assert seen == count


class TestPiecesInTheirCellsCoordinates:
    @pytest.mark.parametrize("rank", [3, 4])
    def test_an_a_cone_in_higher_rank_resolves_to_the_image_of_its_rank2_resolution(self, rank, monkeypatch):
        """The rank-2 fan of <(1,0),(1,N)>, the smooth cone <(-1,0),(0,-1)>
        and the rays (-1,1) and (-1,2), mapped into rank 3 or 4 by a seeded
        lower unitriangular L, which keeps the lexicographic order of the
        plane's points, with (-1,1) sent off the plane to L e3 (and (-1,2) to
        L e4 in rank 4), resolves on the general path, with and without an
        rng and with 0-2 extra rounds, to the image of the rank-2
        resolution: the same ray order, cones and assignment, the rng left
        in the same state.  Its 2-dimensional pieces each take their cell's
        coordinates, so building and resolving it takes one Smith form per
        input cone."""
        span, calls = fan_module.span_coordinates, []
        monkeypatch.setattr(fan_module, "span_coordinates",
                            lambda r, vectors: calls.append(r) or span(r, vectors))
        rng = random.Random(20261019 + rank)
        off_plane = {(-1, 1): 2, (-1, 2): 3} if rank == 4 else {(-1, 1): 2}
        cases = 0
        for _ in range(2):
            lower = tuple(tuple(1 if i == j else rng.randint(-3, 3) if j < i else 0 for j in range(rank))
                          for i in range(rank))

            def image(v):
                e = identity_matrix(rank)[off_plane[v]] if v in off_plane else v + (0,) * (rank - 2)
                return mat_vec(lower, e)

            for n in (2, 7, 29):
                rays = [(1, 0), (1, n), (-1, 0), (0, -1), (-1, 1), (-1, 2)]
                plane = Fan.build(2, rays, [(0, 1), (2, 3), (4,), (5,)])
                for seed in (None, 1, 7):
                    for extra in range(3):
                        calls.clear()
                        fan = Fan.build(rank, list(map(image, rays)), plane.maximal_cones)
                        rngs = [_seeded(seed), _seeded(seed)]
                        want, got = (resolve(f, rng=r, extra_rounds=extra)
                                     for f, r in zip((plane, fan), rngs))
                        assert got.fine.rays == tuple(map(image, want.fine.rays))
                        assert got.fine.maximal_cones == want.fine.maximal_cones
                        assert got.assignment == want.assignment
                        assert rngs[0] is None or rngs[0].getstate() == rngs[1].getstate()
                        assert calls == [rank] * 4
                        cases += 1
        assert cases == 54


class TestLeastBoxPoints:
    @given(st.integers(0, 99999))
    @settings(max_examples=150, deadline=None)
    def test_two_dimensional_cones_match_the_listing(self, seed):
        """On a 2-dimensional cone of multiplicity up to 5,000, in ambient
        rank 2 to 4, the point drawn from the Hilbert basis walk at each
        index is that point of the least slice of the listed parallelepiped,
        and the draw is among as many points as the slice holds."""
        rng = random.Random(seed)
        rank, bound = rng.randint(2, 4), rng.choice((3, 12, 50))
        while True:
            gens = [tuple(rng.randint(-bound, bound) for _ in range(rank)) for _ in range(2)]
            if len(smith_diagonal_oracle(gens)) == 2:
                cone = Cone.from_generators(rank, gens)
                if 2 <= cone.multiplicity() <= 5000:
                    break
        assert least_box_points_drawn(cone) == least_box_points_listing(cone)[1]

    @pytest.mark.parametrize("n", [2, 3, 41, 1000])
    def test_an_a_cone_gives_its_whole_segment(self, n):
        # every (1, k), 0 < k < n, has coefficient sum 1 on <(1,0),(1,n)>
        points = least_box_points_drawn(Cone.from_generators(2, [(1, 0), (1, n)]))
        assert points == [(1, k) for k in range(1, n)]

    @given(st.integers(0, 99999), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_rank2_resolutions_match_the_listing_path(self, seed, extra):
        """resolve serializes the same, with and without an rng, whether its
        chain records read each step's point from the Hilbert basis walk or
        the all-Cone path lists them."""
        rng = random.Random(seed)
        cases = [random_complete_rank2_data(rng)]
        gens = [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(2)]
        if len(smith_diagonal_oracle(gens)) == 2:
            cases.append((2, sorted({primitive_vector(g) for g in gens}), [(0, 1)]))
        for rank, rays, cones in cases:
            try:
                fan = Fan.build(rank, rays, cones)
            except PExpFanError:
                continue
            for s in (None, seed):
                chained = resolve(fan, rng=None if s is None else random.Random(s), extra_rounds=extra)
                listed = resolve_all_cones(fan, None if s is None else random.Random(s), extra,
                                           least_box_point_listed)
                assert chained.to_json() == listed.to_json()

    def test_the_rank2_phase_replays_the_general_path(self):
        """On rank-2 fans, with and without an rng and with 0 to 3 extra
        rounds, chain records give the document, or the error, of the
        all-Cone path, and leave the rng in the same state."""
        rng = random.Random(20261019)
        datas = [random_complete_rank2_data(rng) for _ in range(150)]
        datas += [(2, [(1, 0), (1, n)], [(0, 1)]) for n in range(2, 91)]
        fans = [catalog.weighted_p112(), catalog.projective_plane(), catalog.hirzebruch(3),
                Fan.build(2, [(1, 0), (1, 7), (-1, -3)], [(0, 1), (2,)]),
                Fan.build(2, [(1, 0), (-1, 0)], [(0, 1)], validate=False),
                # not a fan: the ray (1, 1) lies inside <(1,0),(1,2)>, whose point it is
                Fan.build(2, [(1, 0), (1, 2), (1, 1)], [(0, 1), (2,)], validate=False)]
        fans += [tied_singular_fan(m) for m in range(2, 41)]
        for data in datas:
            try:
                fans.append(Fan.build(*data))
            except PExpFanError:
                pass
        assert len(fans) > 200
        for i, fan in enumerate(fans):
            for extra in range(4):
                for seed in (None, i):
                    chained, general = resolve_both_ways(fan, seed, extra)
                    assert chained == general, (fan, seed, extra)

    def test_mixed_fans_replay_the_all_cone_path(self):
        """On the random mixed fans of rank 3 and 4, whose cells of at most
        two rays are chain records beside cells with their Cone, with and
        without an rng and with 0 to 3 extra rounds, resolve gives the
        document, or the error, of the all-Cone path, and leaves the rng in
        the same state."""
        fans = [fan for fan in random_mixed_fans(20261019, 30) if fan.rank >= 3]
        assert len(fans) > 10 and any(len(c) == 2 for fan in fans for c in fan.maximal_cones)
        for i, fan in enumerate(fans):
            for extra in range(4):
                for seed in (None, i):
                    chained, general = resolve_both_ways(fan, seed, extra)
                    assert chained == general, (fan, seed, extra)

    def test_simplicial_cones_of_dim_3_to_5_replay_the_all_cone_path(self):
        """On seeded simplicial cones of dim 3 to 5 in ranks 3 to 5, of
        multiplicity 2 to 40, and on <e1, e2, (1, b, m)> for (b, m) = (2, 5)
        and (11, 29) in ranks 4 and 5 under a unimodular map, the cones below
        full dimension split on records in their Smith form's frame (a
        3-dimensional cone in rank 4 and in rank 5, and a 4-dimensional one
        in rank 5), with and without an rng and
        with 0 to 2 extra rounds, resolve gives the document of the all-Cone
        path and leaves the rng in the same state."""
        rng = random.Random(20261020)
        fans = []
        for rank, dim in ((3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (5, 5)):
            for _ in range(4):
                cone = random_simplicial_cone(rng, rank, dim)
                while not 2 <= cone.multiplicity() <= (40 if dim < 5 else 12):
                    cone = random_simplicial_cone(rng, rank, dim)
                fans.append(Fan.build(rank, cone.generators, [tuple(range(dim))]))
        lower = ((1, 0, 0, 0, 0), (2, 1, 0, 0, 0), (-1, 3, 1, 0, 0), (0, 1, -2, 1, 0), (1, 0, 1, 1, 1))
        for rank in (4, 5):
            for b, m in ((2, 5), (11, 29)):
                # <e1, e2, (1, b, m)> of multiplicity m, moved off the coordinate planes
                gens = [mat_vec([row[:rank] for row in lower[:rank]], g + (0,) * (rank - 3))
                        for g in ((1, 0, 0), (0, 1, 0), (1, b, m))]
                fans.append(Fan.build(rank, gens, [(0, 1, 2)]))
                assert fans[-1].cone_objects[0].multiplicity() == m
        assert sum(fan.cone_objects[0].dim < fan.rank for fan in fans) == 16
        for i, fan in enumerate(fans):
            for extra in range(3):
                for seed in (None, i):
                    chained, general = resolve_both_ways(fan, seed, extra)
                    assert chained == general, (fan, seed, extra)
                    assert not isinstance(chained[0], tuple), chained

    def test_only_cones_of_dim_3_or_more_list_their_parallelepiped(self, monkeypatch):
        listed, cells = fan_module._box_points, []
        monkeypatch.setattr(fan_module, "_box_points",
                            lambda gens, mult: cells.append(gens) or listed(gens, mult))
        assert resolve(Fan.build(2, [(1, 0), (1, 1000)], [(0, 1)])).fine.is_smooth()
        assert cells == []
        rank3 = Fan.build(3, [(1, 0, 0), (0, 1, 0), (1, 2, 7)], [(0, 1, 2)])
        assert resolve(rank3).fine.is_smooth()
        assert cells and all(len(gens) == 3 for gens in cells)


class TestAgainstOracles:
    @given(st.integers(0, 99999))
    @settings(max_examples=60)
    def test_simplicial_contains_matches_rational_solve(self, seed):
        rng = random.Random(seed)
        rank = rng.randint(1, 4)
        cone = random_simplicial_cone(rng, rank, rng.randint(1, rank))
        cols = tuple(zip(*cone.generators))
        for _ in range(20):
            if rng.random() < 0.5:
                x = tuple(rng.randint(-6, 6) for _ in range(rank))
            else:
                # a point of the span, often with fractional coefficients
                coeffs = [rng.randint(-3, 3) for _ in cone.generators]
                x = tuple(sum(c * g[k] for c, g in zip(coeffs, cone.generators))
                          for k in range(rank))
                g = gcd(*x)
                x = tuple(v // g for v in x) if g else x
            lam = solve_rational(cols, x)
            held = lam is not None and all(v >= 0 for v in lam)
            assert cone.contains(x) == held
            # the smallest face holding x is the support of its coefficients
            assert cone._smallest_face(x) == (
                tuple(i for i, v in enumerate(lam) if v) if held else None)

    def test_a_region_holding_a_line_has_no_extreme_rays(self):
        # the one candidate of the half-plane x >= 0, (0, 1), spans its lineality space
        assert fan_module.extreme_rays_of_region(2, [(1, 0)], ()) == ()

    def test_dependent_equations_give_the_rays_of_an_independent_subset(self):
        """Zero, repeated and combined annihilator rows, put anywhere among
        independent ones, change none of the rays, which match the Smith
        enumeration."""
        rng = random.Random(20261020)
        nonempty = 0
        for _ in range(300):
            n = rng.randint(2, 5)
            while True:
                eqs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n - 1))]
                if matrix_rank(eqs) == len(eqs):
                    break
            ineqs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n, n + 3))]
            dependent = list(eqs)
            for _ in range(rng.randint(1, 4)):
                a, b = rng.choice(eqs), rng.choice(eqs)
                x, y = rng.randint(-2, 2), rng.randint(-2, 2)
                extra = rng.choice(((0,) * n, a, tuple(x * s + y * t for s, t in zip(a, b))))
                dependent.insert(rng.randint(0, len(dependent)), extra)
            want = fan_module.extreme_rays_of_region(n, ineqs, eqs)
            assert fan_module.extreme_rays_of_region(n, ineqs, dependent) == want, (n, ineqs, dependent)
            assert extreme_rays_smith(n, ineqs, dependent) == want
            nonempty += bool(want)
        assert nonempty > 60

    @given(st.integers(0, 99999))
    @settings(max_examples=60)
    def test_facets_match_signed_minor_oracle(self, seed):
        rng = random.Random(seed)
        rank = rng.randint(2, 4)
        count = rng.choice((rank, rank + 1, rank + 3))
        while True:
            # a positive last coordinate keeps every draw pointed
            gens = [tuple(rng.randint(-3, 3) for _ in range(rank - 1)) + (rng.randint(1, 3),)
                    for _ in range(count)]
            cone = Cone.from_generators(rank, gens)
            if cone.dim == rank:
                break
        want = facet_normals_full_dim(cone.generators)
        assert cone.facets == tuple((want[c], c) for c in sorted(want))

    @pytest.mark.parametrize("maps", [cube_maps, mixed_maps, stellar_maps,
                                      lambda: map(resolve, rank3_cones(12))],
                             ids=["cube", "mixed", "stellar", "rank3"])
    def test_unimodular_facets_match_their_primitive_rows(self, maps):
        """A simplicial cone of multiplicity 1 takes the rows of its scaled
        inverse as its facet normals with no ``primitive_vector``: its facets
        are those the rows made primitive give, contact sorted and read
        through its frame below full dimension, on every coarse and fine
        cone of resolutions and stellar maps, and at full dimension those of
        the signed-minor oracle."""
        unimodular = lower = 0
        for sub in maps():
            for cone in sub.fine.cone_objects + sub.coarse.cone_objects:
                if not cone.is_simplicial or not cone.generators:
                    continue
                n = len(cone.generators)
                found = sorted((tuple(i for i in range(n) if i != j), primitive_vector(row))
                               for j, row in enumerate(cone._scaled_inverse))
                if cone._coordinates:
                    found = [(c, mat_vec(transpose(cone._coordinates[0]), u)) for c, u in found]
                    lower += 1
                else:
                    want = facet_normals_full_dim(cone.generators)
                    assert cone.facets == tuple((want[c], c) for c in sorted(want))
                assert cone.facets == tuple((u, c) for c, u in found)
                unimodular += cone.multiplicity() == 1
        assert unimodular > 20 and (lower or maps is not mixed_maps)

    def test_validation_matches_smith_enumeration(self, monkeypatch):
        """Validated Fan.build gives the same verdict, the fan or the error
        class and message, whether the pairwise check enumerates its kernels
        by line_kernel or by the Smith form it used before, and whether
        fans tiling a convex cone are accepted from the wall table or only by
        the pairwise check; the wall table accepts every valid input of
        ``wall_rule_cases``."""
        rng = random.Random(20261018)
        cases = [random_fan_data(rng) for _ in range(1500)]
        cases += [random_complete_rank2_data(rng) for _ in range(300)]
        tilings, broken = wall_rule_cases()
        cases += catalog_resolution_data() + list(DOUBLE_COVERS.values()) + tilings + broken

        def verdicts():
            out = []
            for rank, rays, cones in cases:
                try:
                    out.append(Fan.build(rank, rays, cones).to_json())
                except PExpFanError as exc:
                    out.append((type(exc).__name__, str(exc)))
            return out

        wall_accepts = Fan._wall_accepts
        accepted = []
        with monkeypatch.context() as m:
            m.setattr(Fan, "_wall_accepts", lambda fan: wall_accepts(fan) and not accepted.append(fan))
            got = verdicts()
        with monkeypatch.context() as m:
            m.setattr(fan_module, "extreme_rays_of_region", extreme_rays_smith)
            assert got == verdicts()
        with monkeypatch.context() as m:
            m.setattr(Fan, "_wall_accepts", lambda fan: False)
            assert got == verdicts()
        valid = [v for v in got if isinstance(v, dict)]
        mixed = [v for v in valid
                 if len({matrix_rank([v["rays"][i] for i in c]) for c in v["max_cones"]}) > 1]
        non_face = [v for v in got if not isinstance(v, dict) and "non-face" in v[1]]
        assert len(valid) > 500 and len(mixed) > 100 and len(non_face) > 100
        assert len(accepted) > 250 and max(len(f.maximal_cones) for f in accepted) >= 48
        for rank, rays, cones in DOUBLE_COVERS.values():
            assert not Fan.build(rank, rays, cones, validate=False)._wall_accepts()
        for rank, rays, cones in tilings:
            assert Fan.build(rank, rays, cones, validate=False)._wall_accepts(), (rank, rays, cones)

    @given(st.integers(0, 99999))
    @settings(max_examples=40)
    def test_box_points_count_is_multiplicity_minus_one(self, seed):
        rng = random.Random(seed)
        rank = rng.randint(1, 4)
        cone = random_simplicial_cone(rng, rank, rng.randint(1, rank))
        mult = 1
        for x in smith_diagonal_oracle(cone.generators):
            mult *= x
        assert cone.multiplicity() == mult
        assert_box_points_by_definition(cone)

    def test_box_points_of_a_multiplicity_111_cone(self):
        # the bounding-box scan of this cone visits 501,760 points for 110
        cone = Cone.from_generators(
            4, [(-2, 1, 1, 0), (0, 2, -3, -3), (2, 3, 2, 2), (3, -3, -3, 2)])
        assert cone.multiplicity() == 111
        assert_box_points_by_definition(cone)

    def test_least_box_points_match_the_listing_on_noncyclic_groups(self):
        """On seeded simplicial cones of dim 3 to 5, in ambient rank dim or
        dim + 1 and of multiplicity up to 10^4, ``fan._box_points`` is the
        least slice of the listed parallelepiped.  Each cone's generators are
        the columns of E U diag(factors) W, for unimodular U and W and the
        first dim columns E of a unimodular matrix, so its group is the sum
        of the Z/d_i, often with two or three factors above 1; the
        determinantal divisors confirm the factors."""
        from test_lattice import random_unimodular

        rng = random.Random(20261019)
        mults, noncyclic = [], 0
        while len(mults) < 40:
            dim = rng.randint(3, 5)
            rank = rng.randint(dim, dim + 1)
            f1 = rng.choice((1, 2)) if dim > 3 else 1
            f2 = f1 * rng.choice((1, 2, 3))
            f3 = f2 * max(1, round((10**4 // (f1 * f2 * f2)) ** rng.random()))
            factors = (1,) * (dim - 3) + (f1, f2, f3)
            basis = [row[:dim] for row in random_unimodular(rng, rank)]
            local = mat_mul(mat_mul(random_unimodular(rng, dim), [
                [f if i == j else 0 for j in range(dim)] for i, f in enumerate(factors)]),
                random_unimodular(rng, dim))
            gens = transpose(mat_mul(basis, local))
            if f3 == 1 or any(g != primitive_vector(g) for g in gens):
                continue
            assert smith_diagonal_oracle(gens) == list(factors)
            cone = Cone.from_generators(rank, gens)
            assert cone.multiplicity() == f1 * f2 * f3
            assert box_points(cone) == least_box_points_listing(cone)[1], gens
            mults.append(cone.multiplicity())
            noncyclic += f2 > 1
        assert noncyclic > 10 and max(mults) > 2000

    def test_cone_geometry_matches_the_replaced_paths(self, monkeypatch):
        """Generators, facets, faces and dimension, or the error class and
        message, of seeded random cones are the same whether facets come
        from extreme_rays_of_region or from the subset loop they replaced;
        the generators kept are the extreme ones of the rank test, a cone is
        refused as not strongly convex exactly when its facet normals have
        too small a rank, and the faces of a non-simplicial cone are those
        of the closure loop; and the listed parallelepiped points, and the
        least slice ``fan._box_points`` maps, are those of the bounding-box
        scan wherever it is small."""
        rng = random.Random(20261018)
        cases = []
        for _ in range(3000):
            rank = rng.randint(1, 4)
            cases.append((rank, [tuple(rng.randint(-3, 3) for _ in range(rank))
                                 for _ in range(rng.randint(1, 7))]))

        def verdicts():
            out = []
            for rank, gens in cases:
                try:
                    cone = Cone.from_generators(rank, gens)
                except PExpFanError as exc:
                    out.append((type(exc).__name__, str(exc)))
                    continue
                out.append((cone.generators, cone.facets, cone.faces_as_generator_subsets(),
                            cone.dim))
            return out

        got = verdicts()
        scanned = 0
        for (rank, gens), verdict in zip(cases, got):
            raw = Cone(rank, tuple(sorted({primitive_vector(g) for g in gens if any(g)})))
            if not raw.is_simplicial:
                if not pointed_by_rank(raw):
                    assert verdict[0] == "NotStronglyConvex", gens
                    continue
                assert verdict[0] == extreme_generators_by_rank(raw), gens
            if isinstance(verdict[0], str):
                continue
            cone = Cone(rank, verdict[0])
            if not cone.is_simplicial:
                assert verdict[2] == faces_by_closure(cone), gens
            if cone.is_simplicial and box_scan_size(cone) <= 10_000:
                scanned += 1
                box = box_points_scan(cone)
                assert box_points_listing(cone) == box, gens
                if box:
                    assert box_points(cone) == [x for key, x in box if key == box[0][0]], gens
        monkeypatch.setattr(Cone, "facets", property(facets_by_generator_subsets))
        assert got == verdicts()
        kinds = [v[0] if isinstance(v[0], str) else len(v[0]) > v[3] for v in got]
        assert kinds.count(True) > 200 and kinds.count(False) > 1000 and scanned > 1000
        assert kinds.count("NotStronglyConvex") > 300


def assert_box_points_by_definition(cone):
    """The listed parallelepiped points are mult - 1 distinct points of the
    span, each with coefficients 0 <= lambda < 1 on the generators, keyed by
    mult * sum(lambda); those of least key, in ascending order, are the
    points of ``fan._box_points``."""
    box, mult = box_points_listing(cone), cone.multiplicity()
    assert len(box) == len({x for _, x in box}) == mult - 1
    cols = tuple(zip(*cone.generators))
    for key, x in box:
        lam = solve_rational(cols, x)
        assert lam is not None and all(0 <= v < 1 for v in lam) and key == mult * sum(lam)
    if box:
        assert box_points(cone) == least_box_points_listing(cone)[1]
