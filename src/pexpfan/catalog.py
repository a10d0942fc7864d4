"""Stock fans and classes used by the test corpus, the demo data, and the docs."""

from __future__ import annotations

import itertools

from .errors import ResultCheckFailed
from .fan import Fan
from .ktheory import tangent_weights
from .laurent import LaurentPoly
from .pexp import CartierData, PiecewiseExponential, from_cartier, gkm_validate


def projective_line() -> Fan:
    return Fan.build(1, [(1,), (-1,)], [(0,), (1,)])


def projective_plane() -> Fan:
    return Fan.build(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2), (1, 2)])


def projective_space(n: int) -> Fan:
    rays = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [tuple(sorted(set(range(n + 1)) - {i})) for i in range(n + 1)]
    return Fan.build(n, rays, cones)


def p1_times_p1() -> Fan:
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    return Fan.build(2, rays, [(0, 1), (1, 2), (2, 3), (0, 3)])


def hirzebruch(a: int) -> Fan:
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    return Fan.build(2, rays, [(0, 1), (1, 2), (2, 3), (0, 3)])


def weighted_p112() -> Fan:
    """The complete rank-2 fan with rays e1, e2, -e1-2e2; one cone is singular."""
    return Fan.build(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (0, 2), (1, 2)])


def cube_fan() -> Fan:
    """Complete non-simplicial rank-3 fan: cones over the facets of a cube."""
    verts = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    idx = {v: i for i, v in enumerate(verts)}
    cones = []
    for axis in range(3):
        for sign in (1, -1):
            face = [v for v in verts if v[axis] == sign]
            cones.append(tuple(sorted(idx[v] for v in face)))
    return Fan.build(3, verts, cones)


def singular_quadric_cone_fan() -> Fan:
    """The affine fan of a single rank-2 cone of multiplicity 2."""
    return Fan.build(2, [(1, 0), (1, 2)], [(0, 1)])


def rank3_multiplicity3_fan() -> Fan:
    """A single simplicial rank-3 cone of multiplicity 3."""
    return Fan.build(3, [(1, 0, 0), (1, 3, 0), (0, 0, 1)], [(0, 1, 2)])


# -- classes on the weighted projective plane ---------------------------------


def p112_demo_class(fan: Fan | None = None) -> PiecewiseExponential:
    """A rank-two-looking class on the P(1,1,2) fan, used throughout the docs."""
    fan = fan or weighted_p112()
    e = LaurentPoly.exponential
    values = (
        e((1, 0)) + e((0, 1)),          # cone <e1, e2>
        e((0, 0)) + e((1, -1)),         # cone <e1, -e1-2e2>
        e((-2, 1)) + e((-1, 0)),        # cone <e2, -e1-2e2>
    )
    return PiecewiseExponential.from_values(fan, values)


def p112_spanning_classes(fan: Fan | None = None) -> tuple[PiecewiseExponential, ...]:
    """Three Koszul-style classes supported on the closed strata of P(1,1,2):
    the unit, a divisor class, and a point class at the singular fixed point.

    They span a submodule of PExp of index 1 + e^{u1}, not all of it, so
    their Gram determinant against ``p112_duality_cones`` is 1 + e^{u1}
    rather than a unit.  The missing generator is the point class at the
    smooth fixed point of <e2, -e1-2e2>, with values
    (0, 0, (1 - e^{u1})(1 - e^{2u1-u2})); the unit, the divisor class and
    that class form a Z[M]-basis of PExp."""
    fan = fan or weighted_p112()
    e = LaurentPoly.exponential
    one = LaurentPoly.one(2)
    zero = LaurentPoly.zero(2)
    unit = PiecewiseExponential.from_values(fan, (one, one, one))
    divisor = PiecewiseExponential.from_values(
        fan, (zero, one - e((0, 1)), one - e((2, 0)))
    )
    point = PiecewiseExponential.from_values(
        fan, (zero, (one - e((0, 1))) * (one - e((-2, 1))), zero)
    )
    return unit, divisor, point


def p112_duality_cones(fan: Fan | None = None):
    """The cones paired against the spanning classes: origin, the ray through
    (-1,-2), and the singular maximal cone."""
    fan = fan or weighted_p112()
    return ((), fan.rayset_from_vectors([(-1, -2)]), fan.rayset_from_vectors([(1, 0), (-1, -2)]))


def p2_degree_cartier(fan: Fan, d: int) -> CartierData:
    """Local data of the degree-d class on the projective plane fan (rays
    e1, e2, -e1-e2, in this order, and its three cones in any order): the
    vertex of the d-fold simplex minimizing each cone."""
    vertex = {(0, 1): (0, 0), (0, 2): (0, d), (1, 2): (d, 0)}
    if fan.rays != ((1, 0), (0, 1), (-1, -1)) or set(fan.maximal_cones) != set(vertex):
        raise ValueError("not the standard projective plane fan")
    return CartierData(tuple(vertex[rs] for rs in fan.maximal_cones))


def p1_degree_class(fan: Fan, d: int) -> PiecewiseExponential:
    """The degree-d line bundle class on the projective line fan."""
    return from_cartier(fan, CartierData(((0,), (d,))))


def octahedron_class(cube: Fan, k: int = 1) -> PiecewiseExponential:
    """k times the octahedron class on the cube fan (``cube_fan``, its cones
    in any order): the line bundle e^(-k s e_a) on the cone over the cube
    face x_a = s."""
    exps = []
    for rs in cube.maximal_cones:
        gens = [cube.rays[i] for i in rs]
        axis = next(a for a in range(3) if len({g[a] for g in gens}) == 1)
        exps.append(tuple(-k * gens[0][axis] if a == axis else 0 for a in range(3)))
    return from_cartier(cube, CartierData(tuple(exps)))


def weighted_projective_space(qs) -> Fan:
    """P(1, q1, q2, q3): the fan on e1, e2, e3, (-q1, -q2, -q3) whose cones
    are the four triples of rays."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), tuple(-q for q in qs)]
    return Fan.build(3, rays, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def product_basis(n: int):
    """(fan, [f_S], [tau_S]) for (P^1)^n, with S running over the subsets of
    range(n) in order of size, then lexicographically: f_S is
    prod_{i in S} (1 - e^{w_i(sigma)}) on the cones sigma holding +e_i for
    every i in S, w_i(sigma) the tangent weight at sigma dual to +e_i, and
    0 elsewhere, and tau_S = cone{+e_i : i in S}."""
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays = unit + [tuple(-x for x in e) for e in unit]
    cones = [tuple(i + n * s for i, s in enumerate(signs))
             for signs in itertools.product((0, 1), repeat=n)]
    fan = Fan.build(n, rays, cones)
    subsets = [S for size in range(n + 1) for S in itertools.combinations(range(n), size)]
    one = LaurentPoly.one(n)
    functions, taus = [], []
    for S in subsets:
        values = []
        for cone in fan.cone_objects:
            weight = dict(zip(cone.generators, tangent_weights(cone)))
            value = one
            for i in S:
                if unit[i] not in weight:
                    value = LaurentPoly.zero(n)
                    break
                value = value * (one - LaurentPoly.exponential(weight[unit[i]]))
            values.append(value)
        report = gkm_validate(fan, values)
        if not report.ok:
            raise ResultCheckFailed(f"the product basis class of {S} is not piecewise exponential")
        functions.append(report.function)
        taus.append(fan.rayset_from_vectors([unit[i] for i in S]))
    return fan, functions, taus
