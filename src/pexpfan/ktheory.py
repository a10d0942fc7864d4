"""Equivariant Euler characteristics, Kronecker pairings, and basis solvers.

Everything is computed by fixed-point localization on a smooth complete fan;
singular fans are first refined by ``resolve`` and classes are lifted by the
refinement's assignment, which is valid because the refinement map is proper
and birational so the structure sheaf (and each orbit-closure sheaf, via its
strict transform) pushes forward identically.  That bridge is a standard
toric fact used here without reproof.

The sign of the localization formula is fixed: the weights attached to a
fixed point are exactly the dual basis of the cone's primitive generators.
With this sign the trivial class has Euler characteristic 1 and a
line-bundle class with local data m has Euler characteristic equal to the
sum of e^m over the lattice points of its polytope; the opposite sign fails
that normalization (it produces the mirrored support), which is how the sign
was determined.  ``scripts/determine_sign_convention.py`` replays the
experiment with both candidate weight sets.

Every pairing is one localization sum over the star of a face (``_star_sum``):
O_{V(tau)} restricts to the Koszul factor prod_{rho in tau} (1 - e^{w_rho})
at a fixed point sigma containing tau and to 0 elsewhere, and that factor
cancels the same factors of sigma's denominator, so <f, [O_{V(tau)}]> =
sum_{sigma containing tau} f_sigma / prod_{rho in sigma - tau} (1 - e^{w_rho}).
chi is the case tau = 0.

On a resolution a pulled-back class takes one value f_sigma on the fine cones
of a coarse cone sigma, whose terms sum to f_sigma * N_sigma / D_sigma for one
fraction that no class changes (for tau = 0, the Hilbert series of sigma;
Brion, 1988): ``_pairing_series`` folds it once per resolution and face,
and compiles the fold of the series' sum (``laurent._Plan``) that every
pairing there runs on its class's values.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, prod
from operator import neg

from .errors import (
    DependentBasis,
    NotComplete,
    NotFullDimensional,
    NotInSpan,
    NotIndependent,
    NotIntegral,
    NotSmooth,
    ResolutionCheckFailed,
    ResultCheckFailed,
    SingularGram,
)
from .fan import Cone, Fan, RaySet, SubdivisionMap, resolve
from .lattice import Vector, adjugate, independent_rows, matrix_rank, pair, value_class
from .laurent import LaurentPoly, _Plan, poly_to_json, reduce_localization, try_div
from .pexp import PiecewiseExponential


def tangent_weights(cone: Cone) -> tuple[Vector, ...]:
    """Weights at the fixed point of a smooth full-dimensional cone: the dual
    basis of its primitive generators, in generator order.

    With G the generators as columns, the dual basis is the rows of G^-1,
    which is ``Cone._scaled_inverse`` as the multiplicity is 1: det * adj
    for the cone's one adjugate (det, adj), det being +-1.
    """
    if cone.dim != cone.rank:
        raise NotFullDimensional("tangent weights need a full-dimensional cone")
    if not cone.is_simplicial or cone.multiplicity() != 1:
        raise NotSmooth(f"cone on {cone.generators} has multiplicity != 1")
    return cone._scaled_inverse


def _require_smooth_complete(fan: Fan, complete: bool = False):
    """Refuse a fan that is not complete, unless ``complete`` says it is
    known to be, or not smooth."""
    if not (complete or fan.is_complete()):
        raise NotComplete("localization needs a complete fan")
    if not fan.is_smooth():
        raise NotSmooth("localization needs a smooth fan")


def orbit_closure_class(fan: Fan, rayset) -> tuple[LaurentPoly, ...]:
    """Fixed-point restrictions of the structure sheaf class of an orbit
    closure, one numerator per maximal cone: a Koszul factor (1 - e^w) for
    each generator of the cone lying in the given face, and zero at fixed
    points away from the face."""
    rs = fan.require_face(rayset)
    _require_smooth_complete(fan)
    one = LaurentPoly.one(fan.rank)
    numerators = []
    for idx, cone_rays in enumerate(fan.maximal_cones):
        if not set(rs) <= set(cone_rays):
            numerators.append(LaurentPoly.zero(fan.rank))
            continue
        num = one
        weights = tangent_weights(fan.cone_objects[idx])
        for ray, w in zip(fan._generator_rays[idx], weights):
            if ray in rs:
                num = num * (one - LaurentPoly.exponential(w))
        numerators.append(num)
    return tuple(numerators)


def _resolution_of(fan: Fan, resolution: SubdivisionMap | None) -> SubdivisionMap:
    """The given refinement of ``fan``; by default ``resolve(fan)``, which is
    the identity on a smooth fan."""
    if resolution is None:
        return resolve(fan)
    if resolution.coarse != fan:
        raise ValueError("resolution does not refine the given fan")
    return resolution


def _series_size(cone: Cone, face, bound: int) -> int:
    """The predicted size of the series of a cone's image modulo its face
    spanned by the independent vectors ``face``, counted past ``bound``.  The
    image's facets are the cone's facets holding the face, and the
    prediction is the sum, over the k-subsets of their primitive normals,
    k = rank - dim, of the index of the subset in M intersected with the
    face's annihilator: that lattice is saturated, so the index is the gcd of
    the subset's k x k minors.  At the zero face it is the sum of |det| over
    the rank-subsets of all the normals, the volume of their zonotope.  A
    minor is read off k of the subset's columns, its transpose."""
    normals = [u for u, _ in cone.facets if not any(pair(u, v) for v in face)]
    k = cone.rank - len(face)
    total = 0
    for rows in combinations(normals, k):
        if total > bound:
            break
        total += gcd(*map(_minor, combinations(zip(*rows), k)))
    return total


def _minor(rows) -> int:
    """|det| of a square integer matrix, 0 when it is singular: its closed
    form up to 3 x 3, else off its adjugate."""
    if len(rows) == 1:
        return abs(rows[0][0])
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return abs(a * d - b * c)
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    try:
        return abs(adjugate(rows)[0])
    except NotIndependent:
        return 0


def _pairing_series(resolution: SubdivisionMap, rayset: RaySet):
    """(face, terms, plan) of the pairings with the coarse face ``rayset``,
    built once and cached on the resolution: ``face`` its strict transform;
    per coarse cone sigma with two or more fine cones in the face's star,
    and no fewer than the predicted size of the series of sigma's image
    modulo the face (``_series_size``), one term (sigma, N, D), their sum
    with unit numerators folded along the walls inside them; per other fine
    cone, (sigma, None, its weights outside the face); terms in star order,
    and ``plan`` their sum's fold compiled on the walls of the star between
    terms (``laurent._Plan``).

    Each group's fold is a ``_Plan`` compiled straight from its fine cones'
    weights and its inner walls, and run once on unit numerators.  Each wall
    goes with its direction, the normal that ``Fan.walls`` stores for it
    made lexicographically positive: on a unimodular cone the inward normal
    of the facet missing generator j is row j of G^-1, the tangent weight
    of the ray off the wall.  One pass over the star's walls hands each
    wall inside a folded group to that group's fold and every other wall to
    the plan, each pair of terms with each direction once: the fine walls
    along one coarse wall all repeat its normal, as many as the resolution
    cut it into, and the plan's merge pick counts walls."""
    cache = resolution.__dict__.setdefault("_series", {})
    if rayset not in cache:
        fine, coarse = resolution.fine, resolution.coarse
        face = rayset and _strict_transform_face(
            fine, Cone.from_generators(coarse.rank, [coarse.rays[i] for i in rayset]))
        star = fine._star[face]
        owners = [resolution.assignment[i] for i in star]
        groups: dict[int, list[int]] = {}
        for p, a in enumerate(owners):
            groups.setdefault(a, []).append(p)
        spanning = [fine.rays[i] for i in face]
        folded = {a for a, group in groups.items()
                  if len(group) > 1 and _series_size(coarse.cone_objects[a], spanning, len(group)) <= len(group)}
        keys: dict[tuple, int] = {}  # (sigma, None) if folded, else (sigma, star position)
        slot = [keys.setdefault((a, None) if a in folded else (a, p), len(keys)) for p, a in enumerate(owners)]
        local = {q: k for a in folded for k, q in enumerate(groups[a])}
        inner: dict[int, list] = {a: [] for a in folded}
        between: dict[tuple, None] = {}
        for q, r, u in fine.star_walls(face):
            d = max(u, tuple(map(neg, u)))
            if slot[q] == slot[r]:  # a wall inside a folded group
                inner[owners[q]].append((local[q], local[r], d))
            else:
                between[min(slot[q], slot[r]), max(slot[q], slot[r]), d] = None

        def weights(p):
            i = star[p]
            # gram_matrix found the fine fan smooth, so each cone's S is G^-1
            inverse = fine.cone_objects[i]._scaled_inverse
            return [w for ray, w in zip(fine._generator_rays[i], inverse) if ray not in face] if face else list(inverse)
        terms = []
        for a, p in keys:
            if p is not None:
                terms.append((a, None, weights(p)))
                continue
            group = groups[a]
            fold = _Plan(fine.rank, [(None, weights(q)) for q in group], inner[a])
            num, den = fold.run([LaurentPoly.one(fine.rank)] * len(group))
            terms.append((a, num, [w for w, m in sorted(den.items()) for _ in range(m)]))
        plan = _Plan(fine.rank, [(num, den) for _, num, den in terms], list(between))
        cache[rayset] = face, tuple(terms), plan
    return cache[rayset]


def _star_sum(resolution: SubdivisionMap, values, rayset: RaySet) -> LaurentPoly:
    """<f, [O_{V(tau)}]> from f's coarse values: the sum of f_sigma * N / D
    over the series' terms (a None N is 1), run on its compiled plan."""
    _, terms, plan = _pairing_series(resolution, rayset)
    return reduce_localization([values[a] for a, _, _ in terms], plan)


def chi(
    fan: Fan,
    f: PiecewiseExponential,
    *,
    resolution: SubdivisionMap | None = None,
) -> LaurentPoly:
    """Equivariant Euler characteristic of a piecewise exponential class.

    It is the pairing with [O_X] = [O_{V(0)}]: on a smooth complete fan the
    localized sum of the maximal-cone values; otherwise the class is pulled
    back to a resolution first.  The result does not depend on the
    resolution chosen.
    """
    return kronecker_pair(fan, f, (), resolution=resolution)


def _strict_transform_face(fine: Fan, tau_cone: Cone) -> RaySet:
    """The first face of the smooth fine fan, in ``faces`` order, of the same
    dimension as the coarse cone and contained in it.  Any such face gives
    the same pairing, so the first one serves.  Every face of a smooth fan is
    simplicial, so its dimension is its number of rays.  A ray is tested
    once, when a face of that dimension first holds it."""
    tested: dict[int, bool] = {}

    def inside(i: int) -> bool:
        if i not in tested:
            tested[i] = tau_cone.contains(fine.rays[i])
        return tested[i]
    dim = tau_cone.dim
    for face in fine.faces:
        if len(face) == dim and all(map(inside, face)):
            return face
    raise ResolutionCheckFailed(
        f"no face of the refinement is a strict transform of the cone on {tau_cone.generators}"
    )


@value_class
class PairingMatrix:
    """Kronecker pairings of a list of classes against a list of cones."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    entries: tuple[tuple[LaurentPoly, ...], ...]

    def to_json(self) -> dict:
        return {
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "entries": [[poly_to_json(e) for e in row] for row in self.entries],
        }


def gram_matrix(
    fan: Fan,
    functions,
    raysets,
    *,
    resolution: SubdivisionMap | None = None,
) -> PairingMatrix:
    """The duality pairings <f_i, [O_{V(tau_j)}]> in Z[M], one row per function.

    Computed on a resolution, pairing each pulled-back class against the
    orbit closure of a strict transform of tau_j (a fine cone of the same
    span inside tau_j); the result is independent of both choices.  Both fans
    are complete, so every value lies in Z[M] and the pullback of f is f's
    value at the coarse cone each fine cone is assigned to.  Each face's
    strict transform and series are built once per resolution
    (``_pairing_series``); every entry is then one sum over the series'
    terms (``_star_sum``), with no orbit class built.  A resolution built
    by hand is refused unless it is a subdivision (``SubdivisionMap._check``),
    once its fine fan is found smooth and complete.  A map marked checked
    skips the fine fan's ``is_complete``: its fine cones have their coarse
    cones' dimensions and cover them, so its fine fan has the support of
    the coarse fan, which is complete.
    """
    functions = tuple(functions)
    if any(f.fan != fan for f in functions):
        raise ValueError("class does not live on the given fan")
    if not fan.is_complete():
        raise NotComplete("the pairing needs a complete fan")
    raysets = tuple(fan.require_face(rs) for rs in raysets)
    resolution = _resolution_of(fan, resolution)
    _require_smooth_complete(resolution.fine, "_checked" in resolution.__dict__)
    resolution._check()
    for rs in raysets:
        _pairing_series(resolution, rs)
    entries = tuple(tuple(_star_sum(resolution, f.values, rs) for rs in raysets) for f in functions)
    return PairingMatrix(
        tuple(f"f{i}" for i in range(len(functions))),
        tuple("cone" + str(list(rs)) for rs in raysets),
        entries,
    )


def kronecker_pair(
    fan: Fan,
    f: PiecewiseExponential,
    rayset,
    *,
    resolution: SubdivisionMap | None = None,
) -> LaurentPoly:
    """The duality pairing <f, [O_{V(tau)}]> in Z[M]: the 1x1 ``gram_matrix``."""
    return gram_matrix(fan, [f], [rayset], resolution=resolution).entries[0][0]


# -- linear algebra over Z[M] -----------------------------------------------------


def poly_det(matrix, rank: int) -> LaurentPoly:
    """Determinant of a small square matrix over Z[M], by cofactor expansion
    along the first row with the most zero entries."""
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one(rank)
    if n == 1:
        return matrix[0][0]
    r = max(range(n), key=lambda i: sum(e.is_zero() for e in matrix[i]))
    acc = LaurentPoly.zero(rank)
    for j in range(n):
        if matrix[r][j].is_zero():
            continue
        minor = [
            [matrix[i][t] for t in range(n) if t != j] for i in range(n) if i != r
        ]
        term = matrix[r][j] * poly_det(minor, rank)
        acc = acc + term if (r + j) % 2 == 0 else acc - term
    return acc


def _specialized(row) -> list[int]:
    """The image in Z of a row over Z[M]: the row times the unit e^-lo, lo
    the least exponent of its terms in each coordinate, under the ring map
    e^m -> prod (i + 2)^m_i.  The unit changes no independence, and the map
    sends each minor of the shifted rows to the minor of their images."""
    lo = list(map(min, zip(*[exp for f in row for exp, _ in f.terms])))
    bases = range(2, len(lo) + 2)
    return [sum(c * prod(b ** (e - m) for b, e, m in zip(bases, exp, lo)) for exp, c in f.terms)
            for f in row]


def _basis_rows(rows, k: int, rank: int) -> tuple[tuple[int, ...], LaurentPoly]:
    """(indices, det) of the first k rows, in the order of
    ``itertools.combinations``, whose square system has a nonzero
    determinant over Z[M]; ``DependentBasis`` when there are none.

    They are the rows each independent of the ones chosen before it over
    the fraction field, the greedy basis of the row space, which is its
    lexicographically least one: no subset is searched.  A pivot of
    ``independent_rows`` of the rows' images in Z (``_specialized``), taken
    over a prefix of the rows that doubles when the walk reaches its end,
    is chosen untested while every chosen row is a pivot: their images are
    then independent, and a minor with a nonzero image is nonzero.  The
    specialization may send a nonzero entry to 0, so any other row is
    decided by the fraction-free elimination over Z[M] (``matrix_rank``).
    A row equal to an earlier one is skipped untested: it is never chosen,
    as it depends on the rows chosen before that one, or is one of them.
    """
    images, chosen, seen = [], [], set()
    for r, row in enumerate(rows):
        if len(chosen) == k:
            break
        if tuple(row) in seen:
            continue
        seen.add(tuple(row))
        if r >= len(images):  # the pivots of a prefix are its pivots in any longer one
            images += map(_specialized, rows[len(images):2 * r + k])
            pivots = set(independent_rows(images))
        if r in pivots and pivots.issuperset(chosen) or matrix_rank([rows[i] for i in chosen] + [row]) > len(chosen):
            chosen.append(r)
    if len(chosen) < k:
        raise DependentBasis("basis values are linearly dependent over Z[M]")
    return tuple(chosen), poly_det([rows[i] for i in chosen], rank)


def decompose(
    f: PiecewiseExponential, basis
) -> tuple[LaurentPoly, ...]:
    """Coefficients c_i in Z[M] with f = sum c_i * basis_i, conewise.

    Solved by Cramer's rule on the first nonsingular square subsystem of the
    stacked cone-value equations (``_basis_rows``: the pivots of their
    images in Z, and the exact rank over Z[M] for the rows those do not
    settle); consistency of the remaining equations separates NotInSpan from
    NotIntegral, and the integral solution is re-verified by exact
    re-multiplication.
    """
    basis = tuple(basis)
    fan = f.fan
    for g in basis:
        if g.fan != fan:
            raise ValueError("basis functions live on a different fan")
    if any(c.dim != fan.rank for c in fan.cone_objects):
        raise NotFullDimensional(
            "decompose needs every maximal cone full-dimensional"
        )
    k = len(basis)
    rank = fan.rank
    rows = [[g.values[i] for g in basis] for i in range(len(fan.maximal_cones))]
    rhs = list(f.values)

    chosen, det = _basis_rows(rows, k, rank)
    sub = [rows[i] for i in chosen]
    sub_rhs = [rhs[i] for i in chosen]
    numerators = []
    for j in range(k):
        m = [[sub_rhs[i] if t == j else sub[i][t] for t in range(k)] for i in range(k)]
        numerators.append(poly_det(m, rank))

    # consistency over the fraction field, cross-multiplied to stay in Z[M]
    for i in range(len(rows)):
        lhs = LaurentPoly.zero(rank)
        for j in range(k):
            lhs = lhs + numerators[j] * rows[i][j]
        if lhs != rhs[i] * det:
            raise NotInSpan(f"no solution: equation on maximal cone {i} fails")

    coeffs = []
    for j, num in enumerate(numerators):
        c = try_div(num, det)
        if c is None:
            raise NotIntegral(
                f"coefficient {j} exists over fractions but not in Z[M]"
            )
        coeffs.append(c)

    rebuilt = PiecewiseExponential.constant(fan, 0)
    for c, g in zip(coeffs, basis):
        rebuilt = rebuilt + g.module_action(c)
    if rebuilt != f:
        raise ResultCheckFailed("re-expansion of the decomposition differs from the class")
    return tuple(coeffs)


def dual_basis_solve(
    fan: Fan,
    raysets,
    spanning,
    *,
    resolution: SubdivisionMap | None = None,
) -> tuple[PiecewiseExponential, ...]:
    """Functions g_j with <g_j, [O_{V(tau_l)}]> = delta_jl.

    Inverts the Gram matrix G of the spanning functions as adj(G) / det(G),
    both from one fraction-free elimination over Z[M] (``adjugate``), so
    g_j = sum_i adj(G)[j][i] * f_i / det(G); every resulting cone value must
    divide back into Z[M] (NotIntegral otherwise), the results must satisfy
    the face compatibility, and their Gram matrix is re-verified to be
    exactly the identity.
    """
    spanning = tuple(spanning)
    raysets = tuple(fan.require_face(rs) for rs in raysets)
    if len(spanning) != len(raysets):
        raise ValueError("need as many spanning functions as cones")
    k = len(spanning)
    rank = fan.rank
    if not fan.is_complete():  # before a resolution is chosen or built
        raise NotComplete("the pairing needs a complete fan")
    resolution = _resolution_of(fan, resolution)
    gram = gram_matrix(fan, spanning, raysets, resolution=resolution)
    try:
        det, adj = adjugate(gram.entries)
    except NotIndependent:
        raise SingularGram("the Gram matrix is singular over the fraction field") from None

    # gram_matrix refused an incomplete fan, so every maximal cone is
    # full-dimensional and each value lives in Z[M] itself
    out = []
    for j in range(k):
        values = []
        for idx in range(len(fan.maximal_cones)):
            num = LaurentPoly.zero(rank)
            for i in range(k):
                num = num + spanning[i].values[idx] * adj[j][i]
            val = try_div(num, det)
            if val is None:
                raise NotIntegral(
                    f"dual function {j} has a non-integral value on cone {idx}"
                )
            values.append(val)
        out.append(PiecewiseExponential.from_values(fan, values))

    check = gram_matrix(fan, out, raysets, resolution=resolution)
    ident = [
        [LaurentPoly.one(rank) if i == j else LaurentPoly.zero(rank) for j in range(k)]
        for i in range(k)
    ]
    if [list(r) for r in check.entries] != ident:
        raise ResultCheckFailed("dual basis Gram is not the identity")
    return tuple(out)

