"""Integral piecewise exponential functions on a fan.

A function is stored as one exponential sum per maximal cone.  On a maximal
cone of full dimension the value lives in Z[M] itself; on a lower-dimensional
maximal cone it lives in the quotient Z[M_sigma], with the fan supplying the
canonical quotient presentation.  Face compatibility (the GKM condition) is
what makes the collection a single function on the support.
"""

from __future__ import annotations

import itertools
from operator import attrgetter

from .errors import (
    FanMismatch,
    GkmViolationError,
    IncompatibleCartierData,
    NotDescendable,
    RankMismatch,
)
from .fan import Fan, RaySet, SubdivisionMap
from .lattice import IntMatrix, Vector, mat_mul, strict_list, value_class
from .laurent import LaurentPoly, koszul_divides, poly_from_json, poly_to_json


def _comparison_matrix(fan_from: Fan, face_from: RaySet, fan_to: Fan, face_to: RaySet) -> IntMatrix:
    """Matrix of M_{face_from} -> M_{face_to}: lift through the section, then
    project.  Well defined whenever Span(face_to) <= Span(face_from).  The
    quotient of a full-dimensional face is the identity on M, one matrix
    that is both its projection and its section (``Fan.face_quotient``), so
    from one the matrix is face_to's projection, with no product taken."""
    q_from = fan_from.face_quotient(face_from)
    q_to = fan_to.face_quotient(face_to)
    if q_from.section is q_from.projection:
        return q_to.projection
    return mat_mul(q_to.projection, q_from.section)


@value_class
class GkmViolation:
    """A failed face compatibility between two maximal cones."""

    cone_a: int
    cone_b: int
    face: RaySet
    restriction_a: LaurentPoly
    restriction_b: LaurentPoly


@value_class
class GkmReport:
    ok: bool
    function: "PiecewiseExponential | None"
    violations: tuple[GkmViolation, ...]


@value_class
class PiecewiseExponential:
    fan: Fan
    values: tuple[LaurentPoly, ...]

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_values(fan: Fan, values) -> "PiecewiseExponential":
        report = gkm_validate(fan, values)
        if not report.ok:
            raise GkmViolationError(report.violations)
        return report.function

    @staticmethod
    def constant(fan: Fan, c: int) -> "PiecewiseExponential":
        values = (LaurentPoly.constant(fan.rank, c),) * len(fan.maximal_cones)
        return PiecewiseExponential(fan, coerce_values(fan, values))

    # -- ring structure ---------------------------------------------------

    def _check_fan(self, other: "PiecewiseExponential"):
        if self.fan != other.fan:
            raise FanMismatch("functions live on different fans")

    def __add__(self, other: "PiecewiseExponential") -> "PiecewiseExponential":
        self._check_fan(other)
        return PiecewiseExponential(self.fan, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "PiecewiseExponential") -> "PiecewiseExponential":
        self._check_fan(other)
        return PiecewiseExponential(self.fan, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "PiecewiseExponential") -> "PiecewiseExponential":
        self._check_fan(other)
        return PiecewiseExponential(self.fan, tuple(a * b for a, b in zip(self.values, other.values)))

    def module_action(self, g: LaurentPoly) -> "PiecewiseExponential":
        """Multiply by a global element of Z[M] (the R(T)-module structure)."""
        if g.rank != self.fan.rank:
            raise RankMismatch("module action needs an ambient exponential sum")
        gs = coerce_values(self.fan, (g,) * len(self.values))
        return PiecewiseExponential(self.fan, tuple(v * w for v, w in zip(self.values, gs)))

    def restrict(self, rayset) -> LaurentPoly:
        """Value on a face, in the canonical M_tau coordinates.

        For a ray the coordinate is evaluation on the primitive generator; for
        the zero cone the result is the constant given by the augmentation.
        """
        rs = self.fan.require_face(rayset)
        return _restriction(self.fan, self.values, self.fan._star[rs][0], rs)


def coerce_values(fan: Fan, values) -> tuple[LaurentPoly, ...]:
    """Accept per-cone values over M or over the cone's own quotient.  The one
    place where an ambient value is projected into a cone's coordinates."""
    if len(values) != len(fan.maximal_cones):
        raise RankMismatch(
            f"{len(values)} values for {len(fan.maximal_cones)} maximal cones"
        )
    out = []
    for rs, v in zip(fan.maximal_cones, values):
        q = fan.face_quotient(rs)
        if v.rank == q.rank:
            out.append(v)
        elif v.rank == fan.rank:
            out.append(v.map_exponents(q.projection))
        else:
            raise RankMismatch(
                f"value of rank {v.rank} on a cone of dimension {q.rank} "
                f"in an ambient rank-{fan.rank} fan"
            )
    return tuple(out)


def _restriction(fan: Fan, vals, i: int, face: RaySet) -> LaurentPoly:
    """The value on maximal cone i restricted to one of its faces, in M_face."""
    phi = _comparison_matrix(fan, fan.maximal_cones[i], fan, face)
    return vals[i].map_exponents(phi)


def _agree_across_walls(fan: Fan, vals) -> bool:
    """Whether the two cones on each wall of two cones restrict to one value
    on it.  The values lie in Z[M], and restriction to a wall with
    primitive normal u is Z[M] -> Z[M/Z u], whose kernel is (1 - e^u); so
    they agree iff (1 - e^u) divides their difference, which needs no
    quotient lattice of the wall."""
    return all(koszul_divides(vals[i] - vals[j], u)
               for (i, u), (j, _) in (cones for cones in fan.walls.values() if len(cones) == 2))


def gkm_validate(fan: Fan, values) -> GkmReport:
    """Check every face compatibility; violations are results.

    On a fan whose cones tile a convex cone C, complete or not (``Fan._tiling``,
    which shows it a fan), the walls of two cones decide acceptance.
    Restriction to such a wall W is Z[M] -> Z[M/Z u] for its primitive
    normal u, whose kernel is the ideal (1 - e^u); so values agreeing
    across W are congruent mod (1 - e^u).  Two maximal cones sigma, sigma'
    meet in a face tau, and the images in N/N_tau of the maximal cones
    holding tau tile the image of the tangent cone of C at tau, a convex
    cone, so they are joined through walls of two cones (the interior of
    that cone less the codimension-2 cones is connected, or there are at
    most two cones).  Those walls contain tau, so a chain sigma = s_0, ...,
    s_m = sigma' of cones holding tau, each sharing a wall with the next,
    carries the value on tau from one end to the other, restriction being
    functorial.  So if every wall of two cones agrees, every pair does.

    Any other fan, and a class that fails on some wall, runs one pass over
    the star table: at each face tau held by two or more maximal cones,
    each of them is restricted to tau once and they are grouped by value.
    Two cones of different groups differ at tau, and so at their meet,
    which holds tau (restriction to tau factors through it); so every pair
    across groups is a violation, and a pair is reported only at the face
    that is its meet.  The work is the sum of the star sizes in restrictions,
    plus, per violation, one visit at each face of the meet where the two
    differ: at most 2^(n-1) in rank n when the meet is simplicial, as a
    proper face has at most n - 1 rays.  The violations are listed in pair
    order (cone_a, cone_b).
    """
    vals = coerce_values(fan, values)
    if fan._tiling is not None and _agree_across_walls(fan, vals):
        return GkmReport(True, PiecewiseExponential(fan, vals), ())
    violations, cones = [], fan.maximal_cones
    for face, star in fan._star.items():
        at_face = {k: _restriction(fan, vals, k, face) for k in star} if len(star) > 1 else {}
        groups: dict[LaurentPoly, list[int]] = {}
        for k, r in at_face.items():
            groups.setdefault(r, []).append(k)
        for group_a, group_b in itertools.combinations(groups.values(), 2):
            for i, j in map(sorted, itertools.product(group_a, group_b)):
                if len(set(cones[i]).intersection(cones[j])) == len(face):
                    violations.append(GkmViolation(i, j, face, at_face[i], at_face[j]))
    if violations:
        return GkmReport(False, None, tuple(sorted(violations, key=attrgetter("cone_a", "cone_b"))))
    return GkmReport(True, PiecewiseExponential(fan, vals), ())


# -- line bundle classes ------------------------------------------------------


@value_class
class CartierData:
    """One character per maximal cone, the local linear data of a line bundle."""

    exponents: tuple[Vector, ...]


def from_cartier(fan: Fan, data: CartierData) -> PiecewiseExponential:
    """The class sigma -> e^{m_sigma} of the line bundle with local data m."""
    exps = tuple(tuple(m) for m in data.exponents)
    if len(exps) != len(fan.maximal_cones):
        raise IncompatibleCartierData("one character per maximal cone is required")
    for m in exps:
        if len(m) != fan.rank:
            raise IncompatibleCartierData(f"character {m} has wrong length")
    report = gkm_validate(fan, [LaurentPoly.exponential(m) for m in exps])
    if not report.ok:
        v = report.violations[0]
        raise IncompatibleCartierData(
            f"characters on cones {v.cone_a} and {v.cone_b} differ on their "
            f"common face {list(v.face)}"
        )
    return report.function


# -- subdivision functoriality ---------------------------------------------------


def pullback(f: PiecewiseExponential, s: SubdivisionMap) -> PiecewiseExponential:
    """Transport a function to a refinement: each fine maximal cone takes the
    value of its assigned coarse cone.  A map built by hand is checked once
    (``SubdivisionMap._check``)."""
    if f.fan != s.coarse:
        raise FanMismatch("function does not live on the coarse fan of the map")
    s._check()
    out = []
    for i, rs in enumerate(s.fine.maximal_cones):
        src = s.coarse.maximal_cones[s.assignment[i]]
        phi = _comparison_matrix(s.coarse, src, s.fine, rs)
        out.append(f.values[s.assignment[i]].map_exponents(phi))
    return PiecewiseExponential(s.fine, tuple(out))


def descend(f: PiecewiseExponential, s: SubdivisionMap) -> PiecewiseExponential:
    """Inverse of pullback when it exists.

    All fine cones inside one coarse cone must carry equal values as elements
    of Z[M_sigma]; otherwise NotDescendable reports the coarse cone and the
    two differing values.  Note this is strictly stronger than the GKM
    condition on the fine fan.  A map built by hand is checked once
    (``SubdivisionMap._check``).
    """
    if f.fan != s.fine:
        raise FanMismatch("function does not live on the fine fan of the map")
    s._check()
    coarse_values: dict[int, LaurentPoly] = {}
    for i, rs in enumerate(s.fine.maximal_cones):
        tgt = s.coarse.maximal_cones[s.assignment[i]]
        phi = _comparison_matrix(s.fine, rs, s.coarse, tgt)
        candidate = f.values[i].map_exponents(phi)
        prev = coarse_values.get(s.assignment[i])
        if prev is None:
            coarse_values[s.assignment[i]] = candidate
        elif prev != candidate:
            raise NotDescendable(s.assignment[i], prev, candidate)
    values = tuple(coarse_values[i] for i in range(len(s.coarse.maximal_cones)))
    return PiecewiseExponential.from_values(s.coarse, values)


def pexp_to_json(f: PiecewiseExponential) -> dict:
    return {
        "fan": f.fan.to_json(),
        "values": [poly_to_json(v) for v in f.values],
    }


def pexp_from_json(obj: dict, fan: Fan | None = None) -> PiecewiseExponential:
    """The class a decoded document describes.  An embedded fan must equal
    ``fan`` when both are given; a path-valued one is ignored next to ``fan``."""
    if not isinstance(obj, dict):
        raise ValueError(f"a piecewise exponential must be a JSON object, got {obj!r}")
    embedded = obj.get("fan")
    if isinstance(embedded, str):
        if fan is None:
            raise ValueError("'fan' is a path, which only the CLI resolves; "
                             "library callers pass fan=")
    elif embedded is not None:
        if fan is None:
            fan = Fan.from_json(embedded)
        # a copy of the validated fan is not validated again; any other reports its own error first
        elif Fan.from_json(embedded, validate=False) != fan:
            Fan.from_json(embedded)
            raise ValueError("embedded fan differs from the --fan argument")
    if fan is None:
        raise ValueError("no fan given: pass --fan or embed one in the file")
    if "values" not in obj:
        raise ValueError("piecewise exponential JSON needs 'values'")
    values = [poly_from_json(v) for v in strict_list(obj["values"], "values")]
    return PiecewiseExponential.from_values(fan, values)
