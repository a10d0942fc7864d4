"""Rank-2 resolution along Hirzebruch-Jung chains, on plain integer records.

``least_chain_points`` walks the Hirzebruch-Jung chain of a 2-dimensional
cone to its parallelepiped points of least coefficient sum (Fulton,
Introduction to Toric Varieties, 2.6).  ``fan._least_box_points`` reads a
2-dimensional cone of any rank from it, and ``resolve_rank2`` runs the
subdivision steps of ``fan.resolve`` on a rank-2 fan with it, one record of
integers per maximal cone: no ``Cone``, facet table or incidence map.  This
module imports nothing from ``fan``.
"""

from __future__ import annotations

from .errors import NotStronglyConvex, ResolutionCheckFailed
from .lattice import primitive_vector, vec_add


def least_chain_points(g1, g2, mult: int) -> tuple[int, tuple[int, int], tuple[int, int], int]:
    """(key, first, step, count) of the nonzero parallelepiped points of
    least key of the cone on the 2-vectors g1 < g2 of multiplicity mult: a
    pair (a, k) stands for the point x = (a g1 + k g2) / mult, whose key is
    a + k, and the least points are first + i * step for 0 <= i < count, in
    ascending order.

    x is a lattice point iff a = q k mod mult, where q = -<v, g2> mod mult
    for a character v with <v, g1> = 1.  Every nonzero lattice point of the
    cone is a parallelepiped point plus a sum of generators, each adding
    mult to a + k, and (q, 1) has a + k <= mult: so the least points are the
    points of least a + k among the nonzero lattice points of the cone other
    than g1 and g2.  Those lie on the bounded edges of their convex hull,
    whose lattice points are the Hilbert basis: g1 = (mult, 0), (q, 1), ...,
    g2 = (0, mult), each element b u - u' for the two before it, u' then u,
    with b = ceil(a(u') / a(u)).  The step repeats while b = 2, so an edge
    from a with step (-alpha, beta) has floor(a / alpha) lattice steps, and
    a + k changes by beta - alpha per step, falling and then rising along
    the chain.  The walk stops at the first edge where it does not fall: if
    it rises, the least point is the edge's start; if it is flat, the least
    points are the edge's lattice points other than g1 and g2, and they
    ascend, since the step is then a positive multiple of g2 - g1 and the
    generators are sorted.
    """
    (p, s), h = g1, g2
    # <v, g1> = 1 for v = (p^-1 mod |s|, (1 - p v_0) / s); g1 primitive, so p = +-1 if s = 0
    v0 = pow(p, -1, abs(s)) if s else p
    q = -(v0 * h[0] + ((1 - p * v0) // s if s else 0) * h[1]) % mult
    a, k, da, dk = mult, 0, q - mult, 1
    while da + dk < 0:
        j = a // -da
        a, k = a + j * da, k + j * dk
        b = -(-(a - da) // a)
        da, dk = (b - 2) * a + da, (b - 2) * k + dk
    # only the first edge starts at g1 (k = 0); an edge ends at g2 iff alpha divides a
    lo = 0 if k else 1
    count = 1 if da + dk else a // -da - (a % -da == 0) - lo + 1
    return a + k, (a + lo * da, k + lo * dk), (da, dk), count


def resolve_rank2(rays, cones, rng, extra_rounds: int):
    """The subdivision steps of ``fan.resolve`` on a rank-2 fan whose
    maximal cones have at most two rays, with the same draws from ``rng``,
    the same checks and the same result.  Returns None when no step changes
    the fan, else the fine fan's rays, its ray sets in fan order and the
    coarse cone holding each.

    Every such cone is simplicial, so there is nothing to simplicialize.  A
    record [ray set, g1, g2, i1, i2, mult, source, next] holds one maximal
    cone: its generators sorted and their ray indices (None below
    dimension 2), its multiplicity, the coarse cone holding it and the next
    record in fan order.  A point x that a step adds is a nonzero
    parallelepiped point of the cone it splits, or the sum of a smooth
    cone's generators, so it lies in that cone's interior and in no other
    cone.  The step replaces that cone alone, in its place, by <g1, x> and
    <g2, x>, of multiplicities |det(g1, x)| and |det(x, g2)|: the first
    piece takes the record over and the second is linked after it.
    """
    rays = list(rays)
    records = []
    for source, rs in enumerate(cones):
        gens = sorted((rays[i], i) for i in rs)
        if len(gens) < 2:
            records.append([rs, None, None, None, None, 1, source, None])
            continue
        (g1, i1), (g2, i2) = gens
        det = g1[0] * g2[1] - g1[1] * g2[0]
        if not det:
            raise NotStronglyConvex(f"cone on {(g1, g2)} contains a line")
        records.append([rs, g1, g2, i1, i2, abs(det), source, None])
    for rec, after in zip(records, records[1:]):
        rec[7] = after

    def split(rec, x):
        """Split rec at x in its place and return its two pieces, or None
        when x is a generator and nothing changes."""
        _, g1, g2, i1, i2, _, source, after = rec
        d = g1[0] * g2[1] - g1[1] * g2[0]
        d1, d2 = g1[0] * x[1] - g1[1] * x[0], x[0] * g2[1] - x[1] * g2[0]
        if d1 * d < 0 or d2 * d < 0:
            raise ResolutionCheckFailed(f"{x} does not lie in the cone it subdivides")
        if not d1 or not d2:
            return None
        n = len(rays)
        rays.append(x)

        def piece(g, i, mult, after):
            # the new ray has the largest index, so (i, n) is sorted
            return [(i, n), *((g, x, i, n) if g < x else (x, g, n, i)), mult, source, after]

        second = piece(g2, i2, abs(d2), after)
        rec[:] = piece(g1, i1, abs(d1), second)
        return rec, second

    # the singular cones in fan order; a step's singular pieces take their cone's place
    singular = [rec for rec in records if rec[5] > 1]
    top = at = 0
    stepped = bool(singular)
    while singular:
        if rng:
            at = rng.choice(range(len(singular)))
        else:
            # the first cone of top multiplicity: every piece is smaller than
            # its cone, so the top never rises, and no cone before the last
            # one picked reaches it
            while at < len(singular) and singular[at][5] != top:
                at += 1
            if at == len(singular):
                top = max(rec[5] for rec in singular)
                at = next(i for i, rec in enumerate(singular) if rec[5] == top)
        rec = singular[at]
        _, g1, g2, _, _, mult, _, _ = rec
        _, (a, k), (da, dk), count = least_chain_points(g1, g2, mult)
        if count < 1:
            place, here = 0, records[0]
            while here is not rec:
                place, here = place + 1, here[7]
            raise ResolutionCheckFailed(f"singular cone {place} has no parallelepiped points")
        # Random.choice reads only the length and one index, so drawing the index keeps its stream
        i = rng.choice(range(count)) if rng else 0
        a, k = a + i * da, k + i * dk
        x = primitive_vector(tuple((a * u + k * v) // mult for u, v in zip(g1, g2)))
        pieces = split(rec, x)
        if pieces is None:
            raise ResolutionCheckFailed(f"multiplicity did not drop: subdividing at {x} changed no cone")
        for piece in pieces:
            if piece[5] >= mult:
                raise ResolutionCheckFailed(
                    f"multiplicity did not drop: a cone of multiplicity {mult} "
                    f"has a piece of multiplicity {piece[5]}")
        singular[at:at + 1] = [piece for piece in pieces if piece[5] > 1]

    order, rec = [], records[0]
    while rec:
        order.append(rec)
        rec = rec[7]
    # optional smooth refinements, drawn as the general path draws them
    for _ in range(extra_rounds):
        place = rng.randrange(len(order)) if rng else 0
        rec = order[place]
        if rec[2] is None:
            continue
        if rng:
            rng.choice(((0, 1),))  # the one pair of generators
        x = primitive_vector(vec_add(rec[1], rec[2]))
        pieces = split(rec, x)
        if pieces is None:
            continue
        if any(piece[5] != 1 for piece in pieces):
            raise ResolutionCheckFailed(f"refining at {x} left a singular cone")
        order[place:place + 1] = pieces
        stepped = True
    if not stepped:
        return None
    return rays, tuple(rec[0] for rec in order), tuple(rec[6] for rec in order)
