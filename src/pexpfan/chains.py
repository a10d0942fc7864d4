"""The subdivision loop of ``fan.resolve``, its cells, and the chain records
split along Hirzebruch-Jung chains (Fulton, Introduction to Toric
Varieties, 2.6).

``resolve`` keeps its maximal cones as cells, lists [ray set, generators,
generator rays, multiplicity, source, slot 5, next]: the sorted ray
indices, the sorted generators and the ray index of each, the multiplicity
(0 if not simplicial), the coarse maximal cone holding the cell, and the next
cell in fan order.  Slot 5 of a chain record, a cell of at most two rays,
holds the tuple of its local 2-vectors, in its coarse cone's frame.  Any
other cell is a record once simplicial, whose slot 5 holds the list of rows
of its scaled inverse S = mult * G^-1 in that frame, and until then holds
its ``Cone``.  A step replaces each cell holding its ray by its pieces in its
place: the first piece takes the cell over and the others follow it.
``subdivide`` is the one loop, with its picks, draws and checks.  This
module imports nothing from ``fan``.
"""

from __future__ import annotations

import itertools
from operator import itemgetter, mul

from .errors import NotStronglyConvex, ResolutionCheckFailed
from .lattice import mat_vec, primitive_vector, vec_add


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


def fan_order(cell) -> list:
    """The cells from ``cell`` on, in fan order."""
    cells = []
    while cell:
        cells.append(cell)
        cell = cell[6]
    return cells


def linked(cells: list, after=None) -> list:
    """The cells, each linked to the next and the last to ``after``."""
    for cell, following in zip(cells, cells[1:] + [after]):
        cell[6] = following
    return cells


def _spliced(cells: list, replaced, least: int) -> list:
    """``cells`` with each replaced cell's pieces of multiplicity >= least in
    its place: one pass, with no bytecode per cell."""
    pieces = {id(out[0]): [cell for cell in out if cell[3] >= least] for _, out in replaced}
    return list(itertools.chain.from_iterable(map(pieces.get, map(id, cells), zip(cells))))


def subdivide(first: list, least, split, rng, extra_rounds: int) -> bool:
    """The subdivision steps of ``fan.resolve`` on the simplicial cells from
    ``first`` on, in fan order; returns whether one changed the fan.

    Each step picks a singular cell, a random one or the first of top
    multiplicity, and a point x, ``least(cell, draw)``: the one ``draw``
    picks among the cell's least parallelepiped points in ascending order, a
    random one or the first, or None when it has none.  x is primitive: were
    x = k y with k >= 2, y would be a nonzero parallelepiped point of smaller
    coefficient sum; ``fan._fine_map`` checks every ray.  ``split(cell, x)``
    replaces the cells holding x by their pieces and returns (multiplicity,
    pieces) per replaced cell, the first piece being the cell itself, or None
    if no cell changes.  A step must change the fan, each piece must be
    smaller than its cell, and each extra round, which splits a cell of two
    or more generators at the sum of two of them, must change the fan and
    leave every piece smooth; otherwise ``ResolutionCheckFailed`` is raised.
    A fan with no such cell takes no extra round.
    """
    singular = [cell for cell in fan_order(first) if cell[3] > 1]
    top, at, stepped = 0, 0, bool(singular)
    # Random.choice reads only the length and one index, so drawing the index keeps its stream
    draw = (lambda count: rng.choice(range(count))) if rng else (lambda count: 0)
    while singular:
        if rng:
            at = rng.choice(range(len(singular)))
        else:
            # the first cell of top multiplicity: every piece is smaller than
            # its cell, so the top never rises, and no cell before the last
            # one picked reaches it
            while at < len(singular) and singular[at][3] != top:
                at += 1
            if at == len(singular):
                top, at = max(map(itemgetter(3), singular)), 0
                while singular[at][3] != top:
                    at += 1
        cell = singular[at]
        x = least(cell, draw)
        if x is None:
            place = next(i for i, c in enumerate(fan_order(first)) if c is cell)
            raise ResolutionCheckFailed(f"singular cone {place} has no parallelepiped points")
        replaced = split(cell, x)
        if not replaced:
            raise ResolutionCheckFailed(f"multiplicity did not drop: subdividing at {x} changed no cone")
        for was, pieces in replaced:
            for piece in pieces:
                if piece[3] >= was:
                    raise ResolutionCheckFailed(
                        f"multiplicity did not drop: a cone of multiplicity {was} "
                        f"has a piece of multiplicity {piece[3]}")
        if len(replaced) == 1:
            singular[at:at + 1] = [piece for piece in replaced[0][1] if piece[3] > 1]
        else:
            # the other replaced cells may lie before the picked one: scan anew
            singular, at = _spliced(singular, replaced, 2), 0

    # optional smooth refinements, for resolution-independence experiments; a
    # round splits only cells of two or more generators, into such cells
    order = [cell for cell in fan_order(first) if len(cell[1]) > 1] if extra_rounds else []
    for _ in range(extra_rounds if order else 0):
        place = rng.randrange(len(order)) if rng else 0
        gens = order[place][1]
        pairs = list(itertools.combinations(range(len(gens)), 2))
        a, b = rng.choice(pairs) if rng else pairs[0]
        x = primitive_vector(vec_add(gens[a], gens[b]))
        replaced = split(order[place], x)
        if not replaced:
            # the sum of two generators of a smooth cell lies on no ray of a fan
            raise ResolutionCheckFailed(f"refining at {x} changed no cone")
        # the fan was smooth before the round, so only the new pieces can be singular
        if any(piece[3] != 1 for _, pieces in replaced for piece in pieces):
            raise ResolutionCheckFailed(f"refining at {x} left a singular cone")
        order = _spliced(order, replaced, 0)
        stepped = True
    return stepped


def chain_record(rs, gens, source: int) -> list:
    """The chain record on the rays ``rs``, of two in rank 2 or fewer, and
    their vectors ``gens``, local as well."""
    ids, mult = rs, 1
    if len(rs) == 2:
        if gens[1] < gens[0]:
            gens, ids = gens[::-1], rs[::-1]
        mult = abs(gens[0][0] * gens[1][1] - gens[0][1] * gens[1][0])
        if not mult:
            raise NotStronglyConvex(f"cone on {gens} contains a line")
    return [rs, gens, ids, mult, source, gens, None]


def chain_split(index: dict, frames: dict):
    """The ``split`` of a chain record at a point x inside it: <g1, x> and
    <g2, x>, of multiplicities |det(l1, y)| and |det(y, l2)| for x's local
    coordinates y, x itself or projection x for the frame (projection,
    annihilator) ``frames[source]``, which must annihilate x.  A new x joins
    the rays ``index``."""
    def split(cell, x):
        _, (g1, g2), (i1, i2), mult, source, (l1, l2), after = cell
        y = x
        if frames:  # above rank 2, where every record has its cone's frame
            (p, q), annihilator = frames[source]
            if any(mat_vec(annihilator, x)):
                raise ResolutionCheckFailed(f"{x} does not lie in the cone it subdivides")
            y = sum(map(mul, p, x)), sum(map(mul, q, x))
        d = l1[0] * l2[1] - l1[1] * l2[0]
        d1, d2 = l1[0] * y[1] - l1[1] * y[0], y[0] * l2[1] - y[1] * l2[0]
        if d1 * d < 0 or d2 * d < 0:
            raise ResolutionCheckFailed(f"{x} does not lie in the cone it subdivides")
        if not d1 or not d2:
            return None
        # x is a new ray, of the largest index, unless the input is no fan
        n = index.setdefault(x, len(index))
        second = [(i2, n) if i2 < n else (n, i2), *(((g2, x), (i2, n), abs(d2), source, (l2, y)) if g2 < x
                                                     else ((x, g2), (n, i2), abs(d2), source, (y, l2))), after]
        cell[:] = [(i1, n) if i1 < n else (n, i1), *(((g1, x), (i1, n), abs(d1), source, (l1, y)) if g1 < x
                                                     else ((x, g1), (n, i1), abs(d1), source, (y, l1))), second]
        return ((mult, (cell, second)),)

    return split


def drawn_chain_point(cell, draw):
    """The ``least`` of a singular chain record: the least parallelepiped
    point that ``draw(count)`` picks among the count points of
    ``least_chain_points`` on its local vectors, mapped through its
    generators; None when there are none."""
    (g1, g2), mult = cell[1], cell[3]
    _, (a, k), (da, dk), count = least_chain_points(*cell[5], mult)
    if count < 1:
        return None
    i = draw(count)
    a, k = a + i * da, k + i * dk
    return tuple([(a * x + k * y) // mult for x, y in zip(g1, g2)])
