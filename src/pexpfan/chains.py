"""The subdivision loop of ``fan.resolve``, its cells, and the chain records
split along Hirzebruch-Jung chains (Fulton, Introduction to Toric
Varieties, 2.6).

``resolve`` keeps its maximal cones as cells, lists [ray set, generators,
generator rays, multiplicity, source, slot 5, next]: the sorted ray
indices, the sorted generators and the ray index of each, the multiplicity
(0 if not simplicial), the coarse maximal cone holding the cell, and the next
cell in fan order.  A simplicial cell is a record, whose slot 5 holds the
list of rows of its scaled inverse S = mult * G^-1 in its coarse cone's
frame; a chain record is a record of at most two generators.  A cell that
is not simplicial holds its ``Cone`` there until pulling rays splits it.
``local_coordinates`` reads a point in a frame.  A step replaces each
cell holding its ray by its pieces in its place: the first piece takes the
cell over and the others follow it.  ``subdivide`` is the one loop, with
its picks, draws and checks.  This module imports nothing from ``fan``.
"""

from __future__ import annotations

import itertools
from operator import itemgetter, mul

from .errors import ResolutionCheckFailed
from .lattice import primitive_vector, vec_add


class Rng:
    """Any ``rng`` with ``choice`` and ``randrange``, as ``random.Random``."""


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


def local_coordinates(frame, x) -> tuple:
    """x in the frame (projection, annihilator) of a span, or of N if None;
    a point off the span is refused."""
    if not frame:
        return x
    projection, annihilator = frame
    # the rows' pairings with x, summed with no bytecode per row
    if any(map(sum, map(map, itertools.repeat(mul), annihilator, itertools.repeat(x)))):
        raise ResolutionCheckFailed(f"{x} does not lie in the cone it subdivides")
    return tuple(map(sum, map(map, itertools.repeat(mul), projection, itertools.repeat(x))))


def chain_split(index: dict, frames: list):
    """The ``split`` of a chain record at a point x inside it.  With c = S y
    for x's local coordinates y in its cone's frame ``frames[source]``,
    unread if all are N's, x = (c_1 g1 + c_2 g2) / mult.  The piece on g1
    and x has multiplicity c_2 and the one on x and g2 has c_1; in each, x
    takes the row of S of the generator it replaces.  Row i of S =
    sign(det G) adj(G) is the other generator's local vector turned a
    quarter, so the kept generator's new row is y turned, signed as
    det S = det G.  A new x joins the rays ``index``."""
    frames = frames if any(frames) else None

    def split(cell, x):
        _, (g1, g2), (i1, i2), mult, source, (s1, s2), after = cell
        y0, y1 = local_coordinates(frames[source], x) if frames else x
        (a, b), (c, d) = s1, s2
        c1, c2 = a * y0 + b * y1, c * y0 + d * y1
        if c1 < 0 or c2 < 0:
            raise ResolutionCheckFailed(f"{x} does not lie in the cone it subdivides")
        if not c1 or not c2:
            return None
        # x is a new ray, of the largest index, unless the input is no fan
        n = index.setdefault(x, len(index))
        # the new rows pair to 0 with y: g1's to c_2 with g1, g2's to c_1 with g2
        if a * d > b * c:
            t, u = (y1, -y0), (-y1, y0)
        else:
            t, u = (-y1, y0), (y1, -y0)
        second = [(i2, n) if i2 < n else (n, i2), *(((g2, x), (i2, n), c1, source, [u, s1]) if g2 < x
                                                     else ((x, g2), (n, i2), c1, source, [s1, u])), after]
        cell[:] = [(i1, n) if i1 < n else (n, i1), *(((g1, x), (i1, n), c2, source, [t, s2]) if g1 < x
                                                     else ((x, g1), (n, i1), c2, source, [s2, t])), second]
        return ((mult, (cell, second)),)

    return split


def drawn_chain_point(cell, draw):
    """The ``least`` of a singular chain record: the least parallelepiped
    point that ``draw(count)`` picks among the count points of
    ``least_chain_points`` on its local vectors, mapped through its
    generators; None when there are none.  The rows (a, b), (c, d) of S
    turn back into the local vectors (d, -c) and (-b, a) up to the sign of
    det G, which changes no point of the walk."""
    mult, ((a, b), (c, d)) = cell[3], cell[5]
    _, (a, k), (da, dk), count = least_chain_points((d, -c), (-b, a), mult)
    if count < 1:
        return None
    i = draw(count)
    a, k = a + i * da, k + i * dk
    return tuple([(a * x + k * y) // mult for x, y in zip(*cell[1])])
