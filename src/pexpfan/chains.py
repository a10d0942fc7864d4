"""Resolution and stellar subdivision on cells: the one subdivision loop,
the cells and the one refinement that draws and splits them, with chain
records split along Hirzebruch-Jung chains (Fulton, Introduction to Toric
Varieties, 2.6).  ``fan`` keeps the geometry and re-exports ``resolve`` and
``stellar_subdivision``.

A cell is a list [ray set, generators, generator rays, multiplicity,
source, slot 5, next]: the sorted ray indices, the sorted generators and
the ray index of each, the multiplicity (0 if not simplicial), the coarse
maximal cone holding the cell, and the next cell in fan order.  ``_cell``
makes every cell of a cone.  A simplicial cell is a record, whose slot 5
holds the list of rows of its scaled inverse S = mult * G^-1 in its coarse
cone's frame; a chain record is a record of at most two generators.  A
cell that is not simplicial holds its ``Cone`` there until pulling rays
splits it.  ``local_coordinates`` reads a point in a frame.  A step
replaces each cell holding its ray by its pieces in its place: the first
piece takes the cell over and the others follow it.  ``subdivide`` is the
one loop, with its picks and checks, and ``_Refinement`` draws and splits
every cell.
"""

from __future__ import annotations

import itertools
from operator import add, itemgetter, mul

from .errors import NonPrimitiveRay, NotAFan, RayOutsideSupport, ResolutionCheckFailed
from .fan import Cone, Fan, RaySet, SubdivisionMap, _framed, span_coordinates
from .lattice import Vector, is_primitive, mat_vec, pair, primitive_vector, strict_int, transpose, vec_add, vec_scale


_multiplicity = itemgetter(3)  # of a cell


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


def subdivide(first: list, ref: _Refinement, rng, extra_rounds: int) -> bool:
    """The subdivision steps of ``resolve`` on the simplicial cells from
    ``first`` on, in fan order, drawn and split by ``ref``; returns whether
    one changed the fan.

    Each step picks a singular cell, a random one or the first of top
    multiplicity, and a point x, ``ref.least(cell, draw)``: the one ``draw``
    picks among the cell's least parallelepiped points in ascending order, a
    random one or the first, or None when it has none.  x is primitive: were
    x = k y with k >= 2, y would be a nonzero parallelepiped point of smaller
    coefficient sum; ``_fine_map`` checks every ray.  ``ref.split(cell, x)``
    replaces the cells holding x by their pieces and returns (multiplicity,
    pieces) per replaced cell, the first piece being the cell itself, or None
    if no cell changes.  A step must change the fan, each piece must be
    smaller than its cell, and each extra round, which splits a cell of two
    or more generators at the sum of two of them, must change the fan and
    leave every piece smooth; otherwise ``ResolutionCheckFailed`` is raised.
    A fan with no such cell takes no extra round.
    """
    least, split = ref.least, ref.split
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
                top, at = max(map(_multiplicity, singular)), 0
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
            if max(map(_multiplicity, pieces)) >= was:
                piece = next(piece for piece in pieces if piece[3] >= was)
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


def _box_points(generators, mult: int) -> list[Vector]:
    """The nonzero lattice points of least coefficient sum in the half-open
    fundamental parallelepiped of the singular simplicial cone on the
    ``generators``, of multiplicity ``mult``, sorted.

    With G the generators as columns in the coordinates of their Smith form
    (``span_coordinates``), a lattice point x of the span is G r / mult for
    r = mult * G^-1 @ x, and it lies in the parallelepiped when
    0 <= r_i < mult.  So the points are the group Z^d / G Z^d, one per
    residue of r mod mult.  As G = diag(factors) V^-1,
    G Z^d = diag(factors) Z^d, so x = sum k_i e_i with 0 <= k_i < d_i runs
    over the group once, and its residue is sum k_i w_i mod mult for the
    columns w_i = (mult // d_i) V[:, i] of mult * G^-1: exactly mult
    residues off one Smith form, listed by columns, one list per coordinate
    of r, each factor repeating the list once per k.  The coefficient sum
    of a residue's point is its coordinate sum over mult, and only the
    residues of least sum are mapped to their ambient points
    sum r_i g_i / mult."""
    factors, _, _, v = span_coordinates(len(generators[0]), generators)
    columns = [[0]] * len(generators)
    for f, w in zip(factors, transpose(v)):
        if f > 1:
            columns = [[(a + s) % mult for s in range(0, f * b, b) for a in column] if b else column * f
                       for column, b in zip(columns, vec_scale(mult // f, w))]
    sums = columns[0]
    for column in columns[1:]:
        sums = list(map(add, sums, column))
    # the coordinates lie in [0, mult), so only the zero residue sums to 0
    least = min(filter(None, sums))
    g = transpose(generators)
    return sorted(tuple(x // mult for x in mat_vec(g, r))
                  for r in itertools.compress(zip(*columns), map(least.__eq__, sums)))


def _least_box_point(cell: list, draw) -> Vector:
    """The point ``draw(count)`` picks among the count least parallelepiped
    points of a record of three or more generators, ascending."""
    # the point is a nonzero box point of the cone, so of the smallest face
    # tau holding it, which is then singular; a face's multiplicity divides
    # that of every simplicial cone having it, so every cell the step
    # replaces, one of the star of tau, is singular
    points = _box_points(cell[1], cell[3])
    return points[draw(len(points))]


def _cell(rs: RaySet, cone: Cone, ray_index: dict[Vector, int], source: int) -> list:
    """The cell of a cone on rays of ``ray_index``, unlinked: a record of the
    rows of its ``_scaled_inverse`` in its frame if it is simplicial,
    whatever its size (a chain record if it has at most two generators),
    else a cell with its ``Cone``."""
    ids = tuple(map(ray_index.__getitem__, cone.generators))
    if cone.is_simplicial:
        return [rs, cone.generators, ids, cone.multiplicity(), source, list(cone._scaled_inverse), None]
    return [rs, cone.generators, ids, 0, source, cone, None]


def _cells(fan: Fan, index) -> list:
    """The maximal cones as cells (``_cell``), linked in fan order."""
    return linked(list(map(_cell, fan.maximal_cones, fan.cone_objects, itertools.repeat(index), itertools.count())))


def _piece(cell: list, x: Vector, rs: RaySet, n: int, j: int, c: list) -> list:
    """The record that replaces generator j of the record ``cell`` by x, of
    ray index n, where x = G c / mult: its multiplicity is c_j, and its
    S' = c_j G'^-1 keeps row j of S and takes (c_j S_i - c_i S_j) / mult, an
    exact division, for each other row i, all reordered with its sorted
    generators."""
    _, gens, ids, mult, source, rows, _ = cell
    cj, sj = c[j], rows[j]
    new = [row if i == j else tuple([(cj * a - ci * b) // mult for a, b in zip(row, sj)])
           for i, (row, ci) in enumerate(zip(rows, c))]
    # only x is out of place, and the generators are distinct, so the sort reads no id or row
    gens, ids, new = zip(*sorted(zip((*gens[:j], x, *gens[j + 1:]), (*ids[:j], n, *ids[j + 1:]), new)))
    return [rs, gens, ids, cj, source, list(new), None]


class _Refinement:
    """Cells under stellar steps, changed in place; ``frames`` is the
    caller's table of the coarse cones' frames, by source.  ``incidence``
    maps each ray index to the cells entered whose ray sets contain it,
    keyed by ``id``; chain records stay out of it in ``resolve``, which
    splits each alone.  A step adds its ray to ``ray_index`` if it is new,
    and replaces only the cells that hold it, each by its pieces in its
    place; every other cell keeps its slot 5 and what it cached.
    """

    def __init__(self, rank: int, ray_index: dict, cells: list, frames: list):
        self.rank, self.ray_index, self.frames = rank, ray_index, frames
        self.incidence: dict[int, dict[int, list]] = {}
        self._enter(cells)

    def _enter(self, cells: list[list]):
        """Enter the cells in the incidence map."""
        incidence = self.incidence
        for cell in cells:
            key = id(cell)
            for r in cell[0]:
                incidence.setdefault(r, {})[key] = cell

    def star(self, face: RaySet) -> list[list]:
        """The cells whose ray sets contain ``face``."""
        fewest, *rest = sorted(map(self.incidence.__getitem__, face), key=len)
        keys = iter(fewest)
        for cells in rest:
            keys = filter(cells.__contains__, keys)
        return list(map(fewest.__getitem__, keys))

    def least(self, cell: list, draw) -> Vector | None:
        """The point ``draw(count)`` picks among the count least
        parallelepiped points of a singular record, ascending, or None when
        there are none.  A record of three or more generators lists its
        group (``_least_box_point``).  A chain record walks
        ``least_chain_points`` on its local vectors, into which the rows
        (a, b), (c, d) of S turn back as (d, -c) and (-b, a) up to the sign
        of det G, which changes no point of the walk, and maps the point
        through its generators."""
        if len(cell[1]) > 2:
            return _least_box_point(cell, draw)
        mult, ((a, b), (c, d)) = cell[3], cell[5]
        _, (a, k), (da, dk), count = least_chain_points((d, -c), (-b, a), mult)
        if count < 1:
            return None
        i = draw(count)
        a, k = a + i * da, k + i * dk
        return tuple([(a * x + k * y) // mult for x, y in zip(*cell[1])])

    def split(self, cell: list, x: Vector) -> list[tuple[int, list[list]]] | None:
        """Replace the cells holding x, a point of the record ``cell``, by
        their pieces: (multiplicity of the cell, its pieces) per replaced
        cell, the first piece being the cell itself, or None when no cell
        changes.  With c = S y for x's local coordinates y in the record's
        frame, x = G c / mult, and a negative c_j is refused.

        A record of three or more generators holds x in the smallest face
        of its cone holding it, the generators j with c_j > 0, and ``step``
        replaces the star of that face.  A chain record, of generators g1
        and g2, is split alone, on integers: the piece on g1 and x has
        multiplicity c_2 and the one on x and g2 has c_1, and in each x
        takes the row of S of the generator it replaces.  Row i of
        S = sign(det G) adj(G) is the other generator's local vector turned
        a quarter, so the kept generator's new row is y turned, signed as
        det S = det G.  A new x joins the rays."""
        if len(cell[1]) > 2:
            c = self._coefficients(cell, x)
            if min(c) < 0:
                raise ResolutionCheckFailed(f"{x} does not lie in the cone it subdivides")
            ids = cell[2]
            return self.step(x, self.star(tuple(sorted([ids[j] for j, cj in enumerate(c) if cj]))), (cell, c))
        _, (g1, g2), (i1, i2), mult, source, (s1, s2), after = cell
        frame = self.frames[source]
        y0, y1 = local_coordinates(frame, x) if frame else x
        (a, b), (c, d) = s1, s2
        c1, c2 = a * y0 + b * y1, c * y0 + d * y1
        if c1 <= 0 or c2 <= 0:
            if c1 < 0 or c2 < 0:
                raise ResolutionCheckFailed(f"{x} does not lie in the cone it subdivides")
            return None
        # x is a new ray, of the largest index, unless the input is no fan
        index = self.ray_index
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

    def pull(self, rng: Rng | None) -> bool:
        """Simplicialize the cells by pulling rays, the least or a random one
        first; returns whether any was not."""
        rays = tuple(self.ray_index)
        nonsimplicial = {key: cell for cells in self.incidence.values()
                         for key, cell in cells.items() if not cell[3]}
        pulled = bool(nonsimplicial)
        # a pulled ray is the apex of every cone holding it, so pulling it again
        # changes nothing: each step pulls a new ray, and there are only so many
        guard = 0
        while nonsimplicial:
            guard += 1
            if guard > len(rays):
                raise ResolutionCheckFailed("simplicialization did not terminate")
            candidates = sorted({rays[i] for cell in nonsimplicial.values() for i in cell[0]})
            ray = rng.choice(candidates) if rng else candidates[0]
            # pulling the apex of a pyramid changes nothing (its one facet missing
            # the apex is the base); then the other candidates are tried in order
            for ray in dict.fromkeys((ray, *candidates)):
                change = self.step(ray, self.star((self.ray_index[ray],)))
                if change:
                    break
            else:
                raise ResolutionCheckFailed("no subdividing ray found")
            for _, cells in change:
                nonsimplicial.update((id(cell), cell) for cell in cells)
            nonsimplicial = {key: cell for key, cell in nonsimplicial.items() if not cell[3]}
        return pulled

    def _coefficients(self, cell: list, x: Vector) -> list[int]:
        """c = S y for the local coordinates y of x in a record's frame, so
        that x = G c / mult; x must lie in its span."""
        frame = self.frames[cell[4]]
        y = local_coordinates(frame, x) if frame else x
        return [sum(map(mul, row, y)) for row in cell[5]]

    def step(self, ray: Vector, holding, known=(None, None)) -> list[tuple[int, list[list]]] | None:
        """Replace each cell of ``holding``, the cells that hold the ray, by
        the joins of the ray with its facets that miss it, in its place, in
        the order of their contacts.  The facet of a record that misses
        generator j misses the ray when c_j > 0, and contact order is j
        descending; ``known`` is a record and its c, computed by ``split``.
        Returns (multiplicity of the cell, its pieces) per replaced cell, the
        first piece being the cell itself, taken over; or None when no cell
        changes."""
        new_idx = self.ray_index.get(ray, len(self.ray_index))
        seen: set[RaySet] = set()
        pieces = []
        for cell in holding:
            ids = cell[2]
            if cell[5].__class__ is Cone:
                # the ray lies in the cone, so it lies on a facet iff it pairs to 0 with it
                found = [({ids[t] for t in contact} | {new_idx}, contact) for normal, contact in cell[5].facets
                         if pair(normal, ray)]
            else:
                c = known[1] if cell is known[0] else self._coefficients(cell, ray)
                found = [((*ids[:j], new_idx, *ids[j + 1:]), (j, c)) for j in range(len(c) - 1, -1, -1) if c[j]]
            out = []
            for rays, how in found:
                piece = tuple(sorted(rays))
                if piece in seen:
                    raise ResolutionCheckFailed(f"ambiguous subdivision piece {piece}")
                seen.add(piece)
                out.append((piece, how))
            pieces.append(out)
        if new_idx < len(self.ray_index) and all(
                len(out) == 1 and out[0][0] == cell[0] for cell, out in zip(holding, pieces)):
            return None
        self.ray_index[ray] = new_idx
        changes = []
        for cell, out in zip(holding, pieces):
            for r in cell[0]:
                del self.incidence[r][id(cell)]
            if cell[5].__class__ is Cone:
                # a pyramid over a facet with the ray as apex: its sorted rays are
                # its primitive extreme rays, and it spans its cell's space
                cells = [_cell(piece, _framed(self.rank, tuple(sorted([ray, *map(cell[1].__getitem__, contact)])),
                                              self.frames[cell[4]]), self.ray_index, cell[4])
                         for piece, contact in out]
            else:
                cells = [_piece(cell, ray, piece, new_idx, j, c) for piece, (j, c) in out]
            linked(cells, cell[6])
            changes.append((cell[3], cells))
            # the first piece takes the cell over, so the cell before it keeps its link
            cell[:], cells[0] = cells[0], cell
            self._enter(cells)
        return changes


def _fine_map(coarse: Fan, rays, first: list, frames: list) -> SubdivisionMap:
    """The map to ``coarse`` from the fan on ``rays`` whose maximal cones are
    the cells from ``first`` on, with no ``Fan.build``: above rank 2 with the
    cells' cones, every record's cone, a chain record's too, built once in
    its coarse cone's frame (``frames``) and handed the record's
    multiplicity and S.  Only what an input that is no fan could break is
    checked."""
    # the rest of Fan.build holds by construction: int rays and indices,
    # coarse rays that passed it, sorted ray sets of distinct indices, at
    # least one cell, and the new ray in every piece, so no zero cone beside
    # other cones
    rank, rays = coarse.rank, tuple(rays)
    for r in rays[len(coarse.rays):]:
        if len(r) != rank or not is_primitive(r):
            raise ResolutionCheckFailed(f"the refinement's ray {r} is not a primitive vector of rank {rank}")
    raysets, gens, _, mults, sources, slots, _ = zip(*fan_order(first))
    if len(set(raysets)) != len(raysets):
        raise NotAFan("duplicate maximal cones")
    if len(set(itertools.chain.from_iterable(raysets))) != len(rays):
        raise NotAFan("every ray must appear in some maximal cone")
    fine = Fan(rank, rays, raysets)
    if rank > 2:
        # an invariant keeps its value in the instance dict, which a value
        # class leaves writable (only attribute assignment raises)
        fine.__dict__["cone_objects"] = tuple(
            slot if slot.__class__ is Cone else _framed(rank, g, frames[s], (m, tuple(slot)))
            for g, m, s, slot in zip(gens, mults, sources, slots))
    return SubdivisionMap(fine, coarse, sources)._marked()


def stellar_subdivision(fan: Fan, ray: Vector) -> SubdivisionMap:
    """Refine by a primitive ray: every cone containing the ray is replaced by
    the joins of the ray with its facets not containing it.

    The fine fan keeps the coarse rays in their order and appends the ray if
    it is new; each cone missing the ray keeps its place and ray indices.  No
    old ray is lost: the facets through an extreme ray r other than the ray
    meet in r, so one of them misses the ray.  A ray that changes no cone
    gives the identity map.  This is one ``_Refinement`` step on the cells
    of ``_cell``, every one of them entered, with the cones holding an
    arbitrary ray found by a ``Cone.contains`` scan.
    """
    ray = tuple(ray)
    if not any(ray):
        raise NonPrimitiveRay("cannot subdivide at the zero vector")
    if not is_primitive(ray):
        raise NonPrimitiveRay(f"{ray} is not primitive")
    index, cones = dict(fan._ray_index), fan.cone_objects
    frames = [cone._coordinates for cone in cones]
    cells = _cells(fan, index)
    holding = [cell for cell, cone in zip(cells, cones) if cone.contains(ray)]
    if not holding:
        raise RayOutsideSupport(f"{ray} lies outside the support of the fan")
    changed = _Refinement(fan.rank, index, cells, frames).step(ray, holding)
    return _fine_map(fan, index, cells[0], frames) if changed else SubdivisionMap.identity(fan)


def resolve(
    fan: Fan,
    *,
    rng: Rng | None = None,
    extra_rounds: int = 0,
) -> SubdivisionMap:
    """Refine the fan ``fan`` until every maximal cone is smooth; returns the
    map from the fine fan to ``fan``.

    First makes every cone simplicial by stellar subdivisions at existing
    rays, then repeatedly subdivides a singular cone at a parallelepiped
    lattice point of minimal coefficient sum, the least in lex order or, with
    an ``rng``, a random one of them.  With
    the default deterministic choices the result is canonical; an ``rng``
    permutes the choice of singular cone and the tie-breaks, and
    ``extra_rounds`` appends smooth refinements, both of which produce
    alternative valid resolutions.

    The maximal cones are cells in fan order (``_cells``), and the one loop
    ``subdivide`` picks, checks and splices each step, which one
    ``_Refinement`` draws and splits.  Every simplicial cell is a record of
    its S in its coarse cone's frame, and every cell reads one table of
    frames.  A chain record, of at most two rays, is drawn on the
    Hirzebruch-Jung walk of the local vectors its S turns back into and
    split alone, on the integers of its S and of the point.  Any other cell
    is entered in the refinement: a record if simplicial, else a cell with
    its ``Cone`` until pulling rays simplicializes it.  A record is drawn
    from its listed parallelepiped (``_least_box_point``) and split with no
    ``Cone`` (``_piece``).  The refinement finds the cells holding a ray x
    without a scan: x lies in a known cone sigma, and if tau is the
    smallest face of sigma holding x, any cone holding x meets sigma in a
    face of both holding the relative interior of tau, so it has the rays
    of tau.  So the cones holding x are those whose ray sets contain tau,
    and no chain record is among them: a pulled ray, a box point of a cone
    of dim >= 3 and the sum of two of its generators lie inside a proper
    face, never a maximal cone.

    A singular subdivision step must change the fan, and each piece must
    have a smaller multiplicity than the cone it replaces: the point has
    every coefficient below 1 in that cone, and a piece's multiplicity is
    the cone's times the coefficient of the generator it drops.  So the
    multiset of multiplicities falls at every step, and the loop ends.
    Every extra round must change the fan and keep it smooth.  Otherwise
    ``ResolutionCheckFailed`` is raised.  ``extra_rounds`` must be an int
    (not a bool), or ``ValueError`` is raised.
    """
    if strict_int(extra_rounds, "extra_rounds") < 0:
        raise ValueError(f"extra_rounds must be nonnegative, got {extra_rounds}")
    index, frames = dict(fan._ray_index), [cone._coordinates for cone in fan.cone_objects]
    cells = _cells(fan, index)
    ref = _Refinement(fan.rank, index, [cell for cell in cells if len(cell[1]) > 2], frames)
    pulled = ref.pull(rng)
    stepped = subdivide(cells[0], ref, rng, extra_rounds)
    return _fine_map(fan, index, cells[0], frames) if stepped or pulled else SubdivisionMap.identity(fan)
