"""Cones and fans: faces, multiplicity, completeness, stars, and resolution.

Cones are strongly convex rational polyhedral cones given by primitive
generators on their extreme rays.  Each cone computes one facet table, its
inward facet normals with their contact generators, and answers every face
question from it: every face is a meet of facets, the smallest one holding a
point the meet of the facets through it.  Each cone has one coordinate
frame: those of N for a full-dimensional cone, else the span coordinates of
its one Smith form, or of its cell for a resolve piece.  A simplicial cone
reads its multiplicity, its facets and its tangent weights off one adjugate
of its local generators in that frame.  A non-simplicial cone takes its
facets from the vertex enumeration ``extreme_rays_of_region``.
Simplicial cones are handled in any rank; non-simplicial cones are limited to
ambient rank <= 4.  All geometry is exact.  ``resolve`` keeps a fan's
maximal cones as cells linked in fan order (``chains``), each made by
``_cell``: an integer record of its scaled inverse for a simplicial cone,
split as a chain record when it has at most two generators, and a cell
with its ``Cone`` until then, and runs the one subdivision loop of
``chains`` on them.
"""

from __future__ import annotations

import itertools
from operator import mul

from .chains import Rng, chain_split, drawn_chain_point, fan_order, linked, local_coordinates, subdivide
from .errors import (
    ConeNotInFan,
    NonPrimitiveRay,
    NotAFan,
    NotIndependent,
    NotSimplicial,
    NotStronglyConvex,
    RayOutsideSupport,
    ResolutionCheckFailed,
    UnsupportedDimension,
)
from .lattice import (
    IntMatrix,
    Vector,
    adjugate,
    identity_matrix,
    independent_rows,
    invariant,
    is_primitive,
    line_kernel,
    mat_vec,
    pair,
    primitive_vector,
    smith_normal_form,
    strict_int,
    strict_list,
    transpose,
    value_class,
    vec_scale,
    QuotientLattice,
)

RaySet = tuple[int, ...]  # sorted tuple of ray indices; () is the zero cone


def extreme_rays_of_region(n: int, ineqs, eqs) -> tuple[Vector, ...]:
    """Primitive extreme rays of the pointed part of {x : A x >= 0, B x = 0}.

    Brute force: every extreme ray is cut out by n-1 independent active
    constraints.  The equations are first cut down by ``independent_rows``,
    so each candidate is the ``line_kernel`` of those rows plus a subset of
    the inequalities, and it is kept when it is feasible up to sign.
    Directions lying in the lineality space are skipped.
    """
    ineqs = tuple(tuple(a) for a in ineqs)
    eqs_indep = tuple(tuple(eqs[i]) for i in independent_rows(eqs))
    k = n - len(eqs_indep) - 1
    if k < 0:
        return ()
    found = set()
    for subset in itertools.combinations(ineqs, k):
        v = line_kernel(eqs_indep + subset, n)
        if v is None:
            continue
        # v lies in the kernel of the equations, so only the signs on A count;
        # the first pair of opposite signs rules it out
        pos = neg = True
        for a in ineqs:
            x = pair(a, v)
            pos, neg = pos and x >= 0, neg and x <= 0
            if not (pos or neg):
                break
        if pos and neg:
            continue  # lineality direction, not an extreme ray
        if pos:
            found.add(v)
        elif neg:
            found.add(tuple(-x for x in v))
    return tuple(sorted(found))


def span_coordinates(rank: int, vectors) -> tuple[Vector, IntMatrix, IntMatrix, IntMatrix]:
    """(factors, projection, annihilator, columns) of the saturated lattice
    Span(vectors) & Z^rank, from one Smith form U A V = D of the vectors as
    the columns of A.

    ``factors`` are the d nonzero diagonal entries of D, so d is the
    dimension of the span.  ``projection`` = U[:d] gives exact coordinates on
    the span, and ``annihilator`` = U[d:] is a basis of the characters
    vanishing on it.  ``columns`` is V, one row per vector.  In those
    coordinates the vectors are G = U[:d] A = D[:d] V^-1, so the residues of
    a cone's parallelepiped come from V and the factors (``_box_points``),
    and A V = U^-1 D, so column i of U^-1, the span basis vector i, is
    (sum_j V[j][i] v_j) / d_i with no inverse computed
    (``Fan.face_quotient``).  Every lattice coordinate in the package is read
    from here, but those of N, those a resolve piece takes (``_framed``) and
    those of a ray's face quotient (``_unit_pairing``).
    """
    cols = tuple(tuple(v) for v in vectors)
    if not cols:
        return (), (), identity_matrix(rank), ()
    u, d, v = smith_normal_form(transpose(cols))
    factors = tuple(d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    return factors, u[:len(factors)], u[len(factors):], v


def _unit_pairing(g: Vector) -> Vector:
    """A point s with <g, s> = 1 for a primitive vector g: the extended gcd
    of its coordinates, folded in one at a time."""
    d, s = 0, [0] * len(g)
    for i, x in enumerate(g):
        # a d + b x = gcd(d, x) by the extended Euclidean algorithm
        a, b, r, a1, b1, r1 = 1, 0, d, 0, 1, x
        while r1:
            q = r // r1
            a, b, r, a1, b1, r1 = a1, b1, r1, a - q * a1, b - q * b1, r - q * r1
        s = [a * y for y in s]
        s[i] = b
        d = r
    return tuple(d * y for y in s)  # d is 1 or -1


@value_class
class Cone:
    """A strongly convex rational cone with canonical generators.

    Generators are primitive, lie on the extreme rays, and are sorted, so two
    equal cones compare equal: ``from_generators`` makes them so, and a
    resolve piece or fine cone is so already (``_framed``).  ``rank`` is the
    ambient lattice rank.  Each cone reads its dimension, local generators, facets
    and smallest faces in one coordinate frame (``_coordinates``), and a
    simplicial one its multiplicity and scaled inverse off one adjugate of
    its local generators in it.
    """

    rank: int
    generators: tuple[Vector, ...]

    @staticmethod
    def from_generators(rank: int, vectors) -> "Cone":
        raw = []
        for v in vectors:
            v = tuple(v)
            if len(v) != rank:
                raise ValueError(f"generator {v} has length != rank {rank}")
            if any(v):
                raw.append(primitive_vector(v))
        gens = tuple(sorted(set(raw)))
        if not gens:
            return Cone(rank, ())
        cone = Cone(rank, gens)
        if cone.is_simplicial:
            # independent generators always span a pointed cone of extreme rays
            return cone
        # the smallest face of 0 is the largest linear subspace in the cone
        if cone._smallest_face((0,) * rank):
            raise NotStronglyConvex(f"cone on {gens} contains a line")
        if rank > 4:
            raise UnsupportedDimension(
                "non-simplicial cones are supported only in rank <= 4"
            )
        # a generator is extreme iff the smallest face holding it is its ray
        extreme = tuple(g for i, g in enumerate(gens) if cone._smallest_face(g) == (i,))
        return cone if len(extreme) == len(gens) else Cone(rank, extreme)

    # -- basic geometry ------------------------------------------------------

    @invariant
    def _coordinates(self) -> tuple[IntMatrix, IntMatrix] | None:
        """None for a full-dimensional cone, whose coordinates are those of N;
        otherwise (projection, annihilator) of its saturated span, exact
        coordinates on it and the characters vanishing on it.  A cone of rank
        independent generators knows it is full-dimensional from its
        adjugate; any other reads them off its one Smith form
        (``span_coordinates``) or, as a resolve piece, takes its cell's
        (``_framed``).  A cache in the instance dict, not a field."""
        if len(self.generators) == self.rank:
            try:
                self._adjugate
                return None
            except NotIndependent:
                pass
        _, projection, annihilator, _ = self._span
        return (projection, annihilator) if annihilator else None

    @invariant
    def _adjugate(self) -> tuple[int, IntMatrix]:
        """(det, adj) of the local generators as the columns of G: of the
        generators themselves when there are rank of them, simplicial cones
        only otherwise.  Every simplicial fine cone of ``resolve`` and
        ``stellar_subdivision`` above rank 2 is handed (mult, S) from its
        record (``_framed``), the pair times sign(det), to which its readers
        ``multiplicity`` and ``_scaled_inverse`` are blind."""
        g = self.generators if len(self.generators) == self.rank else self.local_generators
        return adjugate(transpose(g))

    @invariant
    def _span(self) -> tuple[Vector, IntMatrix, IntMatrix, IntMatrix]:
        """(factors, projection, annihilator, columns): the cone's own Smith
        form, read only by ``_coordinates`` and ``_box_points``."""
        return span_coordinates(self.rank, self.generators)

    @invariant
    def dim(self) -> int:
        return len(self._coordinates[0]) if self._coordinates else self.rank

    @property
    def is_simplicial(self) -> bool:
        return len(self.generators) == self.dim

    @invariant
    def local_generators(self) -> tuple[Vector, ...]:
        if not self._coordinates:
            return self.generators
        projection = self._coordinates[0]
        return tuple(mat_vec(projection, g) for g in self.generators)

    @invariant
    def _scaled_inverse(self) -> IntMatrix:
        """mult * G^-1 = sign(det) * adj for the ``_adjugate`` (det, adj) of
        the local generators G, simplicial cones only.  Row j pairs to mult
        with generator j and to 0 with the others.  Read by the facets,
        ``_cell`` and, for a smooth cone, whose rows are then the dual basis
        of the generators, by ``ktheory.tangent_weights`` and
        ``ktheory._pairing_series``."""
        det, adj = self._adjugate
        return adj if det > 0 else tuple(vec_scale(-1, row) for row in adj)

    @invariant
    def facets(self) -> tuple[tuple[Vector, tuple[int, ...]], ...]:
        """(inward normal, contact generator indices) per facet, sorted by contact.

        The normal is an ambient functional, the primitive local normal u of
        the facet read through the span projection, so <normal, v> = <u, x>
        for a point v of the span with local coordinates x.  For a
        full-dimensional cone it is the primitive inward facet normal, the
        local coordinates being those of N; below full dimension only its
        values on the span are determined.

        The local normals are the extreme rays of the dual cone
        {u : <u, x> >= 0 for every local generator x}, one per facet; the
        contact of a normal is the set of generators it vanishes on.  On a
        simplicial cone the normal of the facet missing generator j is row j
        of ``_scaled_inverse`` made primitive; at multiplicity 1 the row is
        taken as it is, since it pairs to 1 with generator j.  Its contact,
        every index but j, is the (n-1)-subset that ``combinations`` lists
        at place n-1-j, which is also its place in contact order.  A
        non-simplicial cone enumerates them with ``extreme_rays_of_region``.
        """
        if self.is_simplicial:
            n, normals = len(self.generators), self._scaled_inverse[::-1]
            if abs(self._adjugate[0]) != 1:
                normals = tuple(map(primitive_vector, normals))
            contacts = itertools.combinations(range(n), n - 1) if n else ()
        else:
            g = self.local_generators
            found = sorted((tuple(i for i, x in enumerate(g) if pair(u, x) == 0), u)
                           for u in extreme_rays_of_region(self.dim, g, ()))
            contacts, normals = tuple(zip(*found)) or ((), ())  # none on a cone holding a line
        if self._coordinates:
            proj_t = transpose(self._coordinates[0])
            normals = [mat_vec(proj_t, u) for u in normals]
        return tuple(zip(normals, contacts))

    def _smallest_face(self, v: Vector) -> tuple[int, ...] | None:
        """The generator indices of the smallest face holding the point v, or
        None when the cone does not hold v: v must lie in the span and pair
        nonnegatively with every facet normal, and the face is the meet of
        the facets through v (Fulton, 1.2)."""
        if self._coordinates and any(pair(a, v) for a in self._coordinates[1]):
            return None  # outside the span
        face = set(range(len(self.generators)))
        for u, contact in self.facets:
            x = pair(u, v)
            if x < 0:
                return None
            if x == 0:
                face.intersection_update(contact)
        return tuple(sorted(face))

    def contains(self, v: Vector) -> bool:
        v = tuple(v)
        if len(v) != self.rank:
            raise ValueError("point has the wrong length")
        return self._smallest_face(v) is not None

    def faces_as_generator_subsets(self) -> tuple[tuple[int, ...], ...]:
        """Every face, as a sorted tuple of generator indices (incl. () and all)."""
        n = len(self.generators)
        if self.is_simplicial:
            out = []
            for r in range(n + 1):
                out.extend(itertools.combinations(range(n), r))
            return tuple(out)
        # every face is a meet of facets, the cone itself the empty meet
        faces = {tuple(range(n))}
        for _, contact in self.facets:
            faces |= {tuple(i for i in f if i in contact) for f in faces}
        return tuple(sorted(faces))

    def multiplicity(self) -> int:
        """Index of the sublattice spanned by the generators inside Span & N:
        |det| of the ``_adjugate``."""
        if not self.is_simplicial:
            raise NotSimplicial("multiplicity is defined for simplicial cones")
        return abs(self._adjugate[0])


@value_class
class Fan:
    """A fan: primitive rays plus maximal cones given as ray-index tuples."""

    rank: int
    rays: tuple[Vector, ...]
    maximal_cones: tuple[RaySet, ...]

    # -- construction --------------------------------------------------------

    @staticmethod
    def build(rank: int, rays, maximal_cones, validate: bool = True) -> "Fan":
        if strict_int(rank, "fan rank") < 0:
            raise NotAFan(f"fan rank must be nonnegative, got {rank}")
        rays = tuple(tuple(strict_int(x, "ray coordinate") for x in strict_list(r, "ray"))
                     for r in strict_list(rays, "rays"))
        for r in rays:
            if len(r) != rank:
                raise NotAFan(f"ray {r} has length != rank {rank}")
            if not any(r):
                raise NonPrimitiveRay("the zero vector is not a ray")
            if not is_primitive(r):
                raise NonPrimitiveRay(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise NotAFan("duplicate rays")
        cones = []
        for c in strict_list(maximal_cones, "max_cones"):
            listed = [strict_int(i, "cone index") for i in strict_list(c, "cone")]
            c = tuple(sorted(set(listed)))
            if len(c) != len(listed):
                raise NotAFan(f"cone {listed} lists a ray twice")
            if any(i < 0 or i >= len(rays) for i in c):
                raise NotAFan(f"cone {c} references a missing ray")
            cones.append(c)
        if len(set(cones)) != len(cones):
            raise NotAFan("duplicate maximal cones")
        if not cones:
            raise NotAFan("a fan needs at least the zero cone")
        used = set(i for c in cones for i in c)
        if used != set(range(len(rays))):
            raise NotAFan("every ray must appear in some maximal cone")
        if len(cones) > 1 and () in cones:
            raise NotAFan("the zero cone cannot be maximal next to other cones")
        fan = Fan(rank, rays, tuple(cones))
        if validate:
            fan._validate()
        return fan

    def _validate(self):
        """Raise ``NotAFan`` unless any two maximal cones meet in a common face.

        The pairwise loop, with ``_check_pair``, raises every error about how
        two cones meet.  A fan that ``_wall_accepts`` (full-dimensional cones
        tiling the convex cone C that their boundary walls cut out, by the
        wall table) skips it, because such an input is always a fan:

        Take x in sigma & tau, and let F be the smallest face of sigma
        holding x.  Project the cones having F as a face to N_R/Span(F).
        They are full-dimensional there, and their facets are the images of
        their walls containing F.  A wall of two cones is a facet of both, so
        F is a face of the other cone too: in the quotient these walls are
        still matched, on opposite sides.  Every other wall lies on a
        hyperplane whose normal is nonnegative on C and vanishes at x, a
        supporting hyperplane of the tangent cone of C at x, which holds
        Span(F).  By the crossing argument of ``is_complete`` inside that
        tangent cone (direct when the quotient has rank at most 1) these
        cones cover it near x with one generic degree, at least 1 since sigma
        is among them.  By ``_tiling`` a generic point of C lies in exactly
        one cone, and tau, full-dimensional and inside C, holds generic
        points of C arbitrarily near x; so tau has F as a face, and holds it.
        Taking x in the relative interior of sigma & tau, F holds all of
        sigma & tau, as the smallest face of sigma holding x does: the two
        meet in F, a common face, which is what the pairwise check tests.
        """
        cone_objs = self.cone_objects
        for idx, c in enumerate(self.maximal_cones):
            if len(cone_objs[idx].generators) != len(c):
                raise NotAFan(f"maximal cone {c} lists redundant generators")
        if self._wall_accepts():
            return
        for i, j in itertools.combinations(range(len(self.maximal_cones)), 2):
            a, b = set(self.maximal_cones[i]), set(self.maximal_cones[j])
            if a <= b or b <= a:
                raise NotAFan(f"maximal cone {i} is contained in cone {j}")
            self._check_pair(i, j)

    def _wall_accepts(self) -> bool:
        """True when the wall table shows full-dimensional cones tiling the
        convex cone their boundary walls cut out (``_tiling``), complete or
        not, simplicial or not; then it is a fan (``_validate``).  Refused
        fans, fans with a lower-dimensional cone and fans whose support is
        not convex are left to the pairwise loop, which reports them."""
        return self._tiling is not None

    def _check_pair(self, i: int, j: int):
        ci, cj = self.cone_objects[i], self.cone_objects[j]
        shared = tuple(sorted(set(self.maximal_cones[i]) & set(self.maximal_cones[j])))
        shared_vecs = set(self.rays[k] for k in shared)
        star = self._star.get(shared, ())
        if i not in star or j not in star:
            raise NotAFan(
                f"cones {self.maximal_cones[i]} and {self.maximal_cones[j]} "
                f"meet outside a common face"
            )
        # geometric intersection must equal the cone on the shared rays; a
        # full-dimensional cone has no annihilator
        eqs = tuple(a for c in (ci, cj) if c._coordinates for a in c._coordinates[1])
        ineqs = tuple(u for cone in (ci, cj) for u, _ in cone.facets)
        rays = extreme_rays_of_region(self.rank, ineqs, eqs)
        if set(rays) != shared_vecs:
            raise NotAFan(
                f"cones {self.maximal_cones[i]} and {self.maximal_cones[j]} "
                f"intersect in a non-face"
            )

    # -- derived structure -----------------------------------------------------

    @invariant
    def cone_objects(self) -> tuple[Cone, ...]:
        """The cone object of each maximal cone, built from its rays; a fine
        fan of ``resolve`` or ``stellar_subdivision`` takes its cells' cones
        (``_fine_map``)."""
        return tuple(Cone.from_generators(self.rank, tuple(self.rays[j] for j in c))
                     for c in self.maximal_cones)

    @invariant
    def _ray_index(self) -> dict[Vector, int]:
        return {r: i for i, r in enumerate(self.rays)}

    @invariant
    def _generator_rays(self) -> tuple[tuple[int, ...], ...]:
        """Per maximal cone, the ray index of each generator of its cone object."""
        index = self._ray_index.__getitem__
        return tuple(tuple(map(index, c.generators)) for c in self.cone_objects)

    @invariant
    def _star(self) -> dict[RaySet, tuple[int, ...]]:
        """Each cone of the fan, as a sorted ray set (the zero cone included),
        with the maximal cones having it as a face, in fan order: its star,
        whose image in N/N_tau is the fan of its orbit closure.

        In a fan, tau is a face of sigma exactly when the rays of tau are
        rays of sigma, so this is also every maximal cone whose generator
        rays contain tau.  Every face question reads this one table.
        """
        table: dict[RaySet, list[int]] = {}
        for idx, (cone, gen_rays) in enumerate(zip(self.cone_objects, self._generator_rays)):
            ray_of = gen_rays.__getitem__
            for subset in cone.faces_as_generator_subsets():
                face = tuple(sorted(map(ray_of, subset)))
                star = table.get(face)
                if star is None:
                    table[face] = [idx]
                else:
                    star.append(idx)
        return {rs: tuple(star) for rs, star in table.items()}

    @invariant
    def _star_walls(self) -> dict[RaySet, tuple[tuple[int, int, Vector], ...]]:
        return {}

    @invariant
    def _walls_by_cone(self) -> tuple[list[tuple[int, Vector]], ...]:
        """Per maximal cone, (the other cone, this cone's inward normal) of
        each wall of two cones that lists it first, in ``walls`` order."""
        table: tuple[list[tuple[int, Vector]], ...] = tuple([] for _ in self.maximal_cones)
        for cones in self.walls.values():
            if len(cones) == 2:
                (a, u), (b, _) = cones
                table[a].append((b, u))
        return table

    def star_walls(self, face: RaySet) -> tuple[tuple[int, int, Vector], ...]:
        """Each wall of ``walls`` between two cones of the star of ``face``,
        as the positions p < q of their cones in ``_star[face]`` and the
        first cone's inward normal u on it, in ``walls`` order.  Both cones
        have the face's rays, so the wall holds the face.  Cached per face,
        read through ``require_face``, as the merge plan of every pairing
        with it (``reduce_localization``).

        Read from ``_walls_by_cone`` over the star alone: ``walls`` enters a
        wall at the first of its cones, so its order is that of first cones,
        and the star lists its cones in fan order."""
        face, cache = self.require_face(face), self._star_walls
        if face not in cache:
            where = {c: p for p, c in enumerate(self._star[face])}
            cache[face] = tuple((p, where[b], u) for a, p in where.items()
                                for b, u in self._walls_by_cone[a] if b in where)
        return cache[face]

    @invariant
    def faces(self) -> tuple[RaySet, ...]:
        """All cones of the fan, as sorted ray-index tuples (incl. the zero cone)."""
        return tuple(sorted(self._star, key=lambda f: (len(f), f)))

    def require_face(self, rayset) -> RaySet:
        rs = tuple(sorted(rayset))
        if rs not in self._star:
            raise ConeNotInFan(f"{list(rayset)} is not a cone of the fan")
        return rs

    def rayset_from_vectors(self, vectors) -> RaySet:
        """Identify a cone of the fan from generator coordinates, a list of
        integer lists; a ray given twice is refused like a missing one."""
        gens = [tuple(strict_int(x, "cone coordinate") for x in strict_list(v, "cone generator"))
                for v in strict_list(vectors, "cone")]
        idx = []
        for v in map(primitive_vector, gens):
            if v not in self._ray_index:
                raise ConeNotInFan(f"{v} is not a ray of the fan")
            if self._ray_index[v] in idx:
                raise ConeNotInFan(f"cone lists the ray {v} twice")
            idx.append(self._ray_index[v])
        return self.require_face(idx)

    @invariant
    def _quotients(self) -> dict[RaySet, QuotientLattice]:
        return {}

    def face_quotient(self, rayset: RaySet) -> QuotientLattice:
        """Quotient M -> M_tau presenting functions on the span of the face.

        The coordinates of u are its pairings with the saturated span basis.
        For a ray that is <u, g> for its primitive generator g, with the
        section a point s, <g, s> = 1, from an extended gcd (``_unit_pairing``).
        For a larger face the basis is read off its one Smith form U A V = D
        (``span_coordinates``): as A V = U^-1 D, basis vector i is
        (sum_j V[j][i] g_j) / d_i, and the section is the transpose of the
        span projection U[:d].  For a full-dimensional face the quotient is
        the identity on M, one identity matrix as both projection and
        section; no other quotient shares one.  The section is read only by
        ``pexp._comparison_matrix``, into a face whose span lies in this
        one's, where any right inverse gives the same matrix.
        """
        cache = self._quotients
        if isinstance(rayset, tuple) and rayset in cache:  # a face read before, by its sorted rays
            return cache[rayset]
        rs = self.require_face(rayset)
        if rs not in cache:
            # a full-dimensional face is the one maximal cone holding it
            i = self._star[rs][0]
            if len(rs) == len(self._generator_rays[i]) and self.cone_objects[i].dim == self.rank:
                ident = identity_matrix(self.rank)
                cache[rs] = QuotientLattice(ident, ident)
            elif len(rs) == 1:
                g = self.rays[rs[0]]
                cache[rs] = QuotientLattice((g,), tuple((x,) for x in _unit_pairing(g)))
            else:
                # rays in index order: Cone._span's sorted ones give other coordinates
                gens = [self.rays[i] for i in rs]
                factors, projection, _, v = span_coordinates(self.rank, gens)
                g = transpose(gens)
                basis = tuple(tuple(x // f for x in mat_vec(g, c)) for f, c in zip(factors, transpose(v)))
                cache[rs] = QuotientLattice(basis, transpose(projection))
        return cache[rs]

    # -- completeness -----------------------------------------------------------

    @invariant
    def walls(self) -> dict[RaySet, tuple[tuple[int, Vector], ...]]:
        """Each facet of a maximal cone, as a sorted ray set, with every
        maximal cone having it as a facet and that cone's inward normal on it,
        in cone order.

        On a complete fan these are the walls, the codimension-1 cones, each
        in exactly two maximal cones with opposite normals.  Completeness,
        validation and ``pexp.gkm_validate`` all read this one table.
        """
        table: dict[RaySet, list[tuple[int, Vector]]] = {}
        for idx, cone in enumerate(self.cone_objects):
            ray_of = self._generator_rays[idx].__getitem__
            for normal, contact in cone.facets:
                table.setdefault(tuple(sorted(map(ray_of, contact))), []).append((idx, normal))
        return {rayset: tuple(entries) for rayset, entries in table.items()}

    def is_complete(self) -> bool:
        """Full-dimensional cones, every wall shared by exactly two cones on
        opposite sides, and one generic point in exactly one cone.

        The degree of a point off every facet hyperplane, the number of cones
        holding it, does not change where the point crosses a wall away from
        the codimension-2 cones and from the meets of distinct hyperplanes:
        each wall through the crossing trades its cone on one side for its
        cone on the other.  In rank >= 2 those crossings join all such
        points, so the degree is the same everywhere, and degree 1 means the
        cones cover N_R with disjoint interiors.  The pairing alone is not
        enough: a fan winding twice around the origin pairs every wall.

        This is the case of ``_tiling`` with no boundary wall.
        """
        return self._tiling == ()

    @invariant
    def _tiling(self) -> tuple[Vector, ...] | None:
        """The distinct inward normals of the boundary walls, the facets of
        one maximal cone, when the maximal cones tile the convex cone C those
        walls cut out; else None.  () on a complete fan.

        They tile C when they are full-dimensional, every other wall is
        shared by exactly two cones with opposite normals, every ray lies on
        the inner side of every boundary wall, so that every cone lies in C,
        and one generic point of the interior of C lies in exactly one cone.
        The degree of a point of C off every facet hyperplane, the number of
        cones holding it, then is 1 everywhere (``is_complete``): a boundary
        wall lies on a supporting hyperplane of C, so no path inside C
        crosses one.

        The generic point is k^n s + (1, k, ..., k^(n-1)), with s the sum of
        the generators of cone 0 and k = 2 + the largest absolute coordinate
        of any wall normal u.  The pairing of (1, k, ..., k^(n-1)) with u is
        a nonzero integer polynomial in k, whose roots all have absolute
        value at most 1 + max |u_i| (the Cauchy bound, the leading
        coefficient being a nonzero integer), and it is below k^n in absolute
        value.  So the point pairs nonzero with u whatever the integer <u, s>,
        and positively with a boundary normal, on which s, interior to cone 0,
        is positive: it lies inside C on no facet hyperplane.

        One full-dimensional cone is C itself: every facet is a boundary
        wall, every ray lies on its inner side and the cone holds all of C,
        so its sorted facet normals are returned with neither check.
        """
        if self.rank == 0:
            return () if self.maximal_cones == ((),) else None
        if any(c.dim != self.rank for c in self.cone_objects):
            return None
        if len(self.maximal_cones) == 1:
            return tuple(sorted(u for u, _ in self.cone_objects[0].facets))
        boundary = set()
        for entries in self.walls.values():
            if len(entries) == 1:
                boundary.add(entries[0][1])
            elif len(entries) != 2 or entries[0][1] != tuple(-x for x in entries[1][1]):
                return None
        if any(pair(u, r) < 0 for u in boundary for r in self.rays):
            return None
        k = 2 + max(abs(x) for entries in self.walls.values() for _, u in entries for x in u)
        s = [sum(x) for x in zip(*self.cone_objects[0].generators)]
        point = tuple(k ** self.rank * x + k ** e for e, x in enumerate(s))
        holding = [c for c in self.cone_objects if all(pair(u, point) > 0 for u, _ in c.facets)]
        return tuple(sorted(boundary)) if len(holding) == 1 else None

    def is_smooth(self) -> bool:
        return self._smooth

    @invariant
    def _smooth(self) -> bool:
        return all(c.is_simplicial and c.multiplicity() == 1 for c in self.cone_objects)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c) for c in self.maximal_cones],
        }

    @staticmethod
    def from_json(obj: dict, validate: bool = True) -> "Fan":
        if not isinstance(obj, dict) or not {"rank", "rays", "max_cones"} <= set(obj):
            raise ValueError("fan JSON needs 'rank', 'rays', and 'max_cones'")
        return Fan.build(obj["rank"], obj["rays"], obj["max_cones"], validate=validate)


# -- subdivisions --------------------------------------------------------------------


@value_class
class SubdivisionMap:
    """A refinement of fans with the containing-cone assignment recorded."""

    fine: Fan
    coarse: Fan
    assignment: tuple[int, ...]  # fine max cone index -> coarse max cone index

    def __post_init__(self):
        if len(self.assignment) != len(self.fine.maximal_cones):
            raise ValueError("assignment length must match the fine cone count")

    @staticmethod
    def identity(fan: Fan) -> "SubdivisionMap":
        return SubdivisionMap(fan, fan, tuple(range(len(fan.maximal_cones))))._marked()

    def _marked(self) -> "SubdivisionMap":
        """This map, marked as a subdivision in its instance dict (where the
        pairings cache their ``_series``), so that ``_check`` passes it."""
        self.__dict__["_checked"] = True
        return self

    def _check(self) -> "SubdivisionMap":
        """This map, refused by ``_check_subdivision`` unless it is a
        subdivision, the first time it is read.  The maps of ``identity``,
        ``from_json``, ``resolve`` and ``stellar_subdivision`` are marked,
        so only a map built by hand pays the check, once."""
        if "_checked" not in self.__dict__:
            _check_subdivision(self)
            self._marked()
        return self

    def to_json(self) -> dict:
        return {
            "fine": self.fine.to_json(),
            "coarse": self.coarse.to_json(),
            "assignment": list(self.assignment),
        }

    @staticmethod
    def from_json(obj: dict) -> "SubdivisionMap":
        """Read a map, refusing one whose fine cones do not lie in their
        coarse cones or do not cover them (``_check_subdivision``)."""
        if not isinstance(obj, dict) or not {"fine", "coarse", "assignment"} <= set(obj):
            raise ValueError("subdivision map JSON needs 'fine', 'coarse', and 'assignment'")
        fine, coarse = Fan.from_json(obj["fine"]), Fan.from_json(obj["coarse"])
        return SubdivisionMap(fine, coarse, tuple(
            strict_int(j, "assignment entry") for j in strict_list(obj["assignment"], "assignment")
        ))._check()


def _check_subdivision(sub: SubdivisionMap):
    """Raise ``ValueError`` unless the fine cones of ``sub`` lie in their
    coarse cones and cover them, the fine fan being a fan.

    The fine cones assigned to a coarse cone sigma cover it when each has
    the dimension of sigma and each of their facets either lies in a facet
    of sigma or is a facet of exactly two of them.  The degree of a generic
    point of sigma, the number of them holding it, then does not change
    across such a facet, by the crossing argument of ``Fan.is_complete``
    inside the span of sigma; it is at most 1, the fine fan being a fan,
    and some fine cone holds a point of sigma's interior.  A facet of a fine
    cone of sigma that lies in no facet of sigma meets its interior, so no
    cone of another maximal coarse cone has it."""
    fine, coarse = sub.fine, sub.coarse
    if fine.rank != coarse.rank:
        raise ValueError(f"fine fan of rank {fine.rank} over a coarse fan of rank {coarse.rank}")
    for i, j in enumerate(sub.assignment):
        if not 0 <= j < len(coarse.maximal_cones):
            raise ValueError(f"fine cone {i} is assigned to missing coarse cone {j}")
        if not all(coarse.cone_objects[j].contains(fine.rays[k])
                   for k in fine.maximal_cones[i]):
            raise ValueError(f"fine cone {i} does not lie in its coarse cone {j}")
    if set(sub.assignment) != set(range(len(coarse.maximal_cones))):
        raise ValueError("some coarse cone has no fine cone assigned")
    for i, j in enumerate(sub.assignment):
        if fine.cone_objects[i].dim != coarse.cone_objects[j].dim:
            raise ValueError(f"fine cone {i} has a dimension other than its coarse cone {j}")
    for rayset, entries in fine.walls.items():
        if len(entries) == 2 and sub.assignment[entries[0][0]] == sub.assignment[entries[1][0]]:
            continue
        for i, _ in entries:
            j = sub.assignment[i]
            if not any(all(pair(u, fine.rays[k]) == 0 for k in rayset)
                       for u, _ in coarse.cone_objects[j].facets):
                raise ValueError(f"the fine cones assigned to coarse cone {j} do not cover it")


def _cell(rs: RaySet, cone: Cone, ray_index: dict[Vector, int], source: int) -> list:
    """The cell (``chains``) of a cone on rays of ``ray_index``, unlinked:
    a record of the rows of its ``_scaled_inverse`` in its frame if it is
    simplicial, whatever its size (a chain record if it has at most two
    generators), else a cell with its ``Cone``."""
    ids = tuple(map(ray_index.__getitem__, cone.generators))
    if cone.is_simplicial:
        return [rs, cone.generators, ids, cone.multiplicity(), source, list(cone._scaled_inverse), None]
    return [rs, cone.generators, ids, 0, source, cone, None]


def _framed(rank, generators, frame, inverse=None) -> Cone:
    """The cone on ``generators`` spanning the space whose frame is ``frame``,
    and, from a record, its ``inverse`` (mult, S) as its ``_adjugate``."""
    cone = Cone(rank, generators)
    cone.__dict__["_coordinates"] = frame
    if inverse is not None:
        cone.__dict__["_adjugate"] = inverse
    return cone


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
    """Cells under stellar steps, changed in place.  A cell is either a
    record, simplicial, whose slot 5 holds the list of rows of its scaled
    inverse S = mult * G^-1 in its coarse cone's frame, or a non-simplicial
    cell with its ``Cone`` (``_cell``); ``frames`` is the caller's table of
    the coarse cones' frames, by source.  ``incidence`` maps each ray index
    to the cells whose ray sets contain it, keyed by ``id``.  A step adds
    its ray to ``ray_index`` if it is new, and replaces only the cells that
    hold it, each by its pieces in its place; every other cell keeps its
    slot 5 and what it cached.
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

    def split(self, cell: list, ray: Vector) -> list[tuple[int, list[list]]] | None:
        """``step`` at ``ray``, a point of a record's cone: the cells holding
        it are the star of the smallest face of the cone holding it, the
        generators j with c_j > 0."""
        c = self._coefficients(cell, ray)
        if min(c) < 0:
            raise ResolutionCheckFailed(f"{ray} does not lie in the cone it subdivides")
        ids = cell[2]
        return self.step(ray, self.star(tuple(sorted([ids[j] for j, cj in enumerate(c) if cj]))), (cell, c))

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
    of ``_cell``, with the cones holding an arbitrary ray found by a
    ``Cone.contains`` scan.
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


# -- resolution -----------------------------------------------------------------------


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
    residues, each built once, off one Smith form.  The coefficient sum of a
    residue's point is its coordinate sum over mult, and only the residues
    of least sum are mapped to their ambient points sum r_i g_i / mult."""
    factors, _, _, v = span_coordinates(len(generators[0]), generators)
    residues = [(0,) * len(generators)]
    for f, w in zip(factors, transpose(v)):
        if f > 1:
            w = vec_scale(mult // f, w)
            residues = [tuple((a + k * b) % mult for a, b in zip(h, w))
                        for k in range(f) for h in residues]
    # the coordinates lie in [0, mult), so only the zero residue sums to 0
    sums = list(map(sum, residues))
    least = itertools.compress(residues, map(min(filter(None, sums)).__eq__, sums))
    g = transpose(generators)
    return sorted(tuple(x // mult for x in mat_vec(g, r)) for r in least)


def _least_box_point(cell: list, draw) -> Vector:
    """The ``least`` of a record: the point ``draw(count)`` picks among the
    count least parallelepiped points, ascending."""
    # the point is a nonzero box point of the cone, so of the smallest face
    # tau holding it, which is then singular; a face's multiplicity divides
    # that of every simplicial cone having it, so every cell the step
    # replaces, one of the star of tau, is singular
    points = _box_points(cell[1], cell[3])
    return points[draw(len(points))]


def _by_kind(chain, record):
    """``chain`` on a chain record, a cell of at most two generators, else
    ``record``: the same records, told apart by size alone."""
    return lambda cell, arg: chain(cell, arg) if len(cell[1]) < 3 else record(cell, arg)


def _cells(fan: Fan, index) -> list:
    """The maximal cones as cells (``_cell``), linked in fan order: a
    record in its cone's frame for each simplicial cone, a chain record for
    at most two rays, else a cell with its ``Cone``."""
    return linked(list(map(_cell, fan.maximal_cones, fan.cone_objects, itertools.repeat(index), itertools.count())))


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
    ``chains.subdivide`` picks, draws, checks and splices each step, its
    ``least`` and ``split`` picking by the size of a cell (``_by_kind``).
    Every simplicial cell is a record of its S in its coarse cone's frame.
    A cone of at most two rays is a chain record, drawn on the
    Hirzebruch-Jung walk of the local vectors its S turns back into
    (``chains.drawn_chain_point``) and split alone, on the integers of its
    S and of the point (``chains.chain_split``).  Any other is a cell on one
    ``_Refinement``: a record if simplicial, else a cell with its ``Cone``
    until pulling rays simplicializes it.  A record is drawn from its
    listed parallelepiped (``_least_box_point``) and split with no ``Cone``
    (``_piece``).  Cells read one table of frames.  The
    refinement finds the cells holding a ray x without a scan: x lies in a
    known cone sigma, and if tau is the smallest face of sigma holding x,
    any cone holding x meets sigma in a face of both holding the relative
    interior of tau, so it has the rays of tau.  So the cones holding x are
    those whose ray sets contain tau, and no chain record is among them: a
    pulled ray, a box point of a cone of dim >= 3 and the sum of two of its
    generators lie inside a proper face, never a maximal cone.

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
    others = [cell for cell in cells if len(cell[1]) > 2]
    least, split, pulled = drawn_chain_point, chain_split(index, frames), False
    if others:
        ref = _Refinement(fan.rank, index, others, frames)
        pulled = ref.pull(rng)
        least, split = _by_kind(least, _least_box_point), _by_kind(split, ref.split)
    stepped = subdivide(cells[0], least, split, rng, extra_rounds)
    return _fine_map(fan, index, cells[0], frames) if stepped or pulled else SubdivisionMap.identity(fan)
