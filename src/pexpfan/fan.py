"""Cones and fans: faces, multiplicity, completeness, stars and walls.

Cones are strongly convex rational polyhedral cones given by primitive
generators on their extreme rays.  Each cone computes one facet table, its
inward facet normals with their contact generators, and answers every face
question from it: every face is a meet of facets, the smallest one holding a
point the meet of the facets through it.  Each cone has one coordinate
frame: those of N for a full-dimensional cone, else the span coordinates of
its one Smith form, or of its cell for a resolve piece (``_framed``).  A
simplicial cone reads its multiplicity, its facets and its tangent weights
off one adjugate of its local generators in that frame.  A non-simplicial
cone takes its facets from the vertex enumeration
``extreme_rays_of_region``.  Simplicial cones are handled in any rank;
non-simplicial cones are limited to ambient rank <= 4.  All geometry is
exact.  ``resolve`` and ``stellar_subdivision`` work on cells (``chains``),
which this module re-exports.
"""

from __future__ import annotations

import itertools
from operator import neg

from .errors import (
    ConeNotInFan,
    NonPrimitiveRay,
    NotAFan,
    NotIndependent,
    NotSimplicial,
    NotStronglyConvex,
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
    a cone's parallelepiped come from V and the factors (``chains._box_points``),
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
        # the smallest face of a point of the cone is the meet of the facets
        # through it (``_smallest_face``): for 0 every facet, and for a
        # generator the facets whose contacts hold it
        contacts, every = [set(contact) for _, contact in cone.facets], set(range(len(gens)))
        # the smallest face of 0 is the largest linear subspace in the cone
        if every.intersection(*contacts):
            raise NotStronglyConvex(f"cone on {gens} contains a line")
        if rank > 4:
            raise UnsupportedDimension(
                "non-simplicial cones are supported only in rank <= 4"
            )
        # a generator is extreme iff the smallest face holding it is its ray
        extreme = tuple(g for i, g in enumerate(gens) if every.intersection(*(c for c in contacts if i in c)) == {i})
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
        form, read only by ``_coordinates``."""
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
        ``chains._cell`` and, for a smooth cone, whose rows are then the dual basis
        of the generators, by ``ktheory.tangent_weights`` and
        ``ktheory._pairing_series``."""
        det, adj = self._adjugate
        return adj if det > 0 else tuple(tuple(map(neg, row)) for row in adj)

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
        (``chains._fine_map``)."""
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
        rays contain tau.  Every face question reads this one table.  The
        faces of a simplicial cone are all subsets of its rays, taken as
        combinations of its sorted ray set, so each is sorted already.
        """
        table: dict[RaySet, list[int]] = {}
        for idx, (cone, gen_rays) in enumerate(zip(self.cone_objects, self._generator_rays)):
            if cone.is_simplicial:
                rs = sorted(gen_rays)
                faces = itertools.chain.from_iterable(
                    map(itertools.combinations, itertools.repeat(rs), range(len(rs) + 1)))
            else:
                faces = (tuple(sorted(map(gen_rays.__getitem__, subset)))
                         for subset in cone.faces_as_generator_subsets())
            for face in faces:
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


def _framed(rank, generators, frame, inverse=None) -> Cone:
    """The cone on ``generators`` spanning the space whose frame is ``frame``,
    and, from a record, its ``inverse`` (mult, S) as its ``_adjugate``."""
    cone = Cone(rank, generators)
    cone.__dict__["_coordinates"] = frame
    if inverse is not None:
        cone.__dict__["_adjugate"] = inverse
    return cone


# resolution reads the geometry above, so its module is imported once this one is whole
from .chains import resolve, stellar_subdivision
