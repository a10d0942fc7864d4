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
maximal cones as cells linked in fan order, a chain record (``chains``) for
each cone of at most two rays and a cell with its ``Cone`` for any other
until every cell is simplicial, then an integer record of its scaled
inverse, and runs the one subdivision loop of ``chains`` on them.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import mul

from .chains import chain_record, chain_split, drawn_chain_point, fan_order, linked, subdivide
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
    from here, but those of N and those a resolve piece takes (``_framed``).
    """
    cols = tuple(tuple(v) for v in vectors)
    if not cols:
        return (), (), identity_matrix(rank), ()
    u, d, v = smith_normal_form(transpose(cols))
    factors = tuple(d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    return factors, u[:len(factors)], u[len(factors):], v


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

    @cached_property
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

    @cached_property
    def _adjugate(self) -> tuple[int, IntMatrix]:
        """(det, adj) of the local generators as the columns of G: of the
        generators themselves when there are rank of them, simplicial cones
        only otherwise.  A fine cone of ``resolve`` is handed (mult, S) from
        its record (``_framed``), the pair times sign(det), to which its
        readers ``multiplicity`` and ``_scaled_inverse`` are blind."""
        g = self.generators if len(self.generators) == self.rank else self.local_generators
        return adjugate(transpose(g))

    @cached_property
    def _span(self) -> tuple[Vector, IntMatrix, IntMatrix, IntMatrix]:
        """(factors, projection, annihilator, columns): the cone's own Smith
        form, read only by ``_coordinates`` and ``_box_points``."""
        return span_coordinates(self.rank, self.generators)

    @cached_property
    def dim(self) -> int:
        return len(self._coordinates[0]) if self._coordinates else self.rank

    @property
    def is_simplicial(self) -> bool:
        return len(self.generators) == self.dim

    @cached_property
    def local_generators(self) -> tuple[Vector, ...]:
        if not self._coordinates:
            return self.generators
        projection = self._coordinates[0]
        return tuple(mat_vec(projection, g) for g in self.generators)

    @cached_property
    def _scaled_inverse(self) -> IntMatrix:
        """mult * G^-1 = sign(det) * adj for the ``_adjugate`` (det, adj) of
        the local generators G, simplicial cones only.  Row j pairs to mult
        with generator j and to 0 with the others.  Read by the facets and,
        for a smooth cone, whose rows are then the dual basis of the
        generators, by ``ktheory.tangent_weights``."""
        det, adj = self._adjugate
        return adj if det > 0 else tuple(vec_scale(-1, row) for row in adj)

    @cached_property
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
        of ``_scaled_inverse`` made primitive; a non-simplicial cone
        enumerates them with ``extreme_rays_of_region``.
        """
        if self.is_simplicial:
            n = len(self.generators)
            found = ((tuple(i for i in range(n) if i != j), primitive_vector(row))
                     for j, row in enumerate(self._scaled_inverse))
        else:
            g = self.local_generators
            found = ((tuple(i for i, x in enumerate(g) if pair(u, x) == 0), u)
                     for u in extreme_rays_of_region(self.dim, g, ()))
        if self._coordinates:
            proj_t = transpose(self._coordinates[0])
            found = ((contact, mat_vec(proj_t, u)) for contact, u in found)
        return tuple((u, contact) for contact, u in sorted(found))

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
        two cones meet.  A fan that ``_wall_accepts`` (full-dimensional
        simplicial cones, complete by the wall table) skips it, because such
        an input is always a fan:

        Let x lie in a cone sigma, and let A be the rays of sigma whose
        coefficients at x are positive, so x is in the relative interior of
        cone(A).  Project the cones whose ray sets contain A to N_R/Span(A).
        They are full-dimensional simplicial cones there, their facets are
        the images of the walls containing A, and each such wall is still
        shared by exactly two of them on opposite sides.  By the crossing
        argument of ``is_complete`` (direct when the quotient has rank at
        most 1) they cover the quotient with one generic degree, at least 1
        since sigma is among them.  So near x these cones already hold every
        generic point.  By ``is_complete`` a generic point lies in exactly
        one cone, and any cone tau holding x meets every neighbourhood of x
        in a full-dimensional set; so every such tau has A among its rays.
        As tau is simplicial, x has one expression in its rays, and it uses
        exactly A.  Hence any point of sigma & tau lies in the cone on their
        common rays: the two meet in a common face, which is what the
        pairwise check tests.
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
        """True when every maximal cone is full-dimensional and simplicial and
        the wall table shows the fan complete; then it is a fan (``_validate``)."""
        return all(c.dim == self.rank and c.is_simplicial for c in self.cone_objects) and self._complete

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

    @cached_property
    def cone_objects(self) -> tuple[Cone, ...]:
        """The cone object of each maximal cone, built from its rays; a fine
        fan of ``resolve`` or ``stellar_subdivision`` takes its cells' cones
        (``_fine_map``)."""
        return tuple(Cone.from_generators(self.rank, tuple(self.rays[j] for j in c))
                     for c in self.maximal_cones)

    @cached_property
    def _ray_index(self) -> dict[Vector, int]:
        return {r: i for i, r in enumerate(self.rays)}

    @cached_property
    def _generator_rays(self) -> tuple[tuple[int, ...], ...]:
        """Per maximal cone, the ray index of each generator of its cone object."""
        return tuple(tuple(self._ray_index[g] for g in c.generators) for c in self.cone_objects)

    @cached_property
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
            for subset in cone.faces_as_generator_subsets():
                table.setdefault(tuple(sorted(gen_rays[i] for i in subset)), []).append(idx)
        return {rs: tuple(star) for rs, star in table.items()}

    @cached_property
    def _star_walls(self) -> dict[RaySet, tuple[tuple[int, int], ...]]:
        return {}

    @cached_property
    def _walls_by_cone(self) -> tuple[list[int], ...]:
        """Per maximal cone, the other cone of each wall of two cones that
        lists it first, in ``walls`` order."""
        table: tuple[list[int], ...] = tuple([] for _ in self.maximal_cones)
        for cones in self.walls.values():
            if len(cones) == 2:
                (a, _), (b, _) = cones
                table[a].append(b)
        return table

    def star_walls(self, face: RaySet) -> tuple[tuple[int, int], ...]:
        """Each wall of ``walls`` between two cones of the star of ``face``,
        as the pair of their positions in ``_star[face]``, in ``walls``
        order.  Both cones have the face's rays, so the wall holds the face.
        Cached per face, read through ``require_face``, as the merge plan of
        every pairing with it (``reduce_localization``).

        Read from ``_walls_by_cone`` over the star alone: ``walls`` enters a
        wall at the first of its cones, so its order is that of first cones,
        and the star lists its cones in fan order."""
        face, cache = self.require_face(face), self._star_walls
        if face not in cache:
            where = {c: p for p, c in enumerate(self._star[face])}
            cache[face] = tuple((p, where[b]) for a, p in where.items()
                                for b in self._walls_by_cone[a] if b in where)
        return cache[face]

    @cached_property
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

    @cached_property
    def _quotients(self) -> dict[RaySet, QuotientLattice]:
        return {}

    def face_quotient(self, rayset: RaySet) -> QuotientLattice:
        """Quotient M -> M_tau presenting functions on the span of the face.

        The coordinates of u are its pairings with the saturated span basis
        (for a ray, <u, generator>), read off the face's one Smith form
        U A V = D (``span_coordinates``): as A V = U^-1 D, basis vector i is
        (sum_j V[j][i] g_j) / d_i.  The section is the transpose of the span
        projection U[:d]; for a full-dimensional face the quotient is the
        identity on M.
        """
        rs = self.require_face(rayset)
        cache = self._quotients
        if rs not in cache:
            # a full-dimensional face is the one maximal cone holding it
            i = self._star[rs][0]
            if len(rs) == len(self._generator_rays[i]) and self.cone_objects[i].dim == self.rank:
                ident = identity_matrix(self.rank)
                cache[rs] = QuotientLattice(ident, ident)
            else:
                # rays in index order: Cone._span's sorted ones give other coordinates
                gens = [self.rays[i] for i in rs]
                factors, projection, _, v = span_coordinates(self.rank, gens)
                g = transpose(gens)
                basis = tuple(tuple(x // f for x in mat_vec(g, c)) for f, c in zip(factors, transpose(v)))
                cache[rs] = QuotientLattice(basis, transpose(projection))
        return cache[rs]

    # -- completeness -----------------------------------------------------------

    @cached_property
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
            for normal, contact in cone.facets:
                rayset = tuple(sorted(self._generator_rays[idx][i] for i in contact))
                table.setdefault(rayset, []).append((idx, normal))
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

        The generic point is (1, k, ..., k^(n-1)) with k = 2 + the largest
        absolute coordinate of any wall normal u.  Its pairing with u is a
        nonzero integer polynomial in k, whose roots all have absolute value
        at most 1 + max |u_i| (the Cauchy bound, the leading coefficient being
        a nonzero integer), so the point lies on no facet hyperplane.
        """
        return self._complete

    @cached_property
    def _complete(self) -> bool:
        if self.rank == 0:
            return self.maximal_cones == ((),)
        if any(c.dim != self.rank for c in self.cone_objects):
            return False
        for entries in self.walls.values():
            if len(entries) != 2:
                return False
            (_, ni), (_, nj) = entries
            if ni != tuple(-x for x in nj):
                return False
        # k is past the Cauchy bound 1 + max |u_i| on the roots of every
        # nonzero integer polynomial <u, (1, k, k^2, ...)>: the point is generic
        k = 2 + max(abs(x) for entries in self.walls.values() for _, u in entries for x in u)
        point = tuple(k ** e for e in range(self.rank))
        holding = [c for c in self.cone_objects if all(pair(u, point) > 0 for u, _ in c.facets)]
        return len(holding) == 1

    def is_smooth(self) -> bool:
        return self._smooth

    @cached_property
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
        return SubdivisionMap(fan, fan, tuple(range(len(fan.maximal_cones))))

    def to_json(self) -> dict:
        return {
            "fine": self.fine.to_json(),
            "coarse": self.coarse.to_json(),
            "assignment": list(self.assignment),
        }

    @staticmethod
    def from_json(obj: dict) -> "SubdivisionMap":
        """Read a map, refusing one whose fine cones do not lie in their
        coarse cones or do not cover them.

        The fine cones assigned to a coarse cone sigma cover it when each has
        the dimension of sigma and each of their facets either lies in a
        facet of sigma or is a facet of exactly two of them.  The degree of
        a generic point of sigma, the number of them holding it, then does
        not change across such a facet, by the crossing argument of
        ``Fan.is_complete`` inside the span of sigma; it is at most 1, the
        fine fan being a fan, and some fine cone holds a point of sigma's
        interior.  A facet of a fine cone of sigma that lies in no facet of
        sigma meets its interior, so no cone of another maximal coarse cone
        has it."""
        if not isinstance(obj, dict) or not {"fine", "coarse", "assignment"} <= set(obj):
            raise ValueError("subdivision map JSON needs 'fine', 'coarse', and 'assignment'")
        fine, coarse = Fan.from_json(obj["fine"]), Fan.from_json(obj["coarse"])
        if fine.rank != coarse.rank:
            raise ValueError(f"fine fan of rank {fine.rank} over a coarse fan of rank {coarse.rank}")
        sub = SubdivisionMap(fine, coarse, tuple(
            strict_int(j, "assignment entry") for j in strict_list(obj["assignment"], "assignment")
        ))
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
        return sub


def _cell(rs: RaySet, cone: Cone, ray_index: dict[Vector, int], source: int) -> list:
    """The cell (``chains``) of a cone on rays of ``ray_index``, unlinked."""
    mult = cone.multiplicity() if cone.is_simplicial else 0
    return [rs, cone.generators, tuple(map(ray_index.__getitem__, cone.generators)), mult, source, cone, None]


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
    inverse S = mult * G^-1 in its coarse cone's frame (``frames``, by
    source), or a cell with its ``Cone``, as every cell is in
    ``stellar_subdivision`` and in ``resolve`` until ``record``.
    ``incidence`` maps each ray index to the cells whose ray sets contain
    it, keyed by ``id``.  A step adds its ray to ``ray_index`` if it is new,
    and replaces only the cells that hold it, each by its pieces in its
    place; every other cell keeps its slot 5 and what it cached.
    """

    def __init__(self, rank: int, ray_index: dict, cells: list):
        self.rank, self.ray_index, self.frames = rank, ray_index, {}
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

    def pull(self, rng: random.Random | None) -> bool:
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

    def record(self):
        """Make every cell, simplicial once pulled, a record: its cone's
        scaled inverse, in its frame, which all cells of a source share."""
        frames = self.frames
        for cells in self.incidence.values():
            for cell in cells.values():
                cone = cell[5]
                if cone.__class__ is Cone:
                    frames[cell[4]], cell[5] = cone._coordinates, list(cone._scaled_inverse)

    def _coefficients(self, cell: list, x: Vector) -> list[int] | None:
        """c = S y for the local coordinates y of x in a record's frame, so
        that x = G c / mult; None when x is off its span."""
        frame = self.frames[cell[4]]
        if frame:
            projection, annihilator = frame
            if any(pair(a, x) for a in annihilator):
                return None
            x = [sum(map(mul, p, x)) for p in projection]
        return [sum(map(mul, row, x)) for row in cell[5]]

    def split(self, cell: list, ray: Vector) -> list[tuple[int, list[list]]] | None:
        """``step`` at ``ray``, a point of a record's cone: the cells holding
        it are the star of the smallest face of the cone holding it, the
        generators j with c_j > 0."""
        c = self._coefficients(cell, ray)
        if c is None or min(c) < 0:
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
                                              cell[5]._coordinates), self.ray_index, cell[4])
                         for piece, contact in out]
            else:
                cells = [_piece(cell, ray, piece, new_idx, j, c) for piece, (j, c) in out]
            linked(cells, cell[6])
            changes.append((cell[3], cells))
            # the first piece takes the cell over, so the cell before it keeps its link
            cell[:], cells[0] = cells[0], cell
            self._enter(cells)
        return changes


def _fine_map(coarse: Fan, rays, first: list) -> SubdivisionMap:
    """The map to ``coarse`` from the fan on ``rays`` whose maximal cones are
    the cells from ``first`` on, with no ``Fan.build``: above rank 2 with the
    cells' cones, and a record's cone built once, in its coarse cone's
    frame, with the record's multiplicity and S.  Only what an input that is
    no fan could break is checked."""
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
        # cached_property keeps its value in the instance dict, which a
        # value class leaves writable (only attribute assignment raises)
        frames = [cone._coordinates for cone in coarse.cone_objects]
        fine.__dict__["cone_objects"] = tuple(
            slot if slot.__class__ is Cone
            else _framed(rank, g, frames[s], (m, tuple(slot)) if slot.__class__ is list else None)
            for g, m, s, slot in zip(gens, mults, sources, slots))
    return SubdivisionMap(fine, coarse, sources)


def stellar_subdivision(fan: Fan, ray: Vector) -> SubdivisionMap:
    """Refine by a primitive ray: every cone containing the ray is replaced by
    the joins of the ray with its facets not containing it.

    The fine fan keeps the coarse rays in their order and appends the ray if
    it is new; each cone missing the ray keeps its place and ray indices.  No
    old ray is lost: the facets through an extreme ray r other than the ray
    meet in r, so one of them misses the ray.  A ray that changes no cone
    gives the identity map.  This is one ``_Refinement`` step, with the
    cones holding an arbitrary ray found by a ``Cone.contains`` scan.
    """
    ray = tuple(ray)
    if not any(ray):
        raise NonPrimitiveRay("cannot subdivide at the zero vector")
    if not is_primitive(ray):
        raise NonPrimitiveRay(f"{ray} is not primitive")
    index = dict(fan._ray_index)
    cells = linked(list(map(_cell, fan.maximal_cones, fan.cone_objects, itertools.repeat(index), itertools.count())))
    holding = [cell for cell in cells if cell[5].contains(ray)]
    if not holding:
        raise RayOutsideSupport(f"{ray} lies outside the support of the fan")
    changed = _Refinement(fan.rank, index, cells).step(ray, holding)
    return _fine_map(fan, index, cells[0]) if changed else SubdivisionMap.identity(fan)


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
    """``chain`` on a chain record, whose slot 5 is a tuple, else ``record``."""
    return lambda cell, arg: chain(cell, arg) if cell[5].__class__ is tuple else record(cell, arg)


def _cells(fan: Fan, index, frames: dict) -> tuple[list, list]:
    """The maximal cones as cells in fan order, and those of them that keep
    their ``Cone`` until ``_Refinement.record``: a chain record for at most
    two rays, in N's frame in rank 2, else in its cone's, kept in
    ``frames``; else the cone's cell."""
    cells, cones, rays, rank = [], [], fan.rays, fan.rank
    for source, rs in enumerate(fan.maximal_cones):
        if len(rs) < 2 or len(rs) == rank == 2:
            cells.append(chain_record(rs, tuple(map(rays.__getitem__, rs)), source))
            continue
        cell = _cell(rs, fan.cone_objects[source], index, source)
        if len(rs) == 2:
            frames[source], cell[5] = cell[5]._coordinates, cell[5].local_generators
        else:
            cones.append(cell)
        cells.append(cell)
    return linked(cells), cones


def resolve(
    fan: Fan,
    *,
    rng: random.Random | None = None,
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
    ``least`` and ``split`` picking by kind of cell (``_by_kind``).  A cone
    of at most two rays is a chain record, drawn on the Hirzebruch-Jung walk
    (``chains.drawn_chain_point``) and split alone on the integers of its local
    2-vectors (``chains.chain_split``).  Any other is a cell with its
    ``Cone`` on one ``_Refinement``, which simplicializes those cells by
    pulling rays and then makes each an integer record of its scaled
    inverse (``_Refinement.record``), drawn from its listed parallelepiped
    (``_least_box_point``) and split with no ``Cone`` (``_piece``).  The
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
    index, frames = dict(fan._ray_index), {}
    cells, cones = _cells(fan, index, frames)
    least, split, pulled = drawn_chain_point, chain_split(index, frames), False
    if cones:
        ref = _Refinement(fan.rank, index, cones)
        pulled = ref.pull(rng)
        ref.record()
        least, split = _by_kind(least, _least_box_point), _by_kind(split, ref.split)
    stepped = subdivide(cells[0], least, split, rng, extra_rounds)
    return _fine_map(fan, index, cells[0]) if stepped or pulled else SubdivisionMap.identity(fan)
