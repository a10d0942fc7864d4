"""Exact integer linear algebra for the lattices N and M.

Vectors are plain tuples of Python ints (arbitrary precision); an element of
the cocharacter lattice N and a character in the dual lattice M are both
``Vector``s, paired by the ordinary dot product ``pair``.  Matrices are tuples
of row tuples.  Everything here is total, deterministic, and allocation-happy
rather than clever: exactness is the product.  Rank, determinant,
adjugate and the greedy independent rows (``independent_rows``) come from
one Bareiss elimination, ``_eliminate``, over Z or Z[M]; it serves the
vertex enumeration of non-simplicial cones, the Gram matrices over Z[M] and
the rows that ``ktheory.decompose`` solves on, and no other elimination is
kept beside it and the Smith form.  The adjugate of a 2x2 or 3x3 matrix is
written out instead.  Every simplicial cone reads its
multiplicity, facets and tangent weights off one adjugate of its local
generators, in the coordinates of N when it is full-dimensional.  The Smith
form serves only ``fan.span_coordinates``, one per span, which gives the
coordinates of a cone below full dimension (a resolve piece takes its
cell's), the span basis of every face quotient with no inverse computed,
and the parallelepiped points of a singular cone.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter, mul

from .errors import NotIndependent, ZeroVector

Vector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


def strict_int(x, what: str) -> int:
    """Return x if it is a Python int (not a bool or a float); raise otherwise.

    Every JSON loader passes its integers through here, so that 1.9, 1.0 or
    true is refused rather than truncated or coerced.
    """
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def strict_list(xs, what: str) -> list | tuple:
    """Return xs if it is a list or tuple (a JSON array); raise ValueError otherwise."""
    if not isinstance(xs, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {xs!r}")
    return xs


def pair(u: Vector, v: Vector) -> int:
    """Evaluation pairing <u, v> between a character and a lattice point."""
    if len(u) != len(v):
        raise ValueError(f"pairing of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: int, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shapes do not compose")
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: IntMatrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a)) if a else ()


def primitive_vector(v: Vector) -> Vector:
    """Divide out the gcd of the coordinates; direction is preserved."""
    g = gcd(*v)
    if g == 0:
        raise ZeroVector("zero vector has no primitive generator")
    return tuple(v) if g == 1 else tuple([c // g for c in v])


def is_primitive(v: Vector) -> bool:
    return gcd(*v) == 1


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular (U, V) and diagonal D with U*A*V = D.

    The diagonal entries are nonnegative and satisfy d_1 | d_2 | ... .  Pivot
    selection is the smallest nonzero absolute entry of the working submatrix,
    with ties broken by (row, column) order, so the output is reproducible.
    Each row operation is applied to D and U, each column operation to D and V.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u, v = _identity_rows(m), _identity_rows(n)
    for t in range(min(m, n)):
        # deterministic pivot: smallest |entry| != 0, first by (row, col)
        best = bi = bj = 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, bi, bj = x, i, j
        if not best:
            break
        d[t], d[bi], u[t], u[bi] = d[bi], d[t], u[bi], u[t]
        if bj != t:
            for row in d:
                row[t], row[bj] = row[bj], row[t]
            for row in v:
                row[t], row[bj] = row[bj], row[t]
        while True:
            # shrink entries in column t by remainders, then in row t; a
            # nonzero remainder becomes the pivot
            moved = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    top, ut = d[t], u[t]
                    d[i] = [x - q * y for x, y in zip(d[i], top)]
                    u[i] = [x - q * y for x, y in zip(u[i], ut)]
                    if d[i][t]:
                        d[t], d[i], u[t], u[i] = d[i], top, u[i], ut
                        moved = True
            if moved:
                continue
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    for row in d:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                    if d[t][j]:
                        for row in d:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        moved = True
            if moved:
                continue
            # row and column are clear; enforce the divisibility chain
            p, culprit = d[t][t], None
            for i in range(t + 1, m):
                row = d[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            d[t] = [x + y for x, y in zip(d[t], d[culprit])]
            u[t] = [x + y for x, y in zip(u[t], u[culprit])]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    return tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(map(tuple, v))


def _eliminate(m: list[list[int]], ncols: int) -> tuple[int, int, int]:
    """Fraction-free Gauss-Jordan elimination of the rows ``m``, in place.

    Columns ``0 .. ncols-1`` are pivoted in order, skipping pivotless ones.
    Each step sets row = (pivot * row - row[col] * pivot_row) / previous
    pivot for every other row; entries stay minors of the input, so every
    division is exact (Bareiss, Math. Comp. 22, 1968), and all pivots end
    equal to the last one.  Returns (rank, row permutation sign, last pivot).
    The entries may lie in any integral domain with ``*``, ``-``, exact
    ``//`` and truthiness (nonzero is true): the integers, or Z[M] as
    ``LaurentPoly``, where ints are mixed in as constants.  A row with 0 in
    the pivot column is left as it is when the pivot equals the previous
    one, as the step would not change it.
    """
    rank, sign, prev = 0, 1, 1
    for c in range(ncols):
        for piv in range(rank, len(m)):
            if m[piv][c]:
                break
        else:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top = m[rank]
        p = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if i != rank and (f or p != prev):
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        rank += 1
    return rank, sign, prev


def _pivots(m) -> list[int]:
    """The pivot column of each row of an eliminated ``m``, given down to its
    rank: Gauss-Jordan clears every earlier pivot column, and a skipped
    column held no entry in the rows below, so each row's first nonzero
    entry is at its pivot."""
    return [next(c for c, x in enumerate(row) if x) for row in m]


def matrix_rank(a: IntMatrix) -> int:
    return _eliminate([list(row) for row in a], len(a[0]) if a else 0)[0]


def independent_rows(rows) -> tuple[int, ...]:
    """Indices of the greedy independent rows over the fraction field, each
    row independent of those before it: the pivot columns of one
    elimination of the transpose, which pivots its columns in order.  The
    rows are a sequence, their entries ints or elements of Z[M] (see
    ``_eliminate``)."""
    m = [list(col) for col in zip(*rows)]
    return tuple(_pivots(m[:_eliminate(m, len(rows))[0]]))


def adjugate(a: IntMatrix) -> tuple[int, IntMatrix]:
    """(det, adj) of a nonsingular square matrix, with adj @ a == det * I.

    For n = 2 and n = 3 they are written out: the 2x2 cofactors, and for
    rows r0, r1, r2 the columns r1 x r2, r2 x r0 and r0 x r1, whose pairings
    with the rows give det * I; both hold in any commutative ring.  Otherwise
    one elimination of [a | I] leaves p * I on the left, where p is the
    determinant of the row-permuted matrix, and p * a^-1 on the right.  The
    entries may be ints or elements of Z[M] (see ``_eliminate``); over Z[M],
    an entry that comes from the identity block stays an int where no step
    changes it (det of the empty matrix, adj of a 1x1).
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("adjugate of a non-square matrix")
    if n == 2:
        (a0, a1), (b0, b1) = a
        det, adj = a0 * b1 - a1 * b0, ((b1, -a1), (-b0, a0))
    elif n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
        adj = ((b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, a1 * b2 - a2 * b1),
               (b2 * c0 - b0 * c2, c2 * a0 - c0 * a2, a2 * b0 - a0 * b2),
               (b0 * c1 - b1 * c0, c0 * a1 - c1 * a0, a0 * b1 - a1 * b0))
        det = a0 * adj[0][0] + a1 * adj[1][0] + a2 * adj[2][0]
    else:
        m = [list(row) + [0] * n for row in a]
        for i in range(n):
            m[i][n + i] = 1
        rank, sign, last = _eliminate(m, n)
        det = sign * last if rank == n else 0
        adj = tuple(tuple([sign * x for x in row[n:]]) for row in m)
    if not det:
        raise NotIndependent("adjugate of a singular matrix")
    return det, adj


def line_kernel(rows, n: int) -> Vector | None:
    """Primitive generator of {x : A x = 0} in Z^n for n - 1 rows A, or None
    when that kernel is not a line (the rows are dependent).

    The kernel of n - 1 independent rows is spanned by their signed maximal
    minors; for n <= 3 these are written out ((1,), (-a1, a0) and the cross
    product).  For n >= 4 one Gauss-Jordan elimination leaves every pivot
    equal to p and one free column f: x_f = p and x_c = -(entry in column f)
    on the row pivoting column c.  The sign of the result is not specified.
    """
    if len(rows) != n - 1:
        raise ValueError(f"line_kernel needs {n - 1} rows, got {len(rows)}")
    if n == 1:
        return (1,)
    if n == 2:
        (a0, a1), = rows
        v = (-a1, a0)
    elif n == 3:
        (a0, a1, a2), (b0, b1, b2) = rows
        v = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    else:
        m = [list(row) for row in rows]
        rank, _, p = _eliminate(m, n)
        if rank < n - 1:
            return None
        pivots = _pivots(m)
        free = next(c for c in range(n) if c not in pivots)
        x = [0] * n
        x[free] = p
        for row, c in zip(m, pivots):
            x[c] = -row[free]
        v = tuple(x)
    return primitive_vector(v) if any(v) else None


def value_class(cls):
    """Make ``cls`` an immutable value over the fields it annotates, in order.

    Installs what ``dataclass(frozen=True)`` would: ``__init__`` taking the
    fields positionally or by name (then calling ``__post_init__`` where the
    class defines one), ``__eq__`` and ``__hash__`` over the field tuple, the
    ``Name(field=value, ...)`` repr, and ``__setattr__`` / ``__delattr__``
    that raise.  Instances keep their ``__dict__``, so ``invariant`` caches
    on them.  Importing ``dataclasses`` and compiling the methods it
    generates per class would be most of a cli process's import time.
    """
    names = tuple(cls.__annotations__)
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            if kwargs.keys() - rest or len(args) + len(kwargs) != len(names):
                raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names)}")
            args += tuple(kwargs[name] for name in rest)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{cls.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


class invariant:
    """A method read as an attribute and computed once per instance: the
    first read stores the value in the instance dict, which a value class
    leaves writable (only attribute assignment raises), and the dict entry
    shadows this non-data descriptor from then on.  It is
    ``functools.cached_property`` without the lock that Python 3.11 takes on
    every first read; the package runs on one thread."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@value_class
class QuotientLattice:
    """A free quotient presented by an integer projection with a section.

    ``projection`` is an (r x n) matrix, onto Z^r, whose kernel is a saturated
    sublattice; ``section`` is an (n x r) right inverse, so projection @
    section = identity.  ``Fan.face_quotient`` builds them: a face's
    quotient of M pairs with the saturated basis of the face's span.
    """

    projection: IntMatrix
    section: IntMatrix

    @property
    def rank(self) -> int:
        return len(self.projection)

