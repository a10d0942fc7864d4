import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pexpfan.errors import NotIndependent, NotSmooth, ZeroVector
from pexpfan.fan import Cone, Fan, span_coordinates
from pexpfan.ktheory import tangent_weights
from pexpfan.laurent import LaurentPoly
from pexpfan.lattice import (
    QuotientLattice,
    adjugate,
    identity_matrix,
    independent_rows,
    is_primitive,
    line_kernel,
    mat_mul,
    mat_vec,
    matrix_rank,
    pair,
    primitive_vector,
    smith_normal_form,
    transpose,
)
from oracles import (
    adjugate_by_elimination, det_expansion, integer_det, kernel_basis, smith_diagonal_oracle,
    smith_normal_form_reference, span_basis)

matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        ).map(lambda rows: tuple(tuple(r) for r in rows))
    )
)


def random_unimodular(rng, n, steps=8):
    m = [list(r) for r in identity_matrix(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(r) for r in m)


class TestSmithNormalForm:
    def test_identity(self):
        ident = identity_matrix(2)
        u, d, v = smith_normal_form(ident)
        assert (u, d, v) == (ident, ident, ident)

    def test_worked_2x2(self):
        a = ((2, 4), (6, 8))
        u, d, v = smith_normal_form(a)
        assert d == ((2, 0), (0, 4))
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det_expansion(d)) == abs(det_expansion(a)) == 8

    def test_zero_matrix(self):
        a = ((0, 0), (0, 0))
        u, d, v = smith_normal_form(a)
        assert d == a
        assert u == identity_matrix(2)
        assert v == identity_matrix(2)

    @given(matrices)
    def test_factorization_and_chain(self, a):
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det_expansion(u)) == 1
        assert abs(det_expansion(v)) == 1
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if y != 0:
                assert x != 0 and y % x == 0
        for i in range(len(d)):
            for j in range(len(d[0])):
                if i != j:
                    assert d[i][j] == 0

    @given(matrices)
    @settings(max_examples=60)
    def test_against_determinantal_divisors(self, a):
        _, d, _ = smith_normal_form(a)
        diag = [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i] != 0]
        assert diag == smith_diagonal_oracle(a)

    def test_same_factorization_as_the_reference(self):
        """(U, D, V) equal the closure-based elimination's, pivots and
        tie-breaks included, on 3,600 seeded matrices of shapes 1-5 x 1-5:
        small entries, which tie often, and entries up to 10^6, with zero
        rows, zero columns and repeated columns."""
        rng = random.Random(20261019)
        for k in range(3600):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            bound = (1, 2, 9, 10 ** 6)[k % 4]
            a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
            if rng.random() < 0.25:
                a[rng.randrange(m)] = [0] * n
            if rng.random() < 0.25:
                j = rng.randrange(n)
                for row in a:
                    row[j] = 0
            if rng.random() < 0.25:
                i, j = rng.randrange(n), rng.randrange(n)
                for row in a:
                    row[j] = row[i]
            a = tuple(map(tuple, a))
            assert smith_normal_form(a) == smith_normal_form_reference(a), a


class TestPrimitiveVector:
    def test_examples(self):
        assert primitive_vector((2, 4)) == (1, 2)
        assert primitive_vector((-3, -6)) == (-1, -2)
        assert primitive_vector((1, 0)) == (1, 0)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            primitive_vector((0, 0))

    def test_zero_and_rank_0_vectors_are_not_primitive(self):
        for v in ((), (0,), (0, 0, 0)):
            assert not is_primitive(v)
            with pytest.raises(ZeroVector):
                primitive_vector(v)

    @given(st.lists(st.integers(-60, 60), max_size=5).map(tuple))
    @settings(max_examples=200)
    def test_one_gcd_call_matches_the_running_gcd(self, v):
        g = 0
        for c in v:
            g = gcd(g, c)
        assert is_primitive(v) == (g == 1)
        if g:
            assert primitive_vector(v) == tuple(c // g for c in v)


class TestQuotientLattice:
    """The coordinates every quotient lattice is read from, span_coordinates,
    and the face quotients read off them: with U A V = D, the span basis is
    the first d columns of U^-1 = A V D^-1, so no inverse is computed."""

    def test_trivial_kernel(self):
        ident = identity_matrix(2)
        assert span_coordinates(2, []) == ((), (), ident, ())
        assert Fan.build(2, [(1, 0)], [(0,)]).face_quotient(()) == QuotientLattice((), ())

    def test_kill_first_coordinate(self):
        factors, projection, annihilator, columns = span_coordinates(2, [(1, 0)])
        assert factors == (1,) and projection == ((1, 0),) and annihilator == ((0, 1),)
        assert columns == ((1,),)
        face = Fan.build(2, [(1, 0)], [(0,)]).face_quotient((0,))
        assert face == QuotientLattice(((1, 0),), ((1,), (0,)))

    def test_ray_coordinate_is_the_pairing(self):
        # a primitive ray is its own span basis, so a face quotient of a ray
        # sends u to <u, ray>
        for ray in ((1, 0, 0), (-1, -2, 0), (2, -3, 5), (0, 0, -1)):
            assert Fan.build(3, [ray], [(0,)]).face_quotient((0,)).projection == (ray,)

    def test_dependent_vectors_span_their_rank(self):
        factors, _, annihilator, columns = span_coordinates(3, [(1, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert len(factors) == 2 and annihilator == ((0, 0, 1),)
        # the last column of V is a relation among the vectors
        assert len(columns) == 3 and abs(det_expansion(columns)) == 1
        assert mat_vec(((1, 1, 0), (0, 0, 1)), transpose(columns)[2]) == (0, 0)

    def test_non_saturated_vectors_give_the_saturated_span(self):
        # 2 e1 and 4 e1 span Q e1, whose saturated lattice is Z e1
        factors, projection, annihilator, columns = span_coordinates(3, [(2, 0, 0), (4, 0, 0)])
        assert factors == (2,) and projection == ((1, 0, 0),) and len(columns) == 2
        assert annihilator == ((0, 1, 0), (0, 0, 1))
        # the first column of A V is d_1 times the span basis vector
        assert transpose(mat_mul(transpose([(2, 0, 0), (4, 0, 0)]), columns))[0] == (2, 0, 0)

    @given(st.integers(0, 123456))
    @settings(max_examples=40)
    def test_projection_section_identities(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        d = rng.randint(0, n)
        u = random_unimodular(rng, n)
        # a non-saturated spanning set of the saturated span of u's first d rows
        vectors = [tuple(c * x for x in row) for c, row in zip(rng.choices((1, 2, -3), k=d), u)]
        if d:
            vectors.append(tuple(map(sum, zip(*vectors))))
        factors, projection, annihilator, columns = span_coordinates(n, vectors)
        basis = span_basis(n, vectors)
        assert len(factors) == len(basis) == d and len(annihilator) == n - d
        assert mat_mul(projection, transpose(basis)) == identity_matrix(d)
        assert all(pair(a, b) == 0 for a in annihilator for b in basis)
        assert all(pair(a, v) == 0 for a in annihilator for v in u[:d])
        if d:
            # A V = U^-1 D: column i of A V is d_i times span basis vector i
            av = transpose(mat_mul(transpose(vectors), columns))
            assert av[:d] == tuple(tuple(f * x for x in b) for f, b in zip(factors, basis))
            assert all(not any(col) for col in av[d:])
            # saturated: the basis has unit invariant factors and spans the rows
            assert smith_diagonal_oracle(basis) == [1] * d
            assert abs(integer_det(mat_mul(u[:d], transpose(projection)))) == 1
            # the invariant factors are those of the vectors
            assert list(factors) == smith_diagonal_oracle(vectors)
            # U[:d] A V = diag(factors), followed by zero columns
            local = mat_mul(projection, transpose(vectors))
            assert mat_mul(local, columns) == tuple(
                tuple(factors[i] if i == j else 0 for j in range(len(vectors))) for i in range(d))


class TestDualBasis:
    """The dual basis of a unimodular basis of N, read as the tangent weights
    of the cone it generates: one weight per sorted generator."""

    def test_standard(self):
        cone = Cone.from_generators(2, [(1, 0), (0, 1)])
        assert cone.generators == ((0, 1), (1, 0))
        assert tangent_weights(cone) == ((0, 1), (1, 0))

    def test_singular_chart_basis(self):
        cone = Cone.from_generators(2, [(0, 1), (-1, -2)])
        assert cone.generators == ((-1, -2), (0, 1))
        assert tangent_weights(cone) == ((-1, 0), (-2, 1))

    def test_not_unimodular(self):
        with pytest.raises(NotSmooth):
            tangent_weights(Cone.from_generators(2, [(1, 0), (-1, -2)]))

    @given(st.integers(0, 99999))
    @settings(max_examples=60)
    def test_pairing_matrix_is_identity(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        basis = tuple(zip(*random_unimodular(rng, n)))  # columns of a unimodular
        cone = Cone.from_generators(n, basis)
        duals = tangent_weights(cone)
        for i, u in enumerate(duals):
            for j, v in enumerate(cone.generators):
                assert pair(u, v) == (1 if i == j else 0)


class TestHelpers:
    @given(matrices.filter(lambda a: len(a) == len(a[0])))
    @settings(max_examples=60)
    def test_integer_det_matches_expansion(self, a):
        assert integer_det(a) == det_expansion(a)

    @given(matrices)
    @settings(max_examples=80)
    def test_matrix_rank_matches_smith_oracle(self, a):
        assert matrix_rank(a) == len(smith_diagonal_oracle(a))

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                 min_size=n - 1, max_size=n - 1),
        st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1),
    )))
    @settings(max_examples=300)
    def test_line_kernel_matches_smith_kernel(self, case):
        n, rows, mix = case
        if n >= 2 and mix[0]:
            # a combination of the other rows, so the kernel is not a line
            rows[0] = [sum(c * r[k] for c, r in zip(mix[1:], rows[1:])) for k in range(n)]
        rows = tuple(tuple(r) for r in rows)
        got = line_kernel(rows, n)
        want = kernel_basis(rows, n)
        if len(want) != 1:
            assert got is None
        else:
            assert got in (want[0], tuple(-x for x in want[0]))

    def test_independent_rows_are_the_greedy_rank_rows(self):
        """One elimination of the transpose picks the rows a ``matrix_rank``
        loop grows one row at a time, over Z and over Z[M]: on seeded
        systems with zero, repeated and combined rows, with fewer rows than
        columns, with no columns and with no rows."""
        rng = random.Random(20261020)

        def greedy(rows):
            chosen = []
            for r, row in enumerate(rows):
                if matrix_rank([rows[i] for i in chosen] + [row]) > len(chosen):
                    chosen.append(r)
            return tuple(chosen)

        def integer():
            return rng.randint(-3, 3)

        def laurent():
            return LaurentPoly.from_dict(2, {(rng.randint(-1, 1), rng.randint(-1, 1)): rng.randint(-2, 2)
                                             for _ in range(rng.randint(0, 2))})

        kinds = set()
        for trial in range(600):
            entry, zero = (integer, 0) if trial % 2 else (laurent, LaurentPoly.zero(2))
            k, n = rng.randint(0, 4), rng.randint(0, 6)
            rows = []
            for _ in range(n):
                kind = rng.choice(("random", "random", "zero", "copy", "combination"))
                if kind == "zero" or (kind != "random" and not rows):
                    rows.append([zero] * k)
                elif kind == "copy":
                    rows.append(list(rng.choice(rows)))
                elif kind == "combination":
                    a, b, x, y = rng.choice(rows), rng.choice(rows), entry(), entry()
                    rows.append([x * s + y * t for s, t in zip(a, b)])
                else:
                    rows.append([entry() for _ in range(k)])
            want = greedy(rows)
            assert independent_rows(rows) == want, rows
            assert independent_rows(tuple(map(tuple, rows))) == want
            kinds.add((n < k, len(want) < min(n, k), entry is laurent))
        assert len(kinds) == 8
        assert independent_rows([]) == () and independent_rows([(), ()]) == ()

    @given(matrices.filter(lambda a: len(a) == len(a[0])))
    @settings(max_examples=80)
    def test_adjugate(self, a):
        n = len(a)
        det = det_expansion(a)
        if det == 0:
            with pytest.raises(NotIndependent):
                adjugate(a)
            return
        d, adj = adjugate(a)
        assert d == det
        assert mat_mul(adj, a) == tuple(tuple(det * (i == j) for j in range(n)) for i in range(n))

    def test_closed_forms_match_the_elimination(self):
        """The written-out 2x2 and 3x3 adjugates equal the Bareiss
        elimination they replaced on seeded small matrices, and refuse the
        singular ones, drawn and built from dependent rows, like it."""
        rng = random.Random(20261019)
        singular = 0
        for _ in range(3000):
            n = rng.choice((2, 3))
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.2:
                a[0] = [rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(a[1], a[-1])]
            a = tuple(map(tuple, a))
            if det_expansion(a) == 0:
                singular += 1
                for solve in (adjugate, adjugate_by_elimination):
                    with pytest.raises(NotIndependent, match="adjugate of a singular matrix"):
                        solve(a)
                continue
            assert adjugate(a) == adjugate_by_elimination(a), a
            assert adjugate(a)[0] == det_expansion(a), a
        assert singular > 300

    @pytest.mark.parametrize("call, error, message", [
        (lambda: adjugate(((1, 2, 3), (4, 5, 6))), ValueError, "adjugate of a non-square matrix"),
        (lambda: line_kernel(((1, 0, 0),), 3), ValueError, "line_kernel needs 2 rows, got 1"),
        (lambda: pair((1, 2), (1,)), ValueError, "pairing of vectors of lengths 2 and 1"),
        (lambda: mat_mul(((1, 2),), ((1, 2),)), ValueError, "matrix shapes do not compose"),
    ], ids=["non-square-adjugate", "line-kernel-row-count", "pair-lengths", "mat-mul-shapes"])
    def test_malformed_inputs_are_refused(self, call, error, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert (type(exc.value), str(exc.value)) == (error, message)
