import functools
import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import augmentation, reduce_localization_greedy
from pexpfan import catalog, laurent
from pexpfan.errors import (
    NotDivisible,
    NotIndependent,
    NotPolynomial,
    RankMismatch,
    ResultCheckFailed,
    WorkBudgetExceeded,
    ZeroCharacter,
)
from pexpfan.fan import resolve
from pexpfan.ktheory import chi, gram_matrix, orbit_closure_class, poly_det, tangent_weights
from pexpfan.lattice import adjugate, is_primitive
from pexpfan.pexp import PiecewiseExponential
from pexpfan.laurent import (
    LaurentPoly,
    LocalizationSum,
    divide_exact,
    format_poly,
    koszul_divides,
    poly_from_json,
    poly_to_json,
    reduce_localization,
    try_div,
)

E = LaurentPoly.exponential
ONE2 = LaurentPoly.one(2)
ONE1 = LaurentPoly.one(1)


def polys(rank=2, max_terms=4, coeff=6, exp=4):
    return st.dictionaries(
        st.tuples(*[st.integers(-exp, exp)] * rank),
        st.integers(-coeff, coeff).filter(lambda c: c != 0),
        max_size=max_terms,
    ).map(lambda d: LaurentPoly.from_dict(rank, d))


nonzero_chars = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda w: any(w))
# exponents far apart and wide characters: a carry between packed fields would show
FAR = 2 ** 40
FAR_BUDGET = 2 ** 16  # the term budget of the far-apart sums
wide_chars = st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(lambda w: any(w))


class TestRingOps:
    def test_difference_of_squares(self):
        u = (1, 0)
        assert (ONE2 - E(u)) * (ONE2 + E(u)) == ONE2 - E((2, 0))

    def test_group_ring_law(self):
        assert E((1, 0)) * E((0, 1)) == E((1, 1))

    def test_cancellation_prunes(self):
        f = E((1, 0)) + E((0, 1))
        assert f + (-E((0, 1))) == E((1, 0))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            ONE1 + ONE2

    @given(polys(), polys(), polys())
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    def test_exponential_inverse(self, u):
        assert E(u) * E(tuple(-x for x in u)) == ONE2


class TestAugment:
    def test_examples(self):
        f = LaurentPoly.constant(2, 3) + 2 * E((1, 0)) - E((0, 1))
        assert augmentation(f) == 4
        assert augmentation(LaurentPoly.zero(2)) == 0
        g = (ONE2 - E((0, 1))) * (ONE2 - E((-2, 1)))
        assert augmentation(g) == 0
        # the package's augmentation is the push to the rank-0 ring
        for h in (f, g, LaurentPoly.zero(2)):
            assert h.map_exponents(()) == LaurentPoly.constant(0, augmentation(h))

    @given(polys(), polys())
    def test_ring_homomorphism(self, f, g):
        assert augmentation(f * g) == augmentation(f) * augmentation(g)
        assert augmentation(f + g) == augmentation(f) + augmentation(g)
        assert (f * g).map_exponents(()) == f.map_exponents(()) * g.map_exponents(())


class TestMapExponents:
    def test_evaluation_on_ray(self):
        # u -> <u, (-1,-2)>, the face coordinate of the ray through (-1,-2)
        phi = ((-1, -2),)
        f = ONE2 + E((1, -1))
        assert f.map_exponents(phi) == ONE1 + E((1,))

    def test_identity(self):
        f = ONE2 + 3 * E((2, -1))
        assert f.map_exponents(((1, 0), (0, 1))) == f

    def test_total_augmentation(self):
        f = E((1, 0)) + E((0, 1))
        assert f.map_exponents(()) == LaurentPoly.constant(0, 2)

    def test_domain_mismatch_is_refused(self):
        with pytest.raises(RankMismatch) as exc:
            (ONE2 + E((1, -1))).map_exponents(((1, 0, 0),))
        assert str(exc.value) == "matrix domain 3 vs ring rank 2"

    @given(polys(), polys())
    def test_ring_homomorphism(self, f, g):
        phi = ((1, 2), (0, -1))
        assert (f * g).map_exponents(phi) == f.map_exponents(phi) * g.map_exponents(phi)

    @given(polys())
    def test_functorial(self, f):
        phi = ((1, 1), (0, 1))
        psi = ((2, -1),)
        composed = tuple(
            tuple(sum(psi[i][k] * phi[k][j] for k in range(2)) for j in range(2))
            for i in range(1)
        )
        assert f.map_exponents(composed) == f.map_exponents(phi).map_exponents(psi)


class TestDivideExact:
    def test_geometric_factorization(self):
        assert divide_exact(ONE1 - E((2,)), (1,)) == ONE1 + E((1,))

    def test_two_factor(self):
        f = (ONE2 - E((1, 0))) * (ONE2 - E((0, 1)))
        assert divide_exact(f, (0, 1)) == ONE2 - E((1, 0))

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            divide_exact(ONE1 - E((1,)), (2,))

    def test_zero_character(self):
        with pytest.raises(ZeroCharacter):
            divide_exact(ONE2, (0, 0))

    def test_nonzero_coefficient_sum_is_refused(self):
        # (1 - e^w) | f forces f(1) = 0
        with pytest.raises(NotDivisible):
            divide_exact(ONE2 + E((3, -1)), (1, 0))

    @given(polys(), nonzero_chars)
    def test_roundtrip(self, f, w):
        product = f * (ONE2 - E(w))
        assert divide_exact(product, w) == f

    @given(polys(), polys(max_terms=2), nonzero_chars, nonzero_chars)
    def test_agrees_with_try_div(self, f, g, w, v):
        # try_div is an independent multivariate division.  The inputs cover
        # exact products, quotients with long constant runs along w, and
        # perturbations whose coefficients sum to zero but not line by line.
        factor = ONE2 - E(w)
        w4 = tuple(4 * x for x in w)
        candidates = (
            f,
            f * factor,
            f * factor + g,
            f * (ONE2 - E(w4)),
            f * factor + g * (ONE2 - E(v)),
        )
        for num in candidates:
            expected = try_div(num, factor)
            if expected is None:
                with pytest.raises(NotDivisible):
                    divide_exact(num, w)
            else:
                assert divide_exact(num, w) == expected

    @given(polys(exp=FAR), polys(max_terms=2, exp=FAR), wide_chars, st.integers(-50, 50))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_tuple_oracle_far_apart(self, f, g, w, t):
        # f times the Koszul factor, perturbed by e^a - e^b with b one step
        # off the line a + Z*w (the coefficient sum stays zero) or by any g
        product = f * (ONE2 - E(w))
        near = E((t, -t)) - E((t + 3 * w[0], -t + 3 * w[1] + 1))
        for num in (f, product, product + near, product + g):
            try:
                want = oracles.divide_exact(num, w)
            except NotDivisible:
                with pytest.raises(NotDivisible):
                    divide_exact(num, w)
                assert not koszul_divides(num, w)
            else:
                assert divide_exact(num, w) == want
                assert koszul_divides(num, w)

    def test_bulk_roundtrip_seeded(self):
        rng = random.Random(20260810)
        for _ in range(300):
            rank = rng.randint(1, 3)
            f = LaurentPoly.from_dict(
                rank,
                {
                    tuple(rng.randint(-4, 4) for _ in range(rank)): rng.randint(-5, 5)
                    for _ in range(rng.randint(0, 5))
                },
            )
            w = tuple(rng.randint(-3, 3) for _ in range(rank))
            if not any(w):
                w = (1,) * rank
            one = LaurentPoly.one(rank)
            assert divide_exact(f * (one - E(w)), w) == f


class TestExactDiv:
    @given(polys(), polys())
    def test_roundtrip(self, f, g):
        if g.is_zero():
            return
        assert (f * g) // g == f

    def test_non_divisible_returns_none(self):
        assert try_div(ONE2 + E((1, 0)), LaurentPoly.constant(2, 2)) is None

    def test_unit_division(self):
        f = ONE2 + E((1, 1))
        unit = E((2, -1), -1)
        assert (f * unit) // unit == f

    def test_floordiv_is_exact_division(self):
        f = ONE2 + E((1, 1))
        assert (f * (ONE2 - E((0, 1)))) // (ONE2 - E((0, 1))) == f
        assert (f * 3) // 3 == f
        with pytest.raises(NotDivisible):
            f // 2

    @pytest.mark.parametrize("divide, error, message", [
        (lambda f: try_div(f, LaurentPoly.one(1)), RankMismatch, "ranks 2 and 1"),
        (lambda f: try_div(f, LaurentPoly.zero(2)), ZeroDivisionError,
         "division by the zero polynomial"),
        (lambda f: divide_exact(f, (1,)), RankMismatch, "character of length 1 in rank 2"),
    ], ids=["rank-mismatch", "zero-divisor", "character-length"])
    def test_bad_divisors_are_refused(self, divide, error, message):
        with pytest.raises((RankMismatch, ZeroDivisionError)) as exc:
            divide(ONE2 + E((1, 0)))
        assert (type(exc.value), str(exc.value)) == (error, message)

    def test_truthiness_is_nonzero(self):
        assert E((1, 0)) and not LaurentPoly.zero(2)


def zm_matrices():
    """Square matrices of size 1..4 over Z[M] of rank 1 or 2, small entries."""
    return st.integers(1, 2).flatmap(lambda rank: st.integers(1, 4).flatmap(
        lambda k: st.lists(
            st.lists(polys(rank, max_terms=2, coeff=3, exp=2), min_size=k, max_size=k),
            min_size=k, max_size=k,
        ).map(lambda rows: (rank, rows))))


class TestEliminationOverZM:
    """``lattice.adjugate`` over Z[M] against the cofactor expansion
    ``ktheory.poly_det``."""

    @given(zm_matrices())
    @settings(max_examples=150, deadline=None)
    def test_adjugate_against_cofactor_expansion(self, case):
        rank, a = case
        k = len(a)
        det = poly_det(a, rank)
        if det.is_zero():
            with pytest.raises(NotIndependent):
                adjugate(a)
            return
        got_det, adj = adjugate(a)
        assert got_det == det
        zero = LaurentPoly.zero(rank)
        for i in range(k):
            for j in range(k):
                entry = zero
                for t in range(k):
                    entry = entry + adj[i][t] * a[t][j]
                assert entry == (det if i == j else zero)

    def test_closed_forms_match_the_elimination_on_gram_matrices(self):
        """On the Gram matrices of P(1,1,2) (3x3) and of the (P^1)^3 product
        basis (8x8), and on every principal 2x2 and 3x3 submatrix of them,
        ``adjugate`` equals the Bareiss elimination it replaced for n = 2
        and 3; with its first row made a Z[M]-combination of the others,
        each submatrix is refused by both as singular.  On the 8x8 matrix,
        where ``adjugate`` still eliminates, adj @ a = det * I, and the
        result equals that of the elimination that updated every row."""

        p112 = catalog.weighted_p112()
        grams = [gram_matrix(p112, catalog.p112_spanning_classes(p112),
                             catalog.p112_duality_cones(p112)).entries]
        fan, functions, taus = catalog.product_basis(3)
        grams.append(gram_matrix(fan, functions, taus).entries)
        closed = 0
        det, adj = adjugate(grams[1])
        assert all(
            sum((x * row[j] for x, row in zip(adj_row, grams[1])), LaurentPoly.zero(3))
            == det * int(i == j)
            for i, adj_row in enumerate(adj) for j in range(8))
        for gram in grams:
            assert adjugate(gram) == oracles.adjugate_by_elimination(gram)
            u = LaurentPoly.exponential((1,) + (0,) * (gram[0][0].rank - 1), 2)
            for n in (2, 3):
                for rows in itertools.combinations(range(len(gram)), n):
                    a = tuple(tuple(gram[i][j] for j in rows) for i in rows)
                    closed += 1
                    assert adjugate(a) == oracles.adjugate_by_elimination(a), a
                    dependent = (tuple(x * u - y for x, y in zip(a[1], a[-1])),) + a[1:]
                    for solve in (adjugate, oracles.adjugate_by_elimination):
                        with pytest.raises(NotIndependent):
                            solve(dependent)
        assert closed == 3 + 1 + 28 + 56

    @given(zm_matrices().filter(lambda case: len(case[1]) >= 2))
    @settings(max_examples=50, deadline=None)
    def test_repeated_row_is_dependent(self, case):
        rank, a = case
        a[1] = list(a[0])
        with pytest.raises(NotIndependent):
            adjugate(a)


class TestReduce:
    def test_p1_identity(self):
        s = LocalizationSum.build(1, [(ONE1, ((1,),)), (ONE1, ((-1,),))])
        assert reduce_localization(s) == ONE1

    def test_degree_one_classes(self):
        # the localization data of a degree-one bundle on the line, and the
        # same multiset with numerators attached to the wrong poles (which
        # cancels to zero); both are legitimate reductions
        good = LocalizationSum.build(1, [(ONE1, ((1,),)), (E((1,)), ((-1,),))])
        assert reduce_localization(good) == ONE1 + E((1,))
        swapped = LocalizationSum.build(1, [(E((1,)), ((1,),)), (ONE1, ((-1,),))])
        assert reduce_localization(swapped) == LaurentPoly.zero(1)

    def test_single_pole(self):
        with pytest.raises(NotPolynomial):
            reduce_localization(LocalizationSum.build(1, [(ONE1, ((1,),))]))

    def test_empty_sum(self):
        assert reduce_localization(LocalizationSum.build(2, [])) == LaurentPoly.zero(2)

    @given(polys(rank=1, max_terms=3, exp=3), polys(rank=1, max_terms=3, exp=3))
    @settings(max_examples=50)
    def test_split_invariance(self, na, nb):
        denom = ((1,), (1,))
        merged = LocalizationSum.build(
            1, [(na + nb, denom), (ONE1, ((-1,), (1,)))]
        )
        split = LocalizationSum.build(
            1, [(na, denom), (nb, denom), (ONE1, ((-1,), (1,)))]
        )
        try:
            left = reduce_localization(merged)
        except NotPolynomial:
            with pytest.raises(NotPolynomial):
                reduce_localization(split)
            return
        assert left == reduce_localization(split)


# -- the fold against the greedy fold it replaced ---------------------------------


@functools.cache
def smooth_fans():
    """Smooth complete catalog fans of ranks 1-3, resolved where needed."""
    return (
        catalog.projective_line(),
        catalog.projective_plane(),
        catalog.p1_times_p1(),
        catalog.hirzebruch(2),
        resolve(catalog.weighted_p112()).fine,
        catalog.projective_space(3),
        resolve(catalog.cube_fan()).fine,
    )


@st.composite
def localization_sums(draw, shift=0):
    """The localization data of a seeded class on a smooth complete fan: a sum
    of up to three terms c * e^u * (product of up to two orbit-closure
    classes), so the sum reduces to a polynomial.  Every numerator is moved
    by one drawn character with coordinates up to ``shift``."""
    fan = draw(st.sampled_from(smooth_fans()))
    epsilon = draw(st.sampled_from((1, -1)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rank = fan.rank
    mirror = tuple(tuple(-int(i == j) for j in range(rank)) for i in range(rank))
    numerators = [LaurentPoly.zero(rank)] * len(fan.maximal_cones)
    for _ in range(rng.randint(1, 3)):
        term = [E(tuple(rng.randint(-2, 2) for _ in range(rank)), rng.choice((-2, -1, 1, 3)))] * len(numerators)
        for _ in range(rng.randint(0, 2)):
            face = rng.choice(fan.faces)
            values = orbit_closure_class(fan, face)
            if epsilon == -1:  # the Koszul factors of the negated weights
                values = [v.map_exponents(mirror) for v in values]
            term = [a * b for a, b in zip(term, values)]
        numerators = [a + b for a, b in zip(numerators, term)]
    moved = E(draw(st.tuples(*[st.integers(-shift, shift)] * rank)))
    numerators = [moved * n for n in numerators]
    weights = [[tuple(epsilon * x for x in w) for w in tangent_weights(c)] for c in fan.cone_objects]
    return LocalizationSum.build(rank, list(zip(numerators, weights)))


@st.composite
def random_sums(draw, exp=2, char=3):
    """Sums of up to four terms over a pool of characters: primitive,
    non-primitive, repeated and lexicographically negative ones, with
    coordinates up to ``char``.  A numerator, with exponents up to ``exp``,
    may carry Koszul factors of the pool, so that some terms cancel alone."""
    rank = draw(st.integers(1, 3))
    vectors = st.tuples(*[st.integers(-char, char)] * rank).filter(any)
    pool = draw(st.lists(vectors, min_size=1, max_size=4))
    pool += [tuple(-x for x in w) for w in pool]
    one = LaurentPoly.one(rank)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        num = draw(polys(rank, max_terms=3, coeff=3, exp=exp))
        for w, k in draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from((1, 2))), max_size=2)):
            num = num * (one - E(tuple(k * x for x in w)))
        terms.append((num, draw(st.lists(st.sampled_from(pool), max_size=3))))
    return LocalizationSum.build(rank, terms)


def outcome(reduce, s):
    try:
        return reduce(s)
    except (NotPolynomial, WorkBudgetExceeded) as exc:
        return exc


class TestLocalizationSumBuild:
    @pytest.mark.parametrize("build, error, message", [
        (lambda: LocalizationSum.build(2, [(ONE1, [(1,)])]), RankMismatch,
         "numerator rank differs from the sum's rank"),
        (lambda: LocalizationSum.build(2, [(ONE2, [(0, 0)])]), ZeroCharacter,
         "zero character in a denominator"),
        (lambda: LocalizationSum.build(2, [(ONE2, [(1,)])]), RankMismatch,
         "denominator character of wrong length"),
        (lambda: LaurentPoly.from_dict(2, {(1,): 1}), RankMismatch,
         "exponent (1,) in a rank-2 ring"),
    ], ids=["numerator-rank", "zero-character", "character-length", "poly-exponent-length"])
    def test_malformed_terms_are_refused(self, build, error, message):
        with pytest.raises((RankMismatch, ZeroCharacter)) as exc:
            build()
        assert (type(exc.value), str(exc.value)) == (error, message)


class TestFoldAgainstGreedyOracle:
    """``reduce_localization`` tries only the shared directions after each
    merge; ``oracles.reduce_localization_greedy`` tries every factor."""

    def check(self, s, reduce=reduce_localization, budget=None):
        got, want = outcome(reduce, s), outcome(lambda s: reduce_localization_greedy(s, budget), s)
        assert type(got) is type(want)
        if isinstance(want, LaurentPoly):
            assert got == want
        elif all(is_primitive(w) for _, denom in s.terms for w in denom):
            assert str(got) == str(want)
        return want

    @given(localization_sums())
    @settings(max_examples=60, deadline=None)
    def test_localization_data(self, s):
        assert isinstance(self.check(s), LaurentPoly)

    @given(random_sums())
    @settings(max_examples=200, deadline=None)
    def test_random_sums(self, s):
        self.check(s)

    @given(random_sums(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_sums_under_any_plan(self, s, data):
        """A plan orders the merges only: any pairs of terms, joining them
        or not, give the greedy fold's answer."""
        terms = st.integers(0, len(s.terms) - 1)
        plan = data.draw(st.lists(st.tuples(terms, terms).filter(lambda p: p[0] != p[1]), max_size=6))
        self.check(s, lambda s: reduce_localization(s, plan))

    @given(localization_sums(shift=FAR))
    @settings(max_examples=30, deadline=None)
    def test_localization_data_far_apart(self, s):
        assert isinstance(self.check(s), LaurentPoly)

    @given(random_sums(exp=FAR, char=50))
    @settings(max_examples=150, deadline=None)
    def test_random_sums_far_apart(self, s):
        """Some draws have a quotient of about 2^41 terms, such as
        (e^(2^40) - e^(-2^40)) / (1 - e^(1,)): the fold refuses exactly the
        draws whose greedy fold, cancelling each term first as the fold does
        with no walls, counts a quotient past the term budget from the lines
        of its dividend, before it is built.  Both take a budget of 2^16
        terms, so that a draw under the default budget, whose millions of
        terms the oracle would hold as tuples, is refused too."""
        with mock.patch.object(laurent, "TERM_BUDGET", FAR_BUDGET):
            self.check(s, budget=FAR_BUDGET)

    def test_failed_divisions_of_one_chi(self, monkeypatch):
        """chi of the octahedron class on resolve(cube_fan()) (48 cones)
        makes 24 failed divisions with the series cold: folding each coarse
        cone's 8 fine cones into its series, then the 6 series along the
        walls.  Once the series are cached a second chi makes none: each
        merge tries only the directions of the walls it joins, where trying
        every direction both denominators hold made 42 and 6.  A numerator
        whose coefficients do not sum to zero is tried against no factor, and
        a series term's first cancellation tests f_sigma alone, a monomial
        here: dividing f_sigma * N_sigma, whose coefficients sum to zero, made
        210 and 30 failures, 52 and 28 of them after a pass over its lines.
        One fold of the 48 fine cones along the walls made 180, the greedy
        fold 222, and trying every factor after every step 244.  The merges
        divide through the packed kernel, 51 and 9 times with success."""
        calls = []
        divide = laurent._packed_divide

        def counted(f, ch):
            q = divide(f, ch)
            calls.append(q is not None)
            return q

        monkeypatch.setattr(laurent, "_packed_divide", counted)
        cube = catalog.cube_fan()
        octahedron = catalog.octahedron_class(cube)
        resolution = resolve(cube)
        value = chi(cube, octahedron, resolution=resolution)
        assert augmentation(value) == 7
        assert (calls.count(False), calls.count(True)) == (24, 51)
        calls.clear()
        assert chi(cube, octahedron, resolution=resolution) == value
        assert (calls.count(False), calls.count(True)) == (0, 9)

    def test_planless_fold_of_a_shuffled_sum_is_greedy(self, monkeypatch):
        """The octahedron class over the 48 cones of resolve(cube_fan()), its
        terms shuffled by Random(1), reduced with no plan: every merge is the
        fallback of ``_merge_rounds``, which folds greedily, so no numerator
        divided has over 251 terms.  Merging the two smallest regions
        instead reached 1,532."""
        cube = catalog.cube_fan()
        sub = resolve(cube)
        octahedron = catalog.octahedron_class(cube)
        terms = [(octahedron.values[a], tangent_weights(sub.fine.cone_objects[i]))
                 for i, a in enumerate(sub.assignment)]
        s = LocalizationSum.build(3, random.Random(1).sample(terms, len(terms)))
        want = reduce_localization_greedy(s)
        sizes = []
        divide = laurent._packed_divide
        monkeypatch.setattr(laurent, "_packed_divide", lambda f, ch: sizes.append(len(f)) or divide(f, ch))
        assert reduce_localization(s) == want and augmentation(want) == 7
        assert 0 < max(sizes) <= 251

    def test_largest_dividend_of_the_128_cone_chi(self, monkeypatch):
        """chi of e^(1,0,0) + 2e^(0,-1,1) through the 128-cone refinement of
        the cube divides no numerator of over 1,000 terms: merged along the
        walls the largest has 690, and the greedy fold's had 7,362."""
        sizes = []
        divide = laurent._packed_divide
        monkeypatch.setattr(laurent, "_packed_divide", lambda f, ch: sizes.append(len(f)) or divide(f, ch))
        cube = catalog.cube_fan()
        value = E((1, 0, 0)) + E((0, -1, 1)) * 2
        f = PiecewiseExponential.constant(cube, 1).module_action(value)
        assert chi(cube, f, resolution=resolve(cube, rng=random.Random(5), extra_rounds=40)) == value
        assert 0 < max(sizes) <= 1000


class TestPackedKernel:
    """The packed line kernel behind ``divide_exact``, ``koszul_divides`` and
    ``reduce_localization``: line names must stay distinct, the one ascending
    fill must give the quotient of the per-line lists it replaced, and a
    coordinate read back outside the box is refused."""

    @given(polys(exp=FAR), wide_chars, st.booleans(), st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_fill_agrees_with_the_line_lists(self, f, w, negative, moved):
        # lex-negative characters fill in descending order; a term moved off
        # its line keeps the coefficient sum zero but leaves two lines unbalanced
        if negative != (w < (0, 0)):
            w = tuple(-x for x in w)
        off = (1, 0) if w[1] else (0, 1)
        product = f * (ONE2 - E(w))
        candidates = [f, product, f * (ONE2 - E(tuple(7 * x for x in w)))]
        if product:
            e, c = product.terms[moved % len(product.terms)]
            candidates.append(product - E(e, c) + E((e[0] + off[0], e[1] + off[1]), c))
        for num in candidates:
            if not num:
                continue
            _, packed, ch = laurent._packed_for_division(num, w)
            want = oracles.packed_divide_by_lines(packed, ch)
            assert laurent._packed_divide(packed, ch) == want
            assert koszul_divides(num, w) == (want is not None)

    @given(st.integers(2, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_an_unbalanced_line_ending_at_the_far_corner(self, rank, data):
        """g * (1 - e^w) plus c * e^x * (1 - e^d1) * (1 - e^d2): x is the
        corner of the box furthest along w, and d1, d2 unit steps into the
        box, so x ends its line and the coefficients and their moments sum
        to 0.  Both quick refusals pass it, and (1 - e^w) divides it only
        for w = +-d1 or +-d2; otherwise the fill refuses it at a run that
        meets no key of f, its lookups up to span + reach (the largest
        |w_j|) outside the box."""
        g = data.draw(polys(rank=rank, exp=6))
        w = data.draw(st.tuples(*[st.integers(-7, 7)] * rank).filter(any))
        c = data.draw(st.integers(-3, 3).filter(bool))
        a, b = data.draw(st.tuples(*[st.integers(0, rank - 1)] * 2))
        one = LaurentPoly.one(rank)
        base = g * (one - E(w))
        lo, hi = base.exponent_box() if base else ((0,) * rank, (0,) * rank)
        x = tuple(l if wj < 0 else h for l, h, wj in zip(lo, hi, w))
        d1, d2 = (tuple((1 if w[j] < 0 else -1) * (j == i) for j in range(rank)) for i in (a, b))
        f = base + E(x, c) * (one - E(d1)) * (one - E(d2))
        _, packed, ch = laurent._packed_for_division(f, w)
        want = oracles.packed_divide_by_lines(packed, ch)
        assert laurent._packed_divide(packed, ch) == want
        assert koszul_divides(f, w) == (want is not None)
        assert (want is None) == ({w, tuple(-v for v in w)}.isdisjoint({d1, d2}))

    def test_merges_multiply_by_no_zero_power(self, monkeypatch):
        # the lcm of two denominators raises each side only by the factors it lacks
        powers = []
        times = laurent._packed_times_koszul
        monkeypatch.setattr(laurent, "_packed_times_koszul",
                            lambda f, w, k: powers.append(k) or times(f, w, k))
        cube = catalog.cube_fan()
        value = E((1, 0, 0)) + E((0, -1, 1)) * 2
        f = PiecewiseExponential.constant(cube, 1).module_action(value)
        assert chi(cube, f, resolution=resolve(cube)) == value
        assert powers and min(powers) >= 1

    def test_collision_counterexample(self):
        # fields sized to the exponent box alone, with k read from the raw
        # coordinate, named both lines alike and returned the polynomial
        # e^[5,0] + e^[7,-9] + e^[8,14]
        s = LocalizationSum.build(2, [(E((5, 0)) - E((10, 5)), ((2, -9),))])
        with pytest.raises(NotPolynomial):
            reduce_localization(s)

    @pytest.mark.parametrize("w", [(2, 9), (2, -9), (5, 11)])
    def test_two_term_family(self, w):
        """(e^(5,0) - e^b) / (1 - e^w) for every b in a 16 x 16 grid: a
        polynomial iff b - (5,0) lies in Z*w, and then the tuple oracle's."""
        for b in itertools.product(range(-3, 13), repeat=2):
            num = E((5, 0)) - E(b)
            s = LocalizationSum.build(2, [(num, (w,))])
            try:
                want = oracles.divide_exact(num, w)
            except NotDivisible:
                with pytest.raises(NotDivisible):
                    divide_exact(num, w)
                with pytest.raises(NotPolynomial):
                    reduce_localization(s)
                assert not koszul_divides(num, w)
            else:
                assert divide_exact(num, w) == want == reduce_localization(s)
                assert koszul_divides(num, w)

    def test_coordinate_outside_the_box_is_refused(self):
        packing = laurent._Packing((0, -1), (3, 3), 1)
        f = E((3, 3)) - E((0, -1))
        assert packing.unpack(packing.pack(f.terms)) == f
        for outside in ((4, 0), (0, 4), (-1, 0)):
            with pytest.raises(ResultCheckFailed):
                packing.unpack(packing.pack(E(outside).terms))


class TestCompilerAgainstTheReplacedLoops:
    """``_merge_rounds`` keeps its regions in lists and hands each merge's
    wall lists on, and the compiler of ``_Plan`` reads each distinct factor
    once; ``oracles.merge_rounds_by_dicts`` and
    ``oracles.plan_tables_by_occurrence`` keep the loops they replaced."""

    def test_merge_rounds_on_seeded_wall_lists(self):
        """300 seeded wall lists on up to 12 regions, bare pairs and
        directed walls mixed and pairs repeated, give the same steps, each
        with the same directions in the same order, and the same regions
        left, largest first."""
        rng = random.Random(20261021)
        kinds = set()
        for _ in range(300):
            count = rng.randint(1, 12)
            walls = []
            for _ in range(rng.randint(0, 3 * count) if count > 1 else 0):
                a, b = rng.sample(range(count), 2)
                direction = rng.choice([None, (1, 0), (0, 1), (1, 1), (1, -1)])
                walls.append((a, b) if direction is None else (a, b, direction))
            kinds.update(map(len, walls))
            assert laurent._merge_rounds(count, walls) == oracles.merge_rounds_by_dicts(count, walls)
        assert kinds == {2, 3}

    @given(random_sums())
    @settings(max_examples=100, deadline=None)
    def test_tables_of_random_sums(self, s):
        """Repeated, non-primitive and lexicographically negative factors
        give the widening, the division order, the largest |w_i| and the
        reach of the factor-by-factor loop."""
        terms = [(None, denom) for _, denom in s.terms]
        plan = laurent._Plan(s.rank, terms, [])
        assert (plan.widening, plan.order, plan.top, plan.reach) == oracles.plan_tables_by_occurrence(s.rank, terms)

    def test_unpack_by_columns(self):
        """A zero result has no columns and unpacks to zero, a rank-0 result
        to its constant, and a key whose field leaves the box, above or
        below, in the top field or another, is refused."""
        packing = laurent._Packing((0, -1, 2), (3, 3, 5), 1)
        assert packing.unpack({}) == LaurentPoly.zero(3)
        f = E((3, 3, 2), 2) - E((0, -1, 5)) + E((1, 0, 3))
        assert packing.unpack(packing.pack(f.terms)) == f
        for outside in ((4, 0, 2), (-1, 0, 2), (0, 4, 2), (0, -2, 2), (0, 0, 6), (0, 0, 1)):
            with pytest.raises(ResultCheckFailed):
                packing.unpack(packing.pack(E(outside).terms))
        assert laurent._Packing((), (), 0).unpack({0: 5}) == LaurentPoly.constant(0, 5)


class TestTermBudget:
    """A quotient is bounded by |f| / 2 times the steps of w across the box
    before it is built; past ``TERM_BUDGET`` it is bounded again by f's own
    range and counted from the runs of its lines, and a count past the
    budget refuses the division."""

    def test_a_quotient_of_two_to_the_41_terms_is_refused(self):
        f = E((2 ** 40,)) - E((-2 ** 40,))
        message = f"a quotient of {2 ** 41} terms passes the budget of {laurent.TERM_BUDGET}"
        for divide in (lambda: divide_exact(f, (1,)), LocalizationSum.build(1, [(f, [(1,)])]).reduce):
            with pytest.raises(WorkBudgetExceeded) as exc:
                divide()
            assert str(exc.value) == message

    @pytest.mark.parametrize("budget", [50, 49, 2])
    def test_the_count_decides_past_the_bound(self, monkeypatch, budget):
        # (1 - e^50) / (1 - e^1) has 50 terms, and its bound is 2 / 2 * 50;
        # 1 - e^1 + e^49 - e^50 has a bound of 4 / 2 * 50 but the quotient 1 + e^49
        monkeypatch.setattr(laurent, "TERM_BUDGET", budget)
        sizes, size = [], laurent._quotient_size
        monkeypatch.setattr(laurent, "_quotient_size", lambda *a: sizes.append(size(*a)) or sizes[-1])
        if budget < 50:
            with pytest.raises(WorkBudgetExceeded):
                divide_exact(ONE1 - E((50,)), (1,))
            assert sizes == [50]
        else:
            assert len(divide_exact(ONE1 - E((50,)), (1,)).terms) == 50
            assert sizes == []
        sizes.clear()
        assert divide_exact(ONE1 - E((1,)) + E((49,)) - E((50,)), (1,)) == ONE1 + E((49,))
        assert sizes == [2]

    # under a budget of 1,000 terms: (f, w, error of divide_exact, error of the fold)
    FAR_CASES = [
        # far-apart divisible pairs, whose quotients of 5,000, 3,000 and 4,000 terms are refused
        (E((0,)) - E((5000,)), (1,), WorkBudgetExceeded, WorkBudgetExceeded),
        (E((0, 0)) - E((6000, -9000)), (2, -3), WorkBudgetExceeded, WorkBudgetExceeded),
        (E((1, 2, 3)) - E((-3999, 2, 4003)), (-1, 0, 1), WorkBudgetExceeded, WorkBudgetExceeded),
        # past the bound but not divisible, though the coefficients sum to 0 and their
        # moment is a multiple of w: the line of e^0 alone would count 2,000 or 3,000
        (E((0,)) + 2 * E((1,)) - E((2,)) - E((6000,)) - E((6003,)), (3,), NotDivisible, NotPolynomial),
        (E((0, 0)) - E((6000, -9000)) + 2 * E((1, 0)) - E((1, 1)) - E((1, -1)), (2, -3), NotDivisible,
         NotPolynomial),
    ]

    @pytest.mark.parametrize("f, w, error, fold_error", FAR_CASES)
    def test_far_apart_dividends(self, monkeypatch, f, w, error, fold_error):
        """A divisible dividend whose quotient passes the budget raises
        WorkBudgetExceeded; one that is not divisible answers NotDivisible,
        or NotPolynomial through the fold, before any count is made."""
        monkeypatch.setattr(laurent, "TERM_BUDGET", 1000)
        sizes, size = [], laurent._quotient_size
        monkeypatch.setattr(laurent, "_quotient_size", lambda *a: sizes.append(size(*a)) or sizes[-1])
        _, packed, ch = laurent._packed_for_division(f, w)
        assert sum(packed.values()) == 0 and sum(p * c for p, c in packed.items()) % ch[0] == 0
        assert len(packed) * ch[4] > 2 * laurent.TERM_BUDGET
        assert size(packed, ch, sorted(packed, reverse=ch[0] < 0)) > 1000
        for divide, raised in ((lambda: divide_exact(f, w), error),
                               (LocalizationSum.build(f.rank, [(f, [w])]).reduce, fold_error)):
            with pytest.raises(raised):
                divide()
        assert all(n > 1000 for n in sizes) and len(sizes) == 2 * (error is WorkBudgetExceeded)


class TestSerialization:
    def test_round_trip(self):
        f = 3 * E((1, -2)) - E((0, 1)) + LaurentPoly.constant(2, 7)
        assert poly_from_json(poly_to_json(f)) == f

    def test_canonical_order(self):
        f = E((1, 0)) + E((-1, 2))
        obj = poly_to_json(f)
        assert [t["exp"] for t in obj["terms"]] == [[-1, 2], [1, 0]]

    def test_reject_duplicate_exponents(self):
        bad = {"rank": 1, "terms": [{"coeff": 1, "exp": [0]}, {"coeff": 2, "exp": [0]}]}
        with pytest.raises(ValueError) as exc:
            poly_from_json(bad)
        assert str(exc.value) == "duplicate exponent (0,)"

    def test_reject_zero_coefficient(self):
        with pytest.raises(ValueError):
            poly_from_json({"rank": 1, "terms": [{"coeff": 0, "exp": [1]}]})

    def test_reject_an_exponent_of_another_rank(self):
        with pytest.raises(ValueError) as exc:
            poly_from_json({"rank": 2, "terms": [{"coeff": 1, "exp": [1]}]})
        assert str(exc.value) == "bad exponent (1,) for rank 2"

    def test_reject_negative_rank(self):
        with pytest.raises(ValueError) as exc:
            poly_from_json({"rank": -1, "terms": []})
        assert str(exc.value) == "rank must be a nonnegative integer"

    def test_text_rendering(self):
        f = 2 * E((1, 0)) - E((0, 3))
        assert format_poly(f) == "-1*e^[0,3] + 2*e^[1,0]"
        assert format_poly(LaurentPoly.zero(2)) == "0"

    def test_emit_parse_emit_fixed_point(self):
        f = E((1, 0)) - 4 * E((0, -1))
        first = json.dumps(poly_to_json(f))
        second = json.dumps(poly_to_json(poly_from_json(json.loads(first))))
        assert first == second
