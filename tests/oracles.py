"""Independent brute-force oracles used by the tests.

Nothing here shares code paths with the package kernels: determinants come
from permutation expansion, Smith diagonals from determinantal divisors,
linear solutions from Gauss-Jordan over the rationals, facet normals from
signed minors, and lattice points from direct enumeration.  The exceptions
are ``kernel_basis``, the saturated kernel from the package's Smith form,
``extreme_rays_smith``, the Smith-form extreme-ray enumeration that fan
validation used before ``line_kernel``, and ``reduce_localization_greedy``,
the fold that tried every denominator factor after every step before
``reduce_localization`` tried only the shared directions, and
``merge_rounds_by_dicts`` and ``plan_tables_by_occurrence``, the merge
order and the box widening, division order and reach that the compiler of
``laurent._Plan`` built before it kept its regions in lists and read each
distinct factor once, and
``star_sum_ungrouped``, the star sum with one term per fine cone that
``ktheory._star_sum`` folded for every class before it summed one series
per coarse cone (``ktheory._pairing_series``), and
``pairing_quotient`` and ``quotient_lattice``, the second Smith forms that
``Fan.face_quotient`` (through ``face_quotient_oracle``) and the star
quotient the package no longer builds (``star_quotient_oracle``) took before
both read their quotients from ``fan.span_coordinates`` (``span_basis``
reads the span basis from it, inverting U as det * adj by
``unimodular_inverse``, where ``Fan.face_quotient`` reads it off V and D),
and ``augmentation``, the sum of coefficients that ``LaurentPoly`` kept as a
method with no caller in the package, and
``multiplicity_by_adjugate``, the determinant that ``Cone.multiplicity``
read before the Smith form's invariant factors, by Bareiss in the Smith
form's coordinates (these cone oracles read them, ``smith_local_generators``,
where a cone reads its own frame: those of N at full dimension, its cell's
for a resolve piece), and
``gkm_violations_pairwise`` and ``star_walls_scan``, the pairwise loop
that ``pexp.gkm_validate`` ran before its pass over the star table
replaced it and the scan over every wall that ``Fan.star_walls`` ran before its
per-cone wall table, and ``facets_by_generator_subsets``,
``extreme_generators_by_rank`` and ``box_points_scan``, the facet subset
loop, the per-generator rank test and the bounding-box scan that
``Cone.facets``, ``Cone._extreme_generators`` and ``fan._box_points`` ran
before the first two read their rays from ``fan.extreme_rays_of_region``
and the last enumerated the residue group, and ``pointed_by_rank``,
``faces_by_closure`` and ``smallest_face_by_adjugate``, the rank of the
facet normals, the closure loop over facet meets and the adjugate solve
that pointedness, the non-simplicial face lattice and a resolve step's face
took before all three read ``Cone._smallest_face`` or one fold over the
facet table, and ``lines`` and
``divide_exact``, the division by 1 - e^w on exponent tuples that
``laurent.divide_exact`` and ``reduce_localization`` ran before both packed
their exponents into ints (``reduce_localization_greedy`` divides with
them and imports only ``LaurentPoly`` and ``LocalizationSum`` from
``pexpfan.laurent``), and ``integer_det``, the Bareiss determinant that
``pexpfan.lattice`` kept with no caller in the package, and
``adjugate_by_elimination``, the Bareiss adjugate that ``lattice.adjugate``
ran for every size before it wrote out the 2x2 and 3x3 ones (with its own
copy of the elimination, which updated every row at every pivot), and
``smith_normal_form_reference``, the elimination with one closure per row
and column operation that ``lattice.smith_normal_form`` ran before it
inlined them, and ``box_points_listing``, every residue of the group with
its key, which ``fan._box_points`` listed before it kept only the least
slice, and ``least_box_points_listing``, that slice, which every ``resolve``
step took before ``fan._least_box_point`` read the two-dimensional ones from
the Hilbert basis, and ``resolve_all_cones`` with its
``least_box_point_all_cones``, the path of ``fan.resolve`` on which every
cell of a fan of rank >= 3 carried its ``Cone`` before cells of at most two
rays became chain records and simplicial cells integer records (its cell,
refinement, ``AllConeRefinement``, and fine map are copies of that path's
and take only public names from ``pexpfan.fan``), and ``stellar_all_cones``,
the one step of that refinement that ``fan.stellar_subdivision`` took before
its simplicial cells became records, and
``complete_by_point_search``,
the search for a generic point that ``Fan.is_complete`` ran before it took
one past the Cauchy bound, and ``basis_rows_by_subsets``, the search over
every k-subset of rows, one ``poly_det`` each, that ``ktheory.decompose``
ran before it bordered a nonzero minor: all are kept as the oracles for the path that
replaced them.  ``euler_characteristic`` is the raw-numerator fixed-point
sum that ``pexpfan.ktheory`` exported with no caller in the package; it sums
over every maximal cone with ``LocalizationSum``, without the star logic of
``ktheory._star_sum``.  ``total_excess_multiplicity`` and
``random_cartier_combination`` are test helpers that the package kept with
no caller of its own, ``random_complete_rank2_data`` draws the rank-2
fans of the fan and localization tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import atan2, gcd


def det_expansion(matrix) -> int:
    """Determinant by direct permutation expansion."""
    n = len(matrix)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        # parity via cycle count
        p = list(perm)
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = 1
        for i in range(n):
            prod *= matrix[i][perm[i]]
        total += sign * prod
    return total


def integer_det(a) -> int:
    """Signed determinant of a square integer matrix, by the package's Bareiss
    elimination ``lattice._eliminate``."""
    from pexpfan.lattice import _eliminate

    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    rank, sign, last = _eliminate([list(row) for row in a], n)
    return sign * last if rank == n else 0


def adjugate_by_elimination(a):
    """(det, adj) of a nonsingular square matrix over Z or Z[M], as
    ``lattice.adjugate`` computed it for every size before it wrote out the
    2x2 cofactors and the 3x3 cross products: one Bareiss elimination of
    [a | I], which leaves p * I on the left and p * a^-1 on the right.  The
    elimination is the package's before it skipped the rows a step leaves
    unchanged: every other row is updated at every pivot."""
    from pexpfan.errors import NotIndependent

    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    rank, sign, prev = 0, 1, 1
    for c in range(n):
        piv = next((i for i in range(rank, n) if m[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top = m[rank]
        p = top[c]
        for i, row in enumerate(m):
            if i != rank:
                f = row[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        rank += 1
    if rank < n:
        raise NotIndependent("adjugate of a singular matrix")
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in m)


def smith_diagonal_oracle(matrix) -> list[int]:
    """Invariant factors via determinantal divisors: d_k = g_k / g_{k-1}
    where g_k is the gcd of all k x k minors."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                minor = [[matrix[i][j] for j in cols] for i in rows]
                g = gcd(g, abs(det_expansion(minor)))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[i + 1] // divisors[i] for i in range(len(divisors) - 1)]


def smith_normal_form_reference(a):
    """``lattice.smith_normal_form`` as it ran with one closure per row and
    column operation: unimodular (U, V) and diagonal D with U*A*V = D.

    The diagonal entries are nonnegative and satisfy d_1 | d_2 | ... .  Pivot
    selection is the smallest nonzero absolute entry of the working submatrix,
    with ties broken by (row, column) order, so the output is reproducible.
    """
    from pexpfan.lattice import identity_matrix

    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [list(row) for row in identity_matrix(m)]
    v = [list(row) for row in identity_matrix(n)]

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        # col_i += c * col_j
        for row in d:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # deterministic pivot: smallest |entry| != 0, first by (row, col)
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])

        while True:
            # shrink entries in column t by remainders, then in row t
            moved = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        moved = True
            if moved:
                continue
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        moved = True
            if moved:
                continue
            # row and column are clear; enforce the divisibility chain
            p = d[t][t]
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % p != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(t, culprit, 1)
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    return (
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in d),
        tuple(tuple(row) for row in v),
    )


def solve_rational(matrix, rhs):
    """The solution of matrix @ x = rhs over the rationals, for a matrix with
    independent columns; None if there is none.  Gauss-Jordan on Fractions."""
    n = len(matrix[0])
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, len(a)) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(len(a)):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    if any(row[n] != 0 for row in a[n:]):
        return None
    return [a[i][n] for i in range(n)]


def facet_normals_full_dim(generators) -> dict[tuple[int, ...], tuple[int, ...]]:
    """{contact generator indices: primitive inward normal} for each facet of
    a full-dimensional cone in Z^n.  Any n-1 generators lie on the hyperplane
    x -> det[x; g_1; ...; g_{n-1}], whose normal is their vector of signed
    maximal minors; it bounds a facet when every generator lies on one side,
    and it points to that side."""
    gens = [tuple(g) for g in generators]
    n = len(gens[0])
    out = {}
    for subset in itertools.combinations(gens, n - 1):
        u = [(-1) ** k * det_expansion([[g[c] for c in range(n) if c != k] for g in subset])
             for k in range(n)]
        g = 0
        for x in u:
            g = gcd(g, x)
        if g == 0:
            continue  # dependent generators span no hyperplane
        u = [x // g for x in u]
        vals = [sum(a * b for a, b in zip(u, v)) for v in gens]
        if all(v <= 0 for v in vals):
            u, vals = [-x for x in u], [-v for v in vals]
        elif not all(v >= 0 for v in vals):
            continue
        out[tuple(i for i, v in enumerate(vals) if v == 0)] = tuple(u)
    return out


def cartier_polytope_points(fan, exponents) -> list[tuple[int, ...]]:
    """Lattice points of {m : <m, ray> >= <m_sigma, ray> for every ray of
    every cone}, enumerated over the bounding box of the local characters."""
    constraints = []
    for rayset, m_sigma in zip(fan.maximal_cones, exponents):
        for i in rayset:
            ray = fan.rays[i]
            bound = sum(a * b for a, b in zip(m_sigma, ray))
            constraints.append((ray, bound))
    lo = tuple(min(m[c] for m in exponents) for c in range(fan.rank))
    hi = tuple(max(m[c] for m in exponents) for c in range(fan.rank))
    points = []
    for pt in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if all(sum(x * y for x, y in zip(pt, ray)) >= bound for ray, bound in constraints):
            points.append(pt)
    return points


def fan_contains_point(fan, v) -> bool:
    """Whether some maximal cone of the fan contains the point v."""
    return any(c.contains(v) for c in fan.cone_objects)


def grid_covers_fan(fan, radius: int = 3) -> bool:
    """Sample integer points in a box and test membership in some maximal
    cone; a complete fan must contain every sample."""
    for pt in itertools.product(range(-radius, radius + 1), repeat=fan.rank):
        if not fan_contains_point(fan, pt):
            return False
    return True


def kernel_basis(a, n_cols: int) -> tuple[tuple[int, ...], ...]:
    """Saturated basis of {x : A x = 0} in Z^n_cols: the last columns of V
    in the Smith form U A V = D."""
    from pexpfan.lattice import identity_matrix, smith_normal_form, transpose

    if not a:
        return tuple(identity_matrix(n_cols))
    _, d, v = smith_normal_form(a)
    r = sum(1 for i in range(min(len(d), n_cols)) if d[i][i] != 0)
    cols = transpose(v)
    return tuple(cols[j] for j in range(r, n_cols))


def extreme_rays_smith(n: int, ineqs, eqs):
    """Primitive extreme rays of the pointed part of {x : A x >= 0, B x = 0},
    enumerating every (n-1)-row kernel by a Smith form (``kernel_basis``):
    the enumeration ``fan.extreme_rays_of_region`` performed before it took
    its kernels from ``line_kernel``."""
    from pexpfan.lattice import matrix_rank, pair

    ineqs = tuple(tuple(a) for a in ineqs)
    eqs = tuple(tuple(b) for b in eqs if any(b))
    k = n - matrix_rank(eqs) - 1
    if k < 0:
        return ()
    found = set()
    for subset in itertools.combinations(range(len(ineqs)), k):
        ker = kernel_basis(eqs + tuple(ineqs[i] for i in subset), n)
        if len(ker) != 1:
            continue
        v = ker[0]
        pos = all(pair(a, v) >= 0 for a in ineqs) and all(pair(b, v) == 0 for b in eqs)
        neg = all(pair(a, v) <= 0 for a in ineqs) and all(pair(b, v) == 0 for b in eqs)
        if pos and neg:
            continue
        if pos:
            found.add(v)
        elif neg:
            found.add(tuple(-x for x in v))
    return tuple(sorted(found))


def lines(f, w):
    """The terms c * e^(base + k*w) of f as (k, c), per line e + Z*w named by
    its point base = e - floor(e_i / w_i) * w, with i the first nonzero
    coordinate of the nonzero character w."""
    i = next(j for j, x in enumerate(w) if x)
    out = {}
    for exp, c in f.terms:
        k = exp[i] // w[i]
        base = tuple(a - k * b for a, b in zip(exp, w))
        out.setdefault(base, []).append((k, c))
    return out


def divide_exact(f, w, budget=None):
    """g with f = (1 - e^w) * g on exponent tuples: along each line e + Z*w
    the coefficients of g are the running sums of those of f, and every line
    of f must sum to zero (NotDivisible otherwise).  With a ``budget``, a g
    of more terms, counted from the runs of its lines, raises
    WorkBudgetExceeded before it is built."""
    from pexpfan.errors import NotDivisible, RankMismatch, WorkBudgetExceeded, ZeroCharacter
    from pexpfan.laurent import LaurentPoly

    w = tuple(w)
    if not any(w):
        raise ZeroCharacter("cannot divide by 1 - e^0 = 0")
    if len(w) != f.rank:
        raise RankMismatch(f"character of length {len(w)} in rank {f.rank}")
    by_line = lines(f, w)
    if any(sum(c for _, c in line) for line in by_line.values()):
        raise NotDivisible(f"remainder left when dividing by 1 - e^{w}")
    runs = []  # (base, k, k', running): g is the running sum from k up to k'
    for base, line in by_line.items():
        line.sort()
        running = 0
        for (k, c), (k_next, _) in zip(line, line[1:]):
            running += c
            if running:
                runs.append((base, k, k_next, running))
    size = sum(k_next - k for _, k, k_next, _ in runs)
    if budget is not None and size > budget:
        raise WorkBudgetExceeded(f"a quotient of {size} terms passes the budget of {budget}")
    acc = {}
    for base, k, k_next, running in runs:
        for j in range(k, k_next):
            acc[tuple(a + j * b for a, b in zip(base, w))] = running
    return LaurentPoly.from_dict(f.rank, acc)


def packed_divide_by_lines(f, ch):
    """The packed quotient g with f = (1 - e^w) * g, or None, as
    ``laurent._packed_divide`` computed it before its one ascending fill: the
    terms of the packed f as (k, c) lists, one per line e + Z*w named by
    P(e - k*w) with k = floor(field_i / w_i), each line summed, then sorted
    and filled with its running sums.  ``ch`` is ``_Packing.character(w)``,
    (W(w), s_i, field mask, w_i, extent); the extent is not read."""
    if sum(f.values()):
        return None
    w_packed, shift, mask, wi = ch[:4]
    by_line = {}
    for p, c in f.items():
        k = ((p >> shift) & mask) // wi
        by_line.setdefault(p - k * w_packed, []).append((k, c))
    if any(sum(c for _, c in line) for line in by_line.values()):
        return None
    quotient = {}
    for base, line in by_line.items():
        line.sort()
        running = 0
        for (k, c), (k_next, _) in zip(line, line[1:]):
            running += c
            if running:
                for j in range(k, k_next):
                    quotient[base + j * w_packed] = running
    return quotient


def reduce_localization_greedy(s, budget=None):
    """The localization fold that cancelled the whole denominator after every
    step, and nothing before the fold: ``laurent.reduce_localization`` as it
    was before it cancelled each term on its own and then only the primitive
    directions a new term shares with the accumulator.  With a ``budget`` it
    follows the package's fold with no walls: every term is cancelled on its
    own first, the greedy pick reads the cancelled denominators, and a
    quotient past the budget raises WorkBudgetExceeded (``divide_exact``).
    The divisions that succeed are then the fold's, in the same order."""
    from pexpfan.errors import NotDivisible, NotPolynomial
    from pexpfan.lattice import primitive_vector
    from pexpfan.laurent import LaurentPoly

    rank = s.rank
    normalized = []
    for num, denom in s.terms:
        multiset = {}
        for w in denom:
            if next(x for x in w if x) < 0:
                w = tuple(-x for x in w)
                num = num * LaurentPoly.exponential(w, -1)
            multiset[w] = multiset.get(w, 0) + 1
        if not num.is_zero():
            normalized.append((num, multiset))
    if not normalized:
        return LaurentPoly.zero(rank)

    def cancel(num, den):
        if num.is_zero():
            den.clear()
            return num
        for w in sorted(den, key=lambda w: (primitive_vector(w), w)):
            while den.get(w):
                try:
                    num = divide_exact(num, w, budget)
                except NotDivisible:
                    break
                den[w] -= 1
                if not den[w]:
                    del den[w]
        return num

    if budget is not None:
        normalized = [(cancel(num, den), den) for num, den in normalized]
    acc_num, acc_den = normalized[0]
    acc_num = cancel(acc_num, acc_den)
    pending = list(normalized[1:])
    while pending:
        overlap = [sum(min(m, acc_den.get(w, 0)) for w, m in den.items()) for _, den in pending]
        pick = max(range(len(pending)), key=lambda i: (overlap[i], -i))
        num, den = pending.pop(pick)
        lcm = dict(acc_den)
        for w, m in den.items():
            lcm[w] = max(lcm.get(w, 0), m)
        for w, m in lcm.items():
            factor = LaurentPoly.one(rank) - LaurentPoly.exponential(w)
            for _ in range(m - acc_den.get(w, 0)):
                acc_num = acc_num * factor
            for _ in range(m - den.get(w, 0)):
                num = num * factor
        acc_num = cancel(acc_num + num, lcm)
        acc_den = lcm

    if acc_den:
        raise NotPolynomial(
            f"localization sum is not polynomial: factor 1 - e^{sorted(acc_den)[0]} does not divide"
        )
    return acc_num


def merge_rounds_by_dicts(count: int, walls) -> tuple[list, list]:
    """The Borůvka merge order of ``laurent._merge_rounds`` as it was before
    it kept sizes and neighbours in lists and handed each merge's wall lists
    on: regions in dicts, each round sorted by (size, id), each pick a
    ``max`` over the neighbours not yet merged, and a new list of walls for
    every pair of regions a merge joins.  (steps, rest) as there."""
    from operator import itemgetter

    size = dict.fromkeys(range(count), 1)
    adjacent: dict[int, dict[int, list]] = {r: {} for r in size}
    for a, b, *direction in walls:
        adjacent[a][b] = adjacent[b][a] = adjacent[a].get(b, []) + (direction or [None])
    steps, merged = [], True
    while merged:
        merged = set()
        for r, _ in sorted(size.items(), key=itemgetter(1, 0)):
            options = [] if r in merged else [n for n in adjacent[r] if n not in merged]
            if not options:
                continue
            n = max(options, key=lambda n: (len(adjacent[r][n]), -size[n], -n))
            keep, gone = min(r, n), max(r, n)
            steps.append((keep, gone, adjacent[keep][gone]))
            size[keep] += size.pop(gone)
            for x, joined in adjacent.pop(gone).items():
                del adjacent[x][gone]
                if x != keep:
                    adjacent[keep][x] = adjacent[x][keep] = adjacent[x].get(keep, []) + joined
            merged |= {r, n}
    return steps, sorted(size, key=lambda r: (-size[r], r))


def plan_tables_by_occurrence(rank: int, terms):
    """(widening, order, top, reach) of a ``laurent._Plan`` on ``terms``, its
    (cofactor, denominator) pairs, as the compiler built them before it
    read each distinct factor once: the widening summed factor by factor,
    two rank-length tuples rebuilt for every factor of every term, and the
    division order, the largest |w_i| and the reach entered at a factor's
    first occurrence."""
    from operator import add, neg

    from pexpfan.lattice import primitive_vector

    zero = (0,) * rank
    lo, hi, order, top, reach = zero, zero, {}, {}, 0
    for _, denom in terms:
        for w in denom:
            if w < zero:
                w = tuple(map(neg, w))
            lo, hi = tuple(map(add, lo, map(min, w, zero))), tuple(map(add, hi, map(max, w, zero)))
            if w not in order:
                order[w] = primitive_vector(w), w
                top[w] = max(map(abs, w))
                reach = max(reach, top[w])
    return (lo, hi), order, top, reach


def star_sum_ungrouped(resolution, f, rayset):
    """<f, [O_{V(tau)}]> for the face tau on ``rayset`` of the coarse fan, as
    ``ktheory._star_sum`` summed it before it grouped the star by coarse
    cone: one term per fine cone of the star of the strict transform, f's
    value at the cone's coarse cone over the cone's weights of the rays
    outside the face, here folded by ``reduce_localization_greedy``."""
    from pexpfan.fan import Cone
    from pexpfan.ktheory import _strict_transform_face, tangent_weights
    from pexpfan.laurent import LocalizationSum

    fine, coarse = resolution.fine, resolution.coarse
    face = rayset and _strict_transform_face(
        fine, Cone.from_generators(coarse.rank, [coarse.rays[i] for i in rayset]))
    terms = []
    for i in fine._star[face]:
        weights = tangent_weights(fine.cone_objects[i])
        terms.append((f.values[resolution.assignment[i]],
                      [w for ray, w in zip(fine._generator_rays[i], weights) if ray not in face]))
    return reduce_localization_greedy(LocalizationSum.build(fine.rank, terms))


def pairing_quotient(rank: int, span_basis):
    """(projection, section) of the quotient of M whose coordinates are the
    pairings with a saturated basis of a sublattice of N: one Smith form
    U P V = [I | 0] of the projection P gives the section V[:, :d] @ U."""
    from pexpfan.lattice import mat_mul, smith_normal_form

    d = len(span_basis)
    if d == 0:
        return (), tuple(() for _ in range(rank))
    projection = tuple(tuple(b) for b in span_basis)
    u, diag, v = smith_normal_form(projection)
    if d > rank or any(diag[i][i] != 1 for i in range(d)):
        raise ValueError("span basis is dependent or spans a non-saturated sublattice")
    return projection, mat_mul(tuple(row[:d] for row in v), u)


def quotient_lattice(rank: int, kernel):
    """(projection, section) of M / span(kernel) for independent vectors
    spanning a saturated sublattice: the last rows of U and the last columns
    of U^-1 in the Smith form U K V = D of the kernel vectors as columns."""
    from pexpfan.lattice import identity_matrix, smith_normal_form, transpose

    kernel = tuple(tuple(v) for v in kernel)
    k = len(kernel)
    if k == 0:
        return identity_matrix(rank), identity_matrix(rank)
    u, d, _ = smith_normal_form(transpose(kernel))
    if any(d[i][i] != 1 for i in range(k)):
        raise ValueError("kernel is dependent or spans a non-saturated sublattice")
    return tuple(u[k:]), tuple(row[k:] for row in unimodular_inverse(u))


def unimodular_inverse(u):
    """The inverse of an integer matrix of determinant +-1, det * adj by the
    package's ``adjugate``, as the package computed it before
    ``Fan.face_quotient`` read the span basis off the Smith form's V and D."""
    from pexpfan.lattice import adjugate

    det, adj = adjugate(u)
    if abs(det) != 1:
        raise ValueError("matrix is not invertible over the integers")
    return tuple(tuple(det * x for x in row) for row in adj)


def smith_local_generators(cone):
    """(projection, local generators) of a cone in the coordinates of its
    Smith form (``fan.span_coordinates``), whatever coordinates the cone
    itself reads: a full-dimensional simplicial cone reads those of N."""
    from pexpfan.fan import span_coordinates
    from pexpfan.lattice import mat_vec

    projection = span_coordinates(cone.rank, cone.generators)[1]
    return projection, tuple(mat_vec(projection, g) for g in cone.generators)


def span_basis(rank: int, vectors):
    """The saturated span basis of the vectors: the first d columns of U^-1,
    by ``unimodular_inverse``, for the U that ``fan.span_coordinates`` takes
    from its Smith form."""
    from pexpfan.fan import span_coordinates
    from pexpfan.lattice import transpose

    factors, projection, annihilator, _ = span_coordinates(rank, vectors)
    return transpose(unimodular_inverse(projection + annihilator))[:len(factors)]


def face_quotient_oracle(fan, rs):
    """(projection, section) of ``fan.face_quotient(rs)`` by the branches it
    took before: the identity on a full-dimensional face, ``pairing_quotient``
    of the primitive generator on a ray, and of the span basis otherwise."""
    from pexpfan.lattice import identity_matrix, matrix_rank, primitive_vector

    gens = tuple(fan.rays[i] for i in rs)
    d = matrix_rank(gens)
    if d == fan.rank:
        return identity_matrix(fan.rank), identity_matrix(fan.rank)
    if d == 1:
        return pairing_quotient(fan.rank, (primitive_vector(gens[0]),))
    return pairing_quotient(fan.rank, span_basis(fan.rank, gens))


def star_quotient_oracle(fan, rs):
    """(quotient fan, lifting, (projection, section)) of the star of the face
    ``rs`` projected to N/N_tau, with the quotient from ``quotient_lattice``
    of the span basis of the face: the fan of the orbit closure V(tau), whose
    maximal cone i is the image of the cone ``lifting[i]`` of ``fan``."""
    from pexpfan.fan import Cone, Fan
    from pexpfan.lattice import mat_vec

    n_tau = span_basis(fan.rank, [fan.rays[i] for i in rs])
    projection, section = quotient_lattice(fan.rank, n_tau)
    if not n_tau:
        return fan, tuple(range(len(fan.maximal_cones))), (projection, section)
    star = tuple(i for i, c in enumerate(fan.maximal_cones) if set(rs) <= set(c))
    images = [Cone.from_generators(len(projection), [mat_vec(projection, g) for g in
                                                     fan.cone_objects[i].generators]).generators
              for i in star]
    rays = list(dict.fromkeys(g for gens in images for g in gens))  # first appearance
    cones = [tuple(sorted(rays.index(g) for g in gens)) for gens in images]
    return Fan.build(len(projection), rays, cones), star, (projection, section)


def facets_by_generator_subsets(cone):
    """``cone.facets`` by the loop over every d - 1 local generators, in the
    coordinates of the Smith form: their ``line_kernel`` bounds a facet when
    every generator lies on one side."""
    from pexpfan.lattice import line_kernel, mat_vec, pair, transpose

    projection, g = smith_local_generators(cone)
    d = len(projection)
    if d == 0:
        return ()
    found = {}
    for subset in itertools.combinations(g, d - 1):
        u = line_kernel(subset, d)
        if u is None:
            continue
        vals = [pair(u, x) for x in g]
        if all(v <= 0 for v in vals):
            u, vals = tuple(-x for x in u), [-v for v in vals]
        if all(v >= 0 for v in vals) and any(vals):
            found[tuple(i for i, v in enumerate(vals) if v == 0)] = u
    proj_t = transpose(projection)
    return tuple((mat_vec(proj_t, u), contact) for contact, u in sorted(found.items()))


def extreme_generators_by_rank(cone):
    """The extreme generators of a pointed cone, as ``Cone.from_generators``
    keeps them: the generators whose facet normals have rank d - 1."""
    from pexpfan.lattice import matrix_rank

    return tuple(sorted(
        g for i, g in enumerate(cone.generators)
        if matrix_rank(tuple(u for u, contact in cone.facets if i in contact)) == cone.dim - 1
    ))


def pointed_by_rank(cone) -> bool:
    """Whether the cone contains no line: its facet normals generate the dual
    cone, which is full-dimensional in the span exactly then (Fulton, 1.2)."""
    from pexpfan.lattice import matrix_rank

    return matrix_rank(tuple(u for u, _ in cone.facets)) == cone.dim


def faces_by_closure(cone):
    """``cone.faces_as_generator_subsets()`` of a non-simplicial cone by
    closing the facet contacts under meets until nothing new appears."""
    n = len(cone.generators)
    faces = {tuple(range(n))}
    frontier = {contact for _, contact in cone.facets}
    faces |= frontier
    while True:
        new = set()
        for a in faces:
            for b in frontier:
                c = tuple(sorted(set(a) & set(b)))
                if c not in faces:
                    new.add(c)
        if not new:
            break
        faces |= new
    faces.add(())
    return tuple(sorted(faces))


def smallest_face_by_adjugate(cone, v):
    """The generator indices of the smallest face of a simplicial cone holding
    v, or None when it does not hold v: the generators with nonzero
    coefficients adj @ x / det at the local coordinates x of v in the Smith
    form, by ``adjugate_by_elimination``, when v is in the span and no
    coefficient is negative."""
    from pexpfan.fan import span_coordinates
    from pexpfan.lattice import mat_vec, pair, transpose

    _, projection, annihilator, _ = span_coordinates(cone.rank, cone.generators)
    det, adj = adjugate_by_elimination(transpose([mat_vec(projection, g) for g in cone.generators]))
    coeffs = mat_vec(adj, mat_vec(projection, v))
    if any(pair(a, v) for a in annihilator) or any(det * c < 0 for c in coeffs):
        return None
    return tuple(i for i, c in enumerate(coeffs) if c)


def box_points_scan(cone):
    """``box_points_listing(cone)`` by scanning the bounding box of the local
    parallelepiped, in the coordinates of the Smith form, for the points
    with 0 <= sign(det) * (adj @ x)_i < mult."""
    from pexpfan.lattice import mat_vec, transpose

    d, g, basis = cone.dim, smith_local_generators(cone)[1], span_basis(cone.rank, cone.generators)
    det, adj = adjugate_by_elimination(transpose(g))
    sign, mult = (1 if det > 0 else -1), abs(det)
    lo = [sum(min(0, g[i][c]) for i in range(d)) for c in range(d)]
    hi = [sum(max(0, g[i][c]) for i in range(d)) for c in range(d)]
    out = []
    for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        lam = [sign * c for c in mat_vec(adj, x)]
        if any(x) and all(0 <= v < mult for v in lam):
            out.append((sum(lam), tuple(sum(x[i] * basis[i][c] for i in range(d))
                                        for c in range(cone.rank))))
    return sorted(out)


def box_scan_size(cone) -> int:
    """The number of points ``box_points_scan`` visits."""
    g = smith_local_generators(cone)[1]
    size = 1
    for c in range(cone.dim):
        size *= sum(abs(x[c]) for x in g) + 1
    return size


def box_points_listing(cone):
    """The nonzero lattice points of the half-open fundamental parallelepiped
    of a simplicial cone, as (multiplicity * coefficient sum, ambient point),
    sorted: the whole listing ``fan._box_points`` returned before it kept
    only the points of least key.  With the columns w_i = (mult // d_i) V[:, i]
    of mult * G^-1 in the coordinates of the cone's Smith form, the residues
    sum k_i w_i mod mult, 0 <= k_i < d_i, run over the group once; each is
    keyed by its coordinate sum and mapped to sum r_i g_i / mult."""
    from pexpfan.lattice import mat_vec, transpose, vec_scale

    d, mult = cone.dim, cone.multiplicity()
    factors, _, _, v = cone._span
    residues = [(0,) * d]
    for f, w in zip(factors, transpose(v)):
        if f > 1:
            w = vec_scale(mult // f, w)
            residues = [tuple((a + k * b) % mult for a, b in zip(h, w))
                        for k in range(f) for h in residues]
    g = transpose(cone.generators)
    return sorted((sum(r), tuple(x // mult for x in mat_vec(g, r))) for r in residues if any(r))


def least_box_points_listing(cone):
    """The least key of ``box_points_listing`` on a singular simplicial cone
    and its points, in ascending order: what ``fan._least_box_point`` draws
    from, for every dimension, by listing the parallelepiped."""
    box = box_points_listing(cone)
    return box[0][0], [p for s, p in box if s == box[0][0]]


def least_box_point_all_cones(cell, draw):
    """The ``least`` of ``resolve_all_cones``: what ``fan._least_box_point``
    drew on a cell with its ``Cone`` before chain records, the
    Hirzebruch-Jung walk (``chains.least_chain_points``) of the local
    generators of a 2-dimensional cone, its points (a g1 + k g2) / mult
    mapped through the generators here, and the least slice of the listed
    parallelepiped of a larger one (``least_box_points_listing``, the points
    ``fan._box_points`` maps)."""
    from pexpfan.chains import least_chain_points

    cone, mult = cell[5], cell[3]
    if cone.dim == 2:
        _, (a, k), (da, dk), count = least_chain_points(*cone.local_generators, mult)
        if count < 1:
            return None
        i = draw(count)
        a, k = a + i * da, k + i * dk
        return tuple((a * x + k * y) // mult for x, y in zip(*cone.generators))
    points = least_box_points_listing(cone)[1]
    return points[draw(len(points))]


def _all_cone_cell(rs, cone, ray_index, source):
    """A cell of ``resolve_all_cones``: [ray set, generators, generator rays,
    multiplicity (0 if not simplicial), source, cone, next]."""
    mult = cone.multiplicity() if cone.is_simplicial else 0
    return [rs, cone.generators, tuple(map(ray_index.__getitem__, cone.generators)), mult, source, cone, None]


def _framed_cone(rank, generators, frame):
    """The cone on ``generators`` in the coordinate frame ``frame`` of the
    cell it is a piece of."""
    from pexpfan.fan import Cone

    cone = Cone(rank, generators)
    cone.__dict__["_coordinates"] = frame
    return cone


class AllConeRefinement:
    """The refinement of ``resolve_all_cones``: cells with their ``Cone``
    under stellar steps, changed in place, as ``fan._Refinement`` kept every
    cell before simplicial cells of dim >= 3 became integer records.
    ``incidence`` maps each ray index to the cells whose ray sets contain it,
    keyed by ``id``; a step's pieces are the joins of its ray with the
    facets of each holding cone that miss it, each a ``Cone`` in its cell's
    frame."""

    def __init__(self, rank, ray_index, cells):
        self.rank, self.ray_index, self.incidence = rank, ray_index, {}
        self.enter(cells)

    def enter(self, cells):
        for cell in cells:
            for r in cell[0]:
                self.incidence.setdefault(r, {})[id(cell)] = cell

    def star(self, face):
        """The cells whose ray sets contain ``face``."""
        fewest, *rest = sorted(map(self.incidence.__getitem__, face), key=len)
        return [cell for key, cell in fewest.items() if all(key in cells for cells in rest)]

    def pull(self, rng):
        """Simplicialize the cells by pulling rays, the least or a random one
        first; returns whether any was not."""
        from pexpfan.errors import ResolutionCheckFailed

        rays = tuple(self.ray_index)
        nonsimplicial = {key: cell for cells in self.incidence.values()
                         for key, cell in cells.items() if not cell[3]}
        pulled, guard = bool(nonsimplicial), 0
        while nonsimplicial:
            guard += 1
            if guard > len(rays):
                raise ResolutionCheckFailed("simplicialization did not terminate")
            candidates = sorted({rays[i] for cell in nonsimplicial.values() for i in cell[0]})
            ray = rng.choice(candidates) if rng else candidates[0]
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

    def split(self, cell, ray):
        """``step`` at a point of the cell's cone, on the star of the
        smallest face of the cone holding it."""
        from pexpfan.errors import ResolutionCheckFailed

        face = cell[5]._smallest_face(ray)
        if face is None:
            raise ResolutionCheckFailed(f"{ray} does not lie in the cone it subdivides")
        return self.step(ray, self.star(tuple(sorted(cell[2][i] for i in face))))

    def step(self, ray, holding):
        """Replace each holding cell by its pieces in its place, the first
        taking the cell over; (multiplicity, pieces) per replaced cell, or
        None when no cell changes."""
        from pexpfan.errors import ResolutionCheckFailed
        from pexpfan.chains import linked
        from pexpfan.lattice import pair

        new_idx = self.ray_index.get(ray, len(self.ray_index))
        seen, pieces = set(), []
        for cell in holding:
            out = []
            for normal, contact in cell[5].facets:
                if pair(normal, ray) == 0:
                    continue
                piece = tuple(sorted({cell[2][t] for t in contact} | {new_idx}))
                if piece in seen:
                    raise ResolutionCheckFailed(f"ambiguous subdivision piece {piece}")
                seen.add(piece)
                out.append((piece, contact))
            pieces.append(out)
        if new_idx < len(self.ray_index) and all(
                len(out) == 1 and out[0][0] == cell[0] for cell, out in zip(holding, pieces)):
            return None
        self.ray_index[ray] = new_idx
        changes = []
        for cell, out in zip(holding, pieces):
            for r in cell[0]:
                del self.incidence[r][id(cell)]
            cells = []
            for piece, contact in out:
                gens = tuple(sorted([ray, *(cell[1][t] for t in contact)]))
                cone = _framed_cone(self.rank, gens, cell[5]._coordinates)
                cells.append(_all_cone_cell(piece, cone, self.ray_index, cell[4]))
            linked(cells, cell[6])
            changes.append((cell[3], cells))
            cell[:], cells[0] = cells[0], cell
            self.enter(cells)
        return changes


def _all_cone_fine_map(coarse, rays, first):
    """The map to ``coarse`` from the fan on ``rays`` whose maximal cones are
    the cells from ``first`` on, refusing what an input that is no fan can
    break, as ``fan._fine_map`` did."""
    from pexpfan.chains import fan_order
    from pexpfan.errors import NotAFan, ResolutionCheckFailed
    from pexpfan.fan import Fan, SubdivisionMap
    from pexpfan.lattice import is_primitive

    rank, rays = coarse.rank, tuple(rays)
    for r in rays[len(coarse.rays):]:
        if len(r) != rank or not is_primitive(r):
            raise ResolutionCheckFailed(f"the refinement's ray {r} is not a primitive vector of rank {rank}")
    cells = fan_order(first)
    raysets = tuple(cell[0] for cell in cells)
    if len(set(raysets)) != len(raysets):
        raise NotAFan("duplicate maximal cones")
    if len({i for rs in raysets for i in rs}) != len(rays):
        raise NotAFan("every ray must appear in some maximal cone")
    return SubdivisionMap(Fan(rank, rays, raysets), coarse, tuple(cell[4] for cell in cells))


def resolve_all_cones(fan, rng=None, extra_rounds=0, least=None):
    """``fan.resolve`` as it ran before chain records and integer records,
    in rank >= 3 and on a fan of a cone of three or more rays: every maximal
    cone a cell with its ``Cone`` on one ``AllConeRefinement``,
    simplicialized and then split in ``chains.subdivide`` at the points
    ``least`` draws (``least_box_point_all_cones`` by default).  It takes
    from ``pexpfan.fan`` only public names."""
    from pexpfan.chains import linked, subdivide
    from pexpfan.fan import SubdivisionMap

    index = {r: i for i, r in enumerate(fan.rays)}
    cells = linked([_all_cone_cell(rs, cone, index, source)
                    for source, (rs, cone) in enumerate(zip(fan.maximal_cones, fan.cone_objects))])
    ref = AllConeRefinement(fan.rank, index, cells)
    pulled = ref.pull(rng)
    stepped = subdivide(cells[0], least or least_box_point_all_cones, ref.split, rng, extra_rounds)
    return _all_cone_fine_map(fan, index, cells[0]) if stepped or pulled else SubdivisionMap.identity(fan)


def stellar_all_cones(fan, ray):
    """``fan.stellar_subdivision`` at a primitive ray as it ran before its
    simplicial cells were records: one ``AllConeRefinement.step`` on every
    maximal cone as a cell with its ``Cone``, the cones holding the ray
    found by a ``Cone.contains`` scan."""
    from pexpfan.chains import linked
    from pexpfan.errors import RayOutsideSupport
    from pexpfan.fan import SubdivisionMap

    ray = tuple(ray)
    index = {r: i for i, r in enumerate(fan.rays)}
    cells = linked([_all_cone_cell(rs, cone, index, source)
                    for source, (rs, cone) in enumerate(zip(fan.maximal_cones, fan.cone_objects))])
    holding = [cell for cell in cells if cell[5].contains(ray)]
    if not holding:
        raise RayOutsideSupport(f"{ray} lies outside the support of the fan")
    changed = AllConeRefinement(fan.rank, index, cells).step(ray, holding)
    return _all_cone_fine_map(fan, index, cells[0]) if changed else SubdivisionMap.identity(fan)


def multiplicity_by_adjugate(cone) -> int:
    """``cone.multiplicity()`` as it was read before the Smith form's
    invariant factors: |det| of the local generators in the coordinates of
    the Smith form, from their ``adjugate_by_elimination``."""
    from pexpfan.lattice import transpose

    return abs(adjugate_by_elimination(transpose(smith_local_generators(cone)[1]))[0])


def basis_rows_by_subsets(rows, k: int, rank: int):
    """(indices, det) of the first k-subset of rows, in the order of
    ``itertools.combinations``, whose square system over Z[M] has a nonzero
    ``ktheory.poly_det``, or None when no subset has one."""
    from pexpfan.ktheory import poly_det

    for chosen in itertools.combinations(range(len(rows)), k):
        det = poly_det([rows[i] for i in chosen], rank)
        if not det.is_zero():
            return chosen, det
    return None


def gkm_violations_pairwise(fan, values):
    """The violations by the pairwise loop that ``pexp.gkm_validate`` ran
    before its one pass over the star table replaced it, as it ran before
    it kept its restrictions: both cones of every pair of maximal cones
    restricted to their common face afresh, quadratic in the cones."""
    from pexpfan.pexp import GkmViolation, _restriction, coerce_values

    vals = coerce_values(fan, values)
    violations = []
    n = len(fan.maximal_cones)
    for i in range(n):
        for j in range(i + 1, n):
            shared = tuple(sorted(set(fan.maximal_cones[i]) & set(fan.maximal_cones[j])))
            ri = _restriction(fan, vals, i, shared)
            rj = _restriction(fan, vals, j, shared)
            if ri != rj:
                violations.append(GkmViolation(i, j, shared, ri, rj))
    return tuple(violations)


def star_walls_scan(fan, face):
    """``fan.star_walls(face)`` by the scan it ran before the per-cone wall
    table: every wall of the fan, kept when both its cones hold the face, as
    their positions in the star and the first cone's normal on it."""
    where = {c: p for p, c in enumerate(fan._star[face])}
    return tuple((where[a], where[b], u) for (a, u), (b, _) in
                 (cones for cones in fan.walls.values() if len(cones) == 2) if a in where and b in where)


def total_excess_multiplicity(fan) -> int:
    """Sum over maximal cones of (multiplicity - 1); zero iff smooth."""
    return sum(c.multiplicity() - 1 for c in fan.cone_objects)


def random_cartier_combination(fan, cartier_classes, rng, *, max_terms=3, coeff_bound=3,
                               exp_bound=2):
    """A random R(T)-combination of line-bundle classes, for property tests."""
    from pexpfan.laurent import LaurentPoly
    from pexpfan.pexp import PiecewiseExponential

    out = PiecewiseExponential.constant(fan, 0)
    for _ in range(rng.randint(1, max_terms)):
        cls = rng.choice(list(cartier_classes))
        coeff = rng.randint(-coeff_bound, coeff_bound)
        exp = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(fan.rank))
        out = out + cls.module_action(LaurentPoly.exponential(exp, coeff))
    return out


def random_complete_rank2_data(rng):
    """(2, rays, cones) of the cones between angularly consecutive random
    rays, in shuffled order: a complete fan when no gap reaches pi."""
    rays = sorted({(v[0] // gcd(*v), v[1] // gcd(*v)) for v in (
        (rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(3, 9))) if any(v)},
        key=lambda v: atan2(v[1], v[0]))
    order = rng.sample(range(len(rays)), len(rays))
    cones = [(order[i], order[(i + 1) % len(rays)]) for i in range(len(rays))]
    return 2, [rays[order.index(i)] for i in range(len(rays))], rng.sample(cones, len(cones))


def complete_by_point_search(fan) -> bool:
    """``Fan.is_complete`` as it found its generic point: it tried k = 1, 2, ...
    until (1, k, ..., k^(n-1)) paired nonzero with every wall normal."""
    from pexpfan.lattice import pair

    if fan.rank == 0:
        return fan.maximal_cones == ((),)
    if any(c.dim != fan.rank for c in fan.cone_objects):
        return False
    for entries in fan.walls.values():
        if len(entries) != 2:
            return False
        (_, ni), (_, nj) = entries
        if ni != tuple(-x for x in nj):
            return False
    normals = {u for entries in fan.walls.values() for _, u in entries}
    for k in itertools.count(1):
        point = tuple(k ** e for e in range(fan.rank))
        if all(pair(u, point) for u in normals):
            break
    return sum(all(pair(u, point) > 0 for u, _ in c.facets) for c in fan.cone_objects) == 1


def euler_characteristic(fan, numerators):
    """The fixed-point sum of a smooth complete fan, reduced to Z[M]: one
    numerator per maximal cone, over the tangent weights of that cone."""
    from pexpfan.errors import NotComplete, NotSmooth
    from pexpfan.ktheory import tangent_weights
    from pexpfan.laurent import LocalizationSum

    if not fan.is_complete():
        raise NotComplete("localization needs a complete fan")
    if not fan.is_smooth():
        raise NotSmooth("localization needs a smooth fan")
    numerators = tuple(numerators)
    if len(numerators) != len(fan.maximal_cones):
        raise ValueError("one numerator per maximal cone is required")
    return LocalizationSum.build(fan.rank, [
        (n, tangent_weights(c)) for n, c in zip(numerators, fan.cone_objects)]).reduce()


def augmentation(f) -> int:
    """The sum of the coefficients of a Laurent polynomial: the ring map e^u -> 1."""
    return sum(c for _, c in f.terms)
