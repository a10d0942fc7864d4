"""The representation ring Z[M] as integer exponential sums.

A ``LaurentPoly`` stores a finite map from exponent vectors u in M to nonzero
integer coefficients, i.e. an element a_1 e^{u_1} + ... + a_r e^{u_r}.  Terms
are kept in lexicographic exponent order, so equality, hashing, and
serialization are canonical.  ``LocalizationSum`` holds intermediate sums
n / prod(1 - e^w) produced by fixed-point localization, and ``reduce`` clears
the denominators exactly.  Dividing by a factor (1 - e^w) works line by line:
the quotient's coefficients are running sums along the lines e + Z*w.  A
dividend whose coefficients, or whose moment sum c*e, rule the factor out is
refused at once; otherwise one pass, ascending along w, sets
g(e) = f(e) + g(e - w) and fills each run up to f's next exponent on its
line, and refuses f where a run meets none within the box.  A quotient of
more than ``TERM_BUDGET`` terms is refused (WorkBudgetExceeded) before it is
built, once the lines of its dividend are known to sum to zero.

Division and localization run on packed exponents, the packed exponent
vectors of Monagan and Pearce (CASC 2007): each call packs every exponent
of a box into one int, so a shift by a character is one int addition and a
line e + Z*w is named by one int, and unpacks once at the end.  The field
width is chosen per call from a bound proved in ``_Packing`` that covers
the line names as well as the exponents, and every unpacked coordinate is
checked against the box.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, and_, lshift, mul, neg, rshift, sub

from .errors import NotDivisible, NotPolynomial, RankMismatch, ResultCheckFailed, WorkBudgetExceeded, ZeroCharacter
from .lattice import IntMatrix, Vector, mat_vec, primitive_vector, strict_int, strict_list, value_class

Term = tuple[Vector, int]
TERM_BUDGET = 2 ** 23  # the most terms one quotient may have


@value_class
class LaurentPoly:
    """An element of Z[M]: exponents against a fixed ambient basis."""

    rank: int
    terms: tuple[Term, ...]  # lex-sorted by exponent, all coefficients nonzero

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_dict(rank: int, coeffs: dict[Vector, int]) -> "LaurentPoly":
        items = []
        for exp, c in coeffs.items():
            if len(exp) != rank:
                raise RankMismatch(f"exponent {exp} in a rank-{rank} ring")
            if c != 0:
                items.append((tuple(exp), c))
        items.sort(key=lambda t: t[0])
        return LaurentPoly(rank, tuple(items))

    @staticmethod
    def zero(rank: int) -> "LaurentPoly":
        return LaurentPoly(rank, ())

    @staticmethod
    def constant(rank: int, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly.zero(rank)
        return LaurentPoly(rank, (((0,) * rank, c),))

    @staticmethod
    def exponential(u: Vector, coeff: int = 1) -> "LaurentPoly":
        """The single term coeff * e^u."""
        if coeff == 0:
            return LaurentPoly.zero(len(u))
        return LaurentPoly(len(u), ((tuple(u), coeff),))

    @staticmethod
    def one(rank: int) -> "LaurentPoly":
        return LaurentPoly.constant(rank, 1)

    # -- ring structure ---------------------------------------------------

    def _check_rank(self, other: "LaurentPoly"):
        if self.rank != other.rank:
            raise RankMismatch(f"ranks {self.rank} and {other.rank}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_rank(other)
        acc = dict(self.terms)
        for exp, c in other.terms:
            acc[exp] = acc.get(exp, 0) + c
        return LaurentPoly.from_dict(self.rank, acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_rank(other)
        acc = dict(self.terms)
        for exp, c in other.terms:
            acc[exp] = acc.get(exp, 0) - c
        return LaurentPoly.from_dict(self.rank, acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.rank, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.rank)
            return LaurentPoly(self.rank, tuple((e, c * other) for e, c in self.terms))
        self._check_rank(other)
        acc: dict[Vector, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, 0) + c1 * c2
        return LaurentPoly.from_dict(self.rank, acc)

    def __rmul__(self, other: int) -> "LaurentPoly":
        return self.__mul__(other)

    def __floordiv__(self, other) -> "LaurentPoly":
        """Exact quotient in Z[M] (an int divisor is a constant); raises
        NotDivisible when the division leaves a remainder."""
        if isinstance(other, int):
            other = LaurentPoly.constant(self.rank, other)
        q = try_div(self, other)
        if q is None:
            raise NotDivisible("polynomial division left a remainder")
        return q

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        """True iff the element is +-e^u."""
        return len(self.terms) == 1 and abs(self.terms[0][1]) == 1

    def map_exponents(self, phi: IntMatrix) -> "LaurentPoly":
        """Push every exponent through the integer matrix phi and merge; the
        image has one coordinate per row of phi."""
        if self.terms and phi and len(phi[0]) != self.rank:
            raise RankMismatch(f"matrix domain {len(phi[0])} vs ring rank {self.rank}")
        acc: dict[Vector, int] = {}
        for exp, c in self.terms:
            key = mat_vec(phi, exp)
            acc[key] = acc.get(key, 0) + c
        return LaurentPoly.from_dict(len(phi), acc)

    def exponent_box(self) -> tuple[Vector, Vector]:
        """Componentwise (min, max) of the exponents of a nonzero polynomial:
        a monomial's exponent twice."""
        if len(self.terms) == 1:
            e = self.terms[0][0]
            return e, e
        columns = list(zip(*[e for e, _ in self.terms]))
        return tuple(map(min, columns)), tuple(map(max, columns))

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(f: LaurentPoly) -> str:
    """Render as ``a*e^[c1,c2,...]`` terms joined by '+', in lex order."""
    if not f.terms:
        return "0"
    parts = []
    for exp, c in f.terms:
        body = "e^[" + ",".join(str(x) for x in exp) + "]"
        parts.append(f"{c}*{body}")
    return " + ".join(parts)


def poly_to_json(f: LaurentPoly) -> dict:
    return {
        "rank": f.rank,
        "terms": [{"coeff": c, "exp": list(e)} for e, c in f.terms],
    }


def poly_from_json(obj: dict) -> LaurentPoly:
    if not isinstance(obj, dict) or "rank" not in obj or "terms" not in obj:
        raise ValueError("LaurentPoly JSON needs 'rank' and 'terms'")
    rank = strict_int(obj["rank"], "rank")
    if rank < 0:
        raise ValueError("rank must be a nonnegative integer")
    acc: dict[Vector, int] = {}
    for item in strict_list(obj["terms"], "terms"):
        if not isinstance(item, dict) or not {"coeff", "exp"} <= set(item):
            raise ValueError(f"a term needs 'coeff' and 'exp', got {item!r}")
        exp = tuple(strict_int(x, "exponent coordinate") for x in strict_list(item["exp"], "exponent"))
        c = strict_int(item["coeff"], "coefficient")
        if c == 0:
            raise ValueError(f"zero coefficient at exponent {exp}")
        if len(exp) != rank:
            raise ValueError(f"bad exponent {exp} for rank {rank}")
        if exp in acc:
            raise ValueError(f"duplicate exponent {exp}")
        acc[exp] = c
    return LaurentPoly.from_dict(rank, acc)


# -- packed exponents ------------------------------------------------------------


class _Packing:
    """Exponents in a box lo <= e <= hi packed into ints, for one call.

    A point packs to P(e) = sum_i (e_i - lo_i) * 2^{s_i}, with fields of
    ``bits`` bits, s_i = (rank - 1 - i) * bits, and a character to the signed
    int W(w) = sum_i w_i * 2^{s_i}; P is affine, so P(e + w) = P(e) + W(w).
    With span the largest hi_i - lo_i and reach the largest |w_j| of the
    characters used, bits = bitlen(span * (1 + reach) + reach).

    1. Points of the box pack exactly, in order: each field e_i - lo_i lies
       in [0, span], inside [0, 2^bits), the top one too, so P is injective,
       numeric order is lex order, and ``unpack`` reads every coordinate
       back by shift and mask.
    2. Line names are injective.  With w_i the first nonzero coordinate of
       w, the line e + Z*w of a point e of the box is named by P(b), with
       b = e - k*w and k = floor((e_i - lo_i) / w_i).  Moving e by t*w moves
       k by t, so b names the whole line, and b = b' forces e - e' in Z*w,
       as long as distinct b, b' never pack alike.  For e, e' in the box, k
       and k' differ by at most span / |w_i| + 1, so field j of b - b' is at
       most span + (span + 1) * |w_j| < 2^bits in absolute value; at the
       lowest field j where b and b' differ, P(b) - P(b') is delta_j * 2^{s_j}
       modulo 2^{s_j + bits}, with 0 < |delta_j| < 2^bits, so it is not zero.
       The name b may lie outside the box.
    3. The fill stays near the box.  ``_packed_divide`` runs from a key p
       of f along w while the running sum is nonzero, and refuses f when
       ``extent`` steps meet no key of f: two points of a line in the box
       are at most ``extent`` steps apart, so such a run ends no line of f
       that sums to zero, and the refusal is exact.  The fill looks up a
       run's e + t*w, t <= extent + 1, among the keys of f, and e - w, e a
       key, among the quotient's points e' + t*w, t <= extent; each pair
       differs by at most 2 * span + reach < 2^bits in every field, so by
       the argument of 2 a lookup finds only the point it names.  When f is
       divisible, the Newton polytope of g plus the segment [0, w], which
       holds 0, is that of f, so g lies in f's box.

    ``unpack`` still checks every coordinate against the box and raises
    ResultCheckFailed if one is outside it.
    """

    def __init__(self, lo: Vector, hi: Vector, reach: int):
        self.lo, self.hi = lo, hi = tuple(lo), tuple(hi)
        self.span = span = max(map(sub, hi, lo), default=0)
        bits = (span * (1 + reach) + reach).bit_length()
        self.mask = (1 << bits) - 1
        self.shifts = tuple(map(mul, range(len(lo) - 1, -1, -1), repeat(bits)))
        self.origin = self.raw(lo)

    def raw(self, e: Vector) -> int:
        """sum_i e_i * 2^{s_i}: W(e) for a character, P(e) + W(lo) for a point."""
        return sum(map(lshift, e, self.shifts))

    def pack(self, terms) -> dict[int, int]:
        """{P(e): c} over the terms (e, c), points of the box."""
        origin = self.origin
        return {self.raw(e) - origin: c for e, c in terms}

    def character(self, w: Vector) -> tuple[int, int, int, int, int]:
        """(W(w), s_i, field mask, w_i, extent), with w_i the first nonzero
        coordinate of w and extent = span // max |w_j|, at least the steps of
        w between two points of the box: what ``_line_sums_vanish`` needs to
        name the lines e + Z*w, and ``_packed_divide`` to bound a run and a
        quotient."""
        i = next(j for j, x in enumerate(w) if x)
        return self.raw(w), self.shifts[i], self.mask, w[i], self.span // max(map(abs, w))

    def unpack(self, f: dict[int, int]) -> LaurentPoly:
        """The polynomial of a packed dict, in lex order, read by columns:
        each field of the sorted keys at once, the top one unmasked, checked
        against the box, then zipped into exponents.  Raises
        ResultCheckFailed when a coordinate lies outside the box."""
        keys, lo, hi = sorted(f), self.lo, self.hi
        if not keys:
            return LaurentPoly(len(lo), ())
        columns = []
        for i, s in enumerate(self.shifts):
            fields = map(rshift, keys, repeat(s))
            column = list(map(add, map(and_, fields, repeat(self.mask)) if i else fields, repeat(lo[i])))
            if min(column) < lo[i] or max(column) > hi[i]:
                raise ResultCheckFailed(f"packed exponents left the box {lo}..{hi}")
            columns.append(column)
        exps = zip(*columns) if columns else repeat((), len(keys))
        return LaurentPoly(len(lo), tuple(zip(exps, map(f.__getitem__, keys))))


def _line_sums_vanish(f: dict[int, int], ch) -> bool:
    """Whether the coefficients of a packed f sum to zero on every line
    e + Z*w, named by P(b) (see ``_Packing``): one pass adds each coefficient
    into its line's sum.  Since (1 - e^w) | f forces f(1) = 0, a nonzero
    coefficient sum is refused first, before any line is named."""
    if sum(f.values()):
        return False
    w_packed, shift, mask, wi, _ = ch
    sums: dict[int, int] = {}
    get = sums.get
    for p, c in f.items():
        name = p - ((p >> shift) & mask) // wi * w_packed
        sums[name] = get(name, 0) + c
    return not any(sums.values())


def _quotient_size(f: dict[int, int], ch, keys) -> int:
    """A bound on |g| for f = (1 - e^w) * g, exact past ``TERM_BUDGET``:
    |f| / 2 times the steps of w across f's field i, then the runs of
    nonzero running sums on f's lines."""
    w_packed, shift, mask, wi, _ = ch
    low, high = sorted((keys[0] >> shift, keys[-1] >> shift))  # f's field i spans these
    if high > mask:  # unless the keys differ above field i
        fields = [(p >> shift) & mask for p in f]
        low, high = min(fields), max(fields)
    size = len(f) * ((high - low) // abs(wi)) // 2
    if size <= TERM_BUDGET:
        return size
    lines: dict[int, list] = {}
    for p, c in f.items():
        k = ((p >> shift) & mask) // wi
        lines.setdefault(p - k * w_packed, []).append((k, c))
    size = 0
    for line in lines.values():
        line.sort()
        running = 0
        for (k, c), (k_next, _) in zip(line, line[1:]):
            running += c
            if running:
                size += k_next - k
    return size


def _packed_divide(f: dict[int, int], ch) -> dict[int, int] | None:
    """The packed g with f = (1 - e^w) * g (see ``divide_exact``), or None
    when (1 - e^w) does not divide f, in one pass over the keys of f in the
    order of W: g(p) = f(p) + g(p - W), repeated forward up to f's next key
    on the line (fact 3).  A run that meets no key of f within ``extent``
    steps leaves its line a nonzero sum, and f is refused there.  Before
    the pass f is refused when its coefficients do not sum to zero, or when
    W does not divide sum c * p: if f = (1 - e^w) * g, that sum is
    -W * g(1).  A line of f that sums to zero holds no term or two or more,
    and g lies between the first and the last, so |g| <= |f| / 2 * extent;
    past ``TERM_BUDGET`` the lines are summed first (``_line_sums_vanish``),
    then ``_quotient_size`` decides, and WorkBudgetExceeded is raised before
    g is built."""
    w_packed, extent = ch[0], ch[4]
    if sum(f.values()) or sum(map(mul, f, f.values())) % w_packed:
        return None
    keys = sorted(f, reverse=w_packed < 0)
    if len(f) * extent > 2 * TERM_BUDGET:
        if not _line_sums_vanish(f, ch):
            return None
        size = _quotient_size(f, ch, keys)
        if size > TERM_BUDGET:
            raise WorkBudgetExceeded(f"a quotient of {size} terms passes the budget of {TERM_BUDGET}")
    quotient: dict[int, int] = {}
    get, reach = quotient.get, extent * w_packed
    for p in keys:
        running = f[p] + get(p - w_packed, 0)
        if running:
            quotient[p] = running
            q = p + w_packed
            if q not in f:  # the run fills up to f's next key on the line, within extent steps
                stop = q + reach
                while q != stop:
                    quotient[q] = running
                    q += w_packed
                    if q in f:
                        break
                else:
                    return None
    return quotient


def _packed_times_koszul(f: dict[int, int], w_packed: int, k: int) -> dict[int, int]:
    """f * (1 - e^w)^k, packed: one shift-and-subtract per power."""
    for _ in range(k):
        acc = dict(f)
        for p, c in f.items():
            q = p + w_packed
            v = acc.get(q, 0) - c
            if v:
                acc[q] = v
            else:
                del acc[q]
        f = acc
    return f


# -- exact division ---------------------------------------------------------


def _character(f: LaurentPoly, w: Vector) -> Vector:
    """w as a tuple, checked to be a nonzero character of f's rank."""
    w = tuple(w)
    if not any(w):
        raise ZeroCharacter("cannot divide by 1 - e^0 = 0")
    if len(w) != f.rank:
        raise RankMismatch(f"character of length {len(w)} in rank {f.rank}")
    return w


def _packed_for_division(f: LaurentPoly, w: Vector):
    """(packing, packed f, packed w) over the box of a nonzero f."""
    lo, hi = f.exponent_box()
    packing = _Packing(lo, hi, max(map(abs, w)))
    return packing, packing.pack(f.terms), packing.character(w)


def koszul_divides(f: LaurentPoly, w: Vector) -> bool:
    """Whether (1 - e^w) divides f: whether the coefficients of f on every
    line e + Z*w sum to zero (see ``divide_exact``), with no quotient built.

    For a primitive w, (1 - e^w) is the kernel of Z[M] -> Z[M / Z*w], so this
    decides whether two values agree on a wall with normal w."""
    w = _character(f, w)
    if f.is_zero():
        return True
    _, packed, ch = _packed_for_division(f, w)
    return _line_sums_vanish(packed, ch)


def divide_exact(f: LaurentPoly, w: Vector) -> LaurentPoly:
    """Return g with f = (1 - e^w) * g, exactly.

    Along each line e + Z*w the coefficients satisfy f_k = g_k - g_{k-1}, so
    (1 - e^w) divides f iff the coefficients of f on every line sum to zero,
    and then g_k is the running sum of f_j over j <= k.  Runs on exponents
    packed over the box of f (see ``_Packing``).  Raises NotDivisible when
    some line does not sum to zero; a nonzero coefficient sum is refused
    first, in O(terms) and before any line is named.
    """
    w = _character(f, w)
    if f.is_zero():
        return f
    packing, packed, ch = _packed_for_division(f, w)
    quotient = _packed_divide(packed, ch)
    if quotient is None:
        raise NotDivisible(f"remainder left when dividing by 1 - e^{w}")
    return packing.unpack(quotient)


def try_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly | None:
    """Exact quotient f/g in Z[M], or None when g does not divide f.

    Multivariate division by the lex-leading term; valid in the Laurent ring
    because monomials are invertible.  Termination is forced by bounding the
    quotient's exponents with the Newton-polytope box of f minus that of g.
    """
    if f.rank != g.rank:
        raise RankMismatch(f"ranks {f.rank} and {g.rank}")
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    g_lead_exp, g_lead_c = g.terms[-1]  # lex-max term
    f_box = f.exponent_box()
    g_box = g.exponent_box()
    lo = tuple(a - b for a, b in zip(f_box[0], g_box[0]))
    hi = tuple(a - b for a, b in zip(f_box[1], g_box[1]))

    rem = {e: c for e, c in f.terms}
    quot: dict[Vector, int] = {}
    while rem:
        lead = max(rem)
        c = rem[lead]
        t_exp = tuple(a - b for a, b in zip(lead, g_lead_exp))
        if c % g_lead_c != 0:
            return None
        if any(t < l or t > h for t, l, h in zip(t_exp, lo, hi)):
            return None
        t_c = c // g_lead_c
        quot[t_exp] = quot.get(t_exp, 0) + t_c
        for e2, c2 in g.terms:
            key = tuple(a + b for a, b in zip(t_exp, e2))
            nxt = rem.get(key, 0) - t_c * c2
            if nxt:
                rem[key] = nxt
            elif key in rem:
                del rem[key]
    return LaurentPoly.from_dict(f.rank, quot)


# -- localization sums ---------------------------------------------------------


@value_class
class LocalizationSum:
    """A finite sum of terms numerator / prod_{w in denom} (1 - e^w)."""

    rank: int
    terms: tuple[tuple[LaurentPoly, tuple[Vector, ...]], ...]

    @staticmethod
    def build(rank: int, terms) -> "LocalizationSum":
        norm = []
        for num, denom in terms:
            if num.rank != rank:
                raise RankMismatch("numerator rank differs from the sum's rank")
            denom = tuple(tuple(w) for w in denom)
            for w in denom:
                if all(x == 0 for x in w):
                    raise ZeroCharacter("zero character in a denominator")
                if len(w) != rank:
                    raise RankMismatch("denominator character of wrong length")
            norm.append((num, tuple(sorted(denom))))
        return LocalizationSum(rank, tuple(norm))

    def reduce(self) -> LaurentPoly:
        return reduce_localization(self)


def _merge_rounds(count: int, walls) -> tuple[list, list]:
    """The merges of ``count`` fractions along ``walls``, one per shared
    wall, a pair (a, b) of positions or a triple (a, b, d) with d the wall's
    direction: (steps, rest), the merges (keep, gone, joined) of Borůvka
    rounds, ``joined`` the directions of the walls the merge joins (None for
    a pair), and then the regions left, largest first.  In a round each
    region, smallest first, merges with the neighbour not yet merged that
    shares the most walls with it, ties to the smaller region, then to the
    lower id, a region's id being its lowest position.  Two regions keep the
    directions of the walls between them in one list, which a merge hands
    on to the region it makes, so one pass over the walls compiles what
    every step joins."""
    size = [1] * count
    adjacent: list = [{} for _ in range(count)]
    for a, b, *direction in walls:
        joined = adjacent[a].get(b)
        if joined is None:
            adjacent[a][b] = adjacent[b][a] = direction or [None]
        else:
            joined += direction or [None]
    alive, steps, merged = list(range(count)), [], True
    while merged:
        merged = set()
        for r in sorted(alive, key=size.__getitem__):  # ties stay in id order
            if r in merged:
                continue
            best = None
            for n, joined in adjacent[r].items():
                if n not in merged:
                    key = (len(joined), -size[n], -n)
                    if best is None or key > best:
                        best = key
            if best is None:
                continue
            n = -best[2]
            keep, gone = (r, n) if r < n else (n, r)
            steps.append((keep, gone, adjacent[r][n]))
            size[keep] += size[gone]
            size[gone] = 0
            moved, adjacent[gone], kept_near = adjacent[gone], None, adjacent[keep]
            del kept_near[gone]
            for x, joined in moved.items():
                if x != keep:
                    near = adjacent[x]
                    del near[gone]
                    kept = near.get(keep)
                    if kept is None:
                        kept_near[x] = near[keep] = joined
                    else:
                        kept += joined
            merged.add(r)
            merged.add(n)
        alive = [r for r in alive if size[r]]
    return steps, sorted(alive, key=size.__getitem__, reverse=True)  # ties stay in id order


def reduce_localization(s, plan=()) -> LaurentPoly:
    """Clear all denominators of a sum, exactly: of the LocalizationSum ``s``,
    whose terms a and b share a wall for each pair (a, b) or triple
    (a, b, d) in ``plan``, d the wall's direction, a primitive and
    lexicographically positive character, or of the terms of the ``_Plan``
    ``plan`` over the numerators ``s``.

    A factor 1 - e^w with w lexicographically negative is rewritten as
    (1 - e^{-w}) * (-e^w), the unit going to the numerator.  To cancel a
    fraction is to divide its numerator by each factor of its denominator
    while it divides, in the lexicographic order of the primitive
    directions.  Each term is cancelled, then fractions are merged two at a
    time: both numerators are brought to the lcm of the denominators, each
    times only the factors its own lacks, added and cancelled again.  The
    merges follow ``_merge_rounds``, each joining two regions of cones whose
    walls' factors then cancel.  Where no wall joins what is left, the
    largest region absorbs the one whose denominator overlaps its own most
    (the sum of min(m, m') over shared factors), ties to the lower id.  A
    factor left at the end raises NotPolynomial; ``_fold`` is all of this
    but that check, so a partial sum keeps what is left of its denominator.

    After a merge only some factors are tried.  A merge that joins walls
    given with their directions tries those directions alone (``ktheory``
    gives each wall its normal); a merge that joins a bare pair, or one of
    the fallback, tries the directions both denominators hold.  The latter
    loses nothing: Z[M] is a UFD and the prime factors of 1 - e^{m*w0}, w0
    primitive, are the Phi_j(e^{w0}) with j | m, so factors of different
    directions are coprime.  If the direction d is in D_a but not in D_b,
    the merged numerator is A*(L/D_a) + B*(L/D_b), L the lcm; L/D_b holds
    the whole d-part of L, so a factor of direction d divides B*(L/D_b) and
    is coprime to L/D_a: it divides the sum iff it divides A, which was
    cancelled.  Dividing by factors coprime to it keeps this so.  The former
    leaves a factor that the sum of a special class cancels away from the
    walls joined, but only in a direction that both regions' factors held
    and the merge left untried.  The compiler keeps, per region, those
    deferred directions that no later merge into the region tried, and a
    fold with such a merge ends with one cancel in the deferred directions
    alone.  That is exact: the first cancel of each term tried every
    factor; a factor refused stays refused after any division, since a
    divisor of the quotient divides the dividend; a direction only one side
    holds divides the sum iff it divides that side, as above; and a run's
    denominators hold no direction that the compiler's do not, since
    cancelling only removes factors.  So the cancellation is deferred,
    never lost: the result is the same, and a sum that is no polynomial
    still raises NotPolynomial.

    The reduction runs on packed exponents (``_Packing``) over a box of the
    normalized numerators widened, per coordinate, by the sums of min(0, w_i)
    and of max(0, w_i) over every denominator factor w of every term.  A
    numerator f * N of a ``_Plan`` term is boxed by the sum of the boxes of f
    and N, which holds its Newton polytope.  Let Z(F) be the Newton polytope
    of a product F of factors 1 - e^w, the sum of the segments [0, w]; it
    holds 0, so multiplying by F never shrinks a Newton polytope, Z(F) lies
    in Z(G) when F | G, and a quotient by 1 - e^w lies in the polytope of
    its dividend, as does f's quotient times N in that of f * N.  A fraction
    A/L' held is the cancelled sum over a set S of terms N_t/D_t (a zero
    numerator is 0/1, in no S); with L_S
    the lcm of the D_t, A * (L_S/L') is the sum of the N_t * (L_S/D_t), so A
    lies in the numerators' box plus Z(L_S).  A merge of disjoint S and S'
    multiplies A by a divisor of L_{S'} and B by one of L_S, so all it holds
    lies in the numerators' box plus Z(L_S) + Z(L_{S'}); an lcm of multisets
    is at most their sum, so that lies in Z of the sum of all denominators,
    the widening.  The result is unpacked once, with its box check.
    """
    num, den = _fold(s, plan)
    if den:
        raise NotPolynomial(
            f"localization sum is not polynomial: factor 1 - e^{sorted(den)[0]} does not divide"
        )
    return num


def _fold(s, plan) -> tuple[LaurentPoly, dict[Vector, int]]:
    """The sum as one cancelled fraction (numerator, {w: multiplicity}), as
    ``reduce_localization`` describes; a LocalizationSum's plan is compiled
    on its walls."""
    if isinstance(plan, _Plan):
        return plan.run(s)
    return _Plan(s.rank, [(None, denom) for _, denom in s.terms], plan).run([num for num, _ in s.terms])


class _Plan:
    """A fold compiled from a sum's denominators and walls, and run on its
    numerators (``reduce_localization``).  A term (N, D) is f * N / D, f its
    numerator and N None for 1.  Its first cancellation divides f alone:
    exact for N = 1, and else N must be cancelled against D, of primitive
    characters, each 1 - e^w then prime in Z[M].  Its merges are those of
    ``_merge_rounds`` on the walls, each with the primitive directions it
    tries, or None for every direction both denominators hold, and
    ``deferred`` holds the directions that a narrowed merge left untried
    while both of its regions' factors held them, and no later merge into
    that region tried (``reduce_localization``)."""

    def __init__(self, rank: int, terms, walls):
        # per term: f * N = sign * e^shift * f * (N shifted to its least corner),
        # boxed by box(f) + [shift, far], and D normalized to a multiset; then, once
        # per distinct factor, weighted by its multiplicity over all terms, the box
        # widening, and the division order and the fields a packed character reads;
        # then the merges; none of it reads f
        self.rank, self.terms, zero = rank, [], (0,) * rank
        total: dict[Vector, int] = {}
        for cofactor, denom in terms:
            shift, sign, multiset, shifted = zero, 1, {}, None
            for w in denom:
                if w < zero:  # 1/(1 - e^w) = -e^{-w}/(1 - e^{-w})
                    w = tuple(map(neg, w))
                    shift, sign = tuple(map(add, shift, w)), -sign
                multiset[w] = multiset.get(w, 0) + 1
                total[w] = total.get(w, 0) + 1
            far = shift
            if cofactor is not None:
                low, high = cofactor.exponent_box()
                exps, coeffs = zip(*cofactor.terms)
                shifted = [tuple(map(sub, e, low)) for e in exps], coeffs
                shift, far = tuple(map(add, shift, low)), tuple(map(add, shift, high))
            self.terms.append((shift, far, sign, shifted, multiset))
        lo, hi, direction, order, top, lead = [0] * rank, [0] * rank, {}, {}, {}, {}
        for w, m in total.items():
            for i, x in enumerate(w):
                if x < 0:
                    lo[i] += m * x
                else:
                    hi[i] += m * x
            d = direction[w] = primitive_vector(w)
            order[w] = d, w  # the division order
            top[w] = max(map(abs, w))
            lead[w] = next(filter(w.__getitem__, range(rank)))  # the first nonzero coordinate
        self.widening, self.reach, self.widths = (tuple(lo), tuple(hi)), max(top.values(), default=0), {}
        self.direction, self.order, self.top, self.lead = direction, order, top, lead
        steps, self.rest = _merge_rounds(len(self.terms), walls)
        # per merge, the directions it tries: its walls', or None (every shared one);
        # per region, the directions its factors hold and those a narrowed merge into
        # it left untried while both sides held them, which no later merge tried
        self.steps, self.narrowed, none = [], False, frozenset()
        held, deferred = [set(map(direction.__getitem__, multiset)) for *_, multiset in self.terms], {}
        for keep, gone, joined in steps:
            directions = None if None in joined else set(joined)
            late = deferred.pop(gone, none) | deferred.pop(keep, none)
            if directions is not None:
                late, self.narrowed = (late | held[keep] & held[gone]) - directions, True
            if late:
                deferred[keep] = late
            held[keep] |= held[gone]
            self.steps.append((keep, gone, directions))
        self.deferred = none.union(*deferred.values())

    def run(self, numerators) -> tuple[LaurentPoly, dict[Vector, int]]:
        """The cancelled fraction of the sum of the terms f * N / D.

        The packing's field width depends on the numerators, but what reads
        only the plan and the width is computed on the first run at that
        width and kept in ``widths``: per direction W(w), its field shift
        and mask and its leading coordinate (``_Packing.character``), and
        per term W(shift) and the packed exponents of N.  A run recomputes
        only the extents, which read the box's span, and a plan run once
        computes each of these once, as it would uncached.  The last cancel
        of a narrowed fold tries only the directions in ``deferred``."""
        lows, highs = [], []
        for f, (shift, far, _, _, _) in zip(numerators, self.terms):
            if f.terms:
                low, high = f.exponent_box()
                lows.append(map(add, low, shift))
                highs.append(map(add, high, far))
        if not lows:
            return LaurentPoly.zero(self.rank), {}
        lo, hi = self.widening
        packing = _Packing(list(map(add, map(min, zip(*lows)), lo)), list(map(add, map(max, zip(*highs)), hi)),
                           self.reach)
        shifts, mask, origin = packing.shifts, packing.mask, packing.origin
        order, direction = self.order, self.direction
        width = self.widths.get(mask)
        if width is None:
            width = self.widths[mask] = (
                {w: (sum(map(lshift, w, shifts)), shifts[i], mask, w[i]) for w, i in self.lead.items()},
                [(sum(map(lshift, shift, shifts)),
                  shifted and [(sum(map(lshift, e, shifts)), c) for e, c in zip(*shifted)])
                 for shift, _, _, shifted, _ in self.terms])
        span, top = packing.span, self.top
        chars = {w: (*ch, span // top[w]) for w, ch in width[0].items()}

        def cancel(num: dict[int, int], den: dict[Vector, int], directions=None) -> dict[int, int]:
            """Divide num by the factors of den (those in ``directions`` only,
            when given) while they divide it; den loses what was divided."""
            if not num:
                den.clear()
            if sum(num.values()):  # 1 - e^w vanishes at e^w = 1, so it divides no such num
                return num
            tried = den if directions is None else [w for w in den if direction[w] in directions]
            for w in sorted(tried, key=order.__getitem__):
                ch, m = chars[w], den[w]
                while m:
                    quotient = _packed_divide(num, ch)
                    if quotient is None:
                        break
                    num, m = quotient, m - 1
                if m:
                    den[w] = m
                else:
                    del den[w]
            return num

        def merge(a, b, directions=None):
            """The sum of two fractions (numerator, denominator), cancelled in
            ``directions``, by default every direction both denominators hold."""
            (num, den), (other, other_den) = a, b
            if directions is None:
                directions = set(map(direction.__getitem__, den)).intersection(map(direction.__getitem__, other_den))
            lcm = dict(den)
            for w, m in other_den.items():
                held = den.get(w, 0)
                if m > held:
                    num = _packed_times_koszul(num, chars[w][0], m - held)
                    lcm[w] = m
            for w, m in den.items():
                held = other_den.get(w, 0)
                if m > held:
                    other = _packed_times_koszul(other, chars[w][0], m - held)
            if len(num) < len(other):
                num, other = other, num
            for q, c in other.items():
                v = num.get(q, 0) + c
                if v:
                    num[q] = v
                else:
                    del num[q]
            return cancel(num, lcm, directions), lcm

        parts = []
        for f, (_, _, sign, _, multiset), (packed_shift, cofactor) in zip(numerators, self.terms, width[1]):
            offset, den = packed_shift - origin, dict(multiset)
            num = cancel({sum(map(lshift, e, shifts)) + offset: sign * c for e, c in f.terms}, den)
            if cofactor and num:
                product: dict[int, int] = {}
                for r, d in cofactor:
                    for p, c in num.items():
                        q = p + r
                        product[q] = product.get(q, 0) + c * d
                num = {q: c for q, c in product.items() if c}
            parts.append((num, den))
        for keep, gone, directions in self.steps:
            parts[keep], parts[gone] = merge(parts[keep], parts[gone], directions), None
        acc, pending = parts[self.rest[0]], self.rest[1:]
        while pending:  # no wall joins what is left: the greedy fallback
            r = max(pending, key=lambda r: (sum(min(m, acc[1].get(w, 0)) for w, m in parts[r][1].items()), -r))
            pending.remove(r)
            acc = merge(acc, parts[r])
        num, den = acc
        if self.narrowed:  # what a narrowed merge deferred
            num = cancel(num, den, self.deferred)
        return packing.unpack(num), den
