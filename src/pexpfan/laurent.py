"""The representation ring Z[M] as integer exponential sums.

A ``LaurentPoly`` stores a finite map from exponent vectors u in M to nonzero
integer coefficients, i.e. an element a_1 e^{u_1} + ... + a_r e^{u_r}.  Terms
are kept in lexicographic exponent order, so equality, hashing, and
serialization are canonical.  ``LocalizationSum`` holds intermediate sums
n / prod(1 - e^w) produced by fixed-point localization, and ``reduce`` clears
the denominators exactly.  Dividing by a factor (1 - e^w) works line by line:
the quotient's coefficients are running sums along the lines e + Z*w.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDivisible, NotPolynomial, RankMismatch, ZeroCharacter
from .lattice import IntMatrix, Vector, mat_vec, primitive_vector, strict_int, strict_list

Term = tuple[Vector, int]


@dataclass(frozen=True)
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

    def augment(self) -> int:
        """Sum of coefficients: the ring map e^u -> 1 to the integers."""
        return sum(c for _, c in self.terms)

    def map_exponents(self, phi: IntMatrix, target_rank: int | None = None) -> "LaurentPoly":
        """Push every exponent through the integer matrix phi and merge."""
        out_rank = len(phi) if target_rank is None else target_rank
        if self.terms and phi and len(phi[0]) != self.rank:
            raise RankMismatch(f"matrix domain {len(phi[0])} vs ring rank {self.rank}")
        if not phi and out_rank not in (0,):
            raise RankMismatch("empty matrix can only map to rank 0")
        acc: dict[Vector, int] = {}
        for exp, c in self.terms:
            key = mat_vec(phi, exp)
            acc[key] = acc.get(key, 0) + c
        return LaurentPoly.from_dict(out_rank, acc)

    def exponent_box(self) -> tuple[Vector, Vector] | None:
        """Componentwise (min, max) of the exponents; None for the zero poly."""
        if not self.terms:
            return None
        exps = [e for e, _ in self.terms]
        lo = tuple(min(e[i] for e in exps) for i in range(self.rank))
        hi = tuple(max(e[i] for e in exps) for i in range(self.rank))
        return lo, hi

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
    seen: set[Vector] = set()
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
        if exp in seen:
            raise ValueError(f"duplicate exponent {exp}")
        seen.add(exp)
        acc[exp] = c
    return LaurentPoly.from_dict(rank, acc)


# -- exact division ---------------------------------------------------------


def _lines(f: LaurentPoly, w: Vector) -> dict[Vector, list[tuple[int, int]]]:
    """The terms c * e^(base + k*w) of f as (k, c), per line e + Z*w named by
    its point base = e - floor(e_i / w_i) * w, with i the first nonzero
    coordinate of the nonzero character w."""
    i = next(j for j, x in enumerate(w) if x)
    lines: dict[Vector, list[tuple[int, int]]] = {}
    for exp, c in f.terms:
        k = exp[i] // w[i]
        base = tuple(a - k * b for a, b in zip(exp, w))
        lines.setdefault(base, []).append((k, c))
    return lines


def koszul_divides(f: LaurentPoly, w: Vector) -> bool:
    """Whether (1 - e^w) divides f: whether the coefficients of f on every
    line e + Z*w sum to zero (see ``divide_exact``), with no quotient built.

    For a primitive w, (1 - e^w) is the kernel of Z[M] -> Z[M / Z*w], so this
    decides whether two values agree on a wall with normal w."""
    w = tuple(w)
    if not any(w):
        raise ZeroCharacter("cannot divide by 1 - e^0 = 0")
    return not any(sum(c for _, c in line) for line in _lines(f, w).values())


def divide_exact(f: LaurentPoly, w: Vector) -> LaurentPoly:
    """Return g with f = (1 - e^w) * g, exactly.

    Along each line e + Z*w the coefficients satisfy f_k = g_k - g_{k-1}, so
    (1 - e^w) divides f iff the coefficients of f on every line sum to zero,
    and then g_k is the running sum of f_j over j <= k.  A line is named by
    its point e - floor(e_i / w_i) * w, with i the first nonzero coordinate of
    w.  Raises NotDivisible when some line does not sum to zero; since
    (1 - e^w) | f forces f(1) = 0, a nonzero coefficient sum is refused first,
    in O(terms) and before any line is built.
    """
    w = tuple(w)
    if all(x == 0 for x in w):
        raise ZeroCharacter("cannot divide by 1 - e^0 = 0")
    if len(w) != f.rank:
        raise RankMismatch(f"character of length {len(w)} in rank {f.rank}")
    if f.is_zero():
        return f
    if f.augment():
        raise NotDivisible(f"remainder left when dividing by 1 - e^{w}")
    lines = _lines(f, w)
    if any(sum(c for _, c in line) for line in lines.values()):
        raise NotDivisible(f"remainder left when dividing by 1 - e^{w}")

    acc: dict[Vector, int] = {}
    for base, line in lines.items():
        line.sort()
        running = 0
        for (k, c), (k_next, _) in zip(line, line[1:]):
            running += c
            if running:
                for j in range(k, k_next):
                    acc[tuple(a + j * b for a, b in zip(base, w))] = running
    return LaurentPoly.from_dict(f.rank, acc)


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


@dataclass(frozen=True)
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


def _lex_negative(w: Vector) -> bool:
    for x in w:
        if x != 0:
            return x < 0
    return False


def _times_koszul(f: LaurentPoly, w: Vector, k: int) -> LaurentPoly:
    """f * (1 - e^w)^k: one shift-and-subtract per power."""
    for _ in range(k):
        acc = dict(f.terms)
        for exp, c in f.terms:
            key = tuple(a + b for a, b in zip(exp, w))
            acc[key] = acc.get(key, 0) - c
        f = LaurentPoly.from_dict(f.rank, acc)
    return f


def reduce_localization(s: LocalizationSum) -> LaurentPoly:
    """Clear all denominators of the sum, exactly.

    Each factor (1 - e^w) with lexicographically negative w is first rewritten
    as (1 - e^{-w}) * (-e^{w}), folding the unit into the numerator, so the
    denominators are canonical multisets, and each term is cancelled on its
    own.  To cancel is to divide the numerator by every denominator factor
    that divides it, in the lexicographic order of the primitive characters,
    each factor with full multiplicity; afterwards no factor left in the
    denominator divides the numerator.  Terms are then folded into an
    accumulator one at a time, greedily choosing the term whose denominator
    overlaps the accumulator's most (for localization data this walks adjacent
    fixed points, so interior factors cancel as soon as they appear and the
    working fraction stays small).  Both numerators are brought to the lcm of
    the two denominators and added.  A denominator factor surviving to the
    end raises NotPolynomial.

    After a step only the factors whose primitive direction occurs in both
    the new term's denominator and the accumulator's denominator from before
    the step are tried; no other division can succeed.  Z[M] is a UFD, and
    for w0 primitive the prime factors of 1 - e^{m*w0} are the Phi_j(e^{w0})
    with j | m, so factors in different primitive directions are coprime.
    Let the direction d occur in the denominator D_a of A/D_a but not in the
    denominator D_b of B/D_b.  The sum's numerator is A*(L/D_a) + B*(L/D_b),
    with L the lcm: L/D_b holds the whole d-part of L, which is that of D_a,
    so every factor (1 - e^w) of L in direction d divides B*(L/D_b), while
    L/D_a is coprime to it.  Hence (1 - e^w) divides the sum's numerator iff
    it divides A, and A was cancelled, so it does not.  Dividing by factors
    of the shared directions keeps this so, since they are coprime to
    (1 - e^w).  The same holds with the two sides swapped.
    """
    rank = s.rank

    def cancel(num: LaurentPoly, den: dict[Vector, int], shared=None) -> LaurentPoly:
        """Divide num by the factors of den (those in the directions `shared`
        only, when given) while they divide it; den loses what was divided."""
        if num.is_zero():
            den.clear()
            return num
        for w in sorted(den, key=lambda w: (primitive_vector(w), w)):
            if shared is not None and primitive_vector(w) not in shared:
                continue
            while den.get(w):
                try:
                    num = divide_exact(num, w)
                except NotDivisible:
                    break
                den[w] -= 1
                if not den[w]:
                    del den[w]
        return num

    normalized: list[tuple[LaurentPoly, dict[Vector, int]]] = []
    for num, denom in s.terms:
        multiset: dict[Vector, int] = {}
        for w in denom:
            if _lex_negative(w):
                w_pos = tuple(-x for x in w)
                # 1/(1 - e^w) = -e^{-w}/(1 - e^{-w})
                num = num * LaurentPoly.exponential(w_pos, -1)
                w = w_pos
            multiset[w] = multiset.get(w, 0) + 1
        if not num.is_zero():
            normalized.append((cancel(num, multiset), multiset))

    if not normalized:
        return LaurentPoly.zero(rank)

    acc_num, acc_den = normalized[0]
    pending = list(normalized[1:])
    while pending:
        overlap = [
            sum(min(m, acc_den.get(w, 0)) for w, m in den.items())
            for _, den in pending
        ]
        pick = max(range(len(pending)), key=lambda i: (overlap[i], -i))
        num, den = pending.pop(pick)
        shared = {primitive_vector(w) for w in den} & {primitive_vector(w) for w in acc_den}
        lcm = dict(acc_den)
        for w, m in den.items():
            lcm[w] = max(lcm.get(w, 0), m)
        for w, m in lcm.items():
            acc_num = _times_koszul(acc_num, w, m - acc_den.get(w, 0))
            num = _times_koszul(num, w, m - den.get(w, 0))
        acc_num = acc_num + num
        acc_den = lcm
        acc_num = cancel(acc_num, acc_den, shared)

    if acc_den:
        worst = sorted(acc_den)[0]
        raise NotPolynomial(
            f"localization sum is not polynomial: factor 1 - e^{worst} does not divide"
        )
    return acc_num
