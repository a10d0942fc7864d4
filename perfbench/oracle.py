"""Exact arithmetic of the benchmark's own, used to check pexpfan's results.

Exponential sums are plain dicts {exponent tuple: nonzero int}; nothing here
calls into pexpfan, so a defect in the package cannot hide in its own check.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations


def poly(p) -> dict:
    """A pexpfan LaurentPoly, or its JSON form, as a dict."""
    if isinstance(p, dict):
        return {tuple(t["exp"]): t["coeff"] for t in p["terms"]}
    return dict(p.terms)


def poly_json(rank: int, d: dict) -> dict:
    """Canonical JSON form: lexicographic exponents, no zero coefficients."""
    return {"rank": rank, "terms": [{"coeff": c, "exp": list(e)} for e, c in sorted(d.items()) if c]}


def add_scaled(acc: dict, d: dict, coeff: int, shift) -> None:
    """acc += coeff * e^shift * d, in place."""
    for e, c in d.items():
        key = tuple(a + b for a, b in zip(e, shift))
        v = acc.get(key, 0) + coeff * c
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)


def push(d: dict, rows) -> dict:
    """Image under the exponent map u -> (<u, r> for r in rows)."""
    out: dict = {}
    for e, c in d.items():
        key = tuple(sum(a * b for a, b in zip(e, r)) for r in rows)
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# -- integer linear algebra ---------------------------------------------------


def det(rows) -> int:
    """Determinant of a square integer matrix, by rational elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return int(out)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def facet_normals(gens) -> list:
    """Inward normals of a full-dimensional pointed cone in rank 2 or 3."""
    rank = len(gens[0])
    if rank == 2:
        candidates = [(-g[1], g[0]) for g in gens] + [(g[1], -g[0]) for g in gens]
    elif rank == 3:
        candidates = []
        for u, v in combinations(gens, 2):
            n = _cross(u, v)
            candidates += [n, tuple(-x for x in n)]
    else:
        raise ValueError("containment check supports rank 2 and 3")
    out = []
    for n in candidates:
        if not any(n):
            continue
        dots = [sum(a * b for a, b in zip(n, g)) for g in gens]
        on = sum(1 for x in dots if x == 0)
        if min(dots) >= 0 and on >= rank - 1 and n not in out:
            out.append(n)
    return out


def in_cone(point, normals) -> bool:
    return all(sum(a * b for a, b in zip(n, point)) >= 0 for n in normals)


# -- face compatibility ---------------------------------------------------------


def gkm_disagreements(rays, cones, values) -> list:
    """(i, j, shared face) for every pair of full-dimensional maximal cones
    whose values differ on their common face, in pexpfan's report order.

    Two values agree on a face iff their images under u -> (<u, r>) over the
    face's rays agree: that map has kernel exactly the characters vanishing
    on the face, like the package's own quotient coordinates.
    """
    out = []
    for i, j in combinations(range(len(cones)), 2):
        shared = tuple(sorted(set(cones[i]) & set(cones[j])))
        rows = [rays[k] for k in shared]
        if push(values[i], rows) != push(values[j], rows):
            out.append((i, j, shared))
    return out
