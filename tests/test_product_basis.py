"""Kronecker duality on (P^1)^n with its product basis, n = 1..4 (k = 2..16).

The fan of (P^1)^n has rays +-e_i and one orthant cone per sign pattern.  For
each S in {1..n}, f_S is prod_{i in S} (1 - e^{w_i(sigma)}) on the cones
sigma containing +e_i for every i in S, and 0 elsewhere, where w_i(sigma) is
the tangent weight at sigma dual to +e_i; it is paired with the cone
tau_S = cone{+e_i : i in S}.
"""

import time

import pytest

from pexpfan import ktheory
from pexpfan.catalog import product_basis
from pexpfan.ktheory import decompose, dual_basis_solve, gram_matrix
from pexpfan.laurent import LaurentPoly


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dual_basis_of_the_product_basis(n, monkeypatch):
    fan, functions, taus = product_basis(n)
    k = len(functions)
    calls = []
    det = ktheory.poly_det
    monkeypatch.setattr(ktheory, "poly_det", lambda *a: calls.append(a) or det(*a))
    start = time.perf_counter()
    # dual_basis_solve checks internally that the duals' Gram is the identity
    duals = dual_basis_solve(fan, taus, functions)
    if k == 8:
        assert time.perf_counter() - start < 1.0
    assert calls == [] and len(duals) == k
    monkeypatch.setattr(ktheory, "poly_det", det)
    zero, one = LaurentPoly.zero(n), LaurentPoly.one(n)
    # at k = 16 only S = {0, 1, 2, 3}: all sixteen elements take about 10 s
    for i in range(k) if n <= 3 else [k - 1]:
        assert decompose(functions[i], functions) == tuple(one if j == i else zero for j in range(k))


@pytest.mark.parametrize("n, det", [
    (1, LaurentPoly.exponential((1,), -1)),
    (2, LaurentPoly.exponential((2, 2))),
    (3, LaurentPoly.exponential((4, 4, 4))),
])
def test_gram_determinant_is_a_unit(n, det):
    fan, functions, taus = product_basis(n)
    gram = [list(row) for row in gram_matrix(fan, functions, taus).entries]
    assert ktheory.poly_det(gram, n) == det

