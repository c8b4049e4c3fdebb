"""Exact linear algebra: solve, kernel, invert, with self-verification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ydalgebra import linalg
from ydalgebra.field import RATIONALS, FieldSpec, ModInt
from ydalgebra.linalg import (
    LinAlgError,
    Matrix,
    Vector,
    identity_matrix,
    invert,
    kernel,
    solve,
    unit_vector,
)

F7 = FieldSpec(7)


def qmat(rows):
    nr, nc = len(rows), len(rows[0]) if rows else 0
    entries = {
        (i, j): Fraction(v)
        for i, row in enumerate(rows)
        for j, v in enumerate(row)
        if v
    }
    return Matrix(nr, nc, entries, RATIONALS)


def qvec(vals):
    return Vector(len(vals), {i: Fraction(v) for i, v in enumerate(vals) if v}, RATIONALS)


def test_solve_identity():
    a = identity_matrix(2, RATIONALS)
    res = solve(a, qvec([1, 2]))
    assert res.solution == qvec([1, 2])
    assert res.kernel == []


def test_solve_rank_deficient():
    a = qmat([[1, 1], [2, 2]])
    b = qvec([1, 2])
    res = solve(a, b)
    assert res.solution is not None
    assert a.apply(res.solution) == b
    assert len(res.kernel) == 1
    v = res.kernel[0]
    assert a.apply(v).is_zero()
    # kernel direction proportional to (1, -1)
    assert v.get(0) == -v.get(1) and v.get(0) != 0


def test_solve_inconsistent():
    a = qmat([[1, 1], [2, 2]])
    res = solve(a, qvec([1, 3]))
    assert res.solution is None


def test_solve_dimension_mismatch():
    with pytest.raises(LinAlgError):
        solve(qmat([[1, 1]]), qvec([1, 2]))


def test_kernel_zero_matrix():
    a = Matrix(2, 2, {}, RATIONALS)
    basis = kernel(a)
    assert basis == [unit_vector(2, 0, RATIONALS), unit_vector(2, 1, RATIONALS)]


def test_kernel_identity_empty():
    assert kernel(identity_matrix(3, RATIONALS)) == []


def test_kernel_one_row():
    a = qmat([[1, 2, 3]])
    basis = kernel(a)
    assert len(basis) == 2
    for v in basis:
        assert a.apply(v).is_zero()


def test_invert_identity():
    i4 = identity_matrix(4, RATIONALS)
    assert invert(i4) == i4


def test_invert_involution():
    a = qmat([[0, 1], [1, 0]])
    assert invert(a) == a


def test_invert_upper_triangular():
    a = qmat([[1, 1], [0, 1]])
    assert invert(a) == qmat([[1, -1], [0, 1]])


def test_invert_singular():
    assert invert(qmat([[1, 1], [1, 1]])) is None


def test_invert_failed_self_check_raises(monkeypatch):
    real = linalg._back_substitute

    def corrupted(*args, **kwargs):
        x = real(*args, **kwargs)
        return x.add(unit_vector(x.dim, 0, x.field))

    monkeypatch.setattr(linalg, "_back_substitute", corrupted)
    with pytest.raises(LinAlgError, match="self-check"):
        invert(qmat([[1, 1], [0, 1]]))


def test_solve_deterministic():
    a = qmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    b = qvec([6, 12, 2])
    r1 = solve(a, b)
    r2 = solve(a, b)
    assert r1.solution == r2.solution
    assert r1.kernel == r2.kernel


def test_sparse_path_used_above_dense_limit():
    # 70 columns forces the sparse fraction-free branch over Q
    n = 70
    entries = {}
    for i in range(n):
        entries[(i, i)] = Fraction(2)
        if i + 1 < n:
            entries[(i, i + 1)] = Fraction(1)
    a = Matrix(n, n, entries, RATIONALS)
    b = Vector(n, {0: Fraction(1)}, RATIONALS)
    res = solve(a, b)
    assert res.solution is not None and res.kernel == []
    assert a.apply(res.solution) == b
    inv_a = invert(a)
    assert inv_a is not None
    assert inv_a.compose(a) == identity_matrix(n, RATIONALS)


small_q = st.integers(min_value=-6, max_value=6).map(Fraction)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.lists(small_q, min_size=3, max_size=3), min_size=3, max_size=3))
def test_solver_self_consistency_random(rows):
    a = Matrix(
        3, 3,
        {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v},
        RATIONALS,
    )
    b = qvec([1, 0, 2])
    res = solve(a, b)
    if res.solution is not None:
        assert a.apply(res.solution) == b
    for v in res.kernel:
        assert a.apply(v).is_zero()
    assert len(res.kernel) + (3 - len(res.kernel)) == 3
    inv_a = invert(a)
    if inv_a is not None:
        assert a.compose(inv_a) == identity_matrix(3, RATIONALS)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=9, max_size=9))
def test_solver_self_consistency_f7(vals):
    entries = {}
    for idx, v in enumerate(vals):
        if v % 7:
            entries[(idx // 3, idx % 3)] = ModInt(v, 7)
    a = Matrix(3, 3, entries, F7)
    b = Vector(3, {0: ModInt(1, 7)}, F7)
    res = solve(a, b)
    if res.solution is not None:
        assert a.apply(res.solution) == b
    for v in res.kernel:
        assert a.apply(v).is_zero()
