"""The ``Vector``-path contraction helpers, kept as term-by-term oracles.

The package sums every contraction on compiled int tables (``compiled``).
These are the loops it used to run on ``Vector`` entries, written with the
field's scalar operators one term at a time, so that a test can hold a
compiled result to a sum it computes another way.  Each returns what the
deleted method or helper of the same name returned: a ``Vector``, or a
dict keyed by index pairs for a coproduct or a tensor.
"""

from ydalgebra.linalg import Vector, accumulate


def add_scaled_inplace(acc: dict, v: Vector, *cs) -> None:
    """acc += c * v on a raw entry dict, for c the product of cs."""
    c = cs[0]
    for x in cs[1:]:
        c = c * x
    for k, w in v.entries.items():
        accumulate(acc, k, w * c)


def bilinear(table, u: Vector, v: Vector, dim: int, field) -> Vector:
    """The sum over u's (i, a) and v's (j, b) of a * b * table[i][j]."""
    acc: dict = {}
    for i, a in u.entries.items():
        for j, b in v.entries.items():
            add_scaled_inplace(acc, table[i][j], a, b)
    return Vector(dim, acc, field)


def mul_vec(alg, u: Vector, v: Vector) -> Vector:
    """u . v in alg."""
    return bilinear(alg.mul, u, v, alg.dim, alg.field)


def act_apply(act, u: Vector, v: Vector) -> Vector:
    """u >- v for an ``ActionTensor``."""
    return bilinear(act.act, u, v, act.target_dim, act.field)


def apply_basis(act, i: int, v: Vector) -> Vector:
    """e_i >- v."""
    acc: dict = {}
    for j, c in v.entries.items():
        add_scaled_inplace(acc, act.act[i][j], c)
    return Vector(act.target_dim, acc, act.field)


def apply_vec_basis(act, u: Vector, k: int) -> Vector:
    """u >- f_k."""
    acc: dict = {}
    for i, a in u.entries.items():
        add_scaled_inplace(acc, act.act[i][k], a)
    return Vector(act.target_dim, acc, act.field)


def pulled_back(act, xs: list):
    """The action of the vectors xs by index: e_i >- f_j := xs[i] >- f_j."""
    from ydalgebra.hopf import ActionTensor

    d = act.target_dim
    return ActionTensor(len(xs), d, [[apply_vec_basis(act, x, j) for j in range(d)] for x in xs], act.field)


def comul_vec(coalg, v: Vector) -> dict:
    """Delta(v), keyed by index pairs."""
    acc: dict = {}
    for i, c in v.entries.items():
        for j, k, s in coalg.comul[i]:
            accumulate(acc, (j, k), s * c)
    return acc


def eps_vec(coalg, v: Vector):
    """eps(v)."""
    acc = coalg.field.zero
    for i, c in v.entries.items():
        acc = acc + c * coalg.eps(i)
    return acc


def tens2(u: Vector, v: Vector) -> dict:
    """u (x) v, keyed by index pairs."""
    return {(i, j): a * b for i, a in u.entries.items() for j, b in v.entries.items()}


def bracket_vec(lie, u: Vector, v: Vector) -> Vector:
    """[u, v] for a ``LieData`` or the bracket of a ``PostLieData``."""
    return bilinear(lie.bracket, u, v, lie.dim, lie.field)


def matrix_apply(m, v: Vector) -> Vector:
    """m v, as the sum over v's (j, c) of c times column j of m."""
    acc: dict = {}
    for j, c in v.entries.items():
        add_scaled_inplace(acc, m.column(j), c)
    return Vector(m.rows, acc, m.field)
