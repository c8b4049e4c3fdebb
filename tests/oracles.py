"""The ``Vector``-path contraction helpers, kept as term-by-term oracles,
and the dense Bareiss engine, kept as a reference elimination.

The package sums every contraction on compiled int tables (``compiled``).
These are the loops it used to run on ``Vector`` entries, written with the
field's scalar operators one term at a time, so that a test can hold a
compiled result to a sum it computes another way.  Each returns what the
deleted method or helper of the same name returned: a ``Vector``, or a
dict keyed by index pairs for a coproduct or a tensor.

``int_items``, ``int_linear`` and ``int_bilinear`` are the compiled
kernels as they were before their fast paths: every call sums into a dict
and reduces it in a second pass, so a test can hold the empty-operand and
one-term exits to the general loop.

``forward_bareiss_q`` is the dense engine the solver once took over Q on
small systems; a test puts it in place of ``linalg._forward_sparse_q`` to
solve the same system a second way.
"""

from ydalgebra.linalg import Matrix, Vector, accumulate


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


def matrix_add(m, n):
    """m + n, entry by entry (the deleted ``Matrix.add``)."""
    out = dict(m.entries)
    for k, c in n.entries.items():
        accumulate(out, k, c)
    return Matrix(m.rows, m.cols, out, m.field)


def matrix_scale(m, c):
    """c m (the deleted ``Matrix.scale``)."""
    return Matrix(m.rows, m.cols, {k: v * c for k, v in m.entries.items()} if c else {}, m.field)


def int_items(acc: dict, p):
    """The (k, n) of int sums whose n is not 0, reduced mod p over F_p."""
    if p is None:
        return [(k, n) for k, n in acc.items() if n]
    return [(k, n) for k, n in ((k, n % p) for k, n in acc.items()) if n]


def int_linear(rows: list, u, p):
    """The nonzero (k, n) of sum over u's (i, a) of a * rows[i], through a
    dict of sums."""
    acc: dict = {}
    get = acc.get
    for i, a in u:
        for k, c in rows[i]:
            acc[k] = get(k, 0) + a * c
    return int_items(acc, p)


def int_bilinear(table: list, u, v, p):
    """The nonzero (k, n) of sum over u's (i, a) and v's (j, b) of
    a * b * table[i][j], through a dict of sums."""
    acc: dict = {}
    get = acc.get
    for i, a in u:
        row = table[i]
        for j, b in v:
            ab = a * b
            for k, c in row[j]:
                acc[k] = get(k, 0) + ab * c
    return int_items(acc, p)


def forward_bareiss_q(rows: list, ncols: int):
    """Classic Bareiss elimination on dense list rows, the carried columns
    included: every entry stays a minor of the system, so each division by
    the previous pivot is exact on those columns too.  Returns the echelon
    rows, pivot rows first, and the pivot (row, col) list, as the sparse
    engines do."""
    width = max([ncols, *(max(r) + 1 for r in rows if r)])
    m = [[r.get(c, 0) for c in range(width)] for r in rows]
    pivots = []
    prev = 1
    rank = 0
    for col in range(ncols):
        sel = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        pl = m[rank][col]
        for i in range(rank + 1, len(m)):
            rl = m[i][col]
            row, prow = m[i], m[rank]
            for c in range(col, width):
                row[c] = (row[c] * pl - prow[c] * rl) // prev
        pivots.append((rank, col))
        prev = pl
        rank += 1
    out = [{c: v for c, v in enumerate(row) if v} for row in m]
    return [d for d in out if d], pivots
