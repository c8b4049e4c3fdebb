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

``module_law`` and ``module_algebra_law`` are the contracts ``hopf`` ran
on the compiled tables before they read operand lists built once per call:
they walk every h >- f_a of a row, and multiply the summed c (h_1 >- a) by
h_2 >- b and a product row of the algebra for every b.  Each returns the
``Tally`` its law of the same name returns.

``forward_bareiss_q`` is the dense engine the solver once took over Q on
small systems; a test puts it in place of ``linalg._forward_sparse_q`` to
solve the same system a second way.
"""

from itertools import product

from ydalgebra.compiled import compare, int_linear as compiled_int_linear, vector_render
from ydalgebra.linalg import Matrix, Vector, accumulate
from ydalgebra.report import Tally


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


def module_law(act, alg) -> Tally:
    """(g.h) >- a = g >- (h >- a) at (g, h, a), one row (g, h) per contract
    call, reading x_[r][a] and x_[h][a] for every a."""
    x, mul = act.int_act(), alg.int_mul()
    x_, m = x.rows, mul.rows
    dh, dk = act.acting_dim, act.target_dim

    def law(acc, prefix, wl, wr):
        g, h = prefix
        get = acc.get
        if wl:
            for r, c in m[g][h]:
                c *= wl
                for a, xra in enumerate(x_[r]):
                    base = a * dk
                    for q, e in xra:
                        q += base
                        acc[q] = get(q, 0) + c * e
        if wr:
            xg = x_[g]
            for a, xha in enumerate(x_[h]):
                base = a * dk
                for r, c in xha:
                    c *= wr
                    for q, e in xg[r]:
                        q += base
                        acc[q] = get(q, 0) + c * e

    t = Tally()
    compare(t, product(range(dh), range(dh)), dk, dk, law, mul.scale * x.scale, x.scale * x.scale,
            act.field, vector_render(dk))
    return t


def module_algebra_law(act, coalg, alg, swap: bool = False) -> Tally:
    """h >- (a.b) = (h_1 >- a).(h_2 >- b) at (h, a, b), one row (h, a) per
    contract call: the legs of h grouped by h_2, c (h_1 >- a) summed once per
    group, then multiplied by h_2 >- b and m[r] for every b.  With swap, h_1
    and h_2 trade places on the right."""
    x, mul, comul = act.int_act(), alg.int_mul(), coalg.int_comul()
    x_, m, c_ = x.rows, mul.rows, comul.rows
    dh, dk, p = act.acting_dim, act.target_dim, act.field.p
    groups = []
    for legs in c_:
        by_b: dict = {}
        for i1, i2, c in legs:
            if swap:
                i1, i2 = i2, i1
            by_b.setdefault(i2, []).append((i1, c))
        groups.append(list(by_b.items()))

    def law(acc, prefix, wl, wr):
        i, j = prefix
        get = acc.get
        if wl:
            xi = x_[i]
            for k, mjk in enumerate(m[j]):
                base = k * dk
                for r, a in mjk:
                    a *= wl
                    for q, b in xi[r]:
                        q += base
                        acc[q] = get(q, 0) + a * b
        if wr:
            xj = [row[j] for row in x_]
            for i2, lefts in groups[i]:
                u = [(r, a * wr) for r, a in compiled_int_linear(xj, lefts, p)]
                if not u:
                    continue
                for k, right in enumerate(x_[i2]):
                    base = k * dk
                    for r, a in u:
                        mr = m[r]
                        for v, b in right:
                            w = a * b
                            for q, e in mr[v]:
                                q += base
                                acc[q] = get(q, 0) + w * e

    t = Tally()
    compare(t, product(range(dh), range(dk)), dk, dk, law, mul.scale * x.scale,
            comul.scale * x.scale * x.scale * mul.scale, act.field, vector_render(dk))
    return t


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
