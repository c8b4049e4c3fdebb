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

``_pdelta_rhs`` and ``leftharpoon`` are the loops ``posthopf`` ran before
it summed P-DELTA's right-hand side on the threefold legs and the bullet
table, and the left harpoon's inner sum once per (x, y_1): the side on the
fourfold legs, with x_1 . alpha_{x_2}(beta_{x_4}(e_p)) made from the
product and the action, and the harpoon term by term over the legs of x and
of y.  Each returns what its namesake in ``posthopf`` returns.

``_braided_mult`` is YD-BRAIDMULT as ``posthopf`` evaluated it before it
read row (a, b, 0) from P-DELTA's compare on a coassociative Delta: row 0
compares Delta(a.b) with the braided product summed on the braiding
columns, on every coproduct, and row 1 reads P-DELTA's failed set and
renders its witness from P-DELTA's right-hand side.  It records onto a
``Tally`` what its namesake records.

``_delta_by_induction`` and ``_gen_legs4`` are the coproduct induction
``builders`` ran before it summed Delta(u w) with P-DELTA's own side: the
term (l1 . alpha_l2(beta_l4(p))) (x) (l3 . q) over the fourfold legs of
the generator u, expanded inside the generator set, and the terms of
Delta(w).  It takes the generator data ``builders._delta_by_induction``
takes, less the counit, with beta and the action as rows of Vectors on
the unit and the generators and the product as a function of the left
factor's index to its left-multiplication matrix, and returns the
coproduct table ``builders._delta_by_induction`` returns.

``en_action`` and ``suzuki_action``, with ``_row_combination``, are the
action recursions the E(n) and Suzuki builders ran before they gave only
generator data (``builders._action_by_induction`` now extends the action
from it): each family's own recursion on x_i >- e_m, or its generator
images extended multiplicatively, and on the row of each monomial.  Each
takes a built structure, reads its parameters and product table, and
returns its action rows as Vectors and beta on the unit and the
generators, keyed by index.

``parse_trilinear`` is the reader ``structio`` ran before each distinct
token was converted once per file: every index and coefficient token of
every line goes through ``_parse_int`` and ``_parse_scalar_tok``, and every
cell through the ``Vector`` constructor.  It returns what
``structio._parse_trilinear`` returns, or raises the same ``ParseError``.

``posthopf_equal``, ``brace_equal`` and ``matched_pair_equal`` are the
tensor-exact equalities of two YD post-Hopf structures, braces or matched
pairs that the round-trip tests assert; no module of the package reads
them.

``forward_bareiss_q`` is the dense engine the solver once took over Q on
small systems; a test puts it in place of ``linalg._forward`` over Q to
solve the same system a second way.
"""

from itertools import combinations, product

from ydalgebra import posthopf
from ydalgebra.braces import MatchedPair, YDBrace
from ydalgebra.builders import _SUZ_BASIS
from ydalgebra.compiled import (
    _int, _scale, add_linear, compare, compile_tensor, int_bilinear as compiled_int_bilinear,
    int_linear as compiled_int_linear, int_vector, line, pairs_render, render_sides, sides, square, tensor_side,
    vector_render,
)
from ydalgebra.field import inv
from ydalgebra.hopf import ActionTensor, StructureError
from ydalgebra.linalg import Matrix, Vector, accumulate, matrix_from_columns, unit_vector
from ydalgebra.posthopf import YDPostHopf, _sharp_columns, bullet_algebra, ensure_beta
from ydalgebra.report import Tally
from ydalgebra.structio import ParseError, _parse_int, _parse_scalar_tok


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


def _pdelta_rhs(s):
    """The side (x_1 . alpha_{x_2}(beta_{x_4}(y_1))) (x) (x_3 . y_2) on the
    row (x,), summed over the fourfold legs of x, and its scale."""
    mul, act, beta = s.carrier.algebra.int_mul(), s.action.int_act(), ensure_beta(s).int_act()
    comul, legs = s.carrier.coalgebra.int_comul(), s.carrier.coalgebra.int_legs(4)
    m, x_, b_, c_, l_ = mul.rows, act.rows, beta.rows, comul.rows, legs.rows
    d, p = s.dim, s.field.p
    d2 = d * d
    memo: dict = {}  # (x_1, x_2, x_4) -> e_p -> x_1 . alpha_{x_2}(beta_{x_4}(e_p))

    def side(acc, prefix, w):
        i, = prefix
        get = acc.get
        for (a, b, c3, e), sc in l_[i]:
            fused = memo.setdefault((a, b, e), {})
            mc = m[c3]
            sc *= w
            for j, legs_j in enumerate(c_):
                base = j * d2
                for y1, y2, t in legs_j:
                    right = mc[y2]
                    if not right:
                        continue
                    v = fused.get(y1)
                    if v is None:
                        be = b_[e][y1]
                        v = fused[y1] = compiled_int_bilinear(
                            m, ((a, 1),), compiled_int_bilinear(x_, ((b, 1),), be, p), p) if be else []
                    st = sc * t
                    for k, n in v:
                        n *= st
                        k = base + k * d
                        for q, e2 in right:
                            key = k + q
                            acc[key] = get(key, 0) + n * e2

    return side, legs.scale * comul.scale * beta.scale * act.scale * mul.scale * mul.scale


def _braided_mult(t: Tally, s) -> None:
    """Both rows of YD-BRAIDMULT, each side summed: (a, b, 0) compares
    Delta(a.b) with the braided product, and (a, b, 1), where row 0
    passes, takes P-DELTA's verdict at (a, b), its witness rendered from
    P-DELTA's right-hand side."""
    d = s.dim
    (delta, sl), (mid, sm) = posthopf._product_delta(s), posthopf._braided_product_delta(s)
    rows = Tally()
    failed = set(compare(rows, line(d), d, d * d, sides(delta, mid), sl, sm, s.field, pairs_render(d)))
    t.absorb(rows, where=lambda w: w + (0,))
    delta_failed = posthopf._delta_identity(s)[1]
    rows = Tally()
    for where in square(d):
        if where in failed:
            continue
        if where in delta_failed and rows.witness is None:
            rhs, sr = posthopf._pdelta_rhs(s)
            rows.record(where, False, *render_sides(sides(mid, rhs), where, d * d, sm, sr, s.field,
                                                    pairs_render(d)))
        else:
            rows.record(where, where not in delta_failed)
    t.absorb(rows, where=lambda w: w + (1,))


def leftharpoon(s):
    """x -< y = S_>(x_1 >- y_1) o x_2 o y_2, summed for each (x, y) over the
    legs of x and of y."""
    act, bullet, sharp, comul = (s.action.int_act(), bullet_algebra(s).int_mul(), _sharp_columns(s),
                                 s.carrier.coalgebra.int_comul())
    x_, o, c_ = act.rows, bullet.rows, comul.rows
    d, fs, p = s.dim, s.field, s.field.p
    images = [[compiled_int_linear(sharp.rows, x_[i][j], p) for j in range(d)] for i in range(d)]
    scale = sharp.scale * act.scale * (bullet.scale * comul.scale) ** 2
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            acc: dict[int, int] = {}
            get = acc.get
            for i1, i2, ci in c_[i]:
                si = images[i1]
                for j1, j2, cj in c_[j]:
                    if not si[j1]:
                        continue
                    for r, a in compiled_int_bilinear(o, si[j1], ((i2, ci * cj),), p):
                        for q, b in o[r][j2]:
                            acc[q] = get(q, 0) + a * b
            row.append(int_vector(d, acc, scale, fs))
        rows.append(row)
    return ActionTensor(d, d, rows, fs)


def _gen_legs4(gen_delta, u, fs):
    """Four-legged coproduct of a generator, expanded inside the generator set."""
    legs = [((u,), fs.one)]
    for _ in range(3):
        acc = {}
        for tup, s in legs:
            for p, q, c in gen_delta[tup[0]]:
                accumulate(acc, (p, q) + tup[1:], s * c)
        legs = sorted(acc.items())
    return legs


def _delta_by_induction(dim, gen_delta, peel, alpha_gen, beta_gen, left_mul, fs):
    """Delta(u w), the sum of s c (l1 . alpha_l2(beta_l4(p))) (x) (l3 . q)
    over the four legs of u and the terms c p (x) q of Delta(w), summed as
    ints on the action rows and left products of the generators; each
    l1 . alpha_l2(beta_l4(p)) is made once."""
    gens = {u: k for k, u in enumerate(gen_delta)}
    alpha, beta = (compile_tensor([rows[u] for u in gens], fs) for rows in (alpha_gen, beta_gen))
    left = compile_tensor([[left_mul(u).column(t) for t in range(dim)] for u in gens], fs)
    legs4 = {u: [(tuple(gens[x] for x in tup), s) for tup, s in _gen_legs4(gen_delta, u, fs)] for u in gens}
    scale = left.scale ** 2 * alpha.scale * beta.scale
    fused: dict = {}  # (l1, l2, l4, p) -> l1 . alpha_l2(beta_l4(e_p))
    delta = [None] * dim
    for m in range(dim):
        if m in gen_delta:
            delta[m] = {(p, q): c for p, q, c in gen_delta[m]}
            continue
        u, w = peel[m]
        dw = delta[w]
        if dw is None:
            raise StructureError("peel order must follow the basis order")
        terms = [(legs, pq, s * c) for legs, s in legs4[u] for pq, c in dw.items()]
        den = _scale((sc for _, _, sc in terms), fs.p)
        acc: dict = {}
        for (l1, l2, l3, l4), (p, q), sc in terms:
            c = _int(sc, den, fs.p)
            if not c:
                continue
            v = fused.get((l1, l2, l4, p))
            if v is None:
                v = fused[(l1, l2, l4, p)] = compiled_int_linear(
                    left.rows[l1], compiled_int_linear(alpha.rows[l2], beta.rows[l4][p], fs.p), fs.p)
            tensor_side(v, left.rows[l3][q], dim)(acc, (), c)
        out = int_vector(dim * dim, acc, den * scale, fs)
        delta[m] = {divmod(key, dim): c for key, c in out.entries.items()}
    return [sorted((p, q, c) for (p, q), c in d.items()) for d in delta]


def _row_combination(row_of, v: Vector, dim: int, fs) -> list[Vector]:
    """Sum over v's (t, c) of c * row_of(t)[j], for each j < dim, summed as
    ints on the compiled rows row_of(t), t in v's support."""
    support = sorted(v.entries)
    rows = compile_tensor([row_of(t) for t in support], fs)
    den = _scale(v.entries.values(), fs.p)
    coeffs = [(k, _int(v.entries[t], den, fs.p)) for k, t in enumerate(support)]
    out = []
    for j in range(dim):
        acc: dict = {}
        add_linear(acc, [row[j] for row in rows.rows], coeffs, 1)
        out.append(int_vector(dim, acc, rows.scale * den, fs))
    return out


def en_action(s):
    """The action rows of a built E(n), and beta on its unit and
    generators, by the recursions ``build_en`` ran before the builders gave
    only generator data: x_i >- e_m peeled one letter at a time, and the
    row of x_i w from x_i >- (w >- e_j) - (g (x_i >- w)) >- e_j, on the
    product table of s."""
    alg, fs, dim = s.carrier.algebra, s.field, s.dim
    n = dim.bit_length() - 2
    A = [[s.params["k"]]] if n == 1 else [[s.params[f"A{i + 1}{j + 1}"] for j in range(n)] for i in range(n)]
    basis = [(g_exp, sub) for size in range(n + 1) for sub in combinations(range(1, n + 1), size)
             for g_exp in (0, 1)]
    index = {key: i for i, key in enumerate(basis)}
    g_idx = index[(1, ())]
    x_idx = {i: index[(0, (i,))] for i in range(1, n + 1)}

    def mul_by(m: int, v: Vector) -> Vector:
        return mul_vec(alg, unit_vector(dim, m, fs), v)

    def alpha_g_vec(v: Vector) -> Vector:
        return Vector(dim, {t: -c if len(basis[t][1]) % 2 else c for t, c in v.entries.items()}, fs)

    act_xi_cache: dict = {}

    def act_xi(i: int, m: int) -> Vector:
        got = act_xi_cache.get((i, m))
        if got is not None:
            return got
        g_exp, sub = basis[m]
        if g_exp == 1:
            res = mul_by(g_idx, act_xi(i, index[(0, sub)]))
        elif not sub:
            res = Vector(dim, {}, fs)
        else:
            j, rest = sub[0], sub[1:]
            aij = A[i - 1][j - 1]
            if not rest:
                res = Vector(dim, {0: aij, g_idx: -aij}, fs)
            else:
                res = Vector(dim, {index[(0, rest)]: aij, index[(1, rest)]: -aij}, fs)
                res = res.add(mul_by(x_idx[j], act_xi(i, index[(0, rest)])).neg())
        act_xi_cache[(i, m)] = res
        return res

    alpha_gen = {0: [unit_vector(dim, j, fs) for j in range(dim)],
                 g_idx: [alpha_g_vec(unit_vector(dim, j, fs)) for j in range(dim)]}
    beta_gen = dict(alpha_gen)
    for i in range(1, n + 1):
        alpha_gen[x_idx[i]] = [act_xi(i, j) for j in range(dim)]
        beta_gen[x_idx[i]] = [alpha_g_vec(v).neg() for v in alpha_gen[x_idx[i]]]
    rows: list = [None] * dim
    alpha_mats = {m: matrix_from_columns(row, fs) for m, row in alpha_gen.items()}

    def act_row(m: int) -> list[Vector]:
        got = rows[m]
        if got is not None:
            return got
        g_exp, sub = basis[m]
        if m in alpha_gen:
            res = alpha_gen[m]
        elif g_exp == 1:
            sign = -fs.one if len(sub) % 2 else fs.one
            res = [alpha_g_vec(v).scale(sign) for v in act_row(index[(0, sub)])]
        else:
            i, rest = sub[0], sub[1:]
            w_idx = index[(0, rest)]
            corr = _row_combination(act_row, mul_by(g_idx, act_xi(i, w_idx)), dim, fs)
            res = [alpha_mats[x_idx[i]].apply(v).sub(c) for v, c in zip(act_row(w_idx), corr)]
        rows[m] = res
        return res

    return [act_row(m) for m in range(dim)], beta_gen


def suzuki_action(s):
    """The action rows of a built Suzuki structure, and beta (= alpha) on
    its unit and generators, by the recursions ``build_suzuki`` ran before
    the builders gave only generator data: alpha_a and alpha_d extended
    multiplicatively from their generator images, and the row of a w from
    a >- ((alpha_a w) >- z), on the product table of s."""
    alg, fs, dim = s.carrier.algebra, s.field, s.dim
    al, be = s.params["alpha"], s.params["beta"]
    al_i, be_i = inv(al), inv(be)
    index = {key: i for i, key in enumerate(_SUZ_BASIS)}
    a_, b_, c_, d_ = (index[key] for key in (("A", 1, 0), ("B", 1, 0), ("B", 0, 1), ("A", 0, 1)))

    def morphism_row(images: dict) -> list[Vector]:
        row = []
        for s_, m_, d in _SUZ_BASIS:
            head, tail = (images[a_], images[d_]) if s_ == "A" else (images[b_], images[c_])
            acc = unit_vector(dim, 0, fs)
            for _ in range(m_):
                acc = mul_vec(alg, acc, head)
            for _ in range(d):
                acc = mul_vec(alg, acc, tail)
            row.append(acc)
        return row

    def images(to_c, to_b) -> dict:
        return {a_: unit_vector(dim, d_, fs), d_: unit_vector(dim, a_, fs),
                b_: Vector(dim, {c_: to_c}, fs), c_: Vector(dim, {b_: to_b}, fs)}

    row_a = morphism_row(images(al_i * be, al * be_i))
    row_d = morphism_row(images(al * be_i, al_i * be))
    zero_row = [Vector(dim, {}, fs) for _ in range(dim)]
    alpha_gen = {0: [unit_vector(dim, j, fs) for j in range(dim)], a_: row_a, d_: row_d, b_: zero_row, c_: zero_row}
    rows: list = [None] * dim
    alpha_a = matrix_from_columns(row_a, fs)

    def act_row(m: int) -> list[Vector]:
        got = rows[m]
        if got is not None:
            return got
        s_, m_, d = _SUZ_BASIS[m]
        if m in alpha_gen:
            res = alpha_gen[m]
        elif s_ == "B":
            res = zero_row
        else:
            w_idx = index[("A", m_ - 1, d)]
            res = [alpha_a.apply(v) for v in _row_combination(act_row, row_a[w_idx], dim, fs)]
        rows[m] = res
        return res

    return [act_row(m) for m in range(dim)], dict(alpha_gen)


def parse_trilinear(lines, key: str, d1: int, d2: int, d3: int, field, required: bool = True):
    """rows[i][j] = sum of c e_k over the ``key i j k c`` lines of a
    ``structio._Lines``, each token read where it stands."""
    got = lines.rows(key)
    if required and not got:
        raise ParseError(f"missing {key} entries")
    rows = [[{} for _ in range(d2)] for _ in range(d1)]
    last = (-1, -1, -1)
    for ln, args in got:
        if len(args) != 4:
            raise ParseError(f"{key} takes three indices and a coefficient", ln)
        i = _parse_int(args[0], ln, d1)
        j = _parse_int(args[1], ln, d2)
        k = _parse_int(args[2], ln, d3)
        if (i, j, k) <= last:
            raise ParseError(f"{key} triples must be strictly sorted", ln)
        last = (i, j, k)
        rows[i][j][k] = _parse_scalar_tok(args[3], field, ln)
    return [[Vector(d3, cell, field) for cell in row] for row in rows]


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


def posthopf_equal(a: YDPostHopf, b: YDPostHopf) -> bool:
    """Tensor-exact equality of carrier, action and beta."""
    return (
        a.carrier.algebra.mul == b.carrier.algebra.mul
        and a.carrier.algebra.unit == b.carrier.algebra.unit
        and a.carrier.coalgebra.comul == b.carrier.coalgebra.comul
        and a.carrier.coalgebra.counit == b.carrier.coalgebra.counit
        and a.carrier.s_map == b.carrier.s_map
        and a.action.act == b.action.act
        and (a.beta is None) == (b.beta is None)
        and (a.beta is None or a.beta.act == b.beta.act)
    )


def brace_equal(a: YDBrace, b: YDBrace) -> bool:
    return (
        a.dot_side.algebra.mul == b.dot_side.algebra.mul
        and a.dot_side.s_map == b.dot_side.s_map
        and a.dot_side.coalgebra == b.dot_side.coalgebra
        and a.bullet_side.algebra.mul == b.bullet_side.algebra.mul
        and a.bullet_side.antipode == b.bullet_side.antipode
    )


def matched_pair_equal(a: MatchedPair, b: MatchedPair) -> bool:
    return (
        a.hopf.algebra.mul == b.hopf.algebra.mul
        and a.hopf.antipode == b.hopf.antipode
        and a.hopf.coalgebra == b.hopf.coalgebra
        and a.left_action.act == b.left_action.act
        and a.right_action.act == b.right_action.act
    )
