"""Built-in example structures as exact structure-constant data.

Each builder assembles its tables from generator data (finite monomial
rewriting with a canonical monomial order, action extension along the
structural identities, antipodes solved from their convolution systems)
and then runs the full axiom suite on the result before returning it --
builders are self-certifying, nothing is assumed confluent or consistent.

The coproduct is extended from the generators to every monomial by
P-DELTA's own right-hand side (``posthopf._pdelta_side``), which needs
beta on the generators.  E(n) reads it off the convolution identity: from
Delta(x_i) = x_i (x) 1 + g (x) x_i, (alpha * beta)(x_i) = alpha_{x_i} +
alpha_g o beta_{x_i} = 0, and alpha_g is an involution, so beta_{x_i} =
-alpha_g o alpha_{x_i}.  The beta the structure keeps is solved on its own
afterwards, as alpha o S_>.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .compiled import IntTable, _int, _scale, add_linear, compile_columns, compile_tensor, int_vector
from .field import FieldSpec, RATIONALS, Scalar, inv as scalar_inv
from .hopf import (
    ActionTensor,
    AlgebraData,
    BraidedPair,
    CoalgebraData,
    HopfData,
    StructureError,
    column_matrix,
    convolve,
    left_products,
    one_column,
    pulled_back,
    solve_antipode,
    table_action,
    table_algebra,
)
from .linalg import Matrix, Vector, accumulate, matrix_from_columns, unit_vector
from .posthopf import YDPostHopf, _fill_beta, _pdelta_side, bullet_algebra, check_yd_post_hopf
from .rota import GroupRB, GroupTable, check_group_rb


def _coerce(field: FieldSpec, x) -> Scalar:
    if isinstance(x, (int, Fraction)):
        return field.scalar(x.numerator, x.denominator)
    if field.contains(x):
        return x
    raise StructureError(f"scalar {x!r} does not live in the requested field")


def _certify(s: YDPostHopf, name: str) -> YDPostHopf:
    """s, or ``StructureError`` with the timing-free machine report when s
    fails the post-Hopf suite, so the message is the same on every run."""
    rep = check_yd_post_hopf(s)
    if not rep.all_pass():
        raise StructureError(f"builder {name} produced an invalid structure:\n{rep.machine_text()}")
    return s


def _finish(labels: list[str], left_mul, comul, counit: Vector, act_row, params: dict,
            name: str, fs: FieldSpec) -> YDPostHopf:
    """The tail of the E(n) and Suzuki builders, basis element 0 the unit:
    the product from the left multiplications, the braided antipode, the
    action from its rows act_row(m), beta = alpha o S_> from the subadjacent
    antipode S_>, then ``_certify``."""
    dim = len(labels)
    mul = [[left_mul(i).column(j) for j in range(dim)] for i in range(dim)]
    alg = AlgebraData(dim, labels, mul, unit_vector(dim, 0, fs), fs)
    coalg = CoalgebraData(dim, comul, counit, fs)
    s_map = solve_antipode(alg, coalg)
    if s_map is None:
        raise StructureError("the braided antipode system is inconsistent")
    action = ActionTensor(dim, dim, [act_row(m) for m in range(dim)], fs)
    s = YDPostHopf(BraidedPair(alg, coalg, s_map), action, None, params=params)
    sharp = solve_antipode(bullet_algebra(s), coalg)
    if sharp is None:
        raise StructureError("the subadjacent antipode system is inconsistent")
    _fill_beta(s, pulled_back(action, compile_columns(sharp)))
    return _certify(s, name)


# --- generic coproduct induction -------------------------------------------


def _delta_by_induction(dim, gen_delta, counit, peel, alpha_gen, beta_gen, left_mul, fs):
    """Extend the coproduct from generators to all monomials through the
    braided compatibility of the coproduct with the product.

    gen_delta: coproduct of the unit and each generator, by index.
    counit: the counit of the whole carrier.
    peel: index -> (generator index, tail index) for every other monomial.
    alpha_gen / beta_gen: full action rows of the unit and the generators.
    left_mul: index -> the matrix of left multiplication by that monomial.

    Delta(u w) is P-DELTA's right-hand side at (u, w), summed by
    ``posthopf._pdelta_side`` with Delta(w) as its one y term, on the
    coalgebra of the generators (their coproducts, empty on every other
    monomial): its threefold legs, and its left products, alpha, beta and
    bullet product L * alpha compiled with one row per basis element, empty
    off the generators.
    """
    gen_coalg = CoalgebraData(dim, [gen_delta.get(m, []) for m in range(dim)], counit, fs)
    left = compile_tensor([[left_mul(u).column(t) for t in range(dim)] if u in gen_delta else []
                           for u in range(dim)], fs)
    alpha, beta = (compile_tensor([rows.get(u, []) for u in range(dim)], fs) for rows in (alpha_gen, beta_gen))
    bullet = convolve(left, alpha, gen_coalg)
    legs = gen_coalg.int_legs(3)
    scale = legs.scale * beta.scale * bullet.scale * left.scale
    delta: list[list | None] = [None] * dim
    for m in range(dim):
        if m in gen_delta:
            delta[m] = gen_coalg.comul[m]
            continue
        u, w = peel[m]
        dw = delta[w]
        if dw is None:
            raise StructureError("peel order must follow the basis order")
        den = _scale((c for _, _, c in dw), fs.p)
        ylegs = [[(y1, y2, _int(c, den, fs.p)) for y1, y2, c in dw]]
        acc: dict[int, int] = {}
        _pdelta_side(legs.rows, bullet.rows, beta.rows, left.rows, ylegs, dim, fs.p)(acc, (u,), 1)
        out = int_vector(dim * dim, acc, den * scale, fs)
        delta[m] = sorted((*divmod(key, dim), c) for key, c in out.entries.items())
    return delta


def _row_combination(row_of, v: Vector, dim: int, fs: FieldSpec) -> list[Vector]:
    """Sum over v's (t, c) of c * row_of(t)[j], for each j < dim, summed as
    ints on the compiled rows row_of(t), t in v's support."""
    support = sorted(v.entries)
    rows = compile_tensor([row_of(t) for t in support], fs)
    den = _scale(v.entries.values(), fs.p)
    coeffs = [(k, _int(v.entries[t], den, fs.p)) for k, t in enumerate(support)]
    out = []
    for j in range(dim):
        acc: dict[int, int] = {}
        add_linear(acc, [row[j] for row in rows.rows], coeffs, 1)
        out.append(int_vector(dim, acc, rows.scale * den, fs))
    return out


# --- E(n) family (Sweedler is n = 1) ----------------------------------------


def build_en(n: int, a_matrix, field: FieldSpec = RATIONALS) -> YDPostHopf:
    """Braided carrier on g, x_1..x_n with g.g = 1, x_i.g = g.x_i and
    x_i.x_j + x_j.x_i = 2 A_ij (1 - g), action extended from the generator
    diagram; dimension 2^(n+1)."""
    if field.characteristic == 2:
        raise StructureError("these structures need characteristic not 2")
    if n < 1:
        raise StructureError("n must be at least 1")
    A = [[_coerce(field, a_matrix[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if A[i][j] != A[j][i]:
                raise StructureError("the coefficient matrix must be symmetric")
    fs = field
    one = fs.one
    basis: list[tuple[int, tuple[int, ...]]] = []
    for size in range(n + 1):
        for sub in combinations(range(1, n + 1), size):
            for g_exp in (0, 1):
                basis.append((g_exp, sub))
    dim = len(basis)
    index = {key: i for i, key in enumerate(basis)}

    def gen_name(i: int) -> str:
        return "x" if n == 1 else f"x{i}"

    def label(key) -> str:
        g_exp, sub = key
        parts = (["g"] if g_exp else []) + [gen_name(i) for i in sub]
        return "*".join(parts) if parts else "1"

    labels = [label(key) for key in basis]
    g_idx = index[(1, ())]
    x_idx = {i: index[(0, (i,))] for i in range(1, n + 1)}

    def reduce_word(g_exp: int, word: tuple[int, ...], coeff: Scalar, out: dict):
        for t in range(len(word) - 1):
            i, j = word[t], word[t + 1]
            if i < j:
                continue
            pre, post = word[:t], word[t + 2:]
            aij = A[i - 1][j - 1]
            if i == j:
                if aij:
                    reduce_word(g_exp, pre + post, coeff * aij, out)
                    reduce_word(g_exp + 1, pre + post, -(coeff * aij), out)
                return
            reduce_word(g_exp, pre + (j, i) + post, -coeff, out)
            if aij:
                two = coeff * aij * fs.scalar(2)
                reduce_word(g_exp, pre + post, two, out)
                reduce_word(g_exp + 1, pre + post, -two, out)
            return
        accumulate(out, (g_exp % 2, word), coeff)

    left_cache: dict[int, Matrix] = {}

    def left_mul(m: int) -> Matrix:
        got = left_cache.get(m)
        if got is None:
            entries = {}
            for t in range(dim):
                (a1, s1), (a2, s2) = basis[m], basis[t]
                out: dict = {}
                reduce_word(a1 + a2, s1 + s2, one, out)
                entries.update(((index[key], t), c) for key, c in out.items())
            got = left_cache[m] = Matrix(dim, dim, entries, fs)
        return got

    def mul_by(m: int, v: Vector) -> Vector:
        return left_mul(m).apply(v)

    def alpha_g_vec(v: Vector) -> Vector:
        out = {}
        for t, c in v.entries.items():
            sign = -c if len(basis[t][1]) % 2 else c
            out[t] = sign
        return Vector(dim, out, fs)

    act_xi_cache: dict[tuple[int, int], Vector] = {}

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
                w_lo, w_hi = index[(0, rest)], index[(1, rest)]
                res = Vector(dim, {w_lo: aij, w_hi: -aij}, fs)
                res = res.add(mul_by(x_idx[j], act_xi(i, index[(0, rest)])).neg())
        act_xi_cache[(i, m)] = res
        return res

    # full action rows of the unit and the generators, for the coproduct induction
    alpha_gen: dict[int, list[Vector]] = {
        0: [unit_vector(dim, j, fs) for j in range(dim)],
        g_idx: [alpha_g_vec(unit_vector(dim, j, fs)) for j in range(dim)],
    }
    beta_gen: dict[int, list[Vector]] = {
        0: alpha_gen[0],
        g_idx: alpha_gen[g_idx],
    }
    for i in range(1, n + 1):
        alpha_gen[x_idx[i]] = [act_xi(i, j) for j in range(dim)]
        # (alpha * beta)(x_i) = alpha_{x_i} + alpha_g o beta_{x_i} = 0, alpha_g an involution
        beta_gen[x_idx[i]] = [alpha_g_vec(v).neg() for v in alpha_gen[x_idx[i]]]

    gen_delta = {
        0: [(0, 0, one)],
        g_idx: [(g_idx, g_idx, one)],
    }
    for i in range(1, n + 1):
        gen_delta[x_idx[i]] = [(x_idx[i], 0, one), (g_idx, x_idx[i], one)]
    peel = {}
    for m, (g_exp, sub) in enumerate(basis):
        if m in gen_delta:
            continue
        if g_exp == 1:
            peel[m] = (g_idx, index[(0, sub)])
        else:
            peel[m] = (x_idx[sub[0]], index[(0, sub[1:])])
    counit = Vector(dim, {index[(a, ())]: one for a in (0, 1)}, fs)
    comul = _delta_by_induction(dim, gen_delta, counit, peel, alpha_gen, beta_gen, left_mul, fs)

    # full action rows for every basis monomial
    rows: list[list[Vector] | None] = [None] * dim
    alpha_mats = {m: matrix_from_columns(row, fs) for m, row in alpha_gen.items()}

    def act_row(m: int) -> list[Vector]:
        got = rows[m]
        if got is not None:
            return got
        g_exp, sub = basis[m]
        if m in alpha_gen:
            res = alpha_gen[m]
        elif g_exp == 1:
            base = act_row(index[(0, sub)])
            sign = -one if len(sub) % 2 else one
            res = [alpha_g_vec(v).scale(sign) for v in base]
        else:
            # x_i w >- e_j = x_i >- (w >- e_j) - (g (x_i >- w)) >- e_j
            i, rest = sub[0], sub[1:]
            w_idx = index[(0, rest)]
            corr = _row_combination(act_row, mul_by(g_idx, act_xi(i, w_idx)), dim, fs)
            res = [alpha_mats[x_idx[i]].apply(v).sub(c) for v, c in zip(act_row(w_idx), corr)]
        rows[m] = res
        return res

    params = {"k": A[0][0]} if n == 1 else {
        f"A{i + 1}{j + 1}": A[i][j] for i in range(n) for j in range(n)
    }
    return _finish(labels, left_mul, comul, counit, act_row, params, f"en(n={n})", fs)


def build_sweedler(k, field: FieldSpec = RATIONALS) -> YDPostHopf:
    """The four-dimensional braided carrier on 1, g, x, g*x with
    x.x = k(1-g); identical to build_en(1, [[k]])."""
    return build_en(1, [[k]], field)


# --- Suzuki family -----------------------------------------------------------

_SUZ_BASIS = [
    ("A", 0, 0),
    ("A", 1, 0), ("B", 1, 0), ("B", 0, 1), ("A", 0, 1),
    ("A", 2, 0), ("A", 1, 1), ("B", 2, 0), ("B", 1, 1),
    ("A", 3, 0), ("A", 2, 1), ("B", 3, 0), ("B", 2, 1),
    ("A", 4, 0), ("A", 3, 1), ("B", 3, 1),
]

_SUZ_LABELS = [
    "1", "a", "b", "c", "d",
    "a^2", "a*d", "b^2", "b*c",
    "a^3", "a^2*d", "b^3", "b^2*c",
    "a^4", "a^3*d", "b^3*c",
]


def build_suzuki(alpha, beta, field: FieldSpec = RATIONALS) -> YDPostHopf:
    """Closure of 1, a, b, c, d under a.a = d.d, c.c = (alpha/beta) b.b,
    the eight zero products and matrix-style coproduct; the antipode
    identity forces alpha^2 beta^2 a^4 + alpha^5 beta^{-1} b^4 = 1, which
    closes the monomial chains at dimension 16."""
    if field.characteristic == 2:
        raise StructureError("these structures need characteristic not 2")
    al = _coerce(field, alpha)
    be = _coerce(field, beta)
    if not al or not be:
        raise StructureError("both parameters must be invertible")
    fs = field
    one = fs.one
    al_i = scalar_inv(al)
    be_i = scalar_inv(be)
    qa = al_i * al_i * be_i * be_i              # a^5 = qa * a
    cb = al * be_i                              # c.c = cb * b.b
    b4_unit = al_i ** 2 * al_i ** 2 * al_i * be  # b^4 head coefficient on 1
    b4_a4 = -(al_i * al_i * al_i * be * be * be)  # and on a^4

    dim = len(_SUZ_BASIS)
    index = {key: i for i, key in enumerate(_SUZ_BASIS)}
    UNIT = index[("A", 0, 0)]
    A_ = index[("A", 1, 0)]
    B_ = index[("B", 1, 0)]
    C_ = index[("B", 0, 1)]
    D_ = index[("A", 0, 1)]
    A4 = index[("A", 4, 0)]

    def reduce_a(m: int, dd: int, coeff: Scalar, out: dict):
        while m >= 5 or (dd == 1 and m >= 4):
            m -= 4
            coeff = coeff * qa
        accumulate(out, ("A", m, dd), coeff)

    def reduce_b(m: int, dd: int, coeff: Scalar, out: dict):
        if m >= 4:
            if m == 4 and dd == 0:
                accumulate(out, ("A", 0, 0), coeff * b4_unit)
                accumulate(out, ("A", 4, 0), coeff * b4_a4)
                return
            # b^m c^dd with m > 4 or dd = 1: only the scalar branch of b^4
            # survives, the a^4 branch hits a zero mixed product
            reduce_b(m - 4, dd, coeff * b4_unit, out)
            return
        accumulate(out, ("A", 0, 0) if m + dd == 0 else ("B", m, dd), coeff)

    def mul_terms(k1, k2) -> dict:
        s1, m1, d1 = k1
        s2, m2, d2 = k2
        out: dict = {}
        if m1 + d1 == 0 and s1 == "A":
            out[k2] = one
            return out
        if m2 + d2 == 0 and s2 == "A":
            out[k1] = one
            return out
        if s1 != s2:
            return out
        if s1 == "A":
            m, dd = m1 + m2, d1 + d2
            coeff = one
            if dd == 2:
                m, dd = m + 2, 0
            reduce_a(m, dd, coeff, out)
            return out
        m, dd = m1 + m2, d1 + d2
        coeff = one
        if dd == 2:
            m, dd = m + 2, 0
            coeff = coeff * cb
        reduce_b(m, dd, coeff, out)
        return out

    left_cache: dict[int, Matrix] = {}

    def left_mul(i: int) -> Matrix:
        got = left_cache.get(i)
        if got is None:
            cols = [mul_terms(_SUZ_BASIS[i], key) for key in _SUZ_BASIS]
            got = left_cache[i] = Matrix(dim, dim, {(index[k], j): c for j, out in enumerate(cols)
                                                    for k, c in out.items()}, fs)
        return got

    def dict_mul(t1: dict, t2: dict) -> dict:
        out: dict = {}
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                for k3, c3 in mul_terms(k1, k2).items():
                    accumulate(out, k3, c1 * c2 * c3)
        return out

    def morphism_row(images: dict) -> list[Vector]:
        """Extend generator images multiplicatively to all monomials."""
        row = []
        for s_, m_, d_ in _SUZ_BASIS:
            if s_ == "A":
                head, tail = images[("A", 1, 0)], images[("A", 0, 1)]
            else:
                head, tail = images[("B", 1, 0)], images[("B", 0, 1)]
            acc = {("A", 0, 0): one}
            for _ in range(m_):
                acc = dict_mul(acc, head)
            for _ in range(d_):
                acc = dict_mul(acc, tail)
            row.append(Vector(dim, {index[k]: c for k, c in acc.items()}, fs))
        return row

    img_a = {
        ("A", 1, 0): {("A", 0, 1): one},
        ("A", 0, 1): {("A", 1, 0): one},
        ("B", 1, 0): {("B", 0, 1): al_i * be},
        ("B", 0, 1): {("B", 1, 0): al * be_i},
    }
    img_d = {
        ("A", 1, 0): {("A", 0, 1): one},
        ("A", 0, 1): {("A", 1, 0): one},
        ("B", 1, 0): {("B", 0, 1): al * be_i},
        ("B", 0, 1): {("B", 1, 0): al_i * be},
    }
    row_a = morphism_row(img_a)
    row_d = morphism_row(img_d)
    zero_row = [Vector(dim, {}, fs) for _ in range(dim)]
    ident_row = [unit_vector(dim, j, fs) for j in range(dim)]

    alpha_gen = {UNIT: ident_row, A_: row_a, D_: row_d, B_: zero_row, C_: zero_row}
    beta_gen = dict(alpha_gen)

    gen_delta = {
        UNIT: [(UNIT, UNIT, one)],
        A_: [(A_, A_, one), (B_, C_, one)],
        B_: [(A_, B_, one), (B_, D_, one)],
        C_: [(C_, A_, one), (D_, C_, one)],
        D_: [(C_, B_, one), (D_, D_, one)],
    }
    peel = {}
    for m, (s_, m_, d_) in enumerate(_SUZ_BASIS):
        if m in alpha_gen:
            continue
        if s_ == "A":
            peel[m] = (A_, index[("A", m_ - 1, d_)])
        else:
            peel[m] = (B_, index[("B", m_ - 1, d_)])
    counit = Vector(dim, {index[("A", m_, d_)]: one for s_, m_, d_ in _SUZ_BASIS if s_ == "A"}, fs)
    comul = _delta_by_induction(dim, gen_delta, counit, peel, alpha_gen, beta_gen, left_mul, fs)

    rows: list[list[Vector] | None] = [None] * dim
    alpha_a = matrix_from_columns(row_a, fs)

    def act_row(m: int) -> list[Vector]:
        got = rows[m]
        if got is not None:
            return got
        s_, m_, d_ = _SUZ_BASIS[m]
        if m in alpha_gen:
            res = alpha_gen[m]
        elif s_ == "B":
            res = zero_row
        else:
            # peel one a off: (a.w) >- z = a >- ((alpha_a w) >- z)
            w_idx = index[("A", m_ - 1, d_)]
            res = [alpha_a.apply(v) for v in _row_combination(act_row, row_a[w_idx], dim, fs)]
        rows[m] = res
        return res

    return _finish(list(_SUZ_LABELS), left_mul, comul, counit, act_row, {"alpha": al, "beta": be}, "suzuki", fs)


# --- adjoint-action construction --------------------------------------------


def build_adjoint(h: HopfData) -> YDPostHopf:
    """From an ordinary Hopf algebra: action a >- b = a_1 o b o T(a_2),
    braided product a.b = a_1 o T(a_3) o b o T(T(a_2)), braided antipode
    S(a) = a_1 o T(a_3) o T(a_2), beta_a = (T(a) >- -).

    Each is a convolution (``hopf.convolve``) of the left products L, the
    right products R o T and R o T^2 (b -> b o T(a), b -> b o T(T(a))) and
    the left products L o T: the action L * (R o T), the product
    (L * (R o T^2)) * (L o T) and the antipode the action * T for the one
    column T.  So they compose operators, a_1 o (b o T(a_2)) for the
    action, and equal the formulas above only when o is associative; the
    result is certified all the same."""
    d, fs = h.dim, h.field
    hco, mul, p = h.coalgebra, h.algebra.int_mul(), h.field.p
    op = IntTable([list(col) for col in zip(*mul.rows)], mul.scale)  # op[j][i] = e_i o e_j
    tcols = compile_columns(h.antipode)
    act = convolve(mul, left_products(tcols, op, p), hco)
    right_tt = left_products(compile_columns(h.antipode.compose(h.antipode)), op, p)
    prod = convolve(convolve(mul, right_tt, hco), left_products(tcols, mul, p), hco)
    s_map = column_matrix(d, convolve(act, one_column(tcols), hco), fs)
    alg = table_algebra(list(h.algebra.basis_labels), prod, h.algebra.unit, fs)
    action = table_action(d, act, fs)
    s = YDPostHopf(BraidedPair(alg, hco, s_map), action, pulled_back(action, tcols))
    return _certify(s, "adjoint")


# --- group machinery and linearization ---------------------------------------


def cyclic_group(n: int) -> GroupTable:
    return GroupTable([f"c{i}" for i in range(n)],
                      [[(i + j) % n for j in range(n)] for i in range(n)])


def symmetric_group_3() -> GroupTable:
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    labels = ["e", "(01)", "(02)", "(12)", "(012)", "(021)"]
    idx = {p: i for i, p in enumerate(perms)}
    mul = [
        [idx[tuple(p[q[x]] for x in range(3))] for q in perms]
        for p in perms
    ]
    return GroupTable(labels, mul)


def trivial_phi(g: GroupTable, h: GroupTable) -> list[list[int]]:
    return [list(range(h.order)) for _ in range(g.order)]


def conjugation_phi(g: GroupTable) -> list[list[int]]:
    return [
        [g.mul[g.mul[i][j]][g.inverse(i)] for j in range(g.order)]
        for i in range(g.order)
    ]


def group_rb_identity(g: GroupTable) -> GroupRB:
    """R = id with the trivial action: the homomorphism case."""
    return GroupRB(g, g, trivial_phi(g, g), list(range(g.order)))


def group_rb_inversion(g: GroupTable) -> GroupRB:
    """R(h) = h^{-1} with phi = conjugation, a weight-1 operator on any group."""
    return GroupRB(g, g, conjugation_phi(g), [g.inverse(i) for i in range(g.order)])


def group_algebra(table: GroupTable, field: FieldSpec = RATIONALS) -> HopfData:
    n = table.order
    fs = field
    one = fs.one
    e = table.identity()
    if e is None:
        raise StructureError("table has no identity element")
    mul = [[unit_vector(n, table.mul[i][j], fs) for j in range(n)] for i in range(n)]
    alg = AlgebraData(n, list(table.elements), mul, unit_vector(n, e, fs), fs)
    coalg = CoalgebraData(n, [[(i, i, one)] for i in range(n)],
                          Vector(n, {i: one for i in range(n)}, fs), fs)
    s_map = Matrix(n, n, {(table.inverse(i), i): one for i in range(n)}, fs)
    return HopfData(alg, coalg, s_map)


def build_group_rb_linearization(grb: GroupRB, field: FieldSpec = RATIONALS) -> YDPostHopf:
    """Linearize a weight-1 operator of a group on itself: the group algebra
    with the basis-permutation action h >- k = phi(R(h))(k)."""
    if grb.group_g.mul != grb.group_h.mul:
        raise StructureError("the linearization needs a single group acting on itself")
    rep = check_group_rb(grb)
    if not rep.all_pass():
        bad = ", ".join(e.axiom for e in rep.failed())
        raise StructureError(f"the group operator fails its axioms: {bad}")
    table = grb.group_h
    n = table.order
    fs = field
    hopf = group_algebra(table, fs)
    act_rows = []
    beta_rows = []
    for i in range(n):
        perm = grb.phi[grb.r[i]]
        act_rows.append([unit_vector(n, perm[j], fs) for j in range(n)])
        inv_perm = [0] * n
        for j, pj in enumerate(perm):
            inv_perm[pj] = j
        beta_rows.append([unit_vector(n, inv_perm[j], fs) for j in range(n)])
    carrier = BraidedPair(hopf.algebra, hopf.coalgebra, hopf.antipode)
    s = YDPostHopf(
        carrier,
        ActionTensor(n, n, act_rows, fs),
        ActionTensor(n, n, beta_rows, fs),
    )
    return _certify(s, "group-linearization")


def build_trivial(field: FieldSpec = RATIONALS) -> YDPostHopf:
    """The unit object: everything concentrated on a single basis vector."""
    fs = field
    one = fs.one
    unit = Vector(1, {0: one}, fs)
    alg = AlgebraData(1, ["1"], [[unit]], unit, fs)
    coalg = CoalgebraData(1, [[(0, 0, one)]], unit, fs)
    carrier = BraidedPair(alg, coalg, Matrix(1, 1, {(0, 0): one}, fs))
    s = YDPostHopf(carrier, ActionTensor(1, 1, [[unit]], fs),
                   ActionTensor(1, 1, [[unit]], fs))
    return _certify(s, "trivial")


def sweedler_hopf(field: FieldSpec = RATIONALS) -> HopfData:
    """The ordinary four-dimensional Hopf algebra (the subadjacent one)."""
    from .posthopf import subadjacent_hopf

    return subadjacent_hopf(build_sweedler(1, field), verify=True)
