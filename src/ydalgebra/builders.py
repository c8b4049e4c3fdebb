"""Built-in example structures as exact structure-constant data.

The E(n) and Suzuki builders give only generator data: the product rule,
the coproduct of the unit and of each generator, a peel order that writes
every other monomial as a generator times an earlier one, the counit, and
alpha_u and beta_u of each generator u on the generators.  One pass
(``_action_by_induction``) extends the action to every monomial through
P-DOT, L-MB and P-ASSOC, and the coproduct is extended through P-DELTA's
own right-hand side (``posthopf._pdelta_side``), which needs beta on the
generators.  E(n) reads that beta off the convolution identity: from
Delta(x_i) = x_i (x) 1 + g (x) x_i, (alpha * beta)(x_i) = alpha_{x_i} +
alpha_g o beta_{x_i} = 0, and alpha_g is an involution, so beta_{x_i} =
-alpha_g o alpha_{x_i}.  The antipodes are solved from their convolution
systems, and the beta the structure keeps on its own, as alpha o S_>.
Every builder runs the full axiom suite on the result before returning it
-- builders are self-certifying, nothing is assumed confluent or
consistent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .compiled import (
    IntTable, _int, _scale, _scaled, add_bilinear, add_linear, compile_columns, compile_comul, compile_tensor,
    int_items, int_linear, int_vector, reduced,
)
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
from .linalg import Matrix, Vector, accumulate, unit_vector
from .posthopf import YDPostHopf, _fill_beta, _pdelta_side, bullet_algebra, check_yd_post_hopf, subadjacent_hopf
from .rota import GroupRB, GroupTable, check_group_rb


def _coerce(field: FieldSpec, x) -> Scalar:
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
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


def _finish(labels: list[str], product, gen_delta: dict, counit: Vector, peel: dict, alpha_on: dict,
            beta_on: dict, params: dict, name: str, fs: FieldSpec) -> YDPostHopf:
    """The E(n) and Suzuki structures from their generator data, basis
    element 0 the unit: the product table of product(i, j) (a dict of
    index -> scalar), the action and the coproduct extended from the
    generators (``_action_by_induction``, ``_delta_by_induction``), the
    braided antipode, beta = alpha o S_> from the subadjacent antipode S_>,
    then ``_certify``."""
    dim = len(labels)
    mul = compile_tensor([[Vector(dim, product(i, j), fs) for j in range(dim)] for i in range(dim)], fs)
    alpha, beta, act = _action_by_induction(dim, gen_delta, peel, alpha_on, beta_on, mul, fs)
    coalg = CoalgebraData(dim, _delta_by_induction(dim, gen_delta, counit, peel, alpha, beta, mul, fs), counit, fs)
    alg = table_algebra(labels, mul, unit_vector(dim, 0, fs), fs)
    s_map = solve_antipode(alg, coalg)
    if s_map is None:
        raise StructureError("the braided antipode system is inconsistent")
    action = table_action(dim, act, fs)
    s = YDPostHopf(BraidedPair(alg, coalg, s_map), action, None, params=params)
    sharp = solve_antipode(bullet_algebra(s), coalg)
    if sharp is None:
        raise StructureError("the subadjacent antipode system is inconsistent")
    _fill_beta(s, pulled_back(action, compile_columns(sharp)))
    return _certify(s, name)


# --- generic extension from the generators -----------------------------------


def _action_by_induction(dim, gen_delta, peel, alpha_on, beta_on, mul, fs):
    """Extend the action from the generators to every monomial through the
    identities that fix it there.

    gen_delta, peel: as ``_delta_by_induction`` takes them.
    alpha_on / beta_on: (u, v) -> {index: scalar}, alpha_u(e_v) and
    beta_u(e_v) for u and v the unit or a generator; an absent pair is 0.
    mul: the compiled product table.

    In basis order along peel, m = u' w, for every generator u:
    alpha_u(e_m) = sum over Delta(u) of c alpha_{u_1}(u') . alpha_{u_2}(w)
    (P-DOT) and beta_u(e_m) = sum c beta_{u_2}(u') . beta_{u_1}(w) (L-MB).
    Then the row of every other m, alpha_m = sum over Delta(u') of
    c alpha_{u'_1} o alpha_{beta_{u'_2}(w)}: P-ASSOC on the bullet product,
    since u' w = u'_1 o beta_{u'_2}(w).  Each value is an int sum on the
    compiled tables, and each column of alpha and beta and each row of the
    action is brought to its least scale as it is made
    (``compiled.reduced``), so the scales do not compound along the peel.  ``StructureError`` is raised
    when peel reads a value not made yet.  Returns alpha and beta compiled
    with one row per basis element, empty off the generators, and the
    whole action table.
    """
    p = fs.p
    comul = compile_comul([gen_delta.get(u, []) for u in range(dim)], fs)

    def generator_rows(on: dict, swap: bool) -> IntTable:
        s = _scale((c for v in on.values() for c in v.values()), p)
        given = {key: [(k, _int(c, s, p)) for k, c in v.items() if c] for key, v in on.items()}
        cols: list[dict | None] = [None] * dim  # cols[m][u] = alpha_u(e_m), at scales[m]
        scales = [s] * dim
        for m in range(dim):
            if m in gen_delta:
                col, scale = [given.get((u, m), []) for u in gen_delta], s
            else:
                head, w = peel[m]
                if cols[w] is None:
                    raise StructureError("peel order must follow the basis order")
                col = []
                for u in gen_delta:
                    acc: dict[int, int] = {}
                    for u1, u2, c in comul.rows[u]:
                        if swap:
                            u1, u2 = u2, u1
                        add_bilinear(acc, mul.rows, given.get((u1, head), ()), cols[w][u2], c)
                    col.append(int_items(acc, p))
                scale = s * comul.scale * mul.scale * scales[w]
            least = reduced(IntTable([col], scale))
            cols[m], scales[m] = dict(zip(gen_delta, least.rows[0])), least.scale
        top = lcm(*scales)
        return IntTable([[_scaled(cols[m][u], top // scales[m], p) for m in range(dim)] if u in gen_delta else []
                         for u in range(dim)], top)

    alpha, beta = generator_rows(alpha_on, False), generator_rows(beta_on, True)
    rows = [row if u in gen_delta else None for u, row in enumerate(alpha.rows)]
    scales = [alpha.scale] * dim
    for m in range(dim):
        if rows[m] is not None:
            continue
        head, w = peel[m]
        support = sorted({t for _, b, _ in comul.rows[head] for t, _ in beta.rows[b][w]})
        if any(rows[t] is None for t in support):
            raise StructureError("an action row is read before it is made: peel order must follow the basis order")
        top = lcm(*(scales[t] for t in support))
        pos = {t: k for k, t in enumerate(support)}
        terms = [(alpha.rows[a], c, [(pos[t], n * (top // scales[t])) for t, n in beta.rows[b][w]])
                 for a, b, c in comul.rows[head]]
        row = []
        for j in range(dim):
            inner = [rows[t][j] for t in support]
            acc: dict[int, int] = {}
            for am, c, v in terms:
                add_linear(acc, am, int_linear(inner, v, p), c)
            row.append(int_items(acc, p))
        least = reduced(IntTable([row], comul.scale * alpha.scale * beta.scale * top))
        rows[m], scales[m] = least.rows[0], least.scale
    top = lcm(*scales)
    return alpha, beta, IntTable([[_scaled(v, top // s, p) for v in row] for row, s in zip(rows, scales)], top)


def _delta_by_induction(dim, gen_delta, counit, peel, alpha, beta, mul, fs):
    """Extend the coproduct from generators to all monomials through the
    braided compatibility of the coproduct with the product.

    gen_delta: coproduct of the unit and each generator, by index.
    counit: the counit of the whole carrier.
    peel: index -> (generator index, tail index) for every other monomial.
    alpha / beta: the action and beta compiled with one row per basis
    element, full on the unit and the generators (``_action_by_induction``).
    mul: the compiled product table.

    Delta(u w) is P-DELTA's right-hand side at (u, w), summed by
    ``posthopf._pdelta_side`` with Delta(w) as its one y term, on the
    coalgebra of the generators (their coproducts, empty on every other
    monomial): its threefold legs, and the product, beta and the bullet
    product L * alpha, which it reads only on the generators.
    """
    gen_coalg = CoalgebraData(dim, [gen_delta.get(m, []) for m in range(dim)], counit, fs)
    bullet = convolve(mul, alpha, gen_coalg)
    legs = gen_coalg.int_legs(3)
    scale = legs.scale * beta.scale * bullet.scale * mul.scale
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
        _pdelta_side(legs.rows, bullet.rows, beta.rows, mul.rows, ylegs, dim, fs.p)(acc, (u,), 1)
        out = int_vector(dim * dim, acc, den * scale, fs)
        delta[m] = sorted((*divmod(key, dim), c) for key, c in out.entries.items())
    return delta


# --- E(n) family (Sweedler is n = 1) ----------------------------------------


def build_en(n: int, a_matrix, field: FieldSpec = RATIONALS) -> YDPostHopf:
    """Braided carrier on g, x_1..x_n with g.g = 1, x_i.g = g.x_i and
    x_i.x_j + x_j.x_i = 2 A_ij (1 - g), the action given on the generators
    by x_i >- x_j = A_ij (1 - g) and g >- x_j = -x_j; dimension 2^(n+1)."""
    if field.characteristic == 2:
        raise StructureError("these structures need characteristic not 2")
    if n < 1:
        raise StructureError("n must be at least 1")
    if len(a_matrix) != n or any(len(row) != n for row in a_matrix):
        raise StructureError(f"the coefficient matrix must be {n} x {n}")
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

    def product(m: int, t: int) -> dict:
        (a1, s1), (a2, s2) = basis[m], basis[t]
        out: dict = {}
        reduce_word(a1 + a2, s1 + s2, one, out)
        return {index[key]: c for key, c in out.items()}

    gen_delta = {0: [(0, 0, one)], g_idx: [(g_idx, g_idx, one)]}
    gen_delta.update({x: [(x, 0, one), (g_idx, x, one)] for x in x_idx.values()})
    # 1 acts as the identity and g by the parity of the degree, each its own
    # beta; beta_{x_i} = -alpha_g o alpha_{x_i}, from (alpha * beta)(x_i) = 0
    alpha_on = {(u, v): {v: -one if u == g_idx and v in x_idx.values() else one}
                for u in (0, g_idx) for v in gen_delta}
    beta_on = dict(alpha_on)
    for i, x in x_idx.items():
        for j, y in x_idx.items():
            aij = A[i - 1][j - 1]
            alpha_on[x, y] = {0: aij, g_idx: -aij}
            beta_on[x, y] = {0: -aij, g_idx: aij}
    peel = {m: (g_idx, index[(0, sub)]) if g_exp else (x_idx[sub[0]], index[(0, sub[1:])])
            for m, (g_exp, sub) in enumerate(basis) if m not in gen_delta}
    counit = Vector(len(basis), {index[(a, ())]: one for a in (0, 1)}, fs)
    params = {"k": A[0][0]} if n == 1 else {
        f"A{i + 1}{j + 1}": A[i][j] for i in range(n) for j in range(n)
    }
    return _finish(labels, product, gen_delta, counit, peel, alpha_on, beta_on, params, f"en(n={n})", fs)


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
    closes the monomial chains at dimension 16.  The action, its own beta,
    is given on the generators: a and d swap a with d and b with c up to
    scalars, b and c act by 0."""
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

    index = {key: i for i, key in enumerate(_SUZ_BASIS)}
    UNIT = index[("A", 0, 0)]
    A_ = index[("A", 1, 0)]
    B_ = index[("B", 1, 0)]
    C_ = index[("B", 0, 1)]
    D_ = index[("A", 0, 1)]

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

    def product(i: int, j: int) -> dict:
        if i == UNIT or j == UNIT:
            return {i if j == UNIT else j: one}
        (s1, m1, d1), (s2, m2, d2) = _SUZ_BASIS[i], _SUZ_BASIS[j]
        if s1 != s2:
            return {}
        m, dd, coeff = m1 + m2, d1 + d2, one
        if dd == 2:  # d.d = a.a, c.c = cb b.b
            m, dd = m + 2, 0
            coeff = one if s1 == "A" else cb
        out: dict = {}
        (reduce_a if s1 == "A" else reduce_b)(m, dd, coeff, out)
        return {index[key]: c for key, c in out.items()}

    gen_delta = {
        UNIT: [(UNIT, UNIT, one)],
        A_: [(A_, A_, one), (B_, C_, one)],
        B_: [(A_, B_, one), (B_, D_, one)],
        C_: [(C_, A_, one), (D_, C_, one)],
        D_: [(C_, B_, one), (D_, D_, one)],
    }
    alpha_on = {(UNIT, v): {v: one} for v in gen_delta}
    for u, to_c, to_b in ((A_, al_i * be, al * be_i), (D_, al * be_i, al_i * be)):
        alpha_on.update({(u, UNIT): {UNIT: one}, (u, A_): {D_: one}, (u, D_): {A_: one},
                         (u, B_): {C_: to_c}, (u, C_): {B_: to_b}})
    peel = {m: (A_ if s_ == "A" else B_, index[(s_, m_ - 1, d_)])
            for m, (s_, m_, d_) in enumerate(_SUZ_BASIS) if m not in gen_delta}
    counit = Vector(len(_SUZ_BASIS), {index[("A", m_, d_)]: one for s_, m_, d_ in _SUZ_BASIS if s_ == "A"}, fs)
    return _finish(list(_SUZ_LABELS), product, gen_delta, counit, peel, alpha_on, alpha_on,
                   {"alpha": al, "beta": be}, "suzuki", fs)


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


def conjugation_phi(g: GroupTable) -> list[list[int]]:
    return [
        [g.mul[g.mul[i][j]][g.inverse(i)] for j in range(g.order)]
        for i in range(g.order)
    ]


def group_rb_identity(g: GroupTable) -> GroupRB:
    """R = id with the trivial action: the homomorphism case."""
    return GroupRB(g, g, [list(range(g.order)) for _ in range(g.order)], list(range(g.order)))


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
    return subadjacent_hopf(build_sweedler(1, field), verify=True)
