"""Yetter-Drinfeld relative (pre-)Rota-Baxter operators.

An operator is a coalgebra morphism R: K -> H from a braided bimonoid K
into a Hopf algebra H, satisfying R(a).R(b) = R(a_1 . (R(a_2) >- b)), a
two-sided tensor symmetry, and (for the full notion) bijectivity plus the
inverse-side identity.  The module also houses the functors between these
operators and post-Hopf structures, the induced antipode on K, restriction
to group-likes and primitives, and the plain group/Lie weight-1 checkers.

RB-BIMON's parts 1-3 (H acts on K as a module, a module algebra and a
module coalgebra) call the action laws of ``hopf``, part 4's
coassociativity its ``coassociative_law`` on the terms of rho, and
RB-COALG, RBM-F/G and the restriction to group-likes its
``coalgebra_map_law``.  RB-1, RB-2 and RB-BIMON's parts 4-8 (the comodule
laws of the coaction rho) run on compiled int tables (``compiled``),
each built once per operator, when it is first read, and kept in its
``_cache``: the columns of R, and R(x) >- y, R(R(x) >- y) and
S_H R(R(x) >- y) for basis elements x, y of K; the columns of rho, keyed
p * dim_k + q, H's threefold legs grouped with S_H, and the units and
counits.  RB-1, RBM-F/G's product rows and RBM-ACT each compare two
tables built by the calculus (``compiled.compare_tables``); the left
sides of parts 5 and 7, rho applied to a row of K's product or of the
action, and part 5's unit row are ``compiled.image_side`` on the columns
of rho, as part 8's left side, Delta of K's product, is its case
``comul_side``; the right sides of parts 5, 7 and 8 are
``compiled.legs_side`` on a left table each law builds once; LRB-ACTION
calls the derivation and commutator laws of ``posthopf``.  RB-SPACES,
RB-3, the Lie checkers and the restrictions run on compiled tables too.
The derived coaction is ``hopf.coaction``; S_K, (alpha o R) * R^{-1} S_H
R, and the antipode of functor M, R o (alpha * R^{-1} S_H), are
convolutions on the compiled tables (``hopf.convolve``), and
a >-_R b = R(a) >- b is the action pulled back along R
(``hopf.pull_back``).  An operator is frozen, so its cached tables
cannot go stale; ``dataclasses.replace`` makes a copy whose cache starts
empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

from .compiled import (
    IntTable, add_bilinear, add_linear, basis, bilinear_table, bilinear_vectors, comul_side, compare, compare_tables,
    compared, compile_columns, compile_tensor, compile_vectors, image_side, int_bilinear, int_items, int_linear,
    legs_side, line, mapped, pairs_render, sides, table_vectors, tensor_side, triples_render, vector_render,
)
from .field import FieldSpec, Scalar
from .hopf import (
    ActionTensor,
    AlgebraData,
    BraidedPair,
    CoalgebraData,
    HopfData,
    StructureError,
    antipode_law,
    bialgebra_unit_laws,
    check_algebra,
    check_coalgebra,
    check_hopf,
    coaction,
    coalgebra_map_law,
    coassociative_law,
    column_matrix,
    convolve,
    eps_unit_side,
    grouped_legs,
    module_algebra_law,
    module_algebra_unit_law,
    module_coalgebra_law,
    module_law,
    module_unit_law,
    one_column,
    pull_back,
    pulled_back,
    solve_antipode,
    table_action,
    table_algebra,
)
from .linalg import Matrix, Vector, _cache_slot, _per_structure, identity_matrix, invert, kernel
from .posthopf import (
    PostLieData,
    YDPostHopf,
    _commutator,
    _derivation,
    _jacobi,
    _skew,
    _span_coords,
    check_post_lie,
    commutators,
    ensure_beta,
    left_coaction_adl,
    primitives,
    subadjacent_hopf,
)
from .report import FAIL, Checker, CheckEntry, CheckReport, Tally, Witness, pairs_text, vector_text


@dataclass(frozen=True)
class RelRB:
    """R: K -> H with the acting Hopf algebra H and braided carrier K."""

    h: HopfData
    k_alg: AlgebraData
    k_coalg: CoalgebraData
    k_antipode: Matrix | None
    action: ActionTensor            # act[i][j] = e_i^H >- e_j^K
    coaction: Matrix | None         # K -> H (x) K, (p*dimK + q, a)
    r_map: Matrix                   # K -> H
    params: dict[str, Scalar] = dc_field(default_factory=dict)
    _cache: dict = _cache_slot()

    def __post_init__(self):
        if self.k_alg.dim != self.k_coalg.dim:
            raise StructureError("carrier algebra/coalgebra dimension mismatch")
        if self.action.acting_dim != self.h.dim or self.action.target_dim != self.k_alg.dim:
            raise StructureError("action shape mismatch")
        if self.r_map.rows != self.h.dim or self.r_map.cols != self.k_alg.dim:
            raise StructureError("r_map shape mismatch")
        if self.coaction is not None and (
            self.coaction.rows != self.h.dim * self.k_alg.dim
            or self.coaction.cols != self.k_alg.dim
        ):
            raise StructureError("coaction shape mismatch")

    @property
    def dim_k(self) -> int:
        return self.k_alg.dim

    @property
    def field(self) -> FieldSpec:
        return self.k_alg.field


def derived_coaction(r: RelRB) -> Matrix:
    """rho(a) = R(a_1) . S_H(R(a_3)) (x) a_2, the coaction both subcategories
    use (``hopf.coaction``)."""
    return coaction(r.h.algebra, r.h.antipode, r.r_map, r.k_coalg)


def _r_inverse(r: RelRB) -> Matrix | None:
    """R^{-1}: K <- H, or None when R is not bijective, as an R between
    spaces of different dimensions never is.  An identity R, as every
    ``functor_l`` image has, is its own inverse, with no elimination."""
    if r.dim_k != r.h.dim:
        return None
    if r.r_map == identity_matrix(r.dim_k, r.field):
        return r.r_map
    return invert(r.r_map)


def check_rel_rb(r: RelRB, mode: str = "pre") -> CheckReport:
    """RB-SPACES, RB-COALG, RB-1, RB-2, RB-BIMON (+ RB-3 in full mode)."""
    if mode not in ("pre", "full"):
        raise StructureError(f"unknown mode {mode!r}")
    dk, dh = r.dim_k, r.h.dim
    fs = r.field
    halg, hco = r.h.algebra, r.h.coalgebra
    kalg, kco = r.k_alg, r.k_coalg
    act = r.action
    rmap = r.r_map
    rep = CheckReport()

    # H is a Hopf algebra, K an algebra and a coalgebra, and a stored S_K
    # is a convolution inverse of id_K
    sub = check_hopf(r.h)
    sub.extend(check_algebra(kalg))
    sub.extend(check_coalgebra(kco))
    if r.k_antipode is not None:
        ch = Checker("HOPF-ANTIPODE")
        ch.absorb(antipode_law(kalg, kco, r.k_antipode))
        sub.add(ch.entry())
    rep.add(sub.summary("RB-SPACES"))

    # RB-COALG: R is a coalgebra morphism, Delta(R(a)) = R(a_1) (x) R(a_2) at
    # (a, 0) and eps(R(a)) = eps(a) at (a, 1), and R(1_K) = 1_H at (dk,)
    ch = Checker("RB-COALG")
    delta, counit = coalgebra_map_law(_r_columns(r), hco, kco)
    ch.absorb(delta, where=lambda w: w + (0,))
    ch.absorb(counit, where=lambda w: w + (1,))
    ch.compare((dk,), rmap.apply(kalg.unit), halg.unit, vector_text)
    rep.add(ch.entry())

    ch = Checker("RB-1")
    _rb1(ch, r)
    rep.add(ch.entry())

    ch = Checker("RB-2")
    _rb2(ch, r)
    rep.add(ch.entry())

    rep.add(_bimonoid_checker(r).entry())

    if mode == "full":
        rinv = _r_inverse(r)
        if rinv is None:
            rep.add(CheckEntry("RB-3", FAIL, Witness((0,), "not bijective", "R invertible")))
            return rep
        # RB-3: (a_1 >- R^{-1} S_H(a_2)) . R^{-1}(a_3) = eps(a) 1_K at (a,)
        ch = Checker("RB-3")
        legs, kmul = hco.int_legs(3), kalg.int_mul()
        ri = compile_columns(rinv)
        acted = bilinear_table(act.int_act(), basis(dh), compile_columns(rinv.compose(r.h.antipode)), fs.p)

        def rb3(acc, prefix, w):
            for a, terms in enumerate(legs.rows):
                for (a1, a2, a3), c in terms:
                    add_bilinear(acc, kmul.rows, acted.rows[a1][a2], ri.rows[a3], w * c, a * dk)

        rhs, sr = eps_unit_side(hco, kalg)
        compare(ch, [()], dh, dk, sides(rb3, rhs), legs.scale * acted.scale * kmul.scale * ri.scale, sr, fs,
                vector_render(dk))
        rep.add(ch.entry())
    return rep


# The compiled tables of RB-1 and RB-2: the columns of R, and three tables
# indexed [x][y] by basis elements x, y of K, each summed as ints on the
# compiled action and columns of R and S_H when it is first read, once per
# operator.


@_per_structure
def _r_columns(r: RelRB) -> IntTable:
    """The columns R(e_x) of R, compiled."""
    return compile_columns(r.r_map)


@_per_structure
def _acted(r: RelRB) -> IntTable:
    """R(x) >- y in K, the action pulled back along R."""
    return pull_back(r.action, _r_columns(r))


@_per_structure
def _r_of_acted(r: RelRB) -> IntTable:
    """R(R(x) >- y) in H."""
    return mapped(_r_columns(r), _acted(r), r.field.p)


@_per_structure
def _sr_of_acted(r: RelRB) -> IntTable:
    """S_H R(R(x) >- y) in H."""
    return mapped(compile_columns(r.h.antipode), _r_of_acted(r), r.field.p)


def _rb1(t: Tally, r: RelRB) -> None:
    """RB-1, R(a) . R(b) = R(a_1 . (R(a_2) >- b)) at (a, b): the products of
    the columns of R against R applied to the convolution L_K * (R(-) >- -)
    (``hopf.convolve``) of K's left products and the table ``_acted``."""
    rc, p = _r_columns(r), r.field.p
    compare_tables(t, bilinear_table(r.h.algebra.int_mul(), rc, rc, p),
                   mapped(rc, convolve(r.k_alg.int_mul(), _acted(r), r.k_coalg), p), r.h.dim, r.field)


def _rb2(t: Tally, r: RelRB) -> None:
    """RB-2, the symmetry of S_H R(R(a_1) >- b_1) . R(a_2) . R(b_2) (x)
    R(R(a_3) >- b_3) under moving the legs (1, 2, 3) to (2, 3, 1), at
    (a, b), on the columns of R and the tables q = ``_r_of_acted`` and
    ``_sr_of_acted``.  The threefold legs expand the first leg of Delta, so
    each side is a sum over Delta(a), Delta(b) of a table at (a_1, b_1),
    whether or not K is coassociative.  The left side is
    ``compiled.legs_side`` on q and P[x][y] = S_H R(R(x_1) >- y_1) .
    R(x_2) . R(y_2).  The right side multiplies the second factor of
    Q[x][y] = q[x_1][y_1] (x) S_H R(R(x_2) >- y_2) by R(a_2), then by
    R(b_2).  The products are taken from the left, as H's product need not
    be associative in a failing operator."""
    rtab, qtab, sqtab = _r_columns(r), _r_of_acted(r), _sr_of_acted(r)
    hmul, kc = r.h.algebra.int_mul(), r.k_coalg.int_comul()
    hm, comul, rc, q, sq = hmul.rows, kc.rows, rtab.rows, qtab.rows, sqtab.rows
    dk, dh, p = r.dim_k, r.h.dim, r.field.p
    d2 = dh * dh

    prefixes: dict = {}  # (x_1, y_1, x_2) -> S_H R(R(x_1) >- y_1) . R(x_2)
    pt = []
    for x in range(dk):
        row = []
        for y in range(dk):
            acc: dict[int, int] = {}
            for x1, x2, cx in comul[x]:
                for y1, y2, cy in comul[y]:
                    key = (x1, y1, x2)
                    u = prefixes.get(key)
                    if u is None:
                        u = prefixes[key] = int_bilinear(hm, sq[x1][y1], rc[x2], p)
                    add_bilinear(acc, hm, u, rc[y2], cx * cy)
            row.append(int_items(acc, p))
        pt.append(row)
    qside = legs_side(q, sq, comul, comul, dh)
    qt = []              # Q[x][y] as the (j, i, n) of its terms n e_i (x) e_j
    for x in range(dk):
        acc = {}
        qside(acc, (x,), 1)
        row = [[] for _ in range(dk)]
        for key, n in int_items(acc, p):
            y, i = divmod(key, d2)
            i, j = divmod(i, dh)
            row[y].append((j, i, n))
        qt.append(row)

    products: dict = {}  # (j, a_2, b_2) -> (e_j . R(a_2)) . R(b_2)

    def right(acc, prefix, w):
        a, = prefix
        get = acc.get
        for b, lb in enumerate(comul):
            base = b * d2
            for a1, a2, ca in comul[a]:
                for b1, b2, cb in lb:
                    c = ca * cb * w
                    for j, i, n in qt[a1][b1]:
                        key = (j, a2, b2)
                        u = products.get(key)
                        if u is None:
                            u = products[key] = int_bilinear(hm, int_bilinear(hm, ((j, 1),), rc[a2], p), rc[b2], p)
                        n *= c
                        i += base
                        for k, e in u:
                            key = i + k * dh
                            acc[key] = get(key, 0) + n * e

    scale = kc.scale ** 4 * sqtab.scale * rtab.scale ** 2 * hmul.scale ** 2 * qtab.scale
    compare(t, line(dk), dk, d2, sides(legs_side(pt, q, comul, comul, dh), right), scale, scale, r.field,
            pairs_render(dh))


def _action_parts(r: RelRB) -> Tally:
    """RB-BIMON's parts 1-3, at (1, g, h, a) and (1, dh, dh, a), (2, h, a, b)
    and (2, h, dk, dk), and (3, h, a, 0|1)."""
    dk, dh = r.dim_k, r.h.dim
    act, hco = r.action, r.h.coalgebra
    t = Tally()
    t.absorb(module_law(act, r.h.algebra), where=lambda w: (1,) + w)
    t.absorb(module_unit_law(act, r.h.algebra), where=lambda w: (1, dh, dh) + w)
    t.absorb(module_algebra_law(act, hco, r.k_alg), where=lambda w: (2,) + w)
    t.absorb(module_algebra_unit_law(act, hco, r.k_alg), where=lambda w: (2,) + w + (dk, dk))
    delta, counit = module_coalgebra_law(act, hco, r.k_coalg)
    t.absorb(delta, where=lambda w: (3,) + w + (0,))
    t.absorb(counit, where=lambda w: (3,) + w + (1,))
    return t


class _RhoTables(NamedTuple):
    """The compiled tables of RB-BIMON's parts 4-8: the coaction rho, its
    terms, the legs of H grouped with the antipode, and the units and
    counits."""

    rho: IntTable        # rows[a] = rho(e_a), keyed p * dim_k + q
    terms: list          # terms[a] = the (p, q, n) of rows[a]
    s_legs: IntTable     # rows[h] = (h_1, h_2, sum of c S(h_3)) per pair (h_1, h_2)
    h_unit: IntTable     # rows[0] = 1_H
    k_unit: IntTable     # rows[0] = 1_K
    h_eps: IntTable      # rows[0] = eps_H
    k_eps: IntTable      # rows[0] = eps_K


@_per_structure
def _rho_tables(r: RelRB) -> _RhoTables:
    """The tables of ``_RhoTables``, once per operator."""
    dk, fs = r.dim_k, r.field
    cols = compile_columns(r.coaction if r.coaction is not None else derived_coaction(r))
    terms = [[(*divmod(pq, dk), n) for pq, n in col] for col in cols.rows]

    def one(v: Vector) -> IntTable:
        return compile_vectors([v], fs)

    return _RhoTables(cols, terms, grouped_legs(r.h.coalgebra, compile_columns(r.h.antipode)),
                      one(r.h.algebra.unit), one(r.k_alg.unit), one(r.h.coalgebra.counit), one(r.k_coalg.counit))


def _comodule_law(r: RelRB) -> Tally:
    """Part 4, rho is a coaction: (eps (x) id) rho(a) = a at (4, a, 0), and
    (Delta (x) id) rho(a) = (id (x) rho) rho(a) at (4, a, 1), keyed
    (p_1 * dim_h + p_2) * dim_k + q."""
    dk, fs = r.dim_k, r.field
    tb = _rho_tables(r)
    terms, eps = tb.terms, dict(tb.h_eps.rows[0])

    def counit(acc, prefix, wl, wr):
        a, = prefix
        get = acc.get
        if wl:
            for pp, q, c in terms[a]:
                e = eps.get(pp)
                if e:
                    acc[q] = get(q, 0) + wl * c * e
        if wr:
            acc[a] = get(a, 0) + wr

    t = compared(line(dk), 1, dk, counit, tb.rho.scale * tb.h_eps.scale, 1, fs, vector_render(dk),
                 lambda w: (4, w[0], 0))
    t.absorb(coassociative_law(terms, tb.rho.scale, r.h.coalgebra, dk), where=lambda w: (4, w[0], 1))
    return t


def _comodule_algebra_law(r: RelRB) -> Tally:
    """Part 5, K is an H-comodule algebra: rho(a.b) = a(-1) b(-1) (x)
    a(0) b(0) at (5, a, b), the left side ``compiled.image_side`` of rho
    on K's product and the right side ``compiled.legs_side`` on the
    products of H and K over the terms of rho, and rho(1) = 1 (x) 1 at
    (5, dk, dk), on the row (0,) of the one-entry table 1_K."""
    dk, dh, fs = r.dim_k, r.h.dim, r.field
    tb, hmul, kmul = _rho_tables(r), r.h.algebra.int_mul(), r.k_alg.int_mul()
    rho, terms, km = tb.rho.rows, tb.terms, kmul.rows
    hu, ku, sp = tb.h_unit.rows[0], tb.k_unit.rows[0], tb.rho.scale
    width = dh * dk
    render = pairs_render(dk)
    t = compared(line(dk), dk, width, sides(image_side(rho, km, width),
                                            legs_side(hmul.rows, km, terms, terms, dk, left_dim=dh)),
                 kmul.scale * sp, sp * sp * hmul.scale * kmul.scale, fs, render, lambda w: (5,) + w)
    t.absorb(compared([(0,)], 1, width, sides(image_side(rho, [[ku]], width), tensor_side(hu, ku, dk)),
                      tb.k_unit.scale * sp, tb.h_unit.scale * tb.k_unit.scale, fs, render,
                      lambda w: (5, dk, dk)))
    return t


def _comodule_coalgebra_law(r: RelRB) -> Tally:
    """Part 6, K is an H-comodule coalgebra: (id (x) Delta) rho(a) =
    a_1(-1) a_2(-1) (x) a_1(0) (x) a_2(0) at (6, a, 0), keyed
    (p * dim_k + q_1) * dim_k + q_2, and (id (x) eps) rho(a) = eps(a) 1 at
    (6, a, 1)."""
    dk, dh, fs = r.dim_k, r.h.dim, r.field
    tb, hmul, kco = _rho_tables(r), r.h.algebra.int_mul(), r.k_coalg.int_comul()
    terms, hm, kc, sp = tb.terms, hmul.rows, kco.rows, tb.rho.scale
    hu, eps = tb.h_unit.rows[0], dict(tb.k_eps.rows[0])

    def coproduct(acc, prefix, wl, wr):
        a, = prefix
        get = acc.get
        if wl:
            for pp, q, c in terms[a]:
                c *= wl
                base = pp * dk
                for q1, q2, e in kc[q]:
                    k = (base + q1) * dk + q2
                    acc[k] = get(k, 0) + c * e
        if wr:
            for a1, a2, ca in kc[a]:
                ta2 = terms[a2]
                ca *= wr
                for p1, q1, c1 in terms[a1]:
                    hp = hm[p1]
                    c = ca * c1
                    for p2, q2, c2 in ta2:
                        cc = c * c2
                        for h, n in hp[p2]:
                            k = (h * dk + q1) * dk + q2
                            acc[k] = get(k, 0) + cc * n

    def counit(acc, prefix, wl, wr):
        a, = prefix
        get = acc.get
        if wl:
            for pp, q, c in terms[a]:
                e = eps.get(q)
                if e:
                    acc[pp] = get(pp, 0) + wl * c * e
        e = eps.get(a)
        if wr and e:
            for k, n in hu:
                acc[k] = get(k, 0) + wr * e * n

    t = compared(line(dk), 1, dh * dk * dk, coproduct, sp * kco.scale, kco.scale * sp * sp * hmul.scale, fs,
                 triples_render(dk, dk), lambda w: (6, w[0], 0))
    t.absorb(compared(line(dk), 1, dh, counit, sp * tb.k_eps.scale, tb.k_eps.scale * tb.h_unit.scale,
                      fs, vector_render(dh), lambda w: (6, w[0], 1)))
    return t


def _yd_law(r: RelRB) -> Tally:
    """Part 7, Yetter-Drinfeld compatibility: rho(h >- a) = (h_1 a(-1))
    S(h_3) (x) (h_2 >- a(0)) at (7, h, a), H's legs grouped by (h_1, h_2).
    The grouped legs of every h are numbered into one table of
    (h_1 p) S(h_3) for each p, so the right side is ``compiled.legs_side``
    on that table and the action, over the numbered legs and rho's terms;
    the left side is ``compiled.image_side`` of rho on the action."""
    dk, dh, fs, p = r.dim_k, r.h.dim, r.field, r.field.p
    tb, hmul, act = _rho_tables(r), r.h.algebra.int_mul(), r.action.int_act()
    rho, hm, x_ = tb.rho.rows, hmul.rows, act.rows
    left: list = []  # left[g][p] = (h_1 p) S(h_3) for the g-th grouped leg (h_1, h_2, S(h_3))
    legs = []        # legs[h] = (g, h_2, 1) for each grouped leg g of h
    for groups in tb.s_legs.rows:
        legs.append([(len(left) + g, i2, 1) for g, (_, i2, _) in enumerate(groups)])
        left.extend([int_bilinear(hm, hp, sg, p) for hp in hm[i1]] for i1, _, sg in groups)
    width = dh * dk
    sp = tb.rho.scale
    return compared(line(dh), dk, width, sides(image_side(rho, x_, width),
                                               legs_side(left, x_, legs, tb.terms, dk, left_dim=dh)),
                    act.scale * sp, tb.s_legs.scale * hmul.scale ** 2 * sp * act.scale, fs, pairs_render(dk),
                    lambda w: (7,) + w)


def _braided_bialgebra_law(r: RelRB) -> Tally:
    """Part 8, K is a braided bialgebra: Delta(a.b) = a_1 (a_2(-1) >- b_1)
    (x) a_2(0) b_2 at (8, a, b, 0), eps(a.b) = eps(a) eps(b) at (8, a, b, 1),
    and Delta(1) = 1 (x) 1 at (8, dk, dk, 0).  The pairs (a_1, p) of the
    terms a_1 (x) p (x) e_q of (id (x) rho) Delta(a) are numbered into one
    table of a_1 (p >- b_1) for each b_1, so the right side is
    ``compiled.legs_side`` on that table and K's product."""
    dk, fs, p = r.dim_k, r.field, r.field.p
    tb, kmul, kco, act = _rho_tables(r), r.k_alg.int_mul(), r.k_coalg.int_comul(), r.action.int_act()
    terms, km, kc, x_ = tb.terms, kmul.rows, kco.rows, act.rows
    pairs: dict = {}  # (a_1, p) -> its number
    legs = [[(pairs.setdefault((a1, pp), len(pairs)), q, ca * cp) for a1, a2, ca in legs_a for pp, q, cp in terms[a2]]
            for legs_a in kc]
    left = [[int_bilinear(km, ((a1, 1),), xb, p) for xb in x_[pp]] for a1, pp in pairs]
    t = compared(line(dk), dk, dk * dk, sides(comul_side(km, kc, dk), legs_side(left, km, legs, kc, dk)),
                 kmul.scale * kco.scale, kco.scale ** 2 * tb.rho.scale * act.scale * kmul.scale ** 2, fs,
                 pairs_render(dk), lambda w: (8,) + w + (0,))
    laws = bialgebra_unit_laws(r.k_alg, r.k_coalg)  # eps(1) = 1 is not a row here
    t.absorb(next(laws), where=lambda w: (8,) + w + (1,))
    t.absorb(next(laws), where=lambda w: (8, dk, dk, 0))
    return t


def _comodule_parts(r: RelRB) -> list[Tally]:
    """RB-BIMON's parts 4-8, one tally each: the comodule, comodule-algebra,
    comodule-coalgebra, Yetter-Drinfeld and braided-bialgebra laws, on the
    compiled tables of ``_rho_tables``, the products and coproducts of H
    and K, and the action.  Every product is associated as the identity is
    written, so an operator whose products are not associative fails at the
    same tuples as the Vector loops these replaced."""
    return [law(r) for law in (_comodule_law, _comodule_algebra_law, _comodule_coalgebra_law, _yd_law,
                               _braided_bialgebra_law)]


def _bimonoid_checker(r: RelRB) -> Checker:
    """K is a bimonoid in Yetter-Drinfeld modules over H, condition by
    condition: parts 1-3 from ``_action_parts`` and parts 4-8 from
    ``_comodule_parts``; the witness is the least failing tuple."""
    ch = Checker("RB-BIMON")
    ch.absorb(_action_parts(r))
    for t in _comodule_parts(r):
        ch.absorb(t)
    return ch


def antipode_sk(r: RelRB) -> Matrix:
    """S_K(a) = R(a_1) >- R^{-1} S_H R(a_2): (alpha o R) * R^{-1} S_H R for
    the one column R^{-1} S_H R (``hopf.convolve``); both antipode
    identities verified."""
    rinv = _r_inverse(r)
    if rinv is None:
        raise StructureError("R is not bijective; S_K needs the full notion")
    rsr = compile_columns(rinv.compose(r.h.antipode).compose(r.r_map))
    sk = column_matrix(r.dim_k, convolve(_acted(r), one_column(rsr), r.k_coalg), r.field)
    if antipode_law(r.k_alg, r.k_coalg, sk).failures:
        raise StructureError("derived S_K fails the antipode identities")
    return sk


def functor_l(s: YDPostHopf) -> RelRB:
    """Identity map H -> H_subadjacent as a relative Rota-Baxter operator."""
    ensure_beta(s)
    h = subadjacent_hopf(s, verify=False)
    return RelRB(
        h=h,
        k_alg=s.carrier.algebra,
        k_coalg=s.carrier.coalgebra,
        k_antipode=s.carrier.s_map,
        action=s.action,
        coaction=left_coaction_adl(s),
        r_map=identity_matrix(s.dim, s.field),
        params=dict(s.params),
    )


def functor_m(r: RelRB) -> YDPostHopf:
    """Transport the braided structure of K onto H along R (needs R bijective)."""
    rinv = _r_inverse(r)
    if rinv is None:
        raise StructureError("functor M needs a bijective R")
    dh, fs, p = r.h.dim, r.field, r.field.p
    halg, hco = r.h.algebra, r.h.coalgebra
    smap = r.h.antipode
    # e_i . e_j = R(R^{-1} e_i . R^{-1} e_j) and e_i >- e_j = R(e_i >- R^{-1} e_j)
    rc, ri = _r_columns(r), compile_columns(rinv)
    mul = mapped(rc, bilinear_table(r.k_alg.int_mul(), ri, ri, p), p)
    act = mapped(rc, bilinear_table(r.action.int_act(), basis(dh), ri, p), p)
    alg = table_algebra(list(halg.basis_labels), mul, halg.unit, fs)
    # S_r = R o (alpha * R^{-1} S_H), for the one column R^{-1} S_H
    cols = convolve(r.action.int_act(), one_column(compile_columns(rinv.compose(smap))), hco)
    s_r = IntTable([[int_linear(rc.rows, col, p)] for col, in cols.rows], cols.scale * rc.scale)
    act_r = table_action(dh, act, fs)
    carrier = BraidedPair(alg, hco, column_matrix(dh, s_r, fs))
    return YDPostHopf(carrier, act_r, pulled_back(act_r, compile_columns(smap)), params=dict(r.params))


def functor_r(r: RelRB, mode: str = "D") -> YDPostHopf:
    """Post-Hopf structure on K with a >-_R b = R(a) >- b."""
    if mode not in ("D", "Cprime"):
        raise StructureError(f"unknown mode {mode!r}")
    dk = r.dim_k
    if mode == "D":
        if _r_inverse(r) is None:
            raise StructureError("mode D needs a bijective R")
        s_k = r.k_antipode if r.k_antipode is not None else antipode_sk(r)
    else:
        if kernel(r.r_map):
            raise StructureError("mode Cprime needs an injective R")
        s_k = r.k_antipode
        if s_k is None:
            s_k = solve_antipode(r.k_alg, r.k_coalg)
            if s_k is None:
                raise StructureError("carrier has no braided antipode")
    act_r = table_action(dk, _acted(r), r.field)
    beta = pulled_back(r.action, compile_columns(r.h.antipode.compose(r.r_map)))
    return YDPostHopf(BraidedPair(r.k_alg, r.k_coalg, s_k), act_r, beta, params=dict(r.params))


def _morphism_checker(
    axiom: str,
    f: Matrix,
    alg_src: AlgebraData,
    co_src: CoalgebraData,
    alg_dst: AlgebraData,
    co_dst: CoalgebraData,
) -> Checker:
    """f is an algebra and coalgebra morphism: f(e_i . e_j) = f(e_i) . f(e_j)
    at (0, i, j), f(1) = 1 at (1,), Delta(f(e_i)) = f(i_1) (x) f(i_2) at
    (2, i) and eps(f(e_i)) = eps(e_i) at (3, i), on the compiled columns of
    f.  The witness is the least failing tuple."""
    fc, p = compile_columns(f), alg_src.field.p
    mult = Tally()
    compare_tables(mult, mapped(fc, alg_src.int_mul(), p), bilinear_table(alg_dst.int_mul(), fc, fc, p), f.rows,
                   alg_src.field)
    ch = Checker(axiom)
    ch.absorb(mult, where=lambda w: (0,) + w)
    ch.compare((1,), f.apply(alg_src.unit), alg_dst.unit, vector_text)
    delta, counit = coalgebra_map_law(fc, co_dst, co_src)
    ch.absorb(delta, where=lambda w: (2,) + w)
    ch.absorb(counit, where=lambda w: (3,) + w)
    return ch


def check_rb_morphism(src: RelRB, dst: RelRB, f: Matrix, g: Matrix) -> CheckReport:
    """(f, g) is a morphism: both maps are algebra+coalgebra morphisms,
    f R = R' g, and g intertwines the actions."""
    rep = CheckReport()
    rep.add(_morphism_checker("RBM-F", f, src.h.algebra, src.h.coalgebra,
                              dst.h.algebra, dst.h.coalgebra).entry())
    rep.add(_morphism_checker("RBM-G", g, src.k_alg, src.k_coalg,
                              dst.k_alg, dst.k_coalg).entry())
    ch = Checker("RBM-COMM")
    ch.compare((0,), f.compose(src.r_map), dst.r_map.compose(g),
               lambda m: pairs_text(m.entries))
    rep.add(ch.entry())
    rep.add(_intertwining_checker("RBM-ACT", f, g, src.action, dst.action).entry())
    return rep


def _intertwining_checker(axiom: str, f: Matrix, g: Matrix, src: ActionTensor,
                          dst: ActionTensor) -> Checker:
    """g(x >- a) = f(x) >-' g(a) at (x, a), on the compiled tables."""
    fc, gc, p = compile_columns(f), compile_columns(g), src.field.p
    ch = Checker(axiom)
    compare_tables(ch, mapped(gc, src.int_act(), p), bilinear_table(dst.int_act(), fc, gc, p), g.rows, src.field)
    return ch


def is_posthopf_morphism(src: YDPostHopf, dst: YDPostHopf, g: Matrix) -> bool:
    """g preserves product, unit, coproduct, counit and the action."""
    ch = _morphism_checker("RBM-G", g, src.carrier.algebra, src.carrier.coalgebra,
                           dst.carrier.algebra, dst.carrier.coalgebra)
    return not ch.failures and not _intertwining_checker("RBM-ACT", g, g, src.action, dst.action).failures


def adjunction_bijection(rb: RelRB, s: YDPostHopf, f: Matrix | None = None,
                         g: Matrix | None = None, direction: str = "forward"):
    """Hom(L(s), rb) <-> Hom(s, R'(rb)): forward maps (f, g) to g, backward
    maps g to (R o g, g).  The input morphism is validated first."""
    if direction == "forward":
        if f is None or g is None:
            raise StructureError("forward direction needs the pair (f, g)")
        ls = functor_l(s)
        rep = check_rb_morphism(ls, rb, f, g)
        if not rep.all_pass():
            bad = ", ".join(e.axiom for e in rep.failed())
            raise StructureError(f"(f, g) is not a morphism of operators: {bad}")
        return g
    if direction == "backward":
        if g is None:
            raise StructureError("backward direction needs g")
        target = functor_r(rb, "Cprime")
        if not is_posthopf_morphism(s, target, g):
            raise StructureError("g is not a morphism into the induced structure")
        return rb.r_map.compose(g), g
    raise StructureError(f"unknown direction {direction!r}")


# --- groups, Lie algebras, restrictions ------------------------------------


@dataclass(frozen=True)
class GroupTable:
    """Finite group as a multiplication table over element indices."""

    elements: list[str]
    mul: list[list[int]]

    def __post_init__(self):
        n = len(self.elements)
        if len(self.mul) != n or any(len(row) != n for row in self.mul):
            raise StructureError("group table shape mismatch")

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> int | None:
        n = self.order
        for e in range(n):
            if all(self.mul[e][x] == x and self.mul[x][e] == x for x in range(n)):
                return e
        return None

    def inverse(self, i: int) -> int | None:
        e = self.identity()
        if e is None:
            return None
        for j in range(self.order):
            if self.mul[i][j] == e and self.mul[j][i] == e:
                return j
        return None


@dataclass(frozen=True)
class GroupRB:
    """R: H -> G with phi: G -> Aut(H); weight-1 law
    R(h) R(k) = R(h . phi(R(h)) k)."""

    group_g: GroupTable
    group_h: GroupTable
    phi: list[list[int]]            # phi[g][h] = index of phi(g)(h)
    r: list[int]                    # r[h] = index of R(h) in G

    def __post_init__(self):
        if len(self.phi) != self.group_g.order:
            raise StructureError("phi must have one row per element of G")
        if any(len(row) != self.group_h.order for row in self.phi):
            raise StructureError("phi row length mismatch")
        if len(self.r) != self.group_h.order:
            raise StructureError("r must list an image for every element of H")


def _group_checker(axiom: str, g: GroupTable) -> Checker:
    ch = Checker(axiom)
    n = g.order
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ch.record((i, j, k), g.mul[g.mul[i][j]][k] == g.mul[i][g.mul[j][k]],
                          "associativity", "")
    e = g.identity()
    ch.record(("identity",), e is not None, "no identity", "")
    if e is not None:
        for i in range(n):
            ch.record(("inverse", i), g.inverse(i) is not None, "no inverse", "")
    return ch


def check_group_rb(grb: GroupRB) -> CheckReport:
    """Group well-formedness, phi a homomorphism into Aut(H), weight-1 law."""
    rep = CheckReport()
    rep.add(_group_checker("GRB-GROUP-G", grb.group_g).entry())
    rep.add(_group_checker("GRB-GROUP-H", grb.group_h).entry())
    g, h = grb.group_g, grb.group_h
    ch = Checker("GRB-ACTION")
    eg = g.identity()
    for gi in range(g.order):
        row = grb.phi[gi]
        ch.record((gi, "bijective"), sorted(row) == list(range(h.order)), "not a bijection", "")
        for x in range(h.order):
            for y in range(h.order):
                ch.record((gi, x, y), row[h.mul[x][y]] == h.mul[row[x]][row[y]],
                          "not multiplicative", "")
    for g1 in range(g.order):
        for g2 in range(g.order):
            comp = [grb.phi[g1][grb.phi[g2][x]] for x in range(h.order)]
            ch.record(("hom", g1, g2), grb.phi[g.mul[g1][g2]] == comp, "phi not a homomorphism", "")
    if eg is not None:
        ch.record(("unit",), grb.phi[eg] == list(range(h.order)), "phi(e) is not the identity", "")
    rep.add(ch.entry())
    ch = Checker("GRB-W1")
    for x in range(h.order):
        rx = grb.r[x]
        for y in range(h.order):
            lhs = g.mul[rx][grb.r[y]]
            rhs = grb.r[h.mul[x][grb.phi[rx][y]]]
            ch.record((x, y), lhs == rhs, str(lhs), str(rhs))
    rep.add(ch.entry())
    return rep


@dataclass(frozen=True)
class LieData:
    """Lie algebra by structure constants."""

    dim: int
    bracket: list[list[Vector]]
    field: FieldSpec


@dataclass(frozen=True)
class LieRB:
    """Linear R: h -> g with phi: g -> Der(h); weight-1 law
    [R(x), R(y)] = R(phi(R x) y - phi(R y) x + [x, y])."""

    lie_g: LieData
    lie_h: LieData
    phi: ActionTensor               # phi[i][j] = phi(g_i)(h_j)
    r: Matrix                       # h -> g

    def __post_init__(self):
        if self.phi.acting_dim != self.lie_g.dim or self.phi.target_dim != self.lie_h.dim:
            raise StructureError("phi shape mismatch")
        if self.r.rows != self.lie_g.dim or self.r.cols != self.lie_h.dim:
            raise StructureError("r shape mismatch")


def _lie_checker(axiom: str, lie: LieData) -> Checker:
    """Antisymmetry at (0, i, j) and Jacobi at (1, i, j, k), on the compiled
    bracket.  The witness is the least failing tuple."""
    skew, jacobi = Tally(), Tally()
    _skew(skew, lie.bracket)
    _jacobi(jacobi, compile_tensor(lie.bracket, lie.field), lie.dim, lie.field)
    ch = Checker(axiom)
    ch.absorb(skew, where=lambda w: (0,) + w)
    ch.absorb(jacobi, where=lambda w: (1,) + w)
    return ch


def check_lie_rb(l: LieRB) -> CheckReport:
    """Lie axioms, phi an action by derivations, weight-1 law, induced
    post-Lie, on the compiled brackets, action and columns of R."""
    rep = CheckReport()
    rep.add(_lie_checker("LRB-LIE-G", l.lie_g).entry())
    rep.add(_lie_checker("LRB-LIE-H", l.lie_h).entry())
    dg, dh = l.lie_g.dim, l.lie_h.dim
    fs = l.lie_h.field
    bg, bh = compile_tensor(l.lie_g.bracket, fs), compile_tensor(l.lie_h.bracket, fs)
    ph, rc = l.phi.int_act(), compile_columns(l.r)

    # (0, i, a, b): phi_i [a, b] = [phi_i a, b] + [a, phi_i b], and
    # (1, i, j, a): phi_[i, j] a = phi_i phi_j a - phi_j phi_i a
    ch = Checker("LRB-ACTION")
    ch.absorb(_derivation(ph, bh, dh, fs), where=lambda w: (0,) + w)
    ch.absorb(_commutator(ph, bg, dh, fs), where=lambda w: (1,) + w)
    rep.add(ch.entry())

    # (a, b): [R a, R b] = R(phi(R a) b - phi(R b) a + [a, b])
    pr = pull_back(l.phi, rc)  # phi(R e_x) e_y

    def weight1(acc, prefix, wl, wr):
        a, = prefix
        for b in range(dh):
            add_bilinear(acc, bg.rows, rc.rows[a], rc.rows[b], wl, b * dg)
            inner: dict[int, int] = {}
            add_linear(inner, [pr.rows[a][b], pr.rows[b][a], bh.rows[a][b]],
                       ((0, bh.scale), (1, -bh.scale), (2, pr.scale)), 1)
            add_linear(acc, rc.rows, inner.items(), wr, b * dg)

    ch = Checker("LRB-W1")
    compare(ch, line(dh), dh, dg, weight1, bg.scale * rc.scale ** 2, rc.scale * pr.scale * bh.scale, fs,
            vector_render(dg))
    rep.add(ch.entry())
    # induced post-Lie structure x >- y := phi(R(x)) y on the domain
    pl = PostLieData(dh, [list(row) for row in l.lie_h.bracket], table_vectors(dh, pr, fs), fs)
    rep.add(check_post_lie(pl).summary("LRB-POSTLIE"))
    return rep


def restrict_to_grouplikes(r: RelRB, candidates: list[Vector]) -> GroupRB:
    """Verify the candidates are group-like and closed, then build the
    finite weight-1 operator on them."""
    dk = r.dim_k
    fs = r.field
    kco, kalg = r.k_coalg, r.k_alg
    if candidates:
        # group-like: e_x -> candidates[x] is a coalgebra map from the
        # coalgebra of the points x, Delta(e_x) = e_x (x) e_x and eps(e_x) = 1
        n = len(candidates)
        points = CoalgebraData(n, [[(x, x, fs.one)] for x in range(n)], Vector(n, dict.fromkeys(range(n), fs.one), fs),
                               fs)
        t = Tally()
        for law in coalgebra_map_law(compile_vectors(candidates, fs), kco, points):
            t.absorb(law)
        bad = t.witness
        if bad is not None:
            raise StructureError(f"candidate {vector_text(candidates[bad.where[0]])} is not group-like")

    def index_of(vec: Vector, pool: list[Vector], what: str) -> int:
        for i, w in enumerate(pool):
            if w == vec:
                return i
        raise StructureError(f"{what} not closed: {vector_text(vec)} missing")

    def label_for(v: Vector, labels: list[str], fallback: str) -> str:
        if len(v.entries) == 1:
            (i, c), = v.entries.items()
            if c == fs.one:
                return labels[i]
        return fallback

    h_elems = candidates
    h_mul = [[index_of(v, h_elems, "candidate set under the product") for v in row]
             for row in bilinear_vectors(kalg.int_mul(), dk, h_elems, h_elems, fs)]
    h_labels = [label_for(v, kalg.basis_labels, f"h{i}") for i, v in enumerate(h_elems)]
    g_elems: list[Vector] = []
    r_idx: list[int] = []
    for v in h_elems:
        img = r.r_map.apply(v)
        for i, w in enumerate(g_elems):
            if w == img:
                r_idx.append(i)
                break
        else:
            g_elems.append(img)
            r_idx.append(len(g_elems) - 1)
    halg = r.h.algebra
    g_mul = [[index_of(v, g_elems, "image set under the product") for v in row]
             for row in bilinear_vectors(halg.int_mul(), halg.dim, g_elems, g_elems, fs)]
    g_labels = [label_for(v, halg.basis_labels, f"g{i}") for i, v in enumerate(g_elems)]
    phi = [[index_of(v, h_elems, "candidate set under the action") for v in row]
           for row in bilinear_vectors(r.action.int_act(), dk, g_elems, h_elems, fs)]
    grb = GroupRB(GroupTable(g_labels, g_mul), GroupTable(h_labels, h_mul), phi, r_idx)
    rep = check_group_rb(grb)
    if not rep.all_pass():
        bad = ", ".join(e.axiom for e in rep.failed())
        raise StructureError(f"restricted group operator fails: {bad}")
    return grb


def restrict_to_primitives(r: RelRB) -> LieRB:
    """Weight-1 operator between the Lie algebras of primitive elements."""
    fs = r.field
    p_k = primitives(r.k_coalg, r.k_alg.unit)
    p_h = primitives(r.h.coalgebra, r.h.algebra.unit)

    def coords(pool: list[Vector], rows: list[list[Vector]], what: str) -> list[list[Vector]]:
        """The coordinates in pool of each vector of rows, row by row."""
        flat = _span_coords(pool, [v for row in rows for v in row], fs)
        if None in flat:
            if not pool:
                raise StructureError(f"{what}: nonzero vector outside the zero space")
            raise StructureError(f"{what}: not closed under the restriction")
        it = iter(flat)
        return [[next(it) for _ in row] for row in rows]

    def bracket_of(pool: list[Vector], alg: AlgebraData) -> LieData:
        return LieData(len(pool), coords(pool, commutators(alg, pool), "commutator bracket"), fs)

    lie_h = bracket_of(p_k, r.k_alg)
    lie_g = bracket_of(p_h, r.h.algebra)
    phi_rows = coords(p_k, bilinear_vectors(r.action.int_act(), r.dim_k, p_h, p_k, fs), "primitive action")
    phi = ActionTensor(len(p_h), len(p_k), phi_rows, fs)
    r_cols, = coords(p_h, [[r.r_map.apply(v) for v in p_k]], "image of a primitive")
    rmat = Matrix(
        len(p_h), len(p_k),
        {(i, j): c for j, col in enumerate(r_cols) for i, c in col.entries.items()},
        fs,
    )
    lrb = LieRB(lie_g, lie_h, phi, rmat)
    rep = check_lie_rb(lrb)
    if not rep.all_pass():
        bad = ", ".join(e.axiom for e in rep.failed())
        raise StructureError(f"restricted Lie operator fails: {bad}")
    return lrb
