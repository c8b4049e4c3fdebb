"""Yetter-Drinfeld braces, matched pairs of actions, and the functors
between them and post-Hopf structures.

The brace bundles a braided side (., S) and an ordinary Hopf side (o, T)
over one shared coalgebra; the matched pair lives on the subadjacent Hopf
algebra.  The conversions here are each other's strict inverses on
structure constants, and the checkers verify that instance by instance.

HB-MP5, MP-5, MP-1, MP-2 and MP-MODC's parts 0-4, 6 and 7 call the action
laws of ``hopf``, MP-2 and MP-MODC 7 on the right action as a left one;
MP-MODC keeps the first failure of its interleaved parts as its witness
(see ``report.Tally``).  MP-HOPF folds ``hopf.check_hopf`` on the Hopf
algebra, as HB-HOPF does for a brace.  HB-COMPAT, MP-3, MP-4, MP-BC and
MP-MODC's part 5 (the right module law) run on compiled int tables
(``compiled``):
each side is one contraction with a known scale, summed one row of tuples
per call, the two are compared cross-multiplied, and a ``Vector`` is built
only to render a witness.  MP-4 runs on rows (b, c) over a, so its witness
is the first failure in the order (b, c, a).

The functors G and from-matched-pair build their maps as convolutions on
the compiled tables (``hopf.convolve``): the brace action (L o S) * L^o,
and the braided product L^o * (alpha o T) and antipode alpha * T; beta is
the pull-back alpha o T (``hopf.pull_back``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from time import perf_counter

from .compiled import (
    IntTable, add_bilinear, add_linear, compare, compile_columns, int_bilinear, int_items, line, square,
    vector_render,
)
from .field import FieldSpec, Scalar
from .hopf import (
    ActionTensor,
    BraidedPair,
    HopfData,
    StructureError,
    check_hopf,
    column_matrix,
    convolve,
    left_products,
    module_algebra_unit_law,
    module_coalgebra_law,
    module_law,
    module_unit_law,
    mp5_law,
    one_column,
    pull_back,
    pulled_back,
    table_action,
    table_algebra,
)
from .report import Checker, CheckEntry, CheckReport, FAIL, PASS, Tally, Witness, vector_text
from .posthopf import (
    YDPostHopf,
    bullet_algebra,
    check_yd_hopf_monoid,
    leftharpoon,
    sharp_antipode,
    subadjacent_hopf,
)


@dataclass(frozen=True)
class YDBrace:
    """dot side (., S) as a braided pair; bullet side (o, T) an ordinary Hopf
    algebra on the same coalgebra.  Both antipodes are stored explicitly."""

    dot_side: BraidedPair
    bullet_side: HopfData
    params: dict[str, Scalar] = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.dot_side.dim != self.bullet_side.dim:
            raise StructureError("brace sides must share one dimension")
        if self.dot_side.coalgebra != self.bullet_side.coalgebra:
            raise StructureError("brace sides must share the coalgebra")

    @property
    def dim(self) -> int:
        return self.dot_side.dim

    @property
    def field(self) -> FieldSpec:
        return self.dot_side.field


@dataclass(frozen=True)
class MatchedPair:
    """Hopf algebra with a left action and a right action of itself."""

    hopf: HopfData
    left_action: ActionTensor
    right_action: ActionTensor
    params: dict[str, Scalar] = dc_field(default_factory=dict)

    def __post_init__(self):
        d = self.hopf.dim
        for t in (self.left_action, self.right_action):
            if t.acting_dim != d or t.target_dim != d:
                raise StructureError("matched-pair action shape mismatch")

    @property
    def dim(self) -> int:
        return self.hopf.dim

    @property
    def field(self) -> FieldSpec:
        return self.hopf.field


def brace_action(b: YDBrace) -> ActionTensor:
    """The induced action a >- b = S(a_1) . (a_2 o b): (L o S) * L^o
    (``hopf.convolve``), L o S the left products S(e_j) . e_r and L^o the
    bullet product."""
    d, fs = b.dim, b.field
    dot = b.dot_side
    left = left_products(compile_columns(dot.s_map), dot.algebra.int_mul(), fs.p)
    act = convolve(left, b.bullet_side.algebra.int_mul(), dot.coalgebra)
    return table_action(d, act, fs)


def functor_g(b: YDBrace) -> YDPostHopf:
    """Brace to post-Hopf: keep the dot side, induce the action and beta,
    beta_a = (T(a) >- -) with T the bullet-side antipode."""
    action = brace_action(b)
    beta = pulled_back(action, compile_columns(b.bullet_side.antipode))
    return YDPostHopf(b.dot_side, action, beta, params=dict(b.params))


def functor_f(s: YDPostHopf) -> YDBrace:
    """Post-Hopf to brace: bullet side is the subadjacent Hopf algebra."""
    hopf = HopfData(bullet_algebra(s), s.carrier.coalgebra, sharp_antipode(s))
    return YDBrace(s.carrier, hopf, params=dict(s.params))


def _brace_compat(t: Tally, b: YDBrace) -> None:
    """HB-COMPAT, a o (b.c) = (a_1 o b) . S(a_2) . (a_3 o c) at (a, b, c), on
    the compiled product, bullet, S and threefold-leg tables, one row (a, b)
    per contract call.  For each row the prefixes c (a_1 o b) . S(a_2) are
    summed grouped by a_3, so each c costs one product per distinct a_3."""
    d, fs, p = b.dim, b.field, b.field.p
    mul, bullet, legs = b.dot_side.algebra.int_mul(), b.bullet_side.algebra.int_mul(), b.dot_side.coalgebra.int_legs(3)
    scols = compile_columns(b.dot_side.s_map)
    m, o, s_, l_ = mul.rows, bullet.rows, scols.rows, legs.rows

    def compat(acc, prefix, wl, wr):
        a, i = prefix
        if wl:
            oa = o[a]
            for j, mij in enumerate(m[i]):
                add_linear(acc, oa, mij, wl, j * d)
        if wr:
            groups: dict[int, dict] = {}
            for (a1, a2, a3), c in l_[a]:
                g = groups.get(a3)
                if g is None:
                    g = groups[a3] = {}
                add_bilinear(g, m, o[a1][i], s_[a2], c)
            for a3, g in groups.items():
                u = int_items(g, p)
                if u:
                    for j, v in enumerate(o[a3]):
                        add_bilinear(acc, m, u, v, wr, j * d)

    sr = legs.scale * bullet.scale ** 2 * scols.scale * mul.scale ** 2
    compare(t, square(d), d, d, compat, mul.scale * bullet.scale, sr, fs, vector_render(d))


def check_yd_brace(b: YDBrace) -> CheckReport:
    """HB-HOPF, HB-COMPAT, HB-YD, HB-MP5 with first-failure witnesses."""
    d = b.dim
    coalg = b.dot_side.coalgebra
    bullet = b.bullet_side.algebra
    rep = CheckReport()

    rep.add(check_hopf(b.bullet_side).summary("HB-HOPF"))

    ch = Checker("HB-COMPAT")
    _brace_compat(ch, b)
    rep.add(ch.entry())

    # HB-YD: the induced post-Hopf data reproduces the bullet side and passes
    # the Hopf-monoid-in-YD checks; its time covers all of that work
    t0 = perf_counter()
    s = functor_g(b)
    sub_fail: tuple | None = None
    derived_bullet = bullet_algebra(s)
    for i in range(d):
        for j in range(d):
            if derived_bullet.mul[i][j] != bullet.mul[i][j]:
                sub_fail = ((i, j), vector_text(derived_bullet.mul[i][j]), vector_text(bullet.mul[i][j]))
                break
        if sub_fail:
            break
    if sub_fail is None:
        derived_sharp = sharp_antipode(s)
        if derived_sharp != b.bullet_side.antipode:
            sub_fail = (("antipode",), "derived S_>", "stored T")
    if sub_fail is None:
        monoid = check_yd_hopf_monoid(s)
        if not monoid.all_pass():
            first = monoid.failed()[0]
            sub_fail = ((first.axiom,) + first.witness.where, first.witness.lhs, first.witness.rhs)
    seconds = perf_counter() - t0
    if sub_fail is None:
        rep.add(CheckEntry("HB-YD", PASS, checked=d * d, seconds=seconds))
    else:
        rep.add(CheckEntry("HB-YD", FAIL, Witness(*sub_fail), seconds=seconds))

    # HB-MP5 on the induced pair (>-, -<)
    ch = Checker("HB-MP5")
    ch.absorb(mp5_law(s.action, leftharpoon(s), coalg))
    rep.add(ch.entry())
    return rep


def to_matched_pair(s: YDPostHopf) -> MatchedPair:
    """(subadjacent Hopf, >-, -<) with the right action from the harpoon."""
    hopf = subadjacent_hopf(s, verify=False)
    return MatchedPair(hopf, s.action, leftharpoon(s), params=dict(s.params))


def from_matched_pair(mp: MatchedPair) -> YDPostHopf:
    """Braided product a.b = a_1 o (T(a_2) >- b) and S(a) = a_1 >- T(a_2):
    L^o * (alpha o T) and alpha * T for the one column T
    (``hopf.convolve``), alpha o T the action pulled back along T, which is
    also beta."""
    d, fs = mp.dim, mp.field
    hopf, act = mp.hopf, mp.left_action
    coalg, bullet = hopf.coalgebra, hopf.algebra
    tcols = compile_columns(hopf.antipode)
    beta = pull_back(act, tcols)
    mul = convolve(bullet.int_mul(), beta, coalg)
    smap = convolve(act.int_act(), one_column(tcols), coalg)
    alg = table_algebra(list(bullet.basis_labels), mul, bullet.unit, fs)
    return YDPostHopf(BraidedPair(alg, coalg, column_matrix(d, smap, fs)), act, table_action(d, beta, fs),
                      params=dict(mp.params))


def _matched_pair_laws(mp: MatchedPair):
    """MP-3, MP-4 and MP-BC on the compiled product, action and coproduct
    tables, as three functions that each fill the tally they are given.  All
    three read the sums of c_x c_y (x_1 >- y_1) over the legs of x and y,
    grouped by (x_2, y_2), made once per pair (x, y):

    - MP-3, a >- (b o c) = (a_1 >- b_1) o ((a_2 -< b_2) >- c) at (a, b, c);
    - MP-4, (a o b) -< c = (a -< (b_1 >- c_1)) o (b_2 -< c_2) at (a, b, c),
      on rows (b, c) over a, so that its witness is the first failure in
      the order (b, c, a);
    - MP-BC, a o b = (a_1 >- b_1) o (a_2 -< b_2) at (a, b)."""
    d, fs, p = mp.dim, mp.field, mp.field.p
    mul, left, right, comul = (mp.hopf.algebra.int_mul(), mp.left_action.int_act(), mp.right_action.int_act(),
                               mp.hopf.coalgebra.int_comul())
    m, x_, r_, c_ = mul.rows, left.rows, right.rows, comul.rows
    pieces: dict = {}  # (x, y) -> [(x_2 -< y_2, sum of c_x c_y (x_1 >- y_1), x_2, y_2)]
    acted: dict = {}  # (x, y) -> [(x -< y) >- c for each c]

    def grouped(x, y):
        """The groups of (x, y) whose x_2 -< y_2 is not 0: every term of the
        three laws is a product with it or with an action on it."""
        out = pieces.get((x, y))
        if out is None:
            groups: dict[tuple[int, int], dict] = {}
            for x1, x2, cx in c_[x]:
                for y1, y2, cy in c_[y]:
                    if r_[x2][y2]:
                        g = groups.get((x2, y2))
                        if g is None:
                            g = groups[(x2, y2)] = {}
                        add_linear(g, x_[x1], ((y1, cx * cy),), 1)
            out = pieces[(x, y)] = [(r_[x2][y2], u, x2, y2) for (x2, y2), g in groups.items()
                                    if (u := int_items(g, p))]
        return out

    def columns(x2, y2, rv):
        ws = acted.get((x2, y2))
        if ws is None:
            ws = acted[(x2, y2)] = [int_bilinear(x_, rv, ((k, 1),), p) for k in range(d)]
        return ws

    r_cols = [[row[c] for row in r_] for c in range(d)]  # r_cols[c][k] = k -< c

    def mp3(acc, prefix, wl, wr):
        a, b = prefix
        if wl:
            xa = x_[a]
            for c, mbc in enumerate(m[b]):
                add_linear(acc, xa, mbc, wl, c * d)
        if wr:
            for rv, u, a2, b2 in grouped(a, b):
                for c, wc in enumerate(columns(a2, b2, rv)):
                    if wc:
                        add_bilinear(acc, m, u, wc, wr, c * d)

    def mp4(acc, prefix, wl, wr):
        b, c = prefix
        if wl:
            rc = r_cols[c]
            for a in range(d):
                add_linear(acc, rc, m[a][b], wl, a * d)
        if wr:
            for rv, u, _, _ in grouped(b, c):
                for a, ra in enumerate(r_):
                    for k, n in u:
                        if ra[k]:
                            add_bilinear(acc, m, ra[k], rv, wr * n, a * d)

    def mp_bc(acc, prefix, wl, wr):
        a, = prefix
        if wl:
            for b in range(d):
                add_linear(acc, m[a], ((b, 1),), wl, b * d)
        if wr:
            for b in range(d):
                for rv, u, _, _ in grouped(a, b):
                    add_bilinear(acc, m, u, rv, wr, b * d)

    sm, sx, sr, sc2 = mul.scale, left.scale, right.scale, comul.scale ** 2
    render = vector_render(d)

    def run_mp3(t: Tally) -> None:
        compare(t, square(d), d, d, mp3, sm * sx, sc2 * sx * sr * sx * sm, fs, render)

    def run_mp4(t: Tally) -> None:
        bca = Tally()
        compare(bca, square(d), d, d, mp4, sm * sr, sc2 * sx * sr * sr * sm, fs, render)
        t.absorb(bca, where=lambda w: (w[2], w[0], w[1]))

    def run_mp_bc(t: Tally) -> None:
        compare(t, line(d), d, d, mp_bc, sm, sc2 * sx * sr * sm, fs, render)

    return run_mp3, run_mp4, run_mp_bc


def _right_module(t: Tally, mp: MatchedPair) -> None:
    """MP-MODC's part 5, the right module law (c -< a) -< b = c -< (a.b) at
    (a, b, c), on the compiled right action and product tables."""
    mul, right = mp.hopf.algebra.int_mul(), mp.right_action.int_act()
    m, r_ = mul.rows, right.rows

    d = mp.dim

    def law(acc, prefix, wl, wr):
        a, b = prefix
        get = acc.get
        if wl:
            rb = [row[b] for row in r_]  # rb[k] = k -< b
            for c, rc in enumerate(r_):
                base = c * d
                for k, x in rc[a]:
                    x *= wl
                    for q, e in rb[k]:
                        q += base
                        acc[q] = get(q, 0) + x * e
        if wr:
            mab = m[a][b]
            for c, rc in enumerate(r_):
                base = c * d
                for k, x in mab:
                    x *= wr
                    for q, e in rc[k]:
                        q += base
                        acc[q] = get(q, 0) + x * e

    compare(t, square(d), d, d, law, right.scale ** 2, mul.scale * right.scale, mp.field, vector_render(d))


def _transposed(act: ActionTensor) -> ActionTensor:
    """The action with its arguments swapped, t[y][x] = act[x][y], its
    compiled table transposed alike: a right action as a left one."""
    x = act.int_act()
    out = ActionTensor(act.target_dim, act.acting_dim, [list(col) for col in zip(*act.act)], act.field)
    return ActionTensor.int_act.seed(out, IntTable([list(col) for col in zip(*x.rows)], x.scale))


def check_matched_pair(mp: MatchedPair) -> CheckReport:
    """The Hopf algebra, module-coalgebra actions, and the matched-pair
    equations MP-1..5, MP-BC."""
    d = mp.dim
    hopf = mp.hopf
    alg = hopf.algebra
    coalg = hopf.coalgebra
    left, right = mp.left_action, mp.right_action
    rep = CheckReport()

    rep.add(check_hopf(hopf).summary("MP-HOPF"))

    # MP-MODC: both actions are coalgebra morphisms (parts 0-3) and module
    # actions over the Hopf product (4, 5), with unit rows (6, 7); the right
    # module law is ``_right_module``, at (5, b, c, a), and a -< 1 = a is
    # the unit row of the right action as a left one
    ch = Checker("MP-MODC")
    rmod, right_t = Tally(), _transposed(right)
    _right_module(rmod, mp)
    runit = module_unit_law(right_t, alg)
    parts = (*module_coalgebra_law(left, coalg, coalg), *module_coalgebra_law(right, coalg, coalg),
             module_law(left, alg), rmod, module_unit_law(left, alg), runit)
    # The parts interleave per (i, j): parts 0-3 at (i, j), then parts 4 and
    # 5 at (i, j, k) for each k, and the unit rows after every (i, j).  The
    # witness is the first failure in that order, which is not the least
    # failing tuple when, say, part 5 fails at a smaller i than part 2.
    firsts = []
    for part, t in enumerate(parts):
        ch.absorb(t)
        if t.witness is not None:
            at = t.witness.where if part < 6 else (d,) + t.witness.where
            firsts.append(((*at[:2], min(part, 4), *at[2:], part),
                           Witness((part,) + t.witness.where, t.witness.lhs, t.witness.rhs)))
    ch.witness = min(firsts)[1] if firsts else None
    rep.add(ch.entry())

    ch = Checker("MP-1")
    ch.absorb(module_algebra_unit_law(left, coalg, alg))
    rep.add(ch.entry())

    # MP-2: 1 -< a = eps(a) 1
    ch = Checker("MP-2")
    ch.absorb(module_algebra_unit_law(right_t, coalg, alg))
    rep.add(ch.entry())

    for axiom, run in zip(("MP-3", "MP-4", "MP-BC"), _matched_pair_laws(mp)):
        ch = Checker(axiom)
        run(ch)
        rep.add(ch.entry())

    ch = Checker("MP-5")
    ch.absorb(mp5_law(left, right, coalg))
    rep.add(ch.entry())
    return rep
