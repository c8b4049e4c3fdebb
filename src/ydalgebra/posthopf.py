"""Yetter-Drinfeld post-Hopf structures.

A structure is a braided carrier (H, ., 1, Delta, eps, S) together with a
coalgebra-morphism action x >- y whose endomorphism picture alpha is
convolution invertible with inverse beta.  This module houses the axiom
suite, the derived maps (bullet product, sharp antipode S_>, left harpoon,
adjoint coaction, braiding), the derived-identity lemmas, the primitive
subspace and the induced post-Lie algebra.

Axiom identifiers (P-*, L-*, YD-*, PL-*) are stable and shared with the
report machinery; all checks run exhaustively over basis tuples in
lexicographic order, so witnesses are deterministic.

Some axiom IDs restate one identity.  Each such identity is evaluated once
per structure, by whichever suite asks first, and cached; every ID that
restates it reports from that result, with its own tuple labels, counts
and first failure:

- P-DOT, x >- (y.z) = (x_1 >- y).(x_2 >- z), is L-MA; with L-U,
  x >- 1 = eps(x) 1, it is YD-MODALG (>- makes H a module algebra).
- P-COALG's compares of Delta(x >- y) and eps(x >- y) are YD-MODCOALG (>-
  makes H a module coalgebra); the first of them is L-DA.
- P-ASSOC, x >- (y >- z) = (x_1 . (x_2 >- y)) >- z, is YD-MODULE with its
  sides swapped: x_1 . (x_2 >- y) is the bullet product x o y.
- YD-BRAIDMULT is P-DELTA once Delta is coassociative: its row (a, b, 0)
  compares Delta(a.b) with the braided product, which is P-DELTA's
  right-hand side summed over another bracketing of the fourfold legs of a,
  so the row is P-DELTA's compare at (a, b); its row (a, b, 1), compared
  only where row 0 passes, then passes.  On a Delta that is not
  coassociative both sides of row 0 are summed, and row 1 reports P-DELTA's
  verdict at (a, b).
- L-MB, beta_x(y.z) = beta_{x_2}(y).beta_{x_1}(z), and L-DB,
  Delta(beta_x(y)) = beta_{x_2}(y_1) (x) beta_{x_1}(y_2), are P-DOT and L-DA
  carried through beta = alpha o S_>.  Once L-BETA passes and P-ANTI's
  Delta rows do (S_> is an anti-coalgebra map), a premise that passes at
  every tuple holds with S_>(x) acting, by linearity in the acting element,
  so its lemma passes at every tuple and its entry counts them as checked,
  with nothing summed; otherwise the lemma is summed on beta.

P-DOT, P-COALG and P-ASSOC, L-1ACT, P-MP5, and L-MB and L-DB when they are
summed call the action laws of ``hopf``, P-S its ``antipode_law``, the last
rows of P-COALG its ``bialgebra_unit_laws`` and P-ANTI the Delta rows of its
``coalgebra_map_law`` with the legs swapped (S_> is an anti-coalgebra
map); P-CONV reports the tallies of ``hopf._verify_endo_inverse``, those
the solver computed when the suite solves beta itself.  The Lie laws are
written once here and shared with ``rota``'s Lie checker: ``_jacobi``
(PL-JAC, PL-SUB, LRB-LIE), ``_derivation`` (PL-1, LRB-ACTION's rows 0)
and ``_commutator`` (PL-2, LRB-ACTION's rows 1).  ``_span_coords`` solves
every vector against the primitives in one elimination, for
``extract_post_lie`` and ``rota.restrict_to_primitives``.

A structure is frozen.  beta alone may be filled after construction, once,
from None (``solve_beta``, or P-CONV when it solves beta), so a cached
result that reads beta is always made from the beta the structure keeps.
To change beta, build a new structure (``dataclasses.replace``), whose
cache starts empty.

Every identity runs on compiled plain-int tables (``compiled``): the
carrier checks, P-S, P-DOT, L-MB, P-ASSOC, P-COALG, L-DB, P-ANTI and
P-MP5 through the laws of ``hopf``; P-DELTA and, on a Delta that is not
coassociative, both rows of YD-BRAIDMULT, whose sides live in H (x) H and
are keyed y * dim**2 + p * dim + q on a row (x,), P-DELTA's right-hand
side on the threefold legs and the bullet table (``_pdelta_rhs``, whose
sum ``_pdelta_side`` is shared with ``builders``, where it extends the
coproduct from the generators);
YD-COMPAT and YD-COLINEAR on the action, product, bullet and coproduct
tables and the compiled Ad_L columns and grouped legs, both reading one
table of sums over the second-leg groups of their second argument
(``_second_leg_sums``), made once per structure, and left-associated as
they are written.  Each runs one row of tuples per call
of its contract (``compiled.compare``): P-DOT, L-MB and P-ASSOC on rows
(x, y) over z, the identities on pairs on rows (x,) over y.  L-MA, YD-MODALG,
YD-MODULE, L-DA and YD-MODCOALG report from the same tallies.  Each side
of each of these identities is one contraction pattern whose int sum
carries the product of its tables' scales, and ``compiled.compare``
cross-multiplies the two sides by each other's scale.  A ``Vector`` or
pair dict is built only to render the first failing tuple.  So do the
lemmas L-BETA and L-SLIN (two compiled tables compared entrywise),
L-ANTI2, ``is_pre_hopf``, the primitives and the post-Lie checks.  The left
harpoon and the braiding are summed as ints on the same tables and divided
by their scale once per entry, so they are the exact tensors; the left
harpoon's inner sum is made once per (x, y_1).  The
bullet product and S_> are convolutions on the compiled tables
(``hopf.convolve``), L * alpha and beta * S, and Ad_L is
``hopf.coaction`` with R = id on the subadjacent Hopf algebra.  The
compiled beta table lives on the beta tensor; the S_> columns, Ad_L
columns, braiding columns, grouped legs and second-leg sums are cached
results that read beta, each made once beta is there.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from .compiled import (
    IntTable, add_bilinear, add_linear, add_tensors, basis, bilinear_table, bilinear_vectors, comul_side, compare,
    compare_tables, compared, compile_columns, compile_tensor, compile_vectors, int_bilinear, int_items, int_linear,
    int_vector, line, mapped, pairs_render, render_sides, sides, square, vector_render,
)
from .field import FieldSpec, Scalar
from .hopf import (
    ActionTensor,
    AlgebraData,
    BraidedPair,
    CoalgebraData,
    HopfData,
    StructureError,
    _verify_endo_inverse,
    antipode_law,
    bialgebra_unit_laws,
    check_algebra,
    check_coalgebra,
    check_hopf,
    coassociative_law,
    coaction,
    coalgebra_map_law,
    column_matrix,
    convolve,
    eps_unit_side,
    grouped_legs,
    hom_convolution_inverse_endo,
    module_algebra_law,
    module_algebra_unit_law,
    module_coalgebra_law,
    module_law,
    module_unit_law,
    mp5_law,
    one_column,
    pull_back,
    table_algebra,
)
from .linalg import (
    Matrix, Vector, _cache_slot, _per_structure, identity_matrix, kernel, matrix_from_columns, solve_many,
)
from .report import (
    FAIL, Checker, CheckEntry, CheckReport, Tally, Witness, skipped_entry, vector_text,
)


@dataclass(frozen=True)
class YDPostHopf:
    """Braided carrier plus action; beta is supplied or solved on demand.
    beta is the one field that may be filled after construction, once, from
    None (``_fill_beta``)."""

    carrier: BraidedPair
    action: ActionTensor
    beta: ActionTensor | None = None
    params: dict[str, Scalar] = dc_field(default_factory=dict)
    _cache: dict = _cache_slot()

    def __post_init__(self):
        d = self.carrier.dim
        if self.action.acting_dim != d or self.action.target_dim != d:
            raise StructureError("action shape must match the carrier")
        if self.beta is not None and (
            self.beta.acting_dim != d or self.beta.target_dim != d
        ):
            raise StructureError("beta shape must match the carrier")

    @property
    def dim(self) -> int:
        return self.carrier.dim

    @property
    def field(self) -> FieldSpec:
        return self.carrier.field


def ensure_beta(s: YDPostHopf) -> ActionTensor:
    if s.beta is None:
        solve_beta(s)
    return s.beta


def _fill_beta(s: YDPostHopf, beta: ActionTensor) -> None:
    """Fill s.beta, which the caller has seen is None.  A cached result that
    reads beta is made only once beta is there, so none goes stale."""
    object.__setattr__(s, "beta", beta)


def solve_beta(s: YDPostHopf) -> ActionTensor:
    """Solve the convolution-inverse system for beta and fill it on s;
    ``StructureError`` if s has a beta already."""
    if s.beta is not None:
        raise StructureError("beta is already set; build a new structure to change it")
    res = hom_convolution_inverse_endo(s.action, s.carrier.coalgebra)
    if res.beta is None:
        raise StructureError(f"alpha is not convolution invertible: no beta exists ({res.reason})")
    _fill_beta(s, res.beta)
    return res.beta


@_per_structure
def bullet_algebra(s: YDPostHopf) -> AlgebraData:
    """Subadjacent product x o y = x_1 . (x_2 >- y) as an algebra table:
    L * alpha (``hopf.convolve``), L the left products of the carrier."""
    alg = s.carrier.algebra
    bullet = convolve(alg.int_mul(), s.action.int_act(), s.carrier.coalgebra)
    return table_algebra(list(alg.basis_labels), bullet, alg.unit, s.field)


@_per_structure
def sharp_antipode(s: YDPostHopf) -> Matrix:
    """S_>(x) = beta_{x_1}(S(x_2)), the subadjacent antipode: beta * S for
    the one column S (``hopf.convolve``)."""
    beta = ensure_beta(s).int_act()
    sharp = convolve(beta, one_column(compile_columns(s.carrier.s_map)), s.carrier.coalgebra)
    return column_matrix(s.dim, sharp, s.field)


@_per_structure
def _sharp_columns(s: YDPostHopf) -> IntTable:
    """The columns S_>(e_i) of the sharp antipode, compiled."""
    return compile_columns(sharp_antipode(s))


@_per_structure
def leftharpoon(s: YDPostHopf) -> ActionTensor:
    """x -< y = S_>(x_1 >- y_1) o x_2 o y_2 (bullet products, left-associated),
    summed as ints on the compiled action, S_> and bullet tables and divided
    by their scale once per entry, so the vectors are the exact ones.  The
    inner sum W[x][y_1] = sum over Delta(x) of c S_>(x_1 >- e_{y_1}) o x_2
    depends on (x, y_1) alone, so it is summed once for each, and entry
    (x, y) is the sum over Delta(y) of c W[x][y_1] o y_2."""
    act, bullet, sharp, comul = (s.action.int_act(), bullet_algebra(s).int_mul(), _sharp_columns(s),
                                 s.carrier.coalgebra.int_comul())
    x_, o, c_ = act.rows, bullet.rows, comul.rows
    d, fs, p = s.dim, s.field, s.field.p
    images = [[int_linear(sharp.rows, x_[i][j], p) for j in range(d)] for i in range(d)]  # S_>(e_i >- e_j)
    scale = sharp.scale * act.scale * (bullet.scale * comul.scale) ** 2
    rows = []
    for i in range(d):
        inner = []  # W[i][j1]
        for j1 in range(d):
            acc: dict[int, int] = {}
            for i1, i2, ci in c_[i]:
                if u := images[i1][j1]:
                    add_bilinear(acc, o, u, ((i2, ci),), 1)
            inner.append(int_items(acc, p))
        row = []
        for legs in c_:
            acc = {}
            for j1, j2, cj in legs:
                if u := inner[j1]:
                    add_bilinear(acc, o, u, ((j2, cj),), 1)
            row.append(int_vector(d, acc, scale, fs))
        rows.append(row)
    return ActionTensor(d, d, rows, fs)


@_per_structure
def _sharp_legs(s: YDPostHopf) -> IntTable:
    """For each x, the threefold legs of x grouped by (x_1, x_2) with the sum
    of c S_>(x_3) (``hopf.grouped_legs``).  The contractions of YD-COMPAT
    and YD-COLINEAR are bilinear, so summing over a group first gives the
    same exact value as summing over its terms."""
    return grouped_legs(s.carrier.coalgebra, _sharp_columns(s))


@_per_structure
def left_coaction_adl(s: YDPostHopf) -> Matrix:
    """Ad_L(a) = a_1 o S_>(a_3) (x) a_2 as a dim -> dim^2 matrix: the
    coaction rho of ``hopf.coaction`` with R = id on the subadjacent Hopf
    algebra."""
    return coaction(bullet_algebra(s), sharp_antipode(s), identity_matrix(s.dim, s.field), s.carrier.coalgebra)


@_per_structure
def _adl_columns(s: YDPostHopf) -> IntTable:
    """The columns of Ad_L, compiled; column a is keyed by p * dim + q."""
    return compile_columns(left_coaction_adl(s))


def braiding_sigma(s: YDPostHopf) -> Matrix:
    """sigma(a (x) b) = alpha_{a_1}(beta_{a_3}(b)) (x) a_2 on dim^2, read
    from the cached int columns."""
    sigma = _sigma_columns(s)
    d2, fs = s.dim * s.dim, s.field
    return matrix_from_columns([int_vector(d2, dict(col), sigma.scale, fs) for col in sigma.rows], fs)


@_per_structure
def _sigma_columns(s: YDPostHopf) -> IntTable:
    """The braiding as int columns: column a * dim + b is sigma(e_a (x) e_b),
    keyed p * dim + q, summed on the compiled action, beta and threefold
    legs."""
    act, beta, legs = s.action.int_act(), ensure_beta(s).int_act(), s.carrier.coalgebra.int_legs(3)
    x_, b_ = act.rows, beta.rows
    d, p = s.dim, s.field.p
    cols = []
    for a in range(d):
        for b in range(d):
            acc: dict[int, int] = {}
            get = acc.get
            for (a1, a2, a3), c in legs.rows[a]:
                if not b_[a3][b]:
                    continue
                for q, n in int_bilinear(x_, ((a1, c),), b_[a3][b], p):
                    key = q * d + a2
                    acc[key] = get(key, 0) + n
            cols.append(int_items(acc, p))
    return IntTable(cols, legs.scale * act.scale * beta.scale)


def _product_delta(s: YDPostHopf):
    """The side Delta(x.y) at (x, y), and its scale."""
    mul, comul = s.carrier.algebra.int_mul(), s.carrier.coalgebra.int_comul()
    return comul_side(mul.rows, comul.rows, s.dim), mul.scale * comul.scale


def _pdelta_side(legs: list, bullet: list, beta: list, mul: list, ylegs: list, d: int, p: int | None):
    """The side sum of s t (u o beta_e(e_{y_1})) (x) (c . e_{y_2}) at (x, j),
    on the row (x,), keyed j * d**2 + k * d + q: over the threefold legs
    s (u, c, e) of x in legs and the terms t (y_1, y_2) of ylegs[j], on the
    compiled rows of the bullet product, beta and the product.  This is the
    right-hand side of the braided compatibility of Delta with the product
    (``_pdelta_rhs``, and ``builders._delta_by_induction`` on one y).  Each
    u o beta_e(e_{y_1}) is made once, in a memo that lives as long as the
    side."""
    d2 = d * d
    memo: dict = {}  # (u, e) -> y_1 -> u o beta_e(e_{y_1})

    def side(acc, prefix, w):
        i, = prefix
        get = acc.get
        for (u, c3, e), sc in legs[i]:
            fused = memo.get((u, e))
            if fused is None:
                fused = memo[(u, e)] = {}
            mc = mul[c3]
            sc *= w
            for j, legs_j in enumerate(ylegs):
                base = j * d2
                for y1, y2, t in legs_j:
                    right = mc[y2]
                    if not right:
                        continue
                    v = fused.get(y1)
                    if v is None:
                        v = fused[y1] = int_linear(bullet[u], beta[e][y1], p)
                    st = sc * t
                    for k, n in v:
                        n *= st
                        k = base + k * d
                        for q, e2 in right:
                            key = k + q
                            acc[key] = get(key, 0) + n * e2

    return side


def _pdelta_rhs(s: YDPostHopf):
    """The side (x_1 . alpha_{x_2}(beta_{x_4}(y_1))) (x) (x_3 . y_2) at
    (x, y), on the row (x,), the right-hand side of the braided
    compatibility of Delta with the product, and its scale.  ``legs(x, 4)``
    splits the first leg u of each threefold leg (u, x_3, x_4) of x by
    Delta, and the sum over Delta(u) of u_1 . alpha_{u_2}(v) is the bullet
    product u o v, so the side is summed as (u o beta_{x_4}(y_1)) (x)
    (x_3 . y_2) over the threefold legs, on the bullet table
    (``_pdelta_side``, with the coproduct table as the y terms).  That is
    distributivity alone: it holds whether or not Delta is coassociative or
    o associative, and keeps ``legs(x, 4)``'s bracketing."""
    mul, bullet, beta = s.carrier.algebra.int_mul(), bullet_algebra(s).int_mul(), ensure_beta(s).int_act()
    comul, legs = s.carrier.coalgebra.int_comul(), s.carrier.coalgebra.int_legs(3)
    side = _pdelta_side(legs.rows, bullet.rows, beta.rows, mul.rows, comul.rows, s.dim, s.field.p)
    return side, legs.scale * comul.scale * beta.scale * bullet.scale * mul.scale


def _braided_product_delta(s: YDPostHopf):
    """The side (x_1 . sigma(x_2 (x) y_1)^1) (x) (sigma(x_2 (x) y_1)^2 . y_2)
    at (x, y), on the row (x,), the coproduct of the braided tensor square
    applied to Delta(x) (x) Delta(y), and its scale.  YD-BRAIDMULT sums it
    only on a Delta that is not coassociative (``_braided_mult``)."""
    mul, comul, sigma = s.carrier.algebra.int_mul(), s.carrier.coalgebra.int_comul(), _sigma_columns(s)
    m, c_ = mul.rows, comul.rows
    d = s.dim
    d2 = d * d
    sg = [[(*divmod(pq, d), cs) for pq, cs in col] for col in sigma.rows]  # (p, q, c) of each column

    def side(acc, prefix, w):
        a, = prefix
        get = acc.get
        legs_a = [(m[a1], a2 * d, ca * w) for a1, a2, ca in c_[a]]
        for b, legs_b in enumerate(c_):
            base = b * d2
            for ma, col, ca in legs_a:
                for b1, b2, cb in legs_b:
                    cab = ca * cb
                    for pp, q, cs in sg[col + b1]:
                        right = m[q][b2]
                        if not right:
                            continue
                        c = cab * cs
                        for k, n in ma[pp]:
                            n *= c
                            k = base + k * d
                            for r, e in right:
                                key = k + r
                                acc[key] = get(key, 0) + n * e

    return side, comul.scale * comul.scale * sigma.scale * mul.scale * mul.scale


# --- identities shared by several axiom IDs ---------------------------------
#
# Each is evaluated once per structure, by whichever suite asks first; the
# axiom IDs that restate it report from its tallies (see the module docstring).


@_per_structure
def _module_algebra(s: YDPostHopf) -> tuple[Tally, Tally]:
    """>- makes H a module algebra (``hopf.module_algebra_law``): x >- (y.z)
    = (x_1 >- y).(x_2 >- z) at (x, y, z), and x >- 1 = eps(x) 1 at (x,)."""
    act, coalg, alg = s.action, s.carrier.coalgebra, s.carrier.algebra
    return module_algebra_law(act, coalg, alg), module_algebra_unit_law(act, coalg, alg)


@_per_structure
def _alpha_comult(s: YDPostHopf) -> tuple[Tally, Tally]:
    """>- is a coalgebra morphism, as two tallies: Delta(x >- y) and
    eps(x >- y) at (x, y) (``hopf.module_coalgebra_law``)."""
    coalg = s.carrier.coalgebra
    return module_coalgebra_law(s.action, coalg, coalg)


@_per_structure
def _module_identity(s: YDPostHopf) -> tuple[Tally, Tally]:
    """>- makes H a module over the bullet product (``hopf.module_law``):
    (x o y) >- z = x >- (y >- z) at (x, y, z), where x o y = x_1 . (x_2 >- y),
    and 1 >- z = z at (z,)."""
    bullet = bullet_algebra(s)
    return module_law(s.action, bullet), module_unit_law(s.action, bullet)


@_per_structure
def _delta_identity(s: YDPostHopf) -> tuple[Tally, frozenset]:
    """Delta(x.y) = (x_1 . alpha_{x_2}(beta_{x_4}(y_1))) (x) (x_3 . y_2) at
    (x, y), on the compiled tables, and the set of the (x, y) where it
    fails."""
    (lhs, sl), (rhs, sr) = _product_delta(s), _pdelta_rhs(s)
    t = Tally()
    d = s.dim
    failed = compare(t, line(d), d, d * d, sides(lhs, rhs), sl, sr, s.field, pairs_render(d))
    return t, frozenset(failed)


def check_yd_post_hopf(s: YDPostHopf, stop_on_fail: bool = False) -> CheckReport:
    """Full defining-axiom suite plus the derived-identity lemmas.

    Evaluation order is fixed; checks that need beta are skipped (not
    failed) when beta is neither supplied nor solvable.  With stop_on_fail
    the suite ends after the first step that has a failure.
    """
    rep = CheckReport()
    for step in _post_hopf_steps(s):
        rep.entries.extend(step)
        if stop_on_fail and not rep.all_pass():
            break
    return rep


def _post_hopf_steps(s: YDPostHopf):
    """The entries of ``check_yd_post_hopf``, step by step: each step is a
    list of entries, evaluated only when the suite gets to it."""
    alg, coalg, smap, act = s.carrier.algebra, s.carrier.coalgebra, s.carrier.s_map, s.action
    d, fs = s.dim, s.field

    yield check_algebra(alg).entries
    yield check_coalgebra(coalg).entries

    # P-COALG: >- is a coalgebra morphism, at (x, y, 0) and (x, y, 1); eps is
    # multiplicative at (x, y, 2), Delta(1) = 1 (x) 1 at (d, d, 0) and
    # eps(1) = 1 at (d, d, 1)
    ch = Checker("P-COALG")
    delta, counit = _alpha_comult(s)
    eps_mult, delta_unit, eps_unit = bialgebra_unit_laws(alg, coalg)
    ch.absorb(delta, where=lambda w: w + (0,))
    ch.absorb(counit, where=lambda w: w + (1,))
    ch.absorb(eps_mult, where=lambda w: w + (2,))
    ch.absorb(delta_unit, where=lambda w: (d, d, 0))
    ch.absorb(eps_unit, where=lambda w: (d, d, 1))
    yield [ch.entry()]

    ch = Checker("P-S")
    ch.absorb(antipode_law(alg, coalg, smap))
    yield [ch.entry()]

    # P-DOT: x >- (y.z) = (x_1 >- y).(x_2 >- z)
    ch = Checker("P-DOT")
    ch.absorb(_module_algebra(s)[0])
    yield [ch.entry()]

    # P-ASSOC: x >- (y >- z) = (x_1 . (x_2 >- y)) >- z
    ch = Checker("P-ASSOC")
    ch.absorb(_module_identity(s)[0], swap=True)
    yield [ch.entry()]

    # P-CONV: alpha is convolution invertible with inverse beta; a beta
    # solved here was verified by the solver, whose tallies are reused, and
    # the entry's time includes the solve
    ch = Checker("P-CONV")
    conv = None
    if s.beta is None:
        res = hom_convolution_inverse_endo(act, coalg)
        if res.beta is not None:
            _fill_beta(s, res.beta)
            conv = res.checks
    beta = s.beta
    if beta is None:
        missing = f"no convolution inverse of alpha exists: {res.reason}"
        yield [
            CheckEntry("P-CONV", FAIL, Witness((0,), missing, "eps(x) Id"), seconds=ch.elapsed()),
            *(skipped_entry(ax) for ax in ("P-DELTA", "P-ANTI", "P-MP5")),
            *_beta_free_lemmas(s),
            *(skipped_entry(ax) for ax in ("L-BETA", "L-DA", "L-DB", "L-MA", "L-MB", "L-ANTI2")),
        ]
        return

    left, right = conv or _verify_endo_inverse(act, beta, coalg)
    ch.absorb(left, where=lambda w: (w[0], 0))
    ch.absorb(right, where=lambda w: (w[0], 1))
    conv_ok = ch.failures == 0
    yield [ch.entry()]

    if not conv_ok:
        yield [skipped_entry(ax) for ax in ("P-DELTA", "P-ANTI", "P-MP5")]
    else:
        # P-DELTA: Delta(x.y) = (x_1 . alpha_{x_2}(beta_{x_4}(y_1))) (x) (x_3 . y_2)
        ch = Checker("P-DELTA")
        ch.absorb(_delta_identity(s)[0])
        yield [ch.entry()]

        # P-ANTI: Delta S_> = (S_> (x) S_>) flip Delta, S_> an anti-coalgebra map
        ch = Checker("P-ANTI")
        ch.absorb(next(coalgebra_map_law(_sharp_columns(s), coalg, coalg, swap=True)))
        anti_ok = ch.failures == 0
        yield [ch.entry()]

        # P-MP5: (x_1 >- y_1) (x) (x_2 -< y_2) = (x_2 >- y_2) (x) (x_1 -< y_1)
        ch = Checker("P-MP5")
        ch.absorb(mp5_law(act, leftharpoon(s), coalg))
        yield [ch.entry()]

    for entry in _beta_free_lemmas(s):
        yield [entry]

    if not conv_ok:
        yield [skipped_entry(ax) for ax in ("L-BETA", "L-DA", "L-DB", "L-MA", "L-MB", "L-ANTI2")]
        return

    # L-BETA: beta = alpha o S_>
    ch = Checker("L-BETA")
    compare_tables(ch, beta.int_act(), pull_back(act, _sharp_columns(s)), d, fs)
    # beta_x = alpha_{S_>(x)} with S_> an anti-coalgebra map: an identity
    # that holds for alpha at every acting basis element holds at S_>(x),
    # so its beta form, the legs of x swapped, holds at x
    through_sharp = anti_ok and ch.failures == 0
    yield [ch.entry()]

    # L-DA / L-DB: how Delta interlaces with alpha and beta; L-DA is the
    # first compare of P-COALG, and L-DB is L-DA through S_>
    ch = Checker("L-DA")
    ch.absorb(_alpha_comult(s)[0], where=lambda w: w[:2])
    yield [ch.entry()]
    ch = Checker("L-DB")
    if through_sharp and not _alpha_comult(s)[0].failures:
        ch.checked = d * d
    else:
        ch.absorb(module_coalgebra_law(beta, coalg, coalg, swap=True)[0])
    yield [ch.entry()]

    # L-MA / L-MB: how the product interlaces with alpha and beta; L-MA is
    # P-DOT, and L-MB is P-DOT through S_>
    ch = Checker("L-MA")
    ch.absorb(_module_algebra(s)[0])
    yield [ch.entry()]
    ch = Checker("L-MB")
    if through_sharp and not _module_algebra(s)[0].failures:
        ch.checked = d ** 3
    else:
        ch.absorb(module_algebra_law(beta, coalg, alg, swap=True))
    yield [ch.entry()]

    # L-ANTI2: beta_{x_2}(S(x_3)) . beta_{x_1}(x_4) = eps(x) 1 at (x,)
    ch = Checker("L-ANTI2")
    legs, mul, b = coalg.int_legs(4), alg.int_mul(), beta.int_act()
    bs = bilinear_table(b, basis(d), compile_columns(smap), fs.p)  # beta_x(S(e_y))

    def anti2(acc, prefix, w):
        for x, terms in enumerate(legs.rows):
            for (x1, x2, x3, x4), c in terms:
                add_bilinear(acc, mul.rows, bs.rows[x2][x3], b.rows[x1][x4], w * c, x * d)

    rhs, sr = eps_unit_side(coalg, alg)
    compare(ch, [()], d, d, sides(anti2, rhs), legs.scale * bs.scale * b.scale * mul.scale, sr, fs, vector_render(d))
    yield [ch.entry()]


def _beta_free_lemmas(s: YDPostHopf):
    """The entries of L-U, L-1ACT and L-SLIN, the lemmas that need no beta."""
    smap, act = s.carrier.s_map, s.action
    d, fs = s.dim, s.field
    ch = Checker("L-U")
    ch.absorb(_module_algebra(s)[1])
    yield ch.entry()
    ch = Checker("L-1ACT")
    ch.absorb(_module_identity(s)[1])
    yield ch.entry()
    # L-SLIN: S(x >- y) = x >- S(y)
    ch = Checker("L-SLIN")
    x, scols = act.int_act(), compile_columns(smap)
    compare_tables(ch, mapped(scols, x, fs.p), bilinear_table(x, basis(d), scols, fs.p), d, fs)
    yield ch.entry()


def subadjacent_hopf(s: YDPostHopf, verify: bool = True) -> HopfData:
    """The ordinary Hopf algebra (H, o, 1, Delta, eps, S_>)."""
    h = HopfData(bullet_algebra(s), s.carrier.coalgebra, sharp_antipode(s))
    if verify:
        rep = check_hopf(h)
        if not rep.all_pass():
            bad = ", ".join(e.axiom for e in rep.failed())
            raise StructureError(f"subadjacent structure is not a Hopf algebra: {bad}")
    return h


def check_yd_hopf_monoid(s: YDPostHopf) -> CheckReport:
    """The Hopf-monoid-in-Yetter-Drinfeld-modules theorem, instance-checked.

    Verifies the module structure over the subadjacent Hopf algebra, the
    Yetter-Drinfeld compatibility of (>-, Ad_L), multiplicativity of Delta
    with respect to the braided tensor product, and left colinearity of the
    product.
    """
    d = s.dim
    ensure_beta(s)
    rep = CheckReport()

    # (x o y) >- z = x >- (y >- z): P-ASSOC with its sides swapped
    ch = Checker("YD-MODULE")
    ch.absorb(_module_identity(s)[0])
    rep.add(ch.entry())

    # P-DOT, and x >- 1 = eps(x) 1 (L-U) as the row (x, d, d)
    ch = Checker("YD-MODALG")
    mult, unit = _module_algebra(s)
    ch.absorb(mult)
    ch.absorb(unit, where=lambda w: (w[0], d, d))
    rep.add(ch.entry())

    # the first two compares of P-COALG
    ch = Checker("YD-MODCOALG")
    delta, counit = _alpha_comult(s)
    ch.absorb(delta, where=lambda w: w + (0,))
    ch.absorb(counit, where=lambda w: w + (1,))
    rep.add(ch.entry())

    ch = Checker("YD-COMPAT")
    _yd_compat(ch, s)
    rep.add(ch.entry())

    ch = Checker("YD-BRAIDMULT")
    _braided_mult(ch, s)
    rep.add(ch.entry())

    ch = Checker("YD-COLINEAR")
    _yd_colinear(ch, s)
    rep.add(ch.entry())
    return rep


def _braided_mult(t: Tally, s: YDPostHopf) -> None:
    """Delta is multiplicative against the braided tensor square, and the
    braided form agrees with the structural compatibility axiom, as two rows
    per (a, b): (a, b, 0) compares Delta(a.b) with the braided product of
    Delta(a) and Delta(b); once it passes, (a, b, 1) compares that with
    P-DELTA's right-hand side, so its verdict is P-DELTA's at (a, b).

    The braided product, (a_1 . alpha_{a_2}(beta_{a_4}(b_1))) (x)
    (a_3 . b_2) on the legs (id (x) (Delta (x) id) Delta) Delta(a), is
    P-DELTA's right-hand side on the legs ((Delta (x) id) (x) id)
    (Delta (x) id) Delta(a): the same fourfold sum in another bracketing.
    So on a coassociative Delta (``_coassociative``) row 0 is P-DELTA's
    compare, read from its cached tally, and row 1 passes wherever row 0
    passes; neither the braided product nor the braiding is summed.  On a
    Delta that is not coassociative both sides of row 0 are summed, and row
    1 reads P-DELTA's failed set, with only its witness computed here."""
    d = s.dim
    identity, delta_failed = _delta_identity(s)
    if _coassociative(s.carrier.coalgebra):
        t.absorb(identity, where=lambda w: w + (0,))
        t.checked += d * d - len(delta_failed)
        return
    (delta, sl), (mid, sm) = _product_delta(s), _braided_product_delta(s)
    rows = Tally()
    failed = set(compare(rows, line(d), d, d * d, sides(delta, mid), sl, sm, s.field, pairs_render(d)))
    t.absorb(rows, where=lambda w: w + (0,))
    rows = Tally()
    for where in square(d):
        if where in failed:
            continue
        if where in delta_failed and rows.witness is None:
            # P-DELTA's right-hand side, rebuilt to render the witness
            rhs, sr = _pdelta_rhs(s)
            rows.record(where, False, *render_sides(sides(mid, rhs), where, d * d, sm, sr, s.field,
                                                    pairs_render(d)))
        else:
            rows.record(where, where not in delta_failed)
    t.absorb(rows, where=lambda w: w + (1,))


@_per_structure
def _coassociative(c: CoalgebraData) -> bool:
    """Whether Delta is coassociative (``hopf.coassociative_law``, failures
    counted with no witness rendered), read once per coalgebra."""
    comul = c.int_comul()
    return not coassociative_law(comul.rows, comul.scale, c, c.dim, witness=False).failures


@_per_structure
def _second_leg_sums(s: YDPostHopf) -> IntTable:
    """The sums Z_b[x][b2] = sum over the grouped legs (b1, b2, sum of
    S_>(b3)) of b whose second leg is b2 of (e_x o b1) o sum of S_>(b3), as
    a table: rows[x][b] is Z_b[x] as {b2: int items}, at the scale of the
    bullet table squared times the grouped legs'.  YD-COMPAT and YD-COLINEAR
    both end in Z_b's entries, so the table is made once per structure and
    both read it."""
    bullet, grouped = bullet_algebra(s).int_mul(), _sharp_legs(s)
    o, g_, p = bullet.rows, grouped.rows, s.field.p
    rows = []
    for ox in o:
        out = []
        for legs in g_:
            sums: dict[int, dict] = {}
            for b1, b2, sb in legs:
                acc = sums.get(b2)
                if acc is None:
                    acc = sums[b2] = {}
                add_bilinear(acc, o, ox[b1], sb, 1)
            out.append({b2: v for b2, acc in sums.items() if (v := int_items(acc, p))})
        rows.append(out)
    return IntTable(rows, bullet.scale ** 2 * grouped.scale)


def _yd_compat(t: Tally, s: YDPostHopf) -> None:
    """YD compatibility, Ad_L(a >- b) = a1 o b1 o S_>(b3) o S_>(a3) (x)
    (a2 >- b2) at (a, b), summed over the grouped legs (a1, a2, sum of
    S_>(a3)) of a and, through Z_b[a1][b2] (``_second_leg_sums``), of b:
    the right-hand side is the sum of (Z_b[a1][b2] o sum of S_>(a3)) (x)
    (a2 >- b2), left-associated as the identity is written."""
    act, bullet, adl, grouped, z = (s.action.int_act(), bullet_algebra(s).int_mul(), _adl_columns(s),
                                    _sharp_legs(s), _second_leg_sums(s))
    x_, o, ad, g_, z_ = act.rows, bullet.rows, adl.rows, grouped.rows, z.rows
    d = s.dim
    d2 = d * d

    def acted(key):
        return x_[key[0]][key[1]]

    def compat(acc, prefix, wl, wr):
        a, = prefix
        get = acc.get
        if wl:
            for b, xab in enumerate(x_[a]):
                base = b * d2
                for r, c in xab:
                    c *= wl
                    for q, e in ad[r]:
                        q += base
                        acc[q] = get(q, 0) + c * e
        if wr:
            legs = [(z_[a1], x_[a2], a2, sa) for a1, a2, sa in g_[a]]
            for b in range(d):
                lefts: dict = {}  # (a2, b2) -> sum of Z_b[a1][b2] o sum of S_>(a3)
                for za, xa, a2, sa in legs:
                    for b2, v in za[b].items():
                        if xa[b2]:
                            g = lefts.get((a2, b2))
                            if g is None:
                                g = lefts[(a2, b2)] = {}
                            add_bilinear(g, o, v, sa, 1)
                # summed apart and then moved into the row, so that the dict
                # summed into stays small: a dim-32 row has some 30,000 keys
                part: dict[int, int] = {}
                add_tensors(part, lefts, acted, d, wr)
                base = b * d2
                for k, n in part.items():
                    k += base
                    acc[k] = get(k, 0) + n

    sr = z.scale * bullet.scale * grouped.scale * act.scale
    compare(t, line(d), d, d2, compat, act.scale * adl.scale, sr, s.field, pairs_render(d))


def _yd_colinear(t: Tally, s: YDPostHopf) -> None:
    """Left colinearity of the product, Ad_L(a.b) = a1 o S_>(a3) o b1 o
    S_>(b3) (x) (a2 . b2) at (a, b).  Ad_L(a) is the sum over a's grouped
    legs of (a1 o S_>(a3)) (x) a2, so the right-hand side is the sum over
    Ad_L(a)'s terms c e_r (x) e_q of c Z_b[r][b2] (x) (q . b2)
    (``_second_leg_sums``), left-associated as the identity is written."""
    mul, adl, z = s.carrier.algebra.int_mul(), _adl_columns(s), _second_leg_sums(s)
    m, ad, z_ = mul.rows, adl.rows, z.rows
    d = s.dim
    d2 = d * d

    def colinear(acc, prefix, wl, wr):
        a, = prefix
        get = acc.get
        if wl:
            for b, mab in enumerate(m[a]):
                base = b * d2
                for r, c in mab:
                    c *= wl
                    for q, e in ad[r]:
                        q += base
                        acc[q] = get(q, 0) + c * e
        if wr:
            terms = [(z_[rq // d], m[rq % d], c * wr) for rq, c in ad[a]]
            for b in range(d):
                base = b * d2
                for zr, mq, c in terms:
                    for b2, v in zr[b].items():
                        right = mq[b2]
                        if not right:
                            continue
                        for k, n in v:
                            n *= c
                            k = base + k * d
                            for j, e in right:
                                key = k + j
                                acc[key] = get(key, 0) + n * e

    sr = adl.scale * z.scale * mul.scale
    compare(t, line(d), d, d2, colinear, mul.scale * adl.scale, sr, s.field, pairs_render(d))


def is_pre_hopf(s: YDPostHopf) -> bool:
    """Braided commutativity: multiplication composed with the braiding
    equals the multiplication, on the compiled braiding columns."""
    sigma, mul = _sigma_columns(s), s.carrier.algebra.int_mul()
    flat = [v for row in mul.rows for v in row]  # flat[p * dim + q] = e_p . e_q
    for ab, col in enumerate(sigma.rows):
        acc: dict[int, int] = {}
        add_linear(acc, flat, col, 1)
        add_linear(acc, flat, ((ab, -sigma.scale),), 1)
        if int_items(acc, s.field.p):
            return False
    return True


def primitives(coalg: CoalgebraData, unit: Vector) -> list[Vector]:
    """Basis of {v : Delta v = v (x) 1 + 1 (x) v}, via a kernel computation:
    column i of the matrix is Delta(e_i) - e_i (x) 1 - 1 (x) e_i."""
    d, fs = coalg.dim, coalg.field
    comul, u = coalg.int_comul(), compile_vectors([unit], fs)
    cols = []
    for i, legs in enumerate(comul.rows):
        acc = {j * d + k: c * u.scale for j, k, c in legs}
        for k, c in u.rows[0]:
            for key in (i * d + k, k * d + i):
                acc[key] = acc.get(key, 0) - c * comul.scale
        cols.append(int_vector(d * d, acc, comul.scale * u.scale, fs))
    return kernel(matrix_from_columns(cols, fs))


@dataclass(frozen=True)
class PostLieData:
    """Post-Lie algebra by structure constants; dim 0 is allowed."""

    dim: int
    bracket: list[list[Vector]]
    action: list[list[Vector]]
    field: FieldSpec

    def __post_init__(self):
        if len(self.bracket) != self.dim or len(self.action) != self.dim:
            raise StructureError("post-Lie tensor size mismatch")


def commutators(alg: AlgebraData, pool: list[Vector]) -> list[list[Vector]]:
    """[x, y] = x.y - y.x for every pair of pool, the products summed as ints
    on the compiled product."""
    prods = bilinear_vectors(alg.int_mul(), alg.dim, pool, pool, alg.field)
    return [[prods[i][j].sub(prods[j][i]) for j in range(len(pool))] for i in range(len(pool))]


def _span_coords(pool: list[Vector], vectors: list[Vector], fs: FieldSpec) -> list[Vector | None]:
    """The coordinates of each of vectors in the basis pool, or None for a
    vector outside its span, all from one elimination
    (``linalg.solve_many``, which re-checks each A x = b)."""
    if not pool:
        return [None if not v.is_zero() else Vector(0, {}, fs) for v in vectors]
    return solve_many(matrix_from_columns(pool, fs), vectors)[0]


def extract_post_lie(s: YDPostHopf) -> PostLieData:
    """Restrict the commutator bracket and the action to primitive elements.

    Raises StructureError when the primitive subspace is not closed under
    either map (an upstream axiom violation), and runs the post-Lie axiom
    suite on the result.
    """
    alg, act = s.carrier.algebra, s.action
    fs = s.field
    prim = primitives(s.carrier.coalgebra, alg.unit)
    n = len(prim)
    comms, acted = commutators(alg, prim), bilinear_vectors(act.int_act(), s.dim, prim, prim, fs)
    # the bracket and then the action of each pair (i, j), so that the error
    # names the map of the first vector outside the span in that order
    coords = _span_coords(prim, [v for i in range(n) for j in range(n) for v in (comms[i][j], acted[i][j])], fs)
    if None in coords:
        raise StructureError(f"primitive subspace not closed under the {('bracket', 'action')[coords.index(None) % 2]}")
    bracket = [coords[2 * n * i:2 * n * (i + 1):2] for i in range(n)]
    action = [coords[2 * n * i + 1:2 * n * (i + 1):2] for i in range(n)]
    out = PostLieData(n, bracket, action, fs)
    rep = check_post_lie(out)
    if not rep.all_pass():
        bad = ", ".join(e.axiom for e in rep.failed())
        raise StructureError(f"primitives do not form a post-Lie algebra: {bad}")
    return out


def _skew(t: Tally, bracket: list[list[Vector]]) -> None:
    """[e_i, e_j] = -[e_j, e_i] at (i, j)."""
    d = len(bracket)
    for i in range(d):
        for j in range(d):
            t.compare((i, j), bracket[i][j], bracket[j][i].neg(), vector_text)


def _jacobi(t: Tally, table: IntTable, d: int, fs: FieldSpec) -> None:
    """[e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]] = 0 at
    (i, j, k), for a compiled bracket table, on rows (i, j)."""
    b_ = table.rows

    def jacobi(acc, prefix, wl, wr):
        i, j = prefix
        for k in range(d):
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                add_bilinear(acc, b_, ((x, 1),), b_[y][z], wl, k * d)

    compare(t, square(d), d, d, jacobi, table.scale ** 2, 1, fs, vector_render(d))


def _derivation(act: IntTable, bracket: IntTable, d: int, fs: FieldSpec) -> Tally:
    """x >- [a, b] = [x >- a, b] + [a, x >- b] at (x, a, b): each basis
    element x of the acting space acts on the d-space of the compiled
    bracket as a derivation, on rows (x, a).  PL-1, and LRB-ACTION's rows 0."""
    a_, b_ = act.rows, bracket.rows

    def law(acc, prefix, wl, wr):
        x, a = prefix
        for b in range(d):
            add_bilinear(acc, a_, ((x, 1),), b_[a][b], wl, b * d)
            add_bilinear(acc, b_, a_[x][a], ((b, 1),), wr, b * d)
            add_bilinear(acc, b_, ((a, 1),), a_[x][b], wr, b * d)

    return compared(product(range(len(a_)), range(d)), d, d, law, act.scale * bracket.scale,
                    bracket.scale * act.scale, fs, vector_render(d))


def _commutator(act: IntTable, bracket: IntTable, d: int, fs: FieldSpec) -> Tally:
    """[x, y] >- a = x >- (y >- a) - y >- (x >- a) at (x, y, a): the compiled
    bracket of the acting space acts on the d-space as the commutator of the
    actions, on rows (x, y).  PL-2, and LRB-ACTION's rows 1."""
    a_, b_ = act.rows, bracket.rows

    def law(acc, prefix, wl, wr):
        x, y = prefix
        for a in range(d):
            add_bilinear(acc, a_, b_[x][y], ((a, 1),), wl, a * d)
            add_bilinear(acc, a_, ((x, 1),), a_[y][a], wr, a * d)
            add_bilinear(acc, a_, ((y, 1),), a_[x][a], -wr, a * d)

    return compared(square(len(b_)), d, d, law, bracket.scale * act.scale, act.scale ** 2, fs, vector_render(d))


def check_post_lie(p: PostLieData) -> CheckReport:
    """Antisymmetry, Jacobi, both post-Lie identities, subadjacent Jacobi, on
    the compiled bracket, action and subadjacent bracket."""
    d = p.dim
    fs = p.field
    rep = CheckReport()

    ch = Checker("PL-SKEW")
    _skew(ch, p.bracket)
    rep.add(ch.entry())

    br, act = compile_tensor(p.bracket, fs), compile_tensor(p.action, fs)
    ch = Checker("PL-JAC")
    _jacobi(ch, br, d, fs)
    rep.add(ch.entry())

    # PL-1: x >- [y, z] = [x >- y, z] + [y, x >- z]
    ch = Checker("PL-1")
    ch.absorb(_derivation(act, br, d, fs))
    rep.add(ch.entry())

    # subadjacent bracket [x,y]_> = (x>-y) - (y>-x) + [x,y]
    sub = compile_tensor([[p.action[i][j].sub(p.action[j][i]).add(p.bracket[i][j]) for j in range(d)]
                          for i in range(d)], fs)

    # PL-2: [x,y]_> >- z = x >- (y >- z) - y >- (x >- z)
    ch = Checker("PL-2")
    ch.absorb(_commutator(act, sub, d, fs))
    rep.add(ch.entry())

    # the subadjacent bracket satisfies Jacobi
    ch = Checker("PL-SUB")
    _jacobi(ch, sub, d, fs)
    rep.add(ch.entry())
    return rep
