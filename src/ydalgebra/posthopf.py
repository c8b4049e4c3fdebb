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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .field import FieldSpec, Scalar
from .hopf import (
    ActionTensor,
    AlgebraData,
    BraidedPair,
    CoalgebraData,
    HopfData,
    StructureError,
    _antipode_checker,
    check_algebra,
    check_coalgebra,
    check_hopf,
    hom_convolution_inverse_endo,
    tens2_add_scaled,
)
from .linalg import Matrix, Vector, add_scaled_inplace, matrix_from_columns, solve, unit_vector
from .report import FAIL, PASS, Checker, CheckEntry, CheckReport, Witness, pairs_text, skipped_entry, vector_text


@dataclass
class YDPostHopf:
    """Braided carrier plus action; beta is supplied or solved on demand."""

    carrier: BraidedPair
    action: ActionTensor
    beta: ActionTensor | None = None
    params: dict[str, Scalar] = dc_field(default_factory=dict)
    _cache: dict = dc_field(default_factory=dict, repr=False, compare=False)

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


def solve_beta(s: YDPostHopf) -> ActionTensor:
    """Solve the convolution-inverse system for beta and store it on s."""
    res = hom_convolution_inverse_endo(s.action, s.carrier.coalgebra)
    if res.beta is None:
        raise StructureError("alpha is not convolution invertible: no beta exists")
    s.beta = res.beta
    s._cache.clear()
    return res.beta


def bullet_algebra(s: YDPostHopf) -> AlgebraData:
    """Subadjacent product x o y = x_1 . (x_2 >- y) as an algebra table."""
    cached = s._cache.get("bullet")
    if cached is not None:
        return cached
    alg, coalg, act = s.carrier.algebra, s.carrier.coalgebra, s.action
    d = s.dim
    mul = []
    for i in range(d):
        row = []
        for j in range(d):
            acc: dict[int, Scalar] = {}
            for i1, i2, c in coalg.comul[i]:
                add_scaled_inplace(acc, alg.mul_basis_vec(i1, act.act[i2][j]), c)
            row.append(Vector(d, acc, s.field))
        mul.append(row)
    out = AlgebraData(d, list(alg.basis_labels), mul, alg.unit, s.field)
    s._cache["bullet"] = out
    return out


def sharp_antipode(s: YDPostHopf) -> Matrix:
    """S_>(x) = beta_{x_1}(S(x_2)), the subadjacent antipode."""
    cached = s._cache.get("sharp")
    if cached is not None:
        return cached
    beta = ensure_beta(s)
    coalg, smap = s.carrier.coalgebra, s.carrier.s_map
    d = s.dim
    cols = []
    for i in range(d):
        acc: dict[int, Scalar] = {}
        for i1, i2, c in coalg.comul[i]:
            add_scaled_inplace(acc, beta.apply_basis(i1, smap.column(i2)), c)
        cols.append(Vector(d, acc, s.field))
    out = matrix_from_columns(cols, s.field)
    s._cache["sharp"] = out
    return out


def leftharpoon(s: YDPostHopf) -> ActionTensor:
    """x -< y = S_>(x_1 >- y_1) o x_2 o y_2 (bullet products)."""
    cached = s._cache.get("leftharpoon")
    if cached is not None:
        return cached
    coalg, act = s.carrier.coalgebra, s.action
    bullet = bullet_algebra(s)
    sharp = sharp_antipode(s)
    d = s.dim
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            acc: dict[int, Scalar] = {}
            for i1, i2, ci in coalg.comul[i]:
                for j1, j2, cj in coalg.comul[j]:
                    v = sharp.apply(act.act[i1][j1])
                    v = bullet.mul_vec_basis(v, i2)
                    v = bullet.mul_vec_basis(v, j2)
                    add_scaled_inplace(acc, v, ci, cj)
            row.append(Vector(d, acc, s.field))
        rows.append(row)
    out = ActionTensor(d, d, rows, s.field)
    s._cache["leftharpoon"] = out
    return out


def left_coaction_adl(s: YDPostHopf) -> Matrix:
    """Ad_L(a) = a_1 o S_>(a_3) (x) a_2 as a dim -> dim^2 matrix."""
    cached = s._cache.get("adl")
    if cached is not None:
        return cached
    coalg = s.carrier.coalgebra
    bullet = bullet_algebra(s)
    sharp = sharp_antipode(s)
    d = s.dim
    entries: dict[tuple[int, int], Scalar] = {}
    for a in range(d):
        for (a1, a2, a3), c in coalg.legs(a, 3):
            u = bullet.mul_basis_vec(a1, sharp.column(a3))
            for p, cp in u.entries.items():
                key = (p * d + a2, a)
                v = entries.get(key)
                v = c * cp if v is None else v + c * cp
                if v:
                    entries[key] = v
                else:
                    del entries[key]
    out = Matrix(d * d, d, entries, s.field)
    s._cache["adl"] = out
    return out


def braiding_sigma(s: YDPostHopf) -> Matrix:
    """sigma(a (x) b) = alpha_{a_1}(beta_{a_3}(b)) (x) a_2 on dim^2."""
    cached = s._cache.get("sigma")
    if cached is not None:
        return cached
    coalg, act = s.carrier.coalgebra, s.action
    beta = ensure_beta(s)
    d = s.dim
    entries: dict[tuple[int, int], Scalar] = {}
    for a in range(d):
        for (a1, a2, a3), c in coalg.legs(a, 3):
            for b in range(d):
                w = act.apply_basis(a1, beta.act[a3][b])
                col = a * d + b
                for p, cp in w.entries.items():
                    key = (p * d + a2, col)
                    v = entries.get(key)
                    v = c * cp if v is None else v + c * cp
                    if v:
                        entries[key] = v
                    else:
                        del entries[key]
    out = Matrix(d * d, d * d, entries, s.field)
    s._cache["sigma"] = out
    return out


def _vec_to_pairs(v: Vector, d: int) -> dict[tuple[int, int], Scalar]:
    return {(i // d, i % d): c for i, c in v.entries.items()}


def _pdelta_rhs(s: YDPostHopf, i: int, j: int, memo: dict) -> dict:
    """Right-hand side of the braided compatibility of Delta with the product:
    (x_1 . alpha_{x_2}(beta_{x_4}(y_1))) (x) (x_3 . y_2)."""
    alg, coalg, act = s.carrier.algebra, s.carrier.coalgebra, s.action
    beta = s.beta
    rhs: dict[tuple[int, int], Scalar] = {}
    for (a, b, c3, e), sc in coalg.legs(i, 4):
        fused = memo.get((a, b, e))
        if fused is None:
            fused = {}
            memo[(a, b, e)] = fused
        for p, q, t in coalg.comul[j]:
            v3 = fused.get(p)
            if v3 is None:
                v3 = alg.mul_basis_vec(a, act.apply_basis(b, beta.act[e][p]))
                fused[p] = v3
            tens2_add_scaled(rhs, v3, alg.mul[c3][q], sc, t)
    return rhs


def check_yd_post_hopf(s: YDPostHopf, stop_on_fail: bool = False) -> CheckReport:
    """Full defining-axiom suite plus the derived-identity lemmas.

    Evaluation order is fixed; checks that need beta are skipped (not
    failed) when beta is neither supplied nor solvable.
    """
    alg, coalg, smap, act = (
        s.carrier.algebra,
        s.carrier.coalgebra,
        s.carrier.s_map,
        s.action,
    )
    d = s.dim
    fs = s.field
    rep = CheckReport()

    def bail() -> bool:
        return stop_on_fail and not rep.all_pass()

    rep.extend(check_algebra(alg))
    if bail():
        return rep
    rep.extend(check_coalgebra(coalg))
    if bail():
        return rep

    # P-COALG: >- is a coalgebra morphism, eps is multiplicative, Delta(1)=1(x)1
    ch = Checker("P-COALG")
    for i in range(d):
        for j in range(d):
            lhs = coalg.comul_vec(act.act[i][j])
            rhs: dict[tuple[int, int], Scalar] = {}
            for i1, i2, ci in coalg.comul[i]:
                for j1, j2, cj in coalg.comul[j]:
                    tens2_add_scaled(rhs, act.act[i1][j1], act.act[i2][j2], ci, cj)
            ch.compare((i, j, 0), lhs, rhs, pairs_text)
            ch.compare((i, j, 1), coalg.eps_vec(act.act[i][j]), coalg.eps(i) * coalg.eps(j))
            ch.compare((i, j, 2), coalg.eps_vec(alg.mul[i][j]), coalg.eps(i) * coalg.eps(j))
    udelta = coalg.comul_vec(alg.unit)
    utens = {}
    tens2_add_scaled(utens, alg.unit, alg.unit, fs.one)
    ch.compare((d, d, 0), udelta, utens, pairs_text)
    ch.compare((d, d, 1), coalg.eps_vec(alg.unit), fs.one)
    rep.add(ch.entry())
    if bail():
        return rep

    rep.add(_antipode_checker("P-S", alg, coalg, smap).entry())
    if bail():
        return rep

    # P-DOT: x >- (y.z) = (x_1 >- y).(x_2 >- z)
    ch = Checker("P-DOT")
    for i in range(d):
        legs = coalg.comul[i]
        for j in range(d):
            for k in range(d):
                lhs = act.apply_basis(i, alg.mul[j][k])
                acc: dict[int, Scalar] = {}
                for i1, i2, c in legs:
                    add_scaled_inplace(acc, alg.mul_vec(act.act[i1][j], act.act[i2][k]), c)
                ch.compare((i, j, k), lhs, Vector(d, acc, fs), vector_text)
    rep.add(ch.entry())
    if bail():
        return rep

    # P-ASSOC: x >- (y >- z) = (x_1 . (x_2 >- y)) >- z
    ch = Checker("P-ASSOC")
    for i in range(d):
        legs = coalg.comul[i]
        for j in range(d):
            acc: dict[int, Scalar] = {}
            for i1, i2, c in legs:
                add_scaled_inplace(acc, alg.mul_basis_vec(i1, act.act[i2][j]), c)
            w = Vector(d, acc, fs)
            for k in range(d):
                lhs = act.apply_basis(i, act.act[j][k])
                rhs = act.apply(w, unit_vector(d, k, fs))
                ch.compare((i, j, k), lhs, rhs, vector_text)
    rep.add(ch.entry())
    if bail():
        return rep

    # P-CONV: alpha is convolution invertible with inverse beta
    beta_missing_reason = None
    if s.beta is None:
        res = hom_convolution_inverse_endo(act, coalg)
        if res.beta is None:
            beta_missing_reason = "no convolution inverse of alpha exists"
        else:
            s.beta = res.beta
            s._cache.clear()
    if beta_missing_reason is not None:
        rep.add(
            CheckEntry(
                "P-CONV", FAIL,
                Witness((0,), beta_missing_reason, "eps(x) Id"),
            )
        )
        for ax in ("P-DELTA", "P-ANTI", "P-MP5"):
            rep.add(skipped_entry(ax))
        for ax in ("L-U", "L-1ACT", "L-SLIN"):
            rep.add(_beta_free_lemma(s, ax).entry())
        for ax in ("L-BETA", "L-DA", "L-DB", "L-MA", "L-MB", "L-ANTI2"):
            rep.add(skipped_entry(ax))
        return rep

    beta = s.beta
    from .linalg import identity_matrix

    ident = identity_matrix(d, fs)
    ch = Checker("P-CONV")
    for x in range(d):
        acc1 = Matrix(d, d, {}, fs)
        acc2 = Matrix(d, d, {}, fs)
        for x1, x2, c in coalg.comul[x]:
            acc1 = acc1.add(act.matrix(x1).compose(beta.matrix(x2)).scale(c))
            acc2 = acc2.add(beta.matrix(x1).compose(act.matrix(x2)).scale(c))
        target = ident.scale(coalg.eps(x))
        ch.record((x, 0), acc1 == target, "alpha*beta", "eps Id")
        ch.record((x, 1), acc2 == target, "beta*alpha", "eps Id")
    rep.add(ch.entry())
    conv_ok = rep.entries[-1].status == PASS
    if bail():
        return rep

    if not conv_ok:
        for ax in ("P-DELTA", "P-ANTI", "P-MP5"):
            rep.add(skipped_entry(ax))
    else:
        # P-DELTA: Delta(x.y) = (x_1 . alpha_{x_2}(beta_{x_4}(y_1))) (x) (x_3 . y_2)
        ch = Checker("P-DELTA")
        memo: dict = {}
        for i in range(d):
            for j in range(d):
                lhs = coalg.comul_vec(alg.mul[i][j])
                rhs = _pdelta_rhs(s, i, j, memo)
                ch.compare((i, j), lhs, rhs, pairs_text)
        rep.add(ch.entry())
        if bail():
            return rep

        # P-ANTI: Delta S_> = (S_> (x) S_>) flip Delta
        sharp = sharp_antipode(s)
        ch = Checker("P-ANTI")
        for i in range(d):
            lhs = coalg.comul_vec(sharp.column(i))
            rhs: dict[tuple[int, int], Scalar] = {}
            for i1, i2, c in coalg.comul[i]:
                tens2_add_scaled(rhs, sharp.column(i2), sharp.column(i1), c)
            ch.compare((i,), lhs, rhs, pairs_text)
        rep.add(ch.entry())
        if bail():
            return rep

        # P-MP5: (x_1 >- y_1) (x) (x_2 -< y_2) = (x_2 >- y_2) (x) (x_1 -< y_1)
        harp = leftharpoon(s)
        ch = Checker("P-MP5")
        for i in range(d):
            for j in range(d):
                lhs: dict[tuple[int, int], Scalar] = {}
                rhs: dict[tuple[int, int], Scalar] = {}
                for i1, i2, ci in coalg.comul[i]:
                    for j1, j2, cj in coalg.comul[j]:
                        tens2_add_scaled(lhs, act.act[i1][j1], harp.act[i2][j2], ci, cj)
                        tens2_add_scaled(rhs, act.act[i2][j2], harp.act[i1][j1], ci, cj)
                ch.compare((i, j), lhs, rhs, pairs_text)
        rep.add(ch.entry())
        if bail():
            return rep

    for ax in ("L-U", "L-1ACT", "L-SLIN"):
        rep.add(_beta_free_lemma(s, ax).entry())
        if bail():
            return rep

    if not conv_ok:
        for ax in ("L-BETA", "L-DA", "L-DB", "L-MA", "L-MB", "L-ANTI2"):
            rep.add(skipped_entry(ax))
        return rep

    sharp = sharp_antipode(s)

    # L-BETA: beta = alpha o S_>
    ch = Checker("L-BETA")
    for i in range(d):
        sh = sharp.column(i)
        for j in range(d):
            rhs = act.apply(sh, unit_vector(d, j, fs))
            ch.compare((i, j), beta.act[i][j], rhs, vector_text)
    rep.add(ch.entry())
    if bail():
        return rep

    # L-DA / L-DB: how Delta interlaces with alpha and beta
    ch_da = Checker("L-DA")
    ch_db = Checker("L-DB")
    for i in range(d):
        for j in range(d):
            lhs_a = coalg.comul_vec(act.act[i][j])
            lhs_b = coalg.comul_vec(beta.act[i][j])
            rhs_a: dict[tuple[int, int], Scalar] = {}
            rhs_b: dict[tuple[int, int], Scalar] = {}
            for i1, i2, ci in coalg.comul[i]:
                for p, q, t in coalg.comul[j]:
                    tens2_add_scaled(rhs_a, act.act[i1][p], act.act[i2][q], ci, t)
                    tens2_add_scaled(rhs_b, beta.act[i2][p], beta.act[i1][q], ci, t)
            ch_da.compare((i, j), lhs_a, rhs_a, pairs_text)
            ch_db.compare((i, j), lhs_b, rhs_b, pairs_text)
    rep.add(ch_da.entry())
    if bail():
        return rep
    rep.add(ch_db.entry())
    if bail():
        return rep

    # L-MA / L-MB: how the product interlaces with alpha and beta
    ch_ma = Checker("L-MA")
    ch_mb = Checker("L-MB")
    for i in range(d):
        legs = coalg.comul[i]
        for j in range(d):
            for k in range(d):
                lhs_a = act.apply_basis(i, alg.mul[j][k])
                lhs_b = beta.apply_basis(i, alg.mul[j][k])
                acc_a: dict[int, Scalar] = {}
                acc_b: dict[int, Scalar] = {}
                for i1, i2, c in legs:
                    add_scaled_inplace(acc_a, alg.mul_vec(act.act[i1][j], act.act[i2][k]), c)
                    add_scaled_inplace(acc_b, alg.mul_vec(beta.act[i2][j], beta.act[i1][k]), c)
                ch_ma.compare((i, j, k), lhs_a, Vector(d, acc_a, fs), vector_text)
                ch_mb.compare((i, j, k), lhs_b, Vector(d, acc_b, fs), vector_text)
    rep.add(ch_ma.entry())
    if bail():
        return rep
    rep.add(ch_mb.entry())
    if bail():
        return rep

    # L-ANTI2: beta_{x_2}(S(x_3)) . beta_{x_1}(x_4) = eps(x) 1
    ch = Checker("L-ANTI2")
    for i in range(d):
        acc: dict[int, Scalar] = {}
        for (x1, x2, x3, x4), c in coalg.legs(i, 4):
            v = alg.mul_vec(
                beta.apply_basis(x2, smap.column(x3)),
                beta.act[x1][x4],
            )
            add_scaled_inplace(acc, v, c)
        ch.compare((i,), Vector(d, acc, fs), alg.unit.scale(coalg.eps(i)), vector_text)
    rep.add(ch.entry())
    return rep


def _beta_free_lemma(s: YDPostHopf, axiom: str) -> Checker:
    alg, coalg, smap, act = (
        s.carrier.algebra,
        s.carrier.coalgebra,
        s.carrier.s_map,
        s.action,
    )
    d = s.dim
    fs = s.field
    ch = Checker(axiom)
    if axiom == "L-U":
        for i in range(d):
            lhs = act.apply_basis(i, alg.unit)
            ch.compare((i,), lhs, alg.unit.scale(coalg.eps(i)), vector_text)
    elif axiom == "L-1ACT":
        for j in range(d):
            lhs = act.apply(alg.unit, unit_vector(d, j, fs))
            ch.compare((j,), lhs, unit_vector(d, j, fs), vector_text)
    elif axiom == "L-SLIN":
        for i in range(d):
            for j in range(d):
                lhs = smap.apply(act.act[i][j])
                rhs = act.apply_basis(i, smap.column(j))
                ch.compare((i, j), lhs, rhs, vector_text)
    else:  # pragma: no cover
        raise ValueError(axiom)
    return ch


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
    alg, coalg, act = s.carrier.algebra, s.carrier.coalgebra, s.action
    d = s.dim
    fs = s.field
    ensure_beta(s)
    bullet = bullet_algebra(s)
    sharp = sharp_antipode(s)
    adl = left_coaction_adl(s)
    sigma = braiding_sigma(s)
    rep = CheckReport()

    ch = Checker("YD-MODULE")
    for i in range(d):
        for j in range(d):
            w = bullet.mul[i][j]
            for k in range(d):
                lhs = act.apply(w, unit_vector(d, k, fs))
                rhs = act.apply_basis(i, act.act[j][k])
                ch.compare((i, j, k), lhs, rhs, vector_text)
    rep.add(ch.entry())

    ch = Checker("YD-MODALG")
    for i in range(d):
        legs = coalg.comul[i]
        for j in range(d):
            for k in range(d):
                lhs = act.apply_basis(i, alg.mul[j][k])
                acc: dict[int, Scalar] = {}
                for i1, i2, c in legs:
                    add_scaled_inplace(acc, alg.mul_vec(act.act[i1][j], act.act[i2][k]), c)
                ch.compare((i, j, k), lhs, Vector(d, acc, fs), vector_text)
        ch.compare((i, d, d), act.apply_basis(i, alg.unit), alg.unit.scale(coalg.eps(i)), vector_text)
    rep.add(ch.entry())

    ch = Checker("YD-MODCOALG")
    for i in range(d):
        for j in range(d):
            lhs = coalg.comul_vec(act.act[i][j])
            rhs: dict[tuple[int, int], Scalar] = {}
            for i1, i2, ci in coalg.comul[i]:
                for j1, j2, cj in coalg.comul[j]:
                    tens2_add_scaled(rhs, act.act[i1][j1], act.act[i2][j2], ci, cj)
            ch.compare((i, j, 0), lhs, rhs, pairs_text)
            ch.compare((i, j, 1), coalg.eps_vec(act.act[i][j]), coalg.eps(i) * coalg.eps(j))
    rep.add(ch.entry())

    # YD compatibility: Ad_L(a >- b) = a1 o b1 o S_>(b3) o S_>(a3) (x) (a2 >- b2)
    ch = Checker("YD-COMPAT")
    for a in range(d):
        legs_a = coalg.legs(a, 3)
        for b in range(d):
            lhs = _vec_to_pairs(adl.apply(act.act[a][b]), d)
            rhs: dict[tuple[int, int], Scalar] = {}
            for (a1, a2, a3), ca in legs_a:
                for (b1, b2, b3), cb in coalg.legs(b, 3):
                    u = bullet.mul[a1][b1]
                    u = bullet.mul_vec(u, sharp.column(b3))
                    u = bullet.mul_vec(u, sharp.column(a3))
                    tens2_add_scaled(rhs, u, act.act[a2][b2], ca, cb)
            ch.compare((a, b), lhs, rhs, pairs_text)
    rep.add(ch.entry())

    # Delta is multiplicative against the braided tensor square, and the
    # braided form agrees with the structural compatibility axiom
    ch = Checker("YD-BRAIDMULT")
    memo: dict = {}
    for a in range(d):
        for b in range(d):
            lhs = coalg.comul_vec(alg.mul[a][b])
            mid: dict[tuple[int, int], Scalar] = {}
            for a1, a2, ca in coalg.comul[a]:
                for b1, b2, cb in coalg.comul[b]:
                    sig_col = sigma.column(a2 * d + b1)
                    for idx, cs in sig_col.entries.items():
                        p, q = divmod(idx, d)
                        tens2_add_scaled(mid, alg.mul[a1][p], alg.mul[q][b2], ca, cb, cs)
            ok = ch.compare((a, b, 0), lhs, mid, pairs_text)
            if ok:
                ch.compare((a, b, 1), mid, _pdelta_rhs(s, a, b, memo), pairs_text)
    rep.add(ch.entry())

    # left colinearity of the product:
    # Ad_L(a.b) = a1 o S_>(a3) o b1 o S_>(b3) (x) (a2 . b2)
    ch = Checker("YD-COLINEAR")
    for a in range(d):
        legs_a = coalg.legs(a, 3)
        for b in range(d):
            lhs = _vec_to_pairs(adl.apply(alg.mul[a][b]), d)
            rhs: dict[tuple[int, int], Scalar] = {}
            for (a1, a2, a3), ca in legs_a:
                for (b1, b2, b3), cb in coalg.legs(b, 3):
                    u = bullet.mul_basis_vec(a1, sharp.column(a3))
                    u = bullet.mul_vec_basis(u, b1)
                    u = bullet.mul_vec(u, sharp.column(b3))
                    tens2_add_scaled(rhs, u, alg.mul[a2][b2], ca, cb)
            ch.compare((a, b), lhs, rhs, pairs_text)
    rep.add(ch.entry())
    return rep


def is_pre_hopf(s: YDPostHopf) -> bool:
    """Braided commutativity: multiplication composed with the braiding
    equals the multiplication."""
    alg = s.carrier.algebra
    sigma = braiding_sigma(s)
    d = s.dim
    fs = s.field
    for a in range(d):
        for b in range(d):
            acc: dict[int, Scalar] = {}
            for idx, c in sigma.column(a * d + b).entries.items():
                p, q = divmod(idx, d)
                add_scaled_inplace(acc, alg.mul[p][q], c)
            if Vector(d, acc, fs) != alg.mul[a][b]:
                return False
    return True


def primitives(coalg: CoalgebraData, unit: Vector) -> list[Vector]:
    """Basis of {v : Delta v = v (x) 1 + 1 (x) v}, via a kernel computation."""
    d = coalg.dim
    fs = coalg.field
    entries: dict[tuple[int, int], Scalar] = {}

    def bump(row: int, col: int, c: Scalar):
        key = (row, col)
        v = entries.get(key)
        v = c if v is None else v + c
        if v:
            entries[key] = v
        else:
            entries.pop(key, None)

    for i in range(d):
        for j, k, c in coalg.comul[i]:
            bump(j * d + k, i, c)
        for u, cu in unit.entries.items():
            bump(i * d + u, i, -cu)
            bump(u * d + i, i, -cu)
    from .linalg import kernel as lin_kernel

    return lin_kernel(Matrix(d * d, d, entries, fs))


@dataclass
class PostLieData:
    """Post-Lie algebra by structure constants; dim 0 is allowed."""

    dim: int
    bracket: list[list[Vector]]
    action: list[list[Vector]]
    field: FieldSpec

    def __post_init__(self):
        if len(self.bracket) != self.dim or len(self.action) != self.dim:
            raise StructureError("post-Lie tensor size mismatch")

    def bracket_vec(self, u: Vector, v: Vector) -> Vector:
        acc: dict[int, Scalar] = {}
        for i, a in u.entries.items():
            for j, b in v.entries.items():
                add_scaled_inplace(acc, self.bracket[i][j], a, b)
        return Vector(self.dim, acc, self.field)

    def act_vec(self, u: Vector, v: Vector) -> Vector:
        acc: dict[int, Scalar] = {}
        for i, a in u.entries.items():
            for j, b in v.entries.items():
                add_scaled_inplace(acc, self.action[i][j], a, b)
        return Vector(self.dim, acc, self.field)


def _coords_in_span(basis: list[Vector], v: Vector, fs: FieldSpec) -> Vector | None:
    if not basis:
        return None if not v.is_zero() else Vector(0, {}, fs)
    mat = matrix_from_columns(basis, fs)
    res = solve(mat, v)
    return res.solution


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
    bracket = []
    action = []
    for i in range(n):
        brow = []
        arow = []
        for j in range(n):
            comm = alg.mul_vec(prim[i], prim[j]).sub(alg.mul_vec(prim[j], prim[i]))
            cb = _coords_in_span(prim, comm, fs)
            if cb is None:
                raise StructureError("primitive subspace not closed under the bracket")
            acted = act.apply(prim[i], prim[j])
            ca = _coords_in_span(prim, acted, fs)
            if ca is None:
                raise StructureError("primitive subspace not closed under the action")
            brow.append(cb)
            arow.append(ca)
        bracket.append(brow)
        action.append(arow)
    out = PostLieData(n, bracket, action, fs)
    rep = check_post_lie(out)
    if not rep.all_pass():
        bad = ", ".join(e.axiom for e in rep.failed())
        raise StructureError(f"primitives do not form a post-Lie algebra: {bad}")
    return out


def check_post_lie(p: PostLieData) -> CheckReport:
    """Antisymmetry, Jacobi, both post-Lie identities, subadjacent Jacobi."""
    d = p.dim
    fs = p.field
    rep = CheckReport()

    ch = Checker("PL-SKEW")
    for i in range(d):
        for j in range(d):
            ch.compare((i, j), p.bracket[i][j], p.bracket[j][i].neg(), vector_text)
    rep.add(ch.entry())

    def jacobi(br, axiom: str) -> Checker:
        chj = Checker(axiom)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    e = [unit_vector(d, t, fs) for t in (i, j, k)]
                    total = br(e[0], br(e[1], e[2]))
                    total = total.add(br(e[1], br(e[2], e[0])))
                    total = total.add(br(e[2], br(e[0], e[1])))
                    chj.compare((i, j, k), total, Vector(d, {}, fs), vector_text)
        return chj

    rep.add(jacobi(p.bracket_vec, "PL-JAC").entry())

    ch = Checker("PL-1")
    for i in range(d):
        for j in range(d):
            for k in range(d):
                ei, ej, ek = (unit_vector(d, t, fs) for t in (i, j, k))
                lhs = p.act_vec(ei, p.bracket[j][k])
                rhs = p.bracket_vec(p.action[i][j], ek).add(p.bracket_vec(ej, p.action[i][k]))
                ch.compare((i, j, k), lhs, rhs, vector_text)
    rep.add(ch.entry())

    ch = Checker("PL-2")
    for i in range(d):
        for j in range(d):
            w = p.bracket[i][j].add(p.action[i][j]).sub(p.action[j][i])
            for k in range(d):
                ek = unit_vector(d, k, fs)
                lhs = p.act_vec(w, ek)
                rhs = p.act_vec(unit_vector(d, i, fs), p.action[j][k]).sub(
                    p.act_vec(unit_vector(d, j, fs), p.action[i][k])
                )
                ch.compare((i, j, k), lhs, rhs, vector_text)
    rep.add(ch.entry())

    # subadjacent bracket [x,y]_> = (x>-y) - (y>-x) + [x,y] satisfies Jacobi
    sub = [
        [p.action[i][j].sub(p.action[j][i]).add(p.bracket[i][j]) for j in range(d)]
        for i in range(d)
    ]

    def sub_br(u: Vector, v: Vector) -> Vector:
        acc: dict[int, Scalar] = {}
        for i, a in u.entries.items():
            for j, b in v.entries.items():
                add_scaled_inplace(acc, sub[i][j], a, b)
        return Vector(d, acc, fs)

    rep.add(jacobi(sub_br, "PL-SUB").entry())
    return rep
