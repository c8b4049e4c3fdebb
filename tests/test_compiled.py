"""The identities on compiled int tables, and the shared action laws of
``hopf``, give the verdicts of the Vector loops they replaced.

The reference functions below are the Vector-path loops that ALG-ASSOC,
P-DOT, P-ASSOC, L-MB, YD-COMPAT, YD-COLINEAR, P-DELTA, YD-BRAIDMULT,
P-ANTI, HOPF-DELTA-MULT, P-COALG's coproduct rows, HB-COMPAT, MP-3, MP-4,
MP-BC, RB-1, RB-2 and RB-BIMON's parts 4-8 ran before they moved to
compiled tables (P-DOT's and L-MB's loops, which differ only in which leg
acts on which factor, as one), the loops that built the left harpoon and
the braiding, and the loops that L-DB, P-MP5, HB-MP5, MP-5 (one loop),
MP-MODC, MP-1 and RB-BIMON's parts 1-3 ran before they called the shared
laws, kept here as an oracle.  On perturbed Sweedler and E(2) structures
and their brace, matched-pair and Rota-Baxter images, over Q (denominators
1-6), F_7 and F_10007, each must report the same checked count, failure
count and witness as its reference, and the left harpoon and the braiding
must be the same exact tensors.  The six brace, matched-pair and
Rota-Baxter IDs are also held to their references on the images of
Sweedler and Suzuki(1, -1) and on every golden mutant of those kinds;
RB-BIMON's parts 4-8 on every rb_l golden and its one- and two-line
mutants; and YD-COMPAT, YD-COLINEAR and parts 4-8 on the dim-16 E(3) over
Q and F_10007.

The loops that built the derived maps before ``hopf.convolve`` and
``hopf.coaction`` (the bullet product, S_>, Ad_L, ``hopf.convolution``, the
brace action, the matched-pair carrier, rho, S_K, functor M and the adjoint
example) are kept too, with the two ``AlgebraData`` methods they called,
``mul_basis_vec`` and ``mul_vec_basis``, as local helpers.  Each map must
equal its loop in value and in the class of every stored scalar, on the
perturbed structures, the rb_l line mutants and an operator with a sheared
R; the adjoint example on the C2 and S3 group algebras only, since it
composes operators and so agrees with its loops only where H is
associative.
"""

import ast
import dataclasses
import functools
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import ydalgebra
from oracles import (
    act_apply, add_scaled_inplace, apply_basis, apply_vec_basis, bilinear, bracket_vec, comul_vec, eps_vec,
    matrix_apply, mul_vec, pulled_back, tens2,
)
from oracles import int_bilinear as dict_int_bilinear, int_items as dict_int_items, int_linear as dict_int_linear
from test_golden import KIND_MUTANTS, SUITE_MUTANTS, _mutant_text, _mutate, _mutate_named, yd_mutant
from ydalgebra.braces import (
    MatchedPair, YDBrace, _brace_compat, _matched_pair_laws, brace_action, check_matched_pair, check_yd_brace,
    from_matched_pair, functor_f, functor_g, to_matched_pair,
)
from ydalgebra.builders import (
    build_adjoint, build_en, build_suzuki, build_sweedler, cyclic_group, group_algebra, symmetric_group_3,
)
from ydalgebra.cli import run_suite
from ydalgebra.compiled import (
    compile_comul, compile_legs, compile_tensor, compile_vectors, int_bilinear, int_items, int_linear, line,
    square,
)
from ydalgebra.field import RATIONALS, FieldError, FieldSpec, ModInt, format_scalar
from ydalgebra.hopf import (
    ActionTensor, AlgebraData, BraidedPair, CoalgebraData, HopfData, StructureError, antipode_law, check_algebra,
    check_hopf, coalgebra_map_law, convolution, module_algebra_law, module_coalgebra_law, module_law,
)
from ydalgebra.linalg import Matrix, Vector, _vector, accumulate, kernel, matrix_from_columns, unit_vector
from ydalgebra.posthopf import (
    _alpha_comult,
    _braided_mult,
    _delta_identity,
    _module_algebra,
    _module_identity,
    _sharp_columns,
    _yd_colinear,
    _yd_compat,
    PostLieData,
    braiding_sigma,
    bullet_algebra,
    check_post_lie,
    ensure_beta,
    check_yd_post_hopf,
    is_pre_hopf,
    left_coaction_adl,
    leftharpoon,
    primitives,
    sharp_antipode,
    solve_beta,
    YDPostHopf,
)
from ydalgebra.report import SKIPPED, Tally, pairs_text, vector_text
from ydalgebra.rota import (
    LieData, LieRB, RelRB, _action_parts, _comodule_parts, _r_inverse, _rb1, _rb2, antipode_sk, check_lie_rb,
    check_rb_morphism, check_rel_rb, derived_coaction, functor_l, functor_m,
)
from ydalgebra.structio import emit, parse

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


# --- the reference: Vector-path loops ----------------------------------------


def tens2_add_scaled(acc, u, v, *cs) -> None:
    """acc += c * (u (x) v), keyed by index pairs, for c the product of cs:
    the tensor helper of the Vector-path loops, on ``tens2``."""
    c = cs[0]
    for x in cs[1:]:
        c = c * x
    for pq, x in tens2(u, v).items():
        accumulate(acc, pq, c * x)


def mul_basis_vec(alg, i: int, v):
    """e_i . v: the Vector-path loop that ``AlgebraData.mul_basis_vec`` ran."""
    acc = {}
    row = alg.mul[i]
    for j, b in v.entries.items():
        add_scaled_inplace(acc, row[j], b)
    return _vector(alg.dim, acc, alg.field)


def mul_vec_basis(alg, v, j: int):
    """v . e_j: the Vector-path loop that ``AlgebraData.mul_vec_basis`` ran."""
    acc = {}
    for i, a in v.entries.items():
        add_scaled_inplace(acc, alg.mul[i][j], a)
    return _vector(alg.dim, acc, alg.field)


def ref_alg_assoc(a) -> Tally:
    ch = Tally()
    for i in range(a.dim):
        for j in range(a.dim):
            w = a.mul[i][j]
            for k in range(a.dim):
                left = mul_vec_basis(a, w, k)
                right = mul_basis_vec(a, i, a.mul[j][k])
                ch.compare((i, j, k), left, right, vector_text)
    return ch


def ref_module_algebra(s, act, swap: bool) -> Tally:
    """P-DOT for act = alpha; L-MB, whose legs are swapped, for act = beta."""
    alg, coalg = s.carrier.algebra, s.carrier.coalgebra
    d, fs = s.dim, s.field
    t = Tally()
    for i in range(d):
        legs = coalg.comul[i]
        for j in range(d):
            for k in range(d):
                lhs = apply_basis(act, i, alg.mul[j][k])
                acc = {}
                for i1, i2, c in legs:
                    if swap:
                        i1, i2 = i2, i1
                    add_scaled_inplace(acc, mul_vec(alg, act.act[i1][j], act.act[i2][k]), c)
                t.compare((i, j, k), lhs, _vector(d, acc, fs), vector_text)
    return t


def ref_module_identity(s) -> Tally:
    act = s.action
    bullet = bullet_algebra(s)
    d = s.dim
    t = Tally()
    for i in range(d):
        for j in range(d):
            w = bullet.mul[i][j]
            for k in range(d):
                lhs = apply_basis(act, i, act.act[j][k])
                t.compare((i, j, k), lhs, apply_vec_basis(act, w, k), vector_text)
    return t


def ref_sharp_legs(s):
    coalg = s.carrier.coalgebra
    sharp = sharp_antipode(s)
    d, fs = s.dim, s.field
    out = []
    for x in range(d):
        groups = {}
        for (x1, x2, x3), c in coalg.legs(x, 3):
            add_scaled_inplace(groups.setdefault((x1, x2), {}), sharp.column(x3), c)
        out.append([(x1, x2, _vector(d, acc, fs)) for (x1, x2), acc in groups.items() if acc])
    return out


def _vec_to_pairs(v, d):
    return {(i // d, i % d): c for i, c in v.entries.items()}


def ref_yd_compat(s) -> Tally:
    act = s.action
    d, one = s.dim, s.field.one
    bullet = bullet_algebra(s)
    adl = left_coaction_adl(s)
    grouped = ref_sharp_legs(s)
    ch = Tally()
    for a in range(d):
        for b in range(d):
            lhs = _vec_to_pairs(adl.apply(act.act[a][b]), d)
            rhs = {}
            for a1, a2, sa in grouped[a]:
                for b1, b2, sb in grouped[b]:
                    u = mul_vec(bullet, mul_vec(bullet, bullet.mul[a1][b1], sb), sa)
                    tens2_add_scaled(rhs, u, act.act[a2][b2], one)
            ch.compare((a, b), lhs, rhs, pairs_text)
    return ch


def ref_yd_colinear(s) -> Tally:
    alg = s.carrier.algebra
    d, one = s.dim, s.field.one
    bullet = bullet_algebra(s)
    adl = left_coaction_adl(s)
    grouped = ref_sharp_legs(s)
    ch = Tally()
    for a in range(d):
        lefts = [(mul_basis_vec(bullet, a1, sa), a2) for a1, a2, sa in grouped[a]]
        for b in range(d):
            lhs = _vec_to_pairs(adl.apply(alg.mul[a][b]), d)
            rhs = {}
            for left, a2 in lefts:
                for b1, b2, sb in grouped[b]:
                    u = mul_vec(bullet, mul_vec_basis(bullet, left, b1), sb)
                    tens2_add_scaled(rhs, u, alg.mul[a2][b2], one)
            ch.compare((a, b), lhs, rhs, pairs_text)
    return ch


def ref_pdelta_rhs(s, i, j, memo) -> dict:
    alg, coalg, act, beta = s.carrier.algebra, s.carrier.coalgebra, s.action, s.beta
    rhs = {}
    for (a, b, c3, e), sc in coalg.legs(i, 4):
        fused = memo.setdefault((a, b, e), {})
        for p, q, t in coalg.comul[j]:
            v3 = fused.get(p)
            if v3 is None:
                v3 = fused[p] = mul_basis_vec(alg, a, apply_basis(act, b, beta.act[e][p]))
            tens2_add_scaled(rhs, v3, alg.mul[c3][q], sc, t)
    return rhs


def ref_pdelta(s) -> tuple[Tally, frozenset]:
    alg, coalg = s.carrier.algebra, s.carrier.coalgebra
    t = Tally()
    failed = set()
    memo = {}
    for i in range(s.dim):
        for j in range(s.dim):
            if not t.compare((i, j), comul_vec(coalg, alg.mul[i][j]), ref_pdelta_rhs(s, i, j, memo), pairs_text):
                failed.add((i, j))
    return t, frozenset(failed)


def ref_braiding_sigma(s) -> dict:
    """The braiding as {(p * dim + q, a * dim + b): scalar}."""
    coalg, act, beta = s.carrier.coalgebra, s.action, s.beta
    d = s.dim
    entries = {}
    for a in range(d):
        for (a1, a2, a3), c in coalg.legs(a, 3):
            for b in range(d):
                w = apply_basis(act, a1, beta.act[a3][b])
                for p, cp in w.entries.items():
                    key = (p * d + a2, a * d + b)
                    v = entries.get(key)
                    v = c * cp if v is None else v + c * cp
                    if v:
                        entries[key] = v
                    else:
                        del entries[key]
    return entries


def ref_braidmult(s, delta_failed=None) -> Tally:
    """Both rows of YD-BRAIDMULT; the second reads P-DELTA's failed set."""
    alg, coalg = s.carrier.algebra, s.carrier.coalgebra
    d = s.dim
    sigma = ref_braiding_sigma(s)
    columns = {}
    for (row, col), c in sigma.items():
        columns.setdefault(col, {})[row] = c
    if delta_failed is None:
        delta_failed = ref_pdelta(s)[1]
    ch = Tally()
    for a in range(d):
        for b in range(d):
            lhs = comul_vec(coalg, alg.mul[a][b])
            mid = {}
            for a1, a2, ca in coalg.comul[a]:
                for b1, b2, cb in coalg.comul[b]:
                    for idx, cs in columns.get(a2 * d + b1, {}).items():
                        p, q = divmod(idx, d)
                        tens2_add_scaled(mid, alg.mul[a1][p], alg.mul[q][b2], ca, cb, cs)
            if not ch.compare((a, b, 0), lhs, mid, pairs_text):
                continue
            if (a, b) in delta_failed and ch.witness is None:
                ch.compare((a, b, 1), mid, ref_pdelta_rhs(s, a, b, {}), pairs_text)
            else:
                ch.record((a, b, 1), (a, b) not in delta_failed)
    return ch


def ref_p_anti(s) -> Tally:
    coalg, sharp = s.carrier.coalgebra, sharp_antipode(s)
    ch = Tally()
    for i in range(s.dim):
        rhs = {}
        for i1, i2, c in coalg.comul[i]:
            tens2_add_scaled(rhs, sharp.column(i2), sharp.column(i1), c)
        ch.compare((i,), comul_vec(coalg, sharp.column(i)), rhs, pairs_text)
    return ch


def ref_hopf_delta_mult(a, c) -> Tally:
    ch = Tally()
    for i in range(a.dim):
        for j in range(a.dim):
            rhs = {}
            for p, q, s in c.comul[i]:
                for r, t, u in c.comul[j]:
                    tens2_add_scaled(rhs, a.mul[p][r], a.mul[q][t], s, u)
            ch.compare((i, j), comul_vec(c, a.mul[i][j]), rhs, pairs_text)
    return ch


def ref_p_coalg_delta(s) -> Tally:
    """The coproduct rows of P-COALG: Delta(x >- y) = (x_1 >- y_1) (x) (x_2 >- y_2)."""
    coalg, rows = s.carrier.coalgebra, s.action.act
    ch = Tally()
    for i in range(s.dim):
        for j in range(s.dim):
            rhs = {}
            for i1, i2, ci in coalg.comul[i]:
                for j1, j2, cj in coalg.comul[j]:
                    tens2_add_scaled(rhs, rows[i1][j1], rows[i2][j2], ci, cj)
            ch.compare((i, j), comul_vec(coalg, rows[i][j]), rhs, pairs_text)
    return ch


def ref_leftharpoon(s) -> list:
    coalg, act = s.carrier.coalgebra, s.action
    bullet, sharp = bullet_algebra(s), sharp_antipode(s)
    d = s.dim
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = {}
            for i1, i2, ci in coalg.comul[i]:
                for j1, j2, cj in coalg.comul[j]:
                    v = sharp.apply(act.act[i1][j1])
                    v = mul_vec_basis(bullet, v, i2)
                    v = mul_vec_basis(bullet, v, j2)
                    add_scaled_inplace(acc, v, ci, cj)
            row.append(_vector(d, acc, s.field))
        rows.append(row)
    return rows


def ref_l_db(s) -> Tally:
    coalg, beta = s.carrier.coalgebra, s.beta
    d = s.dim
    ch = Tally()
    for i in range(d):
        for j in range(d):
            lhs = comul_vec(coalg, beta.act[i][j])
            rhs = {}
            for i1, i2, ci in coalg.comul[i]:
                for p, q, t in coalg.comul[j]:
                    tens2_add_scaled(rhs, beta.act[i2][p], beta.act[i1][q], ci, t)
            ch.compare((i, j), lhs, rhs, pairs_text)
    return ch


def ref_mp5(left, right, coalg) -> Tally:
    """P-MP5 for (alpha, the left harpoon), HB-MP5 for the same pair of the
    induced structure, MP-5 for the two actions of a matched pair."""
    ch = Tally()
    for i in range(coalg.dim):
        for j in range(coalg.dim):
            lhs = {}
            rhs = {}
            for i1, i2, ci in coalg.comul[i]:
                for j1, j2, cj in coalg.comul[j]:
                    tens2_add_scaled(lhs, left.act[i1][j1], right.act[i2][j2], ci, cj)
                    tens2_add_scaled(rhs, left.act[i2][j2], right.act[i1][j1], ci, cj)
            ch.compare((i, j), lhs, rhs, pairs_text)
    return ch


def ref_mp_modc(mp) -> Tally:
    d, fs = mp.dim, mp.field
    alg, coalg = mp.hopf.algebra, mp.hopf.coalgebra
    left, right = mp.left_action, mp.right_action
    ch = Tally()
    for i in range(d):
        for j in range(d):
            lhs = comul_vec(coalg, left.act[i][j])
            rhs = {}
            for i1, i2, ci in coalg.comul[i]:
                for j1, j2, cj in coalg.comul[j]:
                    tens2_add_scaled(rhs, left.act[i1][j1], left.act[i2][j2], ci, cj)
            ch.compare((0, i, j), lhs, rhs, pairs_text)
            ch.compare((1, i, j), eps_vec(coalg, left.act[i][j]), coalg.eps(i) * coalg.eps(j))
            lhs = comul_vec(coalg, right.act[i][j])
            rhs = {}
            for i1, i2, ci in coalg.comul[i]:
                for j1, j2, cj in coalg.comul[j]:
                    tens2_add_scaled(rhs, right.act[i1][j1], right.act[i2][j2], ci, cj)
            ch.compare((2, i, j), lhs, rhs, pairs_text)
            ch.compare((3, i, j), eps_vec(coalg, right.act[i][j]), coalg.eps(i) * coalg.eps(j))
            w = alg.mul[i][j]
            for k in range(d):
                lhs_v = apply_vec_basis(left, w, k)
                rhs_v = apply_basis(left, i, left.act[j][k])
                ch.compare((4, i, j, k), lhs_v, rhs_v, vector_text)
                lhs_v = apply_vec_basis(right, right.act[k][i], j)
                rhs_v = apply_basis(right, k, w)
                ch.compare((5, i, j, k), lhs_v, rhs_v, vector_text)
    for j in range(d):
        ch.compare((6, j), apply_vec_basis(left, alg.unit, j), unit_vector(d, j, fs), vector_text)
        ch.compare((7, j), apply_basis(right, j, alg.unit), unit_vector(d, j, fs), vector_text)
    return ch


def ref_mp1(mp) -> Tally:
    alg, coalg, left = mp.hopf.algebra, mp.hopf.coalgebra, mp.left_action
    ch = Tally()
    for i in range(mp.dim):
        ch.compare((i,), apply_basis(left, i, alg.unit), alg.unit.scale(coalg.eps(i)), vector_text)
    return ch


def ref_bimonoid_parts_1_3(r) -> Tally:
    dk, dh = r.dim_k, r.h.dim
    fs = r.field
    halg, hco = r.h.algebra, r.h.coalgebra
    kalg, kco = r.k_alg, r.k_coalg
    act = r.action
    ch = Tally()
    for i in range(dh):
        for j in range(dh):
            w = halg.mul[i][j]
            for a in range(dk):
                lhs = apply_vec_basis(act, w, a)
                rhs = apply_basis(act, i, act.act[j][a])
                ch.compare((1, i, j, a), lhs, rhs, vector_text)
    for a in range(dk):
        ch.compare((1, dh, dh, a), apply_vec_basis(act, halg.unit, a),
                   unit_vector(dk, a, fs), vector_text)
    for i in range(dh):
        legs = hco.comul[i]
        for a in range(dk):
            for b in range(dk):
                lhs = apply_basis(act, i, kalg.mul[a][b])
                acc = {}
                for i1, i2, c in legs:
                    add_scaled_inplace(acc, mul_vec(kalg, act.act[i1][a], act.act[i2][b]), c)
                ch.compare((2, i, a, b), lhs, _vector(dk, acc, fs), vector_text)
        ch.compare((2, i, dk, dk), apply_basis(act, i, kalg.unit),
                   kalg.unit.scale(hco.eps(i)), vector_text)
    for i in range(dh):
        for a in range(dk):
            lhs = comul_vec(kco, act.act[i][a])
            rhs = {}
            for i1, i2, ci in hco.comul[i]:
                for a1, a2, ca in kco.comul[a]:
                    tens2_add_scaled(rhs, act.act[i1][a1], act.act[i2][a2], ci, ca)
            ch.compare((3, i, a, 0), lhs, rhs, pairs_text)
            ch.compare((3, i, a, 1), eps_vec(kco, act.act[i][a]), hco.eps(i) * kco.eps(a))
    return ch


def _coact_terms(rho, dk, a):
    return sorted((p // dk, p % dk, c) for p, c in rho.column(a).entries.items())


def ref_bimonoid_parts_4_8(r) -> list[Tally]:
    """RB-BIMON's parts 4-8 as the Vector and pair-dict loops ran them, one
    tally per part."""
    dk, dh = r.dim_k, r.h.dim
    fs = r.field
    halg, hco = r.h.algebra, r.h.coalgebra
    kalg, kco = r.k_alg, r.k_coalg
    act = r.action
    rho = r.coaction if r.coaction is not None else derived_coaction(r)
    parts = [Tally() for _ in range(5)]

    # 4. comodule: counit leg and coassociativity of the coaction
    ch = parts[0]
    for a in range(dk):
        terms = _coact_terms(rho, dk, a)
        acc = {}
        for p, q, c in terms:
            e = hco.eps(p)
            if e:
                accumulate(acc, q, c * e)
        ch.compare((4, a, 0), Vector(dk, acc, fs), unit_vector(dk, a, fs), vector_text)
        lhs3, rhs3 = {}, {}
        for p, q, c in terms:
            for p1, p2, cp in hco.comul[p]:
                accumulate(lhs3, (p1, p2, q), c * cp)
            for p2, q2, c2 in _coact_terms(rho, dk, q):
                accumulate(rhs3, (p, p2, q2), c * c2)
        ch.compare((4, a, 1), lhs3, rhs3, pairs_text)

    # 5. comodule algebra: rho(a.b) = a(-1) b(-1) (x) a(0) b(0), rho(1) = 1 (x) 1
    ch = parts[1]
    for a in range(dk):
        terms_a = _coact_terms(rho, dk, a)
        for b in range(dk):
            lhs = {}
            for t, c in kalg.mul[a][b].entries.items():
                for p, q, cp in _coact_terms(rho, dk, t):
                    accumulate(lhs, (p, q), c * cp)
            rhs = {}
            for p1, q1, c1 in terms_a:
                for p2, q2, c2 in _coact_terms(rho, dk, b):
                    tens2_add_scaled(rhs, halg.mul[p1][p2], kalg.mul[q1][q2], c1, c2)
            ch.compare((5, a, b), lhs, rhs, pairs_text)
    unit_rho = {}
    for t, c in kalg.unit.entries.items():
        for p, q, cp in _coact_terms(rho, dk, t):
            accumulate(unit_rho, (p, q), c * cp)
    expected_unit = {}
    tens2_add_scaled(expected_unit, halg.unit, kalg.unit, fs.one)
    ch.compare((5, dk, dk), unit_rho, expected_unit, pairs_text)

    # 6. comodule coalgebra: Delta and eps are colinear
    ch = parts[2]
    for a in range(dk):
        lhs3 = {}
        for p, q, c in _coact_terms(rho, dk, a):
            for q1, q2, cq in kco.comul[q]:
                accumulate(lhs3, (p, q1, q2), c * cq)
        rhs3 = {}
        for a1, a2, ca in kco.comul[a]:
            for p1, q1, c1 in _coact_terms(rho, dk, a1):
                for p2, q2, c2 in _coact_terms(rho, dk, a2):
                    for h, hc in halg.mul[p1][p2].entries.items():
                        accumulate(rhs3, (h, q1, q2), ca * c1 * c2 * hc)
        ch.compare((6, a, 0), lhs3, rhs3, pairs_text)
        acc = {}
        for p, q, c in _coact_terms(rho, dk, a):
            e = kco.eps(q)
            if e:
                accumulate(acc, p, c * e)
        ch.compare((6, a, 1), Vector(dh, acc, fs), halg.unit.scale(kco.eps(a)), vector_text)

    # 7. Yetter-Drinfeld compatibility: rho(h >- a) = h_1 a(-1) S(h_3) (x) (h_2 >- a(0))
    ch = parts[3]
    smap = r.h.antipode
    for i in range(dh):
        legs_i = hco.legs(i, 3)
        for a in range(dk):
            lhs = {}
            for t, c in act.act[i][a].entries.items():
                for p, q, cp in _coact_terms(rho, dk, t):
                    accumulate(lhs, (p, q), c * cp)
            rhs = {}
            for (i1, i2, i3), ci in legs_i:
                for p, q, cp in _coact_terms(rho, dk, a):
                    u = mul_vec(halg, mul_basis_vec(halg, i1, unit_vector(dh, p, fs)), smap.column(i3))
                    tens2_add_scaled(rhs, u, act.act[i2][q], ci, cp)
            ch.compare((7, i, a), lhs, rhs, pairs_text)

    # 8. braided bialgebra: Delta(a.b) = a_1 . (a_2(-1) >- b_1) (x) a_2(0) . b_2
    ch = parts[4]
    for a in range(dk):
        for b in range(dk):
            lhs = comul_vec(kco, kalg.mul[a][b])
            rhs = {}
            for a1, a2, ca in kco.comul[a]:
                for b1, b2, cb in kco.comul[b]:
                    for p, q, cp in _coact_terms(rho, dk, a2):
                        u = mul_basis_vec(kalg, a1, apply_basis(act, p, unit_vector(dk, b1, fs)))
                        tens2_add_scaled(rhs, u, kalg.mul[q][b2], ca, cb, cp)
            ch.compare((8, a, b, 0), lhs, rhs, pairs_text)
            ch.compare((8, a, b, 1), eps_vec(kco, kalg.mul[a][b]), kco.eps(a) * kco.eps(b))
    utens = {}
    tens2_add_scaled(utens, kalg.unit, kalg.unit, fs.one)
    ch.compare((8, dk, dk, 0), comul_vec(kco, kalg.unit), utens, pairs_text)
    return parts


def ref_hb_compat(b) -> Tally:
    d, fs = b.dim, b.field
    alg, coalg = b.dot_side.algebra, b.dot_side.coalgebra
    bullet, smap = b.bullet_side.algebra, b.dot_side.s_map
    ch = Tally()
    for a in range(d):
        legs = coalg.legs(a, 3)
        for i in range(d):
            for j in range(d):
                lhs = mul_basis_vec(bullet, a, alg.mul[i][j])
                acc = {}
                for (a1, a2, a3), c in legs:
                    v = mul_vec(alg, bullet.mul[a1][i], smap.column(a2))
                    v = mul_vec(alg, v, bullet.mul[a3][j])
                    add_scaled_inplace(acc, v, c)
                ch.compare((a, i, j), lhs, Vector(d, acc, fs), vector_text)
    return ch


def ref_mp3(mp) -> Tally:
    d, fs = mp.dim, mp.field
    alg, coalg = mp.hopf.algebra, mp.hopf.coalgebra
    left, right = mp.left_action, mp.right_action
    ch = Tally()
    for a in range(d):
        for b in range(d):
            pieces = []
            for a1, a2, ca in coalg.comul[a]:
                for b1, b2, cb in coalg.comul[b]:
                    pieces.append((left.act[a1][b1], right.act[a2][b2], ca * cb))
            for c in range(d):
                lhs = apply_basis(left, a, alg.mul[b][c])
                acc = {}
                for lv, rv, coeff in pieces:
                    w = apply_vec_basis(left, rv, c)
                    add_scaled_inplace(acc, mul_vec(alg, lv, w), coeff)
                ch.compare((a, b, c), lhs, Vector(d, acc, fs), vector_text)
    return ch


def ref_mp4(mp, failed: set | None = None) -> Tally:
    """Loops b, c, a, so its witness is the first failure in that order;
    adds every failing (a, b, c) to failed, if given."""
    d, fs = mp.dim, mp.field
    alg, coalg = mp.hopf.algebra, mp.hopf.coalgebra
    left, right = mp.left_action, mp.right_action
    ch = Tally()
    for b in range(d):
        for c in range(d):
            pieces = []
            for b1, b2, cb in coalg.comul[b]:
                for c1, c2, cc in coalg.comul[c]:
                    pieces.append((left.act[b1][c1], right.act[b2][c2], cb * cc))
            for a in range(d):
                lhs = apply_vec_basis(right, alg.mul[a][b], c)
                acc = {}
                for lv, rv, coeff in pieces:
                    w = apply_basis(right, a, lv)
                    add_scaled_inplace(acc, mul_vec(alg, w, rv), coeff)
                if not ch.compare((a, b, c), lhs, Vector(d, acc, fs), vector_text) and failed is not None:
                    failed.add((a, b, c))
    return ch


def ref_mp_bc(mp) -> Tally:
    d, fs = mp.dim, mp.field
    alg, coalg = mp.hopf.algebra, mp.hopf.coalgebra
    left, right = mp.left_action, mp.right_action
    ch = Tally()
    for a in range(d):
        for b in range(d):
            acc = {}
            for a1, a2, ca in coalg.comul[a]:
                for b1, b2, cb in coalg.comul[b]:
                    add_scaled_inplace(acc, mul_vec(alg, left.act[a1][b1], right.act[a2][b2]), ca * cb)
            ch.compare((a, b), alg.mul[a][b], Vector(d, acc, fs), vector_text)
    return ch


def ref_rb1(r) -> Tally:
    dk, fs = r.dim_k, r.field
    halg, kalg, kco = r.h.algebra, r.k_alg, r.k_coalg
    act, rmap = r.action, r.r_map
    ch = Tally()
    for a in range(dk):
        legs = kco.comul[a]
        for b in range(dk):
            lhs = mul_vec(halg, rmap.column(a), rmap.column(b))
            acc = {}
            for a1, a2, c in legs:
                w = apply_vec_basis(act, rmap.column(a2), b)
                add_scaled_inplace(acc, mul_basis_vec(kalg, a1, w), c)
            ch.compare((a, b), lhs, rmap.apply(_vector(dk, acc, fs)), vector_text)
    return ch


def ref_rb2(r) -> Tally:
    dk = r.dim_k
    halg, kco = r.h.algebra, r.k_coalg
    act, rmap, smap = r.action, r.r_map, r.h.antipode

    def rb2_term(a_legs, b_legs):
        (ai, aj, ak), (bi, bj, bk) = a_legs, b_legs
        w1 = apply_vec_basis(act, rmap.column(ai), bi)
        u = smap.apply(rmap.apply(w1))
        u = mul_vec(halg, u, rmap.column(aj))
        u = mul_vec(halg, u, rmap.column(bj))
        w3 = apply_vec_basis(act, rmap.column(ak), bk)
        return u, rmap.apply(w3)

    ch = Tally()
    for a in range(dk):
        legs_a = kco.legs(a, 3)
        for b in range(dk):
            legs_b = kco.legs(b, 3)
            lhs = {}
            rhs = {}
            for (a1, a2, a3), ca in legs_a:
                for (b1, b2, b3), cb in legs_b:
                    u, v = rb2_term((a1, a2, a3), (b1, b2, b3))
                    tens2_add_scaled(lhs, u, v, ca, cb)
                    u, v = rb2_term((a2, a3, a1), (b2, b3, b1))
                    tens2_add_scaled(rhs, u, v, ca, cb)
            ch.compare((a, b), lhs, rhs, pairs_text)
    return ch


# --- the compiled identities, one tally each ---------------------------------


# --- the derived maps' Vector-path loops, before ``hopf.convolve`` -----------


def ref_bullet_algebra(s) -> AlgebraData:
    alg, coalg, act = s.carrier.algebra, s.carrier.coalgebra, s.action
    d = s.dim
    mul = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = {}
            for i1, i2, c in coalg.comul[i]:
                add_scaled_inplace(acc, mul_basis_vec(alg, i1, act.act[i2][j]), c)
            row.append(_vector(d, acc, s.field))
        mul.append(row)
    return AlgebraData(d, list(alg.basis_labels), mul, alg.unit, s.field)


def ref_sharp_antipode(s) -> Matrix:
    beta = s.beta
    coalg, smap = s.carrier.coalgebra, s.carrier.s_map
    d = s.dim
    cols = []
    for i in range(d):
        acc = {}
        for i1, i2, c in coalg.comul[i]:
            add_scaled_inplace(acc, apply_basis(beta, i1, smap.column(i2)), c)
        cols.append(_vector(d, acc, s.field))
    return matrix_from_columns(cols, s.field)


def ref_left_coaction_adl(s) -> Matrix:
    coalg = s.carrier.coalgebra
    bullet = bullet_algebra(s)
    sharp = sharp_antipode(s)
    d = s.dim
    entries = {}
    for a in range(d):
        for (a1, a2, a3), c in coalg.legs(a, 3):
            u = mul_basis_vec(bullet, a1, sharp.column(a3))
            for p, cp in u.entries.items():
                key = (p * d + a2, a)
                v = entries.get(key)
                v = c * cp if v is None else v + c * cp
                if v:
                    entries[key] = v
                else:
                    del entries[key]
    return Matrix(d * d, d, entries, s.field)


def ref_convolution(f, g, c, a) -> Matrix:
    cols = []
    for i in range(c.dim):
        acc = {}
        for j, k, s in c.comul[i]:
            add_scaled_inplace(acc, mul_vec(a, f.column(j), g.column(k)), s)
        cols.append(Vector(a.dim, acc, a.field))
    return matrix_from_columns(cols, a.field)


def ref_brace_action(b) -> ActionTensor:
    d = b.dim
    fs = b.field
    alg = b.dot_side.algebra
    coalg = b.dot_side.coalgebra
    bullet = b.bullet_side.algebra
    smap = b.dot_side.s_map
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = {}
            for i1, i2, c in coalg.comul[i]:
                add_scaled_inplace(acc, mul_vec(alg, smap.column(i1), bullet.mul[i2][j]), c)
            row.append(Vector(d, acc, fs))
        rows.append(row)
    return ActionTensor(d, d, rows, fs)


def ref_from_matched_pair(mp) -> YDPostHopf:
    d = mp.dim
    fs = mp.field
    hopf = mp.hopf
    coalg = hopf.coalgebra
    bullet = hopf.algebra
    t_map = hopf.antipode
    act = mp.left_action
    mul = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = {}
            for i1, i2, c in coalg.comul[i]:
                w = apply_vec_basis(act, t_map.column(i2), j)
                add_scaled_inplace(acc, mul_basis_vec(bullet, i1, w), c)
            row.append(Vector(d, acc, fs))
        mul.append(row)
    alg = AlgebraData(d, list(bullet.basis_labels), mul, bullet.unit, fs)
    cols = []
    for i in range(d):
        acc = {}
        for i1, i2, c in coalg.comul[i]:
            add_scaled_inplace(acc, apply_basis(act, i1, t_map.column(i2)), c)
        cols.append(Vector(d, acc, fs))
    smap = matrix_from_columns(cols, fs)
    carrier = BraidedPair(alg, coalg, smap)
    return YDPostHopf(carrier, act, pulled_back(act, [t_map.column(i) for i in range(d)]),
                      params=dict(mp.params))


def ref_derived_coaction(r) -> Matrix:
    dk, dh = r.dim_k, r.h.dim
    fs = r.field
    halg = r.h.algebra
    smap = r.h.antipode
    entries = {}
    for a in range(dk):
        for (a1, a2, a3), c in r.k_coalg.legs(a, 3):
            u = mul_vec(halg, r.r_map.column(a1), smap.apply(r.r_map.column(a3)))
            for p, cp in u.entries.items():
                key = (p * dk + a2, a)
                v = entries.get(key)
                v = c * cp if v is None else v + c * cp
                if v:
                    entries[key] = v
                else:
                    del entries[key]
    return Matrix(dh * dk, dk, entries, fs)


def ref_antipode_sk(r) -> Matrix:
    rinv = _r_inverse(r)
    if rinv is None:
        raise StructureError("R is not bijective; S_K needs the full notion")
    dk = r.dim_k
    fs = r.field
    smap = r.h.antipode
    cols = []
    for a in range(dk):
        acc = {}
        for a1, a2, c in r.k_coalg.comul[a]:
            w = rinv.apply(smap.apply(r.r_map.column(a2)))
            add_scaled_inplace(acc, act_apply(r.action, r.r_map.column(a1), w), c)
        cols.append(Vector(dk, acc, fs))
    sk = matrix_from_columns(cols, fs)
    if antipode_law(r.k_alg, r.k_coalg, sk).failures:
        raise StructureError("derived S_K fails the antipode identities")
    return sk


def ref_functor_m(r) -> YDPostHopf:
    rinv = _r_inverse(r)
    if rinv is None:
        raise StructureError("functor M needs a bijective R")
    dh = r.h.dim
    fs = r.field
    halg, hco = r.h.algebra, r.h.coalgebra
    smap = r.h.antipode
    mul = []
    for i in range(dh):
        row = []
        for j in range(dh):
            u = mul_vec(r.k_alg, rinv.column(i), rinv.column(j))
            row.append(r.r_map.apply(u))
        mul.append(row)
    alg = AlgebraData(dh, list(halg.basis_labels), mul, halg.unit, fs)
    cols = []
    for a in range(dh):
        acc = {}
        for a1, a2, c in hco.comul[a]:
            w = apply_basis(r.action, a1, rinv.apply(smap.column(a2)))
            add_scaled_inplace(acc, r.r_map.apply(w), c)
        cols.append(Vector(dh, acc, fs))
    s_r = matrix_from_columns(cols, fs)
    act_rows = []
    for i in range(dh):
        row = [r.r_map.apply(apply_basis(r.action, i, rinv.column(j))) for j in range(dh)]
        act_rows.append(row)
    act_r = ActionTensor(dh, dh, act_rows, fs)
    carrier = BraidedPair(alg, hco, s_r)
    return YDPostHopf(carrier, act_r, pulled_back(act_r, [smap.column(i) for i in range(dh)]),
                      params=dict(r.params))


def ref_build_adjoint(h) -> YDPostHopf:
    """The loops of ``build_adjoint``, without its certification."""
    d = h.dim
    fs = h.field
    halg, hco, t_map = h.algebra, h.coalgebra, h.antipode
    act_rows = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = {}
            for i1, i2, c in hco.comul[i]:
                u = mul_vec(halg, halg.mul[i1][j], t_map.column(i2))
                add_scaled_inplace(acc, u, c)
            row.append(Vector(d, acc, fs))
        act_rows.append(row)
    action = ActionTensor(d, d, act_rows, fs)
    mul = []
    for i in range(d):
        legs = hco.legs(i, 3)
        row = []
        for j in range(d):
            acc = {}
            for (i1, i2, i3), c in legs:
                u = mul_basis_vec(halg, i1, t_map.column(i3))
                u = mul_vec_basis(halg, u, j)
                u = mul_vec(halg, u, t_map.apply(t_map.column(i2)))
                add_scaled_inplace(acc, u, c)
            row.append(Vector(d, acc, fs))
        mul.append(row)
    alg = AlgebraData(d, list(halg.basis_labels), mul, halg.unit, fs)
    cols = []
    for i in range(d):
        acc = {}
        for (i1, i2, i3), c in hco.legs(i, 3):
            u = mul_basis_vec(halg, i1, t_map.column(i3))
            u = mul_vec(halg, u, t_map.column(i2))
            add_scaled_inplace(acc, u, c)
        cols.append(Vector(d, acc, fs))
    s_map = matrix_from_columns(cols, fs)
    carrier = BraidedPair(alg, hco, s_map)
    return YDPostHopf(carrier, action, pulled_back(action, [t_map.column(i) for i in range(d)]))


def typed(x):
    """The values of a Vector, a Matrix, a table of Vectors or a post-Hopf
    structure's tables, each paired with its class, so that an int and an
    equal integral Fraction differ."""
    if isinstance(x, (Vector, Matrix)):
        return {k: (c.__class__, c) for k, c in x.entries.items()}
    if isinstance(x, AlgebraData):
        return typed(x.mul), typed(x.unit), x.basis_labels
    if isinstance(x, ActionTensor):
        return typed(x.act)
    if isinstance(x, YDPostHopf):
        c = x.carrier
        return typed(c.algebra), c.coalgebra.comul, typed(c.s_map), typed(x.action), typed(x.beta), x.params
    return [typed(v) for v in x]


def _tally(run) -> Tally:
    t = Tally()
    run(t)
    return t


def _carrier_hopf(s) -> HopfData:
    """The braided carrier as an ordinary Hopf bundle, for HOPF-DELTA-MULT,
    which a braided product fails unless it is an ordinary bialgebra."""
    return HopfData(s.carrier.algebra, s.carrier.coalgebra, s.carrier.s_map)


def compiled_tallies(s) -> dict:
    return {
        "ALG-ASSOC": check_algebra(s.carrier.algebra).entry("ALG-ASSOC"),
        "P-DOT": _module_algebra(s)[0],
        "P-ASSOC": _tally(lambda t: t.absorb(_module_identity(s)[0], swap=True)),
        "L-MB": module_algebra_law(s.beta, s.carrier.coalgebra, s.carrier.algebra, swap=True),
        "YD-COMPAT": _tally(lambda t: _yd_compat(t, s)),
        "YD-COLINEAR": _tally(lambda t: _yd_colinear(t, s)),
        "P-DELTA": _delta_identity(s)[0],
        "P-DELTA failed": _delta_identity(s)[1],
        "YD-BRAIDMULT": _tally(lambda t: _braided_mult(t, s)),
        "P-ANTI": next(coalgebra_map_law(_sharp_columns(s), s.carrier.coalgebra, s.carrier.coalgebra, swap=True)),
        "HOPF-DELTA-MULT": check_hopf(_carrier_hopf(s)).entry("HOPF-DELTA-MULT"),
        "P-COALG": _alpha_comult(s)[0],
        "braiding": braiding_sigma(s).entries,
        "leftharpoon": leftharpoon(s).act,
    }


def reference_tallies(s) -> dict:
    pdelta, delta_failed = ref_pdelta(s)
    return {
        "ALG-ASSOC": ref_alg_assoc(s.carrier.algebra),
        "P-DOT": ref_module_algebra(s, s.action, swap=False),
        "P-ASSOC": ref_module_identity(s),
        "L-MB": ref_module_algebra(s, s.beta, swap=True),
        "YD-COMPAT": ref_yd_compat(s),
        "YD-COLINEAR": ref_yd_colinear(s),
        "P-DELTA": pdelta,
        "P-DELTA failed": delta_failed,
        "YD-BRAIDMULT": ref_braidmult(s),
        "P-ANTI": ref_p_anti(s),
        "HOPF-DELTA-MULT": ref_hopf_delta_mult(s.carrier.algebra, s.carrier.coalgebra),
        "P-COALG": ref_p_coalg_delta(s),
        "braiding": ref_braiding_sigma(s),
        "leftharpoon": ref_leftharpoon(s),
    }


# the entries of compiled_tallies that are results, not tallies
TENSORS = ("P-DELTA failed", "braiding", "leftharpoon")


# the IDs that call a shared law, reported by the suites (RB-BIMON's parts
# 1-3 as ``rota._action_parts`` gives them)
LAW_IDS = ("L-DB", "P-MP5", "HB-MP5", "MP-MODC", "MP-1", "MP-5")


def law_tallies(s) -> dict:
    """Each ID of LAW_IDS as its suite reports it on s or on its brace or
    matched-pair image, unless the suite skipped it."""
    rep = check_yd_post_hopf(s)
    rep.extend(check_yd_brace(functor_f(s)))
    rep.extend(check_matched_pair(to_matched_pair(s)))
    got = {e.axiom: e for e in rep.entries if e.axiom in LAW_IDS and e.status != SKIPPED}
    got["RB-BIMON"] = _action_parts(functor_l(s))
    return got


def law_references(s) -> dict:
    mp = to_matched_pair(s)
    induced = functor_g(functor_f(s))  # the structure HB-MP5 is checked on
    return {
        "L-DB": ref_l_db(s),
        "P-MP5": ref_mp5(s.action, leftharpoon(s), s.carrier.coalgebra),
        "HB-MP5": ref_mp5(induced.action, leftharpoon(induced), induced.carrier.coalgebra),
        "MP-MODC": ref_mp_modc(mp),
        "MP-1": ref_mp1(mp),
        "MP-5": ref_mp5(mp.left_action, mp.right_action, mp.hopf.coalgebra),
        "RB-BIMON": ref_bimonoid_parts_1_3(functor_l(s)),
    }


def _verdict(t) -> tuple:
    if not hasattr(t, "witness"):
        return t  # a failed set or a tensor, compared as it is
    return (t.checked, t.failures, t.witness)


# the brace, matched-pair and Rota-Baxter IDs on compiled tables
DERIVED_REFERENCES = {"HB-COMPAT": ref_hb_compat, "MP-3": ref_mp3, "MP-4": ref_mp4, "MP-BC": ref_mp_bc,
                      "RB-1": ref_rb1, "RB-2": ref_rb2}


def derived_tallies(obj) -> dict:
    """The IDs of DERIVED_REFERENCES that the suite of obj's kind reports."""
    if isinstance(obj, YDBrace):
        return {"HB-COMPAT": _tally(lambda t: _brace_compat(t, obj))}
    if isinstance(obj, MatchedPair):
        return dict(zip(("MP-3", "MP-4", "MP-BC"), map(_tally, _matched_pair_laws(obj))))
    assert isinstance(obj, RelRB)
    return {"RB-1": _tally(lambda t: _rb1(t, obj)), "RB-2": _tally(lambda t: _rb2(t, obj))}


def derived_verdicts(obj) -> dict:
    """Each of obj's IDs in DERIVED_REFERENCES, compiled and by reference."""
    return {axiom: (_verdict(t), _verdict(DERIVED_REFERENCES[axiom](obj)))
            for axiom, t in derived_tallies(obj).items()}


def comodule_verdicts(r, parts=_comodule_parts) -> list:
    """The verdict of each of RB-BIMON's parts 4-8 on r."""
    return [_verdict(t) for t in parts(r)]


def derived_images(s) -> list:
    return [functor_f(s), to_matched_pair(s), functor_l(s)]


# --- perturbed structures ------------------------------------------------------

BUILDS = {
    "sweedler": lambda fs: build_sweedler(F(1, 2) if fs.p is None else 3, fs),
    "en2": lambda fs: build_en(2, [[2, F(1, 3)], [F(1, 3), -1]], fs),
}
# the lines whose coefficients a perturbation may change or delete
PERTURBED = ("mul", "comul", "action", "beta", "antipode")


@functools.cache
def _base_lines(name: str, p: int | None) -> tuple[str, ...]:
    return tuple(emit(BUILDS[name](RATIONALS if p is None else FieldSpec(p))).splitlines())


def _coefficient(p: int | None):
    """A nonzero coefficient as text, or None to delete the line."""
    if p is None:
        value = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 6))
        value = value.map(format_scalar)
    else:
        value = st.integers(1, p - 1).map(str)
    return st.one_of(st.none(), value)


def _perturbed(name: str, p: int | None, data, strip_beta: bool = False):
    """The base structure with up to three coefficients changed or deleted,
    and without its beta lines if strip_beta."""
    lines = list(_base_lines(name, p))
    candidates = [i for i, line in enumerate(lines) if line.split()[0] in PERTURBED]
    picks = data.draw(st.lists(st.sampled_from(candidates), max_size=3, unique=True))
    for i in picks:
        value = data.draw(_coefficient(p))
        lines[i] = None if value is None else lines[i].rsplit(" ", 1)[0] + " " + value
    if strip_beta:
        lines = [line for line in lines if line is None or line.split()[0] != "beta"]
    return parse("\n".join(line for line in lines if line is not None) + "\n")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUILDS)), st.sampled_from([None, 7, 10007]), st.data())
def test_compiled_identities_match_vector_reference(name, p, data):
    s = _perturbed(name, p, data)
    got, want = compiled_tallies(s), reference_tallies(s)
    for axiom in want:
        assert _verdict(got[axiom]) == _verdict(want[axiom]), axiom


@pytest.mark.parametrize("p", [None, 7, 10007], ids=["q", "f7", "f10007"])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.sampled_from(sorted(BUILDS)), st.booleans(), st.data())
def test_shared_laws_match_vector_reference(p, name, strip_beta, data):
    # without beta lines, beta is solved from the perturbed action, so that
    # P-CONV passes and L-DB, P-MP5 and the compiled identities are evaluated
    # on a beta that fits it
    s = _perturbed(name, p, data, strip_beta)
    if s.beta is None:
        try:
            solve_beta(s)
        except StructureError:
            assume(False)
    got, want = law_tallies(s), law_references(s)
    for axiom in got:
        assert _verdict(got[axiom]) == _verdict(want[axiom]), axiom
    got, want = compiled_tallies(s), reference_tallies(s)
    for axiom in want:
        assert _verdict(got[axiom]) == _verdict(want[axiom]), axiom
    for obj in derived_images(s):
        for axiom, (got, want) in derived_verdicts(obj).items():
            assert got == want, axiom
    assert comodule_verdicts(functor_l(s)) == comodule_verdicts(functor_l(s), ref_bimonoid_parts_4_8)


@pytest.mark.parametrize("p", [None, 7, 10007], ids=["q", "f7", "f10007"])
@pytest.mark.parametrize("build", ["sweedler", "suzuki"])
def test_derived_identities_match_vector_reference(p, build):
    fs = RATIONALS if p is None else FieldSpec(p)
    s = build_sweedler(F(1, 2) if p is None else 3, fs) if build == "sweedler" else build_suzuki(1, -1, fs)
    for obj in derived_images(s):
        for axiom, (got, want) in derived_verdicts(obj).items():
            assert got == want, axiom
            assert got[1] == 0, axiom


def _golden_kind_mutants() -> dict:
    """The brace, matched-pair and rb_l mutants of the golden tests, by name."""
    out = {f"mutant-{name}": _mutant_text(name) for name in ("ydbrace-q", "matchedpair-q", "relrb-q")}
    for name, (base, change) in KIND_MUTANTS.items():
        if any(kind in name for kind in ("-brace-", "-matchedpair-", "-rb_l-")):
            text = (GOLDEN / f"{base}.struct").read_text()
            out[name] = _mutate_named(text.splitlines(), change) if " " in change else _mutate(text, change)
    return out


@pytest.mark.parametrize("name", sorted(_golden_kind_mutants()))
def test_derived_identities_match_vector_reference_on_golden_mutants(name):
    obj = parse(_golden_kind_mutants()[name])
    rep = run_suite(obj)
    for axiom, (got, want) in derived_verdicts(obj).items():
        assert got == want == _verdict(rep.entry(axiom)), axiom


def _line_mutants(text: str) -> dict:
    """text with the coefficient of one line changed, for every line that
    holds a coefficient, by that line's name; and with one counit and one
    product coefficient of K changed, so that part 8's counit row can fail
    before its coproduct row."""
    lines = text.splitlines()
    names = [x.rsplit(" ", 1)[0] for x in lines if x.split()[0] not in ("kind", "field", "param")
             and not x.split()[0].endswith((".dim", ".basis"))]
    out = {name: _mutate_named(lines, name) for name in names}
    for counit in (x for x in names if x.startswith("k.counit ")):
        for mul in (x for x in names if x.startswith("k.mul ")):
            out[f"{counit}, {mul}"] = _mutate_named(_mutate_named(lines, counit).splitlines(), mul)
    return out


def _unit_map_rb() -> str:
    """R: K -> H the unit map from the trivial K into Sweedler's H, with the
    coaction rho(1) = g (x) 1: an operator with dim H != dim K."""
    h_lines = [x for x in (GOLDEN / "sweedler-q-rb_l.struct").read_text().splitlines() if x.startswith("h.")]
    return "\n".join(["kind relrb", "field Q", "k.dim 1", "k.basis 1", "k.unit 0 1", "k.counit 0 1",
                      "k.mul 0 0 0 1", "k.comul 0 0 0 1", "k.antipode 0 0 1", *h_lines,
                      "action 0 0 0 1", "action 1 0 0 1", "coaction 0 1 0 1", "rmap 0 0 1"]) + "\n"


@pytest.mark.parametrize("base", ["sweedler-q-rb_l", "sweedler-f7-rb_l", "unit-map"])
def test_comodule_parts_match_reference_on_line_mutants(base):
    # every coefficient of the base operator changed in turn: each of
    # RB-BIMON's parts 4-8 gives its reference's verdict, and between them
    # the mutants of the rb_l goldens make a witness of every row of every
    # part
    text = _unit_map_rb() if base == "unit-map" else (GOLDEN / f"{base}.struct").read_text()
    rows = set()
    for name, mutant in _line_mutants(text).items():
        r = parse(mutant)
        got = comodule_verdicts(r)
        assert got == comodule_verdicts(r, ref_bimonoid_parts_4_8), name
        rows |= {(w.where[0], len(w.where), w.where[-1] if w.where[0] in (4, 6, 8) else None)
                 for _, _, w in got if w is not None}
    if base != "unit-map":
        assert {part for part, _, _ in rows} == {4, 5, 6, 7, 8}
        assert {(4, 3, 0), (4, 3, 1), (6, 3, 0), (6, 3, 1), (8, 4, 0), (8, 4, 1)} <= rows


def _group_likes_rb() -> str:
    """R: K -> H the inclusion of the group algebra K = k[C2] into Sweedler's
    H, H acting through its counit and rho(a) = 1 (x) a: an operator with
    dim H = 4 and dim K = 2, so an H (x) K side keys its rows apart from a
    K (x) K one."""
    h_lines = [x for x in (GOLDEN / "sweedler-q-rb_l.struct").read_text().splitlines() if x.startswith("h.")]
    k_lines = ["k.dim 2", "k.basis 1 g", "k.unit 0 1", "k.counit 0 1", "k.counit 1 1", "k.mul 0 0 0 1",
               "k.mul 0 1 1 1", "k.mul 1 0 1 1", "k.mul 1 1 0 1", "k.comul 0 0 0 1", "k.comul 1 1 1 1",
               "k.antipode 0 0 1", "k.antipode 1 1 1"]
    return "\n".join(["kind relrb", "field Q", *k_lines, *h_lines, "action 0 0 0 1", "action 0 1 1 1",
                      "action 1 0 0 1", "action 1 1 1 1", "coaction 0 0 0 1", "coaction 1 0 1 1", "rmap 0 0 1",
                      "rmap 1 1 1"]) + "\n"


def test_comodule_parts_match_reference_when_dim_h_differs_from_dim_k():
    # every coefficient changed in turn, on an operator whose parts 5 and 7
    # have sides in H (x) K with dim K > 1, and whose passing parts all pass
    text = _group_likes_rb()
    assert all(_verdict(t)[1] == 0 for t in _comodule_parts(parse(text)))
    failing = set()
    for name, mutant in _line_mutants(text).items():
        r = parse(mutant)
        got = comodule_verdicts(r)
        assert got == comodule_verdicts(r, ref_bimonoid_parts_4_8), name
        failing |= {w.where[:1] + w.where[2:3] for _, _, w in got if w is not None}
    # parts 5 and 7 fail with a witness beyond the first K-row
    assert {(5, 1), (7, 1)} <= failing


@pytest.mark.parametrize("name", sorted(["sweedler-q-rb_l", "sweedler-f7-rb_l", "mutant-relrb-q",
                                         *(x for x in _golden_kind_mutants() if "-rb_l-" in x)]))
def test_rb_bimonoid_matches_reference_on_rb_l_goldens(name):
    # RB-BIMON as the suite reports it is parts 1-3 and 4-8 of the
    # references, absorbed in order
    text = _golden_kind_mutants().get(name) or (GOLDEN / f"{name}.struct").read_text()
    r = parse(text)
    assert comodule_verdicts(r) == comodule_verdicts(r, ref_bimonoid_parts_4_8)
    want = ref_bimonoid_parts_1_3(r)
    for t in ref_bimonoid_parts_4_8(r):
        want.absorb(t)
    assert _verdict(run_suite(r).entry("RB-BIMON")) == _verdict(want)


def _en3(p: int | None):
    """The dim-16 E(3) golden structure over Q, or the same E(3) over F_p."""
    if p is None:
        return parse((GOLDEN / "en3-q.struct").read_text())
    return build_en(3, [[1, F(1, 2), 0], [F(1, 2), 1, 0], [0, 0, 2]], FieldSpec(p))


@pytest.mark.parametrize("p", [None, 10007], ids=["q", "f10007"])
@pytest.mark.parametrize("mutated", [False, True], ids=["pass", "mul440"])
def test_comodule_laws_match_reference_at_dim_16(p, mutated):
    # YD-COMPAT and YD-COLINEAR, summed once per second-leg group, and
    # RB-BIMON's parts 4-8 on the operator of functor L, against their
    # references on E(3), as built and with e_4 . e_4 changed
    s = _en3(p)
    if mutated:
        lines = emit(s).splitlines()
        i = lines.index(next(x for x in lines if x.startswith("mul 4 4 0 ")))
        lines[i] = "mul 4 4 0 3"
        s = parse("\n".join(lines) + "\n")
    compat, colinear = _tally(lambda t: _yd_compat(t, s)), _tally(lambda t: _yd_colinear(t, s))
    assert _verdict(compat) == _verdict(ref_yd_compat(s))
    assert _verdict(colinear) == _verdict(ref_yd_colinear(s))
    r = functor_l(s)
    got = comodule_verdicts(r)
    assert got == comodule_verdicts(r, ref_bimonoid_parts_4_8)
    failures = compat.failures + colinear.failures + sum(f for _, f, _ in got)
    assert (failures > 0) == mutated


def test_mp4_witness_is_the_first_failure_in_its_loop_order():
    # MP-4 runs b, c, a: on the raction mutant its witness is (2, 1, 3),
    # which the golden pins, though (1, 2, 3) fails too and is less
    mp = parse(_golden_kind_mutants()["sweedler-q-matchedpair-raction"])
    failed = set()
    ref_mp4(mp, failed)
    assert check_matched_pair(mp).entry("MP-4").witness.where == (2, 1, 3)
    assert (1, 2, 3) in failed and min(failed) == (1, 2, 3)
    golden = (GOLDEN / "suite-sweedler-q-matchedpair-raction.report").read_text()
    assert "MP-4 fail at=(2,1,3) " in golden


@pytest.mark.parametrize("p", [None, 7, 10007], ids=["q", "f7", "f10007"])
def test_perturbations_reach_failures_in_every_law(p):
    # x >- 1 for x = e_1 changed, beta solved again: every ID of LAW_IDS and
    # RB-BIMON fail, and MP-MODC's first failure in its loop (part 5) is not
    # its least failing tuple
    lines = [x for x in _base_lines("en2", p) if x.split()[0] != "beta"]
    i = lines.index(next(x for x in lines if x.startswith("action 1 0 0 ")))
    lines[i] = "action 1 0 0 3"
    s = parse("\n".join(lines) + "\n")
    solve_beta(s)
    got, want = law_tallies(s), law_references(s)
    assert set(got) == {*LAW_IDS, "RB-BIMON"}
    for axiom in got:
        assert got[axiom].failures > 0, axiom
        assert _verdict(got[axiom]) == _verdict(want[axiom]), axiom
    # the left action fails part 0 at (1, 0), before the witness in the
    # lexicographic order but after it in the loop's
    assert got["MP-MODC"].witness.where == (5, 0, 0, 1)
    mp = to_matched_pair(s)
    delta = module_coalgebra_law(mp.left_action, mp.hopf.coalgebra, mp.hopf.coalgebra)[0]
    assert delta.witness.where == (1, 0)


def test_perturbations_reach_failures_in_every_identity():
    # one coefficient of the product or of the coproduct, changed, fails
    # every compiled identity in one of the two, so the property test above
    # compares witnesses and not just passes
    for p in (None, 7):
        failing = set()
        for line in ("mul 4 4 0", "comul 4 4 0"):
            lines = list(_base_lines("en2", p))
            i = lines.index(next(x for x in lines if x.startswith(line + " ")))
            lines[i] = line + " 3"
            s = parse("\n".join(lines) + "\n")
            got, want = compiled_tallies(s), reference_tallies(s)
            for axiom in want:
                assert _verdict(got[axiom]) == _verdict(want[axiom]), axiom
                if axiom not in TENSORS and got[axiom].failures:
                    failing.add(axiom)
            if line == "mul 4 4 0":
                # the six identities that moved to compiled tables first
                assert {"ALG-ASSOC", "P-DOT", "P-ASSOC", "L-MB", "YD-COMPAT", "YD-COLINEAR"} <= failing
        assert failing == set(want) - set(TENSORS), p


@pytest.mark.parametrize("p", [None, 7], ids=["q", "f7"])
def test_braidmult_second_row_matches_reference(monkeypatch, p):
    # YD-BRAIDMULT's second row fails only where its first row passes and
    # P-DELTA fails, which no perturbation tried (some 39,000 of two or three
    # coefficients of Sweedler and E(2)) reaches first.  So P-DELTA's
    # right-hand side is halved here, in the compiled code and in the
    # reference alike: P-DELTA fails wherever Delta(x.y) is not zero, the
    # first row still passes, and the second row's verdicts and its witness,
    # rendered from the halved side, must be the reference's
    from ydalgebra import posthopf

    s = parse("\n".join(_base_lines("en2", p)) + "\n")
    half = F(1, 2) if p is None else ModInt(2, p).inverse()
    compiled_rhs, reference_rhs = posthopf._pdelta_rhs, ref_pdelta_rhs

    def halved(s):
        # over F_p a compiled side has scale 1, so its weight is halved
        side, scale = compiled_rhs(s)
        if p is None:
            return side, 2 * scale
        return (lambda acc, where, w: side(acc, where, w * half.value)), scale

    def halved_reference(s, i, j, memo):
        return {k: v * half for k, v in reference_rhs(s, i, j, memo).items()}

    monkeypatch.setattr(posthopf, "_pdelta_rhs", halved)
    monkeypatch.setitem(globals(), "ref_pdelta_rhs", halved_reference)
    got = _tally(lambda t: _braided_mult(t, s))
    assert got.witness.where == (0, 0, 1)
    assert got.failures == len(_delta_identity(s)[1]) > 0
    assert _verdict(got) == _verdict(ref_braidmult(s))


# --- the row compare: one contract call per row, the verdicts of every tuple ----


def ref_module_law(act, alg) -> Tally:
    """The per-tuple loop of ``hopf.module_law``: (g.h) >- a against
    g >- (h >- a), at (g, h, a) in lexicographic order."""
    t = Tally()
    for g in range(act.acting_dim):
        for h in range(act.acting_dim):
            for a in range(act.target_dim):
                t.compare((g, h, a), apply_vec_basis(act, alg.mul[g][h], a), apply_basis(act, g, act.act[h][a]),
                          vector_text)
    return t


def _c2_action(fs, scaled: tuple):
    """k[C_2] = span(1, g) acting on a 3-dimensional space: 1 acts as the
    identity and g as the identity except g >- f_a = 2 f_a for a in scaled.
    So (g.g) >- f_a = f_a and g >- (g >- f_a) = 4 f_a differ exactly at
    (1, 1, a) for a in scaled, all in the last row (1, 1)."""
    one, two = fs.one, fs.one + fs.one
    alg = AlgebraData(2, ["1", "g"], [[unit_vector(2, 0, fs), unit_vector(2, 1, fs)],
                                      [unit_vector(2, 1, fs), unit_vector(2, 0, fs)]], unit_vector(2, 0, fs), fs)
    act = [[unit_vector(3, a, fs) for a in range(3)],
           [Vector(3, {a: two if a in scaled else one}, fs) for a in range(3)]]
    return ActionTensor(2, 3, act, fs), alg


@pytest.mark.parametrize("p", [None, 7], ids=["q", "f7"])
@pytest.mark.parametrize("scaled", [(2,), (0, 2)], ids=["last-k-of-last-row", "two-k-in-one-row"])
def test_row_compare_matches_reference_within_a_row(p, scaled):
    # the failures of one row are told apart by k, counted one by one, and
    # the witness is the least of them, rendered from its k alone
    act, alg = _c2_action(RATIONALS if p is None else FieldSpec(p), scaled)
    got, want = module_law(act, alg), ref_module_law(act, alg)
    assert _verdict(got) == _verdict(want)
    assert got.checked == 12 and got.failures == len(scaled)
    assert got.witness.where == (1, 1, scaled[0])
    assert got.witness.lhs == f"{scaled[0]}:1" and got.witness.rhs == f"{scaled[0]}:4"


def _mutated_en2(p, line: str, value: str):
    lines = list(_base_lines("en2", p))
    i = lines.index(next(x for x in lines if x.startswith(line + " ")))
    lines[i] = f"{line} {value}"
    return parse("\n".join(lines) + "\n")


@pytest.mark.parametrize("p", [None, 7], ids=["q", "f7"])
def test_row_compare_keeps_witnesses_of_rows_visited_out_of_order(p, monkeypatch):
    # YD-COMPAT runs on rows (a,) over b; with e_0 . e_2 changed its first
    # failure with b outermost, (3, 0), is not its least, (0, 2), which is
    # the witness, as in the reference.  Several b fail in one row.
    from ydalgebra import posthopf

    s = _mutated_en2(p, "mul 0 2 2", "3")
    failed = []
    real = posthopf.compare

    def kept(*args):
        failed.extend(real(*args))
        return failed

    monkeypatch.setattr(posthopf, "compare", kept)
    got = _tally(lambda t: _yd_compat(t, s))
    assert _verdict(got) == _verdict(ref_yd_compat(s))
    assert min(failed, key=lambda w: (w[1], w[0])) == (3, 0) and got.witness.where == (0, 2)
    assert max(sum(1 for w in failed if w[0] == a) for a in range(s.dim)) > 1
    # MP-4 runs on rows (b, c) over a and keeps the first failure in the
    # order (b, c, a), which is not the least (a, b, c)
    mp = parse(_golden_kind_mutants()[f"sweedler-{'q' if p is None else 'f7'}-matchedpair-raction"])
    want_failed = set()
    want = ref_mp4(mp, want_failed)
    got = _tally(_matched_pair_laws(mp)[1])
    assert _verdict(got) == _verdict(want)
    assert got.witness.where == (2, 1, 3) and min(want_failed) == (1, 2, 3)


def test_cube_contracts_run_once_per_row(monkeypatch):
    # ALG-ASSOC, the module law and the module-algebra law call their
    # contract once per row, d**2 times and not d**3, with the rows in
    # order; a failing identity calls it twice more, to render its witness
    from ydalgebra import hopf

    rows = []
    real = hopf.compare

    def counted(t, prefixes, n, width, contract, *rest):
        def wrapped(acc, prefix, wl, wr):
            rows.append(prefix)
            contract(acc, prefix, wl, wr)
        return real(t, prefixes, n, width, wrapped, *rest)

    s = parse("\n".join(_base_lines("en2", None)) + "\n")
    d = s.dim
    monkeypatch.setattr(hopf, "compare", counted)
    check_algebra(s.carrier.algebra)
    # then ALG-UNIT, once per row (i,)
    assert rows == [*square(d), *line(d)]
    rows.clear()
    module_algebra_law(s.action, s.carrier.coalgebra, s.carrier.algebra)
    assert rows == list(square(d))
    rows.clear()
    act, alg = _c2_action(RATIONALS, (0, 2))
    assert module_law(act, alg).failures == 2
    assert rows == [*square(2), (1, 1), (1, 1)]


# --- the action laws on operand lists built once per call --------------------------
#
# ``hopf.module_law`` and ``hopf.module_algebra_law`` read flat operand lists
# and a per-call product table; the contracts they ran before are kept in
# ``oracles`` under the same names, and each law must give the very tally
# of its loop: checked, failures and the witness's where, lhs and rhs.

def action_law_calls(s) -> dict:
    """ALG-ASSOC, P-DOT, P-ASSOC and L-MB on s, each as the name of its law
    and the arguments its suite calls it with; L-MB is left out when s has
    no beta."""
    alg, coalg = s.carrier.algebra, s.carrier.coalgebra
    out = {"ALG-ASSOC": ("module_law", (ActionTensor(s.dim, s.dim, alg.mul, s.field), alg)),
           "P-DOT": ("module_algebra_law", (s.action, coalg, alg)),
           "P-ASSOC": ("module_law", (s.action, bullet_algebra(s)))}
    try:
        out["L-MB"] = ("module_algebra_law", (ensure_beta(s), coalg, alg, True))
    except StructureError:
        pass
    return out


ACTION_LAWS = ("ALG-ASSOC", "P-DOT", "P-ASSOC", "L-MB")


def assert_laws_match_oracles(calls: dict) -> set:
    """Hold each law to its oracle loop on the same arguments; the IDs
    that fail."""
    failing = set()
    for axiom, (name, args) in calls.items():
        got, want = getattr(ydalgebra.hopf, name)(*args), getattr(oracles, name)(*args)
        assert _verdict(got) == _verdict(want), axiom
        if got.failures:
            failing.add(axiom)
    return failing


OFF_DIAGONAL = [[1, F(1, 2), 0], [F(1, 2), 1, F(1, 2)], [0, F(1, 2), 1]]
ACTION_BUILDS = {
    "en2": lambda fs: build_en(2, [[2, F(1, 3)], [F(1, 3), -1]], fs),
    "en3": lambda fs: build_en(3, OFF_DIAGONAL, fs),
    **{f"suzuki{a:+d}{b:+d}": functools.partial(build_suzuki, a, b) for a in (1, -1) for b in (1, -1)},
}


@pytest.mark.parametrize("p", [None, 7, 10007], ids=["q", "f7", "f10007"])
@pytest.mark.parametrize("build", sorted(ACTION_BUILDS))
def test_action_laws_match_oracle_loops(p, build):
    s = ACTION_BUILDS[build](RATIONALS if p is None else FieldSpec(p))
    calls = action_law_calls(s)
    assert set(calls) == set(ACTION_LAWS)
    assert assert_laws_match_oracles(calls) == set()
    # the legs of L-MB in the order of P-DOT, and those of P-DOT swapped
    alg, coalg = s.carrier.algebra, s.carrier.coalgebra
    assert_laws_match_oracles({"beta": ("module_algebra_law", (s.beta, coalg, alg)),
                               "alpha swapped": ("module_algebra_law", (s.action, coalg, alg, True))})


def _statuses(name: str) -> dict:
    """Each axiom ID of a suite mutant's golden report, with its status."""
    lines = (GOLDEN / f"suite-{name}.report").read_text().splitlines()
    return {parts[0]: parts[1] for parts in map(str.split, lines)}


def _action_law_mutants() -> list:
    """The golden YD post-Hopf mutants whose reports fail an ID of
    ACTION_LAWS."""
    return sorted(name for name in SUITE_MUTANTS
                  if any(_statuses(name).get(axiom) == "fail" for axiom in ACTION_LAWS))


@pytest.mark.parametrize("name", _action_law_mutants())
def test_action_laws_match_oracle_loops_on_golden_mutants(name):
    # the suite skips L-MB when beta fails P-CONV; the law still runs here
    s = yd_mutant(*SUITE_MUTANTS[name])
    failing = assert_laws_match_oracles(action_law_calls(s))
    status = _statuses(name)
    assert {axiom for axiom in failing if status[axiom] != "skipped"} == \
        {axiom for axiom in ACTION_LAWS if status[axiom] == "fail"}


def test_golden_mutants_fail_every_action_law_in_each_field():
    for field in ("q", "f7"):
        failing = {axiom for name in _action_law_mutants() if f"-{field}-" in name
                   for axiom, status in _statuses(name).items() if status == "fail"}
        assert set(ACTION_LAWS) <= failing, field


def _diagonal_algebra(d: int, fs) -> AlgebraData:
    """k^d: e_i e_j = delta_ij e_i, with unit e_0 + ... + e_{d-1}."""
    zero = Vector(d, {}, fs)
    mul = [[unit_vector(d, i, fs) if i == j else zero for j in range(d)] for i in range(d)]
    return AlgebraData(d, [f"f{i}" for i in range(d)], mul, Vector(d, {i: fs.one for i in range(d)}, fs), fs)


@pytest.mark.parametrize("p", [None, 7, 10007], ids=["q", "f7", "f10007"])
@pytest.mark.parametrize("scaled", [(2,), (0, 2)], ids=["last-k-of-last-row", "two-k-in-one-row"])
def test_action_laws_match_oracle_loops_when_acting_dim_differs(p, scaled):
    # k[C_2] acting on a 3-dimensional space: as a module over itself, and on
    # k^3, where g >- (f_a f_a) = 2 f_a and (g >- f_a)(g >- f_a) = 4 f_a differ
    # at the scaled a, with either leg order
    fs = RATIONALS if p is None else FieldSpec(p)
    act, alg = _c2_action(fs, scaled)
    coalg, target = group_algebra(cyclic_group(2), fs).coalgebra, _diagonal_algebra(3, fs)
    calls = {"module": ("module_law", (act, alg)),
             **{f"module algebra swap={swap}": ("module_algebra_law", (act, coalg, target, swap))
                for swap in (False, True)}}
    assert assert_laws_match_oracles(calls) == set(calls)
    t = module_algebra_law(act, coalg, target)
    assert (t.checked, t.failures, t.witness.where) == (18, len(scaled), (1, scaled[0], scaled[0]))


@pytest.mark.slow
def test_action_laws_match_oracle_loops_at_dim_32():
    # dim-32 E(4) over Q, A tridiagonal: 1 on the diagonal, 1/2 beside it
    a = [[1 if i == j else F(1, 2) if abs(i - j) == 1 else 0 for j in range(4)] for i in range(4)]
    s = build_en(4, a)
    assert assert_laws_match_oracles(action_law_calls(s)) == set()


# --- the modulus is checked when a table is compiled ----------------------------


def test_compiling_a_modint_of_another_modulus_raises():
    f7 = FieldSpec(7)
    bad = Vector(2, {0: ModInt(1, 7), 1: ModInt(2, 11)}, f7)
    good = Vector(2, {0: ModInt(3, 7)}, f7)
    with pytest.raises(FieldError):
        compile_vectors([good, bad], f7)
    with pytest.raises(FieldError):
        compile_tensor([[good, good], [good, bad]], f7)
    with pytest.raises(FieldError):
        compile_legs([[((0,), ModInt(1, 7))], [((1,), ModInt(1, 11))]], f7)
    with pytest.raises(FieldError):
        compile_comul([[(0, 0, ModInt(1, 7))], [(0, 1, ModInt(1, 11))]], f7)
    alg = AlgebraData(2, ["1", "x"], [[good, good], [good, bad]], good, f7)
    with pytest.raises(FieldError):
        check_algebra(alg)


def test_compiled_tables_scale_to_a_common_denominator():
    vs = [Vector(3, {0: F(1, 2), 2: 3}, RATIONALS), Vector(3, {1: F(-2, 3)}, RATIONALS)]
    table = compile_vectors(vs, RATIONALS)
    assert table.scale == 6
    assert table.rows == [((0, 3), (2, 18)), ((1, -4),)]
    f7 = FieldSpec(7)
    table = compile_vectors([Vector(3, {2: ModInt(5, 7), 0: ModInt(1, 7)}, f7)], f7)
    assert table == ([((0, 1), (2, 5))], 1)


# --- the kernels' fast paths give the lists of the dict loops ------------------


def _kernel_entry(p):
    """Nonzero ints of up to seven digits and either sign, and multiples of
    p (of 7 over Q), so that a product can vanish mod p."""
    m = 7 if p is None else p
    return st.one_of(st.integers(-9999999, 9999999).filter(bool),
                     st.integers(-30, 30).filter(bool).map(lambda n: n * m))


@pytest.mark.parametrize("p", [None, 7, 10007], ids=["q", "f7", "f10007"])
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_fast_paths_return_the_dict_loops_lists(p, data):
    # a table of 3 x 3 cells, some empty, and operands of at most two terms:
    # empty, one term (the fast paths) or two (the dict loop)
    entry = _kernel_entry(p)
    vector = st.lists(st.tuples(st.integers(0, 5), entry), max_size=3, unique_by=lambda t: t[0])
    table = data.draw(st.lists(st.lists(vector, min_size=3, max_size=3), min_size=3, max_size=3))
    operand = st.lists(st.tuples(st.integers(0, 2), entry), max_size=2, unique_by=lambda t: t[0])
    u, v = data.draw(operand), data.draw(operand)
    got = int_bilinear(table, u, v, p)
    assert type(got) is list and got == dict_int_bilinear(table, u, v, p)
    got = int_linear(table[0], u, p)
    assert type(got) is list and got == dict_int_linear(table[0], u, p)
    acc = data.draw(st.dictionaries(st.integers(0, 20), st.one_of(st.just(0), entry)))
    assert int_items(acc, p) == dict_int_items(acc, p)


@pytest.mark.parametrize("p", [None, 7, 10007], ids=["q", "f7", "f10007"])
def test_kernel_fast_paths_on_each_named_case(p):
    m = 7 if p is None else p
    table = [[[(0, 3), (4, -12345678)], []],
             [[(2, m), (5, 1)], [(1, -1), (3, 2 * m + 1)]]]
    cases = {
        "empty left": ([], [(0, 1)]),
        "empty right": ([(1, 2)], []),
        "both empty": ([], []),
        "one x one, 0 mod p": ([(1, m)], [(0, 5 * m)]),
        "negative, multi-digit": ([(0, -98765)], [(0, 4321)]),
        "empty cell": ([(0, 2)], [(1, 3)]),
        "two x two": ([(0, 2), (1, -3)], [(0, 1), (1, m)]),
    }
    for name, (u, v) in cases.items():
        assert int_bilinear(table, u, v, p) == dict_int_bilinear(table, u, v, p), name
        assert int_linear(table[1], u, p) == dict_int_linear(table[1], u, p), name
        assert int_linear(table[1], v, p) == dict_int_linear(table[1], v, p), name
    assert int_bilinear(table, [(1, m)], [(0, 5 * m)], p) == ([] if p else [(2, 5 * m ** 3), (5, 5 * m * m)])
    assert int_bilinear(table, [(0, 2)], [(1, 3)], p) == []


# --- the suites stay on the compiled tables --------------------------------------

HOT_GOLDENS = ("en3-q", "en3-f7", "sweedler-q-brace", "sweedler-f7-brace", "sweedler-q-matchedpair",
               "sweedler-f7-matchedpair", "sweedler-q-subadjacent", "sweedler-f7-subadjacent", "sweedler-q-rb_l",
               "sweedler-f7-rb_l")


@pytest.mark.parametrize("name", HOT_GOLDENS)
def test_suites_make_no_tens2_add_scaled_calls(monkeypatch, name):
    # every identity on a tensor square of the post-Hopf, brace,
    # matched-pair, Hopf and Rota-Baxter suites runs on compiled tables: the
    # per-term tensor helper and ``tens2`` are gone, and the suites pass
    from ydalgebra import braces, cli, hopf, posthopf, rota
    from ydalgebra.cli import run_suite

    modules = (hopf, posthopf, braces, cli, rota)
    assert not any(hasattr(module, helper) for module in modules for helper in ("tens2_add_scaled", "tens2"))
    rep = run_suite(parse((GOLDEN / f"{name}.struct").read_text()))
    assert rep.all_pass()


# --- the derived maps on ``hopf.convolve`` --------------------------------------


def _shear(d: int, fs) -> Matrix:
    """An invertible R that is not the identity: 1 on the diagonal, 2 above it."""
    return Matrix(d, d, {**{(i, i): fs.one for i in range(d)}, **{(i, i + 1): fs.scalar(2, 1) for i in range(d - 1)}},
                  fs)


def _outcome(build, x):
    """The typed value of build(x), or the message of the StructureError it
    raises."""
    try:
        return typed(build(x))
    except StructureError as e:
        return str(e)


def assert_operator_maps_match(r) -> None:
    """rho, S_K and functor M on r equal their references, in value and
    stored class; S_K and M also with their antipode re-check passed, so
    that their values are compared where the re-check fails too."""
    assert typed(derived_coaction(r)) == typed(ref_derived_coaction(r))
    for build, ref in ((antipode_sk, ref_antipode_sk), (functor_m, ref_functor_m)):
        assert _outcome(build, r) == _outcome(ref, r)
    with mock.patch("ydalgebra.rota.antipode_law", return_value=Tally()), \
            mock.patch(f"{__name__}.antipode_law", return_value=Tally()):
        for build, ref in ((antipode_sk, ref_antipode_sk), (functor_m, ref_functor_m)):
            assert _outcome(build, r) == _outcome(ref, r)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BUILDS)), st.sampled_from([None, 7, 10007]), st.data())
def test_derived_maps_match_vector_reference(name, p, data):
    # each map that ``hopf.convolve`` builds equals the loop it replaced, on
    # the perturbed structures, which mostly fail their axioms
    s = _perturbed(name, p, data)
    assert typed(bullet_algebra(s)) == typed(ref_bullet_algebra(s))
    assert typed(sharp_antipode(s)) == typed(ref_sharp_antipode(s))
    assert typed(left_coaction_adl(s)) == typed(ref_left_coaction_adl(s))
    c, a = s.carrier.coalgebra, s.carrier.algebra
    for f, g in ((s.carrier.s_map, sharp_antipode(s)), (sharp_antipode(s), s.carrier.s_map)):
        assert typed(convolution(f, g, c, a)) == typed(ref_convolution(f, g, c, a))
    b = functor_f(s)
    assert typed(brace_action(b)) == typed(ref_brace_action(b))
    mp = to_matched_pair(s)
    assert typed(from_matched_pair(mp)) == typed(ref_from_matched_pair(mp))
    r = functor_l(s)
    assert typed(left_coaction_adl(s)) == typed(derived_coaction(r))
    assert_operator_maps_match(r)
    assert_operator_maps_match(dataclasses.replace(r, r_map=_shear(s.dim, s.field)))


@pytest.mark.parametrize("base", ["sweedler-q-rb_l", "sweedler-f7-rb_l"])
def test_operator_maps_match_reference_on_line_mutants(base):
    # every coefficient of the rb_l golden changed in turn, R's included
    for name, mutant in _line_mutants((GOLDEN / f"{base}.struct").read_text()).items():
        assert_operator_maps_match(parse(mutant))


@pytest.mark.parametrize("p", [None, 7, 10007], ids=["q", "f7", "f10007"])
@pytest.mark.parametrize("group", ["c2", "s3"])
def test_build_adjoint_matches_reference_on_group_algebras(p, group):
    # build_adjoint composes operators, so it is held to its loops on
    # associative inputs only
    fs = RATIONALS if p is None else FieldSpec(p)
    h = group_algebra(cyclic_group(2) if group == "c2" else symmetric_group_3(), fs)
    assert typed(build_adjoint(h)) == typed(ref_build_adjoint(h))


# --- the cold IDs, the unit rows and the restrictions on compiled tables ----------
#
# The Vector loops these IDs ran before every contraction moved onto compiled
# tables, kept as the reference: on perturbed structures, and on morphisms and
# Lie and post-Lie data with random constants, each must report the same
# checked count, failure count and witness, and each derived result must be
# the same exact data.


def ref_post_hopf_lemmas(s) -> dict:
    """L-U, L-1ACT, L-SLIN, L-BETA and L-ANTI2 as their loops ran them."""
    alg, coalg, smap, act, beta = s.carrier.algebra, s.carrier.coalgebra, s.carrier.s_map, s.action, s.beta
    d, fs = s.dim, s.field
    out = {axiom: Tally() for axiom in ("L-U", "L-1ACT", "L-SLIN", "L-BETA", "L-ANTI2")}
    for i in range(d):
        out["L-U"].compare((i,), apply_basis(act, i, alg.unit), alg.unit.scale(coalg.eps(i)), vector_text)
        out["L-1ACT"].compare((i,), apply_vec_basis(act, alg.unit, i), unit_vector(d, i, fs), vector_text)
        for j in range(d):
            out["L-SLIN"].compare((i, j), matrix_apply(smap, act.act[i][j]), apply_basis(act, i, smap.column(j)),
                                  vector_text)
    sharp = sharp_antipode(s)
    for i in range(d):
        for j in range(d):
            out["L-BETA"].compare((i, j), beta.act[i][j], apply_vec_basis(act, sharp.column(i), j), vector_text)
        acc = {}
        for (x1, x2, x3, x4), c in coalg.legs(i, 4):
            add_scaled_inplace(acc, mul_vec(alg, apply_basis(beta, x2, smap.column(x3)), beta.act[x1][x4]), c)
        out["L-ANTI2"].compare((i,), Vector(d, acc, fs), alg.unit.scale(coalg.eps(i)), vector_text)
    return out


def ref_mp2(mp) -> Tally:
    alg, coalg, right = mp.hopf.algebra, mp.hopf.coalgebra, mp.right_action
    t = Tally()
    for i in range(mp.dim):
        t.compare((i,), apply_vec_basis(right, alg.unit, i), alg.unit.scale(coalg.eps(i)), vector_text)
    return t


def ref_rb_coalg(r) -> Tally:
    hco, kco, rmap = r.h.coalgebra, r.k_coalg, r.r_map
    t = Tally()
    for a in range(r.dim_k):
        rhs = {}
        for a1, a2, c in kco.comul[a]:
            tens2_add_scaled(rhs, rmap.column(a1), rmap.column(a2), c)
        t.compare((a, 0), comul_vec(hco, rmap.column(a)), rhs, pairs_text)
    for a in range(r.dim_k):
        t.compare((a, 1), eps_vec(hco, rmap.column(a)), kco.eps(a))
    t.compare((r.dim_k,), matrix_apply(rmap, r.k_alg.unit), r.h.algebra.unit, vector_text)
    return t


def ref_rb3(r) -> Tally:
    dk, fs = r.dim_k, r.field
    hco, kalg, smap = r.h.coalgebra, r.k_alg, r.h.antipode
    rinv = _r_inverse(r)
    t = Tally()
    for a in range(r.h.dim):
        acc = {}
        for (a1, a2, a3), c in hco.legs(a, 3):
            w = apply_basis(r.action, a1, matrix_apply(rinv, smap.column(a2)))
            add_scaled_inplace(acc, mul_vec(kalg, w, rinv.column(a3)), c)
        t.compare((a,), Vector(dk, acc, fs), kalg.unit.scale(hco.eps(a)), vector_text)
    return t


def ref_morphism(f, alg_src, co_src, alg_dst, co_dst) -> Tally:
    """The rows in their loop order, whose first failure is the witness."""
    t = Tally()
    d = alg_src.dim
    for i in range(d):
        for j in range(d):
            t.compare((0, i, j), matrix_apply(f, alg_src.mul[i][j]), mul_vec(alg_dst, f.column(i), f.column(j)),
                      vector_text)
    t.compare((1,), matrix_apply(f, alg_src.unit), alg_dst.unit, vector_text)
    for i in range(d):
        rhs = {}
        for j, k, c in co_src.comul[i]:
            tens2_add_scaled(rhs, f.column(j), f.column(k), c)
        t.compare((2, i), comul_vec(co_dst, f.column(i)), rhs, pairs_text)
        t.compare((3, i), eps_vec(co_dst, f.column(i)), co_src.eps(i))
    return t


def ref_intertwining(f, g, src, dst) -> Tally:
    t = Tally()
    for i in range(src.acting_dim):
        for a in range(src.target_dim):
            t.compare((i, a), matrix_apply(g, src.act[i][a]), act_apply(dst, f.column(i), g.column(a)), vector_text)
    return t


def ref_lie(lie) -> Tally:
    t = Tally()
    d, fs = lie.dim, lie.field
    for i in range(d):
        for j in range(d):
            t.compare((0, i, j), lie.bracket[i][j], lie.bracket[j][i].neg(), vector_text)
            for k in range(d):
                total = bracket_vec(lie, unit_vector(d, i, fs), lie.bracket[j][k])
                total = total.add(bracket_vec(lie, unit_vector(d, j, fs), lie.bracket[k][i]))
                total = total.add(bracket_vec(lie, unit_vector(d, k, fs), lie.bracket[i][j]))
                t.compare((1, i, j, k), total, Vector(d, {}, fs), vector_text)
    return t


def ref_post_lie(p) -> dict:
    d, fs = p.dim, p.field
    out = {axiom: Tally() for axiom in ("PL-SKEW", "PL-JAC", "PL-1", "PL-2", "PL-SUB")}
    sub = [[p.action[i][j].sub(p.action[j][i]).add(p.bracket[i][j]) for j in range(d)] for i in range(d)]

    def jacobi(table, t):
        def br(u, v):
            return bilinear(table, u, v, d, fs)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    e = [unit_vector(d, x, fs) for x in (i, j, k)]
                    total = br(e[0], br(e[1], e[2])).add(br(e[1], br(e[2], e[0]))).add(br(e[2], br(e[0], e[1])))
                    t.compare((i, j, k), total, Vector(d, {}, fs), vector_text)

    for i in range(d):
        for j in range(d):
            out["PL-SKEW"].compare((i, j), p.bracket[i][j], p.bracket[j][i].neg(), vector_text)
    jacobi(p.bracket, out["PL-JAC"])
    for i in range(d):
        for j in range(d):
            for k in range(d):
                ei, ej, ek = (unit_vector(d, x, fs) for x in (i, j, k))
                lhs = bilinear(p.action, ei, p.bracket[j][k], d, fs)
                rhs = bilinear(p.bracket, p.action[i][j], ek, d, fs).add(bilinear(p.bracket, ej, p.action[i][k], d, fs))
                out["PL-1"].compare((i, j, k), lhs, rhs, vector_text)
                lhs = bilinear(p.action, sub[i][j], ek, d, fs)
                rhs = bilinear(p.action, ei, p.action[j][k], d, fs).sub(bilinear(p.action, ej, p.action[i][k], d, fs))
                out["PL-2"].compare((i, j, k), lhs, rhs, vector_text)
    jacobi(sub, out["PL-SUB"])
    return out


def ref_lie_rb(l) -> dict:
    """LRB-LIE-G, LRB-LIE-H, LRB-ACTION, LRB-W1 and the induced post-Lie data."""
    dg, dh, fs = l.lie_g.dim, l.lie_h.dim, l.lie_h.field
    action, w1 = Tally(), Tally()
    for i in range(dg):
        for a in range(dh):
            for b in range(dh):
                lhs = apply_basis(l.phi, i, l.lie_h.bracket[a][b])
                rhs = bracket_vec(l.lie_h, l.phi.act[i][a], unit_vector(dh, b, fs)).add(
                    bracket_vec(l.lie_h, unit_vector(dh, a, fs), l.phi.act[i][b]))
                action.compare((0, i, a, b), lhs, rhs, vector_text)
    for i in range(dg):
        for j in range(dg):
            for a in range(dh):
                lhs = apply_vec_basis(l.phi, l.lie_g.bracket[i][j], a)
                rhs = apply_basis(l.phi, i, l.phi.act[j][a]).sub(apply_basis(l.phi, j, l.phi.act[i][a]))
                action.compare((1, i, j, a), lhs, rhs, vector_text)
    for a in range(dh):
        for b in range(dh):
            lhs = bracket_vec(l.lie_g, l.r.column(a), l.r.column(b))
            inner = apply_vec_basis(l.phi, l.r.column(a), b).sub(apply_vec_basis(l.phi, l.r.column(b), a))
            w1.compare((a, b), lhs, matrix_apply(l.r, inner.add(l.lie_h.bracket[a][b])), vector_text)
    induced = [[apply_vec_basis(l.phi, l.r.column(i), j) for j in range(dh)] for i in range(dh)]
    return {"LRB-LIE-G": ref_lie(l.lie_g), "LRB-LIE-H": ref_lie(l.lie_h), "LRB-ACTION": action, "LRB-W1": w1,
            "induced": induced}


def _cold_ids(rep, axioms) -> dict:
    return {e.axiom: _verdict(e) for e in rep.entries if e.axiom in axioms and e.status != SKIPPED}


@pytest.mark.parametrize("p", [None, 7, 10007], ids=["q", "f7", "f10007"])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.sampled_from(sorted(BUILDS)), st.booleans(), st.data())
def test_cold_ids_and_unit_rows_match_vector_reference(p, name, strip_beta, data):
    s = _perturbed(name, p, data, strip_beta)
    if s.beta is None:
        try:
            solve_beta(s)
        except StructureError:
            assume(False)
    want = ref_post_hopf_lemmas(s)
    got = _cold_ids(check_yd_post_hopf(s), want)
    assert got and got == {axiom: _verdict(want[axiom]) for axiom in got}
    mp = to_matched_pair(s)
    assert _verdict(check_matched_pair(mp).entry("MP-2")) == _verdict(ref_mp2(mp))
    r = functor_l(s)
    for rr in (r, dataclasses.replace(r, r_map=_shear(s.dim, s.field))):
        rep = check_rel_rb(rr, "full")
        assert _verdict(rep.entry("RB-COALG")) == _verdict(ref_rb_coalg(rr))
        assert _verdict(rep.entry("RB-3")) == _verdict(ref_rb3(rr))
    # the identity map from the unperturbed operator to the perturbed one
    base = functor_l(BUILDS[name](s.field))
    ident = _shear(s.dim, s.field).compose(_shear(s.dim, s.field)) if data.draw(st.booleans()) else \
        Matrix(s.dim, s.dim, {(i, i): s.field.one for i in range(s.dim)}, s.field)
    rep = check_rb_morphism(base, r, ident, ident)
    assert _verdict(rep.entry("RBM-F")) == _verdict(ref_morphism(ident, base.h.algebra, base.h.coalgebra,
                                                                 r.h.algebra, r.h.coalgebra))
    assert _verdict(rep.entry("RBM-G")) == _verdict(ref_morphism(ident, base.k_alg, base.k_coalg, r.k_alg, r.k_coalg))
    assert _verdict(rep.entry("RBM-ACT")) == _verdict(ref_intertwining(ident, ident, base.action, r.action))


def _random_map(data, d: int, fs) -> Matrix:
    """The identity with one to three entries set to a random scalar (0
    deletes one): as a rule not a morphism of anything."""
    entries = {(i, i): fs.one for i in range(d)}
    index, value = st.integers(0, d - 1), st.builds(fs.scalar, st.integers(-2, 2), st.integers(1, 3))
    for _ in range(data.draw(st.integers(1, 3))):
        entries[data.draw(index), data.draw(index)] = data.draw(value)
    return Matrix(d, d, entries, fs)


@pytest.mark.parametrize("p", [None, 7, 10007], ids=["q", "f7", "f10007"])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.sampled_from(sorted(BUILDS)), st.data())
def test_rbm_ids_match_vector_reference_on_maps_that_are_not_morphisms(p, name, data):
    # RBM-F, RBM-G and RBM-ACT on random f and g from the unperturbed
    # operator to a perturbed one, so that their rows fail in many places
    s = _perturbed(name, p, data)
    base, r = functor_l(BUILDS[name](s.field)), functor_l(s)
    f, g = _random_map(data, s.dim, s.field), _random_map(data, s.dim, s.field)
    rep = check_rb_morphism(base, r, f, g)
    assert _verdict(rep.entry("RBM-F")) == _verdict(ref_morphism(f, base.h.algebra, base.h.coalgebra,
                                                                 r.h.algebra, r.h.coalgebra))
    assert _verdict(rep.entry("RBM-G")) == _verdict(ref_morphism(g, base.k_alg, base.k_coalg, r.k_alg, r.k_coalg))
    assert _verdict(rep.entry("RBM-ACT")) == _verdict(ref_intertwining(f, g, base.action, r.action))


def _random_vectors(data, n: int, d: int, fs):
    value = st.integers(-2, 2).map(lambda x: fs.scalar(x))
    return [Vector(d, data.draw(st.dictionaries(st.integers(0, d - 1), value, max_size=2)), fs) for _ in range(n)]


@pytest.mark.parametrize("p", [None, 7], ids=["q", "f7"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_lie_and_post_lie_checks_match_vector_reference(p, dg, dh, data):
    fs = RATIONALS if p is None else FieldSpec(p)

    def table(d_in, d_out):
        rows = _random_vectors(data, d_in * d_in, d_out, fs)
        return [rows[i * d_in:(i + 1) * d_in] for i in range(d_in)]

    lie_g, lie_h = LieData(dg, table(dg, dg), fs), LieData(dh, table(dh, dh), fs)
    phi = ActionTensor(dg, dh, [_random_vectors(data, dh, dh, fs) for _ in range(dg)], fs)
    r = matrix_from_columns(_random_vectors(data, dh, dg, fs), fs)
    l = LieRB(lie_g, lie_h, phi, r)
    rep, want = check_lie_rb(l), ref_lie_rb(l)
    for axiom in ("LRB-LIE-G", "LRB-LIE-H", "LRB-ACTION", "LRB-W1"):
        assert _verdict(rep.entry(axiom)) == _verdict(want[axiom]), axiom
    pl = PostLieData(dh, [list(row) for row in lie_h.bracket], want["induced"], fs)
    assert rep.entry("LRB-POSTLIE").status == ("pass" if check_post_lie(pl).all_pass() else "fail")
    got, ref = check_post_lie(pl), ref_post_lie(pl)
    for axiom, t in ref.items():
        assert _verdict(got.entry(axiom)) == _verdict(t), axiom


def ref_is_pre_hopf(s) -> bool:
    sigma, alg, d = braiding_sigma(s), s.carrier.algebra, s.dim
    for a in range(d):
        for b in range(d):
            acc = {}
            for idx, c in sigma.column(a * d + b).entries.items():
                add_scaled_inplace(acc, alg.mul[idx // d][idx % d], c)
            if Vector(d, acc, s.field) != alg.mul[a][b]:
                return False
    return True


def ref_primitives(coalg, unit):
    d = coalg.dim
    entries = {}
    for i in range(d):
        for j, k, c in coalg.comul[i]:
            accumulate(entries, (j * d + k, i), c)
        for u, cu in unit.entries.items():
            accumulate(entries, (i * d + u, i), -cu)
            accumulate(entries, (u * d + i, i), -cu)
    return kernel(Matrix(d * d, d, entries, coalg.field))


@pytest.mark.parametrize("p", [None, 7, 10007], ids=["q", "f7", "f10007"])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.sampled_from(sorted(BUILDS)), st.data())
def test_pre_hopf_and_primitives_match_vector_reference(p, name, data):
    s = _perturbed(name, p, data)
    assert is_pre_hopf(s) == ref_is_pre_hopf(s)
    coalg, unit = s.carrier.coalgebra, s.carrier.algebra.unit
    assert typed(primitives(coalg, unit)) == typed(ref_primitives(coalg, unit))


# --- one contraction path ---------------------------------------------------------

# the Vector-side contraction helpers, deleted when every contraction moved
# onto compiled tables (their loops live on in ``oracles``), and the P-ANTI
# contract and per-vector span solve that the shared laws replaced
DELETED = ("add_scaled_inplace", "_q_axpy", "_fp_axpy", "_q_bilinear", "_fp_bilinear", "_q_product", "_fp_product",
           "_q_ratio", "_fp_value", "mul_vec", "comul_vec", "_pairs", "eps_vec", "apply_basis", "apply_vec_basis",
           "tens2", "_bilinear", "bracket_vec", "act_vec", "_r_acted", "compile_groups", "_sharp_anti",
           "_coords_in_span")


def _names(tree) -> list:
    """Every name an ast defines, binds, imports or reads, with its line."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, ast.Name):
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.arg):
            out.append((node.lineno, node.arg))
        elif isinstance(node, ast.alias):
            out.append((getattr(node, "lineno", 0), node.asname or node.name))
    return out


def test_no_vector_contraction_helper_is_defined_or_used():
    src = Path(ydalgebra.__file__).parent
    found = [(path.name, line, name) for path in sorted(src.glob("*.py"))
             for line, name in _names(ast.parse(path.read_text())) if name in DELETED]
    assert found == []


def test_containers_have_no_arithmetic_methods():
    # the containers keep their compiled tables and single-term reads; every
    # contraction sums those tables
    def methods(cls):
        return {name for name, v in vars(cls).items() if callable(v) and not name.startswith("__")}

    assert methods(AlgebraData) == {"int_mul"}
    assert methods(CoalgebraData) == {"eps", "legs", "int_comul", "int_legs"}
    assert methods(ActionTensor) == {"int_act"}
