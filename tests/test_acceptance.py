"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
live; without -s they appear in captured output on failure.
"""

import time
from fractions import Fraction

import pytest

from manual_structures import sweedler_action_rows, sweedler_beta_rows
from oracles import brace_equal, matched_pair_equal, posthopf_equal
from ydalgebra.braces import (
    check_matched_pair,
    from_matched_pair,
    functor_f,
    functor_g,
    to_matched_pair,
)
from ydalgebra.builders import (
    build_adjoint,
    build_en,
    build_group_rb_linearization,
    build_suzuki,
    build_sweedler,
    build_trivial,
    group_algebra,
    group_rb_inversion,
    symmetric_group_3,
)
from ydalgebra.field import RATIONALS
from ydalgebra.hopf import (
    ActionTensor,
    AlgebraData,
    BraidedPair,
    CoalgebraData,
    StructureError,
    check_hopf,
    hom_convolution_inverse_endo,
)
from ydalgebra.linalg import Matrix, Vector, identity_matrix, invert, unit_vector
from ydalgebra.posthopf import (
    PostLieData,
    YDPostHopf,
    bullet_algebra,
    check_post_lie,
    check_yd_hopf_monoid,
    check_yd_post_hopf,
    primitives,
    sharp_antipode,
    subadjacent_hopf,
)
from ydalgebra.rota import (
    adjunction_bijection,
    antipode_sk,
    check_lie_rb,
    check_rb_morphism,
    check_rel_rb,
    functor_l,
    functor_m,
    functor_r,
    is_posthopf_morphism,
    restrict_to_grouplikes,
    restrict_to_primitives,
)

F = Fraction
P_AXIOMS = ("P-COALG", "P-S", "P-DOT", "P-ASSOC", "P-CONV", "P-DELTA", "P-ANTI", "P-MP5")
L_AXIOMS = ("L-U", "L-1ACT", "L-SLIN", "L-BETA", "L-DA", "L-DB", "L-MA", "L-MB", "L-ANTI2")


def verdict(num: int, ok: bool, detail: str, elapsed: float | None = None):
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}{stamp}  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweedler():
    return build_sweedler(1)


@pytest.fixture(scope="module")
def en2():
    return build_en(2, [[1, 0], [0, 1]])


@pytest.fixture(scope="module")
def suzuki():
    return build_suzuki(1, 1)


@pytest.fixture(scope="module")
def examples(sweedler, en2, suzuki):
    return [
        ("trivial", build_trivial()),
        ("sweedler", sweedler),
        ("en2", en2),
        ("suzuki", suzuki),
        ("adjoint-s3", build_adjoint(group_algebra(symmetric_group_3()))),
        ("grouprb-s3", build_group_rb_linearization(group_rb_inversion(symmetric_group_3()))),
    ]


def test_acceptance_01_sweedler_reproduction():
    t0 = time.perf_counter()
    s = build_sweedler(1)
    rep = check_yd_post_hopf(s)
    elapsed = time.perf_counter() - t0
    ok = rep.all_pass()
    for ax in P_AXIOMS + L_AXIOMS:
        ok = ok and rep.status(ax) == "pass"
    ok = ok and s.action.act == sweedler_action_rows()
    ok = ok and s.beta.act == sweedler_beta_rows()
    ok = ok and elapsed < 1.0
    verdict(1, ok, "dim-4 tables reproduced, 8 P-axioms + 9 L-lemmas pass", elapsed)


def test_acceptance_02_beta_solver_independence(sweedler):
    t0 = time.perf_counter()
    res = hom_convolution_inverse_endo(sweedler.action, sweedler.carrier.coalgebra)
    elapsed = time.perf_counter() - t0
    ok = res.beta is not None and res.beta.act == sweedler_beta_rows()
    ok = ok and res.kernel_dim == 0
    ok = ok and elapsed < 1.0
    verdict(2, ok, "beta solved from alpha alone equals the oracle diagram, kernel 0", elapsed)


def test_acceptance_03_subadjacent_recovery(sweedler):
    G, X, XG = 1, 2, 3
    bullet = bullet_algebra(sweedler)
    sharp = sharp_antipode(sweedler)
    ok = bullet.mul[G][G] == unit_vector(4, 0, RATIONALS)
    ok = ok and bullet.mul[X][X].is_zero()
    ok = ok and bullet.mul[X][G].add(bullet.mul[G][X]).is_zero()
    ok = ok and sharp.column(G) == unit_vector(4, G, RATIONALS)
    ok = ok and sharp.column(X) == unit_vector(4, XG, RATIONALS)
    h = subadjacent_hopf(sweedler, verify=False)
    ok = ok and check_hopf(h).all_pass()
    verdict(3, ok, "subadjacent relations and antipode recovered, Hopf suite passes")


def test_acceptance_04_en_family(en2):
    from ydalgebra.structio import emit

    k = F(5, 3)
    ok = emit(build_en(1, [[k]])).encode() == emit(build_sweedler(k)).encode()
    t0 = time.perf_counter()
    s2 = build_en(2, [[1, 0], [0, 1]])  # includes the full defining suite
    rep = check_yd_hopf_monoid(s2)
    ok = ok and rep.all_pass()
    mp = to_matched_pair(s2)
    ok = ok and check_matched_pair(mp).all_pass()
    t2 = time.perf_counter() - t0
    ok = ok and t2 < 60.0
    t0 = time.perf_counter()
    A = [[F(1), F(1), F(0)], [F(1), F(2), F(1)], [F(0), F(1), F(1)]]
    s3 = build_en(3, A)  # self-certifies with beta supplied by construction
    t3 = time.perf_counter() - t0
    ok = ok and s3.dim == 16 and t3 < 300.0
    verdict(4, ok, f"n=1 byte-identical; dim-8 full suite {t2:.1f}s; dim-16 {t3:.1f}s")


def test_acceptance_05_suzuki(suzuki):
    lab = suzuki.carrier.algebra.basis_labels
    ix = {l: i for i, l in enumerate(lab)}
    one = F(1)
    ok = suzuki.dim == 16
    ok = ok and suzuki.action.act[ix["a"]][ix["a"]].entries == {ix["d"]: one}
    ok = ok and all(v.is_zero() for v in suzuki.action.act[ix["b"]])
    ok = ok and all(v.is_zero() for v in suzuki.action.act[ix["c"]])
    ok = ok and suzuki.action.act == suzuki.beta.act
    verdict(5, ok, "closure terminated at dim 16, expected action rows, alpha = beta")


def test_acceptance_06_category_isomorphisms(examples):
    t0 = time.perf_counter()
    ok = True
    for name, s in examples:
        b = functor_f(s)
        ok = ok and posthopf_equal(functor_g(b), s)
        ok = ok and brace_equal(functor_f(functor_g(b)), b)
        mp = to_matched_pair(s)
        ok = ok and posthopf_equal(from_matched_pair(mp), s)
        ok = ok and matched_pair_equal(to_matched_pair(from_matched_pair(mp)), mp)
        rep = check_matched_pair(mp)
        for ax in ("MP-1", "MP-2", "MP-3", "MP-4", "MP-BC", "MP-5", "MP-MODC"):
            ok = ok and rep.status(ax) == "pass"
        if not ok:
            verdict(6, False, f"failure at example {name}")
    verdict(6, ok, "GF = FG = Id and matched-pair round trips exact on all examples",
            time.perf_counter() - t0)


def test_acceptance_07_rota_baxter_roundtrips(examples):
    t0 = time.perf_counter()
    ok = True
    for name, s in examples:
        r = functor_l(s)
        rep = check_rel_rb(r, mode="full")
        ok = ok and rep.all_pass()
        ok = ok and posthopf_equal(functor_m(r), s)
        ok = ok and posthopf_equal(functor_r(r, mode="D"), s)
        ident_h = identity_matrix(r.h.dim, r.field)
        ident_k = identity_matrix(r.dim_k, r.field)
        lm = functor_l(functor_m(r))
        ok = ok and check_rb_morphism(r, lm, ident_h, r.r_map).all_pass()
        lr = functor_l(functor_r(r, mode="D"))
        rinv = invert(r.r_map)
        ok = ok and rinv is not None
        ok = ok and check_rb_morphism(r, lr, rinv, ident_k).all_pass()
        if not ok:
            verdict(7, False, f"failure at example {name}")
    verdict(7, ok, "L passes full suite; ML = RL = Id; (Id,R) and (R^-1,Id) morphisms pass",
            time.perf_counter() - t0)


def test_acceptance_08_sk_lemma(examples):
    ok = True
    for name, s in examples:
        r = functor_l(s)
        sk = antipode_sk(r)  # verifies both antipode identities internally
        ok = ok and sk == s.carrier.s_map
        if not ok:
            verdict(8, False, f"failure at example {name}")
    verdict(8, ok, "S_K satisfies both antipode identities on every example")


def test_acceptance_09_restrictions(sweedler):
    r = functor_l(sweedler)
    grb = restrict_to_grouplikes(
        r, [unit_vector(4, 0, RATIONALS), unit_vector(4, 1, RATIONALS)]
    )
    ok = grb.group_h.order == 2 and grb.group_h.mul == [[0, 1], [1, 0]]
    with pytest.raises(StructureError):
        restrict_to_grouplikes(r, [unit_vector(4, 0, RATIONALS), unit_vector(4, 2, RATIONALS)])
    prims = primitives(sweedler.carrier.coalgebra, sweedler.carrier.algebra.unit)
    ok = ok and prims == []
    lrb = restrict_to_primitives(r)
    ok = ok and lrb.lie_h.dim == 0 and check_lie_rb(lrb).all_pass()
    # the three post-Lie cases, including the designed failure
    z = Vector(2, {}, RATIONALS)
    e1 = unit_vector(2, 0, RATIONALS)
    e2 = unit_vector(2, 1, RATIONALS)
    abelian = PostLieData(2, [[z, z], [z, z]], [[z, z], [z, z]], RATIONALS)
    ok = ok and check_post_lie(abelian).all_pass()
    solvable = PostLieData(2, [[z, e2], [e2.neg(), z]], [[z, z], [z, z]], RATIONALS)
    ok = ok and check_post_lie(solvable).all_pass()
    failing = PostLieData(2, [[z, e2], [e2.neg(), z]], [[z, e1], [z, z]], RATIONALS)
    rep = check_post_lie(failing)
    entry = rep.entry("PL-1")
    ok = ok and entry.status == "fail" and entry.witness.where == (0, 0, 1)
    verdict(9, ok, "group-like C2 restriction, empty primitives, post-Lie trio verified")


def test_acceptance_10_adjunction(sweedler):
    rb = functor_l(sweedler)
    ident = identity_matrix(4, RATIONALS)
    ok = adjunction_bijection(rb, sweedler, ident, ident, direction="forward") == ident
    back = adjunction_bijection(rb, sweedler, g=ident, direction="backward")
    ok = ok and back == (rb.r_map, ident)
    phi = Matrix(4, 4, {(0, 0): F(1), (1, 1): F(1), (2, 2): F(-1), (3, 3): F(-1)}, RATIONALS)
    ok = ok and is_posthopf_morphism(sweedler, sweedler, phi)
    g = adjunction_bijection(rb, sweedler, phi, phi, direction="forward")
    ok = ok and g == phi
    f_back, g_back = adjunction_bijection(rb, sweedler, g=phi, direction="backward")
    ok = ok and g_back == phi
    g2 = adjunction_bijection(rb, sweedler, f_back, g_back, direction="forward")
    ok = ok and g2 == phi
    verdict(10, ok, "bijection round trips exact on the three morphism cases")


# --- mutation machinery -------------------------------------------------------


def _flip(v: Vector, k: int) -> Vector:
    return Vector(v.dim, {**v.entries, k: -v.entries[k]}, v.field)


def _with(rows: list[list[Vector]], i: int, j: int, v: Vector) -> list[list[Vector]]:
    rows = [list(row) for row in rows]
    rows[i][j] = v
    return rows


def _mutants(s: YDPostHopf):
    """Every single-sign-flip mutant of s.  Each is built through the
    constructors: a new vector, matrix or comultiplication list with one
    flipped sign, and s's own (never mutated) containers everywhere else."""
    d, fs = s.dim, s.field
    alg, co, smap, act = s.carrier.algebra, s.carrier.coalgebra, s.carrier.s_map, s.action

    def mutant(alg=alg, co=co, smap=smap, act=act) -> YDPostHopf:
        return YDPostHopf(BraidedPair(alg, co, smap), act, s.beta)

    for i in range(d):
        for j in range(d):
            for k in sorted(alg.mul[i][j].entries):
                mul = _with(alg.mul, i, j, _flip(alg.mul[i][j], k))
                yield (f"mul[{i}][{j}][{k}]",
                       mutant(alg=AlgebraData(d, list(alg.basis_labels), mul, alg.unit, fs)))
    for i in range(d):
        for t, (j, k, c) in enumerate(co.comul[i]):
            comul = [list(terms) for terms in co.comul]
            comul[i][t] = (j, k, -c)
            yield (f"comul[{i}]@({j},{k})", mutant(co=CoalgebraData(d, comul, co.counit, fs)))
    for (r, c) in sorted(smap.entries):
        yield (f"antipode[{r},{c}]",
               mutant(smap=Matrix(d, d, {**smap.entries, (r, c): -smap.entries[(r, c)]}, fs)))
    for i in range(d):
        for j in range(d):
            for k in sorted(act.act[i][j].entries):
                rows = _with(act.act, i, j, _flip(act.act[i][j], k))
                yield (f"action[{i}][{j}][{k}]", mutant(act=ActionTensor(d, d, rows, fs)))


def _run_mutations(s: YDPostHopf):
    """The number of single-sign-flip mutants of s, those that pass the
    post-Hopf suite, and those that pass the Hopf-monoid suite."""
    n = 0
    survivors, monoid_survivors = [], []
    for desc, m in _mutants(s):
        n += 1
        if check_yd_post_hopf(m, stop_on_fail=True).all_pass():
            survivors.append(desc)
        if check_yd_hopf_monoid(m).all_pass():
            monoid_survivors.append(desc)
    return n, survivors, monoid_survivors


# The mutants that pass the Hopf-monoid suite, with the reason.  The
# post-Hopf suite fails every mutant.
MONOID_PASSES = {
    f"suzuki/mul[{i}][0][{i}]": "e_i . 1 = -e_i breaks only the algebra's own laws, "
                                "ALG-ASSOC and ALG-UNIT, which the monoid suite takes as given"
    for i in (7, 8)  # b^2 and b*c
}


def test_acceptance_11_mutation_robustness(examples):
    t0 = time.perf_counter()
    ok = True
    counts = []
    survivors, monoid_survivors = [], []
    for name, s in examples:
        n, surv, monoid_surv = _run_mutations(s)
        ok = ok and not surv and n > 0
        counts.append(f"{name}:{n}")
        survivors.extend(f"{name}/{d}" for d in surv)
        monoid_survivors.extend(f"{name}/{d}" for d in monoid_surv)
    ok = ok and monoid_survivors == sorted(MONOID_PASSES)
    detail = ("single-sign-flip mutants all caught by the post-Hopf suite, and by the monoid suite "
              f"but for {len(MONOID_PASSES)} listed (" + ", ".join(counts) + ")")
    if survivors:
        detail += f"; survivors: {survivors}"
    if monoid_survivors != sorted(MONOID_PASSES):
        detail += f"; monoid-suite survivors: {monoid_survivors}"
    verdict(11, ok, detail, time.perf_counter() - t0)


def test_acceptance_12_determinism():
    def machine_report():
        s = build_sweedler(1)
        rep = check_yd_post_hopf(s)
        rep.extend(check_yd_hopf_monoid(s))
        return rep.machine_text().encode()

    first, second = machine_report(), machine_report()
    ok = first == second
    from ydalgebra.structio import emit

    ok = ok and emit(build_en(2, [[1, 0], [0, 1]])).encode() == emit(
        build_en(2, [[1, 0], [0, 1]])
    ).encode()
    verdict(12, ok, "two fresh runs produce byte-identical machine reports and files")
