"""Axiom suite and derived maps on the hand-entered structures."""

import functools
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from manual_structures import (
    G,
    ONE,
    X,
    sweedler_beta_rows,
    sweedler_transmutation_manual,
    trivial_structure,
    vec4,
)
import oracles
from oracles import act_apply, apply_basis, eps_vec, mul_vec
from test_golden import GOLDEN, SUITE_MUTANTS, yd_mutant
from test_hopf import LEVEL_FIELDS, LEVEL_STRUCTURES
from ydalgebra import compiled, hopf, posthopf
from ydalgebra.builders import cyclic_group, group_algebra
from ydalgebra.field import RATIONALS
from ydalgebra.hopf import ActionTensor, BraidedPair, CoalgebraData, StructureError, check_hopf
from ydalgebra.linalg import LinAlgError, Vector, _per_structure, unit_vector
from ydalgebra.posthopf import (
    PostLieData,
    braiding_sigma,
    bullet_algebra,
    check_post_lie,
    check_yd_hopf_monoid,
    check_yd_post_hopf,
    extract_post_lie,
    is_pre_hopf,
    left_coaction_adl,
    leftharpoon,
    primitives,
    sharp_antipode,
    solve_beta,
    subadjacent_hopf,
)
from ydalgebra.report import Checker, Tally, Witness
from ydalgebra.structio import parse

F = Fraction

P_AXIOMS = ["P-COALG", "P-S", "P-DOT", "P-ASSOC", "P-CONV", "P-DELTA", "P-ANTI", "P-MP5"]
L_AXIOMS = ["L-U", "L-1ACT", "L-SLIN", "L-BETA", "L-DA", "L-DB", "L-MA", "L-MB", "L-ANTI2"]


def test_sweedler_manual_full_suite_passes():
    s = sweedler_transmutation_manual()
    rep = check_yd_post_hopf(s)
    assert rep.all_pass(), rep.text()
    for ax in P_AXIOMS + L_AXIOMS:
        assert rep.status(ax) == "pass"


def test_sweedler_manual_k0_passes():
    rep = check_yd_post_hopf(sweedler_transmutation_manual(k=F(0)))
    assert rep.all_pass(), rep.text()


def test_trivial_structure_passes():
    rep = check_yd_post_hopf(trivial_structure())
    assert rep.all_pass(), rep.text()


def test_sweedler_with_trivial_action_fails_p_delta():
    s = sweedler_transmutation_manual()
    eps_rows = []
    for i in range(4):
        eps_i = s.carrier.coalgebra.eps(i)
        eps_rows.append([unit_vector(4, j, RATIONALS).scale(eps_i) for j in range(4)])
    s2 = replace(sweedler_transmutation_manual(), action=ActionTensor(4, 4, eps_rows, RATIONALS), beta=None)
    rep = check_yd_post_hopf(s2)
    assert rep.status("P-DELTA") == "fail"


def test_solve_beta_reproduces_oracle_table():
    s = replace(sweedler_transmutation_manual(), beta=None)
    beta = solve_beta(s)
    assert beta.act == sweedler_beta_rows()


def test_subadjacent_relations():
    s = sweedler_transmutation_manual()
    bullet = bullet_algebra(s)
    assert bullet.mul[G][G] == vec4([1, 0, 0, 0])
    assert bullet.mul[X][X].is_zero()
    assert bullet.mul[X][G].add(bullet.mul[G][X]).is_zero()
    sharp = sharp_antipode(s)
    assert sharp.column(G) == vec4([0, 1, 0, 0])
    assert sharp.column(X) == vec4([0, 0, 0, 1])  # S_>(x) = x.g
    h = subadjacent_hopf(s)
    assert check_hopf(h).all_pass()


def test_subadjacent_matches_ordinary_h4_tables():
    from test_hopf import h4_algebra, h4_antipode

    s = sweedler_transmutation_manual()
    bullet = bullet_algebra(s)
    assert bullet.mul == h4_algebra().mul
    assert sharp_antipode(s) == h4_antipode()


def test_adjoint_coaction_values():
    s = sweedler_transmutation_manual()
    adl = left_coaction_adl(s)
    # group-like g: Ad_L(g) = g o S_>(g) (x) g = 1 (x) g
    assert adl.column(G) == Vector(16, {0 * 4 + G: F(1)}, RATIONALS)
    assert adl.column(ONE) == Vector(16, {0 * 4 + ONE: F(1)}, RATIONALS)
    # x: expand a_1 o S_>(a_3) (x) a_2 by hand over Delta^2(x)
    # Delta^2(x) = x(x)1(x)1 + g(x)x(x)1 + g(x)g(x)x
    # terms: (x o S_>(1))(x)1 + (g o S_>(1))(x)x + (g o S_>(x))(x)g
    # = x(x)1 + g(x)x + (g o xg)(x)g = x(x)1 + g(x)x + x(x)g ... computed below
    bullet = bullet_algebra(s)
    sharp = sharp_antipode(s)
    expected: dict[int, F] = {}
    legs = oracles.legs(s.carrier.coalgebra, X, 3)
    for (a1, a2, a3), c in legs:
        u = mul_vec(bullet, unit_vector(4, a1, RATIONALS), sharp.column(a3))
        for p, cp in u.entries.items():
            key = p * 4 + a2
            expected[key] = expected.get(key, F(0)) + c * cp
    expected = {k: v for k, v in expected.items() if v}
    assert adl.column(X) == Vector(16, expected, RATIONALS)


def test_braiding_on_grouplike_and_pre_hopf_verdict():
    s = sweedler_transmutation_manual()
    sigma = braiding_sigma(s)
    # g group-like: sigma(g (x) b) = (g >- (S_>(g) >- b)) (x) g = (g o S_>(g)) >- b (x) g
    for b in range(4):
        col = sigma.column(G * 4 + b)
        w = apply_basis(s.action, G, apply_basis(s.action, G, unit_vector(4, b, RATIONALS)))
        expected = {p * 4 + G: c for p, c in w.entries.items()}
        assert col == Vector(16, expected, RATIONALS)
    # regression value: the braided Sweedler transmutation is braided commutative
    assert is_pre_hopf(s) is True


def test_monoid_theorem_checks_pass():
    s = sweedler_transmutation_manual()
    rep = check_yd_hopf_monoid(s)
    assert rep.all_pass(), rep.text()


def test_leftharpoon_counit_and_units():
    s = sweedler_transmutation_manual()
    harp = leftharpoon(s)
    coalg = s.carrier.coalgebra
    # 1 -< y = eps(y) 1 and x -< 1 = x
    for y in range(4):
        assert harp.act[ONE][y] == vec4([1, 0, 0, 0]).scale(coalg.eps(y))
    for x in range(4):
        assert harp.act[x][ONE] == unit_vector(4, x, RATIONALS)
    # eps(a -< b) = eps(a) eps(b)
    for a in range(4):
        for b in range(4):
            assert eps_vec(coalg, harp.act[a][b]) == coalg.eps(a) * coalg.eps(b)


def test_recovery_identities():
    # x >- y = S(x_1).(x_2 o y)  and  x.y = x_1 o (S_>(x_2) >- y)
    s = sweedler_transmutation_manual()
    alg, coalg, smap = s.carrier.algebra, s.carrier.coalgebra, s.carrier.s_map
    bullet = bullet_algebra(s)
    sharp = sharp_antipode(s)
    for x in range(4):
        for y in range(4):
            acc = Vector(4, {}, RATIONALS)
            for x1, x2, c in coalg.comul[x]:
                acc = acc.add(mul_vec(alg, smap.column(x1), bullet.mul[x2][y]).scale(c))
            assert acc == s.action.act[x][y]
            acc2 = Vector(4, {}, RATIONALS)
            for x1, x2, c in coalg.comul[x]:
                acc2 = acc2.add(
                    mul_vec(bullet, unit_vector(4, x1, RATIONALS),
                                   act_apply(s.action, sharp.column(x2), unit_vector(4, y, RATIONALS))).scale(c)
                )
            assert acc2 == alg.mul[x][y]


def test_module_identity_with_bullet():
    # x >- (y >- z) = (x o y) >- z on all triples
    s = sweedler_transmutation_manual()
    bullet = bullet_algebra(s)
    for x in range(4):
        for y in range(4):
            w = bullet.mul[x][y]
            for z in range(4):
                lhs = apply_basis(s.action, x, s.action.act[y][z])
                rhs = act_apply(s.action, w, unit_vector(4, z, RATIONALS))
                assert lhs == rhs


def test_primitives_sweedler_empty():
    s = sweedler_transmutation_manual()
    assert primitives(s.carrier.coalgebra, s.carrier.algebra.unit) == []


def test_primitives_dual_numbers():
    one = F(1)
    comul = [
        [(0, 0, one)],
        [(1, 0, one), (0, 1, one)],
    ]
    c = CoalgebraData(2, comul, Vector(2, {0: one}, RATIONALS), RATIONALS)
    prim = primitives(c, Vector(2, {0: one}, RATIONALS))
    assert prim == [Vector(2, {1: one}, RATIONALS)]


def test_primitives_grouplike_empty_char0():
    one = F(1)
    comul = [[(i, i, one)] for i in range(3)]
    c = CoalgebraData(3, comul, Vector(3, {i: one for i in range(3)}, RATIONALS), RATIONALS)
    assert primitives(c, Vector(3, {0: one}, RATIONALS)) == []


def test_extract_post_lie_sweedler_zero_dim():
    p = extract_post_lie(sweedler_transmutation_manual())
    assert p.dim == 0
    assert check_post_lie(p).all_pass()


def test_extract_post_lie_trivial():
    assert extract_post_lie(trivial_structure()).dim == 0


def zero2():
    return Vector(2, {}, RATIONALS)


def test_check_post_lie_abelian():
    p = PostLieData(2, [[zero2()] * 2 for _ in range(2)], [[zero2()] * 2 for _ in range(2)], RATIONALS)
    assert check_post_lie(p).all_pass()


def test_check_post_lie_nonabelian_zero_action():
    e2 = unit_vector(2, 1, RATIONALS)
    bracket = [[zero2(), e2], [e2.neg(), zero2()]]
    p = PostLieData(2, bracket, [[zero2()] * 2 for _ in range(2)], RATIONALS)
    assert check_post_lie(p).all_pass()


def test_check_post_lie_designed_failure():
    e1 = unit_vector(2, 0, RATIONALS)
    e2 = unit_vector(2, 1, RATIONALS)
    bracket = [[zero2(), e2], [e2.neg(), zero2()]]
    action = [[zero2(), e1], [zero2(), zero2()]]
    rep = check_post_lie(PostLieData(2, bracket, action, RATIONALS))
    entry = rep.entry("PL-1")
    assert entry.status == "fail"
    assert entry.witness.where == (0, 0, 1)


def _zero_g_action():
    """Sweedler's structure with g acting as 0: alpha*beta = eps Id has no
    solution."""
    s = sweedler_transmutation_manual()
    z = Vector(4, {}, RATIONALS)
    rows = [list(r) for r in s.action.act]
    rows[G] = [z, z, z, z]
    return replace(s, action=ActionTensor(4, 4, rows, RATIONALS), beta=None)


def test_beta_unsolvable_marks_conv_failed_and_skips():
    # destroy invertibility: make the action of g send everything to 0
    s = _zero_g_action()
    rep = check_yd_post_hopf(s)
    assert rep.status("P-CONV") == "fail"
    assert rep.status("P-DELTA") == "skipped"
    assert rep.status("L-BETA") == "skipped"
    assert rep.status("L-U") in ("pass", "fail")


def test_solve_beta_error_when_unsolvable():
    s = _zero_g_action()
    with pytest.raises(StructureError, match="at target 0"):
        solve_beta(s)


@pytest.mark.parametrize(("make", "reason"), [
    (_zero_g_action, "alpha*beta = eps Id has no solution (at target 0)"),
    # Delta(1) = 3/2 1(x)1 is not coassociative: alpha*beta = eps Id solves,
    # and the solution is only a one-sided inverse
    (lambda: yd_mutant("sweedler-q", "comul 0 0 0", True), "beta*alpha != eps Id (one-sided inverse)"),
], ids=["no-solution", "one-sided"])
def test_p_conv_names_the_side_without_a_beta(make, reason):
    entry = check_yd_post_hopf(make()).entry("P-CONV")
    assert entry.status == "fail"
    assert entry.witness.lhs == f"no convolution inverse of alpha exists: {reason}"
    with pytest.raises(StructureError, match=re.escape(f"({reason})")):
        solve_beta(make())


def test_is_pre_hopf_trivial_and_commutative_cases():
    assert is_pre_hopf(trivial_structure()) is True
    # commutative cocommutative group algebra with the trivial action
    from ydalgebra.builders import build_group_rb_linearization, cyclic_group, group_rb_identity

    s = build_group_rb_linearization(group_rb_identity(cyclic_group(2)))
    assert is_pre_hopf(s) is True


def _counted_report(rep) -> tuple:
    return rep.machine_text(), [(e.axiom, e.checked, e.failures) for e in rep.entries]


# (golden file, mutated line): beta supplied and right; supplied but wrong for
# the mutated action or comultiplication; wrong itself; and a comultiplication
# with no convolution inverse of alpha at all
ORDER_CASES = [("en2-q", "mul 4 4 0"), ("sweedler-q", "action 0 0 0"),
               ("en2-f7", "comul 6 3 4"), ("sweedler-q", "beta 2 2 0"),
               ("en2-q", "comul 4 4 0")]


@pytest.mark.parametrize(("base", "line"), ORDER_CASES)
def test_monoid_report_does_not_depend_on_what_ran_before(base, line):
    """The identities both suites share are evaluated by whichever suite
    asks first, so the monoid suite alone must report exactly what it
    reports after the post-Hopf suite; a copy without beta solves it
    afresh."""

    def fresh(strip_beta=False):
        return yd_mutant(base, line, strip_beta)

    alone = _counted_report(check_yd_hopf_monoid(fresh()))
    s = fresh()
    check_yd_post_hopf(s)
    assert _counted_report(check_yd_hopf_monoid(s)) == alone

    try:
        solved = _counted_report(check_yd_hopf_monoid(fresh(strip_beta=True)))
    except StructureError:  # alpha has no convolution inverse
        with pytest.raises(StructureError, match="no beta exists"):
            solve_beta(fresh(strip_beta=True))
        return
    s = fresh(strip_beta=True)
    check_yd_post_hopf(s)  # P-CONV solves beta
    assert s.beta is not None
    assert _counted_report(check_yd_hopf_monoid(s)) == solved
    # beta is filled at most once: a new beta needs a new structure, whose
    # cache starts empty, after either suite has run on the supplied one
    for suite in (check_yd_post_hopf, check_yd_hopf_monoid):
        s = fresh()
        suite(s)
        with pytest.raises(StructureError, match="beta is already set"):
            solve_beta(s)
        s = replace(s, beta=None)
        solve_beta(s)
        assert _counted_report(check_yd_hopf_monoid(s)) == solved


def test_entry_timings_do_not_overlap(monkeypatch):
    """Each entry is timed over its own step only: with a clock whose k-th
    reading is 2**k, an entry's seconds 2**b - 2**a name the two readings
    (a, b) it spans, and no two entries of both suites share a stretch."""
    from ydalgebra import report

    ticks = iter(range(10_000))
    monkeypatch.setattr(report, "perf_counter", lambda: 2 ** next(ticks))
    s = replace(sweedler_transmutation_manual(), beta=None)
    rep = check_yd_post_hopf(s)
    rep.extend(check_yd_hopf_monoid(s))
    assert rep.all_pass()
    spans = []
    for e in rep.entries:
        if e.seconds:
            a = (e.seconds & -e.seconds).bit_length() - 1
            b = (e.seconds + (1 << a)).bit_length() - 1
            assert e.seconds == 2 ** b - 2 ** a
            spans.append((a, b, e.axiom))
    assert len(spans) == len(rep.entries)
    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        assert end < start, f"{first} and {second} overlap"


@pytest.mark.parametrize("strip_beta", [False, True], ids=["beta", "nobeta"])
def test_p_conv_verifies_beta_once(monkeypatch, strip_beta):
    """P-CONV verifies alpha*beta and beta*alpha once: on the supplied beta,
    or, when the suite solves beta, by reusing the tallies with which the
    solver accepted it."""
    from ydalgebra import hopf

    calls = []
    real = hopf.convolution_unit_law

    def counted(left, right, *rest, **kw):
        calls.append((left, right))
        return real(left, right, *rest, **kw)

    monkeypatch.setattr(hopf, "convolution_unit_law", counted)
    lines = (GOLDEN / "en2-q.struct").read_text().splitlines()
    s = parse("".join(f"{x}\n" for x in lines if not (strip_beta and x.split()[0] == "beta")))
    assert (s.beta is None) == strip_beta
    entry = check_yd_post_hopf(s).entry("P-CONV")
    # alpha*beta and beta*alpha, each once; the other calls are P-S's
    alpha = s.action.int_act()
    assert [left is alpha for left, right in calls if alpha is left or alpha is right] == [True, False]
    assert (entry.status, entry.checked, entry.failures) == ("pass", 2 * s.dim, 0)


def _flipped_beta_text() -> str:
    """The en2-q golden with the sign of its first beta line flipped."""
    lines = (GOLDEN / "en2-q.struct").read_text().splitlines()
    i = next(k for k, x in enumerate(lines) if x.startswith("beta "))
    *head, c = lines[i].split()
    lines[i] = " ".join(head + [c[1:] if c.startswith("-") else "-" + c])
    return "".join(f"{x}\n" for x in lines)


def test_p_conv_renders_no_side_it_relabels(monkeypatch):
    """P-CONV's witness is the labels alpha*beta or beta*alpha and eps Id,
    so neither its tallies nor the solver's re-check behind them render a
    side, on a failing beta and on a re-check that raises."""
    renders = []
    real = compiled.render_sides

    def spied(*args):
        renders.append(args)
        return real(*args)

    s = parse(_flipped_beta_text())
    monkeypatch.setattr(compiled, "render_sides", spied)
    left, right = hopf._verify_endo_inverse(s.action, s.beta, s.carrier.coalgebra)
    assert renders == []
    assert (left.checked, left.failures, left.witness) == (8, 1, Witness((0,), "alpha*beta", "eps Id"))
    assert (right.checked, right.failures, right.witness) == (8, 4, Witness((0,), "beta*alpha", "eps Id"))
    monkeypatch.undo()
    entry = check_yd_post_hopf(parse(_flipped_beta_text())).entry("P-CONV")
    assert (entry.status, entry.checked, entry.failures) == ("fail", 16, 5)
    assert entry.witness == Witness((0, 0), "alpha*beta", "eps Id")

    # the alpha*beta re-check of a solved beta failing is a solver bug; it
    # raises with nothing rendered (here the re-check reads alpha for beta)
    law = hopf.convolution_unit_law

    def corrupted(left, right, *rest, **kw):
        return law(left, left, *rest, **kw)

    monkeypatch.setattr(compiled, "render_sides", spied)
    monkeypatch.setattr(hopf, "convolution_unit_law", corrupted)
    with pytest.raises(LinAlgError, match="alpha\\*beta"):
        hopf.hom_convolution_inverse_endo(s.action, s.carrier.coalgebra)
    assert renders == []


@pytest.mark.parametrize("make", [
    lambda: parse("".join(f"{x}\n" for x in (GOLDEN / "en2-q.struct").read_text().splitlines()
                          if x.split()[0] != "beta")),
    _zero_g_action,
], ids=["solved", "no-solution"])
def test_p_conv_carries_the_time_of_its_solve(monkeypatch, make):
    """When the suite solves beta itself, P-CONV's time includes the solve,
    with a beta found and without one; the solver is slowed by 50 ms, so
    the bound holds on any clock."""
    import time

    real = posthopf.hom_convolution_inverse_endo

    def slow(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(posthopf, "hom_convolution_inverse_endo", slow)
    s = make()
    assert s.beta is None
    assert check_yd_post_hopf(s).entry("P-CONV").seconds >= 0.05


def _post_lie(d: int, bracket: dict, action: dict) -> PostLieData:
    """The post-Lie data of dimension d whose bracket and action are the
    given {(i, j): {k: coefficient}} on basis pairs, zero elsewhere."""
    def table(entries):
        return [[Vector(d, entries.get((i, j), {}), RATIONALS) for j in range(d)] for i in range(d)]
    return PostLieData(d, table(bracket), table(action), RATIONALS)


# one entry of a passing post-Lie algebra changed, for each ID of
# check_post_lie that no golden fails: the data, the IDs that fail, and the
# first failure of the target ID
PL_MUTANTS = {
    # abelian, zero action, and [e_0, e_0] = e_1: not skew at (0, 0), and
    # still Jacobi, since every bracket of a bracket is 0
    "PL-SKEW": (_post_lie(2, {(0, 0): {1: 1}}, {}), ["PL-SKEW"], "at=(0,0) lhs=[1:1] rhs=[1:-1]"),
    # abelian, zero action, and [e_0, e_1] = e_1 with [e_1, e_0] = 0: one
    # entry of the bracket cannot break Jacobi and keep it skew, and the
    # subadjacent bracket is this one, so PL-SKEW and PL-SUB fail with it
    "PL-JAC": (_post_lie(2, {(0, 1): {1: 1}}, {}), ["PL-SKEW", "PL-JAC", "PL-SUB"],
               "at=(0,0,1) lhs=[1:1] rhs=[0]"),
    # abelian, and e_0 >- e_1 = e_0 the only action: PL-1 holds for any
    # action on an abelian bracket, but this one is not a pre-Lie product
    "PL-2": (_post_lie(2, {}, {(0, 1): {0: 1}}), ["PL-2"], "at=(0,1,1) lhs=[0:1] rhs=[0]"),
    # the Heisenberg bracket [e_0, e_1] = e_2, zero action, and e_0 >- e_2 = e_0:
    # the subadjacent bracket is Lie whenever the other four IDs pass, so
    # PL-SUB fails only with one of them, here PL-1 and PL-2
    "PL-SUB": (_post_lie(3, {(0, 1): {2: 1}, (1, 0): {2: -1}}, {(0, 2): {0: 1}}), ["PL-1", "PL-2", "PL-SUB"],
               "at=(0,1,2) lhs=[2:1] rhs=[0]"),
}


@pytest.mark.parametrize("axiom", sorted(PL_MUTANTS))
def test_check_post_lie_fails_each_id_on_one_changed_entry(axiom):
    p, failing, witness = PL_MUTANTS[axiom]
    rep = check_post_lie(p)
    assert [e.axiom for e in rep.failed()] == failing
    assert rep.entry(axiom).witness.text() == witness


# --- YD-BRAIDMULT held to its two-sided evaluation ---------------------------
#
# On a coassociative Delta the braided product is P-DELTA's right-hand side in
# another bracketing, so ``posthopf._braided_mult`` reads row 0 from P-DELTA's
# cached compare; off coassociativity it sums both sides.  The entry must be
# the one ``oracles._braided_mult`` records, which sums both sides always.

YDPOST_GOLDENS = sorted(p.stem for p in GOLDEN.glob("*.struct") if p.read_text().startswith("kind ydpost\n"))
# the suite mutants whose coproduct line changed, and the E(2) product
# mutants, which fail P-DELTA
BRAIDMULT_MUTANTS = sorted(name for name in SUITE_MUTANTS
                           if "comul" in name or (name.startswith("en2-") and name.endswith("-mul")))


def _braidmult_entries(s) -> tuple:
    """(status, checked, failures, witness) of YD-BRAIDMULT from
    ``posthopf`` and from the oracle, each on its own copy of s."""
    out = []
    for run in (posthopf._braided_mult, oracles._braided_mult):
        fresh = replace(s)
        ch = Checker("YD-BRAIDMULT")
        run(ch, fresh)
        e = ch.entry()
        out.append((e.status, e.checked, e.failures, e.witness))
    return tuple(out)


@pytest.mark.parametrize("field", sorted(LEVEL_FIELDS))
@pytest.mark.parametrize("name", sorted(LEVEL_STRUCTURES))
def test_braidmult_matches_two_sided_on_built_structures(name, field):
    # E(1)-E(3) with identity and off-diagonal A, Suzuki(+-1, +-1), Sweedler
    # and two group algebras
    s = LEVEL_STRUCTURES[name](LEVEL_FIELDS[field])
    assert posthopf._coassociative(s.carrier.coalgebra)
    got, want = _braidmult_entries(s)
    assert got == want and got[0] == "pass"


@pytest.mark.parametrize("name", YDPOST_GOLDENS)
def test_braidmult_matches_two_sided_on_ydpost_goldens(name):
    got, want = _braidmult_entries(parse((GOLDEN / f"{name}.struct").read_text()))
    assert got == want and got[0] == "pass"


@pytest.mark.parametrize("name", BRAIDMULT_MUTANTS)
def test_braidmult_matches_two_sided_on_mutants(name):
    s = yd_mutant(*SUITE_MUTANTS[name])
    posthopf.ensure_beta(s)
    got, want = _braidmult_entries(s)
    assert got == want and got[0] == "fail"


def test_braidmult_cases_take_both_paths():
    # three of the mutants take the two-sided path, and the goldens are found
    coassociative = {name: posthopf._coassociative(yd_mutant(*SUITE_MUTANTS[name]).carrier.coalgebra)
                     for name in BRAIDMULT_MUTANTS}
    assert {name for name, ok in coassociative.items() if not ok} == {
        "en2-q-comul", "en3-q-comul", "sweedler-f7-comul"}
    assert len(YDPOST_GOLDENS) > 10


def test_coassociative_delta_sums_no_braided_side(monkeypatch):
    """On a coassociative Delta both suites build P-DELTA's right-hand side
    once and the second-leg sums Z once, and neither the braided product
    nor the braiding columns."""
    calls = {"_pdelta_rhs": 0, "_braided_product_delta": 0, "_sigma_columns": 0, "_second_leg_sums": 0}

    def counted(name, f):
        @functools.wraps(f)
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in ("_pdelta_rhs", "_braided_product_delta", "_sigma_columns"):
        monkeypatch.setattr(posthopf, name, counted(name, getattr(posthopf, name)))
    build = posthopf._second_leg_sums.__wrapped__
    monkeypatch.setattr(posthopf, "_second_leg_sums", _per_structure(counted("_second_leg_sums", build)))
    s = parse((GOLDEN / "en3-q.struct").read_text())
    rep = check_yd_post_hopf(s)
    rep.extend(check_yd_hopf_monoid(s))
    assert rep.all_pass()
    assert calls == {"_pdelta_rhs": 1, "_braided_product_delta": 0, "_sigma_columns": 0, "_second_leg_sums": 1}


# --- L-MB and L-DB held to their sums on beta ---------------------------------
#
# Once L-BETA and P-ANTI pass, beta = alpha o S_> with S_> an anti-coalgebra
# map, so the suite reads L-MB from P-DOT and L-DB from L-DA; otherwise it
# sums them on beta.  Either way each entry must be the one its law records
# when summed on beta.

BETA_LEMMA_LAWS = {
    "L-DB": lambda s: posthopf.module_coalgebra_law(s.beta, s.carrier.coalgebra, s.carrier.coalgebra, swap=True)[0],
    "L-MB": lambda s: posthopf.module_algebra_law(s.beta, s.carrier.coalgebra, s.carrier.algebra, swap=True),
}


def _entry_key(e) -> tuple:
    return e.status, e.checked, e.failures, e.witness


def _beta_lemma_entries(s) -> tuple:
    """The L-DB and L-MB entries of the suite on s, and those of their laws
    summed on the beta the suite ends with."""
    rep = check_yd_post_hopf(s)
    got, want = [], []
    for axiom, law in BETA_LEMMA_LAWS.items():
        got.append(_entry_key(rep.entry(axiom)))
        ch = Checker(axiom)
        ch.absorb(law(s))
        want.append(_entry_key(ch.entry()))
    return got, want


@pytest.mark.parametrize("field", sorted(LEVEL_FIELDS))
@pytest.mark.parametrize("name", sorted(LEVEL_STRUCTURES))
def test_beta_lemmas_match_their_sums_on_built_structures(name, field):
    # E(1)-E(3) with identity and off-diagonal A, Suzuki(+-1, +-1), Sweedler
    # and two group algebras
    s = LEVEL_STRUCTURES[name](LEVEL_FIELDS[field])
    got, want = _beta_lemma_entries(replace(s))
    d = s.dim
    assert got == want == [("pass", d * d, 0, None), ("pass", d ** 3, 0, None)]


@pytest.mark.parametrize("name", YDPOST_GOLDENS)
def test_beta_lemmas_match_their_sums_on_ydpost_goldens(name):
    got, want = _beta_lemma_entries(parse((GOLDEN / f"{name}.struct").read_text()))
    assert got == want


# the suite mutants whose beta lemmas run, as P-CONV passes
BETA_LEMMA_MUTANTS = sorted(name for name in SUITE_MUTANTS
                            if "L-MB skipped" not in (GOLDEN / f"suite-{name}.report").read_text())


@pytest.mark.parametrize("name", BETA_LEMMA_MUTANTS)
def test_beta_lemmas_match_their_sums_on_mutants(name):
    got, want = _beta_lemma_entries(yd_mutant(*SUITE_MUTANTS[name]))
    assert got == want


def _summed_on_beta(monkeypatch, s) -> tuple:
    """The report of the post-Hopf suite on s, and the beta lemmas whose
    laws it called on beta (a call on anything but alpha), sorted."""
    calls = []

    def spied(axiom, f):
        @functools.wraps(f)
        def wrapper(act, *rest, **kw):
            if act is not s.action:
                calls.append(axiom)
            return f(act, *rest, **kw)
        return wrapper

    monkeypatch.setattr(posthopf, "module_coalgebra_law", spied("L-DB", posthopf.module_coalgebra_law))
    monkeypatch.setattr(posthopf, "module_algebra_law", spied("L-MB", posthopf.module_algebra_law))
    return check_yd_post_hopf(s), sorted(calls)


@pytest.mark.parametrize("case, summed", [
    ("en3-q", []),  # every premise passes
    ("suite-en2-q-mul", ["L-MB"]),  # P-DOT fails; L-DA, L-BETA and P-ANTI pass
    ("suite-sweedler-q-action-nobeta", ["L-DB", "L-MB"]),  # every premise fails
])
def test_beta_lemmas_are_summed_only_when_a_premise_fails(monkeypatch, case, summed):
    """The laws are called on beta only for the lemmas whose premises do
    not all pass, and the L-DB and L-MB lines read as the golden ones."""
    if case.startswith("suite-"):
        s = yd_mutant(*SUITE_MUTANTS[case.removeprefix("suite-")])
    else:
        s = parse((GOLDEN / f"{case}.struct").read_text())
    rep, calls = _summed_on_beta(monkeypatch, s)
    assert calls == summed
    golden = (GOLDEN / f"{case}.report").read_text().splitlines()
    for axiom in BETA_LEMMA_LAWS:
        lines = [x for x in rep.machine_text().splitlines() if x.split()[0] == axiom]
        e = rep.entry(axiom)
        if case.startswith("suite-"):
            lines.append(f"{axiom} {e.status} {e.checked} {e.failures}")
        assert lines and set(lines) <= set(golden)


def test_beta_lemmas_are_summed_when_l_beta_fails(monkeypatch):
    # k[C3] with c1 acting by inversion and c0, c2 trivially: each alpha_g is
    # a Hopf automorphism, so P-DOT, L-DA, P-CONV and P-ANTI pass, but beta_{c2}
    # = id is not alpha_{S_>(c2)} = alpha_{c1}, so L-BETA fails
    h = group_algebra(cyclic_group(3))
    sigma = [[0, 1, 2], [0, 2, 1], [0, 1, 2]]
    act = ActionTensor(3, 3, [[unit_vector(3, sigma[g][y], RATIONALS) for y in range(3)] for g in range(3)],
                       RATIONALS)
    s = posthopf.YDPostHopf(BraidedPair(h.algebra, h.coalgebra, h.antipode), act)
    rep, calls = _summed_on_beta(monkeypatch, s)
    assert [rep.status(ax) for ax in ("P-DOT", "L-DA", "P-CONV", "P-ANTI", "L-BETA")] == ["pass"] * 4 + ["fail"]
    assert calls == ["L-DB", "L-MB"]
    assert [_entry_key(rep.entry(ax)) for ax in BETA_LEMMA_LAWS] == [("pass", 9, 0, None), ("pass", 27, 0, None)]


def _failed(tally: Tally) -> Tally:
    """tally with one more tuple, failing."""
    out = Tally()
    out.absorb(tally)
    out.record((0,), False)
    return out


def _fail_p_anti(monkeypatch):
    real = posthopf.coalgebra_map_law

    def law(*args, **kw):
        yield _failed(next(real(*args, **kw)))

    monkeypatch.setattr(posthopf, "coalgebra_map_law", law)


def _fail_l_da(monkeypatch):
    real = posthopf._alpha_comult
    monkeypatch.setattr(posthopf, "_alpha_comult", lambda s: (_failed(real(s)[0]), real(s)[1]))


@pytest.mark.parametrize("premise, fail, summed", [
    ("P-ANTI", _fail_p_anti, ["L-DB", "L-MB"]),
    ("L-DA", _fail_l_da, ["L-DB"]),
])
def test_beta_lemmas_are_summed_when_a_premise_is_made_to_fail(monkeypatch, premise, fail, summed):
    # on the dim-8 E(2), one premise made to fail and the others passing
    fail(monkeypatch)
    rep, calls = _summed_on_beta(monkeypatch, parse((GOLDEN / "en2-q.struct").read_text()))
    assert [ax for ax in ("P-DOT", "L-DA", "L-BETA", "P-ANTI") if rep.status(ax) == "fail"] == [premise]
    assert calls == summed
    assert [_entry_key(rep.entry(ax)) for ax in BETA_LEMMA_LAWS] == [("pass", 64, 0, None), ("pass", 512, 0, None)]
