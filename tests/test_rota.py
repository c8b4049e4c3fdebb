"""Relative Rota-Baxter operators: checkers, functors, restrictions."""

import dataclasses
from fractions import Fraction

import pytest

from manual_structures import sub_operator, sweedler_transmutation_manual
from oracles import posthopf_equal
from test_golden import GOLDEN
from ydalgebra import rota
from ydalgebra.builders import (
    build_en,
    build_group_rb_linearization,
    build_suzuki,
    build_sweedler,
    build_trivial,
    group_rb_inversion,
    symmetric_group_3,
)
from ydalgebra.field import RATIONALS, FieldSpec
from ydalgebra.hopf import CoalgebraData, StructureError, is_cocommutative
from ydalgebra.linalg import Matrix, Vector, identity_matrix, invert, unit_vector
from ydalgebra.posthopf import check_yd_post_hopf
from ydalgebra.rota import (
    GroupTable,
    LieData,
    LieRB,
    _morphism_checker,
    adjunction_bijection,
    antipode_sk,
    check_group_rb,
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
from ydalgebra.hopf import ActionTensor
from ydalgebra.structio import emit, parse

F = Fraction


def test_l_of_sweedler_full_pass():
    s = sweedler_transmutation_manual()
    r = functor_l(s)
    rep = check_rel_rb(r, mode="full")
    assert rep.all_pass(), rep.text()


def test_l_of_trivial():
    rep = check_rel_rb(functor_l(build_trivial()), mode="full")
    assert rep.all_pass()


def test_rank_one_r_map_fails_coalg():
    s = sweedler_transmutation_manual()
    d = s.dim
    # constant-to-unit rank-one operator: not counit-compatible in dim > 1
    r = dataclasses.replace(functor_l(s), r_map=Matrix(d, d, {(0, j): F(1) for j in range(d)}, RATIONALS))
    rep = check_rel_rb(r, mode="pre")
    assert rep.entry("RB-COALG").status == "fail"


def test_cocommutative_rb2_holds():
    s = build_group_rb_linearization(group_rb_inversion(symmetric_group_3()))
    r = functor_l(s)
    assert is_cocommutative(r.k_coalg) and is_cocommutative(r.h.coalgebra)
    rep = check_rel_rb(r, mode="full")
    assert rep.entry("RB-1").status == "pass"
    assert rep.entry("RB-COALG").status == "pass"
    assert rep.entry("RB-2").status == "pass"
    assert rep.all_pass()


def test_antipode_sk_equals_braided_antipode_for_l():
    for s in (sweedler_transmutation_manual(), build_suzuki(1, 1)):
        r = functor_l(s)
        assert antipode_sk(r) == s.carrier.s_map


def test_ml_is_identity():
    for s in (build_sweedler(1), build_en(2, [[1, 0], [0, 1]]), build_trivial()):
        r = functor_l(s)
        back = functor_m(r)
        assert posthopf_equal(back, s)


def test_rl_is_identity():
    for s in (build_sweedler(1), build_suzuki(1, 1), build_trivial()):
        r = functor_l(s)
        back = functor_r(r, mode="D")
        assert posthopf_equal(back, s)
        back2 = functor_r(r, mode="Cprime")
        assert posthopf_equal(back2, s)


def test_m_output_passes_axioms():
    s = build_sweedler(1)
    m = functor_m(functor_l(s))
    assert check_yd_post_hopf(m).all_pass()


def test_morphism_witnesses_for_lm_and_lr():
    s = build_sweedler(1)
    r = functor_l(s)
    d = s.dim
    ident = identity_matrix(d, RATIONALS)
    # (Id, R): from r to L(M(r))
    lm = functor_l(functor_m(r))
    rep = check_rb_morphism(r, lm, ident, r.r_map)
    assert rep.all_pass(), rep.text()
    # (R^{-1}, Id): from r to L(R(r))
    lr = functor_l(functor_r(r, mode="D"))
    rinv = invert(r.r_map)
    rep = check_rb_morphism(r, lr, rinv, ident)
    assert rep.all_pass(), rep.text()


def test_rb_morphism_perturbation_detected():
    s = build_sweedler(1)
    r = functor_l(s)
    d = s.dim
    f = identity_matrix(d, RATIONALS)
    bad = Matrix(d, d, dict(f.entries), RATIONALS)
    bad.entries[(2, 2)] = F(-1)
    rep = check_rb_morphism(r, r, bad, identity_matrix(d, RATIONALS))
    assert rep.entry("RBM-COMM").status == "fail"


@pytest.mark.parametrize("p", [None, 7], ids=["q", "f7"])
def test_rbm_f_and_g_fail_on_one_flipped_sign(p):
    # x -> -x on Sweedler's basis (1, g, x, gx) keeps the coproduct rows
    # (2, i) and the counit rows (3, i) but not the product rows: g x = gx,
    # x g = -gx, g gx = x and gx g = -x fail, and the witness is the first
    # of them; as f it is read against H's product, as g against K's
    fs = RATIONALS if p is None else FieldSpec(p)
    r = functor_l(build_sweedler(1, fs) if p is None else build_sweedler(3, fs))
    ident = identity_matrix(4, fs)
    flipped = Matrix(4, 4, {**ident.entries, (2, 2): -fs.one}, fs)
    minus = "-1" if p is None else str(p - 1)
    f = check_rb_morphism(r, r, flipped, ident).entry("RBM-F")
    assert (f.status, f.checked, f.failures) == ("fail", 25, 4)
    assert f.witness.text() == f"at=(0,1,2) lhs=[3:{minus}] rhs=[3:1]"
    g = check_rb_morphism(r, r, ident, flipped).entry("RBM-G")
    assert (g.status, g.checked, g.failures) == ("fail", 25, 6)
    assert g.witness.text() == f"at=(0,1,2) lhs=[3:1] rhs=[3:{minus}]"


@pytest.mark.parametrize("p", [None, 7], ids=["q", "f7"])
def test_rbm_coproduct_row_and_least_witness(p):
    # the identity into Sweedler's H with Delta(x) flipped to co-opposite
    # fails the coproduct row (2, 2) alone, rendered as pair sums; with
    # eps(g) changed too, the counit row (3, 1) fails as well.  A loop over
    # i checking (2, i) and then (3, i) meets (3, 1) first, but the witness
    # is the least failing tuple, (2, 2)
    fs = RATIONALS if p is None else FieldSpec(p)
    h = functor_l(build_sweedler(1, fs) if p is None else build_sweedler(3, fs)).h
    alg, co = h.algebra, h.coalgebra
    comul = [list(terms) for terms in co.comul]
    comul[2] = [(k, j, c) for j, k, c in co.comul[2]]
    ident = identity_matrix(4, fs)
    ch = _morphism_checker("RBM-F", ident, alg, co, alg, CoalgebraData(4, comul, co.counit, fs))
    assert (ch.checked, ch.failures) == (25, 1)
    assert ch.witness.text() == "at=(2,2) lhs=[(0,2):1;(2,1):1] rhs=[(1,2):1;(2,0):1]"
    counit = Vector(4, {**co.counit.entries, 1: fs.one + fs.one}, fs)
    ch = _morphism_checker("RBM-G", ident, alg, co, alg, CoalgebraData(4, comul, counit, fs))
    assert (ch.checked, ch.failures) == (25, 2)
    assert ch.witness.text() == "at=(2,2) lhs=[(0,2):1;(2,1):1] rhs=[(1,2):1;(2,0):1]"


def test_identity_morphism_passes():
    r = functor_l(build_sweedler(1))
    ident = identity_matrix(4, RATIONALS)
    assert check_rb_morphism(r, r, ident, ident).all_pass()


def test_adjunction_identity_case():
    s = build_sweedler(1)
    rb = functor_l(s)
    ident = identity_matrix(4, RATIONALS)
    g = adjunction_bijection(rb, s, ident, ident, direction="forward")
    assert g == ident
    f_back, g_back = adjunction_bijection(rb, s, g=ident, direction="backward")
    assert f_back == rb.r_map and g_back == ident


def test_adjunction_with_sign_automorphism():
    s = build_sweedler(1)
    rb = functor_l(s)
    phi = Matrix(4, 4, {
        (0, 0): F(1), (1, 1): F(1), (2, 2): F(-1), (3, 3): F(-1),
    }, RATIONALS)
    assert is_posthopf_morphism(s, s, phi)
    g = adjunction_bijection(rb, s, phi, phi, direction="forward")
    assert g == phi
    f_back, g_back = adjunction_bijection(rb, s, g=phi, direction="backward")
    assert f_back == rb.r_map.compose(phi) and g_back == phi
    # round trip: forward(backward(g)) == g
    g2 = adjunction_bijection(rb, s, f_back, g_back, direction="forward")
    assert g2 == phi


# the operators R : K -> H with dim K < dim H: Sweedler, E(2) and Suzuki,
# each over Q and F_7
SUB_OPERATOR_GOLDENS = sorted(p.stem for p in GOLDEN.glob("*-rb_l-sub.struct"))


@pytest.mark.parametrize("name", SUB_OPERATOR_GOLDENS)
def test_adjunction_on_a_non_bijective_operator(name):
    # s = R'(rb) and g = id: backward gives (R, id), forward gives g back
    rb = parse((GOLDEN / f"{name}.struct").read_text())
    assert rb.r_map.rows > rb.r_map.cols
    s = functor_r(rb, "Cprime")
    ident = identity_matrix(s.dim, s.field)
    f, g = adjunction_bijection(rb, s, g=ident, direction="backward")
    assert f == rb.r_map and g == ident
    assert adjunction_bijection(rb, s, f, g, direction="forward") == ident


# Suzuki(1, -1)'s functor L operator restricted along the chain of sub-Hopf
# algebras span{1, a^4} < span{1, a^2, b^2, a^4} < K: the basis indices of
# each K' in K, and the inclusions of the chain and their composite, as
# (smaller, larger) index pairs into CHAIN
CHAIN = ([0, 13], [0, 5, 7, 13], list(range(16)))
CHAIN_INCLUSIONS = [(0, 1), (1, 2), (0, 2)]


def _inclusion(small: list[int], big: list[int], fs) -> Matrix:
    """The matrix of span(small) -> span(big) on the basis indices of K."""
    return Matrix(len(big), len(small), {(big.index(a), n): fs.one for n, a in enumerate(small)}, fs)


@pytest.mark.parametrize("field", ["q", "f7"])
@pytest.mark.parametrize("pair", CHAIN_INCLUSIONS, ids=lambda pair: "-".join(map(str, pair)))
def test_adjunction_along_a_chain_of_sub_operators(field, pair):
    # g is an inclusion iota: K_small -> K_big, and (id_H, iota) a morphism
    # of operators; backward gives (R_small, iota), forward gives iota back
    full = functor_l(parse((GOLDEN / f"suzuki-{field}.struct").read_text()))
    small, big = (CHAIN[k] for k in pair)
    rb_small, rb_big = (full if len(sup) == full.dim_k else sub_operator(full, sup) for sup in (small, big))
    fs = full.field
    iota = _inclusion(small, big, fs)
    assert check_rb_morphism(rb_small, rb_big, identity_matrix(full.h.dim, fs), iota).all_pass()
    s = functor_r(rb_small, "Cprime")
    f, g = adjunction_bijection(rb_big, s, g=iota, direction="backward")
    assert f == rb_small.r_map and g == iota
    assert adjunction_bijection(rb_big, s, f, g, direction="forward") == iota


def test_adjunction_rejects_non_morphism():
    s = build_sweedler(1)
    rb = functor_l(s)
    bad = Matrix(4, 4, {(0, 0): F(1), (1, 1): F(1), (2, 3): F(1), (3, 2): F(1)}, RATIONALS)
    with pytest.raises(StructureError):
        adjunction_bijection(rb, s, bad, bad, direction="forward")


def test_restrict_to_grouplikes_sweedler():
    s = sweedler_transmutation_manual()
    r = functor_l(s)
    candidates = [unit_vector(4, 0, RATIONALS), unit_vector(4, 1, RATIONALS)]
    grb = restrict_to_grouplikes(r, candidates)
    assert grb.group_h.order == 2
    assert grb.r == [0, 1]  # R = identity on {1, g}
    assert grb.group_h.mul == [[0, 1], [1, 0]]


def test_restrict_to_grouplikes_rejects_non_grouplike():
    s = sweedler_transmutation_manual()
    r = functor_l(s)
    candidates = [unit_vector(4, 0, RATIONALS), unit_vector(4, 2, RATIONALS)]
    with pytest.raises(StructureError):
        restrict_to_grouplikes(r, candidates)


def test_restrict_to_primitives_sweedler_vacuous():
    s = sweedler_transmutation_manual()
    lrb = restrict_to_primitives(functor_l(s))
    assert lrb.lie_g.dim == 0 and lrb.lie_h.dim == 0
    assert check_lie_rb(lrb).all_pass()


def test_lie_rb_abelian_identity():
    z = Vector(2, {}, RATIONALS)
    lie = LieData(2, [[z, z], [z, z]], RATIONALS)
    phi = ActionTensor(2, 2, [[z, z], [z, z]], RATIONALS)
    lrb = LieRB(lie, lie, phi, identity_matrix(2, RATIONALS))
    rep = check_lie_rb(lrb)
    assert rep.all_pass()


def test_lie_rb_weight1_failure_detected():
    # R = id on the nonabelian 2-dim Lie algebra with phi = 0 breaks the law
    z = Vector(2, {}, RATIONALS)
    e2 = unit_vector(2, 1, RATIONALS)
    bracket = [[z, e2], [e2.neg(), z]]
    lie = LieData(2, bracket, RATIONALS)
    phi = ActionTensor(2, 2, [[z, z], [z, z]], RATIONALS)
    lrb = LieRB(LieData(2, [[z, z], [z, z]], RATIONALS), lie, phi,
                identity_matrix(2, RATIONALS))
    rep = check_lie_rb(lrb)
    assert rep.entry("LRB-W1").status == "fail"


def test_full_mode_rejects_singular_r():
    s = build_sweedler(1)
    r = dataclasses.replace(functor_l(s), r_map=Matrix(4, 4, {(0, 0): F(1)}, RATIONALS))
    rep = check_rel_rb(r, mode="full")
    entry = rep.entry("RB-3")
    assert entry.status == "fail"
    assert "not bijective" in entry.witness.lhs


def _outcomes(r) -> list:
    """What S_K, functor M, functor R in mode D and the full suite give on
    r: an emitted text or a matrix's entries, or the error raised."""
    out = []
    for make in (lambda: antipode_sk(r).entries, lambda: emit(functor_m(r)), lambda: emit(functor_r(r, "D")),
                 lambda: check_rel_rb(r, mode="full").machine_text()):
        try:
            out.append(make())
        except StructureError as e:
            out.append(f"StructureError: {e}")
    return out


@pytest.mark.parametrize("p", [None, 7], ids=["q", "f7"])
def test_r_inverse_skips_the_elimination_only_for_an_identity_r(monkeypatch, p):
    # an identity R is its own inverse; a bijective R that is not the
    # identity, a singular one and one into a larger H give what inverting
    # R by elimination gave
    fs = RATIONALS if p is None else FieldSpec(p)
    one, minus = fs.scalar(1), fs.scalar(-1)
    rb = functor_l(build_sweedler(1, fs))
    sign = Matrix(4, 4, {(0, 0): one, (1, 1): one, (2, 2): minus, (3, 3): minus}, fs)
    shear = Matrix(4, 4, {(0, 0): one, (1, 1): one, (2, 2): one, (3, 3): one, (0, 2): one}, fs)
    singular = Matrix(4, 4, {(0, 0): one}, fs)
    sub = sub_operator(rb, [0, 1])
    cases = [rb, *(dataclasses.replace(rb, r_map=m) for m in (sign, shear, singular)), sub]

    def by_elimination(r):
        return None if r.dim_k != r.h.dim else invert(r.r_map)

    assert rota._r_inverse(rb) is rb.r_map
    got = [(rota._r_inverse(r), _outcomes(dataclasses.replace(r))) for r in cases]
    monkeypatch.setattr(rota, "_r_inverse", by_elimination)
    want = [(by_elimination(r), _outcomes(dataclasses.replace(r))) for r in cases]
    assert got == want
    inverses = [inv for inv, _ in got]
    assert inverses[0] == identity_matrix(4, fs) and inverses[3] is None and inverses[4] is None
    assert inverses[1] == sign and inverses[2] != shear


def test_restrict_to_grouplikes_trivial_singleton():
    s = sweedler_transmutation_manual()
    r = functor_l(s)
    grb = restrict_to_grouplikes(r, [unit_vector(4, 0, RATIONALS)])
    assert grb.group_h.order == 1 and grb.r == [0]


def _lie(d, brackets, fs):
    """LieData on d basis vectors with [e_i, e_j] = brackets[(i, j)], a dict
    {k: int}; unnamed brackets are 0."""
    z = Vector(d, {}, fs)
    table = [[z] * d for _ in range(d)]
    for (i, j), v in brackets.items():
        table[i][j] = Vector(d, {k: fs.scalar(c) for k, c in v.items()}, fs)
    return LieData(d, table, fs)


def _lie_rb(lie_g, lie_h, phi=None):
    """R = 0 from lie_h to lie_g, phi = 0 unless given."""
    fs = lie_g.field
    if phi is None:
        z = Vector(lie_h.dim, {}, fs)
        phi = ActionTensor(lie_g.dim, lie_h.dim, [[z] * lie_h.dim for _ in range(lie_g.dim)], fs)
    return LieRB(lie_g, lie_h, phi, Matrix(lie_g.dim, lie_h.dim, {}, fs))


# [e_0, e_1] = e_1 = [e_1, e_0]: not skew at the pair (0, 1).  A loop over
# (i, j) checking (0, i, j) and then (1, i, j, k) meets the Jacobi row
# (1, 0, 0, 1), [e_0, [e_0, e_1]] + [e_0, [e_1, e_0]] = 2 e_1, before the
# skew row (0, 0, 1), but the witness is the least failing tuple, (0, 0, 1).  [e_0, e_1] = e_1,
# [e_1, e_2] = e_2 (skew): Jacobi fails at the six orders of (0, 1, 2).
LIE_MUTANTS = {
    "skew": (2, {(0, 1): {1: 1}, (1, 0): {1: 1}}, 12, 5, "at=(0,0,1) lhs=[1:1] rhs=[1:-1]"),
    "jacobi": (3, {(0, 1): {1: 1}, (1, 0): {1: -1}, (1, 2): {2: 1}, (2, 1): {2: -1}}, 36, 6,
               "at=(1,0,1,2) lhs=[2:-1] rhs=[0]"),
}


@pytest.mark.parametrize("p", [None, 7], ids=["q", "f7"])
@pytest.mark.parametrize("side", ["G", "H"])
@pytest.mark.parametrize("mutant", sorted(LIE_MUTANTS))
def test_lrb_lie_fails_at_its_least_failing_tuple(mutant, side, p):
    fs = RATIONALS if p is None else FieldSpec(p)
    d, brackets, checked, failures, witness = LIE_MUTANTS[mutant]
    bad, abelian = _lie(d, brackets, fs), _lie(1, {}, fs)
    rep = check_lie_rb(_lie_rb(bad, abelian) if side == "G" else _lie_rb(abelian, bad))
    e = rep.entry(f"LRB-LIE-{side}")
    assert (e.status, e.checked, e.failures) == ("fail", checked, failures)
    if p is not None:
        witness = witness.replace("-1", str(p - 1))
    assert e.witness.text() == witness
    assert rep.entry(f"LRB-LIE-{'H' if side == 'G' else 'G'}").status == "pass"
    # the post-Lie data induced on h has h's bracket, so it fails with h
    assert rep.status("LRB-POSTLIE") == ("fail" if side == "H" else "pass")


@pytest.mark.parametrize("p", [None, 7], ids=["q", "f7"])
def test_lrb_action_fails_where_phi_is_not_a_derivation(p):
    # h = span(e_0, e_1) with [e_0, e_1] = e_1, and phi of g's one basis
    # vector the identity of h: phi([e_0, e_1]) = e_1 but
    # [phi e_0, e_1] + [e_0, phi e_1] = 2 e_1, at the pair {0, 1} alone
    fs = RATIONALS if p is None else FieldSpec(p)
    h = _lie(2, {(0, 1): {1: 1}, (1, 0): {1: -1}}, fs)
    phi = ActionTensor(1, 2, [[unit_vector(2, 0, fs), unit_vector(2, 1, fs)]], fs)
    rep = check_lie_rb(_lie_rb(_lie(1, {}, fs), h, phi))
    e = rep.entry("LRB-ACTION")
    assert (e.status, e.checked, e.failures) == ("fail", 6, 2)
    assert e.witness.text() == "at=(0,0,0,1) lhs=[1:1] rhs=[1:2]"
    assert rep.entry("LRB-LIE-G").status == rep.entry("LRB-LIE-H").status == "pass"


# --- the group axioms of a group Rota-Baxter operator fail on their own -------


def _s3_inversion_with(side: str, table):
    """The S3 inversion operator of the golden file, with the multiplication
    table of G or of H (side) replaced by table(old table)."""
    from dataclasses import replace
    from pathlib import Path

    from ydalgebra.structio import parse

    grb = parse((Path(__file__).parent / "golden" / "s3-inversion.struct").read_text())
    group = grb.group_g if side == "G" else grb.group_h
    new = GroupTable(list(group.elements), table([list(row) for row in group.mul]))
    return replace(grb, group_g=new) if side == "G" else replace(grb, group_h=new)


def test_grb_group_g_fails_on_a_table_that_is_not_associative():
    # (01)(01) = (02) instead of e: the identity row and column are kept,
    # so GRB-GROUP-G fails on its own, first on associativity, at the least
    # triple through the changed entry
    def changed(mul):
        assert mul[0] == list(range(6)) and mul[1][1] == 0
        mul[1][1] = 2
        return mul

    rep = check_group_rb(_s3_inversion_with("G", changed))
    e = rep.entry("GRB-GROUP-G")
    assert (e.status, e.checked, e.failures) == ("fail", 6 ** 3 + 1 + 6, 18)
    assert e.witness.text() == "at=(1,1,1) lhs=[associativity] rhs=[]"
    assert rep.status("GRB-GROUP-H") == "pass"


def test_grb_group_h_fails_on_a_monoid_without_inverses():
    # x y = (01) for x, y != e: associative, with identity e, so GRB-GROUP-H
    # fails on its own, on the inverse rows only, one for each of the five
    # elements other than e
    n = 6
    rep = check_group_rb(_s3_inversion_with(
        "H", lambda mul: [[j if i == 0 else i if j == 0 else 1 for j in range(n)] for i in range(n)]))
    e = rep.entry("GRB-GROUP-H")
    assert (e.status, e.checked, e.failures) == ("fail", n ** 3 + 1 + n, n - 1)
    assert e.witness.text() == "at=(inverse,1) lhs=[no inverse] rhs=[]"
    assert rep.status("GRB-GROUP-G") == "pass"


@pytest.mark.parametrize("p", [None, 7], ids=["q", "f7"])
def test_rbm_act_fails_where_g_does_not_intertwine(p):
    # f = g = (x -> -x, gx -> -gx) is an automorphism of Sweedler's H and K
    # that commutes with R = id, so RBM-F, RBM-G and RBM-COMM pass, and on
    # the operator itself every ID passes; with the action changed at one
    # entry, x >- 1 = 1 (it is eps(x) 1 = 0), g(x >- 1) = 1 while
    # f(x) >- g(1) = -1, and RBM-ACT fails there alone
    fs = RATIONALS if p is None else FieldSpec(p)
    r = functor_l(build_sweedler(1, fs) if p is None else build_sweedler(3, fs))
    ident = identity_matrix(4, fs)
    flip = Matrix(4, 4, {**ident.entries, (2, 2): -fs.one, (3, 3): -fs.one}, fs)
    assert check_rb_morphism(r, r, flip, flip).all_pass()
    act = [list(row) for row in r.action.act]
    assert act[2][0].is_zero()
    act[2][0] = unit_vector(4, 0, fs)
    bad = dataclasses.replace(r, action=ActionTensor(4, 4, act, fs))
    rep = check_rb_morphism(bad, bad, flip, flip)
    assert [e.axiom for e in rep.failed()] == ["RBM-ACT"]
    entry = rep.entry("RBM-ACT")
    minus = "-1" if p is None else str(p - 1)
    assert (entry.checked, entry.failures) == (16, 1)
    assert entry.witness.text() == f"at=(2,0) lhs=[0:1] rhs=[0:{minus}]"
