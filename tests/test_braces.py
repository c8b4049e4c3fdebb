"""Braces, matched pairs, and the F/G and matched-pair conversions."""

from fractions import Fraction


from manual_structures import sweedler_transmutation_manual
from oracles import brace_equal, matched_pair_equal, posthopf_equal
from ydalgebra.braces import (
    MatchedPair,
    YDBrace,
    check_matched_pair,
    check_yd_brace,
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
    cyclic_group,
    group_algebra,
    group_rb_inversion,
    symmetric_group_3,
)
from ydalgebra.field import RATIONALS
from ydalgebra.hopf import ActionTensor, BraidedPair
from ydalgebra.linalg import unit_vector
from ydalgebra.posthopf import check_yd_post_hopf

F = Fraction


def small_examples():
    return [
        ("trivial", build_trivial()),
        ("sweedler", build_sweedler(1)),
        ("en2", build_en(2, [[1, 0], [0, 1]])),
        ("adjoint-s3", build_adjoint(group_algebra(symmetric_group_3()))),
        ("grouprb-s3", build_group_rb_linearization(group_rb_inversion(symmetric_group_3()))),
    ]


def test_functor_f_produces_passing_brace():
    s = sweedler_transmutation_manual()
    b = functor_f(s)
    rep = check_yd_brace(b)
    assert rep.all_pass(), rep.text()


def test_gf_and_fg_are_identities():
    for name, s in small_examples():
        b = functor_f(s)
        back = functor_g(b)
        assert posthopf_equal(back, s), name
        again = functor_f(back)
        assert brace_equal(again, b), name


def test_equal_operations_brace_on_cocommutative_hopf():
    h = group_algebra(symmetric_group_3())
    b = YDBrace(BraidedPair(h.algebra, h.coalgebra, h.antipode), h)
    rep = check_yd_brace(b)
    assert rep.all_pass(), rep.text()
    # the induced structure is the trivial-action one
    s = functor_g(b)
    assert check_yd_post_hopf(s).all_pass()


def test_equal_operations_brace_on_h4_fails_yd_membership():
    # regression: with a non-cocommutative bullet side, the adjoint coaction
    # breaks the Yetter-Drinfeld compatibility even though the Hopf-brace
    # compatibility itself collapses via the antipode axioms
    from test_hopf import h4_hopf

    h = h4_hopf()
    b = YDBrace(BraidedPair(h.algebra, h.coalgebra, h.antipode), h)
    rep = check_yd_brace(b)
    assert rep.status("HB-COMPAT") == "pass"
    assert rep.status("HB-HOPF") == "pass"
    assert rep.status("HB-YD") == "fail"


def test_brace_with_wrong_antipode_fails():
    s = sweedler_transmutation_manual()
    b = functor_f(s)
    # replace the braided antipode by the bullet-side one
    bad = YDBrace(
        BraidedPair(b.dot_side.algebra, b.dot_side.coalgebra, b.bullet_side.antipode),
        b.bullet_side,
    )
    rep = check_yd_brace(bad)
    assert not rep.all_pass()
    assert rep.status("HB-YD") == "fail" or rep.status("HB-COMPAT") == "fail"


def test_matched_pair_from_sweedler_passes():
    s = sweedler_transmutation_manual()
    mp = to_matched_pair(s)
    rep = check_matched_pair(mp)
    assert rep.all_pass(), rep.text()


def test_matched_pair_roundtrip_all_examples():
    for name, s in small_examples():
        mp = to_matched_pair(s)
        back = from_matched_pair(mp)
        assert posthopf_equal(back, s), name
        mp2 = to_matched_pair(back)
        assert matched_pair_equal(mp2, mp), name


def test_trivial_actions_matched_pair_on_c2():
    h = group_algebra(cyclic_group(2))
    d = h.dim
    fs = RATIONALS
    eps_rows = [
        [unit_vector(d, j, fs).scale(h.coalgebra.eps(i)) for j in range(d)]
        for i in range(d)
    ]
    left = ActionTensor(d, d, eps_rows, fs)
    right_rows = [
        [unit_vector(d, i, fs).scale(h.coalgebra.eps(j)) for j in range(d)]
        for i in range(d)
    ]
    right = ActionTensor(d, d, right_rows, fs)
    mp = MatchedPair(h, left, right)
    assert check_matched_pair(mp).all_pass()
    s = from_matched_pair(mp)
    # trivial actions collapse the braided product onto the Hopf one
    assert s.carrier.algebra.mul == h.algebra.mul
    assert s.carrier.s_map == h.antipode


def test_perturbed_right_action_fails_bc():
    h = group_algebra(cyclic_group(2))
    d = h.dim
    fs = RATIONALS
    eps_rows = [
        [unit_vector(d, j, fs).scale(h.coalgebra.eps(i)) for j in range(d)]
        for i in range(d)
    ]
    left = ActionTensor(d, d, eps_rows, fs)
    bad_rows = [
        [unit_vector(d, i, fs).scale(h.coalgebra.eps(j)) for j in range(d)]
        for i in range(d)
    ]
    bad_rows[1][1] = unit_vector(d, 1, fs).neg()
    right = ActionTensor(d, d, bad_rows, fs)
    rep = check_matched_pair(MatchedPair(h, left, right))
    assert rep.entry("MP-BC").status == "fail"


def test_suzuki_functor_roundtrip():
    s = build_suzuki(1, 1)
    assert posthopf_equal(functor_g(functor_f(s)), s)
    mp = to_matched_pair(s)
    assert check_matched_pair(mp).all_pass()
    assert posthopf_equal(from_matched_pair(mp), s)


def test_g_of_equal_brace_gives_trivial_action():
    h = group_algebra(symmetric_group_3())
    b = YDBrace(BraidedPair(h.algebra, h.coalgebra, h.antipode), h)
    s = functor_g(b)
    d = h.dim
    for i in range(d):
        for j in range(d):
            expected = unit_vector(d, j, RATIONALS).scale(h.coalgebra.eps(i))
            assert s.action.act[i][j] == expected


def test_folded_and_induced_ids_report_their_time():
    # HB-HOPF, RB-SPACES and LRB-POSTLIE fold a sub-report, and HB-YD builds
    # the induced post-Hopf structure and runs its suite: each entry carries
    # the time of that work, not 0
    from ydalgebra.rota import check_lie_rb, check_rel_rb, functor_l, restrict_to_primitives

    s = build_suzuki(F(1), F(-1))
    brace = check_yd_brace(functor_f(s))
    r = functor_l(s)
    rb = check_rel_rb(r, mode="full")
    lrb = check_lie_rb(restrict_to_primitives(r))
    for rep, axiom in ((brace, "HB-HOPF"), (brace, "HB-YD"), (rb, "RB-SPACES"), (lrb, "LRB-POSTLIE")):
        assert rep.status(axiom) == "pass"
        assert rep.entry(axiom).seconds > 0, axiom
