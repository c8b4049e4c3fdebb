"""Hopf-core checkers and the convolution calculus.

The ordinary four-dimensional Hopf algebra on basis {1, g, x, xg} with
relations g*g = 1, x*x = 0, x*g = -g*x serves as the main oracle; its
tables below are written out from the relations by hand, independently of
any builder in the package.
"""

from fractions import Fraction

import pytest

from ydalgebra import hopf
from ydalgebra.field import RATIONALS
from ydalgebra.hopf import (
    AlgebraData,
    CoalgebraData,
    HopfData,
    StructureError,
    check_algebra,
    check_coalgebra,
    check_hopf,
    convolution,
    convolution_inverse,
    hom_convolution_inverse_endo,
    ActionTensor,
    is_cocommutative,
    unit_counit_map,
    solve_antipode,
)
from ydalgebra.linalg import LinAlgError, Matrix, Vector, identity_matrix, unit_vector
from ydalgebra.report import Tally

F = Fraction
ONE, G, X, XG = range(4)


def vec(coeffs):
    return Vector(4, {i: F(c) for i, c in enumerate(coeffs) if c}, RATIONALS)


def h4_algebra():
    # rows e_i * e_j from g*g=1, x*x=0, x*g = -g*x (so the basis word xg = x*g)
    z = [0, 0, 0, 0]
    table = {
        (ONE, ONE): [1, 0, 0, 0], (ONE, G): [0, 1, 0, 0],
        (ONE, X): [0, 0, 1, 0], (ONE, XG): [0, 0, 0, 1],
        (G, ONE): [0, 1, 0, 0], (G, G): [1, 0, 0, 0],
        (G, X): [0, 0, 0, -1], (G, XG): [0, 0, -1, 0],
        (X, ONE): [0, 0, 1, 0], (X, G): [0, 0, 0, 1],
        (X, X): z, (X, XG): z,
        (XG, ONE): [0, 0, 0, 1], (XG, G): [0, 0, 1, 0],
        (XG, X): z, (XG, XG): z,
    }
    mul = [[vec(table[(i, j)]) for j in range(4)] for i in range(4)]
    return AlgebraData(4, ["1", "g", "x", "xg"], mul, vec([1, 0, 0, 0]), RATIONALS)


def h4_coalgebra():
    one = F(1)
    comul = [
        [(ONE, ONE, one)],
        [(G, G, one)],
        [(X, ONE, one), (G, X, one)],
        [(XG, G, one), (ONE, XG, one)],
    ]
    return CoalgebraData(4, comul, vec([1, 1, 0, 0]), RATIONALS)


def h4_antipode():
    # T(1)=1, T(g)=g, T(x)=xg, T(xg)=-x  (from the antipode identities)
    return Matrix(4, 4, {
        (ONE, ONE): F(1), (G, G): F(1), (XG, X): F(1), (X, XG): F(-1),
    }, RATIONALS)


def h4_hopf():
    return HopfData(h4_algebra(), h4_coalgebra(), h4_antipode())


def test_h4_algebra_passes():
    assert check_algebra(h4_algebra()).all_pass()


def test_field_algebra_passes():
    a = AlgebraData(
        1, ["1"],
        [[Vector(1, {0: F(1)}, RATIONALS)]],
        Vector(1, {0: F(1)}, RATIONALS), RATIONALS,
    )
    assert check_algebra(a).all_pass()


def test_perturbed_h4_fails_associativity():
    a = h4_algebra()
    a.mul[X][X] = vec([1, 0, 0, 0])
    rep = check_algebra(a)
    entry = rep.entry("ALG-ASSOC")
    assert entry.status == "fail"
    # lexicographically first failure is (g,x,x); (x,x,g) fails as well:
    # (x*x)*g = g while x*(x*g) = 0
    assert entry.witness.where == (G, X, X)
    lhs = a.mul_vec_basis(a.mul[X][X], G)
    rhs = a.mul_basis_vec(X, a.mul[X][G])
    assert lhs != rhs


def test_grouplike_coalgebra_passes():
    comul = [[(i, i, F(1))] for i in range(3)]
    c = CoalgebraData(3, comul, Vector(3, {i: F(1) for i in range(3)}, RATIONALS), RATIONALS)
    assert check_coalgebra(c).all_pass()


def test_h4_coalgebra_passes():
    assert check_coalgebra(h4_coalgebra()).all_pass()


def test_broken_counit_fails():
    comul = [
        [(ONE, ONE, F(1))],
        [(G, G, F(1))],
        [(X, ONE, F(1))],          # missing the g (x) x leg
        [(XG, G, F(1)), (ONE, XG, F(1))],
    ]
    c = CoalgebraData(4, comul, vec([1, 1, 0, 0]), RATIONALS)
    rep = check_coalgebra(c)
    assert rep.entry("COALG-COUNIT").status == "fail"


def test_h4_hopf_passes():
    assert check_hopf(h4_hopf()).all_pass()


def test_c2_group_algebra_hopf_passes():
    one = F(1)
    mul = [
        [Vector(2, {0: one}, RATIONALS), Vector(2, {1: one}, RATIONALS)],
        [Vector(2, {1: one}, RATIONALS), Vector(2, {0: one}, RATIONALS)],
    ]
    a = AlgebraData(2, ["e", "t"], mul, Vector(2, {0: one}, RATIONALS), RATIONALS)
    c = CoalgebraData(2, [[(0, 0, one)], [(1, 1, one)]],
                      Vector(2, {0: one, 1: one}, RATIONALS), RATIONALS)
    h = HopfData(a, c, identity_matrix(2, RATIONALS))
    assert check_hopf(h).all_pass()
    assert is_cocommutative(c)


def test_h4_antipode_sign_flip_fails():
    h = h4_hopf()
    bad = Matrix(4, 4, {
        (ONE, ONE): F(1), (G, G): F(1), (XG, X): F(-1), (X, XG): F(-1),
    }, RATIONALS)
    rep = check_hopf(HopfData(h.algebra, h.coalgebra, bad))
    assert rep.entry("HOPF-ANTIPODE").status == "fail"


def test_convolution_unit_idempotent():
    a, c = h4_algebra(), h4_coalgebra()
    ue = unit_counit_map(c, a)
    assert convolution(ue, ue, c, a) == ue


def test_convolution_id_star_antipode_is_unit():
    a, c = h4_algebra(), h4_coalgebra()
    ident = identity_matrix(4, RATIONALS)
    ue = unit_counit_map(c, a)
    assert convolution(ident, h4_antipode(), c, a) == ue
    assert convolution(h4_antipode(), ident, c, a) == ue


def test_convolution_id_id_squares_grouplikes():
    one = F(1)
    comul = [[(i, i, one)] for i in range(2)]
    c = CoalgebraData(2, comul, Vector(2, {0: one, 1: one}, RATIONALS), RATIONALS)
    mul = [
        [Vector(2, {0: one}, RATIONALS), Vector(2, {1: one}, RATIONALS)],
        [Vector(2, {1: one}, RATIONALS), Vector(2, {0: one}, RATIONALS)],
    ]
    a = AlgebraData(2, ["e", "t"], mul, Vector(2, {0: one}, RATIONALS), RATIONALS)
    ident = identity_matrix(2, RATIONALS)
    sq = convolution(ident, ident, c, a)
    for i in range(2):
        assert sq.column(i) == a.mul_vec(unit_vector(2, i, RATIONALS), unit_vector(2, i, RATIONALS))


def test_convolution_inverse_of_unit_map():
    a, c = h4_algebra(), h4_coalgebra()
    ue = unit_counit_map(c, a)
    assert convolution_inverse(ue, c, a) == ue


def test_solve_antipode_recovers_h4_antipode():
    a, c = h4_algebra(), h4_coalgebra()
    assert solve_antipode(a, c) == h4_antipode()


def test_convolution_inverse_none_for_nilpotent_grouplike():
    # 2-dim algebra e*e = 0 with Delta(e) = e (x) e: the identity map has no
    # convolution inverse because e would need an inverse-like partner
    one = F(1)
    mul = [
        [Vector(2, {0: one}, RATIONALS), Vector(2, {1: one}, RATIONALS)],
        [Vector(2, {1: one}, RATIONALS), Vector(2, {}, RATIONALS)],
    ]
    a = AlgebraData(2, ["1", "e"], mul, Vector(2, {0: one}, RATIONALS), RATIONALS)
    c = CoalgebraData(2, [[(0, 0, one)], [(1, 1, one)]],
                      Vector(2, {0: one, 1: one}, RATIONALS), RATIONALS)
    assert convolution_inverse(identity_matrix(2, RATIONALS), c, a) is None


def _trivial_action(c):
    rows = [[unit_vector(c.dim, j, RATIONALS).scale(c.eps(i)) for j in range(c.dim)]
            for i in range(c.dim)]
    return ActionTensor(c.dim, c.dim, rows, RATIONALS)


def test_hom_convolution_inverse_trivial_action():
    c = h4_coalgebra()
    alpha = _trivial_action(c)
    res = hom_convolution_inverse_endo(alpha, c)
    assert res.beta is not None and res.kernel_dim == 0
    assert res.beta.act == alpha.act


def test_tensor_vectors_must_have_the_tensor_dimension():
    # product and action results are built unchecked from these vectors'
    # indices, so the containers reject a vector of another dimension
    short = Vector(2, {0: F(1)}, RATIONALS)
    a = h4_algebra()
    mul = [list(row) for row in a.mul]
    mul[1][2] = short
    with pytest.raises(StructureError):
        AlgebraData(4, a.basis_labels, mul, a.unit, RATIONALS)
    rows = [[vec([1, 0, 0, 0])] * 4 for _ in range(4)]
    rows[3][0] = short
    with pytest.raises(StructureError):
        ActionTensor(4, 4, rows, RATIONALS)


def test_convolution_inverse_failed_self_check_raises(monkeypatch):
    # the system holds f*g and g*f, so a failed re-check is a solver bug
    real = hopf.convolution

    def corrupted(f, g, c, a):
        m = real(f, g, c, a)
        return m.add(identity_matrix(m.rows, m.field))

    monkeypatch.setattr(hopf, "convolution", corrupted)
    with pytest.raises(LinAlgError, match="self-check"):
        solve_antipode(h4_algebra(), h4_coalgebra())


def _verdicts(*oks) -> tuple:
    """The tallies of ``_verify_endo_inverse``, one tuple each, failing where
    ok is False."""
    out = []
    for ok in oks:
        t = Tally()
        t.record((0,), ok)
        out.append(t)
    return tuple(out)


@pytest.mark.parametrize("sides", [(False, True), (True, False)], ids=["alpha-beta", "beta-alpha"])
def test_hom_convolution_inverse_failed_self_check_raises(monkeypatch, sides):
    # over a coalgebra, Hom(C, End(H)) is a finite-dimensional algebra, where
    # a one-sided inverse is two-sided: either failure is a solver bug
    c = h4_coalgebra()
    monkeypatch.setattr(hopf, "_verify_endo_inverse", lambda alpha, beta, coalg: _verdicts(*sides))
    with pytest.raises(LinAlgError, match="self-check"):
        hom_convolution_inverse_endo(_trivial_action(c), c)


def test_hom_convolution_inverse_one_sided_off_a_coalgebra(monkeypatch):
    # Delta(b) = b(x)1 + 1(x)b + a(x)b is counital but not coassociative;
    # there beta*alpha may fail for real, and no beta is returned
    one = F(1)
    c = CoalgebraData(3, [[(0, 0, one)], [(1, 0, one), (0, 1, one)],
                          [(2, 0, one), (0, 2, one), (1, 2, one)]],
                      Vector(3, {0: one}, RATIONALS), RATIONALS)
    assert not check_coalgebra(c).all_pass()
    monkeypatch.setattr(hopf, "_verify_endo_inverse", lambda alpha, beta, coalg: _verdicts(True, False))
    assert hom_convolution_inverse_endo(_trivial_action(c), c).beta is None
