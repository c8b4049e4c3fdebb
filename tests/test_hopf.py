"""Hopf-core checkers and the convolution calculus.

The ordinary four-dimensional Hopf algebra on basis {1, g, x, xg} with
relations g*g = 1, x*x = 0, x*g = -g*x serves as the main oracle; its
tables below are written out from the relations by hand, independently of
any builder in the package.
"""

from fractions import Fraction

import pytest

from manual_structures import sweedler_transmutation_manual
from test_golden import SUITE_MUTANTS, yd_mutant
from ydalgebra import hopf
from ydalgebra.builders import build_en, build_suzuki, build_sweedler
from ydalgebra.field import RATIONALS, FieldSpec
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
from ydalgebra.linalg import LinAlgError, Matrix, Vector, identity_matrix, solve, unit_vector
from ydalgebra.posthopf import solve_beta
from ydalgebra.report import Tally
from ydalgebra.structio import emit, parse

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


# --- beta: one elimination for the d target blocks --------------------------


def ref_verify_endo_inverse(alpha, beta, c):
    """The matrix-composing check that ``_verify_endo_inverse`` replaced:
    (alpha*beta)(x) and (beta*alpha)(x) summed as matrices over Delta(x)."""
    d = c.dim
    fs = alpha.field
    ident = identity_matrix(d, fs)
    left, right = Tally(), Tally()
    for x in range(d):
        acc1 = Matrix(d, d, {}, fs)
        acc2 = Matrix(d, d, {}, fs)
        for x1, x2, s in c.comul[x]:
            acc1 = acc1.add(alpha.matrix(x1).compose(beta.matrix(x2)).scale(s))
            acc2 = acc2.add(beta.matrix(x1).compose(alpha.matrix(x2)).scale(s))
        target = ident.scale(c.eps(x))
        left.record((x,), acc1 == target, "alpha*beta", "eps Id")
        right.record((x,), acc2 == target, "beta*alpha", "eps Id")
    return left, right


def ref_hom_convolution_inverse_endo(alpha, c):
    """The per-target loop that solved beta before the d blocks shared one
    elimination: for each target y, the same matrix solved with its own
    right-hand side.  Returns (beta or None, summed kernel dimension)."""
    d = c.dim
    fs = alpha.field
    beta_cols = [[None] * d for _ in range(d)]
    kernel_total = 0
    for y in range(d):
        rows, rhs = [], {}
        for x in range(d):
            eps_x = c.eps(x)
            per_t = {}
            for x1, x2, s in c.comul[x]:
                for (t, r), av in alpha.matrix(x1).entries.items():
                    dst = per_t.setdefault(t, {})
                    col = x2 * d + r
                    w = dst.get(col)
                    w = s * av if w is None else w + s * av
                    if w:
                        dst[col] = w
                    else:
                        del dst[col]
            for t in range(d):
                if t == y and eps_x:
                    rhs[len(rows)] = eps_x
                rows.append(per_t.get(t, {}))
        mat = Matrix(len(rows), d * d, {(ri, cj): v for ri, row in enumerate(rows) for cj, v in row.items()}, fs)
        res = solve(mat, Vector(len(rows), rhs, fs))
        if res.solution is None:
            return None, kernel_total
        kernel_total += len(res.kernel)
        for z in range(d):
            beta_cols[z][y] = Vector(d, {idx % d: v for idx, v in res.solution.entries.items()
                                         if idx // d == z}, fs)
    beta = ActionTensor(d, d, beta_cols, fs)
    left, right = ref_verify_endo_inverse(alpha, beta, c)
    if left.failures:
        raise LinAlgError("self-check failed: alpha*beta != eps Id")
    if right.failures:
        if check_coalgebra(c).all_pass():
            raise LinAlgError("self-check failed: beta*alpha != eps Id")
        return None, kernel_total
    return beta, kernel_total


def _tally_key(t):
    return t.checked, t.failures, t.witness


def _assert_beta_matches_reference(alpha, c):
    res = hom_convolution_inverse_endo(alpha, c)
    beta, kernel_dim = ref_hom_convolution_inverse_endo(alpha, c)
    assert res.beta == beta
    assert res.kernel_dim == kernel_dim
    if beta is None:
        assert res.reason is not None and res.checks is None
    else:
        assert res.reason is None
        assert [_tally_key(t) for t in res.checks] == [
            _tally_key(t) for t in ref_verify_endo_inverse(alpha, beta, c)]
    return res


BETA_FIELDS = {"q": RATIONALS, "f7": FieldSpec(7), "f10007": FieldSpec(10007)}


def _beta_source(name, field):
    tridiagonal = [[F(1) if i == j else F(1, 2) if abs(i - j) == 1 else F(0) for j in range(3)]
                   for i in range(3)]
    if name == "sweedler":
        return build_sweedler(F(1), field)
    if name == "en2":
        return build_en(2, [[F(1), F(0)], [F(0), F(2)]], field)
    if name == "en3":
        return build_en(3, tridiagonal, field)
    a, b = (F(int(v)) for v in name.split(":")[1:])
    return build_suzuki(a, b, field)


@pytest.mark.parametrize("field", sorted(BETA_FIELDS))
@pytest.mark.parametrize("name", ["sweedler", "en2", "en3", "suzuki:1:1", "suzuki:1:-1",
                                  "suzuki:-1:1", "suzuki:-1:-1"])
def test_beta_matches_the_per_target_loop(name, field):
    s = _beta_source(name, BETA_FIELDS[field])
    res = _assert_beta_matches_reference(s.action, s.carrier.coalgebra)
    assert res.beta == s.beta and res.kernel_dim == 0


@pytest.mark.parametrize("name", sorted(n for n in SUITE_MUTANTS if n.endswith("-nobeta")))
def test_beta_matches_the_per_target_loop_on_golden_mutants(name):
    s = yd_mutant(*SUITE_MUTANTS[name])
    _assert_beta_matches_reference(s.action, s.carrier.coalgebra)


def _non_coassociative_coalgebra():
    # Delta(b) = b(x)1 + 1(x)b + a(x)b is counital but not coassociative
    one = F(1)
    c = CoalgebraData(3, [[(0, 0, one)], [(1, 0, one), (0, 1, one)],
                          [(2, 0, one), (0, 2, one), (1, 2, one)]],
                      Vector(3, {0: one}, RATIONALS), RATIONALS)
    assert not check_coalgebra(c).all_pass()
    return c


def test_beta_matches_the_per_target_loop_without_a_beta():
    # off a coalgebra, with the trivial action; alpha*beta with no solution
    # (g acts as 0); and a one-sided inverse (Delta(1) = 3/2 1(x)1)
    c = _non_coassociative_coalgebra()
    _assert_beta_matches_reference(_trivial_action(c), c)
    s = sweedler_transmutation_manual()
    z = Vector(4, {}, RATIONALS)
    rows = [list(r) for r in s.action.act]
    rows[1] = [z, z, z, z]
    res = _assert_beta_matches_reference(ActionTensor(4, 4, rows, RATIONALS), s.carrier.coalgebra)
    assert res.beta is None and res.reason == "alpha*beta = eps Id has no solution (at target 0)"
    m = yd_mutant("sweedler-q", "comul 0 0 0", True)
    res = _assert_beta_matches_reference(m.action, m.carrier.coalgebra)
    assert res.beta is None and res.reason == "beta*alpha != eps Id (one-sided inverse)"


@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(10007)], ids=["q", "f10007"])
def test_solve_beta_reproduces_the_dim32_builder_beta(field):
    a = [[F(1) if i == j else F(1, 2) if abs(i - j) == 1 else F(0) for j in range(4)] for i in range(4)]
    built = build_en(4, a, field)
    stripped = "".join(line for line in emit(built).splitlines(keepends=True) if not line.startswith("beta "))
    s = parse(stripped)
    assert s.beta is None
    assert solve_beta(s) == built.beta
    assert emit(s) == emit(built)
