"""Hopf-core checkers and the convolution calculus.

The ordinary four-dimensional Hopf algebra on basis {1, g, x, xg} with
relations g*g = 1, x*x = 0, x*g = -g*x serves as the main oracle; its
tables below are written out from the relations by hand, independently of
any builder in the package.
"""

import random
from fractions import Fraction

import pytest

from manual_structures import sweedler_transmutation_manual
from oracles import act_apply, comul_vec, eps_vec, matrix_add, matrix_scale, mul_vec
from test_golden import SUITE_MUTANTS, yd_mutant
from ydalgebra import compiled, hopf
from ydalgebra.builders import (
    build_en, build_group_rb_linearization, build_suzuki, build_sweedler, cyclic_group, group_rb_identity,
    group_rb_inversion, symmetric_group_3,
)
from ydalgebra.field import RATIONALS, FieldSpec
from ydalgebra.hopf import (
    AlgebraData,
    BraidedPair,
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
from ydalgebra import linalg
from ydalgebra.compiled import IntTable
from ydalgebra.linalg import (
    LinAlgError, Matrix, Vector, identity_matrix, matrix_from_columns, solve, solve_many,
    unit_vector,
)
from ydalgebra.posthopf import YDPostHopf, bullet_algebra, solve_beta
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
    lhs = mul_vec(a, a.mul[X][X], unit_vector(4, G, RATIONALS))
    rhs = mul_vec(a, unit_vector(4, X, RATIONALS), a.mul[X][G])
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
        assert sq.column(i) == mul_vec(a, unit_vector(2, i, RATIONALS), unit_vector(2, i, RATIONALS))


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


def _plus_e0(table: IntTable, k: int) -> IntTable:
    """The right-hand table of ``convolution_unit_law``, one column per
    g(e_k), with e_0 added to the column of g(e_k)."""
    rows = list(table.rows)
    col = dict(rows[k][0])
    col[0] = col.get(0, 0) + table.scale
    rows[k] = [tuple(sorted((t, v) for t, v in col.items() if v))]
    return IntTable(rows, table.scale)


def test_convolution_inverse_failed_self_check_raises(monkeypatch):
    # each row of the system is a coefficient of f*g, so f*g failing its
    # re-check on the solved g is a solver bug: corrupt the re-check's
    # reading of g
    real = hopf.convolution_unit_law
    monkeypatch.setattr(hopf, "convolution_unit_law",
                        lambda left, right, c, unit, **kw: real(left, _plus_e0(right, 1), c, unit, **kw))
    with pytest.raises(LinAlgError, match="self-check"):
        solve_antipode(h4_algebra(), h4_coalgebra())


def test_convolution_inverse_corrupted_back_substitution_raises(monkeypatch):
    # the solution itself corrupted: the f*g re-check is the solver's check
    real = linalg._back_substitute_all

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        out[0][0] = out[0].get(0, 0) + 1 or 1
        return out

    monkeypatch.setattr(linalg, "_back_substitute_all", corrupted)
    with pytest.raises(LinAlgError, match="self-check failed: f\\*g"):
        solve_antipode(h4_algebra(), h4_coalgebra())


def _failing_call(monkeypatch, n: int) -> None:
    """Make the n-th call of ``hopf.convolution_unit_law`` report one more
    failure, at (0,), as a corrupted re-check would."""
    real = hopf.convolution_unit_law
    calls = []

    def law(*args, **kw):
        calls.append(None)
        t = real(*args, **kw)
        if len(calls) == n:
            t.record((0,), False)
        return t

    monkeypatch.setattr(hopf, "convolution_unit_law", law)


@pytest.mark.parametrize("n", [1, 2], ids=["alpha-beta", "beta-alpha"])
def test_hom_convolution_inverse_failed_self_check_raises(monkeypatch, n):
    # over a coalgebra, Hom(C, End(H)) is a finite-dimensional algebra, where
    # a one-sided inverse is two-sided: either failure is a solver bug
    c = h4_coalgebra()
    _failing_call(monkeypatch, n)
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
    _failing_call(monkeypatch, 2)
    assert hom_convolution_inverse_endo(_trivial_action(c), c).beta is None


# --- beta: one elimination for the d target blocks --------------------------


def _action_matrix(act, i):
    """The map e_i >- . as a Matrix."""
    return matrix_from_columns(act.act[i], act.field)


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
            acc1 = matrix_add(acc1, matrix_scale(_action_matrix(alpha, x1).compose(_action_matrix(beta, x2)), s))
            acc2 = matrix_add(acc2, matrix_scale(_action_matrix(beta, x1).compose(_action_matrix(alpha, x2)), s))
        target = matrix_scale(ident, c.eps(x))
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
                for (t, r), av in _action_matrix(alpha, x1).entries.items():
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


# --- convolution inverses on compiled int rows --------------------------------


def ref_convolution_inverse(f, c, a):
    """The two-sided Vector-path solver that ``convolution_inverse``
    replaced: rows for f*g and for g*f, from left and right multiplication
    matrices, solved as one system and re-checked with ``convolution``."""
    d = c.dim
    fs = a.field
    lmul, rmul = {}, {}
    for j in range(d):
        v = f.column(j)
        lmul[j] = matrix_from_columns([mul_vec(a, v, unit_vector(d, r, fs)) for r in range(d)], fs)
        rmul[j] = matrix_from_columns([mul_vec(a, unit_vector(d, r, fs), v) for r in range(d)], fs)
    rows, rhs = [], {}
    for i in range(d):
        eps_i = c.eps(i)
        lrow, rrow = {}, {}
        for j, k, s in c.comul[i]:
            for (t, r), av in lmul[j].entries.items():
                dst = lrow.setdefault(t, {})
                dst[k * d + r] = dst.get(k * d + r, fs.zero) + s * av
            for (t, r), av in rmul[k].entries.items():
                dst = rrow.setdefault(t, {})
                dst[j * d + r] = dst.get(j * d + r, fs.zero) + s * av
        for t in range(d):
            target = eps_i * a.unit.get(t)
            for half in (lrow, rrow):
                if target:
                    rhs[len(rows)] = target
                rows.append(half.get(t, {}))
    mat = Matrix(len(rows), d * d, {(ri, cj): v for ri, row in enumerate(rows) for cj, v in row.items()}, fs)
    res = solve(mat, Vector(len(rows), rhs, fs))
    if res.solution is None:
        return None
    if res.kernel:
        raise StructureError("convolution inverse system is underdetermined")
    g = Matrix(d, d, {(r, k): v for idx, v in res.solution.entries.items() for k, r in [divmod(idx, d)]}, fs)
    ue = unit_counit_map(c, a)
    if convolution(f, g, c, a) != ue or convolution(g, f, c, a) != ue:
        raise LinAlgError("self-check failed")
    return g


def _reduced(v, fs):
    return Vector(v.dim, {i: fs.scalar(x.numerator, x.denominator) for i, x in v.entries.items()}, fs)


def _h4_over(fs):
    """The hand-written h4 tables over fs."""
    a, c = h4_algebra(), h4_coalgebra()
    if fs.p is None:
        return a, c
    alg = AlgebraData(4, a.basis_labels, [[_reduced(v, fs) for v in row] for row in a.mul],
                      _reduced(a.unit, fs), fs)
    co = CoalgebraData(4, [[(j, k, fs.scalar(x.numerator, x.denominator)) for j, k, x in t] for t in c.comul],
                       _reduced(c.counit, fs), fs)
    return alg, co


def _nilpotent_grouplike(fs):
    # e*e = 0 with Delta(e) = e (x) e: the identity has no convolution inverse
    one, z = fs.one, Vector(2, {}, fs)
    mul = [[Vector(2, {0: one}, fs), Vector(2, {1: one}, fs)], [Vector(2, {1: one}, fs), z]]
    a = AlgebraData(2, ["1", "e"], mul, Vector(2, {0: one}, fs), fs)
    c = CoalgebraData(2, [[(0, 0, one)], [(1, 1, one)]], Vector(2, {0: one, 1: one}, fs), fs)
    return a, c


SOLVER_CASES = ["h4", "nilpotent", "sweedler", "en2", "en3", "suzuki:1:1", "suzuki:1:-1", "suzuki:-1:1",
                "suzuki:-1:-1"]


def _solver_algebras(name, fs):
    """(algebra, coalgebra) pairs: the carrier and the subadjacent (bullet)
    algebra of a built structure, or the hand-written tables."""
    if name == "h4":
        return [_h4_over(fs)]
    if name == "nilpotent":
        return [_nilpotent_grouplike(fs)]
    s = _beta_source(name, fs)
    return [(s.carrier.algebra, s.carrier.coalgebra), (bullet_algebra(s), s.carrier.coalgebra)]


@pytest.mark.parametrize("field", sorted(BETA_FIELDS))
@pytest.mark.parametrize("name", SOLVER_CASES)
def test_antipode_matches_the_two_sided_vector_solver(name, field):
    fs = BETA_FIELDS[field]
    for a, c in _solver_algebras(name, fs):
        got = solve_antipode(a, c)
        assert got == ref_convolution_inverse(identity_matrix(a.dim, fs), c, a)
        assert (got is None) == (name == "nilpotent")


def _non_coassociative_right_inverse():
    # over the non-coassociative coalgebra below, in the associative
    # k[a, b]/(a, b)^2, the map 1, a -> 1, b -> b has a right convolution
    # inverse that is not a left one
    c = _non_coassociative_coalgebra()
    one = F(1)
    z = Vector(3, {}, RATIONALS)
    e = [unit_vector(3, i, RATIONALS) for i in range(3)]
    a = AlgebraData(3, ["1", "a", "b"], [[e[0], e[1], e[2]], [e[1], z, z], [e[2], z, z]], e[0], RATIONALS)
    assert check_algebra(a).all_pass()
    f = Matrix(3, 3, {(0, 0): one, (0, 1): one, (2, 2): one}, RATIONALS)
    return f, c, a


def test_convolution_inverse_one_sided_off_a_coalgebra(monkeypatch):
    # f*g = eps 1 solves and g*f does not: no inverse, and no exception
    f, c, a = _non_coassociative_right_inverse()
    real = hopf.convolution_unit_law
    verdicts = []

    def counted(*args, **kw):
        t = real(*args, **kw)
        verdicts.append(t.failures == 0)
        return t

    monkeypatch.setattr(hopf, "convolution_unit_law", counted)
    assert convolution_inverse(f, c, a) is None
    assert verdicts == [True, False]
    assert ref_convolution_inverse(f, c, a) is None


def test_convolution_inverse_rechecks_render_no_witness(monkeypatch):
    # g*f fails, and so does the coalgebra check behind it: the solver reads
    # only their counts, so no side is rendered on the way to None
    f, c, a = _non_coassociative_right_inverse()
    assert not check_coalgebra(c).all_pass()

    def unrendered(*args):
        raise AssertionError("a witness was rendered")

    monkeypatch.setattr(compiled, "render_sides", unrendered)
    assert convolution_inverse(f, c, a) is None
    with pytest.raises(AssertionError, match="rendered"):
        check_coalgebra(c)


def test_convolution_inverse_failed_g_star_f_on_valid_axioms_raises(monkeypatch):
    # over a coalgebra and an algebra a right inverse is two-sided: a g*f
    # re-check that fails is a solver bug
    real = hopf.convolution_unit_law
    calls = []

    def second_corrupted(left, right, c, unit, **kw):
        calls.append(None)
        return real(left, _plus_e0(right, 1) if len(calls) == 2 else right, c, unit, **kw)

    monkeypatch.setattr(hopf, "convolution_unit_law", second_corrupted)
    with pytest.raises(LinAlgError, match="self-check failed: g\\*f"):
        solve_antipode(h4_algebra(), h4_coalgebra())
    assert len(calls) == 2


def ref_matrix_hom_convolution_inverse_endo(alpha, c):
    """beta as it was solved before the compiled rows: the block assembled
    with scalar operators into a checking ``Matrix`` and solved by
    ``solve_many``, then checked by ``ref_verify_endo_inverse``.  Returns
    (beta or None, kernel_dim, reason)."""
    d = c.dim
    fs = alpha.field
    entries = {}
    for x in range(d):
        for x1, x2, s in c.comul[x]:
            for (t, r), av in _action_matrix(alpha, x1).entries.items():
                key = (x * d + t, x2 * d + r)
                entries[key] = entries.get(key, fs.zero) + s * av
    mat = Matrix(d * d, d * d, entries, fs)
    rhs = [Vector(d * d, {x * d + y: c.eps(x) for x in range(d)}, fs) for y in range(d)]
    sols, kern = solve_many(mat, rhs)
    for y, sol in enumerate(sols):
        if sol is None:
            return None, y * len(kern), f"alpha*beta = eps Id has no solution (at target {y})"
    cols = [[{} for _ in range(d)] for _ in range(d)]
    for y, sol in enumerate(sols):
        for idx, v in sol.entries.items():
            z, r = divmod(idx, d)
            cols[z][y][r] = v
    beta = ActionTensor(d, d, [[Vector(d, e, fs) for e in row] for row in cols], fs)
    left, right = ref_verify_endo_inverse(alpha, beta, c)
    if left.failures or (right.failures and check_coalgebra(c).all_pass()):
        raise LinAlgError("self-check failed")
    if right.failures:
        return None, d * len(kern), "beta*alpha != eps Id (one-sided inverse)"
    return beta, d * len(kern), None


def _assert_endo_matches_matrix_solver(alpha, c):
    res = hom_convolution_inverse_endo(alpha, c)
    assert (res.beta, res.kernel_dim, res.reason) == ref_matrix_hom_convolution_inverse_endo(alpha, c)


@pytest.mark.parametrize("field", sorted(BETA_FIELDS))
@pytest.mark.parametrize("name", SOLVER_CASES[2:])
def test_beta_matches_the_matrix_solver(name, field):
    s = _beta_source(name, BETA_FIELDS[field])
    _assert_endo_matches_matrix_solver(s.action, s.carrier.coalgebra)


def test_beta_matches_the_matrix_solver_without_a_beta():
    c = _non_coassociative_coalgebra()
    _assert_endo_matches_matrix_solver(_trivial_action(c), c)
    for name in sorted(n for n in SUITE_MUTANTS if n.endswith("-nobeta")):
        s = yd_mutant(*SUITE_MUTANTS[name])
        _assert_endo_matches_matrix_solver(s.action, s.carrier.coalgebra)


def test_beta_matches_the_matrix_solver_on_a_beta_stripped_dim32_file():
    a = [[F(1) if i == j else F(1, 2) if abs(i - j) == 1 else F(0) for j in range(4)] for i in range(4)]
    built = build_en(4, a)
    s = parse("".join(line for line in emit(built).splitlines(keepends=True) if not line.startswith("beta ")))
    assert s.beta is None
    _assert_endo_matches_matrix_solver(s.action, s.carrier.coalgebra)


@pytest.mark.parametrize("build", ["suzuki", "en2"])
def test_solvers_make_no_vector_path_calls(monkeypatch, build):
    # the antipode and beta are assembled, solved and re-checked on int rows
    s = build_suzuki(1, -1) if build == "suzuki" else _beta_source("en2", RATIONALS)
    a, c = s.carrier.algebra, s.carrier.coalgebra
    calls = []

    def counting(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(Matrix, "apply", counting("apply", Matrix.apply))
    assert solve_antipode(a, c) == s.carrier.s_map
    res = hom_convolution_inverse_endo(s.action, c)
    assert res.beta == s.beta
    assert all(t.failures == 0 for t in hopf._verify_endo_inverse(s.action, s.beta, c))
    assert calls == []


@pytest.mark.parametrize("name", ["en2-q", "sweedler-f7", "suzuki-q"])
def test_hopf_layer_checks_make_no_vector_path_calls(monkeypatch, name):
    # the carrier, bialgebra and antipode checks, the P-COALG and P-S steps
    # and the re-check of S_K run on the compiled tables
    from itertools import islice

    from test_golden import GOLDEN
    from ydalgebra import compiled, posthopf, rota
    from ydalgebra.posthopf import _post_hopf_steps, subadjacent_hopf
    from ydalgebra.rota import antipode_sk, functor_l

    s = parse((GOLDEN / f"{name}.struct").read_text())
    r = functor_l(parse((GOLDEN / f"{name}.struct").read_text()))
    calls, active = [], []

    def counting(fn, real):
        def counted(*args, **kwargs):
            if active:
                calls.append(fn)
            return real(*args, **kwargs)
        return counted

    for mod in (linalg, hopf, compiled, posthopf, rota):
        if hasattr(mod, "accumulate"):
            monkeypatch.setattr(mod, "accumulate", counting("accumulate", linalg.accumulate))
    real_law = rota.antipode_law

    def recheck(*args):
        active.append(True)
        try:
            return real_law(*args)
        finally:
            active.pop()

    monkeypatch.setattr(rota, "antipode_law", recheck)
    sk = antipode_sk(r)
    sub = subadjacent_hopf(s, verify=False)
    active.append(True)
    steps = [e.axiom for step in islice(_post_hopf_steps(s), 4) for e in step]
    reps = [check_algebra(r.k_alg), check_coalgebra(r.k_coalg), check_hopf(r.h), check_hopf(sub)]
    active.pop()
    assert steps == ["ALG-ASSOC", "ALG-UNIT", "COALG-COASSOC", "COALG-COUNIT", "P-COALG", "P-S"]
    assert all(rep.all_pass() for rep in reps) and sk == s.carrier.s_map
    assert calls == []


# --- the convolution systems solved level by level ---------------------------
#
# hopf._solve_convolution must return exactly what solve_rows returns on the
# whole system of _convolution_rows, the reference below, which builds every
# row at once: the same solution Vectors (their entries in the same order),
# the same kernel, the same None.  Each case runs the three solves S, S_> and
# beta with the level solver wrapped, replays every call on the whole
# system, and compares the solvers' values, errors, kernel dimensions and
# reasons with those of a run on the whole-system solve.


def _convolution_rows(left, comul, n, rhs, fs):
    """The int rows of (f*g)(x) = sum over Delta(x) of c f_{x_1} g(x_2), one
    row (x, t) per coefficient t of the value, for the unknown g: unknown
    k * n + r is the e_r coefficient of g(e_k), and left[j][r] holds the
    (t, v) of f_j applied to e_r, at the scale of its table.  rhs maps a row
    (x, t) to (k, e): the field scalar e, carried in column ncols + k.  Over
    Q the row's int sums carry left's scale times the coproduct's, so the
    right-hand side is e times that scale, and the row is multiplied by e's
    denominator; over F_p the rows are the residues in [1, p)."""
    p = fs.p
    ncols = len(comul.rows) * n
    scale = left.scale * comul.scale
    left = left.rows
    out = []
    for x, legs in enumerate(comul.rows):
        per_t = [{} for _ in range(n)]
        for j, k, c in legs:
            base = k * n
            for r, col in enumerate(left[j]):
                key = base + r
                for t, v in col:
                    row = per_t[t]
                    row[key] = row.get(key, 0) + c * v
        for t, row in enumerate(per_t):
            row = dict(compiled.int_items(row, p))
            target = rhs.get((x, t))
            if target is not None:
                k, e = target
                if p is None:
                    en, q = e.numerator, e.denominator
                    if q != 1:
                        row = {key: v * q for key, v in row.items()}
                    row[ncols + k] = en * scale
                elif e.value * scale % p:
                    row[ncols + k] = e.value * scale % p
            out.append(row)
    return out


def _whole_system(left, c, n, rhs, nrhs, fs):
    return linalg.solve_rows(_convolution_rows(left, c.int_comul(), n, rhs, fs), c.dim * n, nrhs, fs)


def _solve_result(out):
    sols, kern = out
    return ([None if v is None else (v.dim, list(v.entries.items())) for v in sols],
            [(v.dim, list(v.entries.items())) for v in kern])


def _outcome(fn, *args):
    """What a solver gives, made comparable: its value or its error."""
    try:
        res = fn(*args)
    except (StructureError, LinAlgError) as e:
        return type(e).__name__, str(e)
    if isinstance(res, hopf.EndoInverse):
        beta = None if res.beta is None else [[list(v.entries.items()) for v in row] for row in res.beta.act]
        return beta, res.kernel_dim, res.reason
    return None if res is None else list(res.entries.items())


def _bullet(alg, coalg, action):
    """x o y = x_1 (x_2 >- y), on an algebra and action that need not form a
    structure; ``bullet_algebra`` reads no antipode, so the identity stands
    in for one."""
    carrier = BraidedPair(alg, coalg, identity_matrix(alg.dim, alg.field))
    return bullet_algebra(YDPostHopf(carrier, action))


def _solver_outcomes(alg, coalg, action):
    """S, S_> and beta, each as ``_outcome`` gives it."""
    return [_outcome(solve_antipode, alg, coalg), _outcome(solve_antipode, _bullet(alg, coalg, action), coalg),
            _outcome(hom_convolution_inverse_endo, action, coalg)]


def _levels_match_whole(monkeypatch, alg, coalg, action):
    """Assert that every level-solver call equals the whole-system solve on
    its own arguments and that the solvers give what they give on the
    whole-system solve; returns the outcomes.  Systems of fewer than
    ``_LEVEL_MIN_BLOCKS`` blocks are solved by levels here too."""
    monkeypatch.setattr(hopf, "_LEVEL_MIN_BLOCKS", 1)
    calls = []
    real = hopf._solve_convolution

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(hopf, "_solve_convolution", spy)
    levelled = _solver_outcomes(alg, coalg, action)
    assert len(calls) == 3
    for args, out in calls:
        assert _solve_result(out) == _solve_result(_whole_system(*args))
    monkeypatch.setattr(hopf, "_solve_convolution", _whole_system)
    assert _solver_outcomes(alg, coalg, action) == levelled
    return levelled


def _parts(s):
    return s.carrier.algebra, s.carrier.coalgebra, s.action


def _en_matrix(n, off):
    a = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    if off:
        if n == 1:
            a[0][0] = F(2, 3)
        else:
            a[0][1] = a[1][0] = F(1, 2)
    return a


LEVEL_STRUCTURES = {
    **{f"en{n}-{'off' if off else 'id'}": (lambda fs, n=n, off=off: build_en(n, _en_matrix(n, off), fs))
       for n in (1, 2, 3) for off in (False, True)},
    **{f"suzuki{a:+d}{b:+d}": (lambda fs, a=a, b=b: build_suzuki(a, b, fs)) for a in (1, -1) for b in (1, -1)},
    "sweedler": lambda fs: build_sweedler(1, fs),
    "s3-inversion": lambda fs: build_group_rb_linearization(group_rb_inversion(symmetric_group_3()), fs),
    "c4-identity": lambda fs: build_group_rb_linearization(group_rb_identity(cyclic_group(4)), fs),
}
LEVEL_FIELDS = {"q": RATIONALS, "f7": FieldSpec(7), "f10007": FieldSpec(10007)}


@pytest.mark.parametrize("field", sorted(LEVEL_FIELDS))
@pytest.mark.parametrize("name", sorted(LEVEL_STRUCTURES))
def test_level_solve_equals_the_whole_system(monkeypatch, name, field):
    s = LEVEL_STRUCTURES[name](LEVEL_FIELDS[field])
    s_map, sharp, endo = _levels_match_whole(monkeypatch, *_parts(s))
    assert dict(s_map) == s.carrier.s_map.entries
    assert endo[1:] == (0, None)


def _one_level_rows(monkeypatch, alg, coalg, action):
    """Run S, S_> and beta with every ``solve_rows`` call recorded; assert
    that each call on the whole system (ncols d * n, a one-level solve) is
    its solve's last and is handed exactly the rows of ``_convolution_rows``,
    items and key order both; return how many there were."""
    calls = []
    real_solve, real_rows = hopf._solve_convolution, hopf.solve_rows

    def solve(*args):
        calls.append((args, []))
        return real_solve(*args)

    def rows(*args):
        calls[-1][1].append(([list(row.items()) for row in args[0]], *args[1:]))
        return real_rows(*args)

    monkeypatch.setattr(hopf, "_solve_convolution", solve)
    monkeypatch.setattr(hopf, "solve_rows", rows)
    _solver_outcomes(alg, coalg, action)
    assert len(calls) == 3
    whole = 0
    for (left, c, n, rhs, nrhs, fs), seen in calls:
        for i, (got, ncols, k, sfs) in enumerate(seen):
            if ncols == c.dim * n:
                whole += 1
                assert i == len(seen) - 1 and (k, sfs) == (nrhs, fs)
                assert got == [list(row.items()) for row in _convolution_rows(left, c.int_comul(), n, rhs, fs)]
    return whole


@pytest.mark.parametrize("field", sorted(LEVEL_FIELDS))
@pytest.mark.parametrize("name", sorted(LEVEL_STRUCTURES))
def test_one_level_rows_are_the_whole_system_rows(monkeypatch, name, field):
    # every system solved as one level, by raising the level threshold
    monkeypatch.setattr(hopf, "_LEVEL_MIN_BLOCKS", 10 ** 9)
    assert _one_level_rows(monkeypatch, *_parts(LEVEL_STRUCTURES[name](LEVEL_FIELDS[field]))) == 3


def test_level_shapes():
    # E(n) peels along the coradical filtration; Suzuki's unit and one more
    # block come first, then 14 blocks jointly; a group algebra is one level
    shapes = {name: [len(level) for level in hopf._convolution_levels(s.carrier.coalgebra)]
              for name, s in [("en3", build_en(3, _en_matrix(3, False))), ("en4", _en4()),
                              ("suzuki", build_suzuki(1, -1)),
                              ("s3", build_group_rb_linearization(group_rb_inversion(symmetric_group_3())))]}
    assert shapes == {"en3": [2, 6, 6, 2], "en4": [2, 8, 12, 8, 2], "suzuki": [1, 1, 14], "s3": [6]}


def _en4():
    return build_en(4, [[1 if i == j else 0 for j in range(4)] for i in range(4)])


@pytest.mark.parametrize("name, calls", [("en1-id", 1), ("en2-id", 1), ("en3-id", 4), ("suzuki+1-1", 1)])
def test_levels_are_solved_from_16_blocks_on(monkeypatch, name, calls):
    # one solve_rows call per level of E(3); one whole-system call below 16
    # blocks (Sweedler is E(1)) and for Suzuki's level of 14 of 16 blocks
    s = LEVEL_STRUCTURES[name](RATIONALS)
    seen = []
    real = linalg.solve_rows
    monkeypatch.setattr(hopf, "solve_rows", lambda *args: seen.append(args[1]) or real(*args))
    assert solve_antipode(s.carrier.algebra, s.carrier.coalgebra) == s.carrier.s_map
    assert len(seen) == calls and sum(seen) == s.dim ** 2


def _moved(s, seed):
    """The structure s on the basis f_i = P e_i, for P the product of two
    seeded elementary operations e_i += c e_j, c = +-1: unimodular, so P and
    P^-1 are integral."""
    alg, coalg, act, fs = *_parts(s), s.field
    d = alg.dim
    rng = random.Random(seed)
    p = identity_matrix(d, fs)
    for _ in range(2):
        i, j = rng.sample(range(d), 2)
        p = p.compose(Matrix(d, d, {**identity_matrix(d, fs).entries, (i, j): fs.scalar(rng.choice((-1, 1)))}, fs))
    q = linalg.invert(p)
    f = [p.column(i) for i in range(d)]
    mul = [[q.apply(mul_vec(alg, u, v)) for v in f] for u in f]
    comul = []
    for u in f:
        terms = {}
        for (j, k), x in comul_vec(coalg, u).items():
            for a, y in q.column(j).entries.items():
                for b, z in q.column(k).entries.items():
                    terms[(a, b)] = terms.get((a, b), 0) + x * y * z
        comul.append([(a, b, v) for (a, b), v in sorted(terms.items()) if v])
    counit = Vector(d, {i: eps_vec(coalg, u) for i, u in enumerate(f)}, fs)
    moved_alg = AlgebraData(d, list(alg.basis_labels), mul, q.apply(alg.unit), fs)
    moved_act = ActionTensor(d, d, [[q.apply(act_apply(act, u, v)) for v in f] for u in f], fs)
    return moved_alg, CoalgebraData(d, comul, counit, fs), moved_act


@pytest.mark.parametrize("seed, shape", [(15, [8]), (31, [1, 2, 1, 1, 2, 1])])
def test_level_solve_on_a_moved_basis(monkeypatch, seed, shape):
    # seed 15 couples every block, so the system is one level (dense); seed
    # 31 peels six levels whose blocks are not in basis order
    alg, coalg, act = _moved(build_en(2, _en_matrix(2, False)), seed)
    assert [len(level) for level in hopf._convolution_levels(coalg)] == shape
    assert check_algebra(alg).all_pass() and check_coalgebra(coalg).all_pass()
    s_map, sharp, endo = _levels_match_whole(monkeypatch, alg, coalg, act)
    assert isinstance(s_map, list) and isinstance(sharp, list) and endo[1:] == (0, None)


@pytest.mark.parametrize("name", sorted(SUITE_MUTANTS))
def test_level_solve_on_golden_mutants(monkeypatch, name):
    _levels_match_whole(monkeypatch, *_parts(yd_mutant(*SUITE_MUTANTS[name])))


def _level_mutant(kind, fs):
    """E(2) (basis 1, g, x1, g x1, x2, g x2, x1 x2, g x1 x2) broken so that
    one level of a solve fails: alpha_g zero (beta inconsistent at the first
    level), Delta(x1) without its leg g (x) x1 (the second level singular)
    or Delta(x1) zero (a kernel in the first level, the antipode system
    consistent)."""
    alg, coalg, act = _parts(build_en(2, _en_matrix(2, True), fs))
    d = alg.dim
    comul = [list(terms) for terms in coalg.comul]
    rows = [list(row) for row in act.act]
    if kind == "alpha-g":
        rows[1] = [Vector(d, {}, fs)] * d
    elif kind == "leg":
        comul[2] = [(j, k, c) for j, k, c in comul[2] if k != 2]
    else:
        comul[2] = []
    return alg, CoalgebraData(d, comul, coalg.counit, fs), ActionTensor(d, d, rows, fs)


@pytest.mark.parametrize("field", ["q", "f7"])
@pytest.mark.parametrize("kind", ["alpha-g", "leg", "zero"])
def test_level_solve_failures_read_as_the_whole_system(monkeypatch, kind, field):
    alg, coalg, act = _level_mutant(kind, LEVEL_FIELDS[field])
    with monkeypatch.context() as m:
        # a failed level re-solves as one level, on the whole system's rows
        m.setattr(hopf, "_LEVEL_MIN_BLOCKS", 1)
        assert _one_level_rows(m, alg, coalg, act) >= 1
    s_map, sharp, endo = _levels_match_whole(monkeypatch, alg, coalg, act)
    if kind == "alpha-g":
        assert endo == (None, 0, "alpha*beta = eps Id has no solution (at target 0)")
    elif kind == "zero":
        assert s_map == ("StructureError", "convolution inverse system is underdetermined")
    else:
        assert s_map is None and endo[0] is None


@pytest.mark.slow
@pytest.mark.parametrize("field", ["q", "f10007"])
def test_level_solve_equals_the_whole_system_at_dim_32(monkeypatch, field):
    s = build_en(4, [[1 if i == j else F(1, 2) if abs(i - j) == 1 else 0 for j in range(4)] for i in range(4)],
                 LEVEL_FIELDS[field])
    s_map, sharp, endo = _levels_match_whole(monkeypatch, *_parts(s))
    assert dict(s_map) == s.carrier.s_map.entries and endo[1:] == (0, None)
