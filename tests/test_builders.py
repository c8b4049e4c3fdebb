"""Builder outputs versus the hand-entered oracle tables."""

from fractions import Fraction

import pytest

import oracles
from manual_structures import (
    sweedler_action_rows,
    sweedler_beta_rows,
    sweedler_transmutation_manual,
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
    group_rb_identity,
    group_rb_inversion,
    sweedler_hopf,
    symmetric_group_3,
)
from ydalgebra.compiled import reduced, table_vectors
from ydalgebra.field import FieldSpec
from ydalgebra.hopf import StructureError, check_hopf, is_cocommutative
from ydalgebra import builders, posthopf
from ydalgebra.posthopf import braiding_sigma, check_yd_hopf_monoid, check_yd_post_hopf, is_pre_hopf
from ydalgebra.linalg import matrix_from_columns
from ydalgebra.report import Tally
from ydalgebra.rota import check_group_rb
from ydalgebra.structio import emit, parse

F = Fraction


def test_sweedler_matches_manual_tables():
    s = build_sweedler(1)
    m = sweedler_transmutation_manual()
    assert s.carrier.algebra.mul == m.carrier.algebra.mul
    assert s.carrier.coalgebra.comul == m.carrier.coalgebra.comul
    assert s.carrier.coalgebra.counit == m.carrier.coalgebra.counit
    assert s.carrier.s_map == m.carrier.s_map
    assert s.action.act == sweedler_action_rows()
    assert s.beta.act == sweedler_beta_rows()


def test_sweedler_k0_certifies():
    s = build_sweedler(0)
    assert s.action.act[2][2].is_zero()


def test_sweedler_mod_7():
    s = build_sweedler(1, FieldSpec(7))
    assert s.dim == 4
    assert check_yd_post_hopf(s).all_pass()


def test_sweedler_char2_rejected():
    with pytest.raises(StructureError):
        build_sweedler(1, FieldSpec(2))


def test_en_requires_symmetric_matrix():
    with pytest.raises(StructureError):
        build_en(2, [[1, 1], [0, 1]])


def test_en1_equals_sweedler_tensors():
    k = F(3, 2)
    s1 = build_sweedler(k)
    s2 = build_en(1, [[k]])
    assert s1.carrier.algebra.mul == s2.carrier.algebra.mul
    assert s1.action.act == s2.action.act
    assert s1.beta.act == s2.beta.act
    assert s1.params == s2.params


def test_en2_generator_rows_match_diagram():
    one = F(1)
    s = build_en(2, [[one, 0], [0, one]])
    lab = s.carrier.algebra.basis_labels
    ix = {l: i for i, l in enumerate(lab)}
    g, x1, x2 = ix["g"], ix["x1"], ix["x2"]
    gx1 = ix["g*x1"]
    # row g: g >- x_j = -x_j, g >- (x_j g) = -(x_j g)
    assert s.action.act[g][x1].entries == {x1: -one}
    assert s.action.act[g][gx1].entries == {gx1: -one}
    # row x_i: x_i >- x_j = A_ij (1 - g); off-diagonal vanishes for A = I
    assert s.action.act[x1][x1].entries == {0: one, g: -one}
    assert s.action.act[x1][x2].is_zero()
    # x_i >- (x_j g) = A_ij (g - 1)
    assert s.action.act[x1][gx1].entries == {0: -one, g: one}
    # beta row x_i: A_ij (g - 1) on x_j and A_ij (1 - g) on x_j g
    assert s.beta.act[x1][x1].entries == {0: -one, g: one}
    assert s.beta.act[x1][gx1].entries == {0: one, g: -one}
    # row x_i g: x_i g >- x_j = A_ij (g - 1)
    assert s.action.act[gx1][x1].entries == {0: -one, g: one}
    assert s.beta.act[gx1][x1].entries == {0: -one, g: one}


def test_en3_with_offdiagonal_certifies():
    A = [[F(1), F(1), F(0)], [F(1), F(2), F(1)], [F(0), F(1), F(1)]]
    s = build_en(3, A)
    assert s.dim == 16


def test_suzuki_action_table():
    s = build_suzuki(1, 1)
    assert s.dim == 16  # discovered closure dimension, regression value
    lab = s.carrier.algebra.basis_labels
    ix = {l: i for i, l in enumerate(lab)}
    a, b, c, d = ix["a"], ix["b"], ix["c"], ix["d"]
    one = F(1)
    assert s.action.act[a][a].entries == {d: one}
    assert s.action.act[a][b].entries == {c: one}
    assert s.action.act[a][c].entries == {b: one}
    assert s.action.act[a][d].entries == {a: one}
    assert all(v.is_zero() for v in s.action.act[b])
    assert all(v.is_zero() for v in s.action.act[c])
    assert s.action.act[d][a].entries == {d: one}
    assert s.action.act[d][d].entries == {a: one}
    assert s.action.act == s.beta.act


def test_suzuki_nontrivial_signs():
    s = build_suzuki(1, -1)
    lab = s.carrier.algebra.basis_labels
    ix = {l: i for i, l in enumerate(lab)}
    # a >- b = (beta / alpha) c for these parameters
    assert s.action.act[ix["a"]][ix["b"]].entries == {ix["c"]: F(-1)}


def test_suzuki_rejects_degenerate_parameters():
    with pytest.raises(StructureError):
        build_suzuki(0, 1)


def test_suzuki_inconsistent_parameters_fail_construction():
    with pytest.raises(StructureError):
        build_suzuki(2, 3)


def test_adjoint_of_c2_collapses():
    h = group_algebra(cyclic_group(2))
    s = build_adjoint(h)
    assert s.carrier.algebra.mul == h.algebra.mul
    assert s.carrier.s_map == h.antipode


def test_adjoint_of_h4_fails_certification():
    # the adjoint action is not a coalgebra morphism over this carrier:
    # Delta(x >- g) = 2(xg (x) g + 1 (x) xg) while the leg-wise expansion
    # gives 2(xg (x) g + g (x) xg); the self-certifying builder must refuse
    with pytest.raises(StructureError):
        build_adjoint(sweedler_hopf())


def test_adjoint_of_s3_group_algebra():
    h = group_algebra(symmetric_group_3())
    s = build_adjoint(h)
    assert s.dim == 6
    # cocommutative carrier with involutive antipode: the braided product
    # is the opposite multiplication, a genuinely different table
    assert s.carrier.algebra.mul != h.algebra.mul
    for i in range(6):
        for j in range(6):
            assert s.carrier.algebra.mul[i][j] == h.algebra.mul[j][i]


def test_group_rb_operators_pass():
    s3 = symmetric_group_3()
    assert check_group_rb(group_rb_identity(s3)).all_pass()
    assert check_group_rb(group_rb_inversion(s3)).all_pass()


def test_group_rb_identity_with_conjugation_fails():
    # R = id forces the trivial action; conjugation breaks the weight-1 law
    s3 = symmetric_group_3()
    from ydalgebra.rota import GroupRB
    from ydalgebra.builders import conjugation_phi

    grb = GroupRB(s3, s3, conjugation_phi(s3), list(range(6)))
    rep = check_group_rb(grb)
    assert rep.entry("GRB-W1").status == "fail"


def test_group_linearization_c2():
    s = build_group_rb_linearization(group_rb_identity(cyclic_group(2)))
    assert s.dim == 2
    # trivial operator: the action is by the identity permutation everywhere
    for row in s.action.act:
        for j, v in enumerate(row):
            assert v.entries == {j: F(1)}


def test_group_linearization_s3_inversion():
    s = build_group_rb_linearization(group_rb_inversion(symmetric_group_3()))
    assert s.dim == 6
    assert is_cocommutative(s.carrier.coalgebra)
    # cocommutative: the braiding is the flip on all basis pairs
    sigma = braiding_sigma(s)
    d = s.dim
    for a in range(d):
        for b in range(d):
            col = sigma.column(a * d + b)
            assert col.entries == {b * d + a: F(1)}
    assert is_pre_hopf(s) is False  # the group algebra is noncommutative


def test_trivial_builder():
    s = build_trivial()
    assert s.dim == 1


def test_sweedler_hopf_is_valid():
    h = sweedler_hopf()
    assert check_hopf(h).all_pass()
    assert not is_cocommutative(h.coalgebra)


def test_beta_solver_recovers_en2_and_suzuki_tables():
    # solving the convolution-inverse system from the action alone must
    # reproduce the constructed beta tensors, with a unique solution
    from ydalgebra.hopf import hom_convolution_inverse_endo

    for s in (build_en(2, [[1, 0], [0, 1]]), build_suzuki(1, 1)):
        res = hom_convolution_inverse_endo(s.action, s.carrier.coalgebra)
        assert res.kernel_dim == 0
        assert res.beta is not None and res.beta.act == s.beta.act


def test_pre_hopf_regression_verdicts():
    # computed braided-commutativity verdicts, frozen as regression values
    assert is_pre_hopf(build_sweedler(1)) is True
    assert is_pre_hopf(build_en(2, [[1, 0], [0, 1]])) is True
    assert is_pre_hopf(build_suzuki(1, 1)) is True
    assert is_pre_hopf(build_adjoint(group_algebra(symmetric_group_3()))) is False


def _plain(x):
    """x with every Tally replaced by its counts and witness, for ==."""
    if isinstance(x, Tally):
        return (x.checked, x.failures, x.witness)
    if isinstance(x, tuple):
        return tuple(_plain(y) for y in x)
    return x


def test_builders_leave_no_stale_beta_results():
    # the builders fill beta after the bullet product is cached, so every
    # cached result, those that read beta among them, is the one a freshly
    # parsed copy computes
    for s in (build_en(2, [[1, F(1, 3)], [F(1, 3), 2]]), build_suzuki(-1, 1)):
        check_yd_hopf_monoid(s)
        assert {
            "bullet_algebra", "sharp_antipode", "_sharp_columns", "leftharpoon", "left_coaction_adl",
            "_adl_columns", "_sharp_legs", "_second_leg_sums", "_delta_identity",
        } <= set(s._cache)
        fresh = parse(emit(s))
        for key in s._cache:
            got, want = s._cache[key], getattr(posthopf, key)(fresh)
            if key == "_second_leg_sums":
                # its rows are made as they are first read: compared row by row
                got, want = (([z.rows[x] for x in range(s.dim)], z.scale) for z in (got, want))
            assert _plain(got) == _plain(want), key


# E(1)-E(3) with identity and off-diagonal A, and Suzuki(+-1, +-1)
INDUCTION_CASES = [
    ("en1", lambda f: build_en(1, [[1]], f)),
    ("en2-id", lambda f: build_en(2, [[1, 0], [0, 1]], f)),
    ("en2-off", lambda f: build_en(2, [[1, 2], [2, 1]], f)),
    ("en3-id", lambda f: build_en(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], f)),
    ("en3-off", lambda f: build_en(3, [[1, F(1, 3), 0], [F(1, 3), 2, 1], [0, 1, 3]], f)),
] + [(f"suzuki({a},{b})", lambda f, a=a, b=b: build_suzuki(a, b, f)) for a in (1, -1) for b in (1, -1)]
INDUCTION_FIELDS = [FieldSpec(), FieldSpec(7), FieldSpec(10007)]


def _captured(monkeypatch, fn: str, make, field):
    """The structure make(field) builds, the arguments it hands to the
    builders' private ``fn`` and what that returns."""
    calls = []
    real = getattr(builders, fn)

    def wrapped(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(builders, fn, wrapped)
    s = make(field)
    (args, out), = calls
    return s, args, out


def _gen_rows(table, gen_delta, dim, fs):
    """The rows of a compiled table on the unit and the generators, as
    Vectors keyed by index."""
    vectors = table_vectors(dim, table, fs)
    return {u: vectors[u] for u in gen_delta}


@pytest.mark.parametrize("field", INDUCTION_FIELDS, ids=lambda f: f.kind if f.p is None else f"F{f.p}")
@pytest.mark.parametrize("name, make", INDUCTION_CASES, ids=[c[0] for c in INDUCTION_CASES])
def test_delta_induction_matches_fourfold_oracle(monkeypatch, name, make, field):
    # Delta(u w) through P-DELTA's shared side on the threefold legs and the
    # bullet table equals the sum over the generators' fourfold legs
    s, (dim, gen_delta, counit, peel, alpha, beta, mul, fs), out = _captured(
        monkeypatch, "_delta_by_induction", make, field)
    left_mul = {u: matrix_from_columns(row, fs) for u, row in _gen_rows(mul, gen_delta, dim, fs).items()}
    assert oracles._delta_by_induction(dim, gen_delta, peel, _gen_rows(alpha, gen_delta, dim, fs),
                                       _gen_rows(beta, gen_delta, dim, fs), left_mul.get, fs) == out
    assert out == s.carrier.coalgebra.comul


@pytest.mark.parametrize("field", INDUCTION_FIELDS, ids=lambda f: f.kind if f.p is None else f"F{f.p}")
@pytest.mark.parametrize("name, make", INDUCTION_CASES, ids=[c[0] for c in INDUCTION_CASES])
def test_generator_beta_rows_match_certified_beta(monkeypatch, name, make, field):
    # the builders give beta on the generators (on E(n)'s x_i, -alpha_g o
    # alpha_{x_i}), the pass extends it to every monomial; the certified
    # structure's beta is alpha o S_>, solved on its own
    s, (dim, gen_delta, counit, peel, alpha, beta, mul, fs), _ = _captured(
        monkeypatch, "_delta_by_induction", make, field)
    for u, row in _gen_rows(beta, gen_delta, dim, fs).items():
        assert row == s.beta.act[u], u


@pytest.mark.parametrize("field", INDUCTION_FIELDS, ids=lambda f: f.kind if f.p is None else f"F{f.p}")
@pytest.mark.parametrize("name, make", INDUCTION_CASES, ids=[c[0] for c in INDUCTION_CASES])
def test_action_induction_matches_family_recursions(monkeypatch, name, make, field):
    # P-DOT, L-MB and P-ASSOC from the generator data give the rows each
    # family's own recursion gave, and beta on the generators
    s, (dim, gen_delta, *_, fs), (alpha, beta, act) = _captured(monkeypatch, "_action_by_induction", make, field)
    rows, beta_gen = (oracles.suzuki_action if name.startswith("suzuki") else oracles.en_action)(s)
    assert table_vectors(dim, act, fs) == rows == s.action.act
    assert _gen_rows(alpha, gen_delta, dim, fs) == {u: rows[u] for u in gen_delta}
    assert _gen_rows(beta, gen_delta, dim, fs) == beta_gen


def test_action_induction_refuses_a_value_not_made_yet(monkeypatch):
    # E(2)'s basis is 1, g, x1, g x1, x2, g x2, x1 x2, g x1 x2
    _, args, _ = _captured(monkeypatch, "_action_by_induction", INDUCTION_CASES[1][1], FieldSpec())
    dim, gen_delta, peel, alpha_on, beta_on, mul, fs = args
    # P-DOT and L-MB at g x1 read the column of g x1 x2
    bad = {**peel, 3: (1, 7)}
    with pytest.raises(StructureError, match="peel order"):
        builders._action_by_induction(dim, gen_delta, bad, alpha_on, beta_on, mul, fs)
    # P-ASSOC at g x1 reads the row of beta_g(x1), here x1 x2
    bad = {**beta_on, (1, 2): {6: fs.one}}
    with pytest.raises(StructureError, match="read before it is made"):
        builders._action_by_induction(dim, gen_delta, peel, alpha_on, bad, mul, fs)


def test_action_induction_tables_are_at_their_least_scale(monkeypatch):
    # each column and row is brought to its least scale as it is made, so the
    # scales do not compound along the peel: on E(3) over Q with denominators
    # 3-13, alpha, beta and the action are each at their least common
    # denominator (the action's scale had 680 bits when they compounded)
    a = [[F(1, 3), F(1, 5), 0], [F(1, 5), F(1, 7), F(1, 11)], [0, F(1, 11), F(1, 13)]]
    _, _, tables = _captured(monkeypatch, "_action_by_induction", lambda f: build_en(3, a, f), FieldSpec())
    for t in tables:
        assert reduced(t).scale == t.scale


def test_en_refuses_a_matrix_not_n_by_n():
    for a in ([[1]], [[1, 0], [0, 1], [9, 9]], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0]]):
        with pytest.raises(StructureError, match="must be 2 x 2"):
            build_en(2, a)


def test_builders_refuse_bool_scalars():
    for field in (FieldSpec(), FieldSpec(7)):
        with pytest.raises(StructureError, match="does not live"):
            build_en(1, [[True]], field)
        with pytest.raises(StructureError, match="does not live"):
            build_suzuki(1, False, field)
