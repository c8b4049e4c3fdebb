"""Cross-cutting invariants: convolution algebra laws, cocommutative
reductions, derivation identities along the functors, and structures as
values."""

import dataclasses
import importlib
import itertools
import pkgutil
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manual_structures import sweedler_transmutation_manual
from oracles import act_apply, bracket_vec, comul_vec
from test_compiled import tens2_add_scaled
from test_golden import GOLDEN
from test_hopf import h4_algebra, h4_coalgebra
import ydalgebra
from ydalgebra import compiled, hopf, linalg, posthopf, rota
from ydalgebra.braces import MatchedPair, YDBrace, functor_f, to_matched_pair
from ydalgebra.builders import (
    build_en,
    build_group_rb_linearization,
    build_suzuki,
    build_sweedler,
    group_rb_inversion,
    symmetric_group_3,
)
from ydalgebra.cli import run_suite
from ydalgebra.field import RATIONALS, FieldSpec
from ydalgebra.hopf import (
    ActionTensor,
    AlgebraData,
    BraidedPair,
    CoalgebraData,
    HopfData,
    StructureError,
    convolution,
    is_cocommutative,
    unit_counit_map,
)
from ydalgebra.linalg import Matrix, Vector, unit_vector
from ydalgebra.posthopf import (
    PostLieData,
    YDPostHopf,
    braiding_sigma,
    check_yd_hopf_monoid,
    check_yd_post_hopf,
    extract_post_lie,
    sharp_antipode,
    solve_beta,
    subadjacent_hopf,
)
from ydalgebra.rota import (
    GroupRB, GroupTable, LieData, LieRB, RelRB, check_lie_rb, functor_l, functor_m, functor_r, restrict_to_primitives,
)
from ydalgebra.structio import emit, parse

F = Fraction

small = st.integers(min_value=-3, max_value=3).map(F)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(small, min_size=48, max_size=48))
def test_convolution_associative_with_unit(vals):
    a, c = h4_algebra(), h4_coalgebra()
    mats = []
    for t in range(3):
        entries = {}
        for idx, v in enumerate(vals[t * 16:(t + 1) * 16]):
            if v:
                entries[(idx // 4, idx % 4)] = v
        mats.append(Matrix(4, 4, entries, RATIONALS))
    f, g, h = mats
    lhs = convolution(convolution(f, g, c, a), h, c, a)
    rhs = convolution(f, convolution(g, h, c, a), c, a)
    assert lhs == rhs
    ue = unit_counit_map(c, a)
    assert convolution(f, ue, c, a) == f
    assert convolution(ue, f, c, a) == f


def test_cocommutative_reductions():
    s = build_group_rb_linearization(group_rb_inversion(symmetric_group_3()))
    alg, coalg = s.carrier.algebra, s.carrier.coalgebra
    assert is_cocommutative(coalg)
    d = s.dim
    # the braided compatibility collapses to plain multiplicativity of Delta
    for i in range(d):
        for j in range(d):
            lhs = comul_vec(coalg, alg.mul[i][j])
            rhs = {}
            for p, q, cp in coalg.comul[i]:
                for r, t, cr in coalg.comul[j]:
                    tens2_add_scaled(rhs, alg.mul[p][r], alg.mul[q][t], cp * cr)
            assert lhs == rhs
    # beta becomes comultiplicative with unswapped legs
    beta = s.beta
    for i in range(d):
        for j in range(d):
            lhs = comul_vec(coalg, beta.act[i][j])
            rhs = {}
            for i1, i2, ci in coalg.comul[i]:
                for p, q, t in coalg.comul[j]:
                    tens2_add_scaled(rhs, beta.act[i1][p], beta.act[i2][q], ci * t)
            assert lhs == rhs


def test_sharp_of_r_output_matches_acting_antipode():
    # along a >- _R b = R(a) >- b, the derived subadjacent antipode satisfies
    # R S_{>-R} = S_H R; with R bijective this pins S_{>-R} = R^-1 S_H R
    for s in (sweedler_transmutation_manual(),
              build_group_rb_linearization(group_rb_inversion(symmetric_group_3()))):
        r = functor_l(s)
        out = functor_r(r, mode="D")
        sharp = sharp_antipode(out)
        assert r.r_map.compose(sharp) == r.h.antipode.compose(r.r_map)


def dual_numbers_pair():
    """F_2[t,s]/(t^2,s^2): 4-dim Hopf algebra with a 2-dim primitive space.

    Finite-dimensional Hopf algebras in characteristic 0 have no nonzero
    primitives (Delta(t^2) = 2 t (x) t obstructs truncation), so the
    nonzero-primitive instance lives over F_2 where the obstruction dies.
    """
    from ydalgebra.field import FieldSpec

    fs = FieldSpec(2)
    one = fs.one
    d = 4  # basis 1, t, s, ts
    ONE, T, S_, TS = range(4)
    prod = {
        (ONE, ONE): {ONE: one}, (ONE, T): {T: one}, (ONE, S_): {S_: one}, (ONE, TS): {TS: one},
        (T, ONE): {T: one}, (T, T): {}, (T, S_): {TS: one}, (T, TS): {},
        (S_, ONE): {S_: one}, (S_, T): {TS: one}, (S_, S_): {}, (S_, TS): {},
        (TS, ONE): {TS: one}, (TS, T): {}, (TS, S_): {}, (TS, TS): {},
    }
    mul = [[Vector(d, dict(prod[(i, j)]), fs) for j in range(d)] for i in range(d)]
    alg = AlgebraData(d, ["1", "t", "s", "t*s"], mul, unit_vector(d, ONE, fs), fs)
    comul = [
        [(ONE, ONE, one)],
        [(ONE, T, one), (T, ONE, one)],
        [(ONE, S_, one), (S_, ONE, one)],
        [(ONE, TS, one), (S_, T, one), (T, S_, one), (TS, ONE, one)],
    ]
    coalg = CoalgebraData(d, comul, Vector(d, {ONE: one}, fs), fs)
    smap = Matrix(d, d, {(ONE, ONE): one, (T, T): one, (S_, S_): one, (TS, TS): one}, fs)
    eps_rows = [
        [unit_vector(d, j, fs).scale(coalg.eps(i)) for j in range(d)]
        for i in range(d)
    ]
    act = ActionTensor(d, d, eps_rows, fs)
    return YDPostHopf(BraidedPair(alg, coalg, smap), act,
                      ActionTensor(d, d, [list(r) for r in eps_rows], fs))


def test_primitive_restriction_with_nonzero_primitives():
    s = dual_numbers_pair()
    assert check_yd_post_hopf(s).all_pass()
    r = functor_l(s)
    lrb = restrict_to_primitives(r)
    assert lrb.lie_h.dim == 2 and lrb.lie_g.dim == 2
    rep = check_lie_rb(lrb)
    assert rep.all_pass()
    # brute-force oracle: evaluate both sides of the weight-1 law directly
    fs = lrb.lie_h.field
    for a in range(2):
        for b in range(2):
            ra = lrb.r.column(a)
            rb_v = lrb.r.column(b)
            lhs = bracket_vec(lrb.lie_g, ra, rb_v)
            inner = act_apply(lrb.phi, ra, unit_vector(2, b, fs)).sub(
                act_apply(lrb.phi, rb_v, unit_vector(2, a, fs))
            ).add(lrb.lie_h.bracket[a][b])
            assert lhs == lrb.r.apply(inner)


def test_span_errors_name_the_first_vector_outside_the_primitives(monkeypatch):
    # the bracket and the action are solved against the primitives t, s;
    # the error names the map of the first vector outside their span, the
    # pairs (i, j) in order and the bracket before the action
    s = dual_numbers_pair()
    one = unit_vector(4, 0, s.field)  # 1 is not primitive
    prims = posthopf.primitives(s.carrier.coalgebra, s.carrier.algebra.unit)
    real_acted = posthopf.bilinear_vectors

    def comms(i, j):
        rows = posthopf.commutators(s.carrier.algebra, prims)
        rows[i][j] = one
        return lambda *args: rows

    def acted(*args):
        rows = real_acted(*args)
        rows[0][1] = one
        return rows

    monkeypatch.setattr(posthopf, "commutators", comms(1, 1))
    with pytest.raises(StructureError, match="^primitive subspace not closed under the bracket$"):
        posthopf.extract_post_lie(s)
    monkeypatch.setattr(posthopf, "bilinear_vectors", acted)
    with pytest.raises(StructureError, match="^primitive subspace not closed under the action$"):
        posthopf.extract_post_lie(s)
    monkeypatch.setattr(posthopf, "commutators", comms(0, 1))
    with pytest.raises(StructureError, match="^primitive subspace not closed under the bracket$"):
        posthopf.extract_post_lie(s)
    # R maps t to 1, so the image of a primitive leaves the primitives of H
    monkeypatch.undo()
    r = functor_l(dual_numbers_pair())
    u = r.field.one
    r = dataclasses.replace(r, r_map=Matrix(4, 4, {(0, 0): u, (0, 1): u, (2, 2): u, (3, 3): u}, r.field))
    with pytest.raises(StructureError, match="^image of a primitive: not closed under the restriction$"):
        restrict_to_primitives(r)


def test_minus_identity_lie_rota_baxter():
    # classical instance: R = -id with the adjoint action is weight-1 on any
    # Lie algebra; the induced structure x >- y = -[x, y] is post-Lie
    fs = RATIONALS
    z = Vector(2, {}, fs)
    e2 = unit_vector(2, 1, fs)
    bracket = [[z, e2], [e2.neg(), z]]
    lie = LieData(2, bracket, fs)
    phi = ActionTensor(2, 2, [list(row) for row in bracket], fs)  # ad action
    rmat = Matrix(2, 2, {(i, i): F(-1) for i in range(2)}, fs)
    lrb = LieRB(lie, lie, phi, rmat)
    rep = check_lie_rb(lrb)
    assert rep.all_pass(), rep.text()
    # brute-force both sides on all basis pairs
    for a in range(2):
        for b in range(2):
            lhs = bracket_vec(lie, rmat.column(a), rmat.column(b))
            inner = act_apply(phi, rmat.column(a), unit_vector(2, b, fs)).sub(
                act_apply(phi, rmat.column(b), unit_vector(2, a, fs))
            ).add(bracket[a][b])
            assert lhs == rmat.apply(inner)


def test_subadjacent_antipode_of_trivial_action_is_carrier_antipode():
    s = dual_numbers_pair()
    h = subadjacent_hopf(s)
    assert h.algebra.mul == s.carrier.algebra.mul
    assert h.antipode == s.carrier.s_map


def test_braiding_is_flip_on_primitives():
    from ydalgebra.posthopf import braiding_sigma

    s = dual_numbers_pair()
    sigma = braiding_sigma(s)
    d = s.dim
    t_idx = 1  # the primitive generator
    for b in range(d):
        col = sigma.column(t_idx * d + b)
        assert col.entries == {b * d + t_idx: s.field.one}


def _braided(sigma, d: int, vec: dict, first: bool) -> dict:
    """sigma (x) id (first) or id (x) sigma applied to a sum over basis
    triples, keyed (a, b, c)."""
    out: dict = {}
    for (a, b, c), x in vec.items():
        pair = (a, b) if first else (b, c)
        for key, y in sigma.column(pair[0] * d + pair[1]).entries.items():
            p, q = divmod(key, d)
            t = (p, q, c) if first else (a, p, q)
            out[t] = out.get(t, 0) + x * y
    return {t: v for t, v in out.items() if v}


BRAID_STRUCTURES = {
    "sweedler": lambda: build_sweedler(1),
    "en2": lambda: build_en(2, [[1, 0], [0, 1]]),
    "suzuki": lambda: build_suzuki(1, -1),
    "s3-inversion": lambda: build_group_rb_linearization(group_rb_inversion(symmetric_group_3())),
}


@pytest.mark.parametrize("name", sorted(BRAID_STRUCTURES))
def test_braiding_satisfies_the_braid_relation(name):
    # sigma is the braiding of a Yetter-Drinfeld module, so
    # (sigma (x) id)(id (x) sigma)(sigma (x) id) = (id (x) sigma)(sigma (x) id)(id (x) sigma)
    # on every basis triple; E(3) is left out for its cost (seconds)
    s = BRAID_STRUCTURES[name]()
    sigma, d = braiding_sigma(s), s.dim
    for triple in itertools.product(range(d), repeat=3):
        v = {triple: 1}
        lhs = _braided(sigma, d, _braided(sigma, d, _braided(sigma, d, v, True), False), True)
        rhs = _braided(sigma, d, _braided(sigma, d, _braided(sigma, d, v, False), True), False)
        assert lhs == rhs, triple
    # Sweedler's and E(2)'s sigma is not the flip, so the relation is not trivial there
    flip = all(sigma.column(a * d + b).entries == {b * d + a: s.field.one} for a in range(d) for b in range(d))
    assert flip == (name in ("suzuki", "s3-inversion"))


def _matrices(obj, seen: set, out: list) -> None:
    """Every Matrix reachable from obj, private caches included."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Matrix):
        out.append(obj)
        return
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif dataclasses.is_dataclass(obj):
        items = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        return
    for x in items:
        _matrices(x, seen, out)


@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(7)], ids=["q", "f7"])
def test_shared_column_vectors_are_never_mutated(field, monkeypatch):
    """Matrix.column hands out the vectors of its index, not copies; after
    the suites and every derive target, each indexed column still equals
    the column read from the matrix entries, so no caller wrote into one.
    On the way, every vector built without the checking constructor holds
    what that constructor would store: the column index and the solver's
    results in linalg, and the int sums that ``compiled.int_vector`` turns
    into vectors for posthopf, rota and the rest of the package, directly
    or through the hopf helpers that make a container of a compiled table."""
    built: dict[tuple[str, str], int] = {}  # (the module calling _vector, the module it builds for)
    unchecked = linalg._vector
    helpers = {f.__code__ for f in (hopf.table_action, hopf.table_algebra, hopf.column_matrix, hopf.pulled_back)}

    def checked(dim, entries, fs):
        stored = Vector(dim, dict(entries), fs)  # raises on an index out of range
        assert [(k, type(c), c) for k, c in entries.items()] == \
            [(k, type(c), c) for k, c in stored.entries.items()]
        frame = sys._getframe(1)
        via = frame.f_globals["__name__"]
        while frame.f_globals["__name__"] == compiled.__name__ or frame.f_code in helpers:
            frame = frame.f_back
        key = (via.rsplit(".", 1)[1], frame.f_globals["__name__"].rsplit(".", 1)[1])
        built[key] = built.get(key, 0) + 1
        return unchecked(dim, entries, fs)

    assert not hasattr(posthopf, "_vector") and not hasattr(rota, "_vector")
    monkeypatch.setattr(linalg, "_vector", checked)
    monkeypatch.setattr(compiled, "_vector", checked)
    s = build_en(2, [[1, F(1, 2)], [F(1, 2), 3]], field)
    assert check_yd_post_hopf(s).all_pass()
    assert check_yd_hopf_monoid(s).all_pass()
    rb = functor_l(s)
    derived = [subadjacent_hopf(s), extract_post_lie(s), functor_f(s), to_matched_pair(s), rb, functor_m(rb),
               functor_r(rb)]
    for obj in derived:
        assert run_suite(obj).all_pass()
    found: list = []
    _matrices([s, *derived], set(), found)
    indexed = [m for m in found if "_cols" in m._cache]
    assert len(indexed) >= 3
    for m in indexed:
        for c in range(m.cols):
            scan = {r: v for (r, cc), v in m.entries.items() if cc == c}
            assert m.column(c) == Vector(m.rows, scan, m.field)
    assert built.get(("linalg", "linalg")) and built.get(("compiled", "posthopf")) and built.get(("compiled", "rota"))


# --- structures are values -------------------------------------------------

CONTAINERS = {AlgebraData, CoalgebraData, HopfData, BraidedPair, ActionTensor, YDPostHopf, YDBrace, MatchedPair, RelRB,
              GroupTable, GroupRB, LieData, LieRB, PostLieData}


def _golden(name: str):
    return parse((GOLDEN / f"{name}.struct").read_text())


def _bumped(table: list[list[Vector]]) -> list[list[Vector]]:
    """A copy of table with e_0 added to the last vector of its first row."""
    rows = [list(row) for row in table]
    v = rows[0][-1]
    rows[0][-1] = v.add(unit_vector(v.dim, 0, v.field))
    return rows


def _bumped_matrix(m: Matrix) -> Matrix:
    """m with 1 added to its entry (0, last column)."""
    return Matrix(m.rows, m.cols, {**m.entries, (0, m.cols - 1): m.get(0, m.cols - 1) + m.field.one}, m.field)


def _trivial_action(s: YDPostHopf) -> ActionTensor:
    """x >- y = eps(x) y."""
    d, fs = s.dim, s.field
    return ActionTensor(d, d, [[unit_vector(d, j, fs).scale(s.carrier.coalgebra.eps(i)) for j in range(d)]
                               for i in range(d)], fs)


def _replace_algebra(a: AlgebraData) -> AlgebraData:
    return dataclasses.replace(a, mul=_bumped(a.mul))


def _replace_comul(h: HopfData) -> HopfData:
    c = h.coalgebra
    return dataclasses.replace(h, coalgebra=dataclasses.replace(c, comul=[*c.comul[:-1], c.comul[-1] + [(0, 0, 1)]]))


# kind -> how to make a structure, and how dataclasses.replace makes a copy
# of it with one field changed, once its suite has run: the copy shares
# every part it does not change, with the caches those parts filled
REPLACED = {
    "algebra": (lambda: _golden("h4-q").algebra, _replace_algebra),
    "hopf": (lambda: _golden("h4-q"), _replace_comul),
    "ydpost": (lambda: build_sweedler(1), lambda s: dataclasses.replace(s, action=_trivial_action(s), beta=None)),
    "ydpost-action": (lambda: _golden("sweedler-f7"),
                      lambda s: dataclasses.replace(s, action=dataclasses.replace(s.action, act=_bumped(s.action.act)))),
    "ydbrace": (lambda: _golden("sweedler-q-brace"), lambda b: dataclasses.replace(
        b, dot_side=dataclasses.replace(b.dot_side, algebra=_replace_algebra(b.dot_side.algebra)))),
    "matchedpair": (lambda: _golden("sweedler-q-matchedpair"), lambda mp: dataclasses.replace(
        mp, right_action=dataclasses.replace(mp.right_action, act=_bumped(mp.right_action.act)))),
    "relrb": (lambda: _golden("sweedler-q-rb_l"), lambda r: dataclasses.replace(r, r_map=_bumped_matrix(r.r_map))),
    "grouprb": (lambda: _golden("s3-inversion"), lambda g: dataclasses.replace(g, r=[*g.r[1:], g.r[0]])),
    "lierb": (lambda: restrict_to_primitives(functor_l(dual_numbers_pair())),
              lambda lrb: dataclasses.replace(lrb, phi=dataclasses.replace(lrb.phi, act=_bumped(lrb.phi.act)))),
    "postlie": (lambda: extract_post_lie(dual_numbers_pair()),
                lambda pl: dataclasses.replace(pl, bracket=_bumped(pl.bracket))),
}


def _report_and_copy(kind: str) -> tuple:
    """The machine report of the kind's structure, and then its copy."""
    make, change = REPLACED[kind]
    source = make()
    return run_suite(source).machine_text(), change(source)


@pytest.mark.parametrize("kind", sorted(REPLACED))
def test_a_replaced_structure_reports_as_its_parsed_copy(kind):
    # a copy starts with an empty cache, so nothing its source computed
    # stands in for what the changed field gives
    before, copy = _report_and_copy(kind)
    text = emit(copy)
    got = run_suite(copy).machine_text()
    assert got == run_suite(parse(text)).machine_text()
    assert got != before


def _parts(obj, out: dict) -> dict:
    """Every container in obj, obj among them, one per class."""
    if type(obj) in CONTAINERS:
        out.setdefault(type(obj), obj)
        for f in dataclasses.fields(obj):
            _parts(getattr(obj, f.name), out)
    return out


def test_no_field_of_a_container_can_be_assigned():
    found: dict = {}
    for kind in REPLACED:
        _parts(_report_and_copy(kind)[1], found)
    assert set(found) == CONTAINERS
    for obj in found.values():
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))


def test_no_private_field_is_a_constructor_argument():
    modules = [importlib.import_module(f"ydalgebra.{m.name}") for m in pkgutil.iter_modules(ydalgebra.__path__)]
    classes = {c for m in modules for c in vars(m).values() if isinstance(c, type) and dataclasses.is_dataclass(c)}
    assert CONTAINERS | {Matrix, Vector} <= classes
    assert [(c.__name__, f.name) for c in classes for f in dataclasses.fields(c) if f.name.startswith("_") and f.init] \
        == []


def test_beta_is_filled_at_most_once():
    s = build_sweedler(1)  # the builder fills beta
    beta = s.beta
    with pytest.raises(StructureError, match="^beta is already set"):
        solve_beta(s)
    assert s.beta is beta
    copy = dataclasses.replace(s, beta=None)
    assert solve_beta(copy) == beta and copy.beta is not None
    with pytest.raises(StructureError, match="^beta is already set"):
        solve_beta(copy)
