"""Integer-first Q scalars: an integral rational is a plain int.

Wherever scalars are made (parsing, the field constants, inversion, the
solver, the builders) a Q scalar with denominator 1 is an ``int`` and never
a ``Fraction``, and no ``float`` appears anywhere.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_linalg import qmat, qvec
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
    sweedler_hopf,
    symmetric_group_3,
)
from ydalgebra.field import RATIONALS, FieldError, FieldSpec, ModInt, inv, parse_scalar
from ydalgebra.compiled import bilinear_vectors, compile_comul, compile_legs, compile_tensor, compile_vectors
from ydalgebra.hopf import ActionTensor, AlgebraData, CoalgebraData, pull_back
from ydalgebra.linalg import Matrix, Vector, invert, kernel, matrix_from_columns, solve

F = Fraction


def _non_canonical(obj, seen=None):
    """Every float, bool or integral Fraction reachable from ``obj``, not
    counting private caches such as a coalgebra's iterated-coproduct legs."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, (Vector, Matrix)):
        obj = obj.entries
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [bad for x in obj for bad in _non_canonical(x, seen)]
    if dataclasses.is_dataclass(obj):
        return [bad for f in dataclasses.fields(obj) if not f.name.startswith("_")
                for bad in _non_canonical(getattr(obj, f.name), seen)]
    if isinstance(obj, (float, bool)) or (isinstance(obj, Fraction) and obj.denominator == 1):
        return [obj]
    return []


def test_made_scalars_are_ints_when_integral():
    assert type(parse_scalar("4/2", RATIONALS)) is int
    assert type(parse_scalar("-3", RATIONALS)) is int
    assert type(parse_scalar("3/6", RATIONALS)) is Fraction
    assert type(RATIONALS.one) is int and type(RATIONALS.zero) is int
    assert type(RATIONALS.scalar(6, 3)) is int
    assert type(inv(F(1, 2))) is int and type(inv(2)) is Fraction


def test_contains_accepts_int_and_rejects_bool_and_float():
    assert RATIONALS.contains(3)
    assert RATIONALS.contains(F(1, 2))
    assert not RATIONALS.contains(True)
    assert not RATIONALS.contains(1.0)


def test_solver_outputs_are_canonical():
    a = qmat([[F(1, 2), 0, 1], [0, F(1, 3), 1]])
    res = solve(a, qvec([1, 1]))
    assert res.solution.entries == {0: 2, 1: 3}
    assert res.kernel and not _non_canonical(res)
    assert not _non_canonical(kernel(qmat([[F(1, 2), 1], [1, 2]])))
    inverse = invert(qmat([[F(1, 2), 0], [F(3, 2), 2]]))
    assert inverse.entries == {(0, 0): 2, (1, 0): F(-3, 2), (1, 1): F(1, 2)}
    assert not _non_canonical(inverse)


Q_BUILDERS = {
    "sweedler": lambda: build_sweedler(F(1, 2)),
    "en2": lambda: build_en(2, [[F(1, 2), F(1, 3)], [F(1, 3), 2]]),
    "en2-int-fractions": lambda: build_en(2, [[F(1), F(1, 2)], [F(1, 2), F(3)]]),
    "suzuki": lambda: build_suzuki(F(1), F(-1)),
    "adjoint": lambda: build_adjoint(group_algebra(cyclic_group(3))),
    "grouprb": lambda: build_group_rb_linearization(group_rb_inversion(symmetric_group_3())),
    "trivial": build_trivial,
    "h4": sweedler_hopf,
    "group-s3": lambda: group_algebra(symmetric_group_3()),
}


@pytest.mark.parametrize("name", sorted(Q_BUILDERS))
def test_builder_tensors_are_canonical(name):
    assert _non_canonical(Q_BUILDERS[name]()) == []


# Q scalars as the contraction loops meet them: ints, reduced Fractions, and
# integral or unreduced Fractions that a caller built by hand.
_Q = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))
_QVEC = st.dictionaries(st.integers(0, 3), _Q, max_size=4)


def _naive(pairs):
    """Sum of (key, value) pairs with plain Fraction arithmetic, zeros dropped."""
    acc = {}
    for k, v in pairs:
        acc[k] = acc.get(k, F(0)) + F(v)
    return {k: v for k, v in acc.items() if v}


def _exact(got, want):
    assert got == want
    assert not _non_canonical(got)


def _comul_matrix(coalg) -> Matrix:
    """Delta as a map into the tensor square: column i holds Delta(e_i),
    row j * dim + k its e_j (x) e_k coefficient."""
    d = coalg.dim
    return Matrix(d * d, d, {(j * d + k, i): s for i in range(d) for j, k, s in coalg.comul[i]}, coalg.field)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_QVEC, _QVEC, _QVEC, st.lists(_Q, min_size=1, max_size=3))
def test_q_contractions_match_fraction_arithmetic(start, u_raw, v_raw, coeffs):
    """The int sums of the compiled tables, behind ``Matrix.apply`` and the
    bilinear maps, give the exact Fraction result, in canonical form,
    whatever form their inputs take."""
    u, v = Vector(4, u_raw, RATIONALS), Vector(4, v_raw, RATIONALS)
    start_v = Vector(4, start, RATIONALS)  # what an accumulator holds
    c = F(1)
    for x in coeffs:
        c *= x
    combo = matrix_from_columns([start_v, u], RATIONALS).apply(Vector(2, {0: 1, 1: c}, RATIONALS))
    _exact(combo.entries, _naive([*start_v.entries.items(), *((i, c * w) for i, w in u_raw.items())]))

    m = Matrix(4, 4, {(r, k): w for k, w in v_raw.items() for r in range(4) if (r + k) % 2}, RATIONALS)
    _exact(m.apply(u).entries, _naive(((r, w * u_raw.get(k, 0)) for (r, k), w in m.entries.items())))

    table = [[Vector(4, {(i + j) % 4: F(i + 1, j + 2)}, RATIONALS) for j in range(4)] for i in range(4)]
    alg = AlgebraData(4, ["a", "b", "c", "d"], table, Vector(4, {0: 1}, RATIONALS), RATIONALS)
    (uv,), = bilinear_vectors(alg.int_mul(), 4, [u], [v], RATIONALS)
    _exact(uv.entries,
           _naive(((k, a * b * w) for i, a in u_raw.items() for j, b in v_raw.items()
                   for k, w in table[i][j].entries.items())))

    comul = [[(i, j, F(j + 1, i + 2)) for j in range(4) if (i + j) % 3] for i in range(4)]
    coalg = CoalgebraData(4, comul, Vector(4, {0: 1}, RATIONALS), RATIONALS)
    _exact(_comul_matrix(coalg).apply(u).entries, _naive(((j * 4 + k, a * s) for i, a in u_raw.items()
                                                        for j, k, s in coalg.comul[i])))


# F_p residues as the contraction loops meet them: small values, so that sums
# cancel often modulo 7 and still sometimes modulo 10007.
_RES = st.integers(-3, 3)
_FVEC = st.dictionaries(st.integers(0, 3), _RES, max_size=4)


def _modint_sum(pairs):
    """The (key, value) pairs added in order with ModInt operators; a key
    keeps the place where it was first touched, and the keys that sum to
    zero are dropped at the end.  Fed the pairs in the order the compiled
    int sums meet them (each vector and table entry in index order), this
    gives the dict the compiled paths return, in the same order."""
    acc = {}
    for k, x in pairs:
        s = acc.get(k)
        acc[k] = x if s is None else s + x
    return {k: s for k, s in acc.items() if s}


def _same_residues(got, want, p):
    assert list(got.items()) == list(want.items())
    assert all(c.__class__ is ModInt and c.p == p and c for c in got.values())


def _fp_tables(fs):
    """A 4 x 4 product table, the algebra and action built on it, and a
    coalgebra, all with two or more terms per entry so that sums cancel."""
    p = fs.p
    table = [[Vector(4, {(i + j) % 4: ModInt(i + 1, p), (i * j + 1) % 4: ModInt(-j - 1, p)}, fs)
              for j in range(4)] for i in range(4)]
    alg = AlgebraData(4, ["a", "b", "c", "d"], table, Vector(4, {0: fs.one}, fs), fs)
    act = ActionTensor(4, 4, table, fs)
    comul = [[(i, j, ModInt(j - i, p)) for j in range(4) if (i + j) % 3] + [(0, i, fs.one)]
             for i in range(4)]
    coalg = CoalgebraData(4, comul, Vector(4, {0: fs.one}, fs), fs)
    return table, alg, act, coalg


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from([7, 10007]), _FVEC, _FVEC, _FVEC, st.lists(_RES, min_size=1, max_size=3))
def test_fp_contractions_match_modint_arithmetic(p, start_raw, u_raw, v_raw, coeffs):
    """The residue sums of the compiled tables, behind ``Matrix.apply``, the
    bilinear maps and the pull-back of an action, give the ModInt sums with
    no zero stored; a ModInt of another modulus raises FieldError where a
    table or a vector is compiled."""
    fs = FieldSpec(p)

    def vec(raw):
        return Vector(4, {k: ModInt(x, p) for k, x in raw.items()}, fs)

    u, v, start = vec(u_raw), vec(v_raw), vec(start_raw)
    cs = [ModInt(x, p) for x in coeffs]
    c = cs[0]
    for x in cs[1:]:
        c = c * x
    table, alg, act, coalg = _fp_tables(fs)

    def ordered(x: Vector):
        return sorted(x.entries.items())

    combo = matrix_from_columns([start, u], fs).apply(Vector(2, {0: fs.one, 1: c}, fs))
    _same_residues(combo.entries, _modint_sum([*ordered(start), *((i, w * c) for i, w in ordered(u) if c)]), p)

    m = Matrix(4, 4, {(r, k): w for k, w in v.entries.items() for r in range(4) if (r + k) % 2}, fs)
    _same_residues(m.apply(u).entries,
                   _modint_sum([(r, w * a) for j, a in ordered(u) for r, w in ordered(m.column(j))]), p)

    bilinear = _modint_sum([(k, w * (a * b)) for i, a in ordered(u) for j, b in ordered(v)
                            for k, w in ordered(table[i][j])])
    _same_residues(bilinear_vectors(alg.int_mul(), 4, [u], [v], fs)[0][0].entries, bilinear, p)
    _same_residues(bilinear_vectors(act.int_act(), 4, [u], [v], fs)[0][0].entries, bilinear, p)
    pulled = pull_back(act, compile_vectors([u], fs))
    for k in range(4):
        _same_residues({j: ModInt(n, p) for j, n in pulled.rows[0][k]},
                       _modint_sum([(j, w * a) for i, a in ordered(u) for j, w in ordered(table[i][k])]), p)

    _same_residues(_comul_matrix(coalg).apply(u).entries,
                   _modint_sum([(j * 4 + k, s * a) for i, a in ordered(u)
                                for j, k, s in sorted(coalg.comul[i], key=lambda t: t[:2]) if s]), p)

    alien = ModInt(1, 11 if p == 7 else 7)
    e, bad = Vector(4, {0: fs.one}, fs), Vector(4, {0: alien}, fs)
    bad_table = [[bad if (i, j) == (1, 2) else e for j in range(4)] for i in range(4)]
    mixed = [
        lambda: compile_vectors([e, bad], fs),
        lambda: compile_tensor(bad_table, fs),
        lambda: compile_comul([[(0, 0, fs.one)], [(0, 1, alien)]], fs),
        lambda: compile_legs([[((0,), fs.one)], [((1,), alien)]], fs),
        lambda: Matrix(4, 4, {(0, 0): fs.one}, fs).apply(bad),
        lambda: Matrix(4, 4, {(0, 0): alien}, fs).apply(e),
        lambda: bilinear_vectors(alg.int_mul(), 4, [bad], [e], fs),
        lambda: bilinear_vectors(alg.int_mul(), 4, [e], [bad], fs),
        lambda: AlgebraData(4, ["a", "b", "c", "d"], bad_table, e, fs).int_mul(),
        lambda: ActionTensor(4, 4, bad_table, fs).int_act(),
        lambda: pull_back(act, compile_vectors([bad], fs)),
        lambda: CoalgebraData(4, [[(0, 0, fs.one)], [(0, 1, alien)], [], []], e, fs).int_comul(),
    ]
    for call in mixed:
        with pytest.raises(FieldError):
            call()
