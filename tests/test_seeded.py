"""Tables compiled where they are made.

``structio.parse`` hands each container the table it compiled from the
file's tokens (``int_mul``, ``int_act``, ``int_comul``), and the producers
that sum a table as ints hand it over at its least scale
(``compiled.reduced``): ``posthopf.bullet_algebra``, ``hopf.pulled_back``,
``hopf.table_action``/``table_algebra`` and ``hopf.column_matrix``, which
serves ``sharp_antipode``, ``antipode_sk``, ``convolution`` and the
functors.  Every seeded table must be exactly the table
``compile_tensor``/``compile_comul``/``compile_columns`` makes of the
container's own Vectors: the same rows, cell order, cell types and scale.
A seed is recorded by wrapping each cache's ``seed``; a hand-built
container with a mixed modulus still fails when it is compiled.
"""

import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

from test_golden import ALGEBRA_SOURCES, golden_text
from ydalgebra import compiled, hopf
from ydalgebra.builders import build_en, build_suzuki
from ydalgebra.compiled import IntTable, compile_columns, compile_comul, compile_tensor, compile_vectors, reduced
from ydalgebra.field import RATIONALS, FieldError, FieldSpec, ModInt
from ydalgebra.hopf import ActionTensor, AlgebraData, CoalgebraData, convolution, pulled_back
from ydalgebra.linalg import Matrix, Vector, identity_matrix
from ydalgebra.posthopf import bullet_algebra, sharp_antipode, solve_beta
from ydalgebra.rota import antipode_sk, functor_l, functor_m, functor_r
from ydalgebra.structio import ParseError, emit, parse

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
FIELDS = {"q": RATIONALS, "f7": FieldSpec(7), "f10007": FieldSpec(10007)}

# the compiled cache of each container type, and its compile from the Vectors
CACHES = {
    AlgebraData: ("int_mul", lambda a: compile_tensor(a.mul, a.field)),
    ActionTensor: ("int_act", lambda t: compile_tensor(t.act, t.field)),
    CoalgebraData: ("int_comul", lambda c: compile_comul(c.comul, c.field)),
    Matrix: ("compile_columns", lambda m: compile_vectors([m.column(j) for j in range(m.cols)], m.field)),
}


def exact(table: IntTable) -> tuple:
    """A table with the type of every row and cell, so a list where the
    compile gives a tuple does not compare equal."""
    def cells(row):
        return type(row), [(type(c), c) for c in row] if isinstance(row, list) else row

    return [cells(row) for row in table.rows], table.scale


def assert_compiles_alike(obj) -> None:
    key, compile_ = CACHES[type(obj)]
    assert exact(obj._cache[key]) == exact(compile_(obj)), type(obj).__name__


@pytest.fixture
def seeds(monkeypatch):
    """The containers handed a table through a cache's ``seed``, in order."""
    got = []
    for cached in (AlgebraData.int_mul, ActionTensor.int_act, CoalgebraData.int_comul, compile_columns):
        def spy(obj, table, real=cached.seed):
            got.append(obj)
            return real(obj, table)
        monkeypatch.setattr(cached, "seed", spy)
    return got


def containers(obj, out: dict | None = None) -> list:
    """The containers with a compiled cache reachable from obj through
    dataclass fields and their caches, lists, tuples and dicts, each once."""
    if out is None:
        out = {}
    if id(obj) in out or isinstance(obj, (Vector, IntTable, int, str, Fraction, ModInt, FieldSpec)) or obj is None:
        return list(out.values())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out[id(obj)] = obj
        for f in dataclasses.fields(obj):
            containers(getattr(obj, f.name), out)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            containers(x, out)
    elif isinstance(obj, dict):
        for x in obj.values():
            containers(x, out)
    return [c for c in out.values() if type(c) in CACHES]


# --- the parse path -------------------------------------------------------------

PARSED = sorted([p.stem for p in GOLDEN.glob("*.struct")] + list(ALGEBRA_SOURCES))


@pytest.mark.parametrize("name", PARSED)
def test_parse_seeds_every_table_as_compile_tensor_would(seeds, name):
    text = golden_text(name)
    seeds.clear()
    obj = parse(text)
    found = [c for c in containers(obj) if type(c) is not Matrix]
    # every algebra, coalgebra and action of a parsed file is seeded, once
    assert sorted(map(id, seeds)) == sorted(map(id, found))
    for c in found:
        assert_compiles_alike(c)


def test_parse_seeds_a_non_square_action_table():
    # a relrb with dim K < dim H: the action is dh x dk x dk
    for field in ("q", "f7"):
        r = parse(golden_text(f"sweedler-{field}-rb_l-sub"))
        assert (r.action.acting_dim, r.action.target_dim) == (4, 2)
        assert len(r.action._cache["int_act"].rows[0]) == 2
        assert_compiles_alike(r.action)


def test_a_file_that_fails_to_parse_seeds_nothing(seeds):
    # the last line is bad: every table before it was read, none compiled
    lines = golden_text("sweedler-q").splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 1/x"
    with pytest.raises(ParseError):
        parse("\n".join(lines) + "\n")
    assert seeds == []
    parse(golden_text("sweedler-q"))
    assert len(seeds) == 4


# --- the derived path -----------------------------------------------------------


def _e(n: int):
    return [[F(1) if i == j else F(1, 2) if abs(i - j) == 1 else F(0) for j in range(n)] for i in range(n)]


BUILDERS = {f"e{n}": (lambda fs, n=n: build_en(n, _e(n), field=fs)) for n in (1, 2, 3)}
BUILDERS.update({f"suzuki{a:+d}{b:+d}": (lambda fs, a=a, b=b: build_suzuki(a, b, field=fs))
                 for a in (1, -1) for b in (1, -1)})


def _derived(s) -> list:
    """Run every seeding producer on a structure read back from its file,
    so no cache is filled beforehand; returns what each produced."""
    s = parse(emit(s))
    r = functor_l(s)
    out = [bullet_algebra(s), sharp_antipode(s), r, antipode_sk(r), functor_m(r), functor_r(r, "D"),
           functor_r(r, "Cprime"), pulled_back(s.action, compile_columns(s.carrier.s_map)),
           convolution(s.carrier.s_map, identity_matrix(s.dim, s.field), s.carrier.coalgebra, s.carrier.algebra)]
    return [s, *out]


def _assert_derived(seeds, s) -> None:
    made = _derived(s)
    bullet, sharp, r, sk, m, rd, rc, pb, conv = made[1:]
    produced = [bullet, sharp, r.h.algebra, sk, m.carrier.algebra, m.action, m.beta, m.carrier.s_map, rd.action,
                rd.beta, rc.action, rc.beta, pb, conv]
    seeded = {id(c) for c in seeds}
    assert [type(c).__name__ for c in produced if id(c) not in seeded] == []
    for c in seeds:
        assert_compiles_alike(c)
    # and every compiled table in reach, seeded or not
    for c in containers(made):
        if CACHES[type(c)][0] in c._cache:
            assert_compiles_alike(c)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_derived_tables_are_seeded_as_compile_tensor_would(seeds, name, field):
    _assert_derived(seeds, BUILDERS[name](FIELDS[field]))


@pytest.mark.slow
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_derived_tables_are_seeded_as_compile_tensor_would_at_dim_32(seeds, field):
    _assert_derived(seeds, build_en(4, _e(4), field=FIELDS[field]))


def test_reduced_is_the_compile_of_the_vectors_it_divides_to():
    # entries with a common factor, a cell out of order and an empty cell
    for fs, rows, scale in ((RATIONALS, [[[(2, 4), (0, -6)], []], [[(1, 3)], [(0, 9)]]], 6),
                            (RATIONALS, [[[(1, 5)]]], 1), (RATIONALS, [[[], []]], 12),
                            (FieldSpec(7), [[[(3, 6), (1, 2)], []]], 1)):
        t = IntTable(rows, scale)
        assert exact(reduced(t)) == exact(compile_tensor(compiled.table_vectors(3, t, fs), fs))


# --- the modulus is still checked where a hand-built container is compiled ------


def test_a_hand_built_container_of_mixed_moduli_fails_to_compile():
    f7 = FieldSpec(7)
    good = Vector(2, {0: ModInt(3, 7)}, f7)
    bad = Vector(2, {0: ModInt(1, 7), 1: ModInt(2, 11)}, f7)
    with pytest.raises(FieldError):
        AlgebraData(2, ["1", "x"], [[good, good], [good, bad]], good, f7).int_mul()
    with pytest.raises(FieldError):
        ActionTensor(2, 2, [[good, bad], [good, good]], f7).int_act()
    with pytest.raises(FieldError):
        CoalgebraData(2, [[(0, 0, ModInt(1, 7))], [(0, 1, ModInt(1, 11))]], good, f7).int_comul()
    with pytest.raises(FieldError):
        compile_columns(Matrix(2, 2, {(0, 0): ModInt(1, 7), (1, 1): ModInt(1, 11)}, f7))


# --- the solve path compiles no table that was seeded ---------------------------


@pytest.mark.parametrize("field", ["q", "f7"])
def test_the_solve_path_compiles_no_seeded_table(monkeypatch, seeds, field):
    # the dim-16 E(3) golden with beta stripped, as the solve benchmark reads it
    text = "".join(line for line in golden_text(f"en3-{field}").splitlines(keepends=True)
                   if not line.startswith("beta "))
    tensors, comuls, columns = [], [], []
    for module, name, into in ((hopf, "compile_tensor", tensors), (hopf, "compile_comul", comuls),
                               (compiled, "compile_vectors", columns)):
        def spy(table, field, real=getattr(module, name), into=into):
            into.append(table)
            return real(table, field)
        monkeypatch.setattr(module, name, spy)
    s = parse(text)
    solve_beta(s)
    sharp = sharp_antipode(s)
    sk = antipode_sk(functor_l(s))
    seeded = list(seeds)
    # parse seeded the product, the coproduct and alpha; the bullet algebra,
    # S_> and S_K were seeded where they were summed
    for c in (s.carrier.algebra, s.carrier.coalgebra, s.action, bullet_algebra(s), sharp, sk):
        assert any(c is x for x in seeded), type(c).__name__
    # the one tensor compiled is the solved beta, and no coproduct is
    assert [t is s.beta.act for t in tensors] == [True]
    assert comuls == []
    for m in (x for x in seeded if type(x) is Matrix):
        cols = m._cache.get("_cols")
        assert cols is None or not any(vs and vs[0] is cols[0] for vs in columns)
