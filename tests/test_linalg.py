"""Exact linear algebra: solve, kernel, invert, with self-verification."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import forward_bareiss_q
from ydalgebra import linalg
from ydalgebra.compiled import bilinear_vectors
from ydalgebra.field import RATIONALS, FieldSpec, ModInt
from ydalgebra.hopf import ActionTensor, AlgebraData
from ydalgebra.linalg import (
    LinAlgError,
    Matrix,
    Vector,
    identity_matrix,
    invert,
    kernel,
    solve,
    unit_vector,
)

F7 = FieldSpec(7)


def qmat(rows):
    nr, nc = len(rows), len(rows[0]) if rows else 0
    entries = {
        (i, j): Fraction(v)
        for i, row in enumerate(rows)
        for j, v in enumerate(row)
        if v
    }
    return Matrix(nr, nc, entries, RATIONALS)


def qvec(vals):
    return Vector(len(vals), {i: Fraction(v) for i, v in enumerate(vals) if v}, RATIONALS)


def test_solve_identity():
    a = identity_matrix(2, RATIONALS)
    res = solve(a, qvec([1, 2]))
    assert res.solution == qvec([1, 2])
    assert res.kernel == []


def test_solve_rank_deficient():
    a = qmat([[1, 1], [2, 2]])
    b = qvec([1, 2])
    res = solve(a, b)
    assert res.solution is not None
    assert a.apply(res.solution) == b
    assert len(res.kernel) == 1
    v = res.kernel[0]
    assert a.apply(v).is_zero()
    # kernel direction proportional to (1, -1)
    assert v.get(0) == -v.get(1) and v.get(0) != 0


def test_solve_inconsistent():
    a = qmat([[1, 1], [2, 2]])
    res = solve(a, qvec([1, 3]))
    assert res.solution is None


def test_solve_dimension_mismatch():
    with pytest.raises(LinAlgError):
        solve(qmat([[1, 1]]), qvec([1, 2]))


def test_kernel_zero_matrix():
    a = Matrix(2, 2, {}, RATIONALS)
    basis = kernel(a)
    assert basis == [unit_vector(2, 0, RATIONALS), unit_vector(2, 1, RATIONALS)]


def test_kernel_identity_empty():
    assert kernel(identity_matrix(3, RATIONALS)) == []


def test_kernel_one_row():
    a = qmat([[1, 2, 3]])
    basis = kernel(a)
    assert len(basis) == 2
    for v in basis:
        assert a.apply(v).is_zero()


def test_invert_identity():
    i4 = identity_matrix(4, RATIONALS)
    assert invert(i4) == i4


def test_invert_involution():
    a = qmat([[0, 1], [1, 0]])
    assert invert(a) == a


def test_invert_upper_triangular():
    a = qmat([[1, 1], [0, 1]])
    assert invert(a) == qmat([[1, -1], [0, 1]])


def test_invert_singular():
    assert invert(qmat([[1, 1], [1, 1]])) is None


def _corrupted_back_substitution(monkeypatch):
    """Patch the one-pass back-substitution so that every system it solves,
    each right-hand side and each kernel vector, comes out with 1 added to
    its unknown 0."""
    real = linalg._back_substitute_all

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        for x in out:
            x[0] = x.get(0, 0) + 1 or 1
        return out

    monkeypatch.setattr(linalg, "_back_substitute_all", corrupted)


def test_invert_failed_self_check_raises(monkeypatch):
    _corrupted_back_substitution(monkeypatch)
    with pytest.raises(LinAlgError, match="self-check"):
        invert(qmat([[1, 1], [0, 1]]))


def test_solve_deterministic():
    a = qmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    b = qvec([6, 12, 2])
    r1 = solve(a, b)
    r2 = solve(a, b)
    assert r1.solution == r2.solution
    assert r1.kernel == r2.kernel


def _bareiss(monkeypatch):
    """Solve over Q with the dense Bareiss oracle in place of the sparse
    fraction-free engine, the reference a test compares the engine to;
    over F_p the engine stays."""
    engine = linalg._forward

    def forward(rows, ncols, p):
        return forward_bareiss_q(rows, ncols) if p is None else engine(rows, ncols, p)

    monkeypatch.setattr(linalg, "_forward", forward)


def test_sparse_path_used_above_dense_limit(monkeypatch):
    # 70 columns, past the size the dense Bareiss engine once served: the
    # sparse engine and the Bareiss oracle solve and invert alike
    n = 70
    entries = {}
    for i in range(n):
        entries[(i, i)] = Fraction(2)
        if i + 1 < n:
            entries[(i, i + 1)] = Fraction(1)
    a = Matrix(n, n, entries, RATIONALS)
    b = Vector(n, {0: Fraction(1)}, RATIONALS)
    res = solve(a, b)
    assert res.solution is not None and res.kernel == []
    assert a.apply(res.solution) == b
    inv_a = invert(a)
    assert inv_a is not None
    assert inv_a.compose(a) == identity_matrix(n, RATIONALS)
    _bareiss(monkeypatch)
    assert solve(a, b) == res and invert(a) == inv_a


small_q = st.integers(min_value=-6, max_value=6).map(Fraction)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.lists(small_q, min_size=3, max_size=3), min_size=3, max_size=3))
def test_solver_self_consistency_random(rows):
    a = Matrix(
        3, 3,
        {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v},
        RATIONALS,
    )
    b = qvec([1, 0, 2])
    res = solve(a, b)
    if res.solution is not None:
        assert a.apply(res.solution) == b
    for v in res.kernel:
        assert a.apply(v).is_zero()
    assert len(res.kernel) + (3 - len(res.kernel)) == 3
    inv_a = invert(a)
    if inv_a is not None:
        assert a.compose(inv_a) == identity_matrix(3, RATIONALS)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=9, max_size=9))
def test_solver_self_consistency_f7(vals):
    entries = {}
    for idx, v in enumerate(vals):
        if v % 7:
            entries[(idx // 3, idx % 3)] = ModInt(v, 7)
    a = Matrix(3, 3, entries, F7)
    b = Vector(3, {0: ModInt(1, 7)}, F7)
    res = solve(a, b)
    if res.solution is not None:
        assert a.apply(res.solution) == b
    for v in res.kernel:
        assert a.apply(v).is_zero()


def test_column_and_apply_reject_out_of_range():
    # the column index is a list: a negative column must not wrap around
    a = qmat([[1, 2], [3, 4]])
    for c in (-1, 2):
        with pytest.raises(LinAlgError):
            a.column(c)
    with pytest.raises(LinAlgError):
        a.apply(qvec([1, 2, 3]))


# +-1 are drawn often, so that sums cancel to zero often
_SCALARS = {
    None: st.one_of(st.sampled_from([1, -1]),
                    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))),
    7: st.one_of(st.sampled_from([1, 6]), st.integers(0, 6)).map(lambda v: ModInt(v, 7)),
}


def _typed(v):
    return {k: (type(x), x) for k, x in v.entries.items()}


def _assert_as_checked(v):
    """v holds what the checking constructor stores for the same dict: no
    zero, no integral Fraction, every index in range."""
    assert _typed(v) == _typed(Vector(v.dim, dict(v.entries), v.field))


def _sum(dim, fs, terms):
    """Sum of (index, scalar) terms with the field's own operators."""
    acc = {}
    for k, x in terms:
        acc[k] = acc[k] + x if k in acc else x
    return Vector(dim, acc, fs).entries


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_column_index_and_unchecked_results(data):
    """Matrix.column reads the per-column index, which agrees with a scan of
    the entries; ``Matrix.apply`` and the bilinear maps on compiled tables
    build their results unchecked, and those results are exactly what the
    checking constructor would store."""
    fs = data.draw(st.sampled_from([RATIONALS, F7]))
    scalar = _SCALARS[fs.p]

    def vec(dim):
        return Vector(dim, data.draw(st.dictionaries(st.integers(0, dim - 1), scalar)), fs)

    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    m = Matrix(rows, cols, data.draw(st.dictionaries(st.sampled_from(cells), scalar)), fs)
    fresh = Matrix(rows, cols, dict(m.entries), fs)

    def assert_columns(mat):
        for c in range(cols):
            scan = {r: v for (r, cc), v in mat.entries.items() if cc == c}
            assert mat.column(c) == Vector(rows, scan, fs)

    assert_columns(m)
    v = vec(cols)
    for mat in (m, fresh):  # index built by column(), and by apply()
        out = mat.apply(v)
        _assert_as_checked(out)
        assert out.entries == _sum(rows, fs, ((r, a * v.get(c)) for (r, c), a in mat.entries.items()))
        assert_columns(mat)

    d = data.draw(st.integers(1, 3))
    table = [[vec(d) for _ in range(d)] for _ in range(d)]
    alg = AlgebraData(d, [str(i) for i in range(d)], table, vec(d), fs)
    u, w = vec(d), vec(d)
    results = [bilinear_vectors(alg.int_mul(), d, [u], [w], fs)[0][0]]
    assert results[0].entries == _sum(d, fs, ((k, a * b * x) for i, a in u.entries.items()
                                              for j, b in w.entries.items()
                                              for k, x in table[i][j].entries.items()))

    target = data.draw(st.integers(1, 3))
    act = ActionTensor(d, target, [[vec(target) for _ in range(target)] for _ in range(d)], fs)
    t = vec(target)
    acted = bilinear_vectors(act.int_act(), target, [u, *(unit_vector(d, i, fs) for i in range(d))], [t], fs)
    assert acted[0][0].entries == _sum(target, fs, ((k, a * b * x) for i, a in u.entries.items()
                                                    for j, b in t.entries.items()
                                                    for k, x in act.act[i][j].entries.items()))
    results += [row[0] for row in acted]
    for r in results:
        _assert_as_checked(r)


# --- elimination: the column index and carried right-hand sides -------------


def ref_forward_sparse_q(rows, ncols):
    """The sparse Q engine before the column index: every active row is
    scanned twice per column, in the candidate list and the elimination."""
    from math import gcd

    def content(row):
        g = 0
        for v in row.values():
            g = gcd(g, v)
            if g == 1:
                return 1
        return g or 1

    pivots = []
    active = [dict(r) for r in rows]
    done = []
    for col in range(ncols):
        cand = [i for i, r in enumerate(active) if r.get(col)]
        if not cand:
            continue
        cand.sort(key=lambda i: (len(active[i]), i))
        piv = active.pop(cand[0])
        pl = piv[col]
        nxt = []
        for r in active:
            rl = r.get(col)
            if rl:
                new = {}
                for c, v in r.items():
                    w = v * pl - piv.get(c, 0) * rl
                    if w:
                        new[c] = w
                for c, v in piv.items():
                    if c not in r:
                        w = -v * rl
                        if w:
                            new[c] = w
                g = content(new)
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                if new:
                    nxt.append(new)
            else:
                nxt.append(r)
        active = nxt
        pivots.append((len(done), col))
        done.append(piv)
    done.extend(r for r in active if r)
    return done, pivots


def ref_forward_fp(rows, ncols, p):
    """The F_p engine before the column index."""
    pivots = []
    active = [dict(r) for r in rows]
    done = []
    for col in range(ncols):
        cand = [i for i, r in enumerate(active) if r.get(col, 0) % p]
        if not cand:
            continue
        cand.sort(key=lambda i: (len(active[i]), i))
        piv = active.pop(cand[0])
        inv = pow(piv[col], p - 2, p)
        piv = {c: v * inv % p for c, v in piv.items() if v % p}
        nxt = []
        for r in active:
            rl = r.get(col, 0) % p
            if rl:
                new = {}
                for c in set(r) | set(piv):
                    w = (r.get(c, 0) - piv.get(c, 0) * rl) % p
                    if w:
                        new[c] = w
                if new:
                    nxt.append(new)
            else:
                nxt.append(r)
        active = nxt
        pivots.append((len(done), col))
        done.append(piv)
    done.extend(r for r in active if r)
    return done, pivots


@st.composite
def int_systems(draw, entries):
    """Sparse int rows over ncols coefficient columns and up to three
    carried columns past them.  Some rows are repeated, as they are or
    scaled, so that they cancel to empty rows during the elimination."""
    ncols = draw(st.integers(1, 8))
    width = ncols + draw(st.integers(0, 3))
    rows = draw(st.lists(st.dictionaries(st.integers(0, width - 1), entries, max_size=width), max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            src = rows[draw(st.integers(0, len(rows) - 1))]
            k = draw(entries)
            rows.insert(draw(st.integers(0, len(rows))), {c: v * k for c, v in src.items()})
    return rows, ncols


@settings(derandomize=True, max_examples=300, deadline=None)
@given(int_systems(st.integers(-4, 4).filter(bool)))
def test_sparse_q_engine_matches_the_scanning_engine(system):
    rows, ncols = system
    assert linalg._forward(rows, ncols, None) == ref_forward_sparse_q(rows, ncols)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(int_systems(st.sampled_from([1, 1, 6, 2, 3, 4, 5])), st.sampled_from([7, 11]))
def test_fp_engine_matches_the_scanning_engine(system, p):
    """The same pivots as the oracle, and each echelon row a nonzero
    multiple, mod p, of the oracle's: the engine does not scale a pivot row
    to a leading 1, and scaling a row does not change its support."""
    rows, ncols = system
    rows = [{c: v % p for c, v in r.items()} for r in rows]  # residues in [1, p)
    ech, pivots = linalg._forward(rows, ncols, p)
    want, want_pivots = ref_forward_fp(rows, ncols, p)
    assert pivots == want_pivots and len(ech) == len(want)
    for row, ref in zip(ech, want):
        assert row.keys() == ref.keys() and all(0 < v < p for v in row.values())
        lead = min(ref)
        m = row[lead] * pow(ref[lead], p - 2, p) % p
        assert row == {c: v * m % p for c, v in ref.items()}


def _carried_count(rows, ncols):
    """The number of right-hand sides a row of the system carries, at most."""
    return max([ncols, *(c + 1 for r in rows for c in r)]) - ncols


def test_solve_rows_reduces_fp_rows_on_entry():
    # row 0 is 7 x_0 + b = 0 with 7 = 0 mod 7: the pivot of column 0 must
    # not land on it, and the row reads 0 = 1 (mod 7), an inconsistent rhs
    sols, kern = linalg.solve_rows([{0: 7, 2: 1}, {0: 1, 1: 2, 2: 3}, {1: 1, 2: 1}], 2, 1, F7)
    assert sols == [None] and kern == []


@settings(derandomize=True, max_examples=200, deadline=None)
@given(int_systems(st.sampled_from([1, 1, 6, 2, 3, 4, 5])), st.sampled_from([7, 11]), st.data())
def test_solve_rows_reads_fp_rows_as_any_ints(system, p, data):
    """Each entry shifted by a multiple of p, and entries that are 0 mod p
    added: the same solutions, inconsistent right-hand sides and kernel as
    on the residues."""
    rows, ncols = system
    rows = [{c: v % p for c, v in r.items()} for r in rows]
    nrhs = _carried_count(rows, ncols)
    width = ncols + nrhs
    shift = st.integers(-3, 3)
    shifted = []
    for r in rows:
        row = {c: v + p * data.draw(shift) for c, v in r.items()}
        for c in data.draw(st.sets(st.integers(0, width - 1), max_size=2)):
            if c not in row:
                row[c] = p * data.draw(shift.filter(bool))
        shifted.append(row)
    fs = FieldSpec(p)
    assert linalg.solve_rows(shifted, ncols, nrhs, fs) == linalg.solve_rows(rows, ncols, nrhs, fs)


def _mod(v: Vector, fs: FieldSpec) -> Vector:
    return Vector(v.dim, {c: fs.scalar(a.numerator, a.denominator) for c, a in v.entries.items()}, fs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(int_systems(st.integers(-4, 4).filter(bool)), st.sampled_from([7, 11]))
def test_fp_solutions_are_the_q_ones_reduced_mod_p(system, p):
    """Where the elimination picks the same pivot columns over Q and mod p,
    every right-hand side solvable over Q has as its F_p solution the Q one
    reduced mod p, and the F_p kernel is the Q kernel reduced mod p."""
    rows, ncols = system
    q_cols = [c for _, c in linalg._forward(rows, ncols, None)[1]]
    assume(q_cols == [c for _, c in linalg._forward(rows, ncols, p)[1]])
    nrhs, fs = _carried_count(rows, ncols), FieldSpec(p)
    q_sols, q_kern = linalg.solve_rows(rows, ncols, nrhs, RATIONALS)
    p_sols, p_kern = linalg.solve_rows(rows, ncols, nrhs, fs)
    assert p_kern == [_mod(v, fs) for v in q_kern]
    for x, y in zip(q_sols, p_sols):
        assert x is None or y == _mod(x, fs)


def test_solve_many_consistent_and_inconsistent_in_one_call():
    for fs, scal in ((RATIONALS, Fraction), (F7, lambda v: ModInt(v, 7))):
        a = Matrix(2, 2, {(i, j): scal(v) for (i, j), v in
                          {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2}.items()}, fs)
        good = Vector(2, {0: scal(1), 1: scal(2)}, fs)
        bad = Vector(2, {0: scal(1), 1: scal(3)}, fs)
        (x, none, y), kern = linalg.solve_many(a, [good, bad, good])
        assert none is None and x == y and a.apply(x) == good
        assert len(kern) == 1 and a.apply(kern[0]).is_zero()
        assert solve(a, good).solution == x and solve(a, bad).solution is None


def _rank_deficient(n, fs):
    """Bidiagonal n x n with its last column zero: rank n - 1, and e_{n-1}
    outside its column space."""
    entries = {}
    for i in range(n - 1):
        entries[(i, i)] = fs.scalar(2, 1)
        entries[(i + 1, i)] = fs.one
    return Matrix(n, n, entries, fs)


# "dense": a small system, solved over Q by the Bareiss oracle in place of
# the sparse engine; "sparse": a larger one, on the engine itself
@pytest.mark.parametrize("fs", [RATIONALS, F7], ids=["q", "f7"])
@pytest.mark.parametrize(("n", "engine"), [(5, "dense"), (70, "sparse")], ids=["dense", "sparse"])
def test_solve_many_on_a_rank_deficient_block(monkeypatch, fs, n, engine):
    if engine == "dense":
        _bareiss(monkeypatch)
    one = fs.one
    a = _rank_deficient(n, fs)
    bs = [Vector(n, {0: one}, fs), Vector(n, {n - 1: one}, fs), Vector(n, {}, fs),
          a.apply(Vector(n, {1: one, 3: fs.scalar(3, 1)}, fs))]
    sols, kern = linalg.solve_many(a, bs)
    assert kern == kernel(a) == [unit_vector(n, n - 1, fs)]
    assert sols[1] is None and sols[2] == Vector(n, {}, fs)
    for x, b in zip(sols, bs):
        assert x == solve(a, b).solution
        assert x is None or a.apply(x) == b


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_dense_and_sparse_engines_agree_with_carried_columns(data):
    """The Bareiss oracle carries the right-hand sides through its row
    operations; the sparse engine must give the same solutions,
    inconsistent right-hand sides and kernel."""
    nr, nc = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    cells = [(r, c) for r in range(nr) for c in range(nc)]
    small = st.integers(-3, 3).map(Fraction)
    a = Matrix(nr, nc, data.draw(st.dictionaries(st.sampled_from(cells), small)), RATIONALS)
    bs = [Vector(nr, data.draw(st.dictionaries(st.integers(0, nr - 1), small)), RATIONALS)
          for _ in range(data.draw(st.integers(0, 4)))]
    sparse = linalg.solve_many(a, bs)
    with pytest.MonkeyPatch.context() as mp:
        _bareiss(mp)
        dense = linalg.solve_many(a, bs)
    assert dense == sparse
    for x, b in zip(dense[0], bs):
        assert x is None or a.apply(x) == b


@pytest.mark.parametrize(("n", "engine"), [(3, "dense"), (70, "sparse")], ids=["dense", "sparse"])
def test_solve_many_corrupted_back_substitution_raises(monkeypatch, n, engine):
    if engine == "dense":
        _bareiss(monkeypatch)
    singular = _rank_deficient(n, RATIONALS)
    full = Matrix(n, n, {**singular.entries, (n - 1, n - 1): Fraction(1)}, RATIONALS)
    bs = [Vector(n, {0: Fraction(2)}, RATIONALS), Vector(n, {1: Fraction(1)}, RATIONALS)]
    _corrupted_back_substitution(monkeypatch)
    with pytest.raises(LinAlgError, match="A x != b"):
        linalg.solve_many(full, bs)
    with pytest.raises(LinAlgError, match="kernel vector"):
        kernel(singular)
