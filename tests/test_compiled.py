"""The identities on compiled int tables give the verdicts of Vector loops.

The reference functions below are the Vector-path loops that ALG-ASSOC,
P-DOT, P-ASSOC, L-MB, YD-COMPAT and YD-COLINEAR ran before they moved to
compiled tables, kept here as an oracle (P-DOT's and L-MB's loops, which
differ only in which leg acts on which factor, as one).  On perturbed
Sweedler and E(2) structures, over Q (denominators 1-6), F_7 and F_10007,
each identity must report the same checked count, failure count and
witness as its reference.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ydalgebra.builders import build_en, build_sweedler
from ydalgebra.compiled import compile_comul, compile_groups, compile_tensor, compile_vectors
from ydalgebra.field import RATIONALS, FieldError, FieldSpec, ModInt, format_scalar
from ydalgebra.hopf import AlgebraData, check_algebra, tens2_add_scaled
from ydalgebra.linalg import Vector, _vector, add_scaled_inplace
from ydalgebra.posthopf import (
    _module_algebra,
    _module_algebra_law,
    _module_identity,
    _yd_colinear,
    _yd_compat,
    bullet_algebra,
    left_coaction_adl,
    sharp_antipode,
)
from ydalgebra.report import Tally, pairs_text, vector_text
from ydalgebra.structio import emit, parse

F = Fraction


# --- the reference: Vector-path loops ----------------------------------------


def ref_alg_assoc(a) -> Tally:
    ch = Tally()
    for i in range(a.dim):
        for j in range(a.dim):
            w = a.mul[i][j]
            for k in range(a.dim):
                left = a.mul_vec_basis(w, k)
                right = a.mul_basis_vec(i, a.mul[j][k])
                ch.compare((i, j, k), left, right, vector_text)
    return ch


def ref_module_algebra(s, act, swap: bool) -> Tally:
    """P-DOT for act = alpha; L-MB, whose legs are swapped, for act = beta."""
    alg, coalg = s.carrier.algebra, s.carrier.coalgebra
    d, fs = s.dim, s.field
    t = Tally()
    for i in range(d):
        legs = coalg.comul[i]
        for j in range(d):
            for k in range(d):
                lhs = act.apply_basis(i, alg.mul[j][k])
                acc = {}
                for i1, i2, c in legs:
                    if swap:
                        i1, i2 = i2, i1
                    add_scaled_inplace(acc, alg.mul_vec(act.act[i1][j], act.act[i2][k]), c)
                t.compare((i, j, k), lhs, _vector(d, acc, fs), vector_text)
    return t


def ref_module_identity(s) -> Tally:
    act = s.action
    bullet = bullet_algebra(s)
    d = s.dim
    t = Tally()
    for i in range(d):
        for j in range(d):
            w = bullet.mul[i][j]
            for k in range(d):
                lhs = act.apply_basis(i, act.act[j][k])
                t.compare((i, j, k), lhs, act.apply_vec_basis(w, k), vector_text)
    return t


def ref_sharp_legs(s):
    coalg = s.carrier.coalgebra
    sharp = sharp_antipode(s)
    d, fs = s.dim, s.field
    out = []
    for x in range(d):
        groups = {}
        for (x1, x2, x3), c in coalg.legs(x, 3):
            add_scaled_inplace(groups.setdefault((x1, x2), {}), sharp.column(x3), c)
        out.append([(x1, x2, _vector(d, acc, fs)) for (x1, x2), acc in groups.items() if acc])
    return out


def _vec_to_pairs(v, d):
    return {(i // d, i % d): c for i, c in v.entries.items()}


def ref_yd_compat(s) -> Tally:
    act = s.action
    d, one = s.dim, s.field.one
    bullet = bullet_algebra(s)
    adl = left_coaction_adl(s)
    grouped = ref_sharp_legs(s)
    ch = Tally()
    for a in range(d):
        for b in range(d):
            lhs = _vec_to_pairs(adl.apply(act.act[a][b]), d)
            rhs = {}
            for a1, a2, sa in grouped[a]:
                for b1, b2, sb in grouped[b]:
                    u = bullet.mul_vec(bullet.mul_vec(bullet.mul[a1][b1], sb), sa)
                    tens2_add_scaled(rhs, u, act.act[a2][b2], one)
            ch.compare((a, b), lhs, rhs, pairs_text)
    return ch


def ref_yd_colinear(s) -> Tally:
    alg = s.carrier.algebra
    d, one = s.dim, s.field.one
    bullet = bullet_algebra(s)
    adl = left_coaction_adl(s)
    grouped = ref_sharp_legs(s)
    ch = Tally()
    for a in range(d):
        lefts = [(bullet.mul_basis_vec(a1, sa), a2) for a1, a2, sa in grouped[a]]
        for b in range(d):
            lhs = _vec_to_pairs(adl.apply(alg.mul[a][b]), d)
            rhs = {}
            for left, a2 in lefts:
                for b1, b2, sb in grouped[b]:
                    u = bullet.mul_vec(bullet.mul_vec_basis(left, b1), sb)
                    tens2_add_scaled(rhs, u, alg.mul[a2][b2], one)
            ch.compare((a, b), lhs, rhs, pairs_text)
    return ch


# --- the compiled identities, one tally each ---------------------------------


def _tally(run) -> Tally:
    t = Tally()
    run(t)
    return t


def compiled_tallies(s) -> dict:
    return {
        "ALG-ASSOC": check_algebra(s.carrier.algebra).entry("ALG-ASSOC"),
        "P-DOT": _module_algebra(s)[0],
        "P-ASSOC": _module_identity(s),
        "L-MB": _tally(lambda t: _module_algebra_law(t, s, s.beta.int_act(), swap=True)),
        "YD-COMPAT": _tally(lambda t: _yd_compat(t, s)),
        "YD-COLINEAR": _tally(lambda t: _yd_colinear(t, s)),
    }


def reference_tallies(s) -> dict:
    return {
        "ALG-ASSOC": ref_alg_assoc(s.carrier.algebra),
        "P-DOT": ref_module_algebra(s, s.action, swap=False),
        "P-ASSOC": ref_module_identity(s),
        "L-MB": ref_module_algebra(s, s.beta, swap=True),
        "YD-COMPAT": ref_yd_compat(s),
        "YD-COLINEAR": ref_yd_colinear(s),
    }


def _verdict(t) -> tuple:
    return (t.checked, t.failures, t.witness)


# --- perturbed structures ------------------------------------------------------

BUILDS = {
    "sweedler": lambda fs: build_sweedler(F(1, 2) if fs.p is None else 3, fs),
    "en2": lambda fs: build_en(2, [[2, F(1, 3)], [F(1, 3), -1]], fs),
}
# the lines whose coefficients a perturbation may change or delete
PERTURBED = ("mul", "comul", "action", "beta", "antipode")


@functools.cache
def _base_lines(name: str, p: int | None) -> tuple[str, ...]:
    return tuple(emit(BUILDS[name](RATIONALS if p is None else FieldSpec(p))).splitlines())


def _coefficient(p: int | None):
    """A nonzero coefficient as text, or None to delete the line."""
    if p is None:
        value = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 6))
        value = value.map(format_scalar)
    else:
        value = st.integers(1, p - 1).map(str)
    return st.one_of(st.none(), value)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUILDS)), st.sampled_from([None, 7, 10007]), st.data())
def test_compiled_identities_match_vector_reference(name, p, data):
    lines = list(_base_lines(name, p))
    candidates = [i for i, line in enumerate(lines) if line.split()[0] in PERTURBED]
    picks = data.draw(st.lists(st.sampled_from(candidates), max_size=3, unique=True))
    for i in picks:
        value = data.draw(_coefficient(p))
        lines[i] = None if value is None else lines[i].rsplit(" ", 1)[0] + " " + value
    s = parse("\n".join(line for line in lines if line is not None) + "\n")
    got, want = compiled_tallies(s), reference_tallies(s)
    for axiom in want:
        assert _verdict(got[axiom]) == _verdict(want[axiom]), axiom


def test_perturbations_reach_failures_in_every_identity():
    # one coefficient of the product, changed, fails all six identities, so
    # the property test above compares witnesses and not just passes
    for p in (None, 7):
        lines = list(_base_lines("en2", p))
        i = lines.index(next(x for x in lines if x.startswith("mul 4 4 0 ")))
        lines[i] = "mul 4 4 0 3"
        s = parse("\n".join(lines) + "\n")
        got, want = compiled_tallies(s), reference_tallies(s)
        for axiom in want:
            assert got[axiom].failures > 0, axiom
            assert _verdict(got[axiom]) == _verdict(want[axiom]), axiom


# --- the modulus is checked when a table is compiled ----------------------------


def test_compiling_a_modint_of_another_modulus_raises():
    f7 = FieldSpec(7)
    bad = Vector(2, {0: ModInt(1, 7), 1: ModInt(2, 11)}, f7)
    good = Vector(2, {0: ModInt(3, 7)}, f7)
    with pytest.raises(FieldError):
        compile_vectors([good, bad], f7)
    with pytest.raises(FieldError):
        compile_tensor([[good, good], [good, bad]], f7)
    with pytest.raises(FieldError):
        compile_groups([[(0, 1, good)], [(1, 0, bad)]], f7)
    with pytest.raises(FieldError):
        compile_comul([[(0, 0, ModInt(1, 7))], [(0, 1, ModInt(1, 11))]], f7)
    alg = AlgebraData(2, ["1", "x"], [[good, good], [good, bad]], good, f7)
    with pytest.raises(FieldError):
        check_algebra(alg)


def test_compiled_tables_scale_to_a_common_denominator():
    vs = [Vector(3, {0: F(1, 2), 2: 3}, RATIONALS), Vector(3, {1: F(-2, 3)}, RATIONALS)]
    table = compile_vectors(vs, RATIONALS)
    assert table.scale == 6
    assert table.rows == [((0, 3), (2, 18)), ((1, -4),)]
    f7 = FieldSpec(7)
    table = compile_vectors([Vector(3, {2: ModInt(5, 7), 0: ModInt(1, 7)}, f7)], f7)
    assert table == ([((0, 1), (2, 5))], 1)
