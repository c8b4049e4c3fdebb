"""Q and F_p results check each other.

A structure built over Q and reduced mod p through the public text format
(``parse(emit(s).replace("field Q", "field Fp p"))``; ``FieldSpec.scalar``
inverts each denominator mod p) must emit the same bytes as the F_p
builder's structure and get the same machine report.  The builders solve
beta and the antipodes from linear systems with unique solutions, so the
two agree whenever no constant degenerates mod p.  A prime at which a
parameter reduces to 0, or divides one of its denominators, is skipped:
there the F_p structure is a different one, or the reduction is undefined.
"""

import functools
from fractions import Fraction

import pytest

from ydalgebra.builders import build_en, build_suzuki, build_sweedler
from ydalgebra.cli import run_suite
from ydalgebra.field import RATIONALS, FieldSpec
from ydalgebra.structio import emit, parse

F = Fraction

# name -> (builder taking a field, the nonzero constants it is built from)
CASES = {
    "sweedler": (lambda fs: build_sweedler(F(1, 2), fs), [F(1, 2)]),
    "en2": (lambda fs: build_en(2, [[2, F(1, 3)], [F(1, 3), -1]], fs), [2, F(1, 3), -1]),
    **{f"suzuki({a},{b})": ((lambda a, b: lambda fs: build_suzuki(a, b, fs))(a, b), [a, b])
       for a in (1, -1) for b in (1, -1)},
    "en3": (lambda fs: build_en(3, [[1, F(1, 2), 0], [F(1, 2), 1, 0], [0, 0, 2]], fs),
            [1, F(1, 2), 2]),
}
PARAMS = [(name, p) for name in CASES if name != "en3" for p in (7, 10007)] + [("en3", 10007)]


@functools.cache
def _q_text(name: str) -> str:
    return emit(CASES[name][0](RATIONALS))


@pytest.mark.parametrize("name,p", PARAMS, ids=[f"{n}-p{p}" for n, p in PARAMS])
def test_q_build_reduced_mod_p_equals_fp_build(name, p):
    build, constants = CASES[name]
    bad = [c for c in constants if F(c).numerator % p == 0 or F(c).denominator % p == 0]
    assert 0 not in constants
    if bad:
        pytest.skip(f"constants {bad} vanish or are not invertible mod {p}")
    text = _q_text(name)
    assert "field Q\n" in text
    reduced = parse(text.replace("field Q\n", f"field Fp {p}\n"))
    direct = build(FieldSpec(p))
    assert emit(reduced) == emit(direct)
    assert run_suite(reduced).machine_text() == run_suite(direct).machine_text()
