"""Q and F_p results check each other.

A structure built over Q and reduced mod p through the public text format
(``parse(emit(s).replace("field Q", "field Fp p"))``; ``FieldSpec.scalar``
inverts each denominator mod p) must emit the same bytes as the F_p
builder's structure and get the same machine report.  The builders solve
beta and the antipodes from linear systems with unique solutions, so the
two agree whenever no constant degenerates mod p.  A prime at which a
parameter reduces to 0, or divides one of its denominators, is skipped:
there the F_p structure is a different one, or the reduction is undefined.

The same holds for the structures derived from a file and for the
builders that take no rational constant: the brace, matched pair and
``rb_l`` operator derived over Q and reduced must be the bytes, and get
the machine report, of the ones derived from the reduced file, and the
adjoint example, a group algebra and a linearized group operator built
over Q and reduced must be the ones built over F_p.

The operators R : K -> H with dim K < dim H of the ``*-rb_l-sub`` goldens
are cross-checked too: each Q golden reduced mod 7 is the bytes, and gets
the ``--mode pre`` machine report, of the F_7 golden, and functor R in mode
C' takes it to the F_7 ``post_r`` golden.

The solvers are cross-checked the same way on files without beta: beta
solved over Q and emitted, then reduced, must be the bytes of beta solved
from the reduced file, and the braided antipode S_K of the functor L image
must agree entry by entry after reduction.

The Hopf layer's own laws (HOPF-ANTIPODE, P-S, P-COALG, HOPF-EPS-MULT,
HOPF-DELTA-UNIT, HOPF-EPS-UNIT) are cross-checked on integral mutants of
the h4 and Sweedler goldens: each must give the same verdict, counts and
witness tuple over Q and over F_10007.
"""

import functools
from fractions import Fraction
from pathlib import Path

import pytest

from ydalgebra.braces import functor_f, to_matched_pair
from ydalgebra.builders import (
    build_adjoint, build_en, build_group_rb_linearization, build_suzuki, build_sweedler, cyclic_group, group_algebra,
    group_rb_inversion, symmetric_group_3,
)
from ydalgebra.cli import run_suite
from ydalgebra.field import RATIONALS, FieldSpec, format_scalar
from ydalgebra.posthopf import YDPostHopf, check_yd_post_hopf, solve_beta
from ydalgebra.rota import antipode_sk, functor_l, functor_r
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


def _skip_degenerate(name, p):
    constants = CASES[name][1]
    bad = [c for c in constants if F(c).numerator % p == 0 or F(c).denominator % p == 0]
    assert 0 not in constants
    if bad:
        pytest.skip(f"constants {bad} vanish or are not invertible mod {p}")


def _reduce(text: str, p: int) -> str:
    return text.replace("field Q\n", f"field Fp {p}\n")


def _without_beta(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("beta "))


def _matrix_text(m, fs=None) -> str:
    """The entries of m as sorted lines "row col value", each value reduced
    into fs first when fs is given."""
    def value(v):
        return v if fs is None else fs.scalar(F(v).numerator, F(v).denominator)
    return "".join(f"{r} {c} {format_scalar(value(v))}\n" for (r, c), v in sorted(m.entries.items()))


@pytest.mark.parametrize("name,p", PARAMS, ids=[f"{n}-p{p}" for n, p in PARAMS])
def test_q_build_reduced_mod_p_equals_fp_build(name, p):
    build = CASES[name][0]
    _skip_degenerate(name, p)
    text = _q_text(name)
    assert "field Q\n" in text
    reduced = parse(_reduce(text, p))
    direct = build(FieldSpec(p))
    assert emit(reduced) == emit(direct)
    assert run_suite(reduced).machine_text() == run_suite(direct).machine_text()


DERIVE = {"brace": functor_f, "matchedpair": to_matched_pair, "rb_l": functor_l}


@pytest.mark.parametrize("target", sorted(DERIVE))
@pytest.mark.parametrize("name,p", PARAMS, ids=[f"{n}-p{p}" for n, p in PARAMS])
def test_q_derive_reduced_mod_p_equals_fp_derive(name, p, target):
    _skip_degenerate(name, p)
    derive = DERIVE[target]
    reduced = parse(_reduce(emit(derive(parse(_q_text(name)))), p))
    direct = derive(parse(_reduce(_q_text(name), p)))
    assert emit(reduced) == emit(direct)
    assert run_suite(reduced).machine_text() == run_suite(direct).machine_text()


# builders from group data alone: every constant is an integer
INTEGRAL_BUILDS = {
    "adjoint-c2": lambda fs: build_adjoint(group_algebra(cyclic_group(2), fs)),
    "adjoint-s3": lambda fs: build_adjoint(group_algebra(symmetric_group_3(), fs)),
    "group-s3": lambda fs: group_algebra(symmetric_group_3(), fs),
    "grouprb-s3": lambda fs: build_group_rb_linearization(group_rb_inversion(symmetric_group_3()), fs),
}


@pytest.mark.parametrize("p", [7, 10007])
@pytest.mark.parametrize("name", sorted(INTEGRAL_BUILDS))
def test_q_group_build_reduced_mod_p_equals_fp_build(name, p):
    build = INTEGRAL_BUILDS[name]
    text = emit(build(RATIONALS))
    assert "field Q\n" in text
    reduced, direct = parse(_reduce(text, p)), build(FieldSpec(p))
    assert emit(reduced) == emit(direct)
    assert run_suite(reduced).machine_text() == run_suite(direct).machine_text()


@pytest.mark.parametrize("name,p", PARAMS, ids=[f"{n}-p{p}" for n, p in PARAMS])
def test_solvers_on_a_beta_stripped_file_agree_after_reduction(name, p):
    _skip_degenerate(name, p)
    stripped = _without_beta(_q_text(name))
    q, fp = parse(stripped), parse(_reduce(stripped, p))
    assert q.beta is None and fp.beta is None
    solve_beta(q)
    solve_beta(fp)
    assert emit(parse(_reduce(emit(q), p))) == emit(fp)
    assert emit(q) == _q_text(name)
    assert _matrix_text(antipode_sk(functor_l(q)), FieldSpec(p)) == _matrix_text(antipode_sk(functor_l(fp)))


# The goldens of the operators R : K -> H with dim K < dim H, made by
# restricting functor L's operator to a sub-Hopf algebra K' (``*-rb_l-sub``),
# and of the post-Hopf structures functor R takes them to in mode C'
# (``*-rb_l-sub-post_r``), over Q and over F_7
SUB_GOLDENS = ("sweedler", "en2", "suzuki")


@pytest.mark.parametrize("name", SUB_GOLDENS)
def test_sub_operator_goldens_reduced_mod_7_are_the_f7_goldens(name):
    def golden(field: str, suffix: str = "") -> str:
        return (GOLDEN / f"{name}-{field}-rb_l-sub{suffix}.struct").read_text()

    reduced, direct = parse(_reduce(golden("q"), 7)), parse(golden("f7"))
    assert emit(reduced) == golden("f7")
    assert run_suite(reduced, "pre").machine_text() == run_suite(direct, "pre").machine_text()
    post = functor_r(reduced, "Cprime")
    assert emit(post) == golden("f7", "-post_r")
    assert emit(parse(_reduce(golden("q", "-post_r"), 7))) == golden("f7", "-post_r")
    assert run_suite(post).machine_text() == run_suite(parse(golden("f7", "-post_r"))).machine_text()


# The Hopf layer's own laws, on integral goldens with one coefficient raised
# by 1 (by 2 where 1 would cancel it): an integral identity fails over Q
# exactly where its integer sides differ, and over F_10007 where they differ
# mod 10007, which no difference this small is.
HOPF_LAW_IDS = ("HOPF-EPS-MULT", "HOPF-DELTA-UNIT", "HOPF-EPS-UNIT", "HOPF-ANTIPODE", "P-COALG", "P-S")
INTEGRAL_GOLDENS = ("h4-q", "sweedler-q")
GOLDEN = Path(__file__).parent / "golden"


def _integral_mutants() -> dict:
    out = {}
    for base in INTEGRAL_GOLDENS:
        lines = (GOLDEN / f"{base}.struct").read_text().splitlines()
        assert "field Q" in lines and not any("/" in line for line in lines)
        for i, line in enumerate(lines):
            parts = line.split()
            if parts[0] in ("mul", "comul", "counit", "unit", "antipode"):
                n = int(parts[-1])
                parts[-1] = str(n + 1 if n != -1 else n + 2)
                out[f"{base}-{'-'.join(parts[:-1])}"] = "\n".join(lines[:i] + [" ".join(parts)] + lines[i + 1:]) + "\n"
    return out


INTEGRAL_MUTANTS = _integral_mutants()


def _hopf_law_verdicts(text: str) -> dict:
    """ID -> (status, checked, failures, witness tuple) of the Hopf layer's
    laws in the suite of text's kind."""
    obj = parse(text)
    rep = check_yd_post_hopf(obj) if isinstance(obj, YDPostHopf) else run_suite(obj)
    return {e.axiom: (e.status, e.checked, e.failures, e.witness and e.witness.where)
            for e in rep.entries if e.axiom in HOPF_LAW_IDS}


@pytest.mark.parametrize("name", sorted(INTEGRAL_MUTANTS))
def test_hopf_laws_agree_over_q_and_fp_on_integral_mutants(name):
    text = INTEGRAL_MUTANTS[name]
    q = _hopf_law_verdicts(text)
    assert q and q == _hopf_law_verdicts(_reduce(text, 10007))


def test_integral_mutants_fail_every_hopf_law():
    failing = {axiom for text in INTEGRAL_MUTANTS.values()
               for axiom, (status, *_) in _hopf_law_verdicts(text).items() if status == "fail"}
    assert failing == set(HOPF_LAW_IDS)
