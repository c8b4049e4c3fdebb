"""Exact scalar arithmetic: parsing, canonical forms, field axioms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ydalgebra.field import (
    RATIONALS,
    FieldError,
    FieldSpec,
    ModInt,
    format_scalar,
    inv,
    parse_scalar,
)

F7 = FieldSpec(7)


def test_parse_reduces_to_canonical_form():
    s = parse_scalar("-3/6", RATIONALS)
    assert s.numerator == -1 and s.denominator == 2


def test_parse_zero():
    s = parse_scalar("0", RATIONALS)
    assert s.numerator == 0 and s.denominator == 1


def test_parse_half_mod_7_by_brute_force():
    # oracle: the residue y with 2*y = 1 mod 7, found by exhaustive search
    expected = next(y for y in range(7) if (2 * y) % 7 == 1)
    assert expected == 4
    assert parse_scalar("1/2", F7) == ModInt(expected, 7)


def test_add_fractions():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_mul_inverse_pair():
    assert Fraction(2, 3) * Fraction(3, 2) == Fraction(1)


def test_inv_mod_7_by_exhaustive_check():
    expected = next(y for y in range(7) if (4 * y) % 7 == 1)
    assert expected == 2
    assert inv(ModInt(4, 7)) == ModInt(expected, 7)


def test_inv_zero_raises():
    with pytest.raises(FieldError):
        inv(ModInt(0, 7))
    with pytest.raises(FieldError):
        inv(Fraction(0))


def test_characteristic():
    assert RATIONALS.characteristic == 0
    assert F7.characteristic == 7
    assert RATIONALS.kind == "Rationals"
    assert F7.kind == "PrimeField"


def test_nonprime_modulus_rejected():
    with pytest.raises(FieldError):
        FieldSpec(6)
    with pytest.raises(FieldError):
        FieldSpec(1)


def test_parse_errors():
    # int() would read the last three: other scripts' digits and underscores
    for bad in ["", "x", "1/0", "1.5", "1/-2", "--3", "\u0663", "1/\u0664", "1_0"]:
        with pytest.raises(FieldError):
            parse_scalar(bad, RATIONALS)
    with pytest.raises(FieldError):
        parse_scalar("1/7", F7)


@pytest.mark.parametrize("field", [RATIONALS, F7], ids=["Q", "F7"])
def test_parse_format_roundtrip(field):
    for text in ["0", "1", "-5", "2/3", "-7/3", "6"]:
        try:
            s = parse_scalar(text, field)
        except FieldError:
            continue
        assert parse_scalar(format_scalar(s), field) == s


rationals = st.fractions(max_denominator=10**4)
residues = st.integers(min_value=0, max_value=6).map(lambda v: ModInt(v, 7))


@settings(derandomize=True, max_examples=200)
@given(rationals, rationals, rationals)
def test_field_axioms_rationals(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + -a == 0
    if a != 0:
        assert a * inv(a) == 1


@settings(derandomize=True, max_examples=200)
@given(residues, residues, residues)
def test_field_axioms_f7(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + -a == ModInt(0, 7)
    if a:
        assert a * inv(a) == ModInt(1, 7)


def test_scalars_hashable_and_structural():
    assert parse_scalar("2/4", RATIONALS) == Fraction(1, 2)
    assert hash(ModInt(9, 7)) == hash(ModInt(2, 7))
    assert ModInt(2, 7) != Fraction(2)
