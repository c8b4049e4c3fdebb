"""Exact scalar arithmetic over the rationals and prime fields.

A coefficient over Q is a plain ``int`` when its denominator is 1 and a
``fractions.Fraction`` otherwise; over F_p it is a ``ModInt`` residue.
Most structure constants are integers, and int arithmetic is several times
cheaper than Fraction arithmetic, so the int form is made wherever scalars
are made: ``FieldSpec.scalar``, ``one`` and ``zero`` (hence
``parse_scalar``), ``inv``, the solver's back-substitution, and the
constructors of vectors, matrices and coproduct tables, which store every
entry in that form.  Every contraction sums compiled tables (``compiled``):
Q numerators over a common denominator as plain ints, divided back into the
same canonical form once per entry of a result, so a non-integral
coefficient costs a gcd, not a chain of Fraction calls.  Plain operators
elsewhere may still yield an integral
Fraction; ``int`` and ``Fraction`` compare, hash and format alike, so no
result depends on the representation.  All scalar types are immutable and
hashable, and no floating point can sneak in: Q division always goes
through ``Fraction``, never ``int / int``.

``ModInt`` stays the F_p scalar type: vectors, tables and parameters hold
``ModInt``s, and mixing moduli raises ``FieldError``, in its operators and
where a table or vector is compiled.  The contractions do not call its
operators per term; they sum the residues (``.value``) as plain ints and
build each resulting ``ModInt`` directly.  Its ``+``, ``-`` and ``*``
likewise skip ``__init__``: one modulus compare and one ``%`` each.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class FieldError(ValueError):
    """Malformed scalar text or an impossible field operation."""


# ASCII only: \d also takes other scripts' digits
_SCALAR_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# deterministic Miller-Rabin witnesses, exact for all n < 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_new_object = object.__new__


def _mixed(p: int, q: int) -> FieldError:
    """The error for an operation on residues modulo two primes."""
    return FieldError(f"mixed moduli {p} and {q}")


class ModInt:
    """Residue in F_p, stored reduced to 0 <= value < p."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    @property
    def numerator(self) -> int:
        return self.value

    @property
    def denominator(self) -> int:
        return 1

    def __add__(self, other):
        if not isinstance(other, ModInt):
            return NotImplemented
        p = self.p
        if other.p != p:
            raise _mixed(p, other.p)
        r = _new_object(ModInt)
        r.value = (self.value + other.value) % p
        r.p = p
        return r

    def __sub__(self, other):
        if not isinstance(other, ModInt):
            return NotImplemented
        p = self.p
        if other.p != p:
            raise _mixed(p, other.p)
        r = _new_object(ModInt)
        r.value = (self.value - other.value) % p
        r.p = p
        return r

    def __mul__(self, other):
        if not isinstance(other, ModInt):
            return NotImplemented
        p = self.p
        if other.p != p:
            raise _mixed(p, other.p)
        r = _new_object(ModInt)
        r.value = self.value * other.value % p
        r.p = p
        return r

    def __neg__(self):
        return ModInt(-self.value, self.p)

    def __truediv__(self, other):
        if not isinstance(other, ModInt):
            return NotImplemented
        if other.p != self.p:
            raise _mixed(self.p, other.p)
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return ModInt(pow(self.value, exponent, self.p), self.p)

    def inverse(self) -> "ModInt":
        if self.value == 0:
            raise FieldError("inversion of zero")
        return ModInt(pow(self.value, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        return (
            isinstance(other, ModInt)
            and self.value == other.value
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"ModInt({self.value}, p={self.p})"


Scalar = Union[int, Fraction, ModInt]


def canonical(s: Scalar) -> Scalar:
    """``s`` itself, or its numerator when it is an integral Fraction."""
    return s.numerator if s.__class__ is Fraction and s.denominator == 1 else s


@dataclass(frozen=True)
class FieldSpec:
    """Descriptor of the scalar field: Q when ``p`` is None, F_p otherwise."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise FieldError(f"modulus {self.p} is not prime")

    @property
    def kind(self) -> str:
        return "Rationals" if self.p is None else "PrimeField"

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    @property
    def zero(self) -> Scalar:
        return 0 if self.p is None else ModInt(0, self.p)

    @property
    def one(self) -> Scalar:
        return 1 if self.p is None else ModInt(1, self.p)

    def scalar(self, num: int, den: int = 1) -> Scalar:
        """Canonical field element num/den."""
        if den == 0:
            raise FieldError("zero denominator")
        p = self.p
        if p is None:
            return num if den == 1 else canonical(Fraction(num, den))
        if den % p == 0:
            raise FieldError(f"denominator {den} not invertible mod {p}")
        return ModInt(num if den == 1 else num * pow(den, p - 2, p), p)

    def contains(self, s: Scalar) -> bool:
        if self.p is None:
            return isinstance(s, (int, Fraction)) and not isinstance(s, bool)
        return isinstance(s, ModInt) and s.p == self.p


RATIONALS = FieldSpec()


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    """Parse the text form ``-a/b`` (b omitted when 1) into a canonical scalar."""
    m = _SCALAR_RE.fullmatch(text.strip())
    if not m:
        raise FieldError(f"malformed scalar {text!r}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits(), a
        # process-wide setting left as it is
        digits = max(len(g.lstrip("+-")) for g in m.groups() if g)
        raise FieldError(f"scalar with a {digits}-digit integer is beyond the integer conversion limit") from None
    return field.scalar(num, den)


def parse_int(text: str) -> int:
    """``int(text)`` for an optional ASCII sign and ASCII digits; otherwise
    the ``ValueError`` that int() raises on a malformed literal.  int()
    itself also takes underscores, blanks and other scripts' digits, and
    str.isdigit() other scripts' digits.  Unsigned text, the common case,
    is decided by the first two tests."""
    if text.isascii() and (text.isdigit() or text[:1] in ("+", "-") and text[1:].isdigit()):
        return int(text)
    raise ValueError(f"invalid literal for int() with base 10: {text!r}")


def format_scalar(s: Scalar) -> str:
    """Canonical text form; inverse of parse_scalar on canonical scalars."""
    try:
        if isinstance(s, ModInt):
            return str(s.value)
        if s.denominator == 1:
            return str(s.numerator)
        return f"{s.numerator}/{s.denominator}"
    except ValueError:
        # str() refuses the same digits int() does (``parse_scalar``)
        raise FieldError(f"scalar with an integer of more than {sys.get_int_max_str_digits()} digits is beyond "
                         "the integer conversion limit") from None


def inv(x: Scalar) -> Scalar:
    if isinstance(x, ModInt):
        return x.inverse()
    if x == 0:
        raise FieldError("inversion of zero")
    return canonical(1 / Fraction(x))
