"""Structure tensors compiled to plain-int tables, and the compare that runs
an identity on them.

A compiled table holds a tensor's entries as plain ints: over Q as
numerators over one common denominator, the table's ``scale``; over F_p as
the residues, with scale 1.  A row is a tuple of ``(k, n)`` pairs, or of
``(j, k, n)`` triples for a coproduct.  Compiling checks every F_p entry's
modulus once, and raises ``FieldError`` on a ``ModInt`` of another modulus,
as the contraction helpers of ``linalg`` do per term.

An identity on basis tuples is a ``contract(acc, where, wl, wr)`` that adds
wl times its left side and wr times its right side, as int sums keyed by
basis index, into ``acc``.  Each side is one contraction pattern, so its
int sum is its exact value times a known scale, the product of the scales
of the tables it reads: s_l and s_r.  ``compare`` tests lhs = rhs as
lhs * s_r = rhs * s_l, cross-multiplied in one pass with the weights
wl = s_r / g and wr = -s_l / g (g = gcd(s_l, s_r)), so the tuple passes
when every sum in ``acc`` is 0, or 0 mod p.  Only a tuple that becomes a
tally's witness has its sides computed apart and divided by their scales
into field scalars, to render them with ``vector_text`` or ``pairs_text``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from typing import NamedTuple

from .field import FieldSpec, ModInt, _mixed, canonical
from .linalg import Vector
from .report import Tally, pairs_text, vector_text


class IntTable(NamedTuple):
    """A compiled tensor: rows of int entries, and the common scale they
    are multiplied by (1 over F_p)."""

    rows: list
    scale: int


def _scale(entries, p: int | None) -> int:
    """The least common denominator of the Q scalars in entries; 1 over F_p."""
    d = 1
    if p is None:
        for c in entries:
            if c.__class__ is not int:
                q = c.denominator
                d = d * q // gcd(d, q)
    return d


def _int(c, d: int, p: int | None) -> int:
    """c * d over Q, the residue of c over F_p (checked against p)."""
    if p is None:
        return c * d if c.__class__ is int else c.numerator * (d // c.denominator)
    if c.p != p:
        raise _mixed(p, c.p)
    return c.value


def _items(v: Vector, d: int, p: int | None) -> tuple:
    """The (k, n) of v in index order, so equal vectors compile alike."""
    return tuple((k, _int(c, d, p)) for k, c in sorted(v.entries.items()))


def compile_vectors(vectors: list[Vector], field: FieldSpec) -> IntTable:
    """One row per vector."""
    p = field.p
    d = _scale((c for v in vectors for c in v.entries.values()), p)
    return IntTable([_items(v, d, p) for v in vectors], d)


def compile_tensor(table: list[list[Vector]], field: FieldSpec) -> IntTable:
    """rows[i][j] for the vector table[i][j]."""
    p = field.p
    d = _scale((c for row in table for v in row for c in v.entries.values()), p)
    return IntTable([[_items(v, d, p) for v in row] for row in table], d)


def compile_comul(comul: list[list[tuple]], field: FieldSpec) -> IntTable:
    """rows[i] = the (j, k, n) terms of Delta(e_i)."""
    p = field.p
    d = _scale((c for terms in comul for _, _, c in terms), p)
    return IntTable([tuple((j, k, _int(c, d, p)) for j, k, c in terms) for terms in comul], d)


def compile_groups(groups: list[list[tuple]], field: FieldSpec) -> IntTable:
    """rows[x] = the (x1, x2, items) of (x1, x2, Vector) triples."""
    p = field.p
    d = _scale((c for terms in groups for _, _, v in terms for c in v.entries.values()), p)
    return IntTable([[(x1, x2, _items(v, d, p)) for x1, x2, v in terms] for terms in groups], d)


def int_bilinear(table: list, u, v, p: int | None) -> list[tuple[int, int]]:
    """The nonzero (k, n) of sum over u's (i, a) and v's (j, b) of
    a * b * table[i][j], reduced mod p over F_p: an intermediate product."""
    acc: dict[int, int] = {}
    get = acc.get
    for i, a in u:
        row = table[i]
        for j, b in v:
            ab = a * b
            for k, c in row[j]:
                acc[k] = get(k, 0) + ab * c
    if p is None:
        return [(k, n) for k, n in acc.items() if n]
    return [(k, n) for k, n in ((k, n % p) for k, n in acc.items()) if n]


def _scalars(sums: dict, scale: int, field: FieldSpec) -> dict:
    """The nonzero field scalars n / scale of int sums."""
    p = field.p
    if p is None:
        return {k: canonical(Fraction(n, scale)) for k, n in sums.items() if n}
    return {k: ModInt(n, p) for k, n in sums.items() if n % p}


def vector_render(dim: int):
    """Render int sums keyed by basis index as ``vector_text``."""
    def render(sums: dict, scale: int, field: FieldSpec) -> str:
        return vector_text(Vector(dim, _scalars(sums, scale, field), field))
    return render


def pairs_render(dim: int):
    """Render int sums keyed by i * dim + j as ``pairs_text`` of (i, j)."""
    def render(sums: dict, scale: int, field: FieldSpec) -> str:
        return pairs_text({divmod(k, dim): c for k, c in _scalars(sums, scale, field).items()})
    return render


def cube(d: int):
    """The basis triples (i, j, k) in lexicographic order."""
    return product(range(d), repeat=3)


def square(d: int):
    """The basis pairs (i, j) in lexicographic order."""
    return product(range(d), repeat=2)


def compare(t: Tally, tuples, contract, sl: int, sr: int, field: FieldSpec, render) -> None:
    """Record on t, for each tuple, whether contract's sides agree (see the
    module docstring); sl and sr are their scales.  The tuples may come in
    any order: the failures are recorded in lexicographic order, so the
    least failing tuple is the witness."""
    g = gcd(sl, sr)
    wl, wr = sr // g, -(sl // g)
    p = field.p
    failed = []
    for where in tuples:
        acc: dict[int, int] = {}
        contract(acc, where, wl, wr)
        if p is None:
            ok = not any(acc.values())
        else:
            ok = not any(n % p for n in acc.values())
        if ok:
            t.record(where, True)
        else:
            failed.append(where)
    for where in sorted(failed):
        if t.witness is not None:
            t.record(where, False)
        else:
            lhs: dict[int, int] = {}
            rhs: dict[int, int] = {}
            contract(lhs, where, 1, 0)
            contract(rhs, where, 0, 1)
            t.record(where, False, render(lhs, sl, field), render(rhs, sr, field))
