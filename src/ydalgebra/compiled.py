"""Structure tensors compiled to plain-int tables, and the compare that runs
an identity on them.

A compiled table holds a tensor's entries as plain ints: over Q as
numerators over one common denominator, the table's ``scale``; over F_p as
the residues, with scale 1.  A row is a tuple of ``(k, n)`` pairs, or of
``(j, k, n)`` triples for a coproduct.  Compiling checks every F_p entry's
modulus once, and raises ``FieldError`` on a ``ModInt`` of another modulus:
every contraction in the package sums compiled tables, so that is where a
mixed modulus is caught.  A ``Matrix`` keeps its compiled columns in its
cache, and ``Matrix.apply`` reads them.

A table is compiled where it is made, and its container's cache seeded
with it: ``structio.parse`` compiles each table of a file from the tokens
it has read (every scalar of a file is in its one field), and a producer
that sums a table as ints hands it over ``reduced``, at the least scale
and with each cell sorted, which is exactly what compiling the Vectors it
divides to gives (``hopf.table_action``, ``table_algebra`` and
``column_matrix``).  Such a producer reads only compiled tables, so its
sums carry no foreign modulus.  The compiles below serve the rest: a
container built by hand, or from Vectors a solver returned.

An identity on basis tuples is evaluated one row at a time: a row is the
tuples prefix + (k,) for k < n, and a ``contract(acc, prefix, wl, wr)``
adds, for every k of the row, wl times the tuple's left side and wr times
its right side, as int sums keyed k * width + q for the basis index q of
the value, into ``acc``.  So whatever depends only on the prefix (a row
of a table, the legs of its first index grouped by their second leg) is
read once per row and not once per tuple.  Each side is one contraction
pattern, so its int sum is its exact value times a known scale, the
product of the scales of the tables it reads: s_l and s_r.  ``compare``
tests lhs = rhs as lhs * s_r = rhs * s_l, cross-multiplied in one pass
with the weights wl = s_r / g and wr = -s_l / g (g = gcd(s_l, s_r)), so a
tuple passes when every sum it keys is 0, or 0 mod p.  Only a tuple that
becomes a tally's witness has its row's sides computed apart, cut to its
k and divided by their scales into field scalars, to render them with
``vector_text`` or ``pairs_text``.

An identity on (x, y) whose sides live in a tensor square runs on rows
(x,) and keys its sums by k * dim**2 + p * dim + q for the pair (p, q).
Its sides are often shared patterns, so they are written apart, as a
``side(acc, prefix, w)`` that adds w times one side for the whole row,
and ``sides`` makes the contract of two of them: ``image_side`` for
f(T[i][j]), a map f given by its compiled columns applied to every entry
of a row of a compiled 2-index table T (Delta, a coaction rho, Ad_L or
S_>), with ``comul_side`` its case for Delta, and ``legs_side`` for
T[i_1][j_1] (x) U[i_2][j_2] summed over the legs of i and of j.  A side in
a tensor cube keys its sums by (p * d_2 + q) * d_3 + r, rendered by
``triples_render``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from typing import NamedTuple

from .field import FieldSpec, ModInt, _mixed, format_scalar
from .linalg import Matrix, Vector, _per_structure, _vector
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


@_per_structure
def compile_columns(m: Matrix) -> IntTable:
    """One row per column of m, built once and kept in m's cache."""
    return compile_vectors([m.column(j) for j in range(m.cols)], m.field)


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


def reduced(t: IntTable) -> IntTable:
    """A table of int sums as ``compile_tensor`` compiles the Vectors it
    divides to (``table_vectors``): each cell sorted, and over Q every entry
    and the scale divided by their gcd, so the scale is the least common
    denominator.  Over F_p the scale is 1 and only the cells are sorted.
    For cells with distinct keys and nonzero entries (residues over F_p),
    as ``int_items`` gives them."""
    rows, g = t.rows, t.scale
    if g != 1:
        g = gcd(g, *[n for row in rows for cell in row for _, n in cell])
    if g == 1:
        return IntTable([[tuple(sorted(cell)) for cell in row] for row in rows], t.scale)
    return IntTable([[tuple(sorted([(k, n // g) for k, n in cell])) for cell in row] for row in rows], t.scale // g)


def int_items(acc: dict, p: int | None) -> list[tuple[int, int]]:
    """The (k, n) of int sums whose n is not 0, reduced mod p over F_p, in
    one pass over acc."""
    out = []
    if p is None:
        for k, n in acc.items():
            if n:
                out.append((k, n))
    else:
        for k, n in acc.items():
            n %= p
            if n:
                out.append((k, n))
    return out


def _scaled(v, a: int, p: int | None) -> list[tuple[int, int]]:
    """The nonzero (k, n) of a times the int vector v, reduced mod p over
    F_p: what ``int_items`` gives on the sums of a * v, since the keys of a
    compiled vector are distinct."""
    out = []
    if p is None:
        for k, c in v:
            c *= a
            if c:
                out.append((k, c))
    else:
        for k, c in v:
            c = c * a % p
            if c:
                out.append((k, c))
    return out


def add_linear(acc: dict, rows: list, u, w: int, base: int = 0) -> None:
    """Add w times sum over u's (i, a) of a * rows[i] into the int sums acc,
    each key offset by base."""
    get = acc.get
    for i, a in u:
        a *= w
        for k, c in rows[i]:
            k += base
            acc[k] = get(k, 0) + a * c


def add_bilinear(acc: dict, table: list, u, v, w: int, base: int = 0) -> None:
    """Add w times sum over u's (i, a) and v's (j, b) of a * b * table[i][j]
    into the int sums acc, each key offset by base."""
    get = acc.get
    for i, a in u:
        row = table[i]
        a *= w
        for j, b in v:
            ab = a * b
            for k, c in row[j]:
                k += base
                acc[k] = get(k, 0) + ab * c


def add_tensors(acc: dict, lefts: dict, right, dim: int, w: int) -> None:
    """Add w times the sum over lefts' (key, sums) of sums (x) right(key),
    keyed p * dim + q, into the int sums acc: sums is the sum of the left
    factors that share the right factor right(key), so each key costs one
    outer product."""
    get = acc.get
    for key, sums in lefts.items():
        v = right(key)
        for p, a in sums.items():
            if a:
                a *= w
                p *= dim
                for q, b in v:
                    acc[p + q] = get(p + q, 0) + a * b


def int_linear(rows: list, u, p: int | None) -> list[tuple[int, int]]:
    """The nonzero (k, n) of sum over u's (i, a) of a * rows[i], reduced mod
    p over F_p: a linear map applied to an intermediate vector.  An empty u
    gives [] and a one-term u its scaled row, with no dict of sums."""
    if not u:
        return []
    if len(u) == 1:
        (i, a), = u
        return _scaled(rows[i], a, p)
    acc: dict[int, int] = {}
    add_linear(acc, rows, u, 1)
    return int_items(acc, p)


def int_bilinear(table: list, u, v, p: int | None) -> list[tuple[int, int]]:
    """The nonzero (k, n) of sum over u's (i, a) and v's (j, b) of
    a * b * table[i][j], reduced mod p over F_p: an intermediate product.
    An empty operand gives [] and one term times one term its scaled table
    entry, with no dict of sums."""
    if not u or not v:
        return []
    if len(u) == 1 and len(v) == 1:
        (i, a), = u
        (j, b), = v
        return _scaled(table[i][j], a * b, p)
    acc: dict[int, int] = {}
    add_bilinear(acc, table, u, v, 1)
    return int_items(acc, p)


def bilinear_table(table: IntTable, left: IntTable, right: IntTable, p: int | None) -> IntTable:
    """rows[x][y] = the nonzero (k, n) of sum over left.rows[x]'s (i, a) and
    right.rows[y]'s (j, b) of a * b * table[i][j], at the product of the
    three scales: a bilinear map on two lists of compiled vectors."""
    t = table.rows
    return IntTable([[int_bilinear(t, u, v, p) for v in right.rows] for u in left.rows],
                    table.scale * left.scale * right.scale)


def mapped(cols: IntTable, table: IntTable, p: int | None) -> IntTable:
    """f(table[x][y]) for every entry of a compiled table, f given by its
    compiled columns."""
    c = cols.rows
    return IntTable([[int_linear(c, v, p) for v in row] for row in table.rows], table.scale * cols.scale)


def bilinear_vectors(table: IntTable, dim: int, left: list[Vector], right: list[Vector],
                     field: FieldSpec) -> list[list[Vector]]:
    """``bilinear_table`` on two lists of Vectors, as Vectors of dim."""
    return table_vectors(dim, bilinear_table(table, compile_vectors(left, field), compile_vectors(right, field),
                                             field.p), field)


def basis(d: int) -> IntTable:
    """The basis vectors e_0, ..., e_{d-1} as a compiled list."""
    return IntTable([((j, 1),) for j in range(d)], 1)


_new_object = object.__new__


def _scalars(sums: dict, scale: int, field: FieldSpec) -> dict:
    """The nonzero field scalars n / scale of int sums, in canonical form (an
    int or a reduced Fraction over Q, a ModInt over F_p), each made directly
    rather than through its type's constructor."""
    p = field.p
    out = {}
    if p is None:
        for k, n in sums.items():
            if n:
                g = gcd(n, scale)
                if g == scale:
                    out[k] = n // scale
                else:
                    f = out[k] = _new_object(Fraction)
                    f._numerator, f._denominator = n // g, scale // g
        return out
    for k, n in sums.items():
        n %= p
        if n:
            r = out[k] = _new_object(ModInt)
            r.value, r.p = n, p
    return out


def int_vector(dim: int, sums: dict, scale: int, field: FieldSpec) -> Vector:
    """The Vector of int sums keyed by basis index (each in range(dim)),
    divided by their scale."""
    return _vector(dim, _scalars(sums, scale, field), field)


def table_vectors(dim: int, table: IntTable, field: FieldSpec) -> list[list[Vector]]:
    """The Vectors of a compiled table's rows[i][j], divided by its scale."""
    return [[int_vector(dim, dict(v), table.scale, field) for v in row] for row in table.rows]


def scalar_render(sums: dict, scale: int, field: FieldSpec) -> str:
    """Render int sums keyed 0 as the field scalar they divide to."""
    return format_scalar(_scalars(sums, scale, field).get(0, field.zero))


def vector_render(dim: int):
    """Render int sums keyed by basis index as ``vector_text``."""
    def render(sums: dict, scale: int, field: FieldSpec) -> str:
        return vector_text(int_vector(dim, sums, scale, field))
    return render


def pairs_render(dim: int):
    """Render int sums keyed by i * dim + j as ``pairs_text`` of (i, j)."""
    def render(sums: dict, scale: int, field: FieldSpec) -> str:
        return pairs_text({divmod(k, dim): c for k, c in _scalars(sums, scale, field).items()})
    return render


def triples_render(d2: int, d3: int):
    """Render int sums keyed by (i * d2 + j) * d3 + k as ``pairs_text`` of
    (i, j, k)."""
    def render(sums: dict, scale: int, field: FieldSpec) -> str:
        return pairs_text({(k // (d2 * d3), k // d3 % d2, k % d3): c
                           for k, c in _scalars(sums, scale, field).items()})
    return render


def square(d: int):
    """The basis pairs (i, j) in lexicographic order: the rows of an
    identity on basis triples."""
    return product(range(d), repeat=2)


def line(d: int):
    """The basis 1-tuples (i,) in order: the rows of an identity on basis
    pairs."""
    return ((i,) for i in range(d))


def sides(left, right):
    """The contract of left = right, for two sides ``side(acc, prefix, w)``."""
    def contract(acc, prefix, wl, wr):
        if wl:
            left(acc, prefix, wl)
        if wr:
            right(acc, prefix, wr)
    return contract


def _table_side(rows: list, dim: int):
    """The side rows[i][j] of a compiled table itself, on the row (i,),
    keyed j * dim + k."""
    def side(acc, prefix, w):
        i, = prefix
        get = acc.get
        for j, v in enumerate(rows[i]):
            base = j * dim
            for k, n in v:
                acc[base + k] = get(base + k, 0) + w * n
    return side


def compare_tables(t: Tally, left: IntTable, right: IntTable, dim: int, field: FieldSpec) -> None:
    """Tally on t whether two compiled tables of vectors of dim agree at
    every (i, j)."""
    n = len(left.rows[0]) if left.rows else 0
    compare(t, line(len(left.rows)), n, dim, sides(_table_side(left.rows, dim), _table_side(right.rows, dim)),
            left.scale, right.scale, field, vector_render(dim))


def tensor_side(left, right, dim: int):
    """The side left (x) right of two int vectors, keyed p * dim + q, on a
    row of one tuple."""
    def side(acc, prefix, w):
        get = acc.get
        for i, a in left:
            a *= w
            i *= dim
            for j, b in right:
                key = i + j
                acc[key] = get(key, 0) + a * b
    return side


def image_side(cols: list, rows: list, width: int):
    """The side f(rows[i][j]) on the row (i,), keyed j * width + k, for the
    map f of compiled columns cols: its scale is the table's times f's."""
    def side(acc, prefix, w):
        i, = prefix
        get = acc.get
        for j, v in enumerate(rows[i]):
            base = j * width
            for r, c in v:
                c *= w
                for k, e in cols[r]:
                    k += base
                    acc[k] = get(k, 0) + c * e
    return side


def comul_side(rows: list, comul: list, dim: int):
    """The side Delta(rows[i][j]) on the row (i,), keyed j * dim**2 +
    p * dim + q: ``image_side`` on the coproduct keyed p * dim + q."""
    return image_side([[(p * dim + q, e) for p, q, e in terms] for terms in comul], rows, dim * dim)


def legs_side(left: list, right: list, icomul: list, jcomul: list, dim: int,
              swap_i: bool = False, swap_j: bool = False, left_dim: int | None = None):
    """The side sum of c_i c_j left[i_1][j_1] (x) right[i_2][j_2] at (i, j),
    over the legs (i_1, i_2, c_i) of icomul[i] and (j_1, j_2, c_j) of
    jcomul[j], on the row (i,) for every j < len(jcomul), keyed
    j * left_dim * dim + p * dim + q, for left factors of left_dim (dim when
    not given) and right factors of dim; swap_i and swap_j trade i_1 with
    i_2 and j_1 with j_2.  Its scale is the product of the four tables'
    scales.  The legs may be any (i_1, i_2, c) rows: the terms of a
    coaction, or grouped legs numbered into a table made for them."""
    jlegs = [[(j2, j1, c) if swap_j else (j1, j2, c) for j1, j2, c in terms] for terms in jcomul]
    d2 = (dim if left_dim is None else left_dim) * dim

    def side(acc, prefix, w):
        i, = prefix
        get = acc.get
        ilegs = [(left[i2], right[i1], ci * w) if swap_i else (left[i1], right[i2], ci * w)
                 for i1, i2, ci in icomul[i]]
        for j, legs in enumerate(jlegs):
            base = j * d2
            for li, ri, ci in ilegs:
                for j1, j2, cj in legs:
                    u, v = li[j1], ri[j2]
                    if not v:
                        continue
                    c = ci * cj
                    for p, a in u:
                        a *= c
                        p = base + p * dim
                        for q, b in v:
                            key = p + q
                            acc[key] = get(key, 0) + a * b
    return side


def render_sides(contract, where, width: int, sl: int, sr: int, field: FieldSpec, render) -> tuple[str, str]:
    """The two sides of contract at the tuple where, cut from its row's sums
    to its last index, each divided by its scale and rendered: a witness's
    lhs and rhs."""
    lhs: dict[int, int] = {}
    rhs: dict[int, int] = {}
    prefix, k = where[:-1], where[-1]
    contract(lhs, prefix, 1, 0)
    contract(rhs, prefix, 0, 1)
    lo = k * width

    def cut(sums: dict) -> dict:
        return {key - lo: n for key, n in sums.items() if lo <= key < lo + width}

    return render(cut(lhs), sl, field), render(cut(rhs), sr, field)


def compare(t: Tally, prefixes, n: int, width: int, contract, sl: int, sr: int, field: FieldSpec,
            render) -> list:
    """Tally on t whether contract's sides agree at every tuple prefix + (k,),
    k < n, of each row prefix, from the row's sums keyed k * width + q (see
    the module docstring); sl and sr are the sides' scales.  The passes are
    counted, and the failures recorded in lexicographic order, so the rows
    may come in any order and the least failing tuple is the witness.  A
    render of None counts the failures without rendering their sides, for
    a caller that reads only the counts; the witness then names the tuple
    with both sides empty.  Returns the failing tuples, in that order."""
    g = gcd(sl, sr)
    wl, wr = sr // g, -(sl // g)
    p = field.p
    failed = []
    passed = 0
    for prefix in prefixes:
        acc: dict[int, int] = {}
        contract(acc, prefix, wl, wr)
        if p is None:
            bad = {key // width for key, v in acc.items() if v} if any(acc.values()) else ()
        else:
            bad = {key // width for key, v in acc.items() if v % p}
        passed += n - len(bad)
        failed.extend(prefix + (k,) for k in bad)
    t.checked += passed
    failed.sort()
    for where in failed:
        if t.witness is not None or render is None:
            t.record(where, False)
        else:
            t.record(where, False, *render_sides(contract, where, width, sl, sr, field, render))
    return failed


def compared(prefixes, n: int, width: int, contract, sl: int, sr: int, field: FieldSpec, render,
             where=None) -> Tally:
    """A fresh tally of ``compare``, its tuples mapped by where."""
    t, out = Tally(), Tally()
    compare(t, prefixes, n, width, contract, sl, sr, field, render)
    out.absorb(t, where=where)
    return out
