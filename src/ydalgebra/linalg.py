"""Exact sparse/dense linear algebra over Q and F_p.

Solving, kernels and inverses are fraction-free over Q (Bareiss elimination
on dense systems below 64 columns, cross-multiplication with row-content
reduction on sparse ones) and plain modular elimination over F_p.  There is
one elimination path: ``solve_many`` carries any number of right-hand sides
as extra columns through one forward elimination and back-substitutes each
on its own; ``solve``, ``kernel`` and ``invert`` are its cases with one, no
and n right-hand sides.  The sparse engines keep a column -> row-id index,
so a pivot visits only the rows that hold its column.  Every result is
re-verified against its defining equation before it is returned, so a bug
in the solver can never silently corrupt a structure check.

A ``Vector`` or ``Matrix`` is never mutated after it is built, which lets
vectors be shared: each ``Matrix`` keeps one per-column index, built on
first use, and ``column`` and ``apply`` read it instead of scanning the
entries.  ``Vector(...)`` filters zeros, canonicalises Q scalars and checks
indices; ``_vector`` skips that for the results of the contraction helpers,
whose dicts are already nonzero, canonical and in range.

The contraction helpers do their arithmetic on plain ints: over Q on
numerators and denominators (``_q_axpy``, ``_q_bilinear``), over F_p on the
residues, one ``%`` per term (``_fp_axpy``, ``_fp_bilinear``).  Both delete
an entry that cancels to zero, in the order the terms arrive, so every dict
comes out as a term-by-term loop with scalar operators would leave it.
``ModInt`` stays the F_p scalar type: the F_p helpers store ``ModInt``s and
raise ``FieldError`` on a ModInt of another modulus.

The heaviest suite identities do not go through these helpers.  ALG-ASSOC,
P-DOT, P-ASSOC, L-MB, YD-COMPAT and YD-COLINEAR run on tensors compiled once
into plain-int tables (``compiled``): over Q the numerators over one common
denominator per tensor, over F_p the residues.  Each side of a compare is
an int sum at a known scale, the product of the denominators it read, and
the sides are compared cross-multiplied, lhs * s_r == rhs * s_l (mod p over
F_p).  A ``Vector`` is built only to render the first failing tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd

from .field import FieldSpec, ModInt, Scalar, _mixed, canonical


class LinAlgError(ValueError):
    pass


_DENSE_LIMIT = 64


def _q_stored(entries: dict) -> dict:
    """The nonzero entries of a Q vector or matrix, integral values as ints."""
    out = {}
    for k, c in entries.items():
        if c.__class__ is Fraction:
            if c._denominator != 1:
                out[k] = c
                continue
            c = c._numerator
        if c:
            out[k] = c
    return out


@dataclass
class Vector:
    """Sparse column vector; zero entries are never stored.

    A vector is never mutated after it is built, neither its fields nor its
    ``entries`` dict: matrix columns and structure constants are handed out
    shared, so writing into one would change every structure holding it.
    Build a new vector (``add``, ``scale``, a fresh dict) instead."""

    dim: int
    entries: dict[int, Scalar]
    field: FieldSpec

    def __post_init__(self):
        if self.field.p is None:
            self.entries = _q_stored(self.entries)
        else:
            self.entries = {i: c for i, c in self.entries.items() if c}
        for i in self.entries:
            if not 0 <= i < self.dim:
                raise LinAlgError(f"index {i} out of range for dim {self.dim}")

    def is_zero(self) -> bool:
        return not self.entries

    def get(self, i: int) -> Scalar:
        return self.entries.get(i, self.field.zero)

    def add(self, other: "Vector") -> "Vector":
        out = dict(self.entries)
        for i, c in other.entries.items():
            s = out.get(i)
            s = c if s is None else s + c
            if s:
                out[i] = s
            else:
                out.pop(i, None)
        return Vector(self.dim, out, self.field)

    def scale(self, c: Scalar) -> "Vector":
        if not c:
            return Vector(self.dim, {}, self.field)
        return Vector(self.dim, {i: v * c for i, v in self.entries.items()}, self.field)

    def neg(self) -> "Vector":
        return Vector(self.dim, {i: -v for i, v in self.entries.items()}, self.field)

    def sub(self, other: "Vector") -> "Vector":
        return self.add(other.neg())

    def items_sorted(self):
        return sorted(self.entries.items())

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.dim == other.dim
            and self.entries == other.entries
        )


def unit_vector(dim: int, i: int, field: FieldSpec) -> Vector:
    return Vector(dim, {i: field.one}, field)


_new_object = object.__new__


def _vector(dim: int, entries: dict[int, Scalar], field: FieldSpec) -> Vector:
    """A Vector over ``entries`` without the constructor's filtering and
    checks.  Only for dicts whose values are already nonzero and canonical
    (Q: an int, or a Fraction whose denominator is not 1) and whose keys are
    in range(dim): the results of the contraction helpers.  The dict is
    taken over, not copied."""
    v = _new_object(Vector)
    v.dim = dim
    v.entries = entries
    v.field = field
    return v


def _q_axpy(acc: dict, items, cn: int, cd: int) -> None:
    """acc[k] += w * cn/cd for every (k, w) of items, over Q.

    The core of the contraction loops.  It works on numerators and
    denominators as plain ints, with one gcd per non-integral term, so a
    rational term costs a few int operations more than an integral one
    instead of a chain of Fraction calls.  cn/cd need not be reduced
    (cd > 0); what it stores is canonical: an int, or a reduced Fraction
    built without re-normalising."""
    for k, w in items:
        if w.__class__ is int:
            pn, pd = w * cn, cd
        else:
            pn, pd = w._numerator * cn, w._denominator * cd
        s = acc.get(k)
        if s is None:
            tn, td = pn, pd
        elif s.__class__ is int:
            tn, td = s * pd + pn, pd
        else:
            sd = s._denominator
            tn, td = s._numerator * pd + pn * sd, sd * pd
        if td != 1:
            g = gcd(tn, td)
            if g != 1:
                tn //= g
                td //= g
        if td != 1:
            f = _new_object(Fraction)
            f._numerator, f._denominator = tn, td
            acc[k] = f
        elif tn:
            acc[k] = tn
        else:
            del acc[k]


def _q_ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a Q scalar."""
    return (x, 1) if x.__class__ is int else (x._numerator, x._denominator)


def _q_bilinear(acc: dict, table: list[list[Vector]], u: Vector, v: Vector) -> None:
    """acc += sum over i, j of u_i v_j table[i][j], over Q."""
    right = [(j, *_q_ratio(b)) for j, b in v.entries.items()]
    for i, a in u.entries.items():
        an, ad = _q_ratio(a)
        row = table[i]
        for j, bn, bd in right:
            _q_axpy(acc, row[j].entries.items(), an * bn, ad * bd)


def _q_product(c, c2, c3) -> tuple[int, int]:
    """(numerator, denominator) of c * c2 * c3 over Q, not reduced; c2 and
    c3 may be None."""
    n, d = _q_ratio(c)
    for f in (c2, c3):
        if f is None:
            break
        if f.__class__ is int:
            n *= f
        else:
            n *= f._numerator
            d *= f._denominator
    return n, d


def _fp_axpy(acc: dict, items, cv: int, p: int) -> None:
    """acc[k] = (acc[k] + w * cv) mod p for every (k, w) of items, over F_p.

    The F_p core of the contraction loops, the counterpart of ``_q_axpy``.
    It works on the residues (``.value``) as plain ints, builds each stored
    ``ModInt`` directly and deletes an entry that cancels to zero, so a term
    costs no ``ModInt`` operator call.  cv is the coefficient's residue; every
    w, and every entry of acc that a term lands on, must have modulus p, and
    ``FieldError`` is raised otherwise, as the ``ModInt`` operators do."""
    for k, w in items:
        if w.p != p:
            raise _mixed(p, w.p)
        s = acc.get(k)
        if s is None:
            t = w.value * cv % p
        elif s.p != p:
            raise _mixed(p, s.p)
        else:
            t = (s.value + w.value * cv) % p
        if t:
            r = _new_object(ModInt)
            r.value = t
            r.p = p
            acc[k] = r
        else:
            del acc[k]


def _fp_value(c: ModInt, p: int) -> int:
    """The residue of c, which must have modulus p."""
    if c.p != p:
        raise _mixed(p, c.p)
    return c.value


def _fp_bilinear(acc: dict, table: list[list[Vector]], u: Vector, v: Vector, p: int) -> None:
    """acc += sum over i, j of u_i v_j table[i][j], over F_p."""
    right = v.entries.items()
    for i, a in u.entries.items():
        av = _fp_value(a, p)
        row = table[i]
        for j, b in right:
            _fp_axpy(acc, row[j].entries.items(), av * _fp_value(b, p) % p, p)


def _fp_product(c: ModInt, c2: ModInt, c3) -> tuple[int, int]:
    """(residue of c * c2 * c3, modulus); c3 may be None."""
    p = c.p
    cv = c.value * _fp_value(c2, p) % p
    if c3 is not None:
        cv = cv * _fp_value(c3, p) % p
    return cv, p


def accumulate(acc: dict, key, value: Scalar) -> None:
    """acc[key] += value, dropping the key when the sum is zero; for the
    cold loops that sum single terms under arbitrary keys."""
    s = acc.get(key)
    s = value if s is None else s + value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def add_scaled_inplace(acc: dict[int, Scalar], v: Vector, c: Scalar,
                       c2: Scalar | None = None, c3: Scalar | None = None) -> None:
    """acc += c * c2 * c3 * v on a raw entry dict (c2, c3 optional);
    hot-loop helper.  The factors are passed apart so that their product is
    taken on ints: numerators and denominators over Q (``_q_axpy``),
    residues over F_p (``_fp_axpy``).  The field is told by the class of c,
    and the factors are plain parameters, so neither path pays for the
    other's dispatch."""
    if c.__class__ is ModInt:
        cv, p = (c.value, c.p) if c2 is None else _fp_product(c, c2, c3)
        if cv:
            _fp_axpy(acc, v.entries.items(), cv, p)
        return
    cn, cd = _q_product(c, c2, c3)
    if cn:
        _q_axpy(acc, v.entries.items(), cn, cd)


@dataclass
class Matrix:
    """Sparse matrix, map (row, col) -> nonzero scalar.

    Like a ``Vector``, a matrix is never mutated after it is built.  Its
    columns are indexed once, on first use: ``_cols()`` holds one ``Vector``
    per column, and empty columns share one empty vector.  ``column``
    returns those vectors themselves, not copies."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], Scalar]
    field: FieldSpec

    def __post_init__(self):
        if self.field.p is None:
            self.entries = _q_stored(self.entries)
        else:
            self.entries = {k: c for k, c in self.entries.items() if c}
        for r, c in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise LinAlgError(f"entry ({r},{c}) out of bounds")

    def get(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), self.field.zero)

    def column(self, c: int) -> Vector:
        if not 0 <= c < self.cols:
            raise LinAlgError(f"column {c} out of range for {self.cols} columns")
        return self._cols()[c]

    def apply(self, v: Vector) -> Vector:
        if v.dim != self.cols:
            raise LinAlgError("dimension mismatch in apply")
        out: dict[int, Scalar] = {}
        cols = self._cols()
        p = self.field.p
        if p is None:
            for j, coeff in v.entries.items():
                _q_axpy(out, cols[j].entries.items(), *_q_ratio(coeff))
        else:
            for j, coeff in v.entries.items():
                _fp_axpy(out, cols[j].entries.items(), _fp_value(coeff, p), p)
        return _vector(self.rows, out, self.field)

    def _cols(self) -> list[Vector]:
        """The column index: column c as a Vector, for every c; built once.
        A column keeps its entries in the order of ``entries``, the order a
        scan of the matrix gives."""
        cache = getattr(self, "_col_cache", None)
        if cache is None:
            by_col: dict[int, dict[int, Scalar]] = {}
            for (r, c), a in self.entries.items():
                by_col.setdefault(c, {})[r] = a
            empty = _vector(self.rows, {}, self.field)
            cache = [empty] * self.cols
            for c, col in by_col.items():
                cache[c] = _vector(self.rows, col, self.field)
            self._col_cache = cache
        return cache

    def compose(self, other: "Matrix") -> "Matrix":
        """self @ other."""
        if self.cols != other.rows:
            raise LinAlgError("shape mismatch in compose")
        out: dict[tuple[int, int], Scalar] = {}
        by_row: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), a in self.entries.items():
            by_row.setdefault(c, []).append((r, a))
        for (r2, c2), b in other.entries.items():
            for r1, a in by_row.get(r2, ()):
                key = (r1, c2)
                s = out.get(key)
                s = a * b if s is None else s + a * b
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Matrix(self.rows, other.cols, out, self.field)

    def add(self, other: "Matrix") -> "Matrix":
        out = dict(self.entries)
        for k, c in other.entries.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Matrix(self.rows, self.cols, out, self.field)

    def scale(self, c: Scalar) -> "Matrix":
        if not c:
            return Matrix(self.rows, self.cols, {}, self.field)
        return Matrix(self.rows, self.cols, {k: v * c for k, v in self.entries.items()}, self.field)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )


def identity_matrix(dim: int, field: FieldSpec) -> Matrix:
    return Matrix(dim, dim, {(i, i): field.one for i in range(dim)}, field)


def matrix_from_columns(cols: list[Vector], field: FieldSpec) -> Matrix:
    rows = cols[0].dim if cols else 0
    entries = {}
    for j, v in enumerate(cols):
        for i, c in v.entries.items():
            entries[(i, j)] = c
    return Matrix(rows, len(cols), entries, field)


@dataclass
class SolveResult:
    """Particular solution (None when inconsistent) plus a kernel basis."""

    solution: Vector | None
    kernel: list[Vector] = dc_field(default_factory=list)


# --- elimination engines ------------------------------------------------
#
# Internally a system is a list of rows over plain ints: over Q each row is
# stored with denominators cleared (fraction-free); over F_p as residues in
# [1, p).  Forward elimination pivots on the coefficient columns
# 0..ncols-1 only.  A row may hold further columns, the right-hand sides,
# which are carried through every row operation and never pivoted on.  It
# returns the echelon rows, pivot rows first (pivot i in row i), and the
# pivot (row, col) list; every row after the pivot rows is zero on the
# coefficient columns.
#
# The sparse engines keep a column index: for each coefficient column, the
# ids of the active rows that hold it, so a pivot visits only those rows.
# Rows keep their original order, and the pivot of a column is the shortest
# row holding it, the earliest on a tie.


def _row_content(row: dict[int, int]) -> int:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return 1
    return g or 1


def _column_index(active: dict[int, dict[int, int]], ncols: int) -> list[set[int]]:
    """For each coefficient column, the ids of the rows that hold it."""
    holders: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in active.items():
        for c in row:
            if c < ncols:
                holders[c].add(i)
    return holders


def _take_pivot(active, holders, col: int, ncols: int) -> dict[int, int] | None:
    """Remove the pivot row of col from active and from the index and
    return it; None when no active row holds col."""
    ids = holders[col]
    if not ids:
        return None
    pid = min(ids, key=lambda i: (len(active[i]), i))
    piv = active.pop(pid)
    for c in piv:
        if col < c < ncols:
            holders[c].discard(pid)
    ids.discard(pid)
    return piv


def _forward_sparse_q(rows: list[dict[int, int]], ncols: int):
    """Fraction-free elimination on sparse rows, each new row divided by
    its content."""
    pivots: list[tuple[int, int]] = []
    active = {i: dict(r) for i, r in enumerate(rows)}
    holders = _column_index(active, ncols)
    done: list[dict[int, int]] = []
    for col in range(ncols):
        piv = _take_pivot(active, holders, col, ncols)
        if piv is None:
            continue
        pl = piv[col]
        for i in holders[col]:
            r = active[i]
            rl = r[col]
            new = {c: v * pl for c, v in r.items()}
            for c, v in piv.items():
                w = new.get(c)
                if w is None:
                    new[c] = -v * rl
                    if c < ncols:
                        holders[c].add(i)
                else:
                    w -= v * rl
                    if w:
                        new[c] = w
                    else:
                        del new[c]
                        if col < c < ncols:
                            holders[c].discard(i)
            g = _row_content(new)
            if g > 1:
                new = {c: v // g for c, v in new.items()}
            if new:
                active[i] = new
            else:
                del active[i]
        pivots.append((len(done), col))
        done.append(piv)
    done.extend(r for r in active.values() if r)
    return done, pivots


def _forward_dense_q(rows: list[dict[int, int]], ncols: int):
    """Classic Bareiss elimination on dense list rows, the carried columns
    included: every entry stays a minor of the system, so each division by
    the previous pivot is exact on those columns too."""
    width = max([ncols, *(max(r) + 1 for r in rows if r)])
    m = [[r.get(c, 0) for c in range(width)] for r in rows]
    nrows = len(m)
    pivots: list[tuple[int, int]] = []
    prev = 1
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, nrows):
            if m[i][col]:
                sel = i
                break
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        pl = m[rank][col]
        for i in range(rank + 1, nrows):
            rl = m[i][col]
            row = m[i]
            prow = m[rank]
            for c in range(col, width):
                row[c] = (row[c] * pl - prow[c] * rl) // prev
        pivots.append((rank, col))
        prev = pl
        rank += 1
    out = []
    for row in m:
        d = {c: v for c, v in enumerate(row) if v}
        if d:
            out.append(d)
    # keep pivot rows aligned with their position in `out`
    return out, pivots


def _forward_fp(rows: list[dict[int, int]], ncols: int, p: int):
    """Modular elimination on sparse rows; each pivot row is scaled to a
    leading 1."""
    pivots: list[tuple[int, int]] = []
    active = {i: dict(r) for i, r in enumerate(rows)}
    holders = _column_index(active, ncols)
    done: list[dict[int, int]] = []
    for col in range(ncols):
        piv = _take_pivot(active, holders, col, ncols)
        if piv is None:
            continue
        inv = pow(piv[col], p - 2, p)
        piv = {c: v * inv % p for c, v in piv.items() if v % p}
        for i in holders[col]:
            r = active[i]
            rl = r[col]
            new = dict(r)
            for c, v in piv.items():
                w = new.get(c)
                if w is None:
                    new[c] = -v * rl % p
                    if c < ncols:
                        holders[c].add(i)
                else:
                    w = (w - v * rl) % p
                    if w:
                        new[c] = w
                    else:
                        del new[c]
                        if col < c < ncols:
                            holders[c].discard(i)
            if new:
                active[i] = new
            else:
                del active[i]
        pivots.append((len(done), col))
        done.append(piv)
    done.extend(r for r in active.values() if r)
    return done, pivots


def _to_int_rows(rowvecs: list[dict[int, Scalar]], fs: FieldSpec) -> list[dict[int, int]]:
    out = []
    if fs.p is None:
        for r in rowvecs:
            lcm = 1
            for v in r.values():
                lcm = lcm * v.denominator // gcd(lcm, v.denominator)
            row = {c: int(v * lcm) for c, v in r.items() if v}
            out.append(row)
    else:
        for r in rowvecs:
            row = {c: v.value for c, v in r.items() if v.value}
            out.append(row)
    return out


def _echelon(rowvecs: list[dict[int, Scalar]], ncols: int, fs: FieldSpec):
    rows = _to_int_rows(rowvecs, fs)
    if fs.p is not None:
        return _forward_fp(rows, ncols, fs.p)
    if ncols < _DENSE_LIMIT:
        return _forward_dense_q(rows, ncols)
    return _forward_sparse_q(rows, ncols)


def _back_substitute(
    ech: list[dict[int, int]],
    pivots: list[tuple[int, int]],
    ncols: int,
    fs: FieldSpec,
    rhs_col: int | None,
    free_values: dict[int, Scalar],
) -> Vector:
    """Solve the echelon system with given free-variable values.

    The right-hand side is the carried column ``rhs_col`` (None for the
    homogeneous system); every other carried column is ignored.  The
    caller has checked that this right-hand side is consistent.  The sums
    run on plain ints (Q: ints and Fractions; F_p: residues).
    """
    p = fs.p
    x: dict[int, int | Fraction] = {
        c: v if p is None else v.value for c, v in free_values.items() if v}
    for r, c in reversed(pivots):
        row = ech[r]
        acc = row.get(rhs_col, 0)
        # x holds the free columns and the pivots solved so far: neither
        # this pivot nor a carried column
        for cc, v in row.items():
            xv = x.get(cc)
            if xv is not None:
                acc -= v * xv
        if p is None:
            val = canonical(Fraction(acc, row[c]))  # int / int would be a float
        else:
            val = acc * pow(row[c], p - 2, p) % p
        if val:
            x[c] = val
    if p is not None:
        x = {c: ModInt(v, p) for c, v in x.items()}
    return Vector(ncols, x, fs)


def _rows_of_matrix(a: Matrix) -> list[dict[int, Scalar]]:
    rows: list[dict[int, Scalar]] = [dict() for _ in range(a.rows)]
    for (r, c), v in a.entries.items():
        rows[r][c] = v
    return rows


def solve_many(a: Matrix, bs: list[Vector]) -> tuple[list[Vector | None], list[Vector]]:
    """One particular solution of A x = b for each b of bs (None where
    inconsistent), plus a kernel basis of A, from one forward elimination.

    Right-hand side k is carried as column a.cols + k; it is inconsistent
    when an echelon row that is zero on A's columns is nonzero there.  Each
    consistent b is back-substituted on its own, with the free variables
    at 0.  The kernel basis, one vector per free column in column order,
    comes from the same echelon.  Every solution and kernel vector is
    verified against A before returning; a failed check is a solver bug and
    raises ``LinAlgError``.
    """
    n = a.cols
    fs = a.field
    rows = _rows_of_matrix(a)
    for k, b in enumerate(bs):
        if b.dim != a.rows:
            raise LinAlgError("dimension mismatch in solve")
        for i, c in b.entries.items():
            rows[i][n + k] = c
    ech, pivots = _echelon(rows, n, fs)
    inconsistent = set()
    for row in ech[len(pivots):]:
        for c in row:
            if c < n:
                # forward elimination pivots on every column it can reach
                raise LinAlgError("unreachable echelon shape")
            inconsistent.add(c)
    sols = [None if n + k in inconsistent else _back_substitute(ech, pivots, n, fs, n + k, {})
            for k in range(len(bs))]
    pivot_cols = {c for _, c in pivots}
    kern = [_back_substitute(ech, pivots, n, fs, None, {f: fs.one})
            for f in range(n) if f not in pivot_cols]
    for x, b in zip(sols, bs):
        if x is not None and a.apply(x) != b:
            raise LinAlgError("solver self-check failed: A x != b")
    for v in kern:
        if not a.apply(v).is_zero():
            raise LinAlgError("solver self-check failed: kernel vector")
    return sols, kern


def solve(a: Matrix, b: Vector) -> SolveResult:
    """One particular solution of A x = b plus a kernel basis: ``solve_many``
    with one right-hand side; ``solution`` is None when the system is
    inconsistent."""
    (x,), kern = solve_many(a, [b])
    return SolveResult(x, kern)


def kernel(a: Matrix) -> list[Vector]:
    """Basis of the null space, in free-column order (reduced echelon form)."""
    return solve_many(a, [])[1]


def invert(a: Matrix) -> Matrix | None:
    """Exact inverse, or None when singular: column j solves A x = e_j, all
    from one elimination.  A A^-1 = I is verified column by column by
    ``solve_many``, and A^-1 A = I here; a failed re-check is a solver bug
    and raises ``LinAlgError``."""
    if a.rows != a.cols:
        raise LinAlgError("invert requires a square matrix")
    n = a.rows
    fs = a.field
    cols, kern = solve_many(a, [unit_vector(n, j, fs) for j in range(n)])
    if kern:
        return None
    inv_m = matrix_from_columns(cols, fs)
    if inv_m.compose(a) != identity_matrix(n, fs):
        raise LinAlgError("inverse self-check failed: A^-1 A != I")
    return inv_m
