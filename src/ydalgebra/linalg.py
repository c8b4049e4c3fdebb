"""Exact sparse linear algebra over Q and F_p.

Solving, kernels and inverses run on one sparse fraction-free elimination,
``_forward``, for both fields: a row update cross-multiplies, and the new
row is divided by its content over Q and reduced mod p over F_p.  There is
one elimination path, ``solve_rows``, on plain-int rows: it carries any
number of right-hand sides as extra columns through one forward elimination
and back-substitutes all of them, and the kernel basis, in one pass over
the pivots.  ``solve_many`` turns a ``Matrix`` into those rows; ``solve``,
``kernel`` and ``invert`` are its cases with one, no and n right-hand sides.
The convolution solvers of ``hopf`` build their rows from compiled tables
and call ``solve_rows`` directly.  The engine keeps a column -> row-id
index, so a pivot visits only the rows that hold its column.  Every
result is re-verified against its defining equation before it is returned
(a kernel vector against the rows, a ``Matrix`` solution against A x = b,
a convolution inverse by the identity its rows are the coefficients of), so
a bug in the solver can never silently corrupt a structure check.

A ``Vector`` or ``Matrix`` is never mutated after it is built, which lets
vectors be shared: each ``Matrix`` keeps one per-column index, built on
first use, which ``column`` reads, and its columns compiled to plain-int
rows, which ``apply`` reads, both in its ``_cache`` slot, filled by
``_per_structure`` as every structure container's is.  ``Vector(...)``
filters zeros, canonicalises Q scalars and checks indices; ``_vector``
skips that for the solver's results, the column index and
``compiled.int_vector``, whose dicts are already nonzero, canonical and in
range.

No contraction is summed here.  The checks of ``hopf``, the axiom suites,
the derived maps and the builders, and ``Matrix.apply``, run on tensors
compiled once into plain-int tables (``compiled``): over Q the numerators
over one common denominator per tensor, over F_p the residues.  Each side
of a compare is an int sum at a known scale, the product of the
denominators it read, and the sides are compared cross-multiplied,
lhs * s_r == rhs * s_l (mod p over F_p).  A ``Vector`` is built for a
result, a witness or a solver input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd

from .field import FieldSpec, ModInt, Scalar, canonical


class LinAlgError(ValueError):
    pass


def _per_structure(build):
    """Evaluate build(s, *args) once per object s and arguments, on first
    use, and keep the result in s._cache under the function's name (and the
    arguments, if any).  ``_cache`` is an init-free field, so a copy made by
    ``dataclasses.replace`` starts with an empty one.  ``seed(s, out)``
    stores out as build(s), for a caller that already holds it, and returns
    s."""
    name = build.__name__

    @functools.wraps(build)
    def cached(s, *args):
        key = (name, *args) if args else name
        out = s._cache.get(key)
        if out is None:
            out = s._cache[key] = build(s, *args)
        return out

    def seed(s, out):
        s._cache[name] = out
        return s

    cached.seed = seed
    return cached


def _cache_slot():
    """The ``_cache`` field of a container: not an ``__init__`` argument, not
    compared, not shown."""
    return dc_field(default_factory=dict, init=False, repr=False, compare=False)


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
            accumulate(out, i, c)
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
    in range(dim).  The dict is taken over, not copied."""
    v = _new_object(Vector)
    v.dim = dim
    v.entries = entries
    v.field = field
    return v


def accumulate(acc: dict, key, value: Scalar) -> None:
    """acc[key] += value, dropping the key when the sum is zero; for the
    cold loops that sum single terms under arbitrary keys."""
    s = acc.get(key)
    s = value if s is None else s + value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


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
    _cache: dict = _cache_slot()

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
        """self v, summed as ints on the compiled columns of self, which are
        built once and kept on it (``compiled.compile_columns``)."""
        from .compiled import add_linear, compile_columns, compile_vectors, int_vector  # compiled imports linalg

        if v.dim != self.cols:
            raise LinAlgError("dimension mismatch in apply")
        cols, u = compile_columns(self), compile_vectors([v], self.field)
        acc: dict[int, int] = {}
        add_linear(acc, cols.rows, u.rows[0], 1)
        return int_vector(self.rows, acc, cols.scale * u.scale, self.field)

    @_per_structure
    def _cols(self) -> list[Vector]:
        """The column index: column c as a Vector, for every c; built once.
        A column keeps its entries in the order of ``entries``, the order a
        scan of the matrix gives."""
        by_col: dict[int, dict[int, Scalar]] = {}
        for (r, c), a in self.entries.items():
            by_col.setdefault(c, {})[r] = a
        empty = _vector(self.rows, {}, self.field)
        out = [empty] * self.cols
        for c, col in by_col.items():
            out[c] = _vector(self.rows, col, self.field)
        return out

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
                accumulate(out, (r1, c2), a * b)
        return Matrix(self.rows, other.cols, out, self.field)

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


# --- elimination ----------------------------------------------------------
#
# A system is a list of rows over plain ints, the input of ``solve_rows``:
# over Q each row is stored with denominators cleared (fraction-free); over
# F_p as any ints, reduced to residues in [1, p) on entry.  Forward
# elimination (``_forward``) pivots on the coefficient columns 0..ncols-1
# only.  A row may hold further columns, the right-hand sides, which are
# carried through every row operation and never pivoted on.  It returns the
# echelon rows, pivot rows first (pivot i in row i), and the pivot (row,
# col) list; every row after the pivot rows is zero on the coefficient
# columns.  Back-substitution (``_back_substitute_all``) then walks the
# pivots once, last first, for every consistent right-hand side and every
# kernel vector together: each pivot row is split once into its carried
# part and its coefficient part, and an unknown's values in all the
# systems are kept in one dict, so a row costs one pass over its entries
# however many right-hand sides there are.
#
# The engine keeps a column index: for each coefficient column, the ids of
# the active rows that hold it, so a pivot visits only those rows.  Rows
# keep their original order, and the pivot of a column is the shortest row
# holding it, the earliest on a tie.  A row is never scaled to a leading 1:
# scaling does not change a row's support, so the pivots are those of
# elimination with unit pivots, and ``_back_substitute_all`` divides by
# whatever pivot a row has.


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


def _forward(rows: list[dict[int, int]], ncols: int, p: int | None):
    """Fraction-free elimination on sparse rows: a row r holding the pivot
    column becomes pl * r - rl * piv, which over Q is then divided by its
    content and over F_p reduced mod p.  Over F_p the rows are reduced on
    entry, so a pivot entry is never 0 mod p."""
    pivots: list[tuple[int, int]] = []
    if p is None:
        active = {i: dict(r) for i, r in enumerate(rows)}
    else:
        active = {i: {c: v % p for c, v in r.items() if v % p} for i, r in enumerate(rows)}
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
            if p is None:
                g = _row_content(new)
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
            else:
                reduced = {}
                for c, v in new.items():
                    v %= p
                    if v:
                        reduced[c] = v
                    elif col < c < ncols:
                        holders[c].discard(i)
                new = reduced
            if new:
                active[i] = new
            else:
                del active[i]
        pivots.append((len(done), col))
        done.append(piv)
    done.extend(r for r in active.values() if r)
    return done, pivots


def _back_substitute_all(ech, pivots, ncols: int, rhs: list[int], p: int | None):
    """Solve the echelon system in one pass over its pivots, last first, for
    every right-hand side k of rhs (carried column ncols + k) with the free
    variables at 0, and for the kernel basis: per free column f, in column
    order, x_f = 1 and every right-hand side 0.

    The systems are numbered: rhs[i] is system i, the i-th free column is
    system len(rhs) + i.  x[col] maps each system to the unknown's nonzero
    value in it.  Each pivot row is split once into its carried part, read
    for the systems of rhs only, and its coefficient part, which adds the
    values of every system its unknowns hold; the caller has checked that
    each right-hand side of rhs is consistent.  The sums run on plain ints
    (Q: ints and Fractions; F_p: residues).  Returns one dict col -> value
    per system, in system order."""
    n = len(rhs)
    system = {ncols + k: i for i, k in enumerate(rhs)}
    pivot_cols = {c for _, c in pivots}
    free = [f for f in range(ncols) if f not in pivot_cols]
    out: list[dict] = [{} for _ in range(n + len(free))]
    x: dict[int, dict[int, int | Fraction]] = {}
    for i, f in enumerate(free, n):
        x[f] = {i: 1}
        out[i][f] = 1
    for r, c in reversed(pivots):
        row = ech[r]
        acc: dict[int, int | Fraction] = {}
        terms = []
        for cc, v in row.items():
            if cc >= ncols:
                i = system.get(cc)
                if i is not None:
                    acc[i] = v
            elif cc != c:
                xs = x.get(cc)
                if xs:
                    terms.append((v, xs))
        get = acc.get
        for v, xs in terms:
            for i, xv in xs.items():
                acc[i] = get(i, 0) - v * xv
        pl = row[c]
        vals = {}
        if p is None:
            for i, a in acc.items():
                if a.__class__ is int:
                    if a:
                        vals[i] = Fraction(a, pl) if a % pl else a // pl  # a / pl would be a float
                elif a:
                    vals[i] = canonical(a / pl)
        else:
            inv = 1 if pl == 1 else pow(pl, p - 2, p)
            for i, a in acc.items():
                a = a * inv % p
                if a:
                    vals[i] = a
        if vals:
            x[c] = vals
            for i, a in vals.items():
                out[i][c] = a
    return out


def _result_vector(dim: int, x: dict, fs: FieldSpec) -> Vector:
    """The Vector of a back-substituted dict: Q values are already canonical,
    F_p residues become ``ModInt``s."""
    p = fs.p
    if p is not None:
        x = {c: ModInt(v, p) for c, v in x.items()}
    return _vector(dim, x, fs)


def solve_rows(rows: list[dict[int, int]], ncols: int, nrhs: int,
               fs: FieldSpec) -> tuple[list[Vector | None], list[Vector]]:
    """One particular solution for each of nrhs right-hand sides (None where
    inconsistent), plus a kernel basis, of a system given as plain-int rows:
    the int-row entry of the solver, which ``solve_many`` and the convolution
    solvers of ``hopf`` call.

    A row maps coefficient columns 0..ncols-1 and carried columns
    ncols + k, right-hand side k, to ints, and may be any nonzero multiple
    of its equation: over Q with denominators cleared, over F_p any ints,
    which are reduced mod p on entry, so an entry that is 0 mod p is no
    entry.  Right-hand side k is inconsistent when an echelon row that
    is zero on the coefficient columns is nonzero in its column.  Every
    consistent right-hand side, and the kernel basis (one vector per free
    column, in column order), is back-substituted in one pass
    (``_back_substitute_all``), with the free variables at 0.  Each kernel
    vector is checked against the rows, and a failed check is a solver bug
    that raises ``LinAlgError``; a solution is not checked here, because its
    caller checks the identity it solves (``solve_many`` checks A x = b).
    """
    p = fs.p
    ech, pivots = _forward(rows, ncols, p)
    inconsistent = set()
    for row in ech[len(pivots):]:
        for c in row:
            if c < ncols:
                # forward elimination pivots on every column it can reach
                raise LinAlgError("unreachable echelon shape")
            inconsistent.add(c - ncols)
    rhs = [k for k in range(nrhs) if k not in inconsistent]
    xs = _back_substitute_all(ech, pivots, ncols, rhs, p)
    sols: list[Vector | None] = [None] * nrhs
    for k, x in zip(rhs, xs):
        sols[k] = _result_vector(ncols, x, fs)
    kern = xs[len(rhs):]
    for v in kern:
        for row in rows:
            s = sum(a * v[c] for c, a in row.items() if c in v)
            if s if p is None else s % p:
                raise LinAlgError("solver self-check failed: kernel vector")
    return sols, [_result_vector(ncols, v, fs) for v in kern]


def _matrix_rows(a: Matrix, bs: list[Vector]) -> list[dict[int, int]]:
    """The int rows of A with b_k carried as column a.cols + k: each row
    times the lcm of its denominators, which over F_p, where every
    ``ModInt`` has denominator 1, leaves the residues."""
    n = a.cols
    rows: list[dict[int, Scalar]] = [{} for _ in range(a.rows)]
    for (r, c), v in a.entries.items():
        rows[r][c] = v
    for k, b in enumerate(bs):
        if b.dim != a.rows:
            raise LinAlgError("dimension mismatch in solve")
        for i, v in b.entries.items():
            rows[i][n + k] = v
    out = []
    for r in rows:
        lcm = 1
        for v in r.values():
            if v.__class__ is not int:
                q = v.denominator
                lcm = lcm * q // gcd(lcm, q)
        out.append({c: v * lcm if v.__class__ is int else v.numerator * (lcm // v.denominator)
                    for c, v in r.items()})
    return out


def solve_many(a: Matrix, bs: list[Vector]) -> tuple[list[Vector | None], list[Vector]]:
    """One particular solution of A x = b for each b of bs (None where
    inconsistent), plus a kernel basis of A, from one forward elimination:
    ``solve_rows`` on the int rows of A with b_k carried as column
    a.cols + k.  Every solution is verified against A x = b before
    returning; a failed check is a solver bug and raises ``LinAlgError``.
    """
    sols, kern = solve_rows(_matrix_rows(a, bs), a.cols, len(bs), a.field)
    for x, b in zip(sols, bs):
        if x is not None and a.apply(x) != b:
            raise LinAlgError("solver self-check failed: A x != b")
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
