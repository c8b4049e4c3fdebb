"""Structure-constant containers and the convolution calculus.

Algebras, coalgebras and Hopf bundles live on a fixed finite basis; the
multiplication is a tensor of sparse vectors, the comultiplication a list
of (left leg, right leg, coefficient) triples per basis element.  Antipodes
and convolution inverses are always solved from their defining linear
systems and re-verified, never assumed.

Each container compiles its tensor once, on first use, into a plain-int
table (``int_mul``, ``int_comul``, ``int_act``; see ``compiled``) and keeps
it.  ALG-ASSOC runs on the compiled product: both sides of
(e_i e_j) e_k = e_i (e_j e_k) carry the square of its scale, so their int
sums are compared as they are, and a ``Vector`` is built only to render the
first failing triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .compiled import IntTable, compare, compile_comul, compile_tensor, cube, vector_render
from .field import FieldSpec, ModInt, Scalar, canonical
from .linalg import (
    LinAlgError,
    Matrix,
    SolveResult,
    Vector,
    _fp_axpy,
    _fp_bilinear,
    _fp_product,
    _fp_value,
    _q_axpy,
    _q_bilinear,
    _q_product,
    _q_ratio,
    _vector,
    add_scaled_inplace,
    matrix_from_columns,
    solve,
    unit_vector,
)
from .report import Checker, CheckReport, pairs_text, vector_text


class StructureError(ValueError):
    """Structurally invalid input (bad dimensions, failed preconditions)."""


# --- containers ----------------------------------------------------------


@dataclass
class AlgebraData:
    """Unital algebra by structure constants: mul[i][j] = e_i * e_j."""

    dim: int
    basis_labels: list[str]
    mul: list[list[Vector]]
    unit: Vector
    field: FieldSpec
    _ints: IntTable | None = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise StructureError("dimension must be at least 1")
        if len(self.basis_labels) != self.dim or len(self.mul) != self.dim:
            raise StructureError("basis/multiplication size mismatch")
        for row in self.mul:
            if len(row) != self.dim:
                raise StructureError("multiplication tensor is not square")
            if any(v.dim != self.dim for v in row):
                raise StructureError("product vector dimension mismatch")

    def mul_basis(self, i: int, j: int) -> Vector:
        return self.mul[i][j]

    def int_mul(self) -> IntTable:
        """The product as a compiled table, built once."""
        if self._ints is None:
            self._ints = compile_tensor(self.mul, self.field)
        return self._ints

    def mul_vec(self, u: Vector, v: Vector) -> Vector:
        acc: dict[int, Scalar] = {}
        p = self.field.p
        if p is None:
            _q_bilinear(acc, self.mul, u, v)
        else:
            _fp_bilinear(acc, self.mul, u, v, p)
        return _vector(self.dim, acc, self.field)

    def mul_basis_vec(self, i: int, v: Vector) -> Vector:
        acc: dict[int, Scalar] = {}
        row = self.mul[i]
        for j, b in v.entries.items():
            add_scaled_inplace(acc, row[j], b)
        return _vector(self.dim, acc, self.field)

    def mul_vec_basis(self, v: Vector, j: int) -> Vector:
        acc: dict[int, Scalar] = {}
        for i, a in v.entries.items():
            add_scaled_inplace(acc, self.mul[i][j], a)
        return _vector(self.dim, acc, self.field)


@dataclass
class CoalgebraData:
    """Coalgebra by structure constants: Delta(e_i) = sum c * e_j (x) e_k."""

    dim: int
    comul: list[list[tuple[int, int, Scalar]]]
    counit: Vector
    field: FieldSpec
    _legs: dict = dc_field(default_factory=dict, repr=False, compare=False)
    _ints: IntTable | None = dc_field(default=None, repr=False, compare=False)
    _pairs: list | None = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise StructureError("dimension must be at least 1")
        if len(self.comul) != self.dim:
            raise StructureError("comultiplication size mismatch")
        norm = []
        for terms in self.comul:
            acc: dict[tuple[int, int], Scalar] = {}
            for j, k, c in terms:
                if not (0 <= j < self.dim and 0 <= k < self.dim):
                    raise StructureError("comultiplication index out of range")
                key = (j, k)
                s = acc.get(key)
                s = c if s is None else s + c
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
            norm.append([(j, k, canonical(c)) for (j, k), c in sorted(acc.items())])
        self.comul = norm

    def eps(self, i: int) -> Scalar:
        return self.counit.get(i)

    def eps_vec(self, v: Vector) -> Scalar:
        acc = self.field.zero
        for i, c in v.entries.items():
            e = self.counit.entries.get(i)
            if e is not None:
                acc = acc + c * e
        return acc

    def legs(self, i: int, n: int) -> list[tuple[tuple[int, ...], Scalar]]:
        """Terms of the (n-1)-fold iterated coproduct of e_i, n legs."""
        key = (i, n)
        cached = self._legs.get(key)
        if cached is not None:
            return cached
        if n == 1:
            out = [((i,), self.field.one)]
        else:
            prev = self.legs(i, n - 1)
            acc: dict[tuple[int, ...], Scalar] = {}
            for tup, s in prev:
                for a, b, c in self.comul[tup[0]]:
                    k2 = (a, b) + tup[1:]
                    v = acc.get(k2)
                    v = s * c if v is None else v + s * c
                    if v:
                        acc[k2] = v
                    else:
                        del acc[k2]
            out = sorted(acc.items())
        self._legs[key] = out
        return out

    def int_comul(self) -> IntTable:
        """The coproduct as a compiled table, built once."""
        if self._ints is None:
            self._ints = compile_comul(self.comul, self.field)
        return self._ints

    def comul_vec(self, v: Vector) -> dict[tuple[int, int], Scalar]:
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = [[((j, k), s) for j, k, s in terms] for terms in self.comul]
        acc: dict[tuple[int, int], Scalar] = {}
        p = self.field.p
        if p is None:
            for i, c in v.entries.items():
                _q_axpy(acc, pairs[i], *_q_ratio(c))
        else:
            for i, c in v.entries.items():
                _fp_axpy(acc, pairs[i], _fp_value(c, p), p)
        return acc


@dataclass
class HopfData:
    """Ordinary Hopf algebra bundle (algebra, coalgebra, antipode)."""

    algebra: AlgebraData
    coalgebra: CoalgebraData
    antipode: Matrix

    def __post_init__(self):
        if self.algebra.dim != self.coalgebra.dim:
            raise StructureError("algebra/coalgebra dimension mismatch")
        if self.antipode.rows != self.algebra.dim or self.antipode.cols != self.algebra.dim:
            raise StructureError("antipode shape mismatch")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field


@dataclass
class BraidedPair:
    """Algebra + coalgebra + a two-sided convolution inverse of the identity.

    The map s is not required to be an algebra anti-morphism and the
    comultiplication is not required to be multiplicative; this is the
    carrier of a braided Hopf structure, not an ordinary bialgebra.
    """

    algebra: AlgebraData
    coalgebra: CoalgebraData
    s_map: Matrix

    def __post_init__(self):
        if self.algebra.dim != self.coalgebra.dim:
            raise StructureError("algebra/coalgebra dimension mismatch")
        if self.s_map.rows != self.algebra.dim or self.s_map.cols != self.algebra.dim:
            raise StructureError("antipode shape mismatch")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field


@dataclass
class ActionTensor:
    """Bilinear action: act[i][j] = e_i >- f_j, a vector in the target."""

    acting_dim: int
    target_dim: int
    act: list[list[Vector]]
    field: FieldSpec
    _mats: dict = dc_field(default_factory=dict, repr=False, compare=False)
    _ints: IntTable | None = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.act) != self.acting_dim:
            raise StructureError("action tensor acting dimension mismatch")
        for row in self.act:
            if len(row) != self.target_dim or any(v.dim != self.target_dim for v in row):
                raise StructureError("action tensor target dimension mismatch")

    def matrix(self, i: int) -> Matrix:
        m = self._mats.get(i)
        if m is None:
            m = matrix_from_columns(self.act[i], self.field)
            self._mats[i] = m
        return m

    def int_act(self) -> IntTable:
        """The action as a compiled table, built once."""
        if self._ints is None:
            self._ints = compile_tensor(self.act, self.field)
        return self._ints

    def apply_basis(self, i: int, v: Vector) -> Vector:
        acc: dict[int, Scalar] = {}
        row = self.act[i]
        for j, c in v.entries.items():
            add_scaled_inplace(acc, row[j], c)
        return _vector(self.target_dim, acc, self.field)

    def apply(self, u: Vector, v: Vector) -> Vector:
        acc: dict[int, Scalar] = {}
        p = self.field.p
        if p is None:
            _q_bilinear(acc, self.act, u, v)
        else:
            _fp_bilinear(acc, self.act, u, v, p)
        return _vector(self.target_dim, acc, self.field)

    def apply_vec_basis(self, u: Vector, k: int) -> Vector:
        """u >- f_k, the mirror of ``AlgebraData.mul_vec_basis``: column k of
        the map u >- ., read without building f_k.  Equal to
        ``apply(u, unit_vector(..., k, ...))``, entries in the same order."""
        acc: dict[int, Scalar] = {}
        act = self.act
        for i, a in u.entries.items():
            add_scaled_inplace(acc, act[i][k], a)
        return _vector(self.target_dim, acc, self.field)


# --- small tensor helpers -------------------------------------------------


def tens2(u: Vector, v: Vector) -> dict[tuple[int, int], Scalar]:
    out = {}
    for i, a in u.entries.items():
        for j, b in v.entries.items():
            out[(i, j)] = a * b
    return out


def tens2_add_scaled(acc, u: Vector, v: Vector, s: Scalar,
                     s2: Scalar | None = None, s3: Scalar | None = None) -> None:
    """acc += s * s2 * s3 * (u (x) v), keyed by index pairs (s2, s3
    optional); the factors are passed apart, as for ``add_scaled_inplace``."""
    right = v.entries.items()
    if s.__class__ is ModInt:
        sv, p = (s.value, s.p) if s2 is None else _fp_product(s, s2, s3)
        if sv:
            for i, a in u.entries.items():
                _fp_axpy(acc, [((i, j), b) for j, b in right], _fp_value(a, p) * sv % p, p)
        return
    sn, sd = _q_product(s, s2, s3)
    if sn:
        for i, a in u.entries.items():
            an, ad = _q_ratio(a)
            _q_axpy(acc, [((i, j), b) for j, b in right], an * sn, ad * sd)


def is_cocommutative(c: CoalgebraData) -> bool:
    for i in range(c.dim):
        terms = {(j, k): s for j, k, s in c.comul[i]}
        flipped = {(k, j): s for j, k, s in c.comul[i]}
        if terms != flipped:
            return False
    return True


# --- checkers --------------------------------------------------------------


def check_algebra(a: AlgebraData) -> CheckReport:
    """Associativity on all basis triples and two-sided unitality."""
    rep = CheckReport()
    ch = Checker("ALG-ASSOC")
    mul = a.int_mul()
    m = mul.rows

    def assoc(acc, where, wl, wr):
        i, j, k = where
        get = acc.get
        if wl:
            for r, x in m[i][j]:
                x *= wl
                for t, y in m[r][k]:
                    acc[t] = get(t, 0) + x * y
        if wr:
            mi = m[i]
            for r, x in m[j][k]:
                x *= wr
                for t, y in mi[r]:
                    acc[t] = get(t, 0) + x * y

    scale = mul.scale * mul.scale
    compare(ch, cube(a.dim), assoc, scale, scale, a.field, vector_render(a.dim))
    rep.add(ch.entry())
    ch = Checker("ALG-UNIT")
    for i in range(a.dim):
        e_i = unit_vector(a.dim, i, a.field)
        left = a.mul_vec(a.unit, e_i)
        right = a.mul_vec(e_i, a.unit)
        ch.compare((i, 0), left, e_i, vector_text)
        ch.compare((i, 1), right, e_i, vector_text)
    rep.add(ch.entry())
    return rep


def check_coalgebra(c: CoalgebraData) -> CheckReport:
    """Coassociativity and counitality on every basis element."""
    rep = CheckReport()
    ch = Checker("COALG-COASSOC")
    for i in range(c.dim):
        left: dict[tuple[int, int, int], Scalar] = {}
        right: dict[tuple[int, int, int], Scalar] = {}
        for j, k, s in c.comul[i]:
            for a, b, t in c.comul[j]:
                key = (a, b, k)
                v = left.get(key)
                v = s * t if v is None else v + s * t
                if v:
                    left[key] = v
                else:
                    del left[key]
            for b, d, t in c.comul[k]:
                key = (j, b, d)
                v = right.get(key)
                v = s * t if v is None else v + s * t
                if v:
                    right[key] = v
                else:
                    del right[key]
        ch.compare((i,), left, right, pairs_text)
    rep.add(ch.entry())
    ch = Checker("COALG-COUNIT")
    for i in range(c.dim):
        lacc: dict[int, Scalar] = {}
        racc: dict[int, Scalar] = {}
        for j, k, s in c.comul[i]:
            ej = c.eps(j)
            ek = c.eps(k)
            if ek:
                v = lacc.get(j)
                v = s * ek if v is None else v + s * ek
                if v:
                    lacc[j] = v
                else:
                    del lacc[j]
            if ej:
                v = racc.get(k)
                v = s * ej if v is None else v + s * ej
                if v:
                    racc[k] = v
                else:
                    del racc[k]
        e_i = unit_vector(c.dim, i, c.field)
        ch.compare((i, 0), Vector(c.dim, lacc, c.field), e_i, vector_text)
        ch.compare((i, 1), Vector(c.dim, racc, c.field), e_i, vector_text)
    rep.add(ch.entry())
    return rep


def _antipode_checker(
    axiom: str, a: AlgebraData, c: CoalgebraData, s_map: Matrix
) -> Checker:
    ch = Checker(axiom)
    for i in range(c.dim):
        left: dict[int, Scalar] = {}
        right: dict[int, Scalar] = {}
        for j, k, s in c.comul[i]:
            add_scaled_inplace(left, a.mul_vec(s_map.column(j), unit_vector(a.dim, k, a.field)), s)
            add_scaled_inplace(right, a.mul_vec(unit_vector(a.dim, j, a.field), s_map.column(k)), s)
        target = a.unit.scale(c.eps(i))
        ch.compare((i, 0), Vector(a.dim, left, a.field), target, vector_text)
        ch.compare((i, 1), Vector(a.dim, right, a.field), target, vector_text)
    return ch


def check_hopf(h: HopfData) -> CheckReport:
    """Full ordinary-Hopf suite: algebra, coalgebra, bialgebra, antipode."""
    a, c = h.algebra, h.coalgebra
    rep = check_algebra(a)
    rep.extend(check_coalgebra(c))

    ch = Checker("HOPF-DELTA-MULT")
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = c.comul_vec(a.mul[i][j])
            rhs: dict[tuple[int, int], Scalar] = {}
            for p, q, s in c.comul[i]:
                for r, t, u in c.comul[j]:
                    tens2_add_scaled(rhs, a.mul[p][r], a.mul[q][t], s, u)
            ch.compare((i, j), lhs, rhs, pairs_text)
    rep.add(ch.entry())

    ch = Checker("HOPF-EPS-MULT")
    for i in range(a.dim):
        for j in range(a.dim):
            ch.compare((i, j), c.eps_vec(a.mul[i][j]), c.eps(i) * c.eps(j))
    rep.add(ch.entry())

    ch = Checker("HOPF-DELTA-UNIT")
    ch.compare((0,), c.comul_vec(a.unit), tens2(a.unit, a.unit), pairs_text)
    rep.add(ch.entry())

    ch = Checker("HOPF-EPS-UNIT")
    ch.compare((0,), c.eps_vec(a.unit), a.field.one)
    rep.add(ch.entry())

    rep.add(_antipode_checker("HOPF-ANTIPODE", a, c, h.antipode).entry())
    return rep


# --- convolution calculus ---------------------------------------------------


def convolution(f: Matrix, g: Matrix, c: CoalgebraData, a: AlgebraData) -> Matrix:
    """(f*g)(x) = f(x_1) . g(x_2), computed basis-wise."""
    if f.cols != c.dim or g.cols != c.dim or f.rows != a.dim or g.rows != a.dim:
        raise StructureError("convolution shape mismatch")
    cols = []
    for i in range(c.dim):
        acc: dict[int, Scalar] = {}
        for j, k, s in c.comul[i]:
            add_scaled_inplace(acc, a.mul_vec(f.column(j), g.column(k)), s)
        cols.append(Vector(a.dim, acc, a.field))
    return matrix_from_columns(cols, a.field)


def unit_counit_map(c: CoalgebraData, a: AlgebraData) -> Matrix:
    """The convolution unit x -> eps(x) 1."""
    cols = [a.unit.scale(c.eps(i)) for i in range(c.dim)]
    return matrix_from_columns(cols, a.field)


def convolution_inverse(f: Matrix, c: CoalgebraData, a: AlgebraData) -> Matrix | None:
    """Unique g with f*g = g*f = unit*counit, solved as a linear system.

    Both convolution identities are re-verified before returning; None when
    the system is inconsistent (f is not convolution invertible).  The system
    holds both identities, so a failed re-check is a bug and raises
    ``LinAlgError``.
    """
    d = c.dim
    fs = a.field
    # left-multiplication matrices by f(e_j) and right-multiplication by f(e_k)
    lmul: dict[int, Matrix] = {}
    rmul: dict[int, Matrix] = {}
    for j in range(d):
        v = f.column(j)
        lcols = [a.mul_vec(v, unit_vector(d, r, fs)) for r in range(d)]
        rcols = [a.mul_vec(unit_vector(d, r, fs), v) for r in range(d)]
        lmul[j] = matrix_from_columns(lcols, fs)
        rmul[j] = matrix_from_columns(rcols, fs)

    # unknown u[k*d + r] = coefficient of e_r in g(e_k)
    rows: list[dict[int, Scalar]] = []
    rhs: dict[int, Scalar] = {}
    unit_entries = a.unit.entries

    def emit(row: dict[int, Scalar], value: Scalar):
        idx = len(rows)
        rows.append(row)
        if value:
            rhs[idx] = value

    for i in range(d):
        eps_i = c.eps(i)
        lrow: dict[int, dict[int, Scalar]] = {}
        rrow: dict[int, dict[int, Scalar]] = {}
        for j, k, s in c.comul[i]:
            for (t, r), av in lmul[j].entries.items():
                col = k * d + r
                dst = lrow.setdefault(t, {})
                w = dst.get(col)
                w = s * av if w is None else w + s * av
                if w:
                    dst[col] = w
                else:
                    del dst[col]
            for (t, r), av in rmul[k].entries.items():
                col = j * d + r
                dst = rrow.setdefault(t, {})
                w = dst.get(col)
                w = s * av if w is None else w + s * av
                if w:
                    dst[col] = w
                else:
                    del dst[col]
        for t in range(d):
            target = eps_i * unit_entries.get(t, fs.zero)
            emit(lrow.get(t, {}), target)
            emit(rrow.get(t, {}), target)

    mat = Matrix(
        len(rows),
        d * d,
        {(ri, cj): v for ri, row in enumerate(rows) for cj, v in row.items()},
        fs,
    )
    res: SolveResult = solve(mat, Vector(len(rows), rhs, fs))
    if res.solution is None:
        return None
    if res.kernel:
        # a two-sided convolution inverse is unique; a solvable system with a
        # nontrivial kernel contradicts that, so flag corrupted input loudly
        raise StructureError("convolution inverse system is underdetermined")
    g = Matrix(
        d,
        d,
        {(r, k): v for (idx, v) in res.solution.entries.items() for k, r in [divmod(idx, d)]},
        fs,
    )
    ue = unit_counit_map(c, a)
    if convolution(f, g, c, a) != ue or convolution(g, f, c, a) != ue:
        raise LinAlgError("convolution inverse self-check failed: f*g or g*f != unit*counit")
    return g


@dataclass
class EndoInverse:
    """Result of inverting alpha in Hom(H, End(H)): tensor + system kernel."""

    beta: ActionTensor | None
    kernel_dim: int


def hom_convolution_inverse_endo(alpha: ActionTensor, c: CoalgebraData) -> EndoInverse:
    """Solve (alpha x1).(beta x2) = (beta x1).(alpha x2) = eps(x) Id for beta.

    The defining system in dim^3 unknowns splits into independent blocks per
    target basis vector; both compositions are verified on the assembled
    tensor before returning.  The system holds alpha*beta only.  Over a
    coassociative, counital C, Hom(C, End(H)) is a finite-dimensional
    algebra, where a one-sided inverse is two-sided; so a failed re-check
    there is a bug and raises ``LinAlgError``.  Over a C that fails those
    axioms, beta*alpha can fail for real, and beta is None.
    """
    d = c.dim
    fs = alpha.field
    if alpha.acting_dim != d or alpha.target_dim != d:
        raise StructureError("endomorphism-valued inverse needs a square action")
    beta_cols: list[list[Vector]] = [[None] * d for _ in range(d)]  # [z][y]
    kernel_total = 0
    for y in range(d):
        rows: list[dict[int, Scalar]] = []
        rhs: dict[int, Scalar] = {}
        for x in range(d):
            eps_x = c.eps(x)
            per_t: dict[int, dict[int, Scalar]] = {}
            for x1, x2, s in c.comul[x]:
                amat = alpha.matrix(x1)
                for (t, r), av in amat.entries.items():
                    col = x2 * d + r
                    dst = per_t.setdefault(t, {})
                    w = dst.get(col)
                    w = s * av if w is None else w + s * av
                    if w:
                        dst[col] = w
                    else:
                        del dst[col]
            for t in range(d):
                idx = len(rows)
                rows.append(per_t.get(t, {}))
                val = eps_x if t == y else fs.zero
                if val:
                    rhs[idx] = val
        mat = Matrix(
            len(rows),
            d * d,
            {(ri, cj): v for ri, row in enumerate(rows) for cj, v in row.items()},
            fs,
        )
        res = solve(mat, Vector(len(rows), rhs, fs))
        if res.solution is None:
            return EndoInverse(None, kernel_total)
        kernel_total += len(res.kernel)
        for z in range(d):
            entries = {
                r: v
                for idx, v in res.solution.entries.items()
                if idx // d == z
                for r in [idx % d]
            }
            beta_cols[z][y] = Vector(d, entries, fs)
    beta = ActionTensor(d, d, [list(col) for col in beta_cols], fs)
    left_ok, right_ok = _verify_endo_inverse(alpha, beta, c)
    if not left_ok:
        raise LinAlgError("convolution inverse self-check failed: alpha*beta != eps Id")
    if not right_ok:
        if check_coalgebra(c).all_pass():
            raise LinAlgError("convolution inverse self-check failed: beta*alpha != eps Id")
        return EndoInverse(None, kernel_total)
    return EndoInverse(beta, kernel_total)


def _verify_endo_inverse(
    alpha: ActionTensor, beta: ActionTensor, c: CoalgebraData
) -> tuple[bool, bool]:
    """Whether alpha*beta and beta*alpha each equal eps Id."""
    d = c.dim
    fs = alpha.field
    from .linalg import identity_matrix

    ident = identity_matrix(d, fs)
    left_ok = right_ok = True
    for x in range(d):
        acc1 = Matrix(d, d, {}, fs)
        acc2 = Matrix(d, d, {}, fs)
        for x1, x2, s in c.comul[x]:
            acc1 = acc1.add(alpha.matrix(x1).compose(beta.matrix(x2)).scale(s))
            acc2 = acc2.add(beta.matrix(x1).compose(alpha.matrix(x2)).scale(s))
        target = ident.scale(c.eps(x))
        left_ok = left_ok and acc1 == target
        right_ok = right_ok and acc2 == target
    return left_ok, right_ok


def solve_antipode(a: AlgebraData, c: CoalgebraData) -> Matrix | None:
    """Convolution inverse of the identity map: the antipode, when it exists."""
    from .linalg import identity_matrix

    return convolution_inverse(identity_matrix(a.dim, a.field), c, a)
