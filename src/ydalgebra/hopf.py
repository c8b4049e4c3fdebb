"""Structure-constant containers, the laws they are checked by, and the
convolution calculus.

Algebras, coalgebras and Hopf bundles live on a fixed finite basis; the
multiplication is a tensor of sparse vectors, the comultiplication a list
of (left leg, right leg, coefficient) triples per basis element.  Antipodes
and convolution inverses are always solved from their defining linear
systems and re-verified, never assumed.  Both solvers assemble their
systems as plain-int rows on the compiled tables and hand them to
``linalg.solve_rows`` level by level along the coproduct
(``_solve_convolution``): the unknowns g(e_x) of a block x are solved
after the blocks that are second legs of Delta(x), which on a pointed
Hopf algebra such as E(n) sit lower in the coradical filtration.  The
whole system is the one-level case, every block in basis order in one
``solve_rows`` call, taken for a small or dense system and when a level
fails; a ``Matrix`` or ``Vector`` is built only for the result.  The
system holds one side of the identity, f*g = eps 1 (for beta, alpha*beta =
eps Id), one row per coefficient; both sides are then re-verified by
``convolution_unit_law``, which counts failures there without rendering a
witness, as do the coalgebra and algebra checks behind it.  Over a coalgebra
C (and, for an antipode, an algebra A), Hom(C, A) is a finite-dimensional
algebra, where a right inverse is two-sided, so either re-check failing is
a solver bug; off those axioms, a failed g*f only means there is no
inverse.  P-CONV runs the same re-check, ``_verify_endo_inverse``, on
every beta.

The containers are frozen dataclasses.  Each holds its tensor compiled
once into a plain-int table (``int_mul``, ``int_comul``, ``int_act``, and
``int_legs`` for the iterated coproduct; see ``compiled``) in its
``_cache``, the one slot that changes after construction, filled by
``linalg._per_structure``: seeded where the table is made, by
``structio.parse`` or by a producer that sums it as ints
(``table_action``, ``table_algebra``, ``column_matrix``), and otherwise
compiled on first use.  The slot is not an ``__init__`` argument, so a
copy made by ``dataclasses.replace`` starts with an empty one.  ALG-ASSOC is
``module_law`` for the algebra acting on itself by left products, one row
(i, j) per contract call: m[i][j] and m[i] are read once for every k, both
sides of (e_i e_j) e_k = e_i (e_j e_k) carry the square of its scale, so
their int sums are compared as they are, and a ``Vector`` is built only to
render the first failing triple.  ALG-UNIT and COALG-COUNIT run on the
compiled tables too.

The laws are written once, here, as tallies that the suites fold into
their IDs; the acting space may differ from the target, as in a relative
Rota-Baxter operator, where H acts on K:

- ``module_law``: ALG-ASSOC, P-ASSOC, YD-MODULE, RB-BIMON 1, MP-MODC 4, and
  its unit row L-1ACT, MP-MODC 6 and, for the right action, MP-MODC 7;
- ``module_algebra_law``: P-DOT, L-MA, YD-MODALG, L-MB, RB-BIMON 2, and
  its unit row L-U, MP-1 and, for the right action, MP-2;
- ``module_coalgebra_law``: P-COALG, L-DA, YD-MODCOALG, L-DB, RB-BIMON 3 and
  MP-MODC 0-3, its counit rows by ``_counit_law``;
- ``mp5_law``: P-MP5, HB-MP5, MP-5;
- ``bialgebra_unit_laws``: HOPF-EPS-MULT, HOPF-DELTA-UNIT, HOPF-EPS-UNIT,
  the last rows of P-COALG and RB-BIMON 8;
- ``convolution_unit_law``, (f*g)(x) = eps(x) u for maps into an algebra
  (u = 1) or into End(H) (u = Id): HOPF-ANTIPODE, P-S and the re-check of
  S_K (``antipode_law``), P-CONV (``_verify_endo_inverse``) and the
  re-checks of both solvers;
- ``coassociative_law``, (Delta (x) id) c = (id (x) c) c: COALG-COASSOC
  (c = Delta) and RB-BIMON 4 (c = rho);
- ``coalgebra_map_law``: RB-COALG, RBM-F/G, the restriction to
  group-likes and, with its legs swapped, P-ANTI, which takes only its
  Delta tally.

All of them, their unit rows and HOPF-DELTA-MULT run on the compiled
tables.  A law on triples runs on rows (g, h) or (h, a), on operand lists
built once per law call and dropped when it returns.  ``module_law`` reads
the action rows flattened, keyed a * dk + q, and the terms of every
h >- f_a.  ``module_algebra_law`` reads the products m[a] flattened, sums
c (h_1 >- a) once per row for each distinct h_2, and multiplies that sum
into a table of e_r . (e_{h_2} >- e_b) for every b, one entry per
(h_2, r), filled as rows ask for it.  A law on H (x) H runs on rows (x,)
and keys its int sums by y * dim**2 + p * dim + q (``compiled.comul_side``
and ``compiled.legs_side``).  P-CONV reports the tallies of
``_verify_endo_inverse``; when beta was just solved, they are the ones
``hom_convolution_inverse_endo`` computed to accept it.

The convolution calculus runs on the same tables.  ``convolve`` gives the
table of f*g, (f*g)_x = sum c f_{x_1} o g_{x_2}, for maps from a coalgebra
stored as rows[j][r] = f_{e_j}(e_r); for a one-column g (``one_column``)
it is x -> sum c f_{x_1}(g(x_2)).  Its callers build their operator tables
from the compiled ones (L = ``int_mul()``, L o f = ``left_products``, an
action pulled back along a map T, alpha o T): the bullet product L * alpha
and S_> = beta * S (``posthopf``); the brace action (L o S) * L^o and the
matched-pair carrier L^o * (alpha o T) and alpha * T (``braces``); S_K =
(alpha o R) * R^{-1} S R and functor M's antipode R o (alpha * R^{-1} S)
(``rota``); the adjoint example (``builders``); and ``convolution``,
(L o f) * g.  Each keeps the association of its formula, so it agrees with
a loop over the coproduct on failing input too, except the adjoint
example, whose operators compose only where H is associative.
``coaction`` builds rho(a) = R(a_1) . S(R(a_3)) (x) a_2 for
``rota.derived_coaction``, and Ad_L with R = id on the subadjacent Hopf
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from .compiled import (
    IntTable, add_bilinear, add_linear, basis, bilinear_table, comul_side, compare, compared, compile_columns,
    compile_comul, compile_legs, compile_tensor, compile_vectors, int_items, int_linear, int_vector, legs_side, line,
    pairs_render, reduced, scalar_render, sides, table_vectors, tensor_side, triples_render, vector_render,
)
from .field import FieldSpec, Scalar, canonical
from .linalg import (
    LinAlgError, Matrix, Vector, _cache_slot, _per_structure, _vector, accumulate, identity_matrix, matrix_from_columns,
    solve_rows,
)
from .report import Checker, CheckReport, Tally, Witness


class StructureError(ValueError):
    """Structurally invalid input (bad dimensions, failed preconditions)."""


# --- containers ----------------------------------------------------------


@dataclass(frozen=True)
class AlgebraData:
    """Unital algebra by structure constants: mul[i][j] = e_i * e_j.  A
    container: products are summed on its compiled table, ``int_mul``."""

    dim: int
    basis_labels: list[str]
    mul: list[list[Vector]]
    unit: Vector
    field: FieldSpec
    _cache: dict = _cache_slot()

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

    @_per_structure
    def int_mul(self) -> IntTable:
        """The product as a compiled table, built once."""
        return compile_tensor(self.mul, self.field)


@dataclass(frozen=True)
class CoalgebraData:
    """Coalgebra by structure constants: Delta(e_i) = sum c * e_j (x) e_k.  A
    container: coproducts are summed on its compiled tables, ``int_comul``
    and ``int_legs``, and ``legs`` and ``eps`` read single terms."""

    dim: int
    comul: list[list[tuple[int, int, Scalar]]]
    counit: Vector
    field: FieldSpec
    _cache: dict = _cache_slot()

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
                accumulate(acc, (j, k), c)
            norm.append([(j, k, canonical(c)) for (j, k), c in sorted(acc.items())])
        object.__setattr__(self, "comul", norm)

    def eps(self, i: int) -> Scalar:
        return self.counit.get(i)

    @_per_structure
    def legs(self, i: int, n: int) -> list[tuple[tuple[int, ...], Scalar]]:
        """Terms of the (n-1)-fold iterated coproduct of e_i, n legs."""
        if n == 1:
            return [((i,), self.field.one)]
        acc: dict[tuple[int, ...], Scalar] = {}
        for tup, s in self.legs(i, n - 1):
            for a, b, c in self.comul[tup[0]]:
                accumulate(acc, (a, b) + tup[1:], s * c)
        return sorted(acc.items())

    @_per_structure
    def int_comul(self) -> IntTable:
        """The coproduct as a compiled table, built once."""
        return compile_comul(self.comul, self.field)

    @_per_structure
    def int_legs(self, n: int) -> IntTable:
        """``legs(i, n)`` for every i as a compiled table, built once."""
        return compile_legs([self.legs(i, n) for i in range(self.dim)], self.field)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ActionTensor:
    """Bilinear action: act[i][j] = e_i >- f_j, a vector in the target.  A
    container: actions are summed on its compiled table, ``int_act``, and
    ``pull_back`` pulls it back along a map."""

    acting_dim: int
    target_dim: int
    act: list[list[Vector]]
    field: FieldSpec
    _cache: dict = _cache_slot()

    def __post_init__(self):
        if len(self.act) != self.acting_dim:
            raise StructureError("action tensor acting dimension mismatch")
        for row in self.act:
            if len(row) != self.target_dim or any(v.dim != self.target_dim for v in row):
                raise StructureError("action tensor target dimension mismatch")

    @_per_structure
    def int_act(self) -> IntTable:
        """The action as a compiled table, built once."""
        return compile_tensor(self.act, self.field)


def pull_back(act: ActionTensor, cols: IntTable) -> IntTable:
    """alpha o T, the action pulled back along a map T: rows[i][j] =
    T(e_i) >- f_j, summed as ints on the compiled action and the compiled
    columns T(e_i), at the product of their scales."""
    return bilinear_table(act.int_act(), cols, basis(act.target_dim), act.field.p)


def pulled_back(act: ActionTensor, cols: IntTable) -> ActionTensor:
    """``pull_back`` as an action tensor (``table_action``)."""
    return table_action(act.target_dim, pull_back(act, cols), act.field)


def table_action(d: int, table: IntTable, field: FieldSpec) -> ActionTensor:
    """The action tensor of a compiled table of vectors of d, its own
    ``int_act`` seeded with the table at the least common scale
    (``compiled.reduced``), so equal tensors compile alike."""
    act = ActionTensor(len(table.rows), d, table_vectors(d, table, field), field)
    return ActionTensor.int_act.seed(act, reduced(table))


def table_algebra(labels: list[str], table: IntTable, unit: Vector, field: FieldSpec) -> AlgebraData:
    """The algebra of a compiled product table, its own ``int_mul`` seeded
    as in ``table_action``."""
    d = len(labels)
    return AlgebraData.int_mul.seed(AlgebraData(d, labels, table_vectors(d, table, field), unit, field),
                                    reduced(table))


def is_cocommutative(c: CoalgebraData) -> bool:
    for i in range(c.dim):
        terms = {(j, k): s for j, k, s in c.comul[i]}
        flipped = {(k, j): s for j, k, s in c.comul[i]}
        if terms != flipped:
            return False
    return True


# --- checkers --------------------------------------------------------------


def check_algebra(a: AlgebraData, *, witness: bool = True) -> CheckReport:
    """Associativity on all basis triples, as the module law of the algebra
    acting on itself by left products, and two-sided unitality.  With
    witness False the failures are counted but no side is rendered."""
    rep = CheckReport()
    ch = Checker("ALG-ASSOC")
    mul = a.int_mul()
    m, d = mul.rows, a.dim
    ch.absorb(module_law(ActionTensor.int_act.seed(ActionTensor(d, d, a.mul, a.field), mul), a, witness=witness))
    rep.add(ch.entry())
    ch = Checker("ALG-UNIT")
    unit = compile_vectors([a.unit], a.field)
    u = unit.rows[0]

    def unital(acc, prefix, wl, wr):
        # 1 e_i at (i, 0) and e_i 1 at (i, 1), keyed side * d + t, against e_i
        i, = prefix
        get = acc.get
        for r, c in u:
            for base, v in ((0, m[r][i]), (d, m[i][r])):
                for t, e in v:
                    acc[base + t] = get(base + t, 0) + wl * c * e
        acc[i] = get(i, 0) + wr
        acc[d + i] = get(d + i, 0) + wr

    compare(ch, line(d), 2, d, unital, unit.scale * mul.scale, 1, a.field, vector_render(d) if witness else None)
    rep.add(ch.entry())
    return rep


def check_coalgebra(c: CoalgebraData, *, witness: bool = True) -> CheckReport:
    """Coassociativity and counitality on every basis element, on the
    compiled coproduct and counit.  With witness False the failures are
    counted but no side is rendered."""
    rep = CheckReport()
    comul = c.int_comul()
    cm, d = comul.rows, c.dim
    ch = Checker("COALG-COASSOC")
    ch.absorb(coassociative_law(cm, comul.scale, c, d, witness=witness))
    rep.add(ch.entry())
    ch = Checker("COALG-COUNIT")
    counit = compile_vectors([c.counit], c.field)
    eps = dict(counit.rows[0])

    def counital(acc, prefix, wl, wr):
        # (id (x) eps) Delta(e_i) at (i, 0) and (eps (x) id) Delta(e_i) at
        # (i, 1), keyed side * d + t, against e_i
        i, = prefix
        get = acc.get
        for j, k, s in cm[i]:
            acc[j] = get(j, 0) + wl * s * eps.get(k, 0)
            acc[d + k] = get(d + k, 0) + wl * s * eps.get(j, 0)
        acc[i] = get(i, 0) + wr
        acc[d + i] = get(d + i, 0) + wr

    compare(ch, line(d), 2, d, counital, comul.scale * counit.scale, 1, c.field,
            vector_render(d) if witness else None)
    rep.add(ch.entry())
    return rep


def check_hopf(h: HopfData) -> CheckReport:
    """Full ordinary-Hopf suite: algebra, coalgebra, bialgebra, antipode."""
    a, c = h.algebra, h.coalgebra
    rep = check_algebra(a)
    rep.extend(check_coalgebra(c))

    # Delta(e_i e_j) = (e_i1 e_j1) (x) (e_i2 e_j2)
    ch = Checker("HOPF-DELTA-MULT")
    mul, comul = a.int_mul(), c.int_comul()
    m, c_ = mul.rows, comul.rows
    d = a.dim
    compare(ch, line(d), d, d * d, sides(comul_side(m, c_, d), legs_side(m, m, c_, c_, d)),
            mul.scale * comul.scale, (mul.scale * comul.scale) ** 2, a.field, pairs_render(d))
    rep.add(ch.entry())

    laws = bialgebra_unit_laws(a, c)
    for axiom in ("HOPF-EPS-MULT", "HOPF-DELTA-UNIT", "HOPF-EPS-UNIT"):
        ch = Checker(axiom)
        ch.absorb(next(laws))
        rep.add(ch.entry())

    ch = Checker("HOPF-ANTIPODE")
    ch.absorb(antipode_law(a, c, h.antipode))
    rep.add(ch.entry())
    return rep


# --- action laws (see the module docstring) ----------------------------------


def _terms(rows: list, dk: int) -> list:
    """The terms (k * dk, r, c) of rows[i][k] for every k, one list per i:
    a table's rows flattened once per law call, its empty entries dropped."""
    return [[(k * dk, r, c) for k, v in enumerate(row) for r, c in v] for row in rows]


def module_law(act: ActionTensor, alg: AlgebraData, *, witness: bool = True) -> Tally:
    """act makes its target a module over alg: (g.h) >- a = g >- (h >- a)
    at (g, h, a), on the compiled tables; ``module_unit_law`` is its unit.
    Each row reads operand lists built once per call: x_[r] flattened to
    (a * dk + q, e) for the left side, and the terms (a * dk, r, c) of
    x_[h] for the right.  With witness False no side is rendered."""
    x, mul = act.int_act(), alg.int_mul()
    x_, m = x.rows, mul.rows
    dh, dk = act.acting_dim, act.target_dim
    flat = [[(a * dk + q, e) for a, xra in enumerate(xr) for q, e in xra] for xr in x_]
    terms = _terms(x_, dk)

    def law(acc, prefix, wl, wr):
        g, h = prefix
        get = acc.get
        if wl:
            for r, c in m[g][h]:
                c *= wl
                for q, e in flat[r]:
                    acc[q] = get(q, 0) + c * e
        if wr:
            xg = x_[g]
            for base, r, c in terms[h]:
                c *= wr
                for q, e in xg[r]:
                    q += base
                    acc[q] = get(q, 0) + c * e

    t = Tally()
    compare(t, product(range(dh), range(dh)), dk, dk, law, mul.scale * x.scale, x.scale * x.scale,
            act.field, vector_render(dk) if witness else None)
    return t


def module_unit_law(act: ActionTensor, alg: AlgebraData) -> Tally:
    """1 >- a = a at (a,), for the unit of alg, on the compiled tables."""
    x, unit = act.int_act(), compile_vectors([alg.unit], alg.field)
    x_, u, dk = x.rows, unit.rows[0], act.target_dim

    def law(acc, prefix, wl, wr):
        for a in range(dk):
            add_linear(acc, [row[a] for row in x_], u, wl, a * dk)
            acc[a * dk + a] = acc.get(a * dk + a, 0) + wr

    return compared([()], dk, dk, law, x.scale * unit.scale, 1, act.field, vector_render(dk))


def module_algebra_law(act: ActionTensor, coalg: CoalgebraData, alg: AlgebraData,
                       swap: bool = False) -> Tally:
    """act makes alg a module algebra over the acting coalgebra coalg:
    h >- (a.b) = (h_1 >- a).(h_2 >- b) at (h, a, b), on the compiled tables;
    ``module_algebra_unit_law`` is its unit.  With swap, the legs h_1 and
    h_2 trade places on the right.  Each row reads operand lists built once
    per call: m[a] flattened to (b * dk, r, c) for the left side; for the
    right, the column e_h >- e_a over every h, and a table, filled as rows
    ask for it, of e_r . (e_{h_2} >- e_b) for every b, keyed b * dk + q."""
    x, mul, comul = act.int_act(), alg.int_mul(), coalg.int_comul()
    x_, m, c_ = x.rows, mul.rows, comul.rows
    dh, dk, p = act.acting_dim, act.target_dim, act.field.p
    # the legs of each h grouped by the leg that acts on b: (h_b, [(h_a, c)])
    groups = []
    for legs in c_:
        by_b: dict[int, list] = {}
        for i1, i2, c in legs:
            if swap:
                i1, i2 = i2, i1
            by_b.setdefault(i2, []).append((i1, c))
        groups.append(list(by_b.items()))
    flat, terms = _terms(m, dk), _terms(x_, dk)
    cols = [[row[j] for row in x_] for j in range(dk)]  # cols[j][h] = e_h >- e_j
    products: list[list | None] = [None] * (dh * dk)

    def product_row(i2: int, r: int) -> list:
        # e_r . (e_i2 >- e_k) for every k, keyed k * dk + q
        acc: dict[int, int] = {}
        get = acc.get
        mr = m[r]
        for base, v, b in terms[i2]:
            for q, e in mr[v]:
                q += base
                acc[q] = get(q, 0) + b * e
        row = products[i2 * dk + r] = int_items(acc, p)
        return row

    def law(acc, prefix, wl, wr):
        i, j = prefix
        get = acc.get
        if wl:
            xi = x_[i]
            for base, r, a in flat[j]:
                a *= wl
                for q, b in xi[r]:
                    q += base
                    acc[q] = get(q, 0) + a * b
        if wr:
            xj = cols[j]
            for i2, lefts in groups[i]:
                # the sum of c (h_1 >- a) over the legs whose h_2 is i2, times
                # e_r . (e_i2 >- e_k) for every k
                at = i2 * dk
                for r, a in int_linear(xj, lefts, p):
                    a *= wr
                    row = products[at + r]
                    if row is None:
                        row = product_row(i2, r)
                    for q, e in row:
                        acc[q] = get(q, 0) + a * e

    t = Tally()
    compare(t, product(range(dh), range(dk)), dk, dk, law, mul.scale * x.scale,
            comul.scale * x.scale * x.scale * mul.scale, act.field, vector_render(dk))
    return t


def module_algebra_unit_law(act: ActionTensor, coalg: CoalgebraData, alg: AlgebraData) -> Tally:
    """h >- 1 = eps(h) 1 at (h,), for the unit of alg, on the compiled tables."""
    x, unit = act.int_act(), compile_vectors([alg.unit], alg.field)
    dk = act.target_dim

    def acted(acc, prefix, w):
        for h, row in enumerate(x.rows):
            add_linear(acc, row, unit.rows[0], w, h * dk)

    rhs, sr = eps_unit_side(coalg, alg)
    return compared([()], act.acting_dim, dk, sides(acted, rhs), x.scale * unit.scale, sr, act.field,
                    vector_render(dk))


def eps_unit_side(coalg: CoalgebraData, alg: AlgebraData):
    """The side eps(x) 1 for every basis element x of coalg, on the row (),
    keyed x * alg.dim + k, and its scale: the right-hand side of the unit
    rows of module algebras, L-ANTI2 and RB-3."""
    unit, counit = compile_vectors([alg.unit], alg.field), compile_vectors([coalg.counit], alg.field)
    u, d = unit.rows[0], alg.dim

    def side(acc, prefix, w):
        for x, e in counit.rows[0]:
            add_linear(acc, [u], ((0, e),), w, x * d)

    return side, unit.scale * counit.scale


def module_coalgebra_law(act: ActionTensor, hco: CoalgebraData, kco: CoalgebraData,
                         swap: bool = False) -> tuple[Tally, Tally]:
    """act makes kco a module coalgebra over the acting coalgebra hco, as two
    tallies: Delta(h >- a) = (h_1 >- a_1) (x) (h_2 >- a_2) at (h, a), on the
    compiled tables, and eps(h >- a) = eps(h) eps(a) at (h, a)
    (``_counit_law``).  With swap, the legs h_1 and h_2 trade places on the
    right."""
    x, hc, kc = act.int_act(), hco.int_comul(), kco.int_comul()
    x_, dh, dk = x.rows, act.acting_dim, act.target_dim
    delta = compared(line(dh), dk, dk * dk,
                     sides(comul_side(x_, kc.rows, dk), legs_side(x_, x_, hc.rows, kc.rows, dk, swap_i=swap)),
                     x.scale * kc.scale, hc.scale * kc.scale * x.scale * x.scale, act.field, pairs_render(dk))
    return delta, _counit_law(x, kco, hco, kco)


def mp5_law(left: ActionTensor, right: ActionTensor, coalg: CoalgebraData) -> Tally:
    """(x_1 >- y_1) (x) (x_2 -< y_2) = (x_2 >- y_2) (x) (x_1 -< y_1) at
    (x, y), for a left action >- and a right action -< of coalg on itself
    (right.act[x][y] = x -< y), on the compiled tables."""
    lt, rt, comul = left.int_act(), right.int_act(), coalg.int_comul()
    l_, r_, c_, d = lt.rows, rt.rows, comul.rows, coalg.dim
    scale = comul.scale * comul.scale * lt.scale * rt.scale
    return compared(line(d), d, d * d, sides(legs_side(l_, r_, c_, c_, d), legs_side(l_, r_, c_, c_, d, True, True)),
                    scale, scale, coalg.field, pairs_render(d))


def _counit_law(table: IntTable, target: CoalgebraData, left: CoalgebraData, right: CoalgebraData) -> Tally:
    """eps(table[i][j]) = eps(e_i) eps(e_j) at (i, j), on a compiled table
    of vectors in target, e_i in left and e_j in right."""
    et, el, er = (compile_vectors([c.counit], c.field) for c in (target, left, right))
    eps, eps_l, eps_r = (dict(e.rows[0]) for e in (et, el, er))
    rows = table.rows

    def law(acc, prefix, wl, wr):
        i, = prefix
        for j, v in enumerate(rows[i]):
            acc[j] = wl * sum(c * eps.get(k, 0) for k, c in v) + wr * eps_l.get(i, 0) * eps_r.get(j, 0)

    return compared(line(len(rows)), len(rows[0]), 1, law, table.scale * et.scale, el.scale * er.scale,
                    target.field, scalar_render)


def coalgebra_map_law(cols: IntTable, target: CoalgebraData, source: CoalgebraData, swap: bool = False):
    """A map f from source into target, given by its compiled columns, is a
    coalgebra morphism, as two tallies yielded in turn: Delta(f(e_a)) =
    f(a_1) (x) f(a_2) at (a,), or f(a_2) (x) f(a_1) with swap (an
    anti-coalgebra map), and eps(f(e_a)) = eps(e_a) at (a,), on the compiled
    tables.  Each is computed only when it is asked for."""
    tc, sc, d = target.int_comul(), source.int_comul(), target.dim
    one = [[col] for col in cols.rows]  # as a table rows[a][0], whose index 0 has the one leg (0, 0, 1)
    yield compared(line(len(one)), 1, d * d,
                   sides(comul_side(one, tc.rows, d), legs_side(one, one, sc.rows, [((0, 0, 1),)], d, swap_i=swap)),
                   cols.scale * tc.scale, sc.scale * cols.scale ** 2, target.field, pairs_render(d), lambda w: w[:1])
    et, es = (compile_vectors([c.counit], c.field) for c in (target, source))
    eps, eps_s = dict(et.rows[0]), dict(es.rows[0])

    def counit(acc, prefix, wl, wr):
        for a, v in enumerate(cols.rows):
            acc[a] = wl * sum(c * eps.get(k, 0) for k, c in v) + wr * eps_s.get(a, 0)

    yield compared([()], len(one), 1, counit, cols.scale * et.scale, es.scale, target.field, scalar_render)


def coassociative_law(rows: list, scale: int, coalg: CoalgebraData, d3: int, *, witness: bool = True) -> Tally:
    """(Delta (x) id) c(x) = (id (x) c) c(x) at (x,), for a map c from a
    space into coalg (x) V, dim V = d3, given by the (j, k, n) terms rows[x]
    of c(e_x) at scale, on the compiled tables, keyed (a * d_2 + b) * d3 + k
    for d_2 = coalg.dim: COALG-COASSOC with c = Delta, RB-BIMON part 4 with
    c = rho.  With witness False no side is rendered."""
    comul, d2 = coalg.int_comul(), coalg.dim
    cm = comul.rows

    def law(acc, prefix, wl, wr):
        terms = rows[prefix[0]]
        get = acc.get
        if wl:
            for j, k, s in terms:
                s *= wl
                for a, b, t in cm[j]:
                    key = (a * d2 + b) * d3 + k
                    acc[key] = get(key, 0) + s * t
        if wr:
            for j, k, s in terms:
                s *= wr
                base = j * d2
                for b, q, t in rows[k]:
                    key = (base + b) * d3 + q
                    acc[key] = get(key, 0) + s * t

    return compared(line(len(rows)), 1, d2 * d2 * d3, law, scale * comul.scale, scale * scale, coalg.field,
                    triples_render(d2, d3) if witness else None, lambda w: w[:1])


def bialgebra_unit_laws(alg: AlgebraData, coalg: CoalgebraData):
    """The unit and counit of a bialgebra, on the compiled tables, as three
    tallies yielded in turn: eps(e_i e_j) = eps(e_i) eps(e_j) at (i, j)
    (``_counit_law``), Delta(1) = 1 (x) 1 at (0,) and eps(1) = 1 at (0,).
    Each is computed only when it is asked for, so a caller can time each
    one on its own ID, or stop early."""
    yield _counit_law(alg.int_mul(), coalg, coalg, coalg)
    fs, d = alg.field, alg.dim
    unit, comul = compile_vectors([alg.unit], fs), coalg.int_comul()
    u = unit.rows[0]
    # Delta(1) as the side Delta(T[0][0]) of the one-entry table T = [[1]]
    yield compared([(0,)], 1, d * d, sides(comul_side([[u]], comul.rows, d), tensor_side(u, u, d)),
                   unit.scale * comul.scale, unit.scale ** 2, fs, pairs_render(d), lambda w: w[:1])
    counit = compile_vectors([coalg.counit], fs)
    eps = dict(counit.rows[0])

    def eps_unit(acc, prefix, wl, wr):
        acc[0] = wl * sum(c * eps.get(t, 0) for t, c in u) + wr

    yield compared([()], 1, 1, eps_unit, unit.scale * counit.scale, 1, fs, scalar_render)


def convolution_unit_law(left: IntTable, right: IntTable, coalg: CoalgebraData, unit: IntTable, *,
                         witness: bool = True) -> Tally:
    """(f*g)(x) = eps(x) u at (x,), on the compiled tables: the sum over
    Delta(x) of c f(x_1) applied to g(x_2), with f's table left[j][r] the
    (t, v) of f(e_j) applied to e_r, g's table right[k][y] the y-th column of
    g(e_k), and unit.rows[y] the y-th column of u.  For a map f into an
    algebra, left[j][r] = f(e_j) . e_r, g(e_k) is one column and u = 1; for
    one into End(H), left[j][r] = f_{e_j}(e_r), right[k][y] = g_{e_k}(e_y)
    and u = Id.  Each x is one row, keyed y * n + t for n = len(left[j]).
    With witness False no side is rendered."""
    comul = coalg.int_comul()
    counit = compile_vectors([coalg.counit], coalg.field)
    cm, f, g, cols = comul.rows, left.rows, right.rows, unit.rows
    eps = dict(counit.rows[0])
    n = len(f[0])

    def law(acc, prefix, wl, wr):
        x, = prefix
        get = acc.get
        if wl:
            for x1, x2, c in cm[x]:
                fx = f[x1]
                c *= wl
                for base, col in enumerate(g[x2]):
                    base *= n
                    for r, b in col:
                        w = c * b
                        for t, v in fx[r]:
                            t += base
                            acc[t] = get(t, 0) + w * v
        e = eps.get(x)
        if wr and e:
            e *= wr
            for base, col in enumerate(cols):
                base *= n
                for t, v in col:
                    t += base
                    acc[t] = get(t, 0) + e * v

    render = None if not witness else vector_render(n) if len(cols) == 1 else pairs_render(n)
    return compared(line(coalg.dim), 1, len(cols) * n, law, comul.scale * left.scale * right.scale,
                    counit.scale * unit.scale, coalg.field, render, lambda w: w[:1])


def left_products(fcols: IntTable, mul: IntTable, p: int | None) -> IntTable:
    """The table f(e_j) . e_r of ``convolution_unit_law`` for the compiled
    columns f(e_j) of a map into the algebra of mul."""
    m = mul.rows
    mcols = [[row[r] for row in m] for r in range(len(m))]
    return IntTable([[int_linear(mc, col, p) for mc in mcols] for col in fcols.rows], fcols.scale * mul.scale)


def one_column(cols: IntTable) -> IntTable:
    """Compiled columns g(e_k) as the table right[k] = [g(e_k)]."""
    return IntTable([[col] for col in cols.rows], cols.scale)


def antipode_law(a: AlgebraData, c: CoalgebraData, s_map: Matrix) -> Tally:
    """s_map is a convolution inverse of the identity: S(x_1) x_2 = eps(x) 1
    at (x, 0) and x_1 S(x_2) = eps(x) 1 at (x, 1), by
    ``convolution_unit_law``."""
    fs, mul = a.field, a.int_mul()
    scols = compile_columns(s_map)
    unit = compile_vectors([a.unit], fs)
    ident = one_column(basis(c.dim))
    t = Tally()
    t.absorb(convolution_unit_law(left_products(scols, mul, fs.p), ident, c, unit), where=lambda w: w + (0,))
    t.absorb(convolution_unit_law(mul, one_column(scols), c, unit), where=lambda w: w + (1,))
    return t


# --- convolution calculus ---------------------------------------------------


def convolve(f: IntTable, g: IntTable, coalg: CoalgebraData) -> IntTable:
    """The compiled table of f*g, (f*g)_x = sum over Delta(x) of
    c f_{x_1} o g_{x_2}, for maps from coalg stored as rows[j][r] =
    f_{e_j}(e_r): rows[x][y] = sum c f_{x_1}(g_{x_2}(e_y)), at the product
    of the three scales.  For a one-column g (``one_column``), row x is
    the one column sum c f_{x_1}(g(x_2)).  Each sum is taken in f and g as
    they are, so a value keeps the association f_{x_1}(g_{x_2}(e_y)) even
    where the product behind f or g is not associative."""
    comul = coalg.int_comul()
    p, fr, gr = coalg.field.p, f.rows, g.rows
    out = []
    for legs in comul.rows:
        accs: list[dict[int, int]] = [{} for _ in gr[0]]
        for x1, x2, c in legs:
            fx = fr[x1]
            for acc, col in zip(accs, gr[x2]):
                add_linear(acc, fx, col, c)
        out.append([int_items(acc, p) for acc in accs])
    return IntTable(out, f.scale * g.scale * comul.scale)


def column_matrix(dim: int, table: IntTable, field: FieldSpec) -> Matrix:
    """The matrix whose column x is the one column of a compiled table's
    row x, as ``convolve`` gives it for a one-column g, its compiled
    columns seeded as in ``table_action``."""
    cols = reduced(table)
    m = matrix_from_columns([v for v, in table_vectors(dim, table, field)], field)
    return compile_columns.seed(m, IntTable([col for col, in cols.rows], cols.scale))


def convolution(f: Matrix, g: Matrix, c: CoalgebraData, a: AlgebraData) -> Matrix:
    """(f*g)(x) = f(x_1) . g(x_2): (L o f) * g by ``convolve``, for the
    left products L o f of ``left_products``."""
    if f.cols != c.dim or g.cols != c.dim or f.rows != a.dim or g.rows != a.dim:
        raise StructureError("convolution shape mismatch")
    left = left_products(compile_columns(f), a.int_mul(), a.field.p)
    return column_matrix(a.dim, convolve(left, one_column(compile_columns(g)), c), a.field)


def coaction(alg: AlgebraData, antipode: Matrix, r_map: Matrix, coalg: CoalgebraData) -> Matrix:
    """rho(a) = R(a_1) . S(R(a_3)) (x) a_2 for a linear R: C -> A and an
    antipode S of A, as a dim_C -> dim_A * dim_C matrix whose entry
    (p * dim_C + q, a) is the coefficient of e_p (x) e_q.  It is summed as
    ints on the threefold legs of C and the compiled product and columns of
    R and S R: c S(R(a_3)) is summed over the legs that share (a_1, a_2)
    first (``grouped_legs``), then multiplied by R(a_1), and each entry is
    divided by the scale once.  The coaction of a relative Rota-Baxter
    operator, and Ad_L of a post-Hopf structure with R = id on its
    subadjacent Hopf algebra."""
    fs, dk, mul = alg.field, coalg.dim, alg.int_mul()
    rc = compile_columns(r_map)
    grouped = grouped_legs(coalg, compile_columns(antipode.compose(r_map)))
    cols = []
    for groups in grouped.rows:
        by_a2: dict[int, dict[int, int]] = {}
        for a1, a2, v in groups:
            add_bilinear(by_a2.setdefault(a2, {}), mul.rows, rc.rows[a1], v, 1)
        col = {q * dk + a2: n for a2, acc in by_a2.items() for q, n in acc.items()}
        cols.append(int_vector(alg.dim * dk, col, grouped.scale * mul.scale * rc.scale, fs))
    return matrix_from_columns(cols, fs)


def grouped_legs(coalg: CoalgebraData, cols: IntTable) -> IntTable:
    """For each x, the threefold legs of x grouped by (x_1, x_2): the
    triples (x_1, x_2, sum of c f(x_3)) whose sum is not 0, for the compiled
    columns f(e_k) of a map, at the legs' scale times f's.  A contraction
    linear in f(x_3) reads each group once instead of each of its legs:
    ``coaction`` and YD-COMPAT/YD-COLINEAR with f = S_>, RB-BIMON part 7
    with f = S_H."""
    legs, p = coalg.int_legs(3), coalg.field.p
    out = []
    for terms in legs.rows:
        sums: dict[tuple[int, int], dict[int, int]] = {}
        for (x1, x2, x3), c in terms:
            add_linear(sums.setdefault((x1, x2), {}), cols.rows, ((x3, c),), 1)
        out.append([(x1, x2, v) for (x1, x2), acc in sums.items() if (v := int_items(acc, p))])
    return IntTable(out, legs.scale * cols.scale)


def unit_counit_map(c: CoalgebraData, a: AlgebraData) -> Matrix:
    """The convolution unit x -> eps(x) 1."""
    cols = [a.unit.scale(c.eps(i)) for i in range(c.dim)]
    return matrix_from_columns(cols, a.field)


# The level order of ``_solve_convolution`` pays from this many blocks on:
# with 8 (E(2)) its per-level solves cost about what they save, with 4
# (Sweedler) 10-20% more than one elimination of the whole system.
_LEVEL_MIN_BLOCKS = 16


@_per_structure
def _convolution_levels(c: CoalgebraData) -> list[list[int]]:
    """The blocks of a convolution system over c in solving order, found
    once per coalgebra.  Block x is the unknowns g(e_x) and the rows of
    (f*g)(x); it depends on every k != x that is a second leg of Delta(x).
    A level is every unsolved block whose dependencies are all solved, in
    basis order; when no block is ready, every unsolved block forms one
    level."""
    deps = [{k for _, k, _ in legs if k != x} for x, legs in enumerate(c.int_comul().rows)]
    levels: list[list[int]] = []
    solved: set[int] = set()
    todo = list(range(len(deps)))
    while todo:
        ready = [x for x in todo if deps[x] <= solved] or todo
        levels.append(ready)
        solved.update(ready)
        todo = [x for x in todo if x not in solved]
    return levels


def _solve_convolution(left: IntTable, c: CoalgebraData, n: int, rhs: dict, nrhs: int,
                       fs: FieldSpec) -> tuple[list[Vector | None], list[Vector]]:
    """The solutions and kernel of the int rows of (f*g)(x) = sum over
    Delta(x) of c f_{x_1} g(x_2), one row (x, t) per coefficient t of the
    value, for the unknown g: unknown k * n + r is the e_r coefficient of
    g(e_k), and left[j][r] holds the (t, v) of f_j applied to e_r
    (f(e_j) . e_r for a map into an algebra, alpha_{e_j}(e_r) for one into
    End(H)), at the scale of its table.  rhs maps a row (x, t) to (k, e): the
    field scalar e, the row's right-hand side k, carried in the column k
    after the unknowns; a row it does not name is homogeneous.

    The system is solved level by level along c's coproduct
    (``_convolution_levels``, ``_solve_levels``).  The whole system is the
    one-level case, every block in basis order, handed to one
    ``solve_rows`` as it is: used when there are fewer than
    ``_LEVEL_MIN_BLOCKS`` blocks, when one level holds more than half the
    blocks (a group algebra or a dense basis is one level, Suzuki's is 14
    of 16 blocks), as solving such a level apart saves little elimination
    and costs the substitution, and when a level is inconsistent or has a
    kernel, so a failure reads exactly as it does on the whole system.
    With every level nonsingular the permuted system is block triangular
    with nonsingular diagonal blocks, so its one solution is the whole
    system's, and the kernel is empty."""
    d = c.dim
    whole = [range(d)]
    levels = whole if d < _LEVEL_MIN_BLOCKS else _convolution_levels(c)
    if 2 * max(map(len, levels)) > d:
        levels = whole
    comul = c.int_comul()
    return (_solve_levels(left, comul, n, rhs, nrhs, fs, levels)
            or _solve_levels(left, comul, n, rhs, nrhs, fs, whole))


def _solve_levels(left: IntTable, comul: IntTable, n: int, rhs: dict, nrhs: int, fs: FieldSpec,
                  levels: list) -> tuple[list[Vector | None], list[Vector]] | None:
    """``_solve_convolution``'s system solved in the given levels of blocks:
    one ``solve_rows`` call per level, on the level's own rows (x, t) and
    unknowns (x, r), local unknown i * n + r for the i-th block of the level.
    A row's int sums carry left's scale times the coproduct's, so its
    right-hand side is e times that scale, and the row is multiplied by e's
    denominator.  The values of the blocks already solved move into the
    carried right-hand-side columns as plain ints: each solved level keeps
    its values over one common denominator, and a row is multiplied by the
    lcm of the denominators it reads.  One carry serves both fields: it
    reads scalars through ``numerator`` and ``denominator``, and over F_p
    every denominator is 1, so the rows are plain ints that ``solve_rows``
    reduces mod p.  The carried denominators cannot compound from level to
    level: each level's values come back from ``solve_rows`` in canonical
    form, so a level's common denominator is the lcm of reduced
    denominators, whatever the multipliers of its rows were.  One level
    returns what ``solve_rows`` gives; of several, None when a level is
    inconsistent or has a kernel."""
    p = fs.p
    d = len(comul.rows)
    scale = left.scale * comul.scale
    lrows, crows = left.rows, comul.rows
    known: dict[int, list[list[tuple[int, int]]]] = {}  # block -> per r, the (y, int value) of g(e_k) at e_r
    denom: dict[int, int] = {}  # block -> its level's common denominator
    found: list[dict[int, Scalar]] = [{} for _ in range(nrhs)]
    for level in levels:
        pos = {k: i for i, k in enumerate(level)}
        ncols = len(level) * n
        rows = []
        for x in level:
            legs = crows[x]
            m = 1
            for _, k, _ in legs:
                if k not in pos:
                    m = lcm(m, denom[k])
            per_t: list[dict[int, int]] = [{} for _ in range(n)]
            moved: list[dict[int, int]] = [{} for _ in range(n)]  # t -> rhs y -> minus the solved terms
            for j, k, c in legs:
                i = pos.get(k)
                if i is not None:
                    base = i * n
                    for r, col in enumerate(lrows[j]):
                        key = base + r
                        for t, v in col:
                            row = per_t[t]
                            row[key] = row.get(key, 0) + c * v
                    continue
                c *= m // denom[k]
                for r, vals in enumerate(known[k]):
                    if vals:
                        for t, v in lrows[j][r]:
                            acc = moved[t]
                            cv = c * v
                            for y, a in vals:
                                acc[y] = acc.get(y, 0) - cv * a
            for t, row in enumerate(per_t):
                row = dict(int_items(row, p))
                carried = moved[t]
                if m != 1:
                    row = {key: v * m for key, v in row.items()}
                target = rhs.get((x, t))
                if target is not None:
                    k, e = target
                    q = e.denominator
                    if q != 1:
                        row = {key: v * q for key, v in row.items()}
                        carried = {y: a * q for y, a in carried.items()}
                    a = e.numerator * scale * m
                    if carried:
                        carried[k] = carried.get(k, 0) + a
                    elif a:
                        # nothing moved into the row: its one right-hand side
                        row[ncols + k] = a
                if carried:
                    for y, a in int_items(carried, p):
                        row[ncols + y] = a
                rows.append(row)
        sols, kern = solve_rows(rows, ncols, nrhs, fs)
        if len(levels) == 1:
            return sols, kern
        if kern or any(sol is None for sol in sols):
            return None
        for k in level:
            known[k] = [[] for _ in range(n)]
        den = 1
        for sol in sols:
            for v in sol.entries.values():
                if v.__class__ is not int:
                    den = lcm(den, v.denominator)
        for k in level:
            denom[k] = den
        for y, (sol, out) in enumerate(zip(sols, found)):
            for idx, v in sol.entries.items():
                i, r = divmod(idx, n)
                k = level[i]
                out[k * n + r] = v
                known[k][r].append((y, v * den if v.__class__ is int else v.numerator * (den // v.denominator)))
    # in the order back-substitution gives them, last unknown first
    return [_vector(d * n, dict(sorted(out.items(), reverse=True)), fs) for out in found], []


def convolution_inverse(f: Matrix, c: CoalgebraData, a: AlgebraData) -> Matrix | None:
    """The convolution inverse g of f: C -> A, f*g = g*f = unit*counit,
    solved from the one-sided system f*g = unit*counit on the compiled
    tables, or None.

    The system has one int row per (x, t), the e_t coefficient of
    (f*g)(x) = sum c f(x_1) . g(x_2), with the rows f(e_j) . e_r formed
    once per (j, r) from ``a.int_mul()`` (``left_products``), and is
    solved level by level along the coproduct (``_solve_convolution``):
    the blocks g(e_x) whose Delta(x) has no other second leg first, then
    each block once the blocks it reads are solved, their values moved
    into its right-hand side.  The whole system is the one-level case,
    taken when a level is inconsistent or singular, the system is small,
    or one level holds more than half the blocks, with the same result.
    None when it is inconsistent: f has no right inverse.  A consistent
    system with a kernel raises ``StructureError`` (a two-sided inverse is
    unique).  Then both f*g and g*f are re-verified on int sums
    (``convolution_unit_law``); each row of the system is a coefficient of
    f*g, so that re-check is the solver's own check, and:

    - f*g fails: a solver bug, ``LinAlgError``;
    - g*f fails while C passes ``check_coalgebra`` and A ``check_algebra``:
      then Hom(C, A) is a finite-dimensional algebra, where a right inverse
      is two-sided and unique, so this is a bug too, ``LinAlgError``;
    - g*f fails otherwise: g is only a right inverse, and the result is
      None.
    """
    d, n = c.dim, a.dim
    fs = a.field
    if f.cols != d or f.rows != n:
        raise StructureError("convolution shape mismatch")
    mul = a.int_mul()
    fcols = compile_columns(f)
    left = left_products(fcols, mul, fs.p)
    eps = c.counit.entries
    rhs = {(x, t): (0, e * u) for x, e in eps.items() for t, u in a.unit.entries.items()}
    (sol,), kern = _solve_convolution(left, c, n, rhs, 1, fs)
    if sol is None:
        return None
    if kern:
        # a two-sided convolution inverse is unique; a solvable system with a
        # nontrivial kernel contradicts that, so flag corrupted input loudly
        raise StructureError("convolution inverse system is underdetermined")
    g = Matrix(n, d, {(r, k): v for idx, v in sol.entries.items() for k, r in [divmod(idx, n)]}, fs)
    gcols = compile_columns(g)
    unit = compile_vectors([a.unit], fs)
    if convolution_unit_law(left, one_column(gcols), c, unit, witness=False).failures:
        raise LinAlgError("convolution inverse self-check failed: f*g != unit*counit")
    if convolution_unit_law(left_products(gcols, mul, fs.p), one_column(fcols), c, unit, witness=False).failures:
        if check_coalgebra(c, witness=False).all_pass() and check_algebra(a, witness=False).all_pass():
            raise LinAlgError("convolution inverse self-check failed: g*f != unit*counit")
        return None
    return g


@dataclass
class EndoInverse:
    """Result of inverting alpha in Hom(H, End(H)): tensor + system kernel,
    the tallies of ``_verify_endo_inverse`` on the beta it returns, and,
    when there is no beta, which side failed."""

    beta: ActionTensor | None
    kernel_dim: int
    checks: tuple[Tally, Tally] | None = None
    reason: str | None = None


def hom_convolution_inverse_endo(alpha: ActionTensor, c: CoalgebraData) -> EndoInverse:
    """Solve (alpha x1).(beta x2) = (beta x1).(alpha x2) = eps(x) Id for beta.

    The defining system in dim^3 unknowns splits into d blocks, one per
    target basis vector y, which share one coefficient matrix: row x*d + t,
    unknown z*d + r (the e_r coefficient of beta_{e_z}(e_y)), holding
    (alpha*beta)(x) at e_t.  Its int rows come from ``alpha.int_act()`` and
    ``c.int_comul()``.  Only the right-hand side eps(x) e_y changes with
    y, so the d blocks are solved by one elimination per level carrying d
    right-hand sides, level by level along the coproduct as for
    ``convolution_inverse`` (``_solve_convolution``); a failing level
    re-solves it as one level, the whole system in one
    ``linalg.solve_rows``, so ``kernel_dim`` is d times the dimension of
    that matrix's kernel.  The solved cells are regrouped into beta as
    they are, through ``linalg._vector``: the solver's values are
    canonical, nonzero and in range.  Both compositions are verified on
    the compiled tables before returning; the alpha*beta re-check is the
    solver's own check.  The system holds alpha*beta only.  Over a
    coassociative, counital C, Hom(C, End(H)) is a finite-dimensional
    algebra, where a one-sided inverse is two-sided; so a failed re-check
    there is a bug and raises ``LinAlgError``.  Over a C that fails those
    axioms, beta*alpha can fail for real, and beta is None.
    """
    d = c.dim
    fs = alpha.field
    if alpha.acting_dim != d or alpha.target_dim != d:
        raise StructureError("endomorphism-valued inverse needs a square action")
    rhs = {(x, t): (t, e) for x, e in c.counit.entries.items() for t in range(d)}
    sols, kern = _solve_convolution(alpha.int_act(), c, d, rhs, d, fs)
    for y, sol in enumerate(sols):
        if sol is None:
            # kernel_dim sums the kernels of the blocks before y, which solved
            return EndoInverse(None, y * len(kern),
                               reason=f"alpha*beta = eps Id has no solution (at target {y})")
    kernel_dim = d * len(kern)
    cols: list[list[dict[int, Scalar]]] = [[{} for _ in range(d)] for _ in range(d)]  # [z][y]
    for y, sol in enumerate(sols):
        for idx, v in sol.entries.items():
            z, r = divmod(idx, d)
            cols[z][y][r] = v
    beta = ActionTensor(d, d, [[_vector(d, e, fs) for e in row] for row in cols], fs)
    checks = left, right = _verify_endo_inverse(alpha, beta, c)
    if left.failures:
        raise LinAlgError("convolution inverse self-check failed: alpha*beta != eps Id")
    if right.failures:
        if check_coalgebra(c, witness=False).all_pass():
            raise LinAlgError("convolution inverse self-check failed: beta*alpha != eps Id")
        return EndoInverse(None, kernel_dim, reason="beta*alpha != eps Id (one-sided inverse)")
    return EndoInverse(beta, kernel_dim, checks)


def _verify_endo_inverse(
    alpha: ActionTensor, beta: ActionTensor, c: CoalgebraData
) -> tuple[Tally, Tally]:
    """(alpha*beta)(x) = eps(x) Id and (beta*alpha)(x) = eps(x) Id, as two
    tallies at (x,), labelled ``alpha*beta``/``beta*alpha`` and ``eps Id``.

    Column y of (f*g)(x) is the sum over Delta(x) of c f_{x1}(g_{x2}(e_y)),
    summed as ints on the compiled action tables by
    ``convolution_unit_law``, keyed y * d + t, and compared with eps(x) e_y
    cross-multiplied by the scales; no matrix is built."""
    ident = basis(c.dim)

    def labelled(f: IntTable, g: IntTable, label: str) -> Tally:
        t = convolution_unit_law(f, g, c, ident)
        if t.witness is not None:
            t.witness = Witness(t.witness.where, label, "eps Id")
        return t

    xa, xb = alpha.int_act(), beta.int_act()
    return labelled(xa, xb, "alpha*beta"), labelled(xb, xa, "beta*alpha")


def solve_antipode(a: AlgebraData, c: CoalgebraData) -> Matrix | None:
    """Convolution inverse of the identity map: the antipode, when it exists."""
    return convolution_inverse(identity_matrix(a.dim, a.field), c, a)
