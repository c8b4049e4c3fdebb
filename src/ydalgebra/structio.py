"""Line-oriented text format for structure-constant files.

One fact per line: header lines (kind, field, dim, basis, param) followed
by coefficient lines, e.g. ``mul i j k c`` meaning e_i * e_j contains
c * e_k.  Coefficients use the exact scalar format (-a/b, b omitted when
1); zeros are never written and are rejected on input, triples must be
strictly sorted and unique, so emission is canonical and parse o emit is
the identity on parsed data.

Each distinct token is read once per file: for one parse, ``_Lines`` keeps
index token -> int and coefficient token -> nonzero scalar.  An index read
before is held to the bound of each position it stands at again, and a
token that fails is never kept, so each diagnostic names the line and the
fault it named when every token was read where it stood.

Each product, coproduct and action read is compiled here too, from the
distinct coefficient tokens of its table, into what
``compiled.compile_tensor`` would make of its Vectors, and seeded into its
container's cache (``_compiled``).  That happens once the whole file has
parsed (``_Lines.defer``), so a file that fails compiles nothing.

Every kind but the group, Lie and post-Lie ones carries a Hopf block (unit,
counit, mul, comul, antipode), and a relrb file carries two, under the
prefixes ``k.`` and ``h.``: ``_emit_hopf`` writes a block and
``_parse_hopf`` reads it, for every kind.
"""

from __future__ import annotations

from .compiled import IntTable, _scale
from .field import FieldSpec, RATIONALS, Scalar, format_scalar, parse_int, parse_scalar, FieldError
from .hopf import (
    ActionTensor,
    AlgebraData,
    BraidedPair,
    CoalgebraData,
    HopfData,
    StructureError,
)
from .linalg import Matrix, Vector, _vector
from .posthopf import PostLieData, YDPostHopf
from .braces import MatchedPair, YDBrace
from .rota import GroupRB, GroupTable, LieData, LieRB, RelRB

_KINDS = (
    "algebra", "hopf", "ydpost", "ydbrace", "matchedpair",
    "relrb", "grouprb", "lierb", "postlie",
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# --- emission ----------------------------------------------------------------


def _emit_vector(name: str, v: Vector, out: list[str]) -> None:
    for i, c in v.items_sorted():
        out.append(f"{name} {i} {format_scalar(c)}")


def _emit_matrix(name: str, m: Matrix, out: list[str]) -> None:
    entries = sorted((c_idx, r_idx, val) for (r_idx, c_idx), val in m.entries.items())
    for c_idx, r_idx, val in entries:
        out.append(f"{name} {c_idx} {r_idx} {format_scalar(val)}")


def _emit_mul(name: str, mul, out: list[str]) -> None:
    for i, row in enumerate(mul):
        for j, vec in enumerate(row):
            for k, c in vec.items_sorted():
                out.append(f"{name} {i} {j} {k} {format_scalar(c)}")


def _emit_dim_basis(prefix: str, dim: int, labels, out: list[str]) -> None:
    out.append(f"{prefix}dim {dim}")
    out.append((f"{prefix}basis " + " ".join(labels)).rstrip())


def _emit_params(params: dict[str, Scalar], out: list[str]) -> None:
    for name in sorted(params):
        out.append(f"param {name} {format_scalar(params[name])}")


def _emit_hopf(prefix: str, alg: AlgebraData, coalg: CoalgebraData,
               antipode: Matrix | None, out: list[str]) -> None:
    """The Hopf block: unit, counit, mul, comul, then the antipode if any."""
    _emit_vector(prefix + "unit", alg.unit, out)
    _emit_vector(prefix + "counit", coalg.counit, out)
    _emit_mul(prefix + "mul", alg.mul, out)
    for i, terms in enumerate(coalg.comul):
        for j, k, c in terms:
            out.append(f"{prefix}comul {i} {j} {k} {format_scalar(c)}")
    if antipode is not None:
        _emit_matrix(prefix + "antipode", antipode, out)


def kind_of(obj) -> str:
    if isinstance(obj, YDPostHopf):
        return "ydpost"
    if isinstance(obj, YDBrace):
        return "ydbrace"
    if isinstance(obj, MatchedPair):
        return "matchedpair"
    if isinstance(obj, RelRB):
        return "relrb"
    if isinstance(obj, GroupRB):
        return "grouprb"
    if isinstance(obj, LieRB):
        return "lierb"
    if isinstance(obj, PostLieData):
        return "postlie"
    if isinstance(obj, HopfData):
        return "hopf"
    if isinstance(obj, AlgebraData):
        return "algebra"
    raise StructureError(f"no serialization for {type(obj).__name__}")


def emit(obj) -> str:
    """Canonical text form of a structure; deterministic bytes."""
    kind = kind_of(obj)
    out = [f"kind {kind}"]
    if kind == "grouprb":
        g, h = obj.group_g, obj.group_h
        for name, table, group in (("gmul", g.mul, g), ("hmul", h.mul, h), ("phi", obj.phi, None)):
            if group is not None:
                out += [f"{name[0]}order {group.order}", f"{name[0]}elems " + " ".join(group.elements)]
            out += [f"{name} {i} {j} {k}" for i, row in enumerate(table) for j, k in enumerate(row)]
        out += [f"rmap {i} {k}" for i, k in enumerate(obj.r)]
        return "\n".join(out) + "\n"
    field = obj.lie_h.field if kind == "lierb" else obj.field
    out.append("field Q" if field.p is None else f"field Fp {field.p}")
    if kind == "algebra":
        _emit_dim_basis("", obj.dim, obj.basis_labels, out)
        _emit_vector("unit", obj.unit, out)
        _emit_mul("mul", obj.mul, out)
    elif kind == "hopf":
        _emit_dim_basis("", obj.dim, obj.algebra.basis_labels, out)
        _emit_hopf("", obj.algebra, obj.coalgebra, obj.antipode, out)
    elif kind in ("ydpost", "ydbrace"):
        side = obj.carrier if kind == "ydpost" else obj.dot_side
        _emit_dim_basis("", obj.dim, side.algebra.basis_labels, out)
        _emit_params(obj.params, out)
        _emit_hopf("", side.algebra, side.coalgebra, side.s_map, out)
        if kind == "ydpost":
            _emit_mul("action", obj.action.act, out)
            if obj.beta is not None:
                _emit_mul("beta", obj.beta.act, out)
        else:
            _emit_mul("bullet", obj.bullet_side.algebra.mul, out)
            _emit_matrix("antipode2", obj.bullet_side.antipode, out)
    elif kind == "matchedpair":
        _emit_dim_basis("", obj.dim, obj.hopf.algebra.basis_labels, out)
        _emit_params(obj.params, out)
        _emit_hopf("", obj.hopf.algebra, obj.hopf.coalgebra, obj.hopf.antipode, out)
        _emit_mul("action", obj.left_action.act, out)
        _emit_mul("raction", obj.right_action.act, out)
    elif kind == "relrb":
        _emit_params(obj.params, out)
        _emit_dim_basis("k.", obj.k_alg.dim, obj.k_alg.basis_labels, out)
        _emit_hopf("k.", obj.k_alg, obj.k_coalg, obj.k_antipode, out)
        _emit_dim_basis("h.", obj.h.dim, obj.h.algebra.basis_labels, out)
        _emit_hopf("h.", obj.h.algebra, obj.h.coalgebra, obj.h.antipode, out)
        _emit_mul("action", obj.action.act, out)
        if obj.coaction is not None:
            dk = obj.k_alg.dim
            for a, p, q, val in sorted((c, r // dk, r % dk, val) for (r, c), val in obj.coaction.entries.items()):
                out.append(f"coaction {a} {p} {q} {format_scalar(val)}")
        _emit_matrix("rmap", obj.r_map, out)
    elif kind == "lierb":
        for prefix, letter, lie in (("g.", "X", obj.lie_g), ("", "Y", obj.lie_h)):
            _emit_dim_basis(prefix, lie.dim, [f"{letter}{i}" for i in range(lie.dim)], out)
            _emit_mul(prefix + "bracket", lie.bracket, out)
        _emit_mul("phi", obj.phi.act, out)
        _emit_matrix("rmap", obj.r, out)
    else:
        _emit_dim_basis("", obj.dim, [f"p{i}" for i in range(obj.dim)], out)
        _emit_mul("bracket", obj.bracket, out)
        _emit_mul("action", obj.action, out)
    return "\n".join(out) + "\n"


# --- parsing -----------------------------------------------------------------


class _Lines:
    """Grouped directive lines with line numbers for diagnostics, the
    token memos of one parse (index token -> int, coefficient token -> its
    nonzero scalar) and the tables to compile when it ends.  They live as
    long as the parse, so a scalar of one file's field never reaches
    another file."""

    def __init__(self, text: str):
        self.groups: dict[str, list[tuple[int, list[str]]]] = {}
        self.ints: dict[str, int] = {}
        self.scalars: dict[str, Scalar] = {}
        self.pending: list = []
        for ln, line in enumerate(text.splitlines(), start=1):
            if "#" in line:
                line = line.split("#", 1)[0]
            parts = line.split()
            if parts:
                self.groups.setdefault(parts[0], []).append((ln, parts[1:]))

    def index(self, tok: str, ln: int, upper: int) -> int:
        """``_parse_int(tok, ln, upper)``, each distinct token converted
        once: a token read before is held to this position's bound again,
        and one that fails is not kept."""
        v = self.ints.get(tok, upper)
        if v < upper:
            return v
        v = self.ints[tok] = _parse_int(tok, ln, upper)
        return v

    def scalar(self, tok: str, field: FieldSpec, ln: int) -> Scalar:
        """``_parse_scalar_tok(tok, field, ln)``, each distinct token
        converted once; every coefficient of a file is in its one field."""
        c = self.scalars.get(tok)
        if c is None:
            c = self.scalars[tok] = _parse_scalar_tok(tok, field, ln)
        return c

    def defer(self, seed, obj, rows: list, coeffs: dict):
        """obj, which seed(obj, table) is to hand the table ``_compiled``
        makes of the cells rows and their coefficients coeffs
        (``_parse_cells``) once the whole file has parsed
        (``compile``): a file that fails to parse compiles nothing."""
        self.pending.append((seed, obj, rows, coeffs))
        return obj

    def compile(self) -> None:
        """Compile and hand over every table of ``defer``."""
        for seed, obj, rows, coeffs in self.pending:
            seed(obj, _compiled(rows, coeffs.values(), obj.field.p))

    def single(self, key: str, required: bool = True):
        rows = self.groups.get(key, [])
        if not rows:
            if required:
                raise ParseError(f"missing directive {key!r}")
            return None
        if len(rows) > 1:
            raise ParseError(f"duplicate directive {key!r}", rows[1][0])
        return rows[0]

    def rows(self, key: str):
        return self.groups.get(key, [])

    def known(self, allowed: set[str]):
        for key, rows in self.groups.items():
            if key not in allowed:
                raise ParseError(f"unknown directive {key!r}", rows[0][0])


def _parse_field(lines: _Lines) -> FieldSpec:
    got = lines.single("field", required=False)
    if got is None:
        return RATIONALS
    ln, args = got
    if args == ["Q"]:
        return RATIONALS
    if len(args) == 2 and args[0] == "Fp":
        try:
            return FieldSpec(parse_int(args[1]))
        except (ValueError, FieldError) as e:
            raise ParseError(str(e), ln)
    raise ParseError("field must be 'Q' or 'Fp <prime>'", ln)


def _parse_int(tok: str, ln: int, upper: int | None = None, what: str = "index") -> int:
    try:
        v = parse_int(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}", ln)
    if v < 0 or (upper is not None and v >= upper):
        raise ParseError(f"{what} {v} out of range", ln)
    return v


def _parse_scalar_tok(tok: str, field: FieldSpec, ln: int) -> Scalar:
    try:
        c = parse_scalar(tok, field)
    except FieldError as e:
        raise ParseError(str(e), ln)
    if not c:
        raise ParseError("zero coefficient is not canonical", ln)
    return c


def _parse_dim_basis(lines: _Lines, prefix: str = "") -> tuple[int, list[str]]:
    ln, args = lines.single(prefix + "dim")
    if len(args) != 1:
        raise ParseError("dim takes one argument", ln)
    dim = _parse_int(args[0], ln, what="dimension")
    got = lines.single(prefix + "basis", required=dim > 0)
    labels = got[1] if got else []
    if len(labels) != dim:
        raise ParseError(f"expected {dim} basis labels, got {len(labels)}",
                         got[0] if got else ln)
    return dim, labels


def _parse_vector(lines: _Lines, key: str, dim: int, field: FieldSpec) -> Vector:
    entries: dict[int, Scalar] = {}
    last = -1
    for ln, args in lines.rows(key):
        if len(args) != 2:
            raise ParseError(f"{key} takes index and coefficient", ln)
        i = lines.index(args[0], ln, dim)
        if i <= last:
            raise ParseError(f"{key} entries must be strictly sorted", ln)
        last = i
        entries[i] = lines.scalar(args[1], field, ln)
    return _vector(dim, entries, field)


def _parse_matrix(lines: _Lines, key: str, rows: int, cols: int,
                  field: FieldSpec) -> Matrix | None:
    got = lines.rows(key)
    if not got:
        return None
    entries: dict[tuple[int, int], Scalar] = {}
    last = (-1, -1)
    for ln, args in got:
        if len(args) != 3:
            raise ParseError(f"{key} takes two indices and a coefficient", ln)
        i = lines.index(args[0], ln, cols)
        j = lines.index(args[1], ln, rows)
        if (i, j) <= last:
            raise ParseError(f"{key} entries must be strictly sorted", ln)
        last = (i, j)
        entries[(j, i)] = lines.scalar(args[2], field, ln)
    return Matrix(rows, cols, entries, field)


def _parse_cells(lines: _Lines, key: str, d1: int, d2: int, d3: int,
                 field: FieldSpec, required: bool) -> tuple[list[list[dict[int, Scalar]]], dict[str, Scalar]]:
    """cells[i][j] = {k: c} over the ``key i j k c`` lines, each filled in
    ascending k, all empty when there are none and the entries are not
    required; and the table's distinct coefficient tokens with their
    scalars."""
    got = lines.rows(key)
    if required and not got:
        raise ParseError(f"missing {key} entries")
    rows: list[list[dict[int, Scalar]]] = [[{} for _ in range(d2)] for _ in range(d1)]
    index, scalar, memo = lines.index, lines.scalar, lines.ints.get
    coeffs: dict[str, Scalar] = {}  # the distinct coefficient tokens of this table
    last = (-1, -1, -1)
    for ln, args in got:
        if len(args) != 4:
            raise ParseError(f"{key} takes three indices and a coefficient", ln)
        ti, tj, tk, tok = args
        # each index as lines.index gives it, its memo read here first
        if (i := memo(ti, d1)) >= d1:
            i = index(ti, ln, d1)
        if (j := memo(tj, d2)) >= d2:
            j = index(tj, ln, d2)
        if (k := memo(tk, d3)) >= d3:
            k = index(tk, ln, d3)
        if (i, j, k) <= last:
            raise ParseError(f"{key} triples must be strictly sorted", ln)
        last = (i, j, k)
        c = coeffs.get(tok)
        if c is None:
            c = coeffs[tok] = scalar(tok, field, ln)
        rows[i][j][k] = c
    return rows, coeffs


def _vectors(rows: list, dim: int, field: FieldSpec) -> list[list[Vector]]:
    """The Vectors of dim over the cells of ``_parse_cells``; each takes
    its cell over."""
    return [[_vector(dim, cell, field) for cell in row] for row in rows]


def _parse_trilinear(lines: _Lines, key: str, d1: int, d2: int, d3: int,
                     field: FieldSpec, required: bool = True) -> list[list[Vector]]:
    """rows[i][j] = sum of c e_k over the ``key i j k c`` lines; the zero
    table when there are none and the entries are not required."""
    rows, _ = _parse_cells(lines, key, d1, d2, d3, field, required)
    return _vectors(rows, d3, field)


def _compiled(rows: list, coeffs, p: int | None) -> IntTable:
    """The table ``compiled.compile_tensor`` makes of the Vectors over the
    cells rows[i][j] = {k: c}, each filled in ascending k, whose distinct
    coefficients are coeffs: over Q the scale is their least common
    denominator, read from coeffs alone, and over F_p it is 1 with each
    entry its residue."""
    if p is not None:
        return IntTable([[tuple([(k, c.value) for k, c in cell.items()]) if cell else () for cell in row]
                         for row in rows], 1)
    d = _scale(coeffs, None)
    if d == 1:
        return IntTable([[tuple(cell.items()) for cell in row] for row in rows], 1)
    return IntTable([[tuple([(k, c * d if c.__class__ is int else c._numerator * (d // c._denominator))
                             for k, c in cell.items()]) if cell else () for cell in row] for row in rows], d)


def _algebra(lines: _Lines, key: str, dim: int, labels: list[str], unit_key: str, field: FieldSpec) -> AlgebraData:
    """The algebra of the ``key`` lines and the ``unit_key`` vector, to be
    seeded with its compiled product (``_Lines.defer``)."""
    rows, coeffs = _parse_cells(lines, key, dim, dim, dim, field, True)
    alg = AlgebraData(dim, labels, _vectors(rows, dim, field), _parse_vector(lines, unit_key, dim, field), field)
    return lines.defer(AlgebraData.int_mul.seed, alg, rows, coeffs)


def _action(lines: _Lines, key: str, d1: int, d2: int, field: FieldSpec, required: bool = True) -> ActionTensor:
    """The action e_i >- f_j (i < d1, j < d2) of the ``key`` lines, to be
    seeded with its compiled table (``_Lines.defer``)."""
    rows, coeffs = _parse_cells(lines, key, d1, d2, d2, field, required)
    return lines.defer(ActionTensor.int_act.seed, ActionTensor(d1, d2, _vectors(rows, d2, field), field), rows, coeffs)


def _parse_params(lines: _Lines, field: FieldSpec) -> dict[str, Scalar]:
    params: dict[str, Scalar] = {}
    for ln, args in lines.rows("param"):
        if len(args) != 2:
            raise ParseError("param takes a name and a value", ln)
        if args[0] in params:
            raise ParseError(f"duplicate parameter {args[0]!r}", ln)
        try:
            params[args[0]] = parse_scalar(args[1], field)
        except FieldError as e:
            raise ParseError(str(e), ln)
    return params


def _parse_hopf(lines: _Lines, prefix: str, dim: int, labels: list[str],
                field: FieldSpec) -> tuple[AlgebraData, CoalgebraData, Matrix | None]:
    """The Hopf block under ``prefix``, read as mul, unit, comul, counit,
    antipode: its algebra, its coalgebra, and its antipode, None when the
    file has no antipode lines."""
    alg = _algebra(lines, prefix + "mul", dim, labels, prefix + "unit", field)
    rows, coeffs = _parse_cells(lines, prefix + "comul", dim, dim, dim, field, True)
    comul = [[(j, k, c) for j, cell in enumerate(row) for k, c in cell.items()] for row in rows]
    coalg = CoalgebraData(dim, comul, _parse_vector(lines, prefix + "counit", dim, field), field)
    lines.defer(_seed_comul, coalg, rows, coeffs)
    return alg, coalg, _parse_matrix(lines, prefix + "antipode", dim, dim, field)


def _seed_comul(coalg: CoalgebraData, table: IntTable) -> None:
    """Seed coalg's ``int_comul`` with the compiled table rows[i][j] = the
    (k, n) of Delta(e_i) at e_j (x) e_k, as its (j, k, n) terms."""
    CoalgebraData.int_comul.seed(coalg, IntTable([tuple([(j, k, n) for j, cell in enumerate(row) for k, n in cell])
                                                  for row in table.rows], table.scale))


_HOPF_KEYS = ("dim", "basis", "unit", "counit", "mul", "comul", "antipode")
_COMMON = {"kind", "field", "param", *_HOPF_KEYS}
# the directives of each kind with one Hopf block, beyond _COMMON, and the
# error for a file of that kind without antipode lines
_EXTRA = {"hopf": (), "ydpost": ("action", "beta"), "ydbrace": ("bullet", "antipode2"),
          "matchedpair": ("action", "raction")}
_NO_ANTIPODE = {"hopf": "hopf structures need antipode entries",
                "ydpost": "ydpost structures need antipode entries",
                "matchedpair": "matched pairs need antipode entries"}


def parse(text: str):
    """Parse a structure file; returns the typed structure object, with the
    tables read from the file compiled into their containers' caches
    (``_Lines.defer``)."""
    lines = _Lines(text)
    out = _parse(lines)
    lines.compile()
    return out


def _parse(lines: _Lines):
    """The structure of a file's lines, its tables not yet compiled."""
    ln, args = lines.single("kind")
    if len(args) != 1 or args[0] not in _KINDS:
        raise ParseError(f"kind must be one of {', '.join(_KINDS)}", ln)
    kind = args[0]
    if kind == "grouprb":
        return _parse_grouprb(lines)
    field = _parse_field(lines)
    if kind == "algebra":
        lines.known({"kind", "field", "dim", "basis", "param", "unit", "mul"})
        dim, labels = _parse_dim_basis(lines)
        return _algebra(lines, "mul", dim, labels, "unit", field)
    if kind in _EXTRA:
        lines.known(_COMMON | set(_EXTRA[kind]))
        dim, labels = _parse_dim_basis(lines)
        alg, coalg, anti = _parse_hopf(lines, "", dim, labels, field)
        if anti is None and kind in _NO_ANTIPODE:
            raise ParseError(_NO_ANTIPODE[kind])

        if kind == "hopf":
            return HopfData(alg, coalg, anti)
        if kind == "ydpost":
            action = _action(lines, "action", dim, dim, field)
            beta = _action(lines, "beta", dim, dim, field) if lines.rows("beta") else None
            return YDPostHopf(BraidedPair(alg, coalg, anti), action, beta,
                              params=_parse_params(lines, field))
        if kind == "ydbrace":
            rows, coeffs = _parse_cells(lines, "bullet", dim, dim, dim, field, True)
            t_map = _parse_matrix(lines, "antipode2", dim, dim, field)
            if anti is None or t_map is None:
                raise ParseError("ydbrace structures need both antipodes")
            bullet = lines.defer(AlgebraData.int_mul.seed,
                                AlgebraData(dim, labels, _vectors(rows, dim, field), alg.unit, field), rows, coeffs)
            return YDBrace(
                BraidedPair(alg, coalg, anti),
                HopfData(bullet, coalg, t_map),
                params=_parse_params(lines, field),
            )
        left, right = _action(lines, "action", dim, dim, field), _action(lines, "raction", dim, dim, field)
        return MatchedPair(HopfData(alg, coalg, anti), left, right, params=_parse_params(lines, field))
    if kind == "relrb":
        lines.known({"kind", "field", "param", "action", "coaction", "rmap",
                     *(prefix + key for prefix in ("k.", "h.") for key in _HOPF_KEYS)})
        dk, klabels = _parse_dim_basis(lines, "k.")
        dh, hlabels = _parse_dim_basis(lines, "h.")
        kalg, kco, kanti = _parse_hopf(lines, "k.", dk, klabels, field)
        halg, hco, hanti = _parse_hopf(lines, "h.", dh, hlabels, field)
        if hanti is None:
            raise ParseError("relrb needs h.antipode entries")
        act = _action(lines, "action", dh, dk, field)
        rmap = _parse_matrix(lines, "rmap", dh, dk, field)
        if rmap is None:
            raise ParseError("relrb needs rmap entries")
        coaction = None
        if lines.rows("coaction"):
            rows = _parse_trilinear(lines, "coaction", dk, dh, dk, field)
            coaction = Matrix(dh * dk, dk, {(p * dk + q, a): c for a, row in enumerate(rows)
                                            for p, v in enumerate(row) for q, c in v.items_sorted()}, field)
        return RelRB(HopfData(halg, hco, hanti), kalg, kco, kanti,
                     act, coaction, rmap,
                     params=_parse_params(lines, field))
    if kind == "lierb":
        lines.known({"kind", "field", "g.dim", "g.basis", "g.bracket",
                     "dim", "basis", "bracket", "phi", "rmap"})
        dg, _ = _parse_dim_basis(lines, "g.")
        dh, _ = _parse_dim_basis(lines)
        g_br = _parse_trilinear(lines, "g.bracket", dg, dg, dg, field, required=False)
        h_br = _parse_trilinear(lines, "bracket", dh, dh, dh, field, required=False)
        phi = _action(lines, "phi", dg, dh, field, required=False)
        rmap = _parse_matrix(lines, "rmap", dg, dh, field) or Matrix(dg, dh, {}, field)
        return LieRB(LieData(dg, g_br, field), LieData(dh, h_br, field), phi, rmap)
    lines.known({"kind", "field", "dim", "basis", "bracket", "action"})
    dim, _ = _parse_dim_basis(lines)
    return PostLieData(dim, _parse_trilinear(lines, "bracket", dim, dim, dim, field, required=False),
                       _parse_trilinear(lines, "action", dim, dim, dim, field, required=False), field)


def _parse_index_table(lines: _Lines, key: str, rows: int, cols: int, values: int,
                       takes: str, duplicate: str) -> list[list[int]]:
    """table[i][j] = k from the ``key i j k`` lines, each (i, j) exactly once."""
    table = [[-1] * cols for _ in range(rows)]
    for ln, args in lines.rows(key):
        if len(args) != 3:
            raise ParseError(takes, ln)
        i = lines.index(args[0], ln, rows)
        j = lines.index(args[1], ln, cols)
        k = lines.index(args[2], ln, values)
        if table[i][j] != -1:
            raise ParseError(duplicate, ln)
        table[i][j] = k
    if any(v == -1 for row in table for v in row):
        raise ParseError(f"incomplete {key} table")
    return table


def _parse_grouprb(lines: _Lines) -> GroupRB:
    lines.known({"kind", "gorder", "gelems", "gmul",
                 "horder", "helems", "hmul", "phi", "rmap"})

    def group(prefix: str) -> GroupTable:
        ln, args = lines.single(prefix + "order")
        if len(args) != 1:
            raise ParseError(f"{prefix}order takes one argument", ln)
        n = _parse_int(args[0], ln, what="order")
        got = lines.single(prefix + "elems")
        if len(got[1]) != n:
            raise ParseError(f"expected {n} labels", got[0])
        return GroupTable(got[1], _parse_index_table(
            lines, prefix + "mul", n, n, n,
            "group products take three indices", "duplicate group product entry"))

    g = group("g")
    h = group("h")
    phi = _parse_index_table(lines, "phi", g.order, h.order, h.order,
                             "phi takes three indices", "duplicate phi entry")
    r = [-1] * h.order
    for ln, args in lines.rows("rmap"):
        if len(args) != 2:
            raise ParseError("rmap takes two indices", ln)
        i = lines.index(args[0], ln, h.order)
        k = lines.index(args[1], ln, g.order)
        if r[i] != -1:
            raise ParseError("duplicate rmap entry", ln)
        r[i] = k
    if any(v == -1 for v in r):
        raise ParseError("incomplete rmap")
    return GroupRB(g, h, phi, r)
