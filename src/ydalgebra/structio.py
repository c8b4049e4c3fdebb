"""Line-oriented text format for structure-constant files.

One fact per line: header lines (kind, field, dim, basis, param) followed
by coefficient lines, e.g. ``mul i j k c`` meaning e_i * e_j contains
c * e_k.  Coefficients use the exact scalar format (-a/b, b omitted when
1); zeros are never written and are rejected on input, triples must be
strictly sorted and unique, so emission is canonical and parse o emit is
the identity on parsed data.
"""

from __future__ import annotations

from .field import FieldSpec, RATIONALS, Scalar, format_scalar, parse_scalar, FieldError
from .hopf import (
    ActionTensor,
    AlgebraData,
    BraidedPair,
    CoalgebraData,
    HopfData,
    StructureError,
)
from .linalg import Matrix, Vector
from .posthopf import PostLieData, YDPostHopf
from .braces import MatchedPair, YDBrace
from .rota import GroupRB, GroupTable, LieData, LieRB, RelRB

KINDS = (
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


def _emit_comul(name: str, comul, out: list[str]) -> None:
    for i, terms in enumerate(comul):
        for j, k, c in terms:
            out.append(f"{name} {i} {j} {k} {format_scalar(c)}")


def _emit_field(field: FieldSpec, out: list[str]) -> None:
    out.append("field Q" if field.p is None else f"field Fp {field.p}")


def _emit_header(kind: str, field: FieldSpec, dim: int, labels, out: list[str],
                 prefix: str = "") -> None:
    if not prefix:
        out.append(f"kind {kind}")
        _emit_field(field, out)
    out.append(f"{prefix}dim {dim}")
    out.append((f"{prefix}basis " + " ".join(labels)).rstrip())


def _emit_params(params: dict[str, Scalar], out: list[str]) -> None:
    for name in sorted(params):
        out.append(f"param {name} {format_scalar(params[name])}")


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
    out: list[str] = []
    if kind == "algebra":
        _emit_header(kind, obj.field, obj.dim, obj.basis_labels, out)
        _emit_vector("unit", obj.unit, out)
        _emit_mul("mul", obj.mul, out)
    elif kind == "hopf":
        _emit_header(kind, obj.field, obj.dim, obj.algebra.basis_labels, out)
        _emit_vector("unit", obj.algebra.unit, out)
        _emit_vector("counit", obj.coalgebra.counit, out)
        _emit_mul("mul", obj.algebra.mul, out)
        _emit_comul("comul", obj.coalgebra.comul, out)
        _emit_matrix("antipode", obj.antipode, out)
    elif kind == "ydpost":
        _emit_header(kind, obj.field, obj.dim, obj.carrier.algebra.basis_labels, out)
        _emit_params(obj.params, out)
        _emit_vector("unit", obj.carrier.algebra.unit, out)
        _emit_vector("counit", obj.carrier.coalgebra.counit, out)
        _emit_mul("mul", obj.carrier.algebra.mul, out)
        _emit_comul("comul", obj.carrier.coalgebra.comul, out)
        _emit_matrix("antipode", obj.carrier.s_map, out)
        _emit_mul("action", obj.action.act, out)
        if obj.beta is not None:
            _emit_mul("beta", obj.beta.act, out)
    elif kind == "ydbrace":
        _emit_header(kind, obj.field, obj.dim, obj.dot_side.algebra.basis_labels, out)
        _emit_params(obj.params, out)
        _emit_vector("unit", obj.dot_side.algebra.unit, out)
        _emit_vector("counit", obj.dot_side.coalgebra.counit, out)
        _emit_mul("mul", obj.dot_side.algebra.mul, out)
        _emit_comul("comul", obj.dot_side.coalgebra.comul, out)
        _emit_matrix("antipode", obj.dot_side.s_map, out)
        _emit_mul("bullet", obj.bullet_side.algebra.mul, out)
        _emit_matrix("antipode2", obj.bullet_side.antipode, out)
    elif kind == "matchedpair":
        _emit_header(kind, obj.field, obj.dim, obj.hopf.algebra.basis_labels, out)
        _emit_params(obj.params, out)
        _emit_vector("unit", obj.hopf.algebra.unit, out)
        _emit_vector("counit", obj.hopf.coalgebra.counit, out)
        _emit_mul("mul", obj.hopf.algebra.mul, out)
        _emit_comul("comul", obj.hopf.coalgebra.comul, out)
        _emit_matrix("antipode", obj.hopf.antipode, out)
        _emit_mul("action", obj.left_action.act, out)
        _emit_mul("raction", obj.right_action.act, out)
    elif kind == "relrb":
        out.append("kind relrb")
        _emit_field(obj.field, out)
        _emit_params(obj.params, out)
        _emit_header("", obj.field, obj.k_alg.dim, obj.k_alg.basis_labels, out, prefix="k.")
        _emit_vector("k.unit", obj.k_alg.unit, out)
        _emit_vector("k.counit", obj.k_coalg.counit, out)
        _emit_mul("k.mul", obj.k_alg.mul, out)
        _emit_comul("k.comul", obj.k_coalg.comul, out)
        if obj.k_antipode is not None:
            _emit_matrix("k.antipode", obj.k_antipode, out)
        _emit_header("", obj.field, obj.h.dim, obj.h.algebra.basis_labels, out, prefix="h.")
        _emit_vector("h.unit", obj.h.algebra.unit, out)
        _emit_vector("h.counit", obj.h.coalgebra.counit, out)
        _emit_mul("h.mul", obj.h.algebra.mul, out)
        _emit_comul("h.comul", obj.h.coalgebra.comul, out)
        _emit_matrix("h.antipode", obj.h.antipode, out)
        _emit_mul("action", obj.action.act, out)
        if obj.coaction is not None:
            dk = obj.k_alg.dim
            entries = sorted(
                (c_idx, r_idx // dk, r_idx % dk, val)
                for (r_idx, c_idx), val in obj.coaction.entries.items()
            )
            for a, p, q, val in entries:
                out.append(f"coaction {a} {p} {q} {format_scalar(val)}")
        _emit_matrix("rmap", obj.r_map, out)
    elif kind == "grouprb":
        out.append("kind grouprb")
        out.append(f"gorder {obj.group_g.order}")
        out.append("gelems " + " ".join(obj.group_g.elements))
        for i, row in enumerate(obj.group_g.mul):
            for j, k in enumerate(row):
                out.append(f"gmul {i} {j} {k}")
        out.append(f"horder {obj.group_h.order}")
        out.append("helems " + " ".join(obj.group_h.elements))
        for i, row in enumerate(obj.group_h.mul):
            for j, k in enumerate(row):
                out.append(f"hmul {i} {j} {k}")
        for i, row in enumerate(obj.phi):
            for j, k in enumerate(row):
                out.append(f"phi {i} {j} {k}")
        for i, k in enumerate(obj.r):
            out.append(f"rmap {i} {k}")
    elif kind == "lierb":
        out.append("kind lierb")
        _emit_field(obj.lie_h.field, out)
        out.append(f"g.dim {obj.lie_g.dim}")
        out.append(("g.basis " + " ".join(f"X{i}" for i in range(obj.lie_g.dim))).rstrip())
        _emit_mul("g.bracket", obj.lie_g.bracket, out)
        out.append(f"dim {obj.lie_h.dim}")
        out.append(("basis " + " ".join(f"Y{i}" for i in range(obj.lie_h.dim))).rstrip())
        _emit_mul("bracket", obj.lie_h.bracket, out)
        _emit_mul("phi", obj.phi.act, out)
        _emit_matrix("rmap", obj.r, out)
    elif kind == "postlie":
        _emit_header(kind, obj.field, obj.dim,
                     [f"p{i}" for i in range(obj.dim)], out)
        _emit_mul("bracket", obj.bracket, out)
        _emit_mul("action", obj.action, out)
    else:  # pragma: no cover
        raise StructureError(kind)
    return "\n".join(out) + "\n"


# --- parsing -----------------------------------------------------------------


class _Lines:
    """Grouped directive lines with line numbers for diagnostics."""

    def __init__(self, text: str):
        self.groups: dict[str, list[tuple[int, list[str]]]] = {}
        self.order: list[str] = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            key = parts[0]
            self.groups.setdefault(key, []).append((ln, parts[1:]))
            self.order.append(key)

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
            return FieldSpec(int(args[1]))
        except (ValueError, FieldError) as e:
            raise ParseError(str(e), ln)
    raise ParseError("field must be 'Q' or 'Fp <prime>'", ln)


def _parse_int(tok: str, ln: int, upper: int | None = None, what: str = "index") -> int:
    try:
        v = int(tok)
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
        i = _parse_int(args[0], ln, dim)
        if i <= last:
            raise ParseError(f"{key} entries must be strictly sorted", ln)
        last = i
        entries[i] = _parse_scalar_tok(args[1], field, ln)
    return Vector(dim, entries, field)


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
        i = _parse_int(args[0], ln, cols)
        j = _parse_int(args[1], ln, rows)
        if (i, j) <= last:
            raise ParseError(f"{key} entries must be strictly sorted", ln)
        last = (i, j)
        entries[(j, i)] = _parse_scalar_tok(args[2], field, ln)
    return Matrix(rows, cols, entries, field)


def _parse_trilinear(lines: _Lines, key: str, d1: int, d2: int, d3: int,
                     field: FieldSpec, required: bool = False):
    got = lines.rows(key)
    if not got:
        if required:
            raise ParseError(f"missing {key} entries")
        return None
    rows: list[list[dict[int, Scalar]]] = [
        [dict() for _ in range(d2)] for _ in range(d1)
    ]
    last = (-1, -1, -1)
    for ln, args in got:
        if len(args) != 4:
            raise ParseError(f"{key} takes three indices and a coefficient", ln)
        i = _parse_int(args[0], ln, d1)
        j = _parse_int(args[1], ln, d2)
        k = _parse_int(args[2], ln, d3)
        if (i, j, k) <= last:
            raise ParseError(f"{key} triples must be strictly sorted", ln)
        last = (i, j, k)
        rows[i][j][k] = _parse_scalar_tok(args[3], field, ln)
    return [[Vector(d3, cell, field) for cell in row] for row in rows]


def _parse_comul(lines: _Lines, key: str, dim: int, field: FieldSpec):
    tri = _parse_trilinear(lines, key, dim, dim, dim, field)
    if tri is None:
        raise ParseError(f"missing {key} entries")
    comul = []
    for i in range(dim):
        terms = []
        for j in range(dim):
            for k, c in tri[i][j].items_sorted():
                terms.append((j, k, c))
        comul.append(terms)
    return comul


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


_COMMON = {"kind", "field", "dim", "basis", "param", "unit", "counit",
           "mul", "comul", "antipode"}


def parse(text: str):
    """Parse a structure file; returns the typed structure object."""
    lines = _Lines(text)
    got = lines.single("kind")
    ln, args = got
    if len(args) != 1 or args[0] not in KINDS:
        raise ParseError(f"kind must be one of {', '.join(KINDS)}", ln)
    kind = args[0]
    if kind == "grouprb":
        return _parse_grouprb(lines)
    field = _parse_field(lines)
    if kind == "algebra":
        lines.known({"kind", "field", "dim", "basis", "param", "unit", "mul"})
        dim, labels = _parse_dim_basis(lines)
        mul = _parse_trilinear(lines, "mul", dim, dim, dim, field, required=True)
        unit = _parse_vector(lines, "unit", dim, field)
        return AlgebraData(dim, labels, mul, unit, field)
    if kind == "hopf":
        lines.known(_COMMON)
        dim, labels = _parse_dim_basis(lines)
        alg = AlgebraData(dim, labels,
                          _parse_trilinear(lines, "mul", dim, dim, dim, field, required=True),
                          _parse_vector(lines, "unit", dim, field), field)
        coalg = CoalgebraData(dim, _parse_comul(lines, "comul", dim, field),
                              _parse_vector(lines, "counit", dim, field), field)
        anti = _parse_matrix(lines, "antipode", dim, dim, field)
        if anti is None:
            raise ParseError("hopf structures need antipode entries")
        return HopfData(alg, coalg, anti)
    if kind == "ydpost":
        lines.known(_COMMON | {"action", "beta"})
        dim, labels = _parse_dim_basis(lines)
        alg = AlgebraData(dim, labels,
                          _parse_trilinear(lines, "mul", dim, dim, dim, field, required=True),
                          _parse_vector(lines, "unit", dim, field), field)
        coalg = CoalgebraData(dim, _parse_comul(lines, "comul", dim, field),
                              _parse_vector(lines, "counit", dim, field), field)
        anti = _parse_matrix(lines, "antipode", dim, dim, field)
        if anti is None:
            raise ParseError("ydpost structures need antipode entries")
        act = _parse_trilinear(lines, "action", dim, dim, dim, field, required=True)
        beta = _parse_trilinear(lines, "beta", dim, dim, dim, field)
        return YDPostHopf(
            BraidedPair(alg, coalg, anti),
            ActionTensor(dim, dim, act, field),
            None if beta is None else ActionTensor(dim, dim, beta, field),
            params=_parse_params(lines, field),
        )
    if kind == "ydbrace":
        lines.known(_COMMON | {"bullet", "antipode2"})
        dim, labels = _parse_dim_basis(lines)
        alg = AlgebraData(dim, labels,
                          _parse_trilinear(lines, "mul", dim, dim, dim, field, required=True),
                          _parse_vector(lines, "unit", dim, field), field)
        coalg = CoalgebraData(dim, _parse_comul(lines, "comul", dim, field),
                              _parse_vector(lines, "counit", dim, field), field)
        s_map = _parse_matrix(lines, "antipode", dim, dim, field)
        bullet = _parse_trilinear(lines, "bullet", dim, dim, dim, field, required=True)
        t_map = _parse_matrix(lines, "antipode2", dim, dim, field)
        if s_map is None or t_map is None:
            raise ParseError("ydbrace structures need both antipodes")
        return YDBrace(
            BraidedPair(alg, coalg, s_map),
            HopfData(AlgebraData(dim, labels, bullet, alg.unit, field), coalg, t_map),
            params=_parse_params(lines, field),
        )
    if kind == "matchedpair":
        lines.known(_COMMON | {"action", "raction"})
        dim, labels = _parse_dim_basis(lines)
        alg = AlgebraData(dim, labels,
                          _parse_trilinear(lines, "mul", dim, dim, dim, field, required=True),
                          _parse_vector(lines, "unit", dim, field), field)
        coalg = CoalgebraData(dim, _parse_comul(lines, "comul", dim, field),
                              _parse_vector(lines, "counit", dim, field), field)
        t_map = _parse_matrix(lines, "antipode", dim, dim, field)
        if t_map is None:
            raise ParseError("matched pairs need antipode entries")
        left = _parse_trilinear(lines, "action", dim, dim, dim, field, required=True)
        right = _parse_trilinear(lines, "raction", dim, dim, dim, field, required=True)
        return MatchedPair(
            HopfData(alg, coalg, t_map),
            ActionTensor(dim, dim, left, field),
            ActionTensor(dim, dim, right, field),
            params=_parse_params(lines, field),
        )
    if kind == "relrb":
        lines.known({
            "kind", "field", "param",
            "k.dim", "k.basis", "k.unit", "k.counit", "k.mul", "k.comul", "k.antipode",
            "h.dim", "h.basis", "h.unit", "h.counit", "h.mul", "h.comul", "h.antipode",
            "action", "coaction", "rmap",
        })
        dk, klabels = _parse_dim_basis(lines, "k.")
        dh, hlabels = _parse_dim_basis(lines, "h.")
        kalg = AlgebraData(dk, klabels,
                           _parse_trilinear(lines, "k.mul", dk, dk, dk, field, required=True),
                           _parse_vector(lines, "k.unit", dk, field), field)
        kco = CoalgebraData(dk, _parse_comul(lines, "k.comul", dk, field),
                            _parse_vector(lines, "k.counit", dk, field), field)
        kanti = _parse_matrix(lines, "k.antipode", dk, dk, field)
        halg = AlgebraData(dh, hlabels,
                           _parse_trilinear(lines, "h.mul", dh, dh, dh, field, required=True),
                           _parse_vector(lines, "h.unit", dh, field), field)
        hco = CoalgebraData(dh, _parse_comul(lines, "h.comul", dh, field),
                            _parse_vector(lines, "h.counit", dh, field), field)
        hanti = _parse_matrix(lines, "h.antipode", dh, dh, field)
        if hanti is None:
            raise ParseError("relrb needs h.antipode entries")
        act = _parse_trilinear(lines, "action", dh, dk, dk, field, required=True)
        rmap = _parse_matrix(lines, "rmap", dh, dk, field)
        if rmap is None:
            raise ParseError("relrb needs rmap entries")
        coaction = None
        rows = lines.rows("coaction")
        if rows:
            entries: dict[tuple[int, int], Scalar] = {}
            last = (-1, -1, -1)
            for ln2, args2 in rows:
                if len(args2) != 4:
                    raise ParseError("coaction takes three indices and a coefficient", ln2)
                a = _parse_int(args2[0], ln2, dk)
                p = _parse_int(args2[1], ln2, dh)
                q = _parse_int(args2[2], ln2, dk)
                if (a, p, q) <= last:
                    raise ParseError("coaction triples must be strictly sorted", ln2)
                last = (a, p, q)
                entries[(p * dk + q, a)] = _parse_scalar_tok(args2[3], field, ln2)
            coaction = Matrix(dh * dk, dk, entries, field)
        return RelRB(HopfData(halg, hco, hanti), kalg, kco, kanti,
                     ActionTensor(dh, dk, act, field), coaction, rmap,
                     params=_parse_params(lines, field))
    if kind == "lierb":
        lines.known({"kind", "field", "g.dim", "g.basis", "g.bracket",
                     "dim", "basis", "bracket", "phi", "rmap"})
        dg, _ = _parse_dim_basis(lines, "g.")
        dh, _ = _parse_dim_basis(lines)
        g_br = _parse_trilinear(lines, "g.bracket", dg, dg, dg, field) or [
            [Vector(dg, {}, field) for _ in range(dg)] for _ in range(dg)
        ]
        h_br = _parse_trilinear(lines, "bracket", dh, dh, dh, field) or [
            [Vector(dh, {}, field) for _ in range(dh)] for _ in range(dh)
        ]
        phi = _parse_trilinear(lines, "phi", dg, dh, dh, field) or [
            [Vector(dh, {}, field) for _ in range(dh)] for _ in range(dg)
        ]
        rmap = _parse_matrix(lines, "rmap", dg, dh, field)
        if rmap is None:
            rmap = Matrix(dg, dh, {}, field)
        return LieRB(LieData(dg, g_br, field), LieData(dh, h_br, field),
                     ActionTensor(dg, dh, phi, field), rmap)
    if kind == "postlie":
        lines.known({"kind", "field", "dim", "basis", "bracket", "action"})
        dim, _ = _parse_dim_basis(lines)
        zero_rows = [[Vector(dim, {}, field) for _ in range(dim)] for _ in range(dim)]
        br = _parse_trilinear(lines, "bracket", dim, dim, dim, field) or zero_rows
        act = _parse_trilinear(lines, "action", dim, dim, dim, field) or [
            [Vector(dim, {}, field) for _ in range(dim)] for _ in range(dim)
        ]
        return PostLieData(dim, br, act, field)
    raise ParseError(f"unhandled kind {kind}")  # pragma: no cover


def _parse_grouprb(lines: _Lines) -> GroupRB:
    lines.known({"kind", "gorder", "gelems", "gmul",
                 "horder", "helems", "hmul", "phi", "rmap"})

    def table(prefix: str) -> GroupTable:
        ln, args = lines.single(prefix + "order")
        if len(args) != 1:
            raise ParseError(f"{prefix}order takes one argument", ln)
        n = _parse_int(args[0], ln, what="order")
        got = lines.single(prefix + "elems")
        labels = got[1]
        if len(labels) != n:
            raise ParseError(f"expected {n} labels", got[0])
        mul = [[-1] * n for _ in range(n)]
        for ln2, args2 in lines.rows(prefix + "mul"):
            if len(args2) != 3:
                raise ParseError("group products take three indices", ln2)
            i = _parse_int(args2[0], ln2, n)
            j = _parse_int(args2[1], ln2, n)
            k = _parse_int(args2[2], ln2, n)
            if mul[i][j] != -1:
                raise ParseError("duplicate group product entry", ln2)
            mul[i][j] = k
        if any(v == -1 for row in mul for v in row):
            raise ParseError(f"incomplete {prefix}mul table")
        return GroupTable(labels, mul)

    g = table("g")
    h = table("h")
    phi = [[-1] * h.order for _ in range(g.order)]
    for ln2, args2 in lines.rows("phi"):
        if len(args2) != 3:
            raise ParseError("phi takes three indices", ln2)
        i = _parse_int(args2[0], ln2, g.order)
        j = _parse_int(args2[1], ln2, h.order)
        k = _parse_int(args2[2], ln2, h.order)
        if phi[i][j] != -1:
            raise ParseError("duplicate phi entry", ln2)
        phi[i][j] = k
    if any(v == -1 for row in phi for v in row):
        raise ParseError("incomplete phi table")
    r = [-1] * h.order
    for ln2, args2 in lines.rows("rmap"):
        if len(args2) != 2:
            raise ParseError("rmap takes two indices", ln2)
        i = _parse_int(args2[0], ln2, h.order)
        k = _parse_int(args2[1], ln2, g.order)
        if r[i] != -1:
            raise ParseError("duplicate rmap entry", ln2)
        r[i] = k
    if any(v == -1 for v in r):
        raise ParseError("incomplete rmap")
    return GroupRB(g, h, phi, r)
