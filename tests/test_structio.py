"""Serialization: canonical emission, round trips, diagnostics."""

import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import matched_pair_equal, posthopf_equal
from ydalgebra.braces import functor_f, to_matched_pair
from ydalgebra.builders import (
    build_en,
    build_sweedler,
    build_trivial,
    cyclic_group,
    group_algebra,
    group_rb_inversion,
    sweedler_hopf,
    symmetric_group_3,
)
from ydalgebra.field import RATIONALS, FieldSpec, parse_int
from ydalgebra.hopf import ActionTensor
from ydalgebra.linalg import Matrix, Vector
from ydalgebra.posthopf import extract_post_lie
from ydalgebra.rota import RelRB, functor_l, restrict_to_primitives
from ydalgebra.structio import ParseError, _Lines, _parse_trilinear, emit, kind_of, parse

GOLDEN = Path(__file__).parent / "golden"


def roundtrip(obj):
    text = emit(obj)
    back = parse(text)
    assert emit(back) == text
    return back


def test_ydpost_roundtrip():
    s = build_sweedler(1)
    back = roundtrip(s)
    assert kind_of(back) == "ydpost"
    assert posthopf_equal(back, s)
    assert back.params == s.params


def test_ydpost_roundtrip_prime_field():
    s = build_sweedler(2, FieldSpec(5))
    back = roundtrip(s)
    assert posthopf_equal(back, s)


def test_hopf_roundtrip():
    h = sweedler_hopf()
    back = roundtrip(h)
    assert back.algebra.mul == h.algebra.mul
    assert back.antipode == h.antipode


def test_brace_and_matchedpair_roundtrip():
    s = build_sweedler(1)
    b = functor_f(s)
    back = roundtrip(b)
    assert back.bullet_side.algebra.mul == b.bullet_side.algebra.mul
    mp = to_matched_pair(s)
    back = roundtrip(mp)
    assert matched_pair_equal(back, mp)


def test_relrb_roundtrip():
    r = functor_l(build_sweedler(1))
    back = roundtrip(r)
    assert back.r_map == r.r_map
    assert back.coaction == r.coaction
    assert back.action.act == r.action.act


def test_grouprb_roundtrip():
    grb = group_rb_inversion(symmetric_group_3())
    back = roundtrip(grb)
    assert back.phi == grb.phi and back.r == grb.r
    assert back.group_g.mul == grb.group_g.mul


def test_lierb_roundtrip_zero_dim():
    lrb = restrict_to_primitives(functor_l(build_sweedler(1)))
    back = roundtrip(lrb)
    assert back.lie_g.dim == 0 and back.lie_h.dim == 0


def test_postlie_roundtrip_zero_dim():
    p = extract_post_lie(build_sweedler(1))
    back = roundtrip(p)
    assert back.dim == 0


def test_trivial_roundtrip():
    roundtrip(build_trivial())


def test_emit_deterministic():
    a = emit(build_en(2, [[1, 0], [0, 1]]))
    b = emit(build_en(2, [[1, 0], [0, 1]]))
    assert a == b


def test_parse_errors_have_line_numbers():
    s = build_sweedler(1)
    text = emit(s)
    # flip two adjacent mul lines: unsorted triples must be rejected
    lines = text.splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("mul "))
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    with pytest.raises(ParseError) as exc:
        parse("\n".join(lines) + "\n")
    assert "sorted" in str(exc.value)


def test_parse_rejects_zero_coefficient():
    s = build_sweedler(1)
    text = emit(s).replace("mul 0 0 0 1", "mul 0 0 0 0", 1)
    with pytest.raises(ParseError):
        parse(text)


def test_parse_rejects_unknown_directive():
    with pytest.raises(ParseError):
        parse("kind algebra\nfield Q\ndim 1\nbasis 1\nunit 0 1\nmul 0 0 0 1\nbogus 1\n")


def test_parse_rejects_bad_kind():
    with pytest.raises(ParseError):
        parse("kind nonsense\n")


def test_parse_rejects_out_of_range_index():
    with pytest.raises(ParseError):
        parse("kind algebra\nfield Q\ndim 1\nbasis 1\nunit 0 1\nmul 0 0 5 1\n")


def test_parse_rejects_duplicate_triple():
    text = (
        "kind algebra\nfield Q\ndim 2\nbasis 1 t\nunit 0 1\n"
        "mul 0 0 0 1\nmul 0 0 0 1\n"
    )
    with pytest.raises(ParseError):
        parse(text)


def _without(name: str, *directives: str) -> str:
    """A golden file with every line of the given directives removed."""
    lines = (GOLDEN / f"{name}.struct").read_text().splitlines()
    return "\n".join(line for line in lines if line.split()[0] not in directives) + "\n"


@pytest.mark.parametrize(("name", "directives", "message"), [
    ("h4-q", ("antipode",), "hopf structures need antipode entries"),
    ("sweedler-q", ("antipode",), "ydpost structures need antipode entries"),
    ("sweedler-q-matchedpair", ("antipode",), "matched pairs need antipode entries"),
    ("sweedler-q-brace", ("antipode",), "ydbrace structures need both antipodes"),
    ("sweedler-q-brace", ("antipode2",), "ydbrace structures need both antipodes"),
    ("sweedler-q-rb_l", ("h.antipode",), "relrb needs h.antipode entries"),
    ("sweedler-q-rb_l", ("rmap",), "relrb needs rmap entries"),
    # ydbrace reads bullet before it asks for its antipodes
    ("sweedler-q-brace", ("antipode", "bullet"), "missing bullet entries"),
])
def test_parse_names_the_missing_block(name, directives, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse(_without(name, *directives))


def test_parse_reports_the_hopf_block_faults_in_reading_order():
    # a bad scalar on the first line of every Hopf-block directive: the
    # error names mul's, then unit's, comul's, counit's and antipode's line
    # as each earlier one is mended
    lines = (GOLDEN / "sweedler-q.struct").read_text().splitlines()
    bad = {}
    for i, line in enumerate(lines):
        key = line.split()[0]
        if key in ("mul", "unit", "comul", "counit", "antipode") and key not in bad:
            bad[key] = i
    for key in ("mul", "unit", "comul", "counit", "antipode"):
        text = list(lines)
        for i in bad.values():
            text[i] = " ".join([*lines[i].split()[:-1], "1/x"])
        with pytest.raises(ParseError, match=f"^line {bad[key] + 1}: "):
            parse("\n".join(text) + "\n")
        del bad[key]


# int() takes underscores and other scripts' digits, and \\d matches those
# digits; the parser takes an ASCII sign and ASCII digits only
@pytest.mark.parametrize(("name", "line", "changed", "message"), [
    ("sweedler-f7", "field Fp 7", "field Fp 1_0007", "line 2: invalid literal for int() with base 10: '1_0007'"),
    ("sweedler-f7", "field Fp 7", "field Fp \u0667", "line 2: invalid literal for int() with base 10: '\u0667'"),
    ("sweedler-q", "dim 4", "dim 0_4", "line 3: bad dimension '0_4'"),
    ("sweedler-q", "dim 4", "dim \u0664", "line 3: bad dimension '\u0664'"),
    ("h4-q", "mul 0 0 0 1", "mul 0 0 \u0660 1", "line 8: bad index '\u0660'"),
    ("h4-q", "mul 0 0 0 1", "mul 0 0 -1 1", "line 8: index -1 out of range"),
    ("h4-q", "unit 0 1", "unit 0 \u0663", "line 5: malformed scalar '\u0663'"),
    ("h4-q", "unit 0 1", "unit 0 1/\u0663", "line 5: malformed scalar '1/\u0663'"),
    ("h4-q", "unit 0 1", "unit 0 1_0", "line 5: malformed scalar '1_0'"),
], ids=["field-underscore", "field-digit", "dim-underscore", "dim-digit", "index-digit", "index-negative",
        "scalar-digit", "denominator-digit", "scalar-underscore"])
def test_parse_takes_ascii_integer_tokens_only(name, line, changed, message):
    text = (GOLDEN / f"{name}.struct").read_text()
    assert f"\n{line}\n" in text
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(text.replace(f"\n{line}\n", f"\n{changed}\n", 1))


def test_relrb_coaction_indices_follow_k_h_k():
    # a coaction a p q c line reads a and q in K and p in H: with dim K = 1
    # and dim H = 4, rho(1) = g (x) 1 round-trips and p = 4 is out of range
    h = sweedler_hopf()
    one = F(1)
    k = group_algebra(cyclic_group(1))
    r = RelRB(h, k.algebra, k.coalgebra, k.antipode,
              ActionTensor(4, 1, [[Vector(1, {0: h.coalgebra.eps(i)}, RATIONALS)] for i in range(4)], RATIONALS),
              Matrix(4, 1, {(1, 0): one}, RATIONALS), Matrix(4, 1, {(0, 0): one}, RATIONALS))
    text = emit(r)
    assert "coaction 0 1 0 1" in text.splitlines()
    assert roundtrip(r).coaction == r.coaction
    with pytest.raises(ParseError, match="index 4 out of range"):
        parse(text.replace("coaction 0 1 0 1", "coaction 0 4 0 1"))
    # each distinct index token is converted once per file, and held to the
    # bound of every position it stands at: 1 is read in H (as p, and on
    # the h. lines before) and is out of range in K
    assert text.splitlines()[37:39] == ["action 1 0 0 1", "coaction 0 1 0 1"]
    with pytest.raises(ParseError, match=r"^line 39: index 1 out of range$"):
        parse(text.replace("coaction 0 1 0 1", "coaction 0 1 1 1"))
    with pytest.raises(ParseError, match=r"^line 38: index 1 out of range$"):
        parse(text.replace("action 1 0 0 1", "action 1 1 0 1"))


# int() refuses more digits than sys.get_int_max_str_digits() (4300 by
# default); a longer coefficient is a parse error on its line
@pytest.mark.parametrize("value", ["7" * 5000, "-" + "7" * 5000, "1/" + "7" * 5000],
                         ids=["numerator", "negative", "denominator"])
def test_scalar_beyond_the_int_conversion_limit_is_a_parse_error(value):
    text = (GOLDEN / "h4-q.struct").read_text()
    assert "\nunit 0 1\n" in text
    with pytest.raises(ParseError, match="^line 5: scalar with a 5000-digit integer is beyond the "
                                         "integer conversion limit$"):
        parse(text.replace("\nunit 0 1\n", f"\nunit 0 {value}\n", 1))


# Tokens that read as the same value, as a value valid at one position and
# not at another, or not at all, so that each repeats across positions with
# different bounds and across the two fields.  A clean block draws only
# tokens that read as an index or a nonzero coefficient, so that many
# blocks get to their last line.
TOKENS = ("0", "3", "+1", "01", "-1", "\u0663", "1/2", "2/4", "0/3", "1/0", "x")
INDEX_TOKENS = ("0", "+1", "01")
SCALAR_TOKENS = ("3", "+1", "01", "-1", "1/2", "2/4")


def _sort_key(args):
    """The index triple of a line where its tokens read as integers (99
    where not), so that a drawn block can be sorted and get past the sort
    check."""
    out = []
    for tok in args[:3]:
        try:
            out.append(parse_int(tok))
        except ValueError:
            out.append(99)
    return tuple(out)


@st.composite
def trilinear_blocks(draw):
    """A file of two trilinear blocks (mul, then action) drawn from TOKENS,
    and each block's key and bounds."""
    text, blocks = [], []
    for key in ("mul", "action"):
        clean = draw(st.booleans())
        index = st.sampled_from(INDEX_TOKENS if clean else TOKENS)
        scalar = st.sampled_from(SCALAR_TOKENS if clean else TOKENS)
        dims = draw(st.tuples(*[st.integers(2 if clean else 1, 4)] * 3))
        rows = draw(st.lists(st.tuples(index, index, index, scalar), min_size=1, max_size=6))
        if draw(st.booleans()):  # sorted, one line per index triple
            rows = sorted({_sort_key(row): row for row in rows}.values(), key=_sort_key)
        if not clean and draw(st.booleans()):  # a token too few or too many
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = rows[i][:3] if draw(st.booleans()) else (*rows[i], "1")
        text += [" ".join([key, *row]) for row in rows]
        blocks.append((key, dims))
    return "\n".join(text) + "\n", blocks


def _cells(rows):
    """A reader's result with each entry's type, or its ParseError text."""
    if isinstance(rows, str):
        return rows
    return [[(v.dim, v.field, [(k, type(c), c) for k, c in v.entries.items()]) for v in row] for row in rows]


def _read(reader, lines, key, dims, field):
    try:
        return reader(lines, key, *dims, field)
    except ParseError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(trilinear_blocks())
def test_trilinear_reader_matches_the_per_token_oracle(case):
    # over Q and F_7 in turn; the two blocks share one parse's memo, so a
    # token of the first block is met again in the second under other bounds
    text, blocks = case
    for field in (RATIONALS, FieldSpec(7)):
        lines = _Lines(text)
        for key, dims in blocks:
            want = _read(oracles.parse_trilinear, _Lines(text), key, dims, field)
            assert _cells(_read(_parse_trilinear, lines, key, dims, field)) == _cells(want)
