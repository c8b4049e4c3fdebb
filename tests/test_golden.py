"""Byte-exact golden outputs: emitted files and machine reports.

Every file under ``tests/golden/`` was written by ``write_golden`` and is
compared here byte for byte, so a change to the scalar representation, the
contraction loops or the emitters cannot alter what users see.  Regenerate
with ``PYTHONPATH=src python tests/test_golden.py`` only when an output
change is intended, and review the diff.
"""

import re
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest

from manual_structures import sub_operator
from test_cli import _lie_examples, run_cli
from ydalgebra.builders import group_rb_inversion, symmetric_group_3
from ydalgebra.cli import run_suite
from ydalgebra.field import RATIONALS, FieldError, FieldSpec
from ydalgebra.hopf import StructureError
from ydalgebra.posthopf import check_yd_hopf_monoid, check_yd_post_hopf
from ydalgebra.report import AXIOM_ORDER
from ydalgebra.rota import functor_l
from ydalgebra.structio import ParseError, emit, parse

GOLDEN = Path(__file__).parent / "golden"

EXAMPLES = {
    "sweedler": ["sweedler", "--k", "1"],
    "en2": ["en", "--n", "2", "--A", "1,1/2;1/2,3"],
    "en3": ["en", "--n", "3", "--A", "1,1/2,0;1/2,1,0;0,0,2"],
    "suzuki": ["suzuki", "--alpha", "1", "--beta", "-1"],
    "h4": ["h4"],
    "group-s3": ["group", "--group", "s3"],
    "grouprb-s3": ["grouprb", "--group", "s3"],
}
FIELDS = {"q": "Q", "f7": "Fp:7"}
DERIVE_TARGETS = ("subadjacent", "postlie", "brace", "matchedpair", "rb_l")
# (source golden, target); the sweedler-q ids are the bare target names
# and the structures derived from the derived files: post-Hopf back from the
# brace and the matched pair, and functors M, R and S_K from the rb_l file
DERIVED = [(f"sweedler-{field}", target) for field in FIELDS for target in DERIVE_TARGETS]
DERIVED += [(f"sweedler-{field}-{source}", target) for field in FIELDS
            for source, targets in (("brace", ("posthopf",)), ("matchedpair", ("posthopf",)),
                                    ("rb_l", ("post_m", "post_r", "sk")))
            for target in targets]
DERIVED_IDS = [t if s == "sweedler-q" else f"{s.removeprefix('sweedler-')}-{t}" for s, t in DERIVED]
# the adjoint example, built from a golden Hopf file
ADJOINT_SOURCES = [f"group-s3-{field}" for field in FIELDS]

# the algebra of H4, as an algebra file: made from the Hopf golden, not kept
# as a file of its own, so that the parser's outcomes below stay as they are
ALGEBRA_SOURCES = {f"h4-{field}-algebra": f"h4-{field}" for field in FIELDS}
ALGEBRA_DIRECTIVES = ("field", "dim", "basis", "unit", "mul")

# R = -id on the two-dimensional non-abelian Lie algebra with its adjoint
# action: a lierb with a nonzero bracket, which no example verb makes, so
# emitted from the library
LIERB_FIELDS = {"lierb-q": RATIONALS, "lierb-f7": FieldSpec(7)}

# The operator functor_l(s) of a golden post-Hopf file s restricted to a
# sub-Hopf algebra K': a relrb with dim K < dim H, made by
# ``manual_structures.sub_operator`` (no verb makes one).  Sweedler's K' is
# span{1, g}, E(2)'s span{1, g, x1, g x1} and Suzuki(1, -1)'s
# span{1, a^2, b^2, a^4}.  R is the inclusion, so its report is the
# pre-Rota-Baxter suite's, and the full suite fails RB-3 ("-full"); functor
# R in mode C' (``derive --target post_r --mode pre``) takes it to a
# post-Hopf structure on K', solving its convolution systems on
# dim K < dim H.
SUB_OPERATORS = {**{f"sweedler-{field}-rb_l-sub": (f"sweedler-{field}", [0, 1]) for field in FIELDS},
                 **{f"en2-{field}-rb_l-sub": (f"en2-{field}", [0, 1, 2, 3]) for field in FIELDS},
                 **{f"suzuki-{field}-rb_l-sub": (f"suzuki-{field}", [0, 5, 7, 13]) for field in FIELDS}}


# failing mutant per kind: (base golden file, directive whose last line changes)
MUTANTS = {
    "algebra-q": ("h4-q-algebra", "mul"),
    "ydpost-q": ("sweedler-q", "action"),
    "ydpost-f7": ("sweedler-f7", "action"),
    "hopf-q": ("h4-q", "antipode"),
    "ydbrace-q": ("sweedler-q-brace", "bullet"),
    "matchedpair-q": ("sweedler-q-matchedpair", "raction"),
    "relrb-q": ("sweedler-q-rb_l", "rmap"),
    "grouprb": ("s3-inversion", "phi"),
}

# YD post-Hopf mutants run through both suites directly, so that the monoid
# suite reports failures too: (base golden file, the line whose coefficient
# changes, named without its coefficient; whether the beta lines are removed)
SUITE_MUTANTS = {
    "sweedler-q-action-nobeta": ("sweedler-q", "action 0 0 0", True),
    "sweedler-q-unit": ("sweedler-q", "unit 0", False),
    "sweedler-f7-comul": ("sweedler-f7", "comul 0 0 0", False),
    "en2-q-mul": ("en2-q", "mul 4 4 0", False),
    "en2-q-comul": ("en2-q", "comul 4 4 0", False),
    "en2-f7-counit": ("en2-f7", "counit 1", False),
    "en2-f7-comul-nobeta": ("en2-f7", "comul 6 3 4", True),
    "en2-f7-mul": ("en2-f7", "mul 4 4 0", False),
    "en3-q-mul": ("en3-q", "mul 4 4 0", False),
    "en3-q-comul": ("en3-q", "comul 8 0 0", False),
    "en3-f7-mul": ("en3-f7", "mul 4 4 0", False),
    "en3-f7-action-nobeta": ("en3-f7", "action 2 8 2", True),
}
# relative Rota-Baxter, brace, matched-pair and Hopf mutants, run through the
# suite of their kind: (base golden file, the directive whose last line
# changes, or a line named without its coefficient).  The rb_l mutants fail
# RB-BIMON in its parts 1 (h.mul), 2 (h.comul) and 3 (k.comul), and the
# coaction mutants in its comodule (4) and comodule-algebra (5) parts; no
# other ID reads the coaction.  The h4 mutants fail the
# bialgebra IDs of the Hopf suite: g.g = 1 changed fails HOPF-DELTA-MULT and
# HOPF-EPS-MULT, g.x = -gx changed fails HOPF-DELTA-MULT with eps(g.x) still
# 0, and the unit changed fails HOPF-DELTA-UNIT and HOPF-EPS-UNIT.
KIND_MUTANTS = {
    **{f"sweedler-{field}-rb_l-{d.replace('.', '')}": (f"sweedler-{field}-rb_l", d)
       for field in FIELDS for d in ("h.mul", "h.comul", "k.comul", "coaction")},
    **{f"sweedler-{field}-rb_l-coactionx": (f"sweedler-{field}-rb_l", "coaction 2 1 2") for field in FIELDS},
    **{f"sweedler-{field}-brace-bullet": (f"sweedler-{field}-brace", "bullet") for field in FIELDS},
    **{f"sweedler-{field}-matchedpair-{name}": (f"sweedler-{field}-matchedpair", change)
       for field in FIELDS for name, change in (("action0", "action 0 0 0"), ("raction0", "raction 0 0 0"),
                                                ("raction", "raction"), ("antipode", "antipode"))},
    **{f"sweedler-{field}-rb_l-kantipode": (f"sweedler-{field}-rb_l", "k.antipode") for field in FIELDS},
    **{f"h4-{field}-{name}": (f"h4-{field}", line)
       for field in FIELDS for name, line in (("gg", "mul 1 1 0"), ("gx", "mul 1 2 3"), ("unit", "unit 0"))},
}
# the IDs that the kind mutants are the first goldens to show failing
KIND_IDS = ("RB-SPACES", "RB-2", "RB-BIMON", "MP-HOPF", "MP-1", "MP-2",
            "HOPF-DELTA-MULT", "HOPF-EPS-MULT", "HOPF-DELTA-UNIT", "HOPF-EPS-UNIT")
# every identity whose result more than one axiom ID reports fails somewhere
SHARED_IDS = ("P-COALG", "P-DOT", "P-ASSOC", "P-DELTA", "L-U", "L-DA", "L-MA",
              "YD-MODULE", "YD-MODALG", "YD-MODCOALG", "YD-BRAIDMULT")
# the identities with the heaviest contractions fail over Q and over F_7
CONTRACTION_IDS = ("ALG-ASSOC", "P-DOT", "P-ASSOC", "L-MB", "YD-COMPAT", "YD-COLINEAR")
# the brace, matched-pair and Rota-Baxter identities that run on compiled
# tables fail over Q and over F_7, so both paths of their compare are pinned
DERIVED_KIND_IDS = ("HB-COMPAT", "MP-3", "MP-4", "MP-BC", "RB-1", "RB-2")


def _example(name: str, field: str, out: Path) -> None:
    code, _, _ = run_cli(["example", *EXAMPLES[name], "--field", FIELDS[field],
                          "--out", str(out)])
    assert code == 0


def _check(path: Path, mode: str = "full") -> tuple[int, str]:
    code, out, _ = run_cli(["check", str(path), "--report", "machine", "--mode", mode])
    return code, out


def _mutate(text: str, directive: str) -> str:
    """Change the last ``directive`` line (see ``_mutate_line``)."""
    lines = text.splitlines()
    i = max(j for j, line in enumerate(lines) if line.split()[0] == directive)
    return _mutate_line(lines, i)


def _mutate_named(lines: list[str], line: str) -> str:
    """Change the line named ``line`` without its coefficient."""
    return _mutate_line(lines, next(j for j, x in enumerate(lines) if x.rsplit(" ", 1)[0] == line))


def _mutate_line(lines: list[str], i: int) -> str:
    """Change line i: a coefficient gains 1/2 over Q and doubles over F_p;
    a group table index moves to the next element."""
    lines = list(lines)
    parts = lines[i].split()
    if lines[0] == "kind grouprb":
        parts[-1] = str((int(parts[-1]) + 1) % 6)  # the base table is S3
    elif "field Fp 7" in lines:
        parts[-1] = str(int(parts[-1]) * 2 % 7)
    else:
        parts[-1] = str(Fraction(parts[-1]) + Fraction(1, 2) or 1)
    lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def golden_text(name: str) -> str:
    """The text of a golden structure file, or of an algebra made from one."""
    if name in ALGEBRA_SOURCES:
        return emit(parse(golden_text(ALGEBRA_SOURCES[name])).algebra)
    return (GOLDEN / f"{name}.struct").read_text()


def _mutant_text(name: str) -> str:
    base, directive = MUTANTS[name]
    return _mutate(golden_text(base), directive)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_emit_and_report_bytes(tmp_path, name, field):
    stem = f"{name}-{field}"
    out = tmp_path / f"{stem}.struct"
    _example(name, field, out)
    assert out.read_bytes() == (GOLDEN / f"{stem}.struct").read_bytes()
    code, report = _check(out)
    assert code == 0
    assert report.encode() == (GOLDEN / f"{stem}.report").read_bytes()


def _derive(source: str, target: str, out: Path, mode: str = "full") -> None:
    code, _, _ = run_cli(["derive", str(GOLDEN / f"{source}.struct"),
                          "--target", target, "--out", str(out), "--mode", mode])
    assert code == 0


def _adjoint(source: str, out: Path) -> None:
    code, _, _ = run_cli(["example", "adjoint", "--from", str(GOLDEN / f"{source}.struct"), "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("source", ADJOINT_SOURCES)
def test_adjoint_emit_and_report_bytes(tmp_path, source):
    stem = f"{source}-adjoint"
    out = tmp_path / f"{stem}.struct"
    _adjoint(source, out)
    assert out.read_bytes() == (GOLDEN / f"{stem}.struct").read_bytes()
    code, report = _check(out)
    assert code == 0
    assert report.encode() == (GOLDEN / f"{stem}.report").read_bytes()


@pytest.mark.parametrize(("source", "target"), DERIVED, ids=DERIVED_IDS)
def test_derived_emit_bytes(tmp_path, source, target):
    stem = f"{source}-{target}"
    out = tmp_path / f"{stem}.struct"
    _derive(source, target, out)
    assert out.read_bytes() == (GOLDEN / f"{stem}.struct").read_bytes()
    code, report = _check(out)
    assert code == 0
    assert report.encode() == (GOLDEN / f"{stem}.report").read_bytes()


@pytest.mark.parametrize("name", sorted(ALGEBRA_SOURCES))
def test_algebra_emit_and_report_bytes(tmp_path, name):
    # the algebra file holds the Hopf golden's algebra lines, in their order
    text = golden_text(name)
    lines = golden_text(ALGEBRA_SOURCES[name]).splitlines()
    assert text.splitlines() == ["kind algebra", *(x for x in lines if x.split()[0] in ALGEBRA_DIRECTIVES)]
    out = tmp_path / f"{name}.struct"
    out.write_text(text)
    code, report = _check(out)
    assert code == 0
    assert report.encode() == (GOLDEN / f"{name}.report").read_bytes()


@pytest.mark.parametrize("name", sorted(LIERB_FIELDS))
def test_lierb_emit_and_report_bytes(name):
    path = GOLDEN / f"{name}.struct"
    assert emit(_lie_examples(LIERB_FIELDS[name])[0]).encode() == path.read_bytes()
    code, report = _check(path)
    assert code == 0
    assert report.encode() == path.with_suffix(".report").read_bytes()


def _sub_operator_text(name: str) -> str:
    base, support = SUB_OPERATORS[name]
    return emit(sub_operator(functor_l(parse(golden_text(base))), support))


@pytest.mark.parametrize("name", sorted(SUB_OPERATORS))
def test_sub_operator_emit_report_and_derive_bytes(tmp_path, name):
    path = GOLDEN / f"{name}.struct"
    assert _sub_operator_text(name).encode() == path.read_bytes()
    code, report = _check(path, "pre")
    assert code == 0
    assert report.encode() == (GOLDEN / f"{name}.report").read_bytes()
    code, report = _check(path)
    assert code == 1
    assert report.encode() == (GOLDEN / f"{name}-full.report").read_bytes()
    out = tmp_path / f"{name}-post_r.struct"
    _derive(name, "post_r", out, "pre")
    assert out.read_bytes() == (GOLDEN / f"{name}-post_r.struct").read_bytes()
    code, report = _check(out)
    assert code == 0
    assert report.encode() == (GOLDEN / f"{name}-post_r.report").read_bytes()


def test_grouprb_emit_bytes():
    text = emit(group_rb_inversion(symmetric_group_3()))
    assert text.encode() == (GOLDEN / "s3-inversion.struct").read_bytes()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_report_bytes(tmp_path, name):
    path = tmp_path / "mutant.struct"
    path.write_text(_mutant_text(name))
    code, report = _check(path)
    assert code == 1
    assert report.encode() == (GOLDEN / f"mutant-{name}.report").read_bytes()


def yd_mutant(base: str, line: str, strip_beta: bool):
    """The YD post-Hopf structure of a golden file with the coefficient of
    one line changed (``line`` names it without its coefficient), and
    without its beta lines if strip_beta."""
    lines = _mutate_named((GOLDEN / f"{base}.struct").read_text().splitlines(), line).splitlines()
    if strip_beta:
        lines = [x for x in lines if x.split()[0] != "beta"]
    return parse("\n".join(lines) + "\n")


def _suite_text(rep) -> str:
    """The machine report, then one ``axiom status checked failures`` line
    per entry."""
    counts = "".join(f"{e.axiom} {e.status} {e.checked} {e.failures}\n" for e in rep.entries)
    return rep.machine_text() + counts


def _suite_report(name: str) -> str:
    """The suite text of both YD post-Hopf suites on one mutant."""
    m = yd_mutant(*SUITE_MUTANTS[name])
    rep = check_yd_post_hopf(m)
    rep.extend(check_yd_hopf_monoid(m))
    return _suite_text(rep)


def _kind_suite_report(name: str) -> str:
    """The suite text of ``run_suite`` on one kind mutant."""
    base, change = KIND_MUTANTS[name]
    text = (GOLDEN / f"{base}.struct").read_text()
    if " " in change:
        text = _mutate_named(text.splitlines(), change)
    else:
        text = _mutate(text, change)
    return _suite_text(run_suite(parse(text)))


@pytest.mark.parametrize("name", sorted(SUITE_MUTANTS))
def test_suite_mutant_report_bytes(name):
    assert _suite_report(name).encode() == (GOLDEN / f"suite-{name}.report").read_bytes()


@pytest.mark.parametrize("name", sorted(KIND_MUTANTS))
def test_kind_suite_mutant_report_bytes(name):
    assert _kind_suite_report(name).encode() == (GOLDEN / f"suite-{name}.report").read_bytes()


def _failing(names) -> dict:
    """axiom ID -> the first-failure lines of the suite goldens of names."""
    out: dict = {}
    for name in names:
        for line in (GOLDEN / f"suite-{name}.report").read_text().splitlines():
            parts = line.split()
            if parts[1] == "fail" and len(parts) > 2 and parts[2].startswith("at="):
                out.setdefault(parts[0], []).append(parts[2])
    return out


def test_kind_mutants_fail_rb_and_mp_ids():
    failing = _failing(KIND_MUTANTS)
    assert set(KIND_IDS) <= set(failing)
    # RB-BIMON fails in each of its module, module-algebra and
    # module-coalgebra parts, and in its comodule and comodule-algebra parts
    assert {at.split(",")[0] for at in failing["RB-BIMON"]} == {"at=(1", "at=(2", "at=(3", "at=(4", "at=(5"}


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_hopf_mutants_fail_every_bialgebra_id_in_each_field(field):
    failing = _failing(name for name in KIND_MUTANTS if name.startswith(f"h4-{field}-"))
    assert {"HOPF-DELTA-MULT", "HOPF-EPS-MULT", "HOPF-DELTA-UNIT", "HOPF-EPS-UNIT"} <= set(failing)
    # g.x changed leaves eps multiplicative, so HOPF-DELTA-MULT fails alone
    # among the two product compatibilities there
    gx = _failing([f"h4-{field}-gx"])
    assert "HOPF-DELTA-MULT" in gx and "HOPF-EPS-MULT" not in gx


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_kind_mutants_fail_every_derived_kind_identity_in_each_field(field):
    failing = _failing(name for name in KIND_MUTANTS if name.split("-")[1] == field)
    assert set(DERIVED_KIND_IDS) <= set(failing)


def test_scalar_witnesses_print_as_files_do():
    # over F_p a scalar side prints as its residue, as a Q scalar prints as
    # n or n/d, never as the ModInt repr
    assert all("ModInt(" not in path.read_text() for path in GOLDEN.glob("*.report"))
    assert "HOPF-EPS-MULT fail at=(1,1) lhs=[2] rhs=[1]" in (GOLDEN / "suite-h4-f7-gg.report").read_text()


def test_suite_mutants_fail_every_shared_identity():
    failing = set()
    for name in SUITE_MUTANTS:
        text = (GOLDEN / f"suite-{name}.report").read_text()
        failing |= {line.split()[0] for line in text.splitlines() if line.split()[1] == "fail"}
    assert set(SHARED_IDS) <= failing


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_suite_mutants_fail_every_contraction_identity_in_each_field(field):
    failing = set()
    for name in SUITE_MUTANTS:
        if name.split("-")[1] == field:
            text = (GOLDEN / f"suite-{name}.report").read_text()
            failing |= {line.split()[0] for line in text.splitlines() if line.split()[1] == "fail"}
    assert set(CONTRACTION_IDS) <= failing


# The axiom IDs that fail in no golden report, each with the reason: the
# test that makes it fail, or that none does yet.  No golden kind holds a
# morphism of operators, a post-Lie or Lie-RB failure, or a broken group.
NO_GOLDEN_FAILURE = {
    "RBM-F": "test_rota.py::test_rbm_f_and_g_fail_on_one_flipped_sign and "
             "test_rbm_coproduct_row_and_least_witness",
    "RBM-G": "test_rota.py::test_rbm_f_and_g_fail_on_one_flipped_sign and "
             "test_rbm_coproduct_row_and_least_witness",
    "RBM-COMM": "test_rota.py::test_rb_morphism_perturbation_detected",
    "RBM-ACT": "test_rota.py::test_rbm_act_fails_where_g_does_not_intertwine (alone)",
    "PL-SKEW": "test_posthopf.py::test_check_post_lie_fails_each_id_on_one_changed_entry (alone; derived "
               "post-Lie data is skew by construction)",
    "PL-JAC": "test_posthopf.py::test_check_post_lie_fails_each_id_on_one_changed_entry (with PL-SKEW and PL-SUB)",
    "PL-1": "test_posthopf.py::test_check_post_lie_designed_failure",
    "PL-2": "test_posthopf.py::test_check_post_lie_fails_each_id_on_one_changed_entry (alone)",
    "PL-SUB": "test_posthopf.py::test_check_post_lie_fails_each_id_on_one_changed_entry (with PL-1 and PL-2)",
    "GRB-GROUP-G": "test_rota.py::test_grb_group_g_fails_on_a_table_that_is_not_associative",
    "GRB-GROUP-H": "test_rota.py::test_grb_group_h_fails_on_a_monoid_without_inverses",
    "LRB-LIE-G": "test_rota.py::test_lrb_lie_fails_at_its_least_failing_tuple",
    "LRB-LIE-H": "test_rota.py::test_lrb_lie_fails_at_its_least_failing_tuple",
    "LRB-ACTION": "test_rota.py::test_lrb_action_fails_where_phi_is_not_a_derivation",
    "LRB-W1": "test_rota.py::test_lie_rb_weight1_failure_detected",
    "LRB-POSTLIE": "test_rota.py::test_lrb_lie_fails_at_its_least_failing_tuple (side H, with LRB-LIE-H)",
}


def test_every_axiom_id_fails_in_a_golden_or_has_a_reason():
    # an ID that no golden report shows failing needs a written reason, and
    # a reason goes once a golden fails the ID
    failing = set()
    for path in GOLDEN.glob("*.report"):
        failing |= {line.split()[0] for line in path.read_text().splitlines() if line.split()[1:2] == ["fail"]}
    assert [a for a in AXIOM_ORDER if a not in failing and a not in NO_GOLDEN_FAILURE] == []
    assert sorted(failing & NO_GOLDEN_FAILURE.keys()) == []
    assert NO_GOLDEN_FAILURE.keys() <= set(AXIOM_ORDER)


# Every single-line change of a derived file, and of the Sweedler and E(2)
# post-Hopf goldens, must fail the file's own suite (or be rejected as
# input), but for the kinds of line listed here, each with the reason no
# suite can see the change.  The post-Hopf files show that no line went
# unread once YD-BRAIDMULT took its first row from P-DELTA.
UNREAD_LINES = {"param": "params are free-form labels; no axiom reads them"}
SCANNED = [f"sweedler-{field}-{target}" for field in FIELDS for target in ("brace", "matchedpair", "rb_l")] + [
    f"{base}-{field}" for field in FIELDS for base in ("sweedler", "en2")]


@pytest.mark.parametrize("name", SCANNED)
def test_every_line_of_a_derived_file_is_load_bearing(name):
    lines = (GOLDEN / f"{name}.struct").read_text().splitlines()
    scalar = re.compile(r"^-?\d+(/\d+)?$")
    changed, unread = 0, []
    for i, line in enumerate(lines):
        if not scalar.match(line.split()[-1]):
            continue
        text = _mutate_line(lines, i)
        if text.splitlines()[i] == line:
            continue
        changed += 1
        try:
            passed = run_suite(parse(text)).all_pass()
        except (ParseError, FieldError, StructureError):
            passed = False
        if passed:
            unread.append(line)
    assert changed > 50
    assert [line for line in unread if line.split()[0] not in UNREAD_LINES] == []


# Every small golden, each of its lines malformed five ways: the line
# deleted, its last token dropped, its last token a bad scalar, the line
# duplicated, its first index set to 99.  The outcome of each is the
# ParseError line or a digest of the text emitted from what parsed ("same"
# when that is the golden itself), so a change to the parser cannot move a
# diagnostic or let a malformed file through unseen.
MALFORMED_MAX_LINES = 150
MALFORMATIONS = ("deleted", "truncated", "bad scalar", "duplicated", "index 99")


def _malformations(line: str) -> list:
    """The replacement lines of each malformation, None for an index change
    of a line whose first argument is not an index."""
    parts = line.split()
    return [[], [" ".join(parts[:-1])], [" ".join([*parts[:-1], "1/x"])], [line, line],
            [" ".join([parts[0], "99", *parts[2:]])] if parts[1:2] and parts[1].isdigit() else None]


def _parse_outcome(text: str, source: str) -> str:
    try:
        out = emit(parse(text))
    except ParseError as e:
        return str(e)
    return "same" if out == source else sha256(out.encode()).hexdigest()[:12]


def malformed_outcomes() -> str:
    """One block per golden under MALFORMED_MAX_LINES lines: its name, then
    per line the line number and the outcome of each of MALFORMATIONS
    ("-" where it does not apply), tab-separated."""
    rows = []
    for path in sorted(GOLDEN.glob("*.struct")):
        source = path.read_text()
        lines = source.splitlines()
        if len(lines) >= MALFORMED_MAX_LINES:
            continue
        rows.append(path.name)
        for i, line in enumerate(lines):
            outcomes = ["-" if new is None else
                        _parse_outcome("\n".join([*lines[:i], *new, *lines[i + 1:]]) + "\n", source)
                        for new in _malformations(line)]
            rows.append("\t".join([str(i + 1), *outcomes]))
    return "\n".join(rows) + "\n"


def test_malformed_inputs_parse_as_before():
    assert malformed_outcomes().splitlines() == (GOLDEN / "malformed.outcomes").read_text().splitlines()


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in EXAMPLES:
        for field in FIELDS:
            path = GOLDEN / f"{name}-{field}.struct"
            _example(name, field, path)
            path.with_suffix(".report").write_text(_check(path)[1])
    for source, target in DERIVED:
        path = GOLDEN / f"{source}-{target}.struct"
        _derive(source, target, path)
        path.with_suffix(".report").write_text(_check(path)[1])
    for source in ADJOINT_SOURCES:
        path = GOLDEN / f"{source}-adjoint.struct"
        _adjoint(source, path)
        path.with_suffix(".report").write_text(_check(path)[1])
    for name in ALGEBRA_SOURCES:
        path = GOLDEN / "algebra.tmp"
        path.write_text(golden_text(name))
        (GOLDEN / f"{name}.report").write_text(_check(path)[1])
        path.unlink()
    (GOLDEN / "s3-inversion.struct").write_text(emit(group_rb_inversion(symmetric_group_3())))
    for name, fs in LIERB_FIELDS.items():
        path = GOLDEN / f"{name}.struct"
        path.write_text(emit(_lie_examples(fs)[0]))
        path.with_suffix(".report").write_text(_check(path)[1])
    for name in SUB_OPERATORS:
        path = GOLDEN / f"{name}.struct"
        path.write_text(_sub_operator_text(name))
        path.with_suffix(".report").write_text(_check(path, "pre")[1])
        (GOLDEN / f"{name}-full.report").write_text(_check(path)[1])
        derived = GOLDEN / f"{name}-post_r.struct"
        _derive(name, "post_r", derived, "pre")
        derived.with_suffix(".report").write_text(_check(derived)[1])
    for name in MUTANTS:
        path = GOLDEN / "mutant.tmp"
        path.write_text(_mutant_text(name))
        code, report = _check(path)
        path.unlink()
        assert code == 1, name
        (GOLDEN / f"mutant-{name}.report").write_text(report)
    for name in SUITE_MUTANTS:
        (GOLDEN / f"suite-{name}.report").write_text(_suite_report(name))
    for name in KIND_MUTANTS:
        (GOLDEN / f"suite-{name}.report").write_text(_kind_suite_report(name))
    (GOLDEN / "malformed.outcomes").write_text(malformed_outcomes())


if __name__ == "__main__":
    write_golden()
