"""Command-line behavior: exit codes, report formats, golden derivations."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ydalgebra
from ydalgebra import cli
from ydalgebra.braces import functor_f, to_matched_pair
from ydalgebra.builders import build_sweedler, group_rb_inversion, sweedler_hopf, symmetric_group_3
from ydalgebra.cli import main, make_parser
from ydalgebra.field import RATIONALS, FieldSpec, parse_scalar
from ydalgebra.hopf import ActionTensor
from ydalgebra.linalg import Matrix, Vector, unit_vector
from ydalgebra.posthopf import PostLieData
from ydalgebra.rota import LieData, LieRB, functor_l
from ydalgebra.structio import emit, kind_of

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def sweedler_file(tmp_path):
    path = tmp_path / "sweedler.struct"
    code, _, _ = run_cli(["example", "sweedler", "--k", "1", "--out", str(path)])
    assert code == 0
    return path


def test_example_writes_and_check_passes(sweedler_file):
    code, out, _ = run_cli(["check", str(sweedler_file)])
    assert code == 0
    assert "ALL PASS" in out


def test_check_machine_report_deterministic(sweedler_file):
    code1, out1, _ = run_cli(["check", str(sweedler_file), "--report", "machine"])
    code2, out2, _ = run_cli(["check", str(sweedler_file), "--report", "machine"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "P-DELTA pass" in out1


def test_check_axiom_filter(sweedler_file):
    code, out, _ = run_cli(["check", str(sweedler_file), "--report", "machine",
                            "--axioms", "P-DOT,P-S"])
    assert code == 0
    assert out.splitlines() == ["P-S pass", "P-DOT pass"]  # suite order


@pytest.mark.parametrize("axioms", ["P-DOTT", ",", "", "P-DOT,NOPE"])
def test_axiom_filter_with_no_id_or_an_unknown_id_is_a_usage_error(tmp_path, axioms):
    # found before the file is read: a missing file gives the same error
    for path in (GOLDEN / "sweedler-q.struct", tmp_path / "missing.struct"):
        code, out, err = run_cli(["check", str(path), "--axioms", axioms])
        assert (code, out, err) == (2, "", f"error: --axioms needs known axiom ids, got {axioms!r}\n")


def test_axiom_filter_with_an_id_the_file_is_not_checked_for_is_a_usage_error():
    # RB-3 is checked in --mode full only
    rb = str(GOLDEN / "sweedler-q-rb_l.struct")
    code, out, err = run_cli(["check", rb, "--mode", "pre", "--axioms", "RB-3,RB-1"])
    assert (code, out, err) == (2, "", "error: not checked for this file: RB-3\n")


def test_axiom_filter_reports_an_id_a_failing_suite_never_reached_as_skipped(tmp_path):
    # Suzuki(1, -1) with e_1 . e_1 = 5 e_5: the post-Hopf suite fails, so the
    # Hopf-monoid suite, which YD-COMPAT belongs to, does not run
    path = tmp_path / "bad.struct"
    path.write_text((GOLDEN / "suzuki-q.struct").read_text().replace("\nmul 1 1 5 1\n", "\nmul 1 1 5 5\n"))
    assert run_cli(["check", str(path), "--report", "machine", "--axioms", "YD-COMPAT"]) == \
        (1, "YD-COMPAT skipped\n", "")
    code, out, _ = run_cli(["check", str(path), "--report", "machine", "--axioms", "YD-COMPAT,P-DOT"])
    assert code == 1
    assert out.splitlines() == ["P-DOT fail at=(1,1,1) lhs=[5:5] rhs=[5:1]", "YD-COMPAT skipped"]


def test_mutated_coefficient_fails_with_witness(tmp_path, sweedler_file):
    text = sweedler_file.read_text()
    mutated = text.replace("action 1 2 2 -1", "action 1 2 2 1")
    assert mutated != text
    bad = tmp_path / "bad.struct"
    bad.write_text(mutated)
    code, out, _ = run_cli(["check", str(bad), "--report", "machine"])
    assert code == 1
    assert any(line.split()[1] == "fail" for line in out.splitlines())
    assert "at=(" in out


def test_check_empty_file_is_input_error(tmp_path):
    empty = tmp_path / "empty.struct"
    empty.write_text("")
    code, _, err = run_cli(["check", str(empty)])
    assert code == 2
    assert "kind" in err


@pytest.mark.parametrize("header", ["gorder", "horder"])
def test_check_bare_order_header_is_input_error(tmp_path, header):
    text = emit(group_rb_inversion(symmetric_group_3()))
    ln = next(i for i, line in enumerate(text.splitlines(), start=1) if line.split()[0] == header)
    path = tmp_path / "grb.struct"
    path.write_text(text.replace(f"{header} 6\n", f"{header}\n"))
    code, out, err = run_cli(["check", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"error: line {ln}: {header} takes one argument\n"


def test_check_missing_file_is_input_error(tmp_path):
    code, _, err = run_cli(["check", str(tmp_path / "no.struct")])
    assert code == 2


def test_kind_mismatch_is_input_error(sweedler_file):
    code, _, err = run_cli(["check", str(sweedler_file), "--kind", "hopf"])
    assert code == 2


# int() takes underscores, blanks and other scripts' digits; the flag does not
@pytest.mark.parametrize("field", ["Fp:abc", "Fp:", "Fp:7.0", "Fp:1_0007", "Fp: 7", "Fp:7 ", "Fp:\u0667"])
def test_field_flag_without_an_integer_is_input_error(field):
    code, out, err = run_cli(["example", "sweedler", "--field", field])
    assert (code, out, err) == (2, "", f"error: field must be Q or Fp:<prime>, got {field!r}\n")


@pytest.mark.parametrize("group", ["c", "c-3", "c+3", "c\u0663", "c3x"])
def test_group_flag_takes_ascii_digits_only(group):
    code, out, err = run_cli(["example", "group", "--group", group])
    assert (code, out, err) == (2, "", f"error: unknown group {group!r} (use cN or s3)\n")


# the same for --n: other scripts' digits and underscores are usage errors
@pytest.mark.parametrize("n", ["\u0662", "0_2"])
def test_n_flag_takes_ascii_digits_only(n):
    code, out, err = run_cli_exit(["example", "en", "--n", n])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --n: invalid int value: {n!r}\n")
    assert run_cli(["example", "en", "--n", "2"])[0] == 0


@pytest.mark.parametrize("n", ["-1", "0"])
def test_n_below_one_is_the_builders_error_before_the_matrix_is_read(n):
    assert run_cli(["example", "en", "--n", n, "--A="]) == (2, "", "structure error: n must be at least 1\n")


# int() refuses more than 4300 digits by default; a longer scalar, in a file
# or a flag, is bad input with one error line, not a traceback
LONG_DIGITS = "7" * 5000
LONG_SCALAR_ERROR = "scalar with a 5000-digit integer is beyond the integer conversion limit"


@pytest.mark.parametrize("value", [LONG_DIGITS, f"1/{LONG_DIGITS}"], ids=["numerator", "denominator"])
def test_file_scalar_beyond_the_int_conversion_limit_is_input_error(tmp_path, value):
    path = tmp_path / "long.struct"
    path.write_text((GOLDEN / "h4-q.struct").read_text().replace("\nunit 0 1\n", f"\nunit 0 {value}\n", 1))
    assert run_cli(["check", str(path)]) == (2, "", f"error: line 5: {LONG_SCALAR_ERROR}\n")


def test_flag_scalar_beyond_the_int_conversion_limit_is_input_error():
    assert run_cli(["example", "sweedler", "--k", LONG_DIGITS]) == (2, "", f"error: {LONG_SCALAR_ERROR}\n")


# a scalar that parses can still print past the limit: a witness or an
# emitted table is refused with one error line, not a traceback
LONG_OUTPUT_ERROR = (f"error: scalar with an integer of more than {sys.get_int_max_str_digits()} digits is beyond "
                     "the integer conversion limit\n")


def test_witness_scalar_beyond_the_int_conversion_limit_is_input_error(tmp_path):
    path = tmp_path / "long.struct"
    path.write_text((GOLDEN / "h4-q.struct").read_text().replace("\nmul 1 1 0 1\n", f"\nmul 1 1 0 {'7' * 3000}\n", 1))
    assert run_cli(["check", str(path)]) == (2, "", LONG_OUTPUT_ERROR)


def test_example_scalar_beyond_the_int_conversion_limit_is_input_error():
    # alpha**5 has more digits than the limit, alpha itself fewer; the
    # solver's self-checks count their failures without rendering them, so
    # the builder's own error is the one line
    assert run_cli(["example", "suzuki", "--alpha", "7" * 900, "--beta", "1"]) == (
        2, "", "structure error: the braided antipode system is inconsistent\n")


@pytest.mark.parametrize("where", ["missing-dir", "is-a-dir"])
@pytest.mark.parametrize("verb", ["example", "derive"])
def test_unwritable_out_is_input_error(tmp_path, sweedler_file, verb, where):
    # a path in a directory that does not exist, or a directory itself
    out_path = tmp_path / "missing" / "x.struct" if where == "missing-dir" else tmp_path
    argv = (["example", "sweedler"] if verb == "example"
            else ["derive", str(sweedler_file), "--target", "brace"])
    code, out, err = run_cli([*argv, "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("verb", ["check", "derive", "report", "adjoint"])
def test_file_that_is_not_utf8_is_input_error(tmp_path, verb):
    path = tmp_path / "bytes.struct"
    path.write_bytes(b"\xff\xfe")
    argv = {
        "check": ["check", str(path)],
        "derive": ["derive", str(path), "--target", "brace", "--out", str(tmp_path / "out.struct")],
        "report": ["report", str(path)],
        "adjoint": ["example", "adjoint", "--from", str(path)],
    }[verb]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out.struct").exists()


def test_derive_subadjacent_golden(tmp_path, sweedler_file):
    out_path = tmp_path / "sub.struct"
    code, _, err = run_cli(["derive", str(sweedler_file), "--target", "subadjacent",
                            "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("kind hopf\n")
    lines = text.splitlines()
    # bullet-side relations of the ordinary dim-4 Hopf algebra:
    # g*g = 1 present, x*x absent (zero), x*g = -g*x
    assert "mul 1 1 0 1" in lines
    assert not any(l.startswith("mul 2 2 ") for l in lines)
    assert "mul 1 2 3 -1" in lines and "mul 2 1 3 1" in lines
    # antipode: S(g) = g, S(x) = g*x
    assert "antipode 1 1 1" in lines
    assert "antipode 2 3 1" in lines


def test_derive_matchedpair_roundtrip_bytes(tmp_path, sweedler_file):
    mp_path = tmp_path / "mp.struct"
    code, _, _ = run_cli(["derive", str(sweedler_file), "--target", "matchedpair",
                          "--out", str(mp_path)])
    assert code == 0
    back_path = tmp_path / "back.struct"
    code, _, _ = run_cli(["derive", str(mp_path), "--target", "posthopf",
                          "--out", str(back_path)])
    assert code == 0
    original = sweedler_file.read_text()
    assert back_path.read_text() == original


def test_derive_postlie_zero_dim(tmp_path, sweedler_file):
    out_path = tmp_path / "pl.struct"
    code, _, _ = run_cli(["derive", str(sweedler_file), "--target", "postlie",
                          "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert "kind postlie" in text and "dim 0" in text


def test_derive_brace_and_rb(tmp_path, sweedler_file):
    for target, kind in (("brace", "ydbrace"), ("rb_l", "relrb")):
        out_path = tmp_path / f"{target}.struct"
        code, _, _ = run_cli(["derive", str(sweedler_file), "--target", target,
                              "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text().startswith(f"kind {kind}\n")
        code, _, _ = run_cli(["check", str(out_path)])
        assert code == 0


def test_derive_post_m_roundtrip(tmp_path, sweedler_file):
    rb_path = tmp_path / "rb.struct"
    run_cli(["derive", str(sweedler_file), "--target", "rb_l", "--out", str(rb_path)])
    m_path = tmp_path / "m.struct"
    code, _, _ = run_cli(["derive", str(rb_path), "--target", "post_m",
                          "--out", str(m_path)])
    assert code == 0
    assert m_path.read_text() == sweedler_file.read_text()


def test_example_en_dim8(tmp_path):
    path = tmp_path / "en.struct"
    code, _, _ = run_cli(["example", "en", "--n", "2", "--A", "1,0;0,1",
                          "--out", str(path)])
    assert code == 0
    assert "dim 8" in path.read_text()


def test_example_grouprb(tmp_path):
    path = tmp_path / "g.struct"
    code, _, _ = run_cli(["example", "grouprb", "--group", "s3", "--rb", "inversion",
                          "--out", str(path)])
    assert code == 0
    code, out, _ = run_cli(["check", str(path), "--report", "machine"])
    assert code == 0


def test_example_adjoint_from_h4_is_structure_error(tmp_path):
    h4 = tmp_path / "h4.struct"
    run_cli(["example", "h4", "--out", str(h4)])
    code, _, err = run_cli(["example", "adjoint", "--from", str(h4),
                            "--out", str(tmp_path / "adj.struct")])
    assert code == 2
    assert "structure error" in err


def test_example_adjoint_from_group_algebra(tmp_path):
    base = tmp_path / "s3.struct"
    run_cli(["example", "group", "--group", "s3", "--out", str(base)])
    out_path = tmp_path / "adj.struct"
    code, _, _ = run_cli(["example", "adjoint", "--from", str(base),
                          "--out", str(out_path)])
    assert code == 0
    code, _, _ = run_cli(["check", str(out_path)])
    assert code == 0


def test_report_summary(sweedler_file):
    code, out, _ = run_cli(["report", str(sweedler_file)])
    assert code == 0
    assert "kind: ydpost" in out and "dim: 4" in out and "param k = 1" in out


def test_field_fp_example(tmp_path):
    path = tmp_path / "s5.struct"
    code, _, _ = run_cli(["example", "sweedler", "--k", "2", "--field", "Fp:5",
                          "--out", str(path)])
    assert code == 0
    assert "field Fp 5" in path.read_text()
    code, _, _ = run_cli(["check", str(path)])
    assert code == 0


def test_derive_post_r_and_sk(tmp_path, sweedler_file):
    rb_path = tmp_path / "rb.struct"
    run_cli(["derive", str(sweedler_file), "--target", "rb_l", "--out", str(rb_path)])
    r_path = tmp_path / "r.struct"
    code, _, _ = run_cli(["derive", str(rb_path), "--target", "post_r",
                          "--out", str(r_path)])
    assert code == 0
    assert r_path.read_text() == sweedler_file.read_text()
    sk_path = tmp_path / "sk.struct"
    code, _, _ = run_cli(["derive", str(rb_path), "--target", "sk",
                          "--out", str(sk_path)])
    assert code == 0
    text = sk_path.read_text()
    assert "k.antipode" in text
    code, _, _ = run_cli(["check", str(sk_path)])
    assert code == 0


def test_derive_sk_leaves_its_input_unchanged(tmp_path, monkeypatch, sweedler_file):
    from ydalgebra import cli
    from ydalgebra.structio import parse

    rb_path = tmp_path / "rb.struct"
    run_cli(["derive", str(sweedler_file), "--target", "rb_l", "--out", str(rb_path)])
    text = "\n".join(x for x in rb_path.read_text().splitlines() if not x.startswith("k.antipode ")) + "\n"
    held = parse(text)
    assert held.k_antipode is None
    monkeypatch.setattr(cli, "_load", lambda path: held)
    sk_path = tmp_path / "sk.struct"
    code, _, _ = run_cli(["derive", "held.struct", "--target", "sk", "--out", str(sk_path)])
    assert code == 0
    assert held.k_antipode is None
    assert "k.antipode" in sk_path.read_text()


def test_check_notes_derived_coaction(tmp_path, sweedler_file):
    rb_path = tmp_path / "rb.struct"
    run_cli(["derive", str(sweedler_file), "--target", "rb_l", "--out", str(rb_path)])
    # strip the stored coaction lines; the checker derives and reports it
    stripped = "\n".join(
        l for l in rb_path.read_text().splitlines() if not l.startswith("coaction ")
    ) + "\n"
    bare = tmp_path / "bare.struct"
    bare.write_text(stripped)
    code, _, err = run_cli(["check", str(bare)])
    assert code == 0
    assert "coaction derived" in err


def test_non_square_rmap_is_not_bijective(tmp_path, sweedler_file):
    # K = the trivial one-dimensional Hopf algebra, H = Sweedler's, R: K -> H
    # the unit map: a well-formed relrb file whose R cannot be inverted
    rb_path = tmp_path / "rb.struct"
    run_cli(["derive", str(sweedler_file), "--target", "rb_l", "--out", str(rb_path)])
    h_lines = [x for x in rb_path.read_text().splitlines() if x.startswith("h.")]
    path = tmp_path / "k1.struct"
    path.write_text("\n".join(
        ["kind relrb", "field Q", "k.dim 1", "k.basis 1", "k.unit 0 1", "k.counit 0 1",
         "k.mul 0 0 0 1", "k.comul 0 0 0 1", "k.antipode 0 0 1", *h_lines,
         "action 0 0 0 1", "action 1 0 0 1", "rmap 0 0 1"]) + "\n")
    code, out, err = run_cli(["check", str(path), "--report", "machine"])
    assert code == 1
    assert "RB-3 fail at=(0) lhs=[not bijective] rhs=[R invertible]" in out.splitlines()
    assert "Traceback" not in err
    code, out, _ = run_cli(["check", str(path), "--mode", "pre"])
    assert code == 0 and "ALL PASS" in out
    for target in ("sk", "post_m"):
        # the full suite fails RB-3 first; without it, deriving is a structure error
        code, out, err = run_cli(["derive", str(path), "--target", target,
                                  "--out", str(tmp_path / f"{target}.struct")])
        assert code == 1 and "not bijective" in out
        code, _, err = run_cli(["derive", str(path), "--target", target, "--mode", "pre",
                                "--out", str(tmp_path / f"{target}.struct")])
        assert code == 2 and err.startswith("structure error:") and "bijective" in err
        assert "Traceback" not in err


def test_adjoint_certification_error_is_the_same_on_every_run():
    # the builder's error carries the timing-free machine report, so two
    # runs print the same bytes and name the same first failure
    path = Path(__file__).parent / "golden" / "h4-q.struct"
    first, second = (run_cli(["example", "adjoint", "--from", str(path)]) for _ in range(2))
    assert first == second
    code, out, err = first
    assert code == 2 and out == ""
    assert err.startswith("structure error: builder adjoint produced an invalid structure:\n")
    assert "ALG-ASSOC fail at=(2,1,1) lhs=[2:5,3:-4] rhs=[2:1]" in err.splitlines()
    assert "time=" not in err


def test_derive_subadjacent_runs_the_hopf_suite_once(tmp_path, monkeypatch, sweedler_file):
    # the derived Hopf algebra is checked by derive's own suite run, not
    # again inside subadjacent_hopf
    from ydalgebra import hopf, posthopf

    calls = []

    def counting(h):
        calls.append(h)
        return hopf.check_hopf(h)

    monkeypatch.setattr(cli, "check_hopf", counting)
    monkeypatch.setattr(posthopf, "check_hopf", counting)
    code, _, _ = run_cli(["derive", str(sweedler_file), "--target", "subadjacent",
                          "--out", str(tmp_path / "sub.struct")])
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("report", ["machine", "text"])
def test_derive_reports_a_failing_derived_structure_as_asked(tmp_path, monkeypatch, sweedler_file, report):
    from test_golden import _mutant_text
    from ydalgebra import cli
    from ydalgebra.structio import parse

    failing = parse(_mutant_text("hopf-q"))
    monkeypatch.setattr(cli, "subadjacent_hopf", lambda s, verify: failing)
    out_path = tmp_path / "sub.struct"
    code, out, err = run_cli(["derive", str(sweedler_file), "--target", "subadjacent", "--out", str(out_path),
                              "--report", report])
    assert code == 1
    assert err == "derived structure fails its suite (inconsistent input?):\n"
    assert not out_path.exists()
    rep = cli.run_suite(failing)
    if report == "machine":
        assert out == rep.machine_text()
    else:
        assert out.endswith("FAILURES PRESENT\n") and "time=" in out


@pytest.mark.parametrize("source, target, message", [
    ("mutant", "sk", "target 'sk' does not apply to a ydpost source"),
    ("sweedler-q", "sk", "target 'sk' does not apply to a ydpost source"),
    ("sweedler-q-brace", "brace", "target 'brace' does not apply to a ydbrace source"),
    ("sweedler-q-rb_l", "posthopf", "target 'posthopf' does not apply to a relrb source"),
    ("h4-q", "posthopf", "no derivations from kind 'hopf'"),
])
def test_derive_rejects_an_inapplicable_target_before_any_suite(tmp_path, monkeypatch, source, target, message):
    # the source kind decides, so a failing source is a usage error too
    from test_golden import _mutant_text

    path = tmp_path / "source.struct"
    path.write_text(_mutant_text("ydpost-q") if source == "mutant" else (GOLDEN / f"{source}.struct").read_text())
    if source == "mutant":
        assert run_cli(["check", str(path)])[0] == 1

    def no_suite(obj, mode="full"):
        raise AssertionError("run_suite called")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    out_path = tmp_path / "out.struct"
    code, out, err = run_cli(["derive", str(path), "--target", target, "--out", str(out_path)])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


# --- one parser per process ----------------------------------------------------


def run_cli_exit(argv):
    """run_cli for a call that argparse ends: (SystemExit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def fresh_parser_exit(argv):
    """What a parser of its own prints for argv, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        make_parser().parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def test_main_builds_its_parser_once(monkeypatch):
    built = []

    def counting():
        built.append(1)
        return make_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "make_parser", counting)
    path = str(GOLDEN / "h4-q.struct")
    for argv in (["check", path], ["report", path], ["check", path, "--report", "machine"]) * 4:
        assert run_cli(argv)[0] == 0
    assert run_cli_exit(["check"])[0] == 2
    assert len(built) == 1
    # the command runs by its name at the call, so a rebound one is called
    monkeypatch.setattr(cli, "cmd_report", lambda args: 7)
    assert run_cli(["report", path]) == (7, "", "")
    assert len(built) == 1


@pytest.mark.parametrize("argv, code", [
    (["check"], 2),
    (["derive", "x.struct", "--target", "nowhere", "--out", "y.struct"], 2),
    (["example", "en", "--n", "two"], 2),
    ([], 2),
    (["--help"], 0),
    (["derive", "--help"], 0),
])
def test_usage_errors_and_help_of_a_later_call_reach_its_streams(argv, code):
    # the parser is built by an earlier call; what it prints goes to the
    # streams of the call that prints it, byte for byte as a fresh parser's
    assert run_cli(["report", str(GOLDEN / "h4-q.struct")])[0] == 0
    got = run_cli_exit(argv)
    assert got == fresh_parser_exit(argv)
    assert got[0] == code
    assert got[1 if code == 0 else 2] != ""


def test_flags_of_one_call_do_not_reach_the_next():
    path = str(GOLDEN / "sweedler-q.struct")
    full = (GOLDEN / "sweedler-q.report").read_text()
    code, out, _ = run_cli(["check", path, "--report", "machine", "--axioms", "P-DOT"])
    assert (code, out) == (0, "P-DOT pass\n")
    assert run_cli(["check", path, "--report", "machine"]) == (0, full, "")
    code, _, err = run_cli(["check", path, "--kind", "hopf"])
    assert code == 2 and "expected 'hopf'" in err
    assert run_cli(["check", path, "--report", "machine"]) == (0, full, "")
    rb = str(GOLDEN / "sweedler-q-rb_l.struct")
    code, out, _ = run_cli(["check", rb, "--report", "machine", "--mode", "pre"])
    assert code == 0 and "RB-3" not in out
    code, out, _ = run_cli(["check", rb, "--report", "machine"])
    assert code == 0 and "RB-3 pass" in out


def test_a_fresh_process_exits_and_prints_as_an_in_process_call(tmp_path):
    from test_golden import _mutate

    env = dict(os.environ, PYTHONPATH=str(Path(ydalgebra.__file__).resolve().parent.parent))

    def ydalg(*argv):
        done = subprocess.run([sys.executable, "-m", "ydalgebra.cli", *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    code, out, err = ydalg("check")
    assert code == 2 and out == "" and "the following arguments are required: path" in err
    path = str(GOLDEN / "sweedler-q.struct")
    assert ydalg("check", path, "--report", "machine") == run_cli(["check", path, "--report", "machine"])
    mutant = tmp_path / "mutant.struct"
    mutant.write_text(_mutate((GOLDEN / "sweedler-q.struct").read_text(), "action"))
    code, out, err = ydalg("check", str(mutant), "--report", "machine")
    assert code == 1 and " fail at=(" in out and err == ""


# --- mutated emit output never escapes main ------------------------------------


def _lie_examples(fs: FieldSpec):
    """A Lie operator (R = -id on a two-dimensional Lie algebra with its
    adjoint action) and a post-Lie structure with the same bracket."""
    z, e2 = Vector(2, {}, fs), unit_vector(2, 1, fs)
    bracket = [[z, e2], [e2.neg(), z]]
    lie = LieData(2, bracket, fs)
    lrb = LieRB(lie, lie, ActionTensor(2, 2, [list(row) for row in bracket], fs),
                Matrix(2, 2, {(i, i): parse_scalar("-1", fs) for i in range(2)}, fs))
    return lrb, PostLieData(2, bracket, [[z, z], [z, z]], fs)


def _emitted_of_every_kind() -> dict[str, str]:
    out = {}
    for name, fs in (("q", RATIONALS), ("f7", FieldSpec(7))):
        s = build_sweedler(parse_scalar("1", fs), fs)
        h = sweedler_hopf(fs)
        for obj in (h.algebra, h, s, functor_f(s), to_matched_pair(s), functor_l(s), *_lie_examples(fs)):
            out[f"{kind_of(obj)}-{name}"] = emit(obj)
    out["grouprb"] = emit(group_rb_inversion(symmetric_group_3()))
    return out


EMITTED = _emitted_of_every_kind()
DIMENSION_LINES = ("dim", "k.dim", "h.dim", "g.dim", "gorder", "horder")
SCALARS = ("0", "1", "-1", "1/2", "-3/5", "7", "2/4", "1/0", "x", "99999999999")
INDICES = ("0", "1", "-1", "3", "4", "6", "99", "a")
EDITS = ("delete", "duplicate", "scalar", "index", "dimension", "swap", "truncate", "drop directive",
         "negate directive")


def _edit(lines: list[str], edit) -> list[str]:
    """One edit of a file's lines, at line i: kind, i, j and choice pick the
    edit, the lines, the token and the new value, each taken modulo its
    range."""
    kind, i, j, choice = edit
    if not lines:
        return lines
    i %= len(lines)
    parts = lines[i].split()
    if not parts:
        return lines
    lines = list(lines)
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "scalar":
        lines[i] = " ".join([*parts[:-1], SCALARS[choice % len(SCALARS)]])
    elif kind == "index" and len(parts) > 1:
        parts[1 + j % (len(parts) - 1)] = INDICES[choice % len(INDICES)]
        lines[i] = " ".join(parts)
    elif kind == "dimension":
        at = [k for k, line in enumerate(lines) if line.split()[:1] and line.split()[0] in DIMENSION_LINES]
        if at:
            k = at[j % len(at)]
            head, *rest = lines[k].split()
            d = int(rest[0]) if rest and rest[0].isdigit() else 1
            lines[k] = f"{head} {(0, 1, d - 1, d + 1, 2 * d)[choice % 5]}"
    elif kind == "swap":
        j %= len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate":
        lines[i] = " ".join(parts[:-1])
    elif kind == "drop directive":
        lines = [line for line in lines if line.split()[:1] != parts[:1]]
    elif kind == "negate directive":
        # every coefficient of the directive changes sign
        for k, line in enumerate(lines):
            ps = line.split()
            if ps[:1] == parts[:1] and len(ps) > 2:
                ps[-1] = ps[-1][1:] if ps[-1].startswith("-") else "-" + ps[-1]
                lines[k] = " ".join(ps)
    return lines


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_every_kind_is_emitted_and_passes_unedited(fuzz_dir):
    assert {name.rsplit("-", 1)[0] for name in EMITTED} == {
        "algebra", "hopf", "ydpost", "ydbrace", "matchedpair", "relrb", "grouprb", "lierb", "postlie"}
    for name, text in EMITTED.items():
        path = fuzz_dir / f"{name}.struct"
        path.write_text(text)
        assert run_cli(["check", str(path), "--report", "machine"])[0] == 0, name


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(sorted(EMITTED)),
       st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 10**4), st.integers(0, 10**4),
                          st.integers(0, 10**4)), min_size=1, max_size=4))
def test_edited_emit_output_is_checked_without_escaping(fuzz_dir, name, edits):
    lines = EMITTED[name].splitlines()
    for edit in edits:
        lines = _edit(lines, edit)
    path = fuzz_dir / "edited.struct"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["check", str(path), "--report", "machine"])
    assert code in (0, 1, 2)
    assert ("error: " in err) == (code == 2)
