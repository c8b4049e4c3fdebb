"""Command-line behavior: exit codes, report formats, golden derivations."""

import io
import sys
from pathlib import Path

import pytest

from ydalgebra.builders import group_rb_inversion, symmetric_group_3
from ydalgebra.cli import main
from ydalgebra.structio import emit


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


@pytest.mark.parametrize("report", ["machine", "text"])
def test_derive_reports_a_failing_derived_structure_as_asked(tmp_path, monkeypatch, sweedler_file, report):
    from test_golden import _mutant_text
    from ydalgebra import cli
    from ydalgebra.structio import parse

    failing = parse(_mutant_text("hopf-q"))
    monkeypatch.setattr(cli, "subadjacent_hopf", lambda s: failing)
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
