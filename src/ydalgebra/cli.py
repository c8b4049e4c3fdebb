"""Command-line front end: check structure files, derive new structures,
emit the built-in examples, summarize files.

Exit codes: 0 all checks pass, 1 at least one axiom fails, 2 input or
usage errors.  Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .braces import (
    check_matched_pair,
    check_yd_brace,
    from_matched_pair,
    functor_f,
    functor_g,
    to_matched_pair,
)
from .builders import (
    build_adjoint,
    build_en,
    build_group_rb_linearization,
    build_suzuki,
    build_sweedler,
    build_trivial,
    cyclic_group,
    group_algebra,
    group_rb_identity,
    group_rb_inversion,
    sweedler_hopf,
    symmetric_group_3,
)
from .field import FieldSpec, RATIONALS, FieldError, format_scalar, parse_int, parse_scalar
from .hopf import HopfData, StructureError, check_algebra, check_hopf
from .posthopf import (
    YDPostHopf,
    check_yd_hopf_monoid,
    check_yd_post_hopf,
    check_post_lie,
    extract_post_lie,
    subadjacent_hopf,
)
from .report import AXIOM_ORDER, CheckReport, skipped_entry
from .rota import (
    GroupRB,
    LieRB,
    RelRB,
    antipode_sk,
    check_group_rb,
    check_lie_rb,
    check_rel_rb,
    functor_l,
    functor_m,
    functor_r,
)
from .structio import ParseError, emit, kind_of, parse


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}")
    return parse(text)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e}")


def _ydpost_suite(obj: YDPostHopf) -> CheckReport:
    """The post-Hopf suite, then the YD Hopf monoid suite once it passes."""
    rep = check_yd_post_hopf(obj)
    if rep.all_pass():
        rep.extend(check_yd_hopf_monoid(obj))
    return rep


# The check suite of each kind, given the structure and the --mode flag;
# the suites are looked up when one runs.
_SUITES = {
    "ydpost": lambda obj, mode: _ydpost_suite(obj),
    "ydbrace": lambda obj, mode: check_yd_brace(obj),
    "matchedpair": lambda obj, mode: check_matched_pair(obj),
    "relrb": lambda obj, mode: check_rel_rb(obj, mode=mode),
    "grouprb": lambda obj, mode: check_group_rb(obj),
    "lierb": lambda obj, mode: check_lie_rb(obj),
    "postlie": lambda obj, mode: check_post_lie(obj),
    "hopf": lambda obj, mode: check_hopf(obj),
    "algebra": lambda obj, mode: check_algebra(obj),
}


def run_suite(obj, mode: str = "full") -> CheckReport:
    """The full check suite for a structure, dispatched on its kind."""
    return _SUITES[kind_of(obj)](obj, mode)


def _print_report(rep: CheckReport, fmt: str, wanted: list[str] | None = None) -> int:
    """Print rep, or only the IDs in wanted, in suite order.  A wanted ID
    that rep has no entry for was not checked: a usage error when rep passes
    (the ID does not apply to the file), and a skipped entry when it fails
    (an earlier failure stopped the suite short of it)."""
    if wanted is not None:
        checked = {e.axiom for e in rep.entries}
        missing = [a for a in wanted if a not in checked]
        if missing and rep.all_pass():
            raise ParseError(f"not checked for this file: {', '.join(missing)}")
        rep = CheckReport([e for e in rep.entries if e.axiom in wanted] + [skipped_entry(a) for a in missing])
    sys.stdout.write(rep.machine_text() if fmt == "machine" else rep.text())
    return 0 if rep.all_pass() else 1


def _parse_field_flag(text: str) -> FieldSpec:
    if text == "Q":
        return RATIONALS
    if text.startswith("Fp:"):
        try:
            p = parse_int(text[3:])
        except ValueError:
            pass
        else:
            return FieldSpec(p)
    raise FieldError(f"field must be Q or Fp:<prime>, got {text!r}")


def cmd_check(args) -> int:
    # an empty --axioms list or an unknown ID is a usage error, found before
    # the file is read
    wanted = None
    if args.axioms is not None:
        wanted = [a.strip() for a in args.axioms.split(",") if a.strip()]
        if not wanted or any(a not in AXIOM_ORDER for a in wanted):
            raise ParseError(f"--axioms needs known axiom ids, got {args.axioms!r}")
    obj = _load(args.path)
    if args.kind and kind_of(obj) != args.kind:
        raise ParseError(f"file declares kind {kind_of(obj)!r}, expected {args.kind!r}")
    if isinstance(obj, RelRB) and obj.coaction is None:
        sys.stderr.write("note: coaction derived from R(a_1) S(R(a_3)) (x) a_2\n")
    rep = run_suite(obj, mode=args.mode)
    return _print_report(rep, args.report, wanted)


_DERIVE_TARGETS = (
    "subadjacent", "brace", "posthopf", "matchedpair",
    "rb_l", "post_m", "post_r", "sk", "postlie",
)

# The derivations from each source kind, by target.  Each takes the source
# and the --mode flag; the functors are looked up when one runs.
_DERIVATIONS = {
    "ydpost": {
        "subadjacent": lambda s, mode: subadjacent_hopf(s, verify=False),
        "brace": lambda s, mode: functor_f(s),
        "matchedpair": lambda s, mode: to_matched_pair(s),
        "rb_l": lambda s, mode: functor_l(s),
        "postlie": lambda s, mode: extract_post_lie(s),
    },
    "ydbrace": {"posthopf": lambda s, mode: functor_g(s)},
    "matchedpair": {"posthopf": lambda s, mode: from_matched_pair(s)},
    "relrb": {
        "post_m": lambda s, mode: functor_m(s),
        "post_r": lambda s, mode: functor_r(s, mode="D" if mode == "full" else "Cprime"),
        "sk": lambda s, mode: dataclasses.replace(s, k_antipode=antipode_sk(s)),
    },
}


def cmd_derive(args) -> int:
    obj = _load(args.path)
    # a target that does not apply to the source's kind is a usage error,
    # found before any suite runs
    kind = kind_of(obj)
    if kind not in _DERIVATIONS:
        raise ParseError(f"no derivations from kind {kind!r}")
    derive = _DERIVATIONS[kind].get(args.target)
    if derive is None:
        raise ParseError(f"target {args.target!r} does not apply to a {kind} source")
    rep = run_suite(obj, mode=args.mode)
    if not rep.all_pass():
        sys.stderr.write("source structure fails its suite:\n")
        return _print_report(rep, args.report)
    derived = derive(obj, args.mode)
    derived_rep = run_suite(derived, mode=args.mode)
    if not derived_rep.all_pass():
        sys.stderr.write("derived structure fails its suite (inconsistent input?):\n")
        return _print_report(derived_rep, args.report)
    _write(args.out, emit(derived))
    sys.stderr.write(f"wrote {kind_of(derived)} structure to {args.out}\n")
    return 0


def _parse_a_matrix(text: str, n: int, field: FieldSpec):
    rows = [r for r in text.split(";") if r.strip()]
    if len(rows) != n:
        raise ParseError(f"expected {n} rows in the coefficient matrix")
    out = []
    for row in rows:
        entries = [e.strip() for e in row.split(",")]
        if len(entries) != n:
            raise ParseError(f"expected {n} entries per row")
        out.append([parse_scalar(e, field) for e in entries])
    return out


def _group_by_name(name: str):
    if name == "s3":
        return symmetric_group_3()
    if name.startswith("c") and name[1:2] not in ("+", "-"):  # cN with N unsigned
        try:
            return cyclic_group(parse_int(name[1:]))
        except ValueError:
            pass
    raise ParseError(f"unknown group {name!r} (use cN or s3)")


def _int_arg(text: str) -> int:
    """An integer flag value in ASCII digits (``field.parse_int``); argparse
    reports any other text as a usage error."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def cmd_example(args) -> int:
    field = _parse_field_flag(args.field)
    name = args.name
    if name == "trivial":
        obj = build_trivial(field)
    elif name == "sweedler":
        obj = build_sweedler(parse_scalar(args.k, field), field)
    elif name == "en":
        # the builder rejects an n below 1 before any matrix is read
        a = _parse_a_matrix(args.A, args.n, field) if args.n >= 1 else []
        obj = build_en(args.n, a, field)
    elif name == "suzuki":
        obj = build_suzuki(parse_scalar(args.alpha, field),
                           parse_scalar(args.beta, field), field)
    elif name == "adjoint":
        if args.src is None:
            raise ParseError("example adjoint needs --from <hopf file>")
        base = _load(args.src)
        if not isinstance(base, HopfData):
            raise ParseError("the --from file must contain a hopf structure")
        obj = build_adjoint(base)
    elif name == "grouprb":
        table = _group_by_name(args.group)
        grb = group_rb_inversion(table) if args.rb == "inversion" else group_rb_identity(table)
        obj = build_group_rb_linearization(grb, field)
    elif name == "h4":
        obj = sweedler_hopf(field)
    elif name == "group":
        obj = group_algebra(_group_by_name(args.group), field)
    else:
        raise ParseError(f"unknown example {name!r}")
    text = emit(obj)
    if args.out:
        _write(args.out, text)
        sys.stderr.write(f"wrote {kind_of(obj)} structure to {args.out}\n")
    else:
        sys.stdout.write(text)
    return 0


def cmd_report(args) -> int:
    obj = _load(args.path)
    kind = kind_of(obj)
    sys.stdout.write(f"kind: {kind}\n")
    if isinstance(obj, GroupRB):
        sys.stdout.write(f"orders: G={obj.group_g.order} H={obj.group_h.order}\n")
        return 0
    if isinstance(obj, LieRB):
        sys.stdout.write(f"dims: g={obj.lie_g.dim} h={obj.lie_h.dim}\n")
        return 0
    if isinstance(obj, RelRB):
        sys.stdout.write(f"dims: K={obj.k_alg.dim} H={obj.h.dim}\n")
        sys.stdout.write(f"field: {obj.field.kind}"
                         + (f" p={obj.field.p}" if obj.field.p else "") + "\n")
        sys.stdout.write(f"rmap entries: {len(obj.r_map.entries)}\n")
        return 0
    dim = obj.dim
    field = obj.field
    sys.stdout.write(f"dim: {dim}\n")
    sys.stdout.write(f"field: {field.kind}" + (f" p={field.p}" if field.p else "") + "\n")
    if isinstance(obj, YDPostHopf):
        labels = obj.carrier.algebra.basis_labels
        sys.stdout.write("basis: " + " ".join(labels) + "\n")
        nz = sum(len(v.entries) for row in obj.carrier.algebra.mul for v in row)
        sys.stdout.write(f"product entries: {nz}\n")
        nz = sum(len(v.entries) for row in obj.action.act for v in row)
        sys.stdout.write(f"action entries: {nz}\n")
        for k in sorted(obj.params):
            sys.stdout.write(f"param {k} = {format_scalar(obj.params[k])}\n")
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ydalg",
        description="exact verification and derivation for braided post-Hopf "
                    "structures, braces, matched pairs and Rota-Baxter operators",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run a structure file's axiom suite")
    c.add_argument("path")
    c.add_argument("--kind", choices=None, default=None,
                   help="require the file to declare this kind")
    c.add_argument("--axioms", default=None, help="comma-separated axiom ids to report")
    c.add_argument("--report", choices=("text", "machine"), default="text")
    c.add_argument("--mode", choices=("pre", "full"), default="full",
                   help="relative Rota-Baxter notion to check")

    d = sub.add_parser("derive", help="derive and write a converted structure")
    d.add_argument("path")
    d.add_argument("--target", choices=_DERIVE_TARGETS, required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--report", choices=("text", "machine"), default="text")
    d.add_argument("--mode", choices=("pre", "full"), default="full")

    e = sub.add_parser("example", help="emit a built-in example structure")
    e.add_argument("name", choices=("trivial", "sweedler", "en", "suzuki",
                                    "adjoint", "grouprb", "h4", "group"))
    e.add_argument("--k", default="1", help="parameter for the dim-4 example")
    e.add_argument("--n", type=_int_arg, default=2)
    e.add_argument("--A", default="1,0;0,1", help="symmetric matrix rows 'a,b;c,d'")
    e.add_argument("--alpha", default="1")
    e.add_argument("--beta", default="1")
    e.add_argument("--from", dest="src", default=None,
                   help="hopf structure file for the adjoint construction")
    e.add_argument("--group", default="s3", help="group name: cN or s3")
    e.add_argument("--rb", choices=("identity", "inversion"), default="inversion")
    e.add_argument("--field", default="Q", help="Q or Fp:<prime>")
    e.add_argument("--out", default=None)

    r = sub.add_parser("report", help="summarize a structure file")
    r.add_argument("path")
    return p


# The parser of main, built on its first call and kept for the process:
# parsing holds no state between calls, and argparse writes its usage
# errors and help to the sys.stdout and sys.stderr of the call.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = make_parser()
    args = _parser.parse_args(argv)
    # the command is looked up by name at each call, so a rebound cmd_*
    # runs even though the parser outlives it
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except (ParseError, FieldError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except StructureError as e:
        sys.stderr.write(f"structure error: {e}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
