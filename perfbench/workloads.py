"""The four benchmark workloads: seeded inputs, rounds of ops, output checks.

A workload has a set-up step, which builds its seeded inputs once per
process, and a round: a fixed list of ops whose mix, and so whose cost, does
not depend on the seed.  The seed only picks values, signs, targets,
mutations and their order.  Round ``r`` of seed ``s`` is the same on every
call, so a traced or counting pass can replay exactly the ops an untraced
pass ran.

An op is one ``ydalgebra.cli.main(argv)`` call or one call of an exported
library function.  Each op has a check; an op that raises, prints a
traceback, exits with the wrong code or writes a wrong output fails.
"""

from __future__ import annotations

import contextlib
import io
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import ydalgebra
import ydalgebra.cli

INTS = ("1", "2", "3", "-1", "-2", "-3")
RATIONALS = ("1/2", "-1/2", "1/3", "-1/3", "2/3", "-2/3", "3/2", "-3/2")
PRIMES = (10007, 10009, 10037, 10039, 10061)

DERIVE_KIND = {
    "subadjacent": "hopf",
    "postlie": "postlie",
    "brace": "ydbrace",
    "matchedpair": "matchedpair",
    "rb_l": "relrb",
}
# Both re-run the full dim-16 source suite and end in a small derived suite,
# so the E(3) derive costs the same whichever of them the seed picks.  The
# other three cost about twice as much on E(3) (6 s against 11 s here).
E3_TARGETS = ("subadjacent", "postlie")

# A failed op is "crash" when it raised (a user sees a traceback) and "wrong"
# when it returned a wrong verdict, exit code or output.
CRASH, WRONG = "crash", "wrong"


@dataclass
class CliResult:
    rc: int
    out: str
    err: str
    tb: str | None


def run_cli(argv: list[str]) -> CliResult:
    """One in-process CLI call, with what ``python -m ydalgebra.cli`` would
    show: an escaping exception is a traceback and exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    tb = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = ydalgebra.cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:
            tb = traceback.format_exc()
            rc = 1
    return CliResult(rc, out.getvalue(), err.getvalue(), tb)


@dataclass
class Op:
    """One timed call.  ``run`` does the call; ``check`` gets its result and
    returns (failure class or None, reason, bytes for the output digest)."""

    verb: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, str, bytes]]


# --- output checks ---------------------------------------------------------


def _statuses(report: str) -> list[str] | None:
    """Statuses of a machine report, or None when a line is malformed."""
    lines = report.splitlines()
    if not lines:
        return None
    out = []
    for line in lines:
        parts = line.split(" ", 2)
        if len(parts) < 2 or parts[1] not in ("pass", "fail", "skipped"):
            return None
        out.append(parts[1])
    return out


def _cli_digest(res: CliResult, *files: Path) -> bytes:
    blob = f"{res.rc}\n{res.out}".encode()
    for f in files:
        blob += f.read_bytes() if f.exists() else b"<missing>"
    return blob


def _crashed(res: CliResult):
    if res.tb is not None:
        return CRASH, "traceback: " + res.tb.strip().splitlines()[-1], _cli_digest(res)
    return None


def _round_trips(path: Path, kind: str) -> str | None:
    if not path.exists():
        return f"{path.name} was not written"
    text = path.read_text(encoding="utf-8")
    if not text.startswith(f"kind {kind}\n"):
        return f"{path.name} is not a {kind} file"
    if ydalgebra.emit(ydalgebra.parse(text)) != text:
        return f"parse o emit changes the bytes of {path.name}"
    return None


def example_op(argv: list[str], out: Path) -> Op:
    def check(res: CliResult):
        bad = _crashed(res)
        if bad:
            return bad
        if res.rc != 0:
            return WRONG, f"example exited {res.rc}: {res.err.strip()}", _cli_digest(res)
        why = _round_trips(out, "ydpost")
        return (WRONG if why else None), why or "", _cli_digest(res, out)

    return Op("example", lambda: run_cli(["example", *argv, "--out", str(out)]), check)


def check_op(path: Path) -> Op:
    """``check --report machine`` on a file that must pass every axiom."""

    def check(res: CliResult):
        bad = _crashed(res)
        if bad:
            return bad
        st = _statuses(res.out)
        if res.rc != 0 or st is None or any(s != "pass" for s in st):
            return WRONG, f"check exited {res.rc} without an all-pass report", _cli_digest(res)
        return None, "", _cli_digest(res)

    return Op("check", lambda: run_cli(["check", str(path), "--report", "machine"]), check)


def derive_op(src: Path, target: str, out: Path) -> Op:
    def check(res: CliResult):
        bad = _crashed(res)
        if bad:
            return bad
        if res.rc != 0:
            return WRONG, f"derive {target} exited {res.rc}", _cli_digest(res)
        why = _round_trips(out, DERIVE_KIND[target])
        return (WRONG if why else None), why or "", _cli_digest(res, out)

    argv = ["derive", str(src), "--target", target, "--out", str(out)]
    return Op("derive", lambda: run_cli(argv), check)


def mutant_check_op(path: Path, malformed: bool) -> Op:
    """``check --report machine`` on a mutated or malformed file.

    Well-formed: exit 0 with an all-pass report, exit 1 with a report that
    has a FAIL line, or exit 2 with an error line.  Malformed: exit 2 with
    an error line.  Never a traceback."""

    def check(res: CliResult):
        bad = _crashed(res)
        if bad:
            return bad
        digest = _cli_digest(res)
        if res.rc == 2:
            if res.out or not res.err.startswith(("error: ", "structure error: ")):
                return WRONG, "exit 2 without exactly one error line", digest
            return None, "", digest
        if malformed:
            return WRONG, f"malformed input accepted with exit {res.rc}", digest
        st = _statuses(res.out)
        if st is None or res.rc not in (0, 1) or (res.rc == 0) != all(s == "pass" for s in st):
            return WRONG, f"exit {res.rc} disagrees with the machine report", digest
        return None, "", digest

    return Op("check", lambda: run_cli(["check", str(path), "--report", "machine"]), check)


def library_op(verb: str, call: Callable[[], object], render: Callable[[object], str],
               expected: str) -> Op:
    def check(result):
        text = render(result)
        if text != expected:
            return WRONG, f"{verb} differs from the builder reference", text.encode()
        return None, "", text.encode()

    return Op(verb, call, check)


# --- verify-q16 / verify-fp16 ----------------------------------------------


def _values(rng: random.Random, ints: int, rationals: int) -> list[str]:
    """Seeded values, a fixed number of them integers, at seeded places: the
    integer share drives the cost of Fraction arithmetic."""
    kinds = [INTS] * ints + [RATIONALS] * rationals
    rng.shuffle(kinds)
    return [rng.choice(k) for k in kinds]


def _e3_matrix(rng: random.Random) -> str:
    """E(3) coefficient matrix: the diagonal plus the (0,1) pair."""
    d0, d1, d2, o = _values(rng, 2, 2)
    return f"{d0},{o},0;{o},{d1},0;0,0,{d2}"


def _field_flag(rng: random.Random, prime_field: bool) -> list[str]:
    if not prime_field:
        return []
    # Below about 30, some E(3) structure constants vanish mod p (p = 11
    # drops 48 of 1266 lines for one seed), which changes the tensor
    # pattern and the cost; at these primes the pattern is that over Q.
    return ["--field", f"Fp:{rng.choice(PRIMES)}"]


class Verify:
    """example -> check -> derive -> check the derived file, as a user would,
    on dim-16 structures: one E(3) and five Suzuki(+-1, +-1) per round, the
    five Suzuki derives covering the five targets in seeded order.  The
    inputs are argv lists, made with each round."""

    setup_repeats = 1

    def __init__(self, prime_field: bool):
        self.prime_field = prime_field

    def setup(self, seed: int, work: Path):
        return None

    def round(self, inputs, work: Path, seed: int, r: int) -> list[Op]:
        rng = random.Random(f"verify:{seed}:{r}")
        field = _field_flag(rng, self.prime_field)
        chains = [(["en", "--n", "3", f"--A={_e3_matrix(rng)}"], rng.choice(E3_TARGETS))]
        targets = list(DERIVE_KIND)
        rng.shuffle(targets)
        for target in targets:
            alpha, beta = rng.choice(("1", "-1")), rng.choice(("1", "-1"))
            chains.append((["suzuki", f"--alpha={alpha}", f"--beta={beta}"], target))
        ops = []
        for i, (example, target) in enumerate(chains):
            src, dst = work / f"r{r}_{i}.struct", work / f"r{r}_{i}_{target}.struct"
            ops += [
                example_op(example + field, src),
                check_op(src),
                derive_op(src, target, dst),
                check_op(dst),
            ]
        return ops


# --- solve-q32 ----------------------------------------------------------------


def _matrix_text(m) -> str:
    return "".join(f"{r} {c} {ydalgebra.format_scalar(v)}\n"
                   for (r, c), v in sorted(m.entries.items()))


@dataclass
class SolveInput:
    path: Path
    stripped: str
    full: str
    antipode: str
    sharp: str
    sk: str


class Solve:
    """Library solves on four E(3) files and one E(4) file (dims 16 and 32,
    seeded diagonal A) whose ``beta`` lines are stripped: parse, solve_beta,
    solve_antipode on the carrier, sharp_antipode, antipode_sk(functor_l).
    No axiom suite runs in the timed phase.  With four dim-16 files, the
    median op falls inside a group of four like ops rather than on the gap
    between two kinds of op, which makes it steady across seeds."""

    # Set-up builds and certifies E(4) (8-12 s on a 2-vCPU virtual machine): once.
    setup_repeats = 1

    def setup(self, seed: int, work: Path) -> list[SolveInput]:
        rng = random.Random(f"solve:{seed}")
        inputs = []
        for k, n in enumerate((3, 3, 3, 3, 4)):
            diag = [Fraction(v) for v in _values(rng, n - 2, 2)]
            a = [[diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
            s = ydalgebra.build_en(n, a)
            full = ydalgebra.emit(s)
            stripped = "".join(line for line in full.splitlines(keepends=True)
                               if not line.startswith("beta "))
            path = work / f"e{n}_{k}_no_beta.struct"
            path.write_text(stripped, encoding="utf-8")
            inputs.append(SolveInput(
                path, stripped, full,
                _matrix_text(s.carrier.s_map),
                _matrix_text(ydalgebra.sharp_antipode(s)),
                _matrix_text(ydalgebra.antipode_sk(ydalgebra.functor_l(s))),
            ))
        return inputs

    def round(self, inputs: list[SolveInput], work: Path, seed: int, r: int) -> list[Op]:
        ops = []
        for inp in inputs:
            box = {}

            def parse(inp=inp, box=box):
                box["s"] = ydalgebra.parse(inp.path.read_text(encoding="utf-8"))
                return box["s"]

            def solve_beta(box=box):
                ydalgebra.solve_beta(box["s"])
                return box["s"]

            def solve_antipode(box=box):
                s = box["s"]
                return ydalgebra.solve_antipode(s.carrier.algebra, s.carrier.coalgebra)

            ops += [
                library_op("parse", parse, ydalgebra.emit, inp.stripped),
                library_op("solve_beta", solve_beta, ydalgebra.emit, inp.full),
                library_op("solve_antipode", solve_antipode, _matrix_text, inp.antipode),
                library_op("sharp_antipode", lambda box=box: ydalgebra.sharp_antipode(box["s"]),
                           _matrix_text, inp.sharp),
                library_op("antipode_sk",
                           lambda box=box: ydalgebra.antipode_sk(ydalgebra.functor_l(box["s"])),
                           _matrix_text, inp.sk),
            ]
        return ops


# --- mutants-small ----------------------------------------------------------

HEADERS = {"kind", "field", "dim", "basis", "param", "k.dim", "k.basis", "h.dim",
           "h.basis", "g.dim", "g.basis", "gorder", "gelems", "horder", "helems"}
SIZE_HEADERS = ("dim", "k.dim", "h.dim", "g.dim", "gorder", "horder")
MALFORMATIONS = ("truncated", "bad_scalar", "out_of_range", "bare_header")
BAD_SCALARS = ("0", "1/0", "x", "2/", "1.5")


def _mutant_bases(seed: int) -> list[tuple[str, str]]:
    """Every kind the CLI emits or derives at dims 4-8, plus a group
    weight-1 operator file, as (name, text)."""
    rng = random.Random(f"mutants:{seed}")
    k = Fraction(rng.choice(INTS + RATIONALS))
    o = Fraction(rng.choice(INTS + RATIONALS))
    a = [[Fraction(rng.choice(INTS)), o], [o, Fraction(rng.choice(RATIONALS))]]
    sw = ydalgebra.build_sweedler(k)
    e2 = ydalgebra.build_en(2, a)
    s3 = ydalgebra.symmetric_group_3()
    objs = [
        ("sweedler", sw),
        ("en2", e2),
        ("h4", ydalgebra.sweedler_hopf()),
        ("group_s3", ydalgebra.group_algebra(s3)),
        ("brace_en2", ydalgebra.functor_f(e2)),
        ("matchedpair_sweedler", ydalgebra.to_matched_pair(sw)),
        ("rb_l_en2", ydalgebra.functor_l(e2)),
        ("grouprb_s3", ydalgebra.group_rb_inversion(s3)),
    ]
    return [(name, ydalgebra.emit(obj)) for name, obj in objs]


def _value_lines(lines: list[str]) -> list[int]:
    return [i for i, line in enumerate(lines) if line.split()[0] not in HEADERS]


def _indices(line: str, grouprb: bool) -> list[int]:
    parts = line.split()[1:]
    return [int(t) for t in (parts if grouprb else parts[:-1])]


def _mutate(text: str, rng: random.Random) -> str:
    """One coefficient changed, added or deleted.  grouprb files hold index
    tables instead, so there the last index is changed, repeated or deleted."""
    lines = text.splitlines()
    grouprb = lines[0] == "kind grouprb"
    fp = next((int(l.split()[2]) for l in lines if l.startswith("field Fp ")), None)
    i = rng.choice(_value_lines(lines))
    parts = lines[i].split()
    how = rng.choice(("change", "add", "delete"))
    if how == "delete":
        del lines[i]
    elif how == "change":
        if grouprb:
            parts[-1] = str((int(parts[-1]) + 1) % 6)  # the base table is S3
        else:
            new = Fraction(parts[-1]) + rng.choice((1, 2, -1, Fraction(1, 2)))
            if fp is not None:
                new = new.numerator * pow(new.denominator, -1, fp) % fp
            parts[-1] = str(new or 5)
        lines[i] = " ".join(parts)
    else:
        if not grouprb:
            taken = {tuple(_indices(l, False)) for l in lines if l.split()[0] == parts[0]}
            idx = _indices(lines[i], False)
            for step in range(1, 4):
                # Every index range in the base files is at least 4.
                cand = idx[:-1] + [(idx[-1] + step) % 4]
                if tuple(cand) not in taken:
                    parts = [parts[0], *map(str, cand), parts[-1]]
                    break
        lines.insert(i, " ".join(parts))
        block = [j for j, l in enumerate(lines) if l.split()[0] == parts[0]]
        ordered = sorted((lines[j] for j in block), key=lambda l: _indices(l, grouprb))
        for j, line in zip(block, ordered):
            lines[j] = line
    return "\n".join(lines) + "\n"


def _malform(text: str, how: str, rng: random.Random) -> str:
    lines = text.splitlines()
    if how == "bare_header":
        i = rng.choice([j for j, l in enumerate(lines) if l.split()[0] in SIZE_HEADERS])
        lines[i] = lines[i].split()[0]
    else:
        i = rng.choice(_value_lines(lines))
        parts = lines[i].split()
        if how == "truncated":
            parts.pop()
        elif how == "bad_scalar":
            # A zero coefficient is malformed, a zero index is not.
            grouprb = lines[0] == "kind grouprb"
            parts[-1] = rng.choice(BAD_SCALARS[1:] if grouprb else BAD_SCALARS)
        else:
            parts[1] = str(64 + rng.randrange(4))
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


class Mutants:
    """``check --report machine`` on small mutated files, each seen once.
    A round holds, for every base file, three well-formed mutants and one
    malformed file of each malformation kind."""

    setup_repeats = 3

    def setup(self, seed: int, work: Path):
        return _mutant_bases(seed)

    def round(self, bases, work: Path, seed: int, r: int) -> list[Op]:
        rng = random.Random(f"mutants:{seed}:{r}")
        ops = []
        for name, text in bases:
            files = [(_mutate(text, rng), False) for _ in range(3)]
            files += [(_malform(text, how, rng), True) for how in MALFORMATIONS]
            for j, (body, malformed) in enumerate(files):
                # Written while the round is built, before any op is timed.
                path = work / f"r{r}_{name}_{j}.struct"
                path.write_text(body, encoding="utf-8")
                ops.append(mutant_check_op(path, malformed))
        return ops


WORKLOADS = {
    "verify-q16": Verify(prime_field=False),
    "verify-fp16": Verify(prime_field=True),
    "solve-q32": Solve(),
    "mutants-small": Mutants(),
}
