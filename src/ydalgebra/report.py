"""Check reports: stable axiom identifiers, witnesses, deterministic output.

Every verification routine in the workbench produces a CheckReport, an
ordered list of (axiom id, status, witness) entries.  The machine rendering
is byte-deterministic: same input structure, same report bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from time import perf_counter

from .field import format_scalar
from .linalg import Vector

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

# Stable catalogue of axiom identifiers, in canonical report order.
AXIOM_ORDER = [
    "ALG-ASSOC", "ALG-UNIT",
    "COALG-COASSOC", "COALG-COUNIT",
    "HOPF-DELTA-MULT", "HOPF-EPS-MULT", "HOPF-DELTA-UNIT", "HOPF-EPS-UNIT",
    "HOPF-ANTIPODE",
    "P-COALG", "P-S", "P-DOT", "P-ASSOC", "P-CONV", "P-DELTA", "P-ANTI",
    "P-MP5",
    "L-U", "L-1ACT", "L-SLIN", "L-BETA", "L-DA", "L-DB", "L-MA", "L-MB",
    "L-ANTI2",
    "YD-MODULE", "YD-MODALG", "YD-MODCOALG", "YD-COMPAT", "YD-BRAIDMULT",
    "YD-COLINEAR",
    "HB-HOPF", "HB-COMPAT", "HB-YD", "HB-MP5",
    "MP-HOPF", "MP-MODC", "MP-1", "MP-2", "MP-3", "MP-4", "MP-BC", "MP-5",
    "RB-SPACES", "RB-COALG", "RB-1", "RB-2", "RB-BIMON", "RB-3",
    "RBM-F", "RBM-G", "RBM-COMM", "RBM-ACT",
    "PL-SKEW", "PL-JAC", "PL-1", "PL-2", "PL-SUB",
    "GRB-GROUP-G", "GRB-GROUP-H", "GRB-ACTION", "GRB-W1",
    "LRB-LIE-G", "LRB-LIE-H", "LRB-ACTION", "LRB-W1", "LRB-POSTLIE",
]

_AXIOMS = set(AXIOM_ORDER)


def vector_text(v: Vector) -> str:
    if v.is_zero():
        return "0"
    return ",".join(f"{i}:{format_scalar(c)}" for i, c in v.items_sorted())


def pairs_text(entries: dict) -> str:
    """Canonical text for a raw sparse dict keyed by int or tuple."""
    if not entries:
        return "0"
    parts = []
    for k in sorted(entries):
        key = ",".join(str(x) for x in k) if isinstance(k, tuple) else str(k)
        parts.append(f"({key}):{format_scalar(entries[k])}")
    return ";".join(parts)


@dataclass
class Witness:
    """First failing tuple with both sides rendered canonically."""

    where: tuple
    lhs: str
    rhs: str

    def text(self) -> str:
        idx = ",".join(str(i) for i in self.where)
        return f"at=({idx}) lhs=[{self.lhs}] rhs=[{self.rhs}]"


@dataclass
class CheckEntry:
    axiom: str
    status: str
    witness: Witness | None = None
    checked: int = 0
    failures: int = 0
    seconds: float = 0.0

    def __post_init__(self):
        if self.axiom not in _AXIOMS:
            raise ValueError(f"unknown axiom id {self.axiom!r}")


@dataclass
class CheckReport:
    entries: list[CheckEntry] = dc_field(default_factory=list)

    def add(self, entry: CheckEntry) -> None:
        self.entries.append(entry)

    def entry(self, axiom: str) -> CheckEntry:
        for e in self.entries:
            if e.axiom == axiom:
                return e
        raise KeyError(axiom)

    def status(self, axiom: str) -> str:
        return self.entry(axiom).status

    def all_pass(self) -> bool:
        return all(e.status == PASS for e in self.entries)

    def failed(self) -> list[CheckEntry]:
        return [e for e in self.entries if e.status == FAIL]

    def extend(self, other: "CheckReport") -> None:
        self.entries.extend(other.entries)

    def summary(self, axiom: str) -> CheckEntry:
        """This report as one entry of ``axiom``: a pass checking what all
        its entries checked, or a fail with the first failing entry's
        witness, its tuple prefixed with that entry's ID.  Either way the
        entry's time is the sum of the folded entries' times."""
        seconds = sum(e.seconds for e in self.entries)
        bad = self.failed()
        if not bad:
            return CheckEntry(axiom, PASS, checked=sum(e.checked for e in self.entries), seconds=seconds)
        w = bad[0].witness
        return CheckEntry(axiom, FAIL, Witness((bad[0].axiom,) + w.where, w.lhs, w.rhs), seconds=seconds)

    def machine_text(self) -> str:
        lines = []
        for e in self.entries:
            if e.witness is not None and e.status == FAIL:
                lines.append(f"{e.axiom} {e.status} {e.witness.text()}")
            else:
                lines.append(f"{e.axiom} {e.status}")
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        """The human-readable report: one line per entry with its counts and
        time, the first failure under it, and a verdict line.

        An entry's time covers only its own step.  Where several IDs report
        from one shared tally (P-DOT/L-MA/YD-MODALG, P-ASSOC/YD-MODULE,
        P-COALG/L-DA/YD-MODCOALG, P-DELTA/YD-BRAIDMULT), the first ID that
        evaluates the identity carries its cost, and every later one reads
        about 0 ms.  An ID folded from a sub-report (``summary``) carries
        the summed time of the entries it folds.  The machine report
        carries no times."""
        width = max((len(e.axiom) for e in self.entries), default=8)
        lines = []
        for e in self.entries:
            line = f"{e.axiom:<{width}}  {e.status:<7} checked={e.checked}"
            if e.failures:
                line += f" failures={e.failures}"
            line += f" time={e.seconds * 1000:.1f}ms"
            if e.witness is not None and e.status == FAIL:
                line += f"\n{'':<{width}}  first failure {e.witness.text()}"
            lines.append(line)
        verdict = "ALL PASS" if self.all_pass() else "FAILURES PRESENT"
        lines.append(verdict)
        return "\n".join(lines) + "\n"


class Tally:
    """Verdicts of one identity over basis tuples: how many were checked,
    how many failed, and the first failure.  Loops visit the tuples in
    lexicographic order, or ``compiled.compare`` sorts the failures of its
    rows, so the first failure is the least failing tuple, and ``absorb``
    folds part tallies into one ID.  The exceptions keep the first failure
    of their own loop order, as golden reports pin it:

    - MP-MODC, whose parts interleave per (i, j) (``braces`` picks it);
    - MP-4, which runs on rows (b, c) over a, so its tuples are (b, c, a)
      and its witness, the first failure in that order, is mapped back to
      (a, b, c).

    YD-COMPAT and YD-COLINEAR share per-b sums, but run on rows (a,) over b,
    so their witness is the least failing (a, b)."""

    def __init__(self):
        self.witness: Witness | None = None
        self.checked = 0
        self.failures = 0

    def record(self, where: tuple, ok: bool, lhs="", rhs="") -> bool:
        self.checked += 1
        if not ok:
            self.failures += 1
            if self.witness is None:
                self.witness = Witness(where, str(lhs), str(rhs))
        return ok

    def compare(self, where: tuple, lhs, rhs, render=format_scalar) -> bool:
        """Record whether lhs == rhs at where; a failure's sides are rendered
        with render, which by default prints field scalars as files do."""
        self.checked += 1
        if lhs != rhs:
            self.failures += 1
            if self.witness is None:
                self.witness = Witness(where, render(lhs), render(rhs))
            return False
        return True

    def absorb(self, other: "Tally", where=None, swap: bool = False) -> None:
        """Count the verdicts of ``other`` as this tally's own.  ``where``
        maps its tuples onto this tally's, ``swap`` exchanges the two sides
        of its witness; the least failing tuple stays the witness."""
        self.checked += other.checked
        self.failures += other.failures
        w = other.witness
        if w is None:
            return
        if where is not None or swap:
            lhs, rhs = (w.rhs, w.lhs) if swap else (w.lhs, w.rhs)
            w = Witness(where(w.where) if where is not None else w.where, lhs, rhs)
        if self.witness is None or w.where < self.witness.where:
            self.witness = w


class Checker(Tally):
    """The tally of one axiom ID, timed from construction to ``entry()``."""

    def __init__(self, axiom: str):
        super().__init__()
        self.axiom = axiom
        self._t0 = perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return perf_counter() - self._t0

    def entry(self) -> CheckEntry:
        status = PASS if self.failures == 0 else FAIL
        return CheckEntry(
            self.axiom,
            status,
            self.witness,
            self.checked,
            self.failures,
            self.elapsed(),
        )


def skipped_entry(axiom: str) -> CheckEntry:
    return CheckEntry(axiom, SKIPPED)
