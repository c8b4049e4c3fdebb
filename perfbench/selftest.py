"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py [WORKLOAD ...]

1. A corrupted verdict is caught: with ``CheckReport.machine_text``
   patched to print one passing axiom as failing, ``check`` still exits 0,
   and the benchmark must count that op as a wrong, failed op.
2. The exact counts of the traced run repeat for a fixed seed: two traced
   passes over one round of each named workload (default: mutants-small)
   give the same counts and output digests.

Exits 0 when both hold.
"""

import shutil
import sys

import run

run._import_program()

import workloads  # noqa: E402
from ydalgebra.report import CheckReport  # noqa: E402

EXACT = ("posthopf.suite_calls", "braces.suite_calls", "rota.suite_calls", "posthopf.checked",
         "linalg.unknowns", "linalg.nnz", "linalg.dense_calls", "field.q_ops", "field.fp_ops",
         "structio.bytes", "cli.exit2", "cli.tracebacks", "field.int_share",
         *(f"{m}.calls" for m in ("cli", "structio", "builders", "posthopf", "braces", "rota",
                                  "hopf", "linalg", "report")))


def _sweedler_check(work) -> run.Tally:
    src = work / "sweedler.struct"
    tally = run.Tally()
    tally.run([workloads.example_op(["sweedler", "--k", "2/3"], src), workloads.check_op(src)])
    return tally


def corrupted_verdict_is_counted(work) -> None:
    clean = _sweedler_check(work)
    assert not clean.failures, clean.failures

    honest = CheckReport.machine_text

    def corrupted(self):
        return honest(self).replace(" pass\n", " fail\n", 1)

    CheckReport.machine_text = corrupted
    try:
        bad = _sweedler_check(work)
    finally:
        CheckReport.machine_text = honest
    assert [f[1:3] for f in bad.failures] == [("check", workloads.WRONG)], bad.failures
    assert bad.wrong == 1
    print(f"corrupted verdict: {len(bad.failures)} of {len(bad.latency)} ops failed, "
          f"failed_ratio {len(bad.failures) / len(bad.latency):.2f}")


class _Args:
    seed, seconds, trace = 7, 1.0, 1

    def __init__(self, workload: str):
        self.workload = workload


def counts_repeat(workload: str, work) -> None:
    args = _Args(workload)
    wl = workloads.WORKLOADS[workload]
    runs = [run._traced(wl, work, args) for _ in range(2)]
    (_, m1, d1, wrong1), (_, m2, d2, wrong2) = runs
    assert wrong1 == wrong2 == 0
    assert d1["digests"] == d2["digests"] and d1["digests_equal"], (d1["digests"], d2["digests"])
    differ = {k: (m1[k], m2[k]) for k in EXACT if m1[k] != m2[k]}
    assert not differ, differ
    print(f"exact counts repeat for {workload} seed {args.seed}: "
          + ", ".join(f"{k}={m1[k]}" for k in EXACT))


def main() -> int:
    names = sys.argv[1:] or ["mutants-small"]
    work = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        corrupted_verdict_is_counted(work)
        for name in names:
            counts_repeat(name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
