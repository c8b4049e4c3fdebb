"""Run one ydalgebra benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-q16 --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; the program is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with
tracing off; with ``--trace 1`` they are its per-layer metrics, from a
traced set-up and one traced round.  The lines before it give every metric with its unit and a
``detail`` record.  See perfbench/README.md.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Host-speed calibration.  On the 2-vCPU virtual machine with shared CPUs
# where the first baseline was recorded, one op takes +-20% from one minute
# to the next, and CPU time moves with it.  After each op the runner spends
# CALIBRATION_SHARE of its time on a fixed interpreter-bound kernel that the
# program cannot change (int, dict and tuple work).  Each op's time is
# divided by the kernel's slice time measured around the op, over
# REF_SLICE_S, the slice time at reference host speed.  Times are thus
# "seconds at reference host speed"; the raw seconds are in the detail
# record.
CALIBRATION_SHARE = 0.1
CALIBRATION_WINDOW_S = 0.01
# Set-up is one block of up to ~10 s; it is bracketed by this much
# calibration on each side.
SETUP_CALIBRATION_S = 0.5
REF_SLICE_S = 0.0015
# Set-up is measured several times per run and reported as a median.
IMPORT_RUNS = 5
# The percentile behind op_tail_s is the highest with 10 of one round's ops
# beyond it, so it does not move with the number of rounds that fit.
TAIL_BEYOND = 10


def _fresh_import_s() -> float:
    """Wall time of a new interpreter that imports the program and exits."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ydalgebra.cli"], cwd=ROOT, env=env,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def _import_program():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import ydalgebra
    except ImportError as e:
        sys.exit(f"cannot import ydalgebra from {src}: {e}")
    if src not in Path(ydalgebra.__file__).resolve().parents:
        sys.exit(f"ydalgebra was imported from {ydalgebra.__file__}, not from {src}")


def _calibration_slice() -> float:
    t0 = time.perf_counter()
    acc: dict[int, tuple[int, int]] = {}
    n = 1
    for i in range(4000):
        n = (n * 7 + i) % 1000003
        g = math.gcd(n, 360360)
        v = acc.get(i % 31)
        acc[i % 31] = (n, g) if v is None else (v[0] + n, v[1] * g % 97 + 1)
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration samples between ops:
    (ops done before it, wall seconds, CPU seconds, slices)."""

    WALL, CPU = 1, 2

    def __init__(self):
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.samples: list[tuple[int, float, float, int]] = []
        self._owed = 0.0

    def after(self, busy_s: float, ops_done: int, at_least_s: float = 0.0) -> None:
        """At least one slice, and slices worth CALIBRATION_SHARE of the
        time just spent (or at_least_s, if more)."""
        self._owed = max(self._owed + busy_s * CALIBRATION_SHARE, at_least_s)
        total, k = 0.0, 0
        c0 = time.process_time()
        while self._owed > 0 or not k:
            dt = _calibration_slice()
            total += dt
            k += 1
            self._owed -= dt
        cpu = time.process_time() - c0
        self.seconds += total
        self.cpu_seconds += cpu
        self.samples.append((ops_done, total, cpu, k))

    def slowdown(self, samples, clock: int = WALL) -> float:
        """Mean slice time of the samples over the reference slice time."""
        return sum(x[clock] for x in samples) / sum(x[3] for x in samples) / REF_SLICE_S

    def factors(self, times: list[float], clock: int = WALL) -> list[float]:
        """Per op, how much slower than the reference host it ran, by the
        given clock: the samples on each side of it, out to
        CALIBRATION_SHARE of its time (at least CALIBRATION_WINDOW_S) per
        side."""
        s = self.samples
        out, j = [], 0
        for i, dt in enumerate(times):
            while j < len(s) and s[j][0] <= i:
                j += 1
            want = max(dt * CALIBRATION_SHARE, CALIBRATION_WINDOW_S)
            window = []
            for side in (range(j - 1, -1, -1), range(j, len(s))):
                got = 0.0
                for m in side:
                    window.append(s[m])
                    got += s[m][1]
                    if got >= want:
                        break
            out.append(self.slowdown(window, clock))
        return out


class Tally:
    """Outcomes of the ops of one pass."""

    def __init__(self, host: HostSpeed | None = None):
        self.host = host
        self.latency: list[float] = []
        self.cpu: list[float] = []
        self.verbs: list[str] = []
        self.failures: list[tuple[int, str, str, str]] = []
        self.exit2 = 0
        self.tracebacks = 0
        self.digest = hashlib.sha256()

    def run(self, ops, span=None) -> None:
        from workloads import CRASH, WRONG, CliResult

        for op in ops:
            raised = None
            with span(op.verb) if span else contextlib.nullcontext():
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    result = op.run()
                except Exception:
                    raised = traceback.format_exc()
                dt, cpu = time.perf_counter() - t0, time.process_time() - c0
            if raised is not None:
                cls, why, blob = CRASH, raised.strip().splitlines()[-1], b"<raised>"
            else:
                try:
                    cls, why, blob = op.check(result)
                except Exception:
                    cls, why, blob = WRONG, "output check raised: " + traceback.format_exc(), b""
                if isinstance(result, CliResult):
                    self.exit2 += result.rc == 2
                    self.tracebacks += result.tb is not None
            self.digest.update(op.verb.encode() + b"\0" + blob + b"\0")
            if cls is not None:
                self.failures.append((len(self.latency), op.verb, cls, why))
            self.latency.append(dt)
            self.cpu.append(cpu)
            self.verbs.append(op.verb)
            if self.host is not None:
                self.host.after(dt, len(self.latency))

    @property
    def wrong(self) -> int:
        from workloads import WRONG

        return sum(1 for f in self.failures if f[2] == WRONG)


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _int_share(work: Path) -> float:
    """Share of nonzero coefficients with denominator 1 in the files the
    round read (grouprb files hold indices, not coefficients)."""
    from workloads import HEADERS

    ints = total = 0
    for path in sorted(work.glob("*.struct")):
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] == "kind grouprb":
            continue
        for line in lines:
            parts = line.split()
            if len(parts) < 2 or parts[0] in HEADERS:
                continue
            num, _, den = parts[-1].lstrip("-").partition("/")
            if num.isdigit() and num.strip("0") and (not den or den.isdigit()):
                total += 1
                ints += not den or den == "1"
    return ints / total if total else 0.0


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(args) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ydalgebra").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def _timed(wl, inputs, work: Path, args, host: HostSpeed) -> tuple[Tally, dict, dict, int]:
    tally = Tally(host)
    rounds = 0
    t0, c0 = time.perf_counter(), time.process_time()
    cal0, cal_cpu0 = host.seconds, host.cpu_seconds
    while True:
        ops = wl.round(inputs, work, args.seed, rounds)
        if rounds == 0:
            per_round = len(ops)
        tally.run(ops)
        rounds += 1
        if time.perf_counter() - t0 >= args.seconds:
            break
    # Calibration slices run inside the timed phase; they are not the program's.
    wall = time.perf_counter() - t0 - (host.seconds - cal0)
    cpu = time.process_time() - c0 - (host.cpu_seconds - cal_cpu0)
    n = len(tally.latency)
    failed = len(tally.failures)
    if per_round >= 2 * TAIL_BEYOND:
        q = 1 - TAIL_BEYOND / per_round
        tail_name = f"p{100 * q:.1f}"
        tail = lambda v: _nearest_rank(v, q)  # noqa: E731
    else:
        tail_name, tail = "max", max
    scaled = [t / f for t, f in zip(tally.latency, host.factors(tally.latency))]
    scaled_cpu = [t / f for t, f in zip(tally.cpu, host.factors(tally.cpu, host.CPU))]
    # The op-time-weighted slow-downs scale the phase totals: by wall time
    # for wall time, and by CPU time for CPU time, which does not count the
    # time the host gave to others.
    slow = sum(tally.latency) / sum(scaled)
    slow_cpu = sum(tally.cpu) / sum(scaled_cpu)
    metrics, raw = {}, {}
    for out, lat, k, k_cpu in ((metrics, scaled, slow, slow_cpu), (raw, tally.latency, 1.0, 1.0)):
        out.update({
            "wall_s": wall / k / rounds,
            "cpu_s": cpu / k_cpu / rounds,
            "ops_per_s": (n - failed) / (wall / k),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail(lat),
        })
        for verb, name in (("example", "build_s"), ("check", "check_s"), ("derive", "derive_s")):
            out[name] = sum(t for v, t in zip(tally.verbs, lat) if v == verb) / rounds
    metrics["failed_ratio"] = failed / n
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verb_n: dict[str, int] = {}
    for verb in tally.verbs:
        verb_n[verb] = verb_n.get(verb, 0) + 1
    detail = {
        "rounds": rounds,
        "raw": raw,
        "timed_wall_s": wall,
        "ops": n,
        "ops_per_round": per_round,
        "ops_by_verb": verb_n,
        "host_slowdown": slow,
        "host_cpu_slowdown": slow_cpu,
        "calibration_s": host.seconds - cal0,
        "op_tail": {"percentile": tail_name, "samples": n},
    }
    return tally, metrics, detail, tally.wrong


def _timed_with_setup(wl, work: Path, args) -> tuple[Tally, dict, dict, int]:
    host = HostSpeed()
    # Set-up is a fresh interpreter importing the program, then building the
    # seeded inputs; each part is timed several times.
    setup: dict[str, list[float]] = {"import": [], "inputs": []}
    host.after(0.0, 0, SETUP_CALIBRATION_S)
    for _ in range(IMPORT_RUNS):
        setup["import"].append(_fresh_import_s())
        host.after(setup["import"][-1], 0)
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed, work)
        setup["inputs"].append(time.perf_counter() - t0)
        host.after(setup["inputs"][-1], 0, SETUP_CALIBRATION_S)
    setup_slowdown = host.slowdown(host.samples)

    tally, metrics, detail, wrong = _timed(wl, inputs, work, args, host)
    detail["raw"]["setup_s"] = (statistics.median(setup["import"])
                                + statistics.median(setup["inputs"]))
    metrics["setup_s"] = detail["raw"]["setup_s"] / setup_slowdown
    detail["setup_slowdown"] = setup_slowdown
    detail["setup_runs_s"] = setup
    return tally, metrics, detail, wrong


def _traced(wl, work: Path, args) -> tuple[Tally, dict, dict, int]:
    from spans import Recorder, ScalarCounter

    # Set-up is traced too: it is where the builders run on solve-q32 and
    # mutants-small.
    rec = Recorder()
    rec.install()
    try:
        with rec.op_span("setup"):
            inputs = wl.setup(args.seed, work)
    finally:
        rec.remove()

    plain = Tally()
    t0 = time.perf_counter()
    plain.run(wl.round(inputs, work, args.seed, 0))
    plain_s = time.perf_counter() - t0

    traced = Tally()
    ops = wl.round(inputs, work, args.seed, 0)
    rec.install()
    try:
        t0 = time.perf_counter()
        traced.run(ops, span=rec.op_span)
        traced_s = time.perf_counter() - t0
    finally:
        rec.remove()

    counter = ScalarCounter()
    counted = Tally()
    ops = wl.round(inputs, work, args.seed, 0)
    counter.install()
    try:
        counted.run(ops, span=counter.op_span)
    finally:
        counter.remove()

    out_dir = ROOT / ".perfbench"
    rec.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
    metrics = rec.metrics()
    metrics.update({
        "cli.exit2": traced.exit2,
        "cli.tracebacks": traced.tracebacks,
        "field.q_ops": counter.q_ops,
        "field.fp_ops": counter.fp_ops,
        "field.int_share": _int_share(work),
        "trace.overhead_s": traced_s - plain_s,
    })
    digests = {name: t.digest.hexdigest() for name, t in
               (("untraced", plain), ("traced", traced), ("counted", counted))}
    detail = {
        "ops": len(traced.latency),
        "untraced_round_s": plain_s,
        "traced_round_s": traced_s,
        "digests": digests,
        "digests_equal": len(set(digests.values())) == 1,
        "spans_kept": len(rec.span_t0),
        "spans_dropped": rec.spans_dropped,
        "trace_file": str(Path(".perfbench") / f"trace-{args.workload}-{args.seed}.json"),
    }
    wrong = plain.wrong + traced.wrong + counted.wrong + (not detail["digests_equal"])
    return traced, metrics, detail, wrong


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            tally, metrics, detail, wrong = _traced(wl, work, args)
            wanted = spec["per_layer"]
        else:
            tally, metrics, detail, wrong = _timed_with_setup(wl, work, args)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(_environment(args))
    detail["failures"] = [
        {"op": i, "verb": verb, "class": cls, "reason": why[:300]}
        for i, verb, cls, why in tally.failures
    ]
    detail["all_metrics"] = metrics
    for m in wanted:
        print(f"{m['name']:<24} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(tally.latency),
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
