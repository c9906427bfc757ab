"""specrad benchmark: one closed-loop client calling the CLI in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload matrix-engine --seed 1 --seconds 50 --trace 0

One process and one client: each op is ``specrad.cli.main(argv)`` with stdout
and stderr captured, and the next op is sent only after the previous one
returned and its output was checked.  Inputs are generated from --seed and
written before timing starts: the workload's op mix, at least 100 ops so
that p90 has 10 ops beyond it.  A warm-up of one op per kind is not timed.
The ops are then sent in cycles until --seconds have passed and each op ran
at least MIN_PASSES times.

Times are reported at a fixed machine speed.  The benchmark runs a fixed
piece of reference work between every two ops and divides each op's wall
time by the reference time measured around it; see SpeedGauge.

Ops that probe a known defect of the library run once, untimed, and are
reported apart from the workload's attempted and failed counts.

--trace 0 prints the end-to-end metrics; --trace 1 sends every op once
untraced and once with spans around every layer (see spans.py), checks that
each op's stdout is byte-identical in both passes and prints the per-layer
metrics.  The last line of stdout is the JSON result; lines before it are a
readable summary.  Spans and the full result are written under .perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 1
SETUP_REPEATS = 9
# One BLAS thread: operands are at most 32 x 32, and a second thread only adds
# scheduling noise.
BLAS_THREADS = 1
HARD_LIMIT_S = 120.0
# Median wall time of reference_work() on the machine the benchmark was
# built on (2 vCPUs of an Intel Xeon, Python 3.11, numpy 2.4): the speed at
# which every reported time is given.
REF_NOMINAL_S = 0.00225
# Reference samples taken on each side of an op to estimate the machine's
# speed during it.
REF_WINDOW = 5

# Per-layer timings of the traced run, as <layer>.<calls|busy_ms|self_ms>,
# averaged per op.  busy is the time inside the layer's spans, self that time
# minus the part covered by traced calls below it.
LAYER_TIMINGS = [
    "cli.main.calls", "cli.main.self_ms", "matrix.io.busy_ms",
    "matrix.mul.calls", "matrix.mul.busy_ms", "matrix.norm.calls", "matrix.norm.busy_ms",
    "matrix.add.calls", "matrix.scale.calls",
    "algebra.neumann_inverse.calls", "algebra.neumann_inverse.self_ms", "algebra.power_norms.self_ms",
    "matrix.gauss_inverse.calls", "matrix.gauss_inverse.busy_ms", "matrix.spectrum_scan.self_ms",
    "matrix.direct_inverse.busy_ms", "algebra.resolvent.self_ms", "algebra.spectral_radius_upper.calls",
    "wiener.multiply.calls", "wiener.multiply.self_ms", "wiener.clean.calls", "wiener.clean.busy_ms",
    "wiener.l1_norm.busy_ms", "wiener.scale.busy_ms", "wiener.parse_inline.busy_ms", "wiener.sup_norm.busy_ms",
    "reports.build_report.calls", "reports.build_report.busy_ms", "reports.to_csv.busy_ms",
    "reports.to_json.busy_ms", "fekete.generate.busy_ms", "fekete.root_report.self_ms",
    "fekete.binomial_convolve.busy_ms", "fekete.sequence_to_csv.busy_ms", "shift.harmonic_weights.busy_ms",
    "shift.shift_limit_experiment.self_ms",
    "fekete.check_submultiplicative.calls", "fekete.check_submultiplicative.busy_ms",
    "matrix.eigen_oracle.busy_ms", "shift.op_norm_empirical.busy_ms", "shift.apply_power.calls",
]


def fresh_interpreter_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def reference_work(np) -> int:
    """A fixed piece of work of the kinds the library's ops spend their time
    on: interpreted float loops, 17-digit repr formatting, dict updates and
    small complex matrix products.  It uses no specrad code, so no change to
    the library changes its speed."""
    total, text = 0.0, []
    for i in range(1, 1501):
        total += (i * 0.37) ** 0.5
        if i % 3 == 0:
            text.append(repr(total))
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 61] = counts.get(i % 61, 0) + i
    a = np.full((8, 8), 0.1 + 0.05j)
    p = a
    for _ in range(60):
        p = a @ p
        p /= np.abs(p).sum(axis=1).max()
    return len(",".join(text)) + len(counts)


class SpeedGauge:
    """Tracks how fast the machine runs, from the wall time of reference_work.

    The benchmark shares a few cores of a host whose other tenants slow it
    down by up to half, in stretches from milliseconds to minutes, and
    process CPU time slows by as much as wall time.  Such a slowdown
    stretches an op and the reference work next to it alike.  So the
    benchmark samples the reference between ops, and reports each op's wall
    time times REF_NOMINAL_S over the median reference time of the samples
    around it: its time at the build machine's nominal speed."""

    def __init__(self, np):
        self.np = np
        self.samples: list[float] = []

    def tick(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            reference_work(self.np)
            self.samples.append(time.perf_counter() - start)

    def position(self) -> int:
        return len(self.samples)

    def scale(self, seconds: float, position: int) -> float:
        """`seconds` measured at `position` (the number of samples taken
        before), at nominal speed."""
        window = self.samples[max(0, position - REF_WINDOW):position + REF_WINDOW]
        return seconds * REF_NOMINAL_S / statistics.median(window)


def setup_samples(count: int, gauge: SpeedGauge) -> list[tuple[float, int]]:
    """Wall times for a fresh interpreter to import specrad.cli, each with
    its gauge position; the gauge is sampled around each of them."""
    cmd = [sys.executable, "-c", "import specrad.cli"]
    env = fresh_interpreter_env()
    times = []
    for _ in range(count):
        gauge.tick(REF_WINDOW)
        position = gauge.position()
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append((time.perf_counter() - start, position))
    gauge.tick(REF_WINDOW)
    return times


def measure_import_split() -> tuple[float, float]:
    """Median (numpy, specrad-without-numpy) import seconds from -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import specrad.cli"]
    env = fresh_interpreter_env()
    numpy_s, specrad_s = [], []
    for _ in range(3):
        err = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stderr
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) * 1e-6)
        numpy = cumulative.get("numpy", 0.0)
        numpy_s.append(numpy)
        specrad_s.append(cumulative.get("specrad", 0.0) + cumulative.get("specrad.cli", 0.0) - numpy)
    return statistics.median(numpy_s), statistics.median(specrad_s)


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def call(main, argv: list[str]) -> tuple[object, str, str, float]:
    """Run main(argv) with captured output: (exit code or exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # any traceback is a failed op, never the end of the run
        code = exc
    text = out.getvalue()
    return code, text, err.getvalue(), time.perf_counter() - start


class Outcome:
    """Counts and failures of the ops a pass checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.by_defect: dict[str, int] = {}

    def record(self, op, code, text, err) -> None:
        self.attempted += 1
        if isinstance(code, BaseException):
            problem = "raised %s: %s" % (type(code).__name__, code)
        else:
            try:
                problem = op.check(code, text)
            except Exception as exc:  # malformed output is a failed check
                problem = "output check raised %s: %s" % (type(exc).__name__, exc)
        if problem is None:
            return
        self.failed += 1
        if op.known_defect:
            self.by_defect[op.known_defect] = self.by_defect.get(op.known_defect, 0) + 1
        else:
            stderr = err.strip().splitlines()[-1:] or [""]
            self.unexpected.append("%s %s: %s %s" % (op.kind, " ".join(op.argv), problem, stderr[0]))

    @property
    def correct(self) -> bool:
        return not self.unexpected


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def one_pass(main, ops, outcome: Outcome):
    """Send every op once, in order, each after the previous one returned and
    was checked.  Returns per-op latencies, CPU seconds and stdout digests."""
    latencies, digests = [], []
    cpu = 0.0
    for op in ops:
        cpu_start = time.process_time()
        code, text, err, seconds = call(main, op.argv)
        cpu += time.process_time() - cpu_start
        latencies.append(seconds)
        digests.append((code if isinstance(code, int) else type(code).__name__,
                        hashlib.sha256(text.encode()).hexdigest()))
        outcome.record(op, code, text, err)
    return latencies, cpu, digests


def warm_up(main, ops) -> None:
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            call(main, op.argv)


def run_probes(main, probes) -> Outcome:
    """Send each known-defect probe once, untimed, and tally how it fared."""
    outcome = Outcome()
    for op in probes:
        code, text, err, _ = call(main, op.argv)
        outcome.record(op, code, text, err)
    return outcome


def end_to_end(main, ops, seconds: float, gauge: SpeedGauge) -> tuple[Outcome, dict]:
    """Cycle through `ops` until `seconds` have passed and every op ran at
    least MIN_PASSES times, with the gauge sampled between every two ops.
    An op's latency is the median of its runs at nominal speed.  setup_s is
    sampled before, between and after the cycles."""
    setup_samples(1, gauge)  # untimed: writes the bytecode cache
    setup = setup_samples(SETUP_REPEATS // 3, gauge)
    warm_up(main, ops)
    outcome = Outcome()
    runs_of: list[list[tuple[float, int]]] = [[] for _ in ops]
    runs = 0
    gauge.tick(REF_WINDOW)
    start = time.perf_counter()
    while runs < MIN_PASSES * len(ops) or time.perf_counter() - start < seconds:
        i = runs % len(ops)
        position = gauge.position()
        code, text, err, latency = call(main, ops[i].argv)
        gauge.tick()
        outcome.record(ops[i], code, text, err)
        runs_of[i].append((latency, position))
        runs += 1
        if runs == len(ops):
            setup += setup_samples(SETUP_REPEATS // 3, gauge)
        if time.perf_counter() - start > HARD_LIMIT_S:
            break
    gauge.tick(REF_WINDOW)
    setup += setup_samples(SETUP_REPEATS - len(setup), gauge)
    latencies = [statistics.median(gauge.scale(t, p) for t, p in op_runs) for op_runs in runs_of]
    metrics = {
        "setup_s": (statistics.median(gauge.scale(t, p) for t, p in setup), "s"),
        "ops_per_s": (len(ops) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "latency_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return outcome, metrics


def per_layer(main, ops, trace_path: Path) -> tuple[Outcome, dict]:
    import spans

    numpy_s, specrad_s = measure_import_split()
    warm_up(main, ops)
    plain = Outcome()
    plain_lat, cpu, plain_digests = one_pass(main, ops, plain)

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    traced_main = tracer.wrap(main, "cli.main")
    op_ids = iter(range(len(ops)))

    def numbered_main(argv):
        tracer.op = next(op_ids)
        return traced_main(argv)

    traced = Outcome()
    try:
        traced_lat, _, traced_digests = one_pass(numbered_main, ops, traced)
    finally:
        uninstall()
    tracer.dump(trace_path)
    for i, (a, b) in enumerate(zip(plain_digests, traced_digests)):
        if a != b:
            traced.unexpected.append("op %d: traced output differs from untraced" % i)

    ops = len(traced_lat)
    summary = tracer.summary()
    unit_of = {"calls": "count/op", "busy_ms": "ms/op", "self_ms": "ms/op"}
    key_of = {"calls": "calls", "busy_ms": "busy", "self_ms": "self"}
    metrics = {}
    check_names = [n for n, _ in sys.modules["specrad.selftest"].CHECKS]
    for name in LAYER_TIMINGS + ["selftest.%s.busy_ms" % n for n in check_names]:
        layer, field = name.rsplit(".", 1)
        scale = 1.0 if field == "calls" else 1e3
        value = summary[layer][key_of[field]] if layer in summary else 0.0
        metrics[name] = (scale * value / ops, unit_of[field])
    products = tracer.children_calls("algebra.neumann_inverse", {"matrix.mul", "wiener.multiply"})
    metrics["algebra.neumann_inverse.products"] = (products / ops, "count/op")
    cells = tracer.counters["matrix.spectrum_scan.cells"]
    eliminated = tracer.children_calls("matrix.spectrum_scan", {"matrix.gauss_inverse"})
    metrics["matrix.spectrum_scan.eliminated_ratio"] = (eliminated / cells if cells else 0.0, "ratio")
    for counter, unit in (("matrix.mul.gflop_computed", "GFLOP/op"), ("wiener.coeffs_out", "count/op"),
                          ("reports.rows", "count/op"), ("reports.bytes_out", "B/op")):
        metrics[counter] = (tracer.counters[counter] / ops, unit)
    metrics["setup.import_numpy_s"] = (numpy_s, "s")
    metrics["setup.import_specrad_s"] = (specrad_s, "s")
    metrics["trace.overhead_ratio"] = (sum(traced_lat) / sum(plain_lat), "ratio")
    metrics["harness.cpu_s_per_op"] = (cpu / ops, "s/op")
    gauge = SpeedGauge(sys.modules["numpy"])
    gauge.tick(4 * REF_WINDOW)
    metrics["harness.ref_ms"] = (1e3 * statistics.median(gauge.samples), "ms")
    return traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "specrad" / "cli.py").is_file():
        print("error: %s does not hold the specrad sources" % SRC, file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import workloads
    from specrad.cli import main as specrad_main

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    tag = "%s-seed%d-trace%d-pid%d" % (args.workload, args.seed, args.trace, os.getpid())
    workdir = out_dir / tag
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build_ops(args.workload, args.seed, workdir)
        probes = [op for op in ops if op.known_defect]
        ops = [op for op in ops if not op.known_defect]
        if args.trace:
            outcome, metrics = per_layer(specrad_main, ops, out_dir / (tag + ".spans.jsonl"))
        else:
            import numpy
            outcome, metrics = end_to_end(specrad_main, ops, args.seconds, SpeedGauge(numpy))
        probed = run_probes(specrad_main, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics["probes.failed"] = (probed.failed, "count")

    env = environment()
    print("# environment: " + json.dumps(env))
    print("# ops attempted %d, failed %d, fail_ratio %.6g"
          % (outcome.attempted, outcome.failed, outcome.failed / outcome.attempted))
    print("# known-defect probes, sent once untimed and not counted above: attempted %d, failed %d"
          % (probed.attempted, probed.failed))
    for defect, count in sorted(probed.by_defect.items()):
        print("# known defect (%s): %d probes failed" % (defect, count))
    for line in outcome.unexpected[:10]:
        print("# UNEXPECTED FAILURE: " + line)
    for name, (value, unit) in metrics.items():
        print("# %-52s %14.6g %s" % (name, value, unit))

    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(out_dir / (tag + ".json"), "w") as f:
        json.dump(dict(result, environment=env, workload=args.workload, seed=args.seed), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
