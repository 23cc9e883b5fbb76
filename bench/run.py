"""holoball benchmark: one command, one process, one thread, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The run builds the workload's inputs from the seed, runs one
untimed warm-up round, then a fixed number of closed-loop rounds (round k
on input block k) that take about ``--seconds`` on the host the benchmark
was tuned on, and checks every output. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and prints the
per-layer split, with the tracing overhead measured against the untraced
rounds of the same run. The last line of stdout is one JSON object; the full
run record goes to ``.bench_runs/``. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and in every interpreter it starts; set
# before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("campaign_fd", "campaign_sweep", "zero_witness", "cli_cold")
# listed for checking later performance claims on a seed no change was tuned on
HELD_OUT_SEED = 917_263
SETUP_REPEATS = 9
# Times are reported at a reference host speed: the one at which calibrate()
# takes this long. The shared host this benchmark was built on changes speed
# by up to 2x over tens of seconds, in wall and CPU time alike; dividing each
# latency by the calibrations around it removes most of that (throughput and
# median latency of 20 s runs spread 20-47% raw, 2-6% scaled). Raw times are
# kept in the run record.
CAL_REF_S = 0.005
# Wall seconds of one round, warm, on the host the benchmark was tuned on
# (shared 2-vCPU VM, at its usual speed). A run does seconds / ROUND_S
# rounds rather than running until a deadline, so for a given seed and
# --seconds the operations attempted and failed are the same on every run.
ROUND_S = {"campaign_fd": 1.05, "campaign_sweep": 0.65, "zero_witness": 1.0, "cli_cold": 1.25}
# A run on a host far slower than that stops after this many seconds of
# rounds, so that it still ends within its time limit; the record notes it.
MAX_LOOP_S = 100.0

SPAN_LAYERS = [
    "holomap.eval_many", "holomap.jac_many", "holomap.parse_spec", "holomap.emit_spec",
    "complexcore.spectral_norm", "complexcore.sample_unit_sphere",
    "schwarzpick.sp_bound", "schwarzpick.mod_grad", "schwarzpick.mod_grad_fd",
    "geometry.disk_slice", "geometry.bound_factor",
    "extremal.construct", "extremal.diagnose",
    "harness.gen_random_polymap", "harness.sample_ball_points", "harness.force_zero_at",
    "harness.fuzz_campaign",
]
ROW_LAYERS = ("holomap.eval_many", "holomap.jac_many")
BRANCHES = ("zero", "nonzero", "ambiguous")


@contextlib.contextmanager
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_metadata(seed: int) -> dict:
    import numpy as np

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def host_speed() -> float:
    """The host's current slowdown against the reference speed."""
    return calibrate() / CAL_REF_S


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter work and small complex
    numpy operations, the kind of work the package does; independent of the
    package, so it measures only the host's current speed."""
    import numpy as np

    t0 = perf_counter()
    Z = np.linspace(0.1, 0.5, 12).reshape(4, 3) * (1 + 0.5j)
    powers = np.arange(1, 5)
    acc = 0.0
    for i in range(250):
        A = Z * (1.0 + i * 1e-3)
        P = np.ones((4, 5), dtype=np.complex128)
        P[:, 1:] = A[:, :1] ** powers
        v = np.sqrt((np.abs(A) ** 2).sum(axis=1))
        acc += float(v.max()) + float(np.abs(P @ A[0, :1].repeat(5)).sum())
        acc += len(json.dumps({"i": i, "v": [acc, float(v[0])]}))
    return perf_counter() - t0


def setup_probe(args) -> int:
    """Import plus input generation in this fresh interpreter; prints seconds."""
    with workdir() as wd:
        t0 = perf_counter()
        import workloads

        workloads.make(args.workload, args.tiny).setup(args.seed, wd)
        print(repr(perf_counter() - t0))
    return 0


def measure_setup(args) -> list[tuple[float, float]]:
    """(seconds, host speed factor) of each set-up in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    out = []
    speed = host_speed()
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        after = host_speed()
        out.append((float(proc.stdout.strip().splitlines()[-1]), (speed + after) / 2))
        speed = after
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def round_count(args, traced: bool) -> int:
    """Rounds in a run: as many as fill --seconds at the tuning host's
    speed, at least two of each kind that the run measures."""
    return max(4 if traced else 2, round(args.seconds / ROUND_S[args.workload]))


def run_rounds(wl, args, tracer):
    """Warm-up on block 0, then round k on block k for k < round_count();
    traced rounds (odd k) alternate with untraced ones when a tracer is
    given. Returns the warm-up, the rounds and whether MAX_LOOP_S cut them."""
    from workloads import Round

    warm = Round()
    wl.run_round(warm, 0, traced=False)
    host_speed()
    speed = host_speed()
    rounds = []
    want = round_count(args, tracer is not None)
    cutoff = perf_counter() + MAX_LOOP_S
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            rnd = Round(pause=tracer.paused, host_speed=host_speed, speeds=[speed])
            with tracer.installed():
                t0 = perf_counter()
                with tracer.root():
                    wl.run_round(rnd, len(rounds), traced=True)
                rnd.wall = perf_counter() - t0
            rnd.events = tracer.events.copy()
            tracer.events.clear()
        else:
            rnd = Round(host_speed=host_speed, speeds=[speed])
            t0 = perf_counter()
            wl.run_round(rnd, len(rounds), traced=False)
            rnd.wall = perf_counter() - t0
        rnd.close_segment()
        speed = rnd.speeds[-1]
        rounds.append((traced, rnd))
        if len(rounds) >= want:
            return warm, rounds, False
        if perf_counter() >= cutoff and len(rounds) >= (4 if tracer else 2):
            return warm, rounds, True


def timing_metrics(rounds, ops: int, scaled: bool = True) -> dict:
    """Throughput from the median round, and latency median and tail over
    every latency in the rounds; times scaled to the reference host speed
    unless ``scaled`` is false."""

    def lat(r):
        return r.scaled if scaled else r.latencies

    latencies = [x for r in rounds for x in lat(r)]
    tail_value, tail_pct = tail(latencies)
    return {
        "throughput_ops_s": ops / statistics.median(sum(lat(r)) for r in rounds),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_value,
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(latencies),
    }


def per_layer_metrics(tracer, traced_rounds, untraced_rounds, ops) -> tuple[dict, list[str]]:
    """Counts come from the first traced round (block 1), so they repeat
    exactly for a given seed; times are medians over traced rounds."""
    reduced = tracer.reduce()
    spans = reduced["rounds"]
    first, first_round = spans[0], traced_rounds[0]
    problems = []
    empty = {"calls": 0, "rows": 0, "self_s": 0.0, "total_s": 0.0}
    metrics = {}

    def scaled_median(key):
        """Median over traced rounds of a per-round time, scaled."""
        return statistics.median(key(s) / r.speed for s, r in zip(spans, traced_rounds))

    for layer in SPAN_LAYERS:
        metrics[f"{layer}.calls"] = (first.get(layer, empty)["calls"], "count")
        if layer in ROW_LAYERS:
            metrics[f"{layer}.rows"] = (first.get(layer, empty)["rows"], "count")
        metrics[f"{layer}.self_s"] = (scaled_median(lambda s: s.get(layer, empty)["self_s"]), "s")
    calls = sum(metrics[f"{x}.calls"][0] for x in ROW_LAYERS)
    rows = sum(metrics[f"{x}.rows"][0] for x in ROW_LAYERS)
    metrics["holomap.rows_per_call"] = (rows / calls if calls else 0.0, "rows")
    for b in BRANCHES:
        metrics[f"schwarzpick.branch.{b}"] = (first_round.events[f"schwarzpick.branch.{b}"], "count")
    metrics["schwarzpick.verdicts_wrong"] = (first_round.counts["schwarzpick.verdicts_wrong"], "count")
    metrics["schwarzpick.fd_max_dev"] = (first_round.values.get("fd_max_dev", 0.0), "1")
    diag = metrics["extremal.diagnose.calls"][0]
    matches = first_round.events["extremal.diagnose.matches"]
    metrics["extremal.diagnose.match_ratio"] = (matches / diag if diag else 0.0, "ratio")
    metrics["harness.log_bytes"] = (first_round.counts["harness.log_bytes"], "bytes")

    def probe_ms(key):
        xs = [x / r.speed for r in traced_rounds for x in r.timings.get(key, [])]
        return 1e3 * statistics.median(xs) if xs else 0.0

    metrics["cli.interp_ms"] = (probe_ms("cli.interp_s"), "ms")
    metrics["cli.import_ms"] = (probe_ms("cli.import_s"), "ms")
    run_calls = first.get("cli.run", empty)["calls"]
    metrics["cli.run_ms"] = (
        1e3 * scaled_median(lambda s: s["cli.run"]["total_s"] / run_calls) if run_calls else 0.0,
        "ms")

    # the benchmark's own time inside traced rounds, and whether self times
    # account for the traced wall time
    metrics["bench.self_s"] = (scaled_median(lambda s: s["bench.round"]["self_s"]), "s")
    accounted = sum(v["self_s"] for s in spans for v in s.values()) / sum(r.wall for r in traced_rounds)
    metrics["trace.accounted_ratio"] = (accounted, "ratio")
    if abs(accounted - 1.0) > 0.01 or reduced["min_self_s"] < -1e-6:
        problems.append(f"self times account for {accounted:.4f} of the traced wall time")
    traced_tput = timing_metrics(traced_rounds, ops)["throughput_ops_s"]
    untraced_tput = timing_metrics(untraced_rounds, ops)["throughput_ops_s"]
    metrics["trace.overhead_ratio"] = (untraced_tput / traced_tput, "ratio")
    return metrics, problems


def run_benchmark(args) -> dict:
    with workdir() as wd:
        t0 = perf_counter()
        import workloads

        wl = workloads.make(args.workload, args.tiny)
        wl.setup(args.seed, wd)
        setup_inproc = perf_counter() - t0
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        warm, rounds, cut = run_rounds(wl, args, tracer)
    # children so far are the workload's own CLI processes, if any
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setup_samples = measure_setup(args)

    untraced = [r for t, r in rounds if not t]
    traced = [r for t, r in rounds if t]
    problems = [msg for r in [warm] + [r for _, r in rounds] for msg in r.hard]
    ops = warm.attempted
    again = rounds[0][1]
    if (again.attempted, again.failed, again.counts, again.values) != (
            warm.attempted, warm.failed, warm.counts, warm.values):
        problems.append("the same inputs gave different counts or outputs in two rounds")

    attempted = sum(r.attempted for _, r in rounds)
    failed = sum(r.failed for _, r in rounds)
    timing = timing_metrics(untraced, ops)
    raw = timing_metrics(untraced, ops, scaled=False)
    end_to_end = {
        "throughput_ops_s": (timing["throughput_ops_s"], "ops/s"),
        "latency_p50_ms": (timing["latency_p50_ms"], "ms"),
        "latency_tail_ms": (timing["latency_tail_ms"], "ms"),
        "pass_ratio": (1.0 - failed / attempted, "ratio"),
        "setup_s": (statistics.median(t / speed for t, speed in setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "workload": args.workload,
        "machine": machine_metadata(args.seed),
        "latency_unit": wl.latency_unit,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "latency_tail_percentile": timing["latency_tail_percentile"],
        "latency_samples": timing["latency_samples"],
        "unscaled": {**raw, "setup_s": statistics.median(t for t, _ in setup_samples)},
        "calibration_ref_s": CAL_REF_S,
        "round_speed": [r.speeds for _, r in rounds],
        "round_busy_s": [r.busy for _, r in rounds],
        "rounds": {"untraced": len(untraced), "traced": len(traced), "ops_per_round": ops,
                   "planned": round_count(args, tracer is not None), "cut_at_max_loop_s": cut},
        "round_wall_s": [r.wall for _, r in rounds],
        "setup_samples": [{"s": t, "speed": speed} for t, speed in setup_samples],
        "setup_in_process_s": setup_inproc,
        "round_counts": dict(warm.counts),
        "round_values": warm.values,
    }
    if tracer is not None:
        per_layer, trace_problems = per_layer_metrics(tracer, traced, untraced, ops)
        problems += trace_problems
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        record["throughput_traced_ops_s"] = timing_metrics(traced, ops)["throughput_ops_s"]
        RUNS.mkdir(exist_ok=True)
        tracer.save(RUNS / f"spans_{args.workload}_seed{args.seed}.npz")
    record["problems"] = sorted(set(problems))
    record["correct"] = not problems
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "holoball" / "__init__.py").is_file():
        print(f"error: no holoball source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    record = run_benchmark(args)
    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    shown = record["per_layer"] if args.trace else record["end_to_end"]
    for name, m in shown.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ({record['failed']}/{record['attempted']}), "
          f"tail at p{record['latency_tail_percentile']:.2f} of {record['latency_samples']} "
          f"{record['latency_unit']} latencies, record {out.relative_to(ROOT)}")
    for msg in record["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
