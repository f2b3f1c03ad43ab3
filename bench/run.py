"""The enchilada benchmark: seeded, single-process, closed-loop workloads.

Run it from the repository root:

    python3 bench/run.py --workload cli-wide --seed 1 --seconds 30 --trace 0

Workloads (one client; the next case starts only after the previous returns):

  oracle-crosscheck  realize, Gram-quotient tensor, classify and exhaustive
                     validate on random small pairs: the numeric layer.
  cli-wide           in-process `enchilada.cli.main` requests on 16-32 block
                     classes: the cardinal/CorrClass core on large matrices,
                     plus JSON and CLI dispatch.

An exhaustive inverse search over all 341 small classes (~119k compose
calls on matrices at most 2x2) was tried as a third workload and left out:
two thirds of its cases do identical work, so its p95 latency measures only
the host's noise and its run-to-run spread, measured before the host-speed
scaling below existed, exceeded the 0.25 bound.

A run makes whole passes over the workload's case list until the next pass
would end after --seconds of case time (at least 3 passes), so the run's
length does not depend on the host's speed; every pass does the same work,
so error rates and counts are exact per pass.  Every case of every pass is
a timed sample (see latency_metrics).

The host is a share of a machine whose speed changes by up to 2x within
seconds as other tenants' load comes and goes, and CPU time changes with it
(it is not stolen time).  So the timed figures are scaled to a fixed host
speed: a fixed integer loop (`calibrate`) is timed between cases, at least
every CAL_EVERY_S of case time, and each case's time is multiplied by
CAL_REFERENCE_S over the loop's latest time.  A figure thus reads as the
time on a host that runs the loop in CAL_REFERENCE_S.  The loop allocates
nothing the garbage collector tracks and calls no program code, so only the
host changes its time, as long as the program starts no thread of its own
(it starts none, and BLAS is held to one thread).  The unscaled figures and the loop's median
time are in the report line.  Set-up time is scaled the same way, step by
step (SetupClock).

Every timed output is checked against `reference.py`; a disagreement counts
the case as failed and makes the result incorrect.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a third of the
case time untraced and a third traced, records one span around every call
the benchmark makes into `corr`, `exactness`, `concrete`, `jsonio` and
`cli`, writes the spans to .bench_out/, and prints the per-layer metrics
(per pass), fixed-size micro figures and the tracing overhead.

The tier-1 test-suite time is not a metric: it changes whenever the tests
change, so it does not measure the same program work from one commit to the
next.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is a JSON report with sample counts, the error rate, the
first disagreements and provenance.
"""

import time

_STARTED = time.perf_counter()  # set-up time (SetupClock) counts from here

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Also the keys of workloads.WORKLOADS; named here so that arguments are
# checked before the package is imported.
WORKLOAD_NAMES = ("oracle-crosscheck", "cli-wide")
SETUP_PROBES = 15
WARMUP_CASES = 10
MIN_PASSES = 3
CAL_ITERATIONS = 20_000
CAL_REFERENCE_S = 2.0e-3
CAL_EVERY_S = 0.02

# One BLAS thread: the matrices are tiny, and a second spinning thread only
# adds noise on a small shared host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Span names (module.function) grouped into the per-layer metrics.
GROUPS = {
    "corr.construct": ("corr.CorrClass",),
    "corr.supports": (
        "corr.kernel", "corr.cokernel", "corr.schubert_image",
        "corr.schubert_coimage", "corr.right_support", "corr.left_kernel",
    ),
    "corr.predicates": (
        "corr.CorrClass.is_zero", "corr.CorrClass.all_finite", "corr.is_full",
        "corr.phi_injective", "corr.is_hilbert_bimodule", "corr.is_split_mono",
        "corr.is_split_epi", "corr.is_invertible", "corr.mono_finite_rank_test",
        "corr.epi_finite_rank_test",
    ),
    "exactness.check": ("exactness.check_short_exact", "exactness.check_sequence"),
    "concrete.realize": ("concrete.realize",),
    "concrete.tensor": ("concrete.InteriorTensor",),
    "concrete.classify": ("concrete.classify",),
    "concrete.validate": ("concrete.validate",),
    "jsonio.parse": ("jsonio.corr_from_json", "jsonio.sequence_from_json"),
    "jsonio.dump": ("jsonio.corr_to_json", "jsonio.ideal_to_json"),
    "cli.main": ("cli.main",),
}
# Span counts that must repeat exactly from pass to pass.
COUNTED_SPANS = ("corr.compose", "cli.main", *GROUPS["exactness.check"])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class SetupClock:
    """Time since _STARTED in laps, the calibration loop timed between laps
    and left out; each lap is scaled by the mean loop time at its ends."""

    def __init__(self):
        self.seconds = self.scaled = 0.0
        self._start, self._cal = _STARTED, None

    def lap(self):
        seconds = time.perf_counter() - self._start
        cal = calibrate()
        self.seconds += seconds
        self.scaled += seconds * CAL_REFERENCE_S / ((self._cal or cal) + cal) * 2
        self._start, self._cal = time.perf_counter(), cal


def set_up(name, seed):
    """Import the package, make the seeded inputs, warm up on a few cases.
    Returns the workload and the SetupClock that timed these steps."""
    clock = SetupClock()
    sys.path.insert(0, str(SRC))
    from spans import Direct
    from workloads import WORKLOADS

    clock.lap()
    wl = WORKLOADS[name](seed)
    clock.lap()
    direct = Direct()
    for case in wl.cases[:: len(wl.cases) // WARMUP_CASES]:
        wl.run(direct, case)
        clock.lap()
    return wl, clock


def calibrate():
    """Seconds a fixed loop of integer arithmetic takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def probe_setup(args):
    """Seconds of import + inputs + warm-up in a fresh process, unscaled and
    scaled to the reference host speed."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    seconds, scaled = done.stdout.split()
    return float(seconds), float(scaled)


def run_passes(wl, seconds, seed, tracer=None, before_pass=None):
    """Whole passes over the case list, each in a seeded order, while the
    next pass (taken to last as long as the previous one) ends within
    `seconds` of case time; at least MIN_PASSES.

    Returns every case's latency in every pass, unscaled and scaled to the
    reference host speed, and the check results.  With a tracer, every call
    is traced and each cli-wide request is also replayed as its separate
    layer calls, outside the timed case.  `before_pass(measured)` runs
    untimed before each pass, with the case time measured so far."""
    from spans import Direct, tally

    t = tracer or Direct()
    rng = random.Random(seed)
    n = len(wl.cases)
    samples, scaled, problems, pass_counts, pass_seconds, calibrations = [], [], [], [], [], []
    failed = case_id = 0
    measured, uncalibrated = 0.0, CAL_EVERY_S
    while len(pass_seconds) < MIN_PASSES or measured + pass_seconds[-1] <= seconds:
        if before_pass:
            before_pass(measured)
        counts = {"cases": 0}
        first_span = len(tracer.start) if tracer else 0
        order = list(range(n))
        rng.shuffle(order)
        for idx in order:
            case = wl.cases[idx]
            if uncalibrated >= CAL_EVERY_S:
                calibrations.append(calibrate())
                scale, uncalibrated = CAL_REFERENCE_S / calibrations[-1], 0.0
            root = t.open(case_id)
            t0 = time.perf_counter()
            try:
                out = wl.run(t, case)
            except Exception as exc:  # a failing case is recorded, not fatal
                out = exc
            t1 = time.perf_counter()
            t.close(root, t0, t1)
            samples.append(t1 - t0)
            scaled.append((t1 - t0) * scale)
            uncalibrated += t1 - t0
            if isinstance(out, Exception):
                bad, case_counts = [f"case {idx}: {type(out).__name__}: {out}"], {}
            else:
                bad, case_counts = wl.check(case, out)
            problems.extend(bad)
            failed += bool(bad)
            counts["cases"] += 1
            for key, value in case_counts.items():
                counts[key] = counts.get(key, 0) + value
            if tracer and hasattr(wl, "replay") and not isinstance(out, Exception):
                replay = tracer.open(case_id, "replay")
                r0 = time.perf_counter()
                wl.replay(tracer, case)
                tracer.close(replay, r0, time.perf_counter())
            case_id += 1
        if tracer:
            seen = tally(tracer, first_span)
            counts.update({f"{name}.calls": seen.get(name, 0) for name in COUNTED_SPANS})
        pass_counts.append(counts)
        pass_seconds.append(sum(samples[-n:]))
        measured += pass_seconds[-1]
    return {
        "samples": samples,
        "scaled": scaled,
        "passes": len(pass_seconds),
        "calibration_s": statistics.median(calibrations),
        "attempted": len(samples),
        "failed": failed,
        "problems": problems,
        "pass_counts": pass_counts,
    }


def latency_metrics(samples, passes):
    """Throughput and latency percentiles: cases completed per second of
    case time in the median pass, and the median and 95th percentile of
    every timed sample."""
    n = len(samples) // passes
    pass_seconds = [sum(samples[k : k + n]) for k in range(0, len(samples), n)]
    return {
        "cases_per_s": n / statistics.median(pass_seconds),
        "case_p50_ms": statistics.median(samples) * 1e3,
        "case_p95_ms": statistics.quantiles(samples, n=20, method="inclusive")[18] * 1e3,
    }


def check_counts(name, seed, passes):
    """The exact counts of every pass must agree, within this run and with
    every earlier run of the same workload and seed in this checkout."""
    first = passes[0]
    for k, counts in enumerate(passes[1:], start=2):
        if counts != first:
            sys.exit(f"exact-count self-check failed: pass {k} counted {counts}, pass 1 {first}")
    path = OUT / "counts" / f"{name}-seed{seed}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    diff = {k: (stored[k], v) for k, v in first.items() if k in stored and stored[k] != v}
    if diff:
        sys.exit(f"exact-count self-check failed against {path}: (earlier, now) {diff}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**stored, **first}, indent=1, sort_keys=True))
    return first


def micro_figures():
    """Fixed-size, fixed-content timings in microseconds (median of reps),
    scaled to the reference host speed."""
    from enchilada import CorrClass, InteriorTensor, classify, compose, make_algebra, realize, validate

    rng = random.Random(20190902)

    def square(alg, k, top):
        return CorrClass(alg, alg, [[rng.randint(0, top) for _ in range(k)] for _ in range(k)])

    def median_us(fn, reps):
        fn()
        times = []
        for _ in range(reps):
            scale = CAL_REFERENCE_S / calibrate()
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * scale)
        return statistics.median(times) * 1e6

    out = {}
    for k, reps in ((4, 200), (16, 20), (64, 3)):
        alg = make_algebra([1] * k)
        x, y = square(alg, k, 3), square(alg, k, 3)
        out[f"corr.compose.k{k}_us"] = median_us(lambda: compose(x, y), reps)
    alg = make_algebra([2] * 4)
    x, y = square(alg, 4, 2), square(alg, 4, 2)
    rx, ry = realize(x), realize(y)
    tensor = InteriorTensor(rx, ry).corr
    out["concrete.realize.b4x2_us"] = median_us(lambda: realize(x), 50)
    out["concrete.tensor.b4x2_us"] = median_us(lambda: InteriorTensor(rx, ry), 10)
    out["concrete.classify.b4x2_us"] = median_us(lambda: classify(tensor), 10)
    out["concrete.validate.b4x2_us"] = median_us(lambda: validate(rx), 10)
    return out


def layer_metrics(tracer, result, counts):
    """Per-pass layer figures from the spans, each scaled by its case's
    scale to the reference host speed, and from the exact counts."""
    from spans import layer_times

    passes = result["passes"]
    scales = [s / t for s, t in zip(result["scaled"], result["samples"])]
    spans, case_s, covered = layer_times(tracer, scales)

    def busy_s(names):
        return sum(spans[n][1] for n in names if n in spans) / passes

    out = {f"{key}.busy_s": busy_s(names) for key, names in GROUPS.items()}
    out["corr.compose.busy_s"] = busy_s(("corr.compose",))
    compose = spans.get("corr.compose")
    out["corr.compose.p50_us"] = statistics.median(compose[2].tolist()) * 1e6 if compose else 0.0
    out["corr.compose.calls"] = counts["corr.compose.calls"]
    out["cli.main.calls"] = counts["cli.main.calls"]
    out["exactness.check.calls"] = sum(counts[f"{n}.calls"] for n in GROUPS["exactness.check"])
    # Everything but cli.main is either a replayed layer call of a cli-wide
    # request or a case's own call on another workload.
    replayed = busy_s([n for n in spans if n != "cli.main"]) if out["cli.main.calls"] else 0.0
    out["cli.overhead_s"] = out["cli.main.busy_s"] - replayed
    total = counts.get("concrete.tensor.gram_eigenvalues", 0)
    out["concrete.tensor.gram_eigenvalues"] = total
    out["concrete.tensor.kept_ratio"] = counts["concrete.tensor.gram_kept"] / total if total else 0.0
    for key in ("concrete.validate.unit_pairs", "concrete.tensor.fiber_dim_out"):
        out[key] = counts.get(key, 0)
    out["trace.case_busy_s"] = case_s / passes
    out["trace.coverage"] = covered / case_s
    return out


def provenance(args):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def git_commit():
    """HEAD of the checkout; "unknown" outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "enchilada" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'enchilada'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _, clock = set_up(args.workload, args.seed)
        print(clock.seconds, clock.scaled)
        return 0

    import reference

    reference.check_hand_cases()
    units = declared_units(args.trace)
    OUT.mkdir(exist_ok=True)
    wl, _ = set_up(args.workload, args.seed)
    from spans import Tracer

    report = {"provenance": provenance(args), "cases_per_pass": len(wl.cases)}
    if hasattr(wl, "finite_share"):
        report.update(finite_predicates_share=wl.finite_share, inf_share=wl.inf_share())
    if args.trace:
        micro = micro_figures()
        # Thirds: a traced cli-wide pass also replays each request.
        plain = run_passes(wl, args.seconds / 3, args.seed)
        tracer = Tracer()
        traced = run_passes(wl, args.seconds / 3, args.seed, tracer)
        for r in (plain, traced):
            counts = check_counts(args.workload, args.seed, r["pass_counts"])
        metrics = {**layer_metrics(tracer, traced, counts), **micro}
        rate, rate_plain = (
            latency_metrics(r["scaled"], r["passes"])["cases_per_s"] for r in (traced, plain)
        )
        metrics["trace.cases_per_s"] = rate
        metrics["trace.overhead_cases_per_s"] = rate - rate_plain
        path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(path)
        report.update(spans_file=str(path.relative_to(ROOT)), spans=len(tracer.start),
                      passes=[r["passes"] for r in (plain, traced)])
        runs = (plain, traced)
    else:
        # Setup probes are spread over the run, between passes, so that they
        # sample the machine's load at different times.
        setup = []

        def probe(measured):
            while len(setup) < SETUP_PROBES and measured >= len(setup) * args.seconds / SETUP_PROBES:
                setup.append(probe_setup(args))

        result = run_passes(wl, args.seconds, args.seed, before_pass=probe)
        probe(float("inf"))
        counts = check_counts(args.workload, args.seed, result["pass_counts"])
        metrics = latency_metrics(result["scaled"], result["passes"])
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        unscaled = latency_metrics(result["samples"], result["passes"])
        unscaled["setup_s"] = statistics.median(seconds for seconds, _ in setup)
        report.update(
            passes=result["passes"],
            calibration_s=result["calibration_s"],
            unscaled=unscaled,
            setup_samples_s=setup,
        )
        runs = (result,)

    if set(metrics) != set(units):
        sys.exit(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    report.update(
        samples=attempted,
        error_rate=failed / attempted,
        counts_per_pass=counts,
        problems=problems[:20],
    )
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
