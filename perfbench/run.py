"""slrk benchmark: one seeded workload, timed, checked, reported.

    python3 perfbench/run.py --workload ns_spectral --seed 1 --seconds 30 --trace 0

Workloads: ns_spectral, dense_stiff, search, verify_stability (see
perfbench/README.md). With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it pairs every job with a traced rerun of the
same job and reports the per-layer metrics and the tracing overhead.
``--smoke`` shrinks every size (n=16, N=32, 16 rays) for the benchmark's own test.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it name every
metric with its unit, direction and sample count. A run record (the
environment, the search digest and the first traced spans) is written to
.perfbench/ under the repository root.

BLAS and OpenMP thread counts default to 1 for steady timings; set
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS to override.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SLOTS = 20  # set-up samples are taken at this many points spread over the window
SETUP_SLOT_S = 0.02  # each slot repeats the set-up until this much time is spent...
SETUP_SLOT_REPEATS = 5  # ...or it has run this many times
CPU_TURN_S = 0.5  # the window moves the process to the next allowed CPU this often
MIN_JOBS = 2
REFERENCE_EVERY_S = 0.02  # the reference kernel runs after a job at most this often

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_ref_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def import_program():
    """Import slrk from this checkout's src/; anything else is an error."""
    sys.path.insert(0, str(ROOT / "src"))
    import slrk

    if not Path(slrk.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"slrk was imported from {slrk.__file__}, not from {ROOT / 'src'}")


def timed_setups(wl, tracer) -> list[float]:
    """One slot of set-up samples; under a tracer the set-up targets are wrapped."""
    samples = []
    if tracer:
        tracer.install(wl.setup_targets)
    try:
        while not samples or (sum(samples) < SETUP_SLOT_S
                              and len(samples) < SETUP_SLOT_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            samples.append(time.perf_counter() - t0)
    finally:
        if tracer:
            tracer.restore()
    return samples


def measure(wl, seconds: float, tracer=None) -> dict:
    """Run jobs for `seconds`, taking set-up samples at SETUP_SLOTS points of the window.

    On a shared machine the speed of each CPU drifts with its neighbours'
    load, over seconds and independently of the other CPUs. So set-up
    samples are spread over the window instead of taken in one burst, and
    the process takes turns of CPU_TURN_S on each CPU it may use. The
    affinity is restored afterwards. The reference kernel runs after each
    set-up slot, after any job that ends REFERENCE_EVERY_S or more after
    the previous kernel run, and once at the end, so every sample has a
    kernel time measured right after it (its index in `refs`).

    With a tracer, each job runs untraced and then again traced on the same
    input; the two results must agree and, where a workload's jobs are all
    alike, so must the traced call counts.
    """
    setups, plain, times, units, failures, spans = [], [], [], [], [], []
    refs, setup_ref, job_ref = [], [], []
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    cpus = sorted(allowed)
    turns = 0
    begin = time.perf_counter()
    deadline = begin + seconds
    next_setup = next_turn = next_ref = begin
    try:
        while len(times) < MIN_JOBS or time.perf_counter() < deadline:
            if len(cpus) > 1 and time.perf_counter() >= next_turn:
                os.sched_setaffinity(0, {cpus[turns % len(cpus)]})
                turns += 1
                next_turn = time.perf_counter() + CPU_TURN_S
            if time.perf_counter() >= next_setup:
                slot = timed_setups(wl, tracer)
                setups += slot
                setup_ref += [len(refs)] * len(slot)
                refs.append(reference.timed())
                next_setup += seconds / SETUP_SLOTS
            inp = wl.next_input()
            t0 = time.perf_counter()
            out = wl.work(inp)
            elapsed = time.perf_counter() - t0
            if tracer:
                plain.append(elapsed)
                ref = out
                before = tracer.snapshot()
                tracer.install(wl.job_targets)
                try:
                    t0 = time.perf_counter()
                    out = tracer.call(wl.job, wl.work, inp)
                    elapsed = time.perf_counter() - t0
                finally:
                    tracer.restore()
                spans.append(tracer.since(before))
                counts = {name: tot.calls for name, tot in spans[-1].items()}
                first = {name: tot.calls for name, tot in spans[0].items()}
                if wl.fixed_counts and counts != first:
                    failures.append(f"job {len(times)} call counts {counts} != {first}")
                if not wl.same(ref, out):
                    failures.append(f"job {len(times)}: traced result differs from untraced")
            times.append(elapsed)
            job_ref.append(len(refs))
            if time.perf_counter() >= next_ref:
                refs.append(reference.timed())
                next_ref = time.perf_counter() + REFERENCE_EVERY_S
            units.append(wl.units(out))
            wl.accept(inp, out)
        refs.append(reference.timed())
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, allowed)
    return {"setups": setups, "plain": plain, "times": times, "units": units,
            "failures": failures, "spans": spans, "refs": refs,
            "setup_ref": setup_ref, "job_ref": job_ref}


def in_reference_s(samples, following, refs) -> float:
    """Median over samples of sample / the kernel time right after it, in reference seconds."""
    return reference.REFERENCE_S * statistics.median(
        t / refs[k] for t, k in zip(samples, following))


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  smoke: bool = False, tamper=None) -> dict:
    """Run one workload; returns the result line, the report lines and the run record."""
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[workload](seed, smoke=smoke, tamper=tamper)
    wl.setup()  # untimed: lets lazy imports and first-touch allocations happen
    wl.start()
    for _ in range(wl.warmup_jobs):
        inp = wl.next_input()
        wl.accept(inp, wl.work(inp))
    tracer = Tracer() if trace else None
    m = measure(wl, seconds, tracer)
    wl.finish()
    times, units = m["times"], sum(m["units"])

    if tracer:
        failures = m["failures"] + [
            f"{name} was wrapped but never called"
            for name in tracer.uncalled(wl.setup_targets) + tracer.uncalled(wl.job_targets)]
        view = workloads.TraceView(tracer, m["spans"], m["units"])
        metrics = {name: 0.0 for name, _, _ in workloads.PER_LAYER}
        metrics.update(wl.layer_metrics(view))
        metrics.update({
            "trace.overhead_s": statistics.median(t - p for t, p in zip(times, m["plain"])),
            "trace.layer_sum_ms": view.layer_sum_ms(),
            "trace.untraced_wall_ms_p50": 1e3 * statistics.median(m["plain"]),
            "trace.selfcheck_failures": len(failures),
            "trace.spans": tracer.n_spans,
        })
        declared = workloads.PER_LAYER
        report = []
        trace_record = {"absent": sorted(tracer.absent), "selfcheck": failures,
                        "counts_per_job": {name: tot.calls for name, tot in m["spans"][0].items()},
                        "spans": tracer.spans}
    else:
        # The machine's speed drifts by more than any bound within minutes, so
        # each time is divided by the reference kernel's time measured right
        # after it (see perfbench/README.md, "Steadiness").
        paired = [(t / u, k) for t, u, k in zip(times, m["units"], m["job_ref"]) if u]
        metrics = {
            "setup_s": in_reference_s(m["setups"], m["setup_ref"], m["refs"]),
            "wall_ref_s": in_reference_s(*zip(*paired), m["refs"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        declared = END_TO_END
        report = wl.report(times, units)
        trace_record = None

    unit_of = {name: (unit, better) for name, unit, better in declared}
    result = {
        "correct": wl.tally.failed == 0,
        "attempted": wl.tally.attempted,
        "failed": wl.tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit_of[name][0]}
                    for name, value in metrics.items()},
    }
    lines = [f"metric {name} = {value:.6g} {unit_of[name][0]} ({unit_of[name][1]} is better)"
             for name, value in metrics.items()]
    if not tracer:
        lines.append(f"note setup_s and wall_ref_s are medians of time / reference kernel "
                     f"time x {1e3 * reference.REFERENCE_S:g} ms, over n={len(m['setups'])} "
                     f"set-ups spread over the window and n={len(times)} jobs ({wl.job}, per "
                     f"{wl.unit}); the kernel ran {len(m['refs'])} times, median "
                     f"{1e3 * statistics.median(m['refs']):.4g} ms")
    lines += [f"metric {name} = {value:.6g} {unit} ({better} is better; {note})"
              for name, value, unit, better, note in report]
    lines.append(f"metric failed_ratio = {wl.tally.failed}/{wl.tally.attempted} "
                 "outputs checked (lower is better)")
    lines += [f"failed {note}" for note in wl.tally.notes]
    if trace_record:
        lines += [f"selfcheck {msg}" for msg in trace_record["selfcheck"]]
        lines += [f"absent {name} (not wrapped)" for name in trace_record["absent"]]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "tolerances": wl.tolerances(), "digest": wl.digest(),
              "setup_s": m["setups"], "reference_s": m["refs"], "job_s": times,
              "job_units": m["units"],
              "report": lines, "result": result, "trace_record": trace_record}
    return {"result": result, "lines": lines, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ns_spectral", "dense_stiff", "search", "verify_stability"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the self-test")
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import slrk from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    import envinfo
    import workloads

    out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    env = envinfo.environment(ROOT, args.seed, workloads.DENSE_N ** 2 * 8)
    out["record"]["env"] = env
    record_dir = ROOT / ".perfbench"
    record_dir.mkdir(exist_ok=True)
    path = record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out["record"]) + "\n")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env))
    digest = out["record"]["digest"]
    if digest:
        print("digest converged by stage count " + json.dumps(digest["converged"])
              + f"; per-seed rows in {path.relative_to(ROOT)}")
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
