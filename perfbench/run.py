"""Benchmark of the quantstab certify pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload sys1-sign --seed 1 --seconds 30 --trace 0

The workloads, metrics and bounds are declared in BENCHMARK.json; what each
metric means and which layer should move it is in perfbench/README.md.

--trace 0 measures the end-to-end metrics with tracing off: set-up time in
fresh child processes, then repetitions of the workload's operation list
until --seconds are used (at least one).  --trace 1 alternates untraced and
traced repetitions for --seconds (at least one pair) and reports the
per-layer split and the tracing overhead; the spans go to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with the environment, goes
to .bench_out/.  Everything runs in this one process on one thread.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy
import scipy

from tracing import Tracer, instrument, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1,
                   help="draws the extra initial states of the simulations")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--data-seed", type=int, default=1,
                   help="dataset seed; references exist only for seed 1")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _monotonic():
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(args):
    """Time from starting a fresh process to the end of its set-up: Python
    start, imports of quantstab, numpy and scipy, and generate_dataset.
    The child reads the clock itself, so neither its exit nor the parent's
    polling for it is counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--data-seed", str(args.data_seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t = _monotonic()
        out = subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S,
                             capture_output=True, text=True).stdout
        samples.append(float(out.split()[-1]) - t)
    return samples


def repeat(seconds, make_rep):
    """Run repetitions until the next one would overrun seconds."""
    reps, t0 = [], time.perf_counter()
    while True:
        reps.append(make_rep())
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(r.run_s for r in reps) > seconds:
            return reps


def _median(values):
    """Median, or None when some repetition has no value."""
    values = list(values)
    return None if None in values else statistics.median(values)


def end_to_end_metrics(reps, setup_samples):
    """The first repetition's memory peak is the one a fresh CLI process
    sees; later repetitions reuse a heap the first one fragmented."""
    attempted = sum(len(r.ops) for r in reps)
    failed = sum(r.failed for r in reps)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "run_s": (_median(r.run_s for r in reps), "s"),
        "time_to_cert_s": (_median(r.time_to_cert_s for r in reps), "s"),
        "peak_rss_mb": (reps[0].peak_rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "min_rho": (_median(r.values.get("min_rho") for r in reps), "1"),
        "cert_lambda": (_median(r.values.get("cert_lambda") for r in reps), "1"),
    }


def per_layer_metrics(traced, untraced, tracers):
    """Medians over the traced repetitions of each layer metric, plus the
    counters the workload keeps and the tracing overhead."""
    per_rep = []
    for rep, tracer in zip(traced, tracers):
        m = layer_metrics(tracer.spans)
        m["cli.retries"] = (rep.retries, "count")
        m["consistency.faces_in"] = (rep.faces[0], "count")
        m["consistency.faces_out"] = (rep.faces[1], "count")
        m["trace.spans"] = (len(tracer.spans), "count")
        per_rep.append(m)
    out = {name: (statistics.median(m[name][0] for m in per_rep), unit)
           for name, unit in ((k, u) for k, (_, u) in per_rep[0].items())}
    traced_s = statistics.median(r.run_s for r in traced)
    untraced_s = statistics.median(r.run_s for r in untraced)
    out["trace.traced_run_s"] = (traced_s, "s")
    out["trace.untraced_run_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def environment(args):
    try:
        from scipy.optimize._highspy import _core as highs
        highs_version = (f"{highs.HIGHS_VERSION_MAJOR}."
                         f"{highs.HIGHS_VERSION_MINOR}."
                         f"{highs.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        highs_version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed,
        "data_seed": args.data_seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "highs": highs_version, "commit": commit,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "quantstab" / "__init__.py").is_file():
        print(f"error: no quantstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl      # imports quantstab from SRC

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    data = wl.setup(workload, args.data_seed, args.seed)
    if args.setup_only:
        print(repr(_monotonic()), flush=True)
        os._exit(0)
    refs = wl.REFERENCE if args.data_seed == wl.REFERENCE_DATA_SEED else None
    if refs is None:
        print(f"note: no references for dataset seed {args.data_seed}; "
              "only audits, containment and decay are checked",
              file=sys.stderr)

    def untraced():
        return wl.run_rep(workload, data, refs)

    if args.trace:
        def pair():
            """An untraced repetition, then a traced one, so that slow
            drift of the machine affects both sides of the overhead alike."""
            plain = untraced()
            tracer = Tracer()
            with instrument(tracer):
                traced = wl.run_rep(workload, data, refs, tracer)
            return SimpleNamespace(run_s=plain.run_s + traced.run_s,
                                   plain=plain, traced=traced, tracer=tracer)

        pairs = repeat(args.seconds, pair)
        tracers = [p.tracer for p in pairs]
        metrics = per_layer_metrics([p.traced for p in pairs],
                                    [p.plain for p in pairs], tracers)
        reps = [r for p in pairs for r in (p.plain, p.traced)]
    else:
        setup_samples = measure_setup(args)
        reps = repeat(args.seconds, untraced)
        metrics = end_to_end_metrics(reps, setup_samples)

    attempted = sum(len(r.ops) for r in reps)
    failed = sum(r.failed for r in reps)
    wrong = [o for r in reps for o in r.wrong]
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(OUT / f"spans-{stem}.jsonl", "w") as f:
            for k, tracer in enumerate(tracers):
                for i, span in enumerate(tracer.spans):
                    f.write(json.dumps({"rep": k, "id": i,
                                        **span.to_json_dict()}) + "\n")
    failures = [{"rep": k, "kind": o.kind, "label": o.label,
                 "failure": o.failure, "detail": o.detail}
                for k, r in enumerate(reps) for o in r.ops if o.failure]
    with open(OUT / f"result-{stem}.json", "w") as f:
        json.dump({"env": env, "repetitions": len(reps),
                   "run_s": [r.run_s for r in reps], "failures": failures,
                   **result}, f, indent=1)
    print("env " + json.dumps(env))
    print(f"{len(reps)} repetitions, {attempted} operations, {failed} failed")
    for fail in failures:
        print(f"  failed {fail['kind']} {fail['label']}: {fail['detail']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
