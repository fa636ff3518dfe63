"""One benchmark process: set up a workload, measure it, print one JSON line.

``run.py`` starts this script with BLAS pinned to one thread and ``src`` on
the import path.  With ``--setup-only`` it stops once set-up is done, so the
caller can time set-up several times.  Times are ``time.monotonic`` (shared
by every process on the machine) where they cross the process boundary and
``perf_counter`` inside.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from time import perf_counter


def per_layer(tracer, jobs: int, untraced: list, traced: list) -> dict:
    """Per traced job: calls, self time and counters of each layer."""
    from tracer import LAYERS

    st = tracer.self_times()

    def calls(name):
        return st.get(name, (0, 0.0))[0] / jobs

    def self_s(*names):
        return sum(st.get(n, (0, 0.0))[1] for n in names) / jobs

    def count(name):
        return tracer.counts.get(name, 0.0) / jobs

    out = {
        "ratmat.eval.calls": calls("ratmat.eval"),
        "ratmat.eval.self_s": self_s("ratmat.eval"),
        "ratmat.arith.calls": calls("ratmat.arith"),
        "ratmat.arith.self_s": self_s("ratmat.arith"),
        "ratmat.invert.self_s": self_s("ratmat.invert"),
        "ratmat.roots.calls": calls("ratmat.roots"),
        "ratmat.roots.self_s": self_s("ratmat.roots"),
        "ratmat.rf_init.calls": count("ratmat.rf_init.calls"),
        "sstate.minimal.calls": calls("sstate.minimal"),
        "sstate.minimal.self_s": self_s("sstate.minimal"),
        "sstate.minimal.order_in": count("sstate.minimal.order_in"),
        "sstate.minimal.order_out": count("sstate.minimal.order_out"),
        "sstate.staircase.self_s": self_s("sstate.staircase"),
        "sstate.ss_to_tf.self_s": self_s("sstate.ss_to_tf"),
        "factor.bezout_residual.max": tracer.maxima.get("factor.bezout_residual.max", 0.0),
        "factor.hinf_grid_norm.points": count("factor.hinf_grid_norm.points"),
        "dimpl.row_order_total": count("dimpl.row_order_total"),
        "simkit.simulate.steps": count("simkit.simulate.steps"),
        "simkit.signals.self_s": self_s("simkit.signals"),
        "simkit.save_trace.bytes": count("simkit.save_trace.bytes"),
        "cli.json.bytes_read": count("cli.json.bytes_read"),
        "cli.json.bytes_written": count("cli.json.bytes_written"),
    }
    for name in ("factor.dcf_from_ss", "factor.youla_shift", "factor.closed_loop_maps",
                 "factor.hinf_grid_norm", "nrfsyn.nrf_from_dcf", "nrfsyn.mr3_certificate",
                 "nrfsyn.sparsity_correspondence", "dimpl.realize_rows", "dimpl.assemble",
                 "dimpl.closed_loop_state_matrix", "dimpl.verify_internal_stability_tfm",
                 "simkit.simulate", "simkit.save_trace", "simkit.load_trace",
                 "cli.demo", "cli.nrf", "cli.check", "cli.cert", "cli.realize"):
        out[f"{name}.self_s"] = self_s(name)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(*(n for n in st if n.startswith(layer + ".")))
        out[f"{layer}.failed"] = count(f"{layer}.failed")
    # paired differences: each traced job ran right after the same job untraced
    out["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    out["trace.overhead_frac"] = out["trace.overhead_s"] / statistics.median(untraced)
    out["trace.spans"] = len(tracer.spans) / jobs
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    import workloads  # imports nrfctl: part of set-up

    wl = workloads.make(args.workload, args.seed, args.workdir, args.tiny)
    result = {"ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    start = perf_counter()
    wl.warmup()
    result["warmup_s"] = perf_counter() - start

    start = perf_counter()
    job = 0
    if not args.trace:
        while True:
            wl.timed_job(job)
            job += 1
            if perf_counter() - start >= args.seconds:
                break
        result["samples"] = wl.samples
        result["window_s"] = perf_counter() - start
        if hasattr(wl, "outcomes"):
            start = perf_counter()
            wl.outcomes()
            result["outcomes_s"] = perf_counter() - start
    else:
        from tracer import Tracer

        # a traced job can do more than a timed one (the platoon sweep): warm that up too
        wl.trace_job(workloads.WARMUP_JOB)
        wl.ledger = workloads.Ledger()
        start = perf_counter()
        tracer = Tracer()
        untraced, traced = [], []
        while True:
            t0 = perf_counter()
            wl.trace_job(job)
            untraced.append(perf_counter() - t0)
            tracer.install()
            tracer.job = job
            try:
                t0 = perf_counter()
                tracer.span("bench.job", wl.trace_job, job, tracer)
                traced.append(perf_counter() - t0)
            finally:
                tracer.uninstall()
            job += 1
            if perf_counter() - start >= args.seconds:
                break
        result["per_layer"] = per_layer(tracer, len(traced), untraced, traced)
        spans = os.path.join(os.path.dirname(args.workdir),
                             f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans)
        result["spans_file"] = spans
        result["window_s"] = perf_counter() - start
    result["jobs"] = job
    result.update(wl.summary())
    result["attempted"] = wl.ledger.attempted
    result["failed"] = wl.ledger.failed
    result["failures"] = wl.ledger.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    sys.exit(main())
