"""nrfctl benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload grid5-cli --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Workloads: grid5-cli, platoon-sweep,
sim-long (see workloads.py and README.md).  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  The lines before it give each timing's tail percentile and
sample count, the run record and the outcome table of the untimed phase
(the platoon size sweep, the grid5 robustness probes).
Run files (the spans of traced runs, scratch job directories) go to
``.perfbench/`` in the checkout, which is made when missing.

Set-up is timed three times per run, each in a fresh process, from process
start to the end of import and input generation; the median is reported.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
WORKER_TIMEOUT_S = 170.0

# what a job and a stage are on each workload, and the name each timing is
# printed under
MEANING = {
    "grid5-cli": {"job_s": "grid5_job_s: one 5-command CLI job",
                  "stage_s": "grid5_check_s: `check --grid 256` alone"},
    "platoon-sweep": {"job_s": "platoon_synth_s: place_gains..closed_loop_state_matrix, "
                               "summed over n = 2..4",
                      "stage_s": "dcf_from_ss alone, summed over n = 2..4"},
    "sim-long": {"job_s": "simulate wall time for both loops (2 x horizon steps)",
                 "stage_s": "trace_io_s: save_trace + load_trace per 10k-step, "
                            "5-channel trace"},
}
RATES = {"job_s": "jobs_per_s", "stage_s": "stages_per_s"}


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are fewer than twenty samples."""
    s = sorted(samples)
    if len(s) < 20:
        return "max", s[-1]
    q = int(100 * (1 - 10 / len(s)))
    return f"p{q}", s[min(len(s) - 1, math.ceil(q / 100 * len(s)) - 1)]


def spawn(args, extra: list[str], env: dict) -> tuple[dict, float]:
    """Run the worker; return its JSON result and its start time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", args.workdir] + extra + (["--tiny"] if args.tiny else [])
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def run_record(worker_env: dict) -> dict:
    record = dict(worker_env)
    record["git_commit"] = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
        if proc.returncode == 0:
            record["git_commit"] = proc.stdout.strip()
    lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    record["src_lines"] = lines
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("grid5-cli", "platoon-sweep", "sim-long"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, for the benchmark's own smoke test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "nrfctl", "__init__.py")):
        print(f"perfbench: no nrfctl sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    args.workdir = os.path.join(out_dir, f"job-{args.workload}-{os.getpid()}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.path.join(ROOT, "src"))
    try:
        setups = []
        for _ in range(SETUPS - 1):
            res, started = spawn(args, ["--setup-only"], env)
            setups.append(res["ready"] - started)
        res, started = spawn(args, [], env)
        setups.append(res["ready"] - started)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    record = run_record(res["env"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {res['jobs']} jobs in {res['window_s']:.2f} s, "
          f"warm-up {res['warmup_s']:.2f} s, untimed outcomes {res.get('outcomes_s', 0):.2f} s")
    print("run record: " + json.dumps(record))
    print(f"operations: {res['attempted']} attempted, {res['failed']} failed")
    for line in res["failures"]:
        print(f"  failed: {line}")
    if "table" in res:
        print("outcome table (case, operation, outcome, seconds):")
        for case, row in res["table"].items():
            for op, (outcome, seconds) in row.items():
                print(f"  {case:<8} {op:<31} {outcome[:100]:<40} {seconds:.4f}")

    if args.trace:
        wanted = bench["per_layer"]
        values = res["per_layer"]
        print(f"tracing overhead: {values['trace.overhead_s']:.4f} s per job "
              f"({100 * values['trace.overhead_frac']:.1f}%), spans in {res['spans_file']}")
    else:
        wanted = bench["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ops_frac": res["ok_ops"] / res["all_ops"],
            "frontier_n": res["frontier_n"],
        }
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        print(f"ok_ops_frac: {res['ok_ops']} of {res['all_ops']} ok "
              f"(failed_ops_frac {1 - values['ok_ops_frac']:.4f})")
        for key, samples in res["samples"].items():
            # work done per second of busy time: a closed loop's throughput
            values[RATES[key]] = len(samples) / sum(samples)
            name, val = tail(samples)
            print(f"{key}: median {statistics.median(samples):.6f} s, {name} {val:.6f} s, "
                  f"{len(samples)} samples, {values[RATES[key]]:.6f} per s  "
                  f"[{MEANING[args.workload][key]}]")
        if args.workload == "sim-long":
            print(f"sim_steps_per_s: {res['steps_per_job'] * values['jobs_per_s']:.1f}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
