"""Smoke test for the benchmark's own code; it never asserts a timing.

    python3 perfbench/smoke.py

Runs every workload at its tiny size, untraced and traced, each from a
checkout without ``.perfbench/``, and checks that
the last line carries every metric of BENCHMARK.json with its unit; that the
known-answer checks ran and reject wrong answers; that one seed regenerates
identical inputs; and that the benchmark refuses to run, printing no result,
in a directory that holds only BENCHMARK.json and the benchmark.  Exits 0
when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")


def run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_outputs(bench: dict) -> None:
    """Each run starts without `.perfbench/`, as in a fresh checkout."""
    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            shutil.rmtree(os.path.join(ROOT, ".perfbench"), ignore_errors=True)
            proc = run(["--workload", name, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny"])
            expect(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}:"
                                         f"\n{proc.stderr[-2000:]}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(last)}")
            expect(isinstance(last["attempted"], int) and last["attempted"] >= 1,
                   f"{name}: attempted {last['attempted']}")
            expect(last["correct"] is True and last["failed"] == 0,
                   f"{name} trace={trace}: correct {last['correct']}, failed {last['failed']}")
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = last["metrics"]
            expect(set(got) == set(want), f"{name} {kind}: metric names differ: "
                                          f"{sorted(set(got) ^ set(want))}")
            for metric, unit in want.items():
                value = got[metric]["value"]
                expect(got[metric]["unit"] == unit and isinstance(value, (int, float))
                       and np.isfinite(value), f"{name}: {metric} = {got[metric]}")
            print(f"smoke: {name} trace={trace}: {len(got)} metrics, "
                  f"{last['attempted']} operations checked")


def check_known_answers() -> None:
    """Each check accepts the right answer and rejects a wrong one."""
    cert = "unstable witness poles: [1, 1, 1, 1, 1.00000000002]"
    expect(workloads._cli_cert(2, cert) is None, "cert check rejects five poles at 1")
    expect(workloads._cli_cert(2, cert.replace(", 1.00000000002", "")) is not None,
           "cert check accepts four poles")
    stable = "\n".join(f"T[{o} <- {i}]: stable" for o in "yuzv" for i in ("r", "w", "nu", "du"))
    stable += "\nH-tilde entries: all stable\nclosed-loop grid norm (256 points): 8.1"
    expect(workloads._cli_check(256)(0, stable) is None, "check check rejects a stable report")
    expect(workloads._cli_check(256)(2, stable.replace("T[u <- w]: stable",
                                                  "T[u <- w]: UNSTABLE ['1.03']")) is not None,
           "check check accepts a spurious unstable block")
    expect(workloads._cli_demo(0, "nrf matches the grid5 closed form coefficient-wise: False")
           is not None, "demo check accepts a closed-form mismatch")
    case = workloads.PlatoonCase(2, 3)
    outcomes, have = workloads.run_case(case)
    expect(all(o == "ok" for o, _s in outcomes.values()), f"platoon n=2: {outcomes}")
    expect(workloads._check_mr3(3)(workloads.nrfsyn.mr3_certificate(have["dcf"], have["shift"]))
           is not None, "mr3 check accepts two poles where three are due")
    trace = workloads.simkit.simulate(workloads.platoon_scenario(case, have["ctrl"], 3, 50))
    path = os.path.join(ROOT, ".perfbench", "smoke-trace.csv")
    workloads.simkit.save_trace(path, trace)
    loaded = workloads.simkit.load_trace(path)
    os.remove(path)
    expect(workloads._check_round_trip(trace)(loaded) is None, "round trip not bit-exact")
    loaded.y[3, 0] = np.nextafter(loaded.y[3, 0], np.inf)
    expect(workloads._check_round_trip(trace)(loaded) is not None,
           "round-trip check misses a one-ulp change")
    print("smoke: known-answer checks accept right answers and reject wrong ones")


def check_seeding() -> None:
    expect(workloads.seeded_q(5, 2) == workloads.seeded_q(5, 2), "seeded Q not reproducible")
    expect(workloads.seeded_q(5, 2) != workloads.seeded_q(6, 2), "seed does not change Q")
    expect(workloads.seeded_grouping(5, 2) == workloads.seeded_grouping(5, 2),
           "grouping not reproducible")
    case = workloads.PlatoonCase(2, 3)
    ctrl = workloads.run_case(case, workloads.SYNTH_OPS)[1]["ctrl"]
    first = workloads.platoon_scenario(case, ctrl, 9, 40).signals()
    again = workloads.platoon_scenario(case, ctrl, 9, 40).signals()
    other = workloads.platoon_scenario(case, ctrl, 10, 40).signals()
    expect(all(np.array_equal(a, b) for a, b in zip(first, again)), "noise not reproducible")
    expect(not all(np.array_equal(a, b) for a, b in zip(first, other)),
           "seed does not change noise")
    print("smoke: one seed regenerates identical inputs")


def check_refuses_without_sources() -> None:
    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "grid5-cli", "--seed", "1", "--seconds", "1"], cwd=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: refuses to run without the sources")


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_known_answers()
    check_seeding()
    check_refuses_without_sources()
    check_outputs(bench)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
