"""The benchmark's three workloads, their inputs and their known-answer checks.

Every workload is one client in one process running jobs back to back (a
closed loop).  Timed jobs take their inputs from the workload seed; the
untimed outcome phase after the window uses fixed inputs, so its table reads
the same in every run.  Each operation is timed on its own and then checked
outside the timer; it counts as failed when it raises or when its answer is
wrong.  The package is driven only through its public functions.

- ``grid5-cli``: the verification path users run on every design, through
  ``nrfctl.cli.main``: ``demo`` (no simulation), ``nrf --patterns``,
  ``check --grid 256``, ``cert --mode mr3``, ``realize`` with a seeded
  grouping; then robustness probes on fixed seeded Youla parameters.
- ``platoon-sweep``: numerical synthesis on chain topologies.  The timed job
  is the synthesis route (gain placement through the closed-loop state
  matrix) at the sizes that pass it on this code, n = 2..4; then one sweep of
  twelve operations per size n = 2..8 gives the outcome table and the size
  frontier.
- ``sim-long``: long seeded runs of two fixed closed loops (grid5 and the
  five-vehicle platoon) plus a CSV round trip of each trace; the control
  workload for changes to the symbolic layers.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
from time import perf_counter

import numpy as np

from nrfctl import cli, dimpl, factor, nrfsyn, simkit, sstate
from nrfctl.ratmat import RationalMatrix, StabilityDomain

# a point outside the unit disk: every factor and the plant are finite there
PROBE = complex(2.0, 0.5)
EVAL_TOL = 1e-8  # pointwise agreement of two evaluations of one map
POLE_TOL = 1e-6  # certificate poles at z = 1, spectral radius against target
WARMUP_JOB = 10**9  # input index of the untimed warm-up job, never a timed one


class Ledger:
    """Attempted and failed operations, with the first failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, outcome: str) -> None:
        self.attempted += 1
        if outcome != "ok":
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {outcome}")


def run_op(fn, check, tracer=None, layer=""):
    """Time fn alone, then check its answer untimed.

    Returns (result or None, seconds, outcome) where outcome is "ok", the
    exception's class name and message, or "wrong: <reason>".
    """
    start = perf_counter()
    try:
        result = fn()
    except Exception as exc:  # an operation's failure is a measured outcome
        return None, perf_counter() - start, f"{type(exc).__name__}: {exc}"[:100]
    seconds = perf_counter() - start
    with tracer.paused() if tracer else contextlib.nullcontext():
        try:
            reason = check(result)
        except Exception as exc:  # an answer that cannot be evaluated is not a right one
            reason = f"check raised {type(exc).__name__}: {exc}"[:100]
    if reason is None:
        return result, seconds, "ok"
    if tracer is not None:
        tracer.count(f"{layer}.failed")
    return result, seconds, f"wrong: {reason}"


def _rel_gap(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want), initial=0.0)
                 / max(1.0, float(np.max(np.abs(want), initial=0.0))))


def _sorted_eigs(values) -> np.ndarray:
    return np.array(sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag)))


# ---------------------------------------------------------------------------
# grid5-cli


GRID = 256
PROBE_SEED = 0  # the robustness probes are the same Youla parameters in every run
PROBES = 16
# printed by `demo grid5 --grid 256 --no-sim` at the commit that defined this
# benchmark; the grid norm of a fixed design must not drift
DEMO_GRID_NORM = 7.25325527697
_FLOAT = r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?"


def seeded_q(seed: int, job: int) -> dict:
    """Rational-matrix JSON of grid5_q() + diag(c_i / (z - a_i)).

    a_i in [-0.5, 0.5] and c_i in [-0.1, 0.1]: every such Q is stable, so the
    loop it closes is stable and the certificate keeps its five poles.
    """
    rng = np.random.default_rng([seed, job])
    a = rng.uniform(-0.5, 0.5, 5)
    c = rng.uniform(-0.1, 0.1, 5)
    entries = [[{"num": [0.0], "den": [1.0]}] * 5 for _ in range(5)]
    for i in range(5):
        # 0.8/(z - 0.2) + c/(z - a) over the common denominator (z - 0.2)(z - a)
        entries[i][i] = {
            "num": [float(-0.8 * a[i] - 0.2 * c[i]), float(0.8 + c[i])],
            "den": [float(0.2 * a[i]), float(-0.2 - a[i]), 1.0],
        }
    return {"domain": "discrete", "rows": 5, "cols": 5, "entries": entries}


def seeded_grouping(seed: int, job: int) -> str:
    """A random partition of the rows 1..5 into blocks, as `realize --grouping` takes it."""
    rng = np.random.default_rng([seed, job])
    rows = [int(r) for r in rng.permutation(5) + 1]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, 5), int(rng.integers(0, 5)),
                                             replace=False))
    blocks = [rows[a:b] for a, b in zip([0] + cuts, cuts + [5])]
    return ";".join(",".join(str(r) for r in block) for block in blocks)


def _cli_demo(code: int, out: str):
    if code != 0:
        return f"exit {code}"
    for line in ("nrf matches the grid5 closed form coefficient-wise: True",
                 "pattern correspondence: True"):
        if line not in out.splitlines():
            return f"missing {line!r}"
    m = re.search(rf"closed-loop grid norm \({GRID} points\): ({_FLOAT})", out)
    if not m:
        return "no grid norm line"
    if abs(float(m.group(1)) - DEMO_GRID_NORM) > 1e-9 * DEMO_GRID_NORM:
        return f"grid norm {m.group(1)} != {DEMO_GRID_NORM}"
    return None


def _cli_nrf(code: int, out: str):
    if code != 0:
        return f"exit {code}"
    if "pattern correspondence (both characterizations): True" not in out.splitlines():
        return "pattern correspondence is not True"
    return None


def _cli_check(grid: int):
    def check(code: int, out: str):
        lines = out.splitlines()
        stable = [ln for ln in lines if re.fullmatch(r"T\[\w+ <- \w+\]: stable", ln)]
        if code != 0 or len(stable) != 16:
            return f"exit {code}, {len(stable)} of 16 blocks stable"
        if "H-tilde entries: all stable" not in lines:
            return "H-tilde entries not all stable"
        if grid and not any(ln.startswith(f"closed-loop grid norm ({grid} points): ")
                            for ln in lines):
            return "no grid norm line"
        return None

    return check


def _cli_cert(code: int, out: str):
    m = re.search(r"unstable witness poles: \[(.*)\]", out)
    if code != 2 or not m:
        return f"exit {code}, no poles line"
    poles = [complex(tok.strip()) for tok in m.group(1).split(",") if tok.strip()]
    if len(poles) != 5 or any(abs(p - 1.0) > POLE_TOL for p in poles):
        return f"poles {m.group(1)}, want five at 1"
    return None


def _cli_realize(blocks: int):
    def check(code: int, out: str):
        m = re.search(r"row orders: \[([\d, ]*)\] \(total (\d+)\)", out)
        if code != 0 or not m:
            return f"exit {code}, no row orders line"
        orders = [int(t) for t in m.group(1).split(",")]
        if len(orders) != blocks or sum(orders) != int(m.group(2)):
            return f"row orders {orders} total {m.group(2)}"
        return None

    return check


class Grid5Cli:
    """The demo's design through five CLI commands, plus robustness probes.

    A timed job runs demo, nrf, check, cert and realize on the demo's own
    Youla parameter, with a seeded row grouping.  After the timed window, the
    probes repeat nrf, check (without the grid norm), cert and realize on
    fixed seeded parameters grid5_q() + diag(c_i/(z-a_i)).  On this code
    `check` reports spurious unstable poles near z = 1 for some of them, so
    their outcomes are measured (ok_ops_frac) rather than timed.
    """

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.dir = workdir
        self.probes = 1 if tiny else PROBES
        self.ledger = Ledger()
        self.samples = {"job_s": [], "stage_s": []}
        self.table = None
        os.makedirs(workdir, exist_ok=True)

    def commands(self, q_file: str, grouping: str, demo: bool):
        """The job's commands; probes (demo=False) check without the grid norm."""
        d = functools.partial(os.path.join, self.dir)
        grid = ["--grid", str(GRID)] if demo else []
        cmds = [
            ("nrf", ["nrf", "--dcf", d("dcf.json"), "--q", q_file,
                     "--patterns", d("patterns.json"), "--out", d("nrf_job.json")],
             _cli_nrf, (d("dcf.json"), q_file, d("patterns.json"))),
            ("check", ["check", "--nrf", d("nrf_job.json"), "--plant", d("plant.json"), *grid],
             _cli_check(GRID if demo else 0), (d("nrf_job.json"), d("plant.json"))),
            ("cert", ["cert", "--dcf", d("dcf.json"), "--q", q_file, "--mode", "mr3"],
             _cli_cert, (d("dcf.json"), q_file)),
            ("realize", ["realize", "--nrf", d("nrf_job.json"), "--grouping", grouping,
                         "--out", d("rows_job.json")],
             _cli_realize(grouping.count(";") + 1), (d("nrf_job.json"),)),
        ]
        if demo:
            cmds.insert(0, ("demo", ["demo", "grid5", "--out", self.dir, "--grid", str(GRID),
                                     "--no-sim"], _cli_demo, ()))
        return cmds

    def run(self, cmds, tracer=None) -> dict:
        """Run commands in order; returns {command: (outcome, seconds)}."""
        out = {}
        for name, argv, check, reads in cmds:
            before = _sizes(self.dir) if tracer else None
            buf = io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as exc:  # cli.main lets only unexpected errors escape
                code, outcome = None, f"{type(exc).__name__}: {exc}"[:100]
            seconds = perf_counter() - start
            if code is not None:
                reason = check(code, buf.getvalue())
                outcome = "ok" if reason is None else f"wrong: {reason}"
                if reason is not None and tracer:
                    tracer.count("cli.failed")
            out[name] = (outcome, seconds)
            if tracer:
                tracer.count("cli.json.bytes_read", sum(os.path.getsize(p) for p in reads))
                tracer.count("cli.json.bytes_written", sum(
                    stat[0] for p, stat in _sizes(self.dir).items()
                    if p.endswith(".json") and before.get(p) != stat))
        return out

    def job(self, job: int, tracer=None, ledger=None) -> tuple[float, float]:
        """One timed job; returns (job seconds, check seconds)."""
        ledger = ledger or self.ledger
        cmds = self.commands(os.path.join(self.dir, "q.json"),
                             seeded_grouping(self.seed, job), demo=True)
        out = self.run(cmds, tracer)
        for name, (outcome, _s) in out.items():
            ledger.record(f"grid5-cli {name}", outcome)
        return sum(s for _o, s in out.values()), out["check"][1]

    def warmup(self) -> None:
        self.job(WARMUP_JOB, ledger=Ledger())

    def outcomes(self) -> None:
        self.table = {}
        q_file = os.path.join(self.dir, "q_probe.json")
        for k in range(self.probes):
            with open(q_file, "w", encoding="utf-8") as fh:
                json.dump(seeded_q(PROBE_SEED, k), fh)
            self.table[k] = self.run(self.commands(q_file, "1;2,3;4;5", demo=False))

    def timed_job(self, job: int) -> None:
        job_s, check_s = self.job(job)
        self.samples["job_s"].append(job_s)
        self.samples["stage_s"].append(check_s)

    def trace_job(self, job: int, tracer=None) -> None:
        self.job(job, tracer)

    def summary(self) -> dict:
        # no size varies here: 1 only says every timed operation passed
        return {"frontier_n": 1 if self.ledger.failed == 0 else 0,
                **_table_summary(self.table, "probe")}


def _table_summary(table, label: str) -> dict:
    """ok_ops_frac counts the table's cells: outcomes measured, not timed."""
    if table is None:
        return {}
    cells = [o for row in table.values() for o, _s in row.values()]
    return {
        "ok_ops": sum(o == "ok" for o in cells),
        "all_ops": len(cells),
        "table": {f"{label}={k}": {op: [o, round(s, 4)] for op, (o, s) in row.items()}
                  for k, row in table.items()},
    }


def _sizes(directory: str) -> dict[str, tuple[int, int]]:
    """Path -> (size, mtime in ns) of every file, to tell which ones a command wrote."""
    return {e.path: (e.stat().st_size, e.stat().st_mtime_ns)
            for e in os.scandir(directory) if e.is_file()}


# ---------------------------------------------------------------------------
# platoon-sweep


SWEEP_OPS = (
    "place_gains_F", "place_gains_L", "dcf_from_ss", "youla_shift", "nrf_from_dcf",
    "realize_rows", "assemble", "closed_loop_state_matrix", "simulate",
    "verify_internal_stability_tfm", "mr3_certificate", "closed_loop_maps",
)
SYNTH_OPS = SWEEP_OPS[:8]
_LAYER = {
    "place_gains_F": "factor", "place_gains_L": "factor", "dcf_from_ss": "factor",
    "youla_shift": "factor", "nrf_from_dcf": "nrfsyn", "realize_rows": "dimpl",
    "assemble": "dimpl", "closed_loop_state_matrix": "dimpl", "simulate": "simkit",
    "verify_internal_stability_tfm": "dimpl", "mr3_certificate": "nrfsyn",
    "closed_loop_maps": "factor",
}


def chain_incidence(n: int) -> np.ndarray:
    inc = np.zeros((n, n), dtype=bool)
    for i in range(1, n):
        inc[i, i - 1] = True
    return inc


class PlatoonCase:
    """Inputs for one chain length: plant, its transfer matrix, pole targets.

    Targets are 0.6 + s k (feedback) and 0.45 + s k (observer) with
    s = min(0.03, 0.36 / (order - 1)): the demo script's spread through n = 7,
    narrowed at n = 8 so every target stays inside the unit disk.
    """

    def __init__(self, n: int, seed: int):
        self.n = n
        self.seed = seed
        self.plant = simkit.build_network_plant(chain_incidence(n))
        self.plant_tfm = sstate.ss_to_tf(self.plant)
        order = self.plant.order
        s = min(0.03, 0.36 / (order - 1))
        self.targets_F = [0.6 + s * k for k in range(order)]
        self.targets_L = [0.45 + s * k for k in range(order)]
        self.zero_q = RationalMatrix.zeros(n, n, StabilityDomain.DISCRETE)


def _check_eigs(matrix, targets):
    gap = float(np.max(np.abs(_sorted_eigs(np.linalg.eigvals(matrix)) - _sorted_eigs(targets))))
    return None if gap <= POLE_TOL else f"eigenvalues miss targets by {gap:.3e}"


def _check_dcf(case: PlatoonCase):
    A, B, C = case.plant.A, case.plant.B, case.plant.C

    def check(dcf):
        want = C @ np.linalg.solve(PROBE * np.eye(A.shape[0]) - A, B)
        got = dcf.N.eval(PROBE) @ np.linalg.inv(dcf.M.eval(PROBE))
        gap = _rel_gap(got, want)
        return None if gap <= EVAL_TOL else f"N M^-1 misses the plant by {gap:.3e}"

    return check


def _check_shift(dcf):
    def check(shift):
        got = shift.YQ.eval(PROBE) @ dcf.M.eval(PROBE) + shift.XQ.eval(PROBE) @ dcf.N.eval(PROBE)
        gap = _rel_gap(got, np.eye(got.shape[0]))
        return None if gap <= EVAL_TOL else f"shifted Bezout residual {gap:.3e}"

    return check


def _check_nrf(shift):
    def check(pair):
        n = pair.Phi.rows
        if any(not pair.Phi.entry(i, i).is_zero for i in range(n)):
            return "Phi has a nonzero diagonal entry"
        want = np.linalg.solve(shift.YQ.eval(PROBE), shift.XQ.eval(PROBE))
        got = np.linalg.solve(np.eye(n) - pair.Phi.eval(PROBE), pair.Gamma.eval(PROBE))
        gap = _rel_gap(got, want)
        return None if gap <= EVAL_TOL else f"(I - Phi)^-1 Gamma misses K by {gap:.3e}"

    return check


def _check_rows(pair):
    def check(rows):
        target = np.hstack([pair.Phi.eval(PROBE), pair.Gamma.eval(PROBE)])
        for r in rows:
            idx = [i - 1 for i in r.rows]
            gap = _rel_gap(r.sys.eval(PROBE), target[idx])
            if gap > EVAL_TOL:
                return f"row {r.index} misses its target by {gap:.3e}"
        return None

    return check


def _check_assemble(rows):
    def check(ctrl):
        want = sum(r.order for r in rows)
        return None if ctrl.order == want else f"order {ctrl.order} != {want}"

    return check


def _check_radius(case: PlatoonCase):
    def check(cl):
        radius = max(abs(v) for v in cl.eigenvalues())
        want = max(case.targets_F + case.targets_L)
        gap = abs(radius - want)
        return None if gap <= POLE_TOL else f"spectral radius {radius:.9f}, target {want:.9f}"

    return check


def _check_sim(trace):
    met = simkit.trace_metrics(trace, settle_from=trace.horizon // 2)
    return "diverged" if met.diverged else None


def _check_mr3(n):
    def check(cert):
        poles = cert.unstable_poles_found
        if len(poles) != n or any(abs(p - 1.0) > POLE_TOL for p in poles):
            return f"{len(poles)} poles, want {n} at z=1"
        return None

    return check


def _check_tfm(cl):
    def check(report):
        if report.stable != cl.is_stable:
            return (f"transfer-matrix verdict {report.stable} "
                    f"({len(report.unstable_entries)} entries flagged), "
                    f"eigenvalues say {cl.is_stable}")
        return None

    return check


def platoon_scenario(case: PlatoonCase, ctrl, seed: int, horizon: int):
    """The platoon demo's run: unit reference steps at n = 10, bounded noise."""
    n = case.n
    return simkit.Scenario(
        horizon=horizon,
        reference=[simkit.SignalSpec.step(1.0, at=10) for _ in range(n)],
        input_disturbance=[simkit.SignalSpec.uniform(0.02) for _ in range(n)],
        measurement_noise=[simkit.SignalSpec.uniform(0.01) for _ in range(n)],
        command_disturbance=[simkit.SignalSpec.zero() for _ in range(n)],
        seed=seed,
        plant=case.plant,
        controller=ctrl,
    )


def run_case(case: PlatoonCase, ops=SWEEP_OPS, tracer=None, sim_horizon: int = 200):
    """Run the operations in order on one size.

    Returns ({op: (outcome, seconds)}, closed-loop objects by name).  An
    operation whose input is missing is recorded as failed without running,
    so every size attempts the same list.
    """
    out = {}
    have = {}

    def step(name, needs, fn, check):
        if any(have.get(k) is None for k in needs):
            out[name] = ("no input", 0.0)
            return None
        result, seconds, outcome = run_op(lambda: fn(*(have[k] for k in needs)),
                                          check, tracer, _LAYER[name])
        out[name] = (outcome, seconds)
        return result if outcome == "ok" or outcome.startswith("wrong") else None

    plant = case.plant
    for name in ops:
        if name == "place_gains_F":
            have["F"] = step(name, (), lambda: factor.place_gains(plant, case.targets_F)[0],
                             lambda F: _check_eigs(plant.A + plant.B @ F, case.targets_F))
        elif name == "place_gains_L":
            have["L"] = step(name, (), lambda: factor.place_gains(plant, case.targets_L)[1],
                             lambda L: _check_eigs(plant.A + L @ plant.C, case.targets_L))
        elif name == "dcf_from_ss":
            have["dcf"] = step(name, ("F", "L"), lambda F, L: factor.dcf_from_ss(plant, F, L),
                               _check_dcf(case))
        elif name == "youla_shift":
            have["shift"] = step(name, ("dcf",), lambda d: factor.youla_shift(d, case.zero_q),
                                 _check_shift(have.get("dcf")))
        elif name == "nrf_from_dcf":
            have["pair"] = step(name, ("dcf", "shift"), nrfsyn.nrf_from_dcf,
                                _check_nrf(have.get("shift")))
        elif name == "realize_rows":
            have["rows"] = step(name, ("pair",), dimpl.realize_rows, _check_rows(have.get("pair")))
        elif name == "assemble":
            have["ctrl"] = step(name, ("rows",), dimpl.assemble, _check_assemble(have.get("rows")))
        elif name == "closed_loop_state_matrix":
            have["cl"] = step(name, ("ctrl",), lambda c: dimpl.closed_loop_state_matrix(plant, c),
                              _check_radius(case))
        elif name == "simulate":
            step(name, ("ctrl",),
                 lambda c: simkit.simulate(platoon_scenario(case, c, case.seed, sim_horizon)),
                 _check_sim)
        elif name == "verify_internal_stability_tfm":
            step(name, ("pair", "cl"),
                 lambda p, _cl: dimpl.verify_internal_stability_tfm(p, case.plant_tfm),
                 _check_tfm(have.get("cl")))
        elif name == "mr3_certificate":
            step(name, ("dcf", "shift"), nrfsyn.mr3_certificate, _check_mr3(case.n))
        elif name == "closed_loop_maps":
            step(name, ("dcf", "shift"), factor.closed_loop_maps, lambda _maps: None)
    return out, have


class PlatoonSweep:
    """The outcome sweep over n = 2..8, then repeated synthesis routes."""

    def __init__(self, seed: int, tiny: bool = False):
        self.sweep_sizes = range(2, 4) if tiny else range(2, 9)
        self.synth_sizes = range(2, 3) if tiny else range(2, 5)
        self.cases = {n: PlatoonCase(n, seed) for n in self.sweep_sizes}
        self.ledger = Ledger()
        self.samples = {"job_s": [], "stage_s": []}
        self.table = None

    def sweep(self, tracer=None) -> dict:
        return {n: run_case(self.cases[n], tracer=tracer)[0] for n in self.sweep_sizes}

    def synth(self, ledger=None, tracer=None) -> tuple[float, float]:
        """One synthesis route per size; returns (route seconds, dcf_from_ss seconds)."""
        ledger = ledger or self.ledger
        total = dcf_s = 0.0
        for n in self.synth_sizes:
            outcomes, _ = run_case(self.cases[n], SYNTH_OPS, tracer)
            for op, (outcome, seconds) in outcomes.items():
                ledger.record(f"platoon n={n} {op}", outcome)
                total += seconds
                if op == "dcf_from_ss":
                    dcf_s += seconds
        return total, dcf_s

    def warmup(self) -> None:
        self.synth(Ledger())
        run_case(self.cases[2])

    def outcomes(self) -> None:
        self.table = self.sweep()

    def timed_job(self, job: int) -> None:
        job_s, dcf_s = self.synth()
        self.samples["job_s"].append(job_s)
        self.samples["stage_s"].append(dcf_s)

    def trace_job(self, job: int, tracer=None) -> None:
        """The sweep and one synthesis route, so the trace covers every operation."""
        table = self.sweep(tracer)
        if self.table is None:
            self.table = table
        self.synth(tracer=tracer)

    def summary(self) -> dict:
        frontier = 0
        for n in self.sweep_sizes:
            if any(o != "ok" for o, _s in self.table[n].values()):
                break
            frontier = n
        return {"frontier_n": frontier, **_table_summary(self.table, "n")}


# ---------------------------------------------------------------------------
# sim-long


class SimLong:
    """Long runs of the grid5 loop (plant order 9, controller order 15) and
    the five-vehicle platoon loop, each followed by a CSV round trip."""

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.dir = workdir
        self.horizon = 500 if tiny else 10_000
        self.ledger = Ledger()
        self.samples = {"job_s": [], "stage_s": []}
        os.makedirs(workdir, exist_ok=True)
        g_plant = simkit.build_grid5_plant()
        g_dcf = simkit.grid5_dcf()
        g_pair = nrfsyn.nrf_from_dcf(g_dcf, factor.youla_shift(g_dcf, simkit.grid5_q()))
        g_ctrl = dimpl.assemble(dimpl.realize_rows(g_pair))
        case = PlatoonCase(5, seed)
        _, have = run_case(case, SYNTH_OPS)
        if have.get("ctrl") is None:
            raise RuntimeError("the five-vehicle platoon loop could not be built")
        self.loops = (
            ("grid5", lambda s, h: simkit.grid5_scenario(g_plant, g_ctrl, seed=s, horizon=h)),
            ("platoon5", lambda s, h: platoon_scenario(case, have["ctrl"], s, h)),
        )

    def job(self, job: int, horizon: int, tracer=None, ledger=None) -> tuple[float, list]:
        """Simulate both loops; returns (simulate seconds, CSV round-trip seconds per trace)."""
        ledger = ledger or self.ledger
        sim_s = 0.0
        io_s = []
        path = os.path.join(self.dir, "trace.csv")
        for k, (name, make) in enumerate(self.loops):
            sc = make(int(np.random.default_rng([self.seed, job, k]).integers(2**32)), horizon)
            trace, seconds, outcome = run_op(lambda: simkit.simulate(sc), _check_sim,
                                             tracer, "simkit")
            ledger.record(f"sim-long {name} simulate", outcome)
            sim_s += seconds
            if trace is None:
                continue

            def round_trip():
                simkit.save_trace(path, trace)
                if tracer:
                    tracer.count("simkit.save_trace.bytes", os.path.getsize(path))
                return simkit.load_trace(path)

            _, seconds, outcome = run_op(round_trip, _check_round_trip(trace), tracer, "simkit")
            ledger.record(f"sim-long {name} csv round trip", outcome)
            io_s.append(seconds)
        return sim_s, io_s

    def warmup(self) -> None:
        self.job(WARMUP_JOB, min(self.horizon, 500), ledger=Ledger())

    def timed_job(self, job: int) -> None:
        sim_s, io_s = self.job(job, self.horizon)
        self.samples["job_s"].append(sim_s)
        # per 10k-step trace, so a shorter horizon reports on the same scale
        self.samples["stage_s"].extend(s * 10_000 / self.horizon for s in io_s)

    def trace_job(self, job: int, tracer=None) -> None:
        self.job(job, self.horizon, tracer)

    def summary(self) -> dict:
        ok = self.ledger.attempted - self.ledger.failed
        # no size and no untimed phase here: both only repeat `correct`
        return {"ok_ops": ok, "all_ops": self.ledger.attempted,
                "frontier_n": 1 if ok == self.ledger.attempted else 0,
                "steps_per_job": 2 * self.horizon}


def _check_round_trip(trace):
    def check(loaded):
        for key in ("r", "w", "nu", "du", "z", "u", "v", "y"):
            if not np.array_equal(getattr(loaded, key), getattr(trace, key)):
                return f"channel {key} changed in the CSV round trip"
        return None

    return check


def make(name: str, seed: int, workdir: str, tiny: bool = False):
    if name == "grid5-cli":
        return Grid5Cli(seed, workdir, tiny)
    if name == "platoon-sweep":
        return PlatoonSweep(seed, tiny)
    if name == "sim-long":
        return SimLong(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("grid5-cli", "platoon-sweep", "sim-long")
