"""Command-line frontend: file-based pipelines over the library modules.

Commands exchange JSON artifacts (plants, factorizations, NRF pairs,
scenarios) and CSV traces.  Exit codes: 0 for ok, 2 for a mathematical
finding ("violated": an instability certificate fired or a stability check
failed, reported after a successful run), 1 for operational errors.  All
numbers print with 12 significant digits.  ``dcf`` writes the factorization
it reports without checking its rational coefficients, and ``demo`` audits
the grid5 NRF rows against their closed form at probe points.  Plant files
are read by ``sstate.load_ss``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import dimpl, factor, nrfsyn, simkit, sstate
from .errors import NrfError
from .ratmat import load_ratmat, save_ratmat


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) < 1e-12:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


class CommandResult:
    """status is "ok", "violated" (a finding), or "error"."""

    __slots__ = ("status", "report", "artifacts_written")

    def __init__(self, status: str, report, artifacts_written=()):
        self.status = status
        self.report = list(report)
        self.artifacts_written = list(artifacts_written)

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "violated": 2, "error": 1}[self.status]


# ---------------------------------------------------------------------------
# file plumbing


def _load_patterns(path: str):
    """(X, Y) as the file holds them, each cell a JSON boolean or 0/1;
    ``nrfsyn.sparsity_correspondence`` reads them as boolean masks and checks
    their shapes."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "X" not in obj or "Y" not in obj:
        raise NrfError(f"{path}: pattern file needs boolean masks 'X' and 'Y'")
    cells = [obj["X"], obj["Y"]]
    for cell in cells:  # a list's cells are appended and read in turn
        if isinstance(cell, list):
            cells.extend(cell)
        elif not (type(cell) is bool or type(cell) is int and cell in (0, 1)):
            raise NrfError(f"{path}: mask cell {cell!r} is neither a boolean nor 0/1")
    return obj["X"], obj["Y"]


def _save_patterns(path: str, patterns) -> None:
    X, Y = patterns
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"X": X.tolist(), "Y": Y.tolist()}, indent=1))


def _grid_norm_line(table, grid: int) -> str:
    return f"closed-loop grid norm ({grid} points): {_fmt(factor.hinf_grid_norm(table, grid))}"


def _parse_targets(text: str, count: int) -> list[complex]:
    items = [complex(tok.strip().replace("i", "j")) for tok in text.split(",") if tok.strip()]
    if len(items) != count:
        raise NrfError(f"need {count} pole targets, got {len(items)}")
    return items


def _parse_grouping(text: str) -> list[list[int]]:
    """Blocks separated by ';', row numbers inside a block separated by ','."""
    return [[int(tok) for tok in block.split(",")] for block in text.split(";") if block.strip()]


# ---------------------------------------------------------------------------
# commands


def cmd_dcf(args) -> CommandResult:
    plant = sstate.load_ss(args.plant)
    if args.targets:
        targets = _parse_targets(args.targets, plant.order)
    else:
        targets = factor.default_targets(plant.order, plant.domain)
    F, L = factor.place_gains(plant, targets)
    dcf = factor.dcf_from_ss(plant, F, L)
    res = dcf.bezout_residual()
    factor.save_dcf(dcf, args.out)
    report = [
        f"plant: order {plant.order}, {plant.n_outputs} outputs, {plant.n_inputs} inputs",
        f"bezout residual: {_fmt(res)}",
    ]
    return CommandResult("ok", report, [args.out])


def cmd_nrf(args) -> CommandResult:
    dcf = factor.load_dcf(args.dcf)
    Q = load_ratmat(args.q)
    shift = factor.youla_shift(dcf, Q)
    pair = nrfsyn.nrf_from_dcf(dcf, shift)
    report = [f"nrf: m={pair.shape[0]}, p={pair.shape[1]}"]
    if args.patterns:  # before the write: a malformed pattern file leaves no nrf.json
        conforming = nrfsyn.sparsity_correspondence(pair, shift, _load_patterns(args.patterns))
        report.append(f"pattern correspondence (both characterizations): {conforming}")
    nrfsyn.save_nrf(pair, args.out)
    return CommandResult("ok", report, [args.out])


def cmd_check(args) -> CommandResult:
    pair = nrfsyn.load_nrf(args.nrf)
    check = dimpl.verify_internal_stability(pair, sstate.load_ss(args.plant))
    report = []
    for (out, inp), bad in check.block_poles.items():
        verdict = "stable" if not bad else "UNSTABLE " + str([_fmt_complex(b) for b in bad])
        report.append(f"T[{out} <- {inp}]: {verdict}")
    entries = check.unstable_entries
    report.append(f"H-tilde entries: {'unstable at ' + str(entries) if entries else 'all stable'}")
    report.append(f"H-tilde cross-check disagreement: {_fmt(check.max_disagreement)}")
    if check.stable and args.grid:
        table = check.loop.map(dimpl.LOOP_OUTPUTS, dimpl.TABLE_INPUTS)
        report.append(_grid_norm_line(table, args.grid))
    return CommandResult("ok" if check.stable else "violated", report)


def cmd_realize(args) -> CommandResult:
    pair = nrfsyn.load_nrf(args.nrf)
    grouping = _parse_grouping(args.grouping) if args.grouping else None
    rows = dimpl.realize_rows(pair, grouping)
    ctrl = dimpl.assemble(rows)
    dimpl.save_bundle(args.out, rows)
    unstable = ctrl.sys.unstable_eigenvalues
    report = [
        f"row orders: {ctrl.row_orders} (total {ctrl.order})",
        f"controller unstable modes: [{', '.join(_fmt_complex(v) for v in unstable)}]",
    ]
    return CommandResult("ok", report, [args.out])


def cmd_cert(args) -> CommandResult:
    dcf = factor.load_dcf(args.dcf)
    Q = load_ratmat(args.q)
    shift = factor.youla_shift(dcf, Q)
    make = nrfsyn.mr2_certificate if args.mode == "mr2" else nrfsyn.mr3_certificate
    cert = make(dcf, shift)
    report = [f"certificate mode: {args.mode}"]
    if cert.empty:
        report.append("witness map stable: no obstruction found")
        return CommandResult("ok", report)
    report.append(
        "unstable witness poles: ["
        + ", ".join(_fmt_complex(v) for v in cert.unstable_poles_found)
        + "]"
    )
    return CommandResult("violated", report)


def cmd_simulate(args) -> CommandResult:
    sc = simkit.load_scenario(args.scenario)
    if args.seed is not None:
        sc = simkit.Scenario(**{key: getattr(sc, key) for key in sc.__slots__} | {"seed": args.seed})
    trace = simkit.simulate(sc)
    simkit.save_trace(args.out, trace)
    report = [f"horizon: {sc.horizon}, seed: {sc.seed}"]
    if sc.horizon > 0:
        settle = 60 if sc.horizon > 60 else sc.horizon // 2
        met = simkit.trace_metrics(trace, settle_from=settle)
        report.append(f"max |y| per channel: [{', '.join(_fmt(v) for v in met.max_abs_y)}]")
        report.append(
            f"tracking error (mean |y-r| from step {settle}): "
            f"[{', '.join(_fmt(v) for v in met.tracking_error)}]"
        )
        report.append(f"max |u| per channel: [{', '.join(_fmt(v) for v in met.max_abs_u)}]")
        report.append(f"diverged: {met.diverged}")
    return CommandResult("ok", report, [args.out])


def cmd_demo(args) -> CommandResult:
    if args.name != "grid5":
        raise NrfError(f"unknown demo {args.name!r} (available: grid5)")
    outdir = args.out or "nrfctl-demo"
    os.makedirs(outdir, exist_ok=True)
    path = lambda name: os.path.join(outdir, name)
    report = []
    artifacts = []

    plant = simkit.build_grid5_plant()
    sstate.save_ss(plant, path("plant.json"))
    artifacts.append(path("plant.json"))
    report.append(f"plant: order {plant.order} (demo network, five nodes)")

    dcf = simkit.grid5_dcf()
    factor.save_dcf(dcf, path("dcf.json"))
    artifacts.append(path("dcf.json"))
    report.append(f"bezout residual: {_fmt(dcf.bezout_residual())}")

    Q = simkit.grid5_q()
    save_ratmat(Q, path("q.json"))
    artifacts.append(path("q.json"))
    shift = factor.youla_shift(dcf, Q)

    pair = nrfsyn.nrf_from_dcf(dcf, shift)
    nrfsyn.save_nrf(pair, path("nrf.json"))
    artifacts.append(path("nrf.json"))
    pair.audit_rows(simkit.grid5_nrf(), "grid5-closed-form")
    report.append("nrf matches the grid5 closed form coefficient-wise: True")
    patterns = simkit.grid5_patterns()
    _save_patterns(path("patterns.json"), patterns)
    artifacts.append(path("patterns.json"))
    report.append(
        f"pattern correspondence: {nrfsyn.sparsity_correspondence(pair, shift, patterns)}"
    )

    rows = dimpl.realize_rows(pair)
    ctrl = dimpl.assemble(rows)
    dimpl.save_bundle(path("rows.json"), rows)
    artifacts.append(path("rows.json"))
    report.append(f"row orders: {ctrl.row_orders} (total {ctrl.order})")

    cl = dimpl.closed_loop_state_matrix(plant, ctrl)
    dimpl.save_eigenvalue_report(path("acl_eigs.csv"), cl)
    artifacts.append(path("acl_eigs.csv"))
    radius = max((abs(v) for v in cl.eigenvalues()), default=0.0)
    report.append(
        f"closed-loop order {cl.order}, spectral radius {_fmt(radius)}, stable: {cl.is_stable}"
    )
    if cl.is_stable and args.grid:
        report.append(_grid_norm_line(cl.map(dimpl.LOOP_OUTPUTS, ("r", "w", "nu")), args.grid))
    if not cl.is_stable:
        return CommandResult("violated", report, artifacts)

    if args.no_sim:
        report.append("simulation skipped (--no-sim)")
        return CommandResult("ok", report, artifacts)

    sc = simkit.grid5_scenario(plant, ctrl, seed=args.seed)
    simkit.save_scenario(path("scenario.json"), sc)
    artifacts.append(path("scenario.json"))
    trace = simkit.simulate(sc)
    simkit.save_trace(path("trace.csv"), trace)
    artifacts.append(path("trace.csv"))
    met = simkit.trace_metrics(trace, settle_from=60)
    report.append(f"max |y| per channel: [{', '.join(_fmt(v) for v in met.max_abs_y)}]")
    report.append(
        f"tracking error (mean |y-r| from step 60): "
        f"[{', '.join(_fmt(v) for v in met.tracking_error)}]"
    )
    report.append(f"diverged: {met.diverged}")
    return CommandResult("ok", report, artifacts)


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    # usage mistakes exit 1 like any other error; 2 is reserved for a
    # completed check that reports a violation
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused."""
    parser = _Parser(
        prog="nrfctl",
        description="Distributed-controller toolkit: factorizations, NRF synthesis, "
        "row-based realization, certificates, and closed-loop simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dcf", help="factor a plant into a doubly coprime factorization")
    p.add_argument("--plant", required=True, help="plant JSON (state-space or rational matrix)")
    p.add_argument("--targets", help="comma-separated closed-loop pole targets")
    p.add_argument("--out", required=True, help="output DCF JSON")

    p = sub.add_parser("nrf", help="shift by a Youla parameter and extract the NRF pair")
    p.add_argument("--dcf", required=True)
    p.add_argument("--q", required=True, help="Youla parameter JSON (rational matrix)")
    p.add_argument("--patterns", help="sparsity pattern JSON with masks X and Y")
    p.add_argument("--out", required=True, help="output NRF JSON")

    p = sub.add_parser("check", help="closed-loop stability table for an NRF around a plant")
    p.add_argument("--nrf", required=True)
    p.add_argument("--plant", required=True)
    p.add_argument("--grid", type=int, default=0, help="boundary grid size for the norm line")

    p = sub.add_parser("realize", help="row-by-row state-space realization of an NRF pair")
    p.add_argument("--nrf", required=True)
    p.add_argument("--grouping", help="row blocks, e.g. '1;2,3;4;5'")
    p.add_argument("--out", required=True, help="output realization bundle JSON")

    p = sub.add_parser("cert", help="diagonal-structure instability certificates")
    p.add_argument("--dcf", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--mode", choices=("mr2", "mr3"), required=True)

    p = sub.add_parser("simulate", help="run a scenario file and write the trace CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="output trace CSV")
    p.add_argument("--seed", type=int, help="override the scenario's seed")

    p = sub.add_parser("demo", help="run the built-in end-to-end example")
    p.add_argument("name", help="demo name (grid5)")
    p.add_argument("--out", help="artifact directory (default nrfctl-demo)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--grid", type=int, default=0, help="boundary grid size for the norm line")
    p.add_argument("--no-sim", action="store_true", help="stop after the eigenvalue check")

    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "grid", 0) < 0:
        parser.error("argument --grid: must be >= 0 (0 skips the norm line)")
    try:
        # looked up on each call, so a rebound cmd_* (a tracer, a test) is the one run
        result = globals()[f"cmd_{args.command}"](args)
    except (NrfError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        result = CommandResult("error", [f"{type(exc).__name__}: {exc}"])
    for line in result.report:
        print(line)
    for path in result.artifacts_written:
        print(f"wrote: {path}")
    print(f"status: {result.status}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
