"""Chain-topology demo: a short vehicle platoon under a distributed controller.

Each vehicle carries an integrator driven by its own command and a lag fed by
its predecessor's output (the same node template as the grid demo, chain
incidence).  Unlike the grid walkthrough, nothing here is closed form: gains
are placed numerically, the coprime factors come from the realization, and the
controller rows are realized from the synthesized pair.  The whole platoon
gets a unit speed-reference step at n = 10 with bounded actuator and sensor
noise; the run reports loop stability and settled tracking.
"""

import argparse
import os

import numpy as np

from nrfctl import dimpl, factor, nrfsyn, simkit
from nrfctl.ratmat import RationalMatrix, StabilityDomain, probe_points


def chain_incidence(n: int) -> np.ndarray:
    inc = np.zeros((n, n), dtype=bool)
    for i in range(1, n):
        inc[i, i - 1] = True
    return inc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--vehicles", type=int, default=4, metavar="N",
                    help="platoon length, at least 2")
    ap.add_argument("--horizon", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=None, help="optional trace CSV path")
    args = ap.parse_args()
    n = args.vehicles
    if n < 2:
        ap.error("a platoon needs at least 2 vehicles")

    plant = simkit.build_network_plant(chain_incidence(n))
    print(f"platoon of {n}: plant order {plant.order} "
          f"({n} integrators + {n - 1} coupling lags)")

    # separate spreads keep the feedback and observer spectra apart, so no
    # pole of the synthesized factors is repeated; the spacing narrows with
    # the order so the slowest target stays at or below 0.96
    step = min(0.03, 0.36 / (plant.order - 1))
    F, _ = factor.place_gains(plant, [0.6 + step * k for k in range(plant.order)])
    _, L = factor.place_gains(plant, [0.45 + step * k for k in range(plant.order)])
    dcf = factor.dcf_from_ss(plant, F, L)
    pts = probe_points(dcf.domain, 20)  # the points where validate audits left right = I
    residual = dcf.left.eval_many(pts) @ dcf.right.eval_many(pts) - np.eye(2 * n)
    print(f"factorization: identity residual {np.abs(residual).max():.3e}")

    shift = factor.youla_shift(dcf, RationalMatrix.zeros(n, n, StabilityDomain.DISCRETE))
    pair = nrfsyn.nrf_from_dcf(dcf, shift)
    coupled = int(nrfsyn.row_support(pair.row_systems)[:, :n].sum())
    print(f"nrf: Phi has {coupled} nonzero couplings "
          f"(synthesized, not sparsity-shaped)")

    rows = dimpl.realize_rows(pair)
    ctrl = dimpl.assemble(rows)
    print(f"row realizations: orders {[r.order for r in rows]}, total {ctrl.order}")

    cl = dimpl.closed_loop_state_matrix(plant, ctrl)
    radius = max(abs(v) for v in cl.eigenvalues())
    print(f"closed loop: {cl.order} states, spectral radius {radius:.6f}")

    sc = simkit.Scenario(
        horizon=args.horizon,
        reference=[simkit.SignalSpec.step(1.0, at=10) for _ in range(n)],
        input_disturbance=[simkit.SignalSpec.uniform(0.02) for _ in range(n)],
        measurement_noise=[simkit.SignalSpec.uniform(0.01) for _ in range(n)],
        command_disturbance=[simkit.SignalSpec.zero() for _ in range(n)],
        seed=args.seed,
        plant=plant,
        controller=ctrl,
    )
    trace = simkit.simulate(sc)
    settle = args.horizon - 60 if args.horizon > 120 else args.horizon // 2
    m = simkit.trace_metrics(trace, settle_from=settle)
    print(f"simulation: horizon {args.horizon}, seed {args.seed}; "
          f"max|y| {float(m.max_abs_y.max()):.3f}, max|u| {float(m.max_abs_u.max()):.3f}, "
          f"tracking error over [{settle}, {args.horizon}) "
          f"{float(m.tracking_error.max()):.4f}, diverged {m.diverged}")
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        simkit.save_trace(args.out, trace)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
