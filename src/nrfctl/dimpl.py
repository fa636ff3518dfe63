"""Distributed implementation of an NRF pair and closed-loop verification.

The controller u = Phi u + Gamma z is realized one row at a time: each row of
the compound [Phi Gamma] gets an observable companion realization over its own
denominator LCM, reduced to its controllable part, so node i only ever stores
the dynamics its own control law needs.  Assembly stacks the rows into a
block-diagonal state matrix, and the loop with the plant closes through a
static coupling matrix whose invertibility is certified by a Schur complement
before the closed-loop realization is formed.

That realization is the one loop behind every stability verdict.  It maps
every injection (reference, disturbances, noise, command) to every loop
signal, so all loop maps share the state matrix A_CL: when A_CL is stable the
loop is internally stable, and otherwise each map's unstable poles are the
unstable eigenvalues of its minimal realization.  The realized H-tilde map is
cross-checked against (I - Phi + Gamma G)^-1 evaluated pointwise.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainMismatch,
    InconsistentDimensions,
    InvariantViolation,
    SingularCoupling,
)
from .factor import _pole_cloud
from .nrfsyn import NrfPair
from .ratmat import RationalMatrix, StabilityDomain, probe_points
from . import sstate
from .sstate import StateSpace
from .tolerances import RANK_REL_TOL, probe_tolerance


def _compound_rows(pair: NrfPair, group: tuple[int, ...]) -> RationalMatrix:
    """Stack of rows [Phi Gamma] for the (1-based) row numbers in group."""
    stacked = None
    for i in group:
        row = pair.Phi.row(i - 1).hstack(pair.Gamma.row(i - 1))
        stacked = row if stacked is None else stacked.vstack(row)
    return stacked


class RowRealization:
    """State-space realization of one row (or block of rows) of [Phi Gamma].

    ``index`` is the 1-based row number for a singleton, or a tuple of row
    numbers for a block-row grouping.  ``sys`` has one output per grouped row
    and m + p inputs (commands first, then measurements).
    """

    __slots__ = ("index", "sys")

    def __init__(self, index, sys: StateSpace):
        rows = _as_group(index)
        if sys.n_outputs != len(rows):
            raise DimensionMismatch(
                f"realization of rows {rows} must have {len(rows)} outputs"
            )
        self.index = index if isinstance(index, int) else rows
        self.sys = sys

    @property
    def rows(self) -> tuple[int, ...]:
        return _as_group(self.index)

    @property
    def order(self) -> int:
        return self.sys.order

    def __repr__(self) -> str:
        return f"RowRealization(index={self.index!r}, order={self.order})"


def _as_group(index) -> tuple[int, ...]:
    if isinstance(index, int):
        return (index,)
    return tuple(int(i) for i in index)


def _audit_realization(sys: StateSpace, tfm: RationalMatrix, label: str) -> None:
    """Probe-point agreement with the target rows plus PBH audits."""
    pts = probe_points(tfm.domain, count=7, avoid=_pole_cloud(tfm))
    scale = 1.0
    worst = 0.0
    for pt in pts:
        want = tfm.eval(pt)
        got = sys.eval(pt)
        scale = max(scale, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(got - want))))
    if worst > probe_tolerance() * scale:
        raise InvariantViolation(
            "row-probe-match",
            f"{label}: realization disagrees with the row by {worst:.3e}",
        )
    if not sstate.is_stabilizable(sys):
        raise InvariantViolation("row-stabilizable", label)
    if not sstate.is_detectable(sys):
        raise InvariantViolation("row-detectable", label)


def realize_rows(pair: NrfPair, grouping=None) -> list[RowRealization]:
    """Per-row realizations of [Phi Gamma].

    The default grouping is one row per realization.  A grouping is a list of
    disjoint blocks of 1-based row numbers covering 1..m; each block is
    realized jointly (a minimal realization of the block-row), which can share
    dynamics between rows with common denominators.
    """
    m, p = pair.shape
    if grouping is None:
        grouping = [[i] for i in range(1, m + 1)]
    groups = [_as_group(g if not isinstance(g, int) else (g,)) for g in grouping]
    flat = sorted(i for g in groups for i in g)
    if flat != list(range(1, m + 1)):
        raise InconsistentDimensions(
            f"grouping {groups} is not a partition of rows 1..{m}"
        )
    out = []
    for g in groups:
        tfm = _compound_rows(pair, g)
        if len(g) == 1:
            companion = sstate.tf_to_ss_obsv(tfm)
            reduced, k, T = sstate.ctrb_staircase(companion)
            sys = reduced.truncated(k)
        else:
            pieces = [sstate.tf_to_ss_obsv(tfm.row(r)) for r in range(tfm.rows)]
            sys = sstate.minimal(sstate.stack_outputs(pieces))
        _audit_realization(sys, tfm, f"rows {g}")
        out.append(RowRealization(g[0] if len(g) == 1 else g, sys))
    return out


class AssembledController:
    """Block-diagonal stacking of row realizations.

    ``partition`` is (m, p): the first m inputs receive the fed-back commands
    u + delta_u, the trailing p inputs receive the regulated measurement z.
    Output i is control command i regardless of the grouping order.
    """

    __slots__ = ("sys", "row_orders", "partition", "grouping")

    def __init__(self, sys, row_orders, partition, grouping):
        self.sys = sys
        self.row_orders = list(row_orders)
        self.partition = tuple(partition)
        self.grouping = tuple(tuple(g) for g in grouping)

    @property
    def order(self) -> int:
        return self.sys.order

    def unstable_modes(self):
        return sstate.unstable_eigs(self.sys.A, self.sys.domain)

    def __repr__(self) -> str:
        m, p = self.partition
        return (
            f"AssembledController(order={self.order}, m={m}, p={p}, "
            f"blocks={self.row_orders})"
        )


def assemble(rows: list[RowRealization]) -> AssembledController:
    """Block-diagonal assembly of row realizations into one controller.

    Row indices must partition 1..m.  Outputs are permuted back into row
    order, so a grouping like [[2, 3], [1]] still yields output 1 on top.
    """
    if not rows:
        raise InconsistentDimensions("no rows to assemble")
    flat = [i for r in rows for i in r.rows]
    m = len(flat)
    if sorted(flat) != list(range(1, m + 1)):
        raise InconsistentDimensions(f"row indices {flat} do not partition 1..{m}")
    width = rows[0].sys.n_inputs
    domain = rows[0].sys.domain
    for r in rows:
        if r.sys.n_inputs != width:
            raise InconsistentDimensions("rows disagree on the input dimension")
        if r.sys.domain is not domain:
            raise DomainMismatch("rows disagree on the stability domain")
    p = width - m
    if p < 0:
        raise InconsistentDimensions(
            f"{m} rows cannot share an input vector of width {width}"
        )

    stacked = sstate.stack_outputs([r.sys for r in rows])
    # stacked output k is controller output flat[k]; undo the grouping order
    perm = np.argsort(np.asarray(flat))
    sys = StateSpace(stacked.A, stacked.B, stacked.C[perm, :], stacked.D[perm, :], domain)

    pts = probe_points(domain, count=5)
    for pt in pts:
        want = np.vstack([r.sys.eval(pt) for r in rows])[perm, :]
        got = sys.eval(pt)
        err = float(np.max(np.abs(got - want)))
        if err > probe_tolerance() * max(1.0, float(np.max(np.abs(want)))):
            raise InvariantViolation("assembly-linearity", f"disagreement {err:.3e}")
    if not sstate.is_stabilizable(sys):
        raise InvariantViolation("assembled-stabilizable", "PBH audit failed")
    if not sstate.is_detectable(sys):
        raise InvariantViolation("assembled-detectable", "PBH audit failed")

    return AssembledController(
        sys, [r.order for r in rows], (m, p), [r.rows for r in rows]
    )


# ---------------------------------------------------------------------------
# closing the loop

# Injections into the loop (reference, plant-input disturbance, sensor noise,
# command-channel disturbance, additive command) and the loop signals read out.
LOOP_INPUTS = ("r", "w", "nu", "du", "cmd")
LOOP_OUTPUTS = ("y", "u", "z", "v")
# the sixteen-block table a user checks: every output from every injection
# except the command, which only the H-tilde map uses
TABLE_INPUTS = LOOP_INPUTS[:4]


def _signal_index(names, chosen, partition) -> np.ndarray:
    """Positions of the chosen signals in the stacked vector of names."""
    m, p = partition
    width = {name: p if name in ("r", "nu", "y", "z") else m for name in names}
    start = dict(zip(names, np.cumsum([0] + [width[n] for n in names])))
    return np.concatenate([np.arange(start[c], start[c] + width[c]) for c in chosen])


class ClosedLoopRealization:
    """State-space realization of the interconnection plus its static coupling data.

    (A_CL, B, C, D) maps the injections LOOP_INPUTS to the loop signals
    LOOP_OUTPUTS; ``map`` cuts out any sub-map of it.
    """

    __slots__ = (
        "A_CL", "B", "C", "D", "Dtilde", "schur", "plant_order", "controller_order",
        "partition", "domain",
    )

    def __init__(self, A_CL, B, C, D, Dtilde, schur, plant_order, controller_order,
                 partition, domain):
        self.A_CL = A_CL
        self.B, self.C, self.D = B, C, D
        self.Dtilde = Dtilde
        self.schur = schur
        self.plant_order = plant_order
        self.controller_order = controller_order
        self.partition = tuple(partition)
        self.domain = domain

    @property
    def order(self) -> int:
        return self.A_CL.shape[0]

    def eigenvalues(self) -> np.ndarray:
        if self.order == 0:
            return np.zeros(0, dtype=complex)
        return np.linalg.eigvals(self.A_CL)

    def unstable_modes(self):
        return sstate.unstable_eigs(self.A_CL, self.domain)

    @property
    def is_stable(self) -> bool:
        return len(self.unstable_modes().values) == 0

    def map(self, outputs, inputs) -> StateSpace:
        """Realization from the named injections to the named loop signals."""
        rows = _signal_index(LOOP_OUTPUTS, outputs, self.partition)
        cols = _signal_index(LOOP_INPUTS, inputs, self.partition)
        return StateSpace(
            self.A_CL, self.B[:, cols], self.C[rows, :], self.D[np.ix_(rows, cols)], self.domain
        )

    def __repr__(self) -> str:
        return (
            f"ClosedLoopRealization(order={self.order}, "
            f"plant={self.plant_order}, controller={self.controller_order})"
        )


def _invertibility(Mat: np.ndarray) -> tuple[bool, float]:
    """(invertible, smallest/largest singular value)."""
    if Mat.size == 0:
        return True, 1.0
    s = np.linalg.svd(Mat, compute_uv=False)
    if s[0] == 0.0:
        return False, 0.0
    ratio = float(s[-1] / s[0])
    return ratio > RANK_REL_TOL, ratio


def coupling_matrix(D: np.ndarray, ctrl: AssembledController) -> np.ndarray:
    """Dtilde, coupling the static unknowns (-u, y, u) of one loop step.

        Dtilde = [ I    0    I  ]
                 [ 0    I   -D  ]
                 [ D_K1 D_K2  I ]
    """
    m, p = ctrl.partition
    DK = ctrl.sys.D
    return np.block(
        [
            [np.eye(m), np.zeros((m, p)), np.eye(m)],
            [np.zeros((p, m)), np.eye(p), -D],
            [DK[:, :m], DK[:, m:], np.eye(m)],
        ]
    )


def closed_loop_state_matrix(
    plant: StateSpace, ctrl: AssembledController
) -> ClosedLoopRealization:
    """Close the loop z = r - y, v = u + w, y = G v + nu around the plant.

    The controller reads u + du and z, and the command injection adds to its
    output: u = Phi (u + du) + Gamma z + cmd.  The three static unknowns per
    step are (-u, y, u); they couple through ``coupling_matrix``, whose
    invertibility is equivalent to that of the Schur complement
    I - D_K1 + D_K2 D (eliminate the first two block rows).  Both tests must
    agree before the realization is assembled.
    """
    m, p = ctrl.partition
    if plant.n_inputs != m or plant.n_outputs != p:
        raise DimensionMismatch(
            f"plant is {plant.n_outputs}x{plant.n_inputs}, controller expects {p}x{m}"
        )
    if plant.domain is not ctrl.sys.domain:
        raise DomainMismatch("plant and controller disagree on the stability domain")

    A, B, C, D = plant.A, plant.B, plant.C, plant.D
    AK, BK, CK, DK = ctrl.sys.A, ctrl.sys.B, ctrl.sys.C, ctrl.sys.D
    DK1, DK2 = DK[:, :m], DK[:, m:]
    BK1, BK2 = BK[:, :m], BK[:, m:]

    Dtilde = coupling_matrix(D, ctrl)
    schur = np.eye(m) - DK1 + DK2 @ D
    ok_schur, r_schur = _invertibility(schur)
    ok_direct, r_direct = _invertibility(Dtilde)
    if not ok_schur or not ok_direct:
        raise SingularCoupling(
            f"coupling matrix is singular (schur {r_schur:.3e}, direct {r_direct:.3e})"
        )

    n_g, n_k = plant.order, ctrl.order
    left = np.block(
        [
            [np.zeros((n_g, m)), np.zeros((n_g, p)), B],
            [-BK1, -BK2, np.zeros((n_k, m))],
        ]
    )
    right = np.block(
        [
            [np.zeros((m, n_g)), np.zeros((m, n_k))],
            [C, np.zeros((p, n_k))],
            [np.zeros((m, n_g)), CK],
        ]
    )
    blockdiag = np.block(
        [
            [A, np.zeros((n_g, n_k))],
            [np.zeros((n_k, n_g)), AK],
        ]
    )
    from_states = np.linalg.solve(Dtilde, right)
    A_CL = blockdiag + left @ from_states

    # injections (r, w, nu, du, cmd) enter the static equations
    #   y - D u = C x + D w + nu,   u - D_K1 u + D_K2 y = C_K x_K + D_K2 r + D_K1 du + cmd
    # and the states directly (w drives the plant, r and du the controller)
    E_r, E_w, E_nu, E_du, E_cmd = np.split(np.eye(2 * p + 3 * m), np.cumsum([p, m, p, m]))
    static_in = np.vstack([np.zeros_like(E_du), D @ E_w + E_nu, DK2 @ E_r + DK1 @ E_du + E_cmd])
    from_inputs = np.linalg.solve(Dtilde, static_in)
    B_CL = np.vstack([B @ E_w, BK2 @ E_r + BK1 @ E_du]) + left @ from_inputs
    y, u = slice(m, m + p), slice(m + p, None)
    C_CL = np.vstack([from_states[y], from_states[u], -from_states[y], from_states[u]])
    D_CL = np.vstack(
        [from_inputs[y], from_inputs[u], E_r - from_inputs[y], from_inputs[u] + E_w]
    )
    return ClosedLoopRealization(
        A_CL, B_CL, C_CL, D_CL, Dtilde, schur, n_g, n_k, (m, p), plant.domain
    )


# ---------------------------------------------------------------------------
# internal-stability verification


class InternalStabilityReport:
    """Stability of every loop map, read off one closed-loop realization.

    ``block_poles`` maps each (output, injection) pair of the sixteen-block
    table to its unstable poles.  ``entry_stable`` flags each entry of
    H-tilde = [I; -I; G] (I - Phi + Gamma G)^-1 [I, Phi, Gamma], and
    ``unstable_poles`` collects the entries' unstable poles.
    ``max_disagreement`` is the largest probe-point difference between the
    realization of H-tilde and the formula evaluated pointwise.
    """

    __slots__ = ("block_poles", "entry_stable", "unstable_poles", "max_disagreement", "loop")

    def __init__(self, block_poles, entry_stable, unstable_poles, max_disagreement, loop):
        self.block_poles = dict(block_poles)
        self.entry_stable = entry_stable
        self.unstable_poles = tuple(unstable_poles)
        self.max_disagreement = float(max_disagreement)
        self.loop = loop

    @property
    def stable(self) -> bool:
        return not self.unstable_entries and not any(self.block_poles.values())

    @property
    def unstable_entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j)
            for i, row in enumerate(self.entry_stable)
            for j, ok in enumerate(row)
            if not ok
        )

    def __repr__(self) -> str:
        verdict = "stable" if self.stable else f"unstable at {self.unstable_entries}"
        return (
            f"InternalStabilityReport({verdict}, "
            f"disagreement={self.max_disagreement:.3e})"
        )


def _unstable_poles(sys: StateSpace) -> tuple[complex, ...]:
    return sstate.unstable_eigs(sstate.minimal(sys).A, sys.domain).values


def verify_internal_stability(pair: NrfPair, plant: StateSpace) -> InternalStabilityReport:
    """Realize the pair row by row, close the loop around the plant once, and
    read every stability verdict off that realization.

    The poles of any loop map are among the eigenvalues of A_CL, so a stable
    A_CL settles every map at once; otherwise each map's unstable poles are
    those of its minimal realization.  H-tilde is the map from the command,
    du and r injections to (u, -u, y).  Its realization is cross-checked
    against (I - Phi + Gamma G)^-1 formed pointwise from Phi, Gamma and G.
    """
    m, p = pair.shape
    ctrl = assemble(realize_rows(pair))
    loop = closed_loop_state_matrix(plant, ctrl)
    H = loop.map(("u", "u", "y"), ("cmd", "du", "r"))
    sign = np.concatenate([np.ones(m), -np.ones(m), np.ones(p)])[:, None]
    H = StateSpace(H.A, H.B, sign * H.C, sign * H.D, H.domain)

    unstable = not loop.is_stable
    block_poles = {
        (out, inp): _unstable_poles(loop.map((out,), (inp,))) if unstable else ()
        for out in LOOP_OUTPUTS
        for inp in TABLE_INPUTS
    }
    entry_stable = []
    poles: list[complex] = []
    for i in range(H.n_outputs):
        row_flags = []
        for j in range(H.n_inputs):
            bad = ()
            if unstable:
                entry = StateSpace(H.A, H.B[:, [j]], H.C[[i]], H.D[i : i + 1, j : j + 1], H.domain)
                bad = _unstable_poles(entry)
            row_flags.append(not bad)
            poles.extend(bad)
        entry_stable.append(tuple(row_flags))

    avoid = np.concatenate(
        [loop.eigenvalues(), np.linalg.eigvals(plant.A), np.linalg.eigvals(ctrl.sys.A)]
    )
    worst = 0.0
    for pt in probe_points(pair.domain, count=11, avoid=avoid):
        Phi_e, Gamma_e, G_e = pair.Phi.eval(pt), pair.Gamma.eval(pt), plant.eval(pt)
        S_e = np.eye(m) - Phi_e + Gamma_e @ G_e
        left_e = np.vstack([np.eye(m), -np.eye(m), G_e])
        right_e = np.hstack([np.eye(m), Phi_e, Gamma_e])
        H_e = left_e @ np.linalg.solve(S_e, right_e)
        worst = max(worst, float(np.max(np.abs(H.eval(pt) - H_e))))
    return InternalStabilityReport(block_poles, tuple(entry_stable), poles, worst, loop)


def verify_internal_stability_tfm(
    pair: NrfPair, plant_tfm: RationalMatrix
) -> InternalStabilityReport:
    """``verify_internal_stability`` around a minimal realization of plant_tfm."""
    return verify_internal_stability(pair, sstate.tfm_to_ss(plant_tfm))


# ---------------------------------------------------------------------------
# serialization

_BUNDLE_KEYS = ("rows", "grouping")


def bundle_to_obj(rows: list[RowRealization]) -> dict:
    return {
        "rows": [
            {
                "index": r.index if isinstance(r.index, int) else list(r.index),
                "ss": sstate.ss_to_obj(r.sys),
            }
            for r in rows
        ],
        "grouping": [list(r.rows) for r in rows],
    }


def bundle_from_obj(obj: dict) -> list[RowRealization]:
    for key in _BUNDLE_KEYS:
        if key not in obj:
            raise InvariantViolation("bundle-fields-present", f"missing {key!r}")
    out = []
    for rec in obj["rows"]:
        idx = rec["index"]
        out.append(RowRealization(idx if isinstance(idx, int) else tuple(idx), sstate.ss_from_obj(rec["ss"])))
    return out


def save_bundle(path: str, rows: list[RowRealization]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle_to_obj(rows), fh, indent=2)


def load_bundle(path: str) -> list[RowRealization]:
    with open(path, "r", encoding="utf-8") as fh:
        return bundle_from_obj(json.load(fh))


def eigenvalue_rows(cl: ClosedLoopRealization) -> list[tuple[float, float, float, int]]:
    rows = []
    for lam in cl.eigenvalues():
        if cl.domain is StabilityDomain.DISCRETE:
            ok = abs(lam) < 1.0
        else:
            ok = lam.real < 0.0
        rows.append((float(lam.real), float(lam.imag), float(abs(lam)), int(ok)))
    rows.sort(key=lambda r: -r[2])
    return rows


def save_eigenvalue_report(path: str, cl: ClosedLoopRealization) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "modulus", "stable_flag"])
        for row in eigenvalue_rows(cl):
            writer.writerow([repr(row[0]), repr(row[1]), repr(row[2]), row[3]])
