"""Distributed implementation of an NRF pair and closed-loop verification.

The controller u = Phi u + Gamma z is realized one row (or block of rows) at a
time: each block is a minimal realization of the row systems the pair carries
(the state-space quotients ``nrfsyn`` formed them as, stored as such in
nrf.json, or each row's entry by entry realization for a file with the
rational matrices alone), checked against those row systems, so node i only
ever stores the dynamics its own control law needs.
Assembly stacks the rows into a block-diagonal state matrix, and the loop
with the plant closes through a static coupling of (y, u) whose invertibility
is certified by a Schur complement before the closed-loop realization is
formed; the loop's signal layout is ``factor``'s.

That realization is the one place a loop is closed: every stability verdict
reads it, and simulation steps it.  It maps every injection (reference,
disturbances, noise, command) to every loop signal, so all loop maps share
the state matrix A_CL: when A_CL is stable the loop is internally stable, and
otherwise each map's unstable poles are the unstable eigenvalues of its
minimal realization whose A_CL mode passes the PBH tests against the map's
own B and C.  The realized H-tilde map is cross-checked against
(I - Phi + Gamma G)^-1 evaluated pointwise, with [Phi Gamma] evaluated off
the row systems.
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
    audit,
)
from .factor import LOOP_INPUTS, LOOP_OUTPUTS, TABLE_INPUTS, _injections, _readout, _signal_index
from .nrfsyn import NrfPair
from .ratmat import RationalMatrix, probe_points
from . import factor, sstate
from .sstate import StateSpace
from .tolerances import PROBE_TOL


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
    return tuple(index) if hasattr(index, "__iter__") else (index,)


def _check_partition(grouping, m: int) -> None:
    """Refuse a grouping whose row numbers are not the integers 1..m, each once."""
    rows = [i for g in grouping for i in g]
    if any(type(i) is not int for i in rows) or sorted(rows) != list(range(1, m + 1)):
        raise InconsistentDimensions(f"grouping {grouping} is not a partition of rows 1..{m}")


def realize_rows(pair: NrfPair, grouping=None) -> list[RowRealization]:
    """Per-row realizations of [Phi Gamma].

    The default grouping is one row per realization.  A grouping is a list of
    disjoint blocks of 1-based row numbers covering 1..m; each block is the
    minimal realization of its stacked row systems, which can share dynamics
    between rows with common denominators.  Each block must match the row
    systems it reduces at probe points and pass the PBH audits.
    """
    m, p = pair.shape
    if grouping is None:
        grouping = [[i] for i in range(1, m + 1)]
    groups = [_as_group(g) for g in grouping]
    _check_partition(groups, m)
    pts, values = pair.probe_rows(7)
    out = []
    for g in groups:
        idx = [i - 1 for i in g]
        sys = sstate.minimal(sstate.stack_outputs([pair.row_systems[i] for i in idx]))
        want = values[:, idx, :]  # relative to its largest entry, over all points
        audit("row-probe-match", (sys.eval_many(pts) - want) / max(1.0, np.max(np.abs(want))),
              PROBE_TOL, f"rows {g}")
        failure = sstate.pbh_failure(sys)
        if failure:
            raise InvariantViolation(f"row-{failure}", f"rows {g}")
        out.append(RowRealization(g[0] if len(g) == 1 else g, sys))
    return out


class AssembledController:
    """Block-diagonal stacking of row realizations.

    ``partition`` is (m, p): the first m inputs receive the fed-back commands
    u + delta_u, the trailing p inputs receive the regulated measurement z.
    Output i is control command i regardless of the grouping order.  The
    realization must agree with the partition, the row orders and the
    grouping, which a scenario file carries beside it.
    """

    __slots__ = ("sys", "row_orders", "partition", "grouping")

    def __init__(self, sys, row_orders, partition, grouping):
        self.sys = sys
        self.row_orders = list(row_orders)
        self.partition = tuple(partition)
        if len(self.partition) != 2:
            raise InconsistentDimensions(f"partition {self.partition} is not (m, p)")
        m, p = self.partition
        self.grouping = tuple(map(_as_group, grouping))
        if p < 0 or sys.D.shape != (m, m + p):
            raise InconsistentDimensions(f"partition {m, p} does not fit D of shape {sys.D.shape}")
        _check_partition(self.grouping, m)
        if len(self.row_orders) != len(self.grouping) or sum(self.row_orders) != sys.order:
            raise InconsistentDimensions(
                f"row orders {self.row_orders} do not split order {sys.order} over the grouping"
            )

    @property
    def order(self) -> int:
        return self.sys.order

    def __repr__(self) -> str:
        m, p = self.partition
        return (
            f"AssembledController(order={self.order}, m={m}, p={p}, "
            f"blocks={self.row_orders})"
        )


def assemble(rows: list[RowRealization]) -> AssembledController:
    """Block-diagonal assembly of row realizations into one controller.

    Row indices must partition 1..m, and ``stack_outputs`` refuses rows of
    unequal input width or domain.  Outputs are permuted back into row
    order, so a grouping like [[2, 3], [1]] still yields output 1 on top.
    """
    if not rows:
        raise InconsistentDimensions("no rows to assemble")
    flat = [i for r in rows for i in r.rows]
    m = len(flat)
    stacked = sstate.stack_outputs([r.sys for r in rows])
    # stacked output k is controller output flat[k]; undo the grouping order
    perm = np.argsort(np.asarray(flat))
    sys = StateSpace(stacked.A, stacked.B, stacked.C[perm, :], stacked.D[perm, :], stacked.domain)
    ctrl = AssembledController(sys, [r.order for r in rows], (m, sys.n_inputs - m),
                               [r.rows for r in rows])

    pts = probe_points(sys.domain, count=5)
    want = np.concatenate([r.sys.eval_many(pts) for r in rows], axis=1)[:, perm, :]
    scale = np.maximum(1.0, np.max(np.abs(want), axis=(1, 2), keepdims=True))  # per point
    audit("assembly-linearity", (sys.eval_many(pts) - want) / scale, PROBE_TOL)
    failure = sstate.pbh_failure(sys)
    if failure:
        raise InvariantViolation(f"assembled-{failure}", "PBH audit failed")
    return ctrl


# ---------------------------------------------------------------------------
# closing the loop


class ClosedLoopRealization:
    """The interconnection as one ``StateSpace`` plus its static coupling data.

    ``sys`` maps the injections LOOP_INPUTS to the loop signals LOOP_OUTPUTS,
    its state the plant's coordinates over the controller's, and ``map`` cuts
    out any sub-map of it.  ``Dtilde`` and ``schur`` are the coupling matrix
    of (y, u) and its Schur complement, ``partition`` the controller's (m, p).
    """

    __slots__ = ("sys", "Dtilde", "schur", "partition")

    def __init__(self, sys: StateSpace, Dtilde, schur, partition):
        self.sys, self.Dtilde, self.schur = sys, Dtilde, schur
        self.partition = tuple(partition)

    @property
    def order(self) -> int:
        return self.sys.order

    @property
    def domain(self):
        return self.sys.domain

    def eigenvalues(self) -> np.ndarray:
        return self.sys.eigenvalues

    @property
    def is_stable(self) -> bool:
        return not self.sys.unstable_eigenvalues

    def map(self, outputs, inputs) -> StateSpace:
        """Realization from the named injections to the named loop signals."""
        return self.sys.select(
            _signal_index(LOOP_OUTPUTS, outputs, self.partition),
            _signal_index(LOOP_INPUTS, inputs, self.partition),
        )


def closed_loop_state_matrix(
    plant: StateSpace, ctrl: AssembledController
) -> ClosedLoopRealization:
    """Close the loop z = r - y, v = u + w, y = G v + nu around the plant.

    The controller reads u + du and z, and the command injection adds to its
    output: u = Phi (u + du) + Gamma z + cmd.  The two static unknowns per
    step are (y, u); they couple through

        Dtilde = [ I     -D        ]
                 [ D_K2   I - D_K1 ]

    whose invertibility is equivalent to that of the Schur complement
    I - D_K1 + D_K2 D (eliminate y).  Both tests must agree before the
    realization is assembled.  z and v are read out of (y, u) by
    ``factor._readout``.
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

    Dtilde = np.block([[np.eye(p), -D], [DK2, np.eye(m) - DK1]])
    schur = np.eye(m) - DK1 + DK2 @ D
    ok_schur, r_schur = sstate._invertibility(schur)
    ok_direct, r_direct = sstate._invertibility(Dtilde)
    if not ok_schur or not ok_direct:
        raise SingularCoupling(
            f"coupling matrix is singular (schur {r_schur:.3e}, direct {r_direct:.3e})"
        )

    # (y, u) drive the states: u + w the plant, u + du and r - y the controller
    left = np.block([[np.zeros((plant.order, p)), B], [-BK2, BK1]])
    from_states = np.linalg.solve(Dtilde, sstate._block_diag([C, CK]))
    A_CL = sstate._block_diag([A, AK]) + left @ from_states

    # injections (r, w, nu, du, cmd) enter the static equations
    #   y - D u = C x + D w + nu,   D_K2 y + u - D_K1 u = C_K x_K + D_K2 r + D_K1 du + cmd
    # and the states directly (w drives the plant, r and du the controller)
    E_r, E_w, E_nu, E_du, E_cmd = _injections(LOOP_INPUTS, (m, p))
    static_in = np.vstack([D @ E_w + E_nu, DK2 @ E_r + DK1 @ E_du + E_cmd])
    from_inputs = np.linalg.solve(Dtilde, static_in)
    B_CL = np.vstack([B @ E_w, BK2 @ E_r + BK1 @ E_du]) + left @ from_inputs
    sys = StateSpace(A_CL, B_CL, *_readout(from_states, from_inputs, (m, p)), plant.domain)
    return ClosedLoopRealization(sys, Dtilde, schur, (m, p))


# ---------------------------------------------------------------------------
# internal-stability verification


class InternalStabilityReport:
    """Stability of every loop map, read off one closed-loop realization.

    ``block_poles`` maps each (output, injection) pair of the sixteen-block
    table to its unstable poles.  ``unstable_entries`` lists the (i, j)
    entries of H-tilde = [I; -I; G] (I - Phi + Gamma G)^-1 [I, Phi, Gamma]
    that have an unstable pole.  ``max_disagreement`` is the largest
    probe-point difference between the realization of H-tilde and the
    formula evaluated pointwise, and ``loop`` is the realization itself.
    """

    __slots__ = ("block_poles", "unstable_entries", "max_disagreement", "loop")

    def __init__(self, block_poles, unstable_entries, max_disagreement, loop):
        self.block_poles = dict(block_poles)
        self.unstable_entries = tuple(unstable_entries)
        self.max_disagreement = float(max_disagreement)
        self.loop = loop

    @property
    def stable(self) -> bool:
        return not self.unstable_entries and not any(self.block_poles.values())

    def __repr__(self) -> str:
        verdict = "stable" if self.stable else f"unstable at {self.unstable_entries}"
        return (
            f"InternalStabilityReport({verdict}, "
            f"disagreement={self.max_disagreement:.3e})"
        )


def verify_internal_stability(pair: NrfPair, plant: StateSpace) -> InternalStabilityReport:
    """Realize the pair row by row, close the loop around the plant once, and
    read every stability verdict off that realization.

    The poles of any loop map are among the eigenvalues of A_CL, so a stable
    A_CL settles every map at once; otherwise each map's unstable poles are
    those of its minimal realization that pass the PBH tests of
    ``sstate.reached_poles``.  H-tilde is the map from the command, du and r
    injections to (u, -u, y).  Its realization is cross-checked against
    (I - Phi + Gamma G)^-1 formed pointwise from G and the row systems'
    values of [Phi Gamma]; the rational views are not read.  A plant that
    fails PBH is refused first, as ``dcf_from_ss`` refuses it: the rank tests
    on the loop maps can read the loop around it as stable when it is not."""
    factor._require_pbh(plant)
    m, p = pair.shape
    ctrl = assemble(realize_rows(pair))
    loop = closed_loop_state_matrix(plant, ctrl)

    # a stable A_CL settles every map: none is cut out or reduced.  Each distinct
    # map is reduced once: the v = u + w blocks (v ends LOOP_OUTPUTS) take the u
    # blocks' poles, whose (A, B, C) they have, and H is cut with the rows (u, y),
    # its rows -u taking the rows u's verdicts, its entries reduced in one pass
    stable = loop.is_stable
    H = loop.map(("u", "y"), ("cmd", "du", "r"))
    block_poles = {(out, inp): () if stable else sstate.unstable_map_poles(loop.map((out,), (inp,)))
                   for out in LOOP_OUTPUTS if out != "v" for inp in TABLE_INPUTS}
    block_poles.update({("v", inp): block_poles["u", inp] for inp in TABLE_INPUTS})
    bad = set() if stable else {
        (i, j) for i, j, *part in sstate.entry_reductions(H)
        if sstate.reached_poles(H.select([i], [j]), StateSpace(*part, H.D[i, j], H.domain))}
    unstable_entries = [(i, j) for i, k in enumerate([*range(m), *range(m + p)])
                        for j in range(H.n_inputs) if (k, j) in bad]

    # the rows -u disagree as the rows u do, |-a - (-b)| = |a - b|
    avoid = np.concatenate([loop.eigenvalues(), plant.eigenvalues, ctrl.sys.eigenvalues])
    pts, rows_e = pair.probe_rows(11, avoid)
    Phi_e, Gamma_e, G_e = rows_e[:, :, :m], rows_e[:, :, m:], plant.eval_many(pts)
    eye = np.broadcast_to(np.eye(m), Phi_e.shape)
    S_e = eye - Phi_e + Gamma_e @ G_e
    left_e = np.concatenate([eye, G_e], axis=1)
    right_e = np.concatenate([eye, Phi_e, Gamma_e], axis=2)
    H_e = left_e @ np.linalg.solve(S_e, right_e)
    worst = float(np.max(np.abs(H.eval_many(pts) - H_e), initial=0.0))
    return InternalStabilityReport(block_poles, unstable_entries, worst, loop)


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
        if not isinstance(obj, dict) or key not in obj:
            raise InvariantViolation("bundle-fields-present", f"missing {key!r}")
    if not isinstance(obj["rows"], list):
        raise InvariantViolation("bundle-fields-present", "rows is not a list")
    out = []
    for rec in obj["rows"]:
        idx = rec.get("index") if isinstance(rec, dict) and "ss" in rec else None
        if not (type(idx) is int or isinstance(idx, list) and all(type(i) is int for i in idx)):
            raise InvariantViolation("bundle-fields-present", "a row needs an ss and an integer index")
        out.append(RowRealization(idx if isinstance(idx, int) else tuple(idx), sstate.ss_from_obj(rec["ss"])))
    grouping = obj["grouping"]
    if grouping != [list(r.rows) for r in out] or any(type(i) is not int for g in grouping for i in g):
        raise InvariantViolation("bundle-fields-present", "grouping is not the rows' own groups")
    return out


def save_bundle(path: str, rows: list[RowRealization]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(bundle_to_obj(rows), indent=2))


def eigenvalue_rows(cl: ClosedLoopRealization) -> list[tuple[float, float, float, int]]:
    rows = [(float(lam.real), float(lam.imag), float(abs(lam)),
             int(not sstate.is_unstable(lam, cl.domain))) for lam in cl.eigenvalues()]
    return sorted(rows, key=lambda r: -r[2])


def save_eigenvalue_report(path: str, cl: ClosedLoopRealization) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "modulus", "stable_flag"])
        for row in eigenvalue_rows(cl):
            writer.writerow([repr(row[0]), repr(row[1]), repr(row[2]), row[3]])
