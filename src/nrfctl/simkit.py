"""Deterministic closed-loop simulation of the distributed controller.

The interconnection simulated here is the one the rest of the package
analyzes: z = r - y, v = u + w, y = G v + nu, and the controller implements
u = Phi (u + delta_u) + Gamma z through its assembled state-space rows.  The
loop is not closed here: ``simulate`` steps the closed-loop realization that
``dimpl.closed_loop_state_matrix`` builds, whose static coupling dimpl
certifies, so an ill-posed loop raises SingularCoupling before any step and
no one-step delay is inserted anywhere.  Any other loop, such as the
beta-iteration form of a controller, runs by being written as an NRF pair on
a wider command vector.

Noise is SplitMix64 drawn in one vectorized pass bit-identical to the scalar
definition the tests keep, so that a scenario (seed included) pins the trace
down to the last bit, on any platform.  The channels are not independent
substreams: channel c starts one GOLDEN step after channel c - 1 on the same
Weyl sequence, so channel c + 1 runs one draw ahead of channel c.

Trace CSVs are written and read block by block, so their memory is bounded by
the arrays, never by one Python object per value or by the file's text.

The loop's signal layout is ``factor``'s: ``factor._signal_width`` gives
each signal's channel count, and the tables below give the scenario's spec
fields, the trace's CSV blocks and each signal kind's file fields.
"""

from __future__ import annotations

import csv
import itertools
import json
import numbers

import numpy as np

from .dimpl import AssembledController
from .errors import (
    DimensionMismatch,
    InconsistentDimensions,
    InvariantViolation,
    NonDiscrete,
)
from .factor import TABLE_INPUTS, DoublyCoprime, _signal_width
from .ratmat import (
    Polynomial,
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
)
from . import dimpl
from . import sstate
from .sstate import StateSpace

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


# ---------------------------------------------------------------------------
# noise


def _check_bound(bound: float) -> None:
    if not (0.0 <= bound < np.inf):  # NaN fails every comparison
        raise InvariantViolation("noise-bound-nonnegative", f"bound {bound}")


def _whole(value, invariant: str) -> int:
    """int(value), refusing a fractional, NaN or infinite float instead of
    truncating it, and a string, a boolean or null instead of parsing it."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()):
        raise InvariantViolation(invariant, f"{value!r} is not a whole number")
    return int(value)


def _real(value, invariant: str) -> float:
    """float(value), refusing a string, a boolean, a list or null instead of parsing it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvariantViolation(invariant, f"{value!r} is not a number")
    return float(value)


def noise_block(seed: int, channel: int, bound: float, count: int) -> np.ndarray:
    """The first ``count`` uniform draws on [-bound, bound] of one channel's
    SplitMix64 stream, whose state starts at seed + GOLDEN * (channel + 1)
    and advances by GOLDEN per draw.  Every channel walks the same Weyl
    sequence from one step further on, so channel c + 1's draw n is channel
    c's draw n + 1.  One vectorized uint64 pass does, per draw, the
    integer and IEEE operations of the scalar definition the tests keep, so
    every draw has the same bits."""
    _check_bound(bound)
    start = np.uint64((int(seed) + GOLDEN * (int(channel) + 1)) & MASK64)
    # uint64 operands throughout: the products and the sum wrap modulo 2**64
    x = start + np.uint64(GOLDEN) * np.arange(1, count + 1, dtype=np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    # 53-bit mantissa in [0, 1), mapped onto [-bound, bound]
    return bound * (2.0 * ((x >> np.uint64(11)).astype(float) * 2.0**-53) - 1.0)


# ---------------------------------------------------------------------------
# signals and scenarios

# The loop's signal layout: a scenario's per-channel spec lists in the loop
# order of factor.TABLE_INPUTS, a trace's CSV blocks, and a signal spec's file
# fields per kind (the last one, a step's level or a noise bound, is required).
# Every width is factor's _signal_width of the signal's name.
_SPEC_FIELDS = ("reference", "input_disturbance", "measurement_noise", "command_disturbance")
_TRACE_SIGNALS = ("r", "w", "nu", "du", "z", "u", "v", "y")
_KIND_FIELDS = {"step": ("at", "level"), "uniform": ("bound",), "zero": ()}


class SignalSpec:
    """One channel's exogenous signal: a step, silence, or bounded noise."""

    __slots__ = ("kind", "at", "level", "bound")

    def __init__(self, kind: str, at: int = 0, level: float = 0.0, bound: float = 0.0):
        if kind not in tuple(_KIND_FIELDS):  # a tuple: a list or an object from a file is refused too
            raise InvariantViolation("signal-kind", f"unknown kind {kind!r}")
        self.kind = kind
        self.at = _whole(at, "signal-step-at-integral")
        self.level = _real(level, "signal-level-finite")
        self.bound = _real(bound, "noise-bound-nonnegative")
        if self.at < 0:
            raise InvariantViolation("signal-step-at-nonnegative", f"at {at}")
        if not np.isfinite(self.level):
            raise InvariantViolation("signal-level-finite", f"level {level}")
        if kind == "uniform":
            _check_bound(bound)

    @staticmethod
    def step(level: float, at: int = 0) -> "SignalSpec":
        return SignalSpec("step", at=at, level=level)

    @staticmethod
    def zero() -> "SignalSpec":
        return SignalSpec("zero")

    @staticmethod
    def uniform(bound: float) -> "SignalSpec":
        return SignalSpec("uniform", bound=bound)

    def materialize(self, horizon: int, seed: int, channel: int) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(horizon)
        if self.kind == "step":
            out = np.zeros(horizon)
            out[self.at :] = self.level
            return out
        return noise_block(seed, channel, self.bound, horizon)

    def to_obj(self) -> dict:
        return {"kind": self.kind, **{f: getattr(self, f) for f in _KIND_FIELDS[self.kind]}}

    @staticmethod
    def from_obj(obj: dict) -> "SignalSpec":
        if not isinstance(obj, dict):
            raise InvariantViolation("signal-kind", f"a signal spec is an object, got {obj!r}")
        kind = obj.get("kind")
        fields = _KIND_FIELDS[kind] if kind in tuple(_KIND_FIELDS) else ()
        if fields and fields[-1] not in obj:
            raise InvariantViolation("scenario-fields-present", f"a {kind} spec lacks {fields[-1]!r}")
        return SignalSpec(kind, **{f: obj[f] for f in fields if f in obj})

    def __repr__(self) -> str:
        if self.kind == "step":
            return f"SignalSpec.step({self.level}, at={self.at})"
        if self.kind == "uniform":
            return f"SignalSpec.uniform({self.bound})"
        return "SignalSpec.zero()"


def _spec_list(specs, count: int, what: str) -> list[SignalSpec]:
    specs = list(specs)
    if len(specs) != count:
        raise InconsistentDimensions(f"{what} needs {count} channel specs, got {len(specs)}")
    return specs


class Scenario:
    """Everything a simulation run depends on, seed included."""

    __slots__ = (
        "horizon",
        "reference",
        "input_disturbance",
        "measurement_noise",
        "command_disturbance",
        "seed",
        "plant",
        "controller",
    )

    def __init__(
        self,
        horizon: int,
        reference,
        input_disturbance,
        measurement_noise,
        command_disturbance,
        seed: int,
        plant: StateSpace,
        controller: AssembledController,
    ):
        m, p = controller.partition
        if plant.n_inputs != m or plant.n_outputs != p:
            raise DimensionMismatch(
                f"plant is {plant.n_outputs}x{plant.n_inputs}, controller expects {p}x{m}"
            )
        given = locals()  # the spec lists by field name
        self.horizon = _whole(horizon, "scenario-horizon-integral")
        if self.horizon < 0:
            raise InconsistentDimensions(f"horizon {horizon} is negative")
        for signal, field in zip(TABLE_INPUTS, _SPEC_FIELDS):
            width = _signal_width(signal, controller.partition)
            setattr(self, field, _spec_list(given[field], width, field.replace("_", " ")))
        self.seed = _whole(seed, "scenario-seed-integral") & MASK64
        self.plant = plant
        self.controller = controller

    def signals(self) -> np.ndarray:
        """The materialized injection (r, w, nu, du), horizon by channel.

        Channels are numbered through the spec lists in _SPEC_FIELDS order,
        and column c is channel c, so adding a channel never reshuffles the
        draws of the channels before it.  Consecutive channels' draws are
        one-draw shifts of each other (see ``noise_block``), not independent
        substreams.
        """
        specs = [spec for field in _SPEC_FIELDS for spec in getattr(self, field)]
        e = np.empty((self.horizon, len(specs)))
        for channel, spec in enumerate(specs):
            e[:, channel] = spec.materialize(self.horizon, self.seed, channel)
        return e


class SimTrace:
    """Arrays of every loop signal, one row per step, plus the state paths."""

    __slots__ = ("r", "w", "nu", "du", "z", "u", "v", "y", "x_plant", "x_ctrl")

    def __init__(self, r, w, nu, du, z, u, v, y, x_plant, x_ctrl):
        self.r, self.w, self.nu, self.du = r, w, nu, du
        self.z, self.u, self.v, self.y = z, u, v, y
        self.x_plant, self.x_ctrl = x_plant, x_ctrl

    @property
    def horizon(self) -> int:
        return self.y.shape[0]

    def __repr__(self) -> str:
        return f"SimTrace(horizon={self.horizon}, p={self.y.shape[1]}, m={self.u.shape[1]})"


# ---------------------------------------------------------------------------
# plants


def build_network_plant(incidence) -> StateSpace:
    """Node-wise realization of y = Phi_G (incidence y) + Gamma_G u.

    Every node carries one integrator state driven by its own command
    (Gamma_G = 1/(z-1)); every node with incoming edges carries one lag state
    (Phi_G = 0.2/(z-0.8)) fed by the sum of the incoming outputs, so multiple
    incoming edges share a single filter.
    """
    inc = np.asarray(incidence, dtype=bool)
    if inc.ndim != 2 or inc.shape[0] != inc.shape[1]:
        raise DimensionMismatch("incidence must be square")
    nn = inc.shape[0]
    receivers = [i for i in range(nn) if inc[i].any()]
    nl = len(receivers)
    sel = inc[receivers, :].astype(float)  # lag k listens to these nodes
    lift = np.zeros((nn, nl))  # node output picks up its own lag state
    for k, i in enumerate(receivers):
        lift[i, k] = 1.0

    # y = xi + lift eta, sigma xi = xi + u, sigma eta = 0.8 eta + 0.2 sel y
    A = np.block(
        [
            [np.eye(nn), np.zeros((nn, nl))],
            [0.2 * sel, 0.8 * np.eye(nl) + 0.2 * sel @ lift],
        ]
    )
    B = np.vstack([np.eye(nn), np.zeros((nl, nn))])
    C = np.hstack([np.eye(nn), lift])
    return StateSpace(A, B, C, np.zeros((nn, nn)), StabilityDomain.DISCRETE)


def grid5_incidence() -> np.ndarray:
    """Receiver-by-sender adjacency of the five-node demo network."""
    inc = np.zeros((5, 5), dtype=bool)
    for i, j in [(2, 1), (3, 1), (3, 2), (4, 1), (5, 1)]:
        inc[i - 1, j - 1] = True
    return inc


def build_grid5_plant() -> StateSpace:
    """Order-9 realization of the five-node demo network."""
    return build_network_plant(grid5_incidence())


def _grid5_coupling() -> tuple[RationalMatrix, RationalMatrix]:
    """U = I - C and U^-1 = I + C + C^2, C the lag phi = 0.2/(z-0.8) on every edge.

    The network has no cycle and its longest path has two edges, so C^3 = 0
    and the series for U^-1 stops there.  The one two-edge path, 1 -> 2 -> 3,
    joins nodes that an edge joins too, so C^2 adds to a single entry:
    U^-1(3,1) = phi + phi^2, written reduced as 0.2 (z - 0.6)/(z - 0.8)^2.
    """
    D = StabilityDomain.DISCRETE
    phi_g = RationalFunction(Polynomial([0.2]), Polynomial([-0.8, 1.0]))
    zero = RationalFunction.const(0.0)
    inc = grid5_incidence()
    C = RationalMatrix([[phi_g if inc[i, j] else zero for j in range(5)] for i in range(5)], D)
    eye = RationalMatrix.identity(5, D)
    inv = [list(row) for row in (eye + C).entries]
    inv[2][0] = RationalFunction(Polynomial([-0.12, 0.2]), phi_g.den * phi_g.den)
    return eye - C, RationalMatrix(inv, D)


def grid5_tfm() -> RationalMatrix:
    """The demo network's transfer matrix (z-1)^-1 U^-1 with U = I - Phi_G B."""
    gam_g = RationalFunction(Polynomial([1.0]), Polynomial([-1.0, 1.0]))
    return RationalMatrix.scalar(gam_g, 5, StabilityDomain.DISCRETE) @ _grid5_coupling()[1]


def grid5_dcf():
    """A doubly coprime factorization of the demo network.

    All eight factors are diagonal rescalings of U or U^-1 by first-order
    functions; deadbeat-flavored observer and state-feedback poles at 0.5.
    Realized and validated on construction.
    """
    D = StabilityDomain.DISCRETE
    rf = lambda n, d: RationalFunction(Polynomial(n), Polynomial(d))
    U, Uinv = _grid5_coupling()
    sc = lambda r: RationalMatrix.scalar(r, 5, D)
    zm1 = rf([-1.0, 1.0], [-0.5, 1.0])  # (z-1)/(z-0.5)
    quarter = rf([0.25], [-0.5, 1.0])
    zz = rf([0.0, 1.0], [-0.5, 1.0])  # z/(z-0.5)
    unit = rf([1.0], [-0.5, 1.0])
    return DoublyCoprime.from_factors(
        M=sc(zm1) @ U,
        N=sc(unit),
        Mt=sc(zm1),
        Nt=sc(unit) @ Uinv,
        X=sc(quarter),
        Y=sc(zz) @ Uinv,
        Xt=sc(quarter) @ U,
        Yt=sc(zz),
    )


def grid5_q() -> RationalMatrix:
    """The demo's Youla parameter 0.8/(z-0.2) I."""
    q = RationalFunction(Polynomial([0.8]), Polynomial([-0.2, 1.0]))
    return RationalMatrix.scalar(q, 5, StabilityDomain.DISCRETE)


def grid5_nrf() -> RationalMatrix:
    """The NRF pair [Phi Gamma] of ``grid5_dcf`` shifted by ``grid5_q``, in
    closed form (5 x 10).

    Phi is -0.2/(z - 0.8) on every edge but 1 -> 3, which the two-edge path
    1 -> 2 -> 3 joins too: there it is (0.12 - 0.2 z)/(z - 0.8)^2.  Gamma is
    (1.05 z - 0.85)/(z^2 - 0.2 z - 0.8) I.
    """
    D = StabilityDomain.DISCRETE
    rf = lambda n, d: RationalFunction(Polynomial(n), Polynomial(d))
    edge, zero = rf([-0.2], [-0.8, 1.0]), RationalFunction.const(0.0)
    inc = grid5_incidence()
    phi = [[edge if inc[i, j] else zero for j in range(5)] for i in range(5)]
    phi[2][0] = rf([0.12, -0.2], [0.64, -1.6, 1.0])
    gamma = RationalMatrix.scalar(rf([-0.85, 1.05], [-0.8, -0.2, 1.0]), 5, D)
    return RationalMatrix(phi, D).hstack(gamma)


def grid5_patterns() -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) sparsity targets: diagonal Gamma, Phi on the network edges."""
    return np.eye(5, dtype=bool), grid5_incidence()


def grid5_scenario(plant: StateSpace, controller: AssembledController, seed: int = 42,
                   horizon: int = 100) -> Scenario:
    """Unit reference steps, a 0.5 step on the first input channel at n = 20,
    and 0.05-bounded uniform noise on measurements and commands."""
    m, p = controller.partition
    return Scenario(
        horizon,
        [SignalSpec.step(1.0) for _ in range(p)],  # r
        [SignalSpec.step(0.5, at=20)] + [SignalSpec.zero() for _ in range(m - 1)],  # w
        [SignalSpec.uniform(0.05) for _ in range(p)],  # nu
        [SignalSpec.uniform(0.05) for _ in range(m)],  # du
        seed,
        plant,
        controller,
    )


# ---------------------------------------------------------------------------
# simulation


def simulate(sc: Scenario) -> SimTrace:
    """Run the loop of the assembled controller around the plant.

    The loop is closed once, by ``dimpl.closed_loop_state_matrix``; each step
    then advances its state x <- A_CL x + B e on the injection
    e = (r, w, nu, du) and reads y and u off C x + D e.  The state stacks the
    plant's coordinates over the controller's.  The trace is a pure function
    of the scenario.
    """
    plant, ctrl = sc.plant, sc.controller
    if plant.domain is not StabilityDomain.DISCRETE:
        raise NonDiscrete("simulation advances a discrete-time recursion")
    if ctrl.sys.domain is not StabilityDomain.DISCRETE:
        raise NonDiscrete("controller realization must be discrete")
    p = ctrl.partition[1]
    loop = dimpl.closed_loop_state_matrix(plant, ctrl).map(("y", "u"), TABLE_INPUTS)

    # one injection array; the trace's r, w, nu and du are its column blocks
    e = sc.signals()
    widths = [_signal_width(s, ctrl.partition) for s in TABLE_INPUTS]
    r, w, nu, du = np.split(e, np.cumsum(widths)[:-1], axis=1)
    # row n + 1 first holds B e[n], then gains A x[n]; the loop starts at rest
    x = np.zeros((sc.horizon, loop.order))
    np.matmul(e[:-1], loop.B.T, out=x[1:])
    step = loop.A.dot
    # a diverging loop overflows to inf and nan, which trace_metrics reports
    with np.errstate(over="ignore", invalid="ignore"):
        for prev, cur in zip(x, x[1:]):
            cur += step(prev)
        yu = x @ loop.C.T + e @ loop.D.T
        y, u = yu[:, :p], yu[:, p:]
        return SimTrace(r, w, nu, du, r - y, u, u + w, y, x[:, : plant.order], x[:, plant.order :])


# ---------------------------------------------------------------------------
# metrics


class TraceMetrics:
    __slots__ = ("max_abs_y", "tracking_error", "max_abs_u", "diverged")

    def __init__(self, max_abs_y, tracking_error, max_abs_u, diverged):
        self.max_abs_y = np.asarray(max_abs_y)
        self.tracking_error = np.asarray(tracking_error)
        self.max_abs_u = np.asarray(max_abs_u)
        self.diverged = bool(diverged)

    def __repr__(self) -> str:
        return (
            f"TraceMetrics(max|y|={self.max_abs_y.max():.4g}, "
            f"err={self.tracking_error.max():.4g}, "
            f"max|u|={self.max_abs_u.max():.4g}, diverged={self.diverged})"
        )


def _channel_diverges(x: np.ndarray) -> bool:
    # sustained growth test: the last quarter's mean level more than doubles
    # the second quarter's (a mode on the unit circle grows linearly, so the
    # ratio tends to E[7H/8]/E[3H/8] = 7/3; a settling channel tends to 1)
    # and passes every value of the first half, which the noise on a settled
    # channel with slow poles does not, however it wanders between quarters
    if not np.all(np.isfinite(x)):
        return True
    H = x.shape[0]
    if H < 8:
        return False
    a = float(np.mean(np.abs(x[H // 4 : H // 2])))
    b = float(np.mean(np.abs(x[3 * H // 4 :])))
    return b > 2.0 * a and b > float(np.max(np.abs(x[: H // 2]))) and b > 1e-6


def trace_metrics(t: SimTrace, settle_from: int) -> TraceMetrics:
    """Per-channel peak and settled-tracking statistics of a trace."""
    H = t.horizon
    if settle_from >= H:
        raise InconsistentDimensions(f"settle_from {settle_from} >= horizon {H}")
    # a diverged trace holds inf and nan, and its sums may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        max_abs_y = np.max(np.abs(t.y), axis=0)
        tracking = np.mean(np.abs(t.y - t.r)[settle_from:], axis=0)
        max_abs_u = np.max(np.abs(t.u), axis=0)
        channels = [t.y[:, j] for j in range(t.y.shape[1])]
        channels += [t.u[:, j] for j in range(t.u.shape[1])]
        diverged = any(_channel_diverges(x) for x in channels)
    return TraceMetrics(max_abs_y, tracking, max_abs_u, diverged)


# ---------------------------------------------------------------------------
# interchange


# steps that save_trace formats at once: a block of Python floats and strings
# is all the text a trace ever holds in memory
_TRACE_BLOCK = 1024


def _trace_header(m: int, p: int) -> list[str]:
    return ["n"] + [f"{s}{i+1}" for s in _TRACE_SIGNALS
                    for i in range(_signal_width(s, (m, p)))]


def save_trace(path: str, t: SimTrace) -> None:
    """CSV with repr-shortest doubles, so reading the file back is lossless.

    Rows are formatted and written _TRACE_BLOCK steps at a time, so only one
    block's values are ever held as Python floats and strings.
    """
    signals = [getattr(t, s) for s in _TRACE_SIGNALS]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(_trace_header(t.u.shape[1], t.y.shape[1]))
        for first in range(0, t.horizon, _TRACE_BLOCK):
            rows = np.hstack([a[first : first + _TRACE_BLOCK] for a in signals]).tolist()
            # no repr of a float needs csv quoting; rows end as csv.writer ends them
            fh.writelines(f"{n}," + ",".join(map(repr, row)) + "\r\n"
                          for n, row in enumerate(rows, first))


def load_trace(path: str) -> SimTrace:
    """Read a ``save_trace`` file.  The rows are parsed straight from the
    file, so memory is bounded by the arrays, never by the text.  A header
    that is not ``_trace_header`` of its own widths, a row of another width,
    a cell that is not a number and a step column that does not count
    0, 1, 2, ... raise InvariantViolation; ``inf`` and ``nan``, which a
    diverged run writes, are numbers."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])  # an empty file has not even the "n" column
        names = [c.rstrip("0123456789") for c in header]
        m, p = names.count("w"), names.count("r")
        if header != _trace_header(m, p):
            raise InvariantViolation("trace-header-layout",
                                     f"{','.join(header)!r} is not the m = {m}, p = {p} header")
        first = next((line for line in fh if line.strip()), "")
        try:  # a file without rows (horizon 0) never reaches loadtxt, which warns on no data
            data = (np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2)
                    if first else np.zeros((0, len(header))))
        except ValueError as err:  # a ragged row or a cell that is no number
            raise InvariantViolation("trace-rows-well-formed", str(err)) from None
    if data.shape[1] != len(header):
        raise InvariantViolation(
            "trace-rows-well-formed", f"rows have {data.shape[1]} cells, the header {len(header)}")
    H = data.shape[0]
    if not np.array_equal(data[:, 0], np.arange(H)):
        raise InvariantViolation("trace-rows-well-formed", "the step column n is not 0, 1, 2, ...")
    # each block after the step column is as wide as the header says
    ends = np.cumsum([names.count(s) for s in _TRACE_SIGNALS])
    blocks = np.split(data[:, 1:], ends, axis=1)[:-1]
    return SimTrace(*blocks, np.zeros((H, 0)), np.zeros((H, 0)))


_SCENARIO_KEYS = ("horizon", *_SPEC_FIELDS, "seed", "plant", "controller")


def scenario_to_obj(sc: Scenario) -> dict:
    ctl = sc.controller
    obj = {key: getattr(sc, key) for key in _SCENARIO_KEYS}
    obj.update({key: [s.to_obj() for s in obj[key]] for key in _SPEC_FIELDS},
               plant=sstate.ss_to_obj(sc.plant),
               controller={
                   "ss": sstate.ss_to_obj(ctl.sys),
                   "row_orders": list(ctl.row_orders),
                   "partition": list(ctl.partition),
                   "grouping": [list(g) for g in ctl.grouping],
               })
    return obj


def _listed(values, what: str) -> list:
    if not isinstance(values, list):
        raise InvariantViolation("scenario-fields-present", f"{what} is not a list: {values!r}")
    return values


def scenario_from_obj(obj: dict) -> Scenario:
    for key in _SCENARIO_KEYS:
        if not isinstance(obj, dict) or key not in obj:
            raise InvariantViolation("scenario-fields-present", f"missing {key!r}")
    ctl = obj["controller"]
    if not isinstance(ctl, dict) or not {"ss", "row_orders", "partition", "grouping"} <= ctl.keys():
        raise InvariantViolation("scenario-fields-present", "controller lacks a field")
    whole = lambda vs, field: [_whole(v, f"scenario-{field}-integral") for v in _listed(vs, field)]
    specs = lambda key: [SignalSpec.from_obj(s) for s in _listed(obj[key], key)]
    controller = AssembledController(
        sstate.ss_from_obj(ctl["ss"]),
        whole(ctl["row_orders"], "row-orders"),
        tuple(whole(ctl["partition"], "partition")),
        [tuple(whole(g, "grouping")) for g in _listed(ctl["grouping"], "grouping")],
    )
    fields = {key: obj[key] for key in _SCENARIO_KEYS}
    fields.update({key: specs(key) for key in _SPEC_FIELDS},
                  plant=sstate.ss_from_obj(obj["plant"]), controller=controller)
    return Scenario(**fields)


def save_scenario(path: str, sc: Scenario) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(scenario_to_obj(sc), indent=2))


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_obj(json.load(fh))
