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

Noise is SplitMix64, one substream per channel drawn in one vectorized pass
bit-identical to the scalar definition the tests keep, so that a scenario
(seed included) pins the trace down to the last bit, on any platform.
"""

from __future__ import annotations

import csv
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
    truncating it, and a string or null instead of parsing it."""
    if not (isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()):
        raise InvariantViolation(invariant, f"{value!r} is not a whole number")
    return int(value)


def _real(value, invariant: str) -> float:
    """float(value), refusing a string, a list or null instead of parsing it."""
    if not isinstance(value, numbers.Real):
        raise InvariantViolation(invariant, f"{value!r} is not a number")
    return float(value)


def noise_block(seed: int, channel: int, bound: float, count: int) -> np.ndarray:
    """The first ``count`` uniform draws on [-bound, bound] of one channel's
    SplitMix64 substream, whose state starts at seed + GOLDEN * (channel + 1)
    and advances by GOLDEN per draw.  One vectorized uint64 pass does, per
    draw, the integer and IEEE operations of the scalar definition the tests
    keep, so every draw has the same bits."""
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


class SignalSpec:
    """One channel's exogenous signal: a step, silence, or bounded noise."""

    __slots__ = ("kind", "at", "level", "bound")

    def __init__(self, kind: str, at: int = 0, level: float = 0.0, bound: float = 0.0):
        if kind not in ("step", "zero", "uniform"):
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
        if self.kind == "step":
            return {"kind": "step", "at": self.at, "level": self.level}
        if self.kind == "uniform":
            return {"kind": "uniform", "bound": self.bound}
        return {"kind": "zero"}

    @staticmethod
    def from_obj(obj: dict) -> "SignalSpec":
        if not isinstance(obj, dict):
            raise InvariantViolation("signal-kind", f"a signal spec is an object, got {obj!r}")
        kind = obj.get("kind")
        if kind == "step":
            return SignalSpec.step(obj["level"], obj.get("at", 0))
        if kind == "uniform":
            return SignalSpec.uniform(obj["bound"])
        if kind == "zero":
            return SignalSpec.zero()
        raise InvariantViolation("signal-kind", f"unknown kind {kind!r}")

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
        self.horizon = _whole(horizon, "scenario-horizon-integral")
        if self.horizon < 0:
            raise InconsistentDimensions(f"horizon {horizon} is negative")
        self.reference = _spec_list(reference, p, "reference")
        self.input_disturbance = _spec_list(input_disturbance, m, "input disturbance")
        self.measurement_noise = _spec_list(measurement_noise, p, "measurement noise")
        self.command_disturbance = _spec_list(command_disturbance, m, "command disturbance")
        self.seed = _whole(seed, "scenario-seed-integral") & MASK64
        self.plant = plant
        self.controller = controller

    def signals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Materialized (r, w, nu, du) arrays, horizon by channel.

        Noise substream channels are numbered through the concatenation
        reference, input disturbance, measurement noise, command disturbance,
        so adding a channel never reshuffles the others' draws.
        """
        m, p = self.controller.partition
        offsets = [0, p, p + m, 2 * p + m]
        groups = (
            self.reference,
            self.input_disturbance,
            self.measurement_noise,
            self.command_disturbance,
        )
        out = []
        for off, specs in zip(offsets, groups):
            cols = [
                spec.materialize(self.horizon, self.seed, off + k)
                for k, spec in enumerate(specs)
            ]
            out.append(np.column_stack(cols) if cols else np.zeros((self.horizon, 0)))
        return tuple(out)


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
    from .factor import DoublyCoprime

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
        horizon=horizon,
        reference=[SignalSpec.step(1.0) for _ in range(p)],
        input_disturbance=[SignalSpec.step(0.5, at=20)]
        + [SignalSpec.zero() for _ in range(m - 1)],
        measurement_noise=[SignalSpec.uniform(0.05) for _ in range(p)],
        command_disturbance=[SignalSpec.uniform(0.05) for _ in range(m)],
        seed=seed,
        plant=plant,
        controller=controller,
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
    loop = dimpl.closed_loop_state_matrix(plant, ctrl).map(("y", "u"), dimpl.TABLE_INPUTS)

    r, w, nu, du = sc.signals()
    e = np.hstack([r, w, nu, du])
    # row n + 1 first holds B e[n], then gains A x[n]; the loop starts at rest
    x = np.zeros((sc.horizon, loop.order))
    np.matmul(e[:-1], loop.B.T, out=x[1:])
    rows, step = list(x), loop.A.dot
    for prev, cur in zip(rows, rows[1:]):
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
    max_abs_y = np.max(np.abs(t.y), axis=0)
    tracking = np.mean(np.abs(t.y - t.r)[settle_from:], axis=0)
    max_abs_u = np.max(np.abs(t.u), axis=0)
    channels = [t.y[:, j] for j in range(t.y.shape[1])]
    channels += [t.u[:, j] for j in range(t.u.shape[1])]
    diverged = any(_channel_diverges(x) for x in channels)
    return TraceMetrics(max_abs_y, tracking, max_abs_u, diverged)


# ---------------------------------------------------------------------------
# interchange


def _trace_header(m: int, p: int) -> list[str]:
    cols = ["n"]
    cols += [f"r{i+1}" for i in range(p)]
    cols += [f"w{i+1}" for i in range(m)]
    cols += [f"nu{i+1}" for i in range(p)]
    cols += [f"du{i+1}" for i in range(m)]
    cols += [f"z{i+1}" for i in range(p)]
    cols += [f"u{i+1}" for i in range(m)]
    cols += [f"v{i+1}" for i in range(m)]
    cols += [f"y{i+1}" for i in range(p)]
    return cols


def save_trace(path: str, t: SimTrace) -> None:
    """CSV with repr-shortest doubles, so reading the file back is lossless."""
    m = t.u.shape[1]
    p = t.y.shape[1]
    data = np.hstack([t.r, t.w, t.nu, t.du, t.z, t.u, t.v, t.y]).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(_trace_header(m, p))
        # no repr of a float needs csv quoting; rows end as csv.writer ends them
        fh.writelines(f"{n}," + ",".join(map(repr, row)) + "\r\n" for n, row in enumerate(data))


def load_trace(path: str) -> SimTrace:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
        body = fh.read().splitlines()
    names = [c.rstrip("0123456789") for c in header]
    widths = {k: names.count(k) for k in ("r", "w", "nu", "du", "z", "u", "v", "y")}
    data = np.loadtxt(body, delimiter=",", ndmin=2) if body else np.zeros((0, len(header)))
    data = data[:, 1:]  # column 0 is the step number
    blocks = {}
    offset = 0
    for key in ("r", "w", "nu", "du", "z", "u", "v", "y"):
        blocks[key] = data[:, offset : offset + widths[key]]
        offset += widths[key]
    H = data.shape[0]
    return SimTrace(
        blocks["r"], blocks["w"], blocks["nu"], blocks["du"],
        blocks["z"], blocks["u"], blocks["v"], blocks["y"],
        np.zeros((H, 0)), np.zeros((H, 0)),
    )


_SCENARIO_KEYS = (
    "horizon",
    "reference",
    "input_disturbance",
    "measurement_noise",
    "command_disturbance",
    "seed",
    "plant",
    "controller",
)


def scenario_to_obj(sc: Scenario) -> dict:
    return {
        "horizon": sc.horizon,
        "reference": [s.to_obj() for s in sc.reference],
        "input_disturbance": [s.to_obj() for s in sc.input_disturbance],
        "measurement_noise": [s.to_obj() for s in sc.measurement_noise],
        "command_disturbance": [s.to_obj() for s in sc.command_disturbance],
        "seed": sc.seed,
        "plant": sstate.ss_to_obj(sc.plant),
        "controller": {
            "ss": sstate.ss_to_obj(sc.controller.sys),
            "row_orders": list(sc.controller.row_orders),
            "partition": list(sc.controller.partition),
            "grouping": [list(g) for g in sc.controller.grouping],
        },
    }


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
    return Scenario(
        horizon=obj["horizon"],
        reference=specs("reference"),
        input_disturbance=specs("input_disturbance"),
        measurement_noise=specs("measurement_noise"),
        command_disturbance=specs("command_disturbance"),
        seed=obj["seed"],
        plant=sstate.ss_from_obj(obj["plant"]),
        controller=controller,
    )


def save_scenario(path: str, sc: Scenario) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(scenario_to_obj(sc), indent=2))


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_obj(json.load(fh))
