"""Exact-style arithmetic for real rational matrices in one frequency variable.

Polynomials are stored with ascending real coefficients, so ``(c0, c1, c2)``
means ``c0 + c1*x + c2*x**2``.  Rational functions keep a monic denominator
and never cancel: a common factor stays until a realization removes it
(``sstate.tfm_to_ss``, ``minimal`` and ``ss_to_tf`` decide it by staircase
rank).  Matrices carry a stability domain tag so that discrete and continuous
objects never mix silently.  ``RationalMatrix.support`` gives the boolean
mask of nonzero entries, the oracle for the realizations' supports.

Pole computations for whole matrices live in the state-space layer: the
eigenvalues of the minimal realization ``sstate.tfm_to_ss`` are the poles
with their multiplicities, which is the only reliable way to get them right
without a symbolic Smith-McMillan form.
"""

from __future__ import annotations

import enum
import json
import math
import numbers

import numpy as np

from .errors import (
    DimensionMismatch,
    DivisionByZeroFunction,
    DomainMismatch,
    EvaluationAtPole,
    InvariantViolation,
)
from .tolerances import COEFF_ZERO_REL


class StabilityDomain(enum.Enum):
    """Which half of the frequency plane counts as stable."""

    CONTINUOUS = "continuous"
    DISCRETE = "discrete"


def _strip(coeffs) -> tuple[float, ...]:
    """Canonicalise a coefficient sequence: zap tiny entries, drop high-order zeros.

    Plain float arithmetic on a list, the same IEEE operations as the array
    form ``np.where(|c| <= tol, 0, c)`` with tol = COEFF_ZERO_REL (1 + max |c|):
    a NaN makes tol NaN and zaps nothing, as numpy's max propagates it.
    """
    if isinstance(coeffs, (list, tuple)):
        cs = [float(c) for c in coeffs]
    else:
        cs = np.asarray(coeffs, dtype=float).ravel().tolist()
    if not cs:
        return (0.0,)
    mags = [abs(c) for c in cs]
    total = sum(mags)  # NaN exactly when some magnitude is NaN; Python's max skips those
    tol = COEFF_ZERO_REL * (1.0 + (max(mags) if total == total else total))
    cs = [0.0 if m <= tol else c for c, m in zip(cs, mags)]
    last = len(cs) - 1
    while last > 0 and cs[last] == 0.0:
        last -= 1
    return tuple(cs[: last + 1])


class Polynomial:
    """Real polynomial with ascending coefficients and tolerance-based zero stripping."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _strip(coeffs)

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial((0.0,))

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1.0,))

    @property
    def degree(self) -> float:
        """Degree; the zero polynomial gets -inf."""
        if self.is_zero:
            return -math.inf
        return float(len(self.coeffs) - 1)

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    @property
    def lead(self) -> float:
        return self.coeffs[-1]

    def roots(self) -> np.ndarray:
        """Companion-matrix roots (empty for constants)."""
        if self.degree < 1:
            return np.zeros(0, dtype=complex)
        return np.roots(np.asarray(self.coeffs[::-1], dtype=float))

    def __call__(self, x):
        acc = 0.0 + 0.0j if isinstance(x, complex) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = np.zeros(n)
        out[: len(a)] += a
        out[: len(b)] += b
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    def scaled(self, s: float) -> "Polynomial":
        return Polynomial(tuple(c * s for c in self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs})"


class RationalFunction:
    """Quotient of two real polynomials with a monic denominator.

    Sums and products keep every factor of their operands; nothing is
    cancelled here.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1.0,)):
        n = num if isinstance(num, Polynomial) else Polynomial(num)
        d = den if isinstance(den, Polynomial) else Polynomial(den)
        if d.is_zero:
            raise DivisionByZeroFunction("denominator is the zero polynomial")
        if n.is_zero:
            self.num = Polynomial.zero()
            self.den = Polynomial.one()
            return
        lead = d.lead
        self.num = n.scaled(1.0 / lead)
        self.den = d.scaled(1.0 / lead)

    @staticmethod
    def const(c: float) -> "RationalFunction":
        return RationalFunction((float(c),))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree

    def gain_at_infinity(self) -> float:
        """Limit at |x| -> inf for proper functions."""
        if self.num.degree < self.den.degree:
            return 0.0
        if self.num.degree == self.den.degree:
            return self.num.lead / self.den.lead
        raise ValueError("improper rational function has no finite gain at infinity")

    def __call__(self, x):
        dv = self.den(x)
        scale = sum(abs(c) for c in self.den.coeffs) * max(1.0, abs(x)) ** max(
            0.0, self.den.degree
        )
        if abs(dv) <= 1e-12 * (scale + 1.0):
            raise EvaluationAtPole(f"denominator vanishes at {x}")
        return self.num(x) / dv

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # shared denominator (the common case when accumulating matrix
        # products): adding numerators avoids squaring the degree
        if self.den.coeffs == other.den.coeffs:
            return RationalFunction(self.num + other.num, self.den)
        num = self.num * other.den + other.num * self.den
        return RationalFunction(num, self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if self.is_zero or other.is_zero:
            return RationalFunction.const(0.0)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __repr__(self) -> str:
        return f"RationalFunction({self.num.coeffs}, {self.den.coeffs})"


# Batched evaluations run over blocks of points that hold about this many
# matrix entries each, so a long frequency grid costs its output array plus
# block-sized temporaries rather than several grid-sized ones.
EVAL_BLOCK_ENTRIES = 8192


def _point_blocks(count: int, entries_per_point: int) -> list[slice]:
    """Consecutive slices of ``count`` points, about EVAL_BLOCK_ENTRIES entries each."""
    step = max(1, EVAL_BLOCK_ENTRIES // max(1, entries_per_point))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


class RationalMatrix:
    """Dense matrix of rational functions plus a stability-domain tag."""

    __slots__ = ("rows", "cols", "entries", "domain")

    def __init__(self, entries, domain: StabilityDomain):
        rows = []
        width = None
        for r in entries:
            row = tuple(e if isinstance(e, RationalFunction) else RationalFunction(*e) for e in r)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DimensionMismatch("ragged entry rows")
            rows.append(row)
        if not rows or width == 0:
            raise DimensionMismatch("matrix must have at least one row and column")
        self.entries = tuple(rows)
        self.rows = len(rows)
        self.cols = width
        self.domain = domain

    # ---- constructors -------------------------------------------------
    @staticmethod
    def identity(n: int, domain: StabilityDomain) -> "RationalMatrix":
        return RationalMatrix.scalar(RationalFunction.const(1.0), n, domain)

    @staticmethod
    def zeros(rows: int, cols: int, domain: StabilityDomain) -> "RationalMatrix":
        z = RationalFunction.const(0.0)
        return RationalMatrix([[z] * cols for _ in range(rows)], domain)

    @staticmethod
    def scalar(f: RationalFunction, n: int, domain: StabilityDomain) -> "RationalMatrix":
        """f times the identity."""
        return RationalMatrix.diag([f] * n, domain)

    @staticmethod
    def diag(funcs, domain: StabilityDomain) -> "RationalMatrix":
        """The diagonal matrix of ``funcs``, zero off the diagonal."""
        funcs, z = list(funcs), RationalFunction.const(0.0)
        return RationalMatrix(
            [[f if i == j else z for j in range(len(funcs))] for i, f in enumerate(funcs)], domain)

    # ---- structure ----------------------------------------------------
    def entry(self, i: int, j: int) -> RationalFunction:
        return self.entries[i][j]

    def row(self, i: int) -> "RationalMatrix":
        return RationalMatrix([self.entries[i]], self.domain)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_domain(other)
        if self.rows != other.rows:
            raise DimensionMismatch("hstack needs equal row counts")
        return RationalMatrix(
            [self.entries[i] + other.entries[i] for i in range(self.rows)], self.domain
        )

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_domain(other)
        if self.cols != other.cols:
            raise DimensionMismatch("vstack needs equal column counts")
        return RationalMatrix(self.entries + other.entries, self.domain)

    def _check_domain(self, other: "RationalMatrix"):
        if self.domain is not other.domain:
            raise DomainMismatch("mixing discrete and continuous matrices")

    # ---- arithmetic ----------------------------------------------------
    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_domain(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return RationalMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
            self.domain,
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(
            [[-e for e in row] for row in self.entries], self.domain
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_domain(other)
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        out = []
        for i in range(self.rows):
            out_row = []
            for j in range(other.cols):
                acc = RationalFunction.const(0.0)
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero or b.is_zero:
                        continue
                    acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return RationalMatrix(out, self.domain)

    # ---- analysis -------------------------------------------------------
    @property
    def is_proper(self) -> bool:
        return all(e.is_proper for row in self.entries for e in row)

    def gain_at_infinity(self) -> np.ndarray:
        return np.array(
            [[e.gain_at_infinity() for e in row] for row in self.entries], dtype=float
        )

    def eval(self, point: complex) -> np.ndarray:
        """Evaluate entrywise; raises EvaluationAtPole on a vanishing denominator."""
        return self.eval_many([point])[0]

    def eval_many(self, points) -> np.ndarray:
        """Evaluate entrywise at every point, shape (K, rows, cols).

        The coefficients are padded into one numerator and one denominator
        array once, and Horner's rule runs on a whole block of points at a
        time.  The pole test is ``RationalFunction.__call__``'s;
        EvaluationAtPole names the first offending point in the given order.
        """
        x = np.asarray(points, dtype=complex).ravel()
        ents = [e for row in self.entries for e in row]
        shape = (self.rows, self.cols)

        def padded(polys):
            width = max(len(q.coeffs) for q in polys)
            arr = np.array([q.coeffs + (0.0,) * (width - len(q.coeffs)) for q in polys])
            return arr.T.reshape((width,) + shape)

        def horner(coeffs, xb):
            acc = np.zeros(xb.shape[:1] + shape, dtype=complex)
            for c in coeffs[::-1]:
                acc *= xb
                acc += c
            return acc

        num, den = padded([e.num for e in ents]), padded([e.den for e in ents])
        deg = np.array([len(e.den.coeffs) - 1 for e in ents], dtype=float).reshape(shape)
        den_abs = np.abs(den).sum(axis=0)
        out = np.empty((x.size,) + shape, dtype=complex)
        for blk in _point_blocks(x.size, self.rows * self.cols):
            xb = x[blk, None, None]
            dv = horner(den, xb)
            at_pole = np.abs(dv) <= 1e-12 * (den_abs * np.maximum(1.0, np.abs(xb)) ** deg + 1.0)
            if at_pole.any():
                first = complex(xb.ravel()[np.argmax(at_pole.any(axis=(1, 2)))])
                raise EvaluationAtPole(f"denominator vanishes at {first}")
            np.divide(horner(num, xb), dv, out=out[blk])
        return out

    def support(self) -> np.ndarray:
        """Boolean mask of the entries that are not the zero function."""
        return np.array([[not e.is_zero for e in row] for row in self.entries], dtype=bool)


def probe_points(domain: StabilityDomain, count: int = 20, avoid=()) -> list[complex]:
    """Deterministic probe points for residual tests of rational identities.

    Discrete: a circle of radius 2 (clear of the closed unit disk); continuous:
    the vertical line Re = 1.  A point within 1e-6 of an entry of `avoid`
    moves by 0.0137 + 0.0071j until it clears them all, at most 50 times.
    """
    if domain is StabilityDomain.DISCRETE:
        thetas = (2.0 * math.pi * (k + 0.37) / count for k in range(count))
        z = np.array([2.0 * complex(math.cos(t), math.sin(t)) for t in thetas], dtype=complex)
    else:
        z = np.array([complex(1.0, -4.75 + 0.5 * k) for k in range(count)], dtype=complex)
    avoid = np.asarray(avoid, dtype=complex).ravel()
    for _ in range(50):
        near = (np.abs(z[:, None] - avoid) < 1e-6).any(axis=1)
        if not near.any():
            break
        z[near] += complex(0.0137, 0.0071)
    return z.tolist()


# ---- JSON interchange ----------------------------------------------------

def ratmat_to_obj(a: RationalMatrix) -> dict:
    return {
        "domain": a.domain.value,
        "rows": a.rows,
        "cols": a.cols,
        "entries": [
            [{"num": list(e.num.coeffs), "den": list(e.den.coeffs)} for e in row]
            for row in a.entries
        ],
    }


def _domain_from_obj(value, invariant: str) -> StabilityDomain:
    """The stability domain a file names, or ``invariant`` raised."""
    try:
        return StabilityDomain(value)
    except ValueError:
        raise InvariantViolation(invariant, f"unknown domain {value!r}") from None


def _floats_from_obj(value, invariant: str) -> np.ndarray:
    """A JSON number or nested list of numbers as a float array; a boolean, a
    string, an object or null anywhere in it raises ``invariant`` instead of
    being read as a number or failing inside numpy."""
    cells = [value]
    while cells:
        cell = cells.pop()
        if isinstance(cell, list):
            cells.extend(cell)
        elif isinstance(cell, bool) or not isinstance(cell, numbers.Real):
            raise InvariantViolation(invariant, f"{cell!r} is not a number")
    return np.asarray(value, dtype=float)


def ratmat_from_obj(obj: dict) -> RationalMatrix:
    rows = obj.get("entries") if isinstance(obj, dict) else None
    is_cell = lambda c: isinstance(c, dict) and {"num", "den"} <= c.keys()
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(map(is_cell, row)) for row in rows):
        raise InvariantViolation("ratmat-fields-present", "entries are not rows of num/den cells")
    missing = [key for key in ("domain", "rows", "cols") if key not in obj]
    if missing:
        raise InvariantViolation("ratmat-fields-present", f"missing {missing}")
    if any(type(obj[key]) is not int for key in ("rows", "cols")):
        raise InvariantViolation("ratmat-fields-present", "rows and cols must be integers, "
                                 f"got {obj['rows']!r} and {obj['cols']!r}")
    domain = _domain_from_obj(obj["domain"], "ratmat-fields-present")
    coeffs = [_floats_from_obj(c[k], "ratmat-finite") for row in rows for c in row
              for k in ("num", "den")]
    if any(c.ndim > 1 for c in coeffs):
        raise InvariantViolation("ratmat-fields-present", "a coefficient list is nested")
    if not all(np.isfinite(c).all() for c in coeffs):
        raise InvariantViolation("ratmat-finite", "a coefficient is NaN or infinite")
    entries = [[RationalFunction(cell["num"], cell["den"]) for cell in row] for row in rows]
    mat = RationalMatrix(entries, domain)
    if [mat.rows, mat.cols] != [obj["rows"], obj["cols"]]:
        raise DimensionMismatch("declared shape does not match entries")
    return mat


def save_ratmat(a: RationalMatrix, path: str):
    with open(path, "w") as fh:
        fh.write(json.dumps(ratmat_to_obj(a), indent=1))


def load_ratmat(path: str) -> RationalMatrix:
    with open(path) as fh:
        return ratmat_from_obj(json.load(fh))
