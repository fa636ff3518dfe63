"""Exact-style arithmetic for real rational matrices in one frequency variable.

Polynomials are stored with ascending real coefficients, so ``(c0, c1, c2)``
means ``c0 + c1*x + c2*x**2``.  Rational functions keep a monic denominator
and never cancel: a common factor stays until a realization removes it
(``sstate.tfm_to_ss``, ``minimal`` and ``ss_to_tf`` decide it by staircase
rank).  Matrices carry a stability domain tag so that discrete and continuous
objects never mix silently.

Pole computations for whole matrices live in the state-space layer
(``sstate.tfm_unstable_poles``), which is the only reliable way to get
multiplicities right without a symbolic Smith-McMillan form.
"""

from __future__ import annotations

import enum
import json
import math

import numpy as np

from .errors import (
    DimensionMismatch,
    DivisionByZeroFunction,
    DomainMismatch,
    EvaluationAtPole,
    NotSquare,
)
from .tolerances import COEFF_ZERO_REL


class StabilityDomain(enum.Enum):
    """Which half of the frequency plane counts as stable."""

    CONTINUOUS = "continuous"
    DISCRETE = "discrete"


def _strip(coeffs) -> tuple[float, ...]:
    """Canonicalise a coefficient sequence: zap tiny entries, drop high-order zeros."""
    arr = np.asarray(coeffs, dtype=float).ravel()
    if arr.size == 0:
        return (0.0,)
    tol = COEFF_ZERO_REL * (1.0 + np.abs(arr).max())
    arr = np.where(np.abs(arr) <= tol, 0.0, arr)
    last = arr.size - 1
    while last > 0 and arr[last] == 0.0:
        last -= 1
    return tuple(float(c) for c in arr[: last + 1])


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

    @staticmethod
    def from_roots(roots, lead: float = 1.0) -> "Polynomial":
        """Build lead * prod (x - r).  Complex roots must come in conjugate pairs."""
        roots = list(roots)
        if not roots:
            return Polynomial((lead,))
        desc = np.atleast_1d(np.poly(np.asarray(roots, dtype=complex)))
        if np.abs(desc.imag).max() > 1e-6 * (1.0 + np.abs(desc.real).max()):
            raise ValueError("root multiset is not closed under conjugation")
        return Polynomial((desc.real * lead)[::-1])

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

    @property
    def is_strictly_proper(self) -> bool:
        return self.num.degree < self.den.degree

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


class SparsityPattern:
    """Boolean support mask for a rational matrix."""

    __slots__ = ("rows", "cols", "mask")

    def __init__(self, mask):
        m = np.asarray(mask, dtype=bool)
        if m.ndim != 2:
            raise DimensionMismatch("mask must be two-dimensional")
        self.rows, self.cols = int(m.shape[0]), int(m.shape[1])
        self.mask = tuple(tuple(bool(v) for v in row) for row in m)

    @staticmethod
    def diagonal(n: int) -> "SparsityPattern":
        return SparsityPattern(np.eye(n, dtype=bool))

    def with_diagonal(self) -> "SparsityPattern":
        m = np.asarray(self.mask, dtype=bool)
        if self.rows != self.cols:
            raise NotSquare("diagonal completion needs a square pattern")
        return SparsityPattern(m | np.eye(self.rows, dtype=bool))

    def __eq__(self, other) -> bool:
        return isinstance(other, SparsityPattern) and self.mask == other.mask

    def __repr__(self) -> str:
        return f"SparsityPattern({np.asarray(self.mask, dtype=int).tolist()})"


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
        return RationalMatrix(
            [
                [RationalFunction.const(1.0 if i == j else 0.0) for j in range(n)]
                for i in range(n)
            ],
            domain,
        )

    @staticmethod
    def zeros(rows: int, cols: int, domain: StabilityDomain) -> "RationalMatrix":
        z = RationalFunction.const(0.0)
        return RationalMatrix([[z] * cols for _ in range(rows)], domain)

    @staticmethod
    def scalar(f: RationalFunction, n: int, domain: StabilityDomain) -> "RationalMatrix":
        """f times the identity."""
        z = RationalFunction.const(0.0)
        return RationalMatrix(
            [[f if i == j else z for j in range(n)] for i in range(n)], domain
        )

    @staticmethod
    def diag(funcs, domain: StabilityDomain) -> "RationalMatrix":
        funcs = list(funcs)
        z = RationalFunction.const(0.0)
        n = len(funcs)
        return RationalMatrix(
            [[funcs[i] if i == j else z for j in range(n)] for i in range(n)], domain
        )

    @staticmethod
    def from_const(mat, domain: StabilityDomain) -> "RationalMatrix":
        arr = np.asarray(mat, dtype=float)
        return RationalMatrix(
            [[RationalFunction.const(v) for v in row] for row in arr], domain
        )

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

    def scale(self, f: RationalFunction) -> "RationalMatrix":
        return RationalMatrix(
            [[f * e for e in row] for row in self.entries], self.domain
        )

    # ---- analysis -------------------------------------------------------
    @property
    def is_proper(self) -> bool:
        return all(e.is_proper for row in self.entries for e in row)

    @property
    def is_strictly_proper(self) -> bool:
        return all(e.is_strictly_proper for row in self.entries for e in row)

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

    def conforms(self, pattern: SparsityPattern) -> bool:
        """True when every entry outside the pattern support is the zero function."""
        if (self.rows, self.cols) != (pattern.rows, pattern.cols):
            raise DimensionMismatch("pattern shape mismatch")
        for i in range(self.rows):
            for j in range(self.cols):
                if not pattern.mask[i][j] and not self.entries[i][j].is_zero:
                    return False
        return True

    def support(self) -> SparsityPattern:
        return SparsityPattern(
            [[not e.is_zero for e in row] for row in self.entries]
        )


def probe_points(domain: StabilityDomain, count: int = 20, avoid=()) -> list[complex]:
    """Deterministic probe points for residual tests of rational identities.

    Discrete: a circle of radius 2 (clear of the closed unit disk); continuous:
    the vertical line Re = 1.  Points near entries of `avoid` get nudged.
    """
    avoid = np.asarray(avoid, dtype=complex).ravel()
    pts: list[complex] = []
    for k in range(count):
        if domain is StabilityDomain.DISCRETE:
            theta = 2.0 * math.pi * (k + 0.37) / count
            z = 2.0 * complex(math.cos(theta), math.sin(theta))
        else:
            z = complex(1.0, -4.75 + 0.5 * k)
        shift = 0
        while np.any(np.abs(z - avoid) < 1e-6) and shift < 50:
            z += complex(0.0137, 0.0071)
            shift += 1
        pts.append(z)
    return pts


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


def ratmat_from_obj(obj: dict) -> RationalMatrix:
    domain = StabilityDomain(obj["domain"])
    entries = [
        [RationalFunction(cell["num"], cell["den"]) for cell in row]
        for row in obj["entries"]
    ]
    mat = RationalMatrix(entries, domain)
    if mat.rows != int(obj["rows"]) or mat.cols != int(obj["cols"]):
        raise DimensionMismatch("declared shape does not match entries")
    return mat


def save_ratmat(a: RationalMatrix, path: str):
    with open(path, "w") as fh:
        json.dump(ratmat_to_obj(a), fh, indent=1)


def load_ratmat(path: str) -> RationalMatrix:
    with open(path) as fh:
        return ratmat_from_obj(json.load(fh))
