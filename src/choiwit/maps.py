"""The three-parameter map family on 3x3 matrices and its one-parameter slice.

For nonnegative weights (a, b, c) with a + b + c > 0 the map sends X to

    (1 / (a+b+c)) * [diag(a x00 + b x11 + c x22,
                          c x00 + a x11 + b x22,
                          b x00 + c x11 + a x22),  off-diagonal: -x_ij]

The one-parameter slice of interest satisfies 0 <= a <= 1, a + b + c = 2 and
b c = (1 - a)^2, parameterized by an angle alpha in [pi/3, 5*pi/3], and a
triple is on it within ON_FAMILY_TOL.  Away from the a = 1 boundary the
slice is governed by the single positive scalar t = c / (1 - a).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryCaseError, OutOfRangeError
from .linalg import _as_complex

ALPHA_MIN = math.pi / 3
ALPHA_MAX = 5 * math.pi / 3

#: Absolute threshold below which 1 - a is treated as zero (the t = c/(1-a)
#: boundary).  Angle endpoints hit a = 1 exactly in closed form but only up
#: to roundoff in floating point.
BOUNDARY_TOL = 1e-12

#: The family-membership tolerance of family_violation, on_family_check and the kernel's guard.
ON_FAMILY_TOL = 1e-8

#: pi - math.pi, rounded to a float: math.pi + _PI_LO is pi to about 1e-32.
_PI_LO = 1.2246467991473532e-16

# Comparison slack for the positivity predicate.  Family points sit exactly
# on the boundary of both inequalities, so roundoff of order 1e-16 must not
# flip the answer.
_PREDICATE_SLACK = 1e-12


@dataclass(frozen=True)
class MapParams:
    """Nonnegative weight triple (a, b, c) with a + b + c > 0."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        weights = {}
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            value = weights[name] = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")
        self.__dict__.update(weights)
        if self.a + self.b + self.c <= 0:
            raise ValueError("a + b + c must be positive")

    @property
    def total(self) -> float:
        return self.a + self.b + self.c


@dataclass(frozen=True)
class FamilyPoint:
    """A point of the one-parameter slice; t is None on the a = 1 boundary."""

    params: MapParams
    alpha: float | None
    t: float | None

    @property
    def is_boundary(self) -> bool:
        return self.t is None


@dataclass(frozen=True)
class PositivitySearchResult:
    """Outcome of the numerical positivity falsifier."""

    min_value: float
    argmin: np.ndarray


def _weight_rows(p: MapParams) -> np.ndarray:
    """The weight matrix W of p: the diagonal of the map's output is W @ diag(X) / s."""
    return np.array([[p.a, p.b, p.c], [p.c, p.a, p.b], [p.b, p.c, p.a]])


def phi_apply(p: MapParams, x) -> np.ndarray:
    """Apply the map with weights p to a 3x3 matrix.

    ArithmeticError is raised when an output entry overflows the float range,
    as it can at a weight sum near either float limit.
    """
    xm = _as_complex(x, (3, 3), "x")
    s = p.total
    with np.errstate(over="ignore", invalid="ignore"):
        out = -xm / s
        out[np.diag_indices(3)] = (_weight_rows(p) @ np.diag(xm)) / s
    if not np.isfinite(out).all():
        raise ArithmeticError("map output overflows the float range")
    return out


def is_positive_predicate(p: MapParams) -> bool:
    """Printed positivity condition: a+b+c >= 2 and (a <= 2 implies bc >= (1-a)^2).

    Comparisons carry a 1e-12 slack so points sitting exactly on the
    boundary of either inequality are not rejected by roundoff.  The
    a in (1, 2] corner of this condition disagrees with the numerical
    falsifier (see positivity_search); the condition is kept as stated.
    """
    if p.total < 2.0 - _PREDICATE_SLACK:
        return False
    if p.a <= 2.0 and p.b * p.c < (1.0 - p.a) ** 2 - _PREDICATE_SLACK:
        return False
    return True


def _min_eigs(shifted: np.ndarray, shift: float, angles: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of diag(W q + q) - x x^T, (a+b+c) times the map on |x><x|.

    x = (cos t1, sin t1 cos t2, sin t1 sin t2) at the polar angles (2, ...), and q = x^2
    is one C-contiguous (3, ...) array of planes from the cosines of 2 t1 and 2 t2.  The
    trace is a+b+c for every unit x, so the cubic is solved about the constant ``shift``,
    (a+b+c)/3: ``shifted`` = W + I - shift*J maps q to the diagonal h of diag(h) - x x^T,
    whose determinant is h0 h1 h2 - sum_i q_i prod_{j != i} h_j.
    """
    half = 0.5 * np.cos(2.0 * angles)
    cos2, sin2 = 0.5 + half, 0.5 - half
    q = np.array([cos2[0], sin2[0] * cos2[1], sin2[0] * sin2[1]])
    h = (shifted @ q.reshape(3, -1)).reshape(q.shape)
    d = h - q
    # The squared shifted matrix's trace; 2 sum_{i<j} q_i q_j as q(1 - q), >= 0 term by term.
    spread = np.add.reduce(d * d + q * (1.0 - q))
    others = h[[1, 0, 0]] * h[[2, 2, 1]]
    det = h[0] * others[0] - np.add.reduce(q * others)
    radius = np.sqrt(spread / 6.0)
    cos3 = np.minimum(np.maximum(det / (2.0 * np.where(radius > 0, radius, 1.0) ** 3), -1.0), 1.0)
    return shift + 2.0 * radius * np.cos(np.arccos(cos3) / 3.0 + 2.0 * math.pi / 3.0)


# Unit moves of the two angles, (angle, move, 1), scored together in each sweep.
_MOVES = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])[:, :, None]


def positivity_search(p: MapParams, budget: int, seed: int) -> PositivitySearchResult:
    """Numerically falsify positivity of the map with weights p.

    Minimizes the smallest eigenvalue of the map applied to rank-one
    projectors |x><x| over unit vectors x in C^3.  The map sends |x><x| to
    (diag(W q + q) - x x^dagger)/(a+b+c) with q_i = |x_i|^2, which diagonal
    phase unitaries carry to the same matrix for the phase-free vector
    sqrt(q); so only the 2-simplex of q is searched, through real
    nonnegative x.  Runs ``budget`` seeded random starts in parallel, each
    refined by coordinate descent on the two polar angles of x with a
    geometrically shrinking step; each sweep scores all four moves of every
    start at once in closed form and keeps the best improving one.  The
    result is deterministic for fixed (budget, seed).  ``argmin`` has real
    nonnegative entries, and ``min_value`` is the smallest eigenvalue of
    phi_apply(p, |argmin><argmin|) recomputed by np.linalg.eigvalsh.

    A warning is emitted when the outcome contradicts the printed
    positivity condition in either direction; the search never decides
    which side is right.  ArithmeticError is raised, with no numpy warning,
    when a value of the descent overflows or is not a number, as it can
    for weights of about 1e103 and above.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rng = np.random.default_rng(seed)
    shift = p.total / 3.0
    angles = rng.uniform(0.0, math.pi / 2, size=(budget, 2)).T.copy()
    starts = np.arange(budget)
    step = 0.4
    try:
        with np.errstate(over="raise", invalid="raise"):
            shifted = _weight_rows(p) + np.eye(3) - shift
            best = _min_eigs(shifted, shift, angles)
            for _ in range(30):
                trials = angles[:, None] + step * _MOVES
                values = _min_eigs(shifted, shift, trials)
                move = np.argmin(values, axis=0)
                value = values[move, starts]
                angles = np.where(value < best, trials[:, move, starts], angles)
                best = np.minimum(best, value)
                step *= 0.65
    except FloatingPointError as exc:
        raise ArithmeticError("falsifier values overflow the float range") from exc
    # Descent can carry the angles out of [0, pi/2]; sign flips of entries
    # do not change the spectrum, so the canonical gauge is |x|.
    t1, t2 = angles[:, np.argmin(best)].tolist()
    x = np.abs(np.array([math.cos(t1), math.sin(t1) * math.cos(t2), math.sin(t1) * math.sin(t2)]))
    min_value = float(np.linalg.eigvalsh(phi_apply(p, np.outer(x, x)))[0])

    predicate = is_positive_predicate(p)
    if predicate and min_value < -1e-9:
        warnings.warn(
            f"positivity condition holds for (a,b,c)=({p.a:g},{p.b:g},{p.c:g}) "
            f"but the falsifier found a violation of {min_value:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    elif not predicate and min_value >= -1e-9:
        warnings.warn(
            f"positivity condition fails for (a,b,c)=({p.a:g},{p.b:g},{p.c:g}) "
            f"but no violation was found within budget {budget}",
            RuntimeWarning,
            stacklevel=2,
        )
    return PositivitySearchResult(min_value=min_value, argmin=x)


def family_weights(alphas) -> np.ndarray:
    """Weights (a, b, c) of the family points at angles in [pi/3, 5*pi/3], as an (N, 3) array.

    Half-angle forms, free of cancellation at both ends: b = (4/3) s^2, c = (4/3) r^2 and
    1 - a = (4/3) s r, with one math.sin each for s = sin((alpha - pi/3)/2) and
    r = sin((5*pi/3 - alpha)/2).  On the middle third [2pi/3, 4pi/3], where 1 - (4/3) s r
    cancels towards a = 0 at pi, a = (4/3) sin^2((pi - alpha)/2) instead, with pi - alpha
    as (math.pi - alpha) + _PI_LO: the difference is exact there (Sterbenz), and _PI_LO is
    pi - math.pi rounded, so every printed digit of a holds up to pi.  The first angle out
    of range raises OutOfRangeError before any weight is computed; a row off the family, ArithmeticError.
    """
    x = np.asarray(alphas, dtype=float).reshape(-1)
    inside = (ALPHA_MIN - 1e-12 <= x) & (x <= ALPHA_MAX + 1e-12)
    if not inside.all():
        raise OutOfRangeError(f"alpha must lie in [pi/3, 5*pi/3], got {x[np.argmin(inside)].item()!r}")
    half = np.array([x - ALPHA_MIN, ALPHA_MAX - x]) / 2
    s, r = np.array([math.sin(v) for v in half.ravel().tolist()]).reshape(2, len(x))
    w = np.empty((len(x), 3))
    w[:, 0] = 1.0 - (4.0 / 3.0) * s * r
    middle = np.flatnonzero((2 * math.pi / 3 <= x) & (x <= 4 * math.pi / 3))
    u = np.array([math.sin(v) for v in (((math.pi - x[middle]) + _PI_LO) / 2).tolist()])
    w[middle, 0] = (4.0 / 3.0) * u * u
    w[:, 1] = (4.0 / 3.0) * s * s
    w[:, 2] = (4.0 / 3.0) * r * r
    off = _family_breaks(w, 1e-12) > 0
    if off.any():
        raise ArithmeticError(f"family conditions violated at alpha={x[np.argmax(off)].item()!r}")
    return w


def family_from_alpha(alpha: float) -> FamilyPoint:
    """Family point for an angle alpha in [pi/3, 5*pi/3]: family_weights of one angle."""
    alpha = float(alpha)
    a, b, c = family_weights([alpha])[0].tolist()
    t = None if a >= 1.0 - BOUNDARY_TOL else c / (1.0 - a)
    return FamilyPoint(params=MapParams(a, b, c), alpha=alpha, t=t)


def _family_breaks(weights: np.ndarray, tol: float) -> np.ndarray:
    """The first family condition each row (a, b, c) of an (N, 3) array breaks at tol.

    The conditions, numbered 1 to 3 in the order they are checked, are
    a+b+c = 2, a <= 1 and sqrt(bc) = |1-a|; 0 marks a row on the family.
    The square root keeps the last test on the scale of 1 - a: bc against
    (1-a)^2 would pass any triple within about sqrt(tol) of a = 1.
    """
    a, b, c = weights.T
    with np.errstate(all="ignore"):  # overflow gives inf, which breaks its condition
        sum_off = abs(a + b + c - 2.0) > tol
        above_one = a > 1.0 + tol
        product_off = abs(np.sqrt(b * c) - abs(1.0 - a)) > tol
    return np.where(sum_off, 1, np.where(above_one, 2, np.where(product_off, 3, 0)))


def family_violation(p: MapParams) -> str | None:
    """The first family condition p breaks at ON_FAMILY_TOL, or None on the family.

    The conditions are a+b+c = 2, a <= 1 and sqrt(bc) = |1-a|, checked in
    that order; the returned text names the failing one with its values.
    """
    broken = _family_breaks(np.array([[p.a, p.b, p.c]]), ON_FAMILY_TOL)[0]
    if broken == 1:
        return f"a+b+c = {p.total!r} differs from 2"
    if broken == 2:
        return f"a = {p.a!r} exceeds 1"
    if broken == 3:
        return f"b*c = {p.b * p.c!r} differs from (1-a)^2 = {(1 - p.a) ** 2!r}"
    return None


def on_family_check(p: MapParams) -> bool:
    """True when a+b+c = 2, a <= 1 and sqrt(bc) = |1-a| all hold within ON_FAMILY_TOL."""
    return family_violation(p) is None


def t_param(p: MapParams) -> float:
    """The scalar t = c / (1 - a); undefined on the a = 1 boundary."""
    if p.a >= 1.0 - BOUNDARY_TOL:
        raise BoundaryCaseError(f"t = c/(1-a) is undefined at a={p.a!r}")
    return p.c / (1.0 - p.a)


def identity_residuals(p: MapParams) -> tuple[float, float]:
    """Residuals (a + b*t - 1, c + a*t - t) of the two family identities.

    Both vanish exactly when p lies on the one-parameter slice; off the
    slice the raw magnitudes are returned so callers can assert on them.
    """
    t = t_param(p)
    return (p.a + p.b * t - 1.0, p.c + p.a * t - t)
