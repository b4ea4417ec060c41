"""The three-parameter map family on 3x3 matrices and its one-parameter slice.

For nonnegative weights (a, b, c) with a + b + c > 0 the map sends X to

    (1 / (a+b+c)) * [diag(a x00 + b x11 + c x22,
                          c x00 + a x11 + b x22,
                          b x00 + c x11 + a x22),  off-diagonal: -x_ij]

The one-parameter slice of interest satisfies 0 <= a <= 1, a + b + c = 2 and
b c = (1 - a)^2, parameterized by an angle alpha in [pi/3, 5*pi/3].  Away
from the a = 1 boundary the slice is governed by the single positive scalar
t = c / (1 - a).
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
        for name in ("a", "b", "c"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")
            object.__setattr__(self, name, value)
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


def phi_apply(p: MapParams, x) -> np.ndarray:
    """Apply the map with weights p to a 3x3 matrix."""
    xm = _as_complex(x, (3, 3), "x")
    s = p.total
    out = -xm / s
    d = np.diag(xm)
    weights = np.array(
        [[p.a, p.b, p.c], [p.c, p.a, p.b], [p.b, p.c, p.a]], dtype=complex
    )
    out[np.diag_indices(3)] = (weights @ d) / s
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


def _unit_vectors(angles: np.ndarray) -> np.ndarray:
    """Map angle rows [theta1, theta2, phi1, phi2] to unit vectors in C^3.

    The first component is kept real, which fixes the global phase; the two
    polar angles set the magnitudes and the two phases are relative.
    """
    t1, t2, p1, p2 = angles[:, 0], angles[:, 1], angles[:, 2], angles[:, 3]
    x = np.empty((angles.shape[0], 3), dtype=complex)
    x[:, 0] = np.cos(t1)
    x[:, 1] = np.sin(t1) * np.cos(t2) * np.exp(1j * p1)
    x[:, 2] = np.sin(t1) * np.sin(t2) * np.exp(1j * p2)
    return x


def _min_eig_of_map_on_projectors(p: MapParams, x: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the map applied to |x><x|, batched over rows of x."""
    rho = x[:, :, None] * x[:, None, :].conj()
    s = p.total
    out = -rho / s
    d = rho[:, (0, 1, 2), (0, 1, 2)]
    out[:, 0, 0] = (p.a * d[:, 0] + p.b * d[:, 1] + p.c * d[:, 2]) / s
    out[:, 1, 1] = (p.c * d[:, 0] + p.a * d[:, 1] + p.b * d[:, 2]) / s
    out[:, 2, 2] = (p.b * d[:, 0] + p.c * d[:, 1] + p.a * d[:, 2]) / s
    return np.linalg.eigvalsh(out)[:, 0]


def positivity_search(p: MapParams, budget: int, seed: int) -> PositivitySearchResult:
    """Numerically falsify positivity of the map with weights p.

    Minimizes the smallest eigenvalue of the map applied to rank-one
    projectors |x><x| over unit vectors x in C^3.  Runs ``budget`` seeded
    random starts in parallel, each refined by coordinate descent on the
    four free angles of x with a geometrically shrinking step.  The result
    is deterministic for fixed (budget, seed).

    A warning is emitted when the outcome contradicts the printed
    positivity condition in either direction; the search never decides
    which side is right.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rng = np.random.default_rng(seed)
    angles = np.concatenate(
        [
            rng.uniform(0.0, math.pi / 2, size=(budget, 2)),
            rng.uniform(0.0, 2 * math.pi, size=(budget, 2)),
        ],
        axis=1,
    )
    best = _min_eig_of_map_on_projectors(p, _unit_vectors(angles))
    step = 0.4
    for _ in range(30):
        for coord in range(4):
            for sign in (1.0, -1.0):
                trial = angles.copy()
                trial[:, coord] += sign * step
                values = _min_eig_of_map_on_projectors(p, _unit_vectors(trial))
                improved = values < best
                angles[improved] = trial[improved]
                best[improved] = values[improved]
        step *= 0.65
    k = int(np.argmin(best))
    x = _unit_vectors(angles[k : k + 1])[0]
    # Canonical gauge: first nonzero entry real and positive.
    lead = x[np.flatnonzero(np.abs(x) > 1e-15)[0]]
    x = x * np.conj(lead / abs(lead))
    min_value = float(best[k])

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


def family_from_alpha(alpha: float) -> FamilyPoint:
    """Family point for an angle alpha in [pi/3, 5*pi/3]."""
    alpha = float(alpha)
    if not (ALPHA_MIN - 1e-12 <= alpha <= ALPHA_MAX + 1e-12):
        raise OutOfRangeError(
            f"alpha must lie in [pi/3, 5*pi/3], got {alpha!r}"
        )
    a = (2.0 / 3.0) * (1.0 + math.cos(alpha))
    b = (2.0 / 3.0) * (1.0 - math.cos(alpha) / 2.0 - math.sqrt(3.0) / 2.0 * math.sin(alpha))
    c = (2.0 / 3.0) * (1.0 - math.cos(alpha) / 2.0 + math.sqrt(3.0) / 2.0 * math.sin(alpha))
    # Values that are zero in closed form may round to tiny negatives.
    a, b, c = (0.0 if -1e-12 <= v < 0.0 else v for v in (a, b, c))
    if abs(a + b + c - 2.0) > 1e-12 or abs(b * c - (1.0 - a) ** 2) > 1e-12:
        raise ArithmeticError(f"family conditions violated at alpha={alpha!r}")
    params = MapParams(a, b, c)
    t = None if a >= 1.0 - BOUNDARY_TOL else c / (1.0 - a)
    return FamilyPoint(params=params, alpha=alpha, t=t)


def family_violation(p: MapParams, tol: float) -> str | None:
    """The first family condition p breaks at tolerance tol, or None on the family.

    The conditions are a+b+c = 2, a <= 1 and bc = (1-a)^2, checked in that
    order; the returned text names the failing one with its values.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if abs(p.total - 2.0) > tol:
        return f"a+b+c = {p.total!r} differs from 2"
    if p.a > 1.0 + tol:
        return f"a = {p.a!r} exceeds 1"
    if abs(p.b * p.c - (1.0 - p.a) ** 2) > tol:
        return f"b*c = {p.b * p.c!r} differs from (1-a)^2 = {(1 - p.a) ** 2!r}"
    return None


def on_family_check(p: MapParams, tol: float) -> bool:
    """True when 0 <= a <= 1, a+b+c = 2 and bc = (1-a)^2 all hold within tol."""
    return family_violation(p, tol) is None


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
