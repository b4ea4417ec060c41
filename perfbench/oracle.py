"""Reference values computed without choiwit, from the formulas choiwit documents.

Nothing here imports choiwit: the family is generated from cancellation-free
half-angle forms, the witness is rebuilt from its entry pattern, state files
are written and read in the documented 12-decimal ``re+imj`` format, and the
map is applied from its defining formula.
"""

from __future__ import annotations

import math

import numpy as np

ALPHA_MIN = math.pi / 3
ALPHA_MAX = 5 * math.pi / 3

#: Tolerance of the package's density-matrix validation (README, "State file format").
STATE_TOL = 1e-10

#: 1 - a at or below this value is the a = 1 boundary, as in choiwit.maps.BOUNDARY_TOL.
BOUNDARY_TOL = 1e-12

#: Half-width of the angle window around pi where only the witness side is
#: certified.  At tol = 1e-8 the conjugated span matrix keeps full rank for
#: |alpha - pi| above about 4e-7; inputs sit either inside 1e-9 or outside
#: 1e-4, so the expected verdict never depends on where that edge falls.
T_ONE_INSIDE = 1e-9
T_ONE_OUTSIDE = 1e-4


def family_triple(alpha: float) -> tuple[float, float, float, float]:
    """(a, b, c, 1 - a) at angle alpha, each free of cancellation near the ends."""
    one_minus_a = (4 / 3) * math.sin((alpha + math.pi / 3) / 2) * math.sin((alpha - math.pi / 3) / 2)
    b = (4 / 3) * math.sin(math.pi / 4 - (alpha + math.pi / 6) / 2) ** 2
    c = (4 / 3) * math.sin(math.pi / 4 + (alpha - math.pi / 6) / 2) ** 2
    return 1.0 - one_minus_a, b, c, one_minus_a


def expected_verdict(alpha: float) -> str | None:
    """Verdict the certificate must give at a family angle; None where it is not pinned."""
    _, _, _, one_minus_a = family_triple(alpha)
    if one_minus_a <= BOUNDARY_TOL:
        return "Boundary"
    if abs(alpha - math.pi) <= T_ONE_INSIDE:
        return "OptimalOnly"
    if abs(alpha - math.pi) >= T_ONE_OUTSIDE:
        return "IndecomposableOptimal"
    return None


def witness(a: float, b: float, c: float) -> np.ndarray:
    """9x9 witness from its entry pattern, scaled to unit trace."""
    scale = 1.0 / (3.0 * (a + b + c))
    w = np.diag([a, b, c, c, a, b, b, c, a]).astype(complex)
    for i, j in ((0, 4), (0, 8), (4, 8)):
        w[i, j] = w[j, i] = -1.0
    return w * scale


def map_apply(a: float, b: float, c: float, x: np.ndarray) -> np.ndarray:
    """The map with weights (a, b, c) applied to a 3x3 matrix."""
    s = a + b + c
    d = np.diag(x)
    out = -x / s
    out[0, 0] = (a * d[0] + b * d[1] + c * d[2]) / s
    out[1, 1] = (c * d[0] + a * d[1] + b * d[2]) / s
    out[2, 2] = (b * d[0] + c * d[1] + a * d[2]) / s
    return out


def state_text(rho: np.ndarray) -> str:
    """Nine lines of nine entries, each ``re+imj`` with twelve decimals."""
    lines = []
    for row in rho:
        cells = []
        for z in row:
            re, im = z.real + 0.0, z.imag + 0.0  # print -0.0 as 0.0
            cells.append(f"{re:.12f}{im:+.12f}j")
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def parse_state(text: str) -> np.ndarray:
    return np.array([[complex(tok) for tok in line.split()] for line in text.splitlines() if line.strip()])


def state_defect(rho: np.ndarray) -> str | None:
    """Why rho is not a valid density matrix at the package's tolerance, or None."""
    if float(np.abs(rho - rho.conj().T).max()) > STATE_TOL:
        return "not Hermitian"
    if abs(complex(np.trace(rho)) - 1.0) > STATE_TOL:
        return "trace differs from 1"
    if float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]) < -STATE_TOL:
        return "negative eigenvalue"
    return None


def separable_sample_min(w: np.ndarray, n: int, seed: int) -> float:
    """Minimum of <x(x)y|W|x(x)y> over the documented sampling protocol.

    numpy's default PCG64 generator; complex Gaussians with real parts drawn
    before imaginary parts, x before y, each normalized.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    v = (x[:, :, None] * y[:, None, :]).reshape(n, 9)
    return float(np.real(np.sum(v.conj() * (v @ w.T), axis=1)).min())
