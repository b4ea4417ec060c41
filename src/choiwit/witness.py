"""Witness construction, the detection functional and separable sanity sampling.

The witness for weights (a, b, c) is a real Hermitian 9x9 matrix with
diagonal (a, b, c, c, a, b, b, c, a) times an overall scale and entries
-scale at the flat positions (0,4), (0,8), (4,8) and their transposes.  The
scale is fixed to 1/(3(a+b+c)), which makes the trace equal to 1; on the
a+b+c = 2 slice this is the conventional 1/6 prefactor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError
from .linalg import _as_complex
from .maps import MapParams, phi_apply

#: Weight (0 = a, 1 = b, 2 = c) on each diagonal entry of the witness.
_DIAG_WEIGHT = np.array([0, 1, 2, 2, 0, 1, 1, 2, 0])
#: The entry pairs (i, j), i < j, that hold -scale at (i, j) and (j, i): in W (0,4), (0,8),
#: (4,8); then in W^Gamma, where the partial transpose moves them to (1,3), (2,6), (5,7).  The
#: diagonal is the same on both sides.
_OFF_ENTRIES = (((0, 4), (0, 8), (4, 8)), ((1, 3), (2, 6), (5, 7)))
#: The diagonal entries that carry a, then b, then c, each three in index order.
_WEIGHT_ENTRIES = [np.flatnonzero(_DIAG_WEIGHT == k).tolist() for k in range(3)]

#: Validation tolerances for density matrices; loose enough to accept
#: states read back from text files with 12 printed digits.
STATE_TOL = 1e-10
#: Largest state file parse_state_file reads, in bytes, 26 times a 12-decimal state's 2.5 KB.
#: The read allocates the cap at once: a 1 MiB cap cost about 15 us and two page faults a file.
STATE_FILE_MAX_BYTES = 2**16


@dataclass(frozen=True)
class WitnessMatrix:
    """A witness matrix together with its weights and the applied scale."""

    mat: np.ndarray
    params: MapParams
    scale: float


@dataclass(frozen=True)
class DensityMatrix:
    """A 9x9 density matrix; construction validates the state invariants."""

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        try:
            m = _as_complex(self.mat, (9, 9), "state")
        except ValueError as exc:
            raise InvalidStateError(str(exc)) from exc
        # Near the float limit the difference, the trace and the eigenvalues
        # may overflow to inf or NaN; every comparison below fails on NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.abs(m - m.conj().T).max() <= STATE_TOL:
                raise InvalidStateError("state is not Hermitian within 1e-10")
            if not np.abs(np.trace(m) - 1.0) <= STATE_TOL:
                raise InvalidStateError("state trace differs from 1 by more than 1e-10")
        # m is finite and Hermitian within STATE_TOL: diagonalize its Hermitian
        # part, halved before the sum so that the sum cannot overflow.
        if not np.linalg.eigvalsh(m / 2.0 + m.conj().T / 2.0)[0] >= -STATE_TOL:
            raise InvalidStateError("state has an eigenvalue below -1e-10")
        object.__setattr__(self, "mat", m)


def max_ent_projector() -> np.ndarray:
    """Rank-one projector onto (|00> + |11> + |22>) / sqrt(3)."""
    omega = np.zeros(9, dtype=complex)
    omega[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
    return np.outer(omega, omega.conj())


def _witness_scale(p: MapParams) -> float:
    """The witness scale 1/(3(a+b+c)) of weights p.

    Raises ValueError when it is not finite, as for a weight sum below about
    2e-309, or is zero, as for a weight sum whose triple overflows.
    """
    scale = 1.0 / (3.0 * (p.a + p.b + p.c))  # float division: inf or 0.0 at the extremes, no warning
    if np.isinf(scale):
        raise ValueError("the witness scale 1/(3(a+b+c)) is not finite; the weight sum is too small")
    if not scale:
        raise ValueError("the witness scale 1/(3(a+b+c)) is zero; the weight sum overflows")
    return scale


def witness_matrix(p: MapParams) -> WitnessMatrix:
    """The witness for weights p, filled from _DIAG_WEIGHT and the W side of _OFF_ENTRIES.

    Raises ValueError where the scale is not finite or is zero (_witness_scale).
    """
    scale = _witness_scale(p)
    mat = np.diag(np.array([p.a, p.b, p.c])[_DIAG_WEIGHT] * scale).astype(complex)
    rows, cols = np.array(_OFF_ENTRIES[0]).T
    mat[rows, cols] = mat[cols, rows] = -scale
    return WitnessMatrix(mat=mat, params=p, scale=scale)


def witness_from_map(p: MapParams) -> WitnessMatrix:
    """Build the witness by applying the map across the maximally entangled projector.

    The projector is viewed as a 3x3 grid of 3x3 blocks and the map acts on
    the grid structure (the first tensor factor); this is the construction
    whose matrix matches witness_matrix entrywise.  Raises ValueError where
    witness_matrix does, before the map is applied.
    """
    scale = _witness_scale(p)
    proj = max_ent_projector().reshape(3, 3, 3, 3)
    out = np.empty_like(proj)
    for k in range(3):
        for l in range(3):
            out[:, k, :, l] = phi_apply(p, proj[:, k, :, l])
    return WitnessMatrix(mat=out.reshape(9, 9), params=p, scale=scale)


def detect(w: WitnessMatrix, rho) -> float:
    """Expectation tr(W rho) of the witness in a state.

    Negative values mean the witness detects the state.  ``rho`` may be a
    DensityMatrix or anything that validates as one; InvalidStateError is
    raised otherwise.  The trace is taken on rho's Hermitian part, as the
    eigenvalue check does; an imaginary part beyond roundoff of W's entries
    raises ArithmeticError.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    # A valid state is Hermitian only within STATE_TOL, which would leave tr(W rho) an
    # imaginary part of up to STATE_TOL/2 * sum |W_ij|, far above roundoff at a large
    # witness scale.  The Hermitian part is the state itself where that is Hermitian,
    # and its sum cannot overflow: a valid state's entries are at most about 1.
    value = complex(np.trace(w.mat @ ((rho.mat + rho.mat.conj().T) / 2.0)))
    bound = 1e-10 * (1.0 + float(np.abs(w.mat).max()))
    if abs(value.imag) > bound:
        raise ArithmeticError(f"tr(W rho) has imaginary part {value.imag:g} beyond roundoff bound {bound:g}")
    return float(value.real)


#: Upper off-diagonal positions (0,1), (0,2), (1,2) of a 3x3 matrix.
_UPPER = ([0, 0, 1], [1, 2, 2])


def _hermitian_basis() -> np.ndarray:
    """Rows are the flattened 3x3 matrices E_a with P = sum_a p_a E_a.

    The coordinates p of a Hermitian P are its diagonal, then Re and Im of
    P[0,1], P[0,2] and P[1,2].
    """
    e = np.zeros((9, 3, 3), dtype=complex)
    e[[0, 1, 2], [0, 1, 2], [0, 1, 2]] = 1.0
    for a, (i, k) in enumerate(zip(*_UPPER)):
        e[3 + a, i, k] = e[3 + a, k, i] = 1.0
        e[6 + a, i, k], e[6 + a, k, i] = 1j, -1j
    return e.reshape(9, 9)


_HERM_BASIS = _hermitian_basis()

#: Product states per block of separable_sample_check.  Blocks keep the
#: buffers small enough to be reused from block to block; whole-n
#: temporaries cost fresh pages on every call.  Values do not depend on it.
SAMPLE_BLOCK = 2048


def _form_matrix(mat: np.ndarray) -> np.ndarray:
    """Real 9x9 K with Re<x (x) y|W|x (x) y> = p.(K q).

    p and q are the Hermitian coordinates (see _hermitian_coords) of
    conj(x) x^T and conj(y) y^T, and W is regrouped as [(i,k), (j,l)].
    """
    v = mat.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
    return (_HERM_BASIS @ v @ _HERM_BASIS.T).real


def _pair_products(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """u_i v_k on the _UPPER pairs (i, k) of axis -2, into out: one product per pair."""
    for a, (i, k) in enumerate(zip(*_UPPER)):
        np.multiply(u[..., i, :], v[..., k, :], out=out[..., a, :])


def _hermitian_coords(re: np.ndarray, im: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Coordinates of conj(z) z^T for z = re + i im, components on axis -2, written into out.

    re and im hold the 3 components on axis -2 and out the 9; work, of re's
    shape, holds the second product of each sum.  The coordinates are
    re*re + im*im, then ri*rk + si*sk and ri*sk - si*rk on the _UPPER pairs,
    each product and sum a numpy loop on basic slices.  Returns out.
    """
    diag, real, imag = out[..., :3, :], out[..., 3:6, :], out[..., 6:, :]
    np.multiply(re, re, out=diag)
    np.add(diag, np.multiply(im, im, out=work), out=diag)
    _pair_products(re, re, real)
    _pair_products(im, im, work)
    np.add(real, work, out=real)
    _pair_products(re, im, imag)
    _pair_products(im, re, work)
    np.subtract(imag, work, out=imag)
    return out


def separable_sample_check(w: WitnessMatrix, n: int, seed: int) -> float:
    """Minimum witness expectation over n random pure product states.

    Samples x and y independently and uniformly on the unit sphere of C^3
    (normalized complex Gaussians from numpy's default PCG64 generator;
    real parts drawn before imaginary parts, x before y) and returns
    min over samples of <x (x) y|W|x (x) y>.  Deterministic for fixed
    (n, seed).  The form is evaluated as p.(K q) on the raw draws, with p
    and q the 9 real Hermitian coordinates of conj(x) x^T and conj(y) y^T
    and K a real 9x9 matrix built from W, then divided by |x|^2 |y|^2
    (the form has degree 2 in x and in y).  The draws are the documented
    ones, and the value equals the complex evaluation up to roundoff.

    The draw is taken in blocks of SAMPLE_BLOCK samples.  The buffers are
    allocated once per call, and each block uses a C-contiguous prefix of
    each: the (re/im, x/y, 3, m) planes, copied from the draw in one
    np.copyto, the (x/y, 9, m) coordinates, the K q product and |x|^2, |y|^2.
    Every value is the one a block of fresh arrays gives, bit for bit.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    k = _form_matrix(_as_complex(w.mat, (9, 9), "witness"))
    g = np.random.default_rng(seed).standard_normal((2, 2, n, 3))  # [x, y] x [re, im]
    size = min(n, SAMPLE_BLOCK)
    planes, coords, work, kq, norms = (np.empty(rows * size) for rows in (12, 18, 6, 9, 2))
    low = np.inf
    for lo in range(0, n, SAMPLE_BLOCK):
        m = min(SAMPLE_BLOCK, n - lo)
        block = planes[: 12 * m].reshape(2, 2, 3, m)
        np.copyto(block, g[:, :, lo : lo + m].transpose(1, 0, 3, 2))
        xy = _hermitian_coords(*block, coords[: 18 * m].reshape(2, 9, m), work[: 6 * m].reshape(2, 3, m))
        sq = np.add.reduce(xy[:, :3], axis=1, out=norms[: 2 * m].reshape(2, m))  # |x|^2, |y|^2
        values = np.einsum("an,an->n", xy[0], np.matmul(k, xy[1], out=kq[: 9 * m].reshape(9, m)))
        low = min(low, float((values / (sq[0] * sq[1])).min()))
    return low


def format_complex(z: complex, digits: int | None = None) -> str:
    """Render one complex number as re+imj / re-imj.

    With ``digits`` the two parts are printed in fixed-point with that many
    decimals (the state-file convention); without it the shortest general
    format is used.
    """
    z = complex(z)
    re = z.real + 0.0  # collapse -0.0 to 0.0
    im = z.imag + 0.0
    if digits is None:
        return f"{re:g}{im:+g}j"
    return f"{re:.{digits}f}{im:+.{digits}f}j"


def state_file_text(mat) -> str:
    """Serialize a 9x9 matrix as 9 lines of 9 complex entries, 12 decimals."""
    m = _as_complex(mat, (9, 9), "mat")
    return "\n".join(
        " ".join(format_complex(m[i, j], digits=12) for j in range(9))
        for i in range(9)
    ) + "\n"


def parse_state_text(text: str) -> DensityMatrix:
    """Parse the 9-line state format and validate the density invariants."""
    rows = [line for line in text.splitlines() if line.strip()]
    if len(rows) != 9:
        raise InvalidStateError(f"state file must have 9 nonempty lines, got {len(rows)}")
    values = []
    for i, line in enumerate(rows):
        entries = line.split()
        if len(entries) != 9:
            raise InvalidStateError(
                f"line {i + 1} must have 9 entries, got {len(entries)}"
            )
        row = []
        for j, token in enumerate(entries):
            try:
                row.append(complex(token))
            except ValueError as exc:
                raise InvalidStateError(
                    f"line {i + 1}, entry {j + 1}: cannot parse {token!r}"
                ) from exc
        values.append(row)
    return DensityMatrix(np.array(values, dtype=complex))


def parse_state_file(path) -> DensityMatrix:
    """Read and validate a state file from disk, reading at most one byte past STATE_FILE_MAX_BYTES."""
    with open(path, "rb") as handle:
        data = handle.read(STATE_FILE_MAX_BYTES + 1)
    if len(data) > STATE_FILE_MAX_BYTES:
        raise InvalidStateError(f"state file is larger than {STATE_FILE_MAX_BYTES} bytes")
    return parse_state_text(data.decode("utf-8"))
