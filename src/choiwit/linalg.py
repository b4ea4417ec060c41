"""Dense complex linear algebra on the small fixed sizes used by this package.

Vectors and matrices are plain numpy arrays with dtype complex128: length-3
and length-9 vectors, 3x3 and 9x9 matrices.  The tensor-product index (i, j)
of a bipartite object always maps to the flat index 3*i + j, i.e. row-major
with the first factor outermost.  All functions are pure and accept anything
``np.asarray`` can turn into the right shape; NaN or infinite entries are
rejected.  partial_transpose_second, rank_with_tol and quadratic_forms also
take stacks of matrices along leading axes, and give each matrix of a stack
the result it gets alone, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError

#: Absolute entrywise tolerance for Hermiticity checks.
HERMITICITY_TOL = 1e-12


def _finite(arr, name):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


def _as_complex(x, shape, name):
    arr = np.asarray(x, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return _finite(arr, name)


def _as_stack(x, shape, name):
    """Like _as_complex, but any axes in front of ``shape`` are batch axes."""
    arr = np.asarray(x, dtype=complex)
    if arr.shape[arr.ndim - len(shape) :] != shape:
        raise ValueError(f"{name} must have trailing shape {shape}, got {arr.shape}")
    return _finite(arr, name)


def _as_square(x, name, batched=False):
    """A square matrix; with ``batched``, a stack of them along leading axes."""
    arr = np.asarray(x, dtype=complex)
    if (arr.ndim < 2 if batched else arr.ndim != 2) or arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    return _finite(arr, name)


def _require_hermitian(m, tol):
    """Raise NotHermitianError unless every matrix of the stack m is Hermitian within tol."""
    # The conjugate transpose is written C-contiguous and the difference
    # into it: numpy subtracts contiguous operands on its fast loop.  Near the
    # float limit the difference may overflow to inf or NaN, which fail the test.
    diff = np.conjugate(np.swapaxes(m, -1, -2), order="C")
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(m, diff, out=diff)
        if not float(np.abs(diff).max(initial=0.0)) <= tol:  # an empty stack passes
            raise NotHermitianError(f"matrix is not Hermitian within {tol:g}")


def kron_vec(u, v):
    """Tensor product of two 3-vectors: result[3*i + j] = u[i] * v[j]."""
    uu = _as_complex(u, (3,), "u")
    vv = _as_complex(v, (3,), "v")
    return np.kron(uu, vv)


def conj_vec(v):
    """Entrywise complex conjugate of a 3-vector."""
    return np.conj(_as_complex(v, (3,), "v"))


def partial_transpose_second(m):
    """Transpose the second tensor factor of a 9x9 matrix, or of each in a stack.

    Viewing the matrix as a 3x3 grid of 3x3 blocks, each block is replaced
    by its own transpose.  The operation is a linear involution and maps
    Hermitian matrices to Hermitian matrices.
    """
    mm = _as_stack(m, (9, 9), "m")
    return mm.reshape(mm.shape[:-2] + (3, 3, 3, 3)).swapaxes(-3, -1).reshape(mm.shape)


def lu_det(m):
    """Determinant of one square matrix by LU factorization with partial pivoting.

    Row swaps are tracked explicitly so the sign is exact.  An exact zero
    pivot yields 0, other singular input a value at roundoff distance from
    zero.  This is the independent cross-check of the closed forms.
    """
    a = _as_square(m, "m").copy()
    n = a.shape[0]
    det = complex(1.0)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0:
            return complex(0.0)
        if p != k:
            a[[k, p]] = a[[p, k]]
            det = -det
        det *= a[k, k]
        if k < n - 1:
            a[k + 1 :, k] /= a[k, k]
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return complex(det)


def rank_with_tol(m, tol):
    """Numerical rank: number of singular values above tol * (largest one).

    A stack of matrices along leading axes (empty ones too) gives an integer
    array of ranks from one stacked singular value decomposition.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    a = _as_square(m, "m", batched=True)
    svals = np.linalg.svd(a, compute_uv=False)
    ranks = np.count_nonzero(svals > tol * svals[..., :1], axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def herm_eig_min(m, tol=HERMITICITY_TOL):
    """Smallest eigenvalue of a Hermitian matrix, by np.linalg.eigvalsh.

    The input must satisfy max|M - M^dagger| <= tol, otherwise
    NotHermitianError is raised; the Hermitian part M/2 + M^dagger/2,
    halved before the sum so that the sum cannot overflow, is what gets
    diagonalized.
    """
    a = _as_square(m, "m")
    _require_hermitian(a, tol)
    return float(np.linalg.eigvalsh(a / 2.0 + a.conj().T / 2.0)[0])


def quadratic_forms(w, v):
    """Real quadratic forms <v_k|W|v_k> for a stack of Hermitian matrices.

    ``w`` has shape (..., n, n) and ``v`` shape (..., k, n); the result has
    shape (..., k), one form per row of v against the matrix in front of it.
    Each form is W @ v as a stacked matmul, then np.vecdot of v with it,
    which is np.vdot's conjugating dot with no conjugate copy of v, so every
    value is bit-for-bit what one matrix-vector product and np.vdot give.
    Every W must be Hermitian within 1e-12.  The imaginary part of each raw
    form is checked against a scale-aware roundoff bound and then discarded.
    """
    wm = _as_square(w, "w", batched=True)
    vv = _as_stack(v, (wm.shape[-1],), "v")
    _require_hermitian(wm, HERMITICITY_TOL)
    val = np.vecdot(vv, np.matmul(wm[..., None, :, :], vv[..., None])[..., 0])
    bound = 1e-10 * (1.0 + np.vecdot(vv, vv).real * np.abs(wm).max(axis=(-2, -1))[..., None])
    bad = np.flatnonzero(np.abs(val.imag) > bound)
    if bad.size:
        imag, limit = val.imag.flat[bad[0]], bound.flat[bad[0]]
        raise ArithmeticError(
            f"quadratic form has imaginary part {imag:g} beyond roundoff bound {limit:g}"
        )
    return val.real


def expectation(w, v):
    """Real quadratic form <v|W|v> of a Hermitian matrix; quadratic_forms for one vector."""
    wm = _as_square(w, "w")
    vv = _as_complex(v, (wm.shape[0],), "v")
    return float(quadratic_forms(wm, vv[None])[0])
