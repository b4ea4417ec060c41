"""Dense complex linear algebra on the small fixed sizes used by this package.

Vectors and matrices are plain numpy arrays with dtype complex128: length-3
and length-9 vectors, 3x3 and 9x9 matrices.  The tensor-product index (i, j)
of a bipartite object always maps to the flat index 3*i + j, i.e. row-major
with the first factor outermost.  All functions are pure and accept anything
``np.asarray`` can turn into the right shape; NaN or infinite entries are
rejected.  Each function takes one vector or matrix, except rank_with_tol,
which also takes a stack of matrices along leading axes for the certificate
kernel's one stacked singular value decomposition.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError

#: Entrywise tolerance for Hermiticity checks, relative to the largest entry once it exceeds 1.
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


def _as_square(x, name, batched=False):
    """A square matrix; with ``batched``, a stack of them along leading axes."""
    arr = np.asarray(x, dtype=complex)
    if (arr.ndim < 2 if batched else arr.ndim != 2) or arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    return _finite(arr, name)


def _require_hermitian(m):
    """Raise NotHermitianError unless max|M - M^dagger| <= HERMITICITY_TOL * max(1, largest |Re| or |Im| in M)."""
    scale = max(1.0, float(np.maximum(np.abs(m.real), np.abs(m.imag)).max()))
    # Near the float limit the difference may overflow to inf or NaN, which fail the test.
    with np.errstate(over="ignore", invalid="ignore"):
        if not float(np.abs(m - m.conj().T).max()) <= HERMITICITY_TOL * scale:
            raise NotHermitianError(f"matrix is not Hermitian within {HERMITICITY_TOL:g}")


def kron_vec(u, v):
    """Tensor product of two 3-vectors: result[3*i + j] = u[i] * v[j]."""
    uu = _as_complex(u, (3,), "u")
    vv = _as_complex(v, (3,), "v")
    return np.kron(uu, vv)


def conj_vec(v):
    """Entrywise complex conjugate of a 3-vector."""
    return np.conj(_as_complex(v, (3,), "v"))


def partial_transpose_second(m):
    """Transpose the second tensor factor of a 9x9 matrix.

    Viewing the matrix as a 3x3 grid of 3x3 blocks, each block is replaced
    by its own transpose.  The operation is a linear involution and maps
    Hermitian matrices to Hermitian matrices.
    """
    mm = _as_complex(m, (9, 9), "m")
    return mm.reshape(3, 3, 3, 3).swapaxes(1, 3).reshape(9, 9)


def lu_det(m):
    """Determinant of one square matrix by LU factorization with partial pivoting.

    Row swaps are tracked explicitly so the sign is exact.  An exact zero
    pivot yields 0, other singular input a value at roundoff distance from
    zero.  ArithmeticError is raised when the determinant, or a step of the
    elimination, overflows the float range.  This is the independent
    cross-check of the closed forms.
    """
    a = _as_square(m, "m").copy()
    n = a.shape[0]
    det = complex(1.0)
    # Near the float limit the products may overflow to inf or NaN, rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
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
    if not np.isfinite(det):
        raise ArithmeticError("determinant overflows the float range")
    return complex(det)


def rank_with_tol(m, tol):
    """Numerical rank: number of singular values above tol * (largest one).

    A stack of matrices along leading axes (empty ones too) gives an integer
    array of ranks from one stacked singular value decomposition.  Each matrix
    is first divided by the power of two that brings its largest real or
    imaginary part into [0.5, 1): exact short of underflow, and the rank is
    scale-invariant, so no singular value of a finite matrix overflows.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    a = _as_square(m, "m", batched=True)
    peak = np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=(-2, -1), keepdims=True, initial=0.0)
    # 2**1022 at most, for subnormal entries: a larger power of two is not a float.
    a = a * np.ldexp(1.0, -np.maximum(np.frexp(peak)[1], -1022))
    svals = np.linalg.svd(a, compute_uv=False)
    ranks = np.count_nonzero(svals > tol * svals[..., :1], axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def herm_eig_min(m):
    """Smallest eigenvalue of a Hermitian matrix, by np.linalg.eigvalsh.

    The input must satisfy max|M - M^dagger| <= 1e-12 * max(1, max|M|),
    otherwise NotHermitianError is raised; the Hermitian part M/2 + M^dagger/2,
    halved before the sum so that the sum cannot overflow, is what gets
    diagonalized.  ArithmeticError is raised when the eigenvalue overflows
    the float range.
    """
    a = _as_square(m, "m")
    _require_hermitian(a)
    value = float(np.linalg.eigvalsh(a / 2.0 + a.conj().T / 2.0)[0])
    if not np.isfinite(value):
        raise ArithmeticError("smallest eigenvalue overflows the float range")
    return value


def expectation(w, v):
    """Real quadratic form <v|W|v> of a Hermitian matrix, as np.vdot(v, W @ v).

    W must be Hermitian within 1e-12 * max(1, max|W|).  ArithmeticError is raised when the
    form overflows the float range, or when its imaginary part exceeds a
    scale-aware roundoff bound; the imaginary part is then discarded.
    """
    wm = _as_square(w, "w")
    vv = _as_complex(v, (wm.shape[0],), "v")
    _require_hermitian(wm)
    # Near the float limit the form and its bound may overflow to inf or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        val = complex(np.vdot(vv, wm @ vv))
        bound = 1e-10 * (1.0 + float(np.vdot(vv, vv).real) * float(np.abs(wm).max()))
    if not np.isfinite(val):
        raise ArithmeticError("quadratic form overflows the float range")
    if abs(val.imag) > bound:
        raise ArithmeticError(
            f"quadratic form has imaginary part {val.imag:g} beyond roundoff bound {bound:g}"
        )
    return val.real
