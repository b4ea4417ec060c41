"""Span certificates of witness optimality on the one-parameter family.

For each t > 0 there are nine product-vector pairs (psi_k, phi_k) whose
products psi_k (x) phi_k have zero witness expectation, and whose conjugated
products psi_k (x) conj(phi_k) have zero expectation in the partially
transposed witness.  When either set of nine vectors spans C^9 the
corresponding witness is certified optimal; when both do, the witness is
certified indecomposable optimal.  The 9x9 matrices collecting the vectors
as columns have analytic determinants; tests/test_exact.py proves them in
exact integer arithmetic, and the certificates report them.

The whole test runs as one batched kernel on an array of weights, after one
family guard at maps.ON_FAMILY_TOL over the batch.  Every entry of every
product vector is +-m or +-m*1j for one of six reals m: 0, 1, s, t, s*s and
s*t, with s = sqrt(t).  So slices of KERNEL_BLOCK points take their column
norms and witness expectations from those six magnitude columns, in real
elementwise operations with the bits of the complex ones (no vector stack
and no witness matrix is built), and write whole-batch columns.  Three
tables read off the product vectors at t = 2 say which magnitudes enter:
the 18 (side, pair) columns have 7 distinct forms, with entry rows
_ENTRY_ROWS and pair rows _PAIR_ROWS, and _FORM_OF names each column's
form.  A slice sums each form once (_form_sums), evaluates the 7 forms, and
takes the side maxima and the 18 column norms back through _FORM_OF.
Only where no determinant proves rank 9 (_RANK9_DET_BOUND) are the product
vectors of a point built, as span matrices for a stacked SVD.  The verdicts
are decided once over the columns, and the record, the values named by
RECORD_KEYS, is returned as whole-batch columns, built once.  certify_many
zips those columns into Certificates, and certify is its one-point case;
the scan command puts the angle and weight columns in front of them, and
check prints the record of its point beside its Certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BoundaryCaseError, ChoiwitError, NonpositiveTError, OffFamilyError
from .linalg import rank_with_tol
from .maps import BOUNDARY_TOL, ON_FAMILY_TOL, MapParams, _family_breaks, family_violation
from .witness import _OFF_ENTRIES, _WEIGHT_ENTRIES, DensityMatrix

#: Window around t = 1 inside which the conjugated span matrix is
#: expected to be rank deficient (its determinant vanishes to third order).
T_ONE_WINDOW = 1e-6

_T1_NOTE = (
    "span test for the partially transposed witness degenerates at t = 1; "
    "optimality of that side is not decided by this certificate"
)


class Verdict(str, Enum):
    INDECOMPOSABLE_OPTIMAL = "IndecomposableOptimal"
    OPTIMAL_ONLY = "OptimalOnly"
    BOUNDARY = "Boundary"
    NOT_CERTIFIED = "NotCertified"


@dataclass(frozen=True)
class ProductVectorPair:
    """Pair number k in 1..9 with its two vectors in C^3."""

    k: int
    psi: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class SpanMatrix:
    """9x9 matrix whose column k-1 is psi_k (x) phi_k (conjugated: (x) conj(phi_k))."""

    mat: np.ndarray
    t: float
    conjugated: bool


@dataclass(frozen=True)
class ZeroExpectations:
    """Maxima over k of |<v_k|W|v_k>| / <v_k|v_k> on the nine pairs of each side."""

    max_w: float
    max_wgamma: float


@dataclass(frozen=True)
class CertificateDiagnostics:
    """Numbers backing a certificate; all None on the a = 1 boundary.

    Determinants and ranks refer to the column-normalized span matrices, so
    they are independent of the overall witness and vector scales.  The
    determinants are the closed forms over the product of the column norms.
    """

    max_abs_expectation_w: float | None
    max_abs_expectation_wgamma: float | None
    det_m: complex | None
    det_mprime: complex | None
    rank_m: int | None
    rank_mprime: int | None
    note: str | None = None


@dataclass(frozen=True)
class Certificate:
    """Optimality verdict for one parameter triple."""

    params: MapParams
    t: float | None
    w_optimal: bool
    wgamma_optimal: bool
    verdict: Verdict
    diagnostics: CertificateDiagnostics


def _check_t(t) -> float:
    t = float(t)
    if not (math.isfinite(t) and t > 0):
        raise NonpositiveTError(f"t must be a positive finite real, got {t!r}")
    return t


#: Entry codes of the pair tables, psi then phi, row k - 1 for pair k: codes
#: 0 to 4 stand for 0, 1, -1, 1j and -1j, codes 5, 6 and 7 for sqrt(t), t and
#: -t*1j.
_PAIR_CODES = np.array(
    [
        [[1, 1, 1], [1, 2, 1], [1, 3, 4], [0, 5, 1], [0, 5, 3],
         [1, 0, 5], [3, 0, 5], [5, 1, 0], [5, 3, 0]],
        [[1, 1, 1], [1, 2, 1], [1, 4, 3], [0, 5, 6], [0, 5, 7],
         [6, 0, 5], [7, 0, 5], [5, 6, 0], [5, 7, 0]],
    ]
)


def _entry_table(t: np.ndarray) -> np.ndarray:
    """The (N, 8) complex values of the entry codes at each entry of t."""
    table = np.empty((len(t), 8), dtype=complex)
    table[:, :5] = (0, 1, -1, 1j, -1j)
    table[:, 5] = np.sqrt(t)
    table[:, 6] = t
    table[:, 7] = -t * 1j
    return table


def _vectors(t: np.ndarray) -> np.ndarray:
    """The product vectors at each entry of t, as a C-contiguous (2, N, 9, 9) stack.

    Axis 0 is the side: psi_k (x) phi_k, then psi_k (x) conj(phi_k), row k - 1
    for pair k.  It is one broadcast outer product of the pair tables that
    product_vectors reads: entry 3*i + j is psi_k[i] * phi_k[j], with
    np.conjugate(phi_k), which keeps signed zeros, on side 1.  The certificate
    kernel builds it only for the span matrices that reach the SVD.
    """
    psi, phi = np.swapaxes(_entry_table(t)[:, _PAIR_CODES], 0, 1)
    outer = np.multiply(psi[..., :, None], np.stack([phi, np.conjugate(phi)])[..., None, :], order="C")
    return outer.reshape(2, len(t), 9, 9)


def _magnitudes(t: np.ndarray) -> np.ndarray:
    """The (6, N) magnitude columns 0, 1, s, t, s*s and s*t at each entry of t, s = sqrt(t).

    Each is the magnitude _vectors' complex product gives its entries: a factor 1
    is exact, and s*s and s*t round as there.
    """
    mags = np.empty((6, len(t)))
    mags[:2] = ((0.0,), (1.0,))
    mags[2], mags[3] = np.sqrt(t), t
    np.multiply(mags[2], mags[2:4], out=mags[4:])
    return mags


def _form_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's static tables, read off the product vectors at t = 2.

    Every entry of every product vector is +-m or +-m*1j for a magnitude m in the
    rows of _magnitudes.  At t = 2 the six magnitudes differ (s*s rounds to
    2.0000000000000004), so |re| + |im| of an entry names its row.  A (side, pair)
    column's form is the rows of m at its nine entries and, for each _OFF_ENTRIES
    pair p of its side, the rows of m_i and m_j such that x_i x_j + y_i y_j with
    v = x + iy is m_i * m_j: m_i is row 0, the zero column, where that term is 0,
    one entry real and the other imaginary.  Returns the 7 distinct forms, sorted,
    as entry rows (9, 7) and pair rows (3, 2, 7), and the form of each column (2, 9).
    """
    v = _vectors(np.array([2.0]))[:, 0]
    rows = np.argmax((abs(v.real) + abs(v.imag))[..., None] == _magnitudes(np.array([2.0])).T, axis=-1)
    i, j = np.array(_OFF_ENTRIES).transpose(2, 1, 0)[..., None]  # (3, 2, 1) each: pair p, side
    sides, pairs = np.arange(2)[:, None], np.arange(9)
    vi, vj = v[sides, pairs, i], v[sides, pairs, j]
    term = vi.real * vj.real + vi.imag * vj.imag
    pair_rows = np.stack([np.where(term == 0, 0, rows[sides, pairs, i]), rows[sides, pairs, j]], axis=1)
    # What np.unique(axis=0, return_inverse=True) gives, without its import of numpy.ma (about 0.9 MB).
    columns = [tuple(c) for c in np.concatenate([rows.reshape(18, 9), pair_rows.reshape(6, 18).T], axis=1).tolist()]
    forms = sorted(set(columns))
    table = np.array(forms).T
    return table[:9], table[9:].reshape(3, 2, -1), np.array([forms.index(c) for c in columns]).reshape(2, 9)


#: The seven distinct forms of the 18 (side, pair) columns: their (9, 7) entry rows and (3, 2, 7)
#: pair rows, which the kernel sums, and the (2, 9) form of each (side, pair) column.
_ENTRY_ROWS, _PAIR_ROWS, _FORM_OF = _form_tables()


def _form_sums(mags: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sums of the seven forms at (6, n) magnitudes and (n, 3) weights.

    Returns the (7, n) squared column norms, weighted diagonal sums
    sum_k w_k |v_k|^2 and pair sums sum_pairs (x_i x_j + y_i y_j).  Each
    product-vector entry is +-m or +-m*1j, so its re*re + im*im is m*m and a
    pair's x_i x_j + y_i y_j is m_i*m_j (m_i the zero row where one entry is
    real and the other imaginary), the bits of the complex vectors' terms.
    Each sum is taken in this order: a norm entry by entry down the column;
    the three |v_k|^2 of a, of b and of c (witness._WEIGHT_ENTRIES) added in
    index order and times their weight, those three added a, b, c; a side's
    _OFF_ENTRIES pairs added in table order.  The norms and the diagonal read
    one gather of the squares through _ENTRY_ROWS, freed before the gather
    of the magnitudes through _PAIR_ROWS.
    """
    sq = (mags * mags)[_ENTRY_ROWS]
    norm2 = sum(sq)
    diag = sum(wk * (sq[i] + sq[j] + sq[k]) for wk, (i, j, k) in zip(weights.T, _WEIGHT_ENTRIES))
    del sq
    pairs = sum(mi * mj for mi, mj in mags[_PAIR_ROWS])
    return norm2, diag, pairs


def product_vectors(t) -> list[ProductVectorPair]:
    """The nine product-vector pairs for a given t > 0."""
    psi, phi = _entry_table(np.array([_check_t(t)]))[0, _PAIR_CODES]
    return [ProductVectorPair(k=k + 1, psi=psi[k], phi=phi[k]) for k in range(9)]


def span_matrix(t, conjugated: bool) -> SpanMatrix:
    """Assemble the 9x9 span matrix for t: the rows k = 1..9 of one side of _vectors as columns.

    Raises ChoiwitError for a t whose largest entry, t*sqrt(t), overflows.
    """
    t = _check_t(t)
    if math.isinf(t * math.sqrt(t)):
        raise ChoiwitError("t must be below about 3e205, where the span entries overflow")
    mat = _vectors(np.array([t]))[int(conjugated), 0].T.copy()
    return SpanMatrix(mat=mat, t=t, conjugated=conjugated)


def _det_parts(t, s):
    """(Re det M, Im det M, Re det M' = Im det M') in closed form at t, given s = sqrt(t).

    Only +, - and * appear: exact on Python integers (tests/test_exact.py),
    correctly rounded per element on float arrays, whatever the batch.
    """
    t2 = t * t
    t4 = t2 * t2
    re = 8 * t4 * (t2 - 1) * s * (2 * t - s + 2)
    im = -8 * t4 * t * (1 + t) * (t - 4 * s + 1)
    part = -8 * t4 * s * ((t - 1) * (t - 1) * (t - 1))
    return re, im, part


def det_closed_form(t, conjugated: bool) -> complex:
    """Analytic determinant of the span matrix as a function of t.

    The conjugated variant vanishes only at t = 1 (to third order in t - 1);
    the plain variant is nonzero for every t > 0.  ArithmeticError is raised
    when the determinant overflows the float range, as it does above about 9e40,
    and when its modulus falls below the smallest normal float, as it does below
    about 2e-69, except for the conjugated variant's exact zero at t = 1.
    """
    t = _check_t(t)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        re, im, part = _det_parts(t, np.sqrt(t))
    det = complex(part, part) if conjugated else complex(re, im)
    if not np.isfinite(det):
        raise ArithmeticError("determinant overflows the float range")
    if abs(det) < np.finfo(float).tiny and not (conjugated and t == 1.0):
        raise ArithmeticError("determinant underflows the float range")
    return det


def ppt_state(t) -> DensityMatrix:
    """The PPT state rho(t) that the family witness with the same t detects.

    rho(t) is lam on every entry among |00>, |11>, |22>, lam*t on |01>, |12>,
    |20> and lam/t on |10>, |21>, |02>, with lam = 1/(3(1 + t + 1/t)) for unit
    trace.  It is positive and so is its partial transpose, whose 2x2 blocks
    on {|ik>, |ki>} have determinant 0; on the family tr(W rho) = -a*lam/2,
    negative for every t != 1.  A decomposable witness is nonnegative on
    every PPT state, so this proves indecomposability without a tolerance
    (tests/test_exact.py checks it in exact arithmetic).  ArithmeticError is
    raised where 3(1 + t + 1/t) overflows, below about 1.7e-308 and above 6e307.
    """
    t = _check_t(t)
    lam = 1 / (3 * (1 + t + 1 / t))
    if lam == 0:
        raise ArithmeticError("normalization of rho(t) overflows the float range")
    mat = np.zeros((9, 9))
    mat[np.ix_([0, 4, 8], [0, 4, 8])] = lam
    mat[[1, 5, 6], [1, 5, 6]] = lam * t
    mat[[3, 7, 2], [3, 7, 2]] = lam / t
    return DensityMatrix(mat)


def zero_expectation_check(p: MapParams) -> ZeroExpectations:
    """Verify the nine pairs annihilate the witness and its partial transpose.

    Requires p on the family with a < 1; both maxima, taken on unit vectors
    as the certificate reports them, are at roundoff level there (below 1e-10).
    """
    d = certify(p).diagnostics
    if d.max_abs_expectation_w is None:
        raise BoundaryCaseError("the a = 1 boundary has no t parameter")
    return ZeroExpectations(
        max_w=d.max_abs_expectation_w, max_wgamma=d.max_abs_expectation_wgamma
    )


#: The names of a certificate record's cells, in order: the scan columns after alpha, a, b and c.
RECORD_KEYS = ("t", "abs_det_M", "abs_det_Mprime", "rank_M", "rank_Mprime",
               "max_expectation_W", "max_expectation_WGamma", "verdict")

#: The record of an a = 1 boundary point: no numbers at all, the Boundary verdict.
_BOUNDARY_CELLS = (None,) * (len(RECORD_KEYS) - 1) + (Verdict.BOUNDARY.value,)


#: Points per stacked pass of the certificate kernel.  Its largest arrays are _form_sums' gathers,
#: (9, 7, n) then (3, 2, 7, n) floats, 504 and 336 KiB at n = 1024; the kernel peaks at 905 KiB on
#: the 1001-step grid, under its memory test's 1,037 KiB bound.  No result depends on the block size.
KERNEL_BLOCK = 1024

#: sigma_min / sigma_max >= |det A| / this for a 9x9 A with unit columns: |det A| / (sigma_min /
#: sigma_max) = sigma_max^2 * prod(middle seven) <= 2 under sum sigma_i^2 = 9, the maximum at
#: sigma_max^2 = 2 with the others at 1.
_RANK9_DET_BOUND = 2

#: Verdict values by code: 0 when the W side fails, 1 when only it passes, 2 for both.
_VERDICT_BY_CODE = np.array(
    [Verdict.NOT_CERTIFIED.value, Verdict.OPTIMAL_ONLY.value, Verdict.INDECOMPOSABLE_OPTIMAL.value],
    dtype=object,
)


def _certificate_columns(weights: np.ndarray, tol: float) -> tuple[list[list], np.ndarray, np.ndarray]:
    """The certificate kernel on an (N, 3) array of valid MapParams weights.

    Returns (columns, dets, ok).  columns is the record: the eight columns of
    RECORD_KEYS (t, |det M|, |det M'|, rank_M, rank_M', max_W, max_WG, verdict)
    as lists of N plain Python numbers, with the _BOUNDARY_CELLS values at a
    point on the a = 1 boundary.  dets (3, N) holds Re and Im of det M, then
    the one value Re det M' = Im det M' (_det_parts); ok (2, N) tells whether
    the W and the W^Gamma side are certified optimal, False on the boundary.
    The family guard (at ON_FAMILY_TOL) and the t check run first, on all N:
    the first point that fails either raises, OffFamilyError before
    NonpositiveTError.  The numerical passes then fill whole-batch columns a
    slice of KERNEL_BLOCK points at a time, a boundary point at a stand-in
    t = 2 whose results are dropped, and the verdict is decided once, after
    the last slice.  A slice works on its (6, n) magnitude columns
    (_magnitudes) in real arithmetic and builds complex product vectors
    (_vectors) only for the points with a span matrix whose |det| leaves
    rank 9 open; every value, determinant and flag has the bits of the
    complex evaluation (tests/oracles.py keeps it as
    certificate_columns_stacked).
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    broken = _family_breaks(weights, ON_FAMILY_TOL)
    a, c = weights[:, 0], weights[:, 2]
    interior = (broken == 0) & (a < 1.0 - BOUNDARY_TOL)
    with np.errstate(all="ignore"):  # only interior t are used, where 1 - a > BOUNDARY_TOL
        t = c / (1.0 - a)
    bad = (broken > 0) | (interior & ~(np.isfinite(t) & (t > 0)))
    if bad.any():
        i = int(np.argmax(bad))
        if broken[i]:  # family_violation of that row names the condition broken[i]
            reason = family_violation(MapParams(*weights[i].tolist()))
            raise OffFamilyError(f"not a family point: {reason}")
        _check_t(t[i])  # t[i] is not a positive finite real
    t[~interior] = 2.0  # a stand-in for the boundary, both determinants clear of the SVD at tol 1e-8
    dets = np.zeros((3, len(t)))  # Re, Im of det M, then Re det M' = Im det M'
    abs_dets, max_exp = np.empty((2, 2, len(t)))
    ranks = np.full((2, len(t)), 9)
    for i in range(0, len(t), KERNEL_BLOCK):
        s = slice(i, i + KERNEL_BLOCK)
        mags = _magnitudes(t[s])
        norm2, diag, pairs = _form_sums(mags, weights[s])
        witness_scale = 1.0 / (3.0 * (weights[s, 0] + weights[s, 1] + weights[s, 2]))
        # The forms <v|W|v>, then <v|W^Gamma|v>, once per distinct form: both witnesses
        # are real symmetric, so each is scale * (sum_k w_k |v_k|^2 - 2 sum_pairs (x_i x_j
        # + y_i y_j)), the first part minus twice the second, times scale = 1/(3(a+b+c))
        # last, so that exact terms that cancel, as at (0, 1, 1), give 0.  Each is taken on
        # the unit vector: |v|^2 grows like t^3.  A side's maximum is over its nine pairs' forms.
        forms = np.abs((diag - 2.0 * pairs) * witness_scale / norm2)
        max_exp[:, s] = forms[_FORM_OF].max(axis=1)
        # det of a column-normalized span matrix = closed form / product of
        # its column norms, divided as reals.  Below t ~ 1e-108 both underflow
        # to 0; the determinant, of order t^1.5, is then 0 too.
        # The (2, 9, n) norms, one gather from the forms' roots, as (2, n, 9): a span matrix's nine in a row.
        norms = np.sqrt(norm2)[_FORM_OF].transpose(0, 2, 1)
        m_scale, mp_scale = np.prod(norms, axis=-1)
        re, im, part = _det_parts(t[s], mags[2])
        for row, num, scale in zip(dets[:, s], (re, im, part), (m_scale, m_scale, mp_scale)):
            np.divide(num, scale, out=row, where=scale > 0)
        np.hypot(dets[0::2, s], dets[1:, s], out=abs_dets[:, s])  # |det M'| is hypot(p, p) of its row
        # Above tol by a roundoff margin, |det| / _RANK9_DET_BOUND proves rank 9.
        need = ~(abs_dets[:, s] > _RANK9_DET_BOUND * tol + 1e-12)
        if need.any():
            # The span matrices of the other columns, from the product vectors of
            # their points alone, normalized by the same norms.
            cols = need.any(axis=0)
            spans = np.swapaxes(_vectors(t[s][cols])[need[:, cols]], -1, -2)
            ranks[:, s][need] = rank_with_tol(spans / norms[need][:, None, :], tol)
    # det 0 proves rank < 9, whatever the SVD counts at a tiny tol (M' at t = 1).
    ok = (max_exp <= tol) & (ranks == 9) & (abs_dets > 0) & interior
    verdicts = _VERDICT_BY_CODE[ok[0] * (1 + ok[1])]
    columns = [t.tolist(), *abs_dets.tolist(), *ranks.tolist(), *max_exp.tolist(), verdicts.tolist()]
    for i in np.flatnonzero(~interior).tolist():
        for column, value in zip(columns, _BOUNDARY_CELLS):
            column[i] = value
    return columns, dets, ok


def _certified(points: list, tol: float) -> tuple[list[Certificate], list[list]]:
    """certify_many's Certificates for a list of points, zipped from the kernel's columns, and its record columns."""
    weights = np.array([(p.a, p.b, p.c) for p in points], dtype=float).reshape(-1, 3)
    columns, dets, ok = _certificate_columns(weights, tol)
    certs, rows = [], zip(points, *columns, *dets.tolist(), *ok.tolist())
    for p, t, _, abs_det_mp, rank_m, rank_mp, max_w, max_wg, verdict, re_m, im_m, part, w_ok, wg_ok in rows:
        if t is None:  # the a = 1 boundary: no determinants, neither side certified
            det_m = det_mp = note = None
        else:
            det_m, det_mp = complex(re_m, im_m), complex(part, part)
            note = _T1_NOTE if abs(t - 1.0) <= T_ONE_WINDOW and (rank_mp < 9 or abs_det_mp == 0) else None
        certs.append(Certificate(
            params=p, t=t, w_optimal=w_ok, wgamma_optimal=wg_ok, verdict=Verdict(verdict),
            diagnostics=CertificateDiagnostics(
                max_abs_expectation_w=max_w, max_abs_expectation_wgamma=max_wg,
                det_m=det_m, det_mprime=det_mp, rank_m=rank_m, rank_mprime=rank_mp, note=note,
            ),
        ))
    return certs, columns


def certify_many(params_seq, tol: float = 1e-8) -> list[Certificate]:
    """Issue the optimality certificates for a sequence of family points.

    The points are certified as one batch, and each certificate is
    bit-for-bit the one certify gives for its point alone: no result
    depends on what else is in the batch.  Every point passes the family
    guard (at ON_FAMILY_TOL, whatever tol) and the t check in sequence order
    before any numerical work, so an error comes from the first offending
    point and carries its values.  The numerical work then runs on blocks of
    KERNEL_BLOCK points, so memory grows only with the results.
    """
    return _certified(list(params_seq), tol)[0]


def certify(p: MapParams, tol: float = 1e-8) -> Certificate:
    """Issue the optimality certificate for a family point: certify_many of one.

    On the a = 1 boundary the verdict is Boundary and no numbers are
    produced.  Otherwise each witness side is certified optimal when its
    nine expectations on unit vectors vanish within tol and its column-normalized span
    matrix has full rank at relative tolerance tol (proven from its determinant
    where that suffices, else counted by the SVD); both sides together
    give IndecomposableOptimal.  A failed test yields OptimalOnly or
    NotCertified, which mean "not certified by this test", never a proof
    of non-optimality.
    """
    return certify_many([p], tol)[0]
