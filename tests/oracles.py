"""Independent oracles used only by the tests.

These deliberately avoid the code paths they check: rank by explicit row
reduction (the library uses singular values), eigenvalues of Hermitian 3x3
matrices by solving the characteristic cubic in closed form (the library
uses LAPACK through np.linalg.eigvalsh), traces by explicit double loops.
The exceptions are former library routines kept verbatim as references:
- separable_sample_min_einsum, the complex sampler that the library's
  Hermitian-coordinate one must match up to roundoff;
- separable_sample_min_blocked, the former Hermitian-coordinate sampler on
  fresh arrays in every block, which the library's sampler on reused block
  buffers must match bit for bit;
- witness_matrix_loop, pair_arrays_loop and record_to_csv_row, the
  per-point witness, the per-entry pair tables and the per-cell CSV row
  that witness_matrix, the pair-table gather and the scan row formatter
  must match bit for bit and byte for byte;
- product_vectors_outer and span_columns, the product vectors as one
  broadcast outer product of pair_arrays_loop's tables and the C-contiguous
  span matrices, which optimality._vectors, the same outer product of the
  library's gathered pair tables, and span_matrix must match bit for bit,
  signed zeros included;
- scan_record, the record of one certificate, which the scan rows zipped
  from the certificate kernel's columns must equal value for value;
- certificate_flags, the per-point verdict rule that the certificate
  kernel's numpy verdict must agree with;
- span_ranks_svd, the certificate kernel's former rank path, one singular
  value decomposition of every column-normalized span matrix, whose ranks
  the kernel's rank cells must equal where the determinant bound decides
  them as well as where the SVD still does;
- family_weights_scalar, the former one-angle family formulas, whose range
  guard the batched maps.family_weights must match message for message;
- parse_state_text_loop, the former state parser with one numpy item
  assignment per entry, whose matrix and error messages
  witness.parse_state_text must match bit for bit and word for word.
- witness_forms_stacked and certificate_columns_stacked, the certificate
  kernel's former forms and numerical passes on complex (2, n, 9, 9) vector
  stacks, whose cells, determinants and flags the kernel's real magnitude
  columns must give bit for bit.
witness_forms_float is the certificate kernel's witness forms and their
maxima on unit vectors, one Python float operation at a time in the order
witness_forms_stacked documents, from literal tables of the witness
entries; witness_forms_stacked and the kernel's maxima must match it bit
for bit.
The family weights themselves are checked against family_weights_decimal,
the half-angle forms at 40 significant digits with a Taylor sine, and a
against family_a_decimal, its own half angle at 60 digits.
falsifier_minimum is the closed-form minimum that positivity_search must
reach on maps that are not positive.
Determinants need no oracle here: the library's lu_det is itself the
cross-check of the closed forms that the certificate uses, and
tests/test_exact.py proves those closed forms in exact integer arithmetic.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

from choiwit import DensityMatrix, InvalidStateError, rank_with_tol
from choiwit.maps import BOUNDARY_TOL
from choiwit.optimality import _BOUNDARY_CELLS, _RANK9_DET_BOUND, _VERDICT_BY_CODE, _det_parts, _vectors
from choiwit.witness import _OFF_ENTRIES, _UPPER, _WEIGHT_ENTRIES, SAMPLE_BLOCK, _form_matrix


def rank_row_reduction(mat, tol=1e-8):
    """Numerical rank via Gauss-Jordan elimination with partial pivoting."""
    a = np.asarray(mat, dtype=complex).copy()
    n, m = a.shape
    scale = max(float(np.abs(a).max()), 1e-300)
    rank = 0
    row = 0
    for col in range(m):
        p = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[p, col]) <= tol * scale:
            continue
        a[[row, p]] = a[[p, row]]
        a[row] = a[row] / a[row, col]
        for r in range(n):
            if r != row:
                a[r] -= a[r, col] * a[row]
        rank += 1
        row += 1
        if row == n:
            break
    return rank


def separable_sample_min_einsum(w, n, seed):
    """Minimum of <x (x) y|w|x (x) y> over the documented sampling protocol.

    Four (n, 3) draws (x real, x imaginary, y real, y imaginary), complex
    norms and one complex three-operand einsum.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    v = np.einsum("ni,nj->nij", x, y).reshape(n, 9)
    values = np.einsum("ni,ij,nj->n", v.conj(), np.asarray(w, dtype=complex), v).real
    return float(values.min())


def separable_sample_min_blocked(w, n, seed):
    """The former witness.separable_sample_check on a 9x9 matrix w, block by block on fresh arrays.

    The same draw and blocks of SAMPLE_BLOCK samples; each block takes its coordinates
    from strided views of the draw, four fancy-index copies, nine products and sums and
    one np.concatenate, then K q, the einsum and the norms as fresh arrays.
    """
    form = _form_matrix(np.asarray(w, dtype=complex))
    g = np.random.default_rng(seed).standard_normal((2, 2, n, 3))  # [x, y] x [re, im]
    i, k = _UPPER
    low = np.inf
    for lo in range(0, n, SAMPLE_BLOCK):
        re, im = g[:, :, lo : lo + SAMPLE_BLOCK].transpose(1, 0, 3, 2)
        ri, rk, si, sk = re[..., i, :], re[..., k, :], im[..., i, :], im[..., k, :]
        p, q = np.concatenate([re * re + im * im, ri * rk + si * sk, ri * sk - si * rk], axis=-2)
        values = np.einsum("an,an->n", p, form @ q) / (p[:3].sum(axis=0) * q[:3].sum(axis=0))
        low = min(low, float(values.min()))
    return low


def witness_matrix_loop(p):
    """The witness matrix for a MapParams p, one diagonal and three entry pairs at a time."""
    scale = 1.0 / (3.0 * p.total)
    diag = np.array([p.a, p.b, p.c, p.c, p.a, p.b, p.b, p.c, p.a])
    mat = np.diag(diag).astype(complex) * scale
    for i, j in ((0, 4), (0, 8), (4, 8)):
        mat[i, j] = -scale
        mat[j, i] = -scale
    return mat


def pair_arrays_loop(t):
    """psi and phi of the nine pairs for each entry of the array t, one entry at a time."""
    s = np.sqrt(t)
    mt = -t * 1j
    psi = [
        [1, 1, 1],
        [1, -1, 1],
        [1, 1j, -1j],
        [0, s, 1],
        [0, s, 1j],
        [1, 0, s],
        [1j, 0, s],
        [s, 1, 0],
        [s, 1j, 0],
    ]
    phi = [
        [1, 1, 1],
        [1, -1, 1],
        [1, -1j, 1j],
        [0, s, t],
        [0, s, mt],
        [t, 0, s],
        [mt, 0, s],
        [s, t, 0],
        [s, mt, 0],
    ]
    out = np.empty((2, len(t), 9, 3), dtype=complex)
    for m, table in enumerate((psi, phi)):
        for k, row in enumerate(table):
            for j, entry in enumerate(row):
                out[m, :, k, j] = entry
    return out[0], out[1]


def product_vectors_outer(t):
    """(2, N, 9, 9) product vectors at each entry of the array t: psi_k (x) phi_k, then psi_k (x) conj(phi_k).

    Row k - 1 of each 9x9 holds pair k, entry 3*i + j = psi_k[i] * phi_k[j],
    from the pair tables of pair_arrays_loop and one broadcast outer product.
    """
    psi, phi = pair_arrays_loop(np.asarray(t, dtype=float))
    outer = psi[..., :, None] * np.stack([phi, phi.conj()])[..., None, :]
    return outer.reshape(outer.shape[:-2] + (9,))


def span_columns(vectors):
    """Span matrices with the given row vectors as columns, C-contiguous."""
    return np.ascontiguousarray(np.swapaxes(vectors, -1, -2))


def family_weights_scalar(alpha):
    """(a, b, c) of the family point at alpha, one angle at a time with Python floats.

    Raises ValueError (OutOfRangeError in the library) for an angle out of
    range and ArithmeticError off the family.
    """
    alpha = float(alpha)
    if not (math.pi / 3 - 1e-12 <= alpha <= 5 * math.pi / 3 + 1e-12):
        raise ValueError(
            f"alpha must lie in [pi/3, 5*pi/3], got {alpha!r}"
        )
    cos, sin = math.cos(alpha), math.sin(alpha)
    a = (2.0 / 3.0) * (1.0 + cos)
    b = (2.0 / 3.0) * (1.0 - cos / 2.0 - math.sqrt(3.0) / 2.0 * sin)
    c = (2.0 / 3.0) * (1.0 - cos / 2.0 + math.sqrt(3.0) / 2.0 * sin)
    # Values that are zero in closed form may round to tiny negatives.
    if -1e-12 <= a < 0.0:
        a = 0.0
    if -1e-12 <= b < 0.0:
        b = 0.0
    if -1e-12 <= c < 0.0:
        c = 0.0
    if abs(a + b + c - 2.0) > 1e-12 or abs(b * c - (1.0 - a) ** 2) > 1e-12:
        raise ArithmeticError(f"family conditions violated at alpha={alpha!r}")
    return a, b, c


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _sin_decimal(x):
    """sin(x) for a Decimal x of modest size, by its Taylor series to the context precision."""
    term = total = x
    k = 1
    while True:
        term = -term * x * x / ((2 * k) * (2 * k + 1))
        k += 1
        if total + term == total:
            return total
        total += term


def family_weights_decimal(alpha):
    """(a, b, c, 1 - a) of the family point at the float alpha, as 40-digit Decimals.

    The half-angle forms of perfbench/oracle.family_triple, with pi to 60
    digits; no term cancels near either end.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        x, pi, third = Decimal(alpha), +_PI, Decimal(4) / 3
        one_minus_a = third * _sin_decimal((x + pi / 3) / 2) * _sin_decimal((x - pi / 3) / 2)
        b = third * _sin_decimal(pi / 4 - (x + pi / 6) / 2) ** 2
        c = third * _sin_decimal(pi / 4 + (x - pi / 6) / 2) ** 2
        return 1 - one_minus_a, b, c, one_minus_a


def family_a_decimal(alpha):
    """a = (4/3) sin^2((pi - alpha)/2) of the family point at the float alpha, as a 60-digit Decimal.

    Computed directly, so it resolves a near pi to 60 significant digits,
    where 1 - (1 - a) from family_weights_decimal holds only about 40 digits
    of 1.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(4) / 3 * _sin_decimal((_PI - Decimal(alpha)) / 2) ** 2


def witness_forms_float(weights, vectors):
    """(forms, maxima) of an (N, 3) weight array against a (2, N, k, 9) complex vector stack.

    forms (2, N, k) holds <v|W|v> on side 0 and <v|W^Gamma|v> on side 1 as
    scale * (sum_k w_k |v_k|^2 - 2 sum_pairs (x_i x_j + y_i y_j)) with v = x + iy and
    scale = 1/(3(a+b+c)), one Python float operation at a time: each |v_k|^2 as
    x*x + y*y; the entries of a (0, 4, 8), of b (1, 5, 6) and of c (2, 3, 7) added in
    that order and times their weight, the three products added a, b, c; the pair
    terms x_i x_j + y_i y_j added to 0.0 in the order (0,4), (0,8), (4,8) for W and
    (1,3), (2,6), (5,7) for W^Gamma; the diagonal part minus twice the pair part;
    times scale.  maxima (2, N) is max over k of |form / |v|^2|, with |v|^2 the
    entries' x*x + y*y added to 0 in index order.
    """
    vectors = np.asarray(vectors)
    forms = np.empty(vectors.shape[:-1])
    maxima = np.empty(vectors.shape[:-2])
    for side, pairs in enumerate((((0, 4), (0, 8), (4, 8)), ((1, 3), (2, 6), (5, 7)))):
        for n, (a, b, c) in enumerate(np.asarray(weights, dtype=float).tolist()):
            scale = 1.0 / (3.0 * (a + b + c))
            largest = 0.0
            for k, v in enumerate(vectors[side, n].tolist()):
                x = [z.real for z in v]
                y = [z.imag for z in v]
                sq = [xi * xi + yi * yi for xi, yi in zip(x, y)]
                diag = a * (sq[0] + sq[4] + sq[8]) + b * (sq[1] + sq[5] + sq[6]) + c * (sq[2] + sq[3] + sq[7])
                pair = 0.0
                for i, j in pairs:
                    pair += x[i] * x[j] + y[i] * y[j]
                forms[side, n, k] = form = (diag - 2.0 * pair) * scale
                largest = max(largest, abs(form / sum(sq)))
            maxima[side, n] = largest
    return forms, maxima


def witness_forms_stacked(weights, vectors, sq):
    """The real forms <v|W|v>, then <v|W^Gamma|v>, of a (2, N, k, 9) vector stack: (2, N, k).

    Side 0 of ``vectors`` goes against W, side 1 against W^Gamma, of the N rows of valid
    MapParams ``weights``; ``sq`` is the stack's re*re + im*im.  Both witnesses are real
    symmetric, so with v = x + iy each form is scale * (sum_k w_k sq_k - 2 sum_pairs
    (x_i x_j + y_i y_j)) over the side's _OFF_ENTRIES, in elementwise float operations in
    this order: the three sq entries of a, of b and of c added in index order and times
    their weight, those three added a, b, c; each pair's x_i x_j + y_i y_j, added in table
    order; the first part minus twice the second; times scale = 1/(3(a+b+c)) last.
    """
    x, y = vectors.real, vectors.imag
    diag = sum(
        wk[:, None] * (sq[..., i] + sq[..., j] + sq[..., k]) for wk, (i, j, k) in zip(weights.T, _WEIGHT_ENTRIES)
    )
    pairs = np.stack([
        sum(xs[..., i] * xs[..., j] + ys[..., i] * ys[..., j] for i, j in entries)
        for xs, ys, entries in zip(x, y, _OFF_ENTRIES)
    ])
    scale = 1.0 / (3.0 * (weights[:, 0] + weights[:, 1] + weights[:, 2]))
    return (diag - 2.0 * pairs) * scale[:, None]


def certificate_columns_stacked(weights, tol, block=64):
    """(cells, dets, ok) of the certificate kernel on valid family weights, from complex vector stacks.

    The kernel's former numerical passes, in slices of block points: each slice's
    (2, n, 9, 9) product vectors from optimality._vectors, their re*re + im*im
    summed entry by entry into the squared column norms, the forms from
    witness_forms_stacked, and the span matrices of every column whose |det|
    leaves rank 9 open cut from the slice's whole stack.  No family guard runs.
    """
    a, c = weights[:, 0], weights[:, 2]
    interior = a < 1.0 - BOUNDARY_TOL
    with np.errstate(all="ignore"):
        t = c / (1.0 - a)
    t[~interior] = 2.0
    dets = np.zeros((4, len(t)))
    abs_dets, max_exp = np.empty((2, 2, len(t)))
    ranks = np.full((2, len(t)), 9)
    for i in range(0, len(t), block):
        s = slice(i, i + block)
        vectors = _vectors(t[s])
        sq = vectors.real * vectors.real + vectors.imag * vectors.imag
        norm2 = sum(np.moveaxis(sq, -1, 0))
        norms = np.sqrt(norm2)
        forms = witness_forms_stacked(weights[s], vectors, sq)
        max_exp[:, s] = np.abs(forms / norm2).max(axis=-1)
        m_scale, mp_scale = np.prod(norms, axis=-1)
        re, im, part = _det_parts(t[s], np.sqrt(t[s]))
        for row, num, scale in zip(dets[:, s], (re, im, part, part), (m_scale, m_scale, mp_scale, mp_scale)):
            np.divide(num, scale, out=row, where=scale > 0)
        np.hypot(dets[0::2, s], dets[1::2, s], out=abs_dets[:, s])
        need = ~(abs_dets[:, s] > _RANK9_DET_BOUND * tol + 1e-12)
        if need.any():
            spans = np.swapaxes(vectors[need], -1, -2)
            ranks[:, s][need] = rank_with_tol(spans / norms[need][:, None, :], tol)
    ok = (max_exp <= tol) & (ranks == 9) & (abs_dets > 0) & interior
    verdicts = _VERDICT_BY_CODE[ok[0] * (1 + ok[1])]
    rows = zip(t.tolist(), *abs_dets.tolist(), *ranks.tolist(), *max_exp.tolist(), verdicts)
    cells = [row if inside else _BOUNDARY_CELLS for row, inside in zip(rows, interior.tolist())]
    return cells, dets, ok


def falsifier_minimum(a, b, c):
    """(sigma*, -sigma*/(a+b+c)) for weights with 0 <= a < 1.

    sigma* = max(0, (2-a-b-c)/3, ((1-a)^2 - bc)/(b+c+2(1-a))) is the least
    sigma whose shifted weights (a+sigma, b+sigma, c+sigma) pass the
    Cho-Kye-Lee criterion (a+b+c >= 2, and a <= 1 implies bc >= (1-a)^2).
    Adding sigma to all three weights adds sigma*I to (a+b+c) Phi(|x><x|),
    so when sigma* > 0 the smallest eigenvalue of Phi(|x><x|) over unit x
    is -sigma*/(a+b+c).
    """
    sigma = max(0.0, (2.0 - a - b - c) / 3.0, ((1.0 - a) ** 2 - b * c) / (b + c + 2.0 * (1.0 - a)))
    return sigma, -sigma / (a + b + c)


def certificate_flags(t, max_w, max_wgamma, rank_m, rank_mprime, tol):
    """(w_optimal, wgamma_optimal, verdict value) of a certificate off the boundary at t.

    Each side is decided on its own numbers; the verdict follows from the
    two flags.  A side whose span matrix has determinant 0 is never
    certified, whatever rank it was given.  The closed forms decide that:
    det M = 8 t^4 sqrt(t) ((t^2 - 1)(2t - sqrt(t) + 2) - i t (1 + t)(t - 4 sqrt(t) + 1))
    has no zero for t > 0 (its imaginary part vanishes only at sqrt(t) = 2 +- sqrt(3),
    where its real part does not), and det M' = -8 t^4 sqrt(t) (t - 1)^3 (1 + i).
    """
    det_mprime = -8 * t**4 * math.sqrt(t) * (t - 1) ** 3
    w_optimal = max_w <= tol and rank_m == 9
    wgamma_optimal = max_wgamma <= tol and rank_mprime == 9 and det_mprime != 0
    if w_optimal and wgamma_optimal:
        return w_optimal, wgamma_optimal, "IndecomposableOptimal"
    return w_optimal, wgamma_optimal, "OptimalOnly" if w_optimal else "NotCertified"


def span_ranks_svd(t, tol):
    """(2, N) ranks of M and M' at each entry of the array t, from an SVD of every span matrix.

    The matrices are built by the former construction and their columns
    normalized, then all 2N go through one rank_with_tol call.
    """
    spans = span_columns(product_vectors_outer(t))
    norms = np.sqrt(np.add.reduce(spans.real * spans.real + spans.imag * spans.imag, axis=-2))
    spans /= norms[..., None, :]
    return rank_with_tol(spans, tol)


def scan_record(alpha, cert):
    """The record of a certificate at angle alpha; its keys follow the scan CSV header in order."""
    p = cert.params
    d = cert.diagnostics
    return {
        "alpha": alpha,
        "a": p.a,
        "b": p.b,
        "c": p.c,
        "t": cert.t,
        "abs_det_M": None if d.det_m is None else abs(d.det_m),
        "abs_det_Mprime": None if d.det_mprime is None else abs(d.det_mprime),
        "rank_M": d.rank_m,
        "rank_Mprime": d.rank_mprime,
        "max_expectation_W": d.max_abs_expectation_w,
        "max_expectation_WGamma": d.max_abs_expectation_wgamma,
        "verdict": cert.verdict.value,
    }


def record_to_csv_row(rec, header):
    """One scan CSV line (no newline), one cell at a time in the columns of header."""
    cells = []
    for key in header.split(","):
        value = rec[key]
        if value is None:
            cells.append("")
        elif isinstance(value, str):
            cells.append(value)
        elif isinstance(value, int):
            cells.append(str(value))
        else:
            cells.append(f"{value:.17g}")
    return ",".join(cells)


def _det3(b):
    return (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )


def eig3_cubic_roots(h):
    """All three eigenvalues of a Hermitian 3x3 matrix, ascending.

    Solves the characteristic cubic analytically (trigonometric form for
    three real roots); no iteration involved.
    """
    h = np.asarray(h, dtype=complex)
    p1 = abs(h[0, 1]) ** 2 + abs(h[0, 2]) ** 2 + abs(h[1, 2]) ** 2
    q = float(np.trace(h).real) / 3.0
    if p1 == 0.0:
        return sorted(float(h[i, i].real) for i in range(3))
    p2 = sum((float(h[i, i].real) - q) ** 2 for i in range(3)) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = (h - q * np.eye(3)) / p
    r = float(_det3(b).real) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    big = q + 2.0 * p * math.cos(phi)
    small = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    middle = 3.0 * q - big - small
    return sorted((small, middle, big))


def eig3_min_cubic(h):
    """Smallest eigenvalue from the cubic-root oracle."""
    return eig3_cubic_roots(h)[0]


def trace_product(a, b):
    """tr(a @ b) by explicit double loop."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    total = 0j
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += a[i, j] * b[j, i]
    return total


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def parse_state_text_loop(text):
    """The former witness.parse_state_text: 81 numpy item assignments into a zeroed matrix."""
    rows = [line for line in text.splitlines() if line.strip()]
    if len(rows) != 9:
        raise InvalidStateError(f"state file must have 9 nonempty lines, got {len(rows)}")
    mat = np.zeros((9, 9), dtype=complex)
    for i, line in enumerate(rows):
        entries = line.split()
        if len(entries) != 9:
            raise InvalidStateError(
                f"line {i + 1} must have 9 entries, got {len(entries)}"
            )
        for j, token in enumerate(entries):
            try:
                mat[i, j] = complex(token)
            except ValueError as exc:
                raise InvalidStateError(
                    f"line {i + 1}, entry {j + 1}: cannot parse {token!r}"
                ) from exc
    return DensityMatrix(mat)
