"""Exact proofs, in integer arithmetic, of the identities the certificate rests on.

Every object below is a polynomial in s = sqrt(t) over the Gaussian integers
Z[i].  A polynomial of degree at most d that vanishes at d + 1 distinct
points vanishes identically, so checking an identity at enough integer s
proves it for every t > 0.  Gaussian integers are (re, im) pairs of Python
ints.  Determinants use fraction-free Bareiss elimination (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968), whose divisions are all exact.

The matrices and vectors are the library's own, read at integer s where all
their entries are small integers and hence exact in floating point.  The
closed forms are the library's own routine, evaluated on Python ints.
"""

from fractions import Fraction

import numpy as np

from choiwit import MapParams, det_closed_form, partial_transpose_second, product_vectors
from choiwit import detect, ppt_state, span_matrix, witness_matrix
from choiwit.optimality import _det_parts


def _gauss(z):
    """The Gaussian integer equal to a complex float with integral parts."""
    re, im = int(z.real), int(z.imag)
    assert (re, im) == (z.real, z.imag)
    return re, im


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _div_exact(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    re, im = _mul(x, (y[0], -y[1]))
    assert re % norm == 0 and im % norm == 0
    return re // norm, im // norm


def bareiss_det(mat):
    """Exact determinant of a square matrix of Gaussian integers."""
    a = [[_gauss(z) for z in row] for row in np.asarray(mat, dtype=complex)]
    n = len(a)
    sign, prev = 1, (1, 0)
    for k in range(n - 1):
        if a[k][k] == (0, 0):
            swap = next((i for i in range(k + 1, n) if a[i][k] != (0, 0)), None)
            if swap is None:
                return 0, 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                left, right = _mul(a[i][j], a[k][k]), _mul(a[i][k], a[k][j])
                a[i][j] = _div_exact((left[0] - right[0], left[1] - right[1]), prev)
        prev = a[k][k]
    return sign * a[-1][-1][0], sign * a[-1][-1][1]


def _form(w, v):
    """<v|W|v> for Gaussian-integer W and v."""
    total = [0, 0]
    for i in range(len(v)):
        vi = (v[i][0], -v[i][1])
        for j in range(len(v)):
            term = _mul(vi, _mul(w[i][j], v[j]))
            total[0] += term[0]
            total[1] += term[1]
    return tuple(total)


def test_bareiss_matches_numpy_on_small_integers():
    rng = np.random.default_rng(11)
    for n in (1, 3, 9):
        for _ in range(10):
            # 0/1 real parts give zero pivots; the imaginary parts, complex ones.
            m = rng.integers(0, 2, (n, n)) + 1j * rng.integers(-1, 2, (n, n))
            det = np.linalg.det(m)
            assert bareiss_det(m) == (round(det.real), round(det.imag))
    assert bareiss_det(np.eye(9)[::-1]) == (1, 0)  # four row swaps
    assert bareiss_det(np.ones((9, 9))) == (0, 0)


def test_span_determinants_equal_closed_forms():
    # psi has entries of degree <= 1 in s and phi of degree <= 2, so each
    # span-matrix entry has degree <= 3 and each determinant degree <= 27.
    # The closed forms have degree <= 15.  28 points prove the identities.
    for s in range(1, 29):
        t = s * s
        for pair in product_vectors(t):
            assert {abs(z) for z in pair.psi} <= {0, 1, s}
            assert {abs(z) for z in pair.phi} <= {0, 1, s, t}
        re, im, part = _det_parts(t, s)
        for conjugated, closed in ((False, (re, im)), (True, (part, part))):
            assert bareiss_det(span_matrix(t, conjugated).mat) == closed
            # The library's float evaluation of the same routine.
            value = det_closed_form(float(t), conjugated)
            assert abs(value - complex(*closed)) <= 1e-14 * abs(complex(*closed))


def _scaled_witness(s):
    """6 D W with D = t^2 - t + 1: the witness at a = (t-1)^2/D, b = 1/D, c = t^2/D.

    The weights sum to 2, so W has a/6, b/6, c/6 on the diagonal and -1/6 at
    the off-diagonal slots; 6 D W has (t-1)^2, 1, t^2 and -D there.  The
    slots are read off the library's witness at weights (1, 2, 4).
    """
    t = s * s
    d = t * t - t + 1
    probe = witness_matrix(MapParams(1, 2, 4))
    slots = np.rint((probe.mat / probe.scale).real)
    value = {0: 0, 1: (t - 1) * (t - 1), 2: 1, 4: t * t, -1: -d}
    return np.vectorize(value.get)(slots).astype(float)


def test_zero_expectations_vanish():
    # 6 D W has entries of degree <= 4 in s and each product vector entries
    # of degree <= 3, so each of the 18 expectations has degree <= 10.
    # 11 points prove that it vanishes for every t > 0.
    for s in range(1, 12):
        t = s * s
        w = _scaled_witness(s)
        for conjugated, mat in ((False, w), (True, partial_transpose_second(w))):
            gw = [[_gauss(z) for z in row] for row in mat]
            vectors = span_matrix(t, conjugated).mat.T
            for v in vectors:
                assert _form(gw, [_gauss(z) for z in v]) == (0, 0)


def test_family_identities():
    # With D = t^2 - t + 1, the weights a = (t-1)^2/D, b = 1/D, c = t^2/D lie
    # on the family and have c/(1 - a) = t.  Cleared of D, each identity is
    # a polynomial one of degree <= 4 in t; 11 points prove it.
    for t in range(1, 12):
        d = t * t - t + 1
        a, b, c = Fraction((t - 1) ** 2, d), Fraction(1, d), Fraction(t * t, d)
        assert a + b + c == 2
        assert b * c == (1 - a) ** 2
        assert c / (1 - a) == t
        assert 0 <= a < 1


def test_determinant_factor_facts():
    # The closed forms factor as
    #   Re det M  = 8 t^4 s (t - 1)(t + 1)(2 s^2 - s + 2),
    #   Im det M  = -8 t^5 (t + 1)(t - 4 s + 1),
    #   det M'    = -8 t^4 s (t - 1)^3 (1 + i),
    # each of degree <= 15 in s; 16 points prove the factorizations.
    for s in range(1, 17):
        t = s * s
        re, im, part = _det_parts(t, s)
        assert re == 8 * t**4 * s * (t - 1) * (t + 1) * (2 * s * s - s + 2)
        assert im == -8 * t**5 * (t + 1) * (t - 4 * s + 1)
        assert part == -8 * t**4 * s * (t - 1) ** 3
    # For t > 0, Re det M vanishes only at t = 1: 2 s^2 - s + 2 has negative
    # discriminant, so no real root.  Im det M is nonzero there.
    assert 1 - 4 * 2 * 2 < 0
    assert _det_parts(1, 1)[1] == 32
    # det M' vanishes only at t = 1, to third order.
    assert _det_parts(1, 1)[2] == 0


def _ppt_state(t):
    """rho(t): lam J on {|00>, |11>, |22>}, lam t on |01>, |12>, |20>, lam / t on |10>, |21>, |02>.

    lam = 1 / (3 (1 + t + 1/t)) makes the trace 1.  Entries are exact for
    Fraction t and floats for float t, as a 9x9 list of lists.
    """
    lam = 1 / (3 * (1 + t + 1 / t))
    rho = [[0 * t] * 9 for _ in range(9)]
    for i in (0, 4, 8):
        for k in (0, 4, 8):
            rho[i][k] = lam
    for i, j in ((0, 1), (1, 2), (2, 0)):
        rho[3 * i + j][3 * i + j] = lam * t
        rho[3 * j + i][3 * j + i] = lam / t
    return rho, lam


def _partial_transpose(rho):
    """Transpose of the second factor: entry (3i + j, 3k + l) moves to (3i + l, 3k + j)."""
    out = [[None] * 9 for _ in range(9)]
    for i, j, k, l in np.ndindex(3, 3, 3, 3):
        out[3 * i + l][3 * k + j] = rho[3 * i + j][3 * k + l]
    return out


def _family_weights(t):
    d = t * t - t + 1
    return (t - 1) ** 2 / d, 1 / d, t * t / d


def test_ppt_state_is_detected_exactly():
    # rho(t) is PPT and tr(W rho) = -a lam / 2 < 0 for t != 1, so W detects
    # a PPT state and is not decomposable: a decomposable W = P + Q^Gamma
    # has tr(W rho) = tr(P rho) + tr(Q rho^Gamma) >= 0 on every PPT state.
    # Which entries are nonzero does not depend on t, and each 2x2
    # determinant of rho^Gamma is (lam t)(lam / t) - lam^2 = 0 for every t.
    # Cleared of D = t^2 - t + 1 and t^2 + t + 1, the trace identity is a
    # polynomial one of degree <= 3 in t; 4 points prove it, 11 are checked.
    probe = witness_matrix(MapParams(1, 2, 4))
    slots = np.rint((probe.mat / probe.scale).real).astype(int).tolist()
    for t in [Fraction(k) for k in range(1, 11)] + [Fraction(3, 2)]:
        a, b, c = _family_weights(t)
        rho, lam = _ppt_state(t)
        assert lam > 0 and sum(rho[i][i] for i in range(9)) == 1
        # rho >= 0: lam J on {0, 4, 8}, plus a diagonal of positive entries.
        for i, k in np.ndindex(9, 9):
            if i != k and rho[i][k]:
                assert {i, k} <= {0, 4, 8} and rho[i][k] == lam
        assert all(rho[i][i] > 0 for i in range(9))
        # rho^Gamma >= 0: 1x1 blocks lam on |ii> and 2x2 blocks on {|ik>, |ki>}
        # with determinant 0 and positive trace.
        pt = _partial_transpose(rho)
        for i, k in np.ndindex(3, 3):
            x, y = 3 * i + k, 3 * k + i
            if x != y:
                assert pt[x][x] * pt[y][y] - pt[x][y] * pt[y][x] == 0 and pt[x][x] + pt[y][y] > 0
            others = [pt[x][z] for z in range(9) if z not in (x, y)]
            assert pt[x][x] > 0 and not any(others)
        # tr(W rho), with W = (1/6) [a, b, c on the diagonal slots, -1 off it].
        weight = {0: 0, 1: a, 2: b, 4: c, -1: -1}
        trace = sum(weight[slots[i][k]] * rho[k][i] for i, k in np.ndindex(9, 9)) / 6
        assert trace == -a * lam / 2
        if t == Fraction(3, 2):
            assert (a, trace) == (Fraction(1, 7), Fraction(-1, 133))


def test_ppt_state_detection_in_floats():
    # ppt_state evaluates the builder's float expressions, so it equals the
    # builder bit for bit, and each entry lies within a few ulps of the exact
    # Fraction value.  detect evaluates tr(W rho) in floating point on the
    # family point with the same t.
    eps = Fraction(np.finfo(float).eps)
    for t in np.geomspace(0.01, 77, 60).tolist():
        a, b, c = _family_weights(t)
        rho, lam = _ppt_state(t)
        state = ppt_state(t)
        assert state.mat.tobytes() == np.array(rho, dtype=complex).tobytes()
        exact, _ = _ppt_state(Fraction(t))
        for i, k in np.ndindex(9, 9):
            assert state.mat[i, k].imag == 0
            assert abs(Fraction(state.mat[i, k].real) - exact[i][k]) <= 8 * eps * exact[i][k]
        assert np.linalg.eigvalsh(partial_transpose_second(state.mat)).min() >= -1e-15
        assert abs(detect(witness_matrix(MapParams(a, b, c)), state) + a * lam / 2) <= 1e-16
