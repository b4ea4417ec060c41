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
from choiwit import span_matrix, witness_matrix
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
