"""Batch invariance of the certificate kernel: a point's certificate and a
matrix's determinant do not depend on what else is in the batch."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiwit import certify, certify_many, family_from_alpha, lu_det
from choiwit.maps import ALPHA_MAX, ALPHA_MIN
from oracles import lu_det_loop

# Interior angles, kept clear of the end windows where c rounds to 0 and the
# certificate raises; the ends themselves and t = 1 are mixed in as well.
ALPHAS = st.one_of(
    st.floats(ALPHA_MIN + 1e-7, ALPHA_MAX - 1e-7),
    st.sampled_from([ALPHA_MIN, ALPHA_MAX, math.pi]),
)


def _bits(value):
    """A key that distinguishes every bit of floats and complexes, signed zeros included."""
    if isinstance(value, complex):
        return ("complex", value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return ("float", value.hex())
    if hasattr(value, "__dataclass_fields__"):
        return tuple((name, _bits(getattr(value, name))) for name in value.__dataclass_fields__)
    return (type(value).__name__, value)


@pytest.mark.parametrize("size", [1, 63, 64, 65, 130])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_certify_many_matches_certify_alone(size, data):
    alphas = data.draw(st.lists(ALPHAS, min_size=size, max_size=size))
    params = [family_from_alpha(a).params for a in alphas]
    for p, cert in zip(params, certify_many(params)):
        assert _bits(cert) == _bits(certify(p))


def test_certify_many_of_nothing():
    assert certify_many([]) == []


def _singular(m):
    m = m.copy()
    m[:, 3] = m[:, 7]
    return m


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6), small_ints=st.booleans())
def test_batched_lu_det_matches_the_loop(seed, count, small_ints):
    rng = np.random.default_rng(seed)

    def draw():
        if small_ints:  # exact zero pivots and ties in the pivot search
            return rng.integers(-2, 3, (count, 9, 9)).astype(float)
        return rng.standard_normal((count, 9, 9))

    base = list(draw() + 1j * draw())
    stack = base + [_singular(m) for m in base] + [m[rng.permutation(9)] for m in base]
    dets = lu_det(np.array(stack))
    for m, det in zip(stack, dets):
        expected = lu_det_loop(m)
        assert _bits(complex(det)) == _bits(expected)
        assert _bits(lu_det(m)) == _bits(expected)


def test_zero_pivot_stays_in_its_slot():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    z = a.copy()
    z[:, 2] = 0.0  # the third pivot is an exact zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dets = lu_det(np.array([a, z, b]))
    assert not np.isnan(dets).any()
    assert dets[1] == 0
    assert _bits(complex(dets[0])) == _bits(lu_det_loop(a))
    assert _bits(complex(dets[2])) == _bits(lu_det_loop(b))
