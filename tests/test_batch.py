"""Batch invariance of the certificate kernel: a point's certificate does not
depend on what else is in the batch."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiwit import Verdict, certify, certify_many, family_from_alpha
from choiwit.maps import ALPHA_MAX, ALPHA_MIN
from oracles import certificate_flags

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


@settings(max_examples=20, deadline=None)
@given(st.lists(ALPHAS, min_size=1, max_size=70), st.sampled_from([1e-8, 1e-12, 1e-16, 0.5]))
def test_flags_and_verdict_follow_the_per_point_rule(alphas, tol):
    # The kernel decides the verdict in numpy and each flag on its own side.
    for cert in certify_many([family_from_alpha(a).params for a in alphas], tol):
        d = cert.diagnostics
        if cert.t is None:
            assert (cert.w_optimal, cert.wgamma_optimal, cert.verdict) == (False, False, Verdict.BOUNDARY)
            continue
        numbers = (d.max_abs_expectation_w, d.max_abs_expectation_wgamma, d.rank_m, d.rank_mprime)
        assert (cert.w_optimal, cert.wgamma_optimal, cert.verdict.value) == certificate_flags(*numbers, tol)


def test_certify_many_of_nothing():
    assert certify_many([]) == []
