"""Batch invariance of the certificate kernel: a point's certificate does not
depend on what else is in the batch."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiwit import MapParams, Verdict, certify, certify_many, family_from_alpha
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


def _error(call):
    """(type, message) of the ValueError call raises, or None when it returns."""
    try:
        call()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


# Four kinds of point: family points (at 5pi/3 - 1e-8, c rounds to 0 and
# t = 0), off-family triples (one whose weight sum overflows), c = 0 with a
# just below 1 (on the family within 1e-8 but t = 0, or off it, or on the
# boundary) and a = 1 boundary points.
GUARD_POINTS = st.one_of(
    st.one_of(ALPHAS, st.just(ALPHA_MAX - 1e-8)).map(lambda a: family_from_alpha(a).params),
    st.one_of(
        st.tuples(*[st.floats(0, 3)] * 3).filter(lambda abc: sum(abc) > 0),
        st.just((1e308, 1e308, 0.0)),
    ).map(lambda abc: MapParams(*abc)),
    st.floats(1e-13, 2e-4).map(lambda d: MapParams(1 - d, 1 + d, 0)),
    st.sampled_from([MapParams(1, 0, 1), MapParams(1, 1, 0), MapParams(1 - 1e-13, 1e-13, 1)]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(GUARD_POINTS, max_size=12))
def test_a_batch_fails_on_its_first_bad_point(points):
    # certify_many raises what certify raises for the first point that
    # raises alone, and raises nothing when no point does.
    alone = [_error(lambda p=p: certify(p)) for p in points]
    first = next((error for error in alone if error is not None), None)
    assert _error(lambda: certify_many(points)) == first
