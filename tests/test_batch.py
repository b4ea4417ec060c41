"""Batch invariance of the certificate kernel: a point's certificate does not
depend on what else is in the batch."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiwit import (
    Certificate,
    CertificateDiagnostics,
    MapParams,
    NonpositiveTError,
    OffFamilyError,
    Verdict,
    certify,
    certify_many,
    family_from_alpha,
)
from choiwit import optimality
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
@given(st.lists(ALPHAS, min_size=1, max_size=70), st.sampled_from([1e-8, 1e-12, 1e-16, 1e-17, 1e-300, 0.5]))
def test_flags_and_verdict_follow_the_per_point_rule(alphas, tol):
    # The kernel decides the verdict in numpy and each flag on its own side.
    for cert in certify_many([family_from_alpha(a).params for a in alphas], tol):
        d = cert.diagnostics
        if cert.t is None:
            assert (cert.w_optimal, cert.wgamma_optimal, cert.verdict) == (False, False, Verdict.BOUNDARY)
            continue
        numbers = (d.max_abs_expectation_w, d.max_abs_expectation_wgamma, d.rank_m, d.rank_mprime)
        assert (cert.w_optimal, cert.wgamma_optimal, cert.verdict.value) == certificate_flags(cert.t, *numbers, tol)


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


#: Kernel block sizes to compare: one point, uneven, a few blocks a batch, larger than any batch here (as the default is).
BLOCKS = (1, 7, 64, 1001)


def _at_every_block_size(monkeypatch, call):
    """The results of call() with the kernel's block size set to each of BLOCKS."""
    results = []
    for block in BLOCKS:
        monkeypatch.setattr(optimality, "KERNEL_BLOCK", block)
        results.append(call())
    return results


@pytest.mark.parametrize("tol", [1e-8, 1e-17, 0.03, 0.5])
def test_certificates_do_not_depend_on_the_block_size(monkeypatch, tol):
    # More than two blocks of 64, with both a = 1 ends, t = 1 and points
    # next to the ends mixed in.
    alphas = np.linspace(ALPHA_MIN, ALPHA_MAX, 150).tolist() + [math.pi, ALPHA_MIN + 1e-9, ALPHA_MAX - 1e-7]
    params = [family_from_alpha(a).params for a in alphas]
    runs = _at_every_block_size(monkeypatch, lambda: [_bits(cert) for cert in certify_many(params, tol)])
    assert all(run == runs[0] for run in runs)
    # At tol 0.5 every span matrix reaches the SVD, which counts a rank below 9.
    kinds = {Verdict.OPTIMAL_ONLY, Verdict.INDECOMPOSABLE_OPTIMAL} if tol < 0.5 else {Verdict.NOT_CERTIFIED}
    assert {Verdict.BOUNDARY, *kinds} <= {cert.verdict for cert in certify_many(params, tol)}
    # a = 1 points on both edges of the first two blocks of 64, pi between
    # them.  The kernel runs them at a stand-in t, through the SVD at tol 0.5;
    # at tol 0.03 the stand-in's W side passes against W(1, 0, 1).  None of
    # that may reach a record, a flag or a Certificate.
    params = [family_from_alpha(math.pi).params] * 128
    for i, alpha in zip((0, 63, 64, 127), (ALPHA_MIN, ALPHA_MAX, ALPHA_MAX, ALPHA_MIN)):
        params[i] = family_from_alpha(alpha).params
    boundary = Certificate(
        params=None, t=None, w_optimal=False, wgamma_optimal=False, verdict=Verdict.BOUNDARY,
        diagnostics=CertificateDiagnostics(None, None, None, None, None, None),
    )
    expected = [_bits(replace(boundary, params=p) if p.a == 1 else certify(p, tol)) for p in params]
    runs = _at_every_block_size(monkeypatch, lambda: optimality._certified(params, tol))
    for certs, columns in runs:
        assert [_bits(cert) for cert in certs] == expected
        assert [i for i, record in enumerate(zip(*columns)) if record == optimality._BOUNDARY_CELLS] == [0, 63, 64, 127]


def test_a_batch_fails_on_the_same_first_point_at_every_block_size(monkeypatch):
    # The guards run on the whole batch before any block: the off-family
    # point at index 130 raises, not the t = 0 point after it.
    params = [family_from_alpha(a).params for a in np.linspace(ALPHA_MIN, ALPHA_MAX, 200)]
    params[130] = MapParams(1, 1, 1)
    params[150] = MapParams(1 - 1e-9, 1 + 1e-9, 0)  # on the family within 1e-8, but t = 0
    errors = _at_every_block_size(monkeypatch, lambda: _error(lambda: certify_many(params)))
    assert errors == [(OffFamilyError, "not a family point: a+b+c = 3.0 differs from 2")] * len(BLOCKS)
    params[130] = params[0]
    errors = _at_every_block_size(monkeypatch, lambda: _error(lambda: certify_many(params)))
    assert errors == [(NonpositiveTError, "t must be a positive finite real, got 0.0")] * len(BLOCKS)


def test_certify_many_runs_in_flat_memory():
    # The kernel works through a batch in blocks, so 20,000 points must not
    # stack 20,000 witnesses and span matrices at once (about 14 KB a point).
    pytest.importorskip("resource")
    script = (
        "import resource, sys\n"
        "import numpy as np\n"
        "from choiwit import MapParams, certify_many\n"
        "from choiwit.maps import family_weights\n"
        "params = [MapParams(*abc) for abc in family_weights(np.linspace(1.1, 5.1, 20000)).tolist()]\n"
        "certify_many(params[:100])\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "certs = certify_many(params)\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(len(certs), grown / (2**20 if sys.platform == 'darwin' else 2**10))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    count, grown_mb = proc.stdout.split()
    assert int(count) == 20000
    assert float(grown_mb) < 100
