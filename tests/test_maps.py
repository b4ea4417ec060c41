import csv
import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from choiwit import (
    BoundaryCaseError,
    MapParams,
    OutOfRangeError,
    family_from_alpha,
    family_violation,
    herm_eig_min,
    identity_residuals,
    is_positive_predicate,
    on_family_check,
    phi_apply,
    positivity_search,
    t_param,
)
from choiwit import maps
from choiwit.maps import ALPHA_MAX, ALPHA_MIN, family_weights
from oracles import falsifier_minimum, family_a_decimal, family_weights_decimal, family_weights_scalar

PI = math.pi

DATA = Path(__file__).parent / "data"


def test_map_params_validation():
    with pytest.raises(ValueError):
        MapParams(-0.1, 1, 1)
    with pytest.raises(ValueError):
        MapParams(0, 0, 0)
    with pytest.raises(ValueError):
        MapParams(float("nan"), 1, 1)


def test_phi_apply_on_basis_projector():
    out = phi_apply(MapParams(1, 1, 0), np.diag([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(out, np.diag([0.5, 0.0, 0.5]), atol=1e-15)


def test_phi_apply_preserves_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = MapParams(*rng.uniform(0.01, 2.0, 3))
        np.testing.assert_allclose(phi_apply(p, np.eye(3)), np.eye(3), atol=1e-15)


def test_phi_apply_all_ones_input():
    out = phi_apply(MapParams(0, 1, 1), np.ones((3, 3)))
    expected = np.full((3, 3), -0.5, dtype=complex)
    np.fill_diagonal(expected, 1.0)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_phi_apply_linear_and_trace_preserving():
    rng = np.random.default_rng(4)
    for _ in range(30):
        p = MapParams(*rng.uniform(0.01, 2.0, 3))
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        lhs = phi_apply(p, alpha * x + y)
        rhs = alpha * phi_apply(p, x) + phi_apply(p, y)
        assert np.abs(lhs - rhs).max() <= 1e-12
        assert abs(np.trace(phi_apply(p, x)) - np.trace(x)) <= 1e-12


def test_phi_apply_rejects_an_output_that_overflows_without_a_warning():
    # A weight sum near either float limit: 1/1e-320 overflows, and 2e308 is inf,
    # whose quotients are NaN.  A finite output near those limits is returned.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weights in ((1e-320, 0.0, 0.0), (1e308, 1e308, 0.0)):
            with pytest.raises(ArithmeticError, match="map output overflows the float range"):
                phi_apply(MapParams(*weights), np.eye(3))
        for weights in ((1e308, 0.0, 0.0), (1e-300, 0.0, 0.0)):
            np.testing.assert_allclose(phi_apply(MapParams(*weights), np.eye(3)), np.eye(3), atol=1e-15)


def test_positivity_search_rejects_descent_values_that_overflow_without_a_warning():
    # At a weight sum of inf the descent's values are NaN, while the map's output at the
    # final argmin is all zeros and finite; at (1e120, 0, 0) the cubic's determinant
    # overflows.  Each once returned a minimum (0.0 and 0.1198) that was not the least
    # eigenvalue, with dozens of RuntimeWarnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weights in ((1e308, 1e308, 0.0), (1e120, 0.0, 0.0)):
            with pytest.raises(ArithmeticError, match="^falsifier values overflow the float range$"):
                positivity_search(MapParams(*weights), 20, 0)


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((1, 1, 0), True),
        ((0.5, 1.45, 0.05), False),
        ((1, 0.5, 0.5), True),
        # a+b+c short of 2 by 1e-7, far beyond the 1e-12 slack.
        ((0.5, 0.5, 1 - 1e-7), False),
        # b*c short of (1-a)^2 by 1e-7, with a+b+c >= 2.
        ((0, 2, 0.49999995), False),
    ],
)
def test_positivity_predicate(triple, expected):
    assert is_positive_predicate(MapParams(*triple)) is expected


def test_positivity_search_on_positive_map():
    result = positivity_search(MapParams(1, 1, 0), budget=200, seed=0)
    assert result.min_value >= -1e-9
    assert np.linalg.norm(result.argmin) == pytest.approx(1.0, abs=1e-12)


def test_positivity_search_finds_violation():
    p = MapParams(0.5, 1.45, 0.05)
    result = positivity_search(p, budget=200, seed=0)
    assert result.min_value < -1e-3
    # Reconfirm the violating vector through herm_eig_min, outside the search.
    x = result.argmin
    value = herm_eig_min(phi_apply(p, np.outer(x, x.conj())))
    assert value < -1e-3
    assert value == pytest.approx(result.min_value, abs=1e-9)


def test_positivity_search_probes_predicate_corner():
    # The printed condition classifies (2, 0, 0) as non-positive, yet no
    # violation exists; the search reports the discrepancy as a warning.
    with pytest.warns(RuntimeWarning, match="no violation"):
        result = positivity_search(MapParams(2, 0, 0), budget=500, seed=0)
    assert result.min_value >= -1e-9


def test_positivity_search_settles_second_predicate_corner():
    # (1.5, 0.3, 0.3) fails the printed condition (bc < (1-a)^2), yet the map
    # is positive; the search finds no violation and says so.
    with pytest.warns(RuntimeWarning, match="no violation"):
        result = positivity_search(MapParams(1.5, 0.3, 0.3), budget=200, seed=0)
    assert result.min_value >= -1e-9


def test_positivity_search_warns_when_the_predicate_holds_but_a_violation_is_found(monkeypatch):
    # (0.5, 1.45, 0.05) is not positive; with the printed condition forced to
    # hold, the falsifier's violation contradicts it and the search says so.
    monkeypatch.setattr(maps, "is_positive_predicate", lambda p: True)
    message = r"^positivity condition holds for \(a,b,c\)=\(0\.5,1\.45,0\.05\) but the falsifier found a violation of -0\.0355$"
    with pytest.warns(RuntimeWarning, match=message):
        result = positivity_search(MapParams(0.5, 1.45, 0.05), 200, 0)
    assert result.min_value < -1e-3


def test_map_on_projector_ignores_diagonal_phases():
    # Phi(D x x^dagger D^dagger) = D Phi(x x^dagger) D^dagger for diagonal
    # unitaries D, so the spectrum depends only on |x_i|^2: the reduction the
    # falsifier's real search rests on.
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = MapParams(*rng.uniform(0.0, 2.0, 3))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x /= np.linalg.norm(x)
        phased = np.exp(1j * rng.uniform(0.0, 2 * PI, 3)) * x
        real = np.abs(x)
        base = np.linalg.eigvalsh(phi_apply(p, np.outer(x, x.conj())))[0]
        for y in (phased, real):
            value = np.linalg.eigvalsh(phi_apply(p, np.outer(y, y.conj())))[0]
            assert abs(value - base) <= 1e-14


@pytest.mark.parametrize(
    "triple", [(1, 1, 0), (0.5, 1.45, 0.05), (2, 0, 0), (1.5, 0.3, 0.3), (0, 1, 1)]
)
def test_positivity_search_argmin_and_value(triple):
    p = MapParams(*triple)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = positivity_search(p, budget=200, seed=0)
    x = np.asarray(result.argmin)
    assert np.isrealobj(x) and np.all(x >= 0.0)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    exact = np.linalg.eigvalsh(phi_apply(p, np.outer(x, x.conj())))[0]
    assert abs(result.min_value - exact) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.0, 1.0),
    b=st.floats(0.0, 2.5),
    c=st.floats(0.0, 2.5),
)
def test_positivity_search_agrees_with_predicate_for_a_at_most_one(a, b, c):
    # For a <= 1 the printed condition is the positivity criterion, so away
    # from bc = (1-a)^2 the sign of the search's minimum must follow it.
    assume(a + b + c >= 2.0 and abs(b * c - (1.0 - a) ** 2) >= 0.05)
    p = MapParams(a, b, c)
    result = positivity_search(p, budget=200, seed=0)
    assert (result.min_value >= -1e-9) is is_positive_predicate(p)


def test_positivity_search_deterministic():
    p = MapParams(0.5, 1.45, 0.05)
    first = positivity_search(p, budget=50, seed=42)
    second = positivity_search(p, budget=50, seed=42)
    assert first.min_value == second.min_value
    np.testing.assert_array_equal(first.argmin, second.argmin)


def test_positivity_search_rejects_bad_budget():
    with pytest.raises(ValueError):
        positivity_search(MapParams(1, 1, 0), budget=0, seed=0)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(0.0, 1.0, exclude_max=True),
    b=st.floats(0.0, 2.5),
    c=st.floats(0.0, 2.5),
    seed=st.integers(0, 2**31 - 1),
)
def test_positivity_search_reaches_the_closed_form_minimum(a, b, c, seed):
    # Where the map is not positive, the least eigenvalue over rank-one
    # projectors is -sigma*/(a+b+c) in closed form (oracles.falsifier_minimum).
    # Both scale like 1/(a+b+c), so the weights' sum is kept from vanishing.
    assume(a + b + c >= 0.1)
    sigma, minimum = falsifier_minimum(a, b, c)
    assume(sigma >= 1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = positivity_search(MapParams(a, b, c), budget=200, seed=seed)
    assert abs(result.min_value - minimum) <= 1e-10


def _near_boundary_triples():
    """Weights with 0 <= a < 1 whose sigma* (see oracles.falsifier_minimum) is 1e-6 to 1e-3."""
    triples = []
    for sigma in (1e-6, 1e-5, 1e-4, 1e-3):
        for a, b in ((0.0, 1.2), (0.5, 1.5), (0.9, 1.9), (0.2, 3.0)):
            # bc = (1-a)^2 - sigma (b + c + 2(1-a)) solved for c, with a+b+c > 2:
            # the product condition of Cho-Kye-Lee misses by sigma.
            triples.append((a, b, ((1 - a) ** 2 - sigma * (b + 2 * (1 - a))) / (b + sigma)))
        for a in (0.5, 0.9):
            # a+b+c = 2 - 3 sigma with bc far above (1-a)^2: the sum condition misses by sigma.
            triples.append((a, (2 - a - 3 * sigma) / 2, (2 - a - 3 * sigma) / 2))
    return triples


def test_positivity_search_is_precise_near_the_positivity_boundary():
    # Close to the Cho-Kye-Lee boundary the minimum -sigma*/(a+b+c) is small
    # and the landscape flat, so only a converged descent reaches it within 1e-10.
    for a, b, c in _near_boundary_triples():
        sigma, minimum = falsifier_minimum(a, b, c)
        assert 0.9e-6 <= sigma <= 1.1e-3, (a, b, c)
        result = positivity_search(MapParams(a, b, c), budget=200, seed=0)
        assert abs(result.min_value - minimum) <= 1e-10, (a, b, c, sigma)


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((2 / 3, 2 / 3, 2 / 3), 0.0),  # at the centroid
        ((1, 1, 1), None),
        ((1, 0, 0), -1 / 3),
        ((0, 0, 1), -1 / 3),
        ((2, 0, 0), None),
    ],
)
def test_positivity_search_on_edge_inputs(triple, expected):
    # Equal weights make the cubic's spread vanish at the vertices, where a
    # NaN would poison the whole search; single weights sit on the simplex's edges.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = positivity_search(MapParams(*triple), budget=200, seed=0)
    x = result.argmin
    assert math.isfinite(result.min_value)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    if expected is not None:
        assert abs(result.min_value - expected) <= 1e-9


def test_positivity_search_on_the_family_is_at_the_boundary():
    # Every interior family point is positive with a zero eigenvalue somewhere.
    for alpha in np.linspace(ALPHA_MIN, ALPHA_MAX, 41)[1:-1].tolist():
        result = positivity_search(family_from_alpha(alpha).params, budget=200, seed=0)
        assert abs(result.min_value) <= 1e-9, alpha


def test_family_from_alpha_midpoint():
    point = family_from_alpha(PI)
    assert point.params.a == pytest.approx(0.0, abs=1e-12)
    assert point.params.b == pytest.approx(1.0, abs=1e-12)
    assert point.params.c == pytest.approx(1.0, abs=1e-12)
    assert not point.is_boundary
    assert point.t == pytest.approx(1.0, abs=1e-12)


def test_family_from_alpha_endpoint_is_boundary():
    point = family_from_alpha(PI / 3)
    assert point.params.a == pytest.approx(1.0, abs=1e-12)
    assert point.params.b == pytest.approx(0.0, abs=1e-12)
    assert point.params.c == pytest.approx(1.0, abs=1e-12)
    assert point.is_boundary


def test_family_from_alpha_quarter_turn():
    point = family_from_alpha(PI / 2)
    assert point.params.a == pytest.approx(2 / 3, abs=1e-14)
    assert point.params.b == pytest.approx(2 / 3 * (1 - math.sqrt(3) / 2), abs=1e-14)
    assert point.params.c == pytest.approx(2 / 3 * (1 + math.sqrt(3) / 2), abs=1e-14)
    assert point.t == pytest.approx(2 + math.sqrt(3), abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, PI / 3 - 1e-6, 5 * PI / 3 + 1e-6, 7.0])
def test_family_from_alpha_out_of_range(alpha):
    with pytest.raises(OutOfRangeError):
        family_from_alpha(alpha)


def _assert_rows_are_accurate(alphas, rows):
    # Within 2 eps of the 40-digit values at the same float angle: absolutely
    # for a, and on the scale w + sqrt(w) for b and c, so that the tiny b and
    # c near the ends keep their leading digits.  The sqrt(w) term covers the
    # rounding of pi/3 and 5pi/3 themselves, about eps/2 in the angle.
    assert rows.shape == (len(alphas), 3)
    eps = Decimal(np.finfo(float).eps)
    for alpha, (a, b, c) in zip(alphas, rows.tolist()):
        ref_a, ref_b, ref_c, _ = family_weights_decimal(alpha)
        assert abs(Decimal(a) - ref_a) <= 2 * eps, alpha
        assert abs(Decimal(b) - ref_b) <= 2 * eps * (ref_b + ref_b.sqrt()), alpha
        assert abs(Decimal(c) - ref_c) <= 2 * eps * (ref_c + ref_c.sqrt()), alpha


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(ALPHA_MIN - 1e-12, ALPHA_MAX + 1e-12), max_size=70))
def test_family_weights_are_accurate(alphas):
    rows = family_weights(alphas)
    _assert_rows_are_accurate(alphas, rows)
    for alpha, row in zip(alphas, rows.tolist()):
        point = family_from_alpha(alpha)
        a, b, c = row
        assert (point.params.a, point.params.b, point.params.c) == (a, b, c)
        assert point.t == (None if a >= 1.0 - 1e-12 else c / (1.0 - a))


def test_family_weights_are_accurate_at_the_ends():
    # 1e-12 outside, at and 1e-12 inside both ends, where a = 1 and b or c = 0
    # up to roundoff; then 10^-k inside each end and on both sides of pi.
    ends = [ALPHA_MIN - 1e-12, ALPHA_MIN, ALPHA_MIN + 1e-12, ALPHA_MAX - 1e-12, ALPHA_MAX, ALPHA_MAX + 1e-12]
    steps = [10.0**-k for k in range(1, 16)]
    alphas = ends + [x for d in steps for x in (ALPHA_MIN + d, ALPHA_MAX - d, PI - d, PI + d)] + [PI]
    _assert_rows_are_accurate(alphas, family_weights(alphas))
    assert family_weights([]).shape == (0, 3)


def test_family_weights_are_accurate_on_a_grid():
    alphas = np.linspace(ALPHA_MIN, ALPHA_MAX, 4001).tolist()
    _assert_rows_are_accurate(alphas, family_weights(alphas))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(2 * PI / 3, 4 * PI / 3), max_size=40))
def test_a_keeps_every_digit_on_the_middle_third(alphas):
    # a = (4/3) sin^2(((math.pi - alpha) + pi_lo) / 2) there.  With u = eps/2:
    # the angle is within 2u relative of pi - alpha (the difference is exact, pi_lo
    # and the sum round once each, and |pi - alpha| >= pi - math.pi), sin adds at
    # most 1 ulp (2u) and passes the angle's error on at most once, the square
    # doubles those 4u, and 4/3 and the two products round once each: 11u.
    near_pi = [x for k in range(1, 16) for x in (PI - 10.0**-k, PI + 10.0**-k)]
    alphas = alphas + near_pi + [PI, math.nextafter(PI, 0.0), math.nextafter(PI, 4.0)]
    _assert_a_keeps_every_digit(alphas, family_weights(alphas)[:, 0].tolist())


def _assert_a_keeps_every_digit(alphas, a_cells):
    # Within 5.5 eps relative of the 60-digit a at the same float angle, on the middle third.
    bound = Decimal(5.5) * Decimal(np.finfo(float).eps)
    for alpha, a in zip(alphas, a_cells):
        ref = family_a_decimal(alpha)
        assert abs(Decimal(a) - ref) <= bound * ref, alpha


@pytest.mark.parametrize("golden", ["scan_steps13.csv", "scan_steps1001.csv", "scan_steps101_tol1e-4.csv", "scan_steps13.json"])
def test_golden_weight_cells_match_the_decimal_oracles(golden):
    # Every row's printed a, b and c, boundary rows included, at its printed alpha,
    # within the bounds that family_weights itself is held to.
    with open(DATA / golden, newline="", encoding="utf-8") as f:
        records = json.load(f)["records"] if golden.endswith(".json") else list(csv.DictReader(f))
    alphas = [float(r["alpha"]) for r in records]
    rows = np.array([[float(r[key]) for key in "abc"] for r in records])
    _assert_rows_are_accurate(alphas, rows)
    middle = [(alpha, a) for alpha, a in zip(alphas, rows[:, 0].tolist()) if 2 * PI / 3 <= alpha <= 4 * PI / 3]
    assert middle
    _assert_a_keeps_every_digit(*zip(*middle))


@pytest.mark.parametrize("bad", [ALPHA_MIN - 2e-12, ALPHA_MAX + 2e-12, 0.0, 7.0, math.nan, -math.inf])
def test_family_weights_name_the_first_angle_out_of_range(bad):
    with pytest.raises(ValueError) as scalar:
        family_weights_scalar(bad)
    with pytest.raises(OutOfRangeError) as batch:
        family_weights([2.0, PI, bad, 4.0, 0.5])
    assert str(batch.value) == str(scalar.value) == f"alpha must lie in [pi/3, 5*pi/3], got {bad!r}"


def test_on_family_check():
    assert on_family_check(MapParams(0, 1, 1))
    assert on_family_check(MapParams(1, 1, 0))
    assert not on_family_check(MapParams(0.5, 1, 0.5))


def test_family_violation_names_the_first_failing_condition():
    assert family_violation(MapParams(0, 1, 1)) is None
    assert family_violation(MapParams(1, 1, 1)).startswith("a+b+c = 3.0")
    assert family_violation(MapParams(1.5, 0.25, 0.25)) == "a = 1.5 exceeds 1"
    assert family_violation(MapParams(0.5, 1, 0.5)).startswith("b*c = 0.5")
    # 1e-5 off the family, though b*c is within 1e-8 of (1-a)^2 = 1e-10.
    assert family_violation(MapParams(0.99999, 1.00001, 1e-300)).startswith("b*c = 1.00001")


def test_family_from_alpha_keeps_c_positive_near_upper_end():
    assert family_from_alpha(5 * PI / 3 - 1e-8).params.c > 0


def test_symmetric_triple_is_off_family():
    # Exact rationals: for (2/3, 2/3, 2/3) the product bc = 4/9 while
    # (1-a)^2 = 1/9, so the third family condition fails even though the
    # triple sums to 2.
    a = b = c = Fraction(2, 3)
    assert a + b + c == 2
    assert b * c != (1 - a) ** 2
    assert not on_family_check(MapParams(2 / 3, 2 / 3, 2 / 3))


def test_t_param():
    assert t_param(MapParams(0, 1, 1)) == pytest.approx(1.0)
    assert t_param(MapParams(2 / 3, 2 / 3, 2 / 3)) == pytest.approx(2.0)
    with pytest.raises(BoundaryCaseError):
        t_param(MapParams(1, 0, 1))


def test_identity_residuals_on_family_point():
    r1, r2 = identity_residuals(MapParams(0, 1, 1))
    assert abs(r1) <= 1e-14 and abs(r2) <= 1e-14


def test_identity_residuals_off_family_exact_rational():
    # Oracle in exact arithmetic: t = 2, a + b*t - 1 = 1, c + a*t - t = 0.
    a = b = c = Fraction(2, 3)
    t = c / (1 - a)
    assert (a + b * t - 1, c + a * t - t) == (1, 0)
    r1, r2 = identity_residuals(MapParams(2 / 3, 2 / 3, 2 / 3))
    assert r1 == pytest.approx(1.0, abs=1e-14)
    assert r2 == pytest.approx(0.0, abs=1e-14)


def test_identity_residuals_second_off_family_point():
    r1, r2 = identity_residuals(MapParams(0.5, 1, 0.5))
    assert r1 == pytest.approx(0.5, abs=1e-14)
    assert r2 == pytest.approx(0.0, abs=1e-14)


def test_identity_residuals_boundary_guard():
    with pytest.raises(BoundaryCaseError):
        identity_residuals(MapParams(1, 0, 1))


def test_family_grid_properties():
    alphas = np.linspace(PI / 3, 5 * PI / 3, 100)
    for alpha in alphas:
        point = family_from_alpha(float(alpha))
        assert is_positive_predicate(point.params)
        if not point.is_boundary:
            r1, r2 = identity_residuals(point.params)
            assert abs(r1) <= 1e-10 and abs(r2) <= 1e-10
