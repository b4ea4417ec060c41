import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choiwit import (
    BoundaryCaseError,
    MapParams,
    NonpositiveTError,
    OffFamilyError,
    Verdict,
    certify,
    certify_many,
    det_closed_form,
    expectation,
    family_from_alpha,
    kron_vec,
    lu_det,
    on_family_check,
    partial_transpose_second,
    ppt_state,
    product_vectors,
    rank_with_tol,
    span_matrix,
    witness_matrix,
    zero_expectation_check,
)
from choiwit import optimality
from choiwit.cli import RECORD_KEYS
from choiwit.maps import ALPHA_MAX, ALPHA_MIN, family_weights
from choiwit.optimality import _PAIR_CODES, _RANK9_DET_BOUND, _certificate_columns, _entry_table, _vectors
from oracles import (
    certificate_columns_stacked,
    pair_arrays_loop,
    product_vectors_outer,
    span_columns,
    span_ranks_svd,
    witness_forms_float,
    witness_forms_stacked,
)

PI = math.pi


def test_product_vectors_at_t_one():
    pairs = product_vectors(1.0)
    assert pairs[3].k == 4
    np.testing.assert_array_equal(pairs[3].psi, np.array([0, 1, 1], dtype=complex))
    np.testing.assert_array_equal(pairs[3].phi, np.array([0, 1, 1], dtype=complex))


def test_product_vectors_at_t_four():
    pairs = product_vectors(4.0)
    np.testing.assert_array_equal(pairs[5].phi, np.array([4, 0, 2], dtype=complex))


def test_first_pair_is_t_independent():
    for t in (0.1, 1.0, 7.3):
        pairs = product_vectors(t)
        np.testing.assert_array_equal(pairs[0].psi, np.ones(3, dtype=complex))
        np.testing.assert_array_equal(pairs[0].phi, np.ones(3, dtype=complex))


@pytest.mark.parametrize("t", [0.0, -1.0, float("nan")])
def test_product_vectors_rejects_bad_t(t):
    with pytest.raises(NonpositiveTError):
        product_vectors(t)
    with pytest.raises(NonpositiveTError):
        ppt_state(t)


@pytest.mark.parametrize("t", [1e-309, 1e-308, 6e307, 1e308])
def test_ppt_state_rejects_t_whose_normalization_overflows(t):
    # _check_t accepts each t, but 3(1 + t + 1/t) overflows, so lam would be 0
    # and the state's trace 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="float range"):
            ppt_state(t)


_FORMER_T = [[1.0], [1e-300], [1e200], [1.0, 1e-300, 1e200], np.random.default_rng(3).lognormal(0, 8, 67), []]


def _same_bits(got, want):
    # Equal bits, signed zeros included (-1j has real part -0.0).
    got, want = np.ascontiguousarray(got).view(float), np.ascontiguousarray(want).view(float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("t", _FORMER_T)
def test_pair_arrays_match_the_former_loop(t):
    t = np.asarray(t, dtype=float)
    got = _entry_table(t)[:, _PAIR_CODES]
    for side, want in enumerate(pair_arrays_loop(t)):
        assert got[:, side].shape == want.shape == (len(t), 9, 3)
        _same_bits(got[:, side], want)


@pytest.mark.bit_for_bit
@pytest.mark.parametrize("t", _FORMER_T)
def test_product_vectors_match_the_former_outer_product(t):
    # The outer product of the gathered pair tables, conjugates included, must
    # give the one of the per-entry tables bit for bit, in the C-contiguous
    # layout that the span matrices and the stacked reference read.
    t = np.asarray(t, dtype=float)
    got = _vectors(t)
    want = product_vectors_outer(t)
    assert got.shape == want.shape == (2, len(t), 9, 9)
    assert got.flags.c_contiguous
    _same_bits(got, want)
    for i, ti in enumerate(t.tolist()):
        for side in (0, 1):
            mat = span_matrix(ti, conjugated=bool(side)).mat
            assert mat.flags.c_contiguous
            _same_bits(mat, span_columns(want[side, i]))


_MAGNITUDE_T = [[1.0], [1e-300], [1e-160, 1e13], np.random.default_rng(3).lognormal(0, 8, 67)]


#: The rows of each (side, pair) column, reached through its form: (9, 2, 9) entry rows and
#: (3, 2, 2, 9) pair rows, as (p, i or j, side, pair).
_COLUMN_ENTRY_ROWS = optimality._ENTRY_ROWS[:, optimality._FORM_OF]
_COLUMN_PAIR_ROWS = optimality._PAIR_ROWS[..., optimality._FORM_OF]


@pytest.mark.bit_for_bit
@pytest.mark.parametrize("t", _MAGNITUDE_T)
def test_magnitude_columns_give_every_entry_and_pair_term(t):
    # Each complex entry is a magnitude column in its real or its imaginary
    # part, 0 in the other; each pair's x_i x_j + y_i y_j is m_i * m_j, with m_i
    # the zero row where one entry is real and the other imaginary.
    # The family's t lie within about 1e-162 and 1e13, where no product overflows.
    t = np.asarray(t, dtype=float)
    vectors = _vectors(t)
    mags = optimality._magnitudes(t)
    for e, rows in enumerate(_COLUMN_ENTRY_ROWS):
        x, y = vectors[..., e].real, vectors[..., e].imag
        assert np.all((x == 0) | (y == 0))
        assert np.array_equal(np.abs(x) + np.abs(y), np.moveaxis(mags[rows], -1, 1))
    x, y = vectors.real, vectors.imag
    for (i, j), entries in zip(_COLUMN_PAIR_ROWS, zip(*optimality._OFF_ENTRIES)):
        want = np.stack([xs[..., a] * xs[..., b] + ys[..., a] * ys[..., b] for xs, ys, (a, b) in zip(x, y, entries)])
        assert np.array_equal(mags[i] * mags[j], np.moveaxis(want, 1, -1))


@pytest.mark.bit_for_bit
def test_distinct_columns_and_forms_are_those_of_the_eighteen_columns():
    # A column's form is its 9 entry rows and its 6 pair rows; the weight rows are
    # the entry rows regrouped by a, b and c, so they add nothing to it.
    assert optimality._ENTRY_ROWS.shape == (9, 7)
    assert optimality._PAIR_ROWS.shape == (3, 2, 7)
    assert optimality._FORM_OF.shape == (2, 9)
    columns = np.concatenate([_COLUMN_ENTRY_ROWS.reshape(9, 18), _COLUMN_PAIR_ROWS.reshape(6, 18)]).T
    forms, inverse = np.unique(columns, axis=0, return_inverse=True)
    assert len(forms) == 7
    assert np.array_equal(forms.T, np.concatenate([optimality._ENTRY_ROWS, optimality._PAIR_ROWS.reshape(6, 7)]))
    assert np.array_equal(inverse.reshape(2, 9), optimality._FORM_OF)
    # The forms of each side's nine pairs.
    assert [sorted(set(side)) for side in optimality._FORM_OF.tolist()] == [[1, 2, 4, 5], [0, 2, 3, 6]]


@pytest.mark.bit_for_bit
@pytest.mark.parametrize("t", _MAGNITUDE_T)
def test_distinct_sums_expand_to_the_full_sums_bit_for_bit(t):
    # The kernel's sums over its seven forms, taken back to the 18 (side, pair)
    # columns, are the sums over every column in the same order, as the kernel took them
    # before: entry by entry; a, b, c groups in index order; pairs in table order.
    t = np.asarray(t, dtype=float)
    weights = np.random.default_rng(5).choice([0.0, 1.0, 2 / 3, 1e-5, 1.7], (len(t), 3))
    mags = optimality._magnitudes(t)
    sqm = mags * mags
    weight_rows = _COLUMN_ENTRY_ROWS[optimality._WEIGHT_ENTRIES]
    want = (
        sum(sqm[rows] for rows in _COLUMN_ENTRY_ROWS),
        sum(wk * (sqm[r0] + sqm[r1] + sqm[r2]) for wk, (r0, r1, r2) in zip(weights.T, weight_rows)),
        sum(mags[i] * mags[j] for i, j in _COLUMN_PAIR_ROWS),
    )
    got = optimality._form_sums(mags, weights)
    for sums, full in zip(got, want):
        assert sums.shape == (7, len(t))
        assert sums[optimality._FORM_OF].tobytes() == full.tobytes()


def test_kernel_memory_on_the_1001_step_grid():
    # The norms and the diagonal share one gather, freed before the pair gather; a
    # kernel that kept its gathers to the end of its block peaked at 1,612 KB here, and
    # the former per-column sums at 1,037 KB.
    weights = family_weights(np.linspace(ALPHA_MIN, ALPHA_MAX, 1001))
    _certificate_columns(weights, 1e-8)
    tracemalloc.start()
    try:
        _certificate_columns(weights, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1037 * 1024


#: Interior family angles: a grid, 10^-k inside both ends and on both sides of pi, and pi.
ORACLE_ALPHAS = (
    np.linspace(ALPHA_MIN, ALPHA_MAX, 201)[1:-1].tolist()
    + [x for k in range(1, 12) for x in (ALPHA_MIN + 10.0**-k, ALPHA_MAX - 10.0**-k, PI - 10.0**-k, PI + 10.0**-k)]
    + [PI]
)


@pytest.mark.bit_for_bit
def test_kernel_forms_and_maxima_are_the_plain_float_oracle_bit_for_bit():
    # The stacked reference, whose bits the kernel's magnitude columns give, and
    # the kernel's maxima follow the documented order, which the float oracle
    # spells out one Python float at a time from literal tables.
    weights = family_weights(ORACLE_ALPHAS)
    columns = _certificate_columns(weights, 1e-8)[0]
    assert None not in columns[0]
    vectors = _vectors(np.array(columns[0]))
    forms, maxima = witness_forms_float(weights, vectors)
    sq = vectors.real * vectors.real + vectors.imag * vectors.imag
    assert witness_forms_stacked(weights, vectors, sq).tobytes() == forms.tobytes()
    assert np.array(columns[5:7]).tobytes() == maxima.tobytes()


#: Roundings on the longest path of either evaluation of a form, at most: 13 in the
#: structured one (x*x, + y*y, two additions in a weight's group, times the weight, two
#: additions over a, b and c, the subtraction, and scale with its own four roundings),
#: 32 in the BLAS one (scale's four and one to W's entries, then W @ v, a product and
#: 8 additions, then the conjugating dot, a product and at most 17 additions).  With
#: u = eps/2 their difference is within (13 + 32) u < 23 eps of the terms' absolute sum.
FORM_ROUNDINGS_EPS = 23


@settings(max_examples=200, deadline=None)
@given(
    family=st.booleans(),
    alphas=st.lists(st.floats(ALPHA_MIN + 1e-9, ALPHA_MAX - 1e-9), min_size=1, max_size=6),
    weights=st.lists(
        st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0, 2 / 3]), st.floats(1e-100, 1e100))] * 3).filter(any),
        min_size=6, max_size=6,
    ),
    v_exp=st.floats(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_witness_forms_are_the_guarded_quadratic_forms_within_the_rounding_bound(family, alphas, weights, v_exp, seed):
    # On the family with its own vectors, or on random weights with random vectors,
    # against expectation on each row's witness_matrix and its partial transpose (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1).
    if family:
        w = family_weights(alphas)
        vectors = _vectors(w[:, 2] / (1.0 - w[:, 0]))
    else:
        w = np.array(weights)[: len(alphas)]
        rng = np.random.default_rng(seed)
        vectors = 10.0**v_exp * (rng.standard_normal((2, len(w), 9, 9)) + 1j * rng.standard_normal((2, len(w), 9, 9)))
    mats = [witness_matrix(MapParams(*row)).mat for row in w.tolist()]
    expected = np.array([
        [[expectation(m, v) for v in vs] for m, vs in zip(side, side_vectors)]
        for side, side_vectors in zip((mats, [partial_transpose_second(m) for m in mats]), vectors)
    ])
    x, y = vectors.real, vectors.imag
    got = witness_forms_stacked(w, vectors, x * x + y * y)
    scale = 1.0 / (3.0 * w.sum(axis=1))[:, None]
    diag = (w[:, None, [0, 1, 2, 2, 0, 1, 1, 2, 0]] * (x * x + y * y)).sum(axis=-1)
    mags = [sum(np.abs(x[s][..., i] * x[s][..., j]) + np.abs(y[s][..., i] * y[s][..., j]) for i, j in pairs)
            for s, pairs in enumerate((((0, 4), (0, 8), (4, 8)), ((1, 3), (2, 6), (5, 7))))]
    bound = FORM_ROUNDINGS_EPS * np.finfo(float).eps * scale * (diag + 2.0 * np.stack(mags))
    assert np.all(np.abs(got - expected) <= bound)


def test_forms_at_0_1_1_are_exactly_zero():
    # Every entry of the t = 1 vectors is 0, +-1 or +-1j and the weights are 0, 1, 1:
    # each term is exact, and scale comes last, so the forms vanish exactly.
    weights = np.array([[0.0, 1.0, 1.0]])
    vectors = _vectors(np.array([1.0]))
    forms = witness_forms_stacked(weights, vectors, vectors.real * vectors.real + vectors.imag * vectors.imag)
    assert forms.tobytes() == np.zeros((2, 1, 9)).tobytes()
    for tol in (1e-17, 1e-300):
        cert = certify(MapParams(0, 1, 1), tol)
        d = cert.diagnostics
        assert (d.max_abs_expectation_w, d.max_abs_expectation_wgamma) == (0.0, 0.0)
        assert cert.verdict is Verdict.OPTIMAL_ONLY and cert.w_optimal and not cert.wgamma_optimal


def _assert_kernel_is_the_stacked_reference(weights, tol, block):
    # Every point's record, read across the columns, against the reference's cells
    # by repr, so that nan, signed zeros and every digit count; the determinants
    # and flags byte for byte, the kernel's one row of det M' against both of the
    # reference's.  The reference runs in slices of 64.
    with mock.patch.object(optimality, "KERNEL_BLOCK", block):
        columns, dets, ok = _certificate_columns(weights, tol)
    want_cells, want_dets, want_ok = certificate_columns_stacked(weights, tol)
    assert [len(column) for column in columns] == [len(weights)] * len(RECORD_KEYS)
    assert repr(list(zip(*columns))) == repr(want_cells)
    assert want_dets[2].tobytes() == want_dets[3].tobytes()
    assert dets.tobytes() == want_dets[:3].tobytes()
    assert ok.tobytes() == want_ok.tobytes()


#: 10^-k inside both ends, k = 1..11, pi (t = 1) and both a = 1 ends.
_EDGE_ALPHAS = [x for k in range(1, 12) for x in (ALPHA_MIN + 10.0**-k, ALPHA_MAX - 10.0**-k)] + [PI, ALPHA_MIN, ALPHA_MAX]
_EQUIVALENCE_TOLS = [1e-17, 1e-8, 1e-4, 0.5]


@pytest.mark.bit_for_bit
@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("tol", _EQUIVALENCE_TOLS)
def test_kernel_is_the_stacked_reference_near_the_ends_and_at_0_1_1(tol, block):
    weights = np.vstack([family_weights(_EDGE_ALPHAS), [[0.0, 1.0, 1.0]]])
    _assert_kernel_is_the_stacked_reference(weights, tol, block)


@pytest.mark.bit_for_bit
@settings(max_examples=60, deadline=None)
@given(
    alphas=st.lists(st.floats(ALPHA_MIN, ALPHA_MAX, exclude_min=True, exclude_max=True), min_size=1, max_size=40),
    tol=st.sampled_from(_EQUIVALENCE_TOLS),
    block=st.sampled_from([1, 7, 1024]),
)
def test_kernel_is_the_stacked_reference_on_random_angles(alphas, tol, block):
    _assert_kernel_is_the_stacked_reference(family_weights(alphas), tol, block)


def test_span_matrices_of_one_side_come_from_their_points_alone(monkeypatch):
    # At tol 1e-8 only M' near pi reaches the SVD, so the kernel builds the
    # product vectors of those points alone, between points that need none.
    # Their span matrices must give the ranks of the whole stack's.
    calls = []

    def counting(m, tol):
        calls.append(np.array(m))
        return rank_with_tol(m, tol)

    monkeypatch.setattr(optimality, "rank_with_tol", counting)
    alphas = [2.0, PI - 1e-3, 2.5, PI + 1e-5, PI, 4.0, PI + 1e-3, 1.2]
    weights = family_weights(alphas)
    columns = _certificate_columns(weights, 1e-8)[0]
    assert [len(m) for m in calls] == [4]
    # The M' matrices cut from the whole batch's stack, normalized as the former kernel did.
    t = np.array(columns[0])
    vectors = _vectors(t)[1, [1, 3, 4, 6]]
    norms = np.sqrt(sum(np.moveaxis(vectors.real * vectors.real + vectors.imag * vectors.imag, -1, 0)))
    assert calls[0].tobytes() == (np.swapaxes(vectors, -1, -2) / norms[:, None, :]).tobytes()
    assert columns[3:5] == span_ranks_svd(t, 1e-8).tolist()
    _assert_kernel_is_the_stacked_reference(weights, 1e-8, 1024)


def test_span_matrix_columns():
    m = span_matrix(1.0, conjugated=False)
    np.testing.assert_array_equal(m.mat[:, 0], np.ones(9, dtype=complex))
    mc = span_matrix(1.0, conjugated=True)
    pairs = product_vectors(1.0)
    np.testing.assert_array_equal(
        mc.mat[:, 2], kron_vec(pairs[2].psi, np.conj(pairs[2].phi))
    )
    assert mc.conjugated and mc.t == 1.0


def test_span_matrix_full_rank_at_quarter_turn():
    t = 2 + math.sqrt(3)
    for conjugated in (False, True):
        m = span_matrix(t, conjugated).mat
        m = m / np.linalg.norm(m, axis=0, keepdims=True)
        assert rank_with_tol(m, 1e-8) == 9


def test_det_closed_form_values():
    assert det_closed_form(1.0, conjugated=True) == 0
    assert det_closed_form(1.0, conjugated=False) == pytest.approx(32j)
    assert det_closed_form(4.0, conjugated=True) == pytest.approx(-110592 - 110592j)


def test_det_closed_form_rejects_a_determinant_that_overflows_without_a_warning():
    # Re det M grows like 16 t^7.5 and each part of det M' like 8 t^7.5: they overflow near 8.7e40 and 9.6e40.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e41, 1e60, 1e300):
            for conjugated in (False, True):
                with pytest.raises(ArithmeticError, match="determinant overflows the float range"):
                    det_closed_form(t, conjugated)
        assert np.isfinite(det_closed_form(1e40, False)) and np.isfinite(det_closed_form(1e40, True))


def test_det_closed_form_rejects_a_determinant_that_underflows_without_a_warning():
    # Near t = 0, |det M| is about 16 t^4.5 and |det M'| about 11 t^4.5: both fall below the
    # smallest normal float near t = 2e-69, to a subnormal at 1e-70 and to zero at 1e-80.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e-70, 1e-80):
            for conjugated in (False, True):
                with pytest.raises(ArithmeticError, match="^determinant underflows the float range$"):
                    det_closed_form(t, conjugated)
        for conjugated in (False, True):
            assert abs(det_closed_form(1e-68, conjugated)) >= np.finfo(float).tiny
        assert det_closed_form(1.0, conjugated=True) == 0


def test_span_matrix_rejects_t_whose_entries_overflow_without_a_warning():
    # The largest span entry is t * sqrt(t), finite up to about 3.2e205.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (3.3e205, 1e300, 1.7976931348623157e308):
            for conjugated in (False, True):
                with pytest.raises(ValueError, match="t must be below about 3e205, where the span entries overflow"):
                    span_matrix(t, conjugated)
        assert np.isfinite(span_matrix(3.1e205, True).mat).all()


def test_det_closed_form_matches_lu_det():
    rng = np.random.default_rng(31)
    for t in rng.uniform(0.05, 20.0, 40):
        for conjugated in (False, True):
            numeric = lu_det(span_matrix(float(t), conjugated).mat)
            closed = det_closed_form(float(t), conjugated)
            assert abs(numeric - closed) <= 1e-8 * abs(closed) + 1e-8


# t off the window around 1: there det M' is O((t-1)^3) and the LU value is
# mostly roundoff (1.2e-10 relative at t = 1 + 1e-6).  LU also degrades for
# t far from 1 (2e-9 for t > 1e6).  The worst agreement seen in range: 5e-14.
T_OFF_ONE = st.one_of(st.floats(1e-2, 0.99), st.floats(1.01, 1e2))


@settings(max_examples=60, deadline=None)
@given(t=T_OFF_ONE)
def test_certificate_determinants_match_lu_det(t):
    d = t * t - t + 1.0
    cert = certify(MapParams((t - 1.0) ** 2 / d, 1.0 / d, t * t / d))
    dets = (cert.diagnostics.det_m, cert.diagnostics.det_mprime)
    for conjugated, det in zip((False, True), dets):
        m = span_matrix(cert.t, conjugated).mat
        ref = lu_det(m / np.linalg.norm(m, axis=0))
        assert abs(det - ref) <= 1e-12 * abs(ref)


def test_certificate_determinants_underflow_to_zero():
    # c far below the family tolerance gives t ~ 5e-311: the closed form and
    # the product of the column norms both underflow to 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = certify(MapParams(1 - 1e-9, 1 + 1e-9, 5e-320)).diagnostics
    assert d.det_m == 0 and d.det_mprime == 0


def test_plain_span_matrix_never_singular():
    rng = np.random.default_rng(37)
    for t in np.concatenate([[1.0], rng.uniform(0.05, 20.0, 50)]):
        m = span_matrix(float(t), conjugated=False).mat
        m = m / np.linalg.norm(m, axis=0, keepdims=True)
        assert rank_with_tol(m, 1e-8) == 9


def test_conjugated_span_matrix_rank_away_from_one():
    rng = np.random.default_rng(41)
    for t in rng.uniform(0.05, 20.0, 50):
        if abs(t - 1.0) <= 1e-6:
            continue
        m = span_matrix(float(t), conjugated=True).mat
        m = m / np.linalg.norm(m, axis=0, keepdims=True)
        assert rank_with_tol(m, 1e-8) == 9


def test_conjugated_determinant_vanishes_cubically():
    # |det| / |t-1|^3 stays bounded near t = 1 (the limit is 8*sqrt(2)).
    for dt in (1e-2, 1e-3, 1e-4):
        for t in (1.0 + dt, 1.0 - dt):
            ratio = abs(lu_det(span_matrix(t, conjugated=True).mat)) / dt**3
            assert 5.0 < ratio < 20.0


def _unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_tiny=st.one_of(st.none(), st.floats(-15.0, -0.5)),
    shrink=st.floats(0.9, 0.999999),
)
def test_the_determinant_bounds_the_singular_value_ratio(seed, log_tiny, shrink):
    # Unit columns give sigma_min / sigma_max >= |det| / 2.  Gaussian columns
    # sit far inside that bound.  With log_tiny the singular values are near
    # (sqrt(2), 1, ..., 1, 10^log_tiny) before the columns are normalized, so
    # |det| / (sigma_min / sigma_max) comes near 2, the most that
    # ||A||_F^2 = 9 allows: a constant of 1.9 in place of 2 fails.
    rng = np.random.default_rng(seed)
    if log_tiny is None:
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    else:
        s = np.exp(rng.normal(0.0, 0.02, 9))
        s[0], s[-1] = math.sqrt(2.0), 10.0**log_tiny
        a = (_unitary(rng) * s) @ _unitary(rng)
    a /= np.linalg.norm(a, axis=0)
    svals = np.linalg.svd(a, compute_uv=False)
    abs_det = abs(np.linalg.det(a))
    # Roundoff slack: the computed ratio and |det| are each off by at most
    # about 1e-14 absolute for a matrix with unit columns.
    assert abs_det / _RANK9_DET_BOUND <= svals[-1] / svals[0] + 1e-13
    # The kernel's rule, at a tol just under what the bound proves: where it
    # skips the SVD, the SVD would have counted 9.
    tol = shrink * abs_det / _RANK9_DET_BOUND
    if tol > 0 and abs_det > _RANK9_DET_BOUND * tol + 1e-12:
        assert rank_with_tol(a, tol) == 9


_NEAR = np.logspace(-9, -1, 40)
# Inside both ends, both sides of pi, where det M' ~ (t - 1)^3, and t = 1 at pi.
_ORACLE_ALPHAS = np.concatenate([
    [ALPHA_MIN, ALPHA_MAX, PI], ALPHA_MIN + _NEAR, ALPHA_MAX - _NEAR, PI - _NEAR, PI + _NEAR,
    np.linspace(ALPHA_MIN, ALPHA_MAX, 41),
])


@pytest.mark.parametrize("tol", [1e-300, 1e-17, 1e-16, 1e-12, 1e-8, 1e-4, 0.5, 0.99])
def test_kernel_ranks_equal_an_svd_of_every_span_matrix(tol):
    # The determinant bound decides most ranks; each must still be the
    # count the SVD gives.
    t, _, _, rank_m, rank_mp = _certificate_columns(family_weights(_ORACLE_ALPHAS), tol)[0][:5]
    inside = [i for i, ti in enumerate(t) if ti is not None]
    svd_m, svd_mp = span_ranks_svd(np.array([t[i] for i in inside]), tol).tolist()
    assert ([rank_m[i] for i in inside], [rank_mp[i] for i in inside]) == (svd_m, svd_mp)


def test_the_svd_runs_only_where_the_determinant_leaves_rank_open(monkeypatch):
    calls = []  # the number of span matrices in each rank_with_tol call

    def counting(m, tol):
        calls.append(len(m))
        return rank_with_tol(m, tol)

    monkeypatch.setattr(optimality, "rank_with_tol", counting)
    # On the scan grid at tol 1e-8 the bound decides all but the M' matrices
    # nearest pi, which sit in one block.
    _certificate_columns(family_weights(np.linspace(ALPHA_MIN, ALPHA_MAX, 1001)), 1e-8)
    assert calls == [11]
    # Away from pi, |det M'| is large enough everywhere: no call at all.
    calls.clear()
    _certificate_columns(family_weights(np.linspace(ALPHA_MIN, 2.5, 1001)), 1e-8)
    assert calls == []
    # Within the roundoff margin of the bound, rank 9 is not taken as proven:
    # 2 tol + 1e-12 exceeds |det M| by 5e-13, so M reaches the SVD with M'.
    weights = family_weights([2.0])
    (abs_det_m,) = _certificate_columns(weights, 1e-8)[0][1]
    tol = (abs_det_m - 5e-13) / _RANK9_DET_BOUND
    calls.clear()
    columns = _certificate_columns(weights, tol)[0]
    assert calls == [2]
    assert columns[3:5] == span_ranks_svd(np.array(columns[0]), tol).tolist()


def test_zero_expectations_on_family():
    result = zero_expectation_check(MapParams(0, 1, 1))
    assert result.max_w <= 1e-12
    assert result.max_wgamma <= 1e-12
    point = family_from_alpha(PI / 2)
    result = zero_expectation_check(point.params)
    assert result.max_w <= 1e-12
    assert result.max_wgamma <= 1e-12


def test_zero_expectation_guards():
    with pytest.raises(OffFamilyError):
        zero_expectation_check(MapParams(1, 1, 1))
    with pytest.raises(OffFamilyError):
        zero_expectation_check(MapParams(2 / 3, 2 / 3, 2 / 3))
    with pytest.raises(BoundaryCaseError):
        zero_expectation_check(MapParams(1, 0, 1))


def test_certify_interior_point():
    cert = certify(family_from_alpha(PI / 2).params)
    assert cert.verdict is Verdict.INDECOMPOSABLE_OPTIMAL
    assert cert.w_optimal and cert.wgamma_optimal
    d = cert.diagnostics
    assert d.rank_m == 9 and d.rank_mprime == 9
    assert d.max_abs_expectation_w <= 1e-10
    assert abs(d.det_m) > 1e-12 and abs(d.det_mprime) > 1e-12


def test_certify_t_one_point():
    cert = certify(MapParams(0, 1, 1))
    assert cert.verdict is Verdict.OPTIMAL_ONLY
    assert cert.w_optimal and not cert.wgamma_optimal
    assert cert.diagnostics.rank_m == 9
    assert cert.diagnostics.rank_mprime == 6  # frozen regression value
    assert abs(cert.diagnostics.det_mprime) <= 1e-9
    assert cert.diagnostics.note is not None


@pytest.mark.parametrize(
    "params, noted",
    [
        # t = 1.0005: M' is rank deficient at tol 1e-4, but t lies outside the window.
        (MapParams(2.4987500002460195e-07, 0.9995000001249376, 1.0004997500000623), False),
        # t = 1 + 5e-7, inside the window.
        (MapParams(2.499998750698889e-13, 0.9999994999999999, 1.00000049999975), True),
    ],
    ids=["t=1.0005", "t=1+5e-7"],
)
def test_the_t_one_note_keeps_to_its_window(params, noted):
    d = certify(params, tol=1e-4).diagnostics
    assert d.rank_mprime == 6
    assert (d.note is not None) is noted


def test_certify_boundary_point():
    cert = certify(MapParams(1, 0, 1))
    assert cert.verdict is Verdict.BOUNDARY
    assert cert.t is None
    assert not cert.w_optimal and not cert.wgamma_optimal
    assert cert.diagnostics.rank_m is None


def _window_verdict(k):
    return Verdict.BOUNDARY if k == 12 else Verdict.INDECOMPOSABLE_OPTIMAL


@pytest.mark.parametrize(
    "alpha, verdict",
    [pytest.param(PI / 3 + 10.0**-k, _window_verdict(k), id=f"pi/3+1e-{k}") for k in range(1, 13)]
    + [pytest.param(5 * PI / 3 - 10.0**-k, _window_verdict(k), id=f"5pi/3-1e-{k}") for k in range(1, 13)]
    + [
        pytest.param(PI + sign * d, verdict, id=f"pi{sign * d:+g}")
        for d, verdict in ((1e-6, Verdict.INDECOMPOSABLE_OPTIMAL), (1e-7, Verdict.OPTIMAL_ONLY))
        for sign in (1, -1)
    ],
)
def test_certify_near_the_ends(alpha, verdict):
    # 10^-k from each end, and on both sides of alpha = pi, where t = 1.
    assert certify(family_from_alpha(alpha).params).verdict is verdict


_OFFSETS = st.floats(-15.5, -0.5).map(lambda e: 10.0**e)
#: Uniform angles, and angles log-spaced toward both ends and toward pi from either side.
_ANGLES = st.one_of(
    st.floats(PI / 3, 5 * PI / 3),
    _OFFSETS.map(lambda d: PI / 3 + d),
    _OFFSETS.map(lambda d: 5 * PI / 3 - d),
    st.tuples(_OFFSETS, st.sampled_from([-1.0, 1.0])).map(lambda ds: PI + ds[0] * ds[1]),
)


@settings(max_examples=300, deadline=None)
@given(_ANGLES)
def test_verdict_follows_the_analytic_windows(alpha):
    # det M' vanishes only at t = 1, and M' loses rank at tol 1e-8 within
    # about 3.9e-7 of alpha = pi; the a = 1 boundary covers about 1.7e-12
    # at each end.  Between those windows both witnesses are certified.
    verdict = certify(family_from_alpha(alpha).params).verdict
    assert verdict is not Verdict.NOT_CERTIFIED
    if abs(alpha - PI) <= 1e-9:
        assert verdict is Verdict.OPTIMAL_ONLY
    elif abs(alpha - PI) >= 1e-4 and min(alpha - PI / 3, 5 * PI / 3 - alpha) >= 1e-11:
        assert verdict is Verdict.INDECOMPOSABLE_OPTIMAL


def test_certify_rejects_off_family():
    with pytest.raises(OffFamilyError):
        certify(MapParams(1, 1, 1))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_certify_rejects_a_tolerance_that_is_not_positive(tol):
    for run in (lambda: certify(MapParams(0, 1, 1), tol), lambda: certify_many([MapParams(0, 1, 1)], tol)):
        with pytest.raises(ValueError, match="^tol must be positive$"):
            run()


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(ALPHA_MIN, ALPHA_MAX),
    shift=st.tuples(*[st.floats(-2e-8, 2e-8)] * 3),
)
@example(alpha=ALPHA_MIN, shift=(0.0, 0.0, 0.0))
@example(alpha=ALPHA_MAX, shift=(0.0, 0.0, 0.0))
@example(alpha=PI, shift=(0.0, 0.0, 0.0))
@example(alpha=PI, shift=(0.0, 1e-8, -1e-8))
def test_on_family_check_is_false_exactly_where_certify_rejects_the_triple(alpha, shift):
    # Nonnegative triples within 2e-8 of a family point, on both sides of the
    # ON_FAMILY_TOL = 1e-8 edge of each condition; at alpha = pi, t = 1.
    p = MapParams(*[max(0.0, w + d) for w, d in zip(family_weights([alpha])[0].tolist(), shift)])
    rejected = False
    try:
        certify(p)
    except OffFamilyError:
        rejected = True
    except NonpositiveTError:  # on the family, with c = 0 and a clear of the a = 1 boundary
        pass
    assert on_family_check(p) is not rejected


def test_certify_verdict_case_split():
    alphas = np.linspace(PI / 3, 5 * PI / 3, 15)
    for alpha in alphas:
        cert = certify(family_from_alpha(float(alpha)).params)
        if alpha in (alphas[0], alphas[-1]):
            assert cert.verdict is Verdict.BOUNDARY
        elif alpha == alphas[7]:  # midpoint: alpha = pi
            assert cert.verdict is Verdict.OPTIMAL_ONLY
        else:
            assert cert.verdict is Verdict.INDECOMPOSABLE_OPTIMAL


def test_certificates_are_scale_invariant():
    # Scaling the witness leaves the span matrices untouched and keeps every
    # pair expectation at roundoff level, so the verdict inputs do not move.
    p = family_from_alpha(2.5).params
    t = p.c / (1 - p.a)
    w = witness_matrix(p).mat
    pairs = product_vectors(t)
    e0 = np.zeros(9)
    e0[0] = 1.0
    for scale in (0.25, 1.0, 80.0):
        # Linearity, checked on a vector the witness does not annihilate.
        assert expectation(scale * w, e0) == pytest.approx(
            scale * expectation(w, e0), rel=1e-14
        )
        scaled_max = max(
            abs(expectation(scale * w, kron_vec(q.psi, q.phi))) for q in pairs
        )
        assert scaled_max <= 1e-8
    assert certify(p).verdict is Verdict.INDECOMPOSABLE_OPTIMAL
