import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiwit import (
    MapParams,
    NotHermitianError,
    conj_vec,
    expectation,
    herm_eig_min,
    kron_vec,
    lu_det,
    partial_transpose_second,
    phi_apply,
    rank_with_tol,
    span_matrix,
    witness_matrix,
)
from oracles import eig3_min_cubic, random_hermitian, rank_row_reduction


def test_kron_vec_basis():
    e0 = np.array([1, 0, 0])
    e1 = np.array([0, 1, 0])
    out = kron_vec(e0, e1)
    expected = np.zeros(9)
    expected[1] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_kron_vec_all_ones():
    np.testing.assert_array_equal(kron_vec(np.ones(3), np.ones(3)), np.ones(9))


def test_kron_vec_hand_multiplied_pair():
    # (sqrt(t) e1 + e2) (x) (sqrt(t) e1 + t e2) at t = 4: entries at flat
    # indices 4, 5, 7, 8 are (4, 8, 2, 4).
    u = np.array([0.0, 2.0, 1.0])
    v = np.array([0.0, 2.0, 4.0])
    out = kron_vec(u, v)
    assert out[4] == 4 and out[5] == 8 and out[7] == 2 and out[8] == 4
    assert np.all(out[[0, 1, 2, 3, 6]] == 0)


def test_kron_vec_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        np.testing.assert_allclose(
            kron_vec(alpha * u, v), alpha * kron_vec(u, v), atol=1e-12
        )
        np.testing.assert_allclose(
            kron_vec(u, alpha * v), alpha * kron_vec(u, v), atol=1e-12
        )


def test_kron_vec_rejects_nan():
    with pytest.raises(ValueError):
        kron_vec([np.nan, 0, 0], [1, 0, 0])


def test_conj_vec():
    np.testing.assert_array_equal(
        conj_vec([1, 1j, -1j]), np.array([1, -1j, 1j])
    )
    real = np.array([0.3, -2.0, 5.0])
    np.testing.assert_array_equal(conj_vec(real), real)
    # phi_7 at t = 1 is (-i, 0, 1); conjugating flips the sign of the
    # imaginary part only.
    np.testing.assert_array_equal(conj_vec([-1j, 0, 1]), np.array([1j, 0, 1]))


def test_partial_transpose_identity():
    np.testing.assert_array_equal(
        partial_transpose_second(np.eye(9)), np.eye(9)
    )


def test_partial_transpose_moves_witness_entry():
    w = witness_matrix(MapParams(1, 1, 0)).mat
    assert w[0, 4] == pytest.approx(-1 / 6)
    wg = partial_transpose_second(w)
    assert wg[0, 4] == 0
    assert wg[1, 3] == pytest.approx(-1 / 6)


def test_partial_transpose_involution_and_hermiticity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        h = random_hermitian(rng, 9)
        hg = partial_transpose_second(h)
        assert np.abs(hg - hg.conj().T).max() <= 1e-14
        assert np.abs(partial_transpose_second(hg) - h).max() <= 1e-14


def test_lu_det_identity_and_diagonal():
    assert lu_det(np.eye(9)) == pytest.approx(1.0)
    assert lu_det(np.diag(np.arange(1.0, 10.0))) == pytest.approx(362880.0)


def test_lu_det_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        # 0/1 matrices give ties in the pivot search and exact zero pivots
        # (27 of the 50 below end in one); their determinants are integers.
        z = rng.integers(0, 2, (9, 9)).astype(complex)
        for m in (a, a[rng.permutation(9)], z, z[rng.permutation(9)]):
            ours = lu_det(m)
            ref = np.linalg.det(m)
            assert abs(ours - ref) <= 1e-9 * max(abs(ref), 1.0)


def test_lu_det_exact_zero_pivot():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    a[:, 2] = 0.0  # the third pivot is an exact zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lu_det(a) == 0


def test_an_overflowing_determinant_raises_without_a_warning():
    # Finite input whose determinant leaves the float range: numpy's overflow
    # warnings stay inside, and no NaN comes back.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="determinant overflows the float range"):
            lu_det(1e200 * np.eye(9))
        with pytest.raises(ArithmeticError, match="determinant overflows the float range"):
            lu_det(1.7e308 * np.array([[1.0, 1.0], [-1.0, 1.0]]))
        assert lu_det(1e34 * np.eye(9)) == pytest.approx(1e306, rel=1e-14)


def test_lu_det_rejects_stacks():
    with pytest.raises(ValueError):
        lu_det(np.stack([np.eye(9), np.eye(9)]))


def test_lu_det_multiplicative():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        prod = lu_det(a) * lu_det(b)
        assert abs(lu_det(a @ b) - prod) <= 1e-8 * abs(prod)


def test_lu_det_singular_is_near_zero():
    a = np.arange(81.0).reshape(9, 9)  # rank 2
    assert abs(lu_det(a)) <= 1e-9


def test_rank_with_tol():
    assert rank_with_tol(np.eye(9), 1e-10) == 9
    a = np.random.default_rng(0).standard_normal((9, 9))
    a[:, 3] = a[:, 7]
    assert rank_with_tol(a, 1e-8) <= 8
    assert rank_with_tol(np.zeros((9, 9)), 1e-8) == 0
    with pytest.raises(ValueError):
        rank_with_tol(np.eye(9), 0.0)


def test_rank_with_tol_near_the_float_limit():
    # Rank is scale-invariant: finite matrices whose singular values would
    # overflow, or whose entries are subnormal, keep their rank, with no warning.
    full = np.random.default_rng(1).standard_normal((9, 9))
    full /= np.abs(full).max()
    stack = [
        1e308 * np.ones((9, 9)),
        1e308 * full,
        np.diag(np.full(9, 1.7e308 + 1.7e308j)),
        np.outer(np.arange(1.0, 10.0) / 9, np.full(9, 1e308)),
        5e-324 * np.eye(9),
        np.zeros((9, 9)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rank_with_tol(np.array(stack), 1e-8).tolist() == [1, 9, 9, 1, 9, 0]
        assert rank_with_tol(1e308 * np.ones((9, 9)), 1e-8) == 1
        assert rank_with_tol(1e300 * np.ones((9, 9)), 1e-8) == 1


def test_rank_with_tol_of_an_empty_stack():
    # The certificate kernel skips the call when its determinant bound
    # decides every span matrix; an empty stack still gets an empty answer.
    ranks = rank_with_tol(np.zeros((0, 9, 9), dtype=complex), 1e-8)
    assert isinstance(ranks, np.ndarray)
    assert ranks.shape == (0,) and ranks.dtype.kind == "i"


def test_rank_of_conjugated_span_matrix_at_t_one():
    # Frozen regression value, confirmed by the row-reduction oracle: the
    # conjugated span matrix at t = 1 has rank 6 (its columns are the nine
    # symmetric products v (x) v, which live in the 6-dimensional symmetric
    # subspace).
    m = span_matrix(1.0, conjugated=True).mat
    m = m / np.linalg.norm(m, axis=0, keepdims=True)
    assert rank_with_tol(m, 1e-8) == 6
    assert rank_row_reduction(m, 1e-8) == 6


def test_herm_eig_min_examples():
    assert herm_eig_min(np.diag([3.0, 1.0, 2.0])) == pytest.approx(1.0)
    x = np.array([1.0, 1j, -2.0])
    x /= np.linalg.norm(x)
    proj = np.outer(x, x.conj())
    assert abs(herm_eig_min(proj)) <= 1e-12


def test_herm_eig_min_on_map_output():
    x = np.ones(3) / np.sqrt(3.0)
    out = phi_apply(MapParams(1, 1, 0), np.outer(x, x.conj()))
    value = herm_eig_min(out)
    assert value >= -1e-10
    assert abs(value - eig3_min_cubic(out)) <= 1e-12


def test_herm_eig_min_against_cubic_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        h = random_hermitian(rng, 3)
        assert abs(herm_eig_min(h) - eig3_min_cubic(h)) <= 1e-9


def test_herm_eig_min_nine_by_nine_against_numpy():
    rng = np.random.default_rng(19)
    for _ in range(20):
        h = random_hermitian(rng, 9)
        assert herm_eig_min(h) == pytest.approx(
            float(np.linalg.eigvalsh(h)[0]), abs=1e-10
        )


def test_herm_eig_min_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        herm_eig_min(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermiticity_guards_near_the_float_limit_raise_no_warning():
    # A Hermitian M whose M + M^dagger overflows is diagonalized; one whose
    # M - M^dagger overflows is rejected.  Neither lets a numpy warning out.
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert herm_eig_min(m) == pytest.approx(-1e308, rel=1e-15)
        m[1, 0] = -1.7e308
        m[0, 1] = 1.7e308
        with pytest.raises(NotHermitianError, match="not Hermitian within 1e-12"):
            herm_eig_min(m)
        with pytest.raises(NotHermitianError, match="not Hermitian within 1e-12"):
            expectation(m, np.ones(3))


def test_expectation_identity():
    v = np.zeros(9)
    v[0] = 1.0
    assert expectation(np.eye(9), v) == pytest.approx(1.0)


def test_expectation_rejects_non_hermitian():
    a = np.eye(9, dtype=complex)
    a[0, 1] = 1e-6
    with pytest.raises(NotHermitianError):
        expectation(a, np.ones(9))


@pytest.mark.parametrize("delta", [2e-12, 2e-12j])
def test_expectation_rejects_a_stack_off_hermitian_by_2e_12(delta):
    # W and W^Gamma at three points; expectation guards each one.
    w = [witness_matrix(MapParams(a, 1.0, 1.0)).mat for a in (0.0, 0.5, 1.0)]
    v = np.ones(9)
    for m in w + [partial_transpose_second(m) for m in w]:
        expectation(m, v)
        m[3, 7] += delta
        with pytest.raises(NotHermitianError):
            expectation(m, v)


def test_expectation_core_keeps_every_guard():
    # The finite and shape checks of expectation, on a W^Gamma.
    wg = partial_transpose_second(witness_matrix(MapParams(0.5, 1.0, 1.0)).mat)
    v = np.arange(9) * (1 - 2j)
    expectation(wg, v)
    nan = v.copy()
    nan[5] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        expectation(wg, nan)
    with pytest.raises(ValueError, match="NaN"):
        expectation(np.where(wg == 0, np.inf, wg), v)
    with pytest.raises(ValueError, match="square"):
        expectation(wg[:, :8], v)
    with pytest.raises(ValueError, match="square"):
        expectation(np.stack([wg, wg]), v)
    with pytest.raises(ValueError, match="must have shape"):
        expectation(wg, v[:8])
    with pytest.raises(ValueError, match="must have shape"):
        expectation(wg, np.stack([v, v]))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 11),
    w_exp=st.floats(-3, 3),
    v_exp=st.floats(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_expectation_is_one_matvec_and_vdot_bit_for_bit(n, w_exp, v_exp, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = 10.0**w_exp * (g + g.conj().T) / 2.0  # exactly Hermitian
    v = 10.0**v_exp * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    ref = np.vdot(v, w @ v).real
    assert np.float64(expectation(w, v)).tobytes() == ref.tobytes()


def test_expectation_rejects_an_imaginary_part_beyond_the_roundoff_bound():
    # Anti-Hermitian by 8e-13, inside the Hermiticity tolerance, but
    # <v|W|v> = 400 * 8e-13j = 3.2e-10j against a bound of about 1e-10.
    w = np.array([[0.0, 4e-13j], [4e-13j, 0.0]])
    message = r"quadratic form has imaginary part 3\.2e-10 beyond roundoff bound 1e-10"
    with pytest.raises(ArithmeticError, match=message):
        expectation(w, np.array([20.0, 20.0]))


def test_an_overflowing_form_raises_without_a_warning():
    # Finite Hermitian input whose form overflows the float range: numpy's
    # overflow warnings stay inside, and no NaN comes back.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="quadratic form overflows the float range"):
            expectation(1e308 * np.eye(3), np.full(3, 1e10))
        assert expectation(1e300 * np.eye(3), np.ones(3)) == pytest.approx(3e300, rel=1e-15)


def test_an_overflowing_eigenvalue_raises_without_a_warning():
    # Finite and Hermitian, with eigenvalues +-2.4e308: no NaN comes back.
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1], h[1, 0] = 1.7e308 + 1.7e308j, 1.7e308 - 1.7e308j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="smallest eigenvalue overflows the float range"):
            herm_eig_min(h)
        assert herm_eig_min(h / 2.0) == pytest.approx(-1.7e308 / np.sqrt(2.0), rel=1e-15)


def test_expectation_zero_on_family_pair():
    # On-family witnesses annihilate the first product pair (all-ones) and
    # the fourth (t-dependent) pair.
    p = MapParams(0, 1, 1)
    w = witness_matrix(p).mat
    assert abs(expectation(w, np.ones(9))) <= 1e-12
    v4 = kron_vec([0, 1, 1], [0, 1, 1])  # t = 1
    assert abs(expectation(w, v4)) <= 1e-12


def test_rank_det_consistency_on_span_matrices():
    # Full rank exactly when the determinant of the column-normalized span
    # matrix is bounded away from zero.
    rng = np.random.default_rng(23)
    for t in np.concatenate([[1.0], rng.uniform(0.05, 20.0, 20)]):
        for conjugated in (False, True):
            m = span_matrix(float(t), conjugated).mat
            m = m / np.linalg.norm(m, axis=0, keepdims=True)
            full = rank_with_tol(m, 1e-8) == 9
            assert full == (abs(lu_det(m)) > 1e-12)
