import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiwit import (
    DensityMatrix,
    InvalidStateError,
    MapParams,
    WitnessMatrix,
    detect,
    family_from_alpha,
    max_ent_projector,
    parse_state_file,
    parse_state_text,
    partial_transpose_second,
    separable_sample_check,
    state_file_text,
    witness_from_map,
    witness_matrix,
)
from choiwit.witness import (
    _DIAG_WEIGHT,
    _OFF_ENTRIES,
    SAMPLE_BLOCK,
    STATE_FILE_MAX_BYTES,
    _form_matrix,
    _hermitian_coords,
    format_complex,
)
from oracles import (
    parse_state_text_loop,
    random_hermitian,
    separable_sample_min_blocked,
    separable_sample_min_einsum,
    trace_product,
    witness_matrix_loop,
)

FAMILY_ALPHAS = np.linspace(math.pi / 3, 5 * math.pi / 3, 21)


def family_params():
    return [family_from_alpha(float(a)).params for a in FAMILY_ALPHAS]


def test_projector_entries():
    p = max_ent_projector()
    assert p[0, 0] == pytest.approx(1 / 3)
    assert p[0, 4] == pytest.approx(1 / 3)
    assert np.trace(p) == pytest.approx(1.0)
    np.testing.assert_allclose(p @ p, p, atol=1e-15)


def test_witness_matrix_choi_point():
    w = witness_matrix(MapParams(1, 1, 0))
    assert w.scale == pytest.approx(1 / 6)
    assert w.mat[0, 0] == pytest.approx(1 / 6)
    assert w.mat[0, 4] == pytest.approx(-1 / 6)
    assert w.mat[2, 2] == 0


def test_witness_matrix_diagonal_pattern():
    w = witness_matrix(MapParams(0, 1, 1)).mat
    np.testing.assert_allclose(
        np.diag(w).real, np.array([0, 1, 1, 1, 0, 1, 1, 1, 0]) / 6, atol=1e-15
    )


def test_witness_matrix_hermitian_real_unit_trace():
    rng = np.random.default_rng(6)
    for _ in range(30):
        p = MapParams(*rng.uniform(0.0, 2.0, 3))
        w = witness_matrix(p).mat
        assert np.abs(w - w.conj().T).max() == 0
        assert np.abs(w.imag).max() == 0
        assert np.trace(w).real == pytest.approx(1.0, abs=1e-14)


# Exact zeros, the Choi point's weights and general magnitudes; the sum stays
# far enough from 0 and from overflow that the scale 1/(3(a+b+c)) is finite.
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 1.0, 2 / 3]),
    st.floats(1e-100, 1e100),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(WEIGHTS, WEIGHTS, WEIGHTS), min_size=0, max_size=8), st.integers(0, 8))
def test_witness_stack_is_bit_equal_to_the_loop(triples, at):
    # The witnesses of a list of points, each bit for bit the loop oracle's.
    triples.insert(min(at, len(triples)), (1.0, 1.0, 0.0))
    for p in [MapParams(*w) for w in triples if sum(w) > 0]:
        w = witness_matrix(p)
        assert w.mat.shape == (9, 9) and w.mat.dtype == complex
        assert w.mat.tobytes() == witness_matrix_loop(p).tobytes()
        assert w.scale == 1.0 / (3.0 * p.total)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(WEIGHTS, WEIGHTS, WEIGHTS), min_size=0, max_size=8), st.integers(0, 8))
def test_witness_pair_stack_is_the_stack_and_its_partial_transpose(triples, at):
    # The certificate kernel's forms read W and W^Gamma from the diagonal weights
    # and the pair tables alone: a matrix filled from each side's table must be bit
    # for bit each point's witness, then its partial transpose.
    triples.insert(min(at, len(triples)), (1.0, 1.0, 0.0))
    for weights in [np.array(w) for w in triples if sum(w) > 0]:
        w = witness_matrix(MapParams(*weights)).mat
        scale = 1.0 / (3.0 * (weights[0] + weights[1] + weights[2]))
        for entries, expected in zip(_OFF_ENTRIES, (w, partial_transpose_second(w))):
            filled = np.zeros((9, 9), dtype=complex)
            filled[range(9), range(9)] = weights[_DIAG_WEIGHT] * scale
            for i, j in entries:
                filled[i, j] = filled[j, i] = -scale
            np.testing.assert_array_equal(filled.view(np.int64), expected.view(np.int64))


def test_witness_stack_rejects_a_weight_sum_too_small():
    # 1/(3 * 5e-324) overflows; 0 * inf would put NaN in the witness.  The map
    # construction takes the same guard before it applies the map.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (witness_matrix, witness_from_map):
            for weights in ((5e-324, 0.0, 0.0), (0.0, 0.0, 1e-320), (1e-320, 0.0, 0.0)):
                with pytest.raises(ValueError, match="not finite; the weight sum is too small"):
                    build(MapParams(*weights))
            assert np.isfinite(build(MapParams(1e-300, 0, 0)).mat).all()


def test_witness_stack_rejects_a_weight_sum_that_overflows():
    # 3(a+b+c) overflows to inf, so the scale would be 0 and the witness all zeros.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (witness_matrix, witness_from_map):
            for weights in ((1e308, 1e308, 0.0), (1e308, 0.0, 0.0)):
                with pytest.raises(ValueError, match="is zero; the weight sum overflows"):
                    build(MapParams(*weights))
            assert build(MapParams(1e307, 0, 0)).scale > 0


@pytest.mark.parametrize("triple", [(1, 1, 0), (0, 1, 1), (2 / 3, 2 / 3, 2 / 3)])
def test_construction_equivalence_named_points(triple):
    p = MapParams(*triple)
    diff = np.abs(witness_from_map(p).mat - witness_matrix(p).mat).max()
    assert diff <= 1e-14


def test_construction_equivalence_random():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = MapParams(*rng.uniform(0.0, 2.0, 3))
        diff = np.abs(witness_from_map(p).mat - witness_matrix(p).mat).max()
        assert diff <= 1e-14


def test_partial_transpose_keeps_diagonal():
    for p in family_params():
        w = witness_matrix(p).mat
        wg = partial_transpose_second(w)
        assert np.abs(wg - wg.conj().T).max() <= 1e-15
        np.testing.assert_array_equal(np.diag(wg), np.diag(w))


def test_detect_max_ent_projector():
    for p in family_params():
        w = witness_matrix(p)
        rho = DensityMatrix(max_ent_projector())
        value = detect(w, rho)
        assert value == pytest.approx((p.a - 2) / 6, abs=1e-12)
        assert value < 0
        # Brute-force trace oracle.
        assert value == pytest.approx(trace_product(w.mat, rho.mat).real, abs=1e-14)


def test_detect_maximally_mixed():
    w = witness_matrix(MapParams(0, 1, 1))
    assert detect(w, np.eye(9) / 9) == pytest.approx(1 / 9, abs=1e-14)


def test_detect_product_basis_state():
    for p in [MapParams(0, 1, 1), family_from_alpha(2.0).params]:
        rho = np.zeros((9, 9))
        rho[0, 0] = 1.0
        assert detect(witness_matrix(p), rho) == pytest.approx(p.a / 6, abs=1e-14)


@pytest.mark.parametrize("weight_sum", [1e-300, 1e-100, 1e-3, 1.0])
def test_detect_is_real_within_roundoff_at_any_witness_scale(weight_sum):
    # On an exactly Hermitian complex state the imaginary part of tr(W rho) is
    # roundoff of the witness's entries, up to 1/(3 * weight_sum): above 1e-10 itself.
    rng = np.random.default_rng(1)
    g = rng.standard_normal((9, 18)) + 1j * rng.standard_normal((9, 18))
    rho = parse_state_text(state_file_text(g @ g.conj().T / np.trace(g @ g.conj().T).real))
    w = witness_matrix(MapParams(weight_sum, 0, 0))
    want = trace_product(w.mat, rho.mat).real
    assert detect(w, rho) == pytest.approx(want, rel=1e-13)


def test_detect_rejects_a_witness_whose_trace_is_not_real():
    w = WitnessMatrix(mat=1j * np.eye(9), params=MapParams(0, 1, 1), scale=1.0)
    with pytest.raises(ArithmeticError, match=r"^tr\(W rho\) has imaginary part 1 beyond roundoff bound 2e-10$"):
        detect(w, np.eye(9) / 9)


def test_detect_rejects_invalid_states():
    w = witness_matrix(MapParams(0, 1, 1))
    with pytest.raises(InvalidStateError):
        detect(w, np.eye(9))  # trace 9
    bad = np.zeros((9, 9), dtype=complex)
    bad[0, 0] = 1.0
    bad[0, 1] = 0.5  # not Hermitian
    with pytest.raises(InvalidStateError):
        detect(w, bad)
    indefinite = np.zeros((9, 9))
    indefinite[0, 0] = 1.5
    indefinite[1, 1] = -0.5
    with pytest.raises(InvalidStateError):
        detect(w, indefinite)


def test_density_matrix_rejects_a_wrong_shape_and_non_finite_entries():
    with pytest.raises(InvalidStateError, match=r"^state must have shape \(9, 9\), got \(3, 3\)$"):
        DensityMatrix(np.eye(3))
    nan = np.eye(9) / 9
    nan[4, 4] = np.nan
    with pytest.raises(InvalidStateError, match="^state contains NaN or infinite entries$"):
        DensityMatrix(nan)


@pytest.mark.parametrize(
    "entries, message",
    [
        # m - m^H overflows to inf.
        ({(0, 1): 1.7e308, (1, 0): -1.7e308}, "state is not Hermitian within 1e-10"),
        # Hermitian with unit trace, but (m + m^H) / 2 would overflow.
        ({(0, 1): 1e308, (1, 0): 1e308}, "state has an eigenvalue below -1e-10"),
        # The trace sums to inf - inf = NaN.
        ({(i, i): x for i, x in enumerate([1.7e308, 1.7e308, -1.7e308, -1.7e308])},
         "state trace differs from 1 by more than 1e-10"),
        # Hermitian with unit trace; eigvalsh gives NaN eigenvalues.
        ({(0, 1): 1.7e308 + 1.7e308j, (1, 0): 1.7e308 - 1.7e308j}, "state has an eigenvalue below -1e-10"),
    ],
    ids=["difference-overflows", "sum-would-overflow", "nan-trace", "nan-eigenvalues"],
)
def test_a_finite_non_state_near_the_float_limit_is_invalid_without_a_warning(entries, message):
    m = np.eye(9, dtype=complex) / 9  # the maximally mixed state, with entries written over it
    for index, value in entries.items():
        m[index] = value
    text = "\n".join(" ".join(repr(complex(z)) for z in row) for row in m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidStateError, match=f"^{message}$"):
            DensityMatrix(m)
        with pytest.raises(InvalidStateError, match=f"^{message}$"):
            parse_state_text(text)


def test_separable_samples_nonnegative_on_family():
    for p in family_params():
        low = separable_sample_check(witness_matrix(p), n=10_000, seed=0)
        assert low >= -1e-12
        assert low <= 1e-2  # zero is attained on product vectors, so the
        # sampled minimum approaches it from above


def test_separable_samples_deterministic():
    w = witness_matrix(MapParams(1, 1, 0))
    assert separable_sample_check(w, 500, 3) == separable_sample_check(w, 500, 3)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 7, 10_000]),
    alpha=st.floats(math.pi / 3, 5 * math.pi / 3, exclude_min=True, exclude_max=True),
    complex_witness=st.booleans(),
)
def test_separable_samples_match_einsum_oracle(seed, n, alpha, complex_witness):
    p = family_from_alpha(alpha).params
    w = witness_matrix(p)
    if complex_witness:
        # Family witnesses are real; only a complex W reaches the Im W blocks.
        # Unit spectral norm keeps the forms, and so their roundoff, of order 1.
        h = random_hermitian(np.random.default_rng(seed), 9)
        w = WitnessMatrix(mat=h / np.linalg.norm(h, 2), params=p, scale=w.scale)
    expected = separable_sample_min_einsum(w.mat, n, seed)
    assert abs(separable_sample_check(w, n, seed) - expected) <= 1e-14


@pytest.mark.bit_for_bit
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 7, 1000, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 1, 10_000]),
    alpha=st.floats(math.pi / 3, 5 * math.pi / 3, exclude_min=True, exclude_max=True),
    complex_witness=st.booleans(),
)
def test_separable_samples_match_the_blocked_sampler_reference(seed, n, alpha, complex_witness):
    # The reused block buffers keep every operand and its order: the minimum
    # is the former fresh-array loop's, bit for bit, on real and complex W.
    p = family_from_alpha(alpha).params
    w = witness_matrix(p)
    if complex_witness:
        h = random_hermitian(np.random.default_rng(seed), 9)
        w = WitnessMatrix(mat=h / np.linalg.norm(h, 2), params=p, scale=w.scale)
    assert separable_sample_check(w, n, seed) == separable_sample_min_blocked(w.mat, n, seed)


def test_separable_sampler_memory_is_the_draw_and_its_block_buffers():
    # The block buffers take about 0.8 MB; the former fresh arrays in every
    # block peaked at 2206 KiB here.
    w = witness_matrix(MapParams(1, 1, 0))
    n = 10_000
    separable_sample_check(w, n, 0)
    tracemalloc.start()
    try:
        separable_sample_check(w, n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * 96 + 2**20


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hermitian_coordinate_form_matches_vdot(seed):
    # Pins the coordinate order and the sign of the Im coordinates: p.(K q)
    # must be <x (x) y|W|x (x) y> for complex W and unnormalized x, y.
    rng = np.random.default_rng(seed)
    w = random_hermitian(rng, 9)
    x, y = (
        rng.uniform(0.1, 10) * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        for _ in range(2)
    )
    p, q = (_hermitian_coords(z.real[:, None], z.imag[:, None], np.empty((9, 1)), np.empty((3, 1)))[:, 0] for z in (x, y))
    v = np.kron(x, y)
    expected = np.vdot(v, w @ v).real
    scale = np.vdot(x, x).real * np.vdot(y, y).real * np.linalg.norm(w, 2)
    assert abs(p @ _form_matrix(w) @ q - expected) <= 1e-14 * scale
    assert p[:3].sum() == pytest.approx(np.vdot(x, x).real, rel=1e-15)


def test_separable_samples_need_at_least_one_sample():
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        separable_sample_check(witness_matrix(MapParams(0, 1, 1)), n=0, seed=0)


def test_separable_samples_reject_bad_witness():
    w = witness_matrix(MapParams(1, 1, 0))
    nan = w.mat.copy()
    nan[3, 5] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        separable_sample_check(WitnessMatrix(nan, w.params, w.scale), 10, 0)
    with pytest.raises(ValueError, match="shape"):
        separable_sample_check(WitnessMatrix(w.mat[:8, :8], w.params, w.scale), 10, 0)


def test_state_file_round_trip():
    mat = max_ent_projector()
    text = state_file_text(mat)
    assert len(text.strip().splitlines()) == 9
    assert text.splitlines()[0].split()[0] == "0.333333333333+0.000000000000j"
    rho = parse_state_text(text)
    assert np.abs(rho.mat - mat).max() <= 1e-12


def test_state_file_rejects_malformed_input():
    with pytest.raises(InvalidStateError):
        parse_state_text("not numbers at all\n")
    with pytest.raises(InvalidStateError):
        parse_state_text(state_file_text(np.eye(9)))  # trace 9
    good = state_file_text(max_ent_projector())
    truncated = "\n".join(good.splitlines()[:5])
    with pytest.raises(InvalidStateError):
        parse_state_text(truncated)


def test_a_state_file_reads_up_to_its_size_cap(tmp_path):
    # Blank lines pad a valid state to the cap exactly; one more byte refuses it unparsed.
    text = state_file_text(max_ent_projector())
    padded = tmp_path / "padded.txt"
    padded.write_text(text + "\n" * (STATE_FILE_MAX_BYTES - len(text)))
    assert padded.stat().st_size == STATE_FILE_MAX_BYTES
    assert parse_state_file(padded).mat.tobytes() == parse_state_text(text).mat.tobytes()
    with padded.open("a") as handle:
        handle.write("\n")
    with pytest.raises(InvalidStateError, match=f"^state file is larger than {STATE_FILE_MAX_BYTES} bytes$"):
        parse_state_file(padded)


def _parsed(parse, text):
    """The matrix bits parse gives for text, or the type and message of its error."""
    try:
        return parse(text).mat.tobytes()
    except InvalidStateError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), digits=st.sampled_from([None, 12, 17]))
def test_state_parser_round_trip_matches_the_former_loop(seed, digits):
    # Random full-rank states written with 12 or 17 decimals, or as Python's
    # repr of each complex, read back bit for bit as the former parser reads them.
    g = random_hermitian(np.random.default_rng(seed), 9)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    if digits == 12:
        text = state_file_text(rho)
    else:
        text = "\n".join(
            " ".join(repr(complex(z)) if digits is None else format_complex(z, digits) for z in row)
            for row in rho
        )
    assert not isinstance(_parsed(parse_state_text, text), tuple)
    assert _parsed(parse_state_text, text) == _parsed(parse_state_text_loop, text)


SIMPLE_TOKENS = st.sampled_from(
    ["0", "-0.0-0.0j", "1e-3", "(1+2j)", "2j", "1+0j", "inf", "nan", "abc", "1+", "0x1"]
)
TOKENS = st.one_of(
    SIMPLE_TOKENS,
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(lambda z: format_complex(z, 12)),
)


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(st.lists(SIMPLE_TOKENS, min_size=8, max_size=10), min_size=8, max_size=10),
    token=TOKENS,
    at=st.integers(0, 80),
    blank=st.integers(0, 10),
    valid=st.booleans(),
)
def test_state_parser_matches_the_former_loop_on_any_text(lines, token, at, blank, valid):
    # Valid or not, every text gives the former parser's matrix or its message.
    if valid:  # the maximally mixed state with one entry replaced
        lines = [[format_complex(1 / 9 if i == k else 0.0, 12) for k in range(9)] for i in range(9)]
        lines[at // 9][at % 9] = token
    rows = [" ".join(line) for line in lines]
    rows.insert(min(blank, len(rows)), "  ")
    text = "\n".join(rows)
    assert _parsed(parse_state_text, text) == _parsed(parse_state_text_loop, text)
