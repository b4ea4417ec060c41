import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiwit import (
    MapParams,
    OffFamilyError,
    Verdict,
    certify,
    certify_many,
    family_from_alpha,
    max_ent_projector,
    state_file_text,
)
from choiwit.cli import (
    CSV_HEADER,
    MAX_SAMPLES,
    MAX_STEPS,
    SCAN_BLOCK,
    _csv_row,
    _scan_record,
    _scan_text,
    _scan_values,
    main,
    parse_alpha,
    parse_weight,
)
from choiwit.maps import ALPHA_MAX, ALPHA_MIN
from oracles import certificate_flags, record_to_csv_row


def run_cli(*argv):
    return main(list(argv))


def test_parse_alpha():
    assert parse_alpha("pi") == math.pi
    assert parse_alpha("pi/3") == math.pi / 3
    assert parse_alpha("5pi/3") == 5 * math.pi / 3
    assert parse_alpha("0.5pi") == 0.5 * math.pi
    assert parse_alpha("1.25") == 1.25
    with pytest.raises(ValueError):
        parse_alpha("three")
    for text in ("pi/0", "5pi/0.0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_alpha(text)


def test_parse_weight():
    assert parse_weight("0.5") == 0.5
    assert parse_weight("2/3") == 2 / 3
    with pytest.raises(ValueError):
        parse_weight("x/y")
    for text in ("1/0", "0/0", "2/0.0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_weight(text)


def test_scan_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = run_cli(
        "scan", "--alpha-start", "pi/3", "--alpha-end", "5pi/3",
        "--steps", "13", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 14
    rows = [line.split(",") for line in lines[1:]]
    verdicts = [row[-1] for row in rows]
    assert verdicts[0] == "Boundary" and verdicts[-1] == "Boundary"
    assert verdicts[6] == "OptimalOnly"  # the alpha = pi grid point
    assert all(v == "IndecomposableOptimal" for v in verdicts[1:6] + verdicts[7:-1])
    # Boundary rows leave the t-derived fields empty.
    assert rows[0][4] == "" and rows[0][5] == "" and rows[0][7] == ""
    assert rows[1][4] != ""
    # Serialized ranks agree with the verdict.
    for row in rows:
        if row[-1] == "IndecomposableOptimal":
            assert row[7] == "9" and row[8] == "9"


def test_scan_is_byte_identical(tmp_path):
    args = ["scan", "--alpha-start", "pi/3", "--alpha-end", "5pi/3", "--steps", "13"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(first)) == 0
    assert run_cli(*args, "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_scan_json(tmp_path):
    out = tmp_path / "scan.json"
    code = run_cli(
        "scan", "--alpha-start", "pi/2", "--alpha-end", "pi",
        "--steps", "3", "--format", "json", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    records = payload["records"]
    assert len(records) == 3
    assert set(records[0]) == set(CSV_HEADER.split(","))
    assert records[-1]["verdict"] == "OptimalOnly"
    assert records[0]["verdict"] == "IndecomposableOptimal"
    assert records[0]["rank_M"] == 9


def test_scan_argument_guards(capsys):
    base = ["scan", "--alpha-start", "pi/3", "--alpha-end", "5pi/3"]
    assert run_cli(*base, "--steps", "1") == 2
    assert run_cli("scan", "--alpha-start", "0", "--alpha-end", "pi", "--steps", "5") == 2
    assert run_cli("scan", "--alpha-start", "pi", "--alpha-end", "pi", "--steps", "5") == 2
    assert run_cli(*base, "--steps", "nope") == 2
    assert run_cli(*base, "--steps", str(MAX_STEPS + 1)) == 2
    assert capsys.readouterr().err.endswith(f"error: --steps must be at most {MAX_STEPS}\n")


def test_zero_denominators_are_usage_errors(tmp_path, capsys):
    assert run_cli("check", "1/0", "1", "1") == 2
    assert "invalid parse_weight value: '1/0'" in capsys.readouterr().err
    state = tmp_path / "state.txt"
    state.write_text(state_file_text(np.eye(9) / 9))
    assert run_cli("detect", "1", "1", "0/0", str(state)) == 2
    assert "invalid parse_weight value: '0/0'" in capsys.readouterr().err
    code = run_cli("scan", "--alpha-start", "pi/0", "--alpha-end", "5pi/3", "--steps", "3")
    assert code == 2
    assert capsys.readouterr().err == "error: zero denominator in angle 'pi/0'\n"


def test_scan_rejects_bad_tol(capsys):
    base = ["scan", "--alpha-start", "pi/2", "--alpha-end", "pi", "--steps", "3"]
    assert run_cli(*base, "--tol", "-1") == 2
    assert capsys.readouterr().err == "error: --tol must be a positive finite number\n"


@pytest.mark.parametrize("tol", ["1", "2", "1e301"])
def test_scan_rejects_tol_of_one_or_more(tol, capsys):
    base = ["scan", "--alpha-start", "pi/2", "--alpha-end", "pi", "--steps", "3"]
    assert run_cli(*base, "--tol", tol) == 2
    assert capsys.readouterr().err == "error: --tol must be less than 1\n"
    assert run_cli(*base, "--tol", "0.999") == 0


def _csv_oracle(rec):
    return record_to_csv_row(rec, CSV_HEADER) + "\n"


def _library_row(rec):
    return _csv_row(tuple(rec.values()))


def test_scan_records_follow_the_csv_header():
    certs = certify_many([family_from_alpha(a).params for a in (ALPHA_MIN, math.pi)])
    for cert in certs:
        assert ",".join(_scan_record(1.0, cert)) == CSV_HEADER


def test_csv_rows_match_the_per_cell_oracle_on_scan_records():
    # The ends are a = 1 boundary rows with empty cells; pi is t = 1.
    alphas = [ALPHA_MIN, ALPHA_MIN + 1e-9, 2.0, math.pi, 4.5, ALPHA_MAX - 1e-9, ALPHA_MAX]
    certs = certify_many([family_from_alpha(a).params for a in alphas])
    assert certs[0].verdict == certs[-1].verdict == Verdict.BOUNDARY
    for alpha, cert in zip(alphas, certs):
        rec = _scan_record(alpha, cert)
        assert _library_row(rec) == _csv_oracle(rec)


# Angles next to both ends at which the certificate still runs: the boundary
# (a = 1 within 1e-12), NotCertified rows near pi/3 and tiny t near 5pi/3.
# At 5pi/3 - 1e-8, c rounds to 0 and the t check raises.
END_WINDOWS = [
    ALPHA_MIN + 1e-12,
    ALPHA_MIN + 1e-9,
    ALPHA_MIN + 1e-6,
    ALPHA_MIN + 1e-4,
    ALPHA_MAX - 1e-4,
    ALPHA_MAX - 1e-6,
    ALPHA_MAX - 1e-7,
    ALPHA_MAX - 1e-9,
    ALPHA_MAX - 1e-12,
]
SCAN_ALPHAS = st.one_of(st.floats(ALPHA_MIN + 1e-7, ALPHA_MAX - 1e-7), st.sampled_from(END_WINDOWS))


def _certificate_records(alphas, tol):
    """The scan records of the grid built from certify_many certificates."""
    certs = certify_many([family_from_alpha(a).params for a in alphas], tol)
    return [_scan_record(a, cert) for a, cert in zip(alphas, certs)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(SCAN_ALPHAS, max_size=2 * SCAN_BLOCK + 5),
    st.sampled_from([1e-8, 1e-12, 1e-16, 0.5]),
)
def test_scan_rows_equal_the_certificate_path(extra, tol):
    alphas = sorted(extra + [ALPHA_MIN, ALPHA_MAX, math.pi])
    values = _scan_values(alphas, tol)
    records = _certificate_records(alphas, tol)
    csv = CSV_HEADER + "\n" + "".join(map(_csv_oracle, records))
    assert _scan_text(values, "csv") == csv
    assert _scan_text(values, "json") == json.dumps({"records": records}, indent=2) + "\n"


def test_scan_rows_when_only_the_w_side_fails():
    # At a tol between the two expectation maxima of a point, the W side fails
    # and the W^Gamma side passes: NotCertified, with wgamma_optimal still set.
    alphas = np.linspace(ALPHA_MIN, ALPHA_MAX, 41)[1:-1].tolist()
    for alpha, cert in zip(alphas, certify_many([family_from_alpha(a).params for a in alphas])):
        d = cert.diagnostics
        if 0 < d.max_abs_expectation_wgamma < d.max_abs_expectation_w:
            break
    else:
        pytest.fail("no grid point has max_wgamma below max_w")
    tol = d.max_abs_expectation_wgamma
    cert = certify(cert.params, tol)
    d = cert.diagnostics
    assert (d.rank_m, d.rank_mprime) == (9, 9)
    flags = certificate_flags(d.max_abs_expectation_w, d.max_abs_expectation_wgamma, 9, 9, tol)
    assert flags == (False, True, "NotCertified")
    assert (cert.w_optimal, cert.wgamma_optimal, cert.verdict.value) == flags
    assert _scan_values([alpha], tol)[0][-1] == "NotCertified"


EXTREMES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308, 1 / 3]
FLOATS = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


def _record(values, ranks, verdict):
    keys = CSV_HEADER.split(",")
    rec = dict(zip(keys, values[:7] + ranks + values[7:] + [verdict]))
    assert list(rec) == keys
    return rec


@settings(max_examples=300, deadline=None)
@given(
    st.lists(FLOATS, min_size=9, max_size=9),
    st.lists(st.integers(0, 9), min_size=2, max_size=2),
    st.sampled_from([v.value for v in Verdict if v is not Verdict.BOUNDARY]),
)
def test_csv_rows_match_the_per_cell_oracle(values, ranks, verdict):
    rec = _record(values, ranks, verdict)
    assert _library_row(rec) == _csv_oracle(rec)


@settings(max_examples=100, deadline=None)
@given(st.lists(FLOATS, min_size=4, max_size=4))
def test_boundary_csv_rows_match_the_per_cell_oracle(values):
    rec = _record(values + [None] * 5, [None, None], Verdict.BOUNDARY.value)
    assert _library_row(rec) == _csv_oracle(rec)
    assert _library_row(rec).count(",,,,,,,,") == 1


@pytest.mark.parametrize("x", EXTREMES)
def test_csv_rows_print_extreme_floats_like_the_oracle(x):
    rec = _record([x] * 9, [0, 9], Verdict.NOT_CERTIFIED.value)
    assert _library_row(rec) == _csv_oracle(rec)
    assert _library_row(rec).split(",")[7:9] == ["0", "9"]


def test_scan_unwritable_output(tmp_path):
    code = run_cli(
        "scan", "--alpha-start", "pi/3", "--alpha-end", "5pi/3",
        "--steps", "3", "--out", str(tmp_path / "missing" / "scan.csv"),
    )
    assert code == 3


def test_check_t_one_point(capsys):
    assert run_cli("check", "0", "1", "1") == 0
    out = capsys.readouterr().out
    assert "OptimalOnly" in out
    assert "separable sample min" in out


def test_check_interior_point_json(capsys):
    b = 2 / 3 * (1 - math.sqrt(3) / 2)
    c = 2 / 3 * (1 + math.sqrt(3) / 2)
    assert run_cli("check", "--json", "2/3", repr(b), repr(c)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "IndecomposableOptimal"
    assert payload["w_optimal"] and payload["wgamma_optimal"]
    assert payload["separable_sample_min"] >= -1e-12


def test_check_rejects_off_family(capsys):
    assert run_cli("check", "1", "1", "1") == 2
    assert "a+b+c" in capsys.readouterr().err
    # Sums to 2 but violates the product condition.
    assert run_cli("check", "2/3", "2/3", "2/3") == 2


def test_check_family_guard_does_not_widen_with_tol(capsys):
    # a+b+c = 2.5: off the family whatever --tol, in check and in the kernel.
    assert run_cli("check", "0.5", "0.5", "1.5", "--tol", "0.9") == 2
    assert capsys.readouterr().err == "error: not a family point: a+b+c = 2.5 differs from 2\n"
    with pytest.raises(OffFamilyError):
        certify_many([MapParams(0.5, 0.5, 1.5)], tol=0.9)
    # Off by 5e-9, within the family tolerance 1e-8: check accepts the point
    # at a smaller --tol, as the kernel does, and certifies it at that tol.
    p = family_from_alpha(2.0).params
    triple = (repr(p.a), repr(p.b), repr(p.c + 5e-9))
    assert run_cli("check", *triple, "--tol", "1e-10") == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "verdict: NotCertified" in captured.out


def test_check_boundary_exits_one(capsys):
    assert run_cli("check", "1", "0", "1") == 1
    assert "Boundary" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_check_rejects_bad_tol(tol, capsys):
    assert run_cli("check", "0", "1", "1", "--tol", tol) == 2
    assert capsys.readouterr().err == "error: --tol must be a positive finite number\n"


@pytest.mark.parametrize("tol", ["1", "2", "1e301"])
def test_check_rejects_tol_of_one_or_more(tol, capsys):
    # No singular value exceeds tol * sigma_max once tol >= 1, and a huge tol
    # used to admit (0, 1e-300, 1e300) as a family point, whose t overflows.
    for triple in (("0", "1", "1"), ("0", "1e-300", "1e300")):
        assert run_cli("check", *triple, "--tol", tol) == 2
        assert capsys.readouterr().err == "error: --tol must be less than 1\n"


def test_check_rejects_bad_samples(capsys):
    assert run_cli("check", "0", "1", "1", "--samples", "0") == 2
    assert capsys.readouterr().err == "error: --samples must be at least 1\n"
    assert run_cli("check", "0", "1", "1", "--samples", str(MAX_SAMPLES + 1)) == 2
    assert capsys.readouterr().err == f"error: --samples must be at most {MAX_SAMPLES}\n"


def test_check_rejects_bad_seed(capsys):
    assert run_cli("check", "0", "1", "1", "--seed", "-1") == 2
    assert capsys.readouterr().err == "error: --seed must be a nonnegative integer\n"


def test_vectors_output(tmp_path):
    out = tmp_path / "vectors.txt"
    assert run_cli("vectors", "1", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 27
    # Pairs are interleaved: psi_4 is line 7, phi_4 is line 8 (1-based).
    assert lines[6] == "0+0j 1+0j 1+0j"
    assert lines[7] == "0+0j 1+0j 1+0j"


def test_vectors_at_t_four(tmp_path):
    out = tmp_path / "vectors.txt"
    assert run_cli("vectors", "4", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[7] == "0+0j 2+0j 4+0j"


def test_vectors_conjugated_flag(tmp_path):
    out = tmp_path / "vectors.txt"
    assert run_cli("vectors", "1", "--conjugated", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    # phi_3 = (1, -i, i); the dump carries its conjugate.
    assert lines[5] == "1+0j 0+1j 0-1j"


def test_vectors_rejects_nonpositive_t():
    assert run_cli("vectors", "-1") == 2
    assert run_cli("vectors", "0") == 2


def test_vectors_rejects_t_whose_span_entries_overflow(tmp_path, capsys):
    # The largest span entry is t * sqrt(t), finite up to about 3.2e205.
    assert run_cli("vectors", "1e300") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t must be below about 3e205, where the span entries overflow\n"
    for t in ("1e200", "3.1e205"):
        for flag in ([], ["--conjugated"]):
            out = tmp_path / "vectors.txt"
            assert run_cli("vectors", t, *flag, "--out", str(out)) == 0
            text = out.read_text()
            assert len(text.splitlines()) == 27
            assert "inf" not in text and "nan" not in text


def test_detect_max_ent_state(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text(state_file_text(max_ent_projector()))
    assert run_cli("detect", "0", "1", "1", str(state)) == 0
    out = capsys.readouterr().out
    assert "detected" in out
    value = float(out.splitlines()[0].split("=")[1])
    assert value == pytest.approx(-1 / 3, abs=1e-10)


def test_detect_maximally_mixed(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text(state_file_text(np.eye(9) / 9))
    assert run_cli("detect", "0", "1", "1", str(state)) == 1
    value = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
    assert value == pytest.approx(1 / 9, abs=1e-10)


def test_detect_rejects_a_weight_sum_too_small(tmp_path, capsys):
    # 1/(3(a+b+c)) overflows: a usage error, not a NaN expectation.
    state = tmp_path / "state.txt"
    state.write_text(state_file_text(np.eye(9) / 9))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("detect", "5e-324", "0", "0", str(state)) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the witness scale 1/(3(a+b+c)) is not finite; the weight sum is too small\n"
    )
    assert run_cli("detect", "1e-300", "0", "0", str(state)) == 1


def test_detect_malformed_state(tmp_path):
    state = tmp_path / "state.txt"
    state.write_text("garbage\n")
    assert run_cli("detect", "0", "1", "1", str(state)) == 2
    assert run_cli("detect", "0", "1", "1", str(tmp_path / "missing.txt")) == 2


def test_console_entry_point(tmp_path):
    # The same scan through the installed module must be byte-identical to
    # the in-process run.
    out = tmp_path / "sub.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "choiwit", "scan", "--alpha-start", "pi/3",
         "--alpha-end", "5pi/3", "--steps", "5", "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    direct = tmp_path / "direct.csv"
    assert run_cli(
        "scan", "--alpha-start", "pi/3", "--alpha-end", "5pi/3",
        "--steps", "5", "--out", str(direct),
    ) == 0
    assert out.read_bytes() == direct.read_bytes()
