import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from choiwit import cli, optimality
from choiwit.cli import (
    CSV_HEADER,
    MAX_SAMPLES,
    MAX_STEPS,
    _scan_text,
    _scan_values,
    main,
    parse_alpha,
    parse_weight,
)
from choiwit.maps import ALPHA_MAX, ALPHA_MIN
from choiwit.optimality import KERNEL_BLOCK
from choiwit.witness import STATE_FILE_MAX_BYTES
from oracles import certificate_flags, record_to_csv_row, scan_record

DATA = Path(__file__).parent / "data"

pytestmark = pytest.mark.bit_for_bit


def run_cli(*argv):
    return main(list(argv))


def test_parse_alpha():
    assert parse_alpha("pi") == math.pi
    assert parse_alpha("pi/3") == math.pi / 3
    assert parse_alpha("5pi/3") == 5 * math.pi / 3
    assert parse_alpha("0.5pi") == 0.5 * math.pi
    assert parse_alpha(".5pi") == 0.5 * math.pi
    assert parse_alpha("2*pi") == 2 * math.pi
    assert parse_alpha("1.25") == 1.25
    for text in ("three", "2pi/"):
        with pytest.raises(ValueError, match=f"^cannot parse angle '{text}'$"):
            parse_alpha(text)
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
    """The CSV line _scan_text prints for a one-row scan holding the values of rec."""
    return _scan_text([[value] for value in rec.values()], "csv").removeprefix(CSV_HEADER + "\n")


def test_csv_rows_match_the_per_cell_oracle_on_scan_records():
    # The ends are a = 1 boundary rows with empty cells; pi is t = 1.
    alphas = [ALPHA_MIN, ALPHA_MIN + 1e-9, 2.0, math.pi, 4.5, ALPHA_MAX - 1e-9, ALPHA_MAX]
    certs = certify_many([family_from_alpha(a).params for a in alphas])
    assert certs[0].verdict == certs[-1].verdict == Verdict.BOUNDARY
    for alpha, cert in zip(alphas, certs):
        rec = scan_record(alpha, cert)
        assert _library_row(rec) == _csv_oracle(rec)


# Angles next to both ends at which the certificate still runs: the boundary
# (a = 1 within 1e-12), NotCertified rows near pi/3 and tiny t near 5pi/3.
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


def _scan_record_of(alpha, tol):
    """(exit code, stderr, the scan --format json record of alpha) from a two-point scan."""
    ends = (alpha, ALPHA_MAX) if alpha < ALPHA_MAX else (ALPHA_MIN, alpha)
    code, out, err, _ = _run_quietly([
        "scan", "--alpha-start", repr(ends[0]), "--alpha-end", repr(ends[1]),
        "--steps", "2", "--format", "json", "--tol", repr(tol),
    ])
    records = json.loads(out)["records"] if code == 0 else []
    return code, err, next((rec for rec in records if rec["alpha"] == alpha), None)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(SCAN_ALPHAS, st.sampled_from([ALPHA_MIN, ALPHA_MAX, math.pi])),
    st.sampled_from([1e-8, 1e-12, 1e-16, 0.5]),
)
@example(ALPHA_MIN, 1e-8)
@example(ALPHA_MAX, 1e-8)
@example(math.pi, 1e-8)
def test_check_prints_the_scan_record_of_its_point(alpha, tol):
    # check --json starts with the scan record of the same point, without
    # alpha, and its exit code follows the verdict rule.  Where either path
    # raises, both exit 2 with the same message.
    p = family_from_alpha(alpha).params
    code, out, err, _ = _run_quietly([
        "check", "--json", "--samples", "1", "--tol", repr(tol), repr(p.a), repr(p.b), repr(p.c),
    ])
    scan_code, scan_err, record = _scan_record_of(alpha, tol)
    if scan_code == 2 or code == 2:
        assert code == scan_code == 2
        assert err == scan_err
        assert out == "" and err.startswith("error: ")
        return
    assert (scan_code, err, scan_err) == (0, "", "")
    assert ",".join(record) == CSV_HEADER
    del record["alpha"]
    payload = json.loads(out)
    assert list(payload.items())[:11] == list(record.items())
    assert code == (0 if record["verdict"] in ("IndecomposableOptimal", "OptimalOnly") else 1)


def _certificate_records(alphas, tol):
    """The scan records of the grid built from certify_many certificates."""
    certs = certify_many([family_from_alpha(a).params for a in alphas], tol)
    return [scan_record(a, cert) for a, cert in zip(alphas, certs)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(SCAN_ALPHAS, max_size=25),
    st.sampled_from([1e-8, 1e-12, 1e-16, 0.5]),
    st.sampled_from([1, 7, KERNEL_BLOCK]),
)
def test_scan_rows_equal_the_certificate_path(extra, tol, block):
    # The scan's kernel runs in blocks of 1 or 7, so that a grid spans several,
    # or in one default block; the certificates come from default blocks.
    alphas = sorted(extra + [ALPHA_MIN, ALPHA_MAX, math.pi])
    with mock.patch.object(optimality, "KERNEL_BLOCK", block):
        columns = _scan_values(alphas, tol)
    records = _certificate_records(alphas, tol)
    csv = CSV_HEADER + "\n" + "".join(map(_csv_oracle, records))
    assert _scan_text(columns, "csv") == csv
    assert _scan_text(columns, "json") == json.dumps({"records": records}, indent=2) + "\n"


def test_scan_rows_when_only_the_w_side_fails():
    # At a tol between the two expectation maxima of a point, the W side fails
    # and the W^Gamma side passes: NotCertified, with wgamma_optimal still set.
    alphas = np.linspace(ALPHA_MIN, ALPHA_MAX, 101)[1:-1].tolist()
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
    flags = certificate_flags(cert.t, d.max_abs_expectation_w, d.max_abs_expectation_wgamma, 9, 9, tol)
    assert flags == (False, True, "NotCertified")
    assert (cert.w_optimal, cert.wgamma_optimal, cert.verdict.value) == flags
    assert _scan_values([alpha], tol)[-1] == ["NotCertified"]


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


def test_scan_bytes_do_not_depend_on_the_block_size(monkeypatch, capsys):
    outputs = {}
    for block in (1, 7, 64, 1001):
        monkeypatch.setattr(optimality, "KERNEL_BLOCK", block)
        for steps, fmt in ((13, "csv"), (13, "json"), (200, "csv"), (200, "json")):
            assert run_cli(*_SCAN, "--steps", str(steps), "--format", fmt) == 0
            outputs.setdefault((steps, fmt), set()).add(capsys.readouterr().out)
    assert [len(texts) for texts in outputs.values()] == [1, 1, 1, 1]
    assert outputs[13, "csv"] == {(DATA / "scan_steps13.csv").read_text(encoding="utf-8")}
    assert outputs[13, "json"] == {(DATA / "scan_steps13.json").read_text(encoding="utf-8")}


def test_a_scan_of_boundary_points_alone(capsys):
    # All three points are within BOUNDARY_TOL of a = 1: every CSV row has seven
    # empty cells before its verdict, every JSON record seven nulls.
    argv = ("scan", "--alpha-start", "1.0471975511965976", "--alpha-end", "1.04719755119670", "--steps", "3")
    assert run_cli(*argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert run_cli(*argv, "--format", "json") == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert header == CSV_HEADER and len(rows) == len(records) == 3
    for row, record in zip(rows, records):
        cells, values = row.split(","), list(record.values())
        assert cells[4:] == [""] * 7 + ["Boundary"]
        assert values[4:] == [None] * 7 + ["Boundary"]
        assert [float(cell) for cell in cells[:4]] == values[:4]


def test_scan_csv_and_json_agree_cell_for_cell_at_1001_steps(capsys):
    assert run_cli(*_SCAN, "--steps", "1001") == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert run_cli(*_SCAN, "--steps", "1001", "--format", "json") == 0
    records = json.loads(capsys.readouterr().out)["records"]
    keys = header.split(",")
    assert len(rows) == len(records) == 1001
    empty = 0
    for row, record in zip(rows, records):
        cells = row.split(",")
        assert list(record) == keys and len(cells) == len(keys)
        for key, cell, value in zip(keys, cells, record.values()):
            if cell == "":
                assert value is None
                empty += 1
            elif key in ("rank_M", "rank_Mprime"):
                assert type(value) is int and int(cell) == value
            elif key == "verdict":
                assert cell == value
            else:
                assert type(value) is float and repr(float(cell)) == repr(value)
    assert empty == 2 * 7  # the two a = 1 ends

def test_scan_unwritable_output(tmp_path):
    code = run_cli(
        "scan", "--alpha-start", "pi/3", "--alpha-end", "5pi/3",
        "--steps", "3", "--out", str(tmp_path / "missing" / "scan.csv"),
    )
    assert code == 3


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
def test_a_failed_write_exits_three(tmp_path):
    # Every subcommand writes through one path: a write to stdout or --out
    # that fails is an I/O error (exit 3), with one line on stderr.  Each
    # case runs with block-buffered stdout, as a shell redirect gives it, and
    # unbuffered: a buffered failure must not resurface at interpreter exit.
    buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    state = tmp_path / "state.txt"
    state.write_text(state_file_text(max_ent_projector()))
    scan = ["scan", "--alpha-start", "pi/3", "--alpha-end", "5pi/3", "--steps", "13"]
    reason = "[Errno 28] No space left on device"
    cases = [
        (scan, "stdout"),
        (["vectors", "4"], "stdout"),
        (["check", "0", "1", "1"], "stdout"),
        (["detect", "0", "1", "1", str(state)], "stdout"),
        (scan + ["--out", "/dev/full"], "/dev/full"),
    ]
    for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
        for argv, target in cases:
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "choiwit", *argv], stdout=full, stderr=subprocess.PIPE, text=True, env=env
                )
            expected = (3, f"error: cannot write {target}: {reason}\n")
            assert (proc.returncode, proc.stderr) == expected, (argv, "PYTHONUNBUFFERED" in env)


@pytest.mark.skipif(
    not (Path("/dev/full").exists() and Path("/proc/self/fd").is_dir()),
    reason="needs the /dev/full device and /proc/self/fd",
)
def test_a_failed_write_to_stdout_leaves_no_descriptor_open():
    # After a failed write, stdout is pointed at the null device; the
    # descriptor opened for that must not stay open.
    script = (
        "import os, sys\n"
        "from choiwit import cli\n"
        "before = len(os.listdir('/proc/self/fd'))\n"
        "code = cli.main(['vectors', '4'])\n"
        "after = len(os.listdir('/proc/self/fd'))\n"
        "print(code, before, after, file=sys.stderr)\n"
    )
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-c", script], stdout=full, stderr=subprocess.PIPE, text=True)
    code, before, after = map(int, proc.stderr.splitlines()[-1].split())
    assert (proc.returncode, code, after) == (0, 3, before)


def test_check_t_one_point(capsys):
    assert run_cli("check", "0", "1", "1") == 0
    out = capsys.readouterr().out
    assert "OptimalOnly" in out
    assert "separable sample min" in out


@pytest.mark.parametrize("tol", ["1e-300", "1e-20", "1e-17"])
def test_t_one_is_not_certified_on_the_transposed_side_at_any_tol(tol, capsys):
    # det M' = 0 exactly at t = 1 (tests/test_exact.py).  Below tol ~ 1e-16
    # the SVD of that singular matrix still counts roundoff singular values
    # up to rank 9, which once certified the W^Gamma side there.
    argv = ("check", "0", "1", "1", "--samples", "1", "--tol", tol)
    assert run_cli(*argv) == 0
    text = capsys.readouterr().out
    assert "verdict: OptimalOnly\n" in text
    assert "partial-transpose side optimal: no\n" in text
    assert "note: span test for the partially transposed witness degenerates at t = 1" in text
    assert run_cli(*argv, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["verdict"], payload["w_optimal"], payload["wgamma_optimal"]) == ("OptimalOnly", True, False)
    assert payload["abs_det_Mprime"] == 0 and payload["note"] is not None
    # The same point as the scan row at alpha = pi, where t = 1 exactly.
    assert run_cli(*_SCAN, "--steps", "13", "--tol", tol) == 0
    row = capsys.readouterr().out.splitlines()[7].split(",")
    assert (float(row[0]), float(row[4]), row[-1]) == (math.pi, 1.0, "OptimalOnly")
    (cert,) = certify_many([family_from_alpha(math.pi).params], float(tol))
    assert (cert.t, cert.wgamma_optimal, cert.verdict) == (1.0, False, Verdict.OPTIMAL_ONLY)
    assert cert.diagnostics.note is not None


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


def test_detect_evaluates_a_state_hermitian_only_within_tolerance(tmp_path, capsys):
    # 5e-11j on both sides of three entry pairs leaves I/9 Hermitian within 1e-10, a
    # valid state; against the witness scale 1/(3 * 0.001) its anti-Hermitian part
    # alone would give tr(W rho) an imaginary part of -1e-7.  Its Hermitian part is I/9.
    skew = np.eye(9, dtype=complex) / 9
    for i, j in [(0, 4), (0, 8), (4, 8)]:
        skew[i, j] = skew[j, i] = 5e-11j
    state = tmp_path / "skew.txt"
    state.write_text(state_file_text(skew))
    mixed = tmp_path / "mixed.txt"
    mixed.write_text(state_file_text(np.eye(9) / 9))
    assert run_cli("detect", "0.001", "0", "0", str(state)) == 1
    out = capsys.readouterr().out
    assert run_cli("detect", "0.001", "0", "0", str(mixed)) == 1
    assert out == capsys.readouterr().out
    assert out.splitlines()[1] == "state not detected (nonnegative expectation)"
    # The file keeps 12 decimals of 1/9.
    assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(1 / 9, abs=1e-12)


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


def test_detect_rejects_a_weight_sum_that_overflows(tmp_path, capsys):
    # 3(a+b+c) overflows: the scale would be 0, and so would tr(W rho).
    state = tmp_path / "state.txt"
    state.write_text(state_file_text(max_ent_projector()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("detect", "1e308", "1e308", "0", str(state)) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the witness scale 1/(3(a+b+c)) is zero; the weight sum overflows\n"
    assert run_cli("detect", "1e307", "1e307", "0", str(state)) == 1


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    """A directory of valid and invalid state files, read by relative or absolute name."""
    root = tmp_path_factory.mktemp("states")
    non_hermitian = np.eye(9, dtype=complex) / 9
    non_hermitian[0, 1] = 0.01
    files = {
        "ent.txt": state_file_text(max_ent_projector()),
        "mixed.txt": state_file_text(np.eye(9) / 9),
        "nonherm.txt": state_file_text(non_hermitian),
        "trace.txt": state_file_text(np.eye(9) / 8),
        "negeig.txt": state_file_text(np.diag([-0.1, 0.1 + 2 / 9] + [1 / 9] * 7)),
        "garbage.txt": "garbage\n",
        "badtoken.txt": ("x" + " 0" * 8 + "\n") * 9,
        "shortline.txt": "0 0\n" * 9,
        "nan.txt": ("nan+0j" + " 0" * 8 + "\n") * 9,
        # A valid state that blank lines carry one byte past the size cap.
        "big.txt": state_file_text(max_ent_projector()) + "\n" * STATE_FILE_MAX_BYTES,
    }
    for name, text in files.items():
        (root / name).write_text(text)
    return root


_SCAN = ("scan", "--alpha-start", "pi/3", "--alpha-end", "5pi/3")
_CHECK_OK = ("check", "0", "1", "1")
_ALPHA_RANGE = "need pi/3 <= alpha-start < alpha-end <= 5*pi/3"

#: Every usage error the subcommands report, as argv and the message after "error: ".
_USAGE_ERRORS = [
    (_SCAN + ("--steps", "1"), "--steps must be at least 2"),
    (_SCAN + ("--steps", "1000001"), "--steps must be at most 1000000"),
    (_SCAN + ("--steps", "3", "--tol", "0"), "--tol must be a positive finite number"),
    (_SCAN + ("--steps", "3", "--tol", "-1"), "--tol must be a positive finite number"),
    (_SCAN + ("--steps", "3", "--tol", "nan"), "--tol must be a positive finite number"),
    (_SCAN + ("--steps", "3", "--tol", "inf"), "--tol must be a positive finite number"),
    (_SCAN + ("--steps", "3", "--tol", "1"), "--tol must be less than 1"),
    (_SCAN + ("--steps", "3", "--tol", "1e301"), "--tol must be less than 1"),
    (("scan", "--alpha-start", "three", "--alpha-end", "5pi/3", "--steps", "3"),
     "cannot parse angle 'three'"),
    (("scan", "--alpha-start", "pi/3", "--alpha-end", "five", "--steps", "3"),
     "cannot parse angle 'five'"),
    (("scan", "--alpha-start", "pi/0", "--alpha-end", "5pi/3", "--steps", "3"),
     "zero denominator in angle 'pi/0'"),
    (("scan", "--alpha-start", "0", "--alpha-end", "pi", "--steps", "3"), _ALPHA_RANGE),
    (("scan", "--alpha-start", "pi", "--alpha-end", "pi", "--steps", "3"), _ALPHA_RANGE),
    (("scan", "--alpha-start", "pi", "--alpha-end", "6", "--steps", "3"), _ALPHA_RANGE),
    (("scan", "--alpha-start", "nan", "--alpha-end", "pi", "--steps", "3"), _ALPHA_RANGE),
    (("check", "1", "1", "1"), "not a family point: a+b+c = 3.0 differs from 2"),
    (("check", "2/3", "2/3", "2/3"),
     "not a family point: b*c = 0.4444444444444444 differs from (1-a)^2 = 0.11111111111111113"),
    (("check", "1.5", "0.25", "0.25"), "not a family point: a = 1.5 exceeds 1"),
    (("check", "0.5", "0.5", "1.5", "--tol", "0.9"), "not a family point: a+b+c = 2.5 differs from 2"),
    (("check", "1e308", "1e308", "0"), "not a family point: a+b+c = inf differs from 2"),
    (("check", "0.999999999", "1.000000001", "0"), "t must be a positive finite real, got 0.0"),
    (("check", "-1", "1", "2"), "a must be nonnegative, got -1.0"),
    (("check", "nan", "1", "1"), "a must be finite, got nan"),
    (("check", "inf", "1", "1"), "a must be finite, got inf"),
    (("check", "0", "0", "0"), "a + b + c must be positive"),
    (_CHECK_OK + ("--tol", "0"), "--tol must be a positive finite number"),
    (_CHECK_OK + ("--tol", "1"), "--tol must be less than 1"),
    (_CHECK_OK + ("--samples", "0"), "--samples must be at least 1"),
    (_CHECK_OK + ("--samples", "1000001"), "--samples must be at most 1000000"),
    (_CHECK_OK + ("--seed", "-1"), "--seed must be a nonnegative integer"),
    (("vectors", "0"), "t must be a positive finite real, got 0.0"),
    (("vectors", "-1"), "t must be a positive finite real, got -1.0"),
    (("vectors", "nan"), "t must be a positive finite real, got nan"),
    (("vectors", "inf"), "t must be a positive finite real, got inf"),
    (("vectors", "1e300"), "t must be below about 3e205, where the span entries overflow"),
    (("detect", "0", "1", "1", "nonherm.txt"), "state is not Hermitian within 1e-10"),
    (("detect", "0", "1", "1", "trace.txt"), "state trace differs from 1 by more than 1e-10"),
    (("detect", "0", "1", "1", "negeig.txt"), "state has an eigenvalue below -1e-10"),
    (("detect", "0", "1", "1", "garbage.txt"), "state file must have 9 nonempty lines, got 1"),
    (("detect", "0", "1", "1", "badtoken.txt"), "line 1, entry 1: cannot parse 'x'"),
    (("detect", "0", "1", "1", "shortline.txt"), "line 1 must have 9 entries, got 2"),
    (("detect", "0", "1", "1", "missing.txt"), "[Errno 2] No such file or directory: 'missing.txt'"),
    (("detect", "0", "1", "1", "."), "[Errno 21] Is a directory: '.'"),
    (("detect", "-1", "1", "1", "ent.txt"), "a must be nonnegative, got -1.0"),
    (("detect", "nan", "1", "1", "ent.txt"), "a must be finite, got nan"),
    (("detect", "0", "0", "0", "ent.txt"), "a + b + c must be positive"),
    (("detect", "5e-324", "0", "0", "ent.txt"),
     "the witness scale 1/(3(a+b+c)) is not finite; the weight sum is too small"),
    # Near a = 1 the guard compares sqrt(b*c) with |1-a|: b*c against (1-a)^2
    # admitted both triples, 1e-4 and 1e-5 off the family.
    (("check", "0.99995", "1.00005", "0"),
     "not a family point: b*c = 0.0 differs from (1-a)^2 = 2.499999999999449e-09"),
    (("check", "0.99999", "1.00001", "1e-300"),
     "not a family point: b*c = 1.0000100000000001e-300 differs from (1-a)^2 = 9.99999999990898e-11"),
    # A number part without a digit, or a '*' without a number, is not a fraction of pi.
    (("scan", "--alpha-start", ".pi", "--alpha-end", "5pi/3", "--steps", "3"),
     "cannot parse angle '.pi'"),
    (("scan", "--alpha-start", ".pi/3", "--alpha-end", "5pi/3", "--steps", "3"),
     "cannot parse angle '.pi/3'"),
    (("scan", "--alpha-start", "pi/3", "--alpha-end", "*pi", "--steps", "3"),
     "cannot parse angle '*pi'"),
    (("scan", "--alpha-start", "abc", "--alpha-end", "5pi/3", "--steps", "3"), "cannot parse angle 'abc'"),
    (("detect", "0", "1", "1", "nan.txt"), "state contains NaN or infinite entries"),
    # A file past the size cap, or one without end, is refused after the cap's worth of bytes.
    (("detect", "0", "1", "1", "big.txt"), f"state file is larger than {STATE_FILE_MAX_BYTES} bytes"),
    (("detect", "0", "1", "1", "/dev/zero"), f"state file is larger than {STATE_FILE_MAX_BYTES} bytes"),
]


@pytest.mark.parametrize("argv, message", _USAGE_ERRORS)
def test_usage_errors_exit_two_with_one_error_line(argv, message, state_dir, monkeypatch, capsys):
    monkeypatch.chdir(state_dir)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


#: Values that start with "-" and a digit, ".", "inf" or "nan", which argparse
#: alone reads as option flags; each must reach the library's guard instead.
_NEGATIVE_VALUES = [
    (("vectors", "-inf"), "t must be a positive finite real, got -inf"),
    (("vectors", "-2e0"), "t must be a positive finite real, got -2.0"),
    (("vectors", "-NaN"), "t must be a positive finite real, got nan"),
    (("check", "-1e-3", "1", "1"), "a must be nonnegative, got -0.001"),
    (("check", "-1/2", "1", "1"), "a must be nonnegative, got -0.5"),
    (("check", "1", "-nan", "1"), "b must be finite, got nan"),
    (("check", "0", "1", "-inf", "--json"), "c must be finite, got -inf"),
    (("detect", "1", "-1e-300", "1", "ent.txt"), "b must be nonnegative, got -1e-300"),
    (("scan", "--alpha-start", "-1e-3", "--alpha-end", "pi", "--steps", "3"), _ALPHA_RANGE),
]


@pytest.mark.parametrize("argv, message", _NEGATIVE_VALUES)
def test_negative_values_reach_the_library_guards(argv, message, state_dir, monkeypatch, capsys):
    monkeypatch.chdir(state_dir)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (_SCAN + ("--steps", "nope"), "choiwit scan: error: argument --steps: invalid int value: 'nope'"),
        (("scan", "--alpha-start", "pi/3", "--alpha-end", "pi"),
         "choiwit scan: error: the following arguments are required: --steps"),
        (("check", "x", "1", "1"), "choiwit check: error: argument a: invalid parse_weight value: 'x'"),
        (("check", "0", "1"), "choiwit check: error: the following arguments are required: c"),
        (("vectors", "x"), "choiwit vectors: error: argument t: invalid float value: 'x'"),
        (("detect", "1", "1", "0/0", "ent.txt"),
         "choiwit detect: error: argument c: invalid parse_weight value: '0/0'"),
        ((), "choiwit: error: the following arguments are required: command"),
    ],
)
def test_parser_errors_exit_two_with_usage(argv, last_line, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: choiwit")
    assert captured.err.endswith(f"\n{last_line}\n")


_NUMBERS = [
    "0", "1", "2", "-1", "0.5", "2/3", "1/3", "4/3", "nan", "inf", "-inf", "1e308", "5e-324",
    "1e-300", "1e300", "1/0", "0/0", "x", "", "pi", "pi/3", "5pi/3", "pi/0",
]
_FAMILY = [
    ("0", "1", "1"), ("1", "0", "1"), ("1/3", "1/3", "4/3"),
    ("2/3", repr(2 / 3 * (1 - math.sqrt(3) / 2)), repr(2 / 3 * (1 + math.sqrt(3) / 2))),
    ("0.999999999", "1.000000001", "0"),
]
_STATES = ["ent.txt", "mixed.txt", "nonherm.txt", "trace.txt", "garbage.txt", "badtoken.txt", "missing.txt", "."]


def _option(name, values):
    """No option, or the option with one of values."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, v]))


def _flag(name):
    return st.sampled_from([[], [name]])


_num = st.sampled_from(_NUMBERS)
_weights = st.one_of(st.sampled_from(_FAMILY).map(list), st.lists(_num, min_size=3, max_size=3))
_tol = _option("--tol", ["1e-8", "1e-12", "0.5", "0", "-1", "nan", "inf", "1", "1e-300", "x"])
_SCAN_ARGV = st.tuples(
    st.just(["scan"]),
    st.sampled_from(_NUMBERS + ["pi/2", "1.2"]).map(lambda v: ["--alpha-start", v]),
    st.sampled_from(_NUMBERS + ["pi/2", "4"]).map(lambda v: ["--alpha-end", v]),
    st.sampled_from(["2", "3", "5", "1", "0", "-1", "x", "1000001"]).map(lambda v: ["--steps", v]),
    _tol,
    _option("--format", ["csv", "json", "xml"]),
)
_CHECK_ARGV = st.tuples(
    st.just(["check"]),
    _weights,
    _tol,
    _option("--samples", ["1", "10", "0", "-1", "1000001", "x"]),
    _option("--seed", ["0", "7", "-1", "x"]),
    _flag("--json"),
)
_VECTORS_ARGV = st.tuples(st.just(["vectors"]), _num.map(lambda v: [v]), _flag("--conjugated"))
_DETECT_ARGV = st.tuples(st.just(["detect"]), _weights, st.sampled_from(_STATES).map(lambda s: [s]))
#: Random argv for all four subcommands, with state file names relative to a state directory.
ARGV = st.one_of(_SCAN_ARGV, _CHECK_ARGV, _VECTORS_ARGV, _DETECT_ARGV).map(
    lambda parts: [word for part in parts for word in part]
)


def _run_quietly(argv):
    """(exit code, stdout, stderr, warnings) of main on argv."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@settings(max_examples=200, deadline=None)
@given(argv=ARGV)
def test_main_never_raises(argv, state_dir):
    argv = [str(state_dir / word) if word in _STATES else word for word in argv]
    code, _, err, caught = _run_quietly(argv)
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    assert err == "" or err.startswith(("error: ", "usage: "))


def _subcommand_arguments(parser):
    """The dests of each subparser's actions, by subcommand name."""
    (subparsers,) = parser._subparsers._group_actions
    return {name: [action.dest for action in sub._actions] for name, sub in subparsers.choices.items()}


def test_build_parser_gives_arguments_to_the_named_subcommand_alone():
    full = _subcommand_arguments(cli.build_parser())
    assert list(full) == ["scan", "check", "vectors", "detect"]
    assert full["detect"] == ["help", "a", "b", "c", "state"]
    for command in full:
        assert _subcommand_arguments(cli.build_parser(command)) == {
            name: dests if name == command else ["help"] for name, dests in full.items()
        }


def _assert_the_full_tree_gives_the_same_bytes(argv):
    """main on argv gives the exit code, stdout and stderr it gives when build_parser builds every subcommand."""
    build_full_tree = cli.build_parser
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):  # help wraps at the terminal's width
        shipped = _run_quietly(list(argv))[:3]
        with mock.patch.object(cli, "build_parser", lambda command=None: build_full_tree()):
            assert _run_quietly(list(argv))[:3] == shipped


@pytest.mark.parametrize(
    "argv",
    [
        (), ("--help",), ("-h",), ("scan", "-h"), ("check", "-h"), ("vectors", "-h"), ("detect", "-h"),
        ("bogus",), ("-h", "scan"), ("scan", "check"),
        ("--", "scan", "--alpha-start", "pi/3", "--alpha-end", "pi", "--steps", "3"),
    ],
)
def test_help_and_parser_errors_are_those_of_the_full_tree(argv):
    _assert_the_full_tree_gives_the_same_bytes(argv)


@settings(max_examples=100, deadline=None)
@given(argv=ARGV)
def test_every_argv_reads_as_against_the_full_tree(argv, state_dir):
    _assert_the_full_tree_gives_the_same_bytes(
        [str(state_dir / word) if word in _STATES else word for word in argv]
    )
