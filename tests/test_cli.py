import json
import math
import subprocess
import sys

import numpy as np
import pytest

from choiwit import max_ent_projector, state_file_text
from choiwit.cli import CSV_HEADER, MAX_SAMPLES, MAX_STEPS, main, parse_alpha, parse_weight


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


def test_check_boundary_exits_one(capsys):
    assert run_cli("check", "1", "0", "1") == 1
    assert "Boundary" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_check_rejects_bad_tol(tol, capsys):
    assert run_cli("check", "0", "1", "1", "--tol", tol) == 2
    assert capsys.readouterr().err == "error: --tol must be a positive finite number\n"


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
