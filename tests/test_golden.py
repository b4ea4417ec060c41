"""Byte-level regression of the CLI outputs against files in tests/data.

The vectors files date from before the certificate kernel was batched.  The
scan files were re-captured once, when the certificate's determinants moved
from LU elimination to the proven closed forms divided by the column norms:
only the abs_det_M and abs_det_Mprime columns changed, in their last digits
(largest relative change 1.5e-15 and 7.5e-14, the latter next to t = 1,
where det M' is O((t-1)^3) and the LU value was mostly roundoff).  They
were re-captured a second time for the endpoint fix, with no verdict
changed: the max_expectation columns became max |<v|W|v>| / <v|v>, on
unit vectors (largest value on the 1001-point grid 1.2e-9 before, 3.7e-17
after), and the weights came from cancellation-free half-angle forms, which
moved a by up to 1.9e-11 relative (near pi), t by up to 4.7e-12 and the
determinants by up to 6.9e-12, and turned the endpoint rows' tiny b or c
into 0 or back.  They were re-captured a third time, with no verdict or
rank changed, when the certificate's forms moved from BLAS to the
witness's entries and a on the middle third of the angle range to its
own half angle.  The forms' order is the one tests/oracles.py documents in
witness_forms_stacked, and the kernel's real magnitude columns keep every
bit of it.  Before, the bytes held only under
the OpenBLAS kernel they were captured with; now they hold under every
kernel.  On the 1001-point grid 998 of the 1001 rows' max_expectation_W and
max_expectation_WGamma cells changed, at roundoff level (largest values
3.7e-17 and 3.1e-17 before, 3.6e-17 and 3.3e-17 after; exact zeros went
from 1 to 404 and 395); 458 a cells changed, the one at pi from 0 to its
true value and the rest by up to 1.5e-11 relative; t and the determinants
moved in the last digits (at most 3.7e-16, 1.5e-15 and 1.4e-13 relative) in 222,
198 and 213 rows.  check_third, check_near_start and check_near_end, text
and JSON, changed only in their two expectation maxima, also at roundoff
level.  Otherwise the files are not regenerated: a change that alters one
digit of these outputs fails here.

scan_steps101_tol1e-4.csv is a 101-step scan at tol 1e-4, captured before
the rank cells were first decided by the determinant bound: at that tol 33
of its 198 span matrices still reach the singular value decomposition and
the bound proves rank 9 for the rest, so it pins both ways of deciding.

The check files hold the stdout of check and check --json at five points
(t = 1, the a = 1 boundary, README's example and one point next to each end
of the angle range); check_goldens.json holds the argv and the exit code of
each, captured with them."""

import json
from pathlib import Path

import pytest

from choiwit.cli import main as cli_main

DATA = Path(__file__).parent / "data"

SCAN = ["scan", "--alpha-start", "pi/3", "--alpha-end", "5pi/3"]


GOLDEN = {
    "scan_steps13.csv": SCAN + ["--steps", "13"],
    "scan_steps1001.csv": SCAN + ["--steps", "1001"],
    "scan_steps13.json": SCAN + ["--steps", "13", "--format", "json"],
    "scan_steps101_tol1e-4.csv": SCAN + ["--steps", "101", "--tol", "1e-4"],
    "vectors_t4.txt": ["vectors", "4"],
    "vectors_t4_conjugated.txt": ["vectors", "4", "--conjugated"],
}


@pytest.mark.parametrize("golden", GOLDEN)
def test_output_matches_golden(tmp_path, golden):
    out = tmp_path / golden
    assert cli_main(GOLDEN[golden] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


CHECK_GOLDEN = json.loads((DATA / "check_goldens.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("golden", CHECK_GOLDEN)
def test_check_output_matches_golden(golden, capsys):
    run = CHECK_GOLDEN[golden]
    assert cli_main(run["argv"]) == run["exit_code"]
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (DATA / golden).read_bytes()
