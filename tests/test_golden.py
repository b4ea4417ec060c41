"""Byte-level regression of the CLI outputs against files captured before the
certificate kernel was batched.  The files are never regenerated: a change
that alters one digit of these outputs fails here."""

from pathlib import Path

import pytest

from choiwit.cli import main as cli_main

DATA = Path(__file__).parent / "data"

SCAN = ["scan", "--alpha-start", "pi/3", "--alpha-end", "5pi/3"]


GOLDEN = {
    "scan_steps13.csv": SCAN + ["--steps", "13"],
    "scan_steps1001.csv": SCAN + ["--steps", "1001"],
    "scan_steps13.json": SCAN + ["--steps", "13", "--format", "json"],
    "vectors_t4.txt": ["vectors", "4"],
    "vectors_t4_conjugated.txt": ["vectors", "4", "--conjugated"],
}


@pytest.mark.parametrize("golden", GOLDEN)
def test_output_matches_golden(tmp_path, golden):
    out = tmp_path / golden
    assert cli_main(GOLDEN[golden] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()
