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

import csv
import json
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from choiwit.cli import build_parser
from choiwit.cli import main as cli_main
from choiwit.optimality import _RANK9_DET_BOUND, _det_parts

DATA = Path(__file__).parent / "data"

pytestmark = pytest.mark.bit_for_bit

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


def _interior_rows():
    """(file, tol, a, c, t, |det M|, |det M'|, rank_M, rank_M') of every golden row off the a = 1 boundary.

    tol is the certificate tolerance of the command that wrote the file.
    """
    rows = []
    for name in ("scan_steps1001.csv", "scan_steps101_tol1e-4.csv", "scan_steps13.csv"):
        tol = build_parser().parse_args(GOLDEN[name]).tol
        with open(DATA / name, newline="", encoding="utf-8") as handle:
            rows += [(name, tol, r) for r in csv.DictReader(handle) if r["verdict"] != "Boundary"]
    for name in sorted(p.name for p in DATA.glob("check_*.json")):
        record = json.loads((DATA / name).read_text(encoding="utf-8"))
        if record.get("verdict", "Boundary") != "Boundary":  # check_goldens.json holds no record
            rows.append((name, build_parser().parse_args(CHECK_GOLDEN[name]["argv"]).tol, record))
    keys = ("a", "c", "t", "abs_det_M", "abs_det_Mprime", "rank_M", "rank_Mprime")
    return [(name, tol, *(float(r[k]) for k in keys)) for name, tol, r in rows]


def _closed_form_dets(t):
    """(|det M|, |det M'|) at the float t in 50-digit Decimals, each with its relative rounding bound.

    The bound is on the kernel's float |det|, counted in roundings of u = eps/2,
    bounded by gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., lemmas 3.1 and 3.3):
    - s = sqrt(t): 1.  t2 = t*t: 1, t4 = t2*t2: 3; 8*t4 is exact.
    - det M' numerator, -8 t4 s (t-1)^3: t - 1 of exact operands rounds once, so
      the product is within gamma_11 of its value (3 + 1 + 1 for 8 t4 s, 5 for
      the cube, 1 for the last product).
    - det M numerator: its factors t2 - 1, 2t - s + 2 and t - 4s + 1 subtract rounded
      terms, so Re is within gamma_12 and Im within gamma_10 of the same products
      evaluated on the terms' absolute values: 8 t^4 (t^2+1) s (2t+s+2) and
      8 t^5 (1+t) (t+4s+1).
    - Column norms: 3 exactly for pairs 1-3 (nine entries of magnitude 1); for pairs
      4-9 the four nonzero squares of s, t, s*s and s*t (at most 7 roundings each)
      added in 3 roundings, a square root halving those 10 and adding 1: 6 each.
      The product of the nine norms, 8 roundings in any order: 6*6 + 8 = 44.
    - The division by that product: 1.  hypot: at most 1 ulp, 2.
    So |det M'| is within gamma_58 relative.  |det M| is within gamma_47 + (1 + gamma_47)
    gamma_12 kappa, kappa the absolute-value products' hypot over |Re|, |Im|'s.
    The 50-digit values, _det_parts on Decimals over the product of the nine
    column norms, 27 t^3 (1+t)^6, are exact to far below one part in 1e40.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        u = Decimal(2) ** -53

        def gamma(k):
            return k * u / (1 - k * u)

        td = Decimal(t)
        s = td.sqrt()
        re, im, part = _det_parts(td, s)
        norms = 27 * td**3 * (1 + td) ** 6
        hyp = (re * re + im * im).sqrt()
        abs_re = 8 * td**4 * (td * td + 1) * s * (2 * td + s + 2)
        abs_im = 8 * td**5 * (1 + td) * (td + 4 * s + 1)
        kappa = (abs_re * abs_re + abs_im * abs_im).sqrt() / hyp
        bound_m = gamma(47) + (1 + gamma(47)) * gamma(12) * kappa
        return (hyp / norms, bound_m), (abs(part) * Decimal(2).sqrt() / norms, gamma(58))


def test_determinant_cells_are_the_50_digit_closed_forms_within_the_rounding_bound():
    # Each golden |det| is recomputed from the row's own float t, which must be
    # fl(c / (1 - a)) of the printed weights (%.17g round-trips), and must lie
    # within the rounding bound of _closed_form_dets.
    rows = _interior_rows()
    assert len(rows) == 999 + 99 + 11 + 4
    with localcontext() as ctx:
        ctx.prec = 50
        for name, _, a, c, t, det_m, det_mp, _, _ in rows:
            assert t == c / (1.0 - a), (name, t)
            (ref_m, bound_m), (ref_mp, bound_mp) = _closed_form_dets(t)
            assert abs(Decimal(det_m) - ref_m) <= bound_m * ref_m, (name, t)
            assert abs(Decimal(det_mp) - ref_mp) <= bound_mp * ref_mp, (name, t)


def test_rank_cells_are_9_where_the_50_digit_determinant_proves_it():
    # Where the 50-digit |det|, less its rounding bound, exceeds the kernel's
    # _RANK9_DET_BOUND * tol + 1e-12, the kernel's float |det| does too, and
    # sigma_min / sigma_max >= |det| / _RANK9_DET_BOUND > tol proves rank 9: the
    # printed rank must be 9.  The other cells were counted by the SVD; the byte
    # tests above pin them, as they do both of check_near_start's, where t is about
    # 1.7e9 and both determinants are below 1e-14.
    rows = _interior_rows()
    proven = dict.fromkeys((row[0] for row in rows), 0)
    with localcontext() as ctx:
        ctx.prec = 50
        for name, tol, _, _, t, _, _, rank_m, rank_mp in rows:
            threshold = Decimal(_RANK9_DET_BOUND * tol + 1e-12)
            for (ref, bound), rank, side in zip(_closed_form_dets(t), (rank_m, rank_mp), ("M", "M'")):
                if ref * (1 - bound) > threshold:
                    assert rank == 9, (name, t, side)
                    proven[name] += 1
    assert proven == {
        "check_near_end.json": 2, "check_near_start.json": 0, "check_t1.json": 1, "check_third.json": 2,
        "scan_steps1001.csv": 1987, "scan_steps101_tol1e-4.csv": 173, "scan_steps13.csv": 21,
    }
