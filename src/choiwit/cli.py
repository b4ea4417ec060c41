"""Command-line front end: family scans, single-point certificates, vector dumps and state
detection, with reproducible CSV/JSON output.  check builds one payload, which --json dumps
and whose text is the lines of _CHECK_LINES, so a new field is one entry there.

Exit codes: 0 success or affirmative result, 1 negative result, 2 usage or validation error,
3 I/O failure.  The subcommands raise on bad input or an unreadable file; main alone reports
it, as ``error: <message>`` on stderr with exit 2.  Every subcommand writes its output through
_write_output, which reports a failed write to stdout or --out and returns 3.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from .errors import ChoiwitError
from .maps import ALPHA_RANGE, MapParams, family_weights
from .witness import (
    detect,
    format_complex,
    parse_state_file,
    separable_sample_check,
    witness_matrix,
)

#: The names of the certificate kernel's record columns, in order: the scan columns after alpha, a, b and c.
RECORD_KEYS = ("t", "abs_det_M", "abs_det_Mprime", "rank_M", "rank_Mprime",
               "max_expectation_W", "max_expectation_WGamma", "verdict")
#: The keys of a scan record: the angle and the weights, then the certificate record's.
_SCAN_KEYS = ("alpha", "a", "b", "c") + RECORD_KEYS
CSV_HEADER = ",".join(_SCAN_KEYS)

#: Largest accepted --steps and --samples; a larger value is a usage error (exit 2).
MAX_STEPS = 10**6
MAX_SAMPLES = 10**6

#: 'pi' times an optional number ('5', '0.5', '.5', '2*'), over an optional denominator.
_PI_EXPR = re.compile(r"^(?:([0-9]+\.?[0-9]*|\.[0-9]+)\*?)?pi(?:/([0-9]+\.?[0-9]*))?$")


def parse_alpha(text: str) -> float:
    """Parse an angle given as a plain number or a fraction of pi ('pi/3', '5pi/3')."""
    s = text.strip().lower().replace(" ", "")
    m = _PI_EXPR.match(s)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0:
            raise ValueError(f"zero denominator in angle {text!r}")
        return num * math.pi / den
    try:
        return float(s)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}") from None


def parse_weight(text: str) -> float:
    """Parse a map weight given as a plain number or a simple fraction ('2/3'), one float per part."""
    num, sep, den = text.partition("/")
    if not sep:
        return float(num)
    divisor = float(den)
    if divisor == 0:
        raise ValueError(f"zero denominator in weight {text!r}")
    return float(num) / divisor


def _check_options(tol: float, samples: int = 1, seed: int = 0, steps: int = 2) -> None:
    """Raise ChoiwitError for a usage error in the --tol, --samples, --seed and --steps values."""
    if not (math.isfinite(tol) and tol > 0):
        raise ChoiwitError("--tol must be a positive finite number")
    if tol >= 1:
        raise ChoiwitError("--tol must be less than 1")
    if steps < 2:
        raise ChoiwitError("--steps must be at least 2")
    if steps > MAX_STEPS:
        raise ChoiwitError(f"--steps must be at most {MAX_STEPS}")
    if samples < 1:
        raise ChoiwitError("--samples must be at least 1")
    if samples > MAX_SAMPLES:
        raise ChoiwitError(f"--samples must be at most {MAX_SAMPLES}")
    if seed < 0:
        raise ChoiwitError("--seed must be a nonnegative integer")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _scan_values(alphas: list[float], tol: float) -> list[list]:
    """The scan's columns in CSV_HEADER order: the angles and the weights, then the kernel's record columns.

    One family_weights call and one kernel call cover the grid.  A row across
    the columns holds the values check's JSON gives under the same keys.
    """
    from .optimality import _certificate_columns  # here, in check and in vectors alone: detect never loads it

    weights = family_weights(alphas)
    return [alphas, *weights.T.tolist(), *_certificate_columns(weights, tol)[0]]


#: A CSV row in CSV_HEADER order: floats as _fmt prints them, ranks as integers.
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d,%.17g,%.17g,%s\n"
#: The a = 1 boundary row: alpha, a, b, c, seven empty cells (each %.0s prints its None as nothing), the verdict.
_CSV_BOUNDARY_ROW = "%.17g,%.17g,%.17g,%.17g," + "%.0s," * 7 + "%s\n"


def _scan_text(columns: list[list], fmt: str) -> str:
    """The scan output for _scan_values columns: CSV, or JSON with one record per row, both from one zip."""
    rows = zip(*columns)
    if fmt == "csv":
        templates = [_CSV_ROW if t is not None else _CSV_BOUNDARY_ROW for t in columns[4]]
        return CSV_HEADER + "\n" + "".join(map(str.__mod__, templates, rows))
    import json  # here and in check --json alone: a CSV scan, a text check and detect never load it

    records = [dict(zip(_SCAN_KEYS, row)) for row in rows]
    return json.dumps({"records": records}, indent=2) + "\n"


def _write_output(text: str, out_path: str | None) -> int:
    """Write text to out_path, or to stdout when it is None; return 3 after reporting a failed write."""
    try:
        if out_path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        if out_path is None:  # leave nothing in the buffer for the flush at exit to retry and fail on
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        target = "stdout" if out_path is None else out_path
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_scan(args) -> int:
    start = parse_alpha(args.alpha_start)
    end = parse_alpha(args.alpha_end)
    _check_options(args.tol, steps=args.steps)
    if not (ALPHA_RANGE[0] <= start < end <= ALPHA_RANGE[1]):
        raise ChoiwitError("need pi/3 <= alpha-start < alpha-end <= 5*pi/3")
    columns = _scan_values(np.linspace(start, end, args.steps).tolist(), args.tol)
    return _write_output(_scan_text(columns, args.format), args.out)


#: check's text, line by line: a label template and the payload keys that fill it, each value printed by _SHOW.
#: A line with a None value is left out, except t's, which reads "(boundary, undefined)" at a = 1.
_CHECK_LINES = (
    ("witness weights: a={} b={} c={}", ("a", "b", "c")),
    ("t: {}", ("t",)),
    ("verdict: {}", ("verdict",)),
    ("witness side optimal: {}", ("w_optimal",)),
    ("partial-transpose side optimal: {}", ("wgamma_optimal",)),
    ("max |expectation| on the nine pairs (W): {}", ("max_expectation_W",)),
    ("max |expectation| on the nine pairs (W^G): {}", ("max_expectation_WGamma",)),
    ("rank of span matrices: {} / {}", ("rank_M", "rank_Mprime")),
    ("|det| of column-normalized span matrices: {} / {}", ("abs_det_M", "abs_det_Mprime")),
    ("note: {}", ("note",)),
    ("separable sample min (n={}, seed={}): {}", ("samples", "seed", "separable_sample_min")),
)
_SHOW = {bool: lambda flag: "yes" if flag else "no", float: _fmt, int: str, str: str}  # exact types: True is an int


def cmd_check(args) -> int:
    from .optimality import _certified

    _check_options(args.tol, args.samples, args.seed)
    params = MapParams(args.a, args.b, args.c)
    (cert,), columns = _certified([params], args.tol)
    sample_min = separable_sample_check(witness_matrix(params), n=args.samples, seed=args.seed)
    payload = dict(zip(_SCAN_KEYS[1:], [params.a, params.b, params.c, *(value for (value,) in columns)]),
                   w_optimal=cert.w_optimal, wgamma_optimal=cert.wgamma_optimal, note=cert.diagnostics.note,
                   separable_sample_min=sample_min, samples=args.samples, seed=args.seed)
    if args.json:
        import json

        text = json.dumps(payload, indent=2)
    else:
        shown = {key: _SHOW[type(value)](value) for key, value in payload.items() if value is not None}
        shown.setdefault("t", "(boundary, undefined)")
        text = "\n".join(line.format(*map(shown.get, keys)) for line, keys in _CHECK_LINES if shown.keys() >= {*keys})
    return _write_output(text + "\n", None) or (0 if cert.w_optimal else 1)


def cmd_vectors(args) -> int:
    from .optimality import product_vectors, span_matrix

    pairs = product_vectors(args.t)  # raises NonpositiveTError unless t is positive and finite
    span = span_matrix(args.t, conjugated=args.conjugated)
    lines = []
    for pair in pairs:
        second = np.conj(pair.phi) if args.conjugated else pair.phi
        lines.append(" ".join(format_complex(z) for z in pair.psi))
        lines.append(" ".join(format_complex(z) for z in second))
    for i in range(9):
        lines.append(" ".join(format_complex(z) for z in span.mat[i]))
    return _write_output("\n".join(lines) + "\n", args.out)


def cmd_detect(args) -> int:
    value = detect(witness_matrix(MapParams(args.a, args.b, args.c)), parse_state_file(args.state))
    if value < 0:
        outcome, code = "state detected (negative expectation)", 0
    else:
        outcome, code = "state not detected (nonnegative expectation)", 1
    return _write_output(f"tr(W rho) = {_fmt(value)}\n{outcome}\n", None) or code


class _Parser(argparse.ArgumentParser):
    """Reads '-' and a digit, '.', 'inf' or 'nan' as a value ('-inf', '-1e-3'); subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.|inf|nan)", re.IGNORECASE)


#: The subcommand names; main gives arguments only to the one its argv starts with.
_COMMANDS = ("scan", "check", "vectors", "detect")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand; only command's gets its arguments, or every one's when it is None.

    argparse hands an argv that starts with a subcommand's name to that
    subcommand alone, so such an argv parses the same against either tree.
    """
    parser = _Parser(
        prog="choiwit",
        description="Construct qutrit entanglement witnesses and certify their optimality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="sweep the angle family and emit one record per grid point")
    if command in (None, "scan"):
        scan.add_argument("--alpha-start", required=True, help="grid start, e.g. pi/3 or 1.3")
        scan.add_argument("--alpha-end", required=True, help="grid end, e.g. 5pi/3")
        scan.add_argument("--steps", type=int, required=True, help="number of grid points (inclusive endpoints)")
        scan.add_argument("--out", default=None, help="output path (default: stdout)")
        scan.add_argument("--format", choices=("csv", "json"), default="csv")
        scan.add_argument("--tol", type=float, default=1e-8, help="certificate tolerance")
        scan.set_defaults(func=cmd_scan)

    check = sub.add_parser("check", help="certificate for a single weight triple")
    if command in (None, "check"):
        check.add_argument("a", type=parse_weight)
        check.add_argument("b", type=parse_weight)
        check.add_argument("c", type=parse_weight)
        check.add_argument("--json", action="store_true", help="emit the certificate as JSON")
        check.add_argument("--tol", type=float, default=1e-8, help="certificate tolerance")
        check.add_argument("--samples", type=int, default=10000, help="separable sample count")
        check.add_argument("--seed", type=int, default=0, help="separable sample seed")
        check.set_defaults(func=cmd_check)

    vectors = sub.add_parser("vectors", help="dump the nine vector pairs and the span matrix")
    if command in (None, "vectors"):
        vectors.add_argument("t", type=float, help="family parameter t > 0")
        vectors.add_argument("--conjugated", action="store_true", help="conjugate the second vector of each pair")
        vectors.add_argument("--out", default=None, help="output path (default: stdout)")
        vectors.set_defaults(func=cmd_vectors)

    det = sub.add_parser("detect", help="witness expectation in a state read from a file")
    if command in (None, "detect"):
        det.add_argument("a", type=parse_weight)
        det.add_argument("b", type=parse_weight)
        det.add_argument("c", type=parse_weight)
        det.add_argument("state", help="path to a 9-line state file")
        det.set_defaults(func=cmd_detect)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ChoiwitError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
