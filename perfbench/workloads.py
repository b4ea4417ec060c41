"""The four workloads: inputs made from a seed, one operation each, and its oracle check.

Each workload is a closed loop driven by one calling thread: the next
operation starts when the previous one has returned.  CLI workloads call
``choiwit.cli.main(argv)`` in process; ``falsify_maps`` calls the library,
because no CLI path reaches ``positivity_search``.  choiwit only ever
receives the generated inputs; the oracles in ``oracle`` never call it.

Every check returns one of three outcomes:

* ``ok``: the output agrees with the oracle.
* ``refused``: the program declined an input the oracle says it should
  decide (an error exit on a valid input, ``NotCertified`` or
  ``OptimalOnly`` where more is certified, a falsifier that finds no
  violation).  choiwit's own semantics make these refusals, not false
  claims.
* ``wrong``: the program claimed something false (a value off tolerance, a
  verdict or exit code that contradicts the oracle, an invalid state
  accepted, CSV that differs between two identical scans).

Both count as failed operations; only ``wrong`` makes a run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import time
import warnings

import numpy as np

import oracle

TOL = 1e-8  # the CLI's default certificate tolerance
CERTIFIED = ("IndecomposableOptimal", "OptimalOnly")
CERTIFIED_OR_LESS = (*CERTIFIED, "NotCertified")
CSV_HEADER = (
    "alpha,a,b,c,t,abs_det_M,abs_det_Mprime,rank_M,rank_Mprime,"
    "max_expectation_W,max_expectation_WGamma,verdict"
)
OK, REFUSED, WRONG = "ok", "refused", "wrong"


def run_cli(argv):
    """Call ``choiwit.cli.main`` with captured output; returns ((start, end), raw).

    Only the call lies between start and end.
    """
    import choiwit.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is a refusal, checked below
            rc = exc
        t1 = time.perf_counter()
    return (t0, t1), (rc, out.getvalue(), err.getvalue())


def _refusal_of_exit(rc, err):
    if isinstance(rc, Exception):
        return f"raised {rc!r}"
    return f"exit {rc}: {err.strip()[:200]}"


def _check_certificate(expected, verdict, t, ref_t, rank_m, rank_mp, max_w, max_wg):
    """(outcome, detail) for one certificate against the oracle's verdict for its angle."""
    if expected is None:
        return OK, ""
    # Each verdict certifies less than the one before it; answering with a
    # weaker one declines part of a certificate that holds.
    if expected in CERTIFIED and verdict in CERTIFIED_OR_LESS[CERTIFIED_OR_LESS.index(expected) + 1 :]:
        return REFUSED, f"{verdict} where {expected} holds"
    if verdict != expected:
        return WRONG, f"verdict {verdict}, expected {expected}"
    if expected == "Boundary":
        return (OK, "") if t is None else (WRONG, f"t = {t!r} on the boundary")
    if t is None or abs(t - ref_t) > 1e-6 * ref_t:
        return WRONG, f"t = {t!r}, oracle {ref_t!r}"
    if rank_m != 9 or max_w > TOL:
        return WRONG, f"certified with rank_M {rank_m}, max expectation {max_w!r}"
    if expected == "IndecomposableOptimal" and (rank_mp != 9 or max_wg > TOL):
        return WRONG, f"indecomposable with rank_M' {rank_mp}, max expectation {max_wg!r}"
    if expected == "OptimalOnly" and rank_mp == 9:
        return WRONG, "OptimalOnly with a full-rank conjugated span matrix"
    return OK, ""


class ScanGrid:
    """``scan pi/3 .. 5pi/3 --steps 1001`` to CSV; the grid does not depend on the seed."""

    item = "grid points"
    cycle = 1

    def __init__(self, seed, workdir):
        self.ops = [self._scan("pi/3", oracle.ALPHA_MIN, "5pi/3", oracle.ALPHA_MAX, 1001)]
        # Untimed end windows, counted in attempted/failed so that a fix to the
        # endpoint defects cannot show up as a slowdown of the timed scans.
        self.extra_ops = [
            self._scan("pi/3", oracle.ALPHA_MIN, repr(oracle.ALPHA_MIN + 1e-3), oracle.ALPHA_MIN + 1e-3, 101),
            self._scan(repr(oracle.ALPHA_MAX - 1e-6), oracle.ALPHA_MAX - 1e-6, "5pi/3", oracle.ALPHA_MAX, 101),
        ]
        self.digest = None

    @staticmethod
    def _scan(start_arg, start, end_arg, end, steps):
        grid = [start + i * (end - start) / (steps - 1) for i in range(steps)]
        grid[-1] = end
        argv = ["scan", "--alpha-start", start_arg, "--alpha-end", end_arg, "--steps", str(steps)]
        return {"argv": argv, "grid": grid, "items": steps}

    def run(self, op):
        return run_cli(op["argv"])

    def check(self, op, raw):
        rc, out, err = raw
        if rc != 0:
            return REFUSED, _refusal_of_exit(rc, err)
        if op is self.ops[0]:
            digest = hashlib.sha256(out.encode()).hexdigest()
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                return WRONG, "CSV differs from the first scan of this run"
        lines = out.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return WRONG, "CSV header differs from the documented one"
        rows = lines[1:]
        if len(rows) != len(op["grid"]):
            return WRONG, f"{len(rows)} rows for {len(op['grid'])} grid points"
        refused = 0
        for i, (row, alpha_ref) in enumerate(zip(rows, op["grid"])):
            f = row.split(",")
            alpha, a, b, c = (float(v) for v in f[:4])
            ra, rb, rc_, one_minus_a = oracle.family_triple(alpha_ref)
            if abs(alpha - alpha_ref) > 1e-12 or max(abs(a - ra), abs(b - rb), abs(c - rc_)) > 1e-12:
                return WRONG, f"row {i}: (alpha, a, b, c) = {f[:4]} off the oracle"
            if abs(a + b + c - 2) > 1e-12 or abs(b * c - (1 - a) ** 2) > 1e-12:
                return WRONG, f"row {i}: family identities fail"
            t = float(f[4]) if f[4] else None
            rank_m = int(f[7]) if f[7] else None
            rank_mp = int(f[8]) if f[8] else None
            max_w = float(f[9]) if f[9] else math.inf
            max_wg = float(f[10]) if f[10] else math.inf
            outcome, detail = _check_certificate(
                oracle.expected_verdict(alpha_ref), f[11], t,
                rc_ / one_minus_a if one_minus_a > 0 else None, rank_m, rank_mp, max_w, max_wg,
            )
            if outcome == WRONG:
                return WRONG, f"row {i}: {detail}"
            refused += outcome == REFUSED
        if refused:
            return REFUSED, f"{refused} of {len(rows)} rows certify less than holds"
        return OK, ""


_TEXT_FIELDS = {
    "verdict": re.compile(r"^verdict: (\S+)$", re.M),
    "t": re.compile(r"^t: (\S+)$", re.M),
    "ranks": re.compile(r"^rank of span matrices: (\d+) / (\d+)$", re.M),
    "max_w": re.compile(r"^max \|expectation\| on the nine pairs \(W\): (\S+)$", re.M),
    "max_wg": re.compile(r"^max \|expectation\| on the nine pairs \(W\^G\): (\S+)$", re.M),
    "sample_min": re.compile(r"^separable sample min \(n=(\d+), seed=(\d+)\): (\S+)$", re.M),
}


def _parse_check_text(out):
    found = {k: rx.search(out) for k, rx in _TEXT_FIELDS.items()}
    if found["verdict"] is None or found["sample_min"] is None:
        raise ValueError("verdict or sample line missing")
    ranks = found["ranks"]
    return {
        "verdict": found["verdict"].group(1),
        "t": float(found["t"].group(1)) if found["t"] and found["t"].group(1)[0].isdigit() else None,
        "rank_M": int(ranks.group(1)) if ranks else None,
        "rank_Mprime": int(ranks.group(2)) if ranks else None,
        "max_expectation_W": float(found["max_w"].group(1)) if found["max_w"] else None,
        "max_expectation_WGamma": float(found["max_wg"].group(1)) if found["max_wg"] else None,
        "samples": int(found["sample_min"].group(1)),
        "seed": int(found["sample_min"].group(2)),
        "separable_sample_min": float(found["sample_min"].group(3)),
    }


class CheckPoints:
    """``check A B C`` on seeded family triples, 10k separable samples, JSON on half."""

    item = "triples checked"
    cycle = 40
    CYCLES = 8  # the pool: about 5 s of operations, covered in every run
    SAMPLES = 10000

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        ends = [oracle.ALPHA_MIN + 10.0**-k for k in range(3, 10)]
        ends += [oracle.ALPHA_MAX - 10.0**-k for k in range(3, 10)]
        self.ops = []
        for _ in range(self.CYCLES):
            alphas = list(ends)
            while len(alphas) < self.cycle - 1:
                alpha = float(rng.uniform(oracle.ALPHA_MIN, oracle.ALPHA_MAX))
                if abs(alpha - math.pi) >= oracle.T_ONE_OUTSIDE and oracle.ALPHA_MIN < alpha < oracle.ALPHA_MAX:
                    alphas.append(alpha)
            cycle = [self._op(alpha, *(repr(v) for v in oracle.family_triple(alpha)[:3])) for alpha in alphas]
            # The exact t = 1 triple, where only the witness side is certified.
            cycle.append(self._op(math.pi, "0", "1", "1"))
            for j in rng.permutation(len(cycle)):
                op = cycle[j]
                op["argv"] += ["--seed", str(int(rng.integers(2**31)))]
                if len(self.ops) % 2:
                    op["argv"].append("--json")
                self.ops.append(op)
            # Recompute the sampler independently on one operation per cycle.
            self.ops[-self.cycle]["verify_samples"] = True
        self.extra_ops = []

    @staticmethod
    def _op(alpha, a, b, c):
        return {"argv": ["check", a, b, c], "alpha": alpha, "abc": (float(a), float(b), float(c)), "items": 1}

    def run(self, op):
        return run_cli(op["argv"])

    def check(self, op, raw):
        rc, out, err = raw
        if rc == 2 or isinstance(rc, Exception):
            return REFUSED, _refusal_of_exit(rc, err)
        if rc not in (0, 1):
            return WRONG, f"exit {rc}"
        rec = json.loads(out) if "--json" in op["argv"] else _parse_check_text(out)
        verdict = rec["verdict"]
        if (verdict in CERTIFIED) != (rc == 0):
            return WRONG, f"exit {rc} with verdict {verdict}"
        a, b, c = op["abc"]
        one_minus_a = oracle.family_triple(op["alpha"])[3]
        ref_t = 1.0 if op["alpha"] == math.pi else c / one_minus_a
        outcome, detail = _check_certificate(
            oracle.expected_verdict(op["alpha"]), verdict, rec["t"], ref_t,
            rec["rank_M"], rec["rank_Mprime"],
            rec["max_expectation_W"] if rec["max_expectation_W"] is not None else math.inf,
            rec["max_expectation_WGamma"] if rec["max_expectation_WGamma"] is not None else math.inf,
        )
        if outcome != OK:
            return outcome, detail
        seed = int(op["argv"][op["argv"].index("--seed") + 1])
        sample_min = rec["separable_sample_min"]
        if rec["samples"] != self.SAMPLES or rec["seed"] != seed:
            return WRONG, f"sampler ran n={rec['samples']} seed={rec['seed']}"
        if not sample_min >= -1e-12:
            return WRONG, f"separable sample min {sample_min!r} is negative"
        if op.get("verify_samples"):
            ref = oracle.separable_sample_min(oracle.witness(a, b, c), self.SAMPLES, seed)
            if abs(sample_min - ref) > 1e-12:
                return WRONG, f"separable sample min {sample_min!r}, oracle {ref!r}"
        return OK, ""


class DetectStates:
    """``detect a b c FILE`` over state files written at set-up."""

    item = "states evaluated"
    KINDS = ("wishart",) * 8 + ("rank_deficient",) * 2 + ("max_entangled",) + ("isotropic",) * 2 + (
        "not_hermitian",
        "bad_trace",
        "negative_eigenvalue",
    )
    cycle = len(KINDS)
    CYCLES = 8  # the pool: 128 state files

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        states = workdir / "states"
        states.mkdir(parents=True)
        self.ops = []
        for _ in range(self.CYCLES):
            for j in rng.permutation(self.cycle):
                text = oracle.state_text(self._state(self.KINDS[j], rng))
                path = states / f"{len(self.ops):04d}.txt"
                path.write_text(text, encoding="utf-8")
                alpha = float(rng.uniform(oracle.ALPHA_MIN, oracle.ALPHA_MAX))
                abc = [repr(v) for v in oracle.family_triple(alpha)[:3]]
                self.ops.append({"argv": ["detect", *abc, str(path)], "text": text, "items": 1})
        self.extra_ops = []
        self._reference = {}

    @staticmethod
    def _state(kind, rng):
        def normalized(g):
            rho = g @ g.conj().T
            return rho / np.trace(rho).real

        def gaussian(cols):
            return rng.standard_normal((9, cols)) + 1j * rng.standard_normal((9, cols))

        omega = np.zeros(9, dtype=complex)
        omega[[0, 4, 8]] = 1 / math.sqrt(3)
        p_plus = np.outer(omega, omega)
        if kind == "wishart":
            return normalized(gaussian(18))
        if kind == "rank_deficient":
            return normalized(gaussian(int(rng.integers(1, 5))))
        if kind == "max_entangled":
            return p_plus
        if kind == "isotropic":
            p = rng.uniform(0.3, 1.0)
            return p * p_plus + (1 - p) * np.eye(9) / 9
        if kind == "not_hermitian":
            rho = normalized(gaussian(18))
            rho[0, 1] += 1e-6
            return rho
        if kind == "bad_trace":
            return 1.001 * normalized(gaussian(18))
        # negative_eigenvalue: unit trace, Hermitian, one eigenvalue at -1e-2.
        u, _ = np.linalg.qr(gaussian(9))
        lam = np.concatenate([rng.uniform(0.05, 1.0, 8), [0.0]])
        lam = lam / lam.sum() * 1.01
        lam[-1] = -0.01
        return (u * lam) @ u.conj().T

    def run(self, op):
        return run_cli(op["argv"])

    def _expected(self, op):
        key = op["argv"][-1]
        if key not in self._reference:
            rho = oracle.parse_state(op["text"])
            defect = oracle.state_defect(rho)
            a, b, c = (float(v) for v in op["argv"][1:4])
            value = None if defect else float(np.trace(oracle.witness(a, b, c) @ rho).real)
            self._reference[key] = (defect, value)
        return self._reference[key]

    def check(self, op, raw):
        rc, out, err = raw
        defect, ref = self._expected(op)
        if defect:
            return (OK, "") if rc == 2 else (WRONG, f"exit {rc} on a state that is {defect}")
        if rc == 2 or isinstance(rc, Exception):
            return REFUSED, _refusal_of_exit(rc, err)
        m = re.match(r"tr\(W rho\) = (\S+)\n", out)
        if m is None:
            return WRONG, "no tr(W rho) line"
        value = float(m.group(1))
        if abs(value - ref) > 1e-12:
            return WRONG, f"tr(W rho) = {value!r}, oracle {ref!r}"
        if rc != (0 if value < 0 else 1) or (abs(ref) > 1e-12 and (value < 0) != (ref < 0)):
            return WRONG, f"exit {rc} for tr(W rho) = {value!r}"
        return OK, ""


class FalsifyMaps:
    """Library calls to ``positivity_search(p, budget=200, seed)``.

    The disputed a in (1, 2] corner is left out: for a <= 1 the printed
    condition is the true positivity criterion, so every point has a known answer.
    """

    item = "maps searched"
    KINDS = ("family",) * 3 + ("positive",) * 2 + ("not_positive",) * 3
    cycle = len(KINDS)
    CYCLES = 6  # the pool: about 7 s of operations, covered in every run
    BUDGET = 200

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.ops = []
        for _ in range(self.CYCLES):
            for j in rng.permutation(self.cycle):
                kind = self.KINDS[j]
                a, b, c = self._point(kind, rng)
                self.ops.append({
                    "abc": (a, b, c),
                    "positive": kind != "not_positive",
                    "seed": int(rng.integers(2**31)),
                    "items": 1,
                })
        self.extra_ops = []
        self.warnings = 0

    @staticmethod
    def _point(kind, rng):
        if kind == "family":
            alpha = float(rng.uniform(oracle.ALPHA_MIN, oracle.ALPHA_MAX))
            return oracle.family_triple(alpha)[:3]
        if kind == "positive":
            # a + b + c >= 2 and bc >= (1 - a)^2, both by a clear margin.
            while True:
                a, b, c = float(rng.uniform(0, 1)), float(rng.uniform(0, 2.5)), float(rng.uniform(0, 2.5))
                if a + b + c >= 2.2 and b * c >= 1.5 * (1 - a) ** 2 + 0.01:
                    return a, b, c
        # not_positive: a + b + c >= 2 but bc well below (1 - a)^2.
        a = float(rng.uniform(0, 0.6))
        total = 2 - a + float(rng.uniform(0, 0.3))
        prod = float(rng.uniform(0.05, 0.4)) * (1 - a) ** 2
        root = math.sqrt(total**2 - 4 * prod)
        b, c = (total + root) / 2, (total - root) / 2
        return (a, b, c) if rng.random() < 0.5 else (a, c, b)

    def run(self, op):
        import choiwit

        params = choiwit.MapParams(*op["abc"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                result = choiwit.positivity_search(params, budget=self.BUDGET, seed=op["seed"])
            except Exception as exc:  # checked below as a refusal
                result = exc
            t1 = time.perf_counter()
        self.warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        return (t0, t1), result

    def check(self, op, result):
        if isinstance(result, Exception):
            return REFUSED, f"raised {result!r}"
        x = np.asarray(result.argmin, dtype=complex)
        if x.shape != (3,) or abs(np.linalg.norm(x) - 1) > 1e-12:
            return WRONG, "argmin is not a unit 3-vector"
        lam = float(np.linalg.eigvalsh(oracle.map_apply(*op["abc"], np.outer(x, x.conj())))[0])
        if abs(lam - result.min_value) > 1e-9:
            return WRONG, f"min_value {result.min_value!r}, oracle eigenvalue at argmin {lam!r}"
        if op["positive"] and result.min_value < -1e-9:
            return WRONG, f"violation {result.min_value!r} reported for a positive map"
        if not op["positive"] and result.min_value >= -1e-3:
            return REFUSED, f"no violation below -1e-3 found (min {result.min_value!r})"
        return OK, ""


WORKLOADS = {
    "scan_grid": ScanGrid,
    "check_points": CheckPoints,
    "detect_states": DetectStates,
    "falsify_maps": FalsifyMaps,
}
