"""The three seeded workloads: input generation, one timed operation, verification.

Every workload is a closed loop: one caller in one process sends the next
operation when the previous one returns.  Inputs depend only on the seed.
Continuous inputs are drawn by stratified sampling (one draw per equal-width
stratum, in log space where the range spans decades), so every seed sees the
same input mix without the inputs themselves being fixed; the operations are
then shuffled.  Each workload has at least 100 operations, so that more than
ten of them lie beyond the p90 of their latencies.

The timed inputs stay clear of the program's known defects, so that any
failed operation is a regression.  Each known defect is instead reproduced by
a fixed configuration in the workload's ``known`` list, with the failure
reasons it is expected to give; every run verifies these once, outside the
timed region, so a fix shows as fewer known failures.  The timed inputs keep
out of these regions:

  * generic positions within ``NEAR_RATIONAL`` of a rational P/N with
    N <= k_max / pi, where the level pair near N pi is nearly degenerate
    and the scan grid drops one (the exact path is what serves such
    positions);
  * spectrum-deep cut-offs with a level less than ``CUTOFF_CLEARANCE``
    below k_max, which falls in the last partial scan cell and is dropped;
  * certify couplings 0 < f < ``CERTIFY_MIN_ATTRACTIVE_F``, where the
    `check` command's oracle (default --oracle-m) misses its tolerance.

Package functions are always looked up through their module at call time
(``spectrum.full_spectrum``, ``cli.main``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np
from wellspec import cli, model, spectrum, wavefn

import verify

PI = math.pi
CHECK_KMAX = 20.0 * PI  # the `check` command's default --kmax, in kL
WAVE_GRID = [i / 1000.0 for i in range(1001)]
DISPERSION_KMAX = 9
DISPERSION_SAMPLES = 400  # the dispersion-curve command's default --samples-per-pi
SWEEP_STEPS = 199
NEAR_RATIONAL = 1e-5  # failures seen up to |N rho - P| ~ 3e-7
CUTOFF_CLEARANCE = PI / 32  # two cells of the solver's base scan grid
CERTIFY_MIN_ATTRACTIVE_F = 0.2  # oracle failures seen up to f ~ 0.12


@dataclass(frozen=True)
class Op:
    label: str  # names the configuration, for failure reports
    params: dict  # the generated input; hashed to identify a run's inputs


@dataclass(frozen=True)
class Failed:
    """Output of an operation that raised."""

    error: str


def log_strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One log-uniform draw from each of n equal strata of [lo, hi], by stratum."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + rng.random()) / n) for i in range(n)]


def rational(rng: random.Random) -> tuple[int, int]:
    """A reduced P/N strictly inside (0, 1) with N <= 12."""
    n = rng.randint(2, 12)
    p = rng.randint(1, n - 1)
    g = math.gcd(p, n)
    return p // g, n // g


def near_rational(rho: float, n_max: int) -> bool:
    """True when some P/N with N <= n_max lies within NEAR_RATIONAL of rho, measured as |N rho - P|."""
    n = np.arange(1, max(1, n_max) + 1)
    return bool(np.min(np.abs(n * rho - np.round(n * rho))) < NEAR_RATIONAL)


def generic_rho(rng: random.Random, k_max: float) -> float:
    """A uniform position in (0.005, 0.995) away from the rationals the exact path serves."""
    while True:
        rho = rng.uniform(0.005, 0.995)
        if not near_rational(rho, math.ceil(k_max / PI)):
            return rho


def level_near_cutoff(rho: float, f: float, k_max: float) -> bool:
    """True when a level may lie in (k_max - CUTOFF_CLEARANCE, k_max]."""
    below = k_max - CUTOFF_CLEARANCE
    return verify.interlacing_counts(below, rho, f) != verify.interlacing_counts(k_max, rho, f)


def config_of(params: dict):
    if params.get("exact"):
        p, n = params["exact"]
        return model.DimensionlessConfig.exact(p, n, params["f"])
    return model.DimensionlessConfig.generic(params["rho"], params["f"])


def position_label(params: dict) -> str:
    if params.get("exact"):
        p, n = params["exact"]
        return f"exact({p}/{n}, f={params['f']:.6g})"
    return f"generic({params['rho']:.6g}, f={params['f']:.6g})"


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


class SpectrumDeep:
    name = "spectrum-deep"
    item = "certified level"
    items_are_cli_rows = False
    n_ops = 128

    def generate(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        n = self.n_ops
        f_mag = log_strata(rng, n, 1e-3, 1e2)
        rng.shuffle(f_mag)
        signs = [1.0] * (n // 2) + [-1.0] * (n - n // 2)
        rng.shuffle(signs)
        exact = set(rng.sample(range(n), round(0.3 * n)))
        span = math.log(100.0)  # k_max strata over [20 pi, 2000 pi]
        params = []
        for i in range(n):
            f = signs[i] * f_mag[i]
            pos = list(rational(rng)) if i in exact else None
            while True:  # redraw within the stratum until the cut-off is clear of levels
                k_max = 20.0 * PI * math.exp(span * (i + rng.random()) / n)
                rho = pos[0] / pos[1] if pos else generic_rho(rng, k_max)
                if not level_near_cutoff(rho, f, k_max):
                    break
            params.append({"f": f, "k_max": k_max, **({"exact": pos} if pos else {"rho": rho})})
        rng.shuffle(params)
        return [Op(f"{position_label(p)} k_max={p['k_max'] / PI:.6g}pi", p) for p in params]

    def known(self) -> list[tuple[Op, set[str]]]:
        """Fixed reproducers of the known defects, each with the failure reasons it gives."""
        cases = [
            ({"rho": 0.5, "f": -0.2, "k_max": 200.5 * PI}, "rational position on the generic path"),
            ({"rho": 0.3, "f": 0.1, "k_max": 200.5 * PI}, "rational position on the generic path"),
            ({"rho": 0.398963729912964, "f": 0.005756379805674829, "k_max": 193.5 * PI}, "193 rho - 77 = -1.3e-7"),
            ({"rho": 0.2801753075844777, "f": 0.007367996012206104, "k_max": 83.3884553474475}, "level 26.5355 pi in the last scan cell"),
        ]
        return [(Op(f"{position_label(p)} k_max={p['k_max'] / PI:.6g}pi ({why})", p), {"level_count"}) for p, why in cases]

    def run(self, op: Op):
        spec = spectrum.full_spectrum(config_of(op.params), op.params["k_max"])
        return spec, len(spec.entries)

    def digest(self, output) -> bytes:
        kinds = ",".join(s.kind for s in output.entries).encode()
        return kinds + np.array([(s.k, s.energy) for s in output.entries]).tobytes()

    def verify(self, op: Op, output) -> tuple[list[str], float]:
        p = op.params
        rho, nodal_n = (p["exact"][0] / p["exact"][1], p["exact"][1]) if p.get("exact") else (p["rho"], None)
        entries = [(s.kind, s.k, s.energy) for s in output.entries]
        return verify.check_spectrum(entries, rho, p["f"], p["k_max"], nodal_n)


class Figures:
    name = "figures"
    item = "CSV data row"
    items_are_cli_rows = True
    n_sweeps = 80
    n_curves = 20
    paper_f = (0.1, 0.4, 0.5)

    def generate(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        sweeps = [(f, sign) for f in self.paper_f for sign in ("attract", "repel")]
        n_gen = self.n_sweeps - len(sweeps)
        # alternate signs across strata so both signs span the whole f range
        sweeps += [(f, ("attract", "repel")[i % 2]) for i, f in enumerate(log_strata(rng, n_gen, 0.05, 5.0))]
        ops = []
        for f, sign in sweeps:
            argv = ["sweep-ground", "--f-list", repr(f), "--signs", sign, "--rho-steps", str(SWEEP_STEPS)]
            ops.append(Op(f"sweep-ground f={f:.6g} {sign}", {"argv": argv, "f": f, "sign": sign}))
        for i in range(self.n_curves):
            if i % 2 == 0:
                rho = "{}/{}".format(*rational(rng))
            else:
                rho = repr(rng.uniform(0.005, 0.995))
            argv = ["dispersion-curve", "--rho", rho, "--kmax", str(DISPERSION_KMAX)]
            ops.append(Op(f"dispersion-curve rho={rho}", {"argv": argv, "rho": rho}))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        code, text = run_cli(op.params["argv"])
        return (code, text), (text.count("\n") - 1 if code == 0 else 0)

    def digest(self, output) -> bytes:
        code, text = output
        return f"{code}\n{text}".encode()

    def verify(self, op: Op, output) -> tuple[list[str], float]:
        code, text = output
        if code != 0:
            return [f"exit_{code}" if code in (2, 3) else "exit_other"], 0.0
        p = op.params
        if "sign" in p:
            f = p["f"] if p["sign"] == "attract" else -p["f"]
            return verify.check_sweep(text, f, SWEEP_STEPS)
        rho_s = p["rho"]
        if "/" in rho_s:
            num, den = rho_s.split("/")
            rho = int(num) / int(den)
        else:
            rho = float(rho_s)
        return verify.check_dispersion(text, rho, DISPERSION_KMAX, DISPERSION_SAMPLES), 0.0

    def known(self) -> list[tuple[Op, set[str]]]:
        return []


class Certify:
    name = "certify"
    item = "checked state"
    items_are_cli_rows = False
    n_ops = 128
    count = 8

    def generate(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        fixed = [{"exact": [2, 5], "f": -0.01, "count": self.count}]  # half of the criterion-2 pair
        n_gen = self.n_ops - len(fixed)
        n_pos = n_gen // 2
        f_all = log_strata(rng, n_pos, CERTIFY_MIN_ATTRACTIVE_F, 1e1)
        f_all += [-x for x in log_strata(rng, n_gen - n_pos, 1e-2, 1e1)]
        exact = set(rng.sample(range(n_gen), round(n_gen / 3)))
        params = list(fixed)
        for i, f in enumerate(f_all):
            p = {"f": f, "count": self.count}
            if i in exact:
                p["exact"] = list(rational(rng))
            else:
                p["rho"] = generic_rho(rng, CHECK_KMAX)
            params.append(p)
        rng.shuffle(params)
        return [self._op(p) for p in params]

    def _op(self, p: dict) -> Op:
        pos = ["--rho", "{}/{}".format(*p["exact"])] if p.get("exact") else ["--rho-real", repr(p["rho"])]
        p = dict(p, argv=["check", *pos, "--f", repr(p["f"]), "--count", str(p["count"])])
        return Op(f"check {position_label(p)} count={p['count']}", p)

    def known(self) -> list[tuple[Op, set[str]]]:
        """Fixed reproducers of the known defects, each with the failure reasons it gives."""
        cases = [
            {"rho": 0.5, "f": -0.2, "count": 4},  # rational position on the generic path
            {"exact": [2, 5], "f": 0.01, "count": self.count},  # the failing half of the criterion-2 pair
            {"rho": 0.37, "f": 0.03, "count": self.count},  # strong attraction
        ]
        return [(self._op(p), {"check.oracle_max_delta"}) for p in cases]

    def run(self, op: Op):
        code, text = run_cli(op.params["argv"])
        cfg = config_of(op.params)
        spec = spectrum.full_spectrum(cfg, CHECK_KMAX)
        waves = [wavefn.build_wave(s, cfg) for s in spec.entries[: op.params["count"]]]
        table = [[wavefn.evaluate(w, x) for x in WAVE_GRID] for w in waves]
        return (code, text, table), len(waves)

    def digest(self, output) -> bytes:
        code, text, table = output
        return f"{code}\n{text}".encode() + np.asarray(table, dtype=float).tobytes()

    def verify(self, op: Op, output) -> tuple[list[str], float]:
        code, text, table = output
        return verify.check_certify(code, text, table), 0.0


def planted_defects() -> dict[str, list[str]]:
    """Verifier reasons for a correct spectrum and sweep and for copies with one planted defect.

    The spectrum cases are a dropped level and a root shifted by 1e-6 (what
    ``check --perturb`` does); the sweep case is one row with its sign flipped.
    """
    rho, f, k_max = 0.37, 0.7, 20.0 * PI
    spec = spectrum.full_spectrum(model.DimensionlessConfig.generic(rho, f), k_max)
    good = [(s.kind, s.k, s.energy) for s in spec.entries]
    kind, k, _ = good[3]
    shifted = good[:3] + [(kind, k + 1e-6, (k + 1e-6) ** 2)] + good[4:]
    code, sweep = run_cli(["sweep-ground", "--f-list", "0.4", "--signs", "attract", "--rho-steps", "21"])
    lines = sweep.splitlines()
    head, row = lines[:3], lines[3].split(",")
    row[3] = row[3][1:] if row[3].startswith("-") else "-" + row[3]
    flipped = "\n".join(head + [",".join(row)] + lines[4:]) + "\n"
    return {
        "good_spectrum": verify.check_spectrum(good, rho, f, k_max, None)[0],
        "dropped_level": verify.check_spectrum(good[:5] + good[6:], rho, f, k_max, None)[0],
        "shifted_root": verify.check_spectrum(shifted, rho, f, k_max, None)[0],
        "good_sweep": verify.check_sweep(sweep, 0.4, 21)[0] if code == 0 else ["exit_other"],
        "flipped_sign": verify.check_sweep(flipped, 0.4, 21)[0],
    }


def planted_defects_rejected() -> bool:
    """True when the correct cases pass and every planted defect is rejected."""
    verdicts = planted_defects()
    return all(not v if name.startswith("good") else bool(v) for name, v in verdicts.items())


WORKLOADS = {w.name: w for w in (SpectrumDeep(), Figures(), Certify())}
