"""wellspec benchmark: seeded workloads timed from outside the package.

Usage, from the repository root:

    python3 bench/run.py --workload spectrum-deep --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``):

  spectrum-deep  full_spectrum at k_max log-uniform over [20 pi, 2000 pi]
  figures        the sweep-ground and dispersion-curve CLI commands behind Figs. 1-2
  certify        the `check` CLI command, then the eigenfunctions tabulated

``--trace 0`` measures the end-to-end metrics: set-up time (median over fresh
interpreters importing wellspec, launched before and after the timed work),
items per second, p50 and p90 operation latency, and peak RSS.  It runs whole
passes over the operation list in a closed loop until ``--seconds`` have
elapsed, and at least three passes.
The percentiles are taken over every timed execution of every operation, and
items per second is the items of all executions over their summed time.  On
a shared host the speed of one execution swings by up to 1.7x within seconds;
pooling the repeats of each operation averages that out, where the least of
a few repeats reads whether a fast moment happened to be caught.

``--trace 1`` runs whole passes over the operation list untraced for half of
``--seconds``, then exactly one traced pass, and reports per-layer calls, self
and total time and work counts, the verification failures by reason, and the
tracing overhead.  The spans are written to ``.bench_out/``.

Every output is verified outside the timed region, and outside the traced
spans (``verify.py``).  An operation fails when it raises, or its output fails
a check, or a repeat of it differs from its first output.  ``failed`` counts
failed executions, with reasons listed per configuration.  The workload's
fixed reproducers of known defects are verified once per run, untimed.
``correct`` is true only when no operation failed, every known reproducer
failed for none but its expected reasons, and the verifier rejected the
planted defects this run fed it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import verify  # noqa: E402

try:
    import workloads  # imports wellspec
except ImportError:
    workloads = None

OUT_DIR = ROOT / ".bench_out"
SETUP_LAUNCHES = 11  # split before and after the timed passes
MIN_PASSES = 3
WARMUP_OPS = 2

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _command_output(cmd: list[str]) -> str:
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return ""
    return done.stdout if done.returncode == 0 else ""


def environment(threads_env: str | None) -> dict:
    lscpu = {}
    for line in _command_output(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        if key in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
            lscpu[key] = value.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": lscpu,
        "git_commit": ((ROOT / ".git").exists() and _command_output(["git", "rev-parse", "HEAD"]).strip()) or "unknown",
        "WELLSPEC_THREADS_seen": threads_env,
        "sweep_workers": os.cpu_count() or 1,
    }


def measure_setup(launches: int) -> list[float]:
    """Seconds from launching a fresh interpreter to `import wellspec` returning, per launch."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import wellspec, time; print(repr(time.monotonic()))"
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, check=True, timeout=60)  # writes bytecode
    times = []
    for _ in range(launches):
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout.strip()) - t0)
    return times


class Executions:
    """Bookkeeping of one run's operations, kept outside the timed region.

    The first output of each operation is verified when it is recorded and
    kept only as a digest; every repeat must reproduce that digest.
    """

    def __init__(self, workload, ops):
        self.workload = workload
        self.ops = ops
        self.clear()

    def clear(self) -> None:
        self.digest: dict[int, bytes] = {}
        self.reasons: dict[int, list[str]] = {}
        self.items: dict[int, int] = {}
        self.worst = 0.0
        self.history: list[tuple[int, bool]] = []  # (op index, output matched the first)

    def execute(self, i: int):
        """Run operation i once, unverified; returns (seconds, items, output)."""
        t0 = time.perf_counter()
        try:
            output, items = self.workload.run(self.ops[i])
        except Exception as exc:  # an operation that raises is a failure, not a crash of the run
            output, items = workloads.Failed(f"{type(exc).__name__}: {exc}"), 0
        return time.perf_counter() - t0, items, output

    def record(self, i: int, output, items: int) -> None:
        """Verify operation i's first output, or check a repeat against it."""
        failed = isinstance(output, workloads.Failed)
        digest = hashlib.sha256(output.error.encode() if failed else self.workload.digest(output)).digest()
        if i not in self.digest:
            self.digest[i], self.items[i] = digest, items
            if failed:
                self.reasons[i] = ["error"]
            else:
                self.reasons[i], worst = self.workload.verify(self.ops[i], output)
                self.worst = max(self.worst, worst)
            self.history.append((i, True))
        else:
            self.history.append((i, digest == self.digest[i]))

    def run(self, i: int) -> tuple[float, int]:
        """Run and record operation i; returns (seconds, items)."""
        dt, items, output = self.execute(i)
        self.record(i, output, items)
        return dt, items

    def tally(self):
        """(attempted, failed, reason counts over executions, reasons per failing op index)."""
        counts = {r: 0 for r in verify.REASONS}
        failed = 0
        failing = {}
        for i, same in self.history:
            why = self.reasons[i] + ([] if same else ["nondeterministic"])
            if why:
                failed += 1
                failing.setdefault(i, set()).update(why)
                for r in why:
                    counts[r] += 1
        return len(self.history), failed, counts, failing


def timed_passes(ex: Executions, seconds: float) -> list[list[float]]:
    """Whole passes over the operations until ``seconds`` have elapsed; latencies per operation."""
    n = len(ex.ops)
    for i in range(min(WARMUP_OPS, n)):
        ex.run(i)
    ex.clear()
    lat: list[list[float]] = [[] for _ in range(n)]
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for i in range(n):
            lat[i].append(ex.run(i)[0])
        passes += 1
    return lat


def run_untraced(workload, ops, seconds: float):
    setup = measure_setup(SETUP_LAUNCHES // 2)
    ex = Executions(workload, ops)
    lat = timed_passes(ex, seconds)
    setup += measure_setup(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    attempted, failed, counts, failing = ex.tally()
    samples = np.concatenate(lat)
    items = sum(ex.items[i] * len(lat[i]) for i in range(len(ops)))
    p90 = float(np.percentile(samples, 90.0))
    metrics = {
        "setup_s": float(np.median(setup)),
        "items_per_s": items / float(samples.sum()),
        "op_ms_p50": float(np.median(samples)) * 1e3,
        "op_ms_p90": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"samples: {len(samples)} executions ({len(ops)} operations x {len(lat[0])} passes), {int((samples > p90).sum())} beyond p90",
        f"setup launches (s): {', '.join(f'{t:.4f}' for t in setup)}",
        f"failed: {failed}/{attempted} executions",
    ]
    return metrics, E2E_UNITS, attempted, failed, failing, notes


def per_layer_names() -> list[str]:
    names = []
    for layer, fname, _ in tracing.FUNCTIONS:
        names += [f"{layer}.{fname}.{m}" for m in ("calls", "self_ms", "total_ms")]
    names += ["spectrum.dispersion_residual.points", "spectrum.levels", "spectrum.levels_per_residual_point"]
    names += ["wavefn.evaluate.points", "oracle.build_matrix.basis_size"]
    for sub in tracing.CLI_SUBCOMMANDS:
        names += [f"cli.main.{sub}.{m}" for m in ("calls", "self_ms", "total_ms")]
    names += ["cli.rows_out"]
    names += [f"model.{cls}.{meth}.calls" for _, cls, meth in tracing.CLASSMETHODS]
    names += [f"{layer}.self_ms" for layer in ("spectrum", "wavefn", "oracle", "cli", "model", "bench")]
    names += ["trace.overhead_frac", "trace.spans", "verify.known_failing", "verify.max_rel_residual"]
    names += [f"verify.fail.{r}" for r in verify.REASONS]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "levels_per_residual_point", "max_rel_residual")):
        return "ratio"
    return "count"


def run_traced(workload, ops, seconds: float, known):
    # untraced passes for half the budget give the reference pass time
    pass_times = []
    reference = Executions(workload, ops)
    for i in range(min(WARMUP_OPS, len(ops))):
        reference.run(i)
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds / 2:
        pass_times.append(sum(reference.run(i)[0] for i in range(len(ops))))
    tracer = tracing.Tracer()
    ex = Executions(workload, ops)
    outputs = []
    tracer.install()
    traced_time, traced_items = 0.0, 0
    try:
        for i in range(len(ops)):
            with tracer.operation(i):
                dt, items, output = ex.execute(i)
            outputs.append((output, items))
            traced_time += dt
            traced_items += items
    finally:
        tracer.uninstall()
    for i, (output, items) in enumerate(outputs):  # verified untraced, so its calls leave no spans
        ex.record(i, output, items)
    del outputs
    for i in range(len(ops)):  # a traced output must equal the untraced one
        if ex.digest[i] != reference.digest[i]:
            ex.history[i] = (i, False)
    attempted, failed, counts, failing = ex.tally()

    spans = tracer.spans()
    raw = tracing.layer_metrics(spans, tracer.names)
    metrics = {name: 0.0 for name in per_layer_names()}
    for key, value in raw.items():
        if key in metrics:
            metrics[key] = value
    points = raw.get("spectrum.dispersion_residual.work", 0.0)
    levels = raw.get("spectrum.full_spectrum.work", 0.0)
    metrics["spectrum.dispersion_residual.points"] = points
    metrics["spectrum.levels"] = levels
    metrics["spectrum.levels_per_residual_point"] = levels / points if points else 0.0
    metrics["wavefn.evaluate.points"] = raw.get("wavefn.evaluate.calls", 0.0)
    metrics["oracle.build_matrix.basis_size"] = raw.get("oracle.build_matrix.work", 0.0)
    for name in tracer.names:
        layer = "bench" if name == tracing.OP_SPAN else name.split(".")[0]
        metrics[f"{layer}.self_ms"] += raw[f"{name}.self_ms"]
    if workload.items_are_cli_rows:
        metrics["cli.rows_out"] = float(traced_items)
    metrics["trace.overhead_frac"] = traced_time / float(np.median(pass_times)) - 1.0
    metrics["trace.spans"] = float(len(spans))
    metrics["verify.known_failing"] = float(sum(1 for _, reasons, _ in known if reasons))
    metrics["verify.max_rel_residual"] = ex.worst
    for _, reasons, _ in known:
        for r in reasons:
            counts[r] += 1
    for reason, n in counts.items():
        metrics[f"verify.fail.{reason}"] = float(n)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}.npz"
    np.savez(path, spans=spans, names=np.array(tracer.names))
    notes = [
        f"untraced pass times (s): {', '.join(f'{t:.4f}' for t in pass_times)}; traced pass {traced_time:.4f} s",
        f"spans written to {path.relative_to(ROOT)} (fields: id, name index, start, end, parent, op, work)",
    ]
    units = {name: unit_of(name) for name in metrics}
    return metrics, units, attempted, failed, failing, notes


def check_known(workload) -> list[tuple[str, list[str], set[str]]]:
    """Verify each fixed reproducer of a known defect once: (label, reasons, expected reasons)."""
    results = []
    for op, expected in workload.known():
        try:
            output, _ = workload.run(op)
            reasons = workload.verify(op, output)[0]
        except Exception:
            reasons = ["error"]
        results.append((op.label, reasons, expected))
    return results


def is_correct(planted_rejected: bool, failed: int, known) -> bool:
    """No operation failed, no known reproducer failed in a new way, and the verifier is live."""
    return planted_rejected and failed == 0 and all(set(reasons) <= expected for _, reasons, expected in known)


def main(argv=None) -> int:
    args = parse_args(argv)
    if workloads is None or Path(workloads.cli.__file__).resolve().parent != SRC / "wellspec":
        print(f"bench: no wellspec package under {SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    threads_env = os.environ.pop("WELLSPEC_THREADS", None)
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.generate(args.seed)
    digest = hashlib.sha256(json.dumps([op.params for op in ops], sort_keys=True).encode()).hexdigest()
    live = workloads.planted_defects_rejected()
    known = check_known(workload)

    if args.trace:
        metrics, units, attempted, failed, failing, notes = run_traced(workload, ops, args.seconds, known)
    else:
        metrics, units, attempted, failed, failing, notes = run_untraced(workload, ops, args.seconds)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {len(ops)} operations per pass, item = {workload.item}")
    print(f"inputs sha256 {digest}")
    print("env " + json.dumps(environment(threads_env), sort_keys=True))
    for note in notes:
        print(note)
    print(f"verifier rejects planted defects: {live}")
    for i in sorted(failing):
        print(f"FAIL {ops[i].label}: {', '.join(sorted(failing[i]))}")
    for label, reasons, expected in known:
        verdict = "still fails" if reasons else "now passes"
        print(f"KNOWN {label}: {verdict}: {', '.join(reasons) or '-'} (expected {', '.join(sorted(expected))})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": is_correct(live, failed, known),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
