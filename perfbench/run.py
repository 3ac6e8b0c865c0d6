"""End-to-end and per-layer benchmark of gravlink.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: pass_analytic, pass_ephemeris,
forecast, weak_scan (see perfbench/README.md for why each exists).

Each run of a workload is one ``gravlink run <config>`` call through
``gravlink.cli.main``, in a closed loop: one client in one process starts
the next run when the previous one has returned. Inputs come from
workloads.py, seeded by --seed, and every run's outputs are checked.

With --trace 0 the runs are untraced and the result holds the end-to-end
metrics, each time scaled to a reference machine speed by a calibration
timed next to it (see kernel_seconds and import_kernel_seconds). With
--trace 1 untraced and traced runs alternate, and the result holds the
per-layer metrics taken from the spans of tracer.py.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. attempted and failed count work items
(epochs, trials or meter shifts); a run that exits non-zero or fails its
output check fails all of its items, and each [FAILED] summary line fails
one item.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_run"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CAL_REF_S = 0.1        # calibration-kernel seconds on the reference machine
IMPORT_REF_S = 0.06    # reference-import seconds on the reference machine
REFERENCE_IMPORT = ("decimal, asyncio, email.mime.multipart, xml.etree.ElementTree, json, "
                    "fractions, statistics, unittest, http.client, sqlite3")
SETUP_PROBES = 3       # fresh interpreters timed for setup_s, the last also gives peak RSS
IMPORTTIME_PROBES = 3  # fresh interpreters under -X importtime, for the import breakdown
TAIL_BEYOND = 10       # samples that must lie beyond the reported tail
PROBE_TIMEOUT_S = 120


@dataclass
class Tally:
    """Work items attempted and failed, and the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, items: int, problems: list, failed_steps: int) -> None:
        self.attempted += items
        if problems:
            self.failed += items
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])
        else:
            self.failed += min(items, failed_steps)


def drive(config: Path) -> tuple[int, float, str, str]:
    """One ``gravlink run`` in this process: exit code, seconds, stdout, stderr."""
    from gravlink import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(config)])
    except (Exception, SystemExit):  # a traceback out of the program fails the run
        code = -1
        err.write(traceback.format_exc())
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


def run_once(inputs, out_dir: Path, tally: Tally) -> float:
    """Drive one run, check its outputs, and return its wall time."""
    import workloads

    shutil.rmtree(out_dir, ignore_errors=True)
    code, seconds, stdout, stderr = drive(inputs.config)
    if code != 0:
        problems = [f"exit code {code}: {stderr.strip()[-500:]}"]
    else:
        problems = workloads.check(inputs, out_dir)
    tally.record(inputs.items, problems, workloads.failed_steps(stdout))
    return seconds


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe(mode: str, inputs) -> dict:
    """Run probe.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), mode, str(inputs.config)]
    if inputs.cpf is not None:
        cmd.append(str(inputs.cpf))
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {mode} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_breakdown() -> tuple[float, float]:
    """Seconds to import gravlink and, within it, scipy (-X importtime)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gravlink"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> tuple[float, float]:
    """gravlink's cumulative import time and the part spent importing scipy.

    Each ``-X importtime`` line is ``self | cumulative | name``, indented two
    spaces per nesting level, and a module is printed after everything it
    imports. scipy's share is the sum over scipy entries with no scipy
    ancestor, so nothing is counted twice.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    gravlink_s = scipy_s = 0.0
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(entries):
        ancestors = ancestors[:depth]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if name == "gravlink":
            gravlink_s = cumulative
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            scipy_s += cumulative
        ancestors.append(name)
    return gravlink_s, scipy_s


def kernel_seconds(n: int = 4000) -> float:
    """Wall time of a fixed calibration kernel.

    Like gravlink's per-epoch work, it is a Python loop over small numpy
    calls, and it uses nothing from gravlink, so a change to the program
    cannot move it. Identical runs on a shared machine vary by +-25% as
    neighbours come and go. Timing this kernel next to each run and scaling
    by it takes most of that out. Measured on a shared 2-core Xeon over 7
    windows of 20 s, the spread of the forecast median went from 19% raw to
    8% scaled.
    """
    import numpy as np  # after main() has capped the BLAS threads

    v, u, m = np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 2.0]), np.eye(3)
    start = time.perf_counter()
    acc = 0.0
    for i in range(n):
        acc += float(np.linalg.norm(m @ np.cross(v, u))) + math.sqrt(i + 1.0)
    return time.perf_counter() - start


def import_kernel_seconds() -> float:
    """Seconds a fresh interpreter takes to import REFERENCE_IMPORT.

    Set-up is mostly module import, which the loop kernel tracks poorly.
    Over 30 alternating probes on a shared 2-core Xeon, scaling gravlink's
    import time by this standard-library import cut its coefficient of
    variation from 12% to 6%; scaling by kernel_seconds cut it to 9%.
    """
    code = (f"import time; start = time.perf_counter(); import {REFERENCE_IMPORT}; "
            f"print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout)


def scaled(seconds: float, before: float, after: float, reference: float = CAL_REF_S) -> float:
    """``seconds`` on a machine whose kernel takes ``reference`` seconds.

    ``before`` and ``after`` are the kernel's times on either side of the
    measurement.
    """
    return seconds * reference / (0.5 * (before + after))


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest order statistic with TAIL_BEYOND samples above it.

    When that statistic would lie below the median (fewer than
    2 * (TAIL_BEYOND + 1) samples) it is no tail. The interpolated 90th
    percentile is reported instead, which is steadier than the maximum of
    a few runs. The label says which was used.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    if k >= n // 2:
        return ordered[k], f"p{100.0 * (k + 1) / n:.0f} of {n} runs"
    if n < 2:
        return ordered[-1], "only run"
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
    return p90, f"interpolated p90 of {n} runs (too few for {TAIL_BEYOND} beyond a tail)"


def closed_loop(inputs, out_dir: Path, seconds: float, tally: Tally, tracer=None):
    """Run back to back for ``seconds``; return untraced and traced runs.

    Each run is a (raw seconds, scaled seconds) pair, scaled by the kernel
    timed just before and just after it. With a tracer, untraced and traced
    runs alternate so that both see the same machine state. A run is not
    started when the last one suggests it would end past the deadline, but
    at least one of each kind runs.
    """
    runs: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
    before = kernel_seconds()
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(runs[True]) < len(runs[False])
        with tracer.install() if use_trace else contextlib.nullcontext():
            raw = run_once(inputs, out_dir, tally)
        after = kernel_seconds()
        runs[use_trace].append((raw, scaled(raw, before, after)))
        before = after
        done = bool(runs[False]) and (tracer is None or bool(runs[True]))
        if done and time.perf_counter() - start + raw > seconds:
            return runs[False], runs[True]


def forecast_stats(out_dir: Path, alpha: float) -> dict:
    """Calibration figures of a forecast output (deterministic per seed)."""
    import numpy as np

    rows = np.loadtxt(out_dir / "forecast_trials.txt", comments="#", ndmin=2)
    alpha_hat, sigma, chi2 = rows[:, 1], rows[:, 2], rows[:, 3]
    pulls = (alpha_hat - alpha) / sigma
    return {
        "estimator.pull_std": float(np.std(pulls, ddof=1)),
        "estimator.chi2_per_dof_mean": float(np.mean(chi2)),
        "estimator.sigma_emp_over_analytic":
            float(np.std(alpha_hat, ddof=1) / np.mean(sigma)),
    }


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(inputs, out_dir: Path, seconds: float, tally: Tally, report) -> dict:
    """setup_s, peak RSS, and the closed-loop timings of untraced runs.

    Every time is scaled by a calibration timed around it: set-up by
    import_kernel_seconds, runs by kernel_seconds. The raw figures are
    reported alongside.
    """
    import workloads

    def scaled_probe(mode: str) -> tuple[dict, float]:
        before = import_kernel_seconds()
        result = probe(mode, inputs)
        return result, scaled(result["setup_s"], before, import_kernel_seconds(), IMPORT_REF_S)

    probes = [scaled_probe("setup") for _ in range(SETUP_PROBES - 1)]
    shutil.rmtree(out_dir, ignore_errors=True)
    probes.append(scaled_probe("run"))
    raw_setups = [result["setup_s"] for result, _ in probes]
    setups = [value for _, value in probes]
    fresh = probes[-1][0]
    # the last probe ran the workload in a fresh process; check it like any run
    if fresh["exit"] != 0:
        tally.record(inputs.items, [f"fresh-process run exited {fresh['exit']}"], 0)
    else:
        summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
        tally.record(inputs.items, workloads.check(inputs, out_dir),
                     workloads.failed_steps(summary))

    plain, _ = closed_loop(inputs, out_dir, seconds, tally)
    raw = [r for r, _ in plain]
    runs = [s for _, s in plain]
    p50 = statistics.median(runs)
    tail_s, tail_label = tail(runs)
    report(f"raw setup_s: {', '.join(f'{t:.4f}' for t in raw_setups)} s")
    report(f"raw runs: p50 {statistics.median(raw):.4f} s, max {max(raw):.4f} s; "
           f"machine speed {statistics.median(r / s for r, s in plain):.3f}x slower "
           f"than the reference")
    report(f"runs: {len(plain)} timed in a closed loop, run_tail_s is the {tail_label}")
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": inputs.items / p50,
        "run_p50_s": p50,
        "run_tail_s": tail_s,
        "peak_rss_mib": fresh["peak_rss_mib"],
    }


def per_layer(inputs, out_dir: Path, seconds: float, tally: Tally, report) -> dict:
    """Per-layer counts and self times from alternating traced runs."""
    import tracer as tracing
    import workloads

    imports = [import_breakdown() for _ in range(IMPORTTIME_PROBES)]
    spans = tracing.Tracer()
    plain, traced = closed_loop(inputs, out_dir, seconds, tally, tracer=spans)
    spans.write(WORK_DIR / f"spans-{inputs.workload}-seed{inputs.seed}.tsv.gz")

    metrics = {
        "gravlink.import_s": statistics.median(i[0] for i in imports),
        "gravlink.import_scipy_s": statistics.median(i[1] for i in imports),
    }
    metrics.update(tracing.summarize(spans.spans, len(traced), inputs.epochs))
    if inputs.workload == "forecast":
        metrics.update(forecast_stats(out_dir, workloads.FORECAST_ALPHA))
    else:
        metrics.update({"estimator.pull_std": 0.0, "estimator.chi2_per_dof_mean": 0.0,
                        "estimator.sigma_emp_over_analytic": 0.0})
    metrics["cli.bytes_written"] = float(bytes_written(out_dir))
    metrics["trace.overhead_frac"] = (statistics.median(s for _, s in traced)
                                      / statistics.median(s for _, s in plain) - 1.0)
    metrics["fail_frac"] = tally.failed / tally.attempted

    layers = tracing.layer_self_seconds(metrics)
    accounted = sum(layers.values())
    traced_raw = statistics.mean(r for r, _ in traced)
    if spans.missing:
        report(f"not traced, no longer in the program: {', '.join(sorted(spans.missing))}")
    report(f"runs: {len(plain)} untraced, {len(traced)} traced; "
           f"trace.overhead_frac {metrics['trace.overhead_frac']:+.1%} from scaled medians")
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        report(f"  self time {layer:<15} {value:10.4f} s/run  {value / accounted:6.1%}")
    report(f"dominant layer: {max(layers, key=layers.get)}; layer self times sum to "
           f"{accounted:.4f} s/run against {traced_raw:.4f} s/run of traced wall time "
           f"(unaccounted {1.0 - accounted / traced_raw:+.2%})")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gravlink" / "__init__.py").is_file():
        print(f"perfbench: no gravlink sources under {SRC}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def report(line: str) -> None:
        print(f"[{args.workload} seed={args.seed} trace={args.trace}] {line}", flush=True)

    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        inputs = workloads.generate(args.workload, args.seed, scratch / "inputs")
        out_dir = scratch / "out"
        os.environ["GRAVLINK_OUTPUT_DIR"] = str(out_dir)
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        values = measure(inputs, out_dir, args.seconds, tally, report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        report(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    report(f"items failed: {tally.failed} of {tally.attempted} "
           f"(fail_frac {tally.failed / tally.attempted:.6g})")
    for problem in tally.problems:
        report(f"check failed: {problem}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
