"""qkdnet benchmark: closed-loop, single-client CLI workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload p1-eavesdrop --seed 1 \
        --seconds 30 --trace 0

Each op is one ``qkdnet.cli.main([...])`` command run in this process,
timed from call to return.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics from a traced replay.  The last
line of standard output is the JSON result; earlier lines describe the
environment and the sample counts.  See perfbench/README.md.
"""
import os

# One BLAS thread, fixed before numpy is first imported: dense linear algebra
# on matrices this small runs faster and steadier on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, pooled_error_problems  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
E2E_UNITS = {"work_per_s": "1/s", "cmd_ms_p90": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}


def load_cli():
    """Import qkdnet.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "qkdnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no qkdnet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qkdnet
    import qkdnet.cli
    if Path(qkdnet.__file__).resolve().parent != SRC / "qkdnet":
        raise SystemExit(f"error: imported qkdnet from {qkdnet.__file__}")
    return qkdnet.cli


# --------------------------------------------------------------------------
# environment record
# --------------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy_version,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "git_sha": git_sha()}


# --------------------------------------------------------------------------
# set-up time: fresh interpreters, each up to the first op's parsed argv
# --------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Child side: import the CLI, parse the first op, report the clock."""
    cli = load_cli()
    op = next(WORKLOADS[workload].ops(seed, str(ROOT)))  # nothing is written
    cli.build_parser().parse_args(op.argv)
    print(time.monotonic())


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


# --------------------------------------------------------------------------
# running ops
# --------------------------------------------------------------------------

class Runner:
    """Runs ops of one workload through ``cli.main`` and checks them."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.wl = workload
        self.attempted = 0
        self.failures = []        # (op index, reason)
        self.outcomes = []        # (kind, Outcome) of ops that passed

    def run(self, op):
        """Run and check one op; returns (seconds, Outcome or None)."""
        self.attempted += 1
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                start = time.perf_counter()
                rc = self.cli.main(list(op.argv))
                elapsed = time.perf_counter() - start
            outcome = self.wl.check(op, rc, buf.getvalue())
        except Exception as exc:  # an op that raises is a failed op
            self.failures.append((op.index, f"{type(exc).__name__}: {exc}"))
            return None, None
        if not outcome.ok:
            self.failures.append((op.index, outcome.reason))
            return elapsed, None
        self.outcomes.append((op.kind, outcome))
        return elapsed, outcome

    def loop(self, ops, seconds: float):
        """Closed loop until ``seconds`` pass; returns [(op, s, Outcome)]."""
        done = []
        deadline = time.perf_counter() + seconds
        for op in ops:
            if time.perf_counter() >= deadline:
                break
            elapsed, outcome = self.run(op)
            if outcome is not None:
                done.append((op, elapsed, outcome))
        return done

    def run_problems(self) -> list:
        """Run-level checks on top of the per-op ones."""
        return pooled_error_problems(self.outcomes, self.wl.error_rates)


class NoSamples(RuntimeError):
    """Too few passing ops in a stratum to compute the metrics."""


def strata_latencies(wl, done) -> dict:
    """kind -> stratum -> [seconds]; raises NoSamples if a stratum is short."""
    lat = {kind: {} for kind in wl.kinds}
    for op, elapsed, outcome in done:
        lat[op.kind].setdefault(outcome.stratum or op.kind, []).append(elapsed)
    for kind in wl.kinds:
        need = wl.strata.get(kind, (kind,))
        short = [s for s in need if len(lat[kind].get(s, ())) < 2]
        if short:
            raise NoSamples(f"{kind}: fewer than 2 passing ops in {short}")
    return lat


def _kind_stat(strata: dict, stat) -> float:
    """A kind's statistic: the mean over its strata of each stratum's stat."""
    return statistics.fmean(stat(v) for v in strata.values())


def _p90(v) -> float:
    return statistics.quantiles(v, n=10)[-1]


def end_to_end(wl, done):
    """Gated metrics and a per-stratum summary of the measured ops.

    A workload mixes adversaries or sizes whose costs differ by up to 17x,
    so a percentile over all commands would jump between modes.  Every
    statistic is taken per stratum, averaged over a kind's strata, then
    over the kinds: equal weights, the mix the workload cycles through.
    """
    lat = strata_latencies(wl, done)
    p90 = statistics.fmean(_kind_stat(lat[k], _p90) for k in wl.kinds)
    work_kinds = [k for k in wl.kinds if wl.work(k)]
    work = sum(wl.work(k) for k in work_kinds)
    busy = sum(_kind_stat(lat[k], statistics.fmean) for k in work_kinds)
    summary = {k: {s: {"n": len(v),
                       "p50_ms": statistics.median(v) * 1e3,
                       "p90_ms": _p90(v) * 1e3,
                       "mean_ms": statistics.fmean(v) * 1e3}
                   for s, v in lat[k].items()} for k in wl.kinds}
    return {"work_per_s": work / busy, "cmd_ms_p90": p90 * 1e3}, summary


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------

def warm_up(runner, ops) -> None:
    """One untimed block of every kind: imports, caches, first allocations."""
    for _ in runner.wl.kinds:
        runner.run(next(ops))


def untraced_run(runner, seed, seconds, out_dir, setup_s):
    wl = runner.wl
    ops = wl.ops(seed, out_dir)
    warm_up(runner, ops)
    done = runner.loop(ops, seconds)
    metrics, samples = end_to_end(wl, done)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
    print(json.dumps({"samples": samples}))
    return {k: {"value": v, "unit": E2E_UNITS[k]}
            for k, v in metrics.items()}, []


def traced_run(runner, seed, seconds, out_dir, trace_path):
    """Every op twice, untraced and traced, alternating which goes first."""
    from layers import UNITS, layer_metrics
    from tracer import Tracer

    wl = runner.wl
    ops = wl.ops(seed, out_dir)
    warm_up(runner, ops)
    tracer = Tracer()
    work = untraced_s = traced_s = 0.0
    traced_ops = 0
    deadline = time.perf_counter() + seconds
    for op in ops:
        if time.perf_counter() >= deadline:
            break
        tracer.new_op(op.index)
        times = {}
        for traced in ((False, True) if op.index % 2 else (True, False)):
            with tracer if traced else contextlib.nullcontext():
                times[traced], _ = runner.run(op)
        if None not in times.values():
            work += op.work
            untraced_s += times[False]
            traced_s += times[True]
            traced_ops += 1
    if not traced_ops:
        raise NoSamples("no op completed both passes")
    overhead = {
        "trace.untraced_work_per_s": work / untraced_s,
        "trace.traced_work_per_s": work / traced_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1,
        "bench.failed_op_ratio": len(runner.failures) / runner.attempted,
    }
    metrics = layer_metrics(tracer, overhead)
    trace_path.parent.mkdir(exist_ok=True)
    spans = tracer.write_spans(trace_path)
    print(json.dumps({"traced_ops": traced_ops, "spans_written": spans,
                      "trace_file": str(trace_path.relative_to(ROOT)),
                      "overhead_ratio": overhead["trace.overhead_ratio"]}))
    uncovered = tracer.uncovered(wl.name)
    problems = [f"wrapped but never called: {uncovered}"] if uncovered else []
    return {k: {"value": v, "unit": UNITS[k]}
            for k, v in metrics.items()}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    cli = load_cli()
    wl = WORKLOADS[args.workload]
    print(json.dumps({"env": environment(), "workload": wl.name,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}))
    out_dir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    runner = Runner(cli, wl)
    try:
        if args.trace:
            trace_path = (ROOT / ".perfbench-out"
                          / f"trace-{wl.name}-seed{args.seed}.jsonl")
            metrics, problems = traced_run(runner, args.seed, args.seconds,
                                           out_dir, trace_path)
        else:
            setup_s = measure_setup(wl.name, args.seed)
            metrics, problems = untraced_run(runner, args.seed, args.seconds,
                                             out_dir, setup_s)
    except NoSamples as exc:
        report_failures(runner, [str(exc)])
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    problems += runner.run_problems()
    report_failures(runner, problems)
    print(json.dumps({"correct": not runner.failures and not problems,
                      "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": metrics}))
    return 0


def report_failures(runner, problems, limit: int = 20) -> None:
    for index, reason in runner.failures[:limit]:
        print(f"failed op {index}: {reason}", file=sys.stderr)
    if len(runner.failures) > limit:
        print(f"... {len(runner.failures) - limit} more failed ops",
              file=sys.stderr)
    for problem in problems:
        print(f"run check failed: {problem}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
