"""Benchmark for anticonc: three workloads, one process, one thread, one caller.

    python3 bench/run.py --workload curves|tails|oracles --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload tails --seed 1 --smoke     # one pass, for tests

Run from the repository root; the package is imported from ./src.
With --trace 0 the run measures passes for about --seconds and prints the
end-to-end metrics; with --trace 1 it runs a fixed number of passes
untraced and then traced, and prints the per-layer metrics.  Either way
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import os

# one thread for every BLAS/OpenMP pool, set before numpy is imported
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 3
SETUP_SAMPLES = 6       # fresh interpreters timed after one warm-up
TRACE_PASSES = 3
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import anticonc, anticonc.cli; anticonc.cli.build_parser()")


def _import_package():
    """Import anticonc from this checkout's src/, or exit with status 2."""
    if not (SRC / "anticonc" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'anticonc'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import anticonc
    if Path(anticonc.__file__).resolve().parent != (SRC / "anticonc").resolve():
        print(f"error: anticonc imported from {anticonc.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _child_env() -> dict:
    """The caller's environment, minus PYTHONPATH: the child finds anticonc only in ./src."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def time_setup() -> float:
    """Seconds for a fresh interpreter to import anticonc and build the CLI parser."""
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                             env=_child_env(), stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    # a plain wait() blocks in waitpid; a wait with a timeout polls every 50 ms
    status = child.wait()
    seconds = time.perf_counter() - t0
    if status != 0:
        raise RuntimeError(f"set-up interpreter exited with status {status}")
    return seconds


def import_times() -> dict[str, float]:
    """Import cost split by -X importtime in a fresh interpreter, in ms.

    numpy: the numpy package with everything it imports.  scipy: every
    outermost scipy import.  anticonc: every outermost anticonc import,
    which includes the numpy and scipy it pulls in.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE, str(SRC)],
                          cwd=ROOT, env=_child_env(), check=True, capture_output=True,
                          text=True, timeout=120)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    out = {}
    for top in ("numpy", "scipy", "anticonc"):
        # outermost entries of this package: no enclosing entry of the same package
        total, inside = 0, None
        for depth, name, cumulative in reversed(rows):  # parents before children
            if inside is not None and depth > inside:
                continue
            inside = None
            if name == top or name.startswith(top + "."):
                total += cumulative
                inside = depth
        out[top] = total / 1e3
    return out


def run_pass(ops) -> tuple[list[float], list]:
    """Time every operation once, in order; return (seconds, outcome) per operation."""
    times, outcomes = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            outcome = exc
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    return times, outcomes


class Tally:
    """Failures and per-operation times over the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.fault_hits: dict[int, int] = {}
        self.op_times: dict[str, list[float]] = {}
        self.failed_keys: set[str] = set()

    def add(self, ops, times, outcomes) -> None:
        for op, seconds, outcome in zip(ops, times, outcomes):
            self.attempted += 1
            if isinstance(outcome, Exception):
                problem = f"raised {type(outcome).__name__}: {outcome}"
            else:
                problem = op.check(outcome)
            if problem is None:
                self.op_times.setdefault(op.key, []).append(seconds)
                continue
            self.failed += 1
            self.failed_keys.add(op.key)
            if op.fault:
                self.fault_hits[op.fault] = self.fault_hits.get(op.fault, 0) + 1
            else:
                self.unexpected.append(f"{op.key}: {problem}")

    def op_seconds(self) -> dict[str, float]:
        """Each operation's fastest timing, over operations that never failed.

        The host's speed drifts by up to 2x for seconds at a time; the
        fastest of several timings spread over the run is the one figure
        that repeats from run to run (see README.md).
        """
        return {key: min(ts) for key, ts in self.op_times.items()
                if key not in self.failed_keys}


def latency_metrics(op_seconds: dict[str, float]) -> dict[str, tuple[float, str]]:
    ts = sorted(op_seconds.values())
    deciles = statistics.quantiles(ts, n=10, method="inclusive")
    return {
        "ops_per_s": (len(ts) / sum(ts), "ops/s"),
        "latency_p50_ms": (1e3 * statistics.median(ts), "ms"),
        "latency_p90_ms": (1e3 * deciles[8], "ms"),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workloads, name: str, seed: int, seconds: float, smoke: bool):
    """Passes on fresh inputs for about `seconds`, with set-up timed between them.

    The checks run after the clock stops, so the whole budget goes to timings.
    """
    time_setup()  # warm-up: bytecode caches and the file cache
    setup, passes = [], []
    stride = 1
    start = time.perf_counter()
    while True:
        ops = workloads.build(name, seed, len(passes))
        passes.append((ops, *run_pass(ops)))
        if smoke:
            break
        if len(passes) == 1:
            expected = seconds / (time.perf_counter() - start)
            stride = max(1, int(expected) // SETUP_SAMPLES)
        if len(setup) < SETUP_SAMPLES and len(passes) % stride == 0:
            setup.append(time_setup())
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    while len(setup) < (1 if smoke else SETUP_SAMPLES):
        setup.append(time_setup())
    tally = Tally()
    for ops, times, outcomes in passes:
        tally.add(ops, times, outcomes)
    op_seconds = tally.op_seconds()
    metrics = latency_metrics(op_seconds)
    metrics["setup_s"] = (min(setup), "s")
    metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    return tally, metrics, {"passes": len(passes), "setup_samples": setup,
                            "op_seconds": op_seconds}


def traced_run(workloads, tracing, name: str, seed: int):
    """Passes 0 .. TRACE_PASSES-1, each run traced and then untraced on the same inputs.

    Tracing goes first, so its counts never follow a run on the same inputs.
    """
    tally = Tally()
    plain = Tally()
    tracer = tracing.Tracer()
    for p in range(TRACE_PASSES):
        ops = workloads.build(name, seed, p)
        tracer.install()
        try:
            times, outcomes = run_pass(ops)
        finally:
            tracer.uninstall()
        tally.add(ops, times, outcomes)
        plain.add(ops, *run_pass(ops))
    metrics = tracer.metrics(TRACE_PASSES)
    untraced = latency_metrics(plain.op_seconds())["ops_per_s"][0]
    traced = latency_metrics(tally.op_seconds())["ops_per_s"][0]
    metrics["trace.ops_per_s_untraced"] = (untraced, "ops/s")
    metrics["trace.ops_per_s_traced"] = (traced, "ops/s")
    metrics["trace.overhead_ratio"] = (untraced / traced, "ratio")
    imports = [import_times() for _ in range(3)]
    for top in ("numpy", "scipy", "anticonc"):
        metrics[f"cli.import_{top}_ms"] = (statistics.median(i[top] for i in imports), "ms")
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.unexpected += plain.unexpected
    for fault, hits in plain.fault_hits.items():
        tally.fault_hits[fault] = tally.fault_hits.get(fault, 0) + hits
    return tally, metrics, {"passes": TRACE_PASSES, "trace": tracer.trace_json()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("curves", "tails", "oracles"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass and one set-up sample, to check the workload runs")
    args = parser.parse_args(argv)

    _import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    seed = args.seed % 2**63
    if args.trace:
        tally, metrics, record = traced_run(workloads, tracing, args.workload, seed)
    else:
        tally, metrics, record = timed_run(workloads, args.workload, seed, args.seconds,
                                           args.smoke)

    for problem in tally.unexpected[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = not tally.unexpected
    print(f"workload {args.workload}  seed {seed}  passes {record['passes']}  "
          f"attempted {tally.attempted}  failed {tally.failed}  "
          f"known faults {dict(sorted(tally.fault_hits.items()))}  correct {correct}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:45s} {value:14.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "result"
    record.update({"workload": args.workload, "seed": seed, "attempted": tally.attempted,
                   "failed": tally.failed, "unexpected_failures": tally.unexpected,
                   "metrics": {k: v for k, (v, _) in metrics.items()}})
    (OUT_DIR / f"{kind}-{args.workload}-{seed}.json").write_text(json.dumps(record))

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
