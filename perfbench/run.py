"""Run one perfcast benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload lolo_gbt_cv --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` they are the per-layer ones from a
traced run. Times are scaled to a reference host speed (see speed.py). The
line before it holds run details and machine facts, and the same details,
with the spans of a traced run, go to perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REF_PROBE_S, Meter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 3  # set-ups per untraced run; setup_s reports their median
MIN_OPS = 3  # timed ops per phase even when one op outlasts the phase


def _import_program() -> None:
    """Import perfcast from this checkout's src/ only; raise ImportError otherwise."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import perfcast

    if Path(perfcast.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"perfcast was imported from {perfcast.__file__}, not from {SRC}")


def _machine() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


class Runner:
    """Runs ops of one workload, times them, checks them and keeps the tallies.

    Each timed op's wall and CPU seconds are kept per input variant, scaled to
    the reference host speed (see speed.py).
    """

    def __init__(self, meter):
        self.meter = meter
        self.workload = None
        self.tracer = None  # when set, it records spans during each op
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.timed: dict[int, list] = {}  # variant -> [(scaled wall, scaled cpu, Outcome)]
        self.raw: list[tuple[float, float]] = []  # (measured wall, scaled wall) of each timed op
        self.first_by_variant: dict = {}

    def one(self, v: int, timed: bool) -> float:
        """Run, time and check one op on variant v; return its scaled wall seconds, 0 if it failed."""
        from workloads import CheckFailed

        tracer = self.tracer
        if tracer is not None:
            tracer.op, tracer.active = self.attempted, True
        self.attempted += 1
        try:
            try:
                out, wall, cpu, measured = self.meter.measure(lambda: self.workload.op(v))
            finally:
                if tracer is not None:
                    tracer.active = False
            outcome = self.workload.check(v, out)
        except CheckFailed as exc:
            self.failed += 1
            self.failures.append(f"variant {v}: {exc}")
            return 0.0
        except Exception:  # any error the program raises is a failed op; keep going
            self.failed += 1
            self.failures.append(f"variant {v}: {traceback.format_exc(limit=3)}")
            return 0.0
        self.first_by_variant.setdefault(v, outcome)
        if timed:
            self.timed.setdefault(v, []).append((wall, cpu, outcome))
            self.raw.append((measured, wall))
        return wall

    def loop(self, seconds: float, start_op: int) -> int:
        """Cycle timed ops over the variants for `seconds`, and at least once over all of them.

        Returns the next op index.
        """
        deadline = time.perf_counter() + seconds
        i = start_op
        least = max(MIN_OPS, self.workload.variants)
        while i - start_op < least or time.perf_counter() < deadline:
            self.one(i % self.workload.variants, timed=True)
            i += 1
        return i

    def warm(self, done: int) -> None:
        """One untimed, checked op on every variant but `done`, so that no timed op is a variant's first."""
        for v in range(self.workload.variants):
            if v != done:
                self.one(v, timed=False)

    def per_op(self, field: int) -> float:
        """Mean over the variants of the median of one field of their timed ops (0 when none)."""
        medians = [statistics.median(op[field] for op in ops) for ops in self.timed.values()]
        return statistics.fmean(medians) if medians else 0.0

    def reset(self) -> None:
        self.timed, self.raw = {}, []


def _end_to_end(runner: Runner, setup_s: float) -> dict:
    op_s = runner.per_op(0)
    outcomes = [ops[0][2] for ops in runner.timed.values()]  # same inputs give the same counts
    fits = statistics.fmean(o.fits for o in outcomes) if outcomes else 0.0
    rows = statistics.fmean(o.rows for o in outcomes) if outcomes else 0.0
    firsts = list(runner.first_by_variant.values())
    sq = sum(o.sq_err for o in firsts)
    n = sum(o.n_err for o in firsts)
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (op_s, "s"),
        "fits_per_s": (fits / op_s if op_s else 0.0, "1/s"),
        "rows_scored_per_s": (rows / op_s if op_s else 0.0, "1/s"),
        "cpu_s_per_op": (runner.per_op(1), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "test_rmse": (math.sqrt(sq / n) if n else 0.0, "score"),
        "ok_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }


def run(workload_name: str, seed: int, seconds: int, traced: bool, meter, import_s: float, workdir: Path):
    from spans import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[workload_name]
    runner = Runner(meter)
    setups = []
    try:
        for i in range(1 if traced else SETUPS):
            if runner.workload is not None:
                runner.workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
            runner.workload, wall, _, _ = meter.measure(lambda: cls(seed, str(workdir)))
            # the warm-up op is checked and counted in set-up, not in op_s; each
            # set-up warms a different variant, so the median does not hang on one draw
            setups.append(wall + runner.one(i % runner.workload.variants, timed=False))
        # a variant's first op ran about 4% slower than its later ones, so a run
        # that timed more ops read faster; warm them all before timing
        runner.warm(done=i % runner.workload.variants)

        tracer = None
        if not traced:
            runner.loop(seconds, start_op=1)
            metrics = _end_to_end(runner, import_s + statistics.median(setups))
        else:
            next_op = runner.loop(seconds / 2, start_op=1)
            untraced = runner.per_op(0)
            runner.reset()
            tracer = runner.tracer = Tracer()
            tracer.install()
            try:
                runner.loop(seconds / 2, start_op=next_op)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics(max(1, len(runner.raw)))
            overhead = runner.per_op(0) / untraced - 1.0 if untraced else 0.0
            metrics["trace.overhead_frac"] = (overhead, "ratio")
    finally:
        if runner.workload is not None:
            runner.workload.close()

    info = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "op_s": {"value": runner.per_op(0), "n": len(runner.raw),
                 "per_variant_n": {v: len(ops) for v, ops in sorted(runner.timed.items())}},
        "ref_probe_s": REF_PROBE_S,
        "setup_s_each": setups,
        "op_walls_measured": [measured for measured, _ in runner.raw],
        "op_walls_scaled": [wall for _, wall in runner.raw],
        "failures": runner.failures,
        "machine": _machine(),
    }
    return runner, metrics, info, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("lolo_gbt_cv", "m2m_solvers", "cli_pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    meter = Meter()
    try:
        _, import_s, _, _ = meter.measure(_import_program)
    except ImportError as exc:
        print(f"perfbench: cannot import perfcast: {exc}", file=sys.stderr)
        return 2

    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        runner, metrics, info, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                            meter, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(info, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    if tracer is not None:
        record["spans"] = {"fields": ["name", "start", "end", "parent", "op"], "rows": tracer.spans}
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for failure in runner.failures:
        print(f"perfbench: failed op: {failure}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
