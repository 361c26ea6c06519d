"""pdmpkit benchmark: one density route on three models, timed end to end.

    python3 bench/run.py --workload mc_density --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout.  After set-up the run repeats whole rounds until ``--seconds``
have passed; a round builds fresh models through ``pdmpkit.cli.build_model``
(untimed, so caches keyed on a model start cold), then runs and checks each
case of the workload.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (medians over rounds) with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The traced run spends the first half of ``--seconds`` on
plain rounds and the rest on up to TRACED_ROUNDS traced ones, so it measures
its own overhead; plain rounds come first because swapping wrappers in and
out leaves the interpreter's specialized call sites slower for a while.  It
writes its spans and metrics under ``bench/out/`` and, on mc_density,
re-runs every histogram with the default ``PDMP_THREADS`` and checks that it
is byte-identical.

Timed rounds run with ``PDMP_THREADS=1``.  The default Monte Carlo thread
pool is GIL-bound: on a 2-core machine its case times spread 15-21% between
runs against 3-7% for one thread, too wide for the bounds in BENCHMARK.json.
"""

import os
import sys
import time

_STARTED = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started (before the interpreter got here)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE = _process_age()

import argparse  # noqa: E402  (the clock above starts first)
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
# most traced rounds per traced run: one mc_density round leaves about
# 0.9 M spans (32 bytes each)
TRACED_ROUNDS = 2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_package():
    """pdmpkit from this checkout's src/, or None with a message on stderr."""
    if not (SRC / "pdmpkit" / "__init__.py").is_file():
        print(f"run.py: no pdmpkit package under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import pdmpkit
    import pdmpkit.cli
    import pdmpkit.verify

    if Path(pdmpkit.__file__).resolve().parent != (SRC / "pdmpkit").resolve():
        print(f"run.py: pdmpkit was imported from {pdmpkit.__file__}, not {SRC}", file=sys.stderr)
        return None
    return pdmpkit


@contextlib.contextmanager
def _threads(value):
    """PDMP_THREADS set to value, or removed (the default) for None."""
    saved = os.environ.pop("PDMP_THREADS", None)
    if value is not None:
        os.environ["PDMP_THREADS"] = value
    try:
        yield
    finally:
        os.environ.pop("PDMP_THREADS", None)
        if saved is not None:
            os.environ["PDMP_THREADS"] = saved


class Runner:
    """Rounds of one workload, with the counts the result line needs."""

    def __init__(self, pk, workload, tracer):
        self.pk, self.wl, self.tracer = pk, workload, tracer
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def span(self, name, traced):
        return self.tracer.span(name) if traced else contextlib.nullcontext()

    def build(self, traced, cases=None, root="build"):
        models = {}
        for case in cases or self.wl.cases:
            with self.span(f"{root}.{case.model}", traced):
                model = self.pk.cli.build_model(case.config)
            models[case.model] = self.tracer.instrument(model) if traced else model
        return models

    def run_case(self, case, model, inputs, reference, root, traced):
        """(seconds, outputs) of one checked case, or None when it raised."""
        self.attempted += 1
        try:
            with self.span(root, traced):
                t0 = time.perf_counter()
                out = case.run(model, inputs)
                elapsed = time.perf_counter() - t0
        except Exception:  # counted as failed; the run goes on with the next case
            self.failed += 1
            print(f"{root} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        self.problems += [f"{root}: {p}" for p in case.check(model, inputs, reference, out)]
        return elapsed, out


def _result(correct, runner, metrics):
    return {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    args = _parse(argv)
    pk = _import_package()
    if pk is None:
        return 2
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(pk)
    runner = Runner(pk, wl, tracer)

    with _threads("1"):
        models = runner.build(False)
        inputs = {c.model: c.prepare(models[c.model], args.seed) for c in wl.cases}
        setup_s = _AGE + (time.perf_counter() - _STARTED)
        references = {c.model: c.reference(models[c.model], inputs[c.model]) for c in wl.cases}
        models = None

        rounds = []  # (traced, {model: seconds}, {model: stats})
        last = {}
        start = time.perf_counter()

        def next_round():
            """None to stop, else whether the next round is traced."""
            elapsed = time.perf_counter() - start
            if not rounds:
                return False
            if not args.trace:
                return None if elapsed >= args.seconds else False
            n_traced = sum(traced for traced, _, _ in rounds)
            if n_traced == TRACED_ROUNDS or (n_traced and elapsed >= args.seconds):
                return None
            return elapsed >= args.seconds / 2

        while (traced := next_round()) is not None:
            if traced:
                tracer.install()
            models = None  # frees the last round's models and their R0 caches first
            models = runner.build(traced)
            times, stats = {}, {}
            for case in wl.cases:
                m = case.model
                done = runner.run_case(case, models[m], inputs[m], references[m], f"case.{m}",
                                       traced)
                if done is not None:
                    times[m], last[m] = done
                    stats[m] = last[m].get("stats", {})
            rounds.append((traced, times, stats))

        histograms = [c for c in wl.cases if "hist" in last.get(c.model, {})]
        if tracer and histograms:
            models = runner.build(True, histograms, "threads_default.build")
            for case in histograms:
                m = case.model
                with _threads(None):
                    done = runner.run_case(case, models[m], inputs[m], references[m],
                                           f"threads_default.{m}", True)
                if done is not None:
                    reason = checks.bytes_identical(
                        done[1]["hist"], last[m]["hist"],
                        f"{m} histogram, default PDMP_THREADS vs 1")
                    runner.problems += [reason] if reason else []
        if tracer:
            tracer.uninstall()

    for p in runner.problems:
        print(f"check failed: {p}", file=sys.stderr)
    correct = not runner.problems

    def median_of(key, want_traced=False):
        vals = [key(times) for traced, times, _ in rounds
                if traced == want_traced and len(times) == len(wl.cases)]
        return statistics.median(vals) if vals else 0.0

    def solve(times):
        return sum(times.values())

    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_s": (median_of(solve), "s"),
            **{f"{c.model}_s": (median_of(lambda t, m=c.model: t[m]), "s") for c in wl.cases},
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(json.dumps(_result(correct, runner, metrics)))
        return 0 if correct else 1

    import layers

    table = tracer.table()
    values = layers.derive(table, [st for traced, _, st in rounds if traced],
                           median_of(solve, False), median_of(solve, True))
    units = {name: unit for name, unit, _ in layers.spec()}
    OUT.mkdir(exist_ok=True)
    table.save(OUT / f"{wl.name}-spans.npz")
    (OUT / f"{wl.name}-layers.json").write_text(json.dumps(values, indent=1) + "\n")
    print(json.dumps(_result(correct, runner, {k: (values[k], units[k]) for k in units})))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
