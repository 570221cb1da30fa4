"""Seeded benchmark of the transversal toolkit's public entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quasi-matching --seed 1 --seconds 10 --trace 0

One process, one operation at a time (a closed loop with a single client).
An operation is one call of the workload's entry point on a freshly
generated input.  Inputs come in rounds that repeat the workload's size mix
exactly; a round is generated (untimed) before its operations run, and the
run ends after the round in which at least ``--seconds`` of loop wall time
have passed and the 90th percentile has at least ten operations beyond it.

Every timed span (an operation, a round's generation, the package import)
runs between two short speed probes, and its time is reported at reference
speed: wall time x ``REF_PROBE_MS`` / the mean of the two probes.  The
wall-clock figures are in the report line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every round
twice on identically seeded fresh inputs, once plain and once with the
per-layer wrappers installed (alternating which pass goes first), checks
that both passes give identical outcomes and prints the per-layer metrics
and the tracing overhead.

Every output is re-verified outside the timed region.  An exception, a
success that fails the check, or a traced outcome that differs from the
plain one makes the run exit with code 1 after printing its result.  The
last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
PREFIX_ROUNDS = 2  # rounds hashed into the digest and the outcome histograms
MIN_BEYOND_P90 = 10
MAX_LOOP_S = 120.0  # stop early rather than overrun the time limits of a run and a pass
PROBE_LOOPS = 60_000
# A probe's time at the reference speed: a round figure for the probe in the
# fast state of the 2.1 GHz Xeon virtual machine the benchmark was built on
# (5.2-6.0 ms; see DESIGN.md).
REF_PROBE_MS = 6.0


def calibrate_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop: a machine-speed reading only.

    One loop takes about 50 ms and alone varies by a fifth from one reading
    to the next, hence the median of several.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def probe_ms() -> float:
    """Wall time (ms) of a short fixed pure-Python loop: the machine's speed now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return (time.perf_counter() - t0) * 1e3


class Span:
    """Times a block between two speed probes: ``wall`` and ``ref`` in seconds."""

    def __enter__(self):
        self.before = probe_ms()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        self.after = probe_ms()
        self.ref = self.wall * REF_PROBE_MS / ((self.before + self.after) / 2)
        return False


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def beyond_p90(values: list[float]) -> int:
    if len(values) < 2:
        return 0
    q = p90(values)
    return sum(v > q for v in values)


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


class Run:
    """One workload run: its rounds, their checked outcomes and timings."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.sizes: list[int] = []  # input size of each operation
        self.outcomes = []  # checked outcome of each input's first call
        self.wall_s: list[float] = []  # operation times, wall clock
        self.ref_s: list[float] = []  # the same at reference speed
        self.setup: list[Span] = []  # the first generation of each round
        self.probes: list[float] = []  # every probe taken around an operation
        self.errors: list[str] = []
        self.rounds = 0

    def make_round(self, r: int) -> list:
        """Generate round ``r``'s inputs afresh (timed as set-up)."""
        rng = random.Random(f"{self.w.name}/{self.seed}/{r}")
        with Span() as span:
            inputs = [self.w.make(rng, slot, self.workdir) for slot in self.w.slots]
        if r == self.rounds:
            self.rounds += 1
            self.sizes.extend(self.w.slots)
            self.setup.append(span)
        gc.collect()
        return inputs

    def call(self, i: int, inp, tracer=None) -> Span:
        """Call the entry point once on input ``i`` and check the output."""
        from workloads import Outcome

        if tracer is not None:
            tracer.install()
        err = None
        try:
            with Span() as span:
                raw = self.w.run(inp)
        except Exception as exc:  # a crash of the program is a failed operation
            raw, err = None, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.uninstall()
        if err is None:
            try:
                out = self.w.check(inp, raw)
            except Exception as exc:
                out = Outcome({"error": type(exc).__name__}, False,
                              error=f"check raised {type(exc).__name__}: {exc}")
        else:
            out = Outcome({"error": err.split(":")[0]}, False, error=err)
        if i == len(self.outcomes):
            self.outcomes.append(out)
        elif out.record != self.outcomes[i].record or out.path != self.outcomes[i].path:
            out.error = out.error or f"input {i}: traced and plain outcomes differ"
        if out.error:
            self.errors.append(out.error)
        if tracer is not None:
            tracer.ops += 1
            tracer.successes += out.success
        return span

    def run_round(self, r: int, tracer=None) -> list[Span]:
        """Run every input of round ``r`` once, each released after its check."""
        inputs = self.make_round(r)
        base = r * len(self.w.slots)
        spans = []
        for j in range(len(inputs)):
            inp, inputs[j] = inputs[j], None
            spans.append(self.call(base + j, inp, tracer))
            del inp
        return spans


def histograms(outcomes) -> dict:
    return {
        "paths": dict(sorted(Counter(o.path for o in outcomes if o.success).items())),
        "failures": dict(sorted(Counter(o.failure for o in outcomes if o.failure).items())),
        "errors": sum(1 for o in outcomes if o.error),
    }


def golden_status(name: str, seed: int, prefix_digest: str, prefix_hist: dict) -> str:
    """``match`` when both the digest and the outcome histograms equal the recorded ones."""
    if not GOLDEN.exists():
        return "absent"
    want = json.loads(GOLDEN.read_text()).get(name, {}).get(str(seed))
    if want is None:
        return "absent"
    same = want["digest"] == prefix_digest and all(
        want[k] == v for k, v in prefix_hist.items())
    return "match" if same else "moved"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "transversal" / "__init__.py").is_file():
        print(f"error: no transversal package under {src}", file=sys.stderr)
        return 2
    calib_start = calibrate_ms()
    sys.path.insert(0, str(src))
    with Span() as import_span:
        import workloads  # imports the package

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]()
    workdir = HERE / ".work" / f"{w.name}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            result, report = traced_run(w, args, workdir)
        else:
            result, report = plain_run(w, args, workdir, import_span)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    report["calib_ms"] = {"start": calib_start, "end": calibrate_ms()}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _loop_done(run: Run, t_loop: float, seconds: float) -> bool:
    elapsed = time.perf_counter() - t_loop
    if elapsed >= MAX_LOOP_S:
        return True
    if run.rounds < PREFIX_ROUNDS or elapsed < seconds:
        return False
    return beyond_p90(run.ref_s) >= MIN_BEYOND_P90


def by_size(sizes: list[int], op_s: list[float]) -> dict:
    """Median, minimum and maximum operation time (ms) of each input size."""
    out = {}
    for n in sorted(set(sizes)):
        ms = [t * 1e3 for t, s in zip(op_s, sizes) if s == n]
        out[str(n)] = {"ops": len(ms), "p50": statistics.median(ms),
                       "min": min(ms), "max": max(ms)}
    return out


def timing_metrics(op_s: list[float], setup_s: float) -> dict:
    ms = [t * 1e3 for t in op_s]
    return {
        "ops_per_s": {"value": len(op_s) / sum(op_s), "unit": "ops/s"},
        "op_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
        "op_ms.p90": {"value": p90(ms), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def _prefix(run: Run) -> tuple[str, dict]:
    prefix = run.outcomes[: PREFIX_ROUNDS * len(run.w.slots)]
    return digest([o.record for o in prefix]), histograms(prefix)


def plain_run(w, args, workdir: Path, import_span: Span):
    run = Run(w, args.seed, workdir)
    t_loop = time.perf_counter()
    while not _loop_done(run, t_loop, args.seconds):
        for span in run.run_round(run.rounds):
            run.wall_s.append(span.wall)
            run.ref_s.append(span.ref)
            run.probes.extend((span.before, span.after))
    loop_s = time.perf_counter() - t_loop

    ops = len(run.ref_s)
    successes = sum(o.success for o in run.outcomes)
    prefix_digest, prefix_hist = _prefix(run)
    metrics = timing_metrics(
        run.ref_s, import_span.ref + statistics.median(s.ref for s in run.setup))
    metrics["success_rate"] = {"value": successes / ops, "unit": "fraction"}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    metrics = {k: metrics[k] for k in ("ops_per_s", "op_ms.p50", "op_ms.p90",
                                       "success_rate", "setup_s", "peak_rss_mb")}
    wall = timing_metrics(
        run.wall_s, import_span.wall + statistics.median(s.wall for s in run.setup))
    report = {
        "workload": w.name, "seed": args.seed, "trace": 0,
        "rounds": run.rounds, "ops": ops, "loop_s": loop_s, "timed_s": sum(run.wall_s),
        "beyond_p90": beyond_p90(run.ref_s),
        "op_ms_by_size": by_size(run.sizes, run.ref_s),
        "wall": {k: v["value"] for k, v in wall.items()},
        "wall_op_ms_by_size": by_size(run.sizes, run.wall_s),
        "probe_ms": {"min": min(run.probes), "p50": statistics.median(run.probes),
                     "max": max(run.probes)},
        "import_s": {"wall": import_span.wall, "ref": import_span.ref},
        "round_setup_s": [s.ref for s in run.setup],
        "prefix_ops": PREFIX_ROUNDS * len(w.slots), "prefix_digest": prefix_digest,
        "golden": golden_status(w.name, args.seed, prefix_digest, prefix_hist),
        "prefix_histograms": prefix_hist, "run_histograms": histograms(run.outcomes),
        "errors": run.errors[:10],
    }
    result = {"correct": not run.errors, "attempted": ops, "failed": len(run.errors),
              "metrics": metrics}
    return result, report


def traced_run(w, args, workdir: Path):
    from layers import Tracer

    tracer = Tracer()
    run = Run(w, args.seed, workdir)
    plain_s = traced_s = 0.0  # at reference speed
    t_loop = time.perf_counter()
    while run.rounds < PREFIX_ROUNDS or time.perf_counter() - t_loop < args.seconds:
        r = run.rounds
        # alternate which pass goes first, so order effects cancel
        for tr in ([None, tracer] if r % 2 else [tracer, None]):
            dt = sum(span.ref for span in run.run_round(r, tr))
            if tr is None:
                plain_s += dt
            else:
                traced_s += dt
    loop_s = time.perf_counter() - t_loop

    ops = len(run.outcomes)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
    metrics["trace.ops_per_s"] = {"value": ops / traced_s, "unit": "ops/s"}
    metrics["trace.untraced_ops_per_s"] = {"value": ops / plain_s, "unit": "ops/s"}
    metrics["trace.overhead"] = {"value": traced_s / plain_s - 1, "unit": "fraction"}
    prefix_digest, prefix_hist = _prefix(run)
    report = {
        "workload": w.name, "seed": args.seed, "trace": 1,
        "rounds": run.rounds, "ops": ops, "loop_s": loop_s,
        "prefix_ops": PREFIX_ROUNDS * len(w.slots), "prefix_digest": prefix_digest,
        "golden": golden_status(w.name, args.seed, prefix_digest, prefix_hist),
        "prefix_histograms": prefix_hist, "run_histograms": histograms(run.outcomes),
        "errors": run.errors[:10],
    }
    result = {"correct": not run.errors, "attempted": 2 * ops, "failed": len(run.errors),
              "metrics": metrics}
    return result, report


if __name__ == "__main__":
    sys.exit(main())
