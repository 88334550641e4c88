#!/usr/bin/env python3
"""Benchmark for qsepmc: samples/s per workload and per-layer batch costs.

    python3 perfbench/run.py --workload hs22-full --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The package is imported from ``src/`` next to
this directory; without it the benchmark exits with code 2 and prints no
result.  Each workload drives the ``qsep-mc`` command in process, as a closed
loop: one caller waits for each run, first with one worker process per CPU,
then with one stream on the same seed (the order alternates between
repetitions).  ``--trace 0`` prints the end-to-end metrics and ``--trace 1``
the per-layer ones; the last line of standard output is one JSON object.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "qsepmc", "__init__.py")):
    print(f"qsepmc sources not found under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from qsepmc import cli  # noqa: E402
from qsepmc.ensembles import DensityMatrix, EnsembleSpec, sample_states  # noqa: E402
from qsepmc.estimator import BATCH_SIZE, classify_states, wilson_interval  # noqa: E402
from qsepmc.rng import RngStream  # noqa: E402
from qsepmc.separability import bloch_vector, ppt_verdict  # noqa: E402

from tracing import STATE_SPANS, PARTIAL_SPANS, Tracer  # noqa: E402

#: Two-sided normal quantile for a false-alarm rate of 1e-4 per check.
Z_GATE = 3.8906

NPROC = len(os.sched_getaffinity(0))
CLK_TCK = os.sysconf("SC_CLK_TCK")
SETUP_REPEATS = 5
PER_SAMPLE_PROBES = 256
#: Samples per run call in smoke mode: one full batch plus a partial one.
SMOKE_SAMPLES = 5000
OUT_DIR = os.path.join(HERE, "out")

ROWS = {(r.measure, r.d_A, r.d_B, r.rank): r for r in cli.SUITE_ROWS}


@dataclass(frozen=True)
class Workload:
    """A ``qsep-mc`` command over some ``cli.SUITE_ROWS`` configurations.

    One row runs as ``qsep-mc run``; all ten run as ``qsep-mc table-suite``,
    where ``samples`` overrides every row's sample count.  ``traced_reps``
    fixes the traced work, so the exact counts depend on the seed only.
    """

    name: str
    rows: tuple
    samples: int
    traced_reps: int

    def args(self, samples: int, seed: int, streams: int) -> list[str]:
        if len(self.rows) == 1:
            r = self.rows[0]
            cmd = ["run", "--ensemble", r.measure, "--dims", f"{r.d_A}x{r.d_B}", "--rank", str(r.rank)]
        else:
            cmd = ["table-suite"]
        return [*cmd, "--samples", str(samples), "--seed", str(seed), "--streams", str(streams)]

    def specs(self) -> list[EnsembleSpec]:
        return [EnsembleSpec(r.measure, r.d_A, r.d_B, r.rank) for r in self.rows]


def _row(key):
    return next(r for r in cli.SUITE_ROWS if r.key == key)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hs22-full", (_row("hs-2x2-rank4"),), 50 * BATCH_SIZE, traced_reps=1),
        # One batch per worker: about 0.9 of Bures 2x3 batches replay, so on
        # two CPUs about four repetitions in five replay every batch, and the
        # median repetition is such a one at both stream counts, whatever
        # the seed.
        Workload("bures23-full", (_row("bures-2x3-rank6"),), max(2, NPROC) * BATCH_SIZE,
                 traced_reps=8),
        Workload("suite-quick", cli.SUITE_ROWS, 10_000, traced_reps=2),
    )
}


def rep_seed(seed: int, rep: int) -> int:
    """Base seed of repetition ``rep``; table-suite adds the row index 0..9."""
    return seed * 10_000 + 10 * rep


# --------------------------------------------------------------------------
# Running the CLI and capturing every estimator.run call


def cpu_steal() -> list[float]:
    """Seconds of hypervisor steal since boot on each CPU this process may
    run on, from /proc/stat; empty where the kernel does not report it."""
    cpus = os.sched_getaffinity(0)
    try:
        with open("/proc/stat") as fh:
            rows = [line.split() for line in fh if line.startswith("cpu") and line[3].isdigit()]
    except OSError:
        return []
    return [int(f[8]) / CLK_TCK for f in rows if len(f) > 8 and int(f[0][3:]) in cpus]


class Stopwatch:
    """Wall time of a block, and that time less the hypervisor's steal.

    On a shared virtual machine the host can stall a busy vCPU for long
    stretches, and that time is not the program's.  The largest steal
    during the block on one of the CPUs in this process's affinity mask (which
    its pool workers inherit) is taken off: exact for one busy vCPU, and the
    stall of the most delayed vCPU when several are busy.
    """

    def __enter__(self):
        self._steal = cpu_steal()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t0
        stolen = [b - a for a, b in zip(self._steal, cpu_steal())]
        self.seconds = self.wall - max(stolen, default=0.0)
        return False


@dataclass
class Call:
    config: object
    stats: object
    wall: float  # wall time of the run call
    seconds: float  # the same less hypervisor steal
    error: str | None


class RunLog:
    """Wraps ``cli.run_estimator`` to keep each run's counters and wall time."""

    def __init__(self):
        self.calls: list[Call] = []

    def wrap(self, run):
        def logged(config):
            stats, error = None, None
            try:
                with Stopwatch() as sw:
                    stats = run(config)
            except Exception as exc:
                error = repr(exc)
                raise
            finally:
                self.calls.append(Call(config, stats, sw.wall, sw.seconds, error))
            return stats

        return logged

    @contextlib.contextmanager
    def installed(self):
        original = cli.run_estimator
        cli.run_estimator = self.wrap(original)
        try:
            yield self
        finally:
            cli.run_estimator = original


@dataclass
class Invocation:
    streams: int
    seed: int
    wall: float
    calls: list[Call]
    error: str | None

    @property
    def samples(self) -> int:
        return sum(c.config.n_samples for c in self.calls)

    @property
    def run_wall(self) -> float:
        return sum(c.wall for c in self.calls)

    @property
    def run_seconds(self) -> float:
        return sum(c.seconds for c in self.calls)


def invoke(log: RunLog, args: list[str], streams: int, seed: int) -> Invocation:
    start = len(log.calls)
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit:
            pass  # table-suite exits 1 while the known-red rank-3 rows fail
        except Exception as exc:  # the benchmark records the failure and goes on
            error = repr(exc)
    wall = time.perf_counter() - t0
    return Invocation(streams, seed, wall, log.calls[start:], error)


# --------------------------------------------------------------------------
# Correctness gate


def counters(stats):
    return (stats.total, stats.separable, stats.bin_total, stats.bin_separable)


def gate_call(call: Call, notes: list[str]) -> bool:
    """True when one run call is correct; known-red rows only add a note."""
    if call.stats is None:
        notes.append(f"run raised {call.error}")
        return False
    s, cfg = call.stats, call.config
    spec = cfg.spec
    row = ROWS[(spec.measure, spec.d_A, spec.d_B, spec.rank)]
    if s.total != cfg.n_samples or sum(s.bin_total) != s.total or sum(s.bin_separable) != s.separable:
        notes.append(f"{row.key} seed {cfg.seed}: counters inconsistent")
        return False
    if row.reference == 0.0:
        if s.separable != 0:
            notes.append(f"{row.key} seed {cfg.seed}: {s.separable} separable, expected 0")
            return False
        return True
    p = s.separable / s.total
    if spec.rank < spec.dim:
        notes.append(f"known_red {row.key} seed {cfg.seed}: p_sep={p:.4f} reference={row.reference}")
        return True
    lo, hi = wilson_interval(s.separable, s.total, Z_GATE)
    if lo <= row.reference <= hi or abs(p - row.reference) <= row.tolerance:
        return True
    notes.append(f"{row.key} seed {cfg.seed}: p_sep={p:.5f} outside [{lo:.5f}, {hi:.5f}] of {row.reference}")
    return False


def gate_invocation(inv: Invocation, notes: list[str]) -> tuple[int, int]:
    """Attempted and failed run calls of one CLI invocation.  A command that
    fails outside ``run`` counts as one more failed attempt."""
    attempted = len(inv.calls)
    failed = sum(not gate_call(c, notes) for c in inv.calls)
    if inv.error is not None and all(c.stats is not None for c in inv.calls):
        notes.append(f"{inv.streams}-stream invocation raised {inv.error}")
        attempted += 1
        failed += 1
    return attempted, failed


def invariance_failures(parallel: Invocation, serial: Invocation, notes: list[str]) -> int:
    """Run calls of one seed whose counters differ between stream counts."""
    failed = 0
    for a, b in zip(parallel.calls, serial.calls):
        if a.stats is not None and b.stats is not None and counters(a.stats) != counters(b.stats):
            notes.append(f"seed {a.config.seed}: counters differ between {NPROC} streams and 1 stream")
            failed += 1
    if len(parallel.calls) != len(serial.calls):
        notes.append(f"seed {parallel.seed}: {len(parallel.calls)} vs {len(serial.calls)} runs")
        failed += 1
    return failed


# --------------------------------------------------------------------------
# Measurement


def warm_up(workload):
    """Pay lazy LAPACK and einsum initialisation before timing; ``setup_s``
    reports it.  Pool workers fork from this process and inherit it."""
    for spec in workload.specs():
        states = sample_states(spec, RngStream(0, 0), 64)
        classify_states(states, (spec.d_A, spec.d_B))


def measure(log, workload, samples, seed, seconds):
    """Repetitions of the workload within ``seconds``.

    Every repetition runs the same seed at each stream count.  The loop stops
    when the next repetition, assumed as long as the last, would end more
    than half its length past ``seconds``, so the measured time is
    ``seconds`` on average; at least one repetition runs.  Returns
    ``[(parallel, serial), ...]``.
    """
    warm_up(workload)
    reps = []
    t_end = time.perf_counter() + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        s = rep_seed(seed, i)
        order = (NPROC, 1) if i % 2 == 0 else (1, NPROC)
        done = {w: invoke(log, workload.args(samples, s, w), w, s) for w in order}
        reps.append((done[NPROC], done[1]))
        i += 1
        now = time.perf_counter()
        if now + 0.5 * (now - t0) > t_end:
            return reps


def rate(invocations, steal_free=True) -> float:
    """Median over the invocations of samples per second of ``estimator.run``,
    by default on wall time less hypervisor steal.  The median, unlike the
    pooled rate, passes over stretches of less than half the run in which
    other load on a shared host slows every process down."""
    return statistics.median(
        v.samples / (v.run_seconds if steal_free else v.run_wall) for v in invocations
    )


def measure_setup(workload, repeats):
    """Fresh interpreters running ``warmup.py`` on the workload's first
    configuration.  The warm-up batch has a fixed seed, so every probe of
    every run times the same work."""
    row = workload.rows[0]
    env = dict(os.environ, PYTHONPATH=SRC)
    watches = []
    for _ in range(repeats):
        with Stopwatch() as sw:
            subprocess.run(
                [sys.executable, os.path.join(HERE, "warmup.py"), row.measure, str(row.d_B),
                 str(row.rank)],
                env=env, check=True, timeout=120,
            )
        watches.append(sw)
    return watches


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its reaped pool workers."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def tail(values):
    """Highest order statistic with at least ten samples beyond it, and its
    percentile.  Below 20 samples that would not lie above the median, so
    the maximum stands in (reported as percentile 100)."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def per_sample_us(workload, seed):
    """``ppt_verdict`` plus ``bloch_vector`` on one DensityMatrix, in µs."""
    specs = workload.specs()
    each = max(1, PER_SAMPLE_PROBES // len(specs))
    times = []
    for j, spec in enumerate(specs):
        states = sample_states(spec, RngStream(rep_seed(seed, 0) + j, 0), each)
        for m in states:
            dm = DensityMatrix(m, spec.d_A, spec.d_B)
            t0 = time.perf_counter()
            ppt_verdict(dm)
            bloch_vector(dm)
            times.append((time.perf_counter() - t0) * 1e6)
    return times


def imbalance(batches) -> float:
    """Slowest worker's load over the mean load, under ``run``'s contiguous
    split of each run's batches over ``min(NPROC, batches)`` workers; summed
    over the traced runs.  Computed from serial per-batch times."""
    by_run = {}
    for b in batches:
        by_run.setdefault(b.run_index, []).append(b.busy_seconds)
    worst = mean = 0.0
    for times in by_run.values():
        nb = len(times)
        w = min(NPROC, nb)
        loads = [sum(times[nb * k // w: nb * (k + 1) // w]) for k in range(w)]
        worst += max(loads)
        mean += sum(loads) / w
    return worst / mean


# --------------------------------------------------------------------------
# One benchmark run


class Result:
    def __init__(self):
        self.metrics = {}
        self.lines = []
        self.notes = []
        self.attempted = 0
        self.failed = 0

    def put(self, name, value, unit, detail=""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"metric {name} = {value!r} {unit}{'  (' + detail + ')' if detail else ''}")

    def put_timing(self, name, values, unit, scale=1.0):
        """Median and tail of a timing list; the sample count goes in the text."""
        med = statistics.median(values) * scale
        t, pct = tail(values)
        self.put(name, med, unit, f"median of n={len(values)}")
        self.put(f"{name}.tail", t * scale, unit, f"p{pct:.0f} of n={len(values)}")

    def gate(self, invocations):
        for inv in invocations:
            attempted, failed = gate_invocation(inv, self.notes)
            self.attempted += attempted
            self.failed += failed

    def gate_reps(self, reps):
        for par, ser in reps:
            self.gate((par, ser))
            self.failed += invariance_failures(par, ser, self.notes)

    def summary(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def end_to_end(workload, seed, seconds, smoke) -> Result:
    res = Result()
    samples = SMOKE_SAMPLES if smoke else workload.samples
    log = RunLog()
    with log.installed():
        reps = measure(log, workload, samples, seed, seconds)
    res.gate_reps(reps)
    par = [p for p, _ in reps]
    ser = [s for _, s in reps]
    for name, invs, streams in (("samples_per_s", par, NPROC), ("serial_samples_per_s", ser, 1)):
        res.put(name, rate(invs), "1/s",
                f"median of {len(invs)} repetitions of {invs[0].samples} samples at {streams} "
                f"streams; {rate(invs, steal_free=False)!r} on plain wall time")
        res.lines.append(f"{name} per repetition: " + " ".join(f"{v.samples / v.run_seconds:.0f}" for v in invs))
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    setup = measure_setup(workload, 1 if smoke else SETUP_REPEATS)
    res.put("setup_s", statistics.median(sw.seconds for sw in setup), "s",
            f"median of {len(setup)} fresh interpreters; "
            f"{statistics.median(sw.wall for sw in setup)!r} on plain wall time")
    res.lines.append(f"failed_frac = {res.failed / max(res.attempted, 1)!r} "
                     f"({res.failed} of {res.attempted} run calls)")
    return res


def per_layer(workload, seed, seconds, smoke) -> Result:
    res = Result()
    samples = SMOKE_SAMPLES if smoke else workload.samples
    log = RunLog()
    with log.installed():
        reps = measure(log, workload, samples, seed, seconds / 2)
        tracer = Tracer(lambda: len(log.calls))
        traced = []
        with tracer.installed():
            for i in range(workload.traced_reps):
                s = rep_seed(seed, i)
                traced.append(invoke(log, workload.args(samples, s, 1), 1, s))
    res.gate_reps(reps)
    res.gate(traced)
    res.failed += check_traced_counters(traced, reps, res.notes)

    batches = tracer.batches
    per_batch = {
        "rng.uniforms_ms": [b.seconds(("rng.uniforms",)) for b in batches],
        "rng.box_muller_ms": [b.seconds(("rng.box_muller",)) for b in batches],
        "ensembles.sample_ms": [b.seconds(("ensembles.sample_states",)) for b in batches],
        "ensembles.state_ms": [
            b.seconds(STATE_SPANS, exclude_parents=STATE_SPANS) for b in batches
        ],
        "linalg.pt_eig_ms": [
            b.seconds(("linalg.hermitian_eigenvalues",), parent="estimator.classify_states")
            for b in batches
        ],
        "linalg.rank_ms": [
            b.seconds(("linalg.numerical_rank",), parent="estimator.classify_states") for b in batches
        ],
        "linalg.partial_ms": [
            b.seconds(PARTIAL_SPANS, parent="estimator.classify_states") for b in batches
        ],
        "estimator.classify_ms": [b.seconds(("estimator.classify_states",)) for b in batches],
    }
    for name, values in per_batch.items():
        res.put_timing(name, values, "ms", scale=1e3)
    replayed = sum(b.replayed for b in batches)
    res.put("estimator.traced_batches", len(batches), "count")
    res.put("rng.extra_draws", sum(b.extra_draws for b in batches), "count")
    res.put("ensembles.replay_batches", replayed, "count")
    res.put("ensembles.replay_frac", replayed / len(batches), "ratio", "replayed batches / batches")
    res.put("ensembles.assemble_calls", sum(b.calls("ensembles.assemble_rank_deficient") for b in batches),
            "count")
    res.put("separability.near_boundary", sum(b.near_boundary for b in batches), "count",
            "|min PT eigenvalue| <= 100 ppt_tol")

    probe = per_sample_us(workload, seed)
    res.put_timing("separability.per_sample_us", probe, "us")

    par = [p for p, _ in reps]
    ser = [s for _, s in reps]
    res.put("estimator.scaling_eff", rate(par) / (NPROC * rate(ser)), "ratio",
            f"samples_per_s / ({NPROC} x serial_samples_per_s)")
    res.put("estimator.imbalance", imbalance(batches), "ratio", "computed from serial batch times")
    overhead = [inv.wall - inv.run_wall for inv in par + ser]
    res.put_timing("cli.overhead_ms", overhead, "ms", scale=1e3)

    common = {inv.seed for inv in traced} & {inv.seed for inv in ser}
    res.put("bench.trace_overhead_frac",
            1.0 - rate([v for v in traced if v.seed in common]) / rate([v for v in ser if v.seed in common]),
            "ratio", f"1 - traced / untraced serial_samples_per_s on {len(common)} common seeds")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(tracer.to_dict(), fh)
    res.lines.append(f"spans written to {os.path.relpath(path, ROOT)}")
    return res


def check_traced_counters(traced, reps, notes) -> int:
    """Traced serial runs must reproduce the untraced counters of their seed."""
    untraced = {}
    for _, s in reps:
        for c in s.calls:
            if c.stats is not None:
                untraced[(c.config.seed, c.config.spec)] = counters(c.stats)
    failed = 0
    for inv in traced:
        for c in inv.calls:
            ref = untraced.get((c.config.seed, c.config.spec))
            if c.stats is not None and ref is not None and counters(c.stats) != ref:
                notes.append(f"seed {c.config.seed}: traced counters differ from untraced")
                failed += 1
    return failed


def provenance(seed) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit,
        "seed": seed,
    }


def bench(workload, seed, seconds, trace, smoke=False) -> Result:
    res = (per_layer if trace else end_to_end)(workload, seed, seconds, smoke)
    res.lines.insert(0, "provenance " + json.dumps(provenance(seed)))
    res.lines.extend(dict.fromkeys(res.notes))  # runs of one seed at both stream counts agree
    return res


# --------------------------------------------------------------------------
# Smoke mode


EXACT_COUNTS = ("rng.extra_draws", "ensembles.replay_batches", "ensembles.assemble_calls",
                "separability.near_boundary")


def smoke(seed) -> bool:
    """Every workload at one or two batches, both trace modes; checks that
    every metric in BENCHMARK.json is printed with its unit and that exact
    counts repeat across two traced runs of one seed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for name, workload in WORKLOADS.items():
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            runs = [bench(workload, seed, 0, trace, smoke=True) for _ in range(1 + trace)]
            got = runs[0].summary()
            for m in wanted:
                printed = got["metrics"].get(m["name"])
                if printed is None or printed["unit"] != m["unit"]:
                    print(f"smoke {name} trace={trace}: {m['name']} missing or not in {m['unit']}")
                    ok = False
            if not got["correct"]:
                print(f"smoke {name} trace={trace}: incorrect: {runs[0].notes}")
                ok = False
            if trace:
                again = runs[1].summary()["metrics"]
                for c in EXACT_COUNTS:
                    if got["metrics"][c] != again[c]:
                        print(f"smoke {name}: {c} differs between two traced runs")
                        ok = False
            print(f"smoke {name} trace={trace}: {len(got['metrics'])} metrics")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload; exit 1 on a problem")
    args = parser.parse_args(argv)
    if args.smoke:
        return 0 if smoke(args.seed) else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    res = bench(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    for line in res.lines:
        print(line)
    print(json.dumps(res.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
