"""Closed-loop, single-client measurement of one workload.

Load model: one Python process, one thread, no sockets -- the system is
an in-process library on a simulated clock, so the client's next call is
issued only when the previous one returned.  One *repetition* builds a
fresh system (timed as set-up), does the workload's fixed work derived
from the seed (only the calls into the system are timed), and checks the
workload's oracles.  A run repeats that for ``--seconds`` and reports
medians over repetitions and percentiles over the pooled samples, so the
deterministic counts are the same however many repetitions fit.

With tracing on, every second repetition runs with the wrappers of
:mod:`macrobench.spans` installed; layer self times come from those,
everything timed end to end comes from the untraced ones, and the ratio
of the two walls is the tracing overhead.

Every timing is divided by the slowdown that calibration kernels run
between frames show at that moment (see :mod:`macrobench.calibrate`): the
sandbox's CPU speed drifts by tens of percent within a run.
"""

from __future__ import annotations

import gc
import resource
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from . import calibrate, catalog, layers
from .spans import SpanRecorder, install

#: Repetitions a run makes at least, whatever ``--seconds`` says: the
#: tail percentile needs >= 10 frames beyond it, 50 frames x 4 = 200.
MIN_REPS = 4
#: The warm-up repetition runs on inputs this much smaller.
WARMUP_SCALE = 0.1
#: Calibration samples taken on each side of a set-up.
SETUP_SAMPLES = 3


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no samples)."""
    return float(np.percentile(values, q)) if values else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Recorder:
    """What one repetition's timed phase produced.

    Workloads route every call into the system through :meth:`call`;
    anything they do outside it (building the next frame's inputs,
    checking a result) is untimed glue.
    """

    def __init__(self, spans: SpanRecorder | None = None) -> None:
        self.spans = spans
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Frame in which each sample of a kind was taken.
        self.where: dict[str, list[int]] = defaultdict(list)
        self.frames: list[float] = []
        self.wall_ns = 0.0
        self.raw_wall_ns = 0
        self.raw_frames: list[int] = []
        #: Calibration samples (slowdowns): one before the first frame,
        #: one after each frame.
        self.calibration: list[float] = []
        self.slowdown = 1.0
        #: The workload's own deterministic counts and oracle values.
        self.own: Counter = Counter()
        self.attempted = 0
        self.failures: list[str] = []
        self._frame_ns = 0

    def call(self, kind: str, fn, *args, **kwargs):
        """Time one call into the system as an operation of ``kind``."""
        spans = self.spans
        if spans is None:
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            elapsed = perf_counter_ns() - start
        else:
            spans.op = f"{kind}#{len(self.samples[kind])}"
            start = perf_counter_ns()
            result = spans.run("op." + kind, fn, args, kwargs)
            elapsed = perf_counter_ns() - start
        self.samples[kind].append(elapsed)
        self.where[kind].append(len(self.frames))
        self._frame_ns += elapsed
        self.raw_wall_ns += elapsed
        return result

    @property
    def open_frame(self) -> bool:
        return self._frame_ns > 0

    def end_frame(self) -> None:
        self.frames.append(self._frame_ns)
        self._frame_ns = 0
        self.calibration.append(calibrate.sample())

    def finish(self) -> None:
        """Turn raw times into times at reference speed, frame by frame."""
        slow = calibrate.windowed(self.calibration)
        self.raw_frames = self.frames
        for kind, values in self.samples.items():
            self.samples[kind] = [
                ns / slow[frame]
                for ns, frame in zip(values, self.where[kind])
            ]
        self.frames = [ns / s for ns, s in zip(self.frames, slow)]
        self.wall_ns = sum(sum(values) for values in self.samples.values())
        self.slowdown = sum(self.calibration) / len(self.calibration)

    def ops(self, n: int = 1) -> None:
        """Count ``n`` operations attempted against the system."""
        self.attempted += n

    def fail(self, what: str) -> None:
        """Record one failed operation or oracle, by name."""
        self.failures.append(what)

    def expect(self, oracle: str, ok: bool) -> None:
        """One oracle verdict: counted as attempted, failed when not ok."""
        self.attempted += 1
        if not ok:
            self.failures.append(oracle)


@dataclass
class Rep:
    traced: bool
    setup_ns: float
    run_ns: int
    rec: Recorder
    registry: dict
    self_ns: dict = field(default_factory=dict)
    setup_self_ns: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)

    def signature(self) -> dict:
        """The counts that must repeat exactly between repetitions."""
        out = dict(self.rec.own)
        out.update(self.registry)
        out["attempted"] = self.rec.attempted
        return out


def _registry_values(before: dict, after: dict) -> dict:
    """Catalog counters as timed-phase deltas, gauges as end values.

    A counter or gauge the registry does not hold reads 0: the contract
    wants every metric on every workload, and a layer that did no work
    never created its counters.
    """
    values = {}
    for metric in catalog.PER_LAYER:
        kind = metric.source[0]
        if kind == "counter":
            key = metric.source[1]
            values[metric.name] = after.get(key, 0.0) - before.get(key, 0.0)
        elif kind == "gauge":
            values[metric.name] = after.get(metric.source[1], 0.0)
    return values


def run_rep(workload, inputs, spans: SpanRecorder | None) -> Rep:
    """One repetition: fresh system, fixed work, oracles."""
    gc.collect()
    installed = install(spans, layers.TARGETS) if spans is not None else None
    try:
        if spans is not None:
            spans.reset()
        around_setup = [calibrate.sample() for _ in range(SETUP_SAMPLES)]
        start = perf_counter_ns()
        world = workload.setup(inputs)
        setup_ns = perf_counter_ns() - start
        around_setup += [calibrate.sample() for _ in range(SETUP_SAMPLES)]
        setup_slowdown = sum(around_setup) / len(around_setup)
        setup_self = dict(spans.self_ns) if spans is not None else {}
        if spans is not None:
            spans.reset()
        before = world.metrics.snapshot()
        sim_start = world.clock.now
        rec = Recorder(spans)
        gc.collect()
        rec.calibration.append(calibrate.sample())
        start = perf_counter_ns()
        workload.run(world, inputs, rec)
        if rec.open_frame:
            # Calls after the last frame (a drain phase) form one more.
            rec.end_frame()
        run_ns = perf_counter_ns() - start
    finally:
        if installed is not None:
            installed.remove()
    rec.finish()
    registry = _registry_values(before, world.metrics.snapshot())
    rec.own["sim.elapsed_s"] = world.clock.now - sim_start
    workload.check(world, inputs, rec)
    rep = Rep(spans is not None, setup_ns / setup_slowdown, run_ns, rec,
              registry)
    if spans is not None:
        rep.self_ns = {
            name: ns / rec.slowdown for name, ns in spans.self_ns.items()
        }
        rep.setup_self_ns = {
            name: ns / setup_slowdown for name, ns in setup_self.items()
        }
        rep.calls = dict(spans.calls)
        rep.sizes = dict(spans.sizes)
    return rep


# -- metric assembly ----------------------------------------------------------


def headline_values(workload, reps: list[Rep]) -> tuple[dict, dict]:
    """The workload-specific end-to-end figures from untraced repetitions.

    A spec is ``("rate", count_key, kinds)`` -- median over repetitions of
    count / time spent in calls of those kinds (``None``: the whole timed
    wall) -- or ``("pct", q, kinds)`` over the pooled samples.
    """
    values = {}
    counts = {}
    for name, (how, arg, kinds) in workload.HEADLINE.items():
        if how == "rate":
            rates = []
            for rep in reps:
                busy = (
                    rep.rec.wall_ns if kinds is None
                    else sum(sum(rep.rec.samples[k]) for k in kinds)
                )
                rates.append(rep.rec.own[arg] / (busy / 1e9))
            values[name] = median(rates)
            counts[name] = len(rates)
        else:
            pooled = [
                ns for rep in reps for k in kinds for ns in rep.rec.samples[k]
            ]
            values[name] = percentile(pooled, arg) / 1e6
            counts[name] = len(pooled)
    return values, counts


def frame_medians(reps: list[Rep]) -> list[float]:
    """Per frame position, the median over repetitions of its time.

    Every repetition runs the same frames, so a burst of outside
    disturbance that hits one frame of one repetition is voted out here,
    while a stall the program causes (a flush, a compaction) recurs at the
    same position in every repetition and stays.
    """
    return [
        median(samples) for samples in zip(*(rep.rec.frames for rep in reps))
    ]


def end_to_end_values(reps: list[Rep]) -> tuple[dict, dict]:
    untraced = [rep for rep in reps if not rep.traced]
    frames = frame_medians(untraced)
    values = {
        "setup_s": median([rep.setup_ns for rep in untraced]) / 1e9,
        "wall_s": sum(frames) / 1e9,
        "frame_p50_ms": percentile(frames, 50) / 1e6,
        "frame_p95_ms": percentile(frames, 95) / 1e6,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    pooled = sum(len(rep.rec.frames) for rep in untraced)
    counts = {
        "setup_s": len(untraced),
        "wall_s": pooled,
        "frame_p50_ms": pooled,
        "frame_p95_ms": pooled,
        "peak_rss_mb": 1,
    }
    return values, counts


def layer_values(workload, reps: list[Rep], generate_s: float):
    """Every per-layer metric: (values, sample counts)."""
    untraced = [rep for rep in reps if not rep.traced]
    traced = [rep for rep in reps if rep.traced]
    last = traced[-1]
    values, counts = headline_values(workload, untraced)
    attempted = sum(rep.rec.attempted for rep in reps)
    failed = sum(len(rep.rec.failures) for rep in reps)

    def summed(table: dict, names) -> float:
        return float(sum(table.get(name, 0) for name in names))

    for metric in catalog.PER_LAYER:
        kind = metric.source[0]
        if kind == "self":
            names = layers.spans_of(metric.name)
            values[metric.name] = median(
                [summed(rep.self_ns, names) for rep in traced]
            ) / 1e9
            counts[metric.name] = int(summed(last.calls, names))
        elif kind == "setup_self":
            names = layers.spans_of(metric.name)
            values[metric.name] = median(
                [summed(rep.setup_self_ns, names) for rep in traced]
            ) / 1e9
        elif kind == "calls":
            values[metric.name] = summed(last.calls, metric.source[1:])
        elif kind == "size":
            values[metric.name] = summed(last.sizes, metric.source[1:])
        elif kind in ("counter", "gauge"):
            values[metric.name] = float(last.registry[metric.name])
        elif kind == "own":
            values[metric.name] = float(last.rec.own[metric.source[1]])
        elif kind == "headline":
            values.setdefault(metric.name, 0.0)

    untraced_wall = sum(frame_medians(untraced))
    traced_wall = sum(frame_medians(traced))
    op_self = sum(
        ns for name, ns in last.self_ns.items() if name.startswith("op.")
    )
    executes = summed(last.calls, layers.spans_of("query.execute_s"))
    lookups = values["pool.hits"] + values["pool.misses"]
    rows_out = values["query.prefix.rows_out"] + values["query.spatial.rows_out"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values.update({
        "error_rate": ratio(failed, attempted),
        "pool.hit_ratio": ratio(values["pool.hits"], lookups),
        "cluster.scatter.shards_per_query": ratio(
            executes, values["cluster.scatter.calls"]
        ),
        "storage.rpc.keys_per_call": ratio(
            values["kv.puts"] + values["kv.gets"], values["storage.rpc.calls"]
        ),
        "storage.rows_examined_per_result": ratio(
            values["storage.scan.rows_examined"], rows_out
        ),
        "wal.bytes_per_user_byte": ratio(
            values["wal.bytes"], float(last.rec.own["user_bytes"])
        ),
        "sim.wall_ratio": ratio(
            values["sim.elapsed_s"], untraced_wall / 1e9
        ),
        "bench.generator_s": generate_s + median(
            [rep.run_ns - rep.rec.raw_wall_ns for rep in untraced]
        ) / 1e9,
        "bench.unattributed_share": ratio(op_self, last.rec.wall_ns),
        "bench.trace_overhead_ratio": ratio(traced_wall, untraced_wall),
    })
    return values, counts


# -- one run ------------------------------------------------------------------


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 scale: float, trace_path=None) -> dict:
    """Measure ``workload`` for about ``seconds``; returns the report.

    The report's ``result`` is the driver's JSON object; the rest (sample
    counts, repetition count, named failures, deterministic counts) is
    for the human-readable output and ``baseline.json``.
    """
    spans = SpanRecorder() if trace else None
    # Warm-up: one small untimed repetition per mode, so imports, numpy's
    # lazy set-up and the wrappers' code paths are paid before timing.
    small = workload.generate(seed, scale * WARMUP_SCALE)
    run_rep(workload, small, None)
    if trace:
        run_rep(workload, small, spans)
    del small

    start = perf_counter_ns()
    inputs = workload.generate(seed, scale)
    generate_s = (perf_counter_ns() - start) / 1e9
    # The inputs live for the whole run; keep them out of every later
    # collection so a long-lived heap does not add GC noise to timings.
    gc.collect()
    gc.freeze()

    reps: list[Rep] = []
    begin = perf_counter_ns()
    deadline = begin + int(seconds * 1e9)
    try:
        while True:
            traced = trace and len(reps) % 2 == 1
            rep_start = perf_counter_ns()
            reps.append(run_rep(workload, inputs, spans if traced else None))
            now = perf_counter_ns()
            # Stop where the expected overshoot is half a repetition.
            if (len(reps) >= MIN_REPS
                    and now + (now - rep_start) // 2 >= deadline):
                break
    finally:
        gc.unfreeze()
    if trace and trace_path is not None:
        spans.write(trace_path, workload.NAME, seed)

    failures = [what for rep in reps for what in rep.rec.failures]
    first = reps[0].signature()
    for index, rep in enumerate(reps[1:], start=1):
        other = rep.signature()
        if other != first:
            changed = sorted(
                key for key in first.keys() | other.keys()
                if first.get(key) != other.get(key)
            )
            failures.append(f"counts_repeat[rep {index}: {changed[:5]}]")
    attempted = sum(rep.rec.attempted for rep in reps)

    if trace:
        values, counts = layer_values(workload, reps, generate_s)
        spec = catalog.PER_LAYER
    else:
        values, counts = end_to_end_values(reps)
        spec = catalog.END_TO_END
    metrics = {
        m.name: {"value": values[m.name], "unit": m.unit} for m in spec
    }
    return {
        "workload": workload.NAME,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "reps": len(reps),
        "measured_s": (perf_counter_ns() - begin) / 1e9,
        "rep_wall_s": [rep.rec.wall_ns / 1e9 for rep in reps],
        "rep_raw_wall_s": [rep.rec.raw_wall_ns / 1e9 for rep in reps],
        "rep_slowdown": [rep.rec.slowdown for rep in reps],
        "rep_raw_frames_ns": [rep.rec.raw_frames for rep in reps],
        "rep_calibration": [rep.rec.calibration for rep in reps],
        "rep_setup_s": [rep.setup_ns / 1e9 for rep in reps],
        "failures": failures,
        "sample_counts": counts,
        "deterministic": first,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        },
    }
