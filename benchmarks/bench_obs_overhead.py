"""E22: tracing overhead on the flash-sale hot path (repro.obs).

Claim: observability must be affordable — the no-op tracer (the default
every component constructs) adds no measurable overhead to the purchase
pipeline, and the always-on tracing configuration (head sampling, one
purchase trace in SAMPLE_EVERY) stays under 12%.  Full recording
(``sample_every=1``) is also reported: it is the debugging configuration
and pays the whole per-span recording cost on every purchase.

Shape: wall-clock of ``process_purchases`` under {noop, sampled, full}
tracers (reported), plus the raw cost of a no-op span site and of one
purchase's sampling boundary under each tracer (gated).

The sampled configuration adds exactly one thing per purchase: its
``sampled_span`` boundary (a purchase opens no child span, and the
call's root and commit spans are paid once per call).  So the gate
times that boundary directly, like the no-op site, and bounds what it
costs above the no-op tracer's boundary in units of that no-op
boundary, measured in the same run: the bound follows the machine and
does not tighten as the path around it gets faster.  Two whole-path
medians 2-3 ms apart are not gated: their difference is as wide as the
noise.
"""

import gc
import sys
import time

from repro.obs import NoopTracer, Tracer
from repro.platform import MetaversePlatform
from repro.workloads import FlashSaleConfig, MarketplaceWorkload

N_REQUESTS = 2000
ROUNDS = 13
SAMPLE_EVERY = 64  # the documented always-on configuration


def make_requests(n=N_REQUESTS, seed=3):
    workload = MarketplaceWorkload(
        FlashSaleConfig(
            n_products=64, initial_stock=10_000, zipf_skew=0.8,
            burst_rate=500.0, burst_start=0.0, burst_end=n / 500.0 + 1,
        ),
        seed=seed,
    )
    return workload, workload.requests_between(0.0, n / 500.0 + 1)[:n]


def time_flash_sale_once(tracer_factory, workload, requests):
    """Wall-clock of one purchase pipeline run under a fresh tracer."""
    platform = MetaversePlatform(n_executors=4, tracer=tracer_factory())
    platform.load_catalog(workload.catalog_records())
    gc.collect()  # keep the previous run's debris out of the timed region
    start = time.perf_counter()
    platform.process_purchases(requests)
    return time.perf_counter() - start


def time_flash_sale(factories, rounds=ROUNDS):
    """Per-config samples, rounds interleaved across configs.

    The workload is generated once and every round runs all configs
    back to back, so slow machine moments hit the configurations alike
    instead of biasing whichever one ran in that block; overheads are
    then computed from same-round pairs (see :func:`overhead_vs`).
    """
    workload, requests = make_requests()
    samples = {name: [] for name in factories}
    for _ in range(rounds):
        for name, factory in factories.items():
            samples[name].append(
                time_flash_sale_once(factory, workload, requests)
            )
    return samples


def noop_span_cost(iterations=200_000):
    """Per-call cost (seconds) of entering a no-op span site."""
    tracer = NoopTracer()
    start = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - start) / iterations


def boundary_cost(tracer, iterations=100_000):
    """Per-purchase cost (seconds) of the ``platform.purchase`` sampling
    boundary under ``tracer``: the site with an empty body, inside a
    root span as ``process_purchases`` opens it."""
    with tracer.span("platform.process_purchases"):
        start = time.perf_counter()
        for _ in range(iterations):
            with tracer.sampled_span("platform.purchase"):
                pass
        return (time.perf_counter() - start) / iterations


def boundary_overhead(rounds=5):
    """The sampled boundary's cost above the no-op boundary's, in no-op
    boundaries: best of ``rounds`` interleaved timings of each."""
    noop, sampled = [], []
    for _ in range(rounds):
        noop.append(boundary_cost(NoopTracer()))
        sampled.append(boundary_cost(
            Tracer(max_spans=100_000, sample_every=SAMPLE_EVERY)
        ))
    return min(sampled) / min(noop) - 1.0, min(noop)


def median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def overhead_vs(samples, name):
    """Noise-filtered overhead of ``name`` vs the noop baseline.

    Rounds are interleaved, so both sample sets see the same machine
    conditions; the ratio of medians discards the occasional round where
    a scheduler hiccup lands on one side, which single-pair ratios (and
    best-of comparisons) are hostage to.
    """
    return median(samples[name]) / median(samples["noop"]) - 1.0


#: What the sampled boundary may cost per purchase above the no-op
#: boundary, in no-op boundaries.  Measured on a 2-core Intel Xeon
#: machine under CPython 3.11: the no-op boundary costs 261-284 ns, the
#: sampled one 0.53-0.60 of that more, and a purchase 1,603-1,773 ns
#: under the no-op tracer, 6.0-6.7 no-op boundaries (8.0 while a call
#: made one stock check per request).  So 0.7 no-op boundaries are
#: 183-199 ns, under 12 % of that path, the bound the claim states.  A
#: boundary twice as costly reads well over 1 and fails.
BOUNDARY_BOUND = 0.7


def run_overhead(retries=1):
    """Measure the three tracers on the path (reported) and the sampled
    boundary (gated); re-measure the boundary once if it crosses its
    bound.  A real regression fails both measurements; a scheduler-noise
    spike on a shared machine fails at most one.
    """
    samples = time_flash_sale(
        {
            "noop": NoopTracer,
            "sampled": lambda: Tracer(max_spans=100_000, sample_every=SAMPLE_EVERY),
            "full": lambda: Tracer(max_spans=100_000),
        }
    )
    out = {
        "noop_s": min(samples["noop"]),
        "sampled_s": min(samples["sampled"]),
        "full_s": min(samples["full"]),
        "sampled_overhead": overhead_vs(samples, "sampled"),
        "full_overhead": overhead_vs(samples, "full"),
    }
    for _ in range(1 + retries):
        overhead, noop_boundary = boundary_overhead()
        if "boundary_overhead" not in out or overhead < out["boundary_overhead"]:
            out["boundary_overhead"] = overhead
            out["noop_boundary_s"] = noop_boundary
        if out["boundary_overhead"] < BOUNDARY_BOUND:
            break
    out["noop_span_cost_s"] = noop_span_cost()
    return out


def check_overhead_bounds(out):
    """The acceptance bounds this experiment asserts.

    * enabled tracing (the always-on sampled configuration): its one
      per-purchase boundary costs under BOUNDARY_BOUND no-op boundaries
      more than the no-op tracer's, i.e. under 12% of the flash-sale path;
    * disabled tracing: a span site costs well under a microsecond, i.e.
      ~0% at the path's span density (a handful of sites per purchase).
    """
    assert out["boundary_overhead"] < BOUNDARY_BOUND, (
        f"sampled boundary costs {out['boundary_overhead']:.2f} no-op "
        f"boundaries more than the no-op tracer's (bound {BOUNDARY_BOUND})"
    )
    assert out["noop_span_cost_s"] < 1e-6, (
        f"no-op span site costs {out['noop_span_cost_s'] * 1e9:.0f} ns"
    )


def test_e22_tracing_overhead_bounded(benchmark):
    out = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    check_overhead_bounds(out)


def report(file=sys.stdout):
    out = run_overhead()
    print("== E22: tracing overhead on the flash-sale path ==", file=file)
    print(f"{'tracer':>22} {'best wall-clock':>16} {'overhead':>10}", file=file)
    print(f"{'noop':>22} {out['noop_s'] * 1000:>13.1f} ms", file=file)
    print(f"{f'sampled 1/{SAMPLE_EVERY}':>22} {out['sampled_s'] * 1000:>13.1f} ms "
          f"{out['sampled_overhead']:>+9.1%}", file=file)
    print(f"{'full recording':>22} {out['full_s'] * 1000:>13.1f} ms "
          f"{out['full_overhead']:>+9.1%}", file=file)
    print(f"\nno-op span site: {out['noop_span_cost_s'] * 1e9:.0f} ns/call "
          f"(~0% at hot-path span density)", file=file)
    print(f"sampled boundary: +{out['boundary_overhead']:.2f} no-op boundaries "
          f"({out['noop_boundary_s'] * 1e9:.0f} ns) a purchase", file=file)
    check_overhead_bounds(out)
    print(f"bounds ok: sampled boundary < +{BOUNDARY_BOUND} no-op boundaries "
          f"(< 12% of the path), disabled ~0%", file=file)


if __name__ == "__main__":
    report()
