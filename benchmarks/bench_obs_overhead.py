"""E22: tracing overhead on the flash-sale hot path (repro.obs).

Claim: observability must be affordable — the no-op tracer (the default
every component constructs) adds no measurable overhead to the purchase
pipeline, and the always-on tracing configuration (head sampling, one
purchase trace in SAMPLE_EVERY) stays under 12%.  Full recording
(``sample_every=1``) is also reported: it is the debugging configuration
and pays the whole per-span recording cost on every purchase.

Shape: wall-clock of ``process_purchases`` under {noop, sampled, full}
tracers (reported), plus the raw cost of a no-op span site and of a
purchase call's sampling boundary under each tracer (gated).

The sampled configuration adds exactly one thing per purchase: its share
of the call's one ``sampled_spans`` boundary, which decides every
request's sampling at once and records a span for one request in
``SAMPLE_EVERY`` (a purchase opens no child span, and the call's root
and commit spans are paid once per call).  So the gate times that
boundary directly, per purchase, and bounds what it costs above the
no-op tracer's in no-op span sites measured in the same run: the unit
follows the machine and stays put as the path around it gets faster
(the no-op boundary itself is a fraction of a nanosecond a purchase,
so it cannot be the unit).  Two whole-path medians 2-3 ms apart are not
gated: their difference is as wide as the noise.
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


#: Requests in one timed purchase call: about one shard's share of a
#: macrobench ``flash_sale`` frame (~1,000 requests over four shards).
CALL_REQUESTS = 250


def boundary_cost(tracer, calls=4_000):
    """Per-purchase cost (seconds) of the ``platform.purchase`` sampling
    boundary under ``tracer``: one ``sampled_spans`` call per purchase
    call of :data:`CALL_REQUESTS` requests, inside a root span as
    ``process_purchases`` opens it."""
    with tracer.span("platform.process_purchases"):
        start = time.perf_counter()
        for _ in range(calls):
            tracer.sampled_spans("platform.purchase", CALL_REQUESTS)
        return (time.perf_counter() - start) / (calls * CALL_REQUESTS)


def boundary_overhead(rounds=5):
    """The no-op and the sampled boundary's cost a purchase, and the
    no-op span site's cost, each the best of ``rounds`` interleaved
    timings; the first two are also returned in no-op span sites."""
    noop, sampled, site = [], [], []
    for _ in range(rounds):
        site.append(noop_span_cost(50_000))
        noop.append(boundary_cost(NoopTracer()))
        sampled.append(boundary_cost(
            Tracer(max_spans=100_000, sample_every=SAMPLE_EVERY)
        ))
    unit = min(site)
    return {
        "noop_boundary_s": min(noop),
        "sampled_boundary_s": min(sampled),
        "boundary_overhead": (min(sampled) - min(noop)) / unit,
        "noop_boundary_sites": min(noop) / unit,
    }


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
#: boundary, in no-op span sites.  Measured on a 2-core Intel Xeon
#: machine under CPython 3.11: a no-op span site costs 230-300 ns, the
#: sampled boundary 17-37 ns a purchase (0.07-0.14 sites) and the no-op
#: one 0.2-0.4 ns.  So 0.35 sites are 80-105 ns a purchase, under 12 % of
#: the ~950 ns a purchase costs on this experiment's path (1.9 ms for
#: 2,000 requests), the bound the claim states; the bound before the
#: boundary became one call per purchase call allowed 183-199 ns.  A
#: boundary three times as costly fails, and so does one boundary per
#: request again (about 0.5 sites).
BOUNDARY_BOUND = 0.35

#: What the no-op boundary may cost per purchase, in no-op span sites: a
#: disabled tracer decides a call's sampling in one call, so a purchase
#: pays a fraction of a nanosecond.  A boundary per request again costs
#: one site a purchase and fails.
NOOP_BOUNDARY_BOUND = 0.05


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
        boundary = boundary_overhead()
        if ("boundary_overhead" not in out
                or boundary["boundary_overhead"] < out["boundary_overhead"]):
            out.update(boundary)
        if (out["boundary_overhead"] < BOUNDARY_BOUND
                and out["noop_boundary_sites"] < NOOP_BOUNDARY_BOUND):
            break
    out["noop_span_cost_s"] = noop_span_cost()
    return out


def check_overhead_bounds(out):
    """The acceptance bounds this experiment asserts.

    * enabled tracing (the always-on sampled configuration): its
      boundary costs a purchase under BOUNDARY_BOUND no-op span sites
      more than the no-op tracer's, i.e. well under 12% of the
      flash-sale path;
    * disabled tracing: the boundary costs a purchase under
      NOOP_BOUNDARY_BOUND no-op span sites, and a span site costs well
      under a microsecond, i.e. ~0% at the path's span density (a
      handful of sites per purchase).
    """
    assert out["boundary_overhead"] < BOUNDARY_BOUND, (
        f"sampled boundary costs {out['boundary_overhead']:.2f} no-op "
        f"span sites a purchase more than the no-op tracer's "
        f"(bound {BOUNDARY_BOUND})"
    )
    assert out["noop_boundary_sites"] < NOOP_BOUNDARY_BOUND, (
        f"no-op boundary costs {out['noop_boundary_sites']:.3f} no-op span "
        f"sites a purchase (bound {NOOP_BOUNDARY_BOUND})"
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
    print(f"boundary a purchase ({CALL_REQUESTS} a call): no-op "
          f"{out['noop_boundary_s'] * 1e9:.2f} ns, sampled "
          f"{out['sampled_boundary_s'] * 1e9:.1f} ns "
          f"(+{out['boundary_overhead']:.2f} no-op span sites)", file=file)
    check_overhead_bounds(out)
    print(f"bounds ok: sampled boundary < +{BOUNDARY_BOUND} no-op span sites "
          f"(< 12% of the path), no-op boundary < {NOOP_BOUNDARY_BOUND} "
          f"sites, disabled ~0%", file=file)


if __name__ == "__main__":
    report()
