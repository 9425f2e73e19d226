"""Deterministic fault injection (paper Sec. IV; Ismail & Buyya's
fault-tolerance requirement for realtime virtual worlds).

A metaverse platform must keep serving under sensor dropout, network
partitions, and node failures.  Before this module, faults existed only in
tests; here they become a first-class, *seeded* input to the system itself:
a :class:`FaultPlan` declares which instrumented sites misbehave (and how
often, and when), and a :class:`FaultInjector` turns the plan into
per-operation decisions drawn from a private ``random.Random(seed)`` — the
same seed and call sequence always produce the same faults, so chaos runs
are exactly reproducible.

Instrumented sites (components consult the injector at these points):

========================  =========================================
site                      component
========================  =========================================
``net.link``              :class:`~repro.net.simnet.SimulatedNetwork`
``kv.get`` / ``kv.put``   :class:`~repro.storage.kv.KVStore`
``wal.append``            :class:`~repro.storage.wal.WriteAheadLog`
``broker.publish``        :class:`~repro.net.pubsub.Broker`
``gateway.ingest``        :class:`~repro.platform.gateway.DeviceGateway`
``cluster.ingest``        :class:`~repro.cluster.cluster.PlatformCluster`
``cluster.query``         :class:`~repro.cluster.cluster.PlatformCluster`
``cluster.replicate``     :class:`~repro.cluster.failover.ShardReplicator`, per segment
``storage.rpc``           :class:`~repro.storage.engine.RemoteStorageEngine`
``geo.wan``               :class:`~repro.geo.deployment.GeoDeployment`
========================  =========================================

Fault kinds: ``crash`` (the site raises
:class:`~repro.core.errors.FaultInjectedError`), ``delay`` (extra latency),
``drop`` (the operation is silently discarded), ``corrupt`` (the payload is
damaged in a checksum-detectable way), and ``partition`` (the link behaves
as severed for this send).  Every injected fault is counted in the metrics
registry and logged through the tracer, so recovery dashboards can plot
fault rate against recovered-request rate (experiment E23).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from ..core.clock import SimulationClock
from ..core.errors import ConfigurationError, FaultInjectedError
from ..core.metrics import MetricsRegistry
from ..obs.tracing import NoopTracer, Tracer

FAULT_KINDS = ("crash", "delay", "drop", "corrupt", "partition")

#: The canonical fault kind injected per site by :meth:`FaultPlan.uniform`.
DEFAULT_SITE_KINDS: dict[str, str] = {
    "net.link": "drop",
    "kv.get": "crash",
    "kv.put": "crash",
    "wal.append": "corrupt",
    "broker.publish": "crash",
    "gateway.ingest": "drop",
    "cluster.ingest": "drop",
    "cluster.query": "crash",
    "cluster.replicate": "drop",
    "storage.rpc": "crash",
    "geo.wan": "drop",
}


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: *at this site, with this probability, do this*.

    ``site`` supports the same ``prefix.*`` wildcard as pub/sub topics, so
    ``kv.*`` covers both ``kv.get`` and ``kv.put``.  ``target`` optionally
    narrows the rule to one link (``"a->b"``), key, or topic.  ``start``
    and ``end`` bound the active window in simulated seconds, which lets a
    plan model a transient outage rather than a permanent failure rate.
    """

    site: str
    kind: str
    rate: float
    delay_s: float = 0.0
    start: float = 0.0
    end: float = math.inf
    target: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.delay_s < 0:
            raise ConfigurationError("delay_s must be >= 0")
        if self.start > self.end:
            raise ConfigurationError("fault window start must not exceed end")

    def matches_site(self, site: str) -> bool:
        if self.site == "*" or self.site == site:
            return True
        if self.site.endswith(".*"):
            return site.startswith(self.site[:-1])
        return False

    def applies(self, site: str, target: str | None, now: float) -> bool:
        if not self.start <= now <= self.end:
            return False
        if self.target is not None and target != self.target:
            return False
        return self.matches_site(site)


@dataclass(frozen=True)
class FaultDecision:
    """The injector's verdict for one operation (``kind=None`` = proceed)."""

    kind: str | None = None
    delay_s: float = 0.0
    rule: FaultRule | None = None

    @property
    def faulted(self) -> bool:
        return self.kind is not None


NO_FAULT = FaultDecision()


@dataclass
class FaultPlan:
    """A seeded collection of :class:`FaultRule`.

    The seed belongs to the plan (not the injector) so that a plan fully
    describes a chaos scenario: plan + call sequence = fault sequence.
    """

    rules: list[FaultRule] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self.rules = list(self.rules)

    @classmethod
    def uniform(
        cls,
        rate: float,
        sites: Iterable[str] | None = None,
        seed: int = 0,
        delay_s: float = 0.005,
    ) -> "FaultPlan":
        """Each listed site faults independently at ``rate``, using that
        site's canonical kind (see :data:`DEFAULT_SITE_KINDS`)."""
        chosen = list(sites) if sites is not None else list(DEFAULT_SITE_KINDS)
        rules = []
        for site in chosen:
            kind = DEFAULT_SITE_KINDS.get(site, "crash")
            rules.append(FaultRule(site=site, kind=kind, rate=rate, delay_s=delay_s))
        return cls(rules=rules, seed=seed)

    def rules_for(self, site: str) -> tuple[FaultRule, ...]:
        return tuple(rule for rule in self.rules if rule.matches_site(site))


class FaultInjector:
    """Turns a :class:`FaultPlan` into deterministic per-operation decisions.

    Components call :meth:`decide` at their instrumented site, passing the
    fault ``kinds`` they know how to act on; rules of other kinds never
    fire there, so a plan cannot silently inject a fault the component
    would ignore.  One RNG draw is consumed per applicable rule per call,
    which keeps the fault sequence a pure function of (plan, call order).
    """

    def __init__(
        self,
        plan: FaultPlan,
        clock: SimulationClock | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.plan = plan
        self.clock = clock if clock is not None else SimulationClock()
        # Adoption flags mirror DeviceGateway.tracer_injected: a platform
        # adopts an injector's default registry/tracer into its own, so
        # fault counters land where the rest of the pipeline's metrics do.
        self.metrics_injected = metrics is not None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer_injected = tracer is not None
        self.tracer = tracer if tracer is not None else NoopTracer()
        self._rng = random.Random(plan.seed)
        self._site_rules: dict[str, tuple[FaultRule, ...]] = {}
        self.injected = 0

    def _rules_for(self, site: str) -> tuple[FaultRule, ...]:
        cached = self._site_rules.get(site)
        if cached is None:
            cached = self.plan.rules_for(site)
            self._site_rules[site] = cached
        return cached

    def decide(
        self,
        site: str,
        target: str | None = None,
        kinds: tuple[str, ...] = FAULT_KINDS,
    ) -> FaultDecision:
        """Return the fault (if any) to inject for one operation at ``site``."""
        rules = self._rules_for(site)
        if not rules:
            return NO_FAULT
        now = self.clock.now
        for rule in rules:
            if rule.kind not in kinds or not rule.applies(site, target, now):
                continue
            if self._rng.random() < rule.rate:
                self._record(site, rule)
                return FaultDecision(kind=rule.kind, delay_s=rule.delay_s, rule=rule)
        return NO_FAULT

    def maybe_crash(self, site: str, target: str | None = None) -> None:
        """Shorthand for sites whose only supported fault is ``crash``."""
        if self.decide(site, target, kinds=("crash",)).faulted:
            raise FaultInjectedError(f"injected crash at {site}" + (
                f" ({target})" if target else ""
            ))

    def _record(self, site: str, rule: FaultRule) -> None:
        self.injected += 1
        self.metrics.counter("faults.injected").inc()
        self.metrics.counter(f"faults.injected.{rule.kind}").inc()
        self.metrics.counter(f"faults.site.{site}").inc()
        self.tracer.log("warn", "fault injected", site=site, kind=rule.kind)

    def __repr__(self) -> str:
        return (
            f"FaultInjector(rules={len(self.plan.rules)}, seed={self.plan.seed}, "
            f"injected={self.injected})"
        )
