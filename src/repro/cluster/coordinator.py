"""Cross-shard purchases: 2PC over platform shards, run at a participant.

A flash-sale basket can touch products owned by different shards; the
paper notes such cross-partition transactions are "hard to process at
scale" — they pay message rounds over the network.  Rather than invent a
new protocol, the cluster binds the 2PC driver from
:mod:`repro.txn.twopc` to the platform's stock-commit core: a
:class:`ShardParticipant`'s stage hook is the shard's ``stage_basket``
(phase 1's vote is whether it staged), its apply hook the shard's
``commit_basket``, its release hook an abort of the staged transaction.
Each round runs at the basket's first shard in name order, its *home*:
the home prepares and decides by local calls, the other shards over
:class:`~repro.net.simnet.SimulatedNetwork`, and aborts are presumed
(never acked).  A commit is still acked, so a committed basket is on
every shard's engine, log and replica when the round returns.  There is
no coordinator node: the network holds one node per shard, and a
coordinator's failure is its shard's failure.  All this module adds is
the replay of a decided basket whose staged snapshot a local commit (a
purchase call's, a basket's) overtook.
"""

from __future__ import annotations

from ..core.clock import EventScheduler, SimulationClock
from ..core.errors import WriteConflictError
from ..core.metrics import MetricsRegistry
from ..net.simnet import SimulatedNetwork
from ..obs.tracing import NoopTracer, Tracer
from ..platform.platform import MetaversePlatform
from ..txn.twopc import Coordinator, DistributedTxn, Participant, TxnOutcome


class ShardParticipant(Participant):
    """A 2PC participant whose resource manager is a platform shard.

    The staged resource is the live MVCC transaction ``stage_basket``
    opened (holding the decremented stock values) plus the quantities, in
    case the commit has to be replayed; the vote is whether it staged.
    """

    def __init__(
        self, network: SimulatedNetwork, name: str, shard: MetaversePlatform
    ) -> None:
        super().__init__(network, name)
        self.shard = shard

    def _stage(self, txn_id: int, writes: dict) -> bool:
        txn, _, _ = self.shard.stage_basket(writes)
        if txn is None:
            return False
        self._staged[txn_id] = (txn, writes)
        return True

    def _apply(self, txn_id: int, staged) -> None:
        txn, quantities = staged
        try:
            self.shard.commit_basket(txn)
        except WriteConflictError:
            # A local commit slipped in between prepare and commit (only
            # possible when the caller interleaves shard work with an open
            # 2PC round).  The global decision is already COMMIT, so
            # re-apply the decrement against fresh state rather than
            # losing the basket.
            self.shard.metrics.counter("cluster.twopc.commit_replays").inc()
            replay = self.shard.txn.begin()
            for product_id, quantity in quantities.items():
                product = dict(replay.read_or(product_id, {"stock": 0}))
                product["stock"] = product.get("stock", 0) - quantity
                replay.write(product_id, product)
            self.shard.commit_basket(replay)

    def _release(self, txn_id: int, staged) -> None:
        txn, _ = staged
        self.shard.txn.abort(txn)


class CrossShardCoordinator:
    """Runs baskets spanning shards through 2PC, each round at its home."""

    def __init__(
        self,
        shards: dict[str, MetaversePlatform],
        clock: SimulationClock | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NoopTracer()
        self.scheduler = EventScheduler(clock)
        self.network = SimulatedNetwork(self.scheduler, metrics=self.metrics)
        self.coordinator = Coordinator(self.network, name=None)
        self.participants: dict[str, ShardParticipant] = {}
        self._outcomes = {
            True: self.metrics.counter("cluster.twopc.committed"),
            False: self.metrics.counter("cluster.twopc.aborted"),
        }
        self._latency = self.metrics.histogram("cluster.twopc.latency_s")
        for name, shard in shards.items():
            self.attach_shard(name, shard)

    def attach_shard(self, name: str, shard: MetaversePlatform) -> None:
        """(Re-)bind ``name`` to a participant over ``shard``.

        Re-attaching after a failover promotion replaces the crashed
        participant's network endpoint, so a promoted replica answers 2PC
        rounds under the same name.
        """
        if name in self.participants:
            self.network.remove_node(name)
        self.participants[name] = ShardParticipant(self.network, name, shard)

    def detach_shard(self, name: str) -> None:
        self.participants.pop(name, None)
        self.network.remove_node(name)

    def execute(self, quantities_by_shard: dict[str, dict[str, int]]) -> TxnOutcome:
        """Run one basket ({shard: {product: quantity}}) to a decision at
        its first shard in name order."""
        with self.tracer.span(
            "cluster.twopc", shards=len(quantities_by_shard)
        ):
            outcome = self.coordinator.execute(
                DistributedTxn(writes_by_participant=dict(quantities_by_shard)),
                at=self.participants[min(quantities_by_shard)],
            )
        self._outcomes[outcome.committed].inc()
        self._latency.observe(outcome.total_latency)
        return outcome
