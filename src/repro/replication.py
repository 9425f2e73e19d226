"""Replication core: the post-state op format, its fold, the replicated log.

Shard failover (:mod:`repro.cluster.failover`) and cross-region
replication (:mod:`repro.geo.replication`) run one log-shipping protocol;
this module is the single owner of its three decisions:

* **the op format** — every logged mutation is an *absolute post-state*
  (entity value, product record, stock level after a committed purchase),
  never the request, so replay is idempotent and cannot re-execute a
  purchase (:func:`entity_op` … :func:`stock_op`) — and so a writer may
  log what *changed* rather than what *happened*: a purchase call commits
  once and logs one ``stock`` op per product it sold
  (:meth:`MetaversePlatform.process_purchases`);
* **the record** — a log entry is one *record*: the ops one call
  committed for one owner, in commit order, encoded once as one compact
  sorted-key JSON list (:meth:`ReplicatedLog.append`, :func:`decode`).
  One record is one LSN, one CRC frame, one ship and one hint, and a torn
  tail drops a whole record — one call's ops for one owner land in a log
  all or none;
* **the fold** — :func:`fold` reduces records *in LSN order*, whatever
  order they were delivered in, and each record's ops in commit order,
  to each key's post-state and the LSN of the record that last spoke
  about it; :func:`apply` lands that on shards behind a per-key
  applied-LSN guard; :func:`compact_entries` drops the records the fold
  would never look at;
* **the replicated log** — :class:`ReplicatedLog`: one owner's primary
  WAL, copies adopting its LSNs verbatim, hint buffers, set-digest
  compare-and-rebuild (:func:`set_digest`), one compaction trigger.

Who holds the copies, how entries travel (inside a cluster an up holder
is offered a dropped ship again) and which log is authoritative on repair
are policies and stay with the two replicators.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable

from .core.errors import KeyNotFoundError
from .storage.wal import WalEntry, WriteAheadLog

# -- the op format -------------------------------------------------------------


def entity_op(key: str, value) -> dict:
    """``key`` now holds the stored entity ``value``."""
    return {"op": "entity", "k": key, "v": value}


def drop_entity_op(key: str) -> dict:
    """``key`` no longer holds an entity."""
    return {"op": "drop_entity", "k": key}


def product_op(key: str, value: dict) -> dict:
    """``key`` now holds the full product record ``value``."""
    return {"op": "product", "k": key, "v": value}


def drop_product_op(key: str) -> dict:
    """``key`` no longer holds a product."""
    return {"op": "drop_product", "k": key}


def stock_op(key: str, stock: int) -> dict:
    """Product ``key``'s stock field is now ``stock`` (other fields kept)."""
    return {"op": "stock", "k": key, "stock": int(stock)}


# One bound encoder for every record (``json.dumps`` builds one per call).
# Sorted keys make equal ops equal bytes, hence equal digest terms; the
# compact separators keep a many-op record from paying ", " and ": " per
# op — with the default ones a record log wrote more WAL and WAN bytes
# than the one-op-per-entry log it replaced.
_encode_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def decode(payload: bytes) -> list[dict]:
    """The ops of one record, in commit order."""
    return json.loads(payload.decode("utf-8"))


# -- the fold ------------------------------------------------------------------

#: Post-state of an entity whose last logged op dropped it.
DROPPED = object()


class PostState:
    """What a set of log entries says each key holds now.

    ``entities[key]``: the stored value or :data:`DROPPED`;
    ``products[key]``: the record with any newer stock level set on it
    (``None`` = dropped); ``partial``: product keys with only a stock level
    in sight (a hole hides the record); ``lsn[key]``: the highest LSN that
    spoke about the key, which :func:`apply` guards on.
    """

    def __init__(self) -> None:
        self.entities: dict[str, object] = {}
        self.products: dict[str, dict | None] = {}
        self.partial: set[str] = set()
        self.lsn: dict[str, int] = {}

    def entity(self, key: str):
        """Entity value of ``key`` (``None`` if absent or dropped)."""
        value = self.entities.get(key)
        return None if value is DROPPED else value

    def stock_of(self, key: str) -> int | None:
        """Stock level of product ``key`` (``None`` if unknown/dropped)."""
        record = self.products.get(key)
        return None if record is None else int(record.get("stock", 0))


def _walk(entries: Iterable[WalEntry], keys=None, records: dict[int, list] | None = None):
    """Walk ``entries`` in LSN order, each record's ops in commit order —
    the one place that knows what each op kind means and which op
    supersedes which:

    * entity family (``entity``/``drop_entity``): later ops replace
      wholesale, so only the last op per key counts;
    * product family (``product``/``drop_product``): same, and the last
      one also supersedes any *earlier* ``stock`` op;
    * ``stock``: sets only the stock field, so the last stock op counts
      alongside (not folded into) the last product op when it is newer.

    Every op of a record speaks at the record's LSN.  Hinted handoff can
    append old LSNs after newer ones, hence the sort.  Returns the
    :class:`PostState` and the records it rests on: the record holding
    each key's last op per family as three ``key -> entry`` maps, then the
    records holding an op of an unknown kind.

    ``records`` (LSN -> decoded ops) lets walks over copies of *one* log —
    equal LSN, equal payload — decode each record once between them.  The
    state aliases the decoded ops (a stock op writes into its product's
    record), so only a caller that discards the state may share one.
    """
    state = PostState()
    entities, products, partial, lsns = (
        state.entities, state.products, state.partial, state.lsn
    )
    entity: dict[str, WalEntry] = {}
    product: dict[str, WalEntry] = {}
    stock: dict[str, WalEntry] = {}
    unknown: list[WalEntry] = []
    for entry in sorted(entries, key=lambda entry: entry.lsn):
        lsn = entry.lsn
        if records is None:
            ops = decode(entry.payload)
        else:
            ops = records.get(lsn)
            if ops is None:
                ops = records[lsn] = decode(entry.payload)
        for op in ops:
            key = op.get("k")
            if keys is not None and key not in keys:
                continue
            kind = op.get("op")
            if kind in ("entity", "drop_entity"):
                entities[key] = op["v"] if kind == "entity" else DROPPED
                entity[key] = entry
            elif kind in ("product", "drop_product"):
                products[key] = op["v"] if kind == "product" else None
                partial.discard(key)
                product[key] = entry
                stock.pop(key, None)  # older stock level: superseded
            elif kind == "stock":
                record = products.get(key)
                if record is None:
                    record = products[key] = {}
                    if key not in product:
                        partial.add(key)
                record["stock"] = int(op["stock"])
                stock[key] = entry
            else:
                unknown.append(entry)
                continue
            lsns[key] = lsn  # ascending walk: the last is the highest
    return state, entity, product, stock, unknown


def fold(entries: Iterable[WalEntry], keys=None) -> PostState:
    """Per-key post-state of ``entries`` (restricted to ``keys`` if given);
    the same for any permutation, duplication or late (hinted) delivery of
    one owner's records, because the walk is in LSN order — and the same
    post-states as a log holding each of those ops alone, in order."""
    return _walk(entries, keys)[0]


def compact_entries(
    entries: Iterable[WalEntry], records: dict[int, list] | None = None
) -> list[WalEntry]:
    """Drop the records :func:`fold` does not rest on.

    A record goes only when *later records in this same copy* supersede
    every op in it, so the fold of the LSN-union is unchanged for any
    interleaving with other copies' records.  A record that keeps one
    live op is kept *whole*, and survivors stay *verbatim at their
    original LSNs*: a stripped record would leave two copies holding
    different payloads at one LSN, which set-digest anti-entropy would
    rebuild forever, and a synthesized full record could claim non-stock
    fields at an LSN newer than another copy's genuine ``product`` op that
    this copy missed (a replication hole), corrupting the union.  Records
    holding unknown kinds are kept.  ``records`` is :func:`_walk`'s decode
    memo, for compacting several copies of one log in a row.
    """
    _, entity, product, stock, unknown = _walk(entries, records=records)
    kept = {
        entry.lsn: entry
        for entry in (*unknown, *entity.values(), *product.values(), *stock.values())
    }
    return [kept[lsn] for lsn in sorted(kept)]


def apply(
    state: PostState, applied: dict[str, int], shard_of: Callable
) -> list[str]:
    """Land ``state`` on the shards ``shard_of(key)`` names; return the
    keys landed.

    ``applied`` (key -> highest LSN already landed on this replica state)
    is updated in place.  A key whose folded LSN is *older* is skipped:
    post-states are only safe to land in LSN order, and transport can
    reorder.  An *equal* LSN lands again on purpose — re-folding a
    repaired log reaches the same LSN with fields a hole had hidden.  A
    key whose ``shard_of`` is ``None`` is recorded but not landed.  The
    entity values bound for one shard land in one ``import_entities``
    call and its product records in one ``import_products`` call, after
    the walk: one MVCC commit per shard, not per product.
    """
    landed: list[str] = []
    entities: dict[object, list] = {}  # shard -> its (key, value) items
    products: dict[object, list] = {}  # shard -> its (key, record) items
    for key, lsn in state.lsn.items():
        if lsn < applied.get(key, 0):
            continue
        applied[key] = lsn
        shard = shard_of(key)
        if shard is None:
            continue
        if key in state.entities:
            value = state.entities[key]
            if value is DROPPED:
                _drop(shard.drop_entity, key)
            else:
                entities.setdefault(shard, []).append((key, value))
        if key in state.products:
            record = state.products[key]
            if record is None:
                _drop(shard.drop_product, key)
            else:
                if key in state.partial:  # keep the shard's other fields
                    record = {**(shard.committed_product(key) or {}), **record}
                products.setdefault(shard, []).append((key, record))
        landed.append(key)
    for shard, items in entities.items():
        shard.import_entities(items)
    for shard, items in products.items():
        shard.import_products(items)
    return landed


def _drop(drop: Callable, key: str) -> None:
    try:
        drop(key)
    except KeyNotFoundError:
        pass  # the shard never held it


# -- the replicated log --------------------------------------------------------


#: A log's identity: ``(entries, sum of their hashes mod 2**256)``.
SetDigest = tuple[int, int]

_DIGEST_MOD = 1 << 256


def set_digest(entries: Iterable[WalEntry], onto: SetDigest = (0, 0)) -> SetDigest:
    """Order-insensitive digest of a log: the entry count and the sum,
    mod 2**256, of ``SHA-256(b"<lsn>:" + payload)`` over ``entries``.

    Two logs holding the same entries in any append order have equal
    digests; a dropped, extra, duplicated or altered entry moves the count
    or the sum (addition, not XOR: a duplicate does not cancel itself).
    ``onto`` continues a digest over the entries a log has gained —
    ``set_digest(b, set_digest(a)) == set_digest(a + b)``.

    It is an integrity comparison between one operator's replicas, one
    level above the WAL's per-entry CRC-32 — not an authenticator: anyone
    who can write a copy can also forge a matching sum.
    """
    count, total = onto
    sha256 = hashlib.sha256
    for entry in entries:
        leaf = sha256(b"%d:" % entry.lsn + entry.payload).digest()
        total += int.from_bytes(leaf, "big")
        count += 1
    return count, total % _DIGEST_MOD


class ReplicatedLog:
    """One owner's primary log and its named, LSN-adopting copies.

    Each entry is one record (:meth:`append`).  The primary assigns LSNs;
    a copy adopts them verbatim, so a copy that missed a message carries a
    visible LSN hole rather than silently renumbering, and the union
    across copies is well defined.  Records bound for a holder that cannot
    take them now wait, in ship order, in its hint buffer.

    Each log has one cached :func:`set_digest`, caught up with its valid
    prefix only when :meth:`repair` compares it — never per append — and
    started afresh when the log's body is replaced (:meth:`tear`,
    :meth:`rebuild`).  Copies append in arrival order, so *converged* means
    holding the same entries, not holding them in the same order.
    """

    def __init__(self, owner: str, holders: Iterable[str]) -> None:
        self.owner = owner
        #: Names of the copies (the owner's primary excluded).
        self.holders = tuple(holders)
        self._logs = {name: WriteAheadLog() for name in (owner, *self.holders)}
        self._digests: dict[str, SetDigest] = {name: (0, 0) for name in self._logs}
        self._hints: dict[str, list[tuple[int, bytes]]] = {
            name: [] for name in self.holders
        }
        #: Intact primary entries, kept in step with every primary
        #: mutation so the compaction trigger never scans the log.  The
        #: WAL's incremental ``entry_count`` would still checksum each new
        #: entry on every tick: measured +1.1 % ``wall_s`` on ``flash_sale``.
        self.primary_count = 0
        self._compacted_count = 0  # primary_count after the last compaction

    def append(self, ops: list[dict]) -> tuple[int, bytes]:
        """Log ``ops`` — what one call committed for this owner, in
        commit order — on the primary as one record; return
        ``(lsn, payload)`` to ship."""
        payload = _encode_json(ops).encode("utf-8")
        lsn = self._logs[self.owner].append(payload)
        self.primary_count += 1
        return lsn, payload

    def adopt(self, holder: str, lsn: int, payload: bytes) -> None:
        """``holder``'s copy takes one shipped record at the primary's LSN."""
        self._logs[holder].append_at(lsn, payload)

    def buffer_hints(self, holder: str, entries: list[tuple[int, bytes]]) -> None:
        self._hints[holder].extend(entries)

    def has_hints(self, holder: str) -> bool:
        return bool(self._hints[holder])

    def take_hints(self, holder: str) -> list[tuple[int, bytes]]:
        """Drain ``holder``'s hint buffer, in ship order."""
        hints = self._hints[holder]
        self._hints[holder] = []
        return hints

    def entries(self, name: str) -> list[WalEntry]:
        """Valid prefix of ``name``'s log (the owner names the primary)."""
        return self._logs[name].entries_from(0)

    def _digest(self, name: str) -> SetDigest:
        """:func:`set_digest` of ``name``'s valid prefix, hashing only
        what the log has gained since the last call."""
        digest = self._digests[name]
        gained = self._logs[name].entries_from(digest[0])
        digest = self._digests[name] = set_digest(gained, digest)
        return digest

    def union(self) -> list[WalEntry]:
        """LSN-union of every log's valid prefix, sorted by LSN: tolerates
        torn tails and per-copy holes (another copy fills them); an LSN no
        log holds is genuinely lost and simply absent."""
        merged: dict[int, WalEntry] = {}
        for name in self._logs:
            for entry in self.entries(name):
                merged.setdefault(entry.lsn, entry)
        return [merged[lsn] for lsn in sorted(merged)]

    def tear(self, nbytes: int) -> None:
        """Tear the primary's tail (crash mid-write)."""
        primary = self._logs[self.owner]
        primary.corrupt_tail(nbytes)
        self.primary_count = primary.entry_count
        self._digests[self.owner] = (0, 0)

    def rebuild(self, name: str, entries: list[WalEntry]) -> None:
        """Replace ``name``'s log body with ``entries``."""
        self._logs[name].rebuild(entries)
        self._digests[name] = (0, 0)
        if name == self.owner:
            self.primary_count = len(entries)

    def repair(
        self, names: Iterable[str], authority: str | None = None
    ) -> dict[str, list[WalEntry]]:
        """One anti-entropy round: rebuild each named log whose
        :func:`set_digest` disagrees with the authority's; return, per
        rebuilt log, the authority entries it had lacked.

        ``authority`` names the log that is the truth (``None``: none is,
        the LSN-union stands in).  A log that agrees — in whatever order
        it holds the entries — costs a comparison of cached digests;
        entries are materialised only for one that does not.
        """
        if authority is None:
            truth = self.union()
            target = set_digest(truth)
        else:
            truth = None
            target = self._digest(authority)
        lacked: dict[str, list[WalEntry]] = {}
        for name in names:
            if self._digest(name) == target:
                continue
            if truth is None:
                truth = self.entries(authority)
            held = {entry.lsn for entry in self.entries(name)}
            lacked[name] = [e for e in truth if e.lsn not in held]
            self.rebuild(name, truth)
            self._digests[name] = target  # same entries: no re-hashing
        return lacked

    def compact_due(self, threshold: int | None) -> bool:
        """True when the primary has outgrown both ``threshold`` and twice
        its post-compaction size — the latter keeps an owner whose *live*
        key set exceeds the threshold from rewriting its whole log every
        tick for no reduction (and compaction amortized O(n))."""
        if threshold is None:
            return False
        return self.primary_count > max(threshold, 2 * self._compacted_count)

    def compact(self, skip: Iterable[str] = ()) -> dict[str, int]:
        """Compact every log not in ``skip`` in place; return the entries
        removed per log.  Each is compacted independently — a copy with
        holes may keep a record the primary dropped; the union fold is
        unchanged and the next anti-entropy round reconciles."""
        removed: dict[str, int] = {}
        records: dict[int, list] = {}  # the copies hold the same records: decode once
        for name in self._logs:
            if name in skip:
                continue
            entries = self.entries(name)
            kept = compact_entries(entries, records)
            removed[name] = len(entries) - len(kept)
            if removed[name]:
                self.rebuild(name, kept)
        self._compacted_count = self.primary_count
        return removed
