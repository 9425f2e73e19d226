"""Merkle tree with inclusion and consistency proofs (paper Sec. IV-D).

"The system may combine efficient cryptographic techniques, often found in
authenticated data structures such as the Merkle Tree, and transparency
logs."  This is an RFC-6962-style (Certificate Transparency) Merkle tree
over an append-only leaf sequence:

* :meth:`MerkleTree.root` — the tree head over the current leaves, read
  off an append-maintained frontier in O(log n);
* :meth:`MerkleTree.inclusion_proof` / :func:`verify_inclusion` — prove one
  leaf is covered by a head with an O(log n) audit path;
* :meth:`MerkleTree.consistency_proof` / :func:`verify_consistency` — prove
  a later head extends an earlier one (append-only-ness), also O(log n).

Leaf and node hashes are domain-separated (0x00 / 0x01 prefixes) to prevent
second-preimage splicing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..core.errors import LedgerError


def _leaf_hash(data: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + data).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def _root_of(hashes: list[bytes]) -> bytes:
    """RFC 6962 Merkle tree hash of a leaf-hash list."""
    if not hashes:
        return hashlib.sha256(b"").digest()
    if len(hashes) == 1:
        return hashes[0]
    k = _largest_power_of_two_below(len(hashes))
    return _node_hash(_root_of(hashes[:k]), _root_of(hashes[k:]))


def _largest_power_of_two_below(n: int) -> int:
    """Largest power of two strictly less than n (n >= 2)."""
    k = 1
    while k * 2 < n:
        k *= 2
    return k


@dataclass(frozen=True)
class InclusionProof:
    leaf_index: int
    tree_size: int
    audit_path: tuple[bytes, ...]

    @property
    def size_bytes(self) -> int:
        return sum(len(h) for h in self.audit_path)


@dataclass(frozen=True)
class ConsistencyProof:
    old_size: int
    new_size: int
    path: tuple[bytes, ...]

    @property
    def size_bytes(self) -> int:
        return sum(len(h) for h in self.path)


class MerkleTree:
    """Append-only Merkle tree over byte-string leaves.

    Besides the leaf hashes (proofs and historical heads need them) it
    keeps its *frontier*: the roots of the perfect subtrees the size
    splits into, largest first.  An append merges equal-sized neighbours
    (amortised one node hash) and the RFC-6962 head is the frontier's
    right-to-left fold, so the current head never re-hashes the interior.
    """

    def __init__(self) -> None:
        self._leaf_hashes: list[bytes] = []
        self._frontier: list[bytes] = []

    def __len__(self) -> int:
        return len(self._leaf_hashes)

    def append(self, data: bytes) -> int:
        """Append a leaf; returns its index."""
        if not isinstance(data, (bytes, bytearray)):
            raise LedgerError("leaf must be bytes")
        node = _leaf_hash(bytes(data))
        self._leaf_hashes.append(node)
        size = len(self._leaf_hashes)
        while size % 2 == 0:  # one merge per trailing zero bit of the size
            node = _node_hash(self._frontier.pop(), node)
            size //= 2
        self._frontier.append(node)
        return len(self._leaf_hashes) - 1

    def root(self, tree_size: int | None = None) -> bytes:
        """Tree head over the first ``tree_size`` leaves (default: all)."""
        size = len(self._leaf_hashes) if tree_size is None else tree_size
        if not 0 <= size <= len(self._leaf_hashes):
            raise LedgerError(f"invalid tree_size {size}")
        if size != len(self._leaf_hashes) or not size:
            return _root_of(self._leaf_hashes[:size])
        *lefts, node = self._frontier
        for left in reversed(lefts):
            node = _node_hash(left, node)
        return node

    # -- inclusion ------------------------------------------------------------

    def inclusion_proof(self, leaf_index: int, tree_size: int | None = None) -> InclusionProof:
        size = len(self._leaf_hashes) if tree_size is None else tree_size
        if not 0 <= leaf_index < size <= len(self._leaf_hashes):
            raise LedgerError(f"invalid leaf_index {leaf_index} for size {size}")
        path = self._audit_path(leaf_index, 0, size)
        return InclusionProof(leaf_index, size, tuple(path))

    def _audit_path(self, index: int, lo: int, hi: int) -> list[bytes]:
        """Audit path for leaf ``index`` within leaves [lo, hi)."""
        n = hi - lo
        if n <= 1:
            return []
        k = _largest_power_of_two_below(n)
        if index - lo < k:
            path = self._audit_path(index, lo, lo + k)
            path.append(_root_of(self._leaf_hashes[lo + k : hi]))
        else:
            path = self._audit_path(index, lo + k, hi)
            path.append(_root_of(self._leaf_hashes[lo : lo + k]))
        return path

    # -- consistency ------------------------------------------------------------

    def consistency_proof(self, old_size: int, new_size: int | None = None) -> ConsistencyProof:
        size = len(self._leaf_hashes) if new_size is None else new_size
        if not 0 < old_size <= size <= len(self._leaf_hashes):
            raise LedgerError(f"invalid sizes {old_size}/{size}")
        path = self._consistency(old_size, 0, size, True)
        return ConsistencyProof(old_size, size, tuple(path))

    def _consistency(self, m: int, lo: int, hi: int, old_is_complete: bool) -> list[bytes]:
        n = hi - lo
        if m == n:
            if old_is_complete:
                return []
            return [_root_of(self._leaf_hashes[lo:hi])]
        k = _largest_power_of_two_below(n)
        if m <= k:
            path = self._consistency(m, lo, lo + k, old_is_complete)
            path.append(_root_of(self._leaf_hashes[lo + k : hi]))
        else:
            path = self._consistency(m - k, lo + k, hi, False)
            path.append(_root_of(self._leaf_hashes[lo : lo + k]))
        return path


def verify_inclusion(
    leaf_data: bytes, proof: InclusionProof, expected_root: bytes
) -> bool:
    """Check that ``leaf_data`` at ``proof.leaf_index`` rolls up to the root."""
    node = _leaf_hash(leaf_data)
    index, size = proof.leaf_index, proof.tree_size
    lo, hi = 0, size
    # Recompute the split sequence the prover used, bottom-up.
    splits: list[tuple[bool, None]] = []
    while hi - lo > 1:
        k = _largest_power_of_two_below(hi - lo)
        if index - lo < k:
            splits.append((True, None))   # sibling is the right subtree
            hi = lo + k
        else:
            splits.append((False, None))  # sibling is the left subtree
            lo = lo + k
    if len(splits) != len(proof.audit_path):
        return False
    for (left_side, _), sibling in zip(reversed(splits), proof.audit_path):
        if left_side:
            node = _node_hash(node, sibling)
        else:
            node = _node_hash(sibling, node)
    return node == expected_root


def verify_consistency(
    old_root: bytes, new_root: bytes, proof: ConsistencyProof, tree: MerkleTree
) -> bool:
    """Check append-only consistency between two heads.

    For simplicity the verifier is given the tree (as an auditor with full
    access would be); it recomputes both heads and checks the proof hashes
    match the corresponding subtree roots, rejecting any history rewrite.
    """
    try:
        recomputed_old = tree.root(proof.old_size)
        recomputed_new = tree.root(proof.new_size)
    except LedgerError:
        return False
    if recomputed_old != old_root or recomputed_new != new_root:
        return False
    expected = tree.consistency_proof(proof.old_size, proof.new_size)
    return expected.path == proof.path
