"""Tests for the Merkle tree and its proofs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LedgerError
from repro.ledger import MerkleTree, verify_consistency, verify_inclusion
from repro.ledger.merkle import _leaf_hash, _root_of


def build(n):
    tree = MerkleTree()
    for i in range(n):
        tree.append(f"entry-{i}".encode())
    return tree


class TestRoot:
    def test_root_changes_with_appends(self):
        tree = MerkleTree()
        tree.append(b"a")
        r1 = tree.root()
        tree.append(b"b")
        assert tree.root() != r1

    def test_root_deterministic(self):
        assert build(10).root() == build(10).root()

    def test_root_depends_on_content(self):
        t1 = build(5)
        t2 = MerkleTree()
        for i in range(5):
            t2.append(f"other-{i}".encode())
        assert t1.root() != t2.root()

    def test_historical_root(self):
        tree = build(10)
        assert tree.root(5) == build(5).root()

    def test_invalid_size_rejected(self):
        with pytest.raises(LedgerError):
            build(3).root(7)

    def test_non_bytes_leaf_rejected(self):
        with pytest.raises(LedgerError):
            MerkleTree().append("text")  # type: ignore[arg-type]

    def test_leaf_node_domain_separation(self):
        """A leaf equal to an interior node encoding must not collide."""
        t1 = MerkleTree()
        t1.append(b"a")
        t1.append(b"b")
        t2 = MerkleTree()
        # A single leaf whose content is the concatenation: different root.
        t2.append(b"ab")
        assert t1.root() != t2.root()


class TestInclusion:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 100])
    def test_every_leaf_verifies(self, n):
        tree = build(n)
        root = tree.root()
        for i in range(n):
            proof = tree.inclusion_proof(i)
            assert verify_inclusion(f"entry-{i}".encode(), proof, root)

    def test_wrong_leaf_fails(self):
        tree = build(10)
        proof = tree.inclusion_proof(3)
        assert not verify_inclusion(b"entry-4", proof, tree.root())

    def test_wrong_root_fails(self):
        tree = build(10)
        proof = tree.inclusion_proof(3)
        assert not verify_inclusion(b"entry-3", proof, b"\x00" * 32)

    def test_proof_size_logarithmic(self):
        """E8 shape: audit path length ~ log2(n)."""
        for n in [16, 256, 4096]:
            tree = build(n)
            proof = tree.inclusion_proof(n // 2)
            assert len(proof.audit_path) <= math.ceil(math.log2(n)) + 1

    def test_proof_against_historical_root(self):
        tree = build(20)
        proof = tree.inclusion_proof(3, tree_size=8)
        assert verify_inclusion(b"entry-3", proof, tree.root(8))

    def test_invalid_index_rejected(self):
        with pytest.raises(LedgerError):
            build(5).inclusion_proof(5)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 80), seed=st.integers(0, 100))
    def test_inclusion_roundtrip_property(self, n, seed):
        tree = build(n)
        index = seed % n
        proof = tree.inclusion_proof(index)
        assert verify_inclusion(f"entry-{index}".encode(), proof, tree.root())


class TestConsistency:
    def test_append_only_extension_verifies(self):
        tree = build(8)
        old_root = tree.root()
        for i in range(8, 20):
            tree.append(f"entry-{i}".encode())
        proof = tree.consistency_proof(8)
        assert verify_consistency(old_root, tree.root(), proof, tree)

    def test_history_rewrite_detected(self):
        tree = build(8)
        old_root = tree.root()
        rewritten = MerkleTree()
        rewritten.append(b"TAMPERED")
        for i in range(1, 20):
            rewritten.append(f"entry-{i}".encode())
        proof = rewritten.consistency_proof(8)
        assert not verify_consistency(old_root, rewritten.root(), proof, rewritten)

    @pytest.mark.parametrize("old,new", [(1, 2), (3, 8), (8, 9), (5, 100)])
    def test_various_size_pairs(self, old, new):
        tree = build(new)
        proof = tree.consistency_proof(old)
        assert verify_consistency(tree.root(old), tree.root(), proof, tree)

    def test_consistency_proof_size_logarithmic(self):
        tree = build(4096)
        proof = tree.consistency_proof(1000)
        assert len(proof.path) <= 2 * math.ceil(math.log2(4096))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(LedgerError):
            build(5).consistency_proof(0)
        with pytest.raises(LedgerError):
            build(5).consistency_proof(9)


class TestIncrementalRoot:
    """``root()`` is read off an append-maintained frontier; the
    recursive ``_root_of`` over all leaf hashes is the definition."""

    @settings(max_examples=20, deadline=None)
    @given(
        alphabet=st.lists(st.binary(max_size=12), min_size=1, max_size=9),
        data=st.data(),
    )
    def test_every_size_matches_the_recursive_root(self, alphabet, data):
        tree, leaves, hashes = MerkleTree(), [], []
        for size in range(301):
            assert len(tree) == size
            assert tree.root() == _root_of(hashes)
            leaf = alphabet[(size * size + size // 7) % len(alphabet)]
            tree.append(leaf)
            leaves.append(leaf)
            hashes.append(_leaf_hash(leaf))
        # Prefix heads still answer, and proofs verify against the
        # incremental head.
        k = data.draw(st.integers(0, len(leaves)))
        assert tree.root(tree_size=k) == _root_of(hashes[:k])
        index = data.draw(st.integers(0, len(leaves) - 1))
        assert verify_inclusion(
            leaves[index], tree.inclusion_proof(index), tree.root()
        )
        old = data.draw(st.integers(1, len(leaves)))
        assert verify_consistency(
            tree.root(old), tree.root(), tree.consistency_proof(old), tree
        )

