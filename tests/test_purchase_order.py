"""A purchase stream is ordered by C-level keys, not a Python key per request.

:func:`repro.platform.platform.order_purchases` is the one space-aware
order: a stable sort on the timestamp, then, with physical priority on, a
stable partition with physical-space requests first.  The key function it
replaced, :func:`purchase_sort_key`, lives on here as the oracle: sorting
by ``(priority, timestamp)`` keeps ties in input order, and so does the
sort-then-partition, so both give the same sequence, element by identity.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Space
from repro.core.records import PurchaseRequest
from repro.platform.platform import order_purchases
from tests.test_batch_hotpath import SourceGrep


def purchase_sort_key(request: PurchaseRequest, physical_priority: bool):
    """The replaced order: (priority, arrival time), physical first when
    ``physical_priority`` is on."""
    priority = 0 if (physical_priority and request.space is Space.PHYSICAL) else 1
    return (priority, request.timestamp)


def request(i, space, timestamp):
    return PurchaseRequest(
        shopper_id=f"s{i}", product_id=f"p{i % 3}", space=space,
        timestamp=timestamp, quantity=1,
    )


#: Few distinct values, so equal timestamps (``0.0`` and ``-0.0`` compare
#: equal) are common, beside the full range of finite floats.
timestamps = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)
streams = st.lists(
    st.tuples(st.sampled_from(list(Space)), timestamps), max_size=40
).map(lambda drawn: [request(i, *pair) for i, pair in enumerate(drawn)])


class TestTheSortKeyIsTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(requests=streams, physical_priority=st.booleans())
    @example(
        requests=[
            request(0, Space.VIRTUAL, 0.0), request(1, Space.PHYSICAL, -0.0),
            request(2, Space.VIRTUAL, -0.0), request(3, Space.PHYSICAL, 0.0),
        ],
        physical_priority=True,
    )
    def test_the_order_is_the_key_order_by_identity(
        self, requests, physical_priority
    ):
        expected = sorted(
            requests, key=lambda r: purchase_sort_key(r, physical_priority)
        )
        ordered = order_purchases(requests, physical_priority)
        assert len(ordered) == len(expected)
        assert all(a is b for a, b in zip(ordered, expected))

    def test_the_input_list_is_left_as_it_was(self):
        requests = [request(i, Space.VIRTUAL, -float(i)) for i in range(4)]
        before = list(requests)
        order_purchases(requests, True)
        assert requests == before


class TestOnePurchaseOrder(SourceGrep):
    """One ordering function, called by the three purchase entry points."""

    def test_the_key_function_is_gone_from_the_source(self):
        assert self.hits(r"\bpurchase_sort_key\b") == []

    def test_order_purchases_is_called_by_platform_cluster_and_geo(self):
        assert self.hits(r"def order_purchases\(") == ["platform/platform.py"]
        assert self.hits(r"(?<!def )\border_purchases\(") == [
            "cluster/cluster.py", "geo/deployment.py", "platform/platform.py"
        ]

