"""Exactly-once stock accounting, the bar a flash sale is held to through
shards, kills and regions.  The caller reads the stocks itself, in the
order and number of reads it needs: a stock read is not free (a
linearizable geo read is a WAN round trip; a read can hydrate)."""

from collections.abc import Iterable, Mapping

from .platform.platform import PurchaseOutcome


def units_sold(outcomes: Iterable[PurchaseOutcome]) -> dict[str, int]:
    """Units sold per product: the successful requests' ``quantity``."""
    sold: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.success:
            pid = outcome.request.product_id
            sold[pid] = sold.get(pid, 0) + outcome.request.quantity
    return sold


def exactly_once_violations(
    initial: Mapping[str, int], sold: Mapping[str, int], stocks: Mapping[str, int]
) -> list[str]:
    """The products, sorted, whose stock is negative or whose sold plus
    left is not the initial stock.  A product missing from ``initial``
    had none; one missing from ``sold`` sold none; one missing from
    ``stocks`` was not read, so it is not shown conserved."""
    return sorted(
        pid for pid in initial.keys() | sold.keys() | stocks.keys()
        if pid not in stocks
        or stocks[pid] < 0
        or sold.get(pid, 0) + stocks[pid] != initial.get(pid, 0)
    )
