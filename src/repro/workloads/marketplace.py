"""The metaverse marketplace workload (paper Sec. II "The Marketplace").

A mall with physical and virtual shoppers buying from a shared product
catalog.  The generator produces:

* a Zipf-skewed purchase stream — flash sales ("Black Friday", Sec. IV-E)
  concentrate demand on a few hot products, the contention driver for
  experiment E4;
* a burst arrival process: background rate with a configurable flash-sale
  window multiplier;
* inventory-update records tagged by originating space, so space-aware
  policies (physical shopper priority, Sec. IV-G) can be exercised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.errors import ConfigurationError
from ..core.records import DataKind, DataRecord, PurchaseRequest, Space
from .movement import zipf_sampler


@dataclass(frozen=True)
class FlashSaleConfig:
    """Workload shape for a marketplace run."""

    n_products: int = 100
    n_shoppers: int = 500
    physical_fraction: float = 0.3
    zipf_skew: float = 1.2
    base_rate: float = 10.0          # requests per second off-peak
    burst_rate: float = 500.0        # requests per second during the sale
    burst_start: float = 60.0
    burst_end: float = 90.0
    initial_stock: int = 50

    def __post_init__(self) -> None:
        if not 0 <= self.physical_fraction <= 1:
            raise ConfigurationError("physical_fraction must be in [0, 1]")
        if self.n_products < 1 or self.n_shoppers < 1:
            raise ConfigurationError("need products and shoppers")
        if self.burst_start > self.burst_end:
            raise ConfigurationError("burst window inverted")


class MarketplaceWorkload:
    """Generates the purchase stream and catalog records."""

    def __init__(self, config: FlashSaleConfig, seed: int = 0) -> None:
        self.config = config
        self._rng = random.Random(seed)
        self._product_sampler = zipf_sampler(
            config.n_products, config.zipf_skew, seed=seed + 1
        )

    def product_id(self, index: int) -> str:
        return f"product-{index:05d}"

    def catalog_records(self) -> list[DataRecord]:
        """Initial inventory records (static data, physical space)."""
        return [
            DataRecord(
                key=self.product_id(i),
                payload={"stock": self.config.initial_stock, "price": 5.0 + i % 50},
                space=Space.PHYSICAL,
                kind=DataKind.STRUCTURED,
                source="catalog",
            )
            for i in range(self.config.n_products)
        ]

    def rate_at(self, t: float) -> float:
        if self.config.burst_start <= t < self.config.burst_end:
            return self.config.burst_rate
        return self.config.base_rate

    def requests_between(self, t_start: float, t_end: float) -> list[PurchaseRequest]:
        """Poisson arrivals over [t_start, t_end), thinning by the rate curve."""
        if t_end < t_start:
            raise ConfigurationError("window inverted")
        out: list[PurchaseRequest] = []
        max_rate = max(self.config.base_rate, self.config.burst_rate)
        t = t_start
        while True:
            if max_rate <= 0:
                break
            t += self._rng.expovariate(max_rate)
            if t >= t_end:
                break
            if self._rng.random() > self.rate_at(t) / max_rate:
                continue  # thinned away
            shopper_index = self._rng.randrange(self.config.n_shoppers)
            space = (
                Space.PHYSICAL
                if self._rng.random() < self.config.physical_fraction
                else Space.VIRTUAL
            )
            out.append(
                PurchaseRequest(
                    shopper_id=f"shopper-{shopper_index:05d}",
                    product_id=self.product_id(self._product_sampler()),
                    space=space,
                    timestamp=t,
                )
            )
        return out

    def hot_products(self, requests: list[PurchaseRequest], top: int = 5) -> list[str]:
        counts: dict[str, int] = {}
        for request in requests:
            counts[request.product_id] = counts.get(request.product_id, 0) + 1
        return [
            pid
            for pid, _ in sorted(counts.items(), key=lambda kv: -kv[1])[:top]
        ]
