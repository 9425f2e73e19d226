"""Trusted-execution-environment model (paper Sec. IV-D / IV-E3).

"Current implementations like Intel SGX fall short of ... performance
(large overhead)" and serverless-TEE designs "[partition] the application
logic into a trusted part, which runs inside the TEE enclave, and an
untrusted part."  This model reproduces the two dominant costs of real
enclaves so those claims are measurable:

* **world-switch overhead** — every ecall/ocall crossing pays a fixed cost;
* **EPC paging** — enclave-resident data beyond ``epc_mb`` pays a per-MB
  penalty on access (SGX1's notorious cliff).

:class:`PartitionedApp` runs a stage list with per-stage trust requirements
and accounts total time with and without the enclave, giving the overhead
factor benchmark E12 reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigurationError, EnclaveError


@dataclass(frozen=True)
class EnclaveProfile:
    """Cost model for one TEE generation."""

    ecall_overhead_s: float = 8e-6      # world switch cost per crossing
    epc_mb: float = 128.0               # protected memory before paging
    paging_penalty_s_per_mb: float = 4e-4
    compute_slowdown: float = 1.15      # encrypted-memory tax on cycles

    def __post_init__(self) -> None:
        if (
            self.ecall_overhead_s < 0
            or self.epc_mb <= 0
            or self.paging_penalty_s_per_mb < 0
            or self.compute_slowdown < 1.0
        ):
            raise ConfigurationError("invalid enclave profile")


class Enclave:
    """A running enclave instance accruing simulated time."""

    def __init__(self, profile: EnclaveProfile) -> None:
        self.profile = profile
        self.resident_mb = 0.0
        self.total_time_s = 0.0
        self.crossings = 0
        self.paged_mb = 0.0

    def ecall(self, compute_s: float, touched_mb: float = 0.0) -> float:
        """Execute ``compute_s`` of work inside the enclave; returns elapsed.

        The call pays one world switch, the encrypted-memory slowdown, and
        paging for any touched data beyond the EPC.
        """
        if compute_s < 0 or touched_mb < 0:
            raise EnclaveError("negative work")
        self.crossings += 1
        elapsed = self.profile.ecall_overhead_s
        elapsed += compute_s * self.profile.compute_slowdown
        overflow = max(0.0, (self.resident_mb + touched_mb) - self.profile.epc_mb)
        paged = min(touched_mb, overflow)
        self.paged_mb += paged
        elapsed += paged * self.profile.paging_penalty_s_per_mb
        self.total_time_s += elapsed
        return elapsed


@dataclass(frozen=True)
class AppStage:
    """One stage of a partitioned application."""

    name: str
    compute_s: float
    data_mb: float
    sensitive: bool  # must run inside the enclave


class PartitionedApp:
    """Runs trusted stages in the enclave, the rest outside.

    Consecutive same-side stages share a crossing (batching calls is the
    standard optimization; the model grants it automatically).
    """

    def __init__(self, stages: list[AppStage], profile: EnclaveProfile) -> None:
        if not stages:
            raise ConfigurationError("need at least one stage")
        self.stages = list(stages)
        self.profile = profile

    def run_with_tee(self) -> tuple[float, Enclave]:
        """Total simulated seconds with the sensitive stages enclaved."""
        enclave = Enclave(self.profile)
        total = 0.0
        index = 0
        while index < len(self.stages):
            stage = self.stages[index]
            if not stage.sensitive:
                total += stage.compute_s
                index += 1
                continue
            # Batch the maximal run of consecutive sensitive stages into
            # one crossing.
            compute = 0.0
            touched = 0.0
            while index < len(self.stages) and self.stages[index].sensitive:
                compute += self.stages[index].compute_s
                touched += self.stages[index].data_mb
                index += 1
            total += enclave.ecall(compute, touched)
        return total, enclave

    def run_without_tee(self) -> float:
        """Baseline: everything untrusted (no protection, no overhead)."""
        return sum(stage.compute_s for stage in self.stages)

    def overhead_factor(self) -> float:
        with_tee, _ = self.run_with_tee()
        without = self.run_without_tee()
        if without == 0:
            raise EnclaveError("zero-work app")
        return with_tee / without
