"""Level-of-detail asset representation (paper Sec. IV-I).

High-fidelity digital assets explode in size; LOD pyramids are the data-
management answer: a voxel occupancy grid at full resolution plus
recursively 2x-downsampled levels.  This substitutes for NeRF-style neural
assets — the *systems* questions (bytes per level, quality-vs-transfer
trade-off, progressive refinement) are identical for any multi-resolution
representation, which is what the experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigurationError


def _downsample(grid: np.ndarray) -> np.ndarray:
    """Halve resolution by 2x2x2 majority pooling."""
    n = grid.shape[0]
    reshaped = grid.reshape(n // 2, 2, n // 2, 2, n // 2, 2)
    return (reshaped.mean(axis=(1, 3, 5)) >= 0.5).astype(np.uint8)


def _upsample_to(grid: np.ndarray, target_n: int) -> np.ndarray:
    """Nearest-neighbour upsample a cubic grid to ``target_n`` per axis."""
    factor = target_n // grid.shape[0]
    return np.repeat(np.repeat(np.repeat(grid, factor, 0), factor, 1), factor, 2)


@dataclass(frozen=True)
class LodLevel:
    """One level of the pyramid (level 0 = coarsest)."""

    level: int
    resolution: int
    size_bytes: int
    error: float  # voxel disagreement vs the finest level, in [0, 1]


class VoxelAsset:
    """A cubic voxel occupancy asset with an LOD pyramid.

    ``resolution`` must be a power of two.  The pyramid stores every level
    from coarsest (4^3) to finest; ``size_bytes`` models 1 bit per voxel
    (packed), the floor for any occupancy codec.
    """

    MIN_RES = 4

    def __init__(self, name: str, occupancy: np.ndarray) -> None:
        if occupancy.ndim != 3 or len(set(occupancy.shape)) != 1:
            raise ConfigurationError("occupancy must be a cube")
        n = occupancy.shape[0]
        if n < self.MIN_RES or n & (n - 1):
            raise ConfigurationError("resolution must be a power of two >= 4")
        self.name = name
        self._grids: list[np.ndarray] = []  # coarsest first
        grid = (occupancy > 0).astype(np.uint8)
        chain = [grid]
        while grid.shape[0] > self.MIN_RES:
            grid = _downsample(grid)
            chain.append(grid)
        self._grids = list(reversed(chain))

    @classmethod
    def sphere(cls, name: str, resolution: int = 64, radius_frac: float = 0.4) -> "VoxelAsset":
        """A procedurally generated solid-sphere asset."""
        axis = np.arange(resolution) - (resolution - 1) / 2
        x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
        occupancy = (x**2 + y**2 + z**2) <= (radius_frac * resolution) ** 2
        return cls(name, occupancy.astype(np.uint8))

    @classmethod
    def random_blob(cls, name: str, resolution: int = 64, seed: int = 0, fill: float = 0.3) -> "VoxelAsset":
        """A random blob: low-frequency structure plus fine surface detail.

        The fine detail (random voxel flips) is unrepresentable at coarse
        levels, so every LOD has genuinely lower fidelity than the next —
        the property adaptive streaming trades on.
        """
        rng = np.random.default_rng(seed)
        coarse = rng.random((8, 8, 8))
        blob = _upsample_to((coarse > (1 - fill)).astype(np.uint8), resolution)
        detail = rng.random((resolution, resolution, resolution)) < 0.05
        return cls(name, np.bitwise_xor(blob, detail.astype(np.uint8)))

    @property
    def levels(self) -> int:
        return len(self._grids)

    def grid(self, level: int) -> np.ndarray:
        if not 0 <= level < self.levels:
            raise ConfigurationError(f"no level {level}")
        return self._grids[level]

    def size_bytes(self, level: int) -> int:
        resolution = self.grid(level).shape[0]
        return max(1, resolution**3 // 8)  # 1 bit per voxel, packed

    def error(self, level: int) -> float:
        """Fraction of finest-level voxels the level gets wrong."""
        finest = self._grids[-1]
        approx = _upsample_to(self.grid(level), finest.shape[0])
        return float(np.mean(approx != finest))

    def pyramid(self) -> list[LodLevel]:
        return [
            LodLevel(
                level=i,
                resolution=self.grid(i).shape[0],
                size_bytes=self.size_bytes(i),
                error=self.error(i),
            )
            for i in range(self.levels)
        ]
