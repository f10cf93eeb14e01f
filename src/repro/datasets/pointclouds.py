"""Synthetic indoor point clouds and sparse-convolution kernel maps.

Stands in for the S3DIS Area-6 scans used in Figure 12.  Each scene is a
box-shaped room: points are sampled on the floor, ceiling, walls, and a few
furniture boxes, then quantised into 5 cm voxels exactly as in the paper's
setup.  Sparse 3-D convolution needs a *kernel map*: for every kernel
offset, the list of (output voxel, input voxel) pairs whose positions
differ by that offset.  The map is returned both as per-offset pair lists
(what TorchSparse-style baselines consume) and as a flat COO ``Map`` tensor
(what the indirect-Einsum formulation consumes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.utils.arrays import padded_slots
from repro.utils.rng import stream_seed


@dataclass(frozen=True)
class SceneSpec:
    """Geometry of one synthetic room."""

    name: str
    size_m: tuple[float, float, float]
    num_points: int
    num_furniture: int


#: Seven scenes named after the S3DIS Area-6 rooms used in Figure 12.
SCENE_SPECS: dict[str, SceneSpec] = {
    spec.name: spec
    for spec in [
        SceneSpec("conferenceRoom", (8.0, 6.0, 3.0), 120_000, 6),
        SceneSpec("copyRoom", (4.0, 3.5, 3.0), 50_000, 3),
        SceneSpec("hallway", (12.0, 2.5, 3.0), 80_000, 2),
        SceneSpec("lounge", (9.0, 7.0, 3.0), 110_000, 8),
        SceneSpec("office", (6.0, 5.0, 3.0), 90_000, 7),
        SceneSpec("openspace", (14.0, 10.0, 3.0), 160_000, 10),
        SceneSpec("pantry", (3.5, 3.0, 3.0), 40_000, 4),
    ]
}


def list_scenes() -> list[str]:
    """Names of the available synthetic scenes."""
    return sorted(SCENE_SPECS)


def generate_scene(
    name: str,
    max_points: int | None = 60_000,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Generate the point cloud of one scene as an ``(N, 3)`` float array."""
    if name not in SCENE_SPECS:
        raise ShapeError(f"unknown scene {name!r}; available: {', '.join(list_scenes())}")
    spec = SCENE_SPECS[name]
    if rng is None:
        rng = stream_seed(name)
    rng = np.random.default_rng(rng)

    num_points = spec.num_points if max_points is None else min(spec.num_points, max_points)
    sx, sy, sz = spec.size_m

    surfaces: list[np.ndarray] = []

    def plane(count: int, fixed_axis: int, fixed_value: float) -> np.ndarray:
        points = rng.random((count, 3)) * np.array([sx, sy, sz])
        points[:, fixed_axis] = fixed_value + rng.normal(0, 0.01, size=count)
        return points

    structural = int(num_points * 0.7)
    per_surface = max(1, structural // 6)
    surfaces.append(plane(per_surface, 2, 0.0))        # floor
    surfaces.append(plane(per_surface, 2, sz))         # ceiling
    surfaces.append(plane(per_surface, 0, 0.0))        # walls
    surfaces.append(plane(per_surface, 0, sx))
    surfaces.append(plane(per_surface, 1, 0.0))
    surfaces.append(plane(per_surface, 1, sy))

    furniture_points = num_points - 6 * per_surface
    per_item = max(1, furniture_points // max(1, spec.num_furniture))
    for _ in range(spec.num_furniture):
        center = rng.random(3) * np.array([sx - 1.5, sy - 1.5, 0.0]) + np.array([0.75, 0.75, 0.0])
        dims = rng.uniform(0.4, 1.5, size=3) * np.array([1.0, 1.0, 0.8])
        local = rng.random((per_item, 3)) * dims
        # Keep only points near the surface of the furniture box.
        shell = np.min(np.minimum(local, dims - local), axis=1) < 0.05
        surfaces.append(center + local[shell])

    cloud = np.concatenate(surfaces, axis=0)
    return cloud[:num_points].astype(np.float64)


def voxelize(points: np.ndarray, voxel_size: float = 0.05) -> np.ndarray:
    """Quantise a point cloud into unique integer voxel coordinates ``(V, 3)``."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ShapeError(f"expected an (N, 3) point array, got shape {points.shape}")
    if voxel_size <= 0:
        raise ShapeError(f"voxel size must be positive, got {voxel_size}")
    voxels = np.floor(points / voxel_size).astype(np.int64)
    return np.unique(voxels, axis=0)


@dataclass
class KernelMap:
    """The input-output pairing of a sparse convolution.

    Attributes
    ----------
    num_voxels:
        Number of active voxels (inputs and outputs coincide for the
        stride-1, "submanifold" convolution evaluated in the paper).
    offsets:
        ``(K, 3)`` integer kernel offsets (K = 27 for a 3x3x3 kernel).
    pairs:
        For each offset ``k``, an ``(n_k, 2)`` array of
        ``(output_index, input_index)`` pairs.
    """

    num_voxels: int
    offsets: np.ndarray
    pairs: list[np.ndarray]

    @property
    def kernel_volume(self) -> int:
        return len(self.pairs)

    @property
    def total_pairs(self) -> int:
        return int(sum(len(p) for p in self.pairs))

    def occupancy(self) -> np.ndarray:
        """Number of pairs per kernel offset (drives Fetch-on-Demand cost)."""
        return np.array([len(p) for p in self.pairs], dtype=np.int64)

    # -- Map tensor form used by the indirect Einsum --------------------------
    def to_coo_arrays(self) -> dict[str, np.ndarray]:
        """Flatten into the ``MAPX`` / ``MAPY`` / ``MAPZ`` / ``MAPV`` arrays.

        ``MAPX[p]`` is the output voxel, ``MAPY[p]`` the input voxel,
        ``MAPZ[p]`` the kernel-offset index, and ``MAPV[p]`` is 1.0 — the
        COO representation of the sparse ``Map`` tensor in Section 6.4.
        """
        outputs, inputs, offsets = [], [], []
        for offset_index, pair_block in enumerate(self.pairs):
            if len(pair_block) == 0:
                continue
            outputs.append(pair_block[:, 0])
            inputs.append(pair_block[:, 1])
            offsets.append(np.full(len(pair_block), offset_index, dtype=np.int64))
        map_x = np.concatenate(outputs) if outputs else np.zeros(0, dtype=np.int64)
        map_y = np.concatenate(inputs) if inputs else np.zeros(0, dtype=np.int64)
        map_z = np.concatenate(offsets) if offsets else np.zeros(0, dtype=np.int64)
        return {
            "MAPX": map_x,
            "MAPY": map_y,
            "MAPZ": map_z,
            "MAPV": np.ones(len(map_x), dtype=np.float32),
        }

    def to_grouped_arrays(self, group_size: int | None = None) -> dict[str, np.ndarray]:
        """Group pairs by kernel offset (the ``MAPZ`` grouping of Section 6.4).

        Returns ``MAPX``/``MAPY``/``MAPV`` of shape ``(groups, group_size)``
        and ``MAPZ`` of shape ``(groups,)``; padded slots point at voxel 0
        with value 0 so they contribute nothing.
        """
        from repro.formats.group_size import select_group_size

        occupancy = self.occupancy()
        if group_size is None:
            group_size = select_group_size(occupancy)
        group_size = max(1, int(group_size))

        # The pairs are already in offset order: one fancy store per array.
        # The leading empty block lets a map with no offsets concatenate.
        groups = -(-occupancy // group_size)
        slots = padded_slots(occupancy, groups, group_size)
        pairs = np.concatenate([np.zeros((0, 2), dtype=np.int64), *self.pairs])
        grouped = {}
        for key, values, dtype in (
            ("MAPX", pairs[:, 0], np.int64),
            ("MAPY", pairs[:, 1], np.int64),
            ("MAPV", 1.0, np.float32),
        ):
            flat = np.zeros(int(groups.sum()) * group_size, dtype=dtype)
            flat[slots] = values
            grouped[key] = flat.reshape(-1, group_size)
        grouped["MAPZ"] = np.repeat(np.arange(occupancy.size, dtype=np.int64), groups)
        return grouped


def build_kernel_map(voxels: np.ndarray, kernel_size: int = 3) -> KernelMap:
    """Build the kernel map of a stride-1 submanifold sparse convolution."""
    voxels = np.asarray(voxels, dtype=np.int64)
    if voxels.ndim != 2 or voxels.shape[1] != 3:
        raise ShapeError(f"expected (V, 3) voxel coordinates, got shape {voxels.shape}")
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ShapeError(f"kernel size must be odd and positive, got {kernel_size}")

    index_of = {tuple(coord): i for i, coord in enumerate(voxels)}
    half = kernel_size // 2
    offsets = np.array(
        list(itertools.product(range(-half, half + 1), repeat=3)), dtype=np.int64
    )

    pairs: list[np.ndarray] = []
    for offset in offsets:
        neighbours = voxels + offset
        block = []
        for out_index, coord in enumerate(neighbours):
            in_index = index_of.get(tuple(coord))
            if in_index is not None:
                block.append((out_index, in_index))
        pairs.append(
            np.asarray(block, dtype=np.int64).reshape(-1, 2)
            if block
            else np.zeros((0, 2), dtype=np.int64)
        )
    return KernelMap(num_voxels=len(voxels), offsets=offsets, pairs=pairs)
