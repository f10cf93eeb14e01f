"""Point-cloud sparse convolution as a single indirect Einsum (Section 6.4).

The convolution contracts a sparse 3-D ``Map`` tensor (which output voxel
receives which input voxel through which kernel offset) against the dense
input features and the dense weights.  Storing the map in COO form and
grouping entries by the kernel-offset coordinate ``MAPZ`` yields the
grouped Einsum of Section 6.4, whose ``q``/``c`` contraction is a batched
matmul that maps onto Tensor Cores.
"""

from __future__ import annotations

import numpy as np

from repro.core.inductor import InductorConfig
from repro.core.insum import Insum, fresh_output
from repro.core.insum.api import _Bound
from repro.datasets.pointclouds import KernelMap
from repro.errors import ShapeError
from repro.runtime.plan_cache import BoundedMemo


class SparseConv3d:
    """A 3x3x3 submanifold sparse convolution layer.

    Parameters
    ----------
    kernel_map:
        The input/output pairing produced by
        :func:`repro.datasets.build_kernel_map`.
    in_channels / out_channels:
        Feature dimensions (the paper evaluates 128 -> 128).
    group_size:
        Group size for the MAPZ grouping; ``None`` uses the Section 4.2
        heuristic on the per-offset pair counts.
    dtype:
        Cost-model dtype; the paper's Figure 12 uses FP16.

    A call reuses what its features' and weight's shapes and dtypes fix (a
    :class:`~repro.runtime.plan_cache.BoundedMemo`): the plan
    key and the kernel's pointers to the map arrays, which it reads in place,
    so writes to them are seen.  ``MAPV`` is stored as float32; where a call
    computes in float64 the entry keeps it cast, once, and writes to the
    float32 array are not seen by that entry.
    """

    #: The entire user-written implementation (Table 1's "1 LoC").
    expression = (
        "Out[MAPX[p,q],m] += MAPV[p,q] * In[MAPY[p,q],c] * Weight[MAPZ[p],c,m]"
    )
    lines_of_code = 1

    def __init__(
        self,
        kernel_map: KernelMap,
        in_channels: int = 128,
        out_channels: int = 128,
        group_size: int | None = None,
        dtype: str = "fp16",
        config: InductorConfig | None = None,
        rng: np.random.Generator | int | None = 0,
    ):
        self.kernel_map = kernel_map
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.map_arrays = kernel_map.to_grouped_arrays(group_size=group_size)
        self.dtype = dtype
        self.config = config or InductorConfig.insum()
        rng = np.random.default_rng(rng)
        scale = 1.0 / np.sqrt(in_channels * kernel_map.kernel_volume)
        self.weight = (
            rng.standard_normal((kernel_map.kernel_volume, in_channels, out_channels)) * scale
        )
        self._operator = Insum(self.expression, config=self.config)
        self._compiled = None
        self._memo = BoundedMemo("conv_bindings")

    @property
    def group_size(self) -> int:
        return int(self.map_arrays["MAPX"].shape[1]) if self.map_arrays["MAPX"].ndim == 2 else 1

    def __call__(self, features: np.ndarray) -> np.ndarray:
        """Convolve per-voxel input features of shape ``(V, in_channels)``."""
        bound, operands = self._bound(features)
        self._compiled = compiled = bound.compile(operands)
        return bound.run(compiled, operands)

    def _bound(self, features: np.ndarray) -> tuple[_Bound, dict[str, np.ndarray]]:
        """The memo entry of a call (built on a miss) and its operands."""
        operands = {"In": np.asarray(features), "Weight": np.asarray(self.weight)}
        key = tuple((array.shape, array.dtype) for array in operands.values())
        return self._memo.get(key) or self._memo.put(key, self._bind(operands)), operands

    def _bind(self, operands: dict[str, np.ndarray]) -> _Bound:
        """The memo entry of a features and weight signature (first call)."""
        features = operands["In"]
        if features.shape != (self.kernel_map.num_voxels, self.in_channels):
            raise ShapeError(
                f"expected features of shape ({self.kernel_map.num_voxels}, "
                f"{self.in_channels}), got {features.shape}"
            )
        dtype = np.result_type(features, operands["Weight"], self.map_arrays["MAPV"])
        shape = (self.kernel_map.num_voxels, self.out_channels)
        kept = {"Out": fresh_output(shape, dtype), **self.map_arrays}
        kept["MAPV"] = kept["MAPV"].astype(dtype, copy=False)
        return self._operator.bind(dict.fromkeys(operands), kept, operands, shape)

    def estimate_ms(self) -> float:
        """Modelled GPU runtime of one convolution without executing it."""
        features = np.zeros((self.kernel_map.num_voxels, self.in_channels), dtype=np.float32)
        output = fresh_output((self.kernel_map.num_voxels, self.out_channels), np.float32)
        tensors = {
            "Out": output,
            "In": features,
            "Weight": self.weight,
            **self.map_arrays,
        }
        self._compiled = self._operator.compile(**tensors)
        return self._compiled.price(self.dtype).estimated_ms

    def reference(self, features: np.ndarray) -> np.ndarray:
        """Offset-by-offset dense reference used by the tests.

        Plain NumPy on purpose: an oracle that shared the engine's scatter
        lowering with the kernel it checks could not see a bug there.
        """
        features = np.asarray(features)
        output = np.zeros((self.kernel_map.num_voxels, self.out_channels), dtype=np.float64)
        for offset_index, pairs in enumerate(self.kernel_map.pairs):
            if len(pairs) == 0:
                continue
            gathered = features[pairs[:, 1]]
            np.add.at(output, pairs[:, 0], gathered @ self.weight[offset_index])
        return output

    # -- introspection ------------------------------------------------------------
    @property
    def compiled(self):
        return self._compiled

    @property
    def modeled_ms(self) -> float | None:
        return None if self._compiled is None else self._compiled.price(self.dtype).estimated_ms

    @property
    def compile_seconds(self) -> float:
        return self._operator.compile_seconds
