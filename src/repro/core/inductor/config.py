"""Configuration of the Inductor-like backend.

The flags correspond directly to the paper's ablation dimensions
(Section 6.6): whether matrix multiplication is generated natively via
``ops.dot`` instead of the fixed template, whether gather/scatter may fuse
with the contraction, whether lazy broadcasting removes the reshaping
overhead of eager broadcasting, and the value dtype — which alone decides
whether an ``ops.dot`` maps onto Tensor Cores.  The two remaining fields
are not ablation knobs: an explicit tile override for the cost model and
the simulated device.  The NumPy executor takes no setting: it sizes its
windows from a constant (:mod:`repro.engine.specialize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.triton_sim.device import DeviceModel, RTX3090


@dataclass
class InductorConfig:
    """Backend configuration: one field per ablation knob, then tiles and device."""

    #: Rewrite broadcast-multiply + sum into ``ops.dot`` and generate the
    #: matmul natively (Section 5.2.2).  When False, contractions that look
    #: like matrix multiplications fall back to the fixed Triton template,
    #: which cannot fuse with gathers and scatters.
    native_dot: bool = True
    #: Fuse the gather, contraction, and scatter stages into one kernel.
    #: Requires ``native_dot`` when the contraction is a matmul.
    fuse_gather_scatter: bool = True
    #: Delay broadcasting of loop variables until their use (Section 5.2.3),
    #: removing ``tl.view``/``tl.trans`` overhead before ``tl.dot``.
    lazy_broadcasting: bool = True
    #: Element type of the value tensors ("fp16" or "fp32").
    dtype: str = "fp32"
    #: Explicit tile sizes keyed by role ("m", "n", "k"); None = autotune.
    tile_sizes: dict[str, int] | None = None
    #: Simulated device the cost model targets.
    device: DeviceModel = field(default_factory=lambda: RTX3090)

    # -- presets -----------------------------------------------------------------
    @classmethod
    def insum(cls, dtype: str = "fp32", **overrides) -> "InductorConfig":
        """The full extended compiler: fusion + ops.dot + lazy broadcasting."""
        return replace(cls(dtype=dtype), **overrides)

    @classmethod
    def insum_tensor_core_only(cls, dtype: str = "fp32", **overrides) -> "InductorConfig":
        """Ablation point: ops.dot fusion enabled but eager broadcasting kept."""
        return replace(cls(dtype=dtype, lazy_broadcasting=False), **overrides)

    @classmethod
    def torchinductor_default(cls, dtype: str = "fp32", **overrides) -> "InductorConfig":
        """Stock TorchInductor behaviour: template matmul, no cross-matmul fusion.

        Pointwise/reduction-only programs still fuse (TorchInductor does
        that well); only programs containing a matmul split into separate
        gather / template-matmul / scatter kernels.
        """
        return replace(
            cls(
                dtype=dtype,
                native_dot=False,
                fuse_gather_scatter=False,
                lazy_broadcasting=False,
            ),
            **overrides,
        )

    def validate(self) -> None:
        """Check internal consistency of the configuration."""
        if self.dtype not in ("fp16", "fp32"):
            raise ValueError(f"unsupported dtype {self.dtype!r}; use 'fp16' or 'fp32'")
        if self.tile_sizes is not None:
            for key, value in self.tile_sizes.items():
                if value < 1:
                    raise ValueError(f"tile size {key!r} must be positive, got {value}")
