"""Configuration of the Inductor-like backend.

The three flags are the paper's ablation dimensions (Section 6.6):
whether matrix multiplication is generated natively via ``ops.dot``
instead of the fixed template, whether gather/scatter may fuse with the
contraction, and whether lazy broadcasting removes the reshaping overhead
of eager broadcasting.  They decide what is compiled, so the config is
frozen: a plan cached under it cannot be changed behind its key.  The
analytical GPU model's settings — value dtype, explicit tiles and the
simulated device — are not compiler switches; they are arguments of
:meth:`repro.core.inductor.compile.CompiledInsum.price`.  The NumPy
executor takes no setting: it sizes its windows from a constant
(:mod:`repro.engine.specialize`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class InductorConfig:
    """Backend configuration: one field per Section 6.6 ablation switch."""

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

    # -- presets -----------------------------------------------------------------
    @classmethod
    def insum(cls, **overrides) -> "InductorConfig":
        """The full extended compiler: fusion + ops.dot + lazy broadcasting."""
        return cls(**overrides)

    @classmethod
    def insum_tensor_core_only(cls, **overrides) -> "InductorConfig":
        """Ablation point: ops.dot fusion enabled but eager broadcasting kept."""
        return replace(cls(lazy_broadcasting=False), **overrides)

    @classmethod
    def torchinductor_default(cls, **overrides) -> "InductorConfig":
        """Stock TorchInductor behaviour: template matmul, no cross-matmul fusion.

        Pointwise/reduction-only programs still fuse (TorchInductor does
        that well); only programs containing a matmul split into separate
        gather / template-matmul / scatter kernels.
        """
        return replace(
            cls(native_dot=False, fuse_gather_scatter=False, lazy_broadcasting=False),
            **overrides,
        )
