"""Public entry points of the Insum compiler.

Two levels of API are provided, mirroring the paper:

* :func:`insum` / :class:`Insum` — execute an *indirect* Einsum written
  over the data/metadata arrays of a sparse format, e.g.
  ``insum("C[AM[p],n] += AV[p] * B[AK[p],n]", C=C, AV=AV, AM=AM, AK=AK, B=B)``.

* :func:`sparse_einsum` — the one-line, format-agnostic API: operands may
  be :class:`~repro.formats.base.SparseFormat` objects, and the expression
  is written over the *logical* tensors
  (``sparse_einsum("C[m,n] += A[m,k] * B[k,n]", A=group_coo_A, B=B)``).
  The sparse operand is rewritten into a format-conscious indirect Einsum
  automatically and then executed through the same pipeline.
"""

from __future__ import annotations

import functools
import weakref
from typing import Any, Callable

import numpy as np

from repro.core.einsum.ast import EinsumStatement, IndexVar
from repro.core.einsum.parser import parse_einsum
from repro.core.einsum.rewriting import rewrite_sparse_operand
from repro.core.insum.planner import InsumPlan, plan_insum
from repro.errors import EinsumValidationError, LoweringError
from repro.formats.base import SparseFormat
from repro.utils.timing import Timer


def _check_backend(backend: str) -> None:
    if backend not in ("inductor", "eager"):
        raise LoweringError(f"unknown backend {backend!r}; use 'inductor' or 'eager'")


class Insum:
    """A reusable, compiled indirect Einsum.

    Parsing, validation, planning, and backend compilation happen once (per
    input-shape signature); subsequent calls reuse the compiled kernel, so
    the compile cost is amortised exactly as discussed for Table 3 of the
    paper.  The tile autotuning of the GPU model runs only when a modelled
    number is asked for.

    Parameters
    ----------
    expression:
        The indirect Einsum string.
    backend:
        ``"inductor"`` (default) compiles through the extended
        TorchInductor-like backend with fusion, ``ops.dot``, and lazy
        broadcasting; ``"eager"`` runs the plan's step list as one window over
        the whole extent (every temporary materialised, no C loop nest).
    config:
        Optional :class:`repro.core.inductor.config.InductorConfig`
        overriding the backend behaviour (used by the ablation study).

    Index values are checked where the executor loads them, on every call:
    NumPy's domain, ``[-extent, extent)`` with negatives wrapping; anything
    else raises :class:`~repro.errors.IndexOutOfBoundsError`.
    """

    def __init__(
        self,
        expression: str,
        backend: str = "inductor",
        config: Any | None = None,
    ):
        _check_backend(backend)
        self.expression = expression
        self.statement: EinsumStatement = parse_einsum(expression)
        self.backend = backend
        self.config = config
        self.last_plan: InsumPlan | None = None
        self.compile_seconds: float = 0.0

    # -- compilation ------------------------------------------------------------
    def _signature(self, tensors: dict[str, np.ndarray]) -> tuple:
        """Shape **and** dtype of every operand, by name.

        Dtypes must participate: two calls with identical shapes but
        different dtypes (say fp32 and fp64 values) would otherwise share
        one compiled kernel and one cost report.
        """
        signature = []
        for name in sorted(tensors):
            array = tensors[name]
            if array.__class__ is not np.ndarray:
                array = np.asarray(array)
            signature.append((name, array.shape, array.dtype.str))
        return tuple(signature)

    def compile(self, **tensors: np.ndarray):
        """Plan and compile for the given tensors, returning the compiled kernel.

        Compilation is routed through the process-wide
        plan cache (:func:`~repro.runtime.plan_cache.get_plan_cache`), so distinct
        :class:`Insum` instances (and one-shot :func:`insum` calls) reuse
        each other's kernels.  A hit touches no operand value: the
        executor checks every index it loads.
        """
        from repro.runtime.plan_cache import plan_key

        key = plan_key(self.expression, self.backend, self.config, self._signature(tensors))
        return self._compiled(key, lambda: tensors)

    def _compiled(self, key: tuple, tensors: Callable[[], dict[str, np.ndarray]]):
        """The kernel under plan key ``key``: one counted plan-cache lookup and,
        on a miss, the plan and compile of ``tensors()``."""
        from repro.runtime.plan_cache import CachedPlan, get_plan_cache

        cache = get_plan_cache()
        with Timer() as timer:
            entry = cache.get(key)
            if entry is None:
                plan = plan_insum(self.statement, tensors())
                if self.backend == "eager":
                    from repro.engine.specialize import materialize_plan

                    compiled = materialize_plan(plan)
                else:
                    from repro.core.inductor import compile_plan

                    compiled = compile_plan(plan, config=self.config)
                entry = cache.put(key, CachedPlan(plan=plan, compiled=compiled))
        self.compile_seconds += timer.elapsed
        self.last_plan = entry.plan
        return entry.compiled

    def __call__(self, **tensors: np.ndarray) -> np.ndarray:
        """Execute the Einsum on the given tensors."""
        compiled = self.compile(**tensors)
        return compiled.run(tensors)

    def bind(
        self,
        given: dict[str, tuple[int, ...] | None],
        kept: dict[str, np.ndarray],
        operands: dict[str, Any],
        logical_shape: tuple[int, ...],
    ) -> "_Bound":
        """What every call of one execution signature reuses (:class:`_Bound`),
        its plan key taken once: the one pinned-call path of
        :class:`SparseEinsum` and the kernel classes.

        Parameters
        ----------
        given:
            The tensors a call passes, by name: the shape the kernel views it
            in (a blocked dense operand), or ``None`` to take it as it is.
        kept:
            The tensors every call reads in place: the output placeholder and
            the format's, map's or CG tensor's arrays.
        operands:
            One call's operands, whose shapes and dtypes fix the plan key.
        logical_shape:
            The shape a call's result is returned in.
        """
        from repro.runtime.plan_cache import plan_key

        bound = _Bound(self, given, kept, logical_shape)
        signature = self._signature(bound.tensors(operands))
        bound.key = plan_key(self.expression, self.backend, self.config, signature)
        return bound


@functools.lru_cache(maxsize=64)
def fresh_output(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """The all-zero base of a call that binds no output operand.

    ``dtype`` is the right-hand-side operands' common type: float32 in,
    float32 out.  A read-only zero-stride view rather than a buffer, one per
    shape and dtype shared by every call: every executor builds the result it
    owns from the base before accumulating (the fused one recognises the view
    and allocates instead of copying).
    """
    return np.broadcast_to(np.zeros((), dtype=dtype), shape)


def insum(
    expression: str,
    backend: str = "inductor",
    config: Any | None = None,
    format: Any | None = None,
    sparse_operand: str | None = None,
    **tensors: Any,
) -> np.ndarray:
    """One-shot sparse Einsum: parse, compile, and execute.

    Without ``format``, this is the raw indirect-Einsum entry point: the
    expression is written over the data/metadata arrays of a sparse format
    and every operand is a plain array.

    With ``format`` set, the expression is a *format-agnostic* Einsum over
    logical tensors and the call routes through :class:`SparseEinsum`:
    ``format="auto"`` lets :mod:`repro.tuner` profile the sparse operand
    (a dense array or any :class:`~repro.formats.base.SparseFormat`) and
    pick the storage format by its Section 4.2 rule, while a format name or
    class forces that format.

    Parameters
    ----------
    expression:
        The Einsum string (indirect, or logical when ``format`` is set).
    backend:
        ``"inductor"`` (default) or ``"eager"``.
    config:
        Optional :class:`~repro.core.inductor.config.InductorConfig`.
    format:
        ``None``, ``"auto"``, a format name (``"coo"``, ``"ell"``, ...),
        or a :class:`~repro.formats.base.SparseFormat` subclass.
    sparse_operand:
        Name of the operand ``format`` applies to, when ambiguous.
    **tensors:
        Operand arrays (and, with ``format``, sparse-format instances).

    Returns
    -------
    numpy.ndarray
        The computed output tensor.

    Examples
    --------
    >>> C = insum("C[m,n] += A[m,k] * B[k,n]", A=A_dense, B=B, format="auto")
    """
    if format is not None:
        return SparseEinsum(
            expression,
            backend=backend,
            config=config,
            format=format,
            sparse_operand=sparse_operand,
        )(**tensors)
    return Insum(expression, backend=backend, config=config)(**tensors)


# ---------------------------------------------------------------------------
# Format-agnostic API
# ---------------------------------------------------------------------------
def _forced_format_operand(format_spec: Any, operand: Any) -> SparseFormat:
    """Convert ``operand`` to an explicitly requested format.

    ``format_spec`` is a name (``"coo"``, ``"ell"``, ``"groupcoo"``,
    ``"blockcoo"``, ``"blockgroupcoo"``) or the corresponding
    :class:`~repro.formats.base.SparseFormat` subclass.  For the block
    formats the block shape is taken from the operand's profile (the
    best-aligned scored shape, falling back to the largest candidate
    shape that divides the matrix).  The variable-length CSR/BCSR are
    rejected here — they cannot execute as indirect Einsums (Section 4).
    """
    from repro.formats import FORMATS, BlockCOO, BlockGroupCOO

    by_name = {name: cls for name, cls in FORMATS.items() if cls.fixed_length}
    if isinstance(format_spec, str):
        format_cls = by_name.get(format_spec.lower())
        if format_cls is None:
            raise EinsumValidationError(
                f"unknown format {format_spec!r}; use 'auto' or one of {sorted(by_name)} "
                "(CSR/BCSR are variable-length and cannot execute as indirect Einsums)"
            )
    elif isinstance(format_spec, type) and issubclass(format_spec, SparseFormat):
        if format_spec.fixed_length is False:
            raise EinsumValidationError(
                f"{format_spec.__name__} is a variable-length format and cannot execute "
                "as an indirect Einsum; convert to a fixed-length format instead"
            )
        format_cls = format_spec
    else:
        raise EinsumValidationError(
            f"format= must be 'auto', a format name, or a SparseFormat subclass; "
            f"got {format_spec!r}"
        )

    if isinstance(operand, format_cls):
        return operand
    dense_value = (
        operand.to_dense() if isinstance(operand, SparseFormat) else np.asarray(operand)
    )
    if format_cls in (BlockCOO, BlockGroupCOO):
        from repro.tuner.profile import CANDIDATE_BLOCK_SHAPES, profile_operand

        profile = profile_operand(dense_value)
        block_shape = profile.best_block_shape()
        if block_shape is None:
            divisible = [
                shape
                for shape in CANDIDATE_BLOCK_SHAPES
                if dense_value.shape[0] % shape[0] == 0
                and dense_value.shape[1] % shape[1] == 0
            ]
            if not divisible:
                raise EinsumValidationError(
                    f"no candidate block shape divides a {dense_value.shape} matrix; "
                    "construct the block format explicitly with the shape you want"
                )
            block_shape = divisible[-1]
        return format_cls.from_dense(dense_value, block_shape)
    return format_cls.from_dense(dense_value)


def _infer_logical_extents(
    statement: EinsumStatement, operands: dict[str, Any]
) -> dict[str, int]:
    """Infer index extents treating sparse operands by their logical shape."""
    extents: dict[str, int] = {}
    for access in statement.all_accesses():
        if access.tensor not in operands:
            continue
        value = operands[access.tensor]
        shape = value.shape if isinstance(value, SparseFormat) else np.asarray(value).shape
        if len(shape) != access.ndim:
            raise EinsumValidationError(
                f"tensor {access.tensor!r} has shape {shape} but is accessed with "
                f"{access.ndim} indices"
            )
        for axis, ix in enumerate(access.indices):
            if isinstance(ix, IndexVar):
                known = extents.get(ix.name)
                if known is not None and known != shape[axis]:
                    raise EinsumValidationError(
                        f"index {ix.name!r} has inconsistent extents {known} vs {shape[axis]}"
                    )
                extents[ix.name] = int(shape[axis])
    return extents


def _view(value: Any, shape: tuple[int, ...] | None) -> np.ndarray:
    """A dense operand as the kernel reads it: viewed in blocks where the
    rewrite asks (``shape``)."""
    array = np.asarray(value)
    return array if shape is None else array.reshape(shape)


class _Bound:
    """What every call of one execution signature reuses (:meth:`Insum.bind`).

    Built by the first call of the signature: the :class:`Insum` and its
    plan key, the dense operands a call gives
    (``given``: name to blocked shape, or ``None``), the tensors every call
    keeps (``kept``: the zero-stride output placeholder and the format's, map's
    or CG tensor's arrays, read in place so writes to them are seen) and the
    logical output shape.  ``kernel`` is the
    last compiled kernel looked up under the key with its pinned call
    (:meth:`pin`), pinned again when the plan cache hands back another.
    """

    __slots__ = ("operator", "given", "kept", "logical_shape", "key", "kernel")

    def __init__(self, operator, given, kept, logical_shape):
        self.operator, self.given = operator, given
        self.kept, self.logical_shape = kept, logical_shape
        self.key: tuple = ()
        self.kernel: tuple = (None, None)

    def tensors(self, operands: dict[str, Any]) -> dict[str, np.ndarray]:
        """A call's execution tensors: its dense operands, then the kept ones."""
        tensors = {name: _view(operands[name], shape) for name, shape in self.given.items()}
        tensors.update(self.kept)
        return tensors

    def compile(self, operands: dict[str, Any]) -> Any:
        """The kernel: one counted plan-cache lookup (a compile on a miss)."""
        return self.operator._compiled(self.key, lambda: self.tensors(operands))

    def pin(self, compiled: Any, operands: dict[str, Any]) -> Callable | None:
        """The emitted loop nest of ``compiled`` with the kept tensors bound
        (:meth:`~repro.engine.emit.Emitted.pin`): a function of a call's
        operands that reads a pointer for the dense ones and the result only,
        and returns ``None`` for the call to run ``compiled.run``.  ``None``
        where every call does: the steps run, the caller binds the output, the
        sum would promote it, or a kept tensor is not read in place."""
        from repro.engine.emit import Emitted

        emitted = getattr(compiled, "specialized", compiled).emitted
        if emitted.__class__ is not Emitted or emitted.layout[0][0] in self.given:
            return None
        tensors, layout = self.tensors(operands), emitted.layout
        dtype = np.result_type(*[tensors[name] for name, _, kind in layout[1:] if kind != "index"])
        arrays = [None if name in self.given else tensors[name] for name, _, _ in layout]
        call = emitted.pin(arrays, dtype) if arrays[0].dtype == dtype else None
        if call is None:
            return None
        blocked = [(name, self.given[name]) for name, _, _ in layout if name in self.given]
        shape = arrays[0].shape
        return lambda operands: call(
            [_view(operands[name], at) for name, at in blocked], np.zeros(shape, dtype)
        )

    def run(self, compiled: Any, operands: dict[str, Any]) -> np.ndarray:
        """Execute ``compiled`` on a call's operands, in the logical shape."""
        kernel = self.kernel
        if kernel[0] is not compiled:
            kernel = self.kernel = (compiled, self.pin(compiled, operands))
        result = None if kernel[1] is None else kernel[1](operands)
        if result is None:
            result = compiled.run(self.tensors(operands))
        shape = self.logical_shape
        return result if result.shape == shape else result.reshape(shape)


@functools.cache
def _layout_classes() -> tuple[frozenset, type]:
    """The formats that keep :meth:`~repro.formats.base.SparseFormat.rewrite_plan`'s
    layout contract, by exact class: the package's fixed-length formats, and
    the stack class (over one of them)."""
    from repro.formats import FORMATS
    from repro.runtime.stacked import StackedSparse

    return frozenset(cls for cls in FORMATS.values() if cls.fixed_length), StackedSparse


def _layout(operand: SparseFormat, name: str) -> tuple[tuple, dict[str, np.ndarray]] | None:
    """The layout of ``operand`` bound as ``name`` — what its rewrite reads:
    its class (and a stack's base class), logical shape and block shape, and
    every array of ``tensors(name)`` by name, rank and dtype, but no array's
    extent (its nnz, groups, group size or ELL width) — and those arrays;
    ``None`` for a format whose rewrite may read more (any other class).
    """
    formats, stacked = _layout_classes()
    cls = operand.__class__
    base = operand.base if cls is stacked else operand
    if base.__class__ not in formats:
        return None
    arrays = operand.tensors(name)
    ranks = tuple((key, array.ndim, array.dtype) for key, array in arrays.items())
    return (cls, base.__class__, operand.shape, getattr(base, "block_shape", None), ranks), arrays


class _Layout:
    """What every operand of one layout binds to, its arrays aside: the
    operator, the given dense operands, the logical shape, the output
    placeholder, for each kept tensor the name of the operand's array it is
    (``None``: the placeholder), and the plan key's signature, whose entry
    for such a tensor takes that array's shape.  It holds no operand array,
    and serves operands of any extents: each gets its own plan key."""

    __slots__ = ("operator", "given", "logical_shape", "sources", "placeholder", "signature")

    def __init__(self, bound: _Bound, sources: dict[str, str | None]):
        self.operator, self.given = bound.operator, bound.given
        self.logical_shape, self.sources = bound.logical_shape, sources
        fixed = [name for name, source in sources.items() if source is None]
        self.placeholder = bound.kept[fixed[0]] if fixed else None
        # The signature is the plan key's last item (plan_key).
        self.signature = tuple((entry, sources.get(entry[0])) for entry in bound.key[-1])

    @classmethod
    def of(cls, bound: _Bound, arrays: dict[str, np.ndarray]) -> "_Layout | None":
        """The template of ``bound``, whose operand's arrays are ``arrays``;
        ``None`` when a kept tensor other than one placeholder is not one of
        them, or two of them are one array (a name would be ambiguous)."""
        by_id = {id(array): key for key, array in arrays.items()}
        sources = {name: by_id.get(id(array)) for name, array in bound.kept.items()}
        if len(by_id) != len(arrays) or list(sources.values()).count(None) > 1:
            return None
        return cls(bound, sources)

    def bind(self, arrays: dict[str, np.ndarray]) -> _Bound:
        """The binding of an operand of this layout, whose arrays are ``arrays``."""
        from repro.runtime.plan_cache import plan_key

        kept = {
            name: self.placeholder if source is None else arrays[source]
            for name, source in self.sources.items()
        }
        signature = tuple(
            entry if source is None else (entry[0], arrays[source].shape, entry[2])
            for entry, source in self.signature
        )
        operator = self.operator
        bound = _Bound(operator, self.given, kept, self.logical_shape)
        bound.key = plan_key(operator.expression, operator.backend, operator.config, signature)
        return bound


class SparseEinsum:
    """A reusable format-agnostic sparse Einsum.

    Wraps the rewrite (format-agnostic → format-conscious) plus a reusable
    :class:`Insum` operator, so applications can execute the same Einsum
    many times and still inspect the compiled kernel and its modelled GPU
    cost (:meth:`~repro.core.inductor.compile.CompiledInsum.price`).  A call
    is reentrant: threads may share one operator, whatever formats they pass.

    Parameters
    ----------
    expression:
        A format-agnostic Einsum over logical tensors, e.g.
        ``"C[m,n] += A[m,k] * B[k,n]"``.
    backend:
        ``"inductor"`` (default) or ``"eager"``.
    config:
        Optional :class:`~repro.core.inductor.config.InductorConfig`.
    format:
        ``None`` (default) executes the sparse operand in whatever format
        it arrives in.  ``"auto"`` lets :mod:`repro.tuner` profile the
        operand and pick the format (the operand may then also be a plain
        dense array).  A format name (``"coo"``, ``"ell"``, ``"groupcoo"``,
        ``"blockcoo"``, ``"blockgroupcoo"``) or a
        :class:`~repro.formats.base.SparseFormat` subclass forces that
        format.
    sparse_operand:
        Name of the operand to (re)format.  Only needed when the choice is
        ambiguous — by default the single ``SparseFormat`` operand, or the
        single sufficiently-sparse 2-D dense operand, is used.
    """

    def __init__(
        self,
        expression: str,
        backend: str = "inductor",
        config: Any | None = None,
        format: Any | None = None,
        sparse_operand: str | None = None,
    ):
        _check_backend(backend)
        self.expression = expression
        self.statement: EinsumStatement = parse_einsum(expression)
        self.backend = backend
        self.config = config
        self.format = format
        self.sparse_operand = sparse_operand
        #: The operator and rewritten expression of the most recent call.
        self.operator: Insum | None = None
        self.rewritten_expression: str | None = None
        self._last_compiled: Any | None = None
        #: The most recent :class:`repro.tuner.auto.TunerDecision` made by
        #: the ``format="auto"`` path, with its ``reason`` (``None`` otherwise).
        self.last_decision: Any | None = None
        from repro.runtime.plan_cache import BoundedMemo

        #: Each sparse operand's bindings (:class:`_Bound`), keyed by the dense
        #: operands' names, shapes and dtypes: they live as long as the operand.
        self._bindings: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: One :class:`Insum` per rewritten expression (one per format: a
        #: rewritten expression carries no extent), and one binding template
        #: (:class:`_Layout`) per operand layout and dense shapes.
        self._operators: dict[str, Insum] = {}
        self._layouts = BoundedMemo("einsum_layouts")

    # -- format selection ----------------------------------------------------
    def _pick_reformat_target(self, operands: dict[str, Any]) -> str:
        """Name of the operand the ``format=`` request applies to."""
        factor_names = [f.tensor for f in self.statement.rhs.factors]
        if self.sparse_operand is not None:
            if self.sparse_operand not in operands:
                raise EinsumValidationError(
                    f"sparse_operand {self.sparse_operand!r} is not bound to a value"
                )
            return self.sparse_operand
        sparse_names = [
            name
            for name in factor_names
            if isinstance(operands.get(name), SparseFormat)
        ]
        if len(sparse_names) == 1:
            return sparse_names[0]
        if len(sparse_names) > 1:
            raise EinsumValidationError(
                f"multiple sparse operands {sparse_names}; pass sparse_operand= to pick "
                "the one to (re)format"
            )
        dense_candidates = []
        for name in dict.fromkeys(factor_names):
            value = operands.get(name)
            if isinstance(value, SparseFormat):
                continue
            arr = np.asarray(value) if value is not None else None
            if arr is not None and arr.ndim == 2:
                density = np.count_nonzero(arr) / max(1, arr.size)
                if density < 0.5:
                    dense_candidates.append(name)
        if dense_candidates:
            # Several qualify (e.g. the dense side happens to be sparse
            # too): follow the paper's convention that the sparse operand
            # is written first, and take the earliest RHS factor.
            return dense_candidates[0]
        raise EinsumValidationError(
            "format= needs an identifiable sparse operand (a SparseFormat instance or a "
            "2-D dense array of density < 0.5) — pass sparse_operand= to disambiguate"
        )

    def _infer_n_cols(self, operands: dict[str, Any], target: str) -> int:
        """Dense-operand width the tuner optimises for (64 when unknown)."""
        for factor in self.statement.rhs.factors:
            if factor.tensor == target or factor.tensor not in operands:
                continue
            value = operands[factor.tensor]
            if isinstance(value, SparseFormat):
                continue
            arr = np.asarray(value)
            if arr.ndim >= 2:
                return int(arr.shape[-1])
        return 64

    def _apply_format(self, operands: dict[str, Any]) -> dict[str, Any]:
        """Convert the target operand per the ``format=`` request."""
        target = self._pick_reformat_target(operands)
        operand = operands[target]
        if isinstance(operand, SparseFormat) and operand.format_name == "StackedSparse":
            # Re-stacking a batch is the job of StackedSparse.from_dense
            # (which itself accepts format="auto"); pass it through.
            return operands

        if self.format == "auto":
            from repro.tuner.auto import auto_format_with_decision

            n_cols = self._infer_n_cols(operands, target)
            converted, self.last_decision = auto_format_with_decision(operand, n_cols=n_cols)
        else:
            converted = _forced_format_operand(self.format, operand)

        updated = dict(operands)
        updated[target] = converted
        return updated

    # -- rewriting -----------------------------------------------------------
    def _bound(self, operands: dict[str, Any]) -> tuple[_Bound, dict[str, Any]]:
        """The binding of a call (built on a miss), and the call's operands
        after the ``format=`` conversion.

        A binding depends only on the sparse operand and every operand's name
        and the dense ones' shapes and dtypes, so the serving steady state —
        the same format instance, fresh dense values — is one lookup in that
        operand's memo, however many other operands are alive.
        """
        if self.format is not None:
            operands = self._apply_format(operands)
        key, sparse = [], []
        for name, value in operands.items():
            if isinstance(value, SparseFormat):
                key.append(name)
                sparse.append((name, value))
            else:
                array = value if value.__class__ is np.ndarray else np.asarray(value)
                key.append((name, array.shape, array.dtype))
        if len(sparse) != 1:
            return self._bind(operands), operands
        name, operand = sparse[0]
        bindings = self._bindings.get(operand)
        if bindings is None:
            from repro.runtime.plan_cache import BoundedMemo

            bindings = self._bindings.setdefault(operand, BoundedMemo("einsum_bindings"))
        key = tuple(key)
        bound = bindings.get(key)
        if bound is None:
            bound = bindings.put(key, self._bind_operand(key, name, operand, operands))
        return bound, operands

    def _bind_operand(
        self, key: tuple, name: str, operand: SparseFormat, operands: dict[str, Any]
    ) -> _Bound:
        """The binding of an operand new to this call signature: from its
        layout's template (:class:`_Layout`) where an operand of that layout
        was bound before, whatever its extents — no rewrite, no extent
        inference; its arrays' shapes fill in the plan key — else the full
        pipeline, whose binding then becomes the template."""
        found = _layout(operand, name)
        if found is None:
            return self._bind(operands)
        layout, arrays = found
        template = self._layouts.get((key, layout))
        if template is not None:
            return template.bind(arrays)
        bound = self._bind(operands)
        template = _Layout.of(bound, arrays)
        if template is not None:
            self._layouts.put((key, layout), template)
        return bound

    def _bind(self, operands: dict[str, Any]) -> _Bound:
        """The full rewrite pipeline (first call per signature)."""
        statement = self.statement
        sparse_names = [
            name
            for name in (f.tensor for f in statement.rhs.factors)
            if isinstance(operands.get(name), SparseFormat)
        ]
        if not sparse_names:
            raise EinsumValidationError(
                "sparse_einsum expects at least one operand bound to a SparseFormat instance; "
                "for fully dense Einsums use insum() directly"
            )
        if len(sparse_names) > 1:
            raise EinsumValidationError(
                "sparse_einsum supports a single sparse operand (sparse-dense kernels); got "
                f"{sparse_names}"
            )
        sparse_name = sparse_names[0]
        sparse_operand: SparseFormat = operands[sparse_name]

        operand_access = next(f for f in statement.rhs.factors if f.tensor == sparse_name)
        index_names = [ix.name for ix in operand_access.indices if isinstance(ix, IndexVar)]
        if len(index_names) != operand_access.ndim:
            raise EinsumValidationError(
                f"the sparse operand {sparse_name!r} must be accessed with plain index variables"
            )

        extents = _infer_logical_extents(statement, operands)

        output_name = statement.lhs.tensor
        output_shape = tuple(
            extents[ix.name] for ix in statement.lhs.indices if isinstance(ix, IndexVar)
        )
        dense_tensors = {
            name: np.asarray(value)
            for name, value in operands.items()
            if not isinstance(value, SparseFormat)
        }
        plan = sparse_operand.rewrite_plan(sparse_name, index_names)
        kept: dict[str, np.ndarray] = {}
        if output_name not in dense_tensors:
            rhs_names = [f.tensor for f in statement.rhs.factors]
            output_dtype = np.result_type(
                plan.tensors[plan.value_access.tensor],
                *(dense_tensors[name] for name in rhs_names if name in dense_tensors),
            )
            kept[output_name] = fresh_output(output_shape, output_dtype)
        shapes = {name: tuple(arr.shape) for name, arr in {**dense_tensors, **kept}.items()}
        rewrite = rewrite_sparse_operand(statement, plan, shapes)

        blocked = {**rewrite.reshapes, output_name: rewrite.output_reshape}
        if output_name in kept and rewrite.output_reshape is not None:
            kept[output_name] = kept[output_name].reshape(rewrite.output_reshape)
        kept.update(plan.tensors)
        operator = self._operators.get(rewrite.expression)
        if operator is None:
            operator = Insum(rewrite.expression, backend=self.backend, config=self.config)
            operator = self._operators.setdefault(rewrite.expression, operator)
        given = {name: blocked.get(name) for name in dense_tensors}
        return operator.bind(given, kept, operands, shapes[output_name])

    # -- execution --------------------------------------------------------------
    def __call__(self, **operands: Any) -> np.ndarray:
        """Execute the Einsum; sparse operands may be SparseFormat objects.

        A repeat call of one execution signature is one lookup in the sparse
        operand's bindings, one counted plan-cache lookup and the kernel.

        Parameters
        ----------
        **operands:
            Logical tensors by name.  Exactly one right-hand-side operand
            must be sparse — a :class:`~repro.formats.base.SparseFormat`
            instance, or (with ``format=`` set) a dense array to convert.

        Returns
        -------
        numpy.ndarray
            The result in the logical output shape.
        """
        bound, operands = self._bound(operands)
        compiled = bound.compile(operands)
        self.operator, self.rewritten_expression = bound.operator, bound.operator.expression
        if self.backend == "inductor":
            self._last_compiled = compiled
        return bound.run(compiled, operands)

    def estimate(self, **operands: Any) -> Any:
        """Compile for the given operands without executing.

        Used by the benchmark harnesses to obtain the modelled GPU cost at
        paper-scale problem sizes without paying for the NumPy execution.
        """
        bound, operands = self._bound(operands)
        self.operator, self.rewritten_expression = bound.operator, bound.operator.expression
        self._last_compiled = compiled = bound.compile(operands)
        return compiled

    # -- introspection -------------------------------------------------------------
    @property
    def compiled(self) -> Any | None:
        """The most recent :class:`CompiledInsum` (inductor backend only)."""
        return self._last_compiled

    @property
    def modeled_ms(self) -> float | None:
        """Modelled GPU time of the most recent execution, in milliseconds.

        The default pricing (fp32 values, autotuned tiles, RTX 3090);
        ``compiled.price(...)`` prices any other.
        """
        return None if self._last_compiled is None else self._last_compiled.estimated_ms

    @property
    def compile_seconds(self) -> float:
        """Cumulative frontend + backend compile time spent by this operator."""
        return sum(operator.compile_seconds for operator in self._operators.values())


def sparse_einsum(
    expression: str,
    backend: str = "inductor",
    config: Any | None = None,
    format: Any | None = None,
    sparse_operand: str | None = None,
    **operands: Any,
) -> np.ndarray:
    """Execute a format-agnostic Einsum whose operands may be sparse formats.

    Exactly one right-hand-side operand must be sparse — a
    :class:`~repro.formats.base.SparseFormat` instance, or (with
    ``format`` set) a dense array to be converted.  The sparse operand is
    rewritten into the format-conscious indirect Einsum for its storage
    format, dense operands are viewed with blocked shapes when required,
    and the result is returned in the *logical* output shape.

    Parameters
    ----------
    expression:
        A classic Einsum over logical tensors, e.g.
        ``"C[m,n] += A[m,k] * B[k,n]"``.
    backend:
        ``"inductor"`` (default) or ``"eager"``.
    config:
        Optional :class:`~repro.core.inductor.config.InductorConfig`.
    format:
        ``None`` keeps the operand's format; ``"auto"`` lets
        :mod:`repro.tuner` pick it; a name or class forces one.
    sparse_operand:
        Name of the operand ``format`` applies to, when ambiguous.
    **operands:
        Logical tensors by name.

    Returns
    -------
    numpy.ndarray
        The result in the logical output shape.

    Examples
    --------
    >>> from repro.formats import GroupCOO
    >>> C = sparse_einsum("C[m,n] += A[m,k] * B[k,n]", A=GroupCOO.from_dense(A), B=B)
    >>> C = sparse_einsum("C[m,n] += A[m,k] * B[k,n]", A=A_dense, B=B, format="auto")
    """
    return SparseEinsum(
        expression,
        backend=backend,
        config=config,
        format=format,
        sparse_operand=sparse_operand,
    )(**operands)
