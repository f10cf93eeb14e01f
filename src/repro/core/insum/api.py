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

from typing import Any

import numpy as np

from repro.core.einsum.ast import EinsumStatement, IndexVar
from repro.core.einsum.parser import parse_einsum
from repro.core.einsum.rewriting import rewrite_sparse_operand
from repro.core.einsum.validation import validate
from repro.core.insum.planner import InsumPlan, plan_insum
from repro.errors import EinsumValidationError, LoweringError
from repro.formats.base import SparseFormat
from repro.utils.timing import Timer


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
    check_bounds:
        Validate that index-tensor values are in range (adds a scan of the
        metadata; disable for large pre-validated inputs).
    """

    def __init__(
        self,
        expression: str,
        backend: str = "inductor",
        config: Any | None = None,
        check_bounds: bool = True,
    ):
        if backend not in ("inductor", "eager"):
            raise LoweringError(f"unknown backend {backend!r}; use 'inductor' or 'eager'")
        self.expression = expression
        self.statement: EinsumStatement = parse_einsum(expression)
        self.backend = backend
        self.config = config
        self.check_bounds = check_bounds
        self.last_plan: InsumPlan | None = None
        self.compile_seconds: float = 0.0
        #: Names of tensors used as indices (gather/scatter metadata) —
        #: the arrays whose *values* the bounds check inspects.
        self._index_tensor_names: tuple[str, ...] = tuple(
            dict.fromkeys(
                nested.tensor
                for access in self.statement.all_accesses()
                for nested in access.nested_accesses()
            )
        )

    # -- compilation ------------------------------------------------------------
    def _signature(self, tensors: dict[str, np.ndarray]) -> tuple:
        """Shape **and** dtype of every operand.

        Dtypes must participate: two calls with identical shapes but
        different dtypes (say fp32 and fp64 values) would otherwise share
        one compiled kernel and one cost report.
        """
        return tuple(
            sorted(
                (name, np.asarray(t).shape, np.asarray(t).dtype.str)
                for name, t in tensors.items()
            )
        )

    def compile(self, **tensors: np.ndarray):
        """Plan and compile for the given tensors, returning the compiled kernel.

        Compilation is routed through the process-wide
        :class:`~repro.runtime.plan_cache.PlanCache`, so distinct
        :class:`Insum` instances (and one-shot :func:`insum` calls) reuse
        each other's kernels.  On a cache hit with ``check_bounds=True``
        the validation pass re-runs only when the metadata arrays are
        *new objects*: bounds depend on the metadata values, so verdicts
        are memoized per (plan key, metadata array identity) — the
        serving steady state, where the same format instance backs every
        request, validates once.
        """
        from repro.runtime.plan_cache import CachedPlan, get_plan_cache, plan_key

        cache = get_plan_cache()
        key = plan_key(
            self.expression,
            self.backend,
            self.config,
            self.check_bounds,
            self._signature(tensors),
        )
        with Timer() as timer:
            entry = cache.get(key)
            if entry is None:
                plan = plan_insum(self.statement, tensors, check_bounds=self.check_bounds)
                if self.backend == "eager":
                    from repro.engine.specialize import materialize_plan

                    compiled = materialize_plan(plan)
                else:
                    from repro.core.inductor import compile_plan

                    compiled = compile_plan(plan, config=self.config)
                entry = cache.put(key, CachedPlan(plan=plan, compiled=compiled))
            elif self.check_bounds:
                bounds_key = self._bounds_memo_key(key, tensors)
                if bounds_key is None or bounds_key not in _VALIDATED_BOUNDS:
                    validate(self.statement, tensors, check_bounds=True)
                    if bounds_key is not None:
                        _remember_bounds(bounds_key)
        self.compile_seconds += timer.elapsed
        self.last_plan = entry.plan
        return entry.compiled

    def _bounds_memo_key(self, plan_key_tuple: tuple, tensors: dict) -> tuple | None:
        """Memo key for a bounds-check verdict, or ``None`` when unkeyable.

        The verdict is value-dependent, so the key pairs the full plan key
        (shapes fix every extent the values are checked against) with the
        identity token of each metadata array.  Non-ndarray metadata (a
        list that ``np.asarray`` would copy) cannot be identity-tracked
        and disables the memo for the call.
        """
        if not self._index_tensor_names:
            # No metadata: the verdict depends only on shapes, which the
            # plan key already fixes — one verdict per plan key.
            return (plan_key_tuple,)
        from repro.engine.fingerprint import array_token

        tokens = []
        for name in self._index_tensor_names:
            value = tensors.get(name)
            if not isinstance(value, np.ndarray):
                return None
            tokens.append(array_token(value))
        return (plan_key_tuple, tuple(tokens))

    def __call__(self, **tensors: np.ndarray) -> np.ndarray:
        """Execute the Einsum on the given tensors."""
        compiled = self.compile(**tensors)
        return compiled.run(tensors)


#: Bounds-check verdicts memoized per (plan key, metadata identity); a
#: bounded FIFO so a long-lived process cannot accumulate keys forever.
_VALIDATED_BOUNDS: dict = {}
_VALIDATED_BOUNDS_MAX = 4096


def _remember_bounds(key: tuple) -> None:
    if len(_VALIDATED_BOUNDS) >= _VALIDATED_BOUNDS_MAX:
        _VALIDATED_BOUNDS.clear()
    _VALIDATED_BOUNDS[key] = True


def fresh_output(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """The all-zero base of a call that binds no output operand.

    ``dtype`` is the right-hand-side operands' common type: float32 in,
    float32 out.  A read-only zero-stride view rather than a buffer: every
    executor builds the result it owns from the base before accumulating
    (the fused one recognises the view and allocates instead of copying).
    """
    return np.broadcast_to(np.zeros((), dtype=dtype), shape)


def insum(
    expression: str,
    backend: str = "inductor",
    config: Any | None = None,
    check_bounds: bool = True,
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
    check_bounds:
        Validate that index-tensor values are in range.
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
            check_bounds=check_bounds,
            format=format,
            sparse_operand=sparse_operand,
        )(**tensors)
    return Insum(expression, backend=backend, config=config, check_bounds=check_bounds)(**tensors)


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


class SparseEinsum:
    """A reusable format-agnostic sparse Einsum.

    Wraps the rewrite (format-agnostic → format-conscious) plus a reusable
    :class:`Insum` operator, so applications can execute the same Einsum
    many times and still inspect the compiled kernel, its modelled GPU
    cost, and the generated Triton-style source.

    Parameters
    ----------
    expression:
        A format-agnostic Einsum over logical tensors, e.g.
        ``"C[m,n] += A[m,k] * B[k,n]"``.
    backend:
        ``"inductor"`` (default) or ``"eager"``.
    config:
        Optional :class:`~repro.core.inductor.config.InductorConfig`.
    check_bounds:
        Validate index-tensor values at compile time.
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
        check_bounds: bool = True,
        format: Any | None = None,
        sparse_operand: str | None = None,
    ):
        self.expression = expression
        self.statement: EinsumStatement = parse_einsum(expression)
        self.backend = backend
        self.config = config
        self.check_bounds = check_bounds
        self.format = format
        self.sparse_operand = sparse_operand
        self.operator: Insum | None = None
        self.rewritten_expression: str | None = None
        self._last_compiled: Any | None = None
        #: The most recent :class:`repro.tuner.auto.TunerDecision` made by
        #: the ``format="auto"`` path, with its ``reason`` (``None`` otherwise).
        self.last_decision: Any | None = None
        #: Memoized rewrites keyed by (sparse identity, dense shapes); see
        #: :meth:`_prepare`.
        self._prepare_memo: dict[tuple, tuple] = {}

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
    def _prepare(self, operands: dict[str, Any]):
        """Rewrite for the sparse operand and assemble execution tensors.

        The rewrite (and the output-shape bookkeeping) depends only on the
        sparse operand's identity and the dense operands' shapes, so it is
        memoized per call signature: the serving steady state — the same
        format instance, fresh dense values — skips the whole rewrite
        pipeline and only re-binds tensors.
        """
        if self.format is not None:
            operands = self._apply_format(operands)
        memoized = self._prepare_from_memo(operands)
        if memoized is not None:
            return memoized
        return self._prepare_uncached(operands)

    def _prepare_uncached(self, operands: dict[str, Any]):
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
            if name != sparse_name and not isinstance(value, SparseFormat)
        }
        plan = sparse_operand.rewrite_plan(sparse_name, index_names)
        output_dtype = None
        if output_name not in dense_tensors:
            rhs_names = [f.tensor for f in statement.rhs.factors]
            output_dtype = np.result_type(
                plan.tensors[plan.value_access.tensor],
                *(dense_tensors[name] for name in rhs_names if name in dense_tensors),
            )
            dense_tensors[output_name] = fresh_output(output_shape, output_dtype)

        shapes = {name: tuple(arr.shape) for name, arr in dense_tensors.items()}
        rewrite = rewrite_sparse_operand(statement, plan, shapes)

        execution_tensors = dict(dense_tensors)
        execution_tensors.update(rewrite.tensors)
        for name, new_shape in rewrite.reshapes.items():
            execution_tensors[name] = execution_tensors[name].reshape(new_shape)
        logical_output_shape = execution_tensors[output_name].shape
        if rewrite.output_reshape is not None:
            execution_tensors[output_name] = execution_tensors[output_name].reshape(
                rewrite.output_reshape
            )
        key = self._prepare_memo_key(operands)
        if key is not None:
            if len(self._prepare_memo) >= 16:
                self._prepare_memo.clear()
            self._prepare_memo[key] = (
                rewrite,
                sparse_name,
                output_name,
                tuple(output_shape),
                output_dtype,
                logical_output_shape,
            )
        return rewrite, execution_tensors, logical_output_shape

    def _prepare_memo_key(self, operands: dict[str, Any]) -> tuple | None:
        """Identity/shape key under which the rewrite may be reused."""
        from repro.engine.fingerprint import array_token

        sparse_items = [
            (name, value)
            for name, value in operands.items()
            if isinstance(value, SparseFormat)
        ]
        if len(sparse_items) != 1:
            return None
        dense_sig = []
        for name in sorted(operands):
            value = operands[name]
            if isinstance(value, SparseFormat):
                continue
            arr = np.asarray(value)
            dense_sig.append((name, arr.shape, arr.dtype.str))
        try:
            sparse_token = array_token(sparse_items[0][1])
        except TypeError:
            return None
        return (sparse_items[0][0], sparse_token, tuple(dense_sig))

    def _prepare_from_memo(self, operands: dict[str, Any]):
        """Re-bind tensors under a memoized rewrite, or ``None`` on miss."""
        if not self._prepare_memo:
            return None
        key = self._prepare_memo_key(operands)
        if key is None:
            return None
        memo = self._prepare_memo.get(key)
        if memo is None:
            return None
        rewrite, sparse_name, output_name, output_shape, output_dtype, logical_shape = memo
        execution_tensors = {
            name: np.asarray(value)
            for name, value in operands.items()
            if name != sparse_name and not isinstance(value, SparseFormat)
        }
        if output_name not in execution_tensors:
            execution_tensors[output_name] = fresh_output(output_shape, output_dtype)
        execution_tensors.update(rewrite.tensors)
        for name, new_shape in rewrite.reshapes.items():
            execution_tensors[name] = execution_tensors[name].reshape(new_shape)
        if rewrite.output_reshape is not None:
            execution_tensors[output_name] = execution_tensors[output_name].reshape(
                rewrite.output_reshape
            )
        return rewrite, execution_tensors, logical_shape

    # -- execution --------------------------------------------------------------
    def _ensure_operator(self, rewrite) -> Insum:
        """The reusable operator for the rewritten expression."""
        if self.operator is None or self.rewritten_expression != rewrite.expression:
            self.rewritten_expression = rewrite.expression
            self.operator = Insum(
                rewrite.expression,
                backend=self.backend,
                config=self.config,
                check_bounds=self.check_bounds,
            )
        return self.operator

    def __call__(self, **operands: Any) -> np.ndarray:
        """Execute the Einsum; sparse operands may be SparseFormat objects.

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
        rewrite, tensors, logical_shape = self._prepare(operands)
        operator = self._ensure_operator(rewrite)
        # Compile once (through the plan cache) and run the same kernel, so
        # each execution costs exactly one cache lookup.
        compiled = operator.compile(**tensors)
        if self.backend == "inductor":
            self._last_compiled = compiled
        result = compiled.run(tensors)
        return np.asarray(result).reshape(logical_shape)

    def estimate(self, **operands: Any) -> Any:
        """Compile for the given operands without executing.

        Used by the benchmark harnesses to obtain the modelled GPU cost at
        paper-scale problem sizes without paying for the NumPy execution.
        """
        rewrite, tensors, _ = self._prepare(operands)
        operator = self._ensure_operator(rewrite)
        compiled = operator.compile(**tensors)
        self._last_compiled = compiled
        return compiled

    # -- introspection -------------------------------------------------------------
    @property
    def compiled(self) -> Any | None:
        """The most recent :class:`CompiledInsum` (inductor backend only)."""
        return self._last_compiled

    @property
    def modeled_ms(self) -> float | None:
        """Modelled GPU time of the most recent execution, in milliseconds."""
        return None if self._last_compiled is None else self._last_compiled.estimated_ms

    @property
    def compile_seconds(self) -> float:
        """Cumulative frontend + backend compile time spent by this operator."""
        return 0.0 if self.operator is None else self.operator.compile_seconds


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
