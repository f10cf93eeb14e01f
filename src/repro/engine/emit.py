"""The second emitter: a plan's loop nest as one fused C function.

:class:`~repro.engine.specialize.SpecializedKernel` lowers a plan once and
emits it twice.  The step list materialises every arrow between gather,
multiply and scatter as a NumPy array; this module writes the kernel the
paper's backend generates — metadata load, indirect load, multiply-accumulate,
scattered store, no temporary in between — for the plans where that wins:

* **the rule** (:func:`covers`) — the plan is *pure gather–scale–accumulate*:
  no reduction variable is a directly indexed axis of two factors, so there is
  no dense ``K`` group a BLAS dot would do better (ELL, GroupCOO and COO SpMM,
  their stacked forms, SpMV — not the block formats, sparse convolution or the
  tensor product, whose steps are untouched);
* **the source** (:func:`_source`) — loops in storage order: the output
  variables, then the reduction variables, with the trailing output variable
  innermost when every access carries it as its contiguous last axis (the
  vectorisable ``n`` of SpMM).  Every index is loaded once, at the depth that
  binds its subscripts, and compared against the extent it indexes — an
  out-of-range value returns its position and :class:`Emitted` raises
  ``IndexError``, as ``np.take`` does; the store is a plain ``+=`` (one thread:
  no atomics), so additions happen in ``np.add.at``'s order and a coalesced
  execution equals the per-request ones bit for bit.  The source depends on the
  plan's *structure* only — canonical names, every extent a runtime argument,
  float32 and float64 side by side — so a new shape, pattern or tensor
  spelling never recompiles;
* **the object** (:func:`_library`) — built with the system ``cc`` (``$CC``
  honoured) under :data:`FLAGS`, synchronously, when a plan is built and
  neither this process nor the disk cache
  (``${XDG_CACHE_HOME:-~/.cache}/repro/kernels``, ours alone) has it; the key
  names the source, the compiler binary, the flags and the CPU.  No compiler,
  a failed compile, an unwritable cache: the reason is kept and the plan runs
  its steps for its lifetime.

``import ctypes`` and ``import subprocess`` appear in ``repro.engine`` here
only.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.einsum.ast import EinsumStatement, IndexVar, IntLiteral, TensorAccess
from repro.core.insum.planner import InsumPlan

#: The one set of compiler flags.  ``-ffp-contract=off``: a multiply then an
#: add, never a fused one — the bits of a sequential NumPy loop (costs <= 5%).
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
_COMPILE_SECONDS = 60
_INSTANCES = {
    np.dtype(np.float32): ("float", "kernel_f32"),
    np.dtype(np.float64): ("double", "kernel_f64"),
}
_INDEX = np.dtype(np.int64)

#: Source -> the functions of its loaded library by dtype, or the reason there
#: is none.  Per process (a loaded object stays loaded): survives
#: ``clear_plan_cache()`` and fork.
_LOADED: dict[str, "dict[np.dtype, Callable[[int, int], int]] | str"] = {}


def covers(plan: InsumPlan) -> bool:
    """Whether ``plan`` is pure gather–scale–accumulate: no reduction variable
    is a directly indexed axis of two factors (that is a dense ``K`` group, the
    dot's), and every tensor is one of output, value operand or index."""
    direct = [
        {ix.name for ix in factor.access.indices if isinstance(ix, IndexVar)}
        for factor in plan.factors
    ]
    if any(sum(var in axes for axes in direct) > 1 for var in plan.info.reduction_vars):
        return False
    operands = {factor.access.tensor for factor in plan.factors}
    indices = set(plan.info.gather_tensors)
    return plan.info.output_name not in operands | indices and not operands & indices


def _loop_order(statement: EinsumStatement) -> list[str]:
    """Storage order; the trailing output variable innermost when contiguous."""
    out, reduction = statement.output_index_vars(), statement.reduction_index_vars()
    last = IndexVar(out[-1])
    carriers = [a for a in statement.all_accesses() if last in a.index_vars()]
    if all(a.indices[-1] == last and a.index_vars().count(last) == 1 for a in carriers):
        out, reduction = out[:-1], [*reduction, last.name]
    return [*out, *reduction]


@functools.lru_cache(maxsize=256)
def _source(statement: EinsumStatement, inputs: tuple[str, ...]) -> tuple[str, list, list]:
    """``(function text, loop order, bounds checks)`` of the statement's loop nest.

    Tensors are ``T<position in inputs>``, loop variables ``i<depth>``; the
    dimension argument ``D`` holds the loop extents, then every tensor's shape.
    A check is ``(index tensor, indexed tensor, axis)``, one per indirect index
    of the statement; a loaded index wraps once when negative, as in NumPy, and
    a failing one returns ``1 + check + len(checks) * (its flat position)``.
    """
    order = _loop_order(statement)
    loop = {var: f"i{depth}" for depth, var in enumerate(order)}
    tensor = {name: f"T{slot}" for slot, name in enumerate(inputs)}
    accesses = statement.all_accesses()
    nested = [inner for access in accesses for inner in access.nested_accesses()]
    rank = {access.tensor: access.ndim for access in [*accesses, *nested]}
    uses = list(
        dict.fromkeys(
            (ix, access.tensor, axis)
            for access in accesses
            for axis, ix in enumerate(access.indices)
            if isinstance(ix, TensorAccess)
        )
    )
    loaded = {use: f"k{number}" for number, use in enumerate(uses)}

    def offset(access: TensorAccess) -> str:
        """Row-major position of ``access`` (Horner over its indices)."""
        expr = "0"
        for axis, ix in enumerate(access.indices):
            if isinstance(ix, IntLiteral):
                term = str(ix.value)
            else:
                indirect = (ix, access.tensor, axis)
                term = loop[ix.name] if isinstance(ix, IndexVar) else loaded[indirect]
            expr = term if axis == 0 else f"({expr} * {tensor[access.tensor]}_{axis} + {term})"
        return expr

    def bound(access: TensorAccess, depth: int) -> bool:
        return all(order.index(var.name) <= depth for var in access.index_vars())

    lines = ["int64_t KERNEL(void *const *T, const int64_t *D) {"]
    lines.append("  real *restrict T0 = T[0];")
    indices = {inner.tensor for inner in nested}
    for slot, name in enumerate(inputs[1:], start=1):
        kind = "int64_t" if name in indices else "real"
        lines.append(f"  const {kind} *T{slot} = T[{slot}];")
    dims = [f"n{depth}" for depth in range(len(order))]
    for slot, name in enumerate(inputs):
        dims += [f"T{slot}_{axis}" for axis in range(rank[name])]
    declared = ", ".join(f"{dim} = D[{at}]" for at, dim in enumerate(dims))
    lines.append(f"  const int64_t {declared};")

    factors = dict(enumerate(statement.rhs.factors))
    product: dict[int, str] = {}
    pending = list(uses)
    for depth in range(-1, len(order)):
        pad = "  " * (depth + 2)
        if depth >= 0:
            var = loop[order[depth]]
            lines.append(f"{pad[2:]}for (int64_t {var} = 0; {var} < n{depth}; ++{var}) {{")
        for use in [use for use in pending if bound(use[0], depth)]:
            pending.remove(use)
            index, target, axis = use
            name, extent = loaded[use], f"{tensor[target]}_{axis}"
            lines += [
                f"{pad}const int64_t a{name} = {offset(index)};",
                f"{pad}int64_t {name} = {tensor[index.tensor]}[a{name}];",
                f"{pad}{name} += {name} < 0 ? {extent} : 0;  /* as np.take */",
                f"{pad}if ((uint64_t){name} >= (uint64_t){extent}) "
                f"return {1 + uses.index(use)} + {len(uses)} * a{name};",
            ]
        for position, access in list(factors.items()):
            if bound(access, depth):
                del factors[position]
                product[position] = f"{tensor[access.tensor]}[{offset(access)}]"
                if depth < len(order) - 1:  # invariant in the loops below: load it once
                    lines.append(f"{pad}const real f{position} = {product[position]};")
                    product[position] = f"f{position}"
    pad = "  " * (len(order) + 1)
    terms = " * ".join(product[position] for position in sorted(product))
    lines.append(f"{pad}T0[{offset(statement.lhs)}] += {terms};")
    lines += ["  " * depth + "}" for depth in range(len(order), 0, -1)]
    lines += ["  return 0;", "}"]
    checks = [(index.tensor, target, axis) for index, target, axis in uses]
    return "\n".join(lines), order, checks


def _unit(function: str) -> str:
    """The translation unit: ``function`` instantiated for float32 and float64."""
    parts = ["#include <stdint.h>"]
    for real, name in _INSTANCES.values():
        parts += [f"#define real {real}", f"#define KERNEL {name}", function]
        parts += ["#undef real", "#undef KERNEL"]
    return "\n".join(parts) + "\n"


def _host() -> str:
    """What ``-march=native`` compiled for: the machine and its CPU flags."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            flags = next((line for line in cpuinfo if line[:5] in ("flags", "Featu")), "")
    except OSError:
        flags = platform.processor()
    return platform.machine() + flags


def _ours(path: str) -> None:
    """Raise unless this user owns ``path`` and nobody else can write it."""
    status = os.stat(path)
    if status.st_uid != os.getuid() or status.st_mode & 0o022:
        raise PermissionError(f"{path} is not ours alone")


def _cached(directory: str, key: str) -> ctypes.CDLL | None:
    """Load the object stored under ``key``, if it is the one that was written.

    An object is named by its key and the digest of its own bytes: a file that
    is truncated, altered or not ours alone is removed, never handed to
    ``dlopen`` (which maps a short file and faults inside it).
    """
    for name in os.listdir(directory):
        if name.startswith(f"{key}-") and name.endswith(".so"):
            path = os.path.join(directory, name)
            with contextlib.suppress(OSError):
                _ours(path)
                with open(path, "rb") as stored:
                    if name == f"{key}-{hashlib.sha256(stored.read()).hexdigest()[:16]}.so":
                        return ctypes.CDLL(path)
            os.unlink(path)
    return None


def _build(unit: str) -> ctypes.CDLL:
    """The object of ``unit`` from the disk cache, compiling it on a miss."""
    command = shlex.split(os.environ.get("CC") or "cc")
    compiler = shutil.which(command[0])
    if compiler is None:
        raise FileNotFoundError(f"no C compiler: {command[0]!r} is not on PATH")
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    directory = os.path.join(base, "repro", "kernels")
    os.makedirs(directory, mode=0o700, exist_ok=True)
    _ours(directory)
    binary = os.stat(os.path.realpath(compiler))
    identity = [os.path.realpath(compiler), binary.st_size, binary.st_mtime_ns, *command[1:]]
    key = hashlib.sha256(repr((unit, identity, FLAGS, _host())).encode()).hexdigest()[:32]
    library = _cached(directory, key)
    if library is None:
        scratch = os.path.join(directory, f"{key}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            subprocess.run(
                [compiler, *command[1:], *FLAGS, "-x", "c", "-", "-o", scratch],
                input=unit.encode(),
                capture_output=True,
                timeout=_COMPILE_SECONDS,
                check=True,
                env={**os.environ, "TMPDIR": directory},
            )
            with open(scratch, "rb") as built:
                digest = hashlib.sha256(built.read()).hexdigest()[:16]
            os.replace(scratch, os.path.join(directory, f"{key}-{digest}.so"))
        finally:
            with contextlib.suppress(OSError):
                os.unlink(scratch)
        library = _cached(directory, key)
        if library is None:
            raise OSError(f"the object just built under {directory} did not verify")
    return library


def _library(unit: str) -> "dict[np.dtype, Callable[[int, int], int]] | str":
    """The functions of ``unit`` by dtype, or why there are none; decided once a process."""
    found = _LOADED.get(unit)
    if found is None:
        try:
            library = _build(unit)
        except (OSError, subprocess.SubprocessError) as error:
            found = f"{type(error).__name__}: {error}"
        else:
            found = {dtype: getattr(library, name) for dtype, (_, name) in _INSTANCES.items()}
            for function in found.values():
                function.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
                function.restype = ctypes.c_int64
        found = _LOADED.setdefault(unit, found)
    return found


@dataclass(frozen=True)
class Emitted:
    """A plan's compiled loop nest and what it may be called with."""

    #: The C function (``real`` = float or double), as ``describe()`` prints it.
    source: str
    functions: dict[np.dtype, Callable[[int, int], int]]
    #: Per input of the plan, output first: the shape it was compiled for and
    #: whether it is an index tensor.
    layout: tuple[tuple[tuple[int, ...], bool], ...]
    #: The ``D`` argument (loop extents, then every shape) — fixed per plan.
    dims: np.ndarray
    #: ``(index slot, indexed tensor, axis, extent)`` per bounds check of the source.
    checks: tuple[tuple[int, str, int, int], ...]

    def operands(self, arrays: list[np.ndarray], dtype: np.dtype) -> list[np.ndarray] | None:
        """This call's operands as the loop nest reads them, or ``None``.

        ``arrays`` are the plan's inputs, the base first.  The loop nest takes
        the plan's shapes, float32 or float64 values of the one ``dtype`` and
        int64 indices; an operand that is not C-contiguous and aligned is
        copied (``np.take`` would have copied its rows too), so where an
        operand happens to lie never changes the bits of a result.
        """
        if dtype not in self.functions or arrays[0].shape != self.layout[0][0]:
            return None
        taken = []
        for array, (shape, is_index) in zip(arrays[1:], self.layout[1:]):
            if array.shape != shape or array.dtype != (_INDEX if is_index else dtype):
                return None
            if not (array.flags.c_contiguous and array.flags.aligned):
                array = np.require(array, requirements="CA")
            taken.append(array)
        return taken

    def __call__(self, result: np.ndarray, operands: list[np.ndarray]) -> None:
        """Accumulate into ``result`` (this kernel's own C-contiguous array)."""
        pointers = np.array([array.ctypes.data for array in (result, *operands)], dtype=np.uintp)
        code = self.functions[result.dtype](pointers.ctypes.data, self.dims.ctypes.data)
        if code:
            position, check = divmod(code - 1, len(self.checks))
            slot, target, axis, extent = self.checks[check]
            value = operands[slot - 1].reshape(-1)[position]
            where = f"axis {axis} of {target} with size {extent}, flat position {position}"
            raise IndexError(f"index {value} is out of bounds for {where}")


def emit(plan: InsumPlan, inputs: list[str]) -> "Emitted | str":
    """The emitted kernel of a plan :func:`covers` — or the reason it has none
    on this machine and runs its steps.  ``inputs``: its tensors, output first."""
    function, order, checks = _source(plan.statement, tuple(inputs))
    functions = _library(_unit(function))
    if isinstance(functions, str):
        return functions
    info = plan.info
    shapes = [tuple(info.tensor_shapes[name]) for name in inputs]
    dims = [info.extents[var] for var in order] + [extent for shape in shapes for extent in shape]
    return Emitted(
        source=function,
        functions=functions,
        layout=tuple((shape, name in info.gather_tensors) for shape, name in zip(shapes, inputs)),
        dims=np.array(dims, dtype=np.int64),
        checks=tuple(
            (inputs.index(index), target, axis, info.tensor_shapes[target][axis])
            for index, target, axis in checks
        ),
    )
