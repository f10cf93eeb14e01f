"""The second emitter: a plan's loop nest as one fused C function.

:class:`~repro.engine.specialize.SpecializedKernel` lowers a plan once and
emits it twice.  The step list materialises every arrow between gather,
multiply and scatter as a NumPy array; this module writes the kernel the
paper's backend generates — metadata load, indirect load, multiply-accumulate,
scattered store, no temporary in between, the dot in registers:

* **the rule** (:func:`covers`) — every tensor is one of output, value
  operand or index, and a plan with a dense reduction (a reduction variable
  that is a directly indexed axis of two factors: the block formats, sparse
  convolution, the tensor product) has the vector variable ``n`` — the trailing
  output variable, the contiguous last axis of every access that carries it —
  and an index tensor.  A dense reduction with no ``n`` keeps its steps (a plain
  nest loses to BLAS), and so does a contraction of dense operands alone (BLAS
  blocks it for the cache; the tile counts on a gathered panel being small);
* **the source** (:func:`_source`) — loops in storage order: the output
  variables, then the reduction variables.  Without a dense reduction ``n``
  moves innermost (the vectorisable axis of SpMM) and the store is a plain
  ``+=``.  With one, the last output loops step by register tiles — rows of the
  variable before ``n`` where no ``n``-carrying factor depends on it (``q`` of
  the convolution, ``bm`` of a block) times vectors of ``n`` — so the ``c x m``
  panel is read once per tile of rows, not once per update.  The accumulators
  are ``__attribute__((vector_size))`` vectors: which axis is vectorised is
  stated by their type, not left to the auto-vectoriser's choice of loop.  Every
  index is loaded at the depth that binds its subscripts (per row of a tile
  where they include the row variable) and compared against the extent it
  indexes before it is used — an out-of-range value returns its position and
  :class:`Emitted` raises ``IndexError``, as ``np.take`` does.  The source
  depends on the plan's *structure* only — canonical names, every extent a
  runtime argument, float32 and float64 side by side, the vector width from
  the compiler's own macros — so a new shape, pattern or tensor spelling never
  recompiles;
* **the numerics** — one thread, a multiply then an add (never a fused one),
  additions in ``np.add.at``'s order; a dense reduction is summed per update,
  from zero, in storage order, then added to the output — whatever the tile
  position, row instance or vector width.  So a result has the same bytes on
  every machine, a coalesced execution equals the per-request ones bit for
  bit, and a tiled result differs from the steps' BLAS dot by reassociation only;
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
    """Whether ``plan`` has a loop nest here: every tensor is one of output,
    value operand or index, and a dense reduction comes with an index tensor
    and the vector variable its register tile is made of (:func:`_loop_order`);
    a scalar output has none."""
    operands = {factor.access.tensor for factor in plan.factors}
    indices = set(plan.info.gather_tensors)
    if not plan.output_subscripts or plan.info.output_name in operands | indices:
        return False
    return not operands & indices and _loop_order(plan.statement) is not None


def _loop_order(statement: EinsumStatement) -> tuple[list[str], str | None, str | None] | None:
    """``(loop order, the tile's vector variable, the tile's row variable)``.

    The vector variable ``n`` is the trailing output variable when every access
    that carries it has it as its contiguous last axis.  Without a dense
    reduction — a reduction variable that is a directly indexed axis of two
    factors — there is no tile: storage order, ``n`` innermost.  With one, the
    order is storage order and the last output loops step by tiles: ``n`` by
    vectors and, before it, the row variable when no ``n``-carrying factor
    depends on it, directly or through an index (else a tile is one row);
    ``None`` when there is no ``n`` to tile or no index tensor at all (a plain
    nest, and a tile that is not blocked for the cache, lose to BLAS there).
    """
    out, reduction = statement.output_index_vars(), statement.reduction_index_vars()
    direct = [[ix for ix in factor.indices if isinstance(ix, IndexVar)] for factor in statement.rhs]
    dense = any(sum(IndexVar(var) in axes for axes in direct) > 1 for var in reduction)
    last = IndexVar(out[-1])
    carriers = [a for a in statement.all_accesses() if last in a.index_vars()]
    vector = all(a.indices[-1] == last and a.index_vars().count(last) == 1 for a in carriers)
    if dense and vector and any(a.nested_accesses() for a in statement.all_accesses()):
        row = out[-2] if len(out) > 1 else None
        shared = any(IndexVar(row) in a.index_vars() for a in carriers if a != statement.lhs)
        return [*out, *reduction], last.name, None if shared else row
    if dense:
        return None
    if vector:
        out, reduction = out[:-1], [*reduction, last.name]
    return [*out, *reduction], None, None


#: Rows, and vectors of ``n`` a row, of the full register tile (4 x 2: 5-34% slower)
#: and its edge instances.  A tiled function follows the bytes of a vector — from
#: the compiler's own macros, never from Python — and the two macros it expands.
_TILES = (4, 2, 1)
_TILED = """\
#if defined(__AVX512F__)
#define VB 64
#elif defined(__AVX__)
#define VB 32
#else
#define VB 16
#endif
#define ROWS(R) {{ \\
{rows} \\
}}
#define TILE(R, NV, vec, L) {{ \\
{tile} \\
}}
{function}"""


@functools.lru_cache(maxsize=256)
def _source(statement: EinsumStatement, inputs: tuple[str, ...]) -> tuple[str, list, list]:
    """``(function text, loop order, bounds checks)`` of the statement's loop nest.

    Tensors are ``T<position in inputs>``, loop variables ``i<depth>``; the
    dimension argument ``D`` holds the loop extents, then every tensor's shape.
    A check is ``(index tensor, indexed tensor, axis)``, one per indirect index
    of the statement; a loaded index wraps once when negative, as in NumPy, and
    a failing one returns ``1 + check + len(checks) * (its flat position)``.

    A dense reduction is two macros, instantiated for the full register tile
    and its edges: ``ROWS`` loads the row-dependent indices and steps ``n`` by
    tiles; ``TILE`` zeroes ``R x NV`` accumulators (vectors, unaligned by type;
    scalars for the last ``n % VL`` lanes), reduces into them and stores once.
    """
    order, lanes, row = _loop_order(statement)
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
    tiled = len(order) if lanes is None else order.index(row or lanes)  # its first depth
    if lanes:
        loop[lanes] = f"({loop[lanes]} + v * L)"
    if row:  # a loop variable and the indices through it: one per row of the tile
        loop[row] = f"({loop[row]} + r)"
        per_row = [use for use in uses if IndexVar(row) in use[0].index_vars()]
        loaded.update({use: f"x{uses.index(use)}[r]" for use in per_row})

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

    def element(access: TensorAccess, const: str = "const ") -> str:
        """What a tile's statement reads: a vector where ``access`` carries ``n``."""
        at = f"{tensor[access.tensor]}[{offset(access)}]"
        return f"*({const}vec *)&{at}" if IndexVar(lanes) in access.index_vars() else at

    lines = ["int64_t KERNEL(void *const *T, const int64_t *D) {"]
    if lanes:
        lines.append("  typedef real vec __attribute__((vector_size(VB), aligned(1), may_alias));")
        lines.append("  enum { VL = VB / sizeof(real) };")
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
    rows, tile = [], ["  vec acc[R][NV] = {0};"]  # the bodies of ROWS(R), TILE(R, NV, vec, L)
    for depth in range(-1, len(order)):
        var, sink, pad = f"i{depth}", lines, "  " * (depth + 2)
        plain = f"for (int64_t {var} = 0; {var} < n{depth}; ++{var}) {{"
        if depth >= tiled and order[depth] in (row, lanes):
            # Stepped by tiles, the largest first: ROWS from the function, TILE from ROWS.
            sink, pad = rows, "  "
            where, at = (lines, "  " * (depth + 1)) if order[depth] == row else (rows, pad)
            steps = [(f"{size}", f"ROWS({size})") for size in _TILES]
            if order[depth] == lanes:
                steps = [(f"{nv} * VL", f"TILE(R, {nv}, vec, VL)") for nv in _TILES]
                steps.append(("1", "TILE(R, 1, real, 1)"))
                lines += ["  " * (depth + 1) + "ROWS(1)"] * (row is None)
            where.append(f"{at}int64_t {var} = 0;")
            where += [
                f"{at}for (; {var} + {size} <= n{depth}; {var} += {size}) {call}"
                for size, call in steps
            ]
        elif depth >= tiled:
            sink, pad = tile, "  " * (depth - order.index(lanes) + 1)
            tile.append(pad[2:] + plain)
        elif depth >= 0:
            lines.append(pad[2:] + plain)
        for use in [use for use in pending if bound(use[0], depth)]:
            pending.remove(use)
            index, target, axis = use
            name, extent = f"k{uses.index(use)}", f"{tensor[target]}_{axis}"
            load = [
                f"{pad}const int64_t a{name} = {offset(index)};",
                f"{pad}int64_t {name} = {tensor[index.tensor]}[a{name}];",
                f"{pad}{name} += {name} < 0 ? {extent} : 0;  /* as np.take */",
                f"{pad}if ((uint64_t){name} >= (uint64_t){extent}) "
                f"return {1 + uses.index(use)} + {len(uses)} * a{name};",
            ]
            if loaded[use] != name:  # one per row of the tile
                each = [f"{pad}int64_t x{name[1:]}[R];", f"{pad}for (int r = 0; r < R; ++r) {{"]
                kept = [f"{pad}  {loaded[use]} = {name};", pad + "}"]
                load = [*each, *(f"  {line}" for line in load), *kept]
            sink += load
        for position, access in list(factors.items()):
            if bound(access, depth) and depth < tiled:
                del factors[position]
                product[position] = f"{tensor[access.tensor]}[{offset(access)}]"
                if depth < len(order) - 1:  # invariant in the loops below: load it once
                    lines.append(f"{pad}const real f{position} = {product[position]};")
                    product[position] = f"f{position}"
    product.update({position: element(access) for position, access in factors.items()})
    terms = " * ".join(product[position] for position in sorted(product))
    if lanes is None:
        lines.append(f"{pad}T0[{offset(statement.lhs)}] += {terms};")
    else:
        # Every reduction summed from zero, a multiply then an add; then one
        # add into the output rows.
        every = ["for (int r = 0; r < R; ++r)", "  for (int v = 0; v < NV; ++v)"]
        tile += [pad + line for line in (*every, f"    acc[r][v] += {terms};")]
        tile += [pad[: -2 * back] + "}" for back in range(1, len(pad) // 2)]
        store = f"    {element(statement.lhs, const='')} += acc[r][v];"
        tile += ["  " + line for line in (*every, store)]
    lines += ["  " * depth + "}" for depth in range(tiled, 0, -1)]
    text = "\n".join([*lines, "  return 0;", "}"])
    if lanes:
        text = _TILED.format(rows=" \\\n".join(rows), tile=" \\\n".join(tile), function=text)
    return text, order, [(index.tensor, target, axis) for index, target, axis in uses]


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

        ``arrays`` are the plan's inputs, the base first; ``dtype`` the factors'
        common type, float32 or float64.  The loop nest takes the plan's shapes,
        values of ``dtype`` (a narrower operand is widened, as ``np.multiply``
        widens it) and int64 indices; an operand that is not C-contiguous and
        aligned is copied (``np.take`` would have copied its rows too), so where
        an operand happens to lie never changes the bits of a result.
        """
        if dtype not in self.functions or arrays[0].shape != self.layout[0][0]:
            return None
        taken = []
        for array, (shape, is_index) in zip(arrays[1:], self.layout[1:]):
            if array.shape != shape or is_index and array.dtype != _INDEX:
                return None
            array = array if is_index else array.astype(dtype, copy=False)
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
