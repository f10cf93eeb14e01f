"""The second emitter: a plan's loop nest as one fused C function.

:class:`~repro.engine.specialize.SpecializedKernel` lowers a plan once and
emits it twice: as NumPy steps, every arrow between gather, multiply and
scatter an array, and here as the kernel the paper's backend generates —
metadata load, indirect load, multiply-accumulate, scattered store, the dot in
registers, no temporary in between.

* **The rule** (:func:`covers`).  Every tensor is output, value operand or
  index.  A dense reduction (a reduction variable directly indexing two
  factors: block formats, sparse convolution, the tensor product) also needs
  an index tensor and the vector variable ``n``, the trailing output variable
  and the contiguous last axis of every access that carries it; without them
  the steps' BLAS calls win.
* **The source** (:func:`_source`): loops in storage order, output variables
  first.  In the SpMM family ``n`` is innermost and a *run* (an ELL row, a
  GroupCOO group, COO entries of one wrapped target) is summed into its row in
  registers, ``n`` in tiles of 512, 256, 128 and 64 bytes and one ``switch``
  case for the rest.  A dense reduction steps its last output loops by register
  tiles of ``__attribute__((vector_size))`` accumulators — rows of the variable
  before ``n`` (``q`` of the convolution, ``bm`` of a block) times vectors of
  ``n`` — so a panel is read once per tile of rows.  Every index is loaded at
  the depth that binds it and checked against the extent it indexes: an
  out-of-range value returns its position and :class:`Emitted` raises the step
  list's :class:`~repro.errors.IndexOutOfBoundsError`.  The source depends on the
  plan's structure only (extents are arguments, float32 and float64 side by side,
  the vector width from the compiler's macros): a new shape never recompiles.
* **The numerics**: one thread.  The SpMM family multiplies, then adds in
  ``np.add.at``'s order (a run starts from the row's stored values).  A dense
  reduction is summed per update from zero, whatever the tile — each update one
  fused multiply-add of the last factor into the sum, the product of the others
  rounded first — then added.  A result has the same bytes on every machine, a
  stacked execution equals its per-item ones, and a tile differs from the
  steps' BLAS dot by reassociation and the fused rounding only.
* **The placement** (:meth:`Emitted.pin`).  An operand is read in place
  when it is C-contiguous, of its type and aligned; a *reused* vector operand
  (:func:`emit`: its last axis is the output's, each element read at least
  :data:`_REUSE` times) must also start on a 64-byte cache line, or every
  vector load of the tile straddles two (1.3-1.9x slower).  Anything else is
  copied once per call onto a line: the same values, so the same bytes.
* **The object** (:func:`_library`): built by ``cc`` (``$CC``) under
  :data:`FLAGS` when a plan is built and neither this process nor the disk
  cache (``${XDG_CACHE_HOME:-~/.cache}/repro/kernels``, ours alone) has it,
  keyed by source, compiler, flags and CPU.  No compiler, a failed compile, an
  unwritable cache: the reason is kept and the plan runs its steps.
  :func:`compiles` tells the tuner, before any plan, without compiling.

``import ctypes`` and ``import subprocess`` appear in ``repro.engine`` here only.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import platform
import shlex
import shutil
import subprocess
import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.einsum.ast import EinsumStatement, IndexVar, IntLiteral, TensorAccess
from repro.core.insum.planner import InsumPlan
from repro.errors import IndexOutOfBoundsError

#: The one set of compiler flags.  ``-ffp-contract=off``: a multiply then an
#: add — the bits of a sequential NumPy loop (costs <= 5%); only a dense
#: reduction's update is fused, summed per update from zero, then added.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
_COMPILE_SECONDS = 60
_INSTANCES = {
    np.dtype(np.float32): ("float", "kernel_f32"),
    np.dtype(np.float64): ("double", "kernel_f64"),
}
_INDEX = np.dtype(np.int64)
#: A cache line, and the reads per element from which a reused vector operand
#: is copied onto one (:func:`emit`).  Measured break-even, copy time over the
#: time a misaligned read costs (2-core AMD EPYC, AVX-512): 5-13 reads for an
#: SpMM ``B`` of 1 MB, 8 for a block ``B``, 14-22 for the convolution's ``Weight``,
#: 17-20 for a 0.1 MB ``B``, 16-36 for the tensor product's ``W`` (read 4-11
#: times: left alone) — ``docs/PERFORMANCE.md``, "Where the operands lie".
_LINE, _REUSE = 64, 16

#: Source -> the functions of its loaded library by dtype, or the reason there
#: is none (and, under ``""``, the verdict of :func:`compiles`).  Per process (a
#: loaded object stays loaded): survives ``clear_plan_cache()`` and fork.
_LOADED: dict[str, "dict[np.dtype, Callable[[int, int], int]] | str"] = {}
#: The ctypes array of ``count`` pointers (a new type per call would be garbage).
_pointers = functools.cache(lambda count: ctypes.c_void_p * count)


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
#: ``FMA`` is an update: one fused multiply-add per lane, by contraction in the
#: ``FUSED`` function where the compiler has a fast ``fma`` (the vectorizer off:
#: it would sum a lane's products unfused), else by libm's ``fma`` per lane.
_TILES = (4, 2, 1)
_TILED = """\
#if defined(__AVX512F__)
#define VB 64
#elif defined(__AVX__)
#define VB 32
#else
#define VB 16
#endif
#if defined(__FP_FAST_FMA) && defined(__FP_FAST_FMAF) && defined(__GNUC__) && !defined(__clang__)
#define FUSED __attribute__((optimize("fp-contract=fast", "no-tree-vectorize")))
#define FMA(vec, L, acc, a, b) acc += (a) * (b);
#else
#include <math.h>
#define FUSED
#define FMA(vec, L, acc, a, b) {{ vec a_ = (a) - (vec){{0}}, b_ = (b) - (vec){{0}}; \\
  for (int l = 0; l < (L); ++l) ((real *)&(acc))[l] = _Generic((real)0, float: fmaf, \\
    default: fma)(((real *)&a_)[l], ((real *)&b_)[l], ((real *)&(acc))[l]); }}
#endif
#define ROWS(R) {{ \\
{rows} \\
}}
#define TILE(R, NV, vec, L) {{ \\
{tile} \\
}}
FUSED {function}"""
#: A run's tiles of ``n``: 512, 256, 128 and 64 bytes of ``real``; the rest (at
#: most 15 floats) is one more tile, its width a ``case`` of a ``switch``.
_RUN_TILES = ("8 * VL", "4 * VL", "2 * VL", "VL")


@functools.lru_cache(maxsize=256)
def _source(statement: EinsumStatement, inputs: tuple[str, ...]) -> tuple[str, list, list]:
    """``(function text, loop order, bounds checks)`` of the statement's loop nest.

    Tensors are ``T<position in inputs>``, loop variables ``i<depth>``; the
    dimension argument ``D`` holds the loop extents, then every tensor's shape.
    A check is ``(index tensor, indexed tensor, axis)``, one per indirect index
    of the statement; a loaded index wraps once when negative, as in NumPy, and
    a failing one returns ``1 + check + len(checks) * (its flat position)``.

    Without a dense reduction the loops of the output row come first, the
    scatter loop stepping by runs (it looks ahead while the next wrapped row
    index is this one's), and the macro ``RUN(W)`` sums one run into ``W``
    elements of its row (``n``, when it is the innermost loop, in tiles of a
    compile-time width; else one element) and stores them once.  A dense
    reduction is two macros, instantiated for the full register tile and its
    edges: ``ROWS`` loads the row-dependent indices and steps ``n`` by tiles;
    ``TILE`` zeroes ``R x NV`` accumulators (vectors, unaligned by type;
    scalars for the last ``n % VL`` lanes), fuses each update into them
    (``FMA``) and stores once.
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
    checks = [(index.tensor, target, axis) for index, target, axis in uses]
    loaded = {use: f"k{number}" for number, use in enumerate(uses)}
    # Without a tile, ``RUN``'s width variable: the innermost loop, where it is
    # an axis of the output (directly, once) and subscripts no index.
    lhs, last = statement.lhs, IndexVar(order[-1])
    width = lhs.indices.count(last) == lhs.index_vars().count(last) == 1 and not lanes
    width = width and all(last not in use[0].index_vars() for use in uses)
    tiled = order.index(row or lanes) if lanes else len(order)  # its first depth
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
        """What a statement reads: a vector where ``access`` carries a tile's ``n``."""
        at = f"{tensor[access.tensor]}[{offset(access)}]"
        return f"*({const}vec *)&{at}" if lanes and IndexVar(lanes) in access.index_vars() else at

    lines = ["int64_t KERNEL(void *const *T, const int64_t *D) {"]
    if lanes:
        lines.append("  typedef real vec __attribute__((vector_size(VB), aligned(1), may_alias));")
    if lanes or width:
        lines.append(f"  enum {{ VL = {'VB' if lanes else 64} / sizeof(real) }};")
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

    def bind(depth: int, sink: list[str], pad: str, into: str | None = None) -> list[tuple]:
        """Append the loads ``depth`` binds and return its indices (``into``: only
        those into that tensor): each index, checked — per row of a tile where it
        goes through the row variable — then each factor the loops below keep."""
        binds = [use for use in pending if bound(use[0], depth) and into in (None, use[1])]
        for use in binds:
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
            if into is None and bound(access, depth) and depth < min(tiled, len(order) - 1):
                del factors[position]
                sink.append(f"{pad}const real f{position} = {element(access)};")
                product[position] = f"f{position}"
        return binds

    if not lanes:  # the run loop
        depths = [order.index(var.name) for var in lhs.index_vars() if var != last or not width]
        run = max(depths, default=-1)
        ahead = run >= 0 and IndexVar(order[run]) not in lhs.indices  # the scatter loop
        for depth in range(-1, run + 1):
            pad, var, start, end = "  " * (depth + 2), f"i{depth}", f"b{depth}", f"e{depth}"
            if depth < run or not ahead:
                plain = f"for (int64_t {var} = 0; {var} < n{depth}; ++{var}) {{"
                lines += [pad[2:] + plain] * (depth >= 0)
                bind(depth, lines, pad)
                continue
            runs = f"for (int64_t {start} = 0, {end}; {start} < n{depth}; {start} = {end}) {{"
            lines.append(pad[2:] + runs)
            loop[order[depth]] = start
            targets = bind(depth, lines, pad, into=lhs.tensor)
            loop[order[depth]] = end
            lines.append(f"{pad}for ({end} = {start} + 1; {end} < n{depth}; ++{end}) {{")
            for index, target, axis in targets:
                name, extent = f"{uses.index((index, target, axis))}", f"{tensor[target]}_{axis}"
                at = f"{tensor[index.tensor]}[{offset(index)}]"
                wrapped = f"l{name} + (l{name} < 0 ? {extent} : 0)"
                lines.append(f"{pad}  const int64_t l{name} = {at};")
                lines.append(f"{pad}  if ({wrapped} != k{name}) break;")
            lines.append(pad + "}")
            loop[order[depth]] = var
        # A run into its row: each element starts from its stored value and
        # takes the run's additions in storage order.  A tile narrower than
        # 64 bytes is unrolled in full (2-3x faster than the loop it would be).
        lane, acc, each = f"i{len(order) - 1}", "acc", ""
        if width:
            loop[order[-1]], acc = f"({lane} + j)", "acc[j]"
            each = '_Pragma("GCC unroll 15") for (int j = 0; j < (W); ++j) '
        stored = f"T0[{offset(lhs)}]"
        body = [f"real acc{'[W]' * width};", f"{each}{acc} = {stored};"]
        inner = range(run + (not ahead), len(order) - width)
        for depth in inner:
            pad, var = "  " * (depth - inner.start + 1), f"i{depth}"
            first, stop = (f"b{depth}", f"e{depth}") if depth == run else ("0", f"n{depth}")
            body.append(f"{pad[2:]}for (int64_t {var} = {first}; {var} < {stop}; ++{var}) {{")
            bind(depth, body, pad)
        product.update({position: element(access) for position, access in factors.items()})
        terms = " * ".join(product[position] for position in sorted(product))
        body.append("  " * len(inner) + f"{each}{acc} += {terms};")
        body += ["  " * depth + "}" for depth in range(len(inner) - 1, -1, -1)]
        body.append(f"{each}{stored} = {acc};")
        extent = f"n{len(order) - 1}"
        steps = [f"for (; {lane} + {w} <= {extent}; {lane} += {w}) RUN({w})" for w in _RUN_TILES]
        cases = [f"  case {w}: RUN({w}) break;" for w in range(1, 16)]
        tiles = [f"int64_t {lane} = 0;", *steps, f"switch ({extent} - {lane}) {{", *cases, "}"]
        lines += ["  " * (run + 2) + line for line in (tiles if width else body)]
        lines += ["  " * depth + "}" for depth in range(run + 1, 0, -1)]
        text = "\n".join([*lines, "  return 0;", "}"])
        if width:
            text = "".join(f"  {line} \\\n" for line in body) + "}\n" + text
            text = "#define RUN(W) { \\\n" + text
        return text, order, checks

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
        bind(depth, sink, pad)
    product.update({position: element(access) for position, access in factors.items()})
    *prefix, last = (product[position] for position in sorted(product))
    # Every reduction from zero, each update fused; then one add into the rows.
    every = ["for (int r = 0; r < R; ++r)", "  for (int v = 0; v < NV; ++v)"]
    update = f"    FMA(vec, L, acc[r][v], {' * '.join(prefix)}, {last})"
    tile += [pad + line for line in (*every, update)]
    tile += [pad[: -2 * back] + "}" for back in range(1, len(pad) // 2)]
    store = f"    {element(statement.lhs, const='')} += acc[r][v];"
    tile += ["  " + line for line in (*every, store)]
    lines += ["  " * depth + "}" for depth in range(tiled, 0, -1)]
    text = "\n".join([*lines, "  return 0;", "}"])
    text = _TILED.format(rows=" \\\n".join(rows), tile=" \\\n".join(tile), function=text)
    return text, order, checks


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


def _build(unit: str) -> ctypes.CDLL | None:
    """The object of ``unit`` from the disk cache, compiling it on a miss; for
    no unit, only whether ``$CC --version`` runs and the cache is ours."""
    command = shlex.split(os.environ.get("CC") or "cc")
    compiler = shutil.which(command[0])
    if compiler is None:
        raise FileNotFoundError(f"no C compiler: {command[0]!r} is not on PATH")
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    directory = os.path.join(base, "repro", "kernels")
    os.makedirs(directory, mode=0o700, exist_ok=True)
    _ours(directory)
    if not unit:
        version = [compiler, *command[1:], "--version"]
        subprocess.run(version, capture_output=True, timeout=_COMPILE_SECONDS, check=True)
        return None
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
            instances = _INSTANCES.items() if unit else ()  # no unit: no functions
            found = {dtype: getattr(library, name) for dtype, (_, name) in instances}
            for function in found.values():
                function.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
                function.restype = ctypes.c_int64
        found = _LOADED.setdefault(unit, found)
    return found


def compiles() -> bool:
    """Whether plans built in this process run as C, decided without compiling:
    as the objects it loaded or failed to say (one loaded: yes), or, before its
    first plan, as the empty unit's :func:`_library` verdict (kept with them)."""
    built = [found for source, found in _LOADED.items() if source]
    return any(isinstance(found, dict) for found in built or [_library("")])


def _address(array: np.ndarray) -> int:
    """Where ``array``'s data starts: through the buffer protocol (a third of the
    cost of ``array.ctypes.data``) unless it is read-only, strided or empty."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):
        return array.ctypes.data


def _placed(array: np.ndarray, dtype: np.dtype, on_line: bool) -> np.ndarray:
    """``array`` itself where the loop nest can read it — C-contiguous ``dtype``,
    aligned, and on a cache line if ``on_line`` — else its values copied once,
    widened in the same copy, into a fresh buffer on a cache line."""
    if array.dtype == dtype and array.flags.c_contiguous and array.flags.aligned:
        if not on_line or not _address(array) % _LINE:
            return array
    raw = np.empty(array.size * dtype.itemsize + _LINE, dtype=np.uint8)
    placed = raw[-raw.ctypes.data % _LINE :][: raw.size - _LINE].view(dtype).reshape(array.shape)
    np.copyto(placed, array, casting="unsafe")
    return placed


@dataclass(frozen=True)
class Emitted:
    """A plan's compiled loop nest and what it may be called with."""

    #: The C function (``real`` = float or double), as ``describe()`` prints it.
    source: str
    functions: dict[np.dtype, Callable[[int, int], int]]
    #: Per input of the plan, output first: its name, the shape it was compiled
    #: for, and what it is — ``"index"``, ``"value"`` or ``"reused"`` (a value
    #: operand the loop nest reads from a cache line).
    layout: tuple[tuple[str, tuple[int, ...], str], ...]
    #: The ``D`` argument (loop extents, then every shape) — fixed per plan.
    dims: np.ndarray
    #: ``(index slot, indexed tensor, axis, extent)`` per bounds check of the source.
    checks: tuple[tuple[int, str, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_array", _pointers(len(self.layout)))
        object.__setattr__(self, "_dims", self.dims.ctypes.data)

    def pin(self, arrays: list, dtype: np.dtype) -> "Callable[[list, np.ndarray], Any] | None":
        """The loop nest bound to the inputs a caller keeps, or ``None``.

        ``arrays`` are the plan's inputs, the base first (its shape is checked),
        ``None`` at each input given per call; ``dtype`` the factors' common
        type, float32 or float64.  A kept input must be one the placement rule
        (module docstring) reads in place; its data pointer is read here, once.
        ``call(given, result)`` places ``given`` (in input order) for that call
        only, accumulates into ``result`` and returns it — or ``None``, having
        run nothing, when one has another shape or is an index not int64.
        """
        if dtype not in self.functions or arrays[0].shape != self.layout[0][1]:
            return None
        pointers, given_slots = [], []
        for slot, (array, (_, shape, kind)) in enumerate(zip(arrays[1:], self.layout[1:])):
            rule = (_INDEX if kind == "index" else dtype, kind == "reused")
            if array is not None and (array.shape != shape or _placed(array, *rule) is not array):
                return None
            pointers.append(None if array is None else _address(array))
            given_slots += [(slot, shape, kind == "index", rule)] * (array is None)
        kept = arrays[1:]

        def call(given: list, result: np.ndarray) -> np.ndarray | None:
            operands = list(kept)
            for (slot, shape, index, rule), array in zip(given_slots, given):
                if array.shape != shape or index and array.dtype != _INDEX:
                    return None
                operands[slot] = _placed(array, *rule)
            self(result, operands, pointers)
            return result

        return call

    def __call__(self, result: np.ndarray, operands: list, pointers: list) -> None:
        """Accumulate into ``result`` (this kernel's own C-contiguous array);
        ``pointers`` are those of ``operands`` read before, ``None`` where not."""
        taken = [_address(a) if p is None else p for a, p in zip(operands, pointers)]
        code = self.functions[result.dtype](self._array(_address(result), *taken), self._dims)
        if code:
            position, check = divmod(code - 1, len(self.checks))
            slot, target, axis, extent = self.checks[check]
            value = operands[slot - 1].reshape(-1)[position]
            where = f"axis {axis} of {target} with size {extent}, flat position {position}"
            raise IndexOutOfBoundsError(f"index {value} is out of bounds for {where}")


def emit(plan: InsumPlan, inputs: list[str]) -> "Emitted | str":
    """The emitted kernel of a plan :func:`covers` — or the reason it has none
    on this machine and runs its steps.  ``inputs``: its tensors, output first.
    A value operand is *reused* when its contiguous last axis is the output's
    (``n``) and the loop extents' product is at least :data:`_REUSE` times its size."""
    function, order, checks = _source(plan.statement, tuple(inputs))
    functions = _library(_unit(function))
    if isinstance(functions, str):
        return functions
    info, statement = plan.info, plan.statement
    shapes = {name: tuple(info.tensor_shapes[name]) for name in inputs}
    extents = [info.extents[var] for var in order]
    last = statement.lhs.indices[-1]
    kinds = dict.fromkeys(info.gather_tensors, "index")
    for access in statement.rhs.factors:
        size = math.prod(shapes[access.tensor])
        if access.indices[-1] == last and 0 < size * _REUSE <= math.prod(extents):
            kinds[access.tensor] = "reused"
    dims = extents + [extent for name in inputs for extent in shapes[name]]
    return Emitted(
        source=function,
        functions=functions,
        layout=tuple((name, shapes[name], kinds.get(name, "value")) for name in inputs),
        dims=np.array(dims, dtype=np.int64),
        checks=tuple(
            (inputs.index(index), target, axis, info.tensor_shapes[target][axis])
            for index, target, axis in checks
        ),
    )
