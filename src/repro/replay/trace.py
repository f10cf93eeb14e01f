"""The versioned JSONL workload-trace format and its synthetic generators.

A *workload trace* is the unit of reproducibility for every serving
performance or robustness claim the repository makes: one committed
JSONL file fully determines a stream of requests — who sent them
(tenant), when (arrival offset), what (expression + operand specs), and
what the correct answer is (expected-result digest).  The open-loop
replayer (:mod:`repro.replay.runner`) turns a trace plus a
:class:`repro.serve.Session` into an :class:`~repro.replay.runner.SLOReport`.

File layout (``repro-trace/1``): the first line is the header object,
every following line one record, e.g.::

    {"schema": "repro-trace/1", "name": "mixed-smoke", "seed": 7,
     "slo": {"latency_ms": 250.0, "attainment_target": 0.99}, "records": 96}
    {"offset_ms": 3.1, "tenant": "uniform", "expression": "C[m,n] += ...",
     "operands": {"A": {"kind": "sparse", ...}, "B": {"kind": "dense", ...}},
     "digest": "sha256:...", "operand_digest": "sha256:..."}

Operands are *specs*, not payloads: a dense spec is ``(shape,
value_seed)`` and a sparse spec is ``(regime, shape, density, format,
pattern_seed, value_seed)``; :class:`TraceMaterializer` re-creates the
actual arrays deterministically from the trace seed, caching sparse
instances so long-lived patterns keep one identity across records (the
property the engine's fingerprint caches and the cluster's
pattern-shipping cache key on).  Unknown fields — in the header or any
record — are preserved round-trip, so future schema extensions stay
forward compatible.

Digests: ``operand_digest`` hashes the *logical* dense content of every
operand and is therefore format independent (the same pattern shipped
as COO or GroupCOO digests identically); ``digest`` hashes the exact
bytes of the canonical (inline, uncoalesced) execution's result.  Result
digests are bitwise and therefore machine-local — BLAS builds differ —
so replay harnesses on a different machine call
:meth:`WorkloadTrace.refresh_digests` once before verifying (see
``docs/REPLAY.md``).
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.formats import FORMATS
from repro.formats.base import SparseFormat
from repro.utils.rng import rng

#: The schema identifier written to (and required of) every trace file.
SCHEMA = "repro-trace/1"

#: The four tuner sparsity regimes every generator understands.
REGIMES = ("uniform", "powerlaw", "blockdiag", "pointcloud")

#: Arrival processes :func:`synthesize` can lay records on.
ARRIVALS = ("uniform", "poisson", "onoff")

SPMM_EXPRESSION = "C[m,n] += A[m,k] * B[k,n]"
SPMV_EXPRESSION = "y[m] += A[m,k] * x[k]"


class TraceFormatError(ValueError):
    """A trace file (or record dict) violates the ``repro-trace/1`` schema."""


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------
def digest_array(array: np.ndarray) -> str:
    """The bitwise digest of one array: sha256 over dtype, shape, and bytes.

    Used for expected-*result* digests, where the serving tiers are held
    to bit-identical execution (see ``tests/serve/test_backend_parity.py``).
    """
    array = np.ascontiguousarray(array)
    hasher = hashlib.sha256()
    hasher.update(str(array.dtype).encode())
    hasher.update(str(array.shape).encode())
    hasher.update(array.tobytes())
    return f"sha256:{hasher.hexdigest()}"


def digest_operands(operands: Mapping[str, Any]) -> str:
    """A format-independent digest of a request's logical operand content.

    Sparse operands are hashed through their dense projection, so the
    same logical matrix shipped as COO, GroupCOO, or BCSR produces the
    same digest — the stability property the trace codec's property
    tests pin down.

    Parameters
    ----------
    operands:
        Operand arrays/formats by name (the dict a request is submitted
        with).
    """
    hasher = hashlib.sha256()
    for name in sorted(operands):
        value = operands[name]
        logical = value.to_dense() if isinstance(value, SparseFormat) else np.asarray(value)
        hasher.update(name.encode())
        hasher.update(digest_array(logical).encode())
    return f"sha256:{hasher.hexdigest()}"


# ---------------------------------------------------------------------------
# Header and records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SLOTarget:
    """The trace's service-level objective: a latency bound and a floor.

    A request *attains* the SLO when it completes successfully (digest
    intact) within ``latency_ms`` end-to-end; the replay passes when the
    attained fraction reaches ``attainment_target``.
    """

    latency_ms: float = 250.0
    attainment_target: float = 0.99

    def to_dict(self) -> dict[str, float]:
        """The JSON shape stored in the trace header."""
        return {"latency_ms": self.latency_ms, "attainment_target": self.attainment_target}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SLOTarget":
        """Parse the header's ``slo`` object (missing fields keep defaults)."""
        return cls(
            latency_ms=float(payload.get("latency_ms", cls.latency_ms)),
            attainment_target=float(payload.get("attainment_target", cls.attainment_target)),
        )


@dataclass
class TraceHeader:
    """The first line of a trace file: identity, seed, SLO, record count.

    ``extras`` holds any header fields this version does not understand,
    preserved verbatim on re-save (forward compatibility).
    """

    name: str
    seed: int
    slo: SLOTarget = field(default_factory=SLOTarget)
    records: int = 0
    extras: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The JSON object written as the file's first line."""
        payload = {
            "schema": SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "slo": self.slo.to_dict(),
            "records": self.records,
        }
        payload.update(self.extras)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceHeader":
        """Parse (and schema-check) a header object.

        Raises
        ------
        TraceFormatError
            When the ``schema`` field is missing or names a different
            major version.
        """
        schema = payload.get("schema")
        if schema != SCHEMA:
            raise TraceFormatError(
                f"unsupported trace schema {schema!r} (this reader speaks {SCHEMA!r})"
            )
        known = {"schema", "name", "seed", "slo", "records"}
        return cls(
            name=str(payload.get("name", "")),
            seed=int(payload.get("seed", 0)),
            slo=SLOTarget.from_dict(payload.get("slo", {})),
            records=int(payload.get("records", 0)),
            extras={key: value for key, value in payload.items() if key not in known},
        )


@dataclass
class TraceRecord:
    """One request of a workload trace.

    ``operands`` maps operand names to JSON specs (see module docstring);
    ``digest`` is the expected-result digest (None until computed);
    ``operand_digest`` the format-independent input digest.  ``extras``
    round-trips unknown fields.
    """

    offset_ms: float
    tenant: str
    expression: str
    operands: dict[str, dict[str, Any]]
    digest: str | None = None
    operand_digest: str | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    _KNOWN = frozenset(
        {"offset_ms", "tenant", "expression", "operands", "digest", "operand_digest"}
    )

    def to_dict(self) -> dict[str, Any]:
        """The JSON object written as one trace line."""
        payload: dict[str, Any] = {
            "offset_ms": round(float(self.offset_ms), 4),
            "tenant": self.tenant,
            "expression": self.expression,
            "operands": self.operands,
        }
        if self.digest is not None:
            payload["digest"] = self.digest
        if self.operand_digest is not None:
            payload["operand_digest"] = self.operand_digest
        payload.update(self.extras)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceRecord":
        """Parse one record object, tolerating (and keeping) unknown fields.

        Raises
        ------
        TraceFormatError
            When a required field (tenant, expression, operands) is
            missing.
        """
        for required in ("tenant", "expression", "operands"):
            if required not in payload:
                raise TraceFormatError(f"trace record is missing the {required!r} field")
        return cls(
            offset_ms=float(payload.get("offset_ms", 0.0)),
            tenant=str(payload["tenant"]),
            expression=str(payload["expression"]),
            operands={str(k): dict(v) for k, v in dict(payload["operands"]).items()},
            digest=payload.get("digest"),
            operand_digest=payload.get("operand_digest"),
            extras={k: v for k, v in payload.items() if k not in cls._KNOWN},
        )


# ---------------------------------------------------------------------------
# The trace object and its JSONL codec
# ---------------------------------------------------------------------------
class WorkloadTrace:
    """A header plus an offset-ordered list of records.

    Constructed by :func:`read_trace`, :func:`synthesize`, or directly
    from parts; saved with :func:`write_trace` / :meth:`save`.
    """

    def __init__(self, header: TraceHeader, records: Sequence[TraceRecord]):
        self.header = header
        self.records = list(records)
        self.header.records = len(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def name(self) -> str:
        """The trace's name (header field)."""
        return self.header.name

    @property
    def seed(self) -> int:
        """The base seed every materialization stream derives from."""
        return self.header.seed

    @property
    def duration_ms(self) -> float:
        """The last record's arrival offset (0.0 for an empty trace)."""
        return self.records[-1].offset_ms if self.records else 0.0

    def tenants(self) -> tuple[str, ...]:
        """The distinct tenant names, in first-appearance order."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.tenant, None)
        return tuple(seen)

    def subset(self, start: int, stop: int | None = None) -> "WorkloadTrace":
        """A new trace over ``records[start:stop]``, offsets rebased to zero.

        The subset shares the parent's seed and SLO, so materialization
        of the surviving records is unchanged — this is how a replay run
        splits one trace across two sessions (e.g. the mixed-backend
        parity test).

        Parameters
        ----------
        start / stop:
            Record slice bounds (``stop=None`` keeps the tail).
        """
        sliced = self.records[start:stop]
        base = sliced[0].offset_ms if sliced else 0.0
        rebased = [replace(record, offset_ms=record.offset_ms - base) for record in sliced]
        header = TraceHeader(
            name=f"{self.header.name}[{start}:{'' if stop is None else stop}]",
            seed=self.header.seed,
            slo=self.header.slo,
            records=len(rebased),
            extras=dict(self.header.extras),
        )
        return WorkloadTrace(header, rebased)

    def refresh_digests(self) -> int:
        """Recompute every record's digests on *this* machine; returns count.

        Result digests are bitwise and BLAS builds differ between
        machines, so a harness replaying a trace generated elsewhere
        refreshes digests once (a canonical inline execution per record)
        and then holds the serving tiers to bit-exact agreement with it.
        """
        compute_digests(self)
        return len(self.records)

    def save(self, path: str | Path) -> Path:
        """Write the trace as JSONL (see :func:`write_trace`)."""
        return write_trace(path, self)


def write_trace(path: str | Path, trace: WorkloadTrace) -> Path:
    """Write ``trace`` to ``path`` as one-header-then-records JSONL.

    Parameters
    ----------
    path:
        Destination file; parent directories are created.
    trace:
        The trace to serialize.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    trace.header.records = len(trace.records)
    lines = [json.dumps(trace.header.to_dict(), sort_keys=True)]
    lines.extend(json.dumps(record.to_dict(), sort_keys=True) for record in trace.records)
    path.write_text("\n".join(lines) + "\n")
    return path


def read_trace(path: str | Path) -> WorkloadTrace:
    """Parse a ``repro-trace/1`` JSONL file into a :class:`WorkloadTrace`.

    Unknown fields anywhere are preserved; a header/record that violates
    the schema raises :class:`TraceFormatError` naming the line.

    Parameters
    ----------
    path:
        The trace file to read.
    """
    path = Path(path)
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines:
        raise TraceFormatError(f"{path}: empty trace file")
    try:
        header = TraceHeader.from_dict(json.loads(lines[0]))
    except json.JSONDecodeError as error:
        raise TraceFormatError(f"{path}:1: not JSON ({error})") from None
    records = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            records.append(TraceRecord.from_dict(json.loads(line)))
        except json.JSONDecodeError as error:
            raise TraceFormatError(f"{path}:{number}: not JSON ({error})") from None
        except TraceFormatError as error:
            raise TraceFormatError(f"{path}:{number}: {error}") from None
    if header.records and header.records != len(records):
        raise TraceFormatError(
            f"{path}: header promises {header.records} records, file has {len(records)}"
        )
    return WorkloadTrace(header, records)


# ---------------------------------------------------------------------------
# Pattern generators (the four tuner regimes)
# ---------------------------------------------------------------------------
def _uniform_pattern(shape, density, generator) -> np.ndarray:
    return generator.random(shape) < density


def _powerlaw_pattern(shape, density, generator) -> np.ndarray:
    rows, cols = shape
    # Zipf-ish row occupancy: row r gets density weight ~ 1/(r+1),
    # rescaled so the overall density matches the request.
    weights = 1.0 / (np.arange(rows) + 1.0)
    weights *= density * rows / weights.sum()
    return generator.random(shape) < np.minimum(weights, 1.0)[:, None]


def _blockdiag_pattern(shape, density, generator, block: int = 8) -> np.ndarray:
    rows, cols = shape
    mask = np.zeros(shape, dtype=bool)
    # Dense blocks on the diagonal until the target density is met.
    target = int(density * rows * cols)
    steps = min(rows, cols) // block
    order = generator.permutation(steps) if steps else np.array([], dtype=int)
    for step in order:
        if mask.sum() >= target:
            break
        r, c = step * block, step * block
        mask[r : r + block, c : c + block] = True
    # Sprinkle random off-diagonal blocks for any remaining budget.
    while mask.sum() < target and steps:
        r = int(generator.integers(0, max(1, rows - block)))
        c = int(generator.integers(0, max(1, cols - block)))
        mask[r : r + block, c : c + block] = True
    return mask


def _pointcloud_pattern(shape, density, generator) -> np.ndarray:
    rows, cols = shape
    n = min(rows, cols)
    points = generator.random((n, 3))
    deltas = points[:, None, :] - points[None, :, :]
    distance = np.sqrt((deltas**2).sum(axis=-1))
    # Pick the radius that yields the requested density over the n*n block.
    radius = np.quantile(distance, min(1.0, density))
    mask = np.zeros(shape, dtype=bool)
    mask[:n, :n] = distance <= radius
    return mask


_PATTERNS: dict[str, Callable] = {
    "uniform": _uniform_pattern,
    "powerlaw": _powerlaw_pattern,
    "blockdiag": _blockdiag_pattern,
    "pointcloud": _pointcloud_pattern,
}


def _build_format(dense: np.ndarray, spec: Mapping[str, Any]) -> SparseFormat:
    name = str(spec.get("format", "coo")).lower()
    if name not in FORMATS:
        raise TraceFormatError(f"unknown sparse format {name!r} in operand spec")
    from_dense = FORMATS[name].from_dense
    options = {
        "block_shape": tuple(spec.get("block_shape", (8, 8))),
        "group_size": spec.get("group_size"),
    }
    accepted = inspect.signature(from_dense).parameters
    return from_dense(dense, **{key: value for key, value in options.items() if key in accepted})


# ---------------------------------------------------------------------------
# Materialization
# ---------------------------------------------------------------------------
class TraceMaterializer:
    """Deterministically re-creates a record's operand arrays from specs.

    One materializer per replay run: sparse operands are cached by spec,
    so every record naming the same (regime, shape, density, format,
    pattern_seed, value_seed) receives the *same live instance* — which
    keeps the engine's identity-fingerprint caches and the cluster's
    pattern-shipping cache hot, exactly as a long-lived serving client
    would.  Dense operands are fresh arrays per record unless the spec
    sets ``reuse`` (or :meth:`materialize` is told to force it), in
    which case the values are written *in place* into one long-lived
    buffer per (tenant, operand) — the refill-same-buffer client
    pattern the cluster codec's crc32 re-ship gate exists for.

    Parameters
    ----------
    seed:
        The trace's base seed; every value stream derives from it.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._sparse_cache: dict[str, SparseFormat] = {}
        self._buffers: dict[tuple[str, str, tuple[int, ...]], np.ndarray] = {}

    # -- spec-level helpers --------------------------------------------------
    def _dense_values(self, spec: Mapping[str, Any]) -> np.ndarray:
        shape = tuple(int(dim) for dim in spec["shape"])
        stream = f"dense/{int(spec.get('value_seed', 0))}"
        return rng(self.seed, stream).standard_normal(shape)

    def _sparse_instance(self, spec: Mapping[str, Any]) -> SparseFormat:
        key = json.dumps(spec, sort_keys=True)
        cached = self._sparse_cache.get(key)
        if cached is not None:
            return cached
        regime = str(spec.get("regime", "uniform"))
        if regime not in _PATTERNS:
            raise TraceFormatError(f"unknown sparsity regime {regime!r} in operand spec")
        shape = tuple(int(dim) for dim in spec["shape"])
        density = float(spec.get("density", 0.05))
        pattern_rng = rng(self.seed, f"pattern/{int(spec.get('pattern_seed', 0))}")
        mask = _PATTERNS[regime](shape, density, pattern_rng)
        if not mask.any():
            mask[0, 0] = True  # a pattern must have at least one entry
        values = rng(self.seed, f"sparse-values/{int(spec.get('value_seed', 0))}")
        dense = np.where(mask, values.standard_normal(shape), 0.0)
        instance = _build_format(dense, spec)
        self._sparse_cache[key] = instance
        return instance

    def reused_buffer_keys(
        self, record: TraceRecord, force_reuse: bool = False
    ) -> list[tuple[str, str, tuple[int, ...]]]:
        """The shared-buffer keys :meth:`materialize` would write in place.

        The replayer must wait for any outstanding request still reading
        one of these buffers before materializing the record (mutating an
        operand under an in-flight request corrupts it on every backend).

        Parameters
        ----------
        record:
            The record about to be materialized.
        force_reuse:
            Treat every dense spec as ``reuse`` (the value-mutation
            fault's switch).
        """
        keys = []
        for name, spec in record.operands.items():
            if spec.get("kind") != "dense":
                continue
            if not (force_reuse or spec.get("reuse")):
                continue
            shape = tuple(int(dim) for dim in spec["shape"])
            keys.append((record.tenant, name, shape))
        return keys

    def materialize(self, record: TraceRecord, force_reuse: bool = False) -> dict[str, Any]:
        """The record's operand arrays, rebuilt deterministically from specs.

        Parameters
        ----------
        record:
            The trace record to materialize.
        force_reuse:
            Write every dense operand's values into its tenant's shared
            buffer in place (see class docstring) even when the spec
            does not ask for reuse.
        """
        operands: dict[str, Any] = {}
        for name, spec in record.operands.items():
            kind = spec.get("kind", "dense")
            if kind == "sparse":
                operands[name] = self._sparse_instance(spec)
            elif kind == "dense":
                values = self._dense_values(spec)
                if force_reuse or spec.get("reuse"):
                    key = (record.tenant, name, values.shape)
                    buffer = self._buffers.get(key)
                    if buffer is None:
                        buffer = values.copy()
                        self._buffers[key] = buffer
                    else:
                        buffer[...] = values
                    operands[name] = buffer
                else:
                    operands[name] = values
            else:
                raise TraceFormatError(f"unknown operand kind {kind!r} in record spec")
        return operands


def compute_digests(trace: WorkloadTrace) -> None:
    """Fill every record's ``digest``/``operand_digest`` in place.

    Executes each record once through a canonical
    :class:`~repro.runtime.server.RequestExecutor` (inline, uncoalesced,
    default compiler config) — the same execution the serve
    tier's inline backend performs, which the threaded and cluster tiers
    are bit-identical to when coalescing is off.

    Parameters
    ----------
    trace:
        The trace to annotate (records are modified in place).
    """
    from repro.runtime.server import RequestExecutor

    materializer = TraceMaterializer(trace.seed)
    executor = RequestExecutor()
    for record in trace.records:
        operands = materializer.materialize(record)
        record.operand_digest = digest_operands(operands)
        record.digest = digest_array(executor.execute(record.expression, operands))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a synthetic multi-tenant trace.

    Each tenant owns a single long-lived sparse operand (one of the four
    tuner regimes, in a chosen format) and issues one expression shape
    against it with fresh dense values per request — the serving steady
    state the benchmarks model.

    Parameters
    ----------
    name:
        Tenant label recorded on every one of its requests.
    regime:
        Sparsity regime of its pattern (see :data:`REGIMES`).
    shape / density:
        The sparse operand's logical shape and fill.
    format:
        Trace-format name: ``coo``, ``csr``, ``ell``, ``groupcoo``,
        ``blockcoo``, or ``bcsr``.
    expression:
        ``"spmm"`` or ``"spmv"``.
    rhs_cols:
        SpMM right-hand-side column count.
    weight:
        Relative share of the trace's requests this tenant receives.
    reuse_dense:
        Mark the tenant's dense operands ``reuse`` (the in-place
        refill pattern; exercises the cluster's mutation re-ship).
    """

    name: str
    regime: str = "uniform"
    shape: tuple[int, int] = (96, 128)
    density: float = 0.06
    format: str = "groupcoo"
    expression: str = "spmm"
    rhs_cols: int = 8
    weight: float = 1.0
    reuse_dense: bool = False

    def sparse_spec(self, pattern_seed: int, value_seed: int) -> dict[str, Any]:
        """The tenant's sparse operand spec (shared across its records)."""
        spec: dict[str, Any] = {
            "kind": "sparse",
            "regime": self.regime,
            "shape": list(self.shape),
            "density": self.density,
            "format": self.format,
            "pattern_seed": pattern_seed,
            "value_seed": value_seed,
        }
        if self.format == "groupcoo":
            spec["group_size"] = 4
        if self.format in ("blockcoo", "bcsr"):
            spec["block_shape"] = [8, 8]
        return spec


def default_tenants() -> tuple[TenantSpec, ...]:
    """The stock mixed-tenant population: one tenant per tuner regime."""
    return (
        TenantSpec("uniform", regime="uniform", shape=(96, 128), density=0.06,
                   format="coo", expression="spmm", weight=3.0),
        TenantSpec("powerlaw", regime="powerlaw", shape=(128, 128), density=0.05,
                   format="coo", expression="spmv", weight=2.0),
        TenantSpec("blockdiag", regime="blockdiag", shape=(128, 128), density=0.06,
                   format="groupcoo", expression="spmm", weight=2.0),
        TenantSpec("pointcloud", regime="pointcloud", shape=(96, 96), density=0.05,
                   format="groupcoo", expression="spmm", weight=1.0),
    )


def _arrival_offsets(
    arrival: str, num_records: int, rate_rps: float, seed: int, on_ms: float, off_ms: float
) -> list[float]:
    if arrival not in ARRIVALS:
        raise TraceFormatError(f"unknown arrival process {arrival!r}; expected {ARRIVALS}")
    generator = rng(seed, f"arrivals/{arrival}")
    mean_gap_ms = 1e3 / rate_rps
    if arrival == "uniform":
        return [index * mean_gap_ms for index in range(num_records)]
    if arrival == "poisson":
        gaps = generator.exponential(mean_gap_ms, size=num_records)
        return list(np.concatenate([[0.0], np.cumsum(gaps)[:-1]]))
    # on/off bursty: Poisson arrivals at double rate during ON windows,
    # silence during OFF windows — the tail-latency stressor.
    offsets: list[float] = []
    clock = 0.0
    while len(offsets) < num_records:
        window_end = clock + on_ms
        while clock < window_end and len(offsets) < num_records:
            offsets.append(clock)
            clock += float(generator.exponential(mean_gap_ms / 2.0))
        clock = window_end + off_ms
    return offsets


def synthesize(
    name: str,
    *,
    seed: int,
    num_records: int = 96,
    rate_rps: float = 100.0,
    arrival: str = "poisson",
    tenants: Sequence[TenantSpec] | None = None,
    slo: SLOTarget | None = None,
    on_ms: float = 250.0,
    off_ms: float = 250.0,
    digests: bool = True,
) -> WorkloadTrace:
    """Generate a seeded multi-tenant workload trace.

    Fully deterministic in ``(name, seed, parameters)``: arrivals, tenant
    assignment, and every operand value derive from independent
    :func:`repro.utils.rng` streams, so the same call reproduces the same
    byte-identical trace file anywhere.

    Parameters
    ----------
    name:
        The trace's name (header field).
    seed:
        Base seed for every stream.
    num_records:
        Number of requests.
    rate_rps:
        Mean offered load (requests per second of trace time).
    arrival:
        ``"uniform"`` (fixed gaps), ``"poisson"`` (exponential gaps), or
        ``"onoff"`` (bursty: Poisson at double rate inside ON windows of
        ``on_ms``, silent for ``off_ms`` between them).
    tenants:
        Tenant population (default: one tenant per tuner regime, see
        :func:`default_tenants`).
    slo:
        The trace's SLO (default :class:`SLOTarget`).
    on_ms / off_ms:
        On/off window lengths for ``arrival="onoff"``.
    digests:
        Compute expected-result digests now (one canonical execution per
        record; disable for huge traces and call
        :meth:`WorkloadTrace.refresh_digests` later).
    """
    tenants = tuple(tenants) if tenants is not None else default_tenants()
    if not tenants:
        raise TraceFormatError("synthesize needs at least one tenant")
    offsets = _arrival_offsets(arrival, num_records, rate_rps, seed, on_ms, off_ms)
    weights = np.array([tenant.weight for tenant in tenants], dtype=float)
    weights /= weights.sum()
    assignment = rng(seed, "tenant-assignment").choice(len(tenants), size=num_records, p=weights)

    records = []
    for index in range(num_records):
        tenant = tenants[int(assignment[index])]
        tenant_id = int(assignment[index])
        sparse = tenant.sparse_spec(pattern_seed=tenant_id, value_seed=1000 + tenant_id)
        dense_spec: dict[str, Any] = {"kind": "dense", "value_seed": index}
        if tenant.reuse_dense:
            dense_spec["reuse"] = True
        if tenant.expression == "spmm":
            expression = SPMM_EXPRESSION
            dense_spec["shape"] = [tenant.shape[1], tenant.rhs_cols]
            operands = {"A": sparse, "B": dense_spec}
        elif tenant.expression == "spmv":
            expression = SPMV_EXPRESSION
            dense_spec["shape"] = [tenant.shape[1]]
            operands = {"A": sparse, "x": dense_spec}
        else:
            raise TraceFormatError(
                f"unknown tenant expression {tenant.expression!r} (spmm or spmv)"
            )
        records.append(
            TraceRecord(
                offset_ms=float(offsets[index]),
                tenant=tenant.name,
                expression=expression,
                operands=operands,
            )
        )
    header = TraceHeader(name=name, seed=seed, slo=slo or SLOTarget(), records=len(records))
    trace = WorkloadTrace(header, records)
    if digests:
        compute_digests(trace)
    return trace


def synthesize_regime(
    regime: str, *, seed: int, num_records: int = 32, rate_rps: float = 200.0, **kwargs: Any
) -> WorkloadTrace:
    """A single-tenant trace for one tuner regime (convenience wrapper).

    Parameters
    ----------
    regime:
        One of :data:`REGIMES`.
    seed / num_records / rate_rps:
        As in :func:`synthesize`.
    **kwargs:
        Forwarded to :func:`synthesize` (e.g. ``arrival=``,
        ``digests=``).
    """
    if regime not in REGIMES:
        raise TraceFormatError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    fmt = "groupcoo" if regime == "blockdiag" else "coo"
    tenant = TenantSpec(regime, regime=regime, format=fmt)
    return synthesize(
        f"{regime}-single",
        seed=seed,
        num_records=num_records,
        rate_rps=rate_rps,
        tenants=(tenant,),
        **kwargs,
    )


__all__ = [
    "ARRIVALS",
    "REGIMES",
    "SCHEMA",
    "SLOTarget",
    "TenantSpec",
    "TraceFormatError",
    "TraceHeader",
    "TraceMaterializer",
    "TraceRecord",
    "WorkloadTrace",
    "compute_digests",
    "default_tenants",
    "digest_array",
    "digest_operands",
    "read_trace",
    "synthesize",
    "synthesize_regime",
    "write_trace",
]
