"""Deterministic fault injection for trace replay.

A :class:`FaultSchedule` is a seeded list of ``(record index, fault)``
events — derived from :func:`repro.utils.rng` streams, so the same
``(seed, num_records)`` always produces the same schedule — and a
:class:`FaultInjector` applies those events from the replayer's
per-record hooks.  Faults target the failure paths the cluster tier
claims to survive; the soak suite (``tests/replay/test_soak.py``)
replays under each fault and asserts the :class:`~repro.replay.runner.
SLOReport` conservation invariant (completed+failed+cancelled ==
submitted) and zero digest mismatches.

The fault catalogue (see ``docs/REPLAY.md`` for the full table):

``worker_kill``
    SIGKILL a cluster worker mid-trace.  Exercises crash detection,
    restart, and in-flight requeue; a no-op on backends without worker
    processes.
``admission_saturation``
    Collapse the admission window to zero for exactly one record, then
    restore it.  With a ``reject`` policy the targeted request fails
    deterministically with ``ClusterBusyError`` — admission pressure
    without racing on real queue depth.
``oversized_operand``
    Submit an extra out-of-trace request whose dense operand exceeds
    the shm ring's payload budget, forcing the inline-pickle fallback
    path.  The injector computes the expected product itself and checks
    the answer at finalize; a surviving wrong answer counts as an
    injected failure.
``value_mutation``
    Force the next few records to refill their dense operands *in
    place* in shared client buffers, exercising the codec's checksum
    gate that must re-ship mutated arrays instead of serving the stale
    identity-cache entry.
``control_thread_exception``
    Raise from inside the cluster's monitor loop (via the
    ``_monitor_iteration`` seam).  Exercises control-plane containment:
    every in-flight future must fail with
    :class:`~repro.errors.ControlThreadError` — never hang — and a
    session with ``failover`` configured must route subsequent submits
    to its warm fallback backend.
``crash_loop_worker``
    SIGKILL the same worker slot repeatedly until its
    :class:`~repro.resilience.WorkerSupervisor` restart budget is
    exhausted and the slot goes permanently dead.  Exercises the token
    bucket, router dead-set exclusion, and degraded health reporting.
``deadline_storm``
    Stamp a burst of consecutive records with an already-expired
    ``deadline_ms``, forcing deterministic
    :class:`~repro.errors.DeadlineExceededError` outcomes that the SLO
    report must count in its own ``deadline`` bucket without breaking
    conservation.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from repro.replay.trace import SPMM_EXPRESSION, TraceRecord
from repro.serve import Session
from repro.serve.future import Future
from repro.utils.rng import rng

#: Every fault kind the injector understands, in catalogue order.
FAULT_KINDS = (
    "worker_kill",
    "admission_saturation",
    "oversized_operand",
    "value_mutation",
    "control_thread_exception",
    "crash_loop_worker",
    "deadline_storm",
)

#: How many consecutive records a ``value_mutation`` event forces into
#: in-place reuse mode.
MUTATION_WINDOW = 4

#: How many consecutive records a ``deadline_storm`` event stamps with
#: an already-expired deadline.
DEADLINE_STORM_WINDOW = 4


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: what to inject, and at which record index.

    ``param`` disambiguates within a kind (e.g. which worker to kill).
    """

    kind: str
    at_index: int
    param: int = 0


@dataclass
class FaultSchedule:
    """A seeded, ordered set of fault events for one replay run."""

    seed: int
    events: list[FaultEvent] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        seed: int,
        num_records: int,
        kinds: tuple[str, ...] = FAULT_KINDS,
        events_per_kind: int = 1,
    ) -> "FaultSchedule":
        """Derive a deterministic schedule from ``(seed, num_records)``.

        Event indices come from the ``"faults/<kind>"`` RNG stream, are
        kept clear of the first and last few records (so startup and
        drain stay clean), and never collide across kinds.

        Parameters
        ----------
        seed:
            The run's base seed.
        num_records:
            Length of the trace being replayed.
        kinds:
            Which fault kinds to schedule (default: the full catalogue).
        events_per_kind:
            Number of events of each kind.
        """
        margin = min(3, max(0, num_records // 4))
        low, high = margin, max(margin + 1, num_records - margin)
        taken: set[int] = set()
        events = []
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}")
            generator = rng(seed, f"faults/{kind}")
            for ordinal in range(events_per_kind):
                index = int(generator.integers(low, high))
                while index in taken:
                    index = (index + 1) % num_records
                taken.add(index)
                events.append(FaultEvent(kind=kind, at_index=index, param=ordinal))
        events.sort(key=lambda event: (event.at_index, event.kind))
        return cls(seed=seed, events=events)

    def at(self, index: int) -> list[FaultEvent]:
        """The events scheduled for record ``index`` (usually 0 or 1)."""
        return [event for event in self.events if event.at_index == index]


class FaultInjector:
    """Applies a :class:`FaultSchedule` from the replayer's hooks.

    One injector per replay run.  The replayer calls
    :meth:`before_record` just before materializing each record (its
    return value forces in-place operand reuse for the mutation fault),
    :meth:`after_record` right after submitting it, and
    :meth:`finalize` once the trace has drained, which settles any
    injected out-of-band requests and reports their pass/fail counts.

    Parameters
    ----------
    schedule:
        The seeded fault schedule to apply.
    oversized_elements:
        Element count of the oversized dense operand (must exceed the
        target ring's payload budget to force the fallback path; the
        soak suite pairs this with a deliberately small ring).
    """

    def __init__(self, schedule: FaultSchedule, oversized_elements: int = 1 << 16):
        self.schedule = schedule
        self.oversized_elements = int(oversized_elements)
        self.applied: list[FaultEvent] = []
        self.skipped: list[FaultEvent] = []
        self._mutation_until = -1
        self._storm_until = -1
        self._storm_saved: tuple[bool, object] | None = None
        self._saved_window: int | None = None
        self._injected: list[tuple[Future, np.ndarray]] = []

    # -- hook: before each record -------------------------------------------
    def before_record(self, session: Session, index: int, record: TraceRecord) -> bool:
        """Apply the faults scheduled at ``index``; return force-reuse flag.

        Parameters
        ----------
        session:
            The replaying session (its backend is probed for
            cluster-only capabilities).
        index / record:
            The record about to be materialized and submitted.
        """
        self._restore_admission(session)
        force_reuse = index <= self._mutation_until
        for event in self.schedule.at(index):
            if event.kind == "worker_kill":
                if self._kill_worker(session, event.param):
                    self.applied.append(event)
                else:
                    self.skipped.append(event)
            elif event.kind == "admission_saturation":
                if self._saturate_admission(session):
                    self.applied.append(event)
                else:
                    self.skipped.append(event)
            elif event.kind == "value_mutation":
                self._mutation_until = index + MUTATION_WINDOW
                force_reuse = True
                self.applied.append(event)
            elif event.kind == "oversized_operand":
                self._inject_oversized(session)
                self.applied.append(event)
            elif event.kind == "control_thread_exception":
                if self._break_control_thread(session):
                    self.applied.append(event)
                else:
                    self.skipped.append(event)
            elif event.kind == "crash_loop_worker":
                if self._crash_loop_worker(session, event.param):
                    self.applied.append(event)
                else:
                    self.skipped.append(event)
            elif event.kind == "deadline_storm":
                self._storm_until = index + DEADLINE_STORM_WINDOW
                self.applied.append(event)
        if index <= self._storm_until:
            # Stamp an already-expired deadline on the record for this one
            # submission; after_record restores the original extras value.
            self._storm_saved = (
                "deadline_ms" in record.extras,
                record.extras.get("deadline_ms"),
            )
            record.extras["deadline_ms"] = 0.0
        return force_reuse

    # -- hook: after each record --------------------------------------------
    def after_record(
        self, session: Session, index: int, record: TraceRecord, future: Future
    ) -> None:
        """Undo single-record faults (admission window) after submission.

        Parameters
        ----------
        session / index / record / future:
            The just-submitted request and its session.
        """
        # The saturated window must stay collapsed only for the one
        # record it targeted; restore it on the next hook invocation or
        # here once the targeted submit has gone through.
        self._restore_admission(session)
        if self._storm_saved is not None:
            had_key, original = self._storm_saved
            if had_key:
                record.extras["deadline_ms"] = original
            else:
                record.extras.pop("deadline_ms", None)
            self._storm_saved = None

    # -- hook: end of run ----------------------------------------------------
    def finalize(self, session: Session, timeout: float) -> tuple[int, int]:
        """Settle injected out-of-band requests; return (ok, failed).

        Parameters
        ----------
        session:
            The replaying session.
        timeout:
            Seconds to wait for each injected request.
        """
        self._restore_admission(session)
        ok = failed = 0
        for future, expected in self._injected:
            try:
                result = future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 - any loss/error is a failure
                failed += 1
                continue
            if np.allclose(result, expected, rtol=1e-10, atol=1e-12):
                ok += 1
            else:
                failed += 1
        return ok, failed

    # -- individual faults ---------------------------------------------------
    def _kill_worker(self, session: Session, param: int) -> bool:
        backend = session._backend
        pids = getattr(backend, "worker_pids", None)
        if not pids:
            return False
        # Never target a slot the supervisor already retired: its pid is
        # a corpse (or a reused pid), and a crash_loop_worker fault
        # earlier in the run may have exhausted its budget.
        supervisor = getattr(backend, "supervisor", None)
        candidates = [
            (slot, pid)
            for slot, pid in enumerate(pids)
            if pid is not None
            and (supervisor is None or not supervisor.is_dead(slot))
        ]
        if not candidates:
            return False
        _, victim = candidates[param % len(candidates)]
        try:
            os.kill(victim, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            return False
        # Give the health monitor a beat to notice before the next
        # submission lands; keeps the kill deterministic in effect
        # (restart + requeue) rather than racing the submit.
        deadline = time.perf_counter() + 5.0
        while time.perf_counter() < deadline:
            current = getattr(backend, "worker_pids", [])
            if victim not in current:
                break
            time.sleep(0.01)
        return True

    def _break_control_thread(self, session: Session) -> bool:
        backend = session._backend
        if getattr(backend, "_monitor_iteration", None) is None:
            return False
        # Shadow the instance's monitor seam with a raising wrapper; the
        # monitor thread hits it on its next round (one health_interval at
        # most) and must contain the failure (fail in-flight futures,
        # refuse new submissions) rather than hang.  One-shot: the wrapper
        # removes itself, and later rounds supervise the workers again.
        def raising_iteration() -> None:
            del backend._monitor_iteration
            raise RuntimeError("injected control-plane fault")

        backend._monitor_iteration = raising_iteration  # type: ignore[method-assign]
        # Wait for containment to land before the replay submits the next
        # record: at time_scale=0 the whole tail would otherwise race the
        # dying monitor into the primary and fail, instead of
        # deterministically seeing the control error (and the failover
        # path when one is configured).
        deadline = time.perf_counter() + 5.0
        while time.perf_counter() < deadline:
            if getattr(backend, "_control_error", None) is not None:
                break
            time.sleep(0.005)
        return True

    def _crash_loop_worker(self, session: Session, param: int) -> bool:
        backend = session._backend
        supervisor = getattr(backend, "supervisor", None)
        pids = getattr(backend, "worker_pids", None)
        if supervisor is None or not pids:
            return False
        slot = param % len(pids)
        # Kill every incarnation the supervisor brings up until the slot's
        # restart budget drains and it is marked permanently dead (bounded
        # by a wall-clock budget so a generous restart budget cannot wedge
        # the replay).
        deadline = time.perf_counter() + 10.0
        last_pid: int | None = None
        while time.perf_counter() < deadline and not supervisor.is_dead(slot):
            current = getattr(backend, "worker_pids", [])
            if slot >= len(current):
                break
            pid = current[slot]
            if pid != last_pid:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    pass
                last_pid = pid
            time.sleep(0.02)
        return supervisor.is_dead(slot)

    def _saturate_admission(self, session: Session) -> bool:
        admission = getattr(session._backend, "admission", None)
        if admission is None:
            return False
        if self._saved_window is None:
            self._saved_window = admission.max_inflight
        admission.max_inflight = 0
        return True

    def _restore_admission(self, session: Session) -> None:
        if self._saved_window is None:
            return
        admission = getattr(session._backend, "admission", None)
        if admission is not None:
            admission.max_inflight = self._saved_window
        self._saved_window = None

    def _inject_oversized(self, session: Session) -> None:
        # A dense @ dense product big enough to blow the ring's payload
        # budget; expected value computed here, checked at finalize.
        side = max(8, int(np.sqrt(self.oversized_elements)))
        generator = rng(self.schedule.seed, f"oversized/{len(self._injected)}")
        a = generator.standard_normal((side, side))
        b = generator.standard_normal((side, 4))
        from repro.formats import COO

        sparse_a = COO.from_dense(a)
        expected = a @ b
        future = session.submit(SPMM_EXPRESSION, A=sparse_a, B=b)
        self._injected.append((future, expected))


__all__ = [
    "DEADLINE_STORM_WINDOW",
    "FAULT_KINDS",
    "MUTATION_WINDOW",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
]
