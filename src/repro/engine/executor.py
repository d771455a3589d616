"""Executors: turn RunSpecs into serialized outcome payloads.

The execution stack is layered in three pieces (see the "Distributed
execution" section of ``docs/ARCHITECTURE.md``):

1. the **lease protocol** (:mod:`repro.engine.protocol`) -- versioned,
   JSON-line-framed ``Lease``/``LeaseResult`` messages that carry a
   fusion group, its retry attempt, its deadline and the fault plan to
   a worker, and bring payloads plus a telemetry snapshot back;
2. the **coordinator** (:class:`LeaseExecutor`, here) -- plans the
   wavefront, leases pending groups to a pluggable
   :class:`~repro.engine.pools.WorkerPool`, classifies a dead or
   expired worker as a crash fault (the lease requeues through the
   ordinary :class:`RetryPolicy`), and merges results and telemetry in
   submission order;
3. the **worker backends** (:mod:`repro.engine.pools`) -- in-process,
   persistent local worker processes, or socket-connected standalone
   agents (:mod:`repro.engine.worker`), all indistinguishable to the
   coordinator.

The unit of work is deliberately the *payload dict* (the JSON-safe
summary from :func:`repro.serialize.outcome_to_dict`), not the live
:class:`~repro.runners.RunOutcome`: payloads are cheap to ship across
process and socket boundaries, are exactly what the persistent store
writes, and guarantee the serial path, every pool backend and a store
hit all hand the experiment layer byte-identical data.

Resilience: every fusion group runs under a :class:`RetryPolicy` --
bounded attempts, exponential backoff with an injectable sleep, and an
optional per-group wall-clock deadline.  Each lease's deadline clock
starts when its worker starts executing -- time spent waiting for a
free slot never counts against it -- and an attempt that overruns is
classified as a timeout even if a result eventually arrives, which
keeps failure classification identical across backends (the serial
executor enforces the same rule post-hoc on elapsed time).  A worker
that dies while holding a lease (killed process, dropped connection)
surfaces as a :func:`repro.faults.worker_loss_failure` crash fault and
the lease requeues on the next wave, on whatever worker is free.  A
group that still fails after its attempts are exhausted becomes one
structured :class:`FailedRun` payload per member spec -- the wavefront
*completes* and reports partial results -- unless the executor is
``strict``, in which case the final failure raises
:class:`SpecExecutionError` naming the member spec (or the shared
fused execution) that actually failed.  ``KeyboardInterrupt`` is
handled gracefully: in-flight leases are aborted, telemetry for
completed groups stays merged, and ``last_interrupt`` reports how many
groups finished before the interrupt.

Telemetry: every executed spec is timed under an ``executor.spec``
span (labelled by workload, carrying the spec digest).  Workers record
into their own process-local telemetry and ship a snapshot back inside
the :class:`~repro.engine.protocol.LeaseResult`; the coordinator
merges snapshots in spec *submission* order, so the combined registry
is identical to a serial run's regardless of completion order or
worker placement.  Retries and deadline expiries are counted under
``executor.retries`` and ``executor.timeouts``, identically across
backends; per-worker attribution lands separately under the
``pool.*`` labelled counters (``pool.specs``, ``pool.leases``,
``pool.retries``, ``pool.timeouts``, ``pool.lost``, labelled by pool
kind and worker id) and in :attr:`LeaseExecutor.worker_stats`.

Fault injection (:mod:`repro.faults`) hooks in at exactly one seam:
:func:`repro.engine.attempt.attempt_group` consults the installed plan
before executing, so injected crashes and hangs take the same code
path -- and produce byte-identical failure payloads -- whether the
attempt runs in-process, in a local worker process, or on a remote
agent.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.faults import active_fault_plan, worker_loss_failure
from repro.telemetry import get_telemetry

# Re-exported for compatibility: the execution seam lives in
# repro.engine.attempt so pool backends and the standalone worker can
# import it without circular imports.
from .attempt import (  # noqa: F401  (re-exports)
    attempt_group, execute_group_payloads, execute_spec,
    execute_spec_payload,
)
from .pools import LocalProcessPool, PoolEvent, WorkerPool, make_pool
from .protocol import Lease
from .spec import RunSpec

#: Signature of the streaming-results callback ``execute_groups``
#: accepts: ``(group_index, group, payloads)``, invoked as each group
#: reaches its final state (success or exhausted failure).  The engine
#: uses it to checkpoint wavefront progress to the store as it goes.
OnResult = Callable[[int, Sequence[RunSpec], List[Dict[str, Any]]], None]

#: Per-worker tallies tracked by the coordinator (and mirrored into
#: the ``pool.*`` labelled telemetry counters).
WORKER_STAT_FIELDS = ("leases", "specs", "retries", "timeouts", "lost",
                      "heartbeats_missed", "rejoins", "stale")


class DrainInterrupt(KeyboardInterrupt):
    """A graceful SIGTERM drain stopped the sweep mid-wavefront.

    Raised by an executor whose :meth:`request_drain` was called (the
    CLI wires it to SIGTERM): in-flight leases were finished and
    checkpointed, no new leases were granted, and the remaining groups
    are left for ``--resume``.  Subclasses ``KeyboardInterrupt`` so
    every existing interrupt path -- checkpoint salvage, telemetry,
    ``last_interrupt`` -- handles a drain identically; callers that
    care (the CLI banner and exit code) catch it first.
    """


class SpecExecutionError(RuntimeError):
    """One spec's execution failed; names the spec and its digest."""

    def __init__(self, spec: RunSpec, message: str,
                 worker_traceback: Optional[str] = None) -> None:
        self.spec = spec
        self.digest = spec.digest()
        self.worker_traceback = worker_traceback
        detail = f"\n--- worker traceback ---\n{worker_traceback}" \
            if worker_traceback else ""
        super().__init__(
            f"spec {spec.describe()} (digest {self.digest[:12]}) "
            f"failed: {message}{detail}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How an executor treats a failing or overrunning group.

    ``max_attempts`` counts total tries (1 = no retries).  Backoff
    before attempt *n+1* is ``backoff_base * backoff_factor**(n-1)``
    seconds, delivered through ``sleep`` so tests inject a no-op clock.
    ``timeout`` is a per-group wall-clock deadline in seconds
    (``None`` = unbounded); an attempt that overruns it is classified
    as a timeout even if it eventually returns, keeping serial and
    parallel classification identical.
    """

    max_attempts: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    timeout: Optional[float] = None
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff(self, failed_attempt: int) -> float:
        """Seconds to wait after attempt ``failed_attempt`` failed."""
        return self.backoff_base * self.backoff_factor ** (failed_attempt - 1)


@dataclass(frozen=True)
class InterruptReport:
    """How far a wavefront got before a ``KeyboardInterrupt``."""

    completed: int
    total: int


@dataclass
class FailedRun:
    """The structured residue of a group that exhausted its retries.

    One instance per member spec of the failed group; ``failed_member``
    names the member (``spec.describe()``) the failure was attributed
    to, or ``None`` when the shared fused execution itself failed.
    Serializes to a ``{"kind": "failed_run", ...}`` payload -- the same
    currency as successful outcome payloads -- so partial wavefront
    results stay one homogeneous list.
    """

    spec: RunSpec
    reason: str  # "error" | "timeout"
    error: str
    attempts: int
    failed_member: Optional[str] = None
    traceback: Optional[str] = None

    @property
    def digest(self) -> str:
        return self.spec.digest()

    def describe(self) -> str:
        return (f"FAILED[{self.reason}] {self.spec.describe()} "
                f"after {self.attempts} attempt(s): {self.error}")

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": "failed_run",
            "spec": self.spec.to_dict(),
            "digest": self.spec.digest(),
            "reason": self.reason,
            "error": self.error,
            "attempts": self.attempts,
            "failed_member": self.failed_member,
            "traceback": self.traceback,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FailedRun":
        return cls(
            spec=RunSpec.from_dict(payload["spec"]),
            reason=payload["reason"],
            error=payload["error"],
            attempts=payload["attempts"],
            failed_member=payload.get("failed_member"),
            traceback=payload.get("traceback"),
        )


def is_failed_payload(payload: Dict[str, Any]) -> bool:
    """True for the payload form of a :class:`FailedRun`."""
    return isinstance(payload, dict) and payload.get("kind") == "failed_run"


def _timeout_failure(group: Sequence[RunSpec],
                     policy: RetryPolicy) -> Dict[str, Any]:
    """The failure info for a group that overran its deadline."""
    return {
        "reason": "timeout",
        "error": f"TimeoutError: group exceeded its {policy.timeout:g}s "
                 f"deadline",
        "traceback": None,
        "member": 0 if len(group) == 1 else None,
    }


def _failed_payloads(group: Sequence[RunSpec], failure: Dict[str, Any],
                     attempts: int) -> List[Dict[str, Any]]:
    """One :class:`FailedRun` payload per member of a failed group."""
    member_index = failure.get("member")
    member = group[member_index].describe() \
        if member_index is not None else None
    return [
        FailedRun(
            spec=spec, reason=failure["reason"], error=failure["error"],
            attempts=attempts, failed_member=member,
            traceback=failure.get("traceback"),
        ).to_payload()
        for spec in group
    ]


def _spec_error(group: Sequence[RunSpec], failure: Dict[str, Any],
                attempts: int) -> SpecExecutionError:
    """Strict-mode error naming the member that actually failed."""
    member_index = failure.get("member")
    if member_index is not None:
        spec = group[member_index]
        blame = ""
        if len(group) > 1:
            blame = (f" (member {member_index + 1}/{len(group)} of the "
                     f"fused group)")
    else:
        spec = group[0]
        blame = (f" (shared fused execution of {len(group)} specs)"
                 if len(group) > 1 else "")
    message = (f"{failure['error']}{blame} "
               f"[reason={failure['reason']}, attempts={attempts}]")
    return SpecExecutionError(spec, message,
                              worker_traceback=failure.get("traceback"))


def _resolve_group_serially(group: Sequence[RunSpec], policy: RetryPolicy,
                            telemetry) -> Tuple[str, Any, int]:
    """Retry loop for one group in the calling process.

    Returns ``(status, value, attempts_used)``.  An attempt whose
    elapsed wall time overran ``policy.timeout`` is reclassified as a
    timeout (and its result discarded) even if it returned -- mirroring
    the coordinator-side deadline the pools enforce, so both paths
    retry and fail identically under the same fault plan.
    """
    attempt = 1
    while True:
        start = time.monotonic()
        status, value = attempt_group(group, attempt)
        elapsed = time.monotonic() - start
        if policy.timeout is not None and elapsed > policy.timeout:
            telemetry.count("executor.timeouts")
            status, value = "error", _timeout_failure(group, policy)
        if status == "ok" or attempt >= policy.max_attempts:
            return status, value, attempt
        telemetry.count("executor.retries")
        policy.sleep(policy.backoff(attempt))
        attempt += 1


def _execute_groups_serially(executor, groups: List[List[RunSpec]],
                             on_result: Optional[OnResult]
                             ) -> List[List[Dict[str, Any]]]:
    """Shared in-process group loop (SerialExecutor + jobs==1 fallback)."""
    telemetry = get_telemetry()
    results: List[List[Dict[str, Any]]] = []
    completed = 0
    try:
        for index, group in enumerate(groups):
            if getattr(executor, "_drain", False):
                raise DrainInterrupt("drain requested")
            status, value, attempts = _resolve_group_serially(
                group, executor.retry, telemetry)
            if status == "ok":
                payloads = value
                executor.runs_executed += 1
            else:
                if executor.strict:
                    raise _spec_error(group, value, attempts)
                executor.runs_failed += 1
                payloads = _failed_payloads(group, value, attempts)
            completed += 1
            results.append(payloads)
            if on_result is not None:
                on_result(index, group, payloads)
    except KeyboardInterrupt:
        executor.last_interrupt = InterruptReport(completed, len(groups))
        telemetry.event("executor.interrupted", completed=completed,
                        total=len(groups))
        raise
    return results


class SerialExecutor:
    """Runs specs one after another in the calling process."""

    jobs = 1
    supports_on_result = True
    pool_kind = "serial"

    def __init__(self, retry: Optional[RetryPolicy] = None,
                 strict: bool = True) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.strict = strict
        self.runs_executed = 0
        self.runs_failed = 0
        self.last_interrupt: Optional[InterruptReport] = None
        self.worker_stats: Dict[str, Dict[str, int]] = {}
        self._drain = False

    def execute(self, specs: Sequence[RunSpec]) -> List[Dict[str, Any]]:
        results = self.execute_groups([[spec] for spec in specs])
        return [payloads[0] for payloads in results]

    def request_drain(self) -> None:
        """Finish the group in flight, checkpoint it, then stop."""
        self._drain = True

    def execute_groups(self, groups: Sequence[Sequence[RunSpec]],
                       on_result: Optional[OnResult] = None
                       ) -> List[List[Dict[str, Any]]]:
        """Run fusion groups; one *execution* counted per group."""
        self.last_interrupt = None
        groups = [list(group) for group in groups]
        return _execute_groups_serially(self, groups, on_result)

    def close(self) -> None:
        """Nothing to release."""


class LeaseExecutor:
    """The coordinator: plans waves, leases groups to a worker pool.

    Owns all *policy* -- retries, deadlines-as-timeouts, crash-fault
    classification, strict-mode errors, submission-order telemetry
    merging, checkpoint callbacks -- while the
    :class:`~repro.engine.pools.WorkerPool` owns only *placement*.
    Execution proceeds in retry waves exactly like the historical
    parallel executor: attempt *n* of every pending group runs (each
    group as one :class:`~repro.engine.protocol.Lease`), then failed,
    expired and lost groups back off together and requeue as attempt
    *n+1*.  A lost worker consumes a retry attempt like any crash: the
    lease's failure info comes from
    :func:`repro.faults.worker_loss_failure`, and downstream handling
    (FailedRun payloads, strict errors, store checkpoints, resume) is
    byte-identical to an in-process crash.
    """

    supports_on_result = True

    def __init__(self, pool: WorkerPool,
                 retry: Optional[RetryPolicy] = None,
                 strict: bool = True) -> None:
        self.pool = pool
        self.jobs = pool.capacity
        self.retry = retry if retry is not None else RetryPolicy()
        self.strict = strict
        self.runs_executed = 0
        self.runs_failed = 0
        self.last_interrupt: Optional[InterruptReport] = None
        #: worker id -> one tally per :data:`WORKER_STAT_FIELDS` entry
        self.worker_stats: Dict[str, Dict[str, int]] = {}
        self._lease_seq = 0
        self._drain = False
        #: Optional :class:`~repro.engine.journal.LeaseJournal` (wired
        #: by the engine when a store is configured): grants, completes
        #: and final failures are journaled so a restarted
        #: coordinator's ``--resume`` recovers per-group attempt
        #: budgets and continues the fencing-epoch sequence.
        self.journal = None

    @property
    def pool_kind(self) -> str:
        return self.pool.kind

    def execute(self, specs: Sequence[RunSpec]) -> List[Dict[str, Any]]:
        """Run specs as singleton groups (no fusion)."""
        results = self.execute_groups([[spec] for spec in specs])
        return [payloads[0] for payloads in results]

    def request_drain(self) -> None:
        """Graceful SIGTERM drain: no new leases, finish what flies.

        In-flight leases run to completion and checkpoint; waiting
        groups stay pending for ``--resume``; the wavefront then
        raises :class:`DrainInterrupt`.  A socket pool is also
        detached, so its agents are severed without a shutdown frame
        and their rejoin loops can find the replacement coordinator.
        """
        self._drain = True
        detach = getattr(self.pool, "detach", None)
        if detach is not None:
            detach()

    def close(self) -> None:
        self.pool.close()

    # -- per-worker accounting ---------------------------------------

    def _stats(self, worker: str) -> Dict[str, int]:
        stats = self.worker_stats.get(worker)
        if stats is None:
            stats = dict.fromkeys(WORKER_STAT_FIELDS, 0)
            self.worker_stats[worker] = stats
        return stats

    def _attribute(self, telemetry, worker: str, stat: str,
                   n: int = 1) -> None:
        """One per-worker tally, mirrored into a labelled counter."""
        self._stats(worker)[stat] += n
        telemetry.count(f"pool.{stat}",
                        n=n, labels={"pool": self.pool.kind,
                                     "worker": worker})

    # -- the wave loop ------------------------------------------------

    def _next_lease(self, group: Sequence[RunSpec], attempt: int,
                    plan_dict: Optional[Dict[str, Any]],
                    telemetry_enabled: bool) -> Lease:
        self._lease_seq += 1
        return Lease.for_group(
            f"L{self._lease_seq:06d}", group, attempt,
            self.retry.timeout, plan_dict, telemetry_enabled,
            epoch=self._lease_seq)

    def _run_wave(self, groups: List[List[RunSpec]], pending: List[int],
                  attempts_used: Dict[int, int], keys: List[str],
                  plan_dict: Optional[Dict[str, Any]],
                  telemetry, outcomes: Dict[int, Any],
                  expired: Dict[int, str], lost: Dict[int, str]) -> None:
        """One retry wave: every pending group leased exactly once.

        Leases are submitted in submission order while the pool has
        capacity; each lease's deadline clock starts when its worker
        does, so time spent waiting for a free slot never counts
        against it.  A grant consumes the group's next attempt (and is
        journaled, so a coordinator that dies after granting does not
        hand the group a fresh budget on restart).  Raw pool events
        land incrementally in ``outcomes`` (index -> ``(status, value,
        snapshot, worker)``), ``expired`` and ``lost`` (index ->
        worker id), so the caller can salvage completed groups when
        the wave is interrupted; liveness-only events (rejoins, missed
        heartbeats, fenced stale results) are counted into telemetry
        here and never touch group state.  A drain request stops new
        submissions but waits out everything already in flight.
        """
        pool = self.pool
        waiting = list(pending)
        inflight: Dict[str, int] = {}
        try:
            while inflight or (waiting and not self._drain):
                while (waiting and not self._drain
                        and pool.has_capacity()):
                    index = waiting.pop(0)
                    attempt = attempts_used[index] + 1
                    lease = self._next_lease(
                        groups[index], attempt, plan_dict,
                        telemetry.enabled)
                    if self.journal is not None:
                        self.journal.record_grant(
                            keys[index], lease.epoch, attempt,
                            lease.lease_id)
                    attempts_used[index] = attempt
                    pool.submit(lease)
                    inflight[lease.lease_id] = index
                for event in pool.wait(timeout=1.0):
                    if event.kind == "rejoin":
                        self._attribute(telemetry, event.worker,
                                        "rejoins")
                        continue
                    if event.kind == "missed_heartbeat":
                        self._attribute(telemetry, event.worker,
                                        "heartbeats_missed")
                        continue
                    if event.kind == "stale":
                        telemetry.count("executor.stale_results_rejected")
                        self._attribute(telemetry, event.worker, "stale")
                        continue
                    index = inflight.pop(event.lease_id, None)
                    if index is None:
                        continue
                    group_size = len(groups[index])
                    if event.kind == "result":
                        outcomes[index] = (event.status, event.value,
                                           event.snapshot, event.worker)
                        self._attribute(telemetry, event.worker, "leases")
                        self._attribute(telemetry, event.worker, "specs",
                                        n=group_size)
                        if attempts_used[index] > 1:
                            self._attribute(telemetry, event.worker,
                                            "retries")
                    elif event.kind == "expired":
                        expired[index] = event.worker
                        self._attribute(telemetry, event.worker,
                                        "timeouts")
                    else:  # "lost"
                        lost[index] = event.worker
                        self._attribute(telemetry, event.worker, "lost")
        except BaseException:
            pool.abort()
            raise

    def execute_groups(self, groups: Sequence[Sequence[RunSpec]],
                       on_result: Optional[OnResult] = None
                       ) -> List[List[Dict[str, Any]]]:
        """Lease fusion groups to the pool; one execution per group.

        Each group carries its own attempt budget (seeded from the
        lease journal's dangling grants when resuming after a
        coordinator crash, clamped so every resumed group keeps at
        least one attempt here); a group that exhausts its budget
        resolves as a final failure immediately, while the rest keep
        retrying in waves.
        """
        self.last_interrupt = None
        groups = [list(group) for group in groups]
        if not groups:
            return []
        self.pool.start()
        telemetry = get_telemetry()
        policy = self.retry
        plan = active_fault_plan()
        plan_dict = plan.to_dict() if plan is not None else None
        keys = ["+".join(spec.digest() for spec in group)
                for group in groups]
        results: List[Optional[List[Dict[str, Any]]]] = [None] * len(groups)
        failures: Dict[int, Dict[str, Any]] = {}
        completed = 0
        attempts_used: Dict[int, int] = {}
        for index in range(len(groups)):
            prior = self.journal.prior_attempts(keys[index]) \
                if self.journal is not None else 0
            attempts_used[index] = min(prior, policy.max_attempts - 1)
        if self.journal is not None:
            # Continue the fencing sequence past anything a dead
            # coordinator granted, so this coordinator's epochs (and
            # lease ids) can never collide with a zombie's.
            self._lease_seq = max(self._lease_seq,
                                  self.journal.max_epoch)
        try:
            pending = list(range(len(groups)))
            wave = 0
            while pending and not self._drain:
                wave += 1
                if wave > 1:
                    telemetry.count("executor.retries", n=len(pending))
                    policy.sleep(policy.backoff(wave - 1))
                outcomes: Dict[int, Any] = {}
                expired: Dict[int, str] = {}
                lost: Dict[int, str] = {}
                exhausted: List[int] = []
                try:
                    self._run_wave(groups, pending, attempts_used, keys,
                                   plan_dict, telemetry, outcomes,
                                   expired, lost)
                finally:
                    # Resolve in submission order -- even when the wave
                    # was interrupted -- so telemetry merges
                    # deterministically (result i belongs to group i)
                    # and completed groups are checkpointed before the
                    # interrupt unwinds.
                    still_pending = []
                    for index in pending:
                        if index in expired:
                            telemetry.count("executor.timeouts")
                            failures[index] = _timeout_failure(
                                groups[index], policy)
                        elif index in lost:
                            failures[index] = worker_loss_failure(
                                len(groups[index]), lost[index],
                                pool_kind=self.pool.kind)
                        elif index not in outcomes:
                            # interrupted or drained before an outcome
                            still_pending.append(index)
                            continue
                        else:
                            status, value, snapshot, worker = \
                                outcomes[index]
                            if snapshot is not None:
                                telemetry.merge(
                                    snapshot,
                                    source=f"{self.pool.kind}:{worker}")
                            if status == "ok":
                                results[index] = value
                                self.runs_executed += 1
                                completed += 1
                                failures.pop(index, None)
                                if self.journal is not None:
                                    self.journal.record_complete(
                                        keys[index], attempts_used[index])
                                if on_result is not None:
                                    on_result(index, groups[index],
                                              value)
                                continue
                            failures[index] = value
                        if attempts_used[index] >= policy.max_attempts:
                            exhausted.append(index)
                        else:
                            still_pending.append(index)
                    pending = still_pending
                # Final failures resolve here, outside the finally, so
                # an interrupt unwinding through it is never replaced
                # by a strict-mode error.
                for index in exhausted:
                    if self.strict:
                        raise _spec_error(groups[index], failures[index],
                                          attempts_used[index])
                    payloads = _failed_payloads(
                        groups[index], failures[index],
                        attempts_used[index])
                    results[index] = payloads
                    self.runs_failed += 1
                    completed += 1
                    if self.journal is not None:
                        self.journal.record_fail(keys[index])
                    if on_result is not None:
                        on_result(index, groups[index], payloads)
            if pending and self._drain:
                raise DrainInterrupt(
                    f"drained with {len(pending)} group(s) pending")
            if self.journal is not None:
                # Clean end of sweep: nothing dangles, budgets must
                # not leak into unrelated sweeps.
                self.journal.compact()
        except KeyboardInterrupt:
            # _run_wave has already aborted in-flight leases (a drain
            # waited them out instead); completed groups stay counted
            # and their telemetry stays merged, so a resumed sweep
            # picks up exactly where this one stopped.
            self.last_interrupt = InterruptReport(completed,
                                                  len(groups))
            telemetry.event("executor.interrupted",
                            completed=completed, total=len(groups))
            raise
        finally:
            # Persistent workers serve one call: none outlives it.
            self.pool.shutdown_idle()
        return results


class ParallelExecutor(LeaseExecutor):
    """Fans independent specs across cores via local worker processes.

    The historical ``--jobs N`` executor, expressed as a
    :class:`LeaseExecutor` over a
    :class:`~repro.engine.pools.LocalProcessPool`.  A single-group
    wavefront (or ``jobs == 1``) short-circuits to the in-process
    serial loop -- same results, no process overhead.
    """

    def __init__(self, jobs: int = 0,
                 retry: Optional[RetryPolicy] = None,
                 strict: bool = True) -> None:
        if jobs <= 0:
            jobs = multiprocessing.cpu_count()
        super().__init__(LocalProcessPool(jobs), retry=retry,
                         strict=strict)

    def execute_groups(self, groups: Sequence[Sequence[RunSpec]],
                       on_result: Optional[OnResult] = None
                       ) -> List[List[Dict[str, Any]]]:
        groups = [list(group) for group in groups]
        if not groups:
            return []
        if len(groups) == 1 or self.jobs == 1:
            self.last_interrupt = None
            return _execute_groups_serially(self, groups, on_result)
        return super().execute_groups(groups, on_result)


def make_executor(jobs: int = 1, retry: Optional[RetryPolicy] = None,
                  strict: bool = True,
                  workers: Optional[str] = None):
    """Build the executor a CLI invocation asked for.

    ``workers`` (the ``--workers [N@]HOST:PORT`` spec) selects a
    socket-pool coordinator; otherwise ``jobs == 1`` -> serial and
    ``jobs > 1`` -> the local-process parallel executor.
    """
    if workers:
        return LeaseExecutor(make_pool(workers=workers), retry=retry,
                             strict=strict)
    if jobs == 1:
        return SerialExecutor(retry=retry, strict=strict)
    return ParallelExecutor(jobs=jobs, retry=retry, strict=strict)
