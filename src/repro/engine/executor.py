"""The coordinator: turns RunSpecs into serialized outcome payloads.

The execution stack is layered in three pieces (see the "Distributed
execution" section of ``docs/ARCHITECTURE.md``):

1. the **lease protocol** (:mod:`repro.engine.protocol`) -- versioned,
   JSON-line-framed ``Lease``/``LeaseResult`` messages that carry a
   fusion group, its retry attempt, its deadline and the fault plan to
   a worker, and bring payloads plus a telemetry snapshot back;
2. the **coordinator** (:class:`LeaseExecutor`, here) -- the one
   execution loop.  It plans the wavefront, leases pending groups to
   a pluggable :class:`~repro.engine.pools.WorkerPool`, classifies a
   dead or expired worker as a crash fault (the lease requeues through
   the ordinary :class:`RetryPolicy`), and resolves results and
   telemetry in submission order;
3. the **worker backends** (:mod:`repro.engine.pools`) -- in-process
   (a serial sweep), persistent local worker processes (``--jobs N``),
   or socket-connected standalone agents (:mod:`repro.engine.worker`),
   all indistinguishable to the coordinator.

The unit of work is deliberately the *payload dict* (the JSON-safe
summary from :func:`repro.serialize.outcome_to_dict`), not the live
:class:`~repro.runners.RunOutcome`: payloads are cheap to ship across
process and socket boundaries, are exactly what the persistent store
writes, and guarantee every pool backend and a store hit all hand the
experiment layer byte-identical data.

Resilience: every fusion group runs under a :class:`RetryPolicy` --
bounded attempts, exponential backoff with an injectable sleep, and an
optional per-group wall-clock deadline.  Each lease's deadline clock
starts when its worker starts executing -- time spent waiting for a
free slot never counts against it -- and an attempt that overruns is
classified as a timeout even if a result eventually arrives, which
keeps failure classification identical across backends (the
in-process pool cannot interrupt an attempt, so it applies the same
rule post-hoc on elapsed time).  A worker that dies while holding a
lease (killed process, dropped connection) surfaces as a
:func:`repro.faults.worker_loss_failure` crash fault and the lease
requeues on the next wave, on whatever worker is free.  Each group is
checkpointed (``on_result``) as soon as it and every group submitted
before it have resolved.  A group that still fails after its attempts
are exhausted becomes one structured :class:`FailedRun` payload per
member spec -- the wavefront *completes* and reports partial results
-- unless the executor is ``strict``, in which case no new lease is
granted and, once the leases in flight have landed, the failure
raises :class:`SpecExecutionError` naming the member spec (or the
shared fused execution) that actually failed.  ``KeyboardInterrupt``
is handled gracefully: in-flight leases are aborted, completed groups
stay checkpointed with their telemetry merged, and ``last_interrupt``
reports how many groups finished before the interrupt.

Telemetry: every executed spec is timed under an ``executor.spec``
span (labelled by workload, carrying the spec digest).  Workers record
into their own process-local telemetry and ship a snapshot back inside
the :class:`~repro.engine.protocol.LeaseResult`; the coordinator
merges snapshots in spec *submission* order, so the combined registry
is identical to an in-process run's regardless of completion order or
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

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults import active_fault_plan, worker_loss_failure
from repro.telemetry import get_telemetry

from .pools import WorkerPool, make_pool
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
    """How the coordinator treats a failing or overrunning group.

    ``max_attempts`` counts total tries (1 = no retries).  Failed
    groups retry together in waves: the backoff before wave *n+1* is
    ``backoff_base * backoff_factor**(n-1)`` seconds, delivered
    through ``sleep`` so tests inject a no-op clock.  ``timeout`` is a
    per-group wall-clock deadline in seconds (``None`` = unbounded);
    an attempt that overruns it is classified as a timeout even if it
    eventually returns, so every pool classifies it identically.
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


@dataclass
class _Sweep:
    """The state of one :meth:`LeaseExecutor.execute_groups` call."""

    groups: List[List[RunSpec]]
    #: Journal key per group: its members' digests.
    keys: List[str]
    #: Attempts granted so far, per group.
    attempts: List[int]
    results: List[Optional[List[Dict[str, Any]]]]
    on_result: Optional[OnResult]
    plan_dict: Optional[Dict[str, Any]]
    telemetry: Any
    completed: int = 0
    #: Strict mode's first exhausted group, raised once nothing flies.
    error: Optional[SpecExecutionError] = None


class LeaseExecutor:
    """The coordinator: plans waves, leases groups to a worker pool.

    The one execution path for every sweep: a serial sweep is this
    coordinator over an :class:`~repro.engine.pools.InProcessPool`.
    It owns all *policy* -- retries, deadlines-as-timeouts, crash-fault
    classification, strict-mode errors, submission-order telemetry
    merging, checkpoint callbacks -- while the
    :class:`~repro.engine.pools.WorkerPool` owns only *placement*.
    Execution proceeds in retry waves: attempt *n* of every pending
    group runs (each group as one
    :class:`~repro.engine.protocol.Lease`), then failed, expired and
    lost groups back off together and requeue as attempt *n+1*.  A
    lost worker consumes a retry attempt like any crash: the lease's
    failure info comes from :func:`repro.faults.worker_loss_failure`,
    and downstream handling (FailedRun payloads, strict errors, store
    checkpoints, resume) is byte-identical to an in-process crash.
    """

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
        raises :class:`DrainInterrupt`.  The pool is also detached, so
        socket agents are severed without a shutdown frame and their
        rejoin loops can find the replacement coordinator.
        """
        self._drain = True
        self.pool.detach()

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

    def _stopping(self, sweep: _Sweep) -> bool:
        """No new grants: a drain was requested or strict mode failed."""
        return self._drain or sweep.error is not None

    def _run_wave(self, sweep: _Sweep, pending: List[int]) -> List[int]:
        """One retry wave: every pending group leased at most once.

        Leases are granted in submission order while the pool has
        capacity; each lease's deadline clock starts when its worker
        does, so time spent waiting for a free slot never counts
        against it.  A grant consumes the group's next attempt (and is
        journaled, so a coordinator that dies after granting does not
        hand the group a fresh budget on restart).  A group resolves
        as soon as it and every group granted before it have an
        outcome, so checkpoints stream while the wave runs and
        telemetry merges in submission order.  Liveness-only events
        (rejoins, missed heartbeats, fenced stale results) are counted
        into telemetry here and never touch group state.  A drain
        request or a strict failure stops new grants but waits out
        everything already in flight.  Returns the groups still
        pending: those to retry, then those never granted.
        """
        pool = self.pool
        telemetry = sweep.telemetry
        waiting = list(pending)
        unresolved = list(pending)
        inflight: Dict[str, int] = {}
        # index -> (status, value, snapshot, worker), until resolved
        arrived: Dict[int, Tuple[str, Any, Any, str]] = {}
        requeue: List[int] = []
        try:
            while inflight or (waiting and not self._stopping(sweep)):
                while (waiting and not self._stopping(sweep)
                        and pool.has_capacity()):
                    index = waiting.pop(0)
                    attempt = sweep.attempts[index] + 1
                    lease = self._next_lease(
                        sweep.groups[index], attempt, sweep.plan_dict,
                        telemetry.enabled)
                    if self.journal is not None:
                        self.journal.record_grant(
                            sweep.keys[index], lease.epoch, attempt,
                            lease.lease_id)
                    sweep.attempts[index] = attempt
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
                    group = sweep.groups[index]
                    if event.kind == "result":
                        arrived[index] = (event.status, event.value,
                                          event.snapshot, event.worker)
                        self._attribute(telemetry, event.worker, "leases")
                        self._attribute(telemetry, event.worker, "specs",
                                        n=len(group))
                        if sweep.attempts[index] > 1:
                            self._attribute(telemetry, event.worker,
                                            "retries")
                    elif event.kind == "expired":
                        telemetry.count("executor.timeouts")
                        arrived[index] = ("error", _timeout_failure(
                            group, self.retry), None, event.worker)
                        self._attribute(telemetry, event.worker,
                                        "timeouts")
                    else:  # "lost"
                        arrived[index] = ("error", worker_loss_failure(
                            len(group), event.worker,
                            pool_kind=pool.kind), None, event.worker)
                        self._attribute(telemetry, event.worker, "lost")
                while unresolved and unresolved[0] in arrived:
                    index = unresolved.pop(0)
                    if self._resolve(sweep, index, *arrived.pop(index)):
                        requeue.append(index)
        except BaseException:
            pool.abort()
            # Checkpoint results that landed ahead of an unfinished
            # group before the interrupt unwinds.
            for index in unresolved:
                outcome = arrived.pop(index, None)
                if outcome is not None and outcome[0] == "ok":
                    self._resolve(sweep, index, *outcome)
            raise
        return requeue + unresolved

    def _resolve(self, sweep: _Sweep, index: int, status: str, value: Any,
                 snapshot: Optional[Dict[str, Any]], worker: str) -> bool:
        """Settle one group's attempt; True when it must retry.

        A success or an exhausted failure is final: it is counted,
        journaled and handed to ``on_result``.  Under ``strict`` an
        exhausted failure becomes the sweep's error instead.
        """
        if snapshot is not None:
            sweep.telemetry.merge(snapshot,
                                  source=f"{self.pool.kind}:{worker}")
        group, key = sweep.groups[index], sweep.keys[index]
        attempts = sweep.attempts[index]
        if status == "ok":
            self.runs_executed += 1
            if self.journal is not None:
                self.journal.record_complete(key, attempts)
        elif attempts < self.retry.max_attempts:
            return True
        elif self.strict:
            if sweep.error is None:
                sweep.error = _spec_error(group, value, attempts)
            return False
        else:
            value = _failed_payloads(group, value, attempts)
            self.runs_failed += 1
            if self.journal is not None:
                self.journal.record_fail(key)
        sweep.results[index] = value
        sweep.completed += 1
        if sweep.on_result is not None:
            sweep.on_result(index, group, value)
        return False

    def execute_groups(self, groups: Sequence[Sequence[RunSpec]],
                       on_result: Optional[OnResult] = None
                       ) -> List[List[Dict[str, Any]]]:
        """Lease fusion groups to the pool; one execution per group.

        Each group carries its own attempt budget (seeded from the
        lease journal's dangling grants when resuming after a
        coordinator crash, clamped so every resumed group keeps at
        least one attempt here); a group that exhausts its budget
        resolves as a final failure at once, while the rest keep
        retrying in waves.  Under ``strict`` the first exhausted group
        stops new grants, and its :class:`SpecExecutionError` is
        raised once the leases in flight have landed and checkpointed.
        """
        self.last_interrupt = None
        groups = [list(group) for group in groups]
        if not groups:
            return []
        self.pool.start()
        policy = self.retry
        journal = self.journal
        keys = ["+".join(spec.digest() for spec in group)
                for group in groups]
        plan = active_fault_plan()
        telemetry = get_telemetry()
        sweep = _Sweep(
            groups=groups, keys=keys,
            attempts=[min(journal.prior_attempts(key),
                          policy.max_attempts - 1)
                      if journal is not None else 0 for key in keys],
            results=[None] * len(groups), on_result=on_result,
            plan_dict=plan.to_dict() if plan is not None else None,
            telemetry=telemetry)
        if journal is not None:
            # Continue the fencing sequence past anything a dead
            # coordinator granted, so this coordinator's epochs (and
            # lease ids) can never collide with a zombie's.
            self._lease_seq = max(self._lease_seq, journal.max_epoch)
        try:
            pending = list(range(len(groups)))
            wave = 0
            while pending and not self._stopping(sweep):
                wave += 1
                if wave > 1:
                    telemetry.count("executor.retries", n=len(pending))
                    policy.sleep(policy.backoff(wave - 1))
                pending = self._run_wave(sweep, pending)
            if sweep.error is not None:
                raise sweep.error
            if pending:  # only a drain leaves groups pending
                raise DrainInterrupt(
                    f"drained with {len(pending)} group(s) pending")
            if journal is not None:
                # Clean end of sweep: nothing dangles, budgets must
                # not leak into unrelated sweeps.
                journal.compact()
        except KeyboardInterrupt:
            # _run_wave has already aborted in-flight leases (a drain
            # waited them out instead); completed groups stay counted
            # and their telemetry stays merged, so a resumed sweep
            # picks up exactly where this one stopped.
            self.last_interrupt = InterruptReport(sweep.completed,
                                                  len(groups))
            telemetry.event("executor.interrupted",
                            completed=sweep.completed, total=len(groups))
            raise
        finally:
            # Persistent workers serve one call: none outlives it.
            self.pool.shutdown_idle()
        return sweep.results


def make_executor(jobs: int = 1, retry: Optional[RetryPolicy] = None,
                  strict: bool = True,
                  workers: Optional[str] = None) -> LeaseExecutor:
    """Build the coordinator a CLI invocation asked for.

    Always a :class:`LeaseExecutor`; only its pool differs (see
    :func:`~repro.engine.pools.make_pool`): ``workers`` (the
    ``--workers [N@]HOST:PORT`` spec) -> socket agents, ``jobs > 1``
    -> local worker processes, ``jobs == 1`` -> in-process.
    """
    return LeaseExecutor(make_pool(jobs, workers), retry=retry,
                         strict=strict)
