"""The execution engine: memo + store + executor behind one facade.

Resolution order for every spec:

1. in-process memo (same engine object, e.g. shared across one
   ``umi-experiments all`` invocation);
2. persistent store, when configured (results shared across processes);
3. the executor -- one lease coordinator, whether its pool runs the
   wavefront in-process, across local worker processes or on remote
   agents.

Whatever the path, the experiment layer receives the *restored view* of
the serialized payload (:func:`repro.serialize.outcome_from_dict`), so
table renderings are byte-identical whether a run was computed
in-process, in a worker process, or loaded from disk.

Resilience: wavefront progress is **checkpointed as it goes** -- each
group's payloads are persisted to the store the moment the executor
reports them (via the ``on_result`` callback), not after the whole
wavefront returns.  A sweep killed mid-flight therefore leaves every
completed group on disk, and re-running the same command (the CLI's
``--resume``) re-plans only the specs without valid records.  With a
non-strict executor, groups that exhausted their retries come back as
:class:`~repro.engine.executor.FailedRun` payloads: the engine records
them (``failed_runs()``), keeps them *out* of the store so a resume
re-executes them, and returns the :class:`FailedRun` objects in place
of outcomes; a strict executor raises
:class:`~repro.engine.executor.SpecExecutionError` instead, after the
completed groups have been checkpointed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.runners import RunOutcome
from repro.serialize import outcome_from_dict
from repro.telemetry import get_telemetry

from .executor import (
    FailedRun, LeaseExecutor, RetryPolicy, is_failed_payload,
    make_executor,
)
from .fusion import plan_groups
from .journal import JOURNAL_NAME, LeaseJournal
from .spec import RunSpec
from .store import ResultStore

#: What the engine hands back per spec: a restored outcome, or -- under
#: a non-strict executor -- the structured failure residue.
Resolved = Union[RunOutcome, FailedRun]


class ExecutionEngine:
    """Schedules, caches and persists RunSpec executions."""

    def __init__(self, executor: Optional[LeaseExecutor] = None,
                 store: Optional[ResultStore] = None,
                 jobs: int = 1, strict: bool = True,
                 retry: Optional[RetryPolicy] = None,
                 workers: Optional[str] = None) -> None:
        self.executor = executor if executor is not None \
            else make_executor(jobs, retry=retry, strict=strict,
                               workers=workers)
        self.store = store
        self.journal: Optional[LeaseJournal] = None
        if store is not None:
            # Coordinator crash recovery: grant/complete/fail events
            # land in a JSONL journal beside the store, so a restarted
            # coordinator's --resume recovers per-group attempt
            # budgets and continues the fencing-epoch sequence.
            self.journal = LeaseJournal(str(store.root / JOURNAL_NAME))
            self.executor.journal = self.journal
        #: Specs handed to the executor this session (memo/store hits
        #: excluded, failed specs included) -- the spec-level
        #: counterpart of the executor's per-*group* ``runs_executed``.
        self.specs_executed = 0
        self._memo: Dict[RunSpec, RunOutcome] = {}
        self._payloads: Dict[RunSpec, dict] = {}
        self._failed: Dict[RunSpec, FailedRun] = {}

    # -- bookkeeping ---------------------------------------------------------

    @property
    def runs_executed(self) -> int:
        """Specs actually executed (memo/store hits excluded)."""
        return self.executor.runs_executed

    @property
    def runs_failed(self) -> int:
        """Groups that exhausted their retries (non-strict executors)."""
        return self.executor.runs_failed

    @property
    def store_hits(self) -> int:
        return self.store.hits if self.store is not None else 0

    def failed_runs(self) -> Dict[RunSpec, FailedRun]:
        """Every spec that failed this session, with its failure residue."""
        return dict(self._failed)

    def __contains__(self, spec: RunSpec) -> bool:
        return spec in self._memo

    # -- running -------------------------------------------------------------

    def run(self, spec: RunSpec) -> Resolved:
        """Resolve one spec (memo -> store -> execute)."""
        return self.run_many([spec])[0]

    def run_many(self, specs: Sequence[RunSpec]) -> List[Resolved]:
        """Resolve many specs; unresolved ones run as one wavefront.

        Results come back in argument order, duplicates allowed.
        Specs that already failed this session are not re-executed;
        their recorded :class:`FailedRun` is returned again.
        """
        telemetry = get_telemetry()
        specs = list(specs)
        missing: List[RunSpec] = []
        seen = set()
        for spec in specs:
            if spec in self._memo:
                telemetry.count("engine.memo_hits")
                continue
            if spec in self._failed or spec in seen:
                continue
            if self.store is not None:
                payload = self.store.load(spec)
                if payload is not None:
                    self._admit(spec, payload)
                    continue
            seen.add(spec)
            missing.append(spec)
        if missing:
            groups = plan_groups(missing)
            with telemetry.span("engine.wavefront", specs=len(missing),
                                groups=len(groups),
                                jobs=self.executor.jobs):
                self._execute_wavefront(groups)
            self.specs_executed += len(missing)
            telemetry.count("engine.specs_executed", n=len(missing))
        return [self._failed[spec] if spec in self._failed
                else self._memo[spec] for spec in specs]

    def _execute_wavefront(self, groups: List[List[RunSpec]]) -> None:
        """Run the planned groups, checkpointing results as they land."""
        def checkpoint(index: int, group: Sequence[RunSpec],
                       payloads: List[dict]) -> None:
            self._absorb(group, payloads)

        # Every group is persisted the moment it resolves, so an
        # interrupt or strict failure later in the wavefront cannot
        # lose the work already done.
        self.executor.execute_groups(groups, on_result=checkpoint)

    def prefill(self, specs: Sequence[RunSpec]) -> None:
        """Schedule a wavefront without consuming the results yet."""
        self.run_many(specs)

    def _absorb(self, group: Sequence[RunSpec],
                payloads: List[dict]) -> None:
        telemetry = get_telemetry()
        for spec, payload in zip(group, payloads):
            if is_failed_payload(payload):
                self._failed[spec] = FailedRun.from_payload(payload)
                telemetry.count("engine.specs_failed")
                continue
            if self.store is not None:
                self.store.save(spec, payload)
            self._admit(spec, payload)

    def _admit(self, spec: RunSpec, payload: dict) -> None:
        self._payloads[spec] = payload
        self._memo[spec] = outcome_from_dict(payload)

    def close(self) -> None:
        """Release the executor's worker pool (idle agents get a
        clean shutdown; sockets and listeners close)."""
        self.executor.close()
        if self.journal is not None:
            self.journal.close()

    # -- archiving -------------------------------------------------------------

    def payloads(self) -> Iterator[Tuple[RunSpec, dict]]:
        """Every resolved ``(spec, outcome payload)`` this session."""
        return iter(self._payloads.items())
