"""Classification of real infrastructure failures as crash faults.

The fault *plans* in :mod:`repro.faults.plan` describe injected
failures; this module is the other half of the story: when a worker
node genuinely dies while holding a lease -- a killed agent, a dropped
connection, a worker process that exited without reporting -- the
coordinator classifies the loss as a **crash fault**, producing the
same structured failure-info shape an :class:`InjectedCrash` produces.
The lease then requeues through the ordinary
:class:`~repro.engine.executor.RetryPolicy`, and a group that exhausts
its attempts becomes the same :class:`~repro.engine.executor.FailedRun`
payload a crashed in-process attempt would -- dead nodes need no new
failure currency anywhere downstream.

Like the rest of this package, nothing here imports from
:mod:`repro.engine`: the helpers take plain sizes and names and return
plain dicts, so any execution layer can consult them without an import
cycle.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .plan import InjectedFault


class WorkerCrashFault(InjectedFault):
    """Raised/reported when a worker dies while holding a lease.

    Not *injected* in the plan sense -- it classifies a real death --
    but it shares the fault taxonomy so retry handling, strict-mode
    errors and FailedRun payloads treat both identically.
    """


def worker_loss_failure(group_size: int, worker: str,
                        pool_kind: str = "local",
                        detail: Optional[str] = None) -> Dict[str, Any]:
    """Failure info for a lease lost to a dead worker.

    Shaped exactly like :func:`~repro.engine.attempt.attempt_group`'s
    error value, so the coordinator's retry loop cannot tell a dead
    node from an in-process crash: ``member`` blames the sole member of
    a singleton group and stays ``None`` for a fused group (the shared
    execution was lost, not one member's serialization).
    """
    suffix = f": {detail}" if detail else ""
    return {
        "reason": "error",
        "error": (f"WorkerCrashFault: worker {worker} ({pool_kind} pool) "
                  f"died without reporting a result{suffix}"),
        "traceback": None,
        "member": 0 if group_size == 1 else None,
    }
