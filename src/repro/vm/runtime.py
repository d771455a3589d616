"""DynamoSim: the DynamoRIO-like runtime code manipulation system.

Executes a program the way DynamoRIO does (paper Section 3): user code
runs from a basic-block cache with a dispatcher between blocks, direct
branches get linked after first use, indirect branches pay a fast lookup,
and hot block sequences are stitched into single-entry multiple-exits
traces kept in a trace cache.  All overheads are charged to the machine
state's cycle counter via the cost model.

UMI plugs in through :class:`RuntimeHooks`: trace creation, trace
entry/exit (where profiling rows are managed), and the periodic timer
sample used by the region selector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.isa import Program
from repro.isa.instructions import RET, SWITCH
from repro.telemetry import get_telemetry

from .cost_model import DEFAULT_COST_MODEL, CostModel
from .interpreter import (
    DEFAULT_MAX_STEPS, ExecutionLimitExceeded, Interpreter,
)
from .trace import Trace
from .trace_builder import TraceBuilder


class RuntimeHooks:
    """Callbacks a client (UMI) can override.  Defaults do nothing."""

    def trace_created(self, trace: Trace) -> None:
        """A new trace was placed in the trace cache."""

    def trace_entered(self, trace: Trace) -> None:
        """Control entered a trace (the instrumentation prolog point)."""

    def trace_exited(self, trace: Trace) -> None:
        """Control left a trace after one pass."""

    def timer_sample(self, trace: Optional[Trace]) -> None:
        """A program-counter sampling timer tick fired.

        ``trace`` is the trace the program counter was attributed to, or
        ``None`` when execution was in dispatcher/basic-block-cache code.
        """


@dataclass
class RuntimeConfig:
    """Knobs of the runtime system itself (not of UMI)."""

    hot_threshold: int = 50
    max_trace_blocks: int = 32
    enable_traces: bool = True
    #: PC-sampling period in cycles; ``None`` disables the timer.
    sample_period: Optional[int] = None
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
        if self.hot_threshold < 1:
            raise ValueError("hot_threshold must be >= 1")
        if self.max_trace_blocks < 1:
            raise ValueError("max_trace_blocks must be >= 1")
        if self.sample_period is not None and self.sample_period < 1:
            raise ValueError("sample_period must be >= 1 or None")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class RuntimeStats:
    """What happened during one DynamoSim run."""

    blocks_translated: int = 0
    block_executions: int = 0
    trace_entries: int = 0
    traces_built: int = 0
    dispatches: int = 0
    indirect_lookups: int = 0
    timer_samples: int = 0
    steps_in_traces: int = 0
    total_steps: int = 0

    @property
    def trace_residency(self) -> float:
        """Fraction of dynamic instructions executed from the trace cache
        (the paper notes 176.gcc spends <70% of execution there)."""
        if not self.total_steps:
            return 0.0
        return self.steps_in_traces / self.total_steps


class DynamoSim:
    """The runtime: block cache + linker + trace cache + timer."""

    def __init__(
        self,
        program: Program,
        memsys,
        config: Optional[RuntimeConfig] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        hooks: Optional[RuntimeHooks] = None,
        stream=None,
    ) -> None:
        self.program = program
        self.config = config if config is not None else RuntimeConfig()
        self.cost_model = cost_model
        self.hooks = hooks if hooks is not None else RuntimeHooks()
        self.interp = Interpreter(program, memsys, cost_model,
                                  stream=stream)
        self.builder = TraceBuilder(
            program,
            hot_threshold=self.config.hot_threshold,
            max_blocks=self.config.max_trace_blocks,
        )
        self.traces: Dict[str, Trace] = {}
        self.stats = RuntimeStats()
        self._translated: Set[str] = set()
        self._linked: Set[Tuple[str, str]] = set()
        self._next_sample: Optional[int] = (
            self.config.sample_period if self.config.sample_period else None
        )

    # -- public API -----------------------------------------------------------

    @property
    def state(self):
        return self.interp.state

    def run(self) -> RuntimeStats:
        """Execute the program to completion under the runtime."""
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return self._run()
        with telemetry.span("vm.run",
                            labels={"program": self.program.name}):
            stats = self._run()
        telemetry.event(
            "vm.run_stats", program=self.program.name,
            traces_built=stats.traces_built,
            blocks_translated=stats.blocks_translated,
            trace_entries=stats.trace_entries,
            timer_samples=stats.timer_samples,
            trace_residency=stats.trace_residency,
        )
        return stats

    def _run(self) -> RuntimeStats:
        """The dispatch loop.  Transitions are charged inline, and trace
        passes run inline too (the body of :meth:`_execute_trace`) with
        the hooks called directly, since a trace averages barely more
        than one block per pass."""
        state = self.state
        interp = self.interp
        execute_decoded = interp.execute_decoded
        trace_decoded = interp.trace_decoded
        execute_block = self._execute_block
        stream = interp.stream
        traces = self.traces
        builder = self.builder
        stats = self.stats
        linked = self._linked
        hooks = self.hooks
        trace_entered = hooks.trace_entered
        trace_exited = hooks.trace_exited
        model = self.cost_model
        dispatch_cost = model.dispatch_cost
        indirect_lookup_cost = model.indirect_lookup_cost
        discount = model.trace_branch_discount
        period = self.config.sample_period
        next_sample = self._next_sample
        max_steps = self.config.max_steps
        label: Optional[str] = self.program.entry
        prev_label: Optional[str] = None
        prev_indirect = False
        last_trace: Optional[Trace] = None

        while label is not None:
            if prev_label is None:
                state.cycles += dispatch_cost
                stats.dispatches += 1
            elif prev_indirect:
                state.cycles += indirect_lookup_cost
                stats.indirect_lookups += 1
            elif (prev_label, label) not in linked:
                # First direct transition goes through the dispatcher,
                # which then links the two fragments; later ones are free.
                state.cycles += dispatch_cost
                stats.dispatches += 1
                linked.add((prev_label, label))
            prev_label = label

            trace = (traces.get(label) if builder.recording_head is None
                     else None)
            if trace is None:
                label = execute_block(label)
            else:
                trace.entries += 1
                stats.trace_entries += 1
                steps_before = state.steps
                if stream is not None:
                    stream.trace_id = f"{trace.head}@{trace.entries}"
                trace_entered(trace)
                if trace.prefetch_map:
                    interp.prefetch_map = trace.prefetch_map
                labels = trace.block_labels
                n = len(labels)
                decoded = trace_decoded(trace.head, labels)
                i = 0
                while True:
                    label = execute_decoded(decoded[i])
                    i += 1
                    if label is None or i == n or label != labels[i]:
                        break
                    # Stayed on the trace: the stitched fragment elides
                    # this branch/layout cost.
                    state.cycles -= discount
                interp.prefetch_map = None
                if stream is not None:
                    stream.trace_id = None
                trace_exited(trace)
                stats.steps_in_traces += state.steps - steps_before
            last_trace = trace
            prev_indirect = interp.last_terminator_op in (SWITCH, RET)

            if next_sample is not None and state.cycles >= next_sample:
                while state.cycles >= next_sample:
                    next_sample += period
                    stats.timer_samples += 1
                    state.cycles += model.sample_interrupt_cost
                    hooks.timer_sample(last_trace)
                self._next_sample = next_sample

            if state.steps > max_steps:
                raise ExecutionLimitExceeded(
                    f"{self.program.name}: exceeded {max_steps} dynamic "
                    f"instructions under DynamoSim"
                )

        stats.total_steps = state.steps
        return stats

    # -- internals ---------------------------------------------------------------

    def _execute_block(self, label: str) -> Optional[str]:
        state = self.state
        if label not in self._translated:
            self._translated.add(label)
            state.cycles += self.cost_model.block_translation_cost
            self.stats.blocks_translated += 1
        self.stats.block_executions += 1

        builder = self.builder
        if self.config.enable_traces:
            builder.note_block_execution(label, self.traces.keys())

        next_label = self.interp.execute_block(label)

        if builder.recording:
            trace = builder.record_step(
                label, self.interp.last_terminator_op, next_label,
                self.traces.keys(),
            )
            if trace is not None:
                self._install_trace(trace)
        return next_label

    def _install_trace(self, trace: Trace) -> None:
        self.traces[trace.head] = trace
        cost = self.cost_model.trace_build_cost_per_block * len(trace.blocks)
        self.state.cycles += cost
        self.stats.traces_built += 1
        get_telemetry().count("vm.traces_built",
                              labels={"program": self.program.name})
        self.hooks.trace_created(trace)

    def _execute_trace(self, trace: Trace) -> Optional[str]:
        """One pass through a trace, as :meth:`_run` makes it inline;
        returns the exit label."""
        interp = self.interp
        state = self.state
        trace.entries += 1
        self.stats.trace_entries += 1
        steps_before = state.steps

        stream = interp.stream
        if stream is not None:
            # Unique per pass, so stream consumers can group references
            # into profile rows without extra boundary markers.
            stream.trace_id = f"{trace.head}@{trace.entries}"
        self.hooks.trace_entered(trace)
        if trace.prefetch_map:
            interp.prefetch_map = trace.prefetch_map

        labels = trace.block_labels
        n = len(labels)
        decoded = interp.trace_decoded(trace.head, labels)
        discount = self.cost_model.trace_branch_discount
        i = 0
        exit_label: Optional[str] = None
        while True:
            next_label = interp.execute_decoded(decoded[i])
            if next_label is None:
                exit_label = None
                break
            if i + 1 < n and next_label == labels[i + 1]:
                # Stayed on the trace: the stitched fragment elides this
                # branch/layout cost.
                state.cycles -= discount
                i += 1
                continue
            exit_label = next_label
            break

        interp.prefetch_map = None
        if stream is not None:
            stream.trace_id = None
        self.hooks.trace_exited(trace)
        self.stats.steps_in_traces += state.steps - steps_before
        return exit_label
