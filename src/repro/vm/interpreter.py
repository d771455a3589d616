"""The basic-block interpreter.

Executes one basic block at a time against a :class:`MachineState`,
sending every data reference to the memory hierarchy (which returns its
latency) and optionally emitting it into a batched
:class:`repro.stream.RefStream` -- the canonical reference stream every
other analysis (Cachegrind, trace recording, shadow hierarchies...)
consumes.  Loads and stores that hit L1 retire inline when the
hierarchy allows it (:meth:`MemoryHierarchy.l1_hit_lane`); only misses
and line-straddling references then reach ``memsys.access``.

The interpreter also carries the *instrumentation context* used when a
UMI-instrumented trace is executing: ``profile_cols`` maps instrumented
pcs to columns of the current address-profile row, and ``prefetch_map``
maps pcs of delinquent loads to injected software-prefetch deltas.  Both
are ``None`` during normal execution, keeping the hot path cheap.

Dispatch is threaded through per-block *decoded tuples*: the first
execution of a block flattens each instruction into a tuple holding its
opcode, pre-resolved base cost and pre-extracted operand fields (and,
for blocks under an instruction cache, the block's code lines), so the
steady-state loop touches no :class:`Instruction` or operand objects at
all.  :meth:`Interpreter.trace_decoded` additionally caches a trace's
whole decoded block list keyed by its head, which the runtime's trace
loop replays without per-block lookups.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa import Program
from repro.isa.instructions import (
    ADD, ALU_RI, ALU_RR, AND, CALL, CC_EQ, CC_GE, CC_GT, CC_LE, CC_LT,
    CC_NE, CMP_RI, CMP_RR, DIV, HALT, JCC, JMP, LEA, LOAD, MOD, MOV_RI,
    MOV_RR, MUL, NOP, OR, RET, SHL, SHR, STORE, SUB, SWITCH, WORK, XOR,
)
from repro.isa.registers import ESP

from .cost_model import DEFAULT_COST_MODEL, CostModel
from .state import MachineState

_U64_MASK = (1 << 64) - 1

#: The single source of truth for the dynamic-instruction budget; every
#: execution mode (native, dynamo/umi via ``RuntimeConfig``, Cachegrind,
#: tracing) defaults to this limit.
DEFAULT_MAX_STEPS = 500_000_000

#: Indirect terminators end DynamoRIO-style traces and pay the indirect
#: branch lookup cost in the runtime.
INDIRECT_TERMINATORS = frozenset({SWITCH, RET})


class ExecutionLimitExceeded(Exception):
    """The configured dynamic instruction budget was exhausted."""


class Interpreter:
    """Executes basic blocks of one program against one memory system."""

    def __init__(
        self,
        program: Program,
        memsys,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        stream=None,
    ) -> None:
        if not program.finalized:
            raise ValueError("program must be finalized")
        self.program = program
        self.memsys = memsys
        self.cost_model = cost_model
        #: optional :class:`repro.stream.RefStream` receiving every raw
        #: reference (batched); ``None`` keeps the hot path bare.
        self.stream = stream
        self.state = MachineState(program)
        # Instrumentation context (managed by the UMI runtime).
        self.profile_cols: Optional[Dict[int, int]] = None
        self.profile_row: Optional[List[Optional[int]]] = None
        self.prefetch_map: Optional[Dict[int, int]] = None
        # Opcode of the terminator of the most recently executed block;
        # the runtime uses it to decide dispatch costs.
        self.last_terminator_op: int = HALT
        # Per-block decoded tuple lists, built lazily on first execution.
        self._decoded: Dict[str, tuple] = {}
        # Per-trace decoded block lists, keyed by trace head.
        self._trace_decoded: Dict[str, tuple] = {}
        # Instruction fetch modelling: only when the memory system has an
        # instruction cache (FlatMemory and bare caches do not).
        self._models_ifetch = bool(getattr(memsys, "models_ifetch", False))
        # Inline L1-hit lane source (MemoryHierarchy only; FlatMemory and
        # bare caches always take ``access``).
        self._l1_hit_lane = getattr(memsys, "l1_hit_lane", None)
        self._profiled_op_cost = cost_model.profiled_op_cost
        self._sw_prefetch_issue_cost = cost_model.sw_prefetch_issue_cost

    # -- decoding --------------------------------------------------------------

    def _decode_block(self, label: str) -> tuple:
        """Flatten one block into dispatch tuples (cached per label)."""
        model = self.cost_model
        block = self.program.blocks[label]
        ops = []
        for ins in block.instructions:
            op = ins.op
            cost = model.instruction_cost(op, ins.aluop)
            if op == LOAD:
                m = ins.mem
                ops.append((op, cost, ins.pc, ins.dst, ins.size,
                            m.base, m.index, m.scale, m.disp))
            elif op == STORE:
                m = ins.mem
                ops.append((op, cost, ins.pc, ins.src, ins.imm, ins.size,
                            m.base, m.index, m.scale, m.disp))
            elif op == ALU_RI:
                ops.append((op, cost, ins.aluop, ins.dst, ins.imm))
            elif op == ALU_RR:
                ops.append((op, cost, ins.aluop, ins.dst, ins.src))
            elif op == CMP_RI:
                ops.append((op, cost, ins.dst, ins.imm))
            elif op == CMP_RR:
                ops.append((op, cost, ins.dst, ins.src))
            elif op == JCC:
                ops.append((op, cost, ins.cc, ins.target, ins.fallthrough))
            elif op == MOV_RI:
                ops.append((op, cost, ins.dst, ins.imm & _U64_MASK))
            elif op == MOV_RR:
                ops.append((op, cost, ins.dst, ins.src))
            elif op == LEA:
                m = ins.mem
                ops.append((op, cost, ins.dst,
                            m.base, m.index, m.scale, m.disp))
            elif op == WORK:
                # The WORK payload is a fixed extra charge; fold it into
                # the base cost at decode time.
                ops.append((op, cost + ins.imm))
            elif op == JMP:
                ops.append((op, cost, ins.target))
            elif op == SWITCH:
                ops.append((op, cost, ins.src, ins.targets))
            elif op == CALL:
                ops.append((op, cost, ins.pc, ins.target, ins.fallthrough))
            elif op == RET:
                ops.append((op, cost, ins.pc))
            elif op == NOP or op == HALT:
                ops.append((op, cost))
            else:
                # Defer the failure to execution time, matching the
                # undecoded interpreter's behaviour for dead code.
                ops.append((op, cost, ins.pc))
        lines = None
        if self._models_ifetch:
            first = block.base_pc >> 6
            last = (block.base_pc + 4 * len(block.instructions) - 1) >> 6
            lines = tuple(range(first, last + 1))
        entry = (tuple(ops), lines)
        self._decoded[label] = entry
        return entry

    def decoded_block(self, label: str) -> tuple:
        """The block's ``(dispatch tuples, code lines)`` entry."""
        entry = self._decoded.get(label)
        if entry is None:
            entry = self._decode_block(label)
        return entry

    def trace_decoded(self, head: str, block_labels) -> tuple:
        """Decoded entries for a whole trace, cached by trace head.

        ``block_labels`` is compared by identity so a rebuilt trace that
        reuses a head (with a different label tuple) re-decodes.
        """
        cached = self._trace_decoded.get(head)
        if cached is not None and cached[0] is block_labels:
            return cached[1]
        entries = tuple(self.decoded_block(l) for l in block_labels)
        self._trace_decoded[head] = (block_labels, entries)
        return entries

    # -- execution --------------------------------------------------------------

    def execute_block(self, label: str) -> Optional[str]:
        """Execute the block named ``label``; return the next label.

        Returns ``None`` when the program halts (``HALT``, or ``RET``
        with an empty call stack).  All cycle costs (instruction base
        cost + memory latency + any software-prefetch issue cost) are
        charged to the machine state.
        """
        entry = self._decoded.get(label)
        if entry is None:
            entry = self._decode_block(label)
        return self.execute_decoded(entry)

    def execute_decoded(self, entry: tuple) -> Optional[str]:
        """Execute one pre-decoded block entry (see :meth:`decoded_block`)."""
        state = self.state
        regs = state.regs
        memory = state.memory
        memsys = self.memsys
        access = memsys.access
        stream = self.stream
        if stream is not None:
            # The stream's column buffers are stable list objects, so
            # the bound appends stay valid across drains.
            s_pcs = stream.pcs
            emit_pc = s_pcs.append
            emit_addr = stream.addrs.append
            emit_size = stream.sizes.append
            emit_kind = stream.kinds.append
            emit_cycle = stream.cycles.append
            s_limit = stream.batch_size
            s_drain = stream.drain
        else:
            emit_pc = None
        profile_cols = self.profile_cols
        profile_row = self.profile_row
        prefetch_map = self.prefetch_map
        profiled_op_cost = self._profiled_op_cost
        cycles = state.cycles
        flags = state.flags
        steps = 0
        next_label: Optional[str] = None
        # LOAD/STORE retire single-line L1D hits inline when the
        # hierarchy allows it; ``access`` is the reference for the lane.
        # Counters may attach between blocks, so eligibility is per block
        # (and ``cycles`` only grows inside one, so ``now >= 0`` holds).
        lane = self._l1_hit_lane
        lane = lane() if lane is not None and cycles >= 0 else None
        if lane is not None:
            (l1_where, l1_stamps, _, _, l1_dirty, l1_mru, l1_stats,
             l1_touch, l1_plru, line_bits, l1_latency) = lane
        else:
            l1_where = None

        ops, lines = entry
        if lines is not None:
            if emit_pc is not None and stream.wants_ifetch:
                for line_addr in lines:
                    emit_pc(0)
                    emit_addr(line_addr << 6)
                    emit_size(64)
                    emit_kind(2)
                    emit_cycle(cycles)
                if len(s_pcs) >= s_limit:
                    s_drain()
            cycles += memsys.fetch(lines, cycles)

        for t in ops:
            op = t[0]
            steps += 1
            cycles += t[1]

            if op == LOAD:
                base = t[5]
                index = t[6]
                addr = t[8]
                if base is not None:
                    addr += regs[base]
                if index is not None:
                    addr += regs[index] * t[7]
                pc = t[2]
                size = t[4]
                if emit_pc is not None:
                    # Pre-access cycle count: the exact `now` the
                    # hierarchy sees, so consumers can replay exactly.
                    emit_pc(pc)
                    emit_addr(addr)
                    emit_size(size)
                    emit_kind(0)
                    emit_cycle(cycles)
                    if len(s_pcs) >= s_limit:
                        s_drain()
                slot = None
                if l1_where is not None:
                    line = addr >> line_bits
                    if (addr + size - 1) >> line_bits == line:
                        slot = l1_where.get(line)
                if slot is None:
                    cycles += access(pc, addr, False, size, cycles)
                else:
                    l1_stats.reads += 1
                    if l1_touch:
                        l1_stamps[slot] = cycles
                        if l1_plru:
                            l1_mru[slot] = True
                    cycles += l1_latency
                regs[t[3]] = memory.get(addr, 0)
                if profile_cols is not None:
                    col = profile_cols.get(pc)
                    if col is not None:
                        profile_row[col] = addr
                        cycles += profiled_op_cost
                if prefetch_map is not None:
                    delta = prefetch_map.get(pc)
                    if delta is not None:
                        memsys.software_prefetch(addr + delta, cycles)
                        cycles += self._sw_prefetch_issue_cost
                continue

            if op == STORE:
                base = t[6]
                index = t[7]
                addr = t[9]
                if base is not None:
                    addr += regs[base]
                if index is not None:
                    addr += regs[index] * t[8]
                pc = t[2]
                size = t[5]
                if emit_pc is not None:
                    emit_pc(pc)
                    emit_addr(addr)
                    emit_size(size)
                    emit_kind(1)
                    emit_cycle(cycles)
                    if len(s_pcs) >= s_limit:
                        s_drain()
                slot = None
                if l1_where is not None:
                    line = addr >> line_bits
                    if (addr + size - 1) >> line_bits == line:
                        slot = l1_where.get(line)
                if slot is None:
                    cycles += access(pc, addr, True, size, cycles)
                else:
                    l1_stats.writes += 1
                    l1_dirty[slot] = True
                    if l1_touch:
                        l1_stamps[slot] = cycles
                        if l1_plru:
                            l1_mru[slot] = True
                    cycles += l1_latency
                src = t[3]
                memory[addr] = regs[src] if src is not None else t[4]
                if profile_cols is not None:
                    col = profile_cols.get(pc)
                    if col is not None:
                        profile_row[col] = addr
                        cycles += profiled_op_cost
                continue

            if op == ALU_RI or op == ALU_RR:
                operand = t[4] if op == ALU_RI else regs[t[4]]
                aluop = t[2]
                dst = t[3]
                value = regs[dst]
                if aluop == ADD:
                    value += operand
                elif aluop == SUB:
                    value -= operand
                elif aluop == MUL:
                    value *= operand
                elif aluop == AND:
                    value &= operand
                elif aluop == OR:
                    value |= operand
                elif aluop == XOR:
                    value ^= operand
                elif aluop == SHL:
                    value <<= operand & 63
                elif aluop == SHR:
                    value = (value & _U64_MASK) >> (operand & 63)
                elif aluop == MOD:
                    value %= operand if operand else 1
                else:  # DIV
                    value //= operand if operand else 1
                regs[dst] = value & _U64_MASK
                continue

            if op == CMP_RI:
                flags = regs[t[2]] - t[3]
                continue
            if op == CMP_RR:
                flags = regs[t[2]] - regs[t[3]]
                continue

            if op == JCC:
                cc = t[2]
                if cc == CC_EQ:
                    taken = flags == 0
                elif cc == CC_NE:
                    taken = flags != 0
                elif cc == CC_LT:
                    taken = flags < 0
                elif cc == CC_LE:
                    taken = flags <= 0
                elif cc == CC_GT:
                    taken = flags > 0
                else:  # CC_GE
                    taken = flags >= 0
                next_label = t[3] if taken else t[4]
                break

            if op == MOV_RI:
                regs[t[2]] = t[3]
                continue
            if op == MOV_RR:
                regs[t[2]] = regs[t[3]]
                continue

            if op == LEA:
                base = t[3]
                index = t[4]
                addr = t[6]
                if base is not None:
                    addr += regs[base]
                if index is not None:
                    addr += regs[index] * t[5]
                regs[t[2]] = addr & _U64_MASK
                continue

            if op == WORK:
                continue

            if op == JMP:
                next_label = t[2]
                break

            if op == SWITCH:
                targets = t[3]
                next_label = targets[regs[t[2]] % len(targets)]
                break

            if op == CALL:
                regs[ESP] -= 8
                addr = regs[ESP]
                pc = t[2]
                if emit_pc is not None:
                    emit_pc(pc)
                    emit_addr(addr)
                    emit_size(8)
                    emit_kind(1)
                    emit_cycle(cycles)
                    if len(s_pcs) >= s_limit:
                        s_drain()
                cycles += access(pc, addr, True, 8, cycles)
                memory[addr] = 0
                state.call_stack.append(t[4])
                next_label = t[3]
                break

            if op == RET:
                addr = regs[ESP]
                pc = t[2]
                if emit_pc is not None:
                    emit_pc(pc)
                    emit_addr(addr)
                    emit_size(8)
                    emit_kind(0)
                    emit_cycle(cycles)
                    if len(s_pcs) >= s_limit:
                        s_drain()
                cycles += access(pc, addr, False, 8, cycles)
                regs[ESP] += 8
                if state.call_stack:
                    next_label = state.call_stack.pop()
                else:
                    next_label = None
                    state.halted = True
                break

            if op == NOP:
                continue

            if op == HALT:
                next_label = None
                state.halted = True
                break

            raise ValueError(f"unknown opcode {op} at pc {t[2]:#x}")

        state.cycles = cycles
        state.flags = flags
        state.steps += steps
        self.last_terminator_op = op
        return next_label

    def run_native(self, max_steps: int = DEFAULT_MAX_STEPS) -> MachineState:
        """Run the whole program natively (no runtime system overhead)."""
        label: Optional[str] = self.program.entry
        state = self.state
        limit = max_steps
        while label is not None:
            label = self.execute_block(label)
            if state.steps > limit:
                raise ExecutionLimitExceeded(
                    f"{self.program.name}: exceeded {max_steps} dynamic "
                    f"instructions"
                )
        return state
