"""Effects analysis: per-instruction, per-stage read and write sets.

The write-collision packet linter (:mod:`repro.tools.lint`) needed only
the write sets of one instruction; static scheduling needs much more:
*which pipeline stage* each access happens in, the *read* sets (for
RAW/WAR detection), whether the instruction may raise pipeline-control
requests, and the constant PC targets it can assign (for control-flow
recovery).  :class:`EffectsAnalyzer` computes all of it by lowering the
decode-time-resolved schedule into SimIR (:mod:`repro.simcc.ir`) and
reading the effects directly off the typed micro-operations -- the
*same* lowering the simulator backends execute, so the analysis sees
exactly the accesses the generated simulator performs.

Cells are identified as ``(resource, element)`` pairs: a
constant-folded element access becomes an exact cell ``("lsq", "0")``,
a scalar register ``("PC", None)``, and a computed index degrades to a
whole-resource wildcard ``("R", "*")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.machine.schedule import build_schedule
from repro.support.errors import ReproError

#: Maximum sub-operation inline depth the lowering follows before
#: giving up and marking the effects conservative/truncated.
MAX_CALL_DEPTH = 16


def cells_collide(a, b):
    """Whether two cells may denote the same storage."""
    if a[0] != b[0]:
        return False
    return a[1] == b[1] or a[1] == "*" or b[1] == "*"


def cell_text(cell, other=None):
    """Human-readable rendering of a cell (pairing wildcards with the
    other side's element when available)."""
    resource, element = cell
    if element == "*" and other is not None:
        element = other[1]
    if element is None:
        return resource
    if element == "*":
        return "%s[...]" % resource
    return "%s[%s]" % (resource, element)


@dataclass(frozen=True)
class PCWrite:
    """One assignment to the program counter found in a behaviour."""

    target: Optional[int]  # constant target, or None when computed
    conditional: bool  # under a run-time IF/WHILE


@dataclass(frozen=True)
class StageEffects:
    """Merged effects of everything one instruction does in one stage."""

    reads: frozenset
    writes: frozenset
    control: bool  # calls flush/stall/halt
    pc_writes: Tuple[PCWrite, ...]

    @classmethod
    def empty(cls):
        return cls(frozenset(), frozenset(), False, ())


@dataclass(frozen=True)
class InstructionEffects:
    """Per-stage effects of one decoded instruction instance.

    ``truncated`` is set when lowering hit the inline-depth limit or an
    unresolvable construct; consumers must treat such instructions
    conservatively (the hazard pass reports ``unknown``).
    """

    stages: Tuple[StageEffects, ...]
    truncated: bool

    @property
    def reads(self):
        cells = set()
        for stage in self.stages:
            cells |= stage.reads
        return cells

    @property
    def writes(self):
        cells = set()
        for stage in self.stages:
            cells |= stage.writes
        return cells

    @property
    def has_control(self):
        return any(stage.control for stage in self.stages)

    def pc_write_stages(self):
        """(stage index, PCWrite) pairs, shallowest stage first."""
        return [
            (index, write)
            for index, stage in enumerate(self.stages)
            for write in stage.pc_writes
        ]


class _StageAccumulator:
    __slots__ = ("reads", "writes", "control", "pc_writes")

    def __init__(self):
        self.reads = set()
        self.writes = set()
        self.control = False
        self.pc_writes = []

    def freeze(self):
        return StageEffects(
            reads=frozenset(self.reads),
            writes=frozenset(self.writes),
            control=self.control,
            pc_writes=tuple(self.pc_writes),
        )


class EffectsAnalyzer:
    """Computes :class:`InstructionEffects` for decoded instructions.

    Lowers the decode-time-resolved schedule into SimIR (only selected
    IF/SWITCH variants count, sub-operation invocations are inlined
    exactly as the code generator inlines them) and accumulates reads,
    writes, control requests and constant PC targets off the micro-ops;
    conditional accesses inside run-time guards are included
    conservatively.
    """

    def __init__(self, model, codegen=None):
        from repro.behavior.codegen import BehaviorCodegen

        self._model = model
        self._codegen = codegen if codegen is not None else \
            BehaviorCodegen(model)
        self._pc_name = model.pc_name

    @property
    def model(self):
        return self._model

    def effects_of(self, node):
        """Per-stage effects of one decoded instruction instance."""
        from repro.simcc import ir

        depth = self._model.pipeline.depth
        accs = [_StageAccumulator() for _ in range(depth)]
        truncated = False
        lowerer = ir.Lowerer(self._model, self._codegen._variant_cache,
                             depth_limit=MAX_CALL_DEPTH)
        for item in build_schedule(node, self._model):
            try:
                ops = lowerer.lower_statements(
                    item.behavior.statements, item.node
                )
            except ReproError:
                truncated = True  # unresolvable or too deep: conservative
                continue
            self._accumulate(ops, accs[item.stage], False, ir)
        return InstructionEffects(
            stages=tuple(acc.freeze() for acc in accs),
            truncated=truncated,
        )

    def written_cells(self, node):
        """All storage cells the instruction may write (any stage)."""
        return set(self.effects_of(node).writes)

    # -- the accumulator -----------------------------------------------------

    def _accumulate(self, ops, acc, cond, ir):
        """Fold one lowered micro-op sequence into a stage accumulator.

        ``cond`` marks ops nested under a run-time guard/loop (their PC
        writes are conditional; their reads/writes still count, which is
        the conservative inclusion the hazard pass relies on).
        """
        for op in ops:
            if isinstance(op, (ir.WriteReg, ir.WriteElem)):
                cell = ir.write_cell(op)
                acc.writes.add(cell)
                if isinstance(op, ir.WriteElem):
                    acc.reads |= ir.read_cells(op.index)
                acc.reads |= ir.read_cells(op.value)
                if op.augmented:
                    acc.reads.add(cell)
                elif cell == (self._pc_name, None):
                    acc.pc_writes.append(PCWrite(
                        target=self._const_target(op.value, ir),
                        conditional=cond,
                    ))
            elif isinstance(op, ir.WriteLocal):
                acc.reads |= ir.read_cells(op.value)
            elif isinstance(op, ir.Control):
                acc.control = True
                for arg in op.args:
                    acc.reads |= ir.read_cells(arg)
            elif isinstance(op, ir.Guard):
                acc.reads |= ir.read_cells(op.cond)
                self._accumulate(op.then_ops, acc, True, ir)
                self._accumulate(op.else_ops, acc, True, ir)
            elif isinstance(op, ir.Loop):
                acc.reads |= ir.read_cells(op.cond)
                self._accumulate(op.body, acc, True, ir)
            elif isinstance(op, ir.Eval):
                acc.reads |= ir.read_cells(op.value)

    @staticmethod
    def _const_target(value, ir):
        """The constant a PC write assigns, or None when computed.

        Folds just this value (never whole op sequences: folding away a
        constant-false guard would silently shrink the write sets the
        hazard pass depends on).
        """
        folded = ir._fold_value(value, ir.PassStats())
        return folded.value if isinstance(folded, ir.Const) else None


def packet_collisions(members, report=None, packet_pc=None):
    """Write-set collisions between the members of one execute packet.

    ``members`` is a sequence of ``(address, InstructionEffects)``
    pairs.  Returns the findings as a list; when ``report`` is given the
    findings are also recorded there (check id ``packet.collision``).
    """
    from repro.analysis.report import Finding

    findings = []
    seen = set()
    indexed = [(addr, fx.writes) for addr, fx in members]
    for i, (addr_a, cells_a) in enumerate(indexed):
        for addr_b, cells_b in indexed[i + 1:]:
            for cell_a in sorted(cells_a):
                for cell_b in sorted(cells_b):
                    if not cells_collide(cell_a, cell_b):
                        continue
                    message = (
                        "packet at 0x%x: parallel instructions at 0x%x "
                        "and 0x%x both write %s"
                        % (packet_pc if packet_pc is not None else addr_a,
                           addr_a, addr_b, cell_text(cell_a, cell_b))
                    )
                    if message in seen:
                        continue
                    seen.add(message)
                    if report is not None:
                        report.add("warning", addr_a, "packet.collision",
                                   message)
                    findings.append(Finding("warning", addr_a,
                                            "packet.collision", message))
    return findings


__all__ = [
    "MAX_CALL_DEPTH",
    "EffectsAnalyzer",
    "InstructionEffects",
    "StageEffects",
    "PCWrite",
    "cells_collide",
    "cell_text",
    "packet_collisions",
]
