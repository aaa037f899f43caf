"""Static checks on assembled VLIW programs.

On a VLIW model, instructions of one execute packet run in the same
cycle; two of them writing the same storage cell is almost always a
bug (on this substrate the later slot silently wins -- and the load
unit's in-flight address queue is a storage cell too, so two parallel
loads corrupt each other).  The linter decodes every execute packet and
reports write-set collisions between its members.

The effects walk lives in :mod:`repro.analysis.effects` (shared with
CFG recovery and hazard analysis); this module keeps the historical
assembler-facing surface -- ``written_cells`` and ``lint_vliw_packets``
-- as thin wrappers over :class:`~repro.analysis.effects.
EffectsAnalyzer`.  Delegating also fixed an off-by-one in the old
walker's recursion guard, which allowed sub-operation chains one level
past the documented depth limit.
"""

from __future__ import annotations

from repro.analysis.effects import EffectsAnalyzer, packet_collisions
from repro.coding.decoder import InstructionDecoder
from repro.machine.packets import packet_extent
from repro.support.errors import DecodeError


def written_cells(node, model, codegen):
    """All storage cells an instruction instance may write.

    Walks the decode-time-resolved schedule (so only the selected
    variants count) including sub-operation invocations; conditional
    writes inside run-time IFs are included conservatively.
    """
    return EffectsAnalyzer(model, codegen).written_cells(node)


def lint_vliw_packets(model, program):
    """Lint every execute packet of a VLIW program.

    Returns a deduplicated list of human-readable warning strings,
    sorted by packet address; empty when clean.  Non-VLIW models always
    lint clean.
    """
    if not model.is_vliw:
        return []
    decoder = InstructionDecoder(model)
    analyzer = EffectsAnalyzer(model)
    warnings = []
    for segment in program.segments_in(model.config.program_memory):
        words = segment.words
        base = segment.base
        limit = base + len(words)

        def read_word(address, _words=words, _base=base):
            return _words[address - _base]

        pc = base
        while pc < limit:
            extent = packet_extent(model, read_word, pc, limit)
            if extent > 1:
                members = []
                for address in range(pc, pc + extent):
                    try:
                        node = decoder.decode(read_word(address),
                                              address=address)
                    except DecodeError:
                        continue  # undecodable words are data
                    members.append((address, analyzer.effects_of(node)))
                warnings.extend(
                    finding.message
                    for finding in packet_collisions(members, packet_pc=pc)
                )
            pc += extent
    return warnings
