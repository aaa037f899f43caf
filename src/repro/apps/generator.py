"""Deterministic synthetic program generator.

Produces self-checking programs of a requested size and branch density:
every generated instruction feeds an architectural checksum whose
expected value is computed alongside generation, so a single memory cell
proves that the whole program executed correctly on any simulator.

Used by the compilation-speed sweep (E1 needs programs of many sizes)
and the scheduling ablation (E6 sweeps branch density: on a flushing
pipeline like tinydsp every taken branch is a control hazard that forces
the statically scheduled simulator back to its dynamic path, while on
the exposed-pipeline c62x branches are ordinary operations).
"""

from __future__ import annotations

from repro.apps.base import Application, lcg
from repro.apps.golden import wrap32
from repro.support.errors import ReproError

_TINY_OUT = 250
_C62X_OUT = 0


def build_synthetic(model_name="c62x", target_words=512, branch_density=0.0,
                    loop_iterations=16, seed=101):
    """Build a synthetic checksum program.

    ``target_words`` sizes the loop body; ``branch_density`` is the
    approximate fraction of body instructions that are taken branches
    (to the fall-through point, so the checksum is unaffected but the
    control machinery is exercised); the body repeats
    ``loop_iterations`` times.
    """
    if not 0.0 <= branch_density <= 0.5:
        raise ReproError("branch_density must be in [0, 0.5]")
    if model_name == "tinydsp":
        return _synthetic_tinydsp(
            target_words, branch_density, loop_iterations, seed
        )
    if model_name == "c62x":
        return _synthetic_c62x(
            target_words, branch_density, loop_iterations, seed
        )
    raise ReproError("no synthetic generator for model %r" % model_name)


def _apply_ops(ops, iterations):
    checksum = 0
    for _ in range(iterations):
        for kind, constant in ops:
            if kind == "add":
                checksum = wrap32(checksum + constant)
            elif kind == "xor":
                checksum = wrap32(checksum ^ constant)
            else:
                checksum = wrap32(checksum << 1)
    return checksum


def _synthetic_tinydsp(target_words, branch_density, loop_iterations, seed):
    rng = lcg(seed)
    # Prologue+epilogue overhead: 5 words; each checksum op costs two
    # words (ldi + op) except shl (one); branches cost one.
    lines = []
    ops = []
    words = 0
    label_index = 0
    budget = max(8, target_words - 8)
    threshold = int(branch_density * 0x7FFFFFFF)
    while words < budget:
        if rng() < threshold and words + 1 < budget:
            # Unconditional taken branch to the fall-through point: a
            # pure control hazard (flush + refetch) with no data effect.
            lines.append("        br tbl%d" % label_index)
            lines.append("tbl%d:" % label_index)
            label_index += 1
            words += 1
            continue
        choice = rng() % 3
        constant = (rng() % 255) - 127
        if choice == 0 and words + 2 <= budget:
            lines.append("        ldi r2, %d" % constant)
            lines.append("        add r3, r3, r2")
            ops.append(("add", constant))
            words += 2
        elif choice == 1 and words + 2 <= budget:
            lines.append("        ldi r2, %d" % constant)
            lines.append("        xor r3, r3, r2")
            ops.append(("xor", constant))
            words += 2
        else:
            lines.append("        shl r3, r3, 1")
            ops.append(("shl", 1))
            words += 1
    checksum = _apply_ops(ops, loop_iterations)
    if loop_iterations > 127:
        raise ReproError("tinydsp synthetic loops are limited to 127")
    source = """
        .entry start
start:  ldi r0, 1
        ldi r3, 0
        ldi r6, %(iters)d
body:
%(body)s
        sub r6, r6, r0
        brnz r6, body
        st r3, %(out)d
        halt
""" % {"iters": loop_iterations, "body": "\n".join(lines), "out": _TINY_OUT}
    app = Application(
        name="synthetic_tinydsp_w%d_b%03d"
        % (target_words, int(branch_density * 100)),
        model_name="tinydsp",
        source=source,
        description="synthetic checksum loop (%d body words, %.0f%% "
        "branches, %d iterations)"
        % (target_words, branch_density * 100, loop_iterations),
    )
    app.expected_memory = "dmem"
    app.output_base = _TINY_OUT
    app.expect("dmem", _TINY_OUT, [checksum])
    return app


def _synthetic_c62x(target_words, branch_density, loop_iterations, seed):
    rng = lcg(seed)
    lines = []
    ops = []
    words = 0
    label_index = 0
    budget = max(16, target_words - 16)
    threshold = int(branch_density * 0x7FFFFFFF)
    while words < budget:
        if rng() < threshold and words + 7 <= budget:
            # A taken branch targeting the word right after its five
            # delay slots: the slots execute exactly once, so the
            # checksum is unaffected.  Exactly five single-word
            # instructions fill the slots.
            lines.append("        b cbl%d" % label_index)
            words += 1
            slot_words = 0
            while slot_words < 5:
                if slot_words <= 3 and rng() % 2:
                    slot_words += _emit_c62x_op(lines, ops, rng)
                else:
                    lines.append("        shl a15, a15, 1")
                    ops.append(("shl", 1))
                    slot_words += 1
            words += slot_words
            lines.append("cbl%d:" % label_index)
            label_index += 1
            continue
        words += _emit_c62x_op(lines, ops, rng)
    checksum = _apply_ops(ops, loop_iterations)
    source = """
        .entry start
start:  mvk a15, 0
        mvk a1, %(iters)d
body:
%(body)s
        addk a1, -1
        bnz a1, body
        nop
        nop
        nop
        nop
        nop
        mvk b8, %(out)d
        stw a15, b8, 0
        halt
""" % {"iters": loop_iterations, "body": "\n".join(lines), "out": _C62X_OUT}
    app = Application(
        name="synthetic_c62x_w%d_b%03d"
        % (target_words, int(branch_density * 100)),
        model_name="c62x",
        source=source,
        description="synthetic checksum loop (%d body words, %.0f%% "
        "branches, %d iterations)"
        % (target_words, branch_density * 100, loop_iterations),
    )
    app.expected_memory = "dmem"
    app.output_base = _C62X_OUT
    app.expect("dmem", _C62X_OUT, [checksum])
    return app


def _emit_c62x_op(lines, ops, rng):
    choice = rng() % 3
    constant = (rng() % 65535) - 32767
    if choice == 0:
        lines.append("        mvk b2, %d" % constant)
        lines.append("        add a15, a15, b2")
        ops.append(("add", constant))
        return 2
    if choice == 1:
        lines.append("        mvk b2, %d" % constant)
        lines.append("        xor a15, a15, b2")
        ops.append(("xor", constant))
        return 2
    lines.append("        shl a15, a15, 1")
    ops.append(("shl", 1))
    return 1
