"""Tests for the simulator-based profiler."""

import math

import pytest

from repro.apps import build_fir
from repro.bench import load_app_program
from repro.obs import Observer
from repro.sim import create_simulator
from repro.simcc.native import native_available
from repro.tools.profiler import Profiler, ProfileReport

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no usable C compiler on the host"
)


SOURCE = """
        .entry start
start:  ldi r1, 4
        ldi r2, -1
loop:   add r3, r3, r1
        add r1, r1, r2
        brnz r1, loop
        st r3, 0
        halt
"""


def _report_from_metrics(metrics, total_cycles):
    """A :class:`ProfileReport` read straight off an observer's
    registry -- the reference the profiler's view must reproduce."""
    return ProfileReport(
        fetch_counts=dict(metrics.family("sim.fetch_by_pc")),
        issue_cycles=metrics.counter("sim.issue_cycles"),
        bubble_cycles=metrics.counter("sim.bubble_cycles"),
        total_cycles=total_cycles,
        instructions_issued=metrics.counter("sim.instructions_issued"),
        squashed_slots=metrics.counter("sim.squashed_slots"),
        bubbles_by_reason=dict(metrics.family("sim.bubbles_by_reason")),
        packet_sizes=dict(metrics.family("sim.packet_sizes")),
    )


@pytest.fixture
def profiled(testmodel, testmodel_tools):
    program = testmodel_tools.assembler.assemble_text(SOURCE)
    simulator = create_simulator(testmodel, "compiled")
    simulator.load_program(program)
    profiler = Profiler(simulator)
    simulator.run(max_cycles=10_000)
    return profiler.report(), program, simulator


class TestProfiler:
    def test_loop_body_is_hottest(self, profiled):
        report, _, _ = profiled
        hottest_pc, hottest_count = report.hottest[0]
        assert hottest_pc in (2, 3, 4)  # the loop body
        assert hottest_count == 4

    def test_prologue_fetched_once(self, profiled):
        report, _, _ = profiled
        assert report.fetch_counts[0] == 1
        assert report.fetch_counts[1] == 1

    def test_cycle_accounting(self, profiled):
        report, _, simulator = profiled
        assert report.total_cycles == simulator.cycles
        assert report.issue_cycles + report.bubble_cycles \
            == report.total_cycles
        assert report.bubble_cycles > 0  # flushes and drain

    def test_annotated_listing(self, profiled, testmodel_tools):
        report, program, _ = profiled
        lines = report.annotate(testmodel_tools.disassembler, program,
                                limit=3)
        assert len(lines) == 3
        assert "add" in lines[0] or "brnz" in lines[0]

    def test_profile_does_not_change_results(self, testmodel,
                                             testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(SOURCE)
        plain = create_simulator(testmodel, "compiled")
        plain.load_program(program)
        plain.run(max_cycles=10_000)

        profiled_sim = create_simulator(testmodel, "compiled")
        profiled_sim.load_program(program)
        Profiler(profiled_sim)
        profiled_sim.run(max_cycles=10_000)

        assert plain.state.differences(profiled_sim.state) == []
        assert plain.cycles == profiled_sim.cycles

    def test_works_on_interpretive(self, testmodel, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(SOURCE)
        simulator = create_simulator(testmodel, "interpretive")
        simulator.load_program(program)
        profiler = Profiler(simulator)
        simulator.run(max_cycles=10_000)
        report = profiler.report()
        assert report.issue_cycles > 0

    @pytest.mark.parametrize(
        "kind", ["interpretive", "compiled", "static", "unfolded_static"]
    )
    def test_static_kind_profiles_identically(self, testmodel,
                                              testmodel_tools, profiled,
                                              kind):
        compiled_report, program, _ = profiled
        reference_sim = create_simulator(testmodel, kind)
        reference_sim.load_program(program)
        reference = Observer()  # trace mode: the per-cycle reference
        reference_sim.attach_observer(reference)
        reference_sim.run(max_cycles=10_000)
        expected = _report_from_metrics(reference.metrics,
                                        reference_sim.cycles)

        simulator = create_simulator(testmodel, kind)
        simulator.load_program(program)
        profiler = Profiler(simulator)
        simulator.run(max_cycles=10_000)
        report = profiler.report()
        assert report == expected
        assert report == compiled_report
        assert report.total_cycles == simulator.cycles

    def test_bubble_attribution(self, profiled):
        report, _, _ = profiled
        assert sum(report.bubbles_by_reason.values()) \
            == report.bubble_cycles
        assert report.bubbles_by_reason.get("drain", 0) > 0

    def test_packet_statistics(self, profiled):
        report, _, _ = profiled
        assert sum(report.packet_sizes.values()) == report.issue_cycles
        assert sum(
            size * count for size, count in report.packet_sizes.items()
        ) == report.instructions_issued
        assert not math.isnan(report.mean_packet_size)
        assert report.mean_packet_size >= 1.0


@needs_cc
def test_native_bursts_stay_on_under_the_profiler():
    """Attaching a profiler must not force a native-backend simulator
    onto the per-cycle Python path: the profile is served by the burst
    telemetry flush and matches the Python backend's exactly."""
    model, program = load_app_program(build_fir("c62x"))

    def profiled_run(backend):
        simulator = create_simulator(model, "unfolded_static",
                                     backend=backend)
        profiler = Profiler(simulator)
        simulator.load_program(program)
        simulator.run()
        return simulator, profiler.report()

    native_sim, native_report = profiled_run("native")
    _, python_report = profiled_run("python")
    assert native_sim.engine.dispatch_counts["native_cycles"] > 0
    assert native_report == python_report
    assert native_report.total_cycles == native_sim.cycles
