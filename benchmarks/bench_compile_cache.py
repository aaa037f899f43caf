"""Persistent simulation-table cache: speed and bit-exactness.

Two claims, both extending the paper's compile-time/run-time trade
(Section 4): first, that a *persistent* cache moves simulation
compilation out of the process entirely -- a warm reload of the GSM
table must be at least an order of magnitude faster than a cold
compile; second, that neither the cache round-trip nor the parallel
table build changes a single bit of simulation behaviour (the E4
accuracy bar applied to the new machinery).  A third row measures the
native object store: a cold native build of one seeded GSM program
after another, against an empty and a warm store.

Writes ``BENCH_compile_cache.json`` and ``BENCH_native_objects.json``
with the measured timings so CI and the figure scripts can consume
them.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.api import build_toolset, load_model
from repro.apps import build_gsm
from repro.bench import load_app_program
from repro.bench.reporting import ExperimentReport, publish_json
from repro.sim import create_simulator
from repro.simcc.cache import SimulationCache
from repro.simcc.native import NativePipeline, native_available, toolchain

#: The acceptance bar: warm reload vs cold compile on GSM.
MIN_WARM_SPEEDUP = 10.0

#: Table-based simulator kinds (the cache applies to nothing else).
CACHED_KINDS = ("compiled", "static", "unfolded", "unfolded_static")


def _timed_load(model, program, cache, jobs=None):
    simulator = create_simulator(model, "compiled", cache=cache, jobs=jobs)
    start = time.perf_counter()
    simulator.load_program(program)
    return time.perf_counter() - start


def test_cache_warm_reload_speedup(benchmark, gsm_app, tmp_path):
    """Cold compile+store vs warm disk reload vs warm memory hit (GSM)."""
    model, program = load_app_program(gsm_app)
    root = tmp_path / "simtab"

    cold_cache = SimulationCache(root)
    cold_seconds = _timed_load(model, program, cold_cache)
    assert cold_cache.stats["misses"] == 1
    assert cold_cache.stats["stores"] == 1

    # Warm disk: a fresh cache instance per trial (empty LRU), best of
    # three to shave scheduler noise.
    warm_disk_seconds = min(
        _timed_load(model, program, SimulationCache(root))
        for _ in range(3)
    )

    # Warm memory: same instance, table already rehydrated.
    memory_cache = SimulationCache(root)
    _timed_load(model, program, memory_cache)
    warm_memory_seconds = min(
        _timed_load(model, program, memory_cache) for _ in range(3)
    )
    assert memory_cache.stats["memory_hits"] >= 3

    speedup_disk = cold_seconds / warm_disk_seconds
    speedup_memory = cold_seconds / warm_memory_seconds

    report = ExperimentReport(
        "BENCH-compile-cache",
        "persistent simulation-table cache, GSM workload",
        "extends the paper's compile-time/run-time trade (Section 4)",
    )
    report.add_row(
        workload=gsm_app.name,
        words=program.word_count(model.config.program_memory),
        cold_s=cold_seconds,
        warm_disk_s=warm_disk_seconds,
        warm_memory_s=warm_memory_seconds,
        speedup_disk=speedup_disk,
        speedup_memory=speedup_memory,
    )
    report.emit()

    payload = {
        "experiment": "compile-cache",
        "workload": gsm_app.name,
        "program_words": program.word_count(model.config.program_memory),
        "cold_seconds": cold_seconds,
        "warm_disk_seconds": warm_disk_seconds,
        "warm_memory_seconds": warm_memory_seconds,
        "speedup_disk": speedup_disk,
        "speedup_memory": speedup_memory,
        "threshold": MIN_WARM_SPEEDUP,
    }
    publish_json("BENCH_compile_cache.json", payload)

    assert speedup_disk >= MIN_WARM_SPEEDUP, (
        "warm disk reload %.3fs is only %.1fx faster than cold compile "
        "%.3fs (need >= %.0fx)"
        % (warm_disk_seconds, speedup_disk, cold_seconds, MIN_WARM_SPEEDUP)
    )

    benchmark.pedantic(
        lambda: _timed_load(model, program, SimulationCache(root)),
        rounds=3, iterations=1,
    )


def test_cache_and_parallel_bit_identical(paper_apps, tmp_path):
    """E4 extended: cached (cold store + warm reload) and parallel-
    compiled simulators are bit-identical to a serial uncached one on
    every application at every table-based level."""
    report = ExperimentReport(
        "BENCH-cache-crosscheck",
        "cache/parallel bit-exactness across levels",
        "E4 accuracy bar applied to the cache and the parallel builder",
    )
    for app in paper_apps:
        model, program = load_app_program(app)
        for kind in CACHED_KINDS:
            reference = create_simulator(model, kind)
            reference.load_program(program)
            ref_stats = reference.run()
            app.verify(reference.state)
            ref_signature = (
                ref_stats.cycles,
                ref_stats.instructions,
                reference.state.snapshot(),
            )

            root = tmp_path / app.name / kind
            variants = [
                ("parallel", dict(jobs=2)),
                ("cached-cold", dict(cache=SimulationCache(root))),
                ("cached-warm", dict(cache=SimulationCache(root))),
            ]
            for label, kwargs in variants:
                simulator = create_simulator(model, kind, **kwargs)
                simulator.load_program(program)
                stats = simulator.run()
                app.verify(simulator.state)
                signature = (
                    stats.cycles,
                    stats.instructions,
                    simulator.state.snapshot(),
                )
                assert signature == ref_signature, (
                    "%s/%s: %s simulation diverges from serial uncached"
                    % (app.name, kind, label)
                )
            assert variants[2][1]["cache"].stats["disk_hits"] == 1

            report.add_row(
                workload=app.name,
                kind=kind,
                cycles=ref_stats.cycles,
                instructions=ref_stats.instructions,
                variants="parallel,cached-cold,cached-warm",
                golden="match",
            )
    report.emit()


#: Seeds of the two cold-build-style GSM programs (256 words each): the
#: build of ``SEED_B`` is timed, ``SEED_A`` warms the object store.
SEED_A, SEED_B = 11, 13


def _native_build(tools, seed, cache):
    """Cold native load of one seeded GSM program: (load s, cc s)."""
    app = build_gsm("c62x", seed=seed, target_words=256)
    program = tools.assembler.assemble_text(app.source, name=app.name)
    spent = []
    compile_shared = toolchain.compile_shared

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return compile_shared(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - start)

    toolchain.compile_shared = timed
    try:
        simulator = create_simulator(tools.model, "unfolded_static",
                                     cache=cache, backend="native")
        start = time.perf_counter()
        simulator.load_program(program)
        load = time.perf_counter() - start
    finally:
        toolchain.compile_shared = compile_shared
    assert isinstance(simulator.engine, NativePipeline)
    simulator.run(app.max_cycles)
    app.verify(simulator.state)
    return load, sum(spent)


def test_native_object_store_reuse(tmp_path):
    """Cold native GSM build of seed B after seed A: with an empty
    object store every stage body compiles; with a warm one the bodies
    seed A compiled are linked from cached objects."""
    if not native_available():
        pytest.skip("no usable C compiler on the host")
    tools = build_toolset(load_model("c62x"))
    _native_build(tools, SEED_A, None)  # untimed: first cc runs of the process
    rows = {"empty": [], "warm": []}
    linked = []
    for trial in range(3):
        empty = SimulationCache(tmp_path / ("empty%d" % trial))
        rows["empty"].append(_native_build(tools, SEED_B, empty))
        assert empty.stats["objects_linked"] == 0
        warm = SimulationCache(tmp_path / ("warm%d" % trial))
        _native_build(tools, SEED_A, warm)
        rows["warm"].append(_native_build(tools, SEED_B, warm))
        linked.append(warm.stats["objects_linked"])
    assert min(linked) >= 1

    report = ExperimentReport(
        "BENCH-native-objects",
        "native object store: cold GSM build of seed B after seed A",
        "the one-time simulation-compile cost of Figs. 6/7, shared "
        "across programs",
    )
    payload = {"experiment": "native-objects", "seeds": [SEED_A, SEED_B],
               "program_words": 256, "trials": 3}
    for store, samples in rows.items():
        load = statistics.median(sample[0] for sample in samples)
        cc = statistics.median(sample[1] for sample in samples)
        report.add_row(store=store, load_s=load, cc_s=cc)
        payload["%s_store" % store] = {"load_seconds": load,
                                       "cc_seconds": cc}
    payload["objects_linked"] = min(linked)
    report.emit()
    publish_json("BENCH_native_objects.json", payload)
