"""Native modules as deduplicated stage functions in parallel units.

The renderer emits each distinct stage-function body once, named by a
digest of its text, and splits a large module into a driver unit plus
function units of a fixed byte budget; the toolchain compiles the
units concurrently and links one shared object.  These tests pin what
that must not change or break:

* repeated identical packets share one C function and still run
  bit-exact against the interpretive reference;
* the rendered C and its artifact key do not depend on the host's
  core count;
* a one-unit module is one cc call, a multi-unit one compiles its
  units with ``-c`` and links once;
* two modules sharing most bodies load side by side in one process,
  each binding its own functions and its own trap target (hidden
  visibility: only ``repro_burst`` is exported);
* concurrent builders of one cache key both end with a loadable
  module, and no build directory outlives its build;
* with a cache, a module links the function-unit objects earlier
  modules left in the object store and compiles only unseen bodies --
  bit-exact, with no duplicate symbol even when racing builders
  published overlapping objects, and with a clean miss across a format
  bump or a compiler change; the C text and its key never depend on
  what the store holds.
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import re
import stat
import tempfile
import threading

import pytest

from repro.api import build_toolset
from repro.apps import build_gsm
from repro.lisa.semantics import compile_source
from repro.machine.control import PipelineControl
from repro.machine.state import ProcessorState
from repro.sim import create_simulator
from repro.simcc import SimulationCompiler
from repro.simcc import cache as cache_module
from repro.simcc.cache import ObjectStore, SimulationCache
from repro.simcc.native import (
    NativePipeline,
    StateLayout,
    artifact_key,
    build_native_module,
    native_available,
)
from repro.simcc.native import backend, cgen, toolchain

from tests.conftest import TESTMODEL_SOURCE

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no usable C compiler on the host"
)

_DEFINITION = re.compile(r"^void (s_[0-9a-f]+)\(int64_t \*S\) \{$", re.M)
_TABLE = re.compile(r"stage_fns\[\] = \{(.*?)\};", re.S)

#: The shared test model plus an integer division, so a native burst
#: can trap on a zero divisor.
DIV_MODEL_SOURCE = TESTMODEL_SOURCE.replace(
    "GROUP op = { nop || add || ldi || st || brnz || halt_op };",
    "GROUP op = { nop || add || ldi || st || brnz || halt_op || div };",
).replace("OPERATION insn {", """OPERATION div IN pipe.EX {
    DECLARE { GROUP dst = { reg }; GROUP src1 = { reg };
              GROUP src2 = { reg }; }
    CODING { 0b0110 dst src1 src2 0bxx }
    SYNTAX { "div" dst "," src1 "," src2 }
    BEHAVIOR { dst = src1 / src2; }
}

OPERATION insn {""")


@pytest.fixture(scope="module")
def div_tools():
    return build_toolset(compile_source(DIV_MODEL_SOURCE, "divmodel.lisa"))


def _table(model, program):
    state = ProcessorState(model)
    program.load_into(state)
    return SimulationCompiler(model).compile(
        program, state, PipelineControl(), level="instantiated"
    )


def _render(model, program):
    return cgen.render_native_source(
        _table(model, program), model, StateLayout.build(model)
    )


def _dispatched(source):
    """The non-empty entries of the (pc, stage) dispatch table."""
    entries = _TABLE.search(source).group(1).replace("\n", "").split(",")
    return [entry.strip() for entry in entries if entry.strip() != "0"]


def _gsm(seed):
    return build_gsm("c62x", seed=seed, target_words=256)


def _run(model, program, **options):
    sim = create_simulator(model, "unfolded_static", **options)
    sim.load_program(program)
    sim.run()
    return sim


REPEATED = "\n".join(["ldi r2, 3"] + ["add r1, r1, r2"] * 24
                     + ["st r1, 5", "halt"]) + "\n"


class TestDeduplication:
    def test_repeated_packets_render_one_function(self, testmodel,
                                                  testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(
            REPEATED, name="repeated"
        )
        source, plan = _render(testmodel, program)
        defined = _DEFINITION.findall(source)
        dispatched = _dispatched(source)
        # every body once, every slot pointing at one of them
        assert len(defined) == len(set(defined))
        assert set(dispatched) == set(defined)
        # 24 identical adds, one function between them
        assert len(dispatched) >= 24 + len(defined) - 1
        assert max(dispatched.count(name) for name in defined) >= 24
        assert len(plan.units) == 1 and plan.units[0] == source

    @needs_cc
    def test_repeated_packets_bit_exact(self, testmodel, testmodel_tools):
        program = testmodel_tools.assembler.assemble_text(
            REPEATED, name="repeated"
        )
        reference = create_simulator(testmodel, "interpretive")
        reference.load_program(program)
        reference.run()
        native = _run(testmodel, program, backend="native")
        assert isinstance(native.engine, NativePipeline)
        assert native.engine.dispatch_counts["native_cycles"] > 0
        assert native.state.differences(reference.state) == []
        assert native.cycles == reference.cycles

    def test_units_partition_the_module(self, c62x_tools):
        model = c62x_tools.model
        app = _gsm(1)
        program = c62x_tools.assembler.assemble_text(app.source,
                                                     name=app.name)
        source, plan = _render(model, program)
        assert len(plan.units) > 1
        assert "".join(plan.units) == source
        driver, *function_units = plan.units
        assert "repro_burst" in driver and "jmp_buf trap_jmp;" in driver
        assert not _DEFINITION.findall(driver)
        defined = [name for unit in function_units
                   for name in _DEFINITION.findall(unit)]
        assert len(defined) == len(set(defined))
        assert set(_dispatched(source)) == set(defined)
        for unit in function_units:
            assert "int64_t repro_burst(" not in unit
            assert len(unit) < 2 * cgen.UNIT_BUDGET

    @pytest.mark.parametrize("cores", [1, 8])
    def test_source_independent_of_core_count(self, c62x_tools,
                                              monkeypatch, cores):
        model = c62x_tools.model
        app = _gsm(1)
        program = c62x_tools.assembler.assemble_text(app.source,
                                                     name=app.name)
        layout = StateLayout.build(model)
        baseline, _ = _render(model, program)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        assert toolchain.usable_cores() == cores
        source, _ = _render(model, program)
        assert source == baseline
        assert artifact_key(source, layout) == artifact_key(baseline, layout)


@needs_cc
class TestCompileCalls:
    def _commands(self, monkeypatch):
        commands = []
        original = toolchain._run

        def recording(cmd):
            commands.append(cmd)
            return original(cmd)

        monkeypatch.setattr(toolchain, "_run", recording)
        return commands

    def test_one_unit_module_is_one_cc_call(self, testmodel,
                                            testmodel_tools, monkeypatch):
        program = testmodel_tools.assembler.assemble_text(
            REPEATED, name="repeated"
        )
        commands = self._commands(monkeypatch)
        module = build_native_module(testmodel, _table(testmodel, program))
        assert module is not None and len(module.plan.units) == 1
        assert len(commands) == 1 and "-c" not in commands[0]

    def test_units_compile_separately_then_link(self, c62x_tools,
                                                monkeypatch):
        model = c62x_tools.model
        app = _gsm(1)
        program = c62x_tools.assembler.assemble_text(app.source,
                                                     name=app.name)
        commands = self._commands(monkeypatch)
        module = build_native_module(model, _table(model, program))
        units = len(module.plan.units)
        assert units > 1
        assert sum("-c" in cmd for cmd in commands) == units
        assert len(commands) == units + 1 and "-c" not in commands[-1]


@needs_cc
class TestModuleIsolation:
    def test_two_gsm_modules_in_one_process(self, c62x_tools, tmp_path):
        """Consecutive cold-build-style programs share most bodies;
        both modules load side by side and run bit-exact."""
        model = c62x_tools.model
        cache = SimulationCache(str(tmp_path / "cache"))
        names, sims = [], []
        for seed in (11, 13):
            app = _gsm(seed)
            program = c62x_tools.assembler.assemble_text(app.source,
                                                         name=app.name)
            native = _run(model, program, backend="native", cache=cache)
            assert isinstance(native.engine, NativePipeline)
            reference = _run(model, program)
            assert native.state.differences(reference.state) == []
            assert native.cycles == reference.cycles
            app.verify(native.state)
            module = native.engine._module
            names.append(set(_DEFINITION.findall(module.source)))
            sims.append(native)
        assert len(names[0] & names[1]) > len(names[0]) // 2
        paths = [sim.engine._module.so_path for sim in sims]
        assert paths[0] != paths[1]
        # only the burst entry leaves either shared object
        for path in paths:
            lib = ctypes.CDLL(path)
            assert lib.repro_burst
            for hidden in ("trap_jmp", sorted(names[0] & names[1])[0]):
                with pytest.raises(AttributeError):
                    getattr(lib, hidden)

    def test_trap_in_second_module_is_its_own(self, div_tools, tmp_path):
        """Two modules share the division body; the zero divisor in the
        second traps through the second module's own ``trap_jmp``, and
        the first module keeps running correctly afterwards."""
        model = div_tools.model
        cache = SimulationCache(str(tmp_path / "cache"))
        programs = {
            divisor: div_tools.assembler.assemble_text(
                "ldi r1, 10\nldi r2, %d\ndiv r3, r1, r2\nhalt\n" % divisor,
                name="div%d" % divisor,
            )
            for divisor in (2, 0)
        }
        first = _run(model, programs[2], backend="native", cache=cache)
        assert first.state.R[3] == 5

        second = create_simulator(model, "unfolded_static",
                                  backend="native", cache=cache)
        second.load_program(programs[0])
        with pytest.raises(ZeroDivisionError):
            second.run()
        assert isinstance(second.engine, NativePipeline)
        assert second.engine.dispatch_counts["traps"] == 1
        shared = (set(_DEFINITION.findall(first.engine._module.source))
                  & set(_DEFINITION.findall(second.engine._module.source)))
        assert shared

        reference = create_simulator(model, "interpretive")
        reference.load_program(programs[0])
        with pytest.raises(ZeroDivisionError):
            reference.run()

        again = _run(model, programs[2], backend="native", cache=cache)
        assert again.engine.dispatch_counts["traps"] == 0
        assert again.state.differences(first.state) == []


@needs_cc
class TestBuildDirectories:
    def test_concurrent_stores_of_one_key(self, c62x_tools, tmp_path):
        """Two builders of one key compile at the same time (two
        workers sharing a cache, or a tiering thread and the main
        thread); both publish, and the artifact loads and runs."""
        model = c62x_tools.model
        app = _gsm(1)
        program = c62x_tools.assembler.assemble_text(app.source,
                                                     name=app.name)
        source, plan = _render(model, program)
        layout = StateLayout.build(model)
        key = artifact_key(source, layout)
        cc = toolchain.find_compiler()
        identity = toolchain.compiler_identity(cc)
        root = str(tmp_path / "cache")
        barrier = threading.Barrier(2)
        results, errors = [], []

        def compile_fn(c_path, so_path):
            barrier.wait(timeout=60)
            return backend._compile(cc, plan, c_path, so_path)

        def store():
            try:
                results.append(SimulationCache(root).store_native_artifact(
                    key, identity, source, compile_fn))
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=store) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(results) == 2 and results[0] == results[1]
        c_path, so_path = results[0]
        assert open(c_path, encoding="utf-8").read() == source
        assert sorted(os.listdir(os.path.dirname(so_path))) == sorted(
            os.path.basename(c_path)[: -len(".c")] + ext
            for ext in (".c", ".so", ".json")
        )
        assert SimulationCache(root).load_native_artifact(
            key, identity) == results[0]

        native = _run(model, program, backend="native",
                      cache=SimulationCache(root))
        assert native.engine._module.so_path == so_path
        reference = _run(model, program)
        assert native.state.differences(reference.state) == []

    def test_uncached_build_leaves_no_directory(self, testmodel,
                                                testmodel_tools,
                                                tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        program = testmodel_tools.assembler.assemble_text(
            REPEATED, name="repeated"
        )
        module = build_native_module(testmodel, _table(testmodel, program))
        assert module is not None and module.so_path is None
        assert os.listdir(str(tmp_path)) == []


def _program(tools, seed):
    app = _gsm(seed)
    return app, tools.assembler.assemble_text(app.source, name=app.name)


def _bodies(module):
    return {name for name, _ in module.plan.functions}


def _interpretive(model, program):
    reference = create_simulator(model, "interpretive")
    reference.load_program(program)
    reference.run()
    return reference


def _manifest(path):
    with open(path, encoding="utf-8") as handle:
        return set(json.load(handle)["bodies"])


def _manifests(root):
    """Body sets of every object in every store under ``root``."""
    found = []
    for directory, _, files in os.walk(root):
        for name in files:
            if name.endswith(".json") and os.path.basename(
                    os.path.dirname(directory)) == "objects":
                found.append(_manifest(os.path.join(directory, name)))
    return found


def _race_build(root, seed, barrier):
    """One racing builder (a fresh process): select from the shared
    store, wait until the other builder has selected too, then compile
    and publish; the module must load and run bit-exact."""
    from repro.api import load_model

    tools = build_toolset(load_model("c62x"))
    compile_shared = toolchain.compile_shared

    def after_both_selected(*args, **kwargs):
        barrier.wait(timeout=120)
        return compile_shared(*args, **kwargs)

    toolchain.compile_shared = after_both_selected
    app, program = _program(tools, seed)
    cache = SimulationCache(root)
    native = _run(tools.model, program, backend="native", cache=cache)
    assert isinstance(native.engine, NativePipeline)
    assert cache.stats["objects_linked"] == 0
    reference = _interpretive(tools.model, program)
    assert native.state.differences(reference.state) == []
    app.verify(native.state)


class TestCompilerIdentity:
    def test_paths_with_one_version_line_differ(self, tmp_path):
        """A ``$CC`` wrapper prints the version line of the compiler it
        wraps; its objects must still never share a key with plain
        ones."""
        paths = []
        for name in ("cc-plain", "cc-wrapped"):
            path = tmp_path / name
            path.write_text("#!/bin/sh\necho 'gcc (Fake) 12.2.0'\n")
            path.chmod(path.stat().st_mode | stat.S_IXUSR)
            paths.append(str(path))
        first, second = (toolchain.compiler_identity(p) for p in paths)
        assert "gcc (Fake) 12.2.0" in first and "gcc (Fake) 12.2.0" in second
        assert first != second


@needs_cc
class TestObjectStore:
    def test_mixed_cached_and_new_objects_bit_exact(self, c62x_tools,
                                                    tmp_path):
        model = c62x_tools.model
        cache = SimulationCache(str(tmp_path / "cache"))
        first_app, first_program = _program(c62x_tools, 11)
        first = _run(model, first_program, backend="native", cache=cache)
        assert cache.stats["objects_linked"] == 0
        stored = cache.stats["objects_stored"]
        assert stored == len(first.engine._module.plan.units) - 1

        app, program = _program(c62x_tools, 13)
        native = _run(model, program, backend="native", cache=cache)
        assert isinstance(native.engine, NativePipeline)
        assert native.engine.dispatch_counts["native_cycles"] > 0
        assert cache.stats["objects_linked"] >= 1
        assert cache.stats["objects_stored"] > stored
        reference = _interpretive(model, program)
        assert native.state.differences(reference.state) == []
        assert native.cycles == reference.cycles
        app.verify(native.state)

    def test_second_module_compiles_only_unseen_bodies(self, c62x_tools,
                                                       tmp_path,
                                                       monkeypatch):
        model = c62x_tools.model
        cache = SimulationCache(str(tmp_path / "cache"))
        first = _run(model, _program(c62x_tools, 11)[1],
                     backend="native", cache=cache)
        seen = _bodies(first.engine._module)

        commands, compiled = [], []
        original = toolchain._run

        def recording(cmd):
            commands.append(cmd)
            if "-c" in cmd:
                with open(cmd[-1], encoding="utf-8") as handle:
                    compiled.append(handle.read())
            return original(cmd)

        monkeypatch.setattr(toolchain, "_run", recording)
        second = _run(model, _program(c62x_tools, 13)[1],
                      backend="native", cache=cache)
        module = second.engine._module
        unseen = [item for item in module.plan.functions
                  if item[0] not in seen]
        assert 0 < len(unseen) < len(module.plan.functions)
        # the driver unit plus units packing exactly the unseen bodies
        # (the units compile concurrently, in no fixed order)
        assert module.plan.units[0] in compiled
        defined = sorted(name for unit in compiled
                         for name in _DEFINITION.findall(unit))
        assert defined == sorted(name for name, _ in unseen)
        assert sum("-c" in cmd for cmd in commands) == (
            1 + len(cgen.pack_functions(unseen)))
        link = commands[-1]
        assert "-c" not in link and len(commands) == len(compiled) + 1
        store = cache.object_store(toolchain.compiler_identity(
            toolchain.find_compiler()), module.plan.prologue)
        assert any(arg.startswith(store.directory) for arg in link)

    def test_unlinkable_cached_object_is_dropped(self, c62x_tools,
                                                 tmp_path):
        """A cached object that no longer links (damaged on disk) costs
        one rebuild from the module's own units, never a fallback, and
        leaves the store."""
        model = c62x_tools.model
        root = str(tmp_path / "cache")
        _run(model, _program(c62x_tools, 11)[1], backend="native",
             cache=SimulationCache(root))
        damaged = [os.path.join(directory, name)
                   for directory, _, files in os.walk(root)
                   for name in files if name.endswith(".o")]
        assert damaged
        for path in damaged:
            with open(path, "wb") as handle:
                handle.write(b"not an object file")

        cache = SimulationCache(root)
        app, program = _program(c62x_tools, 13)
        native = _run(model, program, backend="native", cache=cache)
        assert isinstance(native.engine, NativePipeline)
        assert cache.stats["objects_linked"] >= 1
        assert native.state.differences(
            _interpretive(model, program).state) == []
        for path in damaged:
            assert not os.path.exists(path)
            assert not os.path.exists(os.path.splitext(path)[0] + ".json")
        # the rebuilt module's objects replaced them
        assert cache.stats["objects_stored"] >= 1
        assert _manifests(root)

    def test_racing_builders_then_a_module_needing_both(self, c62x_tools,
                                                        tmp_path,
                                                        monkeypatch):
        """Two processes build overlapping new bodies at once, so both
        publish objects holding shared bodies; a third module needing
        bodies of both links disjoint objects only."""
        model = c62x_tools.model
        root = str(tmp_path / "cache")
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        racers = [context.Process(target=_race_build,
                                  args=(root, seed, barrier))
                  for seed in (11, 13)]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=300)
            assert not racer.is_alive()
        assert [racer.exitcode for racer in racers] == [0, 0]
        manifests = _manifests(root)
        assert any(a & b for i, a in enumerate(manifests)
                   for b in manifests[i + 1:])

        chosen = []
        select = ObjectStore.select

        def recording(store, names):
            objects, covered = select(store, names)
            chosen.append(objects)
            return objects, covered

        def no_discard(store, objects):
            raise AssertionError("link with cached objects failed")

        monkeypatch.setattr(ObjectStore, "select", recording)
        monkeypatch.setattr(ObjectStore, "discard", no_discard)
        cache = SimulationCache(root)
        app, program = _program(c62x_tools, 17)
        native = _run(model, program, backend="native", cache=cache)
        assert isinstance(native.engine, NativePipeline)
        reference = _interpretive(model, program)
        assert native.state.differences(reference.state) == []
        assert native.cycles == reference.cycles
        app.verify(native.state)
        [objects] = chosen
        assert objects
        bodies = [_manifest(os.path.splitext(obj)[0] + ".json")
                  for obj in objects]
        for i, mine in enumerate(bodies):
            for other in bodies[i + 1:]:
                assert not mine & other

    def test_format_bump_and_compiler_change_are_clean_misses(
            self, c62x_tools, tmp_path, monkeypatch):
        model = c62x_tools.model
        root = str(tmp_path / "cache")
        _run(model, _program(c62x_tools, 11)[1], backend="native",
             cache=SimulationCache(root))
        program = _program(c62x_tools, 13)[1]
        reference = _interpretive(model, program)

        def rebuild(**patches):
            with monkeypatch.context() as patch:
                for name, value in patches.items():
                    owner, attr = name.split(".")
                    target = cache_module if owner == "cache" else toolchain
                    patch.setattr(target, attr, value)
                cache = SimulationCache(root)
                native = _run(model, program, backend="native", cache=cache)
            assert isinstance(native.engine, NativePipeline)
            assert native.state.differences(reference.state) == []
            return cache.stats

        identity = toolchain.compiler_identity
        bumped = rebuild(**{"cache.FORMAT_VERSION":
                            cache_module.FORMAT_VERSION + 1})
        changed = rebuild(**{"toolchain.compiler_identity":
                             lambda cc: identity(cc) + " | other"})
        for stats in (bumped, changed):
            assert stats["native_misses"] == 1
            assert stats["objects_linked"] == 0
            assert stats["objects_stored"] >= 1
        # the unchanged format and compiler still reuse objects
        assert rebuild()["objects_linked"] >= 1

    @pytest.mark.parametrize("cores", [1, 8])
    def test_source_and_key_independent_of_store(self, c62x_tools,
                                                 tmp_path, monkeypatch,
                                                 cores):
        model = c62x_tools.model
        layout = StateLayout.build(model)
        program = _program(c62x_tools, 13)[1]
        source, _ = _render(model, program)
        cold = build_native_module(model, _table(model, program))
        assert cold.source == source

        root = str(tmp_path / "cache")
        _run(model, _program(c62x_tools, 11)[1], backend="native",
             cache=SimulationCache(root))
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        cache = SimulationCache(root)
        warm = build_native_module(model, _table(model, program),
                                   cache=cache)
        assert cache.stats["objects_linked"] >= 1
        assert warm.source == source
        assert _render(model, program)[0] == source
        key = artifact_key(source, layout)
        assert os.path.basename(warm.so_path) == key[2:] + ".so"
        with open(warm.so_path[:-len(".so")] + ".c",
                  encoding="utf-8") as handle:
            assert handle.read() == source
