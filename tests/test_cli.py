"""Tests for the command-line entry points."""

import json

import pytest

from repro.cli import asm_main, lisa_main, sim_main
from repro.simcc.native import native_available
from tests.conftest import TESTMODEL_SOURCE

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no usable C compiler on the host"
)

ASM_SOURCE = """
        .entry start
start:  ldi r1, 6
        add r2, r1, r1
        st r2, 3
        halt
"""


@pytest.fixture
def lisa_file(tmp_path):
    path = tmp_path / "test.lisa"
    path.write_text(TESTMODEL_SOURCE)
    return str(path)


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.asm"
    path.write_text(ASM_SOURCE)
    return str(path)


class TestLisaMain:
    def test_shipped_model_summary(self, capsys):
        assert lisa_main(["tinydsp"]) == 0
        out = capsys.readouterr().out
        assert "model tinydsp" in out

    def test_lisa_file(self, capsys, lisa_file):
        assert lisa_main([lisa_file]) == 0
        assert "testmodel" in capsys.readouterr().out

    def test_translation_timing(self, capsys):
        assert lisa_main(["c62x", "--time"]) == 0
        assert "translation time" in capsys.readouterr().out

    def test_bad_model_exits_nonzero(self, lisa_file):
        with pytest.raises(SystemExit):
            lisa_main(["/nonexistent/file.lisa"])

    def test_emit_simulator(self, capsys, tmp_path, lisa_file, asm_file):
        obj = str(tmp_path / "prog.dspo")
        asm_main([lisa_file, asm_file, "-o", obj])
        capsys.readouterr()
        assert lisa_main([lisa_file, "--emit-simulator", obj]) == 0
        out = capsys.readouterr().out
        assert "TABLE_SPEC" in out


class TestAsmMain:
    def test_assemble_reports_sizes(self, capsys, lisa_file, asm_file):
        assert asm_main([lisa_file, asm_file]) == 0
        out = capsys.readouterr().out
        assert "assembled 4 program words" in out

    def test_assemble_writes_object(self, capsys, tmp_path, lisa_file,
                                    asm_file):
        obj = str(tmp_path / "out.dspo")
        assert asm_main([lisa_file, asm_file, "-o", obj]) == 0
        from repro.tools.objfile import Program

        assert Program.load(obj).word_count("pmem") == 4

    def test_disassemble(self, capsys, tmp_path, lisa_file, asm_file):
        obj = str(tmp_path / "out.dspo")
        asm_main([lisa_file, asm_file, "-o", obj])
        capsys.readouterr()
        assert asm_main([lisa_file, obj, "--disassemble"]) == 0
        out = capsys.readouterr().out
        assert "ldi r1, 6" in out

    def test_bad_assembly_exits_nonzero(self, tmp_path, lisa_file):
        bad = tmp_path / "bad.asm"
        bad.write_text("frobnicate r1\n")
        with pytest.raises(SystemExit):
            asm_main([lisa_file, str(bad)])


class TestSimMain:
    def test_run_assembly_directly(self, capsys, lisa_file, asm_file):
        assert sim_main([lisa_file, asm_file, "--stats",
                         "--dump", "dmem:3"]) == 0
        out = capsys.readouterr().out
        assert "halted after" in out
        assert "dmem[3:4] = [12]" in out
        assert "cycles/s" in out

    def test_run_object_file(self, capsys, tmp_path, lisa_file, asm_file):
        obj = str(tmp_path / "p.dspo")
        asm_main([lisa_file, asm_file, "-o", obj])
        capsys.readouterr()
        assert sim_main([lisa_file, obj, "-k", "interpretive"]) == 0
        assert "halted after" in capsys.readouterr().out

    def test_all_kinds_accepted(self, capsys, lisa_file, asm_file):
        from repro.sim import SIM_KINDS

        for kind in SIM_KINDS:
            assert sim_main([lisa_file, asm_file, "-k", kind]) == 0
        capsys.readouterr()

    def test_dump_range(self, capsys, lisa_file, asm_file):
        sim_main([lisa_file, asm_file, "--dump", "dmem:0:4"])
        out = capsys.readouterr().out
        assert "dmem[0:4]" in out

    def test_shipped_model_with_app(self, capsys, tmp_path):
        from repro.apps import build_fir

        app = build_fir("tinydsp", taps=4, samples=8)
        path = tmp_path / "fir.asm"
        path.write_text(app.source)
        assert sim_main(["tinydsp", str(path)]) == 0
        assert "halted" in capsys.readouterr().out


class TestObservedRun:
    """The observed-run outputs of ``repro-sim`` (profile report and
    trace summary) on the c62x FIR kernel."""

    @pytest.fixture(scope="class")
    def fir_object(self, tmp_path_factory):
        from repro.api import build_toolset, load_model
        from repro.apps import build_fir

        path = str(tmp_path_factory.mktemp("fir") / "fir.dspo")
        build_fir().assemble(build_toolset(load_model("c62x"))).save(path)
        return path

    @pytest.mark.parametrize("kind, backend", [
        ("compiled", "python"),
        pytest.param("unfolded_static", "native", marks=needs_cc),
    ])
    def test_profile_out(self, capsys, tmp_path, fir_object, kind,
                         backend):
        out = str(tmp_path / "profile.json")
        assert sim_main(["c62x", fir_object, "-k", kind,
                         "--backend", backend, "--profile-out", out]) == 0
        capsys.readouterr()
        with open(out, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["version"] == 2
        assert report["basis"] == "attributed_cycles"
        assert report["packets"] and report["windows"]
        total = sum(packet["cycles"] for packet in report["packets"])
        assert total == report["total_cycles"] == report["run"]["cycles"]

    def test_trace_summary(self, capsys, tmp_path, fir_object):
        out = tmp_path / "summary.txt"
        assert sim_main(["c62x", fir_object, "--trace", str(out),
                         "--trace-format", "summary"]) == 0
        capsys.readouterr()
        assert "sim.issue_cycles" in out.read_text()


class TestKccMain:
    KERNEL = """
array out[4] @ 0;
int i = 0;
while (i != 4) {
    out[i] = i * 10;
    i = i + 1;
}
"""

    @pytest.fixture
    def kernel_file(self, tmp_path):
        path = tmp_path / "k.k"
        path.write_text(self.KERNEL)
        return str(path)

    def test_compile_to_stdout(self, capsys, kernel_file):
        from repro.cli import kcc_main

        assert kcc_main(["tinydsp", kernel_file]) == 0
        out = capsys.readouterr().out
        assert ".entry kernel_start" in out
        assert "halt" in out

    def test_compile_and_run(self, capsys, kernel_file):
        from repro.cli import kcc_main

        assert kcc_main(["c62x", kernel_file, "--run",
                         "--dump", "dmem:0:4"]) == 0
        out = capsys.readouterr().out
        assert "dmem[0:4] = [0, 10, 20, 30]" in out

    def test_write_assembly_file(self, capsys, tmp_path, kernel_file):
        from repro.cli import kcc_main

        out_path = str(tmp_path / "k.asm")
        assert kcc_main(["tinydsp", kernel_file, "-o", out_path]) == 0
        assert "generated by repro.kcc" in open(out_path).read()

    def test_bad_target_exits_nonzero(self, kernel_file):
        from repro.cli import kcc_main

        with pytest.raises(SystemExit):
            kcc_main(["mips", kernel_file])

    def test_missing_source_exits_nonzero(self):
        from repro.cli import kcc_main

        with pytest.raises(SystemExit):
            kcc_main(["tinydsp", "/nonexistent.k"])


RAW_C62X = """
    mvk a4, 100
    ldw a5, a4, 0
    add a6, a5, a5
    halt
"""

CLEAN_C62X = """
    mvk a4, 100
    ldw a5, a4, 0
    nop
    nop
    nop
    add a6, a5, a5
    halt
"""

BAD_BRANCH_C62X = """
    b 500
    halt
"""


class TestLintMain:
    @pytest.fixture
    def c62x_asm(self, tmp_path):
        def write(text):
            path = tmp_path / "prog.asm"
            path.write_text(text)
            return str(path)

        return write

    def test_clean_program_exits_zero(self, capsys, c62x_asm):
        from repro.cli import lint_main

        assert lint_main(["c62x", c62x_asm(CLEAN_C62X)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        assert "hazard_free" in out

    def test_hazard_warning_exits_zero_without_werror(self, capsys,
                                                      c62x_asm):
        from repro.cli import lint_main

        assert lint_main(["c62x", c62x_asm(RAW_C62X)]) == 0
        assert "RAW hazard" in capsys.readouterr().out

    def test_werror_promotes_warnings(self, capsys, c62x_asm):
        from repro.cli import lint_main

        assert lint_main(["c62x", c62x_asm(RAW_C62X), "--Werror"]) == 1
        capsys.readouterr()

    def test_error_finding_exits_one(self, capsys, c62x_asm):
        from repro.cli import lint_main

        assert lint_main(["c62x", c62x_asm(BAD_BRANCH_C62X)]) == 1
        assert "out" in capsys.readouterr().out

    def test_json_output(self, capsys, c62x_asm):
        import json as json_mod

        from repro.cli import lint_main

        assert lint_main(["c62x", c62x_asm(RAW_C62X), "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["counts"]["warning"] >= 1
        assert payload["findings"][0]["check"].startswith("hazard.")
        assert payload["safety"]["0x1"] == "conflicting"
        assert payload["verdicts"]["conflicting"] == 2

    def test_object_file_input(self, capsys, tmp_path, c62x_asm):
        from repro.cli import lint_main

        obj = str(tmp_path / "p.dspo")
        asm_main(["c62x", c62x_asm(CLEAN_C62X), "-o", obj])
        capsys.readouterr()
        assert lint_main(["c62x", obj]) == 0

    def test_compile_failure_exits_two(self, tmp_path):
        from repro.cli import lint_main

        bad = tmp_path / "bad.asm"
        bad.write_text("definitely not c62x assembly\n")
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["c62x", str(bad)])
        assert excinfo.value.code == 2

    def test_deterministic_output(self, capsys, c62x_asm):
        from repro.cli import lint_main

        path = c62x_asm(RAW_C62X)
        lint_main(["c62x", path])
        first = capsys.readouterr().out
        lint_main(["c62x", path])
        assert capsys.readouterr().out == first


class TestVerifySchedule:
    def test_requires_static_kind(self, tmp_path):
        prog = tmp_path / "p.asm"
        prog.write_text(CLEAN_C62X)
        with pytest.raises(SystemExit) as excinfo:
            sim_main(["c62x", str(prog), "--verify-schedule"])
        assert excinfo.value.code == 2

    def test_clean_program_verifies(self, capsys, tmp_path):
        prog = tmp_path / "p.asm"
        prog.write_text(CLEAN_C62X)
        assert sim_main(["c62x", str(prog), "-k", "static",
                         "--verify-schedule"]) == 0
        assert "halted" in capsys.readouterr().out

    def test_conflicting_program_fails(self, capsys, tmp_path):
        prog = tmp_path / "p.asm"
        prog.write_text(RAW_C62X)
        with pytest.raises(SystemExit):
            sim_main(["c62x", str(prog), "-k", "static",
                      "--verify-schedule"])
