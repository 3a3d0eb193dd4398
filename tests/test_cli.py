import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from proxybench import (
    METRICS,
    ProxyProgram,
    SimulatedMachine,
    TargetMetrics,
    compute_all_metrics,
    default_library,
    dump_program,
    dump_targets,
    format_counts,
    predict_events,
)
from proxybench.cli import main
from tests.conftest import hidden_targets, sample_hidden_program

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

@pytest.fixture
def library_path(tmp_path):
    path = tmp_path / "library.json"
    assert main(["library", "init-default", str(path)]) == 0
    return path


@pytest.fixture
def targets_path(tmp_path, library):
    rng = np.random.default_rng(555)
    _, targets, ins1 = hidden_targets(library, rng)
    path = tmp_path / "targets.json"
    path.write_text(dump_targets(targets))
    return path, ins1


class TestLibraryCommand:
    def test_init_then_validate(self, library_path):
        assert main(["library", "validate", str(library_path)]) == 0

    def test_show_lists_one_line_per_block(self, library_path, capsys):
        assert main(["library", "show", str(library_path)]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == len(default_library())

    def test_validate_rejects_corrupt_profile(self, library_path, tmp_path, capsys):
        doc = json.loads(library_path.read_text())
        doc["blocks"][0]["profile"]["counts"]["l1d_misses"] = 1e18
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["library", "validate", str(bad)]) != 0
        err = capsys.readouterr().err
        assert doc["blocks"][0]["id"] in err
        assert "l1d_misses" in err

    def test_unknown_event_names_its_block(self, library_path, tmp_path):
        doc = json.loads(library_path.read_text())
        block = next(block for block in doc["blocks"] if block["id"] == "fn_stride1024")
        block["profile"]["counts"]["widgets"] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "proxybench.cli", "library", "validate", str(bad)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr == "error: block fn_stride1024: unknown event name: 'widgets'\n"

    @pytest.mark.parametrize("reps", [65537, 10**9])
    def test_validate_rejects_a_mix_past_65536_repetitions(self, tmp_path, capsys, reps):
        # a few bytes of library would otherwise render gigabytes of C
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n0": 1, "blocks": [
            {"id": "m", "family": "arithmetic", "params": {"mix": [["add", reps]], "fp": False}},
        ]}))
        assert main(["library", "validate", str(bad)]) == 1
        assert capsys.readouterr().err == \
            f"error: block m: repetitions must total at most 65536, got {reps}\n"

    def test_no_fp_variants_flag(self, tmp_path):
        path = tmp_path / "plain.json"
        assert main(["library", "init-default", str(path), "--no-fp-variants"]) == 0
        doc = json.loads(path.read_text())
        assert len(doc["blocks"]) == 23


class TestAlignCommand:
    def test_noiseless_feasible_run_prints_full_accuracy(
        self, library_path, targets_path, tmp_path, capsys
    ):
        targets_file, ins1 = targets_path
        out_dir = tmp_path / "out"
        code = main([
            "align", str(targets_file),
            "--library", str(library_path),
            "--out", str(out_dir),
            "--noise", "none",
            "--ins1", str(ins1),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # one per category
        for line in lines:
            category, percent = line.split("\t")
            assert abs(float(percent.rstrip("%")) - 100.0) <= 0.1

    def test_emits_exactly_four_artifacts(self, library_path, targets_path, tmp_path):
        targets_file, _ = targets_path
        out_dir = tmp_path / "artifacts"
        assert main([
            "align", str(targets_file),
            "--library", str(library_path),
            "--out", str(out_dir),
            "--ins1", "5e6", "--rounds", "3",
        ]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["program.json", "proxy.c", "report.json", "trace.json"]

    def test_rounds_flag_honored_in_trace(self, library_path, targets_path, tmp_path):
        targets_file, _ = targets_path
        out_dir = tmp_path / "r1"
        assert main([
            "align", str(targets_file),
            "--library", str(library_path),
            "--out", str(out_dir),
            "--ins1", "5e6", "--rounds", "1",
        ]) == 0
        trace = json.loads((out_dir / "trace.json").read_text())
        assert len(trace["rounds"]) == 1

    def test_identical_inputs_give_identical_bytes(
        self, library_path, targets_path, tmp_path
    ):
        targets_file, _ = targets_path
        flags = ["--library", str(library_path), "--ins1", "5e6",
                 "--rounds", "4", "--seed", "77"]
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["align", str(targets_file), "--out", str(first)] + flags) == 0
        assert main(["align", str(targets_file), "--out", str(second)] + flags) == 0
        for name in ("program.json", "proxy.c", "trace.json", "report.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_artifacts_match_pinned_digests(self, library_path, tmp_path):
        # a fixed align must write the same bytes from one commit to the next;
        # the solver's least squares goes through LAPACK, so a different
        # numpy build may move these digests
        targets = {
            "cpi": 3.801, "branch_miss_rate": 0.1285, "l1d_miss_rate": 0.02448,
            "l1i_miss_rate": 0.0001, "l2_miss_rate": 0.1769, "l3_miss_rate": 0.1681,
            "dtlb_miss_rate": 0.000391, "itlb_miss_rate": 1e-05, "load_ratio": 0.09147,
            "store_ratio": 0.09147, "branch_ratio": 0.1076, "fp_ratio": 0.1714,
            "int_ratio": 0.4995, "vec_ratio": 0.08571,
        }
        targets_file = tmp_path / "targets.json"
        targets_file.write_text(json.dumps({"metrics": targets}))
        out_dir = tmp_path / "golden"
        assert main([
            "align", str(targets_file),
            "--library", str(library_path),
            "--out", str(out_dir),
            "--ins1", "5e6", "--seed", "20231115",
        ]) == 0
        digests = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("program.json", "proxy.c", "trace.json", "report.json")
        }
        assert digests == {
            "program.json": "28d6a140754c9db4cb71e32f05380cb83f56c363455eb2a08e8c179b8292cf7c",
            "proxy.c": "173778af11e23b0c0624d62a75664ed692636916f0a33bd25d82cf1ea9e8f5c0",
            "trace.json": "70caa12a023d6a8cfb3614b4e15e4e5d9ed2df8a3367f192e10a24b35f7ae813",
            "report.json": "5e7da28c19cfdf624bcbf3f7759566d4e4937cdec4b59cfa7f56821bc19f5e4a",
        }

    @pytest.mark.parametrize("text", ["{", '{"metrics": {"cpi": "x"}}'])
    def test_malformed_targets_give_an_error_line(self, library_path, tmp_path, capsys, text):
        targets_file = tmp_path / "targets.json"
        targets_file.write_text(text)
        assert main([
            "align", str(targets_file),
            "--library", str(library_path),
            "--out", str(tmp_path / "x"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestTargetChecks:
    def test_unreachable_target_warns_and_aligns(self, library_path, tmp_path, capsys):
        targets_file = tmp_path / "targets.json"
        targets_file.write_text(json.dumps({"metrics": {"l1d_miss_rate": 0.5}}))
        out_dir = tmp_path / "out"
        assert main([
            "align", str(targets_file), "--library", str(library_path), "--out", str(out_dir),
        ]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: target l1d_miss_rate=0.5 is outside the library's reachable range "
            "[0.0001, 0.2251]\n"
        )
        assert captured.out == "cache_behavior\t0.0%\n"
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "program.json", "proxy.c", "report.json", "trace.json",
        ]

    def test_targets_of_hidden_programs_give_no_warning(self, library_path, tmp_path, capsys):
        rng = np.random.default_rng(4242)
        for i in range(5):
            _, targets, ins1 = hidden_targets(default_library(), rng)
            targets_file = tmp_path / f"targets{i}.json"
            targets_file.write_text(dump_targets(targets))
            assert main([
                "align", str(targets_file), "--library", str(library_path),
                "--out", str(tmp_path / f"out{i}"), "--rounds", "2", "--ins1", str(ins1),
            ]) == 0
            assert capsys.readouterr().err == ""

    def test_all_zero_round_one_solve_names_its_cause(self, library_path, library, tmp_path, capsys):
        # under a 1e21-instruction budget the cold round-1 solve certifies
        # x = 0: no block is pruned, none was chosen
        hidden = ProxyProgram((("mem_stride64", 50_000), ("br_t512", 80_000),
                               ("mix_div8", 30_000), ("fpmix_add16", 20_000)))
        targets = TargetMetrics(compute_all_metrics(predict_events(hidden, library), METRICS))
        targets_file = tmp_path / "targets.json"
        targets_file.write_text(dump_targets(targets))
        out_dir = tmp_path / "out"
        assert main([
            "align", str(targets_file), "--library", str(library_path), "--out", str(out_dir),
            "--noise", "none", "--ins1", "1e21",
        ]) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(
            r"error: round 1: the solve certified x = 0, so no block would run "
            r"\(residual \d+\.\d+\)\n",
            captured.err,
        ), captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_empty_targets_give_an_error_line(self, library_path, tmp_path, capsys):
        targets_file = tmp_path / "targets.json"
        targets_file.write_text('{"metrics": {}}')
        out_dir = tmp_path / "out"
        assert main([
            "align", str(targets_file), "--library", str(library_path), "--out", str(out_dir),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: targets name no metric; give at least one\n"
        assert captured.out == ""
        assert not out_dir.exists()


def _first_block(doc, family):
    return next(b for b in doc["blocks"] if b["family"] == family)


def _set_param(family, key, value):
    def mutate(doc):
        block = _first_block(doc, family)
        block["params"][key] = value
        return block["id"]
    return mutate


def _set_profile_n0(doc):
    block = _first_block(doc, "branch_predict")
    block["profile"]["n0"] = "x"
    return block["id"]


def _set_block_id(value):
    def mutate(doc):
        _first_block(doc, "memory_access")["id"] = value
        return value
    return mutate


def _set_library_n0(doc):
    doc["n0"] = "x"


MALFORMED_LIBRARIES = {
    "string stride": _set_param("memory_access", "stride", "x"),
    "null stride": _set_param("function_access", "stride", None),
    "string mix": _set_param("arithmetic", "mix", "ab"),
    "string profile n0": _set_profile_n0,
    "integer block id": _set_block_id(3),
    "empty block id": _set_block_id(""),
    "string library n0": _set_library_n0,
}


class TestMalformedLibrary:
    @pytest.mark.parametrize("command", ["validate", "align"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_LIBRARIES))
    def test_error_line_and_exit_one(
        self, library_path, targets_path, tmp_path, capsys, case, command
    ):
        doc = json.loads(library_path.read_text())
        block_id = MALFORMED_LIBRARIES[case](doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        if command == "validate":
            argv = ["library", "validate", str(bad)]
        else:
            argv = ["align", str(targets_path[0]), "--library", str(bad),
                    "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if block_id is not None:
            assert err.startswith(f"error: block {block_id}: ")


@pytest.mark.parametrize("command", ["validate", "align", "render"])
def test_block_id_that_would_end_its_c_comment(
    library_path, targets_path, tmp_path, capsys, command
):
    doc = json.loads(library_path.read_text())
    doc["blocks"][0]["id"] = block_id = "x */ int y = ; /*"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    manifest = tmp_path / "program.json"
    manifest.write_text(dump_program(ProxyProgram(((block_id, 1),))))
    argv = {
        "validate": ["library", "validate", str(bad)],
        "align": ["align", str(targets_path[0]), "--library", str(bad),
                  "--out", str(tmp_path / "out")],
        "render": ["render", str(manifest), "--library", str(bad)],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    rule = f"block id must not contain '*/', got {block_id!r}"
    assert captured.err == f"error: block {block_id}: {rule}\n"
    assert captured.out == ""


def _set_mix_reps(value):
    def mutate(doc):
        block = _first_block(doc, "arithmetic")
        block["params"]["mix"][0][1] = value
        return block["id"]
    return mutate


# values that int()/bool() would coerce without complaint, so the loaded
# library would no longer write back the document it was read from
LOSSY_PARAMS = {
    "fractional stride": (_set_param("memory_access", "stride", 8.5), "memory_access"),
    "integral float stride": (_set_param("memory_access", "stride", 8.0), "memory_access"),
    "boolean count": (_set_param("function_access", "count", True), "function_access"),
    "float threshold": (_set_param("branch_predict", "threshold", 128.0), "branch_predict"),
    "float repetitions": (_set_mix_reps(16.0), "arithmetic"),
    "boolean repetitions": (_set_mix_reps(True), "arithmetic"),
    "string fp": (_set_param("arithmetic", "fp", "no"), "arithmetic"),
    "integer fp": (_set_param("arithmetic", "fp", 0), "arithmetic"),
}


class TestLossyParams:
    @pytest.mark.parametrize("command", ["validate", "align"])
    @pytest.mark.parametrize("case", sorted(LOSSY_PARAMS))
    def test_rejected_not_coerced(
        self, library_path, targets_path, tmp_path, capsys, case, command
    ):
        mutate, family = LOSSY_PARAMS[case]
        doc = json.loads(library_path.read_text())
        block_id = mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        if command == "validate":
            argv = ["library", "validate", str(bad)]
        else:
            argv = ["align", str(targets_path[0]), "--library", str(bad),
                    "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: block {block_id}: malformed {family} params: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestRenderCommand:
    def test_render_program_manifest(self, library_path, tmp_path, library):
        program = sample_hidden_program(library, np.random.default_rng(1))
        manifest = tmp_path / "program.json"
        manifest.write_text(dump_program(program))
        out = tmp_path / "proxy.c"
        assert main([
            "render", str(manifest), "--library", str(library_path), "--out", str(out),
        ]) == 0
        text = out.read_text()
        assert text.count("for (uint64_t it = 0u;") == len(program.entries)

    def test_loop_count_beyond_64_bits_is_an_error(self, library_path, tmp_path, capsys):
        # a wider literal would reach the compiler, which cuts it to 64 bits
        manifest = tmp_path / "program.json"
        out = tmp_path / "proxy.c"
        for executions, code in ((2**64 - 1, 0), (2**65, 1)):
            manifest.write_text(dump_program(ProxyProgram((("mem_stride8", executions),))))
            argv = ["render", str(manifest), "--library", str(library_path), "--out", str(out)]
            assert main(argv) == code
        err = capsys.readouterr().err
        assert err == f"error: block mem_stride8: iterations must be <= 2^64 - 1, got {2**65}\n"
        assert f"it < {2**64 - 1}u;" in out.read_text()

    def test_render_to_stdout(self, library_path, tmp_path, library, capsys):
        manifest = tmp_path / "program.json"
        manifest.write_text(dump_program(sample_hidden_program(library, np.random.default_rng(2))))
        assert main(["render", str(manifest), "--library", str(library_path)]) == 0
        assert "int main(void)" in capsys.readouterr().out


class TestImportCountsCommand:
    def test_valid_document_canonicalized(self, tmp_path, capsys):
        path = tmp_path / "run.counts"
        path.write_text("# run 1\ninstructions = 1000\ncycles = 1200\n")
        assert main(["import-counts", str(path)]) == 0
        assert capsys.readouterr().out == "cycles=1200\ninstructions=1000\n"

    def test_bad_document_reports_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "run.counts"
        path.write_text("cycles=5\nwidgets=1\n")
        assert main(["import-counts", str(path)]) == 1
        err = capsys.readouterr().err
        assert "run.counts" in err and "line 2" in err

    def test_out_flag_writes_file(self, tmp_path):
        path = tmp_path / "run.counts"
        path.write_text("cycles=5\ninstructions=2\n")
        out = tmp_path / "canonical.counts"
        assert main(["import-counts", str(path), "--out", str(out)]) == 0
        assert out.read_text() == "cycles=5\ninstructions=2\n"


def write_counts(path, library, program):
    path.write_text(format_counts(predict_events(program, library)))


class TestEvaluateCommand:
    def test_identical_files_score_one(self, tmp_path, library, capsys):
        program = sample_hidden_program(library, np.random.default_rng(3))
        real = tmp_path / "real.counts"
        write_counts(real, library, program)
        assert main(["evaluate", str(real), str(real)]) == 0
        out = capsys.readouterr().out
        rows = [line.split("\t") for line in out.strip().splitlines()]
        metric_rows = [r for r in rows if r[0] in {m.id for m in METRICS}]
        assert len(metric_rows) == 14
        assert all(float(r[3]) == 1.0 for r in metric_rows)

    def test_pair_matches_direct_recompute(self, tmp_path, library, capsys):
        rng = np.random.default_rng(4)
        p1 = sample_hidden_program(library, rng)
        p2 = sample_hidden_program(library, rng)
        real, proxy = tmp_path / "real.counts", tmp_path / "proxy.counts"
        write_counts(real, library, p1)
        write_counts(proxy, library, p2)
        assert main(["evaluate", str(real), str(proxy)]) == 0
        out = capsys.readouterr().out
        real_metrics = compute_all_metrics(predict_events(p1, library), METRICS)
        proxy_metrics = compute_all_metrics(predict_events(p2, library), METRICS)
        for line in out.strip().splitlines()[1:15]:
            metric, real_v, proxy_v, acc = line.split("\t")
            expected = 1.0 - abs(real_metrics[metric] - proxy_metrics[metric]) / abs(
                real_metrics[metric]
            )
            assert float(acc) == pytest.approx(expected, rel=1e-12)

    def test_series_mode_reports_rho_and_error_per_metric(self, tmp_path, library, capsys):
        rng = np.random.default_rng(5)
        args = ["evaluate", "--series"]
        for i in range(15):
            program = sample_hidden_program(library, rng)
            real = tmp_path / f"real{i}.counts"
            proxy = tmp_path / f"proxy{i}.counts"
            write_counts(real, library, program)
            noisy = SimulatedMachine(library).measure(program)
            proxy.write_text(format_counts(noisy))
            args += [str(real), str(proxy)]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric\trho\tmean_rel_error"
        assert len(lines) == 1 + 14

    def test_series_of_an_infinite_metric_rejected(self, tmp_path, library, capsys):
        # cycles over a tiny instruction count overflows the cpi ratio to inf
        rng = np.random.default_rng(7)
        args = ["evaluate", "--series"]
        for i in range(2):
            real, proxy = tmp_path / f"real{i}.counts", tmp_path / f"proxy{i}.counts"
            for path in (real, proxy):
                write_counts(path, library, sample_hidden_program(library, rng))
            args += [str(real), str(proxy)]
        lines = (tmp_path / "real1.counts").read_text().splitlines()
        lines = ["cycles=1e308" if line.startswith("cycles=") else
                 "instructions=1e-300" if line.startswith("instructions=") else line
                 for line in lines]
        (tmp_path / "real1.counts").write_text("\n".join(lines) + "\n")
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: series x[1] must be finite, got inf\n"
        assert captured.out == "metric\trho\tmean_rel_error\n"

    def test_odd_pair_count_rejected(self, tmp_path, capsys):
        path = tmp_path / "one.counts"
        path.write_text("cycles=1\ninstructions=1\n")
        assert main(["evaluate", str(path)]) == 1
        assert "pairs" in capsys.readouterr().err

    def test_incomplete_counts_error_names_file(self, tmp_path, library, capsys):
        # a proxy file missing an event defeats one metric; the diagnostic
        # must say which file is at fault
        program = sample_hidden_program(library, np.random.default_rng(6))
        good = tmp_path / "good.counts"
        write_counts(good, library, program)
        bad = tmp_path / "bad.counts"
        bad.write_text(
            "".join(line for line in good.read_text().splitlines(keepends=True)
                    if not line.startswith("branch_misses="))
        )
        assert main(["evaluate", str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.counts" in err and "branch_miss" in err


class TestNoiseFlag:
    def test_gaussian_noise_accepted(self, library_path, targets_path, tmp_path):
        targets_file, _ = targets_path
        out_dir = tmp_path / "gauss"
        assert main([
            "align", str(targets_file),
            "--library", str(library_path),
            "--out", str(out_dir),
            "--ins1", "5e6", "--rounds", "2", "--noise", "gaussian:0.01",
        ]) == 0

    def test_unknown_noise_rejected(self, library_path, targets_path, tmp_path, capsys):
        targets_file, _ = targets_path
        assert main([
            "align", str(targets_file),
            "--library", str(library_path),
            "--out", str(tmp_path / "x"),
            "--noise", "pink:0.5",
        ]) == 1
        assert "noise" in capsys.readouterr().err


BAD_NUMERIC_FLAGS = {
    "uniform_not_a_number": (["--noise", "uniform:abc"], "uniform:abc"),
    "gaussian_not_a_number": (["--noise", "gaussian:x"], "gaussian:x"),
    # none takes no level
    "none_with_a_level": (["--noise", "none:0.3"], "unknown noise spec 'none:0.3'"),
    "none_not_a_number": (["--noise", "none:abc"], "unknown noise spec 'none:abc'"),
    "gaussian_nan": (["--noise", "gaussian:nan"], "sigma"),
    "gaussian_inf": (["--noise", "gaussian:inf"], "sigma"),
    "tol_nan": (["--tol", "nan"], "tol"),
    "tol_inf": (["--tol", "inf"], "tol"),
    "ins1_nan": (["--ins1", "nan"], "ins1"),
    "ins1_inf": (["--ins1", "inf"], "ins1"),
    "growth_nan": (["--growth", "nan"], "growth"),
    "growth_inf": (["--growth", "inf"], "growth"),
    "eps_nan": (["--eps", "nan"], "prune_eps"),
    "eps_inf": (["--eps", "inf"], "prune_eps"),
    "eps_negative": (["--eps", "-1"], "prune_eps must be finite and >= 0, got -1.0"),
}


class TestBadNumericFlags:
    @pytest.mark.parametrize("case", sorted(BAD_NUMERIC_FLAGS))
    def test_error_line_and_exit_one(self, library_path, targets_path, tmp_path, capsys, case):
        flags, named = BAD_NUMERIC_FLAGS[case]
        targets_file, _ = targets_path
        out_dir = tmp_path / "out"
        assert main([
            "align", str(targets_file),
            "--library", str(library_path),
            "--out", str(out_dir),
            "--rounds", "2",
            *flags,
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert named in err
        assert not out_dir.exists()


def _set_target(name, value):
    def mutate(targets_doc, library_doc):
        targets_doc["metrics"][name] = value
    return mutate


def _set_count(event, value):
    def mutate(targets_doc, library_doc):
        library_doc["blocks"][0]["profile"]["counts"][event] = value
    return mutate


# inputs whose weighted cpi row overflows a float, so lstsq would return NaN
OVERFLOWING_ROWS = {
    "tiny cpi target": _set_target("cpi", 1e-300),
    "huge cycles count": _set_count("cycles", 1e308),
}


class TestOverflowingRows:
    @pytest.mark.parametrize("case", sorted(OVERFLOWING_ROWS))
    def test_error_names_the_metric(self, library_path, targets_path, tmp_path, capsys, case):
        targets_doc = json.loads(targets_path[0].read_text())
        library_doc = json.loads(library_path.read_text())
        OVERFLOWING_ROWS[case](targets_doc, library_doc)
        targets_file, library_file = tmp_path / "t.json", tmp_path / "l.json"
        targets_file.write_text(json.dumps(targets_doc))
        library_file.write_text(json.dumps(library_doc))
        out_dir = tmp_path / "out"
        assert main([
            "align", str(targets_file), "--library", str(library_file), "--out", str(out_dir),
        ]) == 1
        err = capsys.readouterr().err
        assert err == "error: round 1: weighted row cpi overflows a float\n"
        assert not out_dir.exists()


# block counts whose products or quotients overflow while the system is
# assembled, with the error line each must end in; numpy warns on such an
# overflow, and pytest captures warnings, so the align runs in a subprocess
L1D_WEIGHT_OVERFLOWS = ("error: round 1: weighted row l1d_miss_rate: "
                        "target times denominator estimate overflows a float\n")
OVERFLOWING_COUNTS = {
    "huge instructions": ({"instructions": 1e308},
                          "error: round 1: weighted row branch_ratio overflows a float\n"),
    "huge l1d_accesses": ({"l1d_accesses": 1e308}, L1D_WEIGHT_OVERFLOWS),
    "huge l1d_accesses per instruction": ({"instructions": 0.5, "l1d_accesses": 1e308},
                                          L1D_WEIGHT_OVERFLOWS),
}


class TestOverflowingCounts:
    @pytest.mark.parametrize("case", sorted(OVERFLOWING_COUNTS))
    def test_stderr_is_one_error_line(self, library_path, targets_path, tmp_path, case):
        counts, error = OVERFLOWING_COUNTS[case]
        library_doc = json.loads(library_path.read_text())
        library_doc["blocks"][0]["profile"]["counts"].update(counts)
        library_file = tmp_path / "l.json"
        library_file.write_text(json.dumps(library_doc))
        out_dir = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "proxybench.cli", "align", str(targets_path[0]),
             "--library", str(library_file), "--out", str(out_dir)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr == error
        assert not out_dir.exists()
