import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mfdma
from mfdma import (
    CascadeSpec1D, binomial_measure_1d, cli, ingest_series, pipeline, shuffle_surrogate,
    write_series_csv,
)
from mfdma.cli import format_with_error, main


@pytest.fixture(scope="module")
def measure_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "binomial_k12.csv"
    write_series_csv(binomial_measure_1d(CascadeSpec1D(p1=0.3, levels=12)), path)
    return path


@pytest.fixture(scope="module")
def measure14_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "binomial_k14.csv"
    write_series_csv(binomial_measure_1d(CascadeSpec1D(p1=0.3, levels=14)), path)
    return path


GRID = ["--n-min", "8", "--n-max", "256", "--n-count", "12", "--q-step", "0.5"]


def test_format_with_error_matches_table_style():
    assert format_with_error(0.874, 0.006) == "0.874(6)"
    assert format_with_error(1.401, 0.012) == "1.401(12)"
    assert format_with_error(1.505, 0.0044) == "1.505(4)"


def test_generate_then_analyze(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["generate", "binomial", "--p1", "0.3", "--levels", "10", "--out", str(out)]) == 0
    assert out.exists()
    code = main(
        ["analyze", "--input", str(out), "--out-dir", str(tmp_path / "res"), "--format", "json"]
        + ["--n-min", "8", "--n-max", "64", "--n-count", "10", "--q-step", "0.5"]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "h(q)" in captured
    assert "spectrum width" in captured
    doc = json.loads((tmp_path / "res/result.json").read_text())
    assert doc["schema"] == "mfdma.result/1"
    assert doc["provenance"]["config"]["n_max"] == 64


def test_generate_noise_and_cascade2d(tmp_path):
    noise = tmp_path / "noise.csv"
    assert main(["generate", "noise", "--length", "64", "--seed", "3", "--out", str(noise)]) == 0
    assert len(noise.read_text().splitlines()) == 64
    surf = tmp_path / "surf.csv"
    assert main(
        ["generate", "cascade2d", "--weights", "0.1,0.2,0.3,0.4", "--levels", "4", "--out", str(surf)]
    ) == 0
    rows = surf.read_text().splitlines()
    assert len(rows) == 16 and len(rows[0].split(",")) == 16


# each input spans several writer pieces; the cascades share a memo across them
@pytest.mark.parametrize("argv, data, wrote", [
    (["binomial", "--p1", "0.3", "--levels", "13"],
     lambda: binomial_measure_1d(CascadeSpec1D(0.3, 13)),
     "binomial(p1=0.3, levels=13): 8192 values"),
    (["cascade2d", "--weights", "0.1,0.2,0.3,0.4", "--levels", "7"],
     lambda: mfdma.cascade_measure_2d(mfdma.CascadeSpec2D((0.1, 0.2, 0.3, 0.4), 7)),
     "cascade2d(weights=(0.1, 0.2, 0.3, 0.4), levels=7): 128x128"),
    (["noise", "--length", "5000", "--seed", "3"],
     lambda: mfdma.gaussian_noise(5000, 3),
     "gaussian(length=5000, seed=3): 5000 values"),
], ids=["binomial", "cascade2d", "noise"])
def test_generate_writes_one_repr_per_value(argv, data, wrote, tmp_path, capsys):
    out = tmp_path / "gen.csv"
    assert main(["generate", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {wrote} to {out}\n"
    values = data().values
    rows = values.reshape(len(values), -1).tolist()
    assert out.read_text().split("\n") == [",".join(map(repr, row)) for row in rows] + [""]


def test_analyze_surface_mode(tmp_path, capsys):
    surf = tmp_path / "surf.csv"
    main(["generate", "cascade2d", "--weights", "0.1,0.2,0.3,0.4", "--levels", "6", "--out", str(surf)])
    code = main(
        ["analyze", "--input", str(surf), "--mode", "surface", "--n-min", "2", "--n-max", "16",
         "--n-count", "6", "--q-step", "0.5", "--out-dir", str(tmp_path / "res"),
         "--format", "csv-set"]
    )
    assert code == 0
    assert (tmp_path / "res/scaling.csv").exists()


def test_exit_code_validation_error(measure_file, capsys):
    code = main(["analyze", "--input", str(measure_file), "--n-max", "4096"])
    assert code == 2
    assert "N/4" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "surrogate", "compare"])
def test_an_analysis_without_input_is_a_validation_error(command, capsys):
    argv = [command] + (["--analytic-p1", "0.3"] if command == "compare" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {command} needs --input\n"


@pytest.mark.parametrize("name, text, code, message", [
    ("missing.json", None, 4, "input error: cannot read config file: "),
    ("list.json", "[1, 2]", 2, "error: config file list.json must hold a JSON object\n"),
], ids=["unreadable", "not-an-object"])
def test_a_config_file_that_cannot_be_read_or_holds_no_object_is_refused(
    name, text, code, message, measure_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        Path(name).write_text(text)
    assert main(["analyze", "--input", str(measure_file), "--config", name]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def test_exit_code_degenerate_data(tmp_path, capsys):
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("0.0\n" * 256)
    code = main(["analyze", "--input", str(zeros), "--n-min", "4", "--n-max", "32",
                 "--n-count", "5", "--q-step", "1.0"])
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


def test_exit_code_io_errors(tmp_path, capsys):
    assert main(["analyze", "--input", str(tmp_path / "missing.csv")]) == 4
    bad = tmp_path / "bad.csv"
    bad.write_text("1\n2\nwat\n")
    assert main(["analyze", "--input", str(bad)] + GRID) == 4
    assert "line 3" in capsys.readouterr().err


def test_out_of_memory_is_one_error_line_and_exit_5(measure_file, monkeypatch, capsys):
    message = "Unable to allocate 8.00 GiB for an array with shape (1073741824,)"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(pipeline, "analyze_all", exhausted)
    assert main(["analyze", "--input", str(measure_file)] + GRID) == 5
    assert capsys.readouterr().err == f"error: out of memory in analyze: {message}\n"


# the child caps its own address space a little above what the import left it
LIMITED_CLI = """
import resource, sys
import mfdma.cli
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) * 1024
resource.setrlimit(resource.RLIMIT_AS, (size + (16 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(mfdma.cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's /proc")
def test_a_child_out_of_address_space_exits_5_without_a_traceback(tmp_path):
    out = tmp_path / "noise.csv"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(mfdma.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    # 2^22 draws need 32 MB at once, twice the room the child leaves itself
    done = subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, "generate", "noise", "--length", "4194304",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    lines = done.stderr.splitlines()
    assert done.returncode == 5, done.stderr
    assert len(lines) == 1 and lines[0].startswith("error: out of memory in generate: ")
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_surrogate_subcommand(measure_file, tmp_path, capsys):
    out_dir = tmp_path / "surr"
    code = main(
        ["surrogate", "--input", str(measure_file), "--seed", "7", "--out-dir", str(out_dir)]
        + GRID
    )
    assert code == 0
    summary = json.loads((out_dir / "surrogate_summary.json").read_text())
    assert summary["multiset_preserved"] is True
    assert summary["width_shuffled"] < summary["width_raw"]
    assert (out_dir / "raw/result.json").exists()
    assert (out_dir / "shuffled/result.json").exists()
    assert "width raw" in capsys.readouterr().out


# the child notes whether numpy itself imported numpy.ma (numpy 1.x does), then runs the CLI
MA_CHILD = """
import sys
import numpy
before = "numpy.ma" in sys.modules
from mfdma.cli import main
code = main(sys.argv[1:])
print(code, before, "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("command", ["analyze", "compare", "surrogate"])
def test_a_cli_run_does_not_import_numpy_ma(command, measure_file, tmp_path):
    # np.unique imports numpy.ma, about 10 ms and 1.3 MB on every run
    argv = {"analyze": ["analyze"], "compare": ["compare", "--analytic-p1", "0.3"],
            "surrogate": ["surrogate", "--seed", "7"]}[command]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(mfdma.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", MA_CHILD, *argv, "--input", str(measure_file),
         "--out-dir", str(tmp_path / "out")] + GRID,
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, before, after = done.stdout.split()[-3:]
    assert code == "0", done.stderr
    if before == "True":
        pytest.skip("this numpy imports numpy.ma itself")
    assert after == "False"


def _tree(root):
    """Each file under ``root`` by its relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _surrogate_digests(path, out_dir, seed):
    """The raw and the shuffled bundle's input digest of one ``surrogate`` run."""
    assert main(["surrogate", "--input", str(path), "--seed", str(seed),
                 "--out-dir", str(out_dir)] + GRID) == 0
    return [json.loads((out_dir / kind / "result.json").read_text())["provenance"]["input_digest"]
            for kind in ("raw", "shuffled")]


def test_surrogate_is_seeded(measure_file, tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d in (dir_a, dir_b):
        assert main(["surrogate", "--input", str(measure_file), "--seed", "9",
                     "--out-dir", str(d)] + GRID) == 0
    tree = _tree(dir_a)
    assert {"surrogate_summary.json", "raw/result.json", "shuffled/result.json"} <= set(tree)
    assert tree == _tree(dir_b)


def test_shuffled_digest_is_the_sha256_of_the_shuffled_float64_bytes(measure_file, tmp_path):
    raw, shuffled = _surrogate_digests(measure_file, tmp_path / "seed9", 9)
    values = shuffle_surrogate(ingest_series(measure_file), 9).values
    assert shuffled == hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
    assert raw == hashlib.sha256(measure_file.read_bytes()).hexdigest()
    assert shuffled != raw
    assert _surrogate_digests(measure_file, tmp_path / "seed10", 10)[1] != shuffled


def test_shuffled_digest_hashes_the_values_without_a_copy(measure_file, tmp_path, monkeypatch):
    # traced from the end of the shuffle to the end of the hash that follows it
    seen, real_sha256 = {}, hashlib.sha256

    def shuffle(series, seed):
        shuffled = shuffle_surrogate(series, seed)
        seen["values"] = shuffled.values
        tracemalloc.start()
        return shuffled

    def sha256(*args):
        digest = real_sha256(*args)
        if args and tracemalloc.is_tracing():
            seen["hashed"], seen["peak"] = args[0], tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return digest

    monkeypatch.setattr(cli, "shuffle_surrogate", shuffle)
    monkeypatch.setattr(cli.hashlib, "sha256", sha256)
    try:
        _surrogate_digests(measure_file, tmp_path, 9)
    finally:
        tracemalloc.stop()
    assert np.shares_memory(seen["hashed"], seen["values"])
    assert seen["peak"] < seen["values"].nbytes / 8


def test_compare_requires_analytic_reference(measure_file, capsys):
    assert main(["compare", "--input", str(measure_file)] + GRID) == 2
    assert "analytic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, flag, value",
    [("surface", "--analytic-p1", "0.3"), ("series", "--analytic-weights", "0.1,0.2,0.3,0.4")],
)
def test_compare_reference_must_fit_the_mode(mode, flag, value, tmp_path, capsys):
    # a 1-d tau(q) cannot score a surface, nor a 2-d one a series
    from mfdma import CascadeSpec2D, cascade_measure_2d, write_surface_csv

    path = tmp_path / "surface.csv"
    write_surface_csv(cascade_measure_2d(CascadeSpec2D((0.1, 0.2, 0.3, 0.4), 6)), path)
    out_dir = tmp_path / "out"
    argv = ["compare", "--mode", mode, "--input", str(path), "--out-dir", str(out_dir)]
    assert main(argv + [flag, value]) == 2
    implied = "series" if mode == "surface" else "surface"
    assert capsys.readouterr().err == f"error: {flag} implies --mode {implied}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command, rows", [
    (["analyze"], 9),  # the summary prints 9 picked rows
    (["compare", "--analytic-p1", "0.3"], 31),  # the delta tau table prints every q
])
def test_printed_tables_tell_every_q_of_a_fine_grid_apart(command, rows, measure_file, capsys):
    # six significant digits would print these 31 q with only 4 labels
    fine = ["--q-min", "1", "--q-max", "1.00003", "--q-step", "0.000001"]
    assert main([*command, "--input", str(measure_file), *fine]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[0] == "q")
    labels = [line.split()[0] for line in lines[header + 1:header + 1 + rows]]
    assert all(label.startswith("1") for label in labels)
    assert len(set(labels)) == rows


def test_compare_reproduces_estimator_ranking(measure14_file, tmp_path, capsys):
    # on the reference cascade the accuracy order is backward, forward,
    # polynomial baseline, centered
    out_dir = tmp_path / "cmp"
    code = main(
        ["compare", "--input", str(measure14_file), "--analytic-p1", "0.3",
         "--out-dir", str(out_dir),
         "--n-min", "10", "--n-max", "1000", "--n-count", "30", "--q-step", "0.5"]
    )
    assert code == 0
    header = (out_dir / "delta_tau.csv").read_text().splitlines()[0].split(",")
    assert "tau_analytic" in header
    assert "dtau_mfdma_theta0" in header and "dtau_mfdfa" in header
    summary = json.loads((out_dir / "compare_summary.json").read_text())
    assert set(summary["sum_abs_dtau"]) == {
        "mfdma_theta0", "mfdma_theta0.5", "mfdma_theta1", "mfdfa"
    }
    assert summary["ranking"] == [
        "mfdma_theta0", "mfdma_theta1", "mfdfa", "mfdma_theta0.5"
    ]
    assert "ranking (best first)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "mode, reference, message",
    [
        ("series", ["--analytic-p1", "1.5"], "p1 must lie strictly inside (0, 1), got 1.5"),
        ("surface", ["--analytic-weights", "0.5,0.5,0.5,0.5"],
         "weights must sum to 1 within 1e-12, got 2.0"),
        ("surface", ["--analytic-weights", "nan,0.2,0.3,0.4"], "weight must be finite, got nan"),
        # 0.1^-400 overflows, so tau(q) is not finite on this grid
        ("surface", ["--analytic-weights", "0.1,0.2,0.3,0.4", "--q-min", "-400", "--q-max", "400",
                     "--q-step", "1"], "closed-form tau(q) is not finite at q=-400"),
        # compare runs every method and theta, so it takes neither flag
        ("series", ["--analytic-p1", "0.3", "--theta", "0.7"],
         "compare runs every method and theta, so --theta is not taken"),
        ("series", ["--analytic-p1", "0.3", "--method", "mfdfa"],
         "compare runs every method and theta, so --method is not taken"),
        ("surface", ["--analytic-weights", "a,0.2,0.3,0.5"],
         "weights must be comma-separated numbers, got 'a,0.2,0.3,0.5'"),
        ("surface", ["--analytic-weights", "0.1,0.2,0.7"],
         "expected exactly four weights, got 3"),
    ],
    ids=["p1-on-series", "weights-on-surface", "nan-weight-on-surface", "tau-overflow-on-surface",
         "theta-flag", "method-flag", "weight-not-a-number", "three-weights"],
)
def test_compare_rejects_a_bad_reference_before_reading(
    mode, reference, message, measure_file, tmp_path, monkeypatch, capsys
):
    # the reference needs no data, so neither the input nor any estimator is reached
    from mfdma import cli, pipeline

    calls = []

    def spy(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} was called")
        return record

    monkeypatch.setattr(cli, "ingest_input", spy("ingest_input"))
    for name in ("_mfdma_tables_1d", "mfdfa_fluctuations_1d",
                 "_mfdma_tables_2d", "mfdfa_fluctuations_2d"):
        monkeypatch.setattr(pipeline, name, spy(name))
    argv = ["compare", "--mode", mode, "--input", str(measure_file),
            "--out-dir", str(tmp_path / "out")]
    assert main(argv + reference) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, name",
    [({"theta": 0.7}, "theta"), ({"method": "mfdfa"}, "method"),
     ({"theta": 0.7, "method": "mfdfa"}, "method"), ({"theta": 0.0}, "theta")],
    ids=["theta", "method", "both", "default-theta"],
)
def test_compare_rejects_theta_and_method_from_a_config_file(
    config, name, measure_file, tmp_path, monkeypatch, capsys
):
    # the error the flag gives, before the input is read, even for the default value
    def ingest_input(cfg):
        raise AssertionError("ingest_input was called")

    monkeypatch.setattr(cli, "ingest_input", ingest_input)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = ["compare", "--analytic-p1", "0.3", "--input", str(measure_file),
            "--config", str(path), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    message = f"compare runs every method and theta, so --{name} is not taken"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_compare_takes_a_config_file_without_theta_or_method(measure_file, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"q_step": 0.5, "n_min": 8, "n_max": 256, "n_count": 12}))
    argv = ["compare", "--analytic-p1", "0.3", "--input", str(measure_file), "--format", "json"]
    assert main(argv + ["--config", str(path), "--out-dir", str(tmp_path / "config")]) == 0
    assert main(argv + GRID + ["--out-dir", str(tmp_path / "flags")]) == 0
    for label in ("mfdma_theta0", "mfdfa"):
        config, flags = (tmp_path / run / label / "result.json" for run in ("config", "flags"))
        assert config.read_bytes() == flags.read_bytes()


def test_compare_reads_its_config_file_once(measure_file, tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"q_step": 0.5, "n_min": 8, "n_max": 256, "n_count": 12}))
    reads = []

    def read_text(self, *args, real=Path.read_text, **kwargs):
        reads.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)
    argv = ["compare", "--analytic-p1", "0.3", "--input", str(measure_file), "--config", str(path)]
    assert main(argv) == 0
    assert reads.count(path) == 1


@pytest.mark.parametrize("command", ["analyze", "surrogate", "compare"])
def test_analysis_flags_are_the_config_fields(command):
    # one option per AnalysisConfig field, named by it and typed and limited as declared
    import argparse
    import typing

    from mfdma.cli import build_parser
    from mfdma.pipeline import CHOICES, AnalysisConfig

    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = [a for a in subparsers.choices[command]._actions if a.dest != "help"]
    hints = typing.get_type_hints(AnalysisConfig)
    extra = ["config"] + (["analytic_p1", "analytic_weights"] if command == "compare" else [])
    assert sorted(a.dest for a in actions) == sorted([*hints, *extra])
    by_dest = {a.dest: a for a in actions}
    for name, hint in hints.items():
        declared = (typing.get_args(hint) or (hint,))[0]
        assert by_dest[name].type is declared, name
        assert by_dest[name].choices == CHOICES.get(name), name


@pytest.mark.parametrize("mode", ["series", "surface"])
def test_compare_reads_its_input_once(mode, measure_file, tmp_path, monkeypatch):
    # and so do analyze and, on series, surrogate: every analysis command
    # reads its input through pipeline.ingest_input
    from mfdma import CascadeSpec2D, cascade_measure_2d, pipeline, write_surface_csv

    if mode == "series":
        path, reference, grid = measure_file, ["--analytic-p1", "0.3"], GRID
    else:
        path = tmp_path / "surface.csv"
        write_surface_csv(cascade_measure_2d(CascadeSpec2D((0.1, 0.2, 0.3, 0.4), 5)), path)
        reference = ["--analytic-weights", "0.1,0.2,0.3,0.4"]
        grid = ["--n-min", "2", "--n-max", "8", "--n-count", "4", "--q-step", "1"]
    calls = []
    for name in ("ingest_series", "ingest_surface"):
        def spy(p, real=getattr(pipeline, name), name=name):
            calls.append(name)
            return real(p)

        monkeypatch.setattr(pipeline, name, spy)
    commands = {"analyze": [], "compare": reference}
    if mode == "series":
        commands["surrogate"] = []
    for command, extra in commands.items():
        calls.clear()
        out_dir = tmp_path / command
        argv = [command, "--mode", mode, "--input", str(path), "--out-dir", str(out_dir)]
        assert main(argv + extra + grid) == 0
        assert calls == [f"ingest_{mode}"], command
    summary = json.loads((tmp_path / "compare" / "compare_summary.json").read_text())
    assert len(summary["sum_abs_dtau"]) == 4


@pytest.mark.parametrize("mode", ["series", "surface"])
def test_compare_writes_the_result_json_analyze_writes(mode, measure_file, tmp_path):
    # compare's MFDMA methods share one pass; each result must still be the
    # bytes that analyze writes for that method alone
    from mfdma import CascadeSpec2D, cascade_measure_2d, write_surface_csv
    from mfdma.cli import COMPARE_METHODS

    if mode == "series":
        path, reference, grid = measure_file, ["--analytic-p1", "0.3"], GRID
    else:
        path = tmp_path / "surface.csv"
        write_surface_csv(cascade_measure_2d(CascadeSpec2D((0.1, 0.2, 0.3, 0.4), 5)), path)
        reference = ["--analytic-weights", "0.1,0.2,0.3,0.4"]
        grid = ["--n-min", "2", "--n-max", "8", "--n-count", "4", "--q-step", "0.5"]
    common = ["--mode", mode, "--input", str(path), "--format", "json"] + grid
    assert main(["compare", "--out-dir", str(tmp_path / "compare")] + common + reference) == 0
    for label, method, theta in COMPARE_METHODS:
        out_dir = tmp_path / label
        argv = ["analyze", "--method", method, "--theta", str(theta), "--out-dir", str(out_dir)]
        assert main(argv + common) == 0
        written = tmp_path / "compare" / label.replace(".", "_") / "result.json"
        assert written.read_bytes() == (out_dir / "result.json").read_bytes(), label


@pytest.mark.parametrize("kind", ["mfdma-written", "header-crlf"])
def test_surrogate_raw_result_equals_analyze_result(kind, measure_file, tmp_path):
    path = measure_file
    if kind == "header-crlf":
        path = tmp_path / "crlf.csv"
        values = np.random.default_rng(5).standard_normal(2048)
        path.write_bytes(("value\r\n" + "".join(f"{v:.6f}\r\n" for v in values)).encode())
    flags = ["--input", str(path), "--seed", "4", "--format", "json"] + GRID
    assert main(["analyze", "--out-dir", str(tmp_path / "ana")] + flags) == 0
    assert main(["surrogate", "--out-dir", str(tmp_path / "sur")] + flags) == 0
    result = (tmp_path / "ana" / "result.json").read_bytes()
    assert (tmp_path / "sur" / "raw" / "result.json").read_bytes() == result
    digest = json.loads(result)["provenance"]["input_digest"]
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", ["series", "surface", "config"])
def test_input_that_is_not_utf8_is_an_input_error(kind, measure_file, tmp_path, capsys):
    bad = tmp_path / f"{kind}.txt"
    argv = ["analyze", "--input", str(bad)]
    if kind == "series":
        bad.write_bytes(b"1.0\n2.0\xe9\n3.0\n")
    elif kind == "surface":
        bad.write_bytes(b"1.0,2.0\n2.0,\xe9\n3.0,1.0\n")
        argv += ["--mode", "surface"]
    else:
        bad.write_bytes(b'{"theta": 0.0, "x\xe9": 1}')
        argv = ["analyze", "--input", str(measure_file), "--config", str(bad)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    if kind != "config":
        assert "line 2: not UTF-8" in err


@pytest.mark.parametrize(
    "command, doc, code",
    [
        pytest.param("analyze", {"theta": "a"}, 2, id="float-given-string"),
        pytest.param("analyze", {"n_count": 4.5}, 2, id="optional-int-given-float"),
        pytest.param("surrogate", {"seed": "x"}, 2, id="int-given-string"),
        pytest.param("analyze", {"legendre_half_window": 2.5}, 2, id="int-given-float"),
        pytest.param("analyze", {"theta": 0}, 0, id="float-given-int"),
    ],
)
def test_config_values_must_have_their_declared_type(
    command, doc, code, measure_file, tmp_path, capsys
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = [command, "--input", str(measure_file), "--config", str(cfg)] + GRID
    assert main(argv) == code
    if code:
        key = next(iter(doc))
        assert capsys.readouterr().err.startswith(f"error: config key {key} must be ")


def test_oracle_stdout_and_file(tmp_path, capsys):
    assert main(["oracle", "--p1", "0.3", "--q-min", "-2", "--q-max", "2", "--q-step", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "q,tau,alpha,f"
    assert len(lines) == 6
    row = dict(zip(lines[0].split(","), lines[3].split(",")))
    assert float(row["q"]) == 0.0
    assert float(row["tau"]) == pytest.approx(-1.0)
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--weights", "0.1,0.2,0.3,0.4", "--out", str(out)]) == 0
    assert out.read_text().startswith("q,tau,alpha,f")


def _closed_form(weights, q):
    """tau, alpha and f of a cascade with ``weights`` at q, in pure Python."""
    powers = [w ** q for w in weights]
    total = math.fsum(powers)
    tau = -math.log2(total)
    alpha = -math.fsum(p * math.log(w) for p, w in zip(powers, weights)) / (total * math.log(2))
    return [tau, alpha, q * alpha - tau]


@pytest.mark.parametrize("argv, weights", [
    (["--p1", "0.3"], [0.3, 1 - 0.3]),
    (["--weights", "0.1,0.2,0.3,0.4"], [0.1, 0.2, 0.3, 0.4]),
], ids=["p1", "weights"])
def test_oracle_stdout_is_pinned(argv, weights, capsys):
    """The binomial and the square cascade share one closed form, printed on the default q grid.

    The header and the q column are exact.  The last digits of tau, alpha
    and f follow the CPU features numpy's exp and log use, so they are held
    within 1e-12 of max(1, |value|): tau crosses 0 at q = 1.
    """
    assert main(["oracle", *argv]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "q,tau,alpha,f"
    grid = [-4.0 + k * 0.1 for k in range(81)]
    table = [list(map(float, row.split(","))) for row in rows]
    assert [row[0] for row in table] == [0.0 if abs(q) < 1e-12 else q for q in grid]
    for q, *values in table:
        assert values == pytest.approx(_closed_form(weights, q), rel=1e-12, abs=1e-12)


def test_oracle_rejects_ambiguous_reference(capsys):
    assert main(["oracle", "--p1", "0.3", "--weights", "0.25,0.25,0.25,0.25"]) == 2
    assert main(["oracle"]) == 2


def test_oracle_rejects_a_nan_weight(capsys):
    assert main(["oracle", "--weights", "nan,0.2,0.3,0.4"]) == 2
    assert capsys.readouterr() == ("", "error: weight must be finite, got nan\n")


def test_oracle_rejects_a_q_grid_whose_closed_form_overflows(capsys):
    # 0.3^-1000 overflows, so tau, alpha and f are not finite there; numpy's warnings
    # would fail this test, as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["oracle", "--p1", "0.3", "--q-min", "-1000", "--q-max", "1000", "--q-step", "1"]
        assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: closed-form tau(q) is not finite at q=-1000\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        # a whole line: each names the one bound that is not finite
        (["analyze", "--q-step", "nan"], "error: q_step must be finite, got nan\n"),
        (["analyze", "--q-max", "inf"], "error: q_max must be finite, got inf\n"),
        (["analyze", "--q-min=-inf"], "error: q_min must be finite, got -inf\n"),
        (["analyze", "--config", "nan-step.json"], "error: q_step must be finite, got nan\n"),
        (["oracle", "--p1", "0.3", "--q-step", "nan"], "error: q_step must be finite, got nan\n"),
        # numpy cannot index 1e20 values; the step count of the next one overflows to inf
        (["oracle", "--p1", "0.3", "--q-min", "0", "--q-max", "1e20", "--q-step", "1"],
         "error: q range (0.0, 1e+20) in steps of 1.0 needs 1e+20 steps, more than numpy"),
        (["analyze", "--q-min=-1e308", "--q-max", "1e308", "--q-step", "1e307"],
         "error: q range (-1e+308, 1e+308) in steps of 1e+307 needs inf steps, more than numpy"),
    ],
    ids=["q-step-nan", "q-max-inf", "q-min-minus-inf", "config-q-step-nan", "oracle-q-step-nan",
         "oracle-1e20-steps", "analyze-inf-steps"],
)
def test_a_non_finite_q_grid_is_a_validation_error(argv, message, measure_file, tmp_path,
                                                   monkeypatch, capsys):
    # json.loads reads NaN, so a config file can hold one too
    (tmp_path / "nan-step.json").write_text('{"q_step": NaN}')
    monkeypatch.chdir(tmp_path)
    if argv[0] == "analyze":
        argv = argv + ["--input", str(measure_file)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1


def test_a_non_finite_fit_end_is_refused_before_the_input_is_read(tmp_path, capsys):
    # it selected 0 scales after ingest, and a missing input exited 4 first
    missing = str(tmp_path / "missing.csv")
    assert main(["analyze", "--input", missing, "--fit-lo", "nan"]) == 2
    assert capsys.readouterr().err == "error: fit_lo must be finite, got nan\n"
    with pytest.raises(mfdma.ValidationError, match=r"^fit_hi must be finite, got inf$"):
        pipeline.AnalysisConfig(fit_hi=float("inf"))


@pytest.mark.parametrize("key", ["q_max", "fit_hi"])
def test_a_config_number_that_no_float_holds_is_refused_before_the_input_is_read(
    key, tmp_path, capsys
):
    # np.isfinite raised a TypeError on the q bound, float() an OverflowError on the fit end
    huge = 10**400
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({key: huge}))
    argv = ["analyze", "--input", str(tmp_path / "missing.csv"), "--config", str(config)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {key} must be finite, got {huge}\n"


def test_a_scale_count_numpy_cannot_index_is_a_validation_error(measure_file, capsys):
    # np.logspace raised "Maximum allowed size exceeded" here, a traceback and exit 1
    assert main(["analyze", "--input", str(measure_file), "--n-count", "10000000000000000000"]) == 2
    assert capsys.readouterr().err == (
        "error: scale count 10000000000000000000 is more than numpy can index\n")


@pytest.mark.parametrize("argv, value", [
    # int64's largest value; the scales cast from float64 wrapped to negative ones
    (["--n-max", "9223372036854775807"], 9223372036854775807),
    # np.log10 takes no Python int this large, a traceback and exit 1
    (["--n-max", "100000000000000000000"], 100000000000000000000),
    (["--config", "huge.json"], 200000000000000000000),
], ids=["n-max-int64", "n-max-1e20", "config-1e20"])
def test_a_scale_bound_too_large_to_round_is_a_validation_error(
    argv, value, measure_file, tmp_path, monkeypatch, capsys
):
    (tmp_path / "huge.json").write_text(
        '{"n_min": 100000000000000000000, "n_max": 200000000000000000000}')
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--input", str(measure_file)] + argv) == 2
    assert capsys.readouterr().err == f"error: n_max must be below 2**53, got {value}\n"


@pytest.mark.parametrize("command", ["surrogate", "generate"])
def test_a_negative_seed_is_a_validation_error(command, measure_file, tmp_path, capsys):
    out = tmp_path / "noise.csv"
    argv = (["surrogate", "--input", str(measure_file)] if command == "surrogate"
            else ["generate", "noise", "--length", "64", "--out", str(out)])
    assert main(argv + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_surrogate_rejects_surface_mode_before_reading(source, tmp_path, monkeypatch, capsys):
    from mfdma import cli

    def refuse(cfg):
        raise AssertionError("ingest_input was called")

    monkeypatch.setattr(cli, "ingest_input", refuse)
    config = tmp_path / "cfg.json"
    config.write_text('{"mode": "surface"}')
    mode = ["--mode", "surface"] if source == "flag" else ["--config", str(config)]
    assert main(["surrogate", "--input", str(tmp_path / "surface.csv")] + mode) == 2
    assert capsys.readouterr().err == "error: surrogate shuffles a series, got mode 'surface'\n"


def test_oracle_names_the_weight_sum_as_a_plain_number(capsys):
    assert main(["oracle", "--weights", "0.5,0.5,0.5,0.5"]) == 2
    assert capsys.readouterr().err == "error: weights must sum to 1 within 1e-12, got 2.0\n"


def test_config_file_flag_precedence(measure_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_min": 8, "n_max": 128, "n_count": 10, "q_step": 0.5}))
    out_a = tmp_path / "a"
    assert main(["analyze", "--input", str(measure_file), "--config", str(cfg),
                 "--out-dir", str(out_a), "--format", "json"]) == 0
    doc = json.loads((out_a / "result.json").read_text())
    assert doc["provenance"]["config"]["n_max"] == 128
    out_b = tmp_path / "b"
    assert main(["analyze", "--input", str(measure_file), "--config", str(cfg),
                 "--n-max", "64", "--out-dir", str(out_b), "--format", "json"]) == 0
    doc = json.loads((out_b / "result.json").read_text())
    assert doc["provenance"]["config"]["n_max"] == 64  # flag wins


def test_end_to_end_determinism(measure_file, tmp_path):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        assert main(["analyze", "--input", str(measure_file), "--out-dir", str(d),
                     "--format", "json"] + GRID) == 0
    assert (dirs[0] / "result.json").read_bytes() == (dirs[1] / "result.json").read_bytes()
