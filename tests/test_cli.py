import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from trisample import SAMPLER_KINDS, count_exact, load_edge_list, write_edge_list
from trisample.cli import main

from conftest import gnp_graph

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_module(*args, **kwargs):
    """``python -m trisample *args`` in a child process that imports this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "trisample", *args], env=env, **kwargs)


@pytest.fixture
def paw_file(tmp_path):
    path = tmp_path / "paw.edges"
    path.write_text("0 1\n0 2\n1 2\n2 3\n")
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text("0 1\n0 2\n1 2\n")
    return str(path)


@pytest.fixture
def path3_file(tmp_path):
    path = tmp_path / "path3.edges"
    path.write_text("0 1\n1 2\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_exact_paw(capsys, paw_file):
    report = run_json(capsys, "exact", paw_file)
    assert report["command"] == "exact"
    assert report["result"]["triangles"] == 1
    assert report["input"] == {"path": paw_file, "n": 4, "m": 4}


def test_exact_k4_with_profile(capsys, k4_file):
    report = run_json(capsys, "exact", k4_file, "--profile")
    assert report["result"]["triangles"] == 4
    assert report["result"]["per_vertex"] == [3, 3, 3, 3]
    assert [row[2] for row in report["result"]["per_edge"]] == [2] * 6


def test_exact_profile_rows_are_the_sorted_per_edge_mapping(capsys, tmp_path, paw_file, k4_file):
    rng = np.random.default_rng(73)
    random_file = tmp_path / "random.edges"
    write_edge_list(gnp_graph(30, 0.3, rng), str(random_file))
    for path in (k4_file, paw_file, str(random_file)):
        rows = run_json(capsys, "exact", path, "--profile")["result"]["per_edge"]
        prof = count_exact(load_edge_list(path))
        assert [row[:2] for row in rows] == sorted(row[:2] for row in rows)
        assert {(i, j): c for i, j, c in rows} == prof.per_edge
        assert len(rows) == len(prof.per_edge)


def test_exact_empty_file_fails(capsys, tmp_path):
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    code, out, err = run_cli(capsys, "exact", str(empty))
    assert code != 0
    assert out == ""
    assert "empty input" in err


def test_exact_rejects_an_id_beyond_int64(capsys, tmp_path):
    path = tmp_path / "huge.edges"
    path.write_text("99999999999999999999 0\n")
    code, out, err = run_cli(capsys, "exact", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 1: ")


def test_exact_refuses_a_universe_whose_edge_keys_overflow(capsys, tmp_path):
    path = tmp_path / "wide.edges"
    path.write_text("3037000499 0\n")
    code, out, err = run_cli(capsys, "exact", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: n=3037000500 vertices exceed the limit of 3037000499")


def test_stream_refuses_a_declared_universe_as_exact_does(capsys, tmp_path):
    # The stream checks the cap before its n-row state is allocated.
    path = tmp_path / "wide.edges"
    path.write_text("# n=3037000500\n0 1\n")
    errors = []
    for argv in (["exact", str(path)], ["stream", str(path), "--samples", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        errors.append(err)
    limit = "error: n=3037000500 vertices exceed the limit of 3037000499 (edge keys would overflow int64)\n"
    assert errors == [limit, limit]


def test_exact_reports_an_allocation_failure(capsys, monkeypatch, paw_file):
    # A parsed id can still size arrays beyond memory; stand in for that
    # failure rather than allocating for real.
    def fail(_source):
        raise MemoryError("Unable to allocate 29.8 GiB for an array with shape (4000000001,)")

    monkeypatch.setattr("trisample.cli.load_edge_list", fail)
    code, out, err = run_cli(capsys, "exact", paw_file)
    assert code == 1
    assert out == ""
    assert err.startswith("error: Unable to allocate")


def test_estimate_optimal_k4(capsys, k4_file):
    report = run_json(capsys, "estimate", k4_file, "--sampler", "optimal", "--samples", "3", "--seed", "7")
    result = report["result"]
    assert set(result) == {
        "estimate",
        "s",
        "sampler",
        "seed",
        "empirical_variance",
        "std_error",
        "ci95",
        "degenerate_trials",
        "elapsed_ms",
    }
    assert result["estimate"] == 4.0
    assert (result["empirical_variance"], result["std_error"], result["ci95"]) == (0.0, 0.0, [4.0, 4.0])
    assert result["degenerate_trials"] == 0
    assert result["s"] == 3
    assert result["seed"] == 7


def test_estimate_triangle_free_is_zero(capsys, path3_file):
    report = run_json(capsys, "estimate", path3_file, "--sampler", "edge-degree", "--samples", "100", "--seed", "1")
    assert report["result"]["estimate"] == 0.0


def test_estimate_paw_qopt_band(capsys, paw_file):
    report = run_json(
        capsys, "estimate", paw_file, "--sampler", "qopt-uniform", "--samples", "100000", "--seed", "1"
    )
    assert 0.97 <= report["result"]["estimate"] <= 1.03


@pytest.mark.parametrize("command", ["estimate", "stream"])
def test_estimate_and_stream_report_a_standard_error_and_interval(capsys, paw_file, command):
    argv = [command, paw_file, "--samples", "2000", "--seed", "3"]
    result = run_json(capsys, *argv, *(["--sampler", "qopt-uniform"] if command == "estimate" else []))["result"]
    value, std_error = result["estimate"], result["std_error"]
    assert std_error == math.sqrt(result["empirical_variance"]) > 0.0
    assert result["ci95"] == [value - 1.959963984540054 * std_error, value + 1.959963984540054 * std_error]
    assert result["ci95"][0] < 1.0 < result["ci95"][1]  # the paw's one triangle
    # Var of one qopt-uniform trial on the paw is 1/3 (n * sum T_i^2 / 9 - T^2).
    assert std_error == pytest.approx(math.sqrt(1 / 3 / 2000), rel=0.1)


def test_estimate_optimal_triangle_free_fails(capsys, path3_file):
    code, out, err = run_cli(capsys, "estimate", path3_file, "--sampler", "optimal", "--samples", "10")
    assert code != 0
    assert out == ""
    assert "undefined" in err


def test_variance_matches_analytics(capsys, paw_file, k3_file):
    report = run_json(capsys, "variance", paw_file, "--sampler", "qopt-degree")
    assert report["result"]["analytical_variance"] == pytest.approx(5 / 27, rel=1e-12)
    assert report["result"]["difference"] == pytest.approx(0.0, abs=1e-12)
    report = run_json(capsys, "variance", paw_file, "--sampler", "edge-uniform")
    assert report["result"]["analytical_variance"] == pytest.approx(5 / 9, rel=1e-12)
    report = run_json(capsys, "variance", k3_file, "--sampler", "edge-degree")
    assert report["result"]["analytical_variance"] == pytest.approx(0.0, abs=1e-12)


def test_variance_on_a_complete_graph_reports_exact_zeros(capsys, tmp_path):
    path = tmp_path / "k14.edges"
    path.write_text("".join(f"{i} {j}\n" for i in range(14) for j in range(i + 1, 14)))
    for kind in SAMPLER_KINDS:
        result = run_json(capsys, "variance", str(path), "--sampler", kind)["result"]
        assert (result["analytical_variance"], result["generic_variance"]) == (0.0, 0.0), kind
        assert result["difference"] == 0.0, kind


def test_plan_parameter_mode(capsys):
    report = run_json(
        capsys, "plan", "--epsilon", "0.1", "--c", "1", "--n", "1000", "--upper-bound", "2", "--bound", "vertex"
    )
    assert report["result"]["s"] == 2764
    report = run_json(
        capsys, "plan", "--epsilon", "0.2", "--c", "1", "--n", "1000", "--upper-bound", "2", "--bound", "vertex"
    )
    assert report["result"]["s"] == 691


def test_plan_from_file_labels_provenance(capsys, paw_file):
    report = run_json(capsys, "plan", paw_file, "--epsilon", "0.1", "--bound", "vertex")
    result = report["result"]
    assert result["upper_bound_source"] == "oracle-derived"
    assert result["average_source"] == "oracle-derived"
    assert result["upper_bound"] == 1.0
    assert result["average"] == 0.25
    assert result["s"] == math.ceil(2 * 1 * 4.0 * math.log(4) / 0.01)


def test_plan_epsilon_out_of_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--epsilon", "1.5", "--n", "100", "--upper-bound", "2"])
    assert exc.value.code == 2


def test_plan_without_a_file_needs_a_ratio_of_at_least_1(capsys):
    code, out, err = run_cli(capsys, "plan", "--epsilon", "0.1", "--n", "100", "--upper-bound", "0.5")
    assert code == 1
    assert out == ""
    assert err == "error: plan without a file needs --upper-bound >= 1, the bound/average ratio\n"
    report = run_json(capsys, "plan", "--epsilon", "0.1", "--n", "100", "--upper-bound", "1")
    assert report["result"]["s"] == math.ceil(2 * math.log(100) / 0.01)


def test_plan_needs_a_file_or_n(capsys):
    code, out, err = run_cli(capsys, "plan", "--epsilon", "0.1")
    assert (code, out) == (1, "")
    assert err == "error: plan needs an edge-list file or an explicit --n\n"


def test_plan_from_a_file_refuses_n(capsys, paw_file):
    code, out, err = run_cli(capsys, "plan", paw_file, "--epsilon", "0.1", "--n", "1000")
    assert code == 1
    assert out == ""
    assert err == "error: plan reads n from its edge-list file; --n is for a plan without one\n"


@pytest.mark.parametrize("bound, name", [("vertex", "max_per_vertex"), ("edge", "max_per_edge")])
def test_plan_from_a_file_refuses_a_bound_below_the_oracles(capsys, paw_file, bound, name):
    argv = ("plan", paw_file, "--epsilon", "0.1", "--bound", bound, "--upper-bound")
    code, out, err = run_cli(capsys, *argv, "0.5")
    assert (code, out) == (1, "")
    assert err == f"error: upper bound 0.5 is below the oracle's {name} 1\n"
    assert run_json(capsys, *argv, "1")["result"]["upper_bound"] == 1.0


def test_plan_triangle_free_fails(capsys, path3_file):
    code, out, err = run_cli(capsys, "plan", path3_file, "--epsilon", "0.1")
    assert code != 0
    assert "triangle-free" in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        # Usage errors, as an epsilon out of range is: argparse exits with 2.
        (["--upper-bound", "inf"], 2, "error: argument --upper-bound: expected a finite positive number, got inf"),
        (["--upper-bound", "nan"], 2, "error: argument --upper-bound: expected a finite positive number, got nan"),
        (["--c", "inf", "--upper-bound", "2"], 2, "error: argument --c: expected a finite positive number, got inf"),
        # A valid epsilon whose square underflows to 0.
        (["--epsilon", "1e-200", "--upper-bound", "2"], 1, "error: epsilon = 1e-200 squares to 0 in floating point"),
    ],
)
def test_plan_refuses_non_finite_and_underflowing_inputs(argv, code, message):
    proc = _run_module("plan", "--n", "100", "--epsilon", "0.1", *argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].endswith(message)


def test_stream_passes(capsys, paw_file, k3_file):
    report = run_json(capsys, "stream", paw_file, "--samples", "4", "--seed", "2", "--n", "4")
    assert report["result"]["passes_used"] == 2
    assert report["result"]["peak_state_bytes"] == 4 * 1 + 8 * 4  # n * ceil(s/8) + 8 s
    report = run_json(capsys, "stream", paw_file, "--samples", "4", "--seed", "2")
    assert report["result"]["passes_used"] == 3
    report = run_json(capsys, "stream", k3_file, "--samples", "1", "--seed", "0")
    assert report["result"]["estimate"] == 1.0


def test_stream_n_must_agree_with_the_header(capsys, tmp_path):
    path = tmp_path / "paw.edges"
    path.write_text("# n=4\n0 1\n0 2\n1 2\n2 3\n")
    code, out, err = run_cli(capsys, "stream", str(path), "--samples", "8", "--seed", "3", "--n", "100")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "n=100" in err and "n=4" in err
    report = run_json(capsys, "stream", str(path), "--samples", "8", "--seed", "3", "--n", "4")
    mem = run_json(capsys, "estimate", str(path), "--sampler", "qopt-uniform", "--samples", "8", "--seed", "3")
    assert report["result"]["n"] == 4
    assert report["result"]["passes_used"] == 2
    assert report["result"]["estimate"] == mem["result"]["estimate"]


def test_stream_reports_the_edge_count(capsys, paw_file):
    report = run_json(capsys, "stream", paw_file, "--samples", "4", "--seed", "2")
    assert report["input"]["m"] == 4
    assert report["input"]["n"] == 4


def test_stream_matches_in_memory_estimate(capsys, paw_file):
    stream = run_json(capsys, "stream", paw_file, "--samples", "16", "--seed", "5")
    mem = run_json(capsys, "estimate", paw_file, "--sampler", "qopt-uniform", "--samples", "16", "--seed", "5")
    assert stream["result"]["estimate"] == mem["result"]["estimate"]
    assert stream["result"]["degenerate_trials"] == mem["result"]["degenerate_trials"]


@pytest.mark.parametrize(
    "text, passes",
    [("0 1\n0 2\n1 2\n2 3\n", 3), ("# n=6\n0 1\n0 2\n1 2\n2 3\n", 2)],
    ids=["no-header", "header"],
)
def test_a_pipe_without_n_reports_what_its_file_does(capsys, tmp_path, text, passes):
    path = tmp_path / "g.edges"
    path.write_text(text)
    args = ["--samples", "16", "--seed", "5"]
    want = run_json(capsys, "stream", str(path), *args)
    proc = _run_module("stream", "-", *args, input=text, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert want["result"]["passes_used"] == passes
    for part, key in (("result", "estimate"), ("result", "n"), ("input", "m"), ("result", "passes_used")):
        assert got[part][key] == want[part][key], key


def test_stream_from_stdin_with_n():
    proc = _run_module(
        "stream", "-", "--samples", "4", "--n", "3", "--seed", "1",
        input="0 1\n0 2\n1 2\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["result"]["estimate"] == 1.0  # every K3 vertex gives n*z/3 = 1
    assert report["result"]["passes_used"] == 2


def _stdin(data: bytes) -> io.TextIOWrapper:
    """A stdin that holds ``data``, with the byte buffer a real one has."""
    return io.TextIOWrapper(io.BytesIO(data))


def test_piped_bytes_reach_the_reader_as_a_files_do(monkeypatch, capsys, tmp_path):
    data = b"0 1\n1 2\n0 2\n2 \xff3\n"  # not UTF-8
    path = tmp_path / "bad.edges"
    path.write_bytes(data)
    assert main(["stream", str(path), "--samples", "4"]) == 1
    want = capsys.readouterr().err
    assert "can't decode byte 0xff" in want
    monkeypatch.setattr(sys, "stdin", _stdin(data))
    assert main(["stream", "-", "--samples", "4"]) == 1
    assert capsys.readouterr().err == want


@pytest.mark.parametrize(
    "text, code", [("0 1\n0 2\n1 2\n", 0), ("0 1\n1 x\n", 1)], ids=["ok", "parse-error"]
)
def test_piped_stream_removes_its_spool_file(monkeypatch, capsys, tmp_path, text, code):
    spool_dir = tmp_path / "tmp"
    spool_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
    monkeypatch.setattr(sys, "stdin", _stdin(text.encode()))
    assert main(["stream", "-", "--n", "3", "--samples", "4", "--seed", "1"]) == code
    capsys.readouterr()
    assert list(spool_dir.iterdir()) == []


def test_piped_stream_spools_into_a_file_without_a_name(monkeypatch, capsys, tmp_path):
    spool_dir = tmp_path / "tmp"
    spool_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
    monkeypatch.setattr(sys, "stdin", _stdin(b"0 1\n0 2\n1 2\n"))
    copy, listings = shutil.copyfileobj, []

    def listed_copy(src, dst, *args):
        listings.append(list(spool_dir.iterdir()))
        copy(src, dst, *args)
        listings.append(list(spool_dir.iterdir()))

    monkeypatch.setattr(shutil, "copyfileobj", listed_copy)
    report = run_json(capsys, "stream", "-", "--n", "3", "--samples", "4", "--seed", "1")
    assert listings == [[], []]
    assert report["result"]["estimate"] == 1.0
    assert report["result"]["passes_used"] == 2


def test_bench_error_shrinks_with_s(capsys, paw_file):
    report = run_json(
        capsys, "bench", paw_file, "--samplers", "qopt-uniform,edge-degree",
        "--samples", "10,100,1000", "--repetitions", "40", "--seed", "3",
    )
    rows = report["result"]["rows"]
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row["sampler"], []).append((row["s"], row["mean_error"]))
    for kind, entries in by_kind.items():
        errors = [e for _s, e in sorted(entries)]
        assert errors[0] >= errors[1] >= errors[2], (kind, errors)


def test_bench_optimal_has_zero_error(capsys, k4_file):
    report = run_json(
        capsys, "bench", k4_file, "--samplers", "optimal", "--samples", "10,100", "--repetitions", "5"
    )
    for row in report["result"]["rows"]:
        assert row["mean_error"] == 0.0
        assert row["error_metric"] == "relative"


def test_bench_triangle_free_reports_absolute(capsys, path3_file):
    report = run_json(
        capsys, "bench", path3_file, "--samplers", "edge-uniform", "--samples", "10", "--repetitions", "5"
    )
    row = report["result"]["rows"][0]
    assert row["error_metric"] == "absolute"
    assert row["mean_error"] == 0.0


def test_bench_defaults_leave_out_optimal_on_a_triangle_free_graph(capsys, path3_file):
    report = run_json(capsys, "bench", path3_file, "--samples", "10", "--repetitions", "3")
    rows = report["result"]["rows"]
    assert [row["sampler"] for row in rows] == [k for k in SAMPLER_KINDS if k != "optimal"]
    assert all(row["error_metric"] == "absolute" for row in rows)
    code, out, err = run_cli(
        capsys, "bench", path3_file, "--samplers", "optimal", "--samples", "10", "--repetitions", "3"
    )
    assert code == 1
    assert out == ""
    assert "triangle-free" in err


USAGE_ERRORS = {
    "estimate-samples-0": (
        ["estimate", "--sampler", "edge-degree", "--samples", "0"],
        "argument --samples: expected a positive integer, got 0",
    ),
    "plan-c-nan": (
        ["plan", "--epsilon", "0.1", "--n", "100", "--upper-bound", "2", "--c", "nan"],
        "argument --c: expected a finite positive number, got nan",
    ),
    "bench-unknown-sampler": (
        ["bench", "--samplers", "edge-degree,wedge"],
        "argument --samplers: unknown sampler 'wedge'",
    ),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_argument_types_refuse_bad_values_as_usage_errors(capsys, paw_file, argv, message):
    command, *options = argv
    with pytest.raises(SystemExit) as exc:
        main([command, *([] if command == "plan" else [paw_file]), *options])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"trisample {command}: error: {message}"


@pytest.mark.parametrize("flag", ["--samplers", "--samples"])
@pytest.mark.parametrize("value", [",", "", " , "])
def test_bench_refuses_a_list_without_entries(capsys, paw_file, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["bench", paw_file, flag, value, "--repetitions", "2", "--format", "tsv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected a comma-separated list, got {value!r}" in captured.err


PAW_DIGEST = {"path": "PAW", "n": 4, "m": 4}


ENVELOPE_CASES = {
    "exact": (["exact", "PAW"], PAW_DIGEST, None),
    "estimate": (["estimate", "PAW", "--sampler", "qopt-degree", "--samples", "20", "--seed", "9"], PAW_DIGEST, 9),
    "variance": (["variance", "PAW", "--sampler", "edge-degree"], PAW_DIGEST, None),
    "plan-file": (["plan", "PAW", "--epsilon", "0.1"], PAW_DIGEST, None),
    "plan-ratio": (["plan", "--epsilon", "0.1", "--n", "50", "--upper-bound", "2"], {"path": None, "n": 50, "m": None}, None),
    "stream": (["stream", "PAW", "--samples", "8", "--seed", "9"], PAW_DIGEST, 9),
    "bench": (["bench", "PAW", "--samples", "10", "--repetitions", "2", "--seed", "9"], PAW_DIGEST, 9),
}


@pytest.mark.parametrize("argv, digest, seed", ENVELOPE_CASES.values(), ids=ENVELOPE_CASES)
def test_every_report_has_the_same_envelope(capsys, paw_file, argv, digest, seed):
    argv = [paw_file if a == "PAW" else a for a in argv]
    report = run_json(capsys, *argv)
    assert set(report) == {"command", "input", "result", "elapsed_ms", "seed"}
    assert report["command"] == argv[0]
    assert report["input"] == {k: paw_file if v == "PAW" else v for k, v in digest.items()}
    assert report["seed"] == seed
    assert report["elapsed_ms"] > 0.0
    if argv[0] in ("estimate", "stream"):
        assert report["result"]["elapsed_ms"] == report["elapsed_ms"]
    else:
        assert "elapsed_ms" not in report["result"]


def _without_times(report):
    if isinstance(report, dict):
        return {k: _without_times(v) for k, v in report.items() if k != "elapsed_ms"}
    if isinstance(report, list):
        return [_without_times(v) for v in report]
    return report


def test_commands_run_back_to_back_in_one_process(capsys, paw_file):
    # main parses every command line with one parser; no run may leave
    # anything in it, such as a default list, that changes the next.
    runs = [[paw_file if a == "PAW" else a for a in argv] for argv, _, _ in ENVELOPE_CASES.values()]
    runs.append(["bench", paw_file, "--repetitions", "2"])  # the default --samples grid
    first = [_without_times(run_json(capsys, *argv)) for argv in runs]
    again = [_without_times(run_json(capsys, *argv)) for argv in reversed(runs)]
    assert again[::-1] == first
    assert [r["command"] for r in first] == [argv[0] for argv in runs]


def test_json_reports_round_trip(capsys, paw_file):
    code, out, err = run_cli(capsys, "estimate", paw_file, "--sampler", "edge-uniform", "--samples", "50")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_tsv_format(capsys, paw_file):
    code, out, err = run_cli(capsys, "exact", paw_file, "--format", "tsv")
    assert code == 0
    lines = dict(line.split("\t", 1) for line in out.strip().splitlines())
    assert lines["result.triangles"] == "1"
    code, out, err = run_cli(
        capsys, "bench", paw_file, "--samplers", "optimal", "--samples", "10",
        "--repetitions", "3", "--format", "tsv",
    )
    header, *rows = out.strip().splitlines()
    assert header.split("\t")[0] == "sampler"
    assert len(rows) == 1


# Any import of the test-only packages fails in this child, so a runtime
# import of one makes its command fail.
_NUMPY_ONLY = """
import sys
for name in ("scipy", "networkx", "hypothesis"):
    sys.modules[name] = None
from trisample.cli import main
path = sys.argv[1]
for argv in (
    ["exact", path],
    ["estimate", path, "--sampler", "qopt-degree", "--samples", "50"],
    ["variance", path, "--sampler", "edge-uniform"],
    ["stream", path, "--samples", "8"],
):
    if main(argv):
        sys.exit(f"{argv[0]} failed")
"""


def test_numpy_is_the_only_runtime_dependency(paw_file):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY, paw_file], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"command"') == 4


def test_console_entry_point():
    proc = _run_module("--help", capture_output=True, text=True)
    assert proc.returncode == 0
    for command in ("exact", "estimate", "variance", "plan", "stream", "bench"):
        assert command in proc.stdout
