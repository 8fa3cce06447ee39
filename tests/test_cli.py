import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tricount
from tricount.analysis import RSE_REPORT_CSV_HEADER
from tricount.cli import _METRICS_CSV_KEYS, main
from helpers import complete_edges, graph_text, path_edges

TRIANGLE = "0 1\n1 2\n2 0\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(graph_text(complete_edges(4)))
    return str(path)


@pytest.fixture
def path_file(tmp_path):
    path = tmp_path / "path.txt"
    path.write_text(graph_text(path_edges(2)))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_triangle_csv(capsys, triangle_file):
    code, out, err = run_cli(capsys, ["stats", "--graph", triangle_file])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,delta,lambda,C,tri_per_edge,phi_over_3delta,K_over_delta"
    assert lines[1] == "3,3,1,3,1,1,1,0"


def test_stats_path_csv(capsys, path_file):
    code, out, _ = run_cli(capsys, ["stats", "--graph", path_file])
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[2] == "0"  # delta
    assert row[4] == "0"  # C


def test_stats_k4_ratios(capsys, k4_file):
    code, out, _ = run_cli(capsys, ["stats", "--graph", k4_file,
                                    "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["phi_over_3delta"] == 2
    assert payload["K_over_delta"] == 1.5


def test_stats_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["stats", "--graph",
                                      str(tmp_path / "nope.txt")])
    assert code == 1
    assert out == ""
    assert "error" in err


def test_stats_parse_error_goes_to_stderr(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\noops\n")
    code, out, err = run_cli(capsys, ["stats", "--graph", str(bad)])
    assert code == 1
    assert out == ""
    assert "line 2" in err


def test_estimate_ews_k4(capsys, k4_file):
    code, out, _ = run_cli(capsys, ["estimate", "--graph", k4_file,
                                    "--method", "ews", "--p", "1.0",
                                    "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"] == 4.0
    assert payload["seed"] == 42  # documented default


def test_estimate_es_p1_equals_exact(capsys, k4_file):
    code, out, _ = run_cli(capsys, ["estimate", "--graph", k4_file,
                                    "--method", "es", "--p", "1.0",
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out)["estimate"] == 4.0


def test_estimate_ws_k3(capsys, triangle_file):
    code, out, _ = run_cli(capsys, ["estimate", "--graph", triangle_file,
                                    "--method", "ws", "--k", "10",
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out)["estimate"] == 1.0


def test_estimate_csv_shape(capsys, k4_file):
    code, out, _ = run_cli(capsys, ["estimate", "--graph", k4_file,
                                    "--method", "ews", "--p", "0.5",
                                    "--seed", "9"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,p_or_k,seed,raw,sampled,estimate,seconds"
    assert lines[1].startswith("ews,0.5,9,")


def test_estimate_missing_parameter_exits_2(capsys, k4_file):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--graph", k4_file, "--method", "ews"])
    assert exc.value.code == 2
    assert "requires --p" in capsys.readouterr().err


def test_estimate_invalid_p_exits_2(capsys, k4_file):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--graph", k4_file, "--method", "es", "--p", "1.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, err_line", [
    (["--method", "ews", "--p", "0.5", "--k", "7"], "--k: ews does not take k"),
    (["--method", "ws", "--k", "3", "--p", "7"],
     "--p: sampling probability p must be in (0, 1], got 7.0"),
], ids=["ews-given-k", "ws-given-bad-p"])
def test_estimate_rejects_the_flag_its_method_does_not_read(capsys, k4_file,
                                                            argv, err_line):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--graph", k4_file, *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"tricount: error: {err_line}" in err


def test_estimate_huge_k_exits_2(capsys, k4_file):
    # A k past the float range is an invalid --k like any other, not an
    # OverflowError with a traceback.
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--graph", k4_file, "--method", "ws", "--k", str(10**400)])
    assert exc.value.code == 2
    assert "tricount: error: --k: wedge-sample count k must fit a float" in \
        capsys.readouterr().err


def test_estimate_k_past_the_largest_array_exits_2(capsys, k4_file):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--graph", k4_file, "--method", "ws", "--k", str(10**30)])
    assert exc.value.code == 2
    assert (f"tricount: error: --k: wedge-sample count k must be at most "
            f"{sys.maxsize}, the largest array size, got {10**30}") in \
        capsys.readouterr().err


def test_estimate_k_too_large_to_allocate_exits_1(capsys, k4_file):
    # 10**18 draws is a valid k that no host can hold: a reported error,
    # not a traceback.
    code, out, err = run_cli(capsys, ["estimate", "--graph", k4_file,
                                      "--method", "ws", "--k", str(10**18)])
    assert code == 1 and out == ""
    assert err.startswith("tricount: error: out of memory:")


def test_estimate_ws_without_wedges_fails_cleanly(capsys, tmp_path):
    f = tmp_path / "matching.txt"
    f.write_text("0 1\n2 3\n")
    code, out, err = run_cli(capsys, ["estimate", "--graph", str(f),
                                      "--method", "ws", "--k", "5"])
    assert code == 1
    assert out == ""
    assert "wedge" in err


def test_rse_sweep_row_count_and_seed_echo(capsys, k4_file):
    code, out, err = run_cli(capsys, [
        "rse-sweep", "--graph", k4_file, "--method", "ews", "--method", "ws",
        "--p", "0.5", "--p", "1.0", "--runs", "30", "--seed", "7"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("method,p,k,sampled,")
    assert len(lines) == 1 + 4  # |methods| x |p list|
    assert "seed 7" in err and "seed" not in out


@pytest.mark.parametrize("flag,value", [("--p", "0"), ("--p", "1.5"),
                                        ("--runs", "1")])
def test_rse_sweep_rejects_bad_input_before_loading(capsys, k4_file, flag, value):
    args = {"--p": "0.5", "--runs": "30", flag: value}
    code, out, err = run_cli(capsys, [
        "rse-sweep", "--graph", k4_file, "--method", "ews",
        "--p", args["--p"], "--runs", args["--runs"]])
    assert code == 1
    assert out == ""
    assert flag in err and f"got {value}" in err
    assert "base seed" not in err  # the check ran before the graph loaded


def test_rse_sweep_csv_and_json(capsys, k4_file):
    argv = ["rse-sweep", "--graph", k4_file, "--method", "es", "--p", "0.2",
            "--runs", "20", "--seed", "8"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == RSE_REPORT_CSV_HEADER
    assert len(lines) == 2
    assert lines[1].split(",")[2] == ""  # no k column for es
    _, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    payload = json.loads(out)
    assert payload[0]["method"] == "es"
    assert payload[0]["runs"] == 20


def test_rse_sweep_byte_identical_reruns(capsys, k4_file):
    argv = ["rse-sweep", "--graph", k4_file, "--p", "0.5",
            "--runs", "25", "--seed", "3", "--format", "json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    payload = json.loads(first)
    assert len(payload) == 3  # defaults to all three methods


def test_estimate_reruns_identical_except_timing(capsys, k4_file):
    argv = ["estimate", "--graph", k4_file, "--method", "es", "--p", "0.4",
            "--seed", "31", "--format", "json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    a, b = json.loads(first), json.loads(second)
    a.pop("seconds")
    b.pop("seconds")
    assert a == b


def test_sample_size_inline_web_google(capsys):
    delta = 13_391_000
    metrics = f"875000,4322000,{delta},{3 * delta / 0.0552},{35.4 * 3 * delta},{46.4 * delta}"
    code, out, _ = run_cli(capsys, ["sample-size", "--metrics", metrics,
                                    "--rse", "0.05", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ews"] == pytest.approx(1525, rel=0.02)
    assert payload["ws"] == pytest.approx(6842, rel=0.02)
    assert payload["es"] == pytest.approx(16_556, rel=0.02)
    assert payload["ws_over_ews"] == pytest.approx(4.49, rel=0.02)


@pytest.mark.parametrize("rse, row", [
    ("0.05", "0.05,1524,6847,16558,4.492782152230971"),
    ("0.01", "0.01,38085,171160,161848,4.49415780491007")])
def test_sample_size_rows_are_pinned(capsys, rse, row):
    code, out, _ = run_cli(capsys, [
        "sample-size", "--metrics",
        "875000,4322000,13391000,727771739,1422124200,621342400", "--rse", rse])
    assert code == 0
    assert out == f"target_rse,ews,ws,es,ws_over_ews\n{row}\n"


@pytest.mark.parametrize("metrics", ["10,10,1e-200,1,30,5", "10,1e300,1,3,1e300,5"])
def test_sample_size_past_the_float_range_fails_cleanly(capsys, metrics):
    # delta * delta underflows to 0 / m * phi overflows to inf
    code, out, err = run_cli(capsys, ["sample-size", "--metrics", metrics,
                                      "--rse", "0.1"])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("tricount: error:")
    assert "not finite" in err and "Traceback" not in err


def test_sample_size_from_graph(capsys, k4_file):
    code, out, _ = run_cli(capsys, ["sample-size", "--graph", k4_file,
                                    "--rse", "0.5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "target_rse,ews,ws,es,ws_over_ews"


def test_sample_size_loose_target_floors_at_one(capsys):
    code, out, _ = run_cli(capsys, ["sample-size", "--metrics",
                                    "3,3,1,3,3,0", "--rse", "1.0",
                                    "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert all(1 <= payload[k] <= 3 for k in ("ews", "ws", "es"))


def test_sample_size_rejects_delta_above_lambda_third(capsys):
    # Each triangle closes three wedges, so no graph has delta > lambda/3;
    # this input reports triangles but no wedges.
    code, out, err = run_cli(capsys, ["sample-size", "--metrics",
                                      "10,10,5,0,30,5", "--rse", "0.1"])
    assert code == 1
    assert out == ""
    assert "--metrics: delta must be <= lambda/3, got delta 5 and lambda 0" in err


def test_sample_size_rejects_phi_below_three_delta(capsys):
    # Each triangle adds 2a + b - 3 >= 3 to phi, so no graph has phi < 3*delta.
    code, out, err = run_cli(capsys, ["sample-size", "--metrics",
                                      "4,4,1,3,2,0", "--rse", "0.1"])
    assert code == 1
    assert out == ""
    assert "--metrics: phi must be >= 3*delta, got phi 2 and delta 1" in err


def test_sample_size_accepts_delta_of_lambda_third(capsys):
    code, out, _ = run_cli(capsys, ["sample-size", "--metrics", "10,10,5,15,30,5",
                                    "--rse", "0.1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["ws"] == 1  # C = 1: every wedge closed


def test_sample_size_requires_exactly_one_source(capsys, k4_file):
    with pytest.raises(SystemExit) as neither:
        main(["sample-size", "--rse", "0.05"])
    neither_err = capsys.readouterr().err.splitlines()[-1]
    with pytest.raises(SystemExit) as both:
        main(["sample-size", "--rse", "0.05", "--graph", k4_file,
              "--metrics", "1,1,1,1,1,1"])
    both_err = capsys.readouterr().err.splitlines()[-1]
    for exc, err in ((neither, neither_err), (both, both_err)):
        assert exc.value.code == 2
        assert err.startswith("tricount sample-size: error:")
        assert "--graph" in err and "--metrics" in err


def test_output_file_option(tmp_path, capsys, triangle_file):
    dest = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, ["stats", "--graph", triangle_file,
                                    "--output", str(dest)])
    assert code == 0
    assert out == ""
    assert dest.read_text().startswith("n,m,delta")


@pytest.mark.parametrize("rse", ["0", "1.5", "nan"])
def test_sample_size_checks_rse_before_reading_the_graph(capsys, tmp_path, rse):
    # The graph does not exist: the bad target is reported, not the file.
    code, out, err = run_cli(capsys, ["sample-size", "--graph",
                                      str(tmp_path / "missing.txt"), "--rse", rse])
    assert code == 1 and out == ""
    assert err == ("tricount: error: --rse: target RSE must be in (0, 1], "
                   f"got {float(rse)}\n")


@pytest.mark.parametrize("dest", ["", "missing/out.csv"])
def test_unwritable_output_is_an_error_line(tmp_path, capsys, triangle_file, dest):
    code, out, err = run_cli(capsys, ["stats", "--graph", triangle_file,
                                      "--output", str(tmp_path / dest)])
    assert code == 1
    assert out == ""
    assert err.startswith("tricount: error: ") and err.count("\n") == 1


def test_rse_sweep_ws_at_one_wedge(capsys, tmp_path):
    # m = 49, so --p 0.01 gives k = 1, where (k/m)*m falls below 1.
    f = tmp_path / "k5_path.txt"
    f.write_text(graph_text(complete_edges(5)
                            + [(10 + i, 11 + i) for i in range(39)]))
    code, out, err = run_cli(capsys, ["rse-sweep", "--graph", str(f),
                                      "--method", "ws", "--p", "0.01",
                                      "--runs", "5"])
    assert code == 0, err
    (row,) = out.strip().split("\n")[1:]
    assert row.split(",")[:4] == ["ws", "0.01", "1", "1"]


def _child_env() -> dict:
    """This environment, with the directory of the imported package first
    on PYTHONPATH, so a child process imports the package under test
    whether or not the caller set PYTHONPATH."""
    env = dict(os.environ)
    paths = [str(Path(tricount.__file__).resolve().parents[1])]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def test_module_entry_point(triangle_file):
    proc = subprocess.run([sys.executable, "-m", "tricount", "stats",
                           "--graph", triangle_file],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,m,delta")


def test_stats_leaves_numpy_random_unloaded(triangle_file):
    # numpy loads numpy.random (~5 MB resident) on first use; stats draws
    # nothing, so it should not pay for it.
    code = ("import sys; from tricount.cli import main; "
            f"main(['stats', '--graph', {triangle_file!r}]); "
            "sys.exit('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n,m,delta")


def test_estimate_json_raw_is_an_integer(capsys, k4_file):
    code, out, _ = run_cli(capsys, ["estimate", "--graph", k4_file,
                                    "--method", "ews", "--p", "1.0",
                                    "--format", "json"])
    assert code == 0
    assert '"raw": 12,' in out
    assert json.loads(out)["raw"] == 12


@pytest.mark.parametrize("metrics, field", [("1,1,nan,1,1,1", "delta"),
                                            ("1,1,1,inf,1,1", "lambda"),
                                            ("1,1,1,3,1,-5", "K"),
                                            ("1,1,1,2.9,1,1", "delta"),
                                            ("1,1,x1,3,1,1", "delta"),
                                            ("10.9,20,4,12,24,6", "n"),
                                            ("10,20.7,4,12,24,6", "m")])
def test_sample_size_rejects_bad_inline_metrics(capsys, metrics, field):
    code, out, err = run_cli(capsys, ["sample-size", "--metrics", metrics,
                                      "--rse", "0.1"])
    assert code == 1
    assert out == ""
    assert f"--metrics: {field} " in err


def test_sample_size_rejects_five_inline_metrics(capsys):
    code, out, err = run_cli(capsys, ["sample-size", "--metrics", "1,1,1,3,1",
                                      "--rse", "0.1"])
    assert code == 1
    assert out == ""
    assert "tricount: error: --metrics needs six values: n,m,delta,lambda,phi,K" in err


@pytest.mark.parametrize("argv", [
    ["estimate", "--method", "ews", "--p", "0.5"],
    ["estimate", "--method", "ws", "--k", "5"],
    ["sample-size", "--rse", "0.5"]])
def test_csv_header_is_the_json_keys(capsys, k4_file, argv):
    argv = [*argv, "--graph", k4_file]
    _, csv_out, _ = run_cli(capsys, argv)
    _, json_out, _ = run_cli(capsys, [*argv, "--format", "json"])
    header, row = csv_out.splitlines()
    assert header.split(",") == list(json.loads(json_out))
    assert len(row.split(",")) == len(header.split(","))


def test_stats_csv_header_is_the_exact_key_tuple(capsys, k4_file):
    _, csv_out, _ = run_cli(capsys, ["stats", "--graph", k4_file])
    _, json_out, _ = run_cli(capsys, ["stats", "--graph", k4_file, "--format", "json"])
    assert tuple(csv_out.splitlines()[0].split(",")) == _METRICS_CSV_KEYS
    record = json.loads(json_out)
    assert [k for k in record if k in _METRICS_CSV_KEYS] == list(_METRICS_CSV_KEYS)
    assert set(record) - set(_METRICS_CSV_KEYS) == {"phi", "K"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_estimate_es_at_underflowing_p_is_zero(capsys, k4_file, fmt):
    code, out, err = run_cli(capsys, ["estimate", "--graph", k4_file, "--method", "es",
                                      "--p", "1e-300", "--format", fmt])
    assert code == 0 and err == ""
    if fmt == "json":
        assert json.loads(out)["estimate"] == 0.0
    else:
        assert out.splitlines()[1].startswith("es,1e-300,42,0,0,0,")


@pytest.mark.parametrize("method, p, fmt", [("es", "1e-300", "csv"),
                                            ("es", "1e-160", "csv"),
                                            ("ews", "5e-324", "json")])
def test_rse_sweep_with_non_finite_theory_fails_cleanly(capsys, k4_file, method, p, fmt):
    code, out, err = run_cli(capsys, ["rse-sweep", "--graph", k4_file, "--method", method,
                                      "--p", p, "--runs", "5", "--format", fmt])
    assert code == 1 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("tricount: error:")]
    assert errors == [f"tricount: error: {method} RSE at p = {float(p)} is not finite"]
    assert "Traceback" not in err
