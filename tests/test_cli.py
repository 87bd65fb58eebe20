import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import heckedist
from heckedist import bounds, cli, datasource, equidist
from heckedist.cli import emit_report, run_command
from heckedist.errors import UnsupportedFormat


def _json_out(argv):
    code, out = run_command(argv)
    assert code == 0, out.decode()
    return json.loads(out.decode())


def test_measure_phi_total_mass():
    rep = _json_out(["measure", "phi", "--ord", "2", "--interval", "-2,2"])
    assert abs(rep["mass"] - 1.0) < 1e-9
    assert rep["meta"]["version"]
    rep = _json_out(["measure", "phi", "--ord", "2", "--moment", "4"])
    assert rep["moment"] == {"ell": 4, "value": 1.0}


def test_kloosterman_classical_value():
    rep = _json_out(["kloosterman", "classical", "--m", "1", "--n", "1", "--c", "3"])
    assert abs(rep["value_re"] - (-1.0)) < 1e-9
    assert abs(rep["value_im"]) < 1e-12


def test_usage_error_exit_code_2():
    code, _ = run_command(["--bogus"])
    assert code == 2
    code, _ = run_command(["measure"])  # missing tag
    assert code == 2
    # test-dist flags that changed no output are gone
    for extra in (["--D", "5"], ["--xi", "1"], ["--box", "0.3,2;0.5,3"]):
        assert run_command(["test-dist", "--synthetic", "-n", "50", *extra])[0] == 2, extra


def test_domain_error_exit_code_1_with_stable_code():
    code, out = run_command(
        ["hecke", "descent", "--field", "10", "--p", "3", "--ell", "1"]
    )
    assert code == 1
    err = json.loads(out.decode())
    assert err["error"]["code"] == "NotNarrowSquare"


def test_end_to_end_determinism():
    argv = ["test-dist", "--synthetic", "--seed", "7", "-n", "4000",
            "--interval", "-1,1"]
    out1 = run_command(argv)
    out2 = run_command(argv)
    assert out1 == out2
    assert out1[0] == 0
    rep = json.loads(out1[1].decode())
    assert rep["meta"]["seed"] == 7
    assert "ks" in rep and "moments" in rep


def test_field_subcommand():
    rep = _json_out(["field", "--D", "10"])
    assert rep["h"] == 2 and rep["h_plus"] == 2
    rep = _json_out(["field", "--D", "rational"])
    assert rep["h"] == 1


def test_field_with_a_unit_past_float_range():
    # eps0 of Q(sqrt 67846) has 313-digit coordinates; no float compares them
    rep = _json_out(["field", "--D", "67846"])
    assert rep["fundamental_unit_norm"] == 1
    assert len(rep["fundamental_unit"]["y"]) > 308


def test_ideal_subcommand():
    rep = _json_out(["ideal", "--D", "10", "--op", "factor", "--p", "3"])
    assert rep["type"] == "split"
    rep = _json_out(
        ["ideal", "--D", "rational", "--op", "product", "--gens", "2", "--rhs", "3"]
    )
    assert rep["product"] == {"den": 1, "basis": [[6, 0], [0, 0]]}
    rep = _json_out(
        ["ideal", "--D", "10", "--op", "membership", "--gens", "3;1,1", "--elem", "1,1"]
    )
    assert rep["member"] is True
    rep = _json_out(["ideal", "--D", "10", "--op", "norm", "--gens", "3;1,1"])
    assert rep["norm"] == "3"
    rep = _json_out(["ideal", "--D", "10", "--op", "inverse", "--gens", "3;1,1"])
    assert rep["inverse"] == {"den": 3, "basis": [[3, 0], [2, 1]]}
    rep = _json_out(["ideal", "--D", "10", "--op", "sum", "--gens", "3", "--rhs", "1,1"])
    assert rep["sum"] == {"den": 1, "basis": [[3, 0], [1, 1]]}


def test_sample_deterministic_per_seed():
    a = _json_out(["sample", "sato-tate", "-n", "5", "--seed", "3"])
    b = _json_out(["sample", "sato-tate", "-n", "5", "--seed", "3"])
    c = _json_out(["sample", "sato-tate", "-n", "5", "--seed", "4"])
    assert a["samples"] == b["samples"] != c["samples"]
    assert all(-2 <= x <= 2 for x in a["samples"])


def test_hecke_subcommands():
    rep = _json_out(["hecke", "power", "--lambda", "2", "--ell", "3"])
    assert rep["value"] == 4.0
    rep = _json_out(["hecke", "cosets", "--D", "rational", "--p", "3", "--ell", "2"])
    assert rep["count"] == 13
    rep = _json_out(["hecke", "relation", "--lambda", "3/2", "--p", "3", "--ell", "2",
                     "--r", "9"])
    assert rep["holds"] is True
    rep = _json_out(["hecke", "delta", "--D", "rational", "--r", "1", "--rp", "2"])
    assert rep["delta_tilde"] == 0


def test_bound_subcommand():
    rep = _json_out(["bound", "euler", "--tau", "0.3", "--eps", "0.01",
                     "--gamma", "0.35", "--D", "rational", "--X", "1000"])
    assert abs(rep["euler_exponent"] - (-1.084)) < 1e-12
    assert rep["truncated_product"] > 1.0
    code, out = run_command(["bound", "euler", "--tau", "0.26", "--eps", "0.5",
                             "--gamma", "0.3", "--D", "rational", "--X", "100"])
    assert code == 1
    assert json.loads(out.decode())["error"]["code"] == "DivergentExponent"


def test_fetch_fixture_mode():
    rep = _json_out(["fetch", "--mode", "fixture", "--level-min", "1",
                     "--level-max", "1", "--weight-min", "12", "--weight-max", "12",
                     "--prime", "2"])
    assert rep["count"] == 1
    assert abs(rep["rows"][0]["lambda"] - (-24 / 2**5.5)) < 1e-9
    assert rep["requests"] == 0


_GOOD_LINE = ('{"ap":{"2":-2},"degree":1,"field":"rational","label":"11.2.a.a",'
              '"level_norm":11,"weight":2}')


@pytest.mark.parametrize("bad_line, named", [
    ('{"ap": {"2": -2}, "degree": 1,', "file"),  # not JSON
    ('[1, 2, 3]', "file"),  # a JSON list
    (_GOOD_LINE.replace('"degree":1', '"degree":"one"'), "file"),  # no integer degree
    # a prime of norm 0 is found when the record is parsed, so the label is named
    (_GOOD_LINE.replace('{"2":-2}', '{"2":{"ap":1,"norm":0}}'), "record"),
], ids=["not-json", "json-list", "degree-not-int", "norm-zero"])
def test_fetch_malformed_fixture_line_is_a_schema_error(tmp_path, bad_line, named):
    path = tmp_path / "forms.jsonl"
    path.write_text(_GOOD_LINE + "\n" + bad_line + "\n")
    code, out = run_command(["fetch", "--fixture-dir", str(tmp_path), "--level-max", "20",
                             "--prime", "2"])
    assert code == 1
    err = json.loads(out.decode())["error"]
    assert err["code"] == "SchemaError"
    assert (str(path) if named == "file" else "record 11.2.a.a") in err["message"]


def test_fetch_unreadable_fixture_file_is_an_invalid_parameter(tmp_path):
    (tmp_path / "forms.jsonl").mkdir()
    code, out = run_command(["fetch", "--fixture-dir", str(tmp_path)])
    assert code == 1
    assert json.loads(out.decode())["error"]["code"] == "InvalidParameter"


def test_fetch_corrupt_cache_file_is_a_schema_error(tmp_path, monkeypatch):
    monkeypatch.setenv(datasource.CACHE_ENV_VAR, str(tmp_path))
    query = datasource.Query(degree=1, level_min=1, level_max=1, weight_min=2, weight_max=26)
    path = tmp_path / (query.key() + ".jsonl")
    path.write_text(_GOOD_LINE + "\n" + '{"label": "truncated", "ap"\n')
    code, out = run_command(["fetch", "--mode", "cache_only"])
    assert code == 1
    err = json.loads(out.decode())["error"]
    assert err["code"] == "SchemaError"
    assert str(path) in err["message"]


# sha256 of the stdout of kloosterman commands, recorded from the exact
# Fraction implementation of the sums; the integer engine reproduces every
# float bit for bit, so the bytes must not move
KLOOSTERMAN_STDOUT_SHA256 = [
    (["kloosterman", "classical", "--m", "1", "--n", "1", "--c", "3"],
     "3d6491c97798ba2d77c9af660d0295e4b0150eedb869778d4a7c3d0dac61236d"),
    (["kloosterman", "classical", "--m", "3", "--n", "7", "--c", "360"],
     "1e153b5513cf9671e8266411e3d4b99d7a1147e4339e832a8f7ff8aabbb95df4"),
    (["kloosterman", "twisted", "--D", "5", "--c-elem=7,3", "--r", "2", "--rp", "3"],
     "aef25e39a338621ee96ff6a98ccdb6878d3571ab6adbaae3ce149954d9529a3a"),
    (["kloosterman", "twisted", "--D", "2", "--c-elem=5,2", "--r", "1", "--rp", "4"],
     "1071ecf64b91e4d13aecf7219ae188d01f52dbcc98fcaf03a7d66cb934695183"),
    (["kloosterman", "twisted", "--D", "10", "--c-elem=6,1", "--r", "3", "--rp", "1",
      "--eps", "0.1"],
     "5987aa14709f9fd1f935f2d2f5bcf095fc0e347a13c2ace8db1c1ef8e91f3053"),
    (["kloosterman", "sweep", "--D", "5", "--norm-max", "500"],
     "c3badde2d1fbc0c1cc949c52f98a720ca36439d1bba710a6088a399e7a1e6418"),
    (["--format", "csv", "kloosterman", "sweep", "--D", "rational", "--c-max", "300"],
     "d09d7294cbc6a0dd3da06d913de46872d73320881e3eacb66155f4a67a3b6a5c"),
    (["kloosterman", "sweep", "--D", "2", "--norm-max", "60", "--m", "2", "--n", "3"],
     "b93692432acbe9d15171bbbacb338abce0fc08450157c8a704607a756f5e50b3"),
]


def test_kloosterman_stdout_is_byte_identical(monkeypatch):
    # meta.config_hash reads these variables; the digests are for an unset environment
    monkeypatch.delenv(datasource.OFFLINE_ENV_VAR, raising=False)
    monkeypatch.delenv(datasource.CACHE_ENV_VAR, raising=False)
    for argv, digest in KLOOSTERMAN_STDOUT_SHA256:
        code, out = run_command(argv)
        assert code == 0, out.decode()
        assert hashlib.sha256(out).hexdigest() == digest, argv


# sha256 of the stdout of field, ideal, descent and Euler commands, recorded
# from the unit-power scan in Fraction arithmetic and the trial-dividing
# splitting test; the closed-form adjustment and the sieve-trusted splitting
# must reproduce the bytes
NUMBERFIELD_STDOUT_SHA256 = [
    (["field", "--D", "10"], "6cce982cf43b49098f32d79a2687c55753114d12ebdab9a7a9dfcc51b4e374e4"),
    (["field", "--D", "15"], "35826517c19d073a1b3205ac128758cbba2328d270c1c4ce3d591e30771244ef"),
    (["field", "--D", "21"], "cbbaf62d6a6dcf2db76da80778372d6ed4400458043486af881a4ecbd619b9df"),
    (["field", "--D", "26"], "ad3e6ecff1180768fa1c25587cfb3edaf86241dd3f9cae2979cd57d946ecea66"),
    (["ideal", "--D", "29", "--op", "factor"],
     "46565596413e8751ead3b660c8da652ca7189ff591f039d5fd4bac7164f195e8"),
    (["ideal", "--D", "29", "--op", "factor", "--p", "5"],
     "3dbb5f951e2cd5644d9641cd2792f06cb93759f96ae7018234b0d27e7e7a68d4"),
    (["hecke", "descent", "--field", "5", "--p", "2", "--ell", "2"],
     "50a4df7e45a62c17a9c0760efed2dc8b0f3a7a2aee72c6ef6a7250964c969e02"),
    (["hecke", "descent", "--field", "2", "--p", "7", "--ell", "2"],
     "b519086b5f4c4dc4f8abe80e87543dafb732aee257e53dbe1f29233c6bbaad41"),
    (["hecke", "descent", "--field", "13", "--p", "3", "--ell", "2"],
     "dee9128a09131273830f028a17c0ef9b2761f6aa18167891b9f9b7baba8c04ff"),
    (["bound", "euler", "--tau", "0.3", "--eps", "0.01", "--gamma", "0.35", "--D", "23",
      "--X", "10000"],
     "5302a99c55e4c57f12c3e3dfb895fd3d53b1cf14d4eb480ae21cfe3a2366f140"),
]


def test_numberfield_stdout_is_byte_identical(monkeypatch):
    monkeypatch.delenv(datasource.OFFLINE_ENV_VAR, raising=False)
    monkeypatch.delenv(datasource.CACHE_ENV_VAR, raising=False)
    for argv, digest in NUMBERFIELD_STDOUT_SHA256:
        code, out = run_command(argv)
        assert code == 0, out.decode()
        assert hashlib.sha256(out).hexdigest() == digest, argv


# sha256 of the stdout of sample and test-dist commands, recorded from the
# (lambda, label) lexsort, the string-built labels, the sampler's searches
# in draw order from the cubic Hermite start, and moment sums taken by
# numpy's pairwise sum; the numeric-order versions must reproduce the bytes
STATS_STDOUT_SHA256 = [
    (["sample", "sato-tate", "-n", "1000", "--seed", "3"],
     "c0ffb262bb41c3b293c170b4bebddefa96b8d4bcd6b82c1a19dfc3ac848502d7"),
    (["--format", "plot-data", "sample", "sato-tate", "-n", "1000", "--seed", "3"],
     "590eaefa1343865f5932528fcd9bcc1cdfac6c7cfeb2c7ea8fa8009155a9b139"),
    (["test-dist", "--synthetic", "--seed", "7", "-n", "100000", "--interval", "-1,1"],
     "3b4322017c7519088d96fc94fe0a28874f0bc68a73942ad0e621569478881432"),
    (["--format", "plot-data", "test-dist", "--synthetic", "--seed", "7", "-n", "5000",
      "--interval", "-1,1", "--plot"],
     "3bdf38aa3945bb826bd1899d0e2a1ce4bf89e75d5c1579e99bdc85e951f3d888"),
    (["test-dist", "--synthetic", "--ord", "2", "--seed", "11", "-n", "20000",
      "--interval", "-0.5,1.5", "--plot"],
     "d52ad11e503f3d051dac752f516e37f13d9bf56585391bef1688a39b29dfc95f"),
]


def test_stats_stdout_is_byte_identical(monkeypatch):
    monkeypatch.delenv(datasource.OFFLINE_ENV_VAR, raising=False)
    monkeypatch.delenv(datasource.CACHE_ENV_VAR, raising=False)
    for argv, digest in STATS_STDOUT_SHA256:
        code, out = run_command(argv)
        assert code == 0, out.decode()
        assert hashlib.sha256(out).hexdigest() == digest, argv


def test_test_dist_stdout_does_not_depend_on_the_blas_threads(monkeypatch):
    # OpenBLAS splits a dot product by its thread count, so moment sums taken
    # by np.dot printed other bytes under one BLAS thread than under two
    monkeypatch.delenv(datasource.OFFLINE_ENV_VAR, raising=False)
    monkeypatch.delenv(datasource.CACHE_ENV_VAR, raising=False)
    argv, digest = STATS_STDOUT_SHA256[2]
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        proc = _run_python("-m", "heckedist.cli", *argv)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == digest


# a cutoff above bounds.SIEVE_CAP, which once ended in a MemoryError traceback
_X_ABOVE_SIEVE_CAP = ["bound", "euler", "--tau", "0.3", "--eps", "0.01", "--gamma", "0.35",
                      "--D", "5", "--X", "10000000000"]


@pytest.mark.parametrize("argv", [
    ["measure", "phi", "--ord", "-1"],
    ["sample", "sato-tate", "-n", "0"],
    ["bound", "euler", "--tau", "0.6", "--eps", "0.01", "--gamma", "0.35", "--D", "5"],
    ["test-dist", "--synthetic", "-n", "100", "--interval", "1"],
    ["test-dist", "--synthetic", "-n", "100", "--interval", "-3,1"],
    ["hecke", "power", "--lambda", "1", "--ell", "-1"],
    ["bound", "kloosterman", "--places", "X:1:1"],
    ["field", "--D", "abc"],
    ["ideal", "--D", "5", "--op", "norm", "--gens", "1/0"],
    # Q(sqrt 5) has one prime above 11 with index 1, none with index 2
    ["hecke", "cosets", "--D", "5", "--p", "11", "--ell", "1", "--prime-index", "2"],
    # non-finite float parameters
    ["kloosterman", "classical", "--c", "3", "--eps", "nan"],
    ["kloosterman", "twisted", "--D", "5", "--c-elem", "3", "--eps", "inf"],
    ["kloosterman", "sweep", "--D", "5", "--norm-max", "5", "--eps", "nan"],
    ["measure", "phi", "--density-at", "nan"],
    ["measure", "tilde-v1", "--A", "nan", "--interval", "0,3"],
    ["measure", "tilde-v1", "--A", "inf", "--interval", "0,3"],
    ["bound", "envelope", "--tau", "0.3", "--eps", "0.01", "--gamma", "0.35", "--D",
     "rational", "--c-elem", "3", "--gamma-scalar", "nan"],
    ["bound", "kloosterman", "--tau", "0.3", "--eps", "inf", "--gamma", "0.35"],
    ["bound", "kloosterman", "--tau", "0.3", "--eps", "0.01", "--gamma", "0.35", "--U", "inf"],
    ["bound", "kloosterman", "--tau", "0.3", "--eps", "0.01", "--gamma", "0.35", "--A1", "inf"],
    ["bound", "kloosterman", "--places", "Q+:inf:1"],
    _X_ABOVE_SIEVE_CAP,
])
def test_out_of_domain_input_exits_1_with_error_code(argv):
    code, out = run_command(argv)
    assert code == 1
    want = "EnumerationTooLarge" if argv is _X_ABOVE_SIEVE_CAP else "InvalidParameter"
    assert json.loads(out.decode())["error"]["code"] == want


def test_test_dist_reads_the_interval_before_building_a_dataset(monkeypatch):
    def no_dataset(*args, **kw):
        raise AssertionError("a dataset was built or fetched for a malformed interval")

    monkeypatch.setattr(equidist, "synthesize_dataset", no_dataset)
    monkeypatch.setattr(datasource.DataClient, "fetch_records", no_dataset)
    for argv in (["test-dist", "--synthetic", "-n", "3000000", "--interval", "1"],
                 ["test-dist", "--degree", "1", "--mode", "fixture", "--interval", "1"]):
        code, out = run_command(argv)
        assert code == 1
        assert json.loads(out.decode())["error"] == {
            "code": "InvalidParameter", "message": "interval must be \"lo,hi\", got '1'"}
    # well-formed but out of range, and reversed
    for interval, message in (("-3,1", "interval must lie inside [-2, 2]"),
                              ("1,-1", "interval must have lo < hi, got [1.0, -1.0]")):
        for argv in (["test-dist", "--synthetic", "-n", "3000000", f"--interval={interval}"],
                     ["test-dist", "--degree", "1", "--mode", "fixture",
                      f"--interval={interval}"]):
            code, out = run_command(argv)
            assert code == 1
            assert json.loads(out.decode())["error"] == {
                "code": "InvalidParameter", "message": message}


def _no_json_constant(name):
    raise AssertionError(f"{name} is not JSON")


def _strict_json(out):
    return json.loads(out.decode(), parse_constant=_no_json_constant)


def test_test_dist_prints_null_for_undefined_z_and_ratio():
    # one point has a zero standard error, so every z off its expected moment
    # is undefined, and so is max_abs_z
    code, out = run_command(["test-dist", "--synthetic", "-n", "1"])
    rep = _strict_json(out)
    assert code == 0 and rep["moments"][0]["z"] == 0.0
    assert None in [m["z"] for m in rep["moments"]]
    assert rep["max_abs_z"] is None and rep["pass"] is False
    # an interval of zero predicted mass has no ratio
    code, out = run_command(["test-dist", "--synthetic", "-n", "100", "--interval=0,5e-324"])
    rep = _strict_json(out)
    assert code == 0 and rep["predicted"] == 0.0 and rep["ratio"] is None
    assert rep["max_abs_z"] is not None


def test_memory_error_exits_1_with_error_code(monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(bounds, "euler_product_tail", exhausted)
    code, out = run_command(_X_ABOVE_SIEVE_CAP)
    assert code == 1
    assert json.loads(out.decode())["error"] == {
        "code": "EnumerationTooLarge", "message": "out of memory: Unable to allocate 74.5 GiB"}


def test_cached_parser_keeps_no_flag_between_commands(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    first = run_command(["hecke", "power", "--lambda", "3/2", "--ell", "4"])
    second = run_command(["hecke", "power", "--lambda", "3/2"])
    assert first[0] == second[0] == 0 and first != second
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run_command(["hecke", "power", "--lambda", "3/2"]) == second


def test_csv_format_sweep():
    code, out = run_command(["--format", "csv", "kloosterman", "sweep",
                             "--D", "rational", "--c-max", "10"])
    assert code == 0
    lines = out.decode().strip().splitlines()
    assert lines[0] == "c,c_norm,ks_abs,weil_rhs,ratio"
    assert len(lines) == 11


def test_sweep_bound_flags_are_one_bound():
    # --c-max and --norm-max spell one bound over every field; Q(sqrt5) has
    # one modulus of norm <= 3
    for D, n_rows in (("5", 1), ("rational", 3)):
        rows = [_json_out(["kloosterman", "sweep", "--D", D, flag, "3"])["rows"]
                for flag in ("--c-max", "--norm-max")]
        assert rows[0] == rows[1] and len(rows[0]) == n_rows


def test_plot_data_format():
    code, out = run_command(["--format", "plot-data", "test-dist", "--synthetic",
                             "--seed", "1", "-n", "50", "--interval", "-1,1",
                             "--plot"])
    assert code == 0
    lines = out.decode().strip().splitlines()
    assert lines[0] == "x,empirical_cdf,target_cdf"
    assert len(lines) == 51


def test_emit_report_json_roundtrip_and_unsupported():
    report = {"a": 1.5, "b": [1, 2]}
    data = emit_report(report, "json")
    assert json.loads(data.decode()) == report
    assert emit_report(report, "json") == data
    with pytest.raises(UnsupportedFormat):
        emit_report(report, "xml")
    with pytest.raises(UnsupportedFormat):
        emit_report({"no_rows": 1}, "csv")


def test_test_dist_fixture_mode():
    rep = _json_out(["test-dist", "--degree", "1", "--level-min", "1",
                     "--level-max", "100", "--weight-min", "2",
                     "--weight-max", "26", "--prime", "2",
                     "--interval", "-1,1", "--mode", "fixture"])
    assert rep["n"] == 7  # the bundled classical corpus at p = 2
    assert 0.0 <= rep["ks"] <= 1.0
    assert rep["total_weight"] == 7.0


@pytest.mark.parametrize("command", ["fetch", "test-dist"])
def test_offline_config_key_keeps_network_mode_off_the_wire(tmp_path, monkeypatch, command):
    def no_request(self, url, params):
        pytest.fail(f"{command} --mode network sent a request with offline=1 in its config")

    monkeypatch.setattr(datasource.DataClient, "_http_get", no_request)
    monkeypatch.delenv(datasource.OFFLINE_ENV_VAR, raising=False)
    monkeypatch.setenv(datasource.CACHE_ENV_VAR, str(tmp_path))
    cfg = tmp_path / "off.cfg"
    cfg.write_text("offline=1\n")
    code, out = run_command(["--config", str(cfg), command, "--mode", "network"])
    assert code == 1
    assert json.loads(out.decode())["error"]["code"] == "CacheMiss"


def test_readme_cli_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("heckedist ")]
    assert len(commands) >= 15
    for argv in commands:
        code, out = run_command(argv)
        assert code == 0, argv
        fmt = argv[1] if argv[0] == "--format" else "json"
        assert _output_parses(fmt, out.decode()), argv


def test_config_file_changes_hash(tmp_path):
    cfg = tmp_path / "conf.ini"
    cfg.write_text("unit_window=12\n")
    rep1 = _json_out(["field", "--D", "5"])
    rep2 = _json_out(["--config", str(cfg), "field", "--D", "5"])
    assert rep1["meta"]["config_hash"] != rep2["meta"]["config_hash"]


def _run_python(*args, **kwargs):
    """A fresh interpreter that imports the package from this source tree."""
    src = str(Path(heckedist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120,
                          **kwargs)


def test_cli_import_loads_no_scipy():
    # importing scipy.interpolate alone cost about 0.6 s of every CLI start-up
    code = "import sys, heckedist.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = _run_python("-c", code, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_fft():
    # only classical_weil_table reaches np.fft, and numpy loads it on first use
    code = "import sys, heckedist.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.fft')))"
    proc = _run_python("-c", code, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_ARRAY_MODULES = ["heckedist.numberfield", "heckedist.kloosterman", "heckedist.bounds",
                  "heckedist.heckealg", "heckedist.equidist"]
_STATS_MODULES = ["numpy", "heckedist.measures", "heckedist.equidist"]
# the samplers start plain threads; a pool would import logging at every start
_THREAD_POOLS = ["concurrent.futures", "logging"]


# one case for each row of the README table of what each command loads
@pytest.mark.parametrize("argv, absent", [
    (["field", "--D", "26"], ["numpy"]),
    (["ideal", "--D", "29", "--op", "factor", "--p", "5"], ["numpy"]),
    (["hecke", "descent", "--D", "5", "--p", "11", "--ell", "2"], ["numpy"]),
    (["hecke", "power", "--lambda", "1/2", "--ell", "3"], _STATS_MODULES),
    (["hecke", "relation", "--lambda", "1/2", "--p", "2", "--ell", "2", "--r", "12"],
     _STATS_MODULES),
    (["measure", "phi", "--ord", "2", "--interval=-1,1"], _ARRAY_MODULES + _THREAD_POOLS),
    (["sample", "sato-tate", "-n", "5"], _ARRAY_MODULES + _THREAD_POOLS),
    (["kloosterman", "classical", "--c", "7"], _STATS_MODULES),
    (["kloosterman", "sweep", "--D", "5", "--c-max", "20"], _STATS_MODULES),
    # 6 + 6w is not primitive, so O/(c) is not cyclic: the general path
    (["kloosterman", "twisted", "--D", "2", "--c-elem=6,6"], _STATS_MODULES),
    (["bound", "euler", "--D", "5", "--X", "1000"],
     ["heckedist.measures", "heckedist.equidist", "heckedist.kloosterman", "heckedist.heckealg"]),
    (["fetch"], _STATS_MODULES + _ARRAY_MODULES + ["heckedist.quadforms"]),
    (["fetch", "--prime", "2"], _STATS_MODULES + _ARRAY_MODULES + ["heckedist.quadforms"]),
    (["test-dist", "--synthetic", "-n", "50"],
     ["heckedist.kloosterman", "heckedist.bounds", "heckedist.heckealg"] + _THREAD_POOLS),
], ids=["field", "ideal-factor", "hecke-descent", "hecke-power", "hecke-relation", "measure",
        "sample", "kloosterman-classical", "kloosterman-sweep", "kloosterman-twisted", "bound",
        "fetch", "fetch-prime", "test-dist"])
def test_each_command_imports_only_what_it_runs(argv, absent):
    code = ("import json, sys; from heckedist.cli import run_command; "
            f"code, _ = run_command({argv!r}); print(json.dumps([code, sorted(sys.modules)]))")
    proc = _run_python("-c", code, text=True)
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded = json.loads(proc.stdout)
    assert exit_code == 0
    assert sorted(set(absent) & set(loaded)) == []


@pytest.mark.parametrize("argv, code", [
    (["measure", "v1", "--xi", "0", "--interval=-1e308,1e308"], 0),
    (["measure", "tilde-pl", "--xi", "0", "--interval=-1e9,1e9"], 0),
    (["measure", "tilde-v1", "--xi", "0", "--interval=0,1e9"], 1),
])
def test_wide_measure_intervals_finish(argv, code):
    # each of these once walked its atoms one by one, for minutes to hours
    proc = _run_python("-m", "heckedist.cli", *argv)
    assert proc.returncode == code, proc.stderr.decode()
    rep = json.loads(proc.stdout.decode())
    if argv[1] == "tilde-pl":
        assert rep["mass"] == 1e18
    if code == 1:
        assert rep["error"]["code"] == "EnumerationTooLarge"


@pytest.mark.parametrize("argv", [
    ["ideal", "--D", "5", "--op", "factor", "--p", "10000001400000049"],
    ["hecke", "cosets", "--D", "5", "--p", "10000001400000049", "--ell", "0"],
])
def test_a_square_of_a_large_prime_is_refused_as_not_prime(argv):
    # 100000007^2: trial division once took about 10 s to find its factor
    proc = _run_python("-m", "heckedist.cli", *argv)
    assert proc.returncode == 1, proc.stderr.decode()
    assert json.loads(proc.stdout.decode())["error"]["code"] == "NotPrime"


def test_measure_mass_past_float_range_is_an_error_not_infinity():
    # the atom sum of tilde_pl over this interval is past float range
    code, out = run_command(["measure", "tilde-pl", "--xi", "0", "--interval=-1e200,1e200"])
    assert code == 1
    assert _strict_json(out)["error"]["code"] == "InvalidParameter"


def test_empty_tilde_interval_mass_prints_as_a_float():
    code, out = run_command(["measure", "tilde-pl", "--xi", "0", "--interval", "3.6,3.9"])
    assert code == 0 and b'"mass":0.0,' in out


# --- argv fuzz: the README contract for any subcommand, flags and values -----

_JUNK = ["", "abc", "1/0", "1,2", "-2,2", "1,2;3,4", ",", ";", "nan", "inf", "-inf", "1e300",
         "0.5", "-1", "x:y", "Q+:1:1", "2,1", "a,b"]
_SMALL = st.integers(-2, 8).map(str)
_ANY = st.one_of(_SMALL, st.sampled_from(_JUNK))
# measure intervals also span the wide ranges whose atoms once took minutes to walk
_INTERVAL = st.one_of(_ANY, st.sampled_from(["-1e308,1e308", "-1e9,1e9", "0,1e9"]))
_FIELD = st.sampled_from(["rational", "q", "2", "5", "10", "13", "0", "1", "4", "-5", "abc"])
_FLAG = None  # a flag without a value


def _choice(*values):
    return st.sampled_from(values + ("junk",))


# subcommand -> (positional strategies, {flag: value strategy or _FLAG}); the
# sizes (-n, --c-max, --norm-max, --X, --ell) stay small so each run is quick
_ARGV = {
    "field": ([], {"--D": _FIELD}),
    "ideal": ([], {"--D": _FIELD, "--op": _choice("product", "inverse", "norm", "sum",
                                                   "membership", "factor"),
                   "--gens": _ANY, "--rhs": _ANY, "--elem": _ANY, "--p": _SMALL}),
    "kloosterman": ([_choice("classical", "twisted", "sweep")],
                    {"--m": _SMALL, "--n": _SMALL, "--c": _SMALL, "--D": _FIELD, "--r": _ANY,
                     "--rp": _ANY, "--c-elem": _ANY, "--eps": _ANY, "--c-max": _SMALL,
                     "--norm-max": _SMALL}),
    "measure": ([_choice("sato-tate", "padic", "phi", "plancherel", "v1", "tilde-pl",
                         "tilde-v1")],
                {"--p": _SMALL, "--ord": _SMALL, "--xi": _SMALL, "--A": _ANY,
                 "--literal-middle": _FLAG, "--interval": _INTERVAL, "--density-at": _ANY,
                 "--moment": _SMALL}),
    "sample": ([_choice("sato-tate", "padic", "phi", "plancherel", "v1")],
               {"--p": _SMALL, "--ord": _SMALL, "--xi": _SMALL, "--A": _ANY, "-n": _ANY,
                "--seed": _SMALL}),
    "hecke": ([_choice("power", "cosets", "descent", "delta", "relation")],
              {"--lambda": _ANY, "--ell": st.integers(-1, 3).map(str), "--D": _FIELD,
               "--field": _FIELD, "--p": _SMALL, "--prime-index": _SMALL, "--r": _ANY,
               "--rp": _ANY}),
    "bound": ([_choice("kloosterman", "euler", "envelope")],
              {"--tau": _ANY, "--eps": _ANY, "--gamma": _ANY, "--U": _ANY, "--A1": _ANY,
               "--places": _ANY, "--D": _FIELD, "--X": st.integers(-5, 300).map(str),
               "--r": _ANY, "--rp": _ANY, "--c-elem": _ANY, "--gamma-scalar": _ANY}),
    "fetch": ([], {"--mode": _choice("fixture", "cache_only", "network"), "--offline": _FLAG,
                   "--fixture-dir": st.sampled_from(["", "no-such-dir"]), "--degree": _SMALL,
                   "--level-min": _SMALL, "--level-max": st.sampled_from(["1", "11", "100", "x"]),
                   "--weight-min": _SMALL, "--weight-max": _SMALL, "--prime": _ANY}),
    "test-dist": ([], {"--synthetic": _FLAG, "--prime": _ANY, "--ord": _SMALL,
                       "-n": st.integers(-2, 300).map(str), "--seed": _SMALL,
                       "--interval": _ANY, "--ell-max": _SMALL, "--ks-threshold": _ANY,
                       "--plot": _FLAG,
                       "--mode": _choice("fixture", "cache_only", "network"),
                       "--level-max": st.sampled_from(["1", "11", "100"])}),
}
_PREFIXES = [[], ["--format", "csv"], ["--format", "plot-data"], ["--format", "xml"],
             ["--config", "no-such-config.ini"], ["--config", os.path.dirname(__file__)]]


def _output_parses(fmt: str, text: str) -> bool:
    if fmt == "json":
        return isinstance(json.loads(text, parse_constant=_no_json_constant), dict)
    lines = text.rstrip("\n").split("\n")
    if fmt == "csv" or lines[0] == "x,empirical_cdf,target_cdf":
        return all(line.count(",") == lines[0].count(",") for line in lines)
    return all(float(line) == float(line) for line in lines)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_argv_fuzz_keeps_the_cli_contract(data):
    sub = data.draw(st.sampled_from(sorted(_ARGV)))
    positional, flags = _ARGV[sub]
    argv = [*data.draw(st.sampled_from(_PREFIXES)), sub, *(data.draw(p) for p in positional)]
    for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=5)):
        argv += [flag] if flags[flag] is _FLAG else [flag, data.draw(flags[flag])]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code, out = run_command(argv)  # an exception escaping here is a traceback
    assert code in (0, 1, 2), argv
    assert "Traceback" not in stderr.getvalue(), argv
    if code == 0:
        fmt = argv[1] if argv[0] == "--format" else "json"
        assert _output_parses(fmt, out.decode()), argv
    elif code == 1:
        assert isinstance(json.loads(out.decode())["error"]["code"], str), argv


@pytest.mark.parametrize("argv, code, expect", [
    (["ideal", "--D", "5", "--op", "product", "--gens", "0"], 1, "ZeroIdeal"),
    (["measure", "phi", "--interval", "1,0"], 0, 0.0),
    (["measure", "plancherel", "--xi", "0", "--interval", "1,0"], 0, 0.0),
    (["test-dist", "--level-min", "2", "--level-max", "2"], 1, "EmptyDataset"),
])
def test_degenerate_input_keeps_the_cli_contract(argv, code, expect):
    # no zero ideal and no empty dataset is ever built; an empty interval has mass 0
    got, out = run_command(argv)
    rep = json.loads(out.decode())
    assert got == code
    assert (rep["error"]["code"] if code else rep["mass"]) == expect
