import csv
import json
import math
import os
import re

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

from orthoselect import cli
from orthoselect import harness as hn
from orthoselect.cli import main, records_to_csv, report_to_json
from orthoselect.harness import REPORT_SCHEMA
from orthoselect.matrixio import load_config_file, load_matrix, save_matrix
from orthoselect.errors import DomainError, FormatError
from orthoselect import ColumnMatrix, RngStream, sample_sphere_matrix


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env, catch_exceptions=False)


def write_matrix(tmp_path, n=4, p=12, seed=7, name="m.csv"):
    path = tmp_path / name
    save_matrix(path, sample_sphere_matrix(n, p, RngStream(seed, 0)), {"n": n, "p": p, "seed": seed})
    return path


def test_import_and_the_pipeline_commands_load_neither_harness_nor_analytic(fresh_python, tmp_path):
    m = str(tmp_path / "m.csv")
    seen = fresh_python(f"""
import json, sys
from orthoselect import cli
def loaded():
    return [name for name in ("orthoselect.harness", "orthoselect.analytic") if name in sys.modules]
seen = [loaded()]
for args in (["gen", "--n", "4", "--p", "12", "--seed", "1", "--out", {m!r}],
             ["select", "--matrix", {m!r}, "--v-random", "--kappa", "3", "--oracle",
              "--out", {m + ".select"!r}],
             ["gamma", "--matrix", {m!r}, "--kappa", "3", "--net-eps", "0.5", "--probes", "20",
              "--out", {m + ".gamma"!r}],
             ["experiment", "--help"], ["experiment", "theorem", "--help"],
             ["constants", "--out", {m + ".constants"!r}]):
    cli.main(args, standalone_mode=False)
    seen.append(loaded())
print(json.dumps(seen))
""")
    # `constants` shows that the probe sees a loaded module; the help pages
    # print before the probe's line
    assert json.loads(seen.splitlines()[-1]) == [[], [], [], [], [], [], ["orthoselect.analytic"]]


def test_import_every_help_page_and_a_usage_error_load_no_numpy(fresh_python, tmp_path):
    m = str(tmp_path / "m.csv")
    seen = fresh_python(f"""
import json, sys
import click
from orthoselect import cli
seen = ["numpy" in sys.modules]
for args in ([], ["gen"], ["select"], ["gamma"], ["constants"], ["experiment"],
             *(["experiment", name] for name in cli._EXPERIMENTS)):
    cli.main([*args, "--help"], standalone_mode=False)
    seen.append("numpy" in sys.modules)
try:
    cli.main(["gamma", "--s", "abc"], standalone_mode=False)
except click.UsageError:
    seen.append("numpy" in sys.modules)
cli.main(["gen", "--n", "4", "--p", "12", "--out", {m!r}], standalone_mode=False)
seen.append("numpy" in sys.modules)
print(json.dumps(seen))
""")
    # the import, 12 help pages and the usage error, then `gen`
    assert json.loads(seen.splitlines()[-1]) == [False] * 14 + [True]


def test_package_exports_resolve_to_their_submodules_objects():
    import importlib
    import sys

    import orthoselect

    for name in orthoselect.__all__:
        value = getattr(orthoselect, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert value.__module__.startswith("orthoselect.")
    assert set(orthoselect.__all__) <= set(dir(orthoselect))
    namespace = {}
    exec("from orthoselect import *", namespace)
    assert set(orthoselect.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(orthoselect, name) for name in orthoselect.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        orthoselect.no_such_name
    with pytest.raises(ImportError):
        exec("from orthoselect import no_such_name", {})
    assert importlib.import_module("orthoselect.harness") is orthoselect.harness


def test_package_export_reads_the_submodule_each_time(monkeypatch):
    import orthoselect
    from orthoselect import selection

    original = selection.attained_values
    monkeypatch.setattr(selection, "attained_values", lambda *a, **k: "patched")
    assert orthoselect.attained_values is selection.attained_values
    assert orthoselect.attained_values() == "patched"
    monkeypatch.undo()
    assert orthoselect.attained_values is original


def test_commands_freeze_the_collector_once_per_process(fresh_python, tmp_path):
    m = str(tmp_path / "m.csv")
    calls = fresh_python(f"""
import gc, json
calls = []
freeze = gc.freeze
gc.freeze = lambda: (calls.append(gc.get_freeze_count()), freeze())
from orthoselect import cli
seen = [len(calls)]
for args in (["gen", "--n", "4", "--p", "12", "--out", {m!r}], ["gen", "--n", "4", "--p", "12"],
             ["constants"], ["gen", "--help"]):
    cli.main(args, standalone_mode=False)
    seen.append(len(calls))
print(json.dumps([seen, calls]))
""")
    # one freeze, by the first command, of a process that had frozen nothing
    assert json.loads(calls.splitlines()[-1]) == [[0, 1, 1, 1, 1], [0]]


# --- gen ----------------------------------------------------------------------

def test_gen_deterministic_and_round_trip(runner, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = invoke(runner, ["gen", "--n", "4", "--p", "10", "--seed", "7", "--out", str(out1)])
    r2 = invoke(runner, ["gen", "--n", "4", "--p", "10", "--seed", "7", "--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    matrix, meta = load_matrix(out1)
    assert meta == {"n": "4", "p": "10", "seed": "7"}
    norms = np.linalg.norm(matrix.data, axis=0)
    assert float(np.max(np.abs(norms - 1.0))) <= 1e-12
    header = out1.read_text().splitlines()[0]
    assert header == "# n=4 p=10 seed=7"


def test_gen_usage_error_exit_code(runner):
    result = runner.invoke(main, ["gen", "--n", "0", "--p", "5"])
    assert result.exit_code == 2


# Each case runs in a fresh interpreter whose address space is capped at
# 8 GiB, so a size that slipped past the refusal fails there, not the host.
@pytest.mark.parametrize("args, flags", [
    (["gen", "--n", "4", "--p", "9" * 400], "--n 4 --p " + "9" * 400),
    (["experiment", "order-stat", "--p", "9" * 400], "--n 3 --p " + "9" * 400),
    (["gen", "--n", "4", "--p", "100000000000"], "--n 4 --p 100000000000"),
], ids=["gen-past-index-range", "order-stat-past-index-range", "gen-out-of-memory"])
def test_sizes_that_cannot_be_allocated_are_usage_errors_naming_the_flag(fresh_python, tmp_path,
                                                                        args, flags):
    out = tmp_path / "out"
    result = fresh_python(f"""
import json, resource
import click
resource.setrlimit(resource.RLIMIT_AS, (8 << 30, 8 << 30))
from orthoselect import cli
try:
    cli.main({[*args, "--out", str(out)]!r}, standalone_mode=False)
except click.ClickException as exc:
    print(json.dumps([exc.exit_code, exc.format_message()]))
""")
    code, message = json.loads(result.splitlines()[-1])
    assert code == 2
    assert message.startswith(flags + ":")
    assert not list(tmp_path.iterdir())


def test_gen_writes_to_stdout_without_out(runner):
    result = invoke(runner, ["gen", "--n", "2", "--p", "3", "--seed", "1"])
    assert result.exit_code == 0
    assert result.output.startswith("# n=2 p=3 seed=1")


# --- select --------------------------------------------------------------------

def test_select_json_contract(runner, tmp_path):
    matrix_path = write_matrix(tmp_path)
    out = tmp_path / "sel.json"
    result = invoke(runner, [
        "select", "--matrix", str(matrix_path), "--v-random", "--s", "2",
        "--rho", "0.5", "--kappa", "3", "--seed", "5", "--oracle", "--out", str(out),
    ])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["outer"] == sorted(payload["outer"])
    assert payload["inner"] is None or payload["inner"] == sorted(payload["inner"])
    assert payload["config"]["seed"] == 5
    if payload["inner"] is not None:
        assert payload["oracle_inf"] <= payload["attained"] + 1e-12
        assert payload["sigma_min"] >= 0.5


def test_select_infeasible_still_succeeds(runner, tmp_path):
    col = np.zeros(4)
    col[0] = 1.0
    matrix = ColumnMatrix(np.column_stack([col, col, col, col]))
    path = tmp_path / "dup.csv"
    save_matrix(path, matrix, {"n": 4, "p": 4, "seed": 0})
    out = tmp_path / "sel.json"
    result = invoke(runner, [
        "select", "--matrix", str(path), "--v-random", "--s", "2",
        "--rho", "0.5", "--kappa", "1.9", "--max-attempts", "30",
        "--seed", "5", "--out", str(out),
    ])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["inner"] is None
    assert payload["sigma_min"] is None
    assert payload["attained"] is None
    assert payload["attempts"] == 30


# Columns 0 and 1 meet at g = 0.75000000000000033, just past 1 - rho^2 for
# rho = 0.5, yet eigvalsh gives their Gram sigma_min 0.5; the direction is
# orthogonal to both, and columns 2 and 3 lie far from it.
BAND_PAIR_MATRIX = """# n=3 p=4
-0.67465432134086467,-0.11357801913399533,-0.28877098651242228,0.28877098651242228
-0.064000534648435942,-0.47115387828412708,0.87597650583351927,-0.87597650583351927
0.73535398160397025,0.87470798358504998,0.38636314339794475,-0.38636314339794475
"""
BAND_PAIR_DIRECTION = "0.4391691698594343,0.7659154816637485,0.4695784441312903\n"


def test_select_oracle_decides_a_band_pair_as_the_pipeline(runner, tmp_path):
    matrix_path, v_path, out = tmp_path / "m.csv", tmp_path / "v.txt", tmp_path / "sel.json"
    matrix_path.write_text(BAND_PAIR_MATRIX)
    v_path.write_text(BAND_PAIR_DIRECTION)
    x = load_matrix(matrix_path)[0].data
    assert abs(float(x[:, 0] @ x[:, 1])) > 0.75
    result = invoke(runner, [
        "select", "--matrix", str(matrix_path), "--v-file", str(v_path), "--s", "2",
        "--rho", "0.5", "--kappa", "1", "--oracle", "--out", str(out),
    ])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["inner"] == [0, 1]
    assert payload["oracle_inf"] <= payload["attained"] < 1e-15


def test_select_v_file_and_format_errors(runner, tmp_path):
    matrix_path = write_matrix(tmp_path)
    good_v = tmp_path / "v.csv"
    good_v.write_text("1.0,0.0,0.0,0.0\n")
    result = invoke(runner, [
        "select", "--matrix", str(matrix_path), "--v-file", str(good_v),
        "--s", "2", "--kappa", "3", "--out", str(tmp_path / "s.json"),
    ])
    assert result.exit_code == 0
    bad_v = tmp_path / "bad.csv"
    bad_v.write_text("2.0,0.0,0.0,0.0\n")
    result = runner.invoke(main, [
        "select", "--matrix", str(matrix_path), "--v-file", str(bad_v), "--s", "2", "--kappa", "3",
    ])
    assert result.exit_code == 3
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("not,a,number\n")
    result = runner.invoke(main, [
        "select", "--matrix", str(garbled), "--v-random", "--s", "2", "--kappa", "3",
    ])
    assert result.exit_code == 3


def test_select_requires_direction_choice(runner, tmp_path):
    matrix_path = write_matrix(tmp_path)
    result = runner.invoke(main, ["select", "--matrix", str(matrix_path), "--s", "2"])
    assert result.exit_code == 2


def test_select_and_gamma_csv_format(runner, tmp_path):
    matrix_path = write_matrix(tmp_path)
    sel = invoke(runner, ["select", "--matrix", str(matrix_path), "--v-random",
                          "--s", "2", "--kappa", "3", "--format", "csv"])
    assert sel.output.startswith("key,value")
    assert any(line.startswith("attained,") for line in sel.output.splitlines())
    gam = invoke(runner, ["gamma", "--matrix", str(matrix_path), "--s", "2",
                          "--kappa", "3", "--net-eps", "0.5", "--probes", "10",
                          "--format", "csv"])
    assert any(line.startswith("certified_upper,") for line in gam.output.splitlines())


# --- gamma ---------------------------------------------------------------------

def test_gamma_output_and_lower_bound(runner, tmp_path):
    matrix_path = write_matrix(tmp_path, n=4, p=20, seed=9)
    out = tmp_path / "g.json"
    result = invoke(runner, [
        "gamma", "--matrix", str(matrix_path), "--s", "2", "--rho", "0.5",
        "--kappa", "3", "--net-eps", "0.5", "--probes", "50", "--seed", "3",
        "--out", str(out),
    ])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["heuristic_lower"] <= payload["certified_upper"] + 1e-9
    assert payload["net"]["size"] >= 1
    assert payload["feasibility_rate"] > 0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from procfs")
def test_gamma_probe_memory_does_not_grow_with_the_probe_count(fresh_python, tmp_path):
    # each child reports its own peak RSS; holding every probe at once costs
    # about 70 B per probe, so 9e5 more probes would add about 60 MiB
    m = str(tmp_path / "m.csv")
    peaks = []
    for probes in (100_000, 1_000_000):
        peaks.append(int(fresh_python(f"""
from orthoselect import cli
cli.main(["gen", "--n", "4", "--p", "40", "--seed", "1", "--out", {m!r}], standalone_mode=False)
cli.main(["gamma", "--matrix", {m!r}, "--probes", "{probes}", "--seed", "1",
          "--out", {m + ".gamma"!r}], standalone_mode=False)
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM")))
""")))
    assert peaks[1] - peaks[0] < 16 * 1024, peaks  # kB


def test_gamma_certificate_responds_to_net_radius(runner, tmp_path):
    matrix_path = write_matrix(tmp_path, n=4, p=40, seed=10)
    certs = {}
    for eps in ("0.5", "0.25"):
        out = tmp_path / f"g{eps}.json"
        result = invoke(runner, [
            "gamma", "--matrix", str(matrix_path), "--s", "2", "--rho", "0.5",
            "--kappa", "5", "--net-eps", eps, "--probes", "20", "--seed", "3",
            "--out", str(out),
        ])
        assert result.exit_code == 0
        certs[eps] = json.loads(out.read_text())["certified_upper"]
    assert certs["0.25"] <= certs["0.5"] + 0.25 + 1e-9


def test_gamma_degenerate_instance_exits_nonzero(runner, tmp_path):
    col = np.zeros(3)
    col[0] = 1.0
    path = tmp_path / "dup.csv"
    save_matrix(path, ColumnMatrix(np.column_stack([col] * 4)), {"n": 3, "p": 4, "seed": 0})
    out = tmp_path / "g.json"
    result = runner.invoke(main, [
        "gamma", "--matrix", str(path), "--s", "2", "--rho", "0.5", "--kappa", "1.9",
        "--net-eps", "0.5", "--probes", "10", "--seed", "1", "--out", str(out),
    ])
    assert result.exit_code == 4
    assert out.exists()  # artifact still written for inspection
    assert json.loads(out.read_text())["feasibility_rate"] == 0.0


def test_gamma_net_eps_domain(runner, tmp_path):
    matrix_path = write_matrix(tmp_path)
    result = runner.invoke(main, [
        "gamma", "--matrix", str(matrix_path), "--s", "2", "--net-eps", "1.5",
    ])
    assert result.exit_code == 2


def test_select_rejects_non_finite_direction_file(runner, tmp_path):
    matrix_path = write_matrix(tmp_path)
    nan_v = tmp_path / "nan.csv"
    nan_v.write_text("nan,1.0,0.0,0.0\n")
    result = runner.invoke(main, [
        "select", "--matrix", str(matrix_path), "--v-file", str(nan_v), "--s", "2", "--kappa", "3",
    ])
    assert result.exit_code == 3


def test_gamma_rejects_matrix_with_non_finite_entry(runner, tmp_path):
    matrix_path = write_matrix(tmp_path)
    lines = matrix_path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[0] = "nan"
    lines[1] = ",".join(cells)
    matrix_path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, [
        "gamma", "--matrix", str(matrix_path), "--s", "2", "--kappa", "3",
        "--net-eps", "0.5", "--probes", "10",
    ])
    assert result.exit_code == 3


@pytest.mark.parametrize("kappa", ["nan", "inf"])
def test_select_and_gamma_reject_non_finite_kappa(runner, tmp_path, kappa):
    matrix_path = write_matrix(tmp_path)
    sel = runner.invoke(main, [
        "select", "--matrix", str(matrix_path), "--v-random", "--s", "2", "--kappa", kappa,
    ])
    assert sel.exit_code == 2
    gam = runner.invoke(main, [
        "gamma", "--matrix", str(matrix_path), "--s", "2", "--kappa", kappa,
        "--net-eps", "0.5", "--probes", "10",
    ])
    assert gam.exit_code == 2


# --- constants -------------------------------------------------------------------

def test_constants_text_and_json_agree(runner):
    text = invoke(runner, ["constants", "--n", "100", "--p", "1000", "--s", "1"]).output
    js = json.loads(invoke(runner, [
        "constants", "--n", "100", "--p", "1000", "--s", "1", "--format", "json",
    ]).output)
    k_eps_text = [ln for ln in text.splitlines() if ln.startswith("k_epsilon")][0].split()[-1]
    assert float(k_eps_text) == pytest.approx(js["constants"]["k_epsilon"], rel=1e-15)
    assert js["constants"]["k_epsilon"] == pytest.approx(1.1833714645378632, abs=1e-9)
    assert js["constants"]["s_max"] == 0
    assert js["constants"]["kappa_branch1"] == pytest.approx(math.exp(2.0), rel=1e-12)


def test_constants_flags_small_p(runner):
    js = json.loads(invoke(runner, [
        "constants", "--n", "8", "--p", "10", "--s", "1", "--format", "json",
    ]).output)
    row = [r for r in js["constraints"] if r["constraint"].startswith("p >=")][0]
    assert row["rhs"] == 11.0
    assert not row["satisfied"]
    text = invoke(runner, ["constants", "--n", "8", "--p", "10", "--s", "1"]).output
    assert "[FAIL] p >= ceil(exp(6/sqrt(2*pi)))" in text


def test_constants_csv_mode(runner):
    out = invoke(runner, ["constants", "--n", "100", "--p", "1000", "--s", "1",
                          "--format", "csv"]).output
    assert out.startswith("key,value")
    assert any(line.startswith("gamma_bound,") for line in out.splitlines())


@pytest.mark.parametrize("flags", [
    ["--c-kappa", "nan"], ["--c-kappa", "inf"], ["--c-kappa", "1e308"],
    ["--c", "nan"], ["--c", "inf"], ["--c", "1e-300"],
    ["--n", "9" * 400], ["--p", "9" * 400], ["--s", "9" * 400], ["--c-kappa", "5e-324"],
])
def test_constants_non_finite_or_overflowing_input_is_a_domain_error(runner, tmp_path, flags):
    result = runner.invoke(main, ["constants", *flags, "--out", str(tmp_path / "c.txt")])
    assert result.exit_code == 4, result.output
    assert "domain error" in result.output
    # an overflow names the derived constant and the input it came from
    named = {("--c-kappa", "1e308"): ("k_epsilon overflows", "c_kappa=1e+308"),
             ("--c", "1e-300"): ("kappa_branch2 overflows", "c_subgauss=1e-300"),
             ("--n", "9" * 400): ("kappa_branch2 overflows", f"n={'9' * 400}"),
             ("--p", "9" * 400): ("gamma_bound overflows", f"p={'9' * 400}"),
             ("--s", "9" * 400): ("u_norm overflows", f"s={'9' * 400}"),
             ("--c-kappa", "5e-324"): ("k_epsilon underflows", "c_kappa=5e-324")}
    for text in named.get(tuple(flags), ()):
        assert text in result.output
    assert "Traceback" not in result.output
    if flags == ["--c-kappa", "5e-324"]:
        # the norm audit derives k_epsilon from the same flag before any draw
        norm = runner.invoke(main, ["experiment", "norm", *flags, "--out", str(tmp_path / "x")])
        assert norm.exit_code == 4, norm.output
        assert "k_epsilon underflows" in norm.output and "Traceback" not in norm.output
    assert not list(tmp_path.iterdir())


# --- experiment ------------------------------------------------------------------

def test_experiment_writes_validating_report(runner, tmp_path):
    base = tmp_path / "run"
    result = invoke(runner, [
        "experiment", "coherence", "--n", "5", "--p", "20", "--trials", "150",
        "--seed", "3", "--out", str(base),
    ])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "run.report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["cells"][0]["verdict"] in ("supported", "violated", "untestable-at-scale")
    assert report["config"]["name"] == "coherence"
    csv_text = (tmp_path / "run.trials.csv").read_text()
    assert csv_text.startswith("# ")
    assert "measure.coherence" in csv_text.splitlines()[1]
    assert len(csv_text.splitlines()) == 2 + 150


def test_experiment_rerun_is_byte_identical(runner, tmp_path):
    args = ["experiment", "order-stat", "--n", "3", "--p", "12", "--r", "3",
            "--trials", "150", "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert invoke(runner, args + ["--out", str(a)]).exit_code == 0
    assert invoke(runner, args + ["--out", str(b)]).exit_code == 0
    assert (tmp_path / "a.report.json").read_bytes() == (tmp_path / "b.report.json").read_bytes()
    assert (tmp_path / "a.trials.csv").read_bytes() == (tmp_path / "b.trials.csv").read_bytes()


def test_experiment_decoupling_rerun_is_byte_identical(runner, tmp_path):
    args = ["experiment", "decoupling", "--n", "5", "--p", "12", "--kappa", "3",
            "--s", "2", "--r-grid", "0.3,0.6", "--trials", "120", "--seed", "9"]
    a, b = tmp_path / "t1", tmp_path / "t2"
    assert invoke(runner, args + ["--out", str(a)]).exit_code == 0
    assert invoke(runner, args + ["--out", str(b)]).exit_code == 0
    assert (tmp_path / "t1.report.json").read_bytes() == (tmp_path / "t2.report.json").read_bytes()
    assert (tmp_path / "t1.trials.csv").read_bytes() == (tmp_path / "t2.trials.csv").read_bytes()


@pytest.mark.parametrize("name, flags", [
    ("theorem", ["--trials", "20", "--epsilon", "0.1", "--c-kappa", "9"]),
    ("coherence", ["--trials", "150", "--s", "7", "--q-grid", "abc"]),
])
def test_experiment_rejects_flags_it_does_not_read(runner, tmp_path, name, flags):
    # each audit declares only its own flags, so click refuses the first unread one
    result = runner.invoke(main, ["experiment", name, *flags, "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    assert re.search(rf"No such option\W+{flags[2]}\b", result.output), result.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, flags", [
    ("chernoff", ["--count", "-1"]),
    ("chernoff", ["--q-grid", "1.5"]),
    ("chernoff", ["--q-grid", "inf"]),
    ("coherence", ["--n", "0"]),
    ("norm", ["--n", "0"]),
    ("decoupling", ["--kappa", "0"]),
    ("decoupling", ["--kappa", "inf"]),
    ("decoupling", ["--kappa", "nan"]),
    ("decoupling", ["--r-grid", "nan"]),
    ("chernoff", ["--eps-grid", "0"]),
    ("chernoff", ["--eps-grid", "0.5,0"]),
    ("chernoff", ["--eps-grid", "1.2"]),
    ("norm", ["--epsilon", "1.5"]),
    ("norm", ["--epsilon", "nan"]),
    ("norm", ["--c-kappa", "0"]),
    ("norm", ["--c-kappa", "nan"]),
    ("theorem", ["--p", "1"]),
    ("theorem", ["--probes", "-1"]),
    ("norm", ["--c-kappa", "inf"]),
    ("norm", ["--p", "1", "--kappa-s", "1"]),
    ("theorem", ["--p", "14"]),
    ("decoupling", ["--n", "0"]),
    ("coherence", ["--p", "1"]),
    ("norm", ["--kappa-s", "0"]),
])
def test_experiment_out_of_range_parameters_are_usage_errors(runner, tmp_path, name, flags):
    result = runner.invoke(main, ["experiment", name, *flags, "--out", str(tmp_path / "x")])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "x.report.json").exists()


def test_experiment_echoed_config_replays_the_same_grid(runner, tmp_path):
    args = ["experiment", "decoupling", "--n", "5", "--p", "12", "--kappa", "3", "--s", "2",
            "--r-grid", "0.1234567,50", "--trials", "100", "--seed", "9"]
    assert invoke(runner, args + ["--out", str(tmp_path / "a")]).exit_code == 0
    first = json.loads((tmp_path / "a.report.json").read_text())
    assert first["grid"]["r_grid"] == [0.1234567, 50.0]
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in first["config"].items()))
    assert invoke(runner, ["experiment", "decoupling", "--config", str(cfg),
                           "--out", str(tmp_path / "b")]).exit_code == 0
    second = json.loads((tmp_path / "b.report.json").read_text())
    assert second["grid"] == first["grid"]
    assert second["config"] == first["config"]


def test_experiment_unknown_name_lists_choices(runner, tmp_path):
    result = runner.invoke(main, ["experiment", "bogus", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    assert "bogus" in result.output
    listed = invoke(runner, ["experiment", "--help"]).output.split("Commands:")[1]
    assert set(re.findall(r"^\s+([a-z-]+)", listed, flags=re.M)) == set(cli._EXPERIMENTS)


def test_experiment_default_out_base(runner):
    with runner.isolated_filesystem():
        result = invoke(runner, ["experiment", "chernoff", "--q-grid", "0.1",
                                 "--eps-grid", "0.5", "--trials", "150", "--seed", "2"])
        assert result.exit_code == 0
        import pathlib
        assert pathlib.Path("experiment-chernoff.report.json").exists()
        assert pathlib.Path("experiment-chernoff.trials.csv").exists()


def test_experiment_verdict_is_data_not_error(runner, tmp_path):
    # a violated verdict still exits 0
    base = tmp_path / "viol"
    result = invoke(runner, [
        "experiment", "coherence", "--n", "6", "--p", "50", "--trials", "150",
        "--seed", "1", "--out", str(base),
    ])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "viol.report.json").read_text())
    assert report["cells"][0]["verdict"] == "violated"


# --- config file -----------------------------------------------------------------

def test_config_file_defaults_and_flag_override(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# experiment defaults\nn = 3\np = 14\nr = 2\ntrials = 150\nseed = 8\n")
    base1 = tmp_path / "c1"
    result = invoke(runner, ["experiment", "order-stat", "--config", str(cfg),
                             "--out", str(base1)])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "c1.report.json").read_text())
    assert report["grid"] == {"n": 3, "p": 14, "r": 2}
    assert report["master_seed"] == 8
    base2 = tmp_path / "c2"
    result = invoke(runner, ["experiment", "order-stat", "--config", str(cfg),
                             "--p", "16", "--out", str(base2)])
    report2 = json.loads((tmp_path / "c2.report.json").read_text())
    assert report2["grid"]["p"] == 16  # flag wins over config


# name -> (config-file values, expected config echo, the same audit called
# directly, (overriding flag, its value, its echoed value))
_TABLE_CASES = {
    "order-stat": (
        {"n": "3", "p": "14", "r": "2", "trials": "120", "seed": "8"},
        {"n": 3, "p": 14, "r": 2, "trials": 120, "seed": 8},
        lambda: hn.run_order_stat_audit(3, 14, 2, 120, 8),
        ("--p", "16", 16),
    ),
    "coherence": (
        {"n": "5", "p": "20", "trials": "150", "seed": "3"},
        {"n": 5, "p": 20, "trials": 150, "seed": 3},
        lambda: hn.run_coherence_audit(5, 20, 150, 3),
        ("--n", "4", 4),
    ),
    "norm": (
        {"n": "6", "p": "40", "kappa_s": "8", "epsilon": "0.40", "c_kappa": "3",
         "trials": "100", "seed": "5"},
        {"n": 6, "p": 40, "kappa_s": 8, "epsilon": 0.4, "c_kappa": 3.0, "trials": 100, "seed": 5},
        lambda: hn.run_norm_audit(6, 40, 8, 0.4, 100, 5, c_kappa=3.0),
        ("--kappa-s", "6", 6),
    ),
    "decoupling": (
        {"n": "5", "p": "12", "kappa": "3", "s": "2", "r_grid": "0.30, .6",
         "trials": "100", "seed": "9"},
        {"n": 5, "p": 12, "kappa": 3.0, "s": 2, "r_grid": "0.3,0.6", "trials": 100, "seed": 9},
        lambda: hn.run_decoupling_audit(5, 12, 3.0, 2, [0.3, 0.6], 100, 9),
        ("--r-grid", "0.50", "0.5"),
    ),
    "theorem": (
        {"n": "3", "p": "30", "s": "2", "rho": "0.4", "net_eps": "0.6", "probes": "5",
         "kappa": "3", "trials": "20", "seed": "4"},
        {"n": 3, "p": 30, "s": 2, "rho": 0.4, "net_eps": 0.6, "probes": 5, "kappa": 3.0,
         "trials": 20, "seed": 4},
        lambda: hn.run_theorem_audit(3, 30, 2, 0.4, 0.6, 20, 4, probes=5, kappa=3.0),
        ("--rho", "0.5", 0.5),
    ),
    "chernoff": (
        {"count": "500", "q_grid": "0.10,0.3", "eps_grid": ".5", "trials": "100", "seed": "2"},
        {"count": 500, "q_grid": "0.1,0.3", "eps_grid": "0.5", "trials": 100, "seed": 2},
        lambda: hn.run_chernoff_audit([0.1, 0.3], [0.5], 100, 2, count=500),
        ("--count", "400", 400),
    ),
}


@pytest.mark.parametrize("name", sorted(_TABLE_CASES))
def test_experiment_config_file_sets_every_key(runner, tmp_path, name):
    values, echo, direct, (flag, flag_value, flag_echo) = _TABLE_CASES[name]
    cfg = tmp_path / "run.cfg"
    # max_attempts belongs to select: unread config keys are ignored
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**values, "max_attempts": "5"}.items()))
    assert invoke(runner, ["experiment", name, "--config", str(cfg),
                           "--out", str(tmp_path / "a")]).exit_code == 0
    config = {"name": name, **echo}
    report = direct()
    assert (tmp_path / "a.report.json").read_text() == report_to_json(report, config)
    assert (tmp_path / "a.trials.csv").read_text() == records_to_csv(report.records, config)
    # trial i draws from stream (seed, i)
    rows = list(csv.DictReader((tmp_path / "a.trials.csv").read_text().splitlines()[1:]))
    assert [(r["trial_index"], r["stream_index"]) for r in rows] == [(str(i), str(i))
                                                                   for i in range(len(rows))]
    assert invoke(runner, ["experiment", name, "--config", str(cfg), flag, flag_value,
                           "--out", str(tmp_path / "b")]).exit_code == 0
    key = flag[2:].replace("-", "_")
    overridden = json.loads((tmp_path / "b.report.json").read_text())["config"]
    assert overridden == {**config, key: flag_echo}


def _gen_echo(out: str) -> dict:
    """The settings `gen` echoes in its `# n=.. p=.. seed=..` line."""
    return {k: int(v) for k, v in (kv.split("=") for kv in out.splitlines()[0][2:].split())}


# command -> (its settings table, config-file values, the flag that overrides
# one of them, and the echoed settings read from a run's output)
_COMMAND_CASES = {
    "gen": (cli._GEN, {"n": "3", "p": "5", "seed": "4"}, ("--p", "6"), _gen_echo),
    "select": (cli._SELECT,
               {"s": "3", "rho": "0.4", "kappa": "2.5", "max_attempts": "7", "seed": "5"},
               ("--kappa", "3"), lambda out: json.loads(out)["config"]),
    "gamma": (cli._GAMMA,
              {"s": "1", "rho": "0.6", "kappa": "3", "net_eps": "0.5", "probes": "10", "seed": "3"},
              ("--probes", "12"), lambda out: json.loads(out)["config"]),
    "constants": (cli._CONSTANTS,
                  {"n": "50", "p": "500", "s": "2", "rho": "0.3", "epsilon": "0.4", "c_kappa": "2",
                   "c": "0.7"},
                  ("--c", "0.6"), lambda out: json.loads(out)["constants"]),
}
_COMMAND_ARGS = {"select": ["--v-random", "--format", "json"], "constants": ["--format", "json"]}


@pytest.mark.parametrize("name", sorted(_COMMAND_CASES))
def test_command_config_file_sets_every_key(runner, tmp_path, name):
    table, values, (flag, flag_value), echoed = _COMMAND_CASES[name]
    assert set(values) == {key for key, _, _ in table}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    args = [name, "--config", str(cfg), *_COMMAND_ARGS.get(name, [])]
    if name in ("select", "gamma"):
        args += ["--matrix", str(write_matrix(tmp_path, n=4, p=12))]
    want = {key: cast(values[key]) for key, cast, _ in table}
    got = echoed(invoke(runner, args).output)
    assert {key: got[key] for key in want} == want
    key = flag[2:].replace("-", "_")
    got = echoed(invoke(runner, args + [flag, flag_value]).output)
    assert {k: got[k] for k in want} == {**want, key: type(want[key])(flag_value)}


def _help_flags(runner, args) -> set:
    out = invoke(runner, [*args, "--help"]).output
    return set(re.findall(r"^\s+(--[a-z-]+)", out, flags=re.M))


@pytest.mark.parametrize("name, others", [
    ("gen", {"--out"}),
    ("select", {"--matrix", "--v-file", "--v-random", "--out", "--oracle", "--format"}),
    ("gamma", {"--matrix", "--out", "--format"}),
    ("constants", {"--out", "--format"}),
    *((f"experiment {audit}", {"--out"}) for audit in cli._EXPERIMENTS),
])
def test_command_help_lists_exactly_its_table(runner, name, others):
    audit = name.partition(" ")[2]
    table = cli._EXPERIMENTS[audit] + (cli._SEED,) if audit else _COMMAND_CASES[name][0]
    flags = {f"--{key.replace('_', '-')}" for key, _, _ in table}
    assert _help_flags(runner, name.split()) == flags | others | {"--config", "--help"}


def test_config_file_parser():
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "x.cfg"
        path.write_text("a = 1\nnet-eps = 0.5  # comment\n\n# whole line comment\n")
        assert load_config_file(path) == {"a": "1", "net_eps": "0.5"}
        path.write_text("broken line\n")
        with pytest.raises(FormatError):
            load_config_file(path)


def test_net_dimension_limit_is_a_usage_error_naming_its_source(runner, tmp_path):
    # the certificate net is refused above n = 8; the message names the limit
    # and the matrix file or flag, not a library parameter
    matrix_path = write_matrix(tmp_path, n=9, p=20, name="wide.csv")
    gam = runner.invoke(main, ["gamma", "--matrix", str(matrix_path), "--probes", "10",
                               "--out", str(tmp_path / "g.json")])
    assert gam.exit_code == 2, gam.output
    assert "n <= 8" in gam.output and "wide.csv" in gam.output and "n=9" in gam.output
    assert "dimension_cap" not in gam.output
    assert not (tmp_path / "g.json").exists()
    thm = runner.invoke(main, ["experiment", "theorem", "--n", "9", "--trials", "20",
                               "--out", str(tmp_path / "t")])
    assert thm.exit_code == 2, thm.output
    assert "n <= 8" in thm.output and "--n" in thm.output and "n=9" in thm.output
    assert "dimension_cap" not in thm.output
    assert not (tmp_path / "t.report.json").exists()
    ok = invoke(runner, ["gamma", "--matrix", str(write_matrix(tmp_path, n=8, p=20)),
                         "--s", "2", "--kappa", "3", "--net-eps", "0.9", "--probes", "5"])
    assert ok.exit_code == 0


def test_grid_over_its_point_limit_is_a_usage_error_naming_the_radius_that_fits(runner, tmp_path):
    # 8 * 11^7 points at n = 8 and --net-eps 0.25; k = 5 is the largest grid that fits
    matrix_path = write_matrix(tmp_path, n=8, p=20, name="eight.csv")

    def gamma(eps):
        return runner.invoke(main, ["gamma", "--matrix", str(matrix_path), "--s", "2", "--kappa",
                                    "3", "--net-eps", eps, "--probes", "5",
                                    "--out", str(tmp_path / "g.json")])

    thm = runner.invoke(main, ["experiment", "theorem", "--n", "8", "--net-eps", "0.25",
                               "--trials", "20", "--out", str(tmp_path / "t")])
    for result in (gamma("0.25"), thm):
        assert result.exit_code == 2, result.output
        for text in ("d=8", "k=11", "155897368 points", "--net-eps 0.25", "0.5291502622129182"):
            assert text in result.output
    tiny = gamma("5e-324")  # no cell count is computed, let alone a grid
    assert tiny.exit_code == 2 and "0.5291502622129182" in tiny.output, tiny.output
    assert not list(tmp_path.glob("g.json")) and not list(tmp_path.glob("t.*"))


def test_experiment_refuses_a_nan_measure_and_writes_nothing(runner, tmp_path, monkeypatch):
    real = hn.run_coherence_audit

    def with_nan(*args, **kwargs):
        report = real(*args, **kwargs)
        report.records.measures["coherence"][3] = math.nan
        return report

    monkeypatch.setattr(hn, "run_coherence_audit", with_nan)
    result = runner.invoke(main, ["experiment", "coherence", "--trials", "100",
                                  "--out", str(tmp_path / "c")])
    assert result.exit_code == 4
    assert "measure.coherence is NaN" in result.output
    assert not list(tmp_path.iterdir())


def test_key_value_csv_refuses_a_nan_and_leaves_an_infinity_empty():
    with pytest.raises(DomainError, match="net.radius is NaN"):
        cli._kv_csv({"net": {"radius": math.nan}})
    assert cli._kv_csv({"upper": math.inf, "grid": [0.5, math.inf]}) == "key,value\ngrid,0.5 \nupper,\n"


def test_trial_table_writes_an_infinity_as_an_empty_cell():
    # a theorem trial with no feasible subset at some net point has certificate +inf
    table = hn.TrialTable(2, {"p": 4}, {"certificate": np.array([math.inf, 0.25]),
                                        "rate": np.array([0.5, 1.0])},
                          satisfied={"below": np.array([False, True])})
    text = records_to_csv(table, {"seed": 1})
    assert text.splitlines()[1:] == [
        "trial_index,stream_index,param.p,measure.certificate,measure.rate,satisfied.below",
        "0,0,4,,0.5,0",
        "1,1,4,0.25,1,1",
    ]
    assert [cli._csv_cell(v, "k") for v in (math.inf, -math.inf, np.float64(math.inf))] == [""] * 3
    with pytest.raises(DomainError, match="measure.certificate is NaN"):
        records_to_csv(hn.TrialTable(1, measures={"certificate": np.array([math.nan])}), {})


def test_trial_table_text_does_not_depend_on_the_rows_formatted_at_a_time(monkeypatch):
    report = hn.run_norm_audit(6, 32, 8, 0.5, 150, seed=73, c_kappa=2.0)
    whole = records_to_csv(report.records, {"seed": 73})
    monkeypatch.setattr(cli, "_CSV_ROWS", 7)  # blocks of 7 rows, the last one shorter
    assert records_to_csv(report.records, {"seed": 73}) == whole
    assert len(whole.splitlines()) == 152


def test_constants_writes_an_undefined_v_split_as_null(runner):
    # log(C_k n) <= 0 at n = 1, C_k = 0.5, so v_split is undefined
    result = invoke(runner, ["constants", "--n", "1", "--p", "20", "--s", "1", "--c-kappa", "0.5",
                             "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["constants"]["v_split"] is None
