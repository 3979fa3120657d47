"""Tests of the benchmark's own checkers: corrupted outputs count as failed ops.

Run from the repository root: python3 -m pytest perfbench
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from run import OpResult, summarize
from tracing import function_stats, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

RHO = 0.5


def failed_ops(errors: list[str]) -> int:
    return summarize([OpResult(1.0, 10, errors)])["failed"]


@pytest.fixture
def instance():
    gen = np.random.default_rng(5)
    x = checks.unit_rows(gen, 30, 4).T.copy()
    dirs = checks.unit_rows(gen, 200, 4)
    return x, dirs, checks.exact_s2(x, dirs, RHO)


def test_exact_s2_matches_enumeration(instance):
    x, dirs, exact = instance
    for v, value in zip(dirs[:10], exact[:10]):
        b = np.abs(x.T @ v)
        best = min(max(b[i], b[j]) for i in range(30) for j in range(i + 1, 30)
                   if abs(x[:, i] @ x[:, j]) <= 1 - RHO * RHO)
        assert value == pytest.approx(best, abs=1e-15)


def certify_payload(upper, lower, tested=540, net_size=40):
    return json.dumps({"certified_upper": upper, "heuristic_lower": lower,
                       "directions_tested": tested, "net": {"size": net_size}})


def test_certify_accepts_a_valid_output(instance):
    x, dirs, exact = instance
    top = float(np.max(exact))
    assert checks.check_certify(0, certify_payload(top + 0.25, top), x, dirs, RHO, 500) == []


@pytest.mark.parametrize("returncode, payload", [
    (0, certify_payload(0.3, 0.4)),            # lower > upper
    (0, certify_payload(1e-3, 0.0)),           # upper below the exact value
    (0, certify_payload(2.0, 0.1, tested=539)),  # wrong direction count
    (0, "{not json"),
    (3, certify_payload(2.0, 0.1)),
])
def test_certify_corruption_is_a_failed_op(instance, returncode, payload):
    x, dirs, _ = instance
    assert failed_ops(checks.check_certify(returncode, payload, x, dirs, RHO, 500)) == 1


def probe_case(instance):
    x, dirs, exact = instance
    exact_small = checks.exact_s2(x[:, :12], dirs, RHO)
    return dict(cert_big=float(np.max(exact)) + 0.25, x_big=x, dirs_big=dirs,
                pipeline=exact + 0.01, subsample=np.arange(0, 200, 3),
                cert_small=float(np.max(exact_small)) + 0.25, x_small=x[:, :12],
                dirs_small=dirs, exact_small=exact_small, rho=RHO)


def test_probe_sweep_accepts_a_valid_output(instance):
    assert checks.check_probe_sweep(**probe_case(instance)) == []


@pytest.mark.parametrize("corrupt", [
    lambda c: c["pipeline"].__setitem__(7, c["cert_big"] + 0.1),  # above the certificate
    lambda c: c["pipeline"].__setitem__(9, c["pipeline"][9] - 0.5),  # below the exact value
    lambda c: c["exact_small"].__setitem__(4, c["exact_small"][4] + 1e-9),  # oracle off
    lambda c: c.__setitem__("cert_small", float(np.max(c["exact_small"])) - 0.01),  # cert low
])
def test_probe_sweep_corruption_is_a_failed_op(instance, corrupt):
    case = probe_case(instance)
    corrupt(case)
    assert failed_ops(checks.check_probe_sweep(**case)) == 1


@pytest.fixture(scope="module")
def coherence_outputs():
    from orthoselect import harness
    from orthoselect.cli import records_to_csv, report_to_json

    report = harness.run_coherence_audit(6, 50, 100, seed=3)
    config = {"name": "coherence", "trials": 100}
    return report_to_json(report, config), records_to_csv(report.records, config), \
        harness.REPORT_SCHEMA


def test_audit_accepts_a_valid_output(coherence_outputs):
    report, table, schema = coherence_outputs
    errors, verdicts = checks.check_audit(0, report, table, schema, 1, 100, "violated")
    assert errors == [] and verdicts == ["violated"]


@pytest.mark.parametrize("corrupt", [
    lambda r, t: (r.replace('"violated"', '"supported"'), t),  # wrong verdict
    lambda r, t: (r, "\n".join(t.splitlines()[:-5]) + "\n"),   # trials CSV cut at a row
    lambda r, t: (r, t[: len(t) - 7]),                         # trials CSV cut mid-row
    lambda r, t: (r.replace('"cells"', '"cellz"'), t),         # schema violation
    lambda r, t: ("", t),                                      # no report
])
def test_audit_corruption_is_a_failed_op(coherence_outputs, corrupt):
    report, table, schema = coherence_outputs
    report, table = corrupt(report, table)
    errors, _ = checks.check_audit(0, report, table, schema, 1, 100, "violated")
    assert failed_ops(errors) == 1


def test_self_time_subtracts_children():
    # root 0..10, children 1..4 and 5..6, grandchild 2..3
    doc = {"phase": "op", "startup_ns": None, "names": ["cli.main", "selection.a", "linalg.b"],
           "spans": [[0, 0, 10, -1, None], [1, 1, 4, 0, None], [2, 2, 3, 1, None],
                     [1, 5, 6, 0, {"attempts": 2}]]}
    stats = function_stats([doc])["op"]
    assert stats["cli.main"]["self_s"] == pytest.approx(6e-9)
    assert stats["selection.a"]["self_s"] == pytest.approx(3e-9)
    assert stats["selection.a"]["calls"] == 2 and stats["selection.a"]["attempts"] == 2
    assert stats["linalg.b"]["total_s"] == pytest.approx(1e-9)


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = set(per_layer_metrics([], {"op": 1, "setup": 1})) | {"trace.op_p50_s",
                                                                  "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
