"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and budget is pinned here; the Monte Carlo cases use
fixed seeds that were verified once and are replayed bit-identically by the
counter-based streams.
"""
import json
import math
import time
from contextlib import contextmanager
from itertools import combinations

import jsonschema
import numpy as np
import scipy.stats
from click.testing import CliRunner

from orthoselect import (
    ColumnMatrix,
    RngStream,
    SelectionConfig,
    attained_values,
    brute_force_inf,
    build_eps_net,
    constrained_select,
    estimate_gamma,
    exact_inf_profile,
    gram_deviation,
    greedy_outer,
    inf_norm_against,
    sample_sphere_matrix,
    sample_unit_vector,
    sample_unit_vectors,
    sigma_min,
)
from orthoselect import analytic as an
from orthoselect import harness as hn
from orthoselect.cli import main as cli_main

from oracles import abs_dot_density_integral, ks_statistic


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed <= budget_s
    print(
        f"[criterion {num:02d}] {'PASS' if within else 'FAIL'} - {label} "
        f"({elapsed:.1f}s of {budget_s:.0f}s budget)"
    )
    assert within, f"runtime {elapsed:.1f}s exceeded the {budget_s:.0f}s budget"


def empirical_ks(samples: np.ndarray, cdf) -> float:
    xs = np.sort(samples)
    return ks_statistic(xs, np.array([cdf(float(x)) for x in xs]))


def test_criterion_01_distribution_correctness():
    with criterion(1, "distribution correctness of |<X_j, v>|", 30.0):
        # exact CDF in three dimensions
        for z in np.linspace(0.0, 1.0, 1000):
            assert abs(an.inner_cdf(float(z), 3) - float(z)) <= 1e-10
        # normalization by independent quadrature
        for n in range(2, 51):
            assert abs(abs_dot_density_integral(n, 1.0) - 1.0) <= 1e-10
        # empirical law at 1e5 samples
        for n in (3, 6, 20):
            pts = sample_unit_vectors(n, 100_000, RngStream(2026, n))
            ks = empirical_ks(np.abs(pts[:, 0]), lambda z, n=n: an.inner_cdf(z, n))
            assert ks <= 0.005, f"KS {ks:.5f} at n={n}"


def test_criterion_02_order_statistic_law():
    with criterion(2, "order-statistic law vs the binomial-tail CDF", 60.0):
        for r in (1, 5, 20):
            spec = an.OrderStatSpec(p=20, r=r, n=3)
            for z in np.linspace(0.0, 1.0, 201):
                z = float(z)
                ref = float(scipy.stats.beta.cdf(z, r, 20 - r + 1))
                assert abs(an.order_stat_cdf(z, spec) - ref) <= 1e-8
        report = hn.run_order_stat_audit(3, 20, 5, 10_000, seed=20260811)
        assert report.extras["ks"] <= 0.02
        assert report.cells[0].verdict == "supported"


def test_criterion_03_cap_identity():
    with criterion(3, "spherical cap identity and Monte Carlo frequency", 30.0):
        for n in range(3, 31):
            for h in np.linspace(0.0, 1.0, 41):
                h = float(h)
                lhs = 2.0 * an.cap_probability(h, n)
                rhs = 1.0 - an.inner_cdf(h, n)
                assert abs(lhs - rhs) <= 1e-10
        assert abs(an.cap_probability(0.5, 3) - 0.25) <= 1e-12
        for seed, (h, n) in enumerate([(0.2, 3), (0.5, 6), (0.1, 20)]):
            pts = sample_unit_vectors(n, 100_000, RngStream(700 + seed, 0))
            freq = float(np.mean(pts[:, 0] >= h))
            prob = an.cap_probability(h, n)
            sigma = math.sqrt(prob * (1.0 - prob) / 100_000)
            assert abs(freq - prob) <= 3.0 * sigma, f"(h={h}, n={n})"


def test_criterion_04_spectral_oracles():
    with criterion(4, "singular-value closed form and Gram sandwich", 20.0):
        gen = np.random.Generator(np.random.PCG64(404))
        for _ in range(100):
            theta = float(gen.uniform(1e-3, math.pi - 1e-3))
            a = np.array([1.0, 0.0, 0.0])
            b = np.array([math.cos(theta), math.sin(theta), 0.0])
            m = ColumnMatrix(np.column_stack([a, b]))
            assert abs(sigma_min(m) - math.sqrt(1.0 - abs(math.cos(theta)))) <= 1e-10
        for i in range(1000):
            stream = RngStream(405, i).generator()
            n = int(stream.integers(2, 9))
            p = int(stream.integers(1, 8))
            x = sample_sphere_matrix(n, p, stream)
            dev = gram_deviation(x)
            smin = sigma_min(x)
            assert abs(1.0 - smin * smin) <= dev + 1e-10


def test_criterion_05_greedy_brute_force_sandwich():
    with criterion(5, "greedy sort equivalence and oracle sandwich", 60.0):
        cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=3.0)
        m = cfg.outer_size(12)
        violations = 0
        for i in range(500):
            x = sample_sphere_matrix(4, 12, RngStream(505, i))
            v = sample_unit_vector(4, RngStream(506, i))
            vals = np.abs(x.data.T @ v)
            oracle = tuple(sorted(sorted(range(12), key=lambda j: (vals[j], j))[:m]))
            outer = greedy_outer(x, v, m)
            if outer.indices != oracle:
                violations += 1
                continue
            out = constrained_select(x, v, cfg, RngStream(507, i))
            exact = brute_force_inf(x, v, 2, 0.5)
            z_m = inf_norm_against(x, outer, v)
            if not exact <= out.attained_value + 1e-12:
                violations += 1
            if math.isfinite(out.attained_value) and not out.attained_value <= z_m + 1e-12:
                violations += 1
        assert violations == 0


def test_criterion_06_gamma_certificate_validity():
    with criterion(6, "certificate dominates probes and exact values", 300.0):
        net = build_eps_net(4, 0.25, RngStream(1000, 0), stall_budget=10_000)
        # pipeline leg: 20 instances at p=200, 1e5 fresh probes each
        cfg_big = SelectionConfig(s=2, rho_minus=0.5)
        big_violations = 0
        for i in range(20):
            x = sample_sphere_matrix(4, 200, RngStream(5000, i))
            cert = estimate_gamma(x, cfg_big, net, 0, RngStream(6000, i)).certified_upper
            probes = sample_unit_vectors(4, 100_000, RngStream(7000, i))
            vals = attained_values(x, probes, cfg_big, RngStream(8000, i))
            finite = vals[np.isfinite(vals)]
            big_violations += int(np.sum(finite > cert))
        assert big_violations == 0
        # brute-force leg: 20 instances at p=12, exact inf at every probe
        cfg_small = SelectionConfig(s=2, rho_minus=0.5, kappa=3.0)
        small_violations = 0
        for i in range(20):
            x = sample_sphere_matrix(4, 12, RngStream(2000, i))
            cert = estimate_gamma(x, cfg_small, net, 0, RngStream(3000, i)).certified_upper
            probes = sample_unit_vectors(4, 100_000, RngStream(4000, i))
            exact = exact_inf_profile(x, probes, 2, 0.5)
            finite = exact[np.isfinite(exact)]
            small_violations += int(np.sum(finite > cert))
        assert small_violations == 0


def test_criterion_07_monotonicity_under_column_addition():
    with criterion(7, "selection value never grows when columns are appended", 120.0):
        cfg = SelectionConfig(s=2, rho_minus=0.5)
        failures = 0
        for i in range(100):
            x = sample_sphere_matrix(4, 8, RngStream(808, i))
            extra = sample_sphere_matrix(4, 4, RngStream(809, i))
            directions = sample_unit_vectors(4, 50, RngStream(810, i))
            base = float(np.max(exact_inf_profile(x, directions, cfg.s, cfg.rho_minus)))
            concat = float(np.max(exact_inf_profile(ColumnMatrix(np.hstack([x.data, extra.data])),
                                                    directions, cfg.s, cfg.rho_minus)))
            if not (concat <= base + 1e-12 or math.isinf(base)):
                failures += 1
            if math.isfinite(base):
                assert concat <= base + 1e-12
        assert failures == 0


def test_criterion_08_decoupling_and_poissonization():
    with criterion(8, "restriction inequality chains at 95% bootstrap", 180.0):
        grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        report = hn.run_decoupling_audit(8, 24, 4.0, 3, grid, 5000, seed=20260811)
        assert len(report.cells) == 18
        for cell in report.cells:
            assert cell.verdict == "supported", cell.label


def test_criterion_09_constants_second_transcription():
    with criterion(9, "constants match independent transcriptions", 1.0):
        rho, eps, ck, c = 0.5, 0.5, 1.0, 0.5
        k_eps = an.k_epsilon(eps, ck)
        k_eps_2 = (
            math.sqrt(2.0 * math.pi)
            * ((1.0 + ck) * math.log1p(2.0 / eps) + ck + (math.log(ck) - math.log(4.0)))
            / 6.0
        )
        assert abs(k_eps - k_eps_2) <= 1e-12
        assert abs(an.KAPPA_BRANCH_CONSTANT - math.exp(2.0)) <= 1e-12
        cs = an.c_s_constant(rho, eps, ck, c)
        cs_2 = math.exp(
            2.0 * math.log(c)
            + 2.0 * math.log1p(-rho)
            + 8.0 * math.log1p(-eps)
            - math.log(4.0)
            - 3.0
            + math.log(ck)
            - 2.0 * math.log1p(k_eps_2)
            - 2.0 * math.log1p(ck)
        )
        assert abs(cs - cs_2) <= 1e-12 * cs
        n, p = 100, 1000
        smax = an.s_max(n, p, rho, eps, ck, c)
        raw_2 = cs_2 * n / (math.log(p) ** 2 * math.log(ck * n))
        assert smax == math.floor(raw_2) == 0
        assert abs(cs * n / (math.log(p) ** 2 * math.log(ck * n)) - raw_2) <= 1e-12 * raw_2
        bound = an.claimed_gamma_bound(p)
        bound_2 = math.exp(math.log(80.0) + math.log(math.log(p)) - math.log(p))
        assert abs(bound - bound_2) <= 1e-12


def test_criterion_10_claim_audit_honesty():
    with criterion(10, "coherence claim audited mechanically (expected: violated)", 60.0):
        report = hn.run_coherence_audit(6, 50, 1000, seed=20260811)
        cell = report.cells[0]
        assert cell.verdict == "violated"
        assert cell.ci_low is not None and cell.ci_high is not None
        assert 0.0 <= cell.ci_low <= cell.ci_high <= 1.0
        assert cell.claim is not None and cell.claim > 0.999
        jsonschema.validate(report.to_json_dict(), hn.REPORT_SCHEMA)


def test_criterion_11_cli_reproducibility(tmp_path):
    with criterion(11, "CLI outputs byte-identical across reruns and threads", 120.0):
        runner = CliRunner()

        def run(args, env=None):
            result = runner.invoke(cli_main, args, env=env, catch_exceptions=False)
            assert result.exit_code == 0, result.output
            return result

        # gen
        for name in ("g1.csv", "g2.csv"):
            run(["gen", "--n", "4", "--p", "30", "--seed", "11", "--out", str(tmp_path / name)])
        assert (tmp_path / "g1.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()
        matrix_path = str(tmp_path / "g1.csv")
        # select
        for name in ("s1.json", "s2.json"):
            run(["select", "--matrix", matrix_path, "--v-random", "--s", "2",
                 "--kappa", "3", "--seed", "4", "--oracle", "--out", str(tmp_path / name)])
        assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()
        # gamma
        for name in ("y1.json", "y2.json"):
            run(["gamma", "--matrix", matrix_path, "--s", "2", "--kappa", "3",
                 "--net-eps", "0.5", "--probes", "50", "--seed", "4",
                 "--out", str(tmp_path / name)])
        assert (tmp_path / "y1.json").read_bytes() == (tmp_path / "y2.json").read_bytes()
        # constants
        for name in ("c1.json", "c2.json"):
            run(["constants", "--n", "100", "--p", "1000", "--s", "1",
                 "--format", "json", "--out", str(tmp_path / name)])
        assert (tmp_path / "c1.json").read_bytes() == (tmp_path / "c2.json").read_bytes()
        # experiments, including thread-count invariance
        args = ["experiment", "decoupling", "--n", "6", "--p", "16", "--kappa", "4",
                "--s", "2", "--r-grid", "0.3,0.6", "--trials", "200", "--seed", "6"]
        run(args + ["--out", str(tmp_path / "e1")], env={"CRI_THREADS": "1"})
        run(args + ["--out", str(tmp_path / "e8")], env={"CRI_THREADS": "8"})
        run(args + ["--out", str(tmp_path / "e1b")], env={"CRI_THREADS": "1"})
        for suffix in (".report.json", ".trials.csv"):
            b1 = (tmp_path / ("e1" + suffix)).read_bytes()
            assert b1 == (tmp_path / ("e8" + suffix)).read_bytes()
            assert b1 == (tmp_path / ("e1b" + suffix)).read_bytes()
        args2 = ["experiment", "order-stat", "--n", "3", "--p", "15", "--r", "4",
                 "--trials", "200", "--seed", "2"]
        run(args2 + ["--out", str(tmp_path / "o1")], env={"CRI_THREADS": "8"})
        run(args2 + ["--out", str(tmp_path / "o2")], env={"CRI_THREADS": "1"})
        assert (tmp_path / "o1.report.json").read_bytes() == (tmp_path / "o2.report.json").read_bytes()
        assert (tmp_path / "o1.trials.csv").read_bytes() == (tmp_path / "o2.trials.csv").read_bytes()
