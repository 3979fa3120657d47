import functools
import json
import math
import tracemalloc

import jsonschema
import numpy as np
import pytest
import scipy.stats

from orthoselect import RngStream, sample_unit_vectors
from orthoselect import analytic as an
from orthoselect import harness as hn
from orthoselect.errors import DomainError, InvalidInput
from orthoselect.sphere import TrialStreams

from oracles import decoupling_trial_norms, table_columns, trial_records


def test_wilson_interval_matches_formula_with_library_quantile():
    for successes, trials in ((1, 10), (8, 10), (37, 200), (999, 1000)):
        for confidence in (0.8, 0.95, 0.99, 0.999):
            z = float(scipy.stats.norm.ppf(0.5 + confidence / 2.0))
            f = successes / trials
            denom = 1.0 + z * z / trials
            center = (f + z * z / (2.0 * trials)) / denom
            half = z * math.sqrt(f * (1.0 - f) / trials + z * z / (4.0 * trials**2)) / denom
            lo, hi = hn.wilson_interval(successes, trials, confidence)
            assert lo == pytest.approx(center - half, rel=0, abs=1e-12)
            assert hi == pytest.approx(center + half, rel=0, abs=1e-12)


def test_wilson_interval_reference_value():
    lo, hi = hn.wilson_interval(8, 10)
    # classical Wilson endpoints for 8/10 at z = 1.96
    assert lo == pytest.approx(0.49002, abs=5e-4)
    assert hi == pytest.approx(0.94331, abs=5e-4)
    assert hn.wilson_interval(0, 50)[0] == 0.0
    assert hn.wilson_interval(50, 50)[1] == 1.0
    with pytest.raises(InvalidInput):
        hn.wilson_interval(5, 0)


def test_wilson_interval_rejects_confidence_outside_unit_interval():
    for confidence in (1.0, -0.5, 0.0):
        with pytest.raises(InvalidInput):
            hn.wilson_interval(1, 10, confidence)


def test_report_hypotheses_serialise_infinite_bounds_as_null():
    row = {"constraint": "n <= exp((1-rho)/sqrt(2)*p) / c_kappa", "lhs": 50.0,
           "rhs": math.inf, "satisfied": True}
    rep = hn.ExperimentReport(name="ledger", grid={}, master_seed=0, trials=0, cells=[],
                              hypotheses=[row])
    out = rep.to_json_dict()
    assert out["hypotheses"] == [{**row, "rhs": None}]
    json.dumps(out, allow_nan=False)


def test_a_nan_is_refused_by_name_and_an_infinity_still_becomes_null():
    rep = hn.ExperimentReport(name="x", grid={}, master_seed=0, trials=0, cells=[],
                              extras={"ks": math.nan})
    with pytest.raises(DomainError, match="ks is NaN"):
        rep.to_json_dict()
    rep = hn.ExperimentReport(name="x", grid={}, master_seed=0, trials=0, cells=[],
                              extras={"ks": math.inf, "grid": [1.0, -math.inf]})
    assert rep.to_json_dict()["extras"] == {"ks": None, "grid": [1.0, None]}


def test_ks_distance_handmade():
    # largest gap is below the first sample: |0 - F(0.25)| = 0.25
    samples = np.array([0.25, 0.5, 0.75])
    assert hn.ks_distance(samples, lambda z: z) == pytest.approx(0.25, abs=1e-12)
    shifted = np.array([1.0 / 6.0, 0.5, 5.0 / 6.0])
    assert hn.ks_distance(shifted, lambda z: z) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_mechanical_verdict_rules():
    v = hn.mechanical_verdict
    assert v(0.1, "at_most", 0.2, 0.4) == "violated"
    assert v(0.3, "at_most", 0.2, 0.4) == "supported"
    assert v(0.9, "at_least", 0.2, 0.4) == "violated"
    assert v(0.3, "at_least", 0.2, 0.4) == "supported"
    assert v(1.0, "at_most", 0.2, 0.4, vacuous=True) == "untestable-at-scale"
    assert v(0.5, "at_most", 0.2, 0.4, hypotheses_ok=False) == "untestable-at-scale"


def test_report_cell_validation():
    with pytest.raises(InvalidInput):
        hn.ReportCell("x", observed=1.5, claim=0.5, direction="at_most", verdict="supported")
    with pytest.raises(InvalidInput):
        hn.ReportCell("x", observed=0.5, claim=0.5, direction="sideways", verdict="supported")


def test_trial_table_refuses_a_column_of_another_length():
    table = hn.TrialTable(3, {"p": 4}, {"x": np.zeros(3)}, satisfied={"ok": np.ones(3, dtype=bool)})
    assert len(table) == 3
    for column in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(InvalidInput, match="column x"):
            hn.TrialTable(3, {"p": 4}, {"x": column})


def test_order_stat_audit_small():
    rep = hn.run_order_stat_audit(3, 20, 5, 2000, seed=101)
    assert rep.cells[0].verdict == "supported"
    assert rep.extras["ks"] <= 0.03
    assert len(rep.records) == 2000
    with pytest.raises(InvalidInput):
        hn.run_order_stat_audit(3, 20, 5, 50, seed=1)


def test_order_stat_audit_max_statistic_follows_power_law():
    rep = hn.run_order_stat_audit(4, 9, 9, 2000, seed=102)
    assert rep.cells[0].verdict == "supported"  # KS vs G(z)^p via the same CDF


def test_order_stat_audit_deterministic():
    a = hn.run_order_stat_audit(3, 15, 4, 150, seed=7)
    b = hn.run_order_stat_audit(3, 15, 4, 150, seed=7)
    assert a.to_json_dict() == b.to_json_dict()
    assert table_columns(a.records) == table_columns(b.records)


def test_coherence_audit_reports_violation():
    rep = hn.run_coherence_audit(6, 50, 200, seed=11)
    cell = rep.cells[0]
    assert cell.verdict == "violated"
    assert cell.observed == 0.0
    assert cell.ci_low == 0.0 and cell.ci_high < 0.05
    assert rep.extras["median_coherence"] > 10 * cell.params["threshold"]
    # empirical coherence does concentrate near the sqrt(2 log p / n) scale
    assert rep.extras["freq_below_sqrt_2logp_over_n"] >= 0.3


def test_cap_hit_frequency_matches_cdf_complement():
    # frequency of |<X_1, X_2>| >= h for independent uniform columns is
    # 1 - G(h), the two-sided cap mass
    n, h, draws = 6, 0.5, 20_000
    left = sample_unit_vectors(n, draws, RngStream(500, 0))
    right = sample_unit_vectors(n, draws, RngStream(500, 1))
    freq = float(np.mean(np.abs(np.sum(left * right, axis=1)) >= h))
    prob = 1.0 - an.inner_cdf(h, n)
    assert abs(freq - prob) <= 3.0 * math.sqrt(prob * (1.0 - prob) / draws)


def test_norm_audit_supported_and_bounded():
    rep = hn.run_norm_audit(8, 64, 12, 0.5, 150, seed=21, c_kappa=2.0)
    cell = rep.cells[0]
    assert cell.verdict == "supported"
    assert cell.observed == 0.0
    assert all(h["satisfied"] for h in rep.hypotheses)
    assert "vacuous" in cell.notes
    assert rep.records.satisfied["at_least_one"].all()
    assert rep.records.satisfied["below_frobenius"].all()


def test_norm_audit_hypothesis_gate():
    rep = hn.run_norm_audit(8, 64, 12, 0.5, 150, seed=21, c_kappa=1.0)  # 12 > 8
    assert rep.cells[0].verdict == "untestable-at-scale"


def test_decoupling_audit_trivial_thresholds():
    rep = hn.run_decoupling_audit(5, 12, 3.0, 2, [0.0, 50.0], 150, seed=31)
    for cell in rep.cells:
        assert cell.verdict == "supported"
    by_r = {(c.params["r"], c.label.startswith("P(|R_s")): c for c in rep.cells}
    zero_cell = by_r[(0.0, True)]
    assert zero_cell.params["freq_subset"] == 1.0
    assert zero_cell.observed == pytest.approx(1.0)  # 2*1 - 1
    huge_cell = by_r[(50.0, True)]
    assert huge_cell.params["freq_subset"] == 0.0
    assert huge_cell.observed == 0.0


def test_decoupling_audit_moderate_grid():
    rep = hn.run_decoupling_audit(6, 16, 4.0, 2, [0.3, 0.6], 400, seed=32)
    assert all(c.verdict == "supported" for c in rep.cells)
    assert rep.extras["bootstrap_resamples"] == hn.BOOTSTRAP_RESAMPLES


# (n, p, kappa, s): for kappa > 1 some Bernoulli sets are empty (at kappa 6,
# m = 12, about one in nine), which gives 0.0; kappa 1 makes every Bernoulli
# set full, and with s = p also s == m; at n = 1 every |<X_j, v>| ties, so
# the outer set is the first m indices
@pytest.mark.parametrize("n, p, kappa, s", [
    (5, 12, 6.0, 2), (4, 9, 1.0, 9), (6, 16, 1.0, 3), (3, 10, 2.5, 3), (1, 6, 2.0, 2),
])
def test_decoupling_norms_match_the_per_trial_oracle(n, p, kappa, s):
    rep = hn.run_decoupling_audit(n, p, kappa, s, [0.4], 100, seed=81)
    zeros = 0
    measures = rep.records.measures
    for i in range(len(rep.records)):
        want = decoupling_trial_norms(RngStream(81, i).generator(), n, p, kappa, s)
        assert measures.keys() == want.keys()
        for key, value in want.items():
            assert measures[key][i] == pytest.approx(value, rel=0, abs=1e-12), (i, key)
            if value == 0.0:
                assert measures[key][i] == 0.0
                zeros += 1
    assert (zeros > 0) == (kappa > 1.0)


def test_decoupling_rejects_an_empty_subset_size():
    with pytest.raises(InvalidInput):
        hn.run_decoupling_audit(5, 12, 2.0, 0, [0.4], 100, seed=82)


class _NoDraws(TrialStreams):
    def __init__(self, master_seed):
        raise AssertionError("the audit drew before it checked its parameters")


@pytest.mark.parametrize("run", [
    lambda: hn.run_decoupling_audit(0, 12, 2.0, 2, [0.4], 100, seed=83),
    lambda: hn.run_coherence_audit(4, 1, 100, seed=83),
    lambda: hn.run_norm_audit(4, 12, 0, 0.5, 100, seed=83, c_kappa=1.0),
], ids=["decoupling-n", "coherence-p", "norm-kappa_s"])
def test_out_of_range_audit_parameters_raise_before_any_draw(monkeypatch, run):
    monkeypatch.setattr(hn, "TrialStreams", _NoDraws)
    with pytest.raises(InvalidInput):
        run()


_BLOCK_CASES = {
    "order-stat": lambda: hn.run_order_stat_audit(3, 12, 3, 130, seed=91),
    "decoupling": lambda: hn.run_decoupling_audit(5, 12, 3.0, 2, [0.4], 130, seed=92),
}


@pytest.mark.parametrize("name", sorted(_BLOCK_CASES))
def test_batched_measures_do_not_depend_on_the_block_size(monkeypatch, name):
    default = _BLOCK_CASES[name]()
    for elements in (1, 1500):  # blocks of one trial, and of a few with a short last block
        monkeypatch.setattr(hn, "_BATCH_ELEMENTS", elements)
        rep = _BLOCK_CASES[name]()
        assert table_columns(rep.records) == table_columns(default.records)
        assert rep.to_json_dict() == default.to_json_dict()


@pytest.mark.parametrize("elements", [None, 7 * 150 + 3])
def test_decoupling_bootstrap_matches_the_gather_reference(monkeypatch, elements):
    if elements is not None:  # blocks of 7 replicates, the last one shorter
        monkeypatch.setattr(hn, "_BOOTSTRAP_ELEMENTS", elements)
    trials, seed, grid = 150, 93, [0.2, 0.5, 0.8]
    rep = hn.run_decoupling_audit(6, 16, 4.0, 2, grid, trials, seed=seed)
    a, b, c = (rep.records.measures[key] for key in ("norm_subset", "norm_bernoulli", "norm_decoupled"))
    gen = RngStream(seed, hn._STREAM_BOOTSTRAP).generator()
    idx = gen.integers(0, trials, size=(hn.BOOTSTRAP_RESAMPLES, trials))
    alpha = 1.0 - hn.DEFAULT_CONFIDENCE
    want = []
    for r in grid:
        ind_a, ind_b, ind_c = (a >= r).astype(float), (b >= r).astype(float), (c >= r / 2.0).astype(float)
        for diff in (2.0 * ind_b - ind_a, 36.0 * ind_c - ind_b):
            boot = diff[idx].mean(axis=1)
            want.append((float(np.quantile(boot, alpha / 2.0)),
                         float(np.quantile(boot, 1.0 - alpha / 2.0))))
    assert [(cell.ci_low, cell.ci_high) for cell in rep.cells] == want
    assert len(set(want)) > 2  # the intervals are not all alike


def test_decoupling_audit_memory_is_bounded():
    grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    tracemalloc.start()
    try:
        rep = hn.run_decoupling_audit(8, 24, 4.0, 3, grid, 5000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (2000, 5000) resample index array and one gather through it would
    # take 114 MiB at once
    assert peak < 40 * 2**20
    assert len(rep.cells) == 18


def test_order_stat_audit_and_its_trial_table_grow_by_at_most_640_bytes_per_trial():
    from orthoselect.cli import records_to_csv

    peaks = []
    for trials in (20_000, 100_000):
        tracemalloc.start()
        try:
            rep = hn.run_order_stat_audit(3, 20, 5, trials, seed=1)
            text = records_to_csv(rep.records, {"seed": 1})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert text.count("\n") == trials + 2
        del rep, text
    # the columns, the KS temporaries and the CSV text take about 330 B per
    # trial; one object of four dicts per trial takes about 960 B
    assert (peaks[1] - peaks[0]) / 80_000 <= 640


def test_theorem_audit_untestable_with_ledger():
    rep = hn.run_theorem_audit(4, 120, 2, 0.5, 0.5, 20, seed=41, probes=50,
                             kappa=an.KAPPA_BRANCH_CONSTANT)
    cell = rep.cells[0]
    assert cell.verdict == "untestable-at-scale"
    assert any(not h["satisfied"] for h in rep.hypotheses)
    names = {h["constraint"] for h in rep.hypotheses}
    assert "n >= 6" in names
    assert rep.extras["claimed_probability"] is not None
    assert len(rep.records) == 20
    assert not np.isnan(rep.records.measures["certificate"]).any()


def test_theorem_audit_deterministic():
    a, b = (hn.run_theorem_audit(4, 120, 2, 0.5, 0.5, 20, seed=42, probes=50,
                                 kappa=an.KAPPA_BRANCH_CONSTANT) for _ in range(2))
    assert a.to_json_dict() == b.to_json_dict()


def test_theorem_audit_rejects_net_eps_outside_unit_interval():
    for net_eps in (0.0, 1.0, 1.5):
        with pytest.raises(InvalidInput):
            hn.run_theorem_audit(4, 120, 2, 0.5, net_eps, 20, seed=44, probes=50,
                                 kappa=an.KAPPA_BRANCH_CONSTANT)


def test_theorem_audit_negative_claimed_probability_is_vacuous():
    # at (n=3, p=5) the claimed probability 1 - 5n/(p log^{n-1} p) - 9 p^-n
    # is negative, which alone forces untestable-at-scale
    rep = hn.run_theorem_audit(3, 5, 1, 0.5, 0.5, 20, seed=43, probes=10, kappa=2.0)
    assert rep.extras["claimed_probability"] < 0.0
    assert rep.cells[0].verdict == "untestable-at-scale"


def test_chernoff_audit_cells():
    rep = hn.run_chernoff_audit([0.05, 0.1, 0.3], [0.2, 0.5, 0.8], 2000, seed=51, count=1000)
    assert all(c.verdict == "supported" for c in rep.cells)
    rare = [c for c in rep.cells if "rare event" in c.notes]
    assert rare, "expected at least one rare-event cell at this grid"
    for cell in rep.cells:
        assert cell.params["exact_tail"] <= cell.claim + 1e-15
    # bound decreasing in eps at fixed q
    for q in (0.05, 0.1, 0.3):
        claims = [c.claim for c in rep.cells if c.params["q"] == q]
        assert claims == sorted(claims, reverse=True)


def test_chernoff_draws_in_blocks_as_in_one_draw(monkeypatch):
    q_grid, eps_grid = [0.0, 0.05, 0.3, 0.9, 1.0], [0.2, 0.5]
    whole = hn.run_chernoff_audit(q_grid, eps_grid, 1000, seed=53, count=200)
    monkeypatch.setattr(hn, "_BATCH_ELEMENTS", 7)  # blocks of 7 draws, the last one shorter
    blocked = hn.run_chernoff_audit(q_grid, eps_grid, 1000, seed=53, count=200)
    assert blocked.to_json_dict() == whole.to_json_dict()
    assert table_columns(blocked.records) == table_columns(whole.records)
    # grid cell i counts the draws of one binomial call on its stream (seed, i)
    want = []
    for i, (q, eps) in enumerate((q, eps) for q in q_grid for eps in eps_grid):
        draws = RngStream(53, i).generator().binomial(200, q, size=1000)
        want.append(int(np.sum(draws <= (1.0 - eps) * (200 * q))) / 1000)
    assert blocked.records.measures["frequency"].tolist() == want


def test_chernoff_audit_zero_mean_cell_is_untestable():
    rep = hn.run_chernoff_audit([0.0], [0.5], 150, seed=52, count=1000)
    assert rep.cells[0].verdict == "untestable-at-scale"


def test_report_schema_validates_all_audits():
    reports = [
        hn.run_order_stat_audit(3, 15, 4, 150, seed=61),
        hn.run_coherence_audit(5, 20, 150, seed=62),
        hn.run_norm_audit(6, 32, 8, 0.5, 150, seed=63, c_kappa=2.0),
        hn.run_decoupling_audit(5, 12, 3.0, 2, [0.4], 150, seed=64),
        hn.run_theorem_audit(4, 100, 2, 0.5, 0.5, 20, seed=65, probes=50,
                             kappa=an.KAPPA_BRANCH_CONSTANT),
        hn.run_chernoff_audit([0.1], [0.5], 150, seed=66, count=1000),
    ]
    for rep in reports:
        jsonschema.validate(rep.to_json_dict(), hn.REPORT_SCHEMA)
        assert rep.confidence == hn.DEFAULT_CONFIDENCE
        for cell in rep.cells:
            assert cell.verdict in ("supported", "violated", "untestable-at-scale")


# name -> (a short run, a longer run with the same seed); trial k must not
# depend on how many trials (or, for chernoff, grid cells) follow it
_PREFIX_CASES = {
    "order-stat": (lambda: hn.run_order_stat_audit(3, 12, 3, 100, seed=71),
                   lambda: hn.run_order_stat_audit(3, 12, 3, 130, seed=71)),
    "coherence": (lambda: hn.run_coherence_audit(5, 20, 100, seed=72),
                  lambda: hn.run_coherence_audit(5, 20, 130, seed=72)),
    "norm": (lambda: hn.run_norm_audit(6, 32, 8, 0.5, 100, seed=73, c_kappa=2.0),
             lambda: hn.run_norm_audit(6, 32, 8, 0.5, 130, seed=73, c_kappa=2.0)),
    "decoupling": (lambda: hn.run_decoupling_audit(5, 12, 3.0, 2, [0.4], 100, seed=74),
                   lambda: hn.run_decoupling_audit(5, 12, 3.0, 2, [0.4], 130, seed=74)),
    "theorem": (lambda: hn.run_theorem_audit(3, 30, 2, 0.5, 0.6, 20, seed=75, probes=5, kappa=3.0),
                lambda: hn.run_theorem_audit(3, 30, 2, 0.5, 0.6, 25, seed=75, probes=5, kappa=3.0)),
    "chernoff": (lambda: hn.run_chernoff_audit([0.1], [0.2, 0.5], 150, seed=76, count=1000),
                 lambda: hn.run_chernoff_audit([0.1, 0.3], [0.2, 0.5], 150, seed=76, count=1000)),
}


@pytest.mark.parametrize("name", sorted(_PREFIX_CASES))
def test_trial_records_replay_from_seed_and_index_alone(name):
    short, long = (run() for run in _PREFIX_CASES[name])
    assert len(long.records) > len(short.records)
    assert table_columns(long.records, range(len(short.records))) == table_columns(short.records)


_README_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
_README_TWO_STAGE = {
    "order-stat": lambda: hn.run_order_stat_audit(3, 20, 5, 10_000, seed=1),
    "decoupling": lambda: hn.run_decoupling_audit(8, 24, 4.0, 3, _README_GRID, 5000, seed=1),
}


@pytest.mark.parametrize("name", sorted(_README_TWO_STAGE))
def test_readme_records_equal_the_per_trial_draw_path(monkeypatch, name):
    got = _README_TWO_STAGE[name]()
    monkeypatch.setattr(hn, "_run_trials", trial_records)
    want = _README_TWO_STAGE[name]()
    assert table_columns(got.records) == table_columns(want.records)
    assert got.to_json_dict() == want.to_json_dict()


class _ZeroRow:
    """A stream whose first Gaussian block has row `row` zeroed, which
    `sample_unit_vectors` must draw again."""

    def __init__(self, gen, row):
        self._gen, self._row = gen, row

    def standard_normal(self, size=None):
        out = self._gen.standard_normal(size)
        if self._row is not None:
            out[self._row] = 0.0
        self._row = None
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


# trial 57 lies past the first block when blocks hold 1500 values
_ZEROED = {2, 57}


class _ZeroingStreams(TrialStreams):
    def __init__(self, master_seed, row):
        super().__init__(master_seed)
        self._row = row

    def generator(self, stream_index):
        gen = super().generator(stream_index)
        return _ZeroRow(gen, self._row) if stream_index in _ZEROED else gen


def _decoupling(seed):
    return hn.run_decoupling_audit(5, 12, 3.0, 2, [0.4], 130, seed=seed)


# (seed, zeroed row, run)
_ZERO_ROW_CASES = {
    # the largest |<X_j, e_1>|, which a NaN row would take
    "order-stat": (94, 0, lambda seed: hn.run_order_stat_audit(3, 12, 12, 130, seed=seed)),
    "decoupling": (95, 0, _decoupling),
    # the direction v, the last of the p + 1 rows
    "decoupling-v": (95, -1, _decoupling),
}


@pytest.mark.parametrize("elements", [None, 1500])
@pytest.mark.parametrize("name", sorted(_ZERO_ROW_CASES))
def test_a_zero_row_is_drawn_again_as_sample_unit_vectors_does(monkeypatch, name, elements):
    seed, row, run = _ZERO_ROW_CASES[name]
    if elements is not None:
        monkeypatch.setattr(hn, "_BATCH_ELEMENTS", elements)
    plain = run(seed)
    monkeypatch.setattr(hn, "TrialStreams", functools.partial(_ZeroingStreams, row=row))
    got = run(seed)

    def generator(i):
        gen = RngStream(seed, i).generator()
        return _ZeroRow(gen, row) if i in _ZEROED else gen

    monkeypatch.setattr(hn, "_run_trials", functools.partial(trial_records, generator=generator))
    assert table_columns(got.records) == table_columns(run(seed).records)
    kept = [i for i in range(len(got.records)) if i not in _ZEROED]
    assert table_columns(got.records, kept) == table_columns(plain.records, kept)
    assert all(np.isfinite(column).all() for column in got.records.measures.values())
