"""Seeded Monte Carlo audits of the method's probabilistic claims.

Every audit follows the same protocol: trial i draws all of its randomness
from the stream (master_seed, i), so a rerun with the same seed reproduces
the report bit for bit and any trial can be replayed alone.  An audit states
a per-trial ``draw``, which `_run_trials` runs in index order, on one
`TrialStreams` generator re-keyed to each trial's stream, into named measure
columns; the order-stat and decoupling audits measure a bounded block of
trials in one batched pass whose values do not depend on the block size.
From those columns the audit computes its claim and satisfied columns, one
array expression each, and its report cells; the four groups, params stored
once, make the report's `TrialTable`.  Empirical frequencies carry Wilson
intervals at a recorded confidence level, and verdicts are mechanical:

* ``supported``   - the interval does not exclude the claim,
* ``violated``    - the interval excludes the claim on the wrong side,
* ``untestable-at-scale`` - the claimed probability is vacuous (<= 0 or
  >= 1 in floats) or the claim's stated hypotheses fail at these parameters.

Rare-event claims the trial budget cannot resolve are flagged in the cell
notes and compared in log space against an exact-tail oracle where one
exists; importance sampling is out of scope.

Reports refuse a NaN: `_jsonable` raises `DomainError` naming its key, so a
broken value never looks like an infeasible (+inf, written as null) one.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from . import analytic
from .errors import InvalidInput
from .linalg import coherence, operator_norm, submatrix
from .matrixio import _jsonable
from .selection import SelectionConfig, _subset_positions, estimate_gamma, greedy_outer
from .sphere import (MIN_DRAW_NORM, RngStream, TrialStreams, cube_grid, sample_sphere_matrix,
                     sample_unit_vector, sample_unit_vectors)

DEFAULT_CONFIDENCE = 0.95
BOOTSTRAP_RESAMPLES = 2000
# Every verdict a report cell may carry, as the module docstring defines them.
VERDICTS = ("supported", "violated", "untestable-at-scale")
# Float64 values per trial block of a two-stage audit (2 MiB), binomial draws
# per chernoff block, and bootstrap indices per replicate block.
_BATCH_ELEMENTS = 1 << 18
_BOOTSTRAP_ELEMENTS = 1 << 17
# Claimed-bound constants the audits evaluate: the sub-Gaussian tail constant
# c, and the epsilon and C_kappa at which the theorem audit's ledger is built.
_C_SUBGAUSS = 0.5
_THEOREM_EPSILON = 0.5
_THEOREM_C_KAPPA = 1.0

# Reserved stream offset so trial streams (0..trials-1) never collide with
# the bootstrap.
_STREAM_BOOTSTRAP = 1 << 48


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at DEFAULT_CONFIDENCE."""
    if trials < 1:
        raise InvalidInput("trials must be positive")
    if not 0 <= successes <= trials:
        raise InvalidInput("successes must lie in [0, trials]")
    z = NormalDist().inv_cdf(0.5 + DEFAULT_CONFIDENCE / 2.0)
    f = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (f + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(f * (1.0 - f) / trials + z2 / (4.0 * trials * trials)) / denom
    # the k=0 / k=trials endpoints are exactly 0 / 1; keep them free of
    # cancellation noise so verdicts on rare-event claims stay mechanical
    low = 0.0 if successes == 0 else max(center - half, 0.0)
    high = 1.0 if successes == trials else min(center + half, 1.0)
    return low, high


def ks_distance(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF,
    which is called once, on the sorted sample."""
    xs = np.sort(np.asarray(samples, dtype=float))
    count = xs.size
    if count == 0:
        raise InvalidInput("KS distance of an empty sample")
    fvals = np.asarray(cdf(xs), dtype=float)
    upper = np.arange(1, count + 1) / count
    lower = np.arange(0, count) / count
    return float(max(np.max(np.abs(upper - fvals)), np.max(np.abs(lower - fvals))))


def ks_critical(trials: int) -> float:
    """Asymptotic one-sample KS critical value at DEFAULT_CONFIDENCE."""
    alpha = 1.0 - DEFAULT_CONFIDENCE
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(trials)


@dataclass(frozen=True, eq=False)
class TrialTable:
    """An audit's trials (grid cells for chernoff) as named columns, each an
    array with one entry per row or one value that every row shares."""

    rows: int = 0
    params: dict = field(default_factory=dict)
    measures: dict = field(default_factory=dict)
    claims: dict = field(default_factory=dict)
    satisfied: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for group in (self.params, self.measures, self.claims, self.satisfied):
            for key, column in group.items():
                if isinstance(column, np.ndarray) and column.shape != (self.rows,):
                    raise InvalidInput(f"column {key} has shape {column.shape}, not ({self.rows},)")

    def __len__(self) -> int:
        return self.rows


@dataclass(frozen=True)
class ReportCell:
    """One claim (or one summary statistic) compared against data."""

    label: str
    observed: float | None
    claim: float | None
    direction: str
    verdict: str
    observed_kind: str = "frequency"
    ci_low: float | None = None
    ci_high: float | None = None
    params: dict = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self) -> None:
        if self.direction not in ("at_most", "at_least"):
            raise InvalidInput(f"unknown claim direction {self.direction!r}")
        if self.verdict not in VERDICTS:
            raise InvalidInput(f"unknown verdict {self.verdict!r}")
        if self.observed_kind == "frequency" and self.observed is not None:
            if not 0.0 <= self.observed <= 1.0:
                raise InvalidInput("frequencies must lie in [0, 1]")


@dataclass(frozen=True)
class ExperimentReport:
    """Machine-readable audit result: cells, hypothesis ledger, trial table.
    Its intervals are at DEFAULT_CONFIDENCE, which the JSON records."""

    name: str
    grid: dict
    master_seed: int
    trials: int
    cells: list[ReportCell]
    hypotheses: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    records: TrialTable = field(default_factory=TrialTable)

    def to_json_dict(self) -> dict:
        """Every field but the trial table, which goes to the trials CSV, and
        the confidence."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}
        return _jsonable({**out, "confidence": DEFAULT_CONFIDENCE,
                          "cells": [asdict(c) for c in self.cells]})


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["name", "grid", "master_seed", "trials", "confidence", "cells", "hypotheses", "extras"],
    "properties": {
        "name": {"type": "string"},
        "grid": {"type": "object"},
        "master_seed": {"type": "integer"},
        "trials": {"type": "integer", "minimum": 0},
        "confidence": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "cells": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "observed", "claim", "direction", "verdict"],
                "properties": {
                    "label": {"type": "string"},
                    "observed": {"type": ["number", "null"]},
                    "observed_kind": {"type": "string"},
                    "ci_low": {"type": ["number", "null"]},
                    "ci_high": {"type": ["number", "null"]},
                    "claim": {"type": ["number", "null"]},
                    "direction": {"enum": ["at_most", "at_least"]},
                    "verdict": {"enum": list(VERDICTS)},
                    "params": {"type": "object"},
                    "notes": {"type": "string"},
                },
            },
        },
        "hypotheses": {"type": "array"},
        "extras": {"type": "object"},
    },
}


def mechanical_verdict(
    claim: float,
    direction: str,
    ci_low: float | None,
    ci_high: float | None,
    observed: float | None = None,
    vacuous: bool = False,
    hypotheses_ok: bool = True,
) -> str:
    """Apply the three-valued verdict rule; see the module docstring."""
    if vacuous or not hypotheses_ok:
        return "untestable-at-scale"
    if direction == "at_most":
        ref = ci_low if ci_low is not None else observed
        return "violated" if ref is not None and ref > claim else "supported"
    ref = ci_high if ci_high is not None else observed
    return "violated" if ref is not None and ref < claim else "supported"


def _run_trials(seed: int, trials: int, draw: Callable, measure: Callable | None = None,
                width: int = 1) -> dict[str, np.ndarray]:
    """The float measure columns of trials 0..trials-1, trial i drawn on its
    own stream (seed, i), in index order, a block of trials at a time.

    Without `measure`, a block is one trial and draw(gen) returns its
    measures as a dict.  With it, draw(gen, rows) returns a tuple of
    array-likes holding only the trial's random numbers, the first drawn by
    rows(n, count, gen) as its sphere points, and measure(*stacked) maps the
    draws of a block, stacked along a new first axis by `_draw_block`, to
    measure columns.  `width` is the number of float64 values the measure
    holds per trial, so that a block holds about `_BATCH_ELEMENTS` of them.
    """
    streams = TrialStreams(seed)
    block = max(1, _BATCH_ELEMENTS // width) if measure is not None else 1
    columns: dict[str, np.ndarray] = {}
    for lo in range(0, trials, block):
        hi = min(lo + block, trials)
        out = (draw(streams.generator(lo)) if measure is None
               else measure(*_draw_block(streams, lo, hi, draw)))
        for key, values in out.items():
            columns.setdefault(key, np.empty(trials))[lo:hi] = values
    return columns


def _gaussian_rows(n: int, count: int, gen: np.random.Generator) -> np.ndarray:
    return gen.standard_normal((count, n))


def _draw_block(streams: TrialStreams, lo: int, hi: int, draw: Callable) -> list[np.ndarray]:
    """The stacked draws of trials lo..hi-1, their sphere points on the sphere.

    Each trial draws its points as Gaussian rows, and the block divides them
    by their norms at once, as `sample_unit_vectors` does per trial.  A trial
    with a row that function would draw again is drawn again through it on
    its own stream, so every trial consumes its stream as a per-trial draw
    does.
    """
    stacked = [np.stack(arrays) for arrays in
               zip(*(draw(streams.generator(i), _gaussian_rows) for i in range(lo, hi)))]
    norms = np.linalg.norm(stacked[0], axis=-1)
    for t in np.flatnonzero(np.any(norms <= MIN_DRAW_NORM, axis=-1)).tolist():
        for arr, value in zip(stacked, draw(streams.generator(lo + t), sample_unit_vectors)):
            arr[t] = value
        norms[t] = 1.0
    stacked[0] /= norms[..., None]
    return stacked


def _fixed_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[..., i, k] * b[..., j, k] as (..., i, j), accumulated in the
    order k = 0, 1, ... so every entry is the same for any batch shape, BLAS
    build or thread count."""
    acc = a[..., :, None, 0] * b[..., None, :, 0]
    for k in range(1, a.shape[-1]):
        acc += a[..., :, None, k] * b[..., None, :, k]
    return acc


def _frequency_cell(label: str, hits: int, trials: int, claim: float, direction: str,
                    params: dict, notes: str = "", hypotheses_ok: bool = True) -> ReportCell:
    """A claimed probability against the observed frequency hits/trials; a
    claim <= 0 or >= 1 is vacuous."""
    lo, hi = wilson_interval(hits, trials)
    verdict = mechanical_verdict(claim, direction, lo, hi, vacuous=claim <= 0.0 or claim >= 1.0,
                                 hypotheses_ok=hypotheses_ok)
    return ReportCell(label=label, observed=hits / trials, claim=claim, direction=direction,
                      verdict=verdict, ci_low=lo, ci_high=hi, params=params, notes=notes)


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------

def run_order_stat_audit(n: int, p: int, r: int, trials: int, seed: int) -> ExperimentReport:
    """Empirical law of the r-th smallest |<X_j, v>| against the analytic CDF."""
    if trials < 100:
        raise InvalidInput("order-stat audit needs at least 100 trials")
    spec = analytic.OrderStatSpec(p=p, r=r, n=n)
    grid = {"n": n, "p": p, "r": r}

    def draw(gen: np.random.Generator, rows: Callable) -> tuple[np.ndarray]:
        return (rows(n, p, gen),)

    def measure(x: np.ndarray) -> dict:
        # rows of x are the columns X_j; with v = e_1, |<X_j, v>| is |X[0, j]|
        return {"z_r": np.partition(np.abs(x[:, :, 0]), r - 1, axis=1)[:, r - 1]}

    measures = _run_trials(seed, trials, draw, measure, width=n * p)
    ks = ks_distance(measures["z_r"], lambda z: analytic.order_stat_cdf(z, spec))
    crit = ks_critical(trials)
    cell = ReportCell(
        label="order-statistic law: KS(empirical, analytic CDF)",
        observed=ks,
        observed_kind="ks",
        claim=crit,
        direction="at_most",
        verdict=mechanical_verdict(crit, "at_most", None, None, observed=ks),
        params=grid,
        notes=f"KS critical value at {DEFAULT_CONFIDENCE:.2f} confidence",
    )
    return ExperimentReport(
        name="order-stat", grid=grid, master_seed=seed, trials=trials, cells=[cell],
        extras={"ks": ks, "ks_critical": crit}, records=TrialTable(trials, grid, measures),
    )


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------

def run_coherence_audit(n: int, p: int, trials: int, seed: int) -> ExperimentReport:
    """Does coherence stay below p^-2/2 with probability 1 - p^-n?

    The empirical coherence of sphere-uniform columns concentrates near
    sqrt(2 log(p) / n), so the claim is expected to come back violated; the
    audit records where, rather than assuming either side.  `welch_bound`
    records why: any p > n unit vectors in R^n have coherence at least
    sqrt((p - n) / (n (p - 1))) (Welch), which exceeds p^-2/2 whenever
    p > n, so the claim fails for every matrix, not only the sample.
    """
    if trials < 100:
        raise InvalidInput("coherence audit needs at least 100 trials")
    if n < 1:
        raise InvalidInput("n must be at least 1")
    if p < 2:
        raise InvalidInput("p must be at least 2")
    claim_threshold = 0.5 * p**-2
    reference_scale = math.sqrt(2.0 * math.log(p) / n)
    welch_bound = math.sqrt((p - n) / (n * (p - 1))) if p > n else 0.0
    claimed_prob = 1.0 - p ** float(-n)
    grid = {"n": n, "p": p}

    def draw(gen: np.random.Generator) -> dict:
        return {"coherence": coherence(sample_sphere_matrix(n, p, gen))}

    measures = _run_trials(seed, trials, draw)
    mus = measures["coherence"]
    below = mus <= claim_threshold
    ref_hits = int(np.sum(mus <= reference_scale))
    cell = _frequency_cell(
        "coherence <= p^-2/2 with probability 1 - p^-n",
        int(np.sum(below)), trials, claimed_prob, "at_least",
        {"threshold": claim_threshold, "n": n, "p": p},
    )
    return ExperimentReport(
        name="coherence", grid=grid, master_seed=seed, trials=trials, cells=[cell],
        extras={
            "median_coherence": float(np.median(mus)),
            "freq_below_sqrt_2logp_over_n": ref_hits / trials,
            "sqrt_2logp_over_n": reference_scale,
            "ci_below_sqrt_scale": list(wilson_interval(ref_hits, trials)),
            "welch_bound": welch_bound,
        },
        records=TrialTable(trials, grid, measures, {"threshold": claim_threshold},
                           {"below_threshold": below}),
    )


# ---------------------------------------------------------------------------
# operator norm of the outer matrix
# ---------------------------------------------------------------------------

def run_norm_audit(n: int, p: int, kappa_s: int, epsilon: float, trials: int, seed: int,
                   c_kappa: float) -> ExperimentReport:
    """Tail of |X_outer| against the claimed threshold and 8 p^-n probability."""
    if trials < 100:
        raise InvalidInput("norm audit needs at least 100 trials")
    if not 1 <= kappa_s <= p:
        raise InvalidInput("kappa_s must lie in [1, p]")
    if n < 1:
        raise InvalidInput("n must be at least 1")
    if p < 2:
        raise InvalidInput("p must be at least 2")
    if not 0.0 < epsilon < 1.0:
        raise InvalidInput("epsilon must lie in (0, 1)")
    if not (math.isfinite(c_kappa) and c_kappa > 0.0):
        raise InvalidInput("c_kappa must be finite and positive")
    k_eps = analytic.k_epsilon(epsilon, c_kappa)
    threshold = analytic.norm_threshold_u(n, kappa_s, epsilon, _C_SUBGAUSS, k_eps, p)
    claimed_prob = 8.0 * p ** float(-n)
    hypotheses = [
        analytic.p_minimum_row(p),
        analytic.ledger_row("kappa_s <= c_kappa * n", kappa_s, c_kappa * n, kappa_s <= c_kappa * n),
    ]
    grid = {"n": n, "p": p, "kappa_s": kappa_s, "eps": epsilon}

    def draw(gen: np.random.Generator) -> dict:
        x = sample_sphere_matrix(n, p, gen)
        v = sample_unit_vector(n, gen)
        return {"outer_norm": operator_norm(submatrix(x, greedy_outer(x, v, kappa_s)).data)}

    measures = _run_trials(seed, trials, draw)
    norms = measures["outer_norm"]
    satisfied = {
        "exceeds_threshold": norms >= threshold,
        "at_least_one": norms >= 1.0 - 1e-12,
        "below_frobenius": norms <= math.sqrt(kappa_s) + 1e-12,
    }
    max_norm = float(np.max(norms))
    cell = _frequency_cell(
        "P(|X_outer| >= threshold) <= 8 p^-n",
        int(np.sum(satisfied["exceeds_threshold"])), trials, claimed_prob, "at_most",
        {"threshold": threshold},
        notes=(
            f"threshold {threshold:.6g} vs max observed norm {max_norm:.6g}; "
            "a large gap means the claim is supported vacuously at this scale"
        ),
        hypotheses_ok=all(h["satisfied"] for h in hypotheses),
    )
    return ExperimentReport(
        name="norm", grid=grid, master_seed=seed, trials=trials, cells=[cell],
        hypotheses=hypotheses,
        extras={"max_norm": max_norm, "threshold": threshold, "mean_norm": float(np.mean(norms))},
        records=TrialTable(trials, grid, measures, {"threshold": threshold}, satisfied),
    )


# ---------------------------------------------------------------------------
# Poissonization / decoupling
# ---------------------------------------------------------------------------

def _bootstrap_sums(hits: np.ndarray, seed: int) -> np.ndarray:
    """Row sums of `hits` (k, trials) over BOOTSTRAP_RESAMPLES resamples of
    its columns, as (BOOTSTRAP_RESAMPLES, k).

    The resample indices are drawn from stream (seed, _STREAM_BOOTSTRAP) in
    replicate blocks, which consume it exactly as one (resamples, trials)
    draw would.  Each block counts its indices into a (replicates, trials)
    matrix and takes one product with `hits`; with 0/1 hits the sums are
    integers, so they are exact in any summation order.
    """
    trials = hits.shape[1]
    gen = RngStream(seed, _STREAM_BOOTSTRAP).generator()
    block = max(1, _BOOTSTRAP_ELEMENTS // trials)
    sums = np.empty((BOOTSTRAP_RESAMPLES, hits.shape[0]))
    for lo in range(0, BOOTSTRAP_RESAMPLES, block):
        count = min(block, BOOTSTRAP_RESAMPLES - lo)
        idx = gen.integers(0, trials, size=(count, trials), dtype=np.int32)
        idx += np.arange(0, count * trials, trials, dtype=np.int32)[:, None]
        counts = np.bincount(idx.ravel(), minlength=count * trials).reshape(count, trials)
        sums[lo:lo + count] = counts @ hits.T
    return sums


def run_decoupling_audit(n: int, p: int, kappa: float, s: int, r_grid: Sequence[float],
                         trials: int, seed: int) -> ExperimentReport:
    """Audit the two restriction inequalities on H = X_outer^T X_outer - I:

    P(|R_s H R_s| >= r)  <= 2  P(|R H R| >= r)          (fixed-size -> Bernoulli)
    P(|R H R| >= r)      <= 36 P(|R H R'| >= r/2)       (decoupling)

    with R, R' independent Bernoulli(1/kappa) diagonal restrictions and R_s a
    uniform s-subset restriction.  Bootstrap percentile intervals (paired over
    trials) judge each inequality.
    """
    if trials < 100:
        raise InvalidInput("decoupling audit needs at least 100 trials")
    if n < 1:
        raise InvalidInput("n must be at least 1")
    if not r_grid:
        raise InvalidInput("r_grid must be nonempty")
    if s < 1:
        raise InvalidInput("s must be at least 1")
    # kappa >= 1 keeps the Bernoulli rate 1/kappa in (0, 1]
    if not (math.isfinite(kappa) and kappa >= 1.0):
        raise InvalidInput("kappa must be finite and at least 1")
    m = math.ceil(kappa * s)
    if m > p:
        raise InvalidInput("kappa*s must not exceed p")
    rate = 1.0 / kappa
    r_values = [float(r) for r in r_grid]

    def draw(gen: np.random.Generator, rows: Callable) -> tuple:
        # the p columns and the direction v as p + 1 sphere rows (v last),
        # the s Fisher-Yates swap targets and the three Bernoulli uniforms, in
        # the order the trial consumes them (s scalar draws: the numbers of
        # one broadcast gen.integers(arange(s), m), in less time)
        return rows(n, p + 1, gen), [gen.integers(i, m) for i in range(s)], gen.random((3, m))

    def measure(xv: np.ndarray, swaps: np.ndarray, u: np.ndarray) -> dict:
        x, v = xv[:, :p], xv[:, p]
        trial = np.arange(x.shape[0])
        # greedy_outer's set (the m smallest |<X_j, v>|, ties to the smaller
        # index), listed by index; the rows of x are the columns X_j
        values = np.abs(_fixed_dot(x, v[:, None, :])[..., 0])
        outer = np.sort(values.argsort(axis=1, kind="stable")[:, :m], axis=1)
        x_outer = x[trial[:, None], outer]
        h = _fixed_dot(x_outer, x_outer) - np.eye(m)

        def masked(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            return h * (rows[:, :, None] & cols[:, None, :])

        subset = np.zeros((x.shape[0], m), dtype=bool)
        subset[trial[:, None], _subset_positions(m, swaps)] = True
        same, left, right = (u < rate).transpose(1, 0, 2)
        cross_t = masked(left, right).transpose(0, 2, 1)
        # |D H D| is the largest |eigenvalue| of the masked D H D, and
        # |D_L H D_R| the root of the largest eigenvalue of its Gram matrix
        lam = np.linalg.eigvalsh(np.stack(
            [h, masked(subset, subset), masked(same, same), _fixed_dot(cross_t, cross_t)], axis=1))
        principal = np.maximum(np.abs(lam[:, :3, 0]), np.abs(lam[:, :3, -1]))
        return {
            "norm_subset": principal[:, 1],
            "norm_bernoulli": principal[:, 2],
            "norm_decoupled": np.sqrt(np.maximum(lam[:, 3, -1], 0.0)),
            "norm_h": principal[:, 0],
        }

    measures = _run_trials(seed, trials, draw, measure, width=n * p + 4 * m * m)
    a, b, c = (measures[key] for key in ("norm_subset", "norm_bernoulli", "norm_decoupled"))

    # one 0/1 row per (r, inequality side): |R_s H R_s| >= r, |R H R| >= r,
    # |R H R'| >= r/2
    hits = np.array([col >= t for r in r_values for col, t in ((a, r), (b, r), (c, r / 2.0))],
                    dtype=float)
    freqs = hits.mean(axis=1).tolist()
    sums = _bootstrap_sums(hits, seed)
    alpha = 1.0 - DEFAULT_CONFIDENCE
    cells: list[ReportCell] = []
    for i, r in enumerate(r_values):
        f_a, f_b, f_c = freqs[3 * i:3 * i + 3]
        sum_a, sum_b, sum_c = sums[:, 3 * i:3 * i + 3].T
        params = {"r": r, "freq_subset": f_a, "freq_bernoulli": f_b, "freq_decoupled": f_c}
        for label, boot_sum, observed in (
            (f"P(|R_s H R_s| >= r) <= 2 P(|R H R| >= r), r={r:g}", 2.0 * sum_b - sum_a,
             2.0 * f_b - f_a),
            (f"P(|R H R| >= r) <= 36 P(|R H R'| >= r/2), r={r:g}", 36.0 * sum_c - sum_b,
             36.0 * f_c - f_b),
        ):
            boot = boot_sum / trials
            lo = float(np.quantile(boot, alpha / 2.0))
            hi = float(np.quantile(boot, 1.0 - alpha / 2.0))
            cells.append(ReportCell(
                label=label, observed=observed, observed_kind="probability_margin", claim=0.0,
                direction="at_least", verdict=mechanical_verdict(0.0, "at_least", lo, hi),
                ci_low=lo, ci_high=hi, params=params,
                notes="bootstrap percentile interval over paired trials",
            ))
    return ExperimentReport(
        name="decoupling", grid={"n": n, "p": p, "kappa": kappa, "s": s, "r_grid": r_values},
        master_seed=seed, trials=trials, cells=cells,
        extras={"bootstrap_resamples": BOOTSTRAP_RESAMPLES,
                "mean_norm_h": float(np.mean(measures["norm_h"]))},
        records=TrialTable(trials, {"n": n, "p": p, "kappa": kappa, "s": s}, measures),
    )


# ---------------------------------------------------------------------------
# headline guarantee
# ---------------------------------------------------------------------------

def run_theorem_audit(n: int, p: int, s: int, rho: float, net_eps: float, trials: int,
                      seed: int, probes: int, kappa: float) -> ExperimentReport:
    """Certificate vs the claimed 80 log(p)/p bound, with the hypothesis ledger.

    The headline probability 1 - 5n/(p log(p)^{n-1}) - 9 p^-n is evaluated
    verbatim; at desk scale the hypothesis ledger fails (the 648/C_k floor on
    n is unreachable), so the mechanical verdict is untestable-at-scale and
    the per-trial certificates are reported as data.
    """
    if trials < 20:
        raise InvalidInput("theorem audit needs at least 20 trials")
    if not 0.0 < net_eps < 1.0:
        raise InvalidInput("net_eps must lie in (0, 1)")
    if p < 2:
        raise InvalidInput("p must be at least 2")
    if probes < 0:
        raise InvalidInput("probes must be nonnegative")
    cfg = SelectionConfig(s=s, rho_minus=rho, kappa=kappa)
    if math.ceil(kappa * s) > p:
        raise InvalidInput("kappa*s must not exceed p")
    net = cube_grid(n, net_eps)
    bound = analytic.claimed_gamma_bound(p)
    lp = math.log(p)
    claimed_prob = 1.0 - 5.0 * n / (p * lp ** (n - 1)) - 9.0 * p ** float(-n)
    constants = analytic.derive_constants(
        n, p, s, rho, _THEOREM_EPSILON, _THEOREM_C_KAPPA, _C_SUBGAUSS
    )
    ledger = analytic.constraint_check(constants)
    grid = {"n": n, "p": p, "s": s, "rho_minus": rho, "net_eps": net_eps}

    def draw(gen: np.random.Generator) -> dict:
        est = estimate_gamma(sample_sphere_matrix(n, p, gen), cfg, net, probes, gen)
        return {
            "certificate": est.certified_upper,
            "heuristic_lower": est.heuristic_lower,
            "feasibility_rate": est.feasibility_rate,
        }

    measures = _run_trials(seed, trials, draw)
    certs = measures["certificate"]
    below = certs <= bound
    finite_certs = certs[np.isfinite(certs)]
    cell = _frequency_cell(
        "P(gamma certificate <= 80 log(p)/p) >= claimed probability",
        int(np.sum(below)), trials,
        claimed_prob, "at_least", {"gamma_bound": bound, "net_size": len(net)},
        hypotheses_ok=all(row["satisfied"] for row in ledger),
    )
    return ExperimentReport(
        name="theorem", grid=grid, master_seed=seed, trials=trials, cells=[cell],
        hypotheses=ledger,
        extras={
            "claimed_probability": claimed_prob,
            "gamma_bound": bound,
            "net": net.descriptor(),
            "max_certificate": float(np.max(finite_certs)) if finite_certs.size else None,
        },
        records=TrialTable(trials, grid, measures, {"gamma_bound": bound},
                           {"certificate_below_bound": below}),
    )


# ---------------------------------------------------------------------------
# binomial concentration
# ---------------------------------------------------------------------------

def run_chernoff_audit(q_grid: Sequence[float], eps_grid: Sequence[float], trials: int,
                       seed: int, count: int) -> ExperimentReport:
    """Empirical binomial lower tails against exp(-eps^2 mean / 2).

    Cells whose bound is too small for the trial budget are flagged and also
    compared in log space against the exact tail (incomplete-beta identity).
    The trial table holds one row per grid cell; grid cell i draws its trials
    from stream (seed, i) in blocks, which consume it as one draw would.
    """
    if trials < 100:
        raise InvalidInput("chernoff audit needs at least 100 trials")
    if not q_grid or not eps_grid:
        raise InvalidInput("grids must be nonempty")
    if count < 0:
        raise InvalidInput("count must be nonnegative")
    q_values = [float(q) for q in q_grid]
    if not all(0.0 <= q <= 1.0 for q in q_values):
        raise InvalidInput("success probabilities must lie in [0, 1]")
    eps_values = [float(e) for e in eps_grid]
    if not all(0.0 < e < 1.0 for e in eps_values):
        raise InvalidInput("eps must lie in (0, 1)")
    q_column, eps_column = np.array(list(product(q_values, eps_values))).T
    freqs, exacts, bounds = np.empty((3, q_column.size))
    cells: list[ReportCell] = []
    for i, (q, eps) in enumerate(zip(q_column.tolist(), eps_column.tolist())):
        gen = RngStream(seed, i).generator()
        mean = count * q
        cutoff = (1.0 - eps) * mean
        hits = 0
        for lo in range(0, trials, _BATCH_ELEMENTS):
            draws = gen.binomial(count, q, size=min(_BATCH_ELEMENTS, trials - lo))
            hits += int(np.sum(draws <= cutoff))
        bound = analytic.chernoff_lower(eps, mean)
        exact = analytic.binomial_cdf(math.floor(cutoff), count, q)
        params = {"q": q, "eps": eps, "count": count}
        freqs[i], exacts[i], bounds[i] = hits / trials, exact, bound
        notes = ""
        if bound < 10.0 / trials:
            log_exact = math.log10(exact) if exact > 0.0 else -math.inf
            notes = (
                f"rare event: bound below sampling resolution; log10 exact tail "
                f"{log_exact:.3f} vs log10 bound {math.log10(bound):.3f}"
            )
        cells.append(_frequency_cell(
            f"P(B <= (1-eps) E B) <= exp(-eps^2 E B / 2), q={q:g}, eps={eps:g}",
            hits, trials, bound, "at_most", {**params, "exact_tail": exact}, notes,
        ))
    return ExperimentReport(
        name="chernoff",
        grid={"p_success_grid": q_values, "eps_grid": eps_values, "count": count},
        master_seed=seed,
        trials=trials,
        cells=cells,
        records=TrialTable(q_column.size, {"q": q_column, "eps": eps_column, "count": count},
                           {"frequency": freqs, "exact_tail": exacts}, {"bound": bounds},
                           {"within_bound": freqs <= bounds}),
    )
