"""Seeded Monte Carlo audits of the method's probabilistic claims.

Every audit follows the same protocol: trial i draws all of its randomness
from the stream (master_seed, i), so a rerun with the same seed reproduces
the report bit for bit and any trial can be replayed alone.  Trials run in
index order.  Empirical frequencies carry Wilson intervals at a recorded
confidence level, and verdicts are mechanical:

* ``supported``   - the interval does not exclude the claim,
* ``violated``    - the interval excludes the claim on the wrong side,
* ``untestable-at-scale`` - the claimed probability is vacuous (<= 0 or
  >= 1 in floats) or the claim's stated hypotheses fail at these parameters.

Rare-event claims the trial budget cannot resolve are flagged in the cell
notes and compared in log space against an exact-tail oracle where one
exists; importance sampling is out of scope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import analytic
from .errors import InvalidInput
from .linalg import coherence, operator_norm, submatrix
from .selection import SelectionConfig, estimate_gamma, greedy_outer
from .sphere import RngStream, build_eps_net, sample_sphere_matrix, sample_unit_vector

DEFAULT_CONFIDENCE = 0.95
BOOTSTRAP_RESAMPLES = 2000
# Claimed-bound constants the audits evaluate: the sub-Gaussian tail constant
# c, and the epsilon and C_kappa at which the theorem audit's ledger is built.
_C_SUBGAUSS = 0.5
_THEOREM_EPSILON = 0.5
_THEOREM_C_KAPPA = 1.0

# Reserved stream offsets so trial streams (0..trials-1) never collide with
# auxiliary consumers.
_STREAM_BOOTSTRAP = 1 << 48
_STREAM_NET = (1 << 48) + 1


def _normal_quantile(prob: float) -> float:
    """Inverse standard normal CDF (Acklam's rational approximation, ~1e-9)."""
    if not 0.0 < prob < 1.0:
        raise InvalidInput("quantile level must lie in (0, 1)")
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if prob < p_low:
        q = math.sqrt(-2.0 * math.log(prob))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if prob > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - prob))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = prob - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def wilson_interval(successes: int, trials: int, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidInput("trials must be positive")
    if not 0 <= successes <= trials:
        raise InvalidInput("successes must lie in [0, trials]")
    z = _normal_quantile(0.5 + confidence / 2.0)
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


def ks_distance(samples: np.ndarray, cdf: Callable[[float], float]) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    count = xs.size
    if count == 0:
        raise InvalidInput("KS distance of an empty sample")
    fvals = np.array([cdf(float(x)) for x in xs])
    upper = np.arange(1, count + 1) / count
    lower = np.arange(0, count) / count
    return float(max(np.max(np.abs(upper - fvals)), np.max(np.abs(lower - fvals))))


def ks_critical(trials: int, confidence: float = DEFAULT_CONFIDENCE) -> float:
    """Asymptotic one-sample KS critical value at the given confidence."""
    alpha = 1.0 - confidence
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(trials)


@dataclass(frozen=True)
class TrialRecord:
    """One trial's inputs and measurements, replayable from (seed, index)."""

    trial_index: int
    stream_index: int
    params: dict
    measures: dict
    claims: dict = field(default_factory=dict)
    satisfied: dict = field(default_factory=dict)


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
        if self.verdict not in ("supported", "violated", "untestable-at-scale"):
            raise InvalidInput(f"unknown verdict {self.verdict!r}")
        if self.observed_kind == "frequency" and self.observed is not None:
            if not 0.0 <= self.observed <= 1.0:
                raise InvalidInput("frequencies must lie in [0, 1]")


@dataclass(frozen=True)
class ExperimentReport:
    """Machine-readable audit result: cells, hypothesis ledger, trial records."""

    name: str
    grid: dict
    master_seed: int
    trials: int
    confidence: float
    cells: list[ReportCell]
    hypotheses: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    records: list[TrialRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "grid": self.grid,
            "master_seed": self.master_seed,
            "trials": self.trials,
            "confidence": self.confidence,
            "cells": [
                {
                    "label": c.label,
                    "observed": _jsonable(c.observed),
                    "observed_kind": c.observed_kind,
                    "ci_low": _jsonable(c.ci_low),
                    "ci_high": _jsonable(c.ci_high),
                    "claim": _jsonable(c.claim),
                    "direction": c.direction,
                    "verdict": c.verdict,
                    "params": {k: _jsonable(v) for k, v in c.params.items()},
                    "notes": c.notes,
                }
                for c in self.cells
            ],
            "hypotheses": self.hypotheses,
            "extras": {k: _jsonable(v) for k, v in self.extras.items()},
        }


def _jsonable(value):
    """Floats that JSON cannot carry (inf, nan) become null; the rest pass."""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


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
                    "verdict": {"enum": ["supported", "violated", "untestable-at-scale"]},
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


def _probability_vacuous(claim: float) -> bool:
    return claim <= 0.0 or claim >= 1.0


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------

def run_order_stat_audit(n: int, p: int, r: int, trials: int, seed: int) -> ExperimentReport:
    """Empirical law of the r-th smallest |<X_j, v>| against the analytic CDF."""
    if trials < 100:
        raise InvalidInput("order-stat audit needs at least 100 trials")
    spec = analytic.OrderStatSpec(p=p, r=r, n=n)
    v = np.zeros(n)
    v[0] = 1.0

    def one_trial(i: int) -> TrialRecord:
        gen = RngStream(seed, i).generator()
        x = sample_sphere_matrix(n, p, gen)
        vals = np.abs(x.data.T @ v)
        z_r = float(np.partition(vals, r - 1)[r - 1])
        return TrialRecord(i, i, {"n": n, "p": p, "r": r}, {"z_r": z_r})

    records = [one_trial(i) for i in range(trials)]
    samples = np.array([rec.measures["z_r"] for rec in records])
    ks = ks_distance(samples, lambda z: analytic.order_stat_cdf(z, spec))
    crit = ks_critical(trials)
    cells = [
        ReportCell(
            label="order-statistic law: KS(empirical, analytic CDF)",
            observed=ks,
            observed_kind="ks",
            claim=crit,
            direction="at_most",
            verdict=mechanical_verdict(crit, "at_most", None, None, observed=ks),
            params={"n": n, "p": p, "r": r},
            notes=f"KS critical value at {DEFAULT_CONFIDENCE:.2f} confidence",
        )
    ]
    return ExperimentReport(
        name="order-stat",
        grid={"n": n, "p": p, "r": r},
        master_seed=seed,
        trials=trials,
        confidence=DEFAULT_CONFIDENCE,
        cells=cells,
        extras={"ks": ks, "ks_critical": crit},
        records=records,
    )


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------

def run_coherence_audit(n: int, p: int, trials: int, seed: int) -> ExperimentReport:
    """Does coherence stay below p^-2/2 with probability 1 - p^-n?

    The empirical coherence of sphere-uniform columns concentrates near
    sqrt(2 log(p) / n), so the claim is expected to come back violated; the
    audit records where, rather than assuming either side.
    """
    if trials < 100:
        raise InvalidInput("coherence audit needs at least 100 trials")
    claim_threshold = 0.5 * p**-2
    reference_scale = math.sqrt(2.0 * math.log(p) / n)
    claimed_prob = 1.0 - p ** float(-n)

    def one_trial(i: int) -> TrialRecord:
        gen = RngStream(seed, i).generator()
        mu = coherence(sample_sphere_matrix(n, p, gen))
        return TrialRecord(
            i,
            i,
            {"n": n, "p": p},
            {"coherence": mu},
            claims={"threshold": claim_threshold},
            satisfied={"below_threshold": mu <= claim_threshold},
        )

    records = [one_trial(i) for i in range(trials)]
    mus = np.array([rec.measures["coherence"] for rec in records])
    hits = int(np.sum(mus <= claim_threshold))
    lo, hi = wilson_interval(hits, trials)
    ref_hits = int(np.sum(mus <= reference_scale))
    ref_lo, ref_hi = wilson_interval(ref_hits, trials)
    cells = [
        ReportCell(
            label="coherence <= p^-2/2 with probability 1 - p^-n",
            observed=hits / trials,
            claim=claimed_prob,
            direction="at_least",
            verdict=mechanical_verdict(
                claimed_prob, "at_least", lo, hi, vacuous=_probability_vacuous(claimed_prob)
            ),
            ci_low=lo,
            ci_high=hi,
            params={"threshold": claim_threshold, "n": n, "p": p},
        )
    ]
    return ExperimentReport(
        name="coherence",
        grid={"n": n, "p": p},
        master_seed=seed,
        trials=trials,
        confidence=DEFAULT_CONFIDENCE,
        cells=cells,
        extras={
            "median_coherence": float(np.median(mus)),
            "freq_below_sqrt_2logp_over_n": ref_hits / trials,
            "sqrt_2logp_over_n": reference_scale,
            "ci_below_sqrt_scale": [ref_lo, ref_hi],
        },
        records=records,
    )


# ---------------------------------------------------------------------------
# operator norm of the outer matrix
# ---------------------------------------------------------------------------

def run_norm_audit(
    n: int,
    p: int,
    kappa_s: int,
    eps: float,
    trials: int,
    seed: int,
    c_kappa: float = 2.0,
) -> ExperimentReport:
    """Tail of |X_outer| against the claimed threshold and 8 p^-n probability."""
    if trials < 100:
        raise InvalidInput("norm audit needs at least 100 trials")
    if kappa_s > p:
        raise InvalidInput("kappa_s must not exceed p")
    k_eps = analytic.k_epsilon(eps, c_kappa)
    threshold = analytic.norm_threshold_u(n, kappa_s, eps, _C_SUBGAUSS, k_eps, p)
    claimed_prob = 8.0 * p ** float(-n)
    hypotheses = [
        {
            "constraint": "p >= ceil(exp(6/sqrt(2*pi)))",
            "lhs": float(p),
            "rhs": float(analytic.P_MINIMUM),
            "satisfied": p >= analytic.P_MINIMUM,
        },
        {
            "constraint": "kappa_s <= c_kappa * n",
            "lhs": float(kappa_s),
            "rhs": float(c_kappa * n),
            "satisfied": kappa_s <= c_kappa * n,
        },
    ]
    hypotheses_ok = all(h["satisfied"] for h in hypotheses)

    def one_trial(i: int) -> TrialRecord:
        gen = RngStream(seed, i).generator()
        x = sample_sphere_matrix(n, p, gen)
        v = sample_unit_vector(n, gen)
        outer = greedy_outer(x, v, kappa_s)
        norm = operator_norm(submatrix(x, outer).data)
        return TrialRecord(
            i,
            i,
            {"n": n, "p": p, "kappa_s": kappa_s, "eps": eps},
            {"outer_norm": norm},
            claims={"threshold": threshold},
            satisfied={
                "exceeds_threshold": norm >= threshold,
                "at_least_one": norm >= 1.0 - 1e-12,
                "below_frobenius": norm <= math.sqrt(kappa_s) + 1e-12,
            },
        )

    records = [one_trial(i) for i in range(trials)]
    norms = np.array([rec.measures["outer_norm"] for rec in records])
    hits = int(np.sum(norms >= threshold))
    lo, hi = wilson_interval(hits, trials)
    max_norm = float(np.max(norms))
    cells = [
        ReportCell(
            label="P(|X_outer| >= threshold) <= 8 p^-n",
            observed=hits / trials,
            claim=claimed_prob,
            direction="at_most",
            verdict=mechanical_verdict(
                claimed_prob,
                "at_most",
                lo,
                hi,
                vacuous=_probability_vacuous(claimed_prob),
                hypotheses_ok=hypotheses_ok,
            ),
            ci_low=lo,
            ci_high=hi,
            params={"threshold": threshold},
            notes=(
                f"threshold {threshold:.6g} vs max observed norm {max_norm:.6g}; "
                "a large gap means the claim is supported vacuously at this scale"
            ),
        )
    ]
    return ExperimentReport(
        name="norm",
        grid={"n": n, "p": p, "kappa_s": kappa_s, "eps": eps},
        master_seed=seed,
        trials=trials,
        confidence=DEFAULT_CONFIDENCE,
        cells=cells,
        hypotheses=hypotheses,
        extras={"max_norm": max_norm, "threshold": threshold, "mean_norm": float(np.mean(norms))},
        records=records,
    )


# ---------------------------------------------------------------------------
# Poissonization / decoupling
# ---------------------------------------------------------------------------

def _principal_norm(h: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    if rows.size == 0 or cols.size == 0:
        return 0.0
    return operator_norm(h[np.ix_(rows, cols)])


def run_decoupling_audit(
    n: int,
    p: int,
    kappa: float,
    s: int,
    r_grid: Sequence[float],
    trials: int,
    seed: int,
) -> ExperimentReport:
    """Audit the two restriction inequalities on H = X_outer^T X_outer - I:

    P(|R_s H R_s| >= r)  <= 2  P(|R H R| >= r)          (fixed-size -> Bernoulli)
    P(|R H R| >= r)      <= 36 P(|R H R'| >= r/2)       (decoupling)

    with R, R' independent Bernoulli(1/kappa) diagonal restrictions and R_s a
    uniform s-subset restriction.  Bootstrap percentile intervals (paired over
    trials) judge each inequality.
    """
    if trials < 100:
        raise InvalidInput("decoupling audit needs at least 100 trials")
    if not r_grid:
        raise InvalidInput("r_grid must be nonempty")
    m = math.ceil(kappa * s)
    if m > p:
        raise InvalidInput("kappa*s must not exceed p")
    rate = 1.0 / kappa
    if not 0.0 < rate <= 1.0:
        raise InvalidInput("Bernoulli rate 1/kappa must lie in (0, 1]")
    r_values = [float(r) for r in r_grid]

    def one_trial(i: int) -> TrialRecord:
        gen = RngStream(seed, i).generator()
        x = sample_sphere_matrix(n, p, gen)
        v = sample_unit_vector(n, gen)
        outer = greedy_outer(x, v, m)
        sub = submatrix(x, outer)
        h = sub.data.T @ sub.data - np.eye(m)
        pos = list(range(m))
        for k in range(s):
            j = int(gen.integers(k, m))
            pos[k], pos[j] = pos[j], pos[k]
        s_idx = np.array(sorted(pos[:s]))
        t_same = np.flatnonzero(gen.random(m) < rate)
        t_left = np.flatnonzero(gen.random(m) < rate)
        t_right = np.flatnonzero(gen.random(m) < rate)
        return TrialRecord(
            i,
            i,
            {"n": n, "p": p, "kappa": kappa, "s": s},
            {
                "norm_subset": _principal_norm(h, s_idx, s_idx),
                "norm_bernoulli": _principal_norm(h, t_same, t_same),
                "norm_decoupled": _principal_norm(h, t_left, t_right),
                "norm_h": operator_norm(h),
            },
        )

    records = [one_trial(i) for i in range(trials)]
    a = np.array([rec.measures["norm_subset"] for rec in records])
    b = np.array([rec.measures["norm_bernoulli"] for rec in records])
    c = np.array([rec.measures["norm_decoupled"] for rec in records])

    boot_gen = RngStream(seed, _STREAM_BOOTSTRAP).generator()
    idx = boot_gen.integers(0, trials, size=(BOOTSTRAP_RESAMPLES, trials)).astype(np.int32)
    alpha = 1.0 - DEFAULT_CONFIDENCE
    cells: list[ReportCell] = []
    for r in r_values:
        ind_a = (a >= r).astype(float)
        ind_b = (b >= r).astype(float)
        ind_c = (c >= r / 2.0).astype(float)
        f_a, f_b, f_c = float(ind_a.mean()), float(ind_b.mean()), float(ind_c.mean())
        for label, diff, observed in (
            (
                f"P(|R_s H R_s| >= r) <= 2 P(|R H R| >= r), r={r:g}",
                2.0 * ind_b - ind_a,
                2.0 * f_b - f_a,
            ),
            (
                f"P(|R H R| >= r) <= 36 P(|R H R'| >= r/2), r={r:g}",
                36.0 * ind_c - ind_b,
                36.0 * f_c - f_b,
            ),
        ):
            boot = diff[idx].mean(axis=1)
            lo = float(np.quantile(boot, alpha / 2.0))
            hi = float(np.quantile(boot, 1.0 - alpha / 2.0))
            cells.append(
                ReportCell(
                    label=label,
                    observed=observed,
                    observed_kind="probability_margin",
                    claim=0.0,
                    direction="at_least",
                    verdict=mechanical_verdict(0.0, "at_least", lo, hi),
                    ci_low=lo,
                    ci_high=hi,
                    params={
                        "r": r,
                        "freq_subset": f_a,
                        "freq_bernoulli": f_b,
                        "freq_decoupled": f_c,
                    },
                    notes="bootstrap percentile interval over paired trials",
                )
            )
    return ExperimentReport(
        name="decoupling",
        grid={"n": n, "p": p, "kappa": kappa, "s": s, "r_grid": r_values},
        master_seed=seed,
        trials=trials,
        confidence=DEFAULT_CONFIDENCE,
        cells=cells,
        extras={
            "bootstrap_resamples": BOOTSTRAP_RESAMPLES,
            "mean_norm_h": float(np.mean([rec.measures["norm_h"] for rec in records])),
        },
        records=records,
    )


# ---------------------------------------------------------------------------
# headline guarantee
# ---------------------------------------------------------------------------

def run_theorem_audit(
    n: int,
    p: int,
    s: int,
    rho_minus: float,
    net_eps: float,
    trials: int,
    seed: int,
    probe_count: int = 50,
    kappa: float | None = None,
) -> ExperimentReport:
    """Certificate vs the claimed 80 log(p)/p bound, with the hypothesis ledger.

    The headline probability 1 - 5n/(p log(p)^{n-1}) - 9 p^-n is evaluated
    verbatim; at desk scale the hypothesis ledger fails (the 648/C_k floor on
    n is unreachable), so the mechanical verdict is untestable-at-scale and
    the per-trial certificates are reported as data.
    """
    if trials < 20:
        raise InvalidInput("theorem audit needs at least 20 trials")
    if kappa is None:
        kappa = analytic.KAPPA_BRANCH_CONSTANT
    if not 0.0 < net_eps < 1.0:
        raise InvalidInput("net_eps must lie in (0, 1)")
    cfg = SelectionConfig(s=s, rho_minus=rho_minus, kappa=kappa)
    net = build_eps_net(n, net_eps, RngStream(seed, _STREAM_NET), stall_budget=500)
    bound = analytic.claimed_gamma_bound(p)
    lp = math.log(p)
    claimed_prob = 1.0 - 5.0 * n / (p * lp ** (n - 1)) - 9.0 * p ** float(-n)
    constants = analytic.derive_constants(
        n, p, s, rho_minus, _THEOREM_EPSILON, _THEOREM_C_KAPPA, _C_SUBGAUSS
    )
    ledger = [
        {"constraint": row.constraint, "lhs": _jsonable(row.lhs), "rhs": _jsonable(row.rhs),
         "satisfied": row.satisfied}
        for row in analytic.constraint_check(n, p, s, constants)
    ]
    hypotheses_ok = all(row["satisfied"] for row in ledger)

    def one_trial(i: int) -> TrialRecord:
        gen = RngStream(seed, i).generator()
        x = sample_sphere_matrix(n, p, gen)
        est = estimate_gamma(x, cfg, net, probe_count, gen)
        return TrialRecord(
            i,
            i,
            {"n": n, "p": p, "s": s, "rho_minus": rho_minus, "net_eps": net_eps},
            {
                "certificate": est.certified_upper,
                "heuristic_lower": est.heuristic_lower,
                "feasibility_rate": est.feasibility_rate,
            },
            claims={"gamma_bound": bound},
            satisfied={"certificate_below_bound": est.certified_upper <= bound},
        )

    records = [one_trial(i) for i in range(trials)]
    hits = sum(1 for rec in records if rec.satisfied["certificate_below_bound"])
    lo, hi = wilson_interval(hits, trials)
    certs = [rec.measures["certificate"] for rec in records]
    finite_certs = [cval for cval in certs if math.isfinite(cval)]
    cells = [
        ReportCell(
            label="P(gamma certificate <= 80 log(p)/p) >= claimed probability",
            observed=hits / trials,
            claim=claimed_prob,
            direction="at_least",
            verdict=mechanical_verdict(
                claimed_prob,
                "at_least",
                lo,
                hi,
                vacuous=_probability_vacuous(claimed_prob),
                hypotheses_ok=hypotheses_ok,
            ),
            ci_low=lo,
            ci_high=hi,
            params={"gamma_bound": bound, "net_size": len(net)},
        )
    ]
    return ExperimentReport(
        name="theorem",
        grid={"n": n, "p": p, "s": s, "rho_minus": rho_minus, "net_eps": net_eps},
        master_seed=seed,
        trials=trials,
        confidence=DEFAULT_CONFIDENCE,
        cells=cells,
        hypotheses=ledger,
        extras={
            "claimed_probability": claimed_prob,
            "gamma_bound": bound,
            "net": net.descriptor(),
            "max_certificate": max(finite_certs) if finite_certs else None,
        },
        records=records,
    )


# ---------------------------------------------------------------------------
# binomial concentration
# ---------------------------------------------------------------------------

def run_chernoff_audit(
    p_success_grid: Sequence[float],
    eps_grid: Sequence[float],
    trials: int,
    seed: int,
    count: int = 1000,
) -> ExperimentReport:
    """Empirical binomial lower tails against exp(-eps^2 mean / 2).

    Cells whose bound is too small for the trial budget are flagged and also
    compared in log space against the exact tail (incomplete-beta identity).
    One record is emitted per grid cell; the cell's draws are its trials.
    """
    if trials < 100:
        raise InvalidInput("chernoff audit needs at least 100 trials")
    if not p_success_grid or not eps_grid:
        raise InvalidInput("grids must be nonempty")
    cells_params = [(float(q), float(e)) for q in p_success_grid for e in eps_grid]

    def one_cell(i: int) -> TrialRecord:
        q, eps = cells_params[i]
        gen = RngStream(seed, i).generator()
        mean = count * q
        cutoff = (1.0 - eps) * mean
        draws = gen.binomial(count, q, size=trials)
        freq = float(np.mean(draws <= cutoff))
        bound = analytic.chernoff_lower(eps, mean)
        exact = analytic.binomial_cdf(math.floor(cutoff), count, q)
        return TrialRecord(
            i,
            i,
            {"q": q, "eps": eps, "count": count},
            {"frequency": freq, "exact_tail": exact},
            claims={"bound": bound},
            satisfied={"within_bound": freq <= bound},
        )

    records = [one_cell(i) for i in range(len(cells_params))]
    cells: list[ReportCell] = []
    for rec in records:
        q, eps = rec.params["q"], rec.params["eps"]
        freq = rec.measures["frequency"]
        bound = rec.claims["bound"]
        exact = rec.measures["exact_tail"]
        hits = round(freq * trials)
        lo, hi = wilson_interval(int(hits), trials)
        notes = ""
        if bound < 10.0 / trials:
            log_exact = math.log10(exact) if exact > 0.0 else -math.inf
            notes = (
                f"rare event: bound below sampling resolution; log10 exact tail "
                f"{log_exact:.3f} vs log10 bound {math.log10(bound):.3f}"
            )
        cells.append(
            ReportCell(
                label=f"P(B <= (1-eps) E B) <= exp(-eps^2 E B / 2), q={q:g}, eps={eps:g}",
                observed=freq,
                claim=bound,
                direction="at_most",
                verdict=mechanical_verdict(
                    bound, "at_most", lo, hi, vacuous=_probability_vacuous(bound)
                ),
                ci_low=lo,
                ci_high=hi,
                params={"q": q, "eps": eps, "count": count, "exact_tail": exact},
                notes=notes,
            )
        )
    return ExperimentReport(
        name="chernoff",
        grid={
            "p_success_grid": [q for q, _ in cells_params[:: len(eps_grid)]],
            "eps_grid": [float(e) for e in eps_grid],
            "count": count,
        },
        master_seed=seed,
        trials=trials,
        confidence=DEFAULT_CONFIDENCE,
        cells=cells,
        records=records,
    )
