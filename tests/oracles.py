"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: power iteration instead
of eigendecomposition, Gauss-Legendre quadrature instead of the continued
fraction, direct enumeration instead of the pipeline, one trial at a time
instead of the batched audit kernels, a per-candidate loop instead of the
far-candidate net construction, the full gather instead of the shortest
feasible prefix, one eigvalsh per subset instead of a batched block.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from orthoselect.linalg import operator_norm, submatrix
from orthoselect.selection import feasible_subsets, greedy_outer
from orthoselect.sphere import (_CANDIDATE_CHUNK, sample_sphere_matrix, sample_unit_vector,
                                sample_unit_vectors)


def power_iteration_norm(a: np.ndarray, tol: float = 1e-13, max_iter: int = 100_000) -> float:
    """Largest singular value via power iteration on A^T A."""
    a = np.asarray(a, dtype=float)
    b = a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T
    gen = np.random.Generator(np.random.PCG64(12345))
    x = gen.standard_normal(b.shape[0])
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(max_iter):
        y = b @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        x = y / norm
        if abs(norm - lam) < tol * max(norm, 1.0):
            lam = norm
            break
        lam = norm
    return math.sqrt(lam)


def gauss_legendre(f, lo: float, hi: float, nodes: int = 400) -> float:
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return float(half * np.sum(w * np.array([f(mid + half * t) for t in x])))


def abs_dot_density_integral(n: int, upper_z: float) -> float:
    """integral of 2 g(z) dz on [0, upper_z] by the z = sin(theta) substitution,
    which removes the n = 2 endpoint singularity."""
    coeff = math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0)) / math.sqrt(math.pi)
    theta_hi = math.asin(min(max(upper_z, 0.0), 1.0))
    return gauss_legendre(lambda t: 2.0 * coeff * math.cos(t) ** (n - 2), 0.0, theta_hi)


def ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """KS distance given the CDF already evaluated at the sorted samples."""
    count = len(cdf_values)
    upper = np.arange(1, count + 1) / count
    lower = np.arange(0, count) / count
    return float(max(np.max(np.abs(upper - cdf_values)), np.max(np.abs(lower - cdf_values))))


def sorted_ks(samples: np.ndarray, cdf) -> float:
    xs = np.sort(np.asarray(samples, dtype=float))
    return ks_statistic(xs, np.array([cdf(float(x)) for x in xs]))


def _principal_norm(h: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    if rows.size == 0 or cols.size == 0:
        return 0.0
    return operator_norm(h[np.ix_(rows, cols)])


def decoupling_trial_norms(gen: np.random.Generator, n: int, p: int, kappa: float, s: int) -> dict:
    """One decoupling-audit trial measured on its own: the outer set from
    `greedy_outer`, then each restriction's norm by `operator_norm` on the
    `np.ix_` slice of H = X_outer^T X_outer - I."""
    m = math.ceil(kappa * s)
    rate = 1.0 / kappa
    x = sample_sphere_matrix(n, p, gen)
    v = sample_unit_vector(n, gen)
    sub = submatrix(x, greedy_outer(x, v, m))
    h = sub.data.T @ sub.data - np.eye(m)
    pos = list(range(m))
    for k in range(s):
        j = int(gen.integers(k, m))
        pos[k], pos[j] = pos[j], pos[k]
    s_idx = np.array(sorted(pos[:s]))
    t_same = np.flatnonzero(gen.random(m) < rate)
    t_left = np.flatnonzero(gen.random(m) < rate)
    t_right = np.flatnonzero(gen.random(m) < rate)
    return {
        "norm_subset": _principal_norm(h, s_idx, s_idx),
        "norm_bernoulli": _principal_norm(h, t_same, t_same),
        "norm_decoupled": _principal_norm(h, t_left, t_right),
        "norm_h": operator_norm(h),
    }


def eps_net_points(d: int, eps: float, gen: np.random.Generator, stall_budget: int) -> np.ndarray:
    """The eps-net construction judged one candidate at a time: each chunk of
    candidates is compared with a fresh copy of the accepted points, then
    every candidate is visited in turn until `stall_budget` consecutive
    rejections.  `build_eps_net` must return exactly these points (d >= 2)."""
    accepted: list[np.ndarray] = []
    rejections = 0
    threshold = eps * eps
    while rejections < stall_budget:
        chunk = sample_unit_vectors(d, _CANDIDATE_CHUNK, gen)
        if accepted:
            d2_old = 2.0 - 2.0 * (chunk @ np.asarray(accepted).T)
            far_old = np.min(d2_old, axis=1) > threshold
        else:
            far_old = np.ones(_CANDIDATE_CHUNK, dtype=bool)
        fresh: list[np.ndarray] = []
        for i in range(_CANDIDATE_CHUNK):
            if rejections >= stall_budget:
                break
            cand = chunk[i]
            ok = bool(far_old[i])
            if ok and fresh:
                d2_new = 2.0 - 2.0 * (np.asarray(fresh) @ cand)
                ok = bool(np.min(d2_new) > threshold)
            if ok:
                fresh.append(cand)
                rejections = 0
            else:
                rejections += 1
        accepted.extend(fresh)
    return np.asarray(accepted)


def feasible_subsets_loop(matrix, s: int, rho_minus: float) -> list[tuple[int, ...]]:
    """The s >= 3 feasible subsets one at a time: the smallest eigenvalue of
    each Gram submatrix by its own eigvalsh call, in lexicographic order."""
    gram = matrix.data.T @ matrix.data
    out = []
    for subset in combinations(range(matrix.p), s):
        lam_min = float(np.linalg.eigvalsh(gram[np.ix_(subset, subset)])[0])
        if math.sqrt(max(lam_min, 0.0)) >= rho_minus:
            out.append(subset)
    return out


def exact_inf_gather(matrix, directions: np.ndarray, s: int, rho_minus: float) -> np.ndarray:
    """The exact selection value by the full gather: max |<X_j, v>| over each
    feasible s-subset, then the min over subsets.  Directions run in blocks of
    about 2^21 gathered values, the blocks of `exact_inf_profile`, so both
    read the same |X^T v| products and must agree bit for bit."""
    fidx = np.asarray(feasible_subsets(matrix, s, rho_minus))
    count = directions.shape[0]
    if not fidx.size:
        return np.full(count, math.inf)
    chunk = max(1, (1 << 21) // fidx.size)
    out = np.empty(count)
    for start in range(0, count, chunk):
        b = np.abs(matrix.data.T @ directions[start : start + chunk].T)
        out[start : start + chunk] = np.min(np.max(b[fidx], axis=1), axis=0)
    return out
