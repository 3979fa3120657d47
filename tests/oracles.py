"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: power iteration instead
of eigendecomposition, Gauss-Legendre quadrature instead of the continued
fraction, direct enumeration instead of the pipeline, one trial at a time
instead of the batched audit kernels, a per-candidate loop instead of the
far-candidate net construction, the full gather instead of the shortest
feasible prefix, one eigvalsh per subset instead of a batched block, an
eigvalsh for every drawn subset instead of the pair bounds, a full stable
argsort instead of the float32 pre-sort ranking, a shuffle of every position
instead of tracing the drawn ones back, a new generator per trial stream
instead of one re-keyed Philox, and the continued fraction one float at a
time instead of over arrays.
"""
from __future__ import annotations

import math
from itertools import chain, combinations, islice

import numpy as np

from orthoselect.errors import BudgetExceeded, InvalidInput
from orthoselect.linalg import ColumnMatrix, operator_norm, submatrix
from orthoselect.selection import _PAIR_BAND, DEFAULT_BRUTE_FORCE_LIMIT, _feasible, greedy_outer
from orthoselect.sphere import (_CANDIDATE_CHUNK, RngStream, sample_sphere_matrix,
                                sample_unit_vector, sample_unit_vectors)


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


def trial_records(seed: int, trials: int, draw, measure=None, width: int = 1,
                  generator=None) -> dict:
    """The audit trial loop one trial at a time, with `harness._run_trials`'s
    arguments: trial i runs on a new `RngStream(seed, i).generator()`, or on
    generator(i) when given.  A two-stage draw gets `sample_unit_vectors` as
    its row sampler, so the trial's sphere points are normalised (and, if
    need be, drawn again) by that function, and its measure sees a block of
    one trial; `width` is not used.  Each trial's measures are appended to
    Python lists, which become the measure columns; `_run_trials` must
    return exactly these columns."""
    columns: dict = {}
    for i in range(trials):
        gen = RngStream(seed, i).generator() if generator is None else generator(i)
        if measure is None:
            out = draw(gen)
        else:
            block = measure(*(np.asarray(a)[None] for a in draw(gen, sample_unit_vectors)))
            out = {key: float(column[0]) for key, column in block.items()}
        for key, value in out.items():
            columns.setdefault(key, []).append(value)
    return {key: np.array(values) for key, values in columns.items()}


def table_columns(table, rows=None) -> dict:
    """Every column of a `harness.TrialTable` as a Python list over `rows`
    (all rows by default), a shared value repeated on each row, keyed
    group.name."""
    rows = range(len(table)) if rows is None else rows
    index = np.asarray(list(rows), dtype=int)
    return {f"{group}.{key}": (column[index].tolist() if isinstance(column, np.ndarray)
                               else [column] * index.size)
            for group in ("params", "measures", "claims", "satisfied")
            for key, column in getattr(table, group).items()}


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


def separation_ok(points: np.ndarray, eps: float) -> bool:
    """O(|N|^2) check that the rows' pairwise distances exceed eps."""
    if len(points) < 2:
        return True
    d2 = 2.0 - 2.0 * (points @ points.T)
    np.fill_diagonal(d2, np.inf)
    return bool(np.min(d2) > eps * eps)


def covering_radius_of(points: np.ndarray, probes: np.ndarray, symmetric: bool = False) -> float:
    """Largest distance from any probe row to its nearest point row, or, when
    `symmetric`, to its nearest point of the rows and their negatives;
    probes are compared in blocks of about 2^22 products."""
    # the smallest, over the probes, of the largest dot with a point
    least = 1.0
    block = max(1, (1 << 22) // len(points))
    for lo in range(0, len(probes), block):
        dots = probes[lo:lo + block] @ points.T
        least = min(least, float(np.min(np.max(np.abs(dots) if symmetric else dots, axis=1))))
    return math.sqrt(max(2.0 - 2.0 * least, 0.0))


def pair_table(matrix: ColumnMatrix, rho_minus: float) -> np.ndarray:
    """(p, p) symmetric table of the pipeline's answer for each column pair:
    2-column Gram eigenvalues are 1 +- |<X_i, X_j>|, so outside `_feasible`'s
    band a pair is feasible iff |<X_i, X_j>| <= 1 - rho_minus^2, read from one
    Gram product; a pair in the band takes `_feasible`'s own answer."""
    bound = 1.0 - rho_minus * rho_minus
    gram = np.abs(matrix.data.T @ matrix.data)
    table = gram <= bound
    band = (bound - _PAIR_BAND < gram) & (gram < bound + _PAIR_BAND)
    if band.any():
        rows, cols = np.nonzero(np.triu(band, k=1))
        keep = _feasible(matrix.data.T[np.column_stack([rows, cols])], rho_minus)
        table[rows, cols] = table[cols, rows] = keep
    return table


# Subsets per batched-eigvalsh block of the s >= 3 enumeration.
_SUBSET_BLOCK = 1 << 12


def feasible_subsets(matrix: ColumnMatrix, s: int, rho_minus: float) -> list[tuple[int, ...]]:
    """All s-subsets with sigma_min >= rho_minus, in lexicographic order, by
    exhaustive enumeration of at most DEFAULT_BRUTE_FORCE_LIMIT subsets; for
    s >= 3, one batched eigvalsh per block of _SUBSET_BLOCK subsets."""
    if s < 1 or s > matrix.p:
        raise InvalidInput(f"subset size s={s} invalid for p={matrix.p}")
    total = math.comb(matrix.p, s)
    if total > DEFAULT_BRUTE_FORCE_LIMIT:
        raise BudgetExceeded(
            f"C({matrix.p},{s})={total} exceeds the budget {DEFAULT_BRUTE_FORCE_LIMIT}"
        )
    if s > matrix.n:
        return []
    if s == 1:
        return [(j,) for j in range(matrix.p)]
    if s == 2:
        rows, cols = np.triu_indices(matrix.p, k=1)
        keep = pair_table(matrix, rho_minus)[rows, cols]
        return list(zip(rows[keep].tolist(), cols[keep].tolist()))
    gram = matrix.data.T @ matrix.data
    subsets = combinations(range(matrix.p), s)
    out: list[tuple[int, ...]] = []
    while block := list(islice(subsets, _SUBSET_BLOCK)):
        subs = np.fromiter(chain.from_iterable(block), dtype=np.intp).reshape(-1, s)
        lam_min = np.linalg.eigvalsh(gram[subs[:, :, None], subs[:, None, :]])[:, 0]
        out += [block[k] for k in np.flatnonzero(np.sqrt(np.maximum(lam_min, 0.0)) >= rho_minus)]
    return out


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


def eigvalsh_sigma_min(vecs: np.ndarray) -> np.ndarray:
    """sqrt(max(lambda_min, 0)) of the Gram matrix of each stacked column
    subset `vecs` (a, s, n), by one batched eigvalsh over all of them."""
    lam = np.linalg.eigvalsh(vecs @ vecs.transpose(0, 2, 1))
    return np.sqrt(np.maximum(lam[:, 0], 0.0))


def abs_products(matrix: ColumnMatrix, directions: np.ndarray) -> np.ndarray:
    """|<X_j, v>| of every direction row, as (count, p), from one unblocked
    X^T D^T product of the rows zero-padded to a multiple of 8: the entries
    that the selection kernel's padded row blocks must reproduce bit for
    bit."""
    count = directions.shape[0]
    padded = np.zeros((-(-count // 8) * 8, matrix.n))
    padded[:count] = directions
    return np.abs(matrix.data.T @ padded.T).T[:count]


def fisher_yates_positions(m: int, swaps: np.ndarray) -> np.ndarray:
    """Positions 0..m-1 of each row of `swaps` (rows, k) after the partial
    Fisher-Yates swaps i <-> swaps[row, i] for i = 0..k-1, each swap made on
    a full (rows, m) array."""
    rows = np.arange(swaps.shape[0])
    pos = np.tile(np.arange(m), (swaps.shape[0], 1))
    for i, j in enumerate(swaps.T):
        pos[rows, i], pos[rows, j] = pos[rows, j], pos[rows, i]
    return pos


def pipeline_eigvalsh(matrix, directions: np.ndarray, cfg, gen: np.random.Generator) -> tuple:
    """The selection pipeline with an eigvalsh for every drawn subset: outer
    sets from a full stable argsort of `abs_products`, then
    rounds that draw a subset per open direction on `gen` and condition all
    of them by one batched eigvalsh.  Returns per direction the outer columns,
    the accepted inner columns in draw order (-1 if none), their sigma_min
    (NaN if none), the attempts used and the attained value (+inf if none).
    `attained_values` and `constrained_select` must match it bit for bit."""
    m, s, count = cfg.outer_size(matrix.p), cfg.s, directions.shape[0]
    b = abs_products(matrix, directions)
    outer = np.argsort(b, axis=1, kind="stable")[:, :m]
    b_outer = np.take_along_axis(b, outer, axis=1)
    inner = np.full((count, s), -1)
    smin = np.full(count, math.nan)
    attempts = np.full(count, cfg.max_attempts)
    attained = np.full(count, math.inf)
    active = np.arange(count if s <= matrix.n else 0)
    for attempt in range(1, cfg.max_attempts + 1):
        if not active.size:
            break
        a = active.size
        pos = fisher_yates_positions(m, np.column_stack([gen.integers(i, m, size=a) for i in range(s)]))
        chosen = outer[active[:, None], pos[:, :s]]
        sig = eigvalsh_sigma_min(matrix.data.T[chosen])
        ok = sig >= cfg.rho_minus
        hit = active[ok]
        inner[hit] = chosen[ok]
        smin[hit] = sig[ok]
        attempts[hit] = attempt
        attained[hit] = np.max(b_outer[hit[:, None], pos[ok, :s]], axis=1)
        active = active[~ok]
    return outer, inner, smin, attempts, attained


def exact_inf_gather(matrix, directions: np.ndarray, s: int, rho_minus: float) -> np.ndarray:
    """The exact selection value by the full gather: max |<X_j, v>| over each
    feasible s-subset of `feasible_subsets`, then the min over subsets.  The
    values come from `abs_products`, whose entries the row blocks of
    `exact_inf_profile` reproduce bit for bit; the gather runs in row chunks
    of about 2^21 gathered values."""
    fidx = np.asarray(feasible_subsets(matrix, s, rho_minus))
    count = directions.shape[0]
    if not fidx.size:
        return np.full(count, math.inf)
    b = abs_products(matrix, directions).T
    chunk = max(1, (1 << 21) // fidx.size)
    out = np.empty(count)
    for start in range(0, count, chunk):
        out[start : start + chunk] = np.min(np.max(b[:, start : start + chunk][fidx], axis=1), axis=0)
    return out


def betacf_scalar(a: float, b: float, x: float) -> float:
    """Modified-Lentz evaluation of the incomplete-beta continued fraction,
    one float at a time."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, 501):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h
    raise RuntimeError(f"continued fraction stalled at a={a}, b={b}, x={x}")


def betainc_scalar(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) of one float in plain Python: the
    reference `analytic.betainc_reg` must match bit for bit."""
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log1p(-x))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * betacf_scalar(a, b, x) / a
    return 1.0 - bt * betacf_scalar(b, a, 1.0 - x) / b
