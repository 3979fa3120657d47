"""The constructive selection pipeline and its exact oracle.

Given a direction v, the pipeline greedily collects the columns least
correlated with v (the outer set), then repeatedly draws uniform s-subsets of
the outer set until one is well conditioned (smallest singular value at least
rho_minus).  One batched kernel, `_pipeline`, runs this for many directions at
once; `attained_values` and `constrained_select` (its count=1 view) read its
results.  The outer sets come from `_outer_ranked`, which `greedy_outer`
shares: it works through the directions in row blocks and ranks each row to
its m smallest values (`_rank_rows`), so memory is bounded by one block plus
the (count, m) outer sets, never by the full (p, count) value matrix.  A row
is ranked by a values-only partition to its m-th smallest value, then a
stable sort of the entries at or below it; only a row tied at that value
takes a full stable argsort.

Each round conditions its drawn subsets in `_feasible`: the column pairs'
Gram entries decide every subset outside a band of half-width 1e-8 around
1 - rho_minus^2 (a Gershgorin bound accepts, Cauchy interlacing rejects), and
only the rest run eigvalsh, so the accepted subsets are exactly those an
eigvalsh of every subset accepts.  The kernel keeps no sigma_min;
`constrained_select` computes it for its one accepted subset.

The exact oracle, `exact_inf_profile`, takes the min over every feasible
s-subset of max_{j in S} |<X_j, v>|.  For s = 2 at scale it reads the answer
from the shortest feasible prefix of each direction's value order and
gathers over the feasible pairs only for the rare direction that a short
prefix does not resolve.

`estimate_gamma` runs the pipeline over an eps-net and adds eps.  That lifts
the net supremum to the whole sphere only if the net covers it to radius
eps, which the stall-budget construction does not guarantee, so
`certified_upper` is a heuristic bound, not yet a proof.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .errors import BudgetExceeded, InvalidInput
from .linalg import UNIT_NORM_TOL, ColumnMatrix, IndexSet, check_unit_vector
from .sphere import EpsNet, RngStream, _as_generator, sample_unit_vectors

#: First branch of the kappa formula, the constant 4 e^{-2(ln 2 - 1)}, and
#: the default outer-set inflation factor; `analytic` re-exports it.
KAPPA_BRANCH_CONSTANT = 4.0 * math.exp(-2.0 * (math.log(2.0) - 1.0))
DEFAULT_MAX_ATTEMPTS = 1000
DEFAULT_BRUTE_FORCE_LIMIT = 200_000
# Values per exact-oracle gather block (16 MiB of float64).
_GATHER_ELEMENTS = 1 << 21
# s = 2 exact oracle: columns ranked by the shortest-feasible-prefix stage,
# which runs when a direction has at least this many gathered values (F*s).
_PREFIX_COLUMNS = 16
_PREFIX_MIN_VALUES = 1000
# Subsets per batched-eigvalsh block of the s >= 3 feasibility enumeration.
_SUBSET_BLOCK = 1 << 12
# Values per outer-set ranking block (4 MiB of float64; the last block also
# takes the remainder, so it holds up to twice that).
_RANK_ELEMENTS = 1 << 19
# Half-width of the band around 1 - rho_minus^2 in which a column pair's
# Gram entry leaves the feasibility test to eigvalsh (see `_feasible`).
_PAIR_BAND = 1e-8


@dataclass(frozen=True)
class SelectionConfig:
    """Tunable scalars of the selection method."""

    s: int
    rho_minus: float = 0.5
    kappa: float = KAPPA_BRANCH_CONSTANT
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __post_init__(self) -> None:
        if self.s < 1:
            raise InvalidInput("target cardinality s must be at least 1")
        if not 0.0 < self.rho_minus < 1.0:
            raise InvalidInput("rho_minus must lie in (0, 1)")
        if not (math.isfinite(self.kappa) and self.kappa >= 1.0):
            raise InvalidInput("kappa must be finite and at least 1")
        if self.max_attempts < 1:
            raise InvalidInput("max_attempts must be at least 1")

    def outer_size(self, p: int) -> int:
        """m = min(ceil(kappa*s), floor(p/2))."""
        return min(math.ceil(self.kappa * self.s), p // 2)


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of one pipeline run for one direction.

    `attained_value` is +inf and `inner_set`/`sigma_min_achieved` are None
    when no well-conditioned subset was found within the attempt budget.
    """

    outer_set: IndexSet
    inner_set: IndexSet | None
    sigma_min_achieved: float | None
    attained_value: float
    attempts_used: int


def _directions(matrix: ColumnMatrix, directions: np.ndarray) -> np.ndarray:
    """`directions` as a (count, n) float array of finite unit rows."""
    dirs = np.asarray(directions, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != matrix.n:
        raise InvalidInput("directions must be a (count, n) array")
    if not np.all(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) <= UNIT_NORM_TOL):
        raise InvalidInput(f"directions must be finite with unit norm within {UNIT_NORM_TOL}")
    return dirs


def _outer_ranked(matrix: ColumnMatrix, dirs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The outer set of every direction row: the m columns with smallest
    |<X_j, v>|, in value order with ties to the smaller column index (the
    first m of a stable argsort), as (count, m) indices and their values.

    Directions run in row blocks, so no (p, count) array is ever held; each
    block is ranked by `_rank_rows`.
    """
    p, count = matrix.p, dirs.shape[0]
    block = max(64, _RANK_ELEMENTS // p // 64 * 64)
    # Every block but the last is a multiple of 64 rows and the last one takes
    # the remainder, so it is never shorter than `block`.  A short block can
    # take another BLAS code path, whose entries may differ in the last bit
    # from those of one unblocked X^T D^T product; these bounds keep every
    # entry bit-identical to it (checked in the tests).
    bounds = [i * block for i in range(max(1, count // block))] + [count]
    outer = np.empty((count, m), dtype=np.intp)
    values = np.empty((count, m))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # (rows, p), computed in the unblocked product's form
        b = np.abs((matrix.data.T @ dirs[lo:hi].T).T, order="C")
        outer[lo:hi], values[lo:hi] = _rank_rows(b, m)
        del b  # free this block before the next one is built
    return outer, values


def _rank_rows(b: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The first m of a stable argsort of each row of `b` (rows, p), and
    their values.

    A values-only partition gives each row's m-th smallest value t; the
    entries at or below t, read in index order and sorted stably by value,
    are that row's answer.  A row with more than m such entries (a tie at t)
    is ranked by a full stable argsort.
    """
    p = b.shape[1]
    marked = b <= np.partition(b, m - 1, axis=1)[:, m - 1 : m]
    tied = np.flatnonzero(np.count_nonzero(marked, axis=1) > m)
    # a tied row keeps m placeholder marks, so every row holds exactly m
    marked[tied] = False
    marked[tied, :m] = True
    flat = np.flatnonzero(marked)
    vals = b.ravel()[flat].reshape(-1, m)
    by_value = vals.argsort(axis=1, kind="stable")
    idx = np.take_along_axis(flat.reshape(-1, m) % p, by_value, axis=1)
    vals = np.take_along_axis(vals, by_value, axis=1)
    if tied.size:
        idx[tied] = b[tied].argsort(axis=1, kind="stable")[:, :m]
        vals[tied] = np.take_along_axis(b[tied], idx[tied], axis=1)
    return idx, vals


def greedy_outer(matrix: ColumnMatrix, v: np.ndarray, m: int) -> IndexSet:
    """The m column indices with smallest |<X_j, v>|, ties to the smaller index.

    Equivalent to iterating argmin over the not-yet-selected columns m times.
    """
    if not 1 <= m <= matrix.p:
        raise InvalidInput(f"outer size m={m} must satisfy 1 <= m <= p={matrix.p}")
    outer, _ = _outer_ranked(matrix, _directions(matrix, np.reshape(v, (1, -1))), m)
    return IndexSet.from_iterable(outer[0])


def _subset_positions(m: int, swaps: np.ndarray) -> np.ndarray:
    """Positions 0..m-1 of each row of `swaps` (rows, k) after the partial
    Fisher-Yates swaps i <-> swaps[row, i] for i = 0..k-1.  With swaps[:, i]
    uniform on [i, m), the first k positions are a uniform k-subset."""
    rows = np.arange(swaps.shape[0])
    pos = np.tile(np.arange(m), (swaps.shape[0], 1))
    for i, j in enumerate(swaps.T):
        pos[rows, i], pos[rows, j] = pos[rows, j], pos[rows, i]
    return pos


def _feasible(vecs: np.ndarray, rho_minus: float) -> np.ndarray:
    """Whether each stacked column subset `vecs` (a, s, n) has
    sigma_min = sqrt(max(lambda_min(G), 0)) >= rho_minus, G its Gram matrix,
    exactly as a batched eigvalsh of G decides it.

    The column pairs decide most subsets without an eigvalsh.  Every column
    has unit norm within UNIT_NORM_TOL = 1e-9, so each diagonal entry of G is
    within delta = 2.1e-9 of 1.  With g_ij the pair products and
    bound = 1 - rho_minus^2:

    - Gershgorin: lambda_min >= 1 - delta - max_i sum_{j != i} |g_ij|, so a
      largest row sum <= bound - _PAIR_BAND gives
      lambda_min >= rho_minus^2 + 7.9e-9: feasible;
    - Cauchy interlacing: lambda_min is at most that of any 2 x 2 principal
      submatrix, <= 1 + delta - |g_ij|, so one pair with
      |g_ij| >= bound + _PAIR_BAND gives lambda_min <= rho_minus^2 - 7.9e-9:
      infeasible.

    For s = 2 both read the one pair: it decides outside the band
    bound -+ _PAIR_BAND.  The 7.9e-9 margin dwarfs what separates these
    bounds from the eigvalsh test: its rounding error, the rounding of
    rho_minus^2 and the gap between the elementwise g_ij and the matmul
    Gram's entries are each about 1e-15 at the sizes this package targets.
    So every decided subset gets the eigvalsh test's answer, and only the
    rest run it.
    """
    a, s, _ = vecs.shape
    bound = 1.0 - rho_minus * rho_minus
    radius = np.zeros((a, s))
    widest = np.zeros(a)
    for i, j in combinations(range(s), 2):
        g = np.abs(np.einsum("kn,kn->k", vecs[:, i], vecs[:, j]))
        radius[:, i] += g
        radius[:, j] += g
        np.maximum(widest, g, out=widest)
    ok = radius.max(axis=1) <= bound - _PAIR_BAND
    undecided = np.flatnonzero(~ok & (widest < bound + _PAIR_BAND))
    if undecided.size:
        ok[undecided] = _sigma_min(vecs[undecided]) >= rho_minus
    return ok


def _sigma_min(vecs: np.ndarray) -> np.ndarray:
    """sqrt(max(lambda_min, 0)) of the Gram matrix of each stacked column
    subset `vecs` (a, s, n), by one batched eigvalsh."""
    lam = np.linalg.eigvalsh(vecs @ vecs.transpose(0, 2, 1))
    return np.sqrt(np.maximum(lam[:, 0], 0.0))


def _pipeline(
    matrix: ColumnMatrix,
    directions: np.ndarray,
    cfg: SelectionConfig,
    rng: RngStream | np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The selection pipeline for every direction row, in batched rounds.

    The outer sets and their values come from `_outer_ranked`, so only
    (count, m) arrays are kept.  Each round draws one uniform s-subset (a
    partial Fisher-Yates shuffle of positions into the direction's
    value-ranked outer list) for every direction still without a
    well-conditioned subset, conditions them all at once (`_feasible`), and
    reads each accepted subset's attained value from the outer-set values.
    Returns per direction row:

    - the outer columns (count, m), in value order;
    - the accepted inner columns (count, s), in draw order, -1 if none;
    - the attempts used (max_attempts if none);
    - the attained value max_{j in inner} |<X_j, v>| (+inf if none).
    """
    if math.ceil(cfg.kappa * cfg.s) > matrix.p:
        raise InvalidInput(
            f"ceil(kappa*s)={math.ceil(cfg.kappa * cfg.s)} exceeds p={matrix.p}"
        )
    dirs = _directions(matrix, directions)
    count = dirs.shape[0]
    m = cfg.outer_size(matrix.p)
    s = cfg.s
    if s > m:
        raise InvalidInput(f"cannot draw s={s} columns from an outer set of size {m}")
    gen = _as_generator(rng)

    outer, b_outer = _outer_ranked(matrix, dirs, m)
    inner = np.full((count, s), -1)
    attempts = np.full(count, cfg.max_attempts)
    attained = np.full(count, math.inf)
    # rank-deficient subsets can never reach rho_minus > 0
    active = np.arange(count if s <= matrix.n else 0)
    cols_t = matrix.data.T  # (p, n)
    for attempt in range(1, cfg.max_attempts + 1):
        if active.size == 0:
            break
        a = active.size
        pos = _subset_positions(m, np.column_stack([gen.integers(i, m, size=a) for i in range(s)]))
        chosen_cols = outer[active[:, None], pos[:, :s]]  # (a, s)
        ok = _feasible(cols_t[chosen_cols], cfg.rho_minus)
        if np.any(ok):
            hit = active[ok]
            inner[hit] = chosen_cols[ok]
            attempts[hit] = attempt
            attained[hit] = np.max(b_outer[hit[:, None], pos[ok, :s]], axis=1)
            active = active[~ok]
    return outer, inner, attempts, attained


def constrained_select(
    matrix: ColumnMatrix,
    v: np.ndarray,
    cfg: SelectionConfig,
    rng: RngStream | np.random.Generator,
) -> SelectionOutcome:
    """Full pipeline for one direction: the count=1 view of the batched
    kernel, with the accepted subset's sigma_min."""
    outer, inner, attempts, attained = _pipeline(matrix, np.reshape(v, (1, -1)), cfg, rng)
    found = inner[0, 0] >= 0
    return SelectionOutcome(
        outer_set=IndexSet.from_iterable(outer[0]),
        inner_set=IndexSet.from_iterable(inner[0]) if found else None,
        sigma_min_achieved=float(_sigma_min(matrix.data.T[inner[:1]])[0]) if found else None,
        attained_value=float(attained[0]),
        attempts_used=int(attempts[0]),
    )


def attained_values(
    matrix: ColumnMatrix,
    directions: np.ndarray,
    cfg: SelectionConfig,
    rng: RngStream | np.random.Generator,
) -> np.ndarray:
    """Pipeline attained values for many directions at once.

    The attained-value column of the batched kernel: uniform subsets, one
    attempt budget per direction row, +inf for infeasible directions.  This
    is what makes certificate probing at 10^5 directions tractable.
    """
    return _pipeline(matrix, directions, cfg, rng)[-1]


def _pair_table(matrix: ColumnMatrix, rho_minus: float) -> np.ndarray:
    """(p, p) symmetric table of the feasible column pairs, decided as the
    pipeline decides a drawn pair.  2-column Gram eigenvalues are
    1 +- |<X_i, X_j>| in closed form, so outside `_feasible`'s band a pair is
    feasible iff |<X_i, X_j>| <= 1 - rho_minus^2; a pair within _PAIR_BAND
    of that bound takes `_feasible`'s own answer."""
    bound = 1.0 - rho_minus * rho_minus
    gram = np.abs(matrix.data.T @ matrix.data)
    table = gram <= bound
    band = (bound - _PAIR_BAND < gram) & (gram < bound + _PAIR_BAND)
    if band.any():
        rows, cols = np.nonzero(np.triu(band, k=1))
        keep = _feasible(matrix.data.T[np.column_stack([rows, cols])], rho_minus)
        table[rows, cols] = table[cols, rows] = keep
    return table


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
        keep = _pair_table(matrix, rho_minus)[rows, cols]
        return list(zip(rows[keep].tolist(), cols[keep].tolist()))
    gram = matrix.data.T @ matrix.data
    subsets = combinations(range(matrix.p), s)
    out: list[tuple[int, ...]] = []
    while block := list(islice(subsets, _SUBSET_BLOCK)):
        subs = np.fromiter(chain.from_iterable(block), dtype=np.intp).reshape(-1, s)
        lam_min = np.linalg.eigvalsh(gram[subs[:, :, None], subs[:, None, :]])[:, 0]
        out += [block[k] for k in np.flatnonzero(np.sqrt(np.maximum(lam_min, 0.0)) >= rho_minus)]
    return out


def brute_force_inf(matrix: ColumnMatrix, v: np.ndarray, s: int, rho_minus: float) -> float:
    """Exact inf over well-conditioned s-subsets of max_j |<X_j, v>|.

    The one-direction view of `exact_inf_profile`; +inf when the feasible
    family is empty.
    """
    return float(exact_inf_profile(matrix, check_unit_vector(v)[None], s, rho_minus)[0])


def _prefix_values(
    b: np.ndarray, table: np.ndarray, k_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """The s = 2 exact value of each row of `b` (rows, p) from its shortest
    feasible prefix, and the rows that no prefix of `k_cols` columns resolves.

    In a row's value order (ties to the smaller index) the exact value is
    b_(k*), where column k* is the first to close a feasible pair with an
    earlier column: every feasible pair has its larger value at or after
    b_(k*).  Unresolved rows are left at +inf.
    """
    idx, vals = _rank_rows(b, k_cols)
    value = np.full(b.shape[0], math.inf)
    open_rows = np.arange(b.shape[0])
    for k in range(1, k_cols):
        closes = table[idx[open_rows, :k], idx[open_rows, k : k + 1]].any(axis=1)
        hit = open_rows[closes]
        value[hit] = vals[hit, k]
        open_rows = open_rows[~closes]
        if not open_rows.size:
            break
    return value, open_rows


def exact_inf_profile(
    matrix: ColumnMatrix, directions: np.ndarray, s: int, rho_minus: float
) -> np.ndarray:
    """Exact selection value for many directions, sharing one feasibility pass.

    The value at v is the min over the F feasible s-subsets of
    max_{j in S} |<X_j, v>|.  Directions run in blocks sized so each
    (F, s, block) gather holds about _GATHER_ELEMENTS values, whatever the
    direction count.  For s = 2 with F*s >= _PREFIX_MIN_VALUES gathered
    values per direction, each block first reads the shortest feasible prefix
    of its _PREFIX_COLUMNS smallest values (`_prefix_values`) and gathers only
    the rows that prefix leaves open; below that size the gather is cheaper
    than ranking.  Both stages read one |X^T v| product per block, so they
    return the same values.
    """
    dirs = _directions(matrix, directions)
    feas = feasible_subsets(matrix, s, rho_minus)
    count = dirs.shape[0]
    if not feas:
        return np.full(count, math.inf)
    fidx = np.asarray(feas)  # (F, s)
    prefix = s == 2 and fidx.size >= _PREFIX_MIN_VALUES
    if prefix:
        table = _pair_table(matrix, rho_minus)
        k_cols = min(_PREFIX_COLUMNS, matrix.p)
    chunk = max(1, _GATHER_ELEMENTS // fidx.size)
    out = np.empty(count)
    for start in range(0, count, chunk):
        block = dirs[start : start + chunk]
        b = np.abs(matrix.data.T @ block.T)  # (p, k)
        if prefix:
            value, rest = _prefix_values(np.ascontiguousarray(b.T), table, k_cols)
            if rest.size:
                value[rest] = np.min(np.max(b[:, rest][fidx], axis=1), axis=0)
        else:
            value = np.min(np.max(b[fidx], axis=1), axis=0)  # (F, s, k) gather
        out[start : start + chunk] = value
    return out


@dataclass(frozen=True)
class GammaEstimate:
    """Two-sided view of the worst-direction selection value.

    certified_upper is sup over the net of pipeline values plus the net
    radius, valid for the whole sphere whenever the net covers it to that
    radius (a heuristic net is not proven to);
    heuristic_lower is the max over random probe directions of the exact
    per-direction inf (when the enumeration budget allows) or of pipeline
    values otherwise.
    """

    certified_upper: float
    heuristic_lower: float
    directions_tested: int
    net: dict
    feasibility_rate: float
    oracle_exact: bool


def estimate_gamma(
    matrix: ColumnMatrix,
    cfg: SelectionConfig,
    net: EpsNet,
    probe_count: int,
    rng: RngStream | np.random.Generator,
) -> GammaEstimate:
    """Certificate over an eps-net plus a random-probe lower estimate."""
    if net.dimension != matrix.n:
        raise InvalidInput(
            f"net dimension {net.dimension} does not match matrix n={matrix.n}"
        )
    if probe_count < 0:
        raise InvalidInput("probe_count must be nonnegative")
    gen = _as_generator(rng)
    net_vals = attained_values(matrix, net.points, cfg, gen)
    finite = int(np.sum(np.isfinite(net_vals)))
    if finite < len(net):
        certified_upper = math.inf
    else:
        certified_upper = float(np.max(net_vals, initial=0.0)) + net.epsilon

    oracle_exact = math.comb(matrix.p, cfg.s) <= DEFAULT_BRUTE_FORCE_LIMIT
    heuristic_lower = 0.0
    if probe_count > 0:
        probes = sample_unit_vectors(matrix.n, probe_count, gen)
        if oracle_exact:
            vals = exact_inf_profile(matrix, probes, cfg.s, cfg.rho_minus)
        else:
            vals = attained_values(matrix, probes, cfg, gen)
        finite += int(np.sum(np.isfinite(vals)))
        finite_vals = vals[np.isfinite(vals)]
        heuristic_lower = float(np.max(finite_vals)) if finite_vals.size else math.inf
    total = len(net) + probe_count
    return GammaEstimate(
        certified_upper=certified_upper,
        heuristic_lower=heuristic_lower,
        directions_tested=total,
        net=net.descriptor(),
        feasibility_rate=finite / total if total else 0.0,
        oracle_exact=oracle_exact,
    )


@dataclass(frozen=True)
class MonotonicityResult:
    gamma_base: float
    gamma_concat: float
    satisfied: bool


def monotonicity_check(
    matrix: ColumnMatrix,
    extra: ColumnMatrix,
    cfg: SelectionConfig,
    directions: np.ndarray,
) -> MonotonicityResult:
    """Exact selection value over a fixed direction set, before and after
    appending columns; appending can only shrink it (inf over empty family
    counts as +inf)."""
    if extra.n != matrix.n:
        raise InvalidInput("appended columns must have the same row count")
    dirs = np.asarray(directions, dtype=float)
    base_vals = exact_inf_profile(matrix, dirs, cfg.s, cfg.rho_minus)
    combined = ColumnMatrix(np.hstack([matrix.data, extra.data]))
    concat_vals = exact_inf_profile(combined, dirs, cfg.s, cfg.rho_minus)
    gamma_base = float(np.max(base_vals))
    gamma_concat = float(np.max(concat_vals))
    satisfied = gamma_concat <= gamma_base + 1e-12 or math.isinf(gamma_base)
    return MonotonicityResult(gamma_base, gamma_concat, satisfied)
