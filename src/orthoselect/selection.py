"""The constructive selection pipeline and its exact oracle.

Given a direction v, the pipeline greedily collects the columns least
correlated with v (the outer set), then repeatedly draws uniform s-subsets of
the outer set until one is well conditioned (smallest singular value at least
rho_minus).  One batched kernel, `_pipeline`, runs this for many directions at
once; `attained_values` and `constrained_select` (its count=1 view) read its
results.  The outer sets come from `_outer_ranked`, which `greedy_outer`
shares: it takes X^T v in blocks of directions (`_product_blocks`), each a
padded (p, width) block as the product leaves it, and ranks every direction
of a block to its m smallest |<X_j, v>| (`_rank_rows`), writing them
straight into the block's rows of the (count, m) outputs.  So memory is
bounded by a block per thread plus the outputs, never by the full
(p, count) value matrix.  The blocks are ranked on every CPU the process may
run on.  A direction is ranked by sorting keys: each entry's float32 bits,
read as an unsigned integer, with the sign bit cleared and the low bits
replaced by the column index, so the first m keys name its first m columns.
A direction whose first m + 1 keys tie once the index bits are dropped is
ranked again from float64 keys, and, if those tie too, by a full stable
argsort of its |float64| values.  Directions of more than
_FLOAT32_KEY_COLUMNS columns start at float64 keys.  The values are read
last, by one flat take on the block, and only then made absolute.  Each
round of draws reads the outer sets through flat (a, s) indices and holds
no (a, m) array.

Each round conditions its drawn subsets in `_feasible`: the column pairs'
Gram entries decide every subset outside a band of half-width 1e-8 around
1 - rho_minus^2 (a Gershgorin bound accepts, Cauchy interlacing rejects), and
only the rest run eigvalsh, so the accepted subsets are exactly those an
eigvalsh of every subset accepts.  The kernel keeps no sigma_min;
`constrained_select` computes it for its one accepted subset.

The exact oracle, `exact_inf_profile`, takes the min over every s-subset
that `_feasible` accepts of max_{j in S} |<X_j, v>|, for every s by one walk:
in each direction's value order, the answer is the value of the first column
that closes such a subset with s-1 earlier columns.  While C(p, s) is at
most 2^23, `_Decided` keeps one int8 answer per s-subset (8 MiB at most), so
each subset is decided once per call; past that it keeps no table and
decides each subset where the walk meets it.  It reads the pipeline's
|X^T v| entries, bit for bit, and a direction still open once its prefix
holds more than DEFAULT_BRUTE_FORCE_LIMIT s-subsets raises BudgetExceeded.

`estimate_gamma` runs the pipeline over a net and adds the net's radius times
the columns' Lipschitz slack 1 + UNIT_NORM_TOL.  Over a `sphere.cube_grid`,
whose radius is proven, `certified_upper` bounds the worst-direction value;
over a stall-stopped `build_eps_net` (mode "heuristic") the radius is only
its separation eps, so the bound is heuristic.  Its lower estimate is the
exact oracle's max over random probes: a value attained at a real direction,
so never above the worst-direction value.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from itertools import combinations

import numpy as np

# stated without numpy in `config`, for the CLI's flag tables; re-exported here
from .config import DEFAULT_MAX_ATTEMPTS, KAPPA_BRANCH_CONSTANT, SelectionConfig  # noqa: F401
from .errors import BudgetExceeded, InvalidInput
from .linalg import UNIT_NORM_TOL, ColumnMatrix, IndexSet, unit_rows
from .sphere import EpsNet, RngStream, _as_generator, sample_unit_vectors

DEFAULT_BRUTE_FORCE_LIMIT = 200_000
# Columns of each direction that the exact oracle ranks before its walk.
_PREFIX_COLUMNS = 4
# Subsets the exact oracle's table of decided answers holds at most (8 MiB
# of int8); past it, the oracle keeps no table.
_TABLE_SUBSETS = 1 << 23
# Values per product block of X^T v (0.5 MiB of float64): a multiple of 64
# direction rows, whose product takes them zero-padded to a multiple of
# _TILE_ROWS, so a direction's entries do not depend on its block (see
# `_product_blocks`).
_RANK_ELEMENTS = 1 << 16
# Columns up to which `_rank_rows` starts at float32 keys and sorts them in
# full; longer rows start at float64 keys and partition them (see
# `_rank_rows`).
_FLOAT32_KEY_COLUMNS = 512
# Direction rows per BLAS tile of the product.
_TILE_ROWS = 8
# Product blocks per chunk of the exact oracle's walk, which pays a fixed
# cost per chunk.
_WALK_BLOCKS = 8
# Random probes per block of `estimate_gamma`'s lower estimate.
_PROBE_BLOCK = 1 << 16
# Half-width of the band around 1 - rho_minus^2 in which a column pair's
# Gram entry leaves the feasibility test to eigvalsh (see `_feasible`).
_PAIR_BAND = 1e-8


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


def _row_blocks(count: int, p: int, scale: int = 1) -> list[slice]:
    """Row slices of `count` directions, `scale` product blocks each: a
    product block is the multiple of 64 rows (at least 64) that holds about
    _RANK_ELEMENTS of the (p, rows) values, and the last slice takes what is
    left."""
    rows = scale * max(64, _RANK_ELEMENTS // p // 64 * 64)
    return [slice(lo, min(lo + rows, count)) for lo in range(0, count, rows)]


def _product_blocks(matrix: ColumnMatrix, dirs: np.ndarray, blocks):
    """Yields each row slice of `blocks` and the C-contiguous (p, width)
    <X_j, v> of its directions, as the product leaves it (no copy, no
    absolute value: `_rank_rows` takes magnitudes): its first len(slice)
    columns hold one direction each, and the rest are padding.  No (p, count)
    array is held if the caller drops each block in turn.

    The padding contract: a block's direction rows are copied into a zeroed
    buffer of a multiple of _TILE_ROWS rows, and X^T D^T is taken of that
    buffer.  Every direction then sits in a full BLAS tile, so its entries
    are the same bits whatever the call's direction count, the block, or its
    place in it (checked in the tests): a one-direction call reads exactly
    its column of a batch.  `blocks` may be an iterator that other threads
    draw from too.
    """
    for rows in blocks:
        d = dirs[rows]
        padded = np.zeros((-(-len(d) // _TILE_ROWS) * _TILE_ROWS, matrix.n))
        padded[: len(d)] = d
        yield rows, matrix.data.T @ padded.T


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, where the
    platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _outer_ranked(matrix: ColumnMatrix, dirs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The outer set of every direction row: the m columns with smallest
    |<X_j, v>|, in value order with ties to the smaller column index (the
    first m of a stable argsort), as (count, m) indices and their values.

    Each block of `_product_blocks` is ranked by `_rank_rows` into its own
    rows of the outputs.  One shared iterator hands the blocks to a thread
    per CPU (`_cpu_count`), the caller among them; numpy releases the GIL in
    a block's product, cast and sorts.  A block's ranking does not depend on
    the thread that makes it, so neither do the outputs.  A single block
    starts no thread, and an exception in any thread is raised here once
    every thread has stopped.
    """
    outer = np.empty((dirs.shape[0], m), dtype=np.intp)
    values = np.empty((dirs.shape[0], m))
    blocks = _row_blocks(dirs.shape[0], matrix.p)
    shared = iter(blocks)
    errors = []

    def rank() -> None:
        try:
            for rows, a in _product_blocks(matrix, dirs, shared):
                _rank_rows(a, outer[rows], values[rows])
        except BaseException as exc:  # raised by the caller, after the join
            errors.append(exc)

    helpers = [threading.Thread(target=rank) for _ in range(min(_cpu_count(), len(blocks)) - 1)]
    for helper in helpers:
        helper.start()
    rank()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return outer, values


def _rank_rows(a: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """Writes into `idx` and `values` (rows, m) the first m of a stable
    argsort of the magnitudes in each of the first `rows` columns of `a`
    (p, width), and those magnitudes.  Those columns of `a` are finite
    (X^T v entries); any further ones are padding, which is not read.  `idx`
    and `values` may be row slices of larger outputs: no other row is
    written.

    Each row is ranked by keys (`_key_ranks`): an entry's key is its float32
    or float64 bit pattern, read as a uint32 or uint64, with the sign bit
    cleared, which makes it the pattern of its magnitude, and the low
    b = (p-1).bit_length() bits replaced by its column index.  The bit
    pattern of a nonnegative finite float sorts like its value, and both
    the rounding to float32 and the clearing of low bits are monotone
    (x <= y gives f(x) <= f(y)), so where two keys' value parts differ they
    order the entries as their float64 values do.  The keys of a row are
    distinct and sort by (value part, column), so its first m keys are its
    answer unless two of its first m + 1 share a value part: a tie at the
    m-th and (m+1)-th leaves the set undecided, a tie among the first m
    leaves their order undecided, and the row goes on to the next stage.

    A row passes through at most three stages, each taking only the rows
    the one before left undecided: float32 keys, float64 keys, and a full
    stable argsort of its float64 magnitudes.  Rows of at most
    _FLOAT32_KEY_COLUMNS = 512 columns start at float32 keys, which keep at
    least 15 of float32's 24 significand bits; longer rows start at float64
    keys, because float32 keys keep so few value bits there that most rows
    tie once m is large (61% at p = 1000, m = 200, against 0.4% at m = 15),
    and float64 keys alone rank them faster.  The stage a call starts at
    depends on p only.  The values are read from `a` last, the same bits
    whichever stage ranked a row, by one take on `a` flattened in C order
    at idx * width + row, and made absolute in place.
    """
    rows, m = idx.shape
    p, width = a.shape
    b = a[:, :rows]
    first = np.uint32 if p <= _FLOAT32_KEY_COLUMNS else np.uint64
    todo = _key_ranks(b, first, idx)
    if todo.size and first is np.uint32:
        again = np.empty((todo.size, m), dtype=np.intp)
        left = _key_ranks(b[:, todo], np.uint64, again)
        idx[todo] = again
        todo = todo[left]
    if todo.size:
        idx[todo] = np.argsort(np.abs(b[:, todo]).T, axis=1, kind="stable")[:, :m]
    flat = idx * width
    flat += np.arange(rows)[:, None]
    # every index is in range; "clip" writes straight into `values`, where
    # the default mode would buffer it
    a.take(flat, out=values, mode="clip")
    np.abs(values, out=values)


def _key_ranks(b: np.ndarray, key: type, idx: np.ndarray) -> np.ndarray:
    """Writes into `idx` (rows, m) the first m columns of each direction in
    `b` (p, rows, one column per direction) by its keys of type `key`
    (uint32 keys from float32 values, uint64 from float64; see
    `_rank_rows`), and returns the positions of the directions whose
    ranking is undecided.

    The keys are copied into their (rows, p) array in slabs of about
    _RANK_ELEMENTS values, so each slab's transposing reads stay in cache.
    Float32 keys are cast and marked before that copy, in b's layout, whose
    rows (one per column index) are the long ones at p <= 512, so the copy
    moves half the bytes; float64 keys (p > 512, or a block's few tied
    directions) are marked after it, along the keys' own rows.  Rows of at
    most _FLOAT32_KEY_COLUMNS columns sort their keys in full; longer rows
    partition them at m and sort only the first m, which is several times
    faster there.  The ties are found in one pass over the first m + 1 keys
    of every row laid end to end: two neighbours share a value part when
    their xor is below 2^b, and a pair that spans two rows is dropped.
    """
    p, rows = b.shape
    m = idx.shape[1]
    bits = (p - 1).bit_length()
    # the bits above the column index, less the sign bit: the keys order |b|
    keep = key((1 << (8 * np.dtype(key).itemsize - 1)) - (1 << bits))
    cols = np.arange(p, dtype=key)
    if key is np.uint32:
        b = b.astype(np.float32).view(key)
        b &= keep
        b |= cols[:, None]
    k = np.empty((rows, p), dtype=key)
    step = max(1, _RANK_ELEMENTS // rows)
    for lo in range(0, p, step):
        k[:, lo : lo + step] = b[lo : lo + step].view(key).T
    if key is np.uint64:
        k &= keep
        k |= cols
    if p > _FLOAT32_KEY_COLUMNS and m < p:
        k.partition(m, axis=1)
        k[:, :m].sort(axis=1)
    else:
        k.sort(axis=1)
    head = np.ascontiguousarray(k[:, : m + 1])
    width = head.shape[1]
    keys = head.reshape(-1)
    same = (keys[1:] ^ keys[:-1]) < (1 << bits)
    same[width - 1 :: width] = False  # the pairs that span two rows
    keys &= key((1 << bits) - 1)
    idx[...] = head[:, :m]
    undecided = np.zeros(rows, dtype=bool)
    undecided[np.flatnonzero(same) // width] = True
    return np.flatnonzero(undecided)


def greedy_outer(matrix: ColumnMatrix, v: np.ndarray, m: int) -> IndexSet:
    """The m column indices with smallest |<X_j, v>|, ties to the smaller index.

    Equivalent to iterating argmin over the not-yet-selected columns m times.
    """
    if not 1 <= m <= matrix.p:
        raise InvalidInput(f"outer size m={m} must satisfy 1 <= m <= p={matrix.p}")
    outer, _ = _outer_ranked(matrix, unit_rows(np.reshape(v, (1, -1)), matrix.n), m)
    return IndexSet.from_iterable(outer[0])


def _subset_positions(m: int, swaps: np.ndarray) -> np.ndarray:
    """Positions 0..k-1 of each row of `swaps` (rows, k) after the partial
    Fisher-Yates swaps i <-> swaps[row, i] for i = 0..k-1 of the positions
    0..m-1.  With swaps[:, i] uniform on [i, m), they are a uniform k-subset.

    No (rows, m) array is built.  Position i is last written by swap i
    (later swaps write only positions above i), which brings it the entry
    then at swaps[:, i].  Traced back through swaps i-1, ..., 0, that
    entry's position stays above each swap's own position j, so swap j can
    only have brought it there from j, when swaps[:, j] is that position.
    O(k^2) vector steps.
    """
    pos = swaps.copy()
    for i in range(1, swaps.shape[1]):
        q = pos[:, i]
        for j in range(i - 1, -1, -1):
            q[q == swaps[:, j]] = j
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
    radius = np.zeros((s, a))
    widest = np.zeros(a)
    for i, j in combinations(range(s), 2):
        g = np.abs(np.einsum("kn,kn->k", vecs[:, i], vecs[:, j]))
        radius[i] += g
        radius[j] += g
        np.maximum(widest, g, out=widest)
    ok = radius.max(axis=0) <= bound - _PAIR_BAND
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
    value-ranked outer list, `_subset_positions`) for every direction still
    without a well-conditioned subset, conditions them all at once
    (`_feasible`), and reads each accepted subset's attained value from the
    outer-set values.  A round reads the outer sets through flat indices
    direction * m + position, so it holds only (a, s) arrays.
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
    dirs = unit_rows(directions, matrix.n)
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
        pos += (active * m)[:, None]  # (a, s) flat indices into the (count, m) outputs
        chosen = outer.take(pos)
        ok = _feasible(cols_t.take(chosen, axis=0), cfg.rho_minus)
        accepted = np.flatnonzero(ok)
        if accepted.size:
            hit = active[accepted]
            inner[hit] = chosen[accepted]
            attempts[hit] = attempt
            attained[hit] = b_outer.take(pos[accepted].T).max(axis=0)
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


def brute_force_inf(matrix: ColumnMatrix, v: np.ndarray, s: int, rho_minus: float) -> float:
    """Exact inf over well-conditioned s-subsets of max_j |<X_j, v>|, +inf
    if none is: the one-direction view of `exact_inf_profile`."""
    return float(exact_inf_profile(matrix, np.reshape(v, (1, -1)), s, rho_minus)[0])


class _Decided:
    """`_feasible`'s answer for column subsets: each decided once per call
    while C(p, s) <= _TABLE_SUBSETS, and wherever it is met past that, where
    no table is built.

    The table is an int8 array of exactly C(p, s) answers (-1 undecided),
    one per subset c_0 < ... < c_{s-1}, at its combinatorial rank
    sum_i C(c_i, i+1) < C(p, s), read from an (s, p) binomial table (s <= n,
    so no larger than the matrix).  Each term of a rank is at most the rank,
    so every entry a subset reads is exact.
    """

    def __init__(self, cols_t: np.ndarray, s: int, rho_minus: float) -> None:
        p = cols_t.shape[0]
        self.cols_t, self.rho_minus, self.state = cols_t, rho_minus, None
        if math.comb(p, s) <= _TABLE_SUBSETS:
            self.binom = np.zeros((s, p), dtype=np.intp)  # binom[i, c] = C(c, i+1)
            self.binom[0] = np.arange(p)
            for i in range(1, s):
                np.cumsum(self.binom[i - 1, :-1], out=self.binom[i, 1:])
            self.state = np.full(math.comb(p, s), -1, dtype=np.int8)

    def __call__(self, sub: np.ndarray) -> np.ndarray:
        """The answer for each column of `sub` (s, a), a subset in index order."""
        if self.state is None:
            return _feasible(self.cols_t[sub.T], self.rho_minus)
        rank = sum(b.take(c) for b, c in zip(self.binom, sub))
        state = self.state.take(rank)
        miss = np.flatnonzero(state < 0)
        if miss.size:
            # each new rank once, in rank order; any of its columns is the same
            # subset, so the sort need not be stable
            order = miss[rank[miss].argsort()]
            first = order[np.flatnonzero(np.diff(rank[order], prepend=-1))]
            self.state[rank[first]] = _feasible(self.cols_t[sub[:, first].T], self.rho_minus)
            state[miss] = self.state.take(rank[miss])
        return state == 1


def _closes(decided: _Decided, prefix: np.ndarray, s: int) -> np.ndarray:
    """Whether the last column of each direction of `prefix` (k+1, a), its
    first k+1 ranked columns, forms a subset `_feasible` accepts with s-1 of
    its earlier columns.  Directions run in slices of about
    _WALK_BLOCKS * _RANK_ELEMENTS // s candidates; one direction's C(k, s-1)
    candidates are bounded through the budget."""
    k = prefix.shape[0] - 1
    earlier = np.array(list(combinations(range(k), s - 1)), dtype=np.intp)  # (e, s-1)
    step = max(1, _WALK_BLOCKS * _RANK_ELEMENTS // (len(earlier) * s))
    closes = np.empty(prefix.shape[1], dtype=bool)
    for lo in range(0, prefix.shape[1], step):
        pre = prefix[:k, lo : lo + step]
        if s > 2:  # at s = 2 each candidate has one earlier column: no order needed
            pre = np.sort(pre, axis=0)
        last = prefix[k, lo : lo + step]
        # a candidate's i-th column in index order is max(min(a_i, last), a_{i-1}),
        # a_i its i-th earlier column in index order (a_{-1} = -inf, a_{s-1} = +inf)
        sub = np.empty((s, len(earlier), len(last)), dtype=np.intp)
        sub[:-1], sub[-1] = pre[earlier.T], last
        for i in range(s - 1, 0, -1):
            np.maximum(np.minimum(sub[i], last, out=sub[i]), sub[i - 1], out=sub[i])
        np.minimum(sub[0], last, out=sub[0])
        closes[lo : lo + step] = decided(sub.reshape(s, -1)).reshape(-1, len(last)).any(axis=0)
    return closes


def _walk(decided: _Decided, ranked: tuple[np.ndarray, np.ndarray], s: int,
          start: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact value of each row ranked by `_rank_rows`, walked from
    position `start`, and the rows still open at the end (left at +inf).

    The value is b_(k*) for the first position k* whose column closes a
    feasible subset with s-1 earlier columns: every feasible subset has its
    largest value at or after b_(k*).  A row still open at a position k with
    C(k+1, s) > DEFAULT_BRUTE_FORCE_LIMIT raises BudgetExceeded."""
    idx, vals = ranked
    ranks = np.ascontiguousarray(idx.T)  # a position's columns in one row, for takes
    value = np.full(idx.shape[0], math.inf)
    open_rows = np.arange(idx.shape[0])
    for k in range(max(start, s - 1), idx.shape[1]):
        if not open_rows.size:
            break
        if math.comb(k + 1, s) > DEFAULT_BRUTE_FORCE_LIMIT:
            raise BudgetExceeded(
                f"a direction is still open after {k} ranked columns, and C({k + 1},{s})="
                f"{math.comb(k + 1, s)} exceeds the budget {DEFAULT_BRUTE_FORCE_LIMIT}"
            )
        closes = _closes(decided, ranks[: k + 1].take(open_rows, axis=1), s)
        shut = open_rows[closes]
        value[shut] = vals[shut, k]
        open_rows = open_rows[~closes]
    return value, open_rows


def exact_inf_profile(
    matrix: ColumnMatrix, directions: np.ndarray, s: int, rho_minus: float
) -> np.ndarray:
    """Exact selection value for many directions: the min over the s-subsets
    that `_feasible` accepts of max_{j in S} |<X_j, v>|, +inf if none is.

    The directions run in chunks of _WALK_BLOCKS row blocks.  `_outer_ranked`
    ranks a chunk's first _PREFIX_COLUMNS columns from the pipeline's |X^T v|
    entries, and `_walk` walks them; the rows still open are ranked in full
    from their entries taken again, the same bits, and walked on.  Only the
    rankings run on every CPU: the walks share one `_Decided`, so they
    run in the caller's thread."""
    dirs = unit_rows(directions, matrix.n)
    if not 1 <= s <= matrix.p:
        raise InvalidInput(f"subset size s={s} invalid for p={matrix.p}")
    out = np.full(dirs.shape[0], math.inf)
    if s > matrix.n:
        return out  # rank-deficient subsets can never reach rho_minus > 0
    decided = _Decided(matrix.data.T, s, rho_minus)
    width = min(_PREFIX_COLUMNS, matrix.p)
    for rows in _row_blocks(dirs.shape[0], matrix.p, _WALK_BLOCKS):
        chunk = dirs[rows]
        value, rest = _walk(decided, _outer_ranked(matrix, chunk, width), s, 0)
        if rest.size and width < matrix.p:
            value[rest], _ = _walk(decided, _outer_ranked(matrix, chunk[rest], matrix.p), s, width)
        out[rows] = value
    return out


@dataclass(frozen=True)
class GammaEstimate:
    """Two-sided view of the worst-direction selection value.

    certified_upper is sup over the net of pipeline values plus the net
    radius, valid for the whole sphere whenever the net covers it to that
    radius (a heuristic net is not proven to);
    heuristic_lower is the max over random probe directions of the exact
    per-direction value (`exact_inf_profile`), so it is a true value at a
    real direction and never exceeds the worst-direction value.
    """

    certified_upper: float
    heuristic_lower: float
    directions_tested: int
    net: dict
    feasibility_rate: float


def estimate_gamma(
    matrix: ColumnMatrix,
    cfg: SelectionConfig,
    net: EpsNet,
    probe_count: int,
    rng: RngStream | np.random.Generator,
) -> GammaEstimate:
    """Certificate over a net plus a random-probe lower estimate.

    The selection value is even in v and Lipschitz with constant
    max ||X_j|| <= 1 + UNIT_NORM_TOL, so the max of the pipeline values over
    a net that, with its negatives, covers the sphere to `net.radius` bounds
    the sup over the sphere once `net.radius * (1 + UNIT_NORM_TOL)` is added.

    The probes are drawn and evaluated in blocks of _PROBE_BLOCK, and only
    each block's max and finite count are kept, so memory does not grow
    with `probe_count`.  Successive blocks draw the numbers that one draw of
    every probe would; only a near-zero row (norm at most
    `sphere.MIN_DRAW_NORM`), which `sample_unit_vectors` redraws after its
    block, can take its redraw from elsewhere in the stream.
    """
    if net.dimension != matrix.n:
        raise InvalidInput(f"net dimension {net.dimension} does not match matrix n={matrix.n}")
    if probe_count < 0:
        raise InvalidInput("probe_count must be nonnegative")
    gen = _as_generator(rng)
    net_vals = attained_values(matrix, net.points, cfg, gen)
    finite = int(np.sum(np.isfinite(net_vals)))
    certified_upper = math.inf
    if finite == len(net):
        certified_upper = (float(np.max(net_vals, initial=0.0))
                           + net.radius * (1.0 + UNIT_NORM_TOL))

    block_max = []
    for lo in range(0, probe_count, _PROBE_BLOCK):
        probes = sample_unit_vectors(matrix.n, min(_PROBE_BLOCK, probe_count - lo), gen)
        vals = exact_inf_profile(matrix, probes, cfg.s, cfg.rho_minus)
        vals = vals[np.isfinite(vals)]
        finite += vals.size
        if vals.size:
            block_max.append(float(np.max(vals)))
    heuristic_lower = max(block_max, default=math.inf if probe_count else 0.0)
    total = len(net) + probe_count
    return GammaEstimate(
        certified_upper=certified_upper,
        heuristic_lower=heuristic_lower,
        directions_tested=total,
        net=net.descriptor(),
        feasibility_rate=finite / total if total else 0.0,
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
