import math
import os
import threading
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from click.testing import CliRunner

from orthoselect import (
    BudgetExceeded,
    ColumnMatrix,
    InvalidInput,
    RngStream,
    SelectionConfig,
    attained_values,
    brute_force_inf,
    build_eps_net,
    constrained_select,
    cube_grid,
    estimate_gamma,
    exact_inf_profile,
    greedy_outer,
    inf_norm_against,
    sample_sphere_matrix,
    sample_unit_vector,
    sample_unit_vectors,
    submatrix,
)
from orthoselect import cli, matrixio, selection
from orthoselect.linalg import UNIT_NORM_TOL

import oracles
from oracles import (eigvalsh_sigma_min, exact_inf_gather, feasible_subsets, feasible_subsets_loop,
                     pipeline_eigvalsh)


def sort_oracle(matrix, v, m):
    vals = np.abs(matrix.data.T @ v)
    ranked = sorted(range(matrix.p), key=lambda j: (vals[j], j))
    return tuple(sorted(ranked[:m]))


def brute_inf_second_path(matrix, v, s, rho):
    """Independent enumeration: SVD per subset instead of Gram eigenvalues."""
    b = np.abs(matrix.data.T @ v)
    best = math.inf
    for subset in combinations(range(matrix.p), s):
        svals = np.linalg.svd(matrix.data[:, list(subset)], compute_uv=False)
        if svals[-1] >= rho:
            best = min(best, float(np.max(b[list(subset)])))
    return best


def test_config_validation():
    with pytest.raises(InvalidInput):
        SelectionConfig(s=0)
    with pytest.raises(InvalidInput):
        SelectionConfig(s=2, rho_minus=1.5)
    with pytest.raises(InvalidInput):
        SelectionConfig(s=2, kappa=0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInput):
            SelectionConfig(s=2, kappa=bad)
    assert SelectionConfig(s=2, kappa=3.0).outer_size(12) == 6
    assert SelectionConfig(s=2, kappa=3.0).outer_size(100) == 6
    assert SelectionConfig(s=4, kappa=100.0).outer_size(100) == 50


def test_kernel_rejects_non_unit_and_non_finite_directions():
    x = sample_sphere_matrix(4, 12, RngStream(1, 0))
    cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=3.0)
    for row in ([3.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0], [math.inf, 0.0, 0.0, 0.0]):
        dirs = np.array([row])
        with pytest.raises(InvalidInput):
            attained_values(x, dirs, cfg, RngStream(2, 0))
        with pytest.raises(InvalidInput):
            exact_inf_profile(x, dirs, 2, 0.5)
        with pytest.raises(InvalidInput):
            constrained_select(x, dirs[0], cfg, RngStream(2, 0))


def test_greedy_outer_identity_plus_direction_column():
    cols = np.column_stack([np.eye(3), np.array([1.0, 0.0, 0.0])])
    x = ColumnMatrix(cols)
    v = np.array([1.0, 0.0, 0.0])
    assert greedy_outer(x, v, 2).indices == (1, 2)


def test_greedy_outer_full_and_errors():
    x = sample_sphere_matrix(4, 9, RngStream(1, 0))
    v = sample_unit_vector(4, RngStream(2, 0))
    assert greedy_outer(x, v, 9).indices == tuple(range(9))
    with pytest.raises(InvalidInput):
        greedy_outer(x, v, 10)
    with pytest.raises(InvalidInput):
        greedy_outer(x, v, 0)


def test_greedy_outer_matches_sort_oracle():
    for i in range(40):
        x = sample_sphere_matrix(5, 20, RngStream(3, i))
        v = sample_unit_vector(5, RngStream(4, i))
        assert greedy_outer(x, v, 8).indices == sort_oracle(x, v, 8)


def test_greedy_outer_values_are_sorted_prefix():
    x = sample_sphere_matrix(5, 20, RngStream(5, 0))
    v = sample_unit_vector(5, RngStream(6, 0))
    vals = np.abs(x.data.T @ v)
    chosen = sorted(vals[list(greedy_outer(x, v, 8).indices)])
    assert np.allclose(chosen, np.sort(vals)[:8])


def test_greedy_outer_tie_break_smallest_index():
    cols = np.column_stack([np.eye(3)[:, 1], np.eye(3)[:, 2], np.eye(3)[:, 1] * -1.0])
    x = ColumnMatrix(cols)
    v = np.array([1.0, 0.0, 0.0])  # all inner products are 0: pure tie
    assert greedy_outer(x, v, 2).indices == (0, 1)


def stable_first(b, m):
    """The first m of a full stable argsort of each row of `b`, and their
    values."""
    order = np.argsort(b, axis=1, kind="stable")[:, :m]
    return order, np.take_along_axis(b, order, axis=1)


def rank_rows(a, rows, m):
    """`selection._rank_rows` of the first `rows` columns of `a`, into
    fresh (rows, m) outputs."""
    idx, vals = np.empty((rows, m), dtype=np.intp), np.empty((rows, m))
    selection._rank_rows(a, idx, vals)
    return idx, vals


def stable_argsort_oracle(matrix, dirs, m):
    """The sort_oracle rule for many rows: the first m of a full stable
    argsort of |X^T v|, and those entries of `oracles.abs_products`."""
    return stable_first(oracles.abs_products(matrix, dirs), m)


def boundary_tied(matrix, dirs, m):
    """Rows with more than m values at or below their m-th smallest value."""
    b = oracles.abs_products(matrix, dirs)
    kth = np.sort(b, axis=1)[:, m - 1 : m]
    return np.count_nonzero(b <= kth, axis=1) > m


def test_outer_ranked_matches_stable_argsort_across_blocks_and_ties():
    # duplicate and antipodal copies of 40 columns beside 100 distinct ones:
    # a row whose m-th value falls on a copied column ties at the boundary
    y = sample_sphere_matrix(4, 40, RngStream(57, 0)).data
    z = sample_sphere_matrix(4, 100, RngStream(57, 1)).data
    x = ColumnMatrix(np.hstack([y, y, -y, z]))
    count = 10_007  # many ranking blocks at p = 220, and a short last one
    assert count > 3 * selection._RANK_ELEMENTS // x.p
    dirs = sample_unit_vectors(4, count, RngStream(58, 0))
    for m in (1, 15, 110, x.p):
        outer, values = selection._outer_ranked(x, dirs, m)
        expected, expected_values = stable_argsort_oracle(x, dirs, m)
        assert np.array_equal(outer, expected)
        assert np.array_equal(values, expected_values)
    tied = boundary_tied(x, dirs, 15)
    assert 0 < np.count_nonzero(tied) < count
    # eye(8): v = e_8 ties seven zeros, (e_1+e_2)/sqrt(2) ties six zeros and
    # then the pair
    eye = ColumnMatrix(np.eye(8))
    dirs = np.array([np.eye(8)[7], (np.eye(8)[0] + np.eye(8)[1]) / math.sqrt(2.0)])
    for m in range(1, 9):
        outer, values = selection._outer_ranked(eye, dirs, m)
        expected, expected_values = stable_argsort_oracle(eye, dirs, m)
        assert np.array_equal(outer, expected)
        assert np.array_equal(values, expected_values)
        for v in dirs:
            assert greedy_outer(eye, v, m).indices == sort_oracle(eye, v, m)
    assert np.all(boundary_tied(eye, dirs, 2))


def first_key(p):
    """The unsigned type of the keys `selection._rank_rows` ranks p columns
    by first, and the low bits a key's column index takes."""
    return np.uint32 if p <= selection._FLOAT32_KEY_COLUMNS else np.uint64, (p - 1).bit_length()


def collided(p, rows, seed):
    """A (p, rows) block whose entries mostly sit near seven values k/16 (a
    fraction min(1/3, 50/p) are uniform on [0, 1)).  Half of the rest are
    moved by -w..w float64 steps of 2^-40 or not at all, w = max(2, p // 50)
    so that the m smallest still hold several steps at large p: distinct
    float64 values that round to one float32 value, and exact ties.  The
    other half take one of those values, or its float32 rounding, and add a
    random number below 2^bits to its low bits, bits as `first_key` gives:
    distinct values whose keys of that width keep the same value part."""
    rng = np.random.default_rng(seed)
    base = rng.integers(1, 8, size=(p, rows)) / 16
    w = max(2, min(1000, p // 5))
    grid = base + rng.integers(-w, w + 1, size=(p, rows)) * 2.0**-40
    assert np.array_equal(grid.astype(np.float32), base)  # each rounds to its k/16
    low = rng.integers(0, 1 << first_key(p)[1], size=(p, rows))
    keyed = np.where(rng.random((p, rows)) < 0.5,
                     (base.astype(np.float32).view(np.uint32) + low.astype(np.uint32)).view(np.float32),
                     (grid.view(np.uint64) + low.astype(np.uint64)).view(np.float64))
    pick = rng.random((p, rows))
    uniform = min(1 / 3, 50 / p)
    return np.where(pick < uniform, rng.random((p, rows)),
                    np.where(pick < (1 + uniform) / 2, grid, keyed))


def collision_kinds(b, m):
    """How many rows of `b` (rows, p) have distinct values of the first
    key's float type whose keys keep the same value part across and below
    their m-th smallest, and how many have an exact tie among their first
    m + 1.  Where the first keys are float32 ones, also how many have
    distinct float64 values that round to one float32 value across, at or
    below their m-th smallest."""
    key, bits = first_key(b.shape[1])
    s64 = np.sort(b, axis=1)[:, : m + 1]
    s32 = s64.astype(np.float32)
    first = s32 if key is np.uint32 else s64
    part = first.view(key) >> key(bits)
    shared = (part[:, 1:] == part[:, :-1]) & (first[:, 1:] != first[:, :-1])  # (rows, m)
    kinds = {
        "key across": np.count_nonzero(shared[:, m - 1]),
        "key below": np.count_nonzero(shared[:, : m - 1].any(axis=1)),
        "exact": np.count_nonzero((s64[:, 1:] == s64[:, :-1]).any(axis=1)),
    }
    if key is np.uint32:
        merged = (s32[:, 1:] == s32[:, :-1]) & (s64[:, 1:] != s64[:, :-1])
        split = s32[:, m - 1] < s32[:, m]
        kinds.update(across=np.count_nonzero(merged[:, m - 1]),
                     at=np.count_nonzero(merged[:, m - 2] & split),
                     below=np.count_nonzero(merged[:, : m - 2].any(axis=1) & split))
    return kinds


@pytest.mark.parametrize("p, m", [(12, 1), (12, 3), (12, 6), (12, 11), (12, 12), (200, 15),
                                  (200, 100), (200, 200), (5000, 15), (5000, 200), (5000, 5000)])
def test_rank_rows_sees_through_float32_rounding_and_ties(p, m, monkeypatch):
    rows = min(4_000, 2_000_000 // p)
    wide = np.zeros((p, rows + 5))
    wide[:, :rows] = collided(p, rows, p * 1000 + m)
    a = wide[:, :rows]  # the directions of a padded product, as `_product_blocks` yields
    expected = stable_first(a.T, m)
    # each stage's key type (None for the stable argsort that follows the
    # keys), input block and the positions of the rows it leaves undecided
    stages = []
    real_key_ranks, real_argsort = selection._key_ranks, np.argsort

    def key_ranks(b, key, idx):
        tied = real_key_ranks(b, key, idx)
        stages.append((key, b, tied))
        return tied

    def argsort(b, *args, **kwargs):
        stages.append((None, b.T, np.zeros(0, dtype=np.intp)))
        return real_argsort(b, *args, **kwargs)

    monkeypatch.setattr(selection, "_key_ranks", key_ranks)
    monkeypatch.setattr(np, "argsort", argsort)
    idx, vals = rank_rows(wide, rows, m)
    monkeypatch.undo()
    assert np.array_equal(idx, expected[0]) and np.array_equal(vals, expected[1])
    # every stage takes exactly the rows the one before left undecided
    left = np.arange(rows)
    for _, b, tied in stages:
        assert np.array_equal(b, a[:, left])
        left = left[tied]
    assert not left.size
    # two stages: the key type p picks, then the stable argsort
    order = [first_key(p)[0], None]
    assert [key for key, _, _ in stages] == order[: len(stages)]
    # one row at a time
    for k in range(0, rows, 101):
        idx, vals = rank_rows(a[:, k : k + 1], 1, m)
        assert np.array_equal(idx[0], expected[0][k]) and np.array_equal(vals[0], expected[1][k])
    if 3 <= m < p:
        kinds = collision_kinds(a.T, m)
        assert all(kinds.values()), kinds
        assert len(stages) == len(order)  # both stages took rows


@pytest.mark.parametrize("p, m", [(12, 4), (12, 12), (200, 15), (200, 200), (600, 15), (600, 600)])
def test_rank_rows_writes_the_fancy_gather_into_its_rows_only(p, m):
    rows = 300
    rng = np.random.default_rng(p + m)
    wide = np.zeros((p, rows + 7))  # zero padding, as `_product_blocks` leaves it
    # signed entries, ranked by magnitude: a product's signs, and zeros of both signs
    wide[:, :rows] = collided(p, rows, p + m) * rng.choice([-1.0, 1.0], size=(p, rows))
    wide[:, :rows][rng.random((p, rows)) < 0.02] = -0.0
    wide[:, :rows][rng.random((p, rows)) < 0.02] = 0.0
    a = wide[:, :rows]

    def check(block, count, outer, values):
        """`block`'s first `count` columns ranked into `outer` and `values`:
        the stable argsort of their magnitudes, and the magnitudes of the 2-D
        fancy gather, bit for bit."""
        assert np.array_equal(outer, stable_first(np.abs(block[:, :count]).T, m)[0])
        assert np.array_equal(values.view(np.uint64),
                              np.abs(block[outer, np.arange(count)[:, None]]).view(np.uint64))

    # the padded product, a column copy as a later stage takes, one row
    copied = a[:, ::-3].copy()
    cases = [(wide, rows), (copied, copied.shape[1]), (a[:, 7:8], 1)]
    for block, count in cases:
        check(block, count, *rank_rows(block, count, m))
    # row slices of shared outputs: the rows around a slice keep their bytes
    outer = np.full((rows + 20, m), -7, dtype=np.intp)
    values = np.full((rows + 20, m), -0.5)
    selection._rank_rows(wide, outer[10 : rows + 10], values[10 : rows + 10])
    check(wide, rows, outer[10 : rows + 10], values[10 : rows + 10])
    assert np.all(outer[:10] == -7) and np.all(outer[rows + 10 :] == -7)
    assert np.all(values[:10] == -0.5) and np.all(values[rows + 10 :] == -0.5)


def test_subset_positions_match_a_full_fisher_yates_shuffle():
    gen = np.random.default_rng(67)
    for s in range(1, 6):
        for m in range(s, 31):
            swaps = np.column_stack([gen.integers(i, m, size=200) for i in range(s)])
            # the extreme targets too: no swap, and a swap with the last position
            swaps[0], swaps[1] = np.arange(s), m - 1
            got = selection._subset_positions(m, swaps)
            assert got.shape == (200, s)
            assert np.array_equal(got, oracles.fisher_yates_positions(m, swaps)[:, :s])


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return starts


def set_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_outputs_do_not_depend_on_the_cpu_count(monkeypatch, started):
    x = sample_sphere_matrix(4, 200, RngStream(59, 0))
    dirs = sample_unit_vectors(4, 10_007, RngStream(59, 1))
    cfg = SelectionConfig(s=2)
    assert len(selection._row_blocks(len(dirs), x.p)) > 4

    def outputs():
        return (attained_values(x, dirs, cfg, RngStream(59, 2)),
                [greedy_outer(x, v, 15).indices for v in dirs[:20]],
                exact_inf_profile(x, dirs, 2, 0.5))

    set_cpus(monkeypatch, 1)
    one = outputs()
    set_cpus(monkeypatch, 4)
    four = outputs()
    assert not started  # every block is ranked on the caller's thread
    assert np.array_equal(one[0], four[0])
    assert one[1] == four[1]
    assert np.array_equal(one[2], four[2])


@pytest.mark.parametrize("p", [12, 200, 220])
def test_one_direction_reads_its_row_of_a_batch(p):
    # p = 220 holds exact and antipodal copies of 40 columns, so rows tie
    x = duplicated_columns() if p == 220 else sample_sphere_matrix(4, p, RngStream(66, p))
    m = SelectionConfig(s=2).outer_size(p)
    for count in (1, 7, 10_007):
        dirs = sample_unit_vectors(4, count, RngStream(66, count))
        exact = exact_inf_profile(x, dirs, 2, 0.5)
        outer, values = selection._outer_ranked(x, dirs, m)
        b = oracles.abs_products(x, dirs)
        for i, v in enumerate(dirs):
            assert brute_force_inf(x, v, 2, 0.5) == exact[i]  # bit for bit
            one, one_values = selection._outer_ranked(x, v[None], m)
            assert np.array_equal(one[0], outer[i]) and np.array_equal(one_values[0], values[i])
            assert greedy_outer(x, v, m).indices == tuple(sorted(outer[i].tolist()))
        assert np.array_equal(values, np.take_along_axis(b, outer, axis=1))


def test_attained_values_memory_is_bounded():
    x = sample_sphere_matrix(4, 200, RngStream(60, 0))
    dirs = sample_unit_vectors(4, 50_000, RngStream(61, 0))
    cfg = SelectionConfig(s=2, rho_minus=0.5)
    tracemalloc.start()
    try:
        vals = attained_values(x, dirs, cfg, RngStream(62, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (p, count) value array and its argsort would take 160 MB alone
    assert peak < 40 * 2**20
    assert np.all(np.isfinite(vals))


def test_constrained_select_orthonormal_first_attempt():
    x = ColumnMatrix(np.eye(8))
    v = np.eye(8)[:, 7]
    cfg = SelectionConfig(s=3, rho_minus=0.9, kappa=1.25)  # outer size 4
    out = constrained_select(x, v, cfg, RngStream(7, 0))
    assert out.attempts_used == 1
    assert out.inner_set is not None and len(out.inner_set) == 3
    assert out.sigma_min_achieved == pytest.approx(1.0, abs=1e-12)


def test_constrained_select_budget_exhausted_on_antipodal_duplicates():
    col = sample_unit_vector(4, RngStream(8, 0))
    x = ColumnMatrix(np.column_stack([col, -col, col, -col]))
    v = sample_unit_vector(4, RngStream(9, 1))
    cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=1.0, max_attempts=50)  # outer size 2
    out = constrained_select(x, v, cfg, RngStream(9, 0))
    assert out.inner_set is None and out.sigma_min_achieved is None
    assert out.attempts_used == 50
    assert out.attained_value == math.inf


def test_pipeline_rejects_outer_set_smaller_than_s():
    # ceil(kappa*s) = 3 fits p = 4, but the outer size is capped at p // 2 = 2
    x = ColumnMatrix(np.eye(4))
    cfg = SelectionConfig(s=3, kappa=1.0)
    with pytest.raises(InvalidInput):
        constrained_select(x, np.eye(4)[:, 0], cfg, RngStream(1, 0))
    with pytest.raises(InvalidInput):
        attained_values(x, np.eye(4)[:1], cfg, RngStream(1, 0))


def test_attained_values_acceptance_frequency_matches_brute_force():
    # one attempt per direction: the finite fraction estimates the share of
    # feasible pairs inside the outer set
    x = sample_sphere_matrix(4, 16, RngStream(10, 0))
    v = sample_unit_vector(4, RngStream(10, 1))
    cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=4.0, max_attempts=1)  # outer size 8
    outer = greedy_outer(x, v, cfg.outer_size(16))
    feasible = feasible_subsets(submatrix(x, outer), 2, 0.5)
    exact_fraction = len(feasible) / math.comb(8, 2)
    assert 0.0 < exact_fraction < 1.0
    draws = 10_000
    vals = attained_values(x, np.tile(v, (draws, 1)), cfg, RngStream(11, 0))
    freq = float(np.mean(np.isfinite(vals)))
    sigma = math.sqrt(exact_fraction * (1.0 - exact_fraction) / draws)
    assert abs(freq - exact_fraction) <= 3.0 * sigma


def test_constrained_select_subsets_are_uniform():
    # every pair of an orthonormal outer set is feasible and should appear ~equally
    x = ColumnMatrix(np.eye(8))
    v = np.eye(8)[:, 7]
    cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=2.0)  # outer set {0, 1, 2, 3}
    gen = RngStream(12, 0).generator()
    counts: dict = {}
    draws = 12_000
    for _ in range(draws):
        out = constrained_select(x, v, cfg, gen)
        assert out.outer_set.indices == (0, 1, 2, 3)
        counts[out.inner_set.indices] = counts.get(out.inner_set.indices, 0) + 1
    assert len(counts) == 6
    expected = draws / 6
    for count in counts.values():
        assert abs(count - expected) <= 5.0 * math.sqrt(expected)


def test_constrained_select_zero_for_orthogonal_block():
    cols = [np.eye(4)[:, 0], np.eye(4)[:, 1], np.eye(4)[:, 2]]
    gen = RngStream(13, 0).generator()
    for _ in range(5):
        raw = gen.standard_normal(4)
        raw[3] = abs(raw[3]) + 0.5  # keep a visible component along v
        cols.append(raw / np.linalg.norm(raw))
    x = ColumnMatrix(np.column_stack(cols))
    v = np.eye(4)[:, 3]
    cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=1.5)  # outer size 3
    out = constrained_select(x, v, cfg, RngStream(14, 0))
    assert out.outer_set.indices == (0, 1, 2)
    assert out.attained_value == pytest.approx(0.0, abs=1e-15)
    assert out.sigma_min_achieved == pytest.approx(1.0, abs=1e-12)


def test_constrained_select_requires_room():
    x = sample_sphere_matrix(4, 10, RngStream(15, 0))
    v = sample_unit_vector(4, RngStream(16, 0))
    with pytest.raises(InvalidInput):
        constrained_select(x, v, SelectionConfig(s=2, kappa=6.0), RngStream(17, 0))


def test_constrained_select_value_bounded_by_outer_order_statistic():
    cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=3.0)
    for i in range(30):
        x = sample_sphere_matrix(4, 16, RngStream(18, i))
        v = sample_unit_vector(4, RngStream(19, i))
        out = constrained_select(x, v, cfg, RngStream(20, i))
        if out.inner_set is None:
            continue
        z_m = inf_norm_against(x, out.outer_set, v)
        assert out.attained_value <= z_m + 1e-12
        assert set(out.inner_set) <= set(out.outer_set)
        assert out.sigma_min_achieved >= cfg.rho_minus


def test_constrained_select_deterministic():
    x = sample_sphere_matrix(4, 16, RngStream(21, 0))
    v = sample_unit_vector(4, RngStream(22, 0))
    cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=3.0)
    a = constrained_select(x, v, cfg, RngStream(23, 0))
    b = constrained_select(x, v, cfg, RngStream(23, 0))
    assert a == b


def rotated(gram: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
    """(s, n) rows with Gram matrix `gram`, turned by a random rotation of R^n."""
    rows = np.zeros((gram.shape[0], n))
    rows[:, : gram.shape[0]] = np.linalg.cholesky(gram)
    return rows @ np.linalg.qr(gen.standard_normal((n, n)))[0]


def band_stacks(n: int, s: int, rho: float, gen: np.random.Generator) -> tuple[np.ndarray, int]:
    """Column subsets (a, s, n) around the pair band of `_feasible`, and how
    many of them sit inside it: pairs with |g| = 1 - rho^2 + offset (s = 3
    adds a random third column), and for s = 3 the equal-angle triples
    g_ij = +-(1 - rho^2 + offset)/2, whose Gershgorin row sum is
    1 - rho^2 + offset and, for g_ij < 0, whose lambda_min is rho^2 - offset."""
    bound = 1.0 - rho * rho
    stacks, inside = [], 0
    for offset in (0.0, 5e-9, -5e-9, 2e-8, -2e-8):
        for sign in (1.0, -1.0):
            g = sign * (bound + offset)
            for _ in range(20):
                pair = rotated(np.array([[1.0, g], [g, 1.0]]), n, gen)
                stacks.append(np.vstack([pair, sample_unit_vectors(n, s - 2, gen)]))
                inside += abs(offset) < selection._PAIR_BAND
                if s == 3:
                    c = g / 2.0
                    stacks.append(rotated(np.full((3, 3), c) + (1.0 - c) * np.eye(3), n, gen))
    return np.array(stacks), inside


@pytest.fixture
def opened(monkeypatch):
    """The subset count of every `selection._sigma_min` call (each eigvalsh
    batch), in call order."""
    counts = []
    real = selection._sigma_min
    monkeypatch.setattr(selection, "_sigma_min", lambda v: counts.append(len(v)) or real(v))
    return counts


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.999])
def test_pair_bounds_decide_as_eigvalsh(opened, rho, s):
    gen = np.random.default_rng([70, s, round(rho * 1000)])
    n = 4
    band, inside = band_stacks(n, s, rho, gen)
    random = sample_unit_vectors(n, 4000 * s, gen).reshape(4000, s, n)
    vecs = np.concatenate([band, random])
    # columns off unit norm by up to 0.9e-9, inside ColumnMatrix's tolerance
    vecs *= 1.0 + gen.uniform(-0.9e-9, 0.9e-9, size=vecs.shape[:2])[..., None]
    got = selection._feasible(vecs, rho)
    want = eigvalsh_sigma_min(vecs) >= rho
    assert np.array_equal(got, want)
    assert 0 < np.count_nonzero(want) < len(vecs)
    if s == 2:
        # the band's pairs, and only they, go to eigvalsh
        assert opened == [inside]
    else:
        assert inside <= sum(opened) < len(vecs)


def band_matrix(n: int, p: int, rho: float, seed: int) -> ColumnMatrix:
    """p // 2 random unit columns, each beside a partner at |g| = 1 - rho^2,
    so pipeline draws land in `_feasible`'s band."""
    gen = np.random.default_rng(seed)
    cols = []
    for k in range(p // 2):
        g = (-1.0) ** k * (1.0 - rho * rho)
        cols += list(rotated(np.array([[1.0, g], [g, 1.0]]), n, gen))
    return ColumnMatrix(np.array(cols).T)


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_pair_table_decides_each_pair_as_the_pipeline(rho):
    x = band_matrix(4, 60, rho, 90)
    table = oracles.pair_table(x, rho)
    rows, cols = np.triu_indices(x.p, k=1)
    cols_t = x.data.T
    want = selection._feasible(cols_t[np.column_stack([rows, cols])], rho)
    assert np.array_equal(table[rows, cols], want)
    assert np.array_equal(table[cols, rows], want)
    assert np.array_equal(selection._feasible(cols_t[np.column_stack([cols, rows])], rho), want)
    assert feasible_subsets(x, 2, rho) == list(zip(rows[want].tolist(), cols[want].tolist()))
    # the closed-form rule alone decides some of the band's pairs otherwise
    closed_form = np.abs(np.sum(x.data[:, rows] * x.data[:, cols], axis=0)) <= 1.0 - rho * rho
    assert np.any(closed_form != want)


@pytest.mark.parametrize("n, p, s, rho, kappa, max_attempts, band", [
    (4, 200, 2, 0.5, None, 1000, False),
    (4, 60, 2, 0.9, 3.0, 5, False),
    (4, 40, 2, 0.5, 4.0, 1000, True),
    (4, 60, 3, 0.5, None, 1000, False),
    (5, 40, 3, 0.7, 4.0, 20, True),
    (3, 30, 4, 0.5, 2.0, 10, False),
])
def test_pipeline_matches_the_eigvalsh_reference(opened, n, p, s, rho, kappa, max_attempts, band):
    seed = 80 + p + s
    x = band_matrix(n, p, rho, seed) if band else sample_sphere_matrix(n, p, RngStream(seed, 0))
    cfg = SelectionConfig(s=s, rho_minus=rho, max_attempts=max_attempts,
                          **({} if kappa is None else {"kappa": kappa}))
    dirs = sample_unit_vectors(n, 3000, RngStream(seed, 1))
    got = attained_values(x, dirs, cfg, RngStream(seed, 2).generator())
    assert np.array_equal(got, pipeline_eigvalsh(x, dirs, cfg, RngStream(seed, 2).generator())[-1])
    if band:
        assert sum(opened) > 0
    for i in range(40):
        out = constrained_select(x, dirs[i], cfg, RngStream(seed, 3 + i))
        o, inn, sig, att, val = pipeline_eigvalsh(x, dirs[i : i + 1], cfg,
                                                  RngStream(seed, 3 + i).generator())
        assert out.outer_set.indices == tuple(sorted(o[0].tolist()))
        assert out.attempts_used == att[0]
        assert out.attained_value == val[0]
        if inn[0, 0] < 0:
            assert out.inner_set is None and out.sigma_min_achieved is None
        else:
            assert out.inner_set.indices == tuple(sorted(inn[0].tolist()))
            assert out.sigma_min_achieved == sig[0]  # bit for bit


def test_brute_force_inf_singletons_and_degenerate():
    x = sample_sphere_matrix(4, 10, RngStream(24, 0))
    v = sample_unit_vector(4, RngStream(25, 0))
    assert brute_force_inf(x, v, 1, 1.0) == pytest.approx(
        float(np.min(np.abs(x.data.T @ v))), abs=1e-14
    )
    col = sample_unit_vector(5, RngStream(26, 0))
    same = ColumnMatrix(np.column_stack([col] * 4))
    assert brute_force_inf(same, sample_unit_vector(5, RngStream(27, 0)), 2, 0.1) == math.inf


def test_brute_force_inf_matches_independent_enumeration():
    for i in range(15):
        x = sample_sphere_matrix(4, 10, RngStream(28, i))
        v = sample_unit_vector(4, RngStream(29, i))
        assert brute_force_inf(x, v, 2, 0.5) == pytest.approx(
            brute_inf_second_path(x, v, 2, 0.5), abs=1e-12
        )


def test_brute_force_budget(tmp_path):
    # columns in a 4-dim subspace of R^6: every 5-subset is rank-deficient,
    # so a direction stays open until its prefix of k+1 ranked columns holds
    # C(k+1, 5) > DEFAULT_BRUTE_FORCE_LIMIT subsets (k+1 = 32)
    basis = np.linalg.qr(np.random.default_rng(30).standard_normal((6, 4)))[0]
    flat = ColumnMatrix(basis @ sample_sphere_matrix(4, 40, RngStream(30, 0)).data)
    v = sample_unit_vector(6, RngStream(31, 0))
    assert math.comb(32, 5) > selection.DEFAULT_BRUTE_FORCE_LIMIT >= math.comb(31, 5)
    with pytest.raises(BudgetExceeded):
        brute_force_inf(flat, v, 5, 0.5)
    matrixio.save_matrix(tmp_path / "flat.csv", flat, {"n": 6, "p": 40, "seed": 30})
    result = CliRunner().invoke(cli.main, ["select", "--matrix", str(tmp_path / "flat.csv"),
                                           "--v-random", "--s", "5", "--oracle"])
    assert result.exit_code == 2
    assert "exceeds the budget" in result.output
    # C(40, 5) = 658 008 subsets alone no longer raise: in general position
    # the walk closes a feasible subset early
    x = sample_sphere_matrix(6, 40, RngStream(30, 0))
    assert math.comb(40, 5) > selection.DEFAULT_BRUTE_FORCE_LIMIT
    assert math.isfinite(brute_force_inf(x, v, 5, 0.5))


def test_feasible_subsets_general_path_matches_pair_shortcut():
    x = sample_sphere_matrix(5, 9, RngStream(32, 0))
    pairs = feasible_subsets(x, 2, 0.6)
    slow = [
        subset
        for subset in combinations(range(9), 2)
        if np.linalg.svd(x.data[:, list(subset)], compute_uv=False)[-1] >= 0.6
    ]
    assert pairs == slow
    triples = feasible_subsets(x, 3, 0.6)
    for t in triples:
        assert np.linalg.svd(x.data[:, list(t)], compute_uv=False)[-1] >= 0.6


@pytest.mark.parametrize("s", [3, 4])
@pytest.mark.parametrize("block", [7, oracles._SUBSET_BLOCK])
def test_feasible_subsets_blocks_match_the_per_subset_loop(monkeypatch, s, block):
    # duplicate and antipodal columns make singular subsets; blocks of 7 end
    # mid-enumeration at both s, the default block at s = 4 (C(20, 4) = 4845)
    x = sample_sphere_matrix(5, 17, RngStream(34, s))
    cols = x.data[:, [0, 1, 2]]
    x = ColumnMatrix(np.column_stack([x.data, cols[:, 0], -cols[:, 1], -cols[:, 2]]))
    monkeypatch.setattr(oracles, "_SUBSET_BLOCK", block)
    for rho in (0.3, 0.6):
        got = feasible_subsets(x, s, rho)
        assert got == feasible_subsets_loop(x, s, rho)
        assert got and len(got) < math.comb(20, s)


def test_brute_force_below_pipeline_value():
    cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=3.0)
    for i in range(60):
        x = sample_sphere_matrix(4, 12, RngStream(33, i))
        v = sample_unit_vector(4, RngStream(34, i))
        out = constrained_select(x, v, cfg, RngStream(35, i))
        assert brute_force_inf(x, v, 2, 0.5) <= out.attained_value + 1e-12


def test_attained_values_batch_bounded_and_deterministic():
    cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=3.0)
    x = sample_sphere_matrix(4, 30, RngStream(36, 0))
    dirs = sample_unit_vectors(4, 300, RngStream(37, 0))
    vals = attained_values(x, dirs, cfg, RngStream(38, 0))
    again = attained_values(x, dirs, cfg, RngStream(38, 0))
    assert np.array_equal(vals, again)
    exact = exact_inf_profile(x, dirs, 2, 0.5)
    b = np.abs(x.data.T @ dirs.T)
    m = cfg.outer_size(30)
    z_m = np.sort(b, axis=0)[m - 1, :]
    finite = np.isfinite(vals)
    assert np.all(vals[finite] <= z_m[finite] + 1e-12)
    assert np.all(exact[finite] <= vals[finite] + 1e-12)


def test_exact_inf_profile_matches_scalar():
    x = sample_sphere_matrix(4, 11, RngStream(39, 0))
    dirs = sample_unit_vectors(4, 25, RngStream(40, 0))
    prof = exact_inf_profile(x, dirs, 2, 0.5)
    for k in range(25):
        assert prof[k] == pytest.approx(brute_inf_second_path(x, dirs[k], 2, 0.5), abs=1e-12)


def test_exact_inf_profile_memory_is_bounded_and_matches_pair_closed_form():
    rho = 0.5
    x = sample_sphere_matrix(4, 200, RngStream(41, 0))
    dirs = sample_unit_vectors(4, 500, RngStream(42, 0))
    tracemalloc.start()
    try:
        prof = exact_inf_profile(x, dirs, 2, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an unblocked (F, 2, 500) gather over ~17k feasible pairs is ~130 MiB alone
    assert peak < 64 * 2**20
    # s=2: a pair is feasible iff |<X_i, X_j>| <= 1 - rho^2
    rows, cols = np.triu_indices(200, k=1)
    keep = np.abs(np.sum(x.data[:, rows] * x.data[:, cols], axis=0)) <= 1.0 - rho * rho
    rows, cols = rows[keep], cols[keep]
    b = np.abs(dirs @ x.data)
    expected = np.array([np.min(np.maximum(bk[rows], bk[cols])) for bk in b])
    np.testing.assert_allclose(prof, expected, rtol=0, atol=1e-14)


@pytest.fixture
def reranked(monkeypatch):
    """The row count of every `selection._rank_rows` call that ranks whole
    rows: the rows the exact oracle's first ranked columns leave open."""
    counts = []
    real = selection._rank_rows

    def spy(a, idx, values):  # a is (p, width), idx (rows, m)
        if idx.shape[1] == a.shape[0] > selection._PREFIX_COLUMNS:
            counts.append(len(idx))
        real(a, idx, values)

    monkeypatch.setattr(selection, "_rank_rows", spy)
    return counts


@pytest.fixture(params=["prefix", "gather"])
def oracle_stage(request, monkeypatch):
    """Run the exact oracle as built ("prefix": rank each row's first
    _PREFIX_COLUMNS columns, then rank the rows they leave open in full) or
    with every row ranked in full from the start ("gather": each row's walk
    reads all p of its values, as the reference gather does)."""
    if request.param == "gather":
        monkeypatch.setattr(selection, "_PREFIX_COLUMNS", math.inf)
    return request.param


def duplicated_columns(copied: int = 40, distinct: int = 100) -> ColumnMatrix:
    """Exact and antipodal copies of `copied` columns beside `distinct` others."""
    y = sample_sphere_matrix(4, copied, RngStream(57, 0)).data
    z = sample_sphere_matrix(4, distinct, RngStream(57, 1)).data
    return ColumnMatrix(np.hstack([y, y, -y, z]))


def test_exact_inf_profile_stages_match_the_gather_reference(oracle_stage, reranked):
    cases = [
        (sample_sphere_matrix(4, 12, RngStream(64, 0)), 2_000),
        (sample_sphere_matrix(4, 40, RngStream(64, 1)), 2_000),
        # p = 200 walks three 2560-row chunks and a last one of 2327 rows
        (sample_sphere_matrix(4, 200, RngStream(64, 2)), 10_007),
        (duplicated_columns(), 3_000),
        (duplicated_columns(8, 16), 600),
    ]
    for x, count in cases:
        dirs = sample_unit_vectors(4, count, RngStream(65, x.p))
        for s in (1, 2, 3, 4):
            if math.comb(x.p, s) > selection.DEFAULT_BRUTE_FORCE_LIMIT:
                continue
            got = exact_inf_profile(x, dirs, s, 0.5)
            assert np.array_equal(got, exact_inf_gather(x, dirs, s, 0.5))
            assert np.all(np.isfinite(got))
            for short in (0, 1):
                got = exact_inf_profile(x, dirs[:short], s, 0.5)
                assert got.shape == (short,)
                assert np.array_equal(got, exact_inf_gather(x, dirs[:short], s, 0.5))
    # the walk went on past the first ranked columns, on whole-row rankings,
    # unless every row was ranked in full from the start
    assert (sum(reranked) > 0) == (oracle_stage == "prefix")


@pytest.mark.parametrize("s", [3, 4])
def test_exact_inf_profile_keeps_every_subset_feasible_accepts(s):
    # a pair at |g| = 1 - rho^2 beside two columns orthogonal to it: in exact
    # arithmetic a subset holding the pair has the pair's lambda_min, so its
    # eigvalsh decides it right at rho^2
    rho = 0.5
    gram = np.eye(4)
    gram[0, 1] = gram[1, 0] = 1.0 - rho * rho
    gen = np.random.default_rng(71)
    subsets = np.array(list(combinations(range(4), s)))
    for _ in range(100):
        x = ColumnMatrix(rotated(gram, 4, gen).T)
        accepted = subsets[selection._feasible(x.data.T[subsets], rho)]
        dirs = sample_unit_vectors(4, 20, gen)
        b = np.abs(x.data.T @ dirs.T)  # (p, count), the oracle's product
        want = np.min(np.max(b[accepted], axis=1), axis=0, initial=math.inf)
        assert np.array_equal(exact_inf_profile(x, dirs, s, rho), want)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_exact_inf_profile_is_the_min_over_any_family(monkeypatch, s):
    # the walk takes `_feasible`'s answer for every s-subset and infers none
    # from other subsets: a family that no interlacing bound respects (the
    # subsets whose column indices sum to a multiple of 3) gives the min
    # over that family
    x = sample_sphere_matrix(4, 12, RngStream(76, 0))

    def family(vecs, rho_minus):
        return np.argmax(vecs @ x.data, axis=2).sum(axis=1) % 3 == 0  # each column's index

    monkeypatch.setattr(selection, "_feasible", family)
    subsets = np.array(list(combinations(range(x.p), s)))
    dirs = sample_unit_vectors(4, 300, RngStream(76, 1))
    b = np.abs(x.data.T @ dirs.T)
    want = np.min(np.max(b[subsets[subsets.sum(axis=1) % 3 == 0]], axis=1), axis=0)
    assert np.array_equal(exact_inf_profile(x, dirs, s, 0.5), want)


def test_exact_inf_profile_decides_each_subset_once(monkeypatch):
    # n = s = 4: most candidates need an eigvalsh, and each subset is
    # decided once per call while the table holds every C(p, s) subset
    decided = []
    real = selection._feasible
    monkeypatch.setattr(selection, "_feasible", lambda v, rho: decided.append(v) or real(v, rho))
    x = sample_sphere_matrix(4, 12, RngStream(64, 12))
    dirs = sample_unit_vectors(4, 2000, RngStream(65, 12))
    got = exact_inf_profile(x, dirs, 4, 0.5)
    assert np.array_equal(got, exact_inf_gather(x, dirs, 4, 0.5))
    vecs = np.concatenate(decided).reshape(-1, 16)
    assert len(np.unique(vecs, axis=0)) == len(vecs) <= math.comb(12, 4)
    # a cap of 16 subsets, below C(12, 4), keeps no table: subsets are
    # decided again wherever the walk meets them, to the same values
    decided.clear()
    monkeypatch.setattr(selection, "_TABLE_SUBSETS", 16)
    assert np.array_equal(exact_inf_profile(x, dirs, 4, 0.5), got)
    assert sum(map(len, decided)) > math.comb(12, 4)


def test_exact_inf_profile_table_and_no_table_agree_at_s_equal_n(monkeypatch):
    # n = s = 4, p = 60: C(60, 4) = 487 635 subsets, in the table at its cap
    # and decided where the walk meets them with the cap below C(60, 4)
    x = sample_sphere_matrix(4, 60, RngStream(1, 0))
    dirs = sample_unit_vectors(4, 200, RngStream(2, 0))
    monkeypatch.setattr(oracles, "DEFAULT_BRUTE_FORCE_LIMIT", math.comb(60, 4))
    want = exact_inf_gather(x, dirs, 4, 0.5)
    assert np.all(np.isfinite(want))
    decided = []
    real = selection._feasible
    monkeypatch.setattr(selection, "_feasible", lambda v, rho: decided.append(v) or real(v, rho))
    assert np.array_equal(exact_inf_profile(x, dirs, 4, 0.5), want)
    # each decided subset's columns, found by their first entries (distinct)
    order = np.argsort(x.data[0])
    cols = order[np.searchsorted(x.data[0, order], np.concatenate(decided)[:, :, 0])]
    keys = np.sort(cols, axis=1) @ 60 ** np.arange(4)
    assert len(np.unique(keys)) == len(keys)  # each subset decided at most once
    monkeypatch.setattr(selection, "_feasible", real)
    monkeypatch.setattr(selection, "_TABLE_SUBSETS", math.comb(60, 4) - 1)
    assert np.array_equal(exact_inf_profile(x, dirs, 4, 0.5), want)


def test_exact_inf_profile_table_bound_at_its_edge():
    # s = 3: C(370, 3) = 8 373 840 <= 2^23 holds one int8 per subset, and
    # C(371, 3) = 8 442 105 holds no table
    assert math.comb(370, 3) <= selection._TABLE_SUBSETS < math.comb(371, 3)
    dirs = sample_unit_vectors(4, 64, RngStream(78, 1))
    peaks = {}
    for p in (370, 371):
        x = sample_sphere_matrix(4, p, RngStream(78, 0))
        tracemalloc.start()
        try:
            got = exact_inf_profile(x, dirs, 3, 0.5)
            peaks[p] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(got))
    assert peaks[370] >= math.comb(370, 3)
    assert peaks[371] < 4 * 2**20


def test_exact_inf_profile_memory_at_large_p():
    # no (p, p) table: at p = 200 000 one would take 320 GB, at p = 20 000 3.2 GB
    x = sample_sphere_matrix(4, 200_000, RngStream(77, 0))
    y = ColumnMatrix(x.data[:, :20_000])
    v = sample_unit_vector(4, RngStream(77, 1))
    dirs = sample_unit_vectors(4, 8, RngStream(77, 2))
    tracemalloc.start()
    try:
        one = brute_force_inf(x, v, 1, 0.5)
        peak_one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        two = exact_inf_profile(y, dirs, 2, 0.5)
        peak_two = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak_one < 32 * 2**20 and peak_two < 32 * 2**20
    assert one == np.min(np.abs(x.data.T @ v[:, None]))
    # s = 2 against the feasible pairs among each direction's 40 smallest
    # values, which hold the answer when it lies below the 40th
    b = np.abs(y.data.T @ dirs.T)
    for r in range(len(dirs)):
        near = np.sort(np.argsort(b[:, r], kind="stable")[:40])
        pairs = np.array(list(combinations(near, 2)))
        want = np.min(np.max(b[pairs[selection._feasible(y.data.T[pairs], 0.5)], r], axis=1))
        assert want < np.sort(b[:, r])[39]
        assert two[r] == want


def test_exact_inf_profile_is_below_the_pipeline_without_slack():
    # the oracle reads the pipeline's own |X^T v| entries, in the same row
    # blocks, so it never exceeds an attained value, not even by an ulp
    x = sample_sphere_matrix(4, 200, RngStream(75, 0))
    dirs = sample_unit_vectors(4, 10_007, RngStream(75, 1))
    for s in (1, 2, 3):
        attained = attained_values(x, dirs, SelectionConfig(s=s), RngStream(75, s))
        exact = exact_inf_profile(x, dirs, s, 0.5)
        assert np.all(np.isfinite(attained))
        assert np.all(exact <= attained)


def test_exact_inf_profile_ties_and_axis_directions(oracle_stage):
    # eye(8): every subset is feasible and an axis direction ties seven zeros
    eye = ColumnMatrix(np.eye(8))
    dirs = np.vstack([np.eye(8), -np.eye(8), np.full((1, 8), 1.0 / math.sqrt(8.0))])
    for s in (1, 2, 3, 4):
        got = exact_inf_profile(eye, dirs, s, 0.5)
        assert np.array_equal(got, exact_inf_gather(eye, dirs, s, 0.5))
        assert np.array_equal(got[:16], np.zeros(16))
        assert got[16] == 1.0 / math.sqrt(8.0)


def test_exact_inf_profile_infeasible_families_are_infinite(oracle_stage):
    col = sample_unit_vector(4, RngStream(67, 0))
    copies = ColumnMatrix(np.column_stack([col, -col] * 20))
    dirs = sample_unit_vectors(4, 50, RngStream(67, 1))
    # s > n: no s columns of R^1 are independent
    line = ColumnMatrix(np.ones((1, 30)))
    for s in (2, 3, 4):
        assert np.all(exact_inf_profile(copies, dirs, s, 0.5) == math.inf)
        assert np.array_equal(exact_inf_profile(copies, dirs, s, 0.5),
                              exact_inf_gather(copies, dirs, s, 0.5))
        assert np.all(exact_inf_profile(line, np.ones((3, 1)), s, 0.5) == math.inf)


def test_exact_inf_profile_memory_at_scale():
    # p = 200, 1e5 directions: the walk holds a 320-row block of |X^T v| per
    # thread, a 2560-row chunk's rankings and candidates, the table of
    # decided pairs and the output
    x = sample_sphere_matrix(4, 200, RngStream(63, 0))
    dirs = sample_unit_vectors(4, 100_000, RngStream(64, 0))
    tracemalloc.start()
    try:
        vals = exact_inf_profile(x, dirs, 2, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    # the first walk chunk
    assert np.array_equal(vals[:2560], exact_inf_gather(x, dirs[:2560], 2, 0.5))


def test_estimate_gamma_orthonormal_square_case():
    # p = n with orthonormal columns and s = 1: the exact worst-direction
    # value is 1/sqrt(n), attained at the diagonal direction
    n = 4
    x = ColumnMatrix(np.eye(n))
    cfg = SelectionConfig(s=1, rho_minus=0.5, kappa=1.0)
    net = build_eps_net(n, 0.4, RngStream(41, 0), stall_budget=10_000)
    est = estimate_gamma(x, cfg, net, 500, RngStream(42, 0))
    assert est.certified_upper >= 1.0 / math.sqrt(n) - 1e-12
    assert est.heuristic_lower <= 1.0 / math.sqrt(n) + 1e-12
    assert est.feasibility_rate == 1.0


def test_estimate_gamma_lower_below_certificate():
    cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=3.0)
    net = build_eps_net(4, 0.5, RngStream(43, 0), stall_budget=5000)
    for i in range(5):
        x = sample_sphere_matrix(4, 20, RngStream(44, i))
        est = estimate_gamma(x, cfg, net, 100, RngStream(45, i))
        assert est.heuristic_lower <= est.certified_upper + 1e-9
        assert est.directions_tested == len(net) + 100


def test_estimate_gamma_lower_is_exact_over_the_old_subset_budget(monkeypatch):
    # C(120, 3) = 280 840 triples exceed DEFAULT_BRUTE_FORCE_LIMIT; the lower
    # estimate there was a max of pipeline values, above the exact maximum
    x = sample_sphere_matrix(4, 120, RngStream(72, 0))
    cfg = SelectionConfig(s=3, rho_minus=0.5)
    net = build_eps_net(4, 0.5, RngStream(73, 0), stall_budget=1000)
    est = estimate_gamma(x, cfg, net, 40, RngStream(74, 0))
    # replay the probes: the certificate draws on the same generator first
    gen = RngStream(74, 0).generator()
    attained_values(x, net.points, cfg, gen)
    probes = sample_unit_vectors(4, 40, gen)
    assert math.comb(120, 3) > selection.DEFAULT_BRUTE_FORCE_LIMIT
    monkeypatch.setattr(oracles, "DEFAULT_BRUTE_FORCE_LIMIT", math.comb(120, 3))
    assert est.heuristic_lower == np.max(exact_inf_gather(x, probes, 3, 0.5))


def test_estimate_gamma_certificate_shrinks_with_net_radius():
    # outer size 10 so extraction never exhausts its budget on any net point
    cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=5.0)
    x = sample_sphere_matrix(3, 40, RngStream(46, 0))
    certs = {}
    for eps in (0.5, 0.25, 0.125):
        net = build_eps_net(3, eps, RngStream(47, 0), stall_budget=10_000)
        certs[eps] = estimate_gamma(x, cfg, net, 0, RngStream(48, 0)).certified_upper
    assert certs[0.25] <= certs[0.5] + (0.5 - 0.25) + 1e-9
    assert certs[0.125] <= certs[0.25] + (0.25 - 0.125) + 1e-9


def test_estimate_gamma_dimension_mismatch():
    x = sample_sphere_matrix(5, 20, RngStream(49, 0))
    net = build_eps_net(4, 0.5, RngStream(50, 0), stall_budget=1000)
    with pytest.raises(InvalidInput):
        estimate_gamma(x, SelectionConfig(s=2, kappa=3.0), net, 10, RngStream(51, 0))


@pytest.mark.parametrize("p", [12, 60])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_grid_certificate_dominates_exact_values_at_uniform_probes(p, s):
    # the exact value over the grid plus its radius bounds the exact value
    # everywhere; the pipeline's certificate lies above that
    x = sample_sphere_matrix(4, p, RngStream(95, p))
    net = cube_grid(4, 0.1)
    exact_cert = float(np.max(exact_inf_profile(x, net.points, s, 0.5))) + net.radius
    probes = sample_unit_vectors(4, 100_000, RngStream(96, p))
    assert float(np.max(exact_inf_profile(x, probes, s, 0.5))) <= exact_cert
    cfg = SelectionConfig(s=s, rho_minus=0.5, kappa=p / s)
    assert estimate_gamma(x, cfg, net, 0, RngStream(97, s)).certified_upper >= exact_cert


def test_estimate_gamma_adds_the_net_radius_with_the_column_norm_slack():
    x = sample_sphere_matrix(4, 40, RngStream(98, 0))
    cfg = SelectionConfig(s=2, rho_minus=0.5)
    net = cube_grid(4, 0.25)
    est = estimate_gamma(x, cfg, net, 10, RngStream(99, 0))
    vals = attained_values(x, net.points, cfg, RngStream(99, 0).generator())
    assert est.certified_upper == float(np.max(vals)) + net.radius * (1.0 + UNIT_NORM_TOL)
    assert est.net == {"k": 7, "mode": "proven", "radius": net.radius, "size": 1372}
    assert est.directions_tested == 1372 + 10


def test_gamma_and_theorem_reruns_are_byte_identical(tmp_path):
    runner = CliRunner()
    matrix_path = tmp_path / "x.csv"
    matrixio.save_matrix(matrix_path, sample_sphere_matrix(4, 40, RngStream(100, 0)), {"seed": 100})
    for i in (1, 2):
        gamma = runner.invoke(cli.main, ["gamma", "--matrix", str(matrix_path), "--s", "2",
                                         "--net-eps", "0.25", "--probes", "50", "--seed", "3",
                                         "--out", str(tmp_path / f"g{i}.json")])
        theorem = runner.invoke(cli.main, ["experiment", "theorem", "--p", "30", "--trials", "20",
                                           "--seed", "3", "--out", str(tmp_path / f"t{i}")])
        assert gamma.exit_code == 0 and theorem.exit_code == 0, (gamma.output, theorem.output)
    for name in ("g{}.json", "t{}.report.json", "t{}.trials.csv"):
        assert (tmp_path / name.format(1)).read_bytes() == (tmp_path / name.format(2)).read_bytes()


def test_monotonicity_duplicate_columns_change_nothing():
    x = sample_sphere_matrix(4, 8, RngStream(52, 0))
    dirs = sample_unit_vectors(4, 20, RngStream(53, 0))
    cfg = SelectionConfig(s=2, rho_minus=0.5)
    base = float(np.max(exact_inf_profile(x, dirs, cfg.s, cfg.rho_minus)))
    concat = float(np.max(exact_inf_profile(ColumnMatrix(np.hstack([x.data, x.data])), dirs,
                                            cfg.s, cfg.rho_minus)))
    assert concat <= base + 1e-12 or math.isinf(base)
    assert concat == pytest.approx(base, abs=1e-12)


def test_monotonicity_random_sweep():
    cfg = SelectionConfig(s=2, rho_minus=0.5)
    for i in range(100):
        x = sample_sphere_matrix(4, 8, RngStream(54, i))
        extra = sample_sphere_matrix(4, 4, RngStream(55, i))
        dirs = sample_unit_vectors(4, 20, RngStream(56, i))
        base = float(np.max(exact_inf_profile(x, dirs, cfg.s, cfg.rho_minus)))
        concat = float(np.max(exact_inf_profile(ColumnMatrix(np.hstack([x.data, extra.data])),
                                                dirs, cfg.s, cfg.rho_minus)))
        assert concat <= base + 1e-12 or math.isinf(base)


def test_monotonicity_new_orthogonal_column_can_strictly_help():
    # appending a column orthogonal to the probe direction gives the
    # selection a zero-valued option, so the value strictly drops
    x = ColumnMatrix(np.column_stack([
        np.array([0.8, 0.6, 0.0, 0.0]),
        np.array([0.6, 0.8, 0.0, 0.0]),
        np.array([0.8, -0.6, 0.0, 0.0]),
    ]))
    extra = ColumnMatrix(np.column_stack([np.eye(4)[:, 2], np.eye(4)[:, 3]]))
    dirs = np.array([[1.0, 0.0, 0.0, 0.0]])
    cfg = SelectionConfig(s=2, rho_minus=0.5)
    base = float(np.max(exact_inf_profile(x, dirs, cfg.s, cfg.rho_minus)))
    concat = float(np.max(exact_inf_profile(ColumnMatrix(np.hstack([x.data, extra.data])), dirs,
                                            cfg.s, cfg.rho_minus)))
    assert concat <= base + 1e-12 or math.isinf(base)
    assert concat < base - 0.05
