import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

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
    estimate_gamma,
    exact_inf_profile,
    feasible_subsets,
    greedy_outer,
    inf_norm_against,
    monotonicity_check,
    sample_sphere_matrix,
    sample_unit_vector,
    sample_unit_vectors,
    submatrix,
)
from orthoselect import selection

from oracles import eigvalsh_sigma_min, exact_inf_gather, feasible_subsets_loop, pipeline_eigvalsh


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


def stable_argsort_oracle(matrix, dirs, m):
    """The sort_oracle rule for many rows: the first m of a full stable
    argsort of |X^T v|, and those entries of one unblocked product."""
    b = np.abs(matrix.data.T @ dirs.T).T
    order = np.argsort(b, axis=1, kind="stable")[:, :m]
    return order, np.take_along_axis(b, order, axis=1)


def boundary_tied(matrix, dirs, m):
    """Rows with more than m values at or below their m-th smallest value."""
    b = np.abs(matrix.data.T @ dirs.T).T
    kth = np.sort(b, axis=1)[:, m - 1 : m]
    return np.count_nonzero(b <= kth, axis=1) > m


def test_outer_ranked_matches_stable_argsort_across_blocks_and_ties():
    # duplicate and antipodal copies of 40 columns beside 100 distinct ones:
    # a row whose m-th value falls on a copied column ties at the boundary
    y = sample_sphere_matrix(4, 40, RngStream(57, 0)).data
    z = sample_sphere_matrix(4, 100, RngStream(57, 1)).data
    x = ColumnMatrix(np.hstack([y, y, -y, z]))
    count = 10_007  # more than 3 ranking blocks at p = 220, plus a remainder
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
        assert out.inner_set.issubset(out.outer_set)
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
    table = selection._pair_table(x, rho)
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


def test_brute_force_budget():
    # C(40, 5) = 658 008 subsets exceed the DEFAULT_BRUTE_FORCE_LIMIT budget
    x = sample_sphere_matrix(6, 40, RngStream(30, 0))
    v = sample_unit_vector(6, RngStream(31, 0))
    assert math.comb(40, 5) > selection.DEFAULT_BRUTE_FORCE_LIMIT
    with pytest.raises(BudgetExceeded):
        brute_force_inf(x, v, 5, 0.5)


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
@pytest.mark.parametrize("block", [7, selection._SUBSET_BLOCK])
def test_feasible_subsets_blocks_match_the_per_subset_loop(monkeypatch, s, block):
    # duplicate and antipodal columns make singular subsets; blocks of 7 end
    # mid-enumeration at both s, the default block at s = 4 (C(20, 4) = 4845)
    x = sample_sphere_matrix(5, 17, RngStream(34, s))
    cols = x.data[:, [0, 1, 2]]
    x = ColumnMatrix(np.column_stack([x.data, cols[:, 0], -cols[:, 1], -cols[:, 2]]))
    monkeypatch.setattr(selection, "_SUBSET_BLOCK", block)
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


@pytest.fixture(params=["prefix", "gather"])
def oracle_stage(request, monkeypatch):
    """Force the s = 2 exact oracle onto one stage, whatever the size."""
    cutoff = 0 if request.param == "prefix" else math.inf
    monkeypatch.setattr(selection, "_PREFIX_MIN_VALUES", cutoff)
    return request.param


def duplicated_columns():
    """Exact and antipodal copies of 40 columns beside 100 distinct ones."""
    y = sample_sphere_matrix(4, 40, RngStream(57, 0)).data
    z = sample_sphere_matrix(4, 100, RngStream(57, 1)).data
    return ColumnMatrix(np.hstack([y, y, -y, z]))


def test_exact_inf_profile_stages_match_the_gather_reference(oracle_stage):
    cases = [
        (sample_sphere_matrix(4, 12, RngStream(64, 0)), 2_000),
        (sample_sphere_matrix(4, 40, RngStream(64, 1)), 2_000),
        # p = 200 runs 61-row blocks; this count ends on a partial one
        (sample_sphere_matrix(4, 200, RngStream(64, 2)), 10_007),
        (duplicated_columns(), 3_000),
    ]
    for x, count in cases:
        dirs = sample_unit_vectors(4, count, RngStream(65, x.p))
        for s in (1, 2, 3):
            if math.comb(x.p, s) > selection.DEFAULT_BRUTE_FORCE_LIMIT:
                continue
            got = exact_inf_profile(x, dirs, s, 0.5)
            assert np.array_equal(got, exact_inf_gather(x, dirs, s, 0.5))
            assert np.all(np.isfinite(got))
        for count in (0, 1):
            got = exact_inf_profile(x, dirs[:count], 2, 0.5)
            assert got.shape == (count,)
            assert np.array_equal(got, exact_inf_gather(x, dirs[:count], 2, 0.5))


def test_exact_inf_profile_prefix_falls_back_to_the_gather(monkeypatch):
    monkeypatch.setattr(selection, "_PREFIX_MIN_VALUES", 0)
    x = duplicated_columns()
    dirs = sample_unit_vectors(4, 3_000, RngStream(66, 0))
    expected = exact_inf_gather(x, dirs, 2, 0.5)
    table = selection._pair_table(x, 0.5)
    b = np.abs(dirs @ x.data)
    for k_cols in (2, 3, 5):
        monkeypatch.setattr(selection, "_PREFIX_COLUMNS", k_cols)
        _, rest = selection._prefix_values(b, table, k_cols)
        assert 0 < rest.size < len(dirs)
        assert np.array_equal(exact_inf_profile(x, dirs, 2, 0.5), expected)


def test_exact_inf_profile_ties_and_axis_directions(oracle_stage):
    # eye(8): every pair is feasible and an axis direction ties seven zeros
    eye = ColumnMatrix(np.eye(8))
    dirs = np.vstack([np.eye(8), -np.eye(8), np.full((1, 8), 1.0 / math.sqrt(8.0))])
    got = exact_inf_profile(eye, dirs, 2, 0.5)
    assert np.array_equal(got, exact_inf_gather(eye, dirs, 2, 0.5))
    assert np.array_equal(got[:16], np.zeros(16))
    assert got[16] == 1.0 / math.sqrt(8.0)


def test_exact_inf_profile_infeasible_families_are_infinite(oracle_stage):
    col = sample_unit_vector(4, RngStream(67, 0))
    copies = ColumnMatrix(np.column_stack([col, -col] * 20))
    dirs = sample_unit_vectors(4, 50, RngStream(67, 1))
    assert np.all(exact_inf_profile(copies, dirs, 2, 0.5) == math.inf)
    # s > n: no s columns of R^1 are independent
    line = ColumnMatrix(np.ones((1, 30)))
    assert np.all(exact_inf_profile(line, np.ones((3, 1)), 2, 0.5) == math.inf)


def test_exact_inf_profile_memory_at_scale():
    # p = 200, 1e5 directions: the full gather's 16 MiB blocks peak above
    # 30 MiB; the prefix stage holds one 61-row block and the output
    x = sample_sphere_matrix(4, 200, RngStream(63, 0))
    dirs = sample_unit_vectors(4, 100_000, RngStream(64, 0))
    tracemalloc.start()
    try:
        vals = exact_inf_profile(x, dirs, 2, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    # the first 20 blocks, which the reference runs as the same products
    head = 20 * ((1 << 21) // (2 * len(feasible_subsets(x, 2, 0.5))))
    assert np.array_equal(vals[:head], exact_inf_gather(x, dirs[:head], 2, 0.5))


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
    assert est.oracle_exact


def test_estimate_gamma_lower_below_certificate():
    cfg = SelectionConfig(s=2, rho_minus=0.5, kappa=3.0)
    net = build_eps_net(4, 0.5, RngStream(43, 0), stall_budget=5000)
    for i in range(5):
        x = sample_sphere_matrix(4, 20, RngStream(44, i))
        est = estimate_gamma(x, cfg, net, 100, RngStream(45, i))
        assert est.oracle_exact
        assert est.heuristic_lower <= est.certified_upper + 1e-9
        assert est.directions_tested == len(net) + 100


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


def test_monotonicity_duplicate_columns_change_nothing():
    x = sample_sphere_matrix(4, 8, RngStream(52, 0))
    dirs = sample_unit_vectors(4, 20, RngStream(53, 0))
    cfg = SelectionConfig(s=2, rho_minus=0.5)
    res = monotonicity_check(x, x, cfg, dirs)
    assert res.satisfied
    assert res.gamma_concat == pytest.approx(res.gamma_base, abs=1e-12)


def test_monotonicity_random_sweep():
    cfg = SelectionConfig(s=2, rho_minus=0.5)
    for i in range(100):
        x = sample_sphere_matrix(4, 8, RngStream(54, i))
        extra = sample_sphere_matrix(4, 4, RngStream(55, i))
        dirs = sample_unit_vectors(4, 20, RngStream(56, i))
        assert monotonicity_check(x, extra, cfg, dirs).satisfied


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
    res = monotonicity_check(x, extra, cfg, dirs)
    assert res.satisfied
    assert res.gamma_concat < res.gamma_base - 0.05
