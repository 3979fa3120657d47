import math
import tracemalloc

import numpy as np
import pytest

from orthoselect import (
    BudgetExceeded,
    InvalidInput,
    RngStream,
    build_eps_net,
    cube_grid,
    sample_sphere_matrix,
    sample_unit_vector,
    sample_unit_vectors,
)

from orthoselect import sphere
from orthoselect.sphere import (_CANDIDATE_CHUNK, _GRID_POINT_LIMIT, _SCREEN_MARGIN, _SCREEN_ROWS,
                                TrialStreams, _screen_max, grid_cells)

from oracles import covering_radius_of, eps_net_points, separation_ok, sorted_ks


def test_rng_stream_reproducible_and_independent():
    a = RngStream(99, 4).generator().standard_normal(16)
    b = RngStream(99, 4).generator().standard_normal(16)
    c = RngStream(99, 5).generator().standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _stream_draws(gen: np.random.Generator, i: int) -> list:
    # the last draw leaves buffered state for the next reset to clear: an
    # odd count of 32-bit integers, a uniform, or a Gaussian
    out = [gen.standard_normal(2), gen.integers(0, 1000, size=2, dtype=np.int32), gen.random()]
    last = i % 3
    if last == 0:
        out.append(gen.integers(0, 1000, size=3, dtype=np.int32))
    else:
        out.append(gen.random() if last == 1 else gen.standard_normal())
    return out


@pytest.mark.parametrize("seed", [11, 2**63, 2**64 - 1])
def test_trial_streams_equal_fresh_streams(seed):
    streams = TrialStreams(seed)
    for i in range(10_000):
        want = _stream_draws(RngStream(seed, i).generator(), i)
        got = _stream_draws(streams.generator(i), i)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), i


def test_sample_unit_vector_basics():
    with pytest.raises(InvalidInput):
        sample_unit_vector(0, RngStream(1, 0))
    vals = [float(sample_unit_vector(1, RngStream(1, i))[0]) for i in range(20)]
    assert set(vals) <= {-1.0, 1.0}
    for i in range(200):
        v = sample_unit_vector(7, RngStream(2, i))
        assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_one_point_is_the_row_of_a_batch_bit_for_bit(n):
    for seed in range(2000):
        one = sample_unit_vector(n, RngStream(seed, n))
        assert np.array_equal(one, sample_unit_vectors(n, 1, RngStream(seed, n))[0]), seed
        # the first row of a larger batch takes the same normals
        assert np.array_equal(one, sample_unit_vectors(n, 3, RngStream(seed, n))[0]), seed


def test_first_coordinate_uniform_in_three_dimensions():
    # Archimedes: the first coordinate of a uniform point on S^2 is uniform
    # on [-1, 1]
    pts = sample_unit_vectors(3, 10_000, RngStream(1, 0))
    ks = sorted_ks(pts[:, 0], lambda x: (x + 1.0) / 2.0)
    assert ks <= 0.02


def test_abs_projection_uniform_in_three_dimensions():
    pts = sample_unit_vectors(3, 10_000, RngStream(6, 0))
    v = sample_unit_vector(3, RngStream(7, 0))
    ks = sorted_ks(np.abs(pts @ v), lambda x: min(max(x, 0.0), 1.0))
    assert ks <= 0.02


def test_sample_sphere_matrix_unit_columns_and_determinism():
    x = sample_sphere_matrix(5, 40, RngStream(8, 3))
    norms = np.linalg.norm(x.data, axis=0)
    assert float(np.max(np.abs(norms - 1.0))) <= 1e-12
    y = sample_sphere_matrix(5, 40, RngStream(8, 3))
    assert np.array_equal(x.data, y.data)


def test_sphere_matrix_pairwise_inner_products_center_on_zero():
    n, p = 6, 60
    x = sample_sphere_matrix(n, p, RngStream(9, 0))
    gram = x.data.T @ x.data
    iu = np.triu_indices(p, k=1)
    vals = gram[iu]
    pairs = len(vals)
    assert abs(float(np.mean(vals))) <= 3.0 / math.sqrt(pairs * n)


def test_net_dimension_one_is_exact():
    net = build_eps_net(1, 0.5, RngStream(10, 0))
    assert net.mode == "exact"
    assert sorted(net.points[:, 0].tolist()) == [-1.0, 1.0]
    assert len(net) == 2


def test_net_dimension_two_eps_one_within_claimed_cardinality():
    net = build_eps_net(2, 1.0, RngStream(11, 0), stall_budget=20_000)
    assert separation_ok(net.points, 1.0)
    assert len(net) <= 12  # the existence bound 2d(1 + 2/eps)^(d-1) at d = 2, eps = 1


def test_net_separation_and_coverage_probe():
    # the stall rule only approximates maximality, so coverage is measured,
    # not assumed; these (d, eps, seed) combinations were verified to cover
    eps_by_d = {2: 0.3, 3: 0.4, 4: 0.5, 5: 0.6, 6: 0.7}
    for d, eps in eps_by_d.items():
        net = build_eps_net(d, eps, RngStream(42, d), stall_budget=100_000)
        assert separation_ok(net.points, eps)
        probes = sample_unit_vectors(d, 10_000, RngStream(43, d))
        assert covering_radius_of(net.points, probes) <= eps


NET_CASES = [
    (2, (0.1, 0.5, 1.2)), (3, (0.3, 0.8)), (4, (0.5, 1.0)), (5, (0.8, 1.3)), (6, (1.0, 1.5)),
    (7, (0.9, 1.3)), (8, (1.0, 1.4)),
]


def assert_nets_match_the_reference(d, eps_grid):
    # stall budgets below, at and above the 512-candidate chunk, so runs
    # stop at the start, in the middle and at the end of a chunk
    for eps in eps_grid:
        for k, stall in enumerate((1, 2, 511, 512, 513, 1024, 10_000)):
            stream = RngStream(71, 100 * d + k)
            net = build_eps_net(d, eps, stream, stall_budget=stall)
            expected = eps_net_points(d, eps, stream.generator(), stall)
            assert net.points.shape == expected.shape
            assert np.array_equal(net.points, expected)


@pytest.mark.parametrize("d, eps_grid", NET_CASES)
def test_net_points_match_the_per_candidate_reference(d, eps_grid):
    assert_nets_match_the_reference(d, eps_grid)


@pytest.mark.parametrize("d, eps_grid", NET_CASES)
def test_exact_path_net_points_match_the_per_candidate_reference(d, eps_grid, monkeypatch):
    # every largest dot lies in [-1, 1], inside this band around any cut,
    # so every chunk after the first takes the float64 product
    monkeypatch.setattr(sphere, "_SCREEN_MARGIN", 4.0)
    assert_nets_match_the_reference(d, eps_grid)


def test_acceptance_net_matches_the_per_candidate_reference():
    net = build_eps_net(4, 0.25, RngStream(1000, 0), stall_budget=10_000)
    expected = eps_net_points(4, 0.25, RngStream(1000, 0).generator(), 10_000)
    assert len(net) == 798
    assert np.array_equal(net.points, expected)


@pytest.mark.parametrize("d", range(2, 9))
def test_float32_screen_max_is_within_half_the_margin(d):
    # the premise of the screen's proof, on random points and on candidates
    # placed next to them, where the largest dots come close to 1
    gen = RngStream(77, d).generator()
    screen = np.empty((_SCREEN_ROWS, _CANDIDATE_CHUNK), dtype=np.float32)
    for size in (1, 127, 128, 129, 1000):
        points = sample_unit_vectors(d, size, gen)
        chunk = sample_unit_vectors(d, _CANDIDATE_CHUNK, gen)
        near = points[gen.integers(0, size, _CANDIDATE_CHUNK // 2)]
        near = near + 1e-3 * gen.standard_normal(near.shape)
        chunk[::2] = near / np.linalg.norm(near, axis=1)[:, None]
        top32 = _screen_max(points.astype(np.float32), np.ascontiguousarray(chunk.T, dtype=np.float32),
                            screen)
        top64 = np.max(chunk @ points.T, axis=1)
        assert np.max(np.abs(top32 - top64)) < _SCREEN_MARGIN / 2


def test_net_draws_exactly_the_reference_numbers():
    def state(gen):
        s = gen.bit_generator.state
        return {**s, "buffer": s["buffer"].tolist(),
                "state": {k: v.tolist() for k, v in s["state"].items()}}

    for d, eps, stall in ((3, 0.5, 513), (4, 0.5, 1000), (8, 1.0, 2000)):
        gen, ref = RngStream(79, d).generator(), RngStream(79, d).generator()
        build_eps_net(d, eps, gen, stall_budget=stall)
        eps_net_points(d, eps, ref, stall)
        assert state(gen) == state(ref)


def test_net_rejects_large_dimension():
    with pytest.raises(InvalidInput):
        build_eps_net(9, 0.5, RngStream(1, 0))


@pytest.mark.parametrize("d, eps_pair", [
    (2, (0.5, 0.1)), (3, (0.5, 0.2)), (4, (0.5, 0.25)), (5, (0.6, 0.4)), (6, (1.2, 0.8)),
    (7, (1.5, 1.0)), (8, (1.5, 1.0)),
])
def test_cube_grid_radius_covers_uniform_probes(d, eps_pair):
    probes = sample_unit_vectors(d, 100_000, RngStream(90, d))
    for eps in eps_pair:
        net = cube_grid(d, eps)
        k = net.k
        assert net.mode == "proven" and len(net) == d * k ** (d - 1)
        assert net.radius == math.sqrt(d - 1) / k <= eps
        assert k == 1 or math.sqrt(d - 1) / (k - 1) > eps  # the fewest cells
        assert covering_radius_of(net.points, probes, symmetric=True) <= net.radius


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_cube_grid_circle_radius_against_a_dense_angle_sweep(eps):
    net = cube_grid(2, eps)
    # the exact covering radius of the grid and its negatives: the chord over
    # half the widest gap between their angles (mod pi, one per +- pair)
    angles = np.sort(np.arctan2(net.points[:, 1], net.points[:, 0]) % np.pi)
    gaps = np.diff(np.append(angles, angles[0] + np.pi))
    exact = 2.0 * math.sin(float(np.max(gaps)) / 4.0)
    # half the circle suffices, since the covering set is symmetric
    sweep = np.linspace(0.0, np.pi, 4_000_001)
    probes = np.column_stack([np.cos(sweep), np.sin(sweep)])
    assert abs(covering_radius_of(net.points, probes, symmetric=True) - exact) <= 1e-6
    # the closed form bounds the exact radius: 0.5 against 0.4595 at k = 2
    assert exact <= net.radius


def test_cube_grid_dimension_one_is_the_point_plus_one():
    net = cube_grid(1, 0.5)
    assert net.points.tolist() == [[1.0]]
    assert (net.radius, net.k, net.mode) == (0.0, 1, "proven")


def test_cube_grid_layout_is_the_projected_face_centres():
    net = cube_grid(3, 0.5)  # k = 3: centres -2/3, 0, 2/3
    c = np.array([-2.0, 0.0, 2.0]) / 3.0
    faces = []
    for i in range(3):
        for a in c:
            for b in c:
                faces.append(np.insert([a, b], i, 1.0))
    want = np.array(faces) / np.linalg.norm(faces, axis=1)[:, None]
    assert np.allclose(net.points, want, rtol=0, atol=1e-15)
    assert net.descriptor() == {"k": 3, "mode": "proven", "radius": math.sqrt(2) / 3, "size": 27}


@pytest.mark.parametrize("d", range(2, 9))
def test_grid_over_the_point_limit_is_refused_before_any_work(d):
    tracemalloc.start()
    try:
        for eps in (5e-324, 1e-300, 1.5e-6):
            with pytest.raises(BudgetExceeded, match=f"d={d} ") as info:
                grid_cells(d, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the named radius is the smallest that fits: its grid is within the
    # limit, and one more cell per axis is not
    fits = float(str(info.value).split("the smallest radius that fits is ")[1].split()[0])
    k = grid_cells(d, fits)
    assert d * k ** (d - 1) <= _GRID_POINT_LIMIT < d * (k + 1) ** (d - 1)
    with pytest.raises(BudgetExceeded):
        grid_cells(d, np.nextafter(fits, 0.0))


def test_grid_over_the_limit_names_its_size():
    with pytest.raises(BudgetExceeded, match=r"d=8 and radius 0\.25 needs k=11 cells per axis, "
                                             r"155897368 points.* 0\.5291502622129182 \(k=5\)"):
        cube_grid(8, 0.25)
    assert len(cube_grid(8, 0.9)) == 17_496


def test_acceptance_net_maps_its_products_once(fresh_python):
    # In a fresh interpreter a new product per chunk took 30k-54k minor
    # faults for this net; one reused workspace takes under 1k.
    pytest.importorskip("resource")
    faults = fresh_python(
        "import resource\n"
        "from orthoselect.sphere import RngStream, build_eps_net\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "build_eps_net(4, 0.25, RngStream(1000, 0), stall_budget=10_000)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    assert int(faults) < 5000
