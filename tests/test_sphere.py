import math

import numpy as np
import pytest

from orthoselect import (
    EpsNet,
    InvalidInput,
    RngStream,
    build_eps_net,
    net_cardinality_bound,
    sample_sphere_matrix,
    sample_unit_vector,
    sample_unit_vectors,
)

from orthoselect.sphere import TrialStreams

from oracles import eps_net_points, sorted_ks


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
    assert net_cardinality_bound(1, 0.5) == 2.0


def test_net_dimension_two_eps_one_within_claimed_cardinality():
    net = build_eps_net(2, 1.0, RngStream(11, 0), stall_budget=20_000)
    assert net.separation_ok()
    assert len(net) <= net_cardinality_bound(2, 1.0) == 12.0


def test_net_separation_and_coverage_probe():
    # the stall rule only approximates maximality, so coverage is measured,
    # not assumed; these (d, eps, seed) combinations were verified to cover
    eps_by_d = {2: 0.3, 3: 0.4, 4: 0.5, 5: 0.6, 6: 0.7}
    for d, eps in eps_by_d.items():
        net = build_eps_net(d, eps, RngStream(42, d), stall_budget=100_000)
        assert net.separation_ok()
        probes = sample_unit_vectors(d, 10_000, RngStream(43, d))
        assert net.covering_radius_of(probes) <= eps


@pytest.mark.parametrize("d, eps_grid", [
    (2, (0.1, 0.5, 1.2)), (3, (0.3, 0.8)), (4, (0.5, 1.0)), (5, (0.8, 1.3)), (6, (1.0, 1.5)),
])
def test_net_points_match_the_per_candidate_reference(d, eps_grid):
    # stall budgets below, at and above the 512-candidate chunk, so runs
    # stop at the start, in the middle and at the end of a chunk
    for eps in eps_grid:
        for k, stall in enumerate((1, 2, 511, 512, 513, 1024, 10_000)):
            stream = RngStream(71, 100 * d + k)
            net = build_eps_net(d, eps, stream, stall_budget=stall)
            expected = eps_net_points(d, eps, stream.generator(), stall)
            assert net.points.shape == expected.shape
            assert np.array_equal(net.points, expected)


def test_acceptance_net_matches_the_per_candidate_reference():
    net = build_eps_net(4, 0.25, RngStream(1000, 0), stall_budget=10_000)
    expected = eps_net_points(4, 0.25, RngStream(1000, 0).generator(), 10_000)
    assert len(net) == 798
    assert np.array_equal(net.points, expected)


def test_net_rejects_large_dimension():
    with pytest.raises(InvalidInput):
        build_eps_net(9, 0.5, RngStream(1, 0))


def test_eps_net_type_validates_points():
    with pytest.raises(InvalidInput):
        EpsNet(2, 0.5, np.array([[2.0, 0.0]]))


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
