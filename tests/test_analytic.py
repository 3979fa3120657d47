import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats

from orthoselect import DomainError, RngStream, sample_unit_vectors
from orthoselect import analytic as an
from orthoselect import harness as hn

from oracles import abs_dot_density_integral, betainc_scalar, sorted_ks


# --- regularized incomplete beta -------------------------------------------

def test_betainc_against_library():
    gen = np.random.Generator(np.random.PCG64(40))
    for _ in range(3000):
        a = float(gen.uniform(0.2, 40.0))
        b = float(gen.uniform(0.2, 40.0))
        x = float(gen.uniform(0.0, 1.0))
        assert an.betainc_reg(a, b, x) == pytest.approx(float(sp.betainc(a, b, x)), abs=1e-12)


def test_betainc_endpoints_and_domain():
    assert an.betainc_reg(2.0, 3.0, 0.0) == 0.0
    assert an.betainc_reg(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(DomainError):
        an.betainc_reg(2.0, 3.0, 1.5)
    with pytest.raises(DomainError):
        an.betainc_reg(-1.0, 3.0, 0.5)


def test_betainc_arrays_equal_the_scalar_reference_bit_for_bit():
    gen = np.random.Generator(np.random.PCG64(41))
    # (1/2, 1) and (5, 16) are the README order-stat audit's two betas
    pairs = [(0.5, 1.0), (5.0, 16.0), (0.5, 3.5), (2.0, 3.0)]
    pairs += [(float(gen.uniform(0.2, 40.0)), float(gen.uniform(0.2, 40.0))) for _ in range(20)]
    for a, b in pairs:
        switch = (a + 1.0) / (a + b + 2.0)
        xs = np.concatenate([[0.0, 1.0, switch, np.nextafter(switch, 0.0), np.nextafter(switch, 1.0)],
                             gen.uniform(0.0, 1.0, 200)])
        want = [betainc_scalar(a, b, float(x)) for x in xs]
        assert an.betainc_reg(a, b, xs).tobytes() == np.array(want).tobytes()
        # a Python float, a numpy scalar and a one-entry array, bit for bit
        floats = [an.betainc_reg(a, b, float(x)) for x in xs]
        assert all(type(v) is float for v in floats)
        assert np.array(floats).tobytes() == np.array(want).tobytes()
        assert np.array([an.betainc_reg(a, b, x) for x in xs]).tobytes() == np.array(want).tobytes()
        singles = np.concatenate([an.betainc_reg(a, b, xs[i : i + 1]) for i in range(len(xs))])
        assert singles.tobytes() == np.array(want).tobytes()


def test_order_stat_cdf_and_ks_distance_equal_the_scalar_reference():
    spec = an.OrderStatSpec(p=20, r=5, n=3)

    def reference(z: float) -> float:
        return betainc_scalar(5.0, 16.0, betainc_scalar(0.5, 1.0, z * z))

    zs = np.linspace(0.0, 1.0, 2001)
    assert an.order_stat_cdf(zs, spec).tolist() == [reference(float(z)) for z in zs]
    samples = np.abs(sample_unit_vectors(3, 20 * 3000, RngStream(4, 0))[:, 0]).reshape(3000, 20)
    z_r = np.partition(samples, 4, axis=1)[:, 4]
    assert hn.ks_distance(z_r, lambda z: an.order_stat_cdf(z, spec)) == sorted_ks(z_r, reference)


def test_order_stat_cdf_blocks_keep_every_value_and_bound_memory(monkeypatch):
    spec = an.OrderStatSpec(p=20, r=5, n=3)
    samples = np.abs(sample_unit_vectors(3, 20 * 100_000, RngStream(5, 0))[:, 0]).reshape(-1, 20)
    z_r = np.sort(np.partition(samples, 4, axis=1)[:, 4])
    tracemalloc.start()
    try:
        blocked = an.order_stat_cdf(z_r, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one pass over all 1e5 entries held about 327 B each (33 MB)
    assert peak < 12 * 2**20
    # blocks of any size, a last block of one entry among them, give the same bits
    for block in (4_096, 99_999, 100_000):
        monkeypatch.setattr(an, "_CDF_BLOCK", block)
        assert an.order_stat_cdf(z_r, spec).tobytes() == blocked.tobytes()


def test_binomial_cdf_matches_library():
    for count, q in [(10, 0.3), (50, 0.02), (1000, 0.1)]:
        for k in [-1, 0, 1, count // 2, count - 1, count]:
            assert an.binomial_cdf(k, count, q) == pytest.approx(
                float(scipy.stats.binom.cdf(k, count, q)), abs=1e-12
            )


# --- density / CDF of |<X_j, v>| --------------------------------------------

def test_inner_density_constant_in_three_dimensions():
    for z in np.linspace(0.0, 0.999, 25):
        assert an.inner_density(float(z), 3) == pytest.approx(0.5, abs=1e-14)


def test_inner_density_normalizes_by_quadrature():
    for n in range(2, 51):
        assert abs_dot_density_integral(n, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_inner_density_two_dimensions_integrable_singularity():
    assert an.inner_density(1.0, 2) == math.inf
    assert an.inner_cdf(1.0, 2) == 1.0


def test_inner_cdf_basics():
    assert an.inner_cdf(0.0, 7) == 0.0
    assert an.inner_cdf(1.0, 7) == 1.0
    for z in np.linspace(0.0, 1.0, 37):
        assert an.inner_cdf(float(z), 3) == pytest.approx(float(z), abs=1e-12)


def test_inner_cdf_matches_quadrature():
    for n in (2, 4, 9, 25):
        for z in (0.1, 0.4, 0.75, 0.97):
            assert an.inner_cdf(z, n) == pytest.approx(
                abs_dot_density_integral(n, z), abs=1e-10
            )


def test_inner_cdf_derivative_is_twice_density():
    h = 1e-6
    for n in (3, 6, 14):
        for z in np.linspace(0.05, 0.95, 10):
            z = float(z)
            fd = (an.inner_cdf(z + h, n) - an.inner_cdf(z - h, n)) / (2.0 * h)
            assert fd == pytest.approx(2.0 * an.inner_density(z, n), abs=1e-6)


def test_inner_cdf_monte_carlo():
    n = 6
    pts = sample_unit_vectors(n, 20_000, RngStream(44, 0))
    ks = sorted_ks(np.abs(pts[:, 0]), lambda z: an.inner_cdf(z, n))
    assert ks <= 0.012


# --- order statistics --------------------------------------------------------

def test_order_stat_cdf_r_equals_one():
    spec = an.OrderStatSpec(p=12, r=1, n=5)
    for z in (0.05, 0.2, 0.6, 1.0):
        g = an.inner_cdf(z, 5)
        assert an.order_stat_cdf(z, spec) == pytest.approx(1.0 - (1.0 - g) ** 12, abs=1e-12)


def test_order_stat_cdf_max_law():
    spec = an.OrderStatSpec(p=9, r=9, n=4)
    for z in (0.1, 0.5, 0.9):
        assert an.order_stat_cdf(z, spec) == pytest.approx(an.inner_cdf(z, 4) ** 9, abs=1e-12)


def test_order_stat_cdf_equals_beta_when_projections_uniform():
    # n = 3 makes G(z) = z, so Z_(r) is a uniform order statistic
    for r in (1, 5, 20):
        spec = an.OrderStatSpec(p=20, r=r, n=3)
        for z in np.linspace(0.0, 1.0, 41):
            z = float(z)
            assert an.order_stat_cdf(z, spec) == pytest.approx(
                float(scipy.stats.beta.cdf(z, r, 20 - r + 1)), abs=1e-10
            )


def test_order_stat_cdf_monotone():
    spec = an.OrderStatSpec(p=15, r=4, n=6)
    zs = np.linspace(0.0, 1.0, 30)
    vals = [an.order_stat_cdf(float(z), spec) for z in zs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    for z in (0.2, 0.5):
        by_r = [an.order_stat_cdf(z, an.OrderStatSpec(p=15, r=r, n=6)) for r in range(1, 16)]
        assert all(b <= a + 1e-12 for a, b in zip(by_r, by_r[1:]))
    assert an.order_stat_cdf(1.0, spec) == 1.0


def test_order_stat_quantile_consistency():
    spec = an.OrderStatSpec(p=10, r=3, n=3)
    for alpha in (0.5, 0.1, 0.01):
        z = an.order_stat_quantile(alpha, spec)
        cdf = an.order_stat_cdf(z, spec)
        assert 1.0 - alpha <= cdf <= 1.0 - alpha + 1e-9
    assert an.order_stat_quantile(0.999999, spec) <= 0.01


def test_order_stat_quantile_matches_beta_oracle():
    z = an.order_stat_quantile(0.1, an.OrderStatSpec(p=10, r=3, n=3))
    assert z == pytest.approx(float(sp.betaincinv(3.0, 8.0, 0.9)), abs=1e-9)


def test_order_stat_quantile_survives_extreme_levels():
    z = an.order_stat_quantile(1e-250, an.OrderStatSpec(p=40, r=10, n=8))
    assert 0.0 < z < 1.0
    assert an.order_stat_sf(z, an.OrderStatSpec(p=40, r=10, n=8)) <= 1e-250


# --- concentration -----------------------------------------------------------

def test_chernoff_lower_values():
    assert an.chernoff_lower(0.5, 0.0) == 1.0
    assert an.chernoff_lower(0.5, 8.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    bounds = [an.chernoff_lower(e, 20.0) for e in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))


def test_chernoff_bound_holds_against_exact_tails():
    for count, q in [(200, 0.1), (1000, 0.05)]:
        mean = count * q
        for eps in (0.2, 0.5, 0.8):
            exact = an.binomial_cdf(math.floor((1.0 - eps) * mean), count, q)
            assert exact <= an.chernoff_lower(eps, mean) + 1e-15


# --- gamma ratio -------------------------------------------------------------

def test_gamma_ratio_known_values():
    assert an.gamma_ratio(4) == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-14)
    assert an.gamma_ratio(2) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-14)


# --- headline bound ----------------------------------------------------------

def test_claimed_gamma_bound_values():
    assert an.claimed_gamma_bound(math.e) == pytest.approx(80.0 / math.e, abs=1e-12)
    assert an.claimed_gamma_bound(1000) == pytest.approx(0.55262042231857087, abs=1e-12)
    vals = [an.claimed_gamma_bound(p) for p in range(3, 400)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# --- spherical caps ----------------------------------------------------------

def test_cap_probability_trivial_and_archimedes():
    for n in (2, 3, 8, 21):
        assert an.cap_probability(0.0, n) == pytest.approx(0.5, abs=1e-12)
        assert an.cap_probability(1.0, n) == pytest.approx(0.0, abs=1e-15)
    assert an.cap_probability(0.5, 3) == pytest.approx(0.25, abs=1e-12)
    for h in (0.1, 0.45, 0.8):
        assert an.cap_probability(h, 3) == pytest.approx((1.0 - h) / 2.0, abs=1e-12)


def test_cap_identity_with_inner_cdf():
    for n in range(3, 31):
        for h in np.linspace(0.0, 1.0, 21):
            h = float(h)
            assert 2.0 * an.cap_probability(h, n) == pytest.approx(
                1.0 - an.inner_cdf(h, n), abs=1e-10
            )


def test_cap_probability_monte_carlo():
    for seed, (h, n) in enumerate([(0.2, 3), (0.5, 6), (0.1, 20)]):
        pts = sample_unit_vectors(n, 20_000, RngStream(300 + seed, 0))
        freq = float(np.mean(pts[:, 0] >= h))
        prob = an.cap_probability(h, n)
        sigma = math.sqrt(prob * (1.0 - prob) / 20_000)
        assert abs(freq - prob) <= 3.0 * sigma


# --- claimed coherence threshold ---------------------------------------------

def test_coherence_threshold_inequality_replay():
    for p in (10, 100):
        for n in range(6, 21):
            h = an.coherence_threshold_h(p, n)
            lhs = (p * p / 2.0) * (2.0 * h) ** ((n + 1) / 2.0)
            assert lhs <= p ** float(-n) * (1.0 + 1e-9)
            assert h <= 0.5 * p**-2


def test_coherence_threshold_monotone_in_p():
    for n in (6, 12):
        vals = [an.coherence_threshold_h(p, n) for p in range(2, 60)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


# --- constants ---------------------------------------------------------------

def test_k_epsilon_spot_value_and_limits():
    assert an.k_epsilon(0.5, 1.0) == pytest.approx(1.1833714645378632, abs=1e-9)
    vals = [an.k_epsilon(e, 1.0) for e in (0.5, 0.25, 0.1, 0.05)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert an.k_epsilon(0.5, 1e-12) < -8.0


def test_kappa_branches_and_max_semantics():
    assert an.KAPPA_BRANCH_CONSTANT == pytest.approx(math.exp(2.0), abs=1e-12)
    for p, n in [(11, 6), (100, 10), (10_000, 50)]:
        b1, b2 = an.kappa_branches(0.5, 0.5, 1.0, p, n, 0.5)
        assert an.derive_constants(n, p, 1, 0.5, 0.5, 1.0, 0.5).kappa == max(b1, b2)
    # the log^2(p) branch grows with p
    b2s = [an.kappa_branches(0.5, 0.5, 1.0, p, 10, 0.5)[1] for p in (11, 100, 1000)]
    assert b2s[0] < b2s[1] < b2s[2]


def test_s_max_desk_scale_and_monotonicity():
    assert an.s_max(100, 1000, 0.5, 0.5, 1.0, 0.5) == 0
    vals = [an.s_max(n, 50, 0.5, 0.5, 1.0, 0.5) for n in (10, 100, 10_000, 10_000_000)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        an.s_max(1, 50, 0.5, 0.5, 0.9, 0.5)


def test_norm_threshold_u_scaling():
    k_eps = an.k_epsilon(0.5, 1.0)
    base = an.norm_threshold_u(10, 0.0, 0.5, 0.5, k_eps, 100)
    assert base == pytest.approx(
        (1.0 + k_eps) / (0.5 * 0.5**4) * math.log(100), abs=1e-10
    )
    u1 = an.norm_threshold_u(10, 20.0, 0.5, 0.5, k_eps, 100)
    u2 = an.norm_threshold_u(10, 20.0, 0.5, 0.5, k_eps, 10_000)
    assert u2 == pytest.approx(u1 * 2.0, rel=1e-12)  # log(p^2) = 2 log(p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constants_refuse_a_non_finite_c_kappa_or_c_subgauss(bad):
    k_eps = an.k_epsilon(0.5, 1.0)
    for call in (lambda: an.k_epsilon(0.5, bad),
                 lambda: an.kappa_branches(0.5, 0.5, 1.0, 100, 10, bad),
                 lambda: an.c_s_constant(0.5, 0.5, 1.0, bad),
                 lambda: an.norm_threshold_u(10, 20.0, 0.5, bad, k_eps, 100)):
        with pytest.raises(DomainError, match="finite and positive"):
            call()


def test_k_epsilon_and_kappa_branches_refuse_an_infinite_value():
    # a product that reaches inf raises no OverflowError, as `**` would
    with pytest.raises(DomainError, match=r"^k_epsilon overflows float64 at eps=0\.5, "
                                          r"c_kappa=1e\+308$"):
        an.k_epsilon(0.5, 1e308)
    with pytest.raises(DomainError, match=r"^k_epsilon overflows"):
        an.kappa_branches(0.5, 0.5, 1e308, 1000, 100, 0.5)
    with pytest.raises(DomainError, match=r"^kappa_branch2 overflows float64 at rho_minus=0\.5, "
                                          r"eps=0\.5, c_kappa=1e\+76, p=1000, n=100, "
                                          r"c_subgauss=0\.5$"):
        an.kappa_branches(0.5, 0.5, 1e76, 1000, 100, 0.5)
    assert math.isfinite(an.k_epsilon(0.5, 1e76))
    # an int too large for a float names the constant and the input
    with pytest.raises(DomainError, match=r"^kappa_branch2 overflows .*, n=9{400}, "):
        an.kappa_branches(0.5, 0.5, 1.0, 1000, int("9" * 400), 0.5)


def test_derive_constants_recomputes_consistently():
    c = an.derive_constants(100, 1000, 1, 0.5, 0.5, 1.0, 0.5)
    assert c.k_epsilon == pytest.approx(an.k_epsilon(0.5, 1.0), rel=1e-15)
    assert c.kappa == max(c.kappa_branch1, c.kappa_branch2)
    assert c.r_prime == 0.25
    assert c.s_max == 0
    assert c.h_cap == pytest.approx(an.coherence_threshold_h(1000, 100), rel=1e-15)
    small = an.derive_constants(8, 40, 1, 0.5, 0.5, 0.1, 0.5)
    assert small.z0 is not None and 0.0 < small.z0 < 1.0


def test_constraint_check_rows():
    cfg = an.derive_constants(5, 10, 1, 0.5, 0.5, 1.0, 0.5)
    rows = {r["constraint"]: r for r in an.constraint_check(cfg)}
    assert not rows["p >= ceil(exp(6/sqrt(2*pi)))"]["satisfied"]  # 10 < 11
    assert not rows["n >= 6"]["satisfied"]
    cfg2 = an.derive_constants(700, 10_000, 1, 0.5, 0.5, 1.0, 0.5)
    rows2 = {r["constraint"]: r for r in an.constraint_check(cfg2)}
    assert rows2["n >= 6"]["satisfied"]
    assert rows2["p >= ceil(exp(6/sqrt(2*pi)))"]["satisfied"]


def test_admissible_search_unattainable_at_desk_scale():
    # no probed grid point satisfies every hypothesis of the main guarantee
    for c_kappa in (0.5, 1.0, 2.0, 10.0, 100.0):
        for n in (6, 10, 50, 200, 700, 1000):
            for p in (11, 100, 1000, 10_000):
                for s in (1, 2):
                    cfg = an.derive_constants(n, p, s, 0.5, 0.5, c_kappa, 0.5)
                    rows = an.constraint_check(cfg)
                    assert not all(r["satisfied"] for r in rows), (n, p, s, c_kappa)
