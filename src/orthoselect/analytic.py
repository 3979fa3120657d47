"""Closed-form distributions and bound formulas used by the selection method.

Two kinds of functions live here and must not be confused:

* exact numerics (densities, CDFs, quantiles, the regularized incomplete
  beta) that the rest of the package relies on, and
* transcriptions of the method's claimed bounds and constants, kept
  verbatim so they can be judged.  Every transcription here is read by the
  ``constants`` command (through `derive_constants` and `constraint_check`)
  or by an audit in `orthoselect.harness`.  Nothing in this package ever
  *trusts* a claimed formula.

The regularized incomplete beta is computed by a Lentz continued fraction
with the usual symmetry reduction, targeting 1e-10 relative error; tests
cross-check it against quadrature and an independent library implementation.
It runs over arrays, one masked loop for all entries, and on floats when
there is one entry; `inner_cdf` and `order_stat_cdf` pass arrays through,
and a Python float goes straight to the float loop.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInput
# re-exported: the first branch of the kappa formula, 4 e^{-2(ln 2 - 1)}
from .config import KAPPA_BRANCH_CONSTANT

_BETACF_MAX_ITER = 500
_BETACF_EPS = 3e-16
_FPMIN = 1e-300
# Entries per block of an array `order_stat_cdf`.
_CDF_BLOCK = 1 << 14


def _floored(v: np.ndarray) -> np.ndarray:
    """v with every entry of magnitude below _FPMIN replaced by _FPMIN."""
    return np.where(np.abs(v) < _FPMIN, _FPMIN, v)


def _betacf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Modified-Lentz evaluation of the incomplete-beta continued fraction at
    each entry of equal-shape 1-d arrays a, b and x.

    Each entry goes through `_betacf_float`'s IEEE operations in the same
    order and leaves the loop at its own convergence, so its value does not
    depend on the other entries.
    """
    out = np.empty_like(x)
    live = np.arange(x.size)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _floored(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = _floored(1.0 + aa * d)
        c = _floored(1.0 + aa / c)
        d = 1.0 / d
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = _floored(1.0 + aa * d)
        c = _floored(1.0 + aa / c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = abs(delta - 1.0) < _BETACF_EPS
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live = live[keep]
            if not live.size:
                return out
            a, b, x, qab, qap, qam, c, d, h = (v[keep] for v in (a, b, x, qab, qap, qam, c, d, h))
    raise DomainError(f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def _betacf_float(a: float, b: float, x: float) -> float:
    """The continued fraction of `_betacf` at floats a, b and x.  The
    floorings are written out: a call per flooring doubles the time."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (_FPMIN if abs(d) < _FPMIN else d)
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        c = 1.0 + aa / c
        d = 1.0 / (_FPMIN if abs(d) < _FPMIN else d)
        c = _FPMIN if abs(c) < _FPMIN else c
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        c = 1.0 + aa / c
        d = 1.0 / (_FPMIN if abs(d) < _FPMIN else d)
        c = _FPMIN if abs(c) < _FPMIN else c
        delta = d * c
        h = h * delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise DomainError(f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def _unit_interval_entries(name: str, x) -> tuple[list[float], bool]:
    """The entries of a float or 1-d array x as a list, each checked to lie
    in [0, 1], and whether x is a float."""
    values = np.asarray(x, dtype=float).tolist()
    scalar = isinstance(values, float)
    values = [values] if scalar else values
    if not all(0.0 <= v <= 1.0 for v in values):
        bad = next(v for v in values if not 0.0 <= v <= 1.0)
        raise DomainError(f"{name}={bad} outside [0, 1]")
    return values, scalar


def _betainc_float(a: float, b: float, x: float) -> float:
    """I_x(a, b) at a float x in [0, 1], in plain floats: the operations
    `betainc_reg` applies to each entry of an array."""
    if not 0.0 < x < 1.0:
        return 0.0 if x < 1.0 else 1.0
    bt = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                  + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf_float(a, b, x) / a
    return 1.0 - bt * _betacf_float(b, a, 1.0 - x) / b


def betainc_reg(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b) at a float x, or at each entry
    of a 1-d array x.

    Each entry's prefactor x^a (1-x)^b / B(a, b) is taken with `math`,
    because numpy's exp and log may round differently from the C library's;
    the continued fraction then runs once over all entries inside (0, 1),
    on floats when there is one.  A float x, or any other 0-d x, goes
    through the same operations in plain floats; a Python float skips the
    array and list conversions as well.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError("beta parameters must be positive")
    if type(x) is float:
        _check_unit_float("x", x)
        return _betainc_float(a, b, x)
    values, scalar = _unit_interval_entries("x", x)
    if scalar:
        return _betainc_float(a, b, values[0])
    out = [0.0 if v < 1.0 else 1.0 for v in values]
    inner = [i for i, v in enumerate(values) if 0.0 < v < 1.0]
    xi = [values[i] for i in inner]
    ln_b = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    bt = [math.exp(ln_b + a * math.log(v) + b * math.log1p(-v)) for v in xi]
    # the fraction at (a, b, x) below the switch point, at (b, a, 1-x) above
    switch = (a + 1.0) / (a + b + 2.0)
    low = [v < switch for v in xi]
    if len(xi) > 1:
        below, xa = np.array(low), np.array(xi)
        cf = _betacf(np.where(below, a, b), np.where(below, b, a),
                     np.where(below, xa, 1.0 - xa)).tolist()
    else:
        cf = [_betacf_float(a, b, v) if lo else _betacf_float(b, a, 1.0 - v) for v, lo in zip(xi, low)]
    for i, t, f, lo in zip(inner, bt, cf, low):
        out[i] = t * f / a if lo else 1.0 - t * f / b
    return np.array(out)


def binomial_cdf(k: int, count: int, q: float) -> float:
    """P(Bin(count, q) <= k), via the incomplete-beta identity."""
    if count < 0 or not 0.0 <= q <= 1.0:
        raise DomainError("count must be nonnegative and q in [0, 1]")
    if k < 0:
        return 0.0
    if k >= count:
        return 1.0
    return betainc_reg(count - k, k + 1.0, 1.0 - q)


def _check_unit_float(name: str, x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"{name}={x} outside [0, 1]")


def _check_z(z) -> None:
    if type(z) is float:
        _check_unit_float("z", z)
    else:
        _unit_interval_entries("z", z)


def gamma_ratio(n: int) -> float:
    """Exact Gamma(n/2) / Gamma((n-1)/2) via log-gamma."""
    if n < 2:
        raise DomainError("ratio defined for n >= 2")
    return math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0))


def inner_density(z: float, n: int) -> float:
    """Density g of |<X_j, v>| on [0, 1] for X_j uniform on S^{n-1}.

    g(z) = (1/sqrt(pi)) * Gamma(n/2)/Gamma((n-1)/2) * (1-z^2)^((n-3)/2);
    for n = 2 the endpoint z = 1 is an integrable singularity.
    """
    if n < 2:
        raise DomainError("dimension must be at least 2")
    _check_z(z)
    coeff = gamma_ratio(n) / math.sqrt(math.pi)
    expo = (n - 3) / 2.0
    base = 1.0 - z * z
    if base == 0.0:
        if expo < 0.0:
            return math.inf
        if expo == 0.0:
            return coeff
        return 0.0
    return coeff * base**expo


def inner_cdf(z, n: int):
    """G(z) = P(|<X_j, v>| <= z) = I_{z^2}(1/2, (n-1)/2), at a float z or at
    each entry of an array z."""
    if n < 2:
        raise DomainError("dimension must be at least 2")
    _check_z(z)
    return betainc_reg(0.5, (n - 1) / 2.0, z * z)


@dataclass(frozen=True)
class OrderStatSpec:
    """Which order statistic: r-th smallest of p absolute inner products in R^n."""

    p: int
    r: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.r <= self.p:
            raise InvalidInput(f"order index r={self.r} must satisfy 1 <= r <= p={self.p}")
        if self.n < 2:
            raise InvalidInput("ambient dimension must be at least 2")


def order_stat_cdf(z, spec: OrderStatSpec):
    """F_{Z_(r)}(z) = P(Bin(p, G(z)) >= r) = I_{G(z)}(r, p - r + 1), at a
    float z or at each entry of an array z.

    An array runs in blocks of _CDF_BLOCK entries, which bounds the memory
    of `betainc_reg`'s per-entry lists; an entry's value does not depend on
    the other entries, so neither does it on its block.
    """
    if isinstance(z, np.ndarray) and z.size > _CDF_BLOCK:
        return np.concatenate([order_stat_cdf(z[lo : lo + _CDF_BLOCK], spec)
                               for lo in range(0, z.size, _CDF_BLOCK)])
    _check_z(z)
    g = inner_cdf(z, spec.n)
    return betainc_reg(float(spec.r), float(spec.p - spec.r + 1), g)


def order_stat_sf(z: float, spec: OrderStatSpec) -> float:
    """P(Z_(r) > z) = P(Bin(p, G(z)) <= r - 1); accurate when tiny."""
    _check_z(z)
    g = inner_cdf(z, spec.n)
    return binomial_cdf(spec.r - 1, spec.p, g)


def order_stat_quantile(alpha: float, spec: OrderStatSpec, tol: float = 1e-12) -> float:
    """Smallest z with F_{Z_(r)}(z) >= 1 - alpha, by bisection.

    Extreme levels (alpha below float granularity near 1) bisect on the
    survival function instead, which is the same condition but stays
    resolvable down to alpha = p^-n.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if alpha >= 1e-9:
        target = 1.0 - alpha
        hit = lambda z: order_stat_cdf(z, spec) >= target
    else:
        hit = lambda z: order_stat_sf(z, spec) <= alpha
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if hit(mid):
            hi = mid
        else:
            lo = mid
    return hi


def chernoff_lower(eps: float, mean: float) -> float:
    """The lower-tail bound exp(-eps^2 * mean / 2) for Bin deviations."""
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    if mean < 0.0:
        raise DomainError("mean must be nonnegative")
    return math.exp(-0.5 * eps * eps * mean)


def cap_probability(h: float, n: int) -> float:
    """True probability that a uniform w on S^{n-1} has <v, w> >= h.

    Equals (1/2) I_{1-h^2}((n-1)/2, 1/2); satisfies the exact identity
    2 * cap_probability(h, n) = 1 - inner_cdf(h, n).
    """
    if n < 2:
        raise DomainError("dimension must be at least 2")
    _check_z(h)
    return 0.5 * betainc_reg((n - 1) / 2.0, 0.5, 1.0 - h * h)


def coherence_threshold_h(p: int, n: int) -> float:
    """The claimed coherence cap threshold h(p, n), for auditing only.

    h = (1/2) exp(-2 (log p + (log p - log 2)/(n+1))), the parenthesization
    reconstructed from the requirement (p^2/2) (2h)^((n+1)/2) <= p^-n, which
    this h satisfies with equality.
    """
    if p < 2:
        raise DomainError("p must be at least 2")
    if n < 1:
        raise DomainError("n must be at least 1")
    lp = math.log(p)
    return 0.5 * math.exp(-2.0 * (lp + (lp - math.log(2.0)) / (n + 1)))


def claimed_gamma_bound(p: float) -> float:
    """The headline bound 80 log(p) / p on the selection value."""
    if p < 2:
        raise DomainError("p must be at least 2")
    return 80.0 * math.log(p) / p


def _check_c_subgauss(c_subgauss: float) -> None:
    if not (math.isfinite(c_subgauss) and c_subgauss > 0.0):
        raise DomainError("c_subgauss must be finite and positive")


def k_epsilon(eps: float, c_kappa: float) -> float:
    """K_eps = (sqrt(2 pi)/6) ((1+C_k) log(1+2/eps) + C_k + log(C_k/4))."""
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    if not (math.isfinite(c_kappa) and c_kappa > 0.0):
        raise DomainError("c_kappa must be finite and positive")
    return (
        math.sqrt(2.0 * math.pi)
        / 6.0
        * ((1.0 + c_kappa) * math.log(1.0 + 2.0 / eps) + c_kappa + math.log(c_kappa / 4.0))
    )


@contextmanager
def _overflow_names(constant: str, **inputs: float):
    """Raise a float overflow inside as a DomainError that names `constant`
    and the inputs it was derived from."""
    try:
        yield
    except OverflowError as exc:
        given = ", ".join(f"{key}={value!r}" for key, value in inputs.items())
        raise DomainError(f"{constant} overflows float64 at {given}") from exc


def kappa_branches(
    rho_minus: float, eps: float, c_kappa: float, p: int, n: int, c_subgauss: float
) -> tuple[float, float]:
    """Both branches of the kappa formula: the constant 4 e^{-2(ln2-1)} and
    the log^2(p) log(C_k n) branch."""
    if not 0.0 < rho_minus < 1.0:
        raise DomainError("rho_minus must lie in (0, 1)")
    _check_c_subgauss(c_subgauss)
    if p < 2:
        raise DomainError("p must be at least 2")
    if c_kappa * n <= 0.0:
        raise DomainError("c_kappa * n must be positive")
    k_eps = k_epsilon(eps, c_kappa)
    with _overflow_names("kappa_branch2", rho_minus=rho_minus, eps=eps, c_kappa=c_kappa, p=p, n=n,
                         c_subgauss=c_subgauss):
        branch2 = (
            4.0
            * math.exp(3.0)
            / (1.0 - rho_minus) ** 2
            * ((1.0 + k_eps) * (1.0 + c_kappa) / (c_subgauss * (1.0 - eps) ** 4)) ** 2
            * math.log(p) ** 2
            * math.log(c_kappa * n)
        )
    return KAPPA_BRANCH_CONSTANT, branch2


def c_s_constant(rho_minus: float, eps: float, c_kappa: float, c_subgauss: float) -> float:
    """C_s = c^2 (1-rho)^2 (1-eps)^8 / (4 e^3) * C_k / ((1+K_eps)^2 (1+C_k)^2)."""
    _check_c_subgauss(c_subgauss)
    k_eps = k_epsilon(eps, c_kappa)
    with _overflow_names("c_s", rho_minus=rho_minus, eps=eps, c_kappa=c_kappa,
                         c_subgauss=c_subgauss):
        return (
            c_subgauss**2
            * (1.0 - rho_minus) ** 2
            * (1.0 - eps) ** 8
            / (4.0 * math.exp(3.0))
            * c_kappa
            / ((1.0 + k_eps) ** 2 * (1.0 + c_kappa) ** 2)
        )


def s_max(
    n: int, p: int, rho_minus: float, eps: float, c_kappa: float, c_subgauss: float
) -> int:
    """floor(C_s n / (log^2(p) log(C_k n))), the claimed largest admissible s.

    At desk scale this is typically 0 or 1; that is reported, not hidden.
    """
    if p < 2:
        raise DomainError("p must be at least 2")
    if c_kappa * n <= 1.0:
        raise DomainError("c_kappa * n must exceed 1 so log(c_kappa * n) is positive")
    cs = c_s_constant(rho_minus, eps, c_kappa, c_subgauss)
    return math.floor(cs * n / (math.log(p) ** 2 * math.log(c_kappa * n)))


def norm_threshold_u(
    n: int, kappa_s: float, eps: float, c_subgauss: float, k_eps: float, p: int
) -> float:
    """The operator-norm threshold (1+K_eps)/(c (1-eps)^4) (n+ks)/n log(p)."""
    if p < 2:
        raise DomainError("p must be at least 2")
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1)")
    _check_c_subgauss(c_subgauss)
    return (1.0 + k_eps) / (c_subgauss * (1.0 - eps) ** 4) * (n + kappa_s) / n * math.log(p)


@dataclass(frozen=True)
class BoundConstants:
    """All scalars of the method for one (n, p, s) context.

    Derived fields are always recomputed from the four inputs by
    `derive_constants`; they are never hand-set.
    """

    n: int
    p: int
    s: int
    rho_minus: float
    epsilon: float
    c_kappa: float
    c_subgauss: float
    k_epsilon: float
    kappa: float
    kappa_branch1: float
    kappa_branch2: float
    c_s: float
    c_v: float
    u_norm: float
    v_split: float | None
    r_prime: float
    h_cap: float
    z0: float | None
    s_max: int | None
    gamma_bound: float


def derive_constants(
    n: int,
    p: int,
    s: int,
    rho_minus: float,
    epsilon: float,
    c_kappa: float,
    c_subgauss: float,
) -> BoundConstants:
    """Recompute every derived constant for the given context."""
    k_eps = k_epsilon(epsilon, c_kappa)
    branch1, branch2 = kappa_branches(rho_minus, epsilon, c_kappa, p, n, c_subgauss)
    kappa = max(branch1, branch2)
    c_s = c_s_constant(rho_minus, epsilon, c_kappa, c_subgauss)
    r_prime = (1.0 - rho_minus) / 2.0
    u_norm = norm_threshold_u(n, kappa * s, epsilon, c_subgauss, k_eps, p)
    c_v = math.log(c_kappa * n) if c_kappa * n > 0 else math.nan
    # undefined, like s_max and z0, where log(C_k n) <= 0
    v_split = math.sqrt(r_prime**2 / c_v) if c_v > 0.0 else None
    try:
        smax = s_max(n, p, rho_minus, epsilon, c_kappa, c_subgauss)
    except DomainError:
        smax = None
    z0: float | None = None
    r_order = math.ceil(kappa * s)
    alpha = math.exp(-n * math.log(p)) if n * math.log(p) < 700 else 0.0
    if n >= 2 and 1 <= r_order <= p and 0.0 < alpha < 1.0:
        z0 = order_stat_quantile(alpha, OrderStatSpec(p=p, r=r_order, n=n))
    return BoundConstants(
        n=n,
        p=p,
        s=s,
        rho_minus=rho_minus,
        epsilon=epsilon,
        c_kappa=c_kappa,
        c_subgauss=c_subgauss,
        k_epsilon=k_eps,
        kappa=kappa,
        kappa_branch1=branch1,
        kappa_branch2=branch2,
        c_s=c_s,
        c_v=c_v,
        u_norm=u_norm,
        v_split=v_split,
        r_prime=r_prime,
        h_cap=coherence_threshold_h(p, n),
        z0=z0,
        s_max=smax,
        gamma_bound=claimed_gamma_bound(p),
    )


#: p lower bound of the main guarantee: ceil(e^{6/sqrt(2 pi)}) = 11.
P_MINIMUM = math.ceil(math.exp(6.0 / math.sqrt(2.0 * math.pi)))


def ledger_row(constraint: str, lhs: float, rhs: float, satisfied: bool) -> dict:
    """One hypothesis-ledger row, the ``{"constraint", "lhs", "rhs",
    "satisfied"}`` dict every ledger is made of."""
    return {"constraint": constraint, "lhs": float(lhs), "rhs": float(rhs), "satisfied": satisfied}


def p_minimum_row(p: int) -> dict:
    """The ledger row of the main guarantee's hypothesis p >= P_MINIMUM."""
    return ledger_row("p >= ceil(exp(6/sqrt(2*pi)))", p, P_MINIMUM, p >= P_MINIMUM)


def constraint_check(cfg: BoundConstants) -> list[dict]:
    """Evaluate every displayed hypothesis of the main guarantee as a ledger,
    at the (n, p, s) context `cfg` was derived for.

    Each row is a `ledger_row`; an unbounded ``rhs`` is ``inf``.
    """
    n, p, s = cfg.n, cfg.p, cfg.s
    numerator = max(cfg.kappa * s, 2.0 * 36.0 * 3.0 * 3.0, math.exp((1.0 - cfg.rho_minus) / 2.0))
    lower_n = numerator / cfg.c_kappa
    upper1 = (p / math.log(p)) ** 2
    expo = (1.0 - cfg.rho_minus) / math.sqrt(2.0) * p
    upper2 = math.exp(expo) / cfg.c_kappa if expo < 700 else math.inf
    return [
        p_minimum_row(p),
        ledger_row("n >= 6", n, 6.0, n >= 6),
        ledger_row("n >= max(kappa*s, 2*36*3*3, exp((1-rho)/2)) / c_kappa", n, lower_n, n >= lower_n),
        ledger_row("n <= (p/log(p))^2", n, upper1, n <= upper1),
        ledger_row("n <= exp((1-rho)/sqrt(2)*p) / c_kappa", n, upper2, n <= upper2),
    ]
