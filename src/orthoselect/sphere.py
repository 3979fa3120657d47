"""Uniform sampling on the unit sphere and eps-net construction.

Randomness is drawn from counter-based Philox streams keyed by a
(master seed, stream index) pair, so any consumer can be replayed exactly and
distinct stream indices can be consumed concurrently without coordination.
`RngStream.generator()` builds a new Philox for one stream; `TrialStreams`
serves the streams (seed, 0), (seed, 1), ... of an audit's trials from one
Philox whose key it resets, which yields the same numbers for less work.

Every sphere point (a matrix column, a direction, a probe, a net candidate)
is a row of `sample_unit_vectors`: Gaussian rows divided by their norms,
taken along the rows in numpy, not by BLAS.  So a point's bits follow from
its Gaussian numbers alone, whatever batch it is drawn in and whatever BLAS
kernel the CPU selects.

`cube_grid` is the certificate's net: the projected cell centres of a grid
on the d faces x_i = +1 of the cube [-1, 1]^d.  Its covering radius is
proven in closed form, and it takes no random numbers.

`build_eps_net` judges uniform candidates in chunks: one product per chunk
finds the few candidates far from every earlier point, and only those are
visited one at a time.  That product is a float32 screen, taken in
cache-sized blocks, with a proven margin around the acceptance cut; a chunk
with any candidate inside the margin takes the exact float64 product
instead, so the net is bit for bit the one the float64 product builds.  The
buffers are reused and grow only when the point buffer does, so a build
maps new memory a handful of times rather than once per chunk.  The net
stops growing after a run of rejections, so it is not proven to cover the
sphere to radius eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvalidInput
from .linalg import ColumnMatrix, frozen, unit_rows

NET_DIMENSION_CAP = 8
_CANDIDATE_CHUNK = 512
#: Points per block of the float32 screen: 128 x 512 products, 256 KiB,
#: which stay in cache.
_SCREEN_ROWS = 128
#: Half-width of the band around 1 - eps^2/2 where the screen decides nothing.
_SCREEN_MARGIN = 2e-6
_KEY_MASK = 0xFFFFFFFFFFFFFFFF
#: Most points `cube_grid` builds: 64 MiB of float64 at d = 8.
_GRID_POINT_LIMIT = 1 << 20
#: A Gaussian draw whose norm is at most this is drawn again.
MIN_DRAW_NORM = 1e-12


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream: same (seed, index) -> same sequence."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed & _KEY_MASK, self.stream_index & _KEY_MASK],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


class TrialStreams:
    """The streams (master_seed, i) of one seed, all from one Philox.

    `generator(i)` gives the Philox the key (master_seed, i) and the rest of
    the state a new one starts in (zero counter and buffer, nothing buffered),
    so it yields exactly the numbers of `RngStream(master_seed, i).generator()`.
    Every call returns the same Generator, so a stream ends when the next one
    is asked for.
    """

    def __init__(self, master_seed: int) -> None:
        self._gen = RngStream(master_seed, 0).generator()
        fresh = self._gen.bit_generator.state
        # plain lists, which the state setter reads faster than arrays
        self._state = {**fresh, "buffer": fresh["buffer"].tolist(),
                       "state": {k: v.tolist() for k, v in fresh["state"].items()}}

    def generator(self, stream_index: int) -> np.random.Generator:
        self._state["state"]["key"][1] = stream_index & _KEY_MASK
        self._gen.bit_generator.state = self._state
        return self._gen


def _as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def sample_unit_vectors(n: int, count: int, rng: RngStream | np.random.Generator) -> np.ndarray:
    """`count` independent uniform sphere points, one per row."""
    if n < 1:
        raise InvalidInput("dimension must be at least 1")
    gen = _as_generator(rng)
    out = gen.standard_normal((count, n))
    norms = np.linalg.norm(out, axis=1)
    bad = norms <= MIN_DRAW_NORM
    while np.any(bad):
        out[bad] = gen.standard_normal((int(np.sum(bad)), n))
        norms = np.linalg.norm(out, axis=1)
        bad = norms <= MIN_DRAW_NORM
    return out / norms[:, None]


def sample_unit_vector(n: int, rng: RngStream | np.random.Generator) -> np.ndarray:
    """One uniform point on S^{n-1}: the one row of `sample_unit_vectors`,
    so it takes the same numbers and has the same bits as that row."""
    return sample_unit_vectors(n, 1, rng)[0]


def sample_sphere_matrix(n: int, p: int, rng: RngStream | np.random.Generator) -> ColumnMatrix:
    """Matrix with p i.i.d. columns uniform on S^{n-1}."""
    if n < 1 or p < 1:
        raise InvalidInput("n and p must be at least 1")
    return ColumnMatrix(sample_unit_vectors(n, p, rng).T)


@dataclass(frozen=True)
class EpsNet:
    """Unit vectors in R^d (`linalg.unit_rows`, kept read-only) that, with
    their negatives, cover S^{d-1} to `radius`.

    `mode` says how the radius is known: "proven" for a `cube_grid` (closed
    form), "exact" for the d = 1 net {-1, +1}, and "heuristic" for a
    stall-stopped `build_eps_net`, whose radius is its separation eps,
    assumed and not proven.  `k` is a grid's cell count per axis, None
    otherwise.
    """

    dimension: int
    radius: float
    points: np.ndarray
    mode: str = "heuristic"
    k: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points",
                           frozen(unit_rows(self.points, self.dimension, "net points")))

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def descriptor(self) -> dict:
        return {"k": self.k, "mode": self.mode, "radius": self.radius, "size": len(self)}


def _check_net_args(d: int, eps: float) -> None:
    if d < 1:
        raise InvalidInput("dimension must be at least 1")
    if not 0.0 < eps < 2.0:
        raise InvalidInput("epsilon must lie in (0, 2), the sphere's diameter")
    if d > NET_DIMENSION_CAP:
        raise InvalidInput(f"net construction is capped at d={NET_DIMENSION_CAP}")


def grid_cells(d: int, eps: float) -> int:
    """Cells per axis of `cube_grid(d, eps)`: the fewest k >= 1 whose radius
    sqrt(d-1)/k is at most eps, as computed in floats.

    Raises BudgetExceeded, before any work, if the grid's d * k^(d-1) points
    exceed _GRID_POINT_LIMIT; the message names the smallest radius that fits.
    """
    _check_net_args(d, eps)
    half = math.sqrt(d - 1)
    quotient = half / eps
    if not quotient <= _GRID_POINT_LIMIT:  # also a subnormal eps's inf
        raise BudgetExceeded(_over_limit(d, eps, f"more than {_GRID_POINT_LIMIT} cells per axis"))
    k = max(1, math.ceil(quotient))
    # the ceiling of a rounded quotient can be one off either way
    if half / k > eps:
        k += 1
    elif k > 1 and half / (k - 1) <= eps:
        k -= 1
    size = d * k ** (d - 1)
    if size > _GRID_POINT_LIMIT:
        raise BudgetExceeded(_over_limit(d, eps, f"k={k} cells per axis, {size} points"))
    return k


def _over_limit(d: int, eps: float, needs: str) -> str:
    """The refusal of a grid over the limit (d >= 2, since d = 1 has one point)."""
    # the largest k that fits, from a float root corrected in whole steps
    fit = int((_GRID_POINT_LIMIT / d) ** (1.0 / (d - 1)))
    while d * (fit + 1) ** (d - 1) <= _GRID_POINT_LIMIT:
        fit += 1
    while d * fit ** (d - 1) > _GRID_POINT_LIMIT:
        fit -= 1
    return (f"the certificate grid at d={d} and radius {eps!r} needs {needs}, over the "
            f"limit of {_GRID_POINT_LIMIT} points; the smallest radius that fits is "
            f"{math.sqrt(d - 1) / fit!r} (k={fit})")


def cube_grid(d: int, eps: float) -> EpsNet:
    """A net on S^{d-1} whose covering radius sqrt(d-1)/k <= eps is proven.

    Each of the d faces x_i = +1 of the cube [-1, 1]^d is cut into k^(d-1)
    cells of half-side 1/k (k = `grid_cells(d, eps)`).  The points are the
    cells' centres, with coordinates c_j = (2j+1)/k - 1, projected onto the
    sphere; face i's block comes i-th.  Why the radius holds: for a unit v,
    let i be a coordinate of largest magnitude and u the one of v and -v
    with u_i > 0.  Then u is the projection of the point w = u/u_i of face
    i, w lies within sqrt(d-1)/k of its cell's centre, and radial
    projection from outside the unit ball is 1-Lipschitz.  So the points
    and their negatives cover the sphere to that radius, which is all a
    value that is even in v needs.  At d = 1 the grid is {+1} with radius 0.
    """
    k = grid_cells(d, eps)
    centres = (2.0 * np.arange(k) + 1.0) / k - 1.0
    cells = centres[np.indices((k,) * (d - 1)).reshape(d - 1, k ** (d - 1)).T]
    points = np.empty((d, len(cells), d))
    for i in range(d):
        points[i, :, :i] = cells[:, :i]
        points[i, :, i] = 1.0
        points[i, :, i + 1:] = cells[:, i:]
    points /= np.sqrt(1.0 + np.sum(cells * cells, axis=1))[:, None]
    return EpsNet(d, math.sqrt(d - 1) / k, points.reshape(-1, d), mode="proven", k=k)


def _screen_max(points32: np.ndarray, chunk32: np.ndarray, screen: np.ndarray) -> np.ndarray:
    """Each candidate's largest float32 dot with the points.

    `points32` is (size, d) and `chunk32` the (d, chunk) transpose of the
    candidates, both float32 and C-contiguous.  The products are taken in
    blocks of `screen.shape[0]` points, so each block stays in cache; any
    blocking gives values within the margin `build_eps_net` proves.
    """
    best = np.full(chunk32.shape[1], -np.inf, dtype=np.float32)
    rows = screen.shape[0]
    for lo in range(0, len(points32), rows):
        part = points32[lo : lo + rows]
        dots = np.matmul(part, chunk32, out=screen[: len(part)])
        np.maximum(best, dots.max(axis=0), out=best)
    return best


def build_eps_net(
    d: int, eps: float, rng: RngStream | np.random.Generator, stall_budget: int = 1000
) -> EpsNet:
    """Grow a maximal-by-construction eps-separated set on S^{d-1}.

    Uniform candidates are accepted iff they lie more than eps from every
    accepted point; construction stops after `stall_budget` consecutive
    rejections.  Maximality (hence covering) is therefore approximate, so the
    result is flagged heuristic except for the exact d = 1 net {-1, +1}.
    Cardinality explodes with d, so dimensions above NET_DIMENSION_CAP are
    refused.

    Candidates come in chunks of _CANDIDATE_CHUNK.  A candidate c is far
    from the points accepted before its chunk iff 2 - 2 * max(dots) > eps^2
    on the float64 gemm `chunk @ points.T`; the others are rejections,
    counted by position, and each far one is then checked against the
    points accepted earlier in its chunk.

    The float32 screen.  `_screen_max` takes each candidate's largest dot S
    from a float32 mirror of the points, in cache-sized blocks.  With
    t = 1 - eps^2/2 and the margin delta = _SCREEN_MARGIN, S < t - delta
    marks c far and S > t + delta marks it near.  If any candidate of a
    chunk has S within delta of t, the whole chunk takes the exact path:
    the float64 gemm above, written into a C-contiguous view of one
    workspace sized for the point buffer (allocated on first need), so it
    is the same gemm on the same operands as a fresh `chunk @ points.T`.

    Why a screened decision equals the exact one, whatever the BLAS kernel
    or blocking.  Let u = 2^-24 and c, x be unit float64 vectors (norms
    within a few ulps of 1).  Rounding a coordinate to float32 moves it by
    a relative u at most, so the float32 operands' exact dot is within
    (2u + u^2) sum|c_i x_i| of c.x; a float32 sum of the d products, in any
    order, with or without fused multiply-adds, adds at most
    d u / (1 - d u) times (1 + u)^2 sum|c_i x_i|, and sum|c_i x_i| <= |c||x|.
    (A subnormal coordinate or product, or one flushed to zero, errs by
    under 2^-126, far below what follows.)  So each float32 dot is within
    (d+2) u (1 + 1e-6) < 6e-7 of c.x for d <= 8, the float64 gemm's dot is
    within 8 * 2^-53 < 1e-15 of it, and, as a maximum moves no more than its
    entries, S and the gemm's max G differ by under 6e-7 < delta/2 = 1e-6.
    The bounds t - delta and t + delta are computed within 2^-51.  So
    S < t - delta gives G < t - delta/2 and 2 - 2G > eps^2 + delta, and
    S > t + delta gives 2 - 2G < eps^2 - delta.  Doubling is exact and
    2 - 2G rounds by at most 2^-52, so the float test 2 - 2G > eps^2 decides
    the same way, and the net is the one the float64 product alone builds,
    bit for bit.
    """
    _check_net_args(d, eps)
    if stall_budget < 1:
        raise InvalidInput("stall budget must be at least 1")
    if d == 1:
        return EpsNet(1, eps, np.array([[-1.0], [1.0]]), mode="exact")

    gen = _as_generator(rng)
    # The accepted points are the first `top` rows of a C-contiguous buffer
    # and of its float32 mirror; the first `size` of them were accepted
    # before the current chunk.
    buf = np.empty((_CANDIDATE_CHUNK, d))
    buf32 = np.empty((_CANDIDATE_CHUNK, d), dtype=np.float32)
    screen = np.empty((_SCREEN_ROWS, _CANDIDATE_CHUNK), dtype=np.float32)
    work = None
    size = top = 0
    rejections = 0
    threshold = eps * eps
    # float64 bounds, so the float32 maxima are compared in float64
    below = np.float64(1.0 - threshold / 2.0 - _SCREEN_MARGIN)
    above = np.float64(1.0 - threshold / 2.0 + _SCREEN_MARGIN)
    while rejections < stall_budget:
        chunk = sample_unit_vectors(d, _CANDIDATE_CHUNK, gen)
        if size:
            chunk32 = np.ascontiguousarray(chunk.T, dtype=np.float32)
            screened = _screen_max(buf32[:size], chunk32, screen)
            if np.all((screened < below) | (screened > above)):
                far = np.flatnonzero(screened < below)
            else:
                if work is None:
                    work = np.empty(_CANDIDATE_CHUNK * buf.shape[0])
                # 2x is exact and 2 - y rounds monotonically, so this is
                # min(2 - 2 * dots) > threshold, bit for bit
                dots = np.matmul(chunk, buf[:size].T,
                                 out=work[: _CANDIDATE_CHUNK * size].reshape(_CANDIDATE_CHUNK, size))
                far = np.flatnonzero(2.0 - 2.0 * np.max(dots, axis=1) > threshold)
        else:
            far = np.arange(_CANDIDATE_CHUNK)
        # Candidates near the old points are rejections, so only the far
        # ones are visited; `last` is the chunk position of the last one.
        last = -1
        for i in far.tolist():
            rejections += i - last - 1
            if rejections >= stall_budget:
                break
            last = i
            cand = chunk[i]
            if top > size and np.min(2.0 - 2.0 * (buf[size:top] @ cand)) <= threshold:
                rejections += 1
                continue
            if top == buf.shape[0]:
                buf = np.concatenate([buf, np.empty_like(buf)])
                buf32 = np.concatenate([buf32, np.empty_like(buf32)])
                work = None
            buf[top] = cand
            buf32[top] = cand
            top += 1
            rejections = 0
        else:
            rejections += _CANDIDATE_CHUNK - last - 1
        size = top
    return EpsNet(d, eps, buf[:size], mode="heuristic")

