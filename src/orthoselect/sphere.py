"""Uniform sampling on the unit sphere and eps-net construction.

Randomness is drawn from counter-based Philox streams keyed by a
(master seed, stream index) pair, so any consumer can be replayed exactly and
distinct stream indices can be consumed concurrently without coordination.
`RngStream.generator()` builds a new Philox for one stream; `TrialStreams`
serves the streams (seed, 0), (seed, 1), ... of an audit's trials from one
Philox whose key it resets, which yields the same numbers for less work.

`build_eps_net` judges uniform candidates in chunks: one product per chunk
finds the few candidates far from every earlier point, and only those are
visited one at a time.  Every chunk's product is written into one reused
workspace, which grows only when the point buffer does, so a build maps new
memory a handful of times rather than once per chunk.  The net stops growing
after a run of rejections, so it is not proven to cover the sphere to
radius eps.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .linalg import ColumnMatrix

NET_DIMENSION_CAP = 8
_CANDIDATE_CHUNK = 512
_KEY_MASK = 0xFFFFFFFFFFFFFFFF
# Reserved stream index of the certificate nets of `gamma` and the theorem
# audit, clear of the audits' trial streams (0..trials-1).
_STREAM_NET = (1 << 48) + 1
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


def sample_unit_vector(n: int, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Uniform point on S^{n-1}: a standard Gaussian vector, normalized."""
    if n < 1:
        raise InvalidInput("dimension must be at least 1")
    gen = _as_generator(rng)
    while True:
        g = gen.standard_normal(n)
        norm = float(np.linalg.norm(g))
        if norm > MIN_DRAW_NORM:
            return g / norm


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


def sample_sphere_matrix(n: int, p: int, rng: RngStream | np.random.Generator) -> ColumnMatrix:
    """Matrix with p i.i.d. columns uniform on S^{n-1}."""
    if n < 1 or p < 1:
        raise InvalidInput("n and p must be at least 1")
    return ColumnMatrix(sample_unit_vectors(n, p, rng).T)


@dataclass(frozen=True)
class EpsNet:
    """A finite eps-separated set of unit vectors in R^d.

    Maximal eps-separated sets cover the sphere to radius eps, so a net built
    to (approximate) maximality doubles as an eps-net.  `mode` records whether
    maximality is exact (d = 1) or stall-budget heuristic.
    """

    dimension: int
    epsilon: float
    points: np.ndarray
    mode: str = field(default="heuristic")

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise InvalidInput("net points must be a (count, dimension) array")
        norms = np.linalg.norm(pts, axis=1)
        if pts.shape[0] and float(np.max(np.abs(norms - 1.0))) > 1e-9:
            raise InvalidInput("net points must be unit vectors")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def separation_ok(self) -> bool:
        """O(|N|^2) check that pairwise distances exceed epsilon."""
        pts = self.points
        if len(self) < 2:
            return True
        gram = pts @ pts.T
        d2 = 2.0 - 2.0 * gram
        np.fill_diagonal(d2, np.inf)
        return bool(np.min(d2) > self.epsilon * self.epsilon)

    def covering_radius_of(self, probes: np.ndarray) -> float:
        """Largest distance from any probe row to its nearest net point."""
        dots = probes @ self.points.T
        best = np.max(dots, axis=1)
        return float(np.sqrt(np.max(np.maximum(2.0 - 2.0 * best, 0.0))))

    def descriptor(self) -> dict:
        return {
            "dimension": self.dimension,
            "epsilon": self.epsilon,
            "size": len(self),
            "mode": self.mode,
        }


def net_cardinality_bound(d: int, eps: float) -> float:
    """The existence bound 2d(1+2/eps)^(d-1); reported, never enforced."""
    return 2.0 * d * (1.0 + 2.0 / eps) ** (d - 1)


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

    Candidates come in chunks of _CANDIDATE_CHUNK.  One product per chunk
    against the points accepted before it marks the candidates far from all
    of them; the others are rejections, counted by position, and each far
    one is then checked against the points accepted earlier in its chunk.
    The product goes into a C-contiguous view of one workspace sized for the
    whole point buffer, so it is the same gemm on the same operands as a
    fresh `chunk @ points.T`, without a new mapping per chunk.
    """
    if d < 1:
        raise InvalidInput("dimension must be at least 1")
    if not 0.0 < eps < 2.0:
        raise InvalidInput("epsilon must lie in (0, 2), the sphere's diameter")
    if stall_budget < 1:
        raise InvalidInput("stall budget must be at least 1")
    if d > NET_DIMENSION_CAP:
        raise InvalidInput(f"net construction is capped at d={NET_DIMENSION_CAP}")
    if d == 1:
        return EpsNet(1, eps, np.array([[-1.0], [1.0]]), mode="exact")

    gen = _as_generator(rng)
    # The accepted points are the first `top` rows of a C-contiguous buffer;
    # the first `size` of them were accepted before the current chunk.
    buf = np.empty((_CANDIDATE_CHUNK, d))
    work = np.empty(_CANDIDATE_CHUNK * buf.shape[0])
    size = top = 0
    rejections = 0
    threshold = eps * eps
    while rejections < stall_budget:
        chunk = sample_unit_vectors(d, _CANDIDATE_CHUNK, gen)
        if size:
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
                work = np.empty(_CANDIDATE_CHUNK * buf.shape[0])
            buf[top] = cand
            top += 1
            rejections = 0
        else:
            rejections += _CANDIDATE_CHUNK - last - 1
        size = top
    return EpsNet(d, eps, buf[:size], mode="heuristic")

