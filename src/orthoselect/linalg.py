"""Dense small-matrix primitives: submatrices, spectra, coherence, Gram deviation.

Everything here is deterministic and operates on matrices whose columns are
unit vectors.  Spectra are computed by symmetric eigendecomposition of the
smaller of the two crossproduct matrices (Gram X^T X, or X X^T when there are
more columns than rows), which is exact enough for the desk-scale sizes this
package targets (|S| <= 64, n <= 10^3).  `unit_rows` is the package's one
check of a unit vector: matrix columns, net points and directions
(`select --v-file` included) all pass it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import InvalidIndex, InvalidInput

UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ColumnMatrix:
    """An n x p real matrix whose columns are unit vectors.

    The underlying array is made read-only at construction; all operations
    treat instances as immutable values, so they are safe to share between
    concurrent callers.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise InvalidInput(f"expected a 2-d array, got ndim={arr.ndim}")
        if arr.shape[0] < 1:
            raise InvalidInput("matrix must have at least one row")
        unit_rows(arr.T, arr.shape[0], "columns")
        object.__setattr__(self, "data", frozen(arr))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class IndexSet:
    """A strictly increasing tuple of column indices."""

    indices: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidIndex(f"indices must be strictly increasing, got {idx}")
        if idx and idx[0] < 0:
            raise InvalidIndex(f"indices must be nonnegative, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_iterable(cls, items: Iterable[int]) -> "IndexSet":
        return cls(tuple(sorted(set(int(i) for i in items))))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def validate_for(self, matrix: ColumnMatrix) -> None:
        if self.indices and self.indices[-1] >= matrix.p:
            raise InvalidIndex(
                f"index {self.indices[-1]} out of range for p={matrix.p}"
            )


def submatrix(matrix: ColumnMatrix, subset: IndexSet) -> ColumnMatrix:
    """Select the columns of `subset` in order; an empty subset gives a
    0-column matrix that the spectral operations below reject."""
    subset.validate_for(matrix)
    return ColumnMatrix(matrix.data[:, list(subset.indices)])


def _crossprod_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the smaller of A^T A / A A^T, ascending."""
    rows, cols = a.shape
    g = a.T @ a if cols <= rows else a @ a.T
    return np.linalg.eigvalsh(g)


def sigma_min(matrix: ColumnMatrix) -> float:
    """Smallest singular value of the column submatrix.

    When there are more columns than rows the columns are dependent and the
    result is 0 by rank; this is a value, not an error.
    """
    if matrix.p == 0:
        raise InvalidInput("sigma_min of an empty matrix")
    if matrix.p > matrix.n:
        return 0.0
    lam = _crossprod_eigvals(matrix.data)
    return float(np.sqrt(max(float(lam[0]), 0.0)))


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of an arbitrary real matrix."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.size == 0:
        raise InvalidInput("operator norm of an empty matrix")
    lam = _crossprod_eigvals(arr)
    return float(np.sqrt(max(float(lam[-1]), 0.0)))


def coherence(matrix: ColumnMatrix) -> float:
    """Max over distinct column pairs of |<X_j, X_j'>|, in [0, 1]."""
    if matrix.p < 2:
        raise InvalidInput("coherence needs at least two columns")
    gram = matrix.data.T @ matrix.data
    np.fill_diagonal(gram, 0.0)
    return float(min(np.max(np.abs(gram)), 1.0))


def gram_deviation(matrix: ColumnMatrix) -> float:
    """Operator norm of X_S^T X_S - I, the Gram matrix's distance to identity."""
    if matrix.p == 0:
        raise InvalidInput("gram deviation of an empty matrix")
    gram = matrix.data.T @ matrix.data
    h = gram - np.eye(matrix.p)
    lam = np.linalg.eigvalsh(h)
    return float(max(abs(float(lam[0])), abs(float(lam[-1]))))


def unit_rows(rows: np.ndarray, n: int, name: str = "directions") -> np.ndarray:
    """`rows` as a (count, n) float array of finite rows of unit norm within
    UNIT_NORM_TOL.  `name` (columns, net points, directions) labels the
    error, which gives the worst deviation (nan or inf if not finite)."""
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise InvalidInput(f"{name} must be a (count, {n}) array, got shape {arr.shape}")
    deviation = np.abs(np.sqrt(np.einsum("ij,ij->i", arr, arr)) - 1.0)
    if not np.all(deviation <= UNIT_NORM_TOL):
        raise InvalidInput(f"{name} must be finite with unit norm within {UNIT_NORM_TOL}; "
                           f"worst deviation {np.max(deviation):.3e}")
    return arr


def frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of `arr`."""
    out = arr.copy()
    out.flags.writeable = False
    return out


def inf_norm_against(matrix: ColumnMatrix, subset: IndexSet, v: np.ndarray) -> float:
    """Max over j in the subset of |<X_j, v>| for a unit direction v."""
    if len(subset) == 0:
        raise InvalidInput("inf_norm_against over an empty index set")
    vec = unit_rows(np.reshape(v, (1, -1)), matrix.n)[0]
    subset.validate_for(matrix)
    return float(np.max(np.abs(matrix.data[:, list(subset.indices)].T @ vec)))
