import math

import numpy as np
import pytest

from orthoselect import (
    ColumnMatrix,
    IndexSet,
    InvalidIndex,
    InvalidInput,
    coherence,
    gram_deviation,
    inf_norm_against,
    operator_norm,
    sigma_min,
    submatrix,
)
from orthoselect.linalg import UNIT_NORM_TOL, unit_rows
from orthoselect.sphere import (EpsNet, RngStream, sample_sphere_matrix, sample_unit_vector,
                                sample_unit_vectors)

from oracles import power_iteration_norm


def two_columns_at_angle(theta: float, n: int = 3) -> ColumnMatrix:
    a = np.zeros(n)
    a[0] = 1.0
    b = np.zeros(n)
    b[0] = math.cos(theta)
    b[1] = math.sin(theta)
    return ColumnMatrix(np.column_stack([a, b]))


def test_column_matrix_rejects_non_unit_columns():
    with pytest.raises(InvalidInput):
        ColumnMatrix(np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_column_matrix_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        data = np.eye(3)
        data[1, 2] = bad
        with pytest.raises(InvalidInput):
            ColumnMatrix(data)


def test_inf_norm_against_rejects_non_finite_direction():
    x = ColumnMatrix(np.eye(3))
    with pytest.raises(InvalidInput):
        inf_norm_against(x, IndexSet((0, 1)), np.array([math.nan, 0.0, 0.0]))


def test_column_matrix_is_immutable():
    m = ColumnMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


def test_index_set_validation():
    assert IndexSet((0, 2, 5)).indices == (0, 2, 5)
    assert IndexSet.from_iterable([5, 0, 2, 2]).indices == (0, 2, 5)
    with pytest.raises(InvalidIndex):
        IndexSet((2, 2))
    with pytest.raises(InvalidIndex):
        IndexSet((-1, 0))


def test_submatrix_identity_case():
    x = ColumnMatrix(np.eye(3))
    sub = submatrix(x, IndexSet((0, 2)))
    assert np.array_equal(sub.data, np.eye(3)[:, [0, 2]])


def test_submatrix_empty_gives_zero_columns_and_downstream_rejects():
    x = ColumnMatrix(np.eye(3))
    empty = submatrix(x, IndexSet(()))
    assert empty.p == 0
    with pytest.raises(InvalidInput):
        sigma_min(empty)
    with pytest.raises(InvalidInput):
        gram_deviation(empty)


def test_submatrix_elementwise():
    x = sample_sphere_matrix(4, 10, RngStream(101, 0))
    sub = submatrix(x, IndexSet((1, 3, 7)))
    for out_col, src_col in enumerate((1, 3, 7)):
        assert np.array_equal(sub.data[:, out_col], x.data[:, src_col])


def test_submatrix_rejects_out_of_range():
    x = ColumnMatrix(np.eye(3))
    with pytest.raises(InvalidIndex):
        submatrix(x, IndexSet((0, 3)))


def test_sigma_min_orthonormal_and_duplicate():
    assert sigma_min(ColumnMatrix(np.eye(4))) == pytest.approx(1.0, abs=1e-12)
    dup = ColumnMatrix(np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 0]]))
    assert sigma_min(dup) == pytest.approx(0.0, abs=1e-7)


def test_sigma_min_angle_closed_form():
    gen = np.random.Generator(np.random.PCG64(7))
    for _ in range(50):
        theta = gen.uniform(0.05, math.pi - 0.05)
        m = two_columns_at_angle(theta)
        assert sigma_min(m) == pytest.approx(math.sqrt(1.0 - abs(math.cos(theta))), abs=1e-10)


def test_sigma_min_more_columns_than_rows_is_zero():
    x = sample_sphere_matrix(3, 6, RngStream(5, 0))
    assert sigma_min(x) == 0.0


def test_operator_norm_trivial_cases():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    u = np.array([0.6, 0.8, 0.0])
    v = np.array([0.0, 1.0])
    assert operator_norm(np.outer(u, v)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidInput):
        operator_norm(np.zeros((0, 3)))


def test_operator_norm_matches_power_iteration():
    gen = np.random.Generator(np.random.PCG64(11))
    for _ in range(20):
        a = gen.standard_normal((5, 8))
        assert operator_norm(a) == pytest.approx(power_iteration_norm(a), abs=1e-8)


def test_operator_norm_monotone_under_column_addition():
    x = sample_sphere_matrix(5, 12, RngStream(21, 0))
    norms = [operator_norm(x.data[:, : k + 1]) for k in range(12)]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


def test_coherence_trivial_and_brute_force():
    assert coherence(ColumnMatrix(np.eye(4))) == 0.0
    dup = np.column_stack([np.eye(3), np.eye(3)[:, 1]])
    assert coherence(ColumnMatrix(dup)) == pytest.approx(1.0, abs=1e-12)
    x = sample_sphere_matrix(6, 20, RngStream(33, 0))
    brute = max(
        abs(float(x.data[:, i] @ x.data[:, j]))
        for i in range(20)
        for j in range(20)
        if i != j
    )
    assert coherence(x) == pytest.approx(brute, abs=1e-12)
    with pytest.raises(InvalidInput):
        coherence(ColumnMatrix(np.eye(3)[:, :1]))


def test_gram_deviation_cases():
    assert gram_deviation(ColumnMatrix(np.eye(4))) == pytest.approx(0.0, abs=1e-12)
    theta = 1.1
    assert gram_deviation(two_columns_at_angle(theta)) == pytest.approx(
        abs(math.cos(theta)), abs=1e-12
    )


def test_gram_deviation_spectral_sandwich():
    # |1 - sigma_min^2| <= |G - I| on random submatrices of random sizes
    gen = np.random.Generator(np.random.PCG64(55))
    for _ in range(200):
        n = int(gen.integers(2, 8))
        p = int(gen.integers(1, 7))
        x = sample_sphere_matrix(n, p, gen)
        dev = gram_deviation(x)
        smin = sigma_min(x)
        assert abs(1.0 - smin * smin) <= dev + 1e-10
        assert smin * smin <= 1.0 + dev + 1e-10


def test_coherence_equals_max_pairwise_gram_deviation():
    x = sample_sphere_matrix(5, 9, RngStream(66, 0))
    pairwise = max(
        gram_deviation(submatrix(x, IndexSet((i, j))))
        for i in range(9)
        for j in range(i + 1, 9)
    )
    assert coherence(x) == pytest.approx(pairwise, abs=1e-12)


def test_inf_norm_against():
    x = ColumnMatrix(np.eye(3))
    v = np.array([1.0, 0.0, 0.0])
    assert inf_norm_against(x, IndexSet((1, 2)), v) == pytest.approx(0.0, abs=1e-15)
    assert inf_norm_against(x, IndexSet((0,)), v) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvalidInput):
        inf_norm_against(x, IndexSet(()), v)
    with pytest.raises(InvalidInput):
        inf_norm_against(x, IndexSet((0,)), np.array([2.0, 0.0, 0.0]))


def test_inf_norm_against_matches_loop_oracle():
    x = sample_sphere_matrix(5, 11, RngStream(77, 0))
    v = sample_unit_vector(5, RngStream(78, 0))
    subset = IndexSet((0, 3, 4, 9))
    expected = max(abs(float(x.data[:, j] @ v)) for j in subset)
    assert inf_norm_against(x, subset, v) == pytest.approx(expected, abs=1e-14)


def test_unit_rows_accepts_norms_within_the_tolerance_and_rejects_the_rest():
    v = sample_unit_vectors(4, 1000, RngStream(79, 0))
    assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) < 1e-15)
    for scale in (1.0, 1.0 + 0.9 * UNIT_NORM_TOL, 1.0 - 0.9 * UNIT_NORM_TOL):
        got = unit_rows(v * scale, 4)
        assert np.array_equal(got, v * scale)
        assert got.dtype == np.float64 and got.shape == (1000, 4)
    assert unit_rows(np.zeros((0, 4)), 4).shape == (0, 4)
    assert np.array_equal(unit_rows([[0, 1, 0, 0]], 4), [[0.0, 1.0, 0.0, 0.0]])
    for scale in (1.0 + 1.1 * UNIT_NORM_TOL, 1.0 - 1.1 * UNIT_NORM_TOL):
        for row in (0, 517, 999):  # one bad row anywhere fails the batch
            bad = v.copy()
            bad[row] *= scale
            with pytest.raises(InvalidInput):
                unit_rows(bad, 4)
    for value in (math.nan, math.inf, -math.inf):
        bad = v.copy()
        bad[3, 1] = value
        with pytest.raises(InvalidInput):
            unit_rows(bad, 4)
    bad = v.copy()
    bad[5] = 0.0
    with pytest.raises(InvalidInput):
        unit_rows(bad, 4)
    for shape in ((1000, 3), (1000, 5), (4,), (1, 1, 4)):  # unit rows of the wrong shape
        with pytest.raises(InvalidInput):
            unit_rows(np.full(shape, 1.0 / math.sqrt(shape[-1])), 4)


# each stored unit vector, as the rows its check sees, and the kind its
# error names
_UNIT_CHECKS = {
    "columns": lambda rows: ColumnMatrix(np.asarray(rows).T).data.T,
    "net points": lambda rows: EpsNet(4, 0.5, rows).points,
    "directions": lambda rows: unit_rows(rows, 4),
}


@pytest.mark.parametrize("kind", list(_UNIT_CHECKS))
def test_columns_net_points_and_directions_pass_the_one_unit_check(kind):
    check = _UNIT_CHECKS[kind]
    v = sample_unit_vectors(4, 100, RngStream(80, 0))
    for scale in (1.0 + 0.9 * UNIT_NORM_TOL, 1.0 - 0.9 * UNIT_NORM_TOL):
        assert np.array_equal(check(v * scale), v * scale)
    refused = f"{kind} must be finite with unit norm within 1e-09; worst deviation "
    for value, worst in ((1.0 + 1.1 * UNIT_NORM_TOL, r"1\.100e-09"),
                         (1.0 - 1.1 * UNIT_NORM_TOL, r"1\.100e-09"),
                         (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "inf")):
        bad = v.copy()
        if math.isfinite(value):
            bad[37] *= value
        else:
            bad[37, 2] = value
        with pytest.raises(InvalidInput, match=f"^{refused}{worst}$"):
            check(bad)
    # a matrix of any row count is valid, but not one of no rows (the rows
    # seen here are its columns)
    shapes = ((4,), (1, 1, 4), (4, 0)) if kind == "columns" else ((100, 3), (100, 5), (4,),
                                                                  (1, 1, 4))
    for shape in shapes:
        with pytest.raises(InvalidInput):
            check(np.full(shape, 0.5))
