from __future__ import annotations

import numpy as np
import pytest

from lorentzsvd._linalg import complete_g_frame, gram_eigenbasis, null_space_basis
from lorentzsvd.errors import DegenerateCompletion
from lorentzsvd.minkowski import G_METRIC

from conftest import rng


def test_null_space_known_rank():
    # rank-2 matrix with null space span{e2 - e1, e3}
    M = np.array(
        [
            [1.0, 1.0, 1.0, 0.0],
            [0.0, 2.0, 2.0, 0.0],
            [1.0, 3.0, 3.0, 0.0],
            [2.0, 0.0, 0.0, 0.0],
        ]
    )
    B = null_space_basis(M, 1e-12 * np.abs(M).max())
    assert B.shape == (4, 2)
    np.testing.assert_allclose(M @ B, 0.0, atol=1e-13)
    np.testing.assert_allclose(B.T @ B, np.eye(2), atol=1e-13)


def test_one_dimensional_kernel_is_one_unit_column():
    gen = rng(11)
    for _ in range(50):
        M = gen.normal(size=(4, 3)) @ gen.normal(size=(3, 4))
        B = null_space_basis(M, 1e-12 * np.abs(M).max())
        assert B.shape == (4, 1)
        assert abs(np.linalg.norm(B[:, 0]) - 1.0) <= 1e-15
        np.testing.assert_allclose(M @ B, 0.0, atol=1e-12 * np.abs(M).max())
        # it spans the kernel: the last right singular vector is parallel to it
        kernel = np.linalg.svd(M)[2][-1]
        assert abs(abs(kernel @ B[:, 0]) - 1.0) <= 1e-12


def test_two_dimensional_kernel_stays_orthonormal():
    gen = rng(13)
    for _ in range(50):
        M = gen.normal(size=(4, 2)) @ gen.normal(size=(2, 4))
        B = null_space_basis(M, 1e-12 * np.abs(M).max())
        assert B.shape == (4, 2)
        np.testing.assert_allclose(B.T @ B, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(M @ B, 0.0, atol=1e-12 * np.abs(M).max())


def test_null_space_full_rank_is_the_smallest_singular_direction():
    # a cut that keeps no direction returns the one of the smallest
    # singular value, never an empty basis
    B = null_space_basis(np.diag([4.0, 3.0, 2.0, 1.0]), 4e-12)
    assert B.shape == (4, 1)
    np.testing.assert_allclose(np.abs(B[:, 0]), [0.0, 0.0, 0.0, 1.0], rtol=0, atol=1e-15)


def test_null_space_threshold_is_absolute():
    # the cut is not rescaled by the matrix: a uniformly tiny matrix, with
    # singular values 3e-14 and 1e-14, keeps only its smallest singular
    # direction, (1, -1)/sqrt(2), below a cut at 1e-20 or between the two
    M = 1e-14 * np.array([[2.0, 1.0], [1.0, 2.0]])
    B = null_space_basis(M, 1e-20)
    assert B.shape == (2, 1)
    assert abs(B[0, 0] + B[1, 0]) <= 1e-15
    assert null_space_basis(M, 2e-14).shape == (2, 1)
    # and it is the whole space once the cut passes both
    assert null_space_basis(M, 1e-8).shape[1] == 2


def test_gram_eigenbasis_diagonalizes():
    gen = rng(7)
    for _ in range(20):
        V = gen.normal(size=(4, 3))
        gram, W = gram_eigenbasis(V)
        assert np.all(np.diff(gram) <= 1e-12)
        np.testing.assert_allclose(
            W.T @ G_METRIC @ W, np.diag(gram), atol=1e-12
        )


def test_complete_g_frame_builds_tetrad():
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    legs = complete_g_frame([e0], count=3)
    Y = np.vstack([e0] + legs)
    np.testing.assert_allclose(Y @ G_METRIC @ Y.T, G_METRIC, atol=1e-12)


def test_complete_g_frame_from_boosted_leg():
    t = np.array([np.cosh(0.8), 0.0, np.sinh(0.8), 0.0])
    legs = complete_g_frame([t], count=3)
    Y = np.vstack([t] + legs)
    np.testing.assert_allclose(Y @ G_METRIC @ Y.T, G_METRIC, atol=1e-12)


def test_complete_g_frame_exhausted():
    frame = [np.eye(4)[k] for k in range(4)]
    with pytest.raises(DegenerateCompletion):
        complete_g_frame(frame, count=1)
