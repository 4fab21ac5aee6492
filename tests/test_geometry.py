"""Steering geometry: closed-form ellipsoids and sampled surfaces.

Direction conventions matter here: the A-side arrow geometry (center on
the +z axis at 1 - r0) is the image of B-to-A steering on an A-pattern
correlation matrix, and mirror-wise for the B side.  The diagonal family
is symmetric, so both directions trace the same centered ellipsoid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzsvd.canonical import canonicalize
from lorentzsvd.errors import DegenerateProductGeometry
from lorentzsvd.geometry import (
    _CSV_CHUNK_ROWS,
    GeometryFamily,
    csv_chunks,
    ellipsoid_json_dict,
    fibonacci_sphere,
    points_to_csv,
    sample_steered_surface,
    steering_ellipsoid,
    surface_residuals,
)
from lorentzsvd.qstate import SteerDirection, lambda_from_rho, random_state, rho_from_lambda
from lorentzsvd.serialize import format_float


def type2_lambda(r0, r1):
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, r1, 0.0, 0.0],
            [0.0, 0.0, -r1, 0.0],
            [1.0 - r0, 0.0, 0.0, r0],
        ]
    )


WERNER_HALF = np.diag([1.0, -0.5, -0.5, -0.5])


def test_fibonacci_sphere_basics():
    pts = fibonacci_sphere(200)
    assert pts.shape == (200, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # deterministic and reasonably spread
    np.testing.assert_array_equal(pts, fibonacci_sphere(200))
    assert np.abs(pts.mean(axis=0)).max() < 0.05


def test_fibonacci_sphere_rejects_zero():
    with pytest.raises(ValueError):
        fibonacci_sphere(0)


def test_werner_sphere():
    res = canonicalize(rho_from_lambda(WERNER_HALF))
    ell = steering_ellipsoid(res)
    assert ell.family is GeometryFamily.TYPE_I
    np.testing.assert_allclose(ell.center, 0.0, atol=1e-15)
    np.testing.assert_allclose(ell.semi_axes, 0.5, atol=1e-12)
    for direction in (SteerDirection.A_TO_B, SteerDirection.B_TO_A):
        pts = sample_steered_surface(res.canonical_lambda, direction, 100)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 0.5, atol=1e-12)
        assert surface_residuals(pts, ell).max() < 1e-12


def test_type2_spheroid_reference():
    res = canonicalize(rho_from_lambda(type2_lambda(0.64, 0.6)))
    ell = steering_ellipsoid(res)
    assert ell.family is GeometryFamily.TYPE_II_A
    np.testing.assert_allclose(ell.center, [0.0, 0.0, 0.36], atol=1e-9)
    np.testing.assert_allclose(ell.semi_axes, [0.6, 0.6, 0.64], atol=1e-9)
    pts = sample_steered_surface(res.canonical_lambda, SteerDirection.B_TO_A, 100)
    assert surface_residuals(pts, ell).max() < 1e-12
    # the partner side has its own spheroid, reached by the other direction
    ell_b = steering_ellipsoid(res.partner)
    assert ell_b.family is GeometryFamily.TYPE_II_B
    pts_b = sample_steered_surface(
        res.partner.canonical_lambda, SteerDirection.A_TO_B, 100
    )
    assert surface_residuals(pts_b, ell_b).max() < 1e-10


def test_point_geometry():
    res = canonicalize(np.eye(4) / 4)
    ell = steering_ellipsoid(res)
    assert ell.family is GeometryFamily.POINT
    np.testing.assert_allclose(ell.semi_axes, 0.0, atol=1e-15)
    pts = sample_steered_surface(np.diag([1.0, 0.0, 0.0, 0.0]), "AtoB", 25)
    np.testing.assert_allclose(pts, 0.0, atol=1e-15)
    assert surface_residuals(pts, ell).max() < 1e-15


def test_segment_geometry_collinear():
    res = canonicalize(rho_from_lambda(type2_lambda(0.5, 0.0)))
    ell = steering_ellipsoid(res)
    np.testing.assert_allclose(ell.semi_axes, [0.0, 0.0, 0.5], atol=1e-12)
    pts = sample_steered_surface(res.canonical_lambda, SteerDirection.B_TO_A, 50)
    assert np.abs(pts[:, :2]).max() < 1e-12
    assert surface_residuals(pts, ell).max() < 1e-12
    assert pts[:, 2].min() >= -1e-12 and pts[:, 2].max() <= 1.0 + 1e-12


def test_degenerate_product_has_no_geometry():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(DegenerateProductGeometry):
        steering_ellipsoid(canonicalize(rho))


def fit_axis_aligned_ellipsoid(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares axis-aligned ellipsoid with center on the z axis.

    Fits alpha x^2 + beta y^2 + gamma z^2 + delta z = 1 and converts to
    (center, semi_axes).  Only meaningful for nondegenerate surfaces.
    """
    pts = np.asarray(points, dtype=float)
    design = np.column_stack([pts[:, 0] ** 2, pts[:, 1] ** 2, pts[:, 2] ** 2, pts[:, 2]])
    coef, *_ = np.linalg.lstsq(design, np.ones(len(pts)), rcond=None)
    alpha, beta, gamma, delta = coef
    z0 = -delta / (2.0 * gamma)
    kappa = 1.0 + gamma * z0 * z0
    semi = np.sqrt(kappa / np.array([alpha, beta, gamma]))
    return np.array([0.0, 0.0, z0]), semi


def test_least_squares_fit_recovers_parameters():
    cases = [
        (WERNER_HALF, SteerDirection.A_TO_B),
        (np.diag([1.0, 0.3, 0.2, 0.1]), SteerDirection.B_TO_A),
        (type2_lambda(0.64, 0.6), SteerDirection.B_TO_A),
    ]
    for lam, direction in cases:
        res = canonicalize(rho_from_lambda(lam))
        ell = steering_ellipsoid(res)
        pts = sample_steered_surface(res.canonical_lambda, direction, 500)
        center, semi = fit_axis_aligned_ellipsoid(pts)
        np.testing.assert_allclose(center, ell.center, atol=1e-6)
        np.testing.assert_allclose(np.sort(semi), np.sort(ell.semi_axes), atol=1e-6)


def test_steer_direction_uses_the_right_transpose():
    lam = np.array(
        [
            [1.0, 0.0, 0.0, 0.5],
            [0.0, 0.3, 0.0, 0.0],
            [0.0, 0.0, -0.3, 0.0],
            [0.1, 0.0, 0.0, 0.6],
        ]
    )
    x = fibonacci_sphere(7)[3]
    p = np.concatenate([[1.0], x])
    a_to_b = sample_steered_surface(lam, "AtoB", 7)[3]
    q = lam.T @ p
    np.testing.assert_allclose(a_to_b, q[1:] / q[0], atol=1e-14)
    b_to_a = sample_steered_surface(lam, "BtoA", 7)[3]
    q = lam @ p
    np.testing.assert_allclose(b_to_a, q[1:] / q[0], atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3, 4]),
       st.sampled_from(["AtoB", "BtoA"]))
def test_steered_points_stay_in_bloch_ball(seed, rank, direction):
    lam = lambda_from_rho(random_state(rank, seed=seed))
    pts = sample_steered_surface(lam, direction, 40)
    assert np.linalg.norm(pts, axis=1).max() <= 1.0 + 1e-9


def test_csv_emission_shape():
    text = points_to_csv(np.array([[0.5, -0.25, 1.0 / 3.0], [-0.0, 0.0, 1e-17]]))
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,z"
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "0.33333333333333331"
    # negative zero is normalized away
    assert lines[2].split(",")[0] == "0"


def test_csv_chunks_are_one_format_float_row_per_point():
    """Across chunk boundaries the rows read as one `format_float` row per
    point, and no chunk holds more than `_CSV_CHUNK_ROWS` rows."""
    pts = sample_steered_surface(lambda_from_rho(random_state(4, seed=3)), "BtoA",
                                 2 * _CSV_CHUNK_ROWS + 3)
    chunks = list(csv_chunks(pts))
    assert [c.count("\n") for c in chunks] == [1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS, 3]
    rows = "".join(",".join(map(format_float, row)) + "\n" for row in pts.tolist())
    assert "".join(chunks) == "x,y,z\n" + rows
    assert points_to_csv(pts) == "".join(chunks)


def test_ellipsoid_json_dict():
    res = canonicalize(rho_from_lambda(type2_lambda(0.64, 0.6)))
    blob = ellipsoid_json_dict(steering_ellipsoid(res))
    assert blob["family"] == "TypeII_A"
    assert blob["center"] == pytest.approx([0.0, 0.0, 0.36])
    assert blob["semiAxes"] == pytest.approx([0.6, 0.6, 0.64])
