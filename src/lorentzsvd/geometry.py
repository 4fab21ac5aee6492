"""Steering-ellipsoid geometry of canonical two-qubit states.

The normalized correlation matrix maps one party's measurement directions
to the other party's conditional Bloch vectors.  On canonical forms that
image has closed-form geometry: a centered ellipsoid with semi-axes
sqrt(lambda_i/lambda_0) for the diagonal family, and a spheroid of
semi-axes (r1, r1, r0) centered at (0, 0, 1-r0) on the symmetry axis for
the arrow family.  This module emits those parameters and deterministic
sampled surfaces (Fibonacci sphere, no RNG) for external plotters.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .canonical import CanonicalResult, SideFamily
from .errors import DegenerateProductGeometry
from .qstate import SteerDirection, steer
from .serialize import format_float

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

#: a TypeI ellipsoid whose semi-axes (ratios, at most 1) are all at or
#: below this is a point: its correlation diagonal is zero up to rounding
_POINT_SEMI_AXIS = 1e-12

#: rows per formatting call of `csv_chunks`: a chunk's floats and text
#: take a few hundred kB, so a CSV is written without holding it whole
_CSV_CHUNK_ROWS = 4096


class GeometryFamily(Enum):
    TYPE_I = "TypeI"
    TYPE_II_A = "TypeII_A"
    TYPE_II_B = "TypeII_B"
    POINT = "Point"


@dataclass(frozen=True)
class SteeringEllipsoid:
    """Steering ellipsoid of a canonical state, whose axes are the Bloch
    axes: canonical forms are already axis-aligned."""

    center: np.ndarray
    semi_axes: np.ndarray
    family: GeometryFamily


def steering_ellipsoid(result: CanonicalResult) -> SteeringEllipsoid:
    """Closed-form steering geometry of a canonical factorization result."""
    if result.family is SideFamily.DEGENERATE_PRODUCT:
        raise DegenerateProductGeometry(
            "the degenerate product family has no steering ellipsoid"
        )
    if result.family is SideFamily.TYPE_I:
        semi = np.abs(np.diag(result.canonical_lambda)[1:])
        center = np.zeros(3)
        family = GeometryFamily.POINT if np.all(semi <= _POINT_SEMI_AXIS) else GeometryFamily.TYPE_I
    else:
        p = result.parameters
        if result.family is SideFamily.TYPE_II_A:
            p0, p1 = p["r0"], p["r1"]
            family = GeometryFamily.TYPE_II_A
        else:
            p0, p1 = p["s0"], p["s1"]
            family = GeometryFamily.TYPE_II_B
        semi = np.array([p1, p1, p0])
        center = np.array([0.0, 0.0, 1.0 - p0])
    return SteeringEllipsoid(center=center, semi_axes=semi, family=family)


def fibonacci_sphere(count: int) -> np.ndarray:
    """`count` quasi-uniform unit vectors; deterministic in the count."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    n = np.arange(count)
    z = 1.0 - (2.0 * n + 1.0) / count
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    theta = _GOLDEN_ANGLE * n
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])


def sample_steered_surface(
    lam: np.ndarray,
    direction: SteerDirection | str,
    count: int,
) -> np.ndarray:
    """Conditional Bloch vectors steered through lam, one per sphere sample.

    Each unit vector x becomes the neutral probe p = (1, x), all of them
    steered as one stack; each steered output is renormalized by its time
    component, whose positivity is enforced inside steer().
    """
    q = steer(lam, np.column_stack([np.ones(count), fibonacci_sphere(count)]), direction)
    return q[:, 1:] / q[:, :1]


def surface_residuals(points: np.ndarray, ellipsoid: SteeringEllipsoid) -> np.ndarray:
    """Per-point defect of the implicit surface equation.

    For a nondegenerate ellipsoid this is |quadratic form - 1|.  When a
    semi-axis collapses to zero the surface equation degenerates (the
    image fills a segment or point rather than tracing a boundary), so
    the residual becomes the absolute offset along the collapsed axes.
    """
    rel = np.atleast_2d(points) - ellipsoid.center
    live = ellipsoid.semi_axes > 0.0
    if not np.all(live):
        return np.abs(rel[:, ~live]).sum(axis=1)
    quad = np.sum((rel / ellipsoid.semi_axes) ** 2, axis=1)
    return np.abs(quad - 1.0)


def csv_chunks(points: np.ndarray) -> Iterator[str]:
    """An x,y,z header, then one row per point, each value as
    `format_float` writes it, in chunks of `_CSV_CHUNK_ROWS` rows, one
    formatting call each.  The first value that is not finite, in row
    order, is refused as `format_float` refuses it, before any chunk is
    made."""
    grid = np.atleast_2d(np.asarray(points, dtype=float))
    finite = np.isfinite(grid)
    if not finite.all():
        format_float(grid[~finite][0])
    line = ",".join(["%.17g"] * grid.shape[1]) + "\n"
    # adding 0.0 folds -0.0 into 0.0, which format_float writes as "0"
    blocks = (grid[i:i + _CSV_CHUNK_ROWS] + 0.0 for i in range(0, len(grid), _CSV_CHUNK_ROWS))
    return itertools.chain(["x,y,z\n"], (line * len(b) % tuple(b.ravel().tolist()) for b in blocks))


def points_to_csv(points: np.ndarray) -> str:
    """The whole CSV of `csv_chunks` as one string."""
    return "".join(csv_chunks(points))


def ellipsoid_json_dict(ellipsoid: SteeringEllipsoid) -> dict:
    return {
        "family": ellipsoid.family.value,
        "center": [float(v) for v in ellipsoid.center],
        "semiAxes": [float(v) for v in ellipsoid.semi_axes],
    }
