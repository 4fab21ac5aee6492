"""Exact-coefficient quartic root finding for the indefinite eigenproblem.

det(Omega - lambda * G) is a quartic in lambda whose roots are the
eigenvalues of G @ Omega.  The coefficients come from principal minors
(exact multilinear expansion), the real roots from Sturm-chain
isolation and safeguarded Newton, and multiple roots from the truncated
tail of the chain (a numerical gcd of p and p').  A double root that the
chain misses is closed from the quadratic left after dividing out the
others, by the same truncation threshold applied to p's own rounding,
so no caller tolerance enters root finding.  General-purpose
nonsymmetric iteration is deliberately avoided: at the defective double
roots that characterize the non-diagonalizable family it produces
spurious complex pairs, while the chain degrades gracefully into a
cluster count.

Polynomials are coefficient lists in ascending order: c[k] <-> lambda^k.
They hold Python floats, not numpy arrays: with five coefficients every
numpy operation costs far more in call overhead than in arithmetic, and
the Sturm isolation evaluates thousands of them per solve.  The change
of representation is meant to be bit-exact: Python floats are IEEE
doubles, every helper performs the same multiplies, adds and divisions
in the same order as elementwise numpy would, and nothing is fused or
reassociated.  Only the public entry points take or return arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NumericalFailure
from .minkowski import SCALE_FLOOR

_EPS = float(np.finfo(float).eps)

#: leading coefficients at most this fraction of the largest one are
#: dropped, so a remainder's rounding residue does not pose as its degree
_TRIM_REL = 1e-12
#: a Sturm remainder whose coefficients all fall at or below this
#: (relative to the unit-normalized dividend) is zero: the chain ends at a
#: numerical gcd, i.e. p has a multiple root.  The remainder closure of
#: `quartic_real_roots` takes the same bound, relative to the size of the
#: quartic's terms, for a leftover root pair to be a double root
_STURM_TRUNC_REL = 1e-11
#: a cap only on the steps of one root refinement: safeguarded Newton
#: normally stops after a handful; its bisection steps alone would take
#: about 52 + log2(B) halvings of an isolating interval inside the root
#: bound [-B, B]
_REFINE_ITERS = 90
#: root refinement steps a left end that is an exact root of the
#: neighbouring interval by this fraction of max(width, 1), well beyond one
#: ulp; a step past the right end shows up as a missing bracket and is
#: handled there
_STEP_OFF_REL = 1e-12
#: a gcd-level quadratic whose discriminant is negative by at most this
#: fraction of its terms' size is a double root at its vertex.  The gcd
#: levels are only as exact as the chain truncation at `_STURM_TRUNC_REL`,
#: which moves the discriminant of a true double root by about that much
#: relative; this leaves a wide margin above it
_DISC_CLAMP_REL = 1e-8
#: isolation stops splitting an interval narrower than this fraction of
#: the Cauchy root bound (or 64 ulps of it), and reports the roots still
#: inside it as one cluster
_ISOLATION_FLOOR_REL = 1e-13

#: principal minors of det(omega - x*G) per coefficient k: (sign, kept
#: indices) for every k-subset S of deleted indices, in combinations
#: order; the sign is prod_{j in S} (-G_jj), i.e. -1 iff 0 is deleted
_MINORS = tuple(
    tuple(
        (-1.0 if 0 in S else 1.0, tuple(j for j in range(4) if j not in S))
        for S in combinations(range(4), k)
    )
    for k in range(5)
)


def _minor_det(m: list[list[float]], rows: tuple[int, ...], cols: tuple[int, ...]) -> float:
    """Determinant of m restricted to (rows, cols), by cofactor expansion
    along the first column: exact flop pattern for up to 4 indices."""
    n = len(rows)
    if n == 0:
        return 1.0
    if n == 1:
        return m[rows[0]][cols[0]]
    if n == 2:
        (r0, r1), (c0, c1) = rows, cols
        return m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]
    total = 0.0
    c0, rest = cols[0], cols[1:]
    for i, r in enumerate(rows):
        sign = -1.0 if i % 2 else 1.0
        total += sign * m[r][c0] * _minor_det(m, rows[:i] + rows[i + 1:], rest)
    return total


def charpoly_g(omega: np.ndarray) -> np.ndarray:
    """Coefficients (ascending) of p(x) = det(omega - x*G), G = diag(1,-1,-1,-1).

    Multilinearity in the columns gives
        c_k = sum over k-subsets S of {0..3} of
              prod_{j in S} (-G_jj) * det(omega with rows+cols S deleted),
    so every coefficient is a signed sum of principal minors.
    """
    m = np.asarray(omega, dtype=float).tolist()
    c = []
    for minors in _MINORS:
        acc = 0.0
        for sign, keep in minors:
            acc += sign * _minor_det(m, keep, keep)
        c.append(acc)
    return np.array(c)


def polyval(c: list[float], x: float) -> float:
    r = 0.0
    for ck in reversed(c):
        r = r * x + ck
    return r


def polyder(c: list[float]) -> list[float]:
    if len(c) <= 1:
        return [0.0]
    return [c[k] * k for k in range(1, len(c))]


def _absmax(c: list[float]) -> float:
    return max(map(abs, c))


def _trim(c: list[float]) -> list[float]:
    big = _absmax(c)
    if big == 0.0:
        return [0.0]
    k = len(c) - 1
    while k > 0 and abs(c[k]) <= _TRIM_REL * big:
        k -= 1
    return c[: k + 1]


def _polydiv(num: list[float], den: list[float]) -> tuple[list[float], list[float]]:
    den = _trim(den)
    dn, dd = len(num) - 1, len(den) - 1
    if dn < dd:
        return [0.0], list(num)
    quot = [0.0] * (dn - dd + 1)
    rem = list(num)
    for k in range(dn - dd, -1, -1):
        q = rem[k + dd] / den[dd]
        quot[k] = q
        for i, d in enumerate(den):
            rem[k + i] -= q * d
    return quot, rem[:dd] if dd > 0 else [0.0]


def _scaled(c: list[float], s: float) -> list[float]:
    return [v / s for v in c]


@dataclass
class SturmData:
    chain: list[list[float]]
    #: the chain ended early; its last element is then a numerical gcd
    truncated: bool


def sturm_chain(c: list[float]) -> SturmData:
    """Euclidean remainder chain of (p, p'), normalized elementwise.

    Remainders whose coefficients all fall below `_STURM_TRUNC_REL`
    (relative to the running dividend) are treated as zero; the chain then
    ends at a numerical gcd of p and p', whose roots are the multiple
    roots of p.
    """
    p0 = _scaled(c, _absmax(c))
    p1 = _trim(polyder(p0))
    p1 = _scaled(p1, _absmax(p1))
    chain = [p0, p1]
    truncated = False
    while len(chain[-1]) > 1:
        _, rem = _polydiv(chain[-2], chain[-1])
        rem = [-v for v in rem]
        mag = _absmax(rem)
        if mag <= _STURM_TRUNC_REL:
            truncated = True
            break
        chain.append(_trim(_scaled(rem, mag)))
    return SturmData(chain=chain, truncated=truncated)


def _variations(chain: list[list[float]], x: float) -> int:
    count, last = 0, 0.0
    for c in chain:
        v = polyval(c, x)
        if v != 0.0:
            if last != 0.0 and (v > 0.0) != (last > 0.0):
                count += 1
            last = v
    return count


def cauchy_bound(c: list[float]) -> float:
    c = _trim(c)
    return 1.0 + _absmax(c[:-1]) / abs(c[-1])


def _isolate(sd: SturmData, lo: float, hi: float, floor: float) -> list[tuple[float, float, int]]:
    """Intervals (a, b] holding n >= 1 distinct roots each, n = 1 unless b - a <= floor.

    The number of distinct roots in the half-open (a, b] is the drop in
    sign variations from a to b; each stack entry carries the variation
    counts of its ends, so every bisection point is evaluated once.
    """
    out: list[tuple[float, float, int]] = []
    stack = [(lo, hi, _variations(sd.chain, lo), _variations(sd.chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1 or (b - a) <= floor:
            out.append((a, b, n))
            continue
        mid = 0.5 * (a + b)
        vm = _variations(sd.chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    return sorted(out)


def _refine(c: list[float], a: float, b: float) -> float:
    """The one root of c in the isolating interval (a, b], by safeguarded
    Newton (the ``rtsafe`` scheme): each step is Newton's unless it would
    leave the bracket or fails to halve the step before last, and then it
    bisects; it stops once a step falls to a few ulps.
    """
    fb = polyval(c, b)
    if fb == 0.0:
        return b  # intervals are half-open (a, b]; a root at b belongs here
    fa = polyval(c, a)
    if fa == 0.0:
        # a is a root of the *neighbouring* interval; step off it
        a += max(b - a, 1.0) * _STEP_OFF_REL
        fa = polyval(c, a)
    if fa == 0.0:
        return a
    if fa * fb > 0.0:
        # no bracket (nudge overshot, or near-double smear): midpoint + Newton
        return _newton_polish(c, 0.5 * (a + b), steps=8)
    lo, hi = (a, b) if fa < 0.0 else (b, a)  # c(lo) < 0 < c(hi)
    d = polyder(c)
    x = 0.5 * (a + b)
    step = step_old = b - a
    for _ in range(_REFINE_ITERS):
        fx = polyval(c, x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        dx = polyval(d, x)
        if ((x - hi) * dx - fx) * ((x - lo) * dx - fx) > 0.0 or abs(2.0 * fx) > abs(step_old * dx):
            step_old, step = step, 0.5 * (hi - lo)
            x = lo + step
        else:
            step_old, step = step, fx / dx
            x -= step
        if abs(step) <= 4.0 * _EPS * max(1.0, abs(x)):
            break
    return x


def _real_roots_low_degree(q: list[float]) -> list[float]:
    """Real roots of a degree <= 2 polynomial; a barely-negative discriminant
    is clamped to a double root at the vertex."""
    q = _trim(q)
    if len(q) == 3:
        a0, a1, a2 = q
        disc = a1 * a1 - 4.0 * a2 * a0
        scale = max(a1 * a1, abs(4.0 * a2 * a0), SCALE_FLOOR)
        vertex = -a1 / (2.0 * a2)
        if disc < 0.0:
            if disc >= -_DISC_CLAMP_REL * scale:
                return [vertex, vertex]
            return []
        s = math.sqrt(disc) / (2.0 * abs(a2))
        return [vertex - s, vertex + s]
    if len(q) == 2:
        return [-q[0] / q[1]]
    return []


def _mean(g: list[float]) -> float:
    # left to right from 0.0, as np.mean sums fewer than 8 entries; sum()
    # compensates its rounding from Python 3.12 on
    total = 0.0
    for v in g:
        total += v
    return total / len(g)


@dataclass
class QuarticRoots:
    values: np.ndarray          # distinct roots, ascending
    multiplicities: np.ndarray  # matching multiplicities, sum = 4
    imag_residue: float         # imaginary scale absorbed when closing a near-complex pair


def quartic_real_roots(c: np.ndarray, cluster_radius: float) -> QuarticRoots:
    """All real roots (with multiplicity) of an exactly-quartic polynomial.

    cluster_radius: distinct refined roots closer than this merge into one.
    Roots the isolation misses leave a quadratic factor once the refined
    roots are divided out.  Its pair is a double root at the factor's
    vertex v when |c(v)| lies within the rounding bound of c at v
    (`_STURM_TRUNC_REL` times the size of c's terms there), whether the
    pair came out real or complex; otherwise a real pair is two simple
    roots and a complex pair raises NumericalFailure.  NumericalFailure
    also when the reconciled multiplicities do not add up to four.
    """
    c = np.asarray(c, dtype=float).tolist()
    scale = _absmax(c)
    if scale == 0.0:
        raise NumericalFailure("zero characteristic polynomial")
    c = _scaled(c, scale)

    # Square-free decomposition by repeated numerical gcd: levels[k+1] is the
    # gcd of levels[k] with its derivative, so a root of multiplicity m in p
    # survives into levels 0..m-1.  Multiplicities are read off this structure
    # instead of thresholded derivative values, which misjudge roots whose
    # residual sits just above an evaluation-error bound.
    levels: list[list[float]] = [c]
    sd = sturm_chain(c)
    while sd.truncated and len(sd.chain[-1]) > 1:
        gcd = sd.chain[-1]
        levels.append(_scaled(gcd, gcd[-1]))
        sd = sturm_chain(levels[-1])

    # Isolation must run on the square-free part: at a multiple root every
    # element of a truncated chain vanishes, breaking sign-variation counts.
    if len(levels) == 1:
        square_free, top_sd = c, sd
    else:
        square_free, _ = _polydiv(c, levels[1])
        square_free = _trim(_scaled(square_free, _absmax(square_free)))
        top_sd = sturm_chain(square_free)

    B = cauchy_bound(c)
    floor = max(_ISOLATION_FLOOR_REL * B, 64.0 * _EPS * B)
    intervals = _isolate(top_sd, -B, B, floor)

    # each gcd level contributes one extra multiplicity per real root of
    # its quotient by the next level
    level_roots: list[float] = []
    for k in range(1, len(levels)):
        quot = _trim(_polydiv(levels[k], levels[k + 1])[0]) if k + 1 < len(levels) else levels[k]
        level_roots.extend(_real_roots_low_degree(quot))

    roots: list[float] = []
    for a, b, n in intervals:
        if n == 1:
            roots.append(_refine(square_free, a, b))
        else:
            # width-floor cluster: several distinct roots we cannot split
            roots.append(0.5 * (a + b))

    # merge near-coincident refinements; group size seeds the multiplicity
    roots.sort()
    merged: list[list[float]] = []
    for r in roots:
        if merged and r - merged[-1][-1] <= cluster_radius:
            merged[-1].append(r)
        else:
            merged.append([r])
    centers = [_mean(g) for g in merged]
    mults = [len(g) for g in merged]

    # each gcd-level root adds one multiplicity to its nearest root
    if centers:
        for s in level_roots:
            i = min(range(len(centers)), key=lambda j: abs(centers[j] - s))
            mults[i] += 1

    # polish each root on the derivative matching its multiplicity
    polished = []
    for r, m in zip(centers, mults):
        poly = c
        for _ in range(m - 1):
            poly = polyder(poly)
        polished.append(_newton_polish(poly, r))
    centers = polished

    total = sum(mults)
    imag_residue = 0.0
    if total < 4:
        rem_poly = c
        for r, m in zip(centers, mults):
            for _ in range(m):
                rem_poly, _ = _polydiv(rem_poly, [-r, 1.0])
        rem_poly = _trim(rem_poly)
        if len(rem_poly) == 3:
            a0, a1, a2 = rem_poly
            disc = a1 * a1 - 4.0 * a2 * a0
            vertex = -a1 / (2.0 * a2)
            imag = math.sqrt(-disc) / (2.0 * abs(a2)) if disc < 0.0 else 0.0
            reach = max(1.0, abs(vertex))
            terms = sum(abs(ck) * reach ** k for k, ck in enumerate(c))
            if abs(polyval(c, vertex)) <= _STURM_TRUNC_REL * terms:
                imag_residue = imag
                centers.append(vertex)
                mults.append(2)
            elif disc >= 0.0:
                s = math.sqrt(disc) / (2.0 * a2)
                centers.extend([vertex - s, vertex + s])
                mults.extend([1, 1])
            else:
                raise NumericalFailure(f"complex eigenvalue pair with imaginary part {imag:.3e}")
        elif len(rem_poly) == 2:
            centers.append(-rem_poly[0] / rem_poly[1])
            mults.append(1)

    # Newton polish can pull two roots, and the closure can place a real
    # pair, within the cluster radius of each other: merge those
    out_r: list[float] = []
    out_m: list[int] = []
    for r, m in sorted(zip(centers, mults)):
        if out_r and r - out_r[-1] <= cluster_radius * max(1.0, abs(r)):
            tot = out_m[-1] + m
            out_r[-1] = (out_r[-1] * out_m[-1] + r * m) / tot
            out_m[-1] = tot
        else:
            out_r.append(r)
            out_m.append(m)
    if sum(out_m) != 4:
        raise NumericalFailure(
            f"root reconciliation gave multiplicities {out_m} at {out_r}, not four roots"
        )
    return QuarticRoots(
        values=np.array(out_r),
        multiplicities=np.array(out_m, dtype=int),
        imag_residue=imag_residue,
    )


def _newton_polish(poly: list[float], x: float, steps: int = 4) -> float:
    d = polyder(poly)
    for _ in range(steps):
        fx = polyval(poly, x)
        dx = polyval(d, x)
        if dx == 0.0:
            break
        step = fx / dx
        if not math.isfinite(step) or abs(step) > max(1.0, abs(x)):
            break
        x -= step
        if abs(step) <= 4.0 * _EPS * max(1.0, abs(x)):
            break
    return x
