"""Executable certificates and bound checks.

The non-density certificate turns the harmonic-majorant argument into a
finite procedure: given an exponent p and a norm budget M it produces
constants (C_p, C_1), a verified threshold Y past which the exponential gap
inequality holds, and a positive lower bound epsilon0_sq for the squared
distance from cos(z/2) to every polynomial within the budget. The other
operations check proven inequalities (Poisson sandwich, potential mass
bounds, mean-value evaluation bounds) at sampled points; a failure there
signals a numerical bug, not new mathematics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolated,
    InvalidParameters,
    MassTooLarge,
    NoValidY,
    OutOfRange,
    ToleranceNotMet,
)
from .geometry import ArcRegion, Disc, Moon, TruncatedPlane, boundary_distance, contains
from .quad import integrate, integrate_1d, truncation_tail, weighted_norm_sq
from .weights import ImAbsPlusPower, LogPotential, quadrature_points

LOG4 = math.log(4.0)


def cp_constant(p: float) -> float:
    """2 / cos(p pi / 2), the upper Poisson sandwich constant."""
    if not 0.0 < p < 1.0:
        raise OutOfRange(f"exponent must lie in (0, 1), got {p}")
    return 2.0 / math.cos(0.5 * math.pi * p)


def poisson_extension(p: float, x: float, y: float, tol: float = 1e-9) -> float:
    """Harmonic extension of |t|^p to the upper half plane at x + iy.

    Computes (1/pi) * int |x + y tau|^p / (1 + tau^2) dtau: a finite panel
    around the kink at tau = -x/y plus two exact tail substitutions u = 1/tau
    whose u^-p endpoint singularity is handled by a geometric ladder and an
    analytic remainder.
    """
    if not 0.0 < p < 1.0:
        raise OutOfRange(f"exponent must lie in (0, 1), got {p}")
    if not y > 0:
        raise OutOfRange(f"the extension lives in the upper half plane, y > 0; got {y}")
    x = abs(float(x))
    T = 2.0 * max(1.0, x / y)

    def body(tau):
        return np.abs(x + y * tau) ** p / (1.0 + tau * tau)

    # |x + y tau|^p has a cusp at tau = -x/y; grade panels dyadically into it
    kink = -x / y
    edges = {-T, kink, 0.0, 0.5 * T, T}
    for k in range(1, 49):
        for side in (1.0, -1.0):
            pt = kink + side * T * 2.0**-k
            if -T < pt < T:
                edges.add(pt)
    body_val, body_err = integrate_1d(body, sorted(edges), tol=tol / 4.0)

    # remainder of each tail below u_min, bounded analytically
    u_cap = 1.0 / T
    c_tail = (y + x * u_cap) ** p
    u_min = min(u_cap / 2.0, (tol * (1.0 - p) / (8.0 * c_tail)) ** (1.0 / (1.0 - p)))
    ladder = [u_min]
    while ladder[-1] < u_cap:
        ladder.append(min(u_cap, ladder[-1] * 2.0))
    tail_val = 0.0
    tail_err = 2.0 * c_tail * u_min ** (1.0 - p) / (1.0 - p)
    for sign in (1.0, -1.0):

        def tail(u, sign=sign):
            return np.abs(x * u + sign * y) ** p * u ** (-p) / (1.0 + u * u)

        v, e = integrate_1d(tail, ladder, tol=tol / 8.0)
        tail_val += v
        tail_err += e

    err = (body_err + tail_err) / math.pi
    if err > tol:
        raise ToleranceNotMet(
            f"Poisson integral error {err:.3e} above tol {tol:.3e}",
            (body_val + tail_val) / math.pi,
            err,
        )
    return (body_val + tail_val) / math.pi


def poisson_bounds_check(p: float, samples, tol: float = 1e-9) -> dict:
    """Verify the sandwich |z|^p / 4 < U(x+iy) < C_p |z|^p at every sample.

    Returns the tightest observed margins; raises BoundViolated on any
    failure (the sandwich is proven, so a violation means a quadrature bug).
    """
    cp = cp_constant(p)
    samples = list(samples)
    lower_margin = math.inf
    upper_margin = math.inf
    for x, y in samples:
        u = poisson_extension(p, x, y, tol)
        mod_p = abs(complex(x, y)) ** p
        lo, hi = 0.25 * mod_p, cp * mod_p
        if not lo + tol < u < hi - tol:
            raise BoundViolated(
                f"Poisson sandwich failed at x={x}, y={y}: {lo} < {u} < {hi}", sample=(x, y)
            )
        lower_margin = min(lower_margin, u / lo)
        upper_margin = min(upper_margin, hi / u)
    return {
        "p": p,
        "n_samples": len(samples),
        "min_lower_margin": lower_margin,
        "min_upper_margin": upper_margin,
        "violations": 0,
    }


def _domain_area(domain) -> float:
    if isinstance(domain, Disc):
        return math.pi * domain.radius**2
    if isinstance(domain, TruncatedPlane):
        return math.pi * domain.R**2
    if isinstance(domain, Moon):
        return math.pi * (domain.outer.radius**2 - domain.inner.radius**2)
    if isinstance(domain, ArcRegion):
        val, _ = integrate(domain, lambda z: np.ones(z.shape), (), 1e-9)
        return val.real
    raise InvalidParameters(f"no area rule for {type(domain).__name__}")


@dataclass
class PotentialMassBound:
    """Product-potential integral against its sharp bounds.

    radial_bound is the bare radial profile integral R^(2-a)/(2-a) (no
    angular factor); lebesgue_bound is the sharp constant under the standard
    Lebesgue measure, 2 pi times larger. Only the latter is asserted.
    """

    integral: float
    err: float
    radial_bound: float
    lebesgue_bound: float


def potential_mass_bound(alphas, points, A, tol: float = 1e-8, **kw) -> PotentialMassBound:
    """Integral over A of prod |z - z_i|^(-alpha_i) with its mass bounds.

    The bounds use the radius R of the disc with A's area: the radial
    profile integral R^(2-a)/(2-a) and the sharp bound under the standard
    Lebesgue measure, 2 pi R^(2-a)/(2-a). Only the sharp bound is asserted;
    both are reported.
    """
    if len(alphas) != len(points):
        raise InvalidParameters(f"{len(alphas)} masses for {len(points)} points")
    # LogPotential rejects a mass <= 0 and gives each point its order
    w = LogPotential(tuple(zip(points, alphas)))
    total = sum(a for _, a in w.atoms)
    if total >= 2.0:
        raise MassTooLarge(f"total mass {total} is >= 2, the potential is not integrable")

    def g(z):
        acc = np.ones(z.shape)
        for zi, ai in w.atoms:
            acc = acc * np.abs(z - zi) ** (-ai)
        return acc

    value, err = integrate(A, g, quadrature_points(w), tol, **kw)
    integral = value.real
    R = math.sqrt(_domain_area(A) / math.pi)
    radial_bound = R ** (2.0 - total) / (2.0 - total)
    lebesgue_bound = 2.0 * math.pi * radial_bound
    if integral - err > lebesgue_bound * (1.0 + 1e-9):
        raise BoundViolated(
            f"mass integral {integral} exceeds the sharp bound {lebesgue_bound}"
        )
    return PotentialMassBound(integral, err, radial_bound, lebesgue_bound)


@dataclass
class NonDensityCertificate:
    """Constants certifying a positive floor under polynomial approximation.

    Semantics: every polynomial P with ||cos(z/2) - P|| <= 1 in the weighted
    norm with exponent p and norm budget M >= 1 + ||cos(z/2)|| satisfies
    ||cos(z/2) - P||^2 >= epsilon0_sq, hence the infimum over all polynomials
    is >= min(1, epsilon0_sq) > 0. log_epsilon0_sq is its natural log, which
    stays finite where epsilon0_sq underflows to 0.0 (p = 0.7, M = 10);
    underflow flags that case, in which only the log carries the floor.
    """

    p: float
    M: float
    C_p: float
    C_1: float
    Y: float
    epsilon0_sq: float
    gap_samples: int
    log_epsilon0_sq: float
    underflow: bool

    def gap(self, r):
        """r/4 - log(1 + 4 exp(C_1 + C_p r^p)); positive for all r >= Y."""
        return _gap(r, self.p, self.C_p, self.C_1)


def _gap(r, p, c_p, c_1):
    """The certificate's gap r/4 - log(1 + 4 exp(c_1 + c_p r^p))."""
    r = np.asarray(r, dtype=float)
    return 0.25 * r - np.logaddexp(0.0, c_1 + c_p * r**p + LOG4)


_Y_CAP = 1e6


def nondensity_certificate(p: float, M: float) -> NonDensityCertificate:
    """Build and verify the certificate for exponent p and norm budget M.

    Y is the smallest verified threshold > 1 past which the gap inequality
    holds: beyond the stationary point r* = (4 C_p p)^(1/(1-p)) the gap is
    increasing, and on [Y, r*] positivity is checked on a dense log grid with
    the last sign change refined by bisection. Raises NoValidY if no
    threshold below 1e6 works.
    """
    if not 0.0 < p < 1.0:
        raise OutOfRange(f"exponent must lie in (0, 1), got {p}")
    if not M > 1.0:
        raise OutOfRange(f"norm budget must exceed 1, got {M}")
    c_p = cp_constant(p)
    c_1 = math.log(M) + 1.0 - 0.5 * math.log(math.pi)

    def gap(r):
        return _gap(r, p, c_p, c_1)

    try:
        r_star = (4.0 * c_p * p) ** (1.0 / (1.0 - p))
    except OverflowError:
        r_star = math.inf
    hi = max(10.0 * r_star, 10.0)
    if hi > _Y_CAP or gap(_Y_CAP) <= 0:
        raise NoValidY(f"gap inequality not achievable below the cap {_Y_CAP:.1e}")
    while gap(hi) <= 0:
        hi *= 2.0
        if hi > _Y_CAP:
            raise NoValidY(f"gap inequality not achievable below the cap {_Y_CAP:.1e}")

    grid = np.exp(np.linspace(0.0, math.log(hi), 200_001))
    vals = gap(grid)
    nonpos = np.flatnonzero(vals <= 0)
    if nonpos.size == 0:
        y = 1.0 + 1e-9
    else:
        lo_i = nonpos[-1]
        a, b = grid[lo_i], grid[min(lo_i + 1, len(grid) - 1)]
        for _ in range(200):
            mid = 0.5 * (a + b)
            if gap(mid) <= 0:
                a = mid
            else:
                b = mid
        # keep strictly above the root so ulp rounding in later log-spaced
        # sampling cannot land back on the zero
        y = b * (1.0 + 1e-12)
    if y <= 1.0:
        y = 1.0 + 1e-9
    if gap(y) <= 0:
        raise NoValidY("refined threshold failed verification")

    check = np.exp(np.linspace(math.log(y), math.log(10.0 * y), 10_000))
    if not bool(np.all(gap(check) > 0)):
        raise BoundViolated("gap inequality failed between Y and 10Y after verification")

    exponent = 2.0 * c_1 + 2.0 * c_p * y**p - 2.0 * y
    eps = min(1.0, (math.pi / 3.0) * math.exp(exponent))
    log_eps = float(min(0.0, math.log(math.pi / 3.0) + exponent))
    return NonDensityCertificate(
        p=p, M=M, C_p=c_p, C_1=c_1, Y=y, epsilon0_sq=eps, gap_samples=len(check),
        log_epsilon0_sq=log_eps, underflow=eps == 0.0 and math.isfinite(log_eps),
    )


def cos_half_norm_enclosure(p: float = 0.5, R: float = 40.0, tol: float = 1e-4, **kw) -> dict:
    """Two-sided enclosure of ||cos(z/2)||^2 under |Im z| + |z|^p.

    Quadrature over the truncated plane of radius R plus the certified tail
    bound for the excluded region (|cos(z/2)|^2 <= e^|y|, growth 1).
    """
    w = ImAbsPlusPower(p)
    domain = TruncatedPlane(R)

    def f(z):
        return np.cos(0.5 * np.asarray(z, dtype=complex))

    value, err = weighted_norm_sq(f, domain, w, tol, **kw)
    tail = truncation_tail(w, R, amplitude=1.0, growth=1.0)
    return {
        "p": p,
        "R": R,
        "trunc_value": value,
        "trunc_err": err,
        "tail": tail,
        "norm_sq_lower": max(0.0, value - err),
        "norm_sq_upper": value + err + tail,
    }


def certificate_from_enclosure(p: float = 0.5, R: float = 40.0, tol: float = 1e-4, **kw):
    """Certificate with M derived from the computed norm enclosure."""
    enc = cos_half_norm_enclosure(p, R, tol, **kw)
    M = 1.0 + math.sqrt(enc["norm_sq_upper"])
    return nondensity_certificate(p, M), enc


def pointwise_eval_bound(domain, w, z: complex, normP: float) -> float:
    """Upper bound for |P(z)| over all holomorphic P with ||P|| <= normP.

    By the sub-mean-value property on the largest disc around z inside the
    domain: sqrt(C/pi) * normP / d_boundary(z), where C = exp(sup phi).
    """
    z = complex(z)
    if not contains(domain, z):
        raise InvalidParameters(f"{z} is not an interior point")
    d = boundary_distance(domain, z)
    if d <= 0:
        raise InvalidParameters(f"{z} has no interior clearance")
    c_tilde = math.exp(w.upper_bound(domain))
    return math.sqrt(c_tilde / math.pi) * float(normP) / d
