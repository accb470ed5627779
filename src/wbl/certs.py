"""Executable certificates and bound checks.

The non-density certificate turns the harmonic-majorant argument into a
finite procedure: given an exponent p and a norm budget M it produces
constants (C_p, C_1), a threshold Y past which the exponential gap
inequality provably holds, and a positive lower bound epsilon0_sq for the
squared distance from cos(z/2) to every polynomial within the budget. The
other operations check proven inequalities (Poisson sandwich, potential mass
bounds, mean-value evaluation bounds) at sampled points. The Poisson
extension is a closed form, so a sandwich failure signals a rounding bug;
a mass bound failure signals a quadrature bug. Neither is new mathematics.
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
# integrate_1d and weighted_norm_sq stay importable: perfbench/tracing.py patches them here
from .quad import integrate, integrate_1d, truncation_tail  # noqa: F401
from .quad import weighted_norm_sq  # noqa: F401
from .weights import ImAbsPlusPower, LogPotential, quadrature_points

LOG4 = math.log(4.0)


def cp_constant(p: float) -> float:
    """2 / cos(p pi / 2), the upper Poisson sandwich constant, as 2 / sin((1 - p)
    pi / 2): within an ulp for every p, where the cosine loses -log10(1 - p) digits."""
    if not 0.0 < p < 1.0:
        raise OutOfRange(f"exponent must lie in (0, 1), got {p}")
    return 2.0 / math.sin(0.5 * math.pi * (1.0 - p))


def poisson_extension(p: float, x: float, y: float, tol: float = 1e-9) -> float:
    """Harmonic extension of |t|^p to the upper half plane at x + iy.

    The Poisson integral (1/pi) * int |x + y tau|^p / (1 + tau^2) dtau is
    U = Re((-iz)^p) / cos(p pi / 2): (-iz)^p is holomorphic for y > 0, has
    boundary values |t|^p cos(p pi / 2) and grows like |z|^p with p < 1, so by
    Phragmen-Lindelof it is the Poisson integral (Garnett, Bounded Analytic
    Functions, ch. I). With theta = atan2(y, |x|) in (0, pi / 2] this is
    U = |z|^p sin(p theta + (1 - p) pi / 2) / sin((1 - p) pi / 2). Both sine
    arguments are sums of nonnegative terms in [0, pi / 2], where sin has
    condition at most 1, so U is within a few ulps for every p; written with
    cosines, cos(p pi / 2) loses up to -log10(1 - p) digits. ToleranceNotMet
    is raised, with U and its rounding bound 16 eps U, when that exceeds tol.
    """
    if not 0.0 < p < 1.0:
        raise OutOfRange(f"exponent must lie in (0, 1), got {p}")
    if not y > 0:
        raise OutOfRange(f"the extension lives in the upper half plane, y > 0; got {y}")
    x, y = abs(float(x)), float(y)
    rest = 0.5 * math.pi * (1.0 - p)
    u = math.hypot(x, y) ** p * math.sin(p * math.atan2(y, x) + rest) / math.sin(rest)
    err = 16.0 * math.ulp(1.0) * u
    if err > tol:
        raise ToleranceNotMet(f"Poisson extension rounding {err:.3e} above tol {tol:.3e}", u, err)
    return u


def poisson_bounds_check(p: float, samples, tol: float = 1e-9) -> dict:
    """Verify the sandwich |z|^p / 4 < U(x+iy) < C_p |z|^p at every sample.

    Returns the tightest observed margins; raises BoundViolated on any
    failure (the sandwich is proven and U is a closed form, so a violation
    means a rounding bug).
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
    log_epsilon0_sq: float
    underflow: bool
    gap_proof: dict

    def gap(self, r):
        """r/4 - log(1 + 4 exp(C_1 + C_p r^p)); positive for all r >= Y."""
        return _gap(r, self.p, self.C_p, self.C_1)


def _gap(r, p, c_p, c_1):
    """The certificate's gap r/4 - log(1 + 4 exp(c_1 + c_p r^p)). A float r takes
    numpy's logaddexp(0, h) for h > 0 (c_1 > 0.43) in math calls, bit for bit;
    np.power stays, as math.pow can differ from it in the last bit."""
    if isinstance(r, float):
        h = c_1 + c_p * float(np.power(r, p)) + LOG4
        return 0.25 * r - (h + math.log1p(math.exp(-h)))
    r = np.asarray(r, dtype=float)
    return 0.25 * r - np.logaddexp(0.0, c_1 + c_p * r**p + LOG4)


_Y_CAP = 1e6
_PI_HI = math.nextafter(math.pi, math.inf)  # math.pi < pi < _PI_HI


def _dn(x, steps=1):
    """x moved `steps` floats down, and by _up up: one step covers an IEEE
    + - * / rounded to nearest, two a libm call within 2 ulps of the truth."""
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    return x


def _up(x, steps=1):
    return -_dn(-x, steps)


def _gap_bounds(r, p, cp, c14):
    """[lo, hi] around g(r) at a float r, from [lo, hi] around C_p and around
    C_1 + log 4 > 0: log(1 + e^h) = h + log1p(e^-h) rises with h."""
    rp = math.pow(r, p)
    h = (_dn(c14[0] + _dn(cp[0] * _dn(rp, 2))), _up(c14[1] + _up(cp[1] * _up(rp, 2))))
    soft = (_dn(h[0] + _dn(math.log1p(_dn(math.exp(-h[0]), 2)), 2)),
            _up(h[1] + _up(math.log1p(_up(math.exp(-h[1]), 2)), 2)))
    return _dn(0.25 * r - soft[1]), _up(0.25 * r - soft[0])


def nondensity_certificate(p: float, M: float) -> NonDensityCertificate:
    """Build and verify the certificate for exponent p and norm budget M.

    Y is the last root of the gap g(r) = r/4 - log(1 + e^h), h = C_1 + log 4
    + C_p r^p > 0, just rounded up. Past r* = (4 C_p p)^(1/(1-p)), g' = 1/4 -
    sigma(h) C_p p r^(p-1) > 0 with the logistic sigma(h) < 1: so Y >= r* and
    g(Y) > 0 give g > 0 on [Y, inf), and g(max(1, r*)) < 0 makes Y the last
    root. Newton steps on the float gap from the cap 1e6, each at least one
    float, keep g(a) <= 0 < g(b) (one that leaves it bisects) down to adjacent
    floats; Y is b raised by 1e-12. These premises and C_1 + log 4 > 0 are
    checked at the harder ends of [lo, hi] enclosures rounded outward as _dn
    says (Rump, Acta Numerica 19, 2010), and kept in gap_proof. C_p and C_1
    are rounded to nearest, and Y is found from them; epsilon0_sq and
    log_epsilon0_sq are rounded down. NoValidY: a premise fails or Y > 1e6.
    """
    if not 0.0 < p < 1.0:
        raise OutOfRange(f"exponent must lie in (0, 1), got {p}")
    if not M > 1.0:
        raise OutOfRange(f"norm budget must exceed 1, got {M}")
    c_p = cp_constant(p)
    c_1 = math.log(M) + 1.0 - 0.5 * math.log(math.pi)
    t = (_dn(1.0 - p), _up(1.0 - p))
    sin = (_dn(math.sin(_dn(0.5 * math.pi * t[0])), 2), _up(math.sin(_up(0.5 * _PI_HI * t[1])), 2))
    cp = (_dn(2.0 / sin[1]), _up(2.0 / sin[0]))
    c1 = (_dn(_dn(_dn(math.log(M), 2) + 1.0) - 0.5 * _up(math.log(_PI_HI), 2)),
          _up(_up(_up(math.log(M), 2) + 1.0) - 0.5 * _dn(math.log(math.pi), 2)))
    c14 = (_dn(c1[0] + _dn(LOG4, 2)), _up(c1[1] + _up(LOG4, 2)))
    base = _up(4.0 * p * cp[1])
    e = _up(1.0 / t[0]) if base >= 1.0 else _dn(1.0 / t[1])  # a base below 1 takes the smaller
    r_hi = _up(math.pow(base, e), 2) if e * math.log(base) < 700.0 else math.inf
    a, b, x = max(1.0, r_hi), _Y_CAP, _Y_CAP
    if not a < b or (gx := _gap(b, p, c_p, c_1)) <= 0:
        raise NoValidY(f"gap inequality not achievable below the cap {_Y_CAP:.1e}")
    while math.nextafter(a, b) < b:
        rp = math.pow(x, p)
        d = 0.25 - c_p * p * rp / (x * (1.0 + math.exp(-(c_1 + LOG4 + c_p * rp))))
        step = x - gx / d if d > 0 else 0.5 * (a + b)
        step = min(step, math.nextafter(x, a)) if gx > 0 else max(step, math.nextafter(x, b))
        x = step if a < step < b else 0.5 * (a + b)
        gx = _gap(x, p, c_p, c_1)
        a, b = (x, b) if gx <= 0 else (a, x)
    y = b * (1.0 + 1e-12)
    proof = {"r_star_upper": r_hi, "gap_Y_lower": _gap_bounds(y, p, cp, c14)[0],
             "gap_start_upper": _gap_bounds(max(1.0, r_hi), p, cp, c14)[1], "C_1_log4_lower": c14[0]}
    if not (c14[0] > 0 > proof["gap_start_upper"] and y >= r_hi and proof["gap_Y_lower"] > 0):
        raise NoValidY(f"threshold premises failed in outward rounding: {proof}")
    exponent = _dn(_dn(2.0 * c1[0] + _dn(2.0 * cp[0] * _dn(math.pow(y, p), 2))) - 2.0 * y)
    eps = min(1.0, max(0.0, _dn(_dn(math.pi / 3.0) * _dn(math.exp(exponent), 2))))
    log_eps = min(0.0, _dn(_dn(math.log(_dn(math.pi / 3.0)), 2) + exponent))
    return NonDensityCertificate(
        p=p, M=M, C_p=c_p, C_1=c_1, Y=y, epsilon0_sq=eps, log_epsilon0_sq=log_eps,
        underflow=eps == 0.0 and math.isfinite(log_eps), gap_proof=proof,
    )


class _Quadrant(TruncatedPlane):
    """TruncatedPlane(R) cut to 0 <= arg z <= pi/2, with the empty section [R, R] on
    other rays; membership, bounding box and radial centre 0j (its order given) are the disc's."""

    def theta_breakpoints(self):
        return [0.0, 0.5 * math.pi]

    def radial_sections(self, theta):
        out = super().radial_sections(theta)
        out[..., 0, 0] = np.where(np.asarray(theta) % (2.0 * math.pi) <= 0.5 * math.pi, 0.0, self.R)
        return out


def cos_half_norm_enclosure(p: float = 0.5, R: float = 40.0, tol: float = 1e-4, **kw) -> dict:
    """Two-sided enclosure of ||cos(z/2)||^2 under |Im z| + |z|^p.

    Quadrature over the truncated plane of radius R plus the certified tail
    bound for the excluded region (|cos(z/2)|^2 <= e^|y|, growth 1). The
    integrand |cos(z/2)|^2 e^-phi = (cos x + cosh y) / 2 e^(-|y| - |z|^p) is
    even in x and in y, so only the quadrant 0 <= arg z <= pi/2 is integrated,
    at tol / 4, with value and error taken four times. Its variable is zeta,
    with |z| = |zeta|^(1/p) and arg z = arg zeta, where |z|^p = |zeta| is
    smooth: k = |zeta|^(1/p - 1) gives z = k zeta and dA_z = k^2 dA_zeta / p,
    so the one singular point zeta = 0 has the exact order 2 - 2/p. Any
    max_cells in kw caps the cells of that quadrant.
    """
    w = ImAbsPlusPower(p)

    def g(zeta):
        rho = np.abs(zeta)
        k = rho ** (1.0 / p - 1.0)
        y = k * zeta.imag
        return (0.5 / p) * (np.cos(k * zeta.real) + np.cosh(y)) * np.exp(-y - rho) * (k * k)

    value, err = integrate(_Quadrant(R**p), g, ((0j, 2.0 - 2.0 / p),), 0.25 * tol, **kw)
    value, err = 4.0 * value.real, 4.0 * err
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
