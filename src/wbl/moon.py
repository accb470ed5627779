"""Square-root transport on moon domains and staged thin-moon constructions.

The density question on a moon with the origin inside the hole reduces to
approximating 1/sqrt(z): the map w = sqrt(z) turns the moon into a Jordan
domain, and polynomials in w split into even and odd parts that pull back to
polynomials in z and sqrt(z) * polynomials in z. This module provides the
branch, the split, the change-of-variables consistency check, the criterion
driver, and the staged circle-arc regions with their strip budget search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# density_scan stays importable here: perfbench/tracing.py patches wbl.moon.density_scan
from .bergman import _density_scans, density_scan  # noqa: F401
from .errors import CutIntersectsDomain, InvalidParameters, ToleranceNotMet
from .geometry import ArcRegion, ArcStage, Moon
from .quad import integrate, weight_factor
from .weights import Polynomial, quadrature_points


@dataclass(frozen=True)
class BranchSpec:
    """Branch of sqrt(z) continuous on a domain avoided by a straight cut ray.

    The cut is the ray {t * direction : t >= 0}; arguments are taken in the
    window (theta_cut, theta_cut + 2 pi). With d = direction and phi = (arg z
    - theta_cut) mod 2 pi, the principal sqrt of -z conj(d) has argument
    (phi - pi)/2, so sqrt(z) = i e^(i theta_cut/2) sqrt(-z conj(d)).
    """

    direction: complex

    def __post_init__(self):
        d = complex(self.direction)
        if d == 0:
            raise InvalidParameters("cut direction must be nonzero")
        object.__setattr__(self, "direction", d / abs(d))

    @property
    def theta_cut(self) -> float:
        return math.atan2(self.direction.imag, self.direction.real)

    def sqrt(self, z):
        z = np.asarray(z, dtype=complex)
        return 1j * np.exp(0.5j * self.theta_cut) * np.sqrt(z * -self.direction.conjugate())


def make_branch_spec(domain, direction=None, n_samples: int = 4096) -> BranchSpec:
    """Validated branch spec for a domain; the cut ray must miss the domain.

    Default direction points from the origin toward the moon's tangency point
    (positive reals for staged arc regions). Raises CutIntersectsDomain when
    dense sampling of the ray finds interior points.
    """
    if direction is None:
        if isinstance(domain, Moon):
            q = domain.tangency_point
            if abs(q) == 0:
                raise InvalidParameters("tangency point at the origin has no direction")
            direction = q / abs(q)
        else:
            direction = 1.0 + 0j
    spec = BranchSpec(direction)
    x0, x1, y0, y1 = domain.bounding_box()
    reach = max(abs(complex(x, y)) for x in (x0, x1) for y in (y0, y1)) * 1.05
    t = np.linspace(0.0, reach, n_samples)
    ray = t * spec.direction
    if bool(np.any(domain.contains(ray))):
        raise CutIntersectsDomain(
            f"cut ray along {spec.direction:.3f} passes through the domain"
        )
    return spec


def branch_sqrt(domain, spec: BranchSpec, z):
    """sqrt(z) in the branch spec's argument window; continuous on the domain."""
    out = spec.sqrt(z)
    return complex(out) if np.shape(out) == () else out


def parity_split(P: Polynomial):
    """Even/odd split P(w) = P1(w^2) + w * P2(w^2), exact on coefficients.

    Requires P centered at 0; the returned parts are centered at 0 with the
    squared scale.
    """
    if P.center != 0:
        raise InvalidParameters("parity split needs a polynomial centered at 0")
    c = np.asarray(P.coeffs)
    p1 = c[0::2]
    p2 = c[1::2] / P.scale
    s2 = P.scale * P.scale
    return (
        Polynomial(tuple(p1) if len(p1) else (0j,), 0j, s2),
        Polynomial(tuple(p2) if len(p2) else (0j,), 0j, s2),
    )


def change_of_variables_check(f, moon, w, spec: BranchSpec, tol: float = 1e-8, **kw):
    """Both sides of the sqrt change of variables, with their discrepancy.

    lhs integrates |f|^2 e^-phi directly on the moon; rhs pushes every node
    through the branch and evaluates 4 |f(w^2) w|^2 e^-phi(w^2) with the
    pullback Jacobian 1/(4 |w|^2), so any branch inconsistency shows up as a
    discrepancy beyond the quadrature errors. Returns (lhs, rhs, discrepancy,
    combined_err).
    """
    pts = quadrature_points(w)

    def g_lhs(z):
        return np.abs(f(z)) ** 2 * weight_factor(w, z)

    def g_rhs(z):
        wz = spec.sqrt(z)
        wsq = wz * wz
        return 4.0 * np.abs(f(wsq) * wz) ** 2 * weight_factor(w, wsq) / (4.0 * np.abs(wz) ** 2)

    lhs, err1 = integrate(moon, g_lhs, pts, tol, **kw)
    rhs, err2 = integrate(moon, g_rhs, pts, tol, **kw)
    lhs, rhs = lhs.real, rhs.real
    return lhs, rhs, abs(lhs - rhs), err1 + err2


def moon_density_criterion(moon, w, spec: BranchSpec | None = None, N_max: int = 20,
                           tol: float = 1e-10, **kw):
    """Density criterion scan: d_n(1/sqrt(z)) plus a pole-in-the-hole control.

    Requires the origin strictly inside the inner curve; both targets share
    one grid and one factor. The verdict is the advisory HEURISTIC label of
    the scan; the criterion itself is that polynomial density is equivalent
    to the inv-sqrt distances tending to 0.
    """
    if not isinstance(moon, Moon):
        raise InvalidParameters("the criterion is stated for moon domains")
    if not abs(moon.inner.center) < moon.inner.radius:
        raise InvalidParameters("the origin must lie strictly inside the inner curve")
    if spec is None:
        spec = make_branch_spec(moon)
    p_hole = moon.inner.center

    def inv_sqrt(z):
        return 1.0 / spec.sqrt(z)

    def control_f(z):
        return 1.0 / (np.asarray(z) - p_hole)

    scan, control = _density_scans((inv_sqrt, control_f), moon, w, N_max=N_max, tol=tol, **kw)
    return {
        "distances": [float(d) for d in scan.distances],
        "verdict": scan.verdict,
        "error_budget": float(scan.approx.error_budget),
        "control": {
            "pole": [p_hole.real, p_hole.imag],
            "distances": [float(d) for d in control.distances],
            "verdict": control.verdict,
        },
        "criterion": "polynomials dense iff inv-sqrt approximable",
    }


def moon_stage(k: int, alphas):
    """Stage-k region D_k and companion strip for the thin-moon construction.

    D_1 is the literal region {|z| < 1, |z - 1/4| > 3/4, pi/4 < arg z <
    2pi - pi/4}; stage j adjoins the points outside the circle through 1 with
    parameter alpha_(j-1) in the widened window pi/2^(j+1). The strip uses
    alpha_k in the complementary window |arg z| <= pi/2^(k+1). alphas must
    hold at least k values decreasing from below 1/4.
    """
    if k < 1:
        raise InvalidParameters(f"stage index must be >= 1, got {k}")
    alphas = [float(a) for a in alphas]
    if len(alphas) < k:
        raise InvalidParameters(f"stage {k} needs {k} alpha parameters, got {len(alphas)}")
    seq = [0.25] + alphas[:k]
    for a, b in zip(seq, seq[1:]):
        if not 0 < b < a:
            raise InvalidParameters(f"alphas must decrease strictly within (0, 1/4): {seq}")
    stages = [ArcStage(alpha=seq[j - 1], omega=math.pi / 2 ** (j + 1), outside_window=True)
              for j in range(1, k + 1)]
    strip = ArcStage(alpha=alphas[k - 1], omega=math.pi / 2 ** (k + 1), outside_window=False)
    return ArcRegion(tuple(stages)), ArcRegion((strip,))


def strip_budget_search(k: int, alphas, P: Polynomial, w, target: float | None = None,
                        tol: float = 1e-6, alpha_floor: float = 1e-6, **kw):
    """Shrink alpha_k until the strip integral of |1/sqrt(z) - P|^2 e^-phi fits the budget.

    The default budget is 1/2^(k+1). Strip integrals use the principal branch
    (the strip straddles the positive axis, so the ray cut must lie on the
    negative axis). Returns (alpha_k, integral, err). Raises ToleranceNotMet,
    with the last trial's integral and err, when no alpha above alpha_floor
    meets the budget, and InvalidParameters when alpha_k starts at or below it
    or k is not in 1..len(alphas).
    """
    if target is None:
        target = 0.5 ** (k + 1)
    spec = BranchSpec(-1.0 + 0j)
    alphas = [float(a) for a in alphas]
    if not 1 <= k <= len(alphas):
        raise InvalidParameters(f"stage {k} is not in 1..{len(alphas)}, the given alphas")
    alpha = alphas[k - 1]
    if not alpha > alpha_floor:
        raise InvalidParameters(f"alpha_{k} = {alpha} is not above the floor {alpha_floor}")

    def strip_error(region):
        def g(z):
            return np.abs(1.0 / spec.sqrt(z) - P(z)) ** 2 * weight_factor(w, z)

        val, err = integrate(region, g, quadrature_points(w), tol, **kw)
        return val.real, err

    while alpha > alpha_floor:
        trial = alphas[: k - 1] + [alpha]
        _, strip = moon_stage(k, trial)
        val, err = strip_error(strip)
        if val + err < target:
            return alpha, val, err
        alpha *= 0.5
    raise ToleranceNotMet(
        f"no alpha above {alpha_floor} meets the strip budget {target:.3e}", val, err
    )
