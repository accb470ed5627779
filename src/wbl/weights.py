"""Subharmonic weight models and the polynomial value type.

The weight classes evaluate phi pointwise (vectorized over complex arrays);
the integration measure used everywhere else is exp(-phi) d(lebesgue).
Singular variants report their atom locations so quadrature can grade cells
toward them, and their local masses (Lelong numbers) so callers can rule out
non-integrable monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, OutOfRange, UnboundedWeight, UnsupportedMeasure

ATOM_TOL = 1e-12


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in the scaled shifted basis ((z - center)/scale)^k.

    coeffs[k] multiplies ((z - center)/scale)^k; the Taylor coefficient of
    order k at the center is coeffs[k] / scale^k. Evaluation is Horner in the
    scaled variable.
    """

    coeffs: tuple
    center: complex = 0j
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise InvalidParameters(f"polynomial scale must be positive, got {self.scale}")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0:
                return k
        return -1

    def __call__(self, z):
        u = (np.asarray(z) - self.center) / self.scale
        acc = np.zeros_like(u)
        for c in reversed(self.coeffs):
            acc *= u
            acc += c
        return acc[()]  # a NumPy scalar for a scalar z, not a 0-d array

    def taylor_coefficients(self) -> np.ndarray:
        k = np.arange(len(self.coeffs))
        return np.asarray(self.coeffs) / self.scale**k

    @classmethod
    def from_taylor(cls, taylor_coeffs, center=0j, scale=1.0):
        k = np.arange(len(taylor_coeffs))
        return cls(tuple(np.asarray(taylor_coeffs, dtype=complex) * scale**k), center, scale)

    def recenter(self, center: complex, scale: float) -> "Polynomial":
        """Exact rebasing onto a new center and scale (binomial expansion)."""
        a = scale / self.scale
        b = (complex(center) - self.center) / self.scale
        n = len(self.coeffs)
        out = np.zeros(n, dtype=complex)
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for m in range(k + 1):
                out[m] += c * math.comb(k, m) * a**m * b ** (k - m)
        return Polynomial(tuple(out), complex(center), float(scale))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        q = other.recenter(self.center, self.scale)
        prod = np.convolve(np.asarray(self.coeffs), np.asarray(q.coeffs))
        return Polynomial(tuple(prod), self.center, self.scale)


class ZeroWeight:
    """phi = 0, the unweighted Bergman case."""

    def evaluate(self, z):
        return np.zeros(np.shape(z))

    def quadrature_singularities(self):
        return ()

    def lelong(self, x) -> float:
        return 0.0

    def riesz_atoms(self):
        return ()

    def upper_bound(self, domain) -> float:
        return 0.0

    def __repr__(self):
        return "ZeroWeight()"


@dataclass(frozen=True)
class ImAbsPlusPower:
    """phi(z) = |Im z| + |z|^p with 0 < p < 1."""

    p: float

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise OutOfRange(f"exponent must lie in (0, 1), got {self.p}")

    def evaluate(self, z):
        z = np.asarray(z)
        return np.abs(z.imag) + np.abs(z) ** self.p

    def quadrature_singularities(self):
        # derivative kink of |z|^p at the origin; mass there is zero
        return (0j,)

    def lelong(self, x) -> float:
        return 0.0

    def riesz_atoms(self):
        raise UnsupportedMeasure(
            "the measure of |Im z| + |z|^p lives on the real axis, not on atoms"
        )

    def upper_bound(self, domain) -> float:
        x0, x1, y0, y1 = domain.bounding_box()
        corners = [complex(x, y) for x in (x0, x1) for y in (y0, y1)]
        return max(abs(y0), abs(y1)) + max(abs(c) for c in corners) ** self.p


@dataclass(frozen=True)
class LogPotential:
    """phi(z) = sum_i alpha_i log|z - z_i| + offset(z), all alpha_i > 0.

    The offset stands for a bounded harmonic remainder; it is taken on trust
    with the declared bound and defaults to zero. Pass offset_bound=None to
    mark the bound as undeclared (upper_bound then refuses).
    """

    atoms: tuple
    offset: object = None
    offset_bound: float | None = 0.0

    def __post_init__(self):
        atoms = tuple((complex(z), float(a)) for z, a in self.atoms)
        if any(a <= 0 for _, a in atoms):
            raise InvalidParameters("atom masses must be positive")
        object.__setattr__(self, "atoms", atoms)
        if self.offset is None and (self.offset_bound or 0.0) != 0.0:
            raise InvalidParameters("a nonzero offset bound needs an offset function")

    def evaluate(self, z):
        z = np.asarray(z)
        acc = np.zeros(z.shape)
        with np.errstate(divide="ignore"):
            for zi, ai in self.atoms:
                acc = acc + ai * np.log(np.abs(z - zi))
        if self.offset is not None:
            acc = acc + self.offset(z)
        return acc

    def quadrature_singularities(self):
        return tuple(zi for zi, _ in self.atoms)

    def lelong(self, x) -> float:
        x = complex(x)
        return sum(ai for zi, ai in self.atoms if abs(zi - x) <= ATOM_TOL * (1 + abs(x)))

    def riesz_atoms(self):
        return self.atoms

    def upper_bound(self, domain) -> float:
        if self.offset_bound is None:
            raise UnboundedWeight("harmonic offset has no declared bound")
        x0, x1, y0, y1 = domain.bounding_box()
        corners = [complex(x, y) for x in (x0, x1) for y in (y0, y1)]
        total = self.offset_bound
        for zi, ai in self.atoms:
            total += ai * math.log(max(abs(c - zi) for c in corners))
        return total


@dataclass(frozen=True)
class PolyBump:
    """phi(z) = L * chi(|P(z)|^2) with chi(x) = max(0, x - threshold)^2.

    chi is convex, C^1 and vanishes for x <= threshold, so phi is subharmonic,
    zero wherever |P|^2 <= threshold, and grows like a polynomial bump outside.
    """

    poly: Polynomial
    threshold: float = 1.0
    L: float = 1.0

    def __post_init__(self):
        if not self.threshold >= 1:
            raise InvalidParameters(f"threshold must be >= 1, got {self.threshold}")
        if not self.L > 0:
            raise InvalidParameters(f"scale L must be positive, got {self.L}")

    def evaluate(self, z):
        mag2 = np.abs(self.poly(z)) ** 2
        return self.L * np.maximum(0.0, mag2 - self.threshold) ** 2

    def quadrature_singularities(self):
        return ()

    def lelong(self, x) -> float:
        # chi kills the log singularity of |P|^2 wherever P vanishes
        return 0.0

    def riesz_atoms(self):
        raise UnsupportedMeasure("the bump weight has an absolutely continuous measure")

    def upper_bound(self, domain) -> float:
        x0, x1, y0, y1 = domain.bounding_box()
        t = np.linspace(0.0, 1.0, 1025)
        edge = np.concatenate(
            [
                x0 + t * (x1 - x0) + 1j * y0,
                x0 + t * (x1 - x0) + 1j * y1,
                x0 + 1j * (y0 + t * (y1 - y0)),
                x1 + 1j * (y0 + t * (y1 - y0)),
            ]
        )
        mag2 = float(np.max(np.abs(self.poly(edge)) ** 2)) * (1 + 1e-3)
        return self.L * max(0.0, mag2 - self.threshold) ** 2


@dataclass(frozen=True)
class SumWeight:
    """Pointwise sum of weights."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def evaluate(self, z):
        acc = np.zeros(np.shape(z))
        for t in self.terms:
            acc = acc + t.evaluate(z)
        return acc

    def quadrature_singularities(self):
        pts = []
        for t in self.terms:
            pts.extend(t.quadrature_singularities())
        return tuple(pts)

    def lelong(self, x) -> float:
        return sum(t.lelong(x) for t in self.terms)

    def riesz_atoms(self):
        atoms = []
        for t in self.terms:
            atoms.extend(t.riesz_atoms())
        return tuple(atoms)

    def upper_bound(self, domain) -> float:
        return sum(t.upper_bound(domain) for t in self.terms)


Weight = ZeroWeight | ImAbsPlusPower | LogPotential | PolyBump | SumWeight


def evaluate(w: Weight, z):
    """phi(z); -inf exactly at log-potential atoms."""
    out = w.evaluate(z)
    return float(out) if np.shape(out) == () else out


def lelong_number(w: Weight, x: complex) -> float:
    """Local singularity mass of phi at x (additive over sums)."""
    return w.lelong(x)


def quadrature_points(w: Weight, f_singularities=(), Q: Polynomial | None = None):
    """(point, order) of w's singular points at their Lelong numbers nu (0 at
    the |z|^p kink; coincident atoms sum), less 2m for an atom of mass nu >= 2
    at a zero of Q whose m leading Taylor coefficients are negligible against
    its largest; then the f_singularities entries as they are, each a (point,
    order) pair with the order of |f|^2 e^(-phi) there."""
    pts = []
    for z in w.quadrature_singularities():
        nu = w.lelong(z)
        if nu >= 2.0 and Q is not None:
            c = np.abs(Q.recenter(z, Q.scale).coeffs)
            nu -= 2 * int(np.argmax(c > ATOM_TOL * c.max()))
        pts.append((complex(z), nu))
    return tuple(pts) + tuple(f_singularities)


def mass_on_disc(w: Weight, center: complex, radius: float) -> float:
    """Mass of the Riesz measure (1/2pi * laplacian phi) on the closed disc."""
    atoms = w.riesz_atoms()
    c = complex(center)
    return sum(ai for zi, ai in atoms if abs(zi - c) <= radius + ATOM_TOL * (1 + radius))


def satisfies_condition_A(w: Weight) -> bool:
    """Whether the Riesz mass on the closed unit disc is strictly below 2."""
    return mass_on_disc(w, 0j, 1.0) < 2.0


def poly_bump_weight(P: Polynomial, threshold: float = 1.0, L: float = 1.0) -> PolyBump:
    """Penalty weight L * max(0, |P|^2 - threshold)^2."""
    return PolyBump(P, threshold, L)
