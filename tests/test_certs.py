import math

import numpy as np
import pytest

import wbl.certs
from wbl import (
    Disc,
    LogPotential,
    Moon,
    Polynomial,
    ZeroWeight,
    cp_constant,
    moon_tangency,
    nondensity_certificate,
    pointwise_eval_bound,
    poisson_bounds_check,
    poisson_extension,
    potential_mass_bound,
    probe_circle,
    weighted_norm_sq,
)
from wbl.certs import certificate_from_enclosure
from wbl.errors import (
    BoundViolated,
    InvalidParameters,
    MassTooLarge,
    NoValidY,
    OutOfRange,
    UnboundedWeight,
)


def test_cp_constant_values():
    assert cp_constant(0.5) == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    assert cp_constant(1e-9) == pytest.approx(2.0, rel=1e-9)
    assert cp_constant(0.9) == pytest.approx(2 / math.cos(0.45 * math.pi), rel=1e-12)


def test_cp_constant_range():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(OutOfRange):
            cp_constant(bad)


def test_poisson_closed_form():
    u = poisson_extension(0.5, 0.0, 1.0, 1e-9)
    assert u == pytest.approx(math.sqrt(2), abs=1e-6)
    # scaling in y at x = 0
    assert poisson_extension(0.5, 0.0, 2.0, 1e-9) / u == pytest.approx(2**0.5, rel=1e-6)
    assert poisson_extension(0.3, 0.0, 1.0, 1e-9) == pytest.approx(
        1 / math.cos(0.15 * math.pi), abs=1e-6
    )


def test_poisson_sandwich_at_sample_points():
    cp = cp_constant(0.5)
    for x, y in ((1.0, 1.0), (10.0, 1e-3), (0.3, 2.0)):
        u = poisson_extension(0.5, x, y, 1e-9)
        mod_p = abs(complex(x, y)) ** 0.5
        assert 0.25 * mod_p < u < cp * mod_p
    # near the axis the extension approaches |x|^p
    u = poisson_extension(0.5, 10.0, 1e-3, 1e-9)
    assert u == pytest.approx(10**0.5, rel=1e-3)


def test_poisson_bounds_check_log_spaced():
    radii = np.exp(np.linspace(math.log(1e-2), math.log(1e2), 100))
    samples = [(r * math.cos(0.9), r * math.sin(0.9)) for r in radii]
    report = poisson_bounds_check(0.5, samples, tol=1e-9)
    assert report["violations"] == 0
    assert report["min_lower_margin"] > 1
    assert report["min_upper_margin"] > 1


def test_poisson_bounds_check_counts_one_shot_samples():
    samples = ((r * math.cos(0.9), r * math.sin(0.9)) for r in (0.5, 1.0, 2.0))
    assert poisson_bounds_check(0.5, samples, tol=1e-9)["n_samples"] == 3


def test_poisson_bounds_check_flags_bugs(monkeypatch):
    monkeypatch.setattr(wbl.certs, "poisson_extension", lambda p, x, y, tol: 0.0)
    with pytest.raises(BoundViolated):
        poisson_bounds_check(0.5, [(1.0, 1.0)])


def test_potential_mass_bound_sharp_case():
    r = potential_mass_bound([1.0], [0j], Disc(0j, 1.0), 1e-8)
    assert r.integral == pytest.approx(2 * math.pi, rel=1e-8)
    assert r.lebesgue_bound == pytest.approx(2 * math.pi, rel=1e-14)
    assert r.radial_bound == pytest.approx(1.0, rel=1e-14)
    assert r.integral <= r.lebesgue_bound * (1 + 1e-9)


def test_potential_mass_bound_far_atom():
    r = potential_mass_bound([1.0], [10 + 0j], Disc(0j, 1.0), 1e-9)
    assert r.integral == pytest.approx(math.pi / 10, rel=2e-2)
    assert r.integral < 0.2 * r.lebesgue_bound


def test_potential_mass_bound_two_atoms():
    r = potential_mass_bound([0.5, 0.5], [0.5 + 0j, -0.5 + 0j], Disc(0j, 1.0), 1e-7)
    assert r.integral <= r.lebesgue_bound
    assert r.lebesgue_bound == pytest.approx(2 * math.pi, rel=1e-14)


def test_potential_mass_bound_atoms_on_theta_edges():
    """Atoms on the initial theta edges 0 and pi of the unit disc."""
    r = potential_mass_bound(
        [0.5934328981471757, 0.5692381340500794],
        [0.5833823323343658, -0.4850376076230894],
        Disc(0j, 1.0),
        1e-8,
    )
    # mpmath at 35 digits: the disc is split by the atoms' perpendicular
    # bisector and each half integrated in polar coordinates about its atom
    ref = 5.119822916745818
    assert abs(r.integral - ref) <= r.err <= 1e-8


def test_potential_mass_bound_atom_below_first_breakpoint():
    """An atom at an angle below the domain's first theta breakpoint keeps its
    core: the problem rotated by -pi / 2 gives the same integral."""
    a = potential_mass_bound([0.8], [0.8 + 0.1j], Moon(Disc(0j, 1.0), Disc(0.45j, 0.55)))
    b = potential_mass_bound([0.8], [0.1 - 0.8j], Moon(Disc(0j, 1.0), Disc(0.45 + 0j, 0.55)))
    assert a.integral == pytest.approx(b.integral, rel=1e-12)


def test_potential_mass_too_large():
    with pytest.raises(MassTooLarge):
        potential_mass_bound([1.5, 0.6], [0j, 1 + 0j], Disc(0j, 1.0))


def test_certificate_frozen_regression():
    """Scalar pipeline values computed by the root-finding oracle and frozen."""
    cert = nondensity_certificate(0.5, 10.0)
    assert cert.C_p == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    assert cert.C_1 == pytest.approx(math.log(10) + 1 - 0.5 * math.log(math.pi), rel=1e-12)
    assert cert.C_1 == pytest.approx(2.730220150069346, rel=1e-9)
    assert cert.Y == pytest.approx(159.2293453665, rel=1e-6)
    assert cert.epsilon0_sq == pytest.approx(1.2225582500722903e-105, rel=1e-4)
    assert cert.epsilon0_sq > 0


def test_certificate_gap_holds_on_log_grid():
    cert = nondensity_certificate(0.5, 10.0)
    r = np.exp(np.linspace(math.log(cert.Y), math.log(10 * cert.Y), 10_000))
    assert bool(np.all(cert.gap(r) > 0))
    # just below Y the gap fails: Y is the genuine threshold
    assert cert.gap(cert.Y * 0.99) < 0


def test_certificate_monotone_in_budget():
    eps = [nondensity_certificate(0.5, M).epsilon0_sq for M in (2.0, 5.0, 10.0, 100.0)]
    assert all(a >= b for a, b in zip(eps, eps[1:]))


def test_certificate_capped_at_one():
    for p in (0.2, 0.35, 0.5):
        for M in (1.001, 2.0, 50.0):
            assert 0 < nondensity_certificate(p, M).epsilon0_sq <= 1.0


def test_threshold_search_is_capped():
    # for p near 1 the threshold grows past the documented 1e6 search cap
    with pytest.raises(NoValidY):
        nondensity_certificate(0.8, 2.0)


def test_certificate_range_checks():
    with pytest.raises(OutOfRange):
        nondensity_certificate(1.2, 10.0)
    with pytest.raises(OutOfRange):
        nondensity_certificate(0.5, 0.5)
    with pytest.raises(NoValidY):
        nondensity_certificate(0.999, 1e9)


def test_norm_enclosure_and_derived_certificate():
    cert, enc = certificate_from_enclosure(0.5, 40.0, tol=1e-4, rule_order=12, max_cells=60_000)
    assert enc["norm_sq_lower"] <= 17.7234 <= enc["norm_sq_upper"]
    assert enc["tail"] == pytest.approx(9.3875672, rel=1e-6)
    assert cert.M == pytest.approx(1 + math.sqrt(enc["norm_sq_upper"]), rel=1e-12)
    assert cert.epsilon0_sq > 0


def test_pointwise_eval_bound_disc():
    b = pointwise_eval_bound(Disc(0j, 1.0), ZeroWeight(), 0j, math.sqrt(math.pi))
    assert b == pytest.approx(1.0, rel=1e-12)
    # the constant polynomial saturates the bound
    assert abs(Polynomial((1 + 0j,))(0j)) <= b + 1e-12
    near_edge = pointwise_eval_bound(Disc(0j, 1.0), ZeroWeight(), 0.999 + 0j, 1.0)
    assert near_edge > 100


def test_pointwise_eval_bound_needs_interior_point():
    with pytest.raises(InvalidParameters):
        pointwise_eval_bound(Disc(0j, 1.0), ZeroWeight(), 2 + 0j, 1.0)


def test_pointwise_eval_bound_unbounded_weight():
    w = LogPotential([(0j, 1.0)], offset=lambda z: np.zeros(np.shape(z)), offset_bound=None)
    with pytest.raises(UnboundedWeight):
        pointwise_eval_bound(Disc(0j, 1.0), w, 0.5 + 0j, 1.0)


def test_pointwise_eval_bound_random_polynomials(rng, unit_disc):
    """|P(z)| <= B(z) for 100 random polynomials at 100 interior points each.

    Unit-disc monomial norms are closed-form (pi/(k+1), orthogonal), so the
    exact norm feeds the bound without quadrature in the loop.
    """
    for _ in range(100):
        deg = int(rng.integers(0, 11))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        P = Polynomial(tuple(coeffs), 0j, 1.0)
        ks = np.arange(deg + 1)
        normP = math.sqrt(float(np.sum(np.abs(coeffs) ** 2 * math.pi / (ks + 1))))
        count = 0
        while count < 100:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if not unit_disc.contains(z):
                continue
            count += 1
            bound = pointwise_eval_bound(unit_disc, ZeroWeight(), z, normP)
            assert abs(P(z)) <= bound * (1 + 1e-12)


def test_tangency_eval_bound_combination(figure_moon, rng):
    """|(w-Q)^2 P(w)| on the probe circle against the combined constant."""
    q, c = moon_tangency(figure_moon, probe_radius=1.5)
    center, rho = probe_circle(figure_moon, probe_radius=1.5)
    c_tilde = math.exp(ZeroWeight().upper_bound(figure_moon))
    phi = np.angle(q - center) + 2 * np.pi * (np.arange(1000) + 0.5) / 1000
    zg = center + rho * np.exp(1j * phi)
    for _ in range(5):
        deg = int(rng.integers(1, 11))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        P = Polynomial(tuple(coeffs), 0j, 2.0)
        nrm, err = weighted_norm_sq(P, figure_moon, ZeroWeight(), 1e-7, rule_order=12)
        c_prime = math.sqrt(c_tilde / math.pi) / c * math.sqrt(nrm + err)
        assert bool(np.all(np.abs((zg - q) ** 2 * P(zg)) <= c_prime * (1 + 1e-9)))
