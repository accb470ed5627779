import cmath
import math

import numpy as np
import pytest
import scipy.special as sp

from wbl import (
    Disc,
    ImAbsPlusPower,
    LogPotential,
    TruncatedPlane,
    ZeroWeight,
    build_grid,
    integrate,
    integrate_1d,
    truncation_tail,
    weighted_norm_sq,
)
from wbl.quad import inner_product, weight_factor
from wbl.errors import NonIntegrableSingularity, ToleranceNotMet, UnsupportedGrowth

ONE = lambda z: np.ones(z.shape)


def test_unit_disc_area(unit_disc):
    v, e = integrate(unit_disc, ONE, (), 1e-10)
    assert v.real == pytest.approx(math.pi, abs=1e-10)


def test_inverse_abs_singularity(unit_disc):
    v, e = integrate(unit_disc, lambda z: 1 / np.abs(z), (0j,), 1e-8)
    assert v.real == pytest.approx(2 * math.pi, abs=1e-8)
    assert e <= 1e-8


def test_power_singularity(unit_disc):
    v, e = integrate(unit_disc, lambda z: np.abs(z) ** -1.5, (0j,), 1e-8)
    assert v.real == pytest.approx(4 * math.pi, abs=2e-8)


def test_monomial_norms(unit_disc):
    for k in range(5):
        v, e = weighted_norm_sq(lambda z, k=k: z**k, unit_disc, ZeroWeight(), 1e-10)
        assert v == pytest.approx(math.pi / (k + 1), rel=1e-12)


def test_log_potential_norm(unit_disc):
    v, e = weighted_norm_sq(ONE, unit_disc, LogPotential([(0j, 1.5)]), 1e-8)
    assert v == pytest.approx(4 * math.pi, rel=1e-8)


def test_inner_products(unit_disc):
    v, _ = inner_product(lambda z: z, lambda z: z**2, unit_disc, ZeroWeight(), 1e-10)
    assert abs(v) < 1e-12
    v, _ = inner_product(lambda z: z, lambda z: z, unit_disc, ZeroWeight(), 1e-10)
    assert v.real == pytest.approx(math.pi / 2, rel=1e-12)
    v, _ = inner_product(lambda z: 1 / (z - 2), ONE, unit_disc, ZeroWeight(), 1e-10)
    assert v == pytest.approx(-math.pi / 2, rel=1e-10)


def test_additive_over_disjoint_split(figure_moon):
    """moon + hole = outer disc for an integrand smooth on all three."""

    def g(z):
        return np.exp(-np.abs(z - 0.2) ** 2)

    outer, hole = figure_moon.outer, figure_moon.inner
    v_moon, e1 = integrate(figure_moon, g, (), 1e-9)
    v_hole, e2 = integrate(hole, g, (), 1e-9)
    v_outer, e3 = integrate(outer, g, (), 1e-9)
    assert abs(v_moon + v_hole - v_outer) <= e1 + e2 + e3 + 1e-12


@pytest.mark.parametrize(
    "alpha, ref",
    # 2 pi 2^(2-a)/(2-a) minus the hole's integral over |t| <= asin(7/13) of
    # [(c+s)^(2-a) - (c-s)^(2-a)]/(2-a), c = 1.3 cos t and
    # s = sqrt(0.49 - 1.69 sin^2 t), by mpmath at 30 digits
    [(0.5, 10.484271207686375), (1.0, 11.333788543291477), (1.5, 16.632860568828375)],
)
def test_center_grading_on_two_branch_domain(figure_moon, alpha, ref):
    """A singular radial center on a moon: only branch 0 starts at the center
    and is cut into rungs; the second branch keeps one cell per segment."""
    v, e = integrate(figure_moon, lambda z: np.abs(z) ** -alpha, (0j,), 1e-10)
    assert abs(v.real - ref) <= e <= 1e-10


def test_monotone_in_domain():
    def g(z):
        return 1.0 / (1.0 + np.abs(z) ** 2)

    v1, e1 = integrate(Disc(0j, 1.0), g, (), 1e-9)
    v2, e2 = integrate(Disc(0j, 2.0), g, (), 1e-9)
    assert v2.real >= v1.real - e1 - e2


def test_refinement_convergence(unit_disc):
    """Halving tol never worsens the error on a closed-form case."""
    errors = []
    for tol in (1e-4, 5e-5, 2.5e-5, 1e-6, 1e-8):
        v, _ = integrate(unit_disc, lambda z: np.abs(z) ** -1.5, (0j,), tol)
        errors.append(abs(v.real - 4 * math.pi))
    assert all(b <= a + 1e-14 for a, b in zip(errors, errors[1:]))


def test_deterministic_reruns(unit_moon):
    def g(z):
        return np.abs(z) ** -0.5 * np.exp(1j * z).real

    v1, e1 = integrate(unit_moon, g, (0j,), 1e-9)
    v2, e2 = integrate(unit_moon, g, (0j,), 1e-9)
    assert v1 == v2 and e1 == e2


def test_non_integrable_singularity_detected(unit_disc):
    with pytest.raises(NonIntegrableSingularity):
        integrate(unit_disc, lambda z: np.abs(z) ** -2.2, (0j,), 1e-6)


def test_strict_tolerance_raises(unit_disc):
    with pytest.raises(ToleranceNotMet) as info:
        integrate(
            unit_disc,
            lambda z: 1 / np.abs(z - 0.3),
            (0.3 + 0j,),
            1e-14,
            max_cells=64,
            strict=True,
        )
    assert info.value.err > 1e-14
    assert abs(info.value.value) > 0


def test_grid_reuse_matches_direct(unit_disc):
    grid = build_grid(unit_disc, lambda z: np.abs(z) ** 2 + 1.0, (), 1e-10)
    total = float(np.sum(grid.weights * (np.abs(grid.nodes) ** 2 + 1.0)))
    assert total == pytest.approx(math.pi / 2 + math.pi, abs=1e-9)
    assert grid.error_estimate >= 0
    assert grid.n_cells == len(grid.cells)
    # weights realize the plain area measure
    assert float(np.sum(grid.weights)) == pytest.approx(math.pi, abs=1e-9)


def test_truncation_tail_closed_form():
    w = ImAbsPlusPower(0.5)
    assert truncation_tail(w, 0.0) == pytest.approx(24 * math.pi, rel=1e-10)
    assert truncation_tail(w, 0.0, amplitude=2.0) == pytest.approx(48 * math.pi, rel=1e-10)


def test_truncation_tail_gamma_oracle():
    for p, R in ((0.5, 40.0), (0.5, 5.0), (0.7, 10.0), (0.3, 2.0)):
        a = 2.0 / p
        oracle = 2 * math.pi * (1 / p) * sp.gammaincc(a, R**p) * sp.gamma(a)
        got = truncation_tail(ImAbsPlusPower(p), R)
        assert got == pytest.approx(oracle, rel=1e-8)
        assert got >= oracle * (1 - 1e-12)  # upper-bound semantics


def test_truncation_tail_growth_guard():
    w = ImAbsPlusPower(0.5)
    assert truncation_tail(w, 10.0, growth=1.0) == truncation_tail(w, 10.0, growth=0.0)
    with pytest.raises(UnsupportedGrowth):
        truncation_tail(w, 10.0, growth=1.5)
    with pytest.raises(UnsupportedGrowth):
        truncation_tail(ZeroWeight(), 10.0)


def test_integrate_1d_basics():
    v, e = integrate_1d(lambda t: np.sin(t), [0.0, 1.0, math.pi], tol=1e-12)
    assert v == pytest.approx(2.0, abs=1e-11)
    assert e <= 1e-11


def test_truncated_plane_weighted_norm():
    w = ImAbsPlusPower(0.5)
    dom = TruncatedPlane(40.0)
    v, e = weighted_norm_sq(
        lambda z: np.cos(0.5 * np.asarray(z, dtype=complex)), dom, w, 1e-4, rule_order=12
    )
    # frozen reference from this engine, cross-checked against a cartesian
    # midpoint-grid oracle (rel. 1e-5) during development
    assert v == pytest.approx(17.723388, rel=2e-4)
    assert e <= 1e-4


def test_atom_off_center(unit_disc):
    """Interior singular point away from the radial center."""
    v, e = integrate(unit_disc, lambda z: np.abs(z - 0.4) ** -1.0, (0.4 + 0j,), 1e-6)
    # oracle: Monte-Carlo at 3-sigma, plus the exact centered value as scale
    gen = np.random.default_rng(99)
    zs = gen.uniform(-1, 1, (400_000, 2))
    zz = zs[:, 0] + 1j * zs[:, 1]
    zz = zz[np.abs(zz) < 1]
    vals = np.abs(zz - 0.4) ** -1.0
    mc = vals.mean() * math.pi
    sigma = vals.std() / math.sqrt(len(vals)) * math.pi
    assert abs(v.real - mc) <= 4 * sigma + 1e-6

    # order 1.4 at tol 1e-10: the singular ladder stops at its floor, and no
    # exported node comes near the atom or into the capped zone of
    # weight_factor. The second atom lies 1e-3 rad from the initial theta
    # edge 5 pi / 4, where a floor on the core's longer reach let the shorter
    # side collapse; the third lies on the edge pi / 4, where cutting both
    # sides at every ladder step left sliver cells. exact: int_0^2pi R(t)^0.6
    # dt / 0.6 (mpmath), R(t) the distance from z0 to the unit circle in
    # direction t
    for z0, exact in (
        (0.3 + 0.2j, 10.174235467232133),
        (-0.1773314278149586 - 0.17696848320868075j, 10.331286503501083),
        (0.3 * cmath.exp(0.25j * math.pi), 10.268498033270244),
    ):
        w = LogPotential([(z0, 1.4)])
        grid = build_grid(
            unit_disc, lambda z: weight_factor(w, z), w.quadrature_singularities(), 1e-10,
            max_cells=2000,
        )
        assert np.max(-w.evaluate(grid.nodes)) < 700
        assert np.min(np.abs(grid.nodes - z0)) > 1e-14 * abs(z0)
        assert abs(grid.value.real - exact) <= grid.error_estimate
        # cells near the atom stay near-square: (dtheta r) / (du width), with
        # width 1 and r the radius of the cell centre on the unit disc
        c = grid.cells
        r = 0.5 * (c.u0 + c.u1)
        near = np.abs(r * np.exp(0.5j * (c.t0 + c.t1)) - z0) < 1e-2
        aspect = (c.t1 - c.t0)[near] * r[near] / (c.u1 - c.u0)[near]
        assert 0.05 <= aspect.min() and aspect.max() <= 20


def test_atom_on_theta_edge(unit_disc):
    """An atom on, or 1e-7 rad from, the initial theta edge pi / 4 of the disc
    meets a 1e-10 tol, and its error estimate bounds the true error."""
    for z0 in (0.3 * cmath.exp(0.25j * math.pi), 0.3 * cmath.exp(1j * (0.25 * math.pi + 1e-7))):
        w = LogPotential([(z0, 1.2)])
        grid = build_grid(
            unit_disc, lambda z: weight_factor(w, z), w.quadrature_singularities(), 1e-10,
            max_cells=2000,
        )
        # exact: int_0^2pi R(t)^0.8 dt / 0.8 (mpmath), R(t) as in test_atom_off_center
        err = abs(grid.value.real - 7.680510302551679)
        assert err <= grid.error_estimate <= 1e-10 * grid.value.real
