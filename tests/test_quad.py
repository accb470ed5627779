import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from wbl import (
    Disc,
    ImAbsPlusPower,
    LogPotential,
    TruncatedPlane,
    ZeroWeight,
    best_poly_approx,
    build_grid,
    gram_matrix,
    integrate,
    integrate_1d,
    moon_stage,
    truncation_tail,
    weighted_norm_sq,
)
from wbl import quad
from wbl.quad import _gauss, inner_product, weight_factor
from wbl.weights import quadrature_points
from wbl.errors import (
    InvalidParameters,
    NonIntegrableSingularity,
    ToleranceNotMet,
    UnsupportedGrowth,
)

ONE = lambda z: np.ones(z.shape)


def test_unit_disc_area(unit_disc):
    v, e = integrate(unit_disc, ONE, (), 1e-10)
    assert v.real == pytest.approx(math.pi, abs=1e-10)


def test_inverse_abs_singularity(unit_disc):
    v, e = integrate(unit_disc, lambda z: 1 / np.abs(z), ((0j, 1.0),), 1e-8)
    assert v.real == pytest.approx(2 * math.pi, abs=1e-8)
    assert e <= 1e-8


def test_power_singularity(unit_disc):
    v, e = integrate(unit_disc, lambda z: np.abs(z) ** -1.5, ((0j, 1.5),), 1e-8)
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
    v, e = integrate(figure_moon, lambda z: np.abs(z) ** -alpha, ((0j, alpha),), 1e-10)
    assert abs(v.real - ref) <= e <= 1e-10


@pytest.mark.parametrize("q", [8, 12, 24])
@pytest.mark.parametrize("beta", [-0.5, 0.3, 0.9])
def test_gauss_jacobi_rule(q, beta):
    """Golub-Welsch nodes and weights match scipy's, and the rule, with its
    weights divided by (1 + x)^beta, is exact on (1 + x)^beta x^k, k < 2q."""
    x, w = _gauss(q, beta)
    xs, ws = sp.roots_jacobi(q, 0.0, beta)
    assert np.max(np.abs(x - xs)) <= 1e-14
    assert np.max(np.abs(w * (1 + x) ** beta / ws - 1)) <= 1e-11
    # int_-1^1 (1 + x)^beta x^k dx = 2^(beta+1) sum_j C(k, j) (-1)^(k-j) 2^j / (beta+j+1),
    # the sum taken exactly in rationals
    b = Fraction(beta)
    for k in range(2 * q):
        terms = (math.comb(k, j) * (-1) ** (k - j) * 2**j / (b + j + 1) for j in range(k + 1))
        exact = 2 ** (beta + 1) * float(sum(terms))
        got = float(np.sum(w * (1 + x) ** beta * x**k))
        assert abs(got - exact) <= 1e-13 * 2 ** (beta + 1) / (beta + 1)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_center_integrated_by_gauss_jacobi_at_exact_order(unit_disc, alpha):
    """With the center's exact order, each theta segment of a branch from the
    center has one Gauss-Jacobi cell [0, 1/4] and no ladder below it."""

    def pilot(z):
        return np.abs(z) ** -alpha * (1 + np.abs(z) ** 40)

    grid = build_grid(unit_disc, pilot, ((0j, alpha),), 1e-10, 12)
    exact = 2 * math.pi * (1 / (2 - alpha) + 1 / (42 - alpha))
    assert grid.value.real == pytest.approx(exact, rel=1e-12)
    # the exported nodes and weights are a plain-Lebesgue rule
    assert float(np.sum(grid.weights * pilot(grid.nodes))) == pytest.approx(exact, rel=1e-12)
    inner = grid.cells.u0 < 0.25
    assert np.all(grid.cells.u0[inner] == 0.0) and np.all(grid.cells.u1[inner] == 0.25)
    assert inner.sum() == 8
    # the 8 rungs [1/4, 1] are split once for the |z|^40 term at rule order 12
    assert grid.n_cells <= 40


def test_center_core_budget_counted_once(unit_disc, monkeypatch):
    """A lone singular center gets the whole core budget 0.25 tol."""
    budgets = []
    treat = quad._Engine._treat_center

    def record(self, budget, *args):
        budgets.append(budget)
        return treat(self, budget, *args)

    monkeypatch.setattr(quad._Engine, "_treat_center", record)
    integrate(unit_disc, lambda z: np.abs(z) ** -1, ((0j, 1.0),), 1e-8)
    assert budgets == [pytest.approx(2.5e-9, rel=1e-15)]


@pytest.mark.parametrize(
    "orders, point, tol, ref",
    # mpmath at 20 digits: each half of the disc cut by the perpendicular
    # bisector of the atoms, in polar coordinates about its own atom
    [((1.5, 0.3), 0.1, 1e-8, 19.633179824788634), ((0.5, 0.2), 0.2, 1e-3, 4.765563280542095)],
)
def test_atom_near_singular_center(unit_disc, orders, point, tol, ref):
    """An atom in [0, 1/4] of the radius: the center's Gauss-Jacobi cells
    shrink past it at 1e-8, but hold it at 1e-3, where the parts at u = 0 of
    the cells its Duffy box overlaps keep the Jacobi rule."""

    def g(z):
        return np.abs(z) ** -orders[0] * np.abs(z - point) ** -orders[1]

    v, e = integrate(unit_disc, g, ((0j, orders[0]), (point, orders[1])), tol)
    assert abs(v.real - ref) <= e <= tol


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
        v, _ = integrate(unit_disc, lambda z: np.abs(z) ** -1.5, ((0j, 1.5),), tol)
        errors.append(abs(v.real - 4 * math.pi))
    assert all(b <= a + 1e-14 for a, b in zip(errors, errors[1:]))


def test_deterministic_reruns(unit_moon):
    def g(z):
        return np.abs(z) ** -0.5 * np.exp(1j * z).real

    v1, e1 = integrate(unit_moon, g, ((0j, 0.5),), 1e-9)
    v2, e2 = integrate(unit_moon, g, ((0j, 0.5),), 1e-9)
    assert v1 == v2 and e1 == e2


def test_non_integrable_singularity_detected(unit_disc):
    """A point with several entries takes the largest order, here 2.2."""
    with pytest.raises(NonIntegrableSingularity):
        integrate(unit_disc, lambda z: np.abs(z) ** -2.2, ((0j, 0.5), (0j, 2.2)), 1e-6)


def test_plain_singular_point_is_rejected(unit_disc):
    """Orders are given, never sampled: a point without one is invalid."""
    with pytest.raises(InvalidParameters):
        integrate(unit_disc, lambda z: np.abs(z) ** -1.5, (0j,), 1e-8)
    with pytest.raises(InvalidParameters):
        build_grid(unit_disc, lambda z: np.abs(z - 0.3) ** -1.0, (0.3 + 0j,), 1e-8)
    with pytest.raises(InvalidParameters):
        best_poly_approx(lambda z: 1 / (z - 2), unit_disc, ZeroWeight(), f_singularities=(0.5,))


def test_non_integrable_exact_order_detected(unit_disc):
    with pytest.raises(NonIntegrableSingularity):
        integrate(unit_disc, lambda z: np.abs(z) ** -2.2, ((0j, 2.2),), 1e-6)


def test_strict_tolerance_raises(unit_disc):
    with pytest.raises(ToleranceNotMet) as info:
        integrate(
            unit_disc,
            lambda z: 1 / np.abs(z - 0.3),
            ((0.3 + 0j, 1.0),),
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


def test_truncation_tail_is_an_upper_bound_at_40_digits():
    """The bound never falls below 2 pi / p * Gamma(2/p, R^p): rounding the
    panel sum up by 16 eps covers its last-bit shortfalls (7e-16 relative)."""
    with mpmath.workdps(40):
        for p in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            for R in (0.0, 0.5, 1.0, 5.0, 10.0, 40.0, 100.0):
                q = mpmath.mpf(p)
                exact = 2 * mpmath.pi / q * mpmath.gammainc(2 / q, mpmath.mpf(R) ** q)
                assert truncation_tail(ImAbsPlusPower(p), R) >= exact, (p, R)


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
    v, e = integrate(unit_disc, lambda z: np.abs(z - 0.4) ** -1.0, ((0.4 + 0j, 1.0),), 1e-6)
    # oracle: Monte-Carlo at 3-sigma, plus the exact centered value as scale
    gen = np.random.default_rng(99)
    zs = gen.uniform(-1, 1, (400_000, 2))
    zz = zs[:, 0] + 1j * zs[:, 1]
    zz = zz[np.abs(zz) < 1]
    vals = np.abs(zz - 0.4) ** -1.0
    mc = vals.mean() * math.pi
    sigma = vals.std() / math.sqrt(len(vals)) * math.pi
    assert abs(v.real - mc) <= 4 * sigma + 1e-6

    # order 1.4 at tol 1e-10: no exported node comes near the atom
    # or into the capped zone of weight_factor. The second atom lies 1e-3
    # rad from the initial theta edge 5 pi / 4, the third on the edge pi / 4.
    # exact: int_0^2pi R(t)^0.6 dt / 0.6 (mpmath), R(t) the distance from z0
    # to the unit circle in direction t
    for z0, exact in (
        (0.3 + 0.2j, 10.174235467232133),
        (-0.1773314278149586 - 0.17696848320868075j, 10.331286503501083),
        (0.3 * cmath.exp(0.25j * math.pi), 10.268498033270244),
    ):
        w = LogPotential([(z0, 1.4)])
        grid = build_grid(
            unit_disc, lambda z: weight_factor(w, z), quadrature_points(w), 1e-10,
            max_cells=2000,
        )
        assert np.max(-w.evaluate(grid.nodes)) < 700
        assert np.min(np.abs(grid.nodes - z0)) > 1e-14 * abs(z0)
        assert abs(grid.value.real - exact) <= grid.error_estimate
        # the Duffy box around the atom is near-square: (h_theta r) / (h_u
        # width), with width 1 and r = u of the apex on the unit disc
        (theta, u, h_theta, h_u), = _duffy_boxes(grid)
        assert abs(u * cmath.exp(1j * theta) - z0) < 1e-12
        aspect = h_theta * u / h_u
        assert 0.05 <= aspect <= 20


def test_atom_on_theta_edge(unit_disc):
    """An atom on, or 1e-7 rad from, the initial theta edge pi / 4 of the disc
    meets a 1e-10 tol, and its error estimate bounds the true error."""
    for z0 in (0.3 * cmath.exp(0.25j * math.pi), 0.3 * cmath.exp(1j * (0.25 * math.pi + 1e-7))):
        w = LogPotential([(z0, 1.2)])
        grid = build_grid(
            unit_disc, lambda z: weight_factor(w, z), quadrature_points(w), 1e-10,
            max_cells=2000,
        )
        # exact: int_0^2pi R(t)^0.8 dt / 0.8 (mpmath), R(t) as in test_atom_off_center
        err = abs(grid.value.real - 7.680510302551679)
        assert err <= grid.error_estimate <= 1e-10 * grid.value.real


def _duffy_boxes(grid):
    """(theta, u, h_theta, h_u) of each Duffy box of a grid: its apex and the
    half-sides of the box that its triangles (A, P - A, P' - P) tile."""
    d = grid.cells.duffy
    d = d[~np.isnan(d[:, 0])]
    boxes = []
    for apex in np.unique(d[:, :2], axis=0):
        m = np.all(d[:, :2] == apex, axis=1)
        h_theta = np.max(np.abs([d[m, 2], d[m, 2] + d[m, 4]]))
        h_u = np.max(np.abs([d[m, 3], d[m, 3] + d[m, 5]]))
        boxes.append((apex[0], apex[1], h_theta, h_u))
    return boxes


def _count_engine_cells(monkeypatch):
    """The cell count of every engine run from here on."""
    counts = []
    run = quad._Engine.run

    def record(self):
        out = run(self)
        counts.append(len(self.t0))
        return out

    monkeypatch.setattr(quad._Engine, "run", record)
    return counts


@pytest.mark.parametrize("alpha", [0.5, 1.4, 1.9])
def test_lone_duffy_cell_is_exact(unit_disc, alpha):
    """The rule of one Duffy triangle integrates s^(1 - a) s^j t^k exactly
    for j, k < 2q: the Jacobian r width s |det| is undone by g, which reads
    (t, s) back off each node of the unit disc, where r = u and width = 1."""
    q = 8
    apex, d1, d2 = (1.0, 0.5), (0.4, 0.2), (-0.4, 0.0)
    det = abs(d1[0] * d2[1] - d1[1] * d2[0])
    # (theta, u) - A = [d1 d2] (s, s t)
    inv = np.linalg.inv(np.array([[d1[0], d2[0]], [d1[1], d2[1]]]))
    cell = (np.zeros(1), np.ones(1), np.zeros(1), np.ones(1), np.zeros(1, dtype=np.int64),
            np.full(1, 1.0 - alpha), np.array([apex + d1 + d2]))
    for j, k in ((0, 0), (2 * q - 1, 0), (0, 2 * q - 1), (3, 5), (2 * q - 1, 2 * q - 1)):

        def g(z, j=j, k=k):
            dt, du = np.angle(z) - apex[0], np.abs(z) - apex[1]
            s = inv[0, 0] * dt + inv[0, 1] * du
            t = (inv[1, 0] * dt + inv[1, 1] * du) / s
            return s ** (j - alpha) * t**k / (np.abs(z) * det)

        eng = quad._Engine(unit_disc, g, (), 1e-10, q, 100)
        got = eng._rule(*cell)[0]
        assert got.real == pytest.approx(1 / ((2 - alpha + j) * (k + 1)), rel=1e-13)


def test_weighted_norm_sq_takes_exact_atom_orders(unit_disc, monkeypatch):
    """weighted_norm_sq pairs each atom with its Lelong number: the centred
    atom of order 1.5 needs no more cells than integrate given (0, 1.5), and
    an off-centre atom meets its 1-D reference."""
    counts = _count_engine_cells(monkeypatch)
    v, e = weighted_norm_sq(ONE, unit_disc, LogPotential([(0j, 1.5)]), 1e-8)
    assert abs(v - 4 * math.pi) <= e <= 1e-8
    assert counts == [counts[0]] and counts[0] <= 40
    z0 = 0.5 * cmath.exp(0.7j)
    v, e = weighted_norm_sq(ONE, unit_disc, LogPotential([(z0, 1.3)]), 1e-9)
    # int_0^2pi R(t)^0.7 dt / 0.7 (mpmath), R(t) as in test_atom_off_center
    assert abs(v - 8.4263349702494712) <= e <= 1e-9


def test_estimate_floored_at_rounding(unit_disc):
    """A rule exact on the integrand still reports the rounding of its sum."""
    v, e = integrate(unit_disc, lambda z: np.abs(z) ** 4, (), 1e-10, rule_order=12)
    assert e >= abs(v - math.pi / 3)
    v, e = integrate(unit_disc, ONE, (), 1e-10)
    assert e > 0.0


@pytest.mark.parametrize(
    "alpha, exact",
    # int_0^2pi R(t)^(2-a) dt / (2-a) (mpmath), R(t) as in test_atom_off_center
    [(1.0, 6.1393338596929962), (1.4, 10.268498033270245), (1.9, 62.551361596108133)],
)
def test_atom_near_theta_edge_takes_duffy_box(unit_disc, alpha, exact):
    """An atom 1e-9 rad from the movable initial edge pi / 4: the edge gives
    way to the box, which stays near-square, and the grid meets its tol."""
    z0 = 0.3 * cmath.exp(1j * (0.25 * math.pi + 1e-9))
    grid = build_grid(unit_disc, lambda z: np.abs(z - z0) ** -alpha, ((z0, alpha),), 1e-10)
    assert abs(grid.value.real - exact) <= grid.error_estimate <= 1e-10 * grid.value.real
    (theta, u, h_theta, h_u), = _duffy_boxes(grid)
    assert 0.05 <= h_theta * u / h_u <= 20 and h_theta > 0.1
    assert grid.n_cells <= 400


def test_offcenter_atom_converges_at_tight_tol(unit_disc):
    """The order-1.4 atom that used to refine to 100,000 cells at tol 1e-12,
    bounded by an excluded core, is integrated to its tol in few cells."""
    z0 = 0.3 + 0.2j
    w = LogPotential([(z0, 1.4)])
    grid = build_grid(unit_disc, lambda z: weight_factor(w, z), quadrature_points(w), 1e-12)
    # exact as in test_atom_off_center
    assert abs(grid.value.real - 10.174235467232133) <= grid.error_estimate
    assert grid.error_estimate <= 1e-12 * grid.value.real
    assert grid.n_cells <= 2000


@pytest.mark.parametrize(
    "points, alphas, exact",
    # 2-D mpmath at 20 digits: each half of the disc cut by the perpendicular
    # bisector of the atoms, in polar coordinates about its own atom
    [
        ((0.3 + 0j, 0.6 + 0j), (1.2, 0.6), 12.996522384370866),
        ((0.4 + 0.1j, 0.4 + 0.1j + 1e-3 * cmath.exp(0.5j)), (1.0, 0.6), 14.705594074398881),
    ],
)
def test_two_atoms_get_disjoint_boxes(unit_disc, points, alphas, exact):
    """Two atoms on one ray (the disc's first theta edge), and two atoms 1e-3
    apart: each is the apex of its own box, the boxes are disjoint, and the
    product of the two powers meets its reference within the estimate."""

    def g(z):
        return np.abs(z - points[0]) ** -alphas[0] * np.abs(z - points[1]) ** -alphas[1]

    grid = build_grid(unit_disc, g, tuple(zip(points, alphas)), 1e-10)
    assert abs(grid.value.real - exact) <= grid.error_estimate <= 1e-10 * grid.value.real
    (t1, u1, ht1, hu1), (t2, u2, ht2, hu2) = _duffy_boxes(grid)
    apexes = [u * cmath.exp(1j * t) for t, u in ((t1, u1), (t2, u2))]
    assert all(min(abs(a - p) for a in apexes) < 1e-14 for p in points)
    dt = abs((t1 - t2 + math.pi) % (2 * math.pi) - math.pi)
    assert dt >= ht1 + ht2 or abs(u1 - u2) >= hu1 + hu2
    assert grid.n_cells <= 1000


def test_sampled_order_off_center(unit_disc):
    """An off-centre point given with its exact order 1.5 gets the Duffy box
    at that order and meets the 1-D reference."""
    z0 = -0.35 + 0.45j
    v, e = integrate(unit_disc, lambda z: np.abs(z - z0) ** -1.5, ((z0, 1.5),), 1e-9)
    # int_0^2pi R(t)^0.5 dt / 0.5 (mpmath), R(t) as in test_atom_off_center
    assert abs(v.real - 11.700863899987847) <= e <= 1e-9


def test_duffy_cells_stop_at_split_floor(unit_disc):
    """Given too low an order (1.4 for a 1.9 singularity), the Gauss-Jacobi
    rule at the apex is not exact and the cells there refine toward it; they
    stop where their reach from the apex would fall below 1e-13 |z0|, so no
    node comes near the atom, and the estimate shows the shortfall."""
    z0 = 0.3 + 0.2j

    def g(z):
        return np.abs(z - z0) ** -1.4 + np.abs(z - z0) ** -1.9

    grid = build_grid(unit_disc, g, ((z0, 1.4),), 1e-6, max_cells=3000)
    assert grid.n_cells < 3000
    assert np.min(np.abs(grid.nodes - z0)) > 1e-15 * abs(z0)
    assert grid.error_estimate > 1e-6 * grid.value.real


def _runaway(z):
    """|z - z0|^-1.9 at z0 = 0.3 + 0.2j, plus the order-1.4 term it is passed as."""
    return np.abs(z - (0.3 + 0.2j)) ** -1.4 + np.abs(z - (0.3 + 0.2j)) ** -1.9


def test_floored_cells_over_tol_stop_refinement(unit_disc, monkeypatch):
    """Given too low an order, the cells at the apex reach the split floor
    with estimates that sum above tol, and no refinement can meet it: the
    engine stops there instead of refining every other cell toward
    max_cells (100,356 cells and several seconds when it did not)."""
    counts = _count_engine_cells(monkeypatch)
    with pytest.raises(ToleranceNotMet) as info:
        integrate(unit_disc, _runaway, ((0.3 + 0.2j, 1.4),), 1e-6, strict=True)
    assert counts[0] <= 12_000
    assert info.value.err > 1e-6


def test_rule_batch_is_bitwise_per_cell(unit_disc):
    """_rule on one batch of plain, Gauss-Jacobi and Duffy cells, more than
    one chunk, gives bitwise the values of the same cells one at a time:
    batching a round changes no result."""
    z0 = 0.4 + 0.3j

    def g(z):
        return np.abs(z) ** -1.5 * np.abs(z - z0) ** -1.2 * np.cos(3 * z.real)

    eng = quad._Engine(unit_disc, g, ((0j, 1.5), (z0, 1.2)), 1e-9, 8, 100_000)
    eng.run()
    cells = tuple(getattr(eng, name) for name in quad._CELL_FIELDS[:7])
    tri = ~np.isnan(eng.duffy[:, 0])
    assert tri.any() and (eng.beta[~tri] != 0).any() and (eng.beta[~tri] == 0).any()
    reps = -(-(quad._CHUNK + 1) // (len(eng.t0) * eng.q**2))
    cells = tuple(np.concatenate([c] * reps) for c in cells)
    assert len(cells[0]) * eng.q**2 > quad._CHUNK
    batch = eng._rule(*cells)
    one = np.concatenate([eng._rule(*(c[i : i + 1] for c in cells)) for i in range(len(cells[0]))])
    assert batch.tobytes() == one.tobytes()


def test_rule_chunks_stay_under_cap(unit_disc, monkeypatch):
    """The runaway case's rounds value thousands of cells at once; no chunk
    of _rule sees more than _CHUNK nodes, and the rounds do take several."""
    sizes, calls = [], []
    chunk, rule = quad._Engine._rule_chunk, quad._Engine._rule

    def record_chunk(self, *cells):
        sizes.append(len(cells[0]) * self.q**2)
        return chunk(self, *cells)

    def record_rule(self, *cells):
        calls.append(len(cells[0]))
        return rule(self, *cells)

    monkeypatch.setattr(quad._Engine, "_rule_chunk", record_chunk)
    monkeypatch.setattr(quad._Engine, "_rule", record_rule)
    integrate(unit_disc, _runaway, ((0.3 + 0.2j, 1.4),), 1e-6)
    assert max(sizes) <= quad._CHUNK
    assert len(sizes) > len(calls)


def test_one_rule_pass_per_values(unit_disc, monkeypatch):
    """A batch of cells and its 2x2 split are valued in one _rule call, where
    the per-child passes took five."""
    counts = {"_rule": 0, "_values": 0}
    for name in counts:
        orig = getattr(quad._Engine, name)

        def wrapped(self, *cells, orig=orig, name=name):
            counts[name] += 1
            return orig(self, *cells)

        monkeypatch.setattr(quad._Engine, name, wrapped)
    gram_matrix(unit_disc, LogPotential([(0.3 + 0.2j, 1.2)]), N=3, tol=1e-10)
    assert counts["_values"] > 0 and counts["_rule"] == counts["_values"]


def test_cells_on_empty_sections_are_not_evaluated():
    """The strip's sections are empty outside its window; cells there are
    worth 0 without a call of the integrand, so one that is NaN off the strip
    gives bitwise the plain integrand's value and error."""
    _, strip = moon_stage(1, [0.2])

    def g(z):
        return np.abs(z) ** 2 + np.cos(3 * z.real)

    def nan_off_strip(z):
        return np.where(strip.contains(z), g(z), np.nan)

    value, err = integrate(strip, nan_off_strip, (), 1e-10)
    assert math.isfinite(value.real) and math.isfinite(err)
    assert (value, err) == integrate(strip, g, (), 1e-10)
