import math

import numpy as np
import pytest

from conftest import sample_interior
from wbl import (
    BranchSpec,
    LogPotential,
    Polynomial,
    ZeroWeight,
    branch_sqrt,
    change_of_variables_check,
    contains,
    density_scan,
    integrate,
    make_branch_spec,
    moon_density_criterion,
    moon_stage,
    parity_split,
    strip_budget_search,
)
from wbl import bergman, moon
from wbl.quad import weight_factor
from wbl.errors import CutIntersectsDomain, InvalidParameters, ToleranceNotMet


def test_branch_values(unit_moon):
    spec = make_branch_spec(unit_moon)
    assert spec.direction == pytest.approx(1.0)
    assert branch_sqrt(unit_moon, spec, -1 + 0j) == pytest.approx(1j, abs=1e-15)
    assert branch_sqrt(unit_moon, spec, -0.25 + 0j) == pytest.approx(0.5j, abs=1e-15)


CUT_DIRECTIONS = [np.exp(1j * t) for t in (0.0, 0.3, 1.0, math.pi / 2, 2.5)] + [-1.0, -1j, -1 - 1j]


@pytest.mark.parametrize("direction", CUT_DIRECTIONS)
def test_branch_matches_angle_formula(direction):
    """One complex sqrt gives sqrt|z| e^(i arg/2) with arg in the cut's window."""
    spec = BranchSpec(direction)
    rng = np.random.default_rng(7)
    z = (rng.normal(size=2000) + 1j * rng.normal(size=2000)) * np.exp(rng.uniform(-8, 8, 2000))
    th = spec.theta_cut
    want = np.sqrt(np.abs(z)) * np.exp(0.5j * (th + (np.angle(z) - th) % (2 * math.pi)))
    assert np.max(np.abs(spec.sqrt(z) - want) / np.abs(want)) <= 2e-15


@pytest.mark.parametrize("direction", CUT_DIRECTIONS)
def test_branch_argument_window_at_the_cut(direction):
    """1e-9 rad on either side of the cut the argument stays in
    [theta_cut/2, theta_cut/2 + pi): the branch jumps only across the ray."""
    spec = BranchSpec(direction)
    th = spec.theta_cut
    r = np.array([1e-3, 0.7, 1.0, 40.0])
    for side in (1e-9, -1e-9):
        rel = (np.angle(spec.sqrt(r * np.exp(1j * (th + side)))) - th / 2) % (2 * math.pi)
        assert bool(np.all(rel < math.pi))
        assert bool(np.all(np.abs(rel - (0.0 if side > 0 else math.pi)) < 1e-9))


def test_branch_squares_back(unit_moon):
    spec = make_branch_spec(unit_moon)
    pts = sample_interior(unit_moon, 300)
    w = spec.sqrt(pts)
    assert np.max(np.abs(w * w - pts) / np.abs(pts)) < 1e-14


def test_branch_continuity_loop(unit_moon):
    """sqrt along a dense closed mid-channel path returns to its start."""
    spec = make_branch_spec(unit_moon)
    fwd = np.linspace(0.35, 2 * math.pi - 0.35, 10001)
    theta = np.concatenate([fwd, fwd[::-1][1:]])
    sections = unit_moon.radial_sections(theta)
    mid = 0.5 * (sections[:, 0, 0] + sections[:, 0, 1])
    path = mid * np.exp(1j * theta)
    assert bool(np.all(unit_moon.contains(path)))
    vals = spec.sqrt(path)
    steps = np.abs(np.diff(vals))
    assert np.max(steps) < 2e-3  # no branch jump anywhere along the loop
    assert vals[0] == pytest.approx(vals[-1], abs=1e-12)


def test_cut_must_miss_domain(unit_moon):
    with pytest.raises(CutIntersectsDomain):
        make_branch_spec(unit_moon, direction=-1.0 + 0j)


def test_parity_split_examples():
    p = Polynomial((1 + 0j, 0j, 1 + 0j, 1 + 0j))  # 1 + w^2 + w^3
    p1, p2 = parity_split(p)
    assert np.allclose(p1.coeffs, [1, 1])
    assert np.allclose(p2.coeffs, [0, 1])
    one = Polynomial((1 + 0j,))
    p1, p2 = parity_split(one)
    assert np.allclose(p1.coeffs, [1]) and p2.degree == -1
    w_poly = Polynomial((0j, 1 + 0j))
    p1, p2 = parity_split(w_poly)
    assert p1.degree == -1 and np.allclose(p2.coeffs, [1])


def test_parity_split_identity(rng):
    for _ in range(10):
        deg = int(rng.integers(0, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        p = Polynomial(tuple(coeffs), 0j, 1.7)
        p1, p2 = parity_split(p)
        w = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        lhs = p(w)
        rhs = p1(w**2) + w * p2(w**2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_parity_needs_origin_center():
    with pytest.raises(InvalidParameters):
        parity_split(Polynomial((1 + 0j,), center=1.0 + 0j))


@pytest.mark.parametrize(
    "f_tag,weight",
    [("one", ZeroWeight()), ("inv-sqrt", ZeroWeight()), ("z", LogPotential([(0j, 0.5)]))],
)
def test_change_of_variables(unit_moon, f_tag, weight):
    spec = make_branch_spec(unit_moon)
    if f_tag == "one":
        f = lambda z: np.ones(np.shape(z), dtype=complex)
    elif f_tag == "inv-sqrt":
        f = lambda z: 1.0 / spec.sqrt(z)
    else:
        f = lambda z: np.asarray(z, dtype=complex)
    lhs, rhs, disc, err = change_of_variables_check(f, unit_moon, weight, spec, 1e-9)
    assert disc <= err + 1e-12
    assert lhs > 0


def test_inv_sqrt_transform_restatement(unit_moon, rng):
    """||1/sqrt(z) - R(z)|| equals the |z|^-1-weighted norm of 1 - sqrt(z) R(z)."""
    spec = make_branch_spec(unit_moon)
    w = ZeroWeight()
    for _ in range(5):
        deg = int(rng.integers(0, 7))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        R = Polynomial(tuple(coeffs), 0j, 1.0)

        def g_direct(z):
            return np.abs(1.0 / spec.sqrt(z) - R(z)) ** 2 * weight_factor(w, z)

        def g_transformed(z):
            return np.abs(1.0 - spec.sqrt(z) * R(z)) ** 2 * weight_factor(w, z) / np.abs(z)

        v1, e1 = integrate(unit_moon, g_direct, (), 1e-9)
        v2, e2 = integrate(unit_moon, g_transformed, (), 1e-9)
        assert abs(v1.real - v2.real) <= e1 + e2 + 1e-10 * max(1.0, v1.real)


def test_criterion_requires_origin_in_hole(figure_moon):
    with pytest.raises(InvalidParameters):
        moon_density_criterion(figure_moon, ZeroWeight(), N_max=4)


def test_moon_density_criterion_report(unit_moon, monkeypatch):
    grids = []
    build_grid = bergman.build_grid

    def counted(*args, **kw):
        grids.append(1)
        return build_grid(*args, **kw)

    monkeypatch.setattr(bergman, "build_grid", counted)
    rep = moon_density_criterion(unit_moon, ZeroWeight(), N_max=12, tol=1e-8, rule_order=12)
    # both targets share one grid
    assert len(grids) == 1
    d = np.array(rep["distances"])
    assert len(d) == 13
    assert bool(np.all(np.diff(d) <= 1e-10))
    assert rep["criterion"] == "polynomials dense iff inv-sqrt approximable"
    assert set(rep["control"]) == {"pole", "distances", "verdict"}
    # bounded weight on a two-circle moon: distances stall well above zero
    assert d[-1] > 0.2 * d[0]
    # each sequence is the one its own scan, on its own grid, gives
    spec = make_branch_spec(unit_moon)
    p_hole = unit_moon.inner.center
    for got, f in (
        (rep["distances"], lambda z: 1.0 / spec.sqrt(z)),
        (rep["control"]["distances"], lambda z: 1.0 / (z - p_hole)),
    ):
        want = density_scan(f, unit_moon, ZeroWeight(), N_max=12, tol=1e-8, rule_order=12).distances
        assert np.linalg.norm(np.array(got) - want) <= 1e-8 * np.linalg.norm(want)


def test_density_scan_polynomial_control(unit_moon):
    f = lambda z: np.asarray(z, dtype=complex) ** 2
    scan = density_scan(f, unit_moon, ZeroWeight(), N_max=5, tol=1e-10, rule_order=12)
    assert scan.verdict == "decaying"
    assert scan.distances[2] < 1e-9


def test_stage_one_literal_region():
    region, strip = moon_stage(1, [0.1])
    assert contains(region, 0.9j)
    assert not contains(region, 0.9 + 0j)
    assert not contains(region, 0.1 + 0j)
    z = 0.98 * np.exp(1j * math.pi / 4 * 0.9)
    assert contains(strip, complex(z))
    assert not contains(strip, 0.95 + 0j)


def test_stage_nesting(rng):
    d1, _ = moon_stage(1, [0.1])
    d2, _ = moon_stage(2, [0.1, 0.05])
    pts = rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-1, 1, 4000)
    in1 = d1.contains(pts)
    in2 = d2.contains(pts)
    assert bool(np.all(~in1 | in2))
    assert in2.sum() > in1.sum()


def test_stage_parameter_validation():
    with pytest.raises(InvalidParameters):
        moon_stage(0, [0.1])
    with pytest.raises(InvalidParameters):
        moon_stage(2, [0.1])  # too few alphas
    with pytest.raises(InvalidParameters):
        moon_stage(2, [0.1, 0.2])  # not decreasing
    with pytest.raises(InvalidParameters):
        moon_stage(1, [0.3])  # must stay below 1/4


def test_stage_two_scan_decreases():
    region, _ = moon_stage(2, [0.1, 0.05])
    spec = BranchSpec(1.0 + 0j)
    scan = density_scan(
        lambda z: 1.0 / spec.sqrt(z), region, ZeroWeight(), N_max=12, tol=1e-8, rule_order=12
    )
    assert bool(np.all(np.diff(scan.distances) < 0))


def test_strip_budget_search_meets_target():
    region, _ = moon_stage(1, [0.1])
    spec = BranchSpec(1.0 + 0j)
    scan = density_scan(
        lambda z: 1.0 / spec.sqrt(z), region, ZeroWeight(), N_max=10, tol=1e-8, rule_order=12
    )
    alpha, val, err = strip_budget_search(
        1, [0.1], scan.approx.polynomial, ZeroWeight(), tol=1e-5, rule_order=12
    )
    assert 0 < alpha <= 0.1
    assert val + err < 0.25
    # the found strip really integrates below budget under a fresh region build
    _, strip = moon_stage(1, [alpha])

    def g(z):
        return np.abs(1.0 / spec.sqrt(z) - scan.approx.polynomial(z)) ** 2

    v, e = integrate(strip, g, (), 1e-5, rule_order=12)
    assert v.real < 0.25


def test_strip_budget_search_failure_is_tolerance_not_met(monkeypatch):
    """A search that runs out of alphas is a numerical failure carrying the
    last trial's value, not invalid input: alpha 0.2 and 0.1 are tried, 0.05
    is at the floor."""
    calls = []
    integrate_ = moon.integrate

    def counting(*args, **kw):
        calls.append(integrate_(*args, **kw))
        return calls[-1]

    monkeypatch.setattr(moon, "integrate", counting)
    P = Polynomial((1.0, -0.5), 0j, 1.0)
    with pytest.raises(ToleranceNotMet) as info:
        strip_budget_search(1, [0.2], P, ZeroWeight(), target=1e-30, alpha_floor=0.05)
    assert len(calls) == 2
    val, err = calls[-1]
    assert (info.value.value, info.value.err) == (val.real, err)
    assert val.real > 1e-30
    # an alpha_k already at the floor is bad input: no search was possible
    with pytest.raises(InvalidParameters):
        strip_budget_search(1, [0.05], P, ZeroWeight(), target=1e-30, alpha_floor=0.05)
    assert len(calls) == 2


@pytest.mark.parametrize("k, alphas", [(2, [0.1]), (0, [0.1]), (-1, [0.1, 0.05])])
def test_strip_budget_search_rejects_a_stage_without_its_alpha(k, alphas):
    """k must name one of the given alphas; a negative k must not wrap round."""
    P = Polynomial((1.0,), 0j, 1.0)
    with pytest.raises(InvalidParameters):
        strip_budget_search(k, alphas, P, ZeroWeight())


def test_example_stage_with_condition_a_weight():
    """Stage scan under a unit-mass atom at the origin still decays."""
    region, _ = moon_stage(2, [0.1, 0.05])
    spec = BranchSpec(1.0 + 0j)
    w = LogPotential([(0j, 1.0)])
    scan = density_scan(
        lambda z: 1.0 / spec.sqrt(z), region, w, N_max=10, tol=1e-7, rule_order=12
    )
    assert bool(np.all(np.diff(scan.distances) < 1e-10))
    assert scan.distances[-1] < scan.distances[0]
