import math

import mpmath
import numpy as np
import pytest

import wbl.certs
from wbl import (
    Disc,
    ImAbsPlusPower,
    LogPotential,
    Moon,
    Polynomial,
    TruncatedPlane,
    ZeroWeight,
    cp_constant,
    integrate,
    moon_tangency,
    nondensity_certificate,
    pointwise_eval_bound,
    poisson_bounds_check,
    poisson_extension,
    potential_mass_bound,
    probe_circle,
    weighted_norm_sq,
)
from wbl.certs import _Quadrant, certificate_from_enclosure, cos_half_norm_enclosure
from wbl.errors import (
    BoundViolated,
    InvalidParameters,
    MassTooLarge,
    NoValidY,
    OutOfRange,
    ToleranceNotMet,
    UnboundedWeight,
)


def test_cp_constant_values():
    """C_p is within an ulp of the 40-digit 2 / cos(p pi / 2) as p nears 1,
    and the correctly rounded sqrt(8) at 1/2."""
    assert cp_constant(0.5) == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    assert cp_constant(1e-9) == pytest.approx(2.0, rel=1e-9)
    assert cp_constant(0.9) == pytest.approx(2 / math.cos(0.45 * math.pi), rel=1e-12)
    assert cp_constant(0.5) == math.sqrt(8.0)
    with mpmath.workdps(40):
        for p in (0.05, 0.3, 0.5, 0.65, 0.75, 0.9, 0.97, 0.99, 0.999):
            exact = float(2 / mpmath.cos(mpmath.mpf(p) * mpmath.pi / 2))
            assert abs(cp_constant(p) - exact) <= math.ulp(exact), p


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


def _poisson_closed_form_mp(p, x, y):
    """Re((-iz)^p) / cos(p pi / 2) at 40 digits."""
    with mpmath.workdps(40):
        return mpmath.re((-1j * mpmath.mpc(x, y)) ** p) / mpmath.cos(mpmath.pi * p / 2)


def test_poisson_extension_within_its_rounding_bound():
    """Against 40 digits, U misses by less than the bound it reports with
    ToleranceNotMet at tol = 0, and it is even in x to the bit. A quarter of
    the draws have p in [0.99, 0.999], where cos(p pi / 2) is worst
    conditioned."""
    rng = np.random.default_rng(25)
    ps = np.concatenate([rng.uniform(0.01, 0.99, 300), rng.uniform(0.99, 0.999, 100)])
    for p in ps:
        r, th = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.0, math.pi)
        x, y = r * math.cos(th), r * math.sin(th)
        with pytest.raises(ToleranceNotMet) as info:
            poisson_extension(p, x, y, 0.0)
        u, bound = info.value.value, info.value.err
        assert abs(u - _poisson_closed_form_mp(p, x, y)) <= bound, (p, x, y)
        assert poisson_extension(p, -x, y, bound) == u


def _poisson_integral_mp(p, x, y):
    """(1/pi) int |x + y tau|^p / (1 + tau^2) dtau at 30 digits.

    With tau = tan t, each side of the kink t0 = atan(-x/y) is written in
    the distance s to its end t = +-pi/2, where tan t = +-cot s, and s = w^m
    with m = 1/(1 - p) makes the s^-p endpoint smooth.
    """
    with mpmath.workdps(30):
        p, x, y = mpmath.mpf(p), mpmath.mpf(x), mpmath.mpf(y)
        m, t0 = 1 / (1 - p), mpmath.atan(-x / y)
        total = mpmath.mpf(0)
        for sign in (1, -1):
            def g(w, sign=sign):
                s = w**m
                body = abs(x * mpmath.sin(s) + sign * y * mpmath.cos(s)) ** p
                return body / mpmath.sin(s) ** p * m * w ** (m - 1)

            total += mpmath.quad(g, [0, (mpmath.pi / 2 - sign * t0) ** (1 / m)])
        return total / mpmath.pi


@pytest.mark.parametrize("p, x, y", [(0.5, 1.0, 1.0), (0.3, -2.0, 0.5), (0.9, 0.1, 3.0)])
def test_poisson_extension_is_the_poisson_integral(p, x, y):
    ref = float(_poisson_integral_mp(p, x, y))
    assert poisson_extension(p, x, y) == pytest.approx(ref, rel=1e-12)


def test_poisson_extension_raises_below_its_rounding_bound():
    with pytest.raises(ToleranceNotMet) as info:
        poisson_extension(0.99, 3.0, 0.5, 1e-14)
    assert info.value.err > 1e-14
    ref = float(_poisson_closed_form_mp(0.99, 3.0, 0.5))
    assert info.value.value == pytest.approx(ref, rel=1e-12)
    assert poisson_extension(0.99, 3.0, 0.5, info.value.err) == info.value.value


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


@pytest.mark.parametrize("alphas, points", [([0.5, 0.5], [0.5 + 0j]), ([0.5], [0.5 + 0j, 0j])])
def test_potential_mass_bound_needs_one_mass_per_point(alphas, points):
    with pytest.raises(InvalidParameters):
        potential_mass_bound(alphas, points, Disc(0j, 1.0))


def test_certificate_frozen_regression():
    """Scalar pipeline values computed by the root-finding oracle and frozen."""
    cert = nondensity_certificate(0.5, 10.0)
    assert cert.C_p == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    assert cert.C_1 == pytest.approx(math.log(10) + 1 - 0.5 * math.log(math.pi), rel=1e-12)
    assert cert.C_1 == pytest.approx(2.730220150069346, rel=1e-9)
    assert cert.Y == pytest.approx(159.2293453665, rel=1e-6)
    assert cert.epsilon0_sq == pytest.approx(1.2225582500722903e-105, rel=1e-4)
    assert cert.epsilon0_sq > 0


def test_certificate_floor_in_log_form():
    """The floor's log stays finite where epsilon0_sq underflows (p = 0.7)."""
    assert nondensity_certificate(0.7, 10.0).log_epsilon0_sq == pytest.approx(
        -21443.343732, rel=1e-9
    )
    cert = nondensity_certificate(0.5, 10.0)
    assert cert.log_epsilon0_sq == pytest.approx(math.log(cert.epsilon0_sq), rel=1e-12)
    assert cert.log_epsilon0_sq == pytest.approx(-241.5705, rel=1e-6)


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


_SWEEP_M = (1.01, 1.5, 2.0, 5.0, 10.0, 100.0, 1e4, 1e8)

# Y for each p and the budgets of _SWEEP_M, as found by the earlier threshold
# search: a 200,001-point log grid, then 200 bisection steps
_Y_FROZEN = {
    0.05: (16.593994220247108, 18.19761007099773, 19.366443684593385, 23.09464243387222,
           25.915174029029046, 35.266558351860546, 53.892145078446184, 90.99342363346969),
    0.1: (18.162406565275774, 19.825051288355432, 21.033178089081176, 24.871101930032065,
          27.76312680093098, 37.30866424064713, 56.21577806897174, 93.69226506727142),
    0.2: (23.065108770154684, 24.883552320915648, 26.197548812064024, 30.340691531210837,
          33.43905024753185, 43.57113190947714, 63.38478990257812, 102.15809057727023),
    0.3: (32.905387960486685, 34.95561239541176, 36.43173677675692, 41.061358868716674,
          44.50269429191927, 55.659037993991184, 77.16747472417937, 118.55557395487152),
    0.4: (57.19139289584234, 59.60546752627924, 61.342398787842946, 66.78117680962488,
          70.81343856141532, 83.81434426803142, 108.57758066473333, 155.35348447355986),
    0.5: (142.21678824268204, 145.21242446219637, 147.37422120003373, 154.17068209407276,
          159.22934536666835, 175.5983339010553, 206.7906763826358, 265.17204827592263),
    0.6: (701.5019447847427, 705.3900575452976, 708.2103036793583, 717.1501476166918,
          723.8706813291219, 745.9485598610747, 789.0705308001557, 871.8837377008786),
    0.65: (2451.4693389308018, 2455.9620119168444, 2459.226488235474, 2469.6056281988917,
           2477.4386317902927, 2503.347032114147, 2554.664722306476, 2655.447155540787),
    0.7: (14263.235597616387, 14268.5021622802, 14272.332003734116, 14284.525579969137,
          14293.744840894651, 14324.34086069422, 14385.397007020867, 14506.974727395998),
    0.75: (191015.08042805668, 191021.40786089847, 191026.01009082436, 191040.66801229838,
           191051.7557416435, 191088.58491871037, 191162.22731632652, 191309.44838573074),
}

# Where the rounded gap changes sign more than once within a few ulps of the
# root, the one bisection from max(1, r*) lands on another of those floats.
# These are the underflow cases, with Y above 1e4; each moved by 2 or 3 ulps.
_Y_MOVED = {
    (0.7, 5.0): 14284.525579969142,
    (0.75, 1.01): 191015.0804280566,
    (0.75, 100.0): 191088.5849187103,
    (0.75, 1e4): 191162.22731632658,
    (0.75, 1e8): 191309.44838573082,
}


def _gap_mp(cert, r):
    with mpmath.workdps(40):
        r = mpmath.mpf(r)
        return r / 4 - mpmath.log(1 + 4 * mpmath.exp(cert.C_1 + cert.C_p * r**cert.p))


@pytest.mark.parametrize("p", sorted(_Y_FROZEN))
def test_threshold_is_the_last_root_of_the_gap(p):
    """The bisection's bracket starts where the gap is negative, and at
    40 digits the gap is positive at Y but not 1e-9 below it."""
    for M in _SWEEP_M:
        cert = nondensity_certificate(p, M)
        r_star = (4.0 * cert.C_p * p) ** (1.0 / (1.0 - p))
        assert _gap_mp(cert, max(1.0, r_star)) < 0, (p, M)
        assert _gap_mp(cert, cert.Y) > 0 >= _gap_mp(cert, cert.Y * (1.0 - 1e-9)), (p, M)


def test_threshold_matches_the_sampled_search(monkeypatch):
    """Y is bit-identical to the grid search's on the sweep, except the
    entries named in _Y_MOVED, which stay within 3 ulps of it. The table was
    found with C_p = 2 / cos(p pi / 2), so the search runs with that constant."""
    monkeypatch.setattr(wbl.certs, "cp_constant", lambda p: 2.0 / math.cos(0.5 * math.pi * p))
    wrong = []
    for p, ys in _Y_FROZEN.items():
        for M, y_old in zip(_SWEEP_M, ys):
            want = _Y_MOVED.get((p, M), y_old)
            got = nondensity_certificate(p, M).Y
            if got != want:
                wrong.append((p, M, got, want))
    assert not wrong, f"(p, M, Y, frozen Y): {wrong}"
    for (p, M), y in _Y_MOVED.items():
        y_old = _Y_FROZEN[p][_SWEEP_M.index(M)]
        assert 0 < abs(y - y_old) <= 3 * np.spacing(y_old)


def test_scalar_gap_is_bitwise_the_vector_gap():
    """A float r takes the math-call gap, an array the numpy one; they agree
    to the bit on the frozen sweep, from max(1, r*) to 10 Y."""
    for p in _Y_FROZEN:
        for M in _SWEEP_M:
            cert = nondensity_certificate(p, M)
            r_star = (4.0 * cert.C_p * p) ** (1.0 / (1.0 - p))
            r = np.exp(np.linspace(math.log(max(1.0, r_star)), math.log(10.0 * cert.Y), 97))
            vector = wbl.certs._gap(r, p, cert.C_p, cert.C_1)
            scalar = [wbl.certs._gap(x, p, cert.C_p, cert.C_1) for x in r.tolist()]
            assert all(type(s) is float for s in scalar)
            assert np.array(scalar).tobytes() == vector.tobytes(), (p, M)


def test_quadrant_area():
    value, err = integrate(_Quadrant(3.0), lambda z: np.ones(z.shape), (), 1e-12)
    assert value.real == pytest.approx(9.0 * math.pi / 4.0, rel=1e-13)
    assert err <= 1e-12


def test_quadrant_enclosure_matches_the_full_disc():
    """Four times the quadrant's integral, taken in the radial variable
    |z|^p, is the full disc's norm of cos(z/2), within the sum of the two
    error estimates."""
    disc, disc_err = weighted_norm_sq(
        lambda z: np.cos(0.5 * z), TruncatedPlane(20.0), ImAbsPlusPower(0.3), 1e-6
    )
    enc = cos_half_norm_enclosure(0.3, 20.0, 1e-6)
    assert enc["trunc_err"] <= 1e-6
    assert abs(enc["trunc_value"] - disc) <= enc["trunc_err"] + disc_err


# ||cos(z/2)||^2 over |z| < 40 under |Im z| + |z|^p: the integral of
# perfbench/oracles.py cos_half_truncated_norm at 20 digits, with 13 radial
# and 5 angular breakpoints
_ENCLOSURE_REF = {0.3: 99.729790045597074, 0.5: 17.723389059365244, 0.7: 4.9165083756868467}


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
@pytest.mark.parametrize("p", sorted(_ENCLOSURE_REF))
def test_norm_enclosure_brackets_the_reference(p, tol):
    """In the radial variable |z|^p the cusp is smooth: the error is within
    trunc_err, and the enclosure holds the truncated norm on both sides."""
    ref = _ENCLOSURE_REF[p]
    enc = cos_half_norm_enclosure(p, 40.0, tol)
    assert abs(enc["trunc_value"] - ref) <= enc["trunc_err"] <= tol
    assert enc["norm_sq_lower"] <= ref <= enc["norm_sq_upper"] - enc["tail"]


def test_norm_enclosure_accuracy_at_the_benchmark_tol():
    enc = cos_half_norm_enclosure(0.5, 40.0, 1e-4)
    assert enc["trunc_value"] == pytest.approx(_ENCLOSURE_REF[0.5], rel=1e-10)


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
