import cmath
import math

import mpmath
import numpy as np
import pytest

from wbl import (
    Disc,
    LogPotential,
    Moon,
    Polynomial,
    SumWeight,
    TruncatedPlane,
    ZeroWeight,
    best_poly_approx,
    best_poly_approx_with_jet,
    default_center_scale,
    density_scan,
    extremal_basis,
    gram_matrix,
    scan_verdict,
    weighted_norm_sq,
)
from wbl import bergman
from wbl.errors import DegenerateWeight
from wbl.quad import weight_factor
from wbl.weights import quadrature_points


def pole_target(a):
    return lambda z: 1.0 / (np.asarray(z, dtype=complex) - a)


def on_engine(w):
    """w as a sum of one term: the same integrand bit for bit, but not a weight
    the rotation route takes, so a centred disc problem runs on the engine."""
    return SumWeight((w,))


def pole_distance_oracle(n_max, weight_exponent=0.0, radius=2.0):
    """Series oracle for d_n(1/(z-a)) on the unit disc under |z|^-weight_exponent.

    Taylor coefficients of 1/(z-a) are -1/a^(k+1), |a| = radius; monomials
    are orthogonal with norms 2 pi / (2k + 2 - weight_exponent), so the
    squared tail sums explicitly.
    """
    ks = np.arange(120)
    norms = 2 * math.pi / (2 * ks + 2 - weight_exponent)
    terms = norms / radius ** (2 * ks + 2)
    return np.array([math.sqrt(terms[n + 1 :].sum()) for n in range(n_max + 1)])


def test_gram_disc_zero(unit_disc):
    g = gram_matrix(unit_disc, ZeroWeight(), 0j, 1.0, 6, 1e-10)
    diag = np.diag(g.matrix).real
    assert np.allclose(diag, math.pi / (np.arange(7) + 1), rtol=1e-10)
    off = g.matrix - np.diag(np.diag(g.matrix))
    assert np.max(np.abs(off)) < 1e-12
    assert g.positive_definite and not g.ill_conditioned
    # G is diagonal, so its unit-diagonal form is the identity
    assert g.cond_estimate == pytest.approx(1.0, rel=1e-8)


def test_gram_log_potential(unit_disc):
    g = gram_matrix(unit_disc, LogPotential([(0j, 1.0)]), 0j, 1.0, 6, 1e-10)
    diag = np.diag(g.matrix).real
    assert np.allclose(diag, 2 * math.pi / (2 * np.arange(7) + 1), rtol=1e-8)


# G_00 = int_disc |z - z0|^-alpha dA = int_0^2pi R(t)^(2-alpha) dt / (2 - alpha) at
# z0 = 0.3+0.2i, R(t) the distance from z0 to the unit circle in direction t
# (mpmath at 30 digits)
OFFCENTER_G00 = {1.2: 7.600794368208509, 1.4: 10.174235467232133}


def test_gram_and_scan_offcenter_atom(unit_disc):
    w = LogPotential([(0.3 + 0.2j, 1.2)])
    g = gram_matrix(unit_disc, w, N=3)
    assert abs(g.matrix[0, 0].real - OFFCENTER_G00[1.2]) <= 1e-9
    scan = density_scan(pole_target(2.0), unit_disc, w, N_max=10)
    assert scan.approx.error_budget <= 1e-8


def test_gram_offcenter_atom_order_1_4(unit_disc):
    g = gram_matrix(unit_disc, LogPotential([(0.3 + 0.2j, 1.4)]), N=3)
    g00 = g.matrix[0, 0].real
    assert abs(g00 - OFFCENTER_G00[1.4]) <= g.error_budget <= 1e-10 * g00


def test_gram_moon_monte_carlo_oracle(unit_moon):
    g = gram_matrix(unit_moon, ZeroWeight(), 0j, 1.0, 6, 1e-10, rule_order=12)
    gen = np.random.default_rng(424242)
    n = 4_000_000
    zz = gen.uniform(-1, 1, n) + 1j * gen.uniform(-1, 1, n)
    inside = unit_moon.contains(zz)
    zeta = zz[inside]
    V = np.empty((len(zeta), 7), dtype=complex)
    V[:, 0] = 1.0
    for k in range(1, 7):
        V[:, k] = V[:, k - 1] * zeta
    box_area = 4.0
    for j in range(7):
        for k in range(j, 7):
            samples = V[:, j] * np.conj(V[:, k])
            mc = samples.mean() * inside.mean() * box_area
            sigma = samples.std() / math.sqrt(len(zeta)) * inside.mean() * box_area
            assert abs(g.matrix[j, k] - mc) <= 4 * sigma + 1e-3


def test_polynomial_target_is_exact(unit_disc):
    res = best_poly_approx(lambda z: z**2, unit_disc, ZeroWeight(), 0j, 1.0, 2, 1e-12)
    assert res.distance < 1e-12
    assert np.allclose(res.polynomial.coeffs, [0, 0, 1], atol=1e-12)


def test_pole_distance_series(unit_disc):
    res = best_poly_approx(
        pole_target(2.0), unit_disc, ZeroWeight(), 0j, 1.0, 10, 1e-12, rule_order=12
    )
    oracle = pole_distance_oracle(10)
    assert np.max(np.abs(res.distances - oracle) / oracle) < 1e-7
    assert res.distances[0] ** 2 == pytest.approx(math.pi * (math.log(4 / 3) - 0.25), rel=1e-9)


@pytest.mark.parametrize(
    "a",
    [-2.9586449647362607 - 0.09245883912315435j, 0.01065130005150772 - 2.935378617465588j],
    ids=["west", "south"],
)
def test_atom_scan_at_rounding_floor(unit_disc, a):
    """d_20 of a pole under an order-1.5 atom sits near 3e-10 d_0, a few
    times above the rounding floor of the least-squares factor; a solve that
    rounds the factor's full-norm rows once per node block misses 5e-7 here."""
    scan = density_scan(pole_target(a), unit_disc, LogPotential([(0j, 1.5)]), N_max=20, rule_order=12)
    oracle = pole_distance_oracle(20, weight_exponent=1.5, radius=abs(a))
    resolved = oracle >= 1e-12 * oracle[0]
    assert np.max(np.abs(scan.distances - oracle)[resolved] / oracle[resolved]) <= 5e-7


# density_scan of 1/(z - 1.3) on Moon(Disc(0, 2), Disc(1.3, 0.7)) with zero
# weight, N_max 25, at tol 1e-13, rule order 20 and s = |p| + 2
_MOON_POLE_SCAN_REF = [
    1.8326829388754935, 1.682120662963049, 1.5976517531720433, 1.5427015013594254,
    1.5037638812163916, 1.4745776031347821, 1.451808762243156, 1.4335062682531738,
    1.418446727394673, 1.4058214750664102, 1.3950732028137196, 1.3858045911764671,
    1.377724310403564, 1.370613625975766, 1.3643049483763197, 1.3586676037468934,
    1.3535981290900412, 1.3490134915500944, 1.3448462491320332, 1.3410410314439656,
    1.337551937094902, 1.334340579765941, 1.3313746011769596, 1.3286265253122396,
    1.3260728655836482, 1.3236934218748961,
]


def test_moon_scan_across_the_kinks_meets_the_reference():
    """The two-branch moon's sqrt kinks are graded in theta; at tol 1e-8 the
    scan's every d_k is within 1e-6 of the fine scan, so a change to that
    grading must resolve degree 25 as well as the area."""
    moon = Moon(Disc(0j, 2.0), Disc(1.3 + 0j, 0.7))
    scan = density_scan(pole_target(1.3), moon, ZeroWeight(), N_max=25, tol=1e-8, rule_order=12)
    ref = np.array(_MOON_POLE_SCAN_REF)
    assert np.max(np.abs(scan.distances - ref) / ref) <= 1e-6


@pytest.mark.parametrize("a", [2.0, -1.5j, 1.2 - 1.6j])
def test_centred_atom_scan_on_gauss_jacobi_grid(unit_disc, monkeypatch, a):
    """The atom's Lelong number is the exact order at the center, so the
    scan's grid has one Gauss-Jacobi cell [0, 1/4] and one cell [1/4, 1] per
    theta segment, and its distances match the series oracle."""
    grids = []
    build_grid = bergman.build_grid

    def capture(*args):
        grids.append(build_grid(*args))
        return grids[-1]

    monkeypatch.setattr(bergman, "build_grid", capture)
    w = on_engine(LogPotential([(0j, 1.5)]))
    scan = density_scan(pole_target(a), unit_disc, w, N_max=20, rule_order=12)
    assert len(grids) == 1 and scan.approx.route == "engine"
    oracle = pole_distance_oracle(20, weight_exponent=1.5, radius=abs(a))
    resolved = oracle >= 1e-12 * oracle[0]
    assert np.max(np.abs(scan.distances - oracle)[resolved] / oracle[resolved]) <= 1e-6
    assert grids[0].n_cells <= 16 and len(grids[0].nodes) <= 2304


def test_distance_monotone_and_pythagoras(unit_disc):
    f = pole_target(2.0)
    res = best_poly_approx(f, unit_disc, ZeroWeight(), 0j, 1.0, 8, 1e-12, rule_order=12)
    d = res.distances
    assert bool(np.all(np.diff(d) <= 1e-12))
    norm_f, _ = weighted_norm_sq(f, unit_disc, ZeroWeight(), 1e-12, rule_order=12)
    norm_p, _ = weighted_norm_sq(res.polynomial, unit_disc, ZeroWeight(), 1e-12, rule_order=12)
    assert norm_f == pytest.approx(res.distance**2 + norm_p, rel=1e-9)


def test_scale_invariance_of_distances(unit_disc):
    f = pole_target(2.0)
    r1 = best_poly_approx(f, unit_disc, ZeroWeight(), 0j, 1.0, 8, 1e-12, rule_order=12)
    r2 = best_poly_approx(f, unit_disc, ZeroWeight(), 0j, 2.0, 8, 1e-12, rule_order=12)
    assert np.allclose(r1.distances, r2.distances, rtol=1e-9)


def test_reprojection_gives_zero(unit_moon):
    f = pole_target(2.0)
    res = best_poly_approx(f, unit_moon, ZeroWeight(), n=5, tol=1e-11, rule_order=12)
    res2 = best_poly_approx(res.polynomial, unit_moon, ZeroWeight(), n=5, tol=1e-11, rule_order=12)
    assert res2.distance < 1e-9


def test_degenerate_weight_rejected(unit_disc):
    with pytest.raises(DegenerateWeight):
        gram_matrix(unit_disc, LogPotential([(0.2 + 0j, 2.5)]), 0j, 1.0, 3)
    with pytest.raises(DegenerateWeight):
        best_poly_approx(pole_target(2.0), unit_disc, LogPotential([(0.2 + 0j, 2.0)]), n=3)


def test_divisor_route_series_oracle(unit_disc):
    """Factor-out trick: approximate z^2/(z-2) under |z|^-2.5 dividing by z^2.

    The reduced problem is 1/(z-2) under the density |z|^1.5, whose distances
    have an explicit series (the atom cancels against the divisor).
    """
    w = LogPotential([(0j, 2.5)])
    q_poly = Polynomial((0j, 0j, 1 + 0j))

    def f(z):
        z = np.asarray(z, dtype=complex)
        return z**2 / (z - 2.0)

    res = best_poly_approx(
        f, unit_disc, w, 0j, 1.0, 6, 1e-12, divisor_Q=q_poly, rule_order=12
    )
    oracle = pole_distance_oracle(6, weight_exponent=-1.5)
    assert np.max(np.abs(res.distances - oracle) / oracle) < 1e-7
    # the returned polynomial is Q * P, so it vanishes to second order at 0
    assert abs(res.polynomial.coeffs[0]) < 1e-12 and abs(res.polynomial.coeffs[1]) < 1e-12


def test_divisor_evaluated_once_per_node_array(unit_disc, monkeypatch):
    """The divisor route evaluates Q once per pilot call and, in the least
    squares, once per node."""
    arrays, grids = [], []

    class CountedQ(Polynomial):
        def __call__(self, z):
            arrays.append((bool(grids), z))
            return super().__call__(z)

    blocked_lsq = bergman._blocked_lsq

    def in_lsq(grid, *args):
        grids.append(grid)
        return blocked_lsq(grid, *args)

    monkeypatch.setattr(bergman, "_blocked_lsq", in_lsq)
    best_poly_approx(
        lambda z: z**2 / (z - 2.0), unit_disc, LogPotential([(0j, 2.5)]), 0j, 1.0, 6,
        divisor_Q=CountedQ((0j, 0j, 1 + 0j)),
    )
    assert len(grids) == 1
    zs = [z for _, z in arrays]
    assert zs and all(a is not b for a, b in zip(zs, zs[1:]))
    assert sum(len(z) for lsq, z in arrays if lsq) == len(grids[0].nodes)


def test_jet_centred_atom_at_its_lelong_number(unit_disc, monkeypatch):
    """The jet route integrates the atom at its exact order: its few-cell
    grid meets the closed form. Under |z|^-alpha the monomials are orthogonal
    with norms g_j = 2 pi / (2j + 2 - alpha), so with f_j = -a^-(j+1) the
    Taylor coefficients of 1/(z - a) and c_j the pinned jet,
    d_m^2 = sum_{j<k} |c_j - f_j|^2 g_j + sum_{j>m} |f_j|^2 g_j."""
    grids = []
    build_grid = bergman.build_grid

    def capture(*args):
        grids.append(build_grid(*args))
        return grids[-1]

    monkeypatch.setattr(bergman, "build_grid", capture)
    a, alpha, n = 1.7 + 0.4j, 1.5, 12
    js = np.arange(200)
    f_j = -(a ** -(js + 1.0))
    g_j = 2 * math.pi / (2 * js + 2 - alpha)
    jet = (1.3 * f_j[0],)
    r = best_poly_approx_with_jet(
        pole_target(a), unit_disc, on_engine(LogPotential([(0j, alpha)])), 0j, 1.0, n, jet=jet,
        tol=1e-10,
    )
    k = len(jet)
    pinned = sum(abs(jet[j] - f_j[j]) ** 2 * g_j[j] for j in range(k))
    tails = np.cumsum((np.abs(f_j) ** 2 * g_j)[::-1])[::-1]
    oracle = np.sqrt(pinned + tails[k : n + 2])
    assert np.max(np.abs(r.distances[k - 1 :] - oracle) / oracle) <= 1e-10
    assert len(grids) == 1 and grids[0].n_cells <= 48


def test_jet_inactive_constraint(unit_disc):
    r = best_poly_approx_with_jet(
        lambda z: np.asarray(z, dtype=complex), unit_disc, ZeroWeight(), 0j, 1.0, 1, jet=[0.0]
    )
    assert r.distance < 1e-12
    assert np.allclose(r.polynomial.coeffs, [0, 1], atol=1e-12)


def test_jet_forced_constant(unit_disc):
    r = best_poly_approx_with_jet(
        lambda z: np.asarray(z, dtype=complex), unit_disc, ZeroWeight(), 0j, 1.0, 1, jet=[1.0]
    )
    assert r.distance == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    assert np.allclose(r.polynomial.coeffs, [1, 1], atol=1e-10)
    # the constant 1 is the only feasible polynomial of degree 0
    assert r.distances[0] == pytest.approx(math.sqrt(1.5 * math.pi), rel=1e-10)


def test_jet_fully_pinned(unit_disc):
    """With len(jet) == n + 1 the jet polynomial J is the answer: d_n = ||f - J||."""

    def f(z):
        return np.asarray(z, dtype=complex) ** 2

    r = best_poly_approx_with_jet(f, unit_disc, ZeroWeight(), 0j, 1.0, 1, jet=(0.5, 1.0))
    # ||z^2 - z - 1/2||^2 = pi/3 + pi/2 + pi/4 by orthogonality of monomials
    assert r.distance == pytest.approx(math.sqrt(13 * math.pi / 12), rel=1e-10)
    assert math.isnan(r.distances[0])
    assert np.allclose(r.polynomial.coeffs, [0.5, 1.0], atol=1e-14)


def test_jet_matching_truth_is_free(unit_disc):
    f = pole_target(2.0)
    r1 = best_poly_approx(f, unit_disc, ZeroWeight(), 0j, 1.0, 5, 1e-12, rule_order=12)
    r2 = best_poly_approx_with_jet(
        f, unit_disc, ZeroWeight(), 0j, 1.0, 5, jet=[-0.5], tol=1e-12, rule_order=12
    )
    assert r2.distance == pytest.approx(r1.distance, rel=1e-10)


def test_jet_constrained_never_beats_unconstrained(unit_disc, rng):
    f = pole_target(2.0)
    base = best_poly_approx(f, unit_disc, ZeroWeight(), 0j, 1.0, 5, 1e-12, rule_order=12)
    for _ in range(5):
        jet = [complex(rng.standard_normal(), rng.standard_normal())]
        r = best_poly_approx_with_jet(
            f, unit_disc, ZeroWeight(), 0j, 1.0, 5, jet=jet, tol=1e-12, rule_order=12
        )
        assert r.distance >= base.distance - 1e-12


def test_extremal_basis_disc_closed_form(unit_disc):
    basis = extremal_basis(unit_disc, ZeroWeight(), 0j, 1.0, 5, 1e-10)
    for n, f_n in enumerate(basis):
        c = np.asarray(f_n.coeffs)
        assert c[n].real == pytest.approx(math.sqrt((n + 1) / math.pi), rel=1e-10)
        assert np.max(np.abs(np.delete(c, n))) < 1e-10


def test_extremal_basis_orthonormal(unit_disc, unit_moon):
    for domain in (unit_disc, unit_moon):
        g = gram_matrix(domain, ZeroWeight(), N=6, tol=1e-10, rule_order=12)
        basis = extremal_basis(domain, ZeroWeight(), gram=g)
        C = np.array([np.asarray(b.coeffs) for b in basis])
        ortho = C.conj() @ g.matrix @ C.T
        assert np.max(np.abs(ortho - np.eye(7))) < 1e-8


def test_extremal_basis_leading_coefficient_oracle(unit_moon):
    """Brute force: max leading coefficient = sqrt of inverse-Gram corner."""
    g = gram_matrix(unit_moon, ZeroWeight(), N=5, tol=1e-11, rule_order=12)
    basis = extremal_basis(unit_moon, ZeroWeight(), gram=g)
    for n in range(6):
        sub = np.linalg.inv(g.matrix[n:, n:])
        a_oracle = math.sqrt(sub[0, 0].real) / g.scale**n
        lead = np.asarray(basis[n].coeffs)[n].real / g.scale**n
        assert lead == pytest.approx(a_oracle, rel=1e-6)
        assert lead > 0


def _exact_disc_leading(p, s, N):
    """a_n = 1 / L[N - n, N - n] for the reversed Cholesky factor L, at 80 digits,
    of the exact unit-disc Gram matrix of ((z - p)/s)^k under zero weight:
    G_jk = s^-(j+k) sum_{a <= min(j,k)} C(j,a) C(k,a) (-p)^(j-a) conj(-p)^(k-a) pi/(a+1)."""
    with mpmath.workdps(80):
        q, r = -mpmath.mpf(p), mpmath.mpf(s)

        def g(j, k):
            t = sum(
                mpmath.binomial(j, a) * mpmath.binomial(k, a) * q ** (j + k - 2 * a) / (a + 1)
                for a in range(min(j, k) + 1)
            )
            return mpmath.pi * t / r ** (j + k)

        G = mpmath.matrix(N + 1, N + 1)
        for j in range(N + 1):
            for k in range(N + 1):
                G[N - j, N - k] = g(j, k)
        L = mpmath.cholesky(G)
        return [float(1 / L[N - n, N - n]) for n in range(N + 1)]


@pytest.mark.parametrize(
    "p, s, N, rtol, flagged",
    [(0.5, 1.0, 20, 1e-10, False), (0.7, 1.5, 25, 1e-6, True), (0.5, 1.0, 30, 1e-6, True)],
)
def test_extremal_leading_coefficients_match_exact_gram(unit_disc, p, s, N, rtol, flagged):
    """The basis is read off the least-squares factor, not a Cholesky of the
    Gram matrix, so it keeps the digits of R where cond(G) passes 1e14; a
    flagged Gram still gives a flagged basis."""
    basis = extremal_basis(unit_disc, ZeroWeight(), p, s, N, tol=1e-13, rule_order=16)
    assert basis.ill_conditioned is flagged
    lead = np.array([complex(b.coeffs[n]) for n, b in enumerate(basis)])
    want = np.array(_exact_disc_leading(p, s, N))
    assert np.max(np.abs(lead - want) / want) < rtol


def test_extremal_leading_coeff_grows_with_degree_cutoff(unit_moon):
    """Truncated maximal coefficients can only improve as the cutoff grows."""
    leads = {}
    for N in (6, 8, 10):
        basis = extremal_basis(unit_moon, ZeroWeight(), N=N, tol=1e-10, rule_order=12)
        leads[N] = [np.asarray(b.coeffs)[n].real for n, b in enumerate(basis[:5])]
    for n in range(5):
        assert leads[8][n] >= leads[6][n] - 1e-9
        assert leads[10][n] >= leads[8][n] - 1e-9


def test_density_scan_verdicts(unit_disc):
    scan = density_scan(pole_target(2.0), unit_disc, ZeroWeight(), 0j, 1.0, 20, 1e-12, rule_order=12)
    assert scan.verdict == "decaying"
    scan_poly = density_scan(lambda z: np.asarray(z, dtype=complex) ** 3, unit_disc, ZeroWeight(), 0j, 1.0, 5, 1e-12)
    assert scan_poly.verdict == "decaying"
    assert scan_poly.distances[3] < 1e-10


def test_scan_verdict_rules():
    n = 21
    decay = 1.0 * np.exp(-0.5 * np.arange(n))
    assert scan_verdict(decay) == "decaying"
    plateau = np.concatenate([np.linspace(1.0, 0.52, 6), np.full(n - 6, 0.5199)])
    assert scan_verdict(plateau) == "plateau"
    slow = np.linspace(1.0, 0.6, n)
    assert scan_verdict(slow) == "inconclusive"
    assert scan_verdict(np.zeros(n)) == "inconclusive"


def test_default_center_scale(unit_disc, figure_moon):
    p, s = default_center_scale(unit_disc)
    assert p == 0j and s == pytest.approx(math.sqrt(2))
    p2, s2 = default_center_scale(figure_moon)
    ro2, ri2 = 4.0, 0.49
    assert p2 == pytest.approx((ro2 * 0 - ri2 * 1.3) / (ro2 - ri2))
    assert s2 == pytest.approx(2 * math.sqrt(2))


def test_ill_conditioned_flagged_not_fatal(unit_disc):
    """A centre far off the domain destroys conditioning; results are
    returned but flagged."""
    g = gram_matrix(unit_disc, ZeroWeight(), 3.0, 1.0, 12, 1e-8)
    assert g.ill_conditioned and g.cond_estimate > 1e14
    assert g.matrix.shape == (13, 13)
    r = best_poly_approx(pole_target(2.0), unit_disc, ZeroWeight(), 3.0, 1.0, 20)
    assert r.ill_conditioned and r.cond_estimate > 1e14
    assert len(r.distances) == 21


@pytest.mark.parametrize("s", [1.0, 1e-4])
def test_lsq_cond_estimate_is_scale_free(unit_disc, s):
    """Monomials about the centre are orthogonal on the disc, so the
    unit-column condition number of the least-squares factor, and of the
    unit-diagonal Gram matrix, is 1 at any s."""
    r = best_poly_approx(pole_target(2.0), unit_disc, ZeroWeight(), 0j, s, 10)
    assert r.cond_estimate == pytest.approx(1.0, rel=1e-9)
    assert not r.ill_conditioned
    g = gram_matrix(unit_disc, ZeroWeight(), 0j, s, 12, 1e-8)
    assert g.positive_definite and not g.ill_conditioned
    assert g.cond_estimate == pytest.approx(1.0, rel=1e-9)


def _split_into_leaves(monkeypatch, leaves):
    """Make every later grid's least squares take exactly `leaves` leaves; the
    returned list gets one entry per grid."""
    scan_grid = bergman._scan_grid
    grids = []

    def split(*args):
        grid = scan_grid(*args)
        size = -(-len(grid.nodes) // leaves)
        assert -(-len(grid.nodes) // size) == leaves
        monkeypatch.setattr(bergman, "_LEAF", size)
        grids.append(grid)
        return grid

    monkeypatch.setattr(bergman, "_scan_grid", split)
    return grids


def assert_normwise_close(got, want):
    """Rounding in a backward-stable QR is relative to ||f||, so a tail entry
    far below d_0 moves by more than 1e-12 of itself: compare normwise."""
    got, want = np.asarray(got), np.asarray(want)
    ok = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), ok)
    assert np.linalg.norm(got[ok] - want[ok]) <= 1e-12 * np.linalg.norm(want[ok])


@pytest.mark.parametrize("leaves", [1, 2, 3, 5])
def test_leaf_tree_matches_one_leaf(unit_disc, monkeypatch, leaves):
    """Leaf factors reduced pairwise give the one-leaf answer; odd counts
    carry an unpaired leaf up a level."""
    f = pole_target(2.0)
    jet = (-0.4, -0.3)

    def solve(leaves):
        grids = _split_into_leaves(monkeypatch, leaves)
        r = best_poly_approx(f, unit_disc, on_engine(LogPotential([(0j, 1.5)])), n=12, rule_order=12)
        j = best_poly_approx_with_jet(f, unit_disc, on_engine(ZeroWeight()), n=8, jet=jet)
        monkeypatch.undo()
        assert len(grids) == 2
        return r, j

    one = solve(1)
    many = solve(leaves)
    for a, b in zip(one, many):
        assert_normwise_close(b.distances, a.distances)
        assert_normwise_close(b.polynomial.coeffs, a.polynomial.coeffs)
    assert many[1].distances[len(jet) - 1] == pytest.approx(one[1].distances[len(jet) - 1], rel=1e-12)


@pytest.mark.parametrize("leaves", [1, 2, 3, 5])
def test_second_target_column_matches_one_column_factor(unit_disc, monkeypatch, leaves):
    """A target column after the first reads off the one-column, one-leaf answer.

    Its rows between N + 1 and its diagonal project it on the first target's
    residual, which is still orthogonal to the polynomials, so the tail sums
    remain its distances. Both solves use one grid.
    """
    w = on_engine(LogPotential([(0j, 1.5)]))
    first, second = pole_target(2.0), pole_target(1.5j)
    grid = bergman._scan_grid(
        unit_disc, w, 0j, 1.0, 12, (first, second), quadrature_points(w), 1e-10, 12, 100_000
    )
    calls = []
    monkeypatch.setattr(bergman, "_scan_grid", lambda *args: calls.append(args) or grid)

    def solve(fs, leaves):
        monkeypatch.setattr(bergman, "_LEAF", -(-len(grid.nodes) // leaves))
        return bergman._best_approx(fs, unit_disc, w, 0j, 1.0, 12, 1e-10, (), None, 12, 100_000)

    two, two_norm = solve((first, second), leaves)[1]
    one, one_norm = solve((second,), 1)[0]
    assert len(calls) == 2
    assert_normwise_close(two.distances, one.distances)
    assert_normwise_close(two.polynomial.coeffs, one.polynomial.coeffs)
    assert two_norm == pytest.approx(one_norm, rel=1e-12)


@pytest.mark.parametrize("leaves", [1, 3])
def test_transposed_assembly_is_bit_identical_to_columnwise(unit_disc, monkeypatch, leaves):
    """Leaves built row by row as [A | b]^T give, bit for bit, the R of the
    columnwise np.column_stack assembly: the same products in the same order,
    factored like every QR of bergman on one BLAS thread."""
    w = LogPotential([(0.2 + 0.1j, 1.5)])
    p, s, N = 0.1 - 0.2j, 1.3, 12
    Q = Polynomial((0.3, -1.0, 0.5j), p, s)
    targets = (pole_target(2.0), pole_target(1.5j))
    grid = bergman._scan_grid(
        unit_disc, w, p, s, N, targets, quadrature_points(w), 1e-10, 12, 100_000, Q
    )
    leaf = -(-len(grid.nodes) // leaves)
    assert -(-len(grid.nodes) // leaf) == leaves

    def columnwise():
        factors = []
        for lo in range(0, len(grid.nodes), leaf):
            nodes = grid.nodes[lo : lo + leaf]
            sqw = np.sqrt(grid.weights[lo : lo + leaf] * weight_factor(w, nodes))
            zeta = (nodes - p) / s
            V = np.empty((len(nodes), N + 1), dtype=complex)
            V[:, 0] = Q(nodes)
            for k in range(1, N + 1):
                V[:, k] = V[:, k - 1] * zeta
            Ab = np.column_stack([V] + [f(nodes) for f in targets])
            factors.append(bergman._qr_r(Ab * sqw[:, None]))
        while len(factors) > 1:
            paired = [
                bergman._qr_r(np.vstack(factors[i : i + 2]))
                for i in range(0, len(factors) - 1, 2)
            ]
            factors = paired + factors[2 * len(paired) :]
        return factors[0]

    monkeypatch.setattr(bergman, "_LEAF", leaf)
    got = bergman._blocked_lsq(grid, w, p, s, N, targets, Q)
    assert got.shape == (N + 3, N + 3)
    assert np.array_equal(got, columnwise())


def test_overlapping_blas_pins_restore_the_count(monkeypatch):
    """Pins that overlap, as two Python threads inside LAPACK can, hold one
    thread until the last exits, then restore the count read by the first,
    whichever exits first; a real QR leaves the bundled count as it found it."""
    real = bergman._openblas_threads()
    if real is not None:
        before = real[0]()
        bergman._qr_r(np.ones((40, 3)))
        assert real[0]() == before
    count = [4]
    monkeypatch.setattr(bergman, "_openblas_threads", lambda: (lambda: count[0], lambda k: count.__setitem__(0, k)))
    first, second = bergman._one_blas_thread(), bergman._one_blas_thread()
    first.__enter__()
    second.__enter__()
    assert count == [1]
    first.__exit__(None, None, None)
    assert count == [1]
    second.__exit__(None, None, None)
    assert count == [4]


@pytest.mark.parametrize("N", [0, 1, 3, 20, 40])
def test_pilot_clamp_is_bit_exact(unit_disc, monkeypatch, N):
    """The grid pilot clamps |z - p|/s from below; its values stay those of
    (1 + (|z - p|/s)^(2N) + |f|^2) exp(-phi) bit for bit."""
    pilots = []
    build_grid = bergman.build_grid

    def capture(domain, pilot, *args):
        pilots.append(pilot)
        return build_grid(domain, pilot, *args)

    monkeypatch.setattr(bergman, "build_grid", capture)
    p, s = 0.1 + 0.05j, 1.3
    w, f = LogPotential([(0j, 1.5)]), pole_target(2.0)
    density_scan(f, unit_disc, w, p, s, N)
    assert len(pilots) == 1
    gen = np.random.default_rng(29)
    zeta = 10.0 ** gen.uniform(-30, math.log10(2), 20_000)
    z = p + s * zeta * np.exp(2j * math.pi * gen.uniform(size=zeta.size))
    want = (1.0 + (np.abs(z - p) / s) ** (2 * N) + np.abs(f(z)) ** 2) * weight_factor(w, z)
    assert np.array_equal(pilots[0](z), want)


def test_moon_inv_sqrt_monte_carlo_projection(unit_moon):
    """Independent Monte-Carlo Gram/moment projection reproduces d_n to 1e-2."""
    from wbl import make_branch_spec

    spec = make_branch_spec(unit_moon)

    def f(z):
        return 1.0 / spec.sqrt(z)

    scan = density_scan(f, unit_moon, ZeroWeight(), 0j, 1.0, 6, 1e-10, rule_order=12)
    gen = np.random.default_rng(777)
    n = 2_000_000
    zz = gen.uniform(-1, 1, n) + 1j * gen.uniform(-1, 1, n)
    zz = zz[unit_moon.contains(zz)]
    area_factor = 4.0 * len(zz) / n
    V = np.empty((len(zz), 7), dtype=complex)
    V[:, 0] = 1.0
    for k in range(1, 7):
        V[:, k] = V[:, k - 1] * zz
    fv = f(zz)
    G = (V.conj().T @ V) / len(zz) * area_factor
    m = (V.conj().T @ fv) / len(zz) * area_factor
    norm_sq = np.mean(np.abs(fv) ** 2) * area_factor
    for deg in (0, 3, 6):
        sub = G[: deg + 1, : deg + 1]
        coef = np.linalg.solve(sub, m[: deg + 1])
        d_mc = math.sqrt(max(0.0, norm_sq - float(np.real(m[: deg + 1].conj() @ coef))))
        assert d_mc == pytest.approx(scan.distances[deg], rel=1e-2)


# ---- the rotation route: centred discs solved by orthogonality --------------


def is_rotation(route):
    return route.startswith("rotation M=")


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 1.9])
def test_rotation_gram_diagonal_closed_form(unit_disc, alpha):
    """Under |z|^-alpha the monomials are orthogonal with norms 2 pi / (2k + 2 -
    alpha), pi / (k + 1) for the zero weight; Gauss-Jacobi in the radius gets
    them to rounding and leaves every off-diagonal entry exactly 0."""
    w = ZeroWeight() if alpha == 0 else LogPotential([(0j, alpha)])
    g = gram_matrix(unit_disc, w, 0j, 1.0, 20)
    assert is_rotation(g.route)
    k = np.arange(21)
    want = 2 * math.pi / (2 * k + 2 - alpha)
    assert np.max(np.abs(np.diag(g.matrix) - want) / want) <= 1e-13
    assert np.array_equal(g.matrix, np.diag(np.diag(g.matrix)))
    assert g.cond_estimate == pytest.approx(1.0, abs=1e-14) and g.positive_definite


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("a", [2.0, 1.5j, -1.2 + 1.1j])
def test_rotation_pole_series(unit_disc, alpha, a):
    """The pole's distances, with and without a centre atom, against the series
    oracle: within 1e-9 wherever d_k is resolved, and within the error budget
    (floored at the rounding of ||f||) everywhere."""
    w = ZeroWeight() if alpha == 0 else LogPotential([(0j, alpha)])
    scan = density_scan(pole_target(a), unit_disc, w, N_max=20)
    assert is_rotation(scan.approx.route)
    oracle = pole_distance_oracle(20, weight_exponent=alpha, radius=abs(a))
    err = np.abs(scan.distances - oracle)
    resolved = oracle >= 1e-12 * oracle[0]
    assert np.max(err[resolved] / oracle[resolved]) <= 1e-9
    assert np.max(err) <= scan.approx.error_budget <= 1e-10 * oracle[0]


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_rotation_jet_oracle(unit_disc, alpha):
    """The jet route's divisor ((z - p)/s)^k keeps the problem on the rotation
    route; d_m^2 = sum_{j<k} |c_j - f_j|^2 g_j + sum_{j>m} |f_j|^2 g_j."""
    a, n = 1.7 + 0.4j, 12
    js = np.arange(200)
    f_j = -(a ** -(js + 1.0))
    g_j = 2 * math.pi / (2 * js + 2 - alpha)
    jet = (1.3 * f_j[0], 0.5 * f_j[1])
    w = ZeroWeight() if alpha == 0 else LogPotential([(0j, alpha)])
    r = best_poly_approx_with_jet(pole_target(a), unit_disc, w, 0j, 1.0, n, jet=jet, tol=1e-12)
    assert is_rotation(r.route)
    k = len(jet)
    pinned = sum(abs(jet[j] - f_j[j]) ** 2 * g_j[j] for j in range(k))
    tails = np.cumsum((np.abs(f_j) ** 2 * g_j)[::-1])[::-1]
    oracle = np.sqrt(pinned + tails[k : n + 2])
    assert np.max(np.abs(r.distances[k - 1 :] - oracle) / oracle) <= 1e-12
    assert np.all(np.isnan(r.distances[: k - 1]))


def test_rotation_extremal_leading_coefficients(unit_disc):
    """f_n = z^n / ||z^n|| under |z|^-1, so a_n = sqrt((2n + 1) / (2 pi)) at any s."""
    basis = extremal_basis(unit_disc, LogPotential([(0j, 1.0)]), N=15)
    lead = np.array([complex(b.taylor_coefficients()[n]) for n, b in enumerate(basis)])
    want = np.sqrt((2 * np.arange(16) + 1) / (2 * math.pi))
    assert np.max(np.abs(lead - want) / want) <= 1e-13
    assert not basis.ill_conditioned


def test_rotation_second_target_matches_one_target(unit_disc):
    """Several targets share the levels; each column reads off its own answer."""
    w = LogPotential([(0j, 1.5)])
    first, second = pole_target(2.0), pole_target(1.5j)
    two = bergman._best_approx((first, second), unit_disc, w, 0j, 1.0, 12, 1e-10, (), None, 12, 0)
    one = bergman._best_approx((second,), unit_disc, w, 0j, 1.0, 12, 1e-10, (), None, 12, 0)
    assert is_rotation(two[1][0].route) and is_rotation(one[0][0].route)
    assert_normwise_close(two[1][0].distances, one[0][0].distances)
    assert_normwise_close(two[1][0].polynomial.coeffs, one[0][0].polynomial.coeffs)
    assert two[1][1] == pytest.approx(one[0][1], rel=1e-12)


def test_rotation_route_is_taken_only_where_monomials_are_orthogonal(unit_disc, unit_moon):
    f = pole_target(5.0)
    centred = Disc(0.3 - 0.2j, 2.0)

    def route(domain, w, **kw):
        return best_poly_approx(f, domain, w, n=4, **kw).route

    assert is_rotation(route(unit_disc, ZeroWeight()))
    assert is_rotation(route(TruncatedPlane(3.0), ZeroWeight()))
    assert is_rotation(route(centred, LogPotential([(0.3 - 0.2j, 1.0), (0.3 - 0.2j, 0.9)])))
    assert is_rotation(route(unit_disc, ZeroWeight(), p=0j, s=1.0, divisor_Q=Polynomial((0, 0, 1))))
    jet = best_poly_approx_with_jet(f, unit_disc, LogPotential([(0j, 1.5)]), n=4, jet=(-0.2,))
    assert is_rotation(jet.route)
    assert is_rotation(gram_matrix(centred, ZeroWeight(), N=4).route)

    assert route(unit_disc, ZeroWeight(), p=1e-9) == "engine"
    assert route(unit_disc, LogPotential([(0.3 + 0.2j, 1.2)])) == "engine"
    assert route(unit_disc, LogPotential([(0j, 1.0)], lambda z: 0.1 * np.real(z), 0.1)) == "engine"
    assert route(unit_moon, ZeroWeight()) == "engine"
    assert route(unit_disc, ZeroWeight(), f_singularities=((0.5 + 0j, 0.0),)) == "engine"
    assert route(unit_disc, ZeroWeight(), p=0j, s=1.0, divisor_Q=Polynomial((0, 1, 1))) == "engine"
    assert route(unit_disc, ZeroWeight(), p=0j, s=1.0, divisor_Q=Polynomial((0, 0, 2))) == "engine"
    vanishing = best_poly_approx(
        lambda z: z**2 * f(z), unit_disc, LogPotential([(0j, 2.5)]), 0j, 1.0, 4,
        divisor_Q=Polynomial((0, 0, 1)),
    )
    assert vanishing.route == "engine"
    assert gram_matrix(unit_disc, LogPotential([(0.2 + 0j, 1.0)]), N=4).route == "engine"


def test_pole_near_the_rim_falls_back_to_the_engine(unit_disc, monkeypatch):
    """A pole at |a| = 1.01 needs more angles than the route allows: the solve
    is the engine's, bit for bit, and meets the series oracle."""
    f = pole_target(1.01j)
    res = best_poly_approx(f, unit_disc, ZeroWeight(), n=10)
    assert res.route == "engine"
    monkeypatch.setattr(bergman, "_radial_problem", lambda *args: None)
    ref = best_poly_approx(f, unit_disc, ZeroWeight(), n=10)
    assert np.array_equal(res.distances, ref.distances)
    assert res.polynomial == ref.polynomial and res.error_budget == ref.error_budget
    ks = np.arange(5000)
    terms = math.pi / (ks + 1) / 1.01 ** (2 * ks + 2)
    oracle = np.array([math.sqrt(terms[n + 1 :].sum()) for n in range(11)])
    assert np.max(np.abs(res.distances - oracle) / oracle) <= 1e-8


def test_zero_tol_on_a_disc_runs_out_of_levels_and_takes_the_engine(unit_disc):
    """tol = 0 never lets two levels agree, so the route returns to the engine."""
    res = best_poly_approx(pole_target(2.0), unit_disc, ZeroWeight(), n=10, tol=0.0, max_cells=2000)
    assert res.route == "engine" and np.all(np.isfinite(res.distances))


@pytest.mark.parametrize("a", [1.02, 1.1, 1.5 * cmath.exp(0.3j)])
def test_slowly_settling_poles_stay_on_the_rotation_route(unit_disc, a):
    """Poles within a few per cent of the rim settle under the cap and keep
    the rotation route: 1.02 settles at the last level, M = 2,048."""
    res = best_poly_approx(pole_target(a), unit_disc, ZeroWeight(), n=10)
    assert is_rotation(res.route)
    ks = np.arange(20000)
    terms = math.pi / (ks + 1) * abs(a) ** -(2.0 * ks + 2.0)
    oracle = np.array([math.sqrt(terms[n + 1 :].sum()) for n in range(11)])
    assert np.max(np.abs(res.distances - oracle) / oracle) <= 1e-8


@pytest.mark.parametrize("f", [lambda z: 1.0, lambda z: np.abs(z) ** 2], ids=["scalar", "real"])
def test_rotation_takes_real_and_constant_targets(unit_disc, f):
    """A target may return a real array or a bare number, as on the engine."""
    got = density_scan(f, unit_disc, ZeroWeight(), N_max=3)
    want = density_scan(f, unit_disc, on_engine(ZeroWeight()), N_max=3, tol=1e-12, rule_order=12)
    assert is_rotation(got.approx.route) and want.approx.route == "engine"
    assert np.allclose(got.distances, want.distances, rtol=1e-10, atol=1e-13)
