import math

import numpy as np
import pytest

from wbl import (
    LogPotential,
    Polynomial,
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


def pole_target(a):
    return lambda z: 1.0 / (np.asarray(z, dtype=complex) - a)


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


def test_gram_offcenter_atom_at_ladder_floor(unit_disc):
    # the core bound at the ladder floor exceeds the tol share; it is reported
    g = gram_matrix(unit_disc, LogPotential([(0.3 + 0.2j, 1.4)]), N=3)
    g00 = g.matrix[0, 0].real
    assert abs(g00 - OFFCENTER_G00[1.4]) <= g.error_budget <= 1e-7 * g00


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
    zs = [z for _, z in arrays]
    assert zs and all(a is not b for a, b in zip(zs, zs[1:]))
    assert sum(len(z) for lsq, z in arrays if lsq) == len(grids[0].nodes)


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
    """Make every later grid's least squares take exactly `leaves` leaves."""
    scan_grid = bergman._scan_grid

    def split(*args):
        grid = scan_grid(*args)
        size = -(-len(grid.nodes) // leaves)
        assert -(-len(grid.nodes) // size) == leaves
        monkeypatch.setattr(bergman, "_LEAF", size)
        return grid

    monkeypatch.setattr(bergman, "_scan_grid", split)


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
        _split_into_leaves(monkeypatch, leaves)
        r = best_poly_approx(f, unit_disc, LogPotential([(0j, 1.5)]), n=12, rule_order=12)
        j = best_poly_approx_with_jet(f, unit_disc, ZeroWeight(), n=8, jet=jet)
        monkeypatch.undo()
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
    w = LogPotential([(0j, 1.5)])
    first, second = pole_target(2.0), pole_target(1.5j)
    grid = bergman._scan_grid(
        unit_disc, w, 0j, 1.0, 12, (first, second), w.quadrature_singularities(), 1e-10, 12, 100_000
    )
    monkeypatch.setattr(bergman, "_scan_grid", lambda *args: grid)

    def solve(fs, leaves):
        monkeypatch.setattr(bergman, "_LEAF", -(-len(grid.nodes) // leaves))
        return bergman._best_approx(fs, unit_disc, w, 0j, 1.0, 12, 1e-10, (), None, 12, 100_000)

    two, two_norm = solve((first, second), leaves)[1]
    one, one_norm = solve((second,), 1)[0]
    assert_normwise_close(two.distances, one.distances)
    assert_normwise_close(two.polynomial.coeffs, one.polynomial.coeffs)
    assert two_norm == pytest.approx(one_norm, rel=1e-12)


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
