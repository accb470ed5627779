import math

import numpy as np
import pytest

from wbl import (
    Disc,
    ImAbsPlusPower,
    LogPotential,
    PolyBump,
    Polynomial,
    SumWeight,
    ZeroWeight,
    evaluate,
    lelong_number,
    mass_on_disc,
    poly_bump_weight,
    satisfies_condition_A,
)
from wbl.errors import InvalidParameters, OutOfRange, UnboundedWeight, UnsupportedMeasure
from wbl.weights import quadrature_points


def test_evaluate_examples():
    assert evaluate(ImAbsPlusPower(0.5), 1j) == pytest.approx(2.0)
    assert evaluate(LogPotential([(0j, 1.5)]), complex(math.e)) == pytest.approx(1.5)
    assert evaluate(ZeroWeight(), 3 + 4j) == 0.0


def test_evaluate_is_minus_inf_at_atoms():
    w = LogPotential([(1 + 1j, 2.0)])
    assert evaluate(w, 1 + 1j) == -math.inf


def test_exponent_range_validated():
    with pytest.raises(OutOfRange):
        ImAbsPlusPower(1.0)
    with pytest.raises(OutOfRange):
        ImAbsPlusPower(0.0)


def test_lelong_numbers():
    w = LogPotential([(0j, 1.5)])
    assert lelong_number(w, 0j) == pytest.approx(1.5)
    assert lelong_number(w, 1 + 0j) == 0.0
    s = SumWeight((LogPotential([(0j, 1.0)]), LogPotential([(0j, 0.5)])))
    assert lelong_number(s, 0j) == pytest.approx(1.5)
    assert lelong_number(ImAbsPlusPower(0.3), 0j) == 0.0
    assert lelong_number(poly_bump_weight(Polynomial((0j, 1 + 0j))), 0j) == 0.0


def test_lelong_additive_over_sums(rng):
    atoms = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0.1, 1)) for _ in range(4)]
    parts = [LogPotential([a]) for a in atoms]
    s = SumWeight(tuple(parts))
    for z, _ in atoms:
        assert lelong_number(s, z) == pytest.approx(sum(lelong_number(p, z) for p in parts))


def test_quadrature_points_order_rule():
    """Every atom gets its Lelong number, a heavy one too, coincident atoms
    their summed mass, and the |z|^p kink 0; a target's (point, order)
    entries follow the weight's as they are."""
    w = LogPotential([(0.3, 1.2), (0j, 2.5)])
    assert quadrature_points(w) == ((0.3, 1.2), (0j, 2.5))
    assert quadrature_points(w, ((0.3, 1.5),)) == ((0.3, 1.2), (0j, 2.5), (0.3, 1.5))
    w = LogPotential([(0.2j, 0.75), (0.2j, 0.5)])
    assert quadrature_points(w) == ((0.2j, 1.25), (0.2j, 1.25))
    assert quadrature_points(ImAbsPlusPower(0.5)) == ((0j, 0.0),)


def test_quadrature_points_divisor_cancels_heavy_atoms():
    """With Q = z^2, an atom of mass 2.5 at its double zero has order
    2.5 - 4 = -1.5; an atom of mass below 2 keeps its mass, at a zero of Q
    or not, and so does a heavy atom where Q does not vanish."""
    Q = Polynomial((0, 0, 1))
    w = LogPotential([(0j, 2.5), (0.5, 2.5)])
    assert quadrature_points(w, (), Q) == ((0j, -1.5), (0.5, 2.5))
    assert quadrature_points(LogPotential([(0j, 1.5)]), (), Q) == ((0j, 1.5),)
    # (z/2 - 1/2)^2 in its own scaled basis: a double zero at z = 1
    shifted = Polynomial((0.25, -1.0, 1.0), 0j, 2.0)
    assert quadrature_points(LogPotential([(1 + 0j, 3.0)]), (), shifted) == ((1 + 0j, -1.0),)


def test_mass_on_disc_examples():
    assert mass_on_disc(LogPotential([(0j, 1.9)]), 0j, 1.0) == pytest.approx(1.9)
    assert mass_on_disc(LogPotential([(3 + 0j, 5.0)]), 0j, 1.0) == 0.0
    w = LogPotential([(0j, 1.0), (1 + 0j, 0.5), (2 + 0j, 7.0)])
    assert mass_on_disc(w, 0j, 1.0) == pytest.approx(1.5)


def test_mass_monotone_in_radius(rng):
    atoms = [(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.1, 1)) for _ in range(6)]
    w = LogPotential(atoms)
    radii = np.sort(rng.uniform(0.1, 4.0, 10))
    masses = [mass_on_disc(w, 0j, r) for r in radii]
    assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))


def test_mass_unsupported_for_line_measures():
    with pytest.raises(UnsupportedMeasure):
        mass_on_disc(ImAbsPlusPower(0.5), 0j, 1.0)
    with pytest.raises(UnsupportedMeasure):
        mass_on_disc(poly_bump_weight(Polynomial((0j, 1 + 0j))), 0j, 1.0)


def test_condition_a_strictness():
    assert satisfies_condition_A(LogPotential([(0j, 1.9)]))
    assert not satisfies_condition_A(LogPotential([(0j, 2.0)]))
    assert not satisfies_condition_A(LogPotential([(0j, 1.0), (0.5 + 0j, 1.5)]))


def test_poly_bump_examples():
    p = Polynomial((0j, 1 + 0j))  # P(z) = z
    w = poly_bump_weight(p, threshold=1.0, L=1.0)
    assert evaluate(w, 0.5 + 0j) == 0.0
    assert evaluate(w, 2 + 0j) == pytest.approx(9.0)
    assert evaluate(poly_bump_weight(p, 1.0, 10.0), 2 + 0j) == pytest.approx(90.0)


def test_poly_bump_validation():
    p = Polynomial((0j, 1 + 0j))
    with pytest.raises(InvalidParameters):
        PolyBump(p, threshold=0.5)
    with pytest.raises(InvalidParameters):
        PolyBump(p, L=0.0)


def test_poly_bump_nonnegative_and_zero_inside(rng):
    p = Polynomial((0.2 + 0j, 1 + 0j, 0.5j))
    w = poly_bump_weight(p, 1.0, 2.0)
    z = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    vals = w.evaluate(z)
    assert bool(np.all(vals >= 0))
    small = np.abs(p(z)) <= 1.0
    assert bool(np.all(vals[small] == 0))


def test_sum_evaluates_pointwise(rng):
    terms = (ZeroWeight(), ImAbsPlusPower(0.5), LogPotential([(0.3 + 0.1j, 0.7)]))
    s = SumWeight(terms)
    z = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    total = sum(t.evaluate(z) for t in terms)
    assert np.allclose(s.evaluate(z), total, rtol=1e-14)


@pytest.mark.parametrize(
    "weight",
    [
        ZeroWeight(),
        ImAbsPlusPower(0.5),
        LogPotential([(0.2 + 0.1j, 0.8), (-0.4 + 0j, 0.6)]),
        PolyBump(Polynomial((0.1 + 0j, 1 + 0j, 0.3 + 0.2j)), 1.0, 2.0),
        SumWeight((ImAbsPlusPower(0.7), LogPotential([(0j, 1.1)]))),
    ],
    ids=["zero", "im-abs", "log-potential", "poly-bump", "sum"],
)
def test_sub_mean_value_inequality(weight, rng):
    """Discrete sub-mean-value check at 100 random non-atom points."""
    angles = 2 * np.pi * (np.arange(256) + 0.5) / 256
    circle = np.exp(1j * angles)
    atoms = weight.quadrature_singularities()
    count = 0
    while count < 100:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if any(abs(z - a) < 0.2 for a in atoms):
            continue
        count += 1
        r = rng.uniform(0.01, 0.1)
        avg = float(np.mean(weight.evaluate(z + r * circle)))
        assert weight.evaluate(np.array(z)) <= avg + 1e-7 * (1 + abs(avg))


def test_upper_bound_dominates_samples(rng, unit_disc):
    weights = [
        ZeroWeight(),
        ImAbsPlusPower(0.5),
        LogPotential([(0.2 + 0j, 0.9)]),
        PolyBump(Polynomial((0j, 2 + 0j)), 1.0, 1.0),
    ]
    z = rng.uniform(-1, 1, 500) * np.exp(1j * rng.uniform(0, 2 * np.pi, 500))
    z = z[np.abs(z) < 1]
    for w in weights:
        bound = w.upper_bound(unit_disc)
        assert bool(np.all(w.evaluate(z) <= bound + 1e-12))


def test_undeclared_offset_bound_refuses(unit_disc):
    w = LogPotential([(0j, 1.0)], offset=lambda z: np.zeros(np.shape(z)), offset_bound=None)
    with pytest.raises(UnboundedWeight):
        w.upper_bound(unit_disc)


def test_polynomial_evaluation_and_recenter(rng):
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = Polynomial(tuple(coeffs), 0.3 + 0.1j, 2.0)
    q = p.recenter(-0.5 + 0.2j, 0.7)
    z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    assert np.allclose(p(z), q(z), rtol=1e-12, atol=1e-12)
    assert p.degree == 5
    assert Polynomial((0j,)).degree == -1


def test_polynomial_in_place_horner_is_bitwise(rng):
    """In-place Horner gives the bits of acc = acc * u + c, on arrays and
    scalars, and a scalar z still gives a NumPy scalar."""
    p = Polynomial(tuple(rng.standard_normal(16) + 1j * rng.standard_normal(16)), 0.3 - 0.2j, 1.7)

    def horner(z):
        u = (np.asarray(z) - p.center) / p.scale
        acc = np.zeros_like(u)
        for c in reversed(p.coeffs):
            acc = acc * u + c
        return acc

    z = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
    for arg in (z, z[:, ::3], z.real):
        assert p(arg).tobytes() == horner(arg).tobytes()
    for arg in (0.25, 1 - 2j, np.complex128(0.3j), 3):
        got, want = p(arg), horner(arg)
        assert type(got) is type(want) is np.complex128
        assert got.tobytes() == want.tobytes()


def test_polynomial_taylor_roundtrip(rng):
    taylor = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    p = Polynomial.from_taylor(taylor, 0.1 + 0j, 3.0)
    assert np.allclose(p.taylor_coefficients(), taylor)


def test_penalty_weight_suppresses_mass_near_tangency(unit_moon):
    """Raising L kills the weighted mass where |P| > 1 and nowhere else."""
    from wbl import SumWeight, weighted_norm_sq
    from wbl.quad import integrate, weight_factor

    probe = Polynomial.from_taylor([0.5 / 1.2, 1 / 1.2])  # (z + 0.5) / 1.2
    one = lambda z: np.ones(np.shape(z), dtype=complex)
    norms = []
    for L in (1.0, 10.0, 100.0):
        w = SumWeight((ZeroWeight(), poly_bump_weight(probe, 1.0, L)))
        v, _ = weighted_norm_sq(one, unit_moon, w, 1e-7, rule_order=12)
        norms.append(v)
    assert norms[0] > norms[1] > norms[2]

    # the mass over the untouched level set is a floor for every L
    def keep_region(z):
        return np.where(np.abs(probe(z)) <= 1.0, 1.0, 0.0)

    floor, err = integrate(unit_moon, keep_region, (), 1e-4, rule_order=12)
    assert all(v >= floor.real - err - 1e-4 for v in norms)
