"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines. Criterion 3
as originally drafted scans the constant 1, which is itself a polynomial, so
its distance sequence is identically zero and the ratio clause d_20 <
0.05 * d_0 reads 0 < 0; that literal form is kept as a strict xfail, and the
density statement it was meant to exercise is verified as criterion
"3-intent" with a non-polynomial target under the same singular weight.
"""

import json
import math
import time

import numpy as np
import pytest

from wbl import (
    Disc,
    ImAbsPlusPower,
    LogPotential,
    Moon,
    Polynomial,
    TruncatedPlane,
    ZeroWeight,
    best_poly_approx,
    change_of_variables_check,
    density_scan,
    extremal_basis,
    gram_matrix,
    integrate,
    make_branch_spec,
    moon_tangency,
    nondensity_certificate,
    parity_split,
    pointwise_eval_bound,
    poisson_bounds_check,
    poisson_extension,
    potential_mass_bound,
    probe_circle,
    weighted_norm_sq,
)
from wbl.certs import cos_half_norm_enclosure
from wbl.cli import main
from wbl.quad import inner_product

UNIT_DISC = Disc(0j, 1.0)
UNIT_MOON = Moon(Disc(0j, 1.0), Disc(0.45 + 0j, 0.55))
FIGURE_MOON = Moon(Disc(0j, 2.0), Disc(1.3 + 0j, 0.7))


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def pole2(z):
    return 1.0 / (np.asarray(z, dtype=complex) - 2.0)


def test_criterion_1_gram_closed_forms():
    t0 = time.perf_counter()
    g = gram_matrix(UNIT_DISC, ZeroWeight(), 0j, 1.0, 12, 1e-10, rule_order=12)
    diag = np.diag(g.matrix).real
    expect = math.pi / (np.arange(13) + 1)
    rel_zero = float(np.max(np.abs(diag - expect) / expect))
    off = float(np.max(np.abs(g.matrix - np.diag(np.diag(g.matrix)))))
    g2 = gram_matrix(UNIT_DISC, LogPotential([(0j, 1.0)]), 0j, 1.0, 12, 1e-10, rule_order=12)
    diag2 = np.diag(g2.matrix).real
    expect2 = 2 * math.pi / (2 * np.arange(13) + 1)
    rel_log = float(np.max(np.abs(diag2 - expect2) / expect2))
    elapsed = time.perf_counter() - t0
    ok = rel_zero <= 1e-8 and off <= 1e-8 and rel_log <= 1e-6 and elapsed <= 10
    report(1, ok, f"gram diag rel {rel_zero:.2e} (zero), {rel_log:.2e} (log), {elapsed:.1f}s")
    assert rel_zero <= 1e-8 and off <= 1e-8
    assert rel_log <= 1e-6
    assert elapsed <= 10


def test_criterion_2_distance_series_oracle():
    t0 = time.perf_counter()
    res = best_poly_approx(pole2, UNIT_DISC, ZeroWeight(), 0j, 1.0, 10, 1e-12, rule_order=12)
    ks = np.arange(140)
    terms = math.pi / ((ks + 1) * 4.0 ** (ks + 1))
    oracle = np.array([math.sqrt(terms[n + 1 :].sum()) for n in range(11)])
    rel = float(np.max(np.abs(res.distances - oracle) / oracle))
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-6 and elapsed <= 30
    report(2, ok, f"series-tail rel err {rel:.2e} for n <= 10, {elapsed:.1f}s")
    assert rel <= 1e-6
    assert elapsed <= 30


@pytest.mark.xfail(
    strict=True,
    reason="f = 1 is itself a polynomial, so every distance is zero and the "
    "ratio clause d_20 < 0.05 * d_0 reads 0 < 0; kept verbatim as a "
    "known-impossible check",
)
def test_criterion_3_literal_singular_weight_scan():
    t0 = time.perf_counter()
    scan = density_scan(
        lambda z: np.ones(np.shape(z), dtype=complex),
        UNIT_DISC,
        LogPotential([(0j, 1.5)]),
        0j,
        1.0,
        20,
        1e-8,
        rule_order=12,
    )
    d = scan.distances
    elapsed = time.perf_counter() - t0
    monotone = bool(np.all(np.diff(d) <= 1e-12))
    ratio_ok = d[20] < 0.05 * d[0]
    report(3, monotone and ratio_ok and elapsed <= 60,
           f"literal f=1 scan: d_0 ={d[0]:.2e}, d_20 ={d[20]:.2e} (roundoff floor)")
    assert monotone and ratio_ok
    assert elapsed <= 60


def test_criterion_3_intent_singular_weight_density():
    t0 = time.perf_counter()
    scan = density_scan(
        pole2, UNIT_DISC, LogPotential([(0j, 1.5)]), 0j, 1.0, 20, 1e-10, rule_order=12
    )
    d = scan.distances
    elapsed = time.perf_counter() - t0
    monotone = bool(np.all(np.diff(d) <= 1e-12))
    ok = monotone and d[20] < 0.05 * d[0] and elapsed <= 60
    report("3-intent", ok,
           f"pole target under 1.5 log|z|: monotone={monotone}, d_20/d_0 ={d[20]/d[0]:.2e}, "
           f"verdict {scan.verdict}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_extremal_basis():
    results = []
    for domain in (UNIT_DISC, UNIT_MOON):
        g = gram_matrix(domain, ZeroWeight(), N=10, tol=1e-11, rule_order=12)
        basis = extremal_basis(domain, ZeroWeight(), gram=g)
        C = np.array([np.asarray(b.coeffs) for b in basis])
        dev = float(np.max(np.abs(C.conj() @ g.matrix @ C.T - np.eye(11))))
        # independent spot check of a few inner products by fresh quadrature
        spot = 0.0
        for (j, k) in ((0, 0), (3, 3), (10, 10), (0, 7), (2, 9)):
            v, _ = inner_product(basis[j], basis[k], domain, ZeroWeight(), 1e-10, rule_order=12)
            spot = max(spot, abs(v - (1.0 if j == k else 0.0)))
        # brute-force maximality oracle for N <= 6
        g6 = gram_matrix(domain, ZeroWeight(), N=6, tol=1e-11, rule_order=12)
        basis6 = extremal_basis(domain, ZeroWeight(), gram=g6)
        lead_rel = 0.0
        for n in range(7):
            corner = np.linalg.inv(g6.matrix[n:, n:])[0, 0].real
            a_oracle = math.sqrt(corner)
            lead = np.asarray(basis6[n].coeffs)[n].real
            lead_rel = max(lead_rel, abs(lead - a_oracle) / a_oracle)
        results.append((dev, spot, lead_rel))
    ok = all(dev <= 1e-8 and spot <= 1e-7 and lead <= 1e-6 for dev, spot, lead in results)
    report(4, ok, "; ".join(
        f"gram-dev {dev:.1e}, spot {spot:.1e}, lead rel {lead:.1e}" for dev, spot, lead in results
    ) + " (disc; moon)")
    for dev, spot, lead_rel in results:
        assert dev <= 1e-8
        assert spot <= 1e-7
        assert lead_rel <= 1e-6


def test_criterion_5_poisson_sandwich():
    t0 = time.perf_counter()
    u = poisson_extension(0.5, 0.0, 1.0, 1e-8)
    err_u = abs(u - math.sqrt(2))
    radii = np.exp(np.linspace(math.log(1e-2), math.log(1e2), 100))
    samples = [(r * math.cos(1.1), r * math.sin(1.1)) for r in radii]
    rep = poisson_bounds_check(0.5, samples, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = err_u <= 1e-6 and rep["violations"] == 0 and elapsed <= 10
    report(5, ok, f"U(0,1) err {err_u:.2e}; sandwich 100/100 samples, {elapsed:.1f}s")
    assert err_u <= 1e-6
    assert rep["violations"] == 0
    assert elapsed <= 10


def test_criterion_6_potential_bounds():
    v, e = integrate(UNIT_DISC, lambda z: 1.0 / np.abs(z), ((0j, 1.0),), 1e-7)
    sharp_err = abs(v.real - 2 * math.pi)
    gen = np.random.default_rng(20240817)
    worst_slack = math.inf
    for _ in range(20):
        n_atoms = int(gen.integers(1, 4))
        alphas = gen.uniform(0.1, 0.6, n_atoms)
        alphas *= gen.uniform(0.3, 1.9) / alphas.sum()
        pts = [complex(gen.uniform(-1.5, 1.5), gen.uniform(-1.5, 1.5)) for _ in range(n_atoms)]
        radius = float(gen.uniform(0.5, 2.0))
        res = potential_mass_bound(list(alphas), pts, Disc(0j, radius), 1e-6)
        worst_slack = min(worst_slack, res.lebesgue_bound - (res.integral - res.err))
    ok = sharp_err <= 1e-6 and worst_slack >= 0
    report(6, ok, f"centered case err {sharp_err:.2e}; min bound slack {worst_slack:.3f} over 20 configs")
    assert sharp_err <= 1e-6
    assert worst_slack >= 0


def test_criterion_7_nondensity_certificate_pipeline():
    t0 = time.perf_counter()
    w = ImAbsPlusPower(0.5)
    enc = cos_half_norm_enclosure(0.5, 40.0, tol=1e-4, rule_order=12, max_cells=60_000)
    M = 1.0 + math.sqrt(enc["norm_sq_upper"])
    cert = nondensity_certificate(0.5, M)
    scan = density_scan(
        lambda z: np.cos(0.5 * np.asarray(z, dtype=complex)),
        TruncatedPlane(40.0),
        w,
        N_max=20,
        tol=1e-6,
        rule_order=12,
        max_cells=60_000,
    )
    d = scan.distances
    floor = math.sqrt(cert.epsilon0_sq)
    tail_cos = enc["tail"]
    # exterior mass of the approximant: |P(z)| <= sum |c_k| (r/s)^k, and
    # int_{|z|>R} r^m e^-(|y| + r^p) <= 2 pi int_R^inf r^(m+1) e^-r^p dr
    coeffs = np.abs(np.asarray(scan.approx.polynomial.coeffs))
    s = scan.approx.polynomial.scale
    import scipy.special as sp

    beta = coeffs / s ** np.arange(len(coeffs))
    sq = np.convolve(beta, beta)
    p_exp = 0.5
    tail_poly = 0.0
    for m, bm in enumerate(sq):
        a = (m + 2) / p_exp
        tail_poly += bm * (1 / p_exp) * sp.gammaincc(a, 40.0**p_exp) * sp.gamma(a)
    tail_poly *= 2 * math.pi
    allowance = math.sqrt(tail_cos) + math.sqrt(tail_poly) + scan.approx.error_budget
    holds = bool(np.all(floor <= d + allowance))
    strong = bool(np.all(floor <= d))  # tail-free margin, far stronger
    elapsed = time.perf_counter() - t0
    ok = cert.epsilon0_sq > 0 and holds and strong and elapsed <= 300
    report(7, ok,
           f"M={M:.3f}, eps0_sq={cert.epsilon0_sq:.2e} > 0; floor {floor:.1e} <= every d_n "
           f"(min {d.min():.2f}), allowance {allowance:.1f}, {elapsed:.1f}s")
    assert cert.epsilon0_sq > 0
    assert holds
    assert strong
    assert elapsed <= 300


def test_criterion_8_moon_transform_mechanics(rng):
    spec = make_branch_spec(UNIT_MOON)
    # parity-split identity, exact on 100 random points
    worst = 0.0
    for _ in range(10):
        deg = int(rng.integers(0, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        P = Polynomial(tuple(coeffs))
        p1, p2 = parity_split(P)
        ws = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        dev = np.max(np.abs(P(ws) - (p1(ws**2) + ws * p2(ws**2))))
        worst = max(worst, float(dev / max(1.0, np.max(np.abs(P(ws))))))
    parity_ok = worst < 1e-13

    pairs = [
        (lambda z: np.ones(np.shape(z), dtype=complex), ZeroWeight()),
        (lambda z: 1.0 / spec.sqrt(z), ZeroWeight()),
        (lambda z: np.asarray(z, dtype=complex), LogPotential([(0j, 0.5)])),
    ]
    cov_ok = True
    for f, weight in pairs:
        lhs, rhs, disc, err = change_of_variables_check(f, UNIT_MOON, weight, spec, 1e-9)
        cov_ok &= disc <= err + 1e-12

    restate_ok = True
    for _ in range(5):
        deg = int(rng.integers(0, 7))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        R = Polynomial(tuple(coeffs))

        def g_direct(z):
            return np.abs(1.0 / spec.sqrt(z) - R(z)) ** 2

        def g_transformed(z):
            return np.abs(1.0 - spec.sqrt(z) * R(z)) ** 2 / np.abs(z)

        v1, e1 = integrate(UNIT_MOON, g_direct, (), 1e-9)
        v2, e2 = integrate(UNIT_MOON, g_transformed, (), 1e-9)
        restate_ok &= abs(v1.real - v2.real) <= e1 + e2 + 1e-10 * max(1.0, v1.real)

    ok = parity_ok and cov_ok and restate_ok
    report(8, ok, f"parity worst rel {worst:.1e}; change-of-variables and "
                  f"inv-sqrt restatement within quadrature error")
    assert parity_ok and cov_ok and restate_ok


def test_criterion_9_moon_nondensity_inequality(rng):
    q, c = moon_tangency(FIGURE_MOON, probe_radius=1.5)
    center, rho = probe_circle(FIGURE_MOON, probe_radius=1.5)
    phi = np.angle(q - center) + 2 * np.pi * (np.arange(1000) + 0.5) / 1000
    zg = center + rho * np.exp(1j * phi)
    c_tilde = math.exp(ZeroWeight().upper_bound(FIGURE_MOON))
    bound_ok = True
    for _ in range(20):
        ca = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        cb = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        diff = Polynomial(tuple(ca - cb), 0j, 2.0)
        nrm, err = weighted_norm_sq(diff, FIGURE_MOON, ZeroWeight(), 1e-7, rule_order=12)
        norm_diff = math.sqrt(nrm + err)
        # |(w-Q)^2 (P_a-P_b)(w)| <= d(w)/C * sqrt(C~/pi)/d(w) * ||P_a-P_b||
        c_prime = math.sqrt(c_tilde / math.pi) / c * norm_diff
        bound_ok &= bool(np.all(np.abs((zg - q) ** 2 * diff(zg)) <= c_prime * (1 + 1e-9)))
        # consistency of the two certified ingredients at two probe points
        for z0 in (zg[250], zg[750]):
            b = pointwise_eval_bound(FIGURE_MOON, ZeroWeight(), complex(z0), norm_diff)
            bound_ok &= abs(diff(complex(z0))) <= b * (1 + 1e-9)

    scan = density_scan(
        lambda z: 1.0 / (np.asarray(z, dtype=complex) - 1.3),
        FIGURE_MOON,
        ZeroWeight(),
        N_max=25,
        tol=1e-8,
        rule_order=12,
    )
    d = scan.distances
    plateau_ok = d[25] > 0.2 * d[0]
    ok = bound_ok and plateau_ok
    report(9, ok, f"eval bound held at 1000 probe points x 20 pairs; "
                  f"d_25/d_0 = {d[25]/d[0]:.3f} > 0.2 (verdict: {scan.verdict}, advisory)")
    assert bound_ok
    assert plateau_ok


def test_criterion_10_bit_identical_reruns(tmp_path):
    moon_cfg = {
        "domain": {
            "type": "moon",
            "outer": {"c": [0, 0], "r": 1},
            "inner": {"c": [0.45, 0], "r": 0.55},
        },
        "weight": {"type": "zero"},
        "target": "inv-sqrt",
        "N_max": 6,
        "quad": {"tol": 1e-7, "rule_order": 8, "max_cells": 50000},
    }
    disc_cfg = {
        "domain": {"type": "disc", "c": [0, 0], "r": 1},
        "weight": {"type": "zero"},
        "target": "pole:2",
        "N_max": 6,
        "quad": {"tol": 1e-9, "rule_order": 8, "max_cells": 50000},
    }
    pot_cfg = {
        "domain": {"type": "disc", "c": [0, 0], "r": 1},
        "alphas": [0.8],
        "points": [[0.2, 0.1]],
        "quad": {"tol": 1e-6},
    }
    stage_cfg = {
        "k": 1,
        "alphas": [0.1],
        "weight": {"type": "zero"},
        "N_max": 6,
        "quad": {"tol": 1e-6, "rule_order": 8, "max_cells": 50000},
    }
    runs = [
        (["gram"], disc_cfg, "gram.csv"),
        (["density-scan"], disc_cfg, "density_scan.csv"),
        (["moon-criterion"], moon_cfg, "moon_criterion.json"),
        (["certify", "--p", "0.5", "--M", "10"], None, "certificate.json"),
        (["poisson-check", "--p", "0.5", "--samples", "10"], None, "poisson_check.json"),
        (["potential-check"], pot_cfg, "potential_check.json"),
        (["moon-stage"], stage_cfg, "moon_stage.json"),
    ]
    identical = True
    for args, cfg, fname in runs:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{fname}.{tag}"
            argv = list(args)
            if cfg is not None:
                cfg_path = tmp_path / f"{fname}.{tag}.json"
                cfg_path.write_text(json.dumps(cfg))
                argv += ["--config", str(cfg_path)]
            argv += ["--out", str(out)]
            assert main(argv) == 0
            outs.append((out / fname).read_bytes())
        identical &= outs[0] == outs[1]
    report(10, identical, "all seven subcommands rerun bit-identically")
    assert identical
