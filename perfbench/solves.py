"""The benchmark's solves: seeded inputs, the call into wbl, and the oracle check.

A solve is one call (or a short fixed chain of calls) into a public wbl
function. Each solve kind has four parts:

- ``draw(u)``: the free problem parameters, from a tuple of uniform numbers
  in [0, 1) that the workload generator stratifies per seed;
- ``oracle(params, cache)``: reference values from ``oracles`` that depend
  only on the inputs, computed before the timed window;
- ``run(params, api)``: the timed call; ``api`` holds the wbl entry points,
  plain or traced;
- ``check(params, out, ref, cache)``: (ok, worst relative error, note),
  computed after the timed window.

Tolerances are fixed here and never tuned to the results: distances must be
within 1e-6 relative of the oracle on every d_n >= 1e-12 d_0; a scalar must
be within the tolerance that its call requests, carried to a relative
tolerance on the checked quantity where the call's tolerance is absolute.
"""

from __future__ import annotations

import cmath
import json
import math

import oracles

DIST_RTOL = 1e-6
DIST_FLOOR = 1e-12
CERT_RTOL = 1e-9  # certificate scalars; the same 1e-9 as the sharpness check on Y


def distance_error(got, want):
    """Worst relative error over the oracle entries above the resolvable floor."""
    ref = next(w for w in want if w is not None)
    worst = 0.0
    for g, w in zip(got, want):
        if w is None or w < DIST_FLOOR * ref:
            continue
        e = abs(g - w) / w
        worst = max(worst, e if math.isfinite(e) else math.inf)
    return worst


def rel_err(got, want):
    e = abs(got - want) / abs(want)
    return e if math.isfinite(e) else math.inf


def _polar(r, th):
    return complex(cmath.rect(r, th))


def _angle(u_octant, u_offset):
    """Uniform angle whose offset within its octant is a stratum of its own.

    The quadrature's initial cells have edges at multiples of pi/4, and the
    cost near an atom depends sharply on how close it sits to one; drawing
    that offset from its own strata keeps the mix of near-edge and mid-cell
    draws the same in every run.
    """
    return math.pi / 4 * (math.floor(8 * u_octant) + u_offset)


def _lerp(lo, hi, u):
    return lo + (hi - lo) * u


def _inv_sqrt(spec):
    return lambda z: 1.0 / spec.sqrt(z)


# ---- scan ------------------------------------------------------------------


# The first uniform of each draw follows the best-spread sequence, so it goes
# to the angle's offset within its octant, which drives the cost most.


def _draw_pole(u):
    return {"a": _polar(_lerp(1.5, 3.0, u[1]), _angle(u[2], u[0]))}


def _pole(a):
    return lambda z: 1.0 / (z - a)


def _run_disc_pole_zero(prm, api):
    f = api.target(_pole(prm["a"]))
    scan = api.density_scan(f, api.Disc(0j, 1.0), api.ZeroWeight(), N_max=40, rule_order=12)
    return {"distances": [float(d) for d in scan.distances]}


def _run_disc_pole_atom(prm, api):
    f = api.target(_pole(prm["a"]))
    w = api.LogPotential([(0j, 1.5)])
    scan = api.density_scan(f, api.Disc(0j, 1.0), w, N_max=20, rule_order=12)
    return {"distances": [float(d) for d in scan.distances]}


def _check_distances(prm, out, ref, cache):
    worst = distance_error(out["distances"], ref)
    return worst <= DIST_RTOL, worst, ""


def _draw_gram(u):
    return {"z0": _polar(_lerp(0.2, 0.5, u[1]), _angle(u[2], u[0])), "alpha": _lerp(1.0, 1.4, u[3])}


def _run_gram(prm, api):
    w = api.LogPotential([(prm["z0"], prm["alpha"])])
    g = api.gram_matrix(api.Disc(0j, 1.0), w, N=3, tol=1e-10)
    return {"g00": float(g.matrix[0, 0].real), "flagged": bool(g.ill_conditioned)}


def _check_gram(prm, out, ref, cache):
    worst = rel_err(out["g00"], ref)
    return worst <= 1e-10, worst, "flagged" if out["flagged"] else "not flagged"


EXTREMAL_ALPHA = 1.0


def _run_extremal(prm, api):
    basis = api.extremal_basis(api.Disc(0j, 1.0), api.LogPotential([(0j, EXTREMAL_ALPHA)]), N=15, tol=1e-10)
    lead = [abs(complex(b.taylor_coefficients()[n])) for n, b in enumerate(basis)]
    return {"lead": lead, "scale": float(basis[0].scale)}


def _check_extremal(prm, out, ref, cache):
    # The call's tol is relative to the mass G_00. For a radial weight the
    # Gram matrix is diagonal and a_n = s^n G_nn^(-1/2), so an absolute error
    # tol * G_00 on G_nn moves a_n by the relative amount tol * G_00 / (2 G_nn).
    s, alpha = out["scale"], EXTREMAL_ALPHA
    ok, worst = True, 0.0
    for n, (got, want) in enumerate(zip(out["lead"], ref)):
        g_ratio = (2 * n + 2 - alpha) / (2 - alpha) * s ** (2 * n)
        e = rel_err(got, want)
        ok &= e <= 0.5 * 1e-10 * g_ratio
        worst = max(worst, e)
    return ok, worst, ""


def _draw_jet(u):
    a = _polar(_lerp(1.5, 3.0, u[1]), _angle(u[2], u[0]))
    # pinned jet: the target's own Taylor coefficients, each moved by up to 50 %
    c = [-1 / a ** (k + 1) for k in range(2)]
    jet = tuple(ck * (1 + 0.5 * _polar(u[3 + k], 2 * math.pi * u[5 + k])) for k, ck in enumerate(c))
    return {"a": a, "jet": jet}


def _run_jet(prm, api):
    f = api.target(_pole(prm["a"]))
    res = api.best_poly_approx_with_jet(f, api.Disc(0j, 1.0), api.ZeroWeight(), n=15, jet=prm["jet"])
    return {"distances": [float(d) for d in res.distances]}


MOON = ((0j, 1.0), (0.45 + 0j, 0.55))


def _run_moon_criterion(prm, api):
    moon = api.Moon(api.Disc(*MOON[0]), api.Disc(*MOON[1]))
    out = {}
    for key, w in (("zero", api.ZeroWeight()), ("im_abs", api.ImAbsPlusPower(0.5))):
        rep = api.moon_density_criterion(moon, w, N_max=20, rule_order=12)
        out[key] = (rep["distances"][0], rep["control"]["distances"][0])
    return out


def _check_moon_criterion(prm, out, ref, cache):
    errs = [rel_err(g, w) for key in ("zero", "im_abs") for g, w in zip(out[key], ref[key])]
    return max(errs) <= DIST_RTOL, max(errs), ""


STAGE_ALPHAS = [0.2]


def _run_moon_stage(prm, api):
    region, _ = api.moon_stage(1, STAGE_ALPHAS)
    spec = api.BranchSpec(1.0 + 0j)
    scan = api.density_scan(api.target(_inv_sqrt(spec)), region, api.ZeroWeight(), N_max=12, rule_order=12)
    P = scan.approx.polynomial
    alpha_k, val, err = api.strip_budget_search(1, STAGE_ALPHAS, P, api.ZeroWeight(), rule_order=12)
    return {
        "d0": float(scan.distances[0]),
        "alpha_k": alpha_k,
        "strip": val,
        "strip_err": err,
        "poly": ([complex(c) for c in P.coeffs], complex(P.center), float(P.scale)),
    }


def _check_moon_stage(prm, out, ref, cache):
    coeffs, center, scale = out["poly"]
    key = ("strip_integral", out["alpha_k"], math.pi / 4, tuple(coeffs), center, scale)
    strip = cache.get(key, lambda: oracles.strip_integral(out["alpha_k"], math.pi / 4, coeffs, center, scale))
    e_strip = rel_err(out["strip"], strip)
    e_d0 = rel_err(out["d0"], ref)
    within_budget = out["strip"] + out["strip_err"] < 0.5 ** 2
    ok = e_d0 <= DIST_RTOL and e_strip <= 1e-6 and within_budget
    return ok, max(e_d0, e_strip), ""


# ---- certify ---------------------------------------------------------------


def poisson_rtol(p, samples, tol):
    """The call's absolute tolerance on U, relative at the smallest U."""
    return tol / min(oracles.poisson_closed_form(p, abs(x), y) for x, y in samples)


def _draw_poisson(u):
    # u packs 200 numbers: a log-radius and an angle for each of 100 samples
    n = len(u) // 2
    samples = []
    for i in range(n):
        r = 10.0 ** _lerp(-3.0, 3.0, u[i])
        th = math.pi * _lerp(0.05, 0.95, u[n + i])
        samples.append((r * math.cos(th), r * math.sin(th)))
    return {"samples": tuple(samples)}


def _run_poisson(prm, api):
    rep = api.poisson_bounds_check(0.5, prm["samples"], tol=1e-9)
    return {"margins": (rep["min_lower_margin"], rep["min_upper_margin"])}


def _check_margins(p, samples, margins, tol):
    ref = oracles.poisson_margins(p, samples)
    worst = max(rel_err(g, w) for g, w in zip(margins, ref))
    return worst <= poisson_rtol(p, samples, tol), worst


def _check_poisson(prm, out, ref, cache):
    ok, worst = _check_margins(0.5, prm["samples"], out["margins"], 1e-9)
    return ok, worst, ""


def _run_nondensity(p):
    def run(prm, api):
        c = api.nondensity_certificate(p, 10.0)
        return {"p": c.p, "M": c.M, "Y": c.Y, "eps0_sq": c.epsilon0_sq}

    return run


def check_certificate(c):
    """Y is the sharp threshold and epsilon0^2 is right, by mpmath."""
    above, below, err = oracles.nondensity_check(c["p"], c["M"], c["Y"], c["eps0_sq"])
    note = "" if above and below else f"gap(Y) > 0: {above}, gap(Y(1 - 1e-9)) <= 0: {below}"
    return above and below and err <= CERT_RTOL, err, note


def _check_nondensity(prm, out, ref, cache):
    return check_certificate(out)


def check_enclosure(enc, trunc_ref, tail_ref):
    """The enclosure must hold every norm the mpmath values allow.

    The true squared norm lies in [trunc, trunc + tail] with trunc the
    mpmath integral over |z| < R and tail the incomplete-gamma bound, since
    |cos(z/2)|^2 e^-|Im z| <= 1.
    """
    inside = enc["norm_sq_lower"] <= trunc_ref and trunc_ref + tail_ref <= enc["norm_sq_upper"]
    e = rel_err(enc["trunc_value"], trunc_ref)
    ok = inside and enc["tail"] >= tail_ref * (1 - 1e-12) and e <= enc["trunc_tol"] / trunc_ref
    return ok, e


def enclosure_oracle(cache, p, R):
    return {
        "trunc": cache.get(("cos_half_truncated_norm", p, R), lambda: oracles.cos_half_truncated_norm(p, R)),
        "tail": oracles.gamma_tail(p, R),
    }


def _run_enclosure(prm, api):
    cert, enc = api.certificate_from_enclosure(0.5, 40.0, tol=1e-4)
    return {
        "cert": {"p": cert.p, "M": cert.M, "Y": cert.Y, "eps0_sq": cert.epsilon0_sq},
        "enc": dict(enc, trunc_tol=1e-4),
    }


def _check_enclosure(prm, out, ref, cache):
    ok_enc, e_enc = check_enclosure(out["enc"], ref["trunc"], ref["tail"])
    ok_cert, e_cert, note = check_certificate(out["cert"])
    m_ok = out["cert"]["M"] == 1.0 + math.sqrt(out["enc"]["norm_sq_upper"])
    return ok_enc and ok_cert and m_ok, max(e_enc, e_cert), note


def _draw_centred(u):
    return {"alpha": _lerp(0.5, 1.5, u[0])}


def _run_potential(prm, api):
    res = api.potential_mass_bound(prm["alphas"], prm["points"], api.Disc(0j, 1.0), tol=1e-8)
    return {"integral": res.integral}


def _check_potential(prm, out, ref, cache):
    e = rel_err(out["integral"], ref)
    return e <= 1e-8 / ref, e, ""


def _draw_offcenter(u):
    # The README family: two atoms on opposite sides of the real axis. The
    # cost grows steeply with the total mass, so it takes the best-spread
    # coordinate; the first atom gets 40-60 % of it.
    total = _lerp(0.9, 1.2, u[0])
    share = _lerp(0.4, 0.6, u[1])
    return {
        "points": (_lerp(0.4, 0.6, u[2]) + 0j, -_lerp(0.4, 0.6, u[3]) + 0j),
        "alphas": (total * share, total * (1 - share)),
    }


class Kind:
    """One solve kind; ``dims`` is the number of uniform draws it consumes."""

    def __init__(self, name, run, check, oracle, draw=None, dims=0, ndraws=None):
        self.name, self.run, self.check, self.oracle = name, run, check, oracle
        self.draw, self.dims, self.ndraws = draw or (lambda u: {}), dims, ndraws


def _nd_kind(p):
    return Kind(f"nondensity-p{p}", _run_nondensity(p), _check_nondensity, lambda prm, c: None)


SCAN = [
    Kind("disc-pole-zero-N40", _run_disc_pole_zero, _check_distances,
         lambda prm, c: oracles.disc_pole_distances(prm["a"], 40), _draw_pole, 3),
    Kind("disc-pole-atom-N20", _run_disc_pole_atom, _check_distances,
         lambda prm, c: oracles.disc_pole_distances(prm["a"], 20, 1.5), _draw_pole, 3),
    Kind("gram-offcenter-atom", _run_gram, _check_gram,
         lambda prm, c: oracles.offcenter_gram00(prm["z0"], prm["alpha"]), _draw_gram, 4),
    Kind("extremal-atom-N15", _run_extremal, _check_extremal,
         lambda prm, c: oracles.extremal_leading(15, EXTREMAL_ALPHA)),
    Kind("jet-disc-N15", _run_jet, _check_distances,
         lambda prm, c: oracles.disc_jet_distances(prm["a"], prm["jet"], 15), _draw_jet, 7),
    Kind("moon-criterion-N20", _run_moon_criterion, _check_moon_criterion,
         lambda prm, c: {
             "zero": c.get(("moon_d0_zero_weight",), oracles.moon_d0_zero_weight),
             "im_abs": c.get(("moon_d0_im_abs_power", 0.5), lambda: oracles.moon_d0_im_abs_power(0.5)),
         }),
    Kind("moon-stage-1", _run_moon_stage, _check_moon_stage,
         lambda prm, c: c.get(("stage_inv_sqrt_d0", 1, tuple(STAGE_ALPHAS)),
                              lambda: oracles.stage_inv_sqrt_d0(1, STAGE_ALPHAS))),
]

CERTIFY = [
    Kind("poisson-100", _run_poisson, _check_poisson, lambda prm, c: None, _draw_poisson, 200),
    _nd_kind(0.3),
    _nd_kind(0.5),
    _nd_kind(0.7),
    Kind("enclosure-R40", _run_enclosure, _check_enclosure, lambda prm, c: enclosure_oracle(c, 0.5, 40.0)),
    Kind("potential-centred",
         lambda prm, api: _run_potential({"alphas": [prm["alpha"]], "points": [0j]}, api),
         _check_potential, lambda prm, c: oracles.centred_potential(prm["alpha"]), _draw_centred, 1),
    Kind("potential-offcenter-2", _run_potential, _check_potential,
         lambda prm, c: c.get(("offcenter_potential", prm["points"], prm["alphas"]),
                              lambda: oracles.offcenter_potential(prm["points"], prm["alphas"])),
         _draw_offcenter, 4, ndraws=8),  # each draw costs an mpmath 2-D integral
]


# ---- cli -------------------------------------------------------------------
# Each cli solve is one `python -m wbl.cli` process on a README config. Its
# check parses the artifact and compares the key numbers with the oracles;
# byte identity across repeats of the same solve is checked by the worker.

QUAD_FINE = {"tol": 1e-10, "rule_order": 12, "max_cells": 100000}
CLI_CONFIGS = {
    "scan.json": {
        "domain": {"type": "disc", "c": [0, 0], "r": 1},
        "weight": {"type": "zero"},
        "target": "pole:2",
        "p": [0, 0],
        "s": 1.0,
        "N_max": 20,
        "quad": QUAD_FINE,
    },
    "moon.json": {
        "domain": {"type": "moon", "outer": {"c": [0, 0], "r": 1}, "inner": {"c": [0.45, 0], "r": 0.55}},
        "weight": {"type": "zero"},
        "target": "inv-sqrt",
        "N_max": 20,
        "quad": QUAD_FINE,
    },
    "potential.json": {
        "domain": {"type": "disc", "c": [0, 0], "r": 1},
        "alphas": [0.5, 0.5],
        "points": [[0.5, 0], [-0.5, 0]],
    },
    "stage.json": {
        "k": 2,
        "alphas": [0.1, 0.05],
        "weight": {"type": "zero"},
        "N_max": 10,
        "quad": {"tol": 1e-7, "rule_order": 12, "max_cells": 100000},
    },
}


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines() if line and line[0].isdigit()]


def _cli_gram(art, ref):
    worst, off = 0.0, 0.0
    for j, k, re_, im_ in _csv_rows(art):
        v = complex(float(re_), float(im_))
        if j == k:
            worst = max(worst, rel_err(v.real, math.pi / (int(j) + 1)), abs(v.imag) / math.pi)
        else:
            off = max(off, abs(v) / math.pi)
    worst = max(worst, off)
    return worst <= 1e-10, worst


def _cli_density_scan(art, ref):
    d = [float(row[1]) for row in _csv_rows(art)]
    worst = distance_error(d, ref)
    return worst <= DIST_RTOL, worst


def _cli_moon_criterion(art, ref):
    doc = json.loads(art)
    got = (doc["distances"][0], doc["control"]["distances"][0])
    worst = max(rel_err(g, w) for g, w in zip(got, ref))
    return worst <= DIST_RTOL, worst


def certify_samples():
    """The 16 Poisson samples `wbl certify` draws: 0.05 <= r <= 50 at angle 0.7."""
    lo, hi = math.log(0.05), math.log(50.0)
    return [(r * math.cos(0.7), r * math.sin(0.7))
            for r in (math.exp(lo + (hi - lo) * i / 15) for i in range(16))]


def poisson_check_samples(n):
    """The samples `wbl poisson-check --samples n` draws."""
    lo, hi = math.log(1e-3), math.log(1e3)
    out = []
    for i in range(n):
        r = math.exp(lo + (hi - lo) * i / (n - 1))
        a = 0.1 + (0.8 * i) % 1.0
        out.append((r * math.cos(math.pi * a), abs(r * math.sin(math.pi * a)) + 1e-8 * r))
    return out


def _cli_certify(art, ref):
    doc = json.loads(art)
    ok_c, e_c, _ = check_certificate({k: doc[k] for k in ("p", "M", "Y")} | {"eps0_sq": doc["epsilon0_sq"]})
    ok_e, e_e = check_enclosure(dict(doc["norm_enclosure"], trunc_tol=1e-4), ref["trunc"], ref["tail"])
    chk = doc["checks"]
    ok_p, e_p = _check_margins(0.5, certify_samples(),
                               (chk["poisson"]["min_lower_margin"], chk["poisson"]["min_upper_margin"]), 1e-9)
    pot = oracles.centred_potential(1.0)
    e_pot = rel_err(chk["potential"]["integral"], pot)
    ok = ok_c and ok_e and ok_p and e_pot <= 1e-8 / pot
    return ok, max(e_c, e_e, e_p, e_pot)


def _cli_poisson_check(art, ref):
    doc = json.loads(art)
    return _check_margins(0.5, poisson_check_samples(100),
                          (doc["min_lower_margin"], doc["min_upper_margin"]), 1e-9)


def _cli_potential_check(art, ref):
    e = rel_err(json.loads(art)["integral"], ref)
    return e <= 1e-8 / ref, e


def _cli_moon_stage(art, ref):
    doc = json.loads(art)
    e = rel_err(doc["distances"][0], ref)
    ok = e <= DIST_RTOL and doc["strip_integral"] + doc["strip_err"] < doc["budget"]
    return ok and 0 < doc["alpha_k"] <= 0.05, e


def _cli_kind(name, argv, artifact, check_artifact, oracle):
    """One `wbl` subcommand with its arguments, artifact and artifact check."""

    def run(prm, api):
        return {"artifact": api.run_cli(argv, artifact)}

    def check(prm, out, ref, cache):
        ok, worst = check_artifact(out["artifact"].decode(), ref)
        return ok, worst, ""

    return Kind(name, run, check, oracle)


CLI = [
    _cli_kind("cli-gram", ["gram", "--config", "scan.json"], "gram.csv", _cli_gram, lambda prm, c: None),
    _cli_kind("cli-density-scan", ["density-scan", "--config", "scan.json"], "density_scan.csv",
            _cli_density_scan, lambda prm, c: oracles.disc_pole_distances(2.0, 20)),
    _cli_kind("cli-moon-criterion", ["moon-criterion", "--config", "moon.json"], "moon_criterion.json",
            _cli_moon_criterion,
            lambda prm, c: c.get(("moon_d0_zero_weight",), oracles.moon_d0_zero_weight)),
    _cli_kind("cli-certify", ["certify", "--p", "0.5", "--R", "40"], "certificate.json", _cli_certify,
            lambda prm, c: enclosure_oracle(c, 0.5, 40.0)),
    _cli_kind("cli-poisson-check", ["poisson-check", "--p", "0.5", "--samples", "100"], "poisson_check.json",
            _cli_poisson_check, lambda prm, c: None),
    _cli_kind("cli-potential-check", ["potential-check", "--config", "potential.json"], "potential_check.json",
            _cli_potential_check,
            lambda prm, c: c.get(("offcenter_potential", (0.5, -0.5), (0.5, 0.5)),
                                 lambda: oracles.offcenter_potential((0.5, -0.5), (0.5, 0.5)))),
    _cli_kind("cli-moon-stage", ["moon-stage", "--config", "stage.json"], "moon_stage.json", _cli_moon_stage,
            lambda prm, c: c.get(("stage_inv_sqrt_d0", 2, (0.1, 0.05)),
                                 lambda: oracles.stage_inv_sqrt_d0(2, [0.1, 0.05]))),
]

WORKLOADS = {"scan": SCAN, "certify": CERTIFY, "cli": CLI}
