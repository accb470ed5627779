"""The benchmark's own tests, kept out of the package's test suite.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import solves  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ---- oracle cross-checks ---------------------------------------------------


@pytest.mark.parametrize("a, alpha", [(2.0, 0.0), (1.5j, 0.0), (-2.5 + 1j, 1.5), (3.0, 1.0)])
def test_disc_series_matches_mpmath_sum(a, alpha):
    got = oracles.disc_pole_distances(a, 12, alpha)
    x = mpmath.mpf(abs(a)) ** -2
    for n in (0, 5, 12):
        want = mpmath.sqrt(mpmath.nsum(lambda k: x ** (k + 1) * 2 * mpmath.pi / (2 * k + 2 - alpha), [n + 1, mpmath.inf]))
        assert got[n] == pytest.approx(float(want), rel=1e-13)


def test_jet_distances_reduce_to_the_series_for_the_exact_jet():
    a = 2.0 - 0.5j
    exact = (-1 / a, -1 / a**2)
    got = oracles.disc_jet_distances(a, exact, 10)
    ref = oracles.disc_pole_distances(a, 10)
    assert got[:2] == [None, None]
    for n in range(2, 11):
        assert got[n] == pytest.approx(ref[n], rel=1e-13)


@pytest.mark.parametrize("p, x, y", [(0.5, 0.3, 0.7), (0.3, -2.0, 0.01), (0.7, 40.0, 3.0), (0.5, 0.0, 1e-3)])
def test_poisson_closed_form_matches_quadrature(p, x, y):
    assert oracles.poisson_closed_form(p, abs(x), y) == pytest.approx(oracles.poisson_quadrature(p, x, y), rel=1e-10)


def test_offcenter_gram00_reference_value():
    assert oracles.offcenter_gram00(0.3 + 0.2j, 1.2) == pytest.approx(7.600794368, abs=5e-10)


def test_offcenter_potential_agrees_with_gram00_when_one_mass_vanishes():
    got = oracles.offcenter_potential((0.3 + 0.2j, -0.4 + 0j), (1.2, 0.0))
    assert got == pytest.approx(oracles.offcenter_gram00(0.3 + 0.2j, 1.2), rel=1e-10)


def test_gamma_tail_matches_radial_integral():
    p, R = 0.5, 40.0
    direct = 2 * mpmath.pi * mpmath.quad(lambda r: r * mpmath.exp(-(r**p)), [R, 400, 4000, mpmath.inf])
    assert oracles.gamma_tail(p, R) == pytest.approx(float(direct), rel=1e-10)


def test_centred_oracles_close_forms():
    assert oracles.centred_potential(1.0) == pytest.approx(2 * math.pi)
    lead = oracles.extremal_leading(3, 1.0)
    assert lead[0] == pytest.approx(1 / math.sqrt(2 * math.pi))


def test_nondensity_check_accepts_exact_constants_and_rejects_a_wrong_threshold():
    p, M = 0.5, 10.0
    cp = 2 / math.cos(p * math.pi / 2)
    c1 = math.log(M) + 1 - 0.5 * math.log(math.pi)
    gap = lambda r: r / 4 - math.log1p(4 * math.exp(c1 + cp * r**p))  # noqa: E731
    lo, hi = 10.0, 1e4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) <= 0 else (lo, mid)
    Y = hi * (1 + 1e-12)
    eps = math.pi / 3 * math.exp(2 * c1 + 2 * cp * Y**p - 2 * Y)
    assert oracles.nondensity_check(p, M, Y, eps)[:2] == (True, True)
    assert oracles.nondensity_check(p, M, 2 * Y, eps)[1] is False


def test_poisson_margins_use_only_the_angle():
    lo, hi = oracles.poisson_margins(0.5, [(0.0, 1.0), (0.0, 1e3)])
    assert lo == pytest.approx(4 / math.cos(math.pi / 4))
    assert hi == pytest.approx(2.0)


# ---- workload generation ---------------------------------------------------


@pytest.mark.parametrize("workload", sorted(solves.WORKLOADS))
def test_a_seed_always_generates_the_same_workload(workload):
    assert worker.generate(workload, 7, 50) == worker.generate(workload, 7, 50)
    assert worker.generate(workload, 7, 50) != worker.generate(workload, 8, 50)


def test_draws_stay_in_their_ranges():
    draws, passes = worker.generate("scan", 3)
    assert all(1.5 <= abs(d["a"]) <= 3.0 for d in draws["disc-pole-zero-N40"])
    assert all(0.2 <= abs(d["z0"]) <= 0.5 and 1.0 <= d["alpha"] <= 1.4 for d in draws["gram-offcenter-atom"])
    assert all(sorted(ki for ki, _ in p) == list(range(len(solves.SCAN))) for p in passes[:20])
    samples = worker.generate("certify", 3)[0]["poisson-100"][0]["samples"]
    assert len(samples) == 100 and all(y > 0 and 1e-3 <= math.hypot(x, y) <= 1e3 for x, y in samples)


def test_cli_sample_rules_match_the_cli():
    np = pytest.importorskip("numpy")
    n = 100
    radii = np.exp(np.linspace(np.log(1e-3), np.log(1e3), n))
    angles = 0.1 + 0.8 * np.arange(n) % 1.0
    want = [(r * np.cos(np.pi * a), abs(r * np.sin(np.pi * a)) + 1e-8 * r) for r, a in zip(radii, angles)]
    for (x, y), (wx, wy) in zip(solves.poisson_check_samples(n), want):
        assert x == pytest.approx(wx, rel=1e-12, abs=1e-15) and y == pytest.approx(wy, rel=1e-12)


# ---- metric names ----------------------------------------------------------


def test_every_metric_name_is_well_formed_and_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(solves.WORKLOADS)


# ---- smoke runs ------------------------------------------------------------


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("workload", sorted(solves.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1 and res["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    env = json.loads(lines[-2])["env"]
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1" and env["seed"] == 0


def test_smoke_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "scan", "--seed", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res["metrics"]) == set(run.per_layer_units())
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["bergman.calls"] > 0 and m["quad.pilot_calls"] == m["quad.grid_calls"]
    assert m["certs.poisson_extensions"] == 0 and m["digits.poisson-100"] == -1


def test_refuses_to_run_without_the_package(tmp_path):
    proc = _run("--workload", "scan", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
