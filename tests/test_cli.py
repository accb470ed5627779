import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wbl
from wbl.cli import main

DISC_SCAN = {
    "domain": {"type": "disc", "c": [0, 0], "r": 1},
    "weight": {"type": "zero"},
    "target": "pole:2",
    "p": [0, 0],
    "s": 1.0,
    "N_max": 20,
    "quad": {"tol": 1e-12, "rule_order": 12, "max_cells": 100000},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line or line[0].isalpha():
            continue
        rows.append(line.split(","))
    return rows


def test_gram_subcommand(tmp_path):
    cfg = dict(DISC_SCAN, target="one", N_max=3)
    rc = main(["gram", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv_rows(tmp_path / "gram.csv")
    diag = {int(r[0]): float(r[2]) for r in rows if r[0] == r[1]}
    for j in range(4):
        assert diag[j] == pytest.approx(math.pi / (j + 1), rel=1e-9)
    header = (tmp_path / "gram.csv").read_text().splitlines()[0]
    assert header.startswith("# config:") and '"type": "disc"' in header


def test_density_scan_matches_series(tmp_path):
    rc = main(["density-scan", "--config", write_config(tmp_path, DISC_SCAN), "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv_rows(tmp_path / "density_scan.csv")
    d = np.array([float(r[1]) for r in rows])
    ks = np.arange(140)
    terms = math.pi / ((ks + 1) * 4.0 ** (ks + 1))
    oracle = np.array([math.sqrt(terms[n + 1 :].sum()) for n in range(21)])
    assert np.max(np.abs(d - oracle) / oracle) < 1e-6


def test_certify_formula_values(tmp_path):
    rc = main(["certify", "--p", "0.5", "--M", "10", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["C_1"] == pytest.approx(math.log(10) + 1 - 0.5 * math.log(math.pi), rel=1e-9)
    assert doc["C_p"] == pytest.approx(2 * math.sqrt(2), rel=1e-9)
    assert doc["epsilon0_sq"] > 0
    assert doc["log_epsilon0_sq"] == pytest.approx(math.log(doc["epsilon0_sq"]), rel=1e-12)
    assert doc["checks"]["poisson"]["violations"] == 0
    assert doc["checks"]["gap_samples"] == 10000


@pytest.mark.parametrize("argv, rc, underflow", [
    (["--p", "0.7", "--M", "10"], 2, True),
    (["--p", "0.5", "--R", "40"], 0, False),
])
def test_certify_flags_underflow(tmp_path, capsys, argv, rc, underflow):
    """A floor that underflows to 0.0 is written with its flag and its finite
    log, then reported as a numerical failure."""
    assert main(["certify"] + argv + ["--out", str(tmp_path)]) == rc
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["underflow"] is underflow
    assert (doc["epsilon0_sq"] == 0.0) is underflow
    assert math.isfinite(doc["log_epsilon0_sq"])
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Underflow") if underflow else err == ""


@pytest.mark.parametrize("argv", [["certify", "--M", "10"], ["poisson-check"]])
def test_config_rejected_where_unread(tmp_path, argv):
    """Only the subcommands that read a config accept --config."""
    with pytest.raises(SystemExit):
        main(argv + ["--p", "0.5", "--config", "/nonexistent.json", "--out", str(tmp_path)])


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
@pytest.mark.parametrize("argv", [
    ["certify", "--p", "0.5", "--R", "40"],
    ["certify", "--p", "0.5", "--M", "10"],
    ["poisson-check", "--p", "0.5"],
    ["gram", "--config", "cfg.json"],
    ["density-scan", "--config", "cfg.json"],
    ["moon-criterion", "--config", "cfg.json"],
    ["potential-check", "--config", "cfg.json"],
    ["moon-stage", "--config", "cfg.json"],
])
def test_tol_must_be_positive_and_finite(tmp_path, capsys, argv, tol):
    """A --tol of 0, below 0 or NaN is invalid input (exit 1), not a
    silent default or a numerical failure, and writes nothing."""
    out = tmp_path / "out"
    assert main(argv + ["--tol", tol, "--out", str(out)]) == 1
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


def test_moon_criterion_subcommand(tmp_path):
    cfg = {
        "domain": {
            "type": "moon",
            "outer": {"c": [0, 0], "r": 1},
            "inner": {"c": [0.45, 0], "r": 0.55},
        },
        "weight": {"type": "zero"},
        "target": "inv-sqrt",
        "N_max": 8,
        "quad": {"tol": 1e-8, "rule_order": 12, "max_cells": 100000},
    }
    rc = main(["moon-criterion", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "moon_criterion.json").read_text())
    assert set(doc) >= {"distances", "verdict", "control", "criterion", "config"}
    assert "HEURISTIC" in doc["verdict"]
    assert len(doc["distances"]) == 9


def test_poisson_check_subcommand(tmp_path):
    rc = main(["poisson-check", "--p", "0.5", "--samples", "25", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "poisson_check.json").read_text())
    assert doc["violations"] == 0 and doc["n_samples"] == 25


@pytest.mark.parametrize("p", [0.97, 0.99])
def test_poisson_check_upper_margin_near_p_one(tmp_path, p):
    """The upper margin is exactly 2 where the samples come near x = 0; with
    C_p in sine form it stays within 2 ulps of the floats just below 2, where
    2 / cos(p pi / 2) read 2.000000000000001 and 2.000000000000005."""
    rc = main(["poisson-check", "--p", str(p), "--samples", "100", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "poisson_check.json").read_text())
    assert abs(doc["min_upper_margin"] - 2.0) <= 2 * math.ulp(1.5)


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_poisson_check_rejects_too_few_samples(tmp_path, capsys, samples):
    """No samples would report an infinite margin as a pass; negative counts
    crash in numpy. Both are config errors that write no artifact."""
    rc = main(["poisson-check", "--p", "0.5", "--samples", samples, "--out", str(tmp_path)])
    assert rc == 1
    assert "--samples must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "poisson_check.json").exists()


def test_potential_check_subcommand(tmp_path):
    cfg = {
        "domain": {"type": "disc", "c": [0, 0], "r": 1},
        "alphas": [1.0],
        "points": [[0, 0]],
        "quad": {"tol": 1e-8},
    }
    rc = main(["potential-check", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "potential_check.json").read_text())
    assert doc["integral"] == pytest.approx(2 * math.pi, rel=1e-7)
    assert doc["lebesgue_bound"] == pytest.approx(2 * math.pi, rel=1e-12)
    assert doc["radial_bound"] == pytest.approx(1.0, rel=1e-12)


def test_moon_stage_subcommand(tmp_path):
    cfg = {
        "k": 1,
        "alphas": [0.1],
        "weight": {"type": "zero"},
        "N_max": 8,
        "quad": {"tol": 1e-7, "rule_order": 12, "max_cells": 100000},
    }
    rc = main(["moon-stage", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "moon_stage.json").read_text())
    assert doc["strip_integral"] + doc["strip_err"] < doc["budget"]
    assert 0 < doc["alpha_k"] <= 0.1


def test_moon_stage_failed_search_exit_code(tmp_path, capsys, monkeypatch):
    """A strip search that finds no alpha meeting its budget is a numerical
    failure (exit 2), not invalid input, and writes no artifact."""
    import wbl.moon

    monkeypatch.setattr(wbl.moon, "integrate", lambda *args, **kw: (1.0 + 0j, 0.0))
    cfg = {"k": 1, "alphas": [0.1], "weight": {"type": "zero"}, "N_max": 4}
    rc = main(["moon-stage", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("numerical failure: ToleranceNotMet")
    assert not (tmp_path / "moon_stage.json").exists()


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = dict(DISC_SCAN)
    cfg["typo_field"] = 1
    rc = main(["density-scan", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_json_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = main(["density-scan", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1


def test_bad_domain_type_rejected(tmp_path):
    cfg = dict(DISC_SCAN, domain={"type": "pentagon"})
    rc = main(["density-scan", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 1


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg = dict(DISC_SCAN, weight={"type": "log-potential", "atoms": [[[0, 0], 2.5]]}, N_max=3)
    rc = main(["density-scan", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "DegenerateWeight" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cfg, error",
    [
        (["potential-check"], {"domain": {"type": "disc", "c": [0, 0], "r": 1},
                               "alphas": [0.5, -0.5], "points": [[0, 0], [0.5, 0]]},
         "InvalidParameters"),
        (["certify", "--p", "1.5", "--M", "10"], None, "OutOfRange"),
    ],
)
def test_invalid_input_exit_code(tmp_path, capsys, argv, cfg, error):
    """Input the library rejects is an input error (exit 1), not a numerical failure."""
    if cfg is not None:
        argv = argv + ["--config", write_config(tmp_path, cfg)]
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and error in err


def test_reruns_are_bit_identical(tmp_path):
    cfg = dict(DISC_SCAN, N_max=6)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["density-scan", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out1 / "density_scan.csv").read_bytes() == (out2 / "density_scan.csv").read_bytes()


def test_import_loads_no_scipy():
    # a fresh interpreter, since this test process may already hold scipy
    src = str(Path(wbl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, wbl; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_certify_rejects_tol_with_M(tmp_path, capsys):
    """With --M no norm enclosure runs, so a --tol would go unread: it is
    invalid input (exit 1), named on stderr, and nothing is written."""
    out = tmp_path / "out"
    assert main(["certify", "--p", "0.5", "--M", "10", "--tol", "1e-6", "--out", str(out)]) == 1
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


def test_headers_name_the_route(tmp_path):
    """gram.csv and density_scan.csv say which route solved them, with the
    rotation route's final angle and radius counts."""
    disc = write_config(tmp_path, DISC_SCAN, "disc.json")
    assert main(["gram", "--config", disc, "--out", str(tmp_path)]) == 0
    assert main(["density-scan", "--config", disc, "--out", str(tmp_path)]) == 0
    for name in ("gram.csv", "density_scan.csv"):
        header = [ln for ln in (tmp_path / name).read_text().splitlines() if ln.startswith("#")]
        routes = [ln for ln in header if ln.startswith("# route:")]
        assert len(routes) == 1 and routes[0].startswith("# route: 'rotation M=")
        assert not any("np." in ln for ln in header)  # plain floats, not numpy reprs
    moon = dict(DISC_SCAN, domain={"type": "moon", "outer": {"c": [0, 0], "r": 1},
                                   "inner": {"c": [0.45, 0], "r": 0.55}}, N_max=3)
    assert main(["gram", "--config", write_config(tmp_path, moon, "moon.json"), "--out", str(tmp_path)]) == 0
    assert "# route: 'engine'" in (tmp_path / "gram.csv").read_text().splitlines()


README_DISC = dict(DISC_SCAN, quad={"tol": 1e-10, "rule_order": 12, "max_cells": 100000})


@pytest.mark.parametrize("cmd, artifact", [("gram", "gram.csv"), ("density-scan", "density_scan.csv")])
def test_artifacts_do_not_depend_on_blas_threads(tmp_path, cmd, artifact):
    """The README disc config gives the same bytes under one and two BLAS
    threads; the variable is read when numpy loads, so each run is a fresh
    interpreter."""
    cfg = write_config(tmp_path, README_DISC)
    src = str(Path(wbl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "wbl.cli", cmd, "--config", cfg, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((out / artifact).read_bytes())
    assert outs[0] == outs[1]
