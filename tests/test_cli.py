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
    assert doc["checks"]["poisson"]["violations"] == 0
    assert doc["checks"]["gap_samples"] == 10000


@pytest.mark.parametrize("argv", [["certify", "--M", "10"], ["poisson-check"]])
def test_config_rejected_where_unread(tmp_path, argv):
    """Only the subcommands that read a config accept --config."""
    with pytest.raises(SystemExit):
        main(argv + ["--p", "0.5", "--config", "/nonexistent.json", "--out", str(tmp_path)])


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
