"""Config-driven experiment runner.

Subcommands map to the experiment families: `gram`, `density-scan`,
`moon-criterion`, `certify`, `poisson-check`, `potential-check`,
`moon-stage`. Outputs are diff-friendly: CSV for sequences, JSON for
reports, every file embedding the resolved config; reruns with identical
configs are bit-identical (no timestamps, sorted keys, repr floats).

Exit codes: 0 success, 1 invalid config or input, 2 numerical failure (also
a certificate whose floor underflowed, after its artifact is written).
Heuristic verdicts are advisory text and never affect the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _csv_header(cfg_doc, extra=None) -> list[str]:
    lines = ["# config: " + json.dumps(cfg_doc, sort_keys=True)]
    if extra:
        for k, v in extra.items():
            lines.append(f"# {k}: {v!r}")
    return lines


def _load_doc(path: str) -> dict:
    from .config import ConfigError

    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def _run_gram(args, out: Path) -> None:
    from .bergman import gram_matrix
    from .config import ExperimentConfig

    cfg = ExperimentConfig.from_dict(_load_doc(args.config))
    q = cfg.quad
    tol = args.tol if args.tol is not None else q.tol
    g = gram_matrix(
        cfg.domain, cfg.weight, cfg.p, cfg.s, cfg.N_max, tol, q.rule_order, q.max_cells
    )
    lines = _csv_header(
        cfg.raw,
        {
            "cond_estimate": g.cond_estimate,
            "error_budget": g.error_budget,
            "ill_conditioned": g.ill_conditioned,
            "center": (g.center.real, g.center.imag),
            "scale": g.scale,
            "route": g.route,
        },
    )
    lines.append("j,k,re,im")
    for j in range(cfg.N_max + 1):
        for k in range(cfg.N_max + 1):
            v = complex(g.matrix[j, k])
            lines.append(f"{j},{k},{v.real!r},{v.imag!r}")
    (out / "gram.csv").write_text("\n".join(lines) + "\n")


def _run_density_scan(args, out: Path) -> None:
    from .bergman import density_scan
    from .config import ExperimentConfig

    cfg = ExperimentConfig.from_dict(_load_doc(args.config))
    q = cfg.quad
    tol = args.tol if args.tol is not None else q.tol
    scan = density_scan(
        cfg.target(),
        cfg.domain,
        cfg.weight,
        cfg.p,
        cfg.s,
        cfg.N_max,
        tol,
        rule_order=q.rule_order,
        max_cells=q.max_cells,
    )
    lines = _csv_header(cfg.raw, {"verdict (HEURISTIC)": scan.verdict, "route": scan.approx.route})
    lines.append("n,d_n,err_budget,cond_estimate")
    budget, cond = float(scan.approx.error_budget), float(scan.approx.cond_estimate)
    for n, d in enumerate(scan.distances):
        lines.append(f"{n},{float(d)!r},{budget!r},{cond!r}")
    (out / "density_scan.csv").write_text("\n".join(lines) + "\n")


def _run_moon_criterion(args, out: Path) -> None:
    from .config import ExperimentConfig
    from .moon import moon_density_criterion

    cfg = ExperimentConfig.from_dict(_load_doc(args.config))
    q = cfg.quad
    tol = args.tol if args.tol is not None else q.tol
    report = moon_density_criterion(
        cfg.domain,
        cfg.weight,
        N_max=cfg.N_max,
        tol=tol,
        rule_order=q.rule_order,
        max_cells=q.max_cells,
    )
    report["verdict"] += " (HEURISTIC)"
    report["control"]["verdict"] += " (HEURISTIC)"
    report["config"] = cfg.raw
    _write_json(out / "moon_criterion.json", report)


def _run_certify(args, out: Path) -> None:
    import numpy as np

    from .certs import (
        certificate_from_enclosure,
        nondensity_certificate,
        poisson_bounds_check,
        potential_mass_bound,
    )
    from .errors import Underflow
    from .geometry import Disc

    p = args.p
    enclosure = None
    if args.M is not None:
        cert = nondensity_certificate(p, args.M)
    else:
        tol = 1e-4 if args.tol is None else args.tol
        cert, enclosure = certificate_from_enclosure(p, args.R, tol=tol)
    radii = np.exp(np.linspace(np.log(0.05), np.log(50.0), 16))
    samples = [(r * np.cos(0.7), r * np.sin(0.7)) for r in radii]
    poisson = poisson_bounds_check(p, samples)
    potential = potential_mass_bound([1.0], [0j], Disc(0j, 1.0), tol=1e-8)
    doc = {
        "p": cert.p,
        "M": cert.M,
        "C_p": cert.C_p,
        "C_1": cert.C_1,
        "Y": cert.Y,
        "epsilon0_sq": cert.epsilon0_sq,
        "log_epsilon0_sq": cert.log_epsilon0_sq,
        "underflow": cert.underflow,
        "checks": {
            "gap_samples": cert.gap_samples,
            "poisson": {
                "n_samples": poisson["n_samples"],
                "violations": poisson["violations"],
                "min_lower_margin": poisson["min_lower_margin"],
                "min_upper_margin": poisson["min_upper_margin"],
            },
            "potential": {
                "integral": potential.integral,
                "radial_bound": potential.radial_bound,
                "lebesgue_bound": potential.lebesgue_bound,
            },
        },
    }
    if enclosure is not None:
        doc["norm_enclosure"] = enclosure
    _write_json(out / "certificate.json", doc)
    if cert.underflow:
        raise Underflow(
            f"epsilon0_sq underflowed to 0.0; log_epsilon0_sq = {cert.log_epsilon0_sq!r}"
        )


def _run_poisson_check(args, out: Path) -> None:
    import numpy as np

    from .certs import poisson_bounds_check
    from .config import ConfigError

    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    radii = np.exp(np.linspace(np.log(1e-3), np.log(1e3), args.samples))
    angles = 0.1 + 0.8 * np.arange(args.samples) % 1.0
    samples = [
        (float(r * np.cos(np.pi * a)), float(abs(r * np.sin(np.pi * a)) + 1e-8 * r))
        for r, a in zip(radii, angles)
    ]
    report = poisson_bounds_check(args.p, samples, tol=1e-9 if args.tol is None else args.tol)
    report["config"] = {"p": args.p, "samples": args.samples}
    _write_json(out / "poisson_check.json", report)


def _run_potential_check(args, out: Path) -> None:
    from .certs import potential_mass_bound
    from .config import QuadSettings, _as_complex, _require_keys, domain_from_record

    doc = _load_doc(args.config)
    _require_keys(doc, ("domain", "alphas", "points"), ("quad",), "potential-check config")
    domain = domain_from_record(doc["domain"])
    q = QuadSettings.from_record(doc.get("quad"))
    tol = args.tol if args.tol is not None else q.tol
    res = potential_mass_bound(
        [float(a) for a in doc["alphas"]],
        [_as_complex(z, "singular point") for z in doc["points"]],
        domain,
        tol,
        rule_order=q.rule_order,
        max_cells=q.max_cells,
    )
    _write_json(
        out / "potential_check.json",
        {
            "config": doc,
            "integral": res.integral,
            "err": res.err,
            "radial_bound": res.radial_bound,
            "lebesgue_bound": res.lebesgue_bound,
        },
    )


def _run_moon_stage(args, out: Path) -> None:
    from .bergman import density_scan
    from .config import QuadSettings, _require_keys, weight_from_record
    from .moon import BranchSpec, moon_stage, strip_budget_search

    doc = _load_doc(args.config)
    _require_keys(
        doc, ("k", "alphas", "weight"), ("N_max", "quad", "budget"), "moon-stage config"
    )
    k = int(doc["k"])
    alphas = [float(a) for a in doc["alphas"]]
    weight = weight_from_record(doc["weight"])
    n_max = int(doc.get("N_max", 12))
    q = QuadSettings.from_record(doc.get("quad"))
    tol = args.tol if args.tol is not None else q.tol
    region, _strip = moon_stage(k, alphas)
    spec = BranchSpec(1.0 + 0j)

    def inv_sqrt(z):
        return 1.0 / spec.sqrt(z)

    scan = density_scan(
        inv_sqrt,
        region,
        weight,
        N_max=n_max,
        tol=tol,
        rule_order=q.rule_order,
        max_cells=q.max_cells,
    )
    budget = float(doc["budget"]) if "budget" in doc else None
    alpha_k, strip_val, strip_err = strip_budget_search(
        k,
        alphas,
        scan.approx.polynomial,
        weight,
        target=budget,
        tol=min(1e-4, (budget or 0.5 ** (k + 1)) / 10),
        rule_order=q.rule_order,
        max_cells=q.max_cells,
    )
    _write_json(
        out / "moon_stage.json",
        {
            "config": doc,
            "k": k,
            "distances": [float(d) for d in scan.distances],
            "verdict": scan.verdict + " (HEURISTIC)",
            "alpha_k": alpha_k,
            "strip_integral": strip_val,
            "strip_err": strip_err,
            "budget": budget if budget is not None else 0.5 ** (k + 1),
        },
    )


_RUNNERS = {
    "gram": (_run_gram, True),
    "density-scan": (_run_density_scan, True),
    "moon-criterion": (_run_moon_criterion, True),
    "certify": (_run_certify, False),
    "poisson-check": (_run_poisson_check, False),
    "potential-check": (_run_potential_check, True),
    "moon-stage": (_run_moon_stage, True),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wbl", description="Weighted-L2 polynomial approximation experiments"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (_, needs_config) in _RUNNERS.items():
        sp = sub.add_parser(name)
        if needs_config:
            sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", default=".", help="output directory")
        tol_help = ("norm enclosure tolerance (not with --M)" if name == "certify"
                    else "quadrature tolerance override")
        sp.add_argument("--tol", type=float, default=None, help=tol_help)
        if name == "certify":
            sp.add_argument("--p", type=float, required=True, help="weight exponent in (0,1)")
            sp.add_argument("--M", type=float, default=None, help="norm budget; computed if absent")
            sp.add_argument("--R", type=float, default=40.0, help="truncation radius for M")
        if name == "poisson-check":
            sp.add_argument("--p", type=float, required=True, help="weight exponent in (0,1)")
            sp.add_argument("--samples", type=int, default=100)
    args = parser.parse_args(argv)

    from .config import ConfigError
    from .errors import InvalidParameters, OutOfRange, WblError

    runner, _ = _RUNNERS[args.cmd]
    out = Path(args.out)
    try:
        if args.tol is not None and not 0.0 < args.tol < float("inf"):
            raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
        if args.cmd == "certify" and args.M is not None and args.tol is not None:
            raise ConfigError("--tol sets the norm enclosure's tolerance, which --M skips")
        out.mkdir(parents=True, exist_ok=True)
        runner(args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (InvalidParameters, OutOfRange) as exc:
        print(f"invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except WblError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
