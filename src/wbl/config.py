"""Strict JSON config parsing for the experiment runner.

Configs are single JSON documents with tagged records for domains and
weights. Unknown fields are rejected so that archived configs stay exact
descriptions of what ran; every output embeds the resolved config.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import WblError
from .geometry import ArcRegion, ArcStage, Disc, Moon, TruncatedPlane
from .weights import ImAbsPlusPower, LogPotential, PolyBump, Polynomial, SumWeight, ZeroWeight


class ConfigError(WblError):
    """Invalid or unknown configuration content (CLI exit code 1)."""


def _require_keys(rec: dict, required, optional=(), what="record"):
    keys = set(rec)
    missing = set(required) - keys
    if missing:
        raise ConfigError(f"{what} is missing fields {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{what} has unknown fields {sorted(unknown)}")


def _as_complex(v, what="complex value"):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"{what} must be a number or an [re, im] pair, got {v!r}")


def domain_from_record(rec) -> object:
    if not isinstance(rec, dict) or "type" not in rec:
        raise ConfigError("domain record needs a 'type' tag")
    t = rec["type"]
    if t == "disc":
        _require_keys(rec, ("type", "c", "r"), what="disc record")
        return Disc(_as_complex(rec["c"], "disc center"), float(rec["r"]))
    if t == "moon":
        _require_keys(rec, ("type", "outer", "inner"), what="moon record")
        outer = domain_from_record({"type": "disc", **rec["outer"]})
        inner = domain_from_record({"type": "disc", **rec["inner"]})
        return Moon(outer, inner)
    if t == "truncated-plane":
        _require_keys(rec, ("type", "R"), what="truncated-plane record")
        return TruncatedPlane(float(rec["R"]))
    if t == "arc-region":
        _require_keys(rec, ("type", "stages"), what="arc-region record")
        stages = []
        for st in rec["stages"]:
            _require_keys(st, ("alpha", "omega"), ("window",), "arc stage")
            stages.append(
                ArcStage(
                    alpha=float(st["alpha"]),
                    omega=float(st["omega"]),
                    outside_window=st.get("window", "outside") == "outside",
                )
            )
        return ArcRegion(tuple(stages))
    raise ConfigError(f"unknown domain type {t!r}")


def weight_from_record(rec) -> object:
    if not isinstance(rec, dict) or "type" not in rec:
        raise ConfigError("weight record needs a 'type' tag")
    t = rec["type"]
    if t == "zero":
        _require_keys(rec, ("type",), what="zero weight")
        return ZeroWeight()
    if t == "im-abs-plus-power":
        _require_keys(rec, ("type", "p"), what="im-abs-plus-power weight")
        return ImAbsPlusPower(float(rec["p"]))
    if t == "log-potential":
        _require_keys(rec, ("type", "atoms"), what="log-potential weight")
        atoms = tuple((_as_complex(z, "atom location"), float(a)) for z, a in rec["atoms"])
        return LogPotential(atoms)
    if t == "poly-bump":
        _require_keys(
            rec, ("type", "taylor"), ("center", "scale", "threshold", "L"), "poly-bump weight"
        )
        poly = Polynomial.from_taylor(
            [_as_complex(c, "taylor coefficient") for c in rec["taylor"]],
            _as_complex(rec.get("center", 0.0), "bump center"),
            float(rec.get("scale", 1.0)),
        )
        return PolyBump(poly, float(rec.get("threshold", 1.0)), float(rec.get("L", 1.0)))
    if t == "sum":
        _require_keys(rec, ("type", "terms"), what="sum weight")
        return SumWeight(tuple(weight_from_record(term) for term in rec["terms"]))
    raise ConfigError(f"unknown weight type {t!r}")


def target_from_tag(tag: str, domain):
    """Builtin target function from a tag string. inv-sqrt's branch point 0
    needs no quadrature point: it starts the cut ray that misses the domain."""
    if tag == "one":
        return lambda z: np.ones(np.shape(z), dtype=complex)
    if tag == "cos-half":
        return lambda z: np.cos(0.5 * np.asarray(z, dtype=complex))
    if tag.startswith("monomial:"):
        try:
            k = int(tag.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad monomial degree in target {tag!r}") from None
        if k < 0:
            raise ConfigError(f"monomial degree must be >= 0 in {tag!r}")
        return lambda z: np.asarray(z, dtype=complex) ** k
    if tag.startswith("pole:"):
        parts = tag.split(":", 1)[1].split(",")
        try:
            a = complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0)
        except ValueError:
            raise ConfigError(f"bad pole location in target {tag!r}") from None
        return lambda z: 1.0 / (np.asarray(z, dtype=complex) - a)
    if tag == "inv-sqrt":
        from .moon import make_branch_spec

        spec = make_branch_spec(domain)
        return lambda z: 1.0 / spec.sqrt(z)
    raise ConfigError(f"unknown target tag {tag!r}")


@dataclass
class QuadSettings:
    tol: float = 1e-8
    rule_order: int = 8
    max_cells: int = 100_000

    @classmethod
    def from_record(cls, rec) -> "QuadSettings":
        if rec is None:
            return cls()
        _require_keys(rec, (), ("tol", "rule_order", "max_cells"), "quad settings")
        out = cls(
            tol=float(rec.get("tol", 1e-8)),
            rule_order=int(rec.get("rule_order", 8)),
            max_cells=int(rec.get("max_cells", 100_000)),
        )
        if out.tol <= 0 or out.rule_order < 2 or out.max_cells < 16:
            raise ConfigError("quad settings out of range")
        return out


@dataclass
class ExperimentConfig:
    """Resolved experiment description (domain, weight, target, basis, quad)."""

    domain: object
    weight: object
    target_tag: str
    p: complex | None
    s: float | None
    N_max: int
    quad: QuadSettings
    raw: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_dict(cls, doc) -> "ExperimentConfig":
        _require_keys(
            doc,
            ("domain", "weight", "target"),
            ("p", "s", "N_max", "quad"),
            "experiment config",
        )
        domain = domain_from_record(doc["domain"])
        weight = weight_from_record(doc["weight"])
        n_max = int(doc.get("N_max", 20))
        if n_max < 0:
            raise ConfigError("N_max must be >= 0")
        return cls(
            domain=domain,
            weight=weight,
            target_tag=str(doc["target"]),
            p=None if doc.get("p") is None else _as_complex(doc["p"], "center p"),
            s=None if doc.get("s") is None else float(doc["s"]),
            N_max=n_max,
            quad=QuadSettings.from_record(doc.get("quad")),
            raw=dict(doc),
        )

    def target(self):
        return target_from_tag(self.target_tag, self.domain)
