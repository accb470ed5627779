"""Spans and counters recorded from the benchmark's side of each wbl call.

Nothing under ``src/`` is changed. Instead the tracer

- wraps the public functions the benchmark calls (bergman, moon, certs);
- replaces, for the duration of a traced pass, the names that one wbl module
  imported from another (``wbl.bergman.integrate`` is the pilot pass,
  ``wbl.bergman.build_grid`` the grid, ``wbl.moon.density_scan``,
  ``wbl.moon.integrate``, ``wbl.certs.integrate`` ...);
- hands the solves subclasses of the domains and weights whose
  ``radial_sections`` and ``evaluate`` record spans and point counts, and
  target functions that count their evaluation points.

Each span holds name, start, end, parent and solve id, and stays in memory
until the run ends. A span's self time is its duration minus its
children's. Layer names follow the package's modules.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

import wbl
import wbl.bergman
import wbl.certs
import wbl.moon

BERGMAN_FNS = ("density_scan", "gram_matrix", "extremal_basis", "best_poly_approx_with_jet")
MOON_FNS = ("moon_density_criterion", "moon_stage", "strip_budget_search")
CERTS_FNS = ("poisson_bounds_check", "nondensity_certificate", "certificate_from_enclosure",
             "potential_mass_bound")
DOMAINS = ("Disc", "Moon", "ArcRegion", "TruncatedPlane")
WEIGHTS = ("ZeroWeight", "LogPotential", "ImAbsPlusPower")


def _public(name):
    return getattr(wbl, name) if hasattr(wbl, name) else getattr(wbl.certs, name)


def plain_api():
    """The wbl entry points as a user calls them."""
    names = BERGMAN_FNS + MOON_FNS + CERTS_FNS + DOMAINS + WEIGHTS + ("BranchSpec",)
    return SimpleNamespace(target=lambda f: f, **{n: _public(n) for n in names})


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "child_s", "info")

    def __init__(self, name, start, parent, solve):
        self.name, self.start, self.parent, self.solve = name, start, parent, solve
        self.end, self.child_s, self.info = start, 0.0, None


class Tracer:
    """In-memory span recorder with the traced api and module patches."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self.solve_id = 0
        self.api = self._build_api()

    # ---- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent, self.solve_id)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.end - sp.start
            self.spans.append(sp)

    def wrap(self, fn, name, after=None):
        def traced(*args, **kw):
            with self.span(name) as sp:
                out = fn(*args, **kw)
                if after is not None:
                    after(sp, args, kw, out)
                return out

        traced.__wrapped__ = fn
        return traced

    def enclosing(self, prefix):
        return next((s for s in reversed(self._stack) if s.name.startswith(prefix)), None)

    # ---- traced api --------------------------------------------------------

    def _domain_class(self, base):
        tracer = self

        class Traced(base):
            def radial_sections(self, theta):
                with tracer.span("geometry.radial_sections"):
                    tracer.counts["geometry.section_calls"] += 1
                    tracer.counts["geometry.section_points"] += int(np.size(theta))
                    return base.radial_sections(self, theta)

        Traced.__name__ = Traced.__qualname__ = base.__name__
        return Traced

    def _weight_class(self, base):
        tracer = self

        class Traced(base):
            def evaluate(self, z):
                with tracer.span("weights.evaluate"):
                    tracer.counts["weights.eval_points"] += int(np.size(z))
                    return base.evaluate(self, z)

        Traced.__name__ = Traced.__qualname__ = base.__name__
        return Traced

    def _count_target(self, f):
        def counted(z):
            self.counts["target.eval_points"] += int(np.size(z))
            return f(z)

        return counted

    def _after_grid(self, sp, args, kw, grid):
        self.counts["quad.grid_cells"] += grid.n_cells
        self.counts["quad.grid_nodes"] += len(grid.nodes)
        owner = self.enclosing("bergman.")
        if owner is not None:
            owner.info = (owner.info or 0) + len(grid.nodes)
        crit = self.enclosing("moon.moon_density_criterion")
        if crit is not None:
            self.counts["moon.criterion_grids"] += 1

    def _after_bergman(self, sp, args, kw, out):
        degree = next((kw[k] for k in ("N_max", "N", "n") if k in kw), None)
        if degree is not None and sp.info:
            self.counts["bergman.node_columns"] += sp.info * (degree + 1)

    def _after_strip_integral(self, sp, args, kw, out):
        if self.enclosing("moon.strip_budget_search") is not None:
            self.counts["moon.strip_integrals"] += 1

    def _build_api(self):
        api = {n: self.wrap(_public(n), f"bergman.{n}", self._after_bergman) for n in BERGMAN_FNS}
        api.update({n: self.wrap(_public(n), f"moon.{n}") for n in MOON_FNS})
        api.update({n: self.wrap(_public(n), f"certs.{n}") for n in CERTS_FNS})
        self.domain_classes = {n: self._domain_class(getattr(wbl, n)) for n in DOMAINS}
        api.update(self.domain_classes)
        api.update({n: self._weight_class(getattr(wbl, n)) for n in WEIGHTS})
        api["BranchSpec"] = wbl.BranchSpec
        api["target"] = self._count_target
        return SimpleNamespace(**api)

    # ---- module patches ----------------------------------------------------

    def _patches(self):
        b, m, c = wbl.bergman, wbl.moon, wbl.certs
        return [
            (b, "integrate", self.wrap(b.integrate, "quad.pilot")),
            (b, "build_grid", self.wrap(b.build_grid, "quad.grid", self._after_grid)),
            (m, "density_scan", self.wrap(m.density_scan, "bergman.density_scan", self._after_bergman)),
            (m, "integrate", self.wrap(m.integrate, "quad.integrate", self._after_strip_integral)),
            (m, "ArcRegion", self.domain_classes["ArcRegion"]),
            (c, "integrate", self.wrap(c.integrate, "quad.integrate")),
            (c, "weighted_norm_sq", self.wrap(c.weighted_norm_sq, "quad.integrate")),
            (c, "integrate_1d", self.wrap(c.integrate_1d, "quad.integrate_1d")),
            (c, "truncation_tail", self.wrap(c.truncation_tail, "quad.integrate_1d")),
            (c, "poisson_extension", self.wrap(c.poisson_extension, "certs.poisson_extension")),
            (c, "nondensity_certificate", self.wrap(c.nondensity_certificate, "certs.nondensity_certificate")),
            (c, "cos_half_norm_enclosure", self.wrap(c.cos_half_norm_enclosure, "certs.cos_half_norm_enclosure")),
            (c, "TruncatedPlane", self.domain_classes["TruncatedPlane"]),
            (c, "ImAbsPlusPower", self.api.ImAbsPlusPower),
        ]

    @contextmanager
    def active(self):
        """Patch the cross-module names for one traced pass, then restore them."""
        patches = self._patches()
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        try:
            for mod, name, new in patches:
                setattr(mod, name, new)
            yield self.api
        finally:
            for mod, name, old in saved:
                setattr(mod, name, old)

    # ---- per-layer summary -------------------------------------------------

    def layer_metrics(self, passes):
        """Per-pass times and counts by layer, from the recorded spans."""
        total, self_s, calls = Counter(), Counter(), Counter()
        for sp in self.spans:
            dur = sp.end - sp.start
            layer = sp.name.split(".")[0]
            self_s[layer] += dur - sp.child_s
            total[sp.name] += dur
            calls[sp.name] += 1
            if layer == "bergman" and (sp.parent is None or not sp.parent.name.startswith("bergman.")):
                calls["bergman"] += 1
            if sp.name == "quad.grid" and self._under(sp, "bergman."):
                calls["bergman.grids"] += 1
        k = max(1, passes)
        pilot, grid = total["quad.pilot"], total["quad.grid"]
        crit = calls["moon.moon_density_criterion"]
        out = {
            "quad.pilot_s": pilot / k,
            "quad.pilot_calls": calls["quad.pilot"] / k,
            "quad.pilot_share": pilot / (pilot + grid) if pilot + grid else 0.0,
            "quad.grid_s": grid / k,
            "quad.grid_calls": calls["quad.grid"] / k,
            "quad.grid_cells": self.counts["quad.grid_cells"] / k,
            "quad.grid_nodes": self.counts["quad.grid_nodes"] / k,
            "quad.integrate_s": total["quad.integrate"] / k,
            "quad.integrate_calls": calls["quad.integrate"] / k,
            "quad.integrate_1d_s": total["quad.integrate_1d"] / k,
            "quad.integrate_1d_calls": calls["quad.integrate_1d"] / k,
            "quad.self_s": self_s["quad"] / k,
            "bergman.self_s": self_s["bergman"] / k,
            "bergman.calls": calls["bergman"] / k,
            "bergman.node_columns": self.counts["bergman.node_columns"] / k,
            "bergman.grids_per_call": calls["bergman.grids"] / calls["bergman"] if calls["bergman"] else 0.0,
            "moon.self_s": self_s["moon"] / k,
            "moon.grids_per_criterion": self.counts["moon.criterion_grids"] / crit if crit else 0.0,
            "moon.strip_integrals": self.counts["moon.strip_integrals"] / k,
            "certs.self_s": self_s["certs"] / k,
            "certs.poisson_extensions": calls["certs.poisson_extension"] / k,
            "geometry.section_calls": self.counts["geometry.section_calls"] / k,
            "geometry.section_points": self.counts["geometry.section_points"] / k,
            "geometry.self_s": self_s["geometry"] / k,
            "weights.eval_points": self.counts["weights.eval_points"] / k,
            "weights.self_s": self_s["weights"] / k,
            "target.eval_points": self.counts["target.eval_points"] / k,
        }
        return out

    @staticmethod
    def _under(sp, prefix):
        p = sp.parent
        while p is not None:
            if p.name.startswith(prefix):
                return True
            p = p.parent
        return False
