"""Adaptive two-dimensional quadrature for weighted, possibly singular integrals.

The engine works in the (theta, u) parameter space of a domain's radial
sections: theta is the angle from the domain's radial center, and u in [0, 1]
parametrizes the radial interval of the active section branch. Cells are
axis-aligned rectangles in this space, so curved circle/arc boundaries are
resolved exactly and the only error sources are rule truncation and small
excluded cores around marked singular points.

Each cell carries a tensor Gauss-Legendre rule; its error estimate is the
difference between the cell value and the sum over its 2x2 split. Marked
singular points get geometric pre-refinement toward them in every initial cell
whose closure holds them, with near-square cores: the innermost cell around
each (the core) is excluded from the rule and bounded analytically using the
sampled singularity order; core bounds are part of the reported error
estimate. Refinement always processes the worst cells first with index ties
broken deterministically, and final values are summed in creation order, so
identical inputs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NonIntegrableSingularity, ToleranceNotMet, UnsupportedGrowth
from .weights import ImAbsPlusPower

TWO_PI = 2.0 * math.pi

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int):
    if order not in _GL_CACHE:
        x, w = leggauss(order)
        _GL_CACHE[order] = (x, w)
    return _GL_CACHE[order]


@dataclass
class QuadratureGrid:
    """Cell decomposition of a domain with nodes, weights and an error estimate.

    nodes/weights realize the plain Lebesgue measure: sum(weights * h(nodes))
    approximates the integral of h over the domain for any h resolved by the
    cells. error_estimate is the adaptive estimate for the pilot integrand the
    grid was built for, including the analytic bounds of excluded singular
    cores. tol is relative to the pilot integral (value).
    """

    domain: object
    singular_points: tuple
    tol: float
    rule_order: int
    cells: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    value: complex
    error_estimate: float

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def _ring_abs(g, center, radius, n=16):
    ang = TWO_PI * (np.arange(n) + 0.37) / n
    vals = np.abs(np.asarray(g(center + radius * np.exp(1j * ang)), dtype=complex))
    vals = vals[np.isfinite(vals)]
    return float(np.max(vals)) if vals.size else 0.0


def _estimate_order(g, point, scale):
    """Sampled growth order a of |g| ~ C d^(-a) near the point."""
    d1 = 1e-3 * scale
    d2 = d1 / 4.0
    m1 = _ring_abs(g, point, d1)
    m2 = _ring_abs(g, point, d2)
    if m1 <= 0.0 or m2 <= 0.0:
        return 0.0
    a = math.log(m2 / m1) / math.log(d1 / d2)
    return min(max(a, 0.0), 2.5)


def _core_bound(g, point, rho, order):
    """Upper bound for the integral of |g| over a disc of radius rho at the point."""
    c_loc = _ring_abs(g, point, 2.0 * rho) * (2.0 * rho) ** order
    if not math.isfinite(c_loc):
        return math.inf
    return 2.0 * c_loc * TWO_PI * rho ** (2.0 - order) / (2.0 - order)


class _Engine:
    def __init__(self, domain, g, singular_points, tol, rule_order, max_cells, relative=False):
        self.domain = domain
        self.g = g
        self.tol = float(tol)
        self.relative = relative
        self.q = int(rule_order)
        self.max_cells = int(max_cells)
        self.center = domain.radial_center()
        self.nb = domain.max_branches()
        x0, x1, y0, y1 = domain.bounding_box()
        self.scale = 0.5 * math.hypot(x1 - x0, y1 - y0)
        # sum of the analytic bounds of the excluded singular cores
        self.core_total = 0.0
        self.singular_points = tuple(complex(p) for p in singular_points)

        self.t0 = np.empty(0)
        self.t1 = np.empty(0)
        self.u0 = np.empty(0)
        self.u1 = np.empty(0)
        self.br = np.empty(0, dtype=np.int64)
        self.val = np.empty(0, dtype=complex)
        self.est = np.empty(0)

    # ---- section helpers -------------------------------------------------

    def _locate(self, z):
        """(theta, u, branch, width / r) of an interior point, or None."""
        dz = z - self.center
        r = abs(dz)
        if r <= 1e-12 * self.scale:
            return None
        theta = math.atan2(dz.imag, dz.real) % TWO_PI
        sec = self.domain.radial_sections(np.array([theta]))[0]
        for b in range(sec.shape[0]):
            lo, hi = sec[b]
            if hi - lo > 0 and lo - 1e-12 <= r <= hi + 1e-12:
                width = hi - lo
                u = min(max((r - lo) / width, 0.0), 1.0)
                return theta, u, b, width / r
        return None

    # ---- cell evaluation -------------------------------------------------

    def _nodes(self, t0, t1, u0, u1, br):
        """Tensor GL nodes z of a batch of cells and their Jacobians r * width.

        Both have shape (B, q, q), indexed by cell, theta node and u node.
        """
        xg, _ = _gl(self.q)
        B = len(t0)
        theta = t0[:, None] + 0.5 * (xg + 1.0)[None, :] * (t1 - t0)[:, None]
        sec = self.domain.radial_sections(theta.ravel()).reshape(B, self.q, self.nb, 2)
        bi = np.broadcast_to(br[:, None], (B, self.q))
        rows = np.broadcast_to(np.arange(B)[:, None], (B, self.q))
        cols = np.broadcast_to(np.arange(self.q)[None, :], (B, self.q))
        lo = sec[rows, cols, bi, 0]
        hi = sec[rows, cols, bi, 1]
        width = np.maximum(0.0, hi - lo)
        u = u0[:, None] + 0.5 * (xg + 1.0)[None, :] * (u1 - u0)[:, None]
        r = lo[:, :, None] + width[:, :, None] * u[:, None, :]
        z = self.center + r * np.exp(1j * theta)[:, :, None]
        return z, r * width[:, :, None]

    def _rule(self, t0, t1, u0, u1, br):
        """Tensor GL value of a batch of cells, shape (B,)."""
        _, wg = _gl(self.q)
        z, jac = self._nodes(t0, t1, u0, u1, br)
        vals = np.asarray(self.g(z.reshape(-1)), dtype=complex).reshape(z.shape)
        integ = vals * jac
        inner = (integ * wg[None, None, :]).sum(axis=2)
        total = (inner * wg[None, :]).sum(axis=1)
        return total * 0.25 * (t1 - t0) * (u1 - u0)

    def _append(self, t0, t1, u0, u1, br):
        """Add cells valued by their 2x2 split, with the split's difference
        from the single-cell rule as error estimate."""
        coarse = self._rule(t0, t1, u0, u1, br)
        tm = 0.5 * (t0 + t1)
        um = 0.5 * (u0 + u1)
        fine = np.zeros_like(coarse)
        for ta, tb in ((t0, tm), (tm, t1)):
            for ua, ub in ((u0, um), (um, u1)):
                fine = fine + self._rule(ta, tb, ua, ub, br)
        self.t0 = np.concatenate([self.t0, t0])
        self.t1 = np.concatenate([self.t1, t1])
        self.u0 = np.concatenate([self.u0, u0])
        self.u1 = np.concatenate([self.u1, u1])
        self.br = np.concatenate([self.br, br])
        self.val = np.concatenate([self.val, fine])
        self.est = np.concatenate([self.est, np.abs(fine - coarse)])

    # ---- singular-point treatment ---------------------------------------

    def _treat_center(self, budget):
        """Rung edges in u, from the excluded core up to 1, of the geometric
        ladder toward r=0 on branches that start at the center."""
        order = _estimate_order(self.g, self.center, self.scale)
        if order >= 1.995:
            raise NonIntegrableSingularity(
                f"singularity at {self.center} has sampled order {order:.3f} >= 2"
            )
        probe = self.domain.radial_sections(np.linspace(0.0, TWO_PI, 64, endpoint=False))
        r_max = float(np.max(probe[..., 1]))
        # shrink the core until its analytic bound fits the budget
        u_core = 2.0 ** -(8 + 4 * order)
        for _ in range(200):
            bound = _core_bound(self.g, self.center, r_max * u_core, order)
            if bound <= budget or u_core < 1e-120:
                break
            u_core *= 0.25
        self.core_total += bound
        ladder = [u_core]
        while ladder[-1] < 1.0:
            ladder.append(min(1.0, ladder[-1] * 4.0))
        return np.array(ladder)

    def _treat_point(self, point, budget):
        """Ladder every initial cell whose closure holds an interior singular
        point toward it; exclude each ladder's near-square core."""
        order = _estimate_order(self.g, point, self.scale)
        if order >= 1.995:
            raise NonIntegrableSingularity(
                f"singularity at {point} has sampled order {order:.3f} >= 2"
            )
        loc = self._locate(point)
        if loc is None:
            return
        theta_s, u_s, b_s, u_scale = loc
        # the initial cells span [b0, b0 + 2 pi], so test theta_s + 2 pi too; a
        # point on a shared edge is held by every cell around it
        held = [
            (i, t)
            for t in (theta_s, theta_s + TWO_PI)
            for i in np.flatnonzero(
                (self.br == b_s) & (self.t0 <= t) & (t <= self.t1)
                & (self.u0 <= u_s) & (u_s <= self.u1)
            )
        ]
        sides = []
        for i, t in held:
            rect = [self.t0[i], self.t1[i], self.u0[i], self.u1[i]]
            for _ in range(600):
                rho = self._rect_radius(rect, b_s, point)
                bound = _core_bound(self.g, point, rho, order)
                # sides in units of r = |point - center|: split only sides
                # spanning >= 1e-13 r, far above the (theta, r) resolution, so
                # no split or node hits the point, and >= half the longer side,
                # so the core stays near-square
                dt = rect[1] - rect[0]
                du = (rect[3] - rect[2]) * u_scale
                cut = (dt >= max(1e-13, 0.5 * du), du >= max(1e-13, 0.5 * dt))
                if bound <= budget / len(held) or not any(cut):
                    break
                rect, others = self._split_toward(rect, t, u_s, *cut)
                sides += others
            self.core_total += bound
        self._drop([i for i, _ in held])
        if sides:
            t0, t1, u0, u1 = np.array(sides).T
            self._append(t0, t1, u0, u1, np.full(len(sides), b_s, dtype=np.int64))

    def _split_toward(self, rect, theta_s, u_s, cut_t, cut_u):
        """Split the cut sides of a cell so that no new edge passes through the
        point; return the child holding the point and the list of the others."""
        t0, t1, u0, u1 = rect
        tm = self._off_center_split(t0, t1, theta_s) if cut_t else t1
        um = self._off_center_split(u0, u1, u_s) if cut_u else u1
        t_side = (t0, tm) if theta_s <= tm else (tm, t1)
        u_side = (u0, um) if u_s <= um else (um, u1)
        keep = t_side + u_side
        others = []
        for ta, tb in ((t0, tm), (tm, t1)):
            for ua, ub in ((u0, um), (um, u1)):
                if (ta, tb, ua, ub) != keep and ta < tb and ua < ub:
                    others.append((ta, tb, ua, ub))
        return list(keep), others

    @staticmethod
    def _off_center_split(a, b, s):
        # split so the point s never lands on the new edge
        h = b - a
        return s + 0.35 * h if (s - a) < 0.5 * h else s - 0.35 * h

    def _rect_radius(self, rect, branch, point):
        t0, t1, u0, u1 = rect
        ts = np.array([t0, t0, t1, t1, 0.5 * (t0 + t1), t0, t1, 0.5 * (t0 + t1)])
        us = np.array([u0, u1, u0, u1, u0, 0.5 * (u0 + u1), 0.5 * (u0 + u1), u1])
        sec = self.domain.radial_sections(ts)
        lo = sec[np.arange(len(ts)), branch, 0]
        hi = sec[np.arange(len(ts)), branch, 1]
        r = lo + (hi - lo) * us
        z = self.center + r * np.exp(1j * ts)
        return float(np.max(np.abs(z - point)))

    def _drop(self, idx):
        keep = np.ones(len(self.t0), dtype=bool)
        keep[idx] = False
        for name in ("t0", "t1", "u0", "u1", "br", "val", "est"):
            setattr(self, name, getattr(self, name)[keep])

    # ---- main driver ------------------------------------------------------

    def run(self):
        # initial theta segments between breakpoints, capped at pi/4 width,
        # with dyadic grading into any sqrt-kink angles of the sections
        brk = sorted(set(b % TWO_PI for b in self.domain.theta_breakpoints()))
        if not brk:
            brk = [0.0]
        b0 = brk[0]
        pts = sorted({(b - b0) % TWO_PI for b in brk} | {0.0, TWO_PI})
        flat = set()
        for a, b in zip(pts[:-1], pts[1:]):
            parts = max(1, math.ceil((b - a) / (math.pi / 4)))
            flat.update(a + (b - a) * j / parts for j in range(parts + 1))
        kinks = getattr(self.domain, "theta_kinks", lambda: [])()
        for kk in kinks:
            k = (kk - b0) % TWO_PI
            for j in range(1, 36):
                for side in (1.0, -1.0):
                    pt = k + side * (math.pi / 4) * 2.0**-j
                    if 0.0 < pt < TWO_PI:
                        flat.add(pt)
        flat = sorted(flat)
        edges = [(b0 + a, b0 + b) for a, b in zip(flat[:-1], flat[1:]) if b > a]

        interior = [p for p in self.singular_points if bool(self.domain.contains(p))]
        center_sing = [
            p for p in self.singular_points if abs(p - self.center) <= 1e-12 * self.scale
        ]
        center_in = bool(self.domain.contains(self.center)) and bool(center_sing)
        n_treat = len(interior) + (1 if center_in else 0)
        budget = 0.25 * self.tol / max(1, n_treat)
        # one initial cell per (theta segment, branch), segment-major
        seg = np.array(edges)
        t = np.repeat(seg, self.nb, axis=0)
        br = np.tile(np.arange(self.nb), len(edges))
        u0, u1 = np.zeros(len(br)), np.ones(len(br))
        if self.relative:
            # core budgets are fixed before refinement, so they take the mass
            # from one rule on each initial cell
            budget *= abs(complex(self._rule(t[:, 0], t[:, 1], u0, u1, br).sum()))

        if center_in:
            # a branch starting at the center is cut into the rungs of a
            # geometric u-ladder, kept in order after its segment and branch
            ladder = self._treat_center(budget)
            mid = self.domain.radial_sections(0.5 * (seg[:, 0] + seg[:, 1]))
            starts = mid[:, :, 0].ravel() == 0.0
            reps = np.where(starts, len(ladder) - 1, 1)
            rung = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
            graded = np.repeat(starts, reps)
            t, br = np.repeat(t, reps, axis=0), np.repeat(br, reps)
            u0 = np.where(graded, ladder[rung], 0.0)
            u1 = np.where(graded, ladder[rung + 1], 1.0)
        self._append(t[:, 0], t[:, 1], u0, u1, br)

        for p in interior:
            if center_in and abs(p - self.center) <= 1e-12 * self.scale:
                continue
            self._treat_point(p, budget)

        while True:
            tol_eff = self.tol * abs(complex(self.val.sum())) if self.relative else self.tol
            total = float(self.est.sum()) + self.core_total
            if total <= tol_eff:
                break
            if len(self.t0) >= self.max_cells:
                break
            n = len(self.t0)
            thresh = 0.5 * tol_eff / max(1, n)
            candidates = np.flatnonzero(self.est > thresh)
            if candidates.size == 0:
                break
            order = candidates[np.argsort(-self.est[candidates], kind="stable")]
            sel = order[: min(512, order.size, self.max_cells - n + 1)]
            t0, t1 = self.t0[sel], self.t1[sel]
            u0, u1 = self.u0[sel], self.u1[sel]
            br = self.br[sel]
            self._drop(sel)
            tm, um = 0.5 * (t0 + t1), 0.5 * (u0 + u1)
            for ta, tb in ((t0, tm), (tm, t1)):
                for ua, ub in ((u0, um), (um, u1)):
                    self._append(ta, tb, ua, ub, br)

        value = complex(self.val.sum())
        err = float(self.est.sum()) + self.core_total
        return value, err

    def export_grid(self):
        _, wg = _gl(self.q)
        z, jac = self._nodes(self.t0, self.t1, self.u0, self.u1, self.br)
        w2 = wg[None, :, None] * wg[None, None, :]
        wts = w2 * jac * (0.25 * (self.t1 - self.t0) * (self.u1 - self.u0))[:, None, None]
        cells = np.rec.fromarrays(
            [self.br, self.t0, self.t1, self.u0, self.u1, self.est],
            names=["branch", "t0", "t1", "u0", "u1", "est"],
        )
        return z.reshape(-1), wts.reshape(-1), cells


def integrate(
    domain,
    g,
    singular_points=(),
    tol: float = 1e-8,
    rule_order: int = 8,
    max_cells: int = 100_000,
    strict: bool = False,
):
    """Integral of g over the domain with an error estimate.

    Returns (value, err) with |value - integral| <= err expected and err <= tol
    on success (tol is absolute). With strict=True a result above tolerance
    raises ToleranceNotMet carrying the best value. Point singularities of g
    must be listed in singular_points and have integrable order (< 2); g must
    be evaluable on small rings around them.
    """
    eng = _Engine(domain, g, singular_points, tol, rule_order, max_cells)
    value, err = eng.run()
    if strict and err > tol:
        raise ToleranceNotMet(f"error estimate {err:.3e} exceeds tol {tol:.3e}", value, err)
    return value, err


def build_grid(
    domain,
    pilot,
    singular_points=(),
    tol: float = 1e-8,
    rule_order: int = 8,
    max_cells: int = 100_000,
) -> QuadratureGrid:
    """Adapt a grid to the pilot integrand and export reusable nodes/weights.

    One adaptive pass, aiming at error_estimate <= tol * |pilot integral|.
    The exported nodes realize the plain Lebesgue measure on the domain.
    Integrands with the same singular structure and smoothness as the pilot
    are integrated by sum(weights * h(nodes)) with accuracy comparable to the
    pilot's error estimate.
    """
    eng = _Engine(domain, pilot, singular_points, tol, rule_order, max_cells, relative=True)
    value, err = eng.run()
    nodes, weights, cells = eng.export_grid()
    return QuadratureGrid(
        domain=domain,
        singular_points=tuple(complex(p) for p in singular_points),
        tol=float(tol),
        rule_order=int(rule_order),
        cells=cells,
        nodes=nodes,
        weights=weights,
        value=value,
        error_estimate=err,
    )


def weight_factor(w, z):
    """exp(-phi(z)), capped at exp(700) so atom blowups stay finite.

    When the atoms are listed as singular points, the engine's ladder toward
    each splits no core side below 1e-13 |atom - radial center|, far above
    the (theta, r) resolution, so no node sits on an atom and, for atoms of
    integrable order, every node stays outside the capped zone.
    """
    return np.exp(np.minimum(-np.asarray(w.evaluate(z), dtype=float), 700.0))


def weighted_norm_sq(f, domain, w, tol: float = 1e-8, singular_points=(), **kw):
    """integral of |f|^2 exp(-phi) over the domain, with error estimate."""
    pts = tuple(w.quadrature_singularities()) + tuple(singular_points)

    def g(z):
        return np.abs(f(z)) ** 2 * weight_factor(w, z)

    value, err = integrate(domain, g, pts, tol, **kw)
    return max(0.0, value.real), err


def inner_product(f, g2, domain, w, tol: float = 1e-8, singular_points=(), **kw):
    """Weighted inner product integral f * conj(g2) * exp(-phi)."""
    pts = tuple(w.quadrature_singularities()) + tuple(singular_points)

    def g(z):
        return f(z) * np.conj(g2(z)) * weight_factor(w, z)

    return integrate(domain, g, pts, tol, **kw)


def integrate_1d(f, edges, tol: float = 1e-10, rule_order: int = 16, max_panels: int = 20_000):
    """Adaptive Gauss-Legendre quadrature on a union of 1-D panels.

    edges is the sorted list of initial panel boundaries (callers encode
    breakpoints and any grading ladder directly in it). Returns (value, err).
    """
    xg, wg = _gl(rule_order)

    def rule(a, b):
        x = a[:, None] + 0.5 * (xg + 1.0)[None, :] * (b - a)[:, None]
        v = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        return (v * wg[None, :]).sum(axis=1) * 0.5 * (b - a)

    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)

    def eval_batch(a, b):
        coarse = rule(a, b)
        m = 0.5 * (a + b)
        fine = rule(a, m) + rule(m, b)
        return fine, np.abs(fine - coarse)

    val, est = eval_batch(a, b)
    while float(est.sum()) > tol and len(a) < max_panels:
        thresh = 0.5 * tol / max(1, len(a))
        cand = np.flatnonzero(est > thresh)
        if cand.size == 0:
            break
        order = cand[np.argsort(-est[cand], kind="stable")]
        sel = order[: min(256, order.size)]
        keep = np.ones(len(a), dtype=bool)
        keep[sel] = False
        sa, sb = a[sel], b[sel]
        sm = 0.5 * (sa + sb)
        na = np.concatenate([a[keep], sa, sm])
        nb = np.concatenate([b[keep], sm, sb])
        nv, ne = eval_batch(np.concatenate([sa, sm]), np.concatenate([sm, sb]))
        val = np.concatenate([val[keep], nv])
        est = np.concatenate([est[keep], ne])
        a, b = na, nb
    return float(val.sum()), float(est.sum())


def truncation_tail(w, R: float, amplitude: float = 1.0, growth: float = 0.0) -> float:
    """Certified upper bound for the mass outside radius R under |Im z| + |z|^p.

    Bounds integrals of amplitude * e^(growth |y|) * e^(-|y| - |z|^p) over
    {|z| > R}: for growth <= 1 the y-factors cancel pointwise, leaving
    amplitude * 2 pi * int_R^inf r e^(-r^p) dr, which is evaluated by 1-D
    quadrature plus an analytic remainder for the far tail.
    """
    if not isinstance(w, ImAbsPlusPower):
        raise UnsupportedGrowth("tail bounds are defined for the |Im z| + |z|^p weight")
    if growth > 1.0:
        raise UnsupportedGrowth(f"growth {growth} exceeds the |Im z| budget of 1")
    p = w.p
    a = 2.0 / p
    x0 = max(R, 0.0) ** p
    x1 = max(x0, 2.0 * (a - 1.0)) + 80.0

    def h(t):
        return t ** (a - 1.0) * np.exp(-t)

    # geometric seed panels handle the steep start near x0
    edges = [x0]
    step = max(1.0, x0 * 0.25) if x0 > 0 else 1.0
    pos = x0
    while pos < x1:
        pos = min(x1, pos + step)
        edges.append(pos)
        step *= 1.5
    value, err = integrate_1d(h, edges, tol=1e-11 * math.gamma(a))
    remainder = 2.0 * x1 ** (a - 1.0) * math.exp(-x1)
    return amplitude * TWO_PI * (value + err + remainder) / p
