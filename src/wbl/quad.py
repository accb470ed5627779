"""Adaptive two-dimensional quadrature for weighted, possibly singular integrals.

The engine works in the (theta, u) parameter space of a domain's radial
sections: theta is the angle from the domain's radial center, and u in [0, 1]
parametrizes the radial interval of the active section branch. Cells are
axis-aligned rectangles in this space, so curved circle/arc boundaries are
resolved exactly and the only error source is rule truncation.

Each cell carries a tensor Gauss rule: Gauss-Legendre in theta, and in u
Gauss-Legendre or, on the innermost cell of a branch that starts at a
singular radial center, Gauss-Jacobi with weight u^(1 - a) for the
singularity's order a (Golub & Welsch, Math. Comp. 23, 1969). There the
integrand times the Jacobian is u^(1 - a) times a function smooth in u. That
cell starts as [0, 1/4] and is refined in the same loop as every other cell,
but halved in u only, its lower half keeping the Jacobi rule.
A marked singular point off the center is the apex of eight Duffy triangles
(Duffy, SIAM J. Numer. Anal. 19(6), 1982) that tile a small box around it,
near-square in physical units. Each triangle is a cell in local coordinates
(t, s) in [0, 1]^2, mapped to (theta, u) = A + s ((P - A) + t (P' - P)), so
the integrand times the Jacobian is s^(1 - a) times a smooth function, and
the same Gauss-Jacobi rule in s integrates it. Every singular point comes
with its order, given by the caller, never sampled. No singular core is
excluded or bounded. A cell's error estimate is the difference between its
value and the sum over its 2x2 split. Refinement always processes the worst
cells first with index ties broken deterministically, and final values are
summed in creation order, so identical inputs give bit-identical results.

Each refinement round splits up to 512 of the worst cells and values all
their children, together with each child's own 2x2 split, in one batched rule
pass, run in chunks of at most _CHUNK nodes so that its temporaries stay
cache-sized (the batched design of DCUHRE: Berntsen, Espelid & Genz, ACM TOMS
17(4), 1991). Every cell's value is computed by the same operations as alone,
so batching changes no bit of the result. Duffy cells stop splitting once
their reach from the apex would fall below 1e-13 r; when those cells' own
estimates already sum above the tolerance, no refinement can meet it, and
the engine stops with the estimate it has. A cell on an empty radial section
is worth 0, and the integrand is not called at its nodes; it stays in the
cell list, so thresholds and summation order are those of a full pass.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParameters, NonIntegrableSingularity, ToleranceNotMet, UnsupportedGrowth
from .weights import ImAbsPlusPower, quadrature_points

TWO_PI = 2.0 * math.pi
# most nodes valued in one pass, so a round's temporaries stay cache-sized
_CHUNK = 1 << 14


def _keep_freed_heap():
    """Keep the few MB that a solve frees on glibc's heap for the next solve.

    glibc maps each block above its mmap threshold afresh, and returns the
    top of its heap to the system once more than its trim threshold is free.
    Both start at 128 KB and rise only when the process frees a large mapped
    block, so, left alone, the engine's speed hangs on what ran before it:
    where nothing did, a solve gives its ~2 MB of temporaries back and the
    next one faults them in again. On a 2-core x86-64 host that cost the
    moon criterion about a fifth of its time. Fixing both thresholds once
    keeps those pages: blocks up to 8 MB come from the heap, and it is
    trimmed only past 16 MB free. A libc without mallopt (not glibc), or a
    platform without dlopen, is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 1 << 23)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 24)  # M_TRIM_THRESHOLD


_keep_freed_heap()


@functools.lru_cache(maxsize=64)
def _gauss(order: int, beta: float = 0.0):
    """Gauss rule for the weight (1 + x)^beta on [-1, 1], beta > -1.

    beta = 0 is Gauss-Legendre. Otherwise the nodes are the eigenvalues of
    the Jacobi matrix of the weight (Golub and Welsch), and the weights are
    returned divided by (1 + x)^beta, so sum(w h(x)) integrates h itself,
    exactly when h / (1 + x)^beta is a polynomial of degree < 2 order.
    """
    if beta == 0.0:
        return leggauss(order)
    n = np.arange(1, order)
    s = 2.0 * n + beta
    diag = np.concatenate([[beta / (beta + 2.0)], beta**2 / (s * (s + 2.0))])
    off = 2.0 * n * (n + beta) / (s * np.sqrt(s * s - 1.0))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (beta + 1.0) / (beta + 1.0)
    return x, mu0 * vec[0] ** 2 / (1.0 + x) ** beta


@dataclass
class QuadratureGrid:
    """Cell decomposition of a domain with nodes, weights and an error estimate.

    nodes/weights realize the plain Lebesgue measure: sum(weights * h(nodes))
    approximates the integral of h over the domain for any h resolved by the
    cells. error_estimate is the adaptive estimate for the pilot integrand the
    grid was built for. tol is relative to the pilot integral (value). A cell's
    duffy field is NaN for a plain cell, and (A, P - A, P' - P) in (theta, u)
    for a Duffy triangle, whose t0..u1 are local (t, s) coordinates.
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


def _order(p, orders):
    """The largest of a singular point's entries' orders, below 1.995."""
    order = max(orders)
    if order >= 1.995:
        raise NonIntegrableSingularity(f"singularity at {p} has order {order:.3f} >= 2")
    return order


def _circ(a, b):
    """Distance between angles on the circle."""
    return np.abs((a - b + math.pi) % TWO_PI - math.pi)


_CELL_FIELDS = ("t0", "t1", "u0", "u1", "br", "beta", "duffy", "val", "est")


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
        try:
            self.singular_points = tuple((complex(p), float(a)) for p, a in singular_points)
        except (TypeError, ValueError):
            raise InvalidParameters(f"singular points are (point, order) pairs: {singular_points}")

        # per cell: edges in (theta, u), or in (t, s) for a Duffy cell; branch;
        # the Jacobi exponent of its rule in u (0 is Gauss-Legendre); its Duffy
        # map (A, P - A, P' - P) in (theta, u), NaN if plain; value; estimate
        self.t0 = self.t1 = self.u0 = self.u1 = self.beta = self.est = np.empty(0)
        self.br = np.empty(0, dtype=np.int64)
        self.duffy = np.empty((0, 6))
        self.val = np.empty(0, dtype=complex)

    # ---- section helpers -------------------------------------------------

    def _locate(self, z):
        """(theta, u, branch, r, width) of an interior point, or None."""
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
                return theta, u, b, r, width
        return None

    # ---- cell evaluation -------------------------------------------------

    def _u_rule(self, beta):
        """Nodes and weights in u on [-1, 1] of a batch of cells, shape (1, q)
        when every cell has the Gauss-Legendre rule, else (B, q)."""
        if not beta.any():
            x, w = _gauss(self.q)
            return x[None, :], w[None, :]
        uniq, idx = np.unique(beta, return_inverse=True)
        # (2, B, q): nodes and weights of each cell's rule
        table = np.array([_gauss(self.q, b) for b in uniq.tolist()]).transpose(1, 0, 2)[:, idx]
        return table[0], table[1]

    def _polar(self, theta, u, br):
        """Nodes z at (theta, u) on branch br[i] of cell i, and r * width."""
        sec = self.domain.radial_sections(theta.ravel()).reshape(theta.shape + (self.nb, 2))
        if self.nb > 1:
            sec = np.take_along_axis(sec, br.reshape((-1,) + (1,) * (theta.ndim + 1)), axis=-2)
        lo, hi = sec[..., 0, 0], sec[..., 0, 1]
        width = np.maximum(0.0, hi - lo)
        r = lo + width * u
        return self.center + r * np.exp(1j * theta), r * width

    def _nodes(self, t0, t1, u0, u1, br, xu, duffy):
        """Tensor nodes z of a batch of cells and their Jacobians, both of shape
        (B, q, q): cell, theta (or t) node, u (or s) node. xu holds the u nodes
        on [-1, 1], shape (1, q) or (B, q). Plain and Duffy cells go apart."""
        xg, _ = _gauss(self.q)
        t = (t0[:, None] + 0.5 * (xg + 1.0)[None, :] * (t1 - t0)[:, None])[:, :, None]
        u = (u0[:, None] + 0.5 * (xu + 1.0) * (u1 - u0)[:, None])[:, None, :]
        tri = ~np.isnan(duffy[:, 0])
        if not tri.any():
            return self._polar(t, u, br)
        z = np.empty((len(t0), self.q, self.q), dtype=complex)
        jac = np.empty(z.shape)
        z[~tri], jac[~tri] = self._polar(t[~tri], u[~tri], br[~tri])
        # (theta, u) = A + s ((P - A) + t (P' - P)), Jacobian s |det(P - A, P' - P)|
        a_t, a_u, p_t, p_u, q_t, q_u = duffy[tri].T[:, :, None, None]
        s, t = u[tri], t[tri]
        z[tri], jac[tri] = self._polar(a_t + s * (p_t + t * q_t), a_u + s * (p_u + t * q_u), br[tri])
        jac[tri] *= s * np.abs(p_t * q_u - p_u * q_t)
        return z, jac

    def _rule(self, *cells):
        """Tensor Gauss value of a batch of cells, shape (B,), evaluated in
        chunks of at most _CHUNK nodes."""
        step = max(1, _CHUNK // self.q**2)
        n = len(cells[0])
        if n <= step:
            return self._rule_chunk(*cells)
        return np.concatenate([self._rule_chunk(*(c[i : i + step] for c in cells))
                               for i in range(0, n, step)])

    def _rule_chunk(self, t0, t1, u0, u1, br, beta, duffy):
        _, wg = _gauss(self.q)
        xu, wu = self._u_rule(beta)
        z, jac = self._nodes(t0, t1, u0, u1, br, xu, duffy)
        # a cell on an empty section has Jacobian 0 at every node: it is worth 0
        # and not valued; a chunk without a zero Jacobian skips the mask's copies
        if jac.min() > 0:
            vals = np.asarray(self.g(z.reshape(-1)), dtype=complex).reshape(z.shape)
        else:
            live = jac.any(axis=(1, 2))
            vals = np.zeros(z.shape, dtype=complex)
            if live.any():
                vals[live] = np.reshape(self.g(z[live].ravel()), (-1, self.q, self.q))
        integ = vals * jac
        inner = (integ * wu[:, None, :]).sum(axis=2)
        total = (inner * wg[None, :]).sum(axis=1)
        return total * 0.25 * (t1 - t0) * (u1 - u0)

    @staticmethod
    def _children(t0, t1, u0, u1, br, beta, duffy, cut_t=True, cut_u=True):
        """The 2x2 split of a batch of cells as one batch, child-major: each
        cell's lower-theta, lower-u quadrant first, then the one above it in
        u, then the two at higher theta. A side not cut leaves empty
        children. The halves at the lower u edge keep the cell's rule; the
        others take Gauss-Legendre."""
        tm = np.where(cut_t, 0.5 * (t0 + t1), t1)
        um = np.where(cut_u, 0.5 * (u0 + u1), u1)
        gl = np.zeros_like(beta)
        quads = [(ta, tb, ua, ub, br, bb, duffy) for ta, tb in ((t0, tm), (tm, t1))
                 for ua, ub, bb in ((u0, um, beta), (um, u1, gl))]
        return tuple(np.concatenate(field) for field in zip(*quads))

    def _values(self, *cells):
        """Cell values by their 2x2 split, and the split's difference from
        the single-cell rule as error estimate; the cells and their splits
        are valued in one _rule pass."""
        n = len(cells[0])
        both = (np.concatenate(pair) for pair in zip(cells, self._children(*cells)))
        coarse, *quads = self._rule(*both).reshape(5, n)
        fine = np.zeros_like(coarse)
        for part in quads:
            fine = fine + part
        return fine, np.abs(fine - coarse)

    def _append(self, *cells):
        """Add cells, valued by _values."""
        val, est = self._values(*cells)
        for name, new in zip(_CELL_FIELDS, cells + (val, est)):
            setattr(self, name, np.concatenate([getattr(self, name), new]))

    def _drop(self, idx):
        keep = np.ones(len(self.t0), dtype=bool)
        keep[idx] = False
        for name in _CELL_FIELDS:
            setattr(self, name, getattr(self, name)[keep])

    def _cuts(self, t0, t1, u0, u1, br, beta, duffy):
        """Sides to halve: each at least half the other, so that thin cells by a
        small Duffy box, or at the apex of an inexact one, do not multiply. A
        plain cell's sides compare as r^2 dtheta and (r width) du, a Duffy
        cell's in units of its triangle's legs, as s1 dt and ds."""
        z, jac = self._polar(0.5 * (t0 + t1), 0.5 * (u0 + u1), br)
        tri = ~np.isnan(duffy[:, 0])
        d_t = np.where(tri, u1, np.abs(z - self.center) ** 2) * (t1 - t0)
        d_u = np.where(tri, 1.0, jac) * (u1 - u0)
        return 2 * d_t >= d_u, 2 * d_u >= d_t

    # ---- singular-point treatment ---------------------------------------

    def _at_center(self, p):
        """Whether a point is the radial center, up to 1e-12 of the scale."""
        return abs(p - self.center) <= 1e-12 * self.scale

    def _boxes(self, b0, fixed):
        """(theta - b0, u, branch, h_theta, h_u, 1 - order) of the box of each
        interior singular point off the center: [theta +- h_theta] x [u +- h_u],
        near-square (r h_theta = width h_u) with h_theta <= pi / 16. It keeps
        half its gap to u = 0 and 1, to each fixed theta edge (one within
        1e-14 rad takes the point), and to each other point of its branch
        along the axis on which they are further apart, so boxes are disjoint."""
        orders = {}
        for p, o in self.singular_points:
            if not self._at_center(p) and bool(self.domain.contains(p)):
                orders.setdefault(p, []).append(o)
        found = []
        for p, os in orders.items():
            order = _order(p, os)
            loc = self._locate(p)
            if loc is None:
                continue
            theta, u, b, r, width = loc
            th = (theta - b0) % TWO_PI
            gaps = {f: _circ(f, th) for f in fixed}
            th = next((f % TWO_PI for f, d in gaps.items() if d <= 1e-14), th)
            gap = min([d for d in gaps.values() if d > 1e-14], default=math.pi / 8)
            rho = min(r * min(gap, math.pi / 8), width * min(u, 1.0 - u)) / 2
            found.append([th, u, b, r, width, rho, 1.0 - order])
        for one in found:
            th, u, b, r, width = one[:5]
            for other in found:
                if other is one or other[2] != b:
                    continue
                dt, du = _circ(th, other[0]), abs(u - other[1])
                if (r + other[3]) * dt >= (width + other[4]) * du:
                    one[5] = min(one[5], r * dt / 2)
                else:
                    one[5] = min(one[5], width * du / 2)
        return [(th, u, b, rho / r, rho / width, beta) for th, u, b, r, width, rho, beta in found]

    def _place_box(self, theta, u, br, ht, hu, beta):
        """Tile the box [theta +- ht] x [u +- hu] of branch br with eight Duffy
        triangles, apex (theta, u); the plain cells it overlaps, whose theta
        edges it shares, keep their parts below and above it."""
        hit = np.flatnonzero(
            (self.br == br) & np.isnan(self.duffy[:, 0])
            & (_circ(0.5 * (self.t0 + self.t1), theta) < ht)
            & (self.u0 < u + hu) & (self.u1 > u - hu)
        )
        # each hit cell's part below the box, then its part above
        two = np.concatenate([hit, hit])
        up = np.arange(len(two)) >= len(hit)
        u0 = np.where(up, u + hu, self.u0[two])
        u1 = np.where(up, self.u1[two], u - hu)
        beta0 = np.where(up, 0.0, self.beta[two])
        k = u1 > u0
        parts = (self.t0[two], self.t1[two], u0, u1, self.br[two], beta0, self.duffy[two])
        # quadrant (st, su) of the box holds the triangles A = (theta, u),
        # P = A + (st, 0), P' = A + (st, su) and A, P = A + (st, su), P' = A + (0, su)
        duffy = [(theta, u, st, su * a, -st * a, su * (1 - a))
                 for st in (-ht, ht) for su in (-hu, hu) for a in (0.0, 1.0)]
        tri = (np.zeros(8), np.ones(8), np.zeros(8), np.ones(8), np.full(8, br), np.full(8, beta))
        self._drop(hit)
        self._append(*(np.concatenate([p[k], t]) for p, t in zip(parts, tri + (np.array(duffy),))))

    # ---- main driver ------------------------------------------------------

    def run(self):
        # initial theta edges between breakpoints, capped at pi/4 apart, with
        # dyadic grading into any sqrt-kink angles of the sections; the
        # breakpoints and the grading are fixed, the pi/4 edges give way to
        # the Duffy boxes
        brk = sorted(set(b % TWO_PI for b in self.domain.theta_breakpoints()))
        b0 = brk[0] if brk else 0.0
        pts = sorted({(b - b0) % TWO_PI for b in brk} | {0.0, TWO_PI})
        flat = set()
        for a, b in zip(pts[:-1], pts[1:]):
            parts = max(1, math.ceil((b - a) / (math.pi / 4)))
            flat.update(a + (b - a) * j / parts for j in range(parts + 1))
        fixed = set(pts) if brk else set()
        kinks = getattr(self.domain, "theta_kinks", lambda: [])()
        for kk in kinks:
            k = (kk - b0) % TWO_PI
            for j in range(1, 36):
                for side in (1.0, -1.0):
                    pt = k + side * (math.pi / 4) * 2.0**-j
                    if 0.0 < pt < TWO_PI:
                        fixed.add(pt)
        flat |= fixed
        boxes = self._boxes(b0, fixed)
        stay = fixed | {0.0, TWO_PI}
        for th, _, _, ht, *_ in boxes:
            flat = {e for e in flat if e in stay or _circ(e, th) > ht * (1 + 1e-9)}
        flat.update(e % TWO_PI for th, _, _, ht, *_ in boxes for e in (th - ht, th, th + ht))
        flat = sorted(flat)
        edges = [(b0 + a, b0 + b) for a, b in zip(flat[:-1], flat[1:]) if b > a]

        # one initial cell per (theta segment, branch), segment-major; a branch
        # that starts at a singular center of order a, the largest its entries
        # give, is [1/4, 1] in u, and its Gauss-Jacobi cell [0, 1/4], with
        # weight u^(1 - a), goes ahead of every initial cell
        seg = np.array(edges)
        t = np.repeat(seg, self.nb, axis=0)
        br = np.tile(np.arange(self.nb), len(edges))
        u0, u1, beta = np.zeros(len(br)), np.ones(len(br)), np.zeros(len(br))
        at_center = [o for p, o in self.singular_points if self._at_center(p)]
        if at_center and bool(self.domain.contains(self.center)):
            a = _order(self.center, at_center)
            mid = self.domain.radial_sections(0.5 * (seg[:, 0] + seg[:, 1]))
            starts = mid[:, :, 0].ravel() == 0.0
            k = int(starts.sum())
            t, br = np.concatenate([t[starts], t]), np.concatenate([br[starts], br])
            u0 = np.concatenate([np.zeros(k), np.where(starts, 0.25, 0.0)])
            u1 = np.concatenate([np.full(k, 0.25), u1])
            beta = np.concatenate([np.full(k, 1.0 - a), beta])
        self._append(t[:, 0], t[:, 1], u0, u1, br, beta, np.full((len(br), 6), np.nan))

        for th, u, b, ht, hu, beta in boxes:
            self._place_box(b0 + th, u, b, ht, hu, beta)

        # a Duffy cell splits only while its children reach >= 1e-13 r
        # radially from the apex, r = |point - center|, so no node nears it
        while True:
            tol_eff = self.tol * abs(complex(self.val.sum())) if self.relative else self.tol
            if float(self.est.sum()) <= tol_eff or len(self.t0) >= self.max_cells:
                break
            n = len(self.t0)
            thresh = 0.5 * tol_eff / max(1, n)
            d = self.duffy
            reach = np.maximum(np.abs(d[:, 2]), np.abs(d[:, 2] + d[:, 4])) * (self.u1 - self.u0)
            floored = reach < 2e-13
            # no refinement brings the total under the floored cells' estimates
            if float(self.est[floored].sum()) > tol_eff:
                break
            candidates = np.flatnonzero((self.est > thresh) & ~floored)
            if candidates.size == 0:
                break
            order = candidates[np.argsort(-self.est[candidates], kind="stable")]
            sel = order[: min(512, order.size, self.max_cells - n + 1)]
            cells = tuple(getattr(self, name)[sel] for name in _CELL_FIELDS[:7])
            self._drop(sel)
            cut_t, cut_u = self._cuts(*cells) if boxes else (True, True)
            # a plain Gauss-Jacobi cell is halved in u only: its error sits at
            # the center, its edge u = 0, which a theta cut does not shrink
            jacobi = (cells[5] != 0.0) & np.isnan(cells[6][:, 0])
            children = self._children(*cells, cut_t & ~jacobi, cut_u | jacobi)
            keep = (children[1] > children[0]) & (children[3] > children[2])
            self._append(*(a[keep] for a in children))

        # an exact rule's estimate can fall below the rounding of the sum
        err = max(float(self.est.sum()), 4.0 * np.finfo(float).eps * float(np.abs(self.val).sum()))
        return complex(self.val.sum()), err

    def export_grid(self):
        _, wg = _gauss(self.q)
        xu, wu = self._u_rule(self.beta)
        z, jac = self._nodes(self.t0, self.t1, self.u0, self.u1, self.br, xu, self.duffy)
        w2 = wg[None, :, None] * wu[:, None, :]
        wts = w2 * jac * (0.25 * (self.t1 - self.t0) * (self.u1 - self.u0))[:, None, None]
        cells = np.rec.fromarrays(
            [self.br, self.t0, self.t1, self.u0, self.u1, self.est, self.duffy],
            dtype=[("branch", np.int64), ("t0", float), ("t1", float), ("u0", float),
                   ("u1", float), ("est", float), ("duffy", float, 6)],
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
    must be listed in singular_points as (point, order) pairs, with the
    exact order a < 2 of |g| ~ |z - point|^(-a) times a smooth factor; a
    point with several entries takes the largest order. Orders are given,
    never sampled: an entry that is not a pair raises InvalidParameters.
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
        singular_points=eng.singular_points,
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

    When the atoms are listed as singular points, they are apexes of Duffy
    cells that the engine splits no finer than 1e-13 |atom - radial center|
    in reach from the apex, so no node sits on an atom and, for atoms of
    integrable order, every node stays outside the capped zone.
    """
    return np.exp(np.minimum(-np.asarray(w.evaluate(z), dtype=float), 700.0))


def weighted_norm_sq(f, domain, w, tol: float = 1e-8, singular_points=(), **kw):
    """integral of |f|^2 exp(-phi) over the domain, with error estimate; each
    weight atom is integrated at its exact order."""

    def g(z):
        return np.abs(f(z)) ** 2 * weight_factor(w, z)

    value, err = integrate(domain, g, quadrature_points(w, singular_points), tol, **kw)
    return max(0.0, value.real), err


def inner_product(f, g2, domain, w, tol: float = 1e-8, singular_points=(), **kw):
    """Weighted inner product integral f * conj(g2) * exp(-phi)."""

    def g(z):
        return f(z) * np.conj(g2(z)) * weight_factor(w, z)

    return integrate(domain, g, quadrature_points(w, singular_points), tol, **kw)


def integrate_1d(f, edges, tol: float = 1e-10, rule_order: int = 16, max_panels: int = 20_000):
    """Adaptive Gauss-Legendre quadrature on a union of 1-D panels.

    edges is the sorted list of initial panel boundaries (callers encode
    breakpoints and any grading ladder directly in it). Returns (value, err).
    """
    xg, wg = _gauss(rule_order)

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
    amplitude * 2 pi * int_R^inf r e^(-r^p) dr: 1-D quadrature plus an analytic
    far-tail remainder, rounded up by 16 eps, the rounding budget of the panel sum.
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
    return amplitude * TWO_PI * (value + err + remainder) / p * (1.0 + 16 * np.finfo(float).eps)
