"""Weighted polynomial approximation: Gram matrices, best approximants,
distance scans, and the extremal orthonormal basis.

One R-only Householder QR of the weighted evaluation matrix at the nodes of
a grid, augmented by one column per target, serves every result of that
grid; normal equations are never formed, since shifted monomials are
exponentially ill-conditioned. Each target's coefficients, distances d_k and
||f||, the Gram matrix R^T conj(R) and the scale-free condition number (of R
with unit-norm columns) are read off its backward-stable triangular factor.
The tall, skinny QR is a tree of cache-sized leaves reduced pairwise (TSQR),
which keeps distances near 1e-10 d_0 at the rounding level of a single QR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeight, IllConditioned, InvalidParameters, UnsupportedMeasure
from .geometry import ArcRegion, Disc, Moon, TruncatedPlane
# integrate stays importable here: perfbench/tracing.py patches wbl.bergman.integrate
from .quad import build_grid, integrate, weight_factor  # noqa: F401
from .weights import Polynomial

_LEAF = 8_192
_ILL_COND = 1e14


@dataclass
class GramMatrix:
    """Hermitian matrix of weighted inner products of scaled shifted monomials.

    cond_estimate is that of its unit-diagonal form: cond(R)^2 for the
    least-squares factor R with unit-norm columns.
    """

    center: complex
    scale: float
    degree: int
    matrix: np.ndarray
    cond_estimate: float
    error_budget: float
    ill_conditioned: bool
    positive_definite: bool


@dataclass
class ApproximationResult:
    """Best degree-n approximant with its distance history.

    distances[k] is the weighted-L2 distance from f to polynomials of degree
    <= k; for jet-constrained runs entries below the jet order are NaN (no
    feasible polynomial). error_budget is the quadrature estimate carried by
    the node grid, a heuristic budget rather than a certificate.
    """

    degree: int
    polynomial: Polynomial
    distance: float
    distances: np.ndarray
    error_budget: float
    cond_estimate: float
    ill_conditioned: bool


def default_center_scale(domain):
    """Centroid-ish expansion center and half-diagonal scale for a domain."""
    x0, x1, y0, y1 = domain.bounding_box()
    s = 0.5 * math.hypot(x1 - x0, y1 - y0)
    if isinstance(domain, (Disc, TruncatedPlane)):
        return domain.radial_center(), s
    if isinstance(domain, Moon):
        ro, ri = domain.outer.radius, domain.inner.radius
        c = (ro * ro * domain.outer.center - ri * ri * domain.inner.center) / (ro * ro - ri * ri)
        return c, s
    if isinstance(domain, ArcRegion):
        xs = np.linspace(x0, x1, 128)
        ys = np.linspace(y0, y1, 128)
        zz = (xs[None, :] + 1j * ys[:, None]).ravel()
        inside = domain.contains(zz)
        c = complex(np.mean(zz[inside])) if inside.any() else 0j
        return c, s
    return 0j, s


def _resolve_ps(domain, p, s):
    dp, ds = default_center_scale(domain)
    return (dp if p is None else complex(p)), (ds if s is None else float(s))


def _check_weight(domain, w):
    """1 must lie in the weighted space: every interior atom needs mass < 2."""
    try:
        atoms = w.riesz_atoms()
    except UnsupportedMeasure:
        return
    for zi, _ in atoms:
        if bool(domain.contains(zi)) and w.lelong(zi) >= 2.0:
            raise DegenerateWeight(
                f"atom at {zi} has mass {w.lelong(zi)} >= 2; constants have infinite norm"
            )


def _scan_grid(domain, w, p, s, N, targets, singular, tol, rule_order, max_cells, Q=None):
    """Grid adapted to the weight, the monomial family (times Q), and every |f|^2."""

    # below zeta_min, zeta^(2N) < 2^-54 is under a quarter ulp of the 1, so
    # 1 + zeta^(2N) is 1 bit for bit; the clamp keeps pow off its slow
    # underflow path on the nodes laddered toward the centre
    zeta_min = 2.0 ** (-27 / N) if N else 0.0

    def pilot(z):
        # the top monomial drives rim resolution, the 1 keeps the center honest
        zeta = np.maximum(np.abs(z - p) / s, zeta_min)
        env = 1.0 + zeta ** (2 * N)
        if Q is not None:
            env = env * np.abs(Q(z)) ** 2
        for f in targets:
            env = env + np.abs(f(z)) ** 2
        return env * weight_factor(w, z)

    return build_grid(domain, pilot, singular, tol, rule_order, max_cells)


def _vander(nodes, p, s, N, Q=None):
    """Columns Q(z) ((z - p)/s)^k, k = 0..N, with Q = 1 when not given."""
    zeta = (nodes - p) / s
    V = np.empty((len(nodes), N + 1), dtype=complex)
    V[:, 0] = 1.0 if Q is None else Q(nodes)
    for k in range(1, N + 1):
        V[:, k] = V[:, k - 1] * zeta
    return V


def _unit_cond(R):
    """Condition number of R with unit-norm columns, free of the scale s."""
    return float(np.linalg.cond(R / np.linalg.norm(R, axis=0)))


def gram_matrix(domain, w, p=None, s=None, N=10, tol=1e-10, rule_order=8, max_cells=100_000):
    """Gram matrix of ((z - p)/s)^k, k = 0..N, in the weighted inner product.

    G[j, k] = <psi_j, psi_k> = conj(A^H A)[j, k] = (R^T conj(R))[j, k] for
    the weighted Vandermonde A = QR. Raises DegenerateWeight when some
    monomial has infinite norm; an ill-conditioned result (cond_estimate,
    scale-free, above 1e14 or R singular) is returned but flagged. tol is
    relative to the overall mass.
    """
    p, s = _resolve_ps(domain, p, s)
    _check_weight(domain, w)
    grid = _scan_grid(
        domain, w, p, s, N, (), w.quadrature_singularities(), tol, rule_order, max_cells
    )
    R = _blocked_lsq(grid, w, p, s, N, ())
    G = R.T @ R.conj()
    G = 0.5 * (G + G.conj().T)
    diag = np.diag(R)
    pd = bool(np.all(np.isfinite(diag) & (diag != 0)))
    cond = _unit_cond(R) ** 2 if pd else math.inf
    return GramMatrix(
        center=p,
        scale=s,
        degree=N,
        matrix=G,
        cond_estimate=cond,
        error_budget=grid.error_estimate,
        ill_conditioned=not pd or cond > _ILL_COND,
        positive_definite=pd,
    )


def _blocked_lsq(grid, w, p, s, N, targets, Q=None):
    """Triangular factor of the weighted [A | b_1 .. b_m], m = len(targets) >= 0.

    A is the Vandermonde of the scaled monomials, each times the divisor Q
    when one is given. The R-only Householder QR sqrt(w) [A | b_1 .. b_m] =
    U R is taken as a tree, so U is never formed: each leaf of at most _LEAF
    nodes evaluates weight, A and targets on one node slice (so Q meets each
    node once) and is factored in cache; adjacent factors are stacked and
    refactored in pairs, an odd one out moving up a level, until one is
    left. A sequential carry would refactor its full-norm rows once per
    block, adding that rounding each time; the tree adds it log2(leaves)
    times. A grid of one leaf gets the single QR.

    R = factor[:N+1, :N+1] serves every target; column N + 1 + j holds
    U^H b_j in rows 0..N, then its projections on the earlier targets'
    residuals, still orthogonal to the polynomials, down to its diagonal. So
    with c that column, d_k^2 = sum_{i>k} |c_i|^2 and ||b_j||^2 is the whole
    column. Householder QR is columnwise backward stable, so the columns need
    no equilibration.
    """
    factors = []
    for lo in range(0, len(grid.nodes), _LEAF):
        nodes = grid.nodes[lo : lo + _LEAF]
        sqw = np.sqrt(grid.weights[lo : lo + _LEAF] * weight_factor(w, nodes))
        Ab = np.column_stack([_vander(nodes, p, s, N, Q)] + [f(nodes) for f in targets])
        factors.append(np.linalg.qr(Ab * sqw[:, None], mode="r"))
    while len(factors) > 1:
        paired = [
            np.linalg.qr(np.vstack(factors[i : i + 2]), mode="r")
            for i in range(0, len(factors) - 1, 2)
        ]
        factors = paired + factors[2 * len(paired) :]
    return factors[0]


def best_poly_approx(
    f,
    domain,
    w,
    p=None,
    s=None,
    n=10,
    tol=1e-10,
    f_singularities=(),
    divisor_Q: Polynomial | None = None,
    rule_order=8,
    max_cells=100_000,
) -> ApproximationResult:
    """Best weighted-L2 approximation of f by polynomials of degree <= n.

    With divisor_Q, approximates f from Q * P, P of degree <= n: least
    squares on the basis Q ((z - p)/s)^k, so nothing is divided by Q. This
    is the factor-out trick for weights with an atom of mass >= 2 at a zero
    of Q, where only multiples of Q have finite norm. The returned polynomial
    is Q * P in that case and distances refer to ||f - Q P||.
    """
    return _best_approx(
        (f,), domain, w, p, s, n, tol, f_singularities, divisor_Q, rule_order, max_cells
    )[0][0]


def _best_approx(fs, domain, w, p, s, n, tol, f_singularities, divisor_Q, rule_order, max_cells):
    """best_poly_approx of each f in fs, with ||f||, from one grid and one factor."""
    p, s = _resolve_ps(domain, p, s)
    if divisor_Q is None:
        _check_weight(domain, w)
    singular = tuple(w.quadrature_singularities()) + tuple(f_singularities)
    grid = _scan_grid(domain, w, p, s, n, fs, singular, tol, rule_order, max_cells, divisor_Q)
    Rb = _blocked_lsq(grid, w, p, s, n, fs, divisor_Q)
    R, C = Rb[: n + 1, : n + 1], Rb[:, n + 1 :]
    cond = _unit_cond(R)
    # R is upper triangular, so the LU inside solve does no pivoting
    coeffs = np.linalg.solve(R, C[: n + 1])
    # tails[i, j] = sum_{l>=i} |C[l, j]|^2, summed from the small end
    tails = np.cumsum(np.abs(C[::-1]) ** 2, axis=0)[::-1]
    out = []
    for j in range(len(fs)):
        distances = np.sqrt(tails[1 : n + 2, j])
        poly = Polynomial(tuple(coeffs[:, j]), p, s)
        if divisor_Q is not None:
            poly = divisor_Q.recenter(p, s) * poly
        result = ApproximationResult(
            degree=n,
            polynomial=poly,
            distance=float(distances[n]),
            distances=distances,
            error_budget=grid.error_estimate,
            cond_estimate=cond,
            ill_conditioned=cond > _ILL_COND,
        )
        out.append((result, math.sqrt(tails[0, j])))
    return out


def best_poly_approx_with_jet(
    f,
    domain,
    w,
    p=None,
    s=None,
    n=10,
    jet=(),
    tol=1e-10,
    f_singularities=(),
    rule_order=8,
    max_cells=100_000,
) -> ApproximationResult:
    """Best approximation whose Taylor jet at p is pinned to the given values.

    jet lists the Taylor coefficients c_0..c_m of the approximant at p
    (m <= n). With J the jet polynomial and Q = ((z - p)/s)^(m+1), the
    approximant is J + Q P, and ||f - J - Q P|| is the divisor route of
    best_poly_approx applied to f - J: least squares of f - J on the basis
    Q ((z - p)/s)^k. distances[m] is ||f - J||, since J is the only feasible
    polynomial of degree m; lower entries are NaN.
    """
    p, s = _resolve_ps(domain, p, s)
    k = len(jet)
    if k > n + 1:
        raise InvalidParameters("jet order exceeds the polynomial degree")
    _check_weight(domain, w)
    J = Polynomial.from_taylor(jet, p, s)
    Q = Polynomial((0,) * k + (1,), p, s)

    def rest(z):
        return f(z) - J(z)

    # a fully pinned jet leaves no free coefficient: the degree-0 solve only
    # supplies ||f - J||, and the slices below drop its Q P
    ((res, rest_norm),) = _best_approx(
        (rest,), domain, w, p, s, max(n - k, 0), tol, f_singularities, Q, rule_order, max_cells
    )
    distances = np.concatenate([np.full(k, np.nan), res.distances[: n - k + 1]])
    coeffs = np.array(res.polynomial.coeffs[: n + 1])
    coeffs[:k] += J.coeffs
    if k:
        distances[k - 1] = rest_norm
    return ApproximationResult(
        degree=n,
        polynomial=Polynomial(tuple(coeffs), p, s),
        distance=float(distances[n]),
        distances=distances,
        error_budget=res.error_budget,
        cond_estimate=res.cond_estimate,
        ill_conditioned=res.ill_conditioned,
    )


def extremal_basis(
    domain, w, p=None, s=None, N=10, tol=1e-10, gram: GramMatrix | None = None, **kw
):
    """Orthonormal family f_n = a_n (z-p)^n + higher order with maximal a_n > 0.

    Within the degree <= N subspace, f_n is orthogonal to every higher-
    vanishing element, so it comes from Cholesky factorization of the Gram
    matrix in reversed monomial order; the maximal leading coefficient is the
    reciprocal Cholesky diagonal.
    """
    if gram is None:
        gram = gram_matrix(domain, w, p, s, N, tol, **kw)
    G = gram.matrix
    N = gram.degree
    rev = G[::-1, ::-1]
    try:
        L = np.linalg.cholesky(rev)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"Gram Cholesky broke down (cond ~ {gram.cond_estimate:.2e})") from exc
    # B is upper triangular: column N - n, reversed, is f_n in the monomials
    B = np.linalg.inv(L.conj().T)
    return [Polynomial(tuple(B[::-1, N - n]), gram.center, gram.scale) for n in range(N + 1)]


@dataclass
class ScanResult:
    """Distance sequence of a density scan plus the advisory verdict."""

    distances: np.ndarray
    verdict: str
    approx: ApproximationResult


def scan_verdict(distances) -> str:
    """HEURISTIC decay/plateau label for a distance sequence.

    decaying: d_N < 0.05 d_0 with last-quartile log-slope < -0.05 per degree
    (or d_N at the numerical floor); plateau: last-quartile relative change
    below 1% while d_N > 0.2 d_0; anything else inconclusive.
    """
    d = np.asarray(distances, dtype=float)
    d = d[~np.isnan(d)]
    if len(d) < 2:
        return "inconclusive"
    d0, dn = d[0], d[-1]
    if d0 <= 1e-13:
        return "inconclusive"
    if dn <= max(1e-14, 1e-10 * d0):
        return "decaying"
    quart = d[int(math.ceil(0.75 * (len(d) - 1))) :]
    if dn < 0.05 * d0:
        logs = np.log(np.maximum(quart, 1e-300))
        slope = float(np.polyfit(np.arange(len(quart)), logs, 1)[0])
        if slope < -0.05:
            return "decaying"
    rel_change = (quart[0] - dn) / max(quart[0], 1e-300)
    if rel_change < 0.01 and dn > 0.2 * d0:
        return "plateau"
    return "inconclusive"


def density_scan(
    f,
    domain,
    w,
    p=None,
    s=None,
    N_max=20,
    tol=1e-10,
    f_singularities=(),
    rule_order=8,
    max_cells=100_000,
) -> ScanResult:
    """Distance sequence d_0..d_N from f to polynomial subspaces, with verdict.

    The verdict is advisory (HEURISTIC) and never raises; density of
    polynomials would drive d_n to 0.
    """
    return _density_scans(
        (f,), domain, w, p, s, N_max, tol, f_singularities, rule_order, max_cells
    )[0]


def _density_scans(
    fs, domain, w, p=None, s=None, N_max=20, tol=1e-10, f_singularities=(), rule_order=8,
    max_cells=100_000,
):
    """density_scan of every f in fs, all on one grid and one factor."""
    return [
        ScanResult(distances=res.distances, verdict=scan_verdict(res.distances), approx=res)
        for res, _ in _best_approx(
            fs, domain, w, p, s, N_max, tol, f_singularities, None, rule_order, max_cells
        )
    ]
