"""Weighted polynomial approximation: Gram matrices, best approximants,
distance scans, and the extremal orthonormal basis.

Every result comes from one upper-triangular factor R of the weighted
[A | b] (_factor): A the scaled monomials, b one column per target, and
R^H R their matrix of inner products. Each target's coefficients, distances
d_k and ||f||, the Gram matrix R^T conj(R), its condition number, and the
extremal basis (from a QR of R reversed) are read off R; normal equations
are never formed, since shifted monomials are exponentially ill-conditioned.
R comes by one of two routes, chosen from the inputs:

- rotation-invariant problems (a disc or truncated plane expanded about its
  centre, the zero weight or atoms at the centre only, no declared target
  singularity, no divisor but a power of the basis variable): the monomials
  are orthogonal, so R is diagonal in its polynomial part. Gauss-Jacobi in
  the radius and one FFT over equispaced angles give the Gram diagonal
  exactly and each <f, zeta^k> to aliasing, on levels that double the angles
  until two agree (_rotation_factor). No grid is adapted and no QR is taken;
  a target that needs too many angles falls back to the engine.
- everything else: an R-only Householder QR of the weighted evaluation
  matrix at the nodes of an adapted grid. The tall, skinny QR is a tree of
  cache-sized leaves reduced pairwise (TSQR), which keeps distances near
  1e-10 d_0 at the rounding level of a single QR. Every QR runs on one BLAS
  thread (_qr_r), so R does not depend on the thread count.

Each result names its route, with the rotation route's final angle and
radius counts.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateWeight, IllConditioned, InvalidParameters, UnsupportedMeasure
from .geometry import ArcRegion, Disc, Moon, TruncatedPlane
# integrate stays importable here: perfbench/tracing.py patches wbl.bergman.integrate
from .quad import _gauss, build_grid, integrate, weight_factor  # noqa: F401
from .weights import LogPotential, Polynomial, ZeroWeight, quadrature_points

_LEAF = 8_192
_ILL_COND = 1e14
# trapezoid angles past which a rotation-invariant problem goes to the engine
_MAX_ANGLES = 2048
_EPS = float(np.finfo(float).eps)


@dataclass
class GramMatrix:
    """Hermitian matrix of weighted inner products of scaled shifted monomials.

    matrix is R^T conj(R) for the least-squares factor R, kept as factor;
    cond_estimate is cond(R)^2 for R with unit-norm columns. error_budget is,
    on the engine route, the adapted grid's quadrature estimate for its pilot
    integral, a heuristic budget rather than a certificate; on the rotation
    route the matrix is exact up to rounding and the budget is 4 eps times the
    sum of its diagonal. route is "engine" or "rotation M=<angles> q=<radii>".
    """

    center: complex
    scale: float
    degree: int
    matrix: np.ndarray
    cond_estimate: float
    error_budget: float
    ill_conditioned: bool
    positive_definite: bool
    factor: np.ndarray
    route: str = "engine"


@dataclass
class ApproximationResult:
    """Best degree-n approximant with its distance history.

    distances[k] is the weighted-L2 distance from f to polynomials of degree
    <= k; for jet-constrained runs entries below the jet order are NaN (no
    feasible polynomial). error_budget is, on the engine route, the
    quadrature estimate carried by the node grid for its pilot integral, a
    heuristic budget rather than a certificate; on the rotation route it is
    the largest change of ||f|| or of any d_k between the last two levels,
    floored at 4 eps ||f||, an absolute bound on the distances' error. route
    names the route that ran, as in GramMatrix.
    """

    degree: int
    polynomial: Polynomial
    distance: float
    distances: np.ndarray
    error_budget: float
    cond_estimate: float
    ill_conditioned: bool
    route: str = "engine"


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


def _factor(domain, w, p, s, N, targets, f_singularities, Q, tol, rule_order, max_cells):
    """(p, s, R, error_budget, route) for the weighted [A | b]; a divisor Q
    skips the weight check. A rotation-invariant problem is solved by
    orthogonality when its levels agree within the node cap, else, like every
    other problem, on an adapted grid."""
    p, s = _resolve_ps(domain, p, s)
    if Q is None:
        _check_weight(domain, w)
    radial = _radial_problem(domain, w, p, s, f_singularities, Q)
    if radial is not None:
        solved = _rotation_factor(domain, w, s, N, targets, tol, *radial)
        if solved is not None:
            return (p, s) + solved
    singular = quadrature_points(w, f_singularities, Q)
    grid = _scan_grid(domain, w, p, s, N, targets, singular, tol, rule_order, max_cells, Q)
    return p, s, _blocked_lsq(grid, w, p, s, N, targets, Q), grid.error_estimate, "engine"


def _radial_problem(domain, w, p, s, f_singularities, Q):
    """(rho, alpha, m) when every monomial about p is orthogonal to every
    other, else None: a disc or truncated plane of radius rho centred at p, no
    target singularity, the zero weight or atoms of total mass alpha < 2 at
    the centre, and no divisor or Q = ((z - p)/s)^m. Centres agree to 1e-12 rho."""
    if not isinstance(domain, (Disc, TruncatedPlane)) or f_singularities:
        return None
    c = domain.radial_center()
    rho = domain.radius if isinstance(domain, Disc) else domain.R
    if abs(p - c) > 1e-12 * rho:
        return None
    if isinstance(w, ZeroWeight):
        alpha = 0.0
    elif isinstance(w, LogPotential) and w.offset is None:
        if any(abs(zi - c) > 1e-12 * rho for zi, _ in w.atoms):
            return None
        alpha = math.fsum(ai for _, ai in w.atoms)
    else:
        return None
    m = 0 if Q is None else len(Q.coeffs) - 1
    if alpha >= 2.0 or Q is not None and (Q.center, Q.scale, Q.coeffs) != (p, s, (0,) * m + (1,)):
        return None
    return rho, alpha, m


def _distance_tails(C):
    """sqrt(sum_{l>=i} |C[l, j]|^2) for every row i, summed from the small end."""
    return np.sqrt(np.cumsum(np.abs(C[::-1]) ** 2, axis=0)[::-1])


def _rotation_factor(domain, w, s, N, targets, tol, rho, alpha, m):
    """(R, error_budget, route) by orthogonality, or None past _MAX_ANGLES.

    With the centre c and zeta = (z - c)/s, the basis zeta^(m+k), k = 0..N, is
    orthogonal. In r = rho (1 + x)/2 the weighted area element is 2 pi r^(1 -
    alpha) times a smooth factor, so a q-point Gauss-Jacobi rule in x (Golub &
    Welsch) gives G_k = <zeta^(m+k), zeta^(m+k)> exactly once q >= m + N + 1.
    Each target is sampled on M equispaced angles of every radius, and its
    angular Fourier modes F_j(r_i) come from one FFT; the periodic trapezoid
    rule is exact on those modes up to aliasing (Trefethen & Weideman, SIAM
    Rev. 56(3), 2014). So b_k = <f, zeta^(m+k)> = sum_i W_i (r_i/s)^(m+k)
    F_(m+k)(r_i), and the residual of f is F with c_k (r_i/s)^(m+k) taken off
    its basis modes; its norm follows by Parseval, never by a subtraction from
    ||f||. At the last level the same norm is summed over the nodes instead,
    from f - P with P by Horner: the FFT rounds each mode to a few ulps of
    ||f||, which moves a d_N near 1e-7 ||f|| by ~1e-10 of itself, and the
    node sum keeps about a third of that. R = [[diag sqrt(G), b / sqrt(G)],
    [0, R_E]] has R^H R = [A | b]^H W [A | b] like the engine's factor, with
    R_E the residual norm for one target and the R of the residual columns
    for several.

    Levels start at M = max(32, 2^ceil(log2(2(m + N + 1)))) and q = m + N + 1
    and double M, raising q by 8, until ||f|| and every d_k of two levels
    agree within tol ||f||; that difference, floored at the rounding of
    ||f||, is the error budget. Without a target the first level is exact,
    and the budget is the rounding of its sums. A target that needs more
    than _MAX_ANGLES angles (a pole near the rim, an undeclared singularity)
    is left to the engine.
    """
    c = domain.radial_center()
    K, T = m + N + 1, len(targets)
    M, q = max(32, 1 << (2 * K - 1).bit_length()), K
    prev = None
    while M <= _MAX_ANGLES:
        x, wx = _gauss(q, 1.0 - alpha)
        r = 0.5 * rho * (1.0 + x)
        W = math.pi * rho * wx * r * weight_factor(w, c + r)
        pw = (r / s)[:, None] ** np.arange(m, K)
        G = (W[:, None] * pw * pw).sum(axis=0)
        sqG = np.sqrt(G)
        R = np.zeros((N + 1 + T, N + 1 + T), dtype=complex)
        R[: N + 1, : N + 1] = np.diag(sqG)
        if not T:
            return R, 4.0 * _EPS * float(G.sum()), f"rotation M={M} q={q}"
        z = (c + r[:, None] * np.exp(2j * math.pi * np.arange(M) / M)).ravel()
        fz = np.array([np.broadcast_to(f(z), z.shape) for f in targets], dtype=complex)
        # F[t, i, j]: mode j of target t on the circle of radius r_i
        F = np.fft.fft(fz.reshape(T, q, M), axis=2) / M
        b = (W[:, None] * pw * F[:, :, m:K]).sum(axis=1)
        coeffs = b / G
        F[:, :, m:K] -= coeffs[:, None, :] * pw
        R[: N + 1, N + 1 :] = (b / sqG).T
        R[N + 1 :, N + 1 :] = _residual_factor(np.sqrt(W)[:, None] * F)
        tails = _distance_tails(R[:, N + 1 :])[: N + 2]
        if prev is not None:
            gap = np.abs(tails - prev).max(axis=0)
            if np.all(gap <= tol * tails[0]):
                budget = max(float(gap.max()), 4.0 * _EPS * float(tails[0].max()))
                for t in range(T):
                    fz[t] -= Polynomial((0,) * m + tuple(coeffs[t]), c, s)(z)
                E = np.sqrt(W / M)[:, None] * fz.reshape(T, q, M)
                R[N + 1 :, N + 1 :] = _residual_factor(E)
                return R, budget, f"rotation M={M} q={q}"
        prev, M, q = tails, 2 * M, q + 8
    return None


def _residual_factor(E):
    """R of the residual columns E[t] (weighted samples or modes); for one
    target, its norm, summed by numpy so that no BLAS call rounds it."""
    if len(E) == 1:
        return math.sqrt(float((np.abs(E) ** 2).sum()))
    return _qr_r(E.reshape(len(E), -1).T)


@functools.lru_cache(maxsize=1)
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for stem, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            get = getattr(lib, f"{stem}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{stem}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


_PIN_LOCK = threading.Lock()
_pin_depth = 0
_pin_threads = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, then restore the count. OpenBLAS
    threads the products inside its Householder QR, so R's last bits would
    depend on the thread count. The pin is process-wide, and numpy releases
    the GIL inside LAPACK, so blocks may overlap across Python threads: under
    a lock, the first entry reads the count and sets 1, and the last exit
    restores it. Without a known OpenBLAS the count is left as it is."""
    global _pin_depth, _pin_threads
    fns = _openblas_threads()
    if fns is None:
        yield
        return
    get, put = fns
    with _PIN_LOCK:
        if _pin_depth == 0:
            _pin_threads = get()
            put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pin_depth -= 1
            if _pin_depth == 0:
                put(_pin_threads)


def _qr_r(a):
    """R of the QR of a, on one BLAS thread."""
    with _one_blas_thread():
        return np.linalg.qr(a, mode="r")


def _unit_cond(R):
    """Condition number of R with unit-norm columns, free of the scale s."""
    return float(np.linalg.cond(R / np.linalg.norm(R, axis=0)))


def gram_matrix(domain, w, p=None, s=None, N=10, tol=1e-10, rule_order=8, max_cells=100_000):
    """Gram matrix of ((z - p)/s)^k, k = 0..N, in the weighted inner product.

    G[j, k] = <psi_j, psi_k> = conj(A^H A)[j, k] = (R^T conj(R))[j, k] for
    the weighted Vandermonde A = QR. Raises DegenerateWeight when some
    monomial has infinite norm; an ill-conditioned result (cond_estimate,
    scale-free, above 1e14 or R singular) is returned but flagged. On the
    engine route tol is relative to the overall mass; the rotation route's
    Gram matrix is exact up to rounding, whatever tol.
    """
    p, s, R, budget, route = _factor(domain, w, p, s, N, (), (), None, tol, rule_order, max_cells)
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
        error_budget=budget,
        ill_conditioned=not pd or cond > _ILL_COND,
        positive_definite=pd,
        factor=R,
        route=route,
    )


def _blocked_lsq(grid, w, p, s, N, targets, Q=None):
    """Triangular factor of the weighted [A | b_1 .. b_m], m = len(targets) >= 0.

    A is the Vandermonde of the scaled monomials, each times the divisor Q
    when one is given. The R-only Householder QR sqrt(w) [A | b_1 .. b_m] =
    U R is taken as a tree, so U is never formed: each leaf of at most _LEAF
    nodes evaluates weight, A and targets on one node slice (so Q meets each
    node once) as the contiguous rows of [A | b]^T, which LAPACK takes with a
    straight copy, and is factored in cache; adjacent factors are stacked and
    refactored in pairs, an odd one out moving up a level, until one is left.
    A sequential carry would refactor its full-norm rows once per block,
    adding that rounding each time; the tree adds it log2(leaves) times. A
    grid of one leaf gets the single QR.

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
        zeta = (nodes - p) / s
        T = np.empty((N + 1 + len(targets), len(nodes)), dtype=complex)
        T[0] = 1.0 if Q is None else Q(nodes)
        for k in range(1, N + 1):
            np.multiply(T[k - 1], zeta, out=T[k])
        for j, f in enumerate(targets, N + 1):
            T[j] = f(nodes)
        T *= sqw
        factors.append(_qr_r(T.T))
    while len(factors) > 1:
        paired = [
            _qr_r(np.vstack(factors[i : i + 2]))
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

    Each f_singularities entry is a (point, order) pair, with the order of
    |f|^2 e^(-phi) at its point; a plain point raises InvalidParameters.
    With divisor_Q, approximates f from Q * P, P of degree <= n: least
    squares on the basis Q ((z - p)/s)^k, so nothing is divided by Q. This
    is the factor-out trick for weights with an atom of mass >= 2 at a zero
    of Q, where only multiples of Q have finite norm. The returned polynomial
    is Q * P in that case and distances refer to ||f - Q P||; such an atom of
    mass nu is integrated at order nu - 2m at a zero of multiplicity m.
    """
    return _best_approx(
        (f,), domain, w, p, s, n, tol, f_singularities, divisor_Q, rule_order, max_cells
    )[0][0]


def _best_approx(fs, domain, w, p, s, n, tol, f_singularities, divisor_Q, rule_order, max_cells):
    """best_poly_approx of each f in fs, with ||f||, from one grid and one factor."""
    p, s, Rb, budget, route = _factor(domain, w, p, s, n, fs, f_singularities, divisor_Q, tol,
                                      rule_order, max_cells)
    R, C = Rb[: n + 1, : n + 1], Rb[:, n + 1 :]
    cond = _unit_cond(R)
    # R is upper triangular, so the LU inside solve does no pivoting
    coeffs = np.linalg.solve(R, C[: n + 1])
    tails = _distance_tails(C)
    out = []
    for j in range(len(fs)):
        distances = tails[1 : n + 2, j]
        poly = Polynomial(tuple(coeffs[:, j]), p, s)
        if divisor_Q is not None:
            poly = divisor_Q.recenter(p, s) * poly
        result = ApproximationResult(
            degree=n,
            polynomial=poly,
            distance=float(distances[n]),
            distances=distances,
            error_budget=budget,
            cond_estimate=cond,
            ill_conditioned=cond > _ILL_COND,
            route=route,
        )
        out.append((result, float(tails[0, j])))
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
        route=res.route,
    )


class ExtremalBasis(list):
    """f_0..f_N of extremal_basis, flagged as the Gram matrix they come from."""


def extremal_basis(
    domain, w, p=None, s=None, N=10, tol=1e-10, gram: GramMatrix | None = None, **kw
):
    """Orthonormal family f_n = a_n (z-p)^n + higher order with maximal a_n > 0.

    Within the degree <= N subspace, f_n is orthogonal to every higher-
    vanishing element. With R P = Q2 R2 for the Gram's factor R and the
    reversal P, conj(R2) with a positive diagonal is the reversed Cholesky
    factor of G, got without squaring cond(R); a_n is its reciprocal
    diagonal. The list carries the Gram's cond_estimate and ill_conditioned.
    """
    if gram is None:
        gram = gram_matrix(domain, w, p, s, N, tol, **kw)
    N = gram.degree
    U = _qr_r(gram.factor[:, ::-1]).conj()
    d = np.diag(U)
    if not np.all(np.isfinite(d) & (d != 0)):
        raise IllConditioned(f"Gram factor is singular (cond ~ {gram.cond_estimate:.2e})")
    # U is triangular, so solve does no pivoting; column N - n of B, reversed, is f_n
    B = np.linalg.solve(U * (np.abs(d) / d)[:, None], np.eye(N + 1))
    basis = ExtremalBasis(Polynomial(tuple(c), gram.center, gram.scale) for c in B[::-1, ::-1].T)
    basis.cond_estimate, basis.ill_conditioned = gram.cond_estimate, gram.ill_conditioned
    return basis


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
