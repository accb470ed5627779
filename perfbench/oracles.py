"""Independent reference values for the benchmark's solves.

Every value here is a closed form or an mpmath integral written from the
mathematical definition of the problem. Nothing in this module imports
``wbl``: the library under test never computes its own reference.
Geometry that the oracles need (ray exits from circles, the moon's inner
circle, staged arc windows) is derived here from first principles.
"""

from __future__ import annotations

import math

import mpmath

DPS = 20


def _mpc(z):
    return mpmath.mpc(complex(z).real, complex(z).imag)


# ---- disc, radial weights -------------------------------------------------


def disc_pole_distances(a, N, alpha=0.0):
    """d_0..d_N from 1/(z - a) to polynomials on the unit disc, weight |z|^-alpha.

    Monomials are orthogonal for a radial weight, with ||z^k||^2 =
    2 pi / (2k + 2 - alpha); 1/(z - a) = -sum_k z^k / a^(k+1), so
    d_n^2 = sum_{k>n} |a|^(-2k-2) ||z^k||^2 (alpha = 0 gives pi |a|^(-2k-2)/(k+1)).
    """
    with mpmath.workdps(40):
        x = 1 / mpmath.mpf(abs(complex(a))) ** 2
        terms = [x ** (k + 1) * 2 * mpmath.pi / (2 * k + 2 - mpmath.mpf(alpha))
                 for k in range(N + 400)]
        tail = mpmath.mpf(0)
        out = [None] * (N + 1)
        for k in range(len(terms) - 1, -1, -1):
            if k <= N:
                out[k] = float(mpmath.sqrt(tail))
            tail += terms[k]
        return out


def disc_jet_distances(a, jet, N):
    """Distances with the Taylor jet at 0 pinned, target 1/(z - a), zero weight.

    The approximant's first len(jet) coefficients are fixed, so the jet
    mismatch adds pi |f_j - c_j|^2 / (j + 1) per pinned degree. Entries
    below the jet length are None (no free coefficient there).
    """
    m = len(jet)
    with mpmath.workdps(40):
        av = _mpc(a)
        coef = [-1 / av ** (k + 1) for k in range(N + 400)]
        norm = [mpmath.pi / (k + 1) for k in range(N + 400)]
        fixed = sum(abs(coef[j] - _mpc(jet[j])) ** 2 * norm[j] for j in range(m))
        tail = mpmath.mpf(0)
        out = [None] * (N + 1)
        for k in range(len(coef) - 1, -1, -1):
            if m <= k <= N:
                out[k] = float(mpmath.sqrt(fixed + tail))
            if k >= m:
                tail += abs(coef[k]) ** 2 * norm[k]
        return out


def extremal_leading(N, alpha):
    """Leading coefficients a_n = 1/||z^n|| = sqrt((2n + 2 - alpha) / 2 pi)."""
    return [math.sqrt((2 * n + 2 - alpha) / (2 * math.pi)) for n in range(N + 1)]


def _ray_exit(origin, phi, center, radius):
    """Distance from an interior point along direction phi to a circle."""
    d = origin - center
    b = (d * mpmath.conj(mpmath.expj(phi))).real
    return -b + mpmath.sqrt(radius ** 2 - abs(d) ** 2 + b * b)


def offcenter_gram00(z0, alpha):
    """G_00 = int_disc |z - z0|^-alpha dA = int_0^2pi R(phi)^(2-alpha) dphi / (2 - alpha).

    R(phi) is the distance from z0 to the unit circle in direction phi.
    """
    with mpmath.workdps(DPS):
        zc = _mpc(z0)
        e = 2 - mpmath.mpf(alpha)
        val = mpmath.quad(lambda t: _ray_exit(zc, t, 0, 1) ** e, mpmath.linspace(0, 2 * mpmath.pi, 5))
        return float(val / e)


def centred_potential(alpha):
    """int over the unit disc of |z|^-alpha dA."""
    return 2 * math.pi / (2 - alpha)


def offcenter_potential(points, alphas):
    """int over the unit disc of prod |z - z_i|^-alpha_i, two atoms.

    The disc is split by the perpendicular bisector of the two atoms; each
    half is integrated in polar coordinates about its own atom, so the only
    singularity in each half is the r^(1-alpha) endpoint factor at r = 0,
    which a change of variable removes. With both atoms on the real axis the
    integrand is even in Im z, and only the upper half is integrated.
    """
    mirror = all(complex(p).imag == 0 for p in points)
    with mpmath.workdps(10):
        z = [_mpc(p) for p in points]
        al = [mpmath.mpf(a) for a in alphas]
        total = mpmath.mpf(0)
        for i in (0, 1):
            zi, zj = z[i], z[1 - i]
            mid = (zi + zj) / 2
            nrm = (zj - zi) / abs(zj - zi)

            def r_max(phi, zi=zi, mid=mid, nrm=nrm):
                rc = _ray_exit(zi, phi, 0, 1)
                c = (mpmath.expj(phi) * mpmath.conj(nrm)).real
                if c > 0:
                    return min(rc, ((mid - zi) * mpmath.conj(nrm)).real / c)
                return rc

            def inner(phi, zi=zi, zj=zj, i=i, r_max=r_max):
                # r = R v^(1/(2-a)) turns r^(1-a) dr into R^(2-a)/(2-a) dv
                e, R, ea = mpmath.expj(phi), r_max(phi), 2 - al[i]
                g = lambda v: abs(zi + R * v ** (1 / ea) * e - zj) ** (-al[1 - i])  # noqa: E731
                return R ** ea / ea * mpmath.quad(g, [0, 1])

            # breakpoints: where the bisector meets the circle, seen from zi
            brk = set()
            tvec = nrm * 1j
            # points mid + s t on the unit circle: |mid + s t|^2 = 1
            b = (mid * mpmath.conj(tvec)).real
            disc = b * b - abs(mid) ** 2 + 1
            if disc > 0:
                for s in (-b + mpmath.sqrt(disc), -b - mpmath.sqrt(disc)):
                    brk.add(float(mpmath.arg(mid + s * tvec - zi) % (2 * mpmath.pi)))
            if mirror:
                edges = sorted({0.0, math.pi} | {b for b in brk if b < math.pi})
                total += 2 * mpmath.quad(inner, edges)
            else:
                total += mpmath.quad(inner, sorted({0.0, 2 * math.pi} | brk))
        return float(total)


# ---- moon and staged arc regions ------------------------------------------

MOON_INNER = (0.45, 0.55)  # inner circle centre and radius; outer is the unit circle


def _moon_inner_exit(phi):
    c, r = MOON_INNER
    return _ray_exit(mpmath.mpc(0), phi, c, r)


def _d0(norm_f, mean_f, mass):
    return float(mpmath.sqrt(norm_f - abs(mean_f) ** 2 / mass))


def moon_d0_zero_weight():
    """d_0 of 1/sqrt(z) (cut along the positive axis) and of 1/(z - 0.45) on the moon.

    With zero weight the radial integrals are elementary, leaving 1-D
    integrals over the angle. The target uses polar coordinates about 0
    (the origin is in the hole); the control uses polar coordinates about
    the hole centre 0.45, where the hole is the disc r < 0.55.
    """
    c, rin = MOON_INNER
    with mpmath.workdps(DPS):
        two_pi = 2 * mpmath.pi
        mass = mpmath.pi * (1 - mpmath.mpf(rin) ** 2)
        nf = mpmath.quad(lambda t: 1 - _moon_inner_exit(t), [0, mpmath.pi, two_pi])
        mf = mpmath.quad(
            lambda t: mpmath.expj(-t / 2) * (1 - _moon_inner_exit(t) ** 1.5) * 2 / 3,
            [0, mpmath.pi, two_pi],
        )
        target = _d0(nf, mf, mass)
        hole = mpmath.mpc(c)
        nc = mpmath.quad(lambda t: mpmath.log(_ray_exit(hole, t, 0, 1) / rin), [0, mpmath.pi, two_pi])
        mc = mpmath.quad(
            lambda t: mpmath.expj(-t) * (_ray_exit(hole, t, 0, 1) - rin), [0, mpmath.pi, two_pi]
        )
        control = _d0(nc, mc, mass)
    return target, control


def moon_d0_im_abs_power(p):
    """d_0 of the moon targets under e^-(|Im z| + |z|^p), by 2-D mpmath in polar about 0."""
    c, rin = MOON_INNER
    pw = mpmath.mpf(p)
    with mpmath.workdps(15):
        two_pi = 2 * mpmath.pi

        def over_moon(h):
            def inner(t):
                s = abs(mpmath.sin(t))
                return mpmath.quad(lambda r: h(r, t) * mpmath.exp(-r * s - r ** pw) * r,
                                   [_moon_inner_exit(t), 1])

            return mpmath.quad(inner, [0, mpmath.pi / 2, mpmath.pi, 3 * mpmath.pi / 2, two_pi])

        mass = over_moon(lambda r, t: 1)
        # target: 1/sqrt(z) with arguments t in (0, 2 pi)
        nf = over_moon(lambda r, t: 1 / r)
        mf = over_moon(lambda r, t: mpmath.expj(-t / 2) / mpmath.sqrt(r))
        hole = mpmath.mpf(c)
        nc = over_moon(lambda r, t: 1 / abs(r * mpmath.expj(t) - hole) ** 2)
        mc = over_moon(lambda r, t: 1 / (r * mpmath.expj(t) - hole))
        return _d0(nf, mf, mass), _d0(nc, mc, mass)


def stage_windows(k, alphas):
    """Stages (alpha, omega) of the stage-k region from the construction's definition.

    Stage j = 1..k keeps |z| < 1, |z - a| > 1 - a and |arg z| > pi / 2^(j+1),
    with a = 1/4 for j = 1 and alpha_(j-1) after that.
    """
    seq = [0.25] + [float(a) for a in alphas[:k]]
    return [(seq[j - 1], math.pi / 2 ** (j + 1)) for j in range(1, k + 1)]


def _arc_exit(alpha, t):
    return _ray_exit(mpmath.mpc(0), t, alpha, 1 - alpha)


def stage_inv_sqrt_d0(k, alphas):
    """d_0 of 1/sqrt(z) (arguments in (0, 2 pi)) on the stage-k region, zero weight."""
    stages = stage_windows(k, alphas)
    with mpmath.workdps(DPS):
        def lo(t):
            wrapped = t if t <= mpmath.pi else t - 2 * mpmath.pi
            rs = [min(1, _arc_exit(a, t)) for a, om in stages if abs(wrapped) > om]
            return min(rs) if rs else mpmath.mpf(1)

        brk = {0.0, math.pi, 2 * math.pi}
        for _, om in stages:
            brk |= {om, 2 * math.pi - om}
        edges = sorted(brk)
        mass = mpmath.quad(lambda t: (1 - lo(t) ** 2) / 2, edges)
        nf = mpmath.quad(lambda t: 1 - lo(t), edges)
        mf = mpmath.quad(lambda t: mpmath.expj(-t / 2) * (1 - lo(t) ** 1.5) * 2 / 3, edges)
        return _d0(nf, mf, mass)


def strip_integral(alpha, omega, coeffs, center, scale):
    """int over the strip of |1/sqrt(z) - P(z)|^2 dA, principal branch, zero weight.

    The strip is |z| < 1, |z - alpha| > 1 - alpha, |arg z| <= omega; P is
    sum_k c_k ((z - center)/scale)^k as returned by the library.
    """
    cs = [_mpc(c) for c in coeffs]
    cen, sc = _mpc(center), mpmath.mpf(scale)
    with mpmath.workdps(15):
        def poly(z):
            x = (z - cen) / sc
            acc = mpmath.mpc(0)
            for c in reversed(cs):
                acc = acc * x + c
            return acc

        def inner(t):
            e = mpmath.expj(t)
            g = lambda r: abs(1 / (mpmath.sqrt(r) * mpmath.expj(t / 2)) - poly(r * e)) ** 2 * r  # noqa: E731
            return mpmath.quad(g, [min(1, _arc_exit(alpha, t)), 1])

        return float(mpmath.quad(inner, [-omega, 0, omega]))


# ---- certificates ---------------------------------------------------------


def poisson_margins(p, samples):
    """Closed-form sandwich margins of U(z) = r^p cos(p(theta - pi/2)) / cos(p pi/2).

    U is the harmonic extension of |t|^p to the upper half plane. The
    margins are min U / (|z|^p / 4) and min C_p |z|^p / U with
    C_p = 2 / cos(p pi / 2).
    """
    lo, hi = math.inf, math.inf
    cp = math.cos(p * math.pi / 2)
    for x, y in samples:
        th = math.atan2(y, abs(x))
        ratio = math.cos(p * (th - math.pi / 2)) / cp
        lo = min(lo, 4.0 * ratio)
        hi = min(hi, 2.0 / cp / ratio)
    return lo, hi


def poisson_closed_form(p, x, y):
    r, th = math.hypot(x, y), math.atan2(y, x)
    return r ** p * math.cos(p * (th - math.pi / 2)) / math.cos(p * math.pi / 2)


def poisson_quadrature(p, x, y):
    """(1/pi) int |x + y tau|^p / (1 + tau^2) dtau by mpmath, for cross-checks.

    With tau = tan(t) this is (1/pi) int_{-pi/2}^{pi/2} |x + y tan t|^p dt.
    Each side of the kink tan t = -x/y is written in s = distance to its
    end, tan t = +-cot s, and s = w^m with m = 1/(1 - p) makes the s^-p
    endpoint singularity smooth.
    """
    with mpmath.workdps(DPS):
        h = mpmath.pi / 2
        kink = mpmath.atan(-mpmath.mpf(x) / y)
        m = 1 / (1 - mpmath.mpf(p))
        total = mpmath.mpf(0)
        for sign, end in ((1, h - kink), (-1, h + kink)):
            g = lambda w, sign=sign: abs(x + sign * y * mpmath.cot(w ** m)) ** p * m * w ** (m - 1)  # noqa: E731
            total += mpmath.quad(g, [0, end ** (1 / m)])
        return float(total / mpmath.pi)


def nondensity_check(p, M, Y, eps0_sq):
    """Recompute the certificate's constants in mpmath from its definition.

    C_p = 2 / cos(p pi/2), C_1 = log M + 1 - log(pi)/2,
    gap(r) = r/4 - log(1 + 4 exp(C_1 + C_p r^p)) and
    epsilon0^2 = min(1, (pi/3) exp(2 C_1 + 2 C_p Y^p - 2 Y)).
    Returns (gap_at_Y_positive, gap_below_Y_nonpositive, rel_err_eps0_sq).
    """
    with mpmath.workdps(40):
        pm, Ym = mpmath.mpf(p), mpmath.mpf(Y)
        cp = 2 / mpmath.cos(pm * mpmath.pi / 2)
        c1 = mpmath.log(M) + 1 - mpmath.log(mpmath.pi) / 2

        def gap(r):
            return r / 4 - mpmath.log(1 + 4 * mpmath.exp(c1 + cp * r ** pm))

        eps = min(mpmath.mpf(1), mpmath.pi / 3 * mpmath.exp(2 * c1 + 2 * cp * Ym ** pm - 2 * Ym))
        rel = float(abs(eps0_sq - eps) / eps)
        return bool(gap(Ym) > 0), bool(gap(Ym * (1 - mpmath.mpf("1e-9"))) <= 0), rel


def gamma_tail(p, R):
    """2 pi / p * Gamma(2/p, R^p): the mass of e^-|z|^p outside radius R."""
    with mpmath.workdps(DPS):
        return float(2 * mpmath.pi / p * mpmath.gammainc(2 / mpmath.mpf(p), mpmath.mpf(R) ** p))


def cos_half_truncated_norm(p, R):
    """int over |z| < R of |cos(z/2)|^2 e^-(|Im z| + |z|^p) dA by 2-D mpmath.

    |cos(z/2)|^2 = (cosh y + cos x) / 2; the integrand is even in x and y,
    so one quadrant is integrated in polar coordinates and multiplied by 4.
    """
    pw = mpmath.mpf(p)
    with mpmath.workdps(12):
        def inner(t):
            c, s = mpmath.cos(t), mpmath.sin(t)

            def g(u):
                # r = u^(1/p): the r^p kink at 0 becomes smooth in u
                r = u ** (1 / pw)
                x, y = r * c, r * s
                return (mpmath.cosh(y) + mpmath.cos(x)) / 2 * mpmath.exp(-y - u) * r * r / (pw * u)

            return mpmath.quad(g, mpmath.linspace(0, mpmath.mpf(R) ** pw, 7))

        return float(4 * mpmath.quad(inner, [0, mpmath.pi / 4, mpmath.pi / 2]))
