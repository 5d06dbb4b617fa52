"""Independent reference computations for the test suite.

Everything here deliberately avoids the package's own numerics: closed forms,
loop-and-scalar stencil application, and brute-force finite differences, so
each production routine is checked against a second route that cannot share
its bugs.
"""

import math

import numpy as np


def gaussian_line_integral(A, x_o, alpha1, t_s, beta1, *, a1, c0, t, t0, x_lo, x_hi):
    """Closed form (erf) of the retarded line integral of a space-time Gaussian.

    Integrand: A * exp(-alpha1*(x - x_o)^2 - beta1*(t_ret - t_s)^2) with
    t_ret = t - (x - a1)/c0, integrated over [x_lo, x_hi] clipped to the
    causal interval [a1, a1 + c0*(t - t0)].
    """
    lo = max(a1, x_lo)
    hi = min(x_hi, a1 + c0 * (t - t0))
    if hi <= lo:
        return 0.0
    B = beta1 / c0**2
    v = c0 * (t - t_s) + a1  # where the retarded time equals t_s
    S = alpha1 + B
    mu = (alpha1 * x_o + B * v) / S
    cross = alpha1 * B / S * (x_o - v) ** 2
    amp = A * math.exp(-cross) * 0.5 * math.sqrt(math.pi / S)
    rt = math.sqrt(S)
    return amp * _erf_difference(rt * (lo - mu), rt * (hi - mu))


def _erf_difference(x, y):
    """erf(y) - erf(x) without cancellation when both sit in one far tail.

    erf saturates to +-1, so the plain difference of two same-sign tail
    values loses all relative precision; erfc keeps the tail magnitudes
    exactly representable and their difference well conditioned.
    """
    if x > 1.0 and y > 1.0:
        return math.erfc(x) - math.erfc(y)
    if x < -1.0 and y < -1.0:
        return math.erfc(-y) - math.erfc(-x)
    return math.erf(y) - math.erf(x)


def slab_reflection_traces(f, t, *, length, mu1, nu1, mu0, nu0):
    """Boundary traces ``(phi_a0, psi_a0, phi_a1, psi_a1)`` at time ``t`` of
    the two-potential model on a slab with no response (alpha = beta =
    gamma = 0, so the current stays zero), as a multiple-reflection series.

    ``f(s)`` is the incident ``phi`` trace at the right boundary, zero for
    ``s <= 0`` (for a Gaussian source, :func:`gaussian_line_integral` over
    ``2*c0``).  With impedances Z = sqrt(mu/nu), R = (Z1 - Z0)/(Z1 + Z0),
    r = -R, Tr = 2*Z1/(Z1 + Z0) and transit time T1 = length/c1:

        phi(a1) = (1 + R) f(t) + sum_{k>=1} (1 + r) r^(2k-1) Tr f(t - 2k T1)
        psi(a1) = ((1 - R) f(t) - sum_{k>=1} (same terms)) / Z0
        phi(a0) = sum_{k>=0} (1 + r) r^(2k) Tr f(t - (2k+1) T1)
        psi(a0) = phi(a0) / Z0
    """
    z1, z0 = math.sqrt(mu1 / nu1), math.sqrt(mu0 / nu0)
    big_r = (z1 - z0) / (z1 + z0)
    r, tr, t1 = -big_r, 2.0 * z1 / (z1 + z0), length / math.sqrt(mu1 * nu1)
    back = 0.0  # what has crossed back out at a1
    k = 1
    while t - 2 * k * t1 > 0.0:
        back += (1.0 + r) * r ** (2 * k - 1) * tr * f(t - 2 * k * t1)
        k += 1
    out = 0.0  # what has crossed out at a0
    k = 0
    while t - (2 * k + 1) * t1 > 0.0:
        out += (1.0 + r) * r ** (2 * k) * tr * f(t - (2 * k + 1) * t1)
        k += 1
    here = f(t) if t > 0.0 else 0.0
    return (out, out / z0, (1.0 + big_r) * here + back,
            ((1.0 - big_r) * here - back) / z0)


def model1_left_trace(right, dt, *, length, c1, alpha, gamma):
    """Model 1's left trace at beta = 0, at the times of ``right``, its right
    trace sampled every ``dt`` from a quiet start.

    At beta = 0 the slab is linear and time invariant: phi_t = c1*phi_x + j
    and j_t = alpha*phi - gamma*j give phi_hat(a0) = H(s)*phi_hat(a1) with
    H(s) = exp(-p(s)*length/c1) and p(s) = s - alpha/(s + gamma).  H is
    applied by a damped FFT: the samples, zero padded to m = 8 times their
    count, are weighted by exp(-sigma*t) with sigma = 20/(m*dt), so what the
    periodic transform wraps around is damped by exp(-20).
    """
    right = np.asarray(right, dtype=float)
    k, m = right.size, 8 * right.size
    sigma = 20.0 / (m * dt)
    ramp = np.exp(sigma * dt * np.arange(k))
    s = sigma + 2j * np.pi * np.fft.rfftfreq(m, dt)
    h = np.exp(-(s - alpha / (s + gamma)) * (length / c1))
    return np.fft.irfft(np.fft.rfft(right / ramp, m) * h, m)[:k] * ramp


def model2_traces(incident_phi, dt, *, length, mu1, nu1, mu0, nu0, alpha, gamma):
    """Model 2's boundary traces ``(phi_a0, psi_a0, phi_a1, psi_a1)`` at
    beta = 0, at the times of ``incident_phi``, the incident ``phi`` trace
    at a1 sampled every ``dt`` from a quiet start.

    At beta = 0 the slab is linear and time invariant.  With p(s) = s -
    alpha/(s + gamma), k = (s/c1)*sqrt(p/s), Y1 = nu1*k/s, Y0 = nu0/c0, E =
    exp(-2*k*length) and D = Y0*(1 + E) + (Y0**2/Y1 + Y1)*(1 - E)/2, per
    unit incident phi: phi_a0 = 2*Y0*exp(-k*length)/D, psi_a0 = Y0*phi_a0,
    phi_a1 = 2*Y0*((1 + E)/2 + Y0*(1 - E)/(2*Y1))/D and psi_a1 =
    2*Y0*(Y1*(1 - E)/2 + Y0*(1 + E)/2)/D.  Each is applied by the damped
    FFT of :func:`model1_left_trace`.
    """
    f = np.asarray(incident_phi, dtype=float)
    n, m = f.size, 8 * f.size
    sigma = 20.0 / (m * dt)
    ramp = np.exp(sigma * dt * np.arange(n))
    s = sigma + 2j * np.pi * np.fft.rfftfreq(m, dt)
    c1, c0 = math.sqrt(mu1 * nu1), math.sqrt(mu0 * nu0)
    k = (s / c1) * np.sqrt((s - alpha / (s + gamma)) / s)
    y1, y0 = nu1 * k / s, nu0 / c0
    e = np.exp(-2.0 * k * length)
    d = y0 * (1.0 + e) + (y0 * y0 / y1 + y1) * (1.0 - e) / 2.0
    phi_a0 = 2.0 * y0 * np.exp(-k * length) / d
    gains = (phi_a0, y0 * phi_a0,
             2.0 * y0 * ((1.0 + e) / 2.0 + y0 * (1.0 - e) / (2.0 * y1)) / d,
             2.0 * y0 * (y1 * (1.0 - e) / 2.0 + y0 * (1.0 + e) / 2.0) / d)
    spectrum = np.fft.rfft(f / ramp, m)
    return tuple(np.fft.irfft(spectrum * h, m)[:n] * ramp for h in gains)


def model2_face_systems(mat):
    """Model 2's boundary update rules as the paper states them: the left
    system, the right system, and the interior mixes ``mix_out`` (left side)
    and ``mix_back`` (right side) of the delayed data, as 2x2 arrays built
    from the material's coefficients alone.  The new left pair ``u`` solves
    ``left @ u = mix_out @ x``, the new right pair ``right @ u = mix_back @
    x + 2*c0*incident``."""
    mu1, nu1, mu0, nu0 = mat.mu1, mat.nu1, mat.mu0, mat.nu0
    c1, c0 = math.sqrt(mu1 * nu1), math.sqrt(mu0 * nu0)
    left = np.array([[c1 + c0, mu1 - mu0], [nu1 - nu0, c1 + c0]])
    right = np.array([[c1 + c0, mu0 - mu1], [nu0 - nu1, c1 + c0]])
    mix_out = np.array([[c1, mu1], [nu1, c1]])
    mix_back = np.array([[c1, -mu1], [-nu1, c1]])
    return left, right, mix_out, mix_back


# -- finite-difference derivative probes ------------------------------------

def fd_dx(f, x, t, h=1e-5):
    return (f(x + h, t) - f(x - h, t)) / (2.0 * h)


def fd_dt(f, x, t, h=1e-5):
    return (f(x, t + h) - f(x, t - h)) / (2.0 * h)


def fd_dxx(f, x, t, h=1e-4):
    return (f(x + h, t) - 2.0 * f(x, t) + f(x - h, t)) / h**2


def fd_dtt(f, x, t, h=1e-4):
    return (f(x, t + h) - 2.0 * f(x, t) + f(x, t - h)) / h**2


def fd_dxt(f, x, t, h=1e-4):
    return (
        f(x + h, t + h) - f(x + h, t - h) - f(x - h, t + h) + f(x - h, t - h)
    ) / (4.0 * h**2)


# -- loop-and-scalar stencil application (midpoint-gap layout only) ----------

def dense_d1_closed(u, ua0, ua1, dx):
    n = len(u)
    out = np.zeros(n)
    for i in range(1, n - 1):
        out[i] = (u[i + 1] - u[i - 1]) / (2.0 * dx)
    out[0] = -(4.0 * ua0 - 3.0 * u[0] - u[1]) / (3.0 * dx)
    out[-1] = (4.0 * ua1 - 3.0 * u[-1] - u[-2]) / (3.0 * dx)
    return out


def dense_d2_closed(u, ua0, ua1, dx):
    n = len(u)
    out = np.zeros(n)
    for i in range(1, n - 1):
        out[i] = (u[i + 1] - 2.0 * u[i] + u[i - 1]) / dx**2
    out[0] = 4.0 * (2.0 * ua0 - 3.0 * u[0] + u[1]) / (3.0 * dx**2)
    out[-1] = 4.0 * (2.0 * ua1 - 3.0 * u[-1] + u[-2]) / (3.0 * dx**2)
    return out


def dense_d1_confined(u, dx):
    n = len(u)
    out = np.zeros(n)
    for i in range(1, n - 1):
        out[i] = (u[i + 1] - u[i - 1]) / (2.0 * dx)
    out[0] = (4.0 * u[1] - 3.0 * u[0] - u[2]) / (2.0 * dx)
    out[-1] = -(4.0 * u[-2] - 3.0 * u[-1] - u[-3]) / (2.0 * dx)
    return out


def reference_step_m1(phi, rho, j, ua0, ua1, c1, alpha, beta, gamma, dx, dt,
                      terms=None, terms_next=None):
    """One step of the one-way model, written longhand.

    ``terms`` holds the residual terms at level n by name (``phi``,
    ``phi_dx``, ``phi_dt``, ``rho``, ``rho_dt``, ``j``, ``j_dx``) and
    ``terms_next`` the current's term ``j`` at level n + 1; left out, the
    step is homogeneous.
    """
    r, r1 = terms or {}, terms_next or {}  # a missing term is zero
    s_phi, s_phi_dx, s_phi_dt = r.get("phi", 0.0), r.get("phi_dx", 0.0), r.get("phi_dt", 0.0)
    s_rho, s_rho_dt = r.get("rho", 0.0), r.get("rho_dt", 0.0)
    s_j, s_j_dx, s_j_next = r.get("j", 0.0), r.get("j_dx", 0.0), r1.get("j", 0.0)
    f = (alpha - beta * rho) * phi - gamma * j
    dphi = dense_d1_closed(phi, ua0, ua1, dx)
    d2phi = dense_d2_closed(phi, ua0, ua1, dx)
    dj = dense_d1_confined(j, dx)
    df = dense_d1_confined(f, dx)
    # phi_t = c1*phi_x + j + s_phi, so
    # phi_tt = c1**2*phi_xx + c1*(j_x + s_phi_x) + j_t + s_phi_t
    phi_n = (phi + dt * (c1 * dphi + j + s_phi)
             + 0.5 * dt**2 * (c1**2 * d2phi + c1 * dj + c1 * s_phi_dx
                              + f + s_j + s_phi_dt))
    # rho_t = -j_x + s_rho, so rho_tt = -(f + s_j)_x + s_rho_t
    rho_n = rho + dt * (-dj + s_rho) + 0.5 * dt**2 * (-df - s_j_dx + s_rho_dt)
    jbar = j + dt * (f + s_j)
    f_new = (alpha - beta * rho_n) * phi_n - gamma * jbar + s_j_next
    j_n = 0.5 * (j + jbar + dt * f_new)
    return phi_n, rho_n, j_n


def reference_step_m2(phi, psi, rho, j, pa0, pa1, sa0, sa1, mu1, nu1,
                      alpha, beta, gamma, dx, dt, terms=None, terms_next=None):
    """One step of the two-way model, written longhand.

    pa0/pa1 are the phi boundary values, sa0/sa1 the psi boundary values.
    ``terms`` and ``terms_next`` are as for :func:`reference_step_m1`, with
    the ``psi`` equation's ``psi``, ``psi_dx`` and ``psi_dt`` added.
    """
    r, r1 = terms or {}, terms_next or {}  # a missing term is zero
    s_phi, s_phi_dx, s_phi_dt = r.get("phi", 0.0), r.get("phi_dx", 0.0), r.get("phi_dt", 0.0)
    s_psi, s_psi_dx, s_psi_dt = r.get("psi", 0.0), r.get("psi_dx", 0.0), r.get("psi_dt", 0.0)
    s_rho, s_rho_dt = r.get("rho", 0.0), r.get("rho_dt", 0.0)
    s_j, s_j_dx, s_j_next = r.get("j", 0.0), r.get("j_dx", 0.0), r1.get("j", 0.0)
    f = (alpha - beta * rho) * phi - gamma * j
    dphi = dense_d1_closed(phi, pa0, pa1, dx)
    d2phi = dense_d2_closed(phi, pa0, pa1, dx)
    dpsi = dense_d1_closed(psi, sa0, sa1, dx)
    d2psi = dense_d2_closed(psi, sa0, sa1, dx)
    dj = dense_d1_confined(j, dx)
    df = dense_d1_confined(f, dx)
    # phi_t = mu1*psi_x + j + s_phi and psi_t = nu1*phi_x + s_psi, so
    # phi_tt = mu1*(nu1*phi_xx + s_psi_x) + j_t + s_phi_t and
    # psi_tt = nu1*(mu1*psi_xx + j_x + s_phi_x) + s_psi_t
    phi_n = (phi + dt * (mu1 * dpsi + j + s_phi)
             + 0.5 * dt**2 * (mu1 * nu1 * d2phi + mu1 * s_psi_dx + f + s_j
                              + s_phi_dt))
    psi_n = (psi + dt * (nu1 * dphi + s_psi)
             + 0.5 * dt**2 * (mu1 * nu1 * d2psi + nu1 * dj + nu1 * s_phi_dx
                              + s_psi_dt))
    rho_n = rho + dt * (-dj + s_rho) + 0.5 * dt**2 * (-df - s_j_dx + s_rho_dt)
    jbar = j + dt * (f + s_j)
    f_new = (alpha - beta * rho_n) * phi_n - gamma * jbar + s_j_next
    j_n = 0.5 * (j + jbar + dt * f_new)
    return phi_n, psi_n, rho_n, j_n


def fd4_dx(f, x, t, h=1e-4):
    """Fourth-order central x-derivative (roundoff plateau ~1e-12 for O(1) f)."""
    return (
        f(x - 2 * h, t) - 8.0 * f(x - h, t) + 8.0 * f(x + h, t) - f(x + 2 * h, t)
    ) / (12.0 * h)


def fd4_dt(f, x, t, h=1e-4):
    return (
        f(x, t - 2 * h) - 8.0 * f(x, t - h) + 8.0 * f(x, t + h) - f(x, t + 2 * h)
    ) / (12.0 * h)


def pulse_derivatives_longhand(p, x, t):
    """``(value, dx, dt, dxx, dxt, dtt)`` of an ``ArctanGaussianPulse`` with
    every derivative expanded on its own by the product rule."""
    k = 2.0 * p.amplitude / math.pi
    b2 = p.ramp_rate**2
    ramp = k * np.arctan(b2 * t**2)
    ramp_t = k * 2.0 * b2 * t / (1.0 + b2**2 * t**4)
    ramp_tt = k * (2.0 * b2 * (1.0 + b2**2 * t**4) - 8.0 * b2**3 * t**4) \
        / (1.0 + b2**2 * t**4) ** 2
    u = x - p.center + p.drift * (t - p.t_shift)
    env = np.exp(-p.rate * u**2)
    env_u = -2.0 * p.rate * u * env
    env_uu = (4.0 * p.rate**2 * u**2 - 2.0 * p.rate) * env
    return (
        ramp * env,
        ramp * env_u,
        ramp_t * env + ramp * p.drift * env_u,
        ramp * env_uu,
        ramp_t * env_u + ramp * p.drift * env_uu,
        ramp_tt * env + 2.0 * ramp_t * p.drift * env_u + ramp * p.drift**2 * env_uu,
    )


def bump_derivatives_longhand(b, x, t):
    """``(value, dx, dt, dxx, dxt, dtt)`` of a ``GaussianBump``, each written
    out on its own."""
    ex = np.exp(-(((x - b.x_center) / b.x_width) ** 2))
    et = np.exp(-(((t - b.t_center) / b.t_width) ** 2))
    gx = -2.0 * (x - b.x_center) / b.x_width**2
    gt = -2.0 * (t - b.t_center) / b.t_width**2
    v = b.amplitude * ex * et
    return (
        v,
        gx * v,
        gt * v,
        (gx**2 - 2.0 / b.x_width**2) * v,
        gx * gt * v,
        (gt**2 - 2.0 / b.t_width**2) * v,
    )


# -- manufactured residual terms and step increments, written longhand -------

def _jet_longhand(f, x, t):
    """The longhand jet of a pulse (it has a ``ramp_rate``) or of a bump."""
    if hasattr(f, "ramp_rate"):
        return pulse_derivatives_longhand(f, x, t)
    return bump_derivatives_longhand(f, x, t)


def residual_terms_longhand(fields, mat, x, t):
    """The ten named residual terms of the manufactured ``fields`` on the
    material ``mat`` (model 2 when it has ``mu1``) at ``(x, t)``, from the
    longhand jets.

    With ``resp = alpha - beta*rho``, model 1 solves ``phi_t = c1*phi_x + j``
    and model 2 ``phi_t = mu1*psi_x + j``, ``psi_t = nu1*phi_x``; both
    ``rho_t = -j_x`` and ``j_t = resp*phi - gamma*j``.  The terms are what
    the fields leave over in each equation, ``phi``, ``psi``, ``rho`` and
    ``j``, with the derivatives a second-order step reads: ``phi_dx``,
    ``phi_dt`` (and ``psi_dx``, ``psi_dt``), ``rho_dt`` and ``j_dx``.
    """
    v, dx, dt, dxx, dxt, dtt = range(6)
    two = hasattr(mat, "mu1")
    phi, rho, j = (_jet_longhand(getattr(fields, k), x, t) for k in ("phi", "rho", "j"))
    partner, speed = (_jet_longhand(fields.psi, x, t), mat.mu1) if two else (phi, mat.c1)
    resp = mat.alpha - mat.beta * rho[v]
    terms = {
        "phi": phi[dt] - speed * partner[dx] - j[v],
        "phi_dx": phi[dxt] - speed * partner[dxx] - j[dx],
        "phi_dt": phi[dtt] - speed * partner[dxt] - j[dt],
        "rho": rho[dt] + j[dx],
        "rho_dt": rho[dtt] + j[dxt],
        "j": j[dt] - resp * phi[v] + mat.gamma * j[v],
        "j_dx": (j[dxt] - resp * phi[dx] + mat.beta * rho[dx] * phi[v]
                 + mat.gamma * j[dx]),
    }
    if two:
        psi = partner
        terms["psi"] = psi[dt] - mat.nu1 * phi[dx]
        terms["psi_dx"] = psi[dxt] - mat.nu1 * phi[dxx]
        terms["psi_dt"] = psi[dtt] - mat.nu1 * phi[dxt]
    return terms


def step_increments_longhand(terms, mat, dt):
    """What a step of ``dt`` adds to each field, by name, from the named
    ``terms`` of :func:`residual_terms_longhand` at its level, as
    :func:`reference_step_m1` and :func:`reference_step_m2` add them.

    ``phi`` (and ``psi``) and ``rho`` get ``dt*s + dt**2/2*(...)``, the
    Taylor step's source part; ``j`` is ``dt/2`` times the current's term,
    which the Heun corrector adds at each of a step's two levels; ``s_phi``
    (and ``s_psi``) are the potentials' terms themselves.
    """
    r, h2 = terms, 0.5 * dt**2
    if "psi" in r:
        inc = {"phi": dt * r["phi"] + h2 * (mat.mu1 * r["psi_dx"] + r["j"] + r["phi_dt"]),
               "psi": dt * r["psi"] + h2 * (mat.nu1 * r["phi_dx"] + r["psi_dt"]),
               "s_psi": r["psi"]}
    else:
        inc = {"phi": dt * r["phi"] + h2 * (mat.c1 * r["phi_dx"] + r["j"] + r["phi_dt"])}
    inc["s_phi"] = r["phi"]
    inc["rho"] = dt * r["rho"] + h2 * (r["rho_dt"] - r["j_dx"])
    inc["j"] = 0.5 * dt * r["j"]
    return inc
