"""Independent oracles the tests check the package against.

Everything here is built from scratch on truncated Fock matrices or
explicit Gaussian linear algebra and deliberately shares no code with
the package: displacement operators come from dense matrix
exponentials, two-mode squeezing from the exponential of the quadratic
generator, Bell conditioning from an analytic two-dimensional Gaussian
integral. Slow and simple on purpose.
"""

import math

import mpmath
import numpy as np
from scipy.linalg import expm
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import expm_multiply

DIM = 41


def destroy(dim=DIM):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def displacement(alpha, dim=DIM):
    a = destroy(dim)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def fock(n, dim=DIM):
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return vec


def coherent(gamma, dim=DIM):
    if gamma == 0:
        return fock(0, dim)
    ns = np.arange(dim)
    log_fact = np.cumsum(np.log(np.maximum(ns, 1)))
    return np.exp(-abs(gamma) ** 2 / 2 + ns * np.log(complex(gamma))
                  - log_fact / 2)


def squeeze_two_mode(zeta, core, dim=DIM):
    """S12(zeta) core with S12 = exp(-zeta a1+a2+ + conj(zeta) a1 a2)."""
    a = diags(np.sqrt(np.arange(1.0, dim)), 1, format="csc")
    eye = identity(dim, format="csc")
    a1 = kron(a, eye, format="csc")
    a2 = kron(eye, a, format="csc")
    gen = (-zeta * (a1.conj().T @ a2.conj().T)
           + np.conj(zeta) * (a1 @ a2))
    return expm_multiply(gen, core)


def normalized(vec):
    return vec / math.sqrt(float(np.real(np.vdot(vec, vec))))


def bell_core(delta, theta, dim=DIM):
    return (math.cos(delta) * np.kron(fock(0, dim), fock(0, dim))
            + np.exp(1j * theta) * math.sin(delta)
            * np.kron(fock(1, dim), fock(1, dim)))


def cat_core(delta, theta, gamma, dim=DIM):
    raw = (math.cos(delta) * np.kron(fock(0, dim), fock(0, dim))
           + np.exp(1j * theta) * math.sin(delta)
           * np.kron(coherent(gamma, dim), coherent(gamma, dim)))
    return normalized(raw)


def donkey_core(delta, theta, dim=DIM):
    return (math.cos(delta) * np.kron(fock(0, dim), fock(1, dim))
            + np.exp(1j * theta) * math.sin(delta)
            * np.kron(fock(1, dim), fock(0, dim)))


def photon_subtract_both(psi, dim=DIM):
    a = destroy(dim)
    mat = a @ psi.reshape(dim, dim) @ a.T
    return normalized(mat.reshape(-1))


def chi_two_mode(psi, alpha1, alpha2, dim=DIM):
    """<psi| D1(alpha1) D2(alpha2) |psi> on the truncated basis."""
    mat = psi.reshape(dim, dim)
    moved = displacement(alpha1, dim) @ mat @ displacement(alpha2, dim).T
    return complex(np.sum(np.conj(mat) * moved))


def chi_single_mode(psi, alpha, dim=DIM):
    return complex(np.conj(psi) @ (displacement(alpha, dim) @ psi))


# Gaussian route for the Bell measurement: the twin-beam resource and
# the coherent input make the conditioning integral an explicit
# two-dimensional Gaussian integral in the unmeasured quadratures.

def twin_beam_cov(r):
    """Covariance of (x1,p1,x2,p2) for S12(r e^{i pi})|00>; vacuum
    quadrature variance is 1/2 here."""
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    v = 0.5 * np.array([
        [ch, 0.0, -sh, 0.0],
        [0.0, ch, 0.0, sh],
        [-sh, 0.0, ch, 0.0],
        [0.0, sh, 0.0, ch],
    ])
    return v


def _bell_gaussian_pieces(beta, r, transmissivity, r2, x_tilde, p_tilde,
                          x2, p2):
    t = transmissivity
    v = twin_beam_cov(r)
    a_block = v[:2, :2]
    c_block = v[:2, 2:]
    b_block = v[2:, 2:]
    scale = np.diag([t / math.sqrt(2.0), -t / math.sqrt(2.0)])
    m = (scale.T @ a_block @ scale
         + (t * t / 4.0 + r2 / 2.0) * np.eye(2))
    k2 = np.array([x2, p2])
    j = (-scale.T @ c_block @ k2).astype(complex)
    j += 1j * np.array([p_tilde - t * beta.imag,
                        -x_tilde + t * beta.real])
    c0 = -0.5 * k2 @ b_block @ k2
    return m, j, c0


def bell_outcome_density(beta, r, transmissivity, r2, x_tilde, p_tilde):
    m, j, c0 = _bell_gaussian_pieces(beta, r, transmissivity, r2,
                                     x_tilde, p_tilde, 0.0, 0.0)
    val = (np.exp(0.5 * j @ np.linalg.solve(m, j) + c0)
           / (2 * math.pi * math.sqrt(np.linalg.det(m))))
    return float(val.real)


def bell_conditional_chi(beta, r, transmissivity, r2, x_tilde, p_tilde,
                         x2, p2):
    m, j, c0 = _bell_gaussian_pieces(beta, r, transmissivity, r2,
                                     x_tilde, p_tilde, x2, p2)
    m0, j0, _ = _bell_gaussian_pieces(beta, r, transmissivity, r2,
                                      x_tilde, p_tilde, 0.0, 0.0)
    return complex(np.exp(0.5 * j @ np.linalg.solve(m, j) + c0
                          - 0.5 * j0 @ np.linalg.solve(m0, j0)))


def bell_conditional_chi_mp(beta, r, transmissivity, r2, x_tilde, p_tilde,
                            x2, p2, dps=400):
    """bell_conditional_chi's Gaussian integral in mpmath at dps digits.
    Its exponent's terms grow like cosh 2r and cancel, so in doubles it
    drifts from r ~ 12 and overflows from r ~ 30; 400 digits hold to
    r = 200."""
    mp = mpmath
    with mp.workdps(dps):
        t = mp.mpf(transmissivity)
        ch, sh = mp.cosh(2 * mp.mpf(r)) / 2, mp.sinh(2 * mp.mpf(r)) / 2
        scale = mp.diag([t / mp.sqrt(2), -t / mp.sqrt(2)])
        m = scale.T * (ch * mp.eye(2)) * scale + (t * t / 4 + r2 / 2) * mp.eye(2)
        wave = mp.matrix([1j * (p_tilde - t * beta.imag),
                          1j * (-x_tilde + t * beta.real)])

        def exponent(k2):
            j = -scale.T * mp.diag([-sh, sh]) * k2 + wave
            return (j.T * mp.lu_solve(m, j))[0] / 2 - ch * (k2.T * k2)[0] / 2

        return complex(mp.exp(exponent(mp.matrix([x2, p2]))
                              - exponent(mp.matrix([0, 0]))))
