"""The torus field as a test oracle: the profiles of h_t = lam(x) nu(y - t) for a TorusSystem ``s``,
and the field whose float operations the package's RK4 kernels must repeat in order, bit for bit."""

import numpy as np

from novtorsion.torus import NU_A1, NU_A2, TWO_PI, _field_constants


def lam(s, x):
    return 1.0 + s.bf * np.cos(TWO_PI * x)


def dlam(s, x):
    return -TWO_PI * s.bf * np.sin(TWO_PI * x)


def d2lam(s, x):
    return -(TWO_PI**2) * s.bf * np.cos(TWO_PI * x)


def nu(s, y):
    return 1.0 + NU_A1 * (np.cos(TWO_PI * y) - 1.0) + NU_A2 * (np.cos(2 * TWO_PI * y) - 1.0)


def dnu(s, y):
    return -TWO_PI * NU_A1 * np.sin(TWO_PI * y) - 2 * TWO_PI * NU_A2 * np.sin(2 * TWO_PI * y)


def d2nu(s, y):
    return -(TWO_PI**2) * NU_A1 * np.cos(TWO_PI * y) - (2 * TWO_PI) ** 2 * NU_A2 * np.cos(2 * TWO_PI * y)


def hamiltonian(s, x, y, t):
    return lam(s, x) * nu(s, y - t)


def first_integral(s, X, Y):
    """K(X, Y) = lam(X) nu(Y) + X in the co-moving coordinates (X, Y) = (x, y - t), where the flow is
    autonomous and Hamiltonian for K: X' = K_Y = lam nu', Y' = -K_X = -lam' nu - 1."""
    return lam(s, X) * nu(s, Y) + X


def flow_field(bf: float, cos, sin):
    """Derivatives of (x, y, m11, m12, m21, m22) under the flow and M' = A M, on floats or numpy
    rows: one cos/sin pair of 2 pi x and one of 2 pi (y - t) feed every profile derivative, and
    nu's second harmonic comes from the double-angle formulas."""
    lam1n, lam2, nu1n, nu2, nu1dn, nu2d = _field_constants(bf)

    def rhs(t, x, y, m11, m12, m21, m22):
        u = TWO_PI * x
        cx, sx = cos(u), sin(u)
        s = TWO_PI * (y - t)
        c1, s1 = cos(s), sin(s)
        c2, s2 = 2.0 * c1 * c1 - 1.0, 2.0 * s1 * c1
        lam, dlam = 1.0 + bf * cx, lam1n * sx
        nu = 1.0 + NU_A1 * (c1 - 1.0) + NU_A2 * (c2 - 1.0)
        dnu, d2nu = nu1n * s1 - nu2 * s2, nu1dn * c1 - nu2d * c2
        a11, a12, a21 = dlam * dnu, lam * d2nu, lam2 * cx * nu
        return (
            lam * dnu, -dlam * nu,
            a11 * m11 + a12 * m21, a11 * m12 + a12 * m22,
            a21 * m11 - a11 * m21, a21 * m12 - a11 * m22,
        )

    return rhs


def vector_field(s, x, y, t):
    """Hamiltonian vector field (dh/dy, -dh/dx) of h = lam(x) nu(y - t)."""
    return flow_field(s.bf, np.cos, np.sin)(t, x, y, 1.0, 0.0, 0.0, 1.0)[:2]
