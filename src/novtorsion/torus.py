"""Periodic orbits and torsion for a time-periodic Hamiltonian flow on T^2.

The Hamiltonian is h_t(x, y) = lam(x) * nu(y - t) with profiles

    lam(x) = 1 + b*cos(2 pi x),
    nu(y)  = 1 + a1*(cos(2 pi y) - 1) + a2*(cos(4 pi y) - 1),

where a1 = 3/10 and a2 is chosen so that nu(0) = 1, nu'(0) = 0 and
nu''(0) = -1.  The profile has exactly two critical points: the maximum
at y = 0 and a minimum nu(1/2) = 2/5.  The minimum must stay below
1/(2 pi b): any critical level y* of nu with |nu(y*)| >= 1/(2 pi b) would
carry its own family of period-1 solutions along the lines y = t + y*
(a single-harmonic profile with minimum 1 - 1/(2 pi^2) fails this for
every admissible b, which is why the second harmonic is there).

The flow of the Hamiltonian vector field

    x' = lam(x) nu'(y - t),   y' = -lam'(x) nu(y - t)

is integrated with a fixed-step fourth-order scheme.  For amplitudes b
with 1/(2 pi) < b < 1/(pi sqrt 2) the time-1 map then has exactly two
fixed points of vertical winding one, sitting at the two roots of
lam'(x) = -1; they are located by Newton iteration seeded on a grid,
their linearized return maps are integrated alongside, and the resulting
two-generator complex over the rank-one lattice (phi = 1, chern = 0) is
assembled and fed to the torsion machinery.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

from .complexes import BasedComplex, DegenerateEndpointError, OrbitSearchError, ProfileError, two_term_complex
from .lattice import Lattice, _index, _rational, _ReadOnly
from .series import DEFAULT_CUTOFF, NovikovElement
from .torsion import WhiteheadClass, milnor_torsion

TWO_PI = 2.0 * math.pi

#: Second profile coefficients: nu(0) = 1, nu'(0) = 0, nu''(0) = -1 with
#: the only other critical value nu(1/2) = 1 - 2*NU_A1 = 2/5.
NU_A1 = 0.3
NU_A2 = (1.0 - (TWO_PI**2) * NU_A1) / (4.0 * TWO_PI**2)

#: Conservative integration defaults: Newton tolerance on the torus,
#: non-degeneracy threshold on det(I - monodromy), fixed steps per period.
NEWTON_TOL = 1e-10
NONDEGENERACY_TOL = 1e-6
#: Newton's steps per period only say where an orbit is, an exact fixed
#: point of the RK4 map at any step count; refine checks it at REFINE_STEPS.
#: On 162 cases (27 amplitudes, grids 12x6 to 64x32) 128 steps refined to
#: the orbits of 256, to 9 digits; at 64 and 96 steps b = 2087/10000 on the
#: 12x6 grid loses its second orbit.
SEARCH_STEPS = 128
REFINE_STEPS = 2048
#: |det(M - I)| below which a path endpoint counts as having eigenvalue 1.
_DEGENERACY_TOL = 1e-9
#: About this many strides of the recorded path go into the index (129
#: samples at REFINE_STEPS); the path itself keeps every sample.
_INDEX_SAMPLES = 128

#: Newton iterations per search and the max-norm clamp on each step.
_MAX_NEWTON_ITER = 20
_NEWTON_CLAMP = 0.25

#: Torus distance below which two converged points are the same orbit.
_DEDUPE_RADIUS = 1e-5

#: Most seeds the scan hands to Newton, the first of its residual-ordered,
#: separated list.  Newton from up to 40 seeds finds the same distinct
#: orbits, bit for bit (a tier-1 test checks 30 amplitude and grid cases).
_MAX_SEEDS = 16

#: Steps per period of the grid scan, which only ranks seeds: an orbit is an
#: exact fixed point of the RK4 map at any step count (see _refine_orbit).
#: On 216 cases (27 amplitudes, grids 12x6 to 96x48) a scan at 6 steps gave
#: the orbits of a scan at 64 in 215, to 9 digits, and in the other found a
#: second orbit that one missed; every count from 4 to 12 but 6 lost an orbit
#: in 1 to 3 cases, all on the 16x8 grid.
_SCAN_STEPS = 6


class TorusSystem(_ReadOnly):
    """The amplitude ``b``, an exact rational, with ``bf``, its float."""

    _fields = ("b",)
    __slots__ = _fields + ("bf",)

    def __init__(self, b=Fraction(1, 5)):
        super().__init__(_rational(b))
        try:
            bf = float(self.b)
        except OverflowError:  # beyond the float range, which check() rejects
            bf = math.inf if self.b > 0 else -math.inf
        object.__setattr__(self, "bf", bf)

    def check(self) -> tuple[float, float]:
        """Verify that b is admissible and return the two equilibria.

        The admissible interval 1/(2 pi) < b < 1/(pi sqrt 2) is exactly the
        range where sin(2 pi x) = 1/(2 pi b) has two roots (both in
        (1/8, 3/8)) with 0 < |lam''| = 2 pi sqrt(4 pi^2 b^2 - 1) < 2 pi and
        0 < |lam| < 2 pi at each, and where nu's only critical level away
        from y = 0, nu(1/2) = 2/5, stays below 1/(2 pi b), so no line
        y = t + y* other than y = t carries period-1 solutions.
        """
        lo, hi = 1.0 / TWO_PI, math.sqrt(0.5) / math.pi
        if not lo < self.bf < hi:
            raise ProfileError(
                "amplitude b=%s outside (1/(2 pi), 1/(pi sqrt 2)) ~ (%.6f, %.6f)"
                % (self.b, lo, hi)
            )
        return reduced_equilibria(self)


def _field_constants(bf: float):
    """lam1n, lam2, nu1n, nu2, nu1dn, nu2d: the field's constants, those it negates stored negated
    (exactly, so -lam'' = lam2 cos(2 pi x) is the unfolded expression's value bit for bit)."""
    return (
        -(TWO_PI * bf), TWO_PI**2 * bf,
        -(TWO_PI * NU_A1), 2 * TWO_PI * NU_A2,
        -(TWO_PI**2 * NU_A1), (2 * TWO_PI) ** 2 * NU_A2,
    )


def _rk4_point(bf: float, state, steps: int, record: bool):
    """RK4 of one point on floats as one fused kernel, its four stages inline.

    The only integrator of the field: the grid scan, Newton, refine and
    monodromy all run it point by point.  Each stage evaluates the field on
    locals with A = [[p, q], [r, -p]]; the slopes are named by stage (a, b,
    c, d) and component, a stage's state X, Y, n11 to n22.  The constants
    and cos/sin are bound to locals once per call: calling the field once
    per stage, with its seven arguments and returned 6-tuple, cost about a
    quarter of the step.  Returns the list of the steps+1 states, ``state``
    first, when recording, else the last state as a 6-tuple of floats.
    """
    cos, sin, two_pi, a1, a2 = math.cos, math.sin, TWO_PI, NU_A1, NU_A2
    lam1n, lam2, nu1n, nu2, nu1dn, nu2d = _field_constants(bf)
    x, y, m11, m12, m21, m22 = state
    h = 1.0 / steps
    h2, h6 = h / 2, h / 6
    t = 0.0
    states = [state]
    for _ in range(steps):
        u = two_pi * x
        cu, su = cos(u), sin(u)
        s = two_pi * (y - t)
        c1, s1 = cos(s), sin(s)
        c2, s2 = 2.0 * c1 * c1 - 1.0, 2.0 * s1 * c1
        lam, dlam = 1.0 + bf * cu, lam1n * su
        nu = 1.0 + a1 * (c1 - 1.0) + a2 * (c2 - 1.0)
        dnu, d2nu = nu1n * s1 - nu2 * s2, nu1dn * c1 - nu2d * c2
        p, q, r = dlam * dnu, lam * d2nu, lam2 * cu * nu
        ax, ay = lam * dnu, -dlam * nu
        a11, a12 = p * m11 + q * m21, p * m12 + q * m22
        a21, a22 = r * m11 - p * m21, r * m12 - p * m22

        tm = t + h2
        X, Y = x + h2 * ax, y + h2 * ay
        n11, n12 = m11 + h2 * a11, m12 + h2 * a12
        n21, n22 = m21 + h2 * a21, m22 + h2 * a22
        u = two_pi * X
        cu, su = cos(u), sin(u)
        s = two_pi * (Y - tm)
        c1, s1 = cos(s), sin(s)
        c2, s2 = 2.0 * c1 * c1 - 1.0, 2.0 * s1 * c1
        lam, dlam = 1.0 + bf * cu, lam1n * su
        nu = 1.0 + a1 * (c1 - 1.0) + a2 * (c2 - 1.0)
        dnu, d2nu = nu1n * s1 - nu2 * s2, nu1dn * c1 - nu2d * c2
        p, q, r = dlam * dnu, lam * d2nu, lam2 * cu * nu
        bx, by = lam * dnu, -dlam * nu
        b11, b12 = p * n11 + q * n21, p * n12 + q * n22
        b21, b22 = r * n11 - p * n21, r * n12 - p * n22

        X, Y = x + h2 * bx, y + h2 * by
        n11, n12 = m11 + h2 * b11, m12 + h2 * b12
        n21, n22 = m21 + h2 * b21, m22 + h2 * b22
        u = two_pi * X
        cu, su = cos(u), sin(u)
        s = two_pi * (Y - tm)
        c1, s1 = cos(s), sin(s)
        c2, s2 = 2.0 * c1 * c1 - 1.0, 2.0 * s1 * c1
        lam, dlam = 1.0 + bf * cu, lam1n * su
        nu = 1.0 + a1 * (c1 - 1.0) + a2 * (c2 - 1.0)
        dnu, d2nu = nu1n * s1 - nu2 * s2, nu1dn * c1 - nu2d * c2
        p, q, r = dlam * dnu, lam * d2nu, lam2 * cu * nu
        cx, cy = lam * dnu, -dlam * nu
        c11, c12 = p * n11 + q * n21, p * n12 + q * n22
        c21, c22 = r * n11 - p * n21, r * n12 - p * n22

        X, Y = x + h * cx, y + h * cy
        n11, n12 = m11 + h * c11, m12 + h * c12
        n21, n22 = m21 + h * c21, m22 + h * c22
        u = two_pi * X
        cu, su = cos(u), sin(u)
        s = two_pi * (Y - (t + h))
        c1, s1 = cos(s), sin(s)
        c2, s2 = 2.0 * c1 * c1 - 1.0, 2.0 * s1 * c1
        lam, dlam = 1.0 + bf * cu, lam1n * su
        nu = 1.0 + a1 * (c1 - 1.0) + a2 * (c2 - 1.0)
        dnu, d2nu = nu1n * s1 - nu2 * s2, nu1dn * c1 - nu2d * c2
        p, q, r = dlam * dnu, lam * d2nu, lam2 * cu * nu
        dx, dy = lam * dnu, -dlam * nu
        d11, d12 = p * n11 + q * n21, p * n12 + q * n22
        d21, d22 = r * n11 - p * n21, r * n12 - p * n22

        x = x + h6 * (ax + 2.0 * bx + 2.0 * cx + dx)
        y = y + h6 * (ay + 2.0 * by + 2.0 * cy + dy)
        m11 = m11 + h6 * (a11 + 2.0 * b11 + 2.0 * c11 + d11)
        m12 = m12 + h6 * (a12 + 2.0 * b12 + 2.0 * c12 + d12)
        m21 = m21 + h6 * (a21 + 2.0 * b21 + 2.0 * c21 + d21)
        m22 = m22 + h6 * (a22 + 2.0 * b22 + 2.0 * c22 + d22)
        t += h
        if record:
            states.append((x, y, m11, m12, m21, m22))
    return states if record else (x, y, m11, m12, m21, m22)


class PeriodicOrbit(_ReadOnly):
    """A point (x, y) in [0, 1)^2 with its monodromy ((a, b), (c, d)) and variational path, a tuple
    of such float 2x2 tuples from the identity to the monodromy, every sample of refine's path;
    its index, read from a strided sample of that path; and two gaps: det_gap = |det(I - M)| and
    richardson_gap, the step-halving gap max |M_N - M_{N/2}| at N = refine_steps."""

    __slots__ = _fields = ("x", "y", "monodromy", "cz_index", "det_gap", "variational_path", "richardson_gap")


def _newton_search(sys, seeds, steps, tol):
    """Clamped Newton iteration on floats from each seed in turn, integrating
    every point it steps from at ``steps``; returns the converged points mod 1
    in the order found.  A seed stops, before any step, once it lies within
    the dedupe radius of a point already found, so the points are distinct."""
    found = []
    for x, y in seeds:
        for _ in range(_MAX_NEWTON_ITER):
            if any(_torus_dist((x, y), q) < _DEDUPE_RADIUS for q in found):
                break
            ex, ey, m11, m12, m21, m22 = _rk4_point(sys.bf, (x, y, 1.0, 0.0, 0.0, 1.0), steps, False)
            fx, fy = ex - x, ey - y - 1.0
            # each component on its own: Python's max can drop a nan
            if abs(fx) < tol and abs(fy) < tol:
                found.append((x % 1.0, y % 1.0))
                break
            a, b, c, d = m11 - 1.0, m12, m21, m22 - 1.0
            det = a * d - b * c
            if not abs(det) > 1e-12:
                break
            du, dv = (-fx * d + fy * b) / det, (fx * c - fy * a) / det
            if not (math.isfinite(du) and math.isfinite(dv)):
                break
            norm = max(abs(du), abs(dv))
            if norm > _NEWTON_CLAMP:
                du, dv = du * (_NEWTON_CLAMP / norm), dv * (_NEWTON_CLAMP / norm)
            x, y = x + du, y + dv
    return found


def _scan_candidates(sys, grid):
    """Well-separated grid points of lowest residual, in increasing residual.

    Each grid point flows on floats in _rk4_point at _SCAN_STEPS; at most
    _MAX_SEEDS points with residual at most 1/2 are kept, each farther than
    one grid spacing from those before it.  Returns the seeds as a list of
    (x, y) tuples.
    """
    nx, ny = grid
    seeds = [((i + 0.5) / nx, (j + 0.5) / ny) for i in range(nx) for j in range(ny)]
    ends = [_rk4_point(sys.bf, (x, y, 1.0, 0.0, 0.0, 1.0), _SCAN_STEPS, False)[:2] for x, y in seeds]
    res = [max(abs(ex - x), abs(ey - y - 1.0)) for (x, y), (ex, ey) in zip(seeds, ends)]
    separation = max(1.0 / nx, 1.0 / ny)
    chosen = []
    for i in sorted(range(len(seeds)), key=res.__getitem__):
        if res[i] > 0.5 or len(chosen) >= _MAX_SEEDS:
            break
        if all(_torus_dist(seeds[i], p) > separation for p in chosen):
            chosen.append(seeds[i])
    return chosen


def _wrap01(v: float) -> float:
    w = v % 1.0
    if w > 1.0 - 1e-9:
        w = 0.0
    return w


def find_orbits(
    sys: TorusSystem,
    tol: float = NEWTON_TOL,
    grid: tuple[int, int] = (48, 24),
    search_steps: int = SEARCH_STEPS,
    refine_steps: int = REFINE_STEPS,
) -> list[PeriodicOrbit]:
    """Locate the period-1 orbits of vertical winding 1.

    The residual of the winding-1 return condition is scanned on the grid,
    each point integrated at _SCAN_STEPS (6), which only ranks the seeds;
    Newton iteration (solved in the universal cover, with a step clamp)
    then runs at ``search_steps`` (SEARCH_STEPS, 128) from at most
    _MAX_SEEDS (16) well-separated lowest residual seeds, integrating every
    point it steps from; every integration runs _rk4_point on floats.  At
    an orbit the co-moving field is the constant (0, 1), which RK4 follows
    exactly at any step count, so ``search_steps`` only says where the
    orbits are: 128 steps found the orbits of 256 in 162 of 162 amplitude
    and grid cases, where 64 and 96 missed one.  Newton runs from each seed
    in turn, for at most 20 steps, and a seed stops once it lies within the
    dedupe radius (1e-5, in the wrap-around metric) of a point already
    found, so the converged points are distinct.  If their number is not
    the closed form's count of equilibria (reduced_equilibria, which
    ``sys.check()`` returns), as when a coarse grid leads Newton to too few
    or a loose ``tol`` accepts non-orbits, it raises OrbitSearchError.
    Otherwise refine re-integrates each at ``refine_steps`` (N, at least 2)
    to check that it still closes within ``tol``; the result is one orbit
    per equilibrium, sorted by x, with the monodromy M_N, the step-halving
    gap max |M_N - M_{N/2}| against an integration at ``refine_steps // 2``,
    the non-degeneracy gap, and the index read from a strided sample of the
    recorded path that keeps its last sample.
    """
    if not (hasattr(grid, "__len__") and len(grid) == 2):
        raise ValueError("grid %r needs two int counts" % (grid,))
    grid = tuple(_index(n, "grid count", least=1) for n in grid)
    search_steps = _index(search_steps, "search_steps", least=1)
    refine_steps = _index(refine_steps, "refine_steps", least=2)
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive, got %r" % (tol,))
    expected = len(sys.check())
    seeds = _scan_candidates(sys, grid)
    found = _newton_search(sys, seeds, search_steps, tol)
    if len(found) != expected:
        raise OrbitSearchError(
            "the search on the %dx%d grid at tol %g converged to %d distinct point%s from %d seed%s;"
            " the closed form has %d orbits"
            % (*grid, tol, len(found), "" if len(found) == 1 else "s", len(seeds), "" if len(seeds) == 1 else "s", expected)
        )
    return [_refine_orbit(sys, p, refine_steps, tol) for p in sorted(found, key=lambda u: u[0])]


def _torus_dist(p, q):
    """Max-norm distance of two points mod 1."""
    dx, dy = abs(p[0] - q[0]) % 1.0, abs(p[1] - q[1]) % 1.0
    return max(min(dx, 1.0 - dx), min(dy, 1.0 - dy))


def _refine_orbit(sys, point, steps, tol) -> PeriodicOrbit:
    """Re-integrate a converged point at ``steps`` and check that it closes.

    The co-moving field at an orbit is the constant (0, 1), which RK4
    follows exactly at any step count, so a point that met ``tol`` in the
    search meets it here; a miss raises OrbitSearchError.  The recorded
    monodromy M_N (N = ``steps``) is checked against M_{N/2}, integrated at
    ``steps // 2``: RK4's error is O(h^4), so max |M_N - M_{N/2}| is about
    15 times the error of M_N, and above 1e-6 it raises.  The index reads
    every (steps // _INDEX_SAMPLES)-th sample of the recorded path and its
    last one; _winding refuses a stride too coarse to track the rotation.
    """
    x, y = point
    path = _rk4_point(sys.bf, (x, y, 1.0, 0.0, 0.0, 1.0), steps, True)
    var = tuple(((m11, m12), (m21, m22)) for _, _, m11, m12, m21, m22 in path)
    ex, ey = path[-1][:2]
    miss = max(abs(ex - x), abs(ey - y - 1.0))
    if not miss < tol:
        raise OrbitSearchError(
            "orbit at x=%.6f misses its return by %g at %d steps, tolerance %g" % (x, miss, steps, tol)
        )
    end = (a, b), (c, d) = var[-1]
    (a2, b2), (c2, d2) = monodromy(sys, (x, y), steps // 2)
    richardson = max(abs(a2 - a), abs(b2 - b), abs(c2 - c), abs(d2 - d))
    if richardson > 1e-6:
        raise OrbitSearchError(
            "integrator is not converged: step-halving changes the monodromy by %g" % richardson
        )
    gap = abs((1.0 - a) * (1.0 - d) - b * c)
    if gap <= NONDEGENERACY_TOL:
        raise OrbitSearchError("orbit at x=%.6f is degenerate: |det(I-M)| = %g" % (x, gap))
    stride = max(1, steps // _INDEX_SAMPLES)
    index = conley_zehnder(var[:-1:stride] + var[-1:])
    return PeriodicOrbit(
        x=_wrap01(x),
        y=_wrap01(y),
        monodromy=end,
        cz_index=index,
        det_gap=gap,
        variational_path=var,
        richardson_gap=richardson,
    )


def monodromy(sys: TorusSystem, base: tuple[float, float], steps: int = REFINE_STEPS):
    """Linearized time-1 return map along the trajectory through base, as
    the float tuple ((a, b), (c, d))."""
    if not (hasattr(base, "__len__") and len(base) == 2
            and all(isinstance(v, numbers.Real) and math.isfinite(v) for v in base)):
        raise ValueError("base must be two finite coordinates, got %r" % (base,))
    steps = _index(steps, "steps", least=1)
    _, _, m11, m12, m21, m22 = _rk4_point(sys.bf, (float(base[0]), float(base[1]), 1.0, 0.0, 0.0, 1.0), steps, False)
    return (m11, m12), (m21, m22)


def _winding(path, v):
    """Angle swept by the image of v along the path, summed sample to sample."""
    v1, v2 = v
    angles = [math.atan2(c * v1 + d * v2, a * v1 + b * v2) for (a, b), (c, d) in path]
    inc = [(t - s + math.pi) % TWO_PI - math.pi for s, t in zip(angles, angles[1:])]
    if max(map(abs, inc)) > 1.2:
        raise ValueError("symplectic path sampled too coarsely to track the rotation")
    return sum(inc)


def conley_zehnder(path) -> int:
    """Index of a sampled symplectic path from the identity.

    Rotation-number algorithm on Sp(2): track the angle swept by the image
    of a reference vector and correct by the endpoint type (any vector for
    an elliptic endpoint, an eigenvector for a hyperbolic one).  Normalized
    so that for exp(t*A) with A = [[0, -p], [-q, 0]] and |p|, |q| < 2 pi it
    agrees with the number of negative eigenvalues of diag(q, -p); a
    prepended full counterclockwise rotation adds 2.  ``path`` is any (n, 2, 2)
    sequence of matrices ((a, b), (c, d)): nested tuples or lists, or an ndarray.
    """
    try:
        path = [((float(a), float(b)), (float(c), float(d))) for (a, b), (c, d) in path]
    except (TypeError, ValueError):
        path = []
    if not path:
        raise ValueError("path must be a sequence of 2x2 matrices")
    if not all(math.isfinite(v) for m in path for row in m for v in row):
        raise ValueError("path must have finite entries")
    (a, b), (c, d) = path[0]
    if max(abs(a - 1.0), abs(b), abs(c), abs(d - 1.0)) > 1e-8:
        raise ValueError("path must start at the identity")
    (a, b), (c, d) = path[-1]
    det = a * d - b * c
    if abs(det - 1.0) > 1e-6:
        raise ValueError("endpoint is not symplectic: det = %g" % det)
    if abs((a - 1.0) * (d - 1.0) - b * c) < _DEGENERACY_TOL:
        raise DegenerateEndpointError("endpoint has eigenvalue 1 within tolerance")
    trace = a + d
    if abs(trace) < 2.0:
        delta = _winding(path, (1.0, 0.0))
        frac = (delta / math.pi) % 1.0
        if min(frac, 1.0 - frac) < 1e-6:
            raise DegenerateEndpointError("elliptic rotation lands on a grading boundary")
        base = 2 * math.floor(delta / (2 * math.pi)) + 1
    else:
        # an eigenvector of the eigenvalue of larger modulus, from whichever
        # row of M - lam I gives the longer one; M = -I has every vector
        lam = (trace + math.copysign(math.sqrt(max(trace * trace - 4.0 * det, 0.0)), trace)) / 2.0
        v = max((b, lam - a), (lam - d, c), key=lambda u: abs(u[0]) + abs(u[1]))
        delta = _winding(path, v if v != (0.0, 0.0) else (1.0, 0.0))
        ratio = delta / math.pi
        base = round(ratio)
        if abs(ratio - base) > 0.25:
            raise ValueError("eigenvector rotation %.4f pi is not close to an integer" % ratio)
    return int(base) + 1


class Arc(_ReadOnly):
    __slots__ = _fields = ("lower", "upper", "sign", "source_x", "target_x", "winding")


def reduced_equilibria(sys: TorusSystem) -> tuple[float, float]:
    """Roots of 1 + lam'(x) on the circle for an admissible b, in closed form:
    sin(2 pi x) = 1/(2 pi b) at x = asin(1/(2 pi b))/(2 pi) and 1/2 - x."""
    x = math.asin(1.0 / (TWO_PI * sys.bf)) / TWO_PI
    return x, 0.5 - x


def count_connecting(sys: TorusSystem) -> tuple[Arc, Arc]:
    """The heteroclinics of the reduced circle flow x' = 1 + lam'(x), one per arc.

    Each arc between the two equilibria carries exactly one trajectory (up
    to time shift), running with the sign of 1 + lam' = 1 - 2 pi b sin(2 pi x):
    -1 between the roots and +1 outside them, so both run from the second
    equilibrium to the first.  The two arcs are labelled by distinct
    lattice elements: the winding of the arc, i.e. how often it crosses
    x = 0.
    """
    z0, z1 = sys.check()
    return (
        Arc(lower=z0, upper=z1, sign=-1, source_x=z1, target_x=z0, winding=0),
        Arc(lower=z1, upper=z0 + 1.0, sign=1, source_x=z1, target_x=z0, winding=1),
    )


def laurent_lattice() -> Lattice:
    """Rank-one lattice with weight 1 and chern 0 on the generator."""
    return Lattice(1, [Fraction(1)], [0])


def assemble_floer(
    sys: TorusSystem,
    sign_convention: str = "minus",
    orbits: list[PeriodicOrbit] | None = None,
    counts: tuple[Arc, ...] | None = None,
) -> BasedComplex:
    """Assemble the two-generator complex of the found orbits.

    One generator per orbit, placed at its index; the differential entry
    sums one monomial per connecting trajectory at its winding label.  With
    the ``plus`` convention all trajectories count +1; with ``minus`` a
    trajectory of odd winding counts -1.  Both give a valid orientation
    bookkeeping and the same torsion class up to the sign of z.
    """
    if sign_convention not in ("plus", "minus"):
        raise ValueError("sign_convention must be 'plus' or 'minus'")
    if orbits is None:
        orbits = find_orbits(sys)
    if counts is None:
        counts = count_connecting(sys)
    if len(orbits) != 2:
        raise OrbitSearchError("expected 2 orbits, found %d" % len(orbits))
    by_index = sorted(orbits, key=lambda o: o.cz_index)
    low, high = by_index
    if high.cz_index - low.cz_index != 1:
        raise OrbitSearchError(
            "orbit indices %d, %d do not differ by 1" % (low.cz_index, high.cz_index)
        )
    for arc in counts:
        if abs(arc.source_x - low.x) > 1e-6 or abs(arc.target_x - high.x) > 1e-6:
            raise OrbitSearchError(
                "connecting arc runs %.6f -> %.6f, expected %.6f -> %.6f"
                % (arc.source_x, arc.target_x, low.x, high.x)
            )
    lattice = laurent_lattice()
    odd_sign = -1 if sign_convention == "minus" else 1
    entry = NovikovElement(lattice, [((arc.winding,), odd_sign if arc.winding % 2 else 1) for arc in counts])
    return two_term_complex(lattice, entry, low.cz_index, ("o%d" % low.cz_index, "o%d" % high.cz_index))


def torus_torsion(
    sys: TorusSystem,
    sign_convention: str = "minus",
    cplx: BasedComplex | None = None,
    cutoff=DEFAULT_CUTOFF,
) -> WhiteheadClass:
    """Torsion class of the assembled complex; exact for these entries."""
    if cplx is None:
        cplx = assemble_floer(sys, sign_convention)
    return milnor_torsion(cplx, cutoff)


class TorusReport(_ReadOnly):
    __slots__ = _fields = ("system", "grid", "search_steps", "refine_steps", "orbits", "counts", "complexes", "torsions")


def run_example(
    b=Fraction(1, 5),
    tol: float = NEWTON_TOL,
    cutoff=DEFAULT_CUTOFF,
    grid: tuple[int, int] = (48, 24),
    search_steps: int = SEARCH_STEPS,
    refine_steps: int = REFINE_STEPS,
) -> TorusReport:
    """Full pipeline: orbits, indices, connecting counts, complex, torsion."""
    sys = TorusSystem(b)
    orbits = find_orbits(sys, tol, grid, search_steps, refine_steps)
    counts = count_connecting(sys)
    complexes = {}
    torsions = {}
    for convention in ("plus", "minus"):
        cplx = assemble_floer(sys, convention, orbits, counts)
        complexes[convention] = cplx
        torsions[convention] = torus_torsion(sys, convention, cplx, cutoff)
    return TorusReport(
        system=sys,
        grid=grid,
        search_steps=search_steps,
        refine_steps=refine_steps,
        orbits=orbits,
        counts=counts,
        complexes=complexes,
        torsions=torsions,
    )
