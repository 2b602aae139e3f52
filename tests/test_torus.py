import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from novtorsion import NovikovElement, milnor_torsion, relabel_lifts, torus, two_term_complex, whitehead_normalize
from novtorsion.torus import (
    NEWTON_TOL,
    REFINE_STEPS,
    SEARCH_STEPS,
    Arc,
    DegenerateEndpointError,
    OrbitSearchError,
    PeriodicOrbit,
    ProfileError,
    TorusSystem,
    _DEDUPE_RADIUS,
    _MAX_SEEDS,
    _SCAN_STEPS,
    _newton_search,
    _refine_orbit,
    _rk4_point,
    _scan_candidates,
    _torus_dist,
    assemble_floer,
    conley_zehnder,
    count_connecting,
    find_orbits,
    laurent_lattice,
    monodromy,
    reduced_equilibria,
    torus_torsion,
)

from torus_oracle import d2lam, d2nu, dlam, dnu, flow_field, hamiltonian, lam, nu, vector_field

TWO_PI = 2 * math.pi

#: The amplitudes the torus benchmark runs.
AMPLITUDES = [Fraction(17, 100), Fraction(9, 50), Fraction(1, 5), Fraction(21, 100), Fraction(11, 50)]

#: As many points as Newton has seeds, with the id of the one RK4 kernel,
#: _rk4_point on floats.
SEED_COUNT = [pytest.param(_MAX_SEEDS, id="float")]


def flow(s, points, steps):
    """Endpoints (n, 2) and monodromies (n, 2, 2) of _rk4_point run point
    by point, as the grid scan, Newton and monodromy do."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    final = np.array([_rk4_point(s.bf, (x, y, 1.0, 0.0, 0.0, 1.0), steps, False) for x, y in points.tolist()])
    return final[:, :2], final[:, 2:].reshape(-1, 2, 2)


def oracle_equilibria(b: float) -> tuple[float, float]:
    # roots of sin(2 pi x) = 1/(2 pi b), by bisection on the two arcs
    target = 1.0 / (TWO_PI * b)

    def f(x):
        return math.sin(TWO_PI * x) - target

    def bisect(lo, hi):
        flo = f(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if flo * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
                flo = f(lo)
        return 0.5 * (lo + hi)

    return bisect(1e-12, 0.25), bisect(0.25, 0.5 - 1e-12)


def test_profile_jets():
    s = TorusSystem()
    assert nu(s, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert dnu(s, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert d2nu(s, 0.0) == pytest.approx(-1.0, abs=1e-12)
    # the second critical level must be low enough to carry no orbits
    assert abs(nu(s, 0.5)) < 1.0 / (TWO_PI * s.bf)


def test_profile_bounds_checked():
    with pytest.raises(ProfileError):
        TorusSystem(Fraction(1, 10)).check()
    with pytest.raises(ProfileError):
        TorusSystem(Fraction(1, 2)).check()
    TorusSystem(Fraction(1, 5)).check()


def test_amplitude_is_read_as_an_exact_rational():
    # 0.2 is not 1/5 in binary; it is refused rather than read as 3602879701896397/2**54
    for call in (TorusSystem, torus.run_example):
        with pytest.raises(ValueError, match="0.2 is not an exact rational"):
            call(0.2)
        with pytest.raises(ValueError, match="^True is a bool, not a rational$"):
            call(True)
    for b, want in ((Fraction(1, 5), Fraction(1, 5)), ("1/5", Fraction(1, 5)), (1, Fraction(1)), (2.0, Fraction(2))):
        assert TorusSystem(b).b == want
        assert type(TorusSystem(b).b) is Fraction


def test_amplitude_beyond_the_float_range_is_a_profile_error():
    for b in (Fraction(10) ** 400, -(Fraction(10) ** 400)):
        with pytest.raises(ProfileError):
            TorusSystem(b).check()


def test_vector_field_on_the_orbit_lines():
    s = TorusSystem()
    x0, x1 = oracle_equilibria(s.bf)
    for t in (0.0, 0.3, 0.77):
        dx, dy = vector_field(s, 0.123, t, t)
        assert dx == pytest.approx(0.0, abs=1e-12)
        dx, dy = vector_field(s, x0, t, t)
        assert (dx, dy) == pytest.approx((0.0, 1.0), abs=1e-9)
        dx, dy = vector_field(s, x1, t, t)
        assert (dx, dy) == pytest.approx((0.0, 1.0), abs=1e-9)


def test_vector_field_is_hamiltonian():
    s = TorusSystem()
    rng = np.random.RandomState(5)
    eps = 1e-6
    for _ in range(25):
        x, y, t = rng.uniform(0, 1, 3)
        dh_dy = (hamiltonian(s, x, y + eps, t) - hamiltonian(s, x, y - eps, t)) / (2 * eps)
        dh_dx = (hamiltonian(s, x + eps, y, t) - hamiltonian(s, x - eps, y, t)) / (2 * eps)
        dx, dy = vector_field(s, x, y, t)
        assert dx == pytest.approx(dh_dy, abs=1e-7)
        assert dy == pytest.approx(-dh_dx, abs=1e-7)


def test_reduced_equilibria_match_oracle():
    s = TorusSystem()
    z = reduced_equilibria(s)
    x0, x1 = oracle_equilibria(s.bf)
    assert z == pytest.approx((x0, x1), abs=1e-10)


#: The admissible interval 1/(2 pi) < b < 1/(pi sqrt 2).
B_LO, B_HI = 1.0 / TWO_PI, 1.0 / (math.pi * math.sqrt(2.0))

#: The benchmark amplitudes plus points within 1e-3 of both ends.
SWEEP = [float(b) for b in AMPLITUDES] + [B_LO + 1e-6, B_LO + 9e-4, B_HI - 9e-4, B_HI - 1e-6]


@pytest.mark.parametrize("b", SWEEP)
def test_admissible_interval_implies_the_profile_conditions(b):
    s = TorusSystem(Fraction(b))
    x0, x1 = s.check()
    target = 1.0 / (TWO_PI * s.bf)
    # two closed-form roots of sin(2 pi x) = 1/(2 pi b), both in (1/8, 3/8)
    assert 1 / 8 < x0 < 1 / 4 < x1 < 3 / 8
    for x in (x0, x1):
        assert math.sin(TWO_PI * x) == pytest.approx(target, abs=1e-12)
        assert 0.0 < abs(d2lam(s, x)) < TWO_PI
        assert 0.0 < abs(lam(s, x)) < TWO_PI
    # the reduced flow 1 + lam' is negative strictly between the roots, positive outside
    inside = np.linspace(x0, x1, 66)[1:-1]
    outside = np.linspace(x1, x0 + 1.0, 258)[1:-1]
    assert (1.0 + dlam(s, inside) < 0.0).all()
    assert (1.0 + dlam(s, outside) > 0.0).all()
    # nu' changes sign only at 1/2 and 0 on the circle, and nu(1/2) = 2/5 < 1/(2 pi b)
    ys = (np.arange(4096) + 0.5) / 4096
    signs = np.sign(dnu(s, ys))
    assert (signs != 0).all()
    flips = ys[signs != np.roll(signs, -1)] + 0.5 / 4096
    assert flips == pytest.approx([0.5, 1.0], abs=1e-12)
    assert nu(s, 0.5) == pytest.approx(0.4, abs=1e-12)
    assert nu(s, 0.5) < target
    # count_connecting's arcs carry the sign of the flow on them
    arcs = count_connecting(s)
    assert [arc.sign for arc in arcs] == [-1, 1]
    for arc in arcs:
        assert np.sign(1.0 + dlam(s, 0.5 * (arc.lower + arc.upper))) == arc.sign


def test_find_orbits_default(torus_report):
    orbits = torus_report.orbits
    assert len(orbits) == 2
    x0, x1 = oracle_equilibria(float(torus_report.system.b))
    assert orbits[0].x == pytest.approx(x0, abs=1e-8)
    assert orbits[1].x == pytest.approx(x1, abs=1e-8)
    assert orbits[0].y == pytest.approx(0.0, abs=1e-8)
    assert orbits[1].y == pytest.approx(0.0, abs=1e-8)
    for o in orbits:
        assert o.det_gap > 1e-6
        assert abs(np.linalg.det(o.monodromy) - 1.0) < 1e-9
        assert o.richardson_gap < 1e-6


def test_refine_rejects_a_point_off_the_orbit(torus_report):
    o = torus_report.orbits[0]
    x = o.x + 1e-3
    with pytest.raises(OrbitSearchError, match=r"orbit at x=%.6f misses its return by \S+ at 2048 steps" % x):
        _refine_orbit(torus_report.system, (x, o.y), REFINE_STEPS, NEWTON_TOL)


def test_monodromy_matches_constant_matrix_exponential(torus_report):
    s = torus_report.system
    for o in torus_report.orbits:
        a = np.array([[0.0, -lam(s, o.x)], [-d2lam(s, o.x), 0.0]])
        assert np.abs(o.monodromy - expm(a)).max() < 1e-6


def test_monodromy_type_matches_sign(torus_report):
    s = torus_report.system
    for o in torus_report.orbits:
        elliptic = d2lam(s, o.x) * lam(s, o.x) < 0
        tr = o.monodromy[0][0] + o.monodromy[1][1]
        assert (abs(tr) < 2) == elliptic


def test_indices(torus_report):
    s = torus_report.system
    for o in torus_report.orbits:
        negatives = sum(1 for v in (d2lam(s, o.x), -lam(s, o.x)) if v < 0)
        assert o.cz_index == negatives
    assert sorted(o.cz_index for o in torus_report.orbits) == [1, 2]


def _constant_path(a, samples=512):
    return np.array([expm(t * a) for t in np.linspace(0.0, 1.0, samples + 1)])


@pytest.mark.parametrize(
    "p,q",
    [(1.2, 4.0), (0.9, 4.7), (-1.2, 4.0), (-1.0, -3.0), (1.0, -3.0), (2.0, 2.0)],
)
def test_conley_zehnder_constant_paths(p, q):
    a = np.array([[0.0, -p], [-q, 0.0]])
    expected = sum(1 for v in (q, -p) if v < 0)
    assert conley_zehnder(_constant_path(a)) == expected


def test_conley_zehnder_loop_shift():
    a = np.array([[0.0, -1.2], [-4.0, 0.0]])
    path = _constant_path(a)
    loop = np.array(
        [
            [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
            for t in np.linspace(0.0, 2 * math.pi, 513)
        ]
    )
    glued = np.concatenate([loop[:-1], loop[-1] @ path])
    assert conley_zehnder(glued) == conley_zehnder(path) + 2


def test_conley_zehnder_sampling_invariance(torus_report):
    for o in torus_report.orbits:
        coarse = o.variational_path[::4]
        assert conley_zehnder(coarse) == o.cz_index


def test_conley_zehnder_degenerate_endpoint():
    path = _constant_path(np.zeros((2, 2)))
    with pytest.raises(DegenerateEndpointError):
        conley_zehnder(path)


def test_conley_zehnder_checks_its_path():
    with pytest.raises(ValueError, match="^path must be a sequence of 2x2 matrices$"):
        conley_zehnder(np.zeros((4, 3, 3)))
    with pytest.raises(ValueError, match="^path must start at the identity$"):
        conley_zehnder(2 * _constant_path(np.zeros((2, 2))))
    stretched = np.array([np.eye(2), np.diag([2.0, 2.0])])
    with pytest.raises(ValueError, match="^endpoint is not symplectic: det = 4$"):
        conley_zehnder(stretched)
    # a NaN sample used to die converting NaN to an int, a NaN endpoint in det;
    # NaN compares false, so a NaN start would pass the identity check
    for k in (0, 7, -1):
        path = _constant_path(np.array([[0.0, -1.2], [-4.0, 0.0]]), 16)
        path[k, 1, 0] = math.nan
        with pytest.raises(ValueError, match="^path must have finite entries$"):
            conley_zehnder(path)
    # three samples of a rotation by 3 pi turn by 3 pi / 2 each
    coarse = np.array([[[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]] for t in (0.0, 1.5 * math.pi, 3 * math.pi)])
    with pytest.raises(ValueError, match="^symplectic path sampled too coarsely to track the rotation$"):
        conley_zehnder(coarse)


def _rotation(t):
    return [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]


def _then(path, tail):
    """``path`` followed by its endpoint times each sample of ``tail``, a path from the identity."""
    end = np.array(path[-1])
    return [*path, *((end @ np.array(m)).tolist() for m in tail[1:])]


_TS = [k / 64 for k in range(65)]
_HALF_TURN = [_rotation(math.pi * t) for t in _TS]
_STRETCH = [[[math.exp(0.7 * t), 0.0], [0.0, math.exp(-0.7 * t)]] for t in _TS]


@pytest.mark.parametrize(
    "path,want",
    [
        pytest.param(_HALF_TURN, 2, id="half-turn-to-minus-identity"),
        pytest.param([_rotation(3 * math.pi * k / 192) for k in range(193)], 4, id="three-half-turns"),
        pytest.param(_then(_HALF_TURN, [[[1.0, 0.5 * t], [0.0, 1.0]] for t in _TS]), 2, id="half-turn-then-shear"),
        pytest.param(_then(_HALF_TURN, [[[1.0, 0.0], [0.7 * t, 1.0]] for t in _TS]), 2, id="half-turn-then-lower-shear"),
        pytest.param(_then(_HALF_TURN, _STRETCH), 2, id="half-turn-then-stretch"),
        pytest.param(_then([_rotation(2 * math.pi * k / 128) for k in range(129)], _STRETCH), 3, id="full-turn-then-stretch"),
    ],
)
def test_conley_zehnder_reads_arrays_lists_and_tuples(path, want):
    # the endpoints -I, -[[1, s], [0, 1]] and +-diag(e^r, e^-r) take the
    # eigenvector branch; each index is numpy's eigenvector's, and a path
    # gives it as an ndarray, as nested lists and as nested tuples
    for form in (np.array(path), path, tuple(tuple(tuple(row) for row in m) for m in path)):
        assert conley_zehnder(form) == want


@pytest.mark.parametrize(
    "path",
    [[], [[1.0, 0.0], [0.0, 1.0]], [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]], [[[1.0, 0.0]]], "path", None, np.zeros((3, 2, 2, 1))],
    ids=["empty", "one-matrix", "2x3", "1x2", "str", "none", "4d-array"],
)
def test_conley_zehnder_refuses_what_is_not_a_path_of_2x2_matrices(path):
    with pytest.raises(ValueError, match="^path must be a sequence of 2x2 matrices$"):
        conley_zehnder(path)


def test_count_connecting(torus_report):
    arcs = torus_report.counts
    assert len(arcs) == 2
    assert [arc.winding for arc in arcs] == [0, 1]
    x0, x1 = oracle_equilibria(float(torus_report.system.b))
    for arc in arcs:
        assert arc.source_x == pytest.approx(x1, abs=1e-8)
        assert arc.target_x == pytest.approx(x0, abs=1e-8)


def test_connecting_flow_direction_by_integration(torus_report):
    # independent check: integrate x' = 1 + lam'(x) from arc interiors
    s = torus_report.system

    def flow(x, sgn, time=60.0, steps=6000):
        h = sgn * time / steps
        for _ in range(steps):
            k1 = 1.0 + dlam(s, x)
            k2 = 1.0 + dlam(s, x + 0.5 * h * k1)
            k3 = 1.0 + dlam(s, x + 0.5 * h * k2)
            k4 = 1.0 + dlam(s, x + h * k3)
            x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    for arc in torus_report.counts:
        mid = 0.5 * (arc.lower + arc.upper)
        fwd = flow(mid, +1.0) % 1.0
        bwd = flow(mid, -1.0) % 1.0
        assert min(abs(fwd - arc.target_x), 1 - abs(fwd - arc.target_x)) < 1e-5
        assert min(abs(bwd - arc.source_x), 1 - abs(bwd - arc.source_x)) < 1e-5


def test_count_connecting_needs_equilibria():
    with pytest.raises((ProfileError, OrbitSearchError)):
        count_connecting(TorusSystem(Fraction(1, 10)))


@pytest.mark.parametrize("grid", [(0, 5), (5, 0), (-1, 3), [0, 5]])
def test_find_orbits_refuses_an_empty_grid_before_integrating(monkeypatch, grid):
    monkeypatch.setattr(torus, "_rk4_point", lambda *args, **kwargs: pytest.fail("integrated"))
    with pytest.raises(ValueError, match="^grid count must be an int of at least 1, not %d$" % min(grid)):
        find_orbits(TorusSystem(), grid=grid)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda s: find_orbits(s, grid=(2.5, 3)), r"grid count must be an int of at least 1, not 2\.5", id="float-grid"),
        pytest.param(lambda s: find_orbits(s, grid=(True, 24)), "grid count must be an int of at least 1, not True", id="bool-grid"),
        pytest.param(lambda s: find_orbits(s, grid=(48, np.True_)), "grid count must be an int of at least 1, not %s" % re.escape(repr(np.True_)), id="numpy-bool-grid"),
        pytest.param(lambda s: find_orbits(s, grid=5), "grid 5 needs two int counts", id="int-grid"),
        pytest.param(lambda s: find_orbits(s, grid=None), "grid None needs two int counts", id="none-grid"),
        pytest.param(lambda s: find_orbits(s, search_steps=0), "search_steps must be an int of at least 1, not 0", id="search-0"),
        pytest.param(lambda s: find_orbits(s, search_steps=True), "search_steps must be an int of at least 1, not True", id="search-bool"),
        pytest.param(lambda s: find_orbits(s, search_steps=np.True_), "search_steps must be an int of at least 1, not %s" % re.escape(repr(np.True_)), id="search-numpy-bool"),
        pytest.param(lambda s: find_orbits(s, refine_steps=0), "refine_steps must be an int of at least 2, not 0", id="refine-0"),
        pytest.param(lambda s: find_orbits(s, refine_steps=1), "refine_steps must be an int of at least 2, not 1", id="refine-1"),
        pytest.param(lambda s: find_orbits(s, refine_steps=512.0), r"refine_steps must be an int of at least 2, not 512\.0", id="refine-float"),
        pytest.param(lambda s: find_orbits(s, tol=math.nan), "tol must be finite and positive, got nan", id="tol-nan"),
        pytest.param(lambda s: find_orbits(s, tol=-1.0), r"tol must be finite and positive, got -1\.0", id="tol-negative"),
        pytest.param(lambda s: find_orbits(s, tol=0.0), r"tol must be finite and positive, got 0\.0", id="tol-zero"),
        pytest.param(lambda s: find_orbits(s, tol=math.inf), "tol must be finite and positive, got inf", id="tol-inf"),
        pytest.param(lambda s: find_orbits(s, tol=True), "tol must be finite and positive, got True", id="tol-bool"),
        pytest.param(lambda s: find_orbits(s, tol="1e-10"), "tol must be finite and positive, got '1e-10'", id="tol-str"),
        pytest.param(lambda s: find_orbits(s, tol=None), "tol must be finite and positive, got None", id="tol-none"),
        pytest.param(
            lambda s: find_orbits(s, tol=1e-10j, grid=(np.int64(48), np.int64(24)), search_steps=np.int64(256), refine_steps=np.int64(512)),
            r"tol must be finite and positive, got 1e-10j", id="numpy-int-counts-pass",
        ),
        pytest.param(lambda s: monodromy(s, (0.2, 0.0), 0), "steps must be an int of at least 1, not 0", id="monodromy-0"),
        pytest.param(lambda s: monodromy(s, (0.2, 0.0), -1), "steps must be an int of at least 1, not -1", id="monodromy-negative"),
        pytest.param(lambda s: monodromy(s, (0.2, 0.0), np.True_), "steps must be an int of at least 1, not %s" % re.escape(repr(np.True_)), id="monodromy-numpy-bool"),
        pytest.param(lambda s: monodromy(s, (math.nan, 0.0)), r"base must be two finite coordinates, got \(nan, 0\.0\)", id="monodromy-nan"),
        pytest.param(lambda s: monodromy(s, (0.2,)), r"base must be two finite coordinates, got \(0\.2,\)", id="monodromy-short"),
        pytest.param(lambda s: monodromy(s, (0.2, 0.0), 2.5), r"steps must be an int of at least 1, not 2\.5", id="monodromy-float"),
    ],
)
def test_bad_counts_and_tolerances_are_refused_before_integrating(monkeypatch, call, message):
    monkeypatch.setattr(torus, "_rk4_point", lambda *args, **kwargs: pytest.fail("integrated"))
    with pytest.raises(ValueError, match="^%s$" % message):
        call(TorusSystem())


def test_assemble_floer_checks_its_inputs(torus_report):
    sys, orbits, counts = torus_report.system, torus_report.orbits, torus_report.counts
    with pytest.raises(ValueError, match="^sign_convention must be 'plus' or 'minus'$"):
        assemble_floer(sys, "both", orbits, counts)
    with pytest.raises(OrbitSearchError, match="^expected 2 orbits, found 1$"):
        assemble_floer(sys, "plus", orbits[:1], counts)
    low, high = sorted(orbits, key=lambda o: o.cz_index)
    far = PeriodicOrbit(**{**{f: getattr(high, f) for f in high._fields}, "cz_index": low.cz_index + 2})
    with pytest.raises(OrbitSearchError, match="^orbit indices %d, %d do not differ by 1$" % (low.cz_index, low.cz_index + 2)):
        assemble_floer(sys, "plus", [low, far], counts)
    arc = counts[1]
    moved = Arc(**{**{f: getattr(arc, f) for f in arc._fields}, "target_x": arc.target_x + 1e-3})
    message = "connecting arc runs %.6f -> %.6f, expected %.6f -> %.6f" % (arc.source_x, moved.target_x, low.x, high.x)
    with pytest.raises(OrbitSearchError, match="^%s$" % re.escape(message)):
        assemble_floer(sys, "plus", orbits, (counts[0], moved))


def test_periodic_orbit_compares_only_with_orbits(torus_report):
    orbit = torus_report.orbits[0]
    assert orbit.__eq__((orbit.x, orbit.y)) is NotImplemented
    assert orbit != (orbit.x, orbit.y) and orbit == orbit


def test_refine_refuses_an_unconverged_integrator():
    # at 16 steps the orbits still close (RK4 follows the constant co-moving
    # field exactly), but the monodromy at 8 steps differs by about 1e-4
    with pytest.raises(OrbitSearchError, match=r"^integrator is not converged: step-halving changes the monodromy by 0\.00012451$"):
        find_orbits(TorusSystem(), search_steps=128, refine_steps=16)


@pytest.mark.parametrize("steps", [1000, 96])
@pytest.mark.parametrize("b", AMPLITUDES)
def test_the_strided_index_is_the_index_of_the_whole_path(monkeypatch, b, steps):
    # the index reads every (steps // 128)-th sample and the last one; at
    # 1000 steps the stride 7 does not divide the count, at 96 it is 1.  At
    # 96 steps b = 11/50 is refused: its monodromy at 48 steps differs by
    # about 1.06e-6, above the 1e-6 gate
    if (b, steps) == (Fraction(11, 50), 96):
        with pytest.raises(OrbitSearchError, match=r"^integrator is not converged: step-halving changes the monodromy by 1\.05756e-06$"):
            find_orbits(TorusSystem(b), refine_steps=steps)
        return
    read = []
    monkeypatch.setattr(torus, "conley_zehnder", lambda path: read.append(path) or conley_zehnder(path))
    orbits = find_orbits(TorusSystem(b), refine_steps=steps)
    assert len(orbits) == len(read) == 2
    stride = max(1, steps // 128)
    for o, sampled in zip(orbits, read):
        path = o.variational_path
        assert len(path) == steps + 1 and o.monodromy == path[-1]
        # the samples are the path's own, in order, ending at its last
        at = {id(m): i for i, m in enumerate(path)}
        where = [at[id(m)] for m in sampled]
        assert where[0] == 0 and where[-1] == steps
        assert all(0 < j - i <= stride for i, j in zip(where, where[1:]))
        assert o.cz_index == conley_zehnder(path)


#: The verdict of a search whose count of distinct points is not the closed form's.
VERDICT = "^the search on the %dx%d grid at tol %g converged to %d distinct points? from %d seeds?; the closed form has 2 orbits$"


def test_find_orbits_refuses_a_search_that_converges_nowhere(monkeypatch):
    # one Newton step from the scan's seeds meets no tolerance
    monkeypatch.setattr(torus, "_MAX_NEWTON_ITER", 1)
    with pytest.raises(OrbitSearchError, match=VERDICT % (48, 24, NEWTON_TOL, 0, 16)):
        find_orbits(TorusSystem(), search_steps=128, refine_steps=512)


@pytest.mark.parametrize(
    "grid, tol, points, seeds",
    [
        # the scan leads Newton to the index-2 orbit only
        pytest.param((16, 8), NEWTON_TOL, 1, 4, id="coarse-grid"),
        # every seed passes as converged before any Newton step
        pytest.param((48, 24), 0.5, 16, 16, id="loose-tol"),
    ],
)
def test_find_orbits_refuses_a_count_other_than_the_closed_forms_before_refine(monkeypatch, grid, tol, points, seeds):
    monkeypatch.setattr(torus, "_refine_orbit", lambda *args: pytest.fail("refined"))
    with pytest.raises(OrbitSearchError, match=VERDICT % (*grid, tol, points, seeds)):
        find_orbits(TorusSystem(Fraction(1, 5)), tol, grid)


def test_refine_refuses_a_degenerate_orbit(monkeypatch):
    monkeypatch.setattr(torus, "NONDEGENERACY_TOL", 100)
    with pytest.raises(OrbitSearchError, match=r"^orbit at x=0\.146468 is degenerate: \|det\(I-M\)\| = 3\.35524$"):
        find_orbits(TorusSystem(), search_steps=128, refine_steps=512)


def test_conley_zehnder_refuses_an_elliptic_endpoint_on_a_grading_boundary():
    # determinant 1 throughout, trace 2 - 1e-8 at the end: elliptic, but
    # the reference vector turns by about 1e-8, a whole multiple of pi
    t = np.linspace(0.0, 1.0, 50)
    path = np.stack([np.ones_like(t), -t, 1e-8 * t, 1.0 - 1e-8 * t**2], axis=1).reshape(-1, 2, 2)
    with pytest.raises(DegenerateEndpointError, match="^elliptic rotation lands on a grading boundary$"):
        conley_zehnder(path)


def test_assembled_complex(torus_report):
    for convention, want in (("plus", 1), ("minus", -1)):
        cplx = torus_report.complexes[convention]
        assert cplx.euler_parity() == (1, 1)
        report = cplx.validate()
        assert report.valid
        assert cplx.homology_ranks().acyclic
        entry = cplx.differentials[1].live[0][0]
        lat = cplx.lattice
        assert entry == NovikovElement.one(lat) + NovikovElement.monomial(lat, want, (1,))


def test_torus_torsion(torus_report):
    for convention in ("plus", "minus"):
        cls = torus_report.torsions[convention]
        assert not cls.trivial
        assert cls.cutoff is None
        assert cls.leading_coefficient == 1
        rep = cls.representative
        assert rep.coefficient((0,)) == 1
        assert abs(rep.coefficient((1,))) == 1


def test_pipeline_searches_when_given_no_orbits_or_complex(torus_report):
    # one search per call, so one convention each: both fallbacks run
    assert assemble_floer(TorusSystem(), "plus") == torus_report.complexes["plus"]
    assert torus_torsion(TorusSystem(), "minus") == torus_report.torsions["minus"]


def test_package_loads_the_torus_names_on_first_access():
    import novtorsion

    assert novtorsion.run_example is torus.run_example
    assert "find_orbits" in dir(novtorsion)
    with pytest.raises(AttributeError, match="^module 'novtorsion' has no attribute 'no_such_name'$"):
        novtorsion.no_such_name


def test_torsion_invariant_under_lift_relabeling(torus_report):
    cplx = torus_report.complexes["minus"]
    shifted = relabel_lifts(cplx, {1: ((3,),), 2: ((-1,),)})
    assert milnor_torsion(shifted) == torus_report.torsions["minus"]


@pytest.mark.parametrize("n", SEED_COUNT)
def test_flow_preserves_area_and_energy_bounded(n):
    s = TorusSystem()
    rng = np.random.RandomState(11)
    pts = rng.uniform(0, 1, (n, 2))
    ends, mons = flow(s, pts, 512)
    dets = np.linalg.det(mons)
    assert np.abs(dets - 1.0).max() < 1e-8
    # the energy at the kernel's endpoints and along each recorded trajectory
    h = hamiltonian(s, ends[:, 0], ends[:, 1], 1.0)
    assert np.isfinite(h).all() and np.abs(h).max() <= (1 + s.bf) * 1.0 + 1e-9
    ts = np.linspace(0.0, 1.0, 513)
    for x, y in pts:
        traj = np.array(_rk4_point(s.bf, (x, y, 1.0, 0.0, 0.0, 1.0), 512, True))
        h = hamiltonian(s, traj[:, 0], traj[:, 1], ts)
        assert np.isfinite(h).all()
        assert np.abs(h).max() <= (1 + s.bf) * 1.0 + 1e-9


def reference_integrate(s, points, steps):
    """Numpy RK4 on stacked (n, 6) states with the 2x2 product A @ M.

    Built from the oracle's profile functions, independently of the
    kernel's shared trigonometry; the kernel must reproduce it to round-off.
    """

    def rhs(t, state):
        x, y = state[:, 0], state[:, 1]
        u = y - t
        a = np.empty((len(state), 2, 2))
        a[:, 0, 0] = dlam(s, x) * dnu(s, u)
        a[:, 0, 1] = lam(s, x) * d2nu(s, u)
        a[:, 1, 0] = -d2lam(s, x) * nu(s, u)
        a[:, 1, 1] = -a[:, 0, 0]
        dm = a @ state[:, 2:].reshape(-1, 2, 2)
        field = np.stack([lam(s, x) * dnu(s, u), -dlam(s, x) * nu(s, u)], axis=1)
        return np.concatenate([field, dm.reshape(-1, 4)], axis=1)

    state = np.concatenate([points, np.tile([1.0, 0.0, 0.0, 1.0], (len(points), 1))], axis=1)
    h, t = 1.0 / steps, 0.0
    for _ in range(steps):
        k1 = rhs(t, state)
        k2 = rhs(t + h / 2, state + (h / 2) * k1)
        k3 = rhs(t + h / 2, state + (h / 2) * k2)
        k4 = rhs(t + h, state + h * k3)
        state = state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return state[:, :2], state[:, 2:].reshape(-1, 2, 2)


def reference_point(bf, state, steps, record):
    """The float RK4 step that the fused kernel replaced: flow_field's
    closure on math.cos/math.sin called four times a step.

    Returns what _rk4_point returns.  The kernel does the same float
    operations in the same order, so it must match bit for bit.
    """
    rhs = flow_field(bf, math.cos, math.sin)
    x, y, m11, m12, m21, m22 = state
    h = 1.0 / steps
    h2, h6 = h / 2, h / 6
    t = 0.0
    states = [state]
    for _ in range(steps):
        ax, ay, a11, a12, a21, a22 = rhs(t, x, y, m11, m12, m21, m22)
        bx, by, b11, b12, b21, b22 = rhs(
            t + h2, x + h2 * ax, y + h2 * ay, m11 + h2 * a11, m12 + h2 * a12, m21 + h2 * a21, m22 + h2 * a22
        )
        cx, cy, c11, c12, c21, c22 = rhs(
            t + h2, x + h2 * bx, y + h2 * by, m11 + h2 * b11, m12 + h2 * b12, m21 + h2 * b21, m22 + h2 * b22
        )
        dx, dy, d11, d12, d21, d22 = rhs(
            t + h, x + h * cx, y + h * cy, m11 + h * c11, m12 + h * c12, m21 + h * c21, m22 + h * c22
        )
        x = x + h6 * (ax + 2 * bx + 2 * cx + dx)
        y = y + h6 * (ay + 2 * by + 2 * cy + dy)
        m11 = m11 + h6 * (a11 + 2 * b11 + 2 * c11 + d11)
        m12 = m12 + h6 * (a12 + 2 * b12 + 2 * c12 + d12)
        m21 = m21 + h6 * (a21 + 2 * b21 + 2 * c21 + d21)
        m22 = m22 + h6 * (a22 + 2 * b22 + 2 * c22 + d22)
        t += h
        if record:
            states.append((x, y, m11, m12, m21, m22))
    return np.array(states if record else [(x, y, m11, m12, m21, m22)])


@pytest.mark.parametrize("b", AMPLITUDES)
@pytest.mark.parametrize("steps", [1, 2, 7, 128, 2048])
def test_fused_float_kernel_matches_the_reference_point_step_bit_for_bit(b, steps):
    s = TorusSystem(b)
    for x, y in np.random.RandomState(steps).uniform(-0.25, 1.25, (3, 2)):
        state = [x, y, 1.0, 0.0, 0.0, 1.0]
        for record in (False, True):
            want = reference_point(s.bf, state, steps, record)
            assert want.shape == ((steps + 1, 6) if record else (1, 6))
            got = _rk4_point(s.bf, state, steps, record)
            assert record or type(got) is tuple
            assert np.array_equal(got, want if record else want[0])


@pytest.mark.parametrize("n", SEED_COUNT)
def test_float_and_array_paths_agree(n):
    # the float kernel, one point at a time, against the stacked numpy reference
    s = TorusSystem()
    pts = np.random.RandomState(3).uniform(0, 1, (n, 2))
    ends, mons = flow(s, pts, 128)
    assert ends.shape == (n, 2) and mons.shape == (n, 2, 2)
    for k, p in enumerate(pts):
        assert np.array_equal(monodromy(s, p, 128), mons[k])
    ref_ends, ref_mons = reference_integrate(s, pts, 128)
    assert np.abs(ends - ref_ends).max() <= 1e-12
    assert np.abs(mons - ref_mons).max() <= 1e-12


@pytest.mark.parametrize("b", [Fraction(17, 100), Fraction(1, 5), Fraction(11, 50)])
def test_monodromy_at_equilibria_is_expm(b):
    # on the line y = t the co-moving flow sits at an equilibrium x with
    # lam'(x) = -1, so the return map is exp(A) for the constant A
    s = TorusSystem(b)
    for x in oracle_equilibria(s.bf):
        a = np.array([[0.0, -lam(s, x)], [-d2lam(s, x), 0.0]])
        assert np.abs(monodromy(s, (x, 0.0)) - expm(a)).max() < 1e-9


@pytest.mark.parametrize("n", [pytest.param(1, id="1"), pytest.param(3, id="3"), *SEED_COUNT])
def test_recorded_path_ends_at_the_plain_result(n):
    # the recorded path, which refine samples, starts at the point and ends
    # where the unrecorded kernel does, bit for bit
    s = TorusSystem()
    pts = np.random.RandomState(8).uniform(0, 1, (n, 2))
    ends, mons = flow(s, pts, 64)
    for k, (x, y) in enumerate(pts):
        state = (x, y, 1.0, 0.0, 0.0, 1.0)
        path = np.array(_rk4_point(s.bf, state, 64, True))
        assert path.shape == (65, 6)
        assert np.array_equal(path[0], state)
        assert np.array_equal(path[-1], _rk4_point(s.bf, state, 64, False))
        assert np.array_equal(path[-1, :2], ends[k])
        assert np.array_equal(path[-1, 2:].reshape(2, 2), mons[k])


def test_orbit_set_stable_under_denser_seed_grid(torus_report):
    dense = find_orbits(TorusSystem(), grid=(64, 32), search_steps=128, refine_steps=512)
    assert len(dense) == len(torus_report.orbits) == 2
    for a, b in zip(dense, torus_report.orbits):
        assert a.x == pytest.approx(b.x, abs=1e-8)
        assert a.y == pytest.approx(b.y, abs=1e-8)
        assert a.cz_index == b.cz_index


@pytest.mark.parametrize("b", AMPLITUDES)
def test_orbit_count_and_index_gap_across_b(b):
    orbits = find_orbits(TorusSystem(b), search_steps=128, refine_steps=512)
    assert len(orbits) == 2
    indices = sorted(o.cz_index for o in orbits)
    assert indices[1] - indices[0] == 1
    cplx = assemble_floer(TorusSystem(b), "minus", orbits)
    assert not torus_torsion(TorusSystem(b), "minus", cplx).trivial


@pytest.mark.parametrize("b", AMPLITUDES)
def test_torus_torsion_inverts_the_circle_complex(b):
    # the reduced circle flow's torsion is that of Z[z^+-1] --(1 - z)--> Z[z^+-1]
    # up to +-z^k; the orbit complex sits at odd degree 1, so the minus class is
    # its inverse, and the plus class only after z -> -z (see assemble_floer)
    s = TorusSystem(b)
    orbits = find_orbits(s, search_steps=128, refine_steps=512)
    lat = laurent_lattice()
    circle = milnor_torsion(two_term_complex(lat, NovikovElement.one(lat) - NovikovElement.monomial(lat, 1, (1,)), 0))
    minus, plus = (torus_torsion(s, c, assemble_floer(s, c, orbits)) for c in ("minus", "plus"))
    assert (minus * circle).trivial
    assert not (plus * circle).trivial
    rep = plus.representative
    flipped = NovikovElement(lat, [(g, c * (-1) ** g[0]) for g, c in rep.terms.items()], rep.cutoff)
    assert (whitehead_normalize(flipped) * circle).trivial


def _reference_newton_search(sys, seeds, steps, tol, max_iter=20, clamp=0.25):
    """Newton from each seed in turn without seed retirement: every seed
    runs until it converges, its step fails, or max_iter iterations have
    passed.  Returns every converged point, duplicates included."""
    found = []
    for p in np.array(seeds, dtype=float):
        for _ in range(max_iter):
            ends, mons = flow(sys, p, steps)
            f = ends[0] - p - np.array([0.0, 1.0])
            if np.abs(f).max() < tol:
                found.append(p)
                break
            (a, b), (c, d) = mons[0] - np.eye(2)
            det = a * d - b * c
            if not abs(det) > 1e-12:
                break
            step = np.array([-f[0] * d + f[1] * b, f[0] * c - f[1] * a]) / det
            norm = np.abs(step).max()
            if norm > clamp:
                step *= clamp / norm
            if not np.isfinite(step).all():
                break
            p = p + step
    return found


def _distinct(found):
    """Points reduced mod 1, dropping each within the dedupe radius of an earlier one."""
    unique = []
    for p in found:
        q = np.mod(p, 1.0)
        if not any(_torus_dist(q, u) < _DEDUPE_RADIUS for u in unique):
            unique.append(q)
    return unique


@pytest.mark.parametrize("b", AMPLITUDES)
def test_seed_retirement_keeps_the_first_found_points(b):
    # a seed stopped near a found point would only have found it again
    s = TorusSystem(b)
    seeds = _scan_candidates(s, (48, 24))
    got = _newton_search(s, seeds, 128, NEWTON_TOL)
    want = _distinct(_reference_newton_search(s, seeds, 128, NEWTON_TOL))
    assert len(want) == 2
    assert np.array_equal(np.array(got), np.array(want))


def test_newton_search_stops_early(monkeypatch):
    scanned = []
    calls = []
    scans = []

    def point(bf, state, steps, record):
        if steps == _SCAN_STEPS and not record:
            scanned.append(tuple(state[:2]))
        if steps == SEARCH_STEPS and not record:
            calls.append(tuple(state[:2]))
        return _rk4_point(bf, state, steps, record)

    def scanning(sys, grid):
        scans.append(_scan_candidates(sys, grid))
        return scans[-1]

    monkeypatch.setattr(torus, "_rk4_point", point)
    monkeypatch.setattr(torus, "_scan_candidates", scanning)
    assert len(find_orbits(TorusSystem(Fraction(1, 5)))) == 2
    # the grid scan integrates each grid point once at _SCAN_STEPS; every
    # unrecorded point integration at SEARCH_STEPS is a Newton step, and
    # Newton runs from the scan's seeds in turn, each within the iteration cap
    assert len(scanned) == len(set(scanned)) == 48 * 24
    seeds = scans[0]
    assert len(seeds) == _MAX_SEEDS
    starts = [i for i, p in enumerate(calls) if p in seeds]
    assert starts[0] == 0
    started = [calls[i] for i in starts]
    assert started == [p for p in seeds if p in started]
    assert len(started) <= _MAX_SEEDS
    assert max(np.diff(starts + [len(calls)])) <= 20
    # all seeds in one lockstep batch made 99 point integrations at b = 1/5
    assert len(calls) < 99


def test_newton_search_records_no_point_whose_residual_is_nan(monkeypatch):
    # the flow closes in x and returns a nan y: a max over the two residual
    # components that drops the nan would take the seed as converged
    def closing_in_x(bf, state, steps, record):
        return (state[0], math.nan, 2.0, 0.0, 0.0, 2.0)

    monkeypatch.setattr(torus, "_rk4_point", closing_in_x)
    assert len(_newton_search(TorusSystem(), np.array([(0.3, 0.4)]), SEARCH_STEPS, NEWTON_TOL)) == 0


def test_newton_search_stops_a_seed_at_a_singular_jacobian(monkeypatch):
    # a return map that misses by 0.1 in x with monodromy I gives det(M - I)
    # = 0, so each seed stops after its first integration
    calls = []

    def identity_monodromy(bf, state, steps, record):
        if steps != SEARCH_STEPS or record:
            return _rk4_point(bf, state, steps, record)
        calls.append(tuple(state[:2]))
        return (state[0] + 0.1, state[1] + 1.0, 1.0, 0.0, 0.0, 1.0)

    seeds = _scan_candidates(TorusSystem(), (48, 24))
    monkeypatch.setattr(torus, "_rk4_point", identity_monodromy)
    with pytest.raises(OrbitSearchError, match=VERDICT % (48, 24, NEWTON_TOL, 0, 16)):
        find_orbits(TorusSystem())
    assert calls == seeds


def reference_scan_candidates(sys, grid, steps, cap, stacked=False):
    """_scan_candidates flowing at ``steps`` and keeping at most ``cap``
    seeds, with its separation test pair by pair, one _torus_dist call per
    chosen seed, as it was before one call per candidate.  Each grid point
    flows in reference_point, bit for bit the kernel's, or with ``stacked``
    the whole grid in reference_integrate, which is within 1e-12 of it and
    far faster at 128 steps."""
    nx, ny = grid
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) / ny
    seeds = np.array([(x, y) for x in xs for y in ys])
    if stacked:
        ends, _ = reference_integrate(sys, seeds, steps)
    else:
        ends = np.array([reference_point(sys.bf, (x, y, 1.0, 0.0, 0.0, 1.0), steps, False)[0, :2] for x, y in seeds.tolist()])
    res = np.abs(ends - seeds - np.array([0.0, 1.0])).max(axis=1)
    separation = max(1.0 / nx, 1.0 / ny)
    chosen = []
    for i in np.argsort(res):
        if res[i] > 0.5 or len(chosen) >= cap:
            break
        if all(_torus_dist(seeds[i], seeds[j]) > separation for j in chosen):
            chosen.append(i)
    return seeds[np.array(chosen, dtype=int)]


@pytest.mark.parametrize("steps", [128, 256])
@pytest.mark.parametrize("grid", [(48, 24), (64, 32), (7, 5), (1, 1)], ids="{0[0]}x{0[1]}".format)
def test_scan_keeps_the_seeds_of_the_pairwise_separation_test(monkeypatch, grid, steps):
    # the seeds are the pairwise test's at _SCAN_STEPS, and find_orbits hands
    # them to Newton whatever its search_steps (the 1x1 grid keeps none, and
    # Newton gets the empty list)
    s = TorusSystem()
    want = reference_scan_candidates(s, grid, _SCAN_STEPS, _MAX_SEEDS)
    assert _scan_candidates(s, grid) == [tuple(p) for p in want.tolist()]
    handed = []

    def newton(sys, seeds, search_steps, tol):
        handed.append((seeds, search_steps))
        return []

    monkeypatch.setattr(torus, "_newton_search", newton)
    with pytest.raises(OrbitSearchError, match=VERDICT % (*grid, NEWTON_TOL, 0, len(want))):
        find_orbits(s, grid=grid, search_steps=steps)
    assert handed == [([tuple(p) for p in want.tolist()], steps)]


#: Amplitudes across the admissible interval (0.159155, 0.225079), both ends included.
CAP_AMPLITUDES = [Fraction(n, 10000) for n in (1601, 1620, 1650, 1700, 1800, 1900, 2000, 2100, 2200, 2249)]


#: Grids on which a 40-seed scan keeps 17 to 40 seeds at these amplitudes, so
#: the cap applies; at 32x16 and coarser it keeps at most 15.
@pytest.mark.parametrize("grid", [(40, 20), (48, 24), (64, 32)], ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("b", CAP_AMPLITUDES, ids=str)
def test_capped_search_finds_the_points_of_the_40_seed_search(b, grid):
    # the scan's seeds are the first _MAX_SEEDS of a 40-seed scan's at
    # _SCAN_STEPS, and Newton from them alone converges to the same distinct
    # points, bit for bit, as Newton from a 40-seed scan's at the search's
    # own 128 steps, whose first _MAX_SEEDS seeds differ in most of these cases
    s = TorusSystem(b)
    seeds = _scan_candidates(s, grid)
    longer = reference_scan_candidates(s, grid, _SCAN_STEPS, 40)
    assert len(seeds) == _MAX_SEEDS < len(longer) <= 40
    assert np.array_equal(seeds, longer[: len(seeds)])
    wide = reference_scan_candidates(s, grid, 128, 40, stacked=True)
    got = _newton_search(s, seeds, 128, NEWTON_TOL)
    want = _distinct(_reference_newton_search(s, wide, 128, NEWTON_TOL))
    assert len(want) == 2
    assert np.array_equal(np.array(got), np.array(want))


@pytest.mark.parametrize("b", [Fraction(4, 25), Fraction(2249, 10000)], ids=str)
def test_default_search_finds_both_orbits_near_the_interval_ends(b):
    # a seed filter that kept only the scan's local residual minima found one
    # orbit at b = 4/25 on this grid; the capped list finds both
    orbits = find_orbits(TorusSystem(b))
    assert sorted(o.cz_index for o in orbits) == [1, 2]


@pytest.mark.parametrize("steps", [pytest.param(SEARCH_STEPS, id="default"), 128, 256])
@pytest.mark.parametrize("b", [Fraction(19, 100), Fraction(2087, 10000)], ids=str)
def test_coarse_grid_search_keeps_every_seed_that_leads_to_an_orbit(b, steps):
    # retiring a seed whose residual stalled for three steps dropped the only
    # 12x6 seed that leads to one of these orbits; at 64 and 96 search steps
    # Newton from that seed misses the index-1 orbit at b = 2087/10000
    orbits = find_orbits(TorusSystem(b), grid=(12, 6), search_steps=steps, refine_steps=512)
    assert sorted(o.cz_index for o in orbits) == [1, 2]


@pytest.mark.parametrize("b", [Fraction(n, 10000) for n in (1826, 1841, 1851, 1865, 1876, 1889)], ids=str)
def test_coarse_grid_search_finds_both_orbits_at_the_scan_step_count(b):
    # on the 16x8 grid the scan's step count decides which seeds Newton gets:
    # with _SCAN_STEPS at 4, 5, 7, 8 or 12 the search loses one of these
    # amplitudes' orbits, at 6 it finds both
    orbits = find_orbits(TorusSystem(b), grid=(16, 8), refine_steps=512)
    assert sorted(o.cz_index for o in orbits) == [1, 2]


#: Amplitude, grid and position bound of the step-count comparison.  At
#: b = 2087/10000 on the 12x6 grid Newton's iterates at 128 and 256 steps part
#: before they converge, so the two points agree only within the closure
#: tolerance (4.6e-12 apart); elsewhere they agree to 5e-16.
STEP_COUNT_CASES = [
    pytest.param(b, grid, bound, id="%s-%dx%d" % (b, *grid))
    for b, grid, bound in [(b, grid, 1e-12) for grid in [(16, 8), (48, 24), (64, 32)] for b in AMPLITUDES]
    + [(Fraction(19, 100), (12, 6), 1e-12), (Fraction(2087, 10000), (12, 6), NEWTON_TOL)]
]


@pytest.mark.parametrize("b, grid, bound", STEP_COUNT_CASES)
def test_search_step_count_does_not_move_the_orbits(b, grid, bound):
    # an orbit is a fixed point of the RK4 map at any step count, so Newton
    # at the default steps and at 256 converges to the same points and hands
    # refine the same orbits; at b = 1/5 and 21/100 on the 16x8 grid, where
    # it finds one orbit at both counts, both searches raise the same verdict
    s = TorusSystem(b)
    seeds = _scan_candidates(s, grid)
    points = [sorted(_newton_search(s, seeds, steps, NEWTON_TOL)) for steps in (SEARCH_STEPS, 256)]
    assert len(points[0]) == len(points[1])
    assert all(_torus_dist(g, w) <= bound for g, w in zip(*points))
    if len(points[0]) != 2:
        for steps in (SEARCH_STEPS, 256):
            with pytest.raises(OrbitSearchError, match=VERDICT % (*grid, NEWTON_TOL, len(points[0]), len(seeds))):
                find_orbits(s, grid=grid, search_steps=steps, refine_steps=512)
        return
    got = find_orbits(s, grid=grid, refine_steps=512)
    want = find_orbits(s, grid=grid, search_steps=256, refine_steps=512)
    assert [o.cz_index for o in got] == [o.cz_index for o in want]
    for g, w in zip(got, want):
        assert abs(g.x - w.x) <= bound and abs(g.y - w.y) <= bound
        assert abs(g.det_gap - w.det_gap) <= 1e-9
