"""Property tests (hypothesis) for the closed-form exp/log maps, the
log-derivative operator Psi, the membership test's rotation defect and
the radius within which the horizontal lift converges."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homcrb import groups
from homcrb.groups import AlgebraVector
from homcrb.homspace import coset_error
from homcrb.models import LandmarkModel, se3_element

PROPERTY = settings(max_examples=200)

# Rotation angles on both sides of the small-angle switch (1e-4), through
# the middle range, on both sides of the near-pi switch (pi - 0.1), and up
# to twice the cut-locus margin (1e-6) below pi.
ANGLES = st.one_of(
    st.floats(1e-9, 1e-3),
    st.floats(0.5 * groups._SMALL_ANGLE, 2.0 * groups._SMALL_ANGLE),
    st.floats(1e-3, math.pi - 1e-3),
    st.floats(math.pi - 2.0 * groups._NEAR_PI, math.pi - 0.5 * groups._NEAR_PI),
    st.floats(math.pi - 1e-3, math.pi - 2.0 * groups._CUT_LOCUS_MARGIN),
)
UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) >= 0.1
).map(lambda v: np.asarray(v) / np.linalg.norm(v))
TRANSLATIONS = st.tuples(*[st.floats(-3.0, 3.0)] * 3).map(np.asarray)

# Hypothesis mixes literals mined from the loaded modules into its draws,
# so it does not reliably draw the rows at the switches: each round trip
# pins them with @example. 1.0968e-4 is where the SE(2) exp once lost 5e-9
# relative accuracy, just above the small-angle switch.
SWITCH_ANGLES = (
    groups._SMALL_ANGLE,
    math.pi - groups._NEAR_PI,
    math.pi - 2.0 * groups._CUT_LOCUS_MARGIN,
    1.0968e-4,
)
AXIS = np.array([1.0, 2.0, 2.0]) / 3.0
SHIFT = np.array([0.0, 2.0, 0.0])


def at_switch_angles(*rest):
    """One @example row per switch angle, followed by the arguments rest."""

    def pin(test):
        for angle in SWITCH_ANGLES:
            test = example(angle, *rest)(test)
        return test

    return pin


def assert_round_trip(coords, descriptor):
    X = AlgebraVector(descriptor, coords)
    g = groups.exp(X)
    back = groups.log(g).coords
    assert np.linalg.norm(back - coords) <= 1e-11 * np.linalg.norm(coords)
    again = groups.exp(AlgebraVector(descriptor, back)).matrix
    assert np.abs(again - g.matrix).max() <= 1e-11


@PROPERTY
@given(ANGLES, UNIT)
@at_switch_angles(AXIS)
def test_so3_exp_log_round_trip(angle, axis):
    assert_round_trip(angle * axis, groups.so3())


@PROPERTY
@given(ANGLES, st.booleans(), TRANSLATIONS)
@at_switch_angles(False, SHIFT)
def test_se2_exp_log_round_trip(angle, negative, v):
    theta = -angle if negative else angle
    assert_round_trip(np.concatenate([[theta], v[:2]]), groups.se2())


@PROPERTY
@given(ANGLES, UNIT, TRANSLATIONS)
@at_switch_angles(AXIS, SHIFT)
def test_se3_exp_log_round_trip(angle, axis, v):
    assert_round_trip(np.concatenate([angle * axis, v]), groups.se3())


def lapack_rotation_defect(R):
    return max(
        float(np.abs(R.T @ R - np.eye(R.shape[0])).max()),
        abs(float(np.linalg.det(R)) - 1.0),
    )


@PROPERTY
@given(
    st.sampled_from([2, 3]),
    st.floats(-math.pi, math.pi),
    UNIT,
    st.lists(st.floats(-1e-8, 1e-8), min_size=9, max_size=9),
)
def test_rotation_defect_matches_lapack_determinant(n, angle, axis, noise):
    if n == 2:
        c, s = math.cos(angle), math.sin(angle)
        R = np.array([[c, -s], [s, c]])
    else:
        R = groups.exp(AlgebraVector(groups.so3(), angle * axis)).matrix
    R = R + np.reshape(noise[: n * n], (n, n))
    assert abs(groups._rotation_defect(R[None])[0] - lapack_rotation_defect(R)) <= 1e-15


def ball(dim, radius):
    """Coordinate vectors of norm at most radius."""
    return st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).map(
        lambda v: radius * np.asarray(v) / max(1.0, float(np.linalg.norm(v)))
    )


@PROPERTY
@given(st.sampled_from(["se2", "gl2+"]), st.data())
def test_psi_matches_central_differences_of_log(name, data):
    desc = groups.se2() if name == "se2" else groups.glnplus(2)
    X = AlgebraVector(desc, data.draw(ball(desc.algebra_dim, 1.0)))
    y = data.draw(ball(desc.algebra_dim, 1.0))
    fd = groups.central_difference(
        lambda g: groups.log(g).coords, groups.exp(X), y, 1e-5, groups.LIVF
    )
    assert np.abs(groups.psi_matrix(X).matrix @ y - fd).max() <= 1e-5


TWO_LANDMARKS = LandmarkModel([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]])
# Fiber rotations up to twice the cut-locus margin short of a half turn:
# at a half turn the log of the raw error h exp(y) is at the cut locus.
FIBER_ANGLE = math.pi - 2.0 * groups._CUT_LOCUS_MARGIN


# The half-turn ends of the fiber, with y = 0 and with |y| = 0.5.
HALF_Y = np.array([0.3, 0.0, -0.4, 0.0, 0.0])
POSE = np.array([0.2, -0.1, 0.3, 0.5, -0.4, 0.1])


@PROPERTY
@given(st.floats(-FIBER_ANGLE, FIBER_ANGLE), ball(5, 0.5), ball(6, 1.0))
@example(FIBER_ANGLE, np.zeros(5), POSE)
@example(-FIBER_ANGLE, np.zeros(5), POSE)
@example(FIBER_ANGLE, HALF_Y, POSE)
@example(-FIBER_ANGLE, HALF_Y, POSE)
def test_lift_recovers_errors_within_half_of_the_coset(angle, y, g_coords):
    """An estimate h exp(y) g, with h a rotation about the landmark axis
    through a1 and |y| <= 0.5, lifts back to the m-error y."""
    struct = TWO_LANDMARKS.struct
    a1, a2 = TWO_LANDMARKS.landmarks
    axis = (a1 - a2) / np.linalg.norm(a1 - a2)
    Q = groups.exp(AlgebraVector(groups.so3(), angle * axis)).matrix
    h = se3_element(Q, (np.eye(3) - Q) @ a1)
    g = groups.exp(AlgebraVector(groups.se3(), g_coords))
    est = h @ groups.exp(struct.from_coords(np.concatenate([[0.0], y]))) @ g
    assert np.abs(coset_error(g, est, struct).eta_reduced - y).max() <= 1e-9
