"""Property tests (hypothesis) for the closed-form exp/log maps and the
membership test's rotation defect."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from homcrb import groups
from homcrb.groups import AlgebraVector

PROPERTY = settings(deadline=None, max_examples=200)

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


def assert_round_trip(coords, descriptor):
    X = AlgebraVector(descriptor, coords)
    g = groups.exp(X)
    back = groups.log(g).coords
    assert np.linalg.norm(back - coords) <= 1e-11 * np.linalg.norm(coords)
    again = groups.exp(AlgebraVector(descriptor, back)).matrix
    assert np.abs(again - g.matrix).max() <= 1e-11


@PROPERTY
@given(ANGLES, UNIT)
def test_so3_exp_log_round_trip(angle, axis):
    assert_round_trip(angle * axis, groups.so3())


@PROPERTY
@given(ANGLES, st.booleans(), TRANSLATIONS)
def test_se2_exp_log_round_trip(angle, negative, v):
    theta = -angle if negative else angle
    assert_round_trip(np.concatenate([[theta], v[:2]]), groups.se2())


@PROPERTY
@given(ANGLES, UNIT, TRANSLATIONS)
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
    assert abs(groups._rotation_defect(R) - lapack_rotation_defect(R)) <= 1e-15
