"""The trials of a chunk run as one stack across their m values: every
row of a stack kernel is that row run as a stack of one, bit for bit, and
the closed form written out here; every trial's row is the same in a
stack of one as in a stack of all, and a trial that fails leaves the
stack alone."""

import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from homcrb import crb, groups, homspace, scoring
from homcrb.exceptions import (
    CutLocusError,
    DegenerateFimError,
    DivergenceError,
    DomainError,
    LiftFailureError,
)
from homcrb.groups import AlgebraVector
from homcrb.harness import experiments, load_config, properties
from homcrb.models import GaussianMeanModel, LandmarkModel, SpdModel

PROPERTY = settings(max_examples=100)

# Rotation angles near 0 (both sides of the small-angle switch), generic,
# near pi (both sides of the near-pi switch) and at the cut locus.
ANGLES = st.one_of(
    st.floats(0.0, 1e-3),
    st.floats(0.5 * groups._SMALL_ANGLE, 2.0 * groups._SMALL_ANGLE),
    st.floats(1e-3, math.pi - 1e-3),
    st.floats(math.pi - 2.0 * groups._NEAR_PI, math.pi - 0.5 * groups._NEAR_PI),
    st.floats(math.pi - 4.0 * groups._CUT_LOCUS_MARGIN, math.pi),
)
AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) >= 0.1
).map(lambda v: np.asarray(v) / np.linalg.norm(v))
TRANSLATIONS = st.tuples(*[st.floats(-3.0, 3.0)] * 3).map(np.asarray)
ROW = st.tuples(ANGLES, AXES, TRANSLATIONS, st.booleans())
ALL_FAMILIES = [
    groups.so3(),
    groups.se2(),
    groups.se3(),
    groups.glnplus(2),
    groups.translation_group(2),
]


def coordinates(desc, row):
    angle, axis, v, negative = row
    angle = -angle if negative else angle
    if desc.family == groups.SE2:
        return np.concatenate([[angle], v[:2]])
    if desc.family == groups.GLN_PLUS:
        # [[p + q, r - angle], [r + angle, p - q]]: a complex pair where
        # angle^2 > q^2 + r^2, -e^p I at a half turn with q = r = 0.
        p, q, r = v / 3.0
        return np.array([p + q, r - angle, r + angle, p - q])
    omega = angle * axis
    return omega if desc.family == groups.SO3 else np.concatenate([omega, v])


def so3_terms(omega):
    """(W, W^2, a, b, c) of one rotation vector in Python floats, as in
    the exp closed form: a = sin t / t, b = (1 - cos t) / t^2 and
    c = (t - sin t) / t^3, by Taylor below the small-angle switch."""
    theta = math.sqrt(omega @ omega)
    W = groups.hat(omega)
    if theta < groups._SMALL_ANGLE:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        c = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta**2
        c = (theta - math.sin(theta)) / theta**3
    return W, W @ W, a, b, c


def se2_V(theta):
    if abs(theta) < groups._SMALL_ANGLE:
        t2 = theta * theta
        a, b = 1.0 - t2 / 6.0 + t2 * t2 / 120.0, theta / 2.0 - theta * t2 / 24.0
    else:
        half = math.sin(0.5 * theta)
        a, b = math.sin(theta) / theta, 2.0 * half * half / theta
    return np.array([[a, -b], [b, a]])


def closed_form_exp(x, desc):
    """exp of one coordinate row, written out: the bits the kernel must
    give every row (GL(2)+'s is V diag(e^lambda) V' from eigh where its
    wedge is exactly symmetric, scipy's expm otherwise)."""
    if desc.family == groups.GLN_PLUS:
        W = groups.wedge(x, desc)
        if not np.array_equal(W, W.T):
            return expm(W)
        lam, V = np.linalg.eigh(W)
        return (V * np.exp(lam)) @ V.T
    if desc.family == groups.SE2:
        theta = float(x[0])
        c, s = math.cos(theta), math.sin(theta)
        M = np.eye(3)
        M[:2, :2] = [[c, -s], [s, c]]
        M[:2, 2] = se2_V(theta) @ x[1:]
        return M
    W, W2, a, b, c = so3_terms(x[:3])
    R = np.eye(3) + a * W + b * W2
    if desc.family == groups.SO3:
        return R
    M = np.eye(4)
    M[:3, :3] = R
    M[:3, 3] = (np.eye(3) + b * W + c * W2) @ x[3:]
    return M


def closed_form_so3_log(R):
    cos_theta = min(1.0, max(-1.0, 0.5 * (float(np.trace(R)) - 1.0)))
    theta = math.acos(cos_theta)
    if math.pi - theta < groups._CUT_LOCUS_MARGIN:
        raise CutLocusError(
            f"rotation angle {theta:.9f} within {groups._CUT_LOCUS_MARGIN} of pi"
        )
    skew = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < groups._SMALL_ANGLE:
        t2 = theta * theta
        return (1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0) * skew
    if math.pi - theta < groups._NEAR_PI:
        return groups._so3_log_near_pi(R, cos_theta, skew)
    return (theta / math.sin(theta)) * skew


def gl2_log_terms(M):
    """(t, h, delta, s, det) of a 2 x 2 matrix in Python floats: t = tr / 2,
    h = (a - d) / 2 and delta = h^2 + bc, with s = sqrt|delta|."""
    (a, b), (c, e) = M.tolist()
    t, h = 0.5 * (a + e), 0.5 * (a - e)
    delta = h * h + b * c
    return t, h, delta, math.sqrt(abs(delta)), a * e - b * c


def closed_form_gl2_log(M):
    """log M = log(det M) / 2 I + k (M - t I), written out."""
    t, h, delta, s, det = gl2_log_terms(M)
    if det <= 0 or (delta >= 0 and t <= s) or (delta < 0 and t < 0 and s < 1e-12):
        smaller = abs(abs(t) - s) if delta >= 0 else math.hypot(t, s)
        if det == 0 or smaller <= 1e-12 * np.abs(M).max():
            raise DomainError("matrix is singular; principal log undefined")
        raise DomainError("matrix has real-negative eigenvalues; principal log undefined")
    t2 = t * t
    if t > 0 and abs(delta) < groups._GL2_SERIES * t2:
        u = delta / t2
        k = (1.0 + u * (1 / 3 + u * (1 / 5 + u * (1 / 7 + u * (1 / 9 + u * (1 / 11)))))) / t
    elif delta < 0:
        k = math.atan2(s, t) / s
    else:
        k = math.atanh(s / t) / s
    half_log_det = 0.5 * math.log(det)
    (_, b), (c, _) = M.tolist()
    return np.array([half_log_det + k * h, k * b, k * c, half_log_det - k * h])


def closed_form_log(M, desc):
    """log of one matrix, written out, raising where the kernel reports
    the row as failed."""
    if desc.family == groups.GLN_PLUS:
        return closed_form_gl2_log(M)
    if desc.family == groups.SE2:
        theta = math.atan2(M[1, 0], M[0, 0])
        if math.pi - abs(theta) < groups._CUT_LOCUS_MARGIN:
            raise CutLocusError(f"rotation angle {theta:.9f} within margin of pi")
        return np.concatenate([[theta], np.linalg.solve(se2_V(theta), M[:2, 2])])
    omega = closed_form_so3_log(M[:3, :3])
    if desc.family == groups.SO3:
        return omega
    theta = math.sqrt(omega @ omega)
    if theta < groups._SMALL_ANGLE:
        c = 1.0 / 12.0
    elif math.pi - theta < groups._NEAR_PI:
        c = 1.0 / theta**2 - math.sin(theta) / (2.0 * theta * (1.0 - math.cos(theta)))
    else:
        c = 1.0 / theta**2 - (1.0 + math.cos(theta)) / (2.0 * theta * math.sin(theta))
    W = groups.hat(omega)
    J_inv = np.eye(3) - 0.5 * W + c * (W @ W)
    return np.concatenate([omega, J_inv @ M[:3, 3]])


def described(errors):
    return {i: (type(e), str(e)) for i, e in errors.items()}


def per_row(kernel, mats, desc):
    """kernel of each row, NaN and {row: (class, message)} where it
    raises."""
    out, errors = [], {}
    for i, M in enumerate(mats):
        try:
            out.append(kernel(M, desc))
        except Exception as exc:  # noqa: BLE001 - compared below
            out.append(np.full(desc.algebra_dim, np.nan))
            errors[i] = (type(exc), str(exc))
    return np.array(out), errors


def log_alone(M, desc):
    """_log_stack of one matrix as a stack of one, raising its error."""
    coords, errors = groups._log_stack(M[None], desc)
    if errors:
        raise errors[0]
    return coords[0]


def principal_logm(M):
    # logm warns when its own error estimate exceeds 1e-13; the accuracy
    # is checked here directly.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return logm(M)


def assert_rows_independent(x, desc):
    """Each row of the exp, log and membership stacks of x is that row run
    as a stack of one, bit for bit, failures included; returns the exp
    and log stacks and the log errors."""
    mats = groups._exp_stack(x, desc)
    assert np.array_equal(mats, [groups._exp_stack(r[None], desc)[0] for r in x])
    logs, errors = groups._log_stack(mats, desc)
    alone, alone_errors = per_row(log_alone, mats, desc)
    assert np.array_equal(logs, alone, equal_nan=True)
    assert described(errors) == alone_errors
    defects, bad = groups._membership_stack(mats, desc)
    assert not bad
    alone = [groups._membership_stack(M[None], desc)[0][0] for M in mats]
    assert np.array_equal(defects, alone)
    return mats, logs, errors


def log_angle(y, desc):
    """The rotation angle of a log: for GL(2)+ the imaginary part of its
    eigenvalues, where its traceless part N has det N = angle^2."""
    if desc.family == groups.GLN_PLUS:
        N = groups.wedge(y, desc) - 0.5 * (y[0] + y[3]) * np.eye(2)
        return math.sqrt(max(0.0, np.linalg.det(N)))
    return abs(y[0]) if desc.family == groups.SE2 else np.linalg.norm(y[:3])


def assert_accurate(x, mats, logs, errors, desc, tol=1e-12):
    """exp against expm of the wedge; log against logm where the log is
    well conditioned (an angle at least _NEAR_PI short of pi: the
    condition of logm grows as 1 / (pi - angle)) and, on every row that
    has a log, exp of the wedge of the log against the matrix."""
    for i, (r, M, y) in enumerate(zip(x, mats, logs)):
        assert np.abs(M - expm(groups.wedge(r, desc))).max() <= tol
        if i in errors:
            continue
        Y = groups.wedge(y, desc)
        assert np.abs(expm(Y) - M).max() <= tol
        if log_angle(y, desc) <= math.pi - groups._NEAR_PI:
            assert np.abs(Y - principal_logm(M)).max() <= tol


@PROPERTY
@given(
    st.sampled_from([groups.so3(), groups.se2(), groups.se3(), groups.glnplus(2)]),
    st.lists(ROW, min_size=2, max_size=8),
)
# Angle 0 makes a GL(2)+ wedge symmetric: its exp takes eigh, not expm.
@example(
    desc=groups.glnplus(2),
    rows=[
        (0.0, np.array([0.0, 0.0, 1.0]), np.array([0.9, -0.6, 1.5]), False),
        (0.5, np.array([0.0, 0.0, 1.0]), np.array([0.3, 0.6, -1.2]), True),
    ],
)
def test_stack_kernel_rows_do_not_depend_on_the_stack(desc, rows):
    """Every row of exp, log and membership stacks is the row run alone,
    bit for bit, and the closed form written out above."""
    x = np.array([coordinates(desc, r) for r in rows])
    mats, logs, errors = assert_rows_independent(x, desc)
    assert np.array_equal(mats, [closed_form_exp(r, desc) for r in x])
    ref, ref_errors = per_row(closed_form_log, mats, desc)
    assert np.array_equal(logs, ref, equal_nan=True)
    assert described(errors) == ref_errors
    assert_accurate(x, mats, logs, errors, desc)


def test_stack_kernels_cover_every_branch(monkeypatch):
    """The property test's strategies reach each branch; checked here on
    fixed rows so that a narrowed strategy cannot skip one. A symmetric
    GL(2)+ row alone makes no expm call; in a stack with a non-symmetric
    row, expm sees that row only."""
    desc = groups.se3()
    axis = np.array([0.6, 0.0, 0.8])
    angles = [0.0, 1e-5, 1.0, math.pi - 0.05, math.pi - 1e-7]
    x = np.array([np.concatenate([a * axis, [0.3, -0.2, 0.1]]) for a in angles])
    mats, logs, errors = assert_rows_independent(x, desc)
    assert list(errors) == [4] and isinstance(errors[4], CutLocusError)
    ref, _ = per_row(closed_form_log, mats, desc)
    assert np.array_equal(logs, ref, equal_nan=True)
    assert_accurate(x, mats, logs, errors, desc)

    desc = groups.glnplus(2)
    x = np.array([[0.3, -0.2, -0.2, 1.1], [0.3, -0.7, 0.4, 1.1], [-1.5, 0.8, 0.8, 0.0]])
    rows = []
    inner = groups.expm
    monkeypatch.setattr(groups, "expm", lambda A: rows.append(len(A)) or inner(A))
    groups._exp_stack(x[:1], desc)
    assert rows == []
    groups._exp_stack(x, desc)
    assert rows == [1]
    monkeypatch.undo()
    mats, logs, errors = assert_rows_independent(x, desc)
    assert np.array_equal(mats, [closed_form_exp(r, desc) for r in x])
    assert not errors
    assert_accurate(x, mats, logs, errors, desc)


def test_se2_exp_is_accurate_just_above_the_small_angle_switch():
    """SE(2) rows just above the small-angle switch with a long
    translation, where b = (1 - cos t) / t would cancel and miss expm by
    2e-12: exp within the suite's 1e-12 of expm, and the log back to the
    row."""
    desc = groups.se2()
    x = np.array([[1.0968e-4, 0.0, 10.0], [1.0968e-4, 10.0, 0.0]])
    mats, logs, errors = assert_rows_independent(x, desc)
    assert not errors
    assert np.array_equal(mats, [closed_form_exp(r, desc) for r in x])
    assert_accurate(x, mats, logs, errors, desc)
    assert np.abs(logs - x).max() <= 1e-12


def rotation(angle, scale=1.0):
    c, s = math.cos(angle), math.sin(angle)
    return scale * np.array([[c, -s], [s, c]])


def test_gl2_log_covers_every_branch():
    """GL(2)+'s closed-form log on fixed rows, one per branch: each row is
    the row alone and the closed form written out above, bit for bit;
    logm to 1e-12 where it is well conditioned; the exact log of a
    rotation 1e-7 short of a half turn; DomainError where there is no
    real log; NaN for a non-finite row."""
    desc = groups.glnplus(2)
    switch = groups._GL2_SERIES
    # Near the identity, u = delta / t^2 = (x / t)^2 below and above the switch.
    x_below, x_above = 0.9 * math.sqrt(switch), 1.1 * math.sqrt(switch)
    rows = {
        "identity": np.eye(2),
        "series below": 1.1 * np.array([[1.0, x_below], [x_below, 1.0]]),
        "closed form above": 1.1 * np.array([[1.0, x_above], [x_above, 1.0]]),
        "real pair": np.array([[3.0, 1.0], [0.5, 1.0]]),
        "complex pair": rotation(1.0, 2.0),
        "complex pair, t < 0": rotation(2.5, 0.7),
        "jordan": np.array([[2.0, 1.0], [0.0, 2.0]]),
        "shear": np.array([[1.0, 1.0], [0.0, 1.0]]),
        "near pi": rotation(math.pi - 1e-7, 1.5),
        "-I": -np.eye(2),
        "diag(-1, -2)": np.diag([-1.0, -2.0]),
        "negative jordan": np.array([[-1.0, 1.0], [0.0, -1.0]]),
        "singular": np.array([[1.0, 2.0], [2.0, 4.0]]),
        "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    }
    names, mats = list(rows), np.array(list(rows.values()))
    terms = {name: gl2_log_terms(M) for name, M in rows.items()}
    u = {name: delta / t**2 for name, (t, _, delta, _, _) in terms.items()}
    assert abs(u["series below"]) < switch < abs(u["closed form above"]) < 1.5 * switch
    assert u["jordan"] == u["shear"] == 0.0
    assert u["real pair"] > switch and u["complex pair"] < -switch

    logs, errors = groups._log_stack(mats, desc)
    alone, alone_errors = per_row(log_alone, mats, desc)
    assert np.array_equal(logs, alone, equal_nan=True)
    assert described(errors) == alone_errors
    finite = [i for i, M in enumerate(mats) if np.isfinite(M).all()]
    ref, ref_errors = per_row(closed_form_log, mats[finite], desc)
    assert np.array_equal(logs[finite], ref, equal_nan=True)
    assert {names[finite[i]] for i in ref_errors} == {
        "-I", "diag(-1, -2)", "negative jordan", "singular"
    }
    assert {names[i] for i in errors} == {names[finite[i]] for i in ref_errors}
    for i, exc in errors.items():
        assert isinstance(exc, DomainError)
        reason = "is singular" if names[i] == "singular" else "has real-negative eigenvalues"
        assert str(exc) == f"matrix {reason}; principal log undefined"
    assert np.isnan(logs[names.index("nan")]).all()

    exact = np.array([math.log(1.5), -(math.pi - 1e-7), math.pi - 1e-7, math.log(1.5)])
    assert np.abs(logs[names.index("near pi")] - exact).max() <= 1e-12
    for i, (name, M) in enumerate(rows.items()):
        if i in errors or name in ("nan", "near pi"):
            continue
        Y = groups.wedge(logs[i], desc)
        assert np.abs(Y - principal_logm(M)).max() <= 1e-12, name
        assert np.abs(expm(Y) - M).max() <= 1e-12, name


def orthogonal(n, rng):
    """A random orthogonal n x n matrix from the SO(2) and SO(3) closed
    forms, not from eigh: a plane rotation for n = 2, otherwise the
    product of rotations of the coordinate 3-spaces (k, k + 1, k + 2)."""
    if n == 2:
        return rotation(rng.uniform(-math.pi, math.pi))
    Q = np.eye(n)
    for k in range(n - 2):
        W, W2, a, b, _ = so3_terms(rng.uniform(-2.0, 2.0, 3))
        R = np.eye(n)
        R[k : k + 3, k : k + 3] = np.eye(3) + a * W + b * W2
        Q = Q @ R
    return Q


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_glnplus_exp_is_accurate(n, rng):
    """300 exactly symmetric wedges Q diag(lambda) Q' with |lambda| <= 10,
    a third with a repeated eigenvalue and a sixth with one eigenvalue:
    exp within 1e-13 relative of Q diag(e^lambda) Q' and 1e-11 of expm;
    a zero wedge gives I exactly; in a stack with non-symmetric rows each
    row is the row alone, and the non-symmetric rows are expm's bits."""
    desc = groups.glnplus(n)
    lam = rng.uniform(-10.0, 10.0, (300, n))
    lam[:100, 1] = lam[:100, 0]
    lam[:50] = lam[:50, :1]
    Q = np.array([orthogonal(n, rng) for _ in lam])
    W = (Q * lam[:, None, :]) @ Q.swapaxes(1, 2)
    W = 0.5 * (W + W.swapaxes(1, 2))
    ref = (Q * np.exp(lam)[:, None, :]) @ Q.swapaxes(1, 2)
    mats = groups._exp_stack(W.reshape(-1, n * n), desc)
    scale = np.abs(ref).max(axis=(1, 2))
    assert (np.abs(mats - ref).max(axis=(1, 2)) <= 1e-13 * scale).all()
    assert (np.abs(mats - expm(W)).max(axis=(1, 2)) <= 1e-11 * scale).all()

    # Symmetric and general rows in turn, then a zero wedge.
    x = np.zeros((13, n * n))
    x[0:12:2] = W[:6].reshape(-1, n * n)
    x[1:12:2] = rng.standard_normal((6, n * n))
    mixed = groups._exp_stack(x, desc)
    assert np.array_equal(mixed, [groups._exp_stack(r[None], desc)[0] for r in x])
    assert np.array_equal(mixed[1:12:2], expm(x[1:12:2].reshape(-1, n, n)))
    assert np.array_equal(mixed[12], np.eye(n))


def test_glnplus_stack_exp_matches_expm_bitwise(rng):
    for desc in (groups.glnplus(3), groups.translation_group(2)):
        x = rng.standard_normal((6, desc.algebra_dim))
        stacked = groups._exp_stack(x, desc)
        assert np.array_equal(stacked, [expm(groups.wedge(r, desc)) for r in x])
        assert np.array_equal(stacked, [groups._exp_stack(r[None], desc)[0] for r in x])
        logs, errors = groups._log_stack(stacked, desc)
        assert not errors
        for y, M in zip(logs, stacked):
            # logm is not bit-reproducible from call to call, so only to 1e-12.
            assert np.abs(groups.wedge(y, desc) - principal_logm(M)).max() <= 1e-12


def test_glnplus_logm_rows_do_not_depend_on_the_global_rng():
    """logm's norm estimator draws from numpy's legacy global RNG: a
    GL(3)+ log has the same bits under every np.random.seed, and leaves
    the caller's state as it found it. The 134th of these elements gave
    two bit patterns over seeds 0-19 when logm ran from the caller's state."""
    rng = np.random.default_rng(0)
    desc = groups.glnplus(3)
    mats = [expm(0.5 * rng.standard_normal((3, 3))) for _ in range(136)]
    elements = [groups.GroupElement(desc, M) for M in mats[128:]]
    bits = collections.defaultdict(set)
    for seed in range(20):
        np.random.seed(seed)
        for k, g in enumerate(elements):
            before = np.random.get_state()
            bits[k].add(groups.log(g).coords.tobytes())
            after = np.random.get_state()
            assert before[0] == after[0] and np.array_equal(before[1], after[1])
            assert before[2:] == after[2:]
    assert all(len(patterns) == 1 for patterns in bits.values())


def test_glnplus_logm_rows_fail_alone(monkeypatch):
    """A non-finite GL(3)+ row logs as NaN; a singular row, one whose
    Schur form has a diagonal entry below 1e-20 (logm's warning) and one
    with a real-negative eigenvalue raise DomainError, and so does a log
    that expm does not take back to its row; the other rows keep their
    logs."""
    desc = groups.glnplus(3)
    good = expm(0.3 * np.arange(9.0).reshape(3, 3) / 9.0)
    singular = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0], [1.0, 3.0, 4.0]])
    nearly = np.array([[2.0, 1.0, 0.0], [0.0, 1e-30, 1.0], [0.0, 0.0, 3.0]])
    mats = np.array([good, np.diag([1.0, 2.0, 0.0]), singular, nearly, -good, good])
    mats[5, 0, 1] = np.inf
    logs, errors = groups._log_stack(mats, desc)
    assert sorted(errors) == [1, 2, 3, 4]
    for i in (1, 2):
        assert str(errors[i]) == "matrix is singular; principal log undefined"
    assert "nearly singular" in str(errors[3])
    assert str(errors[4]) == "matrix has real-negative eigenvalues; principal log undefined"
    assert all(isinstance(exc, DomainError) for exc in errors.values())
    assert np.isnan(logs[1:]).all()
    assert np.abs(expm(groups.wedge(logs[0], desc)) - good).max() <= 1e-12
    monkeypatch.setattr(groups, "logm", lambda M: 1.001 * principal_logm(M))
    logs, errors = groups._log_stack(mats[:1], desc)
    assert isinstance(errors[0], DomainError)
    assert "relative residual" in str(errors[0]) and np.isnan(logs).all()


def test_the_psi_suite_runs_no_logm(monkeypatch):
    """GL(2)+'s rows take the closed-form log, not scipy's logm."""
    calls = collections.Counter()
    inner = groups.logm
    monkeypatch.setattr(groups, "logm", lambda M: calls.update(["logm"]) or inner(M))
    assert properties.suite_psi(1) == (400, [])
    assert calls["logm"] == 0


@pytest.mark.parametrize("seed, logm_worst", [(1, 3.743e-9), (2, 5.352e-9), (11, 1.192e-9)])
def test_the_psi_suite_gl2_deviations_stay_those_of_logm(monkeypatch, seed, logm_worst):
    """With every check failing, the worst GL(2)+ deviation of Psi from the
    central difference is within 10% of what it was through logm."""
    monkeypatch.setattr(properties, "PSI_TOL", -1.0)
    checks, failures = properties.suite_psi(seed)
    assert len(failures) == checks == 400
    prefix = f"psi[{groups.glnplus(2).name}#"
    worst = max(float(f.split()[2]) for f in failures if f.startswith(prefix))
    assert abs(worst - logm_worst) <= 0.1 * logm_worst


def test_product_stack_kernels_match_per_factor_kernels(rng):
    prod = groups.product_group([groups.se2(), groups.so3(), groups.se3(), groups.se2()])
    x = 0.8 * rng.standard_normal((5, prod.algebra_dim))
    mats = groups._exp_stack(x, prod)
    for row, M in zip(x, mats):
        dense = groups.block_diagonal(
            [groups._exp_stack(row[cols][None], f)[0] for f, _, cols in prod.blocks]
        )
        assert np.array_equal(M, dense)
        assert np.abs(M - expm(groups.wedge(row, prod))).max() <= 1e-12
    logs, errors = groups._log_stack(mats, prod)
    assert not errors
    for row, M in zip(logs, mats):
        parts = [log_alone(M[rows, rows], f) for f, rows, _ in prod.blocks]
        assert np.array_equal(row, np.concatenate(parts))
        assert np.abs(groups.wedge(row, prod) - principal_logm(M)).max() <= 1e-12


def test_a_rotation_with_a_non_finite_trace_logs_as_nan():
    """Alone or beside a small-angle row, a rotation block whose trace is
    NaN has a NaN log, never a finite one."""
    for desc in (groups.so3(), groups.se3()):
        bad = np.eye(desc.matrix_dim)
        bad[0, 0] = np.nan
        small = groups._exp_stack(np.full((1, desc.algebra_dim), 1e-6), desc)[0]
        for mats in ([bad], [bad, small]):
            coords, errors = groups._log_stack(np.array(mats), desc)
            assert np.isnan(coords[0]).all() and not errors


def test_exp_log_and_membership_have_one_path(monkeypatch):
    """exp, log and the GroupElement test each run their stack kernel once,
    on a stack of one, and the S^2 suite lifts all its pairs as one
    stack: no second one-element path."""
    calls = collections.Counter()

    def counted(owner, name):
        inner = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *a, **k: calls.update([name]) or inner(*a, **k)
        )

    for name in ("_exp_stack", "_log_stack", "_membership_stack"):
        counted(groups, name)
    counted(homspace, "coset_errors")
    counted(homspace, "coset_error")
    for desc in ALL_FAMILIES:
        calls.clear()
        g = groups.exp(AlgebraVector(desc, np.full(desc.algebra_dim, 0.3)))
        assert calls == {"_exp_stack": 1, "_membership_stack": 1}
        calls.clear()
        groups.log(g)
        assert calls == {"_log_stack": 1}
        calls.clear()
        groups.GroupElement(desc, g.matrix)
        assert calls == {"_membership_stack": 1}
    calls.clear()
    assert properties.suite_sphere(1) == (100, [])
    assert (calls["coset_errors"], calls["coset_error"]) == (1, 0)


# ---------------------------------------------------------------------------
# Factor-stack membership


def test_factor_stack_membership_rejects_off_block_and_bad_factor(rng):
    prod = groups.product_group([groups.se2()] * 5)
    g = groups.random_element(prod, rng, 0.5)
    off = np.array(g.matrix)
    off[1, 7] = 1e-3  # between agents 0 and 2
    with pytest.raises(ValueError, match="block diagonal"):
        groups.GroupElement(prod, off)
    bad = np.array(g.matrix)
    bad[6:8, 6:8] *= 1.01  # agent 2's rotation
    with pytest.raises(ValueError, match="rotation block is not in SO\\(2\\)"):
        groups.GroupElement(prod, bad)
    # In a stack each row is judged alone, the first bad factor first.
    both = np.array(bad)
    both[0:2, 0:2] *= 1.0 + 1e-6  # agent 0: a smaller defect, but earlier
    both[1, 7] = 1e-3
    defects, errors = groups._membership_stack(
        np.stack([g.matrix, off, bad, both]), prod
    )
    assert set(errors) == {1, 2, 3}
    assert "block diagonal" in str(errors[1])
    assert "SO(2)" in str(errors[2]) and "SO(2)" in str(errors[3])
    assert defects[0] == g.defect
    assert defects[2] == pytest.approx(0.0201, rel=1e-9)


# ---------------------------------------------------------------------------
# Row independence: a stack of one per trial against a stack of all


def stack_rows(ctx, kind, seed, items):
    return experiments._estimation_stack(ctx, kind, seed, items)


def alone_rows(ctx, kind, seed, items):
    return [stack_rows(ctx, kind, seed, [item])[0] for item in items]


def triples(m_values, trials):
    """The (m_index, m, trial) triples of the trials at each m, m by m."""
    return [(mi, m, t) for mi, m in enumerate(m_values) for t in trials]


def context(doc):
    config = load_config(doc)
    return experiments._CONTEXTS[config.experiment](config), config.seed


TRIANGLE = {
    "positions": [[0.0, 0.0], [0.0, 1.0], [0.9, 0.6]],
    "edges": [[0, 1], [1, 2], [0, 2]],
    "sigmas": 0.3,
}


@pytest.mark.parametrize(
    "doc, m_values, n_trials",
    [
        ({"experiment": "landmark", "seed": 11}, [10, 100], 200),
        ({"experiment": "spd", "seed": 12}, [10, 100], 60),
        ({"experiment": "network", "seed": 13, "network": TRIANGLE}, [10, 100], 20),
    ],
    ids=["landmark", "spd", "triangle-network"],
)
def test_rows_do_not_depend_on_the_stack(doc, m_values, n_trials):
    """A stack of one m and a stack of every m give each trial the row it
    gets alone."""
    ctx, seed = context(doc)
    kind = doc["experiment"]
    items = triples(m_values, range(n_trials))
    alone = alone_rows(ctx, kind, seed, items)
    assert stack_rows(ctx, kind, seed, items) == alone
    for m_index in range(len(m_values)):
        part = slice(m_index * n_trials, (m_index + 1) * n_trials)
        stacked = stack_rows(ctx, kind, seed, items[part])
        assert stacked == alone[part]
        assert sum(r["status"] == "ok" for r in stacked) >= 0.9 * n_trials


@pytest.mark.parametrize("fim_mode", ["analytic", "monte-carlo"])
def test_campaign_bytes_do_not_depend_on_workers(fim_mode):
    """With 2 workers the m = 100 trials split 2 + 2 across the chunks and
    run alone, the other m as one stack per chunk."""
    doc = {
        "experiment": "landmark",
        "seed": 1,
        "n_trials": 4,
        "m_values": [10, 100, 1000],
        "scoring": {"fim_mode": fim_mode, "mc_fim_samples": 200},
    }
    texts = [
        experiments.run_landmark_experiment(load_config({**doc, "workers": w})).to_csv_text()
        for w in (1, 1, 2)
    ]
    body = [[l for l in t.splitlines() if not l.startswith("# workers")] for t in texts]
    assert body[0] == body[1] == body[2]


MONTE_CARLO = {"fim_mode": "monte-carlo", "mc_fim_samples": 200}
MULTISTART = {
    "landmarks": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]],
    "true_pose": {
        "rotation_axis": [0.3, 1.0, 0.4],
        "rotation_angle": 1.2,
        "translation": [0.4, -0.3, 0.5],
    },
    "initializations": [[0.0] * 6, [0.5, 0.0, 0.0, 0.0, 0.0, 0.0]],
}


@pytest.mark.parametrize(
    "doc",
    [
        {"experiment": "landmark", "scoring": MONTE_CARLO},
        {"experiment": "network", "network": TRIANGLE, "scoring": {"fim_mode": "frozen-at-initial"}},
        {"experiment": "network", "network": TRIANGLE, "scoring": MONTE_CARLO},
        {"experiment": "landmark", "landmark": MULTISTART},
    ],
    ids=["landmark-monte-carlo", "network-frozen", "network-monte-carlo", "landmark-multistart"],
)
def test_rows_do_not_depend_on_the_stack_in_every_mode(doc):
    ctx, seed = context({**doc, "seed": 1})
    kind = doc["experiment"]
    items = triples([100], range(4))
    assert stack_rows(ctx, kind, seed, items) == alone_rows(ctx, kind, seed, items)


# ---------------------------------------------------------------------------
# Failure isolation


class DivergingLandmark(LandmarkModel):
    """A landmark model whose log-likelihood turns -inf after the first
    step for the trial whose mean observation starts with `marker`."""

    marker = None

    def evaluate(self, summary, G, with_fim=True):
        ll, grad, F = super().evaluate(summary, G, with_fim)
        moved = ~(G == np.eye(4)).all(axis=(-2, -1))
        return np.where((summary[1][:, 0, 0] == self.marker) & moved, -np.inf, ll), grad, F


def test_a_diverging_trial_leaves_the_stack_alone():
    ctx, seed = context({"experiment": "landmark", "seed": 5})
    model, g_true, inits, opts = ctx
    diverging = DivergingLandmark(model.landmarks)
    rng = np.random.default_rng([seed, 0, 3])
    diverging.marker = diverging.summarize(diverging.sample(g_true, 100, rng))[1][0, 0]
    ctx = (diverging, g_true, inits, opts)
    # Trial 3 diverges at m = 100 only; in the stack of both m every other
    # row, the m = 10 rows included, keeps its own place and bytes.
    for items in (triples([100], range(8)), triples([100, 10], range(8))):
        stacked = stack_rows(ctx, "landmark", seed, items)
        alone = alone_rows(ctx, "landmark", seed, items)
        assert stacked[3]["status"] == alone[3]["status"] == "failed:DivergenceError"
        assert [r["status"] for r in stacked].count("failed:DivergenceError") == 1
        assert stacked == alone
        clean = stack_rows((model, g_true, inits, opts), "landmark", seed, items)
        assert [r for i, r in enumerate(stacked) if i != 3] == [
            r for i, r in enumerate(clean) if i != 3
        ]


class DivergingSpd(SpdModel):
    """An SPD model whose log-likelihood turns -inf after the first step
    for the trial whose sample second moment starts with `marker`."""

    marker = None

    def evaluate(self, summary, G, with_fim=True):
        ll, grad, F = super().evaluate(summary, G, with_fim)
        moved = ~(G == np.eye(self.n)).all(axis=(-2, -1))
        return np.where((summary[1][:, 0, 0] == self.marker) & moved, -np.inf, ll), grad, F


def test_a_diverging_spd_trial_leaves_the_stack_alone():
    ctx, seed = context({"experiment": "spd", "seed": 6})
    model, g_true, inits, opts = ctx
    diverging = DivergingSpd(model.n)
    rng = np.random.default_rng([seed, 0, 2])
    diverging.marker = diverging.summarize(diverging.sample(g_true, 50, rng))[1][0, 0]
    ctx = (diverging, g_true, inits, opts)
    items = triples([50], range(6))
    stacked = stack_rows(ctx, "spd", seed, items)
    alone = alone_rows(ctx, "spd", seed, items)
    assert stacked[2]["status"] == alone[2]["status"] == "failed:DivergenceError"
    assert stacked == alone
    clean = stack_rows((model, g_true, inits, opts), "spd", seed, items)
    assert [r for i, r in enumerate(stacked) if i != 2] == [
        r for i, r in enumerate(clean) if i != 2
    ]
    assert all("frobenius_gap" in r for i, r in enumerate(stacked) if i != 2)


def test_a_trial_diverging_from_a_later_start_leaves_the_stack_alone(monkeypatch):
    """Trial 2 diverges from the second starting point only: its row
    fails and every other row keeps its own multistart spread."""
    stack, one = scoring.fisher_scoring_stack, scoring.fisher_scoring

    def forced(entropy):
        return tuple(entropy[2:]) == (2, 1)

    def stack_diverging(model, summary, G0, opts=None, random_states=None):
        traces, failed = stack(model, summary, G0, opts, random_states)
        for k, e in enumerate(random_states):
            if forced(e):
                failed[k] = DivergenceError("forced")
        return traces, failed

    def one_diverging(model, observations, g0, opts=None, random_state=None):
        if forced(random_state):
            raise DivergenceError("forced")
        return one(model, observations, g0, opts, random_state)

    ctx, seed = context({"experiment": "landmark", "seed": 7, "landmark": MULTISTART})
    items = triples([100], range(6))
    clean = stack_rows(ctx, "landmark", seed, items)
    monkeypatch.setattr(scoring, "fisher_scoring_stack", stack_diverging)
    monkeypatch.setattr(scoring, "fisher_scoring", one_diverging)
    stacked = stack_rows(ctx, "landmark", seed, items)
    alone = alone_rows(ctx, "landmark", seed, items)
    assert stacked[2]["status"] == alone[2]["status"] == "failed:DivergenceError"
    assert stacked == alone
    assert [r for i, r in enumerate(stacked) if i != 2] == [
        r for i, r in enumerate(clean) if i != 2
    ]
    assert all("multistart_max_coset" in r for i, r in enumerate(stacked) if i != 2)


def test_a_diverging_row_raises_alone_through_fisher_scoring(rng):
    model = GaussianMeanModel(1)
    g0 = model.element([-3.0])
    obs = [model.sample(model.element([2.0]), 40, rng) for _ in range(3)]
    finite = model.evaluate
    bad_mean = obs[1].mean()

    def evaluate(s, G, with_fim=True):
        ll, grad, F = finite(s, G, with_fim)
        bad = (s[1][:, 0] == bad_mean) & (G[:, 0, 1] != g0.matrix[0, 1])
        return np.where(bad, np.nan, ll), grad, F

    model.evaluate = evaluate
    summary = scoring.stack_summaries([model.summarize(o) for o in obs])
    G0 = np.broadcast_to(g0.matrix, (3, 2, 2))
    traces, failed = scoring.fisher_scoring_stack(model, summary, G0)
    assert list(failed) == [1] and isinstance(failed[1], DivergenceError)
    with pytest.raises(DivergenceError):
        scoring.fisher_scoring(model, obs[1], g0)
    for i in (0, 2):
        alone = scoring.fisher_scoring(model, obs[i], g0)
        assert traces[i].logliks == alone.logliks
        assert np.array_equal(traces[i].final.matrix, alone.final.matrix)


def sphere_estimates(rng):
    """A reference rotation and four S^2 estimates of it, of which 1 and 2
    fail their lift."""
    s2 = homspace.sphere_structure()
    g = groups.random_element(groups.so3(), rng, 0.5)
    flip = groups.GroupElement(groups.so3(), np.diag([1.0, -1.0, -1.0]))
    far = groups.exp(
        AlgebraVector(groups.so3(), np.array([-2.6004366, -1.28082679, 0.08492474]))
    )
    ests = [
        g @ groups.exp(s2.from_coords(np.array([0.0, 0.3, -0.2]))),
        g @ flip,  # the relative element is a rotation by pi: the cut locus
        g @ far,  # nearly antipodal coset: the lift does not converge
        g @ groups.exp(s2.from_coords(np.array([0.0, -0.1, 0.5]))),
    ]
    return s2, g, ests


def test_a_lift_at_the_cut_locus_leaves_the_stack_alone(rng):
    s2, g, ests = sphere_estimates(rng)
    lifted = homspace.coset_errors(g, np.array([e.matrix for e in ests]), s2)
    assert sorted(lifted.errors) == [1, 2]
    assert isinstance(lifted.errors[1].__cause__, CutLocusError)
    for i in (1, 2):
        with pytest.raises(LiftFailureError) as alone:
            homspace.coset_error(g, ests[i], s2)
        assert type(lifted.errors[i]) is LiftFailureError
        assert str(alone.value) == str(lifted.errors[i])
        assert alone.value.iterations == lifted.errors[i].iterations
    for i in (0, 3):
        ce = homspace.coset_error(g, ests[i], s2)
        assert np.array_equal(ce.eta_struct, lifted.eta_struct[i])
        assert np.array_equal(ce.raw, lifted.raw[i])
        assert ce.iterations == lifted.iterations[i]
    with pytest.raises(LiftFailureError, match="trial 1"):
        crb.estimator_stats(g, ests, s2)


def test_a_trial_alone_lifts_like_the_stack(rng):
    s2, g, ests = sphere_estimates(rng)
    traces = [scoring.ScoringTrace(groups.so3(), [e.matrix], [0.0]) for e in ests]
    eta, raw, errors = experiments._lift(g, traces, s2, alone=False)
    assert sorted(errors) == [1, 2]
    for i, trace in enumerate(traces):
        eta_1, raw_1, errors_1 = experiments._lift(g, [trace], s2, alone=True)
        if i in errors:
            assert type(errors_1[0]) is type(errors[i])
            assert str(errors_1[0]) == str(errors[i])
        else:
            assert errors_1 == {}
            assert np.array_equal(eta_1[0], eta[i])
            assert np.array_equal(raw_1[0], raw[i])


def test_fewer_trials_than_a_stack_run_through_fisher_scoring(monkeypatch):
    calls = []
    one_trial = scoring.fisher_scoring

    def counted(*args, **kwargs):
        calls.append(args[2])
        return one_trial(*args, **kwargs)

    monkeypatch.setattr(scoring, "fisher_scoring", counted)
    doc = {"experiment": "landmark", "seed": 3, "m_values": [10, 100], "workers": 1}
    texts = {}
    for n in (experiments._MIN_STACK - 1, experiments._MIN_STACK):
        calls.clear()
        texts[n] = experiments.run_landmark_experiment(
            load_config({**doc, "n_trials": n})
        ).to_csv_text()
        assert len(calls) == (2 * n if n < experiments._MIN_STACK else 0)

    def trial_rows(text, n):
        return [l for l in text.splitlines() if l.startswith("trial,") and int(l.split(",")[2]) < n]

    n = experiments._MIN_STACK - 1
    assert trial_rows(texts[n], n) == trial_rows(texts[n + 1], n)
    assert len(trial_rows(texts[n], n)) == 2 * n


def test_a_chunk_scores_and_lifts_its_m_values_as_one_stack(monkeypatch):
    calls = {"scoring": 0, "lift": 0}
    stack, lift = scoring.fisher_scoring_stack, experiments.coset_errors

    def counted_stack(*args, **kwargs):
        calls["scoring"] += 1
        return stack(*args, **kwargs)

    def counted_lift(*args, **kwargs):
        calls["lift"] += 1
        return lift(*args, **kwargs)

    monkeypatch.setattr(scoring, "fisher_scoring_stack", counted_stack)
    monkeypatch.setattr(experiments, "coset_errors", counted_lift)
    doc = {"experiment": "landmark", "seed": 3, "n_trials": 10,
           "m_values": [10, 100, 1000], "workers": 1}
    report = experiments.run_landmark_experiment(load_config(doc))
    assert len(report.rows) == 30
    assert calls == {"scoring": 1, "lift": 1}


@pytest.mark.parametrize(
    "diverging, lift_fails, first",
    [
        ([7], False, (DivergenceError, "trial 7")),
        ([7], True, (LiftFailureError, "trial 4")),
        (range(100), False, (DivergenceError, "trial 0")),
    ],
    ids=["scoring", "lift-before-scoring", "every-trial"],
)
def test_the_error_block_suite_raises_its_first_failing_trial(
    monkeypatch, diverging, lift_fails, first
):
    """The given trials diverge and, in one case, trial 4's lift fails:
    the suite raises the failure of the lowest trial, as a loop over
    trials would."""
    stack, lift = scoring.fisher_scoring_stack, homspace.coset_errors

    def stack_diverging(*args, **kwargs):
        traces, failed = stack(*args, **kwargs)
        for t in diverging:
            failed[t] = DivergenceError(f"trial {t}")
        return traces, failed

    def lift_failing(g_ref, estimates, struct):
        lifted = lift(g_ref, estimates, struct)
        assert len(estimates) == 100 - len(diverging)  # failed trials are not lifted
        if lift_fails:
            lifted.errors[4] = LiftFailureError("trial 4")
        return lifted

    monkeypatch.setattr(scoring, "fisher_scoring_stack", stack_diverging)
    monkeypatch.setattr(homspace, "coset_errors", lift_failing)
    with pytest.raises(first[0], match=f"^{first[1]}$"):
        properties.suite_error_block(1)


class SingularAt(GaussianMeanModel):
    """A 2-D Gaussian mean whose per-iterate reduced FIM is singular at
    iterates whose first coordinate equals `where`."""

    invariant_fim = False
    where = None

    def evaluate(self, summary, G, with_fim=True):
        ll, grad, _ = super().evaluate(summary, G, with_fim)
        F = np.broadcast_to(np.eye(2), (len(G), 2, 2)).copy()
        F[G[:, 0, 2] == self.where] = np.diag([1.0, 0.0])
        return ll, grad, F if with_fim else None


def test_a_degenerate_fim_leaves_the_stack_alone(rng):
    model = SingularAt(2)
    starts = [model.element([x, 0.0]) for x in (-1.0, 0.5, 2.0)]
    model.where = 0.5
    obs = [model.sample(model.element([1.0, -1.0]), 30, rng) for _ in starts]
    summary = scoring.stack_summaries([model.summarize(o) for o in obs])
    G0 = np.array([g.matrix for g in starts])
    traces, failed = scoring.fisher_scoring_stack(model, summary, G0)
    assert list(failed) == [1] and isinstance(failed[1], DegenerateFimError)
    with pytest.raises(DegenerateFimError):
        scoring.fisher_scoring(model, obs[1], starts[1])
    for i in (0, 2):
        alone = scoring.fisher_scoring(model, obs[i], starts[i])
        assert traces[i].logliks == alone.logliks
        assert traces[i].step_norms == alone.step_norms
        assert np.array_equal(traces[i].final.matrix, alone.final.matrix)
