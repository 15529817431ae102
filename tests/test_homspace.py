import numpy as np
import pytest

from homcrb import crb, fisher, groups, homspace
from homcrb.exceptions import (
    CutLocusError,
    DegenerateSeedError,
    LiftFailureError,
    SubalgebraError,
)
from homcrb.groups import AlgebraVector
from homcrb.homspace import build_reductive, coset_error, selector_pi
from homcrb.models import LandmarkModel


def spherical_log(u, v):
    """Closed-form great-circle log on S^2 (oracle)."""
    c = float(np.clip(u @ v, -1.0, 1.0))
    theta = np.arccos(c)
    t = v - c * u
    nt = np.linalg.norm(t)
    return (theta / nt) * t if nt > 1e-15 else np.zeros(3)


# ---------------------------------------------------------------------------
# build_reductive


def test_sphere_structure_dimensions():
    s2 = homspace.sphere_structure()
    assert s2.n_H == 1 and s2.n_Theta == 2
    assert np.array_equal(s2.basis[0], [0.0, 0.0, 1.0])
    # m = span(e1, e2)
    assert np.array_equal(np.abs(s2.m_basis), np.eye(3)[:2])


def test_landmark_structure_dimensions(landmark_one, landmark_two):
    assert landmark_one.struct.n_H == 3 and landmark_one.struct.n_Theta == 3
    assert landmark_two.struct.n_H == 1 and landmark_two.struct.n_Theta == 5


def test_three_landmarks_trivial_subgroup():
    model = LandmarkModel([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    assert model.struct.n_H == 0 and model.struct.n_Theta == 6


def test_non_subalgebra_h_rejected():
    d = groups.so3()
    h = np.eye(3)[:2]
    with pytest.raises(SubalgebraError):
        build_reductive(d, h)


def test_dependent_h_rejected():
    d = groups.so3()
    h = [np.eye(3)[2], 2.0 * np.eye(3)[2]]
    with pytest.raises(SubalgebraError):
        build_reductive(d, h)


def test_degenerate_seeds_rejected():
    d = groups.so3()
    h = np.eye(3)[2:]
    with pytest.raises(DegenerateSeedError):
        build_reductive(d, h, seed_m=np.eye(3)[2:])


def test_build_reductive_is_deterministic():
    a = homspace.sphere_structure()
    b = homspace.sphere_structure()
    assert np.array_equal(a.basis_matrix, b.basis_matrix)
    m1 = LandmarkModel([[0.7, -0.2, 0.4]])
    m2 = LandmarkModel([[0.7, -0.2, 0.4]])
    assert np.array_equal(m1.struct.basis_matrix, m2.struct.basis_matrix)


def test_reductive_invariants_hold(landmark_one, draw_h):
    struct = landmark_one.struct
    # h is a subalgebra: brackets have no m-component.
    for i in range(struct.n_H):
        for j in range(i + 1, struct.n_H):
            br = groups.bracket(
                AlgebraVector(struct.group, struct.basis[i]),
                AlgebraVector(struct.group, struct.basis[j]),
            )
            assert np.abs(struct.coords_of(br)[struct.n_H :]).max() <= 1e-9
    # Reductivity: Ad_h(m) stays inside m.
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = draw_h(struct, rng)
        A = struct.adjoint(h)
        assert np.abs(A[: struct.n_H, struct.n_H :]).max() <= 1e-8


def test_structure_refuses_malformed_basis():
    d = groups.so3()
    with pytest.raises(ValueError, match="shape"):
        homspace.ReductiveStructure(d, homspace.Side.G_MOD_H, 1, np.eye(3)[:2])
    for n_H in (-1, 4):
        with pytest.raises(ValueError, match="n_H"):
            homspace.ReductiveStructure(d, homspace.Side.G_MOD_H, n_H, np.eye(3))
    with pytest.raises(ValueError, match="singular"):
        homspace.ReductiveStructure(d, homspace.Side.G_MOD_H, 1, np.ones((3, 3)))


def test_translate_directions_is_adjoint_per_row(landmark_two, rng):
    desc = groups.se3()
    g = groups.random_element(desc, rng, 0.7)
    other = groups.random_element(desc, rng, 0.7)
    G = np.stack([g.matrix, other.matrix])
    dirs = rng.standard_normal((5, 6))
    for from_op, to_op, point in (("rivf", "livf", g), ("livf", "rivf", g.inverse())):
        Ad = groups.adjoint_matrix(point)
        out = homspace.translate_directions(dirs, g.matrix, desc, from_op, to_op)
        assert np.abs(out - np.array([Ad @ x for x in dirs])).max() <= 1e-12
        # A stack translates each matrix's rows as that matrix alone does.
        stacked = homspace.translate_directions(dirs, G, desc, from_op, to_op)
        for M, rows in zip(G, stacked):
            assert np.array_equal(rows, homspace.translate_directions(dirs, M, desc, from_op, to_op))
    assert homspace.translate_directions(dirs, g.matrix, desc, "livf", "livf") is dirs


# ---------------------------------------------------------------------------
# check_adH_invariance


def test_adH_invariance_sphere():
    s2 = homspace.sphere_structure()
    rep = homspace.check_adH_invariance(s2, 100, random_state=1)
    assert rep.invariant and rep.worst <= 1e-10


def test_adH_invariance_landmark(landmark_one):
    rep = homspace.check_adH_invariance(landmark_one.struct, 100, random_state=2)
    assert rep.invariant


def naive_complement(landmark_one):
    """The landmark's h with m the coordinate complement: the orthogonal
    complement of h under the naive coordinate metric, not reductive."""
    struct = landmark_one.struct
    return build_reductive(
        groups.se3(),
        struct.h_basis,
        seed_m=np.eye(6)[3:],
        side=homspace.Side.H_MOD_G,
    )


def test_adH_invariance_broken_by_naive_complement(landmark_one):
    rep = homspace.check_adH_invariance(naive_complement(landmark_one), 100, random_state=3)
    assert not rep.invariant
    assert rep.worst_offblock_norm > 1.0 and rep.worst_norm_deviation > 0.1


def test_adH_invariance_refuses_zero_samples(landmark_one):
    # With no sample the check would find no defect and pass any structure.
    bad = naive_complement(landmark_one)
    assert not homspace.check_adH_invariance(bad, 5, random_state=3).invariant
    for n_samples in (0, -1, True, 2.5):
        with pytest.raises(ValueError, match="n_samples must be"):
            homspace.check_adH_invariance(bad, n_samples, random_state=3)


# ---------------------------------------------------------------------------
# coset_error


def test_coset_error_zero_for_same_element(rng):
    s2 = homspace.sphere_structure()
    g = groups.random_element(groups.so3(), rng, 0.7)
    ce = coset_error(g, g, s2)
    assert np.abs(ce.eta_reduced).max() == 0.0


def test_coset_error_records_the_unlifted_error(landmark_two, rng):
    """The lift's first iterate is the raw error, on G/H and on H\\G."""
    s2 = homspace.sphere_structure()
    for struct, desc in ((s2, groups.so3()), (landmark_two.struct, groups.se3())):
        for _ in range(10):
            g = groups.random_element(desc, rng, 0.6)
            est = groups.random_element(desc, rng, 0.6) @ g
            ce = coset_error(g, est, struct)
            assert np.array_equal(ce.raw, homspace.raw_error(g, est, struct))


def test_coset_error_zero_on_fiber(rng, draw_h):
    s2 = homspace.sphere_structure()
    for _ in range(10):
        g = groups.random_element(groups.so3(), rng, 0.7)
        h = draw_h(s2, rng)
        ce = coset_error(g, g @ h, s2)
        assert np.linalg.norm(ce.eta_reduced) <= 1e-9


def test_coset_error_recovers_m_perturbation(rng):
    s2 = homspace.sphere_structure()
    g = groups.random_element(groups.so3(), rng, 0.6)
    y = np.array([0.06, -0.08])  # |Y| = 0.1
    est = g @ groups.exp(s2.from_coords(np.concatenate([[0.0], y])))
    ce = coset_error(g, est, s2)
    assert np.abs(ce.eta_reduced - y).max() <= 1e-10
    assert np.abs(ce.eta_struct[:1]).max() <= 1e-10


def test_coset_error_right_side_landmark(landmark_two, rng, draw_h):
    struct = landmark_two.struct
    g = groups.random_element(groups.se3(), rng, 0.4)
    h = draw_h(struct, rng)
    ce = coset_error(g, h @ g, struct)
    assert np.linalg.norm(ce.eta_reduced) <= 1e-9
    y = 0.1 * rng.standard_normal(5)
    y *= 0.1 / np.linalg.norm(y)
    est = groups.exp(struct.from_coords(np.concatenate([[0.0], y]))) @ g
    ce2 = coset_error(g, est, struct)
    assert np.abs(ce2.eta_reduced - y).max() <= 1e-10


def test_coset_error_inverts_perturbations_up_to_half(landmark_one, rng):
    struct = landmark_one.struct
    for _ in range(25):
        g = groups.random_element(groups.se3(), rng, 0.4)
        y = rng.standard_normal(3)
        y *= rng.uniform(0.0, 0.5) / np.linalg.norm(y)
        est = groups.exp(struct.from_coords(np.concatenate([np.zeros(3), y]))) @ g
        ce = coset_error(g, est, struct)
        assert np.abs(ce.eta_reduced - y).max() <= 1e-9


def test_coset_error_boxes_only_the_lift(landmark_two, rng, built_elements):
    """The relative element is composed on raw matrices, so only a
    corrected lift is built, whatever the number of iterations; an
    estimate that needs no correction is its own lift."""
    struct = landmark_two.struct
    built = {}
    for _ in range(20):
        g = groups.random_element(groups.se3(), rng, 0.6)
        est = groups.random_element(groups.se3(), rng, 0.6) @ g
        before = built_elements[0]
        ce = coset_error(g, est, struct)
        built.setdefault(ce.iterations, set()).add(built_elements[0] - before)
        # The lift stays in est's coset, and its error against g is eta.
        fiber_move = homspace.raw_error(est, ce.lift, struct)
        assert np.abs(fiber_move[struct.n_H :]).max() <= 1e-9
        lifted = homspace.raw_error(g, ce.lift, struct)
        assert np.abs(lifted - ce.eta_struct).max() <= 1e-9
    assert len(built) >= 3 and 0 not in built
    assert all(counts == {1} for counts in built.values())
    before = built_elements[0]
    ce = coset_error(g, g, struct)
    assert ce.iterations == 0 and ce.lift is g
    assert built_elements[0] - before == 0


def test_lift_failure_far_from_coset():
    s2 = homspace.sphere_structure()
    g = groups.identity_element(groups.so3())
    # Nearly antipodal coset: outside every horizontal cross-section.
    est = groups.exp(
        AlgebraVector(groups.so3(), np.array([-2.6004366, -1.28082679, 0.08492474]))
    )
    with pytest.raises(LiftFailureError):
        coset_error(g, est, s2)


# ---------------------------------------------------------------------------
# selector


def test_selector_pi(landmark_two):
    struct = landmark_two.struct
    Pi = selector_pi(struct)
    assert Pi.shape == (5, 6)
    assert np.array_equal(Pi @ Pi.T, np.eye(5))
    v = np.concatenate([[1.7], np.zeros(5)])
    assert np.all(Pi @ v == 0.0)


def test_selector_reproduces_pseudoinverse_block(landmark_one):
    # Pi' Fbar^-1 Pi equals pinv(F) for the frame whose h-block vanishes.
    struct = landmark_one.struct
    g = groups.random_element(groups.se3(), np.random.default_rng(8), 0.3)
    F = fisher.fim(landmark_one, g, fisher.RIGHT).matrix
    Fbar = fisher.fim(landmark_one, g, fisher.REDUCED).matrix
    Pi = selector_pi(struct)
    lhs = Pi.T @ np.linalg.inv(Fbar) @ Pi
    assert np.abs(lhs - np.linalg.pinv(F, rcond=1e-10)).max() <= 1e-10


# ---------------------------------------------------------------------------
# S^2 Riemannian agreement


def test_sphere_check_coincident_points():
    s2 = homspace.sphere_structure()
    g = groups.random_element(groups.so3(), np.random.default_rng(0), 0.5)
    eg, ei = homspace.sphere_riemannian_check(g, g, s2)
    assert np.abs(eg).max() <= 1e-12 and np.abs(ei).max() <= 1e-12


def test_sphere_check_small_and_unit_distance(rng):
    s2 = homspace.sphere_structure()
    g = groups.random_element(groups.so3(), rng, 0.8)
    est = g @ groups.exp(s2.from_coords(np.array([0.0, 0.3, 0.0])))
    eg, ei = homspace.sphere_riemannian_check(g, est, s2)
    assert np.abs(eg - ei).max() <= 1e-10
    for _ in range(10):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        est = g @ groups.exp(s2.from_coords(np.concatenate([[0.0], d])))
        eg, ei = homspace.sphere_riemannian_check(g, est, s2)
        assert np.abs(eg - ei).max() <= 1e-10
        assert abs(np.linalg.norm(ei) - 1.0) <= 1e-10


def test_sphere_check_against_external_oracle(rng):
    """The intrinsic coordinates must match the hand-rolled spherical log
    expressed in the pushforward frame."""
    s2 = homspace.sphere_structure()
    e3 = np.array([0.0, 0.0, 1.0])
    for _ in range(20):
        a = groups.random_element(groups.so3(), rng, 1.0)
        d = rng.standard_normal(2)
        d *= rng.uniform(0, 2.0) / np.linalg.norm(d)
        b = a @ groups.exp(s2.from_coords(np.concatenate([[0.0], d])))
        _, ei = homspace.sphere_riemannian_check(a, b, s2)
        u, v = a.matrix @ e3, b.matrix @ e3
        log_uv = spherical_log(u, v)
        frame = np.column_stack(
            [a.matrix @ (groups.wedge(bb, s2.group) @ e3) for bb in s2.m_basis]
        )
        oracle = np.linalg.solve(frame.T @ frame, frame.T @ log_uv)
        assert np.abs(ei - oracle).max() <= 1e-10


def test_sphere_check_antipodal_raises():
    s2 = homspace.sphere_structure()
    g = groups.identity_element(groups.so3())
    flip = groups.GroupElement(groups.so3(), np.diag([1.0, -1.0, -1.0]))
    with pytest.raises(CutLocusError):
        homspace.sphere_riemannian_check(g, flip, s2)


# ---------------------------------------------------------------------------
# Representative-independence of variance quantities


def test_variance_and_error_length_representative_independence(landmark_one, rng, draw_h):
    struct = landmark_one.struct
    g = groups.random_element(groups.se3(), rng, 0.4)
    F = fisher.fim(landmark_one, g, fisher.REDUCED)
    estimates = [
        groups.exp(struct.from_coords(np.concatenate([np.zeros(3), y]))) @ g
        for y in 0.3 * rng.standard_normal((8, 3))
    ]
    for _ in range(20):
        h = draw_h(struct, rng)
        moved = h @ g
        F_h = fisher.fim(landmark_one, moved, fisher.REDUCED)
        assert abs(
            np.trace(np.linalg.inv(F.matrix)) - np.trace(np.linalg.inv(F_h.matrix))
        ) <= 1e-8
        for est in estimates:
            n1 = np.linalg.norm(coset_error(g, est, struct).eta_reduced)
            n2 = np.linalg.norm(coset_error(moved, est, struct).eta_reduced)
            assert abs(n1 - n2) <= 1e-8


def test_adH_invariance_two_landmarks(landmark_two):
    rep = homspace.check_adH_invariance(landmark_two.struct, 100, random_state=4)
    assert rep.invariant
