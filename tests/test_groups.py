import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from homcrb import groups
from homcrb.exceptions import BasisClosureError, CutLocusError, NotInAlgebraError
from homcrb.groups import AlgebraVector


ALL_DESCRIPTORS = lambda: [
    groups.so3(),
    groups.se2(),
    groups.se3(),
    groups.glnplus(2),
    groups.translation_group(2),
]


def series_exp(X, order=30):
    """Independent oracle: partial sums of the matrix power series."""
    out = np.eye(X.shape[0])
    term = np.eye(X.shape[0])
    for k in range(1, order + 1):
        term = term @ X / k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# wedge / vee


def test_wedge_zero_is_zero_matrix():
    d = groups.so3()
    assert np.all(groups.wedge(np.zeros(3), d) == 0.0)


def test_wedge_so3_e3():
    W = groups.wedge(np.array([0.0, 0.0, 1.0]), groups.so3())
    expected = np.zeros((3, 3))
    expected[0, 1], expected[1, 0] = -1.0, 1.0
    assert np.array_equal(W, expected)


# Every family, and a product mixing two of them.
ORACLE_DESCRIPTORS = ALL_DESCRIPTORS() + [
    groups.product_group([groups.se2(), groups.so3()])
]


def oracle_basis(desc):
    """The basis matrices E_i, as the wedges of the unit coordinate vectors
    (a product stores no dense basis)."""
    return np.stack([groups.wedge(e, desc) for e in np.eye(desc.algebra_dim)])


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS)
def test_vee_wedge_roundtrip(desc, rng):
    for _ in range(20):
        v = rng.standard_normal(desc.algebra_dim)
        assert np.abs(groups.vee(groups.wedge(v, desc), desc) - v).max() <= 1e-12


def test_vee_zero_and_basis_elements():
    d = groups.se3()
    assert np.all(groups.vee(np.zeros((4, 4)), d) == 0.0)
    for i, E in enumerate(d.algebra_basis):
        e = groups.vee(E, d)
        assert np.abs(e - np.eye(6)[i]).max() <= 1e-12


def test_vee_rejects_matrix_outside_algebra():
    d = groups.so3()
    sym = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.2]])
    with pytest.raises(NotInAlgebraError):
        groups.vee(sym, d)


def test_product_wedge_and_vee_work_block_by_block(rng):
    se2, so3 = groups.se2(), groups.so3()
    prod = groups.product_group([se2, so3])
    v = rng.standard_normal(6)
    X = groups.wedge(v, prod)
    blocks = groups.block_diagonal([groups.wedge(v[:3], se2), groups.wedge(v[3:], so3)])
    assert np.array_equal(X, blocks)
    # One tolerance for the whole residual: off-block entries count too.
    X[1, 4] = 1e-3
    with pytest.raises(NotInAlgebraError):
        groups.vee(X, prod)
    X[1, 4] = 1e-12
    assert np.abs(groups.vee(X, prod) - v).max() <= 1e-12


def test_wedge_length_mismatch():
    with pytest.raises(ValueError):
        groups.wedge(np.zeros(4), groups.so3())


# ---------------------------------------------------------------------------
# exp


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS())
def test_exp_zero_is_identity(desc):
    X = AlgebraVector(desc, np.zeros(desc.algebra_dim))
    assert np.array_equal(groups.exp(X).matrix, np.eye(desc.matrix_dim))


def test_exp_so3_quarter_turn_matches_series():
    X = AlgebraVector(groups.so3(), np.array([0.0, 0.0, math.pi / 2]))
    R = groups.exp(X).matrix
    assert np.abs(R - series_exp(X.matrix)).max() <= 1e-12
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(R - expected).max() <= 1e-12


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS())
def test_exp_matches_series_oracle(desc, rng):
    for _ in range(10):
        X = groups.random_algebra_vector(desc, rng, 0.5)
        assert np.abs(groups.exp(X).matrix - series_exp(X.matrix)).max() <= 1e-12


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS())
def test_exp_inverse(desc, rng):
    for _ in range(10):
        X = groups.random_algebra_vector(desc, rng, 0.6)
        Xn = AlgebraVector(desc, -X.coords)
        prod = (groups.exp(X) @ groups.exp(Xn)).matrix
        assert np.abs(prod - np.eye(desc.matrix_dim)).max() <= 1e-10


def test_exp_small_angle_branch(rng):
    for desc in (groups.so3(), groups.se2(), groups.se3()):
        for scale in (1e-5, 1e-9):
            X = groups.random_algebra_vector(desc, rng, scale)
            assert np.abs(groups.exp(X).matrix - series_exp(X.matrix)).max() <= 1e-14


# ---------------------------------------------------------------------------
# log


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS())
def test_log_identity_is_zero(desc):
    assert np.all(groups.log(groups.identity_element(desc)).coords == 0.0)


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS())
def test_exp_log_roundtrip_sweep(desc, rng):
    # Invariant sweep: 1000 random vectors with rotation angle <= 3.
    for _ in range(1000):
        coords = rng.standard_normal(desc.algebra_dim)
        if desc.family in ("SO3", "SE3"):
            angle = np.linalg.norm(coords[:3])
            if angle > 3.0:
                coords[:3] *= 3.0 / angle
        elif desc.family == "SE2":
            coords[0] = np.clip(coords[0], -3.0, 3.0)
        else:
            coords *= 0.4  # keep GL matrices in the principal-log domain
        X = AlgebraVector(desc, coords)
        back = groups.log(groups.exp(X))
        assert np.abs(back.coords - X.coords).max() <= 1e-9


def test_log_near_pi_is_cut_locus_error():
    X = AlgebraVector(groups.so3(), np.array([0.0, 0.0, math.pi]))
    g = groups.GroupElement(groups.so3(), groups.exp(X).matrix)
    with pytest.raises(CutLocusError):
        groups.log(g)
    X6 = AlgebraVector(groups.se3(), np.array([0.0, 0.0, math.pi, 0.3, 0.0, 0.1]))
    with pytest.raises(CutLocusError):
        groups.log(groups.exp(X6))


def test_log_rejects_negative_real_eigenvalues():
    from homcrb.exceptions import DomainError

    d = groups.glnplus(2)
    g = groups.GroupElement(d, np.diag([-1.0, -2.0]))  # det > 0 but no real log
    with pytest.raises(DomainError):
        groups.log(g)


# ---------------------------------------------------------------------------
# adjoint / ad


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS())
def test_adjoint_identity(desc):
    A = groups.adjoint_matrix(groups.identity_element(desc))
    assert np.abs(A - np.eye(desc.algebra_dim)).max() <= 1e-12


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS())
def test_adjoint_homomorphism(desc, rng):
    for _ in range(10):
        g1 = groups.random_element(desc, rng, 0.5)
        g2 = groups.random_element(desc, rng, 0.5)
        lhs = groups.adjoint_matrix(g1 @ g2)
        rhs = groups.adjoint_matrix(g1) @ groups.adjoint_matrix(g2)
        assert np.abs(lhs - rhs).max() <= 1e-9


def test_adjoint_so3_equals_rotation(rng):
    R = groups.random_element(groups.so3(), rng, 1.0)
    assert np.abs(groups.adjoint_matrix(R) - R.matrix).max() <= 1e-12


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS)
def test_adjoint_matches_conjugated_basis(desc, rng):
    for _ in range(3):
        g = groups.random_element(desc, rng, 0.8).matrix
        # Columnwise oracle: vee(g E_i g^-1).
        oracle = np.column_stack(
            [groups.vee(g @ E @ np.linalg.inv(g), desc) for E in oracle_basis(desc)]
        )
        A = groups.adjoint_matrix(groups.GroupElement(desc, g))
        assert np.abs(A - oracle).max() <= 1e-12


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS)
def test_structure_constants_match_brackets(desc):
    # A product has no structure constants; its ad_{E_i} is checked alone.
    product = desc.family == groups.PRODUCT
    C = None if product else groups.structure_constants(desc)
    E = oracle_basis(desc)
    for i in range(desc.algebra_dim):
        ad = groups.ad_matrix(AlgebraVector(desc, np.eye(desc.algebra_dim)[i]))
        for j in range(desc.algebra_dim):
            oracle = groups.vee(E[i] @ E[j] - E[j] @ E[i], desc)
            assert np.abs(ad[:, j] - oracle).max() <= 1e-12
            if not product:
                assert np.abs(C[i, :, j] - oracle).max() <= 1e-12


def test_ad_annihilates_own_coords(rng):
    for desc in ALL_DESCRIPTORS():
        X = groups.random_algebra_vector(desc, rng, 0.8)
        assert np.abs(groups.ad_matrix(X) @ X.coords).max() <= 1e-12


def test_structure_constants_of_product_match_brackets(rng):
    desc = groups.product_group([groups.se2()] * 3)
    E = oracle_basis(desc)
    for k in range(desc.algebra_dim):
        oracle = np.column_stack(
            [groups.vee(E[k] @ Ei - Ei @ E[k], desc) for Ei in E]
        )
        ad = groups.ad_matrix(AlgebraVector(desc, np.eye(desc.algebra_dim)[k]))
        assert np.abs(ad - oracle).max() <= 1e-12
    for _ in range(5):
        X = groups.random_algebra_vector(desc, rng, 0.8)
        A = X.matrix
        oracle = np.column_stack([groups.vee(A @ Ei - Ei @ A, desc) for Ei in E])
        assert np.abs(groups.ad_matrix(X) - oracle).max() <= 1e-12


@pytest.mark.parametrize(
    "desc", [groups.se3(), groups.product_group([groups.so3(), groups.so3()])],
    ids=["SE3", "SO3xSO3"],
)
def test_ad_of_a_stack_is_each_row_bit_for_bit(desc, rng):
    x = rng.standard_normal((7, desc.algebra_dim))
    ad = groups._ad(x, desc)
    assert ad.shape == (7, desc.algebra_dim, desc.algebra_dim)
    for row, matrix in zip(x, ad):
        assert np.array_equal(groups._ad(row, desc), matrix)


def test_ad_so3_cross_product_table():
    d = groups.so3()
    e1 = AlgebraVector(d, np.eye(3)[0])
    # Commutator oracle: [e1^, e2^] = e3^.
    out = groups.ad_matrix(e1) @ np.eye(3)[1]
    E1, E2 = d.algebra_basis[0], d.algebra_basis[1]
    oracle = groups.vee(E1 @ E2 - E2 @ E1, d)
    assert np.array_equal(out, oracle)
    assert np.abs(out - np.eye(3)[2]).max() <= 1e-12


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS())
def test_ad_is_derivative_of_adjoint(desc, rng):
    h = 1e-5
    for _ in range(5):
        X = groups.random_algebra_vector(desc, rng, 0.7)
        Ap = groups.adjoint_matrix(groups.exp(AlgebraVector(desc, h * X.coords)))
        Am = groups.adjoint_matrix(groups.exp(AlgebraVector(desc, -h * X.coords)))
        fd = (Ap - Am) / (2 * h)
        assert np.abs(fd - groups.ad_matrix(X)).max() <= 1e-5


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS())
def test_ad_antisymmetry_and_jacobi(desc, rng):
    for _ in range(10):
        X = groups.random_algebra_vector(desc, rng, 0.8)
        Y = groups.random_algebra_vector(desc, rng, 0.8)
        adX, adY = groups.ad_matrix(X), groups.ad_matrix(Y)
        # ad_X y = -(coords of [Y, X])
        minus_YX = -groups.bracket(Y, X).coords
        assert np.abs(adX @ Y.coords - minus_YX).max() <= 1e-10
        # Jacobi in coordinates: ad_[X,Y] = ad_X ad_Y - ad_Y ad_X
        adXY = groups.ad_matrix(groups.bracket(X, Y))
        assert np.abs(adXY - (adX @ adY - adY @ adX)).max() <= 1e-9


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS())
def test_frame_relation(desc, rng):
    # g (Ad_{g^-1} X)^ = X^ g and the left/right identities of the frame map.
    for _ in range(5):
        g = groups.random_element(desc, rng, 0.6)
        X = groups.random_algebra_vector(desc, rng, 0.8)
        Ad_inv = groups.adjoint_matrix(g.inverse())
        lhs = g.matrix @ groups.wedge(Ad_inv @ X.coords, desc)
        assert np.abs(lhs - X.matrix @ g.matrix).max() <= 1e-10
        Ad = groups.adjoint_matrix(g)
        rhs = groups.wedge(Ad @ X.coords, desc) @ g.matrix
        assert np.abs(g.matrix @ X.matrix - rhs).max() <= 1e-10


# ---------------------------------------------------------------------------
# Psi


def test_psi_zero_is_identity():
    d = groups.se3()
    P = groups.psi_matrix(AlgebraVector(d, np.zeros(6)))
    assert np.array_equal(P.matrix, np.eye(6))


def test_psi_order_two_truncation(rng):
    # I + ad/2 + ad^2/12: the quadratic Bernoulli coefficient is 1/12.
    d = groups.so3()
    X = groups.random_algebra_vector(d, rng, 0.3)
    ad = groups.ad_matrix(X)
    P = groups.psi_matrix(X, order=2)
    assert np.abs(P.matrix - (np.eye(3) + ad / 2 + ad @ ad / 12)).max() <= 1e-14


def test_psi_requires_order_two():
    d = groups.so3()
    with pytest.raises(ValueError):
        groups.psi_matrix(AlgebraVector(d, np.zeros(3)), order=1)


def test_bernoulli_table_is_exact():
    # Each coefficient is beta_{2n}/(2n)!, an exact rational from the
    # recurrence sum_{k<=n} C(n+1, k) beta_k = 0, rounded once.
    beta = [Fraction(1)]
    for n in range(1, 2 * len(groups._BERNOULLI_EVEN) + 1):
        beta.append(-sum(math.comb(n + 1, k) * beta[k] for k in range(n)) / (n + 1))
    assert beta[1:5] == [Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
    for order in range(2, groups._PSI_MAX_ORDER + 3):
        expected = tuple(
            float(beta[2 * n] / math.factorial(2 * n)) for n in range(1, order // 2 + 1)
        )
        assert groups._bernoulli_even(order) == expected


def test_psi_refuses_order_past_the_table():
    X = AlgebraVector(groups.so3(), np.array([0.1, -0.2, 0.3]))
    assert groups.psi_matrix(X, order=groups._PSI_MAX_ORDER).truncation_order == 41
    with pytest.raises(ValueError, match="order must be <= 41"):
        groups.psi_matrix(X, order=groups._PSI_MAX_ORDER + 1)


@pytest.mark.parametrize(
    "desc", [groups.so3(), groups.se2(), groups.se3(), groups.glnplus(2)]
)
def test_psi_matches_log_derivative(desc, rng):
    # Sweep of 100 pairs per group against the central-difference oracle.
    h = 1e-5
    for _ in range(100):
        X = groups.random_algebra_vector(desc, rng, 0.5 / math.sqrt(desc.algebra_dim))
        Y = groups.random_algebra_vector(desc, rng, 1.0)
        gX = groups.exp(X)
        fp = groups.log(gX @ groups.exp(AlgebraVector(desc, h * Y.coords))).coords
        fm = groups.log(gX @ groups.exp(AlgebraVector(desc, -h * Y.coords))).coords
        fd = (fp - fm) / (2 * h)
        P = groups.psi_matrix(X)
        assert np.abs(P.matrix @ Y.coords - fd).max() <= 1e-5
        # Psi_{-X} is the opposite-order derivative.
        Pm = groups.psi_matrix(AlgebraVector(desc, -X.coords))
        fp2 = groups.log(groups.exp(AlgebraVector(desc, h * Y.coords)) @ gX).coords
        fm2 = groups.log(groups.exp(AlgebraVector(desc, -h * Y.coords)) @ gX).coords
        assert np.abs(Pm.matrix @ Y.coords - (fp2 - fm2) / (2 * h)).max() <= 1e-5


def test_psi_series_matches_closed_form_so3_jacobian(rng):
    # Oracle: on SO(3), Psi_w is the inverse left Jacobian at -w
    # (Sola, Deray and Atchuthan, arXiv:1812.01537).
    d = groups.so3()
    for _ in range(200):
        w = rng.standard_normal(3)
        w *= rng.uniform(0.0, 2.5) / np.linalg.norm(w)
        P = groups.psi_matrix(AlgebraVector(d, w), order=30)
        # J^-1(-w) = I + W/2 + c W^2, W = hat(w), theta = |w|.
        theta = np.linalg.norm(w)
        c = 1.0 / 12.0
        if theta >= 1e-4:
            c = 1.0 / theta**2 - (1.0 + math.cos(theta)) / (2.0 * theta * math.sin(theta))
        W = groups.hat(w)
        assert np.abs(P.matrix - (np.eye(3) + 0.5 * W + c * (W @ W))).max() <= 1e-12


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS())
def test_psi_series_of_a_stack_is_psi_of_each_row(desc, rng):
    X = 0.3 * rng.standard_normal((20, desc.algebra_dim))
    ad = np.tensordot(X, groups.structure_constants(desc), 1)
    stacked = groups._psi_series(ad, 10)[0]
    for x, P in zip(X, stacked):
        assert np.array_equal(P, groups.psi_matrix(AlgebraVector(desc, x)).matrix)


# ---------------------------------------------------------------------------
# Invariant vector field derivatives


def test_livf_constant_function_is_zero(rng):
    g = groups.random_element(groups.se3(), rng, 0.5)
    X = groups.random_algebra_vector(groups.se3(), rng, 1.0)
    assert groups.livf_derivative(lambda _: 3.25, g, X) == 0.0
    assert groups.rivf_derivative(lambda _: -1.5, g, X) == 0.0


def test_livf_trace_at_identity_along_e3():
    d = groups.so3()
    g = groups.identity_element(d)
    X = AlgebraVector(d, np.array([0.0, 0.0, 1.0]))
    val = groups.livf_derivative(lambda el: float(np.trace(el.matrix)), g, X)
    assert abs(val) <= 1e-9  # skew generators are traceless


def test_rivf_equals_livf_of_adjointed_direction(rng):
    d = groups.se3()
    fn = lambda el: float(np.sum(el.matrix[:3, 3] ** 2) + np.trace(el.matrix))
    for _ in range(10):
        g = groups.random_element(d, rng, 0.5)
        X = groups.random_algebra_vector(d, rng, 1.0)
        Ad_inv = groups.adjoint_matrix(g.inverse())
        lhs = groups.rivf_derivative(fn, g, X)
        rhs = groups.livf_derivative(fn, g, AlgebraVector(d, Ad_inv @ X.coords))
        assert abs(lhs - rhs) <= 1e-5


def test_livf_rejects_non_finite():
    from homcrb.exceptions import EvaluationError

    d = groups.so3()
    g = groups.identity_element(d)
    X = AlgebraVector(d, np.eye(3)[0])
    with pytest.raises(EvaluationError):
        groups.livf_derivative(lambda _: float("nan"), g, X)
    with pytest.raises(EvaluationError):
        groups.central_difference(
            lambda _: np.array([0.0, np.nan]), g, X.coords, 1e-6, groups.RIVF
        )
    # inf on both sides: rejected before inf - inf is formed.
    with pytest.raises(EvaluationError):
        groups.central_difference(
            lambda _: np.array([0.0, np.inf]), g, X.coords, 1e-6, groups.LIVF
        )


def test_central_difference_boxes_each_point_once(rng, built_elements):
    g = groups.random_element(groups.se3(), rng, 0.5)
    x = rng.standard_normal(6)
    for op in (groups.LIVF, groups.RIVF):
        before = built_elements[0]
        groups.central_difference(lambda el: el.matrix, g, x, 1e-6, op)
        assert built_elements[0] - before == 2
    with pytest.raises(ValueError, match="direction length"):
        groups.central_difference(lambda el: 0.0, g, x[:5], 1e-6, groups.LIVF)


@pytest.mark.parametrize(
    "descriptor",
    [groups.so3(), groups.se3(), groups.product_group([groups.se2()] * 3)],
    ids=["SO(3)", "SE(3)", "SE(2)^3"],
)
def test_central_difference_checks_each_point_once(descriptor, rng, monkeypatch):
    """The kernel's stacked membership test is the only one its points
    pass: each is boxed with the defect that test measured. A matrix no
    kernel has checked still gets the full test when boxed."""
    g = groups.random_element(descriptor, rng, 0.5)
    x = rng.standard_normal(descriptor.algebra_dim)
    full_check = groups._family_membership
    checks = []  # the rows of each family test; a product's factors add one
    monkeypatch.setattr(
        groups, "_family_membership", lambda m, d: checks.append(len(m)) or full_check(m, d)
    )
    factors = len(descriptor.factors)
    for op in (groups.LIVF, groups.RIVF):
        points = []
        groups.central_difference(lambda el: points.append(el) or 0.0, g, x, 1e-6, op)
        assert checks == [2] + [2 * factors] * (factors > 0) and len(points) == 2
        for el in points:
            assert el.defect == groups._membership_stack(el.matrix[None], descriptor)[0][0]
        checks.clear()
    groups.GroupElement(descriptor, g.matrix)
    assert checks == [1] + [factors] * (factors > 0)
    with pytest.raises(ValueError):
        groups.GroupElement(descriptor, 2.0 * g.matrix)


def boxed_difference(fn, g, x, h, op):
    """Reference: the two points of one direction built and boxed one at a
    time, as a loop over directions would."""
    d = g.descriptor

    def point(t):
        e = groups.exp(AlgebraVector(d, t * x)).matrix
        return groups.GroupElement(d, g.matrix @ e if op == groups.LIVF else e @ g.matrix)

    return (fn(point(h)) - fn(point(-h))) / (2.0 * h)


@pytest.mark.parametrize("op", [groups.LIVF, groups.RIVF])
def test_central_differences_match_one_direction_calls_bit_for_bit(rng, op):
    descriptors = [
        groups.so3(),
        groups.se3(),
        groups.product_group([groups.se2()] * 3),
        groups.glnplus(2),
    ]
    for d in descriptors:
        g = groups.random_element(d, rng, 0.5)
        x = rng.standard_normal((5, d.algebra_dim))
        stacks = []

        def entries(points):
            stacks.append(points.shape)
            return points.reshape(points.shape[:2] + (-1,)) ** 2

        stacked = groups.central_differences(entries, g, x, 1e-6, op)
        assert stacks == [(2, 5, d.matrix_dim, d.matrix_dim)]  # fn runs once
        fn = lambda el: el.matrix.ravel() ** 2
        for i in range(len(x)):
            assert np.array_equal(
                stacked[i], groups.central_difference(fn, g, x[i], 1e-6, op)
            )
            assert np.array_equal(stacked[i], boxed_difference(fn, g, x[i], 1e-6, op))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_central_differences_reject_a_non_finite_row_without_warning(rng, bad):
    from homcrb.exceptions import EvaluationError

    g = groups.random_element(groups.se3(), rng, 0.5)
    x = rng.standard_normal((4, 6))
    for half in ((0, 1), (0,), (1,)):

        def fn(points):
            out = np.zeros(points.shape[:2] + (3,))
            out[half, 2, 1] = bad  # direction 2, on one side or both
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="non-finite"):
                groups.central_differences(fn, g, x, 1e-6, groups.LIVF)


def test_central_differences_check_every_point_before_fn(rng, monkeypatch):
    g = groups.random_element(groups.so3(), rng, 0.5)
    x = rng.standard_normal((3, 3))
    with pytest.raises(ValueError, match=r"direction length \(2,\) != \(3,\)"):
        groups.central_differences(lambda p: p, g, x[:, :2], 1e-6, groups.LIVF)
    exp_stack = groups._exp_stack

    def spoiled(coords, d):
        out = exp_stack(coords, d)
        out[4] *= 2.0  # the minus point of direction 1: not a rotation
        out[5, 0, 0] = np.nan  # the minus point of direction 2
        return out

    monkeypatch.setattr(groups, "_exp_stack", spoiled)
    reached = []
    with pytest.raises(ValueError, match="not in SO\\(3\\)"):
        groups.central_differences(reached.append, g, x, 1e-6, groups.RIVF)
    assert reached == []


def test_field_derivatives_refuse_a_direction_of_another_group():
    g = groups.identity_element(groups.so3())
    X = AlgebraVector(groups.se2(), np.eye(3)[0])  # same dimension, other group
    for derivative in (groups.livf_derivative, groups.rivf_derivative):
        with pytest.raises(ValueError, match="different groups"):
            derivative(lambda _: 0.0, g, X)


# ---------------------------------------------------------------------------
# Descriptors and membership


def test_descriptor_rejects_dependent_basis():
    E = np.zeros((2, 3, 3))
    E[0, 0, 1], E[0, 1, 0] = -1.0, 1.0
    E[1] = 2.0 * E[0]
    with pytest.raises(ValueError):
        groups.GroupDescriptor("bad", "GLnPlus", 3, 2, E)


def test_descriptor_rejects_non_closed_basis():
    so3 = groups.so3()
    E = so3.algebra_basis[:2]  # [e1, e2] = e3 escapes the span
    with pytest.raises(ValueError, match=r"at \(0,1\), residual 1.41e\+00"):
        groups.GroupDescriptor("bad", "SO3", 3, 2, np.array(E))
    # E_11, E_12, E_21: only [E_12, E_21] = E_11 - E_22 escapes, and the
    # error names the pair as (1,2).
    units = groups.glnplus(2).algebra_basis
    with pytest.raises(ValueError, match=r"at \(1,2\)"):
        groups.GroupDescriptor("bad", "GLnPlus", 2, 3, units[[0, 1, 2]])


def test_adjoint_leaving_the_span_raises():
    # Conjugating by a matrix that is not unipotent leaves the translation
    # span; GroupElement refuses such a matrix, so Ad is called on it raw.
    g = np.diag([1.0, 2.0, 1.0]) + np.eye(3, k=-1)
    with pytest.raises(BasisClosureError, match="Ad_g left the algebra span"):
        groups._adjoint(g, groups.translation_group(2))


def test_product_descriptor_refuses_a_dense_basis():
    factors = (groups.se2(), groups.se2())
    ok = groups.GroupDescriptor("ok", groups.PRODUCT, 6, 6, None, factors)
    assert ok.algebra_basis is None and len(ok.blocks) == 2
    dense = oracle_basis(groups.product_group(factors))
    with pytest.raises(ValueError, match="dense basis"):
        groups.GroupDescriptor("bad", groups.PRODUCT, 6, 6, dense, factors)
    for d, n in ((6, 5), (5, 6)):
        with pytest.raises(ValueError, match="sums of factor dimensions"):
            groups.GroupDescriptor("bad", groups.PRODUCT, d, n, None, factors)
    with pytest.raises(ValueError, match="sums of factor dimensions"):
        groups.GroupDescriptor("bad", groups.PRODUCT, 6, 6, None, (groups.se2(),))


@pytest.mark.parametrize(
    "desc, entry",
    [
        (groups.so3, (1, 2)),
        (lambda: groups.glnplus(2), (0, 0)),
        (groups.se2, (0, 2)),  # translation column
        (groups.se3, (2, 3)),
    ],
    ids=["so3", "glnplus", "se2_translation", "se3_translation"],
)
def test_group_element_rejects_nan(desc, entry):
    d = desc()
    M = np.eye(d.matrix_dim)
    M[entry] = np.nan
    with pytest.raises(ValueError):
        groups.GroupElement(d, M)


def test_small_determinant_matches_lapack(rng):
    for n in (1, 2, 3, 4):
        for _ in range(50):
            M = rng.standard_normal((n, n))
            ref = np.linalg.det(M)
            assert abs(groups._det(M[None])[0] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_group_element_membership_checks():
    with pytest.raises(ValueError):
        groups.GroupElement(groups.so3(), np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        groups.GroupElement(groups.glnplus(2), np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        groups.GroupElement(groups.glnplus(3), np.diag([2.0, 1.0, -0.5]))
    bad_se3 = np.eye(4)
    bad_se3[3, 0] = 0.5
    with pytest.raises(ValueError):
        groups.GroupElement(groups.se3(), bad_se3)
    # T(2) is typed GL(3)+, but a positive determinant is not enough.
    with pytest.raises(ValueError, match="not a translation"):
        groups.GroupElement(groups.translation_group(2), np.diag([1.0, 2.0, 1.0]))
    shift = np.eye(3)
    shift[:2, 2] = [0.5, -2.0]
    groups.GroupElement(groups.translation_group(2), shift)


def test_product_descriptor_blocks(rng):
    prod = groups.product_group([groups.se2(), groups.so3()])
    assert prod.algebra_dim == 6 and prod.matrix_dim == 6
    X = groups.random_algebra_vector(prod, rng, 0.4)
    g = groups.exp(X)
    assert np.abs(groups.log(g).coords - X.coords).max() <= 1e-10
    off = np.array(g.matrix)
    off[:3, :3] = 0.0
    off[3:, 3:] = 0.0
    assert np.all(off == 0.0)


def test_product_element_rejects_coupling_entries(rng):
    prod = groups.product_group([groups.se2(), groups.so3()])
    g = groups.random_element(prod, rng, 0.5)
    for entry in ((1, 4), (5, 0)):
        M = np.array(g.matrix)
        M[entry] = 1e-3
        with pytest.raises(ValueError, match="block diagonal"):
            groups.GroupElement(prod, M)


def test_product_drift_reports_largest_factor_defect(rng):
    se2, so3 = groups.se2(), groups.so3()
    prod = groups.product_group([se2, so3])
    g = groups.random_element(prod, rng, 0.5)
    M = np.array(g.matrix)
    M[:2, :2] *= 1.0 + 1e-11
    M[3:, 3:] *= 1.0 + 2e-10
    drifted = groups.GroupElement(prod, M)
    defects = [
        groups.manifold_defect(groups.GroupElement(se2, M[:3, :3])),
        groups.manifold_defect(groups.GroupElement(so3, M[3:, 3:])),
    ]
    assert defects[0] < defects[1]
    assert groups.manifold_defect(drifted) == defects[1] > 1e-10
    fixed = groups.polar_project(drifted)
    assert groups.manifold_defect(fixed) <= 1e-12
    assert np.abs(fixed.matrix - g.matrix).max() <= 1e-9


def test_product_exp_log_polar_check_each_factor_once(rng, monkeypatch):
    """A product's exp, log and polar projection run on raw factor
    blocks: only the boxed result is checked, its factors as one stack."""
    prod = groups.product_group([groups.se2()] * 5)
    X = groups.random_algebra_vector(prod, rng, 0.5)
    g = groups.exp(X)
    M = np.array(g.matrix)
    for k in range(5):
        M[3 * k : 3 * k + 2, 3 * k : 3 * k + 2] *= 1.0 + 1e-11
    drifted = groups.GroupElement(prod, M)
    calls = []
    original = groups._rotation_defect
    monkeypatch.setattr(
        groups, "_rotation_defect", lambda R: calls.append(1) or original(R)
    )

    def count(fn, arg):
        calls.clear()
        fn(arg)
        return len(calls)

    assert count(groups.exp, X) == 1
    assert count(groups.log, g) == 0
    assert count(groups.polar_project, drifted) == 1


def test_product_inverse_matches_dense_inverse(rng):
    prod = groups.product_group(
        [groups.se2(), groups.so3(), groups.se3(), groups.glnplus(2)]
    )
    for _ in range(3):
        g = groups.random_element(prod, rng, 0.8)
        assert np.abs(g.inverse().matrix - np.linalg.inv(g.matrix)).max() <= 1e-12


def test_product_group_is_built_once():
    prod = groups.product_group([groups.se2(), groups.so3()])
    assert groups.product_group((groups.se2(), groups.so3())) is prod
    assert groups.product_group([groups.se2(), groups.so3()], name="P") is not prod


def test_polar_projection_restores_rotations(rng):
    d = groups.se3()
    g = groups.random_element(d, rng, 0.5)
    M = np.array(g.matrix)
    M[:3, :3] *= 1.0 + 2e-10  # slight manifold drift
    drifted = groups.GroupElement(d, M)
    assert groups.manifold_defect(drifted) > 1e-12
    fixed = groups.polar_project(drifted)
    assert groups.manifold_defect(fixed) <= 1e-12
