"""Cross-module invariant suites runnable from the CLI.

Each suite returns (checks_run, failure_messages); the report aggregates
them and the CLI exits nonzero on any failure. A debug flag can corrupt
the inner product of the coset-error lengths to demonstrate that the
variance-invariance suite actually detects symmetry breaking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import crb, fisher, groups, homspace, scoring
from ..exceptions import ConfigError
from ..models import GaussianMeanModel, LandmarkModel, NetworkModel, SpdModel
from .config import ExperimentConfig

# Suite name -> runner of (seed, corrupt). Each runner looks its suite
# function up when called, so a wrapped module attribute takes effect.
SUITES = {
    "psi": lambda seed, corrupt: suite_psi(seed),
    "fim-frames": lambda seed, corrupt: suite_fim_frames(seed),
    "variance-invariance": lambda seed, corrupt: suite_variance_invariance(
        seed, corrupt=corrupt
    ),
    "error-block": lambda seed, corrupt: suite_error_block(seed),
    "sphere": lambda seed, corrupt: suite_sphere(seed),
    "gradients": lambda seed, corrupt: suite_gradients(seed),
}


@dataclass(frozen=True)
class PropertySuiteReport:
    results: dict  # suite -> (checks, failures list)

    @property
    def total_checks(self) -> int:
        return sum(c for c, _ in self.results.values())

    @property
    def failures(self) -> list[str]:
        return [msg for _, msgs in self.results.values() for msg in msgs]

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = []
        for name, (checks, msgs) in self.results.items():
            status = "PASS" if not msgs else "FAIL"
            out.append(f"{status} {name}: {checks} checks, {len(msgs)} failures")
            out.extend(f"    {m}" for m in msgs[:5])
        out.append(
            f"{'PASS' if self.passed else 'FAIL'} total: "
            f"{self.total_checks} checks, {len(self.failures)} failures"
        )
        return out


def _landmark_fixture(seed: int):
    model = LandmarkModel([[1.0, 0.0, 0.0]])
    rng = np.random.default_rng([seed, 101])
    g = groups.random_element(groups.se3(), rng, 0.4)
    return model, g, rng


# The psi suite's tolerance on |Psi_X Y - central difference|.
PSI_TOL = 1e-5


def suite_psi(seed: int):
    """Psi series against central differences of the log map, the pairs
    of each group as one stack: Psi_X Y against the derivative at t = 0
    of log(exp(X) exp(tY))."""
    n_pairs, tol, h = 100, PSI_TOL, 1e-5
    failures = []
    checks = 0
    for desc in (groups.so3(), groups.se2(), groups.se3(), groups.glnplus(2)):
        rng = np.random.default_rng([seed, 7, desc.algebra_dim])
        n, scale = desc.algebra_dim, 0.5 / np.sqrt(desc.algebra_dim)
        X, Y = np.array(
            [(scale * rng.standard_normal(n), rng.standard_normal(n)) for _ in range(n_pairs)]
        ).transpose(1, 0, 2)
        P = groups._psi_series(np.tensordot(X, groups.structure_constants(desc), 1), 10)[0]
        exp_X = groups._exp_stack(X, desc)

        def log_of_moved(points):
            moved = (exp_X @ points).reshape(-1, desc.matrix_dim, desc.matrix_dim)
            errors = groups._membership_stack(moved, desc)[1]
            if not errors:
                coords, errors = groups._log_stack(moved, desc)
            if errors:  # the lowest pair's, plus point before minus
                raise errors[min(errors, key=lambda r: (r % n_pairs, r // n_pairs))]
            return coords.reshape(2, n_pairs, -1)

        fd = groups.central_differences(
            log_of_moved, groups.identity_element(desc), Y, h, groups.LIVF
        )
        devs = np.abs((P @ Y[..., None])[..., 0] - fd).max(axis=1)
        for k, dev in enumerate(devs.tolist()):
            checks += 1
            if dev > tol:
                failures.append(f"psi[{desc.name}#{k}]: deviation {dev:.2e} > {tol:g}")
    return checks, failures


def suite_fim_frames(seed: int):
    """FIM frame relations on the landmark model (analytic), the subgroup
    samples as one verify_fim_properties_stack call."""
    n_h, tol = 20, 1e-9
    model, g, rng = _landmark_fixture(seed)
    H = model.struct.sample_subgroup(rng, n_h)
    failures = []
    for k, (h_block, fiber, adjoint, conj) in enumerate(
        fisher.verify_fim_properties_stack(model, g, H).tolist()
    ):
        if h_block != 0.0:
            failures.append(f"fim-frames[{k}]: h-block {h_block:.2e} != 0")
        for name, dev in (("fiber", fiber), ("adjoint", adjoint), ("conjugation", conj)):
            if dev > tol:
                failures.append(f"fim-frames[{k}] {name}: {dev:.2e} > {tol:g}")
    return 4 * n_h, failures


def suite_variance_invariance(seed: int, corrupt: bool = False):
    """Representative-independence of tr(Fbar^-1) and of the coset error
    length. Every (representative, estimate) pair, the reference g's and
    the moved representatives', lifts as one coset_errors stack, and the
    moved FIMs are one stack. The corrupt flag rescales one m-direction
    in the error lengths, which must break the invariance."""
    n_h, n_est, tol = 20, 10, 1e-8
    model, g, rng = _landmark_fixture(seed)
    struct, desc = model.struct, model.descriptor
    gram = np.eye(desc.algebra_dim)
    if corrupt:
        gram[-1, -1] = 10.0
    bound = crb.variance_bound(fisher.fim(model, g, fisher.REDUCED))
    coords = np.zeros((n_est, desc.algebra_dim))
    coords[:, struct.n_H :] = 0.2 * np.random.default_rng([seed, 9]).standard_normal(
        (n_est, struct.n_Theta)
    )
    x = (struct.basis_matrix @ coords[..., None])[..., 0]
    estimates = g.matrix @ groups._exp_stack(x, desc)
    moved = homspace.act(g.matrix, struct.sample_subgroup(rng, n_h), struct.side)
    refs = np.concatenate([g.matrix[None], moved])
    lifted = homspace.coset_errors(
        np.repeat(refs, n_est, axis=0), np.tile(estimates, (n_h + 1, 1, 1)), struct
    )
    if lifted.errors:
        raise lifted.errors[min(lifted.errors)]
    eta_m = lifted.eta_struct.copy()
    eta_m[:, : struct.n_H] = 0.0
    lengths = np.sqrt(np.vecdot(eta_m @ gram, eta_m)).reshape(n_h + 1, n_est).tolist()
    moved_fims = fisher._fim_stack(model, moved, fisher.REDUCED)
    fisher.check_fims(moved_fims, fisher.ANALYTIC)
    failures = []
    for k, trace in enumerate(crb.variance_bounds(moved_fims).tolist()):
        dev = abs(bound - trace)
        if dev > tol:
            failures.append(f"variance-invariance[{k}] trace: {dev:.2e} > {tol:g}")
        for i, (n1, n2) in enumerate(zip(lengths[0], lengths[k + 1])):
            if abs(n1 - n2) > tol:
                failures.append(
                    f"variance-invariance[{k},{i}] error length: "
                    f"|{n1:.6f} - {n2:.6f}| > {tol:g}"
                )
    return n_h * (1 + n_est), failures


def suite_error_block(seed: int):
    """Lifted-estimator errors live in m: h-components vanish. The trials
    score from the identity as one stack and lift as one; the first trial
    whose scoring or lift fails raises its exception."""
    n_trials, m, tol = 100, 100, 1e-8
    model, g, _ = _landmark_fixture(seed)
    opts = scoring.ScoringOptions(gradient_tolerance=1e-11)
    summary = scoring.stack_summaries([
        model.summarize(model.sample(g, m, np.random.default_rng([seed, 13, t])))
        for t in range(n_trials)
    ])
    identity = groups.identity_element(model.descriptor).matrix
    traces, errors = scoring.fisher_scoring_stack(
        model, summary, np.broadcast_to(identity, (n_trials,) + identity.shape), opts
    )
    scored = [t for t in range(n_trials) if t not in errors]
    finals = np.array([traces[t].matrices[-1] for t in scored]).reshape(-1, *identity.shape)
    lifted = homspace.coset_errors(g, finals, model.struct)
    errors.update({scored[i]: exc for i, exc in lifted.errors.items()})
    if errors:
        raise errors[min(errors)]
    coords = lifted.eta_struct
    n_H = model.struct.n_H
    failures = []
    for t, dev in enumerate(np.abs(coords[:, :n_H]).max(axis=1).tolist()):
        if dev > tol:
            failures.append(f"error-block[{t}]: h-component {dev:.2e} > {tol:g}")
    cov = np.cov(coords.T, bias=True)
    se = coords.std(axis=0).max() ** 2 / np.sqrt(n_trials)
    if float(np.abs(cov[:n_H, :]).max()) > max(3 * se, tol):
        failures.append("error-block: covariance h-block exceeds 3 standard errors")
    return n_trials + 1, failures  # one check per trial and the covariance check


def suite_sphere(seed: int):
    """Group coset error equals the closed-form spherical log on S^2, the
    pairs as one stack. They pass one membership test, whose lowest
    failing pair raises, and sphere_riemannian_checks."""
    n_pairs, tol = 100, 1e-10
    s2, so3 = homspace.sphere_structure(), groups.so3()
    rng = np.random.default_rng([seed, 17])
    a_coords, m_coords = np.empty((n_pairs, 3)), np.zeros((n_pairs, 3))
    for k in range(n_pairs):  # the draws of a pair, pair by pair
        a_coords[k] = rng.standard_normal(3)
        direction = rng.standard_normal(2)
        m_coords[k, 1:] = direction * (rng.uniform(0.0, 2.0) / np.linalg.norm(direction))
    a = groups._exp_stack(a_coords, so3)
    b = a @ groups._exp_stack(m_coords @ s2.basis, so3)
    errors = groups._membership_stack(np.concatenate([a, b]), so3)[1]
    if errors:
        raise errors[min(errors, key=lambda r: (r % n_pairs, r // n_pairs))]
    eg, ei = homspace.sphere_riemannian_checks(a, b, s2)
    failures = [
        f"sphere[{k}]: deviation {dev:.2e} > {tol:g}"
        for k, dev in enumerate(np.abs(eg - ei).max(axis=1).tolist())
        if dev > tol
    ]
    return n_pairs, failures


def suite_gradients(seed: int):
    """Analytic gradients against finite differences for every model."""
    tol = 1e-5
    failures = []
    checks = 0
    cases = []
    rng = np.random.default_rng([seed, 23])
    lm = LandmarkModel([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]])
    cases.append(("landmark", lm, groups.random_element(groups.se3(), rng, 0.4), 100))
    net = NetworkModel(
        [[0.0, 0.0], [0.0, 1.0], [0.9, 0.6]], [(0, 1), (1, 2), (0, 2)], 0.3
    )
    cases.append(("network", net, net.reference_element(), 50))
    spd = SpdModel(3)
    cases.append(("spd", spd, groups.random_element(spd.descriptor, rng, 0.3), 50))
    gm = GaussianMeanModel(2)
    cases.append(("gaussian", gm, gm.element([0.4, -0.2]), 50))
    for name, model, g, n in cases:
        x = np.concatenate(
            [model.sample(g, 1, np.random.default_rng([seed, 29, k])) for k in range(n)]
        )
        ga = model.analytic_gradient_batch(x, g, model.struct.basis)
        gf = model._fd_gradient_batch(x, g, model.struct.basis)
        for k, dev in enumerate(np.abs(ga - gf).max(axis=1).tolist()):
            checks += 1
            if dev > tol:
                failures.append(f"gradients[{name}#{k}]: {dev:.2e} > {tol:g}")
    return checks, failures


def run_property_suite(config: ExperimentConfig) -> PropertySuiteReport:
    """Run the selected suites in the order given."""
    section = config.check
    selected = section.get("suites", "all")
    if selected == "all":
        selected = list(SUITES)
    if not isinstance(selected, (list, tuple)) or not all(
        isinstance(s, str) for s in selected
    ):
        raise ConfigError(
            f'check.suites must be "all" or a list of suite names, got {selected!r}'
        )
    unknown = [s for s in selected if s not in SUITES]
    if unknown:
        raise ConfigError(f"unknown property suites: {unknown}")
    corrupt = section.get("corrupt_inner_product", False)
    if not isinstance(corrupt, bool):
        raise ConfigError(
            f"check.corrupt_inner_product must be true or false, got {corrupt!r}"
        )
    return PropertySuiteReport(
        {name: SUITES[name](config.seed, corrupt) for name in selected}
    )
