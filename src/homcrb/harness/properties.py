"""Cross-module invariant suites runnable from the CLI.

Each suite returns (checks_run, failure_messages); the report aggregates
them and the CLI exits nonzero on any failure. A debug flag can corrupt
the inner product to demonstrate that the variance-invariance suite
actually detects symmetry breaking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import crb, fisher, groups, homspace, scoring
from ..models import GaussianMeanModel, LandmarkModel, NetworkModel, SpdModel
from .config import ExperimentConfig

ALL_SUITES = (
    "psi",
    "fim-frames",
    "variance-invariance",
    "error-block",
    "sphere",
    "gradients",
)


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


def suite_psi(seed: int):
    """Psi series against central differences of the log map."""
    n_pairs, tol, h = 100, 1e-5, 1e-5
    failures = []
    checks = 0
    for desc in (groups.so3(), groups.se2(), groups.se3(), groups.glnplus(2)):
        rng = np.random.default_rng([seed, 7, desc.algebra_dim])
        for k in range(n_pairs):
            X = groups.random_algebra_vector(
                desc, rng, 0.5 / np.sqrt(desc.algebra_dim)
            )
            Y = groups.random_algebra_vector(desc, rng, 1.0)
            P = groups.psi_matrix(X)
            fd = groups.central_difference(
                lambda g: groups.log(g).coords, groups.exp(X), Y, h, groups.LIVF
            )
            dev = float(np.abs(P.matrix @ Y.coords - fd).max())
            checks += 1
            if dev > tol:
                failures.append(f"psi[{desc.name}#{k}]: deviation {dev:.2e} > {tol:g}")
    return checks, failures


def suite_fim_frames(seed: int):
    """FIM frame relations on the landmark model (analytic)."""
    n_h, tol = 20, 1e-9
    model, g, rng = _landmark_fixture(seed)
    failures = []
    checks = 0
    for k in range(n_h):
        h = model.struct.subgroup_sampler(rng)
        rep = fisher.verify_fim_properties(model, g, h)
        checks += 4
        if rep.h_block != 0.0:
            failures.append(f"fim-frames[{k}]: h-block {rep.h_block:.2e} != 0")
        for name, dev in (
            ("fiber", rep.fiber_constancy),
            ("adjoint", rep.adjoint_relation),
            ("conjugation", rep.fiber_conjugation),
        ):
            if dev > tol:
                failures.append(f"fim-frames[{k}] {name}: {dev:.2e} > {tol:g}")
    return checks, failures


def suite_variance_invariance(seed: int, corrupt: bool = False):
    """Representative-independence of tr(Fbar^-1) and of the coset error
    length. The corrupt flag rescales one m-direction of the inner
    product, which must break the invariance."""
    n_h, tol = 20, 1e-8
    model, g, rng = _landmark_fixture(seed)
    struct = model.struct
    if corrupt:
        gram = np.eye(struct.group.algebra_dim)
        gram[-1, -1] = 10.0
        struct = struct.with_gram(gram)
    F1 = fisher.fim(model, g, fisher.REDUCED)
    failures = []
    checks = 0
    estimates = [
        g @ groups.exp(struct.from_coords(np.concatenate([[0, 0, 0], d])))
        for d in 0.2 * np.random.default_rng([seed, 9]).standard_normal((10, 3))
    ]
    # H\G side: representatives of the same coset are hg.
    for k in range(n_h):
        h = struct.subgroup_sampler(rng)
        moved = h @ g
        F1h = fisher.fim(model, moved, fisher.REDUCED)
        checks += 1
        dev = abs(crb.variance_bound(F1) - crb.variance_bound(F1h))
        if dev > tol:
            failures.append(f"variance-invariance[{k}] trace: {dev:.2e} > {tol:g}")
        for i, est in enumerate(estimates):
            e1 = homspace.coset_error(g, est, struct)
            e2 = homspace.coset_error(moved, est, struct)
            n1 = struct.norm(np.concatenate([np.zeros(struct.n_H), e1.eta_reduced]))
            n2 = struct.norm(np.concatenate([np.zeros(struct.n_H), e2.eta_reduced]))
            checks += 1
            if abs(n1 - n2) > tol:
                failures.append(
                    f"variance-invariance[{k},{i}] error length: "
                    f"|{n1:.6f} - {n2:.6f}| > {tol:g}"
                )
    return checks, failures


def suite_error_block(seed: int):
    """Lifted-estimator errors live in m: h-components vanish."""
    n_trials, m, tol = 100, 100, 1e-8
    model, g, _ = _landmark_fixture(seed)
    failures = []
    checks = 0
    opts = scoring.ScoringOptions(gradient_tolerance=1e-11)
    coords = []
    for t in range(n_trials):
        rng = np.random.default_rng([seed, 13, t])
        obs = model.sample(g, m, rng)
        est = scoring.fisher_scoring(
            model, obs, groups.identity_element(groups.se3()), opts
        ).final
        ce = homspace.coset_error(g, est, model.struct)
        coords.append(ce.eta_struct)
        checks += 1
        dev = float(np.abs(ce.eta_struct[: model.struct.n_H]).max())
        if dev > tol:
            failures.append(f"error-block[{t}]: h-component {dev:.2e} > {tol:g}")
    coords = np.array(coords)
    cov = np.cov(coords.T, bias=True)
    n_H = model.struct.n_H
    se = coords.std(axis=0).max() ** 2 / np.sqrt(n_trials)
    checks += 1
    if float(np.abs(cov[:n_H, :]).max()) > max(3 * se, tol):
        failures.append("error-block: covariance h-block exceeds 3 standard errors")
    return checks, failures


def suite_sphere(seed: int):
    """Group coset error equals the closed-form spherical log on S^2."""
    n_pairs, tol = 100, 1e-10
    s2 = homspace.sphere_structure()
    rng = np.random.default_rng([seed, 17])
    failures = []
    checks = 0
    for k in range(n_pairs):
        a = groups.random_element(groups.so3(), rng, 1.0)
        direction = rng.standard_normal(2)
        direction *= rng.uniform(0.0, 2.0) / np.linalg.norm(direction)
        b = a @ groups.exp(s2.from_coords(np.concatenate([[0.0], direction])))
        eg, ei = homspace.sphere_riemannian_check(a, b, s2)
        checks += 1
        dev = float(np.abs(eg - ei).max())
        if dev > tol:
            failures.append(f"sphere[{k}]: deviation {dev:.2e} > {tol:g}")
    return checks, failures


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
        op = homspace.natural_operator(model.side)
        for k in range(n):
            r = np.random.default_rng([seed, 29, k])
            x = model.sample(g, 1, r)
            ga = model.analytic_gradient_batch(x, g, model.struct.basis, op)
            gf = model._fd_gradient_batch(x, g, model.struct.basis, op)
            checks += 1
            dev = float(np.abs(ga - gf).max())
            if dev > tol:
                failures.append(f"gradients[{name}#{k}]: {dev:.2e} > {tol:g}")
    return checks, failures


def run_property_suite(config: ExperimentConfig) -> PropertySuiteReport:
    section = config.check
    selected = section.get("suites", "all")
    if selected == "all":
        selected = list(ALL_SUITES)
    unknown = [s for s in selected if s not in ALL_SUITES]
    if unknown:
        from ..exceptions import ConfigError

        raise ConfigError(f"unknown property suites: {unknown}")
    corrupt = bool(section.get("corrupt_inner_product", False))
    results = {}
    for name in selected:
        if name == "psi":
            results[name] = suite_psi(config.seed)
        elif name == "fim-frames":
            results[name] = suite_fim_frames(config.seed)
        elif name == "variance-invariance":
            results[name] = suite_variance_invariance(config.seed, corrupt=corrupt)
        elif name == "error-block":
            results[name] = suite_error_block(config.seed)
        elif name == "sphere":
            results[name] = suite_sphere(config.seed)
        elif name == "gradients":
            results[name] = suite_gradients(config.seed)
    return PropertySuiteReport(results)
