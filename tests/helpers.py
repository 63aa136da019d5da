"""Independent oracles shared by the test modules.

These deliberately avoid the library's own code paths: the Jacobi
eigensolver checks the power-iteration PCA's variances, the per-component
power iteration checks its steps, the dense least-squares solver
checks the incremental sufficient-statistics fit, and the per-round loops
check the engine that plays frozen rounds in batches, from a table of the
models its training rounds left, and the baselines that decide a whole run in
one call.
"""

import numpy as np

from feedauction.agents import Strategy, report
from feedauction.core import derive_stream
from feedauction.dataio import ConvergenceError
from feedauction.mechanism import (
    MechanismState,
    exploration_rate,
    parse_price_distribution,
    second_price,
)


def jacobi_eigenvalues(matrix: np.ndarray, sweeps: int = 100, tol: float = 1e-13) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, descending."""
    a = np.array(matrix, dtype=float)
    size = a.shape[0]
    for _ in range(sweeps):
        off_diagonal = np.sqrt((a**2).sum() - (np.diag(a) ** 2).sum())
        if off_diagonal < tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(size - 1):
            for q in range(p + 1, size):
                if abs(a[p, q]) < 1e-30:
                    continue
                angle = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(angle), np.sin(angle)
                rotation = np.eye(size)
                rotation[p, p] = c
                rotation[q, q] = c
                rotation[p, q] = s
                rotation[q, p] = -s
                a = rotation.T @ a @ rotation
    return np.sort(np.diag(a))[::-1]


def power_iteration_reference(
    data: np.ndarray, n_components: int, *, tol: float = 1e-9, max_iter: int = 10_000
) -> tuple[np.ndarray, np.ndarray]:
    """Principal components and variances by power iteration with deflation.

    The same iteration as ``pca_fit``, from the same start vectors, but each
    step re-orthogonalizes against the earlier components one at a time
    (modified Gram-Schmidt). Raises ``ConvergenceError`` naming the component
    whose iterate is still moving after ``max_iter`` steps.
    """
    centered = data - data.mean(axis=0)
    working = centered.T @ centered / (data.shape[0] - 1)
    dim = working.shape[0]
    scale = max(1.0, float(np.trace(working)))
    rng = np.random.Generator(np.random.PCG64(0x5CA1AB1E))

    def orthogonalize(basis, vector):
        for other in basis:
            vector = vector - (other @ vector) * other
        return vector

    def filler(basis):
        # First coordinate axis with a part outside the basis, normalized.
        for axis in np.eye(dim):
            rest = orthogonalize(basis, axis)
            if np.linalg.norm(rest) > 1e-9:
                return rest / np.linalg.norm(rest)
        raise AssertionError("basis is complete")

    basis, variances = [], []
    for j in range(n_components):
        vector = orthogonalize(basis, rng.standard_normal(dim))
        norm = np.linalg.norm(vector)
        vector = filler(basis) if norm < 1e-12 else vector / norm
        for _ in range(max_iter):
            image = working @ vector
            for other in basis:
                image -= (other @ image) * other
            if np.linalg.norm(image) <= 1e-15 * scale:
                vector, variance = filler(basis), 0.0
                break
            image /= np.linalg.norm(image)
            residual = np.linalg.norm(image - vector)
            vector = image
            if residual < tol:
                variance = float(vector @ working @ vector)
                break
        else:
            raise ConvergenceError(f"component {j} did not converge", residual)
        basis.append(vector)
        variances.append(variance)
        working = working - variance * np.outer(vector, vector)
    components = np.array([v if v[np.abs(v) > 1e-12][0] > 0 else -v for v in basis])
    return components, np.minimum.accumulate(np.maximum(variances, 0.0))


def dense_ridge_solve(design: np.ndarray, targets: np.ndarray, ridge: float) -> np.ndarray:
    """Ridge least squares assembled from raw samples with explicit inversion."""
    gram = design.T @ design + ridge * np.eye(design.shape[1])
    return np.linalg.inv(gram) @ (design.T @ targets)


def per_round_reference(config, run):
    """Replay a learned run with the per-round loop: coin, estimates and refit in each round.

    The engine plays the rounds between training rounds in batches, each
    agent read from the table row of its last training round; this loop
    plays every round on its own, drawing the round's coin inside the round
    and refitting models lazily through ``ValueModel.predict``, as the engine
    did before it batched. It reads only the run's world (contexts,
    utilities, run seed) and returns the decision columns and final models.
    """
    horizon, n_agents = config.horizon, config.n_agents
    contexts, utilities = run.contexts, run.utilities
    state = MechanismState.create(config, contexts.shape[2], run.run_seed)
    fixed_price = parse_price_distribution(config.price_distribution)
    deviant, deviant_strategy = config.deviant_index, Strategy.parse(config.deviant_strategy)
    report_stream = None
    if deviant is not None:
        report_stream = derive_stream(run.run_seed, f"agents/report/{deviant}")
    columns = {
        "estimates": np.empty((horizon, n_agents)),
        "allocated": np.empty(horizon, dtype=int),
        "payments": np.empty(horizon),
        "comparison_prices": np.empty(horizon),
        "explored": np.empty(horizon, dtype=bool),
        "reports": np.empty(horizon, dtype=bool),
        "eta": np.empty(horizon),
    }
    for ti in range(horizon):
        estimates = np.array([m.predict(c) for m, c in zip(state.models, contexts[ti])])
        rate = exploration_rate(config, ti + 1)
        explored = bool(state.coin_stream.random() < rate)
        if explored:
            winner = int(state.agent_stream.integers(n_agents))
            price = float(state.price_stream.random()) if fixed_price is None else fixed_price
            payment = 0.0
        else:
            winner, price = second_price(estimates)
            payment = price
        utility = float(utilities[ti, winner])
        strategy = deviant_strategy if winner == deviant else Strategy()
        answer = bool(report(strategy, utility, price, report_stream))
        if explored:
            target = utility if config.mechanism == "direct_regression" else float(answer)
            state.models[winner].ingest(contexts[ti, winner], target)
        row = (estimates, winner, payment, price, explored, answer, rate)
        for column, value in zip(columns.values(), row):
            column[ti] = value
    columns["final_models"] = [
        {"sample_count": m.sample_count, "coefficients": m.coefficients.tolist()}
        for m in state.models
    ]
    return columns


def per_round_baseline_reference(config, run):
    """Replay a ``uniform`` or ``oracle`` run one round at a time.

    Each round makes its own exploration draw (``uniform``) or sorts its own
    true means (``oracle``, lowest index on ties), then asks the winner at
    the round's price, as the driver did before it batched the baselines.
    It reads only the run's world (true means, utilities, run seed) and
    returns the decision columns.
    """
    horizon, n_agents = config.horizon, config.n_agents
    uniform = config.mechanism == "uniform"
    state = MechanismState.create(config, 1, run.run_seed)
    fixed_price = parse_price_distribution(config.price_distribution)
    deviant, deviant_strategy = config.deviant_index, Strategy.parse(config.deviant_strategy)
    report_stream = None
    if deviant is not None:
        report_stream = derive_stream(run.run_seed, f"agents/report/{deviant}")
    columns = {
        "allocated": np.empty(horizon, dtype=int),
        "payments": np.empty(horizon),
        "comparison_prices": np.empty(horizon),
        "explored": np.empty(horizon, dtype=bool),
        "reports": np.empty(horizon, dtype=bool),
        "eta": np.empty(horizon),
    }
    for ti in range(horizon):
        if uniform:
            winner = int(state.agent_stream.integers(n_agents))
            price = float(state.price_stream.random()) if fixed_price is None else fixed_price
            payment = 0.0
        else:
            means = run.true_means[ti]
            winner = int(np.argmax(means))
            payment = price = float(np.sort(means)[-2])
        strategy = deviant_strategy if winner == deviant else Strategy()
        answer = bool(report(strategy, float(run.utilities[ti, winner]), price, report_stream))
        row = (winner, payment, price, uniform, answer, float(uniform))
        for column, value in zip(columns.values(), row):
            column[ti] = value
    return columns
