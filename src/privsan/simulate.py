"""Multi-agent sensing world: the mechanism table, synthetic data
generation, fusion-center parameter estimation, and the
repeated-experiment runner.

One experiment repetition models one sensing round: every agent draws
its observations through a linear observation model, sanitizes them with
the configured mechanism, the fusion-center adversary reconstructs them,
and the reconstruction metrics are evaluated over the round's tuples.
The adversary knows the mechanism and its entry distribution but not a
matrix drawn per tuple; ``MECHANISMS`` names each mechanism's attack.
Reported metrics are means over the configured repetitions.  Every
random draw descends from ``master_seed`` through per-repetition,
per-stage child streams, so a config determines its result bit for bit,
and the first r repetitions are unchanged by raising the repetition
count.

One repetition of every config of a run or sweep is one function,
``_repetition(points, r)``, and the runner is a loop over it.  If any
config runs the expected-inverse attack, the repetition first estimates
its one map: the map's stream does not depend on the agent count.  Then
it draws one round per agent count, runs every config with that count
on it, and drops it before drawing the next.  The configs on one round
share its data, its fusion gram and the actual cloud's kNN sets.  A
shared value is the one each config would compute on its own, so
sharing leaves every result unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import attack as atk
from . import metrics as met
from . import sanitize as san
from .bounds import GridSpec, NormBoundCertificate, compute_norm_bound
from .errors import ConfigInvalid, RankDeficient
from .linalg import row_norms
from .rng import Rng


@dataclass(frozen=True)
class Mechanism:
    """One sanitizer's entry in the mechanism table: the attack ``auto``
    picks (``expected-inverse`` where the matrix is drawn per tuple,
    ``known-matrix`` where it is fixed and public, ``identity`` where
    the dimension is kept), and the entry distributions under which raw
    and sanitized tuples share a quadrant, so utility is clipped to [0, 1]."""

    adversary: str
    same_quadrant: frozenset = frozenset()


_NONNEGATIVE = frozenset({san.EntryDistribution.UNIT_UNIFORM})
MECHANISMS = {
    "nrp": Mechanism("expected-inverse", same_quadrant=_NONNEGATIVE),
    "nrp-unbounded": Mechanism("expected-inverse", same_quadrant=_NONNEGATIVE),
    "brp": Mechanism("known-matrix"),
    "pca": Mechanism("known-matrix"),
    "asup": Mechanism("identity"),
    "identity": Mechanism("identity", same_quadrant=frozenset(san.EntryDistribution)),
}
# ``auto`` is the mechanism's own attack; ``random-inverse`` ablates ``expected-inverse``.
ADVERSARIES = ("auto", "random-inverse")
DISTRIBUTIONS = tuple(d.value for d in san.EntryDistribution)
# Largest magnitude of a float setting.  Squared norms in the synthetic
# round overflow float64 near 1e150, and the certificate's (t / alpha)**2
# sooner when an agent's largest tuple is short.
FLOAT_LIMIT = 1e6
# Smallest noise_sigma for pca on one agent.  That agent's tuples differ
# only by their noise, so below rounding (~1e-16 of a tuple) pca centers
# every tuple to zero; 1e-9 stays far above it.
PCA_ONE_AGENT_MIN_NOISE = 1e-9
SWEEP_AGENT_GRID = (50, 100, 200, 300, 400, 500, 600)
SWEEP_MECHANISMS = ("nrp", "brp", "pca", "asup")
SWEEP_COLUMNS = ("mechanism", "agents", "min_utility", "target_dim", "breach_count",
                 "displacement", "resemblance", "utility", "privacy")


@dataclass(frozen=True)
class ExperimentConfig:
    # World shape
    agent_count: int = 200
    observations_per_agent: int = 50
    input_dim: int = 50
    param_dim: int = 50
    target_dim: int = 20
    private_count: int = 12
    # Trade-off parameter
    min_utility: float = 0.5
    # Mechanism / adversary selection
    sanitizer: str = "nrp"
    adversary: str = "auto"
    entry_distribution: str = san.EntryDistribution.UNIT_UNIFORM.value
    # Averaging
    repetitions: int = 100
    master_seed: int = 0
    # Metric settings
    radius_fraction: float = 0.2
    k_neighbors: int = 10
    metric_coordinates: str = "all"  # "all" or "private": which columns the
                                     # reconstruction metrics compare
    # Synthetic-data recipe
    noise_sigma: float = 0.1
    shift_margin: float = 0.4        # extra nonnegativity headroom, in raw entry stds
    cell_fraction: float = 0.1       # grid cell side as a fraction of the max tuple norm
    # Mechanism details
    asup_noise_cell_multiple: float = 0.35
    inverse_samples: int = 64        # draws behind the expected-inverse attack

    def __post_init__(self):
        def require(ok: bool, message: str) -> None:
            if not ok:
                raise ConfigInvalid(message)

        for f in fields(self):
            value = getattr(self, f.name)
            require(value is not None, f"{f.name} must not be null")
            require(not isinstance(value, float) or abs(value) <= FLOAT_LIMIT,
                    f"{f.name} must be finite and at most {FLOAT_LIMIT:g} in magnitude")
        for name in ("agent_count", "observations_per_agent", "param_dim", "repetitions",
                     "k_neighbors", "inverse_samples"):
            require(getattr(self, name) >= 1, f"{name} must be positive")
        for name in ("radius_fraction", "cell_fraction"):
            require(getattr(self, name) > 0, f"{name} must be positive")
        for name in ("master_seed", "noise_sigma", "shift_margin", "asup_noise_cell_multiple"):
            require(getattr(self, name) >= 0, f"{name} must be nonnegative")
        require(self.sanitizer in MECHANISMS, f"unknown sanitizer {self.sanitizer!r}")
        require(self.adversary in ADVERSARIES, f"adversary must be one of "
                f"{', '.join(ADVERSARIES)}, not {self.adversary!r}")
        require(self.adversary == "auto" or self.mechanism.adversary == "expected-inverse",
                f"random-inverse attack needs nrp or nrp-unbounded, not {self.sanitizer!r}")
        require(self.entry_distribution in DISTRIBUTIONS,
                f"entry_distribution must be one of {', '.join(DISTRIBUTIONS)}")
        # With one coordinate only shift_margin * std keeps the smallest
        # shifted tuple off zero, and whether it clears rounding depends on
        # the drawn round, not on the config; the utility of a zero tuple
        # is undefined.  One coordinate also leaves nothing to reduce.
        require(self.input_dim >= 2, "input_dim must be at least 2")
        require(1 <= self.target_dim <= self.input_dim, "need 1 <= target_dim <= input_dim")
        require(0 < self.min_utility <= 1, "min_utility must lie in (0, 1]")
        require(0 <= self.private_count <= self.input_dim,
                "private_count must lie in [0, input_dim]")
        require(self.sanitizer != "pca" or self.agent_count >= 2
                or self.noise_sigma >= PCA_ONE_AGENT_MIN_NOISE,
                f"pca on one agent needs noise_sigma >= {PCA_ONE_AGENT_MIN_NOISE:g}")
        require(self.agent_count * self.observations_per_agent > self.k_neighbors,
                "need more tuples per round than k_neighbors")
        # numpy cannot index an array with more elements than this.
        require(max(self.agent_count * self.input_dim * self.param_dim,
                    self.agent_count * self.observations_per_agent * self.input_dim)
                <= np.iinfo(np.intp).max,
                "agent_count x input_dim x max(param_dim, observations_per_agent) "
                "exceeds the largest array numpy can index")
        require(self.metric_coordinates in ("all", "private"),
                "metric_coordinates must be 'all' or 'private'")
        require(self.metric_coordinates == "all" or self.private_count > 0,
                "no private coordinates to evaluate")

    @property
    def distribution(self) -> san.EntryDistribution:
        return san.EntryDistribution(self.entry_distribution)

    @property
    def mechanism(self) -> Mechanism:
        return MECHANISMS[self.sanitizer]

    @property
    def attack(self) -> str:
        """The attack this config runs: the mechanism's own under ``auto``."""
        return self.mechanism.adversary if self.adversary == "auto" else self.adversary


@dataclass(frozen=True)
class SyntheticDataset:
    """One sensing round: the hidden parameter, all agent tuples
    (agent-major order) as a (tuples x n) array, the agents' scaled
    observation matrices as an (agents x n x q) array, the count of
    leading private coordinates, and the affine normalization that was
    applied (y_final = scale * (y_raw + shift_per_coordinate))."""

    parameter: np.ndarray
    values: np.ndarray
    matrices: np.ndarray
    private_count: int
    shift: float
    scale: float

    @property
    def agent_count(self) -> int:
        return self.matrices.shape[0]

    @property
    def observations_per_agent(self) -> int:
        return self.values.shape[0] // self.agent_count

    @cached_property
    def gram(self) -> np.ndarray | None:
        """The round's :func:`fusion_gram`, or None when the observation
        matrices cannot identify the parameter; built once per round and
        shared by every mechanism's robustness gap."""
        try:
            return fusion_gram(self.matrices)
        except RankDeficient:
            return None

    @property
    def tuples(self) -> list[san.DataTuple]:
        """The round as per-tuple objects for the per-tuple API, built on
        each access: row j of ``values``, owned by agent ``a{j // nobs}``."""
        private = frozenset(range(self.private_count))
        nobs = self.observations_per_agent
        return [san.DataTuple(row, private, f"a{j // nobs:04d}")
                for j, row in enumerate(self.values)]


@dataclass(frozen=True)
class RepetitionMetrics:
    repetition: int
    breach_count: float
    displacement: float
    resemblance: float
    utility: float
    privacy: float
    robustness_gap: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    report: met.MetricReport
    utility_mean: float
    privacy_mean: float
    robustness_gap_mean: float
    per_repetition: list[RepetitionMetrics]

    def row(self) -> dict:
        """The result as one flat report row, in column order."""
        cfg, report = self.config, self.report
        return {
            "mechanism": cfg.sanitizer,
            "agents": cfg.agent_count,
            "observations_per_agent": cfg.observations_per_agent,
            "input_dim": cfg.input_dim,
            "target_dim": cfg.target_dim,
            "min_utility": cfg.min_utility,
            "master_seed": cfg.master_seed,
            "repetitions": cfg.repetitions,
            "breach_count": report.breach_count,
            "displacement": report.displacement,
            "resemblance": report.resemblance,
            "utility": self.utility_mean,
            "privacy": self.privacy_mean,
            "robustness_gap": self.robustness_gap_mean,
            "radius_rule": report.neighborhood_radius_rule,
            "k_neighbors": report.k_neighbors,
        }


def make_grid(cfg: ExperimentConfig, max_norm: float = 1.0) -> GridSpec:
    return GridSpec(cfg.cell_fraction * max_norm)


def generate_synthetic(cfg: ExperimentConfig, rng: Rng) -> SyntheticDataset:
    """Draw one sensing round.

    The hidden parameter is standard normal; each agent's observation
    matrix has iid Unif(-0.5, 0.5) entries; observations add Gaussian
    noise.  Tuples are then shifted by one constant so every coordinate
    is nonnegative (with ``shift_margin`` extra headroom) and rescaled so
    the largest tuple norm is exactly 1, which keeps the norm-bound
    certificates feasible at any utility floor.  The first
    ``private_count`` coordinates are marked private.
    """
    n, q = cfg.input_dim, cfg.param_dim
    nagents, nobs = cfg.agent_count, cfg.observations_per_agent
    x = rng.standard_normal(q)
    h = rng.uniform(-0.5, 0.5, (nagents, n, q))
    # Built in place: a round-sized temporary freed here stays in the heap
    # and stacks under the nrp draw, which sets a run's peak memory.
    values = rng.standard_normal((nagents, nobs, n))
    values *= cfg.noise_sigma
    values += np.einsum("anq,q->an", h, x)[:, None, :]
    values = values.reshape(-1, n)
    shift = max(0.0, -float(values.min())) + cfg.shift_margin * float(values.std())
    values += shift
    scale = 1.0 / float(np.linalg.norm(values, axis=1).max())
    values *= scale
    h *= scale
    return SyntheticDataset(x, values, h, cfg.private_count, shift * scale, scale)


def fusion_gram(matrices: np.ndarray) -> np.ndarray:
    """The (q x q) gram of the agents' stacked (n x q) observation
    matrices; raises RankDeficient when their rank is below q."""
    q = matrices.shape[2]
    flat = matrices.reshape(-1, q)
    gram = flat.T @ flat
    rank = np.linalg.matrix_rank(gram, hermitian=True)
    if rank < q:
        raise RankDeficient(f"stacked observation matrices have rank {rank} < {q}")
    return gram


def estimate_parameters(values: np.ndarray, matrices: np.ndarray,
                        gram: np.ndarray | None = None) -> np.ndarray:
    """Least-squares fusion of a round: the x minimizing the summed
    squared residuals ``values[j] - matrices[j // r] @ x`` over the
    (tuples x n) observations, r = tuples / agents consecutive rows per
    agent's (n x q) matrix.  Solves the per-agent normal equations, so
    no (tuples x n)-row matrix is stacked.  ``gram`` is
    ``fusion_gram(matrices)``, built here when not given, which raises
    RankDeficient when the stacked matrices have rank below q."""
    agents, n, _ = matrices.shape
    if len(values) == 0 or len(values) % agents or values.shape[1] != n:
        raise ValueError(f"need agents x observations rows of length {n}, "
                         f"got shape {values.shape} for {agents} agents")
    if gram is None:
        gram = fusion_gram(matrices)
    sums = values.reshape(agents, -1, n).sum(axis=1)
    # Per agent, summed over agents in order: no BLAS call is long
    # enough to be split across threads, so the bits do not depend on
    # the BLAS thread count.
    rhs = (sums[:, None, :] @ matrices)[:, 0, :].sum(axis=0)
    return np.linalg.solve(len(values) // agents * gram, rhs)


def _certificates(cfg: ExperimentConfig, data: SyntheticDataset,
                  cell: float) -> list[NormBoundCertificate]:
    alphas = row_norms(data.values).reshape(data.agent_count, -1).max(axis=1)
    return [compute_norm_bound(cfg.min_utility, cell, float(alpha)) for alpha in alphas]


def _sanitize_round(cfg: ExperimentConfig, data: SyntheticDataset,
                    rng: Rng) -> tuple[np.ndarray, np.ndarray | None]:
    """Sanitize every tuple of the round with the configured mechanism;
    returns the (tuples x out_dim) value array and the fixed n x m
    matrix of ``brp`` and ``pca`` (None for the others)."""
    n, m = cfg.input_dim, cfg.target_dim
    y = data.values
    cell = make_grid(cfg, float(np.linalg.norm(y, axis=1).max())).cell_side
    mech = cfg.sanitizer
    if mech == "nrp":
        betas = [c.frobenius_bound for c in _certificates(cfg, data, cell)]
        beta_per_tuple = np.repeat(betas, data.observations_per_agent)
        return san.nrp(y, m, rng, cfg.distribution, beta_per_tuple), None
    if mech == "nrp-unbounded":
        return san.nrp(y, m, rng, cfg.distribution,
                       rows_per_matrix=data.observations_per_agent), None
    if mech == "brp":
        matrix = san.sample_orthonormal_matrix(n, m, rng.child(0))
        return san.brp(y, matrix), matrix
    if mech == "pca":
        matrix = san.fit_pca(y, m)
        return san.pca(y, matrix, y.mean(axis=0)), matrix
    if mech == "asup":
        noise_scale = cfg.asup_noise_cell_multiple * cell
        return san.asup(y, noise_scale, range(cfg.private_count), rng), None
    return san.identity(y), None


def _attack_round(cfg: ExperimentConfig, data: SyntheticDataset, sanitized: np.ndarray,
                  matrix: np.ndarray | None, rng: Rng,
                  linear_map: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct every sanitized tuple of the round ``data``; returns a
    (tuples x n) array, for a dimension-preserving mechanism ``sanitized``
    itself.  ``matrix`` is the mechanism's fixed matrix and ``linear_map``
    the expected-inverse map, read only by the attacks that use them."""
    if cfg.attack == "expected-inverse":
        return atk.linear(sanitized, linear_map)
    if cfg.attack == "random-inverse":
        streams = [rng.child(j) for j in range(len(sanitized))]
        return atk.random_inverse(sanitized, cfg.input_dim, cfg.distribution, streams)
    if cfg.attack == "known-matrix":
        # brp projects raw tuples; pca projects tuples centered on the mean.
        return atk.known_matrix(sanitized, matrix, data.values.mean(axis=0),
                                mean_in_tuple=cfg.sanitizer == "brp")
    return sanitized


def _robustness_gap(cfg: ExperimentConfig, data: SyntheticDataset,
                    recons: np.ndarray) -> float:
    """Distance between fusion estimates from raw tuples and from the
    adversary's reconstruction embedding; the concept-robustness
    diagnostic at radius = one grid cell.  NaN when the round's
    observation matrices cannot identify the parameter."""
    # The fusion is linear, so one solve on the difference gives the
    # difference of the two estimates, and the shift cancels.
    if data.gram is None:
        return float("nan")
    return float(np.linalg.norm(
        estimate_parameters(data.values - recons, data.matrices, data.gram)))


def _utility_means(cfg: ExperimentConfig, actual: np.ndarray,
                   sanitized: np.ndarray) -> tuple[float, float]:
    """Mean utility/privacy over the round's tuples."""
    _, u = met.utility_scores(actual, sanitized, cfg.distribution in cfg.mechanism.same_quadrant)
    return float(u.mean()), float((1.0 - u).mean())


def _metric_columns(cfg: ExperimentConfig, values: np.ndarray) -> np.ndarray:
    """The columns of a (tuples x n) array that the reconstruction metrics compare."""
    if cfg.metric_coordinates == "private":
        return values[:, np.arange(cfg.private_count)]
    return values


def run_repetition(cfg: ExperimentConfig, repetition: int, data: SyntheticDataset,
                   actual: np.ndarray, actual_knn: np.ndarray,
                   linear_map: np.ndarray | None = None) -> RepetitionMetrics:
    """Sanitize, attack and score the round ``data`` with ``cfg``'s
    mechanism.  ``actual`` holds the metric columns of the round's
    tuples, ``actual_knn`` their kNN sets, and ``linear_map`` the
    repetition's expected-inverse map."""
    rep_rng = Rng(cfg.master_seed).child(repetition)
    sanitized, matrix = _sanitize_round(cfg, data, rep_rng.child(1))
    recons = _attack_round(cfg, data, sanitized, matrix, rep_rng.child(2), linear_map)

    eval_recons = _metric_columns(cfg, recons)
    breach = met.breach_count(actual, eval_recons, cfg.radius_fraction)
    disp = met.displacement(actual, eval_recons)
    resem = met.knn_overlap(actual_knn, met.knn_indices(eval_recons, cfg.k_neighbors))
    u_mean, p_mean = _utility_means(cfg, data.values, sanitized)
    gap = _robustness_gap(cfg, data, recons)
    return RepetitionMetrics(repetition, breach, disp, resem, u_mean, p_mean, gap)


def _repetition(points: list[ExperimentConfig], r: int) -> list[RepetitionMetrics]:
    """Repetition ``r`` of every config in ``points``, which differ only in
    sanitizer, adversary and agent count; one result per config, in order.
    The expected-inverse map comes first, if any config's attack reads
    it.  Then each agent count's round is drawn, every config with that
    count runs on it, and it is dropped before the next is drawn."""
    cfg = points[0]
    rep_rng = Rng(cfg.master_seed).child(r)
    linear_map = None
    if any(p.attack == "expected-inverse" for p in points):
        linear_map = atk.expected_inverse_map(cfg.input_dim, cfg.target_dim, cfg.distribution,
                                              cfg.inverse_samples, rep_rng.child(2).child(0))
    results: list = [None] * len(points)
    for nagents in dict.fromkeys(p.agent_count for p in points):
        group = [j for j, p in enumerate(points) if p.agent_count == nagents]
        data = generate_synthetic(points[group[0]], rep_rng.child(0))
        actual = _metric_columns(cfg, data.values)
        actual_knn = met.knn_indices(actual, cfg.k_neighbors)
        for j in group:
            results[j] = run_repetition(points[j], r, data, actual, actual_knn, linear_map)
        del data, actual, actual_knn    # before the next round is drawn
    return results


def peak_bytes(cfg: ExperimentConfig) -> int:
    """Upper estimate of the bytes one repetition of ``cfg`` holds at once.
    It counts the round's agent matrices and gram; six (tuples x n)
    float64 arrays: the round's values, the sanitized rows, the
    reconstruction, a metric's difference of the two and the kNN's two
    float64 copies of a cloud; the kNN's screen buffers, 2 ``KNN_BLOCK``
    x tuples x 8 bytes, and both clouds' (tuples x k) indices; for nrp
    and asup, two chunks of draws (a chunk and the product's or the QR's
    copy of it); and the attack's draws: the expected-inverse map's and
    their SVD factors, or a few ``ATTACK_CHUNK``s of draws and, per
    tuple, a stream and, while the first draws' keys are hashed, its
    (seed, path) pair, key columns and uint64 key (under 512 bytes
    together)."""
    n, q, m = cfg.input_dim, cfg.param_dim, cfg.target_dim
    tuples = cfg.agent_count * cfg.observations_per_agent
    # (entries per draw, draws per round) of the mechanisms that draw
    entries, draws = {"nrp": (n * m, tuples), "nrp-unbounded": (n * m, cfg.agent_count),
                      "asup": (n * n, tuples)}.get(cfg.sanitizer, (0, 0))
    chunk = min(max(san.DRAW_CHUNK, entries), draws * entries)
    attack = {"expected-inverse": 4 * cfg.inverse_samples * n * m,
              "random-inverse": 5 * atk.ATTACK_CHUNK * n * m + 64 * tuples}.get(cfg.attack, 0)
    return 8 * (cfg.agent_count * n * q + q * q + 6 * tuples * n
                + 2 * met.KNN_BLOCK * tuples + 2 * tuples * cfg.k_neighbors + 2 * chunk + attack)


def _run_points(points: list[ExperimentConfig]) -> list[list[RepetitionMetrics]]:
    """Every repetition of every config in ``points``: each config's
    repetitions, in order."""
    reps = [_repetition(points, r) for r in range(points[0].repetitions)]
    return [list(run) for run in zip(*reps)]


def _average(cfg: ExperimentConfig, rows: list[RepetitionMetrics]) -> ExperimentResult:
    """A config's result: the means of its repetitions, in repetition order."""
    report = met.MetricReport(
        breach_count=float(np.mean([r.breach_count for r in rows])),
        displacement=float(np.mean([r.displacement for r in rows])),
        resemblance=float(np.mean([r.resemblance for r in rows])),
        neighborhood_radius_rule=f"relative-{cfg.radius_fraction:.17g}",
        k_neighbors=cfg.k_neighbors,
        repetitions=cfg.repetitions,
    )
    return ExperimentResult(
        config=cfg,
        report=report,
        utility_mean=float(np.mean([r.utility for r in rows])),
        privacy_mean=float(np.mean([r.privacy for r in rows])),
        robustness_gap_mean=float(np.mean([r.robustness_gap for r in rows])),
        per_repetition=rows,
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all repetitions of one configuration and average the metrics."""
    return _average(cfg, _run_points([cfg])[0])


def sweep_configs(cfg: ExperimentConfig, agent_grid, mechanisms) -> list[ExperimentConfig]:
    """The config of every (mechanism, agent count) grid point, mechanism
    major; building them validates each one.  Each point runs its
    mechanism's own attack, so ``cfg``'s adversary must be ``auto``."""
    if cfg.adversary != "auto":
        raise ConfigInvalid(f"sweep runs each mechanism's own attack; adversary must be "
                            f"'auto', not {cfg.adversary!r}")
    return [replace(cfg, sanitizer=mech, agent_count=nagents)
            for mech in mechanisms for nagents in agent_grid]


def run_sweep(cfg: ExperimentConfig, agent_grid=SWEEP_AGENT_GRID,
              mechanisms=SWEEP_MECHANISMS) -> list[dict]:
    """One result row per (mechanism, agent count) grid point, mechanism
    major.  Every grid point's config is validated before the first
    round is drawn."""
    points = sweep_configs(cfg, agent_grid, mechanisms)
    rows = [_average(p, runs).row() for p, runs in zip(points, _run_points(points))]
    return [{key: row[key] for key in SWEEP_COLUMNS} for row in rows]
