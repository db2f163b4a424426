"""Multi-agent sensing world: the mechanism table, synthetic data
generation, fusion-center parameter estimation, and the
repeated-experiment runner.

One experiment repetition models one sensing round: every agent draws
its observations through a linear observation model, sanitizes them with
the configured mechanism, the fusion-center adversary reconstructs them,
and the reconstruction metrics are evaluated over the round's tuples.
Reported metrics are means over the configured repetitions.  Every
random draw descends from ``master_seed`` through per-repetition,
per-stage child streams, so a config determines its result bit for bit,
and the first r repetitions are unchanged by raising the repetition
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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
    picks (``known-matrix`` only where the matrix is fixed and public),
    the matrix family the drawing attacks sample (None: the config's
    entry distribution), and the entry distributions under which raw and
    sanitized tuples share a quadrant, so utility is clipped to [0, 1]."""

    adversary: str
    family: san.EntryDistribution | None = None
    same_quadrant: frozenset = frozenset()


_NONNEGATIVE = frozenset({san.EntryDistribution.UNIT_UNIFORM})
MECHANISMS = {
    "nrp": Mechanism("expected-inverse", same_quadrant=_NONNEGATIVE),
    "nrp-unbounded": Mechanism("expected-inverse", same_quadrant=_NONNEGATIVE),
    "brp": Mechanism("known-matrix", family=san.EntryDistribution.GAUSSIAN_QR),
    "pca": Mechanism("known-matrix", family=san.EntryDistribution.GAUSSIAN_QR),
    "asup": Mechanism("identity"),
    "identity": Mechanism("identity", same_quadrant=frozenset(san.EntryDistribution)),
}
ADVERSARIES = ("auto", "random-inverse", "expected-inverse", "known-matrix",
               "naive-inverse", "identity")
# Entry distributions a config may name: the ones the projections draw.
DISTRIBUTIONS = tuple(d.value for d in san.BOUNDED_DISTRIBUTIONS)
SWEEP_AGENT_GRID = (50, 100, 200, 300, 400, 500, 600)
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
    breach_absolute_radius: float | None = None
    metric_coordinates: str = "all"  # "all" or "private": which columns the
                                     # reconstruction metrics compare
    # Synthetic-data recipe
    noise_sigma: float = 0.1
    shift_margin: float = 0.4        # extra nonnegativity headroom, in raw entry stds
    cell_fraction: float = 0.1       # grid cell side as a fraction of the max tuple norm
    # Mechanism details
    asup_noise_cell_multiple: float = 0.35
    inverse_samples: int = 64        # draws behind the expected-inverse attack
    unbounded_fresh_per_tuple: bool = False

    def __post_init__(self):
        def require(ok: bool, message: str) -> None:
            if not ok:
                raise ConfigInvalid(message)

        for f in fields(self):
            value = getattr(self, f.name)
            require(not isinstance(value, float) or math.isfinite(value),
                    f"{f.name} must be finite")
        for name in ("agent_count", "observations_per_agent", "repetitions", "k_neighbors",
                     "inverse_samples"):
            require(getattr(self, name) >= 1, f"{name} must be positive")
        for name in ("radius_fraction", "cell_fraction"):
            require(getattr(self, name) > 0, f"{name} must be positive")
        for name in ("master_seed", "noise_sigma", "shift_margin", "asup_noise_cell_multiple",
                     "breach_absolute_radius"):
            require((getattr(self, name) or 0.0) >= 0, f"{name} must be nonnegative")
        require(self.sanitizer in MECHANISMS, f"unknown sanitizer {self.sanitizer!r}")
        require(self.adversary in ADVERSARIES, f"unknown adversary {self.adversary!r}")
        require(self.adversary != "known-matrix" or self.mechanism.adversary == "known-matrix",
                f"known-matrix attack needs a fixed-matrix mechanism, not {self.sanitizer!r}")
        require(self.entry_distribution in DISTRIBUTIONS,
                f"entry_distribution must be one of {', '.join(DISTRIBUTIONS)}")
        require(1 <= self.target_dim <= self.input_dim, "need 1 <= target_dim <= input_dim")
        require(0 < self.min_utility <= 1, "min_utility must lie in (0, 1]")
        require(0 <= self.private_count <= self.input_dim,
                "private_count must lie in [0, input_dim]")
        require(self.agent_count * self.observations_per_agent > self.k_neighbors,
                "need more tuples per round than k_neighbors")
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
    cell = cfg.cell_fraction * max_norm
    side = math.ceil(math.sqrt(cfg.agent_count))
    return GridSpec(cell * side, cell, cfg.agent_count)


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
    noise = cfg.noise_sigma * rng.standard_normal((nagents, nobs, n))
    raw = np.einsum("anq,q->an", h, x)[:, None, :] + noise

    flat = raw.reshape(-1, n)
    shift = max(0.0, -float(flat.min())) + cfg.shift_margin * float(flat.std())
    shifted = flat + shift
    scale = 1.0 / float(np.linalg.norm(shifted, axis=1).max())
    values = shifted * scale

    return SyntheticDataset(x, values, scale * h, cfg.private_count, shift * scale, scale)


def estimate_parameters(values: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Least-squares fusion of a round: the x minimizing the summed
    squared residuals ``values[j] - matrices[j // r] @ x`` over the
    (tuples x n) observations, r = tuples / agents consecutive rows per
    agent's (n x q) matrix.  Solves the per-agent normal equations, so
    no (tuples x n)-row matrix is stacked; raises RankDeficient when the
    stacked matrices have rank below q."""
    agents, n, q = matrices.shape
    if len(values) == 0 or len(values) % agents or values.shape[1] != n:
        raise ValueError(f"need agents x observations rows of length {n}, "
                         f"got shape {values.shape} for {agents} agents")
    flat = matrices.reshape(-1, q)
    gram = flat.T @ flat
    rank = np.linalg.matrix_rank(gram, hermitian=True)
    if rank < q:
        raise RankDeficient(f"stacked observation matrices have rank {rank} < {q}")
    sums = values.reshape(agents, -1, n).sum(axis=1)
    return np.linalg.solve(len(values) // agents * gram, flat.T @ sums.reshape(-1))


def _certificates(cfg: ExperimentConfig, data: SyntheticDataset,
                  cell: float) -> list[NormBoundCertificate]:
    alphas = row_norms(data.values).reshape(data.agent_count, -1).max(axis=1)
    return [compute_norm_bound(cfg.min_utility, cell, float(alpha)) for alpha in alphas]


@dataclass
class _RoundContext:
    """What one sanitization round hands to the attack stage."""
    mean: np.ndarray
    fixed_matrix: np.ndarray | None = None   # brp and pca only


def _sanitize_round(cfg: ExperimentConfig, data: SyntheticDataset,
                    rng: Rng) -> tuple[np.ndarray, _RoundContext]:
    """Sanitize every tuple of the round with the configured mechanism;
    returns the (tuples x out_dim) value array."""
    n, m = cfg.input_dim, cfg.target_dim
    y = data.values
    ctx = _RoundContext(mean=y.mean(axis=0))
    cell = make_grid(cfg, float(np.linalg.norm(y, axis=1).max())).cell_side
    mech = cfg.sanitizer
    if mech == "nrp":
        betas = [c.frobenius_bound for c in _certificates(cfg, data, cell)]
        beta_per_tuple = np.repeat(betas, data.observations_per_agent)
        return san.nrp(y, m, rng, cfg.distribution, beta_per_tuple)[0], ctx
    if mech == "nrp-unbounded":
        per = 1 if cfg.unbounded_fresh_per_tuple else data.observations_per_agent
        return san.nrp(y, m, rng, cfg.distribution, rows_per_matrix=per)[0], ctx
    if mech == "brp":
        ctx.fixed_matrix = san.sample_orthonormal_matrix(n, m, rng.child(0)).matrix
        return san.brp(y, ctx.fixed_matrix), ctx
    if mech == "pca":
        ctx.fixed_matrix = san.fit_pca(y, m).matrix
        return san.pca(y, ctx.fixed_matrix, ctx.mean), ctx
    if mech == "asup":
        noise_scale = cfg.asup_noise_cell_multiple * cell
        return san.asup(y, noise_scale, range(cfg.private_count), rng), ctx
    return san.identity(y), ctx


def _attack_round(cfg: ExperimentConfig, sanitized: np.ndarray,
                  ctx: _RoundContext, rng: Rng) -> np.ndarray:
    """Reconstruct every sanitized tuple; returns a (tuples x n) array."""
    n = cfg.input_dim
    mech = cfg.mechanism
    adv = mech.adversary if cfg.adversary == "auto" else cfg.adversary
    family = mech.family or cfg.distribution
    if adv == "expected-inverse":
        lm = atk.expected_inverse_map(n, sanitized.shape[1], family, cfg.inverse_samples,
                                      rng.child(0))
        return atk.linear(sanitized, lm)
    if adv in ("random-inverse", "naive-inverse"):
        attack = atk.random_inverse if adv == "random-inverse" else atk.naive_multiply
        return attack(sanitized, n, family, [rng.child(j) for j in range(len(sanitized))])
    if adv == "known-matrix":
        # brp projects raw tuples; pca projects tuples centered on the mean.
        return atk.known_matrix(sanitized, ctx.fixed_matrix, ctx.mean,
                                mean_in_tuple=cfg.sanitizer == "brp")
    return atk.identity(sanitized, n)


def _same_quadrant(cfg: ExperimentConfig) -> bool:
    return cfg.distribution in cfg.mechanism.same_quadrant


def _robustness_gap(cfg: ExperimentConfig, data: SyntheticDataset,
                    recons: np.ndarray) -> float:
    """Distance between fusion estimates from raw tuples and from the
    adversary's reconstruction embedding; the concept-robustness
    diagnostic at radius = one grid cell.  NaN when the round's
    observation matrices cannot identify the parameter."""
    # The fusion is linear, so one solve on the difference gives the
    # difference of the two estimates, and the shift cancels.
    try:
        return float(np.linalg.norm(estimate_parameters(data.values - recons, data.matrices)))
    except RankDeficient:
        return float("nan")


def _utility_means(cfg: ExperimentConfig, actual: np.ndarray,
                   sanitized: np.ndarray) -> tuple[float, float]:
    """Mean utility/privacy over the round's tuples."""
    _, u = met.utility_scores(actual, sanitized, _same_quadrant(cfg))
    return float(u.mean()), float((1.0 - u).mean())


def run_repetition(cfg: ExperimentConfig, repetition: int) -> RepetitionMetrics:
    rep_rng = Rng(cfg.master_seed).child(repetition)
    data = generate_synthetic(cfg, rep_rng.child(0))
    sanitized, ctx = _sanitize_round(cfg, data, rep_rng.child(1))
    recons = _attack_round(cfg, sanitized, ctx, rep_rng.child(2))

    actual = data.values
    if cfg.metric_coordinates == "private":
        cols = sorted(range(cfg.private_count))
        eval_actual, eval_recons = actual[:, cols], recons[:, cols]
    else:
        eval_actual, eval_recons = actual, recons
    breach = met.breach_count(eval_actual, eval_recons, cfg.radius_fraction,
                              cfg.breach_absolute_radius)
    disp = met.displacement(eval_actual, eval_recons)
    resem = met.resemblance(eval_actual, eval_recons, cfg.k_neighbors)
    u_mean, p_mean = _utility_means(cfg, actual, sanitized)
    gap = _robustness_gap(cfg, data, recons)
    return RepetitionMetrics(repetition, breach, disp, resem, u_mean, p_mean, gap)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all repetitions of one configuration and average the metrics."""
    rows = [run_repetition(cfg, r) for r in range(cfg.repetitions)]
    rule = (f"absolute-{cfg.breach_absolute_radius:.17g}"
            if cfg.breach_absolute_radius is not None
            else f"relative-{cfg.radius_fraction:.17g}")
    report = met.MetricReport(
        breach_count=float(np.mean([r.breach_count for r in rows])),
        displacement=float(np.mean([r.displacement for r in rows])),
        resemblance=float(np.mean([r.resemblance for r in rows])),
        neighborhood_radius_rule=rule,
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


def sweep_configs(cfg: ExperimentConfig, agent_grid, mechanisms) -> list[ExperimentConfig]:
    """The config of every (mechanism, agent count) grid point, mechanism
    major; building them validates each one."""
    return [replace(cfg, sanitizer=mech, agent_count=nagents, adversary="auto")
            for mech in mechanisms for nagents in agent_grid]


def run_sweep(cfg: ExperimentConfig, agent_grid=SWEEP_AGENT_GRID,
              mechanisms=("nrp", "brp", "pca", "asup")) -> list[dict]:
    """One result row per (mechanism, agent count) grid point.  Every
    grid point's config is validated before the first one runs."""
    rows = [run_experiment(sub).row() for sub in sweep_configs(cfg, agent_grid, mechanisms)]
    return [{key: row[key] for key in SWEEP_COLUMNS} for row in rows]
