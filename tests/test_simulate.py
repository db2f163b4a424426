from dataclasses import replace

import numpy as np
import pytest

from privsan.attack import expected_inverse_map, linear
from privsan.errors import ConfigInvalid, RankDeficient
from privsan.rng import Rng
from privsan.sanitize import EntryDistribution
from privsan.simulate import (
    ExperimentConfig,
    SyntheticDataset,
    _attack_round,
    _certificates,
    _robustness_gap,
    _sanitize_round,
    estimate_parameters,
    generate_synthetic,
    run_experiment,
    run_sweep,
)

FAST = dict(agent_count=20, observations_per_agent=4, repetitions=2, master_seed=3)

# Each of these fails config validation, before any work.
INVALID_CONFIGS = [
    {"entry_distribution": "foo"},
    {"entry_distribution": "gaussian-qr"},
    {"inverse_samples": 0},
    {"cell_fraction": 0.0},
    {"agent_count": 5, "observations_per_agent": 2, "k_neighbors": 10},
    {"noise_sigma": -0.1},
    {"shift_margin": -0.1},
    {"asup_noise_cell_multiple": -0.1},
    {"breach_absolute_radius": -0.1},
    {"noise_sigma": float("nan")},
    {"sanitizer": "asup", "adversary": "known-matrix"},
    {"master_seed": -1},
]


class TestGenerateSynthetic:
    def test_shapes_and_privacy_marking(self):
        cfg = ExperimentConfig(agent_count=50, repetitions=1)
        data = generate_synthetic(cfg, Rng(1))
        assert data.values.shape == (50 * 50, 50)
        assert data.matrices.shape == (50, 50, 50)
        assert (data.agent_count, data.observations_per_agent) == (50, 50)
        assert data.parameter.size == 50
        assert data.private_count == 12

    def test_tuples_view_the_value_rows(self):
        cfg = ExperimentConfig(agent_count=7, observations_per_agent=3, repetitions=1,
                               private_count=4)
        data = generate_synthetic(cfg, Rng(1))
        tuples = data.tuples
        assert len(tuples) == 21
        for j, t in enumerate(tuples):
            assert t.values.tobytes() == data.values[j].tobytes()
            assert t.agent_id == f"a{j // 3:04d}"
            assert t.private_indices == frozenset(range(4))

    def test_nonnegative_and_unit_max_norm(self):
        cfg = ExperimentConfig(**FAST)
        vals = generate_synthetic(cfg, Rng(2)).values
        assert vals.min() >= 0.0
        norms = np.linalg.norm(vals, axis=1)
        assert norms.max() == pytest.approx(1.0, abs=1e-12)

    def test_linear_model_bookkeeping(self):
        # With zero sensing noise every tuple equals its agent's scaled
        # model image of the parameter plus the recorded shift.
        cfg = ExperimentConfig(agent_count=6, observations_per_agent=3,
                               repetitions=1, noise_sigma=0.0)
        data = generate_synthetic(cfg, Rng(3))
        for i in range(6):
            expected = data.matrices[i] @ data.parameter + data.shift
            assert np.allclose(data.values[i * 3:(i + 1) * 3], expected, atol=1e-12)

    def test_observation_matrix_moments(self):
        cfg = ExperimentConfig(agent_count=50, observations_per_agent=1, repetitions=1)
        data = generate_synthetic(cfg, Rng(4))
        entries = data.matrices.ravel() / data.scale
        assert entries.size >= 100_000
        assert abs(entries.mean()) < 0.005
        assert entries.min() >= -0.5 and entries.max() <= 0.5

    def test_certificate_cell_relation(self):
        cfg = ExperimentConfig(**FAST)
        data = generate_synthetic(cfg, Rng(5))
        cell = cfg.cell_fraction * np.linalg.norm(data.values, axis=1).max()
        for cert in _certificates(cfg, data, cell):
            # The scale cap stems from the one-cell move rule:
            # (t - 1) * alpha equals the cell side exactly.
            assert (cert.scale_cap - 1) * cert.max_tuple_norm == pytest.approx(
                cell, rel=1e-12)


class TestEstimateParameters:
    def test_noiseless_exact_recovery(self):
        gen = Rng(6).generator
        x = gen.standard_normal(4)
        matrices = gen.uniform(-0.5, 0.5, (3, 6, 4))
        est = estimate_parameters(matrices @ x, matrices)
        assert np.abs(est - x).max() < 1e-9

    def test_single_identity_agent(self):
        y = np.array([[1.0, -2.0, 0.5]])
        est = estimate_parameters(y, np.eye(3)[None])
        assert np.allclose(est, y[0], atol=1e-12)

    def test_two_agent_hand_normal_equations(self):
        h1 = np.array([[1.0], [2.0]])
        h2 = np.array([[3.0], [0.0]])
        y1 = np.array([2.0, 3.0])
        y2 = np.array([4.0, 1.0])
        # x = (h1.y1 + h2.y2) / (|h1|^2 + |h2|^2) = (8 + 12) / 14
        est = estimate_parameters(np.stack([y1, y2]), np.stack([h1, h2]))
        assert est[0] == pytest.approx(20.0 / 14.0, abs=1e-9)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            estimate_parameters(np.ones((1, 3)), np.zeros((1, 3, 2)))
        # Two agents observing along the same direction: rank 1 < 2.
        h = np.array([[1.0, 2.0], [2.0, 4.0], [0.5, 1.0]])
        with pytest.raises(RankDeficient):
            estimate_parameters(np.ones((2, 3)), np.stack([h, 3.0 * h]))

    def test_matches_stacked_lstsq(self):
        # Several observations per agent: each agent's rows share its
        # matrix, so the stacked system repeats the matrix per row.
        gen = Rng(7).generator
        matrices = gen.uniform(-0.5, 0.5, (4, 5, 3))
        obs = gen.standard_normal((4 * 2, 5))
        est = estimate_parameters(obs, matrices)
        a = np.vstack([h for h in matrices for _ in range(2)])
        ref = np.linalg.lstsq(a, obs.ravel(), rcond=None)[0]
        assert np.abs(est - ref).max() < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            estimate_parameters(np.ones((3, 5)), np.ones((2, 5, 3)))
        with pytest.raises(ValueError):
            estimate_parameters(np.ones((2, 4)), np.ones((2, 5, 3)))

    def test_zero_matrices_give_nan_gap(self):
        cfg = ExperimentConfig(**FAST)
        data = generate_synthetic(cfg, Rng(8))
        blind = SyntheticDataset(data.parameter, data.values, np.zeros_like(data.matrices),
                                 data.private_count, data.shift, data.scale)
        assert np.isnan(_robustness_gap(cfg, blind, data.values))
        assert _robustness_gap(cfg, data, data.values) == 0.0


class TestRunExperiment:
    def test_identity_mechanism_floor(self):
        cfg = ExperimentConfig(**FAST, sanitizer="identity")
        res = run_experiment(cfg)
        assert res.report.breach_count == 1.0
        assert res.report.displacement == 0.0
        assert res.utility_mean == 1.0
        assert res.robustness_gap_mean == pytest.approx(0.0, abs=1e-9)

    def test_determinism(self):
        cfg = ExperimentConfig(**FAST, sanitizer="nrp")
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.report == b.report
        assert a.per_repetition == b.per_repetition

    def test_seed_isolation_under_rep_count_change(self):
        cfg6 = ExperimentConfig(agent_count=15, observations_per_agent=3,
                                repetitions=6, master_seed=9)
        cfg3 = replace(cfg6, repetitions=3)
        full = run_experiment(cfg6).per_repetition
        short = run_experiment(cfg3).per_repetition
        assert full[:3] == short

    def test_utility_privacy_complement(self):
        cfg = ExperimentConfig(**FAST, sanitizer="nrp")
        res = run_experiment(cfg)
        for row in res.per_repetition:
            assert abs(row.utility + row.privacy - 1.0) <= 1e-12

    def test_all_mechanisms_and_adversaries_run(self):
        for mech in ("nrp", "nrp-unbounded", "brp", "pca", "asup", "identity"):
            cfg = ExperimentConfig(agent_count=12, observations_per_agent=2,
                                   repetitions=1, master_seed=1, sanitizer=mech)
            res = run_experiment(cfg)
            assert 0.0 <= res.report.breach_count <= 1.0
        for adv in ("random-inverse", "expected-inverse", "naive-inverse", "identity"):
            cfg = ExperimentConfig(agent_count=12, observations_per_agent=2,
                                   repetitions=1, master_seed=1, adversary=adv)
            run_experiment(cfg)

    def test_known_matrix_needs_fixed_mechanism(self):
        with pytest.raises(ConfigInvalid):
            run_experiment(ExperimentConfig(**FAST, sanitizer="nrp", adversary="known-matrix"))

    def test_private_coordinate_metrics(self):
        base = ExperimentConfig(**FAST, sanitizer="identity")
        priv = replace(base, metric_coordinates="private")
        res = run_experiment(priv)
        # Exact reconstruction breaches on any coordinate subset.
        assert res.report.breach_count == 1.0
        assert res.report.displacement == 0.0
        whole = run_experiment(replace(base, sanitizer="nrp"))
        sub = run_experiment(replace(base, sanitizer="nrp",
                                     metric_coordinates="private"))
        assert whole.report.displacement != sub.report.displacement

    def test_symmetric_uniform_distribution_runs(self):
        cfg = ExperimentConfig(**FAST, sanitizer="nrp",
                               entry_distribution="symmetric-uniform")
        res = run_experiment(cfg)
        assert res.report.displacement > 0

    def test_unbounded_fresh_flag_changes_result(self):
        base = ExperimentConfig(agent_count=15, observations_per_agent=3,
                                repetitions=2, master_seed=5,
                                sanitizer="nrp-unbounded")
        static = run_experiment(base)
        fresh = run_experiment(replace(base, unbounded_fresh_per_tuple=True))
        assert static.report != fresh.report

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(sanitizer="bogus")
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(target_dim=99)
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(min_utility=0.0)
        for bad in INVALID_CONFIGS:
            with pytest.raises(ConfigInvalid):
                ExperimentConfig(**bad)

    def test_brp_expected_inverse_uses_orthonormal_family(self):
        # The fusion center knows brp draws an orthonormal matrix, so the
        # expected inverse is estimated over that family, as the random
        # inverse already was.
        _assert_expected_inverse_family("brp", EntryDistribution.GAUSSIAN_QR)

    def test_pca_expected_inverse_uses_orthonormal_family(self):
        # pca's components are orthonormal too.
        _assert_expected_inverse_family("pca", EntryDistribution.GAUSSIAN_QR)


def _assert_expected_inverse_family(sanitizer, family):
    cfg = ExperimentConfig(**FAST, sanitizer=sanitizer, adversary="expected-inverse")
    rng = Rng(11)
    data = generate_synthetic(cfg, rng.child(0))
    sanitized, ctx = _sanitize_round(cfg, data, rng.child(1))
    recon = _attack_round(cfg, sanitized, ctx, rng.child(2))
    lm = expected_inverse_map(cfg.input_dim, cfg.target_dim, family,
                              cfg.inverse_samples, rng.child(2).child(0))
    assert np.array_equal(recon, linear(sanitized, lm))
    wrong = expected_inverse_map(cfg.input_dim, cfg.target_dim,
                                 EntryDistribution.UNIT_UNIFORM, cfg.inverse_samples,
                                 rng.child(2).child(0))
    assert not np.allclose(recon, linear(sanitized, wrong))


class TestRunSweep:
    def test_row_cardinality_and_columns(self):
        cfg = ExperimentConfig(agent_count=10, observations_per_agent=2,
                               repetitions=1, master_seed=2)
        rows = run_sweep(cfg, agent_grid=(12, 15), mechanisms=("nrp", "brp"))
        assert len(rows) == 4
        assert [r["agents"] for r in rows] == [12, 15, 12, 15]
        for row in rows:
            assert set(row) == {"mechanism", "agents", "min_utility", "target_dim",
                                "breach_count", "displacement", "resemblance",
                                "utility", "privacy"}

    def test_sweep_deterministic(self):
        cfg = ExperimentConfig(agent_count=10, observations_per_agent=2,
                               repetitions=2, master_seed=4)
        a = run_sweep(cfg, agent_grid=(12,), mechanisms=("nrp",))
        b = run_sweep(cfg, agent_grid=(12,), mechanisms=("nrp",))
        assert a == b
