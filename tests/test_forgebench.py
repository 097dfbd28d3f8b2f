"""Benchmark construction, conflict classification, and cell mechanics.

The heavy directional experiments (masking pilot, Pareto grid, landscape
gap) live in test_acceptance.py; this module covers the constructive
guarantees that hold by design.
"""

from dataclasses import replace

import numpy as np
import pytest

from eaftlab import forgebench as fb
from eaftlab import objectives as obj
from eaftlab import toylm
from eaftlab.errors import InvalidArgumentError

FAST_PROTOCOL = fb.BenchProtocol(
    hidden_dim=32,
    pretrain_stages=(fb.TrainStage(400, "adam-lite", 3e-3),),
    finetune_steps=30,
)
SMALL_SIZES = fb.GenerationSizes(
    pretrain_sequences=120, finetune_walks=150, eval_sequences=100
)


class TestSampler:
    def test_cdf_draws_match_generator_choice(self):
        # _walk's inverse-CDF draw must stay numpy's own Generator.choice
        # algorithm, draw for draw and state for state
        rng = np.random.default_rng(11)
        v = 24
        rows = np.zeros((6, v))
        rows[0, 3] = 1.0
        rows[1, [0, 5, 23]] = [1e-300, 1.0 - 1e-12, 1e-12]
        rows[2, :4] = rng.dirichlet(np.full(4, 0.05))
        rows[3, ::3] = rng.dirichlet(np.ones(8))
        rows[4] = rng.dirichlet(np.full(v, 2.0))
        rows[5, [2, 7]] = [0.5, 0.5]
        cdf = fb._transition_cdf(rows)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for i in range(12000):
            s = i % len(rows)
            want = int(a.choice(v, p=rows[s]))
            assert int(cdf[s].searchsorted(b.random(), side="right")) == want
        assert a.bit_generator.state == b.bit_generator.state


class TestSpecs:
    def test_conflict_rates_must_fit(self):
        with pytest.raises(InvalidArgumentError):
            fb.ConflictSpec(conflict_rate=0.7, novelty_rate=0.4)

    def test_peak_mass_bounds(self):
        with pytest.raises(InvalidArgumentError):
            fb.DomainSpec(peak_mass=0.01)

    def test_sizes_minimum(self):
        with pytest.raises(InvalidArgumentError):
            fb.GenerationSizes(pretrain_sequences=50)


class TestGenerateDomains:
    def test_no_injection_means_unchanged(self):
        data = fb.generate_domains(
            fb.DomainSpec(seed=1),
            fb.ConflictSpec(conflict_rate=0.0, novelty_rate=0.0),
            SMALL_SIZES,
        )
        assert set(data.finetune_kinds) == {"unchanged"}
        # untouched corpus: every target is a raw chain emission
        gt = data.ground_truth
        assert np.all(data.finetune.targets < gt.active)

    def test_full_conflict_rate(self):
        data = fb.generate_domains(
            fb.DomainSpec(seed=2, peaked_fraction=1.0),
            fb.ConflictSpec(conflict_rate=1.0, novelty_rate=0.0),
            SMALL_SIZES,
        )
        gt = data.ground_truth
        assert set(data.finetune_kinds) == {"conflict"}
        dominants = gt.dominant[data.finetune_states]
        assert np.all(data.finetune.targets != dominants)

    def test_injection_soundness(self):
        # every logged conflict position targets a non-dominant token of a
        # peaked context, verified against the ground-truth tables
        data = fb.generate_domains(fb.DomainSpec(seed=3), fb.ConflictSpec(), SMALL_SIZES)
        gt = data.ground_truth
        mask = data.finetune_kinds == "conflict"
        assert mask.sum() > 0
        states = data.finetune_states[mask]
        assert np.all(gt.peaked_mask[states])
        assert np.all(data.finetune.targets[mask] != gt.dominant[states])
        for ctx, tgt, s in zip(
            data.finetune.contexts[mask], data.finetune.targets[mask], states
        ):
            assert gt.state_of(ctx) == s
            assert tgt == gt.conflict_labels[int(s)]

    def test_novel_positions_in_flat_contexts(self):
        data = fb.generate_domains(fb.DomainSpec(seed=4), fb.ConflictSpec(), SMALL_SIZES)
        gt = data.ground_truth
        mask = data.finetune_kinds == "novel"
        assert mask.sum() > 0
        assert not np.any(gt.peaked_mask[data.finetune_states[mask]])

    def test_eval_split_excludes_novel_contexts(self):
        data = fb.generate_domains(fb.DomainSpec(seed=5), fb.ConflictSpec(), SMALL_SIZES)
        gt = data.ground_truth
        for ctx in data.eval_a.contexts:
            assert gt.state_of(ctx) not in gt.novel_contexts
        for ctx in data.eval_b.contexts:
            assert gt.state_of(ctx) in gt.novel_contexts

    def test_rates_approximately_met(self):
        data = fb.generate_domains(fb.DomainSpec(seed=6), fb.ConflictSpec(), SMALL_SIZES)
        share = (data.finetune_kinds == "conflict").mean()
        assert share == pytest.approx(0.3, abs=0.05)

    def test_visit_cap_enforced(self):
        data = fb.generate_domains(fb.DomainSpec(seed=7), fb.ConflictSpec(), SMALL_SIZES)
        _, counts = np.unique(data.finetune_states, return_counts=True)
        assert counts.max() <= SMALL_SIZES.finetune_cap

    def test_deterministic(self):
        a = fb.generate_domains(fb.DomainSpec(seed=8), fb.ConflictSpec(), SMALL_SIZES)
        b = fb.generate_domains(fb.DomainSpec(seed=8), fb.ConflictSpec(), SMALL_SIZES)
        assert np.array_equal(a.finetune.targets, b.finetune.targets)
        assert np.array_equal(a.pretrain.contexts, b.pretrain.contexts)


class TestClassifyConflicts:
    def test_untrained_model_has_no_conflict_cluster(self):
        # a fresh model is near-uniform everywhere: the joint quadrant holds
        # only the q*q coincidence of two independent percentile cuts
        data = fb.generate_domains(fb.DomainSpec(seed=9), fb.ConflictSpec(), SMALL_SIZES)
        params = toylm.init_model(toylm.ModelConfig(hidden_dim=32, seed=0))
        labels, _ = fb.classify_conflicts(params, data.finetune, q=0.15)
        assert (labels == "confident-conflict").mean() < 0.05

    def test_thresholds_are_nearest_rank(self):
        data = fb.generate_domains(fb.DomainSpec(seed=10), fb.ConflictSpec(), SMALL_SIZES)
        params = toylm.init_model(toylm.ModelConfig(hidden_dim=32, seed=0))
        gates, p_t = fb.score_gates(params, data.finetune)
        labels, (tau_h, tau_p) = fb.classify_conflicts(params, data.finetune, q=0.15)
        n = len(data.finetune)
        assert (gates <= tau_h).sum() >= int(np.ceil(0.15 * n))
        assert (p_t <= tau_p).sum() >= int(np.ceil(0.15 * n))

    def test_pretrained_recall_meets_floor(self, pretrained_seed0):
        # scored on the conflict-injected corpus, at least rho/2 of injected
        # conflict positions land in the confident-conflict quadrant
        config, data, snapshot = pretrained_seed0
        labels, _ = fb.classify_conflicts(snapshot, data.finetune, q=0.15)
        mask = data.finetune_kinds == "conflict"
        recall = (labels[mask] == "confident-conflict").mean()
        assert recall >= 0.15


class TestRunCell:
    def test_gate_zero_objective_is_noop(self):
        domain = fb.DomainSpec(seed=11)
        data = fb.generate_domains(domain, fb.ConflictSpec(), SMALL_SIZES)
        config, data, snapshot = fb.pretrain_snapshot(
            domain, fb.ConflictSpec(), SMALL_SIZES, FAST_PROTOCOL, seed=0
        )
        spec = obj.named_objective("hard_mask", tau_entropy=1.0)
        result = toylm.train(
            toylm.TrainRun(
                config=config,
                corpus=data.finetune,
                objective=spec,
                optimizer="sgd-momentum",
                learning_rate=0.1,
                steps=25,
                batch_size=32,
                seed=1,
                init=snapshot,
            )
        )
        for f in toylm.PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(result.params, f), getattr(snapshot, f))

    def test_same_seed_identical_cell(self):
        kwargs = dict(
            domain=fb.DomainSpec(seed=12),
            conflict=fb.ConflictSpec(),
            sizes=SMALL_SIZES,
            protocol=FAST_PROTOCOL,
        )
        a = fb.run_cell("eaft", 3, **kwargs)
        b = fb.run_cell("eaft", 3, **kwargs)
        assert a == b

    def test_unknown_objective(self):
        with pytest.raises(InvalidArgumentError):
            fb.run_cell("talr", 0)


class TestParetoReport:
    def test_single_cell_row(self):
        cell = fb.BenchCell("ce", 0, 1.0, 0.5, 0.9, 0.1)
        rows = fb.pareto_report([cell])
        assert rows[0]["retention_delta_mean"] == 1.0
        assert rows[0]["retention_delta_sd"] == 0.0

    def test_identical_cells_identical_rows(self):
        a = fb.BenchCell("ce", 0, 1.0, 0.5, 0.9, 0.1)
        b = fb.BenchCell("eaft", 0, 1.0, 0.5, 0.9, 0.1)
        rows = fb.pareto_report([a, b])
        assert rows[0]["retention_delta_mean"] == rows[1]["retention_delta_mean"]

    def test_grid_cardinality(self, bench_cells):
        rows = fb.pareto_report(bench_cells)
        assert len(rows) == 9
        assert [r["objective"] for r in rows] == sorted(obj.OBJECTIVE_NAMES)

    def test_merge_order_independent(self, bench_cells):
        shuffled = list(bench_cells)[::-1]
        assert fb.pareto_report(shuffled) == fb.pareto_report(bench_cells)


class TestQuadrantGapProperty:
    def test_finetune_vs_rollout_share(self, pretrained_seed0):
        # the injected corpus shows a confident-conflict cluster that
        # self-sampled rollouts lack (>= 10x share under shared thresholds)
        from eaftlab import landscape as ls

        config, data, snapshot = pretrained_seed0
        labels, thresholds = fb.classify_conflicts(snapshot, data.finetune, q=0.45)
        share_ft = (labels == "confident-conflict").mean()
        rollouts = fb.sample_rollouts(
            snapshot, data.ground_truth, 100, 40, config.context_len, seed=777
        )
        recs = ls.score_corpus(snapshot, rollouts)
        ro = ls.quadrant_stats(recs, thresholds=thresholds)
        assert share_ft >= 10.0 * ro["shares"]["confident-conflict"]
