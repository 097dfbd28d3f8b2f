"""Benchmark construction, conflict classification, and cell mechanics.

The heavy directional experiments (masking pilot, Pareto grid, landscape
gap) live in test_acceptance.py; this module covers the constructive
guarantees that hold by design.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eaftlab import forgebench as fb
from eaftlab import objectives as obj
from eaftlab import probstats as ps
from eaftlab import toylm
from eaftlab.errors import InvalidArgumentError
from test_golden import DOMAINS

FAST_PROTOCOL = fb.BenchProtocol(
    hidden_dim=32,
    pretrain_stages=(fb.TrainStage(400, "adam-lite", 3e-3),),
    finetune_steps=30,
)
SMALL_SIZES = fb.GenerationSizes(
    pretrain_sequences=120, finetune_walks=150, eval_sequences=100
)

# tracemalloc peak of generate_domains at default GenerationSizes: 2.83 MB
# measured (CPython 3.11, numpy 2.4), 3.24 MB with CDF rows over the whole
# vocabulary, 5.50 MB with every fine-tune window copied before the visit
# cap and a rank array per position
GENERATION_PEAK_BYTES = 3_000_000


def _choice_walks(rng, rows, order, active, n, length):
    """Oracle: one Generator.choice per token, walk after walk."""
    seqs = []
    for _ in range(n):
        seq = [int(t) for t in rng.integers(0, active, size=order)]
        for _ in range(length - order):
            state = 0
            for tok in seq[-order:]:
                state = state * active + tok
            seq.append(int(rng.choice(rows.shape[1], p=rows[state])))
        seqs.append(seq)
    return np.array(seqs, dtype=np.int64)


def _dict_dedup(states, cap):
    """Oracle: the per-position dict loop the fine-tune dedup replaced."""
    kept, mask = {}, []
    for s in states.tolist():
        mask.append(kept.get(s, 0) < cap)
        if mask[-1]:
            kept[s] = kept.get(s, 0) + 1
    return np.array(mask, dtype=bool)


def _tier_loop(eligible, pre_visits, agree):
    """Oracle: the seen-set loop that ranked the conflict candidates, tier by
    tier, each tier by pretraining visits."""
    ids = np.arange(len(eligible))
    tiers = [
        ids[eligible & (pre_visits >= 15) & (agree >= 0.97)],
        ids[eligible & (pre_visits >= 10) & (agree >= 0.94)],
        ids[eligible & (pre_visits >= 5)],
        ids[eligible],
    ]
    seen, ordered = set(), []
    for tier in tiers:
        for s in tier[np.argsort(-pre_visits[tier], kind="stable")]:
            if int(s) not in seen:
                seen.add(int(s))
                ordered.append(int(s))
    return ordered


def _budget_loop(candidates, visits, budget):
    """Oracle: the loop that took candidates until their visits met the budget."""
    taken, acc = [], 0
    for s in candidates:
        if acc >= budget:
            break
        taken.append(int(s))
        acc += int(visits[s])
    return taken


class TestSampler:
    @staticmethod
    def rows(active, order, v):
        # transition rows with exact zeros, 1e-300 masses and one-hot rows;
        # every row reaches a token below `active`, so walks stay in the chain
        rng = np.random.default_rng(11)
        rows = np.zeros((active**order, v))
        for s in range(len(rows)):
            kind = s % 5
            if kind == 0:
                rows[s, s % active] = 1.0
            elif kind == 1:
                rows[s, [0, active - 1]] = [1e-300, 1.0 - 1e-12]
                rows[s, 1] = 1e-12
            elif kind == 2:
                rows[s, :active] = rng.dirichlet(np.full(active, 0.05))
            elif kind == 3:
                rows[s, : active : 2] = rng.dirichlet(np.ones(len(range(0, active, 2))))
            else:
                rows[s, [1, active - 1]] = [0.5, 0.5]
        return rows

    def test_cdf_draws_match_generator_choice(self):
        # the lock-step walks must be numpy's own Generator.choice walks,
        # draw for draw, and leave the generator in the same state
        for order, active in ((1, 5), (2, 4), (3, 3)):
            rows = self.rows(active, order, v=active + 3)
            cdf = fb._transition_cdf(rows)
            a, b = np.random.default_rng(3), np.random.default_rng(3)
            for n, length in ((1, order + 1), (40, 30), (300, 12)):
                want = _choice_walks(a, rows, order, active, n, length)
                got = fb._walks(b, lambda w: cdf[fb._chain_state(w, order, active)], order, active, n, length)
                assert np.array_equal(got, want), (order, active, n)
                assert a.bit_generator.state == b.bit_generator.state

    def test_sample_is_searchsorted_right(self):
        # edge draws: u = 0.0, u equal to a CDF entry, and the largest u < 1
        rows = self.rows(4, 2, v=7)
        cdf = fb._transition_cdf(rows)
        states = np.repeat(np.arange(len(cdf)), 4 + cdf.shape[1])
        u = np.concatenate(
            [np.r_[0.0, 1e-300, 0.5, np.nextafter(1.0, 0.0), row] for row in cdf]
        )
        u = np.minimum(u, np.nextafter(1.0, 0.0))
        want = [int(cdf[s].searchsorted(x, side="right")) for s, x in zip(states, u)]
        assert fb._sample(cdf[states], u).tolist() == want

    def test_rollouts_match_token_loop(self):
        # the lock-step rollouts must be the per-token loop they replaced:
        # start tokens, then one Generator.choice per token, walk after walk;
        # each row's logits come from a two-row product, whose bits a row of
        # any product of two or more rows has
        config = toylm.ModelConfig(vocab_size=12, context_len=3, embed_dim=4, hidden_dim=8, seed=4)
        params = toylm.init_model(config)
        gt = fb.generate_domains(fb.DomainSpec(vocab_size=12, seed=1), fb.ConflictSpec(), SMALL_SIZES).ground_truth
        for n in (2, 40):
            a, b = np.random.default_rng(9), np.random.default_rng(9)
            want = []
            for _ in range(n):
                seq = [int(t) for t in a.integers(0, gt.active, size=3)]
                for _ in range(20 - 3):
                    logits, _ = toylm.forward_batch(params, np.array([seq[-3:]] * 2))
                    seq.append(int(a.choice(12, p=ps.softmax_rows(logits)[0])))
                want.append(seq)
            # default_rng hands a Generator back unaltered, so b is the stream used
            got = fb.sample_rollouts(params, gt, n, 20, 3, seed=b)
            expected = toylm.Corpus.from_sequences(want, 3)
            assert np.array_equal(got.contexts, expected.contexts), n
            assert np.array_equal(got.targets, expected.targets), n
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize(
        "n_sequences,sequence_len,name",
        [(0, 10, "n_sequences"), (2.0, 10, "n_sequences"), (2, 3, "sequence_len"), (2, 1, "sequence_len")],
    )
    def test_rollout_bounds_name_the_argument(self, n_sequences, sequence_len, name):
        params = toylm.init_model(toylm.ModelConfig(vocab_size=12, context_len=3, embed_dim=4, hidden_dim=8))
        gt = fb.generate_domains(fb.DomainSpec(vocab_size=12), fb.ConflictSpec(), SMALL_SIZES).ground_truth
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer"):
            fb.sample_rollouts(params, gt, n_sequences, sequence_len, 3, seed=0)

    @pytest.mark.parametrize("cap", [1, 2, 3, 50])
    def test_first_visits_match_dict_loop(self, cap):
        rng = np.random.default_rng(cap)
        for states in (
            rng.integers(0, 30, size=2000),
            rng.integers(0, 3, size=7),
            np.arange(10)[::-1].copy(),
            np.zeros(0, dtype=np.int64),
        ):
            assert np.array_equal(fb._first_visits(states, cap), _dict_dedup(states, cap))

    def test_positions_match_window_loop(self):
        rng = np.random.default_rng(2)
        seqs = rng.integers(0, 5, size=(7, 11))
        for context_len, order, cap in ((3, 2, None), (2, 2, None), (4, 1, None), (3, 2, 2), (4, 1, 1)):
            ctx, tgt, states = fb._positions(seqs, context_len, order, 5, cap)
            windows = [s[i : i + context_len] for s in seqs.tolist() for i in range(11 - context_len)]
            targets = [s[i + context_len] for s in seqs.tolist() for i in range(11 - context_len)]
            loop_states = [int(np.ravel_multi_index(w[-order:], (5,) * order)) for w in windows]
            if cap is not None:
                kept = _dict_dedup(np.array(loop_states), cap)
                assert 0 < kept.sum() < len(kept)
                windows, targets, loop_states = (
                    [x for x, k in zip(column, kept) if k] for column in (windows, targets, loop_states)
                )
            assert ctx.tolist() == windows
            assert tgt.tolist() == targets
            assert states.tolist() == loop_states


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

    @pytest.mark.parametrize("stage,field", [
        ((-5, "adam-lite", 3e-3), "steps"), ((10, "adam", 3e-3), "optimizer"), ((10, "adam-lite", 0), "learning_rate"),
    ])
    def test_bad_pretrain_stage_rejected_on_construction(self, stage, field):
        # such a stage failed only inside pretrain_snapshot, after domain
        # generation, with a message that named no stage
        with pytest.raises(InvalidArgumentError, match=f"^{field} must be"):
            fb.BenchProtocol(pretrain_stages=(fb.TrainStage(*stage),))
        with pytest.raises(InvalidArgumentError, match="^pretrain_stages must hold TrainStages"):
            fb.BenchProtocol(pretrain_stages=(stage,))


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
        assert np.array_equal(fb._chain_state(data.finetune.contexts[mask], gt.order, gt.active), states)
        assert np.array_equal(data.finetune.targets[mask], gt.label[states])

    def test_novel_positions_in_flat_contexts(self):
        data = fb.generate_domains(fb.DomainSpec(seed=4), fb.ConflictSpec(), SMALL_SIZES)
        gt = data.ground_truth
        mask = data.finetune_kinds == "novel"
        assert mask.sum() > 0
        assert not np.any(gt.peaked_mask[data.finetune_states[mask]])

    def test_eval_split_excludes_novel_contexts(self):
        data = fb.generate_domains(fb.DomainSpec(seed=5), fb.ConflictSpec(), SMALL_SIZES)
        gt = data.ground_truth
        assert np.all(gt.kind[fb._chain_state(data.eval_a.contexts, gt.order, gt.active)] != "novel")
        assert np.all(gt.kind[fb._chain_state(data.eval_b.contexts, gt.order, gt.active)] == "novel")

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

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_cdf_over_active_tokens(self, name):
        # generation samples from CDF rows cut at the active tokens: the
        # entries it drops are exactly 1.0, which no draw u < 1 crosses
        domain, context_len, sizes, conflict = DOMAINS[name]
        gt = fb.generate_domains(domain, conflict, sizes, context_len).ground_truth
        novels = gt.kind == "novel"
        for rows in (gt.rows, gt.novel_rows[novels]):
            full = fb._transition_cdf(rows)
            assert full[:, : gt.active].tobytes() == fb._transition_cdf(rows[:, : gt.active]).tobytes()
            assert np.all(full[:, gt.active :] == 1.0)

    def test_generation_peak(self):
        # only the windows the corpora keep are copied: the fine-tune walks'
        # other ~46k windows are read through a view of the walks
        spec = fb.DomainSpec(peak_mass=0.99)
        fb.generate_domains(spec, fb.ConflictSpec())  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            data = fb.generate_domains(spec, fb.ConflictSpec())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data.finetune) > 0
        assert peak <= GENERATION_PEAK_BYTES


class TestInjectionLog:
    """``GroundTruth`` logs the injection per chain state: ``kind``,
    ``label`` and the domain-B ``novel_rows``."""

    @pytest.mark.parametrize(
        "domain,context_len,sizes,conflict",
        [(fb.DomainSpec(seed=seed), 3, SMALL_SIZES, fb.ConflictSpec()) for seed in range(20, 24)]
        + list(DOMAINS.values()),
        ids=[f"seed{seed}" for seed in range(20, 24)] + list(DOMAINS),
    )
    def test_per_state_arrays(self, domain, context_len, sizes, conflict):
        data = fb.generate_domains(domain, conflict, sizes, context_len)
        gt, states, targets = data.ground_truth, data.finetune_states, data.finetune.targets
        assert gt.kind.shape == gt.label.shape == (len(gt.rows),)
        assert gt.label.dtype == np.int64 and gt.novel_rows.shape == gt.rows.shape
        assert np.all(gt.kind[states] == data.finetune_kinds)
        assert not gt.label[gt.kind == "unchanged"].any()
        conflicted = data.finetune_kinds == "conflict"
        assert np.array_equal(targets[conflicted], gt.label[states[conflicted]])
        assert np.all(gt.label[states[conflicted]] != gt.dominant[states[conflicted]])
        novel = gt.kind == "novel"
        assert not gt.peaked_mask[novel].any()
        rows = gt.novel_rows[novel]
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(rows[np.arange(len(rows)), gt.label[novel]] == conflict.novel_peak_mass)
        assert not gt.novel_rows[~novel].any()
        novel_positions = data.finetune_kinds == "novel"
        assert np.all(gt.novel_rows[states[novel_positions], targets[novel_positions]] > 0)
        assert np.all(gt.kind[fb._chain_state(data.eval_a.contexts, gt.order, gt.active)] != "novel")
        assert np.all(gt.kind[fb._chain_state(data.eval_b.contexts, gt.order, gt.active)] == "novel")

    def test_novel_only_spec_under_fills(self):
        # README's example: every visited near-uniform context is taken, and
        # the novel share still falls short of novelty_rate 0.7
        domain, context_len, sizes, conflict = DOMAINS["domains_novel_only"]
        data = fb.generate_domains(domain, conflict, sizes, context_len)
        gt = data.ground_truth
        visited = np.bincount(data.finetune_states, minlength=len(gt.rows)) > 0
        assert np.all(gt.kind[visited & ~gt.peaked_mask] == "novel")
        assert len(data.finetune) == 756
        assert round(float(np.mean(data.finetune_kinds == "novel")), 4) == 0.3955


SELECTION_EDGES = [
    ({"peaked_fraction": 0.0}, {"conflict_rate": 0.5, "novelty_rate": 0.5}),  # no conflict candidate
    ({"peaked_fraction": 1.0}, {"conflict_rate": 0.5, "novelty_rate": 0.5}),  # no novel candidate
    ({}, {"conflict_rate": 0.0, "novelty_rate": 0.0}),  # budgets of 0
    ({}, {"conflict_rate": 1.0, "novelty_rate": 0.0}),
    ({}, {"conflict_rate": 0.0, "novelty_rate": 1.0}),
]


def _random_selection_spec(seed):
    rng = np.random.default_rng(seed)
    domain = {
        "markov_order": int(rng.integers(1, 3)), "vocab_size": int(rng.integers(12, 25)),
        "peaked_fraction": float(rng.random()), "peak_mass": float(rng.uniform(0.6, 1.0)),
    }
    rate = float(rng.random())
    return domain, {"conflict_rate": rate, "novelty_rate": float(rng.uniform(0, 1 - rate))}


class TestInjectionSelection:
    def test_within_budget_matches_loop(self):
        rng = np.random.default_rng(20)
        for n in (0, 1, 5, 40):
            for _ in range(50):
                states = rng.permutation(60)[:n]
                visits = rng.integers(0, 4, size=60)
                prefix = np.cumsum(visits[states])
                total = int(prefix[-1]) if n else 0
                budgets = [0, 0.0, total, 1.0 * total, total + 1, rng.uniform(0, total + 2)]
                if n:  # a budget equal to a prefix sum: the context that reaches it is taken
                    budgets.append(float(prefix[rng.integers(n)]))
                for budget in budgets:
                    want = _budget_loop(states, visits, budget)
                    assert fb._within_budget(states, visits, budget).tolist() == want

    @pytest.mark.parametrize(
        "domain,conflict", SELECTION_EDGES + [_random_selection_spec(seed) for seed in range(8)]
    )
    def test_chosen_sets_match_loops(self, monkeypatch, domain, conflict):
        # the ranked conflict candidates equal the seen-set tier loop on the
        # domain's own visit counts, and both chosen sets the budget loop
        calls = []
        within_budget = fb._within_budget

        def recording(states, visits, budget):
            calls.append((states.copy(), budget))
            return within_budget(states, visits, budget)

        monkeypatch.setattr(fb, "_within_budget", recording)
        spec = fb.ConflictSpec(**conflict)
        data = fb.generate_domains(fb.DomainSpec(seed=13, **domain), spec, SMALL_SIZES)
        gt = data.ground_truth
        (ranked, conflict_budget), (candidates, novel_budget) = calls
        ft_n = len(data.finetune)
        assert (conflict_budget, novel_budget) == (spec.conflict_rate * ft_n, spec.novelty_rate * ft_n)
        n_states = len(gt.rows)
        pre_states = fb._chain_state(data.pretrain.contexts, gt.order, gt.active)
        pre_visits = np.bincount(pre_states, minlength=n_states)
        pre_tails = np.zeros(n_states, dtype=np.int64)
        conflicting = data.pretrain.targets != gt.dominant[pre_states]
        np.add.at(pre_tails, pre_states[conflicting & gt.peaked_mask[pre_states]], 1)
        with np.errstate(invalid="ignore"):
            agree = np.where(pre_visits > 0, (pre_visits - pre_tails) / np.maximum(pre_visits, 1), 0.0)
        ft_visits = np.bincount(data.finetune_states, minlength=n_states)
        assert ranked.tolist() == _tier_loop(gt.peaked_mask & (ft_visits > 0), pre_visits, agree)
        conflicts = np.flatnonzero(gt.kind == "conflict").tolist()
        assert conflicts == sorted(_budget_loop(ranked, ft_visits, conflict_budget))
        assert sorted(candidates.tolist()) == np.flatnonzero(~gt.peaked_mask & (ft_visits > 0)).tolist()
        novels = np.flatnonzero(gt.kind == "novel").tolist()
        assert novels == sorted(_budget_loop(candidates, ft_visits, novel_budget))


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

    @pytest.mark.parametrize("name,bad_id", [("contexts", -1), ("contexts", 64), ("targets", -1), ("targets", 64)])
    def test_score_gates_rejects_token_id_outside_vocab(self, name, bad_id):
        params = toylm.init_model(toylm.ModelConfig(hidden_dim=8, seed=0))
        good = toylm.Corpus(np.zeros((4, 3), dtype=np.int64), np.zeros(4, dtype=np.int64))
        ids = getattr(good, name).copy()
        ids.flat[-1] = bad_id
        bad = toylm.Corpus(ids, good.targets) if name == "contexts" else toylm.Corpus(good.contexts, ids)
        with pytest.raises(InvalidArgumentError, match=f"{name} holds token id {bad_id}"):
            fb.score_gates(params, bad)

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


class TestShortLogs:
    def test_snapshot_and_cells_compute_no_entropy(self, monkeypatch):
        # their train logs are discarded, so no step computes the full entropy
        calls = []
        entropy_rows = ps.entropy_rows

        def counting(probs):
            calls.append(len(probs))
            return entropy_rows(probs)

        monkeypatch.setattr(ps, "entropy_rows", counting)
        domain = fb.DomainSpec(seed=3)
        pretrained = fb.pretrain_snapshot(domain, fb.ConflictSpec(), SMALL_SIZES, FAST_PROTOCOL, 0)
        for name in fb.DEFAULT_OBJECTIVE_GRID:
            fb.run_cell(
                name, 0, domain, fb.ConflictSpec(), SMALL_SIZES, FAST_PROTOCOL,
                _pretrained=pretrained,
            )
        assert calls == []
        # the counter sees a run that keeps its log: one call per step
        config, data, snapshot = pretrained
        toylm.train(
            toylm.TrainRun(
                config=config, corpus=data.finetune, objective=obj.named_objective("ce"),
                steps=3, batch_size=4, init=snapshot,
            )
        )
        assert calls == [4, 4, 4]


class TestSnapshotScoresItselfOnce:
    def test_nine_cells_score_the_snapshot_once(self, monkeypatch):
        counts = {"evaluate": 0, "score_gates": 0}
        evaluate, score_gates = toylm.evaluate, fb.score_gates
        snapshot_params = []

        def counting_evaluate(params, eval_set):
            counts["evaluate"] += any(params is p for p in snapshot_params)
            return evaluate(params, eval_set)

        def counting_score_gates(*args):
            counts["score_gates"] += 1
            return score_gates(*args)

        monkeypatch.setattr(toylm, "evaluate", counting_evaluate)
        monkeypatch.setattr(fb, "score_gates", counting_score_gates)
        domain = fb.DomainSpec(seed=3)
        snapshot = fb.pretrain_snapshot(domain, fb.ConflictSpec(), SMALL_SIZES, FAST_PROTOCOL, 0)
        snapshot_params.append(snapshot.params)
        assert counts == {"evaluate": 0, "score_gates": 0}  # nothing is scored eagerly
        cells = [
            fb.run_cell(name, 0, domain, fb.ConflictSpec(), SMALL_SIZES, FAST_PROTOCOL, _pretrained=snapshot)
            for name in fb.DEFAULT_OBJECTIVE_GRID
        ]
        assert counts == {"evaluate": 1, "score_gates": 1}
        # the cached scores are those of a fresh pass over the same model
        config, data, params = snapshot
        gates, p_target = score_gates(params, data.finetune, FAST_PROTOCOL.k)
        (cached_gates, cached_p), cc_share = snapshot.pilot(FAST_PROTOCOL.k, FAST_PROTOCOL.pilot_quantile)
        assert cached_gates.tobytes() == gates.tobytes() and cached_p.tobytes() == p_target.tobytes()
        assert not cached_gates.flags.writeable
        labels, _ = ps.quadrant_labels(gates, p_target, FAST_PROTOCOL.pilot_quantile)
        assert all(c.conflict_quadrant_share == cc_share for c in cells)
        assert cc_share == float((labels == "confident-conflict").mean())
        assert snapshot.base == evaluate(params, data.eval_a)

    def test_unpacks_and_indexes_as_a_triple(self):
        snapshot = fb.pretrain_snapshot(
            fb.DomainSpec(seed=3), fb.ConflictSpec(), SMALL_SIZES,
            replace(FAST_PROTOCOL, pretrain_stages=(fb.TrainStage(2, "adam-lite", 3e-3),)), 0,
        )
        config, data, params = snapshot
        assert (snapshot[0], snapshot[1], snapshot[2]) == (config, data, params) == tuple(snapshot)
        assert (snapshot.config, snapshot.data, snapshot.params) == (config, data, params)
        assert snapshot[-1] is params and snapshot[:2] == (config, data)
