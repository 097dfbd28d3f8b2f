"""Model, optimizer, training loop, and checkpoint tests."""

from dataclasses import replace

import numpy as np
import pytest

from eaftlab import forgebench as fb
from eaftlab import objectives as obj
from eaftlab import probstats as ps
from eaftlab import toylm
from eaftlab.errors import InvalidArgumentError, InvalidInputError, TrainingDivergedError

TINY = toylm.ModelConfig(vocab_size=8, context_len=3, embed_dim=2, hidden_dim=4, seed=5)


def tiny_corpus(n=6, seed=0):
    rng = np.random.default_rng(seed)
    return toylm.Corpus(rng.integers(0, 8, size=(n, 3)), rng.integers(0, 8, size=n))


def params_equal(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in toylm.PARAM_FIELDS)


class TestInitModel:
    def test_same_seed_bit_identical(self):
        assert params_equal(toylm.init_model(TINY), toylm.init_model(TINY))

    def test_different_seed_differs(self):
        other = replace(TINY, seed=6)
        assert not params_equal(toylm.init_model(TINY), toylm.init_model(other))

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidArgumentError):
            toylm.ModelConfig(embed_dim=0)

    def test_scale_bounds(self):
        params = toylm.init_model(toylm.ModelConfig(seed=1))
        assert np.abs(params.embedding).max() <= 1.0 / np.sqrt(16)
        assert np.abs(params.hidden_weight).max() <= 1.0 / np.sqrt(48)


class TestForward:
    def test_zero_params_give_uniform(self):
        params = toylm.init_model(TINY)
        for f in toylm.PARAM_FIELDS:
            getattr(params, f)[:] = 0.0
        logits = toylm.forward(params, [0, 1, 2])
        np.testing.assert_array_equal(logits, np.zeros(8))

    def test_reproducible(self):
        a = toylm.forward(toylm.init_model(TINY), [1, 2, 3])
        b = toylm.forward(toylm.init_model(TINY), [1, 2, 3])
        np.testing.assert_array_equal(a, b)

    def test_locality_of_embedding_rows(self):
        params = toylm.init_model(TINY)
        base = toylm.forward(params, [0, 1, 2])
        used = params.copy()
        used.embedding[1] += 0.1
        assert not np.array_equal(toylm.forward(used, [0, 1, 2]), base)
        unused = params.copy()
        unused.embedding[7] += 0.1
        np.testing.assert_array_equal(toylm.forward(unused, [0, 1, 2]), base)

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(InvalidArgumentError):
            toylm.forward(toylm.init_model(TINY), [0, 1, 8])


class TestLossAndGrads:
    def test_constant_gate_matches_ce_bitwise(self):
        params = toylm.init_model(TINY)
        corpus = tiny_corpus(12)
        ce = obj.named_objective("ce", k=8)
        one = obj.ObjectiveSpec(gate=obj.GateSpec("constant-one"), k=8)
        l1, g1, _ = toylm.loss_and_grads(params, corpus, ce)
        l2, g2, _ = toylm.loss_and_grads(params, corpus, one)
        assert l1 == l2
        for f in toylm.PARAM_FIELDS:
            np.testing.assert_array_equal(g1[f], g2[f])

    def test_all_gated_off_gives_zero_grads(self):
        params = toylm.init_model(TINY)
        corpus = tiny_corpus(12)
        spec = obj.named_objective("hard_mask", tau_entropy=1.0, k=8)
        loss, grads, per = toylm.loss_and_grads(params, corpus, spec)
        assert loss == 0.0
        for f in toylm.PARAM_FIELDS:
            assert np.all(grads[f] == 0.0)
        assert all(r.weight == 0.0 for r in per)

    def test_finite_differences_all_objectives(self):
        # oracle: central differences over every parameter of the tiny model
        params = toylm.init_model(TINY)
        corpus = tiny_corpus(6, seed=3)
        ref = toylm.init_model(replace(TINY, seed=11))
        h = 1e-5
        for name in obj.OBJECTIVE_NAMES:
            spec = obj.named_objective(
                name, tau_entropy=0.3, tau_prob=0.05, k=8
            )
            rp = ref if spec.kl_coefficient > 0 else None
            _, grads, per = toylm.loss_and_grads(params, corpus, spec, ref_params=rp)
            frozen_w = np.array([r.weight for r in per])
            worst = 0.0
            for f in toylm.PARAM_FIELDS:
                arr = getattr(params, f)
                fd = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + h
                    lp = _frozen_weight_loss(params, corpus, spec, rp, frozen_w)
                    arr[ix] = orig - h
                    lm = _frozen_weight_loss(params, corpus, spec, rp, frozen_w)
                    arr[ix] = orig
                    fd[ix] = (lp - lm) / (2 * h)
                    it.iternext()
                denom = max(np.abs(fd).max(), 1e-8)
                worst = max(worst, float(np.abs(grads[f] - fd).max() / denom))
            assert worst < 1e-5, f"{name}: rel err {worst}"

    def test_per_token_grads_recompose_batch_grads(self):
        # EAFT parameter grads == backprop of gate-weighted CE token grads
        params = toylm.init_model(TINY)
        corpus = tiny_corpus(10, seed=4)
        eaft = obj.named_objective("eaft", k=8)
        ce = obj.named_objective("ce", k=8)
        _, g_eaft, per_eaft = toylm.loss_and_grads(params, corpus, eaft)
        _, _, per_ce = toylm.loss_and_grads(params, corpus, ce)
        rows = np.stack(
            [e.weight * c.grad_logits for e, c in zip(per_eaft, per_ce)]
        ) / len(corpus)
        _, cache = toylm.forward_batch(params, corpus.contexts)
        recomposed = toylm.backprop_logits(params, cache, rows)
        for f in toylm.PARAM_FIELDS:
            np.testing.assert_allclose(g_eaft[f], recomposed[f], atol=1e-14)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(8)
        params = toylm.init_model(TINY)
        for name in obj.OBJECTIVE_NAMES:
            spec = obj.named_objective(name, tau_entropy=0.3, tau_prob=0.05, k=8)
            rp = toylm.init_model(replace(TINY, seed=2)) if spec.kl_coefficient > 0 else None
            corpus = toylm.Corpus(rng.integers(0, 8, (8, 3)), rng.integers(0, 8, 8))
            loss, _, per = toylm.loss_and_grads(params, corpus, spec, ref_params=rp)
            assert loss >= 0.0
            assert all(r.loss >= 0.0 for r in per)


def _frozen_weight_loss(params, corpus, spec, ref_params, frozen_w):
    """Detached-gate oracle loss: CE at frozen per-token weights plus KL."""
    logits, _ = toylm.forward_batch(params, corpus.contexts)
    logp = ps.log_softmax_rows(logits)
    idx = np.arange(len(corpus))
    total = (frozen_w * -logp[idx, corpus.targets]).sum()
    if spec.kl_coefficient > 0:
        ref_logits, _ = toylm.forward_batch(ref_params, corpus.contexts)
        p = ps.softmax_rows(logits)
        logq = ps.log_softmax_rows(ref_logits)
        with np.errstate(invalid="ignore"):
            kl = np.where(p > 0, p * (logp - logq), 0.0).sum()
        total += spec.kl_coefficient * kl
    return total / len(corpus)


class TestApplyUpdate:
    def test_zero_grads_leave_params(self):
        params = toylm.init_model(TINY)
        grads = {f: np.zeros_like(getattr(params, f)) for f in toylm.PARAM_FIELDS}
        state = toylm.OptimizerState(kind="sgd-momentum", learning_rate=0.1)
        new, state2 = toylm.apply_update(params, grads, state)
        assert params_equal(params, new)
        assert state2.step_count == 1

    def test_sgd_single_step(self):
        params = toylm.init_model(TINY)
        grads = {f: np.zeros_like(getattr(params, f)) for f in toylm.PARAM_FIELDS}
        grads["out_bias"] = np.ones_like(params.out_bias)
        state = toylm.OptimizerState(kind="sgd-momentum", learning_rate=0.1)
        new, _ = toylm.apply_update(params, grads, state)
        np.testing.assert_allclose(new.out_bias, params.out_bias - 0.1, atol=1e-15)

    def test_adam_first_step_magnitude(self):
        # bias-corrected first step moves by ~lr regardless of gradient scale
        params = toylm.init_model(TINY)
        state = toylm.OptimizerState(kind="adam-lite", learning_rate=0.01)
        for c in (1e-4, 1.0, 1e4):
            grads = {f: np.full_like(getattr(params, f), c) for f in toylm.PARAM_FIELDS}
            new, _ = toylm.apply_update(params, grads, state)
            delta = params.out_bias - new.out_bias
            np.testing.assert_allclose(delta, 0.01, rtol=1e-3)

    @pytest.mark.parametrize("kind", ["sgd-momentum", "adam-lite"])
    def test_inputs_not_mutated(self, kind):
        # apply_update is the pure wrapper around the in-place optimizer
        params = toylm.init_model(TINY)
        rng = np.random.default_rng(4)
        grads = {f: rng.normal(size=getattr(params, f).shape) for f in toylm.PARAM_FIELDS}
        _, state = toylm.apply_update(
            params, grads, toylm.OptimizerState(kind=kind, learning_rate=0.1)
        )
        before = (params.copy(), {f: g.copy() for f, g in grads.items()})
        buffers = {k: {n: b.copy() for n, b in v.items()} for k, v in state.buffers.items()}
        new, new_state = toylm.apply_update(params, grads, state)
        assert params_equal(params, before[0])
        assert all(np.array_equal(grads[f], before[1][f]) for f in toylm.PARAM_FIELDS)
        assert state.step_count == 1 and new_state.step_count == 2
        assert state.buffers.keys() == buffers.keys()
        for name, buf in buffers.items():
            assert state.buffers[name].keys() == buf.keys()
            for key, value in buf.items():
                assert np.array_equal(state.buffers[name][key], value)
                assert new_state.buffers[name][key] is not state.buffers[name][key]
        assert not params_equal(new, params)

    @pytest.mark.parametrize("kind", ["sgd-momentum", "adam-lite"])
    def test_inplace_matches_pure(self, kind):
        params = toylm.init_model(TINY)
        rng = np.random.default_rng(6)
        pure_params, pure = params, toylm.OptimizerState(kind=kind, learning_rate=0.05)
        live_params, live = params.copy(), toylm.OptimizerState(kind=kind, learning_rate=0.05)
        for _ in range(4):
            grads = {f: rng.normal(size=getattr(params, f).shape) for f in toylm.PARAM_FIELDS}
            pure_params, pure = toylm.apply_update(pure_params, grads, pure)
            toylm.apply_update_inplace(live_params, grads, live)
        assert params_equal(pure_params, live_params)
        assert live.step_count == pure.step_count == 4

    def test_shape_mismatch(self):
        params = toylm.init_model(TINY)
        grads = {f: np.zeros_like(getattr(params, f)) for f in toylm.PARAM_FIELDS}
        grads["out_bias"] = np.zeros(3)
        state = toylm.OptimizerState(kind="sgd-momentum", learning_rate=0.1)
        with pytest.raises(InvalidArgumentError):
            toylm.apply_update(params, grads, state)


class TestTrain:
    def test_zero_steps_noop(self):
        corpus = tiny_corpus(20)
        run = toylm.TrainRun(
            config=TINY, corpus=corpus, objective=obj.named_objective("ce", k=8), steps=0
        )
        result = toylm.train(run)
        assert params_equal(result.params, toylm.init_model(TINY))
        assert result.log == []

    def test_bit_identical_reruns(self):
        corpus = tiny_corpus(30, seed=1)
        run = toylm.TrainRun(
            config=TINY,
            corpus=corpus,
            objective=obj.named_objective("eaft", k=8),
            steps=40,
            batch_size=8,
            seed=3,
            capture_every=10,
        )
        a, b = toylm.train(run), toylm.train(run)
        assert params_equal(a.params, b.params)
        assert a.log == b.log
        assert a.captures == b.captures

    def test_init_and_reference_untouched(self):
        # one snapshot seeds every cell of a grid; an in-place leak would
        # silently change the later cells
        init = toylm.init_model(replace(TINY, seed=8))
        ref = toylm.init_model(replace(TINY, seed=9))
        before = (init.copy(), ref.copy())
        for name, optimizer in (("sft_kl", "adam-lite"), ("eaft", "sgd-momentum")):
            toylm.train(
                toylm.TrainRun(
                    config=TINY,
                    corpus=tiny_corpus(30, seed=2),
                    objective=obj.named_objective(name, k=8),
                    optimizer=optimizer,
                    steps=12,
                    batch_size=8,
                    capture_every=4,
                    init=init,
                    ref_params=ref,
                )
            )
            assert params_equal(init, before[0])
            assert params_equal(ref, before[1])

    def test_gate_computed_only_where_read(self, monkeypatch):
        def no_gate(*args, **kwargs):
            raise AssertionError("gate_rows called for a gate-free objective")

        monkeypatch.setattr(ps, "gate_rows", no_gate)
        for name in ("ce", "dft", "sft_kl"):
            run = toylm.TrainRun(
                config=TINY,
                corpus=tiny_corpus(20),
                objective=obj.named_objective(name, k=8),
                steps=5,
                batch_size=4,
                ref_params=toylm.init_model(TINY),
            )
            toylm.train(run)
        with pytest.raises(AssertionError):
            toylm.train(replace(run, objective=obj.named_objective("eaft", k=8)))

    def test_gate_free_objective_still_checks_norm(self):
        # paper-3.0 is undefined for k != 20 whether or not the gate is read
        run = toylm.TrainRun(
            config=TINY,
            corpus=tiny_corpus(20),
            objective=obj.named_objective("ce", k=8, norm_mode=ps.NORM_PAPER),
            steps=2,
            batch_size=4,
        )
        with pytest.raises(InvalidArgumentError):
            toylm.train(run)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_step(self):
        run = toylm.TrainRun(
            config=TINY,
            corpus=tiny_corpus(30, seed=1),
            objective=obj.named_objective("ce", k=8),
            optimizer="sgd-momentum",
            learning_rate=1e308,
            steps=40,
            batch_size=8,
        )
        with pytest.raises(TrainingDivergedError) as err:
            toylm.train(run)
        assert 0 < err.value.step < 40
        assert f"step {err.value.step}" in str(err.value)

    def test_ce_training_reduces_nll(self):
        # 200-sequence chain corpus, 500 CE steps: mean NLL falls >= 30%
        domain = fb.DomainSpec(seed=3)
        data = fb.generate_domains(
            domain,
            fb.ConflictSpec(),
            fb.GenerationSizes(pretrain_sequences=200, finetune_walks=100, eval_sequences=100),
        )
        config = toylm.ModelConfig(seed=9)
        before = toylm.evaluate(toylm.init_model(config), data.pretrain)
        result = toylm.train(
            toylm.TrainRun(
                config=config,
                corpus=data.pretrain,
                objective=obj.named_objective("ce"),
                steps=500,
                seed=4,
            )
        )
        after = toylm.evaluate(result.params, data.pretrain)
        assert after["mean_nll"] <= 0.7 * before["mean_nll"]

    def test_empty_corpus_rejected(self):
        empty = toylm.Corpus(np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64))
        run = toylm.TrainRun(
            config=TINY, corpus=empty, objective=obj.named_objective("ce", k=8), steps=1
        )
        with pytest.raises(InvalidArgumentError):
            toylm.train(run)


class TestEvaluate:
    def test_uniform_model(self):
        config = toylm.ModelConfig(seed=1)
        params = toylm.init_model(config)
        for f in toylm.PARAM_FIELDS:
            getattr(params, f)[:] = 0.0
        rng = np.random.default_rng(2)
        corpus = toylm.Corpus(rng.integers(0, 64, (256, 3)), rng.integers(0, 64, 256))
        out = toylm.evaluate(params, corpus)
        assert out["mean_nll"] == pytest.approx(np.log(64), abs=1e-9)
        # argmax ties resolve to index 0
        assert out["top1_accuracy"] == pytest.approx((corpus.targets == 0).mean())

    def test_memorized_pair(self):
        config = TINY
        corpus = toylm.Corpus(np.array([[0, 1, 2]]), np.array([3]))
        result = toylm.train(
            toylm.TrainRun(
                config=config,
                corpus=corpus,
                objective=obj.named_objective("ce", k=8),
                steps=300,
                batch_size=4,
                seed=0,
            )
        )
        assert toylm.evaluate(result.params, corpus)["mean_nll"] < 0.05

    def test_order_invariance(self):
        params = toylm.init_model(TINY)
        corpus = tiny_corpus(16, seed=6)
        perm = np.random.default_rng(0).permutation(16)
        shuffled = toylm.Corpus(corpus.contexts[perm], corpus.targets[perm])
        assert toylm.evaluate(params, corpus) == pytest.approx(toylm.evaluate(params, shuffled))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        config = toylm.ModelConfig(seed=123456789)
        params = toylm.init_model(config)
        path = tmp_path / "model.ckpt"
        toylm.save_checkpoint(path, config, params)
        config2, params2 = toylm.load_checkpoint(path)
        assert config2 == config
        assert params_equal(params, params2)

    def test_magic_guard(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(InvalidInputError):
            toylm.load_checkpoint(path)

    def test_truncation_guard(self, tmp_path):
        config = toylm.ModelConfig(seed=1)
        params = toylm.init_model(config)
        path = tmp_path / "model.ckpt"
        toylm.save_checkpoint(path, config, params)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(InvalidInputError):
            toylm.load_checkpoint(path)
