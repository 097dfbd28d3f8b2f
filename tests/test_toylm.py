"""Model, optimizer, training loop, and checkpoint tests."""

import pickle
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
    CTX = np.array([[0, 1, 2]])

    def test_zero_params_give_uniform(self):
        params = toylm.init_model(TINY)
        for f in toylm.PARAM_FIELDS:
            getattr(params, f)[:] = 0.0
        logits, _ = toylm.forward_batch(params, self.CTX)
        np.testing.assert_array_equal(logits, np.zeros((1, 8)))

    def test_reproducible(self):
        ctx = np.array([[1, 2, 3], [3, 2, 1]])
        a, _ = toylm.forward_batch(toylm.init_model(TINY), ctx)
        b, _ = toylm.forward_batch(toylm.init_model(TINY), ctx)
        np.testing.assert_array_equal(a, b)

    def test_locality_of_embedding_rows(self):
        params = toylm.init_model(TINY)
        base, _ = toylm.forward_batch(params, self.CTX)
        used = params.copy()
        used.embedding[1] += 0.1
        assert not np.array_equal(toylm.forward_batch(used, self.CTX)[0], base)
        unused = params.copy()
        unused.embedding[7] += 0.1
        np.testing.assert_array_equal(toylm.forward_batch(unused, self.CTX)[0], base)

    def test_rejects_out_of_range_ids(self):
        for bad_id in (-1, 8):
            with pytest.raises(InvalidArgumentError, match=f"contexts holds token id {bad_id}"):
                toylm.check_corpus_ids(toylm.Corpus([[0, 1, bad_id]], [0]), 8)


class TestLossAndGrads:
    @pytest.mark.parametrize("name,bad_id", [("targets", -1), ("targets", 8), ("contexts", 8)])
    def test_token_id_outside_vocab_rejected(self, name, bad_id):
        corpus = tiny_corpus(6)
        ids = getattr(corpus, name).copy()
        ids.flat[-1] = bad_id
        bad = toylm.Corpus(ids, corpus.targets) if name == "contexts" else toylm.Corpus(corpus.contexts, ids)
        with pytest.raises(InvalidArgumentError, match=f"{name} holds token id {bad_id}"):
            toylm.loss_and_grads(toylm.init_model(TINY), bad, obj.named_objective("ce", k=8))

    def test_constant_gate_matches_ce_bitwise(self):
        params = toylm.init_model(TINY)
        corpus = tiny_corpus(12)
        ce = obj.named_objective("ce", k=8)
        one = obj.ObjectiveSpec(gate=obj.GateSpec("constant-one"), k=8)
        l1, g1, _ = toylm.loss_and_grads(params, corpus, ce)
        l2, g2, _ = toylm.loss_and_grads(params, corpus, one)
        assert l1 == l2
        for f in toylm.PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(g1, f), getattr(g2, f))

    def test_all_gated_off_gives_zero_grads(self):
        params = toylm.init_model(TINY)
        corpus = tiny_corpus(12)
        spec = obj.named_objective("hard_mask", tau_entropy=1.0, k=8)
        loss, grads, per = toylm.loss_and_grads(params, corpus, spec)
        assert loss == 0.0
        for f in toylm.PARAM_FIELDS:
            assert np.all(getattr(grads, f) == 0.0)
        assert np.all(per.weights == 0.0)

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
            frozen_w = per.weights
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
                worst = max(worst, float(np.abs(getattr(grads, f) - fd).max() / denom))
            assert worst < 1e-5, f"{name}: rel err {worst}"

    def test_per_token_grads_recompose_batch_grads(self):
        # EAFT parameter grads == backprop of gate-weighted CE token grads
        params = toylm.init_model(TINY)
        corpus = tiny_corpus(10, seed=4)
        eaft = obj.named_objective("eaft", k=8)
        ce = obj.named_objective("ce", k=8)
        _, g_eaft, per_eaft = toylm.loss_and_grads(params, corpus, eaft)
        _, _, per_ce = toylm.loss_and_grads(params, corpus, ce)
        rows = per_eaft.weights[:, None] * per_ce.grad / len(corpus)
        _, cache = toylm.forward_batch(params, corpus.contexts)
        recomposed = toylm.ToyModelParams.from_flat(np.empty_like(params.flat), params.dims)
        toylm.backprop_logits(params, cache, rows, recomposed)
        for f in toylm.PARAM_FIELDS:
            np.testing.assert_allclose(getattr(g_eaft, f), getattr(recomposed, f), atol=1e-14)

    def test_backprop_overwrites_every_entry_of_its_buffer(self):
        # ids 0-3 only: embedding rows 4-7 receive no gradient and must read
        # +0.0 whatever the buffer held before
        params = toylm.init_model(TINY)
        rng = np.random.default_rng(11)
        contexts = rng.integers(0, 4, size=(12, 3))
        logits, cache = toylm.forward_batch(params, contexts)
        grad_logits = rng.normal(size=logits.shape)
        filled = []
        for fill in (np.nan, 0.0, -7.5):
            grads = toylm.ToyModelParams.from_flat(np.full(params.flat.size, fill), params.dims)
            toylm.backprop_logits(params, cache, grad_logits, grads)
            filled.append(grads.flat.tobytes())
        assert filled[0] == filled[1] == filled[2]
        assert grads.embedding[4:].tobytes() == np.zeros((4, 2)).tobytes()

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(8)
        params = toylm.init_model(TINY)
        for name in obj.OBJECTIVE_NAMES:
            spec = obj.named_objective(name, tau_entropy=0.3, tau_prob=0.05, k=8)
            rp = toylm.init_model(replace(TINY, seed=2)) if spec.kl_coefficient > 0 else None
            corpus = toylm.Corpus(rng.integers(0, 8, (8, 3)), rng.integers(0, 8, 8))
            loss, _, per = toylm.loss_and_grads(params, corpus, spec, ref_params=rp)
            assert loss >= 0.0
            assert np.all(per.losses >= 0.0)

    def test_reported_gate_is_applied_gate(self):
        # the gate in the per-token terms is the weight the gradient used, bit for bit
        config = toylm.ModelConfig(vocab_size=64, embed_dim=4, hidden_dim=8, seed=5)
        rng = np.random.default_rng(7)
        corpus = toylm.Corpus(rng.integers(0, 64, (500, 3)), rng.integers(0, 64, 500))
        eaft = obj.named_objective("eaft")
        _, _, per = toylm.loss_and_grads(toylm.init_model(config), corpus, eaft)
        assert np.array_equal(per.gates, per.weights)
        captures = toylm.train(
            toylm.TrainRun(
                config=config,
                corpus=corpus,
                objective=eaft,
                steps=6,
                batch_size=8,
                capture_every=3,
            )
        ).captures
        assert len(captures) == 3 * 500
        assert captures.columns["gate"].tobytes() == captures.columns["weight"].tobytes()


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


class TestParamsLayout:
    """Parameters, gradients, optimizer steps and checkpoints share one flat
    vector; every field is a view of it."""

    def assert_views(self, params):
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        for f in toylm.PARAM_FIELDS:
            assert np.shares_memory(getattr(params, f), params.flat), f
        assert sum(getattr(params, f).size for f in toylm.PARAM_FIELDS) == params.flat.size

    def test_fields_are_views_of_flat(self):
        params = toylm.init_model(TINY)
        self.assert_views(params)
        assert np.array_equal(params.flat, np.concatenate([np.ravel(getattr(params, f)) for f in toylm.PARAM_FIELDS]))
        _, grads, _ = toylm.loss_and_grads(params, tiny_corpus(), obj.named_objective("ce", k=8))
        self.assert_views(grads)
        assert grads.dims == params.dims == (8, 3, 2, 4)

    def test_field_assignment_writes_into_flat(self):
        params = toylm.init_model(TINY)
        flat = params.flat
        params.out_bias = np.arange(8.0)
        params.hidden_weight *= 2.0
        assert params.flat is flat
        self.assert_views(params)
        assert np.array_equal(flat[-8:], np.arange(8.0))
        assert np.array_equal(params.hidden_weight, 2.0 * toylm.init_model(TINY).hidden_weight)

    @pytest.mark.parametrize("how", ["copy", "pickle"])
    def test_copies_are_independent_views(self, how):
        params = toylm.init_model(TINY)
        other = params.copy() if how == "copy" else pickle.loads(pickle.dumps(params))
        assert params_equal(params, other) and other.dims == params.dims
        assert not np.shares_memory(other.flat, params.flat)
        self.assert_views(other)
        other.out_bias[0] += 1.0
        assert other.flat[-8] == params.flat[-8] + 1.0

    def test_constructor_copies_and_rejects_mismatched_fields(self):
        fields = {f: getattr(toylm.init_model(TINY), f) for f in toylm.PARAM_FIELDS}
        params = toylm.ToyModelParams(**fields)
        assert not np.shares_memory(params.embedding, fields["embedding"])
        for f in toylm.PARAM_FIELDS:
            bad = dict(fields, **{f: np.zeros(getattr(params, f).size + 1)})
            with pytest.raises(InvalidArgumentError, match=f):
                toylm.ToyModelParams(**bad)


class TestApplyUpdate:
    def test_zero_grads_leave_params(self):
        params = toylm.init_model(TINY)
        grads = toylm.ToyModelParams(**{f: np.zeros_like(getattr(params, f)) for f in toylm.PARAM_FIELDS})
        state = toylm.OptimizerState(kind="sgd-momentum", learning_rate=0.1)
        new = params.copy()
        toylm.apply_update(new, grads, state)
        assert params_equal(params, new)
        assert state.step_count == 1

    def test_sgd_single_step(self):
        params = toylm.init_model(TINY)
        grads = {f: np.zeros_like(getattr(params, f)) for f in toylm.PARAM_FIELDS}
        grads["out_bias"] = np.ones_like(params.out_bias)
        state = toylm.OptimizerState(kind="sgd-momentum", learning_rate=0.1)
        new = params.copy()
        toylm.apply_update(new, toylm.ToyModelParams(**grads), state)
        np.testing.assert_allclose(new.out_bias, params.out_bias - 0.1, atol=1e-15)

    def test_adam_first_step_magnitude(self):
        # bias-corrected first step moves by ~lr regardless of gradient scale
        params = toylm.init_model(TINY)
        for c in (1e-4, 1.0, 1e4):
            state = toylm.OptimizerState(kind="adam-lite", learning_rate=0.01)
            grads = {f: np.full_like(getattr(params, f), c) for f in toylm.PARAM_FIELDS}
            new = params.copy()
            toylm.apply_update(new, toylm.ToyModelParams(**grads), state)
            delta = params.out_bias - new.out_bias
            np.testing.assert_allclose(delta, 0.01, rtol=1e-3)

    @pytest.mark.parametrize("kind", ["sgd-momentum", "adam-lite"])
    def test_inplace_matches_pure(self, kind):
        # oracle: the textbook update rules written out as pure (copying)
        # expressions; the in-place optimizer must match them bit for bit
        lr = 0.05
        live = toylm.init_model(TINY)
        state = toylm.OptimizerState(kind=kind, learning_rate=lr)
        p = {f: getattr(live, f).copy() for f in toylm.PARAM_FIELDS}
        m = {f: np.zeros_like(p[f]) for f in toylm.PARAM_FIELDS}
        v = {f: np.zeros_like(p[f]) for f in toylm.PARAM_FIELDS}
        rng = np.random.default_rng(6)
        for t in range(1, 6):
            grads = {f: rng.normal(size=p[f].shape) for f in toylm.PARAM_FIELDS}
            toylm.apply_update(live, toylm.ToyModelParams(**grads), state)
            for f, g in grads.items():
                if kind == "sgd-momentum":
                    v[f] = 0.9 * v[f] + g
                    p[f] = p[f] - lr * v[f]
                else:
                    m[f] = 0.9 * m[f] + 0.1 * g
                    v[f] = 0.999 * v[f] + 0.001 * (g * g)
                    m_hat = m[f] / (1.0 - 0.9**t)
                    v_hat = v[f] / (1.0 - 0.999**t)
                    p[f] = p[f] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert state.step_count == 5
        for f in toylm.PARAM_FIELDS:
            assert np.array_equal(getattr(live, f), p[f]), f

    @pytest.mark.parametrize("kind", ["sgd-momentum", "adam-lite"])
    def test_flat_gradients_match_field_dict(self, kind):
        # backprop's gradients and a copy built field by field from the
        # same values give the same update, and the flat grad norm is the
        # per-array sum of squares added in field order
        params = toylm.init_model(TINY)
        live, plain = params.copy(), params.copy()
        states = [toylm.OptimizerState(kind=kind, learning_rate=0.05) for _ in range(2)]
        spec = obj.named_objective("ce", k=8)
        for seed in range(20):
            _, grads, _ = toylm.loss_and_grads(live, tiny_corpus(16, seed=seed), spec)
            assert isinstance(grads, toylm.ToyModelParams)
            copied = {f: getattr(grads, f).copy() for f in toylm.PARAM_FIELDS}
            norm = float(np.sqrt(sum(float((g * g).sum()) for g in copied.values())))
            assert grads.norm() == norm
            toylm.apply_update(live, grads, states[0])
            toylm.apply_update(plain, toylm.ToyModelParams(**copied), states[1])
            assert params_equal(live, plain)

    def test_shape_mismatch(self):
        # gradients of a model of other dims are rejected, and the model is untouched
        params = toylm.init_model(TINY)
        grads = toylm.init_model(replace(TINY, vocab_size=9))
        state = toylm.OptimizerState(kind="sgd-momentum", learning_rate=0.1)
        before = params.copy()
        with pytest.raises(InvalidArgumentError, match="gradient dims"):
            toylm.apply_update(params, grads, state)
        assert params_equal(params, before) and state.step_count == 0


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

    def test_captures_never_backpropagate(self, monkeypatch):
        calls = []
        backprop = toylm.backprop_logits

        def counting(*args):
            calls.append(args[-1])
            return backprop(*args)

        monkeypatch.setattr(toylm, "backprop_logits", counting)
        run = toylm.TrainRun(
            config=TINY,
            corpus=tiny_corpus(20),
            objective=obj.named_objective("eaft", k=8),
            steps=7,
            batch_size=4,
            capture_every=2,
        )
        assert len(toylm.train(run).captures) == 5 * 20  # steps 0, 2, 4, 6 and the final 7
        assert len(calls) == run.steps
        assert all(grads is calls[0] for grads in calls)  # one gradient buffer per run

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

    @pytest.mark.parametrize(
        "name,optimizer", [("ce", "adam-lite"), ("eaft", "sgd-momentum"), ("sft_kl", "adam-lite")]
    )
    def test_short_log_same_params(self, name, optimizer):
        # skipping the log statistics changes no parameter bit, loss or capture
        run = toylm.TrainRun(
            config=TINY,
            corpus=tiny_corpus(30, seed=2),
            objective=obj.named_objective(name, k=8),
            optimizer=optimizer,
            steps=25,
            batch_size=8,
            seed=4,
            capture_every=10,
            ref_params=toylm.init_model(replace(TINY, seed=9)),
        )
        full = toylm.train(run)
        short = toylm.train(replace(run, log_stats=False))
        assert params_equal(full.params, short.params)
        assert [e.mean_loss for e in short.log] == [e.mean_loss for e in full.log]
        assert short.log == [toylm.TrainLogEntry(e.step, e.mean_loss) for e in full.log]
        assert all(e.grad_norm is not None and e.mean_gate is not None for e in full.log)
        assert short.captures == full.captures

    @pytest.mark.parametrize(
        "field,value",
        [
            ("steps", -5), ("steps", 2.9), ("steps", True), ("steps", "many"),
            ("batch_size", 0), ("probe_size", 0), ("capture_every", -3), ("seed", -1),
        ],
    )
    def test_bad_run_rejected(self, field, value):
        with pytest.raises(InvalidArgumentError, match=f"^{field} must be an integer"):
            toylm.TrainRun(
                config=TINY, corpus=tiny_corpus(), objective=obj.named_objective("ce", k=8),
                **{field: value},
            )

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

    def test_overflow_with_finite_logits_diverges(self):
        # at lr 1e300 the first update leaves finite parameters of ~1e300;
        # the next forward pass overflows, which must stop the run at step 1
        run = toylm.TrainRun(
            config=TINY,
            corpus=tiny_corpus(30, seed=1),
            objective=obj.named_objective("ce", k=8),
            optimizer="sgd-momentum",
            learning_rate=1e300,
            steps=40,
            batch_size=8,
        )
        with pytest.raises(TrainingDivergedError, match="step 1: floating-point overflow"):
            toylm.train(run)

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

    @pytest.mark.parametrize("name,bad_id", [("contexts", -1), ("contexts", 8), ("targets", -1), ("targets", 8)])
    def test_token_id_outside_vocab_rejected(self, name, bad_id):
        corpus = tiny_corpus(6)
        ids = getattr(corpus, name).copy()
        ids.flat[0] = bad_id
        bad = toylm.Corpus(ids, corpus.targets) if name == "contexts" else toylm.Corpus(corpus.contexts, ids)
        with pytest.raises(InvalidArgumentError, match=f"{name} holds token id {bad_id}"):
            toylm.evaluate(toylm.init_model(TINY), bad)

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

    def test_payload_is_the_flat_vector(self, tmp_path):
        config = toylm.ModelConfig(seed=7)
        params = toylm.init_model(config)
        path = tmp_path / "model.ckpt"
        toylm.save_checkpoint(path, config, params)
        assert path.read_bytes()[36:] == params.flat.astype("<f8").tobytes()
        _, loaded = toylm.load_checkpoint(path)
        assert np.array_equal(loaded.flat, params.flat)
        assert loaded.flat.flags.writeable

    def test_params_of_other_dims_are_not_written(self, tmp_path):
        # the header would declare a payload the file does not hold
        path = tmp_path / "model.ckpt"
        params = toylm.init_model(replace(TINY, vocab_size=9))
        with pytest.raises(InvalidArgumentError, match="parameter dims"):
            toylm.save_checkpoint(path, TINY, params)
        assert not path.exists()

    def test_truncation_guard(self, tmp_path):
        config = toylm.ModelConfig(seed=1)
        params = toylm.init_model(config)
        path = tmp_path / "model.ckpt"
        toylm.save_checkpoint(path, config, params)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(InvalidInputError):
            toylm.load_checkpoint(path)
