"""Tests for the objective catalog: gate semantics, losses, gradients, KL."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaftlab import objectives as obj
from eaftlab import probstats as ps
from eaftlab import toylm
from eaftlab.errors import InvalidArgumentError

LN2 = 0.6931471805599453


def one_token(spec, logits, target, ref_logits=None):
    """The per-token kernel on a single token, passed as a (1, V) batch."""
    ref = None if ref_logits is None else np.asarray(ref_logits, dtype=np.float64)[None, :]
    return obj.token_terms(
        spec, np.asarray(logits, dtype=np.float64)[None, :], np.array([target]), ref
    )


def norm(v):
    return float(np.sqrt((v * v).sum()))


def kl_reference(logits, ref_logits):
    """Independent oracle: KL(softmax(logits) || softmax(ref_logits)) in nats."""
    p = ps.softmax_rows(logits)
    return float((p * (ps.log_softmax_rows(logits) - ps.log_softmax_rows(ref_logits))).sum())


def detached_reference_loss(spec, logits, target, ref_logits, frozen_weight):
    """Independent oracle: gated CE with the gate held at its detached value."""
    logp = ps.log_softmax_rows(logits)
    loss = frozen_weight * (-logp[target])
    if spec.kl_coefficient > 0:
        loss += spec.kl_coefficient * kl_reference(logits, ref_logits)
    return loss


ALL_SPECS = {
    "ce": obj.named_objective("ce"),
    "eaft": obj.named_objective("eaft"),
    "eaft_pow2": obj.named_objective("eaft_pow2"),
    "eaft_pow3": obj.named_objective("eaft_pow3"),
    "eaft_sigmoid": obj.named_objective("eaft_sigmoid"),
    "hard_mask": obj.named_objective("hard_mask", tau_entropy=0.3),
    "conflict_mask": obj.named_objective("conflict_mask", tau_entropy=0.3, tau_prob=0.05),
    "dft": obj.named_objective("dft"),
    "sft_kl": obj.named_objective("sft_kl"),
}

# A gate that is never above 1 masks every token, so the loss is the KL term alone.
KL_ONLY = obj.ObjectiveSpec(gate=obj.GateSpec("hard-mask", tau_entropy=1.0), kl_coefficient=1.0)


def kl_divergence(p_logits, q_logits):
    return float(one_token(KL_ONLY, p_logits, 0, q_logits).losses[0])


class TestGateSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidArgumentError):
            obj.GateSpec(kind="nope")

    def test_rejects_bad_exponent(self):
        with pytest.raises(InvalidArgumentError):
            obj.GateSpec(kind="power", p_exponent=0.0)

    def test_rejects_tau_outside_unit(self):
        with pytest.raises(InvalidArgumentError):
            obj.GateSpec(kind="hard-mask", tau_entropy=1.5)


def weight_at(spec, gate, p_target=1.0 / 64):
    return float(obj.eval_gate_rows(spec, np.array([gate]), np.array([p_target]))[0])


class TestEvalGate:
    def test_linear_passthrough(self):
        gates = ps.gate_rows(ps.softmax_rows(np.zeros((1, 64))), 20)
        assert gates[0] == pytest.approx(1.0, abs=1e-9)
        assert weight_at(obj.GateSpec("linear"), gates[0]) == gates[0]

    def test_sigmoid_center(self):
        # at the center the sigmoid is exactly one half
        spec = obj.GateSpec("sigmoid", alpha=30.0, beta=0.17)
        assert weight_at(spec, 0.17) == pytest.approx(0.5, abs=1e-9)

    def test_power_two(self):
        got = weight_at(obj.GateSpec("power", p_exponent=2.0), 0.5)
        assert got == pytest.approx(0.25, abs=1e-6)

    def test_conflict_mask_joint_condition(self):
        spec = obj.GateSpec("conflict-mask", tau_entropy=0.17, tau_prob=0.05)
        assert weight_at(spec, 0.10, p_target=0.01) == 0.0
        assert weight_at(spec, 0.5, p_target=0.01) == 1.0

    def test_hard_mask_strict_threshold(self):
        spec = obj.GateSpec("hard-mask", tau_entropy=0.4)
        assert weight_at(spec, 0.41) == 1.0
        assert weight_at(spec, 0.39) == 0.0

    def test_prob_weight_returns_p_target(self):
        res = one_token(obj.named_objective("dft"), np.zeros(64), 7)
        assert res.weights[0] == pytest.approx(1 / 64)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_all_kinds_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        p = ps.softmax_rows(rng.normal(0, 4, (1, 64)))
        gates = ps.gate_rows(p, 20)
        p_t = p[:, int(rng.integers(0, 64))]
        for spec in ALL_SPECS.values():
            w = obj.eval_gate_rows(spec.gate, gates, p_t)[0]
            assert 0.0 <= w <= 1.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_kinds_nondecreasing(self, seed):
        rng = np.random.default_rng(seed)
        gates = np.sort(rng.uniform(0, 1, 16))
        for kind in ("linear", "power", "sigmoid"):
            spec = obj.GateSpec(kind, p_exponent=2.5, alpha=30.0, beta=0.17)
            ws = obj.eval_gate_rows(spec, gates, np.full(16, 0.5))
            assert np.all(np.diff(ws) >= -1e-12)


class TestKLDivergence:
    def test_identical_is_zero(self):
        z = np.log([0.3, 0.7])
        assert kl_divergence(z, z) == 0.0

    def test_onehot_vs_uniform(self):
        # exp(-800) underflows to 0, so p is exactly one-hot
        assert kl_divergence([0.0, -800.0], [0.0, 0.0]) == pytest.approx(LN2, abs=1e-12)

    def test_two_term_oracle(self):
        got = kl_divergence(np.log([0.75, 0.25]), [0.0, 0.0])
        assert got == pytest.approx(0.13081203594113696, abs=1e-15)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        zp, zq = rng.normal(0, 3, 16), rng.normal(0, 3, 16)
        kl = kl_divergence(zp, zq)
        assert kl >= 0.0
        if kl == 0.0:
            p, q = ps.softmax_rows(zp), ps.softmax_rows(zq)
            assert np.abs(p - q).max() < 1e-12
        assert kl_divergence(zp, zp) == 0.0


class TestTokenLoss:
    def test_uniform_ce(self):
        res = one_token(obj.named_objective("ce"), np.zeros(2), 0)
        assert res.losses[0] == pytest.approx(LN2, abs=1e-12)
        assert res.weights[0] == 1.0

    def test_peaked_eaft_suppressed(self):
        logits = np.full(64, -20.0)
        logits[3] = 20.0
        res = one_token(obj.named_objective("eaft"), logits, 11)
        assert res.weights[0] == pytest.approx(0.0, abs=1e-6)
        assert res.losses[0] == pytest.approx(0.0, abs=1e-3)

    def test_dft_uniform_oracle(self):
        # weight = p_target = 0.5, so loss = 0.5 * ln 2
        res = one_token(obj.named_objective("dft"), np.zeros(2), 0)
        assert res.losses[0] == pytest.approx(0.34657359027997265, abs=1e-15)

    def test_missing_ref_logits_raises(self):
        with pytest.raises(InvalidArgumentError):
            one_token(obj.named_objective("sft_kl"), np.zeros(4), 0)

    def test_grad_norm_matches_grad(self):
        # the norm of the kernel's gradient row equals (p - onehot) scaled by w
        rng = np.random.default_rng(5)
        res = one_token(obj.named_objective("eaft"), rng.normal(0, 2, 64), 9)
        onehot = np.zeros(64)
        onehot[9] = 1.0
        expected = res.weights[0] * norm(res.probs[0] - onehot)
        assert norm(res.grad[0]) == pytest.approx(expected, abs=1e-12)

    def test_zero_weight_means_exactly_zero_grad(self):
        spec = obj.named_objective("hard_mask", tau_entropy=0.99)
        logits = np.full(64, -10.0)
        logits[0] = 10.0
        res = one_token(spec, logits, 5)
        assert res.weights[0] == 0.0
        assert np.all(res.grad == 0.0)


class TestTokenGrad:
    def test_uniform_two_vocab(self):
        g = one_token(obj.named_objective("ce"), np.zeros(2), 0).grad[0]
        np.testing.assert_allclose(g, [-0.5, 0.5], atol=1e-12)

    def test_finite_difference_all_kinds(self):
        # oracle: central differences of the detached-gate loss at step 1e-5
        rng = np.random.default_rng(42)
        h = 1e-5
        for name, spec in ALL_SPECS.items():
            worst = 0.0
            for _ in range(12):
                z = rng.normal(0, 2.0, 64)
                ref = rng.normal(0, 2.0, 64) if spec.kl_coefficient > 0 else None
                t = int(rng.integers(0, 64))
                res = one_token(spec, z, t, ref)
                w = res.weights[0]
                fd = np.zeros(64)
                for j in range(64):
                    zp, zm = z.copy(), z.copy()
                    zp[j] += h
                    zm[j] -= h
                    fd[j] = (
                        detached_reference_loss(spec, zp, t, ref, w)
                        - detached_reference_loss(spec, zm, t, ref, w)
                    ) / (2 * h)
                denom = max(np.abs(fd).max(), 1e-8)
                worst = max(worst, float(np.abs(res.grad[0] - fd).max() / denom))
            assert worst < 1e-5, f"{name}: rel err {worst}"

    def test_gate_scaling_identity(self):
        # grad(EAFT) == gate * grad(CE), elementwise, for the same logits
        rng = np.random.default_rng(6)
        ce = obj.named_objective("ce")
        eaft = obj.named_objective("eaft")
        for _ in range(50):
            z = rng.normal(0, 3, 64)
            t = int(rng.integers(0, 64))
            rc = one_token(ce, z, t)
            re = one_token(eaft, z, t)
            w = re.weights[0]
            np.testing.assert_allclose(re.grad[0], w * rc.grad[0], atol=1e-15)
            assert norm(re.grad[0]) == pytest.approx(w * norm(rc.grad[0]), abs=1e-12)

    @pytest.mark.parametrize("aggregation", [obj.AGG_MEAN, obj.AGG_SUM])
    def test_dft_is_on_policy_reinforce(self, aggregation):
        # DFT descends the exact expected REINFORCE gradient of the reward
        # 1[y = t]: sum_y p_y 1[y = t] (onehot(y) - p) = p_t (onehot(t) - p)
        rng = np.random.default_rng(9)
        z = rng.normal(0, 3, (16, 64))
        t = rng.integers(0, 64, 16)
        spec = obj.named_objective("dft", aggregation=aggregation)
        scale = 1.0 / len(t) if aggregation == obj.AGG_MEAN else 1.0
        p = ps.softmax_rows(z)
        reinforce = np.zeros_like(p)
        for y in range(64):
            reinforce += (p[:, y] * (t == y))[:, None] * (np.eye(64)[y] - p)
        assert np.array_equal(obj.token_terms(spec, z, t).grad * scale, -reinforce * scale)


TINY = toylm.ModelConfig(vocab_size=64, context_len=3, embed_dim=2, hidden_dim=4, seed=5)


class TestSequenceLoss:
    def test_single_position_matches_token_loss(self):
        # a row of a larger batch equals the same token as a batch of one
        spec = obj.named_objective("eaft")
        rng = np.random.default_rng(4)
        z = rng.normal(0, 2, (5, 64))
        batch = obj.token_terms(spec, z, np.arange(5))
        single = one_token(spec, z[2], 2)
        assert batch.losses[2] == pytest.approx(single.losses[0])
        assert len(single.losses) == 1

    def test_constant_gate_equals_ce_bitwise(self):
        rng = np.random.default_rng(8)
        ce = obj.named_objective("ce")
        one = replace(ce, gate=obj.GateSpec("constant-one"))
        rows = rng.normal(0, 2, (16, 64))
        targets = rng.integers(0, 64, 16)
        a = obj.token_terms(ce, rows, targets)
        b = obj.token_terms(one, rows, targets)
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(a.grad, b.grad)

    def test_sum_is_twice_mean_on_duplicates(self):
        spec = obj.named_objective("eaft")
        params = toylm.init_model(TINY)
        twice = toylm.Corpus(np.array([[1, 2, 3], [1, 2, 3]]), np.array([3, 3]))
        mean_total, _, _ = toylm.loss_and_grads(params, twice, spec)
        sum_spec = replace(spec, aggregation=obj.AGG_SUM)
        sum_total, _, _ = toylm.loss_and_grads(params, twice, sum_spec)
        assert sum_total == pytest.approx(2.0 * mean_total, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            toylm.Corpus(np.zeros((1, 3), dtype=np.int64), np.array([0, 1]))


class TestEntropyOnRequest:
    @staticmethod
    def batch(seed):
        # 40 rows at V=30, the last one so peaked that p_target is exactly 1.0
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 3, (40, 30))
        targets = rng.integers(0, 30, 40)
        logits[-1] = -1e4
        logits[-1, targets[-1]] = 0.0
        return logits, targets, rng.normal(0, 3, (40, 30))

    @pytest.mark.parametrize("name", sorted(ALL_SPECS))
    def test_other_terms_bit_equal(self, name):
        # the kernel computes no entropy; a reader that wants it takes
        # entropy_rows of the kernel's probs, which are softmax_rows bits, and
        # leaves every term as it was
        spec = ALL_SPECS[name]
        logits, targets, ref = self.batch(4)
        pw = np.linspace(0.0, 1.0, 40)
        terms = obj.token_terms(spec, logits, targets, ref, pw)
        before = [None if a is None else a.tobytes() for a in terms]
        ps.entropy_rows(terms.probs)
        assert terms.probs.tobytes() == ps.softmax_rows(logits).tobytes()
        assert [None if a is None else a.tobytes() for a in terms] == before

    def test_ce_is_log_softmax_bits(self):
        # the target-only subtraction gives -log_softmax_rows at the target,
        # bit for bit and sign for sign: p_target == 1.0 gives a loss of -0.0
        logits, targets, _ = self.batch(5)
        res = obj.token_terms(ALL_SPECS["ce"], logits, targets)
        oracle = -ps.log_softmax_rows(logits)[np.arange(40), targets]
        assert res.ce.tobytes() == oracle.tobytes()
        assert res.p_target[-1] == 1.0
        assert res.ce[-1] == 0.0 and np.signbit(res.ce[-1])


class TestGradMagnitudeLandscape:
    def test_projection(self):
        res = one_token(obj.named_objective("ce"), np.zeros(2), 0)
        row = (res.p_target[0], ps.entropy_rows(res.probs)[0], norm(res.grad[0]))
        assert row[:2] == pytest.approx((0.5, LN2), abs=1e-12)
        # uniform 2-vocab CE grad norm is sqrt(0.5)
        assert row[2] == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_gated_ratio_equals_gate(self):
        rng = np.random.default_rng(9)
        ce, eaft = obj.named_objective("ce"), obj.named_objective("eaft")
        z = rng.normal(0, 2, 64)
        rc, re = one_token(ce, z, 4), one_token(eaft, z, 4)
        assert norm(re.grad[0]) / norm(rc.grad[0]) == pytest.approx(re.weights[0], abs=1e-12)

    def test_empty_rejected(self):
        empty = toylm.Corpus(np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(InvalidArgumentError):
            toylm.loss_and_grads(toylm.init_model(TINY), empty, obj.named_objective("ce"))


class TestNormModes:
    def test_paper_norm_scales_linear_gate(self):
        # uniform 64-vocab: exact-ln gate is 1, the /3.0 shorthand gives ln20/3
        exact = obj.named_objective("eaft")
        paper = obj.named_objective("eaft", norm_mode=ps.NORM_PAPER)
        z = np.zeros(64)
        w_exact = one_token(exact, z, 0).weights[0]
        w_paper = one_token(paper, z, 0).weights[0]
        assert w_exact == pytest.approx(1.0, abs=1e-9)
        assert w_paper == pytest.approx(0.998577424517997, abs=1e-9)


class TestNamedObjectives:
    def test_registry_covers_grid(self):
        assert len(obj.OBJECTIVE_NAMES) == 9
        for name in obj.OBJECTIVE_NAMES:
            spec = obj.named_objective(name)
            assert isinstance(spec, obj.ObjectiveSpec)

    def test_sft_kl_coefficient(self):
        assert obj.named_objective("sft_kl").kl_coefficient == 0.5

    def test_unknown_name(self):
        with pytest.raises(InvalidArgumentError):
            obj.named_objective("flow")
