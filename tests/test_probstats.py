"""Unit and property tests for the probability/entropy primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaftlab import probstats as ps
from eaftlab.errors import DegenerateVarianceError, InvalidArgumentError

LN2 = 0.6931471805599453
LN64 = 4.1588830833596715


def uniform_probs(n):
    return np.full((1, n), 1.0 / n)


def row(values):
    """A single distribution (or logit vector) as a (1, V) batch."""
    return np.asarray(values, dtype=np.float64)[None, :]


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(ps.softmax_rows(row([0.0, 0.0]))[0], [0.5, 0.5], atol=1e-15)

    def test_closed_form(self):
        np.testing.assert_allclose(
            ps.softmax_rows(row([math.log(2.0), 0.0]))[0], [2 / 3, 1 / 3], atol=1e-15
        )

    def test_no_overflow_on_large_logits(self):
        p = ps.softmax_rows(row([1000.0, 0.0]))[0]
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-300)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=64), st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, logits, c):
        a = ps.softmax_rows(row(logits))
        b = ps.softmax_rows(row(logits) + c)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_output_sums_to_one(self):
        rng = np.random.default_rng(0)
        p = ps.softmax_rows(rng.normal(0, 5, (50, 33)))
        assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)


class TestLogSoftmax:
    def test_uniform_pair(self):
        np.testing.assert_allclose(ps.log_softmax_rows(row([0.0, 0.0]))[0], [-LN2, -LN2], atol=1e-15)

    def test_closed_form(self):
        got = ps.log_softmax_rows(row([math.log(2.0), 0.0]))[0]
        np.testing.assert_allclose(got, [math.log(2 / 3), math.log(1 / 3)], atol=1e-15)

    def test_matches_softmax_log(self):
        # oracle: softmax first, then elementwise log
        rng = np.random.default_rng(7)
        logits = row(rng.normal(0, 3, 64))
        np.testing.assert_allclose(
            np.exp(ps.log_softmax_rows(logits)), ps.softmax_rows(logits), atol=1e-12
        )
        np.testing.assert_allclose(
            ps.log_softmax_rows(logits), np.log(ps.softmax_rows(logits)), atol=1e-12
        )


class TestEntropy:
    def test_uniform_is_max(self):
        assert ps.entropy_rows(uniform_probs(64))[0] == pytest.approx(LN64, abs=1e-12)

    def test_onehot_is_zero(self):
        v = np.zeros(16)
        v[3] = 1.0
        assert ps.entropy_rows(row(v))[0] == 0.0

    def test_two_point(self):
        v = np.zeros(8)
        v[0] = v[1] = 0.5
        assert ps.entropy_rows(row(v))[0] == pytest.approx(LN2, abs=1e-12)

    @given(st.integers(2, 40), st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_concavity_under_uniform_mixing(self, n, lam, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(n) * 0.7)
        mixed = lam * p + (1 - lam) * np.full(n, 1.0 / n)
        mixed = mixed / mixed.sum()
        h_p, h_m = ps.entropy_rows(np.stack([p, mixed]))
        assert h_m >= h_p - 1e-12


def sorted_topk_entropy(p, k):
    """Oracle: entropy of the renormalized k largest entries via a full sort."""
    top = np.sort(p)[::-1][:k]
    top = top / top.sum()
    top = top[top > 0]
    return float(-(top * np.log(top)).sum())


class TestTopkEntropy:
    def test_k_equals_v_matches_full(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(32), size=20)
        np.testing.assert_allclose(
            ps.topk_entropy_rows(p, 32), ps.entropy_rows(p), rtol=0, atol=1e-12
        )

    def test_three_point_oracle(self):
        # renormalized [0.6, 0.3] -> [2/3, 1/3]; entropy = ln3 - (2/3)ln2
        expected = 0.6365141682948128
        assert ps.topk_entropy_rows(row([0.6, 0.3, 0.1]), 2)[0] == pytest.approx(expected, abs=1e-15)

    def test_k_one_is_zero(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(12), size=10)
        assert np.all(ps.topk_entropy_rows(p, 1) == 0.0)

    def test_k_out_of_range(self):
        p = uniform_probs(4)
        with pytest.raises(InvalidArgumentError):
            ps.topk_entropy_rows(p, 0)
        with pytest.raises(InvalidArgumentError):
            ps.topk_entropy_rows(p, 5)

    @given(st.integers(2, 32), st.integers(1, 32), st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_ln_k(self, n, k, seed):
        k = min(k, n)
        rng = np.random.default_rng(seed)
        h = ps.topk_entropy_rows(row(rng.dirichlet(np.ones(n))), k)[0]
        assert 0.0 <= h <= math.log(k) + 1e-12

    def test_rowwise_matches_scalar(self):
        # each row of a batch equals a one-row-at-a-time sorted oracle
        rng = np.random.default_rng(3)
        mat = rng.dirichlet(np.ones(24), size=16)
        for k in (1, 2, 5, 24):
            rows = ps.topk_entropy_rows(mat, k)
            for i in range(16):
                assert rows[i] == pytest.approx(sorted_topk_entropy(mat[i], k), abs=1e-12)


# The row kernels compute each quantity in place on their own buffers. These
# are the plain expressions they replaced; the results must match bit for bit.
def plain_softmax(z):
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def plain_entropy(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


def plain_topk_entropy(p, k):
    top = np.partition(p, p.shape[-1] - k, axis=-1)[..., p.shape[-1] - k:]
    total = top.sum(axis=-1, keepdims=True)
    safe = np.where(total > 0.0, total, 1.0)
    return plain_entropy(top / safe)


def oracle_logits():
    """(1, V) and (N, V) logit batches whose softmax underflows to exact zeros."""
    rng = np.random.default_rng(11)
    wide = rng.standard_normal((40, 300)) * rng.uniform(0.1, 60.0, size=(40, 1))
    wide[0, 1:] = -1000.0  # one-hot after softmax: 299 exact zeros
    wide[1, ::2] = -800.0
    single = rng.standard_normal((1, 300)) * 80.0
    single[0, :100] = -2000.0
    return [wide, single, rng.standard_normal((64, 64)) * 4.0]


class TestRowKernelsBitIdentical:
    @pytest.mark.parametrize("case", range(3))
    def test_softmax(self, case):
        z = oracle_logits()[case]
        before = z.copy()
        p = ps.softmax_rows(z)
        assert np.array_equal(p, plain_softmax(z))
        assert np.array_equal(z, before)
        if case < 2:
            assert np.any(p == 0.0)

    @pytest.mark.parametrize("case", range(3))
    def test_entropy(self, case):
        p = plain_softmax(oracle_logits()[case])
        before = p.copy()
        assert np.array_equal(ps.entropy_rows(p), plain_entropy(p))
        assert np.array_equal(p, before)

    @pytest.mark.parametrize("case", range(3))
    def test_topk_entropy(self, case):
        p = plain_softmax(oracle_logits()[case])
        before = p.copy()
        v = p.shape[-1]
        for k in (1, 2, 20, v - 1, v):
            assert np.array_equal(ps.topk_entropy_rows(p, k), plain_topk_entropy(p, k))
        assert np.array_equal(p, before)

    def test_zero_rows_and_non_positive_entries(self):
        # an all-zero row keeps its zero total; negatives and NaN count as 0·ln0
        p = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, -0.0, 0.5, 0.0], [0.5, np.nan, -0.25, 0.5]])
        assert np.array_equal(ps.entropy_rows(p), plain_entropy(p))
        for k in (1, 2, 4):
            assert np.array_equal(ps.topk_entropy_rows(p, k), plain_topk_entropy(p, k), equal_nan=True)


class TestNormalizedGate:
    def test_uniform_topk_is_one(self):
        assert ps.gate_rows(uniform_probs(64), 20)[0] == pytest.approx(1.0, abs=1e-9)

    def test_onehot_is_zero(self):
        v = np.zeros(64)
        v[5] = 1.0
        assert ps.gate_rows(row(v), 20)[0] == 0.0

    def test_paper_norm_oracle(self):
        # uniform top-20 mass under the /3.0 shorthand: ln(20)/3
        got = ps.gate_rows(uniform_probs(64), 20, ps.NORM_PAPER)[0]
        assert got == pytest.approx(0.998577424517997, abs=1e-12)

    def test_paper_norm_requires_k20(self):
        with pytest.raises(InvalidArgumentError):
            ps.gate_rows(uniform_probs(64), 10, ps.NORM_PAPER)

    def test_exact_norm_equals_topk_over_ln_k(self):
        rng = np.random.default_rng(4)
        p = row(rng.dirichlet(np.ones(40)))
        k = 7
        assert ps.gate_rows(p, k)[0] == pytest.approx(
            ps.topk_entropy_rows(p, k)[0] / math.log(k), abs=1e-12
        )

    def test_one_iff_topk_uniform(self):
        # equal top-k probabilities saturate the gate; unequal ones do not
        v = np.zeros(32)
        v[:8] = 1.0 / 8
        assert ps.gate_rows(row(v), 8)[0] == pytest.approx(1.0, abs=1e-9)
        v = np.zeros(32)
        v[0], v[1:8] = 0.3, 0.1
        assert ps.gate_rows(row(v), 8)[0] < 1.0 - 1e-9

    @given(st.integers(2, 32), st.integers(2, 20), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_in_unit_interval(self, n, k, seed):
        k = min(k, n)
        rng = np.random.default_rng(seed)
        g = ps.gate_rows(row(rng.dirichlet(np.ones(n) * 0.5)), k)[0]
        assert 0.0 <= g <= 1.0


class TestPearson:
    def test_affine_increasing(self):
        xs = np.arange(10.0)
        assert ps.pearson(xs, 2 * xs + 1) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        xs = np.arange(10.0)
        assert ps.pearson(xs, -xs) == pytest.approx(-1.0, abs=1e-12)

    def test_three_point_oracle(self):
        assert ps.pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_constant_raises(self):
        with pytest.raises(DegenerateVarianceError):
            ps.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_never_beyond_one(self):
        # sx * sy can round one ulp below |sum(dx * dy)|: unclamped, r(x, x)
        # read 1.0000000000000002 on 467 of these vectors
        rng = np.random.default_rng(0)
        for _ in range(2000):
            xs = rng.standard_normal(int(rng.integers(2, 50)))
            assert 1.0 - 1e-15 <= ps.pearson(xs, xs) <= 1.0
            assert -1.0 <= ps.pearson(xs, -xs) <= -1.0 + 1e-15


class TestPercentileThreshold:
    def test_integers_nearest_rank(self):
        values = np.arange(1, 101, dtype=float)
        assert ps.percentile_threshold(values, 0.15) == 15.0

    def test_all_equal(self):
        assert ps.percentile_threshold([7.0] * 12, 0.5) == 7.0

    def test_three_point_oracle(self):
        assert ps.percentile_threshold([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_q_bounds(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidArgumentError):
                ps.percentile_threshold([1.0, 2.0], q)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=200),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, values, q):
        v = np.asarray(values)
        thr = ps.percentile_threshold(v, q)
        assert (v <= thr).sum() >= math.ceil(q * v.size)

    @staticmethod
    def stable_sort_oracle(v, q):
        return float(np.sort(np.asarray(v, dtype=np.float64), kind="stable")[math.ceil(q * len(v)) - 1])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_stable_sort_on_random_vectors(self, seed):
        # few distinct values, so the rank often falls inside a run of ties
        rng = np.random.default_rng(seed)
        v = rng.integers(-3, 4, size=int(rng.integers(1, 300))) * rng.choice([0.5, 1.0], 1)
        v = np.where(rng.random(v.size) < 0.5, v, rng.standard_normal(v.size))
        for q in (0.01, 0.15, 0.5, 0.85, 0.99, float(rng.uniform(0.01, 0.99))):
            got = ps.percentile_threshold(v, q)
            assert np.float64(got).tobytes() == np.float64(self.stable_sort_oracle(v, q)).tobytes()

    @given(
        st.lists(st.sampled_from([-0.0, 0.0, -1.0, 1.0]), min_size=1, max_size=60),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_signed_zero_ties_match_stable_sort(self, values, q):
        # -0.0 == 0.0, so the stable sort keeps tied zeros in input order and
        # the sign of a zero threshold follows that order
        got = ps.percentile_threshold(values, q)
        assert math.copysign(1.0, got) == math.copysign(1.0, self.stable_sort_oracle(values, q))
        assert got == self.stable_sort_oracle(values, q)

    @pytest.mark.parametrize(
        "values,q,sign",
        [
            ([0.0, -0.0, 1.0, 2.0], 0.25, 1.0),
            ([-0.0, 0.0, 1.0, 2.0], 0.25, -1.0),
            ([-0.0, 0.0, 1.0, 2.0], 0.5, 1.0),
            ([2.0, -1.0, 0.0, -0.0], 0.5, 1.0),
            ([2.0, -1.0, 0.0, -0.0], 0.75, -1.0),
        ],
    )
    def test_signed_zero_at_rank(self, values, q, sign):
        assert math.copysign(1.0, ps.percentile_threshold(values, q)) == sign


class TestSubgroupCE:
    def test_bounds_are_inclusive(self):
        ce = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        entropy = np.array([2.0, 2.5, 0.5, 0.1, 1.0])
        assert ps.subgroup_ce(ce, entropy, 2.0, 0.5) == {
            "high_entropy_ce": 1.5,
            "high_entropy_count": 2,
            "low_entropy_ce": 3.5,
            "low_entropy_count": 2,
        }

    def test_empty_groups_have_no_mean(self):
        got = ps.subgroup_ce(np.array([1.0]), np.array([1.0]), 2.0, 0.5)
        assert got == {
            "high_entropy_ce": None,
            "high_entropy_count": 0,
            "low_entropy_ce": None,
            "low_entropy_count": 0,
        }
        assert ps.subgroup_ce(np.zeros(0), np.zeros(0), 2.0, 0.5)["high_entropy_count"] == 0

    def test_means_are_numpy_means(self):
        # the bits of a masked numpy mean, whichever caller's CE array it is
        rng = np.random.default_rng(4)
        ce, entropy = rng.exponential(size=300), rng.uniform(0, 3, size=300)
        got = ps.subgroup_ce(ce, entropy, ps.HIGH_ENTROPY_MIN, ps.LOW_ENTROPY_MAX)
        assert got["high_entropy_ce"] == float(ce[entropy >= 2.0].mean())
        assert got["low_entropy_ce"] == float(ce[entropy <= 0.5].mean())
        assert type(got["high_entropy_count"]) is int
