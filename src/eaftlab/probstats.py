"""Numerically stable probability, entropy, gating, and correlation primitives.

Everything here is a pure function of its inputs (no hidden state, no RNG),
so concurrent callers need no coordination. Natural logarithms throughout;
entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVarianceError,
    InvalidArgumentError,
    InvalidInputError,
)

PROB_SUM_TOL = 1e-12

# Normalizer modes for the entropy gate. "exact-ln" divides the top-K entropy
# by ln(K); "paper-3.0" divides by the constant 3.0 and is only defined for
# K = 20 (ln 20 = 2.9957...).
NORM_EXACT = "exact-ln"
NORM_PAPER = "paper-3.0"
NORM_MODES = (NORM_EXACT, NORM_PAPER)


@dataclass(frozen=True)
class ProbVector:
    """A single next-token probability distribution over a vocabulary.

    Invariants: entries are non-negative and sum to 1 within 1e-12;
    ``vocab_size`` equals the vector length.
    """

    probs: np.ndarray
    vocab_size: int

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise InvalidInputError("probability vector must be 1-D and non-empty")
        if not np.all(np.isfinite(p)):
            raise InvalidInputError("probability vector contains non-finite entries")
        if np.any(p < 0):
            raise InvalidInputError("probability vector contains negative entries")
        if abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            raise InvalidInputError(
                f"probabilities sum to {float(p.sum()):.17g}, not 1 within {PROB_SUM_TOL}"
            )
        if self.vocab_size != p.size:
            raise InvalidArgumentError(
                f"vocab_size {self.vocab_size} != vector length {p.size}"
            )
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_array(cls, probs) -> "ProbVector":
        p = np.asarray(probs, dtype=np.float64)
        return cls(probs=p, vocab_size=int(p.size))


@dataclass(frozen=True)
class TokenDistribution:
    """One scored next-token distribution with its entropy statistics.

    ``gate`` is the normalized top-``k`` entropy in [0, 1]; with the exact-ln
    normalizer it equals ``entropy_topk / ln(k)`` (0 for k = 1, where a single
    outcome has zero entropy and zero capacity).
    """

    probs: ProbVector
    target_id: int
    p_target: float
    entropy_full: float
    entropy_topk: float
    gate: float
    k: int

    def __post_init__(self):
        if not 0 <= self.target_id < self.probs.vocab_size:
            raise InvalidArgumentError(
                f"target_id {self.target_id} out of range for V={self.probs.vocab_size}"
            )
        if abs(self.p_target - float(self.probs.probs[self.target_id])) > PROB_SUM_TOL:
            raise InvalidArgumentError("p_target does not match probs[target_id]")
        if not 1 <= self.k <= self.probs.vocab_size:
            raise InvalidArgumentError(f"k={self.k} outside [1, {self.probs.vocab_size}]")
        if not 0.0 <= self.entropy_full <= np.log(self.probs.vocab_size) + 1e-9:
            raise InvalidArgumentError("entropy_full outside [0, ln V]")
        if not 0.0 <= self.entropy_topk <= (np.log(self.k) if self.k > 1 else 0.0) + 1e-9:
            raise InvalidArgumentError("entropy_topk outside [0, ln k]")
        if not 0.0 <= self.gate <= 1.0:
            raise InvalidArgumentError(f"gate {self.gate} outside [0, 1]")


def softmax(logits) -> ProbVector:
    """Max-subtracted softmax; strictly positive output summing to 1."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise InvalidInputError("logits must be a non-empty 1-D vector")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("logits contain non-finite values")
    e = np.exp(z - z.max())
    return ProbVector.from_array(e / e.sum())


def log_softmax(logits) -> np.ndarray:
    """Log-probabilities: logit minus logsumexp, computed stably."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise InvalidInputError("logits must be a non-empty 1-D vector")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("logits contain non-finite values")
    shifted = z - z.max()
    return shifted - np.log(np.exp(shifted).sum())


def entropy(p: ProbVector) -> float:
    """Shannon entropy in nats with the 0·ln0 := 0 convention."""
    return float(_entropy_raw(p.probs))


def _entropy_raw(probs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    return -terms.sum(axis=-1)


def topk_entropy(p: ProbVector, k: int) -> float:
    """Entropy of the renormalized k largest probabilities (ties -> lower index).

    The selected mass is renormalized to a proper k-outcome distribution so the
    result is bounded by ln(k).
    """
    if not 1 <= k <= p.vocab_size:
        raise InvalidArgumentError(f"k={k} outside [1, {p.vocab_size}]")
    top = _topk_probs(p.probs, k)
    total = top.sum()
    if total <= 0.0:
        return 0.0
    return float(_entropy_raw(top / total))


def _topk_probs(probs: np.ndarray, k: int) -> np.ndarray:
    # stable sort on (-p) so equal probabilities resolve to the lower index
    order = np.argsort(-probs, kind="stable")
    return probs[order[:k]]


def normalized_gate(p: ProbVector, k: int, norm: str = NORM_EXACT) -> float:
    """Top-k entropy scaled into [0, 1] by ln(k) or by the 3.0 shorthand."""
    check_gate_norm(k, norm)
    h = topk_entropy(p, k)
    if norm == NORM_PAPER:
        return min(1.0, max(0.0, h / 3.0))
    if k == 1:
        return 0.0
    return min(1.0, max(0.0, h / np.log(k)))


def check_gate_norm(k: int, norm: str) -> None:
    """Reject a normalizer mode that is unknown or undefined for this k."""
    if norm not in NORM_MODES:
        raise InvalidArgumentError(f"unknown norm mode {norm!r}")
    if norm == NORM_PAPER and k != 20:
        raise InvalidArgumentError("paper-3.0 normalization is defined only for k=20")


def describe_distribution(
    probs: ProbVector, target_id: int, k: int, norm: str = NORM_EXACT
) -> TokenDistribution:
    """Bundle one distribution with its target and entropy statistics."""
    if not 0 <= target_id < probs.vocab_size:
        raise InvalidArgumentError(
            f"target_id {target_id} out of range for V={probs.vocab_size}"
        )
    return TokenDistribution(
        probs=probs,
        target_id=int(target_id),
        p_target=float(probs.probs[target_id]),
        entropy_full=entropy(probs),
        entropy_topk=topk_entropy(probs, k),
        gate=normalized_gate(probs, k, norm),
        k=int(k),
    )


def pearson(xs, ys) -> float:
    """Sample Pearson correlation; rejects constant inputs."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise InvalidInputError("inputs must be 1-D vectors of equal length")
    if x.size < 2:
        raise InvalidInputError("need at least two points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidInputError("inputs contain non-finite values")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateVarianceError("constant input has no defined correlation")
    return float((dx * dy).sum() / (sx * sy))


def percentile_threshold(values, q: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(q*N) of the ascending sort.

    At least q*N of the values are <= the returned threshold.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise InvalidInputError("values must be a non-empty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("values contain non-finite entries")
    if not 0.0 < q < 1.0:
        raise InvalidArgumentError(f"q={q} outside (0, 1)")
    rank = int(np.ceil(q * v.size))
    return float(np.sort(v, kind="stable")[rank - 1])


# ---------------------------------------------------------------------------
# Batched helpers. Same math as the scalar operations above, applied row-wise
# to (N, V) arrays. The training loop and the landscape scorer go through
# these so that scoring 10k tokens does not build 10k ProbVector objects.
# ---------------------------------------------------------------------------


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    return _entropy_raw(np.asarray(probs, dtype=np.float64))


def topk_entropy_rows(probs: np.ndarray, k: int) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if not 1 <= k <= p.shape[-1]:
        raise InvalidArgumentError(f"k={k} outside [1, {p.shape[-1]}]")
    # np.partition is faster than a full sort and, after renormalization,
    # tie-breaking cannot change the entropy value (tied entries are equal).
    top = np.partition(p, p.shape[-1] - k, axis=-1)[..., p.shape[-1] - k:]
    total = top.sum(axis=-1, keepdims=True)
    safe = np.where(total > 0.0, total, 1.0)
    return _entropy_raw(top / safe)


def gate_rows(probs: np.ndarray, k: int, norm: str = NORM_EXACT) -> np.ndarray:
    check_gate_norm(k, norm)
    h = topk_entropy_rows(probs, k)
    denom = 3.0 if norm == NORM_PAPER else (np.log(k) if k > 1 else np.inf)
    return np.clip(h / denom, 0.0, 1.0)
