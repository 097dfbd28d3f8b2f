"""Numerically stable probability, entropy, gating, and correlation primitives.

Every distribution function works row-wise on (N, V) arrays (a single
distribution is a (1, V) batch), so there is exactly one implementation of
each quantity. Everything here is a pure function of its inputs (no hidden
state, no RNG), so concurrent callers need no coordination. Natural
logarithms throughout; entropies are in nats.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateVarianceError,
    InvalidArgumentError,
    InvalidInputError,
)

# Normalizer modes for the entropy gate. "exact-ln" divides the top-K entropy
# by ln(K); "paper-3.0" divides by the constant 3.0 and is only defined for
# K = 20 (ln 20 = 2.9957...).
NORM_EXACT = "exact-ln"
NORM_PAPER = "paper-3.0"
NORM_MODES = (NORM_EXACT, NORM_PAPER)


def check_gate_norm(k: int, norm: str) -> None:
    """Reject a normalizer mode that is unknown or undefined for this k."""
    if norm not in NORM_MODES:
        raise InvalidArgumentError(f"unknown norm mode {norm!r}")
    if norm == NORM_PAPER and k != 20:
        raise InvalidArgumentError("paper-3.0 normalization is defined only for k=20")


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
    value = np.partition(v, rank - 1)[rank - 1]
    if value == 0.0:
        # -0.0 and 0.0 tie: the stable sort orders them as in the input, so
        # the zero at this rank is the (rank - below)-th zero of the input
        below = int(np.count_nonzero(v < 0.0))
        value = v[v == 0.0][rank - 1 - below]
    return float(value)


QUADRANTS = ("confident-conflict", "confident-correct", "exploratory", "other")


def quadrant_labels(h, p_targets, q: float, thresholds=None):
    """Label each token by joint thresholds on its entropy axis ``h`` (the
    gate, or the full entropy) and its ``p_target``.

    Thresholds default to the nearest-rank ``q`` percentiles of the inputs;
    returns the labels (one of ``QUADRANTS`` each) and ``(tau_h, tau_p)``.
    """
    if thresholds is None:
        tau_h = percentile_threshold(h, q)
        tau_p = percentile_threshold(p_targets, q)
    else:
        tau_h, tau_p = float(thresholds[0]), float(thresholds[1])
    low_h = h <= tau_h
    low_p = p_targets <= tau_p
    labels = np.full(len(h), "other", dtype=object)
    labels[low_h & low_p] = "confident-conflict"
    labels[low_h & ~low_p] = "confident-correct"
    labels[~low_h & low_p] = "exploratory"
    return labels, (tau_h, tau_p)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax of each row; strictly positive, rows sum to 1."""
    z = np.asarray(logits, dtype=np.float64)
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities of each row: logit minus logsumexp, computed stably."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row in nats with the 0·ln0 := 0 convention."""
    return _entropy_raw(np.asarray(probs, dtype=np.float64))


def _entropy_raw(probs: np.ndarray) -> np.ndarray:
    # p * ln p in one buffer; entries with p > 0 false (0 * -inf, NaN) become 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(probs)
        terms *= probs
    terms[~(probs > 0.0)] = 0.0
    return -terms.sum(axis=-1)


def topk_entropy_rows(probs: np.ndarray, k: int) -> np.ndarray:
    """Entropy of each row's k largest probabilities, renormalized to sum to 1.

    The renormalized mass is a proper k-outcome distribution, so the result
    is bounded by ln(k).
    """
    p = np.asarray(probs, dtype=np.float64)
    if not 1 <= k <= p.shape[-1]:
        raise InvalidArgumentError(f"k={k} outside [1, {p.shape[-1]}]")
    # np.partition is faster than a full sort and, after renormalization,
    # tie-breaking cannot change the entropy value (tied entries are equal).
    top = np.partition(p, p.shape[-1] - k, axis=-1)[..., p.shape[-1] - k:]
    total = top.sum(axis=-1, keepdims=True)
    top /= np.where(total > 0.0, total, 1.0)  # the partition is a private copy
    return _entropy_raw(top)


def gate_rows(probs: np.ndarray, k: int, norm: str = NORM_EXACT) -> np.ndarray:
    """The gate of each row: ``gate_of_entropy`` of its top-k entropy."""
    return gate_of_entropy(topk_entropy_rows(probs, k), k, norm)


def gate_of_entropy(h: np.ndarray, k: int, norm: str = NORM_EXACT) -> np.ndarray:
    """Top-k entropies ``h`` scaled into [0, 1] by ln(k) or by the 3.0
    shorthand; 0 for k = 1, where a single outcome has no entropy."""
    check_gate_norm(k, norm)
    denom = 3.0 if norm == NORM_PAPER else (np.log(k) if k > 1 else np.inf)
    return np.clip(h / denom, 0.0, 1.0)


# The token subgroups of the train log and of ``landscape.dynamics_track``:
# full entropy at least HIGH_ENTROPY_MIN nats, and at most LOW_ENTROPY_MAX.
HIGH_ENTROPY_MIN = 2.0
LOW_ENTROPY_MAX = 0.5


def subgroup_ce(ce: np.ndarray, entropy: np.ndarray, high_min: float, low_max: float) -> dict:
    """Mean cross-entropy and size of the high-entropy (``entropy >= high_min``)
    and the low-entropy (``entropy <= low_max``) tokens; an empty group's mean
    is None."""
    hi = entropy >= high_min
    lo = entropy <= low_max
    n_hi, n_lo = int(np.count_nonzero(hi)), int(np.count_nonzero(lo))
    return {
        "high_entropy_ce": float(ce[hi].mean()) if n_hi else None,
        "high_entropy_count": n_hi,
        "low_entropy_ce": float(ce[lo].mean()) if n_lo else None,
        "low_entropy_count": n_lo,
    }
