"""Catalog of per-token training objectives.

Every objective is cross-entropy supervision scaled by a per-token gate
weight, optionally plus a KL penalty against a frozen reference model:

    loss = w * (-log p(target)) + kl_coefficient * KL(p || p_ref)

The gate weight ``w`` is computed from the current distribution and treated
as a constant with respect to the logits (stop-gradient), which yields the
clean scaling identity grad = w * (p - onehot(target)) and makes a zero gate
produce an exactly-zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import probstats
from .errors import InvalidArgumentError, check_ints, check_reals, is_real
from .probstats import NORM_EXACT

GATE_KINDS = (
    "constant-one",
    "linear",
    "power",
    "sigmoid",
    "hard-mask",
    "prob-weight",
    "conflict-mask",
)

# Gate kinds whose weight never reads the entropy gate value; ``eval_gate_rows``
# accepts ``gates=None`` for them.
GATE_FREE_KINDS = ("constant-one", "prob-weight")

AGG_MEAN = "token-mean"
AGG_SUM = "token-sum"


@dataclass(frozen=True)
class GateSpec:
    """Declarative description of a gate function f applied per token.

    Only the fields relevant to ``kind`` are read:
      power        -> p_exponent
      sigmoid      -> alpha (steepness), beta (center)
      hard-mask    -> tau_entropy (gate units)
      conflict-mask-> tau_entropy and tau_prob jointly
    """

    kind: str
    p_exponent: float = 2.0
    alpha: float = 30.0
    beta: float = 0.17
    tau_entropy: float = 0.0
    tau_prob: float = 0.0

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise InvalidArgumentError(f"unknown gate kind {self.kind!r}")
        if self.kind == "power" and not self.p_exponent > 0:
            raise InvalidArgumentError("power gate needs p_exponent > 0")
        if not np.isfinite(self.alpha):
            raise InvalidArgumentError("sigmoid alpha must be finite")
        check_reals(self, "[0, 1]", "tau_entropy", "tau_prob")


@dataclass(frozen=True)
class ObjectiveSpec:
    """A gate, an optional reference-KL coefficient, and evaluation knobs.

    ``k`` is clamped to the vocabulary size at evaluation time, so the
    default top-20 gate works on any model.
    """

    gate: GateSpec
    kl_coefficient: float = 0.0
    norm_mode: str = NORM_EXACT
    k: int = 20
    aggregation: str = AGG_MEAN

    def __post_init__(self):
        if self.kl_coefficient < 0:
            raise InvalidArgumentError("kl_coefficient must be >= 0")
        check_ints(self, 1, "k")
        if self.norm_mode not in probstats.NORM_MODES:
            raise InvalidArgumentError(f"norm_mode must be one of {list(probstats.NORM_MODES)}, got {self.norm_mode!r}")
        if self.aggregation not in (AGG_MEAN, AGG_SUM):
            raise InvalidArgumentError(f"aggregation must be {AGG_MEAN} or {AGG_SUM}, got {self.aggregation!r}")


def eval_gate_rows(
    spec: GateSpec, gates: np.ndarray | None, p_targets: np.ndarray
) -> np.ndarray:
    """Map per-token gate values and target probs to loss weights in [0, 1]."""
    if spec.kind == "constant-one":
        return np.ones(np.shape(p_targets))
    if spec.kind == "linear":
        return np.asarray(gates, dtype=np.float64)
    if spec.kind == "power":
        return np.asarray(gates, dtype=np.float64) ** spec.p_exponent
    if spec.kind == "sigmoid":
        return _sigmoid(spec.alpha * (np.asarray(gates) - spec.beta))
    if spec.kind == "hard-mask":
        return (np.asarray(gates) > spec.tau_entropy).astype(np.float64)
    if spec.kind == "prob-weight":
        return np.asarray(p_targets, dtype=np.float64)
    if spec.kind == "conflict-mask":
        masked = (np.asarray(gates) <= spec.tau_entropy) & (
            np.asarray(p_targets) <= spec.tau_prob
        )
        return 1.0 - masked.astype(np.float64)
    raise InvalidArgumentError(f"unknown gate kind {spec.kind!r}")


def _sigmoid(z):
    # branch on sign to avoid overflow in exp
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TokenTerms(NamedTuple):
    """Per-token quantities of one batch under one objective."""

    losses: np.ndarray
    weights: np.ndarray
    ce: np.ndarray
    probs: np.ndarray             # (B, V) softmax of the logits
    p_target: np.ndarray
    gates: np.ndarray | None      # None when the gate kind does not read it
    grad: np.ndarray              # (B, V) d(loss)/d(logits), unscaled


def token_terms(
    spec: ObjectiveSpec,
    logits: np.ndarray,
    targets: np.ndarray,
    ref_logits: np.ndarray | None = None,
    position_weights: np.ndarray | None = None,
) -> TokenTerms:
    """Per-token losses, weights, stats, and d(loss)/d(logits) of (B, V) logits.

    The gate weight is evaluated on the live distribution and detached;
    ``position_weights`` (sample weights in [0, 1]) multiply the gate. A
    single token is a batch of one row.
    """
    B = logits.shape[0]
    # one pass for both: bit-equal to softmax_rows and log_softmax_rows
    shifted = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(shifted)
    total = p.sum(axis=-1, keepdims=True)
    log_total = np.log(total)
    p /= total
    idx = np.arange(B)
    p_t = p[idx, targets]
    k = min(spec.k, p.shape[1])
    if spec.gate.kind in GATE_FREE_KINDS:
        probstats.check_gate_norm(k, spec.norm_mode)
        gates = None
    else:
        gates = probstats.gate_rows(p, k, spec.norm_mode)
    w = eval_gate_rows(spec.gate, gates, p_t)
    if position_weights is not None:
        w = w * position_weights
    # the log_softmax_rows subtraction for the target entries only; negating
    # the difference (not writing log_total - shifted) keeps a -0.0 loss
    ce = -(shifted[idx, targets] - log_total[:, 0])
    losses = w * ce
    grad = p.copy()
    grad[idx, targets] -= 1.0
    grad *= w[:, None]
    if spec.kl_coefficient > 0.0:
        if ref_logits is None:
            raise InvalidArgumentError("kl_coefficient > 0 requires reference logits")
        logp = shifted - log_total
        logq = probstats.log_softmax_rows(ref_logits)
        with np.errstate(invalid="ignore"):
            kl_terms = np.where(p > 0.0, p * (logp - logq), 0.0)
        kl = kl_terms.sum(axis=1)
        losses = losses + spec.kl_coefficient * kl
        # d/dz sum_i p_i (logp_i - logq_i)  =  p ⊙ (logp - logq - KL)
        grad = grad + spec.kl_coefficient * (p * (logp - logq - kl[:, None]))
    return TokenTerms(losses, w, ce, p, p_t, gates, grad)


# ---------------------------------------------------------------------------
# Named objective registry: the bench grid refers to objectives by name.
# Threshold-bearing kinds (hard_mask, conflict_mask) leave their taus at 0
# until the caller resolves them against a reference token population.
# ---------------------------------------------------------------------------

OBJECTIVE_NAMES = (
    "ce",
    "eaft",
    "eaft_pow2",
    "eaft_pow3",
    "eaft_sigmoid",
    "hard_mask",
    "conflict_mask",
    "dft",
    "sft_kl",
)

_GATE_BY_NAME = {
    "ce": GateSpec(kind="constant-one"),
    "eaft": GateSpec(kind="linear"),
    "eaft_pow2": GateSpec(kind="power", p_exponent=2.0),
    "eaft_pow3": GateSpec(kind="power", p_exponent=3.0),
    "eaft_sigmoid": GateSpec(kind="sigmoid", alpha=30.0, beta=0.17),
    "hard_mask": GateSpec(kind="hard-mask"),
    "conflict_mask": GateSpec(kind="conflict-mask"),
    "dft": GateSpec(kind="prob-weight"),
    "sft_kl": GateSpec(kind="constant-one"),
}


def named_objective(
    name: str,
    tau_entropy: float | None = None,
    tau_prob: float | None = None,
    k: int = 20,
    norm_mode: str = NORM_EXACT,
    aggregation: str = AGG_MEAN,
) -> ObjectiveSpec:
    """Build the spec for one of the standard objective names. A rejected
    argument's message starts with its name."""
    if name not in OBJECTIVE_NAMES:
        raise InvalidArgumentError(f"name must be one of {list(OBJECTIVE_NAMES)}, got {name!r}")
    gate = _GATE_BY_NAME[name]
    for field, tau in (("tau_entropy", tau_entropy), ("tau_prob", tau_prob)):
        if tau is not None:
            if not is_real(tau):
                raise InvalidArgumentError(f"{field} must be a number in [0, 1], got {tau!r}")
            gate = replace(gate, **{field: float(tau)})
    kl = 0.5 if name == "sft_kl" else 0.0
    return ObjectiveSpec(
        gate=gate, kl_coefficient=kl, norm_mode=norm_mode, k=k, aggregation=aggregation
    )
