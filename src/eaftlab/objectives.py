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

import numpy as np

from . import probstats
from .errors import DivergenceUndefinedError, InvalidArgumentError
from .probstats import NORM_EXACT, ProbVector, TokenDistribution

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
        for name, tau in (("tau_entropy", self.tau_entropy), ("tau_prob", self.tau_prob)):
            if not 0.0 <= tau <= 1.0:
                raise InvalidArgumentError(f"{name}={tau} outside [0, 1]")


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
        if self.k < 1:
            raise InvalidArgumentError("k must be >= 1")
        if self.aggregation not in (AGG_MEAN, AGG_SUM):
            raise InvalidArgumentError(f"unknown aggregation {self.aggregation!r}")


@dataclass(frozen=True)
class TokenLossResult:
    loss: float
    weight: float
    grad_logits: np.ndarray
    grad_norm: float
    stats: TokenDistribution


def eval_gate(spec: GateSpec, dist: TokenDistribution) -> float:
    """Map one token's statistics to its loss weight in [0, 1]."""
    h = dist.gate
    if spec.kind == "constant-one":
        return 1.0
    if spec.kind == "linear":
        return float(h)
    if spec.kind == "power":
        return float(h**spec.p_exponent)
    if spec.kind == "sigmoid":
        return float(_sigmoid(spec.alpha * (h - spec.beta)))
    if spec.kind == "hard-mask":
        return 1.0 if h > spec.tau_entropy else 0.0
    if spec.kind == "prob-weight":
        return float(dist.p_target)
    if spec.kind == "conflict-mask":
        masked = h <= spec.tau_entropy and dist.p_target <= spec.tau_prob
        return 0.0 if masked else 1.0
    raise InvalidArgumentError(f"unknown gate kind {spec.kind!r}")


def eval_gate_rows(
    spec: GateSpec, gates: np.ndarray | None, p_targets: np.ndarray
) -> np.ndarray:
    """Vectorized ``eval_gate`` over per-token gate values and target probs."""
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
    return out if out.ndim else float(out)


def kl_divergence(p: ProbVector, q: ProbVector) -> float:
    """Forward KL in nats: sum p * ln(p/q); requires q > 0 wherever p > 0."""
    if p.vocab_size != q.vocab_size:
        raise InvalidArgumentError("distributions live on different vocabularies")
    pp, qq = p.probs, q.probs
    support = pp > 0.0
    if np.any(qq[support] == 0.0):
        raise DivergenceUndefinedError("q has zero mass where p > 0")
    val = float(np.sum(pp[support] * np.log(pp[support] / qq[support])))
    return max(val, 0.0)


def token_loss(
    spec: ObjectiveSpec,
    logits,
    target_id: int,
    ref_logits=None,
) -> TokenLossResult:
    """Gated cross-entropy (plus optional reference KL) for one token."""
    z = np.asarray(logits, dtype=np.float64)
    _check_ref(spec, z, ref_logits)
    probs = probstats.softmax(z)
    k = min(spec.k, probs.vocab_size)
    dist = probstats.describe_distribution(probs, target_id, k, spec.norm_mode)
    w = eval_gate(spec.gate, dist)
    logp = probstats.log_softmax(z)
    loss = w * (-float(logp[target_id]))
    grad = w * (probs.probs - _onehot(target_id, probs.vocab_size))
    if spec.kl_coefficient > 0.0:
        ref_probs = probstats.softmax(np.asarray(ref_logits, dtype=np.float64))
        kl = kl_divergence(probs, ref_probs)
        loss += spec.kl_coefficient * kl
        grad = grad + spec.kl_coefficient * _kl_grad(
            probs.probs, probstats.log_softmax(z),
            probstats.log_softmax(np.asarray(ref_logits, dtype=np.float64)), kl,
        )
    return TokenLossResult(
        loss=float(loss),
        weight=float(w),
        grad_logits=grad,
        grad_norm=float(np.sqrt((grad * grad).sum())),
        stats=dist,
    )


def token_grad(spec: ObjectiveSpec, logits, target_id: int, ref_logits=None) -> np.ndarray:
    """Analytic gradient of ``token_loss`` with respect to the logits."""
    return token_loss(spec, logits, target_id, ref_logits).grad_logits


def _kl_grad(p: np.ndarray, logp: np.ndarray, logq: np.ndarray, kl: float) -> np.ndarray:
    # d/dz sum_i p_i (logp_i - logq_i)  =  p ⊙ (logp - logq - KL)
    return p * (logp - logq - kl)


def _onehot(idx: int, size: int) -> np.ndarray:
    v = np.zeros(size)
    v[idx] = 1.0
    return v


def _check_ref(spec: ObjectiveSpec, logits: np.ndarray, ref_logits) -> None:
    if spec.kl_coefficient > 0.0:
        if ref_logits is None:
            raise InvalidArgumentError("kl_coefficient > 0 requires ref_logits")
        r = np.asarray(ref_logits)
        if r.shape != logits.shape:
            raise InvalidArgumentError("ref_logits shape mismatch")


def sequence_loss(
    spec: ObjectiveSpec,
    logit_rows,
    targets,
    ref_rows=None,
) -> tuple[float, list[TokenLossResult]]:
    """Aggregate token losses over a sequence (token-mean or token-sum)."""
    rows = [np.asarray(r, dtype=np.float64) for r in logit_rows]
    tg = list(targets)
    if len(rows) == 0 or len(rows) != len(tg):
        raise InvalidArgumentError("need T >= 1 logit rows matching the target count")
    if ref_rows is not None and len(ref_rows) != len(rows):
        raise InvalidArgumentError("ref_rows length mismatch")
    per_token = []
    for i, (row, t) in enumerate(zip(rows, tg)):
        ref = None if ref_rows is None else ref_rows[i]
        per_token.append(token_loss(spec, row, t, ref))
    total = sum(r.loss for r in per_token)
    if spec.aggregation == AGG_MEAN:
        total /= len(per_token)
    return float(total), per_token


def grad_magnitude_landscape(records) -> list[tuple[float, float, float]]:
    """Project loss results onto (p_target, full entropy, gradient norm)."""
    results = list(records)
    if not results:
        raise InvalidArgumentError("need at least one record")
    return [(r.stats.p_target, r.stats.entropy_full, r.grad_norm) for r in results]


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
    """Build the spec for one of the standard objective names."""
    if name not in _GATE_BY_NAME:
        raise InvalidArgumentError(
            f"unknown objective {name!r}; expected one of {OBJECTIVE_NAMES}"
        )
    gate = _GATE_BY_NAME[name]
    if tau_entropy is not None:
        gate = replace(gate, tau_entropy=float(tau_entropy))
    if tau_prob is not None:
        gate = replace(gate, tau_prob=float(tau_prob))
    kl = 0.5 if name == "sft_kl" else 0.0
    return ObjectiveSpec(
        gate=gate, kl_coefficient=kl, norm_mode=norm_mode, k=k, aggregation=aggregation
    )
