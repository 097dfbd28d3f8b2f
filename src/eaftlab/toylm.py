"""Compact feedforward next-token model with hand-derived exact gradients.

The model embeds a fixed-length context, concatenates the embeddings, applies
one tanh hidden layer, and projects to vocabulary logits:

    logits = b2 + W2' tanh(b1 + W1' concat(E[ctx]))

Gradients are derived by hand (no autodiff), so every objective's parameter
gradient can be checked against finite differences. Training is
single-threaded and fully determined by its seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import objectives as obj
from . import probstats
from .errors import (
    InvalidArgumentError,
    InvalidInputError,
    NonFiniteLogitsError,
    TrainingDivergedError,
)

CHECKPOINT_MAGIC = b"EAFTCKPT"
CHECKPOINT_VERSION = 1

PARAM_FIELDS = ("embedding", "hidden_weight", "hidden_bias", "out_weight", "out_bias")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 64
    context_len: int = 3
    embed_dim: int = 16
    hidden_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 2:
            raise InvalidArgumentError("vocab_size must be >= 2")
        for name in ("context_len", "embed_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(f"{name} must be >= 1")
        # stored as u64 in checkpoints; negatives would not round-trip
        if not 0 <= self.seed < 2**64:
            raise InvalidArgumentError("seed must be an unsigned 64-bit integer")


@dataclass
class ToyModelParams:
    embedding: np.ndarray      # V x d
    hidden_weight: np.ndarray  # (n*d) x h
    hidden_bias: np.ndarray    # h
    out_weight: np.ndarray     # h x V
    out_bias: np.ndarray       # V

    def copy(self) -> "ToyModelParams":
        return ToyModelParams(**{f: getattr(self, f).copy() for f in PARAM_FIELDS})

    def as_dict(self) -> dict[str, np.ndarray]:
        return {f: getattr(self, f) for f in PARAM_FIELDS}

    def config_dims(self) -> tuple[int, int, int, int]:
        v, d = self.embedding.shape
        nd, h = self.hidden_weight.shape
        return v, nd // d, d, h


@dataclass(frozen=True)
class Corpus:
    """Next-token training positions: fixed-length contexts and their targets."""

    contexts: np.ndarray  # N x n, int64
    targets: np.ndarray   # N, int64

    def __post_init__(self):
        c = np.asarray(self.contexts, dtype=np.int64)
        t = np.asarray(self.targets, dtype=np.int64)
        if c.ndim != 2 or t.ndim != 1 or c.shape[0] != t.shape[0]:
            raise InvalidArgumentError("contexts must be (N, n) with N targets")
        object.__setattr__(self, "contexts", c)
        object.__setattr__(self, "targets", t)

    def __len__(self) -> int:
        return int(self.targets.shape[0])

    @classmethod
    def from_pairs(cls, pairs) -> "Corpus":
        ctxs = np.array([list(c) for c, _ in pairs], dtype=np.int64)
        tgts = np.array([t for _, t in pairs], dtype=np.int64)
        return cls(ctxs, tgts)

    @classmethod
    def from_sequences(cls, sequences, context_len: int) -> "Corpus":
        ctxs, tgts = [], []
        for seq in sequences:
            s = list(seq)
            for i in range(len(s) - context_len):
                ctxs.append(s[i : i + context_len])
                tgts.append(s[i + context_len])
        if not ctxs:
            raise InvalidArgumentError("sequences yield no training positions")
        return cls(np.array(ctxs, dtype=np.int64), np.array(tgts, dtype=np.int64))


def init_model(config: ModelConfig) -> ToyModelParams:
    """Seeded uniform(-s, s) init with s = 1/sqrt(fan_in) per layer."""
    rng = np.random.default_rng(config.seed)
    v, n, d, h = config.vocab_size, config.context_len, config.embed_dim, config.hidden_dim

    def u(shape, fan_in):
        s = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-s, s, size=shape)

    return ToyModelParams(
        embedding=u((v, d), d),
        hidden_weight=u((n * d, h), n * d),
        hidden_bias=u((h,), n * d),
        out_weight=u((h, v), h),
        out_bias=u((v,), h),
    )


def forward(params: ToyModelParams, context) -> np.ndarray:
    """Logits over the vocabulary for one context of token ids."""
    ctx = np.asarray(context, dtype=np.int64)
    v, n, d, _ = params.config_dims()
    if ctx.shape != (n,):
        raise InvalidArgumentError(f"context must have length {n}")
    if np.any(ctx < 0) or np.any(ctx >= v):
        raise InvalidArgumentError("context token id out of range")
    return forward_batch(params, ctx[None, :])[0][0]


def forward_batch(params: ToyModelParams, contexts: np.ndarray):
    """Logits for a (B, n) batch; returns (logits, cache) for backprop."""
    ctx = np.asarray(contexts, dtype=np.int64)
    v, n, d, _ = params.config_dims()
    if ctx.ndim != 2 or ctx.shape[1] != n:
        raise InvalidArgumentError(f"contexts must be (B, {n})")
    if np.any(ctx < 0) or np.any(ctx >= v):
        raise InvalidArgumentError("context token id out of range")
    e = params.embedding[ctx].reshape(ctx.shape[0], n * d)
    a = np.tanh(e @ params.hidden_weight + params.hidden_bias)
    logits = a @ params.out_weight + params.out_bias
    if not np.all(np.isfinite(logits)):
        raise NonFiniteLogitsError("non-finite logits; parameters have diverged")
    return logits, (ctx, e, a)


def backprop_logits(params: ToyModelParams, cache, grad_logits: np.ndarray) -> dict:
    """Exact parameter gradients given d(loss)/d(logits) for a batch."""
    ctx, e, a = cache
    _, n, d, _ = params.config_dims()
    g_out_bias = grad_logits.sum(axis=0)
    g_out_weight = a.T @ grad_logits
    ga = grad_logits @ params.out_weight.T
    gz = ga * (1.0 - a * a)
    g_hidden_bias = gz.sum(axis=0)
    g_hidden_weight = e.T @ gz
    ge = (gz @ params.hidden_weight.T).reshape(ctx.shape[0], n, d)
    # one scatter-add over the flattened table: each entry receives the same
    # additions in the same order (context slot, then batch row) as one
    # np.add.at per slot, and the 1-D form is several times faster
    g_embedding = np.zeros(params.embedding.size)
    slots = (ctx.T[:, :, None] * d + np.arange(d)).ravel()
    np.add.at(g_embedding, slots, ge.transpose(1, 0, 2).ravel())
    return {
        "embedding": g_embedding.reshape(params.embedding.shape),
        "hidden_weight": g_hidden_weight,
        "hidden_bias": g_hidden_bias,
        "out_weight": g_out_weight,
        "out_bias": g_out_bias,
    }


class _TokenTerms(NamedTuple):
    """Per-token quantities of one batch under one objective."""

    losses: np.ndarray
    weights: np.ndarray
    ce: np.ndarray
    probs: np.ndarray             # (B, V) softmax of the logits
    p_target: np.ndarray
    gates: np.ndarray | None      # None when the gate kind does not read it
    entropy_full: np.ndarray
    grad: np.ndarray              # (B, V) d(loss)/d(logits), unscaled


def _batch_token_terms(
    spec: obj.ObjectiveSpec,
    logits: np.ndarray,
    targets: np.ndarray,
    ref_logits: np.ndarray | None,
    position_weights: np.ndarray | None,
) -> _TokenTerms:
    """Per-token losses, weights, stats, and d(loss)/d(logits) rows.

    The gate weight is evaluated on the live distribution and detached;
    ``position_weights`` (sample weights in [0, 1]) multiply the gate.
    """
    B = logits.shape[0]
    # one pass for both: bit-equal to softmax_rows and log_softmax_rows
    shifted = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(shifted)
    total = p.sum(axis=-1, keepdims=True)
    logp = shifted - np.log(total)
    p /= total
    idx = np.arange(B)
    p_t = p[idx, targets]
    k = min(spec.k, p.shape[1])
    if spec.gate.kind in obj.GATE_FREE_KINDS:
        probstats.check_gate_norm(k, spec.norm_mode)
        gates = None
    else:
        gates = probstats.gate_rows(p, k, spec.norm_mode)
    ent_full = probstats.entropy_rows(p)
    w = obj.eval_gate_rows(spec.gate, gates, p_t)
    if position_weights is not None:
        w = w * position_weights
    ce = -logp[idx, targets]
    losses = w * ce
    grad = p.copy()
    grad[idx, targets] -= 1.0
    grad *= w[:, None]
    if spec.kl_coefficient > 0.0:
        if ref_logits is None:
            raise InvalidArgumentError("kl_coefficient > 0 requires reference logits")
        logq = probstats.log_softmax_rows(ref_logits)
        with np.errstate(invalid="ignore"):
            kl_terms = np.where(p > 0.0, p * (logp - logq), 0.0)
        kl = kl_terms.sum(axis=1)
        losses = losses + spec.kl_coefficient * kl
        grad = grad + spec.kl_coefficient * (p * (logp - logq - kl[:, None]))
    return _TokenTerms(losses, w, ce, p, p_t, gates, ent_full, grad)


def loss_and_grads(
    params: ToyModelParams,
    batch: Corpus,
    objective: obj.ObjectiveSpec,
    ref_params: ToyModelParams | None = None,
    position_weights: np.ndarray | None = None,
):
    """Batch loss, exact parameter gradients, and per-token loss results."""
    if len(batch) == 0:
        raise InvalidArgumentError("batch must be non-empty")
    if objective.kl_coefficient > 0.0 and ref_params is None:
        raise InvalidArgumentError("kl_coefficient > 0 requires ref_params")
    logits, cache = forward_batch(params, batch.contexts)
    ref_logits = None
    if ref_params is not None:
        ref_logits, _ = forward_batch(ref_params, batch.contexts)
    terms = _batch_token_terms(objective, logits, batch.targets, ref_logits, position_weights)
    losses, w, prob_rows, grad_rows = terms.losses, terms.weights, terms.probs, terms.grad
    scale = 1.0 / len(batch) if objective.aggregation == obj.AGG_MEAN else 1.0
    grads = backprop_logits(params, cache, grad_rows * scale)
    loss = float(losses.sum() * scale)
    per_token = []
    for i in range(len(batch)):
        dist = probstats.describe_distribution(
            probstats.ProbVector.from_array(prob_rows[i]),
            int(batch.targets[i]),
            min(objective.k, prob_rows.shape[1]),
            objective.norm_mode,
        )
        g = grad_rows[i]
        per_token.append(
            obj.TokenLossResult(
                loss=float(losses[i]),
                weight=float(w[i]),
                grad_logits=g,
                grad_norm=float(np.sqrt((g * g).sum())),
                stats=dist,
            )
        )
    return loss, grads, per_token


@dataclass
class OptimizerState:
    kind: str  # "sgd-momentum" | "adam-lite"
    learning_rate: float
    step_count: int = 0
    buffers: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("sgd-momentum", "adam-lite"):
            raise InvalidArgumentError(f"unknown optimizer kind {self.kind!r}")
        if not self.learning_rate > 0:
            raise InvalidArgumentError("learning_rate must be positive")


def apply_update_inplace(params: ToyModelParams, grads: dict, state: OptimizerState) -> None:
    """One deterministic optimizer step that overwrites ``params`` and ``state``.

    Each in-place operation rounds exactly like the expression in its comment,
    so the result is bit-equal to the textbook form.
    """
    for name in PARAM_FIELDS:
        if grads[name].shape != getattr(params, name).shape:
            raise InvalidArgumentError(f"gradient shape mismatch for {name}")
    state.step_count += 1
    t = state.step_count
    lr = state.learning_rate
    for name in PARAM_FIELDS:
        g = grads[name]
        p = getattr(params, name)
        buf = state.buffers.setdefault(name, {})
        if state.kind == "sgd-momentum":
            if "velocity" not in buf:
                buf["velocity"] = np.zeros_like(p)
            v = buf["velocity"]
            v *= 0.9  # v = 0.9 * v + g
            v += g
            p -= lr * v
        else:  # adam-lite
            if "m" not in buf:
                buf["m"], buf["v"] = np.zeros_like(p), np.zeros_like(p)
            m, v = buf["m"], buf["v"]
            m *= 0.9  # m = 0.9 * m + 0.1 * g
            m += 0.1 * g
            v *= 0.999  # v = 0.999 * v + 0.001 * (g * g)
            v += 0.001 * (g * g)
            step = m / (1.0 - 0.9**t)  # p -= lr * m_hat / (sqrt(v_hat) + 1e-8)
            step *= lr
            denom = v / (1.0 - 0.999**t)
            np.sqrt(denom, out=denom)
            denom += 1e-8
            step /= denom
            p -= step


def apply_update(
    params: ToyModelParams, grads: dict, state: OptimizerState
) -> tuple[ToyModelParams, OptimizerState]:
    """One deterministic optimizer step; returns fresh params and state."""
    new_params = params.copy()
    new_state = OptimizerState(
        kind=state.kind,
        learning_rate=state.learning_rate,
        step_count=state.step_count,
        buffers={k: {n: b.copy() for n, b in v.items()} for k, v in state.buffers.items()},
    )
    apply_update_inplace(new_params, grads, new_state)
    return new_params, new_state


@dataclass(frozen=True)
class TrainLogEntry:
    step: int
    mean_loss: float
    mean_gate: float
    high_entropy_ce: float | None
    high_entropy_count: int
    low_entropy_ce: float | None
    low_entropy_count: int
    grad_norm: float


@dataclass(frozen=True)
class TrainRun:
    """Everything a training run depends on; two identical runs are bit-equal."""

    config: ModelConfig
    corpus: Corpus
    objective: obj.ObjectiveSpec
    optimizer: str = "adam-lite"
    learning_rate: float = 3e-3
    steps: int = 500
    batch_size: int = 64
    capture_every: int = 0          # 0 disables token-record capture
    seed: int = 0
    probe_size: int = 512
    high_entropy_min: float = 2.0   # subgroup CE thresholds for the train log
    low_entropy_max: float = 0.5
    init: ToyModelParams | None = None
    ref_params: ToyModelParams | None = None
    position_weights: np.ndarray | None = None


@dataclass
class TrainResult:
    params: ToyModelParams
    log: list[TrainLogEntry]
    captures: list  # landscape.TokenRecord, grouped in step order


def train(run: TrainRun) -> TrainResult:
    """Seeded single-threaded training; one log entry per optimizer step.

    Batches are sampled with replacement. Token records for landscape
    analysis are captured on a fixed probe subset every ``capture_every``
    steps (pre-update) plus once after the final step.
    """
    if len(run.corpus) == 0:
        raise InvalidArgumentError("corpus must be non-empty")
    if run.position_weights is not None and len(run.position_weights) != len(run.corpus):
        raise InvalidArgumentError("position_weights length must match corpus")
    params = run.init.copy() if run.init is not None else init_model(run.config)
    state = OptimizerState(kind=run.optimizer, learning_rate=run.learning_rate)
    rng = np.random.default_rng(run.seed)
    n = len(run.corpus)
    probe_idx = None
    if run.capture_every > 0:
        probe_idx = np.sort(rng.choice(n, size=min(run.probe_size, n), replace=False))
    log: list[TrainLogEntry] = []
    captures: list = []

    def capture(step: int) -> None:
        captures.extend(_capture_records(run, params, probe_idx, step))

    for step in range(run.steps):
        if run.capture_every > 0 and step % run.capture_every == 0:
            capture(step)
        idx = rng.integers(0, n, size=run.batch_size)
        contexts = run.corpus.contexts[idx]
        targets = run.corpus.targets[idx]
        logits, cache = _forward_live(params, contexts, step)
        ref_logits = None
        if run.objective.kl_coefficient > 0.0:
            if run.ref_params is None:
                raise InvalidArgumentError("kl objective requires ref_params")
            ref_logits, _ = forward_batch(run.ref_params, contexts)
        pw = None if run.position_weights is None else run.position_weights[idx]
        terms = _batch_token_terms(run.objective, logits, targets, ref_logits, pw)
        scale = 1.0 / run.batch_size if run.objective.aggregation == obj.AGG_MEAN else 1.0
        grads = backprop_logits(params, cache, terms.grad * scale)
        gnorm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
        ce = terms.ce
        hi = terms.entropy_full >= run.high_entropy_min
        lo = terms.entropy_full <= run.low_entropy_max
        log.append(
            TrainLogEntry(
                step=step,
                mean_loss=float(terms.losses.mean()),
                mean_gate=float(terms.weights.mean()),
                high_entropy_ce=float(ce[hi].mean()) if hi.any() else None,
                high_entropy_count=int(hi.sum()),
                low_entropy_ce=float(ce[lo].mean()) if lo.any() else None,
                low_entropy_count=int(lo.sum()),
                grad_norm=gnorm,
            )
        )
        apply_update_inplace(params, grads, state)
    if run.capture_every > 0:
        capture(run.steps)
    return TrainResult(params=params, log=log, captures=captures)


def _forward_live(params: ToyModelParams, contexts: np.ndarray, step: int):
    """``forward_batch`` on the parameters being trained, where non-finite
    logits mean the run has diverged, not that its input was bad."""
    try:
        return forward_batch(params, contexts)
    except NonFiniteLogitsError as exc:
        raise TrainingDivergedError("non-finite logits", step) from exc


def _capture_records(run: TrainRun, params: ToyModelParams, probe_idx, step: int):
    from .landscape import TokenRecord  # deferred: landscape imports toylm

    contexts = run.corpus.contexts[probe_idx]
    targets = run.corpus.targets[probe_idx]
    logits, _ = _forward_live(params, contexts, step)
    ref_logits = None
    if run.objective.kl_coefficient > 0.0 and run.ref_params is not None:
        ref_logits, _ = forward_batch(run.ref_params, contexts)
    pw = None if run.position_weights is None else run.position_weights[probe_idx]
    terms = _batch_token_terms(run.objective, logits, targets, ref_logits, pw)
    k = min(run.objective.k, terms.probs.shape[1])
    ent_topk = probstats.topk_entropy_rows(terms.probs, k)
    gates = terms.gates
    if gates is None:
        gates = probstats.gate_rows(terms.probs, k, run.objective.norm_mode)
    p_t, ent_full, w = terms.p_target, terms.entropy_full, terms.weights
    grad_norms = np.sqrt((terms.grad * terms.grad).sum(axis=1))
    out = []
    for i, pos in enumerate(probe_idx):
        out.append(
            TokenRecord(
                source_id="probe",
                position=int(pos),
                token_id=int(targets[i]),
                p_target=float(p_t[i]),
                entropy_full=float(ent_full[i]),
                entropy_topk=float(ent_topk[i]),
                gate=float(gates[i]),
                weight=float(w[i]),
                grad_norm=float(grad_norms[i]),
                step=int(step),
            )
        )
    return out


def evaluate(params: ToyModelParams, eval_set: Corpus) -> dict:
    """Mean NLL (nats) and top-1 accuracy (argmax ties -> lowest index)."""
    if len(eval_set) == 0:
        raise InvalidArgumentError("eval_set must be non-empty")
    logits, _ = forward_batch(params, eval_set.contexts)
    logp = probstats.log_softmax_rows(logits)
    idx = np.arange(len(eval_set))
    nll = -logp[idx, eval_set.targets]
    acc = (logits.argmax(axis=1) == eval_set.targets).mean()
    return {"mean_nll": float(nll.mean()), "top1_accuracy": float(acc)}


# ---------------------------------------------------------------------------
# Checkpoint I/O: flat little-endian binary layout. Header is the magic,
# a u32 version, the four model dimensions as u32, and the seed as u64;
# parameter tensors follow as float64 in declaration order. Round-trips
# are bit-exact.
# ---------------------------------------------------------------------------


def save_checkpoint(path, config: ModelConfig, params: ToyModelParams) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(
            struct.pack(
                "<IIII",
                config.vocab_size,
                config.context_len,
                config.embed_dim,
                config.hidden_dim,
            )
        )
        fh.write(struct.pack("<Q", config.seed & 0xFFFFFFFFFFFFFFFF))
        for name in PARAM_FIELDS:
            arr = np.ascontiguousarray(getattr(params, name), dtype="<f8")
            fh.write(arr.tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, ToyModelParams]:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise InvalidInputError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != CHECKPOINT_VERSION:
            raise InvalidInputError(f"unsupported checkpoint version {version}")
        v, n, d, h = struct.unpack("<IIII", fh.read(16))
        (seed,) = struct.unpack("<Q", fh.read(8))
        config = ModelConfig(
            vocab_size=v, context_len=n, embed_dim=d, hidden_dim=h, seed=seed
        )
        shapes = {
            "embedding": (v, d),
            "hidden_weight": (n * d, h),
            "hidden_bias": (h,),
            "out_weight": (h, v),
            "out_bias": (v,),
        }
        tensors = {}
        for name in PARAM_FIELDS:
            shape = shapes[name]
            count = int(np.prod(shape))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise InvalidInputError(f"checkpoint truncated in {name}")
            tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        trailing = fh.read(1)
        if trailing:
            raise InvalidInputError("trailing bytes after checkpoint payload")
    return config, ToyModelParams(**tensors)
