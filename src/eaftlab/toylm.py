"""Compact feedforward next-token model with hand-derived exact gradients.

The model embeds a fixed-length context, concatenates the embeddings, applies
one tanh hidden layer, and projects to vocabulary logits:

    logits = b2 + W2' tanh(b1 + W1' concat(E[ctx]))

Gradients are derived by hand (no autodiff), so every objective's parameter
gradient can be checked against finite differences. Training is
single-threaded and fully determined by its seed.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import objectives as obj
from . import probstats
from .errors import (
    InvalidArgumentError,
    InvalidInputError,
    NonFiniteLogitsError,
    TrainingDivergedError,
    check_ints,
    is_int,
    is_real,
)
from .fileio import atomic_write

if TYPE_CHECKING:
    from .landscape import RecordTable

CHECKPOINT_MAGIC = b"EAFTCKPT"
CHECKPOINT_VERSION = 1

PARAM_FIELDS = ("embedding", "hidden_weight", "hidden_bias", "out_weight", "out_bias")
OPTIMIZER_KINDS = ("sgd-momentum", "adam-lite")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 64
    context_len: int = 3
    embed_dim: int = 16
    hidden_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        check_ints(self, 2, "vocab_size")
        check_ints(self, 1, "context_len", "embed_dim", "hidden_dim")
        # stored as u64 in checkpoints; negatives would not round-trip
        if not (is_int(self.seed) and 0 <= self.seed < 2**64):
            raise InvalidArgumentError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@dataclass
class ToyModelParams:
    embedding: np.ndarray      # V x d
    hidden_weight: np.ndarray  # (n*d) x h
    hidden_bias: np.ndarray    # h
    out_weight: np.ndarray     # h x V
    out_bias: np.ndarray       # V

    def copy(self) -> "ToyModelParams":
        return ToyModelParams(**{f: getattr(self, f).copy() for f in PARAM_FIELDS})

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
    def from_sequences(cls, sequences, context_len: int) -> "Corpus":
        """Every window of ``context_len`` tokens and the token after it, from a
        list of token lists; a token that is not an int64 integer is rejected,
        naming ``sequences[n][j]``."""
        if not isinstance(sequences, list):
            raise InvalidArgumentError(f"sequences must be a list of token lists, got {sequences!r}")
        ctxs, tgts = [], []
        for n, s in enumerate(sequences):
            if not isinstance(s, list):
                raise InvalidArgumentError(f"sequences[{n}] must be a list of token ids, got {s!r}")
            for j, token in enumerate(s):
                if not (is_int(token) and -(2**63) <= token < 2**63):
                    raise InvalidArgumentError(f"sequences[{n}][{j}] must be an integer token id, got {token!r}")
            for i in range(len(s) - context_len):
                ctxs.append(s[i : i + context_len])
                tgts.append(s[i + context_len])
        if not ctxs:
            raise InvalidArgumentError("sequences yield no training positions")
        return cls(np.array(ctxs, dtype=np.int64), np.array(tgts, dtype=np.int64))


def check_optimizer(kind, learning_rate, kind_field: str, rate_field: str) -> None:
    """Reject an unknown optimizer kind or a learning rate that is not a
    positive finite number, naming the field."""
    if kind not in OPTIMIZER_KINDS:
        raise InvalidArgumentError(f"{kind_field} must be one of {list(OPTIMIZER_KINDS)}, got {kind!r}")
    if not (is_real(learning_rate) and 0 < learning_rate < np.inf):
        raise InvalidArgumentError(
            f"{rate_field} must be a positive finite number, got {learning_rate!r}"
        )


def check_corpus_ids(corpus: Corpus, vocab_size: int) -> None:
    """Reject a context or target token id outside [0, vocab_size), naming
    which array holds it and the first such id."""
    for name in ("contexts", "targets"):
        ids = getattr(corpus, name)
        bad = ids[(ids < 0) | (ids >= vocab_size)]
        if bad.size:
            raise InvalidArgumentError(
                f"corpus {name} holds token id {int(bad[0])} outside [0, {vocab_size})"
            )


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
    """Logits for a (B, n) batch; returns (logits, cache) for backprop.

    Token ids are not checked here: the public entry points (``forward``,
    ``evaluate``, ``train``, ``loss_and_grads``, ...) check a corpus once.
    """
    ctx = np.asarray(contexts, dtype=np.int64)
    _, n, d, _ = params.config_dims()
    if ctx.ndim != 2 or ctx.shape[1] != n:
        raise InvalidArgumentError(f"contexts must be (B, {n})")
    e = params.embedding[ctx].reshape(ctx.shape[0], n * d)
    a = np.tanh(e @ params.hidden_weight + params.hidden_bias)
    logits = a @ params.out_weight + params.out_bias
    if not np.all(np.isfinite(logits)):
        raise NonFiniteLogitsError("non-finite logits; parameters have diverged")
    return logits, (ctx, e, a)


# Rows per block of a whole-corpus pass (``row_blocks``). A block's
# temporaries stay a few hundred KB, so the allocator reuses them instead of
# mapping and faulting in multi-MB arrays on every pass; 256 measured fastest.
ROW_BLOCK = 256


def row_blocks(params: ToyModelParams, contexts: np.ndarray):
    """Yield ``(rows, logits)`` for consecutive blocks of at most ``ROW_BLOCK``
    rows of ``contexts``, ``rows`` being the block's slice.

    A one-row tail joins the block before it: a one-row product goes through
    gemv and rounds differently, while a block of two or more rows gives each
    row the bits of the whole-matrix product. A single-row input is one block.
    Token ids are not checked, as in ``forward_batch``.
    """
    n = len(contexts)
    starts = list(range(0, n, ROW_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [n]):
        logits, _ = forward_batch(params, contexts[start:stop])
        yield slice(start, stop), logits


def _param_shapes(v: int, n: int, d: int, h: int) -> dict[str, tuple]:
    """Shape of each parameter of a model with dimensions (V, n, d, h)."""
    return {
        "embedding": (v, d),
        "hidden_weight": (n * d, h),
        "hidden_bias": (h,),
        "out_weight": (h, v),
        "out_bias": (v,),
    }


@functools.lru_cache(maxsize=16)
def _flat_layout(dims: tuple[int, int, int, int]) -> tuple[int, tuple]:
    """Total size and ``(field, slice, shape)`` of each field, in field order."""
    layout, start = [], 0
    for name, shape in _param_shapes(*dims).items():
        size = int(np.prod(shape))
        layout.append((name, slice(start, start + size), shape))
        start += size
    return start, tuple(layout)


class Gradients(dict):
    """Parameter gradients by field, as views into one flat vector.

    ``flat`` holds the gradients in ``PARAM_FIELDS`` order and ``squared`` is
    its elementwise square, formed on first use and read by both the train
    log's grad norm and adam's second moment; it is not refreshed if the
    gradients are written to afterwards.
    """

    def __init__(self, flat: np.ndarray, dims: tuple[int, int, int, int]):
        self.layout = _flat_layout(dims)[1]
        super().__init__((name, flat[sl].reshape(shape)) for name, sl, shape in self.layout)
        self.flat = flat
        self.dims = dims
        self._squared = None

    def __setitem__(self, name, value):
        # a replaced field would leave ``flat`` stale; write into the view
        raise TypeError("Gradients fields are views into one flat vector; update them in place")

    @classmethod
    def empty(cls, params: ToyModelParams) -> "Gradients":
        dims = params.config_dims()
        return cls(np.empty(_flat_layout(dims)[0]), dims)

    @classmethod
    def of(cls, grads, params: ToyModelParams) -> "Gradients":
        """``grads`` itself if it is already flat, else a flat copy of it."""
        dims = params.config_dims()
        if isinstance(grads, cls) and grads.dims == dims:
            return grads
        for name, _, shape in _flat_layout(dims)[1]:
            if np.shape(grads[name]) != shape:
                raise InvalidArgumentError(f"gradient shape mismatch for {name}")
        flat = np.concatenate([np.ravel(grads[name]) for name in PARAM_FIELDS], dtype=np.float64)
        return cls(flat, dims)

    @property
    def squared(self) -> np.ndarray:
        if self._squared is None:
            self._squared = self.flat * self.flat
        return self._squared

    def norm(self) -> float:
        """sqrt of the per-field sums of squares, added in field order."""
        sq = self.squared
        return float(np.sqrt(sum(float(np.add.reduce(sq[sl])) for _, sl, _ in self.layout)))


def backprop_logits(params: ToyModelParams, cache, grad_logits: np.ndarray) -> Gradients:
    """Exact parameter gradients given d(loss)/d(logits) for a batch."""
    ctx, e, a = cache
    _, n, d, _ = params.config_dims()
    grads = Gradients.empty(params)
    grad_logits.sum(axis=0, out=grads["out_bias"])
    np.matmul(a.T, grad_logits, out=grads["out_weight"])
    gz = grad_logits @ params.out_weight.T
    gz *= 1.0 - a * a  # gz = ga * (1 - a * a)
    gz.sum(axis=0, out=grads["hidden_bias"])
    np.matmul(e.T, gz, out=grads["hidden_weight"])
    ge = (gz @ params.hidden_weight.T).reshape(ctx.shape[0], n, d)
    # one scatter-add over the flattened table: each entry receives the same
    # additions in the same order (context slot, then batch row) as one
    # np.add.at per slot, and the 1-D form is several times faster
    g_embedding = grads["embedding"].reshape(-1)
    g_embedding[:] = 0.0
    slots = (ctx.T[:, :, None] * d + np.arange(d)).ravel()
    np.add.at(g_embedding, slots, ge.transpose(1, 0, 2).ravel())
    return grads


def _step(
    params: ToyModelParams,
    objective: obj.ObjectiveSpec,
    contexts: np.ndarray,
    targets: np.ndarray,
    ref_params: ToyModelParams | None,
    position_weights: np.ndarray | None,
    step: int | None = None,
    backprop: bool = True,
    entropy: bool = True,
):
    """One batch through the model and the objective kernel.

    Runs the forward pass, the reference forward (only for a KL objective),
    the per-token kernel and, if ``backprop``, the exact parameter gradients
    of the aggregated loss. Returns ``(loss, grads, terms)``; ``grads`` is
    None without backprop, and ``terms.entropy_full`` None without
    ``entropy``. When ``step`` is given, non-finite logits of ``params``
    mean the run diverged at that step.
    """
    try:
        logits, cache = forward_batch(params, contexts)
    except NonFiniteLogitsError as exc:
        if step is None:
            raise
        raise TrainingDivergedError("non-finite logits", step) from exc
    ref_logits = None
    if objective.kl_coefficient > 0.0:
        ref_logits, _ = forward_batch(ref_params, contexts)
    terms = obj.token_terms(objective, logits, targets, ref_logits, position_weights, entropy)
    scale = 1.0 / len(targets) if objective.aggregation == obj.AGG_MEAN else 1.0
    grads = backprop_logits(params, cache, terms.grad * scale) if backprop else None
    return float(terms.losses.sum() * scale), grads, terms


def loss_and_grads(
    params: ToyModelParams,
    batch: Corpus,
    objective: obj.ObjectiveSpec,
    ref_params: ToyModelParams | None = None,
    position_weights: np.ndarray | None = None,
) -> tuple[float, dict, obj.TokenTerms]:
    """Batch loss, exact parameter gradients, and the per-token terms."""
    if len(batch) == 0:
        raise InvalidArgumentError("batch must be non-empty")
    if objective.kl_coefficient > 0.0 and ref_params is None:
        raise InvalidArgumentError("kl_coefficient > 0 requires ref_params")
    check_corpus_ids(batch, params.embedding.shape[0])
    return _step(params, objective, batch.contexts, batch.targets, ref_params, position_weights)


@dataclass
class OptimizerState:
    kind: str  # "sgd-momentum" | "adam-lite"
    learning_rate: float
    step_count: int = 0
    buffers: dict = field(default_factory=dict)

    def __post_init__(self):
        check_optimizer(self.kind, self.learning_rate, "kind", "learning_rate")


def apply_update(params: ToyModelParams, grads: dict, state: OptimizerState) -> None:
    """One deterministic optimizer step that overwrites ``params`` and ``state``.

    The optimizer runs once, elementwise, over the flat gradient vector with
    flat state buffers; each parameter then subtracts its slice of the step.
    Each in-place operation rounds exactly like the expression in its
    comment, so the result is bit-equal to the textbook form.
    """
    g = Gradients.of(grads, params)
    state.step_count += 1
    t = state.step_count
    lr = state.learning_rate
    buf = state.buffers
    if state.kind == "sgd-momentum":
        if "velocity" not in buf:
            buf["velocity"] = np.zeros_like(g.flat)
        v = buf["velocity"]
        v *= 0.9  # v = 0.9 * v + g
        v += g.flat
        step = lr * v  # p -= lr * v
    else:  # adam-lite
        if "m" not in buf:
            buf["m"], buf["v"] = np.zeros_like(g.flat), np.zeros_like(g.flat)
        m, v = buf["m"], buf["v"]
        m *= 0.9  # m = 0.9 * m + 0.1 * g
        m += 0.1 * g.flat
        v *= 0.999  # v = 0.999 * v + 0.001 * (g * g)
        v += 0.001 * g.squared
        step = m / (1.0 - 0.9**t)  # p -= lr * m_hat / (sqrt(v_hat) + 1e-8)
        step *= lr
        denom = v / (1.0 - 0.999**t)
        np.sqrt(denom, out=denom)
        denom += 1e-8
        step /= denom
    for name, sl, shape in g.layout:
        p = getattr(params, name)
        p -= step[sl].reshape(shape)


@dataclass(frozen=True)
class TrainLogEntry:
    """One optimizer step; a short entry (``TrainRun.log_stats`` false) keeps
    only ``step`` and ``mean_loss``, and every other field is None."""

    step: int
    mean_loss: float
    mean_gate: float | None = None
    high_entropy_ce: float | None = None
    high_entropy_count: int | None = None
    low_entropy_ce: float | None = None
    low_entropy_count: int | None = None
    grad_norm: float | None = None


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
    init: ToyModelParams | None = None
    ref_params: ToyModelParams | None = None
    position_weights: np.ndarray | None = None
    log_stats: bool = True          # False: short log entries (step, mean_loss)

    def __post_init__(self):
        check_ints(self, 0, "steps", "capture_every", "seed")
        check_ints(self, 1, "batch_size", "probe_size")


@dataclass
class TrainResult:
    params: ToyModelParams
    log: list[TrainLogEntry]
    captures: RecordTable  # in step order


def train(run: TrainRun) -> TrainResult:
    """Seeded single-threaded training; one log entry per optimizer step.

    Batches are sampled with replacement. Token records for landscape
    analysis are captured on a fixed probe subset every ``capture_every``
    steps (pre-update) plus once after the final step. The corpus token ids
    and the reference model are checked once, before the first step. With
    ``log_stats`` false the log keeps only each step's mean loss, and the
    step skips the full entropy, the subgroup CE, the mean gate and the
    grad norm; the parameters are bit-equal either way.
    """
    if len(run.corpus) == 0:
        raise InvalidArgumentError("corpus must be non-empty")
    if run.position_weights is not None and len(run.position_weights) != len(run.corpus):
        raise InvalidArgumentError("position_weights length must match corpus")
    if run.objective.kl_coefficient > 0.0 and run.ref_params is None:
        raise InvalidArgumentError("kl objective requires ref_params")
    params = run.init.copy() if run.init is not None else init_model(run.config)
    check_corpus_ids(run.corpus, params.embedding.shape[0])
    state = OptimizerState(kind=run.optimizer, learning_rate=run.learning_rate)
    rng = np.random.default_rng(run.seed)
    n = len(run.corpus)
    probe_idx = None
    if run.capture_every > 0:
        probe_idx = np.sort(rng.choice(n, size=min(run.probe_size, n), replace=False))
    log: list[TrainLogEntry] = []
    captures = []

    def capture(step: int) -> None:
        captures.append(_capture_records(run, params, probe_idx, step))

    try:
        # an overflow anywhere in a step means the parameters are diverging,
        # even while the logits are still finite
        with np.errstate(over="raise"):
            for step in range(run.steps):
                if run.capture_every > 0 and step % run.capture_every == 0:
                    capture(step)
                idx = rng.integers(0, n, size=run.batch_size)
                pw = None if run.position_weights is None else run.position_weights[idx]
                _, grads, terms = _step(
                    params, run.objective, run.corpus.contexts[idx], run.corpus.targets[idx],
                    run.ref_params, pw, step, entropy=run.log_stats,
                )
                log.append(_log_entry(run, step, terms, grads))
                apply_update(params, grads, state)
    except FloatingPointError as exc:
        raise TrainingDivergedError("floating-point overflow", step) from exc
    if run.capture_every > 0:
        capture(run.steps)
    from .landscape import RecordTable  # deferred: landscape imports toylm

    return TrainResult(params=params, log=log, captures=RecordTable.concat(captures))


def _log_entry(run: TrainRun, step: int, terms: obj.TokenTerms, grads: Gradients) -> TrainLogEntry:
    mean_loss = float(terms.losses.mean())
    if not run.log_stats:
        return TrainLogEntry(step=step, mean_loss=mean_loss)
    return TrainLogEntry(
        step=step,
        mean_loss=mean_loss,
        mean_gate=float(terms.weights.mean()),
        **probstats.subgroup_ce(
            terms.ce, terms.entropy_full, probstats.HIGH_ENTROPY_MIN, probstats.LOW_ENTROPY_MAX
        ),
        grad_norm=grads.norm(),
    )


def _capture_records(run: TrainRun, params: ToyModelParams, probe_idx, step: int):
    from .landscape import RecordTable  # deferred: landscape imports toylm

    targets = run.corpus.targets[probe_idx]
    pw = None if run.position_weights is None else run.position_weights[probe_idx]
    _, _, terms = _step(
        params, run.objective, run.corpus.contexts[probe_idx], targets,
        run.ref_params, pw, step, backprop=False,
    )
    k = min(run.objective.k, terms.probs.shape[1])
    entropy_topk = probstats.topk_entropy_rows(terms.probs, k)
    gates = terms.gates
    if gates is None:
        gates = probstats.gate_of_entropy(entropy_topk, k, run.objective.norm_mode)
    return RecordTable.of(
        source_id="probe",
        position=probe_idx,
        token_id=targets,
        p_target=terms.p_target,
        entropy_full=terms.entropy_full,
        entropy_topk=entropy_topk,
        gate=gates,
        weight=terms.weights,
        grad_norm=np.sqrt((terms.grad * terms.grad).sum(axis=1)),
        step=step,
    )


def evaluate(params: ToyModelParams, eval_set: Corpus) -> dict:
    """Mean NLL (nats) and top-1 accuracy (argmax ties -> lowest index)."""
    if len(eval_set) == 0:
        raise InvalidArgumentError("eval_set must be non-empty")
    check_corpus_ids(eval_set, params.embedding.shape[0])
    nll = np.empty(len(eval_set))
    correct = np.empty(len(eval_set), dtype=bool)
    for rows, logits in row_blocks(params, eval_set.contexts):
        targets = eval_set.targets[rows]
        logp = probstats.log_softmax_rows(logits)
        nll[rows] = -logp[np.arange(len(targets)), targets]
        correct[rows] = logits.argmax(axis=1) == targets
    return {"mean_nll": float(nll.mean()), "top1_accuracy": float(correct.mean())}


# ---------------------------------------------------------------------------
# Checkpoint I/O: flat little-endian binary layout. Header is the magic,
# a u32 version, the four model dimensions as u32, and the seed as u64;
# parameter tensors follow as float64 in declaration order. Round-trips
# are bit-exact.
# ---------------------------------------------------------------------------


def save_checkpoint(path, config: ModelConfig, params: ToyModelParams) -> None:
    with atomic_write(path, "wb") as fh:
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
        tensors = {}
        for name, shape in _param_shapes(v, n, d, h).items():
            count = int(np.prod(shape))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise InvalidInputError(f"checkpoint truncated in {name}")
            tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        trailing = fh.read(1)
        if trailing:
            raise InvalidInputError("trailing bytes after checkpoint payload")
    return config, ToyModelParams(**tensors)
