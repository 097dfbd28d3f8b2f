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
import math
import os
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
_HEADER_BYTES = 36  # magic, then u32 version, V, n, d, h and u64 seed

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


class ToyModelParams:
    """The model's parameters as one flat float64 vector, ``flat``, in
    ``PARAM_FIELDS`` order; each field is a reshaped view of it, and
    assigning to a field writes into that view. Gradients, optimizer steps
    and checkpoint payloads share this layout.

    ``dims`` is (V, n, d, h): the field shapes are V x d, (n*d) x h, h,
    h x V and V.
    """

    def __init__(self, embedding, hidden_weight, hidden_bias, out_weight, out_bias):
        """Copy the five arrays into a new flat vector; a field whose shape
        disagrees with the others is rejected, naming it."""
        arrays = (embedding, hidden_weight, hidden_bias, out_weight, out_bias)
        if np.ndim(embedding) != 2 or np.ndim(hidden_weight) != 2:
            raise InvalidArgumentError("embedding and hidden_weight must be matrices")
        (v, d), (nd, h) = np.shape(embedding), np.shape(hidden_weight)
        dims = (v, nd // d, d, h)
        size, layout = _layout(dims)
        flat = np.empty(size)
        for (name, sl, shape), array in zip(layout, arrays):
            if np.shape(array) != shape:
                raise InvalidArgumentError(f"{name} has shape {np.shape(array)}, the other fields give {shape}")
            flat[sl] = np.ravel(array)
        self._bind(flat, dims)

    @classmethod
    def from_flat(cls, flat: np.ndarray, dims: tuple[int, int, int, int]) -> "ToyModelParams":
        """Parameters whose fields are views of ``flat`` itself, not a copy."""
        params = cls.__new__(cls)
        params._bind(flat, dims)
        return params

    def _bind(self, flat, dims) -> None:
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "dims", dims)
        for name, sl, shape in _layout(dims)[1]:
            object.__setattr__(self, name, flat[sl].reshape(shape))

    def __setattr__(self, name, value):
        # a field stays a view of ``flat``: write into it, never rebind it
        target = getattr(self, name)
        if value is not target:  # ``p.out_weight *= c`` has already written in place
            target[...] = value

    def __reduce__(self):
        # pickle the vector once; the fields are rebuilt as views of it
        return ToyModelParams.from_flat, (self.flat, self.dims)

    def copy(self) -> "ToyModelParams":
        return ToyModelParams.from_flat(self.flat.copy(), self.dims)

    def norm(self) -> float:
        """sqrt of the per-field sums of squares, added in field order."""
        sq = self.flat * self.flat
        return float(np.sqrt(sum(float(np.add.reduce(sq[sl])) for _, sl, _ in _layout(self.dims)[1])))


@functools.lru_cache(maxsize=16)
def _layout(dims: tuple[int, int, int, int]) -> tuple[int, tuple]:
    """Total size and ``(field, slice, shape)`` of each field, in field
    order, of a model with dimensions (V, n, d, h); ``math.prod`` keeps the
    sizes of an oversized checkpoint header exact."""
    v, n, d, h = dims
    shapes = ((v, d), (n * d, h), (h,), (h, v), (v,))
    layout, start = [], 0
    for name, shape in zip(PARAM_FIELDS, shapes):
        size = math.prod(shape)
        layout.append((name, slice(start, start + size), shape))
        start += size
    return start, tuple(layout)


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

    @functools.cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(contexts, row, order)``, read-only: each distinct context once,
        in ascending order; the row of each position's context among them;
        and the positions sorted by that row, in corpus order within a row.
        Found on first use, so the corpus's contexts must not be written to
        afterwards."""
        # lexsort's last key is its primary one, and the sort is stable
        order = np.lexsort(self.contexts.T[::-1])
        in_order = self.contexts[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (in_order[1:] != in_order[:-1]).any(axis=1)
        row = np.empty(len(order), dtype=np.int64)
        row[order] = np.cumsum(first) - 1
        found = in_order[first], row, order
        for array in found:
            array.flags.writeable = False
        return found

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


def forward_batch(params: ToyModelParams, contexts: np.ndarray):
    """Logits for a (B, n) batch; returns (logits, cache) for backprop.

    Token ids are not checked here: the public entry points (``evaluate``,
    ``train``, ``loss_and_grads``, ...) check a corpus once.
    """
    ctx = np.asarray(contexts, dtype=np.int64)
    _, n, d, _ = params.dims
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


def distinct_blocks(params: ToyModelParams, corpus: Corpus):
    """Yield ``(positions, rows, logits)`` for the ``row_blocks`` of the
    corpus's distinct contexts: the positions whose context lies in the
    block, and the row of each one's context in ``logits``.

    Each position gets the logits of its context as a whole-corpus product
    would give them, because a row's result in a product of two or more
    rows does not depend on the other rows. So two or more positions that
    share one context still score it in a two-row product, never in a
    one-row gemv. Token ids are not checked, as in ``forward_batch``.
    """
    contexts, row, order = corpus.distinct
    if len(contexts) == 1 < len(corpus):
        contexts = np.repeat(contexts, 2, axis=0)
    sorted_rows = row[order]
    for rows, logits in row_blocks(params, contexts):
        lo, hi = np.searchsorted(sorted_rows, (rows.start, rows.stop))
        yield order[lo:hi], sorted_rows[lo:hi] - rows.start, logits


def backprop_logits(params: ToyModelParams, cache, grad_logits: np.ndarray, grads: ToyModelParams) -> None:
    """Write the exact parameter gradients, given d(loss)/d(logits) for a
    batch, into ``grads``, overwriting every entry."""
    ctx, e, a = cache
    _, n, d, _ = params.dims
    grad_logits.sum(axis=0, out=grads.out_bias)
    np.matmul(a.T, grad_logits, out=grads.out_weight)
    gz = grad_logits @ params.out_weight.T
    gz *= 1.0 - a * a  # gz = ga * (1 - a * a)
    gz.sum(axis=0, out=grads.hidden_bias)
    np.matmul(e.T, gz, out=grads.hidden_weight)
    ge = (gz @ params.hidden_weight.T).reshape(ctx.shape[0], n, d)
    # one scatter over the flattened table: bincount adds each entry's
    # weights from 0.0 in input order (context slot, then batch row), as one
    # np.add.at per slot into a zeroed table would
    slots = (ctx.T[:, :, None] * d + np.arange(d)).ravel()
    weights = ge.transpose(1, 0, 2).ravel()
    grads.embedding.reshape(-1)[:] = np.bincount(slots, weights, minlength=grads.embedding.size)


def _step_terms(
    params: ToyModelParams,
    objective: obj.ObjectiveSpec,
    contexts: np.ndarray,
    targets: np.ndarray,
    ref_params: ToyModelParams | None,
    position_weights: np.ndarray | None,
    step: int | None = None,
):
    """``(cache, terms)`` of one batch: the forward pass, the reference
    forward (only for a KL objective) and the per-token kernel. When ``step``
    is given, non-finite logits of ``params`` mean the run diverged there."""
    try:
        logits, cache = forward_batch(params, contexts)
    except NonFiniteLogitsError as exc:
        if step is None:
            raise
        raise TrainingDivergedError("non-finite logits", step) from exc
    ref_logits = None
    if objective.kl_coefficient > 0.0:
        ref_logits, _ = forward_batch(ref_params, contexts)
    return cache, obj.token_terms(objective, logits, targets, ref_logits, position_weights)


def _step_grads(params: ToyModelParams, objective: obj.ObjectiveSpec, cache, terms, grads: ToyModelParams) -> float:
    """Write the gradients of the batch's aggregated loss into ``grads``; return that loss."""
    scale = 1.0 / len(terms.ce) if objective.aggregation == obj.AGG_MEAN else 1.0
    backprop_logits(params, cache, terms.grad * scale, grads)
    return float(terms.losses.sum() * scale)


def loss_and_grads(
    params: ToyModelParams,
    batch: Corpus,
    objective: obj.ObjectiveSpec,
    ref_params: ToyModelParams | None = None,
    position_weights: np.ndarray | None = None,
) -> tuple[float, ToyModelParams, obj.TokenTerms]:
    """Batch loss, exact parameter gradients, and the per-token terms."""
    if len(batch) == 0:
        raise InvalidArgumentError("batch must be non-empty")
    if objective.kl_coefficient > 0.0 and ref_params is None:
        raise InvalidArgumentError("kl_coefficient > 0 requires ref_params")
    check_corpus_ids(batch, params.embedding.shape[0])
    cache, terms = _step_terms(params, objective, batch.contexts, batch.targets, ref_params, position_weights)
    grads = ToyModelParams.from_flat(np.empty_like(params.flat), params.dims)
    return _step_grads(params, objective, cache, terms, grads), grads, terms


@dataclass
class OptimizerState:
    kind: str  # "sgd-momentum" | "adam-lite"
    learning_rate: float
    step_count: int = 0
    buffers: dict = field(default_factory=dict)

    def __post_init__(self):
        check_optimizer(self.kind, self.learning_rate, "kind", "learning_rate")


def apply_update(params: ToyModelParams, grads: ToyModelParams, state: OptimizerState) -> None:
    """One deterministic optimizer step that overwrites ``params`` and ``state``.

    The optimizer runs once, elementwise, over the flat gradient vector with
    flat state buffers, and the flat parameters subtract the step. Each
    in-place operation rounds exactly like the expression in its comment,
    so the result is bit-equal to the textbook form.
    """
    if grads.dims != params.dims:
        raise InvalidArgumentError(f"gradient dims {grads.dims} differ from the model's {params.dims}")
    g = grads.flat
    state.step_count += 1
    t = state.step_count
    lr = state.learning_rate
    buf = state.buffers
    if state.kind == "sgd-momentum":
        if "velocity" not in buf:
            buf["velocity"] = np.zeros_like(g)
        v = buf["velocity"]
        v *= 0.9  # v = 0.9 * v + g
        v += g
        step = lr * v  # p -= lr * v
    else:  # adam-lite
        if "m" not in buf:
            buf["m"], buf["v"] = np.zeros_like(g), np.zeros_like(g)
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
    params.flat -= step


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
    grads = ToyModelParams.from_flat(np.empty_like(params.flat), params.dims)  # overwritten by each step
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
                cache, terms = _step_terms(
                    params, run.objective, run.corpus.contexts[idx], run.corpus.targets[idx], run.ref_params, pw, step
                )
                _step_grads(params, run.objective, cache, terms, grads)
                log.append(_log_entry(run, step, terms, grads))
                apply_update(params, grads, state)
    except FloatingPointError as exc:
        raise TrainingDivergedError("floating-point overflow", step) from exc
    if run.capture_every > 0:
        capture(run.steps)
    from .landscape import RecordTable  # deferred: landscape imports toylm

    return TrainResult(params=params, log=log, captures=RecordTable.concat(captures))


def _log_entry(run: TrainRun, step: int, terms: obj.TokenTerms, grads: ToyModelParams) -> TrainLogEntry:
    mean_loss = float(terms.losses.mean())
    if not run.log_stats:
        return TrainLogEntry(step=step, mean_loss=mean_loss)
    return TrainLogEntry(
        step=step,
        mean_loss=mean_loss,
        mean_gate=float(terms.weights.mean()),
        **probstats.subgroup_ce(
            terms.ce, probstats.entropy_rows(terms.probs), probstats.HIGH_ENTROPY_MIN, probstats.LOW_ENTROPY_MAX
        ),
        grad_norm=grads.norm(),
    )


def _capture_records(run: TrainRun, params: ToyModelParams, probe_idx, step: int):
    from .landscape import RecordTable  # deferred: landscape imports toylm

    targets = run.corpus.targets[probe_idx]
    pw = None if run.position_weights is None else run.position_weights[probe_idx]
    _, terms = _step_terms(params, run.objective, run.corpus.contexts[probe_idx], targets, run.ref_params, pw, step)
    k = min(run.objective.k, terms.probs.shape[1])
    entropy_topk = probstats.topk_entropy_rows(terms.probs, k)
    return RecordTable.of(
        source_id="probe",
        position=probe_idx,
        token_id=targets,
        p_target=terms.p_target,
        entropy_full=probstats.entropy_rows(terms.probs),
        entropy_topk=entropy_topk,
        gate=probstats.gate_of_entropy(entropy_topk, k, run.objective.norm_mode),
        weight=terms.weights,
        grad_norm=np.sqrt((terms.grad * terms.grad).sum(axis=1)),
        step=step,
    )


def evaluate(params: ToyModelParams, eval_set: Corpus) -> dict:
    """Mean NLL (nats) and top-1 accuracy (argmax ties -> lowest index); the
    model runs once per distinct context (``distinct_blocks``)."""
    if len(eval_set) == 0:
        raise InvalidArgumentError("eval_set must be non-empty")
    check_corpus_ids(eval_set, params.embedding.shape[0])
    nll = np.empty(len(eval_set))
    correct = np.empty(len(eval_set), dtype=bool)
    for positions, rows, logits in distinct_blocks(params, eval_set):
        targets = eval_set.targets[positions]
        nll[positions] = -probstats.log_softmax_rows(logits)[rows, targets]
        correct[positions] = logits.argmax(axis=1)[rows] == targets
    return {"mean_nll": float(nll.mean()), "top1_accuracy": float(correct.mean())}


# ---------------------------------------------------------------------------
# Checkpoint I/O: flat little-endian binary layout. Header is the magic,
# a u32 version, the four model dimensions as u32, and the seed as u64;
# ``ToyModelParams.flat`` follows as float64, the tensors in declaration
# order. Round-trips are bit-exact.
# ---------------------------------------------------------------------------


def save_checkpoint(path, config: ModelConfig, params: ToyModelParams) -> None:
    dims = (config.vocab_size, config.context_len, config.embed_dim, config.hidden_dim)
    if params.dims != dims:  # the header would declare another payload
        raise InvalidArgumentError(f"parameter dims {params.dims} differ from the config's {dims}")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<IIIIIQ", CHECKPOINT_VERSION, *dims, config.seed))
        fh.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, ToyModelParams]:
    """The config and parameters of a ``save_checkpoint`` file. The payload
    that the header's dimensions declare is checked against the file's size
    before any of it is read, and every parameter must be finite; a
    rejection names the header or the tensor at fault."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        if header[:8] != CHECKPOINT_MAGIC:
            raise InvalidInputError(f"bad checkpoint magic {header[:8]!r}")
        if len(header) < _HEADER_BYTES:
            raise InvalidInputError("checkpoint truncated in header")
        version, v, n, d, h, seed = struct.unpack("<IIIIIQ", header[8:])
        if version != CHECKPOINT_VERSION:
            raise InvalidInputError(f"unsupported checkpoint version {version}")
        config = ModelConfig(
            vocab_size=v, context_len=n, embed_dim=d, hidden_dim=h, seed=seed
        )
        dims = (v, n, d, h)
        size, layout = _layout(dims)
        payload = os.fstat(fh.fileno()).st_size - _HEADER_BYTES
        if 8 * size != payload:
            fault = next((f"truncated in {name}" for name, sl, _ in layout if 8 * sl.stop > payload), "has trailing bytes")
            raise InvalidInputError(
                f"checkpoint {fault}: the header's (V, n, d, h) = {dims}"
                f" declare {8 * size} bytes of parameters, the file holds {payload}"
            )
        flat = np.frombuffer(fh.read(8 * size), dtype="<f8").astype(np.float64)
    params = ToyModelParams.from_flat(flat, dims)
    for name in PARAM_FIELDS:
        if not np.isfinite(getattr(params, name)).all():
            raise InvalidInputError(f"checkpoint {name} holds a non-finite value")
    return config, params
