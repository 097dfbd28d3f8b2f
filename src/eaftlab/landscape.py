"""Token-level diagnostics: entropy/probability landscapes, quadrant stats,
subgroup training dynamics, the top-K fidelity/memory study, and lossless
record export/ingest (JSONL and CSV).

Plot rendering is out of scope: CSV/JSONL files are the interface to
external plotting tools.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import probstats, toylm
from .errors import (
    DegenerateVarianceError,
    InvalidArgumentError,
    RecordParseError,
    RecordValidationError,
)
from .fileio import atomic_write

RECORD_FIELDS = (
    "source_id",
    "position",
    "token_id",
    "token_text",
    "p_target",
    "entropy_full",
    "entropy_topk",
    "gate",
    "weight",
    "grad_norm",
    "step",
)


@dataclass(frozen=True)
class TokenRecord:
    """One scored token position; optional fields may be None."""

    source_id: str
    position: int
    token_id: int
    p_target: float
    entropy_topk: float
    gate: float
    token_text: str | None = None
    entropy_full: float | None = None
    weight: float | None = None
    grad_norm: float | None = None
    step: int | None = None

    def __post_init__(self):
        # chained comparisons are false for NaN, so each check rejects it too
        if not 0.0 <= self.p_target <= 1.0:
            raise RecordValidationError(f"p_target {self.p_target} outside [0, 1]")
        if not 0.0 <= self.entropy_topk < math.inf:
            raise RecordValidationError(f"entropy_topk {self.entropy_topk} must be finite and >= 0")
        if self.entropy_full is not None and not 0.0 <= self.entropy_full < math.inf:
            raise RecordValidationError(f"entropy_full {self.entropy_full} must be finite and >= 0")
        if not 0.0 <= self.gate <= 1.0:
            raise RecordValidationError(f"gate {self.gate} outside [0, 1]")
        if self.weight is not None and not 0.0 <= self.weight <= 1.0:
            raise RecordValidationError(f"weight {self.weight} outside [0, 1]")
        if self.grad_norm is not None and not 0.0 <= self.grad_norm < math.inf:
            raise RecordValidationError(f"grad_norm {self.grad_norm} must be finite and >= 0")


@dataclass(frozen=True)
class DynamicsConfig:
    high_entropy_min: float = 2.0
    low_entropy_max: float = 0.5

    def __post_init__(self):
        if not self.low_entropy_max < self.high_entropy_min:
            raise InvalidArgumentError("low_entropy_max must be < high_entropy_min")


@dataclass
class Histogram2D:
    x_edges: np.ndarray
    y_edges: np.ndarray
    counts: np.ndarray


def score_corpus(
    params: toylm.ToyModelParams,
    corpus: toylm.Corpus,
    k: int = 20,
    source_id: str = "corpus",
) -> list[TokenRecord]:
    """One record per corpus position, in corpus (sequence-major) order."""
    if len(corpus) == 0:
        return []
    toylm.check_corpus_ids(corpus, params.embedding.shape[0])
    logits, _ = toylm.forward_batch(params, corpus.contexts)
    probs = probstats.softmax_rows(logits)
    p_t = probs[np.arange(len(corpus)), corpus.targets]
    columns = zip(
        corpus.targets.tolist(),
        p_t.tolist(),
        probstats.entropy_rows(probs).tolist(),
        probstats.topk_entropy_rows(probs, k).tolist(),
        probstats.gate_rows(probs, k).tolist(),
    )
    return [
        TokenRecord(
            source_id=source_id,
            position=i,
            token_id=token_id,
            p_target=p,
            entropy_full=h_full,
            entropy_topk=h_topk,
            gate=gate,
        )
        for i, (token_id, p, h_full, h_topk, gate) in enumerate(columns)
    ]


# ---------------------------------------------------------------------------
# Export / ingest
# ---------------------------------------------------------------------------

_FLOAT_FIELDS = {"p_target", "entropy_full", "entropy_topk", "gate", "weight", "grad_norm"}
_INT_FIELDS = {"position", "token_id", "step"}
_REQUIRED_FIELDS = frozenset({"source_id", "position", "token_id", "p_target", "entropy_topk", "gate"})
_CONVERTERS = tuple(
    (f, float if f in _FLOAT_FIELDS else int if f in _INT_FIELDS else str) for f in RECORD_FIELDS
)
# one encoder and one decoder for every line; json.dumps(..., sort_keys=True)
# and json.loads(..., parse_constant=...) would each build a new one per call
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


class _NonFiniteLiteral(ValueError):
    """A NaN, Infinity or -Infinity literal, which is not valid JSON."""


def _reject_constant(literal: str):
    raise _NonFiniteLiteral(literal)


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _non_finite_field(line: str) -> str:
    """The top-level field holding a non-finite literal (error path only)."""
    doc = json.loads(line)
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, float) and not math.isfinite(value):
                return repr(key)
    return "a value"


def _fmt(value) -> str:
    # 17 significant digits round-trips any float64 exactly
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def export_records(records, path, fmt: str = "jsonl") -> None:
    """Write records as JSONL (absent fields omitted, keys sorted) or CSV."""
    if fmt == "jsonl":
        encode = _ENCODER.encode
        with atomic_write(path) as fh:
            for rec in records:
                doc = {f: v for f in RECORD_FIELDS if (v := getattr(rec, f)) is not None}
                fh.write(encode(doc) + "\n")
    elif fmt == "csv":
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RECORD_FIELDS)
            for rec in records:
                writer.writerow([_fmt(getattr(rec, f)) for f in RECORD_FIELDS])
    else:
        raise InvalidArgumentError(f"unknown format {fmt!r}")


def export_rows(rows, fieldnames, path) -> None:
    """Write dict rows as CSV with 17-significant-digit reals."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(f)) for f in fieldnames])


def ingest_records(path) -> list[TokenRecord]:
    """Parse a JSONL record file; unknown fields are ignored, errors carry
    the offending line number. ``NaN`` and ``Infinity`` literals are not
    JSON and are rejected."""
    records = []
    decode = _DECODER.decode
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = decode(line)
            except json.JSONDecodeError as exc:
                raise RecordParseError(f"invalid JSON: {exc.msg}", lineno) from exc
            except _NonFiniteLiteral as exc:
                raise RecordParseError(
                    f"non-finite literal {exc} in {_non_finite_field(line)}", lineno
                ) from exc
            if not isinstance(doc, dict):
                raise RecordParseError("record must be a JSON object", lineno)
            get = doc.get
            kwargs = {}
            for field, convert in _CONVERTERS:
                value = get(field)
                if value is None:
                    continue
                try:
                    kwargs[field] = convert(value)
                except (TypeError, ValueError) as exc:
                    raise RecordParseError(f"bad value for {field!r}: {value!r}", lineno) from exc
            if not _REQUIRED_FIELDS <= kwargs.keys():
                missing = sorted(_REQUIRED_FIELDS - kwargs.keys())
                raise RecordParseError(f"missing required fields {missing}", lineno)
            try:
                records.append(TokenRecord(**kwargs))
            except RecordValidationError as exc:
                raise RecordParseError(str(exc), lineno) from exc
    return records


# ---------------------------------------------------------------------------
# Histograms and quadrants
# ---------------------------------------------------------------------------

_AXIS_GETTERS = {
    "p_target": lambda r: r.p_target,
    "entropy": lambda r: r.entropy_full,
    "gate": lambda r: r.gate,
}


def _axis_values(records, axis: str) -> np.ndarray:
    getter = _AXIS_GETTERS[axis]
    values = []
    for i, rec in enumerate(records):
        v = getter(rec)
        if v is None:
            raise RecordValidationError(f"record {i} lacks the {axis!r} field")
        values.append(v)
    return np.asarray(values, dtype=np.float64)


def histogram2d(records, x_bins: int = 40, y_bins: int = 40) -> Histogram2D:
    """p_target (x) against the full entropy (y), binned linearly between data
    min/max; top-edge values land in the last bin."""
    records = list(records)
    if not records:
        raise InvalidArgumentError("need at least one record")
    if x_bins < 1 or y_bins < 1:
        raise InvalidArgumentError("bin counts must be >= 1")
    xs = _axis_values(records, "p_target")
    ys = _axis_values(records, "entropy")

    def edges(vals, nbins):
        lo, hi = float(vals.min()), float(vals.max())
        if hi <= lo:
            hi = lo + 1.0
        return np.linspace(lo, hi, nbins + 1)

    xe = edges(xs, x_bins)
    ye = edges(ys, y_bins)
    xi = np.clip(np.searchsorted(xe, xs, side="right") - 1, 0, x_bins - 1)
    yi = np.clip(np.searchsorted(ye, ys, side="right") - 1, 0, y_bins - 1)
    counts = np.zeros((x_bins, y_bins), dtype=np.int64)
    np.add.at(counts, (xi, yi), 1)
    return Histogram2D(x_edges=xe, y_edges=ye, counts=counts)


def histogram_rows(hist: Histogram2D) -> list[dict]:
    rows = []
    for i in range(hist.counts.shape[0]):
        for j in range(hist.counts.shape[1]):
            row = {
                "x_lo": float(hist.x_edges[i]),
                "x_hi": float(hist.x_edges[i + 1]),
                "y_lo": float(hist.y_edges[j]),
                "y_hi": float(hist.y_edges[j + 1]),
                "count": int(hist.counts[i, j]),
            }
            rows.append(row)
    return rows


def quadrant_stats(
    records,
    q: float = 0.15,
    thresholds: tuple[float, float] | None = None,
):
    """Four-way partition by joint thresholds on the gate and p_target.

    Thresholds default to the nearest-rank ``q`` percentiles of this record
    set; pass explicit ``(tau_gate, tau_p)`` to compare different corpora on
    the same axes. The gate is the entropy axis because masking thresholds
    are computed on it.
    """
    records = list(records)
    if not records:
        raise InvalidArgumentError("need at least one record")
    hs = _axis_values(records, "gate")
    ps = _axis_values(records, "p_target")
    labels, thresholds = probstats.quadrant_labels(hs, ps, q, thresholds)
    counts = {name: int((labels == name).sum()) for name in probstats.QUADRANTS}
    total = len(records)
    shares = {name: counts[name] / total for name in counts}
    return {"counts": counts, "shares": shares, "thresholds": thresholds, "labels": labels}


def quadrant_token_ranking(records, labels, quadrant: str, top_n: int) -> list[dict]:
    """Rank tokens inside one quadrant by frequency (ties by token id)."""
    if top_n < 0:
        raise InvalidArgumentError("top_n must be >= 0")
    groups: dict = {}
    for rec, label in zip(records, labels):
        if label != quadrant:
            continue
        key = rec.token_text if rec.token_text is not None else rec.token_id
        entry = groups.setdefault(key, {"token": key, "token_id": rec.token_id, "count": 0, "gate_sum": 0.0})
        entry["count"] += 1
        entry["gate_sum"] += rec.gate
    ranked = sorted(groups.values(), key=lambda e: (-e["count"], e["token_id"]))
    return [
        {"token": e["token"], "count": e["count"], "mean_gate": e["gate_sum"] / e["count"]}
        for e in ranked[:top_n]
    ]


def dynamics_track(records, cfg: DynamicsConfig = DynamicsConfig()) -> list[dict]:
    """Per-step mean cross-entropy of the high/low-entropy token subgroups.

    Grouping uses each record's ``entropy_full`` as captured, i.e. the
    entropy of the then-current model; CE is -ln p_target. Steps ascend.
    An empty subgroup reports size 0 and an absent mean.
    """
    by_step: dict[int, list[TokenRecord]] = {}
    for i, rec in enumerate(records):
        if rec.step is None or rec.entropy_full is None:
            raise RecordValidationError(f"record {i} lacks step or entropy_full")
        by_step.setdefault(rec.step, []).append(rec)
    rows = []
    for step in sorted(by_step):
        group = by_step[step]
        ce = np.array([-math.log(max(r.p_target, 1e-300)) for r in group])
        ent = np.array([r.entropy_full for r in group])
        hi = ent >= cfg.high_entropy_min
        lo = ent <= cfg.low_entropy_max
        rows.append(
            {
                "step": step,
                "high_entropy_ce": float(ce[hi].mean()) if hi.any() else None,
                "high_entropy_count": int(hi.sum()),
                "low_entropy_ce": float(ce[lo].mean()) if lo.any() else None,
                "low_entropy_count": int(lo.sum()),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Top-K fidelity / memory study
# ---------------------------------------------------------------------------


# Rows per block of the top-K fidelity study. Softmax, entropy and
# np.partition work row by row, so the block size changes no output bit; it
# bounds the study's working set at a few MB for V=4096.
_ROW_BLOCK = 64

SYNTHETIC_VOCAB = 4096
# a float64 probability and an int32 index per kept top-k entry
_BYTES_PER_ENTRY = 8 + 4


def fidelity_from_blocks(blocks, k_grid) -> list[dict]:
    """Pearson r between exact and renormalized top-k entropy per k, plus the
    linear per-token memory cost of storing the k (probability, index) pairs.

    ``blocks`` is an iterable of (b, V) probability blocks, the rows of one
    corpus in order; only one block is held at a time.
    """
    ks = [int(k) for k in k_grid]
    if sorted(ks) != ks:
        raise InvalidArgumentError("k grid must be ascending")
    exact_parts: list[np.ndarray] = []
    approx_parts: list[list[np.ndarray]] = [[] for _ in ks]
    for block in blocks:
        p = np.asarray(block, dtype=np.float64)
        if p.ndim != 2:
            raise InvalidArgumentError("need a (N, V) probability matrix with N >= 2")
        if any(k < 1 or k > p.shape[1] for k in ks):
            raise InvalidArgumentError("k grid entries must lie in [1, V]")
        exact_parts.append(probstats.entropy_rows(p))
        for parts, k in zip(approx_parts, ks):
            parts.append(probstats.topk_entropy_rows(p, k))
    if sum(len(part) for part in exact_parts) < 2:
        raise InvalidArgumentError("need a (N, V) probability matrix with N >= 2")
    exact = np.concatenate(exact_parts)
    if float(exact.std()) == 0.0:
        raise DegenerateVarianceError("exact entropies are constant")
    rows = []
    for k, parts in zip(ks, approx_parts):
        approx = np.concatenate(parts)
        # k=1 yields identically-zero approximations; correlation is undefined
        # there, so the row carries an absent r rather than a fabricated one
        r = probstats.pearson(exact, approx) if float(approx.std()) > 0.0 else None
        rows.append(
            {
                "k": k,
                "pearson_r": r,
                "extra_bytes_per_token": k * _BYTES_PER_ENTRY,
            }
        )
    return rows


def fidelity_from_probs(probs: np.ndarray, k_grid) -> list[dict]:
    """``fidelity_from_blocks`` over the row blocks of one (N, V) matrix."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise InvalidArgumentError("need a (N, V) probability matrix with N >= 2")
    blocks = (p[i : i + _ROW_BLOCK] for i in range(0, p.shape[0], _ROW_BLOCK))
    return fidelity_from_blocks(blocks, k_grid)


def synthetic_fidelity_blocks(
    n_tokens: int = 10000,
    vocab_size: int = SYNTHETIC_VOCAB,
    seed: int = 20260810,
    base_scale: float = 14.0,
    temp_low: float = 0.3,
    temp_high: float = 2.0,
):
    """Yield the synthetic corpus in (b, V) probability blocks of at most
    ``_ROW_BLOCK`` rows: distributions spanning peaked and flat regimes,
    the softmax of Gaussian logits at ``base_scale``, divided by a per-token
    temperature drawn log-uniformly from [temp_low, temp_high].

    The temperatures are drawn first and the logits block after block from
    the same stream, so the blocks concatenate to the same bits as one
    (n_tokens, vocab_size) draw."""
    rng = np.random.default_rng(seed)
    temps = np.exp(rng.uniform(np.log(temp_low), np.log(temp_high), size=n_tokens))
    for start in range(0, n_tokens, _ROW_BLOCK):
        block_temps = temps[start : start + _ROW_BLOCK]
        logits = rng.standard_normal((block_temps.size, vocab_size))
        logits *= base_scale / block_temps[:, None]
        yield probstats.softmax_rows(logits)


def synthetic_fidelity_corpus(*args, **kwargs) -> np.ndarray:
    """The synthetic corpus as one (n_tokens, vocab_size) matrix: the
    concatenation of ``synthetic_fidelity_blocks(*args, **kwargs)``."""
    return np.concatenate(list(synthetic_fidelity_blocks(*args, **kwargs)))


def topk_fidelity_study(params: toylm.ToyModelParams, corpus: toylm.Corpus, k_grid) -> list[dict]:
    """Fidelity study over the distributions a model assigns to a corpus."""
    toylm.check_corpus_ids(corpus, params.embedding.shape[0])
    logits, _ = toylm.forward_batch(params, corpus.contexts)
    return fidelity_from_probs(probstats.softmax_rows(logits), k_grid)


def default_k_grid(vocab_size: int) -> list[int]:
    grid = [k for k in (1, 2, 5, 10, 20, 50, 100) if k < vocab_size]
    return grid + [vocab_size]
