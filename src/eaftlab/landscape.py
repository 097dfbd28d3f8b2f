"""Token-level diagnostics: entropy/probability landscapes, quadrant stats,
subgroup training dynamics, the top-K fidelity/memory study, and lossless
JSONL export/ingest of token records, which live in one columnar table.

Plot rendering is out of scope: CSV/JSONL files are the interface to
external plotting tools.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import probstats, toylm
from .errors import (
    DegenerateVarianceError,
    InvalidArgumentError,
    RecordParseError,
    RecordValidationError,
)
from .fileio import atomic_write

# every record field and the JSON type of its value; a float field also
# takes a JSON integer, and no field takes a boolean
RECORD_FIELDS = {
    "source_id": str,
    "position": int,
    "token_id": int,
    "token_text": str,
    "p_target": float,
    "entropy_full": float,
    "entropy_topk": float,
    "gate": float,
    "weight": float,
    "grad_norm": float,
    "step": int,
}
OPTIONAL_FIELDS = ("token_text", "entropy_full", "weight", "grad_norm", "step")
_REQUIRED_FIELDS = RECORD_FIELDS.keys() - OPTIONAL_FIELDS
_DTYPES = {str: object, int: np.int64, float: np.float64}
_KINDS = {str: "OU", int: "iu", float: "iuf"}  # the numpy dtype kinds each type takes
_JSON_NAMES = {str: "string", int: "integer", float: "number"}
_FILLS = {str: "", int: 0, float: 0.0}  # held by the rows that lack an optional field

# the range of each numeric field, in the order a record's checks run;
# NaN lies in none of them
_RANGES = {
    "outside [0, 1]": (("p_target", "gate", "weight"), lambda v: (0.0 <= v) & (v <= 1.0)),
    "must be finite and >= 0": (
        ("entropy_topk", "entropy_full", "grad_norm"), lambda v: (0.0 <= v) & (v < math.inf)
    ),
    "outside [0, 2**63)": (("position", "token_id", "step"), lambda v: v >= 0),
}


class RecordTable:
    """Scored token positions as one table of columns.

    ``columns`` holds one array per ``RECORD_FIELDS`` entry: int64, float64,
    or object (Python ``str``) for the two text fields. ``present`` holds a
    boolean mask per optional field, true where a record has that field;
    the other rows hold 0 or "", which lie in every range. Construction
    checks every range at once and names the first bad record and field.
    """

    def __init__(self, columns: dict, present: dict):
        self.columns = columns
        self.present = present
        violations = []
        for rule, (fields, ok) in _RANGES.items():
            for field in fields:
                bad = ~ok(columns[field])
                if bad.any():
                    row = int(bad.argmax())
                    violations.append((row, f"{field} {columns[field][row].item()} {rule}"))
        if violations:
            row, message = min(violations, key=lambda v: v[0])
            raise RecordValidationError(message, row)

    @classmethod
    def of(cls, **fields) -> RecordTable:
        """A table from whole columns, one keyword per field; a scalar is
        repeated down the table, and an optional field left out is absent
        from every record."""
        if not _REQUIRED_FIELDS <= fields.keys() <= RECORD_FIELDS.keys():
            raise RecordValidationError(f"need {sorted(_REQUIRED_FIELDS)}, got {sorted(fields)}")
        arrays = {}
        for field, kind in RECORD_FIELDS.items():
            value = fields.get(field, _FILLS[kind])
            # numpy would cast 2.7 to 2 and "0.5" to 0.5: types are as strict as on ingest
            if np.size(value) and np.asarray(value).dtype.kind not in _KINDS[kind]:
                raise RecordValidationError(f"{field} holds {np.asarray(value).dtype} values")
            # a text column keeps the given strings: numpy's own drop trailing NULs
            arrays[field] = np.asarray(value, object if kind is str else None)
        shape = np.broadcast_shapes((1,), *(a.shape for a in arrays.values()))
        columns = {
            f: np.array(np.broadcast_to(a, shape), _DTYPES[RECORD_FIELDS[f]])
            for f, a in arrays.items()
        }
        return cls(columns, {f: np.full(shape, f in fields) for f in OPTIONAL_FIELDS})

    @classmethod
    def concat(cls, tables) -> RecordTable:
        """The records of ``tables`` in order, as one table."""
        tables = list(tables)
        columns = {
            f: np.concatenate([np.empty(0, _DTYPES[k]), *(t.columns[f] for t in tables)])
            for f, k in RECORD_FIELDS.items()
        }
        present = {
            f: np.concatenate([np.empty(0, bool), *(t.present[f] for t in tables)])
            for f in OPTIONAL_FIELDS
        }
        return cls(columns, present)

    def __len__(self) -> int:
        return len(self.columns["position"])

    def __eq__(self, other) -> bool:
        """Bit-for-bit equality of every column and mask."""
        if not isinstance(other, RecordTable):
            return NotImplemented
        pairs = [(self.columns[f], other.columns[f]) for f in RECORD_FIELDS]
        pairs += [(self.present[f], other.present[f]) for f in OPTIONAL_FIELDS]
        return all(
            a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()
            for a, b in pairs
        )


def _full_column(records: RecordTable, field: str) -> np.ndarray:
    """The column of an optional field that every record must hold."""
    lacking = ~records.present[field]
    if lacking.any():
        raise RecordValidationError(f"lacks the {field!r} field", int(lacking.argmax()))
    return records.columns[field]


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
) -> RecordTable:
    """One record per corpus position, in corpus (sequence-major) order."""
    toylm.check_corpus_ids(corpus, params.embedding.shape[0])
    p_target, entropy_full, entropy_topk = (np.empty(len(corpus)) for _ in range(3))
    for rows, logits in toylm.row_blocks(params, corpus.contexts):
        probs = probstats.softmax_rows(logits)
        p_target[rows] = probs[np.arange(len(probs)), corpus.targets[rows]]
        entropy_full[rows] = probstats.entropy_rows(probs)
        entropy_topk[rows] = probstats.topk_entropy_rows(probs, k)
    return RecordTable.of(
        source_id=source_id,
        position=np.arange(len(corpus)),
        token_id=corpus.targets,
        p_target=p_target,
        entropy_full=entropy_full,
        entropy_topk=entropy_topk,
        gate=probstats.gate_of_entropy(entropy_topk, k),
    )


# ---------------------------------------------------------------------------
# Export / ingest
# ---------------------------------------------------------------------------

# Records per block of JSONL export; bounds the Python strings held at once.
_EXPORT_BLOCK = 4096


def _line_template(code: int) -> str:
    """The ``str.format`` template of one JSONL line whose optional fields
    are the set bits of ``code``: keys sorted, absent fields left out, the
    separators of ``json.dumps``; argument i is field i's encoded value."""
    slots = {
        f: i for i, f in enumerate(RECORD_FIELDS)
        if f not in OPTIONAL_FIELDS or code >> OPTIONAL_FIELDS.index(f) & 1
    }
    return "{{" + ", ".join(f'"{f}": {{{slots[f]}}}' for f in sorted(slots)) + "}}\n"


_LINE_FORMATS = [_line_template(code).format for code in range(2 ** len(OPTIONAL_FIELDS))]


def _json_values(column: np.ndarray) -> list:
    """The column's values as ``json.dumps`` writes them: an int or float
    formats as its ``repr``, a string is encoded here."""
    values = column.tolist()
    return list(map(encode_basestring_ascii, values)) if column.dtype == object else values


class _NonFiniteLiteral(ValueError):
    """A NaN, Infinity or -Infinity literal, which is not valid JSON."""


def _reject_constant(literal: str):
    raise _NonFiniteLiteral(literal)


# one decoder for every line; json.loads(..., parse_constant=...) would
# build a new one per call
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


def export_records(records: RecordTable, path) -> None:
    """Write records as JSONL, one line per record: the bytes of
    ``json.dumps(record, sort_keys=True)`` with absent fields left out."""
    codes = np.zeros(len(records), dtype=np.int64)
    for bit, field in enumerate(OPTIONAL_FIELDS):
        codes |= records.present[field].astype(np.int64) << bit
    with atomic_write(path) as fh:
        for start in range(0, len(records), _EXPORT_BLOCK):
            block = slice(start, start + _EXPORT_BLOCK)
            values = zip(*(_json_values(records.columns[f][block]) for f in RECORD_FIELDS))
            fh.write("".join([_LINE_FORMATS[c](*v) for c, v in zip(codes[block].tolist(), values)]))


def export_rows(rows, fieldnames, path) -> None:
    """Write dict rows as CSV with 17-significant-digit reals."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(f)) for f in fieldnames])


def ingest_records(path) -> RecordTable:
    """Parse a JSONL record file into one table, line by line into typed
    columns; unknown fields are ignored. Every value must have its field's
    JSON type (``RECORD_FIELDS``), and an integer field lies in [0, 2**63).
    ``NaN`` and ``Infinity`` literals are not JSON and are rejected. An
    error names the earliest bad line, whatever kind of error it is."""
    columns = {
        f: array("d") if kind is float else array("q") if kind is int else []
        for f, kind in RECORD_FIELDS.items()
    }
    present = {f: bytearray() for f in OPTIONAL_FIELDS}
    slots = [
        (f, kind, columns[f].append, present[f].append if f in present else None, _FILLS[kind])
        for f, kind in RECORD_FIELDS.items()
    ]
    lines = array("q")
    decode = _DECODER.decode
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.isspace():
                    continue
                try:
                    doc = decode(line)
                except json.JSONDecodeError as exc:
                    raise RecordParseError(f"invalid JSON: {exc.msg}", lineno) from exc
                except _NonFiniteLiteral as exc:
                    raise RecordParseError(
                        f"non-finite literal {exc} in {_non_finite_field(line)}", lineno
                    ) from exc
                if type(doc) is not dict:
                    raise RecordParseError("record must be a JSON object", lineno)
                get = doc.get
                for field, kind, append, mark, fill in slots:
                    value = get(field)
                    if value is None:
                        if mark is None:
                            raise RecordParseError(f"missing required field {field!r}", lineno)
                        append(fill)
                        mark(0)
                        continue
                    t = type(value)
                    if t is not kind and (t is not int or kind is not float):
                        raise RecordParseError(
                            f"{field} must be a JSON {_JSON_NAMES[kind]}, got {value!r}", lineno
                        )
                    try:
                        append(value)
                    except OverflowError as exc:
                        problem = "too large for a float" if kind is float else f"{value} outside [0, 2**63)"
                        raise RecordParseError(f"{field} {problem}", lineno) from exc
                    if mark is not None:
                        mark(1)
                lines.append(lineno)
    except RecordParseError:
        # a range error on an earlier line wins over this line's error
        for values in (*columns.values(), *present.values()):
            del values[len(lines):]
        _lined_table(columns, present, lines)
        raise
    return _lined_table(columns, present, lines)


def _lined_table(columns: dict, present: dict, lines) -> RecordTable:
    """The table of ingested columns; a range error names the record's line."""
    try:
        return RecordTable(
            {f: np.array(c, dtype=_DTYPES[RECORD_FIELDS[f]]) for f, c in columns.items()},
            {f: np.array(m, dtype=bool) for f, m in present.items()},
        )
    except RecordValidationError as exc:
        raise RecordParseError(exc.message, lines[exc.row]) from exc


# ---------------------------------------------------------------------------
# Histograms and quadrants
# ---------------------------------------------------------------------------


def histogram2d(records: RecordTable, x_bins: int = 40, y_bins: int = 40) -> Histogram2D:
    """p_target (x) against the full entropy (y), binned linearly between data
    min/max; top-edge values land in the last bin."""
    if not len(records):
        raise InvalidArgumentError("need at least one record")
    if x_bins < 1 or y_bins < 1:
        raise InvalidArgumentError("bin counts must be >= 1")
    xs, ys = records.columns["p_target"], _full_column(records, "entropy_full")

    def edges(vals, nbins):
        lo, hi = float(vals.min()), float(vals.max())
        if hi <= lo:
            hi = lo + 1.0
        return np.linspace(lo, hi, nbins + 1)

    xe = edges(xs, x_bins)
    ye = edges(ys, y_bins)
    counts = np.histogram2d(xs, ys, bins=(xe, ye))[0].astype(np.int64)
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
    records: RecordTable,
    q: float = 0.15,
    thresholds: tuple[float, float] | None = None,
):
    """Four-way partition by joint thresholds on the gate and p_target.

    Thresholds default to the nearest-rank ``q`` percentiles of this record
    set; pass explicit ``(tau_gate, tau_p)`` to compare different corpora on
    the same axes. The gate is the entropy axis because masking thresholds
    are computed on it.
    """
    if not len(records):
        raise InvalidArgumentError("need at least one record")
    labels, thresholds = probstats.quadrant_labels(
        records.columns["gate"], records.columns["p_target"], q, thresholds
    )
    counts = {name: int((labels == name).sum()) for name in probstats.QUADRANTS}
    total = len(records)
    shares = {name: counts[name] / total for name in counts}
    return {"counts": counts, "shares": shares, "thresholds": thresholds, "labels": labels}


def quadrant_token_ranking(records: RecordTable, labels, quadrant: str, top_n: int) -> list[dict]:
    """Rank tokens inside one quadrant by frequency; ties go to the lower
    token id, then to the token seen first. A record's token is its text
    where it has one, else its id."""
    if top_n < 0:
        raise InvalidArgumentError("top_n must be >= 0")
    rows = np.flatnonzero(np.asarray(labels, dtype=object) == quadrant)
    has_text = records.present["token_text"][rows]
    ids, gates = records.columns["token_id"], records.columns["gate"]
    tokens, first, count, gate_sum = [], [], [], []
    # text keys and id keys are grouped apart: a text never equals an id
    for part, keys in ((rows[~has_text], ids), (rows[has_text], records.columns["token_text"])):
        part_tokens, part_first, inverse = np.unique(keys[part], return_index=True, return_inverse=True)
        tokens += part_tokens.tolist()
        first.append(part[part_first])
        count.append(np.bincount(inverse))
        # bincount adds up each group's gates one by one in record order
        gate_sum.append(np.bincount(inverse, gates[part]))
    first, count, gate_sum = map(np.concatenate, (first, count, gate_sum))
    mean_gate = gate_sum / count
    order = np.lexsort((first, ids[first], -count))[:top_n]
    return [
        {"token": tokens[i], "count": int(count[i]), "mean_gate": float(mean_gate[i])}
        for i in order.tolist()
    ]


# the columns of a dynamics table, one row per captured step
DYNAMICS_FIELDS = ("step", "high_entropy_ce", "high_entropy_count", "low_entropy_ce", "low_entropy_count")


def dynamics_track(
    records: RecordTable,
    high_min: float = probstats.HIGH_ENTROPY_MIN,
    low_max: float = probstats.LOW_ENTROPY_MAX,
) -> list[dict]:
    """Per-step ``probstats.subgroup_ce`` of the records, keyed by ``DYNAMICS_FIELDS``.

    Grouping uses each record's ``entropy_full`` as captured, i.e. the
    entropy of the then-current model; CE is -ln p_target. Steps ascend.
    An empty subgroup reports size 0 and an absent mean.
    """
    if not low_max < high_min:
        raise InvalidArgumentError(f"low_max {low_max!r} must be below high_min {high_min!r}")
    steps, entropy = _full_column(records, "step"), _full_column(records, "entropy_full")
    # math.log, not np.log, whose last bit may differ
    p = np.maximum(records.columns["p_target"], 1e-300).tolist()
    ce = -np.array(list(map(math.log, p)), dtype=np.float64)
    rows = []
    for step in np.unique(steps).tolist():
        group = steps == step  # the step's records, in record order
        rows.append({"step": step, **probstats.subgroup_ce(ce[group], entropy[group], high_min, low_max)})
    return rows


# ---------------------------------------------------------------------------
# Top-K fidelity / memory study
# ---------------------------------------------------------------------------


# Rows per block of the top-K fidelity study. Softmax, entropy and
# np.partition work row by row, so the block size changes no output bit; it
# bounds the study's working set at a few MB for V=4096.
_ROW_BLOCK = 64
# Helper threads that score blocks while the caller's iterator produces the
# next one. On two cores, two helpers measured no faster than one and held
# ~8 MB more.
_SCORE_WORKERS = 1

SYNTHETIC_VOCAB = 4096
# a float64 probability and an int32 index per kept top-k entry
_BYTES_PER_ENTRY = 8 + 4


def _score_block(block, ks: list[int]) -> list[np.ndarray]:
    """The exact entropy of each row of one block, then its top-k entropy
    for each k of the grid."""
    p = np.asarray(block, dtype=np.float64)
    if p.ndim != 2:
        raise InvalidArgumentError("need a (N, V) probability matrix with N >= 2")
    if any(k < 1 or k > p.shape[1] for k in ks):
        raise InvalidArgumentError("k grid entries must lie in [1, V]")
    return [probstats.entropy_rows(p)] + [probstats.topk_entropy_rows(p, k) for k in ks]


def fidelity_from_blocks(blocks, k_grid) -> list[dict]:
    """Pearson r between exact and renormalized top-k entropy per k, plus the
    linear per-token memory cost of storing the k (probability, index) pairs.

    ``blocks`` is an iterable of (b, V) probability blocks, the rows of one
    corpus in order. Block i is scored on one helper thread while the
    iterator produces block i+1 (numpy releases the GIL in the draws, the
    ufunc loops and np.partition), so at most two blocks are held at a time.
    Scores are collected in block order and each block goes through the same
    kernels, so every output bit is that of a serial loop, and an error of
    block i, or of the iterator while it produces block i+1, is raised before
    anything of a later block.
    """
    ks = [int(k) for k in k_grid]
    if sorted(ks) != ks:
        raise InvalidArgumentError("k grid must be ascending")
    scores: list[list[np.ndarray]] = []
    pending = deque()
    with ThreadPoolExecutor(_SCORE_WORKERS) as pool:  # joins the helper on every exit
        it = iter(blocks)
        while True:
            try:
                block = next(it)
            except StopIteration:
                break
            except BaseException:
                for future in pending:  # an earlier block's error comes first
                    future.result()
                raise
            pending.append(pool.submit(_score_block, block, ks))
            del block  # the helper holds it until it is scored
            if len(pending) > _SCORE_WORKERS:
                scores.append(pending.popleft().result())
        scores.extend(future.result() for future in pending)
    if sum(len(score[0]) for score in scores) < 2:
        raise InvalidArgumentError("need a (N, V) probability matrix with N >= 2")
    exact = np.concatenate([score[0] for score in scores])
    if float(exact.std()) == 0.0:
        raise DegenerateVarianceError("exact entropies are constant")
    rows = []
    for j, k in enumerate(ks, start=1):
        approx = np.concatenate([score[j] for score in scores])
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
    """Fidelity study over the distributions a model assigns to a corpus,
    scored block by block as ``toylm.row_blocks`` produces them."""
    toylm.check_corpus_ids(corpus, params.embedding.shape[0])
    blocks = (probstats.softmax_rows(logits) for _, logits in toylm.row_blocks(params, corpus.contexts))
    return fidelity_from_blocks(blocks, k_grid)


def default_k_grid(vocab_size: int) -> list[int]:
    grid = [k for k in (1, 2, 5, 10, 20, 50, 100) if k < vocab_size]
    return grid + [vocab_size]
