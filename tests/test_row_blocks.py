"""Whole-corpus passes score ``toylm.ROW_BLOCK``-row blocks, and
``evaluate``, ``score_gates`` and ``score_corpus`` score each distinct
context once. A row's result must not depend on how the rows are split or
how often a context repeats: each pass equals a per-position whole-matrix
oracle bit for bit at and around the block boundaries, counted in positions
and in distinct contexts, and a short snapshot plus one blocked evaluation
gives the same bits at one and at two BLAS threads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import eaftlab
from eaftlab import forgebench as fb
from eaftlab import landscape as ls
from eaftlab import probstats as ps
from eaftlab import toylm
from eaftlab.errors import InvalidArgumentError

R = toylm.ROW_BLOCK
SIZES = (1, 2, R - 1, R, R + 1, 2 * R + 1)
# the benchmark protocol's shapes: V=64, a 3 x 16 context and 96 hidden units
CONFIG = toylm.ModelConfig(vocab_size=64, context_len=3, embed_dim=16, hidden_dim=96, seed=7)
K = 20


@pytest.fixture(scope="module")
def params():
    p = toylm.init_model(CONFIG)
    p.out_weight *= 8.0  # peaked and flat rows, not only near-uniform ones
    return p


def corpus(n: int, seed: int = 0) -> toylm.Corpus:
    rng = np.random.default_rng(seed)
    return toylm.Corpus(rng.integers(0, 64, size=(n, 3)), rng.integers(0, 64, size=n))


def repeated(counts, vocab: int = 64, context_len: int = 3, seed: int = 0, extra=()) -> toylm.Corpus:
    """Distinct contexts (the ``extra`` ones first, then random ones), the
    i-th repeated ``counts[i]`` times, shuffled, each position with its own
    random target."""
    rng = np.random.default_rng(seed)
    distinct = list(dict.fromkeys(tuple(c) for c in extra))
    while len(distinct) < len(counts):
        c = tuple(int(t) for t in rng.integers(0, vocab, size=context_len))
        if c not in distinct:
            distinct.append(c)
    contexts = np.repeat(np.array(distinct, dtype=np.int64), counts, axis=0)
    order = rng.permutation(len(contexts))
    return toylm.Corpus(contexts[order], rng.integers(0, vocab, size=len(contexts)))


def uneven(d: int, seed: int = 0) -> list[int]:
    """``d`` repeat counts between 1 and 4."""
    return np.random.default_rng(seed).integers(1, 5, size=d).tolist()


# (name, corpus) pairs: d distinct contexts repeated unevenly at and around
# the block boundaries, N >= 2 positions of one context, and N = 1
REPEATED = [(f"distinct{d}", repeated(uneven(d, d), seed=d)) for d in SIZES]
REPEATED += [("one_context_5", repeated([5])), ("one_position", repeated([1]))]


def whole_probs(params, c: toylm.Corpus):
    logits, _ = toylm.forward_batch(params, c.contexts)
    return logits, ps.softmax_rows(logits), np.arange(len(c))


@pytest.mark.parametrize("n", (0, *SIZES, 3 * R, 3 * R + 2))
def test_blocks_cover_rows_without_one_row_tail(params, n):
    contexts = corpus(n).contexts
    blocks = list(toylm.row_blocks(params, contexts))
    covered = [i for rows, _ in blocks for i in range(n)[rows]]
    assert covered == list(range(n))
    sizes = [len(logits) for _, logits in blocks]
    assert all(2 <= size <= R + 1 for size in sizes) or sizes == [1] == [n]
    assert all(logits.shape == (len(range(n)[rows]), 64) for rows, logits in blocks)


# every corpus the distinct-context helpers are checked on
CORPORA = [(f"random{n}", corpus(n)) for n in SIZES] + REPEATED
CORPUS_IDS = [name for name, _ in CORPORA]
CORPUS_LIST = [c for _, c in CORPORA]


def check_evaluate(params, c: toylm.Corpus):
    logits, _, idx = whole_probs(params, c)
    logp = ps.log_softmax_rows(logits)
    expected = {
        "mean_nll": float((-logp[idx, c.targets]).mean()),
        "top1_accuracy": float((logits.argmax(axis=1) == c.targets).mean()),
    }
    assert toylm.evaluate(params, c) == expected


def check_score_gates(params, c: toylm.Corpus, k: int):
    _, probs, idx = whole_probs(params, c)
    gates, p_target = fb.score_gates(params, c, k)
    assert gates.tobytes() == ps.gate_rows(probs, k).tobytes()
    assert p_target.tobytes() == probs[idx, c.targets].tobytes()


def check_score_corpus(params, c: toylm.Corpus, k: int):
    _, probs, idx = whole_probs(params, c)
    expected = ls.RecordTable.of(
        source_id="corpus",
        position=idx,
        token_id=c.targets,
        p_target=probs[idx, c.targets],
        entropy_full=ps.entropy_rows(probs),
        entropy_topk=ps.topk_entropy_rows(probs, k),
        gate=ps.gate_rows(probs, k),
    )
    assert ls.score_corpus(params, c, k) == expected


@pytest.mark.parametrize("n", SIZES)
def test_evaluate_equals_whole_matrix(params, n):
    check_evaluate(params, corpus(n))


@pytest.mark.parametrize("n", SIZES)
def test_score_gates_equals_whole_matrix(params, n):
    check_score_gates(params, corpus(n), K)


@pytest.mark.parametrize("n", (0, *SIZES))
def test_score_corpus_equals_whole_matrix(params, n):
    check_score_corpus(params, corpus(n), K)


@pytest.mark.parametrize("c", [c for _, c in REPEATED], ids=[name for name, _ in REPEATED])
def test_repeated_contexts_equal_per_position_oracle(params, c):
    check_evaluate(params, c)
    check_score_gates(params, c, K)
    check_score_corpus(params, c, K)


def check_distinct(c: toylm.Corpus) -> None:
    contexts, row, order = c.distinct
    assert np.array_equal(contexts, np.unique(c.contexts, axis=0))
    assert np.array_equal(contexts[row], c.contexts)
    assert np.array_equal(order, np.argsort(row, kind="stable"))
    assert c.distinct is c.distinct  # found once per corpus
    assert not any(array.flags.writeable for array in c.distinct)


@pytest.mark.parametrize("c", CORPUS_LIST, ids=CORPUS_IDS)
def test_distinct_contexts_and_row_map(c):
    check_distinct(c)


@pytest.mark.parametrize("c", CORPUS_LIST, ids=CORPUS_IDS)
def test_passes_score_each_distinct_context_once(params, monkeypatch, c):
    rows = []
    forward_batch = toylm.forward_batch

    def counting(p, contexts):
        rows.append(len(contexts))
        return forward_batch(p, contexts)

    monkeypatch.setattr(toylm, "forward_batch", counting)
    n_distinct = len(np.unique(c.contexts, axis=0))
    # a lone context of two or more positions is scored in a two-row product
    expected = 2 if n_distinct == 1 < len(c) else n_distinct
    toylm.evaluate(params, c)
    fb.score_gates(params, c, K)
    ls.score_corpus(params, c, K)
    assert sum(rows) == 3 * expected
    assert min(rows) >= min(expected, 2)


def test_distinct_contexts_of_any_int64_ids():
    # ids at both ends of the int64 range
    big = np.array([[-(2**63), 2**63 - 1], [2**63 - 1, -(2**63)], [-(2**63), 2**63 - 1], [0, 5]])
    c = toylm.Corpus(big, np.zeros(4, dtype=np.int64))
    contexts, row, _ = c.distinct
    assert contexts.tolist() == [[-(2**63), 2**63 - 1], [0, 5], [2**63 - 1, -(2**63)]]
    assert row.tolist() == [0, 2, 0, 1]


# a small alphabet, with many repeats; any int64; and the extremes
ID_SETS = (
    st.integers(0, 3),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), -1, 0, 1, 2**63 - 1]),
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_distinct_contexts_of_random_int64_matrices(data):
    ids = data.draw(st.sampled_from(ID_SETS))
    shape = data.draw(st.tuples(st.integers(0, 60), st.integers(1, 6)))
    contexts = data.draw(hnp.arrays(np.int64, shape, elements=ids))
    check_distinct(toylm.Corpus(contexts, np.zeros(len(contexts), dtype=np.int64)))


def test_passes_at_vocab_power_context_beyond_int64():
    # V**n = 8192**5 = 2**65: with the last four columns spanning [0, 8192),
    # a key packed in radix 8192 would overflow int64, and (1, 0, 0, 0, 0)
    # and (4097, 0, 0, 0, 0) would share it
    config = toylm.ModelConfig(vocab_size=8192, context_len=5, embed_dim=2, hidden_dim=3, seed=1)
    assert config.vocab_size**config.context_len >= 2**63
    params = toylm.init_model(config)
    params.out_weight *= 8.0
    extra = [(1, 0, 0, 0, 0), (4097, 0, 0, 0, 0), (2, 8191, 8191, 8191, 8191)]
    for counts in ([3, 2, 1, 4, 2, 3], [2, 3, 1], [1, 1, 1]):
        c = repeated(counts, vocab=8192, context_len=5, seed=len(counts), extra=extra)
        assert len(np.unique(c.contexts, axis=0)) == len(counts)
        assert len(c.distinct[0]) == len(counts)
        check_evaluate(params, c)
        check_score_gates(params, c, K)
        check_score_corpus(params, c, K)


@pytest.mark.parametrize("n", SIZES[1:])
def test_topk_fidelity_study_equals_whole_matrix(params, n):
    c = corpus(n)
    _, probs, _ = whole_probs(params, c)
    grid = ls.default_k_grid(64)
    exact = ps.entropy_rows(probs)
    expected = []
    for k in grid:
        approx = ps.topk_entropy_rows(probs, k)
        r = ps.pearson(exact, approx) if float(approx.std()) > 0.0 else None
        expected.append({"k": k, "pearson_r": r, "extra_bytes_per_token": k * 12})
    assert ls.topk_fidelity_study(params, c, grid) == expected


def test_topk_fidelity_study_needs_two_rows(params):
    with pytest.raises(InvalidArgumentError, match="N >= 2"):
        ls.topk_fidelity_study(params, corpus(1), [1, 2])


SNAPSHOT_SCRIPT = """
import hashlib
from eaftlab import forgebench as fb, toylm
protocol = fb.BenchProtocol(pretrain_stages=(fb.TrainStage(200, "adam-lite", 3e-3),))
config, data, params = fb.pretrain_snapshot(
    fb.DomainSpec(peak_mass=0.99, seed=3), fb.ConflictSpec(), fb.GenerationSizes(), protocol, 1
)
digest = hashlib.sha256(b"".join(getattr(params, f).tobytes() for f in toylm.PARAM_FIELDS))
print(digest.hexdigest(), len(data.eval_a.distinct[0]), toylm.evaluate(params, data.eval_a))
"""


def test_snapshot_and_evaluation_independent_of_blas_threads():
    src = str(Path(eaftlab.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):  # never more than two
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        )
        proc = subprocess.run(
            [sys.executable, "-c", SNAPSHOT_SCRIPT], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    # the evaluation's distinct contexts span several blocks
    assert int(outputs[0].split()[1]) > 2 * R
    assert outputs[0] == outputs[1]
