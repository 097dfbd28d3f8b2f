"""Whole-corpus passes score ``toylm.ROW_BLOCK``-row blocks. A row's result
must not depend on how the rows are split: each pass equals a whole-matrix
oracle bit for bit at and around the block boundaries, and a short snapshot
plus one blocked evaluation gives the same bits at one and at two BLAS
threads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("n", SIZES)
def test_evaluate_equals_whole_matrix(params, n):
    c = corpus(n)
    logits, _, idx = whole_probs(params, c)
    logp = ps.log_softmax_rows(logits)
    expected = {
        "mean_nll": float((-logp[idx, c.targets]).mean()),
        "top1_accuracy": float((logits.argmax(axis=1) == c.targets).mean()),
    }
    assert toylm.evaluate(params, c) == expected


@pytest.mark.parametrize("n", SIZES)
def test_score_gates_equals_whole_matrix(params, n):
    c = corpus(n)
    _, probs, idx = whole_probs(params, c)
    gates, p_target = fb.score_gates(params, c, K)
    assert gates.tobytes() == ps.gate_rows(probs, K).tobytes()
    assert p_target.tobytes() == probs[idx, c.targets].tobytes()


@pytest.mark.parametrize("n", (0, *SIZES))
def test_score_corpus_equals_whole_matrix(params, n):
    c = corpus(n)
    _, probs, idx = whole_probs(params, c)
    expected = ls.RecordTable.of(
        source_id="corpus",
        position=idx,
        token_id=c.targets,
        p_target=probs[idx, c.targets],
        entropy_full=ps.entropy_rows(probs),
        entropy_topk=ps.topk_entropy_rows(probs, K),
        gate=ps.gate_rows(probs, K),
    )
    assert ls.score_corpus(params, c, K) == expected


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
print(digest.hexdigest(), len(data.eval_a), toylm.evaluate(params, data.eval_a))
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
    assert int(outputs[0].split()[1]) > 2 * R  # the evaluation spans several blocks
    assert outputs[0] == outputs[1]
