"""Synthetic two-domain catastrophic-forgetting benchmark.

Domain A is an order-``m`` Markov chain over a small active token set whose
transition rows are either peaked (a dominant next token carrying most of the
mass) or near-uniform. The fine-tuning corpus rewrites part of that chain:

  * conflict positions: peaked contexts whose pretraining evidence was
    strongest get re-labeled to a fixed non-dominant token, so the external
    supervision contradicts a confident prior;
  * novel positions: previously high-entropy contexts acquire a fresh peaked
    transition (domain B), i.e. genuinely learnable new patterns;
  * the rest of the corpus is left unchanged.

The fine-tune corpus is deduplicated (a visit cap per context) so each
rewritten fact is seen only a handful of times, matching the few-epoch regime
fine-tuning runs in. Retention is the rise in held-out NLL on domain A
(novel contexts excluded, since those are the target domain by construction);
acquisition is NLL/accuracy on the new domain-B transitions.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import objectives as obj
from . import probstats, toylm
from .errors import InvalidArgumentError, check_ints, check_reals

TOKEN_KINDS = ("conflict", "novel", "unchanged")


@dataclass(frozen=True)
class DomainSpec:
    """Parameters of the domain-A chain.

    ``active_tokens`` bounds the emission support so the context space stays
    learnable by the toy model; tokens outside the active set simply never
    occur (a sparse-vocabulary stand-in). ``None`` picks min(20, V // 2).
    """

    markov_order: int = 2
    vocab_size: int = 64
    peaked_fraction: float = 0.6
    peak_mass: float = 0.95
    seed: int = 0
    active_tokens: int | None = None
    tail_concentration: float = 2.0
    flat_concentration: float = 50.0

    def __post_init__(self):
        check_ints(self, 1, "markov_order")
        check_ints(self, 4, "vocab_size")
        check_ints(self, 0, "seed")
        if self.active_tokens is not None:
            check_ints(self, 2, "active_tokens")
            if self.active_tokens > self.vocab_size:
                raise InvalidArgumentError(f"active_tokens {self.active_tokens} exceeds vocab_size {self.vocab_size}")
        check_reals(self, "[0, 1]", "peaked_fraction")
        check_reals(self, f"({1 / self.resolved_active()}, 1]", "peak_mass")
        check_reals(self, "(0, inf)", "tail_concentration", "flat_concentration")

    def resolved_active(self) -> int:
        if self.active_tokens is not None:
            return self.active_tokens
        return min(20, self.vocab_size // 2)


@dataclass(frozen=True)
class ConflictSpec:
    """How the fine-tuning corpus rewrites the chain.

    ``novel_peak_mass`` is the dominance of the injected domain-B rows;
    novel-position targets are sampled from those rows, so domain B carries
    label noise just like domain A.
    """

    conflict_rate: float = 0.3
    novelty_rate: float = 0.3
    novel_peak_mass: float = 0.95

    def __post_init__(self):
        check_reals(self, "[0, 1]", "conflict_rate", "novelty_rate")
        check_reals(self, "(0, 1]", "novel_peak_mass")
        if self.conflict_rate + self.novelty_rate > 1.0:
            raise InvalidArgumentError("conflict_rate + novelty_rate must be <= 1")


@dataclass(frozen=True)
class GenerationSizes:
    pretrain_sequences: int = 600
    finetune_walks: int = 1200
    eval_sequences: int = 150
    sequence_len: int = 42
    finetune_cap: int = 2  # max kept positions per context (corpus dedup)

    def __post_init__(self):
        check_ints(self, 100, "pretrain_sequences", "finetune_walks", "eval_sequences")
        check_ints(self, 8, "sequence_len")
        check_ints(self, 1, "finetune_cap")


@dataclass
class GroundTruth:
    """Transition tables and the injection log, for oracle checks."""

    rows: np.ndarray           # (n_states, V) domain-A conditional rows
    dominant: np.ndarray       # (n_states,) dominant token of peaked rows, -1 otherwise
    peaked_mask: np.ndarray    # (n_states,) bool
    conflict_contexts: set
    novel_contexts: set
    conflict_labels: dict      # state -> forced target
    novel_labels: dict         # state -> domain-B dominant token
    novel_rows: dict           # state -> domain-B conditional row (V,)
    order: int
    active: int

    def state_of(self, context) -> int:
        """Ravel the last ``order`` context tokens into a state index."""
        tail = list(context)[-self.order:]
        state = 0
        for tok in tail:
            state = state * self.active + int(tok)
        return state


@dataclass
class DomainData:
    pretrain: toylm.Corpus
    finetune: toylm.Corpus
    finetune_kinds: np.ndarray     # per-position entry of TOKEN_KINDS
    finetune_states: np.ndarray
    eval_a: toylm.Corpus
    eval_b: toylm.Corpus
    ground_truth: GroundTruth


@dataclass(frozen=True)
class BenchCell:
    objective: str
    seed: int
    retention_delta: float
    acquisition_nll: float
    acquisition_acc: float
    conflict_quadrant_share: float


@dataclass(frozen=True)
class TrainStage:
    steps: int
    optimizer: str
    learning_rate: float


@dataclass(frozen=True)
class BenchProtocol:
    """Everything a benchmark cell run depends on besides the objective/seed."""

    embed_dim: int = 16
    hidden_dim: int = 96
    context_len: int = 3
    pretrain_stages: tuple = (
        TrainStage(18000, "adam-lite", 3e-3),
        TrainStage(8000, "adam-lite", 1e-3),
        TrainStage(4000, "adam-lite", 3e-4),
    )
    pretrain_batch: int = 64
    finetune_steps: int = 75
    finetune_optimizer: str = "sgd-momentum"
    finetune_lr: float = 0.1
    finetune_batch: int = 32
    k: int = 20
    pilot_quantile: float = 0.15   # joint entropy/probability percentile of the pilot
    mask_quantile: float = 0.60    # entropy percentile for the hard-mask variant

    def __post_init__(self):
        check_ints(
            self, 1, "embed_dim", "hidden_dim", "context_len", "pretrain_batch", "finetune_batch", "k"
        )
        check_ints(self, 0, "finetune_steps")
        toylm.check_optimizer(
            self.finetune_optimizer, self.finetune_lr, "finetune_optimizer", "finetune_lr"
        )
        check_reals(self, "(0, 1)", "pilot_quantile", "mask_quantile")


DEFAULT_OBJECTIVE_GRID = list(obj.OBJECTIVE_NAMES)


# ---------------------------------------------------------------------------
# Domain generation
# ---------------------------------------------------------------------------


def _build_tables(domain: DomainSpec, rng: np.random.Generator):
    m = domain.resolved_active()
    n_states = m**domain.markov_order
    v = domain.vocab_size
    peaked_mask = np.zeros(n_states, dtype=bool)
    n_peaked = int(round(domain.peaked_fraction * n_states))
    peaked_mask[rng.permutation(n_states)[:n_peaked]] = True
    rows = np.zeros((n_states, v))
    dominant = np.full(n_states, -1, dtype=np.int64)
    for s in range(n_states):
        if peaked_mask[s]:
            d = int(rng.integers(0, m))
            dominant[s] = d
            tail = rng.dirichlet(np.ones(m - 1) * domain.tail_concentration)
            row = np.zeros(v)
            row[np.delete(np.arange(m), d)] = tail * (1.0 - domain.peak_mass)
            row[d] = domain.peak_mass
        else:
            row = np.zeros(v)
            row[:m] = rng.dirichlet(np.ones(m) * domain.flat_concentration)
        rows[s] = row
    return rows, dominant, peaked_mask


def _transition_cdf(rows: np.ndarray) -> np.ndarray:
    """Per-state CDF rows, normalized exactly as ``Generator.choice`` does."""
    cdf = rows.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def _sample(cdf: np.ndarray, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The token drawn by uniform ``u[i]`` from CDF row ``cdf[states[i]]``.

    On a non-decreasing row the count of entries <= u is
    ``searchsorted(u, side="right")``, which is ``Generator.choice(V, p=row)``
    on the same ``random()`` draw, without its checks.
    """
    return (cdf[states] <= u[:, None]).sum(axis=1)


def _walks(rng: np.random.Generator, cdf: np.ndarray, order: int, active: int, n: int, length: int):
    """``n`` chain walks as an (n, length) array, advanced in lock-step.

    Each walk draws its ``order`` start tokens and then its ``length - order``
    uniforms, walk after walk: the same stream, in the same order, as one
    ``Generator.choice`` per token.
    """
    seqs = np.empty((n, length), dtype=np.int64)
    u = np.empty((n, length - order))
    for w in range(n):
        seqs[w, :order] = rng.integers(0, active, size=order)
        u[w] = rng.random(length - order)
    state = np.zeros(n, dtype=np.int64)
    for i in range(order):
        state = state * active + seqs[:, i]
    strip = active**order
    for i in range(order, length):
        nxt = _sample(cdf, state, u[:, i - order])
        seqs[:, i] = nxt
        state = (state * active + nxt) % strip
    return seqs


def _positions(seqs: np.ndarray, context_len: int, order: int, active: int):
    """Every (context, target, chain state) of the walks, walk by walk."""
    windows = np.lib.stride_tricks.sliding_window_view(seqs, context_len + 1, axis=1)
    windows = windows.reshape(-1, context_len + 1)
    states = np.zeros(len(windows), dtype=np.int64)
    for i in range(context_len - order, context_len):
        states = states * active + windows[:, i]
    return np.ascontiguousarray(windows[:, :context_len]), windows[:, context_len].copy(), states


def _first_visits(states: np.ndarray, cap: int) -> np.ndarray:
    """Mask of the positions among the first ``cap`` visits of their state."""
    by_state = np.argsort(states, kind="stable")
    sorted_states = states[by_state]
    starts = np.flatnonzero(np.r_[True, sorted_states[1:] != sorted_states[:-1]])
    counts = np.diff(np.r_[starts, len(states)])
    rank = np.empty(len(states), dtype=np.int64)
    rank[by_state] = np.arange(len(states)) - np.repeat(starts, counts)
    return rank < cap


def check_context_len(domain: DomainSpec, sizes: GenerationSizes, context_len: int) -> None:
    """Reject a context that cannot hold the chain state (shorter than
    ``markov_order``) or whose window of ``context_len + 1`` tokens does not
    fit in a walk of ``sequence_len`` tokens."""
    if not domain.markov_order <= context_len < sizes.sequence_len:
        raise InvalidArgumentError(
            f"context_len {context_len} must lie in [domain.markov_order, sizes.sequence_len)"
            f" = [{domain.markov_order}, {sizes.sequence_len})"
        )


def generate_domains(
    domain: DomainSpec,
    conflict: ConflictSpec,
    sizes: GenerationSizes = GenerationSizes(),
    context_len: int = 3,
) -> DomainData:
    """Manufacture the pretraining domain and the rewritten fine-tune corpus."""
    check_context_len(domain, sizes, context_len)
    rng = np.random.default_rng(domain.seed)
    m = domain.resolved_active()
    order = domain.markov_order
    rows, dominant, peaked_mask = _build_tables(domain, rng)
    n_states = rows.shape[0]
    cdf = _transition_cdf(rows)

    def positions(n_walks: int):
        seqs = _walks(rng, cdf, order, m, n_walks, sizes.sequence_len)
        return _positions(seqs, context_len, order, m)

    pre_ctx, pre_tgt, pre_states = positions(sizes.pretrain_sequences)
    # curated fine-tune pool: walk the chain, keep at most `cap` positions per
    # context so each rewritten fact is seen only a few times per epoch
    ft_ctx, ft_tgt, ft_states = positions(sizes.finetune_walks)
    kept = _first_visits(ft_states, sizes.finetune_cap)
    ft_ctx, ft_tgt, ft_states = ft_ctx[kept], ft_tgt[kept], ft_states[kept]
    ft_n = len(ft_tgt)
    ev_ctx, ev_tgt, ev_states = positions(sizes.eval_sequences)

    pre_visits = np.bincount(pre_states, minlength=n_states)
    pre_tails = np.zeros(n_states, dtype=np.int64)
    conflicting = pre_tgt != dominant[pre_states]
    np.add.at(pre_tails, pre_states[conflicting & peaked_mask[pre_states]], 1)
    ft_visits = np.bincount(ft_states, minlength=n_states)

    # conflicts target the strongest priors: contexts whose pretraining
    # evidence is plentiful and near-unanimous, in tiers of falling strength
    with np.errstate(invalid="ignore"):
        agree = np.where(pre_visits > 0, (pre_visits - pre_tails) / np.maximum(pre_visits, 1), 0.0)
    ids = np.arange(n_states)
    eligible = peaked_mask & (ft_visits > 0)
    tiers = [
        ids[eligible & (pre_visits >= 15) & (agree >= 0.97)],
        ids[eligible & (pre_visits >= 10) & (agree >= 0.94)],
        ids[eligible & (pre_visits >= 5)],
        ids[eligible],
    ]
    seen: set[int] = set()
    ordered: list[int] = []
    for tier in tiers:
        for s in tier[np.argsort(-pre_visits[tier], kind="stable")]:
            if int(s) not in seen:
                seen.add(int(s))
                ordered.append(int(s))
    conflict_contexts: set[int] = set()
    budget = conflict.conflict_rate * ft_n
    acc = 0
    for s in ordered:
        if acc >= budget:
            break
        conflict_contexts.add(s)
        acc += int(ft_visits[s])
    conflict_labels = {
        s: int(rng.choice(np.delete(np.arange(m), dominant[s])))
        for s in sorted(conflict_contexts)
    }

    novel_contexts: set[int] = set()
    budget = conflict.novelty_rate * ft_n
    acc = 0
    for s in rng.permutation(ids[(~peaked_mask) & (ft_visits > 0)]):
        if acc >= budget:
            break
        novel_contexts.add(int(s))
        acc += int(ft_visits[s])
    novel_labels: dict[int, int] = {}
    novel_rows: dict[int, np.ndarray] = {}
    # domain-B rows by state; rows of other states stay zero and are never read
    novel_table = np.zeros_like(rows)
    for s in sorted(novel_contexts):
        label = int(rng.integers(0, m))
        novel_labels[s] = label
        row = novel_table[s]
        tail = rng.dirichlet(np.ones(m - 1) * domain.tail_concentration)
        row[np.delete(np.arange(m), label)] = tail * (1.0 - conflict.novel_peak_mass)
        row[label] = conflict.novel_peak_mass
        novel_rows[s] = row
    is_conflict = np.zeros(n_states, dtype=bool)
    is_conflict[list(conflict_contexts)] = True
    is_novel = np.zeros(n_states, dtype=bool)
    is_novel[list(novel_contexts)] = True
    label_of = np.zeros(n_states, dtype=np.int64)
    label_of[list(conflict_labels)] = list(conflict_labels.values())
    novel_cdf = np.zeros_like(rows)
    novel_cdf[is_novel] = _transition_cdf(novel_table[is_novel])

    def novel_draws(states: np.ndarray) -> np.ndarray:
        return _sample(novel_cdf, states, rng.random(len(states)))

    kinds = np.full(ft_n, "unchanged", dtype=object)
    new_targets = ft_tgt.copy()
    conflicted = is_conflict[ft_states]
    new_targets[conflicted] = label_of[ft_states[conflicted]]
    kinds[conflicted] = "conflict"
    novel = is_novel[ft_states] & ~conflicted
    new_targets[novel] = novel_draws(ft_states[novel])
    kinds[novel] = "novel"

    keep_a = ~is_novel[ev_states]
    eval_a = toylm.Corpus(ev_ctx[keep_a], ev_tgt[keep_a])
    eval_b = toylm.Corpus(ev_ctx[~keep_a], novel_draws(ev_states[~keep_a]))

    gt = GroundTruth(
        rows=rows,
        dominant=dominant,
        peaked_mask=peaked_mask,
        conflict_contexts=conflict_contexts,
        novel_contexts=novel_contexts,
        conflict_labels=conflict_labels,
        novel_labels=novel_labels,
        novel_rows=novel_rows,
        order=order,
        active=m,
    )
    return DomainData(
        pretrain=toylm.Corpus(pre_ctx, pre_tgt),
        finetune=toylm.Corpus(ft_ctx, new_targets),
        finetune_kinds=kinds,
        finetune_states=ft_states,
        eval_a=eval_a,
        eval_b=eval_b,
        ground_truth=gt,
    )


# ---------------------------------------------------------------------------
# Scoring and classification
# ---------------------------------------------------------------------------


def score_gates(params: toylm.ToyModelParams, corpus: toylm.Corpus, k: int = 20):
    """Per-position (gate, p_target) under the given model."""
    toylm.check_corpus_ids(corpus, params.embedding.shape[0])
    gates, p_target = np.empty(len(corpus)), np.empty(len(corpus))
    for rows, logits in toylm.row_blocks(params, corpus.contexts):
        probs = probstats.softmax_rows(logits)
        gates[rows] = probstats.gate_rows(probs, k)
        p_target[rows] = probs[np.arange(len(probs)), corpus.targets[rows]]
    return gates, p_target


def classify_conflicts(
    params: toylm.ToyModelParams,
    corpus: toylm.Corpus,
    q: float = 0.15,
    k: int = 20,
):
    """Quadrant labels per token plus the frozen thresholds (tau_H, tau_p)."""
    if len(corpus) == 0:
        raise InvalidArgumentError("corpus must be non-empty")
    gates, p_t = score_gates(params, corpus, k)
    return probstats.quadrant_labels(gates, p_t, q)


def sample_rollouts(
    params: toylm.ToyModelParams,
    ground_truth: GroundTruth,
    n_sequences: int,
    sequence_len: int,
    context_len: int,
    seed: int,
) -> toylm.Corpus:
    """Sequences sampled from the model itself at temperature 1 (on-policy)."""
    rng = np.random.default_rng(seed)
    only_row = np.zeros(1, dtype=np.int64)
    seqs = []
    for _ in range(n_sequences):
        seq = [int(t) for t in rng.integers(0, ground_truth.active, size=context_len)]
        for _ in range(sequence_len - context_len):
            logits = toylm.forward(params, seq[-context_len:])
            cdf = _transition_cdf(probstats.softmax_rows(logits[None, :]))
            seq.append(int(_sample(cdf, only_row, rng.random(1))[0]))
        seqs.append(seq)
    return toylm.Corpus.from_sequences(seqs, context_len)


# ---------------------------------------------------------------------------
# Cell runner
# ---------------------------------------------------------------------------


def derive_domain_seed(domain: DomainSpec, cell_seed: int) -> int:
    """Mix the domain seed with the cell seed into one generation seed."""
    return int(np.random.default_rng([domain.seed, cell_seed]).integers(2**31))


def pretrain_snapshot(
    domain: DomainSpec,
    conflict: ConflictSpec,
    sizes: GenerationSizes,
    protocol: BenchProtocol,
    seed: int,
):
    data = generate_domains(
        replace(domain, seed=derive_domain_seed(domain, seed)),
        conflict,
        sizes,
        protocol.context_len,
    )
    if len(data.eval_b) == 0:  # checked before the pretraining it would waste
        raise InvalidArgumentError("conflict.novelty_rate: no domain-B token in the eval split to measure acquisition on")
    config = toylm.ModelConfig(
        vocab_size=domain.vocab_size,
        context_len=protocol.context_len,
        embed_dim=protocol.embed_dim,
        hidden_dim=protocol.hidden_dim,
        seed=seed,
    )
    params = toylm.init_model(config)
    ce = obj.named_objective("ce", k=protocol.k)
    for i, stage in enumerate(protocol.pretrain_stages):
        result = toylm.train(
            toylm.TrainRun(
                config=config,
                corpus=data.pretrain,
                objective=ce,
                optimizer=stage.optimizer,
                learning_rate=stage.learning_rate,
                steps=stage.steps,
                batch_size=protocol.pretrain_batch,
                seed=seed * 101 + i,
                init=params,
                log_stats=False,
            )
        )
        params = result.params
    return config, data, params


def resolve_objective(name: str, scores, protocol: BenchProtocol):
    """Concrete objective spec plus any frozen per-position weights.

    ``scores`` is the ``score_gates`` (gate, p_target) of the snapshot on the
    fine-tune corpus. The hard-mask threshold is the ``mask_quantile``
    percentile of the snapshot gate distribution (the boundary of the
    confident cluster, so the mask keeps only uncertain tokens for
    training). The masking pilot freezes its token set once, from snapshot
    statistics, like any offline data audit: its positions get weight zero
    and the live gate stays constant-one.
    """
    position_weights = None
    if name == "hard_mask":
        tau = probstats.percentile_threshold(scores[0], protocol.mask_quantile)
        spec = obj.named_objective(name, tau_entropy=tau, k=protocol.k)
    elif name == "conflict_mask":
        labels, _ = probstats.quadrant_labels(*scores, protocol.pilot_quantile)
        position_weights = (labels != "confident-conflict").astype(np.float64)
        spec = obj.named_objective("ce", k=protocol.k)
    else:
        spec = obj.named_objective(name, k=protocol.k)
    return spec, position_weights


def run_cell(
    objective_name: str,
    seed: int,
    domain: DomainSpec = DomainSpec(),
    conflict: ConflictSpec = ConflictSpec(),
    sizes: GenerationSizes = GenerationSizes(),
    protocol: BenchProtocol = BenchProtocol(),
    _pretrained=None,
) -> BenchCell:
    """Pretrain with CE, snapshot, fine-tune with the objective, evaluate."""
    if objective_name not in obj.OBJECTIVE_NAMES:
        raise InvalidArgumentError(f"unknown objective {objective_name!r}")
    if _pretrained is None:
        config, data, snapshot = pretrain_snapshot(domain, conflict, sizes, protocol, seed)
    else:
        config, data, snapshot = _pretrained
    base = toylm.evaluate(snapshot, data.eval_a)
    scores = score_gates(snapshot, data.finetune, protocol.k)
    labels, _ = probstats.quadrant_labels(*scores, protocol.pilot_quantile)
    cc_share = float((labels == "confident-conflict").mean())
    spec, position_weights = resolve_objective(objective_name, scores, protocol)
    result = toylm.train(
        toylm.TrainRun(
            config=config,
            corpus=data.finetune,
            objective=spec,
            optimizer=protocol.finetune_optimizer,
            learning_rate=protocol.finetune_lr,
            steps=protocol.finetune_steps,
            batch_size=protocol.finetune_batch,
            seed=seed * 977 + 13,
            init=snapshot,
            ref_params=snapshot if spec.kl_coefficient > 0 else None,
            position_weights=position_weights,
            log_stats=False,
        )
    )
    after = toylm.evaluate(result.params, data.eval_a)
    acq = toylm.evaluate(result.params, data.eval_b)
    return BenchCell(
        objective=objective_name,
        seed=seed,
        retention_delta=float(after["mean_nll"] - base["mean_nll"]),
        acquisition_nll=float(acq["mean_nll"]),
        acquisition_acc=float(acq["top1_accuracy"]),
        conflict_quadrant_share=cc_share,
    )


def _run_seed(args) -> list[BenchCell]:
    (seed, objective_names, domain, conflict, sizes, protocol) = args
    pretrained = pretrain_snapshot(domain, conflict, sizes, protocol, seed)
    return [
        run_cell(name, seed, domain, conflict, sizes, protocol, _pretrained=pretrained)
        for name in objective_names
    ]


def run_grid(
    objective_names=None,
    seeds=(0, 1, 2, 3, 4),
    domain: DomainSpec = DomainSpec(),
    conflict: ConflictSpec = ConflictSpec(),
    sizes: GenerationSizes = GenerationSizes(),
    protocol: BenchProtocol = BenchProtocol(),
    parallel: int = 1,
) -> list[BenchCell]:
    """Every (objective, seed) cell; the pretrained snapshot is shared per seed.

    Cells are independent; the merged result is sorted by (objective, seed)
    so it does not depend on the execution order or degree of parallelism.
    """
    names = list(objective_names) if objective_names else list(DEFAULT_OBJECTIVE_GRID)
    jobs = [(int(s), names, domain, conflict, sizes, protocol) for s in seeds]
    cells: list[BenchCell] = []
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            for chunk in pool.map(_run_seed, jobs):
                cells.extend(chunk)
    else:
        for job in jobs:
            cells.extend(_run_seed(job))
    cells.sort(key=lambda c: (c.objective, c.seed))
    return cells


def pareto_report(cells) -> list[dict]:
    """Aggregate cells per objective: mean and sd of the trade-off metrics."""
    cells = list(cells)
    if not cells:
        raise InvalidArgumentError("need at least one cell")
    by_obj: dict[str, list[BenchCell]] = {}
    for cell in cells:
        by_obj.setdefault(cell.objective, []).append(cell)
    rows = []
    for name in sorted(by_obj):
        # aggregate in (objective, seed) order so the report is independent
        # of the order cells arrive in (parallel runners merge arbitrarily)
        group = sorted(by_obj[name], key=lambda c: c.seed)
        ret = np.array([c.retention_delta for c in group])
        nll = np.array([c.acquisition_nll for c in group])
        acc = np.array([c.acquisition_acc for c in group])
        rows.append(
            {
                "objective": name,
                "n_seeds": len(group),
                "retention_delta_mean": float(ret.mean()),
                "retention_delta_sd": float(ret.std()),
                "acquisition_nll_mean": float(nll.mean()),
                "acquisition_nll_sd": float(nll.std()),
                "acquisition_acc_mean": float(acc.mean()),
            }
        )
    return rows
