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
from .errors import InvalidArgumentError

TOKEN_KINDS = ("conflict", "novel", "unchanged")
QUADRANTS = ("confident-conflict", "confident-correct", "exploratory", "other")


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
        if self.markov_order < 1:
            raise InvalidArgumentError("markov_order must be >= 1")
        if not 0.0 <= self.peaked_fraction <= 1.0:
            raise InvalidArgumentError("peaked_fraction outside [0, 1]")
        m = self.resolved_active()
        if not (1.0 / m) < self.peak_mass <= 1.0:
            raise InvalidArgumentError(
                f"peak_mass {self.peak_mass} outside (1/{m}, 1]"
            )
        if self.vocab_size < 4:
            raise InvalidArgumentError("vocab_size must be >= 4")

    def resolved_active(self) -> int:
        if self.active_tokens is not None:
            if not 2 <= self.active_tokens <= self.vocab_size:
                raise InvalidArgumentError("active_tokens outside [2, vocab_size]")
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
        for name in ("conflict_rate", "novelty_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidArgumentError(f"{name} outside [0, 1]")
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
        for name in ("pretrain_sequences", "finetune_walks", "eval_sequences"):
            if getattr(self, name) < 100:
                raise InvalidArgumentError(f"{name} must be >= 100 sequences")
        if self.sequence_len < 8:
            raise InvalidArgumentError("sequence_len must be >= 8")
        if self.finetune_cap < 1:
            raise InvalidArgumentError("finetune_cap must be >= 1")


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
    capture_every: int = 0
    probe_size: int = 512


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


def _walk(rng: np.random.Generator, cdf: np.ndarray, order: int, active: int, length: int):
    # cdf[state].searchsorted(u, side="right") on one rng.random() draw is
    # Generator.choice(V, p=rows[state]) step for step, without its checks
    seq = [int(t) for t in rng.integers(0, active, size=order)]
    state = 0
    for tok in seq:
        state = state * active + tok
    strip = active**order
    for _ in range(length - order):
        nxt = int(cdf[state].searchsorted(rng.random(), side="right"))
        seq.append(nxt)
        state = (state * active + nxt) % strip
    return seq


def _positions(sequences, context_len: int, gt_order: int, active: int):
    ctxs, tgts, states = [], [], []
    for seq in sequences:
        for i in range(len(seq) - context_len):
            window = seq[i : i + context_len]
            ctxs.append(window)
            tgts.append(seq[i + context_len])
            state = 0
            for tok in window[-gt_order:]:
                state = state * active + int(tok)
            states.append(state)
    return (
        np.array(ctxs, dtype=np.int64),
        np.array(tgts, dtype=np.int64),
        np.array(states, dtype=np.int64),
    )


def generate_domains(
    domain: DomainSpec,
    conflict: ConflictSpec,
    sizes: GenerationSizes = GenerationSizes(),
    context_len: int = 3,
) -> DomainData:
    """Manufacture the pretraining domain and the rewritten fine-tune corpus."""
    if context_len < domain.markov_order:
        raise InvalidArgumentError("context_len must be >= markov_order")
    rng = np.random.default_rng(domain.seed)
    m = domain.resolved_active()
    order = domain.markov_order
    rows, dominant, peaked_mask = _build_tables(domain, rng)
    n_states = rows.shape[0]
    cdf = _transition_cdf(rows)

    pre_seqs = [_walk(rng, cdf, order, m, sizes.sequence_len) for _ in range(sizes.pretrain_sequences)]
    pre_ctx, pre_tgt, pre_states = _positions(pre_seqs, context_len, order, m)

    # curated fine-tune pool: walk the chain, keep at most `cap` positions per
    # context so each rewritten fact is seen only a few times per epoch
    cap = sizes.finetune_cap
    kept: dict[int, int] = {}
    ft_ctx, ft_tgt, ft_states = [], [], []
    for _ in range(sizes.finetune_walks):
        seq = _walk(rng, cdf, order, m, sizes.sequence_len)
        for i in range(len(seq) - context_len):
            window = seq[i : i + context_len]
            state = 0
            for tok in window[-order:]:
                state = state * m + int(tok)
            if kept.get(state, 0) < cap:
                kept[state] = kept.get(state, 0) + 1
                ft_ctx.append(window)
                ft_tgt.append(seq[i + context_len])
                ft_states.append(state)
    ft_ctx = np.array(ft_ctx, dtype=np.int64)
    ft_tgt = np.array(ft_tgt, dtype=np.int64)
    ft_states = np.array(ft_states, dtype=np.int64)
    ft_n = len(ft_tgt)

    eval_seqs = [_walk(rng, cdf, order, m, sizes.sequence_len) for _ in range(sizes.eval_sequences)]
    ev_ctx, ev_tgt, ev_states = _positions(eval_seqs, context_len, order, m)

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
    for s in sorted(novel_contexts):
        label = int(rng.integers(0, m))
        novel_labels[s] = label
        row = np.zeros(domain.vocab_size)
        tail = rng.dirichlet(np.ones(m - 1) * domain.tail_concentration)
        row[np.delete(np.arange(m), label)] = tail * (1.0 - conflict.novel_peak_mass)
        row[label] = conflict.novel_peak_mass
        novel_rows[s] = row

    kinds = np.full(ft_n, "unchanged", dtype=object)
    new_targets = ft_tgt.copy()
    for i in range(ft_n):
        s = int(ft_states[i])
        if s in conflict_contexts:
            new_targets[i] = conflict_labels[s]
            kinds[i] = "conflict"
        elif s in novel_contexts:
            new_targets[i] = int(rng.choice(domain.vocab_size, p=novel_rows[s]))
            kinds[i] = "novel"

    keep_a = np.array([int(s) not in novel_contexts for s in ev_states])
    eval_a = toylm.Corpus(ev_ctx[keep_a], ev_tgt[keep_a])
    b_idx = np.where(~keep_a)[0]
    b_targets = np.array(
        [int(rng.choice(domain.vocab_size, p=novel_rows[int(ev_states[i])])) for i in b_idx],
        dtype=np.int64,
    )
    eval_b = toylm.Corpus(ev_ctx[b_idx], b_targets)

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
    logits, _ = toylm.forward_batch(params, corpus.contexts)
    probs = probstats.softmax_rows(logits)
    idx = np.arange(len(corpus))
    return probstats.gate_rows(probs, k), probs[idx, corpus.targets]


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
    tau_h = probstats.percentile_threshold(gates, q)
    tau_p = probstats.percentile_threshold(p_t, q)
    low_h = gates <= tau_h
    low_p = p_t <= tau_p
    labels = np.full(len(corpus), "other", dtype=object)
    labels[low_h & low_p] = "confident-conflict"
    labels[low_h & ~low_p] = "confident-correct"
    labels[~low_h & low_p] = "exploratory"
    return labels, (float(tau_h), float(tau_p))


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
    v = params.embedding.shape[0]
    seqs = []
    for _ in range(n_sequences):
        seq = [int(t) for t in rng.integers(0, ground_truth.active, size=context_len)]
        for _ in range(sequence_len - context_len):
            logits = toylm.forward(params, seq[-context_len:])
            probs = probstats.softmax_rows(logits[None, :])[0]
            seq.append(int(rng.choice(v, p=probs)))
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
            )
        )
        params = result.params
    return config, data, params


def resolve_objective(
    name: str,
    snapshot: toylm.ToyModelParams,
    data: DomainData,
    protocol: BenchProtocol,
):
    """Concrete objective spec plus any frozen per-position weights.

    The hard-mask threshold is the ``mask_quantile`` percentile of the
    snapshot gate distribution (the boundary of the confident cluster, so the
    mask keeps only uncertain tokens for training). The masking pilot freezes
    its token set once, from snapshot statistics, like any offline data audit:
    its positions get weight zero and the live gate stays constant-one.
    """
    position_weights = None
    if name == "hard_mask":
        gates, _ = score_gates(snapshot, data.finetune, protocol.k)
        tau = probstats.percentile_threshold(gates, protocol.mask_quantile)
        spec = obj.named_objective(name, tau_entropy=tau, k=protocol.k)
    elif name == "conflict_mask":
        labels, _ = classify_conflicts(
            snapshot, data.finetune, protocol.pilot_quantile, protocol.k
        )
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
    labels, _ = classify_conflicts(snapshot, data.finetune, protocol.pilot_quantile, protocol.k)
    cc_share = float((labels == "confident-conflict").mean())
    spec, position_weights = resolve_objective(objective_name, snapshot, data, protocol)
    result = toylm.train(
        toylm.TrainRun(
            config=config,
            corpus=data.finetune,
            objective=spec,
            optimizer=protocol.finetune_optimizer,
            learning_rate=protocol.finetune_lr,
            steps=protocol.finetune_steps,
            batch_size=protocol.finetune_batch,
            capture_every=protocol.capture_every,
            probe_size=protocol.probe_size,
            seed=seed * 977 + 13,
            init=snapshot,
            ref_params=snapshot if spec.kl_coefficient > 0 else None,
            position_weights=position_weights,
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
