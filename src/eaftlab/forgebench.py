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

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import objectives as obj
from . import probstats, toylm
from .errors import InvalidArgumentError, check_ints, check_reals, is_int

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
    """Transition tables and the injection log by chain state, for oracle checks."""

    rows: np.ndarray           # (n_states, V) domain-A conditional rows
    dominant: np.ndarray       # (n_states,) dominant token of peaked rows, -1 otherwise
    peaked_mask: np.ndarray    # (n_states,) bool
    kind: np.ndarray           # (n_states,) entry of TOKEN_KINDS
    label: np.ndarray          # (n_states,) conflict target or domain-B dominant token, 0 otherwise
    novel_rows: np.ndarray     # (n_states, V) domain-B conditional rows, zero outside novel states
    order: int
    active: int


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


@dataclass(frozen=True)
class Experiment:
    """A whole forgetting-benchmark run: the (objective x seed) grid of
    ``run_grid`` over one domain, conflict, sizes and protocol. The
    committed acceptance protocol is ``protocols/acceptance.json``, read
    through ``cli.load_experiment``."""

    domain: DomainSpec = DomainSpec()
    conflict: ConflictSpec = ConflictSpec()
    sizes: GenerationSizes = GenerationSizes()
    protocol: BenchProtocol = BenchProtocol()
    objectives: tuple = tuple(DEFAULT_OBJECTIVE_GRID)
    seeds: tuple = (0, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# Domain generation
# ---------------------------------------------------------------------------


def _peaked_row(rng: np.random.Generator, m: int, v: int, peak_mass: float, concentration: float):
    """``(d, row)``: a row over ``v`` tokens whose dominant token ``d``, drawn
    among the first ``m``, carries ``peak_mass``; the other ``m - 1`` share the
    rest by a Dirichlet draw of the given concentration."""
    d = int(rng.integers(0, m))
    row = np.zeros(v)
    row[np.delete(np.arange(m), d)] = rng.dirichlet(np.ones(m - 1) * concentration) * (1.0 - peak_mass)
    row[d] = peak_mass
    return d, row


def _build_tables(domain: DomainSpec, rng: np.random.Generator):
    m = domain.resolved_active()
    n_states = m**domain.markov_order
    v = domain.vocab_size
    peaked_mask = np.zeros(n_states, dtype=bool)
    peaked_mask[rng.permutation(n_states)[: int(round(domain.peaked_fraction * n_states))]] = True
    rows = np.zeros((n_states, v))
    dominant = np.full(n_states, -1, dtype=np.int64)
    for s in range(n_states):
        if peaked_mask[s]:
            dominant[s], rows[s] = _peaked_row(rng, m, v, domain.peak_mass, domain.tail_concentration)
        else:
            rows[s, :m] = rng.dirichlet(np.ones(m) * domain.flat_concentration)
    return rows, dominant, peaked_mask


def _transition_cdf(rows: np.ndarray) -> np.ndarray:
    """Per-state CDF rows, normalized exactly as ``Generator.choice`` does."""
    cdf = rows.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def _chain_state(tokens: np.ndarray, order: int, active: int) -> np.ndarray:
    """The state of each row of ``tokens``: its last ``order`` tokens, read
    as the digits of a number in base ``active``."""
    state = np.zeros(tokens.shape[:-1], dtype=np.int64)
    for i in range(tokens.shape[-1] - order, tokens.shape[-1]):
        state = state * active + tokens[..., i]
    return state


def _sample(cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The token drawn by uniform ``u[i]`` from CDF row ``cdf_rows[i]``.

    On a non-decreasing row the count of entries <= u is
    ``searchsorted(u, side="right")``, which is ``Generator.choice(V, p=row)``
    on the same ``random()`` draw, without its checks.
    """
    return (cdf_rows <= u[:, None]).sum(axis=1)


def _walks(rng: np.random.Generator, next_cdf, starts: int, active: int, n: int, length: int):
    """``n`` walks as an (n, length) array, advanced in lock-step.

    Each walk draws its ``starts`` start tokens and then its ``length -
    starts`` uniforms, walk after walk: the same stream, in the same order,
    as one ``Generator.choice`` per token. ``next_cdf`` maps the windows of
    ``starts`` tokens before a position to the CDF rows drawn from there.
    """
    seqs = np.empty((n, length), dtype=np.int64)
    u = np.empty((n, length - starts))
    for w in range(n):
        seqs[w, :starts] = rng.integers(0, active, size=starts)
        u[w] = rng.random(length - starts)
    for i in range(starts, length):
        seqs[:, i] = _sample(next_cdf(seqs[:, i - starts : i]), u[:, i - starts])
    return seqs


def _positions(seqs: np.ndarray, context_len: int, order: int, active: int, cap: int | None = None):
    """The (context, target, chain state) of the walks' positions, walk by walk; with
    ``cap``, only each state's first ``cap`` visits, and only their windows are copied."""
    windows = np.lib.stride_tricks.sliding_window_view(seqs, context_len + 1, axis=1)
    states = _chain_state(windows[..., :context_len], order, active)
    kept = np.ones(states.shape, dtype=bool) if cap is None else _first_visits(states, cap)
    return windows[kept, :context_len], windows[kept, context_len], states[kept]


def _first_visits(states: np.ndarray, cap: int) -> np.ndarray:
    """Mask of the positions, in row-major order, among the first ``cap`` visits
    of their state: those whose entry ``cap`` places earlier in the stable state
    order belongs to another state."""
    by_state = np.argsort(states, axis=None, kind="stable")
    sorted_states = states.ravel()[by_state]
    kept = np.ones(states.size, dtype=bool)
    kept[by_state[cap:]] = sorted_states[cap:] != sorted_states[:-cap]
    return kept.reshape(states.shape)


def _within_budget(states: np.ndarray, visits: np.ndarray, budget: float) -> np.ndarray:
    """The leading ``states`` taken while the ``visits`` of those taken before
    stay below ``budget``, so the taken visits can exceed it by the last
    state's."""
    taken_before = np.cumsum(visits[states]) - visits[states]
    return states[taken_before < budget]


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

    def positions(n_walks: int, cap: int | None = None):
        seqs = _walks(rng, lambda w: cdf[_chain_state(w, order, m)], order, m, n_walks, sizes.sequence_len)
        return _positions(seqs, context_len, order, m, cap)

    pre_ctx, pre_tgt, pre_states = positions(sizes.pretrain_sequences)
    # curated fine-tune pool: walk the chain, keep at most `cap` positions per
    # context so each rewritten fact is seen only a few times per epoch
    ft_ctx, ft_tgt, ft_states = positions(sizes.finetune_walks, sizes.finetune_cap)
    ft_n = len(ft_tgt)
    ev_ctx, ev_tgt, ev_states = positions(sizes.eval_sequences)

    pre_visits = np.bincount(pre_states, minlength=n_states)
    conflicting = (pre_tgt != dominant[pre_states]) & peaked_mask[pre_states]
    pre_tails = np.bincount(pre_states[conflicting], minlength=n_states)
    ft_visits = np.bincount(ft_states, minlength=n_states)

    # conflicts target the strongest priors: contexts whose pretraining
    # evidence is plentiful and near-unanimous, in tiers of falling strength,
    # by pretraining visits within a tier, each context at its first tier
    agree = (pre_visits - pre_tails) / np.maximum(pre_visits, 1)
    eligible = peaked_mask & (ft_visits > 0)
    tiers = (
        eligible & (pre_visits >= 15) & (agree >= 0.97),
        eligible & (pre_visits >= 10) & (agree >= 0.94),
        eligible & (pre_visits >= 5),
        eligible,
    )
    ranked = np.concatenate([ids[np.argsort(-pre_visits[ids], kind="stable")] for ids in map(np.flatnonzero, tiers)])
    _, first = np.unique(ranked, return_index=True)
    conflicts = np.sort(_within_budget(ranked[np.sort(first)], ft_visits, conflict.conflict_rate * ft_n))
    # per state: its kind, and its forced conflict target or domain-B dominant token
    kind = np.full(n_states, "unchanged", dtype=object)
    kind[conflicts] = "conflict"
    label = np.zeros(n_states, dtype=np.int64)
    for s in conflicts:
        label[s] = rng.choice(np.delete(np.arange(m), dominant[s]))

    candidates = rng.permutation(np.flatnonzero(~peaked_mask & (ft_visits > 0)))
    novels = np.sort(_within_budget(candidates, ft_visits, conflict.novelty_rate * ft_n))
    kind[novels] = "novel"
    # domain-B rows by state; rows of other states stay zero
    novel_rows = np.zeros_like(rows)
    for s in novels:
        label[s], novel_rows[s] = _peaked_row(
            rng, m, domain.vocab_size, conflict.novel_peak_mass, domain.tail_concentration
        )
    novel_cdf = np.zeros_like(rows)
    novel_cdf[novels] = _transition_cdf(novel_rows[novels])

    def novel_draws(states: np.ndarray) -> np.ndarray:
        return _sample(novel_cdf[states], rng.random(len(states)))

    ft_kinds = kind[ft_states]
    conflicted, novel = ft_kinds == "conflict", ft_kinds == "novel"
    ft_tgt[conflicted] = label[ft_states[conflicted]]
    ft_tgt[novel] = novel_draws(ft_states[novel])

    keep_a = kind[ev_states] != "novel"
    return DomainData(
        pretrain=toylm.Corpus(pre_ctx, pre_tgt),
        finetune=toylm.Corpus(ft_ctx, ft_tgt),
        finetune_kinds=ft_kinds,
        finetune_states=ft_states,
        eval_a=toylm.Corpus(ev_ctx[keep_a], ev_tgt[keep_a]),
        eval_b=toylm.Corpus(ev_ctx[~keep_a], novel_draws(ev_states[~keep_a])),
        ground_truth=GroundTruth(rows, dominant, peaked_mask, kind, label, novel_rows, order, m),
    )


# ---------------------------------------------------------------------------
# Scoring and classification
# ---------------------------------------------------------------------------


def score_gates(params: toylm.ToyModelParams, corpus: toylm.Corpus, k: int = 20):
    """Per-position (gate, p_target) under the given model, which runs once
    per distinct context (``toylm.distinct_blocks``)."""
    toylm.check_corpus_ids(corpus, params.embedding.shape[0])
    gates, p_target = np.empty(len(corpus)), np.empty(len(corpus))
    for positions, rows, logits in toylm.distinct_blocks(params, corpus):
        probs = probstats.softmax_rows(logits)
        gates[positions] = probstats.gate_rows(probs, k)[rows]
        p_target[positions] = probs[rows, corpus.targets[positions]]
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
    """Sequences sampled from the model itself at temperature 1 (on-policy),
    one ``forward_batch`` per position over all of them (``_walks``)."""
    if not (is_int(n_sequences) and n_sequences >= 1):
        raise InvalidArgumentError(f"n_sequences must be an integer >= 1, got {n_sequences!r}")
    if not (is_int(sequence_len) and sequence_len > context_len):
        raise InvalidArgumentError(f"sequence_len must be an integer > context_len {context_len}, got {sequence_len!r}")

    def next_cdf(contexts: np.ndarray) -> np.ndarray:
        return _transition_cdf(probstats.softmax_rows(toylm.forward_batch(params, contexts)[0]))

    rng = np.random.default_rng(seed)
    seqs = _walks(rng, next_cdf, context_len, ground_truth.active, n_sequences, sequence_len)
    return toylm.Corpus(*_positions(seqs, context_len, ground_truth.order, ground_truth.active)[:2])


# ---------------------------------------------------------------------------
# Cell runner
# ---------------------------------------------------------------------------


def derive_domain_seed(domain: DomainSpec, cell_seed: int) -> int:
    """Mix the domain seed with the cell seed into one generation seed."""
    return int(np.random.default_rng([domain.seed, cell_seed]).integers(2**31))


@dataclass(frozen=True, eq=False)
class Snapshot:
    """A pretrained model and the domains it was trained on; it unpacks and
    indexes as ``(config, data, params)``.

    It scores itself on first use, and only once: ``base``, the snapshot's
    ``evaluate`` on ``eval_a``, and ``pilot(k, q)``, its scores on the
    fine-tune corpus. Every cell of a seed reads them instead of scoring the
    same model again.
    """

    config: toylm.ModelConfig
    data: DomainData
    params: toylm.ToyModelParams
    _pilots: dict = field(default_factory=dict, init=False, repr=False)

    def __iter__(self):
        return iter((self.config, self.data, self.params))

    def __getitem__(self, index):
        return tuple(self)[index]

    @functools.cached_property
    def base(self) -> dict:
        """``toylm.evaluate`` of the snapshot on ``eval_a``."""
        return toylm.evaluate(self.params, self.data.eval_a)

    def pilot(self, k: int, q: float):
        """``((gates, p_target), cc_share)``: the read-only ``score_gates`` of
        the fine-tune corpus at top-min(k, V), the k the objectives' gates
        use, and the share of its positions in the confident-conflict
        quadrant at percentile ``q``."""
        key = (min(k, self.config.vocab_size), q)
        if key not in self._pilots:
            scores = score_gates(self.params, self.data.finetune, key[0])
            for array in scores:
                array.flags.writeable = False
            labels, _ = probstats.quadrant_labels(*scores, q)
            self._pilots[key] = scores, float((labels == "confident-conflict").mean())
        return self._pilots[key]


def pretrain_snapshot(
    domain: DomainSpec,
    conflict: ConflictSpec,
    sizes: GenerationSizes,
    protocol: BenchProtocol,
    seed: int,
) -> Snapshot:
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
    return Snapshot(config, data, params)


def resolve_objective(name: str, scores, protocol: BenchProtocol):
    """Concrete objective spec plus any frozen per-position weights.

    ``scores`` is the ``Snapshot.pilot`` (gate, p_target) of the snapshot on
    the fine-tune corpus. The hard-mask threshold is the ``mask_quantile``
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
    """Pretrain with CE, snapshot, fine-tune with the objective, evaluate.

    ``_pretrained``, a ``Snapshot`` of this seed, skips the pretraining; its
    own scores of the snapshot are reused.
    """
    if objective_name not in obj.OBJECTIVE_NAMES:
        raise InvalidArgumentError(f"unknown objective {objective_name!r}")
    pretrained = _pretrained
    if pretrained is None:
        pretrained = pretrain_snapshot(domain, conflict, sizes, protocol, seed)
    config, data, snapshot = pretrained
    scores, cc_share = pretrained.pilot(protocol.k, protocol.pilot_quantile)
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
        retention_delta=float(after["mean_nll"] - pretrained.base["mean_nll"]),
        acquisition_nll=float(acq["mean_nll"]),
        acquisition_acc=float(acq["top1_accuracy"]),
        conflict_quadrant_share=cc_share,
    )


def _run_seed(job) -> list[BenchCell]:
    seed, e = job
    pretrained = pretrain_snapshot(e.domain, e.conflict, e.sizes, e.protocol, seed)
    return [
        run_cell(name, seed, e.domain, e.conflict, e.sizes, e.protocol, _pretrained=pretrained)
        for name in e.objectives
    ]


def run_grid(experiment: Experiment = Experiment(), parallel: int = 1) -> list[BenchCell]:
    """Every (objective, seed) cell; the pretrained snapshot is shared per seed.

    Cells are independent; the merged result is sorted by (objective, seed)
    so it does not depend on the execution order or degree of parallelism.
    A pool starts all its workers at once, so it gets one per seed at most.
    """
    jobs = [(seed, experiment) for seed in experiment.seeds]
    workers = min(parallel, len(jobs))
    cells: list[BenchCell] = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing: only when used

        with ProcessPoolExecutor(max_workers=workers) as pool:
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
