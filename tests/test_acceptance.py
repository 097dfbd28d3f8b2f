"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured quantities at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from eaftlab import cli, forgebench as fb, landscape as ls, objectives as obj
from eaftlab import probstats as ps, toylm

from conftest import (
    ACCEPT_CONFLICT,
    ACCEPT_DOMAIN,
    ACCEPT_PROTOCOL,
    ACCEPT_SIZES,
    DYNAMICS_CAPTURE,
    DYNAMICS_LR,
    DYNAMICS_STEPS,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def _mean(cells, objective, field):
    vals = [getattr(c, field) for c in cells if c.objective == objective]
    return float(np.mean(vals)), float(np.std(vals))


ALL_OBJECTIVE_SPECS = {
    name: obj.named_objective(name, tau_entropy=0.3, tau_prob=0.05)
    for name in obj.OBJECTIVE_NAMES
}


def detached_token_loss(spec, logits, target, ref_logits, frozen_weight):
    logp = ps.log_softmax_rows(logits)
    loss = frozen_weight * (-logp[target])
    if spec.kl_coefficient > 0:
        p = ps.softmax_rows(logits)
        loss += spec.kl_coefficient * (p * (logp - ps.log_softmax_rows(ref_logits))).sum()
    return loss


def one_token(spec, logits, target, ref_logits=None):
    """The per-token objective kernel on one token, as a (1, V) batch."""
    ref = None if ref_logits is None else ref_logits[None, :]
    return obj.token_terms(spec, logits[None, :], np.array([target]), ref)


def grad_norm(terms):
    return float(np.sqrt((terms.grad[0] ** 2).sum()))


class TestCriterion1Gradients:
    def test_gradient_oracle(self):
        """Analytic gradients match central differences within 1e-5 relative."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        h, worst = 1e-5, 0.0
        cases_per_kind = 100
        for name, spec in ALL_OBJECTIVE_SPECS.items():
            for _ in range(cases_per_kind):
                z = rng.normal(0, 2.5, 64)
                ref = rng.normal(0, 2.5, 64) if spec.kl_coefficient > 0 else None
                t = int(rng.integers(0, 64))
                res = one_token(spec, z, t, ref)
                w = res.weights[0]
                fd = np.zeros(64)
                for j in range(64):
                    zp, zm = z.copy(), z.copy()
                    zp[j] += h
                    zm[j] -= h
                    fd[j] = (
                        detached_token_loss(spec, zp, t, ref, w)
                        - detached_token_loss(spec, zm, t, ref, w)
                    ) / (2 * h)
                denom = max(np.abs(fd).max(), 1e-8)
                worst = max(worst, float(np.abs(res.grad[0] - fd).max() / denom))
        # full tiny model: every parameter of every objective
        tiny = toylm.ModelConfig(vocab_size=8, context_len=3, embed_dim=2, hidden_dim=4, seed=5)
        params = toylm.init_model(tiny)
        ref_params = toylm.init_model(replace(tiny, seed=11))
        corpus = toylm.Corpus(rng.integers(0, 8, (6, 3)), rng.integers(0, 8, 6))
        worst_model = 0.0
        for name, spec0 in ALL_OBJECTIVE_SPECS.items():
            spec = replace(spec0, k=8)
            rp = ref_params if spec.kl_coefficient > 0 else None
            _, grads, per = toylm.loss_and_grads(params, corpus, spec, ref_params=rp)
            frozen_w = per.weights
            for f in toylm.PARAM_FIELDS:
                arr = getattr(params, f)
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + h
                    lp = _frozen_batch_loss(params, corpus, spec, rp, frozen_w)
                    arr[ix] = orig - h
                    lm = _frozen_batch_loss(params, corpus, spec, rp, frozen_w)
                    arr[ix] = orig
                    fd = (lp - lm) / (2 * h)
                    ga = getattr(grads, f)[ix]
                    denom = max(abs(fd), 1e-6)
                    worst_model = max(worst_model, abs(ga - fd) / denom)
                    it.iternext()
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-5 and worst_model < 1e-5 and elapsed < 30.0
        report(
            "criterion 1 (gradient oracle)",
            ok,
            f"token rel err {worst:.2e}, model rel err {worst_model:.2e}, {elapsed:.1f}s",
        )
        assert worst < 1e-5
        assert worst_model < 1e-5
        assert elapsed < 30.0


def _frozen_batch_loss(params, corpus, spec, ref_params, frozen_w):
    logits, _ = toylm.forward_batch(params, corpus.contexts)
    logp = ps.log_softmax_rows(logits)
    idx = np.arange(len(corpus))
    total = (frozen_w * -logp[idx, corpus.targets]).sum()
    if spec.kl_coefficient > 0:
        ref_logits, _ = toylm.forward_batch(ref_params, corpus.contexts)
        p = ps.softmax_rows(logits)
        logq = ps.log_softmax_rows(ref_logits)
        with np.errstate(invalid="ignore"):
            total += spec.kl_coefficient * np.where(p > 0, p * (logp - logq), 0.0).sum()
    return total / len(corpus)


class TestCriterion2SftRecovery:
    def test_constant_gate_reproduces_ce_bitwise(self):
        """Gate == 1, kl = 0 reproduces plain CE bit-for-bit on 1k tokens."""
        rng = np.random.default_rng(2)
        config = toylm.ModelConfig(seed=7)
        corpus = toylm.Corpus(rng.integers(0, 64, (1000, 3)), rng.integers(0, 64, 1000))
        params = toylm.init_model(config)
        ce = obj.named_objective("ce")
        one = obj.ObjectiveSpec(gate=obj.GateSpec("constant-one"), kl_coefficient=0.0)
        l_ce, g_ce, per_ce = toylm.loss_and_grads(params, corpus, ce)
        l_one, g_one, per_one = toylm.loss_and_grads(params, corpus, one)
        losses_equal = l_ce == l_one and all(
            a == b for a, b in zip(per_ce.losses, per_one.losses)
        )
        grads_equal = all(
            np.array_equal(getattr(g_ce, f), getattr(g_one, f)) for f in toylm.PARAM_FIELDS
        )
        # the reference CE path from raw primitives, bit-for-bit
        logits, _ = toylm.forward_batch(params, corpus.contexts)
        logp = ps.log_softmax_rows(logits)
        ref_losses = -logp[np.arange(1000), corpus.targets]
        ref_equal = all(
            float(ref_losses[i]) == per_ce.losses[i] for i in range(1000)
        )
        # and a short training run under both specs ends bit-identically
        def run(spec):
            return toylm.train(
                toylm.TrainRun(
                    config=config, corpus=corpus, objective=spec,
                    steps=50, batch_size=32, seed=3,
                )
            ).params
        pa, pb = run(ce), run(one)
        train_equal = all(
            np.array_equal(getattr(pa, f), getattr(pb, f)) for f in toylm.PARAM_FIELDS
        )
        ok = losses_equal and grads_equal and ref_equal and train_equal
        report(
            "criterion 2 (exact SFT recovery)",
            ok,
            f"losses {losses_equal}, grads {grads_equal}, reference {ref_equal}, training {train_equal}",
        )
        assert ok


class TestCriterion3GateScaling:
    def test_grad_norm_ratio_equals_gate(self):
        """Per token, ||grad(EAFT)|| / ||grad(CE)|| equals the gate within 1e-12."""
        rng = np.random.default_rng(3)
        n = 10000
        logits = rng.normal(0, 3.0, (n, 64))
        targets = rng.integers(0, 64, n)
        p = ps.softmax_rows(logits)
        idx = np.arange(n)
        gates = ps.gate_rows(p, 20)
        grad_ce = p.copy()
        grad_ce[idx, targets] -= 1.0
        grad_eaft = grad_ce * gates[:, None]
        norm_ce = np.sqrt((grad_ce**2).sum(axis=1))
        norm_eaft = np.sqrt((grad_eaft**2).sum(axis=1))
        ratios = norm_eaft / norm_ce
        worst = float(np.abs(ratios - gates).max())
        # spot-check the hand-built rows against the objective kernel, one token at a time
        spec_ce, spec_eaft = obj.named_objective("ce"), obj.named_objective("eaft")
        spot = 0.0
        for i in rng.integers(0, n, 50):
            rc = one_token(spec_ce, logits[i], int(targets[i]))
            re = one_token(spec_eaft, logits[i], int(targets[i]))
            spot = max(spot, abs(grad_norm(re) / grad_norm(rc) - re.weights[0]))
        # zero-gate tokens produce exactly zero gradients
        peaked = np.full(64, -30.0)
        peaked[0] = 30.0
        res = one_token(obj.named_objective("hard_mask", tau_entropy=0.5), peaked, 3)
        zero_ok = res.weights[0] == 0.0 and np.all(res.grad == 0.0)
        ok = worst < 1e-12 and spot < 1e-12 and zero_ok
        report(
            "criterion 3 (gate-scaling identity)",
            ok,
            f"max |ratio-gate| {worst:.2e} over {n} cases, spot {spot:.2e}, zero-gate exact {zero_ok}",
        )
        assert ok


class TestCriterion4TopkFidelity:
    def test_fidelity_and_memory(self):
        """Top-20 vs exact entropy r >= 0.99 on the fixed synthetic corpus."""
        t0 = time.perf_counter()
        probs = ls.synthetic_fidelity_corpus()  # V=4096, 10k tokens
        rows = ls.fidelity_from_probs(probs, [1, 2, 5, 10, 20, 50, 100, 4096])
        by_k = {r["k"]: r for r in rows}
        r20 = by_k[20]["pearson_r"]
        r_full = by_k[4096]["pearson_r"]
        bytes20 = by_k[20]["extra_bytes_per_token"]
        elapsed = time.perf_counter() - t0
        ok = (
            r20 >= 0.99
            and abs(r_full - 1.0) <= 1e-12
            and bytes20 == 240
            and bytes20 < 400
            and elapsed < 60.0
        )
        report(
            "criterion 4 (top-K fidelity)",
            ok,
            f"r(20)={r20:.5f}, r(V)={r_full:.15f}, bytes(20)={bytes20}, {elapsed:.1f}s",
        )
        assert r20 >= 0.99
        assert abs(r_full - 1.0) <= 1e-12
        assert bytes20 == 240 and bytes20 < 400
        assert elapsed < 60.0


class TestCriterion5LandscapeGap:
    def test_conflict_cluster_vs_rollouts(self, pretrained_seed0):
        """Injected corpus shows a confident-conflict cluster rollouts lack.

        The quadrant quantile is 0.45 here: with the default injection rate
        0.3, a 0.15 quantile caps the quadrant at half the injected mass, so
        the capture quantile must scale with the injected share for recall
        to be measurable (see the quadrant notes in the README).
        """
        t0 = time.perf_counter()
        config, data, snapshot = pretrained_seed0
        labels, thresholds = fb.classify_conflicts(snapshot, data.finetune, q=0.45)
        is_conflict = data.finetune_kinds == "conflict"
        cc = labels == "confident-conflict"
        share_ft = float(cc.mean())
        recall = float(cc[is_conflict].mean())
        rollouts = fb.sample_rollouts(
            snapshot, data.ground_truth, 100, 40, config.context_len, seed=777
        )
        recs = ls.score_corpus(snapshot, rollouts)
        share_ro = ls.quadrant_stats(recs, thresholds=thresholds)["shares"][
            "confident-conflict"
        ]
        elapsed = time.perf_counter() - t0
        ratio = share_ft / max(share_ro, 1e-12)
        ok = share_ft >= 10 * share_ro and recall >= 0.5 and elapsed < 180.0
        report(
            "criterion 5 (landscape gap)",
            ok,
            f"share {share_ft:.3f} vs rollout {share_ro:.4f} (x{ratio:.0f}), recall {recall:.2f}, {elapsed:.0f}s",
        )
        assert share_ft >= 10 * share_ro
        assert recall >= 0.5
        assert elapsed < 180.0


class TestCriterion6MaskingPilot:
    def test_pilot_beats_ce_retention(self, bench_cells):
        """Masking the confident-conflict quadrant mitigates forgetting."""
        ce = {c.seed: c.retention_delta for c in bench_cells if c.objective == "ce"}
        cm = {
            c.seed: c.retention_delta
            for c in bench_cells
            if c.objective == "conflict_mask"
        }
        seeds = sorted(ce)
        wins = sum(cm[s] < ce[s] for s in seeds)
        # all-5-seeds agreement is the exact one-sided sign/Wilcoxon test at
        # p = 2^-5 = 0.03125 < 0.05
        ce_mean, ce_sd = _mean(bench_cells, "ce", "retention_delta")
        cm_mean, cm_sd = _mean(bench_cells, "conflict_mask", "retention_delta")
        ok = wins == len(seeds) and cm_mean < ce_mean
        report(
            "criterion 6 (masking pilot)",
            ok,
            f"conflict-mask {cm_mean:.2f}±{cm_sd:.2f} < CE {ce_mean:.2f}±{ce_sd:.2f}, "
            f"{wins}/{len(seeds)} seeds (sign test p={2**-len(seeds):.4f})",
        )
        assert wins == len(seeds)
        assert cm_mean < ce_mean


class TestCriterion7Pareto:
    def test_eaft_pareto_front(self, bench_cells, bench_runtime):
        """EAFT halves forgetting at comparable acquisition; the hard mask
        pays for its retention with strictly worse acquisition."""
        ce_ret, _ = _mean(bench_cells, "ce", "retention_delta")
        ea_ret, _ = _mean(bench_cells, "eaft", "retention_delta")
        ce_acq, _ = _mean(bench_cells, "ce", "acquisition_nll")
        ea_acq, _ = _mean(bench_cells, "eaft", "acquisition_nll")
        hm_acq, _ = _mean(bench_cells, "hard_mask", "acquisition_nll")
        ret_ok = ea_ret <= 0.5 * ce_ret
        acq_ok = ea_acq <= 1.10 * ce_acq
        hm_ok = hm_acq > ea_acq
        time_ok = bench_runtime < 600.0
        ok = ret_ok and acq_ok and hm_ok and time_ok
        report(
            "criterion 7 (EAFT Pareto)",
            ok,
            f"retention {ea_ret:.2f} vs {ce_ret:.2f} (ratio {ea_ret/ce_ret:.2f} <= 0.5: {ret_ok}), "
            f"acquisition {ea_acq:.3f} vs {ce_acq:.3f} (ratio {ea_acq/ce_acq:.2f} <= 1.10: {acq_ok}), "
            f"hard-mask {hm_acq:.3f} > eaft {ea_acq:.3f}: {hm_ok}, grid {bench_runtime:.0f}s < 600: {time_ok}",
        )
        assert ret_ok
        assert acq_ok
        assert hm_ok
        assert time_ok


class TestCriterion8Dynamics:
    def test_subgroup_dynamics(self, pretrained_seed0):
        """CE overfits the low-entropy conflicts; the entropy gate keeps them
        stable; both learn the high-entropy group (CE drop >= 50%)."""
        config, data, snapshot = pretrained_seed0
        tracks = {}
        scores = fb.score_gates(snapshot, data.finetune, ACCEPT_PROTOCOL.k)
        for name in ("ce", "eaft"):
            spec, pw = fb.resolve_objective(name, scores, ACCEPT_PROTOCOL)
            result = toylm.train(
                toylm.TrainRun(
                    config=config,
                    corpus=data.finetune,
                    objective=spec,
                    optimizer=ACCEPT_PROTOCOL.finetune_optimizer,
                    learning_rate=DYNAMICS_LR,
                    steps=DYNAMICS_STEPS,
                    batch_size=ACCEPT_PROTOCOL.finetune_batch,
                    capture_every=DYNAMICS_CAPTURE,
                    probe_size=1024,
                    seed=13,
                    init=snapshot,
                    position_weights=pw,
                )
            )
            tracks[name] = ls.dynamics_track(result.captures)
        lo_ce = tracks["ce"][-1]["low_entropy_ce"]
        lo_eaft = tracks["eaft"][-1]["low_entropy_ce"]
        drops = {
            name: 1.0 - rows[-1]["high_entropy_ce"] / rows[0]["high_entropy_ce"]
            for name, rows in tracks.items()
        }
        lo_ok = lo_ce < lo_eaft
        hi_ok = drops["ce"] >= 0.5 and drops["eaft"] >= 0.5
        ok = lo_ok and hi_ok
        report(
            "criterion 8 (subgroup dynamics)",
            ok,
            f"low-entropy CE {lo_ce:.3f} < gated {lo_eaft:.3f}: {lo_ok}; "
            f"high-entropy drops ce {drops['ce']:.0%}, eaft {drops['eaft']:.0%} (>= 50%)",
        )
        assert lo_ok
        assert hi_ok


class TestCriterion9Determinism:
    def test_roundtrips_and_parallel_independence(self, tmp_path):
        """Bit-identical reruns, lossless round-trips, parallelism-independent
        benchmark output."""
        import json

        # (a) identical configs -> byte-identical trainlog.csv
        rng = np.random.default_rng(9)
        seqs = [[int(t) for t in rng.integers(0, 16, 24)] for _ in range(60)]
        cfg = {
            "version": "1",
            "model": {"vocab_size": 16, "context_len": 3, "embed_dim": 4, "hidden_dim": 8, "seed": 1},
            "corpus": {"sequences": seqs},
            "objective": {"name": "eaft", "k": 16},
            "optimizer": {"kind": "sgd-momentum", "learning_rate": 0.05},
            "train": {"steps": 30, "batch_size": 16, "capture_every": 10, "seed": 4},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["train", str(cfg_path), str(tmp_path / "r1")]) == 0
        assert cli.main(["train", str(cfg_path), str(tmp_path / "r2")]) == 0
        log_ok = (tmp_path / "r1/trainlog.csv").read_bytes() == (
            tmp_path / "r2/trainlog.csv"
        ).read_bytes()

        # (b) checkpoint save/load bit-exact
        config2, params2 = toylm.load_checkpoint(tmp_path / "r1/checkpoint.ckpt")
        toylm.save_checkpoint(tmp_path / "resaved.ckpt", config2, params2)
        ckpt_ok = (tmp_path / "r1/checkpoint.ckpt").read_bytes() == (
            tmp_path / "resaved.ckpt"
        ).read_bytes()

        # (c) JSONL export -> ingest is lossless
        records = ls.ingest_records(tmp_path / "r1/records.jsonl")
        ls.export_records(records, tmp_path / "records2.jsonl")
        ingest_ok = ls.ingest_records(tmp_path / "records2.jsonl") == records

        # (d) cmd_bench output independent of parallelism degree
        proto = {
            "version": "1",
            "domain": {"seed": 3},
            "conflict": {},
            "sizes": {"pretrain_sequences": 120, "finetune_walks": 150, "eval_sequences": 100},
            "protocol": {"hidden_dim": 32, "pretrain_stages": [[300, "adam-lite", 0.003]], "finetune_steps": 20},
            "objectives": ["ce", "eaft"],
            "seeds": [0, 1],
        }
        proto_path = tmp_path / "proto.json"
        proto_path.write_text(json.dumps(proto))
        assert cli.main(["bench", str(proto_path), str(tmp_path / "b1"), "--parallel", "1"]) == 0
        assert cli.main(["bench", str(proto_path), str(tmp_path / "b2"), "--parallel", "2"]) == 0
        bench_ok = (tmp_path / "b1/pareto.csv").read_bytes() == (
            tmp_path / "b2/pareto.csv"
        ).read_bytes()

        ok = log_ok and ckpt_ok and ingest_ok and bench_ok
        report(
            "criterion 9 (determinism & round-trips)",
            ok,
            f"trainlog {log_ok}, checkpoint {ckpt_ok}, jsonl {ingest_ok}, parallel merge {bench_ok}",
        )
        assert ok


class TestMonotonePressure:
    def test_retention_rises_with_conflict_rate(self, snapshots):
        """Spec properties: CE retention damage is non-decreasing in the
        injection rate (seed-mean, directional), and a conflict-free corpus
        leaves retention inside a small continued-training noise band.

        The pretraining corpus does not depend on the injection spec, so the
        shared per-seed snapshots serve every rho.
        """
        rhos = (0.0, 0.15, 0.3, 0.6)
        means = {rho: [] for rho in rhos}
        ce = obj.named_objective("ce", k=ACCEPT_PROTOCOL.k)
        for seed, (config, _, params) in snapshots.items():
            gen_seed = fb.derive_domain_seed(ACCEPT_DOMAIN, seed)
            for rho in rhos:
                data = fb.generate_domains(
                    replace(ACCEPT_DOMAIN, seed=gen_seed),
                    fb.ConflictSpec(conflict_rate=rho, novelty_rate=0.3),
                    ACCEPT_SIZES,
                    ACCEPT_PROTOCOL.context_len,
                )
                base = toylm.evaluate(params, data.eval_a)["mean_nll"]
                tuned = toylm.train(
                    toylm.TrainRun(
                        config=config,
                        corpus=data.finetune,
                        objective=ce,
                        optimizer=ACCEPT_PROTOCOL.finetune_optimizer,
                        learning_rate=ACCEPT_PROTOCOL.finetune_lr,
                        steps=ACCEPT_PROTOCOL.finetune_steps,
                        batch_size=ACCEPT_PROTOCOL.finetune_batch,
                        seed=seed * 977 + 13,
                        init=params,
                    )
                ).params
                means[rho].append(toylm.evaluate(tuned, data.eval_a)["mean_nll"] - base)
        curve = [float(np.mean(means[rho])) for rho in rhos]
        monotone_ok = all(curve[i] <= curve[i + 1] + 1e-9 for i in range(len(curve) - 1))
        # conflict-free band recorded from calibration: continued training on
        # the deduplicated sample costs ~0.4 nats of entropy-calibration
        # drift; "no forgetting pressure" means staying inside that band and
        # far below the conflict-driven damage at the default rate
        band = 0.60
        no_conflict_ok = abs(curve[0]) <= band and curve[0] <= 0.2 * curve[2]
        report(
            "property (monotone pressure)",
            monotone_ok and no_conflict_ok,
            "seed-mean retention by rho "
            + ", ".join(f"{r}:{v:+.2f}" for r, v in zip(rhos, curve))
            + f"; rho=0 within ±{band} and <= 20% of rho=0.3: {no_conflict_ok}",
        )
        assert monotone_ok
        assert no_conflict_ok


class TestOptimizerProperty:
    def test_eaft_beats_ce_under_adam(self, snapshots):
        """Spec property: the margin is not an artifact of sgd-momentum. Under
        adam-lite at lr 3e-3, EAFT forgets less and acquires more than CE on
        every seed, from the same snapshots."""
        adam = replace(ACCEPT_PROTOCOL, finetune_optimizer="adam-lite", finetune_lr=3e-3)
        cells = {
            (name, seed): fb.run_cell(
                name, seed, domain=ACCEPT_DOMAIN, conflict=ACCEPT_CONFLICT, sizes=ACCEPT_SIZES,
                protocol=adam, _pretrained=snapshots[seed],
            )
            for name in ("ce", "eaft")
            for seed in sorted(snapshots)
        }
        seeds = sorted(snapshots)
        ret_wins = sum(cells["eaft", s].retention_delta < cells["ce", s].retention_delta for s in seeds)
        acc_wins = sum(cells["eaft", s].acquisition_acc > cells["ce", s].acquisition_acc for s in seeds)
        ok = ret_wins == acc_wins == len(seeds)
        report(
            "property (adam-lite)",
            ok,
            "retention eaft/ce "
            + ", ".join(f"{cells['eaft', s].retention_delta:.3f}/{cells['ce', s].retention_delta:.3f}" for s in seeds)
            + "; acquisition acc eaft/ce "
            + ", ".join(f"{cells['eaft', s].acquisition_acc:.3f}/{cells['ce', s].acquisition_acc:.3f}" for s in seeds)
            + f"; lower retention {ret_wins}/{len(seeds)}, higher acc {acc_wins}/{len(seeds)}",
        )
        assert ret_wins == len(seeds)
        assert acc_wins == len(seeds)
