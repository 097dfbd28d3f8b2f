"""Shared fixtures: pretrained snapshots are computed once per seed and
reused by the benchmark, acceptance, and property tests."""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from eaftlab import cli
from eaftlab import forgebench as fb

# The acceptance protocol: library defaults, except that the domain-A peak
# is sharpened so that pretraining produces genuinely stubborn priors (gate
# ~0.03 on conflicts). The printed acceptance criteria rest on this file.
ACCEPTANCE_FILE = Path(__file__).resolve().parent.parent / "protocols" / "acceptance.json"
ACCEPT = cli.load_experiment(ACCEPTANCE_FILE)
ACCEPT_DOMAIN = ACCEPT.domain
ACCEPT_CONFLICT = ACCEPT.conflict
ACCEPT_SIZES = ACCEPT.sizes
ACCEPT_PROTOCOL = ACCEPT.protocol

# Dynamics runs need slow transit through the entropy bands and full corpus
# coverage, hence the smaller learning rate and longer schedule.
DYNAMICS_LR = 0.015
DYNAMICS_STEPS = 600
DYNAMICS_CAPTURE = 50


class NoDecoding:
    """A JSON decoder that fails on any line, patched over
    ``landscape._DECODER``: only a column file hit reads records then."""

    def decode(self, line):
        raise AssertionError(f"a line was parsed: {line!r}")

_TIMINGS = {"pretrain": 0.0, "cells": 0.0}


def _timed_snapshot(seed):
    """One seed's snapshot and the seconds its pretraining took."""
    t0 = time.perf_counter()
    snapshot = fb.pretrain_snapshot(ACCEPT.domain, ACCEPT.conflict, ACCEPT.sizes, ACCEPT.protocol, seed)
    return snapshot, time.perf_counter() - t0


@pytest.fixture(scope="session")
def snapshots():
    """seed -> (model config, domain data, snapshot params), pretrained in a
    pool of at most two worker processes. Each worker times its own seeds,
    and the recorded pretraining time is their sum: the serial cost."""
    workers = min(2, os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        timed = dict(zip(ACCEPT.seeds, pool.map(_timed_snapshot, ACCEPT.seeds)))
    _TIMINGS["pretrain"] = sum(seconds for _, seconds in timed.values())
    return {seed: snapshot for seed, (snapshot, _) in timed.items()}


@pytest.fixture(scope="session")
def pretrained_seed0(snapshots):
    return snapshots[0]


@pytest.fixture(scope="session")
def bench_cells(snapshots):
    """The full objective grid over the acceptance seeds."""
    t0 = time.perf_counter()
    cells = []
    for seed in ACCEPT.seeds:
        for name in ACCEPT.objectives:
            cells.append(
                fb.run_cell(
                    name,
                    seed,
                    domain=ACCEPT.domain,
                    conflict=ACCEPT.conflict,
                    sizes=ACCEPT.sizes,
                    protocol=ACCEPT.protocol,
                    _pretrained=snapshots[seed],
                )
            )
    _TIMINGS["cells"] = time.perf_counter() - t0
    cells.sort(key=lambda c: (c.objective, c.seed))
    return cells


@pytest.fixture(scope="session")
def bench_runtime(bench_cells):
    """Wall-clock of the full grid: shared pretraining plus all cells."""
    return _TIMINGS["pretrain"] + _TIMINGS["cells"]
