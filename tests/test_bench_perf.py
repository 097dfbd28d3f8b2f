"""scripts/bench_perf.py records BENCH_<n>.json after a many-minute run; it
must never replace a recorded one."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_perf.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_perf", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_existing_bench_file_refused_before_any_run(tmp_path, monkeypatch):
    bench_perf = load_script()
    recorded = tmp_path / "BENCH_5.json"
    recorded.write_text('{"kept": true}\n')
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 20}\n')
    monkeypatch.setattr(bench_perf, "ROOT", tmp_path)
    monkeypatch.setattr(bench_perf.subprocess, "run", lambda *a, **k: pytest.fail("a command ran"))
    monkeypatch.setattr(sys, "argv", ["bench_perf.py", "5"])
    with pytest.raises(SystemExit) as exit_info:
        bench_perf.main()
    assert str(recorded) in str(exit_info.value.code)
    assert recorded.read_text() == '{"kept": true}\n'
