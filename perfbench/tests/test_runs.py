"""End-to-end checks of the benchmark command at tiny sizes."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cold_spec
import run as bench
import warm_http
from common import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _run(workload, trace, seed=3, seconds=1, cwd=ROOT, timeout=170):
    return subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _leftovers():
    """Processes whose command line names the benchmark's work dir."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if b".perfbench-work" in cmdline:
            found.append(int(entry.name))
    return found


@pytest.mark.parametrize("workload", [w["name"]
                                      for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not _leftovers()
    assert not (ROOT / ".perfbench-work").exists()


def test_benchmark_json_names_the_code_constants():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        bench.END_TO_END)
    why = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert f"{warm_http.RATE} req/s" in why["warm-http"]


def test_same_seed_same_specs_and_oracle_answers():
    first, second = cold_spec.Corpus(9), cold_spec.Corpus(9)
    for a, b in zip(first.block(0) + first.block(1),
                    second.block(0) + second.block(1)):
        assert a.text == b.text and a.queries() == b.queries()
    sizes = [_result(_run("cold-spec", 1, seed=9))["metrics"]["spec.size"]
             for _ in range(2)]
    assert sizes[0] == sizes[1] and sizes[0]["value"] > 0


def test_a_wrong_oracle_value_is_caught(monkeypatch, capsys):
    real = cold_spec.batch

    def one_wrong(program):
        ask, opened = real(program)
        if program.text == first_program:
            ask = type(ask)(ask.kind, ask.text, not ask.expect)
        return [ask, opened]

    first_program = cold_spec.Corpus(4, tiny=True).block(0)[0].text
    monkeypatch.setattr(cold_spec, "batch", one_wrong)
    code = bench.main(["--workload", "cold-spec", "--seed", "4",
                       "--seconds", "0.2", "--tiny"])
    out = capsys.readouterr()
    result = json.loads(out.out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert "oracle mismatch" in out.err


def test_excessive_generator_lag_makes_the_run_invalid(monkeypatch, capsys):
    monkeypatch.setattr(warm_http, "LAG_LIMIT_MS", -1.0)
    code = bench.main(["--workload", "warm-http", "--seed", "2",
                       "--seconds", "1", "--tiny"])
    out = capsys.readouterr()
    assert code == 2
    assert "open loop invalid" in out.err
    assert '"metrics"' not in out.out
    assert not _leftovers()


def test_interrupt_stops_every_server_process():
    proc = subprocess.Popen(
        COMMAND + ["--workload", "tier-mixed", "--seed", "1",
                   "--seconds", "60", "--trace", "0", "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.monotonic() + 60
    while not _leftovers() and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _leftovers(), "the tier never started"
    time.sleep(1.0)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert b'"metrics"' not in out
    assert not _leftovers()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "cold-spec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
