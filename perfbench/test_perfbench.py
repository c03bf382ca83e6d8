"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest perfbench -q

Small workload shapes keep them quick; one test runs the default ``market``
shape (about ten seconds) to pin it to the baseline it is meant to be.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import sensormarket as sm  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "market": lambda seed: workloads.market(
        seed, sensors=5, requesters=6, purchases=20, blocks=30),
    "channel_stream": lambda seed: workloads.channel_stream(
        seed, channels=2, payments_per_channel=30),
    "mempool_backlog": lambda seed: workloads.mempool_backlog(
        seed, payers=10, transfers=300, blocks=10, txs_per_block=20),
}


def execute(doc: dict) -> dict:
    return sm.scenario.ScenarioRun(
        sm.scenario.parse_scenario(workloads.to_text(doc))).execute()


def measure(docs: list[dict], trace: bool = False) -> dict:
    """One iteration of ``docs`` through the harness, traced or not."""
    probe = run.Probe()
    texts = [workloads.to_text(d) for d in docs]
    with tracing.patched(probe.replacements(sm)):
        if not trace:
            return run.run_iteration(sm, probe, docs, texts, [])
        tracer = tracing.Tracer()
        observer = run.BlockObserver(sm.ledger.txid)
        with tracing.patched(run.tracer_replacements(sm, tracer, observer)):
            it = run.run_traced_iteration(sm, probe, tracer, observer, docs, texts, [])
        it["tracer"] = tracer
        return it


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_a_pure_function_of_the_seed(name):
    make = SMALL[name]
    assert workloads.to_text(make(7)) == workloads.to_text(make(7))
    assert workloads.to_text(make(7)) != workloads.to_text(make(8))
    first, again, other = execute(make(7)), execute(make(7)), execute(make(8))
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]
    assert all(a["ok"] for a in first["assertions"])


def test_market_defaults_reproduce_the_baseline():
    doc = workloads.market(1)
    kinds = [a["kind"] for a in doc["actors"]]
    assert (kinds.count("sensor"), kinds.count("requester"), kinds.count("store")) == (20, 40, 3)
    assert sum(1 for s in doc["steps"] if s["op"] == "purchase") == 400
    long_datums = [a for a in doc["actors"] if a.get("replication") == 3]
    assert len(long_datums) == 4
    report = execute(doc)
    assert report["chain"]["tx_count"] == 820
    assert 180 <= report["chain"]["height"] <= 220
    assert report["exchanges"]["fulfilled"] == 400
    assert any(r["latency_blocks"] > 0 for r in report["exchanges"]["rows"])


def test_documents_cover_every_workload():
    scenarios = SRC / "sensormarket" / "scenarios"
    for name in run.WORKLOADS:
        docs = workloads.documents(name, 3, scenarios)
        assert docs and docs == workloads.documents(name, 3, scenarios)
    assert len(workloads.documents("bundled", 3, scenarios)) == 7
    assert len(workloads.documents("mempool_backlog", 3, scenarios)) == workloads.BACKLOG_PARTS


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_cross_checks_and_keeps_the_digest(name):
    docs = [SMALL[name](3)]
    plain = measure(docs)
    traced = measure(docs, trace=True)
    assert plain["problems"] == [] and traced["problems"] == []
    assert traced["digests"] == plain["digests"]
    stats = traced["stats"]
    assert stats["mempool.insert"]["calls"] == stats["simnet.receive_tx"]["calls"] > 0
    assert stats["ledger.apply_block"]["calls"] == traced["height"]
    assert stats["simnet.run_until"]["calls"] == 1
    for s in stats.values():
        assert 0 <= s["self_s"] <= s["total_s"] + 1e-9


def test_bundled_traced_run_reaches_every_layer():
    docs = workloads.documents("bundled", 5, SRC / "sensormarket" / "scenarios")
    traced = measure(docs, trace=True)
    assert traced["problems"] == []
    assert traced["digests"] == measure(docs)["digests"]
    for name, _, _ in run.SPANS:
        assert traced["stats"][name]["calls"] > 0, name


def test_patches_are_undone():
    before = (sm.ledger.sighash, sm.wallet.sighash, sm.crypto.verify,
              sm.simnet.Simulation.run_until, sm.wallet.Wallet._scan_block)
    measure([SMALL["channel_stream"](1)], trace=True)
    after = (sm.ledger.sighash, sm.wallet.sighash, sm.crypto.verify,
             sm.simnet.Simulation.run_until, sm.wallet.Wallet._scan_block)
    assert before == after


def test_spans_round_trip(tmp_path):
    traced = measure([SMALL["market"](2)], trace=True)
    tracer = traced["tracer"]
    path = tmp_path / "spans.bin"
    tracer.write(path)
    header, arrays = tracing.read_spans(path)
    assert header["count"] == len(arrays["start_ns"]) > 0
    names = [header["names"][i] for i in arrays["name"]]
    assert names.count("ledger.apply_block") == traced["height"]
    for sid, parent in enumerate(arrays["parent"]):
        assert parent < sid
        assert arrays["start_ns"][sid] <= arrays["end_ns"][sid]
        if parent >= 0:
            assert arrays["start_ns"][parent] <= arrays["start_ns"][sid]
            assert arrays["end_ns"][sid] <= arrays["end_ns"][parent]


def test_operation_accounting():
    doc = SMALL["channel_stream"](4)
    it = measure([doc])
    # Two broadcasts per channel (funding, settlement) plus every payment.
    assert it["attempted_ops"] == 2 * 2 + 2 * 30
    assert it["failed_ops"] == 0
    doc = SMALL["market"](4)
    it = measure([doc])
    purchases = sum(1 for s in doc["steps"] if s["op"] == "purchase")
    # Registrations, then a purchase step, a payment and a delivery each.
    assert it["attempted_ops"] == 5 + 3 * purchases
    assert it["failed_ops"] == purchases - it["fulfilled"]


def test_a_failed_check_fails_every_operation_of_the_run():
    doc = SMALL["market"](4)
    doc["assertions"].append({"path": "chain.tx_count", "equals": -1})
    it = measure([doc])
    assert it["failed_runs"] == 1
    assert it["failed_ops"] == it["attempted_ops"] > 0
    assert any("chain.tx_count" in p for p in it["problems"])


def test_end_to_end_metrics_are_defined_and_nonzero_on_every_workload():
    for name in SMALL:
        it = measure([SMALL[name](5)])
        metrics = run.end_to_end([it], 30.0)
        for metric, unit in run.END_TO_END:
            assert metrics[metric]["unit"] == unit
            assert metrics[metric]["median"] > 0, (name, metric)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "market", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
