"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload market --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The
workload's scenario documents are generated from ``--seed``
(``workloads.py``) and run one after another in this single process through
the public API, ``parse_scenario`` then ``ScenarioRun(...).execute()``: a
closed loop in which each run starts when the previous one ends.  One
iteration runs every document of the workload once.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is a separate
run for the per-layer metrics: a few untraced iterations, then traced ones
(``tracer.py``).  Every scenario run is checked (``check_run``); a run that
fails its check is counted, never dropped, and makes ``correct`` false.

Standard output ends with one JSON line: ``correct``, ``attempted`` and
``failed`` (scenario runs, and those of them that failed their check) and
``metrics``, each the median over this process's iterations.  The lines
before it give every metric with its quartiles and sample count, and the
report digest of each scenario; ``perfbench/out/`` receives the same as
JSON, plus the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("market", "channel_stream", "mempool_backlog", "bundled")
MIN_ITERATIONS = 3

# End-to-end metrics printed in the final JSON line: (name, unit).  They are
# defined, and never 0, on every workload.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("report_s", "s"),
    ("confirmed_tx_per_s", "tx/s"),
    ("sim_blocks_per_s", "blocks/s"),
    ("completed_ops_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
)

# Spans with calls and self time, named by module: (name, owner, attribute).
# The owner is resolved after the package is imported.
SPANS = (
    ("crypto.verify", "crypto", "verify"),
    ("crypto.sign", "crypto", "sign"),
    ("crypto.encrypt_for", "crypto", "encrypt_for"),
    ("crypto.decrypt", "crypto", "decrypt"),
    ("ledger.validate_transaction", "ledger", "validate_transaction"),
    ("ledger.apply_block", "ledger.Chain", "apply_block"),
    ("ledger.serialize_tx", "ledger", "serialize_tx"),
    ("ledger.find_tx", "ledger.Chain", "find_tx"),
    ("ledger.scan_chain_safety", "ledger", "scan_chain_safety"),
    ("mempool.insert", "mempool.Mempool", "insert"),
    ("mempool.select_for_block", "mempool.Mempool", "select_for_block"),
    ("mempool.drop_confirmed", "mempool.Mempool", "drop_confirmed"),
    ("simnet.run_until", "simnet.Simulation", "run_until"),
    ("simnet.deliver_block", "simnet.Node", "deliver_block"),
    ("simnet.receive_tx", "simnet.Node", "receive_tx"),
    ("wallet.scan_block", "wallet.Wallet", "_scan_block"),
    ("wallet.create_tx", "wallet.Wallet", "create_tx"),
    ("exchange.detect_payment", "exchange.SensorActor", "detect_payment"),
    ("exchange.receive_datum", "exchange.RequesterActor", "receive_datum"),
    ("exchange.fulfill", "exchange.SensorActor", "fulfill"),
    ("channels.pay", "channels.Channel", "pay"),
    ("registry.apply_block", "registry.Registry", "apply_block"),
    ("registry.lookup", "registry.Registry", "lookup"),
    ("contracts.maybe_settle", "contracts.OracleBet", "maybe_settle"),
    ("contracts.escrow_release", "contracts", "escrow_release"),
    ("datastore.store", "datastore", "store"),
    ("datastore.fetch", "datastore", "fetch"),
    ("scenario.parse_scenario", "scenario", "parse_scenario"),
)
# Calls counted without a span.
COUNTS = (
    ("crypto.key_digest", "crypto", "key_digest"),
    ("ledger.sighash", "ledger", "sighash"),
    ("ledger.block_hash", "ledger", "block_hash"),
)
# Every class of ValidationError a transaction can meet at mempool admission.
REJECTIONS = (
    "Conflict", "MissingUtxo", "MalformedTx", "BadSignature", "InsufficientSigners",
    "TimelockNotExpired", "OracleSignatureMissing", "NegativeFee",
)
# Span names that have calls and self time in the per-layer metrics; the
# other two report self time only.
CALLS_AND_SELF = [
    name for name, _, _ in SPANS if name not in ("simnet.run_until", "scenario.parse_scenario")
]


def per_layer_units() -> list[tuple[str, str]]:
    """Names and units of the per-layer metrics, in output order."""
    units = []
    for name in CALLS_AND_SELF:
        units += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    units += [(f"{name}.calls", "count") for name, _, _ in COUNTS]
    units += [
        ("crypto.verify_per_confirmed_tx", "1/tx"),
        ("mempool.depth_max", "tx"),
        ("mempool.block_fill_mean", "ratio"),
    ]
    units += [(f"mempool.rejected.{cls}", "count") for cls in REJECTIONS]
    units += [
        ("simnet.events", "count"),
        ("simnet.run_until.self_s", "s"),
        ("exchange.fulfilled_ratio", "ratio"),
        ("scenario.parse_scenario.self_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return units


class Probe:
    """The hooks the end-to-end metrics need in every run.

    Records when ``Simulation.run_until`` is entered and left, every
    transaction an actor broadcasts (at its origin, once), and channel
    payments attempted and raised.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.entered = self.left = None
        self.broadcasts: list = []
        self.payments = 0
        self.payment_errors = 0

    def replacements(self, sm) -> list:
        probe = self

        def run_until(fn):
            def wrapper(sim, t_end):
                probe.entered = perf_counter()
                try:
                    return fn(sim, t_end)
                finally:
                    probe.left = perf_counter()
            return wrapper

        def broadcast(fn):
            def wrapper(sim, tx, origin):
                probe.broadcasts.append(tx)
                return fn(sim, tx, origin)
            return wrapper

        def pay(fn):
            def wrapper(channel, amount):
                probe.payments += 1
                try:
                    return fn(channel, amount)
                except Exception:
                    probe.payment_errors += 1
                    raise
            return wrapper

        return [
            (sm.simnet.Simulation, "run_until", run_until),
            (sm.simnet.Simulation, "broadcast", broadcast),
            (sm.channels.Channel, "pay", pay),
        ]


class BlockObserver:
    """Producer pool depth and block fill at each block template selection."""

    def __init__(self, txid) -> None:
        self._txid = txid
        self.depths: list[int] = []
        self.fills: list[float] = []

    def wrap(self, fn):
        observer = self

        def wrapper(pool, max_block_size, chain):
            depth = len(pool)
            selected = fn(pool, max_block_size, chain)
            observer.depths.append(depth)
            size = sum(pool.entries[observer._txid(tx)].size for tx in selected)
            observer.fills.append(size / max_block_size)
            return selected
        return wrapper

    def take(self) -> tuple[int, float]:
        depth = max(self.depths, default=0)
        fill = statistics.fmean(self.fills) if self.fills else 0.0
        self.depths, self.fills = [], []
        return depth, fill


def _resolve(sm, dotted: str):
    obj = sm
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def tracer_replacements(sm, tracer, observer) -> list:
    """Wrappers for every traced boundary, applied after the probe's."""
    out = []
    for name, owner, attr in SPANS:
        make = (lambda fn, n=name: tracer.span(n, fn))
        if name == "mempool.select_for_block":
            make = (lambda fn, n=name: observer.wrap(tracer.span(n, fn)))
        out.append((_resolve(sm, owner), attr, make))
    for name, owner, attr in COUNTS:
        out.append((_resolve(sm, owner), attr, lambda fn, n=name: tracer.count(n, fn)))

    # Each scheduled event is counted, and its callback runs in a span, so
    # that the self time of run_until is the event loop's own work.
    def schedule(fn):
        count = tracer.count("simnet.events", fn)

        def wrapper(sim, at, kind, callback):
            return count(sim, at, kind, tracer.span("simnet.event", callback))
        return wrapper

    out.append((sm.simnet.Simulation, "schedule", schedule))
    return out


# --- one scenario run ---------------------------------------------------------

def check_run(doc: dict, report: dict) -> list[str]:
    """Problems with a finished run's report; empty when it is correct."""
    problems = [
        f"assertion failed: {a['path']} = {a['actual']!r}"
        for a in report["assertions"] if not a["ok"]
    ]
    for key in ("double_spend_free", "value_conserved"):
        if report["safety"].get(key) is not True:
            problems.append(f"safety.{key} is not true")
    datums = {a["id"]: a.get("datum", "datum") for a in doc["actors"] if a["kind"] == "sensor"}
    for row in report["exchanges"]["rows"]:
        if row["plaintext"] != datums.get(row["sensor"]):
            problems.append(f"delivery {row['delivery_txid'][:16]} decrypted to the wrong datum")
    return problems


def run_scenario(sm, probe: Probe, doc: dict, text: str) -> dict:
    """Execute one document and measure it; never raises.

    The garbage of the previous run is collected first, outside the timed
    region.
    """
    probe.reset()
    purchases = sum(
        1 for s in doc["steps"]
        if s["op"] == "purchase" and float(s.get("at", 0)) <= float(doc.get("horizon_s", 18000))
    )
    result = {"purchases": purchases, "problems": []}
    gc.collect()
    t0 = perf_counter()
    try:
        run = sm.scenario.ScenarioRun(sm.scenario.parse_scenario(text))
        report = run.execute()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        attempted = len(probe.broadcasts) + purchases + probe.payments
        result.update(problems=[f"raised {type(exc).__name__}: {exc}"],
                      attempted_ops=attempted, failed_ops=attempted)
        return result
    t1 = perf_counter()
    result["problems"] = check_run(doc, report)
    sim = run.sim
    lost = sum(
        1 for tx in probe.broadcasts
        if sim.chain.confirmations(sm.ledger.txid(tx)) is None
        and sm.ledger.txid(tx) not in sim.producer.mempool
    )
    attempted = len(probe.broadcasts) + purchases + probe.payments
    failed = lost + (purchases - report["exchanges"]["fulfilled"]) + probe.payment_errors
    result.update(
        wall_s=t1 - t0,
        setup_s=probe.entered - t0,
        report_s=t1 - probe.left,
        digest=report["digest"],
        tx_count=report["chain"]["tx_count"],
        height=report["chain"]["height"],
        fulfilled=report["exchanges"]["fulfilled"],
        payments=probe.payments,
        latencies=[row["latency_blocks"] for row in report["exchanges"]["rows"]],
        attempted_ops=attempted,
        failed_ops=attempted if result["problems"] else failed,
    )
    return result


def run_iteration(sm, probe: Probe, docs: list[dict], texts: list[str],
                  digests: list[str]) -> dict:
    """Run every document once and total the measurements.

    ``digests`` holds each document's report digest from the first
    iteration; when it is empty, this iteration's digests fill it.  A run
    whose digest differs fails its check.
    """
    runs = [run_scenario(sm, probe, doc, text) for doc, text in zip(docs, texts)]
    if not digests:
        digests.extend(r.get("digest") for r in runs)
    for r, digest in zip(runs, digests):
        if r.get("digest") != digest:
            r["problems"].append("report digest differs between runs of one seed")
            r["failed_ops"] = r["attempted_ops"]
    it = {
        "runs": len(runs),
        "failed_runs": sum(1 for r in runs if r["problems"]),
        "problems": [p for r in runs for p in r["problems"]],
        "digests": [r.get("digest") for r in runs],
        "attempted_ops": sum(r["attempted_ops"] for r in runs),
        "failed_ops": sum(r["failed_ops"] for r in runs),
        "purchases": sum(r["purchases"] for r in runs),
        "latencies": [x for r in runs for x in r.get("latencies", [])],
        "complete": all("wall_s" in r for r in runs),
    }
    if it["complete"]:
        for key in ("wall_s", "setup_s", "report_s", "tx_count", "height",
                    "fulfilled", "payments"):
            it[key] = sum(r[key] for r in runs)
    return it


def run_traced_iteration(sm, probe: Probe, tracer, observer: "BlockObserver",
                         docs: list[dict], texts: list[str], digests: list[str]) -> dict:
    """One iteration under the tracer's wrappers, with its per-layer stats.

    The wrapping is cross-checked: ``Node.receive_tx`` is the only caller
    of ``Mempool.insert``, and ``Chain.apply_block`` runs once per block.
    A failed cross-check fails every run of the iteration.
    """
    tracer.begin_run()
    it = run_iteration(sm, probe, docs, texts, digests)
    it["stats"] = stats = tracer.take_stats()
    it["depth_max"], it["block_fill_mean"] = observer.take()
    problems = []
    inserts = stats.get("mempool.insert", {}).get("calls", 0)
    receives = stats.get("simnet.receive_tx", {}).get("calls", 0)
    if inserts != receives:
        problems.append(f"mempool.insert.calls {inserts} != simnet.receive_tx.calls {receives}")
    applies = stats.get("ledger.apply_block", {}).get("calls", 0)
    if it["complete"] and applies != it["height"]:
        problems.append(f"ledger.apply_block.calls {applies} != chain height {it['height']}")
    if problems:
        it["problems"] += problems
        it["failed_runs"] = it["runs"]
        it["failed_ops"] = it["attempted_ops"]
    return it


def iterate(one_iteration, deadline_s: float, start: float, minimum: int) -> list[dict]:
    """Iterate while another iteration of median length still ends before
    ``deadline_s`` after ``start``; below ``minimum`` iterations, before
    twice that, so that a slow host cannot stretch a run without limit."""
    iterations: list[dict] = []
    while not iterations or (
        perf_counter() - start
        + statistics.median([it["wall_s"] for it in iterations if it["complete"]] or [0.0])
        <= deadline_s * (2 if len(iterations) < minimum else 1)
    ):
        iterations.append(one_iteration())
    return iterations


# --- statistics and output --------------------------------------------------------

def summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    values = sorted(values)
    rank = max(1, -(-len(values) * p // 100))
    return values[int(rank) - 1]


def end_to_end(iterations: list[dict], rss_mb: float) -> dict:
    """Every end-to-end metric the workload defines: summary plus unit."""
    done = [it for it in iterations if it["complete"]]
    out = {}

    def put(name, unit, values):
        if values:
            out[name] = {**summary(values), "unit": unit, "values": values}

    put("wall_s", "s", [it["wall_s"] for it in done])
    put("setup_s", "s", [it["setup_s"] for it in done])
    put("report_s", "s", [it["report_s"] for it in done])
    put("confirmed_tx_per_s", "tx/s", [it["tx_count"] / it["wall_s"] for it in done])
    put("sim_blocks_per_s", "blocks/s", [it["height"] / it["wall_s"] for it in done])
    ratios = [1 - it["failed_ops"] / it["attempted_ops"] for it in iterations if it["attempted_ops"]]
    put("completed_ops_ratio", "ratio", ratios)
    put("peak_rss_mb", "MiB", [rss_mb])
    if any(it["purchases"] for it in done):
        put("exchanges_per_s", "1/s", [it["fulfilled"] / it["wall_s"] for it in done])
    if any(it["payments"] for it in done):
        put("channel_payments_per_s", "1/s", [it["payments"] / it["wall_s"] for it in done])
    put("failed_ops_ratio", "ratio", [1 - r for r in ratios])
    latencies = done[0]["latencies"] if done else []
    if latencies:
        put("exchange_latency_blocks_p50", "blocks", [percentile(latencies, 50)])
        put("exchange_latency_blocks_p95", "blocks", [percentile(latencies, 95)])
    return out


def per_layer(traced: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics from traced iterations: medians over iterations."""
    samples: dict[str, list[float]] = {}
    for it in traced:
        stats = it["stats"]

        def get(name, field):
            return stats.get(name, {}).get(field, 0)

        row = {}
        for name in CALLS_AND_SELF:
            row[f"{name}.calls"] = get(name, "calls")
            row[f"{name}.self_s"] = get(name, "self_s")
        for name, _, _ in COUNTS:
            row[f"{name}.calls"] = get(name, "calls")
        row["crypto.verify_per_confirmed_tx"] = (
            get("crypto.verify", "calls") / it["tx_count"] if it.get("tx_count") else 0.0
        )
        row["mempool.depth_max"] = it["depth_max"]
        row["mempool.block_fill_mean"] = it["block_fill_mean"]
        rejected = stats.get("mempool.insert", {}).get("errors", {})
        for cls in REJECTIONS:
            row[f"mempool.rejected.{cls}"] = rejected.get(cls, 0)
        row["simnet.events"] = get("simnet.events", "calls")
        row["simnet.run_until.self_s"] = get("simnet.run_until", "self_s")
        row["exchange.fulfilled_ratio"] = (
            it["fulfilled"] / it["purchases"] if it["purchases"] and it["complete"] else 0.0
        )
        row["scenario.parse_scenario.self_s"] = get("scenario.parse_scenario", "self_s")
        row["trace.overhead_ratio"] = (
            it["wall_s"] / untraced_wall - 1 if it["complete"] and untraced_wall else 0.0
        )
        for key, value in row.items():
            samples.setdefault(key, []).append(value)
    units = dict(per_layer_units())
    return {
        name: {**summary(samples[name]), "unit": unit, "values": samples[name]}
        for name, unit in units.items()
    }


def print_table(workload: str, seed: int, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload:16s} seed={seed:<6d} {name:40s} {m['unit']:9s} "
              f"median={m['median']:<12.6g} q1={m['q1']:<12.6g} q3={m['q3']:<12.6g} n={m['n']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sensormarket" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import sensormarket as sm
    import tracer as tracing
    import workloads

    if Path(sm.__file__).resolve().parent != (SRC / "sensormarket").resolve():
        print(f"error: imported {sm.__file__}, not the checkout's source", file=sys.stderr)
        return 2

    start = perf_counter()
    docs = workloads.documents(args.workload, args.seed, SRC / "sensormarket" / "scenarios")
    texts = [workloads.to_text(doc) for doc in docs]

    probe = Probe()
    digests: list[str] = []
    with tracing.patched(probe.replacements(sm)):
        untraced = lambda: run_iteration(sm, probe, docs, texts, digests)  # noqa: E731
        if not args.trace:
            iterations = iterate(untraced, args.seconds, start, MIN_ITERATIONS)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(iterations, rss_mb)
            wanted = END_TO_END
        else:
            baseline = iterate(untraced, args.seconds / 2, start, 1)
            tracer = tracing.Tracer()
            observer = BlockObserver(sm.ledger.txid)
            with tracing.patched(tracer_replacements(sm, tracer, observer)):
                traced = iterate(
                    lambda: run_traced_iteration(sm, probe, tracer, observer, docs, texts, digests),
                    args.seconds, start, 1,
                )
            tracer.write(OUT / f"spans-{args.workload}.bin")
            iterations = baseline + traced
            walls = [it["wall_s"] for it in baseline if it["complete"]]
            metrics = per_layer(traced, statistics.median(walls) if walls else 0.0)
            wanted = per_layer_units()

    problems = list(dict.fromkeys(p for it in iterations for p in it["problems"]))
    attempted = sum(it["runs"] for it in iterations)
    failed = sum(it["failed_runs"] for it in iterations)
    correct = not problems and all(name in metrics for name, _ in wanted)

    print_table(args.workload, args.seed, metrics)
    for doc, digest in zip(docs, digests):
        print(f"{args.workload:16s} seed={args.seed:<6d} digest {doc['name']} {digest}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "attempted_ops": sum(it["attempted_ops"] for it in iterations),
        "failed_ops": sum(it["failed_ops"] for it in iterations),
        "digests": {doc["name"]: d for doc, d in zip(docs, digests)},
        "metrics": metrics, "problems": problems,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["median"], "unit": unit}
            for name, unit in wanted if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
