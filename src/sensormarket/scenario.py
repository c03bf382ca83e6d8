"""Scenario files: declarative actors, timed steps and report assertions.

A scenario is a JSON document:

    {
      "name": "...",
      "config": {"rng_seed": 1, "mean_block_interval_s": 600, ...},
      "horizon_s": 18000,
      "actors": [{"id": "alice", "kind": "requester", "funding": 10000, "node": 1}, ...],
      "steps": [{"at": 0, "op": "register_sensor", "actor": "pm25"}, ...],
      "assertions": [{"path": "exchanges.fulfilled", "equals": 1}, ...]
    }

Actor key pairs are derived from the scenario name and actor id, so txids are
stable across RNG seeds; the seed only moves block timing and message delays.
Assertions address the final report with a dotted path and one of ``equals``,
``min``, ``max`` or ``nonempty``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from . import contracts, crypto, datastore, registry as registry_mod
from .channels import Channel
from .errors import (
    DoubleSpentPledge,
    InsufficientPledges,
    NoSnapshot,
    ParseError,
    SensorMarketError,
    UnknownName,
)
from .exchange import RequesterActor, SensorActor
from .ledger import (
    PayToKeyHash,
    Transaction,
    TxOutput,
    block_hash,
    scan_chain_safety,
    serialize_block,
    txid,
)
from .simnet import Node, SimConfig, Simulation


@dataclass
class Scenario:
    name: str
    config: dict
    horizon_s: float
    actors: list[dict]
    steps: list[dict]
    assertions: list[dict]


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file: {exc}") from exc
    return parse_scenario(text)


# The fields each step op always reads; an op not named here is unknown.
STEP_FIELDS = {
    "register_sensor": "actor", "update_record": "actor name", "purchase": "actor sensor",
    "transfer": "from to amount", "open_channel": "actor sensor deposit expiry_height",
    "subscribe": "channel rate interval count", "close_channel": "channel",
    "refund_channel": "channel", "fund_escrow": "buyer seller mediator amount",
    "escrow_release": "escrow signers destination", "make_pledge": "actor amount",
    "assemble_assurance": "entrepreneur", "set_fact": "oracle fact value",
    "create_bet": "party_a party_b oracle stake expression_a expression_b",
    "tamper_store": "store",
}


def parse_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    for key in ("name", "actors", "steps"):
        if key not in doc:
            raise ParseError(f"scenario is missing required key {key!r}")
    for key in ("actors", "steps"):
        if not isinstance(doc[key], list) or not all(isinstance(x, dict) for x in doc[key]):
            raise ParseError(f"{key!r} must be a list of objects")
    actor_ids = {a.get("id") for a in doc["actors"]}
    if None in actor_ids or len(actor_ids) != len(doc["actors"]):
        raise ParseError("every actor needs a unique 'id'")
    try:
        times = [float(s.get("at", 0)) for s in doc["steps"]]
    except (TypeError, ValueError):
        raise ParseError("every step's 'at' must be a number") from None
    if times != sorted(times):
        raise ParseError("step times must be non-decreasing")
    if times and times[0] < 0:
        raise ParseError("step times must not be negative")
    for step in doc["steps"]:
        for role in ("actor", "buyer", "seller", "mediator", "from", "to",
                     "oracle", "party_a", "party_b", "entrepreneur"):
            ref = step.get(role)
            if ref is not None and ref not in actor_ids:
                raise ParseError(f"step references undeclared actor {ref!r}")
    for actor in doc["actors"]:
        if "kind" not in actor:
            raise ParseError(f"actor {actor['id']!r} has no 'kind'")
        funding = actor.get("funding", 0)
        amounts = funding if isinstance(funding, list) else [funding]
        if not all(isinstance(amount, (int, float)) for amount in amounts):
            raise ParseError(f"actor {actor['id']!r} has a non-numeric 'funding'")
        for key in ("node", "price", "confirmations", "replication", "store_id"):
            try:
                int(actor.get(key, 0))
            except (TypeError, ValueError, OverflowError):
                raise ParseError(f"actor {actor['id']!r} has a non-integer {key!r}") from None
    if any("op" not in step for step in doc["steps"]):
        raise ParseError("every step needs an 'op'")
    for step in doc["steps"]:
        op = step["op"]
        if not isinstance(op, str) or op not in STEP_FIELDS:
            raise ParseError(f"unknown step op {op!r}")
        for key in STEP_FIELDS[op].split():
            if key not in step:
                raise ParseError(f"step {op!r} is missing {key!r}")
    try:
        horizon_s = float(doc.get("horizon_s", 18000))
    except (TypeError, ValueError):
        raise ParseError("'horizon_s' must be a number") from None
    if horizon_s < 0:
        raise ParseError("'horizon_s' must not be negative")
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise ParseError("'config' must be an object")
    _sim_config(config)  # a value SimConfig refuses fails here, not at run time
    return Scenario(
        name=doc["name"],
        config=config,
        horizon_s=horizon_s,
        actors=doc["actors"],
        steps=doc["steps"],
        assertions=doc.get("assertions", []),
    )


def _sim_config(cfg_doc: dict) -> SimConfig:
    """The SimConfig a scenario's ``config`` describes; a value it cannot
    take is a ParseError."""
    try:
        return SimConfig(
            rng_seed=int(cfg_doc.get("rng_seed", 1)),
            mean_block_interval_s=float(cfg_doc.get("mean_block_interval_s", 600.0)),
            propagation_delay_s=float(cfg_doc.get("propagation_delay_s", 1.0)),
            max_block_size=int(cfg_doc.get("max_block_size", 1_000_000)),
            num_nodes=int(cfg_doc.get("num_nodes", 2)),
            default_fee=int(cfg_doc.get("default_fee", 50)),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad config: {exc}") from exc


@dataclass
class _Actor:
    actor_id: str
    kind: str
    keypair: crypto.KeyPair
    node: Node
    spec: dict
    wallet: Any = None
    requester: Optional[RequesterActor] = None
    sensor: Optional[SensorActor] = None
    oracle: Optional[contracts.OracleService] = None
    store: Optional[datastore.Store] = None


class ScenarioRun:
    """One execution of a scenario; holds the final state for dumps."""

    def __init__(self, scenario: Scenario, seed_override: Optional[int] = None):
        self.scenario = scenario
        self.seed_override = seed_override
        self.report: Optional[dict] = None
        self.sim: Optional[Simulation] = None
        self.registry: Optional[registry_mod.Registry] = None
        self._channels: dict[str, Channel] = {}
        self._escrows: dict[str, contracts.EscrowAgreement] = {}
        self._campaigns: dict[str, dict] = {}
        self._pledges: dict[str, list[contracts.Pledge]] = {}
        self._bets: dict[str, contracts.OracleBet] = {}
        self._actors: dict[str, _Actor] = {}

    # --- setup --------------------------------------------------------------

    def _build(self) -> None:
        cfg_doc = dict(self.scenario.config)
        if self.seed_override is not None:
            cfg_doc["rng_seed"] = self.seed_override
        config = _sim_config(cfg_doc)
        keypairs = {
            a["id"]: crypto.keypair_from_label(f"{self.scenario.name}/{a['id']}")
            for a in self.scenario.actors
        }
        outputs = []
        for a in self.scenario.actors:
            funding = a.get("funding", 0)
            amounts = funding if isinstance(funding, list) else [funding]
            for amount in amounts:
                if amount > 0:
                    outputs.append(
                        TxOutput(int(amount), PayToKeyHash(keypairs[a["id"]].key_digest))
                    )
        genesis = (Transaction(inputs=(), outputs=tuple(outputs)),) if outputs else ()
        self.sim = Simulation(config, genesis)

        stores = [
            datastore.Store(
                store_id=int(a.get("store_id", i)),
                byzantine=bool(a.get("byzantine", False)),
            )
            for i, a in enumerate(self.scenario.actors)
            if a["kind"] == "store"
        ]
        stores_by_id = {s.store_id: s for s in stores}
        self.registry = registry_mod.Registry(stores_by_id)
        self.sim.nodes[0].follow(self.registry.apply_block)

        store_iter = iter(stores)
        from .wallet import Wallet

        for a in self.scenario.actors:
            node = self.sim.nodes[int(a.get("node", 0)) % len(self.sim.nodes)]
            actor = _Actor(a["id"], a["kind"], keypairs[a["id"]], node, a)
            if a["kind"] == "store":
                actor.store = next(store_iter)
            elif a["kind"] == "sensor":
                datum = a.get("datum", "datum")
                actor.sensor = SensorActor(
                    self.sim,
                    node,
                    actor.keypair,
                    price_per_datum=int(a.get("price", 100)),
                    datum_source=lambda t, d=datum: d.encode(),
                    confirmation_depth=int(a.get("confirmations", 1)),
                    stores=stores,
                    replication=int(a.get("replication", min(2, max(1, len(stores))))),
                    actor_id=a["id"],
                )
                actor.wallet = actor.sensor.wallet
            elif a["kind"] == "oracle":
                actor.oracle = contracts.OracleService(actor.keypair)
                if a.get("funding"):
                    actor.requester = RequesterActor(
                        self.sim, node, actor.keypair,
                        stores=stores, actor_id=a["id"],
                    )
                    actor.wallet = actor.requester.wallet
                    # Sensor datums of the form "name=value" feed the fact base.
                    actor.requester.on_datum.append(
                        lambda d, o=actor.oracle: self._ingest_fact(o, d.plaintext)
                    )
            elif a["kind"] == "requester":
                actor.requester = RequesterActor(
                    self.sim, node, actor.keypair,
                    confirmation_depth=int(a.get("confirmations", 1)),
                    stores=stores, actor_id=a["id"],
                )
                actor.wallet = actor.requester.wallet
            else:
                # plain wallet-holding roles: mediator, entrepreneur,
                # contributor, party, ...
                actor.wallet = Wallet(actor.keypair, node)
            self._actors[a["id"]] = actor

        for step in self.scenario.steps:
            self.sim.schedule(
                float(step.get("at", 0)),
                f"step:{step['op']}",
                lambda s=step: getattr(self, f"_step_{s['op']}")(s),
            )

    @staticmethod
    def _ingest_fact(oracle: contracts.OracleService, plaintext: bytes) -> None:
        try:
            name, value = plaintext.decode().split("=", 1)
            oracle.set_fact(name.strip(), float(value))
        except (UnicodeDecodeError, ValueError):
            pass

    # --- step dispatch ------------------------------------------------------

    def _step_register_sensor(self, step: dict) -> None:
        actor = self._actors[step["actor"]]
        spec = actor.spec
        record = registry_mod.SensorRecord(
            name=step.get("name", spec.get("name", actor.actor_id)),
            owner_key_digest=actor.keypair.key_digest,
            payment_digest=actor.keypair.key_digest,
            data_type=step.get("data_type", spec.get("data_type", "generic")),
            price_per_datum=int(step.get("price", spec.get("price", 100))),
            endpoint=step.get("endpoint", spec.get("endpoint", "inline")),
        )
        registry_mod.register_sensor(self.sim, actor.node, actor.wallet, record)

    def _step_update_record(self, step: dict) -> None:
        actor = self._actors[step["actor"]]
        current = self.registry.lookup(step["name"])
        record = registry_mod.SensorRecord(
            name=current.name,
            owner_key_digest=current.owner_key_digest,
            payment_digest=current.payment_digest,
            data_type=step.get("data_type", current.data_type),
            price_per_datum=int(step.get("price", current.price_per_datum)),
            endpoint=step.get("endpoint", current.endpoint),
        )
        registry_mod.update_record(self.sim, actor.node, actor.wallet, record)

    def _step_purchase(self, step: dict) -> None:
        actor = self._actors[step["actor"]]
        name = step["sensor"]
        amount = step.get("amount")

        def attempt() -> bool:
            try:
                record = self.registry.lookup(name)
            except UnknownName:
                return False
            actor.requester.initiate_purchase(
                record.payment_digest,
                record.price_per_datum,
                amount=int(amount) if amount is not None else None,
            )
            return True

        actor.node.retry(attempt)

    def _step_transfer(self, step: dict) -> None:
        src = self._actors[step["from"]]
        dst = self._actors[step["to"]]
        tx = src.wallet.pay(
            dst.keypair.key_digest, int(step["amount"]), self.sim.config.default_fee
        )
        self.sim.broadcast(tx, src.node)

    def _step_open_channel(self, step: dict) -> None:
        funder = self._actors[step["actor"]]
        sensor = self._actors[step["sensor"]]
        datum = sensor.spec.get("datum", "datum")
        channel = Channel(
            self.sim,
            funder.node,
            funder.wallet,
            funder.keypair,
            sensor.keypair,
            deposit=int(step["deposit"]),
            expiry_height=int(step["expiry_height"]),
            datum_source=lambda t, d=datum: d.encode(),
        )
        self._channels[step.get("channel", "ch")] = channel

    def _step_subscribe(self, step: dict) -> None:
        channel = self._channels[step["channel"]]
        rate = int(step["rate"])
        interval = float(step["interval"])
        count = int(step["count"])
        for i in range(count):
            self.sim.schedule(
                self.sim.clock + i * interval,
                "channel_pay",
                lambda c=channel, r=rate: c.pay(r),
            )

    def _step_close_channel(self, step: dict) -> None:
        self._channels[step["channel"]].close()

    def _step_refund_channel(self, step: dict) -> None:
        self._channels[step["channel"]].refund_after_expiry()

    def _step_fund_escrow(self, step: dict) -> None:
        buyer = self._actors[step["buyer"]]
        seller = self._actors[step["seller"]]
        mediator = self._actors[step["mediator"]]
        agreement = contracts.fund_escrow(
            self.sim,
            buyer.node,
            buyer.wallet,
            buyer.keypair.public_key,
            seller.keypair.public_key,
            mediator.keypair.public_key,
            int(step["amount"]),
        )
        self._escrows[step.get("escrow", "escrow")] = agreement

    def _step_escrow_release(self, step: dict) -> None:
        agreement = self._escrows[step["escrow"]]
        signer_a = self._actors[step["signers"][0]]
        signer_b = self._actors[step["signers"][1]]
        destination = self._actors[step["destination"]]
        node = signer_a.node

        def release():
            contracts.escrow_release(
                self.sim, node, agreement,
                signer_a.keypair, signer_b.keypair,
                destination.keypair.key_digest,
            )

        node.when_confirmed(agreement.outpoint[0], 1, release)

    def _campaign(self, step: dict) -> contracts.Campaign:
        campaign_id = step.get("campaign", "campaign")
        entry = self._campaigns.get(campaign_id)
        if entry is None:
            entrepreneur = self._actors[step["entrepreneur"]]
            entry = {
                "campaign": contracts.Campaign(
                    entrepreneur.keypair.key_digest, int(step["goal"])
                ),
                "status": "open",
                "pledged": 0,
            }
            self._campaigns[campaign_id] = entry
            self._pledges[campaign_id] = []
        return entry["campaign"]

    def _step_make_pledge(self, step: dict) -> None:
        campaign = self._campaign(step)
        campaign_id = step.get("campaign", "campaign")
        actor = self._actors[step["actor"]]
        pledge = contracts.make_pledge(
            actor.wallet, actor.keypair, campaign, int(step["amount"])
        )
        self._pledges[campaign_id].append(pledge)
        self._campaigns[campaign_id]["pledged"] += pledge.amount

    def _step_assemble_assurance(self, step: dict) -> None:
        campaign_id = step.get("campaign", "campaign")
        campaign = self._campaign(step)
        entry = self._campaigns[campaign_id]
        entrepreneur = self._actors[step["entrepreneur"]]
        try:
            tx = contracts.assemble_assurance(
                self.sim, entrepreneur.node, self._pledges[campaign_id], campaign
            )
            entry["status"] = "assembled"
            entry["txid"] = txid(tx).hex()
        except InsufficientPledges as exc:
            entry["status"] = "insufficient"
            entry["shortfall"] = exc.shortfall
        except DoubleSpentPledge:
            entry["status"] = "double_spent_pledge"

    def _step_set_fact(self, step: dict) -> None:
        oracle = self._actors[step["oracle"]].oracle
        oracle.set_fact(step["fact"], float(step["value"]))

    def _step_create_bet(self, step: dict) -> None:
        party_a = self._actors[step["party_a"]]
        party_b = self._actors[step["party_b"]]
        oracle_actor = self._actors[step["oracle"]]
        oracle = oracle_actor.oracle
        expr_a = step["expression_a"]
        expr_b = step["expression_b"]
        oracle.register_expression(expr_a["id"], expr_a["text"])
        oracle.register_expression(expr_b["id"], expr_b["text"])
        bet = contracts.OracleBet(
            self.sim,
            party_a.node,
            (party_a.wallet, party_a.keypair),
            (party_b.wallet, party_b.keypair),
            int(step["stake"]),
            oracle,
            expr_a["id"],
            expr_b["id"],
        )
        self._bets[step.get("bet", "bet")] = bet
        party_a.node.retry(lambda: bet.maybe_settle() is not None)

    def _step_tamper_store(self, step: dict) -> None:
        store = self._actors[step["store"]].store

        def attempt() -> bool:
            if not store.blobs:
                return False
            for blob_id in list(store.blobs):
                store.tamper(blob_id, int(step.get("position", 0)))
            return True

        self.sim.nodes[0].retry(attempt)

    # --- execution and reporting --------------------------------------------

    def execute(self) -> dict:
        self._build()
        self.sim.run_until(self.scenario.horizon_s)
        self.report = self._build_report()
        return self.report

    def _build_report(self) -> dict:
        sim = self.sim
        digest_by_actor = {
            a.keypair.key_digest.hex(): a.actor_id for a in self._actors.values()
        }
        try:
            scan_chain_safety(sim.chain)
            safety = {"double_spend_free": True, "value_conserved": True}
        except AssertionError as exc:
            safety = {"double_spend_free": False, "value_conserved": False,
                      "detail": str(exc)}

        exchanges = []
        fulfilled = 0
        outstanding = 0
        for actor in self._actors.values():
            if actor.requester is None:
                continue
            outstanding += len(actor.requester.outstanding)
            for d in actor.requester.deliveries:
                fulfilled += 1
                payment_conf = sim.chain.confirmations(d.payment_txid) is not None
                delivery_conf = sim.chain.confirmations(d.delivery_txid) is not None
                exchanges.append(
                    {
                        "requester": actor.actor_id,
                        "sensor": digest_by_actor.get(d.sensor_digest.hex(), "?"),
                        "request_time": d.request_time,
                        "payment_txid": d.payment_txid.hex(),
                        "delivery_txid": d.delivery_txid.hex(),
                        "latency_blocks": d.latency_blocks,
                        "latency_s": d.delivery_time - d.request_time,
                        "plaintext": d.plaintext.decode(errors="replace"),
                        "onchain_txs": int(payment_conf) + int(delivery_conf),
                        "outcome": "fulfilled",
                    }
                )

        registry_rows = []
        for row in self.registry.dump():
            row["owner_actor"] = digest_by_actor.get(row["owner"], "?")
            registry_rows.append(row)

        report = {
            "scenario": self.scenario.name,
            "seed": sim.config.rng_seed,
            "chain": {
                "height": sim.chain.height,
                "tx_count": sum(len(b.transactions) for b in sim.chain.blocks[1:]),
                "total_fees": sim.fee_credits,
            },
            "balances": {
                a.actor_id: a.wallet.balance
                for a in self._actors.values()
                if a.wallet is not None
            },
            "producer_fees": sim.fee_credits,
            "exchanges": {
                "fulfilled": fulfilled,
                "outstanding": outstanding,
                "rows": sorted(exchanges, key=lambda r: r["payment_txid"]),
            },
            "channels": {
                cid: ch.summary() for cid, ch in sorted(self._channels.items())
            },
            "contracts": {
                "escrows": {
                    eid: {"status": e.status, "amount": e.amount}
                    for eid, e in sorted(self._escrows.items())
                },
                "campaigns": {
                    cid: {k: v for k, v in entry.items() if k != "campaign"}
                    for cid, entry in sorted(self._campaigns.items())
                },
                "bets": {
                    bid: {
                        "settled": b.settled,
                        "settle_txid": b.settle_txid.hex() if b.settle_txid else None,
                    }
                    for bid, b in sorted(self._bets.items())
                },
            },
            "registry": registry_rows,
            "registry_by_name": {row["name"]: row for row in registry_rows},
            "events": sim.events_log,
            "event_counts": _count_by_kind(sim.events_log),
            "safety": safety,
        }
        body = json.dumps(report, sort_keys=True, separators=(",", ":"))
        report["digest"] = crypto.digest(body.encode()).hex()
        report["assertions"] = evaluate_assertions(report, self.scenario.assertions)
        return report

    # --- dumps --------------------------------------------------------------

    def dump_chain(self) -> str:
        """Line-delimited JSON, one block per line; lossless via block_hex."""
        if self.sim is None:
            raise NoSnapshot("run the scenario before dumping the chain")
        lines = []
        for block in self.sim.chain.blocks:
            lines.append(
                json.dumps(
                    {
                        "height": block.height,
                        "hash": block_hash(block).hex(),
                        "prev": block.prev_block_hash.hex(),
                        "timestamp": block.timestamp,
                        "fee_reward": block.fee_reward,
                        "txids": [txid(t).hex() for t in block.transactions],
                        "block_hex": serialize_block(block).hex(),
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    def dump_registry(self) -> str:
        if self.registry is None:
            raise NoSnapshot("run the scenario before dumping the registry")
        rows = self.registry.dump()
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def _count_by_kind(events: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    return counts


def evaluate_assertions(report: dict, assertions: list[dict]) -> list[dict]:
    results = []
    for spec in assertions:
        value = _resolve_path(report, spec["path"])
        ok = True
        if "equals" in spec:
            ok = ok and value == spec["equals"]
        if "min" in spec:
            ok = ok and value is not None and value >= spec["min"]
        if "max" in spec:
            ok = ok and value is not None and value <= spec["max"]
        if spec.get("nonempty"):
            ok = ok and bool(value)
        results.append({"path": spec["path"], "ok": ok, "actual": value})
    return results


def _resolve_path(doc: Any, path: str) -> Any:
    node = doc
    for part in path.split("."):
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError):
                return None
        elif isinstance(node, dict):
            if part not in node:
                return None
            node = node[part]
        else:
            return None
    return node


def run_scenario(path: str | Path, seed_override: Optional[int] = None) -> tuple[dict, int]:
    """Load, execute and judge a scenario; returns (report, exit_code)."""
    scenario = load_scenario(path)
    run = ScenarioRun(scenario, seed_override)
    report = run.execute()
    failed = [r for r in report["assertions"] if not r["ok"]]
    return report, (1 if failed else 0)
