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

``ACTOR_FIELDS`` and ``OP_FIELDS`` (with ``DOC_FIELDS``, ``CONFIG_FIELDS``
and ``ASSERTION_FIELDS`` for the document, its config and its assertions) are
the one place a field's type is defined: each field with its converter and its
default.  ``parse_scenario`` converts every field once, in place, in one pass;
it checks each actor id against the role its field needs, each store id
against the other stores' and each channel, escrow, bet or campaign id against
the steps before it (an id a step opens must be new).  A value it cannot take
is a ParseError naming the actor or step and the field, so the run reads typed
values only.  The config becomes the run's ``SimConfig`` there too, so an
unknown config key is a ParseError.

Actor key pairs are derived from the scenario name and actor id, so txids are
stable across RNG seeds; the seed only moves block timing and message delays.
Assertions address the final report with a dotted path and name at least one
check: ``equals``, ``min``, ``max`` or ``nonempty`` (which can only be true).
An actor's ``kind`` is one of the keys of ``_KIND_ROLES``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from . import contracts, crypto, datastore, registry as registry_mod
from .channels import Channel
from .errors import (
    DoubleSpentPledge,
    InsufficientPledges,
    ParseError,
    ReplicationUnsatisfiable,
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
from .wallet import Wallet


@dataclass
class Scenario:
    """A scenario document as ``parse_scenario`` (or ``load_scenario``) returns
    it: its actor and step dicts hold the typed values and the defaults the
    tables wrote into them, which is what ``ScenarioRun`` reads."""

    name: str
    config: SimConfig
    horizon_s: float
    actors: list[dict]
    steps: list[dict]
    assertions: list[dict]


def load_scenario(path: str | Path, seed: Optional[int] = None) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"scenario file is not UTF-8: {exc}") from exc
    return parse_scenario(text, seed)


# --- the schema ---------------------------------------------------------------
#
# A converter takes ``(value, where, known)``: a field's value, the dict that
# holds it, and ``known``, the ids declared so far in each namespace (each actor
# role, the channels, escrows and bets earlier steps opened, the campaigns
# they named).  It returns the typed value, or raises TypeError or ValueError.

_REQUIRED = object()  # default of a field that must be given
_OPTIONAL = object()  # default of a field that may stay absent
_NAMESPACES = ("actor", "payer", "requester", "sensor", "oracle", "store", "channel", "escrow")


def _convert(where: dict, fields: tuple, known: dict, owner: str = "", *args) -> None:
    """Convert ``where``'s ``fields`` in place, defaults included; a value no
    converter takes is a ParseError naming ``owner.format(*args)`` and the field."""
    for name, convert, default in fields:
        value = where.get(name, default)
        if value is _OPTIONAL:
            continue
        try:
            if value is _REQUIRED:
                raise ValueError("missing")
            where[name] = convert(value, where, known)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{owner.format(*args)}bad {name!r}: {exc}") from None


def _int(value, where=None, known=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):  # int(10.9) is 10, int(True) 1
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def _count(value, where=None, known=None) -> int:
    value = _int(value)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def _positive(value, where=None, known=None) -> int:
    value = _int(value)
    if value < 1:
        raise ValueError(f"{value} is not positive")
    return value


def _number(value, where=None, known=None) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):  # float("60") is 60.0
        raise TypeError(f"expected a number, got {type(value).__name__}")
    if not math.isfinite(value):  # JSON as Python reads it admits NaN and Infinity
        raise ValueError(f"{value} is not finite")
    return float(value)


def _time(value, where=None, known=None) -> float:
    value = _number(value)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def _text(value, where=None, known=None) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected str, got {type(value).__name__}")
    value.encode()  # JSON admits lone surrogates, which UTF-8 cannot encode
    return value


def _object(value, where=None, known=None) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _objects(value, where=None, known=None) -> list:
    if not isinstance(value, list) or not all(isinstance(x, dict) for x in value):
        raise TypeError("expected a list of objects")
    return value


def _flag(value, where=None, known=None) -> bool:
    if not isinstance(value, bool):  # bool("false") is True
        raise TypeError(f"expected true or false, got {type(value).__name__}")
    return value


def _name(value, where=None, known=None) -> str:
    """A registry name: ``registry.MAX_NAME_LEN`` UTF-8 bytes at most."""
    if len(_text(value).encode()) > registry_mod.MAX_NAME_LEN:
        raise ValueError(f"longer than {registry_mod.MAX_NAME_LEN} bytes")
    return value


def _datum(value, where=None, known=None) -> str:
    if not _text(value):
        raise ValueError("a datum must not be empty")
    return value


def _funding(value, where=None, known=None):
    """One amount, or a list of amounts: the actor's genesis outputs."""
    return [_count(amount) for amount in value] if isinstance(value, list) else _count(value)


def _member(namespace: str):
    def convert(value, where, known):
        if value not in known[namespace]:
            raise ValueError(f"{value!r} is not a known {namespace}")
        return value
    return convert


def _opens(namespace: str):
    def convert(value, where, known):
        if _text(value) in known[namespace]:
            raise ValueError(f"{value!r} already names a {namespace}")
        known[namespace].add(value)
        return value
    return convert


def _campaign(value, where, known):
    """A campaign id; the first step that names it carries its terms."""
    if value not in known["campaign"]:
        if "entrepreneur" not in where or "goal" not in where:
            raise ValueError(f"campaign {value!r} needs 'entrepreneur' and 'goal' "
                             "at its first step")
        known["campaign"].add(_text(value))
    return value


def _signers(value, where, known) -> list:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError("expected a list of two actors")
    return [_TYPES["actor"](signer, where, known) for signer in value]


def _true(value, where=None, known=None) -> bool:
    """A flag that can only be true: ``nonempty``, whose false would check nothing."""
    if not _flag(value):
        raise ValueError("can only be true")
    return value


# Every actor kind and the roles ``ScenarioRun`` equips it for: a payer holds a
# wallet, a requester buys datums, a sensor sells them, an oracle signs facts
# and a store holds anchored blobs.  The plain wallet kinds differ in name only.
_KIND_ROLES = {
    "sensor": ("payer", "sensor"),
    "requester": ("payer", "requester"),
    "oracle": ("oracle", "payer", "requester"),
    "store": ("store",),
    **dict.fromkeys(("payer", "party", "mediator", "contributor", "entrepreneur"), ("payer",)),
}


def _kind(value, where=None, known=None) -> str:
    if _text(value) not in _KIND_ROLES:
        raise ValueError(f"{value!r} is not a known kind")
    return value


def _expression(value, where=None, known=None) -> dict:
    """``{"id": ..., "text": "<fact> <op> <number>"}``, in the oracle's grammar."""
    _text(_object(value).get("id"))
    contracts.parse_expression(_text(value.get("text")))
    return value


_TYPES = {
    "int": _int, "count": _count, "positive": _positive,
    "number": _number, "time": _time,
    "text": _text, "name": _name, "datum": _datum,
    "flag": _flag, "true": _true, "kind": _kind, "funding": _funding,
    "object": _object, "objects": _objects,
    **{namespace: _member(namespace) for namespace in _NAMESPACES},
    **{f"new_{namespace}": _opens(namespace) for namespace in ("channel", "escrow", "bet")},
    "campaign": _campaign, "signers": _signers, "expression": _expression,
}


def _roles(actor: dict) -> tuple[str, ...]:
    """The roles ``ScenarioRun`` equips an actor for, and the only place that
    decides them: its kind's (``_KIND_ROLES``), but an unfunded oracle only signs."""
    if actor["kind"] == "oracle" and not actor["funding"]:
        return ("oracle",)
    return _KIND_ROLES[actor["kind"]]


def _fields(spec: str) -> tuple:
    """``"name:type ..."`` as (name, converter, default) triples, the type named in
    ``_TYPES``.  ``name?:type`` may stay absent; ``name=default:type`` takes
    ``default`` (an int if it is all digits), converted like a given value,
    when absent."""
    fields = []
    for item in spec.split():
        name, kind = item.split(":")
        name, has_default, default = name.partition("=")
        if name.endswith("?"):
            name, default = name[:-1], _OPTIONAL
        elif not has_default:
            default = _REQUIRED
        elif default.isdigit():
            default = int(default)
        fields.append((name, _TYPES[kind], default))
    return tuple(fields)


# The fields of a document, of its config (all optional, so that SimConfig's
# own defaults apply; a key not named is unknown), of an actor (its ``id`` also
# unique, and a store's ``store_id``, which defaults to the actor's index), of
# a step of each op besides ``op`` (``at`` first, which ``parse_scenario`` also
# keeps in order), and of an assertion.  An op not named is unknown.
DOC_FIELDS = _fields("name:text actors:objects steps:objects horizon_s=18000:time "
                     "config?:object assertions?:objects")
CONFIG_FIELDS = _fields("rng_seed?:int mean_block_interval_s?:number "
                        "propagation_delay_s?:number max_block_size?:int num_nodes?:int "
                        "default_fee?:int")
ACTOR_FIELDS = _fields(
    "id:text kind:kind funding=0:funding node=0:int price=100:count confirmations=1:positive "
    "replication?:positive store_id?:count byzantine?:flag datum=datum:datum "
    "name?:name data_type=generic:text endpoint=inline:text"
)
OP_FIELDS = {op: _fields("at=0:time " + spec) for op, spec in {
    "register_sensor": "actor:payer name:name data_type:text price:count endpoint:text",
    "update_record": "actor:payer name:name data_type?:text price?:count endpoint?:text",
    "purchase": "actor:requester sensor:text amount?:count",
    "transfer": "from:payer to:actor amount:count",
    "open_channel": "actor:payer sensor:actor deposit:count expiry_height:positive "
                    "channel=ch:new_channel",
    "subscribe": "channel:channel rate:count interval:time count:count",
    "close_channel": "channel:channel",
    "refund_channel": "channel:channel",
    "fund_escrow": "buyer:payer seller:actor mediator:actor amount:count "
                   "escrow=escrow:new_escrow",
    "escrow_release": "escrow:escrow signers:signers destination:actor",
    "make_pledge": "actor:payer amount:positive entrepreneur?:actor goal?:count "
                   "campaign=campaign:campaign",
    "assemble_assurance": "entrepreneur:actor goal?:count campaign=campaign:campaign",
    "set_fact": "oracle:oracle fact:text value:number",
    "create_bet": "party_a:payer party_b:payer oracle:oracle stake:count "
                  "expression_a:expression expression_b:expression bet=bet:new_bet",
    "tamper_store": "store:store position=0:count",
}.items()}
ASSERTION_FIELDS = _fields("path:text min?:number max?:number nonempty?:true")


def parse_scenario(text: str, seed: Optional[int] = None) -> Scenario:
    """The typed scenario ``text`` describes, run with ``seed`` in place of
    its config's ``rng_seed`` when one is given."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("scenario document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    known: dict[str, set] = {namespace: set()
                             for namespace in _NAMESPACES + ("campaign", "bet")}
    _convert(doc, DOC_FIELDS, known)
    ids = [actor.get("id") for actor in doc["actors"]]
    if not all(isinstance(i, str) for i in ids) or len(set(ids)) != len(ids):
        raise ParseError("every actor needs a unique 'id' (a string)")
    known["actor"].update(ids)
    actors = dict(zip(ids, doc["actors"]))
    store_ids = set()
    for i, actor in enumerate(doc["actors"]):
        _convert(actor, ACTOR_FIELDS, known, "actor {!r}: ", actor["id"])
        for role in _roles(actor):
            known[role].add(actor["id"])
        if actor["id"] in known["store"]:
            store_id = actor.setdefault("store_id", i)
            if store_id in store_ids:
                raise ParseError(f"actor {actor['id']!r}: bad 'store_id': "
                                 f"{store_id} is another store's")
            store_ids.add(store_id)
    # How many stores hold each anchored datum and registry record of an actor:
    # two, or one where fewer than two stores exist.
    for actor in doc["actors"]:
        actor.setdefault("replication", min(2, max(1, len(store_ids))))
    clock = 0.0
    for i, step in enumerate(doc["steps"]):
        op = step.get("op")
        try:
            fields = OP_FIELDS[op]
        except (KeyError, TypeError):
            raise ParseError(f"step {i}: unknown step op {op!r}" if "op" in step
                             else f"step {i} needs an 'op'") from None
        if op == "register_sensor" and step.get("actor") in ids:
            # The record's fields the step leaves out are its actor's, checked as
            # given ones; its name is the actor's, else the actor id.
            spec = actors[step["actor"]]
            step.setdefault("name", spec.get("name", step["actor"]))
            for key in ("data_type", "price", "endpoint"):
                step.setdefault(key, spec[key])
        _convert(step, fields, known, "step {} {!r}: ", i, op)
        if step["at"] < clock:
            raise ParseError(f"step {i} {op!r}: step times must be non-decreasing")
        clock = step["at"]
    assertions = doc.get("assertions", [])
    for i, spec in enumerate(assertions):
        _convert(spec, ASSERTION_FIELDS, known, "assertion {}: ", i)
        if not any(check in spec for check in ("equals", "min", "max", "nonempty")):
            raise ParseError(f"assertion {i}: names no check")
    config = doc.get("config", {})
    if seed is not None:
        config["rng_seed"] = seed
    unknown = sorted(set(config) - {name for name, _, _ in CONFIG_FIELDS})
    if unknown:
        raise ParseError(f"bad config: unknown key {unknown[0]!r}")
    _convert(config, CONFIG_FIELDS, known, "config: ")
    try:
        config = SimConfig(**config)
    except ValueError as exc:  # a value SimConfig refuses fails here, not at run time
        raise ParseError(f"bad config: {exc}") from None
    for i, step in enumerate(doc["steps"]):
        # A release pays the escrow's amount less the fee, so the amount must exceed it.
        if step["op"] == "fund_escrow" and step["amount"] <= config.default_fee:
            raise ParseError(f"step {i} 'fund_escrow': bad 'amount': {step['amount']} "
                             f"does not exceed the fee {config.default_fee}")
    return Scenario(doc["name"], config, doc["horizon_s"], doc["actors"], doc["steps"],
                    assertions)


@dataclass
class _Actor:
    actor_id: str
    keypair: crypto.KeyPair
    node: Node
    spec: dict
    wallet: Optional[Wallet] = None
    requester: Optional[RequesterActor] = None
    oracle: Optional[contracts.OracleService] = None
    store: Optional[datastore.Store] = None


class ScenarioRun:
    """One execution of a scenario, built whole from its actors and steps;
    holds the final state for dumps."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._channels: dict[str, Channel] = {}
        self._escrows: dict[str, contracts.EscrowAgreement] = {}
        self._campaigns: dict[str, dict] = {}
        self._bets: dict[str, contracts.OracleBet] = {}
        self._actors: dict[str, _Actor] = {}
        keypairs = {
            a["id"]: crypto.keypair_from_label(f"{scenario.name}/{a['id']}")
            for a in scenario.actors
        }
        outputs = []
        for a in scenario.actors:
            funding = a["funding"]
            for amount in funding if isinstance(funding, list) else [funding]:
                if amount > 0:
                    outputs.append(
                        TxOutput(amount, PayToKeyHash(keypairs[a["id"]].key_digest))
                    )
        genesis = (Transaction(inputs=(), outputs=tuple(outputs)),) if outputs else ()
        self.sim = Simulation(scenario.config, genesis)

        self._stores = stores = [
            datastore.Store(store_id=a["store_id"], byzantine=a.get("byzantine", False))
            for a in scenario.actors
            if "store" in _roles(a)
        ]
        self.registry = registry_mod.Registry(stores)
        self.sim.nodes[0].follow(self.registry.apply_block)

        # Each actor is equipped for its kind's roles (``_roles``), its wallet first.
        store_iter = iter(stores)
        for a in scenario.actors:
            node = self.sim.nodes[a["node"] % len(self.sim.nodes)]
            actor = self._actors[a["id"]] = _Actor(a["id"], keypairs[a["id"]], node, a)
            roles = _roles(a)
            if "payer" in roles:
                actor.wallet = Wallet(actor.keypair, node)
            if "store" in roles:
                actor.store = next(store_iter)
            if "oracle" in roles:
                actor.oracle = contracts.OracleService(actor.keypair)
            if "requester" in roles:
                actor.requester = RequesterActor(actor.wallet, a["confirmations"], stores, a["id"])
            if actor.oracle is not None and actor.requester is not None:
                # Sensor datums of the form "name=value" feed the fact base.
                actor.requester.on_datum.append(
                    lambda d, o=actor.oracle: self._ingest_fact(o, d.plaintext)
                )
            if "sensor" in roles:  # its node's hooks hold it
                SensorActor(actor.wallet, a["price"], a["datum"].encode(),
                            a["confirmations"], stores, a["replication"], a["id"])

        for step in scenario.steps:
            self.sim.schedule(
                step["at"],
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
        record = registry_mod.SensorRecord(
            name=step["name"],
            owner_key_digest=actor.keypair.key_digest,
            payment_digest=actor.keypair.key_digest,
            data_type=step["data_type"],
            price_per_datum=step["price"],
            endpoint=step["endpoint"],
        )
        self._publish(registry_mod.register_sensor, actor, record)

    def _step_update_record(self, step: dict) -> None:
        actor = self._actors[step["actor"]]
        current = self.registry.lookup(step["name"])
        record = registry_mod.SensorRecord(
            name=current.name,
            owner_key_digest=current.owner_key_digest,
            payment_digest=current.payment_digest,
            data_type=step.get("data_type", current.data_type),
            price_per_datum=step.get("price", current.price_per_datum),
            endpoint=step.get("endpoint", current.endpoint),
        )
        self._publish(registry_mod.update_record, actor, record)

    def _publish(self, send, actor: _Actor, record: registry_mod.SensorRecord) -> None:
        """Send ``record`` with ``send``; a record too long to go inline, with
        fewer stores than its replication, is logged and sends nothing, as a
        datum is."""
        try:
            send(actor.wallet, record, self._stores, actor.spec["replication"])
        except ReplicationUnsatisfiable as exc:
            self.sim.log_event("record_unsealable", actor=actor.actor_id, name=record.name,
                               error=str(exc))

    def _step_purchase(self, step: dict) -> None:
        actor = self._actors[step["actor"]]
        name = step["sensor"]

        def attempt() -> bool:
            try:
                record = self.registry.lookup(name)
            except UnknownName:
                return False
            actor.requester.initiate_purchase(
                record.payment_digest, record.price_per_datum, amount=step.get("amount")
            )
            return True

        actor.node.retry(attempt)

    def _step_transfer(self, step: dict) -> None:
        payee = self._actors[step["to"]].keypair.key_digest
        self._actors[step["from"]].wallet.send([TxOutput(step["amount"], PayToKeyHash(payee))])

    def _step_open_channel(self, step: dict) -> None:
        funder = self._actors[step["actor"]]
        sensor = self._actors[step["sensor"]]
        channel = Channel(
            funder.wallet,
            sensor.keypair,
            deposit=step["deposit"],
            expiry_height=step["expiry_height"],
            datum=sensor.spec["datum"].encode(),
        )
        self._channels[step["channel"]] = channel

    def _step_subscribe(self, step: dict) -> None:
        channel = self._channels[step["channel"]]
        rate, interval = step["rate"], step["interval"]
        for i in range(step["count"]):
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
            buyer.wallet,
            seller.keypair.public_key,
            mediator.keypair.public_key,
            step["amount"],
        )
        self._escrows[step["escrow"]] = agreement

    def _step_escrow_release(self, step: dict) -> None:
        agreement = self._escrows[step["escrow"]]
        signer_a = self._actors[step["signers"][0]]
        signer_b = self._actors[step["signers"][1]]
        destination = self._actors[step["destination"]]
        node = signer_a.node

        def release():
            contracts.escrow_release(
                node, agreement,
                signer_a.keypair, signer_b.keypair,
                destination.keypair.key_digest,
            )

        node.when_confirmed(agreement.outpoint[0], 1, release)

    def _campaign(self, step: dict) -> dict:
        """The campaign's one record, made by the first step that names it."""
        entry = self._campaigns.get(step["campaign"])
        if entry is None:
            entrepreneur = self._actors[step["entrepreneur"]]
            entry = self._campaigns[step["campaign"]] = {
                "campaign": contracts.Campaign(
                    entrepreneur.keypair.key_digest, step["goal"]
                ),
                "pledges": [],
                "status": "open",
            }
        return entry

    def _step_make_pledge(self, step: dict) -> None:
        entry = self._campaign(step)
        wallet = self._actors[step["actor"]].wallet
        entry["pledges"].append(contracts.make_pledge(wallet, entry["campaign"], step["amount"]))

    def _step_assemble_assurance(self, step: dict) -> None:
        entry = self._campaign(step)
        entrepreneur = self._actors[step["entrepreneur"]]
        try:
            tx = contracts.assemble_assurance(
                entrepreneur.node, entry["pledges"], entry["campaign"]
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
        oracle.set_fact(step["fact"], step["value"])

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
            party_a.wallet,
            party_b.wallet,
            step["stake"],
            oracle,
            expr_a["id"],
            expr_b["id"],
        )
        self._bets[step["bet"]] = bet
        party_a.node.retry(lambda: bet.maybe_settle() is not None)

    def _step_tamper_store(self, step: dict) -> None:
        store = self._actors[step["store"]].store

        def attempt() -> bool:
            if not store.blobs:
                return False
            for blob_id in list(store.blobs):
                store.tamper(blob_id, step["position"])
            return True

        self.sim.nodes[0].retry(attempt)

    # --- execution and reporting --------------------------------------------

    def execute(self) -> dict:
        self.sim.run_until(self.scenario.horizon_s)
        return self._build_report()

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
                        "onchain_txs": payment_conf + delivery_conf,
                        "outcome": "fulfilled",
                    }
                )

        fees = sum(b.fee_reward for b in sim.chain.blocks)  # the producer's income
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
                "total_fees": fees,
            },
            "balances": {
                a.actor_id: a.wallet.balance
                for a in self._actors.values()
                if a.wallet is not None
            },
            "producer_fees": fees,
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
                    cid: {**{k: v for k, v in entry.items() if k not in ("campaign", "pledges")},
                          "pledged": sum(p.amount for p in entry["pledges"])}
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
            "event_counts": dict(Counter(event["kind"] for event in sim.events_log)),
            "safety": safety,
        }
        body = json.dumps(report, sort_keys=True, separators=(",", ":"))
        report["digest"] = crypto.digest(body.encode()).hex()
        report["assertions"] = evaluate_assertions(report, self.scenario.assertions)
        return report

    # --- dumps --------------------------------------------------------------

    def dump_chain(self) -> str:
        """Line-delimited JSON, one block per line; lossless via block_hex."""
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
        rows = self.registry.dump()
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def evaluate_assertions(report: dict, assertions: list[dict]) -> list[dict]:
    results = []
    for spec in assertions:
        value = _resolve_path(report, spec["path"])
        ok = True
        if "equals" in spec:
            ok = ok and value == spec["equals"]
        number = isinstance(value, (int, float))
        if "min" in spec:
            ok = ok and number and value >= spec["min"]
        if "max" in spec:
            ok = ok and number and value <= spec["max"]
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


def run_scenario(path: str | Path, seed: Optional[int] = None) -> tuple[dict, int]:
    """Load, execute and judge a scenario; returns (report, exit_code)."""
    report = ScenarioRun(load_scenario(path, seed)).execute()
    failed = [r for r in report["assertions"] if not r["ok"]]
    return report, (1 if failed else 0)
