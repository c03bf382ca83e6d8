"""Scenario parsing, execution reports and the command-line runner."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from sensormarket.cli import bundled_scenarios, main
from sensormarket.errors import ParseError
from sensormarket.ledger import block_hash, deserialize_block
from sensormarket.scenario import (
    ScenarioRun,
    load_scenario,
    parse_scenario,
    run_scenario,
)


EXPECTED_SCENARIOS = {
    "air_quality_crowdfund",
    "atomic_exchange",
    "escrow_dispute",
    "registry_collision",
    "tampered_datastore",
    "weather_bet_oracle",
    "weather_subscription_channel",
}


def bundled(name):
    return bundled_scenarios()[name]


# --- parsing ----------------------------------------------------------------

def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_scenario('{"name": "x", "actors": [}')
    assert "line 1" in str(exc.value)


TRANSFER = {"at": 0, "op": "transfer", "from": "a", "to": "a", "amount": 1}


def _doc(**fields):
    """A minimal well-formed scenario document with ``fields`` replaced."""
    doc = {"name": "x", "actors": [{"id": "a", "kind": "requester"}],
           "steps": [TRANSFER]}
    return json.dumps({**doc, **fields})


def test_parse_rejects_structural_problems():
    # Each document trips the rule its message names.
    requester = {"id": "a", "kind": "requester"}
    oracle = {"id": "o", "kind": "oracle"}
    store = {"id": "s", "kind": "store"}
    open_ch = {"at": 0, "op": "open_channel", "actor": "a", "sensor": "a",
               "deposit": 10, "expiry_height": 5}
    escrow = {"at": 0, "op": "fund_escrow", "buyer": "a", "seller": "a",
              "mediator": "a", "amount": 10}
    release = {"at": 0, "op": "escrow_release", "escrow": "escrow", "signers": ["a", "a"],
               "destination": "a"}
    pledge = {"at": 0, "op": "make_pledge", "actor": "a", "amount": 5,
              "entrepreneur": "a", "goal": 10}
    expr = {"id": "wet", "text": "rain_mm > 10"}
    bet = {"at": 0, "op": "create_bet", "party_a": "a", "party_b": "a", "oracle": "o",
           "stake": 5, "expression_a": expr, "expression_b": expr}
    cases = [
        ('["not", "an", "object"]', "must be a JSON object"),
        ('{"actors": [], "steps": []}', "bad 'name': missing"),
        (_doc(actors=[{"id": "a"}, {"id": "a"}]), "unique 'id'"),
        (_doc(steps=[{**TRANSFER, "at": 5}, {**TRANSFER, "at": 1}]), "non-decreasing"),
        (_doc(steps=[{**TRANSFER, "to": "ghost"}]), "bad 'to': 'ghost' is not a known actor"),
        (_doc(actors=[1]), "bad 'actors': expected a list of objects"),
        (_doc(steps=5), "bad 'steps': expected a list of objects"),
        (_doc(steps=[{"at": "soon", "op": "transfer"}]), "step 0 'transfer': bad 'at'"),
        (_doc(steps=[{"at": 0}]), "needs an 'op'"),
        (_doc(actors=[{"id": "a"}]), "actor 'a': bad 'kind': missing"),
        (_doc(actors=[{**requester, "funding": "lots"}]), "actor 'a': bad 'funding'"),
        (_doc(horizon_s=-5), "bad 'horizon_s'"),
        (_doc(config={"num_nodes": 0}), "bad config: need at least one node"),
        (_doc(config={"rng_seed": -1}), "bad config: rng_seed must lie in"),
        (_doc(config={"rng_seed": 2**64}), "bad config: rng_seed must lie in"),
        ('{"name": "x", "actors": [], "steps": [], "config": {"mean_block_interval_s": '
         'Infinity}}', "config: bad 'mean_block_interval_s': inf is not finite"),
        (_doc(steps=[{**TRANSFER, "at": -5}]), "step 0 'transfer': bad 'at'"),
        (_doc(actors=[{**requester, "node": "x"}]), "actor 'a': bad 'node'"),
        (_doc(steps=[{**TRANSFER, "op": "teleport"}]), "unknown step op 'teleport'"),
        (_doc(steps=[{k: v for k, v in TRANSFER.items() if k != "amount"}]),
         "step 0 'transfer': bad 'amount': missing"),
        # A value of the wrong type, or out of the op's range.
        (_doc(steps=[{**TRANSFER, "amount": "x"}]), "step 0 'transfer': bad 'amount'"),
        (_doc(steps=[{**pledge, "amount": 0}]), "bad 'amount': 0 is not positive"),
        (_doc(steps=[open_ch, {"at": 0, "op": "subscribe", "channel": "ch", "rate": 1,
                               "interval": -1, "count": 2}]),
         "step 1 'subscribe': bad 'interval'"),
        (_doc(actors=[requester, oracle],
              steps=[{"at": 0, "op": "set_fact", "oracle": "o", "fact": "t", "value": "hot"}]),
         "bad 'value'"),
        (_doc(actors=[requester, oracle],
              steps=[{**bet, "expression_b": {"id": "dry", "text": "rain_mm >> 10"}}]),
         "bad 'expression_b'.*is not '<fact> <op> <number>'"),
        (_doc(actors=[{**requester, "id": "a\ud800"}], steps=[]),
         "bad 'id'.*surrogates not allowed"),
        (_doc(assertions=[{"equals": 1}]), "assertion 0: bad 'path': missing"),
        (_doc(assertions=[{"path": "scenario", "min": "a"}]), "assertion 0: bad 'min'"),
        # An assertion that checks nothing: a misspelt check, or none at all.
        (_doc(assertions=[{"path": "chain.height", "equls": 5}]), "assertion 0: names no check"),
        (_doc(assertions=[{"path": "no.such.path"}]), "assertion 0: names no check"),
        (_doc(assertions=[{"path": "scenario", "nonempty": "no"}]),
         "assertion 0: bad 'nonempty': expected true or false"),
        # An actor id that is undeclared, or whose kind cannot play the role.
        (_doc(actors=[requester, store], steps=[{**TRANSFER, "from": "s"}]),
         "bad 'from': 's' is not a known payer"),
        (_doc(steps=[{"at": 0, "op": "set_fact", "oracle": "a", "fact": "t", "value": 1}]),
         "bad 'oracle': 'a' is not a known oracle"),
        (_doc(steps=[{**open_ch, "sensor": "ghost"}]),
         "bad 'sensor': 'ghost' is not a known actor"),
        (_doc(steps=[escrow, {**release, "signers": ["a", "ghost"]}]),
         "bad 'signers': 'ghost' is not a known actor"),
        (_doc(steps=[escrow, {**release, "destination": "ghost"}]),
         "bad 'destination': 'ghost' is not a known actor"),
        (_doc(steps=[{"at": 0, "op": "tamper_store", "store": "ghost"}]),
         "bad 'store': 'ghost' is not a known store"),
        # An id that no earlier step opened, or a campaign started without its terms.
        (_doc(steps=[{"at": 0, "op": "close_channel", "channel": "nope"}]),
         "bad 'channel': 'nope' is not a known channel"),
        (_doc(steps=[{**release, "escrow": "deal"}, {**escrow, "escrow": "deal"}]),
         "bad 'escrow': 'deal' is not a known escrow"),
        (_doc(steps=[{k: v for k, v in pledge.items() if k != "goal"}]),
         "campaign 'campaign' needs 'entrepreneur' and 'goal'"),
        # A flag that is not a JSON boolean, a store id two stores share (the
        # second store's defaults to its index, 1), and a config key SimConfig lacks.
        (_doc(actors=[requester, {**store, "byzantine": "false"}]),
         "actor 's': bad 'byzantine': expected true or false"),
        (_doc(actors=[requester, store, {"id": "t", "kind": "store", "store_id": 1}]),
         "actor 't': bad 'store_id': 1 is another store's"),
        (_doc(config={"mean_block_interval": 60}),
         "bad config: unknown key 'mean_block_interval'"),
        (_doc(config={"num_nodes": "two"}), "config: bad 'num_nodes'"),
        # A number that is not an integer, or a boolean, is refused, not truncated.
        (_doc(steps=[{**TRANSFER, "amount": 10.9}]),
         "step 0 'transfer': bad 'amount': expected an integer, got float"),
        (_doc(actors=[{**requester, "node": True}]),
         "actor 'a': bad 'node': expected an integer, got bool"),
        (_doc(config={"num_nodes": 2.7}), "config: bad 'num_nodes': expected an integer"),
        # An escrow whose release would pay the fee or less.
        (_doc(steps=[{**escrow, "amount": 25}]),
         "step 0 'fund_escrow': bad 'amount': 25 does not exceed the fee 50"),
        # A boolean or a numeric string is not a number, and neither is NaN or
        # Infinity, which Python's JSON reader admits.
        (_doc(steps=[{**TRANSFER, "at": True}]),
         "step 0 'transfer': bad 'at': expected a number, got bool"),
        (_doc(config={"mean_block_interval_s": "60"}),
         "config: bad 'mean_block_interval_s': expected a number, got str"),
        ('{"name": "x", "actors": [], "steps": [], "config": {"propagation_delay_s": NaN}}',
         "config: bad 'propagation_delay_s': nan is not finite"),
        ('{"name": "x", "actors": [], "steps": [], "horizon_s": -Infinity}',
         "bad 'horizon_s': -inf is not finite"),
        (_doc(actors=[requester, oracle],
              steps=[{"at": 0, "op": "set_fact", "oracle": "o", "fact": "t", "value": True}]),
         "step 0 'set_fact': bad 'value': expected a number, got bool"),
        (_doc(assertions=[{"path": "scenario", "min": False}]),
         "assertion 0: bad 'min': expected a number, got bool"),
        (_doc(assertions=[{"path": "scenario", "max": 1e400}]),
         "assertion 0: bad 'max': inf is not finite"),
        # A fee the nodes would reject, and a block size that admits no tx.
        (_doc(config={"default_fee": -10}), "bad config: default_fee must not be negative"),
        (_doc(config={"max_block_size": 0}), "bad config: max_block_size must be at least 1"),
        (_doc(config={"max_block_size": -1}), "bad config: max_block_size must be at least 1"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError, match=message):
            parse_scenario(text)


def test_sensor_names_longer_than_the_registry_limit_are_refused():
    # 65 ASCII bytes, and 33 two-byte characters: both over the 64-byte limit.
    sensor = {"id": "a", "kind": "sensor"}
    for long_name in ("n" * 65, "é" * 33):
        cases = [
            (_doc(actors=[{**sensor, "name": long_name}], steps=[]),
             "actor 'a': bad 'name': longer than 64 bytes"),
            (_doc(actors=[sensor], steps=[{"at": 0, "op": "register_sensor", "actor": "a",
                                           "name": long_name}]),
             "step 0 'register_sensor': bad 'name': longer than 64 bytes"),
            (_doc(actors=[sensor], steps=[{"at": 0, "op": "update_record", "actor": "a",
                                           "name": long_name}]),
             "step 0 'update_record': bad 'name': longer than 64 bytes"),
        ]
        for text, message in cases:
            with pytest.raises(ParseError, match=message):
                parse_scenario(text)
    longest = parse_scenario(_doc(actors=[{**sensor, "name": "é" * 32}], steps=[]))
    assert longest.actors[0]["name"] == "é" * 32


def test_a_registration_named_after_its_actor_id_is_held_to_the_limit():
    # With no 'name' on the step or the actor, the record is named after the actor
    # id.  A 64-byte name does not fit a payload, so the record is anchored.
    def register(sensor):
        return _doc(actors=[{"kind": "sensor", "funding": 1_000, **sensor},
                            {"id": "store", "kind": "store"}],
                    steps=[{"at": 0, "op": "register_sensor", "actor": sensor["id"]}])

    with pytest.raises(ParseError,
                       match="step 0 'register_sensor': bad 'name': longer than 64 bytes"):
        parse_scenario(register({"id": "s" * 70}))
    named = parse_scenario(register({"id": "s" * 70, "name": "pm25"}))  # the actor's name first
    assert named.steps[0]["name"] == "pm25"
    longest = parse_scenario(register({"id": "s" * 64}))
    assert longest.steps[0]["name"] == "s" * 64
    report = ScenarioRun(longest).execute()
    assert [row["name"] for row in report["registry"]] == ["s" * 64]


def test_a_registration_takes_the_fields_it_leaves_out_from_its_actor():
    sensor = {"id": "a", "kind": "sensor", "price": 7, "endpoint": "https://pm25"}
    register = {"at": 0, "op": "register_sensor", "actor": "a"}
    [step] = parse_scenario(_doc(actors=[sensor], steps=[register])).steps
    assert (step["name"], step["data_type"], step["price"], step["endpoint"]) == (
        "a", "generic", 7, "https://pm25")
    given = {**register, "name": "pm25", "data_type": "pm25_ugm3", "price": 9, "endpoint": "x"}
    [step] = parse_scenario(_doc(actors=[sensor], steps=[given])).steps
    assert (step["name"], step["data_type"], step["price"], step["endpoint"]) == (
        "pm25", "pm25_ugm3", 9, "x")


def test_escrow_amount_is_checked_against_the_configured_fee():
    escrow = {"at": 0, "op": "fund_escrow", "buyer": "a", "seller": "a",
              "mediator": "a", "amount": 50}
    with pytest.raises(ParseError, match="50 does not exceed the fee 50"):
        parse_scenario(_doc(steps=[escrow]))
    assert parse_scenario(_doc(steps=[{**escrow, "amount": 51}])).steps[0]["amount"] == 51
    lower_fee = parse_scenario(_doc(steps=[escrow], config={"default_fee": 49}))
    assert lower_fee.config.default_fee == 49


def test_an_unknown_actor_kind_is_refused():
    # A misspelt sensor once ran as a plain payer: it was paid and never sold.
    doc = json.loads(bundled("atomic_exchange").read_text())
    [sensor] = [a for a in doc["actors"] if a["kind"] == "sensor"]
    sensor["kind"] = "sensr"
    with pytest.raises(ParseError, match=f"actor {sensor['id']!r}: bad 'kind': "
                                         "'sensr' is not a known kind"):
        parse_scenario(json.dumps(doc))


def test_an_assertion_that_nonempty_is_false_is_refused():
    # A false "nonempty" checks nothing: it passed whatever its path named.
    with pytest.raises(ParseError, match="assertion 0: bad 'nonempty': can only be true"):
        parse_scenario(_doc(assertions=[{"path": "no.such.path", "nonempty": False}]))
    [spec] = parse_scenario(_doc(assertions=[{"path": "scenario", "nonempty": True}])).assertions
    assert spec["nonempty"] is True


@pytest.mark.parametrize("namespace", ["channel", "escrow", "bet"])
def test_a_reused_contract_id_is_refused(namespace):
    # Two contracts under one id both ran, and the report kept only the second.
    actors = [{"id": "a", "kind": "requester", "funding": 100_000}, {"id": "o", "kind": "oracle"}]
    expr = {"id": "wet", "text": "rain_mm > 10"}
    step = {"at": 0, **{
        "channel": {"op": "open_channel", "actor": "a", "sensor": "a", "deposit": 5_000,
                    "expiry_height": 50},
        "escrow": {"op": "fund_escrow", "buyer": "a", "seller": "a", "mediator": "a",
                   "amount": 500},
        "bet": {"op": "create_bet", "party_a": "a", "party_b": "a", "oracle": "o", "stake": 5,
                "expression_a": expr, "expression_b": expr},
    }[namespace]}
    [parsed] = parse_scenario(_doc(actors=actors, steps=[step])).steps
    default = parsed[namespace]
    with pytest.raises(ParseError, match=f"step 1 '{step['op']}': bad '{namespace}': "
                                         f"'{default}' already names a {namespace}"):
        parse_scenario(_doc(actors=actors, steps=[step, step]))
    two = parse_scenario(_doc(actors=actors, steps=[step, {**step, namespace: "second"}]))
    assert [s[namespace] for s in two.steps] == [default, "second"]


def test_parse_accepts_bundled_files():
    for path in bundled_scenarios().values():
        scenario = load_scenario(path)
        assert scenario.name == path.stem


# --- execution --------------------------------------------------------------

def test_all_bundled_scenarios_pass():
    for name, path in bundled_scenarios().items():
        report, code = run_scenario(path)
        failed = [r for r in report["assertions"] if not r["ok"]]
        assert code == 0, f"{name}: {failed}"


def test_a_deeper_oracle_sees_its_datum_later():
    # The oracle buys the rain gauge's datum; at a depth of 3 it takes the delivery
    # two blocks later than at a depth of 1, and the bet still settles.
    doc = json.loads(bundled("weather_bet_oracle").read_text())
    [oracle] = [a for a in doc["actors"] if a["kind"] == "oracle"]
    latency = {}
    for depth in (1, 3):
        oracle["confirmations"] = depth
        report = ScenarioRun(parse_scenario(json.dumps(doc))).execute()
        assert all(r["ok"] for r in report["assertions"]), report["assertions"]
        [row] = report["exchanges"]["rows"]
        latency[depth] = row["latency_s"]
    assert latency[3] > latency[1]


def test_report_digest_deterministic_per_seed():
    path = bundled("atomic_exchange")
    first, _ = run_scenario(path)
    second, _ = run_scenario(path)
    assert first["digest"] == second["digest"]
    other_seed, code = run_scenario(path, seed=999)
    assert code == 0  # assertions are seed-independent
    assert other_seed["digest"] != first["digest"]  # timing moved


def test_chain_dump_is_lossless():
    scenario = load_scenario(bundled("atomic_exchange"))
    run = ScenarioRun(scenario)
    run.execute()
    lines = run.dump_chain().strip().split("\n")
    assert len(lines) == run.sim.chain.height + 1
    prev = "00" * 32
    for line, block in zip(lines, run.sim.chain.blocks):
        doc = json.loads(line)
        restored = deserialize_block(bytes.fromhex(doc["block_hex"]))
        assert restored == block
        # Hashed afresh from the dumped bytes, so a stale memo cannot pass.
        assert doc["hash"] == block_hash(restored).hex()
        assert doc["prev"] == prev
        prev = doc["hash"]


def test_report_fees_are_the_dumped_chains_fee_rewards():
    run = ScenarioRun(load_scenario(bundled("atomic_exchange")))
    report = run.execute()
    dumped = sum(json.loads(line)["fee_reward"] for line in run.dump_chain().splitlines())
    assert report["chain"]["total_fees"] == report["producer_fees"] == dumped
    # Every tx of this scenario pays the default fee.
    assert dumped == report["chain"]["tx_count"] * run.scenario.config.default_fee > 0


@pytest.mark.parametrize("store_actors", [[], [{"id": "s0", "kind": "store"}]])
def test_sensor_that_cannot_seal_its_datum_does_not_end_the_run(store_actors):
    # A 70-character datum is anchored, and there are fewer stores than its replication.
    doc = {
        "name": "unsealable",
        "actors": [
            {"id": "pm25", "kind": "sensor", "funding": 1000, "datum": "x" * 70,
             "replication": len(store_actors) + 1},
            {"id": "alice", "kind": "requester", "funding": 1000},
            *store_actors,
        ],
        "steps": [{"at": 0, "op": "register_sensor", "actor": "pm25"},
                  {"at": 0, "op": "purchase", "actor": "alice", "sensor": "pm25"}],
    }
    run = ScenarioRun(parse_scenario(json.dumps(doc)))
    report = run.execute()
    assert report["exchanges"] == {"fulfilled": 0, "outstanding": 1, "rows": []}
    [event] = [e for e in report["events"] if e["kind"] == "sensor_unfulfillable"]
    assert event["sensor"] == "pm25"
    assert "exceeds" in event["error"]
    assert all(not a.store.blobs for a in run._actors.values() if a.store is not None)


@pytest.mark.parametrize("op", ["register_sensor", "update_record"])
def test_a_record_that_cannot_be_sealed_does_not_end_the_run(op):
    # With no store, a record too long for a payload cannot be anchored: the
    # step logs it and sends nothing, as a sensor does with such a datum.
    endpoint = "https://sensors.example.org/air-quality/pm25/station-0042"
    register = {"at": 0, "op": "register_sensor", "actor": "pm25"}
    steps = {
        "register_sensor": [{**register, "endpoint": endpoint}],
        "update_record": [register, {"at": 6000, "op": "update_record", "actor": "pm25",
                                     "name": "pm25", "endpoint": endpoint}],
    }[op]
    doc = {"name": "unsealable_record",
           "actors": [{"id": "pm25", "kind": "sensor", "funding": 1000}], "steps": steps}
    report = ScenarioRun(parse_scenario(json.dumps(doc))).execute()
    [event] = [e for e in report["events"] if e["kind"] == "record_unsealable"]
    assert (event["actor"], event["name"]) == ("pm25", "pm25")
    assert "exceeds 0 stores" in event["error"]
    assert report["event_counts"] == {"record_unsealable": 1}
    # Only the inline registration of the update case reached the chain.
    assert report["chain"]["tx_count"] == len(steps) - 1
    assert [row["endpoint"] for row in report["registry"]] == ["inline"] * (len(steps) - 1)


def test_long_scenario_record_is_anchored_on_the_run_stores():
    # A 57-character endpoint makes each record too long for a payload, so the
    # registration and the update are sealed with the run's two stores.
    endpoint = "https://sensors.example.org/air-quality/pm25/station-0042"
    doc = {
        "name": "long_record",
        "actors": [
            {"id": "pm25", "kind": "sensor", "funding": 1000, "endpoint": endpoint},
            {"id": "alice", "kind": "requester", "funding": 1000},
            {"id": "s0", "kind": "store"}, {"id": "s1", "kind": "store"},
        ],
        "steps": [{"at": 0, "op": "register_sensor", "actor": "pm25"},
                  {"at": 0, "op": "purchase", "actor": "alice", "sensor": "pm25"},
                  {"at": 6000, "op": "update_record", "actor": "pm25", "name": "pm25",
                   "endpoint": endpoint + "/v2"}],
    }
    run = ScenarioRun(parse_scenario(json.dumps(doc)))
    report = run.execute()
    [row] = report["registry"]
    assert row["endpoint"] == endpoint + "/v2"
    registration_txid = bytes.fromhex(row["registration_txid"])
    registration = run.sim.chain.find_tx(registration_txid)
    assert registration.outputs[0].payload[0] == 0x05  # an anchored registration
    assert row["last_update_height"] > run.sim.chain.tx_index[registration_txid][0]
    stores = [a.store for a in run._actors.values() if a.store is not None]
    assert [len(s.blobs) for s in stores] == [2, 2]  # the two records, on both stores
    assert report["exchanges"]["fulfilled"] == 1
    assert report["exchanges"]["rows"][0]["plaintext"] == "datum"


def test_registry_dump_lists_records():
    scenario = load_scenario(bundled("registry_collision"))
    run = ScenarioRun(scenario)
    run.execute()
    rows = json.loads(run.dump_registry())
    assert [r["name"] for r in rows] == ["city_weather"]


# --- command line -----------------------------------------------------------

def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == EXPECTED_SCENARIOS


def test_cli_run_bundled_by_name(capsys):
    assert main(["run", "atomic_exchange"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["scenario"] == "atomic_exchange"
    assert "assert exchanges.fulfilled: ok" in captured.err


def test_cli_missing_scenario_is_usage_error(capsys):
    assert main(["run", "/no/such/file.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_malformed_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # Not JSON; not UTF-8; nested past the JSON parser's recursion limit.
    for content in (b"{not json", b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000):
        bad.write_bytes(content)
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_malformed_scenario_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "no_op.json"
    bad.write_text(_doc(steps=[{"at": 0}]))
    assert main(["run", str(bad)]) == 2
    assert "needs an 'op'" in capsys.readouterr().err


# Values of the wrong type or range for most fields.  No huge integer: a
# subscribe step schedules all of its ``count`` payments at once.
WRONG_VALUES = ("x", -1, None, [], {}, 1.5, True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_never_crashes_on_a_wrong_field(tmp_path_factory, data):
    # Exit 1 means a failed assertion, and the document carries none.
    name = data.draw(st.sampled_from(sorted(bundled_scenarios())))
    doc = json.loads(bundled(name).read_text())
    del doc["assertions"]
    entry = data.draw(st.sampled_from(doc["actors"] + doc["steps"]))
    key = data.draw(st.sampled_from(sorted(entry)))
    entry[key] = data.draw(st.sampled_from(WRONG_VALUES))
    target = tmp_path_factory.mktemp("wrong") / "doc.json"
    target.write_text(json.dumps(doc))
    assert main(["run", str(target), "--report", str(target.with_name("report.json"))]) in (0, 2)


@pytest.mark.parametrize("step, code", [
    # The channel would expire before it opens: the run ends with exit 2.
    ({"at": 9000, "op": "open_channel", "actor": "r", "sensor": "s", "deposit": 100,
      "expiry_height": 2}, 2),
    # No byte at that position of the stored datum: nothing is tampered.
    ({"at": 20, "op": "tamper_store", "store": "st", "position": 100_000}, 0),
])
def test_cli_step_out_of_range_at_run_time_does_not_crash(tmp_path, step, code):
    doc = {
        "name": "late",
        "actors": [{"id": "st", "kind": "store"},
                   {"id": "r", "kind": "requester", "funding": 5000},
                   {"id": "s", "kind": "sensor", "funding": 1000, "datum": "x" * 70,
                    "replication": 1}],
        "steps": [{"at": 0, "op": "register_sensor", "actor": "s"},
                  {"at": 10, "op": "purchase", "actor": "r", "sensor": "s"}, step],
    }
    target = tmp_path / "late.json"
    target.write_text(json.dumps(doc))
    assert main(["run", str(target), "--report", str(tmp_path / "report.json")]) == code


def test_cli_failing_assertion_exits_one(tmp_path, capsys):
    doc = json.loads(bundled("atomic_exchange").read_text())
    doc["assertions"] = [{"path": "exchanges.fulfilled", "equals": 42}]
    target = tmp_path / "failing.json"
    target.write_text(json.dumps(doc))
    assert main(["run", str(target)]) == 1
    assert "FAILED" in capsys.readouterr().err


def test_cli_report_and_dump_files(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    chain_path = tmp_path / "chain.ndjson"
    registry_path = tmp_path / "registry.json"
    code = main([
        "run", "atomic_exchange",
        "--report", str(report_path),
        "--dump-chain", str(chain_path),
        "--dump-registry", str(registry_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["exchanges"]["fulfilled"] == 1
    assert chain_path.read_text().count("\n") == report["chain"]["height"] + 1
    assert json.loads(registry_path.read_text())
    # An output into a missing directory is a usage error, not a traceback.
    capsys.readouterr()
    for flag in ("--report", "--dump-chain", "--dump-registry"):
        assert main(["run", "atomic_exchange", flag, str(tmp_path / "missing" / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_cli_seed_override(capsys):
    assert main(["run", "atomic_exchange", "--seed", "12345"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 12345
    assert main(["run", "atomic_exchange", "--seed", "-1"]) == 2
    assert "rng_seed must lie in" in capsys.readouterr().err
