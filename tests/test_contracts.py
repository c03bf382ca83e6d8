"""Escrow, assurance contracts and oracle-gated bets."""

import pytest
from hypothesis import given, settings, strategies as st

from sensormarket import crypto
from sensormarket.contracts import (
    Campaign,
    OracleBet,
    OracleService,
    assemble_assurance,
    build_escrow_spend,
    escrow_release,
    fund_escrow,
    make_pledge,
)
from sensormarket.errors import (
    DoubleSpentPledge,
    InsufficientPledges,
    InsufficientSigners,
    OracleSignatureMissing,
    UnknownExpression,
)
from sensormarket.ledger import (
    Transaction,
    TxInput,
    TxOutput,
    PayToKeyHash,
    sighash,
    txid,
    validate_transaction,
)
from sensormarket.wallet import Wallet, sign_inputs

from conftest import make_keypair, make_sim, run_blocks


FEE = 50


# --- escrow -----------------------------------------------------------------

def escrow_setup():
    buyer, seller, mediator = make_keypair(50), make_keypair(51), make_keypair(52)
    sim = make_sim([(buyer, 10_000)], num_nodes=2)
    wallet = Wallet(buyer, sim.nodes[0])
    agreement = fund_escrow(
        wallet, seller.public_key, mediator.public_key, 5_000,
    )
    run_blocks(sim, 2)
    return sim, agreement, buyer, seller, mediator


def test_escrow_release_to_seller():
    sim, agreement, buyer, seller, mediator = escrow_setup()
    escrow_release(sim.nodes[0], agreement, buyer, seller,
                   seller.key_digest)
    run_blocks(sim, 2)
    assert agreement.status == "Released"
    assert Wallet(seller, sim.nodes[0]).balance == 5_000 - FEE


def test_escrow_status_follows_the_chain():
    sim, agreement, buyer, seller, mediator = escrow_setup()
    outsider = make_keypair(53)
    escrow_release(sim.nodes[0], agreement, buyer, outsider, seller.key_digest)
    run_blocks(sim, 3)
    # Both nodes reject the release: the coins stay locked and the status stays.
    assert agreement.status == "Funded"
    assert agreement.outpoint in sim.chain.utxo
    assert Wallet(seller, sim.nodes[0]).balance == 0
    # A valid release counts once it confirms, not when it is broadcast.
    escrow_release(sim.nodes[0], agreement, buyer, seller, seller.key_digest)
    assert agreement.status == "Funded"
    run_blocks(sim, 2)
    assert agreement.status == "Released"


def test_escrow_refund_via_mediator():
    sim, agreement, buyer, seller, mediator = escrow_setup()
    escrow_release(sim.nodes[0], agreement, buyer, mediator,
                   buyer.key_digest)
    run_blocks(sim, 2)
    assert agreement.status == "Refunded"
    assert Wallet(buyer, sim.nodes[0]).balance == 10_000 - 2 * FEE


def test_mediator_alone_cannot_move_funds():
    sim, agreement, buyer, seller, mediator = escrow_setup()
    tx = build_escrow_spend(agreement, mediator.key_digest, FEE)
    tx = sign_inputs(tx, mediator)
    with pytest.raises(InsufficientSigners):
        validate_transaction(tx, sim.chain.utxo, sim.chain.height + 1)


def test_seller_and_mediator_can_release():
    sim, agreement, buyer, seller, mediator = escrow_setup()
    escrow_release(sim.nodes[0], agreement, seller, mediator,
                   seller.key_digest)
    run_blocks(sim, 2)
    assert agreement.status == "Released"
    assert Wallet(seller, sim.nodes[0]).balance == 5_000 - FEE


def test_escrow_at_or_below_the_fee_is_refused_before_funding():
    buyer, seller, mediator = make_keypair(50), make_keypair(51), make_keypair(52)
    sim = make_sim([(buyer, 10_000)], num_nodes=2)
    wallet = Wallet(buyer, sim.nodes[0])
    before = dict(wallet.utxos)
    for amount in (25, FEE):  # the release would pay the whole amount, or more, as its fee
        with pytest.raises(ValueError, match=f"{amount} does not exceed the fee {FEE}"):
            fund_escrow(wallet, seller.public_key, mediator.public_key, amount)
    assert wallet.utxos == before  # nothing was built or spent
    assert len(sim.nodes[0].mempool) == 0
    fund_escrow(wallet, seller.public_key, mediator.public_key, FEE + 1)
    assert len(sim.nodes[0].mempool) == 1


def test_outsider_signatures_do_not_release():
    sim, agreement, buyer, seller, mediator = escrow_setup()
    outsider = make_keypair(59)
    tx = build_escrow_spend(agreement, outsider.key_digest, FEE)
    tx = sign_inputs(sign_inputs(tx, outsider), make_keypair(58))
    with pytest.raises(InsufficientSigners):
        validate_transaction(tx, sim.chain.utxo, sim.chain.height + 1)


# --- assurance contracts ----------------------------------------------------

def assurance_setup(amounts):
    contributors = [make_keypair(60 + i) for i in range(len(amounts))]
    entrepreneur = make_keypair(80)
    sim = make_sim(
        [(kp, amount) for kp, amount in zip(contributors, amounts)],
        num_nodes=2,
    )
    wallets = [Wallet(kp, sim.nodes[0]) for kp in contributors]
    return sim, entrepreneur, contributors, wallets


def test_assemble_when_goal_met():
    amounts = [400, 400, 300]
    sim, entrepreneur, contributors, wallets = assurance_setup(amounts)
    campaign = Campaign(entrepreneur.key_digest, goal=1_000)
    pledges = [
        make_pledge(w, campaign, a)
        for w, a in zip(wallets, amounts)
    ]
    tx = assemble_assurance(sim.nodes[0], pledges, campaign)
    run_blocks(sim, 2)
    assert Wallet(entrepreneur, sim.nodes[0]).balance == 1_000
    assert sum(b.fee_reward for b in sim.chain.blocks) == 100  # the 100 excess became the fee


def test_shortfall_reported():
    amounts = [400, 300]
    sim, entrepreneur, contributors, wallets = assurance_setup(amounts)
    campaign = Campaign(entrepreneur.key_digest, goal=1_000)
    pledges = [
        make_pledge(w, campaign, a)
        for w, a in zip(wallets, amounts)
    ]
    with pytest.raises(InsufficientPledges) as exc:
        assemble_assurance(sim.nodes[0], pledges, campaign)
    assert exc.value.shortfall == 300


def test_single_pledge_below_goal_is_unspendable_alone():
    amounts = [400]
    sim, entrepreneur, contributors, wallets = assurance_setup(amounts)
    campaign = Campaign(entrepreneur.key_digest, goal=1_000)
    pledge = make_pledge(wallets[0], campaign, 400)
    alone = Transaction(inputs=(pledge.tx_input,), outputs=(campaign.goal_output,))
    # Outputs would exceed inputs: invalid without more pledges.
    from sensormarket.errors import NegativeFee
    with pytest.raises(NegativeFee):
        validate_transaction(alone, sim.chain.utxo, sim.chain.height + 1)


def test_double_spent_pledge_detected():
    amounts = [600, 500]
    sim, entrepreneur, contributors, wallets = assurance_setup(amounts)
    campaign = Campaign(entrepreneur.key_digest, goal=1_000)
    pledges = [
        make_pledge(w, campaign, a)
        for w, a in zip(wallets, amounts)
    ]
    # The first contributor walks away with the pledged coin.
    betrayal = Transaction(
        inputs=(TxInput(*pledges[0].tx_input.outpoint),),
        outputs=(TxOutput(550, PayToKeyHash(contributors[0].key_digest)),),
    )
    betrayal = sign_inputs(betrayal, contributors[0])
    sim.broadcast(betrayal, sim.nodes[0])
    run_blocks(sim, 2)
    with pytest.raises(DoubleSpentPledge):
        assemble_assurance(sim.nodes[0], pledges, campaign)


def test_pledge_amount_must_be_positive():
    sim, entrepreneur, contributors, wallets = assurance_setup([100])
    campaign = Campaign(entrepreneur.key_digest, goal=1_000)
    with pytest.raises(ValueError):
        make_pledge(wallets[0], campaign, 0)


@settings(max_examples=60, deadline=None)
@given(
    amounts=st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=6),
    goal=st.integers(min_value=1, max_value=2_000),
)
def test_assembly_threshold_property(amounts, goal):
    sim, entrepreneur, contributors, wallets = assurance_setup(amounts)
    campaign = Campaign(entrepreneur.key_digest, goal=goal)
    pledges = [
        make_pledge(w, campaign, a)
        for w, a in zip(wallets, amounts)
    ]
    total = sum(amounts)
    if total >= goal:
        tx = assemble_assurance(sim.nodes[0], pledges, campaign)
        validate_transaction(tx, sim.chain.utxo, sim.chain.height + 1)
        assert sum(o.value for o in tx.outputs) == goal
        # Conservation: the excess over the goal is exactly the fee.
        from sensormarket.ledger import tx_fee
        assert tx_fee(tx, sim.chain.utxo) == total - goal
    else:
        with pytest.raises(InsufficientPledges) as exc:
            assemble_assurance(sim.nodes[0], pledges, campaign)
        assert exc.value.shortfall == goal - total


# --- oracle -----------------------------------------------------------------

def test_expression_grammar():
    oracle = OracleService(make_keypair(90))
    oracle.register_expression("wet", "rain_mm > 10")
    oracle.register_expression("exact", "temp_c == -3.5")
    for bad in ("rain_mm >> 10", "rain_mm", "> 10", "rain mm > 10", ""):
        with pytest.raises(ValueError):
            oracle.register_expression("bad", bad)


def test_evaluate_all_operators():
    oracle = OracleService(make_keypair(90))
    cases = [("<", 9, True), ("<", 10, False), ("<=", 10, True),
             (">", 11, True), (">", 10, False), (">=", 10, True),
             ("==", 10, True), ("==", 9, False)]
    for op, value, expected in cases:
        oracle.register_expression("e", f"x {op} 10")
        oracle.set_fact("x", value)
        assert oracle.evaluate("e") is expected


def test_unknown_expression_and_unknown_fact():
    oracle = OracleService(make_keypair(90))
    with pytest.raises(UnknownExpression):
        oracle.evaluate("nope")
    oracle.register_expression("e", "x > 1")
    assert oracle.evaluate("e") is False  # fact not yet known


def test_sign_settlement_refusal():
    oracle = OracleService(make_keypair(90))
    oracle.register_expression("wet", "rain_mm > 10")
    tx = Transaction(
        inputs=(TxInput(b"\x00" * 32, 0),),
        outputs=(TxOutput(1, PayToKeyHash(b"\x01" * 20)),),
    )
    assert oracle.sign_settlement("wet", tx) is None  # fact unknown
    oracle.set_fact("rain_mm", 5)
    assert oracle.sign_settlement("wet", tx) is None  # expression false
    oracle.set_fact("rain_mm", 12.5)
    sig = oracle.sign_settlement("wet", tx)
    assert sig is not None
    assert crypto.verify(oracle.keypair.public_key, sighash(tx, 0), sig)


def bet_setup():
    a, b = make_keypair(91), make_keypair(92)
    sim = make_sim([(a, 10_000), (b, 10_000)], num_nodes=2)
    oracle = OracleService(make_keypair(93))
    oracle.register_expression("wet", "rain_mm > 10")
    oracle.register_expression("dry", "rain_mm <= 10")
    wallet_a, wallet_b = Wallet(a, sim.nodes[0]), Wallet(b, sim.nodes[0])
    bet = OracleBet(wallet_a, wallet_b, stake=1_000, oracle=oracle,
                    expression_a_wins="wet", expression_b_wins="dry")
    return sim, bet, oracle, a, b


def test_bet_settles_to_winner():
    sim, bet, oracle, a, b = bet_setup()
    run_blocks(sim, 2)
    assert bet.maybe_settle() is None  # fact still unknown
    oracle.set_fact("rain_mm", 12.5)
    settled = bet.maybe_settle()
    assert settled is not None and bet.settled == "a"
    run_blocks(sim, 2)
    # Winner takes both stakes minus the settlement fee.
    assert Wallet(a, sim.nodes[0]).balance == 10_000 - 1_000 - FEE + 2_000 - FEE
    assert bet.maybe_settle() is None  # settles only once


def test_bet_settlement_takes_one_oracle_signature_for_both_inputs(monkeypatch):
    sim, bet, oracle, a, b = bet_setup()
    run_blocks(sim, 2)
    oracle.set_fact("rain_mm", 12.5)
    real_sign = crypto.sign
    oracle_sigs = []

    def counting_sign(keypair, message):
        sig = real_sign(keypair, message)
        if keypair is oracle.keypair:
            oracle_sigs.append(sig)
        return sig

    monkeypatch.setattr(crypto, "sign", counting_sign)
    settled = bet.maybe_settle()
    assert len(oracle_sigs) == 1
    assert [inp.witness.oracle_signature for inp in settled.inputs] == oracle_sigs * 2
    for i in range(2):
        assert crypto.verify(oracle.keypair.public_key, sighash(settled, i), oracle_sigs[0])
    run_blocks(sim, 2)
    assert sim.chain.confirmations(bet.settle_txid) is not None


def test_bet_unspendable_without_oracle_signature():
    sim, bet, oracle, a, b = bet_setup()
    run_blocks(sim, 2)
    tx = bet.build_settlement(a.key_digest)
    tx = sign_inputs(sign_inputs(tx, a), b)  # both parties, no oracle
    with pytest.raises(OracleSignatureMissing):
        validate_transaction(tx, sim.chain.utxo, sim.chain.height + 1)
