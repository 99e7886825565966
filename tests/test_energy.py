"""Radio energy model point values, monotonicity, and debit conservation."""

import math
import random

import pytest

from qempar.energy import EnergyLedger, RadioParams, rx_energy, tx_energy
from qempar.topology import NodeState, Position


def test_amplifier_regimes_meet_continuously_at_threshold():
    p = RadioParams()
    d0 = p.d0
    open_space = 4096 * p.e_elec + 4096 * p.eps_fs * d0 ** 2
    multi_path = 4096 * p.e_elec + 4096 * p.eps_mp * d0 ** 4
    assert open_space == pytest.approx(multi_path, rel=1e-9)
    assert tx_energy(4096, d0, p) == pytest.approx(open_space, rel=1e-12)


def test_transmit_energy_increases_with_distance():
    p = RadioParams()
    rng = random.Random(42)
    for _ in range(50):
        bits = rng.randrange(1, 10000)
        distances = sorted(rng.uniform(0.0, 300.0) for _ in range(20))
        costs = [tx_energy(bits, d, p) for d in distances]
        assert all(a < b for a, b in zip(costs, costs[1:]))


def test_invalid_inputs_raise():
    p = RadioParams()
    with pytest.raises(ValueError):
        tx_energy(0, 10.0, p)
    with pytest.raises(ValueError):
        tx_energy(100, -1.0, p)
    with pytest.raises(ValueError):
        rx_energy(-5, p)
    with pytest.raises(ValueError):
        RadioParams(e_elec=0.0)
    with pytest.raises(ValueError):
        RadioParams(eps_mp=-1e-12)


def test_residual_after_one_transmission():
    node = NodeState(Position(0, 0), initial_energy=2.0)
    ledger = EnergyLedger()
    ledger.add(node, tx_energy(4096, 40.0, RadioParams()))
    assert node.spent_energy == pytest.approx(0.000270336, rel=1e-12)
    assert node.residual_energy == pytest.approx(1.999729664, rel=1e-12)
    assert node.alive and ledger.clamped_debits == 0


def test_clamped_debit_kills_node_but_ledger_keeps_full_cost():
    node = NodeState(Position(0, 0), initial_energy=1e-9)
    ledger = EnergyLedger()
    ledger.add(node, rx_energy(4096, RadioParams()))
    assert not node.alive
    assert node.residual_energy == 0.0
    assert ledger.clamped_debits == 1
    assert node.spent_energy == pytest.approx(0.0002048, rel=1e-12)


def test_energy_conservation_over_random_debits():
    """Each node's initial minus residual energy equals the exactly summed
    joules charged to it while no debit clamps, to float round-off."""
    p = RadioParams()
    rng = random.Random(7)
    for _ in range(20):
        nodes = {i: NodeState(Position(0, 0), initial_energy=50.0) for i in range(5)}
        charged: dict[int, list[float]] = {i: [] for i in nodes}
        ledger = EnergyLedger()
        for _ in range(200):
            i = rng.randrange(5)
            if rng.random() < 0.5:
                joules = tx_energy(rng.randrange(1, 5000), rng.uniform(0, 200), p)
            else:
                joules = rx_energy(rng.randrange(1, 5000), p)
            ledger.add(nodes[i], joules)
            charged[i].append(joules)
        assert ledger.clamped_debits == 0
        for i, n in nodes.items():
            total = math.fsum(charged[i])
            assert n.initial_energy - n.residual_energy == pytest.approx(total, rel=1e-12)
            assert n.spent_energy == pytest.approx(total, rel=1e-12)


def test_debit_returns_residual():
    node = NodeState(Position(0, 0), initial_energy=1.0)
    ledger = EnergyLedger()
    joules = rx_energy(1000, RadioParams())
    ledger.add(node, joules)
    assert node.spent_energy == joules
    assert node.residual_energy == pytest.approx(1.0 - joules)
    assert vars(ledger) == {"clamped_debits": 0}
