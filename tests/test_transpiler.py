import random

import networkx as nx
import pytest

from gatevm.circuit import Circuit, GATES_2Q, instr
from gatevm.qpu import heavy_hex_qpu, line_qpu, preset_qpu
from gatevm.sim import SignedDistribution, linf_distance, run_exact
from gatevm.transpiler import (
    TranspileError,
    cnot_count,
    depth,
    esp,
    hellinger_fidelity,
    map_and_route,
)

from helpers import random_circuit


def rated_line(n, rate=0.0):
    return line_qpu(n, error_rates={"2q": rate, "1q": rate, "measure": rate})


def test_embeddable_interaction_graph_needs_no_swaps():
    c = Circuit(4, [instr("cx", 0, 1), instr("cx", 1, 2), instr("cx", 2, 3)])
    pc = map_and_route(c, rated_line(4))
    assert pc.inserted_swaps == 0
    pc2 = map_and_route(c, heavy_hex_qpu())
    assert pc2.inserted_swaps == 0


def test_unembeddable_triangle_inserts_swaps():
    c = Circuit(3, [instr("cx", 0, 1), instr("cx", 1, 2), instr("cx", 0, 2)])
    qpu = rated_line(3)
    pc = map_and_route(c, qpu)
    assert pc.inserted_swaps >= 1
    assert cnot_count(pc.circuit) == 3 + 3 * pc.inserted_swaps
    coupling = qpu.graph()
    for ins in pc.circuit.instructions:
        if ins.kind in GATES_2Q:
            assert coupling.has_edge(*ins.qubits)


def test_routing_preserves_distribution():
    rng = random.Random(41)
    for trial in range(25):
        n = rng.randint(2, 5)
        c = random_circuit(rng, n, rng.randint(2, 3 * n), two_qubit_prob=0.6)
        qpu = rated_line(n + rng.randint(0, 2))
        pc = map_and_route(c, qpu, seed=trial)
        assert linf_distance(run_exact(pc.circuit), run_exact(c)) <= 1e-10


def compact(c: Circuit) -> Circuit:
    """Relabel the used qubits of a routed circuit onto a dense range."""
    used = sorted({q for ins in c.instructions for q in ins.qubits})
    remap = {q: i for i, q in enumerate(used)}
    return Circuit(len(used), [ins.remap(remap) for ins in c.instructions],
                   num_clbits=c.num_clbits).validate()


def test_routing_preserves_distribution_on_heavy_hex():
    rng = random.Random(43)
    qpu = heavy_hex_qpu()
    for trial in range(8):
        c = random_circuit(rng, 5, 14, two_qubit_prob=0.7)
        pc = map_and_route(c, qpu, seed=trial)
        assert linf_distance(run_exact(compact(pc.circuit)), run_exact(c)) <= 1e-10


def test_routing_remaps_existing_measures():
    c = Circuit(3, num_clbits=2)
    c.add("h", 0)
    c.add("cx", 0, 2)
    c.add("measure", 2, clbit=0)
    c.add("measure", 0, clbit=1)
    pc = map_and_route(c, rated_line(3))
    assert linf_distance(run_exact(pc.circuit), run_exact(c)) <= 1e-10


def test_route_size_error():
    with pytest.raises(TranspileError):
        map_and_route(Circuit(5), rated_line(3))


def test_route_deterministic_per_seed():
    c = random_circuit(random.Random(2), 5, 15, two_qubit_prob=0.7)
    a = map_and_route(c, heavy_hex_qpu(), seed=4)
    b = map_and_route(c, heavy_hex_qpu(), seed=4)
    assert a.circuit.instructions == b.circuit.instructions
    assert a.layout == b.layout


# ---------------------------------------------------------------------------
# metrics

def test_depth_parallel_gates():
    assert depth(Circuit(2, [instr("h", 0), instr("h", 1)])) == 1


def test_depth_and_cnots_of_bell():
    bell = Circuit(2, [instr("h", 0), instr("cx", 0, 1)])
    assert depth(bell) == 2
    assert cnot_count(bell) == 1


def test_depth_matches_dag_longest_path():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(1, 7)
        c = random_circuit(rng, n, rng.randint(0, 25), two_qubit_prob=0.5)
        g = nx.DiGraph()
        g.add_nodes_from(range(len(c.instructions)))
        last = {}
        for i, ins in enumerate(c.instructions):
            for q in ins.qubits:
                if q in last:
                    g.add_edge(last[q], i)
                last[q] = i
        want = (nx.dag_longest_path_length(g) + 1) if len(g) else 0
        assert depth(c) == want


def test_esp_trivial_cases():
    qpu = rated_line(3, rate=0.0)
    c = Circuit(2, [instr("cx", 0, 1)] * 3)
    assert esp(c, qpu) == 1.0
    qpu2 = line_qpu(3, error_rates={"2q": 0.1})
    assert esp(c, qpu2) == pytest.approx(0.9 ** 3)


def test_esp_uses_kind_specific_rates_with_category_fallback():
    qpu = line_qpu(2, error_rates={"cx": 0.2, "1q": 0.1, "measure": 0.05})
    c = Circuit(2, [instr("h", 0), instr("cx", 0, 1),
                    instr("measure", 0, clbit=0)], num_clbits=1)
    assert esp(c, qpu) == pytest.approx(0.9 * 0.8 * 0.95)


def test_esp_monotone_in_gate_count():
    rng = random.Random(59)
    qpu = line_qpu(6, error_rates={"2q": 0.02, "1q": 0.003, "measure": 0.01})
    for _ in range(20):
        c = random_circuit(rng, 5, rng.randint(1, 15))
        longer = c.copy()
        longer.add("h", 0)
        assert esp(longer, qpu) <= esp(c, qpu)


def test_hellinger_identical_and_disjoint():
    assert hellinger_fidelity({0: 1.0}, {0: 1.0}) == pytest.approx(1.0)
    assert hellinger_fidelity({0: 1.0}, {1: 1.0}) == pytest.approx(0.0)


def test_hellinger_point_mass_vs_uniform():
    # H^2 = 1 - 1/sqrt(2), so the fidelity (1 - H^2)^2 equals 1/2.
    got = hellinger_fidelity({0: 1.0}, {0: 0.5, 1: 0.5})
    assert got == pytest.approx(0.5, abs=1e-12)


def test_hellinger_clips_quasi_distributions():
    quasi = {0: 0.6, 1: -0.1, 2: 0.6}
    ref = {0: 0.5, 2: 0.5}
    assert hellinger_fidelity(quasi, ref, clip=True) == pytest.approx(1.0)
    with pytest.raises(TranspileError):
        hellinger_fidelity(quasi, ref, clip=False)
    with pytest.raises(TranspileError):
        hellinger_fidelity({0: 0.7}, ref, clip=False)


def test_hellinger_clip_refuses_no_positive_mass():
    ref = {0: 0.5, 2: 0.5}
    with pytest.raises(TranspileError, match="no positive mass"):
        hellinger_fidelity({0: -0.25, 1: 0.0}, ref, clip=True)
    with pytest.raises(TranspileError, match="no positive mass"):
        hellinger_fidelity(ref, SignedDistribution({3: -1.0}, 2), clip=True)


def test_preset_qpus():
    hh = preset_qpu("heavy-hex-27")
    assert hh.num_qubits == 27
    assert nx.is_connected(hh.graph())
    assert max(dict(hh.graph().degree).values()) == 3
    line = preset_qpu("line-9")
    assert line.num_qubits == 9 and line.coupling[0] == (0, 1)
