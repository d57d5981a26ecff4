import random

import networkx as nx
import pytest

from gatevm import transpiler
from gatevm.circuit import Circuit, GATES_2Q, instr
from gatevm.codegen import generate
from gatevm.qpu import QpuError, QpuModel, heavy_hex_qpu, line_qpu, preset_qpu
from gatevm.runtime import metric_proxy, schedule
from gatevm.sim import SignedDistribution, linf_distance, run_exact
from gatevm.transpiler import (
    TranspileError,
    cnot_count,
    depth,
    esp,
    hellinger_fidelity,
    map_and_route,
)
from gatevm.vc import from_circuit

from helpers import (bench_family_programs, coupling_graph, random_circuit, reference_esp,
                     reference_map_and_route)


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
    coupling = coupling_graph(qpu)
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


def test_route_ignores_seed():
    # Nothing in the router is seeded, which is why the tables cached per
    # coupling map leave the seed out; a seeded router must key them by it.
    rng = random.Random(3)
    for qpu in (heavy_hex_qpu(), line_qpu(7)):
        for _ in range(10):
            c = random_circuit(rng, 6, 20, two_qubit_prob=0.7)
            routes = [map_and_route(c, qpu, seed=seed) for seed in range(4)]
            for pc in routes[1:]:
                assert pc.circuit.instructions == routes[0].circuit.instructions
                assert pc.layout == routes[0].layout
                assert pc.final_layout == routes[0].final_layout
                assert pc.inserted_swaps == routes[0].inserted_swaps


def assert_same_route(got, want):
    assert got.circuit.instructions == want.circuit.instructions
    assert (got.circuit.num_qubits, got.circuit.num_clbits, got.circuit.name) == \
        (want.circuit.num_qubits, want.circuit.num_clbits, want.circuit.name)
    assert got.layout == want.layout
    assert got.final_layout == want.final_layout
    assert got.inserted_swaps == want.inserted_swaps


def test_routing_matches_reference_on_bench_fragments():
    devices = [heavy_hex_qpu(), line_qpu(12), line_qpu(7)]
    routed = swaps = 0
    for program in bench_family_programs(random.Random(1313), 60):
        for pc in program.fragments:
            proxy = metric_proxy(pc)
            for qpu in devices:
                if proxy.num_qubits > qpu.num_qubits:
                    with pytest.raises(TranspileError):
                        map_and_route(proxy, qpu)
                    continue
                got = map_and_route(proxy, qpu)
                assert_same_route(got, reference_map_and_route(proxy, qpu))
                assert esp(got, qpu) == reference_esp(got, qpu)
                routed += 1
                swaps += got.inserted_swaps
    assert routed > 300 and swaps > 300, (routed, swaps)


def test_routing_tables_built_once_per_coupling_map():
    def fleet():
        return [heavy_hex_qpu("hh-a"), heavy_hex_qpu("hh-b"), line_qpu(12)]

    c = random_circuit(random.Random(5), 7, 25, two_qubit_prob=0.7)
    transpiler._coupling_tables.cache_clear()
    for _ in range(2):
        for qpu in fleet():
            map_and_route(c, qpu)
    info = transpiler._coupling_tables.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_routing_follows_a_changed_coupling_list():
    c = Circuit(3, [instr("cx", 0, 1), instr("cx", 1, 2), instr("cx", 0, 2)])
    qpu = rated_line(3)
    assert map_and_route(c, qpu).inserted_swaps >= 1
    qpu.coupling.append((2, 0))
    got = map_and_route(c, qpu)
    assert got.inserted_swaps == 0
    assert_same_route(got, reference_map_and_route(c, qpu))
    fresh = QpuModel(qpu.name, 3, [(0, 1), (1, 2), (0, 2)], qpu.error_rates)
    assert_same_route(got, map_and_route(c, fresh))


@pytest.mark.parametrize("edge, message", [((1, 1), r"\(1, 1\) is a self-loop"),
                                           ((1, 5), r"\(1, 5\) out of range")])
def test_routing_and_scheduling_refuse_an_appended_bad_edge(edge, message):
    c = Circuit(3, [instr("cx", 0, 1), instr("cx", 1, 2), instr("cx", 0, 2)])
    prog = generate(from_circuit(c))
    qpu = rated_line(3)
    qpu.coupling.append(edge)
    with pytest.raises(QpuError, match=message):
        map_and_route(c, qpu)
    with pytest.raises(QpuError, match=message):
        schedule(prog, [qpu], 0.5, 0.5)


def test_routing_refuses_disconnected_qubits():
    qpu = QpuModel("split", 4, [(0, 1), (2, 3)])
    c = Circuit(4, [instr("cx", 0, 1), instr("cx", 2, 3), instr("cx", 0, 1),
                    instr("cx", 1, 2)])
    with pytest.raises(TranspileError, match="not connected"):
        map_and_route(c, qpu)
    with pytest.raises(TranspileError, match="not connected"):
        reference_map_and_route(c, qpu)


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
    assert nx.is_connected(coupling_graph(hh))
    assert max(dict(coupling_graph(hh).degree).values()) == 3
    line = preset_qpu("line-9")
    assert line.num_qubits == 9 and line.coupling[0] == (0, 1)
