import random

import networkx as nx
import pytest

from gatevm.bench import FAMILIES, BenchmarkError, BenchmarkSpec, generate_benchmark
from gatevm.circuit import Circuit, instr
from gatevm.codegen import generate, program_to_json
from gatevm.passes import (PassConfig, PassError, WidthUnreachableError,
                           WireSplitError, reuse_qubits, run_pipeline)
from gatevm.vc import (
    Gate2,
    VcError,
    VirtualCircuit,
    VirtualSide,
    from_circuit,
    op_graph_dot,
    operation_graph,
    qubit_dependencies,
    qubit_graph_dot,
    virt_between,
    virt_gate,
)

from fixtures import dep_showcase_circuit, two_cluster_circuit, TWO_CLUSTER_CUT_EDGES
from helpers import (closure_dependencies, random_circuit, reference_merge_wires,
                     reference_op_graph, reference_qubit_graph, to_circuit)


def bell_vc():
    return from_circuit(Circuit(2, [instr("h", 0), instr("cx", 0, 1)]))


def union_find_fragments(vc) -> list[tuple[int, ...]]:
    """Independent fragment computation from the real gate list."""
    parent = list(range(vc.num_qubits))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in vc.instructions:
        if isinstance(x, Gate2):
            qa, qb = vc.gate_qubits[x.id]
            parent[find(qa)] = find(qb)
    groups: dict[int, list[int]] = {}
    for q in range(vc.num_qubits):
        groups.setdefault(find(q), []).append(q)
    return sorted(tuple(sorted(g)) for g in groups.values())


def test_from_circuit_bell():
    vc = bell_vc()
    assert [f.qubits for f in vc.fragments] == [(0, 1)]
    assert vc.qubit_graph[0][1]["weight"] == 1
    assert list(operation_graph(vc).nodes) == [0]
    assert operation_graph(vc).number_of_edges() == 0


def test_from_circuit_two_cluster_cut_edges():
    vc = from_circuit(two_cluster_circuit())
    assert sorted(vc.qubit_graph.nodes) == list(range(6))
    inter = [(u, v) for u, v, w in vc.qubit_graph.edges(data="weight")
             if w == 1 and ((u < 3) != (v < 3))]
    assert sorted(tuple(sorted(e)) for e in inter) == sorted(TWO_CLUSTER_CUT_EDGES)


def test_from_circuit_no_two_qubit_gates():
    vc = from_circuit(Circuit(3, [instr("h", 0), instr("x", 2)]))
    assert vc.qubit_graph.number_of_edges() == 0
    assert operation_graph(vc).number_of_nodes() == 0
    assert [f.qubits for f in vc.fragments] == [(0,), (1,), (2,)]


def test_from_circuit_builds_op_graph_wire_edges():
    c = Circuit(3, [instr("cx", 0, 1), instr("cx", 1, 2), instr("cx", 0, 1)])
    vc = from_circuit(c)
    edges = {(u, v, k) for u, v, k in operation_graph(vc).edges(keys=True)}
    assert edges == {(0, 1, 1), (1, 2, 1), (0, 2, 0)}


def test_from_circuit_keeps_terminal_measures_and_defaults():
    c = Circuit(2, num_clbits=1)
    c.add("h", 0)
    c.add("measure", 1, clbit=0)
    vc = from_circuit(c)
    measures = [x for x in vc.instructions
                if not isinstance(x, (Gate2, VirtualSide)) and x.kind == "measure"]
    assert [(m.qubits[0], m.clbit) for m in measures] == [(1, 0)]
    vc2 = from_circuit(Circuit(2, [instr("h", 0)]))
    measures2 = [x for x in vc2.instructions if x.kind == "measure"]
    assert [(m.qubits[0], m.clbit) for m in measures2] == [(0, 0), (1, 1)]


def test_from_circuit_rejects_mid_circuit_measure_and_reset():
    c = Circuit(2, [instr("measure", 0, clbit=0), instr("h", 0)], num_clbits=1)
    with pytest.raises(VcError):
        from_circuit(c)
    with pytest.raises(VcError):
        from_circuit(Circuit(1, [instr("reset", 0)]))


def test_virt_gate_bell_splits_into_two_fragments():
    vc = bell_vc()
    virt_gate(vc, 0)
    assert [f.qubits for f in vc.fragments] == [(0,), (1,)]
    assert len(vc.virtual_gates) == 1
    sides = [x for x in vc.instructions if isinstance(x, VirtualSide)]
    assert [(s.side, s.qubit) for s in sides] == [("a", 0), ("b", 1)]


def test_virt_gate_decrements_weight_and_keeps_fragment():
    c = Circuit(2, [instr("cx", 0, 1), instr("cx", 0, 1)])
    vc = from_circuit(c)
    assert vc.qubit_graph[0][1]["weight"] == 2
    virt_gate(vc, 0)
    assert vc.qubit_graph[0][1]["weight"] == 1
    assert len(vc.fragments) == 1


def test_virt_gate_relinks_wire_dependencies():
    c = Circuit(3, [instr("cx", 0, 1), instr("cx", 1, 2), instr("cx", 0, 1)])
    vc = from_circuit(c)
    virt_gate(vc, 1)
    # gate 1 (on the q1 wire between gates 0 and 2) is re-linked through
    assert set(operation_graph(vc).edges(keys=True)) == {(0, 2, 0), (0, 2, 1)}


def test_virt_gate_errors():
    vc = bell_vc()
    with pytest.raises(VcError):
        virt_gate(vc, 99)
    virt_gate(vc, 0)
    with pytest.raises(VcError):
        virt_gate(vc, 0)


def test_virt_between_virtualizes_all_gates_on_pair():
    c = Circuit(2, [instr("cx", 0, 1), instr("cz", 0, 1), instr("cx", 1, 0)])
    vc = from_circuit(c)
    virt_between(vc, 0, 1)
    assert len(vc.virtual_gates) == 3
    assert not vc.qubit_graph.has_edge(0, 1)
    assert operation_graph(vc).number_of_nodes() == 0


def test_virt_between_requires_edge():
    vc = bell_vc()
    virt_between(vc, 1, 0)  # edge lookup ignores argument order
    assert len(vc.virtual_gates) == 1
    vc2 = from_circuit(Circuit(3, [instr("cx", 0, 1)]))
    with pytest.raises(VcError):
        virt_between(vc2, 0, 2)


def test_fragments_match_union_find_after_virt_between():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 8)
        c = random_circuit(rng, n, rng.randint(1, 3 * n))
        vc = from_circuit(c)
        edges = list(vc.qubit_graph.edges)
        if not edges:
            continue
        u, v = rng.choice(edges)
        virt_between(vc, u, v)
        assert [f.qubits for f in vc.fragments] == union_find_fragments(vc)


def test_gate_count_conserved_and_weight_sum_invariant():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 7)
        c = random_circuit(rng, n, rng.randint(2, 3 * n))
        vc = from_circuit(c)
        total = len(c.two_qubit_gates())
        for _ in range(rng.randint(1, 4)):
            real = [g.id for g in vc.real_gates()]
            if not real:
                break
            virt_gate(vc, rng.choice(real))
            assert vc.num_real_gates() + len(vc.virtual_gates) == total
            weight_sum = sum(w for _, _, w in vc.qubit_graph.edges(data="weight"))
            assert weight_sum == vc.num_real_gates()
            assert nx.is_directed_acyclic_graph(operation_graph(vc))
            assert [f.qubits for f in vc.fragments] == union_find_fragments(vc)


def test_dependencies_of_showcase_circuit():
    vc = from_circuit(dep_showcase_circuit())
    assert len(qubit_dependencies(vc)) == 12


def test_dependencies_empty_without_two_qubit_gates():
    vc = from_circuit(Circuit(4, [instr("h", q) for q in range(4)]))
    assert qubit_dependencies(vc) == set()


def test_dependencies_match_transitive_closure_oracle():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(2, 8)
        c = random_circuit(rng, n, rng.randint(1, 3 * n))
        vc = from_circuit(c)
        assert qubit_dependencies(vc) == closure_dependencies(c)


def test_dependencies_after_virtualization_match_oracle_without_gate():
    # removing a gate with re-linking must equal the closure of the circuit
    # with that gate deleted from the instruction list
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(2, 7)
        c = random_circuit(rng, n, rng.randint(2, 3 * n))
        positions = [i for i, ins in c.two_qubit_gates()]
        if not positions:
            continue
        gate_index = rng.randrange(len(positions))
        vc = from_circuit(c)
        virt_gate(vc, gate_index)
        stripped = Circuit(n, [ins for i, ins in enumerate(c.instructions)
                               if i != positions[gate_index]])
        assert qubit_dependencies(vc) == closure_dependencies(stripped)


def test_to_circuit_round_trip():
    c = Circuit(3, [instr("h", 0), instr("cx", 0, 1), instr("rzz", 1, 2, angle=0.5)])
    flat = to_circuit(from_circuit(c))
    kinds = [i.kind for i in flat.instructions]
    assert kinds == ["h", "cx", "rzz", "measure", "measure", "measure"]
    vc = from_circuit(c)
    virt_gate(vc, 0)
    with pytest.raises(VcError):
        to_circuit(vc)


PASS_ORDERS = [("cc", "dr", "qr"), ("dr", "cc", "qr"), ("cc", "dr"),
               ("qr", "cc"), ("dr", "qr"), ("cc", "qr", "dr")]


def ir_states(seed):
    """(label, IR) pairs from 340 random circuits of 3-8 qubits: each IR
    fresh, with some of its gates virtualized, merged by ``qr`` where that
    frees a wire, and through a random pass pipeline, exact or heuristic,
    where the passes reach the width."""
    rng = random.Random(seed)
    for trial in range(340):
        n = rng.randint(3, 8)
        c = random_circuit(rng, n, rng.randint(2, 4 * n),
                           two_qubit_prob=rng.uniform(0.3, 0.8))
        vc = from_circuit(c)
        yield "fresh", vc
        virtual = vc.copy()
        gids = sorted(virtual.gate_qubits)
        k = min(len(gids), rng.randint(1, max(1, len(gids) // 2)))
        for gid in rng.sample(gids, k):
            virt_gate(virtual, gid)
        yield "virtual", virtual
        try:
            merged = reuse_qubits(virtual, PassConfig(
                max_fragment_size=max(1, virtual.max_fragment_width() - 1),
                budget=0, seed=trial))
            if len(set(merged.wire_of.values())) < n:
                yield "merged", merged
        except WidthUnreachableError:
            pass
        config = PassConfig(max_fragment_size=rng.randint(2, n - 1),
                            budget=rng.randint(0, 5), seed=trial % 3,
                            exact=rng.random() < 0.3)
        # Only the exact search may also refuse an instance as too large.
        skipped = (PassError if config.exact
                   else (WidthUnreachableError, WireSplitError))
        try:
            pipeline = run_pipeline(vc, config, rng.choice(PASS_ORDERS))
        except skipped:
            continue
        yield "pipeline", pipeline


def assert_each_state_matches(seed, state, derived, reference):
    """``derived`` and ``reference`` agree on ``state`` for every IR of
    ``ir_states(seed)``: at least 1 000 IRs, and 100 of each kind."""
    seen = {"fresh": 0, "virtual": 0, "merged": 0, "pipeline": 0}
    for label, ir in ir_states(seed):
        assert state(derived(ir)) == state(reference(ir))
        seen[label] += 1
    assert sum(seen.values()) >= 1000, seen
    assert min(seen.values()) >= 100, seen


def test_operation_graph_matches_incremental_reference():
    # The graph derived from the stream equals the incrementally maintained
    # reference (built in gate-id order, relinked per virtual gate), keys
    # and edge data included, whatever the passes did to the stream.
    def state(g):
        return (sorted(g.nodes(data=True)),
                sorted(g.edges(keys=True, data=True)))

    assert_each_state_matches(2718, state, operation_graph, reference_op_graph)


def test_qubit_graph_matches_incremental_reference():
    # The graph derived from the gates equals the one the IR used to keep by
    # hand (weighted in gate-id order, decremented per virtual gate), in
    # node order, weights and every neighbour order, whatever the passes did.
    def state(g):
        return (list(g.nodes), sorted(g.edges(data="weight")),
                [(u, list(nbrs.items())) for u, nbrs in g.adjacency()])

    assert_each_state_matches(1618, state, lambda ir: ir.qubit_graph,
                              reference_qubit_graph)


def test_programs_are_unchanged_under_the_reference_qubit_graph(monkeypatch):
    # Bench-family configurations, exact and heuristic, compile to the same
    # program text, or the same refusal, when every read of the qubit graph
    # returns the incrementally kept reference instead.
    rng = random.Random(3141)
    configs = []
    while len(configs) < 240:
        n = rng.randint(4, 14)
        spec = BenchmarkSpec(rng.choice(FAMILIES), n, rng.randint(1, 3),
                             seed=rng.randrange(100))
        try:
            circuit = generate_benchmark(spec)
        except BenchmarkError:
            continue
        cfg = PassConfig(max_fragment_size=rng.randint(2, n - 1),
                         budget=rng.randint(0, 5), seed=rng.randrange(3),
                         exact=rng.random() < 0.3)
        configs.append((circuit, cfg, rng.choice(PASS_ORDERS)))

    def compile_all():
        out = []
        for circuit, cfg, order in configs:
            try:
                out.append(program_to_json(generate(
                    run_pipeline(from_circuit(circuit), cfg, order))))
            except PassError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    derived = compile_all()
    monkeypatch.setattr(VirtualCircuit, "qubit_graph",
                        property(reference_qubit_graph))
    assert compile_all() == derived
    assert sum(text.startswith("{") for text in derived) >= 150
    assert any(cfg.exact for _, cfg, _ in configs)


def test_dot_dumps():
    vc = from_circuit(two_cluster_circuit())
    op_dot = op_graph_dot(vc)
    q_dot = qubit_graph_dot(vc)
    assert op_dot.startswith("digraph") and "g0" in op_dot
    assert q_dot.startswith("graph") and "q0 -- q1" in q_dot


# ---------------------------------------------------------------------------
# copies

def snapshot(vc):
    """Every field by value, with the qubit graph's node, neighbour and
    edge-data order, and the derived operation graph's DOT text."""
    def graph(g):
        return [(u, dict(g.nodes[u]), [(v, repr(d)) for v, d in nbrs.items()])
                for u, nbrs in g.adjacency()]
    return (vc.num_qubits, vc.num_clbits, vc.name, list(vc.instructions),
            dict(vc.gate_qubits), dict(vc.virtual_gates), dict(vc.wire_of),
            op_graph_dot(vc), graph(vc.qubit_graph))


def _cut_showcase():
    vc = from_circuit(dep_showcase_circuit())
    virt_gate(vc, 1)
    return vc


def test_mutating_a_copy_leaves_the_original_unchanged():
    vc = _cut_showcase()
    before = snapshot(vc)
    for mutate in (
            lambda c: virt_gate(c, 3),
            lambda c: reference_merge_wires(c, 0, 2)):  # reorders the stream, rewrites wire_of
        copy = vc.copy()
        mutate(copy)
        assert snapshot(copy) != before
        assert snapshot(vc) == before


def test_run_pipeline_leaves_its_input_unchanged():
    rng = random.Random(9)
    merged = 0
    for seed in range(40):
        n = rng.randint(4, 8)
        vc = from_circuit(random_circuit(rng, n, rng.randint(n, 3 * n)))
        before = snapshot(vc)
        cfg = PassConfig(max_fragment_size=rng.randint(2, n - 1),
                         budget=rng.randint(0, 3), seed=seed)
        try:
            out = run_pipeline(vc, cfg)
        except WidthUnreachableError:
            continue
        merged += len(set(out.wire_of.values())) < n
        assert snapshot(vc) == before
    assert merged >= 5


def test_copy_shares_stream_elements_but_not_containers_or_graphs():
    a = _cut_showcase()
    b = a.copy()
    assert b.instructions == a.instructions
    assert all(x is y for x, y in zip(a.instructions, b.instructions))
    assert b.virtual_gates[1] is a.virtual_gates[1]
    for name in ("instructions", "gate_qubits", "virtual_gates", "wire_of",
                 "qubit_graph"):
        assert getattr(b, name) is not getattr(a, name), name
    u, v = next(iter(a.qubit_graph.edges))
    assert b.qubit_graph[u][v] is not a.qubit_graph[u][v]
    assert b.qubit_graph[u][v] == a.qubit_graph[u][v]
    assert (sorted(operation_graph(b).edges(keys=True))
            == sorted(operation_graph(a).edges(keys=True)))
