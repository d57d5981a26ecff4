import itertools
import math
import random
import time

import networkx as nx
import pytest

from gatevm import passes
from gatevm.bench import BenchmarkSpec, generate_benchmark
from gatevm.circuit import Circuit, instr
from gatevm.codegen import CodegenError, generate, program_to_json
from gatevm.passes import (
    KL_RESTARTS,
    InstanceTooLargeError,
    PassConfig,
    WidthUnreachableError,
    WireSplitError,
    cut_exact,
    cut_greedy_kl,
    gate_costs,
    reduce_dependencies_exact,
    reduce_dependencies_greedy,
    reuse_qubits,
    run_pipeline,
    solve_cut_exact,
    _kl_cut_plan,
    _merge_closures,
    _merged_stream,
    _reuse_pair,
    _wire_closures,
)
from gatevm.sim import run_exact, run_sampled, total_variation
from gatevm.vc import (VirtualSide, element_wires, from_circuit,
                       qubit_dependencies, virt_gate)

from fixtures import (
    DEP_SHOWCASE_FREED,
    DEP_SHOWCASE_PICK,
    dep_showcase_circuit,
    fully_dependent_circuit,
    two_cluster_circuit,
)
from helpers import (bench_family_configs, brute_force_min_cut, random_circuit,
                     reference_closure, reference_closure_of_wire,
                     reference_dependency_pairs, reference_gate_costs,
                     reference_kl_cut_plan, reference_merge_wires,
                     reference_op_graph, reference_reuse_pair,
                     reference_reuse_qubits, to_circuit)


def random_weighted_graph(rng, n):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < 0.45:
            g.add_edge(a, b, weight=rng.randint(1, 4))
    return g


def cfg(s, b, seed=0, exact=False):
    return PassConfig(max_fragment_size=s, budget=b, seed=seed, exact=exact)


# ---------------------------------------------------------------------------
# circuit cutter

def test_cut_exact_two_cluster():
    vc = from_circuit(two_cluster_circuit())
    out = cut_exact(vc, cfg(3, 8))
    frags = out.fragments
    assert [f.qubits for f in frags] == [(0, 1, 2), (3, 4, 5)]
    assert len(out.virtual_gates) == 2


def test_cut_exact_already_disconnected_is_noop():
    c = Circuit(4, [instr("cx", 0, 1), instr("cx", 2, 3)])
    out = cut_exact(from_circuit(c), cfg(2, 5))
    assert len(out.virtual_gates) == 0
    assert len(out.fragments) == 2


def test_cut_exact_budget_abort_leaves_circuit_unchanged():
    vc = from_circuit(two_cluster_circuit())
    out = cut_exact(vc, cfg(3, 1))  # needs 2 > budget 1
    assert len(out.virtual_gates) == 0
    assert [f.qubits for f in out.fragments] == [tuple(range(6))]


def test_cut_exact_instance_bound():
    with pytest.raises(InstanceTooLargeError):
        cut_exact(from_circuit(Circuit(15)), cfg(3, 0))


def test_solve_cut_exact_matches_brute_force():
    rng = random.Random(21)
    for trial in range(100):
        n = rng.randint(3, 8)
        g = random_weighted_graph(rng, n)
        s = rng.randint(2, max(2, n - 1))
        sol = solve_cut_exact(g, s, seed=trial)
        want_cost, want_balance = brute_force_min_cut(g, s)
        assert sol.cost == want_cost, f"trial {trial}"
        assert sol.balance == want_balance, f"trial {trial}"
        sizes = {}
        for part in sol.assignment.values():
            sizes[part] = sizes.get(part, 0) + 1
        assert max(sizes.values()) <= s
        assert sol.cost == sum(g[u][v]["weight"] for u, v in sol.cut_edges)


def test_cut_greedy_matches_exact_on_two_cluster():
    vc = from_circuit(two_cluster_circuit())
    out = cut_greedy_kl(vc, cfg(3, 8))
    assert len(out.virtual_gates) == 2
    assert sorted(f.qubits for f in out.fragments) == [(0, 1, 2), (3, 4, 5)]


def test_cut_greedy_chain_bisection():
    c = Circuit(8, [instr("cx", i, i + 1) for i in range(7)])
    out = cut_greedy_kl(from_circuit(c), cfg(4, 8))
    assert len(out.virtual_gates) == 1
    assert [len(f.qubits) for f in out.fragments] == [4, 4]


def test_greedy_never_beats_exact():
    rng = random.Random(33)
    for trial in range(60):
        n = rng.randint(3, 8)
        c = random_circuit(rng, n, rng.randint(2, 3 * n), two_qubit_prob=0.8)
        vc = from_circuit(c)
        s = rng.randint(2, max(2, n - 1))
        exact = cut_exact(vc, cfg(s, 10 ** 6, seed=trial))
        greedy = cut_greedy_kl(vc, cfg(s, 10 ** 6, seed=trial))
        assert len(greedy.virtual_gates) >= len(exact.virtual_gates)


@pytest.mark.parametrize("restarts, graphs", [(1, 400), (KL_RESTARTS, 40)])
def test_kl_cut_plan_matches_view_reference(monkeypatch, restarts, graphs):
    # Sparse weighted graphs up to 64 nodes, half with shuffled node order
    # and a third handed in as subgraph views (as solve_cut_exact does). A
    # node's neighbour order steers Kernighan-Lin's ties, so the plan on
    # materialized subgraphs must equal the plan on views edge for edge.
    # One restart per bisection checks many graphs quickly.
    monkeypatch.setattr(passes, "KL_RESTARTS", restarts)
    rng = random.Random(31)
    for trial in range(graphs):
        n = rng.randint(4, 64)
        nodes = list(range(n))
        if trial % 2:
            rng.shuffle(nodes)
        g = nx.Graph()
        g.add_nodes_from(nodes)
        for _ in range(rng.randint(n - 1, 3 * n)):
            a, b = rng.sample(range(n), 2)
            if g.has_edge(a, b):
                g[a][b]["weight"] += 1
            else:
                g.add_edge(a, b, weight=rng.choice((1, 1, 2, 3)))
        if trial % 3 == 0:
            g = g.subgraph(sorted(rng.sample(range(n), max(2, n - 3))))
        s = rng.randint(2, max(2, n // 2))
        seed = rng.randrange(1000)
        expect = reference_kl_cut_plan(g, s, random.Random(seed), restarts)
        assert _kl_cut_plan(g, s, random.Random(seed)) == expect, trial


def test_cut_respects_fragment_size():
    rng = random.Random(40)
    for trial in range(30):
        n = rng.randint(4, 9)
        c = random_circuit(rng, n, 3 * n, two_qubit_prob=0.9)
        s = rng.randint(2, n)
        out = cut_greedy_kl(from_circuit(c), cfg(s, 10 ** 6, seed=trial))
        assert out.max_fragment_width() <= s


# ---------------------------------------------------------------------------
# dependency reducer

def oracle_min_dependencies(c: Circuit, budget: int) -> int:
    """Brute-force minimum |D_q| over all subsets of <= budget gate removals,
    computed on plain circuits via the closure oracle."""
    from helpers import closure_dependencies

    positions = [i for i, _ in c.two_qubit_gates()]
    best = len(closure_dependencies(c))
    for size in range(1, min(budget, len(positions)) + 1):
        for subset in itertools.combinations(positions, size):
            stripped = Circuit(c.num_qubits,
                               [ins for i, ins in enumerate(c.instructions)
                                if i not in subset])
            best = min(best, len(closure_dependencies(stripped)))
    return best


def test_reduce_exact_showcase_instance():
    vc = from_circuit(dep_showcase_circuit())
    assert len(qubit_dependencies(vc)) == 12
    out = reduce_dependencies_exact(vc, cfg(4, 1))
    assert len(qubit_dependencies(out)) == 11
    assert len(out.virtual_gates) == 1


def test_reduce_exact_zero_budget_is_noop():
    vc = from_circuit(dep_showcase_circuit())
    out = reduce_dependencies_exact(vc, cfg(4, 0))
    assert len(out.virtual_gates) == 0


def test_reduce_exact_prefers_fewer_gates_on_ties():
    # a doubled CX: removing one of the two gates leaves |D_q| unchanged,
    # so with budget 1 the optimum is to virtualize nothing
    vc = from_circuit(Circuit(3, [instr("cx", 0, 1), instr("cx", 0, 1)]))
    out = reduce_dependencies_exact(vc, cfg(3, 1))
    assert len(out.virtual_gates) == 0
    # with budget 2 removing both gates empties the dependency set
    out2 = reduce_dependencies_exact(vc, cfg(3, 2))
    assert len(out2.virtual_gates) == 2
    assert qubit_dependencies(out2) == set()


def test_reduce_exact_instance_bound():
    c = Circuit(4, [instr("cx", i % 3, 3) for i in range(17)])
    with pytest.raises(InstanceTooLargeError):
        reduce_dependencies_exact(from_circuit(c), cfg(4, 1))


def test_reduce_exact_matches_subset_oracle():
    rng = random.Random(29)
    for trial in range(100):
        n = rng.randint(3, 6)
        c = random_circuit(rng, n, rng.randint(2, 10), two_qubit_prob=0.8)
        budget = rng.randint(0, 3)
        out = reduce_dependencies_exact(from_circuit(c), cfg(n, budget, seed=trial))
        assert len(qubit_dependencies(out)) == oracle_min_dependencies(c, budget)


def test_greedy_first_pick_on_showcase():
    vc = from_circuit(dep_showcase_circuit())
    costs = gate_costs(vc)
    assert costs[DEP_SHOWCASE_PICK] == 6  # 3 ancestors * 2 descendants
    assert max(costs.values()) == 6
    assert [g for g, v in costs.items() if v == 6] == [DEP_SHOWCASE_PICK]
    out = reduce_dependencies_greedy(vc, cfg(4, 1))
    assert DEP_SHOWCASE_PICK in out.virtual_gates
    deps = qubit_dependencies(out)
    assert len(deps) == 11
    assert DEP_SHOWCASE_FREED not in deps


def test_greedy_stops_on_zero_costs():
    vc = from_circuit(Circuit(2, [instr("cx", 0, 1)]))
    out = reduce_dependencies_greedy(vc, cfg(2, 5))
    assert len(out.virtual_gates) == 0


def test_greedy_never_beats_exact_reducer():
    rng = random.Random(51)
    for trial in range(40):
        n = rng.randint(3, 6)
        c = random_circuit(rng, n, rng.randint(2, 10), two_qubit_prob=0.8)
        budget = rng.randint(1, 3)
        vc = from_circuit(c)
        exact = reduce_dependencies_exact(vc, cfg(n, budget, seed=trial))
        greedy = reduce_dependencies_greedy(vc, cfg(n, budget, seed=trial))
        assert (len(qubit_dependencies(greedy))
                >= len(qubit_dependencies(exact)))


def test_greedy_iterations_reduce_total_cost():
    rng = random.Random(61)
    for _ in range(20):
        c = random_circuit(rng, 6, 18, two_qubit_prob=0.8)
        vc = from_circuit(c)
        total = sum(gate_costs(vc).values())
        for _ in range(3):
            nxt = reduce_dependencies_greedy(vc, cfg(6, 1, seed=0))
            if len(nxt.virtual_gates) == len(vc.virtual_gates):
                break
            new_total = sum(gate_costs(nxt).values())
            assert new_total < total
            total, vc = new_total, nxt


def test_greedy_runtime_scales_linearly():
    # The two sizes' samples alternate, and each sample times enough
    # back-to-back calls to last about 20 ms or more, so one fast burst of
    # the host cannot set the minimum of only one side.
    def ir(num_gates):
        rng = random.Random(1)
        return from_circuit(random_circuit(rng, 20, num_gates,
                                           two_qubit_prob=1.0))

    def per_call(vc, calls):
        t0 = time.perf_counter()
        for _ in range(calls):
            gate_costs(vc)
        return (time.perf_counter() - t0) / calls

    for base in (1000, 10000):
        small, large = ir(base), ir(2 * base)
        calls = max(1, math.ceil(0.02 / per_call(small, 1)))
        best = [float("inf"), float("inf")]
        for _ in range(5):
            best[0] = min(best[0], per_call(small, calls))
            best[1] = min(best[1], per_call(large, calls))
        ratio = best[1] / best[0]
        assert ratio <= 3.0, f"doubling {base} gates scaled by {ratio:.2f}"


# ---------------------------------------------------------------------------
# qubit reuser

def test_reuse_showcase_width_reduction():
    vc = from_circuit(dep_showcase_circuit())
    reduced = reduce_dependencies_greedy(vc, cfg(3, 1))
    out = reuse_qubits(reduced, cfg(3, 0))
    assert out.max_fragment_width() == 3
    assert len(out.virtual_gates) == 1  # reuse consumed no budget


def test_reuse_fails_on_fully_dependent_circuit():
    vc = from_circuit(fully_dependent_circuit(4))
    assert len(qubit_dependencies(vc)) == 12  # complete
    with pytest.raises(WidthUnreachableError):
        reuse_qubits(vc, cfg(3, 0))


def test_reuse_noop_when_fragments_fit():
    vc = from_circuit(two_cluster_circuit())
    out = reuse_qubits(vc, cfg(6, 0))
    assert to_circuit(out).instructions == to_circuit(vc).instructions


def test_reuse_preserves_sampled_distribution():
    rng = random.Random(71)
    checked = 0
    trial = 0
    while checked < 50 and trial < 400:
        trial += 1
        n = rng.randint(3, 8)
        c = random_circuit(rng, n, rng.randint(n, 2 * n), two_qubit_prob=0.4)
        vc = from_circuit(c)
        width = vc.max_fragment_width()
        try:
            out = reuse_qubits(vc, cfg(width - 1, 0, seed=trial))
        except WidthUnreachableError:
            continue
        ideal = run_exact(c)
        sampled = run_sampled(to_circuit(out), shots=50000,
                              seed=trial).to_signed_distribution()
        assert total_variation(sampled, ideal) <= 0.02
        checked += 1
    assert checked == 50


def test_reuse_never_merges_across_fragments():
    c = Circuit(4, [instr("cx", 0, 1), instr("cx", 2, 3)])
    vc = from_circuit(c)
    # both fragments have width 2 <= 3: nothing to do even though cross-
    # fragment wires are trivially independent
    out = reuse_qubits(vc, cfg(2, 0))
    assert len(out.fragments) == 2
    assert all(len(f.wires) == 2 for f in out.fragments)
    with pytest.raises(WidthUnreachableError):
        # width 1 is unreachable inside a connected fragment
        reuse_qubits(vc, cfg(1, 0))


# ---------------------------------------------------------------------------
# pipeline

def test_pipeline_budget_threading_on_two_cluster():
    vc = from_circuit(two_cluster_circuit())
    cut_only = run_pipeline(vc, cfg(3, 3, exact=True), passes=("cc",))
    assert len(cut_only.virtual_gates) == 2  # the cutter spends 2 of 3
    out = run_pipeline(vc, cfg(3, 3, exact=True))
    # the reducer receives the remaining budget of 1 and, since removing one
    # triangle gate strictly reduces the dependency count, spends it
    assert len(out.virtual_gates) == 3
    deps_cut = len(qubit_dependencies(cut_only))
    assert len(qubit_dependencies(out)) < deps_cut


def test_pipeline_budget_cap():
    rng = random.Random(81)
    for trial in range(25):
        n = rng.randint(4, 8)
        c = random_circuit(rng, n, rng.randint(n, 3 * n), two_qubit_prob=0.7)
        budget = rng.randint(0, 3)
        try:
            out = run_pipeline(from_circuit(c),
                               cfg(max(2, n // 2), budget, seed=trial))
        except WidthUnreachableError:
            continue
        assert len(out.virtual_gates) <= budget


def test_pipeline_reaches_width_or_fails():
    rng = random.Random(91)
    for trial in range(25):
        n = rng.randint(4, 8)
        c = random_circuit(rng, n, rng.randint(n, 3 * n), two_qubit_prob=0.7)
        s = max(2, n // 2)
        try:
            out = run_pipeline(from_circuit(c), cfg(s, 3, seed=trial))
        except WidthUnreachableError:
            continue
        assert out.max_fragment_width() <= s


def test_pipeline_propagates_reuse_failure():
    vc = from_circuit(fully_dependent_circuit(6))
    assert len(qubit_dependencies(vc)) == 30  # complete
    with pytest.raises(WidthUnreachableError):
        run_pipeline(vc, cfg(3, 0))


def test_passes_never_increase_dependencies_or_width():
    rng = random.Random(101)
    for trial in range(25):
        n = rng.randint(4, 8)
        c = random_circuit(rng, n, rng.randint(n, 3 * n), two_qubit_prob=0.6)
        vc = from_circuit(c)
        deps0 = len(qubit_dependencies(vc))
        width0 = vc.max_fragment_width()
        for fn in (cut_greedy_kl, reduce_dependencies_greedy):
            out = fn(vc, cfg(max(2, n // 2), 2, seed=trial))
            assert len(qubit_dependencies(out)) <= deps0
            assert out.max_fragment_width() <= width0


def test_pass_determinism_per_seed():
    c = random_circuit(random.Random(5), 8, 20, two_qubit_prob=0.7)
    vc = from_circuit(c)
    a = run_pipeline(vc, cfg(4, 3, seed=9))
    b = run_pipeline(vc, cfg(4, 3, seed=9))
    assert sorted(a.virtual_gates) == sorted(b.virtual_gates)
    assert a.instructions == b.instructions
    assert a.wire_of == b.wire_of


def test_pass_config_validation():
    with pytest.raises(ValueError):
        PassConfig(max_fragment_size=0, budget=1)
    with pytest.raises(ValueError):
        PassConfig(max_fragment_size=1, budget=-1)


def test_showcase_pipeline_knits_back_exactly():
    # dependency reduction plus qubit reuse in one fragment, then knitting
    from gatevm.codegen import generate
    from gatevm.runtime import run_program
    from gatevm.sim import linf_distance, run_exact

    circuit = dep_showcase_circuit()
    out = run_pipeline(from_circuit(circuit), cfg(3, 1, seed=0))
    assert out.max_fragment_width() == 3
    assert len(out.virtual_gates) == 1
    knitted = run_program(generate(out), mode="exact")
    assert linf_distance(knitted, run_exact(circuit)) <= 1e-8


def test_pipeline_pass_reordering():
    vc = from_circuit(two_cluster_circuit())
    out = run_pipeline(vc, cfg(3, 3, seed=0), passes=("dr", "cc"))
    assert len(out.virtual_gates) <= 3
    with pytest.raises(Exception, match="unknown pass"):
        run_pipeline(vc, cfg(3, 3), passes=("cc", "nope"))


def test_pipeline_accepts_custom_pass_callables():
    calls = []

    def custom(vc, pass_cfg):
        calls.append(pass_cfg.budget)
        out = vc.copy()
        gates = [g.id for g in out.real_gates()]
        if gates and pass_cfg.budget > 0:
            from gatevm.vc import virt_gate as vg
            vg(out, gates[0])
        return out

    vc = from_circuit(two_cluster_circuit())
    out = run_pipeline(vc, cfg(6, 2, seed=0), passes=(custom, custom, custom))
    # each invocation sees the remaining budget and spends one gate
    assert calls == [2, 1, 0]
    assert len(out.virtual_gates) == 2


def test_reuse_respects_serialization_from_earlier_merges():
    # After merging qubit 1 onto qubit 0's wire, everything downstream of
    # qubit 1's gates also waits on that wire's earlier history (which
    # touches qubit 3). A later merge of qubit 3 onto qubit 2's wire would
    # split qubit 3's timeline even though no gate path runs from qubit 3
    # to qubit 2, so reuse legality must consult the instruction stream,
    # not just gate-level dependencies.
    from gatevm.sim import linf_distance, run_exact

    c = Circuit(4, name="serialization-trap")
    c.add("h", 3)
    c.add("cx", 3, 0)
    c.add("rx", 1, angle=0.8)
    c.add("cx", 1, 2)
    c.add("cz", 1, 3)
    ideal = run_exact(c)
    for seed in range(15):
        # One merge always works and must preserve the distribution.
        out = reuse_qubits(from_circuit(c), cfg(3, 0, seed=seed))
        assert out.max_fragment_width() == 3
        assert linf_distance(run_exact(to_circuit(out)), ideal) <= 1e-10
        # Width 2 would need a second merge, but every candidate is blocked
        # by a real gate or by the first merge's serialized history; a
        # gate-level-only check would splice anyway and corrupt the result.
        with pytest.raises(WidthUnreachableError):
            reuse_qubits(from_circuit(c), cfg(2, 0, seed=seed))


def _random_streams(rng):
    """Instruction streams of one random circuit with barriers and some
    virtualized gates: as built, then after each of up to three merges of a
    pair the reference closure allows. Yields the width, the stream and the
    merges so far as (target, source)."""
    n = rng.randint(2, 7)
    c = random_circuit(rng, n, rng.randint(4, 30))
    for _ in range(rng.randint(0, 3)):
        wires = rng.sample(range(n), rng.randint(1, 2))
        c.instructions.insert(rng.randrange(len(c.instructions) + 1),
                              instr("barrier", *wires))
    vc = from_circuit(c)
    for gid in rng.sample(sorted(vc.gate_qubits), len(vc.gate_qubits) // 3):
        virt_gate(vc, gid)
    merges = []
    yield n, list(vc.instructions), list(merges)
    for _ in range(3):
        pairs = []
        live = sorted(set(vc.wire_of.values()))
        for w_t in live:
            blocked = {w for i in reference_closure(vc.instructions, w_t)
                       for w in element_wires(vc.instructions[i])}
            pairs.extend((w_t, w_s) for w_s in live
                         if w_s != w_t and w_s not in blocked)
        if not pairs:
            return
        pair = rng.choice(pairs)
        reference_merge_wires(vc, *pair)
        merges.append(pair)
        yield n, list(vc.instructions), list(merges)


def test_wire_closure_and_masks_match_reference():
    # Per wire, the stream positions of its closure and the wires they act
    # on, from one sweep; the reverse walk the reuser used before agrees.
    rng = random.Random(2026)
    kinds = {"side": 0, "barrier": 0, "reset": 0}
    for _ in range(80):
        for n, stream, _ in _random_streams(rng):
            dep, anc = _wire_closures(stream)
            for w in range(n):
                closure = reference_closure(stream, w)
                assert reference_closure_of_wire(stream, w) == closure
                assert anc.get(w, 0) == sum(1 << i for i in closure)
                wires = {v for i in closure for v in element_wires(stream[i])}
                assert dep.get(w, 0) == sum(1 << v for v in wires)
            for x in stream:
                if isinstance(x, VirtualSide):
                    kinds["side"] += 1
                elif getattr(x, "kind", None) in ("barrier", "reset"):
                    kinds[x.kind] += 1
    assert all(count > 20 for count in kinds.values()), kinds


def test_merge_updates_match_a_fresh_sweep():
    # The closed-form update after each merge gives the masks of a fresh
    # sweep over the merged stream, and each merge's head (what the target
    # depends on) has the reference closure's size; the composed partitions
    # and renames give the merged stream.
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        streams = _random_streams(rng)
        _, first, _ = next(streams)
        dep, anc = _wire_closures(first)
        before = first
        done = []
        for _, stream, merges in streams:
            target, source = merges[-1]
            head = anc.get(target, 0)
            assert head.bit_count() == len(reference_closure(before, target))
            done.append((target, head))
            _merge_closures(dep, anc, target, source, len(first) + len(done) - 1)
            assert dep == _wire_closures(stream)[0]
            rename = {}
            for t, s in merges:
                rename = {w: t if v == s else v for w, v in rename.items()}
                rename[s] = t
            assert _merged_stream(first, done, rename) == stream
            before = stream
            checked += 1
    assert checked >= 150, checked


def test_reuse_matches_reference_on_bench_family_configurations():
    # One sweep, closed-form updates and one rewrite give the stream and
    # wire map of sweeping and rewriting at each merge, and the same refusals.
    rng = random.Random(15)
    seen = {"merged": 0, "merges": 0, "refused": 0}
    for vc, pass_cfg in bench_family_configs(rng, 300):
        results = []
        for reuse in (reuse_qubits, reference_reuse_qubits):
            try:
                out = reuse(vc, pass_cfg)
            except WidthUnreachableError as exc:
                results.append(str(exc))
            else:
                results.append((out.instructions, out.wire_of))
        assert results[0] == results[1]
        if isinstance(results[0], str):
            seen["refused"] += 1
        else:
            merges = vc.num_qubits - len(set(results[0][1].values()))
            seen["merged"] += merges > 0
            seen["merges"] += merges
    assert seen["merged"] >= 50 and seen["merges"] >= 150, seen
    assert seen["refused"] >= 40, seen


def test_reuse_pair_matches_list_reference(monkeypatch):
    # The same pair and the same generator state as rng.choice over the
    # listed pairs: on the wires and masks of random streams, on random
    # masks over wide wire numbers, and as whole compiled programs.
    rng = random.Random(77)
    cases = []
    for _ in range(60):
        for n, stream, _ in _random_streams(rng):
            wires = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            cases.append((wires, _wire_closures(stream)[0]))
    for _ in range(300):
        wires = tuple(sorted(rng.sample(range(64), rng.randint(1, 30))))
        cases.append((wires, {w: rng.getrandbits(64) & rng.getrandbits(64)
                              for w in wires}))
    found = 0
    for wires, dep in cases:
        seed = rng.randrange(1 << 30)
        a, b = random.Random(seed), random.Random(seed)
        pair = _reuse_pair(wires, dep, a)
        assert pair == reference_reuse_pair(wires, dep, b)
        assert a.getstate() == b.getstate()
        found += pair is not None
    assert found >= 300

    merged = 0  # counted once per chooser
    for trial in range(80):
        n = rng.randint(4, 9)
        c = random_circuit(rng, n, rng.randint(n, 3 * n), two_qubit_prob=0.6)
        pass_cfg = cfg(rng.randint(2, n - 1), rng.randint(0, 2), seed=trial)
        programs = []
        for chooser in (_reuse_pair, reference_reuse_pair):
            monkeypatch.setattr(passes, "_reuse_pair", chooser)
            try:
                out = run_pipeline(from_circuit(c), pass_cfg)
            except WidthUnreachableError as exc:
                programs.append(str(exc))
                continue
            programs.append(program_to_json(generate(out)))
            merged += out.num_qubits > len(set(out.wire_of.values()))
        assert programs[0] == programs[1]
    assert merged >= 20


def test_pipeline_refuses_to_split_reused_wires():
    # Qubit reuse puts two qubits on one wire; a later pass that virtualizes
    # gates can put them in different fragments, which cannot share it.
    c = generate_benchmark(BenchmarkSpec("bv", 4))
    with pytest.raises(WireSplitError, match="pass 'cc' split reused wire"):
        run_pipeline(from_circuit(c), cfg(2, 1), ("qr", "cc"))
    c = generate_benchmark(BenchmarkSpec("ghz", 4))
    with pytest.raises(WireSplitError, match="pass 'dr' split reused wire"):
        run_pipeline(from_circuit(c), cfg(3, 1), ("qr", "dr"))
    # The same passes run directly leave an IR that codegen refuses.
    out = cut_greedy_kl(reuse_qubits(from_circuit(c), cfg(3, 0)), cfg(2, 1))
    with pytest.raises(CodegenError, match="share wire"):
        generate(out)
    for order in (("cc", "dr", "qr"), ("dr", "qr")):
        generate(run_pipeline(from_circuit(c), cfg(3, 1), order))


def test_stream_dependencies_and_costs_match_graph_reference():
    # The passes read dependencies off the stream; an incrementally
    # maintained operation graph must agree on fresh IRs, after
    # virtualizations and after qubit-reuse merges have reordered the stream.
    rng = random.Random(1010)
    seen = {"fresh": 0, "virtual": 0, "merged": 0}
    for _ in range(150):
        n = rng.randint(3, 9)
        c = random_circuit(rng, n, rng.randint(2, 40),
                           two_qubit_prob=rng.uniform(0.2, 0.6))
        vc = from_circuit(c)
        irs = [("fresh", vc.copy())]
        gids = sorted(vc.gate_qubits)
        for gid in rng.sample(gids, rng.randint(0, len(gids) * 2 // 3)):
            virt_gate(vc, gid)
        irs.append(("virtual", vc))
        try:
            merged = reuse_qubits(vc, cfg(max(1, vc.max_fragment_width() - 1),
                                          0, seed=rng.randrange(100)))
        except WidthUnreachableError:
            merged = vc
        if len(set(merged.wire_of.values())) < n:
            irs.append(("merged", merged))
        for label, ir in irs:
            op_graph = reference_op_graph(ir)
            assert (qubit_dependencies(ir)
                    == reference_dependency_pairs(op_graph, ir.gate_qubits))
            assert gate_costs(ir) == reference_gate_costs(ir, op_graph)
            seen[label] += 1
    assert seen["merged"] >= 80, seen


def test_pipeline_knit_equivalence_mini_campaign():
    # End-to-end identity across pass combinations, including chained
    # reuse and virtual gates whose two sides land on one wire.
    from gatevm.codegen import generate
    from gatevm.runtime import run_program
    from gatevm.sim import linf_distance, run_exact

    rng = random.Random(424242)
    knitted = 0
    while knitted < 40:
        n = rng.randint(3, 8)
        c = random_circuit(rng, n, rng.randint(n, 3 * n),
                           two_qubit_prob=rng.uniform(0.3, 0.8))
        s = rng.randint(2, max(2, n - 1))
        try:
            out = run_pipeline(from_circuit(c),
                               cfg(s, rng.randint(0, 3), seed=knitted))
        except WidthUnreachableError:
            continue
        err = linf_distance(run_program(generate(out), mode="exact"),
                            run_exact(c))
        assert err <= 1e-8
        knitted += 1
