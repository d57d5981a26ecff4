import itertools
import json
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gatevm import runtime, sim
from gatevm.bench import BenchmarkSpec, generate_benchmark
from gatevm.circuit import Circuit, instr
from gatevm.codegen import Placeholder, generate
from gatevm.decomp import decomposition_for
from gatevm.passes import PassConfig, WidthUnreachableError, run_pipeline
from gatevm.qpu import (QpuModel, QpuError, fleet_from_json, fleet_to_json,
                        heavy_hex_qpu, line_qpu)
from gatevm.runtime import (
    MAX_KNIT_ENTRIES,
    FragmentResultEntry,
    FragmentResults,
    GlobalCoefficients,
    InstantiationOverflowError,
    KnitKeyWidthError,
    KnitOverflowError,
    KnitShapeError,
    NoFittingQpuError,
    execute,
    global_coefficients,
    instantiate,
    knit,
    metric_proxy,
    run_program,
    schedule,
)
from gatevm.sim import SignedDistribution, linf_distance, run_exact
from gatevm.transpiler import esp, map_and_route
from gatevm.vc import from_circuit, virt_gate

from helpers import (bench_family_programs, random_circuit, reference_block_table,
                     reference_distributions, reference_execute,
                     reference_halves_knit_range, reference_instantiate,
                     reference_knit, reference_knit_range,
                     reference_prefix_knit_range, reference_schedule,
                     reference_slot_circuit, refuse_instances)


def compiled(circuit, vgate_ids):
    vc = from_circuit(circuit)
    for gid in vgate_ids:
        virt_gate(vc, gid)
    return generate(vc)


def bell_program():
    return compiled(Circuit(2, [instr("h", 0), instr("cx", 0, 1)]), [0])


# ---------------------------------------------------------------------------
# instantiator

def test_single_gate_six_instances_per_fragment():
    sets = instantiate(bell_program())
    assert [len(s.instances) for s in sets] == [6, 6]
    assert sets[0].instances == [(i,) for i in range(6)]


def test_untouched_fragment_has_one_instance():
    c = Circuit(3, [instr("h", 0), instr("cx", 0, 1)])
    prog = compiled(c, [0])
    counts = {s.fragment_index: len(s.instances) for s in instantiate(prog)}
    assert sorted(counts.values()) == [1, 6, 6]


def test_instance_counts_match_placeholder_scan():
    # three virtual gates: two internal to one side, one crossing
    c = Circuit(4, [instr("cx", 0, 1), instr("cz", 0, 1), instr("cx", 1, 2),
                    instr("cx", 2, 3)])
    prog = compiled(c, [0, 1, 2])  # cut (0,1) twice and the crossing (1,2)
    sets = {s.fragment_index: s for s in instantiate(prog)}
    for pc in prog.fragments:
        touching = {el.gate_id for el in pc.elements
                    if isinstance(el, Placeholder)}
        assert len(sets[pc.fragment_index].instances) == 6 ** len(touching)


def test_enumeration_order_last_gate_fastest():
    c = Circuit(2, [instr("cx", 0, 1), instr("cz", 0, 1), instr("cx", 0, 1)])
    prog = compiled(c, [0, 1, 2])
    iset = [s for s in instantiate(prog) if len(s.gate_ids) == 3][0]
    assert iset.instances[:7] == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 4), (0, 0, 5),
        (0, 1, 0)]


def test_instantiation_overflow_guard():
    c = Circuit(2, [instr("cx", 0, 1)] * 10)
    prog = compiled(c, list(range(10)))
    with pytest.raises(InstantiationOverflowError):
        instantiate(prog)


def test_execute_overflow_guard_builds_no_instances():
    # Fragments {0} and {1} touch 7 gates each (6^7 instances), fragment {2}
    # touches 9 (6^9, over the limit): execute refuses before it enumerates
    # or runs any fragment's instances.
    c = Circuit(4, [instr("cx", 0, 1)] * 7 + [instr("cx", 2, 3)] * 9)
    prog = compiled(c, range(16))
    tracemalloc.start()
    try:
        with pytest.raises(InstantiationOverflowError, match="fragment 2"):
            execute(prog)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# global coefficients

def test_global_coefficient_length():
    c = Circuit(2, [instr("cx", 0, 1), instr("cz", 0, 1), instr("cx", 0, 1)])
    prog = compiled(c, [0, 1, 2])
    coeffs = global_coefficients(prog)
    assert len(coeffs) == 6 ** 3


def test_global_coefficient_overflow_guard():
    # 6^9 global instances exceed MAX_FRAGMENT_INSTANCES: refused before the
    # 80 MB coefficient vector is built. 6^8 (1.68 M entries) still runs.
    chain = Circuit(10, [instr("cx", q, q + 1) for q in range(9)])
    too_many = compiled(chain, range(9))
    tracemalloc.start()
    try:
        with pytest.raises(InstantiationOverflowError):
            global_coefficients(too_many)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(global_coefficients(compiled(chain, range(8)))) == 6 ** 8


def test_run_program_refuses_too_many_global_instances_before_executing(
        monkeypatch):
    # GHZ-20 cut by cc alone at s=2, b=19: 11 virtual gates over 12
    # fragments, each touching at most 2, so no fragment is over the limit
    # but 6^11 global instances are. The 12 fragments used to run first.
    circuit = generate_benchmark(BenchmarkSpec("ghz", 20))
    prog = generate(run_pipeline(from_circuit(circuit), PassConfig(2, 19, 0),
                                 ("cc",)))
    assert prog.num_virtual_gates == 11 and len(prog.fragments) == 12
    assert max(len(pc.touching_gates(prog.gate_order)) for pc in prog.fragments) == 2
    refuse_instances(monkeypatch)
    with pytest.raises(InstantiationOverflowError, match="11 virtual gates"):
        run_program(prog)


def test_global_coefficients_match_per_index_product():
    rng = random.Random(2)
    c = Circuit(3, [instr("cx", 0, 1), instr("rzz", 1, 2, angle=0.7),
                    instr("cz", 0, 2)])
    prog = compiled(c, [0, 1, 2])
    coeffs = global_coefficients(prog)
    k = len(prog.gate_order)
    for _ in range(1000):
        i = rng.randrange(6 ** k)
        digits = []
        rest = i
        for _ in range(k):
            digits.append(rest % 6)
            rest //= 6
        digits.reverse()  # first gate in gate_order varies slowest
        product = 1.0
        for gid, d in zip(prog.gate_order, digits):
            product *= prog.coeff_vectors[gid][d]
        assert coeffs.values[i] == pytest.approx(product, abs=1e-15)


# ---------------------------------------------------------------------------
# scheduler

def fleet(*specs):
    out = []
    for name, n, queue, rate in specs:
        out.append(QpuModel(name, n, [(i, i + 1) for i in range(n - 1)],
                            {"2q": rate, "1q": rate / 10, "measure": rate},
                            queue))
    return out


def test_schedule_prefers_empty_queue_when_alpha_dominates():
    qpus = fleet(("busy", 5, 10, 0.01), ("idle", 5, 0, 0.01))
    prog = bell_program()
    assignment = schedule(prog, qpus, alpha=1.0, beta=0.0)
    assert set(assignment.values()) <= {"idle"}


def test_schedule_beta_only_follows_esp():
    qpus = fleet(("clean", 5, 50, 0.001), ("noisy", 5, 0, 0.2))
    prog = bell_program()
    assignment = schedule(prog, qpus, alpha=0.0, beta=1.0)
    assert set(assignment.values()) == {"clean"}


def test_schedule_requires_fitting_qpu():
    c = Circuit(4, [instr("cx", 0, 1), instr("cx", 1, 2), instr("cx", 2, 3)])
    prog = compiled(c, [])
    with pytest.raises(NoFittingQpuError):
        schedule(prog, fleet(("tiny", 2, 0, 0.01)), alpha=1.0, beta=0.0)


def test_schedule_updates_queue_lengths():
    qpus = fleet(("a", 4, 0, 0.01), ("b", 4, 0, 0.01))
    prog = bell_program()  # two fragments, 6 instances each
    schedule(prog, qpus, alpha=1.0, beta=0.0)
    assert sorted(q.queue_length for q in qpus) == [6, 6]


def test_schedule_matches_independent_argmax():
    rng = random.Random(77)
    c = Circuit(3, [instr("h", 0), instr("cx", 0, 1), instr("cx", 1, 2)])
    prog = compiled(c, [1])
    for trial in range(100):
        qpus = []
        for i in range(rng.randint(2, 5)):
            n = rng.randint(2, 6)
            qpus.append(QpuModel(
                f"q{i}", n, [(a, a + 1) for a in range(n - 1)],
                {"2q": rng.uniform(0, 0.3), "1q": rng.uniform(0, 0.05),
                 "measure": rng.uniform(0, 0.3)},
                rng.randint(0, 20)))
        alpha = rng.choice([0.0, 1.0, rng.random()])
        beta = rng.choice([0.0, 1.0, rng.random()])
        seed = rng.randrange(1000)
        snapshot = [q.queue_length for q in qpus]
        assignment = schedule(prog, qpus, alpha, beta, seed)
        # independent recomputation, fragment by fragment
        for q, ql in zip(qpus, snapshot):
            q.queue_length = ql
        for pc in prog.fragments:
            fits = sorted((q for q in qpus if q.num_qubits >= pc.num_qubits),
                          key=lambda q: q.name)
            if not fits:
                break
            max_queue = max(q.queue_length for q in qpus)
            scores = {}
            for q in fits:
                from gatevm.runtime import metric_proxy
                success = esp(map_and_route(metric_proxy(pc), q, seed), q)
                wait = q.queue_length / max_queue if max_queue else 0.0
                scores[q.name] = alpha * (1 - wait) + beta * success
            best = max(fits, key=lambda q: (scores[q.name], ))
            expect = min((q for q in fits
                          if scores[q.name] == scores[best.name]),
                         key=lambda q: q.name)
            assert assignment[pc.fragment_index] == expect.name, trial
            expect.queue_length += 6 ** len(
                pc.touching_gates(prog.gate_order))


def test_schedule_routes_once_per_coupling_map(monkeypatch):
    # Two heavy-hex devices with one coupling map and different error
    # rates: each fragment is routed once, every candidate's ESP uses its
    # own rates, and the assignment equals routing every candidate.
    c = Circuit(8, [instr("h", 0)] + [instr("cx", a, b) for a, b in
                                      ((0, 5), (5, 2), (2, 7), (1, 6), (6, 3),
                                       (3, 4), (4, 1), (7, 1))])
    prog = compiled(c, [7])

    def make_fleet():
        noisy = {"2q": 0.03, "1q": 0.002, "measure": 0.02}
        clean = {"2q": 0.01, "1q": 0.001, "measure": 0.01}
        return [heavy_hex_qpu("hh-a", error_rates=noisy),
                heavy_hex_qpu("hh-b", error_rates=clean)]

    expected = {}
    for pc in prog.fragments:
        success = {q.name: esp(map_and_route(metric_proxy(pc), q, 3), q)
                   for q in make_fleet()}
        assert success["hh-b"] > success["hh-a"]
        expected[pc.fragment_index] = max(success, key=success.get)
    routed = []
    monkeypatch.setattr(runtime, "map_and_route",
                        lambda circ, qpu, seed=0: routed.append(qpu.name)
                        or map_and_route(circ, qpu, seed))
    assert schedule(prog, make_fleet(), alpha=0.0, beta=1.0, seed=3) == expected
    assert set(expected.values()) == {"hh-b"}
    assert len(routed) == len(prog.fragments) == 2


def test_schedule_computes_esp_once_per_rate_table(monkeypatch):
    # hh-a and hh-b share a coupling map and a rate table; hh-c shares only
    # the map. Per fragment: one route, two ESPs, and the same assignment
    # as the scheduler that computes every candidate's ESP.
    prog = compiled(Circuit(6, [instr("h", 0)] + [
        instr("cx", a, b) for a, b in ((0, 3), (3, 1), (1, 4), (4, 2), (2, 5))]),
        [2])
    clean = {"2q": 0.01, "1q": 0.001, "measure": 0.01}

    def make_fleet():
        return [heavy_hex_qpu("hh-a", error_rates=clean),
                heavy_hex_qpu("hh-b", queue_length=4, error_rates=clean),
                heavy_hex_qpu("hh-c", error_rates={"2q": 0.001})]

    expected_fleet = make_fleet()
    expected = reference_schedule(prog, expected_fleet, 0.3, 0.7)
    calls = []
    monkeypatch.setattr(runtime, "esp", lambda pc, qpu: calls.append(qpu.name)
                        or esp(pc, qpu))
    got_fleet = make_fleet()
    assert schedule(prog, got_fleet, 0.3, 0.7) == expected
    assert [q.queue_length for q in got_fleet] == \
        [q.queue_length for q in expected_fleet]
    assert calls == ["hh-a", "hh-c"] * len(prog.fragments)


def test_schedule_matches_reference_on_bench_programs():
    def make_fleet(rng):
        return [heavy_hex_qpu("hh27-a", rng.randrange(30)),
                heavy_hex_qpu("hh27-b", rng.randrange(30),
                              {"2q": 0.02, "1q": 0.001, "measure": 0.03}),
                line_qpu(12, queue_length=rng.randrange(30)),
                line_qpu(7, queue_length=rng.randrange(30))]

    rng = random.Random(1414)
    programs = bench_family_programs(rng, 60)
    picked = set()
    for prog in programs:
        alpha, beta = rng.choice([(0.5, 0.5), (0.0, 1.0), (1.0, 0.0),
                                  (rng.random(), rng.random())])
        state = rng.getstate()
        got_fleet = make_fleet(rng)
        rng.setstate(state)
        want_fleet = make_fleet(rng)
        seed = rng.randrange(4)
        got = schedule(prog, got_fleet, alpha, beta, seed)
        assert got == reference_schedule(prog, want_fleet, alpha, beta, seed)
        assert [q.queue_length for q in got_fleet] == \
            [q.queue_length for q in want_fleet]
        picked |= set(got.values())
    assert picked == {"hh27-a", "hh27-b", "line-12", "line-7"}


# ---------------------------------------------------------------------------
# execution

def test_execute_without_virtual_gates_matches_direct_sim():
    c = Circuit(3, [instr("h", 0), instr("cx", 0, 1)])
    prog = compiled(c, [])
    results = execute(prog, mode="exact")
    assert all(len(e.distributions) == 1 for e in results.entries)
    knitted = knit(results, global_coefficients(prog))
    assert linf_distance(knitted, run_exact(c)) <= 1e-12


def test_execute_exact_is_shot_independent():
    prog = bell_program()
    a = execute(prog, mode="exact", shots=1)
    b = execute(prog, mode="exact", shots=99999)
    for ea, eb in zip(a.entries, b.entries):
        for da, db in zip(ea.distributions, eb.distributions):
            assert da.entries == db.entries


def test_execute_sampled_reproducible():
    prog = bell_program()
    a = execute(prog, mode="sampled", shots=2048, seed=5)
    b = execute(prog, mode="sampled", shots=2048, seed=5)
    for ea, eb in zip(a.entries, b.entries):
        for da, db in zip(ea.distributions, eb.distributions):
            assert da.entries == db.entries


def test_execute_worker_count_does_not_change_results():
    c = random_circuit(random.Random(3), 5, 12, two_qubit_prob=0.6)
    vc = from_circuit(c)
    gates = [g.id for g in vc.real_gates()]
    for gid in gates[:2]:
        virt_gate(vc, gid)
    prog = generate(vc)
    a = execute(prog, mode="exact", workers=1)
    b = execute(prog, mode="exact", workers=2)
    for ea, eb in zip(a.entries, b.entries):
        for da, db in zip(ea.distributions, eb.distributions):
            assert da.entries == pytest.approx(db.entries, abs=1e-15)


def assert_execute_matches_reference(prog, mode, shots=400, seed=3):
    assert_results_match(execute(prog, mode=mode, shots=shots, seed=seed),
                         reference_execute(prog, mode, shots, seed), mode)


def assert_results_match(got, expected, mode):
    assert [len(e.distributions) for e in got.entries] == \
        [len(dists) for dists in expected]
    for entry, dists in zip(got.entries, expected):
        for a, b in zip(entry.distributions, dists):
            assert a.num_bits == b.num_bits
            assert set(a.entries) == set(b.entries)
            if mode == "exact":
                assert max((abs(a[k] - v) for k, v in b.entries.items()),
                           default=0.0) <= 1e-12
            else:
                assert a.entries == b.entries


def random_reuse_program(rng):
    """A random circuit measuring a random subset of its qubits, through the
    heuristic cut, dependency-reduction and qubit-reuse passes; None when
    the width is out of reach."""
    n = rng.randint(4, 7)
    c = random_circuit(rng, n, rng.randint(n, 2 * n), two_qubit_prob=0.6)
    measured = rng.sample(range(n), rng.randint(1, n))
    c.num_clbits = len(measured)
    for clbit, q in enumerate(measured):
        c.add("measure", q, clbit=clbit)
    cfg = PassConfig(max_fragment_size=rng.randint(2, n - 1),
                     budget=rng.randint(0, 2), seed=rng.randrange(100))
    try:
        return generate(run_pipeline(from_circuit(c), cfg))
    except WidthUnreachableError:
        return None


def test_execute_matches_per_instance_reference_on_random_cut_programs():
    rng = random.Random(4)
    programs = []
    while len(programs) < 60:
        prog = random_reuse_program(rng)
        if prog is not None:
            programs.append(prog)
    elements = [el for prog in programs for pc in prog.fragments
                for el in pc.elements]
    internal = sum(len(pc.placeholders) - len(pc.touching_gates(prog.gate_order))
                   for prog in programs for pc in prog.fragments)
    unmeasured = sum(pc.num_qubits - len(pc.clbit_map)
                     for prog in programs for pc in prog.fragments)
    assert sum(getattr(el, "kind", None) == "reset" for el in elements) >= 10
    assert internal >= 10 and unmeasured >= 10
    for prog in programs:
        for mode in ("exact", "sampled"):
            assert_execute_matches_reference(prog, mode)


def sign_then_identity_program():
    """Wire 2 is unmeasured and controls two virtual CX gates, so its
    fragment (wires 2, 3) holds two placeholders in a row on it. Where the
    first action ends in a sign measurement and the second is the identity,
    that measurement is the wire's last operation; where the second action
    is a gate or a measurement, it is not."""
    c = Circuit(4, num_clbits=3)
    c.instructions = [
        instr("ry", 2, angle=1.1), instr("ry", 3, angle=0.5), instr("cx", 2, 3),
        instr("ry", 0, angle=0.7), instr("ry", 1, angle=0.4),
        instr("cx", 2, 0), instr("cx", 2, 1),
        instr("measure", 0, clbit=0), instr("measure", 1, clbit=1),
        instr("measure", 3, clbit=2)]
    vc = from_circuit(c)
    for g in vc.real_gates():
        if g.qubits in ((2, 0), (2, 1)):
            virt_gate(vc, g.id)
    return generate(vc)


def test_sign_measure_is_terminal_only_where_an_identity_follows():
    prog = sign_then_identity_program()
    pc = prog.fragments[2]
    gates = pc.touching_gates(prog.gate_order)
    assert pc.qubit_map == [2, 3] and len(gates) == 2

    def last_on_wire_2(digits):
        body = pc.instantiate(dict(zip(gates, digits))).instructions
        return [ins for ins in body if 0 in ins.qubits][-1]

    assert last_on_wire_2((2, 4)).kind == "measure"      # identity follows
    assert last_on_wire_2((2, 0)).kind == "rz"           # a gate follows
    for mode in ("exact", "sampled"):
        for seed in (0, 1, 2):
            assert_execute_matches_reference(prog, mode, shots=1000, seed=seed)


def test_sampled_execute_pinned():
    # Signed counts of the wire-(2, 3) fragment, one dict per instance, at
    # seed 11 with 1000 shots, as the per-instance engine produced them.
    expected = [
        {0: 685, 1: 315}, {0: 734, 1: 266}, {0: 674, 1: -210},
        {0: 657, 1: -201}, {0: 672, 1: 328}, {0: 705, 1: 295},
        {0: 681, 1: 319}, {0: 701, 1: 299}, {0: 669, 1: -229},
        {0: 675, 1: -183}, {0: 699, 1: 301}, {0: 706, 1: 294},
        {0: 657, 1: -203}, {0: 656, 1: -216}, {0: 707, 1: 293},
        {0: 689, 1: 311}, {0: 696, 1: -198}, {0: 668, 1: -210},
        {0: 661, 1: -229}, {0: 668, 1: -212}, {0: 709, 1: 291},
        {0: 679, 1: 321}, {0: 695, 1: -209}, {0: 672, 1: -230},
        {0: 723, 1: 277}, {0: 700, 1: 300}, {0: 664, 1: -226},
        {0: 653, 1: -221}, {0: 707, 1: 293}, {0: 701, 1: 299},
        {0: 702, 1: 298}, {0: 719, 1: 281}, {0: 678, 1: -178},
        {0: 698, 1: -180}, {0: 726, 1: 274}, {0: 679, 1: 321}]
    results = execute(sign_then_identity_program(), mode="sampled",
                      shots=1000, seed=11)
    got = results.entries[2].distributions
    assert [d.entries for d in got] == [
        {k: v / 1000 for k, v in counts.items()} for counts in expected]


def internal_gate_program():
    """Virtual cz(0, 1) stays inside fragment (0, 1), which real cx(0, 1)
    holds together; virtual cx(1, 2) crosses to fragment (2,)."""
    c = Circuit(3, num_clbits=3)
    c.instructions = [
        instr("ry", 0, angle=0.3), instr("ry", 1, angle=0.9),
        instr("ry", 2, angle=1.3), instr("cx", 0, 1), instr("cz", 0, 1),
        instr("cx", 1, 2), instr("rx", 1, angle=0.6),
        instr("measure", 0, clbit=0), instr("measure", 1, clbit=1),
        instr("measure", 2, clbit=2)]
    return compiled(c, [1, 2])


def test_batch_size_does_not_change_results(monkeypatch):
    # Leaves run out of instance order, in batches whose sizes follow
    # BATCH_AMPLITUDES, and where a measurement's terminal flag depends on a
    # later gate's action, trie nodes come in another order than the
    # leaves; results must come back in instance order.
    rng = random.Random(4)
    programs = [sign_then_identity_program(), internal_gate_program()]
    while len(programs) < 8:
        prog = random_reuse_program(rng)
        if prog is not None and max(len(pc.touching_gates(prog.gate_order))
                                    for pc in prog.fragments) >= 2:
            programs.append(prog)
    for prog in programs:
        expected = {mode: reference_execute(prog, mode, 500, 5)
                    for mode in ("exact", "sampled")}
        runs = []
        for amplitudes in (1, 1 << 6, 1 << 20):
            monkeypatch.setattr(sim, "BATCH_AMPLITUDES", amplitudes)
            for mode, dists in expected.items():
                got = execute(prog, mode=mode, shots=500, seed=5)
                assert_results_match(got, dists, mode)
                runs.append([[d.entries for d in e.distributions]
                             for e in got.entries])
        assert runs[0:2] == runs[2:4] == runs[4:6]


def test_each_distinct_instance_evolves_once(monkeypatch):
    # Each side of a virtual gate has five distinct actions among its six
    # terms, so a fragment with four one-sided gates has 5^4 = 625 distinct
    # instances of its 1 296. A gate inside one fragment has six.
    evolved = []

    def counting(c, reps):
        ev = evolve(c, reps)
        evolved.append((len(reps), len(ev.reads)))
        return ev

    evolve = sim._evolve
    monkeypatch.setattr(sim, "_evolve", counting)
    star = compiled(Circuit(5, [instr("cx", 0, q) for q in range(1, 5)]),
                    range(4))
    internal = compiled(Circuit(2, [instr("cx", 0, 1), instr("cz", 0, 1)]), [1])
    for prog, leaves in ((star, [625, 5, 5, 5, 5]), (internal, [6]),
                         (internal_gate_program(), [30, 5])):
        for pc in prog.fragments:
            one = replace(prog, fragments=[pc])
            count = 6 ** len(pc.touching_gates(prog.gate_order))
            for mode in ("exact", "sampled"):
                evolved.clear()
                [entry] = execute(one, mode=mode, shots=100).entries
                assert len(entry.distributions) == count
                # leaves that reached _evolve, and the trie nodes it ended with
                assert [sum(col) for col in zip(*evolved)] == \
                    [leaves[pc.fragment_index]] * 2


def test_simulator_entry_points_stay_bound_in_runtime():
    assert runtime.run_exact is sim.run_exact
    assert runtime.run_sampled is sim.run_sampled


def test_exact_sums_equal_the_replaced_sort_on_random_reuse_programs(monkeypatch):
    # Each key's pairs are added in row order in both, so the entries and
    # their key order (which the knit's tables follow) are equal exactly.
    rng = random.Random(12)
    programs = [sign_then_identity_program(), internal_gate_program()]
    while len(programs) < 24:
        prog = random_reuse_program(rng)
        if prog is not None:
            programs.append(prog)
    got = [execute(prog, mode="exact") for prog in programs]
    monkeypatch.setattr(sim, "_distributions", reference_distributions)
    for prog, results in zip(programs, got):
        for a, b in zip(results.entries, execute(prog, mode="exact").entries):
            assert len(a.distributions) == len(b.distributions)
            for x, y in zip(a.distributions, b.distributions):
                assert x.entries == y.entries
                assert np.array_equal(x.keys, y.keys)


# ---------------------------------------------------------------------------
# knitter

def test_knit_no_virtual_gates_is_fragment_product():
    c = Circuit(4, [instr("h", 0), instr("cx", 0, 1), instr("x", 2),
                    instr("cx", 2, 3)])
    prog = compiled(c, [])
    knitted = run_program(prog)
    assert linf_distance(knitted, run_exact(c)) <= 1e-12


def test_knit_worker_invariance():
    c = random_circuit(random.Random(8), 6, 14, two_qubit_prob=0.6)
    vc = from_circuit(c)
    for gid in [g.id for g in vc.real_gates()][:2]:
        virt_gate(vc, gid)
    prog = generate(vc)
    results = execute(prog, mode="exact")
    coeffs = global_coefficients(prog)
    base = knit(results, coeffs, workers=1)
    for workers in (2, 4, 8):
        other = knit(results, coeffs, workers=workers)
        assert linf_distance(base, other) <= 1e-12


def test_knit_shape_mismatch_detected():
    prog = bell_program()
    results = execute(prog, mode="exact")
    coeffs = global_coefficients(prog)
    broken = FragmentResults(
        [type(results.entries[0])(e.fragment_index, e.gate_ids, e.clbit_map,
                                  e.distributions[:-1])
         for e in results.entries],
        results.gate_order, results.num_clbits)
    with pytest.raises(KnitShapeError):
        knit(broken, coeffs)
    wrong_order = type(coeffs)(coeffs.values, list(reversed(coeffs.gate_order)))
    if wrong_order.gate_order != coeffs.gate_order:
        with pytest.raises(KnitShapeError):
            knit(results, wrong_order)


def test_end_to_end_exact_equivalence_random():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randint(4, 8)
        c = random_circuit(rng, n, rng.randint(n, 2 * n), two_qubit_prob=0.6)
        vc = from_circuit(c)
        gates = [g.id for g in vc.real_gates()]
        for gid in rng.sample(gates, min(len(gates), 2)):
            virt_gate(vc, gid)
        prog = generate(vc)
        assert linf_distance(run_program(prog), run_exact(c)) <= 1e-8


def test_partial_measurement_marginalizes_unmeasured_qubits():
    c = Circuit(3, num_clbits=2)
    c.add("h", 0)
    c.add("cx", 0, 1)
    c.add("cx", 1, 2)
    c.add("measure", 0, clbit=0)
    c.add("measure", 1, clbit=1)
    prog = compiled(c, [1])
    knitted = run_program(prog)
    assert knitted.num_bits == 2
    assert knitted.as_strings() == pytest.approx({"00": 0.5, "11": 0.5})


def assert_knit_matches_reference(results, coeffs, workers_list=(1, 2)):
    expected = reference_knit(results, coeffs)
    for workers in workers_list:
        got = knit(results, coeffs, workers=workers)
        assert set(got.entries) == set(expected)
        assert max((abs(got[key] - v) for key, v in expected.items()),
                   default=0.0) <= 1e-12


def random_cut_program(rng):
    n = rng.randint(3, 7)
    c = random_circuit(rng, n, rng.randint(n, 2 * n), two_qubit_prob=0.6)
    vc = from_circuit(c)
    gates = [g.id for g in vc.real_gates()]
    for gid in rng.sample(gates, min(len(gates), rng.randint(1, 3))):
        virt_gate(vc, gid)
    return generate(vc)


def test_knit_matches_reference_on_random_cut_programs():
    rng = random.Random(31)
    for _ in range(8):
        prog = random_cut_program(rng)
        mode = rng.choice(["exact", "sampled"])
        results = execute(prog, mode=mode, shots=500, seed=rng.randrange(99))
        assert_knit_matches_reference(results, global_coefficients(prog))


def test_knit_matches_reference_with_zero_coefficients():
    prog = random_cut_program(random.Random(5))
    results = execute(prog, mode="exact")
    coeffs = global_coefficients(prog)
    values = coeffs.values.copy()
    values[::3] = 0.0
    assert_knit_matches_reference(
        results, GlobalCoefficients(values, coeffs.gate_order))


def test_knit_matches_reference_with_unmeasured_fragment():
    c = Circuit(3, num_clbits=2)
    c.add("h", 0)
    c.add("cx", 0, 1)
    c.add("ry", 2, angle=0.4)
    c.add("cx", 1, 2)
    c.add("measure", 0, clbit=0)
    c.add("measure", 1, clbit=1)
    prog = compiled(c, [1])
    results = execute(prog, mode="exact")
    assert any(not e.clbit_map for e in results.entries)
    assert_knit_matches_reference(results, global_coefficients(prog))


def test_knit_matches_reference_with_empty_instance_distribution():
    prog = random_cut_program(random.Random(9))
    results = execute(prog, mode="exact")
    entry = next(e for e in results.entries if len(e.distributions) > 1)
    entry.distributions[1] = SignedDistribution({}, entry.distributions[1].num_bits)
    assert_knit_matches_reference(results, global_coefficients(prog))
    # Every instance empty: an empty key union and an empty output.
    entry.distributions[:] = [SignedDistribution({}, d.num_bits)
                              for d in entry.distributions]
    assert_knit_matches_reference(results, global_coefficients(prog))
    assert knit(results, global_coefficients(prog)).entries == {}


def test_knit_ghz24_in_six_qubit_fragments():
    ghz = Circuit(24, [instr("h", 0)] + [instr("cx", q, q + 1) for q in range(23)])
    vc = from_circuit(ghz)
    for g in vc.real_gates():
        if g.qubits in ((5, 6), (11, 12), (17, 18)):
            virt_gate(vc, g.id)
    prog = generate(vc)
    assert [pc.num_qubits for pc in prog.fragments] == [6, 6, 6, 6]
    results = execute(prog, mode="exact")
    coeffs = global_coefficients(prog)
    got = knit(results, coeffs)
    assert got.num_bits == 24
    assert set(got.entries) == {0, (1 << 24) - 1}
    assert got[0] == pytest.approx(0.5, abs=1e-12)
    assert got[(1 << 24) - 1] == pytest.approx(0.5, abs=1e-12)
    assert_knit_matches_reference(results, coeffs)


def test_knit_without_fragments_gives_key_zero():
    # A zero-qubit program has no fragments and no virtual gates.
    prog = generate(from_circuit(Circuit(0)))
    assert prog.fragments == []
    results = execute(prog)
    assert_knit_matches_reference(results, global_coefficients(prog))
    assert run_program(prog).entries == {0: 1.0}


def ghz_chain_program(n):
    """GHZ-n with every cx leaving an odd qubit virtual: n/2 fragments of two
    qubits and k = n/2 - 1 virtual gates."""
    ghz = Circuit(n, [instr("h", 0)] + [instr("cx", q, q + 1) for q in range(n - 1)])
    vc = from_circuit(ghz)
    for g in vc.real_gates():
        if g.qubits[0] % 2 == 1:
            virt_gate(vc, g.id)
    return generate(vc)


def union_sizes(results):
    return [union.size for _, union, _ in runtime._fragment_tables(results)]


def test_knit_matches_reference_on_many_small_fragments():
    # Pi = 2^6 gives 1 024-instance chunks: 7 776 global instances end in a
    # part chunk in every worker's range.
    prog = ghz_chain_program(12)
    assert [pc.num_qubits for pc in prog.fragments] == [2] * 6
    assert prog.num_virtual_gates == 5
    for mode in ("exact", "sampled"):
        results = execute(prog, mode=mode, shots=400, seed=2)
        assert all(size <= 4 for size in union_sizes(results))
        assert_knit_matches_reference(results, global_coefficients(prog))


def knit_cases():
    rng = random.Random(44)
    progs = [random_cut_program(rng) for _ in range(4)] + [ghz_chain_program(10)]
    return [(execute(prog, mode=mode, shots=300, seed=1), global_coefficients(prog))
            for prog in progs for mode in ("exact", "sampled")]


def assert_same_knit(a, b):
    assert set(a.entries) == set(b.entries)
    assert linf_distance(a, b) <= 1e-12


def test_knit_chunk_length_does_not_change_results(monkeypatch):
    cases = knit_cases()
    base = [knit(results, coeffs) for results, coeffs in cases]
    for entries in (1, 1 << 22):
        monkeypatch.setattr(runtime, "KNIT_CHUNK_ENTRIES", entries)
        for (results, coeffs), expected in zip(cases, base):
            assert_same_knit(knit(results, coeffs), expected)


def test_knit_worker_invariance_across_chunk_boundaries(monkeypatch):
    # 6^4 = 1 296 global instances at Pi = 2^5; chunks of 7 instances in
    # blocks of 4 095, or of 5 in blocks of 60, divide neither 6^4 nor the
    # ranges of 2 or 3 workers.
    prog = ghz_chain_program(10)
    results = execute(prog, mode="sampled", shots=300, seed=4)
    coeffs = global_coefficients(prog)
    size = math.prod(union_sizes(results))
    assert size == 1 << 5
    base = knit(results, coeffs)
    for chunk, block in ((7, runtime.KNIT_BLOCK), (5, 64)):
        monkeypatch.setattr(runtime, "KNIT_CHUNK_ENTRIES", chunk * size)
        monkeypatch.setattr(runtime, "KNIT_BLOCK", block)
        for workers in (1, 2, 3):
            assert_same_knit(knit(results, coeffs, workers=workers), base)


def dense_synthetic_results(gate_split, support_bits, seed):
    """Criterion 07-style workload: each fragment owns consecutive gates and
    ``support_bits`` output bits (one count for every fragment, or one per
    fragment), and every instance weights all of its keys, so Pi is 2 to the
    total number of bits."""
    if isinstance(support_bits, int):
        support_bits = [support_bits] * len(gate_split)
    rng = np.random.default_rng(seed)
    entries, first, clbit = [], 0, 0
    for j, (kj, bits) in enumerate(zip(gate_split, support_bits)):
        width = 1 << bits
        dists = [SignedDistribution.from_arrays(
            np.arange(width), rng.normal(size=width), bits)
            for _ in range(6 ** kj)]
        entries.append(FragmentResultEntry(
            j, list(range(first, first + kj)), list(range(clbit, clbit + bits)),
            dists))
        first += kj
        clbit += bits
    order = list(range(first))
    return (FragmentResults(entries, order, clbit),
            GlobalCoefficients(rng.normal(size=6 ** first), order))


def chain_synthetic_results(count, bits, seed):
    """``count`` fragments in a chain: fragment j touches gates j - 1 and j
    where they exist, owns ``bits`` output bits, and weights all of its keys
    in every instance, so adjacent fragments share a gate."""
    rng = np.random.default_rng(seed)
    entries = []
    for j in range(count):
        gates = [g for g in (j - 1, j) if 0 <= g < count - 1]
        dists = [SignedDistribution.from_arrays(
            np.arange(1 << bits), rng.normal(size=1 << bits), bits)
            for _ in range(6 ** len(gates))]
        entries.append(FragmentResultEntry(
            j, gates, list(range(bits * j, bits * j + bits)), dists))
    order = list(range(count - 1))
    return (FragmentResults(entries, order, bits * count),
            GlobalCoefficients(rng.normal(size=6 ** (count - 1)), order))


def balanced_split(widths):
    """Where ``runtime._knit_range`` splits fragments of these key-union
    sizes: the point that minimizes Pi_left + Pi_right, the first such."""
    return min(range(len(widths)),
               key=lambda s: math.prod(widths[:s]) + math.prod(widths[s:]))


def kernel_cases():
    """knit_cases, plus synthetic workloads whose balanced split falls at
    every position: one fragment; two fragments split 1|1, as in criterion
    07(b); three fragments whose last one is the widest, the narrowest, or
    has no output bits (one key); four fragments whose first or last one is
    the widest; and a last fragment whose key union is empty."""
    cases = knit_cases()
    for gates, bits in (((2,), 4), ((1, 1), 3), ((1, 1, 2), (1, 2, 4)),
                        ((1, 1, 2), (4, 2, 1)), ((1, 1, 2), (3, 3, 0)),
                        ((1, 1, 1, 1), (4, 1, 1, 1)), ((1, 1, 1, 1), (1, 1, 1, 4))):
        cases.append(dense_synthetic_results(gates, bits, seed=len(gates) + 7))
    results, coeffs = dense_synthetic_results((1, 2), (3, 2), seed=12)
    last = results.entries[-1]
    last.distributions[:] = [SignedDistribution({}, d.num_bits)
                             for d in last.distributions]
    return cases + [(results, coeffs)]


def worker_ranges(total, workers):
    bounds = [round(total * w / workers) for w in range(workers + 1)]
    return [(bounds[w], bounds[w + 1]) for w in range(workers)
            if bounds[w] < bounds[w + 1]]


def halves_of(tables):
    """The fragments of each half, as ``runtime._knit_range`` splits them."""
    split = balanced_split([table.shape[1] for _, _, table in tables])
    return range(split), range(split, len(tables))


# The block-table bound: runtime's own, 0 (every block one fragment, so each
# half is the row-wise Kronecker product of its fragments' rows), or 2^40
# (every half one block).
TABLE_BOUNDS = (None, 0, 1 << 40)


@pytest.mark.parametrize("chunk", [None, 1, 7, "all"])
def test_knit_kernel_matches_replaced_kernel_and_reference(monkeypatch, chunk):
    # chunk: runtime's own rule, one or seven instances per chunk, or more
    # than the 6^k global instances (then a whole worker range). The
    # replaced kernels see the same settings; the kernel runs under each
    # table bound.
    cases = kernel_cases()
    synthetic = [union_sizes(results) for results, _ in cases[-8:]]
    assert synthetic == [[16], [8, 8], [2, 4, 16], [16, 4, 2], [8, 8, 1],
                         [16, 2, 2, 2], [2, 2, 2, 16], [8, 0]]
    assert [balanced_split(widths) for widths in synthetic] == [0, 1, 2, 1, 1, 1, 3, 0]
    merged = 0
    for results, coeffs in cases:
        tables = runtime._fragment_tables(results)
        size = math.prod(union_sizes(results))
        if chunk is not None:
            per = len(coeffs) + 1 if chunk == "all" else chunk
            monkeypatch.setattr(runtime, "KNIT_CHUNK_ENTRIES", per * max(size, 1))
        merged += sum(len(runtime._half_tables(tables, half)) < len(half)
                      for half in halves_of(tables))
        for workers in (1, 2, 3):
            for start, end in worker_ranges(len(coeffs), workers):
                args = (start, end, coeffs.values, tables)
                olds = [replaced(args).ravel() for replaced in (
                    reference_halves_knit_range, reference_prefix_knit_range,
                    reference_knit_range)]
                for bound in TABLE_BOUNDS:
                    with monkeypatch.context() as m:
                        if bound is not None:
                            m.setattr(runtime, "KNIT_TABLE_ENTRIES", bound)
                        got = runtime._knit_range(args).ravel()
                    for old in olds:
                        assert got.shape == old.shape == (size,)
                        assert np.max(np.abs(got - old), initial=0.0) <= 1e-12
        # The same kept keys as the reference, and under every bound as
        # through the replaced kernel.
        assert_knit_matches_reference(results, coeffs, (1, 2, 3))
        with monkeypatch.context() as m:
            m.setattr(runtime, "_knit_range", reference_halves_knit_range)
            expected = knit(results, coeffs)
        for bound in TABLE_BOUNDS:
            with monkeypatch.context() as m:
                if bound is not None:
                    m.setattr(runtime, "KNIT_TABLE_ENTRIES", bound)
                assert_same_knit(knit(results, coeffs), expected)
    # Under runtime's bound, some halves hold multi-fragment blocks.
    assert merged >= 8


def traced_knit_peak(results, coeffs, workers=1):
    """The parent process's peak of traced memory over one knit."""
    tracemalloc.start()
    try:
        knit(results, coeffs, workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_knit_memory_is_a_few_accumulators():
    # Pi = 2^16, one instance per chunk: the worker's accumulator and product
    # buffer, then the output's keys and values.
    results, coeffs = dense_synthetic_results((2, 2), 8, seed=3)
    size = 1 << 16
    assert math.prod(union_sizes(results)) == size
    assert traced_knit_peak(results, coeffs) < 8 * (8 * size)


def test_knit_output_phase_builds_no_full_key_array():
    # Same workload, every entry kept. The output phase holds the accumulator
    # with its keep mask, then the kept values, the keys and one union read
    # (3.13 x 8 Pi), beside the two fragments' tables: 3.42 x 8 Pi measured.
    # Building the Pi-long key array and copying it to the kept entries
    # measured 4.42 x 8 Pi. The bound leaves a 10% margin over 3.42.
    results, coeffs = dense_synthetic_results((2, 2), 8, seed=3)
    size = 1 << 16
    assert knit(results, coeffs).keys.size == size
    assert traced_knit_peak(results, coeffs) < 3.76 * (8 * size)


def test_knit_range_holds_one_sub_block_of_halves():
    # Pi = 2^12 over three fragments, chunks of 16 instances. The range phase
    # holds a block's index arrays, the accumulator, the product buffer and
    # one sub-block's halves (at most KNIT_CHUNK_ENTRIES // 4 entries, 3.2 x
    # 8 Pi here): 14.92-14.96 x 8 Pi measured. Holding the previous
    # sub-block's halves too measured 18.1. The bound leaves a 10% margin.
    results, coeffs = dense_synthetic_results((2, 2, 2), 4, seed=5)
    size = 1 << 12
    assert math.prod(union_sizes(results)) == size
    tables = runtime._fragment_tables(results)
    tracemalloc.start()
    try:
        runtime._knit_range((0, len(coeffs), coeffs.values, tables))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16.45 * (8 * size)


def test_knit_range_holds_block_tables_and_one_sub_block():
    # Five 3-bit fragments in a chain, Pi = 2^15, split 2|3. The left half's
    # fragments share gate 0 and make one 36 x 64 block table; the right
    # half's share gates 1-3 and make one 216 x 512 table (3.38 x 8 Pi). The
    # kernel that rebuilt each half per sub-block held 3.37 x 8 Pi: the
    # accumulator, the product buffer, the index arrays and one sub-block's
    # halves. With the block tables 6.19 x 8 Pi was measured. The bound is
    # the tables plus those terms with a 10% margin.
    results, coeffs = chain_synthetic_results(5, 3, seed=3)
    size = 1 << 15
    assert math.prod(union_sizes(results)) == size
    tables = runtime._fragment_tables(results)
    blocks = [runtime._half_tables(tables, half) for half in halves_of(tables)]
    assert [[table.shape for _, table in half] for half in blocks] == \
        [[(36, 64)], [(216, 512)]]
    entries = sum(table.size for half in blocks for _, table in half)
    tracemalloc.start()
    try:
        runtime._knit_range((0, len(coeffs), coeffs.values, tables))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * entries + 3.7 * (8 * size)
    # The (2, 2, 2) workload of 4-bit fragments: its right half would need a
    # 6^4 x 256 table, over the bound, so it is two one-fragment blocks, each
    # its fragment's own table.
    results, _ = dense_synthetic_results((2, 2, 2), 4, seed=5)
    tables = runtime._fragment_tables(results)
    _, right = halves_of(tables)
    assert 6 ** 4 * 16 * 16 > runtime.KNIT_TABLE_ENTRIES
    blocks = runtime._half_tables(tables, right)
    assert len(blocks) == 2
    assert all(table is tables[j][2] for (_, table), j in zip(blocks, right))


def test_block_tables_equal_the_replaced_builder():
    # Every contiguous range of fragments, as one block, gives the strides
    # and table of the axis-transposing builder, bit for bit and sign for
    # sign: the kernel cases, the chain and (2, 2, 2) workloads, and
    # bench-family programs with at most 3 virtual gates. Ranges whose table
    # would hold over 2^21 entries (four whole-program ranges of the chain
    # and (2, 2, 2) workloads) are left out; 490 ranges of two or more
    # fragments are checked.
    cases = [results for results, _ in kernel_cases()]
    cases += [chain_synthetic_results(5, 3, seed=3)[0],
              dense_synthetic_results((2, 2, 2), 4, seed=5)[0]]
    cases += [execute(prog) for prog in bench_family_programs(
        random.Random(2424), 120, max_qubits=10) if prog.num_virtual_gates <= 3]
    checked = 0
    for results in cases:
        tables = runtime._fragment_tables(results)
        for lo, hi in itertools.combinations(range(len(tables) + 1), 2):
            members = list(range(lo, hi))
            gates = {gs for j in members for gs, _ in tables[j][0]}
            if 6 ** len(gates) * math.prod(tables[j][2].shape[1]
                                           for j in members) > 1 << 21:
                continue
            strides, table = runtime._block_table(tables, members)
            ref_strides, ref = reference_block_table(tables, members)
            assert strides == ref_strides
            assert table.shape == ref.shape
            assert np.array_equal(table, ref)
            assert np.array_equal(np.signbit(table), np.signbit(ref))
            checked += len(members) > 1
    assert checked >= 400


def test_knit_workers_add_their_parts_as_they_arrive():
    # Pi = 2^20 over two workers. Adding each part as it arrives holds the
    # running sum and one arriving part: 3.14-3.18 x 8 Pi measured, the
    # output phase's 3.14 included. Collecting every part before adding
    # measured 4.14-4.18.
    results, coeffs = dense_synthetic_results((1, 1), 10, seed=3)
    size = 1 << 20
    assert math.prod(union_sizes(results)) == size
    assert traced_knit_peak(results, coeffs, workers=2) < 3.64 * (8 * size)


def test_knit_builds_no_array_over_global_instances():
    # 6^8 global instances at Pi = 4: one 6^8-long index or coefficient array
    # would take 13 MiB.
    results, coeffs = dense_synthetic_results((4, 4), 1, seed=8)
    assert math.prod(union_sizes(results)) == 4
    assert traced_knit_peak(results, coeffs) < 8 * 6 ** 8 // 2


def test_knit_refuses_oversized_accumulator():
    # Four one-instance fragments with 64 keys each: 64^4 = 2^24 accumulator
    # entries, over the limit, refused before the 128 MiB array exists.
    entries = [FragmentResultEntry(
        j, [], list(range(6 * j, 6 * j + 6)),
        [SignedDistribution({key: 1.0 / 64 for key in range(64)}, 6)])
        for j in range(4)]
    results = FragmentResults(entries, [], 24)
    coeffs = GlobalCoefficients(np.ones(1), [])
    assert 64 ** 4 > MAX_KNIT_ENTRIES
    tracemalloc.start()
    try:
        with pytest.raises(KnitOverflowError):
            knit(results, coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_knit_refuses_output_bits_past_63():
    # Keys are int64. GHZ-64 cut into fragments of at most 11 qubits used to
    # knit to 0...0 and -0...01 instead of 0...0 and 1...1; GHZ-63 fits.
    def ghz(n):
        circuit = generate_benchmark(BenchmarkSpec("ghz", n))
        return generate(run_pipeline(from_circuit(circuit),
                                     PassConfig(11, 6, 0), ("cc", "dr")))

    for mode in ("exact", "sampled"):
        with pytest.raises(KnitKeyWidthError, match="output bit 63 "):
            run_program(ghz(64), mode, shots=200, seed=1)
    ideal = SignedDistribution({0: 0.5, (1 << 63) - 1: 0.5}, 63)
    assert linf_distance(run_program(ghz(63)), ideal) < 1e-12
    # A clbit past 62 is refused even when num_clbits claims fewer bits.
    entry = FragmentResultEntry(0, [], [63], [SignedDistribution({1: 1.0}, 1)])
    with pytest.raises(KnitKeyWidthError):
        knit(FragmentResults([entry], [], 8), GlobalCoefficients(np.ones(1), []))


def ghz6_results():
    circuit = generate_benchmark(BenchmarkSpec("ghz", 6))
    prog = generate(run_pipeline(from_circuit(circuit), PassConfig(3, 3, 0),
                                 ("cc", "dr", "qr")))
    assert [list(pc.clbit_map) for pc in prog.fragments] == [[0, 1, 2], [3, 4, 5]]
    return execute(prog), global_coefficients(prog)


def with_clbit_map(results, fragment, clbit_map):
    entries = list(results.entries)
    entries[fragment] = replace(entries[fragment], clbit_map=clbit_map)
    return replace(results, entries=entries)


def test_knit_refuses_overlapping_or_out_of_range_clbit_maps():
    # GHZ-6 cut in two 3-qubit fragments. With clbit 5 moved to 40 it used to
    # knit to key 1 099 511 627 838 over 6 output bits; with an output bit
    # shared by both fragments, keys collided. Each map is refused before
    # any table is built.
    results, coeffs = ghz6_results()
    assert knit(results, coeffs).entries == pytest.approx({0: 0.5, 63: 0.5})
    for fragment, clbit_map, match in (
            (1, [3, 4, 40], r"entries \[40\] lie outside the 6 output bits"),
            (1, [3, 4, 6], r"entries \[6\] lie outside"),
            (0, [-1, 1, 2], r"entries \[-1\] lie outside"),
            (1, [3, 4, 2], r"output bits \[2\] are shared across fragments"),
            (0, [0, 4, 2], r"output bits \[4\] are shared")):
        broken = with_clbit_map(results, fragment, clbit_map)
        tracemalloc.start()
        try:
            with pytest.raises(KnitShapeError, match=match):
                knit(broken, coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize("vgates", [(), (1,)])
@pytest.mark.parametrize("reads", [(0, 1), (1, 0)])
def test_knit_accepts_two_reads_into_one_clbit_within_a_fragment(vgates, reads):
    # Qubits 0 and 1 share a fragment and are both read into clbit 0, which
    # codegen maps as [0, 0, ...]; uncut, or with gate 1 cut off qubit 2's
    # fragment, the knit equals the engine's output for the whole circuit.
    c = Circuit(3, [instr("h", 0), instr("ry", 1, angle=0.7), instr("cx", 1, 0),
                    instr("ry", 2, angle=0.3), instr("cx", 1, 2)], num_clbits=2)
    for q in reads:
        c.add("measure", q, clbit=0)
    c.add("measure", 2, clbit=1)
    prog = compiled(c, vgates)
    assert prog.fragments[0].clbit_map[:2] == [0, 0]
    assert len(prog.fragments) == 1 + len(vgates)
    assert_same_knit(run_program(prog), run_exact(c))


def test_run_program_refuses_a_clbit_shared_across_fragments_before_executing(
        monkeypatch):
    # Two idle qubits read into one clbit make two fragments with clbit maps
    # [0] and [0]; the knit refuses them, and run_program does so before
    # any instance runs.
    c = Circuit(2, [instr("h", 0), instr("h", 1), instr("measure", 0, clbit=0),
                    instr("measure", 1, clbit=0)], num_clbits=1)
    prog = generate(from_circuit(c))
    assert [pc.clbit_map for pc in prog.fragments] == [[0], [0]]
    refuse_instances(monkeypatch)
    with pytest.raises(KnitShapeError,
                       match=r"output bits \[0\] are shared across fragments"):
        run_program(prog)


def test_bench_family_programs_have_disjoint_in_range_clbit_maps():
    # Valid programs pass the check: their maps are disjoint and in range,
    # and those with at most three virtual gates knit.
    knitted = 0
    for prog in bench_family_programs(random.Random(2323), 120, max_qubits=8):
        clbits = [c for pc in prog.fragments for c in pc.clbit_map]
        assert len(set(clbits)) == len(clbits)
        assert all(0 <= c < prog.num_clbits for c in clbits)
        if prog.num_virtual_gates <= 3:
            assert knit(execute(prog), global_coefficients(prog)).num_bits == prog.num_clbits
            knitted += 1
    assert knitted >= 60


# ---------------------------------------------------------------------------
# QPU model plumbing

def test_fleet_json_round_trip():
    qpus = [line_qpu(5, queue_length=3), line_qpu(8)]
    back = fleet_from_json(fleet_to_json(qpus))
    assert [(q.name, q.num_qubits, q.queue_length) for q in back] == \
        [("line-5", 5, 3), ("line-8", 8, 0)]
    assert back[0].coupling == [(i, i + 1) for i in range(4)]


def test_qpu_validation():
    with pytest.raises(QpuError):
        QpuModel("bad", 2, [(0, 5)])
    with pytest.raises(QpuError):
        QpuModel("bad", 2, [], {"cx": 1.5})
    with pytest.raises(QpuError):
        QpuModel("bad", 2, [], {}, queue_length=-1)


def test_qpu_rejects_self_loop_edges():
    with pytest.raises(QpuError, match="self-loop"):
        QpuModel("bad", 3, [(0, 1), (1, 1)])
    doc = json.loads(fleet_to_json([line_qpu(3)]))
    doc["qpus"][0]["coupling"].append([2, 2])
    with pytest.raises(QpuError, match=r"coupling edge \(2, 2\) is a self-loop"):
        fleet_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# fragment lowerings

def test_fragment_lowerings_match_their_counter_references(monkeypatch):
    # Each placeholder's actions are its side of its gate's decomposition;
    # lowered through them, every instance of a fragment with k_j <= 2 and
    # each fragment's batched Slot circuit equal what the parallel
    # param_vectors list walked with a counter gave.
    batched = []
    monkeypatch.setattr(runtime, "run_batch",
                        lambda circuit, count: batched.append(circuit) or [])
    placeholders = instances = 0
    for prog in bench_family_programs(random.Random(2424), 200, max_qubits=10):
        batched.clear()
        execute(prog)
        gates = [pc.touching_gates(prog.gate_order) for pc in prog.fragments]
        assert batched == [reference_slot_circuit(pc, g)
                           for pc, g in zip(prog.fragments, gates)]
        for pc, gate_ids in zip(prog.fragments, gates):
            for el in pc.elements:
                if isinstance(el, Placeholder):
                    entries = decomposition_for(*prog.vgate_info[el.gate_id]).entries
                    assert el.actions == tuple(
                        e.a if el.side == "a" else e.b for e in entries)
                    placeholders += 1
            if len(gate_ids) > 2:
                continue
            for digits in itertools.product(range(6), repeat=len(gate_ids)):
                assignment = dict(zip(gate_ids, digits))
                assert pc.instantiate(assignment) == \
                    reference_instantiate(pc, assignment)
                instances += 1
    assert placeholders >= 400 and instances >= 2000
