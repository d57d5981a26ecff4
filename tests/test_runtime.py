import random
import tracemalloc

import numpy as np
import pytest

from gatevm.circuit import Circuit, instr
from gatevm.codegen import Placeholder, generate
from gatevm.qpu import QpuModel, QpuError, fleet_from_json, fleet_to_json, line_qpu
from gatevm.runtime import (
    MAX_KNIT_ENTRIES,
    FragmentResultEntry,
    FragmentResults,
    GlobalCoefficients,
    InstantiationOverflowError,
    KnitOverflowError,
    KnitShapeError,
    NoFittingQpuError,
    execute,
    global_coefficients,
    instantiate,
    knit,
    run_program,
    schedule,
)
from gatevm.sim import SignedDistribution, linf_distance, run_exact
from gatevm.transpiler import esp, map_and_route
from gatevm.vc import from_circuit, virt_gate

from helpers import random_circuit, reference_knit


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
                from gatevm.runtime import _metric_proxy
                success = esp(map_and_route(_metric_proxy(pc), q, seed), q)
                wait = q.queue_length / max_queue if max_queue else 0.0
                scores[q.name] = alpha * (1 - wait) + beta * success
            best = max(fits, key=lambda q: (scores[q.name], ))
            expect = min((q for q in fits
                          if scores[q.name] == scores[best.name]),
                         key=lambda q: q.name)
            assert assignment[pc.fragment_index] == expect.name, trial
            expect.queue_length += 6 ** len(
                pc.touching_gates(prog.gate_order))


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


def assert_knit_matches_reference(results, coeffs):
    expected = reference_knit(results, coeffs)
    for workers in (1, 2):
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
