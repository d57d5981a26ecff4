"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -v -s``).
Criterion 7 is split in two tests. Its worker-count invariance (a) and
6x-per-gate cost growth (b) clauses run everywhere. Its 8-worker speedup
clause (c) is skipped where fewer than 8 CPUs are usable by this process,
and runs with the unchanged >= 4x bar elsewhere.
"""
import contextlib
import itertools
import math
import os
import random
import statistics
import time

import numpy as np
import pytest

from gatevm.bench import bv_circuit, qaoa_regular_circuit, two_local_circuit, vqe_circuit
from gatevm.circuit import Circuit
from gatevm.codegen import Placeholder, generate
from gatevm.decomp import decomposition_for
from gatevm.passes import (
    PassConfig,
    cut_exact,
    cut_greedy_kl,
    gate_costs,
    reduce_dependencies_exact,
    reduce_dependencies_greedy,
    reuse_qubits,
    run_pipeline,
    solve_cut_exact,
)
from gatevm.qpu import QpuModel, heavy_hex_qpu
from gatevm.runtime import (
    FragmentResultEntry,
    FragmentResults,
    GlobalCoefficients,
    metric_proxy,
    execute,
    global_coefficients,
    instantiate,
    knit,
    run_program,
    schedule,
)
from gatevm.sim import SignedDistribution, choi_check, l1_distance, linf_distance, run_exact, two_qubit_matrix
from gatevm.transpiler import cnot_count, depth, esp, hellinger_fidelity, map_and_route
from gatevm.vc import from_circuit, qubit_dependencies, virt_gate

from fixtures import dep_showcase_circuit, two_cluster_circuit
from helpers import brute_force_min_cut, closure_dependencies, random_circuit


@contextlib.contextmanager
def criterion(num: int, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL "
              f"({time.perf_counter() - t0:.1f}s): {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS "
          f"({time.perf_counter() - t0:.1f}s): {description}")


def test_criterion_01_decomposition_channel_correctness():
    with criterion(1, "decomposition channel correctness (Choi <= 1e-12)"):
        t0 = time.perf_counter()
        cases = [("cx", None), ("cz", None),
                 ("rzz", math.pi / 7), ("rzz", math.pi / 3), ("rzz", math.pi / 2)]
        for kind, angle in cases:
            dec = decomposition_for(kind, angle)
            assert choi_check(two_qubit_matrix(kind, angle), dec) <= 1e-12
            assert abs(dec.coefficient_sum() - 1.0) <= 1e-12
        assert time.perf_counter() - t0 < 1.0


def _place_cc(vc, rng):
    return cut_greedy_kl(vc, PassConfig(
        max_fragment_size=max(2, (vc.num_qubits + 1) // 2), budget=3,
        seed=rng.randrange(10 ** 6)))


def _place_dr(vc, rng):
    return reduce_dependencies_greedy(vc, PassConfig(
        max_fragment_size=vc.num_qubits, budget=3, seed=rng.randrange(10 ** 6)))


def _place_random(vc, rng):
    gates = [g.id for g in vc.real_gates()]
    for gid in rng.sample(gates, min(len(gates), rng.randint(1, 3))):
        virt_gate(vc, gid)
    return vc


def test_criterion_02_end_to_end_knit_equivalence():
    with criterion(2, "end-to-end knit equivalence on 200 random circuits"):
        t0 = time.perf_counter()
        rng = random.Random(2024)
        placers = [_place_cc, _place_dr, _place_random]
        for case in range(200):
            n = rng.randint(4, 12)
            c = random_circuit(rng, n, rng.randint(n, 2 * n),
                               two_qubit_prob=0.55)
            vc = placers[case % 3](from_circuit(c), rng)
            assert len(vc.virtual_gates) <= 3
            prog = generate(vc)
            err = linf_distance(run_program(prog, mode="exact"), run_exact(c))
            assert err <= 1e-8, f"case {case}: L_inf {err}"
        assert time.perf_counter() - t0 < 300.0


def test_criterion_03_two_cluster_cut():
    with criterion(3, "six-qubit two-cluster instance cuts 3+3 with weight 2"):
        vc = from_circuit(two_cluster_circuit())
        for cutter in (cut_exact, cut_greedy_kl):
            out = cutter(vc, PassConfig(max_fragment_size=3, budget=10))
            assert len(out.virtual_gates) == 2
            assert sorted(len(f.qubits) for f in out.fragments) == [3, 3]


def test_criterion_04_dependency_reduction_showcase():
    with criterion(4, "greedy reducer picks cost 6, deps 12 -> 11, width 4 -> 3"):
        vc = from_circuit(dep_showcase_circuit())
        costs = gate_costs(vc)
        assert max(costs.values()) == 6
        assert len(qubit_dependencies(vc)) == 12
        reduced = reduce_dependencies_greedy(
            vc, PassConfig(max_fragment_size=3, budget=1, seed=0))
        assert len(reduced.virtual_gates) == 1
        assert len(qubit_dependencies(reduced)) == 11
        reused = reuse_qubits(reduced, PassConfig(max_fragment_size=3, budget=0))
        assert reused.max_fragment_width() == 3


def test_criterion_05_exact_pass_optimality():
    with criterion(5, "exact passes match brute force on 100 instances; "
                      "greedy never beats exact"):
        rng = random.Random(55)
        for trial in range(100):
            n = rng.randint(3, 7)
            c = random_circuit(rng, n, rng.randint(2, 10), two_qubit_prob=0.8)
            vc = from_circuit(c)
            s = rng.randint(2, max(2, n - 1))
            budget = rng.randint(1, 3)

            exact_cut = solve_cut_exact(vc.qubit_graph, s, seed=trial)
            oracle_cost, _ = brute_force_min_cut(vc.qubit_graph, s)
            assert exact_cut.cost == oracle_cost

            greedy_cut = cut_greedy_kl(vc, PassConfig(s, 10 ** 6, seed=trial))
            assert len(greedy_cut.virtual_gates) >= exact_cut.cost

            exact_dr = reduce_dependencies_exact(
                vc, PassConfig(n, budget, seed=trial))
            best = len(closure_dependencies(c))
            positions = [i for i, _ in c.two_qubit_gates()]
            for size in range(1, min(budget, len(positions)) + 1):
                for subset in itertools.combinations(positions, size):
                    stripped = Circuit(
                        n, [ins for i, ins in enumerate(c.instructions)
                            if i not in subset])
                    best = min(best, len(closure_dependencies(stripped)))
            assert len(qubit_dependencies(exact_dr)) == best

            greedy_dr = reduce_dependencies_greedy(
                vc, PassConfig(n, budget, seed=trial))
            assert len(qubit_dependencies(greedy_dr)) >= best


def test_criterion_06_instantiation_counts():
    with criterion(6, "6^k_j instances per fragment and |C| = 6^k"):
        rng = random.Random(66)
        for _ in range(30):
            n = rng.randint(3, 8)
            c = random_circuit(rng, n, rng.randint(n, 3 * n), two_qubit_prob=0.7)
            vc = from_circuit(c)
            gates = [g.id for g in vc.real_gates()]
            for gid in rng.sample(gates, min(len(gates), rng.randint(1, 4))):
                virt_gate(vc, gid)
            prog = generate(vc)
            sets = {s.fragment_index: s for s in instantiate(prog)}
            for pc in prog.fragments:
                touching = {el.gate_id for el in pc.elements
                            if isinstance(el, Placeholder)}
                assert len(sets[pc.fragment_index].instances) == 6 ** len(touching)
            coeffs = global_coefficients(prog)
            assert len(coeffs) == 6 ** len(prog.gate_order)


def _synthetic_results(gate_split: tuple[int, int], support_bits: int,
                       support_size: int, seed: int):
    """Two-fragment knit workload with the given gates per fragment."""
    k = sum(gate_split)
    gate_order = list(range(k))
    rng = np.random.default_rng(seed)
    entries = []
    offset = 0
    for frag, kj in enumerate(gate_split):
        gate_ids = gate_order[offset:offset + kj]
        offset += kj
        clbit_map = list(range(frag * support_bits,
                               (frag + 1) * support_bits))
        dists = []
        for _ in range(6 ** kj):
            keys = rng.choice(1 << support_bits, size=support_size,
                              replace=False)
            vals = rng.normal(size=support_size)
            dists.append(SignedDistribution(
                dict(zip(keys.tolist(), vals.tolist())), support_bits))
        entries.append(FragmentResultEntry(frag, gate_ids, clbit_map, dists))
    results = FragmentResults(entries, gate_order, 2 * support_bits)
    values = np.array([1.0])
    for _ in range(k):
        values = np.kron(values, rng.normal(size=6))
    return results, GlobalCoefficients(values, gate_order)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_criterion_07_knitter_parallel_invariance_and_scaling():
    with criterion(7, "knitter worker invariance, 6x-per-gate cost growth"):
        t0 = time.perf_counter()
        # (a) worker-count invariance on a real workload
        c = random_circuit(random.Random(7), 8, 16, two_qubit_prob=0.6)
        vc = from_circuit(c)
        for gid in [g.id for g in vc.real_gates()][:3]:
            virt_gate(vc, gid)
        prog = generate(vc)
        results = execute(prog, mode="exact")
        coeffs = global_coefficients(prog)
        base = knit(results, coeffs, workers=1)
        for workers in (2, 4, 8):
            assert linf_distance(base, knit(results, coeffs, workers)) <= 1e-12

        # (b) cost grows ~6x per added virtual gate (ratio in [4, 9])
        times = {}
        for k, split in ((3, (2, 1)), (4, (2, 2)), (5, (3, 2))):
            results_k, coeffs_k = _synthetic_results(split, 8, 200, seed=k)
            best = float("inf")
            for _ in range(2):
                s0 = time.perf_counter()
                knit(results_k, coeffs_k, workers=1)
                best = min(best, time.perf_counter() - s0)
            times[k] = best
        for k in (3, 4):
            ratio = times[k + 1] / times[k]
            assert 4.0 <= ratio <= 9.0, f"knit time ratio k={k}->{k+1}: {ratio:.2f}"
        assert time.perf_counter() - t0 < 600.0


@pytest.mark.skipif(
    _usable_cpus() < 8,
    reason="8-worker speedup >= 4x needs 8 usable CPUs; "
           f"this process may use {_usable_cpus()}")
def test_criterion_07c_knitter_parallel_speedup():
    with criterion(7, "knitter 8-worker speedup >= 4x"):
        t0 = time.perf_counter()
        # (c) parallel speedup on a k=6, two-fragment workload
        results6, coeffs6 = _synthetic_results((3, 3), 8, 200, seed=6)
        single = parallel = float("inf")
        for _ in range(2):
            s0 = time.perf_counter()
            knit(results6, coeffs6, workers=1)
            single = min(single, time.perf_counter() - s0)
        for _ in range(2):
            s0 = time.perf_counter()
            knit(results6, coeffs6, workers=8)
            parallel = min(parallel, time.perf_counter() - s0)
        speedup = single / parallel
        assert time.perf_counter() - t0 < 600.0
        assert speedup >= 4.0, (
            f"8-worker speedup {speedup:.2f}x on {_usable_cpus()} usable CPUs")


def _bv_secret(n: int) -> str:
    bits = ["0"] * (n - 1)
    for i in range(n // 2 + 1):
        bits[i] = "1"
    return "".join(bits)


def test_criterion_08_directional_compilation_benefit():
    with criterion(8, "cutting strictly improves depth, CNOTs and ESP on a "
                      "heavy-hex QPU"):
        qpu = heavy_hex_qpu()
        for n in (10, 12, 14):
            benches = [
                bv_circuit(_bv_secret(n)),
                vqe_circuit(n, 1, seed=n),
                two_local_circuit(n, 1, seed=n),
                qaoa_regular_circuit(n, 2, seed=n),
            ]
            for circ in benches:
                uncut = map_and_route(circ, qpu, seed=0)
                uncut_depth = depth(uncut.circuit)
                uncut_cnots = cnot_count(uncut.circuit)
                uncut_esp = esp(uncut, qpu)

                cfg = PassConfig(max_fragment_size=(n + 1) // 2, budget=3,
                                 seed=0, exact=True)
                prog = generate(run_pipeline(from_circuit(circ), cfg))
                frag_depths, frag_cnots, frag_esps = [], [], []
                for pc in prog.fragments:
                    physical = map_and_route(metric_proxy(pc), qpu, seed=0)
                    frag_depths.append(depth(physical.circuit))
                    frag_cnots.append(cnot_count(physical.circuit))
                    frag_esps.append(esp(physical, qpu))
                label = f"{circ.name} (n={n})"
                assert max(frag_depths) < uncut_depth, label
                assert max(frag_cnots) < uncut_cnots, label
                assert min(frag_esps) > uncut_esp, label


def test_criterion_09_sampled_mode_convergence():
    with criterion(9, "sampled GHZ-10 with one virtual gate converges"):
        ghz = Circuit(10)
        ghz.add("h", 0)
        for i in range(9):
            ghz.add("cx", i, i + 1)
        vc = cut_exact(from_circuit(ghz),
                       PassConfig(max_fragment_size=5, budget=1))
        assert len(vc.virtual_gates) == 1
        prog = generate(vc)
        ideal = run_exact(ghz)
        medians = []
        for shots in (1000, 10000, 100000):
            errors = []
            for seed in range(20):
                knitted = run_program(prog, mode="sampled", shots=shots,
                                      seed=seed)
                errors.append(l1_distance(knitted, ideal))
                if shots == 100000:
                    fid = hellinger_fidelity(knitted, ideal, clip=True)
                    assert fid >= 0.98, f"seed {seed}: fidelity {fid:.4f}"
            medians.append(statistics.median(errors))
        assert medians[0] > medians[1] > medians[2]


def test_criterion_10_scheduler_formula():
    with criterion(10, "scheduler choice equals independent score argmax on "
                       "1000 random fleets"):
        rng = random.Random(1010)
        base = Circuit(3, name="sched")
        base.add("h", 0)
        base.add("cx", 0, 1)
        base.add("cx", 1, 2)
        vc = from_circuit(base)
        virt_gate(vc, 1)
        prog = generate(vc)
        for trial in range(1000):
            qpus = []
            for i in range(rng.randint(2, 5)):
                n = rng.randint(2, 6)
                qpus.append(QpuModel(
                    f"q{i}", n, [(a, a + 1) for a in range(n - 1)],
                    {"2q": rng.uniform(0, 0.3), "1q": rng.uniform(0, 0.05),
                     "measure": rng.uniform(0, 0.3)},
                    rng.randint(0, 20)))
            if trial % 3 == 0:
                alpha, beta = 1.0, 0.0
            elif trial % 3 == 1:
                alpha, beta = 0.0, 1.0
            else:
                alpha, beta = rng.random(), rng.random()
            snapshot = [q.queue_length for q in qpus]
            assignment = schedule(prog, qpus, alpha, beta, seed=trial)
            for q, ql in zip(qpus, snapshot):
                q.queue_length = ql
            for pc in prog.fragments:
                fits = sorted((q for q in qpus
                               if q.num_qubits >= pc.num_qubits),
                              key=lambda q: q.name)
                max_queue = max(q.queue_length for q in qpus)
                scores = {}
                for q in fits:
                    success = esp(map_and_route(metric_proxy(pc), q,
                                                seed=trial), q)
                    wait = q.queue_length / max_queue if max_queue else 0.0
                    scores[q.name] = alpha * (1 - wait) + beta * success
                top = max(scores.values())
                expect = min(name for name, sc in scores.items() if sc == top)
                assert assignment[pc.fragment_index] == expect, trial
                chosen = next(q for q in qpus if q.name == expect)
                chosen.queue_length += 6 ** len(
                    pc.touching_gates(prog.gate_order))
