import itertools
import math
import pickle
import random
import statistics
import tracemalloc

import numpy as np
import pytest

from gatevm import sim
from gatevm.circuit import GATES_1Q, GATES_2Q, ROTATIONS, Circuit, instr
from gatevm.decomp import decomposition_for
from gatevm.sim import (
    BranchOverflowError,
    SignedDistribution,
    SimulationError,
    l1_distance,
    linf_distance,
    run_exact,
    run_sampled,
    total_variation,
)

from helpers import (dense_unitary, density_oracle, random_circuit,
                     reference_apply, reference_branch_norms,
                     reference_distributions)


def bell() -> Circuit:
    return Circuit(2, [instr("h", 0), instr("cx", 0, 1)])


def test_bell_exact_distribution():
    dist = run_exact(bell())
    assert dist.as_strings() == pytest.approx({"00": 0.5, "11": 0.5})


def test_bit_order_qubit0_is_lsb():
    dist = run_exact(Circuit(2, [instr("x", 0)]))
    assert dist.entries == {1: pytest.approx(1.0)}
    assert dist.bitstring(1) == "01"


def test_signed_measurement_of_plus_state_sums_to_zero():
    # <Z> on |+> is zero: the two outcome branches carry opposite signs.
    c = Circuit(2, num_clbits=1)
    c.add("h", 0)
    c.add("measure", 0, sign=True)
    c.add("h", 0)  # keep using the qubit so the measurement branches
    c.add("measure", 1, clbit=0)
    dist = run_exact(c)
    assert abs(dist.total()) <= 1e-12


def test_mid_circuit_measure_collapses():
    # measure |+>, then the second H acts on a collapsed state
    c = Circuit(1, num_clbits=1)
    c.add("h", 0)
    c.add("measure", 0, clbit=0)
    c.add("h", 0)
    dist = run_exact(c)
    assert dist.as_strings() == pytest.approx({"0": 0.5, "1": 0.5})


def test_exact_matches_statevector_on_unitary_circuits():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        c = random_circuit(rng, n, rng.randint(1, 20))
        state = dense_unitary(c)[:, 0]
        expected = np.abs(state) ** 2
        dist = run_exact(c)
        for k in range(1 << n):
            assert dist[k] == pytest.approx(expected[k], abs=1e-10)


def test_exact_matches_density_oracle_with_measurement_noise_free_chaos():
    rng = random.Random(17)
    for trial in range(25):
        n = rng.randint(2, 5)
        c = random_circuit(rng, n, rng.randint(3, 14))
        # sprinkle mid-circuit measurements / resets / signed measures
        extras = rng.randint(1, 3)
        for _ in range(extras):
            pos = rng.randrange(len(c.instructions) + 1)
            q = rng.randrange(n)
            kind = rng.choice(["measure", "reset", "signed"])
            if kind == "measure":
                ins = instr("measure", q, clbit=rng.randrange(n))
            elif kind == "reset":
                ins = instr("reset", q)
            else:
                ins = instr("measure", q, sign=True)
            c.instructions.insert(pos, ins)
        c.num_clbits = n
        expected = density_oracle(c)
        got = run_exact(c)
        keys = set(expected) | set(got.entries)
        for k in keys:
            assert got[k] == pytest.approx(expected.get(k, 0.0), abs=1e-10), \
                f"trial {trial} key {k}"


def test_norm_preserved_exact_total_is_one():
    rng = random.Random(5)
    for _ in range(20):
        c = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 25))
        dist = run_exact(c)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in dist.entries.values())


def test_reset_idempotent():
    c1 = Circuit(2, [instr("h", 0), instr("cx", 0, 1), instr("reset", 0)])
    c2 = Circuit(2, [instr("h", 0), instr("cx", 0, 1), instr("reset", 0),
                     instr("reset", 0)])
    assert linf_distance(run_exact(c1), run_exact(c2)) <= 1e-12


def test_qubit_limit_guard():
    with pytest.raises(SimulationError):
        run_exact(Circuit(27))


def test_cx_decomposition_reconstructs_channel_end_to_end():
    # Weighted 6-instance sum over the quasi-probability table equals the
    # direct circuit result, on random product inputs.
    rng = random.Random(23)
    dec = decomposition_for("cx")
    for _ in range(10):
        prep = []
        for q in (0, 1):
            prep.append(instr("ry", q, angle=rng.uniform(0, math.pi)))
            prep.append(instr("rz", q, angle=rng.uniform(0, 2 * math.pi)))
        direct = run_exact(Circuit(2, prep + [instr("cx", 0, 1)]))
        acc: dict[int, float] = {}
        for entry in dec.entries:
            body = entry.a.to_instructions(0) + entry.b.to_instructions(1)
            inst_dist = run_exact(Circuit(2, prep + body))
            for k, v in inst_dist.entries.items():
                acc[k] = acc.get(k, 0.0) + entry.coeff * v
        recon = SignedDistribution(acc, 2)
        assert linf_distance(recon, direct) <= 1e-10


def test_sampled_bell_frequency():
    counts = run_sampled(bell(), shots=20000, seed=42)
    assert counts.shots == 20000
    assert sum(counts.counts.values()) == 20000
    assert abs(counts.counts.get(0, 0) / 20000 - 0.5) <= 0.02


def test_sampled_deterministic_outcome():
    c = Circuit(1, [instr("x", 0)])
    counts = run_sampled(c, shots=500, seed=1)
    assert counts.counts == {1: 500}
    assert counts.signed_sum == {1: 500}


def test_sampled_seed_reproducible():
    rng = random.Random(9)
    c = random_circuit(rng, 4, 12)
    a = run_sampled(c, shots=4096, seed=77)
    b = run_sampled(c, shots=4096, seed=77)
    assert a.counts == b.counts and a.signed_sum == b.signed_sum
    other = run_sampled(c, shots=4096, seed=78)
    assert other.counts != a.counts


def test_sampled_converges_to_exact():
    rng = random.Random(31)
    c = random_circuit(rng, 4, 14)
    ideal = run_exact(c)
    medians = []
    for shots in (1000, 10000, 100000):
        tvs = []
        for seed in range(20):
            emp = run_sampled(c, shots=shots, seed=seed).to_signed_distribution()
            tvs.append(total_variation(emp, ideal))
        medians.append(statistics.median(tvs))
    assert medians[0] > medians[1] > medians[2]


def test_signed_sum_tracks_measurement_signs():
    # Deterministic |1> measured with a sign flag: every shot counts -1.
    c = Circuit(2, num_clbits=1)
    c.add("x", 0)
    c.add("measure", 0, sign=True)
    c.add("x", 0)
    c.add("measure", 1, clbit=0)
    counts = run_sampled(c, shots=1000, seed=0)
    assert counts.signed_sum == {0: -1000}
    assert counts.counts == {0: 1000}


def test_distribution_helpers():
    a = SignedDistribution({0: 0.5, 3: 0.5}, 2)
    b = SignedDistribution({0: 0.25, 1: 0.25, 3: 0.5}, 2)
    assert linf_distance(a, b) == pytest.approx(0.25)
    assert l1_distance(a, b) == pytest.approx(0.5)
    assert total_variation(a, b) == pytest.approx(0.25)
    assert SignedDistribution.from_strings(a.as_strings()).entries == a.entries


def test_clipped_probabilities():
    d = SignedDistribution({0: 0.75, 1: -0.25, 2: 0.75}, 2)
    clipped = d.clipped_probabilities()
    assert clipped == pytest.approx({0: 0.5, 2: 0.5})


def test_clipped_probabilities_refuses_no_positive_mass():
    with pytest.raises(SimulationError, match="no positive mass"):
        SignedDistribution({0: -0.5, 1: 0.0, 3: -0.5}, 2).clipped_probabilities()


@pytest.mark.parametrize("entries", [{}, {5: 0.625, 0: -0.125, 2: 0.5}])
def test_signed_distribution_from_dict_and_from_arrays_agree(entries):
    # Keys deliberately out of order: the array form keeps them unsorted.
    from_dict = SignedDistribution(entries, 3)
    from_arrays = SignedDistribution.from_arrays(
        np.array(list(entries), dtype=np.int64),
        np.array(list(entries.values()), dtype=np.float64), 3)
    for dist in (from_dict, from_arrays, pickle.loads(pickle.dumps(from_arrays))):
        assert dist.entries == entries
        assert list(dist.entries) == sorted(entries)
        assert dist.total() == sum(entries[k] for k in sorted(entries))
        assert dist.as_strings() == {format(k, "03b"): v
                                     for k, v in sorted(entries.items())}
        assert [dist[k] for k in range(8)] == [entries.get(k, 0.0)
                                               for k in range(8)]
        if entries:
            assert dist.clipped_probabilities() == {5: 0.625 / 1.125,
                                                    2: 0.5 / 1.125}
        else:
            with pytest.raises(SimulationError):
                dist.clipped_probabilities()
        back = pickle.loads(pickle.dumps(dist))
        assert back.entries == entries and back.num_bits == 3


def _pinned_branching_circuit() -> Circuit:
    # Three mid-circuit measurements (one sign-marked) and a reset: up to 16
    # branches with distinct weights, so a different branch order changes
    # which outcomes the seeded multinomial draw lands on.
    c = Circuit(3, num_clbits=5)
    c.instructions = [
        instr("ry", 0, angle=0.7), instr("ry", 1, angle=1.3), instr("h", 2),
        instr("cx", 0, 1), instr("rzz", 1, 2, angle=0.4),
        instr("measure", 0, clbit=0), instr("measure", 1, sign=True),
        instr("measure", 2, clbit=3), instr("cx", 2, 0),
        instr("ry", 1, angle=2.1), instr("reset", 2), instr("ry", 2, angle=0.9),
        instr("cx", 0, 2), instr("cz", 1, 2),
        instr("measure", 0, clbit=1), instr("measure", 1, clbit=2),
        instr("measure", 2, clbit=4),
    ]
    return c


def test_sampled_output_pinned_across_branch_order():
    got = run_sampled(_pinned_branching_circuit(), shots=5000, seed=2024)
    assert got.counts == {
        0: 763, 3: 28, 4: 995, 7: 25, 9: 109, 10: 181, 13: 99, 14: 233,
        16: 172, 19: 120, 20: 250, 23: 110, 25: 34, 26: 765, 29: 21, 30: 1095}
    assert got.signed_sum == {
        0: -259, 3: -16, 4: 681, 7: 3, 9: -81, 10: -61, 13: 29, 14: 149,
        16: -40, 19: -80, 20: 172, 23: 36, 25: -20, 26: -225, 29: 7, 30: 749}


def test_branch_overflow_refused_before_allocation(monkeypatch):
    # Ten qubits in uniform superposition, six of them measured mid-circuit:
    # every measurement doubles the branches, up to 64 rows of 1024
    # amplitudes. With the limit lowered to 32 rows' worth, the sixth
    # measurement is refused before its 1 MiB array exists; the 512 KiB
    # state and the split's norms are all that is held then. (At the default
    # limit of 2^26 amplitudes, no state under 1 MB reaches the guard: one
    # split at most doubles the rows.)
    c = Circuit(10, [instr("h", q) for q in range(10)]
                + [instr("measure", q, clbit=q) for q in range(6)]
                + [instr("x", q) for q in range(6)], num_clbits=6)
    assert len(run_exact(c).entries) == 1 << 6
    monkeypatch.setattr(sim, "MAX_BRANCH_AMPLITUDES", 32 << 10)
    tracemalloc.start()
    try:
        with pytest.raises(BranchOverflowError):
            run_exact(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_run_batch_refuses_slots_that_do_not_number_the_instances():
    acts = tuple(e.a for e in decomposition_for("cx").entries)
    assert len(sim.run_batch(Circuit(1, [sim.Slot(0, acts)]), 12)) == 12
    with pytest.raises(SimulationError, match="strides"):
        sim.run_batch(Circuit(1, [sim.Slot(0, acts, stride=2)]), 12)
    with pytest.raises(SimulationError, match="do not fill"):
        sim.run_batch(Circuit(1, [sim.Slot(0, acts)]), 9)


def test_sampled_run_batch_refuses_missing_or_miscounted_seeds(monkeypatch):
    # Refused before any leaf evolves: one seed per instance or nothing.
    def never(*args):
        raise AssertionError("evolved before the seeds were checked")

    acts = tuple(e.a for e in decomposition_for("cx").entries)
    slot = Circuit(1, [sim.Slot(0, acts)])
    monkeypatch.setattr(sim, "_evolve", never)
    for c, count, seeds in ((bell(), 1, None), (bell(), 1, []),
                            (bell(), 1, [1, 2]), (slot, 6, None),
                            (slot, 6, list(range(5)))):
        with pytest.raises(SimulationError, match="one seed per instance"):
            sim.run_batch(c, count, 100, seeds)


# ---------------------------------------------------------------------------
# the branch path against the code it replaced (tests/helpers.py)

def _gate_cases(n: int):
    for kind in sorted(GATES_1Q):
        mat = sim.gate_matrix(kind, 0.37 if kind in ROTATIONS else None)
        for q in range(n):
            yield mat, (q,)
    for kind in sorted(GATES_2Q):
        mat = sim.two_qubit_matrix(kind, 0.37 if kind in ROTATIONS else None)
        for pair in itertools.permutations(range(n), 2):
            yield mat, pair


# Row count -> node of each row (nondecreasing, as in an evolution).
_NODE_LAYOUTS = {0: [[]], 1: [[0]],
                 3: [[0, 0, 0], [0, 1, 2], [0, 0, 1]],
                 8: [[0] * 8, list(range(8)), [0, 0, 0, 1, 2, 2, 2, 2]]}


def _check_gate_product(amps, node, mat, qubits, n):
    picked = np.flatnonzero(node % 2 == 0)
    ev = sim._Evolution(amps.copy(), node, *[None] * 5)
    sim._apply(ev, mat, qubits, n)
    want = reference_apply(amps, mat, qubits, n, node)
    assert np.array_equal(ev.amps.view(float), want.view(float)), \
        (node, qubits)
    ev = sim._Evolution(amps.copy(), node, *[None] * 5)
    sim._apply(ev, mat, qubits, n, picked)
    want = amps.copy()
    want[picked] = reference_apply(amps[picked], mat, qubits, n, node[picked])
    assert np.array_equal(ev.amps.view(float), want.view(float)), \
        (node, qubits, "selected rows")


@pytest.mark.parametrize("n", range(2, 11))
def test_gate_product_is_bit_identical_to_the_replaced_tensordot(n):
    # Seeded shots depend on the last bit of every amplitude, so the product
    # through the work buffers must equal np.tensordot's bit for bit: on all
    # rows, on the rows of the even nodes, which a slot operation selects
    # the way the replaced engine did (gathered, applied, scattered back),
    # and along a chain of products, each read from the one before it.
    # n = 2 and 3 give two-qubit gates fewer than four columns per row.
    rng = np.random.default_rng(n)
    for rows, layouts in _NODE_LAYOUTS.items():
        amps = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
        for layout in layouts:
            node = np.array(layout, dtype=np.int64)
            chain = sim._Evolution(amps.copy(), node, *[None] * 5)
            chained = amps
            for mat, qubits in _gate_cases(n):
                _check_gate_product(amps, node, mat, qubits, n)
                sim._apply(chain, mat, qubits, n)
                chained = reference_apply(chained, mat, qubits, n, node)
            assert np.array_equal(chain.amps.view(float), chained.view(float)), \
                (rows, layout, "chain")


def test_branch_norms_match_the_replaced_strided_sum():
    # Only the prune test reads these norms: the same decisions, and values
    # within rounding of the strided sum's.
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        amps = rng.normal(size=(5, 1 << n)) + 1j * rng.normal(size=(5, 1 << n))
        amps[1] = 0.0
        amps[2] *= 1e-16  # squared norms near 1e-30 * 2^n
        for q in range(n):
            state = amps.copy()
            state[3].reshape(-1, 2, 1 << q)[:, 1] = 0.0
            got = sim._branch_norms(state, q)
            want = reference_branch_norms(state, q)
            assert got.shape == (5, 2)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
            assert np.array_equal(got >= sim._PRUNE_NORM_SQ,
                                  want >= sim._PRUNE_NORM_SQ)


def _aggregation_circuits():
    """Hand-built circuits whose keys the exact sums must group right."""
    unread = Circuit(3, num_clbits=1)  # q1 collapses unread, q2 never measured
    unread.instructions = [
        instr("h", 0), instr("ry", 1, angle=0.8), instr("cx", 0, 2),
        instr("measure", 1), instr("cx", 1, 0), instr("ry", 2, angle=0.3),
        instr("measure", 0, clbit=0)]
    signed = Circuit(3, num_clbits=1)  # mid-circuit and final sign-only reads
    signed.instructions = [
        instr("ry", 0, angle=1.1), instr("h", 1), instr("cx", 1, 2),
        instr("measure", 0, sign=True), instr("cx", 0, 1),
        instr("measure", 1, sign=True), instr("measure", 2, clbit=0)]
    silent = Circuit(3)  # no measurement: keys over all qubits
    silent.instructions = [
        instr("h", 0), instr("ry", 1, angle=0.4), instr("cx", 0, 2),
        instr("reset", 0), instr("h", 0), instr("cz", 0, 1)]
    rewritten = Circuit(2, num_clbits=1)  # c0 recorded mid-circuit, then read
    rewritten.instructions = [
        instr("ry", 0, angle=0.9), instr("ry", 1, angle=2.0),
        instr("measure", 0, clbit=0), instr("h", 0), instr("cx", 0, 1),
        instr("measure", 1, clbit=0)]
    shared = Circuit(2, [instr("h", 0), instr("h", 1)], num_clbits=1)
    shared.add("measure", 0, clbit=0)  # two qubits read into one clbit
    shared.add("measure", 1, clbit=0)
    return [unread, signed, silent, rewritten, shared]


def test_exact_sums_equal_the_replaced_sort_on_hand_built_circuits(monkeypatch):
    circuits = _aggregation_circuits()
    got = [run_exact(c) for c in circuits]
    monkeypatch.setattr(sim, "_distributions", reference_distributions)
    for c, dist in zip(circuits, got):
        want = run_exact(c)
        assert dist.entries == want.entries
        assert np.array_equal(dist.keys, want.keys)
        assert dist.num_bits == want.num_bits
    assert got[-1].entries == pytest.approx({0: 0.25, 1: 0.75}, abs=1e-12)
    assert len(got[2].entries) > 2 and got[2].num_bits == 3


def test_branching_run_holds_the_state_and_two_work_buffers():
    # 64 branches of 1024 amplitudes (a 1 MiB state), then gates on them. The
    # evolution holds the state and two work buffers of its size: 3.04 MiB
    # measured (the replaced tensordot path peaked at 3.03 MiB over the whole
    # run). It drops the buffers before the outputs are summed, which holds
    # the state, its squared magnitudes, their bins and an index over the
    # 2^16 (row group, basis state) bins: 3.21 MiB measured. The bounds
    # leave a 10% margin, so buffers that outgrow the state do not pass
    # unnoticed.
    c = Circuit(10, [instr("h", q) for q in range(10)]
                + [instr("measure", q, clbit=q) for q in range(6)]
                + [instr("x", q) for q in range(6)]
                + [instr("cx", 6, 7), instr("h", 0)], num_clbits=6)
    assert len(run_exact(c).entries) == 1 << 6
    peaks = []
    for run in (lambda: sim._evolve(sim._Steps.of(c), np.zeros(1, dtype=np.int64)),
                lambda: run_exact(c)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 3.35 * (1 << 20)
    assert peaks[1] < 3.53 * (1 << 20)
