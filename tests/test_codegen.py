import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from gatevm.circuit import Circuit, instr
from gatevm.codegen import (
    CodegenError,
    ParamCircuit,
    Placeholder,
    generate,
    peephole_optimize,
    program_from_json,
    program_to_json,
)
from gatevm.passes import (PassConfig, WidthUnreachableError, WireSplitError,
                           run_pipeline)
from gatevm.runtime import run_program
from gatevm.sim import linf_distance, run_exact
from gatevm.vc import element_wires, from_circuit, virt_gate

from helpers import (dense_unitary, ghz6_program_json, program_mutations, random_circuit,
                     reference_peephole, refuse_instances, reinlined)


def split_bell_program():
    vc = from_circuit(Circuit(2, [instr("h", 0), instr("cx", 0, 1)]))
    virt_gate(vc, 0)
    return generate(vc)


def test_cross_fragment_placeholder_sides():
    prog = split_bell_program()
    assert len(prog.fragments) == 2
    (pos_a, gid_a, side_a), = prog.fragments[0].placeholders
    (pos_b, gid_b, side_b), = prog.fragments[1].placeholders
    assert (side_a, side_b) == ("a", "b")
    assert gid_a == gid_b == prog.gate_order[0]
    assert prog.coeff_vectors[gid_a].shape == (6,)


def test_no_virtual_gates_no_placeholders():
    vc = from_circuit(Circuit(3, [instr("h", 0), instr("cx", 0, 1),
                                  instr("cx", 1, 2)]))
    prog = generate(vc)
    assert len(prog.fragments) == 1
    assert prog.fragments[0].placeholders == []
    assert prog.gate_order == []


def test_internal_gate_two_placeholders_one_index():
    c = Circuit(2, [instr("h", 0), instr("cx", 0, 1), instr("cz", 0, 1)])
    vc = from_circuit(c)
    virt_gate(vc, 1)  # cz stays virtual inside the one fragment
    prog = generate(vc)
    pc = prog.fragments[0]
    assert len(pc.placeholders) == 2
    assert pc.touching_gates(prog.gate_order) == [1]


def test_placeholder_count_matches_touching_sides():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 7)
        c = random_circuit(rng, n, rng.randint(2, 3 * n), two_qubit_prob=0.7)
        vc = from_circuit(c)
        gates = [g.id for g in vc.real_gates()]
        for gid in rng.sample(gates, min(len(gates), rng.randint(1, 3))):
            virt_gate(vc, gid)
        prog = generate(vc)
        total_placeholders = sum(len(pc.placeholders) for pc in prog.fragments)
        assert total_placeholders == 2 * len(prog.gate_order)
        for pc in prog.fragments:
            assert len(pc.param_vectors) == len(pc.placeholders)
            for vec in pc.param_vectors:
                assert len(vec) == 6


def test_clbit_maps_partition_outputs():
    c = Circuit(4, [instr("h", 0), instr("cx", 0, 1), instr("cx", 2, 3)])
    prog = generate(from_circuit(c))
    maps = sorted(tuple(pc.clbit_map) for pc in prog.fragments)
    assert maps == [(0, 1), (2, 3)]
    assert prog.num_clbits == 4


def test_generate_is_lossless_for_internal_gates():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 5)
        c = random_circuit(rng, n, rng.randint(3, 12), two_qubit_prob=0.8)
        vc = from_circuit(c)
        gates = [g.id for g in vc.real_gates()]
        if not gates:
            continue
        # virtualize one gate but only if the fragment stays connected
        gid = rng.choice(gates)
        virt_gate(vc, gid)
        if len(vc.fragments) != 1:
            continue
        prog = generate(vc)
        inlined = reinlined(prog.fragments[0], prog.vgate_info)
        assert linf_distance(run_exact(inlined), run_exact(c)) <= 1e-10


def test_reinline_refuses_cross_fragment_gates():
    prog = split_bell_program()
    with pytest.raises(CodegenError):
        reinlined(prog.fragments[0], prog.vgate_info)


def test_peephole_cancels_self_inverse_pairs():
    pc = ParamCircuit(1, [instr("h", 0), instr("h", 0)], [], [0], 0)
    assert peephole_optimize(pc).elements == []
    pc2 = ParamCircuit(2, [instr("cx", 0, 1), instr("cx", 0, 1)], [], [0, 1], 0)
    assert peephole_optimize(pc2).elements == []


def test_peephole_merges_rotations():
    pc = ParamCircuit(1, [instr("rz", 0, angle=0.25), instr("rz", 0, angle=0.5)],
                      [], [0], 0)
    out = peephole_optimize(pc).elements
    assert len(out) == 1 and out[0].angle == pytest.approx(0.75)
    pc2 = ParamCircuit(1, [instr("rx", 0, angle=1.0), instr("rx", 0, angle=-1.0)],
                       [], [0], 0)
    assert peephole_optimize(pc2).elements == []


def test_peephole_respects_blockers():
    ph = Placeholder(0, "a", 0, ())
    pc = ParamCircuit(1, [instr("h", 0), ph, instr("h", 0)], [], [0], 0)
    out = peephole_optimize(pc)
    assert len(out.elements) == 3
    pc2 = ParamCircuit(1, [instr("h", 0), instr("measure", 0, clbit=0),
                           instr("h", 0)], [0], [0], 0)
    assert len(peephole_optimize(pc2).elements) == 3


def test_peephole_blocks_on_partial_wire_overlap():
    # cx pair with a gate on only one of the wires in between must survive
    pc = ParamCircuit(2, [instr("cx", 0, 1), instr("x", 1), instr("cx", 0, 1)],
                      [], [0, 1], 0)
    assert len(peephole_optimize(pc).elements) == 3


def test_peephole_preserves_unitaries():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randint(1, 4)
        c = random_circuit(rng, n, rng.randint(2, 16), two_qubit_prob=0.5)
        pc = ParamCircuit(n, list(c.instructions), [], list(range(n)), 0)
        out = peephole_optimize(pc)
        before = dense_unitary(c)
        after = dense_unitary(Circuit(n, [e for e in out.elements]))
        # compare up to global phase via the largest matrix entry
        idx = np.unravel_index(np.argmax(np.abs(before)), before.shape)
        phase = after[idx] / before[idx] if abs(before[idx]) > 1e-12 else 1.0
        assert np.allclose(before * phase, after, atol=1e-10)


def _random_peephole_input(rng):
    """Elements over 1-4 wires: placeholders, measurements, resets, barriers,
    runs of 4-6 same-axis rotations, and mirrored segments whose inverse
    follows them, so that removals expose further pairs."""
    n = rng.randint(1, 4)
    els = []

    def gate():
        if n >= 2 and rng.random() < 0.4:
            kind = rng.choice(["cx", "cz", "rzz"])
            angle = rng.choice([0.5, rng.uniform(-3, 3)]) if kind == "rzz" else None
            return instr(kind, *rng.sample(range(n), 2), angle=angle)
        kind = rng.choice(["h", "x", "z", "s", "rx", "rz"])
        angle = rng.choice([0.5, rng.uniform(-3, 3)]) if kind[0] == "r" else None
        return instr(kind, rng.randrange(n), angle=angle)

    for _ in range(rng.randint(4, 14)):
        q = rng.randrange(n)
        r = rng.random()
        if r < 0.1:
            gate_id = sum(isinstance(el, Placeholder) for el in els)
            els.append(Placeholder(gate_id, rng.choice("ab"), q,
                                   (f"vector{gate_id}",)))
        elif r < 0.15:
            els.append(instr("measure", q, clbit=len(els)))
        elif r < 0.2:
            els.append(instr("reset", q))
        elif r < 0.25:
            els.append(instr("barrier", *rng.sample(range(n), min(n, 2))))
        elif r < 0.45:
            kind = rng.choice(["rx", "ry", "rz"])
            for _ in range(rng.randint(4, 6)):
                angle = rng.choice([0.25, -0.25, rng.uniform(-3, 3)])
                els.append(instr(kind, q, angle=angle))
        elif r < 0.75:
            segment = [gate() for _ in range(rng.randint(1, 5))]
            els.extend(segment)
            els.extend(replace(x, angle=-x.angle) if x.angle is not None else x
                       for x in reversed(segment))
        else:
            els.append(gate())
    return ParamCircuit(n, els, [], list(range(n)), 0)


def _wire_sequences(elements):
    """Each wire's elements in order, as (token, angle). Equal sequences on
    every wire mean the same circuit up to the order of elements on
    disjoint wires."""
    seqs: dict[int, list] = {}
    for x in elements:
        if isinstance(x, Placeholder):
            entry = (x, None)
        else:
            entry = ((x.kind, x.qubits, x.clbit, x.sign), x.angle)
        for w in element_wires(x):
            seqs.setdefault(w, []).append(entry)
    return seqs


def test_peephole_matches_fixpoint_reference():
    # The sweep may keep the other end of an odd run than the rounds do:
    # cx(1,2) rzz(2,0;t) rzz(2,0;-t) s(0) cx(1,2) cx(1,2) keeps the last cx,
    # after s(0), where the rounds keep the first. So elements on disjoint
    # wires are compared per wire, not by their position in the list.
    rng = random.Random(606)
    removed = 0
    for _ in range(400):
        pc = _random_peephole_input(rng)
        got, want = peephole_optimize(pc), reference_peephole(pc)
        assert got.param_vectors == want.param_vectors
        assert len(got.elements) == len(want.elements)
        got_seqs, want_seqs = _wire_sequences(got.elements), _wire_sequences(want.elements)
        assert got_seqs.keys() == want_seqs.keys()
        for w, want_seq in want_seqs.items():
            assert [t for t, _ in got_seqs[w]] == [t for t, _ in want_seq]
            for (_, a), (_, b) in zip(got_seqs[w], want_seq):
                assert (a is None and b is None) or abs(a - b) <= 1e-12
        removed += len(pc.elements) - len(want.elements)
    assert removed > 2000


def test_generate_applies_peephole_once_per_fragment():
    c = Circuit(2, [instr("h", 1), instr("h", 1), instr("cx", 0, 1)])
    prog = generate(from_circuit(c))
    kinds = [e.kind for e in prog.fragments[0].elements]
    assert kinds == ["cx", "measure", "measure"]


def test_instantiate_substitutes_local_actions():
    prog = split_bell_program()
    pc = prog.fragments[0]
    gid = prog.gate_order[0]
    circ = pc.instantiate({gid: 2})  # measurement entry on side a
    assert any(i.kind == "measure" and i.sign for i in circ.instructions)
    circ0 = pc.instantiate({gid: 0})
    assert not any(i.sign for i in circ0.instructions)


def test_program_json_round_trip():
    rng = random.Random(27)
    for _ in range(10):
        n = rng.randint(2, 6)
        c = random_circuit(rng, n, rng.randint(3, 3 * n), two_qubit_prob=0.7)
        vc = from_circuit(c)
        gates = [g.id for g in vc.real_gates()]
        for gid in rng.sample(gates, min(len(gates), 2)):
            virt_gate(vc, gid)
        prog = generate(vc)
        back = program_from_json(program_to_json(prog))
        assert back.gate_order == prog.gate_order
        assert back.num_clbits == prog.num_clbits
        for a, b in zip(prog.fragments, back.fragments):
            assert a.placeholders == b.placeholders
            assert a.clbit_map == b.clbit_map
            assert a.qubit_map == b.qubit_map
            assignment = {gid: rng.randrange(6) for gid in prog.gate_order}
            ca = a.instantiate({g: assignment[g] for g in assignment})
            cb = b.instantiate({g: assignment[g] for g in assignment})
            assert linf_distance(run_exact(ca), run_exact(cb)) <= 1e-12
        for gid in prog.gate_order:
            assert np.allclose(back.coeff_vectors[gid], prog.coeff_vectors[gid])


@pytest.mark.parametrize("fragment", [0, 1])
@pytest.mark.parametrize("drop", ["placeholders", "param_vectors"])
def test_program_from_json_refuses_unbound_placeholders(fragment, drop):
    # Dropping a placeholder used to load and run to {000000: 0.5,
    # 000111: 0.5} (the right answer has 111111), and dropping its vector
    # to stop with a bare StopIteration.
    doc = json.loads(ghz6_program_json())
    assert run_program(program_from_json(json.dumps(doc))).entries == \
        pytest.approx({0: 0.5, 63: 0.5})
    assert [len(f["placeholders"]) for f in doc["fragments"]] == [1, 1]
    doc["fragments"][fragment][drop].pop()
    with pytest.raises(CodegenError, match=(
            rf"^fragment {fragment} \(ghz-6_f{fragment}\) has "
            rf"{int(drop == 'param_vectors')} placeholders but "
            rf"{int(drop == 'placeholders')} parameter vectors$")):
        program_from_json(json.dumps(doc))


MUTATIONS = list(program_mutations(json.loads(ghz6_program_json())))


@pytest.mark.parametrize("doc, message", [m[1:] for m in MUTATIONS],
                         ids=[m[0] for m in MUTATIONS])
def test_program_from_json_refuses_inconsistent_programs(monkeypatch, doc, message):
    # Each mutation used to load. Eight ran to a wrong answer (a dropped side
    # to {000000: 0.5, 000111: 0.5}, a NaN coefficient to {}), four to the
    # right one, two stopped with a bare KeyError, and a 5-entry coefficient
    # vector only in the knit, after every fragment had run. Each is now
    # refused before any instance runs.
    refuse_instances(monkeypatch)
    with pytest.raises(CodegenError, match=f"^{re.escape(message)}$"):
        run_program(program_from_json(json.dumps(doc)))


PASS_ORDERS = (("cc", "dr", "qr"), ("cc", "dr"), ("cc", "qr"), ("dr", "cc", "qr"),
               ("cc",), ("dr", "qr"), ("qr",), ("qr", "cc"))


def test_random_pipelines_load_back_and_knit_to_the_uncut_output():
    # 700 seeded random circuits of 3-8 qubits, a random subset measured at
    # the end into shuffled clbits, under random pass orders, s, b (at most
    # 4) and pass seeds: each program loads back from JSON to the same text
    # and knits to the uncut statevector output, unless the pipeline cannot
    # reach the width. 559 knit, 282 of them with virtual gates; the sweep
    # took about 3 s on a 2-vCPU host.
    rng = random.Random(2400)
    knitted = cut = 0
    for _ in range(700):
        n = rng.randint(3, 8)
        c = random_circuit(rng, n, rng.randint(n, 3 * n), two_qubit_prob=0.6)
        measured = rng.sample(range(n), rng.randint(1, n))
        c.num_clbits = len(measured)
        for clbit, q in enumerate(measured):
            c.add("measure", q, clbit=clbit)
        cfg = PassConfig(rng.randint(2, n), rng.randint(0, 4), seed=rng.randrange(3))
        try:
            vc = run_pipeline(from_circuit(c), cfg, rng.choice(PASS_ORDERS))
        except (WidthUnreachableError, WireSplitError):
            continue
        text = program_to_json(generate(vc))
        back = program_from_json(text)
        assert program_to_json(back) == text
        assert linf_distance(run_program(back), run_exact(c)) <= 1e-8
        knitted += 1
        cut += back.num_virtual_gates > 0
    assert knitted >= 500 and cut >= 250


def test_program_json_is_deterministic():
    prog = split_bell_program()
    assert program_to_json(prog) == program_to_json(split_bell_program())
