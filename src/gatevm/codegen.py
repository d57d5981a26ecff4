"""Compiler backend: extract fragments as parameterized circuits.

Each fragment becomes a circuit over its own wires with placeholder slots
where virtual-gate sides act; each placeholder carries the six candidate
local actions it can be instantiated with, which the JSON form lists as
``param_vectors`` in placeholder position order. A light peephole pass
(self-inverse cancellation and rotation merging, with placeholders acting
as barriers) runs once per fragment.
"""
from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import Circuit, Instruction
from .decomp import LocalAction, decomposition_for
from .qasm import emit_qasm, parse_qasm
from .vc import Gate2, VirtualCircuit, VirtualSide, element_wires

_SELF_INVERSE = frozenset({"h", "x", "y", "z", "cx", "cz"})
_MERGEABLE = frozenset({"rx", "ry", "rz", "rzz"})
_OPTIMIZABLE = _SELF_INVERSE | _MERGEABLE
_ANGLE_EPS = 1e-12


class CodegenError(RuntimeError):
    pass


@dataclass(frozen=True)
class Placeholder:
    """A parameterized slot for one side of a virtual gate, with the six
    local actions it takes, one per decomposition index."""

    gate_id: int
    side: str
    qubit: int  # fragment-local qubit
    actions: tuple[LocalAction, ...]


@dataclass
class ParamCircuit:
    """A fragment circuit with placeholder gates.

    ``elements`` interleaves concrete instructions and placeholders.
    ``clbit_map`` and ``qubit_map`` translate local output bits and wires
    back to the original circuit.
    """

    num_qubits: int
    elements: list[Instruction | Placeholder]
    clbit_map: list[int]
    qubit_map: list[int]
    fragment_index: int
    name: str = "fragment"

    @property
    def placeholders(self) -> list[tuple[int, int, str]]:
        """Ordered (position, virtual-gate id, side) triples."""
        return [(i, el.gate_id, el.side) for i, el in enumerate(self.elements)
                if isinstance(el, Placeholder)]

    def touching_gates(self, gate_order: list[int]) -> list[int]:
        """Virtual gates with at least one side in this fragment, in global
        gate order."""
        mine = {el.gate_id for el in self.elements if isinstance(el, Placeholder)}
        return [g for g in gate_order if g in mine]

    @property
    def param_vectors(self) -> list[tuple[LocalAction, ...]]:
        """Each placeholder's actions, in element order."""
        return [el.actions for el in self.elements if isinstance(el, Placeholder)]

    @property
    def num_clbits(self) -> int:
        return len(self.clbit_map)

    def lowered(self, place: Callable[[Placeholder], Iterable]) -> Circuit:
        """This fragment as a circuit whose placeholders are each replaced
        by the steps ``place`` returns for it."""
        steps = [step for el in self.elements for step in
                 (place(el) if isinstance(el, Placeholder) else (el,))]
        return Circuit(self.num_qubits, steps, name=self.name,
                       num_clbits=self.num_clbits)

    def instantiate(self, assignment: dict[int, int]) -> Circuit:
        """Concrete circuit for one choice of decomposition index per gate."""
        return self.lowered(lambda el: el.actions[assignment[el.gate_id]]
                            .to_instructions(el.qubit)).validate()


@dataclass
class CompiledProgram:
    """Parameterized fragments plus the data the runtime needs to knit."""

    fragments: list[ParamCircuit]
    coeff_vectors: dict[int, np.ndarray]
    gate_order: list[int]
    num_clbits: int
    vgate_info: dict[int, tuple[str, float | None]] = field(default_factory=dict)
    name: str = "program"

    @property
    def num_virtual_gates(self) -> int:
        return len(self.gate_order)


def generate(vc: VirtualCircuit) -> CompiledProgram:
    """Extract one parameterized circuit per fragment.

    For a virtual gate spanning two fragments, side A lands in the first
    qubit's fragment and side B in the second's; a gate internal to one
    fragment contributes both placeholders there but is still driven by a
    single decomposition index.
    """
    fragments = vc.fragments
    wire_to_frag: dict[int, int] = {}
    local_wire: dict[int, int] = {}
    for frag in fragments:
        for i, w in enumerate(frag.wires):
            if wire_to_frag.setdefault(w, frag.index) != frag.index:
                raise CodegenError(f"fragments {wire_to_frag[w]} and "
                                   f"{frag.index} share wire {w}")
            local_wire[w] = i

    # Each fragment's output bits, sorted, and each bit's local index; a bit
    # read twice in one fragment maps to its last index.
    clbit_maps: list[list[int]] = [[] for _ in fragments]
    for x in vc.instructions:
        if isinstance(x, Instruction) and x.kind == "measure":
            clbit_maps[wire_to_frag[x.qubits[0]]].append(x.clbit)
    clbit_maps = [sorted(m) for m in clbit_maps]
    local_clbit = [{c: i for i, c in enumerate(m)} for m in clbit_maps]

    elements: list[list[Instruction | Placeholder]] = [[] for _ in fragments]
    for x in vc.instructions:
        if isinstance(x, VirtualSide):
            entries = vc.virtual_gates[x.gate_id].decomposition.entries
            elements[wire_to_frag[x.qubit]].append(Placeholder(
                x.gate_id, x.side, local_wire[x.qubit],
                tuple(e.a if x.side == "a" else e.b for e in entries)))
        elif isinstance(x, Gate2):
            f = wire_to_frag[x.qubits[0]]
            if wire_to_frag[x.qubits[1]] != f:
                raise CodegenError("real two-qubit gate spans two fragments")
            elements[f].append(x.to_instruction().remap(local_wire))
        elif x.kind == "measure":
            f = wire_to_frag[x.qubits[0]]
            elements[f].append(replace(x, qubits=(local_wire[x.qubits[0]],),
                                       clbit=local_clbit[f][x.clbit]))
        else:
            f = wire_to_frag[x.qubits[0]]
            elements[f].append(x.remap(local_wire))

    param_circuits = [peephole_optimize(ParamCircuit(
        num_qubits=len(frag.wires),
        elements=elements[frag.index],
        clbit_map=clbit_maps[frag.index],
        qubit_map=list(frag.wires),
        fragment_index=frag.index,
        name=f"{vc.name}_f{frag.index}",
    )) for frag in fragments]

    coeffs = {gid: vg.decomposition.coefficients()
              for gid, vg in vc.virtual_gates.items()}
    info = {gid: (vg.kind, vg.angle) for gid, vg in vc.virtual_gates.items()}
    return CompiledProgram(param_circuits, coeffs, list(vc.virtual_gates),
                           vc.num_clbits, info, name=vc.name)


def peephole_optimize(pc: ParamCircuit) -> ParamCircuit:
    """Cancel adjacent self-inverse pairs and merge same-axis rotations.

    Two operations are adjacent when no other element touches any of their
    wires in between; placeholders, measurements, resets and barriers block
    optimization on their wires.

    One sweep keeps, per wire, the last kept element (its top). A new
    operation meets its partner when one element is the top on all of its
    wires. Removing that partner restores the tops it covered, so pairs
    exposed by a removal cancel in the same sweep; a merged rotation stays
    at the partner's position.
    """
    els: list = []  # kept elements; None where a later one cancelled it
    covered: list[dict[int, int | None]] = []  # per element: tops it covered
    top: dict[int, int | None] = {}
    for el in pc.elements:
        wires = element_wires(el)
        j = top.get(wires[0])
        other = els[j] if j is not None else None
        if (not isinstance(el, Placeholder) and el.kind in _OPTIMIZABLE
                and isinstance(other, Instruction) and other.kind == el.kind
                and all(top.get(w) == j for w in wires)
                and (other.qubits == el.qubits or
                     (el.kind in ("rzz", "cz") and
                      set(other.qubits) == set(el.qubits)))):
            total = None if el.kind in _SELF_INVERSE else other.angle + el.angle
            if total is None or abs(total) < _ANGLE_EPS:
                els[j] = None
                top.update(covered[j])
            else:
                els[j] = replace(other, angle=total)
            continue
        covered.append({w: top.get(w) for w in wires})
        top.update((w, len(els)) for w in wires)
        els.append(el)
    return replace(pc, elements=[el for el in els if el is not None])


# ---------------------------------------------------------------------------
# serialization

def _action_to_json(action: LocalAction) -> list[dict]:
    return [{"kind": op.kind, **({"angle": op.angle} if op.angle is not None else {})}
            for op in action.ops]


def program_to_json(program: CompiledProgram) -> str:
    frags = []
    for pc in program.fragments:
        frags.append({
            "qasm": emit_qasm(pc.lowered(lambda el: ())),
            "placeholders": [
                {"position": i, "gate": el.gate_id, "side": el.side,
                 "qubit": el.qubit}
                for i, el in enumerate(pc.elements)
                if isinstance(el, Placeholder)],
            "param_vectors": [
                [_action_to_json(a) for a in vec] for vec in pc.param_vectors],
            "clbit_map": pc.clbit_map,
            "qubit_map": pc.qubit_map,
            "fragment_index": pc.fragment_index,
            "name": pc.name,
        })
    doc = {
        "name": program.name,
        "num_clbits": program.num_clbits,
        "gate_order": program.gate_order,
        "coeff_vectors": {str(g): list(map(float, v))
                          for g, v in program.coeff_vectors.items()},
        "virtual_gates": {str(g): {"kind": k, **({"angle": a} if a is not None else {})}
                          for g, (k, a) in program.vgate_info.items()},
        "fragments": frags,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def program_from_json(text: str) -> CompiledProgram:
    """Load a program written by :func:`program_to_json`.

    Each gate's decomposition is derived from its kind and angle; the
    placeholders take their actions from it, and the file's coefficient and
    parameter vectors must equal it. A file that lists a gate twice or apart
    from its fields, names an unknown gate or side, gives a gate other than
    one side of each kind, or records a placeholder where it does not land
    is refused with :class:`CodegenError`.
    """
    doc = json.loads(text)
    order = list(doc["gate_order"])
    if len(set(order)) != len(order):
        raise CodegenError(f"gate_order {order} repeats a gate")
    for name in ("virtual_gates", "coeff_vectors"):
        gates = sorted(map(int, doc[name]))
        if gates != sorted(order):
            raise CodegenError(f"gate_order {order} does not list the gates of "
                               f"{name}, {gates}")
    decomps = {int(g): decomposition_for(d["kind"], d.get("angle"))
               for g, d in doc["virtual_gates"].items()}
    coeffs = {g: dec.coefficients() for g, dec in decomps.items()}
    for g, v in doc["coeff_vectors"].items():
        if v != list(map(float, coeffs[int(g)])):
            raise CodegenError(f"coeff_vectors of gate {g} differ from its "
                               f"decomposition's coefficients")
    sides: dict[int, list[str]] = {g: [] for g in order}
    fragments = []
    for fd in doc["fragments"]:
        where = f"fragment {fd['fragment_index']} ({fd['name']})"
        base = parse_qasm(fd["qasm"], name=fd["name"])
        placeholders = sorted(fd["placeholders"], key=lambda p: p["position"])
        if len(placeholders) != len(fd["param_vectors"]):
            raise CodegenError(
                f"{where} has {len(placeholders)} placeholders but "
                f"{len(fd['param_vectors'])} parameter vectors")
        elements: list[Instruction | Placeholder] = list(base.instructions)
        # The i-th vector belongs to the i-th placeholder in position order.
        for i, (ph, vec) in enumerate(zip(placeholders, fd["param_vectors"])):
            gate, side = ph["gate"], ph["side"]
            if gate not in decomps:
                raise CodegenError(f"{where} has a placeholder of unknown gate {gate}")
            if side not in ("a", "b"):
                raise CodegenError(f"{where} has a placeholder side {side!r}, "
                                   f"not 'a' or 'b'")
            actions = tuple(e.a if side == "a" else e.b
                            for e in decomps[gate].entries)
            if vec != [_action_to_json(a) for a in actions]:
                raise CodegenError(f"{where} param_vectors[{i}] differ from side "
                                   f"{side} of gate {gate}'s decomposition")
            sides[gate].append(side)
            elements.insert(ph["position"],
                            Placeholder(gate, side, ph["qubit"], actions))
        landed = [i for i, el in enumerate(elements) if isinstance(el, Placeholder)]
        if landed != [ph["position"] for ph in placeholders]:
            raise CodegenError(f"{where} records placeholder positions "
                               f"{[ph['position'] for ph in placeholders]}, "
                               f"but they land at {landed}")
        fragments.append(ParamCircuit(
            num_qubits=base.num_qubits,
            elements=elements,
            clbit_map=list(fd["clbit_map"]),
            qubit_map=list(fd["qubit_map"]),
            fragment_index=fd["fragment_index"],
            name=fd["name"],
        ))
    for g, found in sides.items():
        if sorted(found) != ["a", "b"]:
            raise CodegenError(f"gate {g} has placeholder sides {sorted(found)}, "
                               f"not one 'a' and one 'b'")
    info = {int(g): (d["kind"], d.get("angle"))
            for g, d in doc["virtual_gates"].items()}
    return CompiledProgram(fragments, coeffs, order, doc["num_clbits"], info,
                           name=doc["name"])
