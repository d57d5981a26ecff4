"""Virtual-circuit IR: virtual gates, fragments, and the analysis graphs.

A :class:`VirtualCircuit` extends the instruction stream with virtual
gates, each realized as two independently schedulable per-qubit sides. The
stream, the gates' original qubits, the virtual gates and the qubits' wires
are the only state. Both graphs are derived from them on request: the qubit
graph (qubits weighted by the number of real two-qubit gates between them),
whose connected components are the fragments, and the operation graph (a
DAG of real two-qubit gates linked by direct qubit dependencies) for the
DOT dump (:func:`operation_graph`). Qubit dependencies come from one
forward sweep over the stream (:func:`dependency_masks`).

Instructions reference *wires*. Initially wire i hosts qubit i; the qubit
reuse pass may later merge several qubits onto one wire. The graphs always
speak about original qubits.

A VirtualCircuit is mutated by one caller at a time; concurrent reads are
fine. Stream elements are frozen, so a copy shares them and owns only its
containers.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import networkx as nx

from .circuit import Circuit, GATES_2Q, Instruction, instr
from .decomp import GateDecomposition, decomposition_for


class VcError(ValueError):
    """Raised for invalid virtualization requests or unsupported inputs."""


@dataclass(frozen=True)
class Gate2:
    """A real two-qubit gate in the stream; ``qubits`` are current wires."""

    id: int
    kind: str
    qubits: tuple[int, int]
    angle: float | None = None

    def to_instruction(self) -> Instruction:
        return instr(self.kind, *self.qubits, angle=self.angle)


@dataclass(frozen=True)
class VirtualSide:
    """One side of a virtual gate, acting on a single wire."""

    gate_id: int
    side: str  # "a" or "b"
    qubit: int  # current wire


@dataclass(frozen=True)
class VirtualGate:
    id: int
    kind: str
    qubits: tuple[int, int]  # original qubits (side a, side b)
    angle: float | None
    decomposition: GateDecomposition


@dataclass(frozen=True)
class Fragment:
    """A maximal set of qubits connected only by real two-qubit gates."""

    index: int
    qubits: tuple[int, ...]
    wires: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.wires)


VInstruction = Instruction | Gate2 | VirtualSide


def element_wires(x) -> tuple[int, ...]:
    """Wires a stream element acts on. Single-wire elements (a
    :class:`VirtualSide`, or a codegen placeholder) carry one ``qubit``."""
    if isinstance(x, (Instruction, Gate2)):
        return x.qubits
    return (x.qubit,)


@dataclass
class VirtualCircuit:
    """The IR of one circuit; its fields are all its state, and its graphs
    are derived. A :meth:`copy` shares the frozen stream elements."""

    num_qubits: int
    num_clbits: int
    instructions: list[VInstruction]
    gate_qubits: dict[int, tuple[int, int]]  # gate id -> original qubits
    # creation order, which is the program's gate order
    virtual_gates: dict[int, VirtualGate] = field(default_factory=dict)
    wire_of: dict[int, int] = field(default_factory=dict)  # qubit -> wire
    name: str = "circuit"

    @property
    def qubit_graph(self) -> nx.Graph:
        """Qubit pairs weighted by their real gates, built on each read: a
        pair enters at its first gate in id order, real or virtual, and is
        left out when all its gates are virtual."""
        weights: dict[tuple[int, int], int] = {}
        for gid, (qa, qb) in sorted(self.gate_qubits.items()):
            pair = (min(qa, qb), max(qa, qb))
            weights[pair] = weights.get(pair, 0) + (gid not in self.virtual_gates)
        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_qubits))
        graph.add_weighted_edges_from((u, v, w) for (u, v), w in weights.items() if w)
        return graph

    @property
    def fragments(self) -> list[Fragment]:
        comps = sorted(nx.connected_components(self.qubit_graph), key=min)
        out = []
        for i, comp in enumerate(comps):
            qubits = tuple(sorted(comp))
            wires = tuple(sorted({self.wire_of[q] for q in qubits}))
            out.append(Fragment(i, qubits, wires))
        return out

    def real_gates(self) -> list[Gate2]:
        return [x for x in self.instructions if isinstance(x, Gate2)]

    def num_real_gates(self) -> int:
        return sum(1 for x in self.instructions if isinstance(x, Gate2))

    def max_fragment_width(self) -> int:
        return max((f.width for f in self.fragments), default=0)

    def copy(self) -> "VirtualCircuit":
        return replace(
            self, instructions=list(self.instructions),
            gate_qubits=dict(self.gate_qubits),
            virtual_gates=dict(self.virtual_gates), wire_of=dict(self.wire_of))


def from_circuit(c: Circuit, name: str | None = None) -> VirtualCircuit:
    """Convert a circuit into the IR in one traversal.

    Measurements must be terminal per qubit and are re-appended at the end
    of the stream; a circuit without measurements is read as measuring every
    qubit. Resets are rejected: the source model measures at the end only.
    """
    c.validate()
    last_op: dict[int, int] = {}
    for i, ins in enumerate(c.instructions):
        if ins.kind == "barrier":
            continue
        for q in ins.qubits:
            last_op[q] = i

    measured: dict[int, int] = {}
    gates: list[Instruction] = []
    for i, ins in enumerate(c.instructions):
        if ins.kind == "reset":
            raise VcError("reset instructions are not part of the input model")
        if ins.kind == "measure":
            q = ins.qubits[0]
            if ins.sign:
                raise VcError("sign-marked measurements are runtime artifacts")
            if last_op[q] != i:
                raise VcError(f"mid-circuit measurement on qubit {q}")
            if q in measured:
                raise VcError(f"qubit {q} measured twice")
            measured[q] = ins.clbit if ins.clbit is not None else q
            continue
        gates.append(ins)

    if measured:
        num_clbits = max(c.num_clbits, max(measured.values()) + 1)
    else:
        measured = {q: q for q in range(c.num_qubits)}
        num_clbits = c.num_qubits

    gate_qubits: dict[int, tuple[int, int]] = {}
    instructions: list[VInstruction] = []
    for ins in gates:
        if ins.kind in GATES_2Q:
            gid = len(gate_qubits)
            gate_qubits[gid] = ins.qubits
            instructions.append(Gate2(gid, ins.kind, ins.qubits, ins.angle))
        else:
            instructions.append(ins)

    for q in sorted(measured, key=lambda q: measured[q]):
        instructions.append(instr("measure", q, clbit=measured[q]))

    return VirtualCircuit(
        num_qubits=c.num_qubits,
        num_clbits=num_clbits,
        instructions=instructions,
        gate_qubits=gate_qubits,
        wire_of={q: q for q in range(c.num_qubits)},
        name=name or c.name,
    )


def virt_gate(vc: VirtualCircuit, gate_id: int) -> VirtualCircuit:
    """Virtualize one real two-qubit gate in place.

    The instruction is replaced by the gate's two sides and the gate is
    recorded as virtual, so it leaves both derived graphs: its pair's
    qubit-graph weight drops by one, and the operation graph's dependencies
    on its qubits pass over it.
    """
    if gate_id in vc.virtual_gates:
        raise VcError(f"gate {gate_id} is already virtual")
    if gate_id not in vc.gate_qubits:
        raise VcError(f"unknown gate id {gate_id}")
    pos = next((i for i, x in enumerate(vc.instructions)
                if isinstance(x, Gate2) and x.id == gate_id), None)
    if pos is None:  # pragma: no cover - ids are only removed by this path
        raise VcError(f"gate {gate_id} not present in the stream")
    gate = vc.instructions[pos]
    vc.virtual_gates[gate_id] = VirtualGate(
        gate_id, gate.kind, vc.gate_qubits[gate_id], gate.angle,
        decomposition_for(gate.kind, gate.angle))
    vc.instructions[pos:pos + 1] = [
        VirtualSide(gate_id, "a", gate.qubits[0]),
        VirtualSide(gate_id, "b", gate.qubits[1]),
    ]
    return vc


def virt_between(vc: VirtualCircuit, q_i: int, q_j: int) -> VirtualCircuit:
    """Virtualize every real two-qubit gate acting on the pair (q_i, q_j)."""
    gate_ids = [x.id for x in vc.instructions if isinstance(x, Gate2)
                and set(vc.gate_qubits[x.id]) == {q_i, q_j}]
    if not gate_ids:
        raise VcError(f"no qubit-graph edge between {q_i} and {q_j}")
    for gid in gate_ids:
        virt_gate(vc, gid)
    return vc


def dependency_masks(ops) -> dict[int, int]:
    """Per wire, a bitmask of the wires its content depends on, its own bit
    included. ``ops`` gives each operation's wires in execution order; an
    operation ORs the masks of its wires and stores the result on each."""
    dep: dict[int, int] = {}
    for wires in ops:
        mask = 0
        for w in wires:
            mask |= dep.get(w, 0) | (1 << w)
        for w in wires:
            dep[w] = mask
    return dep


def dependency_pairs(gates) -> set[tuple[int, int]]:
    """Ordered pairs (q_i, q_j) where q_i depends on q_j, given the qubit
    pairs of two-qubit gates in execution order.

    q_i depends on q_j when some gate acting on q_i follows, through a chain
    of gates sharing a qubit, some gate acting on q_j (a gate acting on both
    qubits counts).
    """
    pairs: set[tuple[int, int]] = set()
    for q, mask in dependency_masks(gates).items():
        mask &= ~(1 << q)
        while mask:
            low = mask & -mask
            pairs.add((q, low.bit_length() - 1))
            mask ^= low
    return pairs


def qubit_dependencies(vc: VirtualCircuit) -> set[tuple[int, int]]:
    """:func:`dependency_pairs` of the real gates' original qubits, in stream
    order. A virtual gate's sides are not real gates, so they contribute
    nothing."""
    return dependency_pairs(vc.gate_qubits[x.id] for x in vc.instructions
                            if isinstance(x, Gate2))


def operation_graph(vc: VirtualCircuit) -> nx.MultiDiGraph:
    """The operation graph, built from the stream: each real two-qubit gate
    is linked to the last real gate before it on each of its original
    qubits, with that qubit as edge key and ``qubit`` attribute."""
    graph = nx.MultiDiGraph()
    last_gate: dict[int, int] = {}
    for x in vc.instructions:
        if isinstance(x, Gate2):
            graph.add_node(x.id)
            for q in vc.gate_qubits[x.id]:
                if q in last_gate:
                    graph.add_edge(last_gate[q], x.id, key=q, qubit=q)
                last_gate[q] = x.id
    return graph


def op_graph_dot(vc: VirtualCircuit) -> str:
    """Graphviz DOT rendering of the operation graph."""
    graph = operation_graph(vc)
    kinds = {x.id: x.kind for x in vc.instructions if isinstance(x, Gate2)}
    lines = ["digraph op_graph {"]
    for gid in sorted(graph.nodes):
        qa, qb = vc.gate_qubits[gid]
        lines.append(f'  g{gid} [label="g{gid}: {kinds[gid]}({qa},{qb})"];')
    for u, v, key in sorted(graph.edges(keys=True)):
        lines.append(f'  g{u} -> g{v} [label="q{key}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def qubit_graph_dot(vc: VirtualCircuit) -> str:
    """Graphviz DOT rendering of the qubit graph."""
    lines = ["graph qubit_graph {"]
    for q in range(vc.num_qubits):
        lines.append(f'  q{q};')
    for u, v, data in sorted(vc.qubit_graph.edges(data=True)):
        lines.append(f'  q{u} -- q{v} [label="{data["weight"]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
