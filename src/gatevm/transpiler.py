"""Qubit mapping, SWAP routing and evaluation metrics.

Routing is deliberately simple: a greedy initial layout that matches the
circuit's interaction graph onto the coupling graph, then shortest-path
SWAP insertion (each SWAP materialized as three CX). Comparisons between
cut and uncut circuits both go through this same transpiler.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import networkx as nx

from .circuit import Circuit, GATES_2Q, Instruction, instr
from .qpu import QpuModel
from .sim import clip_and_renormalize


class TranspileError(ValueError):
    pass


@dataclass
class PhysicalCircuit:
    """A routed circuit whose two-qubit gates all sit on coupling edges."""

    circuit: Circuit
    layout: dict[int, int]        # initial logical -> physical
    final_layout: dict[int, int]  # logical -> physical after routing
    inserted_swaps: int


def _interaction_graph(c: Circuit) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(c.num_qubits))
    for ins in c.instructions:
        if ins.kind in GATES_2Q:
            a, b = ins.qubits
            if g.has_edge(a, b):
                g[a][b]["weight"] += 1
            else:
                g.add_edge(a, b, weight=1)
    return g


CouplingKey = tuple[int, tuple[tuple[int, int], ...]]


def coupling_key(qpu: QpuModel) -> CouplingKey:
    """The QPU's qubit count and sorted, normalized coupling edges: all that
    routing reads of a QPU. Computed afresh on each call, so a QPU whose
    ``coupling`` list changed gets the tables of its new map; an edge out of
    range or a self-loop raises QpuError."""
    qpu.check_coupling()
    return qpu.num_qubits, tuple(sorted({(min(a, b), max(a, b))
                                         for a, b in qpu.coupling}))


class _CouplingTables:
    """What routing reads of one coupling map: its graph, the hop distances
    between every connected pair, each qubit's neighbors, the three CX of a
    SWAP on each coupled pair, and a memo of shortest paths."""

    def __init__(self, key: CouplingKey):
        num_qubits, edges = key
        self.num_qubits = num_qubits
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(num_qubits))
        self.graph.add_edges_from(edges)
        self.distances = dict(nx.all_pairs_shortest_path_length(self.graph))
        self.neighbors = tuple(frozenset(self.graph[p]) for p in range(num_qubits))
        self.swaps = {(pa, pb): (instr("cx", pa, pb), instr("cx", pb, pa),
                                 instr("cx", pa, pb))
                      for a, b in edges for pa, pb in ((a, b), (b, a))}
        self._paths: dict[tuple[int, int], tuple[int, ...]] = {}

    def path(self, a: int, b: int) -> tuple[int, ...]:
        found = self._paths.get((a, b))
        if found is None:
            found = self._paths[a, b] = tuple(nx.shortest_path(self.graph, a, b))
        return found


@functools.lru_cache(maxsize=32)
def _coupling_tables(key: CouplingKey) -> _CouplingTables:
    return _CouplingTables(key)


def _greedy_layout(c: Circuit, tables: _CouplingTables) -> dict[int, int]:
    """Greedy subgraph matching of the interaction graph onto the coupling
    graph: highest-degree logical qubits first, each placed to maximize
    adjacency to its already-placed neighbors, preferring close spots with
    the most remaining room. Fully deterministic."""
    inter = _interaction_graph(c)
    order = sorted(inter.nodes,
                   key=lambda q: (-sum(d["weight"] for d in inter[q].values()), q))
    layout: dict[int, int] = {}
    free = set(range(tables.num_qubits))
    for logical in order:
        placed_nb = [layout[nb] for nb in inter[logical] if nb in layout]
        best_score = None
        best = None
        for p in sorted(free):
            near, dist_from = tables.neighbors[p], tables.distances[p]
            adjacency = sum(1 for pn in placed_nb if pn in near)
            dist = sum(dist_from.get(pn, tables.num_qubits) for pn in placed_nb)
            score = (adjacency, -dist, len(near & free), -p)
            if best_score is None or score > best_score:
                best_score, best = score, p
        layout[logical] = best
        free.discard(best)
    return layout


def map_and_route(c: Circuit, qpu: QpuModel, seed: int = 0) -> PhysicalCircuit:
    """Map a circuit onto a QPU and insert SWAPs (3 CX each) for two-qubit
    gates on non-adjacent qubits. Fully deterministic: ``seed`` is accepted
    for a seeded router but read by nothing, so the tables cached per
    coupling map leave it out.

    The routed circuit always ends with explicit measurements for the
    logical outputs (the input's measurements remapped, or every logical
    qubit when the input has none), so its output distribution is directly
    comparable with the unrouted circuit's.
    """
    c.validate()
    if c.num_qubits > qpu.num_qubits:
        raise TranspileError(
            f"circuit needs {c.num_qubits} qubits, QPU {qpu.name} has "
            f"{qpu.num_qubits}")
    tables = _coupling_tables(coupling_key(qpu))
    neighbors = tables.neighbors
    layout = _greedy_layout(c, tables)

    l2p = dict(layout)
    p2l = {p: l for l, p in l2p.items()}
    out: list[Instruction] = []
    swaps = 0
    has_measure = any(ins.kind == "measure" for ins in c.instructions)

    for ins in c.instructions:
        if ins.kind in GATES_2Q:
            a, b = (l2p[q] for q in ins.qubits)
            if b not in neighbors[a]:
                if b not in tables.distances[a]:
                    raise TranspileError(
                        f"qubits {ins.qubits} are not connected on {qpu.name}")
                for pb in tables.path(a, b)[1:-1]:
                    # SWAP the first qubit's content one hop along the path.
                    pa = l2p[ins.qubits[0]]
                    out.extend(tables.swaps[pa, pb])
                    swaps += 1
                    la, lb = p2l.get(pa), p2l.get(pb)
                    if la is not None:
                        l2p[la] = pb
                    if lb is not None:
                        l2p[lb] = pa
                    p2l[pa], p2l[pb] = lb, la
                a, b = (l2p[q] for q in ins.qubits)
            out.append(Instruction(ins.kind, (a, b), ins.angle))
        else:
            out.append(ins.remap(l2p))

    if not has_measure:
        for q in range(c.num_qubits):
            out.append(instr("measure", l2p[q], clbit=q))
        num_clbits = c.num_qubits
    else:
        num_clbits = c.num_clbits
    routed = Circuit(qpu.num_qubits, out, name=f"{c.name}@{qpu.name}",
                     num_clbits=num_clbits).validate()
    return PhysicalCircuit(routed, layout, dict(l2p), swaps)


# ---------------------------------------------------------------------------
# metrics

def depth(c: Circuit) -> int:
    """Longest chain in per-qubit precedence; barriers are transparent."""
    level: dict[int, int] = {}
    best = 0
    for ins in c.instructions:
        if ins.kind == "barrier":
            continue
        d = max((level.get(q, 0) for q in ins.qubits), default=0) + 1
        for q in ins.qubits:
            level[q] = d
        best = max(best, d)
    return best


def cnot_count(c: Circuit) -> int:
    """Number of CX gates (inserted SWAPs already count as three each)."""
    return sum(1 for ins in c.instructions if ins.kind == "cx")


def esp(pc: PhysicalCircuit | Circuit, qpu: QpuModel) -> float:
    """Estimated success probability: product of (1 - e_op) over every gate,
    measurement and reset; barriers are free."""
    c = pc.circuit if isinstance(pc, PhysicalCircuit) else pc
    factors: dict[tuple[str, int], float] = {}
    value = 1.0
    for ins in c.instructions:
        if ins.kind == "barrier":
            continue
        op = ins.kind, len(ins.qubits)
        factor = factors.get(op)
        if factor is None:
            factor = factors[op] = 1.0 - qpu.rate_for(*op)
        value *= factor
    return value


def _as_prob_dict(dist) -> dict[int, float]:
    if hasattr(dist, "entries"):
        return dict(dist.entries)
    return dict(dist)


def hellinger_fidelity(p, q, clip: bool = True) -> float:
    """(1 - H^2)^2 with H the Hellinger distance between two distributions.

    Inputs are sparse maps (or signed distributions). With ``clip`` enabled,
    negative quasi-probability mass is clipped to zero and the distribution
    renormalized; otherwise inputs must be non-negative and sum to one
    within 1e-6.
    """
    dists = []
    for d in (p, q):
        entries = _as_prob_dict(d)
        if clip:
            dists.append(clip_and_renormalize(entries, TranspileError))
        else:
            if any(v < 0.0 for v in entries.values()):
                raise TranspileError("negative probability with clipping disabled")
            if abs(sum(entries.values()) - 1.0) > 1e-6:
                raise TranspileError("distribution does not sum to 1")
            dists.append(entries)
    a, b = dists
    keys = set(a) | set(b)
    h_sq = 0.5 * sum((math.sqrt(a.get(k, 0.0)) - math.sqrt(b.get(k, 0.0))) ** 2
                     for k in keys)
    return (1.0 - h_sq) ** 2
