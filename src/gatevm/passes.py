"""Optimization passes: circuit cutter, dependency reducer, qubit reuser.

Each structural pass exists in an exact variant (exhaustive search with a
hard instance-size bound, used as ground truth) and a heuristic variant.
Passes are pure with respect to their input: they copy the IR and
return the optimized copy. A shared virtualization budget limits the total
number of gates virtualized across the pipeline.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import combinations

import networkx as nx
import numpy as np
from networkx.algorithms.community import kernighan_lin_bisection

from .circuit import instr
from .vc import (Gate2, VirtualCircuit, VirtualSide, dependency_pairs,
                 element_wires, virt_between, virt_gate)

EXACT_CUT_MAX_QUBITS = 14
EXACT_DR_MAX_GATES = 16
KL_RESTARTS = 10


class PassError(RuntimeError):
    """Base class for optimization-pass failures."""


class InstanceTooLargeError(PassError):
    """The instance exceeds an exact solver's exhaustive-search bound."""


class WidthUnreachableError(PassError):
    """Qubit reuse cannot bring a fragment down to the target width."""


class WireSplitError(PassError):
    """A pass after qubit reuse put qubits that share a wire into different
    fragments, so that no fragment circuit could own the wire."""


@dataclass(frozen=True)
class PassConfig:
    """Shared pass parameters: target width, virtualization budget, RNG seed."""

    max_fragment_size: int
    budget: int
    seed: int = 0
    exact: bool = False

    def __post_init__(self):
        if self.max_fragment_size < 1:
            raise ValueError("max_fragment_size must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")


@dataclass(frozen=True)
class CutSolution:
    """A qubit-graph partition: fragment assignment plus its cut cost."""

    assignment: dict[int, int]
    cut_edges: tuple[tuple[int, int], ...]
    cost: int
    balance: int


def _partition_stats(graph: nx.Graph, assignment: dict[int, int]) -> CutSolution:
    cut_edges = tuple(sorted(
        (min(u, v), max(u, v)) for u, v in graph.edges
        if assignment[u] != assignment[v]))
    cost = sum(graph[u][v]["weight"] for u, v in cut_edges)
    sizes: dict[int, int] = {}
    for part in assignment.values():
        sizes[part] = sizes.get(part, 0) + 1
    balance = sum(n * n for n in sizes.values())
    return CutSolution(dict(assignment), cut_edges, cost, balance)


def _bb_partition(graph: nx.Graph, vertices: list[int], s: int,
                  cost_bound: int) -> dict[int, int]:
    """Minimum-weight partition of one connected component into parts of at
    most ``s`` vertices; ties minimize the sum of squared part sizes, then
    the first (lexicographic) assignment in restricted-growth order wins.
    """
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    # Weighted edges to lower-indexed vertices, precomputed once.
    neighbors = []
    for i, v in enumerate(vertices):
        neighbors.append([(index[u], data["weight"])
                          for u, data in graph[v].items() if index[u] < i])

    best_cost = cost_bound
    best_balance = float("inf")
    best_assign: list[int] | None = None
    part_of = [0] * n
    part_sizes: list[int] = []

    def recurse(i: int, cost: int, balance: int) -> None:
        nonlocal best_cost, best_balance, best_assign
        if cost > best_cost:
            return
        if i == n:
            if cost < best_cost or (cost == best_cost and balance < best_balance):
                best_cost, best_balance = cost, balance
                best_assign = part_of[:]
            return
        remaining = n - i
        if cost == best_cost and balance + remaining >= best_balance:
            return
        max_part = len(part_sizes)
        for j in range(max_part + 1):
            if j < max_part:
                if part_sizes[j] >= s:
                    continue
                delta = sum(w for u, w in neighbors[i] if part_of[u] != j)
                part_of[i] = j
                part_sizes[j] += 1
                recurse(i + 1, cost + delta,
                        balance + 2 * (part_sizes[j] - 1) + 1)
                part_sizes[j] -= 1
            else:
                delta = sum(w for _, w in neighbors[i])
                part_of[i] = j
                part_sizes.append(1)
                recurse(i + 1, cost + delta, balance + 1)
                part_sizes.pop()

    recurse(0, 0, 0)
    if best_assign is None:  # bound from the heuristic was already optimal
        raise AssertionError("branch-and-bound found no assignment")
    return {v: best_assign[i] for i, v in enumerate(vertices)}


def solve_cut_exact(graph: nx.Graph, s: int, seed: int = 0) -> CutSolution:
    """Exhaustively optimal cut of a weighted qubit graph.

    Independent components never gain from merging or splitting, so each
    oversized connected component is solved on its own and small components
    stay whole; this is equivalent to the global search.
    """
    if graph.number_of_nodes() > EXACT_CUT_MAX_QUBITS:
        raise InstanceTooLargeError(
            f"{graph.number_of_nodes()} qubits exceeds the exhaustive bound "
            f"of {EXACT_CUT_MAX_QUBITS}")
    assignment: dict[int, int] = {}
    next_part = 0
    for comp in sorted(nx.connected_components(graph), key=min):
        comp_sorted = sorted(comp)
        if len(comp_sorted) <= s:
            for q in comp_sorted:
                assignment[q] = next_part
            next_part += 1
            continue
        sub = graph.subgraph(comp_sorted)
        incumbent, _ = _kl_cut_plan(sub, s, random.Random(seed))
        bound = sum(sub[u][v]["weight"] for u, v in incumbent)
        local = _bb_partition(sub, comp_sorted, s, bound)
        for q, part in local.items():
            assignment[q] = next_part + part
        next_part += max(local.values()) + 1
    return _partition_stats(graph, assignment)


def _kl_cut_plan(graph: nx.Graph, s: int,
                 rng: random.Random) -> tuple[list[tuple[int, int]], list[set]]:
    """Iterated Kernighan-Lin bisection plan: cut edges and final parts."""
    work = graph.copy()
    removed: list[tuple[int, int]] = []
    while True:
        comps = sorted(nx.connected_components(work), key=lambda c: (-len(c), min(c)))
        if not comps or len(comps[0]) <= s:
            break
        target = comps[0]
        # A plain graph spares Kernighan-Lin a view's node filter. The view's
        # node order and work's edge order keep each neighbour order, and so
        # a seed's bisection; view.copy() reorders neighbours.
        sub = nx.Graph()
        sub.add_nodes_from(work.subgraph(target))
        sub.add_edges_from(e for e in work.edges(data=True) if e[0] in target)
        edges = list(sub.edges(data="weight"))
        bisections = [kernighan_lin_bisection(sub, weight="weight",
                                              seed=rng.randrange(2**32))
                      for _ in range(KL_RESTARTS)]
        v1, _ = min(bisections, key=lambda part: sum(  # the first cheapest
            w for u, v, w in edges if (u in part[0]) != (v in part[0])))
        crossing = sorted((min(u, v), max(u, v)) for u, v, _ in edges
                          if (u in v1) != (v in v1))
        removed.extend(crossing)
        work.remove_edges_from(crossing)
    parts = sorted(nx.connected_components(work), key=min)
    return removed, parts


def _apply_cut(vc: VirtualCircuit,
               cut_edges: list[tuple[int, int]],
               budget: int) -> VirtualCircuit:
    graph = vc.qubit_graph
    total = sum(graph[u][v]["weight"] for u, v in cut_edges)
    out = vc.copy()
    if total > budget:
        return out  # over budget: no gate is virtualized
    for u, v in cut_edges:
        virt_between(out, u, v)
    return out


def cut_exact(vc: VirtualCircuit, cfg: PassConfig) -> VirtualCircuit:
    """Split the circuit into fragments of at most ``s`` qubits with the
    provably minimal number of virtualized gates (ties: most even sizes)."""
    if vc.num_qubits > EXACT_CUT_MAX_QUBITS:
        raise InstanceTooLargeError(
            f"{vc.num_qubits} qubits exceeds the exact-cut bound of "
            f"{EXACT_CUT_MAX_QUBITS}")
    solution = solve_cut_exact(vc.qubit_graph, cfg.max_fragment_size, cfg.seed)
    return _apply_cut(vc, list(solution.cut_edges), cfg.budget)


def cut_greedy_kl(vc: VirtualCircuit, cfg: PassConfig) -> VirtualCircuit:
    """Heuristic cutter: bisect the largest connected component of the qubit
    graph with Kernighan-Lin until every fragment fits."""
    rng = random.Random(cfg.seed)
    cut_edges, _ = _kl_cut_plan(vc.qubit_graph, cfg.max_fragment_size, rng)
    return _apply_cut(vc, cut_edges, cfg.budget)


# ---------------------------------------------------------------------------
# dependency reducer

def reduce_dependencies_exact(vc: VirtualCircuit, cfg: PassConfig) -> VirtualCircuit:
    """Virtualize the gate set of size <= budget that provably minimizes the
    number of qubit dependencies (ties: fewer gates, then lowest ids)."""
    gates = {x.id: vc.gate_qubits[x.id] for x in vc.instructions
             if isinstance(x, Gate2)}
    gate_ids = sorted(gates)
    if len(gate_ids) > EXACT_DR_MAX_GATES:
        raise InstanceTooLargeError(
            f"{len(gate_ids)} gates exceeds the exact-reducer bound of "
            f"{EXACT_DR_MAX_GATES}")
    best_subset: tuple[int, ...] = ()
    best_dq = len(dependency_pairs(gates.values()))
    for size in range(1, min(cfg.budget, len(gate_ids)) + 1):
        for subset in combinations(gate_ids, size):
            dq = len(dependency_pairs(qubits for gid, qubits in gates.items()
                                      if gid not in subset))
            if dq < best_dq:
                best_dq = dq
                best_subset = subset
    out = vc.copy()
    for gid in best_subset:
        virt_gate(out, gid)
    return out


def _ancestor_counts(gates: list[tuple[int, int]], n: int) -> list[int]:
    """Number of ancestors of each gate, given the gates' qubit pairs in
    execution order.

    Each qubit keeps the frontier vector of its last gate: per qubit, the
    highest chain index among that gate and its ancestors. A gate's
    predecessors are the last gates on its two qubits, so its ancestors'
    frontier is the elementwise max of their two vectors. Every ancestor lies
    on exactly two chains, which gives anc = sum_q (frontier[q] + 1) / 2.
    """
    empty = np.full(n, -1, dtype=np.int64)
    last: dict[int, np.ndarray] = {}
    chain_len = [0] * n
    counts = []
    for qa, qb in gates:
        fv = np.maximum(last.get(qa, empty), last.get(qb, empty))
        counts.append((int(fv.sum()) + n) // 2)
        for q in (qa, qb):
            fv[q] = chain_len[q]
            chain_len[q] += 1
            last[q] = fv
    return counts


def gate_costs(vc: VirtualCircuit) -> dict[int, int]:
    """anc(g) * desc(g) for every real two-qubit gate, in stream order.

    The real gates in stream order are a topological order of their
    dependencies, and reversing it reverses every edge: one forward and one
    reverse :func:`_ancestor_counts` sweep. Runs in O(gates * width).
    """
    order = [x.id for x in vc.instructions if isinstance(x, Gate2)]
    gates = [vc.gate_qubits[gid] for gid in order]
    anc = _ancestor_counts(gates, vc.num_qubits)
    desc = _ancestor_counts(gates[::-1], vc.num_qubits)[::-1]
    return {gid: a * d for gid, a, d in zip(order, anc, desc)}


def reduce_dependencies_greedy(vc: VirtualCircuit, cfg: PassConfig) -> VirtualCircuit:
    """Repeatedly virtualize a gate of maximal ancestor*descendant cost.

    Stops early once every remaining gate has cost zero. Ties are broken by
    a seeded random choice.
    """
    rng = random.Random(cfg.seed)
    out = vc.copy()
    for _ in range(cfg.budget):
        costs = gate_costs(out)
        if not costs:
            break
        top = max(costs.values())
        if top == 0:
            break
        candidates = sorted(gid for gid, c in costs.items() if c == top)
        virt_gate(out, rng.choice(candidates))
    return out


# ---------------------------------------------------------------------------
# qubit reuser

def _wire_closures(instructions: list) -> tuple[dict[int, int], dict[int, int]]:
    """Per wire, the bitmasks of the wires and of the stream positions its
    content depends on, its own included, from one forward sweep: an element
    ORs its wires' masks and stores the result on each of them."""
    dep: dict[int, int] = {}
    anc: dict[int, int] = {}
    for i, x in enumerate(instructions):
        wires = element_wires(x)
        mask, elements = 0, 1 << i
        for w in wires:
            mask |= dep.get(w, 0) | (1 << w)
            elements |= anc.get(w, 0)
        for w in wires:
            dep[w] = mask
            anc[w] = elements
    return dep, anc


def _merge_closures(dep: dict[int, int], anc: dict[int, int],
                    target: int, source: int, reset: int) -> None:
    """Update :func:`_wire_closures` in place for merging ``source`` onto
    ``target`` with a reset of element id ``reset``: whatever depended on
    the source now also depends on the target's history and reset, and, as
    the target does not depend on the source, nothing else changes."""
    bit = 1 << source
    head_dep = dep.get(target, 0) | (1 << target)
    head_anc = anc.get(target, 0) | (1 << reset)
    for w, mask in dep.items():
        if mask & bit and w != source:
            dep[w] = mask & ~bit | head_dep
            anc[w] |= head_anc
    dep[target] = dep.pop(source, 0) & ~bit | head_dep
    anc[target] = anc.pop(source, 0) | head_anc


def _renamed(x, rename: dict[int, int]):
    wires = element_wires(x)
    if rename.keys().isdisjoint(wires):
        return x
    if isinstance(x, VirtualSide):
        return replace(x, qubit=rename[x.qubit])
    return replace(x, qubits=tuple(rename.get(w, w) for w in wires))


def _merged_stream(instructions: list, merges: list[tuple[int, int]],
                   rename: dict[int, int]) -> list:
    """The stream after ``merges`` (target, head), each of which stably
    partitioned it into [head: what the target depends on] [reset target]
    [the rest], and ``rename``, their wire renames composed. The partitions
    compose into one sort: by the last merge's class (head 0, reset 1, rest
    2), then each earlier one's, then the position. A merge's reset is alone
    in its class, so its keys from before it existed are never compared."""
    size = len(instructions) + len(merges)
    nbytes = (size + 7) // 8
    heads = np.frombuffer(b"".join(head.to_bytes(nbytes, "little")
                                   for _, head in merges), dtype=np.uint8)
    classes = 2 - 2 * np.unpackbits(heads.reshape(len(merges), nbytes), axis=1,
                                    count=size, bitorder="little")
    np.fill_diagonal(classes[:, len(instructions):], 1)
    order = np.lexsort(np.vstack([np.arange(size), classes]))
    elements = instructions + [instr("reset", target) for target, _ in merges]
    return [_renamed(elements[i], rename) for i in order.tolist()]


def reuse_qubits(vc: VirtualCircuit, cfg: PassConfig) -> VirtualCircuit:
    """Shrink over-wide fragments by reusing finished wires.

    A wire pair (w_t, w_s) inside one fragment is reusable when nothing on
    w_t depends on w_s, so that w_t can finish, be measured and reset, and
    then carry w_s's operations. The test reads the stream that the earlier
    merges produce, as a merge serializes its wire's history: one sweep
    gives each wire its dependencies, each merge updates them in closed
    form, and the stream is rewritten once at the end. Raises
    :class:`WidthUnreachableError` when a fragment stays wider than the
    target and no pair is reusable.
    """
    rng = random.Random(cfg.seed)
    out = vc.copy()
    dep, anc = _wire_closures(out.instructions)
    merges: list[tuple[int, int]] = []
    for frag in out.fragments:
        while True:
            wires = tuple(sorted({out.wire_of[q] for q in frag.qubits}))
            if len(wires) <= cfg.max_fragment_size:
                break
            pair = _reuse_pair(wires, dep, rng)
            if pair is None:
                raise WidthUnreachableError(
                    f"fragment {frag.index} stuck at width {len(wires)} > "
                    f"{cfg.max_fragment_size}: no reusable wire pair")
            target, source = pair
            merges.append((target, anc.get(target, 0)))
            _merge_closures(dep, anc, target, source,
                            len(out.instructions) + len(merges) - 1)
            out.wire_of.update({q: target for q, w in out.wire_of.items() if w == source})
    if merges:
        rename = {w: out.wire_of[q] for q, w in vc.wire_of.items()
                  if w != out.wire_of[q]}
        out.instructions = _merged_stream(out.instructions, merges, rename)
    return out


def _reuse_pair(wires: tuple[int, ...], dep: dict[int, int],
                rng: random.Random) -> tuple[int, int] | None:
    """A seeded choice among the reusable pairs (w_t, w_s) of ``wires``,
    listed w_t-major in wire order, or None if there is none. Counts each
    w_t's partners by popcount instead of listing the O(width^2) pairs, and
    draws as ``rng.choice`` of that list does."""
    every = sum(1 << w for w in wires)
    free = [every & ~dep.get(w_t, 0) & ~(1 << w_t) for w_t in wires]
    counts = [mask.bit_count() for mask in free]
    if not any(counts):
        return None
    pick = rng.choice(range(sum(counts)))
    for w_t, mask, count in zip(wires, free, counts):
        if pick < count:
            for _ in range(pick):
                mask &= mask - 1
            return w_t, (mask & -mask).bit_length() - 1
        pick -= count


# ---------------------------------------------------------------------------
# pipeline

_PASS_NAMES = ("cc", "dr", "qr")


def run_pipeline(vc: VirtualCircuit, cfg: PassConfig,
                 passes: tuple = _PASS_NAMES) -> VirtualCircuit:
    """Cut, reduce dependencies, then reuse qubits, threading one budget.

    The cutter consumes part of the budget; the reducer spends what is left;
    the reuser needs none. A reuse failure propagates as the pipeline
    failure signal. Entries of ``passes`` may also be custom callables with
    the pass signature ``(vc, cfg) -> vc``; any gates they virtualize count
    against the shared budget too. Raises :class:`WireSplitError` when a
    pass after ``qr`` splits a reused wire between fragments.
    """
    budget = cfg.budget
    out = vc
    for name in passes:
        if callable(name):
            fn = name
        elif name == "cc":
            fn = cut_exact if cfg.exact else cut_greedy_kl
        elif name == "dr":
            fn = reduce_dependencies_exact if cfg.exact else reduce_dependencies_greedy
        elif name == "qr":
            fn = reuse_qubits
        else:
            raise PassError(f"unknown pass {name!r}")
        stage_cfg = replace(cfg, budget=budget)
        before = len(out.virtual_gates)
        out = fn(out, stage_cfg)
        budget -= len(out.virtual_gates) - before
        if len(out.virtual_gates) > before:
            _check_wires(out, name)
    return out


def _check_wires(vc: VirtualCircuit, name) -> None:
    """Refuse an IR in which two fragments share a wire."""
    owner: dict[int, int] = {}
    for frag in vc.fragments:
        for w in frag.wires:
            if owner.setdefault(w, frag.index) != frag.index:
                raise WireSplitError(
                    f"pass {getattr(name, '__name__', name)!r} split reused "
                    f"wire {w} between fragments {owner[w]} and {frag.index}; "
                    "run qr after the passes that virtualize gates")
