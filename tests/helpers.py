"""Independent oracles and generators for the test suite.

Everything here is deliberately implemented with different machinery than
the package under test: dense Kronecker-product unitaries, density-matrix
channel evolution, unpruned partition enumeration, a Floyd-Warshall
reachability closure, and a knitter that loops over global instances in
plain Python with dict accumulation. The knit kernel is also checked
against the three chunked kernels it replaced: one sums full-width Kronecker
rows, one meets each chunk's Kronecker prefix with the last fragment's rows
in one matrix product, and one rebuilds both halves' Kronecker products from
fragment rows for every sub-block instead of gathering block-table rows;
the block tables are checked against the axis-transposing builder that the
kernel's own gather and row product replaced. The compiler's single-sweep
passes are checked against the algorithms they replaced: a predecessor-list DFS
for a wire's dependency closure, a peephole optimizer that repeats whole
rounds until no pair is left, a Kernighan-Lin cut plan that bisects
networkx subgraph views, and dependency pairs and gate costs read off an
incrementally maintained operation graph (a topological sort with a
reachability walk, and frontier sweeps over graph predecessors and
successors). That graph is built gate by gate in id
order and then relinked around each virtual gate, without reading the
stream's order. The qubit graph derived from the IR is checked against the
one the IR used to keep: weighted gate by gate in id order, then decremented
per virtual gate, its edge removed at zero. The router and the scheduler
are checked against versions that rebuild the coupling graph, its
all-pairs distances and every SWAP path on each call and look up every
instruction's error rate. The QASM statement scanner is checked against
the token parser it replaced, and the one-pass qubit reuser against the reuser that swept the stream for
wire masks before each merge and rewrote the stream at each merge. The
statevector engine's gate products, branch norms and exact sums are
checked against the `np.tensordot` product, the strided norm sum and the
sort of every (row, basis state) pair that they replaced.
"""
from __future__ import annotations

import ast
import functools
import json
import math
import random
import re

from dataclasses import replace

import networkx as nx
import numpy as np
from networkx.algorithms.community import kernighan_lin_bisection

from gatevm import runtime
from gatevm.circuit import Circuit, GATES_1Q, GATES_2Q, ROTATIONS, Instruction, instr
from gatevm.codegen import CodegenError, ParamCircuit, Placeholder
from gatevm.qasm import QasmIndexError, QasmSyntaxError, UnsupportedGateError
from gatevm.sim import Slot
from gatevm.vc import Gate2, VcError, VirtualSide, dependency_masks, element_wires

# ---------------------------------------------------------------------------
# views of library objects that only the tests read

def circuits_equal(a: Circuit, b: Circuit, angle_tol: float = 1e-12) -> bool:
    """Structural equality with an angle tolerance."""
    if a.num_qubits != b.num_qubits or len(a.instructions) != len(b.instructions):
        return False
    for x, y in zip(a.instructions, b.instructions):
        if (x.kind, x.qubits, x.clbit, x.sign) != (y.kind, y.qubits, y.clbit, y.sign):
            return False
        if (x.angle is None) != (y.angle is None):
            return False
        if x.angle is not None and abs(x.angle - y.angle) > angle_tol:
            return False
    return True


def to_circuit(vc) -> Circuit:
    """Flatten a virtual-gate-free IR back into a plain circuit.

    Wire ids become qubit ids; wires freed by qubit reuse stay idle.
    """
    out: list[Instruction] = []
    for x in vc.instructions:
        if isinstance(x, VirtualSide):
            raise VcError("circuit still contains virtual gates")
        out.append(x.to_instruction() if isinstance(x, Gate2) else x)
    return Circuit(vc.num_qubits, out, name=vc.name,
                   num_clbits=vc.num_clbits).validate()


def reinlined(pc: ParamCircuit, vgate_info) -> Circuit:
    """A fragment with its placeholder pairs replaced by their original
    two-qubit gates. Only valid when every touching gate has both sides in
    the fragment."""
    out: list[Instruction] = []
    pending: dict[int, tuple[str, int]] = {}
    for el in pc.elements:
        if not isinstance(el, Placeholder):
            out.append(el)
            continue
        if el.gate_id not in pending:
            pending[el.gate_id] = (el.side, el.qubit)
            continue
        other_side, other_qubit = pending.pop(el.gate_id)
        if other_side == el.side:
            raise CodegenError(f"duplicate side for gate {el.gate_id}")
        kind, angle = vgate_info[el.gate_id]
        qa, qb = ((other_qubit, el.qubit) if other_side == "a"
                  else (el.qubit, other_qubit))
        out.append(instr(kind, qa, qb, angle=angle))
    if pending:
        raise CodegenError(
            f"gates {sorted(pending)} span another fragment; cannot re-inline")
    return Circuit(pc.num_qubits, out, name=pc.name,
                   num_clbits=pc.num_clbits).validate()


def coupling_graph(qpu) -> nx.Graph:
    """A QPU's coupling graph over all of its qubits."""
    g = nx.Graph()
    g.add_nodes_from(range(qpu.num_qubits))
    g.add_edges_from(sorted((min(a, b), max(a, b)) for a, b in qpu.coupling))
    return g


def has_measurement(action) -> bool:
    """Whether a decomposition's local action measures its qubit."""
    return any(op.kind == "measure" for op in action.ops)


def sampling_overhead(decomposition) -> float:
    """Sum of |c_i|; squares to the shot-overhead factor."""
    return float(sum(abs(e.coeff) for e in decomposition.entries))


_S2 = 1.0 / math.sqrt(2.0)
H = np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
S = np.diag([1, 1j]).astype(complex)
T = np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex)
P0 = np.diag([1, 0]).astype(complex)
P1 = np.diag([0, 1]).astype(complex)


def u1(kind: str, angle: float | None) -> np.ndarray:
    if kind == "rx":
        return (math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * X)
    if kind == "ry":
        return (math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * Y)
    if kind == "rz":
        return (math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * Z)
    return {"h": H, "x": X, "y": Y, "z": Z, "s": S, "t": T}[kind]


def u2(kind: str, angle: float | None) -> np.ndarray:
    """4x4 matrix, first gate qubit = least significant index bit."""
    if kind == "cx":
        m = np.eye(4, dtype=complex)
        m[[1, 3]] = m[[3, 1]]
        return m
    if kind == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if kind == "rzz":
        # exp(-i angle/2 Z(x)Z): eigenvalue of ZZ on |b1 b0> is (-1)^(b0+b1)
        return np.diag([np.exp(-1j * angle / 2 * (-1) ** (bin(i).count("1")))
                        for i in range(4)]).astype(complex)
    raise KeyError(kind)


def embed1(mat: np.ndarray, q: int, n: int) -> np.ndarray:
    return np.kron(np.eye(2 ** (n - 1 - q)), np.kron(mat, np.eye(2 ** q)))


def embed2(mat4: np.ndarray, qa: int, qb: int, n: int) -> np.ndarray:
    """Embed a 4x4 two-qubit matrix acting on (qa, qb) into n qubits."""
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        a = (col >> qa) & 1
        b = (col >> qb) & 1
        base = col & ~(1 << qa) & ~(1 << qb)
        for ap in range(2):
            for bp in range(2):
                row = base | (ap << qa) | (bp << qb)
                full[row, col] = mat4[ap + 2 * bp, a + 2 * b]
    return full


def dense_unitary(c: Circuit) -> np.ndarray:
    """Full-circuit unitary (gates only) via explicit Kronecker embeddings."""
    u = np.eye(1 << c.num_qubits, dtype=complex)
    for ins in c.instructions:
        if ins.kind == "barrier":
            continue
        if ins.kind in ("measure", "reset"):
            raise ValueError("dense_unitary handles unitary circuits only")
        if ins.kind in GATES_2Q:
            step = embed2(u2(ins.kind, ins.angle), *ins.qubits, c.num_qubits)
        else:
            step = embed1(u1(ins.kind, ins.angle), ins.qubits[0], c.num_qubits)
        u = step @ u
    return u


def density_oracle(c: Circuit) -> dict[int, float]:
    """Signed output distribution via density-matrix channel evolution.

    Completely independent reference for the branching statevector engine:
    measurements split an unnormalized density matrix per recorded value,
    sign-marked measurements subtract the outcome-1 projection, resets pump
    population back to |0>. Practical up to ~6 qubits.
    """
    c.validate()
    n = c.num_qubits
    dim = 1 << n
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    states: dict[int, np.ndarray] = {0: rho0}
    records = any(i.kind == "measure" and i.clbit is not None
                  for i in c.instructions)
    read: list[tuple[int, int]] = []

    for ins in c.instructions:
        if ins.kind == "barrier":
            continue
        if ins.kind == "measure":
            q = ins.qubits[0]
            p0 = embed1(P0, q, n)
            p1 = embed1(P1, q, n)
            new: dict[int, np.ndarray] = {}

            def put(rec: int, rho: np.ndarray) -> None:
                new[rec] = new.get(rec, 0) + rho

            for rec, rho in states.items():
                r0 = p0 @ rho @ p0
                r1 = p1 @ rho @ p1
                if ins.sign:
                    r1 = -r1
                if ins.clbit is None:
                    put(rec, r0 + r1)
                else:
                    put(rec, r0)
                    put(rec | (1 << ins.clbit), r1)
            states = new
            continue
        if ins.kind == "reset":
            q = ins.qubits[0]
            p0 = embed1(P0, q, n)
            p1 = embed1(P1, q, n)
            xq = embed1(X, q, n)
            states = {rec: p0 @ rho @ p0 + xq @ p1 @ rho @ p1 @ xq
                      for rec, rho in states.items()}
            continue
        if ins.kind in GATES_2Q:
            u = embed2(u2(ins.kind, ins.angle), *ins.qubits, n)
        else:
            u = embed1(u1(ins.kind, ins.angle), ins.qubits[0], n)
        states = {rec: u @ rho @ u.conj().T for rec, rho in states.items()}

    if not records:
        read = [(q, q) for q in range(n)]
    out: dict[int, float] = {}
    for rec, rho in states.items():
        probs = np.real(np.diag(rho))
        for idx, p in enumerate(probs):
            if abs(p) < 1e-15:
                continue
            key = rec
            for q, cb in read:
                key |= ((idx >> q) & 1) << cb
            out[key] = out.get(key, 0.0) + float(p)
    return {k: v for k, v in out.items() if abs(v) > 1e-13}


def random_circuit(rng: random.Random, num_qubits: int, depth: int,
                   two_qubit_prob: float = 0.5) -> Circuit:
    c = Circuit(num_qubits, name=f"rand{num_qubits}")
    oneq = ["h", "x", "y", "z", "s", "t", "rx", "ry", "rz"]
    twoq = ["cx", "cz", "rzz"]
    for _ in range(depth):
        if num_qubits >= 2 and rng.random() < two_qubit_prob:
            a, b = rng.sample(range(num_qubits), 2)
            kind = rng.choice(twoq)
            angle = rng.uniform(0, 2 * math.pi) if kind == "rzz" else None
            c.add(kind, a, b, angle=angle)
        else:
            kind = rng.choice(oneq)
            angle = rng.uniform(0, 2 * math.pi) if kind in ("rx", "ry", "rz") else None
            c.add(kind, rng.randrange(num_qubits), angle=angle)
    return c


def _restricted_growth_strings(n: int):
    """Every set partition of n items, one canonical label string each."""
    assignment = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield tuple(assignment)
            return
        for label in range(used + 1):
            assignment[i] = label
            yield from rec(i + 1, used + (1 if label == used else 0))

    yield from rec(0, 0)


def brute_force_min_cut(graph, s: int) -> tuple[int, int]:
    """(min cut weight, min balance among min-weight partitions) over every
    partition of the vertices into parts of at most s, by plain enumeration
    of all set partitions."""
    vertices = sorted(graph.nodes)
    best = None
    for assignment in _restricted_growth_strings(len(vertices)):
        sizes: dict[int, int] = {}
        for a in assignment:
            sizes[a] = sizes.get(a, 0) + 1
        if max(sizes.values()) > s:
            continue
        part = dict(zip(vertices, assignment))
        cost = sum(w for x, y, w in graph.edges(data="weight")
                   if part[x] != part[y])
        balance = sum(v * v for v in sizes.values())
        if best is None or (cost, balance) < best:
            best = (cost, balance)
    return best


def closure_dependencies(c: Circuit) -> set[tuple[int, int]]:
    """Qubit dependency pairs via an explicit per-wire gate DAG and a
    Floyd-Warshall boolean transitive closure."""
    gates = [(i, ins) for i, ins in enumerate(c.instructions)
             if ins.kind in GATES_2Q]
    m = len(gates)
    reach = [[False] * m for _ in range(m)]
    last: dict[int, int] = {}
    for gi, (_, ins) in enumerate(gates):
        reach[gi][gi] = True
        for q in ins.qubits:
            if q in last:
                reach[last[q]][gi] = True
            last[q] = gi
    for k in range(m):
        for i in range(m):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(m):
                    if row_k[j]:
                        row_i[j] = True
    pairs = set()
    for src in range(m):
        for dst in range(m):
            if reach[src][dst]:
                for qj in gates[src][1].qubits:
                    for qi in gates[dst][1].qubits:
                        if qi != qj:
                            pairs.add((qi, qj))
    return pairs


def reference_knit(results, coeffs) -> dict[int, float]:
    """sum_i C[i] * (x)_j dist_j(i_j) over every global instance i, one
    output key at a time; entries below 1e-12 in magnitude are dropped.

    Digits of i are base 6 in gate order, last gate fastest; fragment keys
    are scattered to their original output bits, and keys that collide
    there (unmeasured fragment qubits) are added.
    """
    order = list(results.gate_order)
    k = len(order)
    out: dict[int, float] = {}
    for i, c in enumerate(coeffs.values.tolist()):
        if c == 0.0:
            continue
        digits = [(i // 6 ** (k - 1 - t)) % 6 for t in range(k)]
        terms = {0: 1.0}
        for entry in results.entries:
            local = 0
            for gid in entry.gate_ids:
                local = 6 * local + digits[order.index(gid)]
            scattered: dict[int, float] = {}
            for key, v in entry.distributions[local].entries.items():
                g = 0
                for t, clbit in enumerate(entry.clbit_map):
                    g |= ((key >> t) & 1) << clbit
                scattered[g] = scattered.get(g, 0.0) + v
            terms = {a | b: va * vb for a, va in terms.items()
                     for b, vb in scattered.items()}
        for key, v in terms.items():
            out[key] = out.get(key, 0.0) + c * v
    return {key: v for key, v in out.items() if abs(v) >= 1e-12}


def reference_knit_range(args):
    """The chunked knit kernel that the last-fragment matrix product
    replaced, kept as it was: the coefficient-weighted row-wise Kronecker
    product of every fragment, one Pi-long row per instance of the chunk,
    summed over the chunk with ``np.add.reduce``. Same arguments as
    ``runtime._knit_range``; returns a (1, Pi) accumulator with the first
    fragment fastest. Chunk and block sizes follow ``runtime``'s settings."""
    start, end, coeff, tables = args
    widths = [union.size for _, union, _ in tables]
    size = math.prod(widths)
    chunk = max(1, min(runtime.KNIT_CHUNK_ENTRIES // max(size, 1), end - start))
    block = chunk * max(1, runtime.KNIT_BLOCK // chunk)
    acc = np.zeros((1, size))
    total = np.empty((1, size)) if chunk > 1 else None
    # Per fragment, allocated once with a leading chunk axis: its table rows,
    # the coefficient-weighted row-wise Kronecker product through it (its own
    # axis outside the earlier ones, so numpy's innermost loop is the long
    # one), and that product as the next step's left operand.
    steps, prefix = [], 1
    for width in widths:
        row, prod = np.empty((chunk, width)), np.empty((chunk, width, prefix))
        prefix *= width
        steps.append((row, row[:, :, None], prod, prod.reshape(chunk, 1, prefix)))
    for first in range(start, end, block):
        # Global instances with a nonzero coefficient, padded to whole chunks
        # by instance 0 with weight 0, which adds exact zeros.
        live = first + np.flatnonzero(coeff[first:min(first + block, end)])
        pad = -live.size % chunk
        weights, live = np.pad(coeff[live], (0, pad)), np.pad(live, (0, pad))
        local = [sum((live // gs % 6 * ls for gs, ls in strides),
                     np.zeros_like(live)).reshape(-1, chunk)
                 for strides, _, _ in tables]
        for term, *lis in zip(weights.reshape(-1, chunk, 1, 1), *local):
            for (row, rhs, prod, nxt), li, (_, _, table) in zip(steps, lis, tables):
                table.take(li, axis=0, out=row)
                np.multiply(term, rhs, out=prod)
                term = nxt
            acc += term[0] if chunk == 1 else np.add.reduce(term, axis=0, out=total)
    return acc


def reference_prefix_knit_range(args):
    """The chunked knit kernel that the balanced two-half matrix product
    replaced, kept as it was: every fragment but the last builds the chunk's
    coefficient-weighted row-wise Kronecker prefix elementwise, and one
    matrix product with the last fragment's rows adds the chunk. Same
    arguments as ``runtime._knit_range``; returns a (|u_last|, Pi/|u_last|)
    accumulator with the first fragment fastest. Chunk and block sizes
    follow ``runtime``'s settings."""
    start, end, coeff, tables = args
    *head, (_, _, last) = tables
    widths = [table.shape[1] for _, _, table in tables]
    chunk = max(1, min(runtime.KNIT_CHUNK_ENTRIES // max(math.prod(widths), 1), end - start))
    block = chunk * max(1, runtime.KNIT_BLOCK // chunk)
    # Per fragment but the last, allocated once with a leading chunk axis: its
    # table rows, the coefficient-weighted row-wise Kronecker product through
    # it (its own axis outside the earlier ones, so numpy's innermost loop is
    # the long one), and that product as the next step's left operand.
    steps, prefix = [], 1
    for width in widths[:-1]:
        row, prod = np.empty((chunk, width)), np.empty((chunk, width, prefix))
        prefix *= width
        steps.append((row, row[:, :, None], prod, prod.reshape(chunk, 1, prefix)))
    # The last fragment's rows meet the chunk's prefix products in one matrix
    # product, which also sums over the chunk; its axis is the accumulator's
    # outer one. A one-instance chunk makes that an outer product, which
    # numpy computes faster elementwise.
    rows, buf = np.empty((chunk, widths[-1])), np.empty((widths[-1], prefix))
    acc = np.zeros_like(buf)
    product = np.matmul if chunk > 1 else np.multiply
    for first in range(start, end, block):
        # Global instances with a nonzero coefficient, padded to whole chunks
        # by instance 0 with weight 0, which adds exact zeros.
        live = first + np.flatnonzero(coeff[first:min(first + block, end)])
        pad = -live.size % chunk
        weights, live = np.pad(coeff[live], (0, pad)), np.pad(live, (0, pad))
        local = [sum((live // gs % 6 * ls for gs, ls in strides),
                     np.zeros_like(live)).reshape(-1, chunk)
                 for strides, _, _ in tables]
        for term, *lis in zip(weights.reshape(-1, chunk, 1, 1), *local):
            for (row, rhs, prod, nxt), li, (_, _, table) in zip(steps, lis, head):
                table.take(li, axis=0, out=row)
                np.multiply(term, rhs, out=prod)
                term = nxt
            last.take(lis[-1], axis=0, out=rows)
            product(rows.T, term.reshape(chunk, prefix), out=buf)
            acc += buf
    return acc


def _kron_rows(prefix, rows):
    """Row-wise Kronecker product with the rows' axis outside the prefix's,
    so numpy's innermost loop is the long one."""
    return (rows[:, :, None] * prefix[:, None, :]).reshape(len(rows), -1)


def reference_halves_knit_range(args):
    """The chunked knit kernel that the block tables replaced, kept as it
    was: for every sub-block of instances, each fragment's rows are gathered
    and each half's coefficient-weighted row-wise Kronecker product is built
    anew, and one matrix product of a chunk's two halves adds the chunk.
    Same arguments as ``runtime._knit_range``; returns a (Pi_right, Pi_left)
    accumulator with the first fragment fastest. Chunk and block sizes
    follow ``runtime``'s settings."""
    start, end, coeff, tables = args
    widths = [table.shape[1] for _, _, table in tables]
    chunk = max(1, min(runtime.KNIT_CHUNK_ENTRIES // max(math.prod(widths), 1), end - start))
    block = chunk * max(1, runtime.KNIT_BLOCK // chunk)
    # The fragments before the split make the left half, which leads with the
    # coefficient, and the rest the right half; the split minimizes the sum
    # of the halves' widths, and a lone fragment makes a right half.
    split = min(range(len(widths)),
                key=lambda s: math.prod(widths[:s]) + math.prod(widths[s:]))
    left, right = math.prod(widths[:split]), math.prod(widths[split:])
    # A sub-block: whole chunks whose halves are built together.
    sub = chunk * max(1, runtime.KNIT_CHUNK_ENTRIES // 4 // (chunk * max(left + right, 1)))
    # One matrix product per chunk adds the outer products of its halves'
    # rows; a one-instance chunk makes that an outer product, which numpy
    # computes faster elementwise. The right half's axis is the accumulator's
    # outer one, so the first fragment stays fastest.
    buf = np.empty((right, left))
    acc = np.zeros_like(buf)
    product = np.matmul if chunk > 1 else np.multiply
    for first in range(start, end, block):
        # Global instances with a nonzero coefficient, padded to whole chunks
        # by instance 0 with weight 0, which adds exact zeros.
        live = first + np.flatnonzero(coeff[first:min(first + block, end)])
        pad = -live.size % chunk
        weights, live = np.pad(coeff[live], (0, pad)), np.pad(live, (0, pad))
        local = [sum((live // gs % 6 * ls for gs, ls in strides), np.zeros_like(live))
                 for strides, _, _ in tables]
        for lo in range(0, live.size, sub):
            rows = [table[li[lo:lo + sub]] for (_, _, table), li in zip(tables, local)]
            lhs = functools.reduce(_kron_rows, rows[:split], weights[lo:lo + sub, None])
            rhs = functools.reduce(_kron_rows, rows[split:])
            count = len(lhs) // chunk
            for lc, rc in zip(lhs.reshape(count, chunk, left),
                              rhs.reshape(count, chunk, right)):
                product(rc.T, lc, out=buf)
                acc += buf
            del rows, lhs, rhs, lc, rc  # before the next sub-block's halves
    return acc


def reference_block_table(tables, members):
    """The block-table builder that the kernel's digit gather and row product
    replaced, kept as it was: each fragment's table is viewed with one axis
    per block gate, the axes are transposed into block order and padded with
    unit axes, and the views' broadcast product is the table. Same arguments
    and result as ``runtime._block_table``."""
    if len(members) == 1:
        strides, _, table = tables[members[0]]
        return strides, table
    gates = sorted({gs for j in members for gs, _ in tables[j][0]}, reverse=True)
    # Each fragment's table is viewed with one axis per block gate (its
    # digit, or length 1 where the gate does not touch it), then one axis
    # per fragment, the last outermost (its columns, or length 1); the block
    # table is the broadcast product of the views.
    block = np.ones(())
    for c, j in enumerate(members):
        strides, _, table = tables[j]
        axes = [gates.index(gs) for gs, _ in strides]
        view = table.reshape([6] * len(axes) + [table.shape[1]]).transpose(
            sorted(range(len(axes)), key=axes.__getitem__) + [len(axes)])
        block = block * view.reshape(
            [6 if t in axes else 1 for t in range(len(gates))]
            + [1] * (len(members) - 1 - c) + [table.shape[1]] + [1] * c)
    return ([(gs, 6 ** (len(gates) - 1 - t)) for t, gs in enumerate(gates)],
            block.reshape(6 ** len(gates), -1))


def reference_kl_cut_plan(graph, s: int, rng: random.Random, restarts: int):
    """Iterated Kernighan-Lin bisection of the largest component, run on a
    subgraph view of the working graph: cut edges and final parts."""
    work = graph.copy()
    removed: list[tuple[int, int]] = []
    while True:
        comps = sorted(nx.connected_components(work), key=lambda c: (-len(c), min(c)))
        if not comps or len(comps[0]) <= s:
            break
        sub = work.subgraph(comps[0])
        best = None
        for _ in range(restarts):
            part = kernighan_lin_bisection(
                sub, weight="weight", seed=rng.randrange(2**32))
            cost = sum(w for u, v, w in sub.edges(data="weight")
                       if (u in part[0]) != (v in part[0]))
            if best is None or cost < best[0]:
                best = (cost, part)
        _, (v1, _) = best
        crossing = sorted((min(u, v), max(u, v)) for u, v in sub.edges
                          if (u in v1) != (v in v1))
        removed.extend(crossing)
        work.remove_edges_from(crossing)
    return removed, sorted(nx.connected_components(work), key=min)


def reference_op_graph(vc) -> nx.MultiDiGraph:
    """The operation graph, maintained incrementally: link each gate, in id
    (circuit) order, to the previous gate on each of its qubits, then remove
    each virtual gate in creation order, re-linking its qubits' predecessor
    and successor."""
    op_graph = nx.MultiDiGraph()
    last_gate: dict[int, int] = {}
    for gid in sorted(vc.gate_qubits):
        op_graph.add_node(gid)
        for q in vc.gate_qubits[gid]:
            if q in last_gate:
                op_graph.add_edge(last_gate[q], gid, key=q, qubit=q)
            last_gate[q] = gid
    for gid in vc.virtual_gates:
        by_qubit: dict[int, dict[str, int]] = {}
        for u, _, key in op_graph.in_edges(gid, keys=True):
            by_qubit.setdefault(key, {})["pred"] = u
        for _, v, key in op_graph.out_edges(gid, keys=True):
            by_qubit.setdefault(key, {})["succ"] = v
        op_graph.remove_node(gid)
        for q, link in by_qubit.items():
            if "pred" in link and "succ" in link:
                op_graph.add_edge(link["pred"], link["succ"], key=q, qubit=q)
    return op_graph


def reference_qubit_graph(vc) -> nx.Graph:
    """The qubit graph, maintained incrementally: weight each gate's qubit
    pair in id (circuit) order, adding the edge at its first gate, then drop
    one per virtual gate in creation order, removing the edge at zero."""
    graph = nx.Graph()
    graph.add_nodes_from(range(vc.num_qubits))
    for gid in sorted(vc.gate_qubits):
        u, v = sorted(vc.gate_qubits[gid])
        if graph.has_edge(u, v):
            graph[u][v]["weight"] += 1
        else:
            graph.add_edge(u, v, weight=1)
    for gid in vc.virtual_gates:
        u, v = sorted(vc.gate_qubits[gid])
        if graph[u][v]["weight"] == 1:
            graph.remove_edge(u, v)
        else:
            graph[u][v]["weight"] -= 1
    return graph


def reference_dependency_pairs(op_graph, gate_qubits) -> set[tuple[int, int]]:
    """Ordered pairs (q_i, q_j) where some gate of the operation graph acting
    on q_i is reachable from some gate acting on q_j: a reverse walk in
    topological order that unions successors' reachable-qubit masks."""
    reach_qubits: dict[int, int] = {}
    pairs: set[tuple[int, int]] = set()
    for gid in reversed(list(nx.topological_sort(op_graph))):
        qa, qb = gate_qubits[gid]
        mask = (1 << qa) | (1 << qb)
        for succ in op_graph.successors(gid):
            mask |= reach_qubits[succ]
        reach_qubits[gid] = mask
        for q_src in (qa, qb):
            m = mask
            q = 0
            while m:
                if m & 1 and q != q_src:
                    pairs.add((q, q_src))
                m >>= 1
                q += 1
    return pairs


def reference_gate_costs(vc, op_graph) -> dict[int, int]:
    """anc(g) * desc(g) for every real gate, from frontier sweeps over the
    operation graph's predecessors and successors. A gate's frontier is the
    elementwise max of its neighbours' frontiers and chain positions, and a
    neighbour's frontier is dropped once its last consumer has read it."""
    order = [x.id for x in vc.instructions if isinstance(x, Gate2)]
    n = vc.num_qubits
    chain_len: dict[int, int] = {}
    pos: dict[int, tuple[tuple[int, int], ...]] = {}
    for gid in order:
        entries = []
        for q in vc.gate_qubits[gid]:
            entries.append((q, chain_len.get(q, 0)))
            chain_len[q] = chain_len.get(q, 0) + 1
        pos[gid] = tuple(entries)

    def sweep(sequence, neighbors, positions):
        counts: dict[int, int] = {}
        frontier: dict[int, np.ndarray] = {}
        consumers = {gid: 0 for gid in sequence}
        for gid in sequence:
            for p in set(neighbors(gid)):
                consumers[p] += 1
        for gid in sequence:
            fv = np.full(n, -1, dtype=np.int64)
            for p in set(neighbors(gid)):
                np.maximum(fv, frontier[p], out=fv)
                for q, idx in positions[p]:
                    if idx > fv[q]:
                        fv[q] = idx
                consumers[p] -= 1
                if consumers[p] == 0:
                    del frontier[p]
            counts[gid] = (int(fv.sum()) + n) // 2
            frontier[gid] = fv
        return counts

    anc = sweep(order, lambda g: list(op_graph.predecessors(g)), pos)
    rpos = {gid: tuple((q, chain_len[q] - 1 - idx) for q, idx in entries)
            for gid, entries in pos.items()}
    desc = sweep(list(reversed(order)),
                 lambda g: list(op_graph.successors(g)), rpos)
    return {gid: anc[gid] * desc[gid] for gid in order}


def _wires(x) -> tuple[int, ...]:
    qubits = getattr(x, "qubits", None)
    return (x.qubit,) if qubits is None else qubits


def reference_closure(instructions: list, wire: int) -> set[int]:
    """Indices of every instruction the wire's content depends on: build the
    per-wire predecessor lists, then search back from the wire's own
    instructions."""
    preds: list[tuple[int, ...]] = []
    last: dict[int, int] = {}
    seeds: list[int] = []
    for i, x in enumerate(instructions):
        wires = _wires(x)
        preds.append(tuple(last[w] for w in wires if w in last))
        for w in wires:
            last[w] = i
        if wire in wires:
            seeds.append(i)
    closure: set[int] = set()
    stack = list(seeds)
    while stack:
        i = stack.pop()
        if i in closure:
            continue
        closure.add(i)
        stack.extend(p for p in preds[i] if p not in closure)
    return closure


def reference_reuse_pair(wires: tuple[int, ...], dep: dict[int, int],
                         rng: random.Random):
    """The seeded reuse choice over the listed reusable (w_t, w_s) pairs,
    w_t-major in wire order, or None if there is none."""
    candidates = [(w_t, w_s) for w_t in wires for w_s in wires
                  if w_s != w_t and not dep.get(w_t, 0) & (1 << w_s)]
    return rng.choice(candidates) if candidates else None


# ---------------------------------------------------------------------------
# the qubit reuser before one-pass merging

def reference_closure_of_wire(instructions: list, wire: int) -> set[int]:
    """Indices of all instructions the given wire's content depends on,
    including the wire's own instructions, from one reverse walk: an
    instruction joins when it shares a wire with one that already joined
    (or acts on ``wire``)."""
    needed = {wire}
    closure: set[int] = set()
    for i in range(len(instructions) - 1, -1, -1):
        wires = element_wires(instructions[i])
        if not needed.isdisjoint(wires):
            closure.add(i)
            needed.update(wires)
    return closure


def _reference_relabel_wire(x, src: int, dst: int):
    if isinstance(x, VirtualSide):
        return replace(x, qubit=dst) if x.qubit == src else x
    if isinstance(x, Gate2):
        if src in x.qubits:
            return replace(x, qubits=tuple(dst if q == src else q for q in x.qubits))
        return x
    if src in x.qubits:
        return x.remap({q: (dst if q == src else q) for q in x.qubits})
    return x


def reference_merge_wires(vc, target: int, source: int) -> None:
    """Measure and reset the target wire, then run the source wire on it:
    the stream becomes [everything the target wire depends on] [reset
    target] [the rest, with the source wire relabeled]."""
    closure = reference_closure_of_wire(vc.instructions, target)
    head = [x for i, x in enumerate(vc.instructions) if i in closure]
    tail = [_reference_relabel_wire(x, source, target)
            for i, x in enumerate(vc.instructions) if i not in closure]
    vc.instructions = head + [instr("reset", target)] + tail
    for q, w in vc.wire_of.items():
        if w == source:
            vc.wire_of[q] = target


def reference_reuse_qubits(vc, cfg):
    """Qubit reuse that sweeps the whole stream for wire dependency masks
    before each merge and rewrites the stream at each merge."""
    from gatevm.passes import WidthUnreachableError, _reuse_pair

    rng = random.Random(cfg.seed)
    out = vc.copy()
    for frag_index in range(len(out.fragments)):
        while True:
            frag = out.fragments[frag_index]
            if frag.width <= cfg.max_fragment_size:
                break
            dep = dependency_masks(map(element_wires, out.instructions))
            pair = _reuse_pair(frag.wires, dep, rng)
            if pair is None:
                raise WidthUnreachableError(
                    f"fragment {frag.index} stuck at width {frag.width} > "
                    f"{cfg.max_fragment_size}: no reusable wire pair")
            reference_merge_wires(out, *pair)
    return out


_SELF_INVERSE = frozenset({"h", "x", "y", "z", "cx", "cz"})
_MERGEABLE = frozenset({"rx", "ry", "rz", "rzz"})


def reference_peephole(pc: ParamCircuit) -> ParamCircuit:
    """Peephole optimization in rounds until nothing changes. Each round
    maps every element to its follower per wire, then cancels self-inverse
    pairs and merges same-axis rotations (dropped below 1e-12) that follow
    each other on all their wires."""
    els = list(pc.elements)
    changed = True
    while changed:
        changed = False
        follower = [dict() for _ in els]  # wire -> next element index
        last: dict[int, int] = {}
        for i, el in enumerate(els):
            for w in _wires(el):
                if w in last:
                    follower[last[w]][w] = i
                last[w] = i
        remove: set[int] = set()
        retune: dict[int, float] = {}
        for i, el in enumerate(els):
            if i in remove or isinstance(el, Placeholder):
                continue
            if el.kind not in _SELF_INVERSE and el.kind not in _MERGEABLE:
                continue
            nexts = {follower[i].get(w) for w in el.qubits}
            if len(nexts) != 1 or None in nexts:
                continue
            j = nexts.pop()
            if j in remove or isinstance(els[j], Placeholder):
                continue
            other = els[j]
            if other.kind != el.kind:
                continue
            same_pair = (other.qubits == el.qubits or
                         (el.kind in ("rzz", "cz") and
                          set(other.qubits) == set(el.qubits)))
            if not same_pair:
                continue
            if el.kind in _SELF_INVERSE:
                remove.update((i, j))
            else:
                total = el.angle + other.angle
                remove.add(j)
                if abs(total) < 1e-12:
                    remove.add(i)
                else:
                    retune[i] = total
            changed = True
        if changed:
            els = [replace(el, angle=retune[i]) if i in retune else el
                   for i, el in enumerate(els) if i not in remove]
    return ParamCircuit(pc.num_qubits, els, pc.clbit_map, pc.qubit_map,
                        pc.fragment_index, pc.name)


# ---------------------------------------------------------------------------
# fragment lowerings before ParamCircuit.lowered, when the actions were a
# list beside the placeholders that each lowering walked with a counter

def reference_instantiate(pc: ParamCircuit, assignment: dict[int, int]) -> Circuit:
    """The concrete circuit of one choice of decomposition index per gate."""
    out: list[Instruction] = []
    ph_idx = 0
    for el in pc.elements:
        if isinstance(el, Placeholder):
            action = pc.param_vectors[ph_idx][assignment[el.gate_id]]
            out.extend(action.to_instructions(el.qubit))
            ph_idx += 1
        else:
            out.append(el)
    return Circuit(pc.num_qubits, out, name=pc.name,
                   num_clbits=pc.num_clbits).validate()


def reference_slot_circuit(pc: ParamCircuit, gate_ids: list[int]) -> Circuit:
    """The batched circuit ``runtime.execute`` runs for a fragment touched
    by ``gate_ids``: each placeholder a Slot at its gate's stride."""
    kj = len(gate_ids)
    stride = {gid: 6 ** (kj - 1 - t) for t, gid in enumerate(gate_ids)}
    vectors = iter(pc.param_vectors)
    return Circuit(pc.num_qubits, [
        Slot(el.qubit, next(vectors), stride[el.gate_id])
        if isinstance(el, Placeholder) else el for el in pc.elements],
        name=pc.name, num_clbits=pc.num_clbits)


# ---------------------------------------------------------------------------
# the statevector engine's replaced branch path

def reference_apply(amps: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...],
                    n: int, node: np.ndarray) -> np.ndarray:
    """Apply a gate to each row of ``amps`` (rows, 2^n) bit for bit as a run
    of the row's node alone does, which makes one BLAS product over that
    node's rows (``node`` names each row's node, nondecreasing).
    Rows giving the product four or more columns each come out the same in
    one product over all rows; narrower ones get a product per node,
    batched over nodes with equal row counts. Two-qubit matrices index
    bit(first) + 2 * bit(second)."""
    k, d, width = len(qubits), len(mat), (1 << n) >> len(qubits)
    axes = [n - q for q in reversed(qubits)]
    t = amps.reshape([-1] + [2] * n)
    if width >= 4:
        out = np.tensordot(mat.reshape([2] * 2 * k), t,
                           (list(range(k, 2 * k)), axes))
        return np.moveaxis(out, list(range(k)), axes).reshape(amps.shape)
    t = np.moveaxis(t, axes, list(range(1, k + 1)))
    rows, out = t.reshape(len(amps), d, width), np.empty(t.shape, dtype=complex)
    starts = np.flatnonzero(np.diff(node, prepend=-1))
    sizes = np.diff(np.append(starts, len(node)))
    for size in np.unique(sizes).tolist():
        group = (starts[sizes == size][:, None] + np.arange(size)).ravel()
        block = rows[group].reshape(-1, size, d, width).transpose(0, 2, 1, 3)
        prod = np.matmul(mat, block.reshape(len(block), d, -1))
        out[group] = prod.reshape(block.shape).transpose(0, 2, 1, 3).reshape(
            (len(group),) + t.shape[1:])
    return np.moveaxis(out, list(range(1, k + 1)), axes).reshape(amps.shape)


def reference_branch_norms(amps: np.ndarray, q: int) -> np.ndarray:
    """Squared norm of each row's qubit-``q`` = 0 and = 1 halves, as a
    strided sum over the (rows, 2^n) amplitudes."""
    rows, size = amps.shape
    halves = amps.reshape(rows, size >> (q + 1), 2, 1 << q)
    return (np.abs(halves) ** 2).sum(axis=(1, 3))


def _reference_pair_outcomes(ev, read_map: dict[int, int]):
    """Node, key, sign and probability of every (row, basis state) pair
    with nonzero probability, row by row."""
    probs = np.abs(ev.amps) ** 2
    row, idx = np.nonzero(probs > 1e-30)
    node, keys = ev.node[row], ev.recorded[row]
    reads = ev.reads[node] & idx
    for q, c in read_map.items():
        keys |= ((reads >> q) & 1) << c
    flips = np.bitwise_count(idx & ev.sign_mask[node]) & 1
    signs = np.where(flips == 1, -ev.signs[row], ev.signs[row])
    return node, keys, signs, probs[row, idx]


def reference_distributions(ev, read_map: dict[int, int], num_bits: int) -> list:
    """Each node's exact signed distribution: one sort of every nonzero
    (row, basis state) pair by (node, key), summed per pair in row order."""
    from gatevm.sim import SignedDistribution

    node, keys, signs, probs = _reference_pair_outcomes(ev, read_map)
    mask = (1 << num_bits) - 1
    nodes = np.arange(len(ev.reads) + 1)
    pairs, index = np.unique((node << num_bits) | keys, return_inverse=True)
    sums = np.bincount(index, weights=signs * probs)
    keep = np.abs(sums) >= 1e-14
    pairs, sums = pairs[keep], sums[keep]
    edges = np.searchsorted(pairs >> num_bits, nodes).tolist()
    return [SignedDistribution.from_arrays(pairs[a:b] & mask, sums[a:b], num_bits)
            for a, b in zip(edges, edges[1:])]


# ---------------------------------------------------------------------------
# per-instance reference execution

def _tensordot_1q(amps: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    t = amps.reshape([-1] + [2] * n)
    t = np.tensordot(mat, t, axes=([1], [n - q]))
    return np.moveaxis(t, 0, n - q).reshape(amps.shape)


def _tensordot_2q(amps: np.ndarray, mat4: np.ndarray, qa: int, qb: int,
                  n: int) -> np.ndarray:
    t = amps.reshape([-1] + [2] * n)
    m = mat4.reshape(2, 2, 2, 2)  # (b_out, a_out, b_in, a_in)
    t = np.tensordot(m, t, axes=([2, 3], [n - qb, n - qa]))
    return np.moveaxis(t, [0, 1], [n - qb, n - qa]).reshape(amps.shape)


def _reference_outcomes(c: Circuit):
    """One circuit's branches as rows of one amplitude array. A measurement
    whose qubit has no later operation in this circuit is read at the end;
    any other measurement or reset replaces every row by its outcome-0 row
    and then its outcome-1 row, dropping rows of squared norm below 1e-30.
    Returns keys, signs and probabilities of every (row, basis state) pair
    in row order, and the key width."""
    from gatevm.sim import gate_matrix, two_qubit_matrix

    c.validate()
    n = c.num_qubits
    records = any(i.kind == "measure" and i.clbit is not None
                  for i in c.instructions)
    last: dict[int, int] = {}
    for i, ins in enumerate(c.instructions):
        if ins.kind != "barrier":
            for q in ins.qubits:
                last[q] = i
    amps = np.zeros((1, 1 << n), dtype=complex)
    amps[0, 0] = 1.0
    signs = np.ones(1, dtype=np.int64)
    recorded = np.zeros(1, dtype=np.int64)
    read: list[tuple[int, int]] = []
    sign_mask = 0
    for i, ins in enumerate(c.instructions):
        if ins.kind == "barrier":
            continue
        if ins.kind in GATES_2Q:
            amps = _tensordot_2q(amps, two_qubit_matrix(ins.kind, ins.angle),
                                 *ins.qubits, n)
            continue
        if ins.kind not in ("measure", "reset"):
            amps = _tensordot_1q(amps, gate_matrix(ins.kind, ins.angle),
                                 ins.qubits[0], n)
            continue
        q = ins.qubits[0]
        if ins.kind == "measure" and last[q] == i:
            if ins.clbit is not None:
                read.append((q, ins.clbit))
            if ins.sign:
                sign_mask |= 1 << q
            continue
        rows, size = amps.shape
        halves = amps.reshape(rows, size >> (q + 1), 2, 1 << q)
        norms = (np.abs(halves) ** 2).sum(axis=(1, 3))
        parent, outcome = np.nonzero(norms >= 1e-30)
        split = np.zeros((len(parent),) + halves.shape[1:], dtype=complex)
        target = np.zeros_like(outcome) if ins.kind == "reset" else outcome
        split[np.arange(len(parent)), :, target, :] = halves[parent, :, outcome, :]
        amps = split.reshape(len(parent), size)
        signs = signs[parent]
        recorded = recorded[parent]
        if ins.kind == "measure":
            if ins.sign:
                signs = np.where(outcome == 1, -signs, signs)
            if ins.clbit is not None:
                recorded = recorded | (outcome << ins.clbit)
    if not records:
        read = [(q, q) for q in range(n)]
    probs = np.abs(amps) ** 2
    row, idx = np.nonzero(probs > 1e-30)
    keys = recorded[row]
    for q, cb in read:
        keys |= ((idx >> q) & 1) << cb
    flips = np.array([bin(int(x)).count("1") & 1 for x in idx & sign_mask],
                     dtype=np.int64)
    signs = np.where(flips == 1, -signs[row], signs[row])
    return keys, signs, probs[row, idx], c.num_clbits if records else n


def reference_run(c: Circuit, shots: int | None = None, seed: int = 0):
    """Signed distribution of one circuit, exact (``shots`` None) or from
    seeded shots drawn over its (branch, basis state) pairs in row order."""
    from gatevm.sim import SignedDistribution

    keys, signs, probs, num_bits = _reference_outcomes(c)
    if shots is None:
        weights = signs * probs
    else:
        drawn = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
        weights = signs * drawn
    out: dict[int, float] = {}
    for key, w in zip(keys.tolist(), weights.tolist()):
        out[key] = out.get(key, 0.0) + w
    if shots is None:
        return SignedDistribution(
            {k: v for k, v in out.items() if abs(v) >= 1e-14}, num_bits)
    return SignedDistribution(
        {k: v / shots for k, v in out.items() if v != 0}, num_bits)


def reference_execute(program, mode: str = "exact", shots: int = 20000,
                      seed: int = 0) -> list[list]:
    """Per fragment, the distribution of every instance in enumeration order
    (last gate fastest), each instance built as its own circuit and run
    alone; sampled mode seeds instance i of fragment f from
    SeedSequence((seed, f, i))."""
    import itertools

    out = []
    for pc in program.fragments:
        gate_ids = pc.touching_gates(program.gate_order)
        dists = []
        for i, digits in enumerate(itertools.product(range(6),
                                                     repeat=len(gate_ids))):
            circuit = pc.instantiate(dict(zip(gate_ids, digits)))
            if mode == "exact":
                dists.append(reference_run(circuit))
            else:
                ss = np.random.SeedSequence((seed, pc.fragment_index, i))
                dists.append(reference_run(circuit, shots,
                                           int(ss.generate_state(1)[0])))
        out.append(dists)
    return out


def _reference_greedy_layout(c: Circuit, coupling: nx.Graph,
                             distances: dict) -> dict[int, int]:
    """Greedy subgraph matching of the interaction graph onto the coupling
    graph: highest-degree logical qubits first, each placed to maximize
    adjacency to its already-placed neighbors, preferring close spots with
    the most remaining room. Fully deterministic."""
    from gatevm.transpiler import _interaction_graph

    inter = _interaction_graph(c)
    order = sorted(inter.nodes,
                   key=lambda q: (-sum(d["weight"] for d in inter[q].values()), q))
    layout: dict[int, int] = {}
    free = set(coupling.nodes)
    for logical in order:
        placed_nb = [layout[nb] for nb in inter[logical] if nb in layout]
        best_score = None
        best = None
        for p in sorted(free):
            adjacency = sum(1 for pn in placed_nb if coupling.has_edge(p, pn))
            dist = sum(distances[p].get(pn, len(coupling)) for pn in placed_nb)
            room = sum(1 for nb in coupling[p] if nb in free)
            score = (adjacency, -dist, room, -p)
            if best_score is None or score > best_score:
                best_score, best = score, p
        layout[logical] = best
        free.discard(best)
    return layout


def reference_map_and_route(c: Circuit, qpu, seed: int = 0):
    """The router that builds the coupling graph, runs an all-pairs BFS and
    finds each SWAP path with ``nx.shortest_path`` on every call."""
    from gatevm.circuit import Instruction, instr
    from gatevm.transpiler import PhysicalCircuit, TranspileError

    c.validate()
    if c.num_qubits > qpu.num_qubits:
        raise TranspileError(
            f"circuit needs {c.num_qubits} qubits, QPU {qpu.name} has "
            f"{qpu.num_qubits}")
    coupling = coupling_graph(qpu)
    distances = dict(nx.all_pairs_shortest_path_length(coupling))
    layout = _reference_greedy_layout(c, coupling, distances)

    l2p = dict(layout)
    p2l = {p: l for l, p in l2p.items()}
    out: list[Instruction] = []
    swaps = 0
    has_measure = any(ins.kind == "measure" for ins in c.instructions)

    def emit_swap(pa: int, pb: int) -> None:
        nonlocal swaps
        out.extend([instr("cx", pa, pb), instr("cx", pb, pa), instr("cx", pa, pb)])
        swaps += 1
        la, lb = p2l.get(pa), p2l.get(pb)
        if la is not None:
            l2p[la] = pb
        if lb is not None:
            l2p[lb] = pa
        p2l[pa], p2l[pb] = lb, la

    for ins in c.instructions:
        if ins.kind in GATES_2Q:
            a, b = (l2p[q] for q in ins.qubits)
            if not coupling.has_edge(a, b):
                if b not in distances[a]:
                    raise TranspileError(
                        f"qubits {ins.qubits} are not connected on {qpu.name}")
                path = nx.shortest_path(coupling, a, b)
                for nxt in path[1:-1]:
                    emit_swap(l2p[ins.qubits[0]], nxt)
                a, b = (l2p[q] for q in ins.qubits)
            out.append(Instruction(ins.kind, (a, b), ins.angle))
        else:
            out.append(ins.remap({q: l2p[q] for q in ins.qubits}))

    if not has_measure:
        for q in range(c.num_qubits):
            out.append(instr("measure", l2p[q], clbit=q))
        num_clbits = c.num_qubits
    else:
        num_clbits = c.num_clbits
    routed = Circuit(qpu.num_qubits, out, name=f"{c.name}@{qpu.name}",
                     num_clbits=num_clbits).validate()
    return PhysicalCircuit(routed, layout, dict(l2p), swaps)


def reference_esp(pc, qpu) -> float:
    """Product of (1 - e_op) over every gate, measurement and reset, with
    the rate looked up for each instruction."""
    c = getattr(pc, "circuit", pc)
    value = 1.0
    for ins in c.instructions:
        if ins.kind == "barrier":
            continue
        value *= 1.0 - qpu.rate_for(ins.kind, len(ins.qubits))
    return value


def reference_schedule(program, qpus, alpha: float, beta: float,
                       seed: int = 0) -> dict[int, str]:
    """The scheduler that routes each fragment once per coupling map, keyed
    by a per-candidate networkx graph, and computes every candidate's ESP."""
    from gatevm.runtime import NoFittingQpuError, metric_proxy

    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be >= 0")
    assignment: dict[int, str] = {}
    for pc in program.fragments:
        candidates = sorted((q for q in qpus if q.num_qubits >= pc.num_qubits),
                            key=lambda q: q.name)
        if not candidates:
            raise NoFittingQpuError(
                f"no QPU fits fragment {pc.fragment_index} "
                f"({pc.num_qubits} qubits)")
        proxy = metric_proxy(pc)
        max_queue = max(q.queue_length for q in qpus)
        best = None
        best_score = None
        routed = {}
        for qpu in candidates:
            coupling = (qpu.num_qubits, frozenset(coupling_graph(qpu).edges))
            if coupling not in routed:
                routed[coupling] = reference_map_and_route(proxy, qpu, seed)
            success = reference_esp(routed[coupling], qpu)
            wait = qpu.queue_length / max_queue if max_queue > 0 else 0.0
            score = alpha * (1.0 - wait) + beta * success
            if best_score is None or score > best_score:
                best, best_score = qpu, score
        assignment[pc.fragment_index] = best.name
        best.queue_length += 6 ** len(pc.touching_gates(program.gate_order))
    return assignment


def bench_family_configs(rng: random.Random, count: int, max_qubits: int = 16):
    """``count`` pairs of an IR after the cutter and the dependency reducer
    and its pass settings, for random bench-family circuits under random
    settings (pass seeds 0-2); specs the generator refuses are skipped."""
    from gatevm.bench import (FAMILIES, BenchmarkError, BenchmarkSpec,
                              generate_benchmark)
    from gatevm.passes import PassConfig, run_pipeline
    from gatevm.vc import from_circuit

    configs = []
    while len(configs) < count:
        n = rng.randint(4, max_qubits)
        spec = BenchmarkSpec(rng.choice(FAMILIES), n, rng.randint(1, 3),
                             seed=rng.randrange(100))
        cfg = PassConfig(max_fragment_size=rng.randint(2, n - 1),
                         budget=rng.randint(0, 4), seed=rng.randrange(3))
        try:
            circuit = generate_benchmark(spec)
        except BenchmarkError:
            continue
        configs.append((run_pipeline(from_circuit(circuit), cfg, ("cc", "dr")), cfg))
    return configs


def bench_family_programs(rng: random.Random, count: int, max_qubits: int = 16):
    """``count`` compiled programs of random bench-family circuits under
    random pass settings; specs and settings that are refused are skipped."""
    from gatevm.bench import (FAMILIES, BenchmarkError, BenchmarkSpec,
                              generate_benchmark)
    from gatevm.codegen import generate
    from gatevm.passes import (PassConfig, WidthUnreachableError,
                               WireSplitError, run_pipeline)
    from gatevm.vc import from_circuit

    programs = []
    while len(programs) < count:
        n = rng.randint(4, max_qubits)
        spec = BenchmarkSpec(rng.choice(FAMILIES), n, rng.randint(1, 3),
                             seed=rng.randrange(100))
        cfg = PassConfig(max_fragment_size=rng.randint(2, n - 1),
                         budget=rng.randint(0, 4), seed=rng.randrange(3))
        try:
            programs.append(generate(run_pipeline(
                from_circuit(generate_benchmark(spec)), cfg)))
        except (BenchmarkError, WidthUnreachableError, WireSplitError):
            continue
    return programs


# ---------------------------------------------------------------------------
# program files that must be refused

def ghz6_program_json() -> str:
    """GHZ-6 under cc, dr, qr at s=3, b=3: fragments 0 and 1 each hold one
    side of the one virtual gate."""
    from gatevm.bench import BenchmarkSpec, generate_benchmark
    from gatevm.codegen import generate, program_to_json
    from gatevm.passes import PassConfig, run_pipeline
    from gatevm.vc import from_circuit

    circuit = generate_benchmark(BenchmarkSpec("ghz", 6))
    return program_to_json(generate(run_pipeline(from_circuit(circuit),
                                                 PassConfig(3, 3))))


def refuse_instances(monkeypatch) -> None:
    """Make ``runtime.run_batch`` fail if any fragment instance runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("an instance ran")

    monkeypatch.setattr(runtime, "run_batch", refuse)


def program_mutations(doc: dict):
    """(label, mutated copy, expected CodegenError message) for mutations of
    a program document with one virtual gate whose side a is fragment 0's
    only placeholder and side b fragment 1's. Each used to load: some ran
    to a wrong answer, some to the right one, and the rest stopped with a
    bare KeyError or only in the knit, after every fragment had run."""
    from gatevm.qasm import parse_qasm

    (gate,) = doc["gate_order"]
    names = [f"fragment {f['fragment_index']} ({f['name']})" for f in doc["fragments"]]
    ends = [len(parse_qasm(f["qasm"]).instructions) for f in doc["fragments"]]

    def mutated(change):
        copy = json.loads(json.dumps(doc))
        change(copy)
        return copy

    def frag(j, change):
        return lambda d: change(d["fragments"][j])

    def placeholder(j, key, value):
        return frag(j, lambda f: f["placeholders"][0].update({key: value}))

    def drop_side(f):
        f["placeholders"].pop()
        f["param_vectors"].pop()

    def set_coeff(value):
        return lambda d: d["coeff_vectors"][str(gate)].__setitem__(0, value)

    def side_a_twice(d):
        first, second = d["fragments"][:2]
        second["placeholders"][0]["side"] = "a"
        second["param_vectors"] = first["param_vectors"]

    coeffs = f"coeff_vectors of gate {gate} differ from its decomposition's coefficients"
    yield from ((label, mutated(change), message) for label, change, message in (
        ("drop-side-a", frag(0, drop_side),
         f"gate {gate} has placeholder sides ['b'], not one 'a' and one 'b'"),
        ("drop-side-b", frag(1, drop_side),
         f"gate {gate} has placeholder sides ['a'], not one 'a' and one 'b'"),
        ("side-a-twice", side_a_twice,
         f"gate {gate} has placeholder sides ['a', 'a'], not one 'a' and one 'b'"),
        ("position-99", placeholder(1, "position", 99),
         f"{names[1]} records placeholder positions [99], but they land at [{ends[1]}]"),
        ("position-minus-1", placeholder(0, "position", -1),
         f"{names[0]} records placeholder positions [-1], but they land at "
         f"[{ends[0] - 1}]"),
        ("nan-coefficient", set_coeff(float("nan")), coeffs),
        ("changed-coefficient", set_coeff(0.25), coeffs),
        ("five-coefficients", lambda d: d["coeff_vectors"][str(gate)].pop(), coeffs),
        ("changed-action", frag(0, lambda f: f["param_vectors"][0].__setitem__(
            0, [{"kind": "x"}])),
         f"{names[0]} param_vectors[0] differ from side a of gate {gate}'s "
         f"decomposition"),
        ("unknown-gate", placeholder(1, "gate", 99),
         f"{names[1]} has a placeholder of unknown gate 99"),
        ("side-x", placeholder(1, "side", "x"),
         f"{names[1]} has a placeholder side 'x', not 'a' or 'b'"),
        ("empty-gate-order", lambda d: d["gate_order"].clear(),
         f"gate_order [] does not list the gates of virtual_gates, [{gate}]"),
        ("repeated-gate", lambda d: d["gate_order"].append(gate),
         f"gate_order [{gate}, {gate}] repeats a gate"),
        ("extra-coefficient-vector",
         lambda d: d["coeff_vectors"].update({"99": d["coeff_vectors"][str(gate)]}),
         f"gate_order [{gate}] does not list the gates of coeff_vectors, [{gate}, 99]"),
    ))


# ---------------------------------------------------------------------------
# the QASM parser before the statement scanner

_REF_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>//[^\n]*)"
    r"|(?P<real>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<arrow>->)"
    r"|(?P<str>\"[^\"]*\")"
    r"|(?P<sym>[()\[\]{},;+\-*/^=<>.])"
)

_REF_KEYWORDS = {"OPENQASM", "qreg", "creg", "measure", "reset", "barrier", "include"}


class _RefToken:
    __slots__ = ("text", "line", "column")

    def __init__(self, text: str, line: int, column: int):
        self.text = text
        self.line = line
        self.column = column


def _ref_tokenize(text: str) -> list[_RefToken]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise QasmSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup not in ("ws", "comment"):
            tokens.append(_RefToken(lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    return tokens


class _RefParser:
    def __init__(self, tokens: list[_RefToken]):
        self.tokens = tokens
        self.pos = 0

    def _here(self) -> tuple[int, int]:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            return t.line, t.column
        if self.tokens:
            t = self.tokens[-1]
            return t.line, t.column + len(t.text)
        return 1, 1

    def peek(self) -> str | None:
        return self.tokens[self.pos].text if self.pos < len(self.tokens) else None

    def next(self, expected: str | None = None) -> _RefToken:
        if self.pos >= len(self.tokens):
            line, col = self._here()
            raise QasmSyntaxError(
                f"unexpected end of input (expected {expected or 'token'})", line, col
            )
        tok = self.tokens[self.pos]
        if expected is not None and tok.text != expected:
            raise QasmSyntaxError(
                f"expected {expected!r}, got {tok.text!r}", tok.line, tok.column
            )
        self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


def _ref_eval_angle(expr_text: str, line: int, col: int) -> float:
    try:
        tree = ast.parse(expr_text, mode="eval")
    except SyntaxError:
        raise QasmSyntaxError(f"bad angle expression {expr_text!r}", line, col)

    def ev(node) -> float:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            return a / b
        raise QasmSyntaxError(f"bad angle expression {expr_text!r}", line, col)

    return ev(tree)


def reference_parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """The token-level parser that the statement scanner replaced: tokenize
    the whole text, then parse the token list. Raises the frontend's error
    classes at the same lines and columns."""
    p = _RefParser(_ref_tokenize(text))
    tok = p.next("OPENQASM")
    version = p.next()
    if version.text != "2.0":
        raise QasmSyntaxError(f"unsupported version {version.text!r}",
                              version.line, version.column)
    p.next(";")

    qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
    cregs: dict[str, tuple[int, int]] = {}
    num_qubits = 0
    num_clbits = 0
    instructions: list[Instruction] = []

    def parse_ref(regs: dict[str, tuple[int, int]], what: str) -> int:
        tok = p.next()
        if tok.text not in regs:
            raise QasmSyntaxError(f"unknown {what} register {tok.text!r}",
                                  tok.line, tok.column)
        offset, size = regs[tok.text]
        p.next("[")
        idx_tok = p.next()
        if not idx_tok.text.isdigit():
            raise QasmSyntaxError(f"expected index, got {idx_tok.text!r}",
                                  idx_tok.line, idx_tok.column)
        idx = int(idx_tok.text)
        if idx >= size:
            raise QasmIndexError(
                f"index {idx} out of range for {what} register "
                f"{tok.text!r} of size {size}", idx_tok.line, idx_tok.column)
        p.next("]")
        return offset + idx

    while not p.at_end():
        head = p.next()
        if head.text == "qreg" or head.text == "creg":
            name_tok = p.next()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name_tok.text):
                raise QasmSyntaxError(f"bad register name {name_tok.text!r}",
                                      name_tok.line, name_tok.column)
            p.next("[")
            size_tok = p.next()
            if not size_tok.text.isdigit():
                raise QasmSyntaxError(f"expected register size, got {size_tok.text!r}",
                                      size_tok.line, size_tok.column)
            size = int(size_tok.text)
            p.next("]")
            p.next(";")
            if head.text == "qreg":
                if name_tok.text in qregs:
                    raise QasmSyntaxError(f"duplicate qreg {name_tok.text!r}",
                                          name_tok.line, name_tok.column)
                qregs[name_tok.text] = (num_qubits, size)
                num_qubits += size
            else:
                if name_tok.text in cregs:
                    raise QasmSyntaxError(f"duplicate creg {name_tok.text!r}",
                                          name_tok.line, name_tok.column)
                cregs[name_tok.text] = (num_clbits, size)
                num_clbits += size
        elif head.text == "include":
            raise QasmSyntaxError("include statements are not supported",
                                  head.line, head.column)
        elif head.text == "measure":
            q = parse_ref(qregs, "quantum")
            p.next("->")
            c = parse_ref(cregs, "classical")
            p.next(";")
            instructions.append(instr("measure", q, clbit=c))
        elif head.text == "reset":
            q = parse_ref(qregs, "quantum")
            p.next(";")
            instructions.append(instr("reset", q))
        elif head.text == "barrier":
            qs = [parse_ref(qregs, "quantum")]
            if p.peek() == ",":
                p.next(",")
                qs.append(parse_ref(qregs, "quantum"))
            p.next(";")
            instructions.append(instr("barrier", *qs))
        elif head.text in GATES_1Q or head.text in GATES_2Q:
            kind = head.text
            angle = None
            if p.peek() == "(":
                p.next("(")
                start_tok = p.next()
                parts, depth, prev = [start_tok.text], 0, start_tok
                while True:
                    nxt = p.peek()
                    if nxt is None:
                        raise QasmSyntaxError("unterminated angle expression",
                                              start_tok.line, start_tok.column)
                    if nxt == "(":
                        depth += 1
                    elif nxt == ")":
                        if depth == 0:
                            break
                        depth -= 1
                    tok = p.next()
                    # A blank or comment between two tokens stays a blank,
                    # so that tokens it separates cannot join into one.
                    gap = (tok.line, tok.column) != (prev.line, prev.column + len(prev.text))
                    parts.append(" " * gap + tok.text)
                    prev = tok
                p.next(")")
                angle = _ref_eval_angle("".join(parts), start_tok.line, start_tok.column)
            if angle is None and kind in ROTATIONS:
                raise QasmSyntaxError(f"{kind} requires an angle", head.line, head.column)
            if angle is not None and kind not in ROTATIONS:
                raise QasmSyntaxError(f"{kind} takes no angle", head.line, head.column)
            qs = [parse_ref(qregs, "quantum")]
            while p.peek() == ",":
                p.next(",")
                qs.append(parse_ref(qregs, "quantum"))
            p.next(";")
            want = 2 if kind in GATES_2Q else 1
            if len(qs) != want:
                raise QasmSyntaxError(
                    f"{kind} takes {want} qubit argument(s), got {len(qs)}",
                    head.line, head.column)
            if want == 2 and qs[0] == qs[1]:
                raise QasmSyntaxError(f"{kind} qubits must be distinct",
                                      head.line, head.column)
            instructions.append(instr(kind, *qs, angle=angle))
        elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", head.text) and \
                head.text not in _REF_KEYWORDS:
            raise UnsupportedGateError(head.text, head.line, head.column)
        else:
            raise QasmSyntaxError(f"unexpected token {head.text!r}",
                                  head.line, head.column)

    return Circuit(num_qubits, instructions, name=name,
                   num_clbits=num_clbits).validate()
