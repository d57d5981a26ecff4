"""Independent oracles and generators for the test suite.

Everything here is deliberately implemented with different machinery than
the package under test: dense Kronecker-product unitaries, density-matrix
channel evolution, unpruned partition enumeration, a Floyd-Warshall
reachability closure, and a knitter that loops over global instances in
plain Python with dict accumulation.
"""
from __future__ import annotations

import math
import random

import numpy as np

from gatevm.circuit import Circuit, GATES_2Q

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
