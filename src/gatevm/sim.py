"""Statevector execution engine for circuit fragments.

All mid-circuit-measurement branches of a run live in one amplitude array
with a branch axis, so each gate is applied once to the whole batch; a
mid-circuit measurement or reset replaces every row by its outcome-0 row
and then its outcome-1 row. Exact mode returns a signed outcome
distribution; sampled mode draws seeded shots from the exact joint branch
distribution, which is statistically identical to per-shot collapse.
Results hold int64 key arrays with their values, and dict views for the
edge. Also hosts the Choi-matrix channel oracle that validates
quasi-probability gate decompositions.

Bit order: qubit 0 is the least significant bit of every bitstring key.
Every run owns its state; there is no shared mutable state between runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import Circuit, GATES_1Q, GATES_2Q, Instruction
from .decomp import GateDecomposition, LocalAction

MAX_QUBITS = 26
_PRUNE_NORM_SQ = 1e-30
_OUTPUT_EPS = 1e-14


class SimulationError(RuntimeError):
    """Raised for circuits the engine cannot execute."""


# ---------------------------------------------------------------------------
# distributions

class SignedDistribution:
    """Signed weights over ``num_bits`` output bits: unique int64 ``keys`` in
    any order with float64 ``values``. ``entries`` is a read-only dict view in
    ascending key order, built on first access."""

    def __init__(self, entries: dict[int, float], num_bits: int):
        self.keys = np.fromiter(entries, np.int64, len(entries))
        self.values = np.fromiter(entries.values(), np.float64, len(entries))
        self.num_bits = num_bits

    @classmethod
    def from_arrays(cls, keys: np.ndarray, values: np.ndarray,
                    num_bits: int) -> "SignedDistribution":
        """Wrap unique int64 keys and their float64 values without copying."""
        dist = cls({}, num_bits)
        dist.keys, dist.values = keys, values
        return dist

    @cached_property
    def entries(self) -> dict[int, float]:
        order = np.argsort(self.keys)
        return dict(zip(self.keys[order].tolist(), self.values[order].tolist()))

    def __getitem__(self, key: int) -> float:
        return self.entries.get(key, 0.0)

    def total(self) -> float:
        return sum(self.entries.values())

    def bitstring(self, key: int) -> str:
        return format(key, f"0{max(self.num_bits, 1)}b")

    def as_strings(self) -> dict[str, float]:
        return {self.bitstring(k): v for k, v in self.entries.items()}

    @classmethod
    def from_strings(cls, data: dict[str, float]) -> "SignedDistribution":
        num_bits = max((len(s) for s in data), default=1)
        return cls({int(s, 2): float(v) for s, v in data.items()}, num_bits)

    def clipped_probabilities(self) -> dict[int, float]:
        """Clip negative quasi-probability mass to 0 and renormalize."""
        clipped = {k: v for k, v in self.entries.items() if v > 0.0}
        norm = sum(clipped.values())
        if norm <= 0.0:
            raise SimulationError("distribution has no positive mass")
        return {k: v / norm for k, v in clipped.items()}


@dataclass
class ShotCounts:
    """Sampling result over the drawn bitstrings: unique int64 ``keys`` with
    raw and sign-weighted int64 counts, and dict views of both."""

    keys: np.ndarray
    hits: np.ndarray
    signed: np.ndarray
    shots: int
    num_bits: int

    @property
    def counts(self) -> dict[int, int]:
        return dict(zip(self.keys.tolist(), self.hits.tolist()))

    @property
    def signed_sum(self) -> dict[int, int]:
        return dict(zip(self.keys.tolist(), self.signed.tolist()))

    def to_signed_distribution(self) -> SignedDistribution:
        nz = self.signed != 0
        return SignedDistribution.from_arrays(
            self.keys[nz], self.signed[nz] / self.shots, self.num_bits)


def linf_distance(a: SignedDistribution, b: SignedDistribution) -> float:
    keys = set(a.entries) | set(b.entries)
    return max((abs(a[k] - b[k]) for k in keys), default=0.0)


def l1_distance(a: SignedDistribution, b: SignedDistribution) -> float:
    keys = set(a.entries) | set(b.entries)
    return sum(abs(a[k] - b[k]) for k in keys)


def total_variation(a: SignedDistribution, b: SignedDistribution) -> float:
    return 0.5 * l1_distance(a, b)


# ---------------------------------------------------------------------------
# gate matrices

_SQ2 = 1.0 / math.sqrt(2.0)
_FIXED_1Q = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}


def gate_matrix(kind: str, angle: float | None = None) -> np.ndarray:
    """2x2 unitary for a one-qubit gate kind."""
    if kind in _FIXED_1Q:
        return _FIXED_1Q[kind]
    if kind == "rx":
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "ry":
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rz":
        return np.array([[np.exp(-1j * angle / 2), 0],
                         [0, np.exp(1j * angle / 2)]], dtype=complex)
    raise SimulationError(f"no matrix for one-qubit kind {kind!r}")


def two_qubit_matrix(kind: str, angle: float | None = None) -> np.ndarray:
    """4x4 unitary with the gate's first qubit as the least significant bit.

    For ``cx`` the first qubit is the control.
    """
    if kind == "cx":
        m = np.eye(4, dtype=complex)
        m[[1, 3]] = m[[3, 1]]
        return m
    if kind == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if kind == "rzz":
        p = np.exp(-1j * angle / 2)
        q = np.exp(1j * angle / 2)
        return np.diag([p, q, q, p]).astype(complex)
    raise SimulationError(f"no matrix for two-qubit kind {kind!r}")


def _apply_1q(amps: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    t = amps.reshape([-1] + [2] * n)
    axis = n - q
    t = np.tensordot(mat, t, axes=([1], [axis]))
    return np.moveaxis(t, 0, axis).reshape(amps.shape)


def _apply_2q(amps: np.ndarray, mat4: np.ndarray, qa: int, qb: int,
              n: int) -> np.ndarray:
    # mat4 index convention: pair index = bit(qa) + 2*bit(qb)
    t = amps.reshape([-1] + [2] * n)
    ax_a, ax_b = n - qa, n - qb
    m = mat4.reshape(2, 2, 2, 2)  # (b_out, a_out, b_in, a_in)
    t = np.tensordot(m, t, axes=([2, 3], [ax_b, ax_a]))
    return np.moveaxis(t, [0, 1], [ax_b, ax_a]).reshape(amps.shape)


# ---------------------------------------------------------------------------
# branch evolution

@dataclass
class _Evolution:
    # One row per live branch, in branch order. A row's amplitudes are
    # unnormalized: its squared norm is the branch probability.
    amps: np.ndarray                     # (branches, 2^n) complex
    signs: np.ndarray                    # (branches,) +1 or -1
    recorded: np.ndarray                 # (branches,) bits fixed mid-circuit
    read_clbits: list[tuple[int, int]]   # (qubit, clbit) read at the end
    sign_mask: int                       # qubits whose final bit flips the sign
    num_bits: int


def _last_use(instructions: list[Instruction]) -> dict[int, int]:
    last: dict[int, int] = {}
    for i, ins in enumerate(instructions):
        if ins.kind == "barrier":
            continue
        for q in ins.qubits:
            last[q] = i
    return last


def _split(ev: _Evolution, q: int, sign: bool = False, clbit: int | None = None,
           reset: bool = False) -> None:
    """Branch every row on the value of qubit ``q``.

    Each parent is replaced by its outcome-0 row and then its outcome-1 row;
    rows whose squared norm is below ``_PRUNE_NORM_SQ`` are dropped. A reset
    moves the outcome-1 amplitudes to the qubit's 0 half.
    """
    rows, size = ev.amps.shape
    halves = ev.amps.reshape(rows, size >> (q + 1), 2, 1 << q)
    norms = (np.abs(halves) ** 2).sum(axis=(1, 3))  # (parent, outcome)
    parent, outcome = np.nonzero(norms >= _PRUNE_NORM_SQ)
    split = np.zeros((len(parent),) + halves.shape[1:], dtype=complex)
    target = np.zeros_like(outcome) if reset else outcome
    split[np.arange(len(parent)), :, target, :] = halves[parent, :, outcome, :]
    ev.amps = split.reshape(len(parent), size)
    ev.signs = ev.signs[parent]
    if sign:
        ev.signs = np.where(outcome == 1, -ev.signs, ev.signs)
    ev.recorded = ev.recorded[parent]
    if clbit is not None:
        ev.recorded = ev.recorded | (outcome << clbit)


def _evolve(c: Circuit) -> _Evolution:
    c.validate()
    n = c.num_qubits
    if n > MAX_QUBITS:
        raise SimulationError(f"{n} qubits exceeds engine limit of {MAX_QUBITS}")
    records = any(ins.kind == "measure" and ins.clbit is not None
                  for ins in c.instructions)
    amps = np.zeros((1, 1 << n), dtype=complex)
    amps[0, 0] = 1.0
    ev = _Evolution(amps, np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
                    [], 0, c.num_clbits if records else n)
    last = _last_use(c.instructions)

    for i, ins in enumerate(c.instructions):
        if ins.kind == "barrier":
            continue
        if ins.kind in GATES_1Q:
            mat = gate_matrix(ins.kind, ins.angle)
            ev.amps = _apply_1q(ev.amps, mat, ins.qubits[0], n)
        elif ins.kind in GATES_2Q:
            mat = two_qubit_matrix(ins.kind, ins.angle)
            ev.amps = _apply_2q(ev.amps, mat, ins.qubits[0], ins.qubits[1], n)
        elif ins.kind == "measure":
            q = ins.qubits[0]
            if last[q] == i:
                # Terminal measurement: read the bit at finalization instead
                # of branching, so whole-register readout stays linear.
                if ins.clbit is not None:
                    ev.read_clbits.append((q, ins.clbit))
                if ins.sign:
                    ev.sign_mask |= 1 << q
                continue
            _split(ev, q, sign=ins.sign, clbit=ins.clbit)
        elif ins.kind == "reset":
            _split(ev, ins.qubits[0], reset=True)
        else:  # pragma: no cover
            raise SimulationError(f"cannot simulate kind {ins.kind!r}")

    if not records:
        ev.read_clbits.extend((q, q) for q in range(n))
    return ev


def _outcomes(ev: _Evolution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keys, signs and probabilities of every (branch, basis state) pair with
    nonzero probability, branch by branch in branch order."""
    probs = np.abs(ev.amps) ** 2
    row, idx = np.nonzero(probs > _PRUNE_NORM_SQ)
    keys = ev.recorded[row]
    for q, c in ev.read_clbits:
        keys |= ((idx >> q) & 1) << c
    signs = ev.signs[row]
    flips = np.bitwise_count(idx & ev.sign_mask) & 1
    return keys, np.where(flips == 1, -signs, signs), probs[row, idx]


def run_exact(c: Circuit) -> SignedDistribution:
    """Deterministic signed outcome distribution of a circuit.

    Mid-circuit measurements branch on both outcomes; sign-marked
    measurements multiply a branch's weight by (-1)^outcome. The output is
    keyed over the classical register, or over all qubits when the circuit
    has no measurement instructions.
    """
    ev = _evolve(c)
    keys, signs, probs = _outcomes(ev)
    uniq, inverse = np.unique(keys, return_inverse=True)
    # bincount adds in input order, as a running sum per key would.
    sums = np.bincount(inverse, weights=signs * probs)
    keep = np.abs(sums) >= _OUTPUT_EPS
    return SignedDistribution.from_arrays(uniq[keep], sums[keep], ev.num_bits)


def run_sampled(c: Circuit, shots: int, seed: int) -> ShotCounts:
    """Seeded, reproducible sampling of a circuit.

    Shots are drawn from the exact joint distribution over measurement
    branches and final outcomes, which reproduces per-shot collapse
    statistics exactly.
    """
    if shots < 1:
        raise SimulationError("shots must be >= 1")
    ev = _evolve(c)
    keys, signs, probs = _outcomes(ev)
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(shots, probs / probs.sum())
    uniq, inverse = np.unique(keys, return_inverse=True)
    counts = np.bincount(inverse, weights=drawn).astype(np.int64)
    signed = np.bincount(inverse, weights=signs * drawn).astype(np.int64)
    hit = counts > 0
    return ShotCounts(uniq[hit], counts[hit], signed[hit], shots, ev.num_bits)


# ---------------------------------------------------------------------------
# Choi-matrix channel oracle

def _local_step_matrices(op, qubit: int) -> list[tuple[np.ndarray, int]]:
    """Signed Kraus-style terms [(K, sign)] of one local-action op on one
    qubit of a two-qubit space (qubit 0 = LSB of the pair index)."""
    def lift(m: np.ndarray) -> np.ndarray:
        eye = np.eye(2, dtype=complex)
        return np.kron(m, eye) if qubit == 1 else np.kron(eye, m)

    if op.kind == "measure":
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        return [(lift(p0), 1), (lift(p1), -1)]
    return [(lift(gate_matrix(op.kind, op.angle)), 1)]


def _apply_action(rho: np.ndarray, action: LocalAction, qubit: int) -> np.ndarray:
    for op in action.ops:
        terms = _local_step_matrices(op, qubit)
        rho = sum(s * (k @ rho @ k.conj().T) for k, s in terms)
    return rho


def _choi(channel) -> np.ndarray:
    d = 4
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            choi += np.kron(e, channel(e))
    return choi


def choi_check(gate: np.ndarray, decomposition: GateDecomposition) -> float:
    """Max absolute Choi-matrix deviation between a two-qubit unitary's
    channel and its quasi-probability decomposition.

    ``gate`` is a 4x4 unitary whose first qubit is the least significant bit
    of the index, matching :func:`two_qubit_matrix`.
    """
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (4, 4):
        raise SimulationError("choi_check expects a 4x4 unitary")

    def direct(rho):
        return gate @ rho @ gate.conj().T

    def decomposed(rho):
        out = np.zeros_like(rho)
        for entry in decomposition.entries:
            term = _apply_action(rho, entry.a, 0)
            term = _apply_action(term, entry.b, 1)
            out = out + entry.coeff * term
        return out

    return float(np.max(np.abs(_choi(direct) - _choi(decomposed))))
