"""Statevector execution engine for circuit fragments.

One run evolves many instances of a circuit: a :class:`Slot` step applies
an action chosen by the instance, every other step acts on all alike. The
rows of one amplitude array are (instance, branch) pairs, so each gate is
one call on the whole batch; a mid-circuit measurement or reset replaces
each affected row by its outcome-0 row and then its outcome-1 row. Exact
mode returns a signed outcome distribution per instance; sampled mode draws
seeded shots per instance from the exact joint branch distribution, which
is statistically identical to per-shot collapse. Results hold int64 key
arrays with their values, and dict views for the edge. Also hosts the
Choi-matrix channel oracle that validates quasi-probability gate
decompositions.

Bit order: qubit 0 is the least significant bit of every bitstring key.
Every run owns its state; there is no shared mutable state between runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import Circuit, GATES_1Q, GATES_2Q
from .decomp import GateDecomposition, LocalAction

MAX_QUBITS = 26
# Amplitudes a batch of instances aims to hold; see run_batch.
BATCH_AMPLITUDES = 1 << 14
# Amplitudes one instance's branches may hold (1 GiB of complex128).
MAX_BRANCH_AMPLITUDES = 1 << 26
_PRUNE_NORM_SQ = 1e-30
_OUTPUT_EPS = 1e-14


class SimulationError(RuntimeError):
    """Raised for circuits the engine cannot execute."""


class BranchOverflowError(SimulationError):
    """Raised when one instance's measurement branches outgrow the limit."""


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
        return clip_and_renormalize(self.entries)


def clip_and_renormalize(entries: dict[int, float], error=SimulationError):
    """Clip negative mass to 0 and renormalize; raise ``error`` if none is left."""
    clipped = {k: v for k, v in entries.items() if v > 0.0}
    norm = sum(clipped.values())
    if norm <= 0.0:
        raise error("distribution has no positive mass")
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


def _apply(amps: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int,
           inst: np.ndarray) -> np.ndarray:
    """Apply a gate to each row of ``amps`` (rows, 2^n) bit for bit as a run
    of the row's instance alone does, which makes one BLAS product over that
    instance's rows (``inst`` names each row's instance, nondecreasing).
    Rows giving the product four or more columns each come out the same in
    one product over all rows; narrower ones get a product per instance,
    batched over instances with equal row counts. Two-qubit matrices index
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
    starts = np.flatnonzero(np.diff(inst, prepend=-1))
    sizes = np.diff(np.append(starts, len(inst)))
    for size in np.unique(sizes).tolist():
        group = (starts[sizes == size][:, None] + np.arange(size)).ravel()
        block = rows[group].reshape(-1, size, d, width).transpose(0, 2, 1, 3)
        prod = np.matmul(mat, block.reshape(len(block), d, -1))
        out[group] = prod.reshape(block.shape).transpose(0, 2, 1, 3).reshape(
            (len(group),) + t.shape[1:])
    return np.moveaxis(out, list(range(1, k + 1)), axes).reshape(amps.shape)


# ---------------------------------------------------------------------------
# batched evolution

@dataclass(frozen=True)
class Slot:
    """A step whose action depends on the instance: instance ``i`` of a run
    applies ``actions[(i // stride) % len(actions)]`` to ``qubit``."""

    qubit: int
    actions: tuple[LocalAction, ...]
    stride: int = 1
    # Circuit.validate and the evolution read every step through these names.
    kind = "slot"
    clbit = None

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)

    def choices(self, ids: np.ndarray) -> np.ndarray:
        return (ids // self.stride) % len(self.actions)


@dataclass
class _Evolution:
    # One row per live (instance, branch) pair, instance-major and in branch
    # order within an instance. A row's amplitudes are unnormalized: its
    # squared norm is the branch probability.
    amps: np.ndarray       # (rows, 2^n) complex
    inst: np.ndarray       # (rows,) instance within the batch
    signs: np.ndarray      # (rows,) +1 or -1
    recorded: np.ndarray   # (rows,) bits fixed mid-circuit
    reads: np.ndarray      # (instances,) qubits read at the end, as bits
    sign_mask: np.ndarray  # (instances,) qubits whose final bit flips the sign
    peak: int = 1          # most rows one instance has held


def _terminal(steps: list, ids: np.ndarray) -> list:
    """Per step and instance of ``ids``: no later step acts on the step's
    (first) qubit. A later slot acts where the instance's action has
    operations, so a measurement can be terminal for some instances only."""
    none = np.zeros(len(ids), dtype=bool)
    later: dict[int, np.ndarray] = {}
    out: list = [None] * len(steps)
    for i in range(len(steps) - 1, -1, -1):
        st = steps[i]
        if st.kind == "barrier":
            continue
        out[i] = ~later.get(st.qubits[0], none)
        acts = (np.array([bool(a.ops) for a in st.actions])[st.choices(ids)]
                if st.kind == "slot" else ~none)
        for q in st.qubits:
            later[q] = later.get(q, none) | acts
    return out


def _split(ev: _Evolution, q: int, split_inst: np.ndarray, sign: bool = False,
           clbit: int | None = None, reset: bool = False) -> None:
    """Branch the rows of the instances in ``split_inst`` on qubit ``q``:
    each becomes its outcome-0 row and then its outcome-1 row, dropping rows
    of squared norm below ``_PRUNE_NORM_SQ``; other rows stay. A reset moves
    the outcome-1 amplitudes to the 0 half. Refuses, before allocating, to
    give one instance more than ``MAX_BRANCH_AMPLITUDES`` amplitudes."""
    cut = split_inst[ev.inst]
    if not cut.any():
        return
    rows, size = ev.amps.shape
    halves = ev.amps.reshape(rows, size >> (q + 1), 2, 1 << q)
    keep = (np.abs(halves) ** 2).sum(axis=(1, 3)) >= _PRUNE_NORM_SQ
    keep[~cut] = (True, False)
    parent, outcome = np.nonzero(keep)
    peak = int(np.bincount(ev.inst[parent]).max())
    if peak * size > MAX_BRANCH_AMPLITUDES:
        raise BranchOverflowError(
            f"{peak} branches of {size} amplitudes exceed the limit of "
            f"{MAX_BRANCH_AMPLITUDES} amplitudes per instance")
    ev.peak = max(ev.peak, peak)
    halves, one, r = halves[parent], outcome == 1, np.flatnonzero(cut[parent])
    if reset:
        halves[one, :, 0] = halves[one, :, 1]
    halves[r, :, 1 if reset else 1 - outcome[r]] = 0
    ev.amps = halves.reshape(len(parent), size)
    ev.inst, ev.recorded = ev.inst[parent], ev.recorded[parent]
    ev.signs = ev.signs[parent]
    if sign:
        ev.signs = np.where(one, -ev.signs, ev.signs)
    if clbit is not None:
        ev.recorded = ev.recorded | (outcome << clbit)


def _apply_slot(ev: _Evolution, slot: Slot, choice: np.ndarray,
                term: np.ndarray, n: int) -> None:
    """Apply each instance's action (``choice``; ``term`` marks instances
    for which the slot is its qubit's last use). Position by position, the
    rows whose actions hold the same operation there take it at once."""
    acts, q = slot.actions, slot.qubit
    for o in range(max(len(a.ops) for a in acts)):
        for op in dict.fromkeys(a.ops[o] for a in acts if len(a.ops) > o):
            picked = np.array([a.ops[o:o + 1] == (op,) for a in acts])[choice]
            if op.kind == "measure":
                ends = np.array([len(a.ops) == o + 1 for a in acts])[choice]
                ends &= picked & term
                ev.sign_mask[ends] |= 1 << q
                _split(ev, q, picked & ~ends, sign=True)
            elif picked.all():
                ev.amps = _apply(ev.amps, gate_matrix(op.kind, op.angle), (q,),
                                 n, ev.inst)
            else:
                rows = np.flatnonzero(picked[ev.inst])
                ev.amps[rows] = _apply(ev.amps[rows], gate_matrix(op.kind, op.angle),
                                       (q,), n, ev.inst[rows])


def _evolve(c: Circuit, ids: np.ndarray) -> _Evolution:
    """Run instances ``ids`` of ``c``, one row each to start with."""
    n, count = c.num_qubits, len(ids)
    amps = np.zeros((count, 1 << n), dtype=complex)
    amps[:, 0] = 1.0
    zeros = np.zeros(count, dtype=np.int64)
    ev = _Evolution(amps, np.arange(count), zeros + 1, zeros, zeros.copy(),
                    zeros.copy())
    for ins, term in zip(c.instructions, _terminal(c.instructions, ids)):
        if ins.kind in GATES_1Q:
            mat = gate_matrix(ins.kind, ins.angle)
            ev.amps = _apply(ev.amps, mat, ins.qubits, n, ev.inst)
        elif ins.kind in GATES_2Q:
            mat = two_qubit_matrix(ins.kind, ins.angle)
            ev.amps = _apply(ev.amps, mat, ins.qubits, n, ev.inst)
        elif ins.kind == "slot":
            _apply_slot(ev, ins, ins.choices(ids), term, n)
        elif ins.kind == "measure":
            # A terminal measurement reads its bit at finalization instead of
            # branching, so whole-register readout stays linear.
            q = ins.qubits[0]
            if ins.clbit is not None:
                ev.reads[term] |= 1 << q
            if ins.sign:
                ev.sign_mask[term] |= 1 << q
            _split(ev, q, ~term, ins.sign, ins.clbit)
        elif ins.kind == "reset":
            _split(ev, ins.qubits[0], np.ones(count, dtype=bool), reset=True)
    return ev


def _outcomes(ev: _Evolution, read_map: dict[int, int]):
    """Instance, key, sign and probability of every (row, basis state) pair
    with nonzero probability, row by row."""
    probs = np.abs(ev.amps) ** 2
    row, idx = np.nonzero(probs > _PRUNE_NORM_SQ)
    inst, keys = ev.inst[row], ev.recorded[row]
    reads = ev.reads[inst] & idx
    for q, c in read_map.items():
        keys |= ((reads >> q) & 1) << c
    flips = np.bitwise_count(idx & ev.sign_mask[inst]) & 1
    signs = np.where(flips == 1, -ev.signs[row], ev.signs[row])
    return inst, keys, signs, probs[row, idx]


def run_batch(c: Circuit, count: int = 1, shots: int | None = None,
              seeds: list[int] | None = None) -> list:
    """Run ``count`` instances of a circuit whose instructions may include
    :class:`Slot` steps; every other step acts on all instances alike.

    Instances run in batches: one instance first, then as many as fit
    ``BATCH_AMPLITUDES`` at the most rows an instance has reached so far.
    Exact mode (``shots`` None) gives a SignedDistribution per instance;
    sampled mode gives ShotCounts per instance, instance ``i`` drawn with
    ``seeds[i]`` over its own (branch, basis state) pairs in row order.
    """
    c.validate()
    n = c.num_qubits
    if n > MAX_QUBITS:
        raise SimulationError(f"{n} qubits exceeds engine limit of {MAX_QUBITS}")
    if shots is not None and shots < 1:
        raise SimulationError("shots must be >= 1")
    read_map = {ins.qubits[0]: ins.clbit for ins in c.instructions
                if ins.kind == "measure" and ins.clbit is not None}
    num_bits = c.num_clbits if read_map else n
    out: list = []
    first = peak = 0
    while first < count:
        # Instance and key share one int64 below.
        size = min(count - first, 1 << max(0, 62 - num_bits),
                   max(1, BATCH_AMPLITUDES // (peak << n)) if peak else 1)
        ev = _evolve(c, np.arange(first, first + size))
        peak = max(peak, ev.peak)
        if not read_map:
            ev.reads[:] = (1 << n) - 1
        inst, keys, signs, probs = _outcomes(
            ev, read_map or {q: q for q in range(n)})
        if shots is not None:
            parts = np.split(probs, np.searchsorted(inst, np.arange(1, size)))
            probs = np.concatenate([
                np.random.default_rng(seeds[first + i]).multinomial(
                    shots, p / p.sum()) for i, p in enumerate(parts)])
        # bincount adds in input order, as a running sum per key would.
        pairs, index = np.unique((inst << num_bits) | keys, return_inverse=True)
        sums = np.bincount(index, weights=signs * probs)
        hits = np.bincount(index, weights=probs)
        keep = np.abs(sums) >= _OUTPUT_EPS if shots is None else hits > 0
        pairs, sums, hits = pairs[keep], sums[keep], hits[keep]
        keys = pairs & ((1 << num_bits) - 1)
        edges = np.searchsorted(pairs >> num_bits, np.arange(size + 1)).tolist()
        for a, b in zip(edges, edges[1:]):
            out.append(
                SignedDistribution.from_arrays(keys[a:b], sums[a:b], num_bits)
                if shots is None else
                ShotCounts(keys[a:b], hits[a:b].astype(np.int64),
                           sums[a:b].astype(np.int64), shots, num_bits))
        first += size
    return out


def run_exact(c: Circuit) -> SignedDistribution:
    """Deterministic signed outcome distribution of a circuit.

    Mid-circuit measurements branch on both outcomes; sign-marked
    measurements multiply a branch's weight by (-1)^outcome. The output is
    keyed over the classical register, or over all qubits when the circuit
    has no measurement instructions.
    """
    return run_batch(c)[0]


def run_sampled(c: Circuit, shots: int, seed: int) -> ShotCounts:
    """Seeded, reproducible sampling of a circuit: shots are drawn from the
    exact joint distribution over measurement branches and final outcomes,
    which reproduces per-shot collapse statistics exactly."""
    return run_batch(c, 1, shots, [seed])[0]


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
