"""Statevector execution engine for circuit fragments.

One run evolves many instances of a circuit: a :class:`Slot` step applies
an action chosen by the instance, every other step acts on all alike.
Instances that give every slot the same action are one leaf and run once.
The leaves of a batch share a trie: they start in one node, and a node
forks where its leaves take different actions at a slot or where a
measurement is terminal for some of them only, each child copying its
parent's rows. The rows of one amplitude array are (node, branch) pairs,
so each gate is one call on the whole batch. Its BLAS product is made in
two work buffers that the batch's evolution owns, and stays there until
the next product or a row operation reads it. A mid-circuit
measurement or reset replaces each affected row by its outcome-0 row and
then its outcome-1 row. Exact mode returns a signed outcome distribution
per instance, shared by the instances of a leaf: rows are grouped by
node and recorded bits, and each output key sums its (row, basis state)
pairs in row order. Sampled mode draws seeded shots per instance from its
leaf's exact joint branch distribution, which is statistically identical
to per-shot collapse. Results hold int64 key arrays with their values,
and dict views for the edge. Also hosts the Choi-matrix channel oracle
that validates quasi-probability gate decompositions.

Bit order: qubit 0 is the least significant bit of every bitstring key.
Every run owns its state and buffers; there is no shared mutable state
between runs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .circuit import Circuit, GATES_1Q, GATES_2Q
from .decomp import GateDecomposition, LocalAction

MAX_QUBITS = 26
# Amplitudes a batch of leaves aims to hold; see run_batch.
BATCH_AMPLITUDES = 1 << 15
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
        dist = cls.__new__(cls)
        dist.keys, dist.values, dist.num_bits = keys, values, num_bits
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


# ---------------------------------------------------------------------------
# batched evolution

@dataclass(frozen=True)
class Slot:
    """A step whose action depends on the instance: instance ``i`` of a run
    applies ``actions[(i // stride) % len(actions)]`` to ``qubit``.

    Slots of one stride belong to one gate, whose digit of ``i`` that is.
    The gates' strides number the instances in mixed radix: the smallest is
    1 and each next one is the previous times its number of actions.
    """

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
    # A node is the set of leaves (``leaf`` maps each to its node) that have
    # behaved alike at every step so far. One row per live (node, branch)
    # pair, node-major and in branch order within a node: a node's rows are
    # exactly the rows of a run of any of its leaves alone. A row's
    # amplitudes are unnormalized: its squared norm is the branch probability.
    state: np.ndarray      # (rows, 2^n) complex, unless ``pending`` holds it
    node: np.ndarray       # (rows,) node of the row
    signs: np.ndarray      # (rows,) +1 or -1
    recorded: np.ndarray   # (rows,) bits fixed mid-circuit
    reads: np.ndarray      # (nodes,) qubits read at the end, as bits
    sign_mask: np.ndarray  # (nodes,) qubits whose final bit flips the sign
    leaf: np.ndarray       # (leaves,) node of the leaf
    peak: int = 1          # most rows one node has held
    # Two flat complex buffers for the gate products (see _apply), grown to
    # the largest state of the batch and dropped when the evolution ends.
    work: list = field(default_factory=lambda: [np.empty(0, dtype=complex)] * 2)
    # The state as the last gate product left it in work buffer 1, viewed
    # as (rows, 2, ..., 2) with qubit n-1 first; None once copied back.
    pending: np.ndarray | None = None

    @property
    def amps(self) -> np.ndarray:
        """The (rows, 2^n) amplitudes. Reading them copies a pending product
        back into ``state`` first."""
        if self.pending is not None:
            np.copyto(self.state.reshape(self.pending.shape), self.pending)
            self.pending = None
        return self.state

    @amps.setter
    def amps(self, value: np.ndarray) -> None:
        self.state, self.pending = value, None


def _work(ev: _Evolution, i: int, size: int) -> np.ndarray:
    """The first ``size`` entries of work buffer ``i``, grown to fit."""
    if ev.work[i].size < size:
        ev.work[i] = np.empty(size, dtype=complex)
    return ev.work[i][:size]


def _apply(ev: _Evolution, mat: np.ndarray, qubits: tuple[int, ...], n: int,
           rows: np.ndarray | None = None) -> None:
    """Apply a gate to the rows ``rows`` of the state (all rows if None),
    bit for bit as a run of each row's node alone does, which makes one
    BLAS product over that node's rows. Rows giving the product four or
    more columns each come out the same in one product over all the
    selected rows. Its operand (the gate qubits' bits, last gate qubit
    outermost, then the rows, then the other bits) is copied into work
    buffer 0 and multiplied into work buffer 1. On all rows the product
    stays there as ``ev.pending``: the next product reads it, and reading
    ``ev.amps`` copies it back. A selection is gathered into buffer 1
    first and scattered back through buffer 0. Narrower rows get a product
    per node (:func:`_per_node`). Two-qubit matrices index bit(first) +
    2 * bit(second)."""
    if (1 << n) >> len(qubits) < 4:
        if rows is None:
            ev.amps = _per_node(ev.amps, mat, qubits, n, ev.node)
        else:
            ev.amps[rows] = _per_node(ev.amps[rows], mat, qubits, n,
                                      ev.node[rows])
        return
    if rows is not None:
        # mode="clip" lets take write to ``out`` without a buffered copy.
        state = np.take(ev.amps, rows, axis=0, mode="clip", out=_work(
            ev, 1, len(rows) << n).reshape(len(rows), 1 << n))
    else:
        state = ev.state if ev.pending is None else ev.pending
    lead = [n - q for q in reversed(qubits)]
    order = lead + [a for a in range(n + 1) if a not in lead]
    operand = state.reshape([-1] + [2] * n).transpose(order)
    x = _work(ev, 0, operand.size).reshape(operand.shape)
    np.copyto(x, operand)
    d = len(mat)
    y = np.dot(mat, x.reshape(d, -1), out=_work(ev, 1, x.size).reshape(d, -1))
    y = y.reshape(x.shape)
    if rows is None:
        ev.pending = y.transpose(sorted(range(n + 1), key=order.__getitem__))
    else:
        back = x.reshape(state.shape)
        np.copyto(back.reshape([-1] + [2] * n).transpose(order), y)
        ev.amps[rows] = back


def _per_node(amps: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...],
              n: int, node: np.ndarray) -> np.ndarray:
    """A gate on rows that give its product fewer than four columns: one
    product per node (``node`` names each row's node, nondecreasing),
    batched over nodes with equal row counts, as a run of the node alone
    makes it."""
    k, d, width = len(qubits), len(mat), (1 << n) >> len(qubits)
    axes = [n - q for q in reversed(qubits)]
    t = np.moveaxis(amps.reshape([-1] + [2] * n), axes, list(range(1, k + 1)))
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


def _leaves(steps: list, count: int):
    """The classes of instances ``0 .. count-1`` that give every slot the
    same action, as (representative instance, instance ids) pairs.

    A gate's digits fall into classes by the actions they give its slots; a
    leaf takes one class per gate. Gates are ordered by their first slot in
    the stream and leaves come lexicographically, so that consecutive leaves
    share the longest prefixes. Digits above the slots' own form one class.
    """
    gates: dict[int, list[Slot]] = {}
    for st in steps:
        if st.kind == "slot":
            gates.setdefault(st.stride, []).append(st)
    place = 1
    for stride in sorted(gates):
        radix = len(gates[stride][0].actions)
        if stride != place or any(len(s.actions) != radix for s in gates[stride]):
            raise SimulationError("slot strides do not number the instances")
        place *= radix
    if count % place:
        raise SimulationError(f"{count} instances do not fill the slots' "
                              f"{place} digit combinations")
    classes = []
    for stride, slots in gates.items():
        by_actions: dict[tuple, list[int]] = {}
        for d in range(len(slots[0].actions)):
            by_actions.setdefault(tuple(s.actions[d] for s in slots),
                                  []).append(d * stride)
        classes.append(list(by_actions.values()))
    classes.append([list(range(0, count, place))])
    for leaf in itertools.product(*classes):
        ids = [sum(parts) for parts in itertools.product(*leaf)]
        yield ids[0], ids


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


def _fork(ev: _Evolution, key: np.ndarray) -> np.ndarray:
    """Split each node into one child per value of ``key`` (small
    nonnegative ints, one per leaf) among its leaves, in (parent, key)
    order; a child copies its parent's rows in their order. Returns each
    node's key."""
    if (key == key[0]).all():
        return np.full(len(ev.reads), key[0])
    wide = int(key.max()) + 1
    pairs, ev.leaf = np.unique(ev.leaf * wide + key, return_inverse=True)
    parent = pairs // wide
    if len(parent) > len(ev.reads):
        starts = np.searchsorted(ev.node, np.arange(len(ev.reads) + 1))
        sizes = np.diff(starts)[parent]
        ends = np.cumsum(sizes)
        rows = np.arange(ends[-1]) + np.repeat(starts[parent] - ends + sizes,
                                               sizes)
        ev.amps, ev.signs = ev.amps[rows], ev.signs[rows]
        ev.recorded = ev.recorded[rows]
        ev.node = np.repeat(np.arange(len(parent)), sizes)
        ev.reads, ev.sign_mask = ev.reads[parent], ev.sign_mask[parent]
    return pairs % wide


def _branch_norms(amps: np.ndarray, q: int) -> np.ndarray:
    """Squared norm of each row's qubit-``q`` = 0 and = 1 halves: the rows'
    squared magnitudes times a (2^n, 2) 0/1 selector of bit ``q``."""
    probs = np.abs(amps)
    np.square(probs, out=probs)
    bit = (np.arange(amps.shape[1])[:, None] >> q) & 1
    return probs @ (bit == np.arange(2)).astype(float)


def _split(ev: _Evolution, q: int, split_node: np.ndarray, sign: bool = False,
           clbit: int | None = None, reset: bool = False) -> None:
    """Branch the rows of the nodes in ``split_node`` on qubit ``q``: each
    becomes its outcome-0 row and then its outcome-1 row, dropping rows of
    squared norm below ``_PRUNE_NORM_SQ``; other rows stay. A reset moves
    the outcome-1 amplitudes to the 0 half. Refuses, before allocating, to
    give one node more than ``MAX_BRANCH_AMPLITUDES`` amplitudes."""
    cut = split_node[ev.node]
    if not cut.any():
        return
    rows, size = ev.amps.shape
    keep = _branch_norms(ev.amps, q) >= _PRUNE_NORM_SQ
    keep[~cut] = (True, False)
    parent, outcome = np.nonzero(keep)
    peak = int(np.bincount(ev.node[parent]).max())
    if peak * size > MAX_BRANCH_AMPLITUDES:
        raise BranchOverflowError(
            f"{peak} branches of {size} amplitudes exceed the limit of "
            f"{MAX_BRANCH_AMPLITUDES} amplitudes per instance")
    ev.peak = max(ev.peak, peak)
    halves = ev.amps.reshape(rows, size >> (q + 1), 2, 1 << q)[parent]
    one, r = outcome == 1, np.flatnonzero(cut[parent])
    if reset:
        halves[one, :, 0] = halves[one, :, 1]
    halves[r, :, 1 if reset else 1 - outcome[r]] = 0
    ev.amps = halves.reshape(len(parent), size)
    ev.node, ev.recorded = ev.node[parent], ev.recorded[parent]
    ev.signs = ev.signs[parent]
    if sign:
        ev.signs = np.where(one, -ev.signs, ev.signs)
    if clbit is not None:
        ev.recorded = ev.recorded | (outcome << clbit)


def _apply_slot(ev: _Evolution, slot: Slot, choice: np.ndarray,
                term: np.ndarray, n: int, mats: dict) -> None:
    """Apply each node's action (``choice``; ``term`` marks nodes for which
    the slot is its qubit's last use). Position by position, the rows whose
    actions hold the same operation there take it at once; ``mats`` maps
    each unitary operation to its matrix."""
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
                _apply(ev, mats[op], (q,), n)
            elif (rows := np.flatnonzero(picked[ev.node])).size:
                _apply(ev, mats[op], (q,), n, rows)


@dataclass(frozen=True)
class _Steps:
    """A circuit's steps with the matrices they apply, built once per run:
    each gate's unitary (None for any other step) and, in ``op_matrices``,
    each unitary operation of a slot's actions."""

    num_qubits: int
    instructions: list
    matrices: list
    op_matrices: dict

    @classmethod
    def of(cls, c: Circuit) -> "_Steps":
        mats = [gate_matrix(ins.kind, ins.angle) if ins.kind in GATES_1Q else
                two_qubit_matrix(ins.kind, ins.angle) if ins.kind in GATES_2Q else
                None for ins in c.instructions]
        ops = {op: gate_matrix(op.kind, op.angle) for ins in c.instructions
               if ins.kind == "slot" for a in ins.actions for op in a.ops
               if op.kind != "measure"}
        return cls(c.num_qubits, c.instructions, mats, ops)


def _evolve(steps: _Steps, reps: np.ndarray) -> _Evolution:
    """Run the leaves whose representative instances are ``reps``: one root
    node with one row to start with, forked where the leaves differ."""
    n = steps.num_qubits
    amps = np.zeros((1, 1 << n), dtype=complex)
    amps[0, 0] = 1.0
    zero = np.zeros(1, dtype=np.int64)
    ev = _Evolution(amps, zero, zero + 1, zero, zero.copy(), zero.copy(),
                    np.zeros(len(reps), dtype=np.int64))
    for ins, mat, term in zip(steps.instructions, steps.matrices,
                              _terminal(steps.instructions, reps)):
        if mat is not None:
            _apply(ev, mat, ins.qubits, n)
        elif ins.kind == "slot":
            # Leaves fork by distinct action, and by terminal flag where
            # the action ends in a measurement.
            acts = ins.actions
            same = np.array([acts.index(a) for a in acts])
            ends = np.array([bool(a.ops) and a.ops[-1].kind == "measure"
                             for a in acts])
            choice = same[ins.choices(reps)]
            key = _fork(ev, 2 * choice + (term & ends[choice]))
            _apply_slot(ev, ins, key >> 1, (key & 1) == 1, n, steps.op_matrices)
        elif ins.kind == "measure":
            # A terminal measurement reads its bit at finalization instead of
            # branching, so whole-register readout stays linear.
            term = _fork(ev, term.astype(np.int64)) == 1
            q = ins.qubits[0]
            if ins.clbit is not None:
                ev.reads[term] |= 1 << q
            if ins.sign:
                ev.sign_mask[term] |= 1 << q
            _split(ev, q, ~term, ins.sign, ins.clbit)
        elif ins.kind == "reset":
            _split(ev, ins.qubits[0], np.ones(len(ev.reads), dtype=bool),
                   reset=True)
    # A pending product is copied back before the buffers go.
    ev.state, ev.work = ev.amps, []
    return ev


def _outcomes(ev: _Evolution):
    """Row, basis state, sign and probability of every (row, basis state)
    pair with nonzero probability, row by row."""
    probs = np.abs(ev.amps) ** 2
    row, idx = np.nonzero(probs > _PRUNE_NORM_SQ)
    flips = np.bitwise_count(idx & ev.sign_mask[ev.node][row]) & 1
    signs = np.where(flips == 1, -ev.signs[row], ev.signs[row])
    return row, idx, signs, probs[row, idx]


def _read_bits(states: np.ndarray, read_map: dict[int, int]) -> np.ndarray:
    """The output bits of basis states: bit ``q`` of a state goes to bit
    ``read_map[q]``."""
    keys = np.zeros_like(states)
    for q, c in read_map.items():
        keys |= ((states >> q) & 1) << c
    return keys


def _distributions(ev: _Evolution, read_map: dict[int, int],
                   num_bits: int) -> list[SignedDistribution]:
    """Each node's exact signed distribution over ``num_bits`` output bits,
    keys ascending. Rows are grouped by (node, recorded bits). Each (row,
    basis state) pair of nonzero probability goes to the bin of its row's
    group and its state's bits read at the end; the other pairs go to a
    bin that is dropped. Bins whose keys coincide (a clbit both recorded
    and read, or two qubits read into one clbit) share one sum. bincount
    adds each key's pairs in row order, as a running sum of a run of the
    node alone would."""
    size = ev.amps.shape[1]
    n = size.bit_length() - 1
    probs = np.abs(ev.amps)
    np.square(probs, out=probs)
    states = np.arange(size)
    groups, group = np.unique((ev.node << num_bits) | ev.recorded,
                              return_inverse=True)
    dropped = len(groups) << n
    bins = states & ev.reads[ev.node][:, None]
    bins |= (group << n)[:, None]
    bins[probs <= _PRUNE_NORM_SQ] = dropped
    seen = np.zeros(dropped + 1, dtype=bool)
    seen[bins] = True
    occupied = np.flatnonzero(seen[:-1])
    pairs, at = np.unique(groups[occupied >> n] | _read_bits(
        occupied & (size - 1), read_map), return_inverse=True)
    index = np.empty(dropped + 1, dtype=np.intp)
    index[occupied], index[dropped] = at, len(pairs)
    flips = np.bitwise_count(states & ev.sign_mask[ev.node][:, None]) & 1
    np.negative(probs, out=probs, where=(flips == 1) != (ev.signs < 0)[:, None])
    sums = np.bincount(index[bins].ravel(), weights=probs.ravel(),
                       minlength=len(pairs) + 1)[:-1]
    keep = np.abs(sums) >= _OUTPUT_EPS
    pairs, sums = pairs[keep], sums[keep]
    edges = np.searchsorted(pairs >> num_bits,
                            np.arange(len(ev.reads) + 1)).tolist()
    keys = pairs & ((1 << num_bits) - 1)
    return [SignedDistribution.from_arrays(keys[a:b], sums[a:b], num_bits)
            for a, b in zip(edges, edges[1:])]


def run_batch(c: Circuit, count: int = 1, shots: int | None = None,
              seeds: list[int] | None = None) -> list:
    """Run instances ``0 .. count-1`` of a circuit whose instructions may
    include :class:`Slot` steps; every other step acts on all alike.

    Instances that give every slot the same action form a leaf and are run
    once (see :func:`_leaves`). Leaves run in batches: one leaf first, then
    as many as fit ``BATCH_AMPLITUDES`` at the most rows a leaf has reached
    so far. A batch's rows are (node, branch) pairs: all its leaves start in
    one node, which forks at a slot where its leaves take different actions
    and at a measurement that is terminal for some of them only. Each
    batch's evolution owns the work buffers of its gate products. Exact
    mode (``shots`` None) gives a SignedDistribution per instance, shared
    by the instances of a leaf and summed per (node, key) in row order
    (see :func:`_distributions`); sampled mode gives ShotCounts per
    instance, instance ``i`` drawn with ``seeds[i]`` over its leaf's
    (branch, basis state) pairs in row order. Results are in instance order.
    """
    c.validate()
    n = c.num_qubits
    if n > MAX_QUBITS:
        raise SimulationError(f"{n} qubits exceeds engine limit of {MAX_QUBITS}")
    if shots is not None and shots < 1:
        raise SimulationError("shots must be >= 1")
    if shots is not None and (seeds is None or len(seeds) != count):
        raise SimulationError(f"sampled mode needs one seed per instance: "
                              f"{count} instances, "
                              f"{0 if seeds is None else len(seeds)} seeds")
    read_map = {ins.qubits[0]: ins.clbit for ins in c.instructions
                if ins.kind == "measure" and ins.clbit is not None}
    num_bits = c.num_clbits if read_map else n
    reads = read_map or {q: q for q in range(n)}
    steps = _Steps.of(c)
    leaves = _leaves(c.instructions, count)
    out: list = [None] * count
    peak = 0
    # Node and key share one int64 below.
    while batch := list(itertools.islice(leaves, min(
            1 << max(0, 62 - num_bits),
            max(1, BATCH_AMPLITUDES // (peak << n)) if peak else 1))):
        ev = _evolve(steps, np.array([rep for rep, _ in batch]))
        peak = max(peak, ev.peak)
        if not read_map:
            ev.reads[:] = (1 << n) - 1
        if shots is None:
            dists = _distributions(ev, reads, num_bits)
            for (_, ids), at in zip(batch, ev.leaf.tolist()):
                for i in ids:
                    out[i] = dists[at]
            continue
        row, idx, signs, probs = _outcomes(ev)
        keys = ev.recorded[row] | _read_bits(idx & ev.reads[ev.node][row], reads)
        edges = np.searchsorted(ev.node[row],
                                np.arange(len(ev.reads) + 1)).tolist()
        for (_, ids), at in zip(batch, ev.leaf.tolist()):
            a, b = edges[at], edges[at + 1]
            drawn_keys, index = np.unique(keys[a:b], return_inverse=True)
            p = probs[a:b] / probs[a:b].sum()
            for i in ids:
                drawn = np.random.default_rng(seeds[i]).multinomial(shots, p)
                hits = np.bincount(index, drawn, len(drawn_keys))
                sums = np.bincount(index, signs[a:b] * drawn, len(drawn_keys))
                hit = hits > 0
                out[i] = ShotCounts(drawn_keys[hit], hits[hit].astype(np.int64),
                                    sums[hit].astype(np.int64), shots, num_bits)
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
