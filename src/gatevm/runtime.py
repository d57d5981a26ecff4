"""Runtime: fragment instantiation, scored dispatch, execution, knitting.

The instantiator enumerates the 6^k_j decomposition choices of each
fragment. The QPU manager scores simulated QPUs by queue length and
estimated success probability. Execution runs all instances of a fragment
as one batched statevector evolution. The knitter reconstructs the original
circuit's quasi-distribution by summing, over all 6^k global instances,
the coefficient-weighted Kronecker product of per-fragment result tables
into one accumulator. It splits the fragments into two halves of balanced
width and each half into blocks of adjacent fragments. A block's table,
built once per call, has one row per digit tuple of the gates touching the
block and holds at most KNIT_TABLE_ENTRIES entries; a lone fragment's table
serves as it is. A block table, for every digit tuple, and a half, for
many instances at once, are built alike: rows gathered at the digits, then
their row-wise Kronecker product. A chunk of instances is added with one
matrix product of its two halves. The global coefficient vector is split
into contiguous ranges across a process pool.
"""
from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import operator
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, instr
from .codegen import CompiledProgram, ParamCircuit
from .qpu import QpuModel
# run_exact and run_sampled stay importable from here for callers that
# look the simulator up through this module.
from .sim import SignedDistribution, Slot, _read_bits, run_batch, run_exact, run_sampled
from .transpiler import coupling_key, esp, map_and_route

MAX_FRAGMENT_INSTANCES = 10_000_000
# Knit accumulator entries Pi (product of the fragments' key-union sizes). A
# worker holds the accumulator and one chunk's product buffer (32 MiB each at
# the limit), and one sub-block's two Kronecker halves.
MAX_KNIT_ENTRIES = 1 << 22
# A knit chunk spans max(1, KNIT_CHUNK_ENTRIES // Pi) global instances. A
# sub-block of whole chunks has its halves built together, in at most
# KNIT_CHUNK_ENTRIES // 4 entries unless one chunk's halves need more.
KNIT_CHUNK_ENTRIES = 1 << 16
# Global instances whose table rows are found together, in whole chunks.
KNIT_BLOCK = 1 << 12
# A block table of adjacent fragments holds at most this many entries
# (2 MiB); a lone fragment's table is used as it is, whatever its size.
KNIT_TABLE_ENTRIES = 1 << 18
_KNIT_OUTPUT_EPS = 1e-12


class ExecutionError(RuntimeError):
    """Base class for runtime failures."""


class InstantiationOverflowError(ExecutionError):
    pass


class NoFittingQpuError(ExecutionError):
    pass


class KnitShapeError(ExecutionError):
    pass


class KnitOverflowError(ExecutionError):
    pass


class KnitKeyWidthError(ExecutionError):
    """Output keys are int64, so bit 63 and above would wrap."""


# ---------------------------------------------------------------------------
# instantiator

@dataclass
class InstanceSet:
    """All decomposition-index tuples of one fragment, in enumeration order
    (last gate in global gate order varies fastest)."""

    fragment_index: int
    gate_ids: list[int]
    instances: list[tuple[int, ...]]
    param_circuit: ParamCircuit


def _fragment_gates(program: CompiledProgram) -> list[tuple[ParamCircuit, list[int]]]:
    """Each fragment with the virtual gates touching it, once every
    fragment's 6^k_j instances are known to fit the limit."""
    out = []
    for pc in program.fragments:
        gate_ids = pc.touching_gates(program.gate_order)
        count = 6 ** len(gate_ids)
        if count > MAX_FRAGMENT_INSTANCES:
            raise InstantiationOverflowError(
                f"fragment {pc.fragment_index} needs {count} instances "
                f"(limit {MAX_FRAGMENT_INSTANCES})")
        out.append((pc, gate_ids))
    return out


def instantiate(program: CompiledProgram) -> list[InstanceSet]:
    """Enumerate the 6^k_j instances of every fragment.

    k_j counts the virtual gates touching the fragment; a gate internal to a
    fragment drives both of its placeholders with a single index.
    """
    return [InstanceSet(pc.fragment_index, gate_ids,
                        list(itertools.product(range(6), repeat=len(gate_ids))),
                        pc)
            for pc, gate_ids in _fragment_gates(program)]


# ---------------------------------------------------------------------------
# global coefficients

@dataclass
class GlobalCoefficients:
    """Tensor product of the per-gate coefficient vectors, in gate order."""

    values: np.ndarray
    gate_order: list[int]

    def __len__(self) -> int:
        return len(self.values)


def global_coefficients(program: CompiledProgram) -> GlobalCoefficients:
    count = 6 ** len(program.gate_order)
    if count > MAX_FRAGMENT_INSTANCES:
        raise InstantiationOverflowError(
            f"{len(program.gate_order)} virtual gates need {count} global "
            f"instances (limit {MAX_FRAGMENT_INSTANCES})")
    values = np.array([1.0])
    for gid in program.gate_order:
        values = np.kron(values, program.coeff_vectors[gid])
    return GlobalCoefficients(values, list(program.gate_order))


# ---------------------------------------------------------------------------
# QPU manager

def metric_proxy(pc: ParamCircuit) -> Circuit:
    """Fragment circuit with each placeholder counted as one 1-qubit op."""
    return pc.lowered(lambda el: [instr("rz", el.qubit, angle=0.0)])


def schedule(program: CompiledProgram, qpus: list[QpuModel], alpha: float,
             beta: float, seed: int = 0) -> dict[int, str]:
    """Assign each fragment to the QPU with the highest score.

    A candidate must have enough qubits. Each fragment is routed once per
    distinct coupling map (routing reads nothing else of a QPU), and its
    success probability is computed once per coupling map and error-rate
    table, so each candidate's uses its own rates. The
    score is ``alpha * (1 - w) + beta * esp`` with ``w`` the queue length
    normalized by the fleet-wide maximum (0 when every queue is empty).
    Ties go to the lexicographically first QPU name. The chosen QPU's queue
    grows by the fragment's instance count before the next fragment is
    placed.
    """
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
        successes = {}
        for qpu in candidates:
            coupling = coupling_key(qpu)
            if coupling not in routed:
                routed[coupling] = map_and_route(proxy, qpu, seed)
            rates = coupling, tuple(sorted(qpu.error_rates.items()))
            if rates not in successes:
                successes[rates] = esp(routed[coupling], qpu)
            success = successes[rates]
            wait = qpu.queue_length / max_queue if max_queue > 0 else 0.0
            score = alpha * (1.0 - wait) + beta * success
            if best_score is None or score > best_score:
                best, best_score = qpu, score
        assignment[pc.fragment_index] = best.name
        best.queue_length += 6 ** len(pc.touching_gates(program.gate_order))
    return assignment


# ---------------------------------------------------------------------------
# execution

@dataclass
class FragmentResultEntry:
    fragment_index: int
    gate_ids: list[int]
    clbit_map: list[int]
    distributions: list[SignedDistribution]


@dataclass
class FragmentResults:
    entries: list[FragmentResultEntry]
    gate_order: list[int]
    num_clbits: int


def _instance_seed(seed: int, fragment_index: int, instance_index: int) -> int:
    ss = np.random.SeedSequence((seed, fragment_index, instance_index))
    return int(ss.generate_state(1)[0])


def execute(program: CompiledProgram, assignment: dict[int, str] | None = None,
            mode: str = "exact", shots: int = 20000, seed: int = 0,
            workers: int = 1) -> FragmentResults:
    """Run every instance of every fragment on the statevector backend.

    Each fragment's 6^k_j instances are one batched evolution in this
    process; a placeholder becomes a Slot whose action follows its gate's
    digit of the instance index. Results are in instance order.
    ``assignment`` is bookkeeping from the scheduler. Exact mode ignores
    ``shots``; sampled mode derives one child seed per instance.
    ``workers`` is accepted but only :func:`knit` uses processes.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if assignment is not None:
        missing = [pc.fragment_index for pc in program.fragments
                   if pc.fragment_index not in assignment]
        if missing:
            raise ExecutionError(f"assignment misses fragments {missing}")
    entries = []
    for pc, gate_ids in _fragment_gates(program):
        kj = len(gate_ids)
        count = 6 ** kj
        stride = {gid: 6 ** (kj - 1 - t) for t, gid in enumerate(gate_ids)}
        circuit = pc.lowered(
            lambda el: [Slot(el.qubit, el.actions, stride[el.gate_id])])
        if mode == "exact":
            dists = run_batch(circuit, count)
        else:
            seeds = [_instance_seed(seed, pc.fragment_index, i)
                     for i in range(count)]
            dists = [r.to_signed_distribution()
                     for r in run_batch(circuit, count, shots, seeds)]
        entries.append(FragmentResultEntry(
            pc.fragment_index, gate_ids, list(pc.clbit_map), dists))
    return FragmentResults(entries, list(program.gate_order), program.num_clbits)


# ---------------------------------------------------------------------------
# knitter

def _fragment_tables(results: FragmentResults):
    """Per fragment: (global-stride, local-stride) pairs for index digit
    extraction, the sorted union u_j of its output keys scattered to original
    output-bit positions, and a 6^k_j x |u_j| table of its instance values
    over u_j."""
    k = len(results.gate_order)
    gstride = {gid: 6 ** (k - 1 - t) for t, gid in enumerate(results.gate_order)}
    tables = []
    for entry in results.entries:
        kj = len(entry.gate_ids)
        rows = len(entry.distributions)
        if rows != 6 ** kj:
            raise KnitShapeError(
                f"fragment {entry.fragment_index} has {rows} results, "
                f"expected {6 ** kj}")
        strides = [(gstride[gid], 6 ** (kj - 1 - t))
                   for t, gid in enumerate(entry.gate_ids)]
        local = np.concatenate([d.keys for d in entry.distributions])
        keys = _read_bits(local, dict(enumerate(entry.clbit_map)))
        union, column = np.unique(keys, return_inverse=True)
        row = np.repeat(np.arange(rows), [d.keys.size for d in entry.distributions])
        # Unrecorded fragment bits marginalize away: scattered keys that
        # collide within one instance are added.
        values = np.concatenate([d.values for d in entry.distributions])
        # bincount returns int64 when given no entries; the knit needs floats.
        table = np.bincount(row * union.size + column, weights=values,
                            minlength=rows * union.size).astype(np.float64, copy=False)
        tables.append((strides, union, table.reshape(rows, union.size)))
    # A program without fragments knits as one fragment whose one instance
    # gives key 0 weight 1.
    return tables or [([], np.zeros(1, dtype=np.int64), np.ones((1, 1)))]


def _digit_index(instances, strides):
    """Each global instance's row in a table over ``strides``, the
    (global-stride, local-stride) pairs of its gates."""
    index = np.zeros(len(instances), dtype=np.int64)
    for gs, ls in strides:
        index += instances // gs % 6 * ls
    return index


def _block_table(tables, members):
    """Strides and table of a block of adjacent fragments. Its rows are the
    digit tuples of the gates touching the block, last gate fastest; each row
    is the Kronecker product of its fragments' rows at those digits, first
    fragment fastest, gathered and multiplied as in the knit kernel. A
    one-fragment block is that fragment's table itself."""
    if len(members) == 1:
        strides, _, table = tables[members[0]]
        return strides, table
    gates = sorted({gs for j in members for gs, _ in tables[j][0]}, reverse=True)
    place = {gs: 6 ** (len(gates) - 1 - t) for t, gs in enumerate(gates)}
    digits = np.arange(6 ** len(gates))
    block = None
    for j in members:
        strides, _, table = tables[j]
        index = _digit_index(digits, [(place[gs], ls) for gs, ls in strides])
        rows = table.take(index, axis=0)
        block = rows if block is None else (
            rows[:, :, None] * block[:, None, :]).reshape(len(digits), -1)
    return [(gs, place[gs]) for gs in gates], block


def _half_tables(tables, members):
    """One half's fragments, grouped greedily into blocks of adjacent
    fragments whose tables hold at most KNIT_TABLE_ENTRIES entries (a lone
    fragment always makes a block), as (strides, table) pairs."""
    def entries(block):
        gates = {gs for j in block for gs, _ in tables[j][0]}
        return 6 ** len(gates) * math.prod(tables[j][2].shape[1] for j in block)

    blocks = []
    for j in members:
        if blocks and entries(blocks[-1] + [j]) <= KNIT_TABLE_ENTRIES:
            blocks[-1].append(j)
        else:
            blocks.append([j])
    return [_block_table(tables, block) for block in blocks]


def _knit_range(args):
    start, end, coeff, tables = args
    widths = [table.shape[1] for _, _, table in tables]
    chunk = max(1, min(KNIT_CHUNK_ENTRIES // max(math.prod(widths), 1), end - start))
    block = chunk * max(1, KNIT_BLOCK // chunk)
    # The fragments before the split make the left half, which leads with the
    # coefficient, and the rest the right half; the split minimizes the sum
    # of the halves' widths, and a lone fragment makes a right half.
    split = min(range(len(widths)),
                key=lambda s: math.prod(widths[:s]) + math.prod(widths[s:]))
    left, right = math.prod(widths[:split]), math.prod(widths[split:])
    # A sub-block: whole chunks whose halves are built together.
    sub = chunk * max(1, KNIT_CHUNK_ENTRIES // 4 // (chunk * max(left + right, 1)))
    # Per table-block, in half order: its strides and table, built once; a
    # buffer for a sub-block of its rows; and the row-wise Kronecker product
    # of its half's rows so far, which for a half's first block is its rows.
    steps, halves = [], []
    for members in (range(split), range(split, len(tables))):
        prefix = None
        for strides, table in _half_tables(tables, members):
            rows = np.empty((sub, table.shape[1]))
            prod = rows if prefix is None else np.empty(
                (len(rows), rows.shape[1] * prefix.shape[1]))
            steps.append((strides, table, rows, prefix, prod))
            prefix = prod
        halves.append(prefix)
    # The left half is weighted through its first block's rows.
    weighted = steps[0][2] if split else None
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
        pad = np.zeros(-live.size % chunk, dtype=np.int64)
        weights = np.concatenate([coeff[live], pad])
        live = np.concatenate([live, pad])
        # Each live instance's row in each block table.
        index = [_digit_index(live, strides) for strides, *_ in steps]
        for lo in range(0, live.size, sub):
            n = min(sub, live.size - lo)
            for (_, table, rows, prefix, prod), li in zip(steps, index):
                # take writes straight into out under mode="clip" (every row
                # is in range); under the default mode it buffers.
                table.take(li[lo:lo + n], axis=0, out=rows[:n], mode="clip")
                if rows is weighted:
                    rows[:n] *= weights[lo:lo + n, None]
                if prefix is not None:
                    np.multiply(rows[:n, :, None], prefix[:n, None, :],
                                out=prod[:n].reshape(n, rows.shape[1], -1))
            lhs = halves[0][:n] if split else weights[lo:lo + n, None]
            count = n // chunk
            for lc, rc in zip(lhs.reshape(count, chunk, left),
                              halves[1][:n].reshape(count, chunk, right)):
                product(rc.T, lc, out=buf)
                acc += buf
    return acc


def _check_output_bits(clbit_maps: list[list[int]], num_clbits: int) -> None:
    """Refuse the fragment clbit maps that :func:`knit` refuses."""
    clbits = [c for m in clbit_maps for c in m]
    top_bit = max([num_clbits - 1] + clbits)
    if top_bit >= 63:
        raise KnitKeyWidthError(f"output bit {top_bit} does not fit an int64 key")
    outside = sorted({c for c in clbits if not 0 <= c < num_clbits})
    if outside:
        raise KnitShapeError(f"clbit map entries {outside} lie outside the "
                             f"{num_clbits} output bits")
    # One fragment may map two of its bits to one output bit: codegen does
    # so for two qubits measured into one clbit, and the table's keys then
    # hold what the engine gives an uncut circuit. Fragments must own
    # disjoint output bits, or kept entries would share keys.
    owner = {}
    shared = sorted({c for j, m in enumerate(clbit_maps)
                     for c in m if owner.setdefault(c, j) != j})
    if shared:
        raise KnitShapeError(f"output bits {shared} are shared across fragments")


def knit(results: FragmentResults, coeffs: GlobalCoefficients,
         workers: int = 1) -> SignedDistribution:
    """Reconstruct the original circuit's signed distribution.

    Computes sum_i C[i] * (x)_j dist_j(i_j): the global instance index i is
    decomposed into base-6 digits in gate order (last gate fastest), each
    fragment reads the digits of the gates touching it, and fragment
    bitstrings are scattered back to original output-bit positions. One
    accumulator spans the product Pi of the fragments' key-union sizes, with
    the first fragment's axis fastest. The fragments are split in two at the
    point that minimizes Pi_left + Pi_right, the products of the two sides'
    key-union sizes. Each side's adjacent fragments are grouped greedily into
    blocks whose table, 6^g rows for the g gates touching the block by the
    product of its fragments' key-union sizes, holds at most
    KNIT_TABLE_ENTRIES entries; a lone fragment is a block whose table is
    its own. Each worker builds its block tables once. For a sub-block of
    whole chunks of max(1, KNIT_CHUNK_ENTRIES // Pi) instances with a
    nonzero coefficient, each block's rows are gathered; the left half is
    the coefficient-weighted row-wise Kronecker product of the left blocks'
    rows, (instances, Pi_left), and the right half that of the right blocks'
    rows, (instances, Pi_right). Each chunk adds the matrix product of its
    transposed right half with its left half to the (Pi_right, Pi_left)
    accumulator; a one-instance chunk adds their outer product, computed
    elementwise. The coefficient vector is split into ``workers`` contiguous
    ranges whose accumulators are added in worker order as they arrive.
    Keys are computed for the kept entries only. Clbit maps that share an
    output bit across fragments or leave the ``num_clbits`` output bits are
    refused with :class:`KnitShapeError`, and output bits at 63 or above
    with :class:`KnitKeyWidthError`, before any table is built.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if coeffs.gate_order != results.gate_order:
        raise KnitShapeError("coefficient gate order does not match results")
    k = len(results.gate_order)
    total = 6 ** k
    if len(coeffs.values) != total:
        raise KnitShapeError(
            f"coefficient vector has {len(coeffs.values)} entries, "
            f"expected {total}")
    _check_output_bits([e.clbit_map for e in results.entries], results.num_clbits)
    tables = _fragment_tables(results)
    size = math.prod(union.size for _, union, _ in tables)
    if size > MAX_KNIT_ENTRIES:
        raise KnitOverflowError(
            f"knit accumulator needs {size} entries (limit {MAX_KNIT_ENTRIES})")

    bounds = [round(total * w / workers) for w in range(workers + 1)]
    ranges = [(bounds[w], bounds[w + 1], coeffs.values, tables)
              for w in range(workers) if bounds[w] < bounds[w + 1]]
    if len(ranges) <= 1:
        values = functools.reduce(operator.iadd, map(_knit_range, ranges))
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            values = functools.reduce(operator.iadd, pool.imap(_knit_range, ranges))
    # One accumulator axis per fragment, the first fastest. Each fragment's
    # union, broadcast along its axis, is read at the kept entries only;
    # fragments own disjoint output bits, so the OR of those reads is unique.
    shape = [union.size for _, union, _ in reversed(tables)]
    values = values.reshape(shape)
    keep = np.abs(values) >= _KNIT_OUTPUT_EPS
    values = values[keep]  # frees the accumulator
    keys = np.zeros(values.size, dtype=np.int64)
    for axis, (_, union, _) in enumerate(reversed(tables)):
        along = union.reshape((-1,) + (1,) * (len(shape) - 1 - axis))
        keys |= np.broadcast_to(along, shape)[keep]
    return SignedDistribution.from_arrays(keys, values, results.num_clbits)


def run_program(program: CompiledProgram, mode: str = "exact",
                shots: int = 20000, seed: int = 0,
                workers: int = 1) -> SignedDistribution:
    """Instantiate, execute and knit in one call. Clbit maps the knit would
    refuse, and more global instances than the limit, are refused before
    any instance runs."""
    _check_output_bits([pc.clbit_map for pc in program.fragments],
                      program.num_clbits)
    coeffs = global_coefficients(program)
    results = execute(program, None, mode, shots, seed)
    return knit(results, coeffs, workers)
