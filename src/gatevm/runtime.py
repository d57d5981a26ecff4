"""Runtime: fragment instantiation, scored dispatch, execution, knitting.

The instantiator enumerates the 6^k_j decomposition choices of each
fragment. The QPU manager scores simulated QPUs by queue length and
estimated success probability. The knitter reconstructs the original
circuit's quasi-distribution by summing, over all 6^k global instances,
the coefficient-weighted tensor product of fragment results; the global
coefficient vector is split into contiguous ranges across a process pool.
"""
from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Instruction, instr
from .codegen import CompiledProgram, ParamCircuit, Placeholder
from .qpu import QpuModel
from .sim import SignedDistribution, run_exact, run_sampled
from .transpiler import esp, map_and_route

MAX_FRAGMENT_INSTANCES = 10_000_000
_KNIT_OUTPUT_EPS = 1e-12
_DENSE_BITS_LIMIT = 22


class ExecutionError(RuntimeError):
    """Base class for runtime failures."""


class InstantiationOverflowError(ExecutionError):
    pass


class NoFittingQpuError(ExecutionError):
    pass


class KnitShapeError(ExecutionError):
    pass


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

    def circuit_for(self, indices: tuple[int, ...]) -> Circuit:
        return self.param_circuit.instantiate(dict(zip(self.gate_ids, indices)))


def instantiate(program: CompiledProgram) -> list[InstanceSet]:
    """Enumerate the 6^k_j instances of every fragment.

    k_j counts the virtual gates touching the fragment; a gate internal to a
    fragment drives both of its placeholders with a single index.
    """
    out = []
    for pc in program.fragments:
        gate_ids = pc.touching_gates(program.gate_order)
        count = 6 ** len(gate_ids)
        if count > MAX_FRAGMENT_INSTANCES:
            raise InstantiationOverflowError(
                f"fragment {pc.fragment_index} needs {count} instances "
                f"(limit {MAX_FRAGMENT_INSTANCES})")
        instances = list(itertools.product(range(6), repeat=len(gate_ids)))
        out.append(InstanceSet(pc.fragment_index, gate_ids, instances, pc))
    return out


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

def _metric_proxy(pc: ParamCircuit) -> Circuit:
    """Fragment circuit with each placeholder counted as one 1-qubit op."""
    out: list[Instruction] = []
    for el in pc.elements:
        if isinstance(el, Placeholder):
            out.append(instr("rz", el.qubit, angle=0.0))
        else:
            out.append(el)
    return Circuit(pc.num_qubits, out, name=pc.name, num_clbits=pc.num_clbits)


def schedule(fragments: list[ParamCircuit] | CompiledProgram,
             qpus: list[QpuModel], alpha: float, beta: float,
             seed: int = 0, gate_order: list[int] | None = None) -> dict[int, str]:
    """Assign each fragment to the QPU with the highest score.

    A candidate must have enough qubits; it is transpiled once per
    (fragment, candidate) pair to estimate its success probability. The
    score is ``alpha * (1 - w) + beta * esp`` with ``w`` the queue length
    normalized by the fleet-wide maximum (0 when every queue is empty).
    Ties go to the lexicographically first QPU name. The chosen QPU's queue
    grows by the fragment's instance count before the next fragment is
    placed.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be >= 0")
    if isinstance(fragments, CompiledProgram):
        gate_order = fragments.gate_order
        fragments = fragments.fragments
    assignment: dict[int, str] = {}
    for pc in fragments:
        candidates = sorted((q for q in qpus if q.num_qubits >= pc.num_qubits),
                            key=lambda q: q.name)
        if not candidates:
            raise NoFittingQpuError(
                f"no QPU fits fragment {pc.fragment_index} "
                f"({pc.num_qubits} qubits)")
        proxy = _metric_proxy(pc)
        max_queue = max(q.queue_length for q in qpus)
        best = None
        best_score = None
        for qpu in candidates:
            physical = map_and_route(proxy, qpu, seed)
            success = esp(physical, qpu)
            wait = qpu.queue_length / max_queue if max_queue > 0 else 0.0
            score = alpha * (1.0 - wait) + beta * success
            if best_score is None or score > best_score:
                best, best_score = qpu, score
        assignment[pc.fragment_index] = best.name
        touching = (pc.touching_gates(gate_order) if gate_order is not None
                    else sorted({el.gate_id for el in pc.elements
                                 if isinstance(el, Placeholder)}))
        best.queue_length += 6 ** len(touching)
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


def _run_instance(task) -> SignedDistribution:
    circuit, mode, shots, seed = task
    if mode == "exact":
        return run_exact(circuit)
    return run_sampled(circuit, shots, seed).to_signed_distribution()


def execute(program: CompiledProgram, assignment: dict[int, str] | None = None,
            mode: str = "exact", shots: int = 20000, seed: int = 0,
            workers: int = 1) -> FragmentResults:
    """Run every instance of every fragment on the statevector backend.

    ``assignment`` is bookkeeping from the scheduler; instances run on the
    simulator either way. Results are collected in instance order, so the
    outcome does not depend on worker interleaving. Exact mode ignores
    ``shots``; sampled mode derives one child seed per instance.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if assignment is not None:
        missing = [pc.fragment_index for pc in program.fragments
                   if pc.fragment_index not in assignment]
        if missing:
            raise ExecutionError(f"assignment misses fragments {missing}")
    sets = instantiate(program)
    tasks = []
    offsets = []
    for iset in sets:
        offsets.append(len(tasks))
        for idx, tup in enumerate(iset.instances):
            tasks.append((iset.circuit_for(tup), mode, shots,
                          _instance_seed(seed, iset.fragment_index, idx)))
    if workers > 1 and len(tasks) > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            dists = pool.map(_run_instance, tasks, chunksize=32)
    else:
        dists = [_run_instance(t) for t in tasks]
    entries = []
    for iset, start in zip(sets, offsets):
        entries.append(FragmentResultEntry(
            iset.fragment_index, list(iset.gate_ids),
            list(iset.param_circuit.clbit_map),
            dists[start:start + len(iset.instances)]))
    return FragmentResults(entries, list(program.gate_order), program.num_clbits)


# ---------------------------------------------------------------------------
# knitter

def _fragment_tables(results: FragmentResults):
    """Per fragment: (global-stride, local-stride) pairs for index digit
    extraction plus per-local-instance key/value arrays with keys already
    scattered to original output-bit positions."""
    k = len(results.gate_order)
    gstride = {gid: 6 ** (k - 1 - t) for t, gid in enumerate(results.gate_order)}
    tables = []
    for entry in results.entries:
        kj = len(entry.gate_ids)
        if len(entry.distributions) != 6 ** kj:
            raise KnitShapeError(
                f"fragment {entry.fragment_index} has "
                f"{len(entry.distributions)} results, expected {6 ** kj}")
        strides = [(gstride[gid], 6 ** (kj - 1 - t))
                   for t, gid in enumerate(entry.gate_ids)]
        keys_list, vals_list = [], []
        for dist in entry.distributions:
            items = sorted(dist.entries.items())
            local = np.array([key for key, _ in items], dtype=np.int64)
            vals = np.array([v for _, v in items], dtype=np.float64)
            keys = np.zeros_like(local)
            for t, clbit in enumerate(entry.clbit_map):
                keys |= ((local >> t) & 1) << clbit
            # Bits beyond the fragment's recorded outputs (e.g. a fragment
            # with no measured qubits at all) marginalize away: collapse
            # duplicate scattered keys by addition.
            if keys.size:
                uniq, inverse = np.unique(keys, return_inverse=True)
                if uniq.size != keys.size:
                    summed = np.zeros(uniq.size)
                    np.add.at(summed, inverse, vals)
                    keys, vals = uniq, summed
            keys_list.append(keys)
            vals_list.append(vals)
        tables.append((strides, keys_list, vals_list))
    return tables


def _knit_range(args):
    start, end, coeff, tables, num_bits = args
    dense = num_bits <= _DENSE_BITS_LIMIT
    acc_dense = np.zeros(1 << num_bits) if dense else None
    acc_sparse: dict[int, float] = {}
    for i in range(start, end):
        c_i = coeff[i]
        if c_i == 0.0:
            continue
        keys = None
        vals = None
        empty = False
        for strides, keys_list, vals_list in tables:
            li = 0
            for gs, ls in strides:
                li += ((i // gs) % 6) * ls
            fk = keys_list[li]
            if fk.size == 0:
                empty = True
                break
            fv = vals_list[li]
            if keys is None:
                keys, vals = fk, fv
            else:
                keys = (keys[:, None] | fk[None, :]).ravel()
                vals = (vals[:, None] * fv[None, :]).ravel()
        if empty:
            continue
        if keys is None:  # program with no fragments
            keys = np.zeros(1, dtype=np.int64)
            vals = np.ones(1)
        if dense:
            # Keys are unique within one instance (fragments own disjoint
            # output bits), so fancy-index accumulation is safe.
            acc_dense[keys] += c_i * vals
        else:
            for key, v in zip(keys.tolist(), vals.tolist()):
                acc_sparse[key] = acc_sparse.get(key, 0.0) + c_i * v
    if dense:
        nz = np.nonzero(acc_dense)[0]
        return nz, acc_dense[nz]
    items = sorted(acc_sparse.items())
    return (np.array([k for k, _ in items], dtype=np.int64),
            np.array([v for _, v in items]))


def knit(results: FragmentResults, coeffs: GlobalCoefficients,
         workers: int = 1) -> SignedDistribution:
    """Reconstruct the original circuit's signed distribution.

    Computes sum_i C[i] * (x)_j dist_j(i_j): the global instance index i is
    decomposed into base-6 digits in gate order (last gate fastest), each
    fragment reads the digits of the gates touching it, and fragment
    bitstrings are scattered back to original output-bit positions. The
    coefficient vector is split into ``workers`` contiguous ranges whose
    sparse partial sums are added.
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
    tables = _fragment_tables(results)
    num_bits = results.num_clbits

    bounds = [round(total * w / workers) for w in range(workers + 1)]
    ranges = [(bounds[w], bounds[w + 1], coeffs.values, tables, num_bits)
              for w in range(workers) if bounds[w] < bounds[w + 1]]
    if len(ranges) <= 1:
        parts = [_knit_range(r) for r in ranges]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            parts = pool.map(_knit_range, ranges)

    if num_bits <= _DENSE_BITS_LIMIT:
        dense = np.zeros(1 << num_bits)
        for keys, vals in parts:
            dense[keys] += vals  # keys are unique within each partial sum
        nz = np.nonzero(np.abs(dense) >= _KNIT_OUTPUT_EPS)[0]
        entries = dict(zip(nz.tolist(), dense[nz].tolist()))
    else:
        acc: dict[int, float] = {}
        for keys, vals in parts:
            for key, v in zip(keys.tolist(), vals.tolist()):
                acc[key] = acc.get(key, 0.0) + v
        entries = {key: v for key, v in acc.items()
                   if abs(v) >= _KNIT_OUTPUT_EPS}
    return SignedDistribution(entries, num_bits)


def run_program(program: CompiledProgram, mode: str = "exact",
                shots: int = 20000, seed: int = 0,
                workers: int = 1) -> SignedDistribution:
    """Instantiate, execute and knit in one call."""
    results = execute(program, None, mode, shots, seed, workers)
    return knit(results, global_coefficients(program), workers)
