"""One case through gatevm's public API, as ``gatevm compile`` then
``gatevm run`` do it: parse -> IR -> cc/dr/qr -> codegen (-> JSON), then
schedule on a fresh fleet -> execute -> knit.

Untraced, the program's functions are called as they are. Traced, every
call is wrapped in a span: the passes go to ``run_pipeline`` as wrapped
callables, so the program still threads the budget, and the ``sim`` and
``transpiler`` functions are wrapped where ``runtime`` looks them up.
"""
from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from gatevm import codegen, passes, qasm, qpu, runtime, transpiler, vc
from gatevm.circuit import Circuit, Instruction, instr

from cases import SHOTS, Case
from spans import Tracer, patched

PASS_NAMES = ("cc", "dr", "qr")
ALPHA = BETA = 0.5
WORKERS = 1
# Compile phases of a few milliseconds are timed this long per case and pass.
MIN_COMPILE_S = 0.5


def make_fleet() -> list[qpu.QpuModel]:
    """A new fleet per case: ``runtime.schedule`` raises the queue length of
    the QPUs it is given, so a reused fleet would schedule differently from
    round to round."""
    return [qpu.heavy_hex_qpu("hh27-a"), qpu.heavy_hex_qpu("hh27-b"),
            qpu.line_qpu(12)]


def pass_config(case: Case) -> passes.PassConfig:
    return passes.PassConfig(max_fragment_size=case.spec.s, budget=case.spec.b,
                             seed=case.spec.pass_seed)


@dataclass
class Outcome:
    circuit: Circuit  # parsed from the case's QASM text
    optimized: vc.VirtualCircuit
    program: codegen.CompiledProgram
    program_json: str
    assignment: dict[int, str]
    compile_s: float
    run_s: float
    results: runtime.FragmentResults | None = None
    coeffs: runtime.GlobalCoefficients | None = None
    dist: object = None  # the knitted SignedDistribution
    sim_circuits: list | None = None  # traced runs only


def _traced_passes(tracer: Tracer):
    """What ``run_pipeline`` runs for cc, dr, qr under ``exact=False``."""
    return (tracer.wrap("passes.cc", passes.cut_greedy_kl),
            tracer.wrap("passes.dr", passes.reduce_dependencies_greedy),
            tracer.wrap("passes.qr", passes.reuse_qubits))


def run_case(case: Case, tracer: Tracer | None = None) -> Outcome:
    """Untraced, the compile phase repeats until it has taken
    ``MIN_COMPILE_S`` and reports its median; traced, everything runs once."""
    if tracer is None:
        return _run(case, lambda name: contextlib.nullcontext(), PASS_NAMES,
                    min_compile_s=MIN_COMPILE_S)
    circuits: list[Circuit] = []
    keep = circuits.append
    with tracer.span("bench.case"), patched(
            runtime,
            run_exact=tracer.wrap("sim.run_exact", runtime.run_exact,
                                  on_call=lambda c, *a, **k: keep(c)),
            run_sampled=tracer.wrap("sim.run_sampled", runtime.run_sampled,
                                    on_call=lambda c, *a, **k: keep(c)),
            map_and_route=tracer.wrap("transpiler.map_and_route",
                                      runtime.map_and_route),
            esp=tracer.wrap("transpiler.esp", runtime.esp)):
        out = _run(case, tracer.span, _traced_passes(tracer),
                   min_compile_s=0.0, instantiate=True)
    out.sim_circuits = circuits
    return out


def _run(case: Case, span, pass_list, min_compile_s: float,
         instantiate: bool = False) -> Outcome:
    spec = case.spec
    cfg = pass_config(case)
    compile_times: list[float] = []
    while not compile_times or sum(compile_times) < min_compile_s:
        t0 = time.perf_counter()
        with span("qasm.parse_qasm"):
            circuit = qasm.parse_qasm(case.qasm_text, name=spec.name)
        with span("vc.from_circuit"):
            ir = vc.from_circuit(circuit)
        with span("passes.run_pipeline"):
            optimized = passes.run_pipeline(ir, cfg, pass_list)
        with span("codegen.generate"):
            program = codegen.generate(optimized)
        with span("codegen.program_to_json"):
            program_json = codegen.program_to_json(program)
        compile_times.append(time.perf_counter() - t0)
    fleet = make_fleet()
    t1 = time.perf_counter()
    with span("runtime.schedule"):
        assignment = runtime.schedule(program, fleet, ALPHA, BETA, spec.pass_seed)
    out = Outcome(circuit, optimized, program, program_json, assignment,
                  statistics.median(compile_times), 0.0)
    if spec.mode != "compile":
        if instantiate:
            with span("runtime.instantiate"):
                runtime.instantiate(program)
        with span("runtime.global_coefficients"):
            out.coeffs = runtime.global_coefficients(program)
        with span("runtime.execute"):
            out.results = runtime.execute(program, assignment, spec.mode, SHOTS,
                                          case.shot_seed, WORKERS)
        with span("runtime.knit"):
            out.dist = runtime.knit(out.results, out.coeffs, WORKERS)
    out.run_s = time.perf_counter() - t1
    return out


# ---------------------------------------------------------------------------
# counts that follow from a case's outputs, taken outside every span

def fragment_instances(program: codegen.CompiledProgram) -> list[int]:
    return [6 ** len(pc.touching_gates(program.gate_order))
            for pc in program.fragments]


def _midcircuit_ops(c: Circuit) -> int:
    """Resets, and measurements with a later operation on the same qubit."""
    later: set[int] = set()
    count = 0
    for ins in reversed(c.instructions):
        if ins.kind == "reset" or (ins.kind == "measure" and ins.qubits[0] in later):
            count += 1
        later.update(ins.qubits)
    return count


def _knit_terms(out: Outcome) -> int:
    """Sum over global instances with a nonzero coefficient of the product
    of the fragment distribution sizes."""
    order = out.results.gate_order
    k = len(order)
    index = np.arange(6 ** k, dtype=np.int64)
    terms = np.where(out.coeffs.values != 0.0, 1, 0).astype(np.int64)
    for entry in out.results.entries:
        kj = len(entry.gate_ids)
        local = np.zeros_like(index)
        for t, gid in enumerate(entry.gate_ids):
            digit = (index // 6 ** (k - 1 - order.index(gid))) % 6
            local += digit * 6 ** (kj - 1 - t)
        sizes = np.array([len(d.entries) for d in entry.distributions], dtype=np.int64)
        terms *= sizes[local]
    return int(terms.sum())


def layer_counts(out: Outcome) -> dict[str, int]:
    program = out.program
    counts = {
        "passes.virtual_gates": program.num_virtual_gates,
        "passes.qr_merges": sum(1 for x in out.optimized.instructions
                                if getattr(x, "kind", None) == "reset"),
        "codegen.fragments": len(program.fragments),
        "codegen.max_width": max(pc.num_qubits for pc in program.fragments),
        "runtime.instances": sum(fragment_instances(program)),
        "runtime.distinct_circuits": 0,
        "sim.midcircuit_ops": 0,
        "runtime.knit_global_instances": 0,
        "runtime.knit_terms": 0,
        "runtime.knit_output_entries": 0,
    }
    if out.dist is not None:
        circuits = out.sim_circuits or []
        counts["runtime.distinct_circuits"] = len(
            {(c.num_qubits, c.num_clbits, tuple(c.instructions)) for c in circuits})
        counts["sim.midcircuit_ops"] = sum(_midcircuit_ops(c) for c in circuits)
        counts["runtime.knit_global_instances"] = len(out.coeffs)
        counts["runtime.knit_terms"] = _knit_terms(out)
        counts["runtime.knit_output_entries"] = len(out.dist.entries)
    return counts


# ---------------------------------------------------------------------------
# the paper's depth and fidelity proxies, as harness.run_case reports them

def _proxy(pc: codegen.ParamCircuit) -> Circuit:
    """Fragment circuit with each placeholder counted as one 1-qubit op."""
    ops: list[Instruction] = [
        instr("rz", el.qubit, angle=0.0) if isinstance(el, codegen.Placeholder)
        else el for el in pc.elements]
    return Circuit(pc.num_qubits, ops, name=pc.name, num_clbits=pc.num_clbits)


def depth_and_esp_ratios(case: Case, out: Outcome) -> tuple[float, float] | None:
    """(deepest routed fragment / routed uncut depth, min fragment ESP /
    uncut ESP), or None when the circuit is wider than the widest QPU."""
    fleet = {q.name: q for q in make_fleet()}
    reference = max(fleet.values(), key=lambda q: (q.num_qubits, q.name))
    if out.circuit.num_qubits > reference.num_qubits:
        return None
    seed = case.spec.pass_seed
    uncut = transpiler.map_and_route(out.circuit, reference, seed)
    depths, esps = [], []
    for pc in out.program.fragments:
        device = fleet[out.assignment[pc.fragment_index]]
        routed = transpiler.map_and_route(_proxy(pc), device, seed)
        depths.append(transpiler.depth(routed.circuit))
        esps.append(transpiler.esp(routed, device))
    return (max(depths) / transpiler.depth(uncut.circuit),
            min(esps) / transpiler.esp(uncut, reference))


def geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
