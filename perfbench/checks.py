"""Output checks that do not trust gatevm's own results.

Exact cases are compared with ``oracle.statevector_distribution`` of the
uncut circuit, sampled cases with the analytic output of their family, and
every case's program is checked by properties that any valid cut must have.
"""
from __future__ import annotations

import math

from gatevm import codegen

import oracle
from cases import SHOTS, Case
from pipeline import Outcome, fragment_instances

EXACT_TOLERANCE = 1e-9
# Sampled-mode errors shrink as 1/sqrt(shots). Over 60 shot seeds each at
# 20 000 shots, ghz-24 and bv-24 reached at most L_inf 0.016 (mean 0.007,
# sd 0.003) and a fidelity deficit of 0.032 (mean 0.014, sd 0.006). The
# bounds below, 0.035 and 0.071 there, sit about 8 sd above those means.
SAMPLED_LINF = 5.0 / math.sqrt(SHOTS)
SAMPLED_MIN_FIDELITY = 1.0 - 10.0 / math.sqrt(SHOTS)


def _source_clbits(case: Case) -> list[int]:
    measured = [ins.clbit for ins in case.circuit.instructions
                if ins.kind == "measure"]
    return sorted(measured) if measured else list(range(case.circuit.num_qubits))


def program_errors(case: Case, out: Outcome) -> list[str]:
    spec, program = case.spec, out.program
    errors = []
    widths = [pc.num_qubits for pc in program.fragments]
    if max(widths) > spec.s:
        errors.append(f"fragment widths {widths} exceed s={spec.s}")
    if program.num_virtual_gates > spec.b:
        errors.append(f"{program.num_virtual_gates} virtual gates exceed b={spec.b}")
    clbits = sorted(c for pc in program.fragments for c in pc.clbit_map)
    if clbits != _source_clbits(case):
        errors.append("source clbits are not split one-to-one over fragments")
    sides = sorted((el.gate_id, el.side) for pc in program.fragments
                   for el in pc.elements if isinstance(el, codegen.Placeholder))
    if sides != sorted((g, s) for g in program.gate_order for s in "ab"):
        errors.append("a virtual gate side is missing or repeated")
    if codegen.program_to_json(codegen.program_from_json(out.program_json)) != out.program_json:
        errors.append("program JSON does not serialize back to the same text")
    return errors


def output_errors(case: Case, out: Outcome) -> list[str]:
    if out.dist is None:
        return []
    errors = []
    expected = fragment_instances(out.program)
    got = [len(e.distributions) for e in out.results.entries]
    if got != expected:
        errors.append(f"fragment result counts {got}, expected 6^k_j = {expected}")
    entries = out.dist.entries
    if case.spec.mode == "exact":
        reference = oracle.statevector_distribution(case.circuit)
        linf = oracle.linf_to_dense(entries, reference)
        if not linf <= EXACT_TOLERANCE:
            errors.append(f"L_inf {linf:.3g} to the reference > {EXACT_TOLERANCE}")
        total = math.fsum(entries.values())
        if not abs(total - 1.0) <= EXACT_TOLERANCE:
            errors.append(f"distribution sums to {total!r}")
        return errors
    if case.spec.family == "ghz":
        reference = oracle.ghz_distribution(case.circuit.num_qubits)
    elif case.spec.family == "bv":
        reference = oracle.bv_distribution(case.secret)
    else:
        return errors + [f"no analytic output for family {case.spec.family!r}"]
    linf = oracle.linf_to_sparse(entries, reference)
    fidelity = oracle.clipped_fidelity(entries, reference)
    if not linf <= SAMPLED_LINF:
        errors.append(f"L_inf {linf:.4f} to the analytic output > {SAMPLED_LINF:.4f}")
    if not fidelity >= SAMPLED_MIN_FIDELITY:
        errors.append(f"clipped fidelity {fidelity:.4f} < {SAMPLED_MIN_FIDELITY:.4f}")
    return errors


def case_errors(case: Case, out: Outcome) -> list[str]:
    return program_errors(case, out) + output_errors(case, out)
