"""The benchmark's workloads and the inputs they hand to gatevm.

Each case names a circuit family and size, the pass settings (largest
fragment width ``s``, virtual-gate budget ``b``, pass seed) and a mode:
``exact`` or ``sampled`` runs the whole pipeline, ``compile`` stops after
scheduling and after the program's JSON text is written.

The workload seed drives circuit angles and shot seeds. Circuit structure
and pass seeds are fixed per case: the heuristic passes cut a circuit
differently under another pass seed, which moved the instance count by up
to 10x between seeds, and a seeded QAOA graph or Bernstein-Vazirani secret
changes the cut and the routed depth. Either would make a case's cost
depend on the seed rather than on the code.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import networkx as nx

from gatevm import bench, qasm
from gatevm.circuit import Circuit

SHOTS = 20_000
QAOA_GRAPH_SEED = 0


@dataclass(frozen=True)
class CaseSpec:
    family: str
    num_qubits: int
    param: int
    s: int
    b: int
    mode: str  # "exact", "sampled" or "compile"
    pass_seed: int = 0

    @property
    def name(self) -> str:
        return f"{self.family}-{self.num_qubits}-p{self.param}"


WORKLOADS: dict[str, tuple[CaseSpec, ...]] = {
    # Exact mode, k=5-6 virtual gates over 4-6 fragments of 2-4 qubits and
    # 12-14 output bits: the knitter's dense path does most of the work.
    "knit-dense": (
        CaseSpec("hs", 14, 1, 4, 5, "exact"),
        CaseSpec("tl", 14, 1, 4, 5, "exact"),
        CaseSpec("hs", 12, 2, 4, 6, "exact"),
    ),
    # Exact mode, qubit reuse and fragment-internal virtual gates: each
    # instance splits into many measurement branches in the statevector
    # engine, while k <= 4 keeps the knit small.
    "reuse-branches": (
        CaseSpec("qaoa", 12, 3, 6, 2, "exact"),
        CaseSpec("wstate", 12, 1, 6, 4, "exact"),
        CaseSpec("hs", 10, 2, 4, 3, "exact", pass_seed=1),
    ),
    # Wider than heavy-hex-27 (compile only) or wider than 22 output bits
    # (sampled, sparse knit path).
    "wide": (
        CaseSpec("vqe", 54, 3, 27, 6, "compile"),
        CaseSpec("hs", 54, 2, 27, 4, "compile"),
        CaseSpec("wstate", 54, 1, 27, 1, "compile"),
        CaseSpec("qaoa-b", 54, 1, 27, 2, "compile"),
        CaseSpec("ghz", 24, 1, 4, 6, "sampled"),
        CaseSpec("bv", 24, 1, 12, 3, "sampled"),
    ),
}


@dataclass
class Case:
    spec: CaseSpec
    circuit: Circuit  # as generated, before the QASM round trip
    qasm_text: str
    shot_seed: int
    secret: str | None = None  # Bernstein-Vazirani only


def _derived_seed(seed: int, label: str) -> int:
    return random.Random(f"{seed}/{label}").randrange(1 << 31)


def _qaoa_fixed_graph(n: int, degree: int, angle_seed: int) -> Circuit:
    """One QAOA layer on a d-regular graph that does not follow the seed."""
    graph = nx.random_regular_graph(degree, n, seed=QAOA_GRAPH_SEED)
    rng = random.Random(angle_seed)
    c = Circuit(n, name=f"qaoa{degree}-{n}")
    for q in range(n):
        c.add("h", q)
    gamma = rng.uniform(0, 2 * math.pi)
    for u, v in sorted(graph.edges):
        c.add("rzz", u, v, angle=gamma)
    beta = rng.uniform(0, 2 * math.pi)
    for q in range(n):
        c.add("rx", q, angle=beta)
    return c


def _bv_secret(length: int) -> str:
    """Alternating bits, starting with 1."""
    return "".join("1" if i % 2 == 0 else "0" for i in range(length))


def build_case(spec: CaseSpec, seed: int) -> Case:
    angle_seed = _derived_seed(seed, spec.name)
    secret = None
    if spec.family == "qaoa":
        circuit = _qaoa_fixed_graph(spec.num_qubits, spec.param, angle_seed)
    elif spec.family == "bv":
        secret = _bv_secret(spec.num_qubits - 1)
        circuit = bench.bv_circuit(secret)
    else:
        circuit = bench.generate_benchmark(bench.BenchmarkSpec(
            spec.family, spec.num_qubits, spec.param, angle_seed))
    return Case(spec, circuit, qasm.emit_qasm(circuit),
                _derived_seed(seed, spec.name + "/shots"), secret)


def build_workload(name: str, seed: int) -> list[Case]:
    return [build_case(spec, seed) for spec in WORKLOADS[name]]
