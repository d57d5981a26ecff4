"""Experiment harness: compile, run and measure benchmark suites.

A JSON config names benchmarks, pass settings, a fleet and an execution
mode; the harness emits a JSON report plus CSV rows with fidelity, ESP,
depth, CNOT and dependency-count columns. Reports are byte-identical for
identical inputs and seeds; wall-clock timings are opt-in because they are
inherently non-deterministic.
"""
from __future__ import annotations

import json
import time
from pathlib import Path

from .bench import BenchmarkSpec, generate_benchmark
from .codegen import generate
from .passes import PassConfig, run_pipeline
from .qpu import QpuModel, fleet_from_json, preset_qpu, qpu_from_dict
from .runtime import execute, global_coefficients, knit, schedule
from .sim import MAX_QUBITS, linf_distance, run_exact
from .transpiler import cnot_count, depth, esp, hellinger_fidelity, map_and_route
from .vc import from_circuit, qubit_dependencies

CSV_COLUMNS = [
    "name", "family", "num_qubits", "param", "seed", "mode", "shots",
    "fragments", "virtual_gates", "max_fragment_width",
    "deps_before", "deps_after",
    "uncut_depth", "uncut_cnots", "uncut_esp",
    "max_frag_depth", "max_frag_cnots", "min_frag_esp",
    "fidelity", "linf",
]


def resolve_fleet(fleet_spec, base_dir: Path) -> list[QpuModel]:
    if isinstance(fleet_spec, dict):
        return [qpu_from_dict(d) for d in fleet_spec["qpus"]]
    if isinstance(fleet_spec, str) and fleet_spec.startswith("preset:"):
        return [preset_qpu(fleet_spec.split(":", 1)[1])]
    return fleet_from_json((base_dir / fleet_spec).read_text())


def _fragment_metrics(program, assignment, fleet_by_name, seed):
    from .runtime import _metric_proxy

    depths, cnots, esps = [], [], []
    for pc in program.fragments:
        qpu = fleet_by_name[assignment[pc.fragment_index]]
        physical = map_and_route(_metric_proxy(pc), qpu, seed)
        depths.append(depth(physical.circuit))
        cnots.append(cnot_count(physical.circuit))
        esps.append(esp(physical, qpu))
    return max(depths), max(cnots), min(esps)


def run_case(spec: BenchmarkSpec, cfg: PassConfig, passes: tuple[str, ...],
             fleet: list[QpuModel], mode: str, shots: int, workers: int,
             alpha: float, beta: float, seed: int,
             include_timings: bool) -> dict:
    circuit = generate_benchmark(spec)
    fleet_by_name = {q.name: q for q in fleet}
    reference = max(fleet, key=lambda q: (q.num_qubits, q.name))

    uncut_physical = map_and_route(circuit, reference, seed)
    row: dict = {
        "name": spec.name, "family": spec.family,
        "num_qubits": spec.num_qubits, "param": spec.param, "seed": spec.seed,
        "mode": mode, "shots": shots if mode == "sampled" else 0,
        "uncut_depth": depth(uncut_physical.circuit),
        "uncut_cnots": cnot_count(uncut_physical.circuit),
        "uncut_esp": esp(uncut_physical, reference),
    }

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    vc = from_circuit(circuit)
    row["deps_before"] = len(qubit_dependencies(vc))
    optimized = run_pipeline(vc, cfg, passes)
    row["deps_after"] = len(qubit_dependencies(optimized))
    program = generate(optimized)
    timings["compile"] = time.perf_counter() - t0

    row["fragments"] = len(program.fragments)
    row["virtual_gates"] = program.num_virtual_gates
    row["max_fragment_width"] = max(
        pc.num_qubits for pc in program.fragments)

    assignment = schedule(program, fleet, alpha, beta, seed)
    row["max_frag_depth"], row["max_frag_cnots"], row["min_frag_esp"] = \
        _fragment_metrics(program, assignment, fleet_by_name, seed)

    t0 = time.perf_counter()
    coeffs = global_coefficients(program)
    timings["global_coefficients"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    results = execute(program, assignment, mode, shots, seed, workers)
    timings["execute"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    knitted = knit(results, coeffs, workers)
    timings["knit"] = time.perf_counter() - t0

    row["fidelity"] = ""
    row["linf"] = ""
    if circuit.num_qubits <= MAX_QUBITS:
        ideal = run_exact(circuit)
        row["fidelity"] = hellinger_fidelity(knitted, ideal, clip=True)
        if mode == "exact":
            row["linf"] = linf_distance(knitted, ideal)
    if include_timings:
        row["timings"] = {k: round(v, 6) for k, v in timings.items()}
    return row


def experiment(config: dict, base_dir: Path | str = ".") -> dict:
    """Run every configured benchmark case through compile -> run -> stats."""
    base_dir = Path(base_dir)
    pass_cfg = config.get("pass_config", {})
    cfg = PassConfig(
        max_fragment_size=pass_cfg.get("max_fragment_size", 1 << 30),
        budget=pass_cfg.get("budget", 0),
        seed=pass_cfg.get("seed", 0),
        exact=pass_cfg.get("exact", False),
    )
    passes = tuple(config.get("passes", ["cc", "dr", "qr"]))
    fleet_spec = config.get("fleet", "preset:heavy-hex-27")
    mode = config.get("mode", "exact")
    shots = int(config.get("shots", 20000))
    workers = int(config.get("workers", 1))
    alpha = float(config.get("alpha", 0.5))
    beta = float(config.get("beta", 0.5))
    seed = int(config.get("seed", 0))
    include_timings = bool(config.get("include_timings", False))

    cases = []
    for bench in config.get("benchmarks", []):
        spec = BenchmarkSpec(
            family=bench["family"],
            num_qubits=bench["num_qubits"],
            param=bench.get("param", 1),
            seed=bench.get("seed", 0),
        )
        fleet = resolve_fleet(fleet_spec, base_dir)
        cases.append(run_case(spec, cfg, passes, fleet, mode, shots, workers,
                              alpha, beta, seed, include_timings))
    return {"cases": cases}


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def report_to_csv(report: dict) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in report["cases"]:
        cells = []
        for col in CSV_COLUMNS:
            v = row.get(col, "")
            cells.append(repr(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
