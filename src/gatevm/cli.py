"""Command-line entry point.

Subcommands: parse, compile, run, stats, bench, verify, experiment.
Exit codes: 0 success, 2 pipeline failure (a fragment cannot reach the
target width), 3 verification failure. GATEVM_WORKERS overrides the
worker count.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import BenchmarkSpec, FAMILIES, generate_benchmark
from .codegen import generate, program_from_json, program_to_json
from .harness import experiment, report_to_csv, report_to_json, resolve_fleet
from .passes import (PassConfig, WidthUnreachableError, WireSplitError,
                     run_pipeline)
from .qasm import QasmError, emit_qasm, parse_qasm
from .runtime import run_program, schedule
from .sim import MAX_QUBITS, linf_distance, run_exact
from .transpiler import cnot_count, depth, esp, map_and_route
from .vc import from_circuit, op_graph_dot, qubit_dependencies, qubit_graph_dot

EXIT_OK = 0
EXIT_PIPELINE_FAILURE = 2
EXIT_VERIFY_FAILURE = 3


def _workers(args) -> int:
    env = os.environ.get("GATEVM_WORKERS")
    if env is not None:
        return max(1, int(env))
    return max(1, args.workers)


def _add_pass_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-fragment-size", type=int, default=None,
                   help="maximum fragment width (default: no splitting)")
    p.add_argument("--budget", type=int, default=0,
                   help="maximum number of virtualized gates")
    p.add_argument("--exact", action="store_true",
                   help="use the exhaustive exact passes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--passes", default="cc,dr,qr",
                   help="comma-separated pass order subset (cc,dr,qr)")


def _compile_from_args(args):
    text = Path(args.file).read_text()
    circuit = parse_qasm(text, name=Path(args.file).stem)
    size = args.max_fragment_size or circuit.num_qubits
    cfg = PassConfig(max_fragment_size=size, budget=args.budget,
                     seed=args.seed, exact=args.exact)
    passes = tuple(p for p in args.passes.split(",") if p)
    vc = from_circuit(circuit)
    optimized = run_pipeline(vc, cfg, passes)
    if getattr(args, "dump_graphs", False):
        sys.stderr.write(op_graph_dot(optimized))
        sys.stderr.write(qubit_graph_dot(optimized))
    return circuit, optimized


def cmd_parse(args) -> int:
    circuit = parse_qasm(Path(args.file).read_text(), name=Path(args.file).stem)
    if args.dump_graphs:
        vc = from_circuit(circuit)
        sys.stderr.write(op_graph_dot(vc))
        sys.stderr.write(qubit_graph_dot(vc))
    text = emit_qasm(circuit)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_compile(args) -> int:
    _, optimized = _compile_from_args(args)
    program = generate(optimized)
    doc = program_to_json(program)
    if args.output:
        Path(args.output).write_text(doc)
    else:
        sys.stdout.write(doc)
    return EXIT_OK


def cmd_run(args) -> int:
    program = program_from_json(Path(args.program).read_text())
    workers = _workers(args)
    fleet = resolve_fleet(args.fleet, Path()) if args.fleet else None
    if fleet is not None:
        schedule(program, fleet, args.alpha, args.beta, args.seed)
    dist = run_program(program, mode=args.mode, shots=args.shots,
                       seed=args.seed, workers=workers)
    doc = json.dumps(dist.as_strings(), indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(doc)
    else:
        sys.stdout.write(doc + "\n")
    return EXIT_OK


def cmd_stats(args) -> int:
    circuit = parse_qasm(Path(args.file).read_text(), name=Path(args.file).stem)
    vc = from_circuit(circuit)
    rows = [{
        "name": circuit.name,
        "depth": depth(circuit),
        "cnot_count": cnot_count(circuit),
        "qubit_dependencies": len(qubit_dependencies(vc)),
    }]
    if args.fleet:
        for qpu in resolve_fleet(args.fleet, Path()):
            if qpu.num_qubits < circuit.num_qubits:
                continue
            physical = map_and_route(circuit, qpu, args.seed)
            rows.append({
                "name": f"{circuit.name}@{qpu.name}",
                "depth": depth(physical.circuit),
                "cnot_count": cnot_count(physical.circuit),
                "esp": esp(physical, qpu),
                "inserted_swaps": physical.inserted_swaps,
            })
    sys.stdout.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    spec = BenchmarkSpec(family=args.family, num_qubits=args.qubits,
                         param=args.param, seed=args.seed)
    text = emit_qasm(generate_benchmark(spec))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    circuit, optimized = _compile_from_args(args)
    if circuit.num_qubits > MAX_QUBITS:
        sys.stderr.write("circuit too large for the reference simulation\n")
        return EXIT_VERIFY_FAILURE
    program = generate(optimized)
    knitted = run_program(program, mode="exact", workers=_workers(args))
    ideal = run_exact(circuit)
    error = linf_distance(knitted, ideal)
    ok = error <= args.tolerance
    sys.stdout.write(json.dumps({
        "virtual_gates": program.num_virtual_gates,
        "fragments": len(program.fragments),
        "linf_error": error,
        "tolerance": args.tolerance,
        "equivalent": ok,
    }, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAILURE


def cmd_experiment(args) -> int:
    config = json.loads(Path(args.config).read_text())
    report = experiment(config, base_dir=Path(args.config).parent)
    if args.output:
        Path(args.output).write_text(report_to_json(report))
    else:
        sys.stdout.write(report_to_json(report) + "\n")
    if args.csv:
        Path(args.csv).write_text(report_to_csv(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatevm",
        description="Compile and run quantum circuits with gate virtualization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a QASM file and re-emit it")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--dump-graphs", action="store_true",
                   help="write operation/qubit graphs as DOT to stderr")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("compile", help="optimize a circuit into a program")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--dump-graphs", action="store_true")
    _add_pass_flags(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="execute a compiled program")
    p.add_argument("program")
    p.add_argument("--fleet", help="fleet JSON file or preset:<name>")
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--shots", type=int, default=20000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("stats", help="report circuit metrics as JSON")
    p.add_argument("file")
    p.add_argument("--fleet", help="fleet JSON file or preset:<name>")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("bench", help="generate a benchmark circuit")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--param", type=int, default=1,
                   help="layers (hs/tl/vqe) or graph degree (qaoa)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify",
                       help="check knitted output against full simulation")
    p.add_argument("file")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--workers", type=int, default=1)
    _add_pass_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("experiment", help="run a benchmark suite config")
    p.add_argument("config")
    p.add_argument("-o", "--output")
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (WidthUnreachableError, WireSplitError) as exc:
        sys.stderr.write(f"pipeline failure: {exc}\n")
        return EXIT_PIPELINE_FAILURE
    except (QasmError, ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
