#!/usr/bin/env python3
"""Benchmark gatevm end to end (``--trace 0``) or layer by layer (``--trace 1``).

    python3 perfbench/run.py --workload knit-dense --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Run from the root of a checkout: the program is imported from ``src/``.
One run repeats whole passes over the workload's case list until
``--seconds`` have gone by, checks every output, and prints each metric with
its unit, then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (medians over the passes). The
exit code is 0 when every output check passed. Result and span files go to
``perfbench/out/``. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
WORKLOADS = ("knit-dense", "reuse-branches", "wide")
SETUP_REPEATS = 5
# One process, workers=1, and one BLAS/OpenMP thread, so that a run's time
# is the work of one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "circuits_per_s": "1/s", "compile_s": "s", "run_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s", "qpu_instances": "count",
    "depth_ratio": "ratio", "esp_gain": "ratio",
}
_TIMES = ("qasm.parse_s", "vc.from_circuit_s", "passes.cc_s", "passes.dr_s",
          "passes.qr_s", "codegen.generate_s", "codegen.to_json_s",
          "runtime.schedule_s", "transpiler.map_and_route_s",
          "runtime.instantiate_s", "runtime.global_coefficients_s",
          "runtime.execute_s", "runtime.execute_overhead_s", "sim.run_s",
          "runtime.knit_s", "self.qasm_s", "self.vc_s", "self.passes_s",
          "self.codegen_s", "self.transpiler_s", "self.runtime_s", "self.sim_s",
          "self.unaccounted_s", "bench.traced_wall_s", "bench.traced_compile_s",
          "bench.traced_run_s")
_COUNTS = ("passes.virtual_gates", "passes.qr_merges", "codegen.fragments",
           "codegen.max_width", "transpiler.calls", "runtime.instances",
           "runtime.distinct_circuits", "sim.calls", "sim.midcircuit_ops",
           "runtime.knit_global_instances", "runtime.knit_terms",
           "runtime.knit_output_entries")
_RATES = ("sim.calls_per_s", "runtime.knit_terms_per_s", "bench.traced_circuits_per_s")
PER_LAYER = {**{m: "s" for m in _TIMES}, **{m: "count" for m in _COUNTS},
             **{m: "1/s" for m in _RATES}}
# Span name (inclusive time) behind each per-layer time.
SPAN_TIMES = {
    "qasm.parse_s": ("qasm.parse_qasm",), "vc.from_circuit_s": ("vc.from_circuit",),
    "passes.cc_s": ("passes.cc",), "passes.dr_s": ("passes.dr",),
    "passes.qr_s": ("passes.qr",), "codegen.generate_s": ("codegen.generate",),
    "codegen.to_json_s": ("codegen.program_to_json",),
    "runtime.schedule_s": ("runtime.schedule",),
    "transpiler.map_and_route_s": ("transpiler.map_and_route",),
    "runtime.instantiate_s": ("runtime.instantiate",),
    "runtime.global_coefficients_s": ("runtime.global_coefficients",),
    "runtime.execute_s": ("runtime.execute",), "runtime.knit_s": ("runtime.knit",),
    "sim.run_s": ("sim.run_exact", "sim.run_sampled"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0,
                   help="drives circuit angles, BV secrets and shot seeds (default 0)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure whole passes until this much time has gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def median_of(passes: list[dict], name: str) -> float:
    return statistics.median(p[name] for p in passes)


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import gatevm and build the
    workload's circuits and QASM text, i.e. up to the first timed case."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _digest(out) -> str:
    h = hashlib.sha256(out.program_json.encode())
    if out.dist is not None:
        h.update(repr(sorted(out.dist.entries.items())).encode())
    return h.hexdigest()


class Run:
    """Bookkeeping of one run: counts, output checks and per-case facts."""

    def __init__(self, cases):
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.facts: dict[str, dict] = {}

    def attempt(self, case, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"{case.spec.name}: operation failed", file=sys.stderr)
            traceback.print_exc()
            return None

    def check(self, case, out) -> None:
        import checks
        from pipeline import depth_and_esp_ratios, fragment_instances

        name = case.spec.name
        self.errors += [f"{name}: {e}" for e in checks.case_errors(case, out)]
        digest = _digest(out)
        if self.digests.setdefault(name, digest) != digest:
            self.errors.append(f"{name}: output changed between passes")
        if name not in self.facts:
            spec, program = case.spec, out.program
            self.facts[name] = {
                "family": spec.family, "qubits": spec.num_qubits,
                "param": spec.param, "s": spec.s, "b": spec.b,
                "pass_seed": spec.pass_seed, "mode": spec.mode,
                "k": program.num_virtual_gates,
                "fragment_widths": [pc.num_qubits for pc in program.fragments],
                "instances": sum(fragment_instances(program)),
                "output_bits": program.num_clbits,
                "ratios": depth_and_esp_ratios(case, out),
            }


def untraced_passes(run: Run, seconds: float) -> list[dict]:
    from pipeline import fragment_instances, run_case

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        row = {"compile_s": 0.0, "run_s": 0.0, "done": 0, "qpu_instances": 0}
        for case in run.cases:
            out = run.attempt(case, lambda: run_case(case))
            if out is None:
                continue
            row["compile_s"] += out.compile_s
            row["run_s"] += out.run_s
            row["done"] += 1
            row["qpu_instances"] += sum(fragment_instances(out.program))
            run.check(case, out)
        row["circuits_per_s"] = _rate(row["done"], row["compile_s"] + row["run_s"])
        passes.append(row)
    return passes


def end_to_end_metrics(run: Run, passes: list[dict], setup_s: float) -> dict:
    from pipeline import geometric_mean

    ratios = [f["ratios"] for f in run.facts.values() if f["ratios"]]
    return {
        "circuits_per_s": median_of(passes, "circuits_per_s"),
        "compile_s": median_of(passes, "compile_s"),
        "run_s": median_of(passes, "run_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "qpu_instances": median_of(passes, "qpu_instances"),
        "depth_ratio": geometric_mean([r[0] for r in ratios]) if ratios else 0.0,
        "esp_gain": geometric_mean([r[1] for r in ratios]) if ratios else 0.0,
    }


def traced_passes(run: Run, seconds: float, tracer) -> list[dict]:
    """The first pass also runs every case untraced and requires identical
    programs and outputs; only traced cases feed the metrics."""
    from pipeline import layer_counts, run_case
    from spans import summarize

    counts: dict[str, dict] = {}
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        row = dict.fromkeys(PER_LAYER, 0.0)
        done = 0
        for case in run.cases:
            name = case.spec.name
            plain = None
            if not passes:
                plain = run.attempt(case, lambda: run_case(case))
                if plain is None:
                    continue
            tracer.case = f"pass{len(passes)}/{name}"
            out = run.attempt(case, lambda: run_case(case, tracer))
            if out is None:
                continue
            done += 1
            run.check(case, out)
            if plain is not None and _digest(plain) != _digest(out):
                run.errors.append(f"{name}: traced and untraced outputs differ")
            s = summarize(tracer.case_spans(tracer.case))
            layer_self = sum(v for k, v in s.items() if k.startswith("self."))
            if abs(layer_self - s["wall"]) > 1e-9:
                run.errors.append(f"{name}: self times do not add up to the wall time")
            for metric, span_names in SPAN_TIMES.items():
                row[metric] += sum(s.get(f"{n}.time", 0.0) for n in span_names)
            row["sim.calls"] += sum(s.get(f"{n}.calls", 0) for n in SPAN_TIMES["sim.run_s"])
            row["transpiler.calls"] += s.get("transpiler.map_and_route.calls", 0)
            for key, value in s.items():
                if key.startswith("self."):
                    label = "unaccounted" if key == "self.bench" else key[5:]
                    row[f"self.{label}_s"] += value
            row["bench.traced_wall_s"] += s["wall"]
            row["bench.traced_compile_s"] += out.compile_s
            row["bench.traced_run_s"] += out.run_s
            if name not in counts:
                counts[name] = layer_counts(out)
            for key, value in counts[name].items():
                row[key] = max(row[key], value) if key == "codegen.max_width" else row[key] + value
        # sim is called only from inside execute
        row["runtime.execute_overhead_s"] = row["runtime.execute_s"] - row["sim.run_s"]
        row["sim.calls_per_s"] = _rate(row["sim.calls"], row["sim.run_s"])
        row["runtime.knit_terms_per_s"] = _rate(row["runtime.knit_terms"], row["runtime.knit_s"])
        row["bench.traced_circuits_per_s"] = _rate(done, row["bench.traced_wall_s"])
        passes.append(row)
    return passes


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def run_workload(args) -> int:
    if not (SRC / "gatevm" / "__init__.py").is_file():
        print(f"gatevm sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import gatevm
    if Path(gatevm.__file__).resolve().parent != (SRC / "gatevm").resolve():
        print(f"imported gatevm from {gatevm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from cases import build_workload
    cases = build_workload(args.workload, args.seed)
    if args.setup_probe:
        return 0

    import oracle_checks
    from spans import Tracer
    failures = oracle_checks.run_all()
    if failures:
        print("the reference failed its own checks:", *failures, sep="\n  ",
              file=sys.stderr)
        return 1
    run = Run(cases)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer = Tracer()
        passes = traced_passes(run, args.seconds, tracer)
        metrics = {m: median_of(passes, m) for m in PER_LAYER}
        units = PER_LAYER
        tracer.write_json(OUT_DIR / f"{stem}-spans.json")
    else:
        setup_s = measure_setup(args)
        passes = untraced_passes(run, args.seconds)
        metrics = end_to_end_metrics(run, passes, setup_s)
        units = END_TO_END
    result = {
        "correct": not run.errors, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {**result, "errors": run.errors, "passes": passes, "cases": run.facts},
        indent=1))
    for error in run.errors:
        print("CHECK FAILED:", error, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"attempted {run.attempted}, failed {run.failed}")
    for m, v in metrics.items():
        print(f"  {m:32s} {v:14.6g} {units[m]}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[workload] = None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
