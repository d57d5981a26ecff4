import json
from types import SimpleNamespace

import pytest

from gatevm.bench import BenchmarkSpec, generate_benchmark
from gatevm.cli import EXIT_PIPELINE_FAILURE, EXIT_VERIFY_FAILURE, _workers, main
from gatevm.harness import experiment, report_to_json
from gatevm.qasm import emit_qasm
from gatevm.qpu import fleet_to_json, line_qpu
from gatevm.transpiler import esp, map_and_route

from fixtures import fully_dependent_circuit


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.qasm"
    assert main(["bench", "--family", "ghz", "--qubits", "6",
                 "-o", str(path)]) == 0
    return path


def test_parse_round_trip(tmp_path, ghz_file, capsys):
    out = tmp_path / "back.qasm"
    assert main(["parse", str(ghz_file), "-o", str(out)]) == 0
    assert out.read_text() == ghz_file.read_text()


def test_parse_dump_graphs(ghz_file, capsys):
    assert main(["parse", str(ghz_file), "--dump-graphs"]) == 0
    err = capsys.readouterr().err
    assert "digraph op_graph" in err and "graph qubit_graph" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0; qreg q[2]; ccx q[0],q[1],q[0];")
    assert main(["parse", str(bad)]) == 1
    assert "ccx" in capsys.readouterr().err


def test_compile_and_run(tmp_path, ghz_file, capsys):
    prog = tmp_path / "prog.json"
    assert main(["compile", str(ghz_file), "--max-fragment-size", "3",
                 "--budget", "2", "-o", str(prog)]) == 0
    doc = json.loads(prog.read_text())
    assert len(doc["fragments"]) == 2
    out = tmp_path / "dist.json"
    assert main(["run", str(prog), "--mode", "exact", "-o", str(out)]) == 0
    dist = json.loads(out.read_text())
    assert dist["000000"] == pytest.approx(0.5)
    assert dist["111111"] == pytest.approx(0.5)


def test_run_sampled_deterministic(tmp_path, ghz_file):
    prog = tmp_path / "prog.json"
    main(["compile", str(ghz_file), "--max-fragment-size", "3",
          "--budget", "1", "-o", str(prog)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["run", str(prog), "--mode", "sampled", "--shots", "2000",
                     "--seed", "7", "-o", str(out)]) == 0
    assert a.read_text() == b.read_text()


def test_run_with_fleet_scheduling(tmp_path, ghz_file):
    prog = tmp_path / "prog.json"
    main(["compile", str(ghz_file), "--max-fragment-size", "3",
          "--budget", "1", "-o", str(prog)])
    out = tmp_path / "d.json"
    assert main(["run", str(prog), "--fleet", "preset:heavy-hex-27",
                 "-o", str(out)]) == 0
    assert json.loads(out.read_text())["000000"] == pytest.approx(0.5)


def _custom_line_qpu():
    return line_qpu(6, name="custom-line-6", error_rates={"2q": 0.05})


def test_run_and_stats_with_fleet_file(tmp_path, ghz_file, capsys):
    fleet_path = tmp_path / "fleet.json"
    fleet_path.write_text(fleet_to_json([_custom_line_qpu()]))
    prog = tmp_path / "prog.json"
    main(["compile", str(ghz_file), "--max-fragment-size", "3",
          "--budget", "1", "-o", str(prog)])
    out = tmp_path / "d.json"
    assert main(["run", str(prog), "--fleet", str(fleet_path),
                 "-o", str(out)]) == 0
    assert json.loads(out.read_text())["000000"] == pytest.approx(0.5)
    assert main(["stats", str(ghz_file), "--fleet", str(fleet_path)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in rows] == ["ghz", "ghz@custom-line-6"]


def test_experiment_with_inline_fleet(tmp_path):
    qpu = _custom_line_qpu()
    cfg = {
        "benchmarks": [{"family": "ghz", "num_qubits": 6, "seed": 0}],
        "pass_config": {"max_fragment_size": 3, "budget": 2, "seed": 0},
        "fleet": json.loads(fleet_to_json([qpu])),
        "mode": "exact",
        "seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["experiment", str(cfg_path), "-o", str(out)]) == 0
    (case,) = json.loads(out.read_text())["cases"]
    circuit = generate_benchmark(BenchmarkSpec("ghz", 6, 1, 0))
    assert case["uncut_esp"] == esp(map_and_route(circuit, qpu, 0), qpu)
    assert case["linf"] <= 1e-8


def test_stats_reports_rows(ghz_file, capsys):
    assert main(["stats", str(ghz_file), "--fleet", "preset:line-12"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["depth"] == 6
    assert rows[0]["cnot_count"] == 5
    assert rows[1]["esp"] < 1.0


def test_verify_pass_and_exit_codes(ghz_file, capsys):
    assert main(["verify", str(ghz_file), "--max-fragment-size", "3",
                 "--budget", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["equivalent"] is True
    assert main(["verify", str(ghz_file), "--max-fragment-size", "3",
                 "--budget", "2", "--tolerance", "-1"]) == EXIT_VERIFY_FAILURE


def test_pipeline_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "dense.qasm"
    path.write_text(emit_qasm(fully_dependent_circuit(5)))
    code = main(["compile", str(path), "--max-fragment-size", "2",
                 "--budget", "0", "-o", str(tmp_path / "x.json")])
    assert code == EXIT_PIPELINE_FAILURE
    assert "pipeline failure" in capsys.readouterr().err


def test_experiment_reports_are_byte_identical(tmp_path):
    cfg = {
        "benchmarks": [{"family": "ghz", "num_qubits": 6, "seed": 0}],
        "pass_config": {"max_fragment_size": 3, "budget": 2, "seed": 0},
        "fleet": "preset:heavy-hex-27",
        "mode": "exact",
        "seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report-{tag}.json"
        csv = tmp_path / f"report-{tag}.csv"
        assert main(["experiment", str(cfg_path), "-o", str(out),
                     "--csv", str(csv)]) == 0
        outs.append((out.read_text(), csv.read_text()))
    assert outs[0] == outs[1]
    header = outs[0][1].splitlines()[0]
    for column in ("fidelity", "uncut_depth", "max_frag_cnots", "deps_after"):
        assert column in header


def test_experiment_timings_name_each_stage():
    cfg = {
        "benchmarks": [{"family": "ghz", "num_qubits": 6, "seed": 0}],
        "pass_config": {"max_fragment_size": 3, "budget": 2, "seed": 0},
        "mode": "exact",
    }
    plain = experiment(cfg)
    timed = experiment({**cfg, "include_timings": True})
    timings = timed["cases"][0].pop("timings")
    assert set(timings) == {"compile", "global_coefficients", "execute", "knit"}
    assert "timings" not in plain["cases"][0]
    assert report_to_json(timed) == report_to_json(plain)


def test_experiment_empty_benchmark_list(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"benchmarks": []}))
    assert main(["experiment", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"cases": []}


def test_workers_env_override(monkeypatch):
    args = SimpleNamespace(workers=1)
    monkeypatch.setenv("GATEVM_WORKERS", "6")
    assert _workers(args) == 6
    monkeypatch.delenv("GATEVM_WORKERS")
    assert _workers(SimpleNamespace(workers=3)) == 3


def test_experiment_knit_equivalence_suite(tmp_path):
    cfg = {
        "benchmarks": [
            {"family": "ghz", "num_qubits": 8, "seed": 0},
            {"family": "wstate", "num_qubits": 6, "seed": 0},
            {"family": "vqe", "num_qubits": 8, "param": 1, "seed": 3},
            {"family": "qaoa", "num_qubits": 8, "param": 2, "seed": 4},
        ],
        "pass_config": {"max_fragment_size": 4, "budget": 3, "seed": 0},
        "fleet": "preset:heavy-hex-27",
        "mode": "exact",
        "seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["experiment", str(cfg_path), "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["cases"]) == 4
    for case in report["cases"]:
        assert case["linf"] <= 1e-8
        assert case["fidelity"] == pytest.approx(1.0, abs=1e-6)


def test_experiment_budget_sweep_dependencies_non_increasing(tmp_path):
    deps = []
    for budget in range(4):
        cfg = {
            "benchmarks": [{"family": "tl", "num_qubits": 7, "param": 1,
                            "seed": 2}],
            "pass_config": {"max_fragment_size": 7, "budget": budget,
                            "seed": 0},
            "passes": ["dr"],
            "fleet": "preset:heavy-hex-27",
            "mode": "exact",
            "seed": 0,
        }
        cfg_path = tmp_path / f"cfg{budget}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"report{budget}.json"
        assert main(["experiment", str(cfg_path), "-o", str(out)]) == 0
        case = json.loads(out.read_text())["cases"][0]
        assert case["virtual_gates"] <= budget
        deps.append(case["deps_after"])
    assert all(a >= b for a, b in zip(deps, deps[1:]))
