import math

import pytest

from gatevm.bench import (
    BenchmarkError,
    BenchmarkSpec,
    bv_circuit,
    generate_benchmark,
    ghz_circuit,
    qaoa_barbell_circuit,
    qaoa_regular_circuit,
    two_local_circuit,
    vqe_circuit,
    w_state_circuit,
)
from gatevm.sim import run_exact

from helpers import circuits_equal


def test_bv_measures_exactly_the_secret():
    dist = run_exact(bv_circuit("101"))
    assert dist.num_bits == 3
    assert dist.as_strings() == pytest.approx({"101": 1.0})


def test_bv_rejects_bad_strings():
    with pytest.raises(BenchmarkError):
        bv_circuit("10a")
    with pytest.raises(BenchmarkError):
        bv_circuit("")


def test_ghz_distribution():
    dist = run_exact(ghz_circuit(5))
    assert dist.as_strings() == pytest.approx({"00000": 0.5, "11111": 0.5})


def test_w_state_uniform_one_hot():
    for n in (2, 3, 5):
        dist = run_exact(w_state_circuit(n))
        expected = {1 << q: 1.0 / n for q in range(n)}
        assert dist.entries == pytest.approx(expected, abs=1e-12)


def test_vqe_linear_entanglement_cx_count():
    for n, layers in ((5, 1), (7, 2)):
        c = vqe_circuit(n, layers, seed=3)
        assert sum(1 for i in c.instructions if i.kind == "cx") == (n - 1) * layers


def test_two_local_circular_entanglement_cx_count():
    c = two_local_circuit(6, 1, seed=0)
    assert sum(1 for i in c.instructions if i.kind == "cx") == 6
    c2 = two_local_circuit(2, 1, seed=0)
    assert sum(1 for i in c2.instructions if i.kind == "cx") == 1


def test_qaoa_regular_rzz_count():
    c = qaoa_regular_circuit(6, 2, seed=1)
    # a 2-regular graph on 6 vertices has exactly 6 edges
    assert sum(1 for i in c.instructions if i.kind == "rzz") == 6
    with pytest.raises(BenchmarkError):
        qaoa_regular_circuit(5, 3, seed=0)  # odd n*d


def test_qaoa_barbell_edge_count():
    c = qaoa_barbell_circuit(6, seed=0)
    # two triangles plus one bridge edge
    assert sum(1 for i in c.instructions if i.kind == "rzz") == 7
    with pytest.raises(BenchmarkError):
        qaoa_barbell_circuit(5, seed=0)


def test_variational_angles_within_range_and_seeded():
    c = generate_benchmark(BenchmarkSpec("hs", 5, 2, seed=11))
    angles = [i.angle for i in c.instructions if i.angle is not None]
    assert angles and all(0 <= a < 2 * math.pi for a in angles)


def test_generators_deterministic_per_seed():
    for family in ("ghz", "wstate", "bv", "hs", "tl", "vqe", "qaoa", "qaoa-b"):
        spec = BenchmarkSpec(family, 6, 2 if family != "qaoa" else 2, seed=5)
        assert circuits_equal(generate_benchmark(spec), generate_benchmark(spec))
    a = generate_benchmark(BenchmarkSpec("vqe", 6, 1, seed=1))
    b = generate_benchmark(BenchmarkSpec("vqe", 6, 1, seed=2))
    assert not circuits_equal(a, b)


def test_unknown_family_rejected():
    with pytest.raises(BenchmarkError):
        BenchmarkSpec("qft", 4)


def test_spec_names_are_stable():
    assert BenchmarkSpec("ghz", 10, 1, 2).name == "ghz-10-p1-s2"
