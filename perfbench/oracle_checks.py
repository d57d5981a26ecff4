"""Hand-worked checks of the reference in ``oracle.py``.

Run with ``python3 perfbench/oracle_checks.py`` or
``python -m pytest perfbench/oracle_checks.py``; ``run.py`` also runs them
before every benchmark run. The circuits are built here from plain tuples,
so the checks need neither gatevm nor its circuit types.
"""
from __future__ import annotations

import math
import sys
from types import SimpleNamespace

import numpy as np

import oracle


def _circuit(num_qubits, ops, num_clbits=0):
    instructions = [SimpleNamespace(kind=kind, qubits=tuple(qubits),
                                    angle=angle, clbit=clbit)
                    for kind, qubits, angle, clbit in ops]
    return SimpleNamespace(num_qubits=num_qubits, num_clbits=num_clbits,
                           instructions=instructions)


def _dense(num_bits, entries):
    out = np.zeros(1 << num_bits)
    for key, value in entries.items():
        out[key] = value
    return out


def _close(got, expected):
    assert np.max(np.abs(got - expected)) <= 1e-12, (got, expected)


def test_qubit_zero_is_the_low_bit():
    c = _circuit(3, [("x", (0,), None, None), ("rx", (2,), math.pi, None)])
    _close(oracle.statevector_distribution(c), _dense(3, {0b101: 1.0}))


def test_bell_pair():
    c = _circuit(2, [("h", (0,), None, None), ("cx", (0, 1), None, None)])
    _close(oracle.statevector_distribution(c), _dense(2, {0b00: 0.5, 0b11: 0.5}))


def test_ghz_3():
    c = _circuit(3, [("h", (0,), None, None), ("cx", (0, 1), None, None),
                     ("cx", (1, 2), None, None)])
    _close(oracle.statevector_distribution(c), _dense(3, {0b000: 0.5, 0b111: 0.5}))
    assert oracle.ghz_distribution(3) == {0b000: 0.5, 0b111: 0.5}


def test_bv_3():
    """Secret "101" on data qubits 0..2 with ancilla 3; clbit i reads
    qubit i, so the only outcome is 0b101."""
    secret = "101"
    ops = [("x", (3,), None, None)]
    ops += [("h", (q,), None, None) for q in range(4)]
    ops += [("cx", (i, 3), None, None) for i, bit in enumerate(secret) if bit == "1"]
    ops += [("h", (q,), None, None) for q in range(3)]
    ops += [("measure", (q,), None, q) for q in range(3)]
    c = _circuit(4, ops, num_clbits=3)
    _close(oracle.statevector_distribution(c), _dense(3, {0b101: 1.0}))
    assert oracle.bv_distribution(secret) == {0b101: 1.0}


def test_rotations_and_phases():
    # ry(pi/2) then rzz and cz only add phases: outcomes stay uniform.
    c = _circuit(2, [("ry", (0,), math.pi / 2, None), ("ry", (1,), math.pi / 2, None),
                     ("rzz", (0, 1), 0.7, None), ("cz", (0, 1), None, None),
                     ("rz", (0,), 1.3, None), ("s", (1,), None, None),
                     ("t", (1,), None, None)])
    _close(oracle.statevector_distribution(c), np.full(4, 0.25))
    # rzz(pi) is -i Z(x)Z, and H Z H = X: between H layers it flips both qubits.
    c = _circuit(2, [("h", (0,), None, None), ("h", (1,), None, None),
                     ("rzz", (0, 1), math.pi, None),
                     ("h", (0,), None, None), ("h", (1,), None, None)])
    _close(oracle.statevector_distribution(c), _dense(2, {0b11: 1.0}))


def test_comparisons():
    ref = {0: 0.5, 7: 0.5}
    assert oracle.linf_to_sparse({0: 0.5, 7: 0.5}, ref) == 0.0
    assert oracle.linf_to_sparse({0: 0.49, 7: 0.5, 3: 0.02}, ref) == 0.02
    assert oracle.clipped_fidelity({0: 0.5, 7: 0.5, 3: -0.1}, ref) == 1.0
    assert oracle.clipped_fidelity({3: 1.0}, ref) == 0.0
    assert oracle.linf_to_dense({1: 0.25}, np.array([0.0, 0.5])) == 0.25


def run_all() -> list[str]:
    """Names of the checks that failed, with their messages."""
    failures = []
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures.append(f"{name}: {exc}")
    return failures


if __name__ == "__main__":
    failed = run_all()
    for line in failed:
        print(line, file=sys.stderr)
    print("oracle checks:", "FAILED" if failed else "ok")
    sys.exit(1 if failed else 0)
