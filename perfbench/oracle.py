"""Reference outputs computed without gatevm.

Exact cases are checked against a plain-numpy statevector of the uncut
circuit; sampled cases against the analytic output of their family. Nothing
here imports gatevm: a circuit is any object with ``num_qubits``,
``num_clbits`` and ``instructions``, each instruction having ``kind``,
``qubits``, ``angle`` and ``clbit``.

Bit order: qubit 0 (or clbit 0) is the least significant bit of a key.
"""
from __future__ import annotations

import math

import numpy as np

MAX_ORACLE_QUBITS = 16

_S2 = 1.0 / math.sqrt(2.0)
_FIXED = {
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "t": np.array([[1, 0], [0, complex(math.cos(math.pi / 4),
                                       math.sin(math.pi / 4))]]),
}


class OracleError(ValueError):
    """The reference cannot evaluate this circuit."""


def _one_qubit(kind: str, angle: float | None) -> np.ndarray:
    if kind in _FIXED:
        return _FIXED[kind]
    half = angle / 2.0
    c, s = math.cos(half), math.sin(half)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rz":
        return np.diag([complex(c, -s), complex(c, s)])
    raise OracleError(f"no reference for one-qubit kind {kind!r}")


def _two_qubit(kind: str, angle: float | None) -> np.ndarray:
    """4x4 matrix on (first, second) with the first qubit as the row's high
    bit; reshaped to (2, 2, 2, 2) as (out1, out2, in1, in2)."""
    if kind == "cx":
        m = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                     dtype=complex)
    elif kind == "cz":
        m = np.diag([1, 1, 1, -1]).astype(complex)
    elif kind == "rzz":
        even = complex(math.cos(angle / 2), -math.sin(angle / 2))
        m = np.diag([even, even.conjugate(), even.conjugate(), even])
    else:
        raise OracleError(f"no reference for two-qubit kind {kind!r}")
    return m.reshape(2, 2, 2, 2)


def statevector_distribution(circuit) -> np.ndarray:
    """Dense output distribution of an uncut circuit.

    Measurements must be terminal. The result is indexed by the classical
    register when the circuit measures, and by all qubits otherwise.
    """
    n = circuit.num_qubits
    if n > MAX_ORACLE_QUBITS:
        raise OracleError(f"{n} qubits exceed the reference's {MAX_ORACLE_QUBITS}")
    # Axis n-1-q holds qubit q, so a C-order flatten puts qubit 0 lowest.
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    measured: dict[int, int] = {}
    for ins in circuit.instructions:
        if ins.kind == "barrier":
            continue
        if any(q in measured for q in ins.qubits):
            raise OracleError("operation after a measurement")
        if ins.kind == "measure":
            measured[ins.qubits[0]] = ins.clbit
        elif len(ins.qubits) == 1:
            axis = n - 1 - ins.qubits[0]
            psi = np.moveaxis(np.tensordot(
                _one_qubit(ins.kind, ins.angle), psi, axes=([1], [axis])), 0, axis)
        elif len(ins.qubits) == 2:
            axes = [n - 1 - q for q in ins.qubits]
            psi = np.moveaxis(np.tensordot(
                _two_qubit(ins.kind, ins.angle), psi, axes=([2, 3], axes)),
                [0, 1], axes)
        else:
            raise OracleError(f"unsupported instruction {ins.kind!r}")
    probs = (np.abs(psi) ** 2).reshape(-1)
    if not measured:
        return probs
    index = np.arange(probs.size)
    keys = np.zeros_like(index)
    for q, clbit in measured.items():
        keys |= ((index >> q) & 1) << clbit
    out = np.zeros(1 << circuit.num_clbits)
    np.add.at(out, keys, probs)
    return out


def ghz_distribution(num_qubits: int) -> dict[int, float]:
    return {0: 0.5, (1 << num_qubits) - 1: 0.5}


def bv_distribution(secret: str) -> dict[int, float]:
    """Secret bit i is read from clbit i."""
    return {sum(1 << i for i, bit in enumerate(secret) if bit == "1"): 1.0}


def linf_to_dense(entries: dict[int, float], reference: np.ndarray) -> float:
    dense = np.zeros_like(reference)
    for key, value in entries.items():
        if not 0 <= key < dense.size:
            return math.inf
        dense[key] = value
    return float(np.max(np.abs(dense - reference)))


def linf_to_sparse(entries: dict[int, float], reference: dict[int, float]) -> float:
    keys = entries.keys() | reference.keys()
    return max(abs(entries.get(k, 0.0) - reference.get(k, 0.0)) for k in keys)


def clipped_fidelity(entries: dict[int, float], reference: dict[int, float]) -> float:
    """Hellinger fidelity after dropping negative mass and renormalizing."""
    positive = {k: v for k, v in entries.items() if v > 0.0}
    total = sum(positive.values())
    if total <= 0.0:
        return 0.0
    overlap = sum(math.sqrt(v / total * reference.get(k, 0.0))
                  for k, v in positive.items())
    return overlap * overlap
