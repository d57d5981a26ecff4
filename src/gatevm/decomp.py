"""Quasi-probability decompositions of two-qubit gates.

Each supported gate is decomposed into six weighted pairs of local actions
``(A_i, B_i, c_i)`` whose signed mixture reproduces the gate's channel. A
local action is a short sequence of one-qubit unitaries and/or one signed
projective measurement whose +/-1 outcome multiplies the instance weight.

Derivation sketch: any gate of the form ``exp(i*phi Z(x)Z)`` satisfies

    U rho U+ = cos^2(phi) rho + sin^2(phi) (ZZ) rho (ZZ)
               + cos(phi)sin(phi) * i[ZZ, rho]

and the commutator splits into local pieces,

    i[ZZ, rho] = M (x) (R+ - R-) + (R+ - R-) (x) M,

where ``M`` is the signed Z measurement ``P0 rho P0 - P1 rho P1`` and
``R+-`` conjugates by ``exp(+-i pi Z/4)`` (= rz(-+pi/2)). That yields six
terms. CZ equals rzz(-pi/2) up to one rz(pi/2) per qubit, and CX equals CZ
conjugated by H on the target, so their tables follow by absorbing those
one-qubit corrections into the local actions. Every table is validated
against the Choi-matrix channel oracle in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Instruction, instr

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class LocalOp:
    """One step of a local action: a one-qubit gate or a signed measurement."""

    kind: str
    angle: float | None = None


@dataclass(frozen=True)
class LocalAction:
    """Operation sequence applied to one qubit of a virtualized gate."""

    ops: tuple[LocalOp, ...]

    def to_instructions(self, qubit: int) -> list[Instruction]:
        out = []
        for op in self.ops:
            if op.kind == "measure":
                out.append(instr("measure", qubit, sign=True))
            else:
                out.append(instr(op.kind, qubit, angle=op.angle))
        return out



@dataclass(frozen=True)
class DecompositionEntry:
    a: LocalAction
    b: LocalAction
    coeff: float


@dataclass(frozen=True)
class GateDecomposition:
    """The six (A_i, B_i, c_i) triples realizing one virtual gate."""

    entries: tuple[DecompositionEntry, ...]

    def __post_init__(self):
        if len(self.entries) != 6:
            raise ValueError(f"expected 6 entries, got {len(self.entries)}")

    def coefficients(self) -> np.ndarray:
        return np.array([e.coeff for e in self.entries], dtype=float)

    def coefficient_sum(self) -> float:
        return float(sum(e.coeff for e in self.entries))



def _act(*ops: tuple[str, float | None] | str) -> LocalAction:
    steps = []
    for op in ops:
        if isinstance(op, str):
            steps.append(LocalOp(op))
        else:
            steps.append(LocalOp(op[0], op[1]))
    return LocalAction(tuple(steps))


_IDENT = _act()
_MEAS_Z = _act("measure")
_MEAS_X = _act("h", "measure", "h")
_Z = _act("z")
_X = _act("x")


def _zz_rotation_entries(phi: float) -> tuple[DecompositionEntry, ...]:
    """Six entries for exp(i*phi Z(x)Z)."""
    c, s = math.cos(phi), math.sin(phi)
    rp = _act(("rz", -HALF_PI))   # exp(+i pi Z / 4)
    rm = _act(("rz", HALF_PI))    # exp(-i pi Z / 4)
    return (
        DecompositionEntry(_IDENT, _IDENT, c * c),
        DecompositionEntry(_Z, _Z, s * s),
        DecompositionEntry(_MEAS_Z, rp, c * s),
        DecompositionEntry(_MEAS_Z, rm, -c * s),
        DecompositionEntry(rp, _MEAS_Z, c * s),
        DecompositionEntry(rm, _MEAS_Z, -c * s),
    )


def rzz_decomposition(theta: float) -> GateDecomposition:
    """rzz(theta) = exp(-i theta/2 Z(x)Z)."""
    return GateDecomposition(_zz_rotation_entries(-theta / 2))


def cz_decomposition() -> GateDecomposition:
    """CZ channel: rzz(-pi/2) followed by rz(pi/2) on both qubits.

    The one-qubit corrections are folded into each local action; a
    correction after a Z measurement is a branch-global phase and is
    dropped.
    """
    rz_p = _act(("rz", HALF_PI))
    rz_m = _act(("rz", -HALF_PI))
    entries = (
        DecompositionEntry(rz_p, rz_p, 0.5),
        DecompositionEntry(rz_m, rz_m, 0.5),
        DecompositionEntry(_MEAS_Z, _IDENT, 0.5),
        DecompositionEntry(_MEAS_Z, _Z, -0.5),
        DecompositionEntry(_IDENT, _MEAS_Z, 0.5),
        DecompositionEntry(_Z, _MEAS_Z, -0.5),
    )
    return GateDecomposition(entries)


def cx_decomposition() -> GateDecomposition:
    """CX (first qubit controls): CZ conjugated by H on the target side."""
    rz_p = _act(("rz", HALF_PI))
    rz_m = _act(("rz", -HALF_PI))
    rx_p = _act(("rx", HALF_PI))
    rx_m = _act(("rx", -HALF_PI))
    entries = (
        DecompositionEntry(rz_p, rx_p, 0.5),
        DecompositionEntry(rz_m, rx_m, 0.5),
        DecompositionEntry(_MEAS_Z, _IDENT, 0.5),
        DecompositionEntry(_MEAS_Z, _X, -0.5),
        DecompositionEntry(_IDENT, _MEAS_X, 0.5),
        DecompositionEntry(_Z, _MEAS_X, -0.5),
    )
    return GateDecomposition(entries)


def decomposition_for(kind: str, angle: float | None = None) -> GateDecomposition:
    """Decomposition table for a two-qubit gate kind.

    The identity observable must reconstruct to one; the full channel
    identity is enforced against the Choi-matrix oracle in the test suite.
    """
    if kind == "cx":
        dec = cx_decomposition()
    elif kind == "cz":
        dec = cz_decomposition()
    elif kind == "rzz":
        if angle is None:
            raise ValueError("rzz decomposition requires an angle")
        dec = rzz_decomposition(angle)
    else:
        raise ValueError(f"no decomposition for gate kind {kind!r}")
    if abs(dec.coefficient_sum() - 1.0) > 1e-12:
        raise ValueError(f"{kind} coefficients sum to {dec.coefficient_sum()}")
    return dec
