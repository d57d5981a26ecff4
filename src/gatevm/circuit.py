"""Core circuit IR: instructions over a flat qubit register.

Instruction order is execution order. Qubit 0 is the least significant bit
of every bitstring produced by the simulator; this convention is fixed
project-wide.
"""
from __future__ import annotations

from dataclasses import dataclass, field

GATES_1Q = frozenset({"h", "x", "y", "z", "s", "t", "rx", "ry", "rz"})
GATES_2Q = frozenset({"cx", "cz", "rzz"})
ROTATIONS = frozenset({"rx", "ry", "rz", "rzz"})
NON_UNITARY = frozenset({"measure", "reset", "barrier"})
ALL_KINDS = GATES_1Q | GATES_2Q | NON_UNITARY


class CircuitError(ValueError):
    """Raised for structurally invalid circuits or instructions."""


@dataclass(frozen=True)
class Instruction:
    """A single operation on one or two qubits.

    ``angle`` is present iff the kind is a rotation. ``clbit`` marks a
    measurement that records its outcome as an output bit. ``sign`` marks a
    measurement whose +/-1 outcome multiplies the result weight instead of
    (or in addition to) being recorded; it is produced only by gate
    virtualization and never appears in QASM text.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    clbit: int | None = None
    sign: bool = False

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise CircuitError(f"unknown instruction kind {self.kind!r}")
        if self.kind in GATES_2Q:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise CircuitError(
                    f"{self.kind} needs two distinct qubits, got {self.qubits}"
                )
        elif self.kind in ("measure", "reset"):
            if len(self.qubits) != 1:
                raise CircuitError(f"{self.kind} acts on exactly one qubit")
        elif self.kind == "barrier":
            if not 1 <= len(self.qubits) <= 2:
                raise CircuitError("barrier takes one or two qubits")
        elif len(self.qubits) != 1:
            raise CircuitError(f"{self.kind} acts on exactly one qubit")
        if (self.angle is not None) != (self.kind in ROTATIONS):
            raise CircuitError(f"angle must be given iff kind is a rotation ({self.kind})")
        if self.clbit is not None and self.kind != "measure":
            raise CircuitError("only measurements record classical bits")
        if self.sign and self.kind != "measure":
            raise CircuitError("only measurements carry a sign flag")

    def remap(self, qubit_map: dict[int, int]) -> "Instruction":
        return Instruction(self.kind, tuple(qubit_map[q] for q in self.qubits),
                           self.angle, self.clbit, self.sign)


def instr(kind: str, *qubits: int, angle: float | None = None,
          clbit: int | None = None, sign: bool = False) -> Instruction:
    """Shorthand constructor used throughout the code base and tests."""
    return Instruction(kind, tuple(qubits), angle=angle, clbit=clbit, sign=sign)


@dataclass
class Circuit:
    """An ordered instruction list over ``num_qubits`` qubits.

    ``num_clbits`` sizes the classical output register; measurements with a
    ``clbit`` write into it.
    """

    num_qubits: int
    instructions: list[Instruction] = field(default_factory=list)
    name: str = "circuit"
    num_clbits: int = 0

    def validate(self) -> "Circuit":
        if self.num_qubits < 0:
            raise CircuitError("negative qubit count")
        for ins in self.instructions:
            for q in ins.qubits:
                if not 0 <= q < self.num_qubits:
                    raise CircuitError(
                        f"qubit index {q} out of range for {self.num_qubits} qubits"
                    )
            if ins.clbit is not None and not 0 <= ins.clbit < self.num_clbits:
                raise CircuitError(
                    f"clbit index {ins.clbit} out of range for {self.num_clbits} clbits"
                )
        return self

    def add(self, kind: str, *qubits: int, angle: float | None = None,
            clbit: int | None = None, sign: bool = False) -> "Circuit":
        self.instructions.append(
            instr(kind, *qubits, angle=angle, clbit=clbit, sign=sign)
        )
        return self

    def copy(self) -> "Circuit":
        return Circuit(self.num_qubits, list(self.instructions), self.name,
                       self.num_clbits)

    def two_qubit_gates(self) -> list[tuple[int, Instruction]]:
        """(position, instruction) for every real two-qubit gate."""
        return [(i, ins) for i, ins in enumerate(self.instructions)
                if ins.kind in GATES_2Q]

