"""Simulated QPU descriptions: coupling graph, error rates, queue length."""
from __future__ import annotations

import json
from dataclasses import dataclass, field


class QpuError(ValueError):
    pass


_CATEGORY_1Q = "1q"
_CATEGORY_2Q = "2q"


@dataclass
class QpuModel:
    """A QPU with a coupling graph, per-operation error rates and a job queue.

    ``error_rates`` maps an instruction kind (``"cx"``, ``"h"``,
    ``"measure"``, ...) or a category fallback (``"1q"``, ``"2q"``) to an
    error probability in [0, 1).
    """

    name: str
    num_qubits: int
    coupling: list[tuple[int, int]]
    error_rates: dict[str, float] = field(default_factory=dict)
    queue_length: int = 0

    def __post_init__(self):
        for kind, rate in self.error_rates.items():
            if not 0.0 <= rate < 1.0:
                raise QpuError(f"error rate for {kind!r} must be in [0, 1)")
        self.check_coupling()
        if self.queue_length < 0:
            raise QpuError("queue_length must be >= 0")

    def check_coupling(self) -> None:
        """Raise QpuError for an edge with an end outside the QPU or a
        self-loop; ``coupling`` is a plain list, so edges added after
        construction are checked where they are read."""
        for a, b in self.coupling:
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise QpuError(f"coupling edge ({a}, {b}) out of range")
            if a == b:
                raise QpuError(f"coupling edge ({a}, {b}) is a self-loop")

    def rate_for(self, kind: str, num_qubits: int) -> float:
        if kind in self.error_rates:
            return self.error_rates[kind]
        category = _CATEGORY_2Q if num_qubits == 2 else _CATEGORY_1Q
        return self.error_rates.get(category, 0.0)



def qpu_to_dict(qpu: QpuModel) -> dict:
    return {
        "name": qpu.name,
        "num_qubits": qpu.num_qubits,
        "coupling": [list(e) for e in qpu.coupling],
        "error_rates": dict(qpu.error_rates),
        "queue_length": qpu.queue_length,
    }


def qpu_from_dict(data: dict) -> QpuModel:
    return QpuModel(
        name=data["name"],
        num_qubits=data["num_qubits"],
        coupling=[tuple(e) for e in data["coupling"]],
        error_rates={k: float(v) for k, v in data.get("error_rates", {}).items()},
        queue_length=int(data.get("queue_length", 0)),
    )


def fleet_to_json(qpus: list[QpuModel]) -> str:
    return json.dumps({"qpus": [qpu_to_dict(q) for q in qpus]}, indent=2,
                      sort_keys=True)


def fleet_from_json(text: str) -> list[QpuModel]:
    doc = json.loads(text)
    return [qpu_from_dict(d) for d in doc["qpus"]]


# ---------------------------------------------------------------------------
# coupling presets

# 27-qubit heavy-hex lattice as used by IBM Falcon-class devices.
HEAVY_HEX_27_EDGES: list[tuple[int, int]] = [
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7), (7, 10),
    (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14),
    (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20), (19, 22),
    (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
]

_DEFAULT_RATES = {"2q": 0.01, "1q": 0.001, "measure": 0.02, "reset": 0.002}


def heavy_hex_qpu(name: str = "heavy-hex-27", queue_length: int = 0,
                  error_rates: dict[str, float] | None = None) -> QpuModel:
    """27-qubit heavy-hex preset."""
    return QpuModel(name, 27, list(HEAVY_HEX_27_EDGES),
                    dict(error_rates or _DEFAULT_RATES), queue_length)


def line_qpu(num_qubits: int, name: str | None = None, queue_length: int = 0,
             error_rates: dict[str, float] | None = None) -> QpuModel:
    """Linear-chain coupling preset."""
    edges = [(i, i + 1) for i in range(num_qubits - 1)]
    return QpuModel(name or f"line-{num_qubits}", num_qubits, edges,
                    dict(error_rates or _DEFAULT_RATES), queue_length)


def preset_qpu(spec: str) -> QpuModel:
    """Parse a preset spec like ``heavy-hex-27`` or ``line-12``."""
    if spec == "heavy-hex-27":
        return heavy_hex_qpu()
    if spec.startswith("line-"):
        return line_qpu(int(spec.split("-", 1)[1]))
    raise QpuError(f"unknown QPU preset {spec!r}")
