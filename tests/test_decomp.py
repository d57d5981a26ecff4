import math
from dataclasses import replace

import numpy as np
import pytest

from gatevm.decomp import (
    DecompositionEntry,
    GateDecomposition,
    LocalAction,
    LocalOp,
    cx_decomposition,
    cz_decomposition,
    decomposition_for,
    rzz_decomposition,
)
from gatevm.sim import choi_check, two_qubit_matrix

from helpers import has_measurement, sampling_overhead

RZZ_ANGLES = [math.pi / 7, math.pi / 3, math.pi / 2, -1.9, 0.0, 2 * math.pi]


@pytest.mark.parametrize("kind,angle", [("cx", None), ("cz", None)]
                         + [("rzz", a) for a in RZZ_ANGLES])
def test_channel_identity_choi(kind, angle):
    dec = decomposition_for(kind, angle)
    assert choi_check(two_qubit_matrix(kind, angle), dec) <= 1e-12


@pytest.mark.parametrize("kind,angle", [("cx", None), ("cz", None)]
                         + [("rzz", a) for a in RZZ_ANGLES])
def test_coefficients_sum_to_one(kind, angle):
    dec = decomposition_for(kind, angle)
    assert abs(dec.coefficient_sum() - 1.0) <= 1e-12


def test_exactly_six_entries():
    for dec in (cx_decomposition(), cz_decomposition(), rzz_decomposition(0.8)):
        assert len(dec.entries) == 6
    with pytest.raises(ValueError):
        GateDecomposition(cx_decomposition().entries[:5])


def test_identity_style_decomposition_is_exact():
    ident = LocalAction(())
    entries = tuple(
        [DecompositionEntry(ident, ident, 1.0)]
        + [DecompositionEntry(ident, ident, 0.0)] * 5)
    dec = GateDecomposition(entries)
    assert choi_check(np.eye(4, dtype=complex), dec) == pytest.approx(0.0, abs=1e-15)


def test_perturbed_coefficient_is_detected():
    dec = cx_decomposition()
    bad = GateDecomposition(tuple(
        replace(e, coeff=e.coeff + (0.01 if i == 0 else 0.0))
        for i, e in enumerate(dec.entries)))
    assert choi_check(two_qubit_matrix("cx"), bad) >= 1e-3


def test_sampling_overhead_values():
    # Known one-norms: 3 for CX/CZ, 1 + 2|sin(theta)| for rzz(theta).
    assert sampling_overhead(cx_decomposition()) == pytest.approx(3.0)
    assert sampling_overhead(cz_decomposition()) == pytest.approx(3.0)
    for angle in RZZ_ANGLES:
        got = sampling_overhead(rzz_decomposition(angle))
        assert got == pytest.approx(1 + 2 * abs(math.sin(angle)), abs=1e-12)


def test_measurement_actions_are_flagged():
    dec = cx_decomposition()
    measuring = [e for e in dec.entries
                 if has_measurement(e.a) or has_measurement(e.b)]
    assert len(measuring) == 4


def test_local_action_instruction_rendering():
    action = LocalAction((LocalOp("h"), LocalOp("measure"), LocalOp("h")))
    ops = action.to_instructions(qubit=3)
    assert [o.kind for o in ops] == ["h", "measure", "h"]
    assert ops[1].sign and ops[1].clbit is None
    assert all(o.qubits == (3,) for o in ops)


def test_unknown_gate_kind_rejected():
    with pytest.raises(ValueError):
        decomposition_for("swap")
    with pytest.raises(ValueError):
        decomposition_for("rzz")  # angle missing
