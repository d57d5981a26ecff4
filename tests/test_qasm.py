import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatevm.circuit import GATES_1Q, GATES_2Q, ROTATIONS, Circuit, instr
from gatevm.qasm import (
    QasmError,
    QasmIndexError,
    QasmSyntaxError,
    UnsupportedGateError,
    emit_qasm,
    parse_qasm,
)

from helpers import circuits_equal, random_circuit, reference_parse_qasm


def test_parse_simple_program():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    assert c.num_qubits == 2
    assert [(i.kind, i.qubits) for i in c.instructions] == [
        ("h", (0,)), ("cx", (0, 1))]


def test_parse_empty_program():
    c = parse_qasm("OPENQASM 2.0; qreg q[1];")
    assert c.num_qubits == 1
    assert c.instructions == []


def test_parse_preserves_program_order():
    text = "OPENQASM 2.0; qreg q[3]; x q[2]; h q[0]; cz q[2],q[0]; t q[1];"
    kinds = [i.kind for i in parse_qasm(text).instructions]
    assert kinds == ["x", "h", "cz", "t"]


def test_parse_measure_and_reset_and_barrier():
    text = """OPENQASM 2.0;
    qreg q[2]; creg c[2];
    h q[0]; barrier q[0],q[1]; reset q[1];
    measure q[0] -> c[1];
    """
    c = parse_qasm(text)
    assert c.num_clbits == 2
    assert c.instructions[1] == instr("barrier", 0, 1)
    assert c.instructions[2] == instr("reset", 1)
    assert c.instructions[3] == instr("measure", 0, clbit=1)


def test_parse_angle_expressions():
    text = ("OPENQASM 2.0; qreg q[2]; rx(pi/2) q[0]; rz(-pi) q[1]; "
            "ry(0.25) q[0]; rzz(2*pi/3) q[0],q[1]; rx(1e-3) q[1];")
    c = parse_qasm(text)
    angles = [i.angle for i in c.instructions]
    assert angles[0] == pytest.approx(math.pi / 2)
    assert angles[1] == pytest.approx(-math.pi)
    assert angles[2] == 0.25
    assert angles[3] == pytest.approx(2 * math.pi / 3)
    assert angles[4] == 1e-3


def test_syntax_error_reports_line_and_column():
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0]\ncx q[0],q[1];")
    assert exc.value.line == 4  # the missing ';' is noticed at 'cx'
    assert "cx" in str(exc.value)


def test_unsupported_gate_is_named():
    with pytest.raises(UnsupportedGateError) as exc:
        parse_qasm("OPENQASM 2.0; qreg q[3]; ccx q[0],q[1],q[2];")
    assert exc.value.gate_name == "ccx"


def test_qubit_index_out_of_range():
    with pytest.raises(QasmIndexError):
        parse_qasm("OPENQASM 2.0; qreg q[2]; h q[2];")


def test_include_rejected():
    with pytest.raises(QasmSyntaxError, match="include"):
        parse_qasm('OPENQASM 2.0; include "qelib1.inc"; qreg q[1];')


def test_bad_version_rejected():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("OPENQASM 3.0; qreg q[1];")


def test_two_qubit_gate_needs_distinct_qubits():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("OPENQASM 2.0; qreg q[2]; cx q[1],q[1];")


def test_multiple_registers_flatten_with_offsets():
    text = "OPENQASM 2.0; qreg a[2]; qreg b[2]; cx a[1],b[0];"
    c = parse_qasm(text)
    assert c.num_qubits == 4
    assert c.instructions[0].qubits == (1, 2)


def test_emit_single_h_statement():
    text = emit_qasm(Circuit(1, [instr("h", 0)]))
    assert sum(line.startswith("h ") for line in text.splitlines()) == 1


def test_emit_rzz_pi_formatting():
    text = emit_qasm(Circuit(2, [instr("rzz", 0, 1, angle=math.pi)]))
    assert "rzz(pi) q[0],q[1];" in text


def test_emit_generic_angle_full_precision():
    angle = 1.0 / 3.0
    text = emit_qasm(Circuit(1, [instr("rx", 0, angle=angle)]))
    digits = text.split("rx(")[1].split(")")[0]
    assert len(digits.replace(".", "").replace("-", "").lstrip("0")) >= 15
    assert float(digits) == angle


def test_emit_header_only_program():
    text = emit_qasm(Circuit(2, []))
    assert text == "OPENQASM 2.0;\nqreg q[2];\n"


def test_emit_is_deterministic_one_instruction_per_line():
    c = Circuit(2, [instr("h", 0), instr("cx", 0, 1)])
    assert emit_qasm(c) == emit_qasm(c)
    body = emit_qasm(c).splitlines()[2:]
    assert body == ["h q[0];", "cx q[0],q[1];"]


def test_round_trip_random_circuits():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 10)
        c = random_circuit(rng, n, rng.randint(0, 30))
        back = parse_qasm(emit_qasm(c))
        assert circuits_equal(c, back, angle_tol=1e-12)


def test_round_trip_with_measures():
    c = Circuit(3, num_clbits=2)
    c.add("h", 0)
    c.add("measure", 0, clbit=1)
    c.add("measure", 2, clbit=0)
    back = parse_qasm(emit_qasm(c))
    assert circuits_equal(c, back)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["h", "x", "s", "t"]),
                          st.integers(0, 4)), max_size=25))
def test_round_trip_property(ops):
    c = Circuit(5, [instr(kind, q) for kind, q in ops])
    assert circuits_equal(parse_qasm(emit_qasm(c)), c)


# ---------------------------------------------------------------------------
# angle errors

def angle_error(angle: str) -> QasmSyntaxError:
    """The error of ``rx(<angle>) q[0];`` on line 3, whose angle starts at
    column 4."""
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrx({angle}) q[0];\n")
    assert (exc.value.line, exc.value.column) == (3, 4)
    return exc.value


@pytest.mark.parametrize("angle", ["1/0", "pi/(2-2)", "1/0.0"])
def test_division_by_zero_in_an_angle_is_a_syntax_error(angle):
    assert "division by zero" in str(angle_error(angle))


@pytest.mark.parametrize("angle", [
    "1e999", "-1e999", "1e308*10", "1e308*10-1e308*10", "1/(1e308*10)",
    "1" + "0" * 400])
def test_non_finite_angle_is_a_syntax_error(angle):
    assert "finite" in str(angle_error(angle))


@pytest.mark.parametrize("angle", ["1_000", "0x10", "0b1", "True", "1j", "2*1_0"])
def test_python_only_literals_are_not_angles(angle):
    # OpenQASM 2 numbers have no digit separators, prefixes or booleans.
    angle_error(angle)


@pytest.mark.parametrize("angle", ["1 2", "p i", "1 .5", "1e -5", "1 // c\n2"])
def test_blank_joining_two_angle_tokens_is_a_syntax_error(angle):
    # Joined, these would read 12, pi, 1.5, 1e-5 and 12.
    angle_error(angle)


def test_blanks_between_angle_tokens_that_stay_apart_are_kept():
    text = "OPENQASM 2.0; qreg q[1]; rx( - pi / 2 ) q[0]; rz(1 // c\n* 2) q[0];"
    assert [i.angle for i in parse_qasm(text).instructions] == [-math.pi / 2, 2.0]


def test_angle_may_start_with_a_parenthesis():
    # The token parser skipped the first token's '(' when it matched
    # parentheses, so it cut ((pi)/2) short and refused it.
    text = "OPENQASM 2.0; qreg q[1]; rx((pi)/2) q[0]; rz(((1))) q[0];"
    assert [i.angle for i in parse_qasm(text).instructions] == [math.pi / 2, 1.0]
    with pytest.raises(QasmSyntaxError):
        reference_parse_qasm(text)


# ---------------------------------------------------------------------------
# the statement scanner against the token parser it replaced

def outcome(parse, text):
    """The parsed circuit, or the error's class, line and column."""
    try:
        return parse(text)
    except QasmError as exc:
        return type(exc), exc.line, exc.column


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.lists(st.tuples(
    st.sampled_from(sorted(GATES_1Q | GATES_2Q) + ["measure", "reset", "barrier"]),
    st.integers(0, 3), st.integers(0, 3),
    st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from([math.pi, -math.pi])),
    max_size=20))
def test_round_trips_parse_as_the_token_parser_parses(n, clbits, ops):
    c = Circuit(n, num_clbits=clbits)
    for kind, a, b, angle in ops:
        a, b = a % n, b % n
        if kind in GATES_2Q and a == b:
            continue
        if kind == "measure":
            if clbits:
                c.add("measure", a, clbit=b % clbits)
        elif kind == "barrier":
            c.add("barrier", *sorted({a, b}))
        else:
            qubits = (a, b) if kind in GATES_2Q else (a,)
            c.add(kind, *qubits, angle=angle if kind in ROTATIONS else None)
    text = emit_qasm(c)
    assert parse_qasm(text) == reference_parse_qasm(text) == c


HAND_WRITTEN = [
    "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\n// a comment line\n"
    "h q[0]; // trailing comment\ncx q[0] , q[1] ;\n"
    "measure q[0]->c[0];\nmeasure q[1] -> c[1];\n",
    "  OPENQASM   2.0 ;qreg q[2];\trx(  pi / 2 ) q[0];ry(-pi)q[1];",
    "OPENQASM 2.0;\r\nqreg a[2];\r\nqreg b[2];\r\ncz a[1],\r\n b[0];\r\n",
    "OPENQASM 2.0; qreg q[2]; rx(2*(pi/4)) q[0]; rz(-(1+2)*(3-(4/5))) q[1];",
    "OPENQASM 2.0; qreg q[2]; rzz(pi*(1/(2+(3*(4-1))))) q[0],q[1];",
    "OPENQASM 2.0; qreg q[1]; rx(1e-3) q[0]; ry(.5) q[0]; rz(3.) q[0]; rx(2E+2) q[0];",
    "OPENQASM 2.0; qreg q[1]; rx(pi // half of it\n / 2) q[0];",
    "OPENQASM 2.0; qreg q[1]; rx(- + -pi) q[0]; ry(1 *2) q[0]; rz(pi/ 2) q[0];",
    "OPENQASM 2.0; qreg q[2]; rx\n(\n0.25\n)\nq\n[\n1\n]\n;\nbarrier q[0],q[1]; reset q[1];",
    "OPENQASM 2.0; qreg measure[2]; creg h[1]; h measure[1]; "
    "measure measure[0] -> h[0];",
    "OPENQASM 2.0; qreg q[0]; creg c[2];",
    "// header comment\nOPENQASM 2.0; qreg q[1]; x q[0]; // end",
    "OPENQASM 2.0; qreg q[1]; rx(\x1c0.5\x1f) q[0]; ry(\u20031e-2 ) q[0];",
]


@pytest.mark.parametrize("text", HAND_WRITTEN)
def test_hand_written_inputs_parse_as_the_token_parser_parses(text):
    assert isinstance(parse_qasm(text), Circuit)
    assert parse_qasm(text) == reference_parse_qasm(text)


MALFORMED = [
    "OPENQASM 2.0;\nqreg q[2];\nh q[0]\ncx q[0],q[1];",  # missing ';'
    "OPENQASM 2.0; qreg q[2]; h q[0]",  # missing ';' at the end
    "OPENQASM 2.0; qreg q[2]; h r[0];",  # unknown register
    "OPENQASM 2.0; qreg q[2]; creg c[1]; measure q[0] -> d[0];",
    "OPENQASM 2.0; qreg q[2]; h q[2];",  # index out of range
    "OPENQASM 2.0; qreg q[2]; creg c[1];\nmeasure q[1] -> c[1];",
    "OPENQASM 2.0; qreg q[3]; ccx q[0],q[1],q[2];",  # unsupported gate
    "OPENQASM 2.0; qreg q[3]; u3(0,0,0) q[0];",
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];',  # include
    "OPENQASM 2.0; qreg q[1]; rx(1+(2 q[0];",  # unterminated angle
    "OPENQASM 2.0; qreg q[1]; rx(",
    "OPENQASM 2.0; qreg q[1];\nh q[0]; @",  # stray character
    "OPENQASM 2.0; qreg q[1]; h r[0]; x q[0] $ ;",  # stray beats an earlier error
    'OPENQASM 2.0; qreg q[1]; rx("unterminated) q[0];',
    "OPENQASM 2.0; qreg q[1]; é q[0];",
    "", "// only a comment\n", "OPENQASM 3.0; qreg q[1];", "OPENQASM 2.0 qreg q[1];",
    "qreg q[1];", "OPENQASM 2.0; OPENQASM 2.0;", "OPENQASM 2.0; qreg q[1]; qreg q[2];",
    "OPENQASM 2.0; qreg 1q[2];", "OPENQASM 2.0; qreg q[1.5];", "OPENQASM 2.0; qreg q[2], r[2];",
    "OPENQASM 2.0; qreg q[2]; h q[0], q[1];", "OPENQASM 2.0; qreg q[2]; cx q[1];",
    "OPENQASM 2.0; qreg q[2]; cx q[1],q[1];", "OPENQASM 2.0; qreg q[1]; rx q[0];",
    "OPENQASM 2.0; qreg q[1]; h(0.5) q[0];", "OPENQASM 2.0; qreg q[1]; rx() q[0];",
    "OPENQASM 2.0; qreg q[1]; rx(pi//2) q[0];", "OPENQASM 2.0; qreg q[1]; rx(pi[0]) q[0];",
    "OPENQASM 2.0; qreg q[1]; rx(2**3) q[0];", "OPENQASM 2.0; qreg q[1]; rx(0123) q[0];",
    "OPENQASM 2.0; qreg q[1]; rx(1)+(2) q[0];", "OPENQASM 2.0; qreg q[2]; creg c[1]; measure q[0];",
    "OPENQASM 2.0; qreg q[2]; creg c[1]; measure q[0] -> c[0], c[0];",
    "OPENQASM 2.0; qreg q[2]; reset q[0], q[1];", "OPENQASM 2.0; qreg q[3]; barrier q[0],q[1],q[2];",
    "OPENQASM 2.0; qreg q[1]; barrier(1) q[0];", "OPENQASM 2.0; qreg q[1]; h q[0]; ;",
    "OPENQASM 2.0; qreg q[1]; h q[-1];", "OPENQASM 2.0; qreg q[1]; h q [ 0 ] ",
    "OPENQASM 2.0; qreg q[1]; h q[0]; // ok\n x q[1]; // not ok",
    # blanks and comments may not join two tokens into one
    "OPENQASM 2.0; qreg q[1]; rx(1 2) q[0];", "OPENQASM 2.0; qreg q[1]; rz(p i) q[0];",
    "OPENQASM 2.0; qreg q[1]; rx(1 .5) q[0];", "OPENQASM 2.0; qreg q[1]; rx(1e -5) q[0];",
    "OPENQASM 2.0; qreg q[1]; rx(pi // c\n2) q[0];",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_fail_as_the_token_parser_fails(text):
    got = outcome(parse_qasm, text)
    assert not isinstance(got, Circuit)
    assert got == outcome(reference_parse_qasm, text)


_FIXED = re.compile(r"\(\s*(//[^\n]*\s*)*\(|[0-9]_|0[xXbBoO]|True|False|\d[jJ]")


def test_mutated_programs_parse_as_the_token_parser_parses():
    # Random insertions of blanks and comments, and insertions, deletions and
    # replacements of tokens, in emitted programs. Inputs on which the token parser raised
    # a bare arithmetic error or accepted an infinite angle, and angles the
    # scanner evaluates by OpenQASM rules instead, are left out (see the
    # angle tests above).
    pieces = ["OPENQASM", "2.0", ";", "qreg", "creg", "q", "c", "[", "]", "0", "1",
              "2", "10", "h", "rx", "rzz", "cx", "measure", "reset", "barrier",
              "include", "->", ",", "(", ")", "pi", "/", "*", "-", "0.5", ".5",
              "1e3", '"s"', "//c\n", " ", "\n", "@", "ccx", "{", "e", "00"]
    rng = random.Random(15)
    counts = {"ok": 0, "error": 0, "fixed": 0}
    for _ in range(1500):
        c = random_circuit(rng, rng.randint(1, 3), rng.randint(0, 5))
        toks = re.findall(r"\s+|[A-Za-z_]\w*|\d+\.?\d*(?:e-?\d+)?|->|.",
                          emit_qasm(c) + "rx(2*(pi/4)) q[0];\ncreg c[2];\n"
                          "measure q[0] -> c[1];\n")
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(toks))
            op = rng.randrange(5)
            if op < 2:  # blanks and comments keep most programs valid
                toks.insert(i, rng.choice([" ", "\n", "\t", " // )(;\n"]))
            elif op == 2:
                toks.insert(i, rng.choice(pieces))
            elif op == 3:
                del toks[i]
            else:
                toks[i] = rng.choice(pieces)
        text = "".join(toks)
        try:
            want = outcome(reference_parse_qasm, text)
        except ArithmeticError:
            counts["fixed"] += 1
            continue
        if _FIXED.search(text) or isinstance(want, Circuit) and not all(
                math.isfinite(i.angle) for i in want.instructions if i.angle is not None):
            counts["fixed"] += 1
            continue
        assert outcome(parse_qasm, text) == want, text
        counts["ok" if isinstance(want, Circuit) else "error"] += 1
    assert counts["ok"] >= 300 and counts["error"] >= 600, counts
