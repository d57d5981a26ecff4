"""OpenQASM 2 frontend for a fixed gate subset.

Supported statements: ``OPENQASM 2.0;``, ``qreg``/``creg`` declarations,
applications of h/x/y/z/s/t/rx/ry/rz/cx/cz/rzz, ``measure a -> b;``,
``reset``, and ``barrier`` on one or two explicit qubits. ``rzz`` is
accepted as a native token. Include statements, custom gate definitions and
classical control flow are rejected. Angle expressions may use OpenQASM
numbers, ``pi`` and ``+ - * /`` with parentheses; they are evaluated to a
finite 64-bit float at parse time. The parser matches one statement at a
time with a regular expression; only a refused input is tokenized, to
report its error's line and column.

Both directions are pure functions and safe under arbitrary concurrency.
"""
from __future__ import annotations

import ast
import math
import operator
import re
import warnings
from typing import NoReturn

from .circuit import Circuit, GATES_1Q, GATES_2Q, ROTATIONS, Instruction


class QasmError(ValueError):
    """Base class for frontend errors."""


class _PositionedError(QasmError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class QasmSyntaxError(_PositionedError):
    """Malformed input."""


class UnsupportedGateError(_PositionedError):
    def __init__(self, name: str, line: int, column: int):
        super().__init__(f"unsupported gate {name!r}", line, column)
        self.gate_name = name


class QasmIndexError(_PositionedError):
    """A register index out of range."""


# Whitespace and comments between tokens. A comment runs to the end of its
# line: the lookahead keeps backtracking from splitting one.
_SEP = r"\s*(?://[^\n]*(?!.)\s*)*"
_ID = r"[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_])"


def _ref(group: str) -> str:
    return rf"(?P<{group}>{_ID}){_SEP}\[{_SEP}(?P<{group}_i>\d+){_SEP}\]"


_HEADER = re.compile(rf"{_SEP}OPENQASM(?![A-Za-z0-9_]){_SEP}2\.0(?!\d|[eE][+-]?\d){_SEP};")
# An angle's characters: plain runs, and parentheses, '/' and comments, so
# that each angle splits into runs one way only.
_PLAIN = r"[\sA-Za-z0-9_\d\[\]{},+\-*^=<>.]*"
_ANGLE = rf"(?:{_PLAIN}(?:[()]|/(?!/)|//[^\n]*(?!.)))*?{_PLAIN}"
# One statement: a head with an optional angle and one or two register
# references (a gate, reset, barrier, or qreg/creg, whose ``name[size]`` has
# a reference's shape), or a measurement. The angle is the shortest run
# that lets the statement end; if it evaluates, its parentheses balance and
# it ends at the first ')' outside them, as in the token grammar.
_STATEMENT = re.compile(
    rf"{_SEP}(?:(?P<head>{_ID})(?:{_SEP}\((?P<angle>{_ANGLE})\))?"
    rf"{_SEP}{_ref('a')}(?:{_SEP},{_SEP}{_ref('b')})?{_SEP};"
    rf"|measure(?![A-Za-z0-9_]){_SEP}{_ref('m')}{_SEP}->{_SEP}{_ref('c')}{_SEP};)")
_END = re.compile(rf"{_SEP}\Z")
# The token grammar, tried in this order at each position; group 1 is a
# token, anything else matched is whitespace or a comment.
_TOKEN = re.compile(
    r"\s+|//[^\n]*|(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+"
    r"|\d+|[A-Za-z_][A-Za-z0-9_]*|->|\"[^\"]*\"|[()\[\]{},;+\-*/^=<>.])")
_NUMBER = re.compile(r"\s*([+-]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                     r"|[0-9]+[eE][+-]?[0-9]+|[1-9][0-9]*|0))\s*")
_LITERAL = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_BLANK = re.compile(r"\s+|//[^\n]*")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_ANGLE_ERRORS = (ArithmeticError, SyntaxError, ValueError, RecursionError)
# Per gate, reset and barrier: whether it takes an angle, and its numbers
# of qubit arguments.
_SHAPES = {**{k: (k in ROTATIONS, (1,)) for k in GATES_1Q},
           **{k: (k in ROTATIONS, (2,)) for k in GATES_2Q},
           "reset": (False, (1,)), "barrier": (False, (1, 2))}


def _evaluate(node, expr: str) -> float:
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        value = _BINARY[type(node.op)](_evaluate(node.left, expr),
                                       _evaluate(node.right, expr))
    elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        value = _UNARY[type(node.op)](_evaluate(node.operand, expr))
    elif isinstance(node, ast.Name) and node.id == "pi":
        value = math.pi
    elif isinstance(node, ast.Constant) and _LITERAL.fullmatch(
            expr, node.col_offset, node.end_col_offset):
        # Python's other literals (1_000, 0x10, True) are not OpenQASM's.
        value = float(expr[node.col_offset:node.end_col_offset])
    else:
        raise ValueError("only numbers, pi, + - * / and parentheses")
    if not math.isfinite(value):
        raise OverflowError("not a finite number")
    return value


def _angle_value(expr: str) -> float:
    """The value of an angle expression; raises one of ``_ANGLE_ERRORS`` if
    it is not a finite one. Whitespace and comments may separate tokens but
    not two that would join into one, as ``1 2`` would into ``12``."""
    if number := _NUMBER.fullmatch(expr):
        value = float(number[1])  # float() strips fewer blanks than \s
        if not math.isfinite(value):
            raise OverflowError("not a finite number")
        return value
    expr = _BLANK.sub(" ", expr).strip(" ")
    with warnings.catch_warnings():  # Python's, about literals that fail anyway
        warnings.simplefilter("ignore", SyntaxWarning)
        tree = ast.parse(expr, mode="eval")
    return _evaluate(tree.body, expr)


def _flat(regs: dict[str, tuple[int, int]], name: str, index: str) -> int:
    """The flat index of ``name[index]``; LookupError if there is none."""
    offset, size = regs[name]
    if int(index) >= size:
        raise IndexError(index)
    return offset + int(index)


def _diagnose(text: str, start: int, qregs, cregs) -> NoReturn:
    """Raise the error of the input that the scanner refused at ``start``:
    the first character no token matches, or else the first token of the
    statement at ``start`` (the header if ``qregs`` is None) that breaks the
    grammar, checked in the token parser's order."""
    def fail(cls, message, offset):
        raise cls(message, text.count("\n", 0, offset) + 1,
                  offset - text.rfind("\n", 0, offset))

    tokens, at = [], 0
    while at < len(text):
        m = _TOKEN.match(text, at)
        if m is None:
            fail(QasmSyntaxError, f"unexpected character {text[at]!r}", at)
        if m.lastindex and at >= start:
            tokens.append((m.group(1), at))
        at = m.end()
    tokens.append((None, tokens[-1][1] + len(tokens[-1][0]) if tokens else 0))
    i = 0

    def take(expected=None):
        """The next token and its offset; a syntax error at it if the input
        has ended or it is not ``expected``, a token or a test."""
        nonlocal i
        tok, offset = tokens[i]
        if tok is None or expected is not None and not (
                expected(tok) if callable(expected) else tok == expected):
            found = "end of input" if tok is None else repr(tok)
            wanted = f", expected {expected!r}" if isinstance(expected, str) else ""
            fail(QasmSyntaxError, f"unexpected {found}{wanted}", offset)
        i += 1
        return tok, offset

    def ref(regs, what):
        name, offset = take()
        if name not in regs:
            fail(QasmSyntaxError, f"unknown {what} register {name!r}", offset)
        take("[")
        index, offset = take(str.isdigit)
        if int(index) >= regs[name][1]:
            fail(QasmIndexError, f"index {index} out of range for {what} "
                 f"register {name!r}", offset)
        take("]")
        return regs[name][0] + int(index)

    head, head_at = take("OPENQASM" if qregs is None else None)
    if qregs is None:
        take("2.0")
        take(";")
    elif head in ("qreg", "creg"):
        name, name_at = take(re.compile(_ID).fullmatch)
        take("[")
        take(str.isdigit)
        take("]")
        take(";")
        if name in (qregs if head == "qreg" else cregs):
            fail(QasmSyntaxError, f"duplicate {head} {name!r}", name_at)
    elif head == "include":
        fail(QasmSyntaxError, "include statements are not supported", head_at)
    elif head in ("measure", "reset", "barrier"):
        ref(qregs, "quantum")
        if head == "measure":
            take("->")
            ref(cregs, "classical")
        elif head == "barrier" and tokens[i][0] == ",":
            take(",")
            ref(qregs, "quantum")
        take(";")
    elif head in _SHAPES:  # a gate: reset and barrier are handled above
        if tokens[i][0] == "(":
            take("(")
            first_at, depth = tokens[i][1], 0
            while (tok := tokens[i][0]) != ")" or depth:
                if tok is None:
                    fail(QasmSyntaxError, "unterminated angle expression", first_at)
                depth += (tok == "(") - (tok == ")")
                take()
            angle = text[first_at:take(")")[1]]
            try:
                _angle_value(angle)
            except _ANGLE_ERRORS as exc:
                fail(QasmSyntaxError, f"bad angle expression {angle!r}: {exc}", first_at)
            if head not in ROTATIONS:
                fail(QasmSyntaxError, f"{head} takes no angle", head_at)
        elif head in ROTATIONS:
            fail(QasmSyntaxError, f"{head} requires an angle", head_at)
        qubits = [ref(qregs, "quantum")]
        while tokens[i][0] == ",":
            take(",")
            qubits.append(ref(qregs, "quantum"))
        take(";")
        if len(qubits) != (2 if head in GATES_2Q else 1):
            fail(QasmSyntaxError, f"{head} got {len(qubits)} qubit arguments", head_at)
        if head in GATES_2Q and qubits[0] == qubits[1]:
            fail(QasmSyntaxError, f"{head} qubits must be distinct", head_at)
    elif re.fullmatch(_ID, head) and head != "OPENQASM":
        fail(UnsupportedGateError, head, head_at)
    else:
        fail(QasmSyntaxError, f"unexpected token {head!r}", head_at)
    raise AssertionError(f"the scanner refused a valid statement at offset {start}")


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse OpenQASM 2 source into a :class:`Circuit`.

    Instruction order matches program order. Unsupported gates raise
    :class:`UnsupportedGateError`; malformed input raises
    :class:`QasmSyntaxError` with line/column; out-of-range register indices
    raise :class:`QasmIndexError`.
    """
    m = _HEADER.match(text)
    if m is None:
        _diagnose(text, 0, None, None)
    pos = m.end()
    qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
    cregs: dict[str, tuple[int, int]] = {}
    instructions: list[Instruction] = []
    try:  # a statement that fails a check is left to _diagnose, which raises
        while m := _STATEMENT.match(text, pos):
            head, angle, a, a_i, b, b_i, q, q_i, c, c_i = m.groups()
            if head in _SHAPES:
                takes_angle, arity = _SHAPES[head]
                qubits = ((_flat(qregs, a, a_i),) if b is None else
                          (_flat(qregs, a, a_i), _flat(qregs, b, b_i)))
                if (angle is not None) != takes_angle or len(qubits) not in arity \
                        or head in GATES_2Q and qubits[0] == qubits[1]:
                    break
                angle = None if angle is None else _angle_value(angle)
                instructions.append(Instruction(head, qubits, angle))
            elif head is None:  # measure
                instructions.append(Instruction("measure", (_flat(qregs, q, q_i),),
                                                clbit=_flat(cregs, c, c_i)))
            elif head in ("qreg", "creg") and angle is None and b is None:
                regs = qregs if head == "qreg" else cregs
                if a in regs:
                    break
                regs[a] = (sum(size for _, size in regs.values()), int(a_i))
            else:
                break
            pos = m.end()
    except (LookupError, *_ANGLE_ERRORS):
        pass
    if not _END.match(text, pos):
        _diagnose(text, pos, qregs, cregs)
    return Circuit(sum(size for _, size in qregs.values()), instructions,
                   name=name, num_clbits=sum(size for _, size in cregs.values()))


def _format_angle(angle: float) -> str:
    if angle == math.pi:
        return "pi"
    if angle == -math.pi:
        return "-pi"
    return repr(float(angle))


def emit_qasm(c: Circuit) -> str:
    """Render a circuit as OpenQASM 2 text, one instruction per line.

    The output re-parses to a circuit structurally equal to ``c``. Circuits
    containing sign-marked or unrecorded measurements are internal runtime
    artifacts and cannot be rendered.
    """
    c.validate()
    lines = ["OPENQASM 2.0;", f"qreg q[{c.num_qubits}];"]
    if c.num_clbits > 0:
        lines.append(f"creg c[{c.num_clbits}];")
    for ins in c.instructions:
        if ins.kind == "measure":
            if ins.sign or ins.clbit is None:
                raise QasmError(
                    "sign-marked or unrecorded measurements have no QASM form")
            lines.append(f"measure q[{ins.qubits[0]}] -> c[{ins.clbit}];")
        else:
            angle = "" if ins.angle is None else f"({_format_angle(ins.angle)})"
            args = ",".join(f"q[{q}]" for q in ins.qubits)
            lines.append(f"{ins.kind}{angle} {args};")
    return "\n".join(lines) + "\n"
