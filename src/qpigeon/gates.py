"""Gates, circuits, the two experiment circuits, and OpenQASM 2.0 text, without numpy.

A Gate is one instruction: a unitary from {H, X, RX, CX}, a BARRIER, or a
MEASURE.  A Circuit is an ordered gate list over a quantum and a classical
register, validated on construction.  Two builders mirror the experiment:

* pair_check_circuit: qubits 0-2 hold the pigeons, ancilla qubit 3 records
  whether pigeons 0 and 1 share a box (ancilla reads 0 for "same box").
  Qubit 4 is carried along unused so both circuits share one register shape.
* all_same_check_circuit: adds ancilla qubit 4 for the (1, 2) pair, so the
  ancilla pattern 00 singles out "all three in one box".

export_qasm and parse_qasm write and read the OpenQASM 2.0 subset these
circuits use from one table of statements.  Everything here is plain data
and text and needs only the standard library; states applies the gates and
circuits simulates and samples the circuits, both with numpy.
"""

import math
import re
from dataclasses import dataclass

H = "H"
X = "X"
RX = "RX"
CX = "CX"
BARRIER = "BARRIER"
MEASURE = "MEASURE"

_STATEMENTS = {
    H: ("h q[{qubit}]", r"h\s+q\[(?P<qubit>\d+)\]"),
    X: ("x q[{qubit}]", r"x\s+q\[(?P<qubit>\d+)\]"),
    RX: ("rx({theta}) q[{qubit}]", r"rx\((?P<theta>[^)]+)\)\s+q\[(?P<qubit>\d+)\]"),
    CX: ("cx q[{qubit}],q[{target}]", r"cx\s+q\[(?P<qubit>\d+)\]\s*,\s*q\[(?P<target>\d+)\]"),
    BARRIER: ("barrier q", r"barrier\s+q"),
    MEASURE: ("measure q[{qubit}] -> c[{cbit}]", r"measure\s+q\[(?P<qubit>\d+)\]\s*->\s*c\[(?P<cbit>\d+)\]"),
}

PIGEON_CBITS = (0, 1, 2)
PAIR_CHECK_ANCILLA_CBITS = (3,)
ALL_SAME_ANCILLA_CBITS = (3, 4)


@dataclass(frozen=True)
class Gate:
    """One instruction: a unitary from {H, X, RX, CX}, a BARRIER, or a MEASURE.

    ``qubit`` is the control for CX and the measured qubit for MEASURE.
    ``target`` is only set for CX, ``theta`` only for RX, ``cbit`` only for
    MEASURE.  A BARRIER carries no indices and acts on the whole register.
    """

    kind: str
    qubit: int | None = None
    target: int | None = None
    theta: float | None = None
    cbit: int | None = None

    def __post_init__(self):
        if self.kind not in _STATEMENTS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == BARRIER:
            if (self.qubit, self.target, self.theta, self.cbit) != (None, None, None, None):
                raise ValueError("BARRIER takes no operands")
            return
        if self.qubit is None or self.qubit < 0:
            raise ValueError(f"{self.kind} needs a nonnegative qubit index")
        if self.kind == CX:
            if self.target is None or self.target < 0:
                raise ValueError("CX needs a nonnegative target index")
            if self.target == self.qubit:
                raise ValueError("CX control and target must differ")
        elif self.target is not None:
            raise ValueError(f"{self.kind} takes no target")
        if self.kind == RX:
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError("RX needs a finite angle")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle")
        if self.kind == MEASURE:
            if self.cbit is None or self.cbit < 0:
                raise ValueError("MEASURE needs a nonnegative classical bit index")
        elif self.cbit is not None:
            raise ValueError(f"{self.kind} takes no classical bit")

    @classmethod
    def h(cls, qubit: int) -> "Gate":
        return cls(H, qubit=qubit)

    @classmethod
    def x(cls, qubit: int) -> "Gate":
        return cls(X, qubit=qubit)

    @classmethod
    def rx(cls, qubit: int, theta: float) -> "Gate":
        return cls(RX, qubit=qubit, theta=theta)

    @classmethod
    def cx(cls, control: int, target: int) -> "Gate":
        return cls(CX, qubit=control, target=target)

    @classmethod
    def barrier(cls) -> "Gate":
        return cls(BARRIER)

    @classmethod
    def measure(cls, qubit: int, cbit: int) -> "Gate":
        return cls(MEASURE, qubit=qubit, cbit=cbit)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``n_qubits`` qubits and ``n_cbits`` classical bits."""

    n_qubits: int
    n_cbits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n_qubits < 1 or self.n_cbits < 0:
            raise ValueError("need at least one qubit and a nonnegative classical bit count")
        gates = tuple(self.gates)
        seen_cbits = set()
        for gate in gates:
            if gate.kind == BARRIER:
                continue
            if gate.qubit >= self.n_qubits:
                raise ValueError(f"gate {gate} addresses qubit {gate.qubit} outside register")
            if gate.kind == CX and gate.target >= self.n_qubits:
                raise ValueError(f"gate {gate} addresses target {gate.target} outside register")
            if gate.kind == MEASURE:
                if gate.cbit >= self.n_cbits:
                    raise ValueError(f"gate {gate} addresses classical bit {gate.cbit} outside register")
                if gate.cbit in seen_cbits:
                    raise ValueError(f"classical bit {gate.cbit} written twice")
                seen_cbits.add(gate.cbit)
        object.__setattr__(self, "gates", gates)


def pair_check_circuit() -> Circuit:
    """Circuit testing whether pigeons 0 and 1 share a box.

    Three parts: Hadamards put the pigeons in the uniform superposition;
    CX(0->3) and CX(1->3) fold the pair parity onto ancilla 3; RX(pi/2)
    rotates the pigeons so the circular basis reads out as plain bits.
    Qubits 0-3 are measured into classical bits 0-3; qubit 4 idles.
    """
    gates = [Gate.h(0), Gate.h(1), Gate.h(2), Gate.barrier()]
    gates += [Gate.cx(0, 3), Gate.cx(1, 3), Gate.barrier()]
    gates += [Gate.rx(0, math.pi / 2.0), Gate.rx(1, math.pi / 2.0), Gate.rx(2, math.pi / 2.0)]
    gates += [Gate.measure(q, q) for q in range(4)]
    return Circuit(5, 5, tuple(gates))


def all_same_check_circuit() -> Circuit:
    """Circuit testing pairs (0, 1) and (1, 2) at once.

    Ancilla 3 records the (0, 1) parity and ancilla 4 the (1, 2) parity, so
    the joint ancilla outcome 00 occurs exactly when all three pigeons sit
    in one box.  All five qubits are measured.
    """
    gates = [Gate.h(0), Gate.h(1), Gate.h(2), Gate.barrier()]
    gates += [Gate.cx(0, 3), Gate.cx(1, 3), Gate.cx(1, 4), Gate.cx(2, 4), Gate.barrier()]
    gates += [Gate.rx(0, math.pi / 2.0), Gate.rx(1, math.pi / 2.0), Gate.rx(2, math.pi / 2.0)]
    gates += [Gate.measure(q, q) for q in range(5)]
    return Circuit(5, 5, tuple(gates))


_ANGLE_NAMES = (
    ("pi/4", math.pi / 4.0),
    ("pi/2", math.pi / 2.0),
    ("pi", math.pi),
    ("-pi/4", -math.pi / 4.0),
    ("-pi/2", -math.pi / 2.0),
    ("-pi", -math.pi),
)


def _format_angle(theta: float) -> str:
    for name, value in _ANGLE_NAMES:
        if theta == value:
            return name
    return repr(float(theta))


def _parse_angle(text: str) -> float:
    for name, value in _ANGLE_NAMES:
        if text == name:
            return value
    return float(text)


def export_qasm(circuit: Circuit) -> str:
    """Serialise to OpenQASM 2.0 text, deterministically byte for byte.

    Registers are always named q and c; barriers span the whole register.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n_qubits}];",
        f"creg c[{circuit.n_cbits}];",
    ]
    for gate in circuit.gates:
        angle = None if gate.theta is None else _format_angle(gate.theta)
        lines.append(_STATEMENTS[gate.kind][0].format_map({**vars(gate), "theta": angle}) + ";")
    return "\n".join(lines) + "\n"


def parse_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2.0 subset emitted by export_qasm.

    Accepts exactly one q register and one c register plus the gate set
    {h, x, rx, cx, barrier, measure}; anything else raises ValueError.
    Round-tripping export_qasm output reproduces the gate list.
    """
    n_qubits = n_cbits = None
    gates: list[Gate] = []
    body = re.sub(r"//[^\n]*", "", text)
    for raw in body.split(";"):
        stmt = " ".join(raw.split())
        if not stmt:
            continue
        if stmt.startswith("OPENQASM"):
            if stmt != "OPENQASM 2.0":
                raise ValueError(f"unsupported version statement {stmt!r}")
            continue
        if stmt.startswith("include"):
            continue
        m = re.fullmatch(r"qreg q\[(\d+)\]", stmt)
        if m:
            n_qubits = int(m.group(1))
            continue
        m = re.fullmatch(r"creg c\[(\d+)\]", stmt)
        if m:
            n_cbits = int(m.group(1))
            continue
        for kind, (_, pattern) in _STATEMENTS.items():
            m = re.fullmatch(pattern, stmt)
            if m:
                fields = {name: _parse_angle(value) if name == "theta" else int(value)
                          for name, value in m.groupdict().items()}
                gates.append(Gate(kind, **fields))
                break
        else:
            raise ValueError(f"cannot parse statement {stmt!r}")
    if n_qubits is None or n_cbits is None:
        raise ValueError("missing qreg or creg declaration")
    return Circuit(n_qubits, n_cbits, tuple(gates))
