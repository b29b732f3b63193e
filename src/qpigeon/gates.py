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
circuits use from one table of statements, whose fields also declare the
operands each gate kind takes; Gate, Circuit and states.apply_gate check
gates against it.  Everything here is plain data and text and needs only
the standard library; states applies the gates and circuits simulates and
samples the circuits, both with numpy.
"""

import contextlib
import math
import numbers
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
# the operands each kind takes: the fields of its statement text
_OPERANDS = {kind: re.findall(r"\{(\w+)\}", text) for kind, (text, _) in _STATEMENTS.items()}

PIGEON_CBITS = (0, 1, 2)
PAIR_CHECK_ANCILLA_CBITS = (3,)
ALL_SAME_ANCILLA_CBITS = (3, 4)


def _check_index(value, name: str, low: int, high: int | None = None) -> int:
    """An index, count or seed as an int: an integer, not a bool, with low <= value < high (None: no bound), else ValueError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and low <= value and (high is None or value < high):
        return int(value)
    raise ValueError(f"{name} must be an integer in [{low}, {'inf' if high is None else high}), got {value!r}")


def _check_real(value, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """A real number as a float: a numbers.Real, not a bool, finite, with low <= value <= high, else ValueError."""
    with contextlib.suppress(OverflowError):  # float() of an int or a Fraction beyond the float range
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(real := float(value)) and low <= real <= high:
            return real
    # no interval when unbounded: [-inf, inf] would hold the infinities refused
    interval = "" if (low, high) == (-math.inf, math.inf) else f" in [{low!r}, {high!r}]"
    raise ValueError(f"{name} must be a finite real number{interval}, got {value!r}")


def _check_signs(signs, count: int | None = None) -> tuple[int, ...]:
    """A sequence of signs, count of them if given, as a tuple of ints, each +1 or -1 by _check_index's rule, else ValueError."""
    try:
        checked = tuple(_check_index(s, "sign", -1, 2) for s in signs)
    except TypeError:  # not iterable
        checked = None
    if checked is None or 0 in checked or count not in (None, len(checked)):
        raise ValueError(f"signs must be a sequence of +1 and -1{'' if count is None else f' of length {count}'}, got {signs!r}")
    return checked


@dataclass(frozen=True)
class Gate:
    """One instruction: a unitary from {H, X, RX, CX}, a BARRIER, or a MEASURE.

    ``qubit`` is the control for CX and the measured qubit for MEASURE.
    ``target`` is only set for CX, ``theta`` only for RX, ``cbit`` only for
    MEASURE.  A BARRIER carries no indices and acts on the whole register.
    Indices are nonnegative integers kept as int and ``theta`` a finite real kept as float, neither a bool.
    """

    kind: str
    qubit: int | None = None
    target: int | None = None
    theta: float | None = None
    cbit: int | None = None

    def __post_init__(self):
        if self.kind not in _STATEMENTS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        for name in ("qubit", "target", "theta", "cbit"):
            value = getattr(self, name)
            if name not in _OPERANDS[self.kind]:
                if value is not None:
                    raise ValueError(f"{self.kind} takes no {name}")
            elif name == "theta":
                object.__setattr__(self, name, _check_real(value, f"{self.kind} theta"))
            else:
                object.__setattr__(self, name, _check_index(value, f"{self.kind} {name}", 0))
        if self.kind == CX and self.target == self.qubit:
            raise ValueError("CX control and target must differ")

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
    """An ordered gate list over ``n_qubits`` >= 1 qubits and ``n_cbits`` >= 0 classical bits, integers but not bools."""

    n_qubits: int
    n_cbits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _check_index(self.n_qubits, "n_qubits", 1))
        object.__setattr__(self, "n_cbits", _check_index(self.n_cbits, "n_cbits", 0))
        gates = tuple(self.gates)
        seen_cbits = set()
        for gate in gates:
            _check_fits(gate, self.n_qubits, self.n_cbits)
            if gate.kind == MEASURE:
                if gate.cbit in seen_cbits:
                    raise ValueError(f"classical bit {gate.cbit} written twice")
                seen_cbits.add(gate.cbit)
        object.__setattr__(self, "gates", gates)


def _check_fits(gate: Gate, n_qubits: int, n_cbits: int) -> None:
    """Raise ValueError if an index of the gate lies outside its register of n_qubits or n_cbits."""
    for name, size in (("qubit", n_qubits), ("target", n_qubits), ("cbit", n_cbits)):
        if getattr(gate, name) is not None:
            _check_index(getattr(gate, name), f"{name} of {gate}", 0, size)


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
    return repr(theta)


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

    The first statement must be ``OPENQASM 2.0``, and the only include
    accepted is ``include "qelib1.inc"``.  One q register and one c register
    must each be declared exactly once, and the gates are those of
    {h, x, rx, cx, barrier, measure}; anything else raises ValueError.
    Round-tripping export_qasm output reproduces the gate list.
    """
    sizes: dict[str, int] = {}
    gates: list[Gate] = []
    statements = [" ".join(raw.split()) for raw in re.sub(r"//[^\n]*", "", text).split(";")]
    statements = [stmt for stmt in statements if stmt]
    if statements[:1] != ["OPENQASM 2.0"]:
        raise ValueError("the first statement must be OPENQASM 2.0")
    for stmt in statements[1:]:
        if stmt == 'include "qelib1.inc"':
            continue
        m = re.fullmatch(r"(qreg q|creg c)\[(\d+)\]", stmt)
        if m:
            if m.group(1) in sizes:
                raise ValueError(f"second declaration {stmt!r}")
            sizes[m.group(1)] = int(m.group(2))
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
    if len(sizes) < 2:
        raise ValueError("missing qreg or creg declaration")
    return Circuit(sizes["qreg q"], sizes["creg c"], tuple(gates))
