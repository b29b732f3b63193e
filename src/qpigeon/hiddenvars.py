"""Exhaustive search for classical value assignments to the same-box observables.

A noncontextual hidden-variable model must hand every same-box projector a
definite value from its spectrum {0, 1}, and the all-same projector too.
Because all four operators commute, the assigned values have to satisfy the
same algebra, whose relations boxes.relation_residuals alone writes down:

* counting: v01 + v12 + v02 - 2 * v_all = 1 (the operator identity
  "pair count minus twice all-same equals the identity", evaluated).
* products: v_ab * v_cd = v_all for every distinct pair of pairs.

There are only 16 candidate assignments, so we enumerate.  Exactly four
survive, and they are exactly the assignments induced by the eight classical
box placements, the rows of boxes.BOX_VALUES.  In particular v01 = v12 =
v02 = 0 (no two pigeons together) never satisfies the constraints: with both
boxes available to three pigeons, no valid assignment escapes the pigeonhole
principle.
"""

from dataclasses import dataclass
from itertools import product

from . import boxes
from .gates import _check_index

COUNTING = "counting"
# each displayed constraint's relation in boxes.relation_residuals
_RELATIONS = {
    COUNTING: "pair_count_minus_two_all_same_is_identity",
    "product_01_12": "product_same01_same12_is_all_same",
    "product_01_02": "product_same01_same02_is_all_same",
    "product_12_02": "product_same02_same12_is_all_same",
}
CONSTRAINT_NAMES = tuple(_RELATIONS)


@dataclass(frozen=True)
class ValueAssignment:
    """Candidate values for the three pair observables and all-same, each the int 0 or 1, not a bool."""

    v01: int
    v12: int
    v02: int
    v_all: int

    def __post_init__(self):
        for name in ("v01", "v12", "v02", "v_all"):
            object.__setattr__(self, name, _check_index(getattr(self, name), name, 0, 2))

    @property
    def pair_count_value(self) -> int:
        """Value induced on the pair-count operator: the plain sum."""
        return self.v01 + self.v12 + self.v02

    def constraint_results(self) -> dict[str, bool]:
        residuals = boxes.relation_residuals((self.v01, self.v12, self.v02, self.v_all))
        return {name: residuals[relation] == 0 for name, relation in _RELATIONS.items()}

    @property
    def valid(self) -> bool:
        return all(self.constraint_results().values())

    def derived_pair_only_values(self) -> dict[str, int]:
        """Values induced on the exactly-this-pair projectors, v_ab - v_all."""
        return {
            "p01": self.v01 - self.v_all,
            "p12": self.v12 - self.v_all,
            "p02": self.v02 - self.v_all,
        }


def enumerate_assignments() -> list[ValueAssignment]:
    """All 16 candidates, in lexicographic (v01, v12, v02, v_all) order."""
    return [ValueAssignment(*bits) for bits in product((0, 1), repeat=4)]


def valid_assignments(require_counting: bool = True) -> list[ValueAssignment]:
    """Candidates passing the constraints.

    With ``require_counting`` False the counting identity is dropped and only
    the product constraints filter; the all-zero assignment then slips
    through, which is exactly the loophole the counting identity closes.
    """
    dropped = () if require_counting else (COUNTING,)
    return [
        cand
        for cand in enumerate_assignments()
        if all(ok for name, ok in cand.constraint_results().items() if name not in dropped)
    ]


def box_placement_values() -> dict[tuple[int, int, int], ValueAssignment]:
    """The assignment each classical placement (box of pigeon 0, 1, 2) induces.

    These are the rows of boxes.BOX_VALUES, the joint eigenvalues of the
    commuting projectors: basis state |z> puts pigeon k in box bit k of z.
    """
    return {(z & 1, z >> 1 & 1, z >> 2): ValueAssignment(*row) for z, row in enumerate(boxes.BOX_VALUES)}


def pigeonhole_violation_exists(require_counting: bool = True) -> bool:
    """Whether some valid assignment puts no two pigeons in one box."""
    return any(
        cand.v01 == cand.v12 == cand.v02 == 0
        for cand in valid_assignments(require_counting=require_counting)
    )


def enumeration_report() -> dict:
    """JSON-ready summary: every candidate with per-constraint results, then the verdict."""
    valid = valid_assignments()
    return {
        "candidates": [
            {**vars(cand), "constraints": cand.constraint_results(), "valid": cand.valid}
            for cand in enumerate_assignments()
        ],
        "valid": [{**vars(cand), "derived_pair_only": cand.derived_pair_only_values()} for cand in valid],
        "classical_placements_match_valid_set": set(box_placement_values().values()) == set(valid),
        "violation_exists": pigeonhole_violation_exists(),
    }
