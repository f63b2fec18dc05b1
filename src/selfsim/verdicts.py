"""Verdicts for decision procedures that must stay honest about scope.

A check on an explicit groupoid answers Holds or Fails(witness).  On a
behavioral model the same check may only be able to answer for the modeled
states; the extra statuses record that:

* HoldsOnModel — no counterexample among the modeled behaviors, but the
  model does not assert completeness, so the global statement stays open.
* RequiresExplicit — the check cannot be run soundly on this backend
  (it needs products, or a witness would hinge on an unasserted flag).

Witnesses are plain JSON-able dicts and every Fails witness replays
through the public operations.
"""

from typing import NamedTuple

HOLDS = "Holds"
FAILS = "Fails"
HOLDS_ON_MODEL = "HoldsOnModel"
REQUIRES_EXPLICIT = "RequiresExplicit"


class Verdict(NamedTuple):
    status: str
    witness: dict = None
    note: str = ""

    def to_json(self):
        return {
            "status": self.status,
            "witness": self.witness,
            "scope": self.note,
        }


def holds(note=""):
    return Verdict(HOLDS, None, note)


def fails(witness, note=""):
    return Verdict(FAILS, dict(witness), note)


def holds_on_model(note=""):
    return Verdict(HOLDS_ON_MODEL, None, note)


def requires_explicit(note=""):
    return Verdict(REQUIRES_EXPLICIT, None, note)


def universal_verdict(groupoid, witness, witness_note="", model_note=""):
    """Standard scoping for an element-quantified "for all g" check.

    witness is None when no counterexample was found among the elements or
    states; otherwise it is the counterexample data.  On a behavioral model
    a counterexample that hinges on a state being non-unit is only sound
    under the unit_reflecting flag, and a clean sweep is only global under
    element_complete.  An explicit groupoid sets every flag.
    """
    if witness is not None:
        if groupoid.unit_reflecting:
            return fails(witness, witness_note)
        return requires_explicit(
            "a modeled counterexample exists but the model does not assert "
            "unit_reflecting, so it cannot be trusted")
    if groupoid.element_complete:
        return holds(model_note)
    return holds_on_model(model_note)
