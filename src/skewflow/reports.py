"""Report types produced by the criterion panel."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

UES = "UES"
US_NOT_UES = "US-not-UES"
ES_NOT_UES = "ES-not-UES"
STABLE_ONLY = "stable-only"
UNSTABLE = "unstable"
INCONCLUSIVE_VERDICT = "inconclusive"

# stable wire/CLI identifiers
UNIFORM_CRITERIA = (
    "fit-exp", "unif-stab", "minorant", "half-decay", "half-decay-d",
    "datko-v", "datko-op", "datko-d",
    "barbashin-v", "barbashin-op", "barbashin-d", "decay-d",
)
NONUNIFORM_CRITERIA = (
    "fit-exp-nu", "majorant",
    "datko-v-nu", "datko-op-nu", "datko-d-nu",
    "barbashin-nu", "barbashin-d-nu",
)

# verdict labels a ground-truth tag is compatible with ("ES" tags accept any
# exponentially stable outcome; inconclusive never counts as a contradiction)
TAG_COMPATIBLE = {
    UES: (UES,),
    US_NOT_UES: (US_NOT_UES,),
    ES_NOT_UES: (ES_NOT_UES,),
    "ES": (UES, ES_NOT_UES),
    UNSTABLE: (UNSTABLE,),
}


@dataclass
class CriterionReport:
    criterion_id: str
    verdict: str
    evidence: dict = field(default_factory=dict)
    witness: dict | None = None
    config_echo: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == FAIL and self.witness is None:
            raise ValueError(f"{self.criterion_id}: fail verdict requires a witness")

    def as_dict(self) -> dict:
        return {
            "criterion_id": self.criterion_id,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "witness": self.witness,
            "config_echo": self.config_echo,
        }


@dataclass
class StabilityVerdict:
    label: str
    criteria: list
    discrepancies: list = field(default_factory=list)
    growth: dict = field(default_factory=dict)

    def report(self, criterion_id: str) -> CriterionReport | None:
        return next((r for r in self.criteria if r.criterion_id == criterion_id), None)

    def as_dict(self) -> dict:
        return {
            "verdict": self.label,
            "criteria": [r.as_dict() for r in self.criteria],
            "discrepancies": self.discrepancies,
            "growth": self.growth,
        }


def witness_dict(**kv) -> dict:
    """Witness payload with JSON-safe values, keys in insertion order."""
    out = {}
    for k, v in kv.items():
        if hasattr(v, "kind") and hasattr(v, "value"):  # StatePoint
            out[k] = {"kind": v.kind, "value": v.value}
        elif isinstance(v, tuple):
            out[k] = list(v)
        else:
            out[k] = v
    return out
