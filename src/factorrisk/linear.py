"""Linear factor risk measures: weighted conditional expectations and MES.

rho(X, W) = sum_i q_i * E[X | scenario i] for a probability weighting q
over scenarios.  The physical weighting q = pi recovers E[X] by the tower
property; concentrating q on a distress event gives the marginal expected
shortfall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditioning import event_law, tail_box
from .core import ConditionalLawFamily, JointSample, _exactly_one, _probabilities
from .errors import ValidationError

PHYSICAL = "physical"


@dataclass(frozen=True)
class ScenarioWeighting:
    """Nonnegative scenario weights summing to one, or the physical tag.

    A weighting is a density against the scenario probabilities, so it can
    only load scenarios the factor actually visits; label-keyed weightings
    are checked against the family's labels when resolved.
    """

    values: np.ndarray | None = None
    by_label: dict | None = None
    physical: bool = False

    def __post_init__(self):
        _exactly_one(values=self.values is not None, by_label=self.by_label is not None,
                     physical=bool(self.physical))
        if self.values is not None:
            object.__setattr__(self, "values", _probabilities(self.values, "weights"))
        if self.by_label is not None:
            _probabilities(list(self.by_label.values()), "label weights")

    @classmethod
    def of(cls, spec) -> "ScenarioWeighting":
        if isinstance(spec, ScenarioWeighting):
            return spec
        if isinstance(spec, str):
            if spec == PHYSICAL:
                return cls(physical=True)
            raise ValidationError(f"unknown weighting tag {spec!r}")
        if isinstance(spec, dict):
            return cls(by_label=dict(spec))
        return cls(values=np.asarray(spec, dtype=float))

    def resolve(self, family: ConditionalLawFamily) -> np.ndarray:
        if self.physical:
            return family.pis.copy()
        if self.values is not None:
            if self.values.size != family.n_scenarios:
                raise ValidationError(
                    f"weighting has {self.values.size} entries for "
                    f"{family.n_scenarios} scenarios; weight on a zero-probability "
                    "scenario is not allowed"
                )
            return self.values.copy()
        if family.labels is None:
            raise ValidationError("label-keyed weighting needs scenario labels")
        position = {}  # each label's first position
        for i, label in enumerate(family.labels):
            position.setdefault(label, i)
        out = np.zeros(family.n_scenarios)
        for label, w in self.by_label.items():
            if label not in position:
                if w > 0:
                    raise ValidationError(
                        f"weight on scenario {label!r}, which has zero probability"
                    )
                continue
            out[position[label]] = w
        return out


def linear_factor(family: ConditionalLawFamily, weighting) -> float:
    """Weighted average of conditional means under a scenario weighting."""
    q = ScenarioWeighting.of(weighting).resolve(family)
    return float(q @ family.scenario_means())


def mes(sample: JointSample, alpha) -> float:
    """Marginal expected shortfall E[X | W >= VaR_alpha(W)]."""
    return event_law(sample, tail_box(alpha, sample.n_factors)).mean()
