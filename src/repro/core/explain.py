"""Human-readable explanations of recommendations.

Section 5 ("Lessons learned"): interpretation of results and simple
explanations were essential for engineer adoption.  This module renders
a recommendation into the pieces an engineer checks: which attributes
the parameter depends on, what the new carrier's values are on those
attributes, how the vote went, and what the runner-up values were.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config.store import PairKey
from repro.core.auric import AuricEngine
from repro.netmodel.identifiers import CarrierId


def explain_recommendation(
    engine: AuricEngine,
    parameter: str,
    carrier_id: CarrierId,
    local: bool = True,
    top_alternatives: int = 3,
) -> List[str]:
    """Explanation lines for a singular-parameter recommendation."""
    model = engine._model(parameter)
    row = engine.carrier_row(carrier_id)
    recommendation = engine.recommend_for_carrier(
        parameter, carrier_id, local=local
    )
    lines = [
        f"parameter {parameter} for {carrier_id}:",
        "  depends on: "
        + (", ".join(
            f"{name}={row[col]}"
            for name, col in zip(model.dependent_names, model.dependent_columns)
        ) or "(no dependent attributes found)"),
        f"  vote ({recommendation.scope}): {recommendation.value!r} with "
        f"{recommendation.support:.0%} support from "
        f"{recommendation.matched:g} matching carriers",
    ]
    if not recommendation.confident:
        lines.append(
            "  note: support is below the "
            f"{engine.config.support_threshold:.0%} threshold; the value is "
            "a plurality suggestion, not a confident recommendation"
        )
    alternatives = _alternatives(engine, parameter, row, carrier_id, top_alternatives)
    if alternatives:
        lines.append("  runners-up: " + ", ".join(alternatives))
    return lines


def _alternatives(
    engine: AuricEngine,
    parameter: str,
    row,
    exclude: Optional[CarrierId],
    top: int,
) -> List[str]:
    vote = engine.exact_cell_vote(parameter, row, exclude)
    if vote is None or vote.matched == 0:
        return []
    return [
        f"{value!r} ({count / vote.matched:.0%})"
        for value, count in vote.votes[1:top + 1]
    ]
