"""Configuration change history.

Production configuration management keeps an auditable record of every
change: SmartLaunch pushes, rollbacks, manual engineer edits.  The
paper's future-work section (§6) wants exactly this record — "the
temporal aspect of the configuration parameter changes" and "the
performance impacts for historical configuration changes" — as learner
input; this module provides the substrate.

Timestamps are logical (a monotonically increasing sequence number):
the simulation has no wall clock, and ordering is what analyses need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional

from repro.netmodel.identifiers import CarrierId
from repro.types import ParameterValue


class ChangeSource(enum.Enum):
    """Who made a change."""

    AURIC_PUSH = "auric-push"
    ROLLBACK = "rollback"
    MANUAL = "manual"
    VENDOR_INTEGRATION = "vendor-integration"


@dataclass(frozen=True)
class ChangeRecord:
    """One parameter change on one carrier."""

    sequence: int
    carrier_id: CarrierId
    parameter: str
    old_value: Optional[ParameterValue]
    new_value: ParameterValue
    source: ChangeSource
    batch_id: Optional[str] = None
    #: Optional recommendation provenance (the JSON form of a
    #: :class:`repro.obs.provenance.ParameterExplanation`): *why* the
    #: pushed value was recommended.  Excluded from equality so audits
    #: with and without provenance compare on the change itself.
    provenance: Optional[Dict] = field(default=None, compare=False)

    def __str__(self) -> str:
        return (
            f"#{self.sequence} {self.carrier_id} {self.parameter}: "
            f"{self.old_value!r} -> {self.new_value!r} [{self.source.value}]"
        )


class ChangeLog:
    """An append-only, queryable log of configuration changes."""

    def __init__(self) -> None:
        self._records: List[ChangeRecord] = []
        self._by_carrier: Dict[CarrierId, List[int]] = {}
        self._by_parameter: Dict[str, List[int]] = {}

    def record(
        self,
        carrier_id: CarrierId,
        parameter: str,
        old_value: Optional[ParameterValue],
        new_value: ParameterValue,
        source: ChangeSource,
        batch_id: Optional[str] = None,
        provenance: Optional[Dict] = None,
    ) -> ChangeRecord:
        entry = ChangeRecord(
            sequence=len(self._records),
            carrier_id=carrier_id,
            parameter=parameter,
            old_value=old_value,
            new_value=new_value,
            source=source,
            batch_id=batch_id,
            provenance=provenance,
        )
        self._records.append(entry)
        self._by_carrier.setdefault(carrier_id, []).append(entry.sequence)
        self._by_parameter.setdefault(parameter, []).append(entry.sequence)
        return entry

    def record_batch(
        self,
        carrier_id: CarrierId,
        changes: Iterable[tuple],
        source: ChangeSource,
        batch_id: Optional[str] = None,
        provenance: Optional[Mapping[str, Dict]] = None,
    ) -> List[ChangeRecord]:
        """Record (parameter, old, new) tuples as one batch.

        ``provenance`` optionally maps parameter names to their
        recommendation-provenance dicts; parameters without an entry are
        recorded without provenance.
        """
        return [
            self.record(
                carrier_id, parameter, old, new, source, batch_id,
                provenance=(
                    provenance.get(parameter) if provenance is not None else None
                ),
            )
            for parameter, old, new in changes
        ]

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ChangeRecord]:
        return iter(list(self._records))

    def all_records(self) -> List[ChangeRecord]:
        return list(self._records)

    def for_carrier(self, carrier_id: CarrierId) -> List[ChangeRecord]:
        return [self._records[i] for i in self._by_carrier.get(carrier_id, ())]

    def for_parameter(self, parameter: str) -> List[ChangeRecord]:
        return [self._records[i] for i in self._by_parameter.get(parameter, ())]

    def by_source(self, source: ChangeSource) -> List[ChangeRecord]:
        return [r for r in self._records if r.source is source]

    def last_change(
        self, carrier_id: CarrierId, parameter: str
    ) -> Optional[ChangeRecord]:
        """The most recent change of one value, if any."""
        for index in reversed(self._by_carrier.get(carrier_id, ())):
            if self._records[index].parameter == parameter:
                return self._records[index]
        return None

    def churn_by_parameter(self) -> Dict[str, int]:
        """parameter → number of recorded changes (tuning churn)."""
        return {
            parameter: len(indices)
            for parameter, indices in self._by_parameter.items()
        }
