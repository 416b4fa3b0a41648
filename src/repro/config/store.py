"""Configuration storage for a network snapshot.

The store holds, per carrier, the values of singular parameters, and per
ordered (carrier, neighbor) pair, the values of pair-wise parameters
(one entry for each direction of a handover relation, as in a real RAN
where carrier j's handover settings *toward* neighbor k are configured on
j).

All writes are validated against the catalog, so an in-range store is an
invariant the rest of the library can rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.config.parameters import ParameterCatalog, ParameterKind
from repro.config.values import validate_value
from repro.exceptions import ConfigurationError
from repro.netmodel.identifiers import CarrierId
from repro.types import ParameterValue


@dataclass(frozen=True, order=True)
class PairKey:
    """An ordered (carrier, neighbor) pair for pair-wise parameters."""

    carrier: CarrierId
    neighbor: CarrierId

    def __post_init__(self) -> None:
        if self.carrier == self.neighbor:
            raise ValueError("pair-wise parameters need two distinct carriers")

    def reversed(self) -> "PairKey":
        return PairKey(self.neighbor, self.carrier)


class ConfigurationStore:
    """Per-carrier and per-pair parameter values, validated on write."""

    def __init__(self, catalog: ParameterCatalog):
        self._catalog = catalog
        self._singular: Dict[CarrierId, Dict[str, ParameterValue]] = {}
        self._pairwise: Dict[PairKey, Dict[str, ParameterValue]] = {}

    @property
    def catalog(self) -> ParameterCatalog:
        return self._catalog

    # -- writes -----------------------------------------------------------

    def set_singular(self, carrier: CarrierId, name: str, value: ParameterValue) -> None:
        spec = self._catalog.spec(name)
        if spec.kind is not ParameterKind.SINGULAR:
            raise ConfigurationError(f"{name} is a pair-wise parameter")
        validate_value(spec, value)
        self._singular.setdefault(carrier, {})[name] = value

    def set_pairwise(self, pair: PairKey, name: str, value: ParameterValue) -> None:
        spec = self._catalog.spec(name)
        if spec.kind is not ParameterKind.PAIRWISE:
            raise ConfigurationError(f"{name} is a singular parameter")
        validate_value(spec, value)
        self._pairwise.setdefault(pair, {})[name] = value

    # -- reads ------------------------------------------------------------

    def get_singular(self, carrier: CarrierId, name: str) -> Optional[ParameterValue]:
        return self._singular.get(carrier, {}).get(name)

    def get_pairwise(self, pair: PairKey, name: str) -> Optional[ParameterValue]:
        return self._pairwise.get(pair, {}).get(name)

    def carrier_config(self, carrier: CarrierId) -> Dict[str, ParameterValue]:
        """All singular values configured on ``carrier`` (a copy)."""
        return dict(self._singular.get(carrier, {}))

    def pair_config(self, pair: PairKey) -> Dict[str, ParameterValue]:
        return dict(self._pairwise.get(pair, {}))

    # -- iteration --------------------------------------------------------

    def carriers(self) -> Iterator[CarrierId]:
        return iter(self._singular)

    def pairs(self) -> Iterator[PairKey]:
        return iter(self._pairwise)

    def singular_values(self, name: str) -> Dict[CarrierId, ParameterValue]:
        """All configured values of one singular parameter."""
        out: Dict[CarrierId, ParameterValue] = {}
        for carrier, values in self._singular.items():
            if name in values:
                out[carrier] = values[name]
        return out

    def pairwise_values(self, name: str) -> Dict[PairKey, ParameterValue]:
        out: Dict[PairKey, ParameterValue] = {}
        for pair, values in self._pairwise.items():
            if name in values:
                out[pair] = values[name]
        return out

    # -- counts -----------------------------------------------------------

    def total_value_count(self) -> int:
        """Total number of stored parameter values (singular + pair-wise).

        This is the paper's "configuration parameter values" count (15M+
        in the production dataset).
        """
        singular = sum(len(v) for v in self._singular.values())
        pairwise = sum(len(v) for v in self._pairwise.values())
        return singular + pairwise

    def value_counts(self) -> Tuple[int, int]:
        """(singular, pair-wise) stored value counts."""
        return (
            sum(len(v) for v in self._singular.values()),
            sum(len(v) for v in self._pairwise.values()),
        )
