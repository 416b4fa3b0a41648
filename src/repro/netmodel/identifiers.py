"""Typed identifiers for network entities.

Using ``NewType``-style wrappers (implemented as small frozen dataclasses
with a string form) keeps carrier / eNodeB / market ids from being mixed
up in dictionaries and function signatures, which plain strings invite.

Identifiers key the engine's hottest dicts and sets, so each remembers
its hash after the first ``hash()`` call instead of re-hashing the
nested ids every time.  The remembered value is exactly the one the
generated dataclass hash returns, ``hash((field, ...))``, so every set
and dict of identifiers keeps its iteration order.  It is computed
lazily — most parsed ids are never hashed — and never pickled:
identifiers pickle by their constructor arguments.
"""

from __future__ import annotations

from dataclasses import dataclass


class _MemoizedHash:
    """Mixin for frozen identifier dataclasses: the field-tuple hash,
    computed on first use and kept in the instance ``__dict__``."""

    #: Class-level default; an instance shadows it once hashed.
    _hash = None

    def _fields(self) -> tuple:
        raise NotImplementedError

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(self._fields())
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        return type(self), self._fields()


@dataclass(frozen=True, order=True)
class MarketId(_MemoizedHash):
    """Identifier of a market (a state-sized operational region)."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("market index must be non-negative")

    def _fields(self) -> tuple:
        return (self.index,)

    # The dataclass decorator replaces an inherited ``__hash__`` unless
    # the class body defines one.
    __hash__ = _MemoizedHash.__hash__

    def __str__(self) -> str:
        return f"market-{self.index:02d}"


@dataclass(frozen=True, order=True)
class ENodeBId(_MemoizedHash):
    """Identifier of an eNodeB (base station) within a market."""

    market: MarketId
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("eNodeB index must be non-negative")

    def _fields(self) -> tuple:
        return (self.market, self.index)

    __hash__ = _MemoizedHash.__hash__

    def __str__(self) -> str:
        return f"{self.market}/enb-{self.index:05d}"


@dataclass(frozen=True, order=True)
class CarrierId(_MemoizedHash):
    """Identifier of a carrier: an eNodeB face plus a slot on that face."""

    enodeb: ENodeBId
    face: int
    slot: int

    def __post_init__(self) -> None:
        if not 0 <= self.face <= 2:
            raise ValueError("face must be 0, 1 or 2 (three faces per eNodeB)")
        if self.slot < 0:
            raise ValueError("carrier slot must be non-negative")

    def _fields(self) -> tuple:
        return (self.enodeb, self.face, self.slot)

    __hash__ = _MemoizedHash.__hash__

    @property
    def market(self) -> MarketId:
        return self.enodeb.market

    def __str__(self) -> str:
        return f"{self.enodeb}/f{self.face}/c{self.slot}"
