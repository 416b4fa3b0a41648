"""Structured validation for serving-request payloads.

The serving front end answers malformed payloads with HTTP 400s that
name the offending field and the reason, so operators (and the traffic
generator's assertions) see *what* to fix instead of a bare
``KeyError`` traceback.  Every parse failure raises
:class:`RequestValidationError`, which carries:

* ``field`` — a dotted/indexed path into the payload
  (``requests[3].attributes``, ``enodeb``, ``neighbors[0]``),
* ``reason`` — a human-actionable sentence,
* :meth:`RequestValidationError.to_dict` — the JSON body the server
  returns.

Two request vocabularies are parsed here:

* the legacy *new-carrier* shape parsed by
  :func:`new_carrier_requests_from_json` (``attributes`` /
  ``enodeb`` / ``neighbors``), and
* the *unified* shape of :class:`~repro.core.recommendation.RecommendRequest`
  accepted by the HTTP front end, which additionally supports
  existing-carrier targets (``carrier`` + ``leave_one_out``),
  ``parameters`` restriction and the ``local`` / ``explain`` flags.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.pipeline import NewCarrierRequest
from repro.core.recommendation import RecommendRequest
from repro.dataio.keys import carrier_key_from_str
from repro.exceptions import GenerationError, ReproError
from repro.netmodel.attributes import CarrierAttributes
from repro.netmodel.identifiers import CarrierId, ENodeBId, MarketId

__all__ = [
    "RequestValidationError",
    "parse_carrier_key",
    "parse_enodeb_key",
    "new_carrier_request_from_dict",
    "new_carrier_requests_from_json",
    "unified_request_from_dict",
    "unified_requests_from_json",
]


class RequestValidationError(ReproError):
    """A request payload failed validation.

    ``field`` locates the problem inside the payload; ``reason`` says
    what is wrong with it.  The server maps this straight onto a 400
    response with :meth:`to_dict` as the body.
    """

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"invalid request field {field!r}: {reason}")

    def to_dict(self) -> Dict[str, str]:
        return {
            "error": "invalid_request",
            "field": self.field,
            "reason": self.reason,
        }


def _require_mapping(payload: Any, field: str) -> Dict:
    if not isinstance(payload, dict):
        raise RequestValidationError(
            field, f"expected an object, got {type(payload).__name__}"
        )
    return payload


def parse_carrier_key(text: Any, field: str) -> CarrierId:
    """``market.enodeb.face.slot`` → :class:`CarrierId`, or a 400."""
    if not isinstance(text, str):
        raise RequestValidationError(
            field,
            "expected a 'market.enodeb.face.slot' string, got "
            f"{type(text).__name__}",
        )
    try:
        return carrier_key_from_str(text)
    except ValueError:
        raise RequestValidationError(
            field,
            f"malformed carrier key {text!r} "
            "(expected 'market.enodeb.face.slot', four integers)",
        ) from None


def parse_enodeb_key(text: Any, field: str) -> ENodeBId:
    """``market.index`` → :class:`ENodeBId`, or a 400."""
    parts = str(text).split(".")
    if len(parts) != 2:
        raise RequestValidationError(
            field,
            f"malformed eNodeB key {text!r} "
            "(expected 'market.index', two integers)",
        )
    try:
        market, index = (int(part) for part in parts)
        return ENodeBId(MarketId(market), index)
    except ValueError as exc:
        raise RequestValidationError(
            field, f"malformed eNodeB key {text!r}: {exc}"
        ) from None


def _parse_attributes(payload: Any, field: str) -> CarrierAttributes:
    if not isinstance(payload, dict):
        raise RequestValidationError(
            field,
            f"expected an attribute object, got {type(payload).__name__}",
        )
    try:
        return CarrierAttributes(payload)
    except GenerationError as exc:
        raise RequestValidationError(field, str(exc)) from None


def _parse_neighbors(
    payload: Any, field: str
) -> Tuple[CarrierId, ...]:
    if not isinstance(payload, (list, tuple)):
        raise RequestValidationError(
            field,
            f"expected a list of carrier keys, got {type(payload).__name__}",
        )
    return tuple(
        parse_carrier_key(item, f"{field}[{i}]")
        for i, item in enumerate(payload)
    )


def _parse_bool(payload: Dict, name: str, field: str, default: bool) -> bool:
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise RequestValidationError(
            f"{field}.{name}" if field else name,
            f"expected a boolean, got {type(value).__name__}",
        )
    return value


def new_carrier_request_from_dict(
    payload: Any, field: str = "request"
) -> NewCarrierRequest:
    """Parse the legacy new-carrier shape with structured errors.

    Shape: ``{"attributes": {...}, "enodeb": "market.index" | null,
    "neighbors": ["m.e.f.s", ...]}``.
    """
    payload = _require_mapping(payload, field)
    if "attributes" not in payload:
        raise RequestValidationError(
            f"{field}.attributes", "required field is missing"
        )
    attributes = _parse_attributes(payload["attributes"], f"{field}.attributes")
    enodeb_id = None
    if payload.get("enodeb") is not None:
        enodeb_id = parse_enodeb_key(payload["enodeb"], f"{field}.enodeb")
    neighbors = _parse_neighbors(
        payload.get("neighbors", ()), f"{field}.neighbors"
    )
    return NewCarrierRequest(
        attributes=attributes,
        enodeb_id=enodeb_id,
        neighbor_carriers=neighbors,
    )


def _batch_items(payload: Any, field: str) -> List[Tuple[Any, str]]:
    """Normalize a batch payload (bare list or ``{"requests": [...]}``)
    into ``(item, item_field)`` pairs."""
    if isinstance(payload, dict):
        if "requests" not in payload:
            raise RequestValidationError(
                "requests",
                "batch object must carry a 'requests' list "
                "(or post a bare JSON list)",
            )
        payload = payload["requests"]
    if not isinstance(payload, (list, tuple)):
        raise RequestValidationError(
            field,
            f"expected a list of requests, got {type(payload).__name__}",
        )
    return [
        (item, f"{field}[{index}]") for index, item in enumerate(payload)
    ]


def new_carrier_requests_from_json(payload: Any) -> List[NewCarrierRequest]:
    """Parse a legacy request batch with per-item error locations."""
    return [
        new_carrier_request_from_dict(item, item_field)
        for item, item_field in _batch_items(payload, "requests")
    ]


def unified_request_from_dict(
    payload: Any,
    field: str = "request",
    parameters: Optional[Tuple[str, ...]] = None,
) -> RecommendRequest:
    """Parse the unified request shape the HTTP front end accepts.

    Either an existing-carrier query::

        {"carrier": "m.e.f.s", "leave_one_out": true}

    or a new-carrier query (the legacy shape)::

        {"attributes": {...}, "enodeb": "m.i", "neighbors": [...]}

    plus the optional ``parameters`` (list of names), ``local``,
    ``include_enumerations`` and ``explain`` flags.  ``parameters``
    passed by the caller is a default applied when the payload does not
    restrict the query itself.
    """
    payload = _require_mapping(payload, field)
    has_carrier = payload.get("carrier") is not None
    has_attributes = "attributes" in payload
    if has_carrier == has_attributes:
        raise RequestValidationError(
            field,
            "exactly one of 'carrier' (existing target) or 'attributes' "
            "(new carrier) must identify the target",
        )

    requested = payload.get("parameters")
    if requested is not None:
        if not isinstance(requested, (list, tuple)) or not all(
            isinstance(name, str) for name in requested
        ):
            raise RequestValidationError(
                f"{field}.parameters",
                "expected a list of parameter names",
            )
        parameters = tuple(requested)

    common = dict(
        parameters=parameters,
        include_enumerations=_parse_bool(
            payload, "include_enumerations", field, True
        ),
        local=_parse_bool(payload, "local", field, True),
        explain=_parse_bool(payload, "explain", field, False),
    )
    if has_carrier:
        if "neighbors" in payload or "enodeb" in payload:
            raise RequestValidationError(
                field,
                "existing-carrier queries resolve their neighborhood from "
                "the snapshot; 'enodeb'/'neighbors' apply to new carriers",
            )
        return RecommendRequest(
            carrier_id=parse_carrier_key(
                payload["carrier"], f"{field}.carrier"
            ),
            leave_one_out=_parse_bool(payload, "leave_one_out", field, False),
            **common,
        )
    if _parse_bool(payload, "leave_one_out", field, False):
        raise RequestValidationError(
            f"{field}.leave_one_out",
            "leave_one_out only applies to existing-carrier targets",
        )
    legacy = new_carrier_request_from_dict(payload, field)
    return RecommendRequest(
        attributes=legacy.attributes,
        enodeb_id=legacy.enodeb_id,
        neighbor_carriers=legacy.neighbor_carriers,
        **common,
    )


def unified_requests_from_json(
    payload: Any, parameters: Optional[Tuple[str, ...]] = None
) -> List[RecommendRequest]:
    """Parse a unified request batch with per-item error locations."""
    return [
        unified_request_from_dict(item, item_field, parameters)
        for item, item_field in _batch_items(payload, "requests")
    ]
