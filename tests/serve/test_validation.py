"""Structured request validation: every parse failure names its field.

These tests pin the 400-body contract the HTTP front end relies on —
``{"error": "invalid_request", "field": ..., "reason": ...}`` with a
dotted/indexed path into the payload — and that well-formed payloads of
both vocabularies (legacy new-carrier, unified) round-trip into the
right request objects.
"""

import pytest

from repro.core.recommendation import RecommendRequest
from repro.serve import (
    RequestValidationError,
    unified_request_from_dict,
    unified_requests_from_json,
)
from repro.serve.validation import (
    new_carrier_request_from_dict,
    new_carrier_requests_from_json,
)

ATTRIBUTES = {
    "carrier_frequency": 1900,
    "carrier_type": "standard",
    "carrier_info": "none",
    "morphology": "suburban",
    "channel_bandwidth": 10,
    "dl_mimo_mode": "closed-loop",
    "hardware": "RRH1",
    "cell_size": 2,
    "tracking_area_code": 100,
    "market": 1,
    "vendor": "VendorA",
    "neighbor_channel": 555,
    "neighbor_count": 3,
    "software_version": "RAN20Q1",
}


def _error(callable_, *args, **kwargs) -> RequestValidationError:
    with pytest.raises(RequestValidationError) as excinfo:
        callable_(*args, **kwargs)
    return excinfo.value


class TestErrorShape:
    def test_to_dict_is_the_400_body(self):
        error = RequestValidationError("request.enodeb", "malformed")
        assert error.to_dict() == {
            "error": "invalid_request",
            "field": "request.enodeb",
            "reason": "malformed",
        }

    def test_message_names_field_and_reason(self):
        error = RequestValidationError("neighbors[2]", "bad key")
        assert "neighbors[2]" in str(error)
        assert "bad key" in str(error)


class TestNewCarrierShape:
    def test_well_formed_round_trip(self):
        request = new_carrier_request_from_dict(
            {
                "attributes": ATTRIBUTES,
                "enodeb": "1.4",
                "neighbors": ["1.4.0.0", "1.4.1.0"],
            }
        )
        assert request.enodeb_id.market.index == 1
        assert request.enodeb_id.index == 4
        assert len(request.neighbor_carriers) == 2
        assert request.attributes.values["carrier_frequency"] == 1900

    def test_non_object_payload(self):
        error = _error(new_carrier_request_from_dict, ["not", "a", "dict"])
        assert error.field == "request"
        assert "object" in error.reason

    def test_missing_attributes(self):
        error = _error(new_carrier_request_from_dict, {"enodeb": "1.4"})
        assert error.field == "request.attributes"
        assert "missing" in error.reason

    def test_bad_attributes_type(self):
        error = _error(new_carrier_request_from_dict, {"attributes": 7})
        assert error.field == "request.attributes"

    def test_unknown_attribute_name_reports_reason(self):
        bad = dict(ATTRIBUTES, banana=1)
        error = _error(new_carrier_request_from_dict, {"attributes": bad})
        assert error.field == "request.attributes"
        assert error.reason  # the GenerationError text survives

    def test_malformed_enodeb_key(self):
        error = _error(
            new_carrier_request_from_dict,
            {"attributes": ATTRIBUTES, "enodeb": "1.2.3"},
        )
        assert error.field == "request.enodeb"
        assert "market.index" in error.reason

    def test_malformed_neighbor_key_indexed(self):
        error = _error(
            new_carrier_request_from_dict,
            {"attributes": ATTRIBUTES, "neighbors": ["1.4.0.0", "nope"]},
        )
        assert error.field == "request.neighbors[1]"
        assert "market.enodeb.face.slot" in error.reason

    def test_neighbors_must_be_a_list(self):
        error = _error(
            new_carrier_request_from_dict,
            {"attributes": ATTRIBUTES, "neighbors": "1.4.0.0"},
        )
        assert error.field == "request.neighbors"


class TestBatchShape:
    def test_bare_list_and_wrapper_agree(self):
        item = {"attributes": ATTRIBUTES}
        assert len(new_carrier_requests_from_json([item, item])) == 2
        assert len(new_carrier_requests_from_json({"requests": [item]})) == 1

    def test_batch_error_carries_item_index(self):
        good = {"attributes": ATTRIBUTES}
        error = _error(new_carrier_requests_from_json, [good, {"enodeb": "1.4"}])
        assert error.field == "requests[1].attributes"

    def test_wrapper_without_requests_key(self):
        error = _error(new_carrier_requests_from_json, {"batch": []})
        assert error.field == "requests"

    def test_non_list_batch(self):
        error = _error(new_carrier_requests_from_json, "nope")
        assert error.field == "requests"


class TestUnifiedShape:
    def test_existing_carrier_target(self):
        request = unified_request_from_dict(
            {"carrier": "1.4.0.0", "leave_one_out": True}
        )
        assert isinstance(request, RecommendRequest)
        assert str(request.carrier_id) is not None
        assert request.leave_one_out is True

    def test_new_carrier_target(self):
        request = unified_request_from_dict(
            {"attributes": ATTRIBUTES, "enodeb": "1.4", "explain": True}
        )
        assert request.carrier_id is None
        assert request.explain is True

    def test_both_targets_rejected(self):
        error = _error(
            unified_request_from_dict,
            {"carrier": "1.4.0.0", "attributes": ATTRIBUTES},
        )
        assert "exactly one" in error.reason

    def test_neither_target_rejected(self):
        error = _error(unified_request_from_dict, {"explain": True})
        assert "exactly one" in error.reason

    def test_leave_one_out_rejected_for_new_carriers(self):
        error = _error(
            unified_request_from_dict,
            {"attributes": ATTRIBUTES, "leave_one_out": True},
        )
        assert error.field == "request.leave_one_out"

    def test_enodeb_rejected_for_existing_carriers(self):
        error = _error(
            unified_request_from_dict,
            {"carrier": "1.4.0.0", "enodeb": "1.4"},
        )
        assert "new carriers" in error.reason

    def test_payload_parameters_override_default(self):
        request = unified_request_from_dict(
            {"carrier": "1.4.0.0", "parameters": ["pMax"]},
            parameters=("inactivityTimer",),
        )
        assert request.parameters == ("pMax",)

    def test_default_parameters_apply(self):
        request = unified_request_from_dict(
            {"carrier": "1.4.0.0"}, parameters=("pMax",)
        )
        assert request.parameters == ("pMax",)

    def test_bad_parameters_type(self):
        error = _error(
            unified_request_from_dict,
            {"carrier": "1.4.0.0", "parameters": "pMax"},
        )
        assert error.field == "request.parameters"

    def test_bad_flag_type(self):
        error = _error(
            unified_request_from_dict,
            {"carrier": "1.4.0.0", "explain": "yes"},
        )
        assert error.field == "request.explain"
        assert "boolean" in error.reason

    def test_batch_indexing(self):
        good = {"carrier": "1.4.0.0"}
        error = _error(unified_requests_from_json, [good, {"carrier": 9}])
        assert error.field == "requests[1].carrier"
