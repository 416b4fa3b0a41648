"""Export a network snapshot to JSON / CSV."""

from __future__ import annotations

import csv
import hashlib
import json
from typing import Dict, Optional, Tuple, Union

from repro.config.store import ConfigurationStore, PairKey
from repro.dataio.keys import carrier_key_to_str, pair_key_to_str
from repro.datagen.generator import SyntheticDataset
from repro.netmodel.attributes import ATTRIBUTE_SCHEMA
from repro.netmodel.identifiers import CarrierId
from repro.netmodel.network import Network

SCHEMA_VERSION = 1


def dataset_to_dict(
    network: Network, store: ConfigurationStore
) -> Dict:
    """The JSON-serializable form of a network + configuration snapshot."""
    markets = []
    for market in network.markets:
        enodebs = []
        for enodeb in market.enodebs:
            carriers = [
                {
                    "face": carrier.carrier_id.face,
                    "slot": carrier.carrier_id.slot,
                    "attributes": dict(carrier.attributes.values),
                }
                for carrier in enodeb.carriers()
            ]
            enodebs.append(
                {
                    "index": enodeb.enodeb_id.index,
                    "lat": enodeb.location.lat,
                    "lon": enodeb.location.lon,
                    "carriers": carriers,
                }
            )
        markets.append(
            {
                "index": market.market_id.index,
                "name": market.name,
                "timezone": market.timezone.value,
                "center": [market.center.lat, market.center.lon],
                "enodebs": enodebs,
            }
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "markets": markets,
        "x2_carrier_edges": sorted(
            [carrier_key_to_str(a), carrier_key_to_str(b)]
            for a, b in network.x2.carrier_pairs()
        ),
        "x2_enodeb_edges": sorted(
            sorted([f"{a.market.index}.{a.index}", f"{b.market.index}.{b.index}"])
            for a, b in network.x2.enodeb_graph.edges()
        ),
        "config": _config_section(store),
    }


def _carrier_order(carrier: CarrierId) -> Tuple[int, int, int, int]:
    """``CarrierId``'s dataclass order as a flat tuple, which sorts in C."""
    enodeb = carrier.enodeb
    return (enodeb.market.index, enodeb.index, carrier.face, carrier.slot)


def _pair_order(pair: PairKey) -> Tuple[int, ...]:
    return _carrier_order(pair.carrier) + _carrier_order(pair.neighbor)


def _config_section(store: ConfigurationStore) -> Dict[str, Dict]:
    """Every range parameter's values keyed by carrier (pair) string.

    Parameters come in catalog order, empty ones dropped; each
    parameter's keys come in key order.  One sorted pass over the
    carriers and one over the pairs turn each key into a string once.
    """
    by_name: Dict[str, Dict[str, object]] = {}
    for carrier in sorted(store.carriers(), key=_carrier_order):
        text = carrier_key_to_str(carrier)
        for name, value in store.carrier_config(carrier).items():
            by_name.setdefault(name, {})[text] = value
    for pair in sorted(store.pairs(), key=_pair_order):
        text = pair_key_to_str(pair)
        for name, value in store.pair_config(pair).items():
            by_name.setdefault(name, {})[text] = value
    singular: Dict[str, Dict[str, object]] = {}
    pairwise: Dict[str, Dict[str, object]] = {}
    for spec in store.catalog.range_parameters():
        if spec.name in by_name:
            section = pairwise if spec.is_pairwise else singular
            section[spec.name] = by_name[spec.name]
    return {"singular": singular, "pairwise": pairwise}


def snapshot_fingerprint(network: Network, store: ConfigurationStore) -> str:
    """A stable content hash of a network + configuration snapshot.

    Engine artifacts (``repro.serve.artifacts``) embed this so a loaded
    model can be checked against the snapshot it is served with: same
    carriers, same topology, same configured values → same fingerprint.
    """
    payload = dataset_to_dict(network, store)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def export_dataset_json(
    dataset_or_network: Union[SyntheticDataset, Network],
    path: str,
    store: Optional[ConfigurationStore] = None,
) -> None:
    """Write a snapshot to a JSON file.

    Accepts either a :class:`SyntheticDataset` or a (network, store)
    pair, so exported real-data snapshots round-trip the same way.
    """
    if isinstance(dataset_or_network, Network):
        if store is None:
            raise ValueError("store is required when passing a bare Network")
        network = dataset_or_network
    else:
        network = dataset_or_network.network
        store = dataset_or_network.store
    payload = dataset_to_dict(network, store)
    with open(path, "w") as handle:
        json.dump(payload, handle)


def export_attributes_csv(network: Network, path: str) -> int:
    """One CSV row per carrier with its full attribute vector.

    Returns the number of rows written.
    """
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["carrier_id", "lat", "lon", *ATTRIBUTE_SCHEMA.names])
        for carrier in network.carriers():
            writer.writerow(
                [
                    carrier_key_to_str(carrier.carrier_id),
                    carrier.location.lat,
                    carrier.location.lon,
                    *carrier.attributes.as_tuple(),
                ]
            )
            count += 1
    return count


def export_parameter_csv(
    store: ConfigurationStore, parameter: str, path: str
) -> int:
    """One CSV row per configured value of one parameter."""
    spec = store.catalog.spec(parameter)
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if spec.is_pairwise:
            writer.writerow(["carrier_id", "neighbor_id", parameter])
            for pair, value in sorted(store.pairwise_values(parameter).items()):
                writer.writerow(
                    [
                        carrier_key_to_str(pair.carrier),
                        carrier_key_to_str(pair.neighbor),
                        value,
                    ]
                )
                count += 1
        else:
            writer.writerow(["carrier_id", parameter])
            for carrier_id, value in sorted(
                store.singular_values(parameter).items()
            ):
                writer.writerow([carrier_key_to_str(carrier_id), value])
                count += 1
    return count
