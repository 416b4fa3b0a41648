"""Dataset import/export.

Serializes a network snapshot (markets, eNodeBs, carriers, attributes,
X2 relations) plus its configuration values to JSON, and loads it back
into :class:`~repro.netmodel.network.Network` +
:class:`~repro.config.store.ConfigurationStore`.

This is the adoption path for real data: operators export their own
carrier inventory and configuration into this schema and run the Auric
engine on it unchanged — the synthetic generator is only one producer of
the format.

Artifacts and the journal name a snapshot by the digest of its encoding
(:meth:`repro.core.columnar.ColumnarSnapshot.fingerprint`), not this.
"""

from repro.dataio.export import (
    dataset_to_dict,
    export_attributes_csv,
    export_dataset_json,
    export_parameter_csv,
)
from repro.dataio.load import load_dataset_json, snapshot_from_dict

__all__ = [
    "dataset_to_dict",
    "export_attributes_csv",
    "export_dataset_json",
    "export_parameter_csv",
    "load_dataset_json",
    "snapshot_from_dict",
]
