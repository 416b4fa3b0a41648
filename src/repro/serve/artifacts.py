"""Persistent engine artifacts: train once, save, load, serve.

An artifact stores a fitted :class:`~repro.core.auric.AuricEngine` the
way a generated dataset is stored as its generator parameters: per
parameter, only the chi-square selection (dependent columns and names,
their stats) and the sparse vote weights, plus the
:class:`~repro.core.auric.AuricConfig`, in a schema-versioned JSON
document.  A model is a function of ``(snapshot, config, selection,
weights)``, so a load rebuilds every model with the fit's own vote phase
(:meth:`~repro.core.auric.AuricEngine._build_columnar_model`) over the
snapshot the artifact binds, and the loaded engine answers exactly as
the fitted one did.

Artifacts embed the digest of the snapshot their models were built
from, :meth:`~repro.core.columnar.ColumnarSnapshot.fingerprint` over
the fitted parameters.  A verifying load raises unless the live
snapshot, and an mmap artifact's store, digest the same (the refresh
layer serves stale-but-available models on purpose, unverified).

The snapshot a load builds from is the mmap snapshot store that an
artifact saved with ``AuricConfig.store="mmap"`` references (opened
zero-copy), or else the live network and store, encoded at load.  While
the fingerprint verifies, the two are the same snapshot.  Under
``verify_fingerprint=False`` they need not be: a memory artifact then
votes from the live values, an mmap artifact from its store.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Hashable, List, Optional

from repro.config.store import ConfigurationStore
from repro.core.auric import AuricConfig, AuricEngine, _ParameterModel
from repro.core.columnar import ColumnarSnapshot
from repro.dataio.keys import (
    carrier_key_from_str,
    carrier_key_to_str,
    pair_key_from_str,
    pair_key_to_str,
)
from repro.exceptions import RecommendationError
from repro.netmodel.network import Network
from repro.obs import journal as obs_journal
from repro.obs.health import DriftBaseline
from repro.obs.provenance import AttributeDependence
from repro.serve.refresh import _changed_positions
from repro.store import MmapSnapshotStore, SnapshotStoreError

#: Version of the artifact document schema (bump on layout changes).
#: v2 adds an optional inline ``columnar`` snapshot section (and a
#: ``columnar`` config flag); both are no longer written and are
#: ignored on load.  v3 adds the optional ``drift_baseline`` section
#: (fit-time value distributions for
#: :class:`repro.obs.health.DriftDetector`); v4 adds the
#: ``config.store`` field and the optional ``columnar_store`` reference
#: to an mmap snapshot store next to the artifact.  A legacy ``file``
#: store (a JSON sidecar) loads as ``memory`` and its reference is
#: ignored.  v5 drops each model's ``samples``: a load rebuilds the
#: votes from the snapshot.  v6 binds the encoded snapshot's digest,
#: not the dataset JSON's; v1–v5 documents load only unverified, their
#: samples unread.
ARTIFACT_SCHEMA_VERSION = 6

#: Schema versions :func:`engine_from_dict` accepts.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3, 4, 5, 6)

_ARTIFACT_KIND = "auric-engine-artifact"


class ArtifactError(RecommendationError):
    """A malformed, incompatible or mismatched engine artifact."""


def _key_to_str(key: Hashable, pairwise: bool) -> str:
    return pair_key_to_str(key) if pairwise else carrier_key_to_str(key)


def _required(section: Dict, field: str, where: str) -> Any:
    try:
        return section[field]
    except KeyError:
        raise ArtifactError(f"{where} has no {field!r} field") from None


def _model_to_dict(model: _ParameterModel) -> Dict:
    pairwise = model.spec.is_pairwise
    return {
        "parameter": model.spec.name,
        "pairwise": pairwise,
        "dependent_columns": list(model.dependent_columns),
        "dependent_names": list(model.dependent_names),
        # Chi-square provenance for the selected attributes; additive —
        # pre-provenance artifacts simply lack the key.
        "dependent_stats": [
            stat.to_dict() for stat in model.dependent_stats
        ],
        "weights": {
            _key_to_str(key, pairwise): weight
            for key, weight in model.weights.items()
        },
    }


def _model_from_dict(payload: Dict, engine: AuricEngine) -> _ParameterModel:
    """Rebuild one model from its selection and weights with the fit's
    vote phase (a v1–v4 document's ``samples`` are not read)."""
    name = _required(payload, "parameter", "a model")
    where = f"model {name}"
    spec = engine.catalog.spec(name)
    pairwise = bool(_required(payload, "pairwise", where))
    if spec.is_pairwise != pairwise:
        raise ArtifactError(
            f"artifact says {spec.name} is "
            f"{'pair-wise' if pairwise else 'singular'}, catalog disagrees"
        )
    parse = pair_key_from_str if pairwise else carrier_key_from_str
    try:
        weights: Dict[Hashable, float] = {
            parse(text): float(weight)
            for text, weight in payload.get("weights", {}).items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{where}: malformed weights: {exc}") from None
    dependent = tuple(
        int(c) for c in _required(payload, "dependent_columns", where)
    )
    names = tuple(_required(payload, "dependent_names", where))
    attributes = engine.attribute_names(spec)
    if names != tuple(
        attributes[c] if 0 <= c < len(attributes) else None for c in dependent
    ):
        raise ArtifactError(
            f"{where}: dependent columns {list(dependent)} do not name "
            f"the attributes {list(names)}"
        )
    stats = tuple(
        AttributeDependence.from_dict(item)
        for item in payload.get("dependent_stats", ())
    )
    return engine._build_columnar_model(spec, dependent, stats, weights or None)


def engine_to_dict(
    engine: AuricEngine, columnar_ref: Optional[Dict] = None
) -> Dict:
    """The JSON-serializable form of a fitted engine, bound to the
    digest of its own snapshot (what its models were built from).

    ``columnar_ref`` is written as the ``columnar_store`` reference to
    the mmap store the caller persists the snapshot to
    (:func:`save_engine` does this for ``config.store == "mmap"``).
    Without one the document carries no snapshot.
    """
    models = engine.fitted_models()
    fingerprint = engine.ensure_columnar().fingerprint(engine.network, models)
    config = engine.config
    payload = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "kind": _ARTIFACT_KIND,
        "snapshot_fingerprint": fingerprint,
        "config": {
            "support_threshold": config.support_threshold,
            "p_value": config.p_value,
            "min_effect_size": config.min_effect_size,
            "selection": config.selection,
            "hops": config.hops,
            "min_local_votes": config.min_local_votes,
            "max_fit_samples": config.max_fit_samples,
            "seed": config.seed,
            "store": config.store,
        },
        "models": [
            _model_to_dict(model) for _, model in sorted(models.items())
        ],
    }
    # Only the (kind, path) reference is embedded: the arrays live in
    # the store file, opened zero-copy on load.
    if columnar_ref is not None:
        payload["columnar_store"] = dict(columnar_ref)
    # Fit-time distribution baseline for drift detection (v3, additive):
    # a loaded engine can score live snapshots against the population
    # the persisted models were fitted on.
    if engine.drift_baseline is not None:
        payload["drift_baseline"] = engine.drift_baseline.to_dict()
    return payload


def resolve_store_ref(
    ref: Any, base_dir: Optional[str] = None
) -> Optional[MmapSnapshotStore]:
    """The mmap store named by an artifact's ``columnar_store``
    reference (relative paths resolve against the artifact's
    directory), or ``None`` for a legacy ``file`` reference, which is
    ignored.  A malformed reference raises :class:`ArtifactError`."""
    if not isinstance(ref, dict):
        raise ArtifactError(
            f"malformed columnar_store reference {ref!r}: not an object"
        )
    kind = ref.get("kind", "mmap")
    if kind == "file":
        return None
    if kind != "mmap":
        raise ArtifactError(
            f"columnar_store reference names an unknown store kind {kind!r}"
        )
    path = ref.get("path")
    if not isinstance(path, str) or not path:
        raise ArtifactError(f"columnar_store reference {ref!r} has no path")
    if not os.path.isabs(path) and base_dir:
        path = os.path.join(base_dir, path)
    return MmapSnapshotStore(path)


def engine_from_dict(
    payload: Dict,
    network: Network,
    store: ConfigurationStore,
    verify_fingerprint: bool = True,
    base_dir: Optional[str] = None,
) -> AuricEngine:
    """Rebuild a fitted engine from :func:`engine_to_dict` output.

    ``network`` and ``store`` are the snapshot to serve against (loaded
    separately, e.g. via :mod:`repro.dataio`).  With
    ``verify_fingerprint`` the snapshot must be the one the engine was
    fitted on, and so must an mmap artifact's store; pass ``False`` to
    serve a stale model deliberately.  ``base_dir`` anchors relative
    ``columnar_store`` references (v4); :func:`load_engine` passes the
    artifact's directory.  Only an ``mmap`` reference is opened; legacy
    inline ``columnar`` sections and ``file`` references are ignored.

    Every model is rebuilt from its selection and weights by the fit's
    vote phase, over the referenced mmap store or, without one, over
    the live snapshot encoded here.
    """
    if payload.get("kind") != _ARTIFACT_KIND:
        raise ArtifactError(f"not an engine artifact: kind={payload.get('kind')!r}")
    version = payload.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ArtifactError(f"unsupported artifact schema version {version!r}")
    if verify_fingerprint and version < 6:
        raise ArtifactError(
            f"a schema v{version} artifact binds a digest of the dataset's "
            "JSON export, which is no longer computed; load it with "
            "verify_fingerprint=False (--no-verify-artifact), then save it "
            "again to bind it to its snapshot"
        )
    config_fields = dict(_required(payload, "config", "the artifact"))
    config_fields.pop("columnar", None)  # v2-v4 engine option, removed
    if config_fields.get("store") == "file":  # v4 JSON backend, removed
        config_fields["store"] = "memory"
    config = AuricConfig(**config_fields)
    engine = AuricEngine(network, store, config)
    model_payloads = _required(payload, "models", "the artifact")
    specs = [
        engine.catalog.spec(_required(model, "parameter", "a model"))
        for model in model_payloads
    ]
    snapshot_store = None
    if "columnar_store" in payload:
        snapshot_store = resolve_store_ref(payload["columnar_store"], base_dir)
    mapped = None
    if snapshot_store is not None:
        try:
            mapped = snapshot_store.load()
        except (OSError, SnapshotStoreError) as exc:
            raise ArtifactError(
                f"cannot open the artifact's columnar store "
                f"({payload['columnar_store']}): {exc}"
            ) from exc
        if mapped is None:
            raise ArtifactError(
                "the artifact references an external columnar store that "
                f"is missing: {payload['columnar_store']}"
            )
    live = None
    if mapped is None or verify_fingerprint:
        live = ColumnarSnapshot.encode(network, store, specs)
    if verify_fingerprint:
        expected = payload.get("snapshot_fingerprint")
        names = [spec.name for spec in specs]
        _check_digest(live, network, names, expected, "live snapshot")
        if mapped is not None:
            # The mapped store is keyed by the network's own ids before
            # its digest maps the X2 relations to slots, so every lookup
            # hits by identity; the ids themselves are compared here.
            if mapped.carrier_ids != live.carrier_ids:
                raise ArtifactError(
                    "the artifact's columnar store holds another snapshot's "
                    "carriers; pass verify_fingerprint=False to serve it "
                    "anyway"
                )
            mapped.take_carrier_ids(live)
            _check_digest(mapped, network, names, expected, "columnar store")
    engine.attach_columnar(live if mapped is None else mapped)
    if "drift_baseline" in payload:
        engine.drift_baseline = DriftBaseline.from_dict(
            payload["drift_baseline"]
        )
    for model_payload in model_payloads:
        model = _model_from_dict(model_payload, engine)
        engine.install_model(model.spec.name, model)
    return engine


def _check_digest(
    snapshot: ColumnarSnapshot,
    network: Network,
    parameters: List[str],
    expected: Any,
    what: str,
) -> None:
    """Raise :class:`ArtifactError` unless ``snapshot`` digests to the
    artifact's ``expected`` fingerprint."""
    actual = snapshot.fingerprint(network, parameters)
    if actual != expected:
        raise ArtifactError(
            "artifact was fitted on a different snapshot (artifact "
            f"{str(expected)[:12]}…, {what} {actual[:12]}…); "
            "pass verify_fingerprint=False to serve it anyway"
        )


def artifact_fingerprint(payload: Dict) -> str:
    """A stable content hash of an artifact payload.

    Canonical-JSON (sorted keys) over the whole document, so two saves
    of the same fitted engine fingerprint identically and any model or
    config difference changes it.  Recorded in the lifecycle journal on
    save/load so a timeline names exactly which artifact crossed the
    persistence boundary.
    """
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_store_path(artifact_path: str) -> str:
    """Where the mmap columnar store for an artifact lives."""
    return f"{artifact_path}.columnar"


def _refuse_moved(engine: AuricEngine, fingerprint: str) -> None:
    """Raise :class:`ArtifactError` unless the live network and store
    encode to ``fingerprint``, the digest of the snapshot the engine's
    models were built from, naming what moved: the carrier attributes,
    or the fitted parameters whose values differ."""
    models = engine.fitted_models()
    specs = [model.spec for model in models.values()]
    live = ColumnarSnapshot.encode(engine.network, engine.store, specs)
    if live.fingerprint(engine.network, models) == fingerprint:
        return
    own = engine.columnar_snapshot()
    reasons = []
    if own.fingerprint(engine.network, ()) != live.fingerprint(
        engine.network, ()
    ):
        reasons.append("the carrier attributes moved after the fit")
    moved = []
    for name in sorted(models):
        changed = _changed_positions(own.parameter(name), live.parameter(name))
        if changed is None or len(changed):
            moved.append(name)
    if moved:
        reasons.append(f"the store moved after the fit of {', '.join(moved)}")
    raise ArtifactError(
        f"{'; '.join(reasons)}; refit before saving, or the artifact "
        "loads as another engine"
    )


def save_engine(engine: AuricEngine, path: str) -> Dict:
    """Persist a fitted engine; returns the written payload.

    With ``AuricConfig.store`` set to ``"mmap"``, the encoded columnar
    snapshot is persisted to an mmap store next to the artifact
    (:func:`default_store_path`) and referenced by relative path, so it
    opens zero-copy on load.  A memory artifact carries no snapshot.

    The artifact binds the digest of the snapshot the engine's models
    were built from, and a load rebuilds the models over the snapshot
    it is handed, so an engine whose network or store moved after its
    fit is refused with :class:`ArtifactError`: its artifact would
    load as another engine.  Refit it first
    (:meth:`repro.serve.refresh.EngineRefresher.refit` with the
    changelog).
    """
    columnar_ref: Optional[Dict] = None
    if engine.config.store == "mmap":
        store_path = default_store_path(path)
        columnar_ref = {"kind": "mmap", "path": os.path.basename(store_path)}
    payload = engine_to_dict(engine, columnar_ref=columnar_ref)
    _refuse_moved(engine, payload["snapshot_fingerprint"])
    if columnar_ref is not None:
        MmapSnapshotStore(store_path).persist(engine.columnar_snapshot())
    with open(path, "w") as handle:
        json.dump(payload, handle)
    if obs_journal.active():
        obs_journal.record(
            "artifact-save",
            scope="engine",
            stream=engine.lineage,
            fingerprints={
                "snapshot": payload.get("snapshot_fingerprint"),
                "artifact": artifact_fingerprint(payload),
            },
            path=path,
            schema_version=payload.get("schema_version"),
            models=len(payload.get("models", [])),
        )
    return payload


def load_engine(
    path: str,
    network: Network,
    store: ConfigurationStore,
    verify_fingerprint: bool = True,
) -> AuricEngine:
    """Load an engine artifact written by :func:`save_engine`."""
    with open(path) as handle:
        payload = json.load(handle)
    engine = engine_from_dict(
        payload,
        network,
        store,
        verify_fingerprint,
        base_dir=os.path.dirname(os.path.abspath(path)),
    )
    if obs_journal.active():
        if engine.lineage is None:
            engine.lineage = obs_journal.mint_stream("engine")
        obs_journal.record(
            "artifact-load",
            scope="engine",
            stream=engine.lineage,
            fingerprints={
                "snapshot": payload.get("snapshot_fingerprint"),
                "artifact": artifact_fingerprint(payload),
            },
            path=path,
            schema_version=payload.get("schema_version"),
            models=len(payload.get("models", [])),
        )
    return engine


def artifact_summary(payload: Dict) -> str:
    """One line describing an artifact (CLI output)."""
    models: List[Dict] = payload.get("models", [])
    dependent = sum(len(m.get("dependent_columns", [])) for m in models)
    weighted = sum(len(m.get("weights", {})) for m in models)
    line = (
        f"engine artifact v{payload.get('schema_version')}: "
        f"{len(models)} parameter models, {dependent} dependent attributes, "
        f"{weighted} weighted targets, "
        f"snapshot {str(payload.get('snapshot_fingerprint'))[:12]}…"
    )
    ref = payload.get("columnar_store")
    if ref:
        line += f", columnar in {ref.get('kind')} store {ref.get('path')}"
    return line
