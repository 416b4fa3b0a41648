"""The Auric recommendation engine.

Fits, per range parameter, a collaborative-filtering dependency model
(chi-square attribute selection, section 3.2) over the existing carriers
in a network, then recommends values for target carriers by voting —
globally or within the 1-hop X2 neighborhood (section 3.3).

The engine supports *leave-one-out* voting (``exclude`` in the recommend
calls): the paper's evaluation treats each existing carrier as if it
were new, with the rest of the network as the training set, so a
carrier's own configured value must not vote for itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import stats as _scipy_stats

from repro.config.parameters import ParameterCatalog, ParameterSpec
from repro.config.store import ConfigurationStore, PairKey
from repro.core.columnar import (
    ColumnarSnapshot,
    EncodedVotes,
    LocalVoteIndex,
    tally,
)
from repro.exceptions import RecommendationError, UnknownParameterError
from repro.core.recommendation import (
    ParameterRecommendation,
    RecommendRequest,
    RecommendResult,
)
from repro.learners.collaborative_filtering import (
    NO_EXCLUDE,
    CellVoteTable,
    check_options,
    pack_capacity,
    pack_columns,
    plurality,
    select_attributes,
)
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.provenance import (
    AttributeDependence,
    ParameterExplanation,
    VoteShare,
)
from repro.netmodel.attributes import ATTRIBUTE_SCHEMA
from repro.netmodel.identifiers import CarrierId
from repro.netmodel.network import Network
from repro.rng import derive
from repro.types import AttributeValue, ParameterValue

Row = Tuple[AttributeValue, ...]


class Voters:
    """The carriers allowed to vote locally, resolved against the
    engine's snapshot once (:meth:`AuricEngine.voters`).

    ``slots`` holds each member's snapshot slot in the set's own
    iteration order — the electorate order, which fixes plurality
    tie-breaks and weighted sums.  A carrier outside the snapshot has no
    slot: it has no fitted samples to vote with.  Empty voters mean
    "vote globally".
    """

    __slots__ = ("carriers", "slots", "_key")

    def __init__(self, carriers: Set[CarrierId], slots: List[int]) -> None:
        self.carriers = carriers
        self.slots = slots
        self._key: Optional[frozenset] = None

    def __len__(self) -> int:
        return len(self.carriers)

    def key(self) -> Optional[frozenset]:
        """The voter set as a hashable key (None when empty), built on
        first use: the neighborhood scope of a vote-cache key."""
        if self._key is None and self.carriers:
            self._key = frozenset(self.carriers)
        return self._key


def _attribute_dependence(
    name: str, column: int, result
) -> AttributeDependence:
    """Provenance record for one chi-square-selected attribute.

    ``result.p_value`` is the selection threshold; the achieved p-value
    is recovered from the statistic and degrees of freedom.
    """
    achieved = (
        float(_scipy_stats.chi2.sf(result.statistic, result.dof))
        if result.dof > 0
        else 1.0
    )
    return AttributeDependence(
        name=name,
        column=column,
        statistic=float(result.statistic),
        dof=int(result.dof),
        p_value=achieved,
        significance=float(result.p_value),
        cramers_v=float(result.cramers_v),
    )


@dataclass(frozen=True)
class AuricConfig:
    """Engine settings (defaults follow section 4.2 of the paper)."""

    support_threshold: float = 0.75
    p_value: float = 0.01
    min_effect_size: float = 0.12
    #: Attribute-selection strategy: "conditional" (default) or
    #: "marginal" (the paper's verbatim marginal chi-square selection,
    #: kept for the ablation).
    selection: str = "conditional"
    hops: int = 1
    #: Minimum number of local voters for a local vote to stand; below
    #: this the engine falls back to the global vote.
    min_local_votes: int = 3
    #: Cap on samples used for chi-square attribute selection (the vote
    #: index always uses every sample).  None = no cap.
    max_fit_samples: Optional[int] = 30000
    seed: int = 7
    #: Where a saved artifact's snapshot lives: "memory" (default; the
    #: artifact carries none, and a load builds its models over the
    #: live snapshot, encoded at load) or "mmap" (a binary store file
    #: next to the artifact, opened zero-copy at load to build the
    #: models over).  See :mod:`repro.store`.
    store: str = "memory"

    def __post_init__(self) -> None:
        check_options(
            self.support_threshold,
            self.p_value,
            self.min_effect_size,
            self.selection,
        )
        if self.min_local_votes < 1:
            raise ValueError(
                f"min_local_votes must be >= 1, got {self.min_local_votes!r}"
            )
        if self.store not in ("memory", "mmap"):
            raise ValueError(
                f"store must be 'memory' or 'mmap', got {self.store!r}"
            )


#: ``(position, cell, label, weight)`` of no leave-one-out sample.
_NO_EXCLUSION = (None, None, NO_EXCLUDE, 1.0)


@dataclass
class _ParameterModel:
    """Fitted state for one parameter: its chi-square selection, the
    sparse vote weights and the encoded votes over the snapshot it was
    built from (:meth:`AuricEngine._build_columnar_model`).

    Nothing edits a model after its fit: new configured values reach
    the votes through a refit, which builds new models
    (:func:`repro.serve.refresh.refit_engine`).
    """

    spec: ParameterSpec
    dependent_columns: Tuple[int, ...]
    dependent_names: Tuple[str, ...]
    encoded: EncodedVotes = field(repr=False, compare=False)
    # sparse vote weights (targets not listed weigh 1.0)
    weights: Dict[Hashable, float] = field(default_factory=dict)
    #: Chi-square provenance of the dependent attributes, strongest
    #: dependency first (empty on models loaded from pre-provenance
    #: artifacts).
    dependent_stats: Tuple[AttributeDependence, ...] = ()
    # lazily-built plurality tables per relaxation level; level k
    # matches on the first k dependent attributes (strongest first),
    # so the last level is the exact cell and level 0 the global
    # value distribution
    _tables: Dict[int, CellVoteTable] = field(
        default_factory=dict, repr=False, compare=False
    )
    # lazily-built vectorized neighborhood index (local votes)
    _local_index: Optional[LocalVoteIndex] = field(
        default=None, repr=False, compare=False
    )

    def cell_key(self, row: Row) -> Tuple[AttributeValue, ...]:
        return tuple(row[c] for c in self.dependent_columns)


class AuricEngine:
    """Learns dependency models and recommends configuration values."""

    def __init__(
        self,
        network: Network,
        store: ConfigurationStore,
        config: Optional[AuricConfig] = None,
    ) -> None:
        self.network = network
        self.store = store
        self.config = config or AuricConfig()
        self.catalog: ParameterCatalog = store.catalog
        self._models: Dict[str, _ParameterModel] = {}
        self._row_cache: Dict[CarrierId, Row] = {}
        self._columnar: Optional[ColumnarSnapshot] = None
        #: Lifecycle-journal stream id for this engine's fit lineage —
        #: minted on the first journaled :meth:`fit` so refits of the
        #: same engine chain into one timeline stream.
        self.lineage: Optional[str] = None
        #: Accumulated fit-phase wall clock, keyed ``(phase,
        #: parameter)`` with phases ``encode`` / ``select`` / ``vote``.
        #: Reset by :meth:`fit`; pool workers drain it per task via
        #: :meth:`_take_fit_phases` so the master can aggregate.
        self._fit_phases: Dict[Tuple[str, str], float] = {}

    # -- data access --------------------------------------------------------

    def carrier_row(self, carrier_id: CarrierId) -> Row:
        row = self._row_cache.get(carrier_id)
        if row is None:
            row = self.network.carrier(carrier_id).attributes.as_tuple()
            self._row_cache[carrier_id] = row
        return row

    def pair_row(self, pair: PairKey) -> Row:
        return self.carrier_row(pair.carrier) + self.carrier_row(pair.neighbor)

    def carrier_slots(self) -> Dict[CarrierId, int]:
        """Carrier id -> snapshot slot: the carrier's row in the
        columnar snapshot (encoded on first use)."""
        return self.ensure_columnar().carrier_slots()

    def voters(self, carriers: Set[CarrierId]) -> Voters:
        """Resolve a neighborhood to snapshot slots, in its iteration
        order (one identifier lookup per member, shared by every
        parameter's vote)."""
        slots = self.carrier_slots()
        return Voters(
            carriers,
            [slot for slot in map(slots.get, carriers) if slot is not None],
        )

    def attribute_names(self, spec: ParameterSpec) -> Tuple[str, ...]:
        if spec.is_pairwise:
            own = tuple(f"own.{n}" for n in ATTRIBUTE_SCHEMA.names)
            nbr = tuple(f"nbr.{n}" for n in ATTRIBUTE_SCHEMA.names)
            return own + nbr
        return ATTRIBUTE_SCHEMA.names

    # -- fitting --------------------------------------------------------------

    def _phase(self, phase: str, parameter: str, seconds: float) -> None:
        key = (phase, parameter)
        self._fit_phases[key] = self._fit_phases.get(key, 0.0) + seconds

    def _take_fit_phases(self) -> Dict[Tuple[str, str], float]:
        """Drain the accumulated phase timings (pool workers call this
        after each task so timings ride back on the task result — the
        worker's metrics registry is disabled, so observing there would
        be lost)."""
        phases = self._fit_phases
        self._fit_phases = {}
        return phases

    def _observe_fit_phases(self) -> None:
        """Feed the accumulated breakdown into
        ``repro_fit_phase_seconds{phase,parameter}`` (master side)."""
        if not self._fit_phases:
            return
        histogram = obs_metrics.histogram(
            "repro_fit_phase_seconds",
            "Fit wall-clock by phase (encode / select / vote) and parameter",
            labelnames=("phase", "parameter"),
        )
        for (phase, parameter), seconds in self._fit_phases.items():
            histogram.labels(phase=phase, parameter=parameter).observe(seconds)

    def fit(
        self,
        parameters: Optional[Sequence[str]] = None,
        vote_weights: Optional[Dict[Hashable, float]] = None,
        jobs: int = 1,
    ) -> "AuricEngine":
        """Learn dependency models for the given (or all range) parameters.

        ``vote_weights`` optionally maps target keys (carrier ids / pair
        keys) to vote weights — the section 6 performance-feedback
        extension: carriers whose configuration historically improved
        service performance can carry more support than carriers whose
        KPIs degraded after tuning.  Unlisted targets weigh 1.

        ``jobs`` fans per-parameter fitting out across a process pool
        (:mod:`repro.parallel`); every parameter's attribute selection
        draws from its own derived RNG stream, so the fitted models are
        identical to the serial path regardless of worker count.
        ``jobs=1`` (the default) stays in-process.
        """
        if parameters is None:
            specs = self.catalog.range_parameters()
        else:
            specs = [self.catalog.spec(name) for name in parameters]
        fit_started = time.perf_counter()
        self._fit_phases = {}
        with tracing.span(
            "engine.fit", parameters=len(specs), jobs=jobs
        ):
            # One encoding pass shared by every parameter fit (and
            # handed to pool workers with the payload).
            self.ensure_columnar(specs)
            if jobs != 1 and len(specs) > 1:
                from repro.parallel.fit import select_parameters

                # Workers run the chi-square selections; the vote phase
                # builds every model here, as a serial fit does.
                selected = select_parameters(
                    self.network,
                    self.store,
                    self.config,
                    [spec.name for spec in specs],
                    jobs=jobs,
                    columnar=self._columnar,
                    phase_sink=self._fit_phases,
                )
                for spec in specs:
                    self._models[spec.name] = self._build_columnar_model(
                        spec, *selected[spec.name], vote_weights
                    )
            else:
                for spec in specs:
                    self._models[spec.name] = self._fit_parameter(
                        spec, vote_weights
                    )
            self._observe_fit_phases()
            self._journal_fit(len(specs), jobs, time.perf_counter() - fit_started)
            return self

    def _journal_fit(self, parameters: int, jobs: int, duration_s: float) -> None:
        """Record this fit in the lifecycle journal (no-op when the
        journal is disabled — the snapshot fingerprint is only computed
        when someone will read it)."""
        if not obs_journal.active():
            return
        if self.lineage is None:
            self.lineage = obs_journal.mint_stream("engine")
        phase_totals: Dict[str, float] = {}
        for (phase, _parameter), seconds in self._fit_phases.items():
            phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
        # The digest an artifact saved from this engine binds, so the
        # fit, its save and every load of it share one value.
        snapshot = self._columnar.fingerprint(self.network, self._models)
        obs_journal.record(
            "fit",
            scope="engine",
            stream=self.lineage,
            generation=0,
            duration_s=duration_s,
            fingerprints={"snapshot": snapshot},
            parameters=parameters,
            jobs=jobs,
            phases={k: round(v, 6) for k, v in sorted(phase_totals.items())},
        )

    def ensure_columnar(
        self, specs: Sequence[ParameterSpec] = ()
    ) -> ColumnarSnapshot:
        """The engine's columnar snapshot, encoded on first use and
        extended in place with any not-yet-encoded parameters."""
        if self._columnar is None:
            started = time.perf_counter()
            self._columnar = ColumnarSnapshot.encode(
                self.network, self.store, specs
            )
            self._phase("encode", "snapshot", time.perf_counter() - started)
        else:
            for spec in specs:
                if spec.name in self._columnar.parameters:
                    continue
                started = time.perf_counter()
                self._columnar.add_parameter(self.store, spec)
                self._phase("encode", spec.name, time.perf_counter() - started)
        return self._columnar

    def attach_columnar(self, snapshot: ColumnarSnapshot) -> None:
        """Adopt an already-encoded snapshot (artifact load / pool
        worker) so fitting skips the encoding pass.  The snapshot must
        describe this engine's network and store."""
        self._columnar = snapshot

    def columnar_snapshot(self) -> Optional[ColumnarSnapshot]:
        """The engine's encoded snapshot, or ``None`` before the first
        fit (the persistence layer saves it when present)."""
        return self._columnar

    def invalidate_columnar(self, parameter: str) -> None:
        """Drop one parameter's encoded label columns so the next use
        re-encodes them from the (mutated) store — what a changelog
        refit does for each parameter it touches."""
        if self._columnar is not None:
            self._columnar.parameters.pop(parameter, None)

    def fitted_parameters(self) -> List[str]:
        return sorted(self._models)

    def fitted_models(self) -> Dict[str, _ParameterModel]:
        """The fitted per-parameter models (live references, not copies).

        The persistence layer (``repro.serve.artifacts``) serializes
        these; everything else should go through the recommend calls.
        """
        return dict(self._models)

    def warm_votes(self, parameters: Optional[Sequence[str]] = None) -> int:
        """Pre-build the lazy per-parameter vote structures.

        The plurality tables and local vote index are normally built on
        first use; a serving tier that shares one engine across shard
        worker threads warms them up front so the lazy builds happen
        once, before concurrent traffic arrives (the builds are
        deterministic and idempotent, so a race is only wasted work —
        warming removes even that).  Returns the number of models
        warmed.
        """
        names = parameters if parameters is not None else self.fitted_parameters()
        warmed = 0
        for name in names:
            model = self._models.get(name)
            if model is None:
                continue
            levels = len(model.dependent_columns)
            self._table(model, levels)
            self._table(model, max(levels - 1, 0))
            self._local_vote_index(model)
            warmed += 1
        return warmed

    def install_model(self, name: str, model: _ParameterModel) -> None:
        """Install a fitted model directly (artifact load / refresher swap)."""
        if model.spec.name != name:
            raise ValueError(
                f"model is for {model.spec.name!r}, cannot install as {name!r}"
            )
        self._models[name] = model

    def _fit_parameter(
        self,
        spec: ParameterSpec,
        vote_weights: Optional[Dict[Hashable, float]] = None,
    ) -> _ParameterModel:
        """Fit one parameter from the encoded snapshot: chi-square
        attribute selection (:meth:`_select_columnar`), then the vote
        structures (:meth:`_build_columnar_model`) — split so the
        incremental-refit path can reuse a previous selection when the
        changelog provably cannot have altered it."""
        with tracing.span("engine.fit_parameter", parameter=spec.name) as sp:
            dependent, dependent_stats = self._select_columnar(spec)
            model = self._build_columnar_model(
                spec, dependent, dependent_stats, vote_weights
            )
            sp.set("samples", len(model.encoded))
            sp.set("dependent", list(model.dependent_names))
            return model

    def _fit_sample_positions(
        self, name: str, n_samples: int
    ) -> Optional[np.ndarray]:
        """Deterministic (sorted) positions of the chi-square fit
        subsample, or ``None`` when the cap is off or the population
        fits under it.  Depends only on config seed + parameter name +
        population size, so the incremental-refit path can reproduce
        exactly which samples selection saw."""
        cap = self.config.max_fit_samples
        if cap is None or n_samples <= cap:
            return None
        rng = derive(self.config.seed, f"fit-sample:{name}")
        picked = rng.choice(n_samples, size=cap, replace=False)
        picked.sort()
        return picked

    def _select_columnar(
        self, spec: ParameterSpec
    ) -> Tuple[Tuple[int, ...], Tuple[AttributeDependence, ...]]:
        """Chi-square attribute selection over the encoded snapshot."""
        columnar = self.ensure_columnar([spec])
        select_started = time.perf_counter()
        columns = columnar.parameter(spec.name)
        n_samples = len(columns)
        if n_samples == 0:
            raise RecommendationError(
                f"no configured values for parameter {spec.name}; cannot fit"
            )
        row_codes = columnar.row_codes(spec.name)
        label_codes = columns.label_codes
        sizes = columnar.column_sizes(spec.name)

        fit_codes, fit_label_codes = row_codes, label_codes
        picked = self._fit_sample_positions(spec.name, n_samples)
        if picked is not None:
            fit_codes = row_codes[picked]
            fit_label_codes = label_codes[picked]

        config = self.config
        dependent, results = select_attributes(
            fit_codes,
            fit_label_codes,
            sizes,
            config.p_value,
            config.min_effect_size,
            config.selection,
        )
        names = self.attribute_names(spec)
        dependent_stats = tuple(
            _attribute_dependence(names[col], col, results[col])
            for col in dependent
        )
        self._phase("select", spec.name, time.perf_counter() - select_started)
        return dependent, dependent_stats

    def _build_columnar_model(
        self,
        spec: ParameterSpec,
        dependent: Tuple[int, ...],
        dependent_stats: Tuple[AttributeDependence, ...],
        vote_weights: Optional[Dict[Hashable, float]] = None,
    ) -> _ParameterModel:
        """The vote phase: a model from a selection over the encoded
        snapshot.  Every model comes from here — a fit, a pool fit, a
        changelog refit and an artifact load alike — so a model built
        from the same snapshot, selection and weights is the same model
        whichever path built it."""
        columnar = self.ensure_columnar([spec])
        vote_started = time.perf_counter()
        columns = columnar.parameter(spec.name)
        if len(columns) == 0:
            raise RecommendationError(
                f"no configured values for parameter {spec.name}; cannot fit"
            )
        sizes = columnar.column_sizes(spec.name)
        weights: Dict[Hashable, float] = {}
        weight_list = []
        if vote_weights is not None:
            for key in columns.keys(columnar.carrier_ids):
                weight = float(vote_weights.get(key, 1.0))
                if weight < 0.0:
                    raise ValueError(f"vote weight for {key} must be >= 0")
                if weight != 1.0:
                    weights[key] = weight
                weight_list.append(weight)

        # The cell x label keys of the vote tables must pack into int64.
        pack_capacity(
            sizes + [len(columns.label_vocab)], tuple(dependent) + (len(sizes),)
        )
        names = self.attribute_names(spec)
        model = _ParameterModel(
            spec=spec,
            dependent_columns=dependent,
            dependent_names=tuple(names[c] for c in dependent),
            encoded=EncodedVotes(
                columns=columns,
                cell_codes=pack_columns(
                    columnar.row_codes(spec.name), dependent, sizes
                ),
                prefix_sizes=[int(sizes[col]) for col in dependent],
                dep_vocabs=[
                    columnar.column_vocab(spec.name, col) for col in dependent
                ],
                carrier_ids=columnar.carrier_ids,
                carrier_slots=columnar.carrier_slots(),
                weights=(
                    np.asarray(weight_list, dtype=np.float64) if weights else None
                ),
            ),
            weights=weights,
            dependent_stats=dependent_stats,
        )
        self._phase("vote", spec.name, time.perf_counter() - vote_started)
        return model

    def _model(self, parameter: str) -> _ParameterModel:
        try:
            return self._models[parameter]
        except KeyError:
            raise UnknownParameterError(
                f"{parameter} has not been fitted (call fit first)"
            ) from None

    # -- voting ---------------------------------------------------------------

    def _table(self, model: _ParameterModel, level: int) -> CellVoteTable:
        """The vote table over the first ``level`` dependent attributes
        (built on first use): the exact cell at the last level, the
        global value distribution at level 0."""
        table = model._tables.get(level)
        if table is None:
            table = model._tables[level] = model.encoded.table(level)
        return table

    def _cell_vote_table(self, model: _ParameterModel) -> CellVoteTable:
        """The model's exact-cell vote table (built on first use)."""
        return self._table(model, len(model.dependent_columns))

    @staticmethod
    def _exclusion(model: _ParameterModel, exclude: Optional[Hashable]) -> Tuple:
        """``(position, cell, label, weight)`` of the leave-one-out
        sample — resolved once, for the global and the local vote — or
        ``_NO_EXCLUSION`` when ``exclude`` is not a sample."""
        if exclude is None:
            return _NO_EXCLUSION
        return model.encoded.sample(exclude) or _NO_EXCLUSION

    def _outcome(
        self,
        model: _ParameterModel,
        scope: str,
        value: ParameterValue,
        top: float,
        total: float,
        votes: Tuple[Tuple[ParameterValue, float], ...] = (),
    ) -> ParameterRecommendation:
        # Plain floats: table counts arrive as numpy scalars.
        support = float(top / total) if total else 0.0
        return ParameterRecommendation(
            parameter=model.spec.name,
            value=value,
            support=support,
            matched=float(total),
            confident=support >= self.config.support_threshold,
            scope=scope,
            dependent_attributes=model.dependent_names,
            votes=votes,
        )

    def _table_vote(
        self,
        model: _ParameterModel,
        table: CellVoteTable,
        cell: Tuple[AttributeValue, ...],
        exclusion: Tuple,
        scope: str,
        capture: bool,
        drop_zero: bool = False,
    ) -> Optional[ParameterRecommendation]:
        """One plurality vote over ``table``'s ``cell`` without the
        leave-one-out sample when it falls in that cell; ``None`` for an
        unknown cell or one the exclusion empties.  ``capture`` records
        the full distribution on the outcome."""
        _, ex_cell, label, weight = exclusion
        if ex_cell is None or ex_cell[: len(cell)] != cell:
            label = NO_EXCLUDE
        outcome = table.vote(cell, label, weight, drop_zero)
        if outcome is None:
            return None
        votes = ()
        if capture:
            votes = tuple(table.distribution(cell, label, weight, drop_zero))
        return self._outcome(model, scope, *outcome, votes)

    def _global_vote(
        self,
        model: _ParameterModel,
        cell: Tuple[AttributeValue, ...],
        exclusion: Tuple,
        capture: bool = False,
    ) -> ParameterRecommendation:
        """The exact-cell vote, relaxed one dependency at a time and
        finally to the global distribution (where the excluded label
        also drops out at a zero count).  ``capture`` records the full
        vote distribution on the outcome."""
        outcome = self._table_vote(
            model, self._cell_vote_table(model), cell, exclusion, "global", capture
        )
        level = len(cell) - 1
        while outcome is None and level > 0:
            outcome = self._table_vote(
                model, self._table(model, level), cell[:level],
                exclusion, "global-relaxed", capture,
            )
            level -= 1
        if outcome is None:
            outcome = self._table_vote(
                model, self._table(model, 0), (), exclusion,
                "global-fallback", capture, drop_zero=True,
            )
        if outcome is None:
            raise RecommendationError(f"no votes available for {model.spec.name}")
        return outcome

    def exact_cell_vote(
        self, parameter: str, row: Row, exclude: Optional[Hashable] = None
    ) -> Optional[ParameterRecommendation]:
        """The exact-cell global vote with its distribution captured
        and no relaxation; ``None`` for an unknown or emptied cell."""
        model = self._model(parameter)
        return self._table_vote(
            model, self._cell_vote_table(model), model.cell_key(row),
            self._exclusion(model, exclude), "global", capture=True,
        )

    def recommend_global(
        self,
        parameter: str,
        row: Row,
        exclude: Optional[Hashable] = None,
        capture: bool = False,
    ) -> ParameterRecommendation:
        """Network-wide vote for one target row.

        If no existing carrier matches the full dependent-attribute
        combination (after leave-one-out exclusion), the match is
        progressively relaxed by dropping the weakest dependency first —
        the same fallback the CF learner applies — ending at the global
        value distribution.  ``capture`` records the full vote
        distribution on the result (explain requests); plain serving
        leaves it off.
        """
        model = self._model(parameter)
        return self._global_vote(
            model, model.cell_key(row), self._exclusion(model, exclude), capture
        )

    def recommend_local(
        self,
        parameter: str,
        row: Row,
        voters: Voters,
        exclude: Optional[Hashable] = None,
        capture: bool = False,
    ) -> ParameterRecommendation:
        """1-hop-neighborhood vote, falling back to the global vote.

        ``voters`` are the *carriers* allowed to vote, resolved with
        :meth:`voters`; for pair-wise parameters the votes come from
        pairs sourced at those carriers.  ``capture`` records the full
        vote distribution on the result, as in :meth:`recommend_global`.

        Two local signals are tried before deferring to the global vote:

        1. an exact match on the dependent attributes among the
           neighborhood's carriers (enough voters → their plurality), and
        2. *cluster-tuning detection*: engineers tune a geographic
           cluster to one value regardless of attribute combination.  A
           neighborhood whose carriers agree on one value (support above
           the confidence threshold) across two or more *different*
           dependent-attribute cells, where that value moreover deviates
           from the voters' own cells' network-wide majorities, is a
           tuned cluster — its value applies to the new carrier even
           without an exact attribute match.  The deviation requirement
           is what separates deliberate local tuning from areas that are
           merely uniform because the network-wide default dominates.
        """
        model = self._model(parameter)
        cell = model.cell_key(row)
        exclusion = self._exclusion(model, exclude)
        outcome = self._local_vote(model, cell, voters.slots, exclusion[0], capture)
        if outcome is not None:
            return outcome
        return self._global_vote(model, cell, exclusion, capture)

    def _local_vote(
        self,
        model: _ParameterModel,
        cell: Tuple[AttributeValue, ...],
        slots: List[int],
        excluded: Optional[int],
        capture: bool = False,
    ) -> Optional[ParameterRecommendation]:
        """The two local signals of :meth:`recommend_local`; ``None``
        when neither stands and the global vote must decide.
        ``excluded`` is the leave-one-out sample's position.

        The electorate is visited in neighborhood (``slots``) iteration
        x per-carrier insertion order, which fixes the plurality
        tie-breaks; vote weights sum in that order.
        """
        index = self._local_vote_index(model)
        pos = index.electorate(slots, excluded)
        if pos is None:
            return None
        labels = index.label_codes[pos]
        weights = None if index.weights is None else index.weights[pos]
        threshold = self.config.support_threshold
        target_slot = index.cell_slot.get(cell)
        if target_slot is not None:
            exact = index.cell_codes[pos] == target_slot
            vote = self._tally(
                labels[exact], None if weights is None else weights[exact]
            )
            # A handful of local voters is a weaker sample than the
            # network-wide cell; only a confident local consensus is
            # allowed to override the global vote.
            if vote is not None and vote[1] / vote[2] >= threshold:
                return self._local_result(model, index, vote, "local", capture)
        vote = self._tally(labels, weights)
        if (
            vote is not None
            and vote[1] / vote[2] >= threshold
            and self._is_cluster_tuned(
                model, index, pos[labels == vote[0]], index.labels[vote[0]]
            )
        ):
            return self._local_result(
                model, index, vote, "local-cluster", capture
            )
        return None

    def _tally(
        self, labels: np.ndarray, weights: Optional[np.ndarray]
    ) -> Optional[Tuple[int, float, float, Dict[int, float]]]:
        """``(winning label code, top, total, votes)`` of one local
        electorate, or ``None`` when it carries less than
        ``min_local_votes``."""
        votes = tally(labels.tolist(), None if weights is None else weights.tolist())
        total = sum(votes.values())
        if total < self.config.min_local_votes:
            return None
        code, top = plurality(votes)
        return code, top, total, votes

    def _local_result(
        self,
        model: _ParameterModel,
        index: LocalVoteIndex,
        vote: Tuple[int, float, float, Dict[int, float]],
        scope: str,
        capture: bool,
    ) -> ParameterRecommendation:
        code, top, total, votes = vote
        captured = ()
        if capture:
            captured = tuple(
                (index.labels[c], float(n))
                for c, n in sorted(votes.items(), key=itemgetter(1), reverse=True)
            )
        return self._outcome(
            model, scope, index.labels[code], top, total, captured
        )

    def _local_vote_index(self, model: _ParameterModel) -> LocalVoteIndex:
        index = model._local_index
        if index is None:
            index = model._local_index = LocalVoteIndex(model.encoded)
        return index

    def _is_cluster_tuned(
        self,
        model: _ParameterModel,
        index: LocalVoteIndex,
        voter_pos: np.ndarray,
        value: ParameterValue,
    ) -> bool:
        """Whether neighborhood agreement on ``value`` looks deliberate.

        Requires the agreeing voters to span at least two distinct
        dependent-attribute cells, and a majority of them to deviate
        from their own cell's network-wide majority once their own vote
        is removed — uniform areas where everyone simply has the global
        default fail this.
        """
        codes = index.cell_codes[voter_pos].tolist()
        if len(set(codes)) < 2:
            return False
        weights = (
            repeat(1.0) if index.weights is None
            else index.weights[voter_pos].tolist()
        )
        table = self._cell_vote_table(model)
        anomalous = 0
        evidence = 0
        for code, weight in zip(codes, weights):
            outcome = table.vote(index.cells[code], value, weight, drop_zero=True)
            if outcome is None:
                # A singleton cell says nothing about the network norm;
                # it is neither evidence for nor against tuning.
                continue
            evidence += 1
            if outcome[0] != value:
                anomalous += 1
        if evidence < 2:
            return False
        return anomalous >= 0.5 * evidence

    # -- carrier-level API ------------------------------------------------------

    def neighborhood_of(self, carrier_id: CarrierId) -> Set[CarrierId]:
        return self.network.x2.carrier_neighborhood(
            carrier_id, hops=self.config.hops
        )

    def recommend_for_carrier(
        self,
        parameter: str,
        carrier_id: CarrierId,
        local: bool = True,
        leave_one_out: bool = True,
    ) -> ParameterRecommendation:
        """Recommend a singular parameter for an existing carrier.

        With ``leave_one_out`` the carrier's own configured value does
        not vote — the paper's evaluation methodology.
        """
        model = self._model(parameter)
        if model.spec.is_pairwise:
            raise RecommendationError(
                f"{parameter} is pair-wise; use recommend_for_pair"
            )
        row = self.carrier_row(carrier_id)
        exclude = carrier_id if leave_one_out else None
        if local:
            return self.recommend_local(
                parameter, row, self.voters(self.neighborhood_of(carrier_id)),
                exclude,
            )
        return self.recommend_global(parameter, row, exclude)

    def recommend_for_pair(
        self,
        parameter: str,
        pair: PairKey,
        local: bool = True,
        leave_one_out: bool = True,
    ) -> ParameterRecommendation:
        """Recommend a pair-wise parameter for a (carrier, neighbor) pair."""
        model = self._model(parameter)
        if not model.spec.is_pairwise:
            raise RecommendationError(
                f"{parameter} is singular; use recommend_for_carrier"
            )
        row = self.pair_row(pair)
        exclude = pair if leave_one_out else None
        if local:
            # The source carrier's other pairs are legitimate voters too.
            neighborhood = self.neighborhood_of(pair.carrier)
            neighborhood.add(pair.carrier)
            return self.recommend_local(
                parameter, row, self.voters(neighborhood), exclude
            )
        return self.recommend_global(parameter, row, exclude)

    def recommend_for_targets(
        self,
        parameter: str,
        keys: Sequence[Hashable],
        local: bool = True,
        leave_one_out: bool = True,
    ) -> List[ParameterRecommendation]:
        """Recommend one parameter for many existing targets at once.

        ``keys`` are carrier ids (singular parameters) or pair keys
        (pair-wise); the model and spec checks are hoisted out of the
        loop.  This is the bulk path the LOO evaluation sweeps — serial
        and parallel alike — drive, so both scopes of an evaluation
        fold make exactly the same per-target calls.

        Targets that are fitted samples skip the row re-materialization
        (their dependent-attribute cell decodes from the model's
        arrays); other keys take the per-target call.
        """
        model = self._model(parameter)
        encoded = model.encoded
        pairwise = model.spec.is_pairwise
        single = self.recommend_for_pair if pairwise else self.recommend_for_carrier
        out: List[ParameterRecommendation] = []
        for key in keys:
            sample = encoded.sample(key)
            if sample is None:
                out.append(single(parameter, key, local, leave_one_out))
                continue
            cell = sample[1]
            exclusion = sample if leave_one_out else _NO_EXCLUSION
            outcome = None
            if local:
                source = key.carrier if pairwise else key
                neighborhood = self.neighborhood_of(source)
                if pairwise:
                    # The source carrier's other pairs are legitimate
                    # voters too.
                    neighborhood.add(source)
                outcome = self._local_vote(
                    model, cell, self.voters(neighborhood).slots, exclusion[0]
                )
            if outcome is None:
                outcome = self._global_vote(model, cell, exclusion)
            out.append(outcome)
        return out

    # -- unified request API -----------------------------------------------------

    def request_neighborhood(self, request) -> Set[CarrierId]:
        """Local voters for a new-carrier-shaped request: its explicit
        ANR neighbors plus, when the launch eNodeB is known, the
        co-sited carriers and their X2 neighborhoods."""
        voters: Set[CarrierId] = set(request.neighbor_carriers)
        if request.enodeb_id is not None:
            enodeb = self.network.enodeb(request.enodeb_id)
            for carrier in enodeb.carriers():
                voters.add(carrier.carrier_id)
                voters |= self.neighborhood_of(carrier.carrier_id)
        return voters

    def resolve_request(
        self, request: RecommendRequest
    ) -> Tuple["CarrierAttributes", Row, Voters, Optional[Hashable]]:
        """Resolve a unified request against the snapshot, once for all
        its parameters.

        Returns ``(attributes, row, voters, exclude)``: existing
        carriers get their stored attributes, X2 neighborhood and (under
        leave-one-out) their own key as the excluded voter; new carriers
        get the declared attributes and the launch neighborhood.  The
        neighborhood comes resolved to snapshot slots, and an existing
        carrier to the network's own id object, so the per-parameter
        lookups of the excluded key can match it by identity instead of
        by field-wise equality.  A non-local request resolves to empty
        voters, which every layer treats as "vote globally".
        """
        if request.carrier_id is not None:
            carrier = self.network.carrier(request.carrier_id)
            carrier_id = carrier.carrier_id
            row = self.carrier_row(carrier_id)
            neighborhood = (
                self.neighborhood_of(carrier_id) if request.local else set()
            )
            exclude = carrier_id if request.leave_one_out else None
            return carrier.attributes, row, self.voters(neighborhood), exclude
        attributes = request.attributes
        row = attributes.as_tuple()
        neighborhood = (
            self.request_neighborhood(request) if request.local else set()
        )
        return attributes, row, self.voters(neighborhood), None

    def handle(self, request: RecommendRequest) -> RecommendResult:
        """Serve one unified request straight from the engine.

        The request loop of :mod:`repro.core.pipeline` without a
        rule-book: ``parameters`` defaults to every fitted singular
        parameter, ``include_enumerations`` has no effect, and naming an
        unfitted parameter raises :class:`RecommendationError`.
        """
        # Imported here: repro.core.pipeline imports this module.
        from repro.core.pipeline import EngineLoop

        return EngineLoop(self).handle(request)

    # -- introspection ----------------------------------------------------------

    def explain_parameter(
        self,
        recommendation: ParameterRecommendation,
        row: Row,
        neighborhood: Optional[Set[CarrierId]] = None,
        cache: Optional[str] = None,
        fallback_reason: Optional[str] = None,
    ) -> ParameterExplanation:
        """Build the provenance record behind one recommendation.

        Pairs the fitted model's chi-square dependency statistics with
        the target row's values on those attributes and the vote
        distribution captured on the recommendation (when the request
        asked for it).  The serving layer adds its own cache/fallback
        disposition via ``cache`` / ``fallback_reason``.
        """
        model = self._models.get(recommendation.parameter)
        dependencies: Tuple[AttributeDependence, ...] = ()
        attribute_values: Tuple[Tuple[str, AttributeValue], ...] = ()
        if model is not None:
            dependencies = model.dependent_stats
            attribute_values = tuple(
                zip(model.dependent_names, model.cell_key(row))
            )
        total = sum(weight for _, weight in recommendation.votes)
        votes = tuple(
            VoteShare(
                value=value,
                weight=weight,
                share=weight / total if total else 0.0,
            )
            for value, weight in recommendation.votes
        )
        return ParameterExplanation(
            parameter=recommendation.parameter,
            value=recommendation.value,
            support=recommendation.support,
            matched=recommendation.matched,
            confident=recommendation.confident,
            scope=recommendation.scope,
            dependencies=dependencies,
            attribute_values=attribute_values,
            votes=votes,
            neighborhood_size=(
                len(neighborhood) if neighborhood is not None else None
            ),
            cache=cache,
            fallback_reason=fallback_reason,
        )

    def dependent_attribute_names(self, parameter: str) -> Tuple[str, ...]:
        return self._model(parameter).dependent_names

    def cell_count(self, parameter: str) -> int:
        return len(self._cell_vote_table(self._model(parameter)))
