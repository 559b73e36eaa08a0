//! The live [`LocaterService`], and the one query engine (`Engines`) that it,
//! the [`ShardedLocaterService`] and the frozen [`Locater`](super::Locater)
//! facade all run: the per-query coarse → fine body (`Engines::run_query`)
//! that single locates, degraded coarse-only locates and batch workers share,
//! the live cache merge, the batch pipeline's seeding and merge-back, and the
//! placement of cached state.
//!
//! ## Lifecycle
//!
//! 1. **build** — construct the service over an initial (possibly empty) store;
//! 2. **serve** — answer [`LocateRequest`]s concurrently from many threads;
//! 3. **ingest** — append live events through [`LocaterService::ingest`] /
//!    [`LocaterService::ingest_batch`]; each appended event bumps its device's
//!    epoch;
//! 4. **invalidate** — nothing to do: the epoch bump makes exactly the cached
//!    state derived from the touched device stale (see [`super::epoch`]), and
//!    the next query over that device recomputes it.
//!
//! Concurrency: the store sits behind a `parking_lot::RwLock`. Queries hold a
//! read lock for their whole duration — coarse-model training and the
//! neighbor scan included — so many run in parallel, but an ingest waits for
//! every in-flight query, training and all (taking training off the read
//! guard is the ROADMAP's "Take coarse-model training off the hot path"
//! item). An ingest takes the write lock only for the appends themselves —
//! one O(log n) append for [`LocaterService::ingest`], the whole batch for
//! [`LocaterService::ingest_batch`] (which is what makes its
//! keep-prefix-on-error semantics atomic; chunk very large backfills if
//! queries must not stall behind them). Training and the neighbor scan never
//! hold the model-map or affinity-cache locks.

use super::batch::{self, BatchItem};
use super::epoch::{EpochCache, EpochRead, EpochTable, ModelEntry};
use super::request::{LocateRequest, LocateResponse};
use super::shard::ShardedLocaterService;
use super::{assemble_answer, Answer, CacheMode, LocaterConfig, QueryDiagnostics};
use crate::cache::{edge_key, rank_by_weight};
use crate::coarse::{CoarseLabel, CoarseLocalizer, DeviceCoarseModel};
use crate::error::LocaterError;
use crate::fine::{FineConfig, FineLocalizer, FineOutcome, NeighborContribution};
use locater_events::clock::Timestamp;
use locater_events::{DeviceId, EventId};
use locater_space::RegionId;
use locater_store::{shard_of_device, EventRead, EventStore, IngestError, RawEvent};
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The query engine: the configuration, the two localizers, and the cached
/// state, partitioned by shard — one epoch-stamped affinity cache and one
/// coarse-model map per shard. This is the one place that knows where cached
/// state lives: edge `{a, b}` in the cache of `min(a, b)`'s home shard, a
/// device's model (and epoch counter) in its home shard.
#[derive(Debug)]
pub(crate) struct Engines {
    pub(crate) config: LocaterConfig,
    coarse: CoarseLocalizer,
    fine: FineLocalizer,
    caches: Vec<RwLock<EpochCache>>,
    models: Vec<RwLock<HashMap<DeviceId, ModelEntry>>>,
}

/// The per-request view of the engine configuration: the fine localizer to run
/// and whether the caching engine may be consulted. Computed once per request
/// from the service config plus the request overrides.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Effective {
    pub(crate) fine: FineLocalizer,
    pub(crate) cache: CacheMode,
}

/// Epoch view over per-shard tables: the table of a device's home shard is
/// authoritative for it.
pub(crate) struct ShardedEpochs<'a> {
    pub(crate) tables: Vec<&'a EpochTable>,
}

impl EpochRead for ShardedEpochs<'_> {
    fn epoch_of(&self, device: DeviceId) -> u64 {
        self.tables[shard_of_device(device, self.tables.len())].of(device)
    }
}

/// Resolves a (mac, device-id) target against a store.
pub(crate) fn resolve_target(
    store: &dyn EventRead,
    mac: Option<&str>,
    device: Option<DeviceId>,
) -> Result<DeviceId, LocaterError> {
    if let Some(device) = device {
        if device.index() < store.num_devices() {
            return Ok(device);
        }
        return Err(LocaterError::UnknownDevice(device.to_string()));
    }
    match mac {
        Some(mac) => store
            .device_id(mac)
            .ok_or_else(|| LocaterError::UnknownDevice(mac.to_string())),
        None => Err(LocaterError::MissingDevice),
    }
}

/// Where a query's fine step reads its cache plan from.
#[derive(Clone, Copy)]
pub(crate) enum PlanSource<'c> {
    /// Each edge's owner-shard cache, read-locked only while the plan is
    /// extracted (single locates).
    Owners,
    /// One frozen cache holding every edge: a batch's union of the shard
    /// caches.
    Frozen(&'c EpochCache),
}

impl Engines {
    /// Engines for `shards` shards (at least one).
    pub(crate) fn new(config: LocaterConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            config,
            coarse: CoarseLocalizer::new(config.coarse),
            fine: FineLocalizer::new(config.fine),
            caches: (0..shards).map(|_| RwLock::default()).collect(),
            models: (0..shards).map(|_| RwLock::default()).collect(),
        }
    }

    /// Number of shards the cached state is partitioned into.
    pub(crate) fn num_shards(&self) -> usize {
        self.caches.len()
    }

    /// The home shard of a device: its timeline, epoch counter and model.
    pub(crate) fn home(&self, device: DeviceId) -> usize {
        shard_of_device(device, self.num_shards())
    }

    /// The shard whose cache holds the edge `{a, b}`.
    fn owner(&self, a: DeviceId, b: DeviceId) -> usize {
        self.home(edge_key(a, b).0)
    }

    /// Read access to one shard's affinity cache.
    pub(crate) fn cache(&self, shard: usize) -> RwLockReadGuard<'_, EpochCache> {
        self.caches[shard].read()
    }

    /// The per-request engine view with no overrides applied.
    pub(crate) fn effective_base(&self) -> Effective {
        Effective {
            fine: self.fine,
            cache: self.config.cache,
        }
    }

    /// The per-request engine view for one request's overrides.
    pub(crate) fn effective_for(&self, request: &LocateRequest) -> Effective {
        let fine = match request.fine_mode {
            Some(mode) if mode != self.config.fine.mode => FineLocalizer::new(FineConfig {
                mode,
                ..self.config.fine
            }),
            _ => self.fine,
        };
        Effective {
            fine,
            cache: request.cache.unwrap_or(self.config.cache),
        }
    }

    /// Answers one query against the live state through
    /// [`Engines::run_query`]: the model candidate is the device's home-shard
    /// model if still epoch-live, a model trained for the query goes back
    /// there stamped with the device's epoch, and the fine step's cache reads
    /// and writes route to each edge's owner shard. `eff = None` is the
    /// degraded coarse-only locate: a region-level answer, no cache touched.
    ///
    /// The home shard's model-map lock covers the lookup and the insert only,
    /// so warm queries never wait on a concurrent fit. Training does run under
    /// whatever store guard the caller holds (the services hold every shard's
    /// read guard; see the ROADMAP item "Take coarse-model training off the
    /// hot path").
    pub(crate) fn locate_detailed(
        &self,
        store: &dyn EventRead,
        epochs: &dyn EpochRead,
        device: DeviceId,
        t_q: Timestamp,
        eff: Option<&Effective>,
    ) -> (Answer, QueryDiagnostics) {
        let start = Instant::now();
        let epoch = epochs.epoch_of(device);
        let models = &self.models[self.home(device)];
        let candidate = || {
            let models = models.read();
            let entry = models.get(&device).filter(|entry| entry.epoch == epoch);
            entry.map(|entry| entry.model.clone())
        };
        let fine = eff.map(|eff| (eff, PlanSource::Owners));
        let (answer, mut diagnostics, trained) =
            self.run_query(store, epochs, device, t_q, candidate, fine);
        if let Some(model) = trained {
            models.write().insert(device, ModelEntry { model, epoch });
        }
        if let (Some(eff), Some(fine)) = (eff, &diagnostics.fine) {
            if eff.cache == CacheMode::Enabled && !fine.contributions.is_empty() {
                self.merge_contributions(device, &fine.contributions, t_q, epochs);
            }
        }
        // The reported time spans the whole locate, model insert and cache
        // merge included.
        diagnostics.elapsed = start.elapsed();
        (answer, diagnostics)
    }

    /// Answers a batch of resolved items through the deterministic batch
    /// pipeline (see [`super::batch`]): epoch-live model seeds come from each
    /// device's home shard, every query reads a frozen union of the shard
    /// caches, and afterwards contributions merge into each edge's owner
    /// shard in query order and trained models into their home shards.
    pub(crate) fn locate_batch(
        &self,
        store: &dyn EventRead,
        epochs: &dyn EpochRead,
        items: &[BatchItem],
        jobs: usize,
    ) -> Vec<Result<Answer, LocaterError>> {
        let mut seeds: HashMap<DeviceId, Arc<DeviceCoarseModel>> = HashMap::new();
        for item in items {
            let Ok(device) = item.device else { continue };
            if seeds.contains_key(&device) {
                continue;
            }
            if let Some(entry) = self.models[self.home(device)].read().get(&device) {
                if entry.epoch == epochs.epoch_of(device) {
                    seeds.insert(device, entry.model.clone());
                }
            }
        }

        // Edge sets are disjoint across shards, so the union is exactly the
        // cache a single-shard deployment would hold. A batch that never
        // consults the cache skips the copy and reads an empty one.
        let frozen = if batch::wants_cache(items) {
            let mut caches = self.caches.iter().map(|cache| cache.read().clone());
            let mut union = caches.next().expect("at least one shard");
            caches.for_each(|cache| union.absorb(cache));
            union
        } else {
            EpochCache::default()
        };

        let outcome = batch::run_batch(self, store, epochs, items, jobs, seeds, &frozen);
        for contribution in &outcome.contributions {
            self.merge_contributions(
                contribution.device,
                &contribution.neighbors,
                contribution.t,
                epochs,
            );
        }
        for (device, model) in outcome.trained {
            let epoch = epochs.epoch_of(device);
            self.models[self.home(device)]
                .write()
                .insert(device, ModelEntry { model, epoch });
        }
        outcome.answers
    }

    /// The one per-query body that every locate, degraded locate and batch
    /// worker runs. First the coarse step, classifying a gap with the
    /// caller's model `candidate` if it still covers `t_q`, else with a
    /// freshly trained one. Then, when `fine` is given and the device is
    /// inside, the fine step with its cache plan read from `fine`'s source.
    ///
    /// Returns the answer, the diagnostics and the model trained for this
    /// query, if any. Where cached state lives is the caller's business: it
    /// keeps the trained model and merges `diagnostics.fine`'s contributions.
    /// The diagnostics' `elapsed` is zero, for a caller that reports time to
    /// stamp over the whole call.
    pub(crate) fn run_query(
        &self,
        store: &dyn EventRead,
        epochs: &dyn EpochRead,
        device: DeviceId,
        t_q: Timestamp,
        candidate: impl FnOnce() -> Option<Arc<DeviceCoarseModel>>,
        fine: Option<(&Effective, PlanSource<'_>)>,
    ) -> (Answer, QueryDiagnostics, Option<Arc<DeviceCoarseModel>>) {
        let slack = self.config.model_refresh_slack;
        let covers = |model: &Arc<DeviceCoarseModel>| {
            t_q >= model.history.start && t_q <= model.history.end + slack
        };
        let (coarse, trained) = self
            .coarse
            .localize_with(store, device, t_q, || candidate().filter(covers));
        let (fine, cache_warm) = match (coarse.label, fine) {
            (CoarseLabel::Inside(region), Some(fine)) => {
                let (outcome, warm) = self.fine_step(store, epochs, device, t_q, region, fine);
                (Some(outcome), warm)
            }
            _ => (None, false),
        };
        let answer = assemble_answer(device, t_q, &coarse, fine.as_ref());
        let diagnostics = QueryDiagnostics {
            coarse,
            fine,
            elapsed: Duration::ZERO,
            // A gap classified without training used the caller's model.
            coarse_model_reused: coarse.gap.is_some() && trained.is_none(),
            cache_warm,
        };
        (answer, diagnostics, trained)
    }

    /// The fine step for a device inside `region`. With the cache enabled it
    /// scans the neighbors, extracts the plan from `source`, and localizes
    /// with it; only the extraction takes cache locks. Returns the outcome
    /// and whether the affinity graph was warm for the queried device.
    fn fine_step(
        &self,
        store: &dyn EventRead,
        epochs: &dyn EpochRead,
        device: DeviceId,
        t_q: Timestamp,
        region: RegionId,
        (eff, source): (&Effective, PlanSource<'_>),
    ) -> (FineOutcome, bool) {
        if eff.cache == CacheMode::Disabled {
            return (eff.fine.locate(store, device, t_q, region, None), false);
        }
        let neighbors: Vec<DeviceId> = eff
            .fine
            .candidate_neighbors(store, device, t_q, region)
            .into_iter()
            .map(|(d, _)| d)
            .collect();
        let (order, cached, warm) = match source {
            PlanSource::Frozen(cache) => self.fine_plan(epochs, device, t_q, &neighbors, |_| cache),
            PlanSource::Owners => {
                // One read guard per owner cache, in ascending shard order.
                let mut needed = vec![false; self.num_shards()];
                for &neighbor in &neighbors {
                    needed[self.owner(device, neighbor)] = true;
                }
                let guards: Vec<Option<RwLockReadGuard<'_, EpochCache>>> = self
                    .caches
                    .iter()
                    .zip(&needed)
                    .map(|(cache, &needed)| needed.then(|| cache.read()))
                    .collect();
                self.fine_plan(epochs, device, t_q, &neighbors, |neighbor| {
                    guards[self.owner(device, neighbor)]
                        .as_deref()
                        .expect("owner cache guard was taken above")
                })
            }
        };
        let lookup = move |neighbor: DeviceId| cached.get(&neighbor).copied();
        let fine =
            eff.fine
                .locate_with_cache(store, device, t_q, region, Some(&order), Some(&lookup));
        (fine, warm)
    }

    /// Extracts what the fine step needs from the affinity graph: the neighbor
    /// processing order, cached pairwise affinities (which replace the per-pair
    /// history scans of cold queries), and whether the graph was warm for
    /// `device`. Only epoch-live edges are visible. `cache_of(n)` is the cache
    /// holding the edge `{device, n}`.
    fn fine_plan<'c>(
        &self,
        epochs: &dyn EpochRead,
        device: DeviceId,
        t_q: Timestamp,
        neighbors: &[DeviceId],
        cache_of: impl Fn(DeviceId) -> &'c EpochCache,
    ) -> (Vec<DeviceId>, HashMap<DeviceId, f64>, bool) {
        let warm = neighbors
            .iter()
            .any(|&n| !cache_of(n).samples(device, n, epochs).is_empty());
        let cached: HashMap<DeviceId, f64> = neighbors
            .iter()
            .filter_map(|&n| {
                cache_of(n)
                    .cached_pair_affinity(device, n, t_q, epochs)
                    .map(|affinity| (n, affinity))
            })
            .collect();
        let order = rank_by_weight(neighbors, |n| cache_of(n).weight(device, n, t_q, epochs));
        (order, cached, warm)
    }

    /// Merges one answered query's local affinity graph into the owner
    /// shards' caches (one write lock per owner, in ascending shard order).
    fn merge_contributions(
        &self,
        center: DeviceId,
        contributions: &[NeighborContribution],
        t: Timestamp,
        epochs: &dyn EpochRead,
    ) {
        for (shard, cache) in self.caches.iter().enumerate() {
            let mut owned = contributions
                .iter()
                .filter(|contribution| self.owner(center, contribution.device) == shard)
                .peekable();
            if owned.peek().is_some() {
                cache.write().merge_local(center, owned, t, epochs);
            }
        }
    }

    /// Edges and samples physically held across all shard caches, stale ones
    /// included.
    pub(crate) fn cache_stats(&self) -> (usize, usize) {
        self.caches.iter().fold((0, 0), |(edges, samples), cache| {
            let (e, s) = cache.read().stats();
            (edges + e, samples + s)
        })
    }

    /// Edges and samples live under `epochs` across all shard caches.
    pub(crate) fn live_cache_stats(&self, epochs: &dyn EpochRead) -> (usize, usize) {
        self.caches.iter().fold((0, 0), |(edges, samples), cache| {
            let (e, s) = cache.read().live_stats(epochs);
            (edges + e, samples + s)
        })
    }

    /// Evicts the affinity edges and coarse models that are stale under
    /// `epochs`, returning `(edges_evicted, models_evicted)`.
    pub(crate) fn purge_stale(&self, epochs: &dyn EpochRead) -> (usize, usize) {
        let mut edges = 0usize;
        let mut models_evicted = 0usize;
        for (cache, models) in self.caches.iter().zip(&self.models) {
            edges += cache.write().purge_stale(epochs);
            let mut models = models.write();
            let before = models.len();
            models.retain(|&device, entry| entry.epoch == epochs.epoch_of(device));
            models_evicted += before - models.len();
        }
        (edges, models_evicted)
    }

    /// Drops all cached affinities and per-device coarse models.
    pub(crate) fn clear_cache(&self) {
        for (cache, models) in self.caches.iter().zip(&self.models) {
            cache.write().clear();
            models.write().clear();
        }
    }
}

/// The live LOCATER service: a cleaning + caching engine over a **mutable**
/// event store that ingests connectivity events while answering queries.
///
/// Unlike the frozen [`Locater`](super::Locater) facade, the dataset may grow
/// after construction. Correctness is maintained by epoch-based invalidation
/// (see [`super::epoch`]): after any ingest sequence, answers are identical to
/// those of a freshly built service over the same final store.
///
/// Internally this is exactly a [`ShardedLocaterService`] with **one shard** —
/// the single-writer special case of the per-device-partitioned service. Use
/// [`ShardedLocaterService::new`] with more shards when concurrent ingest
/// throughput matters; answers are byte-identical for every shard count.
///
/// ```
/// use locater_core::system::{LocaterService, LocateRequest, LocaterConfig};
/// use locater_space::SpaceBuilder;
/// use locater_store::EventStore;
///
/// let space = SpaceBuilder::new("demo")
///     .add_access_point("wap1", &["101", "102"])
///     .build()
///     .unwrap();
/// let service = LocaterService::new(EventStore::new(space), LocaterConfig::default());
///
/// // Live ingestion: the store grows while the service answers queries.
/// service.ingest("aa:bb:cc:dd:ee:01", 1_000, "wap1").unwrap();
/// service.ingest("aa:bb:cc:dd:ee:01", 4_000, "wap1").unwrap();
///
/// let response = service
///     .locate(&LocateRequest::by_mac("aa:bb:cc:dd:ee:01", 2_500))
///     .unwrap();
/// assert!(response.answer.is_inside());
/// assert_eq!(response.device_epoch, 2); // two events ingested for the device
/// ```
#[derive(Debug)]
pub struct LocaterService {
    inner: ShardedLocaterService,
}

impl LocaterService {
    /// Creates a service over an initial (possibly empty) store.
    pub fn new(store: EventStore, config: LocaterConfig) -> Self {
        Self {
            inner: ShardedLocaterService::new(store, config, 1),
        }
    }

    pub(crate) fn from_parts(store: EventStore, engines: Engines) -> Self {
        Self {
            inner: ShardedLocaterService::from_parts(store, engines),
        }
    }

    /// The equivalent sharded service (one shard), for callers that want the
    /// shard-aware API surface.
    pub fn into_sharded(self) -> ShardedLocaterService {
        self.inner
    }

    /// The system configuration (per-request overrides are applied on top).
    pub fn config(&self) -> &LocaterConfig {
        self.inner.config()
    }

    // ------------------------------------------------------------------
    // Ingestion
    // ------------------------------------------------------------------

    /// Appends one connectivity event (access point given by name, as found in
    /// logs) and bumps the device's epoch. Takes the store write lock only for
    /// the append itself.
    pub fn ingest(&self, mac: &str, t: Timestamp, ap_name: &str) -> Result<EventId, IngestError> {
        self.inner.ingest(mac, t, ap_name)
    }

    /// Appends a batch of raw events, stopping at the first error (events
    /// before the error are kept and their devices' epochs bumped). Returns the
    /// number of events appended.
    pub fn ingest_batch<'a>(
        &self,
        events: impl IntoIterator<Item = &'a RawEvent>,
    ) -> Result<usize, IngestError> {
        self.inner.ingest_batch(events)
    }

    /// Re-estimates every device's validity period δ from its (grown) history
    /// and bumps **all** epochs: changing δ reshapes every device's gap
    /// structure, so all cached state is invalidated.
    pub fn reestimate_deltas(&self) {
        self.inner.reestimate_deltas()
    }

    /// Overrides one device's validity period δ and bumps its epoch.
    pub fn set_delta(&self, device: DeviceId, delta: Timestamp) {
        self.inner.set_delta(device, delta)
    }

    /// Bumps one device's epoch without touching the store, invalidating every
    /// cached value derived from its history.
    pub fn invalidate_device(&self, device: DeviceId) {
        self.inner.invalidate_device(device)
    }

    /// Bumps every device's epoch, invalidating all cached state at once (the
    /// epoch-based equivalent of the legacy `clear_cache`-and-rebuild).
    pub fn invalidate_all(&self) {
        self.inner.invalidate_all()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Resolves the device a request refers to.
    pub fn resolve(&self, request: &LocateRequest) -> Result<DeviceId, LocaterError> {
        self.inner.resolve(request)
    }

    /// Answers one request. Holds the store read lock for the duration of the
    /// query, so concurrent requests proceed in parallel and ingests are only
    /// delayed by in-flight queries.
    pub fn locate(&self, request: &LocateRequest) -> Result<LocateResponse, LocaterError> {
        self.inner.locate(request)
    }

    /// Answers a batch of requests through the deterministic sharded batch
    /// pipeline (see [`Locater::locate_batch`](super::Locater::locate_batch)
    /// for the determinism guarantees — responses are identical for every
    /// `jobs` value and returned in request order). Per-request overrides are
    /// honored; batch responses carry no diagnostics.
    pub fn locate_batch(
        &self,
        requests: &[LocateRequest],
        jobs: usize,
    ) -> Vec<Result<LocateResponse, LocaterError>> {
        self.inner.locate_batch(requests, jobs)
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// The current ingest epoch of a device (0 for devices never ingested
    /// through the service).
    pub fn device_epoch(&self, device: DeviceId) -> u64 {
        self.inner.device_epoch(device)
    }

    /// Runs `f` with read access to the store (the lock is held for the
    /// duration of the closure — keep it short).
    pub fn with_store<R>(&self, f: impl FnOnce(&EventStore) -> R) -> R {
        // One shard ⇒ shard 0 holds the whole dataset.
        self.inner.with_shard_store(0, f)
    }

    /// A clone of the current store (the basis of the service's answers at
    /// this instant; useful for rebuild-equivalence checks and snapshots).
    pub fn store_snapshot(&self) -> EventStore {
        self.inner.store_snapshot()
    }

    /// Total number of events currently in the store.
    pub fn num_events(&self) -> usize {
        self.inner.num_events()
    }

    /// Number of distinct devices currently in the store.
    pub fn num_devices(&self) -> usize {
        self.inner.num_devices()
    }

    /// Number of edges and samples physically held by the caching engine,
    /// including stale ones awaiting eviction.
    pub fn cache_stats(&self) -> (usize, usize) {
        self.inner.cache_stats()
    }

    /// Number of edges and samples that are live under the current epochs —
    /// the state queries can actually observe.
    pub fn live_cache_stats(&self) -> (usize, usize) {
        self.inner.live_cache_stats()
    }

    /// Eagerly evicts epoch-stale affinity edges and coarse models, returning
    /// `(edges_evicted, models_evicted)`. Optional maintenance — queries never
    /// observe stale state either way.
    pub fn purge_stale(&self) -> (usize, usize) {
        self.inner.purge_stale()
    }

    /// Drops all cached affinities and per-device coarse models (epochs are
    /// untouched; prefer letting epoch invalidation work instead).
    pub fn clear_cache(&self) {
        self.inner.clear_cache()
    }
}

/// Conversion from the legacy frozen facade: the store, configuration, and all
/// cached state carry over; the dataset becomes mutable from here on.
impl From<super::Locater> for LocaterService {
    fn from(locater: super::Locater) -> Self {
        locater.into_service()
    }
}

#[cfg(test)]
mod tests {
    use super::super::Query;
    use super::*;
    use crate::fine::FineMode;
    use locater_events::clock;
    use locater_space::{RoomType, Space, SpaceBuilder};

    fn space() -> Space {
        SpaceBuilder::new("service-test")
            .add_access_point("wap0", &["office-a", "office-b", "lounge"])
            .add_access_point("wap1", &["lounge", "lab"])
            .room_type("lounge", RoomType::Public)
            .room_owner("office-a", "alice")
            .room_owner("office-b", "bob")
            .build()
            .unwrap()
    }

    /// Alice and Bob work together on wap0 on weekdays for `weeks` weeks.
    fn office_store(weeks: i64) -> EventStore {
        let mut store = EventStore::new(space());
        for week in 0..weeks {
            for day in 0..5 {
                let d = week * 7 + day;
                for slot in 0..16 {
                    let t = clock::at(d, 9, slot * 30, 0);
                    store.ingest_raw("alice", t, "wap0").unwrap();
                    store.ingest_raw("bob", t + 45, "wap0").unwrap();
                }
            }
        }
        store
    }

    #[test]
    fn ingest_appends_and_bumps_epochs() {
        let service = LocaterService::new(EventStore::new(space()), LocaterConfig::default());
        assert_eq!(service.num_events(), 0);
        service.ingest("alice", 1_000, "wap0").unwrap();
        service.ingest("alice", 1_300, "wap0").unwrap();
        service.ingest("bob", 1_100, "wap1").unwrap();
        assert_eq!(service.num_events(), 3);
        assert_eq!(service.num_devices(), 2);
        let alice = service.with_store(|s| s.device_id("alice").unwrap());
        let bob = service.with_store(|s| s.device_id("bob").unwrap());
        assert_eq!(service.device_epoch(alice), 2);
        assert_eq!(service.device_epoch(bob), 1);

        // Unknown AP: error surfaces, nothing appended.
        assert!(service.ingest("alice", 2_000, "wap9").is_err());
        assert_eq!(service.num_events(), 3);
        assert_eq!(service.device_epoch(alice), 2);
    }

    #[test]
    fn ingest_batch_stops_at_first_error_but_keeps_prefix() {
        let service = LocaterService::new(EventStore::new(space()), LocaterConfig::default());
        let events = [
            RawEvent::new("alice", 1_000, "wap0"),
            RawEvent::new("bob", 1_100, "wap1"),
            RawEvent::new("alice", 1_200, "nope"),
            RawEvent::new("bob", 1_300, "wap1"),
        ];
        let err = service.ingest_batch(events.iter()).unwrap_err();
        assert!(matches!(err, IngestError::UnknownAccessPoint(_)));
        assert_eq!(service.num_events(), 2);
        let alice = service.with_store(|s| s.device_id("alice").unwrap());
        assert_eq!(service.device_epoch(alice), 1);
    }

    #[test]
    fn locate_answers_and_reports_epoch_and_store_size() {
        let service = LocaterService::new(office_store(2), LocaterConfig::default());
        let t_q = clock::at(8, 9, 5, 10);
        let response = service
            .locate(&LocateRequest::by_mac("alice", t_q))
            .unwrap();
        assert!(response.answer.is_inside());
        assert_eq!(response.device_epoch, 0, "no live ingests yet");
        assert_eq!(response.events_seen, service.num_events());
        assert!(response.diagnostics.is_none(), "diagnostics are opt-in");

        let detailed = service
            .locate(&LocateRequest::by_mac("alice", t_q).with_diagnostics())
            .unwrap();
        assert!(detailed.diagnostics.is_some());
    }

    #[test]
    fn per_request_cache_bypass_stores_nothing() {
        let service = LocaterService::new(office_store(3), LocaterConfig::default());
        let t_q = clock::at(15, 9, 30, 20);
        let bypass = LocateRequest::by_mac("alice", t_q).bypass_cache();
        service.locate(&bypass).unwrap();
        assert_eq!(service.cache_stats(), (0, 0));

        // The same request without the bypass warms the graph.
        service
            .locate(&LocateRequest::by_mac("alice", t_q))
            .unwrap();
        assert!(service.cache_stats().0 >= 1);
    }

    #[test]
    fn per_request_fine_mode_override_answers() {
        let service = LocaterService::new(office_store(3), LocaterConfig::default());
        let t_q = clock::at(15, 9, 30, 20);
        let response = service
            .locate(&LocateRequest::by_mac("alice", t_q).with_fine_mode(FineMode::Dependent))
            .unwrap();
        assert!(response.answer.is_inside());
    }

    #[test]
    fn ingest_invalidates_exactly_the_touched_device() {
        let service = LocaterService::new(office_store(3), LocaterConfig::default());
        let t_q = clock::at(15, 9, 30, 20);
        // Warm alice↔bob (via alice's query).
        service
            .locate(&LocateRequest::by_mac("alice", t_q))
            .unwrap();
        let (live_edges, _) = service.live_cache_stats();
        assert!(live_edges >= 1);

        // An event for bob invalidates the alice↔bob edge...
        service.ingest("bob", t_q + 600, "wap0").unwrap();
        assert_eq!(service.live_cache_stats().0, 0);
        assert!(
            service.cache_stats().0 >= 1,
            "stale edge lingers until eviction"
        );

        // ...and a purge reclaims it.
        let (edges_evicted, _) = service.purge_stale();
        assert!(edges_evicted >= 1);
        assert_eq!(service.cache_stats().0, 0);
    }

    #[test]
    fn invalidate_all_and_reestimate_deltas_bump_every_device() {
        let service = LocaterService::new(office_store(1), LocaterConfig::default());
        let alice = service.with_store(|s| s.device_id("alice").unwrap());
        let bob = service.with_store(|s| s.device_id("bob").unwrap());
        service.invalidate_all();
        assert_eq!(service.device_epoch(alice), 1);
        assert_eq!(service.device_epoch(bob), 1);
        service.reestimate_deltas();
        assert_eq!(service.device_epoch(alice), 2);
        assert_eq!(service.device_epoch(bob), 2);
        service.invalidate_device(alice);
        assert_eq!(service.device_epoch(alice), 3);
        assert_eq!(service.device_epoch(bob), 2);
    }

    #[test]
    fn batch_routes_through_request_layer_in_order() {
        let service = LocaterService::new(office_store(3), LocaterConfig::default());
        let requests = vec![
            LocateRequest::by_mac("alice", clock::at(15, 9, 30, 20)),
            LocateRequest::by_mac("ghost", 1_000),
            LocateRequest::by_mac("bob", clock::at(15, 3, 0, 0)).bypass_cache(),
        ];
        let responses = service.locate_batch(&requests, 2);
        assert_eq!(responses.len(), 3);
        assert!(responses[0].as_ref().unwrap().answer.is_inside());
        assert!(matches!(responses[1], Err(LocaterError::UnknownDevice(_))));
        assert!(responses[2].as_ref().unwrap().answer.is_outside());
    }

    #[test]
    fn frozen_facade_converts_into_service() {
        let locater = super::super::Locater::new(office_store(2), LocaterConfig::default());
        let t_q = clock::at(8, 9, 5, 10);
        let frozen = locater.locate(&Query::by_mac("alice", t_q)).unwrap();
        let service: LocaterService = locater.into();
        let live = service
            .locate(&LocateRequest::by_mac("alice", t_q))
            .unwrap();
        assert_eq!(frozen, live.answer);
    }
}
