//! The LOCATER system facade (paper §5): query engine + cleaning engine + caching
//! engine behind the query API `Q = (device, time)`.
//!
//! Two entry points share one engine (`service::Engines`, which runs every
//! locate and every batch):
//!
//! * [`LocaterService`] — the **live service** (a one-shard
//!   [`ShardedLocaterService`]): owns a *mutable* event store,
//!   ingests connectivity events while answering queries, and keeps the caching
//!   engine correct through per-device epoch invalidation ([`epoch`]). Queries
//!   go through the typed request/response layer ([`request`]):
//!   [`LocateRequest`] → [`LocateResponse`].
//! * [`Locater`] — the **frozen facade** over an immutable dataset, the
//!   original `Locater::new(store, config)` API. Retained for offline
//!   evaluation and benchmarks; new code that needs ingestion should use
//!   [`LocaterService`] (or convert with [`Locater::into_service`]).
//!
//! Answering a query runs in two steps:
//!
//! 1. the **coarse** step ([`crate::coarse`]) decides whether the device was outside
//!    the building at the query time or inside a specific region — either trivially
//!    (a connectivity event is valid at that time) or by classifying the gap;
//! 2. the **fine** step ([`crate::fine`]) disambiguates the region to a room, using
//!    room and group affinities of the devices online around the query time;
//!
//! and the **caching engine** ([`crate::cache`]) persists the pairwise affinities
//! computed for the answer into the global affinity graph and uses it to order
//! neighbor processing for subsequent queries. Per-device coarse models are
//! trained lazily and cached; they are refreshed when a query falls outside the
//! window the model was trained for — or when ingestion bumps the device's
//! epoch ([`epoch`]).

pub mod batch;
pub mod epoch;
pub mod request;
pub mod service;
pub mod shard;

pub use epoch::{EpochCache, EpochRead, EpochTable, ModelEntry};
pub use request::{LocateRequest, LocateResponse};
pub use service::LocaterService;
pub use shard::{CompactionStatus, ShardStats, ShardedLocaterService, WalStatus};

use crate::coarse::{CoarseConfig, CoarseLabel, CoarseMethod, CoarseOutcome};
use crate::error::LocaterError;
use crate::fine::{FineConfig, FineOutcome};
use locater_events::clock::{self, Timestamp};
use locater_events::DeviceId;
use locater_space::{RegionId, RoomId};
use locater_store::EventStore;
use serde::{Deserialize, Serialize};
use service::{resolve_target, Engines};
use std::time::Duration;

pub use crate::fine::FineMode;

/// Whether the caching engine (global affinity graph) is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CacheMode {
    /// Affinities are cached and used to order neighbor processing (`+C` systems).
    #[default]
    Enabled,
    /// Every query recomputes affinities and processes neighbors in natural order.
    Disabled,
}

/// A location query `Q = (d_i, t_q)`.
///
/// The legacy query form of the frozen [`Locater`] facade. The live-service
/// equivalent is [`LocateRequest`], which adds per-request overrides;
/// [`LocateRequest::from_query`] converts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Device MAC address / log identifier, if the caller knows it.
    pub mac: Option<String>,
    /// Already-resolved device id, if the caller has one.
    pub device: Option<DeviceId>,
    /// Query time.
    pub t: Timestamp,
}

impl Query {
    /// Query by MAC address.
    pub fn by_mac(mac: impl Into<String>, t: Timestamp) -> Self {
        Self {
            mac: Some(mac.into()),
            device: None,
            t,
        }
    }

    /// Query by device id.
    pub fn by_device(device: DeviceId, t: Timestamp) -> Self {
        Self {
            mac: None,
            device: Some(device),
            t,
        }
    }
}

/// A semantic location at one of the three granularities of the space model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Location {
    /// Outside the building.
    Outside,
    /// Inside the building, in this region, room unknown (coarse-only answers).
    Region(RegionId),
    /// Inside the building, in this room of this region.
    Room {
        /// The selected room.
        room: RoomId,
        /// The region the room was selected from.
        region: RegionId,
    },
}

impl Location {
    /// `true` if the location is inside the building.
    pub fn is_inside(&self) -> bool {
        !matches!(self, Location::Outside)
    }

    /// The region, if inside.
    pub fn region(&self) -> Option<RegionId> {
        match self {
            Location::Outside => None,
            Location::Region(region) => Some(*region),
            Location::Room { region, .. } => Some(*region),
        }
    }

    /// The room, if resolved to room level.
    pub fn room(&self) -> Option<RoomId> {
        match self {
            Location::Room { room, .. } => Some(*room),
            _ => None,
        }
    }
}

/// The answer to a [`Query`] / [`LocateRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Answer {
    /// The resolved device.
    pub device: DeviceId,
    /// The query time.
    pub t: Timestamp,
    /// The cleaned semantic location.
    pub location: Location,
    /// How the coarse step decided the building/region label.
    pub coarse_method: CoarseMethod,
    /// Combined confidence of the answer in `[0, 1]`.
    pub confidence: f64,
}

impl Answer {
    /// `true` if the device was located inside the building.
    pub fn is_inside(&self) -> bool {
        self.location.is_inside()
    }

    /// `true` if the device was located outside the building.
    pub fn is_outside(&self) -> bool {
        !self.is_inside()
    }

    /// The region, if inside.
    pub fn region(&self) -> Option<RegionId> {
        self.location.region()
    }

    /// The room, if resolved to room level.
    pub fn room(&self) -> Option<RoomId> {
        self.location.room()
    }
}

/// Diagnostics collected while answering one query; used by the evaluation
/// harness and returned to [`LocateRequest::with_diagnostics`] callers.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDiagnostics {
    /// Outcome of the coarse step.
    pub coarse: CoarseOutcome,
    /// Outcome of the fine step (absent for outside answers).
    pub fine: Option<FineOutcome>,
    /// Wall-clock time spent answering the query.
    pub elapsed: Duration,
    /// Whether a cached per-device coarse model was reused.
    pub coarse_model_reused: bool,
    /// Whether the global affinity graph already had a live edge for the
    /// queried device.
    pub cache_warm: bool,
}

/// Configuration of the full LOCATER system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocaterConfig {
    /// Coarse-grained localization parameters (§3).
    pub coarse: CoarseConfig,
    /// Fine-grained localization parameters (§4).
    pub fine: FineConfig,
    /// Whether the caching engine is active (§5).
    pub cache: CacheMode,
    /// A cached per-device coarse model is reused as long as the query time is within
    /// this many seconds after the end of the window it was trained on.
    pub model_refresh_slack: Timestamp,
}

impl Default for LocaterConfig {
    fn default() -> Self {
        Self {
            coarse: CoarseConfig::default(),
            fine: FineConfig::default(),
            cache: CacheMode::Enabled,
            model_refresh_slack: clock::days(7),
        }
    }
}

impl LocaterConfig {
    /// Returns a copy configured for the given fine-grained mode (I-FINE / D-FINE).
    pub fn with_fine_mode(mut self, mode: FineMode) -> Self {
        self.fine.mode = mode;
        self
    }

    /// Returns a copy with the caching engine enabled or disabled.
    pub fn with_cache(mut self, cache: CacheMode) -> Self {
        self.cache = cache;
        self
    }

    /// Returns a copy with the given amount of history: both the coarse
    /// training history and the fine affinity window are set to it, whether
    /// that widens or narrows them (Fig. 8 varies both together). Used by the
    /// Fig. 8 experiment.
    pub fn with_history(mut self, history: Timestamp) -> Self {
        self.coarse.history = history.max(1);
        self.fine.affinity_window = history.max(1);
        self
    }
}

/// The frozen LOCATER facade: cleaning engine + caching engine over one
/// **immutable** event store.
///
/// This is the original `Locater::new(store, config)` API, kept for offline
/// evaluation, benchmarks and any workload whose dataset does not grow. For a
/// long-running deployment that ingests events while serving queries, use
/// [`LocaterService`] — or convert an existing instance with
/// [`Locater::into_service`], which carries the store, configuration and all
/// cached state over.
#[derive(Debug)]
pub struct Locater {
    store: EventStore,
    // Never bumped: the dataset is frozen, so every cached stamp stays live and
    // the engine behaves exactly like the original clear-cache-only system.
    epochs: EpochTable,
    engines: Engines,
}

impl Locater {
    /// Creates a system over `store` with the given configuration.
    pub fn new(store: EventStore, config: LocaterConfig) -> Self {
        Self {
            store,
            epochs: EpochTable::new(),
            engines: Engines::new(config, 1),
        }
    }

    /// The underlying event store.
    pub fn store(&self) -> &EventStore {
        &self.store
    }

    /// The system configuration.
    pub fn config(&self) -> &LocaterConfig {
        &self.engines.config
    }

    /// Number of edges and samples currently held by the caching engine.
    pub fn cache_stats(&self) -> (usize, usize) {
        self.engines.cache_stats()
    }

    /// Drops all cached affinities and per-device coarse models.
    pub fn clear_cache(&self) {
        self.engines.clear_cache();
    }

    /// Resolves the device a query refers to.
    pub fn resolve(&self, query: &Query) -> Result<DeviceId, LocaterError> {
        resolve_target(&self.store, query.mac.as_deref(), query.device)
    }

    /// Answers a query.
    pub fn locate(&self, query: &Query) -> Result<Answer, LocaterError> {
        self.locate_detailed(query).map(|(answer, _)| answer)
    }

    /// Answers a query and returns per-query diagnostics alongside the answer.
    pub fn locate_detailed(
        &self,
        query: &Query,
    ) -> Result<(Answer, QueryDiagnostics), LocaterError> {
        let device = self.resolve(query)?;
        let eff = self.engines.effective_base();
        Ok(self
            .engines
            .locate_detailed(&self.store, &self.epochs, device, query.t, Some(&eff)))
    }

    /// Answers a batch of queries, sharded across `jobs` worker threads.
    ///
    /// Results are **identical for every `jobs` value** (including the
    /// sequential `jobs = 1` path) and are returned in query order; see
    /// [`batch`] for how the pipeline achieves this.
    pub fn locate_batch(
        &self,
        queries: &[Query],
        jobs: usize,
    ) -> Vec<Result<Answer, LocaterError>> {
        let eff = self.engines.effective_base();
        let items: Vec<batch::BatchItem> = queries
            .iter()
            .map(|query| batch::BatchItem {
                t: query.t,
                device: self.resolve(query),
                eff,
            })
            .collect();
        self.engines
            .locate_batch(&self.store, &self.epochs, &items, jobs)
    }

    /// Converts this frozen facade into a live [`LocaterService`], carrying the
    /// store, configuration and all cached state over. The dataset becomes
    /// mutable from here on.
    pub fn into_service(self) -> LocaterService {
        LocaterService::from_parts(self.store, self.engines)
    }
}

/// Builds the [`Answer`] for one query from its coarse outcome and, when the
/// fine step ran, its fine outcome — the single place the answer/confidence
/// composition lives. An inside label without a fine outcome is the
/// region-level answer of the degraded coarse-only locate.
pub(crate) fn assemble_answer(
    device: DeviceId,
    t_q: Timestamp,
    coarse: &CoarseOutcome,
    fine: Option<&FineOutcome>,
) -> Answer {
    let location = match (coarse.label, fine) {
        (CoarseLabel::Outside, _) => Location::Outside,
        (CoarseLabel::Inside(region), None) => Location::Region(region),
        (CoarseLabel::Inside(region), Some(fine)) => Location::Room {
            room: fine.room,
            region,
        },
    };
    Answer {
        device,
        t: t_q,
        location,
        coarse_method: coarse.method,
        confidence: fine.map_or(coarse.confidence, |fine| {
            coarse.confidence * fine.confidence()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_space::{RoomType, Space, SpaceBuilder};

    fn space() -> Space {
        SpaceBuilder::new("system-test")
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
    fn query_resolution_by_mac_and_id() {
        let locater = Locater::new(office_store(1), LocaterConfig::default());
        let alice = locater.store().device_id("alice").unwrap();
        assert_eq!(locater.resolve(&Query::by_mac("alice", 0)).unwrap(), alice);
        assert_eq!(locater.resolve(&Query::by_device(alice, 0)).unwrap(), alice);
        assert!(matches!(
            locater.resolve(&Query::by_mac("nobody", 0)),
            Err(LocaterError::UnknownDevice(_))
        ));
        assert!(matches!(
            locater.resolve(&Query::by_device(DeviceId::new(99), 0)),
            Err(LocaterError::UnknownDevice(_))
        ));
        assert!(matches!(
            locater.resolve(&Query {
                mac: None,
                device: None,
                t: 0
            }),
            Err(LocaterError::MissingDevice)
        ));
    }

    #[test]
    fn covered_query_resolves_to_a_room_in_the_covering_region() {
        let locater = Locater::new(office_store(2), LocaterConfig::default());
        let t_q = clock::at(8, 9, 5, 10);
        let answer = locater.locate(&Query::by_mac("alice", t_q)).unwrap();
        assert!(answer.is_inside());
        assert_eq!(answer.coarse_method, CoarseMethod::CoveredByEvent);
        let region = answer.region().unwrap();
        assert_eq!(region, RegionId::new(0));
        let room = answer.room().unwrap();
        assert!(locater
            .store()
            .space()
            .rooms_in_region(region)
            .contains(&room));
        assert!(answer.confidence > 0.0);
    }

    #[test]
    fn overnight_query_is_outside() {
        let locater = Locater::new(office_store(4), LocaterConfig::default());
        let t_q = clock::at(22, 3, 0, 0);
        let answer = locater.locate(&Query::by_mac("alice", t_q)).unwrap();
        assert!(answer.is_outside());
        assert_eq!(answer.location, Location::Outside);
        assert_eq!(answer.room(), None);
        assert_eq!(answer.region(), None);
    }

    #[test]
    fn out_of_span_query_is_outside() {
        let locater = Locater::new(office_store(1), LocaterConfig::default());
        let answer = locater
            .locate(&Query::by_mac("alice", clock::at(400, 12, 0, 0)))
            .unwrap();
        assert!(answer.is_outside());
        assert_eq!(answer.coarse_method, CoarseMethod::OutOfSpan);
    }

    #[test]
    fn coarse_models_are_cached_and_reused() {
        let locater = Locater::new(office_store(4), LocaterConfig::default());
        // A query in a short mid-day gap on the last week.
        let t_q = clock::at(22, 9, 20, 10);
        let (_, first) = locater
            .locate_detailed(&Query::by_mac("alice", t_q))
            .unwrap();
        let (_, second) = locater
            .locate_detailed(&Query::by_mac("alice", t_q + 60))
            .unwrap();
        // The first gap-classifying query trains the model; the second reuses it
        // (covered queries never touch the model, so pick gap times).
        if first.coarse.gap.is_some() && second.coarse.gap.is_some() {
            assert!(!first.coarse_model_reused);
            assert!(second.coarse_model_reused);
        }
    }

    #[test]
    fn caching_engine_accumulates_edges_across_queries() {
        let locater = Locater::new(office_store(3), LocaterConfig::default());
        assert_eq!(locater.cache_stats(), (0, 0));
        // Alice is covered at this time and Bob is online nearby: the fine step runs
        // and produces contributions.
        let t_q = clock::at(15, 9, 30, 20);
        let (_, diag) = locater
            .locate_detailed(&Query::by_mac("alice", t_q))
            .unwrap();
        assert!(diag.fine.is_some());
        let (edges, samples) = locater.cache_stats();
        assert!(edges >= 1, "expected cached edges after a fine query");
        assert!(samples >= 1);
        // The second query sees a warm cache.
        let (_, diag2) = locater
            .locate_detailed(&Query::by_mac("alice", t_q + 120))
            .unwrap();
        assert!(diag2.cache_warm);
        locater.clear_cache();
        assert_eq!(locater.cache_stats(), (0, 0));
    }

    #[test]
    fn disabled_cache_never_stores_affinities() {
        let config = LocaterConfig::default().with_cache(CacheMode::Disabled);
        let locater = Locater::new(office_store(3), config);
        let t_q = clock::at(15, 9, 30, 20);
        let _ = locater.locate(&Query::by_mac("alice", t_q)).unwrap();
        assert_eq!(locater.cache_stats(), (0, 0));
    }

    #[test]
    fn config_builders_adjust_modes() {
        let config = LocaterConfig::default()
            .with_fine_mode(FineMode::Dependent)
            .with_cache(CacheMode::Disabled)
            .with_history(clock::weeks(2));
        assert_eq!(config.fine.mode, FineMode::Dependent);
        assert_eq!(config.cache, CacheMode::Disabled);
        assert_eq!(config.coarse.history, clock::weeks(2));
        let locater = Locater::new(office_store(2), config);
        let answer = locater
            .locate(&Query::by_mac("bob", clock::at(8, 9, 30, 10)))
            .unwrap();
        assert!(answer.is_inside());
    }

    #[test]
    fn with_history_widens_and_narrows_both_windows() {
        let default_window = FineConfig::default().affinity_window;

        // Narrower than the default affinity window (3 weeks): both shrink.
        let narrow = LocaterConfig::default().with_history(clock::weeks(1));
        assert_eq!(narrow.coarse.history, clock::weeks(1));
        assert_eq!(narrow.fine.affinity_window, clock::weeks(1));
        assert!(narrow.fine.affinity_window < default_window);

        // Wider than the default: the fine window must *widen* too (a past bug
        // clamped it down to the default, so Fig. 8's long-history points never
        // saw a wider affinity window).
        let wide = LocaterConfig::default().with_history(clock::weeks(10));
        assert_eq!(wide.coarse.history, clock::weeks(10));
        assert_eq!(wide.fine.affinity_window, clock::weeks(10));
        assert!(wide.fine.affinity_window > default_window);

        // Degenerate input is clamped to at least one second.
        let floor = LocaterConfig::default().with_history(0);
        assert_eq!(floor.coarse.history, 1);
        assert_eq!(floor.fine.affinity_window, 1);
    }

    /// A mixed batch workload over the office store: covered instants, gaps,
    /// out-of-span times, and an unknown device.
    fn batch_queries() -> Vec<Query> {
        let mut queries = Vec::new();
        for day in 10..20 {
            for (mac, minute) in [("alice", 5), ("bob", 20), ("alice", 40)] {
                queries.push(Query::by_mac(mac, clock::at(day, 9, minute, 10)));
                queries.push(Query::by_mac(mac, clock::at(day, 13, minute, 0)));
                queries.push(Query::by_mac(mac, clock::at(day, 3, minute, 0)));
            }
        }
        queries.push(Query::by_mac("ghost", clock::at(12, 9, 0, 0)));
        queries.push(Query::by_mac("alice", clock::at(400, 9, 0, 0)));
        queries
    }

    #[test]
    fn locate_batch_is_identical_across_job_counts() {
        let queries = batch_queries();
        let baseline = Locater::new(office_store(4), LocaterConfig::default());
        let sequential = baseline.locate_batch(&queries, 1);
        for jobs in [2, 3, 8, 64] {
            let locater = Locater::new(office_store(4), LocaterConfig::default());
            let parallel = locater.locate_batch(&queries, jobs);
            assert_eq!(sequential, parallel, "jobs={jobs} diverged from jobs=1");
        }
    }

    #[test]
    fn locate_batch_preserves_query_order_and_errors() {
        let locater = Locater::new(office_store(3), LocaterConfig::default());
        let queries = batch_queries();
        let results = locater.locate_batch(&queries, 4);
        assert_eq!(results.len(), queries.len());
        for (query, result) in queries.iter().zip(&results) {
            match result {
                Ok(answer) => assert_eq!(answer.t, query.t),
                Err(e) => assert!(matches!(e, LocaterError::UnknownDevice(_))),
            }
        }
        // The ghost query errors in place; its neighbors are still answered.
        let ghost = queries
            .iter()
            .position(|q| q.mac.as_deref() == Some("ghost"));
        assert!(results[ghost.unwrap()].is_err());
        assert!(results.iter().filter(|r| r.is_ok()).count() >= queries.len() - 1);
    }

    #[test]
    fn locate_batch_warms_cache_and_models_afterwards() {
        let locater = Locater::new(office_store(3), LocaterConfig::default());
        assert_eq!(locater.cache_stats(), (0, 0));
        let queries: Vec<Query> = (0..8)
            .map(|i| Query::by_mac("alice", clock::at(15, 9, 30, 20 + i)))
            .collect();
        let results = locater.locate_batch(&queries, 2);
        assert!(results.iter().all(Result::is_ok));
        let (edges, samples) = locater.cache_stats();
        assert!(
            edges >= 1,
            "batch contributions must reach the global graph"
        );
        assert!(samples >= 1);
    }

    #[test]
    fn locate_batch_with_cache_disabled_stores_nothing() {
        let config = LocaterConfig::default().with_cache(CacheMode::Disabled);
        let locater = Locater::new(office_store(3), config);
        let queries = batch_queries();
        let results = locater.locate_batch(&queries, 4);
        assert!(results.iter().any(Result::is_ok));
        assert_eq!(locater.cache_stats(), (0, 0));
    }

    #[test]
    fn locate_batch_on_empty_input_is_empty() {
        let locater = Locater::new(office_store(1), LocaterConfig::default());
        assert!(locater.locate_batch(&[], 4).is_empty());
    }

    #[test]
    fn location_accessors() {
        let outside = Location::Outside;
        assert!(!outside.is_inside());
        assert_eq!(outside.room(), None);
        let region = Location::Region(RegionId::new(2));
        assert!(region.is_inside());
        assert_eq!(region.region(), Some(RegionId::new(2)));
        assert_eq!(region.room(), None);
        let room = Location::Room {
            room: RoomId::new(5),
            region: RegionId::new(2),
        };
        assert_eq!(room.room(), Some(RoomId::new(5)));
        assert_eq!(room.region(), Some(RegionId::new(2)));
    }
}
