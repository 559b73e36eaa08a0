//! The sharded live service: N independent per-device partitions behind one
//! query API.
//!
//! LOCATER's pipeline is embarrassingly partitionable by device — coarse
//! localization, δ estimation, epochs and model state are per-device, and only
//! the fine-grained affinity step reads across devices. The
//! [`ShardedLocaterService`] exploits that: each shard owns its own segmented
//! [`EventStore`], [`EpochTable`] and write-ahead log behind one `RwLock`,
//! plus its slice of the engine's caches (affinity edges and coarse models),
//! so **concurrent ingests for different devices never contend on a lock**.
//! Cross-device reads go through a read-only multi-shard view
//! ([`locater_store::ShardedRead`]) assembled from per-shard read guards taken
//! in ascending shard order.
//!
//! This type keeps the store partitions, WAL, compaction and durability.
//! Queries and batches delegate to the one query engine (`service::Engines`),
//! which also owns the placement of cached state.
//!
//! ## State placement
//!
//! | State | Lives in |
//! |---|---|
//! | device `d`'s timeline, epoch counter, coarse model | `d`'s home shard ([`ShardedLocaterService::home_shard`]) |
//! | device table (ids, MACs, δs) | replicated in every shard store |
//! | affinity edge `{a, b}` | the home shard of `min(a, b)` |
//!
//! ## Equivalence
//!
//! Answers are **byte-identical to a single-shard
//! [`LocaterService`](super::LocaterService)** for
//! every shard count — the public [`LocaterService`](super::LocaterService)
//! *is* the `shards = 1`
//! special case of this type. The canonical `(t, device)` order of the global
//! timeline index makes the merged neighbor scan representation-transparent,
//! and edge/model/epoch placement partitions (never duplicates) the state a
//! single-shard deployment would hold. `tests/shard_equivalence.rs` enforces
//! this for LCG-seeded ingest/locate interleavings at N ∈ {2, 3, 8}.

use super::batch::BatchItem;
use super::epoch::{EpochRead, EpochTable};
use super::request::{LocateRequest, LocateResponse};
use super::service::{resolve_target, Engines, ShardedEpochs};
use super::LocaterConfig;
use crate::error::LocaterError;
use locater_events::clock::Timestamp;
use locater_events::validity::estimate_delta_events;
use locater_events::{DeviceId, EventId};
use locater_space::Space;
use locater_store::recovery::{
    initialize_wal, recover_store_io, write_checkpoint_io, RecoveryReport,
};
use locater_store::{
    compaction, CompactionReport, Durability, DwellSummary, EventRead, EventStore, IngestError,
    RawEvent, RealIo, ShardWal, ShardedRead, StorageIo, StoreError, WalError, WalRecord,
    WalShardStats,
};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The mutable half of one shard: its partition of the event store, the epoch
/// table authoritative for its owned devices, and (when durability is
/// configured) the shard's write-ahead log — all updated together under one
/// lock, so a query always sees a consistent `(store, epochs)` pair and the
/// WAL append is part of the same mutation as the in-memory append.
#[derive(Debug)]
struct ShardLive {
    store: EventStore,
    epochs: EpochTable,
    wal: Option<ShardWal>,
}

/// Per-shard observability counters reported by
/// [`ShardedLocaterService::shard_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Events stored in this shard's partition.
    pub events: usize,
    /// Devices whose home shard this is (their timelines, epochs and models
    /// live here).
    pub owned_devices: usize,
    /// Affinity edges physically held by this shard's cache (live and stale).
    pub edges: usize,
    /// Affinity edges live under the current epochs.
    pub live_edges: usize,
    /// Affinity samples physically held (live and stale).
    pub samples: usize,
    /// Affinity samples live under the current epochs.
    pub live_samples: usize,
    /// Co-location-index posting lists held by this shard's store partition
    /// (one per `(owned device, access point)` pair with events).
    pub index_ap_lists: usize,
    /// Co-location-index time buckets across those posting lists.
    pub index_buckets: usize,
    /// Mutable head segments in this shard's partition (one per owned device
    /// with retained history).
    pub head_segments: usize,
    /// Sealed (immutable) segments in this shard's partition.
    pub sealed_segments: usize,
    /// Approximate resident heap bytes of this shard's store partition.
    pub resident_bytes: usize,
}

/// Service-wide compaction gauges reported by
/// [`ShardedLocaterService::compaction_status`] (and surfaced through the
/// server's `stats` response and `locater-cli stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStatus {
    /// Compaction runs since boot that evicted at least one event.
    pub runs: u64,
    /// Events evicted from the hot tier since boot.
    pub evicted_events: u64,
    /// Sealed segments evicted since boot.
    pub evicted_segments: u64,
    /// The bucket-aligned cut of the most recent effective run, if any:
    /// every event with `t <` this is out of the hot tier.
    pub last_cut: Option<Timestamp>,
    /// Dwell-summary rows currently accumulated in the summary tier.
    pub summary_rows: usize,
}

/// In-memory compaction state: cumulative gauges plus the accumulated
/// summary tier (also persisted to the spill directory when one is given).
#[derive(Debug, Default)]
struct CompactionState {
    status: CompactionStatus,
    summaries: Vec<DwellSummary>,
}

/// Service-wide write-ahead-log gauges reported by
/// [`ShardedLocaterService::wal_status`] (and surfaced through the server's
/// `stats` response) when durability is configured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalStatus {
    /// The WAL directory.
    pub dir: String,
    /// The configured fsync policy, rendered (`always` / `every=N` /
    /// `interval=MS`).
    pub fsync: String,
    /// Live segment files across all shards.
    pub segments: u64,
    /// Frames (logged events) across all shards — the replay cost of a crash
    /// right now.
    pub frames: u64,
    /// Bytes across all shard logs (segment headers included).
    pub bytes: u64,
    /// Milliseconds since the last checkpoint (boot counts as one).
    pub last_checkpoint_age_ms: u64,
    /// Checkpoints taken since boot (the boot checkpoint included).
    pub checkpoints: u64,
    /// Per-shard breakdown.
    pub per_shard: Vec<WalShardStats>,
}

/// The store and epoch views over a set of shard read guards.
fn views<'a>(guards: &'a [RwLockReadGuard<'_, ShardLive>]) -> (ShardedRead<'a>, ShardedEpochs<'a>) {
    let view = ShardedRead::new(guards.iter().map(|guard| &guard.store).collect());
    let epochs = ShardedEpochs {
        tables: guards.iter().map(|guard| &guard.epochs).collect(),
    };
    (view, epochs)
}

/// One store holding every shard partition's events: a clone when there is
/// one shard, else [`EventStore::rejoin`].
fn combined_store(stores: Vec<&EventStore>) -> EventStore {
    match stores.as_slice() {
        [only] => (*only).clone(),
        _ => EventStore::rejoin(stores).expect("shards of one service always rejoin"),
    }
}

/// The sharded live LOCATER service: online ingestion + query answering over
/// `N` per-device partitions (see the [module docs](self) for the design).
///
/// The public API mirrors [`LocaterService`](super::LocaterService) — which is
/// exactly this type with one shard — and answers are byte-identical for every
/// shard count. Use more shards when concurrent ingest throughput matters:
/// an ingest for a known device write-locks only the device's home shard.
///
/// ```
/// use locater_core::system::{LocateRequest, LocaterConfig, ShardedLocaterService};
/// use locater_space::SpaceBuilder;
/// use locater_store::EventStore;
///
/// let space = SpaceBuilder::new("demo")
///     .add_access_point("wap1", &["101", "102"])
///     .build()
///     .unwrap();
/// let service =
///     ShardedLocaterService::new(EventStore::new(space), LocaterConfig::default(), 4);
/// assert_eq!(service.num_shards(), 4);
///
/// // Ingest routes each event to the device's home shard.
/// service.ingest("aa:bb:cc:dd:ee:01", 1_000, "wap1").unwrap();
/// service.ingest("aa:bb:cc:dd:ee:01", 4_000, "wap1").unwrap();
///
/// // Queries answer over the multi-shard view, identically to one shard.
/// let response = service
///     .locate(&LocateRequest::by_mac("aa:bb:cc:dd:ee:01", 2_500))
///     .unwrap();
/// assert!(response.answer.is_inside());
/// assert_eq!(response.device_epoch, 2);
/// ```
#[derive(Debug)]
pub struct ShardedLocaterService {
    /// Each shard's mutable `(store, epochs, wal)` triple, one lock each.
    live: Vec<RwLock<ShardLive>>,
    /// The query engine, with the per-shard caches and model maps.
    engines: Engines,
    /// Global event-id sequence: ids stay globally sequential across shards
    /// (each append aligns the owning shard's counter from here), so the
    /// rejoined store is bit-identical to a single-shard deployment's.
    next_event_id: AtomicU64,
    /// Durability configuration when a WAL is attached
    /// ([`ShardedLocaterService::with_durability`]); `None` for the default
    /// in-memory-only service.
    durability: Option<Durability>,
    /// When the last checkpoint was written (boot counts as one).
    last_checkpoint: Mutex<Option<Instant>>,
    /// Checkpoints taken since boot.
    checkpoints: AtomicU64,
    /// Compaction gauges and the in-memory summary tier. Held briefly by
    /// compaction runs and `stats` reads — never while a shard lock is held
    /// for ingest or query work.
    compaction: Mutex<CompactionState>,
}

impl ShardedLocaterService {
    /// Creates a service over an initial (possibly empty) store, partitioned
    /// into `shards` per-device shards (clamped to at least 1).
    pub fn new(store: EventStore, config: LocaterConfig, shards: usize) -> Self {
        Self::from_parts(store, Engines::new(config, shards))
    }

    /// Builds a service around existing engines (cache and model state carry
    /// over), splitting `store` into the engines' shard count — also the
    /// [`Locater::into_service`](super::Locater::into_service) conversion path.
    pub(crate) fn from_parts(store: EventStore, engines: Engines) -> Self {
        let next_event_id = AtomicU64::new(store.next_event_id());
        let live = store
            .split(engines.num_shards())
            .into_iter()
            .map(|store| {
                RwLock::new(ShardLive {
                    store,
                    epochs: EpochTable::new(),
                    wal: None,
                })
            })
            .collect();
        Self {
            live,
            engines,
            next_event_id,
            durability: None,
            last_checkpoint: Mutex::new(None),
            checkpoints: AtomicU64::new(0),
            compaction: Mutex::new(CompactionState::default()),
        }
    }

    /// Creates a durable service: recovers whatever state the WAL directory
    /// holds (checkpoint snapshot + log tails — `store` is the fallback base
    /// when no checkpoint exists yet, e.g. a CSV preload on first boot),
    /// writes a fresh boot checkpoint, and attaches one write-ahead log per
    /// shard so every subsequent ingest is logged inside the same per-shard
    /// mutation that applies it. Returns the service and the
    /// [`RecoveryReport`] describing what was recovered.
    ///
    /// The boot checkpoint makes shard-count changes safe: the recovered
    /// state is captured in one combined snapshot and the logs restart empty,
    /// so the on-disk layout never mixes records from different shardings.
    pub fn with_durability(
        store: EventStore,
        config: LocaterConfig,
        shards: usize,
        durability: Durability,
    ) -> Result<(Self, RecoveryReport), WalError> {
        let (store, report) = recover_store_io(&durability.dir, store, durability.io.as_ref())?;
        let writers = initialize_wal(&durability, &store, shards.max(1))?.0;
        let mut service = Self::new(store, config, shards);
        for (live, wal) in service.live.iter().zip(writers) {
            live.write().wal = Some(wal);
        }
        *service.last_checkpoint.lock() = Some(Instant::now());
        service.checkpoints.store(1, Ordering::Relaxed);
        service.durability = Some(durability);
        Ok((service, report))
    }

    /// Cold-starts a sharded service from a binary snapshot (the same file
    /// format a single-shard deployment writes — the store is split after
    /// loading).
    pub fn from_snapshot(
        path: impl AsRef<Path>,
        config: LocaterConfig,
        shards: usize,
    ) -> Result<Self, StoreError> {
        Ok(Self::new(EventStore::load_snapshot(path)?, config, shards))
    }

    /// Number of shards the service is partitioned into.
    pub fn num_shards(&self) -> usize {
        self.live.len()
    }

    /// The home shard of a device under this service's shard count.
    pub fn home_shard(&self, device: DeviceId) -> usize {
        self.engines.home(device)
    }

    /// The system configuration (per-request overrides are applied on top).
    pub fn config(&self) -> &LocaterConfig {
        &self.engines.config
    }

    /// Read guards on every shard, taken in ascending shard order (the
    /// service-wide lock order; writers acquire in the same order).
    fn read_all(&self) -> Vec<RwLockReadGuard<'_, ShardLive>> {
        self.live.iter().map(RwLock::read).collect()
    }

    /// Write guards on every shard, in ascending shard order.
    fn write_all(&self) -> Vec<RwLockWriteGuard<'_, ShardLive>> {
        self.live.iter().map(RwLock::write).collect()
    }

    // ------------------------------------------------------------------
    // Ingestion
    // ------------------------------------------------------------------

    /// Appends one connectivity event (access point given by name, as found in
    /// logs) and bumps the device's epoch.
    ///
    /// For a device the service has already seen, only the device's **home
    /// shard** is write-locked — ingests for devices on different shards
    /// proceed fully in parallel. The first event of a new device takes a
    /// brief all-shard write lock to intern it into every replicated device
    /// table at the same dense id.
    pub fn ingest(&self, mac: &str, t: Timestamp, ap_name: &str) -> Result<EventId, IngestError> {
        self.ingest_tagged(mac, t, ap_name, None)
    }

    /// [`ingest`](Self::ingest) carrying the client's idempotency token. When
    /// the shard is durable, the token is persisted inside the event's WAL
    /// frame, so crash recovery can report which acked ingests a retrying
    /// client might replay (see `RecoveryReport::acked_ingests`) — without it,
    /// a replay-dedup cache cannot survive a restart.
    pub fn ingest_tagged(
        &self,
        mac: &str,
        t: Timestamp,
        ap_name: &str,
        request_id: Option<u64>,
    ) -> Result<EventId, IngestError> {
        let known = self.live[0].read().store.device_id(mac);
        if let Some(device) = known {
            let mut live = self.live[self.home_shard(device)].write();
            live.store.validate_raw(t, ap_name)?;
            let id = self.sequenced_ingest(&mut live, mac, t, ap_name, request_id)?;
            live.epochs.bump(device);
            return Ok(id);
        }
        // New device: intern into every shard under the full lock so the
        // replicated tables assign the same dense id everywhere.
        let mut guards = self.write_all();
        let device = Self::intern_everywhere(&mut guards, mac, t, ap_name)?;
        let home = self.home_shard(device);
        let id = self.sequenced_ingest(&mut guards[home], mac, t, ap_name, request_id)?;
        guards[home].epochs.bump(device);
        Ok(id)
    }

    /// Appends one pre-validated event, drawing its id from the service-wide
    /// sequence so ids stay globally sequential across shards. When the shard
    /// carries a write-ahead log, the record is appended to the log *before*
    /// the in-memory apply, under the same shard write lock (log-then-apply):
    /// the event is pre-validated and its device already interned, so an
    /// event that reached the log always applies — the store never runs ahead
    /// of what recovery can reproduce. A failed log append rejects the event
    /// ([`IngestError::Wal`]) without mutating the store; the drawn id is
    /// skipped, which recovery tolerates (ids are merged, not assumed dense).
    fn sequenced_ingest(
        &self,
        live: &mut ShardLive,
        mac: &str,
        t: Timestamp,
        ap_name: &str,
        request_id: Option<u64>,
    ) -> Result<EventId, IngestError> {
        let id = self.next_event_id.fetch_add(1, Ordering::Relaxed);
        if let Some(wal) = live.wal.as_mut() {
            let ap = live.store.validate_raw(t, ap_name)?;
            wal.append(&WalRecord {
                id,
                t,
                ap: ap.raw(),
                mac: mac.to_string(),
                request_id,
            })
            .map_err(|e| IngestError::Wal(e.to_string()))?;
        }
        live.store.set_next_event_id(id);
        live.store.ingest_raw(mac, t, ap_name)
    }

    /// Appends a batch of raw events under one all-shard write lock (the batch
    /// is atomic with respect to queries), stopping at the first error —
    /// events before it are kept and their devices' epochs bumped. Returns the
    /// number of events appended.
    pub fn ingest_batch<'a>(
        &self,
        events: impl IntoIterator<Item = &'a RawEvent>,
    ) -> Result<usize, IngestError> {
        let mut guards = self.write_all();
        let mut count = 0usize;
        for event in events {
            let device = match guards[0].store.device_id(&event.mac) {
                Some(device) => device,
                None => Self::intern_everywhere(&mut guards, &event.mac, event.t, &event.ap)?,
            };
            guards[0].store.validate_raw(event.t, &event.ap)?;
            let home = self.home_shard(device);
            // Batch tokens are not persisted per event: a batch is acked only
            // as a whole, and a partially durable batch must re-execute on
            // retry, so its replay window stays in-memory (see the server's
            // dedup cache).
            self.sequenced_ingest(&mut guards[home], &event.mac, event.t, &event.ap, None)?;
            guards[home].epochs.bump(device);
            count += 1;
        }
        Ok(count)
    }

    /// Interns a new device into every shard's replicated table, validating
    /// the event first so an invalid event interns nothing (mirroring the
    /// error order of [`EventStore::ingest_raw`]: access point, then
    /// timestamp, then MAC).
    fn intern_everywhere(
        guards: &mut [RwLockWriteGuard<'_, ShardLive>],
        mac: &str,
        t: Timestamp,
        ap_name: &str,
    ) -> Result<DeviceId, IngestError> {
        // Re-check under the write lock: another ingest may have interned the
        // device between our read probe and lock acquisition.
        if let Some(device) = guards[0].store.device_id(mac) {
            return Ok(device);
        }
        guards[0].store.validate_raw(t, ap_name)?;
        let mut device = None;
        for guard in guards.iter_mut() {
            let interned = guard.store.intern_device(mac)?;
            debug_assert!(device.is_none() || device == Some(interned));
            device = Some(interned);
        }
        Ok(device.expect("at least one shard"))
    }

    /// Re-estimates every device's validity period δ from its history (held by
    /// its home shard), writes the result into every replicated device table,
    /// and bumps **all** epochs: changing δ reshapes every device's gap
    /// structure, so all cached state is invalidated.
    pub fn reestimate_deltas(&self) {
        let mut guards = self.write_all();
        let num_devices = guards[0].store.num_devices();
        let deltas: Vec<Timestamp> = (0..num_devices)
            .map(|idx| {
                let device = DeviceId::new(idx as u32);
                let home = &guards[self.home_shard(device)].store;
                estimate_delta_events(home.timeline_of(device).iter(), home.validity_config())
            })
            .collect();
        for guard in guards.iter_mut() {
            for (idx, &delta) in deltas.iter().enumerate() {
                guard.store.set_delta(DeviceId::new(idx as u32), delta);
            }
            guard.epochs.bump_all(num_devices);
        }
    }

    /// Overrides one device's validity period δ in every replicated device
    /// table and bumps its epoch.
    pub fn set_delta(&self, device: DeviceId, delta: Timestamp) {
        let mut guards = self.write_all();
        for guard in guards.iter_mut() {
            guard.store.set_delta(device, delta);
        }
        guards[self.home_shard(device)].epochs.bump(device);
    }

    /// Bumps one device's epoch without touching the store, invalidating every
    /// cached value derived from its history.
    pub fn invalidate_device(&self, device: DeviceId) {
        self.live[self.home_shard(device)]
            .write()
            .epochs
            .bump(device);
    }

    /// Bumps every device's epoch, invalidating all cached state at once.
    pub fn invalidate_all(&self) {
        let mut guards = self.write_all();
        let num_devices = guards[0].store.num_devices();
        for guard in guards.iter_mut() {
            guard.epochs.bump_all(num_devices);
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Resolves the device a request refers to (the device table is replicated,
    /// so one shard answers).
    pub fn resolve(&self, request: &LocateRequest) -> Result<DeviceId, LocaterError> {
        let live = self.live[0].read();
        resolve_target(&live.store, request.mac.as_deref(), request.device)
    }

    /// Answers one request over the multi-shard view. Holds every shard's read
    /// lock for the duration of the query (acquired in ascending order), so
    /// concurrent queries proceed in parallel, but an ingest on any shard
    /// waits for every in-flight query, coarse-model training included.
    pub fn locate(&self, request: &LocateRequest) -> Result<LocateResponse, LocaterError> {
        self.answer(request, true)
    }

    /// Answers one request with the coarse step only — the *degraded* path a
    /// server takes when a request's deadline has already expired: the room
    /// stays unknown ([`Location::Region`](super::Location::Region)) but the
    /// caller still learns whether the device was inside and where, at
    /// coarse-step cost (no neighbor scan, no fine-step iterations, no cache
    /// writes). It reuses and caches coarse models exactly like
    /// [`Self::locate`].
    pub fn locate_coarse(&self, request: &LocateRequest) -> Result<LocateResponse, LocaterError> {
        self.answer(request, false)
    }

    /// [`Self::locate`] (`fine = true`) or [`Self::locate_coarse`]: the same
    /// engine call, with or without the fine step. Coarse-only responses
    /// carry no diagnostics.
    fn answer(&self, request: &LocateRequest, fine: bool) -> Result<LocateResponse, LocaterError> {
        let guards = self.read_all();
        let (view, epochs) = views(&guards);
        let device = resolve_target(&view, request.mac.as_deref(), request.device)?;
        let eff = self.engines.effective_for(request);
        let (answer, diagnostics) =
            self.engines
                .locate_detailed(&view, &epochs, device, request.t, fine.then_some(&eff));
        Ok(LocateResponse {
            answer,
            device_epoch: epochs.epoch_of(device),
            events_seen: view.num_events(),
            diagnostics: (fine && request.diagnostics).then_some(diagnostics),
        })
    }

    /// Answers a batch of requests through the deterministic batch pipeline
    /// (see [`super::batch`]): requests are grouped by device across `jobs`
    /// worker threads, answered against a frozen union snapshot of every
    /// shard's affinity cache, and the results merge back to each edge's and
    /// model's owner shard in query order. Responses are identical for every
    /// `jobs` value **and every shard count**, in request order; batch
    /// responses carry no diagnostics.
    pub fn locate_batch(
        &self,
        requests: &[LocateRequest],
        jobs: usize,
    ) -> Vec<Result<LocateResponse, LocaterError>> {
        let guards = self.read_all();
        let (view, epochs) = views(&guards);
        let items: Vec<BatchItem> = requests
            .iter()
            .map(|request| BatchItem {
                t: request.t,
                device: resolve_target(&view, request.mac.as_deref(), request.device),
                eff: self.engines.effective_for(request),
            })
            .collect();
        let answers = self.engines.locate_batch(&view, &epochs, &items, jobs);
        let events_seen = view.num_events();
        answers
            .into_iter()
            .zip(&items)
            .map(|(answer, item)| {
                answer.map(|answer| LocateResponse {
                    device_epoch: item
                        .device
                        .as_ref()
                        .map(|&d| epochs.epoch_of(d))
                        .unwrap_or(0),
                    events_seen,
                    answer,
                    diagnostics: None,
                })
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Observability & maintenance
    // ------------------------------------------------------------------

    /// The current ingest epoch of a device (0 for devices never ingested
    /// through the service).
    pub fn device_epoch(&self, device: DeviceId) -> u64 {
        self.live[self.home_shard(device)].read().epochs.of(device)
    }

    /// The space metadata the service answers over.
    pub fn space(&self) -> Arc<Space> {
        self.live[0].read().store.space().clone()
    }

    /// Looks up a device id by MAC address / log identifier.
    pub fn device_id(&self, mac: &str) -> Option<DeviceId> {
        self.live[0].read().store.device_id(mac)
    }

    /// Runs `f` with read access to one shard's store partition (the lock is
    /// held for the duration of the closure — keep it short). With one shard,
    /// shard 0 holds the whole dataset.
    pub fn with_shard_store<R>(&self, shard: usize, f: impl FnOnce(&EventStore) -> R) -> R {
        f(&self.live[shard].read().store)
    }

    /// A combined clone of the current store — the basis of the service's
    /// answers at this instant, reassembled from the shard partitions
    /// ([`EventStore::rejoin`]); bit-identical to what a single-shard service
    /// over the same events would hold. Useful for rebuild-equivalence checks
    /// and snapshots.
    pub fn store_snapshot(&self) -> EventStore {
        combined_store(self.read_all().iter().map(|guard| &guard.store).collect())
    }

    /// Persists the combined store as one binary snapshot — the same file a
    /// single-shard deployment writes, loadable with any shard count
    /// ([`ShardedLocaterService::from_snapshot`]).
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        self.store_snapshot().save_snapshot(path)
    }

    /// The durability configuration, when a WAL is attached.
    pub fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// Checkpoints the durable service: writes one consistent combined
    /// snapshot (atomically, under the all-shard write lock so no ingest can
    /// land between a shard's log and the snapshot) and trims every shard's
    /// log. After this, recovery loads the snapshot and replays nothing — a
    /// clean shutdown that checkpoints leaves an empty tail. Returns the
    /// checkpoint size in bytes, or `None` when the service has no WAL.
    pub fn checkpoint(&self) -> Result<Option<u64>, WalError> {
        let Some(durability) = self.durability.as_ref() else {
            return Ok(None);
        };
        let mut guards = self.write_all();
        let combined = combined_store(guards.iter().map(|guard| &guard.store).collect());
        let bytes = write_checkpoint_io(&durability.dir, &combined, durability.io.as_ref())?;
        for guard in guards.iter_mut() {
            if let Some(wal) = guard.wal.as_mut() {
                wal.reset()?;
            }
        }
        *self.last_checkpoint.lock() = Some(Instant::now());
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(Some(bytes))
    }

    /// Takes a *delta snapshot*: seals every shard's active segment (fsync +
    /// rotate), making everything ingested so far durable and immutable
    /// without rewriting the (much larger) checkpoint snapshot. No-op without
    /// a WAL.
    pub fn seal_wal(&self) -> Result<(), WalError> {
        let mut guards = self.write_all();
        for guard in guards.iter_mut() {
            if let Some(wal) = guard.wal.as_mut() {
                wal.seal()?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Compaction / tiered ageing
    // ------------------------------------------------------------------

    /// The service's event-time watermark: the timestamp of the newest stored
    /// event, or `None` while empty. [`Self::compact_all`] retains relative to
    /// this, so retention follows event time (deterministic under replay and
    /// in simulations), never the wall clock.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.read_all()
            .iter()
            .filter_map(|guard| guard.store.time_span().map(|span| span.end - 1))
            .max()
    }

    /// Compacts every shard to `horizon`: sealed segment buckets entirely
    /// below the bucket-aligned cut leave the hot tier, are distilled into
    /// dwell summaries (accumulated in memory and reported by
    /// [`Self::compaction_status`]), and — when `spill_dir` is given — are
    /// persisted as a `spill-<cut>.snap` snapshot plus the merged
    /// `summaries.json`.
    ///
    /// Scheduling properties, in the order they matter operationally:
    ///
    /// * **off the ingest path** — shards are compacted sequentially, one
    ///   shard write lock at a time, so ingest and queries on every other
    ///   shard proceed throughout the run;
    /// * **epoch-safe** — no device epoch is bumped: answers whose consulted
    ///   window lies inside the retained history are byte-identical before
    ///   and after, so every cached affinity and model stays valid;
    /// * **WAL-coherent** — on a durable service an effective run is followed
    ///   by a [`Self::checkpoint`], so recovery restarts from the compacted
    ///   state instead of resurrecting evicted history from an old snapshot
    ///   (either way answers in the retained window are unchanged).
    ///
    /// Returns the updated cumulative [`CompactionStatus`]. A run that evicts
    /// nothing is a cheap no-op (no summary merge, no spill file, no
    /// checkpoint).
    pub fn compact_to(
        &self,
        horizon: Timestamp,
        spill_dir: Option<&Path>,
    ) -> Result<CompactionStatus, WalError> {
        let mut evicted_events = 0usize;
        let mut evicted_segments = 0usize;
        let mut cut = horizon;
        let mut summaries: Vec<DwellSummary> = Vec::new();
        let mut spills: Vec<EventStore> = Vec::new();
        for live in &self.live {
            let report = live.write().store.compact(horizon);
            cut = report.cut;
            if report.evicted_events == 0 {
                continue;
            }
            evicted_events += report.evicted_events;
            evicted_segments += report.evicted_segments;
            compaction::merge_dwell_summaries(&mut summaries, &report.summaries);
            spills.extend(report.spill);
        }

        let status = {
            let mut state = self.compaction.lock();
            if evicted_events > 0 {
                state.status.runs += 1;
                state.status.evicted_events += evicted_events as u64;
                state.status.evicted_segments += evicted_segments as u64;
                state.status.last_cut = Some(cut);
                compaction::merge_dwell_summaries(&mut state.summaries, &summaries);
                state.status.summary_rows = state.summaries.len();
            }
            state.status
        };
        if evicted_events == 0 {
            return Ok(status);
        }

        if let Some(dir) = spill_dir {
            let combined = CompactionReport {
                horizon,
                cut,
                evicted_events,
                evicted_segments,
                summaries,
                spill: compaction::merge_spills(spills),
            };
            let io: &dyn StorageIo = match self.durability.as_ref() {
                Some(durability) => durability.io.as_ref(),
                None => &RealIo,
            };
            compaction::persist_tiers_io(dir, &combined, io)?;
        }
        if self.durability.is_some() {
            self.checkpoint()?;
        }
        Ok(status)
    }

    /// Compacts relative to the event-time watermark: keeps the most recent
    /// `retain` seconds of history (rounded down to a whole segment bucket)
    /// and ages out everything older — the periodic maintenance call a
    /// long-running server makes. A no-op on an empty service.
    pub fn compact_all(
        &self,
        retain: Timestamp,
        spill_dir: Option<&Path>,
    ) -> Result<CompactionStatus, WalError> {
        match self.watermark() {
            Some(watermark) => self.compact_to(watermark.saturating_sub(retain), spill_dir),
            None => Ok(self.compaction_status()),
        }
    }

    /// The cumulative compaction gauges (runs, evictions, last cut, summary
    /// rows) since boot.
    pub fn compaction_status(&self) -> CompactionStatus {
        self.compaction.lock().status
    }

    /// The accumulated summary-tier rows (per-device per-AP dwell statistics
    /// of all evicted history) — the training input that outlives the raw
    /// events.
    pub fn dwell_summaries(&self) -> Vec<DwellSummary> {
        self.compaction.lock().summaries.clone()
    }

    /// Approximate resident heap bytes across all shard stores (allocated
    /// capacity of timelines, global index and posting lists) — the gauge the
    /// soak harness asserts stays flat under compaction.
    pub fn approx_resident_bytes(&self) -> usize {
        self.read_all()
            .iter()
            .map(|guard| guard.store.approx_resident_bytes())
            .sum()
    }

    /// Current WAL gauges (`None` when the service has no WAL): per-shard and
    /// summed segment/frame/byte counts, fsync policy, checkpoint age.
    pub fn wal_status(&self) -> Option<WalStatus> {
        let durability = self.durability.as_ref()?;
        let guards = self.read_all();
        let per_shard: Vec<WalShardStats> = guards
            .iter()
            .filter_map(|guard| guard.wal.as_ref().map(|wal| wal.stats()))
            .collect();
        let age = self
            .last_checkpoint
            .lock()
            .map(|at| at.elapsed().as_millis() as u64)
            .unwrap_or(0);
        Some(WalStatus {
            dir: durability.dir.display().to_string(),
            fsync: durability.fsync.to_string(),
            segments: per_shard.iter().map(|s| s.segments).sum(),
            frames: per_shard.iter().map(|s| s.frames).sum(),
            bytes: per_shard.iter().map(|s| s.bytes).sum(),
            last_checkpoint_age_ms: age,
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            per_shard,
        })
    }

    /// Total number of events currently stored across all shards.
    pub fn num_events(&self) -> usize {
        self.read_all()
            .iter()
            .map(|guard| guard.store.num_events())
            .sum()
    }

    /// Number of distinct devices currently known (the device table is
    /// replicated, so one shard answers).
    pub fn num_devices(&self) -> usize {
        self.live[0].read().store.num_devices()
    }

    /// Number of edges and samples physically held across all shard caches,
    /// including stale ones awaiting eviction.
    pub fn cache_stats(&self) -> (usize, usize) {
        self.engines.cache_stats()
    }

    /// Number of edges and samples live under the current epochs across all
    /// shard caches — the state queries can actually observe.
    pub fn live_cache_stats(&self) -> (usize, usize) {
        let guards = self.read_all();
        self.engines.live_cache_stats(&views(&guards).1)
    }

    /// Per-shard event/device/cache counters (what `locater-cli serve`'s
    /// `stats` command prints).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let guards = self.read_all();
        let (_, epochs) = views(&guards);
        guards
            .iter()
            .enumerate()
            .map(|(index, live)| {
                let store = &live.store;
                let owned_devices = (0..store.num_devices())
                    .filter(|&idx| self.home_shard(DeviceId::new(idx as u32)) == index)
                    .count();
                let cache = self.engines.cache(index);
                let (edges, samples) = cache.stats();
                let (live_edges, live_samples) = cache.live_stats(&epochs);
                let colocation = store.colocation_stats();
                let tiers = store.tier_stats();
                ShardStats {
                    shard: index,
                    events: store.num_events(),
                    owned_devices,
                    edges,
                    live_edges,
                    samples,
                    live_samples,
                    index_ap_lists: colocation.ap_lists,
                    index_buckets: colocation.buckets,
                    head_segments: tiers.head_segments,
                    sealed_segments: tiers.sealed_segments,
                    resident_bytes: tiers.resident_bytes,
                }
            })
            .collect()
    }

    /// Eagerly evicts epoch-stale affinity edges and coarse models from every
    /// shard, returning `(edges_evicted, models_evicted)`. Optional
    /// maintenance — queries never observe stale state either way.
    pub fn purge_stale(&self) -> (usize, usize) {
        let guards = self.read_all();
        self.engines.purge_stale(&views(&guards).1)
    }

    /// Drops all cached affinities and per-device coarse models on every shard
    /// (epochs are untouched; prefer letting epoch invalidation work instead).
    pub fn clear_cache(&self) {
        self.engines.clear_cache();
    }
}
