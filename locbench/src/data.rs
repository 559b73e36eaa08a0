//! Input generation: the metro_campus simulation, its preload/stream split,
//! and the seeded locate targets each workload sends. The simulator runs
//! only here, during set-up; the program under test sees only the events
//! and requests built from it.

use locater_core::metrics::{PrecisionCounts, TruthLocation};
use locater_core::system::Location;
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use locater_sim::campus::CampusConfig;
use locater_sim::{SimOutput, Simulator};
use locater_space::Space;
use locater_store::{EventStore, RawEvent};

/// Share of the simulated events preloaded; the rest is the held-out stream.
pub const PRELOAD_SHARE: f64 = 0.7;

/// Jitter applied around an event time when picking a locate target, so
/// targets land in gaps (coarse + fine work) as well as on events.
pub const JITTER_S: Timestamp = 1_800;

/// Deterministic generator for target selection (seeded by `--seed`).
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    pub fn jitter(&mut self, half_width: Timestamp) -> Timestamp {
        (self.next() % (2 * half_width as u64 + 1)) as Timestamp - half_width
    }
}

/// The simulated campus: preload, held-out stream, and ground truth.
pub struct Dataset {
    pub space: Space,
    pub preload: Vec<RawEvent>,
    pub stream: Vec<RawEvent>,
    /// Simulator output with its event list moved out (ground truth only).
    pub truth: SimOutput,
}

impl Dataset {
    /// Simulates metro_campus at default scale under `seed`.
    pub fn generate(seed: u64) -> Dataset {
        let mut truth = Simulator::new(seed).run_campus(&CampusConfig::metro());
        let mut preload = std::mem::take(&mut truth.events);
        let split = (preload.len() as f64 * PRELOAD_SHARE) as usize;
        let stream = preload.split_off(split);
        Dataset {
            space: truth.space.clone(),
            preload,
            stream,
            truth,
        }
    }

    /// The preloaded store, with per-device validity periods estimated from
    /// the data as a deployment would.
    pub fn preload_store(&self) -> EventStore {
        let mut store = EventStore::new(self.space.clone());
        store
            .ingest_batch(self.preload.iter())
            .expect("simulated events are always ingestible");
        store.estimate_deltas();
        store
    }

    pub fn truth_at(&self, mac: &str, t: Timestamp) -> TruthLocation {
        locater_bench::truth_at(&self.truth, mac, t)
    }
}

/// One locate target with its ground truth.
#[derive(Debug, Clone)]
pub struct Target {
    pub mac: String,
    pub t: Timestamp,
    pub truth: TruthLocation,
}

/// Per-device model anchors: one gap-time query per device that has a gap,
/// so answering it trains the device's coarse model over the window ending
/// there. Every later target of the device inside that window reuses it.
pub fn model_anchors(store: &EventStore) -> Vec<(DeviceId, Timestamp)> {
    let end = store
        .devices()
        .iter()
        .filter_map(|d| store.timeline_of(d.id).last().map(|e| e.t))
        .max()
        .unwrap_or(0);
    store
        .devices()
        .iter()
        .filter_map(|d| {
            let gap = store
                .gaps_of(d.id)
                .into_iter()
                .rev()
                .find(|g| g.end > g.start && g.end <= end)?;
            Some((d.id, gap.start + (gap.end - gap.start) / 2))
        })
        .collect()
}

/// `count` targets inside each anchor's model window (`history` seconds
/// ending at the anchor): half at a preloaded event jittered by up to
/// [`JITTER_S`], which the coarse step mostly answers from the covering
/// event, and half inside one of the device's gaps, which needs the trained
/// classifier.
pub fn window_targets(
    ds: &Dataset,
    store: &EventStore,
    anchors: &[(DeviceId, Timestamp)],
    history: Timestamp,
    count: usize,
    rng: &mut Lcg,
) -> Vec<Target> {
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0;
    while out.len() < count && attempts < count * 20 {
        attempts += 1;
        let (device, until) = anchors[rng.below(anchors.len())];
        let lo = until - history + JITTER_S;
        let t = if out.len() % 2 == 0 {
            let times: Vec<Timestamp> = store
                .timeline_of(device)
                .iter()
                .map(|e| e.t)
                .filter(|&t| t >= lo && t <= until)
                .collect();
            if times.is_empty() {
                continue;
            }
            (times[rng.below(times.len())] + rng.jitter(JITTER_S)).clamp(lo, until)
        } else {
            let gaps: Vec<(Timestamp, Timestamp)> = store
                .gaps_of(device)
                .iter()
                .filter(|g| g.start >= lo && g.end <= until && g.end > g.start)
                .map(|g| (g.start, g.end))
                .collect();
            if gaps.is_empty() {
                continue;
            }
            let (start, end) = gaps[rng.below(gaps.len())];
            start + (rng.next() % (end - start) as u64) as Timestamp
        };
        let mac = store.device(device).mac.as_str().to_string();
        out.push(Target {
            truth: ds.truth_at(&mac, t),
            mac,
            t,
        });
    }
    out
}

/// Accuracy against ground truth: `region_acc` is the paper's coarse
/// precision P_c, `room_acc` its overall precision P_o.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accuracy(pub PrecisionCounts);

impl Accuracy {
    pub fn record(&mut self, space: &Space, truth: TruthLocation, predicted: &Location) {
        self.0.record(space, truth, predicted);
    }

    pub fn merge(&mut self, other: &Accuracy) {
        self.0.merge(&other.0);
    }

    pub fn region_acc(&self) -> f64 {
        self.0.pc()
    }

    pub fn room_acc(&self) -> f64 {
        self.0.po()
    }

    pub fn scored(&self) -> usize {
        self.0.queries
    }
}
