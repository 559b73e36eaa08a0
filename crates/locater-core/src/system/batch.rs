//! The deterministic batch pipeline behind `Engines::locate_batch`, which
//! [`Locater::locate_batch`](super::Locater::locate_batch),
//! [`LocaterService::locate_batch`](super::LocaterService::locate_batch) and
//! [`ShardedLocaterService::locate_batch`](super::ShardedLocaterService::locate_batch)
//! all delegate to. `Engines::locate_batch` gathers the model seeds from each
//! device's home shard, freezes the union of the shard caches, calls
//! `run_batch` and merges the outcome back to the owner shards; this module
//! is the parallel middle. Each worker answers its queries with the same
//! per-query body as a single locate (`Engines::run_query`, which runs the
//! one coarse step, `CoarseLocalizer::localize_with`): the worker-local model
//! map supplies the model candidate and keeps the models trained, and the
//! frozen union is the fine step's cache plan source.
//!
//! The pipeline is built for determinism: results are **identical for every
//! `jobs` value** (including the sequential `jobs = 1` path) and are returned
//! in query order. Three properties make that hold:
//!
//! 1. every query is answered against a *frozen* snapshot of the global
//!    affinity graph (supplied by the caller: the union of every shard's
//!    cache), so no worker observes another worker's cache warming — and,
//!    unlike per-query `locate` loops, no query observes warming from
//!    *earlier batch queries* either;
//! 2. queries are grouped **by device** — a device's queries are processed by
//!    one worker in query order, so its lazily trained coarse model evolves
//!    exactly as in the sequential path (worker-local model maps are seeded
//!    from the live model cache, which is also per-device);
//! 3. the worker-local affinity contributions are handed back in ascending
//!    query order (`BatchOutcome::contributions`) and the caller applies
//!    them to the live cache(s) only after all workers join.
//!
//! Device → worker assignment balances per-device query counts greedily, so
//! skewed workloads still spread across the pool.

use super::epoch::{EpochCache, EpochRead};
use super::service::{Effective, Engines, PlanSource};
use super::{Answer, CacheMode};
use crate::coarse::DeviceCoarseModel;
use crate::error::LocaterError;
use crate::fine::NeighborContribution;
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use locater_store::EventRead;
use std::collections::HashMap;
use std::sync::Arc;

/// One batch entry: the query time, the resolved device (or the error to
/// report in place), and the per-request effective engine view.
#[derive(Debug)]
pub(crate) struct BatchItem {
    pub(crate) t: Timestamp,
    pub(crate) device: Result<DeviceId, LocaterError>,
    pub(crate) eff: Effective,
}

/// The local affinity graph of one batch-answered query, queued for the
/// post-join merge into the live cache(s).
#[derive(Debug, Clone)]
pub(crate) struct BatchContribution {
    pub(crate) query_index: usize,
    pub(crate) device: DeviceId,
    pub(crate) t: Timestamp,
    pub(crate) neighbors: Vec<NeighborContribution>,
}

/// Everything one worker produces: answers (tagged with their query index),
/// affinity contributions, and the worker-local trained models.
#[derive(Debug, Default)]
struct WorkerOutput {
    answers: Vec<(usize, Answer)>,
    contributions: Vec<BatchContribution>,
    models: HashMap<DeviceId, Arc<DeviceCoarseModel>>,
}

/// What a batch run hands back to its caller: in-order answers, affinity
/// contributions sorted by query index (apply them to the live cache in this
/// order), and the models freshly trained along the way (write them back to
/// the per-device model cache stamped with the devices' current epochs).
#[derive(Debug)]
pub(crate) struct BatchOutcome {
    pub(crate) answers: Vec<Result<Answer, LocaterError>>,
    pub(crate) contributions: Vec<BatchContribution>,
    pub(crate) trained: HashMap<DeviceId, Arc<DeviceCoarseModel>>,
}

/// `true` if any resolved item may consult the caching engine — the caller
/// only needs to snapshot the live cache(s) in that case.
pub(crate) fn wants_cache(items: &[BatchItem]) -> bool {
    items
        .iter()
        .any(|item| item.eff.cache == CacheMode::Enabled && item.device.is_ok())
}

/// Answers a batch of resolved items across `jobs` worker threads.
/// Unresolvable items error in place and never reach a worker.
///
/// `seeds` are the epoch-live per-device coarse models at batch start, taken
/// by value: each device lands in exactly one worker, so every seed moves
/// into its worker's map without another clone. `frozen` is the immutable
/// affinity-cache snapshot every worker reads. The caller owns applying
/// [`BatchOutcome::contributions`] and [`BatchOutcome::trained`] back to the
/// live state.
pub(crate) fn run_batch(
    engines: &Engines,
    store: &dyn EventRead,
    epochs: &dyn EpochRead,
    items: &[BatchItem],
    jobs: usize,
    mut seeds: HashMap<DeviceId, Arc<DeviceCoarseModel>>,
    frozen: &EpochCache,
) -> BatchOutcome {
    if items.is_empty() {
        return BatchOutcome {
            answers: Vec::new(),
            contributions: Vec::new(),
            trained: HashMap::new(),
        };
    }

    // Deterministic device → worker assignment: devices ordered by decreasing
    // query count (ties by device id) go to the least-loaded worker (ties by
    // worker index). A worker is a real thread, so the job count is capped by
    // the distinct-device count — extra workers could only ever be empty.
    let mut query_counts: HashMap<DeviceId, usize> = HashMap::new();
    for item in items {
        if let Ok(device) = item.device {
            *query_counts.entry(device).or_insert(0) += 1;
        }
    }
    let jobs = jobs.clamp(1, items.len()).min(query_counts.len().max(1));
    let mut devices: Vec<(DeviceId, usize)> = query_counts.into_iter().collect();
    devices.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut load = vec![0usize; jobs];
    let mut worker_of: HashMap<DeviceId, usize> = HashMap::new();
    for (device, count) in devices {
        let worker = (0..jobs).min_by_key(|&i| (load[i], i)).expect("jobs >= 1");
        load[worker] += count;
        worker_of.insert(device, worker);
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); jobs];
    for (idx, item) in items.iter().enumerate() {
        if let Ok(device) = item.device {
            groups[worker_of[&device]].push(idx);
        }
    }

    // Worker-local model maps seeded from the live cache: per-device state
    // crosses into exactly one worker (so seeds move, never clone),
    // preserving sequential semantics.
    let seeded: Vec<HashMap<DeviceId, Arc<DeviceCoarseModel>>> = groups
        .iter()
        .map(|indices| {
            let mut seed: HashMap<DeviceId, Arc<DeviceCoarseModel>> = HashMap::new();
            for &idx in indices {
                if let Ok(device) = items[idx].device {
                    if let Some(model) = seeds.remove(&device) {
                        seed.insert(device, model);
                    }
                }
            }
            seed
        })
        .collect();

    // Parallel phase: all workers answer against the same frozen cache. The
    // snapshot carries its epoch stamps, so stale edges stay invisible inside
    // the batch too.
    let mut outputs: Vec<WorkerOutput> = Vec::new();
    outputs.resize_with(jobs, WorkerOutput::default);
    rayon::scope(|scope| {
        for ((indices, seed), out) in groups.iter().zip(seeded).zip(outputs.iter_mut()) {
            if indices.is_empty() {
                continue;
            }
            scope.spawn(move |_| {
                *out = run_worker(engines, store, epochs, items, indices, seed, frozen);
            });
        }
    });

    // Deterministic merge: contributions in query order, models per device.
    let mut answers: Vec<Option<Answer>> = vec![None; items.len()];
    let mut contributions: Vec<BatchContribution> = Vec::new();
    let mut trained: HashMap<DeviceId, Arc<DeviceCoarseModel>> = HashMap::new();
    for output in outputs {
        for (idx, answer) in output.answers {
            answers[idx] = Some(answer);
        }
        contributions.extend(output.contributions);
        trained.extend(output.models);
    }
    contributions.sort_by_key(|c| c.query_index);

    let answers = answers
        .into_iter()
        .zip(items)
        .map(|(answer, item)| match &item.device {
            Ok(_) => Ok(answer.expect("every resolved query is answered by its worker")),
            Err(e) => Err(e.clone()),
        })
        .collect();
    BatchOutcome {
        answers,
        contributions,
        trained,
    }
}

/// Answers one worker's queries (in query order) through the per-query body
/// `Engines::run_query`: the candidate model comes from the worker-local map,
/// every fine plan reads the frozen cache, and the worker collects answers,
/// affinity contributions, and freshly trained models (untouched seed models
/// are not reported back).
fn run_worker(
    engines: &Engines,
    store: &dyn EventRead,
    epochs: &dyn EpochRead,
    items: &[BatchItem],
    indices: &[usize],
    mut models: HashMap<DeviceId, Arc<DeviceCoarseModel>>,
    cache: &EpochCache,
) -> WorkerOutput {
    let mut output = WorkerOutput::default();
    for &idx in indices {
        let item = &items[idx];
        let Ok(device) = item.device else { continue };
        let (answer, diagnostics, trained) = engines.run_query(
            store,
            epochs,
            device,
            item.t,
            || models.get(&device).cloned(),
            Some((&item.eff, PlanSource::Frozen(cache))),
        );
        if let Some(model) = trained {
            models.insert(device, model.clone());
            output.models.insert(device, model);
        }
        if let Some(fine) = diagnostics.fine {
            if item.eff.cache == CacheMode::Enabled && !fine.contributions.is_empty() {
                output.contributions.push(BatchContribution {
                    query_index: idx,
                    device,
                    t: item.t,
                    neighbors: fine.contributions,
                });
            }
        }
        output.answers.push((idx, answer));
    }
    output
}
