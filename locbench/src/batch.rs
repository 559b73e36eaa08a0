//! batch_clean: the paper's offline cleaning setting. A fixed query set is
//! answered by `ShardedLocaterService::locate_batch(jobs = nproc)` against
//! the preloaded store, in requests of [`CHUNK`] queries, each pass on a
//! fresh service so models start cold. No wire, no WAL, no lock contention.

use crate::data::{model_anchors, window_targets, Accuracy, Dataset, Lcg, Target};
use crate::report::{Gates, Metrics};
use crate::serve::{direct_layer_calls, system_and_engine_metrics, Layers};
use crate::stats::{median, Latencies, Sample};
use crate::trace::Trace;
use crate::Args;
use locater_core::system::{LocateRequest, LocateResponse, LocaterConfig, ShardedLocaterService};
use locater_proto::{encode_response, WireResponse};
use locater_store::EventStore;
use std::time::{Duration, Instant};

/// Queries per `locate_batch` request.
pub const CHUNK: usize = 32;
/// Queries per device with a model anchor, on average.
pub const QUERIES_PER_DEVICE: usize = 8;
/// Leading requests answered with `jobs = nproc` and `jobs = 1` and compared.
pub const GATE_CHUNKS: usize = 24;
/// Passes per p99 window (a pass is about 150 requests).
pub const P99_PASSES: f64 = 7.0;
/// Passes a run makes at least, so two full p99 windows exist.
pub const MIN_PASSES: usize = 14;
/// Shards of the batch service.
pub const SHARDS: usize = 1;

struct Pass {
    latencies: Latencies,
    samples: Vec<f64>,
    answered: u64,
    failed: u64,
    busy: Duration,
    accuracy: Accuracy,
    bytes: Vec<String>,
}

/// Answers `requests` chunk by chunk on a fresh service.
fn pass(
    store: &EventStore,
    requests: &[LocateRequest],
    targets: &[Target],
    jobs: usize,
    keep_bytes: bool,
    trace: Option<&Trace>,
) -> (Pass, Vec<crate::stats::Span>) {
    let service = ShardedLocaterService::new(store.clone(), LocaterConfig::default(), SHARDS);
    let space = service.space();
    let mut out = Pass {
        latencies: Latencies::default(),
        samples: Vec::new(),
        answered: 0,
        failed: 0,
        busy: Duration::ZERO,
        accuracy: Accuracy::default(),
        bytes: Vec::new(),
    };
    let mut recorder = trace.map(Trace::recorder);
    for (chunk, targets) in requests.chunks(CHUNK).zip(targets.chunks(CHUNK)) {
        let start = Instant::now();
        let responses = service.locate_batch(chunk, jobs);
        let end = Instant::now();
        if let (Some(rec), Some(trace)) = (recorder.as_mut(), trace) {
            rec.record_as(None, "batch.request", trace.new_request(), None, start, end);
        }
        out.busy += end - start;
        let ms = (end - start).as_secs_f64() * 1e3;
        out.latencies.push_ms(ms);
        out.samples.push(ms);
        for (response, target) in responses.iter().zip(targets) {
            match response {
                Ok(response) => {
                    out.answered += 1;
                    out.accuracy
                        .record(&space, target.truth, &response.answer.location);
                    if keep_bytes {
                        out.bytes.push(answer_bytes(response));
                    }
                }
                Err(_) => out.failed += 1,
            }
        }
    }
    let spans = recorder.map(|r| r.into_spans()).unwrap_or_default();
    (out, spans)
}

fn answer_bytes(response: &LocateResponse) -> String {
    encode_response(&WireResponse::located(response))
}

/// Set-up (simulation + preload) repeated; the median time is `setup_s`.
fn timed_setups(seed: u64) -> (Dataset, EventStore, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..crate::SETUPS {
        drop(kept.take());
        let started = Instant::now();
        let ds = Dataset::generate(seed);
        let store = ds.preload_store();
        times.push(started.elapsed().as_secs_f64());
        kept = Some((ds, store));
    }
    let (ds, store) = kept.expect("at least one set-up");
    (ds, store, median(&times).expect("set-up times"))
}

pub fn run(args: &Args) -> Result<(Metrics, Gates), String> {
    let (ds, store, setup_s) = timed_setups(args.seed);
    let config = LocaterConfig::default();
    let anchors = model_anchors(&store);
    let mut rng = Lcg::new(args.seed ^ 0xBA7C);
    let count = anchors.len() * QUERIES_PER_DEVICE;
    let targets = window_targets(
        &ds,
        &store,
        &anchors,
        config.coarse.history,
        count,
        &mut rng,
    );
    let requests: Vec<LocateRequest> = targets
        .iter()
        .map(|t| LocateRequest::by_mac(t.mac.clone(), t.t))
        .collect();
    let jobs = crate::nproc();
    crate::reset_peak_rss();
    let mut m = Metrics::new("batch_clean");
    let mut gates = Gates::default();

    // Gate: the leading requests answer byte-identically with every job count.
    let sample = (GATE_CHUNKS * CHUNK).min(requests.len());
    let (parallel, _) = pass(
        &store,
        &requests[..sample],
        &targets[..sample],
        jobs,
        true,
        None,
    );
    let (serial, _) = pass(
        &store,
        &requests[..sample],
        &targets[..sample],
        1,
        true,
        None,
    );
    let differing = parallel
        .bytes
        .iter()
        .zip(&serial.bytes)
        .filter(|(a, b)| a != b)
        .count();
    gates.check(
        "batch answers byte-identical for jobs=nproc and jobs=1",
        differing == 0 && parallel.bytes.len() == serial.bytes.len(),
        format!(
            "{differing} of {} sampled answers differ (jobs={jobs} vs 1)",
            parallel.bytes.len()
        ),
    );

    // Timed passes, each on a fresh service, until the time is up.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut all = Latencies::default();
    let mut by_pass = Vec::new();
    let mut pass_qps = Vec::new();
    let (mut answered, mut failed) = (0u64, 0u64);
    let mut accuracy = None;
    let mut passes = 0;
    let (mut order_requests, mut order_targets) = (requests.clone(), targets.clone());
    while passes < MIN_PASSES || Instant::now() < deadline {
        let (p, _) = pass(&store, &order_requests, &order_targets, jobs, false, None);
        by_pass.extend(p.samples.iter().map(|&ms| (passes as f64, Sample::Ok(ms))));
        all.extend(p.latencies);
        answered += p.answered;
        failed += p.failed;
        pass_qps.push(p.answered as f64 / p.busy.as_secs_f64());
        // The first pass answers the fixed order, which is scored.
        accuracy.get_or_insert(p.accuracy);
        passes += 1;
        // Later passes answer the same queries in a seeded new order: how
        // many cold trains share a request depends on the order, so one
        // order would set the request-latency tail for the whole run.
        let mut rng = Lcg::new(args.seed ^ passes as u64);
        for i in (1..requests.len()).rev() {
            let j = rng.below(i + 1);
            order_requests.swap(i, j);
            order_targets.swap(i, j);
        }
    }
    let qps = median(&pass_qps).expect("at least one pass");
    // A pass is a p50 window; P99_PASSES passes hold enough requests for a
    // p99 with 10 beyond it.
    m.windowed_latency("locate", &all, &by_pass, (1.0, P99_PASSES))?;
    m.report("capacity_rps", qps, "1/s");
    m.report("batch_qps", qps, "1/s");
    m.accuracy(&accuracy.expect("at least one pass"));
    m.notes.push(format!(
        "{passes} passes of {} queries in requests of {CHUNK}, jobs={jobs}; batch_qps is the median pass",
        requests.len()
    ));

    if args.trace {
        let trace = Trace::new();
        // A traced pass: the tracing overhead on the request latency.
        let (traced, mut spans) = pass(&store, &requests, &targets, jobs, false, Some(&trace));
        let base = all.percentile(50.0).unwrap_or(f64::NAN);
        let with = traced.latencies.percentile(50.0).unwrap_or(f64::NAN);
        m.layer("trace.overhead_pct", (with - base) / base * 100.0, "%");
        // Batch responses carry no diagnostics: the layer counts come from
        // the per-query path over the same queries on a fresh service.
        let service = ShardedLocaterService::new(store.clone(), config, SHARDS);
        let mut layers = Layers::default();
        let mut rec = trace.recorder();
        let until = Instant::now() + Duration::from_secs_f64(args.seconds * 0.5);
        for request in &requests {
            if Instant::now() >= until {
                break;
            }
            let rid = trace.new_request();
            let root = Some(trace.reserve_span());
            let start = Instant::now();
            let result = service.locate(&request.clone().with_diagnostics());
            let end = Instant::now();
            rec.record_as(root, "system.locate", rid, None, start, end);
            let response = result.map_err(|e| format!("diagnostic locate: {e}"))?;
            let diag = response
                .diagnostics
                .as_ref()
                .expect("diagnostics requested");
            rec.record_as(
                None,
                "engine",
                rid,
                root,
                end.checked_sub(diag.elapsed).unwrap_or(start).max(start),
                end,
            );
            layers.book_locate(
                response.answer.device,
                request.t,
                (end - start).as_secs_f64() * 1e6,
                diag,
            );
        }
        spans.extend(rec.into_spans());
        let (train_us, fine_us) =
            direct_layer_calls(&store, &config, &layers.trained, &layers.inside, 200);
        system_and_engine_metrics(&mut m, &layers, &train_us, &fine_us);
        m.layer(
            "batch.scaling",
            serial.busy.as_secs_f64() / parallel.busy.as_secs_f64(),
            "ratio",
        );
        m.layer(
            "store.resident_mb",
            service.approx_resident_bytes() as f64 / 1e6,
            "MB",
        );
        m.spans = spans;
    }

    gates.check(
        "zero application errors",
        failed == 0 && parallel.failed == 0 && serial.failed == 0,
        format!("{failed} of {} queries failed", answered + failed),
    );
    m.report(
        "fail_ratio",
        failed as f64 / (answered + failed).max(1) as f64,
        "ratio",
    );
    m.report("setup_s", setup_s, "s");
    m.attempted = answered + failed;
    m.failed = failed;
    Ok((m, gates))
}
