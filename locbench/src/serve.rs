//! The serve workloads: a self-hosted NDJSON server driven over TCP by an
//! open loop (latency) and a closed loop (capacity), plus, in the traced
//! run, in-process replays that time each layer's public entry points.

use crate::countio::{CountingIo, IoCounts};
use crate::data::{model_anchors, window_targets, Accuracy, Dataset, Lcg, Target};
use crate::report::{Gates, Metrics};
use crate::stats::{due_time, median, window_rate, Latencies, Sample, Scheduled};
use crate::trace::{Recorder, Trace};
use crate::Args;
use locater_core::coarse::{CoarseLabel, CoarseLocalizer, CoarseMethod};
use locater_core::fine::FineLocalizer;
use locater_core::system::{LocateRequest, LocaterConfig, ShardedLocaterService};
use locater_events::clock::Timestamp;
use locater_events::DeviceId;
use locater_proto::{decode_request, decode_response, encode_request, encode_response};
use locater_proto::{WireRequest, WireResponse};
use locater_server::{Server, ServerConfig, ServerState};
use locater_space::Space;
use locater_store::{Durability, FsyncPolicy, StorageIo};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Connections (and generator threads) the load comes from.
pub const CONNECTIONS: usize = 2;
/// Locate targets in the serve_warm pool.
const WARM_POOL: usize = 4096;
/// Devices a serve_churn locate picks from: the most recently ingested.
const RECENT_DEVICES: usize = 32;
/// How far back a serve_churn "historical" locate reaches.
const HISTORY_REACH_S: Timestamp = 7 * 86_400;
/// Per-response read timeout; a response slower than this is a miss.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Requests per second the script is sized for (twice today's capacity).
const MAX_RPS: f64 = 15_000.0;
/// Share of `--seconds` each in-process replay of the traced run takes.
const REPLAY_SHARE: f64 = 0.25;
/// Share of `--seconds` given to the open loop; the closed loop gets the rest.
const OPEN_SHARE: f64 = 0.8;
/// Open-loop lead-in excluded from the latency windows: the first ingests
/// and locates after warm-up find a cold affinity cache and fresh epochs.
const LEAD_IN_S: f64 = 1.0;
/// Most open-loop windows a run is split into.
const MAX_WINDOWS: usize = 10;
/// Locates each p99 window must expect: 30 samples beyond the p99, so one
/// window's p99 is not set by a handful of requests.
const P99_WINDOW_SAMPLES: usize = 3000;
/// Width of the closed-loop windows whose median rate is `capacity_rps`.
const CAPACITY_WINDOW_S: f64 = 0.5;
/// WAL fsync policy of serve_churn.
pub const CHURN_FSYNC: &str = "every=4096";

/// A serve workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub name: &'static str,
    pub shards: usize,
    pub durable: bool,
    /// Percentage of requests that are ingests.
    pub ingest_pct: u64,
    /// Open-loop rate (requests/s over all connections), about half of the
    /// closed-loop capacity measured on a 2-core machine.
    pub rate: f64,
}

pub const SERVE_WARM: ServeSpec = ServeSpec {
    name: "serve_warm",
    shards: 1,
    durable: false,
    ingest_pct: 0,
    rate: 2000.0,
};

pub const SERVE_CHURN: ServeSpec = ServeSpec {
    name: "serve_churn",
    shards: 2,
    durable: true,
    ingest_pct: 25,
    rate: 300.0,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Locate,
    Ingest,
}

/// One scripted request: its wire frame and, for a locate, the truth.
struct Op {
    kind: Kind,
    request: WireRequest,
    frame: String,
    target: Option<Target>,
}

fn op(kind: Kind, request: WireRequest, target: Option<Target>) -> Op {
    let mut frame = encode_request(&request);
    frame.push('\n');
    Op {
        kind,
        request,
        frame,
        target,
    }
}

fn locate_op(target: Target) -> Op {
    let request = WireRequest::Locate {
        mac: Some(target.mac.clone()),
        device: None,
        t: target.t,
        fine_mode: None,
        cache: None,
    };
    op(Kind::Locate, request, Some(target))
}

/// The whole run's request script, in send order.
fn script(spec: &ServeSpec, ds: &Dataset, set: &SetUp, len: usize, rng: &mut Lcg) -> Vec<Op> {
    if spec.ingest_pct == 0 {
        let pool = &set.pool;
        return (0..len)
            .map(|i| locate_op(pool[i % pool.len()].clone()))
            .collect();
    }
    // Replay the held-out stream in time order; locates chase the devices
    // just ingested, half at their latest ingested time, half earlier. Only
    // preloaded devices are chased: a device first seen in the stream could
    // be located on one connection before the other has ingested it.
    let mut recent: Vec<(String, Timestamp)> = Vec::new();
    let mut stream = ds.stream.iter();
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        if recent.is_empty() || rng.below(100) < spec.ingest_pct as usize {
            let Some(e) = stream.next() else { break };
            if set.known.contains(&e.mac) {
                recent.retain(|(mac, _)| mac != &e.mac);
                recent.push((e.mac.clone(), e.t));
                if recent.len() > RECENT_DEVICES {
                    recent.remove(0);
                }
            }
            let request = WireRequest::Ingest {
                mac: e.mac.clone(),
                t: e.t,
                ap: e.ap.clone(),
                request_id: None,
            };
            ops.push(op(Kind::Ingest, request, None));
        } else {
            let (mac, latest) = recent[rng.below(recent.len())].clone();
            let t = if rng.below(2) == 0 {
                latest
            } else {
                latest - (rng.next() % HISTORY_REACH_S as u64) as Timestamp
            };
            let target = Target {
                truth: ds.truth_at(&mac, t),
                mac,
                t,
            };
            ops.push(locate_op(target));
        }
    }
    ops
}

/// What one set-up leaves running.
pub struct SetUp {
    server: Server,
    io: Option<Arc<CountingIo>>,
    wal_dir: Option<PathBuf>,
    anchors: Vec<(DeviceId, Timestamp)>,
    pool: Vec<Target>,
    /// MACs of the preloaded devices.
    known: HashSet<String>,
}

impl SetUp {
    fn state(&self) -> &Arc<ServerState> {
        self.server.state()
    }

    /// Drains the server and removes the WAL directory.
    fn stop(self) -> Result<(), String> {
        self.server.state().request_drain();
        let report = self.server.join();
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        match report.drain.failure_message() {
            Some(message) => Err(format!("drain: {message}")),
            None => Ok(()),
        }
    }
}

/// Simulation, preload, WAL boot checkpoint, server start and warm-up:
/// every device's coarse model is trained by one batch over the anchors.
fn set_up(spec: &ServeSpec, ds: &Dataset, args: &Args, attempt: usize) -> Result<SetUp, String> {
    let store = ds.preload_store();
    let config = LocaterConfig::default();
    let anchors = model_anchors(&store);
    let known = ds.preload.iter().map(|e| e.mac.clone()).collect();
    let mut rng = Lcg::new(args.seed);
    let pool = window_targets(
        ds,
        &store,
        &anchors,
        config.coarse.history,
        WARM_POOL,
        &mut rng,
    );
    let (service, io, wal_dir) = if spec.durable {
        let dir = crate::out_dir().join(format!(
            "wal-{}-{}-{}",
            spec.name,
            std::process::id(),
            attempt
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let counting = Arc::new(CountingIo::default());
        let io: Arc<dyn StorageIo> = if args.trace {
            counting.clone()
        } else {
            Arc::new(locater_store::RealIo)
        };
        let durability = Durability::new(&dir)
            .with_fsync(FsyncPolicy::parse(CHURN_FSYNC)?)
            .with_io(io);
        let (service, _report) =
            ShardedLocaterService::with_durability(store, config, spec.shards, durability)
                .map_err(|e| format!("WAL boot: {e}"))?;
        (service, args.trace.then_some(counting), Some(dir))
    } else {
        (
            ShardedLocaterService::new(store, config, spec.shards),
            None,
            None,
        )
    };
    let warm: Vec<LocateRequest> = anchors
        .iter()
        .map(|&(device, t)| LocateRequest::by_device(device, t))
        .collect();
    if let Some(failure) = service
        .locate_batch(&warm, crate::nproc())
        .iter()
        .find_map(|r| r.as_ref().err())
    {
        return Err(format!("warm-up: {failure}"));
    }
    let state = Arc::new(ServerState::new(service, None));
    let server = Server::bind(state, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    Ok(SetUp {
        server,
        io,
        wal_dir,
        anchors,
        pool,
        known,
    })
}

/// Results of driving some requests.
#[derive(Default)]
struct Drive {
    locate: Latencies,
    /// Locate samples with their time in the phase (open loop: due time).
    locate_at: Vec<(f64, Sample)>,
    /// Completion times in the phase of every answered request.
    done_at: Vec<f64>,
    ingest: Latencies,
    late: Latencies,
    accuracy: Accuracy,
    attempted: u64,
    failed: u64,
    acked: u64,
    completed: u64,
}

impl Drive {
    fn absorb(&mut self, other: Drive) {
        self.locate.extend(other.locate);
        self.locate_at.extend(other.locate_at);
        self.done_at.extend(other.done_at);
        self.ingest.extend(other.ingest);
        self.late.extend(other.late);
        self.accuracy.merge(&other.accuracy);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.acked += other.acked;
        self.completed += other.completed;
    }

    /// Books one response (`None`: the connection failed or timed out).
    fn record(
        &mut self,
        space: &Space,
        op: &Op,
        response: Option<&WireResponse>,
        ms: f64,
        at_s: f64,
    ) {
        self.attempted += 1;
        let latencies = match op.kind {
            Kind::Locate => &mut self.locate,
            Kind::Ingest => &mut self.ingest,
        };
        match (op.kind, response) {
            (
                Kind::Locate,
                Some(WireResponse::Located {
                    answer,
                    degraded: false,
                    ..
                }),
            ) => {
                latencies.push_ms(ms);
                self.locate_at.push((at_s, Sample::Ok(ms)));
                self.done_at.push(at_s);
                let truth = op.target.as_ref().expect("locates carry a target").truth;
                self.accuracy.record(space, truth, &answer.location);
                self.completed += 1;
            }
            (Kind::Ingest, Some(WireResponse::Ingested { .. })) => {
                latencies.push_ms(ms);
                self.done_at.push(at_s);
                self.acked += 1;
                self.completed += 1;
            }
            _ => {
                latencies.push(Sample::Miss);
                if op.kind == Kind::Locate {
                    self.locate_at.push((at_s, Sample::Miss));
                }
                self.failed += 1;
            }
        }
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

fn read_response(reader: &mut BufReader<TcpStream>, line: &mut String) -> Option<WireResponse> {
    line.clear();
    match reader.read_line(line) {
        Ok(n) if n > 0 => decode_response(line.trim_end()).ok(),
        _ => None,
    }
}

/// Open loop: connection `k` sends its share of `ops` on the fixed schedule
/// and a paired reader books each response's latency from its due time.
fn open_loop(
    addr: &str,
    space: &Space,
    ops: &[Op],
    rate: f64,
    trace: Option<&Trace>,
) -> Result<(Drive, Vec<crate::stats::Span>), String> {
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<(Drive, Vec<crate::stats::Span>), String>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|k| {
                    scope.spawn(
                        move || -> Result<(Drive, Vec<crate::stats::Span>), String> {
                            let mut writer = connect(addr)?;
                            let mut reader =
                                BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
                            let (tx, rx) = mpsc::channel::<(usize, Scheduled)>();
                            std::thread::scope(|inner| {
                                let collector = inner.spawn(move || {
                                    let mut drive = Drive::default();
                                    let mut recorder = trace.map(Trace::recorder);
                                    let mut line = String::new();
                                    while let Ok((i, sched)) = rx.recv() {
                                        let response = read_response(&mut reader, &mut line);
                                        let done = Instant::now();
                                        drive.late.push_ms(sched.late().as_secs_f64() * 1e3);
                                        let ms = sched.latency(done).as_secs_f64() * 1e3;
                                        let at_s = sched
                                            .due
                                            .saturating_duration_since(start)
                                            .as_secs_f64();
                                        drive.record(space, &ops[i], response.as_ref(), ms, at_s);
                                        if let (Some(rec), Some(trace)) = (recorder.as_mut(), trace)
                                        {
                                            rec.record_as(
                                                None,
                                                "wire.request",
                                                trace.new_request(),
                                                None,
                                                sched.sent,
                                                done,
                                            );
                                        }
                                    }
                                    (
                                        drive,
                                        recorder.map(Recorder::into_spans).unwrap_or_default(),
                                    )
                                });
                                for (n, i) in (k..ops.len()).step_by(CONNECTIONS).enumerate() {
                                    let due = due_time(start, rate, CONNECTIONS, k, n);
                                    let now = Instant::now();
                                    if due > now {
                                        std::thread::sleep(due - now);
                                    }
                                    let sent = Instant::now();
                                    if writer.write_all(ops[i].frame.as_bytes()).is_err() {
                                        break;
                                    }
                                    if tx.send((i, Scheduled { due, sent })).is_err() {
                                        break;
                                    }
                                }
                                drop(tx);
                                collector
                                    .join()
                                    .map_err(|_| "open-loop reader panicked".to_string())
                            })
                        },
                    )
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("open-loop sender panicked".into()))
                })
                .collect()
        });
    let mut drive = Drive::default();
    let mut spans = Vec::new();
    for result in results {
        let (d, s) = result?;
        drive.absorb(d);
        spans.extend(s);
    }
    // Requests a failed connection never sent are misses too.
    let unsent = ops.len() as u64 - drive.attempted;
    drive.attempted += unsent;
    drive.failed += unsent;
    Ok((drive, spans))
}

/// Closed loop: each connection sends its next request when the previous
/// response arrives, pulling from a shared cursor until `until`.
fn closed_loop(
    addr: &str,
    space: &Space,
    ops: &[Op],
    cursor: &AtomicUsize,
    until: Instant,
) -> Result<(Drive, f64), String> {
    let started = Instant::now();
    let results: Vec<Result<Drive, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| -> Result<Drive, String> {
                    let mut writer = connect(addr)?;
                    let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
                    let mut drive = Drive::default();
                    let mut line = String::new();
                    while Instant::now() < until {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = ops.get(i) else { break };
                        let sent = Instant::now();
                        let response = writer
                            .write_all(op.frame.as_bytes())
                            .ok()
                            .and_then(|()| read_response(&mut reader, &mut line));
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        let broken = response.is_none();
                        let at_s = started.elapsed().as_secs_f64();
                        drive.record(space, op, response.as_ref(), ms, at_s);
                        if broken {
                            break;
                        }
                    }
                    Ok(drive)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("closed-loop client panicked".into()))
            })
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut drive = Drive::default();
    for result in results {
        drive.absorb(result?);
    }
    Ok((drive, elapsed))
}

/// Samples `queued()` / `in_flight()` every millisecond until stopped.
fn poll_gauges(state: &ServerState, stop: &AtomicBool) -> (usize, f64) {
    let (mut max_queued, mut in_flight_sum, mut samples) = (0usize, 0usize, 0usize);
    while !stop.load(Ordering::Relaxed) {
        max_queued = max_queued.max(state.queued());
        in_flight_sum += state.in_flight();
        samples += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    (max_queued, in_flight_sum as f64 / samples.max(1) as f64)
}

/// Per-layer observations of the in-process replays.
#[derive(Default)]
pub struct Layers {
    pub decode_us: Latencies,
    pub encode_us: Latencies,
    pub resp_bytes: Vec<f64>,
    pub exec_us: Latencies,
    pub system_locate_us: Latencies,
    pub system_ingest_us: Latencies,
    pub lock_wait_us: Latencies,
    pub engine_us: Latencies,
    pub locates: usize,
    pub shortcuts: usize,
    pub reused: usize,
    pub trained: Vec<(DeviceId, Timestamp)>,
    pub neighbors_processed: Vec<f64>,
    pub neighbors_considered: Vec<f64>,
    pub early_stops: usize,
    pub cache_warm: usize,
    pub fine_runs: usize,
    pub inside: Vec<(DeviceId, Timestamp, locater_space::RegionId)>,
}

impl Layers {
    fn absorb(&mut self, o: Layers) {
        self.decode_us.extend(o.decode_us);
        self.encode_us.extend(o.encode_us);
        self.resp_bytes.extend(o.resp_bytes);
        self.exec_us.extend(o.exec_us);
        self.system_locate_us.extend(o.system_locate_us);
        self.system_ingest_us.extend(o.system_ingest_us);
        self.lock_wait_us.extend(o.lock_wait_us);
        self.engine_us.extend(o.engine_us);
        self.locates += o.locates;
        self.shortcuts += o.shortcuts;
        self.reused += o.reused;
        self.trained.extend(o.trained);
        self.neighbors_processed.extend(o.neighbors_processed);
        self.neighbors_considered.extend(o.neighbors_considered);
        self.early_stops += o.early_stops;
        self.cache_warm += o.cache_warm;
        self.fine_runs += o.fine_runs;
        self.inside.extend(o.inside);
    }

    /// Books one locate's diagnostics (shared with batch_clean's replay).
    pub fn book_locate(
        &mut self,
        device: DeviceId,
        t: Timestamp,
        call_us: f64,
        diag: &locater_core::system::QueryDiagnostics,
    ) {
        let engine_us = diag.elapsed.as_secs_f64() * 1e6;
        self.system_locate_us.push_ms(call_us);
        self.lock_wait_us.push_ms((call_us - engine_us).max(0.0));
        self.locates += 1;
        let shortcut = matches!(
            diag.coarse.method,
            CoarseMethod::CoveredByEvent | CoarseMethod::OutOfSpan
        );
        if shortcut {
            self.shortcuts += 1;
        } else if diag.coarse_model_reused {
            self.reused += 1;
        } else {
            self.trained.push((device, t));
        }
        if diag.coarse_model_reused {
            self.engine_us.push_ms(engine_us);
        }
        if let Some(fine) = &diag.fine {
            self.fine_runs += 1;
            self.neighbors_processed
                .push(fine.neighbors_processed as f64);
            self.neighbors_considered
                .push(fine.neighbors_considered as f64);
            self.early_stops += usize::from(fine.stopped_early);
            self.cache_warm += usize::from(diag.cache_warm);
        }
        if let CoarseLabel::Inside(region) = diag.coarse.label {
            self.inside.push((device, t, region));
        }
    }
}

/// In-process replay through the server layer: per request, decode the
/// frame, `ServerState::execute` it, encode the response — each a span
/// under the request's root span.
fn replay_server(
    state: &ServerState,
    ops: &[Op],
    cursor: &AtomicUsize,
    until: Instant,
    trace: &Trace,
) -> (Layers, Drive, Vec<crate::stats::Span>) {
    let space = state.service().space();
    let results: Vec<(Layers, Drive, Vec<crate::stats::Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let space = &space;
                scope.spawn(move || {
                    let mut rec = trace.recorder();
                    let (mut layers, mut drive) = (Layers::default(), Drive::default());
                    while Instant::now() < until {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = ops.get(i) else { break };
                        let rid = trace.new_request();
                        let root = Some(trace.reserve_span());
                        let start = Instant::now();
                        let (decoded, d_us) = rec.time("proto.decode", rid, root, || {
                            decode_request(op.frame.trim_end())
                        });
                        let Ok(request) = decoded else {
                            drive.record(space, op, None, 0.0, 0.0);
                            continue;
                        };
                        let (response, e_us) =
                            rec.time("server.execute", rid, root, || state.execute(&request));
                        let (bytes, c_us) = rec.time("proto.encode", rid, root, || {
                            encode_response(&response).len()
                        });
                        let end = Instant::now();
                        rec.record_as(root, "request", rid, None, start, end);
                        layers.decode_us.push_ms(d_us);
                        layers.encode_us.push_ms(c_us);
                        layers.resp_bytes.push(bytes as f64);
                        if op.kind == Kind::Locate {
                            layers.exec_us.push_ms(e_us);
                        }
                        drive.record(
                            space,
                            op,
                            Some(&response),
                            (end - start).as_secs_f64() * 1e3,
                            0.0,
                        );
                    }
                    (layers, drive, rec.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("server replay thread panicked"))
            .collect()
    });
    let (mut layers, mut drive, mut spans) = (Layers::default(), Drive::default(), Vec::new());
    for (l, d, s) in results {
        layers.absorb(l);
        drive.absorb(d);
        spans.extend(s);
    }
    (layers, drive, spans)
}

/// In-process replay through the system layer: `locate` with diagnostics
/// (the engine's own elapsed time becomes a child span, the rest of the
/// call is lock wait and resolution) and `ingest_tagged`.
fn replay_system(
    service: &ShardedLocaterService,
    ops: &[Op],
    cursor: &AtomicUsize,
    until: Instant,
    trace: &Trace,
) -> (Layers, Drive, Vec<crate::stats::Span>) {
    let space = service.space();
    let results: Vec<(Layers, Drive, Vec<crate::stats::Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let space = &space;
                scope.spawn(move || {
                    let mut rec = trace.recorder();
                    let (mut layers, mut drive) = (Layers::default(), Drive::default());
                    while Instant::now() < until {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = ops.get(i) else { break };
                        let rid = trace.new_request();
                        match &op.request {
                            WireRequest::Ingest { mac, t, ap, .. } => {
                                let (result, us) = rec.time("system.ingest", rid, None, || {
                                    service.ingest_tagged(mac, *t, ap, None)
                                });
                                layers.system_ingest_us.push_ms(us);
                                let response = result.ok().map(|_| WireResponse::Ingested {
                                    mac: mac.clone(),
                                    t: *t,
                                    ap: ap.clone(),
                                    device_epoch: 0,
                                });
                                drive.record(space, op, response.as_ref(), us / 1e3, 0.0);
                            }
                            request => {
                                let locate = request
                                    .to_locate()
                                    .expect("scripts hold only ingests and locates")
                                    .with_diagnostics();
                                let start = Instant::now();
                                let result = service.locate(&locate);
                                let end = Instant::now();
                                let call_us = (end - start).as_secs_f64() * 1e6;
                                let root = Some(trace.reserve_span());
                                rec.record_as(root, "system.locate", rid, None, start, end);
                                let response = result.ok().map(|r| {
                                    let diag =
                                        r.diagnostics.as_ref().expect("diagnostics requested");
                                    let engine_start =
                                        end.checked_sub(diag.elapsed).unwrap_or(start);
                                    rec.record_as(
                                        None,
                                        "engine",
                                        rid,
                                        root,
                                        engine_start.max(start),
                                        end,
                                    );
                                    layers.book_locate(r.answer.device, locate.t, call_us, diag);
                                    WireResponse::located(&r)
                                });
                                drive.record(space, op, response.as_ref(), call_us / 1e3, 0.0);
                            }
                        }
                    }
                    (layers, drive, rec.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("system replay thread panicked"))
            .collect()
    });
    let (mut layers, mut drive, mut spans) = (Layers::default(), Drive::default(), Vec::new());
    for (l, d, s) in results {
        layers.absorb(l);
        drive.absorb(d);
        spans.extend(s);
    }
    (layers, drive, spans)
}

/// Direct calls into the coarse learner and the fine step on a snapshot of
/// the store: `train_device_model` on the devices and times the replay
/// trained (or the warm-up anchors when it trained none), and
/// `FineLocalizer::locate` on the replay's inside answers.
pub fn direct_layer_calls(
    snapshot: &locater_store::EventStore,
    config: &LocaterConfig,
    trained: &[(DeviceId, Timestamp)],
    inside: &[(DeviceId, Timestamp, locater_space::RegionId)],
    limit: usize,
) -> (Latencies, Latencies) {
    let coarse = CoarseLocalizer::new(config.coarse);
    let fine = FineLocalizer::new(config.fine);
    let mut train_us = Latencies::default();
    for &(device, t) in trained.iter().take(limit) {
        let start = Instant::now();
        std::hint::black_box(coarse.train_device_model(snapshot, device, t));
        train_us.push_ms(start.elapsed().as_secs_f64() * 1e6);
    }
    let mut fine_us = Latencies::default();
    for &(device, t, region) in inside.iter().take(limit) {
        let start = Instant::now();
        std::hint::black_box(fine.locate(snapshot, device, t, region, None));
        fine_us.push_ms(start.elapsed().as_secs_f64() * 1e6);
    }
    (train_us, fine_us)
}

/// Set-up repeated `setups` times (the last one is kept): the median time
/// is `setup_s`.
fn timed_setups(spec: &ServeSpec, args: &Args) -> Result<(Dataset, SetUp, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for attempt in 0..crate::SETUPS {
        if let Some((_, previous)) = kept.take() {
            SetUp::stop(previous)?;
        }
        let started = Instant::now();
        let ds = Dataset::generate(args.seed);
        let set = set_up(spec, &ds, args, attempt)?;
        times.push(started.elapsed().as_secs_f64());
        kept = Some((ds, set));
    }
    let (ds, set) = kept.expect("at least one set-up");
    if spec.durable {
        crate::flush_disk();
    }
    Ok((ds, set, median(&times).expect("set-up times")))
}

pub fn run(spec: &ServeSpec, args: &Args) -> Result<(Metrics, Gates), String> {
    let (ds, set, setup_s) = timed_setups(spec, args)?;
    let addr = set.server.local_addr().to_string();
    let space = set.state().service().space();
    let secs = args.seconds;
    let open_secs = secs * OPEN_SHARE;
    let closed_secs = secs - open_secs;
    let open_n = (spec.rate * open_secs).round() as usize;
    let open_runs = if args.trace { 2 } else { 1 };
    // Enough script for the closed loop at twice today's capacity; the
    // in-process replays stop early if they use it up.
    let replay_secs = secs * REPLAY_SHARE;
    let closed_max =
        (MAX_RPS * (closed_secs + if args.trace { 2.0 * replay_secs } else { 0.0 })) as usize;
    let mut rng = Lcg::new(args.seed ^ 0x005C_2197);
    let ops = script(spec, &ds, &set, open_n * open_runs + closed_max, &mut rng);
    crate::reset_peak_rss();
    let events_before = set.state().stats().events as u64;
    let io_before = set.io.as_ref().map(|io| io.counts()).unwrap_or_default();

    let mut m = Metrics::new(spec.name);
    let mut gates = Gates::default();
    let trace = Trace::new();
    let mut spans = Vec::new();

    // Phase 1: open loop at the fixed rate (untraced).
    let (open, _) = open_loop(&addr, &space, &ops[..open_n], spec.rate, None)?;
    let mut total = Drive::default();
    // Phase 1b (traced run): the same open loop with client spans and the
    // gauge poller, to report the tracing overhead.
    if args.trace {
        let stop = AtomicBool::new(false);
        let state = set.state();
        let (traced, gauges) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| poll_gauges(state, &stop));
            let traced = open_loop(
                &addr,
                &space,
                &ops[open_n..2 * open_n],
                spec.rate,
                Some(&trace),
            );
            stop.store(true, Ordering::Relaxed);
            (traced, poller.join().expect("poller panicked"))
        });
        let (traced, traced_spans) = traced?;
        m.layer("server.queued_max", gauges.0 as f64, "count");
        m.layer("server.in_flight_mean", gauges.1, "count");
        let (a, b) = (
            open.locate.percentile(50.0).unwrap_or(f64::NAN),
            traced.locate.percentile(50.0).unwrap_or(f64::NAN),
        );
        m.layer("trace.overhead_pct", (b - a) / a * 100.0, "%");
        spans.extend(traced_spans);
        total.absorb(traced);
    }

    // Phase 2: closed loop for capacity.
    let cursor = AtomicUsize::new(open_n * open_runs);
    let until = Instant::now() + Duration::from_secs_f64(closed_secs);
    let (closed, closed_elapsed) = closed_loop(&addr, &space, &ops, &cursor, until)?;
    let capacity = window_rate(
        &closed.done_at,
        CAPACITY_WINDOW_S,
        closed_elapsed.min(closed_secs),
    )
    .ok_or("closed loop ended before one capacity window")?;
    m.notes.push(format!(
        "capacity: median of {CAPACITY_WINDOW_S} s windows; {} requests in {closed_elapsed:.2} s overall",
        closed.completed
    ));

    // After the lead-in: MAX_WINDOWS equal windows for the p50, and for the
    // p99 as many equal windows as can each expect P99_WINDOW_SAMPLES.
    let locate_rate = spec.rate * (100 - spec.ingest_pct) as f64 / 100.0;
    let timed_secs = open_secs - LEAD_IN_S;
    let p99_windows =
        ((locate_rate * timed_secs) as usize / P99_WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let widths = (
        timed_secs / MAX_WINDOWS as f64,
        timed_secs / p99_windows as f64,
    );
    let timed: Vec<(f64, Sample)> = open
        .locate_at
        .iter()
        .filter(|(at, _)| *at >= LEAD_IN_S)
        .map(|&(at, sample)| (at - LEAD_IN_S, sample))
        .collect();
    m.windowed_latency("locate", &open.locate, &timed, widths)?;
    m.e2e_latency("ingest", &open.ingest);
    m.report("capacity_rps", capacity, "1/s");
    m.layer(
        "loadgen.late_p99_ms",
        open.late.percentile(99.0).unwrap_or(0.0),
        "ms",
    );
    m.report(
        "loadgen.late_p99_ms",
        open.late.percentile(99.0).unwrap_or(0.0),
        "ms",
    );
    let mut accuracy = open.accuracy;
    accuracy.merge(&closed.accuracy);
    total.absorb(open);
    total.absorb(closed);

    if args.trace {
        let until = Instant::now() + Duration::from_secs_f64(replay_secs);
        let (server_layers, d1, s1) = replay_server(set.state(), &ops, &cursor, until, &trace);
        let until = Instant::now() + Duration::from_secs_f64(replay_secs);
        let service = set.state().service();
        let (system_layers, d2, s2) = replay_system(service, &ops, &cursor, until, &trace);
        total.absorb(d1);
        total.absorb(d2);
        spans.extend(s1);
        spans.extend(s2);
        let mut layers = server_layers;
        layers.absorb(system_layers);
        let wire_p50_us = m.value("locate_p50_ms").unwrap_or(0.0) * 1e3;
        let snapshot = service.store_snapshot();
        let trained = if layers.trained.is_empty() {
            set.anchors.clone()
        } else {
            layers.trained.clone()
        };
        let (train_us, fine_us) =
            direct_layer_calls(&snapshot, service.config(), &trained, &layers.inside, 200);
        let io = set
            .io
            .as_ref()
            .map(|io| io.counts().since(io_before))
            .unwrap_or_default();
        layer_metrics(&mut m, &layers, wire_p50_us, &train_us, &fine_us);
        if set.io.is_some() {
            store_metrics(&mut m, io, total.acked);
        }
        m.layer(
            "store.resident_mb",
            service.approx_resident_bytes() as f64 / 1e6,
            "MB",
        );
    }

    let events_after = set.state().stats().events as u64;
    gates.check(
        "zero protocol or application errors",
        total.failed == 0,
        format!("{} of {} requests failed", total.failed, total.attempted),
    );
    gates.check(
        "server event delta equals acked ingests",
        events_after - events_before == total.acked,
        format!(
            "server applied {} events, clients saw {} acks",
            events_after - events_before,
            total.acked
        ),
    );
    m.accuracy(&accuracy);
    m.report(
        "fail_ratio",
        total.failed as f64 / total.attempted.max(1) as f64,
        "ratio",
    );
    m.report("setup_s", setup_s, "s");
    m.attempted = total.attempted;
    m.failed = total.failed;
    m.spans = spans;
    set.stop()?;
    Ok((m, gates))
}

/// The per-layer metrics of a traced serve run.
fn layer_metrics(
    m: &mut Metrics,
    l: &Layers,
    wire_p50_us: f64,
    train_us: &Latencies,
    fine_us: &Latencies,
) {
    let p = |x: &Latencies, q: f64| x.percentile(q).unwrap_or(0.0);
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    m.layer("proto.decode_us", l.decode_us.mean().unwrap_or(0.0), "us");
    m.layer("proto.encode_us", l.encode_us.mean().unwrap_or(0.0), "us");
    m.layer("proto.resp_bytes", mean(&l.resp_bytes), "bytes");
    m.layer("server.exec_us_p50", p(&l.exec_us, 50.0), "us");
    m.layer("server.exec_us_p99", p(&l.exec_us, 99.0), "us");
    m.layer(
        "server.frontdoor_us",
        (wire_p50_us - p(&l.exec_us, 50.0)).max(0.0),
        "us",
    );
    system_and_engine_metrics(m, l, train_us, fine_us);
}

/// The WAL's share of the run, from the counting `StorageIo`.
fn store_metrics(m: &mut Metrics, io: IoCounts, acked: u64) {
    m.layer("store.io_writes", io.writes as f64, "count");
    m.layer(
        "store.io_bytes_per_ingest",
        io.bytes as f64 / acked.max(1) as f64,
        "bytes",
    );
    m.layer("store.fsyncs", io.fsyncs as f64, "count");
    m.layer(
        "store.fsync_us",
        if io.fsyncs == 0 {
            0.0
        } else {
            io.fsync_ns as f64 / io.fsyncs as f64 / 1e3
        },
        "us",
    );
}

/// The system, coarse and fine metrics (shared with batch_clean).
pub fn system_and_engine_metrics(
    m: &mut Metrics,
    l: &Layers,
    train_us: &Latencies,
    fine_us: &Latencies,
) {
    let p = |x: &Latencies, q: f64| x.percentile(q).unwrap_or(0.0);
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.layer("system.locate_us_p50", p(&l.system_locate_us, 50.0), "us");
    m.layer("system.locate_us_p99", p(&l.system_locate_us, 99.0), "us");
    if l.system_ingest_us.count() > 0 {
        m.layer("system.ingest_us_p50", p(&l.system_ingest_us, 50.0), "us");
        m.layer("system.ingest_us_p99", p(&l.system_ingest_us, 99.0), "us");
    }
    m.layer("system.lock_wait_us_p50", p(&l.lock_wait_us, 50.0), "us");
    m.layer("system.lock_wait_us_p99", p(&l.lock_wait_us, 99.0), "us");
    m.layer("coarse.trains", l.trained.len() as f64, "count");
    m.layer(
        "coarse.model_reuse_ratio",
        ratio(l.reused, l.reused + l.trained.len()),
        "ratio",
    );
    m.layer(
        "coarse.shortcut_ratio",
        ratio(l.shortcuts, l.locates),
        "ratio",
    );
    m.layer("coarse.train_us_p50", p(train_us, 50.0), "us");
    m.layer("coarse.train_us_p99", p(train_us, 99.0), "us");
    m.layer("fine.engine_us_p50", p(&l.engine_us, 50.0), "us");
    m.layer("fine.engine_us_p99", p(&l.engine_us, 99.0), "us");
    m.layer(
        "fine.neighbors_processed",
        mean(&l.neighbors_processed),
        "count",
    );
    m.layer(
        "fine.neighbors_considered",
        mean(&l.neighbors_considered),
        "count",
    );
    m.layer(
        "fine.early_stop_ratio",
        ratio(l.early_stops, l.fine_runs),
        "ratio",
    );
    m.layer(
        "fine.cache_warm_ratio",
        ratio(l.cache_warm, l.fine_runs),
        "ratio",
    );
    m.layer("fine.locate_us", p(fine_us, 50.0), "us");
}
