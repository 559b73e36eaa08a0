//! In-memory span recording for the traced run. Each thread records into its
//! own [`Recorder`]; the spans are merged and written out when the run ends.

use crate::stats::{self_times, Span};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The trace's shared origin and id sequences.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    next_span: AtomicU64,
    next_request: AtomicU64,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            next_span: AtomicU64::new(1),
            next_request: AtomicU64::new(1),
        }
    }

    pub fn recorder(&self) -> Recorder<'_> {
        Recorder {
            trace: self,
            spans: Vec::new(),
        }
    }

    /// Reserves a span id, so children can name a parent recorded after
    /// them.
    pub fn reserve_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    pub fn new_request(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct Recorder<'a> {
    trace: &'a Trace,
    spans: Vec<Span>,
}

impl Recorder<'_> {
    /// Records a finished span over `[start, end]` under the reserved `id`
    /// (a fresh one when `None`).
    pub fn record_as(
        &mut self,
        id: Option<u64>,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let id = id.unwrap_or_else(|| self.trace.reserve_span());
        self.spans.push(Span {
            name,
            request,
            id,
            parent,
            start_us: self.trace.us(start),
            end_us: self.trace.us(end),
        });
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in microseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.record_as(None, name, request, parent, start, end);
        (result, (end - start).as_secs_f64() * 1e6)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct SpanSummary {
    pub count: usize,
    pub total_us: f64,
    pub self_us: f64,
}

/// Groups spans by name with their total and self time.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for (span, self_us) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_us += span.duration_us();
        entry.self_us += self_us;
    }
    out
}
