//! Statistics helpers: percentiles that state how far the sample supports
//! them, open-loop latency measured from each request's due time, failures
//! counted as misses, and span self time.

use std::time::{Duration, Instant};

/// Samples beyond a reported percentile needed before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile (of the standard ladder 50, 90, 95, 99, 99.9) that
/// has at least [`MIN_BEYOND`] samples beyond it in a sample of `n`, or `None`
/// when even the median is unsupported.
pub fn supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Samples strictly beyond percentile `p` of `n` samples (nearest-rank).
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank index (1-based) of percentile `p` in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9 / 100 * 10_000 = 9990.000…1) from
    // bumping an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// One latency sample: a completed request's latency, or a miss (a failed,
/// refused or timed-out request). Misses sort above every latency, so they
/// push percentiles up instead of dropping out of the sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sample {
    Ok(f64),
    Miss,
}

/// A latency sample set in milliseconds, failures included as misses.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ms: Vec<f64>,
    misses: usize,
}

impl Latencies {
    pub fn push(&mut self, sample: Sample) {
        match sample {
            Sample::Ok(ms) => self.ms.push(ms),
            Sample::Miss => self.misses += 1,
        }
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.push(Sample::Ok(ms));
    }

    pub fn extend(&mut self, other: Latencies) {
        self.ms.extend(other.ms);
        self.misses += other.misses;
    }

    /// Samples attempted: completions plus misses.
    pub fn count(&self) -> usize {
        self.ms.len() + self.misses
    }

    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Percentile `p` over every attempt, misses ranked last; `None` for an
    /// empty set, `Some(INFINITY)` when the rank falls on a miss.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        let r = rank(n, p);
        Some(sorted.get(r - 1).copied().unwrap_or(f64::INFINITY))
    }

    /// The tail as the sample supports it: the highest percentile with at
    /// least [`MIN_BEYOND`] samples beyond it, its value, and the count.
    pub fn tail(&self) -> Option<Tail> {
        let n = self.count();
        let p = supported_percentile(n)?;
        Some(Tail {
            percentile: p,
            value: self.percentile(p)?,
            count: n,
        })
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.ms.is_empty()).then(|| self.ms.iter().sum::<f64>() / self.ms.len() as f64)
    }
}

/// Each fixed-width time window's percentile `p`, for the windows that hold
/// at least `min_count` samples. Samples are `(seconds since the phase
/// started, sample)`. Reporting the median of these, a transient stall of
/// the shared machine moves one window, not the reported value.
pub fn window_percentiles(
    samples: &[(f64, Sample)],
    width_s: f64,
    p: f64,
    min_count: usize,
) -> Vec<f64> {
    let mut windows: Vec<Latencies> = Vec::new();
    for &(at, sample) in samples {
        let w = (at.max(0.0) / width_s) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Latencies::default);
        }
        windows[w].push(sample);
    }
    windows
        .iter()
        .filter(|w| w.count() >= min_count)
        .filter_map(|w| w.percentile(p))
        .collect()
}

/// Median over the complete `width_s` windows of `[0, duration_s)` of the
/// event rate per second, from event times in seconds. A window's rate is
/// its events after the first over the time from its first to its last.
pub fn window_rate(times: &[f64], width_s: f64, duration_s: f64) -> Option<f64> {
    let full = (duration_s / width_s) as usize;
    let mut spans: Vec<(usize, f64, f64)> = vec![(0, f64::INFINITY, f64::NEG_INFINITY); full];
    for &t in times {
        if let Some((count, first, last)) = spans.get_mut((t.max(0.0) / width_s) as usize) {
            *count += 1;
            *first = first.min(t);
            *last = last.max(t);
        }
    }
    let rates: Vec<f64> = spans
        .iter()
        .filter(|(count, first, last)| *count >= 2 && last > first)
        .map(|(count, first, last)| (count - 1) as f64 / (last - first))
        .collect();
    median(&rates)
}

/// A reported tail percentile with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub count: usize,
}

/// Open-loop schedule of one request: its due time and the time it was
/// actually written. Latency counts from `due`, so a stalled generator or
/// server charges every request queued behind the stall; `late` reports how
/// far behind the generator itself ran.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    pub due: Instant,
    pub sent: Instant,
}

impl Scheduled {
    /// Latency of a response completed at `done`, from the due time.
    pub fn latency(&self, done: Instant) -> Duration {
        done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Due time of request `i` when `streams` generators share one rate:
/// generator `k` sends every `streams / rate` seconds, offset by its share.
pub fn due_time(start: Instant, rate: f64, streams: usize, k: usize, i: usize) -> Instant {
    let interval = streams as f64 / rate;
    start + Duration::from_secs_f64(interval * (i as f64 + k as f64 / streams as f64))
}

/// One traced span: a named interval with its parent and request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub id: u64,
    pub parent: Option<u64>,
    /// Start and end, in microseconds from the trace's origin.
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// child spans cover (overlapping children are counted once). Returned in
/// the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: std::collections::HashMap<u64, Vec<(f64, f64)>> =
        std::collections::HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_us, span.end_us));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get(&span.id)
                .map(|kids| covered_us(kids, span.start_us, span.end_us))
                .unwrap_or(0.0);
            (span.duration_us() - covered).max(0.0)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_us(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Median of a slice (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut l = Latencies::default();
        for ms in 1..=100 {
            l.push_ms(ms as f64);
        }
        assert_eq!(l.percentile(50.0), Some(50.0));
        assert_eq!(l.percentile(99.0), Some(99.0));
        let tail = l.tail().unwrap();
        assert_eq!((tail.percentile, tail.value, tail.count), (90.0, 90.0, 100));
    }

    #[test]
    fn failures_are_misses_not_dropped_samples() {
        let mut l = Latencies::default();
        for _ in 0..95 {
            l.push_ms(1.0);
        }
        for _ in 0..5 {
            l.push(Sample::Miss);
        }
        // Dropping the misses would report 1 ms at p99; ranking them last
        // reports the miss.
        assert_eq!(l.count(), 100);
        assert_eq!(l.misses(), 5);
        assert_eq!(l.percentile(50.0), Some(1.0));
        assert_eq!(l.percentile(99.0), Some(f64::INFINITY));
        assert_eq!(l.mean(), Some(1.0));
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let start = Instant::now();
        let due = due_time(start, 100.0, 2, 1, 3);
        // Two streams at 100/s: each sends every 20 ms, stream 1 offset by 10 ms.
        assert_eq!(due - start, Duration::from_millis(70));
        let s = Scheduled {
            due,
            sent: due + Duration::from_millis(4),
        };
        assert_eq!(s.late(), Duration::from_millis(4));
        assert_eq!(
            s.latency(due + Duration::from_millis(9)),
            Duration::from_millis(9)
        );
        // A response can never be earlier than its due time.
        assert_eq!(s.latency(start), Duration::ZERO);
    }

    fn span(id: u64, parent: Option<u64>, start_us: f64, end_us: f64) -> Span {
        Span {
            name: "s",
            request: 1,
            id,
            parent,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 40.0),
            // Overlaps the first child: 30..60 adds only 40..60.
            span(3, Some(1), 30.0, 60.0),
            // Spills past the parent's end: clipped to 90..100.
            span(4, Some(1), 90.0, 120.0),
            span(5, Some(2), 10.0, 20.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100.0 - 50.0 - 10.0, 20.0, 30.0, 30.0, 10.0]);
    }

    #[test]
    fn windowed_medians_ignore_one_bad_window() {
        let mut samples = Vec::new();
        for w in 0..5 {
            for i in 0..100 {
                // Window 2 is a stall: every sample is 100x slower.
                let ms = if w == 2 {
                    100.0
                } else {
                    1.0 + i as f64 / 100.0
                };
                samples.push((w as f64 + i as f64 / 100.0, Sample::Ok(ms)));
            }
        }
        // A short trailing window is ignored for lack of samples.
        samples.push((5.5, Sample::Ok(1000.0)));
        // Nearest rank: the 50th of 1.00, 1.01, ..., 1.99.
        let p50s = window_percentiles(&samples, 1.0, 50.0, 100);
        assert_eq!(p50s, vec![1.49, 1.49, 100.0, 1.49, 1.49]);
        assert_eq!(median(&p50s), Some(1.49));
        assert!(window_percentiles(&samples, 1.0, 50.0, 1000).is_empty());
        let times: Vec<f64> = samples.iter().map(|(t, _)| *t).collect();
        // 100 per window, 0.01 s apart; the window past 5 s is not counted.
        let rate = window_rate(&times, 1.0, 5.0).unwrap();
        assert!((rate - 100.0).abs() < 1e-9, "{rate}");
        let rate = window_rate(&times, 0.5, 5.0).unwrap();
        assert!((rate - 100.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
