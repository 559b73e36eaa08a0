//! Metric collection, correctness gates, and the run's outputs: a readable
//! table, a detailed report file, and the one-line JSON result.

use crate::data::Accuracy;
use crate::stats::{median, window_percentiles, Latencies, Sample, Span, MIN_BEYOND};
use crate::trace::summarize;
use std::fmt::Write as _;

/// End-to-end metrics in the JSON result, defined on every workload.
pub const END_TO_END: &[&str] = &[
    "locate_p50_ms",
    "locate_p90_ms",
    "capacity_rps",
    "region_acc",
    "room_acc",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics in the traced run's JSON result. A layer a workload
/// does not exercise reports 0 and is listed as not exercised.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.late_p99_ms", "ms"),
    ("proto.decode_us", "us"),
    ("proto.encode_us", "us"),
    ("proto.resp_bytes", "bytes"),
    ("server.exec_us_p50", "us"),
    ("server.exec_us_p99", "us"),
    ("server.frontdoor_us", "us"),
    ("server.queued_max", "count"),
    ("server.in_flight_mean", "count"),
    ("system.locate_us_p50", "us"),
    ("system.locate_us_p99", "us"),
    ("system.ingest_us_p50", "us"),
    ("system.ingest_us_p99", "us"),
    ("system.lock_wait_us_p50", "us"),
    ("system.lock_wait_us_p99", "us"),
    ("coarse.trains", "count"),
    ("coarse.model_reuse_ratio", "ratio"),
    ("coarse.shortcut_ratio", "ratio"),
    ("coarse.train_us_p50", "us"),
    ("coarse.train_us_p99", "us"),
    ("fine.engine_us_p50", "us"),
    ("fine.engine_us_p99", "us"),
    ("fine.neighbors_processed", "count"),
    ("fine.neighbors_considered", "count"),
    ("fine.early_stop_ratio", "ratio"),
    ("fine.cache_warm_ratio", "ratio"),
    ("fine.locate_us", "us"),
    ("store.io_writes", "count"),
    ("store.io_bytes_per_ingest", "bytes"),
    ("store.fsyncs", "count"),
    ("store.fsync_us", "us"),
    ("store.resident_mb", "MB"),
    ("batch.scaling", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// One workload run's measurements.
#[derive(Debug, Default)]
pub struct Metrics {
    pub workload: &'static str,
    /// End-to-end metrics: those in the JSON result and the report-only ones.
    pub e2e: Vec<(String, f64, &'static str)>,
    pub layers: Vec<(String, f64, &'static str)>,
    /// Sample counts and supported percentiles behind latency metrics.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

impl Metrics {
    pub fn new(workload: &'static str) -> Self {
        Metrics {
            workload,
            ..Metrics::default()
        }
    }

    pub fn report(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.retain(|(n, _, _)| n != name);
        self.e2e.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.retain(|(n, _, _)| n != name);
        self.layers.push((name.to_string(), value, unit));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.layers)
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// `<op>_p50_ms` and `<op>_p99_ms`, noting the sample count and the
    /// highest percentile the sample supports. Skipped for an empty set.
    pub fn e2e_latency(&mut self, op: &str, latencies: &Latencies) {
        let n = latencies.count();
        if n == 0 {
            return;
        }
        for p in [50.0, 99.0] {
            let value = latencies.percentile(p).unwrap_or(f64::NAN);
            self.report(&format!("{op}_p{p:.0}_ms"), value, "ms");
        }
        self.note_tail(op, latencies);
    }

    /// `<op>_p50_ms` and `<op>_p99_ms` as the medians over time windows of
    /// each window's percentile (`widths_s` gives the p50 and the p99
    /// window); only windows that support the percentile (10 samples beyond
    /// it) count. `overall` is noted too.
    pub fn windowed_latency(
        &mut self,
        op: &str,
        overall: &Latencies,
        samples: &[(f64, Sample)],
        widths_s: (f64, f64),
    ) -> Result<(), String> {
        let plan = [
            (50.0, widths_s.0, 2 * MIN_BEYOND),
            (90.0, widths_s.0, 10 * MIN_BEYOND),
            (95.0, widths_s.1, 20 * MIN_BEYOND),
            (99.0, widths_s.1, 100 * MIN_BEYOND),
        ];
        for (p, width_s, min_count) in plan {
            let values = window_percentiles(samples, width_s, p, min_count);
            let value = median(&values).ok_or_else(|| {
                format!("{op}: no {width_s:.3} s window holds {min_count} samples")
            })?;
            self.report(&format!("{op}_p{p:.0}_ms"), value, "ms");
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
            self.notes.push(format!(
                "{op}: p{p} is the median over {} windows of {width_s:.3} s: {} ms",
                values.len(),
                shown.join(" ")
            ));
        }
        self.note_tail(op, overall);
        Ok(())
    }

    fn note_tail(&mut self, op: &str, latencies: &Latencies) {
        let n = latencies.count();
        self.notes.push(format!(
            "{op}: n={n}, misses={}, overall p50 = {:.3} ms, highest supported percentile {}",
            latencies.misses(),
            latencies.percentile(50.0).unwrap_or(f64::NAN),
            latencies.tail().map_or("none".to_string(), |t| format!(
                "p{} = {:.3} ms",
                t.percentile, t.value
            )),
        ));
    }

    pub fn accuracy(&mut self, accuracy: &Accuracy) {
        self.report("region_acc", accuracy.region_acc(), "ratio");
        self.report("room_acc", accuracy.room_acc(), "ratio");
        self.notes.push(format!(
            "accuracy: {} answers scored against ground truth",
            accuracy.scored()
        ));
    }

    /// Per-layer metrics this workload did not set.
    pub fn unexercised(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| self.layers.iter().all(|(n, _, _)| n != name))
            .collect()
    }
}

/// Correctness gates: each a name, a verdict and a detail line.
#[derive(Debug, Default)]
pub struct Gates(pub Vec<(String, bool, String)>);

impl Gates {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.0.push((name.to_string(), ok, detail));
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|(_, ok, _)| *ok)
    }
}

/// A JSON number; non-finite values have no JSON form and print as null.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_map<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let fields: Vec<String> = items
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The last stdout line: correctness, counts, and the metrics of this mode.
/// Fails when the workload did not produce an end-to-end metric.
pub fn result_line(m: &Metrics, gates: &Gates, trace: bool) -> Result<String, String> {
    let metrics = if trace {
        metric_map(PER_LAYER.iter().map(|&(name, unit)| {
            let value = m
                .layers
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |(_, v, _)| *v);
            (name, value, unit)
        }))
    } else {
        let mut items = Vec::new();
        for name in END_TO_END {
            let (_, value, unit) = m
                .e2e
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("{}: metric {name} was not measured", m.workload))?;
            items.push((*name, *value, *unit));
        }
        metric_map(items.into_iter())
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gates.all_ok(),
        m.attempted.max(1),
        m.failed,
        metrics
    ))
}

/// The readable table printed before the result line.
pub fn table(m: &Metrics, gates: &Gates, trace: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", m.workload);
    for (name, value, unit) in &m.e2e {
        let _ = writeln!(out, "  {name:<28} {value:>14.4} {unit}");
    }
    for note in &m.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    if trace {
        let _ = writeln!(out, "  -- per layer --");
        for (name, value, unit) in &m.layers {
            let _ = writeln!(out, "  {name:<28} {value:>14.4} {unit}");
        }
        let absent = m.unexercised();
        if !absent.is_empty() {
            let _ = writeln!(
                out,
                "  not exercised (reported as 0): {}",
                absent.join(", ")
            );
        }
        let _ = writeln!(
            out,
            "  -- span self time (us: count, mean total, mean self) --"
        );
        for (name, s) in summarize(&m.spans) {
            let n = s.count.max(1) as f64;
            let _ = writeln!(
                out,
                "  {name:<28} {:>8} {:>12.1} {:>12.1}",
                s.count,
                s.total_us / n,
                s.self_us / n
            );
        }
    }
    for (name, ok, detail) in &gates.0 {
        let _ = writeln!(
            out,
            "  gate {}: {name} ({detail})",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    out
}

/// The detailed report file: run context, every metric with its unit, the
/// notes, the gates, and the span summary.
pub fn report_json(m: &Metrics, gates: &Gates, context: &[(&str, String)]) -> String {
    let ctx: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), v))
        .collect();
    let gates_json: Vec<String> = gates
        .0
        .iter()
        .map(|(name, ok, detail)| {
            format!(
                "{{\"gate\": {}, \"ok\": {ok}, \"detail\": {}}}",
                quote(name),
                quote(detail)
            )
        })
        .collect();
    let spans: Vec<String> = summarize(&m.spans)
        .into_iter()
        .map(|(name, s)| {
            format!(
                "{}: {{\"count\": {}, \"total_us\": {}, \"self_us\": {}}}",
                quote(name),
                s.count,
                num(s.total_us),
                num(s.self_us)
            )
        })
        .collect();
    let notes: Vec<String> = m.notes.iter().map(|n| quote(n)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"context\": {{{}}},\n  \"end_to_end\": {},\n  \"per_layer\": {},\n  \
         \"not_exercised\": [{}],\n  \"notes\": [{}],\n  \"gates\": [{}],\n  \"spans\": {{{}}}\n}}\n",
        quote(m.workload),
        ctx.join(", "),
        metric_map(m.e2e.iter().map(|(n, v, u)| (n.as_str(), *v, *u))),
        metric_map(m.layers.iter().map(|(n, v, u)| (n.as_str(), *v, *u))),
        m.unexercised().iter().map(|n| quote(n)).collect::<Vec<_>>().join(", "),
        notes.join(", "),
        gates_json.join(", "),
        spans.join(", "),
    )
}

/// Every span, one JSON object per line.
pub fn spans_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\": {}, \"request\": {}, \"id\": {}, \"parent\": {}, \"start_us\": {}, \"end_us\": {}}}",
            quote(s.name),
            s.request,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            num(s.start_us),
            num(s.end_us)
        );
    }
    out
}
