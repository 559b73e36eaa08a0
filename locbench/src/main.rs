//! `locbench` — the LOCATER benchmark. One command runs a named workload
//! against the real program, checks its answers, and prints every metric:
//!
//! ```text
//! cargo run --release --offline --manifest-path locbench/Cargo.toml -- \
//!     --workload serve_warm|serve_churn|batch_clean|all \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last stdout line is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
//! with `--trace 1`). A failed correctness gate exits with code 1; a run
//! that cannot complete exits with code 2 and prints no result.

mod batch;
mod countio;
mod data;
mod idle;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Gates, Metrics};
use std::path::PathBuf;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub const WORKLOADS: &[&str] = &["serve_warm", "serve_churn", "batch_clean"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds.is_nan() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

/// Where reports, spans and the WAL's temporary directory go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resets the peak-RSS mark, so `peak_rss_mb` covers the measured phase
/// and not the set-ups before it.
pub fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux 4.0+).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

extern "C" {
    fn sync();
}

/// Flushes every dirty page to disk, so the WAL's first fsyncs in the
/// measured phase do not wait on set-up's checkpoint writes.
pub fn flush_disk() {
    // SAFETY: sync(2) takes no arguments, touches no memory of ours and
    // cannot fail.
    unsafe { sync() }
}

/// Peak resident set size (`VmHWM`) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checkout's commit, when it is a git checkout.
fn git_rev() -> String {
    let git = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown (not a git checkout)".to_string(),
        rev => rev.to_string(),
    }
}

fn run_workload(name: &str, args: &Args) -> Result<(Metrics, Gates), String> {
    let policy = match name {
        "batch_clean" => idle::Yield::ByPriority,
        _ => idle::Yield::Immediately,
    };
    let pollers = idle::IdlePollers::start(nproc(), policy);
    if !pollers.active() {
        eprintln!("locbench: cannot lower a thread's priority; running without idle pollers");
    }
    let (mut m, gates) = match name {
        "serve_warm" => serve::run(&serve::SERVE_WARM, args)?,
        "serve_churn" => serve::run(&serve::SERVE_CHURN, args)?,
        "batch_clean" => batch::run(args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let rss = peak_rss_mb().ok_or("VmHWM is unavailable")?;
    m.report("peak_rss_mb", rss, "MB");
    Ok((m, gates))
}

fn write_outputs(m: &Metrics, gates: &Gates, args: &Args) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        m.workload,
        args.seed,
        u8::from(args.trace)
    );
    let context = [
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc().to_string()),
        (
            "protocol_version",
            locater_proto::PROTOCOL_VERSION.to_string(),
        ),
        ("git_rev", format!("\"{}\"", git_rev())),
        ("setups", SETUPS.to_string()),
    ];
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, report::report_json(m, gates, &context))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if args.trace {
        let path = dir.join(format!("{stem}.spans.ndjson"));
        std::fs::write(&path, report::spans_ndjson(&m.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("locbench: {message}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    for name in names {
        let outcome = run_workload(name, &args).and_then(|(m, gates)| {
            write_outputs(&m, &gates, &args)?;
            print!("{}", report::table(&m, &gates, args.trace));
            correct &= gates.all_ok();
            report::result_line(&m, &gates, args.trace)
        });
        match outcome {
            Ok(line) => println!("{line}"),
            Err(message) => {
                eprintln!("locbench: {name}: {message}");
                std::process::exit(2);
            }
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
