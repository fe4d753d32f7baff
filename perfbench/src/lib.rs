//! halox benchmark: three workloads from one command, each printing its
//! end-to-end metrics (untraced run) or per-layer metrics (traced run)
//! and checking every output bitwise against the serial executor.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload md-bulk|md-halo|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

pub mod config;
pub mod md;
pub mod probes;
pub mod serve;
pub mod service;
pub mod util;

use halox_trace::{chrome_trace, Event, Payload, Trace, DRIVER_PE};
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use util::{Metrics, Spans, Tally};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Samples per block for a block median of a rate or a p50, and of a p90
/// (ten samples beyond it).
pub const P50_BLOCK: usize = 10;
pub const P90_BLOCK: usize = 100;

pub const WORKLOADS: [&str; 3] = ["md-bulk", "md-halo", "serve-mix"];

/// What one run produced.
pub struct Report {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Human-readable context: resolved config, sample counts, the gpusim
    /// comparison.
    pub lines: Vec<String>,
    pub spans: Spans,
    /// The recorder trace of the last traced job or window, with the
    /// offset (us) of its clock from the span clock.
    pub trace: Option<(Trace, u64)>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: halox-perfbench --workload <md-bulk|md-halo|serve-mix> --seed <n> --seconds <n> --trace <0|1>";

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(format!("unknown workload {value:?}")),
                "--seed" => seed = Some(value.parse().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse().map_err(bad)?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                },
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Where traces and probe files go: the cargo target directory, which is
/// inside the checkout and ignored by git.
pub fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("perfbench-out")
}

pub fn run(args: &Args, scratch: &Path) -> Report {
    let seconds = args.seconds as f64;
    match args.workload.as_str() {
        "md-bulk" => md::run(&md::MD_BULK, args.seed, seconds, args.trace, scratch),
        "md-halo" => md::run(&md::MD_HALO, args.seed, seconds, args.trace, scratch),
        "serve-mix" => serve::run(args.seed, seconds, args.trace, scratch),
        other => unreachable!("Args::parse admits only known workloads, got {other}"),
    }
}

/// The result line: `correct` holds when every output matched its
/// reference and every metric is a finite number.
pub fn result_json(report: &Report) -> Value {
    let mut metrics = Map::new();
    for &(name, value, unit) in &report.metrics.0 {
        metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
    }
    let finite = report.metrics.0.iter().all(|(_, v, _)| v.is_finite());
    json!({
        "correct": report.tally.wrong == 0 && finite,
        "attempted": report.tally.attempted,
        "failed": report.tally.failed,
        "metrics": Value::Object(metrics),
    })
}

/// Chrome trace of a traced run: the recorder's events from the engine
/// and world, plus the benchmark's spans on the `DRIVER_PE` lane. The spans
/// with their parents and run ids are kept whole under `benchSpans`.
pub fn chrome_json(report: &Report) -> Value {
    let mut events: Vec<Event> = Vec::new();
    if let Some((trace, offset_us)) = &report.trace {
        events.extend(trace.events.iter().map(|e| Event {
            ts_us: e.ts_us + offset_us,
            ..*e
        }));
    }
    let first_seq = events.len() as u64;
    events.extend(report.spans.list.iter().enumerate().map(|(i, s)| Event {
        seq: first_seq + i as u64,
        pe: DRIVER_PE,
        ts_us: s.start_us,
        dur_us: s.end_us.saturating_sub(s.start_us),
        payload: Payload::Span {
            name: s.name,
            pulse: -1,
        },
    }));
    let dropped = report.trace.as_ref().map_or(0, |(t, _)| t.dropped);
    let mut out = chrome_trace(&Trace { events, dropped });
    let spans: Vec<Value> = report
        .spans
        .list
        .iter()
        .map(|s| {
            json!({
                "name": s.name,
                "start_us": s.start_us,
                "end_us": s.end_us,
                "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                "run": s.run,
            })
        })
        .collect();
    if let Value::Object(map) = &mut out {
        map.insert("benchSpans".into(), Value::Array(spans));
    }
    out
}
