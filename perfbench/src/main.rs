//! `perfbench` — the repository's benchmark: three closed-loop workloads
//! over the counting service, end-to-end metrics from plain runs and
//! per-layer metrics from a separate traced run. See `README.md` in this
//! directory for the workloads, the metrics and what each should move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the host fingerprint. The exit code is non-zero when a correctness
//! check failed or the run could not complete.

mod client;
mod durable_tcp;
mod fmm_batch;
mod gen;
mod general_churn;
mod layered;
mod measure;
mod replay;
mod trace;

use measure::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by plain runs (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("updates_per_s", "1/s"),
    ("apply_p50_us", "us"),
    ("apply_p99_us", "us"),
    ("read_p50_us", "us"),
    ("setup_s", "s"),
    ("recover_s", "s"),
    ("rss_bytes_per_edge", "B"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 28] = [
    ("core.apply_us_per_update", "us"),
    ("core.work_per_update", "count"),
    ("core.era_rebuilds", "count"),
    ("core.phase_rollovers", "count"),
    ("core.class_transitions", "count"),
    ("core.slow_path_share", "share"),
    ("core.engine_update_ns", "ns"),
    ("core.engine_query_ns", "ns"),
    ("service.self_us_per_command", "us"),
    ("service.snapshot_ns", "ns"),
    ("store.append_us", "us"),
    ("store.fsync_wait_us", "us"),
    ("store.fsyncs_per_command", "count"),
    ("store.wal_bytes_per_update", "B"),
    ("runtime.queue_wait_us", "us"),
    ("runtime.dispatch_us", "us"),
    ("runtime.reply_us", "us"),
    ("runtime.commands_per_group", "count"),
    ("runtime.busy_share", "share"),
    ("runtime.queue_full_stalls", "count"),
    ("server.self_us", "us"),
    ("server.bytes_in_per_command", "B"),
    ("server.bytes_out_per_command", "B"),
    ("server.busy_rejections", "count"),
    ("telemetry.events_emitted", "count"),
    ("telemetry.events_dropped", "count"),
    ("trace.overhead_share", "share"),
    ("trace.self_sum_share", "share"),
];

/// Set-ups per plain run: the first builds the sessions the timed phase
/// runs on, the others are torn down as soon as they are timed; `setup_s`
/// is their median.
pub const SETUPS: usize = 3;

/// Workload names accepted by `--workload`.
const WORKLOADS: [&str; 3] = ["general-churn", "layered-durable-tcp", "layered-fmm-batch"];

/// Everything a workload needs to know about the run.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs, a small fixed number of timed operations and two
    /// set-ups, so that every workload runs in seconds and its exact
    /// counts repeat for a seed (used by the benchmark's own test).
    pub smoke: bool,
    /// Scratch directory for journals; removed when the run ends.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

impl RunConfig {
    /// How many operations a client performs in the timed phase:
    /// `per_second` for each of `--seconds` (a fixed amount of work for
    /// every run, sized so that the timed phase lasts about `--seconds` on
    /// the reference host), or `smoke_ops` in smoke mode.
    pub fn ops(&self, per_second: f64, smoke_ops: u64) -> u64 {
        if self.smoke {
            smoke_ops
        } else {
            (per_second * self.seconds).ceil() as u64
        }
    }

    /// Set-ups of this run: one for a traced run, `SETUPS` (two in smoke
    /// mode) for a plain run.
    pub fn setups(&self) -> usize {
        match (self.trace, self.smoke) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => SETUPS,
        }
    }

    /// A timed phase of `ops` operations per client, starting now.
    pub fn budget(&self, ops: u64) -> Budget {
        Budget {
            ops,
            deadline: Instant::now() + Duration::from_secs_f64((3.0 * self.seconds).max(10.0)),
        }
    }

    /// Picks the full-size or the smoke-size value of a parameter.
    pub fn size<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// The work of one client in the timed phase. The deadline only bounds
/// the run time of a program that got several times slower.
#[derive(Clone, Copy)]
pub struct Budget {
    ops: u64,
    deadline: Instant,
}

impl Budget {
    /// `true` while a client that has completed `done` operations should
    /// send another.
    pub fn more(&self, done: u64) -> bool {
        done < self.ops && Instant::now() < self.deadline
    }
}

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let state = root.join(".perfbench");
    Ok(RunConfig {
        work: state.join(format!("work-{workload}-{}", std::process::id())),
        trace_dir: state.join("traces"),
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work.display());
        return ExitCode::from(1);
    }
    let result = match cfg.workload.as_str() {
        "general-churn" => general_churn::run(&cfg),
        "layered-durable-tcp" => durable_tcp::run(&cfg),
        _ => fmm_batch::run(&cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    match result {
        Ok(outcome) => report(&cfg, outcome),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            ExitCode::from(1)
        }
    }
}

/// Prints the host fingerprint and the result line; the exit code says
/// whether every correctness check passed.
fn report(cfg: &RunConfig, outcome: Outcome) -> ExitCode {
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        match outcome.metrics.get(name) {
            Some(value) if value.is_finite() => metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )),
            other => {
                eprintln!("perfbench: metric {name} was not measured ({other:?})");
                return ExitCode::from(1);
            }
        }
    }
    for mismatch in &outcome.mismatches {
        eprintln!("perfbench: correctness: {mismatch}");
    }
    println!(
        "{}",
        measure::host_fingerprint(&cfg.workload, cfg.seed, outcome.timed_s, outcome.sched)
    );
    let correct = outcome.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
