//! Result bookkeeping, order statistics and the host fingerprint.

use fourcycle_core::Snapshot;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Client operations attempted in the timed phase.
    pub attempted: u64,
    /// Attempted operations that failed or were refused.
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub mismatches: Vec<String>,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// CPU time and run-queue wait of the timed phases.
    pub sched: Sched,
    /// Wall-clock seconds of the timed phases.
    pub timed_s: f64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a mismatch unless `expected == actual`.
    pub fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, expected: T, actual: T) {
        if expected != actual {
            self.mismatches
                .push(format!("{what}: expected {expected:?}, got {actual:?}"));
        }
    }

    /// Sets every per-layer metric of a layer the workload leaves idle.
    pub fn idle(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
        }
    }
}

/// Nearest-rank percentile of an ascending slice; `None` when the slice
/// has fewer than `10 / (1 - q)` samples, so that at least ten samples lie
/// beyond the percentile.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || (q > 0.5 && (n as f64) * (1.0 - q) < 10.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Call latencies with their completion times, both in nanoseconds from
/// the start of the timed phase, in call order.
#[derive(Default)]
pub struct Timings {
    samples: Vec<(u64, u64)>,
}

impl Timings {
    /// Records one call; returns its latency.
    pub fn push(&mut self, origin: Instant, start: Instant, end: Instant) -> u64 {
        let ns = nanos_between(start, end);
        self.samples.push((nanos_between(origin, end), ns));
        ns
    }

    pub fn extend(&mut self, other: Timings) {
        self.samples.extend(other.samples);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn sum_ns(&self) -> u64 {
        self.samples.iter().map(|&(_, ns)| ns).sum()
    }

    /// `(completion time, latency)` of every call, in completion order.
    fn by_completion(&self) -> Vec<(u64, u64)> {
        let mut all = self.samples.clone();
        all.sort_unstable();
        all
    }

    /// Latencies in ascending order.
    pub fn sorted(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.samples.iter().map(|&(_, ns)| ns).collect();
        all.sort_unstable();
        all
    }
}

/// Journaled updates `recover_s` is scaled to: the journal's length
/// depends on the workload, a per-update recovery cost does not.
const RECOVER_PER: f64 = 10_000.0;

/// The reads of a timed phase.
pub enum Reads {
    /// Each read timed on its own; the figure is their median.
    Calls(Timings),
    /// In-process reads, too short to time one at a time, timed in blocks
    /// of `calls` each; the figure is the mean per call over all blocks.
    /// Within one run, the blocks' times switch between two levels about
    /// a third apart, and a median would jump with them.
    Blocks { timings: Timings, calls: f64 },
}

/// What a plain run measured, from which every workload's end-to-end
/// metrics follow.
pub struct Plain {
    /// Every apply call of the timed phase, all clients together.
    pub applies: Timings,
    pub reads: Reads,
    /// Updates per apply call.
    pub batch: usize,
    /// Most segments the timed phase is cut into: `SEGMENTS` for a phase
    /// that costs alike from start to end, 1 for one whose cost grows as
    /// it runs (its segments differ by design, and their median would
    /// hinge on where the slow-path events fall).
    pub segments: usize,
    /// Seconds of each set-up.
    pub setups: Vec<f64>,
    /// Seconds per journaled update of the run's recovery.
    pub recover_s_per_update: f64,
    pub rss_bytes_per_edge: f64,
}

/// Most segments a steady timed phase is cut into.
pub const SEGMENTS: usize = 8;

/// Apply calls a segment needs at least, so that ten lie beyond its p99.
const SEGMENT_CALLS: usize = 1_000;

/// The timing figures of one segment of the timed phase.
struct Figures {
    updates_per_s: f64,
    apply_p50_us: f64,
    apply_p99_us: f64,
    read_p50_us: f64,
}

/// Cuts the timed phase, in completion order, into up to `plain.segments`
/// stretches of equally many apply calls (at least `SEGMENT_CALLS` each)
/// and works out each stretch's figures from its own calls: its rate from
/// its updates and the time from the previous stretch's last reply to its
/// own (the clients start together), its percentiles from its whole
/// latency distribution, and its reads' median from the reads that ended
/// within it (or, for reads timed in blocks, the mean over all blocks).
fn segments(plain: &Plain) -> Vec<Figures> {
    let applies = plain.applies.by_completion();
    let (reads, block_us) = match &plain.reads {
        Reads::Calls(timings) => (timings.by_completion(), None),
        Reads::Blocks { timings, calls } => {
            let us = timings.sum_ns() as f64 / (timings.len() as f64 * calls) / 1e3;
            (Vec::new(), Some(us))
        }
    };
    let sorted = |calls: &[(u64, u64)]| {
        let mut ns: Vec<u64> = calls.iter().map(|&(_, ns)| ns).collect();
        ns.sort_unstable();
        ns
    };
    let us = |sorted: &[u64], q: f64| percentile(sorted, q).map_or(f64::NAN, |ns| ns as f64 / 1e3);
    let k = (applies.len() / SEGMENT_CALLS).clamp(1, plain.segments.max(1));
    let (mut start_ns, mut read) = (0, 0);
    (0..k)
        .map(|i| {
            let chunk = &applies[i * applies.len() / k..(i + 1) * applies.len() / k];
            let end_ns = chunk.last().map_or(start_ns, |&(end, _)| end);
            // Each batch is followed by its read, so the last stretch takes
            // the reads that end after the last apply.
            let read_end = if i + 1 == k { u64::MAX } else { end_ns };
            let first_read = read;
            while read < reads.len() && reads[read].0 <= read_end {
                read += 1;
            }
            let (applied, chunk_reads) = (sorted(chunk), sorted(&reads[first_read..read]));
            let secs = (end_ns - start_ns) as f64 / 1e9;
            start_ns = end_ns;
            Figures {
                updates_per_s: (chunk.len() * plain.batch) as f64 / secs,
                apply_p50_us: us(&applied, 0.5),
                apply_p99_us: us(&applied, 0.99),
                read_p50_us: block_us.unwrap_or_else(|| us(&chunk_reads, 0.5)),
            }
        })
        .collect()
}

/// The end-to-end metrics: each timing is the median of the timed phase's
/// segments' figures, so a disturbance of the host that lasts less than
/// half the phase does not move it; `setup_s` is the median of the
/// set-ups.
pub fn end_to_end(out: &mut Outcome, plain: &Plain) {
    let figures = segments(plain);
    // NaN (a segment without enough samples) wins, so that it is reported.
    let median_of = |figure: fn(&Figures) -> f64| {
        let values: Vec<f64> = figures.iter().map(figure).collect();
        if values.iter().any(|v| v.is_nan()) {
            f64::NAN
        } else {
            median(&values)
        }
    };
    out.set("updates_per_s", median_of(|f| f.updates_per_s));
    out.set("apply_p50_us", median_of(|f| f.apply_p50_us));
    out.set("apply_p99_us", median_of(|f| f.apply_p99_us));
    out.set("read_p50_us", median_of(|f| f.read_p50_us));
    out.set("setup_s", median(&plain.setups));
    out.set("recover_s", plain.recover_s_per_update * RECOVER_PER);
    out.set("rss_bytes_per_edge", plain.rss_bytes_per_edge);
    for (i, f) in figures.iter().enumerate() {
        eprintln!(
            "perfbench: segment {i}: updates_per_s {:.1} apply_p50_us {:.2} apply_p99_us {:.2} \
             read_p50_us {:.4}",
            f.updates_per_s, f.apply_p50_us, f.apply_p99_us, f.read_p50_us
        );
    }
    eprintln!("perfbench: set-ups {:?} s", plain.setups);
}

/// Counts taken from session snapshots around the timed phase; exact for
/// a given seed and number of operations.
pub fn core_counts(before: &[Snapshot], after: &[Snapshot], updates: u64, out: &mut Outcome) {
    let delta = |f: fn(&Snapshot) -> u64| -> f64 {
        before
            .iter()
            .zip(after)
            .map(|(b, a)| (f(a) - f(b)) as f64)
            .sum()
    };
    out.set("core.work_per_update", delta(|s| s.work) / updates as f64);
    out.set("core.era_rebuilds", delta(|s| s.slow_path.era_rebuilds));
    out.set(
        "core.phase_rollovers",
        delta(|s| s.slow_path.phase_rollovers),
    );
    out.set(
        "core.class_transitions",
        delta(|s| s.slow_path.class_transitions),
    );
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Ratio that reads 0 instead of NaN when nothing happened.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Resident set size of this process, in bytes.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// CPU time and run-queue wait, in nanoseconds (`/proc/.../schedstat`).
#[derive(Clone, Copy, Default, Debug)]
pub struct Sched {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

impl Sched {
    fn parse(text: &str) -> Sched {
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        Sched {
            cpu_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
        }
    }

    /// The calling thread alone.
    pub fn thread() -> Sched {
        Sched::parse(&std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default())
    }

    /// Every live thread of the process.
    pub fn process() -> Sched {
        let mut total = Sched::default();
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let text =
                    std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
                total = total.plus(Sched::parse(&text));
            }
        }
        total
    }

    pub fn plus(self, other: Sched) -> Sched {
        Sched {
            cpu_ns: self.cpu_ns.saturating_add(other.cpu_ns),
            wait_ns: self.wait_ns.saturating_add(other.wait_ns),
        }
    }

    pub fn minus(self, other: Sched) -> Sched {
        Sched {
            cpu_ns: self.cpu_ns.saturating_sub(other.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(other.wait_ns),
        }
    }
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// One JSON line naming the host and the timed phases' wall time, CPU time
/// and run-queue wait, so figures from another host or a contended run can
/// be recognised.
pub fn host_fingerprint(workload: &str, seed: u64, timed_s: f64, sched: Sched) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host\": {{\"cpu\": {}, \"nproc\": {nproc}, \"kernel\": {}, \"rustc\": {}, \
         \"workload\": {}, \"seed\": {seed}, \"timed_s\": {timed_s}, \"cpu_s\": {}, \
         \"run_queue_wait_s\": {}}}}}",
        json_str(&cpu),
        json_str(&kernel),
        json_str(&rustc),
        json_str(workload),
        sched.cpu_ns as f64 / 1e9,
        sched.wait_ns as f64 / 1e9,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(percentile(&[7], 0.5), Some(7));
    }

    #[test]
    fn a_short_phase_is_one_segment() {
        let origin = Instant::now();
        let at = |ms: u64| origin + std::time::Duration::from_millis(ms);
        let mut applies = Timings::default();
        for (start, end) in [(0, 1), (1, 4), (4, 6), (6, 10)] {
            applies.push(origin, at(start), at(end));
        }
        let plain = Plain {
            applies,
            reads: Reads::Calls(Timings::default()),
            batch: 2,
            segments: SEGMENTS,
            setups: vec![3.0, 1.0, 2.0],
            recover_s_per_update: 1.5e-4,
            rss_bytes_per_edge: 5.0,
        };
        let mut out = Outcome::default();
        end_to_end(&mut out, &plain);
        // 4 calls of 2 updates in 10 ms.
        assert_eq!(out.metrics["updates_per_s"], 800.0);
        assert_eq!(out.metrics["apply_p50_us"], 2_000.0);
        assert!(
            out.metrics["apply_p99_us"].is_nan(),
            "too few samples for a p99"
        );
        assert!(out.metrics["read_p50_us"].is_nan());
        assert_eq!(out.metrics["setup_s"], 2.0);
        assert!((out.metrics["recover_s"] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn a_disturbed_segment_does_not_move_the_medians() {
        let origin = Instant::now();
        let at = |us: u64| origin + std::time::Duration::from_micros(us);
        let (mut applies, mut reads) = (Timings::default(), Timings::default());
        let mut now = 0;
        // Three segments of 1,000 calls; the middle one runs at a third of
        // the speed.
        for i in 0..3_000 {
            let cost = if (1_000..2_000).contains(&i) { 30 } else { 10 };
            applies.push(origin, at(now), at(now + cost));
            reads.push(origin, at(now + cost), at(now + cost + 1));
            now += cost + 1;
        }
        let plain = Plain {
            applies,
            reads: Reads::Calls(reads),
            batch: 1,
            segments: SEGMENTS,
            setups: vec![1.0],
            recover_s_per_update: 1e-4,
            rss_bytes_per_edge: 1.0,
        };
        let mut out = Outcome::default();
        end_to_end(&mut out, &plain);
        assert_eq!(out.metrics["apply_p50_us"], 10.0);
        assert_eq!(out.metrics["apply_p99_us"], 10.0);
        assert_eq!(out.metrics["read_p50_us"], 1.0);
        // 1,000 updates in 11 ms.
        assert!((out.metrics["updates_per_s"] - 1e6 / 11.0).abs() < 1.0);
    }

    #[test]
    fn block_reads_give_the_mean_per_call() {
        let origin = Instant::now();
        let at = |us: u64| origin + std::time::Duration::from_micros(us);
        let mut applies = Timings::default();
        for i in 0..10 {
            applies.push(origin, at(i), at(i + 1));
        }
        let mut blocks = Timings::default();
        blocks.push(origin, at(0), at(20));
        blocks.push(origin, at(20), at(30));
        blocks.push(origin, at(30), at(60));
        let plain = Plain {
            applies,
            reads: Reads::Blocks {
                timings: blocks,
                calls: 1_000.0,
            },
            batch: 1,
            segments: 1,
            setups: vec![1.0],
            recover_s_per_update: 1e-4,
            rss_bytes_per_edge: 1.0,
        };
        let mut out = Outcome::default();
        end_to_end(&mut out, &plain);
        // 60 us over 3,000 calls.
        assert!((out.metrics["read_p50_us"] - 0.02).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
