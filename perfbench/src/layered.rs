//! Pieces shared by the two runtime workloads (`layered-durable-tcp` and
//! `layered-fmm-batch`): session placement, the end-of-run correctness
//! checks, recovery, and the metrics both report.

use crate::client::{ClientRun, Lane, Read};
use crate::measure::{ratio, Outcome};
use crate::replay;
use crate::trace::Tracer;
use fourcycle_core::EngineKind;
use fourcycle_graph::LayeredGraph;
use fourcycle_runtime::RuntimeReport;
use fourcycle_service::{GraphId, SessionSpec};
use fourcycle_store::{JournalConfig, JournalStore};
use fourcycle_telemetry::{Stage, TelemetrySnapshot};
use std::path::Path;
use std::time::Instant;

/// The first `per_shard` session ids that `shard_of` places on each shard.
pub fn ids_per_shard(
    shard_of: impl Fn(GraphId) -> usize,
    shards: usize,
    per_shard: usize,
) -> Vec<Vec<GraphId>> {
    let mut by_shard = vec![Vec::new(); shards];
    let mut raw = 1;
    while by_shard
        .iter()
        .any(|ids: &Vec<GraphId>| ids.len() < per_shard)
    {
        let id = GraphId(raw);
        let ids = &mut by_shard[shard_of(id)];
        if ids.len() < per_shard {
            ids.push(id);
        }
        raw += 1;
    }
    by_shard
}

/// Seed of session `k`'s stream.
pub fn stream_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(k)
}

/// Adds the clients' operation counts, mismatches and CPU time to `out`.
/// Client threads have ended by now, so the process's own CPU total does
/// not include them.
pub fn tally(runs: &mut [ClientRun], out: &mut Outcome) {
    for run in runs {
        out.attempted += run.attempted;
        out.failed += run.failed;
        out.mismatches.append(&mut run.mismatches);
        out.sched = out.sched.plus(run.sched);
    }
}

/// Each session's final count against the brute-force oracle on the graph
/// rebuilt from the updates the session applied.
pub fn check_brute_force(lanes: &[Lane], out: &mut Outcome) {
    for lane in lanes {
        let mut graph = LayeredGraph::new();
        for update in &lane.stream[..lane.pos] {
            graph.apply(update);
        }
        let expected = graph.count_layered_4cycles_brute_force();
        out.check(
            &format!("{} count vs brute force", lane.id),
            expected,
            lane.count,
        );
    }
}

/// Recovers every shard of the journal in `dir` with `JournalStore`,
/// checks each session's recovered count and epoch against the live run,
/// and returns the seconds recovery took per journaled update.
pub fn recover(
    dir: &Path,
    lanes: &[Lane],
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<f64, String> {
    let store = JournalStore::resume(JournalConfig::new(dir)).map_err(|e| e.to_string())?;
    let mut secs = 0.0;
    let mut found = 0;
    for shard in 0..store.shards() {
        let start = Instant::now();
        let service = store.recover_shard(shard).map_err(|e| e.to_string())?;
        let end = Instant::now();
        secs += (end - start).as_secs_f64();
        if let Some(t) = tracer.as_deref_mut() {
            t.record("store.recover_shard", start, end, u64::MAX);
        }
        for lane in lanes.iter().filter(|lane| service.contains(lane.id)) {
            found += 1;
            let snap = service.snapshot(lane.id).map_err(|e| e.to_string())?;
            out.check(
                &format!("{} recovered (count, epoch)", lane.id),
                (lane.count, lane.epoch),
                (snap.count, snap.epoch),
            );
        }
    }
    out.check("sessions recovered", lanes.len(), found);
    let journaled: u64 = lanes.iter().map(|lane| lane.epoch).sum();
    Ok(secs / journaled as f64)
}

/// Runtime statistics and telemetry read at one instant.
pub struct Window {
    pub report: RuntimeReport,
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Per-command stage means between two windows, in nanoseconds.
pub struct Stages {
    /// Sum of all six stages.
    pub total_ns: f64,
    pub apply_ns: f64,
}

/// The runtime, store and telemetry metrics of the timed phase.
pub fn runtime_layers(before: &Window, after: &Window, out: &mut Outcome) -> Stages {
    let (b, a) = (&before.report.totals, &after.report.totals);
    let commands = (a.commands - b.commands) as f64;
    out.set(
        "runtime.commands_per_group",
        ratio(commands, (a.groups - b.groups) as f64),
    );
    out.set(
        "store.fsyncs_per_command",
        ratio((a.journal_fsyncs - b.journal_fsyncs) as f64, commands),
    );
    out.set(
        "runtime.queue_full_stalls",
        (a.queue_full_stalls - b.queue_full_stalls) as f64,
    );
    let busy_share = before
        .report
        .per_shard
        .iter()
        .zip(&after.report.per_shard)
        .map(|(b, a)| {
            let busy = (a.busy_nanos - b.busy_nanos) as f64;
            ratio(busy, busy + (a.idle_nanos - b.idle_nanos) as f64)
        })
        .fold(0.0, f64::max);
    out.set("runtime.busy_share", busy_share);

    let (Some(tb), Some(ta)) = (&before.telemetry, &after.telemetry) else {
        return Stages {
            total_ns: 0.0,
            apply_ns: 0.0,
        };
    };
    let mean = |stage: Stage| {
        let (a, b) = (ta.stage_total(stage), tb.stage_total(stage));
        ratio((a.sum - b.sum) as f64, (a.count() - b.count()) as f64)
    };
    out.set("runtime.queue_wait_us", mean(Stage::QueueWait) / 1e3);
    out.set("runtime.dispatch_us", mean(Stage::Dispatch) / 1e3);
    out.set("runtime.reply_us", mean(Stage::Reply) / 1e3);
    out.set("store.append_us", mean(Stage::JournalAppend) / 1e3);
    out.set("store.fsync_wait_us", mean(Stage::FsyncWait) / 1e3);
    out.set(
        "telemetry.events_emitted",
        (ta.events_emitted - tb.events_emitted) as f64,
    );
    out.set(
        "telemetry.events_dropped",
        (ta.events_dropped - tb.events_dropped) as f64,
    );
    Stages {
        total_ns: Stage::ALL.into_iter().map(mean).sum(),
        apply_ns: mean(Stage::Apply),
    }
}

/// Replays the timed phase into a service and into bare counters and one
/// engine; sets the core and service metrics and returns the service's
/// time per command, in nanoseconds.
#[allow(clippy::too_many_arguments)]
pub fn replay_layers(
    spec: SessionSpec,
    lanes: &[Lane],
    preload_batch: usize,
    batch: usize,
    read: Read,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<f64, String> {
    let kind: EngineKind = spec.kind;
    let (service, snapshot_ns) =
        replay::service_layered(spec, lanes, preload_batch, batch, read, tracer)?;
    let core = replay::core_layered(kind, lanes, preload_batch, batch, tracer)?;
    let engine = replay::engine_layered(kind, &lanes[0], batch, tracer);
    let batches: usize = lanes.iter().map(|lane| lane.requests.len()).sum();
    let updates = (batches * batch) as f64;
    let commands = 2.0 * batches as f64;
    out.set("core.apply_us_per_update", core.ns / updates / 1e3);
    out.set("core.slow_path_share", ratio(core.slow_ns, core.ns));
    out.set(
        "core.engine_update_ns",
        ratio(engine.update_ns, engine.updates as f64),
    );
    out.set(
        "core.engine_query_ns",
        ratio(engine.query_ns, engine.queries as f64),
    );
    out.set(
        "service.self_us_per_command",
        (service.ns - core.ns) / commands / 1e3,
    );
    out.set("service.snapshot_ns", snapshot_ns);
    Ok(service.ns / commands)
}

/// Mean latency of the timed phase's calls, reads included.
pub fn mean_call_ns(run: &ClientRun) -> f64 {
    let calls = (run.applies.len() + run.reads.len()) as f64;
    (run.applies.sum_ns() + run.reads.sum_ns()) as f64 / calls
}

/// Tracing overhead and how closely the layers' self times add up to the
/// traced end-to-end time. The call time outside the runtime's stages, the
/// stages, and the service replay (in place of the apply stage) are the
/// self times; `service_ns` is the replay's time per command.
pub fn closure(run: &ClientRun, stages: &Stages, service_ns: f64, out: &mut Outcome) {
    let traced = ratio(run.traced.0 as f64, run.traced.1 as f64);
    let untraced = ratio(run.untraced.0 as f64, run.untraced.1 as f64);
    let call_ns = mean_call_ns(run);
    out.set("trace.overhead_share", ratio(traced - untraced, untraced));
    out.set(
        "trace.self_sum_share",
        ratio(call_ns - stages.apply_ns + service_ns, traced),
    );
}
