//! `general-churn`: one in-process `CycleCountService` session in General
//! mode on `EngineKind::Fmm`, journaled with `FsyncPolicy::OnShutdown`,
//! fed single-update applies of uniform churn. Almost all of its time is
//! the §8 reduction into four rotated engines; runtime and server are idle.

use crate::measure::{
    median, nanos_between, ratio, rss_bytes, Outcome, Plain, Reads, Sched, Timings,
};
use crate::replay;
use crate::trace::Tracer;
use crate::{Budget, RunConfig};
use fourcycle_core::{EngineConfig, EngineKind, Snapshot};
use fourcycle_graph::{GeneralGraph, GraphUpdate};
use fourcycle_service::{CycleCountService, GraphId, Request, Response, SessionSpec, WorkloadMode};
use fourcycle_store::{wal_file, FsyncPolicy, JournalConfig, JournalStore};
use std::path::Path;
use std::time::Instant;

const ID: GraphId = GraphId(1);
const PRELOAD_BATCH: usize = 64;
/// Timed updates per second of `--seconds` (about the reference host's
/// rate).
const UPDATES_PER_SECOND: f64 = 1_000.0;
/// Single updates between two blocks of snapshot reads.
const READ_EVERY: u64 = 64;

fn spec() -> SessionSpec {
    SessionSpec {
        kind: EngineKind::Fmm,
        config: EngineConfig::default(),
        mode: WorkloadMode::General,
    }
}

fn journal(dir: &Path) -> JournalConfig {
    JournalConfig::new(dir).fsync(FsyncPolicy::OnShutdown)
}

/// Opens a fresh journaled service and preloads the graph; returns it with
/// the seconds this took.
fn setup(dir: &Path, preload: &[GraphUpdate]) -> Result<(CycleCountService, f64), String> {
    let start = Instant::now();
    let store = JournalStore::open(journal(dir), 1, spec()).map_err(|e| e.to_string())?;
    let mut service = store.open_shard(0).map_err(|e| e.to_string())?;
    service
        .execute(&Request::CreateGraph { id: ID, spec: None })
        .map_err(|e| e.to_string())?;
    for chunk in preload.chunks(PRELOAD_BATCH) {
        let updates = chunk.to_vec();
        service
            .execute(&Request::ApplyGeneralBatch { id: ID, updates })
            .map_err(|e| format!("preload: {e}"))?;
    }
    Ok((service, start.elapsed().as_secs_f64()))
}

#[derive(Default)]
struct Phase {
    updates: usize,
    applies: Timings,
    /// Each block of snapshot reads, recorded as one call.
    reads: Timings,
    traced: (u64, u64),
    untraced: (u64, u64),
}

impl Phase {
    /// The median block's time per snapshot call.
    fn snapshot_ns(&self) -> f64 {
        let blocks: Vec<f64> = self
            .reads
            .sorted()
            .into_iter()
            .map(|ns| ns as f64)
            .collect();
        median(&blocks) / f64::from(replay::SNAPSHOT_BLOCK)
    }
}

fn timed_phase(
    service: &mut CycleCountService,
    timed: &[GraphUpdate],
    start_epoch: u64,
    budget: Budget,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let started = Instant::now();
    while budget.more(phase.updates as u64) {
        let i = phase.updates;
        let update = *timed.get(i).ok_or("general stream exhausted")?;
        let request = Request::ApplyGeneral { id: ID, update };
        out.attempted += 1;
        let start = Instant::now();
        let reply = service.execute(&request);
        let end = Instant::now();
        let expected = start_epoch + i as u64 + 1;
        match reply {
            Ok(Response::Applied { id, epoch, .. }) if id == ID && epoch == expected => {}
            Ok(other) => out
                .mismatches
                .push(format!("update {i} answered {other:?}")),
            Err(e) => {
                out.failed += 1;
                return Err(format!("update {i} failed: {e}"));
            }
        }
        let ns = phase.applies.push(started, start, end);
        phase.updates += 1;
        let traced_block = (i as u64 / crate::client::BLOCK).is_multiple_of(2);
        match tracer.as_deref_mut() {
            Some(t) if traced_block => {
                t.record("service.execute_journaled", start, end, i as u64);
                phase.traced = (phase.traced.0 + ns, phase.traced.1 + 1);
            }
            _ => phase.untraced = (phase.untraced.0 + ns, phase.untraced.1 + 1),
        }
        if (phase.updates as u64).is_multiple_of(READ_EVERY) {
            let reads = replay::SNAPSHOT_BLOCK;
            out.attempted += u64::from(reads);
            let start = Instant::now();
            for _ in 0..reads {
                match service.snapshot(std::hint::black_box(ID)) {
                    Ok(snap) if snap.epoch == expected => {}
                    other => {
                        out.failed += 1;
                        out.mismatches
                            .push(format!("snapshot after update {i}: {other:?}"));
                    }
                }
            }
            let end = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                t.record("service.snapshot", start, end, i as u64);
            }
            phase.reads.push(started, start, end);
        }
    }
    Ok(phase)
}

/// Recovers the journal in `dir` into a fresh service, checks the
/// recovered snapshot against the live one, and returns the seconds
/// recovery took.
fn recover(
    dir: &Path,
    live: &Snapshot,
    tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<f64, String> {
    let store = JournalStore::resume(journal(dir)).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let recovered = store.recover_shard(0).map_err(|e| e.to_string())?;
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record("store.recover_shard", start, end, u64::MAX);
    }
    let snap = recovered.snapshot(ID).map_err(|e| e.to_string())?;
    out.check(
        "recovered (count, epoch)",
        (live.count, live.epoch),
        (snap.count, snap.epoch),
    );
    Ok((end - start).as_secs_f64())
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let vertices = cfg.size(2_000, 300);
    let preload_len = cfg.size(7_000, 1_500);
    let ops = cfg.ops(UPDATES_PER_SECOND, 1_200);
    let stream = crate::gen::general(cfg.seed, vertices, preload_len + ops as usize, 0.2);
    let (preload, timed) = stream.split_at(preload_len);
    let mut out = Outcome::default();
    let mut tracer = cfg.trace.then(|| Tracer::new(Instant::now()));

    let rss_before = rss_bytes();
    let dir = cfg.work.join("journal");
    let (mut service, setup_s) = setup(&dir, preload)?;
    let before = service.snapshot(ID).map_err(|e| e.to_string())?;
    let sched = Sched::process();
    let started = Instant::now();
    let phase = timed_phase(
        &mut service,
        timed,
        before.epoch,
        cfg.budget(ops),
        tracer.as_mut(),
        &mut out,
    )?;
    out.sched = Sched::process().minus(sched);
    out.timed_s = started.elapsed().as_secs_f64();
    let rss_after = rss_bytes();
    let live = service.snapshot(ID).map_err(|e| e.to_string())?;
    // Correctness: the brute-force oracle on the graph rebuilt from the
    // stream, computed outside the timed phase.
    let mut graph = GeneralGraph::new();
    for update in &stream[..preload_len + phase.updates] {
        graph.apply(update);
    }
    out.check(
        "count vs brute force",
        graph.count_4cycles_brute_force(),
        live.count,
    );
    drop(graph);
    let fsync_start = Instant::now();
    service.sync_journal().map_err(|e| e.to_string())?;
    let fsync_ns = nanos_between(fsync_start, Instant::now()) as f64;
    let fsyncs = service.journal_fsyncs();
    drop(service);

    let mut setups = vec![setup_s];
    for r in 1..cfg.setups() {
        let dir = cfg.work.join(format!("setup-{r}"));
        setups.push(setup(&dir, preload)?.1);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The journal takes seconds to recover, so once is enough.
    let secs = recover(&dir, &live, tracer.as_mut(), &mut out)?;
    let recover_s_per_update = secs / live.epoch as f64;

    let Some(tracer) = tracer else {
        let plain = Plain {
            applies: phase.applies,
            reads: Reads::Blocks {
                timings: phase.reads,
                calls: f64::from(replay::SNAPSHOT_BLOCK),
            },
            batch: 1,
            // m grows during the phase, and each update costs more.
            segments: 1,
            setups,
            recover_s_per_update,
            rss_bytes_per_edge: rss_after.saturating_sub(rss_before) as f64
                / live.total_edges as f64,
        };
        crate::measure::end_to_end(&mut out, &plain);
        return Ok(out);
    };
    let wal_bytes = std::fs::metadata(dir.join(wal_file(0)))
        .map_err(|e| e.to_string())?
        .len();
    let updates = phase.updates as f64;
    traced_metrics(
        cfg,
        tracer,
        preload,
        &timed[..phase.updates],
        &phase,
        live.count,
        &mut out,
    )?;
    out.set(
        "store.wal_bytes_per_update",
        wal_bytes as f64 / live.epoch as f64,
    );
    let (before, live) = (std::slice::from_ref(&before), std::slice::from_ref(&live));
    crate::measure::core_counts(before, live, phase.updates as u64, &mut out);
    out.set("store.fsync_wait_us", fsync_ns / updates / 1e3);
    out.set("store.fsyncs_per_command", fsyncs as f64 / updates);
    Ok(out)
}

/// The traced run's replays and the per-layer metrics they give.
fn traced_metrics(
    cfg: &RunConfig,
    mut tracer: Tracer,
    preload: &[GraphUpdate],
    timed: &[GraphUpdate],
    phase: &Phase,
    live_count: i64,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = timed.len() as f64;
    let service = replay::service_general(spec(), ID, preload, PRELOAD_BATCH, timed, &mut tracer)?;
    let (core, count) =
        replay::core_general(EngineKind::Fmm, preload, PRELOAD_BATCH, timed, &mut tracer)?;
    out.check("core replay count vs live run", live_count, count);
    let store_ns = replay::store_general(
        journal(&cfg.work.join("store-replay")),
        spec(),
        ID,
        timed,
        &mut tracer,
    )?;

    let traced_mean = ratio(phase.traced.0 as f64, phase.traced.1 as f64);
    let untraced_mean = ratio(phase.untraced.0 as f64, phase.untraced.1 as f64);
    out.set("core.apply_us_per_update", core.ns / n / 1e3);
    out.set("core.slow_path_share", ratio(core.slow_ns, core.ns));
    out.set(
        "service.self_us_per_command",
        (service.ns - core.ns) / n / 1e3,
    );
    out.set("service.snapshot_ns", phase.snapshot_ns());
    out.set("store.append_us", store_ns / n / 1e3);
    // The program runs General mode on four rotated engines, not on one
    // bare engine, so no engine replay stands for it.
    out.idle(&[
        "core.engine_update_ns",
        "core.engine_query_ns",
        "runtime.queue_wait_us",
        "runtime.dispatch_us",
        "runtime.reply_us",
        "runtime.commands_per_group",
        "runtime.busy_share",
        "runtime.queue_full_stalls",
        "server.self_us",
        "server.bytes_in_per_command",
        "server.bytes_out_per_command",
        "server.busy_rejections",
        "telemetry.events_emitted",
        "telemetry.events_dropped",
    ]);
    out.set(
        "trace.overhead_share",
        ratio(traced_mean - untraced_mean, untraced_mean),
    );
    // Self times: the counter replay, the unjournaled service replay minus
    // it, and the journal appends timed on their own; they add up to the
    // two replays, against the journaled calls of the traced blocks.
    out.set(
        "trace.self_sum_share",
        ratio((service.ns + store_ns) / n, traced_mean),
    );
    tracer.link(&[
        &["service.execute_journaled"],
        &["service.execute", "store.record"],
        &["core.try_apply"],
    ]);
    tracer
        .write(
            &cfg.trace_dir
                .join(format!("general-churn-seed{}.jsonl", cfg.seed)),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(())
}
