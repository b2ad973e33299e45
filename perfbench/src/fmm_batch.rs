//! `layered-fmm-batch`: an in-process, memory-only 2-shard
//! `ShardedRuntime` (Layered mode, `EngineKind::Fmm`) with runtime
//! telemetry on; one client thread drives four sessions, two on each
//! shard, in turn, sending atomic batches of 16 hub-skewed updates, each
//! followed by a snapshot read. It stresses the layered engine through the
//! batch path; store and server are idle.

use crate::client::{closed_loop, merge, CallError, ClientRun, Lane, Read};
use crate::layered::{self, Window};
use crate::measure::{rss_bytes, Outcome, Plain, Reads, Sched, SEGMENTS};
use crate::trace::Tracer;
use crate::RunConfig;
use fourcycle_core::{EngineConfig, EngineKind, Snapshot};
use fourcycle_graph::LayeredUpdate;
use fourcycle_runtime::{RuntimeConfig, RuntimeError, ShardedRuntime};
use fourcycle_service::{GraphId, Request, Response, SessionSpec, WorkloadMode};
use fourcycle_store::{wal_file, FsyncPolicy, JournalConfig, JournalStore};
use fourcycle_telemetry::TelemetryConfig;
use std::path::Path;
use std::thread;
use std::time::Instant;

const SHARDS: usize = 2;
/// Sessions per shard.
const SESSIONS: usize = 2;
const BATCH: usize = 16;
const PRELOAD_BATCH: usize = 256;
/// Updates per session applied during set-up, and their delete share.
const PRELOAD: usize = 30_000;
const PRELOAD_DELETES: f64 = 0.3;
/// Delete share of the timed updates: as many deletes as inserts, so the
/// graph keeps its size and every stretch of the timed phase costs alike.
const TIMED_DELETES: f64 = 0.5;
/// Timed batches per second of `--seconds`.
const BATCHES_PER_SECOND: f64 = 900.0;

fn spec() -> SessionSpec {
    SessionSpec {
        kind: EngineKind::Fmm,
        config: EngineConfig::default(),
        mode: WorkloadMode::Layered,
    }
}

fn call(runtime: &ShardedRuntime, request: Request) -> Result<Response, CallError> {
    runtime.call(request).map_err(|e| match e {
        RuntimeError::Service(e) => CallError::Refused(e.to_string()),
        other => CallError::Fatal(other.to_string()),
    })
}

/// Starts the runtime and preloads every session, one thread per shard;
/// returns the runtime, each shard's `(session, count)` pairs and the
/// seconds this took.
#[allow(clippy::type_complexity)]
fn setup(
    streams: &[Vec<LayeredUpdate>],
    preload: usize,
) -> Result<(ShardedRuntime, Vec<Vec<(GraphId, i64)>>, f64), String> {
    let start = Instant::now();
    let runtime = ShardedRuntime::start(
        RuntimeConfig::new()
            .shards(SHARDS)
            .spec(spec())
            .telemetry(TelemetryConfig::enabled()),
    );
    let by_shard = layered::ids_per_shard(|id| runtime.shard_of(id), SHARDS, SESSIONS);
    let sessions = thread::scope(|s| {
        let runtime = &runtime;
        let handles: Vec<_> = (0..SHARDS)
            .map(|c| {
                let by_shard = &by_shard;
                s.spawn(move || -> Result<Vec<(GraphId, i64)>, String> {
                    let mut lanes = Vec::new();
                    for (k, &id) in by_shard[c].iter().enumerate() {
                        let stream = &streams[c * SESSIONS + k];
                        runtime
                            .call(Request::CreateGraph { id, spec: None })
                            .map_err(|e| format!("create {id}: {e}"))?;
                        let mut count = 0;
                        for chunk in stream[..preload].chunks(PRELOAD_BATCH) {
                            match runtime.call(Request::ApplyLayeredBatch {
                                id,
                                updates: chunk.to_vec(),
                            }) {
                                Ok(Response::Applied { count: c, .. }) => count = c,
                                other => return Err(format!("preload of {id}: {other:?}")),
                            }
                        }
                        lanes.push((id, count));
                    }
                    Ok(lanes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("preload thread panicked".into()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((runtime, sessions, start.elapsed().as_secs_f64()))
}

fn snapshots(runtime: &ShardedRuntime, ids: &[GraphId]) -> Result<Vec<Snapshot>, String> {
    ids.iter()
        .map(|&id| match runtime.call(Request::GetSnapshot { id }) {
            Ok(Response::Snapshot { snapshot, .. }) => Ok(snapshot),
            other => Err(format!("snapshot of {id}: {other:?}")),
        })
        .collect()
}

/// The runtime is memory-only, so the store is exercised on a sample
/// journal: every session's preload, journaled through a service of its
/// own.
struct Sample {
    store: JournalStore,
    /// Each session's snapshot after its preload.
    live: Vec<(GraphId, Snapshot)>,
    wal_bytes: u64,
}

impl Sample {
    /// Journals the first `len` updates of each lane's stream into `dir`.
    fn write(dir: &Path, lanes: &[Lane], len: usize) -> Result<Sample, String> {
        let store = JournalStore::open(
            JournalConfig::new(dir).fsync(FsyncPolicy::OnShutdown),
            1,
            spec(),
        )
        .map_err(|e| e.to_string())?;
        let mut service = store.open_shard(0).map_err(|e| e.to_string())?;
        let mut exec = |request: &Request| {
            service
                .execute(request)
                .map(|_| ())
                .map_err(|e| e.to_string())
        };
        for lane in lanes {
            let id = lane.id;
            exec(&Request::CreateGraph { id, spec: None })?;
            for chunk in lane.stream[..len].chunks(BATCH) {
                exec(&Request::ApplyLayeredBatch {
                    id,
                    updates: chunk.to_vec(),
                })?;
            }
        }
        let live = lanes
            .iter()
            .map(|lane| Ok((lane.id, service.snapshot(lane.id)?)))
            .collect::<Result<Vec<_>, fourcycle_service::ServiceError>>()
            .map_err(|e| e.to_string())?;
        drop(service);
        let wal = std::fs::metadata(dir.join(wal_file(0))).map_err(|e| e.to_string())?;
        Ok(Sample {
            store,
            live,
            wal_bytes: wal.len(),
        })
    }

    /// Updates in the journal.
    fn journaled(&self) -> u64 {
        self.live.iter().map(|(_, snap)| snap.epoch).sum()
    }

    /// Recovers the sample journal into a fresh service, checks it against
    /// the live snapshots, and returns the seconds recovery took per
    /// journaled update.
    fn recover(&self, tracer: Option<&mut Tracer>, out: &mut Outcome) -> Result<f64, String> {
        let start = Instant::now();
        let recovered = self.store.recover_shard(0).map_err(|e| e.to_string())?;
        let end = Instant::now();
        if let Some(t) = tracer {
            t.record("store.recover_shard", start, end, u64::MAX);
        }
        for (id, live) in &self.live {
            let snap = recovered.snapshot(*id).map_err(|e| e.to_string())?;
            out.check(
                &format!("{id} sample journal recovered (count, epoch)"),
                (live.count, live.epoch),
                (snap.count, snap.epoch),
            );
        }
        Ok((end - start).as_secs_f64() / self.journaled() as f64)
    }
}

/// The measured set-up and its timed phase.
struct Measured<'a> {
    setup_s: f64,
    lanes: Vec<Lane<'a>>,
    runs: Vec<ClientRun>,
    before: Vec<Snapshot>,
    after: Vec<Snapshot>,
    windows: (Window, Window),
    rss_after: u64,
}

/// Sets up, runs the timed phase and checks the sessions.
fn measure<'a>(
    cfg: &RunConfig,
    streams: &'a [Vec<LayeredUpdate>],
    preload: usize,
    ops: u64,
    out: &mut Outcome,
) -> Result<Measured<'a>, String> {
    let (runtime, sessions, setup_s) = setup(streams, preload)?;
    // In turn: session k of shard 0, session k of shard 1, session k + 1
    // of shard 0, ..., so consecutive batches go to different shards.
    let mut lanes: Vec<Lane> = (0..SESSIONS)
        .flat_map(|k| (0..SHARDS).map(move |c| (c, k)))
        .map(|(c, k)| {
            let (id, count) = sessions[c][k];
            Lane::new(id, &streams[c * SESSIONS + k], preload, count)
        })
        .collect();
    let ids: Vec<GraphId> = lanes.iter().map(|lane| lane.id).collect();
    let before = snapshots(&runtime, &ids)?;
    let telemetry = runtime.telemetry().cloned();
    let window = |runtime: &ShardedRuntime| Window {
        report: runtime.report(),
        telemetry: telemetry.as_ref().map(|t| t.snapshot()),
    };
    let window_before = window(&runtime);

    let origin = Instant::now();
    let sched = Sched::process();
    let budget = cfg.budget(ops);
    // One client thread: it waits for each reply, so at most one shard
    // works at a time and one of the host's two cores stays free for the
    // runtime's other threads and for the host's other tenants.
    let run = thread::scope(|s| {
        let runtime = &runtime;
        let lanes = &mut lanes;
        let tracer = cfg.trace.then(|| (Tracer::new(origin), "runtime.call"));
        s.spawn(move || {
            closed_loop(
                0,
                lanes,
                BATCH,
                Read::Snapshot,
                budget,
                origin,
                tracer,
                |req| call(runtime, req),
            )
        })
        .join()
        .unwrap_or_else(|_| Err("client thread panicked".into()))
    })?;
    out.sched = out.sched.plus(Sched::process().minus(sched));
    out.timed_s += origin.elapsed().as_secs_f64();
    let window_after = window(&runtime);
    let rss_after = rss_bytes();
    let after = snapshots(&runtime, &ids)?;
    runtime.shutdown();
    layered::check_brute_force(&lanes, out);
    Ok(Measured {
        setup_s,
        lanes,
        runs: vec![run],
        before,
        after,
        windows: (window_before, window_after),
        rss_after,
    })
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let layer_size = cfg.size(3_000, 200);
    let preload = cfg.size(PRELOAD, 1_000);
    let ops = cfg.ops(BATCHES_PER_SECOND, 1_200);
    // The client takes the sessions in turn.
    let timed = (ops as usize).div_ceil(SHARDS * SESSIONS) * BATCH;
    let streams: Vec<Vec<LayeredUpdate>> = (0..(SHARDS * SESSIONS) as u64)
        .map(|k| {
            crate::gen::layered(
                layered::stream_seed(cfg.seed, k),
                layer_size,
                16,
                0.3,
                &[(preload, PRELOAD_DELETES), (timed, TIMED_DELETES)],
            )
        })
        .collect();
    let mut out = Outcome::default();

    let rss_before = rss_bytes();
    let mut measured = measure(cfg, &streams, preload, ops, &mut out)?;
    layered::tally(&mut measured.runs, &mut out);
    let mut setups = vec![measured.setup_s];
    for _ in 1..cfg.setups() {
        let (runtime, _, secs) = setup(&streams, preload)?;
        runtime.shutdown();
        setups.push(secs);
    }
    // The journal takes seconds to recover, so once is enough.
    let sample = Sample::write(&cfg.work.join("sample"), &measured.lanes, preload)?;
    let tracer = measured
        .runs
        .first_mut()
        .and_then(|run| run.tracer.as_mut());
    let recover_s_per_update = sample.recover(tracer, &mut out)?;
    let Measured {
        lanes,
        runs,
        before,
        after,
        windows,
        rss_after,
        ..
    } = measured;
    let mut run = merge(runs);

    let Some(mut tracer) = run.tracer.take() else {
        let edges: usize = after.iter().map(|s| s.total_edges).sum();
        let plain = Plain {
            applies: run.applies,
            reads: Reads::Calls(run.reads),
            batch: BATCH,
            segments: SEGMENTS,
            setups,
            recover_s_per_update,
            rss_bytes_per_edge: rss_after.saturating_sub(rss_before) as f64 / edges as f64,
        };
        crate::measure::end_to_end(&mut out, &plain);
        return Ok(out);
    };

    out.set(
        "store.wal_bytes_per_update",
        sample.wal_bytes as f64 / sample.journaled() as f64,
    );
    crate::measure::core_counts(&before, &after, run.updates, &mut out);
    let (window_before, window_after) = &windows;
    let stages = layered::runtime_layers(window_before, window_after, &mut out);
    out.idle(&[
        "store.append_us",
        "store.fsync_wait_us",
        "store.fsyncs_per_command",
        "server.self_us",
        "server.bytes_in_per_command",
        "server.bytes_out_per_command",
        "server.busy_rejections",
    ]);
    let service_ns = layered::replay_layers(
        spec(),
        &lanes,
        PRELOAD_BATCH,
        BATCH,
        Read::Snapshot,
        &mut tracer,
        &mut out,
    )?;
    layered::closure(&run, &stages, service_ns, &mut out);
    tracer.link(&[
        &["runtime.call"],
        &["service.execute"],
        &["core.try_apply_batch"],
        &["engine.query", "engine.apply_update"],
    ]);
    tracer
        .write(
            &cfg.trace_dir
                .join(format!("layered-fmm-batch-seed{}.jsonl", cfg.seed)),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(out)
}
