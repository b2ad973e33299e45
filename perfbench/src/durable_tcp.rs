//! `layered-durable-tcp`: a `Server` in front of a 2-shard
//! `ShardedRuntime` (Layered mode, `EngineKind::Threshold`) journaling with
//! group commit; 2 TCP clients, each with its own hub-skewed session, send
//! atomic batches of 8 updates, each followed by a `count` read. Its cost
//! sits in fsync, group commit, framing and thread hand-offs; the engine
//! does little.

use crate::client::{closed_loop, merge, CallError, ClientRun, Lane, Read};
use crate::layered::{self, Window};
use crate::measure::{ratio, rss_bytes, Outcome, Plain, Reads, Sched, SEGMENTS};
use crate::trace::Tracer;
use crate::RunConfig;
use fourcycle_core::{EngineConfig, EngineKind, Snapshot};
use fourcycle_graph::LayeredUpdate;
use fourcycle_runtime::{RuntimeConfig, ShardedRuntime};
use fourcycle_server::{Client, ClientError, Server, ServerConfig, ServerStats};
use fourcycle_service::{GraphId, Request, Response, SessionSpec, WorkloadMode};
use fourcycle_store::{wal_file, FsyncPolicy, JournalConfig};
use fourcycle_telemetry::{Telemetry, TelemetryConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

const SHARDS: usize = 2;
const BATCH: usize = 8;
const PRELOAD_BATCH: usize = 64;
/// Delete share of the preload, which grows the graph, and of the timed
/// updates: as many deletes as inserts, so the graph keeps its size and
/// every stretch of the timed phase costs alike.
const PRELOAD_DELETES: f64 = 0.1;
const TIMED_DELETES: f64 = 0.5;
/// Timed batches per client per second of `--seconds`.
const BATCHES_PER_SECOND: f64 = 900.0;

fn spec() -> SessionSpec {
    SessionSpec {
        kind: EngineKind::Threshold,
        config: EngineConfig::default(),
        mode: WorkloadMode::Layered,
    }
}

struct Deployment {
    server: Server,
    telemetry: Option<Arc<Telemetry>>,
    /// Per client: its connection, its session and the session's count.
    clients: Vec<(Client, GraphId, i64)>,
    secs: f64,
}

fn wire(e: ClientError) -> CallError {
    match e {
        ClientError::Wire(w) => CallError::Refused(w.to_string()),
        other => CallError::Fatal(other.to_string()),
    }
}

fn preload_client(
    addr: SocketAddr,
    id: GraphId,
    preload: &[LayeredUpdate],
) -> Result<(Client, GraphId, i64), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .call(&Request::CreateGraph { id, spec: None })
        .map_err(|e| format!("create {id}: {e}"))?;
    let mut count = 0;
    for chunk in preload.chunks(PRELOAD_BATCH) {
        match client.call(&Request::ApplyLayeredBatch {
            id,
            updates: chunk.to_vec(),
        }) {
            Ok(Response::Applied { count: c, .. }) => count = c,
            other => return Err(format!("preload of {id}: {other:?}")),
        }
    }
    Ok((client, id, count))
}

/// Starts runtime and server on a fresh journal, connects one client per
/// stream and preloads each client's session.
fn setup(
    dir: &Path,
    streams: &[Vec<LayeredUpdate>],
    preload: usize,
    telemetry: bool,
) -> Result<Deployment, String> {
    let start = Instant::now();
    let mut config = RuntimeConfig::new()
        .shards(SHARDS)
        .spec(spec())
        .journal(JournalConfig::new(dir).fsync(FsyncPolicy::group_commit()));
    if telemetry {
        config = config.telemetry(TelemetryConfig::enabled());
    }
    let runtime = ShardedRuntime::try_start(config).map_err(|e| e.to_string())?;
    // One session per shard, one session per client.
    let ids = layered::ids_per_shard(|id| runtime.shard_of(id), SHARDS, 1);
    let telemetry = runtime.telemetry().cloned();
    let server = Server::start(ServerConfig::new(), runtime).map_err(|e| format!("server: {e}"))?;
    let addr = server.local_addr();
    let clients = thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(&ids)
            .map(|(stream, ids)| {
                let id = ids[0];
                s.spawn(move || preload_client(addr, id, &stream[..preload]))
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
    Ok(Deployment {
        server,
        telemetry,
        clients,
        secs: start.elapsed().as_secs_f64(),
    })
}

fn snapshots(clients: &mut [(Client, GraphId, i64)]) -> Result<Vec<Snapshot>, String> {
    clients
        .iter_mut()
        .map(
            |(client, id, _)| match client.call(&Request::GetSnapshot { id: *id }) {
                Ok(Response::Snapshot { snapshot, .. }) => Ok(snapshot),
                other => Err(format!("snapshot of {id}: {other:?}")),
            },
        )
        .collect()
}

/// The measured set-up and its timed phase.
struct Measured<'a> {
    setup_s: f64,
    dir: PathBuf,
    lanes: Vec<Lane<'a>>,
    runs: Vec<ClientRun>,
    before: Vec<Snapshot>,
    after: Vec<Snapshot>,
    stats: (ServerStats, ServerStats),
    windows: (Window, Window),
    rss_after: u64,
}

/// Sets up, runs the timed phase and checks the sessions.
fn measure<'a>(
    cfg: &RunConfig,
    dir: PathBuf,
    streams: &'a [Vec<LayeredUpdate>],
    preload: usize,
    ops: u64,
    out: &mut Outcome,
) -> Result<Measured<'a>, String> {
    let Deployment {
        server,
        telemetry,
        mut clients,
        secs: setup_s,
    } = setup(&dir, streams, preload, cfg.trace)?;
    let before = snapshots(&mut clients)?;
    let window = |server: &Server| Window {
        report: server.report(),
        telemetry: telemetry.as_ref().map(|t| t.snapshot()),
    };
    let (stats_before, window_before) = (server.stats(), window(&server));
    let mut lanes: Vec<Lane> = clients
        .iter()
        .zip(streams)
        .map(|((_, id, count), stream)| Lane::new(*id, stream, preload, *count))
        .collect();

    let origin = Instant::now();
    let sched = Sched::process();
    let budget = cfg.budget(ops);
    let runs = thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lanes.iter_mut())
            .enumerate()
            .map(|(c, ((client, _, _), lane))| {
                let tracer = cfg.trace.then(|| (Tracer::new(origin), "client.call"));
                s.spawn(move || {
                    closed_loop(
                        c as u64,
                        std::slice::from_mut(lane),
                        BATCH,
                        Read::Count,
                        budget,
                        origin,
                        tracer,
                        |req| client.call(&req).map_err(wire),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    out.sched = out.sched.plus(Sched::process().minus(sched));
    out.timed_s += origin.elapsed().as_secs_f64();
    let (stats_after, window_after) = (server.stats(), window(&server));
    let rss_after = rss_bytes();
    let after = snapshots(&mut clients)?;
    drop(clients);
    server.shutdown();
    layered::check_brute_force(&lanes, out);
    Ok(Measured {
        setup_s,
        dir,
        lanes,
        runs,
        before,
        after,
        stats: (stats_before, stats_after),
        windows: (window_before, window_after),
        rss_after,
    })
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let layer_size = cfg.size(5_000, 200);
    let preload = cfg.size(60_000, 1_000);
    let ops = cfg.ops(BATCHES_PER_SECOND, 600);
    let timed = ops as usize * BATCH;
    let streams: Vec<Vec<LayeredUpdate>> = (0..SHARDS as u64)
        .map(|k| {
            crate::gen::layered(
                layered::stream_seed(cfg.seed, k),
                layer_size,
                8,
                0.05,
                &[(preload, PRELOAD_DELETES), (timed, TIMED_DELETES)],
            )
        })
        .collect();
    let mut out = Outcome::default();

    let rss_before = rss_bytes();
    let dir = cfg.work.join("journal");
    let mut measured = measure(cfg, dir, &streams, preload, ops, &mut out)?;
    layered::tally(&mut measured.runs, &mut out);
    let mut setups = vec![measured.setup_s];
    for r in 1..cfg.setups() {
        let dir = cfg.work.join(format!("setup-{r}"));
        let deployment = setup(&dir, &streams, preload, false)?;
        setups.push(deployment.secs);
        drop(deployment.clients);
        deployment.server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The journal takes seconds to recover, so once is enough.
    let tracer = measured
        .runs
        .first_mut()
        .and_then(|run| run.tracer.as_mut());
    let recover_s_per_update = layered::recover(&measured.dir, &measured.lanes, tracer, &mut out)?;
    let Measured {
        dir,
        lanes,
        runs,
        before,
        after,
        stats,
        windows,
        rss_after,
        ..
    } = measured;
    let mut run = merge(runs);
    let journaled: u64 = lanes.iter().map(|lane| lane.epoch).sum();
    let updates = run.updates;

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
    let (stats_before, stats_after) = &stats;
    let (window_before, window_after) = &windows;
    let (before, after) = (&before, &after);

    let mut wal_bytes = 0;
    for shard in 0..SHARDS {
        wal_bytes += std::fs::metadata(dir.join(wal_file(shard)))
            .map_err(|e| e.to_string())?
            .len();
    }
    out.set(
        "store.wal_bytes_per_update",
        wal_bytes as f64 / journaled as f64,
    );
    crate::measure::core_counts(before, after, updates, &mut out);
    let stages = layered::runtime_layers(window_before, window_after, &mut out);
    out.set(
        "server.self_us",
        (layered::mean_call_ns(&run) - stages.total_ns) / 1e3,
    );
    let server_commands = (stats_after.commands - stats_before.commands) as f64;
    out.set(
        "server.bytes_in_per_command",
        ratio(
            (stats_after.bytes_in - stats_before.bytes_in) as f64,
            server_commands,
        ),
    );
    out.set(
        "server.bytes_out_per_command",
        ratio(
            (stats_after.bytes_out - stats_before.bytes_out) as f64,
            server_commands,
        ),
    );
    out.set(
        "server.busy_rejections",
        (stats_after.busy_rejections - stats_before.busy_rejections) as f64,
    );
    let service_ns = layered::replay_layers(
        spec(),
        &lanes,
        PRELOAD_BATCH,
        BATCH,
        Read::Count,
        &mut tracer,
        &mut out,
    )?;
    layered::closure(&run, &stages, service_ns, &mut out);
    tracer.link(&[
        &["client.call"],
        &["service.execute"],
        &["core.try_apply_batch"],
        &["engine.query", "engine.apply_update"],
    ]);
    tracer
        .write(
            &cfg.trace_dir
                .join(format!("layered-durable-tcp-seed{}.jsonl", cfg.seed)),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(out)
}
