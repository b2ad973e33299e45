//! Lower-boundary replays for the traced run.
//!
//! The program calls its lower layers itself, so a lower boundary is timed
//! by replaying the timed phase's input straight into that layer, in the
//! same process, with a span around every call. The set-up preload is
//! replayed first, untimed, so each replay starts from the state the timed
//! phase started from. Self time is one boundary's time minus the next
//! boundary's time for the same commands.

use crate::client::{Lane, Read};
use crate::measure::{median, nanos_between};
use crate::trace::Tracer;
use fourcycle_core::{
    EngineConfig, EngineKind, FourCycleCounter, LayeredCycleCounter, QRel, ThreePathEngine,
};
use fourcycle_graph::{GraphUpdate, LayeredUpdate, Rel};
use fourcycle_service::{CycleCountService, GraphId, JournalSink, Request, Response, SessionSpec};
use fourcycle_store::{JournalConfig, JournalStore};
use std::hint::black_box;
use std::time::Instant;

/// Summed span time of one replay, in nanoseconds.
pub struct Timed {
    pub ns: f64,
    /// Span time of calls during which a slow-path counter advanced.
    pub slow_ns: f64,
}

/// Engine replay: summed time of `apply_update` and of `query` calls.
pub struct EngineTimes {
    pub update_ns: f64,
    pub updates: u64,
    pub query_ns: f64,
    pub queries: u64,
}

/// Snapshot calls per timed block: single calls take tens of nanoseconds,
/// too short to time one at a time.
pub const SNAPSHOT_BLOCK: u32 = 1000;

/// Median per-call time of `CycleCountService::snapshot` over 16 blocks.
pub fn snapshot_ns(service: &CycleCountService, id: GraphId) -> f64 {
    let blocks: Vec<f64> = (0..16)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..SNAPSHOT_BLOCK {
                let _ = black_box(service.snapshot(black_box(id)));
            }
            nanos_between(start, Instant::now()) as f64 / f64::from(SNAPSHOT_BLOCK)
        })
        .collect();
    median(&blocks)
}

fn fresh_service(spec: SessionSpec) -> CycleCountService {
    CycleCountService::builder()
        .engine(spec.kind)
        .config(spec.config)
        .mode(spec.mode)
        .build()
}

fn exec(service: &mut CycleCountService, request: &Request) -> Result<Response, String> {
    service
        .execute(request)
        .map_err(|e| format!("replay of {request:?} failed: {e}"))
}

/// Replays each lane's timed batches, each with the read that followed it,
/// into one unjournaled service. One span covers a batch and its read.
pub fn service_layered(
    spec: SessionSpec,
    lanes: &[Lane],
    preload_batch: usize,
    batch: usize,
    read: Read,
    tracer: &mut Tracer,
) -> Result<(Timed, f64), String> {
    let mut service = fresh_service(spec);
    for lane in lanes {
        exec(
            &mut service,
            &Request::CreateGraph {
                id: lane.id,
                spec: None,
            },
        )?;
        for chunk in lane.stream[..lane.preload].chunks(preload_batch) {
            let updates = chunk.to_vec();
            exec(
                &mut service,
                &Request::ApplyLayeredBatch {
                    id: lane.id,
                    updates,
                },
            )?;
        }
    }
    let mut ns = 0.0;
    for lane in lanes {
        for (chunk, &request) in lane.timed().chunks(batch).zip(&lane.requests) {
            let apply = Request::ApplyLayeredBatch {
                id: lane.id,
                updates: chunk.to_vec(),
            };
            let read_request = read.request(lane.id);
            let start = Instant::now();
            exec(&mut service, &apply)?;
            exec(&mut service, &read_request)?;
            let end = Instant::now();
            tracer.record("service.execute", start, end, request);
            ns += nanos_between(start, end) as f64;
        }
        let snap = service.snapshot(lane.id).map_err(|e| e.to_string())?;
        if (snap.count, snap.epoch) != (lane.count, lane.epoch) {
            return Err(format!(
                "service replay of {} ended at (count, epoch) {:?}, live run at {:?}",
                lane.id,
                (snap.count, snap.epoch),
                (lane.count, lane.epoch)
            ));
        }
    }
    let snapshot = snapshot_ns(&service, lanes[0].id);
    Ok((Timed { ns, slow_ns: 0.0 }, snapshot))
}

/// Replays each lane's timed batches into its own `LayeredCycleCounter`.
pub fn core_layered(
    kind: EngineKind,
    lanes: &[Lane],
    preload_batch: usize,
    batch: usize,
    tracer: &mut Tracer,
) -> Result<Timed, String> {
    let mut timed = Timed {
        ns: 0.0,
        slow_ns: 0.0,
    };
    for lane in lanes {
        let mut counter = LayeredCycleCounter::with_config(kind, &EngineConfig::default());
        for chunk in lane.stream[..lane.preload].chunks(preload_batch) {
            counter.try_apply_batch(chunk).map_err(|e| e.to_string())?;
        }
        for (chunk, &request) in lane.timed().chunks(batch).zip(&lane.requests) {
            let before = counter.slow_path_stats();
            let start = Instant::now();
            let applied = counter.try_apply_batch(chunk);
            let end = Instant::now();
            applied.map_err(|e| format!("core replay of {}: {e}", lane.id))?;
            tracer.record("core.try_apply_batch", start, end, request);
            let ns = nanos_between(start, end) as f64;
            timed.ns += ns;
            if counter.slow_path_stats() != before {
                timed.slow_ns += ns;
            }
        }
        if counter.count() != lane.count {
            return Err(format!(
                "core replay of {} counted {}, live run {}",
                lane.id,
                counter.count(),
                lane.count
            ));
        }
    }
    Ok(timed)
}

/// Consecutive engine calls of one kind are timed as one span.
struct EngineClock {
    times: EngineTimes,
    run: Option<(bool, Instant, u64)>,
}

impl EngineClock {
    fn new() -> Self {
        Self {
            times: EngineTimes {
                update_ns: 0.0,
                updates: 0,
                query_ns: 0.0,
                queries: 0,
            },
            run: None,
        }
    }

    /// Starts (or continues) a run of updates (`query == false`) or queries.
    fn call(&mut self, query: bool, tracer: &mut Tracer, request: u64) {
        if !matches!(self.run, Some((q, _, _)) if q == query) {
            self.close(tracer, request);
            self.run = Some((query, Instant::now(), 0));
        }
        if let Some((_, _, n)) = self.run.as_mut() {
            *n += 1;
        }
    }

    fn close(&mut self, tracer: &mut Tracer, request: u64) {
        if let Some((query, start, n)) = self.run.take() {
            let end = Instant::now();
            let ns = nanos_between(start, end) as f64;
            if query {
                tracer.record("engine.query", start, end, request);
                self.times.query_ns += ns;
                self.times.queries += n;
            } else {
                tracer.record("engine.apply_update", start, end, request);
                self.times.update_ns += ns;
                self.times.updates += n;
            }
        }
    }
}

/// Feeds one layered update to the `D`-rotation engine of
/// `LayeredCycleCounter`: `A`, `B`, `C` updates are applied, a `D` update
/// is that engine's query. `note(query)` runs before each engine call.
fn layered_step(engine: &mut dyn ThreePathEngine, u: &LayeredUpdate, note: &mut dyn FnMut(bool)) {
    let role = match u.rel {
        Rel::A => QRel::A,
        Rel::B => QRel::B,
        Rel::C => QRel::C,
        Rel::D => {
            note(true);
            black_box(engine.query(u.right, u.left));
            return;
        }
    };
    note(false);
    engine.apply_update(role, u.left, u.right, u.op);
}

/// Replays one lane into a bare engine, one rotation's share of the work.
pub fn engine_layered(
    kind: EngineKind,
    lane: &Lane,
    batch: usize,
    tracer: &mut Tracer,
) -> EngineTimes {
    let mut engine = kind.build();
    for u in &lane.stream[..lane.preload] {
        layered_step(&mut *engine, u, &mut |_| {});
    }
    let mut clock = EngineClock::new();
    for (chunk, &request) in lane.timed().chunks(batch).zip(&lane.requests) {
        for u in chunk {
            layered_step(&mut *engine, u, &mut |q| clock.call(q, tracer, request));
        }
        clock.close(tracer, request);
    }
    clock.times
}

/// Replays the timed general updates into an unjournaled service.
pub fn service_general(
    spec: SessionSpec,
    id: GraphId,
    preload: &[GraphUpdate],
    preload_batch: usize,
    timed: &[GraphUpdate],
    tracer: &mut Tracer,
) -> Result<Timed, String> {
    let mut service = fresh_service(spec);
    exec(&mut service, &Request::CreateGraph { id, spec: None })?;
    for chunk in preload.chunks(preload_batch) {
        let updates = chunk.to_vec();
        exec(&mut service, &Request::ApplyGeneralBatch { id, updates })?;
    }
    let mut ns = 0.0;
    for (i, &update) in timed.iter().enumerate() {
        let request = Request::ApplyGeneral { id, update };
        let start = Instant::now();
        exec(&mut service, &request)?;
        let end = Instant::now();
        tracer.record("service.execute", start, end, i as u64);
        ns += nanos_between(start, end) as f64;
    }
    Ok(Timed { ns, slow_ns: 0.0 })
}

/// Replays the timed general updates into a `FourCycleCounter`; returns
/// the timings and the final count.
pub fn core_general(
    kind: EngineKind,
    preload: &[GraphUpdate],
    preload_batch: usize,
    timed: &[GraphUpdate],
    tracer: &mut Tracer,
) -> Result<(Timed, i64), String> {
    let mut counter = FourCycleCounter::with_config(kind, &EngineConfig::default());
    for chunk in preload.chunks(preload_batch) {
        counter.try_apply_batch(chunk).map_err(|e| e.to_string())?;
    }
    let mut timed_ns = Timed {
        ns: 0.0,
        slow_ns: 0.0,
    };
    for (i, &update) in timed.iter().enumerate() {
        let before = counter.slow_path_stats();
        let start = Instant::now();
        let applied = counter.try_apply(update);
        let end = Instant::now();
        applied.map_err(|e| format!("core replay of update {i}: {e}"))?;
        tracer.record("core.try_apply", start, end, i as u64);
        let ns = nanos_between(start, end) as f64;
        timed_ns.ns += ns;
        if counter.slow_path_stats() != before {
            timed_ns.slow_ns += ns;
        }
    }
    Ok((timed_ns, counter.count()))
}

/// Records the timed general updates into a fresh journal through
/// `JournalSink::record`, the append path `CycleCountService::execute`
/// takes after applying a command; returns the summed span time.
pub fn store_general(
    journal: JournalConfig,
    spec: SessionSpec,
    id: GraphId,
    timed: &[GraphUpdate],
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let store = JournalStore::open(journal, 1, spec).map_err(|e| e.to_string())?;
    let mut sink = store
        .open_shard(0)
        .map_err(|e| e.to_string())?
        .detach_journal()
        .ok_or("the journaled service has no journal sink")?;
    let record = |sink: &mut Box<dyn JournalSink>, request: &Request| {
        sink.record(request)
            .map_err(|e| format!("journal replay of {request:?}: {e}"))
    };
    record(&mut sink, &Request::CreateGraph { id, spec: None })?;
    let mut ns = 0.0;
    for (i, &update) in timed.iter().enumerate() {
        let request = Request::ApplyGeneral { id, update };
        let start = Instant::now();
        record(&mut sink, &request)?;
        let end = Instant::now();
        tracer.record("store.record", start, end, i as u64);
        ns += nanos_between(start, end) as f64;
    }
    Ok(ns)
}
