//! The closed-loop client of the two runtime workloads: send one atomic
//! batch, wait for its reply, send one read, wait for its reply, repeat.
//! Every reply is checked against what the client itself knows: the epoch
//! a batch must reach and the count the batch's reply announced.

use crate::measure::{Sched, Timings};
use crate::trace::Tracer;
use crate::Budget;
use fourcycle_graph::LayeredUpdate;
use fourcycle_service::{GraphId, Request, Response};
use std::time::Instant;

/// One session as a client drives it.
pub struct Lane<'a> {
    pub id: GraphId,
    /// The whole stream; `..preload` was applied during set-up.
    pub stream: &'a [LayeredUpdate],
    pub preload: usize,
    /// Next stream position.
    pub pos: usize,
    pub epoch: u64,
    pub count: i64,
    /// Request id of each applied timed batch, in order.
    pub requests: Vec<u64>,
}

impl<'a> Lane<'a> {
    pub fn new(id: GraphId, stream: &'a [LayeredUpdate], preload: usize, count: i64) -> Self {
        Self {
            id,
            stream,
            preload,
            pos: preload,
            epoch: preload as u64,
            count,
            requests: Vec::new(),
        }
    }

    /// The updates applied in the timed phase.
    pub fn timed(&self) -> &'a [LayeredUpdate] {
        &self.stream[self.preload..self.pos]
    }
}

/// The read each batch is followed by.
#[derive(Clone, Copy, PartialEq)]
pub enum Read {
    Count,
    Snapshot,
}

impl Read {
    pub fn request(self, id: GraphId) -> Request {
        match self {
            Read::Count => Request::Count { id },
            Read::Snapshot => Request::GetSnapshot { id },
        }
    }
}

/// Why a call did not return a response.
pub enum CallError {
    /// Refused without being executed (`err busy`); counted as failed.
    Refused(String),
    /// The transport broke; the run cannot continue.
    Fatal(String),
}

#[derive(Default)]
pub struct ClientRun {
    pub applies: Timings,
    pub reads: Timings,
    pub updates: u64,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub tracer: Option<Tracer>,
    /// (sum, calls) of call latencies in traced and in untraced blocks.
    pub traced: (u64, u64),
    pub untraced: (u64, u64),
    pub sched: Sched,
}

/// Operations per block; traced runs record spans in every other block so
/// that tracing overhead is measured against the same run.
pub const BLOCK: u64 = 64;

/// Drives `lanes` round-robin until `budget` is spent. Call times count
/// from `origin`, the start of the timed phase. In traced runs, the spans
/// carry the name the tracer comes with.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    client: u64,
    lanes: &mut [Lane],
    batch: usize,
    read: Read,
    budget: Budget,
    origin: Instant,
    tracer: Option<(Tracer, &'static str)>,
    mut call: impl FnMut(Request) -> Result<Response, CallError>,
) -> Result<ClientRun, String> {
    let sched_start = Sched::thread();
    let (mut tracer, span) = match tracer {
        Some((t, name)) => (Some(t), name),
        None => (None, ""),
    };
    let mut run = ClientRun::default();
    let mut op: u64 = 0;
    while budget.more(op) {
        let lane_index = usize::try_from(op).unwrap_or(0) % lanes.len();
        let lane = &mut lanes[lane_index];
        if lane.pos + batch > lane.stream.len() {
            return Err(format!("stream of {} exhausted", lane.id));
        }
        let traced = tracer.is_some() && (op / BLOCK).is_multiple_of(2);
        let request = (client << 40) | (op << 1);
        let updates = lane.stream[lane.pos..lane.pos + batch].to_vec();
        let id = lane.id;

        run.attempted += 1;
        let start = Instant::now();
        let reply = call(Request::ApplyLayeredBatch { id, updates });
        let end = Instant::now();
        op += 1;
        match reply {
            Ok(Response::Applied {
                id: rid,
                count,
                epoch,
            }) => {
                let expected = lane.epoch + batch as u64;
                if rid != id || epoch != expected {
                    run.mismatches.push(format!(
                        "{id}: apply reply {rid} epoch {epoch}, expected epoch {expected}"
                    ));
                }
                lane.pos += batch;
                lane.epoch = expected;
                lane.count = count;
                lane.requests.push(request);
                run.updates += batch as u64;
            }
            Ok(other) => run
                .mismatches
                .push(format!("{id}: apply answered {other:?}")),
            Err(CallError::Refused(why)) => {
                run.failed += 1;
                eprintln!("perfbench: {id}: apply refused: {why}");
                continue;
            }
            Err(CallError::Fatal(why)) => return Err(why),
        }

        run.attempted += 1;
        let start_read = Instant::now();
        let reply = call(read.request(id));
        let end_read = Instant::now();
        let seen = match reply {
            Ok(Response::Count { id: rid, count }) if rid == id && read == Read::Count => {
                Some((count, lane.epoch))
            }
            Ok(Response::Snapshot { id: rid, snapshot }) if rid == id && read == Read::Snapshot => {
                Some((snapshot.count, snapshot.epoch))
            }
            Ok(other) => {
                run.mismatches
                    .push(format!("{id}: read answered {other:?}"));
                None
            }
            Err(CallError::Refused(why)) => {
                run.failed += 1;
                eprintln!("perfbench: {id}: read refused: {why}");
                None
            }
            Err(CallError::Fatal(why)) => return Err(why),
        };
        if let Some(seen) = seen {
            if seen != (lane.count, lane.epoch) {
                run.mismatches.push(format!(
                    "{id}: read (count, epoch) {seen:?}, last apply said {:?}",
                    (lane.count, lane.epoch)
                ));
            }
        }

        let both =
            run.applies.push(origin, start, end) + run.reads.push(origin, start_read, end_read);
        if traced {
            if let Some(t) = tracer.as_mut() {
                t.record(span, start, end, request);
                t.record(span, start_read, end_read, request | 1);
            }
            run.traced = (run.traced.0 + both, run.traced.1 + 2);
        } else {
            run.untraced = (run.untraced.0 + both, run.untraced.1 + 2);
        }
    }
    run.tracer = tracer;
    run.sched = Sched::thread().minus(sched_start);
    Ok(run)
}

/// Merges the per-client results into one.
pub fn merge(runs: Vec<ClientRun>) -> ClientRun {
    let mut all = ClientRun::default();
    for run in runs {
        all.applies.extend(run.applies);
        all.reads.extend(run.reads);
        all.updates += run.updates;
        all.attempted += run.attempted;
        all.failed += run.failed;
        all.mismatches.extend(run.mismatches);
        all.traced = (all.traced.0 + run.traced.0, all.traced.1 + run.traced.1);
        all.untraced = (
            all.untraced.0 + run.untraced.0,
            all.untraced.1 + run.untraced.1,
        );
        all.sched = all.sched.plus(run.sched);
        match (all.tracer.as_mut(), run.tracer) {
            (Some(t), Some(other)) => t.absorb(other),
            (None, other) => all.tracer = other,
            (Some(_), None) => {}
        }
    }
    all
}
