//! The load generator: a closed loop over `RemoteBackend` connections,
//! one load thread per connection.
//!
//! Every request's clock starts before `submit` and stops when its
//! allocation is in hand (after `wait`).  Failed or refused requests are
//! recorded as misses.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use actyp_grid::ResourceDatabase;
use actyp_pipeline::{Allocation, AllocationError, RemoteBackend, ResourceManager, Ticket};

use crate::trace::SpanLog;
use crate::workload::{Plan, Spec, CONNECTIONS, DEPTH};

/// One request of the measured run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// When its `submit` started, seconds after the measurement started.
    pub sent_s: f64,
    /// When its outcome arrived, seconds after the measurement started.
    pub done_s: f64,
    /// Submit-to-allocation latency; `None` when the request failed.
    pub latency_ms: Option<f64>,
    /// How late the generator sent it (see [`DriveLog::records`]).
    pub late_ms: Option<f64>,
}

/// What one drive measured.
#[derive(Debug)]
pub struct DriveLog {
    /// Every request sent before the deadline.  `late_ms` is the time from
    /// the moment the request was due — when its connection's previous
    /// request had its allocation in hand — to the start of its `submit`,
    /// so it counts that request's releases and the generator's own work.
    /// Requests of the initial fill have none.
    pub records: Vec<Record>,
    /// Correctness failures: wrong allocations and failed releases.
    pub problems: Vec<String>,
    /// Allocations received.
    pub allocations: u64,
    /// Sum of `Allocation::examined` over them.
    pub examined: u64,
    /// Spans around the client calls (traced drives only).
    pub spans: SpanLog,
}

impl DriveLog {
    pub(crate) fn new(epoch: Instant) -> Self {
        DriveLog {
            records: Vec::new(),
            problems: Vec::new(),
            allocations: 0,
            examined: 0,
            spans: SpanLog::new(epoch),
        }
    }

    fn absorb(&mut self, other: DriveLog) {
        self.records.extend(other.records);
        self.problems.extend(other.problems);
        self.allocations += other.allocations;
        self.examined += other.examined;
        self.spans.merge(other.spans);
    }
}

/// A transport or protocol failure ends the run; anything else a daemon
/// answers is a per-request failure.
fn fatal(error: &AllocationError) -> bool {
    matches!(
        error,
        AllocationError::Network(_) | AllocationError::Protocol(_)
    )
}

fn secs(since: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(since).as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Shared, read-only context of one drive.
struct Ctx<'a> {
    spec: &'a Spec,
    fleets: &'a [ResourceDatabase],
    start: Instant,
    end: Instant,
    trace: bool,
}

impl Ctx<'_> {
    /// Calls `f`, inside a span when tracing.
    fn call<T>(
        &self,
        log: &mut DriveLog,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if self.trace {
            log.spans.time(name, request, None, f).0
        } else {
            f()
        }
    }

    /// Checks a granted request's allocations and counts them.
    fn accept(&self, log: &mut DriveLog, kind: usize, allocations: &[Allocation]) {
        log.allocations += allocations.len() as u64;
        log.examined += allocations.iter().map(|a| a.examined as u64).sum::<u64>();
        if let Err(problem) = self
            .spec
            .check(&self.spec.kinds[kind], allocations, self.fleets)
        {
            log.problems.push(problem);
        }
    }

    fn release(
        &self,
        log: &mut DriveLog,
        conn: &RemoteBackend,
        request: u64,
        allocations: &[Allocation],
    ) {
        for a in allocations {
            if let Err(e) = self.call(log, "client.release", request, || conn.release(a)) {
                log.problems
                    .push(format!("release of {} failed: {e}", a.machine_name));
            }
        }
    }
}

/// Runs the workload's arrival process over `conns` from `start` until
/// `start + window`, then drains every request in flight and releases
/// every lease.  Requests are planned from `seed`.
pub fn drive(
    spec: &Spec,
    fleets: &[ResourceDatabase],
    conns: &[RemoteBackend],
    seed: u64,
    window: Duration,
    trace: bool,
) -> Result<DriveLog, String> {
    let start = Instant::now();
    let ctx = Ctx {
        spec,
        fleets,
        start,
        end: start + window,
        trace,
    };
    assert_eq!(conns.len(), CONNECTIONS, "one connection per load thread");
    let logs: Vec<Result<DriveLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(i, conn)| {
                let ctx = &ctx;
                let plan = spec.plan(seed, i as u64);
                s.spawn(move || closed_loop(ctx, conn, plan))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "load thread panicked".to_string())?)
            .collect()
    });
    let mut log = DriveLog::new(start);
    for part in logs {
        log.absorb(part?);
    }
    Ok(log)
}

struct InFlight {
    request: u64,
    kind: usize,
    hold: usize,
    sent: Instant,
    late_ms: Option<f64>,
    ticket: Ticket,
}

/// Submits one request; a refusal (not a transport failure) is recorded
/// as a miss at once and yields no ticket.
fn submit(
    ctx: &Ctx<'_>,
    log: &mut DriveLog,
    conn: &RemoteBackend,
    request: u64,
    kind: usize,
    sent: Instant,
    late_ms: Option<f64>,
) -> Result<Option<Ticket>, String> {
    let text = &ctx.spec.kinds[kind].text;
    match ctx.call(log, "client.submit", request, || conn.submit_text(text)) {
        Ok(ticket) => Ok(Some(ticket)),
        Err(e) if fatal(&e) => Err(format!("submit: {e}")),
        Err(_) => {
            log.records.push(Record {
                sent_s: secs(ctx.start, sent),
                done_s: secs(ctx.start, Instant::now()),
                latency_ms: None,
                late_ms,
            });
            Ok(None)
        }
    }
}

fn closed_loop(ctx: &Ctx<'_>, conn: &RemoteBackend, mut plan: Plan) -> Result<DriveLog, String> {
    let mut log = DriveLog::new(ctx.start);
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(DEPTH);
    // Held leases: (sequence number after which to release, allocations).
    let mut held: Vec<(u64, Vec<Allocation>)> = Vec::new();
    let mut seq = 0u64;
    let mut freed_at: Option<Instant> = None;
    // Settles the oldest request; returns when its slot freed.
    let settle = |log: &mut DriveLog,
                  entry: InFlight,
                  seq: u64,
                  held: &mut Vec<(u64, Vec<Allocation>)>|
     -> Result<Instant, String> {
        let outcome = ctx.call(log, "client.wait", entry.request, || {
            conn.wait(entry.ticket)
        });
        let done = Instant::now();
        let latency_ms = match outcome {
            Ok(allocations) => {
                ctx.accept(log, entry.kind, &allocations);
                if entry.hold == 0 {
                    ctx.release(log, conn, entry.request, &allocations);
                } else {
                    held.push((seq + entry.hold as u64, allocations));
                }
                Some(ms(done - entry.sent))
            }
            Err(e) if fatal(&e) => return Err(format!("wait: {e}")),
            Err(_) => None,
        };
        log.records.push(Record {
            sent_s: secs(ctx.start, entry.sent),
            done_s: secs(ctx.start, done),
            latency_ms,
            late_ms: entry.late_ms,
        });
        // Leases whose holding period ended, in whatever order they
        // were granted.
        let mut i = 0;
        while i < held.len() {
            if held[i].0 <= seq {
                let (_, allocations) = held.swap_remove(i);
                ctx.release(log, conn, entry.request, &allocations);
            } else {
                i += 1;
            }
        }
        Ok(done)
    };
    while Instant::now() < ctx.end {
        if in_flight.len() == DEPTH {
            let entry = in_flight.pop_front().expect("full");
            freed_at = Some(settle(&mut log, entry, seq, &mut held)?);
        }
        let request = plan.next_request();
        let sent = Instant::now();
        let late_ms = freed_at.map(|freed| ms(sent - freed));
        if let Some(ticket) = submit(ctx, &mut log, conn, seq, request.kind, sent, late_ms)? {
            in_flight.push_back(InFlight {
                request: seq,
                kind: request.kind,
                hold: request.hold,
                sent,
                late_ms,
                ticket,
            });
        }
        seq += 1;
    }
    while let Some(entry) = in_flight.pop_front() {
        settle(&mut log, entry, seq, &mut held)?;
    }
    for (_, allocations) in std::mem::take(&mut held) {
        ctx.release(&mut log, conn, seq, &allocations);
    }
    Ok(log)
}

/// Before timing: every query kind, twice per connection, so every pool
/// exists and (on the WAN) every remote route is learned.  Allocations
/// are checked and released like measured ones.
pub fn warm_up(
    spec: &Spec,
    fleets: &[ResourceDatabase],
    conns: &[RemoteBackend],
) -> Result<(), String> {
    for conn in conns {
        for _ in 0..2 {
            for kind in &spec.kinds {
                let allocations = conn
                    .submit_text_wait(&kind.text)
                    .map_err(|e| format!("warm-up {:?}: {e}", kind.text))?;
                spec.check(kind, &allocations, fleets)?;
                for a in &allocations {
                    conn.release(a)
                        .map_err(|e| format!("warm-up release: {e}"))?;
                }
            }
        }
    }
    Ok(())
}
