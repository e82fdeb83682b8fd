//! The traced run: the workload's seeded requests driven into each
//! layer's public functions, with spans recorded around those calls from
//! here (nothing inside the pipeline is instrumented).
//!
//! Which end-to-end metric each layer should move, and on which workload:
//!
//! | layer | metrics | should move | on |
//! |---|---|---|---|
//! | `proto` | `proto.*` | `grant_p50_ms`, `daemon_cpu_us_per_alloc` | `lan_small_pools` |
//! | `query` | `query.parse_ns` | `grant_p50_ms` | `lan_small_pools` |
//! | `query_manager` | `qm.*` | `grant_p50_ms` | `lan_large_pools` |
//! | `pool_manager`, `directory` | `pm.*`, `directory.*` | `setup_s`; `alloc_per_s` | all; `lan_small_pools` |
//! | `resource_pool`, `scheduler` | `pool.*`, `sched.*` | `alloc_per_s`, `grant_p99_ms` | `lan_large_pools` |
//! | `grid` | `grid.walk_us` | `setup_s` | `lan_large_pools` |
//! | `engine` | `engine.cycle_us`, `engine.unaccounted_us` (closure) | — | — |
//! | `live` + admission window | `live.*` | `alloc_per_s`, `grant_p50_ms` | `lan_small_pools` |
//! | `remote`, `reactor` | `remote.*`, `reactor.*` | `grant_p50_ms`, `daemon_cpu_us_per_alloc` | `lan_small_pools` |
//! | `federation`, `gossip` | `fed.*`, `gossip.*` | `grant_p50_ms`, `grant_p99_ms` | `wan_delegation` |
//!
//! The in-process probes run on the entry daemon's fleet with the
//! requests it can answer locally; the federation probe always runs the
//! WAN topology (an in-process entry whose peers are real `ypd`s).
//! Per-call times are means, so that the closure check
//! (`engine.unaccounted_us` = embedded cycle minus the layer calls it is
//! made of) adds up.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use actyp_grid::{FleetSpec, SharedDatabase, SyntheticFleet, Weighted};
use actyp_pipeline::directory::PoolInstanceRecord;
use actyp_pipeline::scheduler::ScheduleRequest;
use actyp_pipeline::{
    Allocation, BackendKind, FederationConfig, HandleOutcome, LocalDirectoryService,
    PipelineBuilder, PoolManager, PoolManagerConfig, PoolManagerSelection, QueryManager,
    ReintegrationPolicy, ReplicaBias, RequestId, RequestIdGenerator, ResourceManager, ResourcePool,
    Scheduler, SchedulingObjective, ShardedDirectory, StageAddress, Ticket,
};
use actyp_proto::{
    read_client_frame, read_server_frame, write_frame, ClientFrame, FrameError, ServerFrame,
    WireEncode,
};
use actyp_query::{matches_machine, parse_query, PoolName, QuerySchema};

use crate::daemon::Ypd;
use crate::drive::drive;
use crate::run::{metric, provenance, Deployment, EndToEnd, Metric, Options, Report};
use crate::stats::{mean, min_median_max};
use crate::trace::SpanLog;
use crate::workload::{Request, Spec, Workload};

/// Hour of the virtual day the daemons schedule at by default.
const HOUR: u8 = 12;
/// Every probe makes at least this many calls, however short its budget.
const MIN_CALLS: usize = 64;
/// Calls after which a probe stops early: enough for a steady mean, few
/// enough that the spans of nanosecond-scale calls stay small in memory.
const MAX_CALLS: usize = 50_000;
/// Rounds of the depth-16 probe, per backend.
const DEPTH16_ROUNDS: usize = 5;

/// Shares of `--seconds` given to each phase.
const REMOTE_SHARE: f64 = 0.06; // each of four drives: untraced, traced, traced, untraced
const REMOTE_DEPTH1_SHARE: f64 = 0.06;
const PROBE_SHARE: f64 = 0.03; // each in-process layer probe
const DEPTH16_SHARE: f64 = 0.2; // all rounds of both backends
const FED_SHARE: f64 = 0.15;

/// Runs every probe and reports the per-layer metrics.
pub fn run_traced(root: &Path, ypd: &Path, opts: &Options) -> Result<Report, String> {
    let spec = opts.workload.spec();
    let fleets = spec.fleets();
    let seconds = opts.seconds as f64;
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    let epoch = Instant::now();
    let mut probe = Probe {
        spec: &spec,
        log: SpanLog::new(epoch),
        metrics: Vec::new(),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
        requests: local_requests(&spec, opts.seed),
        seed: opts.seed,
        budget: share(PROBE_SHARE),
    };
    let fleet = || spec.daemons[spec.entry].fleet().into_shared();

    let samples = probe.sample_allocations(fleet())?;
    probe.proto(&samples)?;
    probe.query()?;
    probe.query_manager(&samples)?;
    probe.stack(fleet())?;
    probe.pool_and_scheduler(fleet())?;
    probe.grid(fleet())?;
    let engine_us = probe.engine(fleet())?;
    let live_us = probe.live(fleet(), engine_us)?;
    probe.closure(engine_us);
    probe.depth16(share(DEPTH16_SHARE))?;
    let flags = probe.remote(
        ypd,
        &fleets,
        share(REMOTE_SHARE),
        share(REMOTE_DEPTH1_SHARE),
        live_us,
    )?;
    probe.federation(ypd, share(FED_SHARE))?;

    for (name, count, total, own) in probe.log.summary() {
        eprintln!("span {name} count={count} total_ns={total} self_ns={own}");
    }
    Ok(Report {
        attempted: probe.attempted,
        failed: probe.failed,
        metrics: probe.metrics,
        problems: probe.problems,
        provenance: provenance(root, opts, &flags),
    })
}

/// The workload's requests the entry daemon answers itself, from the
/// plan of connection 0.
fn local_requests(spec: &Spec, seed: u64) -> Vec<Request> {
    let mut plan = spec.plan(seed, 0);
    std::iter::repeat_with(|| plan.next_request())
        .filter(|r| {
            spec.kinds[r.kind]
                .fragments
                .iter()
                .all(|f| f.daemon == spec.entry)
        })
        .take(4_096)
        .collect()
}

struct Probe<'a> {
    spec: &'a Spec,
    log: SpanLog,
    metrics: Vec<Metric>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    requests: Vec<Request>,
    seed: u64,
    budget: Duration,
}

/// Calls `step(i)` for i = 0, 1, … until `budget` has elapsed (or
/// [`MAX_CALLS`] calls were made) and at least [`MIN_CALLS`] calls were
/// made; returns the call count.
fn repeat_for(
    budget: Duration,
    mut step: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let end = Instant::now() + budget;
    let mut i = 0;
    while i < MIN_CALLS || (i < MAX_CALLS && Instant::now() < end) {
        step(i)?;
        i += 1;
    }
    Ok(i)
}

/// Encodes `frame` into `buf` and decodes it back, each inside a span;
/// fails unless the frame survives.  Returns the encoded size.
fn round_trip<F: WireEncode + PartialEq + std::fmt::Debug>(
    log: &mut SpanLog,
    buf: &mut Vec<u8>,
    request: usize,
    frame: &F,
    decode: impl Fn(&mut &[u8]) -> Result<Option<F>, FrameError>,
) -> Result<u64, String> {
    buf.clear();
    log.time("proto.encode", request as u64, None, || {
        write_frame(buf, frame)
    })
    .0
    .map_err(|e| format!("encode: {e}"))?;
    let decoded = log
        .time("proto.decode", request as u64, None, || {
            decode(&mut buf.as_slice())
        })
        .0;
    if decoded.ok().flatten().as_ref() == Some(frame) {
        Ok(buf.len() as u64)
    } else {
        Err(format!("frame did not round-trip: {frame:?}"))
    }
}

fn text_of<'s>(spec: &'s Spec, request: &Request) -> &'s str {
    &spec.kinds[request.kind].text
}

impl Probe<'_> {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }

    /// Mean span time of `span` in the given unit (`ns` or `us`).
    fn put_mean(&mut self, name: &str, span: &str, unit: &'static str) {
        let ns = self.log.mean_ns(span).unwrap_or(f64::NAN);
        let value = if unit == "us" { ns / 1e3 } else { ns };
        self.put(name, value, unit);
    }

    fn mean_us(&self, span: &str) -> f64 {
        self.log.mean_ns(span).unwrap_or(f64::NAN) / 1e3
    }

    /// One real allocation set per query kind, from an embedded pipeline:
    /// the payloads the proto and query-manager probes carry.
    fn sample_allocations(
        &mut self,
        db: SharedDatabase,
    ) -> Result<Vec<Option<Vec<Allocation>>>, String> {
        let backend = PipelineBuilder::new()
            .database(db)
            .build_embedded()
            .map_err(|e| e.to_string())?;
        let mut samples = vec![None; self.spec.kinds.len()];
        for r in &self.requests {
            if samples[r.kind].is_none() {
                let allocations = backend
                    .submit_text_wait(text_of(self.spec, r))
                    .map_err(|e| format!("sample {:?}: {e}", text_of(self.spec, r)))?;
                for a in &allocations {
                    backend.release(a).map_err(|e| e.to_string())?;
                }
                samples[r.kind] = Some(allocations);
            }
        }
        Ok(samples)
    }

    /// `proto`: encode and decode the six-plus frames of each request's
    /// submit → wait → release cycle with the real codec.
    fn proto(&mut self, samples: &[Option<Vec<Allocation>>]) -> Result<(), String> {
        let (mut frames, mut bytes, mut cycles) = (0u64, 0u64, 0u64);
        let mut buf = Vec::with_capacity(4_096);
        let spec = self.spec;
        let requests = self.requests.clone();
        let log = &mut self.log;
        repeat_for(self.budget, |i| {
            let r = &requests[i % requests.len()];
            let allocations = samples[r.kind].clone().expect("sampled");
            let corr = RequestId(i as u64);
            let ticket = i as u64;
            let mut client = vec![
                ClientFrame::Submit {
                    corr,
                    query: text_of(spec, r).to_string(),
                },
                ClientFrame::Wait {
                    corr,
                    ticket,
                    deadline_ms: None,
                },
            ];
            let mut server = vec![
                ServerFrame::Submitted { corr, ticket },
                ServerFrame::Outcome {
                    corr,
                    outcome: Ok(allocations.clone()),
                },
            ];
            for allocation in allocations {
                client.push(ClientFrame::Release { corr, allocation });
                server.push(ServerFrame::Released { corr });
            }
            for frame in &client {
                bytes += round_trip(log, &mut buf, i, frame, |r| read_client_frame(r))?;
            }
            for frame in &server {
                bytes += round_trip(log, &mut buf, i, frame, |r| read_server_frame(r))?;
            }
            frames += (client.len() + server.len()) as u64;
            cycles += 1;
            Ok(())
        })?;
        self.put_mean("proto.encode_ns", "proto.encode", "ns");
        self.put_mean("proto.decode_ns", "proto.decode", "ns");
        self.put("proto.bytes_per_alloc", bytes as f64 / cycles as f64, "B");
        self.put(
            "proto.frames_per_alloc",
            frames as f64 / cycles as f64,
            "count",
        );
        Ok(())
    }

    /// `query`: the native-format parser.
    fn query(&mut self) -> Result<(), String> {
        let spec = self.spec;
        let requests = &self.requests;
        let log = &mut self.log;
        repeat_for(self.budget, |i| {
            let text = text_of(spec, &requests[i % requests.len()]);
            let parsed = log
                .time("query.parse", i as u64, None, || parse_query(text))
                .0;
            parsed.map(|_| ()).map_err(|e| e.to_string())
        })?;
        self.put_mean("query.parse_ns", "query.parse", "ns");
        Ok(())
    }

    /// `query_manager`: validation plus decomposition, and re-integration
    /// of the fragments' results.
    fn query_manager(&mut self, samples: &[Option<Vec<Allocation>>]) -> Result<(), String> {
        let mut qm = QueryManager::new(
            "qm-0",
            QuerySchema::punch_default().permissive(),
            PoolManagerSelection::RoundRobin,
            16,
            Arc::new(RequestIdGenerator::new()),
            self.seed,
        );
        let queries: Vec<_> = self
            .spec
            .kinds
            .iter()
            .map(|k| parse_query(&k.text).expect("benchmark queries parse"))
            .collect();
        let mut fragments = Vec::new();
        let requests = &self.requests;
        let log = &mut self.log;
        repeat_for(self.budget, |i| {
            let r = &requests[i % requests.len()];
            let prepared = log
                .time("qm.prepare", i as u64, None, || {
                    qm.prepare(&queries[r.kind])
                })
                .0
                .map_err(|e| e.to_string())?;
            fragments.push(prepared.fragments.len() as f64);
            let results = samples[r.kind]
                .clone()
                .expect("sampled")
                .into_iter()
                .map(Ok)
                .collect();
            log.time("qm.reintegrate", i as u64, None, || {
                qm.reintegrate(results, ReintegrationPolicy::All)
            })
            .0
            .map_err(|e| e.to_string())?;
            Ok(())
        })?;
        self.put_mean("qm.prepare_ns", "qm.prepare", "ns");
        self.put_mean("qm.reintegrate_ns", "qm.reintegrate", "ns");
        self.put(
            "qm.fragments_per_query",
            mean(&fragments).unwrap_or(f64::NAN),
            "count",
        );
        Ok(())
    }

    /// `pool_manager` and `directory`: warm pools handled through the
    /// manager, directory lookups and registrations.
    fn stack(&mut self, db: SharedDatabase) -> Result<(), String> {
        let directory = LocalDirectoryService::new().into_shared();
        let mut pm = PoolManager::new(
            "pm-0",
            db,
            directory.clone(),
            PoolManagerConfig::default(),
            self.seed,
        );
        let fragments: Vec<Vec<_>> = self
            .spec
            .kinds
            .iter()
            .map(|k| k.fragments.iter().map(|f| f.query.clone()).collect())
            .collect();
        let handle = |pm: &mut PoolManager, log: &mut SpanLog, i: usize, kind: usize| {
            for query in &fragments[kind] {
                let request = RequestId(i as u64);
                let outcome = log
                    .time("pm.handle", i as u64, None, || {
                        pm.handle(request, query, HOUR)
                    })
                    .0;
                let HandleOutcome::Allocated(allocation) = outcome else {
                    return Err(format!("pool manager did not allocate: {outcome:?}"));
                };
                log.time("pm.release", i as u64, None, || pm.release(&allocation))
                    .0
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        };
        // Warm-up (spans discarded): every pool the requests touch exists
        // before timing.
        let mut discarded = SpanLog::new(Instant::now());
        for (i, r) in self.requests.iter().enumerate() {
            handle(&mut pm, &mut discarded, i, r.kind)?;
        }
        let warm = pm.pools_created();
        let requests = self.requests.clone();
        repeat_for(self.budget, |i| {
            handle(&mut pm, &mut self.log, i, requests[i % requests.len()].kind)
        })?;
        if pm.pools_created() != warm {
            self.problems.push(format!(
                "pool manager created {} pools after warm-up",
                pm.pools_created() - warm
            ));
        }
        self.put_mean("pm.handle_us", "pm.handle", "us");
        self.put("pm.pools_created", pm.pools_created() as f64, "count");

        let pools: Vec<String> = directory.pool_names();
        let log = &mut self.log;
        repeat_for(self.budget, |i| {
            let pool = &pools[i % pools.len()];
            let found = log
                .time("directory.lookup", i as u64, None, || {
                    directory.instances(pool)
                })
                .0;
            if found.is_empty() {
                return Err(format!("directory lost pool {pool}"));
            }
            Ok(())
        })?;
        // Registration of a second instance into a directory that holds
        // every pool once, undone after each call.
        let record = |pool: &str, instance: u32| PoolInstanceRecord {
            pool: pool.to_string(),
            instance,
            manager: "pm-0".to_string(),
            address: StageAddress::new("actyp-host", 7300),
        };
        let populated = ShardedDirectory::new();
        for pool in &pools {
            populated.register_pool(record(pool, 0));
        }
        repeat_for(self.budget, |i| {
            let pool = &pools[i % pools.len()];
            let second = record(pool, 1);
            log.time("directory.register", i as u64, None, || {
                populated.register_pool(second)
            });
            if populated.unregister_pool(pool, 1) {
                Ok(())
            } else {
                Err(format!("directory lost the registration of {pool}"))
            }
        })?;
        self.put_mean("directory.lookup_ns", "directory.lookup", "ns");
        self.put_mean("directory.register_ns", "directory.register", "ns");
        Ok(())
    }

    /// `resource_pool` and `scheduler`: allocations from warm pools, with
    /// leases held the way the workload holds them, and the scheduler's
    /// scan over the same cache.
    fn pool_and_scheduler(&mut self, db: SharedDatabase) -> Result<(), String> {
        let mut pools: Vec<(String, ResourcePool)> = Vec::new();
        for kind in &self.spec.kinds {
            for f in &kind.fragments {
                if f.daemon == self.spec.entry && !pools.iter().any(|(p, _)| *p == f.pool) {
                    let pool = ResourcePool::create(
                        PoolName::from_query(&f.query),
                        0,
                        ReplicaBias::none(),
                        db.clone(),
                        SchedulingObjective::LeastLoaded,
                        self.seed,
                    )
                    .map_err(|e| e.to_string())?;
                    pools.push((f.pool.clone(), pool));
                }
            }
        }
        let mut scheduler = Scheduler::new(
            SchedulingObjective::LeastLoaded,
            ReplicaBias::none(),
            self.seed,
        );
        let mut held: Vec<(usize, usize, Allocation)> = Vec::new();
        let spec = self.spec;
        let requests = self.requests.clone();
        let log = &mut self.log;
        repeat_for(self.budget.mul_f64(2.0), |i| {
            let r = &requests[i % requests.len()];
            for f in &spec.kinds[r.kind].fragments {
                let slot = pools
                    .iter()
                    .position(|(p, _)| *p == f.pool)
                    .expect("pool created");
                let pool = &mut pools[slot].1;
                log.time("sched.select", i as u64, None, || {
                    let guard = db.read();
                    scheduler.select(
                        pool.cached_machines(),
                        &guard,
                        &ScheduleRequest {
                            query: &f.query,
                            hour_of_day: HOUR,
                        },
                    )
                })
                .0
                .map_err(|e| e.to_string())?;
                let allocation = log
                    .time("pool.allocate", i as u64, None, || {
                        pool.allocate(RequestId(i as u64), &f.query, HOUR)
                    })
                    .0
                    .map_err(|e| format!("allocate from {}: {e}", f.pool))?;
                held.push((i + r.hold, slot, allocation));
            }
            let mut k = 0;
            while k < held.len() {
                if held[k].0 <= i {
                    let (_, slot, allocation) = held.swap_remove(k);
                    log.time("pool.release", i as u64, None, || {
                        pools[slot].1.release(&allocation)
                    })
                    .0
                    .map_err(|e| e.to_string())?;
                } else {
                    k += 1;
                }
            }
            Ok(())
        })?;
        for (_, slot, allocation) in held {
            pools[slot]
                .1
                .release(&allocation)
                .map_err(|e| e.to_string())?;
        }
        self.put_mean("pool.allocate_us", "pool.allocate", "us");
        self.put_mean("pool.release_us", "pool.release", "us");
        self.put_mean("sched.select_us", "sched.select", "us");
        Ok(())
    }

    /// `grid`: the white-pages walk a pool makes when it is created.
    fn grid(&mut self, db: SharedDatabase) -> Result<(), String> {
        let fragments: Vec<_> = self
            .spec
            .kinds
            .iter()
            .flat_map(|k| k.fragments.iter())
            .filter(|f| f.daemon == self.spec.entry)
            .map(|f| f.query.clone())
            .collect();
        let log = &mut self.log;
        repeat_for(self.budget, |i| {
            let query = &fragments[i % fragments.len()];
            let guard = db.read();
            log.time("grid.walk", i as u64, None, || {
                guard.walk(|m| matches_machine(query, m).is_match())
            });
            Ok(())
        })?;
        self.put_mean("grid.walk_us", "grid.walk", "us");
        Ok(())
    }

    /// One submit → wait → release cycle on an in-process backend, spanned.
    fn cycle(
        log: &mut SpanLog,
        backend: &dyn ResourceManager,
        names: [&'static str; 4],
        request: u64,
        text: &str,
    ) -> Result<(), String> {
        let start = Instant::now();
        let ticket = backend.submit_text(text).map_err(|e| e.to_string())?;
        let submitted = Instant::now();
        let allocations = backend.wait(ticket).map_err(|e| e.to_string())?;
        let waited = Instant::now();
        for a in &allocations {
            backend.release(a).map_err(|e| e.to_string())?;
        }
        let released = Instant::now();
        let parent = log.record(names[0], request, None, start, released);
        log.record(names[1], request, Some(parent), start, submitted);
        log.record(names[2], request, Some(parent), submitted, waited);
        log.record(names[3], request, Some(parent), waited, released);
        Ok(())
    }

    fn warm(backend: &dyn ResourceManager, spec: &Spec) -> Result<(), String> {
        for kind in &spec.kinds {
            if kind.fragments.iter().all(|f| f.daemon == spec.entry) {
                for a in backend
                    .submit_text_wait(&kind.text)
                    .map_err(|e| e.to_string())?
                {
                    backend.release(&a).map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(())
    }

    /// `engine`: the embedded pipeline's submit → wait → release cycle.
    /// Returns its mean, µs.
    fn engine(&mut self, db: SharedDatabase) -> Result<f64, String> {
        let backend = PipelineBuilder::new()
            .database(db)
            .build_embedded()
            .map_err(|e| e.to_string())?;
        self.timed_cycles(
            &backend,
            [
                "engine.cycle",
                "engine.submit",
                "engine.wait",
                "engine.release",
            ],
        )?;
        let cycle = self.mean_us("engine.cycle");
        self.put("engine.cycle_us", cycle, "us");
        Ok(cycle)
    }

    fn timed_cycles(
        &mut self,
        backend: &dyn ResourceManager,
        names: [&'static str; 4],
    ) -> Result<(), String> {
        Self::warm(backend, self.spec)?;
        let spec = self.spec;
        let requests = self.requests.clone();
        let log = &mut self.log;
        repeat_for(self.budget, |i| {
            Self::cycle(
                log,
                backend,
                names,
                i as u64,
                text_of(spec, &requests[i % requests.len()]),
            )
        })?;
        backend.shutdown().map_err(|e| e.to_string())
    }

    /// `engine.unaccounted_us`: the embedded cycle minus the layer calls
    /// it is made of — parse, prepare, one pool-manager handle and release
    /// per fragment, re-integration.  Near zero when the spans cover the
    /// cycle.
    fn closure(&mut self, engine_us: f64) {
        let fragments = self
            .metrics
            .iter()
            .find(|m| m.name == "qm.fragments_per_query")
            .map_or(f64::NAN, |m| m.value);
        let layers = (self.log.mean_ns("query.parse").unwrap_or(f64::NAN)
            + self.log.mean_ns("qm.prepare").unwrap_or(f64::NAN)
            + self.log.mean_ns("qm.reintegrate").unwrap_or(f64::NAN))
            / 1e3
            + fragments * (self.mean_us("pm.handle") + self.mean_us("pm.release"));
        self.put("engine.unaccounted_us", engine_us - layers, "us");
    }

    /// `live`: the threaded pipeline's cycle, and its hop cost over the
    /// embedded one.  Returns its mean, µs.
    fn live(&mut self, db: SharedDatabase, engine_us: f64) -> Result<f64, String> {
        let backend = PipelineBuilder::new()
            .database(db)
            .build_live()
            .map_err(|e| e.to_string())?;
        self.timed_cycles(
            &backend,
            ["live.cycle", "live.submit", "live.wait", "live.release"],
        )?;
        let cycle = self.mean_us("live.cycle");
        self.put("live.cycle_us", cycle, "us");
        self.put("live.hop_us", cycle - engine_us, "us");
        Ok(cycle)
    }

    /// The deep-pipelining probe: 2 threads × 16 tickets in flight over
    /// eight 32-machine pools, on the live and the embedded backend in
    /// alternating rounds.  Records each backend's rate per round and the
    /// live admission window's parks.
    fn depth16(&mut self, budget: Duration) -> Result<(), String> {
        let round = budget.div_f64((2 * DEPTH16_ROUNDS) as f64);
        let mut spec = FleetSpec::homogeneous(256, "sun", 512);
        spec.architectures = (0..8)
            .map(|i| Weighted::new(format!("arch{i}"), 1.0))
            .collect();
        let db = || {
            SyntheticFleet::new(spec.clone(), self.seed)
                .generate()
                .into_shared()
        };
        let live = PipelineBuilder::new()
            .database(db())
            .build_live()
            .map_err(|e| e.to_string())?;
        let embedded = PipelineBuilder::new()
            .database(db())
            .build_embedded()
            .map_err(|e| e.to_string())?;
        let texts: Vec<String> = (0..8)
            .map(|i| format!("punch.rsrc.arch = arch{i}\n"))
            .collect();
        let (mut live_rates, mut engine_rates) = (Vec::new(), Vec::new());
        let parks_before = live.stats().shard_contention;
        let mut live_allocs = 0u64;
        for _ in 0..DEPTH16_ROUNDS {
            let (n, rate) = depth16_round(&live, &texts, round)?;
            live_allocs += n;
            live_rates.push(rate);
            engine_rates.push(depth16_round(&embedded, &texts, round)?.1);
        }
        let parks = live.stats().shard_contention - parks_before;
        live.shutdown().map_err(|e| e.to_string())?;
        embedded.shutdown().map_err(|e| e.to_string())?;
        for (name, rates) in [("live", &live_rates), ("engine", &engine_rates)] {
            let (lo, mid, hi) = min_median_max(rates).expect("rounds > 0");
            self.put(&format!("{name}.depth16_alloc_per_s_min"), lo, "1/s");
            self.put(&format!("{name}.depth16_alloc_per_s_median"), mid, "1/s");
            self.put(&format!("{name}.depth16_alloc_per_s_max"), hi, "1/s");
        }
        self.put(
            "live.window_parks_per_kalloc",
            parks as f64 * 1e3 / live_allocs.max(1) as f64,
            "count",
        );
        Ok(())
    }

    /// `remote` and `reactor`, against the workload's real daemons: an
    /// untraced and a traced drive of the workload (the tracing overhead,
    /// the reactor's batching, the examined counts clients receive), then
    /// a traced depth-1 loop for clean per-call costs.  Returns the
    /// daemons' flags.
    fn remote(
        &mut self,
        ypd: &Path,
        fleets: &[actyp_grid::ResourceDatabase],
        window: Duration,
        depth1: Duration,
        live_us: f64,
    ) -> Result<Vec<Vec<String>>, String> {
        let spec = self.spec;
        let deployment = Deployment::start(ypd, spec, fleets)?;
        let flags = deployment.flags.clone();
        // Untraced and traced drives in ABBA order, so a drift during the
        // phase does not read as tracing overhead.
        let entry = &deployment.daemons[spec.entry];
        let before = entry.stats()?;
        let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
        let (mut examined, mut allocations) = (0u64, 0u64);
        for (round, traced) in [false, true, true, false].into_iter().enumerate() {
            let log = drive(
                spec,
                fleets,
                &deployment.conns,
                self.seed ^ round as u64,
                window,
                traced,
            )?;
            let e2e = EndToEnd::from_log(&log);
            self.attempted += e2e.attempted;
            self.failed += e2e.failed;
            self.problems.extend(log.problems);
            examined += log.examined;
            allocations += log.allocations;
            self.log.merge(log.spans);
            if traced { &mut with_spans } else { &mut plain }.push(e2e.grant_p50_ms);
        }
        let after = entry.stats()?;
        let plain = mean(&plain).expect("two untraced drives");
        let with_spans = mean(&with_spans).expect("two traced drives");
        let kallocs = (after.allocations - before.allocations).max(1) as f64 / 1e3;

        // Depth 1, one connection, requests the entry answers itself.
        let conn = &deployment.conns[0];
        let requests = self.requests.clone();
        let log = &mut self.log;
        let mut problems = Vec::new();
        repeat_for(depth1, |i| {
            let r = &requests[i % requests.len()];
            let kind = &spec.kinds[r.kind];
            let start = Instant::now();
            let ticket: Ticket = conn
                .submit_text(&kind.text)
                .map_err(|e| format!("submit: {e}"))?;
            let submitted = Instant::now();
            let allocations = conn.wait(ticket).map_err(|e| format!("wait: {e}"))?;
            let waited = Instant::now();
            let mut releases = Vec::with_capacity(allocations.len());
            for a in &allocations {
                let began = Instant::now();
                conn.release(a).map_err(|e| format!("release: {e}"))?;
                releases.push((began, Instant::now()));
            }
            let end = Instant::now();
            let parent = log.record("remote.cycle", i as u64, None, start, end);
            log.record("remote.submit", i as u64, Some(parent), start, submitted);
            log.record("remote.wait", i as u64, Some(parent), submitted, waited);
            for (began, ended) in releases {
                log.record("remote.release", i as u64, Some(parent), began, ended);
            }
            if let Err(e) = spec.check(kind, &allocations, fleets) {
                problems.push(e);
            }
            Ok(())
        })?;
        self.problems.extend(problems);
        deployment.finish(&mut self.problems)?;

        let remote_cycle = self.mean_us("remote.cycle");
        self.put_mean("remote.submit_us", "remote.submit", "us");
        self.put_mean("remote.wait_us", "remote.wait", "us");
        self.put_mean("remote.release_us", "remote.release", "us");
        self.put("remote.transport_us", remote_cycle - live_us, "us");
        self.put(
            "reactor.frames_batched_per_kalloc",
            (after.frames_batched - before.frames_batched) as f64 / kallocs,
            "count",
        );
        self.put(
            "reactor.writes_coalesced_per_kalloc",
            (after.writes_coalesced - before.writes_coalesced) as f64 / kallocs,
            "count",
        );
        self.put(
            "sched.examined_per_alloc",
            examined as f64 / allocations.max(1) as f64,
            "count",
        );
        self.put("trace.grant_p50_ms", with_spans, "ms");
        self.put("trace.overhead_ratio", with_spans / plain, "ratio");
        Ok(flags)
    }

    /// `federation` and `gossip`: an in-process entry (`purdue`, served so
    /// its gossip and probe timers run) whose peers are the WAN workload's
    /// real `upc` and `ufl` daemons, driven with the WAN query mix.
    fn federation(&mut self, ypd: &Path, budget: Duration) -> Result<(), String> {
        let wan = Workload::WanDelegation.spec();
        let fleets = wan.fleets();
        let mut peers = Vec::new();
        for (i, daemon) in wan.daemons.iter().enumerate() {
            if i != wan.entry {
                peers.push(Ypd::spawn(ypd, &daemon.flags(&[]))?);
            }
        }
        let entry = &wan.daemons[wan.entry];
        let (server, backend) = PipelineBuilder::new()
            .database(wan.daemons[wan.entry].fleet().into_shared())
            .seed(entry.fleet_seed)
            .serve_federated(
                &StageAddress::new("127.0.0.1", 0),
                BackendKind::Live,
                FederationConfig {
                    domain: entry
                        .domain
                        .expect("the WAN entry has a domain")
                        .to_string(),
                    peers: peers.iter().map(|p| p.addr().clone()).collect(),
                    ..FederationConfig::default()
                },
            )
            .map_err(|e| format!("federated entry: {e}"))?;
        // Warm-up: every kind twice, so every route is learned.
        for _ in 0..2 {
            for kind in &wan.kinds {
                let allocations = backend
                    .submit_text_wait(&kind.text)
                    .map_err(|e| e.to_string())?;
                wan.check(kind, &allocations, &fleets)?;
                for a in &allocations {
                    backend.release(a).map_err(|e| e.to_string())?;
                }
            }
        }
        let cache = backend.route_cache();
        let (hits, misses) = (cache.hits(), cache.misses());
        let gossip = backend.gossip();
        let deltas = gossip.deltas_in() + gossip.deltas_out();
        let redials = backend.peer_redials();
        let began = Instant::now();
        let mut plan = wan.plan(self.seed, 0);
        let mut hops = Vec::new();
        let mut problems = Vec::new();
        let log = &mut self.log;
        let calls = repeat_for(budget, |i| {
            let kind = &wan.kinds[plan.next_request().kind];
            let local = kind.fragments[0].daemon == wan.entry;
            let name = if local { "fed.local" } else { "fed.delegate" };
            let allocations = log
                .time(name, i as u64, None, || {
                    backend.submit_text_wait(&kind.text)
                })
                .0
                .map_err(|e| format!("{name} {:?}: {e}", kind.text))?;
            if !local {
                let chain = backend
                    .last_chain()
                    .ok_or("delegated query left no chain")?;
                hops.push(chain.visited.len().saturating_sub(1) as f64);
            }
            if let Err(e) = wan.check(kind, &allocations, &fleets) {
                problems.push(e);
            }
            for a in &allocations {
                log.time("fed.release", i as u64, None, || backend.release(a))
                    .0
                    .map_err(|e| format!("release: {e}"))?;
            }
            Ok(())
        })?;
        let elapsed = began.elapsed().as_secs_f64();
        self.attempted += calls as u64;
        self.problems.extend(problems);
        let (hits, misses) = (cache.hits() - hits, cache.misses() - misses);
        let deltas = gossip.deltas_in() + gossip.deltas_out() - deltas;
        let redials = backend.peer_redials() - redials;

        backend.shutdown().map_err(|e| e.to_string())?;
        server.halt();
        server
            .join()
            .map_err(|e| format!("federated entry drain: {e}"))?;
        for peer in peers {
            let stats = peer.stats()?;
            if stats.in_flight != 0 || stats.allocations != stats.releases {
                self.problems.push(format!(
                    "peer ended with in_flight={} allocations={} releases={}",
                    stats.in_flight, stats.allocations, stats.releases
                ));
            }
            if let Err(e) = peer.halt() {
                self.problems.push(e);
            }
        }
        self.put_mean("fed.local_us", "fed.local", "us");
        self.put_mean("fed.delegate_us", "fed.delegate", "us");
        self.put(
            "fed.hops_per_query",
            mean(&hops).unwrap_or(f64::NAN),
            "count",
        );
        self.put(
            "fed.route_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        self.put("fed.peer_redials", redials as f64, "count");
        self.put("gossip.deltas_per_s", deltas as f64 / elapsed, "1/s");
        Ok(())
    }
}

/// One round of the depth-16 probe: two threads keep 16 tickets each in
/// flight for `length`.  Returns the allocations made and their rate.
fn depth16_round(
    backend: &dyn ResourceManager,
    texts: &[String],
    length: Duration,
) -> Result<(u64, f64), String> {
    let began = Instant::now();
    let end = began + length;
    let counts: Vec<Result<u64, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || -> Result<u64, String> {
                    let mut in_flight = std::collections::VecDeque::with_capacity(16);
                    let mut done = 0u64;
                    let mut k = t * 4;
                    let mut settle = |ticket: Ticket| -> Result<(), String> {
                        for a in backend.wait(ticket).map_err(|e| e.to_string())? {
                            backend.release(&a).map_err(|e| e.to_string())?;
                        }
                        done += 1;
                        Ok(())
                    };
                    while Instant::now() < end {
                        if in_flight.len() == 16 {
                            settle(in_flight.pop_front().expect("full"))?;
                        }
                        in_flight.push_back(
                            backend
                                .submit_text(&texts[k % texts.len()])
                                .map_err(|e| e.to_string())?,
                        );
                        k += 1;
                    }
                    while let Some(ticket) = in_flight.pop_front() {
                        settle(ticket)?;
                    }
                    Ok(done)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .map_err(|_| "depth-16 thread panicked".to_string())?
            })
            .collect()
    });
    let mut total = 0;
    for c in counts {
        total += c?;
    }
    Ok((total, total as f64 / began.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_requests_skip_delegated_kinds() {
        let wan = Workload::WanDelegation.spec();
        let requests = local_requests(&wan, 3);
        assert_eq!(requests.len(), 4_096);
        assert!(requests
            .iter()
            .all(|r| wan.kinds[r.kind].fragments[0].daemon == wan.entry));
        let lan = Workload::LanLargePools.spec();
        assert!(local_requests(&lan, 3)
            .iter()
            .any(|r| lan.kinds[r.kind].fragments.len() == 2));
    }

    #[test]
    fn repeat_for_makes_a_minimum_number_of_calls() {
        let mut calls = 0;
        assert_eq!(
            repeat_for(Duration::ZERO, |_| {
                calls += 1;
                Ok(())
            }),
            Ok(MIN_CALLS)
        );
        assert_eq!(calls, MIN_CALLS);
        assert_eq!(
            repeat_for(Duration::from_secs(3600), |_| Ok(())),
            Ok(MAX_CALLS)
        );
        assert!(repeat_for(Duration::ZERO, |i| if i == 3 {
            Err("boom".into())
        } else {
            Ok(())
        })
        .is_err());
    }
}
