//! One benchmark run: deploy the workload's daemons (several times, to
//! time set-up), drive it, check every output, and turn the log into the
//! end-to-end metrics.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use actyp_bench::json::Json;
use actyp_grid::ResourceDatabase;
use actyp_pipeline::{RemoteBackend, ResourceManager, StageAddress};

use crate::daemon::{build_ypd, Ypd};
use crate::drive::{drive, warm_up, DriveLog, Record};
use crate::stats::{median, Latencies};
use crate::workload::{Spec, Workload, CONNECTIONS};

/// Deployments per run whose set-up is timed; the last one is measured.
pub const SETUPS: usize = 7;
/// Requests per chunk: percentiles are taken over each run of this many
/// consecutive requests and reported as their median over the chunks, so
/// a burst of interference moves the chunks it hits, not the result.  A
/// thousand requests leave ten beyond the 99th percentile.
pub const CHUNK: usize = 1_000;

/// The command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the request plans derive from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

impl Options {
    /// Parses `--workload NAME --seed N --seconds N --trace 0|1`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => {
                    seed = Some(
                        value
                            .parse()
                            .map_err(|_| format!("--seed: bad number `{value}`"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|&s: &u64| (1..=600).contains(&s))
                            .ok_or_else(|| format!("--seconds: expected 1..=600, got `{value}`"))?,
                    )
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// Requests attempted in the measurement.
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Correctness failures (empty when every check passed).
    pub problems: Vec<String>,
    /// Host and provenance facts.
    pub provenance: Json,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    Json::Num(m.value)
                } else {
                    Json::Null
                };
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", value),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.problems.is_empty())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// The workload's daemons plus the load generator's connections.
pub struct Deployment {
    /// The daemons, in spawn order.
    pub daemons: Vec<Ypd>,
    /// Client connections to the entry daemon.
    pub conns: Vec<RemoteBackend>,
    /// Each daemon's `ypd` flags.
    pub flags: Vec<Vec<String>>,
}

impl Deployment {
    /// Spawns every daemon, connects the load generator to the entry one
    /// and warms every query kind up.
    pub fn start(
        ypd: &Path,
        spec: &Spec,
        fleets: &[ResourceDatabase],
    ) -> Result<Deployment, String> {
        let mut daemons: Vec<Ypd> = Vec::new();
        let mut addrs: Vec<StageAddress> = Vec::new();
        let mut flags = Vec::new();
        for daemon in &spec.daemons {
            let f = daemon.flags(&addrs);
            let ypd = Ypd::spawn(ypd, &f)?;
            addrs.push(ypd.addr().clone());
            daemons.push(ypd);
            flags.push(f);
        }
        let conns = (0..CONNECTIONS)
            .map(|_| {
                RemoteBackend::connect(&addrs[spec.entry]).map_err(|e| format!("connect: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        warm_up(spec, fleets, &conns)?;
        Ok(Deployment {
            daemons,
            conns,
            flags,
        })
    }

    /// Summed CPU time of every daemon, µs.
    pub fn cpu_us(&self) -> Result<f64, String> {
        self.daemons.iter().map(Ypd::cpu_us).sum()
    }

    /// Summed peak resident set of every daemon, MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.daemons.iter().map(Ypd::peak_rss_mb).sum()
    }

    /// Closes the connections, checks every daemon settled everything
    /// (nothing in flight, every allocation released), then halts them
    /// (entry first) and checks each exits 0.  Check failures are added to
    /// `problems`.
    pub fn finish(self, problems: &mut Vec<String>) -> Result<(), String> {
        for conn in &self.conns {
            conn.shutdown()
                .map_err(|e| format!("client shutdown: {e}"))?;
        }
        drop(self.conns);
        for (i, daemon) in self.daemons.iter().enumerate() {
            let stats = daemon.stats()?;
            if stats.in_flight != 0 || stats.allocations != stats.releases {
                problems.push(format!(
                    "daemon {i} ended with in_flight={} allocations={} releases={}",
                    stats.in_flight, stats.allocations, stats.releases
                ));
            }
        }
        for daemon in self.daemons.into_iter().rev() {
            if let Err(e) = daemon.halt() {
                problems.push(e);
            }
        }
        Ok(())
    }
}

/// Locates the repository root: the working directory, which must hold
/// the workspace manifest.
pub fn repo_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if root.join("Cargo.toml").is_file() && root.join("crates/ypd").is_dir() {
        Ok(root)
    } else {
        Err(format!("{} is not the repository root", root.display()))
    }
}

/// Runs one end-to-end or traced run.
pub fn run(root: &Path, opts: &Options) -> Result<Report, String> {
    let ypd = build_ypd(root)?;
    if opts.trace {
        return crate::layers::run_traced(root, &ypd, opts);
    }
    let spec = opts.workload.spec();
    let fleets = spec.fleets();
    let mut problems = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut measured = None;
    for i in 0..SETUPS {
        let began = Instant::now();
        let deployment = Deployment::start(&ypd, &spec, &fleets)?;
        setups.push(began.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            measured = Some(deployment);
        } else {
            deployment.finish(&mut problems)?;
        }
    }
    let deployment = measured.expect("SETUPS > 0");
    let flags = deployment.flags.clone();
    let window = Duration::from_secs(opts.seconds);
    let cpu_before = deployment.cpu_us()?;
    let log = drive(&spec, &fleets, &deployment.conns, opts.seed, window, false)?;
    let cpu_us = deployment.cpu_us()? - cpu_before;
    let rss_mb = deployment.peak_rss_mb()?;
    deployment.finish(&mut problems)?;
    problems.extend(log.problems.iter().cloned());

    let e2e = EndToEnd::from_log(&log);
    let metrics = vec![
        metric("alloc_per_s", e2e.alloc_per_s, "1/s"),
        metric("grant_p50_ms", e2e.grant_p50_ms, "ms"),
        metric("grant_p99_ms", e2e.grant_p99_ms, "ms"),
        metric("success_ratio", e2e.success_ratio, "ratio"),
        metric(
            "daemon_cpu_us_per_alloc",
            cpu_us / e2e.granted.max(1) as f64,
            "us",
        ),
        metric("daemon_rss_mb", rss_mb, "MB"),
        metric("setup_s", median(&setups).expect("SETUPS > 0"), "s"),
        metric("gen_late_p99_ms", e2e.gen_late_p99_ms, "ms"),
    ];
    Ok(Report {
        attempted: e2e.attempted,
        failed: e2e.failed,
        metrics,
        problems,
        provenance: provenance(root, opts, &flags),
    })
}

/// Builds a [`Metric`].
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end figures of one drive.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Requests sent.
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    /// Requests granted (including those drained after the window).
    pub granted: u64,
    /// Median over chunks of requests granted per second: a chunk's
    /// grants over the time its requests took to send.
    pub alloc_per_s: f64,
    /// Median over chunks of the median grant latency.
    pub grant_p50_ms: f64,
    /// Median over chunks of the 99th-percentile grant latency.
    pub grant_p99_ms: f64,
    /// Granted / attempted.
    pub success_ratio: f64,
    /// Median over chunks of the 99th-percentile generator lateness.
    pub gen_late_p99_ms: f64,
}

impl EndToEnd {
    /// Cuts the requests, in the order they were sent, into chunks of
    /// [`CHUNK`] (fewer than that make one chunk; a short tail joins the
    /// last full chunk).
    pub fn from_log(log: &DriveLog) -> EndToEnd {
        let mut records: Vec<&Record> = log.records.iter().collect();
        records.sort_by(|a, b| a.sent_s.total_cmp(&b.sent_s));
        let chunks = (records.len() / CHUNK).max(1);
        let mut latencies = vec![Latencies::default(); chunks];
        let mut lateness = vec![Latencies::default(); chunks];
        // Per chunk: first and last send, and grants.
        let mut spans = vec![(f64::INFINITY, 0.0_f64, 0u64); chunks];
        let mut all = Latencies::default();
        for (i, r) in records.into_iter().enumerate() {
            let c = (i / CHUNK).min(chunks - 1);
            spans[c].0 = spans[c].0.min(r.sent_s);
            spans[c].1 = spans[c].1.max(r.sent_s);
            match r.latency_ms {
                Some(ms) => {
                    latencies[c].record(ms);
                    all.record(ms);
                    spans[c].2 += 1;
                }
                None => {
                    latencies[c].miss();
                    all.miss();
                }
            }
            if let Some(late) = r.late_ms {
                lateness[c].record(late);
            }
        }
        let per_chunk = |sets: &mut [Latencies], p: f64| {
            let values: Vec<f64> = sets.iter_mut().filter_map(|l| l.percentile(p)).collect();
            median(&values).unwrap_or(f64::NAN)
        };
        let rates: Vec<f64> = spans
            .iter()
            .filter(|(first, last, _)| last > first)
            .map(|(first, last, granted)| *granted as f64 / (last - first))
            .collect();
        let attempted = all.attempted();
        let failed = all.misses();
        EndToEnd {
            attempted,
            failed,
            granted: attempted - failed,
            alloc_per_s: median(&rates).unwrap_or(0.0),
            grant_p50_ms: per_chunk(&mut latencies, 50.0),
            grant_p99_ms: per_chunk(&mut latencies, 99.0),
            success_ratio: if attempted > 0 {
                (attempted - failed) as f64 / attempted as f64
            } else {
                0.0
            },
            gen_late_p99_ms: per_chunk(&mut lateness, 99.0),
        }
    }
}

/// Host and provenance facts recorded with every result.
pub fn provenance(root: &Path, opts: &Options, flags: &[Vec<String>]) -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let command_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    Json::obj(vec![
        ("workload", Json::Str(opts.workload.name().to_string())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds as f64)),
        ("trace", Json::Bool(opts.trace)),
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("source_digest", Json::Str(source_digest(root))),
        (
            "ypd_flags",
            Json::Arr(flags.iter().map(|f| Json::Str(f.join(" "))).collect()),
        ),
    ])
}

/// FNV-1a over the paths and contents of the workspace sources, so a
/// result names the code it measured even outside a git checkout.
fn source_digest(root: &Path) -> String {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let name = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&file).unwrap_or_default();
        for byte in name.as_bytes().iter().chain(&body) {
            hash ^= *byte as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn options_parse_and_reject_garbage() {
        let opts = Options::parse(args(
            "--workload wan_delegation --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(opts.workload, Workload::WanDelegation);
        assert_eq!((opts.seed, opts.seconds, opts.trace), (9, 10, true));
        assert!(Options::parse(args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(Options::parse(args("--workload lan_small_pools --seconds 1")).is_err());
        assert!(Options::parse(args("--workload lan_small_pools --seed 1 --seconds 0")).is_err());
        assert!(Options::parse(args(
            "--workload lan_small_pools --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(Options::parse(args("--seed")).is_err());
    }

    fn record(sent_s: f64, latency_ms: Option<f64>, late_ms: Option<f64>) -> Record {
        Record {
            sent_s,
            done_s: sent_s + latency_ms.unwrap_or(0.0) / 1e3,
            latency_ms,
            late_ms,
        }
    }

    #[test]
    fn failures_are_counted_and_miss_the_tail() {
        let mut log = DriveLog::new(Instant::now());
        // 5,000 requests at 1 ms over 10 s, plus 20 failures early on: the
        // first chunk's 99th percentile is a miss, the median over the
        // chunks is not.
        for i in 0..5_000 {
            log.records
                .push(record(i as f64 / 500.0, Some(1.0), Some(0.01)));
        }
        for _ in 0..20 {
            log.records.push(record(0.5, None, None));
        }
        let e2e = EndToEnd::from_log(&log);
        assert_eq!((e2e.attempted, e2e.failed, e2e.granted), (5_020, 20, 5_000));
        assert!((e2e.success_ratio - 5_000.0 / 5_020.0).abs() < 1e-12);
        assert_eq!(e2e.grant_p50_ms, 1.0);
        assert_eq!(e2e.grant_p99_ms, 1.0);
        // Chunks of 1,000 requests sent 2 ms apart (the first one loses
        // its 20 failures and its last 20 sends to the next chunk).
        assert!((e2e.alloc_per_s - 1_000.0 / 1.998).abs() < 1e-6);
        assert_eq!(e2e.gen_late_p99_ms, 0.01);
        // Failures in most chunks reach the reported tail.
        for c in 0..3 {
            for _ in 0..20 {
                log.records.push(record(2.0 * c as f64 + 2.1, None, None));
            }
        }
        assert_eq!(EndToEnd::from_log(&log).grant_p99_ms, f64::INFINITY);
    }

    #[test]
    fn the_rate_counts_grants_over_the_sending_time() {
        let mut log = DriveLog::new(Instant::now());
        log.records.push(record(4.5, Some(500.0), None));
        log.records.push(record(4.6, None, None));
        let e2e = EndToEnd::from_log(&log);
        assert_eq!((e2e.granted, e2e.failed), (1, 1));
        assert!((e2e.alloc_per_s - 10.0).abs() < 1e-9);
        assert_eq!(e2e.grant_p50_ms, 500.0);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![
                metric("setup_s", 0.5, "s"),
                metric("grant_p99_ms", f64::INFINITY, "ms"),
            ],
            problems: Vec::new(),
            provenance: Json::Null,
        };
        let line = report.result_json().to_compact();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\"grant_p99_ms\":{\"value\":null,\"unit\":\"ms\"}}}"
        );
    }
}
