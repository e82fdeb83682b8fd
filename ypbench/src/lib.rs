//! `ypbench`: drives real `ypd` daemons over loopback sockets and reports
//! end-to-end metrics, or, traced, per-layer metrics.
//!
//! Run from the repository root (it builds `ypd` from source first):
//!
//! ```text
//! cargo run --release --offline --manifest-path ypbench/Cargo.toml -- \
//!     --workload lan_small_pools --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the host and provenance.  The process exits non-zero when a
//! correctness check fails.  `BENCHMARK.json` at the repository root
//! declares the workloads ([`workload`]), the end-to-end metrics
//! ([`run`]) and the per-layer metrics of `--trace 1` ([`layers`]).

pub mod daemon;
pub mod drive;
pub mod layers;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
