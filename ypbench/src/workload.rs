//! The three workloads: their daemons, query mixes, arrival processes and
//! lease-holding rules, the seeded request plans, and the oracle that
//! checks every allocation a daemon hands out.
//!
//! Workload choice (each stresses a different set of layers):
//!
//! * `lan_small_pools` — one live daemon over 128 mixed machines, so no
//!   pool exceeds ~64 machines and scheduler scans are tiny: the time goes
//!   to the wire protocol, the session reactor, the admission window and
//!   the live pipeline's stage handoffs.
//! * `lan_large_pools` — one live daemon over 1,024 mixed machines (pools
//!   of ~20 to ~500 machines, eight times those of `lan_small_pools`), a
//!   quarter of the queries composite, and leases held across later
//!   requests: the scheduler's linear scan and the white-pages lock
//!   dominate.  (A 4,096-machine fleet scans four times longer, but its
//!   throughput swung by half from run to run on a shared 2-vCPU host.)
//! * `wan_delegation` — three federated daemons, one architecture each;
//!   two thirds of the queries must be delegated from the entry domain to
//!   a peer, so delegation, peer links, the route cache and remote release
//!   routing are on every other request's path.
//!
//! Every workload runs closed loop: [`CONNECTIONS`] connections, one load
//! thread each, each keeping [`DEPTH`] tickets in flight.  (An open loop
//! suits independent wide-area users better, but on a shared 2-vCPU host
//! its tail latency did not repeat from run to run: every host stall
//! queued the requests due behind it.)

use actyp_grid::{FleetSpec, ResourceDatabase, SyntheticFleet};
use actyp_pipeline::{Allocation, StageAddress};
use actyp_query::{matches_machine, parse_query, BasicQuery, PoolName};
use actyp_simnet::Rng;

/// Architectures of the synthetic fleet, in `FleetSpec::default` order.
pub const ARCHES: [&str; 3] = ["sun", "hp", "linux"];
/// Memory floors (MB) of the LAN signatures: with [`ARCHES`], the twelve
/// `arch × memory ≥ floor` pool signatures.
pub const LAN_FLOORS: [u64; 4] = [128, 256, 512, 1024];
/// Memory floors of the WAN signatures (the domains' homogeneous fleets
/// have 512 MB machines, so every floor is satisfiable).
pub const WAN_FLOORS: [u64; 3] = [128, 256, 512];
/// Fragment expansion cap the daemons' query managers use by default.
const DECOMPOSE_LIMIT: usize = 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over small pools: transport-bound.
    LanSmallPools,
    /// Closed loop over large pools with held leases: scheduler-bound.
    LanLargePools,
    /// Three federated daemons, two thirds of queries delegated.
    WanDelegation,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LanSmallPools,
        Workload::LanLargePools,
        Workload::WanDelegation,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LanSmallPools => "lan_small_pools",
            Workload::LanLargePools => "lan_large_pools",
            Workload::WanDelegation => "wan_delegation",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{name}` (expected one of: {})",
                    names.join(", ")
                )
            })
    }

    /// The workload's fixed definition.
    pub fn spec(self) -> Spec {
        match self {
            Workload::LanSmallPools => Spec {
                workload: self,
                // A fleet seed whose smallest pool (linux, ≥1024 MB) still
                // has room for every lease in flight; most 128-machine
                // fleets have only two or three such machines.
                daemons: vec![DaemonSpec::lan(128, 3608)],
                entry: 0,
                kinds: lan_kinds(false),
                composite_share: 0.0,
                max_hold: 0,
            },
            Workload::LanLargePools => Spec {
                workload: self,
                daemons: vec![DaemonSpec::lan(1_024, 0x1A26E)],
                entry: 0,
                kinds: lan_kinds(true),
                composite_share: 0.25,
                max_hold: 16,
            },
            Workload::WanDelegation => {
                let domain = |name: &'static str, arch: &'static str, seed: u64| DaemonSpec {
                    machines: 256,
                    fleet_seed: seed,
                    arch: Some(arch),
                    domain: Some(name),
                    peers: Vec::new(),
                };
                let mut entry = domain("purdue", "sun", 0x9D0E);
                // Peers are spawned first, so the entry can name them.
                entry.peers = vec![0, 1];
                Spec {
                    workload: self,
                    daemons: vec![
                        domain("upc", "hp", 0x09C),
                        domain("ufl", "linux", 0x0F1),
                        entry,
                    ],
                    entry: 2,
                    kinds: wan_kinds(),
                    composite_share: 0.0,
                    max_hold: 0,
                }
            }
        }
    }
}

/// Client connections of every workload, one load thread each.
pub const CONNECTIONS: usize = 2;
/// Tickets each connection keeps in flight.  Depth 4 because the live
/// backend's throughput is bimodal at deeper pipelining (the traced run's
/// depth-16 probe records that).
pub const DEPTH: usize = 4;

/// One `ypd` process of a workload.
#[derive(Debug, Clone)]
pub struct DaemonSpec {
    /// Synthetic fleet size (`--machines`).
    pub machines: usize,
    /// Fleet seed (`--seed`).  Fixed per workload: the workload seed only
    /// drives the request plan, so runs differ in traffic, not in fleet.
    pub fleet_seed: u64,
    /// Homogeneous fleet architecture (`--arch`); `None` for the mixed fleet.
    pub arch: Option<&'static str>,
    /// Federation domain (`--domain`).
    pub domain: Option<&'static str>,
    /// Indices (into the workload's daemon list) of this daemon's peers,
    /// all spawned before it.
    pub peers: Vec<usize>,
}

impl DaemonSpec {
    fn lan(machines: usize, fleet_seed: u64) -> Self {
        DaemonSpec {
            machines,
            fleet_seed,
            arch: None,
            domain: None,
            peers: Vec::new(),
        }
    }

    /// The `ypd` flags, given the listen addresses of the daemons spawned
    /// before this one.
    pub fn flags(&self, spawned: &[StageAddress]) -> Vec<String> {
        let mut flags = vec![
            "--backend".to_string(),
            "live".to_string(),
            "--machines".to_string(),
            self.machines.to_string(),
            "--seed".to_string(),
            self.fleet_seed.to_string(),
        ];
        if let Some(arch) = self.arch {
            flags.extend(["--arch".to_string(), arch.to_string()]);
        }
        if let Some(domain) = self.domain {
            flags.extend(["--domain".to_string(), domain.to_string()]);
        }
        for &peer in &self.peers {
            flags.extend(["--peer".to_string(), spawned[peer].to_string()]);
        }
        flags
    }

    /// A replica of the daemon's white pages, built the way `ypd` builds
    /// its fleet from the same flags (homogeneous fleets use 512 MB
    /// machines).  The oracle checks allocations against it.
    pub fn fleet(&self) -> ResourceDatabase {
        let spec = match self.arch {
            Some(arch) => FleetSpec::homogeneous(self.machines, arch, 512),
            None => FleetSpec::with_machines(self.machines),
        };
        SyntheticFleet::new(spec, self.fleet_seed).generate()
    }
}

/// One distinct query of a workload and what its allocations must satisfy.
#[derive(Debug, Clone)]
pub struct QueryKind {
    /// The native-format text sent over the wire.
    pub text: String,
    /// The basic queries the daemon decomposes it into.
    pub fragments: Vec<Fragment>,
}

/// One basic query and where its allocation must come from.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The basic query.
    pub query: BasicQuery,
    /// The pool name the daemon maps it to.
    pub pool: String,
    /// The architecture its machine must have.
    pub arch: &'static str,
    /// Index of the daemon whose fleet must hold the machine.
    pub daemon: usize,
}

impl QueryKind {
    fn new(text: String, arches: &[&'static str], daemon_of: impl Fn(&str) -> usize) -> Self {
        let query = parse_query(&text).expect("benchmark query texts parse");
        let fragments = query
            .decompose(DECOMPOSE_LIMIT)
            .into_iter()
            .zip(arches)
            .map(|(basic, &arch)| Fragment {
                pool: PoolName::from_query(&basic).full(),
                query: basic,
                arch,
                daemon: daemon_of(arch),
            })
            .collect();
        QueryKind { text, fragments }
    }
}

fn signature_text(arch: &str, floor: u64) -> String {
    format!("punch.rsrc.arch = {arch}\npunch.rsrc.memory = >={floor}\n")
}

/// The twelve basic LAN signatures, then (when `composite`) one
/// `arch = sun | hp` query per memory floor.
fn lan_kinds(composite: bool) -> Vec<QueryKind> {
    let mut kinds: Vec<QueryKind> = ARCHES
        .iter()
        .flat_map(|&arch| {
            LAN_FLOORS
                .iter()
                .map(move |&floor| QueryKind::new(signature_text(arch, floor), &[arch], |_| 0))
        })
        .collect();
    if composite {
        kinds.extend(LAN_FLOORS.iter().map(|&floor| {
            QueryKind::new(signature_text("sun | hp", floor), &["sun", "hp"], |_| 0)
        }));
    }
    kinds
}

/// One query per (domain architecture, floor): the entry (`sun`) answers
/// locally; `hp` lives only in `upc` (daemon 0), `linux` only in `ufl`
/// (daemon 1).
fn wan_kinds() -> Vec<QueryKind> {
    let daemon_of = |arch: &str| match arch {
        "hp" => 0,
        "linux" => 1,
        _ => 2,
    };
    ARCHES
        .iter()
        .flat_map(|&arch| {
            WAN_FLOORS
                .iter()
                .map(move |&floor| QueryKind::new(signature_text(arch, floor), &[arch], daemon_of))
        })
        .collect()
}

/// A workload's fixed definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload this is.
    pub workload: Workload,
    /// The daemons, in spawn order.
    pub daemons: Vec<DaemonSpec>,
    /// Index of the daemon clients connect to.
    pub entry: usize,
    /// The distinct queries; composite ones (if any) come after the basic
    /// ones.
    pub kinds: Vec<QueryKind>,
    /// Share of requests that are composite.
    pub composite_share: f64,
    /// Leases are held for a seeded number (0..=max_hold) of later
    /// requests of the same connection, then released; 0 releases at once.
    pub max_hold: usize,
}

impl Spec {
    /// The workload's fleet replicas, one per daemon.
    pub fn fleets(&self) -> Vec<ResourceDatabase> {
        self.daemons.iter().map(DaemonSpec::fleet).collect()
    }

    /// The request plan of connection `stream`.
    pub fn plan(&self, seed: u64, stream: u64) -> Plan {
        let basic = self.kinds.iter().filter(|k| k.fragments.len() == 1).count();
        Plan {
            rng: Rng::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            basic,
            total: self.kinds.len(),
            composite_share: self.composite_share,
            max_hold: self.max_hold,
        }
    }

    /// Checks one request's allocations: one per fragment, each from its
    /// fragment's pool, on a machine of the right daemon's fleet that
    /// satisfies the fragment (architecture prefix included).
    pub fn check(
        &self,
        kind: &QueryKind,
        allocations: &[Allocation],
        fleets: &[ResourceDatabase],
    ) -> Result<(), String> {
        if allocations.len() != kind.fragments.len() {
            return Err(format!(
                "{:?}: {} allocations for {} fragments",
                kind.text,
                allocations.len(),
                kind.fragments.len()
            ));
        }
        let mut used = vec![false; kind.fragments.len()];
        for a in allocations {
            let slot = kind
                .fragments
                .iter()
                .enumerate()
                .position(|(i, f)| !used[i] && f.pool == a.pool)
                .ok_or_else(|| {
                    format!(
                        "{:?}: allocation from unexpected pool {}",
                        kind.text, a.pool
                    )
                })?;
            used[slot] = true;
            let fragment = &kind.fragments[slot];
            let machine = fleets[fragment.daemon]
                .find_by_name(&a.machine_name)
                .ok_or_else(|| {
                    format!(
                        "{:?}: machine {} is not in the fleet of daemon {}",
                        kind.text, a.machine_name, fragment.daemon
                    )
                })?;
            if machine.id != a.machine
                || !a.machine_name.starts_with(&format!("{}-", fragment.arch))
                || !matches_machine(&fragment.query, machine).is_match()
            {
                return Err(format!(
                    "{:?}: machine {} does not satisfy {}",
                    kind.text, a.machine_name, fragment.pool
                ));
            }
        }
        Ok(())
    }
}

/// One request of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into [`Spec::kinds`].
    pub kind: usize,
    /// Later requests of the same connection to wait before releasing.
    pub hold: usize,
}

/// A seeded, endless request sequence.
#[derive(Debug, Clone)]
pub struct Plan {
    rng: Rng,
    basic: usize,
    total: usize,
    composite_share: f64,
    max_hold: usize,
}

impl Plan {
    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let kind = if self.total > self.basic && self.rng.chance(self.composite_share) {
            self.basic + self.rng.index(self.total - self.basic)
        } else {
            self.rng.index(self.basic)
        };
        let hold = if self.max_hold > 0 {
            self.rng.index(self.max_hold + 1)
        } else {
            0
        };
        Request { kind, hold }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_per_seed_and_differ_across_seeds() {
        let spec = Workload::LanLargePools.spec();
        let take = |seed, stream| {
            let mut plan = spec.plan(seed, stream);
            (0..64).map(|_| plan.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(8, 0));
        assert_ne!(take(7, 0), take(7, 1));
    }

    #[test]
    fn the_mixes_have_the_declared_shapes() {
        let small = Workload::LanSmallPools.spec();
        assert_eq!(small.kinds.len(), 12);
        let large = Workload::LanLargePools.spec();
        assert_eq!(large.kinds.len(), 16);
        let mut plan = large.plan(1, 0);
        let composite = (0..4_000)
            .filter(|_| large.kinds[plan.next_request().kind].fragments.len() == 2)
            .count();
        assert!(
            (800..1_200).contains(&composite),
            "{composite} of 4000 composite"
        );
        let wan = Workload::WanDelegation.spec();
        let remote = wan
            .kinds
            .iter()
            .filter(|k| k.fragments[0].daemon != wan.entry)
            .count();
        assert_eq!(
            (wan.kinds.len(), remote),
            (9, 6),
            "a third local, two thirds delegated"
        );
    }

    /// Allocations a machine can hold at once: each adds `1 / cpus` load
    /// and machines refuse work at `max_allowed_load`; each also needs a
    /// shadow account.
    fn capacity(db: &ResourceDatabase, query: &BasicQuery) -> usize {
        db.iter()
            .filter(|m| m.accepting_work() && matches_machine(query, m).is_match())
            .map(|m| {
                let step = 1.0 / m.num_cpus.max(1) as f64;
                let room = ((m.max_allowed_load - m.dynamic.current_load) / step).ceil();
                (room.max(0.0) as usize).min(m.shadow_accounts.capacity())
            })
            .sum()
    }

    #[test]
    fn every_pool_has_room_for_every_lease_a_workload_can_hold() {
        for workload in Workload::ALL {
            let spec = workload.spec();
            let fleets = spec.fleets();
            let outstanding = CONNECTIONS * (DEPTH + spec.max_hold);
            for kind in &spec.kinds {
                for fragment in &kind.fragments {
                    let room = capacity(&fleets[fragment.daemon], &fragment.query);
                    assert!(
                        room >= 2 * outstanding,
                        "{}: {} has room for {room} leases, need {}",
                        workload.name(),
                        fragment.pool,
                        2 * outstanding
                    );
                }
            }
        }
    }

    #[test]
    fn the_oracle_accepts_a_true_allocation_and_rejects_false_ones() {
        let spec = Workload::LanSmallPools.spec();
        let fleets = spec.fleets();
        let kind = &spec.kinds[1];
        let fragment = &kind.fragments[0];
        let machine = fleets[0]
            .iter()
            .find(|m| matches_machine(&fragment.query, m).is_match())
            .unwrap();
        let good = Allocation {
            request: actyp_pipeline::RequestId(1),
            machine: machine.id,
            machine_name: machine.name.clone(),
            execution_port: 1,
            mount_port: 2,
            shadow_uid: None,
            access_key: actyp_pipeline::SessionKey("k".into()),
            pool: fragment.pool.clone(),
            pool_instance: 0,
            examined: 1,
        };
        assert!(spec
            .check(kind, std::slice::from_ref(&good), &fleets)
            .is_ok());
        assert!(
            spec.check(kind, &[], &fleets).is_err(),
            "missing allocation"
        );
        let wrong_pool = Allocation {
            pool: "arch,==/hp".into(),
            ..good.clone()
        };
        assert!(spec.check(kind, &[wrong_pool], &fleets).is_err());
        let other = fleets[0]
            .iter()
            .find(|m| !matches_machine(&fragment.query, m).is_match())
            .unwrap();
        let wrong_machine = Allocation {
            machine: other.id,
            machine_name: other.name.clone(),
            ..good
        };
        assert!(spec.check(kind, &[wrong_machine], &fleets).is_err());
    }

    #[test]
    fn wan_flags_name_the_peers_spawned_before_the_entry() {
        let spec = Workload::WanDelegation.spec();
        let spawned = [
            StageAddress::new("127.0.0.1", 1001),
            StageAddress::new("127.0.0.1", 1002),
        ];
        let flags = spec.daemons[spec.entry].flags(&spawned).join(" ");
        assert!(flags.contains("--domain purdue"), "{flags}");
        assert!(
            flags.contains("--peer 127.0.0.1:1001 --peer 127.0.0.1:1002"),
            "{flags}"
        );
        assert!(spec.daemons[0].flags(&[]).join(" ").contains("--arch hp"));
    }
}
