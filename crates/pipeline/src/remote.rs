//! The wire deployment: a `ypd` server hosting any backend behind the
//! [`actyp_proto`] protocol, and the [`RemoteBackend`] client that puts the
//! same [`ResourceManager`] surface on the other end of a TCP socket.
//!
//! The paper's architecture is explicitly a *network* service — "queries
//! propagate from one stage to the next via TCP or UDP", and "all state
//! information is carried with the query itself".  This module closes the
//! gap the in-process backends leave open: the exact client code that runs
//! against the embedded engine runs unchanged against a daemon on another
//! machine, and the ticket pipelining the paper measures now spans a real
//! network hop — multiple tickets in flight on one connection, multiplexed
//! by [`RequestId`] correlation.
//!
//! # Server
//!
//! [`serve`] binds a listener and hosts *any* [`ResourceManager`] — the
//! embedded engine, the threaded live pipeline or a centralized baseline.
//! Each connection is a *session* with its own ticket table: wire ticket
//! ids are session-scoped, so one client can never redeem (or guess)
//! another's tickets.  Allocations are *session leases*: a session that
//! ends settles its outstanding tickets (outcomes awaited, bounded by a
//! teardown budget) and hands back every allocation the client still held,
//! so an abruptly disconnected client leaks neither machines nor window
//! permits.  [`ServerHandle::halt`] (or a client's [`ClientFrame::Halt`])
//! drains the daemon gracefully: the listener stops accepting, open
//! sessions finish, and [`ServerHandle::join`] then tears the hosted
//! backend down.
//!
//! ## Session I/O: the reactor
//!
//! Session I/O is event driven: a fixed pool of I/O threads
//! ([`ServerConfig::io_threads`]) drives every session's nonblocking
//! socket through a [`crate::reactor::Poller`] (epoll on Linux, `poll(2)`
//! on other unix hosts).  Each session is an explicit state machine —
//! buffered partial-frame reads, a write queue the I/O thread flushes as
//! the socket allows (with a high-water mark that stops *reading* from a
//! client that is not draining its replies), and a drain-aware close that
//! lets queued replies leave before the socket shuts.
//!
//! A request step that cannot park runs on the I/O thread itself.  On a
//! daemon that is not federated these are: a submission while the
//! admission window has a free permit ([`ResourceManager::try_submit`]),
//! and a wait or poll whose outcome is already in
//! ([`ResourceManager::try_poll`]).  A release also answers inline there,
//! and it is the one exception to "never park": the live backend's
//! release parks the I/O thread until the pool-manager stage has done one
//! release job.  Every other backend call that can block is queued onto
//! one shared, capped [`crate::reactor::WorkerPool`] per lane
//! ([`ServerConfig::workers`] threads each) —
//!
//! * the *submit* lane (a submission that found the window full or
//!   follows one still queued, batch submits, delegations in, and every
//!   submission on a federated daemon), whose jobs may block on the live
//!   backend's admission window,
//! * the *redeem* lane (a wait whose outcome is still pending, federated
//!   polls and releases), whose jobs resolve by pipeline progress or
//!   bounded peer I/O alone, and
//! * the *teardown* lane (session settles for closed connections), so a
//!   mass disconnect never spawns a thread per closing session —
//!
//! kept separate so a lane full of window-blocked submissions can never
//! starve the redemptions (or the releases clients interleave with them)
//! that would free those very permits.  A federated daemon keeps every
//! submission, wait and poll on the lanes: its `try_poll` may run the
//! delegation chain over the network.  Completions
//! are posted back to the owning session's write queue and the I/O thread
//! is woken to flush them.  The listener itself is one more readiness
//! source on the first I/O thread — there is no dedicated accept thread —
//! and that thread's timer wheel also drives the periodic anti-entropy
//! gossip tick for a federated daemon.  The daemon's thread count is
//! therefore *independent of its session count*: the I/O pool + three
//! worker lanes + the hosted backend, whether two clients are connected
//! or two thousand.
//!
//! The server is unix-only: on a host without a readiness poller the
//! `serve*` functions fail with [`AllocationError::Network`].
//!
//! # Client
//!
//! [`RemoteBackend::connect`] performs the protocol's version negotiation
//! and then implements the whole trait over the socket.  The connection
//! is a `CorrConn` (`conn.rs`) — the same correlated-connection core
//! the federation's peer links use — whose reader thread routes response
//! frames to the requests that sent them, so any number of client threads
//! (or one thread holding many tickets) share the connection.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use actyp_proto::{
    negotiate, write_frame, ClientFrame, ServerFrame, MAX_SEQUENCE_LEN, MIN_SUPPORTED_VERSION,
    PROTOCOL_VERSION,
};
use actyp_query::Query;

use crate::allocation::{Allocation, AllocationError};
use crate::api::{QueryOutcome, ResourceManager, StatsSnapshot, Ticket, TrySubmitError};
use crate::conn::CorrConn;
use crate::message::{RequestId, StageAddress};
use crate::reactor::PollerKind;

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Upper bound on blocking requests (submits/waits) in flight per session
/// and lane; a request beyond it is answered with an error, so one
/// connection cannot flood the shared worker queues.
const MAX_SESSION_WORKERS: usize = 256;

/// Server-side knobs: how many threads the daemon spends on session I/O.
/// The defaults suit a daemon on a small host; raise
/// [`ServerConfig::io_threads`] and [`ServerConfig::workers`] together
/// with core count and backend latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Reactor I/O threads (clamped to at least 1).  Sessions are
    /// distributed round-robin across them at accept time.
    pub io_threads: usize,
    /// Worker threads *per lane* (submit, redeem and teardown lanes,
    /// clamped to at least 1 each): the cap on concurrently executing
    /// blocking backend calls.
    pub workers: usize,
    /// Which readiness poller the I/O threads use.
    pub poller: PollerKind,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            io_threads: 2,
            workers: 4,
            poller: PollerKind::Auto,
        }
    }
}

struct ServerShared {
    manager: Box<dyn ResourceManager>,
    /// Present when this daemon is federated: the same backend the
    /// sessions serve, kept concretely typed so incoming
    /// [`ClientFrame::Delegate`] / [`ClientFrame::SyncPools`] frames from
    /// peer daemons reach the federation surface the trait does not carry.
    federation: Option<Arc<crate::federation::FederatedBackend>>,
    draining: AtomicBool,
    /// The reactor session engine.  Taken at join time.
    #[cfg(unix)]
    reactor: Mutex<Option<ReactorEngine>>,
    /// Frames that rode a multi-frame lane batch (one queue send, one
    /// worker wakeup for the whole batch); overlaid on every `Stats`
    /// reply.
    frames_batched: AtomicU64,
    /// Flushes that drained more than one queued frame with a single
    /// coalesced socket write.
    writes_coalesced: AtomicU64,
}

impl ServerShared {
    /// Flags the drain and wakes the reactor I/O threads, so idle sessions
    /// are closed and settled and the listener thread stops accepting.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        #[cfg(unix)]
        if let Some(engine) = &*self.reactor.lock() {
            for io in &engine.io {
                io.notify.wake();
            }
        }
    }
}

/// A running `ypd` server.  Dropping the handle does *not* stop the daemon;
/// call [`ServerHandle::halt`] then [`ServerHandle::join`] for a graceful
/// drain (or let a client send [`ClientFrame::Halt`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
}

impl ServerHandle {
    /// The address the daemon actually listens on (resolves port 0 binds).
    pub fn local_addr(&self) -> StageAddress {
        StageAddress::new(self.addr.ip().to_string(), self.addr.port())
    }

    /// Asks the daemon to drain: stop accepting new connections and let the
    /// open sessions run to completion.  Idempotent.
    pub fn halt(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until the daemon has fully drained (listener closed and
    /// every session finished — sessions end when their client disconnects
    /// or shuts its session down; during a drain, sessions idle between
    /// frames are ended and settled too, so a daemon with pooled peer
    /// links or forgotten clients still stops), then tears the hosted
    /// backend down and surfaces any stage worker panics.  Call
    /// [`ServerHandle::halt`] first, or this blocks until a client halts
    /// the daemon.
    ///
    /// Every teardown step runs even when an earlier one failed — the
    /// hosted backend is always shut down — and all problems are reported
    /// together.
    pub fn join(self) -> Result<(), AllocationError> {
        let mut problems: Vec<String> = Vec::new();
        // Reactor engine teardown: the I/O threads exit once every session
        // is closed, the per-session teardowns finish settling, and the
        // worker lanes stop after their queues drain.  The slot is taken
        // in its own statement so its guard drops before the joins.
        #[cfg(unix)]
        {
            let engine = self.shared.reactor.lock().take();
            if let Some(engine) = engine {
                for io in engine.io {
                    io.notify.wake();
                    if io.thread.join().is_err() {
                        problems.push("ypd I/O thread panicked".to_string());
                    }
                }
                let worker_panics = engine.pools.submit.shutdown()
                    + engine.pools.redeem.shutdown()
                    + engine.pools.teardown.shutdown();
                if worker_panics > 0 {
                    problems.push(format!("{worker_panics} ypd worker job(s) panicked"));
                }
            }
        }
        if let Err(e) = self.shared.manager.shutdown() {
            problems.push(e.to_string());
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(AllocationError::Internal(problems.join("; ")))
        }
    }
}

/// Binds `addr` and serves `manager` over the wire protocol until halted,
/// with the default [`ServerConfig`].
///
/// `addr.port == 0` binds an ephemeral port; read it back with
/// [`ServerHandle::local_addr`].
pub fn serve(
    manager: Box<dyn ResourceManager>,
    addr: &StageAddress,
) -> Result<ServerHandle, AllocationError> {
    serve_inner(manager, None, addr, ServerConfig::default())
}

/// [`serve`] with explicit server-side knobs (I/O-thread and worker-lane
/// sizes, poller choice).
pub fn serve_with(
    manager: Box<dyn ResourceManager>,
    addr: &StageAddress,
    config: ServerConfig,
) -> Result<ServerHandle, AllocationError> {
    serve_inner(manager, None, addr, config)
}

/// Binds `addr` and serves a *federated* backend: the full client protocol
/// plus the inter-daemon [`ClientFrame::Delegate`] /
/// [`ClientFrame::SyncPools`] vocabulary peer daemons speak.  The backend
/// is shared — the caller keeps its `Arc` for inspection (an `Arc` of a
/// manager is itself a manager).
pub fn serve_federated(
    backend: Arc<crate::federation::FederatedBackend>,
    addr: &StageAddress,
) -> Result<ServerHandle, AllocationError> {
    serve_inner(
        Box::new(backend.clone()),
        Some(backend),
        addr,
        ServerConfig::default(),
    )
}

/// [`serve_federated`] with explicit server-side knobs.
pub fn serve_federated_with(
    backend: Arc<crate::federation::FederatedBackend>,
    addr: &StageAddress,
    config: ServerConfig,
) -> Result<ServerHandle, AllocationError> {
    serve_inner(Box::new(backend.clone()), Some(backend), addr, config)
}

#[cfg(not(unix))]
fn serve_inner(
    _manager: Box<dyn ResourceManager>,
    _federation: Option<Arc<crate::federation::FederatedBackend>>,
    addr: &StageAddress,
    _config: ServerConfig,
) -> Result<ServerHandle, AllocationError> {
    Err(AllocationError::Network(format!(
        "cannot serve {addr}: the ypd server needs a unix readiness poller \
         (epoll or poll(2)), which this platform lacks"
    )))
}

/// Binds the listener and hands it to the reactor: the first I/O thread
/// polls it as one more readiness source, and the same thread's timer
/// wheel drives the anti-entropy gossip tick and the peer health probe.
#[cfg(unix)]
fn serve_inner(
    manager: Box<dyn ResourceManager>,
    federation: Option<Arc<crate::federation::FederatedBackend>>,
    addr: &StageAddress,
    config: ServerConfig,
) -> Result<ServerHandle, AllocationError> {
    let listener = TcpListener::bind((addr.host.as_str(), addr.port))
        .map_err(|e| AllocationError::Network(format!("bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| AllocationError::Network(format!("local_addr: {e}")))?;
    let shared = Arc::new(ServerShared {
        manager,
        federation,
        draining: AtomicBool::new(false),
        reactor: Mutex::new(None),
        frames_batched: AtomicU64::new(0),
        writes_coalesced: AtomicU64::new(0),
    });
    let engine = ReactorEngine::start(&shared, &config, listener)
        .map_err(|e| AllocationError::Network(format!("reactor setup: {e}")))?;
    *shared.reactor.lock() = Some(engine);
    Ok(ServerHandle {
        addr: local,
        shared,
    })
}

// ---------------------------------------------------------------------------
// The reactor session engine
// ---------------------------------------------------------------------------
//
// A fixed pool of I/O threads drives every session's nonblocking socket
// through a `reactor::Poller`.  Each session is an explicit state machine
// (`ReactorSession`).  Steps that cannot park (a submit with a free window
// permit, a redeem whose outcome is in) are answered on the I/O thread,
// except on a federated daemon; backend calls that can block run on the
// three shared worker lanes (submit, redeem, teardown) and post their
// replies into the owning session's `OutQueue`, waking that session's I/O
// thread through its `IoNotify`.  A plain daemon's release is answered
// inline too: on the live backend it parks the I/O thread for one
// pool-manager job.

#[cfg(unix)]
mod engine {
    use super::*;
    use crate::reactor::{Event, Interest, Poller, TimerWheel, Waker, WorkerPool};
    use actyp_proto::{WireDecode, MAX_FRAME_LEN};
    use std::collections::HashSet;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;

    /// Poller token reserved for the I/O thread's waker pipe.
    const WAKE_TOKEN: u64 = u64::MAX;

    /// Poller token reserved for the daemon's listening socket (registered
    /// on the first I/O thread only).
    const LISTENER_TOKEN: u64 = u64::MAX - 1;

    /// Timer-wheel id of the periodic closing-session sweep.
    const SWEEP_TIMER: u64 = 1;

    /// Timer-wheel id of the periodic anti-entropy gossip tick (armed on
    /// the listener thread of a federated daemon only).
    const GOSSIP_TIMER: u64 = 2;

    /// Timer-wheel id of the periodic peer-link health probe (armed on
    /// the listener thread of a federated daemon only).  Probing off the
    /// timer wheel notices a dead peer between delegations, so the next
    /// chain never spends a candidate slot (and a reply timeout) on it.
    const PROBE_TIMER: u64 = 3;

    /// Upper bound on queued-but-unsent reply bytes before the session
    /// stops *reading*: a client that pipelines requests without draining
    /// replies is backpressured instead of ballooning the daemon's memory.
    const OUT_HIGH_WATER: usize = 1 << 20;

    /// How many bytes one readable event may pull off a single socket
    /// before yielding to the other sessions on the same I/O thread
    /// (level-triggered polling re-delivers the event if more is waiting).
    /// This caps bytes *per event*, never the session's total buffer — a
    /// frame larger than one burst (the protocol allows up to
    /// [`MAX_FRAME_LEN`]) accumulates across events and must always be
    /// able to complete.
    const READ_BURST: usize = 256 * 1024;

    /// How long a closing session may keep flushing queued replies to a
    /// client that is not reading them before the socket is cut anyway.
    /// Measured from the moment the teardown seals the write queue, so a
    /// well-behaved client always gets its drain; only a stalled one is
    /// dropped — without this, one such client would wedge the I/O
    /// thread's exit and [`ServerHandle::join`] forever.
    const CLOSE_FLUSH_GRACE: Duration = Duration::from_secs(5);

    /// How often the I/O thread sweeps its closing sessions for the
    /// [`CLOSE_FLUSH_GRACE`] deadline (a stalled client produces no
    /// events of its own to trigger the check).
    const CLOSING_SWEEP_INTERVAL: Duration = Duration::from_millis(250);

    /// A session buffer (read or write) whose capacity ballooned past this
    /// is shrunk back once it empties: `Vec::clear`/`drain` keep their
    /// peak allocation, and a long-lived idle session pinning megabytes
    /// from one historical burst works against the whole point of holding
    /// many idle sessions cheaply.
    const BUF_SHRINK_THRESHOLD: usize = 64 * 1024;

    /// Safety-net poll timeout: wakeups normally arrive via the waker, but
    /// the drain flag is also re-checked at least this often.
    const IO_POLL_INTERVAL: Duration = Duration::from_millis(500);

    /// Cross-thread doorbell for one I/O thread: worker lanes mark the
    /// sessions whose write queues they touched and ring the waker; the
    /// I/O thread drains the set and flushes exactly those sessions.
    pub(super) struct IoNotify {
        dirty: Mutex<HashSet<u64>>,
        waker: Waker,
    }

    impl IoNotify {
        fn new() -> std::io::Result<Self> {
            Ok(IoNotify {
                dirty: Mutex::new(HashSet::new()),
                waker: Waker::new()?,
            })
        }

        fn mark_dirty(&self, token: u64) {
            self.dirty.lock().insert(token);
            self.waker.wake();
        }

        fn take_dirty(&self) -> Vec<u64> {
            self.dirty.lock().drain().collect()
        }

        pub(super) fn wake(&self) {
            self.waker.wake();
        }
    }

    /// The write side of one reactor session: frames are encoded into this
    /// byte queue by whoever produces them (I/O thread, worker lane,
    /// teardown) and flushed by the owning I/O thread as the socket
    /// allows.
    pub(super) struct OutQueue {
        token: u64,
        notify: Arc<IoNotify>,
        buf: Mutex<OutBuf>,
    }

    #[derive(Default)]
    struct OutBuf {
        data: Vec<u8>,
        sent: usize,
        /// Frames currently queued (encoded into `data` and not yet fully
        /// flushed) — lets the flush tell a coalesced multi-frame write
        /// from a singleton.
        frames: usize,
        /// When the teardown sealed the queue (no more frames will ever
        /// be queued); also starts the [`CLOSE_FLUSH_GRACE`] clock.
        closed_at: Option<std::time::Instant>,
    }

    impl OutBuf {
        fn closed(&self) -> bool {
            self.closed_at.is_some()
        }

        /// Resets the queue after a complete flush, returning oversized
        /// capacity to the allocator.
        fn reset(&mut self) {
            self.data.clear();
            if self.data.capacity() > BUF_SHRINK_THRESHOLD {
                self.data.shrink_to(BUF_SHRINK_THRESHOLD);
            }
            self.sent = 0;
            self.frames = 0;
        }
    }

    impl OutQueue {
        /// Appends one frame (best effort: an unencodable frame is
        /// dropped, a closed queue swallows it) and rings the session's
        /// I/O thread.
        pub(super) fn push(&self, frame: &ServerFrame) {
            {
                let mut buf = self.buf.lock();
                if buf.closed() {
                    return;
                }
                // Writing into a Vec cannot fail; `write_frame` refuses an
                // over-limit frame before emitting any byte, so a failed
                // push leaves the queue intact.
                // lint-allow(lock-across-blocking): in-memory Vec sink, never blocks
                if write_frame(&mut buf.data, frame).is_ok() {
                    buf.frames += 1;
                }
            }
            self.notify.mark_dirty(self.token);
        }

        /// Marks the queue closed (no more frames will ever be queued) and
        /// rings the I/O thread so it can finish the drain-aware close.
        fn close(&self) {
            let mut buf = self.buf.lock();
            if buf.closed_at.is_none() {
                buf.closed_at = Some(std::time::Instant::now());
            }
            drop(buf);
            self.notify.mark_dirty(self.token);
        }

        fn pending_bytes(&self) -> usize {
            let buf = self.buf.lock();
            buf.data.len() - buf.sent
        }

        fn is_closed(&self) -> bool {
            self.buf.lock().closed()
        }

        /// Whether the queue was sealed longer than `grace` ago — the
        /// point past which a client that will not drain its replies is
        /// cut instead of holding the session (and the drain) open.
        fn sealed_longer_than(&self, grace: Duration) -> bool {
            matches!(self.buf.lock().closed_at, Some(at) if at.elapsed() > grace)
        }
    }

    /// The three worker lanes for blocking backend calls: submit, redeem
    /// and teardown.  They are separate pools because their blocking has
    /// different *causes*: submit-lane jobs (submits, batches, incoming
    /// delegations) can block on the live backend's admission window,
    /// whose permits only redemptions free — a single shared pool
    /// saturated with window-blocked submissions would starve the very
    /// waits that unblock it.
    /// Redeem-lane jobs (waits, federated polls and releases) resolve by
    /// pipeline progress or bounded peer I/O alone, never by the window;
    /// everything a client must complete in order to *return* capacity
    /// lives here, so the lane always drains.
    pub(super) struct Pools {
        pub(super) submit: WorkerPool,
        pub(super) redeem: WorkerPool,
        /// Session teardowns (settle abandoned tickets, sweep leases,
        /// seal the write queue).  A lane rather than a thread per
        /// closing session: a mass disconnect — or the drain itself —
        /// would otherwise spawn one thread per session in a burst,
        /// reintroducing thread-count-proportional-to-session-count at
        /// exactly the moment the daemon is busiest.  Teardown jobs never
        /// wait on each other (they wait on the submit/redeem lanes and
        /// on bounded backend deadlines), so the lane always drains.
        pub(super) teardown: WorkerPool,
    }

    /// Which lane a blocking request runs on.
    #[derive(Clone, Copy)]
    enum Lane {
        Submit,
        Redeem,
    }

    /// One I/O thread's handle: where accepted sockets are sent, and the
    /// doorbell that wakes the thread to collect them.
    pub(super) struct IoHandle {
        /// Held (not used) so the thread's socket channel stays connected
        /// even after the listener thread — which owns the dispatching
        /// clones — has exited during a drain.
        _tx: Sender<TcpStream>,
        pub(super) notify: Arc<IoNotify>,
        pub(super) thread: JoinHandle<()>,
    }

    /// The first I/O thread's extra duty: the daemon's listening socket,
    /// registered with that thread's poller as one more readiness source.
    /// Ready connections are accepted nonblockingly and dealt round robin
    /// to every I/O thread (itself included) over their socket channels,
    /// so no thread of the daemon sits blocked in `accept`.
    pub(super) struct ListenerRole {
        listener: TcpListener,
        targets: Vec<(Sender<TcpStream>, Arc<IoNotify>)>,
        next: usize,
    }

    /// The running reactor: I/O threads, worker lanes, teardown tracker.
    pub(super) struct ReactorEngine {
        pub(super) io: Vec<IoHandle>,
        pub(super) pools: Arc<Pools>,
    }

    impl ReactorEngine {
        /// Spawns the worker lanes and `config.io_threads` I/O threads,
        /// each with its own poller and waker.  The listener rides the
        /// first thread.
        pub(super) fn start(
            shared: &Arc<ServerShared>,
            config: &ServerConfig,
            listener: TcpListener,
        ) -> std::io::Result<ReactorEngine> {
            listener.set_nonblocking(true)?;
            let pools = Arc::new(Pools {
                submit: WorkerPool::new("ypd-submit", config.workers),
                redeem: WorkerPool::new("ypd-redeem", config.workers),
                teardown: WorkerPool::new("ypd-teardown", config.workers),
            });
            // Every thread's poller, doorbell and socket channel exist
            // before any thread starts: the listener thread needs the
            // full target list for round-robin dispatch.
            let mut parts = Vec::new();
            let created: std::io::Result<()> = (|| {
                for _ in 0..config.io_threads.max(1) {
                    let poller = config.poller.create()?;
                    let notify = Arc::new(IoNotify::new()?);
                    let (tx, rx) = unbounded::<TcpStream>();
                    parts.push((poller, notify, tx, rx));
                }
                Ok(())
            })();
            if let Err(e) = created {
                pools.submit.shutdown();
                pools.redeem.shutdown();
                pools.teardown.shutdown();
                return Err(e);
            }
            let targets: Vec<(Sender<TcpStream>, Arc<IoNotify>)> = parts
                .iter()
                .map(|(_, notify, tx, _)| (tx.clone(), notify.clone()))
                .collect();
            let mut listener = Some(listener);
            let mut io: Vec<IoHandle> = Vec::new();
            for (i, (poller, notify, tx, rx)) in parts.into_iter().enumerate() {
                let role = listener.take().map(|listener| ListenerRole {
                    listener,
                    targets: targets.clone(),
                    next: 0,
                });
                let spawned = std::thread::Builder::new()
                    .name(format!("ypd-io-{i}"))
                    .spawn({
                        let shared = shared.clone();
                        let pools = pools.clone();
                        let notify = notify.clone();
                        move || io_thread_main(shared, pools, rx, notify, poller, role)
                    });
                match spawned {
                    Ok(thread) => io.push(IoHandle {
                        _tx: tx,
                        notify,
                        thread,
                    }),
                    Err(e) => {
                        // Unwind the threads already spawned: flag the
                        // drain so they exit, then report the failure.
                        shared.draining.store(true, Ordering::SeqCst);
                        for handle in io {
                            handle.notify.wake();
                            let _ = handle.thread.join();
                        }
                        pools.submit.shutdown();
                        pools.redeem.shutdown();
                        pools.teardown.shutdown();
                        shared.draining.store(false, Ordering::SeqCst);
                        return Err(e);
                    }
                }
            }
            Ok(ReactorEngine { io, pools })
        }
    }

    /// Where one reactor session is in its life.
    enum Phase {
        /// Connected; the first frame must be a `Hello`.
        AwaitingHello,
        /// Handshake done; frames are parsed and dispatched.
        Serving,
        /// No more frames are read.  The session teardown is settling
        /// tickets on its own thread; the socket closes once the teardown
        /// marks the write queue closed and every queued byte is flushed
        /// (drain-aware close) — or immediately once the client is gone.
        Closing,
    }

    /// One connection, as the state machine its I/O thread drives.
    struct ReactorSession {
        stream: TcpStream,
        state: Arc<SessionState>,
        queue: Arc<OutQueue>,
        phase: Phase,
        /// Bytes received but not yet parsed into frames (partial frames
        /// accumulate here across readable events).
        read_buf: Vec<u8>,
        /// Interest currently registered with the poller.
        interest: Interest,
        /// The peer disconnected (EOF or transport error): close without
        /// waiting to flush.
        client_gone: bool,
    }

    impl ReactorSession {
        fn desired_interest(&self) -> Interest {
            let pending = self.queue.pending_bytes();
            match self.phase {
                // Keep reading while closing only to observe EOF promptly
                // (bytes are discarded); stop reading frames from a client
                // that is not draining its replies.
                Phase::Closing => Interest {
                    read: true,
                    write: pending > 0,
                },
                _ => Interest {
                    read: pending <= OUT_HIGH_WATER,
                    write: pending > 0,
                },
            }
        }

        /// The drain-aware close condition: the teardown has sealed the
        /// queue and everything queued has left — or the client vanished
        /// and there is nobody to flush to — or the client has refused to
        /// drain its replies for [`CLOSE_FLUSH_GRACE`] past the seal, in
        /// which case it is cut rather than allowed to wedge the drain.
        fn finished(&self) -> bool {
            matches!(self.phase, Phase::Closing)
                && (self.client_gone
                    || (self.queue.is_closed()
                        && (self.queue.pending_bytes() == 0
                            || self.queue.sealed_longer_than(CLOSE_FLUSH_GRACE))))
        }
    }

    fn would_block(e: &std::io::Error) -> bool {
        matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    }

    /// Decrements the owning session's lane counter when a job finishes —
    /// by panic as much as by return, so a panicking backend cannot wedge
    /// the session teardown that waits for the count to reach zero.  The
    /// decrement is a release: the I/O thread that reads a zero submit
    /// count (acquire) before an inline submit sees the job's ticket.
    struct JobGuard {
        state: Arc<SessionState>,
        lane: Lane,
    }

    impl Drop for JobGuard {
        fn drop(&mut self) {
            let counter = match self.lane {
                Lane::Submit => &self.state.submit_jobs,
                Lane::Redeem => &self.state.redeem_jobs,
            };
            counter.fetch_sub(1, Ordering::Release);
        }
    }

    /// The blocking jobs decoded from one readable event, collected per
    /// lane and dispatched with one [`WorkerPool::execute_batch`] each —
    /// one queue send and one worker wakeup for the whole batch instead
    /// of one per frame.  A batch stays on one worker in arrival order,
    /// which is exactly the per-session ordering the frames had anyway;
    /// different sessions' batches still spread across the lane's
    /// workers.
    #[derive(Default)]
    struct LaneBatch {
        submit: Vec<Box<dyn FnOnce() + Send>>,
        redeem: Vec<Box<dyn FnOnce() + Send>>,
    }

    impl LaneBatch {
        /// Hands each lane's collected jobs to its pool and counts the
        /// frames that actually rode a multi-frame batch.
        fn flush(self, shared: &ServerShared, pools: &Pools) {
            for (jobs, pool) in [(self.submit, &pools.submit), (self.redeem, &pools.redeem)] {
                if jobs.len() > 1 {
                    shared
                        .frames_batched
                        .fetch_add(jobs.len() as u64, Ordering::Relaxed);
                }
                pool.execute_batch(jobs);
            }
        }
    }

    /// Queues one blocking request on a worker lane's batch, bounded per
    /// session: past [`MAX_SESSION_WORKERS`] in flight on the lane, the
    /// request is answered with an overload error instead, so one
    /// connection cannot flood the shared queues.  The per-session counter
    /// is claimed here, at decode time, so the cap holds even while the
    /// batch is still being collected.
    fn spawn_job(
        batch: &mut LaneBatch,
        lane: Lane,
        state: &Arc<SessionState>,
        corr: RequestId,
        job: impl FnOnce() + Send + 'static,
    ) {
        let counter = match lane {
            Lane::Submit => &state.submit_jobs,
            Lane::Redeem => &state.redeem_jobs,
        };
        if counter.load(Ordering::Relaxed) >= MAX_SESSION_WORKERS {
            state.send(&session_overloaded(corr));
            return;
        }
        counter.fetch_add(1, Ordering::Relaxed);
        let guard = JobGuard {
            state: state.clone(),
            lane,
        };
        let jobs = match lane {
            Lane::Submit => &mut batch.submit,
            Lane::Redeem => &mut batch.redeem,
        };
        jobs.push(Box::new(move || {
            let _guard = guard;
            job();
        }));
    }

    /// One I/O thread: polls its sessions' sockets (plus, on the first
    /// thread, the daemon's listener), parses frames, dispatches work,
    /// flushes write queues, fires its timers, and retires sessions.
    fn io_thread_main(
        shared: Arc<ServerShared>,
        pools: Arc<Pools>,
        incoming: Receiver<TcpStream>,
        notify: Arc<IoNotify>,
        mut poller: Box<dyn Poller>,
        mut role: Option<ListenerRole>,
    ) {
        // If waker registration fails the thread still functions — the
        // poll interval bounds how stale a wakeup can go.
        let _ = poller.register(notify.waker.read_fd(), WAKE_TOKEN, Interest::READ);
        if let Some(role) = &role {
            let _ = poller.register(role.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ);
        }
        let mut wheel = TimerWheel::new();
        wheel.add_periodic(SWEEP_TIMER, CLOSING_SWEEP_INTERVAL);
        // The anti-entropy gossip tick is armed on the listener thread
        // only (exactly one per daemon).  The tick itself runs on the
        // redeem lane — a peer exchange is bounded peer I/O, never
        // admission-window blocking — guarded so a round slower than the
        // interval is skipped, not stacked.
        let gossip_running = Arc::new(AtomicBool::new(false));
        // The health probe follows the same discipline on its own timer:
        // listener thread only, runs on the redeem lane, skipped (not
        // stacked) when a round outlasts its interval.
        let probe_running = Arc::new(AtomicBool::new(false));
        if role.is_some() {
            if let Some(federation) = &shared.federation {
                let interval = federation.gossip_interval();
                if interval > Duration::ZERO {
                    wheel.add_periodic(GOSSIP_TIMER, interval);
                }
                let probe = federation.probe_interval();
                if probe > Duration::ZERO {
                    wheel.add_periodic(PROBE_TIMER, probe);
                }
            }
        }
        let mut sessions: HashMap<u64, ReactorSession> = HashMap::new();
        let mut next_token: u64 = 0;
        let mut events: Vec<Event> = Vec::new();
        let mut touched: Vec<u64> = Vec::new();
        loop {
            if shared.draining.load(Ordering::SeqCst) && sessions.is_empty() {
                break;
            }
            let timeout = wheel.poll_timeout(IO_POLL_INTERVAL);
            if poller.poll(&mut events, Some(timeout)).is_err() {
                // A failing poller must not hot-loop the thread.
                std::thread::sleep(Duration::from_millis(5));
            }
            notify.waker.drain();
            touched.clear();

            // New connections dealt over from the listener thread
            // (refused once a drain began — the dispatch race can hand
            // over a late socket).
            while let Ok(stream) = incoming.try_recv() {
                if shared.draining.load(Ordering::SeqCst) {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    continue;
                }
                if let Some(token) = add_session(
                    &mut *poller,
                    &mut sessions,
                    &mut next_token,
                    &notify,
                    stream,
                ) {
                    touched.push(token);
                }
            }

            // Socket readiness.
            for event in events.iter().copied() {
                if event.token == WAKE_TOKEN {
                    continue;
                }
                if event.token == LISTENER_TOKEN {
                    if let Some(role) = role.as_mut() {
                        accept_ready(&shared, role);
                    }
                    continue;
                }
                let Some(session) = sessions.get_mut(&event.token) else {
                    continue;
                };
                if event.readable || event.closed {
                    handle_readable(&shared, &pools, session);
                }
                if (event.writable || event.closed) && !flush_session(&shared, session) {
                    session.client_gone = true;
                    begin_close(&shared, &pools, session);
                }
                touched.push(event.token);
            }

            // Write queues touched by worker lanes / teardowns.
            for token in notify.take_dirty() {
                if let Some(session) = sessions.get_mut(&token) {
                    if !flush_session(&shared, session) {
                        session.client_gone = true;
                        begin_close(&shared, &pools, session);
                    }
                    touched.push(token);
                }
            }

            // Timers.  The closing sweep touches sessions whose stalled
            // clients produce no events of their own, so the
            // CLOSE_FLUSH_GRACE deadline is actually observed; the gossip
            // timer queues one anti-entropy round.
            for timer in wheel.expired(std::time::Instant::now()) {
                match timer {
                    SWEEP_TIMER => {
                        for (token, session) in sessions.iter() {
                            if matches!(session.phase, Phase::Closing) {
                                touched.push(*token);
                            }
                        }
                    }
                    GOSSIP_TIMER => {
                        if shared.draining.load(Ordering::SeqCst) {
                            continue;
                        }
                        if let Some(federation) = &shared.federation {
                            if !gossip_running.swap(true, Ordering::SeqCst) {
                                let federation = federation.clone();
                                let guard = gossip_running.clone();
                                pools.redeem.execute(move || {
                                    federation.gossip_tick();
                                    guard.store(false, Ordering::SeqCst);
                                });
                            }
                        }
                    }
                    PROBE_TIMER => {
                        if shared.draining.load(Ordering::SeqCst) {
                            continue;
                        }
                        if let Some(federation) = &shared.federation {
                            if !probe_running.swap(true, Ordering::SeqCst) {
                                let federation = federation.clone();
                                let guard = probe_running.clone();
                                pools.redeem.execute(move || {
                                    federation.probe_peers();
                                    guard.store(false, Ordering::SeqCst);
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }

            // A drain closes every session still open (their teardowns
            // settle whatever the vanished or idle clients left behind).
            if shared.draining.load(Ordering::SeqCst) {
                for (token, session) in sessions.iter_mut() {
                    begin_close(&shared, &pools, session);
                    touched.push(*token);
                }
            }

            // Re-parse, retire, and re-register everything touched.
            touched.sort_unstable();
            touched.dedup();
            for token in touched.iter().copied() {
                refresh_session(&shared, &pools, &mut *poller, &mut sessions, token);
            }
        }
    }

    /// Drains every connection the listener has ready: during a drain
    /// each is refused outright; otherwise it is dealt to the next I/O
    /// thread round robin and that thread's doorbell rung.
    fn accept_ready(shared: &Arc<ServerShared>, role: &mut ListenerRole) {
        loop {
            match role.listener.accept() {
                Ok((stream, _)) => {
                    if shared.draining.load(Ordering::SeqCst) {
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        continue;
                    }
                    let (tx, notify) = &role.targets[role.next % role.targets.len()];
                    role.next = role.next.wrapping_add(1);
                    if tx.send(stream).is_ok() {
                        notify.wake();
                    }
                }
                Err(e) if would_block(&e) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Registers a fresh connection as a session in the hello phase.
    fn add_session(
        poller: &mut dyn Poller,
        sessions: &mut HashMap<u64, ReactorSession>,
        next_token: &mut u64,
        notify: &Arc<IoNotify>,
        stream: TcpStream,
    ) -> Option<u64> {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return None;
        }
        let token = *next_token;
        *next_token += 1;
        let queue = Arc::new(OutQueue {
            token,
            notify: notify.clone(),
            buf: Mutex::new(OutBuf::default()),
        });
        if poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return None;
        }
        let state = SessionState::new(queue.clone());
        sessions.insert(
            token,
            ReactorSession {
                stream,
                state,
                queue,
                phase: Phase::AwaitingHello,
                read_buf: Vec::new(),
                interest: Interest::READ,
                client_gone: false,
            },
        );
        Some(token)
    }

    /// Pulls available bytes (one bounded burst), parses complete frames,
    /// dispatches them, and begins the close on EOF — after parsing, so a
    /// client that submits and immediately hangs up still gets its work
    /// settled rather than dropped.
    fn handle_readable(
        shared: &Arc<ServerShared>,
        pools: &Arc<Pools>,
        session: &mut ReactorSession,
    ) {
        let mut chunk = [0u8; 16 * 1024];
        if matches!(session.phase, Phase::Closing) {
            // Discard whatever the client still sends; observe its EOF.
            // Bounded per event like the serving path: a client that
            // blasts bytes after close must not monopolize the I/O
            // thread for the other sessions' sake.
            let mut taken = 0usize;
            while taken < READ_BURST {
                match session.stream.read(&mut chunk) {
                    Ok(0) => {
                        session.client_gone = true;
                        break;
                    }
                    Ok(n) => taken += n,
                    Err(e) if would_block(&e) => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        session.client_gone = true;
                        break;
                    }
                }
            }
            return;
        }
        let mut eof = false;
        let mut taken = 0usize;
        while taken < READ_BURST {
            match session.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    taken += n;
                    session.read_buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if would_block(&e) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        parse_and_dispatch(shared, pools, session);
        if eof {
            session.client_gone = true;
            begin_close(shared, pools, session);
        }
    }

    /// Parses every complete frame buffered for the session and
    /// dispatches it, stopping early when the write queue crosses the
    /// high-water mark (the leftovers stay buffered and are re-parsed
    /// once the queue drains).  Garbage — an over-limit length prefix or
    /// an undecodable body — ends the session, settled like any other.
    ///
    /// Blocking frames are *collected* across the whole parse loop and
    /// handed to the worker lanes as one batch per lane at the end — one
    /// queue send and one wakeup per readable event, however many frames
    /// the client pipelined into it.
    fn parse_and_dispatch(
        shared: &Arc<ServerShared>,
        pools: &Arc<Pools>,
        session: &mut ReactorSession,
    ) {
        let mut batch = LaneBatch::default();
        let mut pos = 0usize;
        loop {
            if matches!(session.phase, Phase::Closing) {
                break;
            }
            let available = &session.read_buf[pos..];
            if available.len() < 4 {
                break;
            }
            let declared =
                u32::from_be_bytes([available[0], available[1], available[2], available[3]])
                    as usize;
            if declared > MAX_FRAME_LEN {
                begin_close(shared, pools, session);
                break;
            }
            let Some(body) = available.get(4..4 + declared) else {
                break;
            };
            match ClientFrame::from_wire_bytes(body) {
                Ok(frame) => {
                    pos += 4 + declared;
                    dispatch_frame(shared, pools, session, &mut batch, frame);
                }
                Err(_) => {
                    begin_close(shared, pools, session);
                    break;
                }
            }
            if session.queue.pending_bytes() > OUT_HIGH_WATER {
                break;
            }
        }
        // Jobs collected before a mid-loop close still run — their
        // per-session counters are already claimed and the teardown's
        // settle loop waits for them.
        batch.flush(shared, pools);
        if matches!(session.phase, Phase::Closing) {
            // Nothing buffered will ever be parsed now (and a mid-loop
            // close may have replaced the buffer already): drop it whole
            // instead of draining against a stale offset.
            session.read_buf = Vec::new();
        } else if pos > 0 {
            session.read_buf.drain(..pos);
            if session.read_buf.is_empty() && session.read_buf.capacity() > BUF_SHRINK_THRESHOLD {
                session.read_buf.shrink_to(BUF_SHRINK_THRESHOLD);
            }
        }
    }

    /// Answers one decoded frame: inline when it cannot block, otherwise
    /// as a job queued on a worker lane's batch.
    fn dispatch_frame(
        shared: &Arc<ServerShared>,
        pools: &Arc<Pools>,
        session: &mut ReactorSession,
        batch: &mut LaneBatch,
        frame: ClientFrame,
    ) {
        let state = session.state.clone();
        if matches!(session.phase, Phase::AwaitingHello) {
            match frame {
                ClientFrame::Hello {
                    min_version,
                    max_version,
                } => match negotiate(min_version, max_version) {
                    Some(version) => {
                        state.send(&ServerFrame::HelloAck { version });
                        session.phase = Phase::Serving;
                    }
                    None => {
                        state.send(&ServerFrame::HelloReject {
                            message: format!(
                                "no common protocol version: client speaks \
                                 {min_version}..={max_version}, server speaks \
                                 {MIN_SUPPORTED_VERSION}..={PROTOCOL_VERSION}"
                            ),
                        });
                        begin_close(shared, pools, session);
                    }
                },
                _ => {
                    state.send(&ServerFrame::HelloReject {
                        message: "the first frame must be Hello".to_string(),
                    });
                    begin_close(shared, pools, session);
                }
            }
            return;
        }
        match frame {
            ClientFrame::Hello { .. } => {
                state.send(&ServerFrame::HelloReject {
                    message: "duplicate Hello".to_string(),
                });
                begin_close(shared, pools, session);
            }
            ClientFrame::Submit { corr, query } => {
                let shared = shared.clone();
                let job_state = state.clone();
                // A plain daemon launches on the I/O thread while the
                // window has a free permit, but only with no submit-lane
                // job in flight for the session, so its wire tickets stay
                // issued in frame order (the load pairs with `JobGuard`).
                if shared.federation.is_some() || state.submit_jobs.load(Ordering::Acquire) > 0 {
                    spawn_job(batch, Lane::Submit, &state, corr, move || {
                        job_state.answer_submit(corr, shared.manager.submit_text(&query))
                    });
                    return;
                }
                let query = match actyp_query::parse_query(&query) {
                    Ok(query) => query,
                    Err(e) => {
                        let error = AllocationError::Parse(e.to_string());
                        state.send(&ServerFrame::Error { corr, error });
                        return;
                    }
                };
                match shared.manager.try_submit(query) {
                    Ok(ticket) => state.answer_submit(corr, Ok(ticket)),
                    Err(TrySubmitError::Failed(error)) => state.answer_submit(corr, Err(error)),
                    Err(TrySubmitError::WouldBlock(query)) => {
                        spawn_job(batch, Lane::Submit, &state, corr, move || {
                            job_state.answer_submit(corr, shared.manager.submit(query))
                        });
                    }
                }
            }
            ClientFrame::SubmitBatch { corr, queries } => {
                let shared = shared.clone();
                let job_state = state.clone();
                spawn_job(batch, Lane::Submit, &state, corr, move || {
                    handle_submit_batch(&shared, &job_state, corr, &queries)
                });
            }
            ClientFrame::Wait {
                corr,
                ticket,
                deadline_ms,
            } => {
                // Unknown ids are answered inline — no job for a frame
                // that cannot block; the worker's own atomic claim still
                // decides races.
                let Some(backend_ticket) = state.known_ticket(corr, ticket) else {
                    return;
                };
                // A plain daemon redeems a finished outcome inline, as a
                // Poll would; only a pending one needs a worker to wait.
                if shared.federation.is_none()
                    && state.redeem_ready(&*shared.manager, corr, ticket, backend_ticket)
                {
                    return;
                }
                let shared = shared.clone();
                let job_state = state.clone();
                spawn_job(batch, Lane::Redeem, &state, corr, move || {
                    handle_wait(&shared, &job_state, corr, ticket, deadline_ms)
                });
            }
            ClientFrame::Poll { corr, ticket } => {
                let Some(backend_ticket) = state.known_ticket(corr, ticket) else {
                    return;
                };
                let poll = {
                    let shared = shared.clone();
                    let state = state.clone();
                    move || {
                        if !state.redeem_ready(&*shared.manager, corr, ticket, backend_ticket) {
                            state.send(&ServerFrame::Pending { corr });
                        }
                    }
                };
                // On a federated daemon a poll can block on peer I/O, so
                // it runs on the redeem lane; in-process backends answer
                // inline on the I/O thread.
                if shared.federation.is_some() {
                    spawn_job(batch, Lane::Redeem, &state, corr, poll);
                } else {
                    poll();
                }
            }
            ClientFrame::Release { corr, allocation } => {
                let release = {
                    let shared = shared.clone();
                    let state = state.clone();
                    move || match shared.manager.release(&allocation) {
                        Ok(()) => {
                            state.leases.lock().remove(&allocation.access_key.0);
                            state.send(&ServerFrame::Released { corr });
                        }
                        Err(error) => state.send(&ServerFrame::Error { corr, error }),
                    }
                };
                // Releasing a delegated allocation crosses the wire to
                // the owning domain: a worker keeps the I/O thread
                // responsive.  It rides the REDEEM lane, not the submit
                // lane: clients interleave releases with the very waits
                // that free admission-window permits, so a release queued
                // behind window-blocked submit jobs would deadlock the
                // whole daemon (client stuck awaiting the release reply →
                // no further waits → no permits freed → submits blocked
                // forever).  A release never blocks on the window itself —
                // only on bounded peer I/O — so it is safe on this lane.
                // Inline otherwise, although on the live backend this parks
                // the I/O thread until the pool-manager stage answers: one
                // release job, never the window.
                if shared.federation.is_some() {
                    spawn_job(batch, Lane::Redeem, &state, corr, release);
                } else {
                    release();
                }
            }
            ClientFrame::Stats { corr } => {
                // The backend fills its own counters; the transport
                // batching counters belong to the daemon and are
                // overlaid here.
                let mut stats = shared.manager.stats();
                stats.frames_batched = shared.frames_batched.load(Ordering::Relaxed);
                stats.writes_coalesced = shared.writes_coalesced.load(Ordering::Relaxed);
                state.send(&ServerFrame::StatsReply { corr, stats });
            }
            ClientFrame::Shutdown { corr } => {
                state.send(&ServerFrame::Ack { corr });
                begin_close(shared, pools, session);
            }
            ClientFrame::Halt { corr } => {
                state.send(&ServerFrame::Ack { corr });
                shared.begin_drain();
                begin_close(shared, pools, session);
            }
            ClientFrame::Delegate {
                corr,
                query,
                ttl,
                visited,
            } => {
                let Some(federation) = shared.federation.clone() else {
                    state.send(&ServerFrame::Error {
                        corr,
                        error: AllocationError::Protocol(
                            "this daemon is not federated (no --domain/--peer)".to_string(),
                        ),
                    });
                    return;
                };
                let job_state = state.clone();
                spawn_job(batch, Lane::Submit, &state, corr, move || {
                    let (outcome, routing) = federation.handle_delegate(&query, ttl, visited);
                    // Piggyback whatever gossip the delegating peer has
                    // not acknowledged yet on the reply it is already
                    // waiting for — a free anti-entropy round.
                    let deltas = match job_state.peer_domain.lock().clone() {
                        Some(peer) => federation.piggyback_deltas(&peer),
                        None => Vec::new(),
                    };
                    job_state.deliver_delegated(corr, outcome, routing, deltas);
                });
            }
            ClientFrame::SyncPools {
                corr,
                domain,
                pools: advertised,
                have,
            } => match &shared.federation {
                None => state.send(&ServerFrame::Error {
                    corr,
                    error: AllocationError::Protocol(
                        "this daemon is not federated (no --domain/--peer)".to_string(),
                    ),
                }),
                Some(federation) => {
                    note_peer_session_domain(shared, &state, &domain);
                    federation.record_inbound_advertisement(&domain, &advertised);
                    federation.gossip().note_peer_versions(&domain, &have);
                    federation.refresh_gossip();
                    let deltas = federation.gossip().deltas_since(&have);
                    state.send(&ServerFrame::PoolsSynced {
                        corr,
                        domain: federation.domain().to_string(),
                        pools: federation.local_pools(),
                        deltas,
                    });
                }
            },
            ClientFrame::AdvertDelta {
                corr,
                domain,
                deltas,
                have,
            } => match &shared.federation {
                None => state.send(&ServerFrame::Error {
                    corr,
                    error: AllocationError::Protocol(
                        "this daemon is not federated (no --domain/--peer)".to_string(),
                    ),
                }),
                Some(federation) => {
                    // Inline: applying deltas is pure in-memory state.
                    note_peer_session_domain(shared, &state, &domain);
                    let reply = federation.handle_advert_delta(&domain, &deltas, &have);
                    state.send(&ServerFrame::AdvertAck {
                        corr,
                        domain: federation.domain().to_string(),
                        deltas: reply,
                    });
                }
            },
        }
    }

    /// Transitions the session into [`Phase::Closing`] (idempotent) and
    /// spawns its teardown: the settle loop must not run on the I/O
    /// thread, because it blocks on backend outcomes.
    fn begin_close(shared: &Arc<ServerShared>, pools: &Arc<Pools>, session: &mut ReactorSession) {
        if matches!(session.phase, Phase::Closing) {
            return;
        }
        session.phase = Phase::Closing;
        let shared = shared.clone();
        let state = session.state.clone();
        let queue = session.queue.clone();
        pools
            .teardown
            .execute(move || teardown_session(&shared, &state, &queue));
    }

    /// The session teardown, an interleaved settle-and-wait over the lane
    /// job counters: settle (freeing window permits a
    /// blocked submit job may be waiting on), wait for the jobs to finish
    /// (they may issue new tickets), repeat, then sweep the leases.  Seals
    /// the write queue at the end so the I/O thread can complete the
    /// drain-aware close.
    fn teardown_session(
        shared: &Arc<ServerShared>,
        state: &Arc<SessionState>,
        queue: &Arc<OutQueue>,
    ) {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            settle_abandoned_tickets(shared, state, deadline);
            if state.jobs_in_flight() == 0 {
                break;
            }
            if std::time::Instant::now() >= deadline {
                // Leave the stragglers to the worker lanes.  Settlement is
                // best-effort past this point.
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        settle_abandoned_tickets(
            shared,
            state,
            std::time::Instant::now() + Duration::from_secs(5),
        );
        let leaked: Vec<Allocation> = state.leases.lock().drain().map(|(_, a)| a).collect();
        for allocation in &leaked {
            let _ = shared.manager.release(allocation);
        }
        queue.close();
    }

    /// Flushes as much of the session's write queue as the socket takes.
    /// Returns `false` when the transport is dead.
    fn flush_session(shared: &Arc<ServerShared>, session: &mut ReactorSession) -> bool {
        loop {
            let mut buf = session.queue.buf.lock();
            if buf.sent >= buf.data.len() {
                buf.reset();
                return true;
            }
            match session.stream.write(&buf.data[buf.sent..]) {
                Ok(0) => return false,
                Ok(n) => {
                    buf.sent += n;
                    if buf.sent >= buf.data.len() {
                        // One socket write just drained everything queued;
                        // if that was several frames, the flush coalesced
                        // them into a single write.
                        if buf.frames > 1 {
                            shared.writes_coalesced.fetch_add(1, Ordering::Relaxed);
                        }
                        buf.reset();
                        return true;
                    }
                }
                Err(e) if would_block(&e) => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Post-pass for a touched session: re-parse frames a drained write
    /// queue unblocked, retire the session when its close completed, and
    /// re-register interest when it changed.
    fn refresh_session(
        shared: &Arc<ServerShared>,
        pools: &Arc<Pools>,
        poller: &mut dyn Poller,
        sessions: &mut HashMap<u64, ReactorSession>,
        token: u64,
    ) {
        let Some(session) = sessions.get_mut(&token) else {
            return;
        };
        if !matches!(session.phase, Phase::Closing)
            && !session.read_buf.is_empty()
            && session.queue.pending_bytes() <= OUT_HIGH_WATER
        {
            parse_and_dispatch(shared, pools, session);
        }
        if session.finished() {
            let session = sessions.remove(&token).expect("session just seen");
            let _ = poller.deregister(session.stream.as_raw_fd());
            let _ = session.stream.shutdown(std::net::Shutdown::Both);
            return;
        }
        let wanted = session.desired_interest();
        if wanted != session.interest
            && poller
                .reregister(session.stream.as_raw_fd(), token, wanted)
                .is_ok()
        {
            session.interest = wanted;
        }
    }
}

#[cfg(unix)]
use engine::{OutQueue, ReactorEngine};

/// Per-connection session state: the session's write queue, the
/// session-scoped ticket table mapping wire ticket ids to backend tickets,
/// and the allocation leases the session currently holds.
#[cfg(unix)]
struct SessionState {
    queue: Arc<OutQueue>,
    tickets: Mutex<HashMap<u64, Ticket>>,
    /// Allocations delivered to this client and not yet released, keyed by
    /// access key.  Allocations are *session leases*: whatever is still
    /// here when the session ends is handed back, so a client that
    /// crashes (even one whose Outcome reply raced its disconnect) cannot
    /// strand a machine claim.
    leases: Mutex<HashMap<String, Allocation>>,
    next_ticket: AtomicU64,
    /// Blocking requests in flight on the submit lane, bounded by
    /// [`MAX_SESSION_WORKERS`] and awaited by the teardown.
    submit_jobs: AtomicUsize,
    /// Blocking requests in flight on the redeem lane.
    redeem_jobs: AtomicUsize,
    /// The federation domain the peer on this session advertised (via
    /// `SyncPools` or `AdvertDelta`); `None` on ordinary client sessions.
    /// Keyed per session so gossip piggybacking knows who it is talking
    /// to, and so a re-advertisement under a *different* name retires the
    /// old domain.
    peer_domain: Mutex<Option<String>>,
}

#[cfg(unix)]
impl SessionState {
    fn new(queue: Arc<OutQueue>) -> Arc<Self> {
        Arc::new(SessionState {
            queue,
            tickets: Mutex::new(HashMap::new()),
            leases: Mutex::new(HashMap::new()),
            next_ticket: AtomicU64::new(0),
            submit_jobs: AtomicUsize::new(0),
            redeem_jobs: AtomicUsize::new(0),
            peer_domain: Mutex::new(None),
        })
    }

    /// Best-effort reply; a vanished client is detected by the read side.
    fn send(&self, frame: &ServerFrame) {
        self.queue.push(frame);
    }

    /// Blocking requests this session still has in flight on the worker
    /// lanes.
    fn jobs_in_flight(&self) -> usize {
        self.submit_jobs.load(Ordering::Relaxed) + self.redeem_jobs.load(Ordering::Relaxed)
    }

    fn issue(&self, ticket: Ticket) -> u64 {
        let wire_id = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.tickets.lock().insert(wire_id, ticket);
        wire_id
    }

    /// Answers a submission: issues a wire ticket id, or relays the error.
    fn answer_submit(&self, corr: RequestId, submitted: Result<Ticket, AllocationError>) {
        match submitted {
            Ok(ticket) => {
                let wire_id = self.issue(ticket);
                self.send(&ServerFrame::Submitted {
                    corr,
                    ticket: wire_id,
                });
            }
            Err(error) => self.send(&ServerFrame::Error { corr, error }),
        }
    }

    /// The backend ticket behind a wire id, left in the table; an unknown
    /// id is answered here.
    fn known_ticket(&self, corr: RequestId, wire_id: u64) -> Option<Ticket> {
        // Looked up in its own statement: a scrutinee's temporary guard
        // would hold the ticket table across the reply send.
        let looked_up = self.tickets.lock().get(&wire_id).copied();
        if looked_up.is_none() {
            self.send(&ServerFrame::Error {
                corr,
                error: AllocationError::UnknownTicket,
            });
        }
        looked_up
    }

    /// Redeems `ticket` (wire id `wire_id`) if its outcome is already in,
    /// without waiting for the query: delivers the outcome and returns
    /// `true`, or returns `false` while the query is still in flight.
    fn redeem_ready(
        &self,
        manager: &dyn ResourceManager,
        corr: RequestId,
        wire_id: u64,
        ticket: Ticket,
    ) -> bool {
        let Some(outcome) = manager.try_poll(ticket) else {
            return false;
        };
        self.tickets.lock().remove(&wire_id);
        self.deliver_outcome(corr, outcome);
        true
    }

    /// Leases an outcome's allocations to this session.  Called *before*
    /// the reply leaves, so there is no window in which an allocation
    /// belongs to nobody.
    fn lease(&self, outcome: &QueryOutcome) {
        if let Ok(allocations) = outcome {
            let mut leases = self.leases.lock();
            for allocation in allocations {
                leases.insert(allocation.access_key.0.clone(), allocation.clone());
            }
        }
    }

    /// Leases a redeemed outcome, then delivers it.
    fn deliver_outcome(&self, corr: RequestId, outcome: QueryOutcome) {
        self.lease(&outcome);
        self.send(&ServerFrame::Outcome { corr, outcome });
    }

    /// Leases a delegated outcome — to the *peer daemon's* session, so a
    /// peer that vanishes holding it strands nothing here — then delivers
    /// it.
    fn deliver_delegated(
        &self,
        corr: RequestId,
        outcome: QueryOutcome,
        state: crate::message::RoutingState,
        deltas: Vec<actyp_proto::AdvertDelta>,
    ) {
        self.lease(&outcome);
        self.send(&ServerFrame::Delegated {
            corr,
            outcome,
            ttl: state.ttl,
            visited: state.visited,
            deltas,
        });
    }
}

/// Records which federation domain the peer on this session speaks for.
/// A session that re-advertises under a *new* name is a daemon restarted
/// into a different identity on a still-open connection: everything held
/// under the old domain — directory records, gossip origin log, learned
/// routes — is retired atomically, instead of lingering as a routable
/// ghost beside the new name.
#[cfg(unix)]
fn note_peer_session_domain(shared: &ServerShared, state: &SessionState, domain: &str) {
    let previous = state.peer_domain.lock().replace(domain.to_string());
    if let Some(previous) = previous {
        if previous != domain {
            if let Some(federation) = &shared.federation {
                federation.retire_domain(&previous);
            }
        }
    }
}

/// Overload reply for a session that exceeded a blocking-worker cap.
#[cfg(unix)]
fn session_overloaded(corr: RequestId) -> ServerFrame {
    ServerFrame::Error {
        corr,
        error: AllocationError::Internal(format!(
            "session has {MAX_SESSION_WORKERS} blocking requests of this kind in \
             flight; await replies before sending more"
        )),
    }
}

/// Settles every ticket currently abandoned in the session table: awaits
/// the outcomes (bounded by `deadline`, so a wedged backend cannot hold
/// the teardown hostage) and hands the allocations straight back, so
/// no machine claim (or live-backend window permit) leaks past the session.
/// A ticket whose wait times out goes *back* into the table — still
/// redeemable inside the backend — so a later settling round can retry it
/// instead of dropping the claim on the floor.
///
/// On a federated daemon the settle is *local only*: the client these
/// tickets belonged to is gone, so a delegable local failure is simply
/// accepted instead of being shipped across the WAN to peers — nobody is
/// left to use an allocation a peer would make, and the delegation (plus
/// its hop-by-hop release) would be pure churn.
#[cfg(unix)]
fn settle_abandoned_tickets(
    shared: &ServerShared,
    state: &SessionState,
    deadline: std::time::Instant,
) {
    let abandoned: Vec<(u64, Ticket)> = state.tickets.lock().drain().collect();
    for (wire_id, ticket) in abandoned {
        let budget = deadline.saturating_duration_since(std::time::Instant::now());
        let waited = match &shared.federation {
            Some(federation) => federation.wait_deadline_local(ticket, budget),
            None => shared.manager.wait_deadline(ticket, budget),
        };
        match waited {
            Some(Ok(allocations)) => {
                for allocation in &allocations {
                    let _ = shared.manager.release(allocation);
                }
            }
            Some(Err(_)) => {}
            None => {
                state.tickets.lock().insert(wire_id, ticket);
            }
        }
    }
}

#[cfg(unix)]
fn handle_submit_batch(
    shared: &ServerShared,
    state: &SessionState,
    corr: RequestId,
    queries: &[String],
) {
    let mut parsed = Vec::with_capacity(queries.len());
    for query in queries {
        match actyp_query::parse_query(query) {
            Ok(q) => parsed.push(q),
            Err(e) => {
                state.send(&ServerFrame::Error {
                    corr,
                    error: AllocationError::Parse(e.to_string()),
                });
                return;
            }
        }
    }
    match shared.manager.submit_batch(parsed) {
        Ok(tickets) => {
            let wire_ids = tickets.into_iter().map(|t| state.issue(t)).collect();
            state.send(&ServerFrame::BatchSubmitted {
                corr,
                tickets: wire_ids,
            });
        }
        Err(error) => state.send(&ServerFrame::Error { corr, error }),
    }
}

#[cfg(unix)]
fn handle_wait(
    shared: &ServerShared,
    state: &SessionState,
    corr: RequestId,
    ticket: u64,
    deadline_ms: Option<u64>,
) {
    // Claimed in its own statement so the table guard drops before the
    // error reply — a `match` scrutinee temporary lives through the arms.
    let claimed = state.tickets.lock().remove(&ticket);
    let backend_ticket = match claimed {
        Some(t) => t,
        None => {
            state.send(&ServerFrame::Error {
                corr,
                error: AllocationError::UnknownTicket,
            });
            return;
        }
    };
    match deadline_ms {
        None => {
            let outcome = shared.manager.wait(backend_ticket);
            state.deliver_outcome(corr, outcome);
        }
        Some(ms) => match shared
            .manager
            .wait_deadline(backend_ticket, Duration::from_millis(ms))
        {
            Some(outcome) => state.deliver_outcome(corr, outcome),
            None => {
                // The deadline elapsed; the ticket stays redeemable.
                state.tickets.lock().insert(ticket, backend_ticket);
                state.send(&ServerFrame::TimedOut { corr });
            }
        },
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// The [`ResourceManager`] surface served by a remote `ypd` daemon over one
/// TCP connection.
///
/// All trait methods are safe to call from many threads at once; requests
/// are correlated by [`RequestId`], so several tickets can be in flight on
/// the single socket — the paper's pipelining across a network hop.
/// Tickets are branded per connection: redeeming a remote ticket on a
/// different backend (or vice versa) fails with
/// [`AllocationError::UnknownTicket`].
///
/// [`RemoteBackend::stats`] degrades to an empty snapshot if the
/// connection has died (the trait method is infallible); every other
/// operation reports [`AllocationError::Network`] /
/// [`AllocationError::Protocol`] faithfully.
pub struct RemoteBackend {
    conn: Arc<CorrConn>,
    brand: u64,
}

/// How long a client connect may wait for the daemon's Hello reply, and
/// how long one frame write may stall on a daemon that stopped reading
/// before the connection is declared dead.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(60);

impl RemoteBackend {
    /// Connects to a `ypd` daemon and negotiates the protocol version.
    pub fn connect(addr: &StageAddress) -> Result<Self, AllocationError> {
        Ok(RemoteBackend {
            conn: CorrConn::connect(addr, CLIENT_IO_TIMEOUT)?,
            brand: crate::api::next_backend_brand(),
        })
    }

    /// The protocol version negotiated for this connection.
    pub fn protocol_version(&self) -> u16 {
        self.conn.version()
    }

    fn check_brand(&self, ticket: Ticket) -> Result<u64, AllocationError> {
        if ticket.brand() != self.brand {
            return Err(AllocationError::UnknownTicket);
        }
        Ok(ticket.id())
    }

    fn unexpected(frame: ServerFrame) -> AllocationError {
        AllocationError::Protocol(format!("unexpected response frame: {frame:?}"))
    }

    /// Refuses a query rendering the decoder on the far side would reject,
    /// *before* it poisons the whole connection: the codec caps individual
    /// strings at [`MAX_SEQUENCE_LEN`].
    fn check_wire_text(text: &str) -> Result<(), AllocationError> {
        if text.len() > MAX_SEQUENCE_LEN {
            return Err(AllocationError::Protocol(format!(
                "query text of {} bytes exceeds the wire limit of {MAX_SEQUENCE_LEN} bytes",
                text.len()
            )));
        }
        Ok(())
    }

    /// Submits one query already rendered in the native text form — the
    /// protocol's query encoding.
    fn submit_rendered(&self, query: String) -> Result<Ticket, AllocationError> {
        Self::check_wire_text(&query)?;
        match self
            .conn
            .request(None, |corr| ClientFrame::Submit { corr, query })?
        {
            ServerFrame::Submitted { ticket, .. } => Ok(Ticket::from_parts(self.brand, ticket)),
            ServerFrame::Error { error, .. } => Err(error),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Asks the daemon itself to drain and exit (administrative; not part
    /// of the [`ResourceManager`] surface).  The daemon stops accepting
    /// connections; this session should [`shutdown`](ResourceManager::shutdown)
    /// afterwards so the drain can complete.
    pub fn halt_daemon(&self) -> Result<(), AllocationError> {
        match self.conn.request(None, |corr| ClientFrame::Halt { corr })? {
            ServerFrame::Ack { .. } => Ok(()),
            ServerFrame::Error { error, .. } => Err(error),
            other => Err(Self::unexpected(other)),
        }
    }
}

impl ResourceManager for RemoteBackend {
    fn submit(&self, query: Query) -> Result<Ticket, AllocationError> {
        // The native text rendering is the protocol's query encoding.
        self.submit_rendered(query.to_string())
    }

    /// Ships the text as-is: it already *is* the wire encoding, so there is
    /// nothing to parse client-side — the server's query manager parses it
    /// once, exactly like an in-process submission, and parse errors come
    /// back through the protocol's error taxonomy.
    fn submit_text(&self, text: &str) -> Result<Ticket, AllocationError> {
        self.submit_rendered(text.to_string())
    }

    fn submit_batch(&self, queries: Vec<Query>) -> Result<Vec<Ticket>, AllocationError> {
        let rendered: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
        for query in &rendered {
            Self::check_wire_text(query)?;
        }
        match self.conn.request(None, |corr| ClientFrame::SubmitBatch {
            corr,
            queries: rendered,
        })? {
            ServerFrame::BatchSubmitted { tickets, .. } => Ok(tickets
                .into_iter()
                .map(|id| Ticket::from_parts(self.brand, id))
                .collect()),
            ServerFrame::Error { error, .. } => Err(error),
            other => Err(Self::unexpected(other)),
        }
    }

    fn wait(&self, ticket: Ticket) -> QueryOutcome {
        let wire_id = self.check_brand(ticket)?;
        match self.conn.request(None, |corr| ClientFrame::Wait {
            corr,
            ticket: wire_id,
            deadline_ms: None,
        })? {
            ServerFrame::Outcome { outcome, .. } => outcome,
            ServerFrame::Error { error, .. } => Err(error),
            other => Err(Self::unexpected(other)),
        }
    }

    fn wait_deadline(&self, ticket: Ticket, timeout: Duration) -> Option<QueryOutcome> {
        let wire_id = match self.check_brand(ticket) {
            Ok(id) => id,
            Err(e) => return Some(Err(e)),
        };
        let deadline_ms = u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX);
        match self.conn.request(None, |corr| ClientFrame::Wait {
            corr,
            ticket: wire_id,
            deadline_ms: Some(deadline_ms),
        }) {
            Ok(ServerFrame::Outcome { outcome, .. }) => Some(outcome),
            Ok(ServerFrame::TimedOut { .. }) => None,
            Ok(ServerFrame::Error { error, .. }) => Some(Err(error)),
            Ok(other) => Some(Err(Self::unexpected(other))),
            Err(e) => Some(Err(e)),
        }
    }

    fn try_poll(&self, ticket: Ticket) -> Option<QueryOutcome> {
        let wire_id = match self.check_brand(ticket) {
            Ok(id) => id,
            Err(e) => return Some(Err(e)),
        };
        match self.conn.request(None, |corr| ClientFrame::Poll {
            corr,
            ticket: wire_id,
        }) {
            Ok(ServerFrame::Outcome { outcome, .. }) => Some(outcome),
            Ok(ServerFrame::Pending { .. }) => None,
            Ok(ServerFrame::Error { error, .. }) => Some(Err(error)),
            Ok(other) => Some(Err(Self::unexpected(other))),
            Err(e) => Some(Err(e)),
        }
    }

    fn release(&self, allocation: &crate::allocation::Allocation) -> Result<(), AllocationError> {
        match self.conn.request(None, |corr| ClientFrame::Release {
            corr,
            allocation: allocation.clone(),
        })? {
            ServerFrame::Released { .. } => Ok(()),
            ServerFrame::Error { error, .. } => Err(error),
            other => Err(Self::unexpected(other)),
        }
    }

    fn stats(&self) -> StatsSnapshot {
        match self.conn.request(None, |corr| ClientFrame::Stats { corr }) {
            Ok(ServerFrame::StatsReply { stats, .. }) => stats,
            _ => StatsSnapshot::default(),
        }
    }

    fn shutdown(&self) -> Result<(), AllocationError> {
        // Tell the server so it can settle the session eagerly; a dead
        // (or already shut down) connection is shut down as far as the
        // client can tell.
        let result = self
            .conn
            .request(None, |corr| ClientFrame::Shutdown { corr });
        self.conn.shutdown();
        match result {
            Ok(ServerFrame::Ack { .. }) | Err(AllocationError::Network(_)) => Ok(()),
            Ok(ServerFrame::Error { error, .. }) => Err(error),
            Ok(other) => Err(Self::unexpected(other)),
            Err(e) => Err(e),
        }
    }
}

impl Drop for RemoteBackend {
    fn drop(&mut self) {
        // Closing the socket ends the server session, which settles any
        // tickets this client abandoned.
        self.conn.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{BackendKind, PipelineBuilder};
    use actyp_grid::{FleetSpec, SyntheticFleet};
    use actyp_proto::{read_client_frame, read_server_frame};
    use std::io::Write;

    fn fleet_db(n: usize, seed: u64) -> actyp_grid::SharedDatabase {
        SyntheticFleet::new(FleetSpec::with_machines(n), seed)
            .generate()
            .into_shared()
    }

    fn loopback() -> StageAddress {
        StageAddress::new("127.0.0.1", 0)
    }

    fn serve_kind(kind: BackendKind, machines: usize, seed: u64) -> ServerHandle {
        PipelineBuilder::new()
            .database(fleet_db(machines, seed))
            .serve(&loopback(), kind)
            .unwrap()
    }

    fn paper_text() -> String {
        Query::paper_example().to_string()
    }

    /// A raw socket that has completed the Hello handshake, for tests
    /// that speak frames the client API never sends.
    fn raw_session(addr: &StageAddress) -> TcpStream {
        let mut raw = TcpStream::connect((addr.host.as_str(), addr.port)).unwrap();
        write_frame(
            &mut raw,
            &ClientFrame::Hello {
                min_version: PROTOCOL_VERSION,
                max_version: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        assert!(matches!(
            read_server_frame(&mut raw).unwrap(),
            Some(ServerFrame::HelloAck { .. })
        ));
        raw
    }

    #[test]
    fn remote_round_trip_over_every_hosted_backend() {
        for kind in BackendKind::ALL {
            let server = serve_kind(kind, 300, 1);
            let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
            assert_eq!(remote.protocol_version(), PROTOCOL_VERSION);
            let ticket = remote.submit_text(&paper_text()).unwrap();
            let allocations = remote.wait(ticket).unwrap();
            assert_eq!(allocations.len(), 1, "{kind}");
            assert!(allocations[0].machine_name.contains("sun"), "{kind}");
            remote.release(&allocations[0]).unwrap();
            let stats = remote.stats();
            assert_eq!(stats.requests, 1, "{kind}");
            assert_eq!(stats.releases, 1, "{kind}");
            remote.halt_daemon().unwrap();
            remote.shutdown().unwrap();
            server.join().unwrap();
        }
    }

    #[test]
    fn remote_tickets_pipeline_on_one_connection() {
        let server = PipelineBuilder::new()
            .database(fleet_db(400, 2))
            .query_managers(2)
            .serve(&loopback(), BackendKind::Live)
            .unwrap();
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        let query = Query::paper_example();

        // Several tickets in flight on the socket before the first wait.
        let tickets: Vec<Ticket> = (0..5)
            .map(|_| remote.submit(query.clone()).unwrap())
            .collect();
        assert!(
            remote.stats().in_flight >= 2,
            "server-side stats must show overlapping tickets"
        );
        for ticket in tickets {
            let allocations = remote.wait(ticket).unwrap();
            remote.release(&allocations[0]).unwrap();
        }
        assert_eq!(remote.stats().allocations, 5);
        assert_eq!(remote.stats().in_flight, 0);

        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn wait_deadline_times_out_and_the_ticket_survives() {
        let server = serve_kind(BackendKind::Live, 200, 3);
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        let ticket = remote.submit_text(&paper_text()).unwrap();
        // A zero deadline may or may not catch the outcome; a generous one
        // must.  Either way the ticket remains redeemable after a timeout.
        if remote.wait_deadline(ticket, Duration::ZERO).is_none() {
            let outcome = remote
                .wait_deadline(ticket, Duration::from_secs(10))
                .expect("resolves within the deadline");
            let allocations = outcome.unwrap();
            remote.release(&allocations[0]).unwrap();
        }
        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn remote_errors_cross_the_wire_intact() {
        let server = serve_kind(BackendKind::Embedded, 100, 4);
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        // Allocation failure.
        let err = remote
            .submit_text_wait("punch.rsrc.arch = cray\n")
            .unwrap_err();
        assert_eq!(err, AllocationError::NoSuchResources);
        // Parse failure (parsed server side).
        let ticket_err = remote.submit_text("garbage").unwrap_err();
        assert!(matches!(ticket_err, AllocationError::Parse(_)));
        // Unknown-ticket and double-release failures.
        let ticket = remote.submit_text(&paper_text()).unwrap();
        let allocations = remote.wait(ticket).unwrap();
        assert_eq!(
            remote.wait(ticket).unwrap_err(),
            AllocationError::UnknownTicket
        );
        remote.release(&allocations[0]).unwrap();
        assert_eq!(
            remote.release(&allocations[0]).unwrap_err(),
            AllocationError::UnknownAllocation
        );
        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn remote_tickets_are_branded_per_connection() {
        let server = serve_kind(BackendKind::Embedded, 200, 5);
        let first = RemoteBackend::connect(&server.local_addr()).unwrap();
        let second = RemoteBackend::connect(&server.local_addr()).unwrap();
        let ticket = first.submit_text(&paper_text()).unwrap();
        assert_eq!(
            second.wait(ticket).unwrap_err(),
            AllocationError::UnknownTicket
        );
        assert!(first.wait(ticket).is_ok());
        first.halt_daemon().unwrap();
        first.shutdown().unwrap();
        second.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn server_side_ticket_tables_are_session_scoped() {
        let server = serve_kind(BackendKind::Embedded, 200, 21);
        let addr = server.local_addr();
        let first = RemoteBackend::connect(&addr).unwrap();
        let ticket = first.submit_text(&paper_text()).unwrap();

        // A raw second session replays the FIRST session's wire ticket id,
        // bypassing the client-side brand check entirely: the server must
        // refuse it from its own (empty) session table.
        let mut raw = raw_session(&addr);
        write_frame(
            &mut raw,
            &ClientFrame::Wait {
                corr: RequestId(1),
                ticket: ticket.id(),
                deadline_ms: None,
            },
        )
        .unwrap();
        match read_server_frame(&mut raw).unwrap() {
            Some(ServerFrame::Error { error, .. }) => {
                assert_eq!(error, AllocationError::UnknownTicket);
            }
            other => panic!("expected UnknownTicket, got {other:?}"),
        }
        drop(raw);

        // The issuing session still redeems it.
        let allocations = first.wait(ticket).unwrap();
        first.release(&allocations[0]).unwrap();
        first.halt_daemon().unwrap();
        first.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn abandoned_blocked_submissions_do_not_wedge_the_drain() {
        // A raw client floods more submissions than the live backend's
        // admission window and vanishes without redeeming anything.  The
        // blocked submit workers' permits are held by the abandoned
        // tickets; teardown must settle and join iteratively or the
        // session (and the whole drain) wedges forever.
        let db = fleet_db(300, 22);
        let server = PipelineBuilder::new()
            .database(db.clone())
            .window(2)
            .serve(&loopback(), BackendKind::Live)
            .unwrap();
        let addr = server.local_addr();
        {
            let mut raw = raw_session(&addr);
            for i in 0..5 {
                write_frame(
                    &mut raw,
                    &ClientFrame::Submit {
                        corr: RequestId(i),
                        query: paper_text(),
                    },
                )
                .unwrap();
            }
            // Dropped without reading replies or redeeming a single ticket.
        }
        server.halt();
        server.join().unwrap();
        // Every allocation the abandoned submissions produced was settled.
        let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        assert_eq!(active, 0);
    }

    #[test]
    fn abandoned_sessions_release_their_allocations() {
        let db = fleet_db(200, 6);
        let server = PipelineBuilder::new()
            .database(db.clone())
            .serve(&loopback(), BackendKind::Embedded)
            .unwrap();
        {
            let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
            let _ticket = remote.submit_text(&paper_text()).unwrap();
            // Dropped without wait/release: the client vanishes.
        }
        server.halt();
        server.join().unwrap();
        // The session settled the abandoned ticket: nothing stays claimed.
        let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        assert_eq!(active, 0);
    }

    #[test]
    fn redeemed_but_unreleased_allocations_return_with_the_session() {
        // The nastier variant: the client *redeems* the outcome (so the
        // ticket has left the session table) and then vanishes without
        // releasing.  The allocation is a session lease, so teardown hands
        // it back — including when the Outcome delivery itself raced the
        // disconnect.
        let db = fleet_db(200, 7);
        let server = PipelineBuilder::new()
            .database(db.clone())
            .serve(&loopback(), BackendKind::Embedded)
            .unwrap();
        {
            let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
            let ticket = remote.submit_text(&paper_text()).unwrap();
            let allocations = remote.wait(ticket).unwrap();
            assert_eq!(allocations.len(), 1);
            // Dropped holding the allocation.
        }
        server.halt();
        server.join().unwrap();
        let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        assert_eq!(active, 0);
    }

    #[test]
    fn disconnect_racing_an_in_flight_wait_leaks_nothing() {
        // Raw client: submit, read Submitted, fire a Wait, and hang up
        // without reading the Outcome.  The wait worker has already pulled
        // the ticket out of the session table, so only the lease mechanism
        // can return the allocation.
        let db = fleet_db(200, 8);
        let server = PipelineBuilder::new()
            .database(db.clone())
            .serve(&loopback(), BackendKind::Embedded)
            .unwrap();
        let addr = server.local_addr();
        {
            let mut raw = raw_session(&addr);
            write_frame(
                &mut raw,
                &ClientFrame::Submit {
                    corr: RequestId(0),
                    query: paper_text(),
                },
            )
            .unwrap();
            let ticket = match read_server_frame(&mut raw).unwrap() {
                Some(ServerFrame::Submitted { ticket, .. }) => ticket,
                other => panic!("expected Submitted, got {other:?}"),
            };
            write_frame(
                &mut raw,
                &ClientFrame::Wait {
                    corr: RequestId(1),
                    ticket,
                    deadline_ms: None,
                },
            )
            .unwrap();
            // Dropped without reading the Outcome.
        }
        server.halt();
        server.join().unwrap();
        let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        assert_eq!(active, 0);
    }

    #[test]
    fn version_negotiation_rejects_a_future_only_client() {
        let server = serve_kind(BackendKind::Embedded, 50, 7);
        let addr = server.local_addr();
        let mut stream = TcpStream::connect((addr.host.as_str(), addr.port)).unwrap();
        write_frame(
            &mut stream,
            &ClientFrame::Hello {
                min_version: PROTOCOL_VERSION + 1,
                max_version: PROTOCOL_VERSION + 9,
            },
        )
        .unwrap();
        match read_server_frame(&mut stream).unwrap() {
            Some(ServerFrame::HelloReject { message }) => {
                assert!(message.contains("no common protocol version"), "{message}");
            }
            other => panic!("expected HelloReject, got {other:?}"),
        }
        drop(stream);
        server.halt();
        server.join().unwrap();
    }

    #[test]
    fn garbage_on_the_socket_does_not_kill_the_daemon() {
        let server = serve_kind(BackendKind::Embedded, 50, 8);
        let addr = server.local_addr();
        {
            let mut stream = TcpStream::connect((addr.host.as_str(), addr.port)).unwrap();
            stream.write_all(&[0xFF; 64]).unwrap();
        }
        // The daemon survives and serves a well-behaved client afterwards.
        let remote = RemoteBackend::connect(&addr).unwrap();
        let allocations = remote.submit_text_wait(&paper_text()).unwrap();
        remote.release(&allocations[0]).unwrap();
        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn halt_stops_the_daemon_and_new_connections_fail() {
        let server = serve_kind(BackendKind::Embedded, 50, 9);
        let addr = server.local_addr();
        let remote = RemoteBackend::connect(&addr).unwrap();
        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
        // The listener is gone: connecting now fails (or is immediately
        // closed before any HelloAck).
        assert!(RemoteBackend::connect(&addr).is_err());
    }

    #[test]
    fn a_reply_with_a_never_issued_correlation_id_fails_the_wait_promptly() {
        // A fake daemon answers the Submit correctly, then answers the Wait
        // with a correlation id the client never issued.  The reply cannot
        // be routed, so the link is desynchronised: the in-flight wait
        // must fail at once instead of hanging on a reply that will never
        // come.
        let (addr, fake) = crate::conn::fake_daemon(|conn| {
            let Some(ClientFrame::Submit { corr, .. }) = read_client_frame(conn).unwrap() else {
                panic!("expected Submit");
            };
            write_frame(conn, &ServerFrame::Submitted { corr, ticket: 7 }).unwrap();
            let Some(ClientFrame::Wait { corr, .. }) = read_client_frame(conn).unwrap() else {
                panic!("expected Wait");
            };
            let unissued = RequestId(corr.0 + 1_000);
            write_frame(conn, &ServerFrame::Pending { corr: unissued }).unwrap();
            // Hold the socket open: only the bad id may fail the wait.
            let _ = read_client_frame(conn);
        });
        let remote = RemoteBackend::connect(&addr).unwrap();
        let ticket = remote.submit_text(&paper_text()).unwrap();
        let (tx, rx) = unbounded();
        std::thread::spawn(move || {
            let _ = tx.send(remote.wait(ticket));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the wait must not hang on an unroutable reply");
        assert!(
            matches!(&outcome, Err(AllocationError::Network(reason)) if reason.contains("never issued")),
            "{outcome:?}"
        );
        fake.join().unwrap();
    }

    /// A served backend that reports which thread runs each backend call.
    /// An embedded engine inside resolves every launch at once, so every
    /// outcome is ready when redeemed, except the first ticket's, which
    /// is held back until the test drops the gate's sender.
    struct ThreadProbe {
        inner: crate::api::EmbeddedBackend,
        calls: Sender<(&'static str, String)>,
        gate: Receiver<()>,
        held: Mutex<Option<Ticket>>,
    }

    type ProbeCalls = Receiver<(&'static str, String)>;

    impl ThreadProbe {
        /// The probe, the calls it reports, and its gate's sender.
        fn new(seed: u64) -> (Self, ProbeCalls, Sender<()>) {
            let (calls, seen) = unbounded();
            let (opener, gate) = unbounded();
            let probe = ThreadProbe {
                inner: PipelineBuilder::new()
                    .database(fleet_db(200, seed))
                    .build_embedded()
                    .unwrap(),
                calls,
                gate,
                held: Mutex::new(None),
            };
            (probe, seen, opener)
        }

        fn note(&self, call: &'static str) {
            let thread = std::thread::current().name().unwrap_or("").to_string();
            let _ = self.calls.send((call, thread));
        }

        fn launch(&self, query: Query) -> Result<Ticket, AllocationError> {
            let ticket = self.inner.submit(query)?;
            self.held.lock().get_or_insert(ticket);
            Ok(ticket)
        }

        fn is_held(&self, ticket: Ticket) -> bool {
            *self.held.lock() == Some(ticket)
        }
    }

    impl ResourceManager for ThreadProbe {
        fn submit(&self, query: Query) -> Result<Ticket, AllocationError> {
            self.note("submit");
            self.launch(query)
        }
        fn try_submit(&self, query: Query) -> Result<Ticket, TrySubmitError> {
            self.note("try_submit");
            self.launch(query).map_err(TrySubmitError::Failed)
        }
        fn wait(&self, ticket: Ticket) -> QueryOutcome {
            self.note("wait");
            if self.is_held(ticket) {
                // Returns once the gate's sender is dropped.
                let _ = self.gate.recv();
            }
            self.inner.wait(ticket)
        }
        fn wait_deadline(&self, ticket: Ticket, timeout: Duration) -> Option<QueryOutcome> {
            use crossbeam::channel::RecvTimeoutError;
            self.note("wait");
            if self.is_held(ticket)
                && self.gate.recv_timeout(timeout) == Err(RecvTimeoutError::Timeout)
            {
                return None;
            }
            Some(self.inner.wait(ticket))
        }
        fn try_poll(&self, ticket: Ticket) -> Option<QueryOutcome> {
            use crossbeam::channel::TryRecvError;
            self.note("try_poll");
            if self.is_held(ticket) && self.gate.try_recv() == Err(TryRecvError::Empty) {
                return None;
            }
            self.inner.try_poll(ticket)
        }
        fn release(&self, allocation: &Allocation) -> Result<(), AllocationError> {
            self.note("release");
            self.inner.release(allocation)
        }
        fn stats(&self) -> StatsSnapshot {
            self.inner.stats()
        }
        fn shutdown(&self) -> Result<(), AllocationError> {
            self.inner.shutdown()
        }
    }

    /// The next backend call the probe reports, as (call, thread prefix).
    fn next_call(calls: &ProbeCalls) -> (&'static str, String) {
        let (call, thread) = calls
            .recv_timeout(Duration::from_secs(10))
            .expect("the daemon makes the expected backend call");
        let role = thread.trim_end_matches(|c: char| c.is_ascii_digit());
        (call, role.to_string())
    }

    fn call(name: &'static str, role: &str) -> (&'static str, String) {
        (name, role.to_string())
    }

    #[test]
    fn a_ready_round_trip_runs_entirely_on_the_io_thread() {
        let (probe, calls, gate) = ThreadProbe::new(31);
        drop(gate);
        let server = serve(Box::new(probe), &loopback()).unwrap();
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        let allocations = remote.submit_text_wait(&paper_text()).unwrap();
        remote.release(&allocations[0]).unwrap();
        for expected in ["try_submit", "try_poll", "release"] {
            assert_eq!(next_call(&calls), call(expected, "ypd-io-"));
        }
        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
        assert!(calls.try_recv().is_err(), "no call ran on a worker lane");
    }

    #[test]
    fn a_wait_on_a_pending_outcome_falls_back_to_a_redeem_worker() {
        let (probe, calls, gate) = ThreadProbe::new(32);
        let server = serve(Box::new(probe), &loopback()).unwrap();
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        let ticket = remote.submit_text(&paper_text()).unwrap();
        assert_eq!(next_call(&calls), call("try_submit", "ypd-io-"));

        // A deadline wait on the held outcome times out on a worker, and
        // the ticket stays redeemable.
        assert!(remote
            .wait_deadline(ticket, Duration::from_millis(50))
            .is_none());
        assert_eq!(next_call(&calls), call("try_poll", "ypd-io-"));
        assert_eq!(next_call(&calls), call("wait", "ypd-redeem-"));

        // A plain wait parks on a worker and is answered once the gate
        // opens; the worker is seen waiting before the gate opens.
        let waiter = std::thread::spawn(move || {
            let outcome = remote.wait(ticket);
            (remote, outcome)
        });
        assert_eq!(next_call(&calls), call("try_poll", "ypd-io-"));
        assert_eq!(next_call(&calls), call("wait", "ypd-redeem-"));
        drop(gate);
        let (remote, outcome) = waiter.join().unwrap();
        remote.release(&outcome.unwrap()[0]).unwrap();
        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
    }

    fn submit_frame(corr: u64) -> ClientFrame {
        ClientFrame::Submit {
            corr: RequestId(corr),
            query: paper_text(),
        }
    }

    fn wait_frame(corr: u64, ticket: u64) -> ClientFrame {
        ClientFrame::Wait {
            corr: RequestId(corr),
            ticket,
            deadline_ms: None,
        }
    }

    #[test]
    fn a_full_window_parks_later_submits_on_the_lane_in_frame_order() {
        let server = PipelineBuilder::new()
            .database(fleet_db(300, 33))
            .window(1)
            .serve(&loopback(), BackendKind::Live)
            .unwrap();
        let mut raw = raw_session(&server.local_addr());

        // A takes the only permit at once.
        write_frame(&mut raw, &submit_frame(0)).unwrap();
        assert_eq!(
            read_server_frame(&mut raw).unwrap(),
            Some(ServerFrame::Submitted {
                corr: RequestId(0),
                ticket: 0
            })
        );
        // Let A's outcome come in, so the Wait below redeems it on the
        // I/O thread and frees the permit between B and C.
        for corr in 100.. {
            write_frame(
                &mut raw,
                &ClientFrame::Stats {
                    corr: RequestId(corr),
                },
            )
            .unwrap();
            match read_server_frame(&mut raw).unwrap() {
                Some(ServerFrame::StatsReply { stats, .. }) if stats.allocations > 0 => break,
                Some(ServerFrame::StatsReply { .. }) => std::thread::yield_now(),
                other => panic!("expected StatsReply, got {other:?}"),
            }
        }

        // B finds the window full and queues on the submit lane.  The
        // permit A's Wait frees goes to B, never to C decoded after it:
        // each redemption admits the next submission in frame order, and
        // the wire ticket ids follow that order.
        let mut allocations = Vec::new();
        let mut expect = |raw: &mut TcpStream, wait: u64, submitted: Option<u64>| {
            for _ in 0..1 + usize::from(submitted.is_some()) {
                match read_server_frame(raw).unwrap() {
                    Some(ServerFrame::Outcome { corr, outcome }) => {
                        assert_eq!(corr, RequestId(wait));
                        allocations.extend(outcome.unwrap());
                    }
                    Some(ServerFrame::Submitted { corr, ticket }) => {
                        assert_eq!(Some(corr), submitted.map(RequestId));
                        assert_eq!(ticket, corr.0, "wire tickets follow the frame order");
                    }
                    other => panic!("expected an Outcome or Submitted, got {other:?}"),
                }
            }
        };
        let mut pipelined = Vec::new();
        for frame in [submit_frame(1), wait_frame(10, 0), submit_frame(2)] {
            write_frame(&mut pipelined, &frame).unwrap();
        }
        // One write, so the daemon decodes all three from one read.
        raw.write_all(&pipelined).unwrap();
        expect(&mut raw, 10, Some(1));
        raw.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        assert!(
            read_server_frame(&mut raw).is_err(),
            "C may not pass the window B fills"
        );
        raw.set_read_timeout(None).unwrap();
        write_frame(&mut raw, &wait_frame(11, 1)).unwrap();
        expect(&mut raw, 11, Some(2));
        write_frame(&mut raw, &wait_frame(12, 2)).unwrap();
        expect(&mut raw, 12, None);

        assert_eq!(allocations.len(), 3);
        for (corr, allocation) in (20..).map(RequestId).zip(allocations) {
            write_frame(&mut raw, &ClientFrame::Release { corr, allocation }).unwrap();
            assert_eq!(
                read_server_frame(&mut raw).unwrap(),
                Some(ServerFrame::Released { corr })
            );
        }
        drop(raw);
        server.halt();
        server.join().unwrap();
    }

    #[test]
    fn shutdown_is_idempotent_and_poisons_later_calls() {
        let server = serve_kind(BackendKind::Embedded, 100, 10);
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        remote.shutdown().unwrap();
        remote.shutdown().unwrap();
        let err = remote.submit_text(&paper_text()).unwrap_err();
        assert!(matches!(err, AllocationError::Network(_)), "{err:?}");
        server.halt();
        server.join().unwrap();
    }
}
