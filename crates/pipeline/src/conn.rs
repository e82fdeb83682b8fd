//! The correlated connection: one TCP link to a `ypd` daemon on which any
//! number of threads keep requests in flight at once.
//!
//! Every endpoint that dials a daemon — the [`crate::remote::RemoteBackend`]
//! client as much as a federation peer link — is a peer speaking the same
//! protocol, so both ride this one core.  [`CorrConn::connect`] dials,
//! performs the Hello handshake and starts a reader thread that routes
//! each reply frame to the request carrying the same [`RequestId`];
//! [`CorrConn::request`] registers, writes one frame and blocks for its
//! reply.  Once the link dies every in-flight and later request fails
//! fast with the recorded reason.

use std::io::ErrorKind;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use actyp_proto::{
    read_server_frame, write_frame, ClientFrame, ServerFrame, MIN_SUPPORTED_VERSION,
    PROTOCOL_VERSION,
};

use crate::allocation::AllocationError;
use crate::message::{RequestId, StageAddress};
use crate::shard::{ShardedMap, DEFAULT_SHARDS};

/// How long to wait for a daemon to accept a TCP connection.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// The correlation id a response frame answers, if any.
fn corr_of(frame: &ServerFrame) -> Option<RequestId> {
    match frame {
        ServerFrame::HelloAck { .. } | ServerFrame::HelloReject { .. } => None,
        ServerFrame::Submitted { corr, .. }
        | ServerFrame::BatchSubmitted { corr, .. }
        | ServerFrame::Outcome { corr, .. }
        | ServerFrame::Pending { corr }
        | ServerFrame::TimedOut { corr }
        | ServerFrame::Released { corr }
        | ServerFrame::StatsReply { corr, .. }
        | ServerFrame::Ack { corr }
        | ServerFrame::Error { corr, .. }
        | ServerFrame::Delegated { corr, .. }
        | ServerFrame::PoolsSynced { corr, .. }
        | ServerFrame::AdvertAck { corr, .. } => Some(*corr),
    }
}

/// One live, multiplexed connection to a daemon, after the Hello
/// handshake.
pub(crate) struct CorrConn {
    /// The address dialed, for error messages.
    addr: StageAddress,
    /// The protocol version the handshake negotiated.
    version: u16,
    writer: Mutex<TcpStream>,
    /// Requests awaiting their reply, by correlation id.  Sharded so
    /// concurrent requesters don't serialise on a single map lock;
    /// correlation ids are sequential, so shards deal round-robin.
    /// Dropping a sender (when the link dies) wakes its request.
    pending: ShardedMap<Sender<ServerFrame>>,
    /// Why the connection died, once it has.
    dead: Mutex<Option<String>>,
    /// The next correlation id to issue; every id below it was issued.
    next_corr: AtomicU64,
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl CorrConn {
    /// Dials `addr` and negotiates the protocol version.  `io_timeout`
    /// bounds the handshake reply and, for the connection's whole life,
    /// every frame write: a stalled daemon with a full receive buffer
    /// would otherwise block a write forever while holding the writer
    /// mutex, wedging every other request on the link.
    pub(crate) fn connect(
        addr: &StageAddress,
        io_timeout: Duration,
    ) -> Result<Arc<CorrConn>, AllocationError> {
        let network = |what: &str, e: &dyn std::fmt::Display| {
            AllocationError::Network(format!("{what} {addr}: {e}"))
        };
        let resolved = (addr.host.as_str(), addr.port)
            .to_socket_addrs()
            .map_err(|e| network("resolve", &e))?;
        let mut last_error: Option<std::io::Error> = None;
        let mut stream = resolved
            .into_iter()
            .find_map(|sock| {
                TcpStream::connect_timeout(&sock, PEER_CONNECT_TIMEOUT)
                    .map_err(|e| last_error = Some(e))
                    .ok()
            })
            .ok_or_else(|| match &last_error {
                Some(e) => network("connect", e),
                None => network("resolve", &"no addresses"),
            })?;
        let _ = stream.set_nodelay(true);
        stream
            .set_write_timeout(Some(io_timeout))
            .and_then(|()| stream.set_read_timeout(Some(io_timeout)))
            .map_err(|e| network("configure", &e))?;
        write_frame(
            &mut stream,
            &ClientFrame::Hello {
                min_version: MIN_SUPPORTED_VERSION,
                max_version: PROTOCOL_VERSION,
            },
        )
        .map_err(|e| network("hello to", &e))?;
        let version = match read_server_frame(&mut stream) {
            Ok(Some(ServerFrame::HelloAck { version })) if version >= MIN_SUPPORTED_VERSION => {
                version
            }
            Ok(Some(ServerFrame::HelloReject { message })) => {
                return Err(AllocationError::Protocol(format!(
                    "server rejected the connection: {message}"
                )))
            }
            Ok(Some(other)) => {
                return Err(AllocationError::Protocol(format!(
                    "expected HelloAck, got {other:?}"
                )))
            }
            Ok(None) => {
                return Err(AllocationError::Network(
                    "server closed the connection during the handshake".to_string(),
                ))
            }
            Err(e) => return Err(network("handshake with", &e)),
        };
        // Past the handshake the reader blocks indefinitely; per-request
        // deadlines live in `request`.  The write timeout stays.
        let read_stream = stream
            .set_read_timeout(None)
            .and_then(|()| stream.try_clone())
            .map_err(|e| network("configure", &e))?;
        let conn = Arc::new(CorrConn {
            addr: addr.clone(),
            version,
            writer: Mutex::new(stream),
            pending: ShardedMap::new(DEFAULT_SHARDS),
            dead: Mutex::new(None),
            next_corr: AtomicU64::new(0),
            reader: Mutex::new(None),
        });
        let reader_conn = conn.clone();
        let reader = std::thread::Builder::new()
            .name("actyp-conn-reader".to_string())
            .spawn(move || reader_conn.run_reader(read_stream))
            .map_err(|e| network("reader thread for", &e))?;
        *conn.reader.lock() = Some(reader);
        Ok(conn)
    }

    /// The protocol version negotiated for this connection.
    pub(crate) fn version(&self) -> u16 {
        self.version
    }

    /// Whether the link has died (transport failure, protocol violation
    /// or [`CorrConn::shutdown`]).
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.lock().is_some()
    }

    /// Records the death reason and wakes every in-flight request.  The
    /// `dead` lock is held across the pending sweep, and `request`
    /// registers under the same guard, so no request can slip into an
    /// already-swept shard and hang forever.
    fn poison(&self, reason: String) {
        let mut dead = self.dead.lock();
        dead.get_or_insert(reason);
        self.pending.clear();
    }

    fn death_error(&self) -> AllocationError {
        AllocationError::Network(
            self.dead
                .lock()
                .clone()
                .unwrap_or_else(|| "connection closed".to_string()),
        )
    }

    /// Sends one request frame and blocks for the reply carrying the same
    /// correlation id; other threads' requests interleave freely on the
    /// link meanwhile.  `deadline` bounds the wait for the reply (`None`
    /// waits for as long as the link lives); a missed deadline fails this
    /// request only, and a reply arriving later is dropped.
    ///
    /// A frame the codec refuses before sending any byte (over the frame
    /// limit) fails this request with [`AllocationError::Protocol`] and
    /// leaves the link intact; any other send failure kills the link.
    pub(crate) fn request(
        &self,
        deadline: Option<Duration>,
        build: impl FnOnce(RequestId) -> ClientFrame,
    ) -> Result<ServerFrame, AllocationError> {
        let corr = RequestId(self.next_corr.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = unbounded();
        {
            let dead = self.dead.lock();
            if dead.is_some() {
                drop(dead);
                return Err(self.death_error());
            }
            self.pending.insert(corr.0, tx);
        }
        let frame = build(corr);
        let sent = {
            let mut writer = self.writer.lock();
            // The writer mutex MUST cover the frame write or concurrent
            // requests interleave half-frames; the write timeout set at
            // connect bounds how long a stalled daemon can hold it.
            // lint-allow(lock-across-blocking): serialised frame write
            write_frame(&mut *writer, &frame)
        };
        if let Err(e) = sent {
            self.pending.remove(corr.0);
            if e.kind() == ErrorKind::InvalidData {
                return Err(AllocationError::Protocol(e.to_string()));
            }
            self.poison(format!("send: {e}"));
            return Err(self.death_error());
        }
        let reply = match deadline {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(timeout) => rx.recv_timeout(timeout),
        };
        match reply {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) => {
                self.pending.remove(corr.0);
                Err(AllocationError::Network(format!(
                    "no reply from {} within {:?}",
                    self.addr,
                    deadline.unwrap_or_default()
                )))
            }
            Err(RecvTimeoutError::Disconnected) => Err(self.death_error()),
        }
    }

    /// The reader thread: routes every reply to the request whose
    /// correlation id it echoes, and poisons the link on transport death
    /// or on any frame it cannot route.
    fn run_reader(&self, mut stream: TcpStream) {
        let reason = loop {
            match read_server_frame(&mut stream) {
                Ok(Some(frame)) => match corr_of(&frame) {
                    Some(corr) => {
                        if let Some(sender) = self.pending.remove(corr.0) {
                            let _ = sender.send(frame);
                        } else if corr.0 >= self.next_corr.load(Ordering::Relaxed) {
                            // A correlation id this link never issued: the
                            // daemon is desynchronised or hostile — fail
                            // the whole link now rather than let every
                            // in-flight request wait out its deadline.
                            break format!(
                                "reply out of correlation (id {} never issued): {frame:?}",
                                corr.0
                            );
                        }
                        // An issued id with no waiter lost its race with
                        // a request deadline: dropped.
                    }
                    None => break "unexpected handshake frame after connect".to_string(),
                },
                Ok(None) => break "server closed the connection".to_string(),
                Err(e) => break e.to_string(),
            }
        };
        self.poison(reason);
    }

    /// Fails every in-flight request, closes the transport and joins the
    /// reader thread.  Idempotent.
    pub(crate) fn shutdown(&self) {
        self.poison("connection closed".to_string());
        {
            let writer = self.writer.lock();
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        let reader = self.reader.lock().take();
        if let Some(reader) = reader {
            let _ = reader.join();
        }
    }
}

/// A scripted fake daemon on an ephemeral loopback port: accepts one
/// connection, answers its Hello, then runs `script` on the socket.
#[cfg(test)]
pub(crate) fn fake_daemon(
    script: impl FnOnce(&mut TcpStream) + Send + 'static,
) -> (StageAddress, JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = StageAddress::new("127.0.0.1", listener.local_addr().unwrap().port());
    let daemon = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        assert!(matches!(
            actyp_proto::read_client_frame(&mut conn).unwrap(),
            Some(ClientFrame::Hello { .. })
        ));
        let hello_ack = ServerFrame::HelloAck {
            version: PROTOCOL_VERSION,
        };
        write_frame(&mut conn, &hello_ack).unwrap();
        script(&mut conn);
    });
    (addr, daemon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Instant;

    #[test]
    fn a_listener_that_never_answers_hello_fails_the_connect() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = StageAddress::new("127.0.0.1", listener.local_addr().unwrap().port());
        let silent = std::thread::spawn(move || {
            // Swallow the Hello, answer nothing, wait for the hang-up.
            let (mut conn, _) = listener.accept().unwrap();
            let _ = conn.read_to_end(&mut Vec::new());
        });
        let started = Instant::now();
        let err = match CorrConn::connect(&addr, Duration::from_millis(200)) {
            Ok(_) => panic!("a silent listener must not complete the handshake"),
            Err(err) => err,
        };
        assert!(matches!(err, AllocationError::Network(_)), "{err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the handshake must be bounded, took {:?}",
            started.elapsed()
        );
        silent.join().unwrap();
    }

    #[test]
    fn a_daemon_that_stops_reading_cannot_hold_a_write_forever() {
        // Past the handshake the daemon never reads again; it holds the
        // socket until the test is done.
        let (done, hold) = unbounded::<()>();
        let (addr, daemon) = fake_daemon(move |_| {
            let _ = hold.recv();
        });
        let conn = CorrConn::connect(&addr, Duration::from_millis(200)).unwrap();
        // Frames just under the protocol's string limit: the socket
        // buffers fill within a few dozen, and the next write stalls
        // until the write timeout kills the link.
        let query = "x".repeat(actyp_proto::MAX_SEQUENCE_LEN - 64);
        let started = Instant::now();
        while !conn.is_dead() {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "a stalled write must fail within its timeout"
            );
            let result = conn.request(Some(Duration::from_millis(1)), |corr| ClientFrame::Submit {
                corr,
                query: query.clone(),
            });
            assert!(
                matches!(result, Err(AllocationError::Network(_))),
                "{result:?}"
            );
        }
        let err = conn.request(None, |corr| ClientFrame::Stats { corr });
        assert!(
            matches!(&err, Err(AllocationError::Network(reason)) if reason.contains("send")),
            "{err:?}"
        );
        conn.shutdown();
        conn.shutdown();
        drop(done);
        daemon.join().unwrap();
    }
}
