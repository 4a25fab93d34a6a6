//! `kvserve::net` — a length-prefixed binary wire protocol in front of
//! the completion ring, over `std::net` TCP on loopback.
//!
//! The network layer is deliberately thin: a connection is a framed
//! byte stream of request/response pairs, and everything between the
//! socket and durability is the existing ring machinery. The server
//! gives every accepted connection its own [`Ring`] slab over the
//! shared `Router`, so N connections multiplex onto the per-shard
//! lanes exactly like N in-process submitters would — same routing,
//! same deadlines, same 2PC split, same crash verdicts.
//!
//! **Backpressure is visible on the wire, never absorbed in buffers.**
//! A connection has a hard in-flight cap (at most its ring's slot
//! count); a request arriving over the cap, or bouncing off
//! [`ServeError::RingFull`] / [`ServeError::Overloaded`], is answered
//! with an explicit `Busy` response carrying a retry hint. The server
//! never queues request bytes it has not got a slot for, so a slow
//! shard surfaces to the client as `Busy` frames instead of unbounded
//! server-side memory growth — the network layer can therefore never
//! block the ring, only the other way around.
//!
//! **The ack contract.** A response frame with status `Ok` is the
//! durability ack: the batch committed and its effects survive any
//! later crash. Every error status is a *definite* no-op verdict
//! (`Timeout`, `Aborted`, `Stopped`, `Busy`: nothing
//! executed, resubmitting is sound — these are the ring's own verdict
//! semantics forwarded to the wire). A connection that dies without a
//! response for an in-flight request yields **no verdict**: the batch
//! either committed in its entirety or not at all (the service's
//! torn-batch guarantee), but which one must be learned by reading.
//! `tests/kvserve_net.rs` drives a crash sweep through every
//! [`Point::NET`] step to hold the layer to exactly this contract.
//!
//! **Determinism.** Like the 2PC/replication/migration layers, the
//! server asks the service's probe (installed with
//! [`Service::set_probe`]) at every [`Point::NET`] step, and the step
//! where it first answers `true` tears the whole network layer down
//! abruptly (sockets shut, no further bytes) — `MidWrite` additionally
//! flushes a *partial* response frame first, so clients must treat a
//! truncated tail frame as no-ack. The same points double as
//! client-kill points for the disconnect sweep.

use crate::metrics::{NetMetrics, NetSnapshot, RingMetrics};
use crate::probe::{Point, ProbeCell};
use crate::{MapOp, Reply, Ring, Router, ServeError, Service, Ticket};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Wire protocol version, checked on every frame.
pub const PROTOCOL_VERSION: u8 = 1;

/// Frame header length: `len: u32 | version: u8 | kind: u8 | flags: u16`,
/// all little-endian; `len` counts the body only.
pub const HEADER_LEN: usize = 8;

/// Hard cap on a frame body. A header announcing more is a protocol
/// error, rejected before any allocation — a hostile length prefix
/// cannot balloon server memory.
pub const MAX_BODY: u32 = 1 << 20;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;

const STATUS_OK: u8 = 0;
const STATUS_TIMEOUT: u8 = 1;
const STATUS_ABORTED: u8 = 2;
const STATUS_STOPPED: u8 = 3;
// Status 4 is retired (it answered a stale routing epoch, which no
// request reaches any more) and decodes as `FrameError::BadStatus(4)`.
const STATUS_BUSY: u8 = 5;

const TAG_GET: u8 = 0;
const TAG_INSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;

/// Bytes per encoded op: tag + key + value.
const OP_LEN: usize = 1 + 8 + 8;

/// How a byte sequence failed to be a frame. Every malformed input —
/// truncation, hostile lengths, unknown versions/kinds/tags, trailing
/// garbage — decodes to one of these; the codec never panics and never
/// yields a partial batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// The stream ended cleanly on a frame boundary.
    Closed,
    /// The input ended inside a frame (header or body).
    Truncated,
    /// The header announced a body over [`MAX_BODY`].
    Oversized(u32),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// Reserved flag bits were set.
    BadFlags(u16),
    /// Unknown op tag in a request body.
    BadTag(u8),
    /// Unknown status byte in a response body.
    BadStatus(u8),
    /// The body length disagrees with its announced op/value counts.
    SizeMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed on a frame boundary"),
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::Oversized(n) => write!(f, "frame body {n} exceeds cap {MAX_BODY}"),
            FrameError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadFlags(b) => write!(f, "reserved flag bits set: {b:#06x}"),
            FrameError::BadTag(t) => write!(f, "unknown op tag {t}"),
            FrameError::BadStatus(s) => write!(f, "unknown response status {s}"),
            FrameError::SizeMismatch => write!(f, "body length disagrees with its counts"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded request frame: one atomic batch plus its correlation id
/// and deadline (`0` micros = the server's default).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RequestFrame {
    /// Client-chosen id echoed on the matching response.
    pub corr: u64,
    /// Request deadline in microseconds; `0` asks for the default.
    pub deadline_micros: u64,
    /// The batch, executed as one durable transaction.
    pub ops: Vec<MapOp>,
}

/// A decoded response frame: the correlation id plus the service-level
/// verdict ([`Reply`]); `Busy` arrives as `Err(Overloaded)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ResponseFrame {
    /// Echo of the request's correlation id.
    pub corr: u64,
    /// The verdict. `Ok` is the durability ack; every `Err` is a
    /// definite nothing-executed verdict.
    pub reply: Reply,
}

/// Any decoded frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Frame {
    /// A client's request.
    Request(RequestFrame),
    /// A server's response.
    Response(ResponseFrame),
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("caller checked length"))
}

fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("caller checked length"))
}

fn finish_frame(buf: &mut [u8], start: usize) {
    let body = (buf.len() - start - HEADER_LEN) as u32;
    buf[start..start + 4].copy_from_slice(&body.to_le_bytes());
}

fn push_header(buf: &mut Vec<u8>, kind: u8) -> usize {
    let start = buf.len();
    put_u32(buf, 0); // patched by finish_frame
    buf.push(PROTOCOL_VERSION);
    buf.push(kind);
    buf.extend_from_slice(&0u16.to_le_bytes());
    start
}

/// Append one encoded request frame to `buf`.
pub fn encode_request(buf: &mut Vec<u8>, corr: u64, deadline_micros: u64, ops: &[MapOp]) {
    let start = push_header(buf, KIND_REQUEST);
    put_u64(buf, corr);
    put_u64(buf, deadline_micros);
    put_u32(buf, ops.len() as u32);
    for &op in ops {
        let (tag, key, val) = match op {
            MapOp::Get(k) => (TAG_GET, k, 0),
            MapOp::Insert(k, v) => (TAG_INSERT, k, v),
            MapOp::Remove(k) => (TAG_REMOVE, k, 0),
        };
        buf.push(tag);
        put_u64(buf, key);
        put_u64(buf, val);
    }
    finish_frame(buf, start);
}

/// Append one encoded response frame to `buf`.
pub fn encode_response(buf: &mut Vec<u8>, corr: u64, reply: &Reply) {
    let start = push_header(buf, KIND_RESPONSE);
    put_u64(buf, corr);
    match reply {
        Ok(vals) => {
            buf.push(STATUS_OK);
            put_u32(buf, vals.len() as u32);
            for v in vals {
                match v {
                    Some(x) => {
                        buf.push(1);
                        put_u64(buf, *x);
                    }
                    None => {
                        buf.push(0);
                        put_u64(buf, 0);
                    }
                }
            }
        }
        Err(ServeError::Timeout) => buf.push(STATUS_TIMEOUT),
        Err(ServeError::Aborted) => buf.push(STATUS_ABORTED),
        Err(ServeError::Stopped) => buf.push(STATUS_STOPPED),
        // Both structural-backpressure rejections cross the wire as
        // Busy; RingFull's hint is "reap then resubmit", rendered as a
        // zero retry delay.
        Err(ServeError::Overloaded { retry_after }) => {
            buf.push(STATUS_BUSY);
            put_u64(buf, retry_after.as_micros() as u64);
        }
        Err(ServeError::RingFull) => {
            buf.push(STATUS_BUSY);
            put_u64(buf, 0);
        }
    }
    finish_frame(buf, start);
}

/// Validate a header and return `(kind, body_len)`.
fn decode_header(h: &[u8]) -> Result<(u8, usize), FrameError> {
    debug_assert!(h.len() >= HEADER_LEN);
    let len = get_u32(h);
    if len > MAX_BODY {
        return Err(FrameError::Oversized(len));
    }
    if h[4] != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(h[4]));
    }
    let kind = h[5];
    if kind != KIND_REQUEST && kind != KIND_RESPONSE {
        return Err(FrameError::BadKind(kind));
    }
    let flags = u16::from_le_bytes([h[6], h[7]]);
    if flags != 0 {
        return Err(FrameError::BadFlags(flags));
    }
    Ok((kind, len as usize))
}

fn decode_request_body(body: &[u8]) -> Result<RequestFrame, FrameError> {
    if body.len() < 20 {
        return Err(FrameError::Truncated);
    }
    let corr = get_u64(body);
    let deadline_micros = get_u64(&body[8..]);
    let count = get_u32(&body[16..]) as usize;
    let rest = &body[20..];
    if rest.len() != count.saturating_mul(OP_LEN) {
        return Err(FrameError::SizeMismatch);
    }
    let mut ops = Vec::with_capacity(count);
    for chunk in rest.chunks_exact(OP_LEN) {
        let key = get_u64(&chunk[1..]);
        let val = get_u64(&chunk[9..]);
        ops.push(match chunk[0] {
            TAG_GET => MapOp::Get(key),
            TAG_INSERT => MapOp::Insert(key, val),
            TAG_REMOVE => MapOp::Remove(key),
            t => return Err(FrameError::BadTag(t)),
        });
    }
    Ok(RequestFrame {
        corr,
        deadline_micros,
        ops,
    })
}

fn decode_response_body(body: &[u8]) -> Result<ResponseFrame, FrameError> {
    if body.len() < 9 {
        return Err(FrameError::Truncated);
    }
    let corr = get_u64(body);
    let status = body[8];
    let rest = &body[9..];
    let reply = match status {
        STATUS_OK => {
            if rest.len() < 4 {
                return Err(FrameError::Truncated);
            }
            let count = get_u32(rest) as usize;
            let vals = &rest[4..];
            if vals.len() != count.saturating_mul(9) {
                return Err(FrameError::SizeMismatch);
            }
            let mut out = Vec::with_capacity(count);
            for chunk in vals.chunks_exact(9) {
                out.push(match chunk[0] {
                    0 => None,
                    1 => Some(get_u64(&chunk[1..])),
                    _ => return Err(FrameError::SizeMismatch),
                });
            }
            Ok(out)
        }
        STATUS_TIMEOUT => Err(ServeError::Timeout),
        STATUS_ABORTED => Err(ServeError::Aborted),
        STATUS_STOPPED => Err(ServeError::Stopped),
        STATUS_BUSY => {
            if rest.len() != 8 {
                return Err(FrameError::SizeMismatch);
            }
            Err(ServeError::Overloaded {
                retry_after: Duration::from_micros(get_u64(rest)),
            })
        }
        s => return Err(FrameError::BadStatus(s)),
    };
    if matches!(status, STATUS_TIMEOUT | STATUS_ABORTED | STATUS_STOPPED) && !rest.is_empty() {
        return Err(FrameError::SizeMismatch);
    }
    Ok(ResponseFrame { corr, reply })
}

/// Decode the first frame in `bytes`, returning it plus the number of
/// bytes consumed. A slice that ends mid-frame is [`FrameError::Truncated`]
/// (an empty slice is [`FrameError::Closed`]); nothing is ever consumed
/// from a malformed prefix.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), FrameError> {
    if bytes.is_empty() {
        return Err(FrameError::Closed);
    }
    if bytes.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let (kind, len) = decode_header(bytes)?;
    if bytes.len() < HEADER_LEN + len {
        return Err(FrameError::Truncated);
    }
    let body = &bytes[HEADER_LEN..HEADER_LEN + len];
    let frame = match kind {
        KIND_REQUEST => Frame::Request(decode_request_body(body)?),
        _ => Frame::Response(decode_response_body(body)?),
    };
    Ok((frame, HEADER_LEN + len))
}

use wire::{split, FramedWriter, ReadHalf};

/// The only code that holds a writable socket. A connected socket is
/// [`split`] into a [`ReadHalf`], which can read into an accumulator and
/// shut down but has no write method, and a [`FramedWriter`], whose
/// only writes are whole frames or the `MidWrite` crash injection's
/// torn prefix. Every connection, client and kill handle outside this
/// module holds one of the two, so a raw socket write anywhere else in
/// the layer — an ack leaked around the dead-connection suppression, or
/// a whole frame past a `MidWrite` crash — does not compile.
mod wire {
    use std::io::{self, Read, Write};
    use std::net::{Shutdown, TcpStream};
    use std::time::Duration;

    /// Split a connected (blocking) socket into its read half and its
    /// writer.
    pub(super) fn split(stream: TcpStream) -> io::Result<(ReadHalf, FramedWriter)> {
        let writer = FramedWriter {
            stream: stream.try_clone()?,
        };
        Ok((
            ReadHalf {
                stream,
                nonblocking: false,
            },
            writer,
        ))
    }

    /// A socket that can be read but never written.
    pub(super) struct ReadHalf {
        stream: TcpStream,
        /// The socket's blocking mode as last set through this half.
        nonblocking: bool,
    }

    impl ReadHalf {
        /// Append what one read returns to `acc`; `Ok(0)` means the peer
        /// closed. The socket's blocking mode is switched only when
        /// `nonblocking` differs from the last read's.
        pub fn read_into(&mut self, acc: &mut Vec<u8>, nonblocking: bool) -> io::Result<usize> {
            if self.nonblocking != nonblocking {
                self.stream.set_nonblocking(nonblocking)?;
                self.nonblocking = nonblocking;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            acc.extend_from_slice(&chunk[..n]);
            Ok(n)
        }

        /// Shut the connection both ways, now (both halves).
        pub fn shutdown(&self) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }

        /// A handle for [`ReadHalf::shutdown`] from another thread.
        pub fn try_clone(&self) -> io::Result<ReadHalf> {
            let stream = self.stream.try_clone()?;
            Ok(ReadHalf { stream, ..*self })
        }
    }

    /// The single funnel for socket writes.
    pub(super) struct FramedWriter {
        stream: TcpStream,
    }

    impl FramedWriter {
        /// Write one whole encoded frame. The read half shares this
        /// socket's file description and may have left it nonblocking
        /// (a [`super::NetClient`] after `try_recv`, a server connection
        /// with requests in flight), so a full send buffer waits for room
        /// here instead of failing with part of the frame written.
        pub fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
            let mut rest = frame;
            while !rest.is_empty() {
                match self.stream.write(rest) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => rest = &rest[n..],
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_micros(50))
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            self.stream.flush()
        }

        /// Crash injection only: flush a strict prefix of a frame and
        /// stop. The peer must treat the truncated tail as no-ack.
        pub fn write_partial(&mut self, frame: &[u8], upto: usize) -> io::Result<()> {
            let upto = upto.min(frame.len().saturating_sub(1));
            self.stream.write_all(&frame[..upto])?;
            self.stream.flush()
        }
    }
}

/// Tuning for a [`NetServer`]. Each connection's ring has the
/// service's `ring_slots`.
#[derive(Clone, Debug, Default)]
pub struct NetConfig {
    /// Per-connection in-flight cap; requests over it answer `Busy`.
    /// Clamped to the connection's ring slots (`0` = no extra cap, i.e.
    /// exactly the ring slots).
    pub max_in_flight: usize,
}

/// Retry hint carried on cap-rejection `Busy` frames.
const CAP_RETRY_HINT: Duration = Duration::from_micros(200);

/// Longest a connection with requests in flight parks on its ring
/// before it reads its socket again.
const PARK: Duration = Duration::from_micros(50);

/// What the accept loop and the connection threads share: `Arc`s into
/// the service, never the (crash-consumable) [`Service`] itself.
struct NetShared {
    /// Set before every socket is shut, by a crash or a stop.
    stop: AtomicBool,
    crashed: AtomicBool,
    /// The service's probe cell, asked at every [`Point::NET`] step.
    probe: Arc<ProbeCell>,
    /// A shutdown handle per connection being served, by connection id.
    /// A connection removes its entry when its thread ends.
    conns: parking_lot::Mutex<HashMap<u64, ReadHalf>>,
    metrics: Arc<NetMetrics>,
    /// Per-connection in-flight cap.
    cap: usize,
    /// What each connection's ring is made of.
    router: Arc<Router>,
    ring_metrics: Arc<RingMetrics>,
    ring_slots: usize,
    default_deadline: Duration,
}

impl NetShared {
    /// Set `stop`, then shut every connection's socket both ways. A
    /// connection registered after the shutdowns sees `stop` before it
    /// first reads.
    fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        for c in self.conns.lock().values() {
            c.shutdown();
        }
    }

    /// The network layer's power-failure instant: every socket is shut
    /// both ways, nothing further is read or written. Ring slots the
    /// connections still hold resolve through the ring's own crash
    /// semantics when the service is crashed.
    fn crash(&self) {
        self.crashed.store(true, Ordering::Release);
        self.halt();
    }
}

/// The TCP front end: an accept loop plus one thread per connection,
/// which reads and submits its requests and reaps and answers them.
/// Start with [`Service::serve_net`] or [`NetServer::start`].
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<NetShared>,
    /// The accept loop; it returns the connection threads still running
    /// when it stops.
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind a loopback listener and start serving `svc`'s rings.
    pub fn start(svc: &Service, cfg: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let ring_slots = svc.engine.cfg.ring_slots;
        let shared = Arc::new(NetShared {
            stop: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            probe: svc.engine.probe.clone(),
            conns: parking_lot::Mutex::new(HashMap::new()),
            metrics: Arc::default(),
            cap: match cfg.max_in_flight {
                0 => ring_slots,
                n => n.min(ring_slots),
            },
            router: svc.engine.router.clone(),
            ring_metrics: svc.ring_metrics.clone(),
            ring_slots,
            default_deadline: svc.engine.cfg.default_deadline,
        });
        shared.conns.locksan_label("net::conns", false);
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("kvserve-net-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn accept loop")
        };
        Ok(NetServer {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound loopback address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether an injected crash has torn the layer down.
    pub fn crashed(&self) -> bool {
        self.shared.crashed.load(Ordering::Acquire)
    }

    /// Connections currently being served.
    pub fn live_connections(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// Counters for the wire layer (frames, bytes, busy rejections,
    /// protocol errors, reaped disconnects).
    pub fn metrics(&self) -> NetSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Tear the layer down as a crash would (abrupt socket shutdown, no
    /// further bytes), without needing the probe to fire. The service
    /// underneath is untouched.
    pub fn crash_net(&self) {
        self.shared.crash();
    }

    /// Stop accepting, shut every connection, join all threads.
    pub fn stop(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.halt();
        // Wake the accept loop, which checks `stop` after every accept.
        let _ = TcpStream::connect(self.addr);
        for conn in accept.join().unwrap_or_default() {
            let _ = conn.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Start a [`NetServer`] over this service with the given tuning.
impl Service {
    /// Serve this service's rings over loopback TCP. The server holds
    /// no reference to the service itself (only `Arc`s to its router,
    /// ring metrics and probe cell), so [`Service::crash`] composes with
    /// a live server:
    /// in-flight wire requests resolve through the ring's `Stopped`
    /// verdicts.
    pub fn serve_net(&self, cfg: NetConfig) -> io::Result<NetServer> {
        NetServer::start(self, cfg)
    }
}

/// Accept connections until `stop`, one thread each. Returns the
/// threads that had not finished by then.
fn accept_loop(listener: TcpListener, net: Arc<NetShared>) -> Vec<JoinHandle<()>> {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for id in 0u64.. {
        let accepted = listener.accept();
        if net.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok((stream, _peer)) = accepted else {
            // Out of descriptors, say: back off instead of spinning.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        threads.retain(|t| !t.is_finished());
        net.metrics.accepted.inc();
        if let Ok(conn) = Conn::register(stream, id, &net) {
            threads.push(
                std::thread::Builder::new()
                    .name("kvserve-net-conn".into())
                    .spawn(move || conn.run())
                    .expect("spawn connection thread"),
            );
        }
    }
    threads
}

/// A connection's loop ended because the layer crashed: nothing more
/// is written.
struct Crashed;

/// One accepted connection, owned by the one thread that serves it.
/// Each pass of its loop reads what the socket has and acts on every
/// whole request frame in it, then reaps every ready completion and
/// writes its response.
struct Conn {
    net: Arc<NetShared>,
    /// This connection's key in [`NetShared::conns`].
    id: u64,
    stream: ReadHalf,
    writer: FramedWriter,
    ring: Ring,
    /// Ticket → correlation id of every request in flight.
    pending: HashMap<Ticket, u64>,
    /// Bytes read but not yet decoded: less than a frame between passes.
    acc: Vec<u8>,
    /// The encoded response being written.
    out: Vec<u8>,
    /// Whether request frames are still read; once not, the loop only
    /// reaps what is in flight.
    reading: bool,
    /// Nothing more is written: a write failed, or the server stopped
    /// and shut the socket.
    dead: bool,
}

impl Conn {
    /// Enter an accepted socket in the server's map and mint its ring.
    fn register(stream: TcpStream, id: u64, net: &Arc<NetShared>) -> io::Result<Conn> {
        let _ = stream.set_nodelay(true);
        let (stream, writer) = split(stream)?;
        net.conns.lock().insert(id, stream.try_clone()?);
        let ring = Ring::attach(
            net.ring_slots,
            net.router.clone(),
            net.ring_metrics.clone(),
            net.default_deadline,
        );
        Ok(Conn {
            net: net.clone(),
            id,
            stream,
            writer,
            ring,
            pending: HashMap::new(),
            acc: Vec::new(),
            out: Vec::new(),
            reading: true,
            dead: false,
        })
    }

    /// Serve the connection, close its socket, then leave the map: once
    /// `live_connections()` reads 0, every socket it counted is closed.
    fn run(mut self) {
        let _ = self.serve();
        let (net, id) = (self.net.clone(), self.id);
        drop(self);
        net.metrics.closed.inc();
        net.conns.lock().remove(&id);
    }

    /// Loop until reading has stopped and nothing is in flight, or the
    /// layer crashes. The socket blocks while nothing is in flight, so
    /// an idle connection sleeps in `read`; otherwise the loop parks on
    /// the ring for at most [`PARK`] between nonblocking reads.
    fn serve(&mut self) -> Result<(), Crashed> {
        loop {
            if self.net.crashed.load(Ordering::Acquire) {
                return Err(Crashed);
            }
            if self.net.stop.load(Ordering::Acquire) {
                self.reading = false;
                self.dead = true;
            }
            let read = self.reading && self.read()?;
            let reaped = self.reap()?;
            if !self.reading && self.pending.is_empty() {
                return Ok(());
            }
            if !read && !reaped {
                self.ring.park(PARK);
            }
        }
    }

    /// Read what the socket has, then act on every whole frame in it.
    /// Returns whether any bytes arrived.
    fn read(&mut self) -> Result<bool, Crashed> {
        let in_flight = !self.pending.is_empty();
        match self.stream.read_into(&mut self.acc, in_flight) {
            Ok(n) if n > 0 => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(false),
            // The peer closed, or the socket failed.
            _ => {
                self.reading = false;
                return Ok(false);
            }
        }
        let mut used = 0;
        while self.reading {
            match decode_frame(&self.acc[used..]) {
                Ok((frame, len)) => {
                    used += len;
                    self.on_frame(frame, len)?;
                }
                Err(FrameError::Closed | FrameError::Truncated) => break,
                Err(_) => {
                    // Malformed bytes: frame sync is unrecoverable, drop
                    // the connection.
                    self.net.metrics.protocol_errors.inc();
                    self.reading = false;
                }
            }
        }
        self.acc.drain(..used);
        Ok(true)
    }

    /// One decoded frame, `len` bytes on the wire: `Busy` over the cap,
    /// else into the ring.
    fn on_frame(&mut self, frame: Frame, len: usize) -> Result<(), Crashed> {
        self.net.metrics.frames_in.inc();
        self.net.metrics.bytes_in.add(len as u64);
        self.probe(Point::AfterReadFrame)?;
        let Frame::Request(req) = frame else {
            // Clients must not send responses.
            self.net.metrics.protocol_errors.inc();
            self.reading = false;
            return Ok(());
        };
        let submitted = if self.pending.len() >= self.net.cap {
            Err(ServeError::Overloaded {
                retry_after: CAP_RETRY_HINT,
            })
        } else {
            self.probe(Point::BeforeSubmit)?;
            match req.deadline_micros {
                0 => self.ring.submit_batch(req.ops),
                us => self
                    .ring
                    .submit_batch_deadline(req.ops, Duration::from_micros(us)),
            }
        };
        match submitted {
            Ok(ticket) => {
                self.pending.insert(ticket, req.corr);
            }
            // The cap, a full ring and a full shard queue all surface as
            // Busy frames.
            Err(e @ (ServeError::RingFull | ServeError::Overloaded { .. })) => {
                self.net.metrics.busy.inc();
                self.respond(req.corr, &Err(e));
            }
            // The service is torn down: a definite no-op verdict, then
            // no more reading.
            Err(e) => {
                self.respond(req.corr, &Err(e));
                self.reading = false;
            }
        }
        Ok(())
    }

    /// Reap every ready completion and write its response. Returns
    /// whether any completed.
    fn reap(&mut self) -> Result<bool, Crashed> {
        let mut any = false;
        while let Some(c) = self.ring.complete() {
            any = true;
            let corr = self
                .pending
                .remove(&c.ticket)
                .expect("only this connection submits to its ring");
            if !self.reading && self.dead {
                // Reap-or-die: the slot is free again, the response has
                // nowhere to go.
                self.net.metrics.reaped_after_disconnect.inc();
                continue;
            }
            self.probe(Point::AfterComplete)?;
            self.probe(Point::BeforeWriteResponse)?;
            self.out.clear();
            encode_response(&mut self.out, corr, &c.result);
            if self.net.probe.fires(Point::MidWrite) {
                // The injected torn write: a strict prefix of the
                // response, then the crash. The client must read this as
                // no-ack.
                let upto = HEADER_LEN + (self.out.len() - HEADER_LEN) / 2;
                let _ = self.writer.write_partial(&self.out, upto);
                self.net.crash();
                return Err(Crashed);
            }
            self.write_out();
        }
        Ok(any)
    }

    /// Ask the probe at `point`; if it fires, the layer crashes.
    fn probe(&self, point: Point) -> Result<(), Crashed> {
        if self.net.probe.fires(point) {
            self.net.crash();
            return Err(Crashed);
        }
        Ok(())
    }

    /// Encode one response and write it.
    fn respond(&mut self, corr: u64, reply: &Reply) {
        self.out.clear();
        encode_response(&mut self.out, corr, reply);
        self.write_out();
    }

    /// Write the encoded response unless the socket is dead.
    fn write_out(&mut self) {
        if self.dead {
            self.net.metrics.dead_socket_suppressed.inc();
            return;
        }
        match self.writer.write_frame(&self.out) {
            Ok(()) => {
                self.net.metrics.frames_out.inc();
                self.net.metrics.bytes_out.add(self.out.len() as u64);
            }
            Err(_) => self.dead = true,
        }
    }
}

/// Errors a [`NetClient`] can surface. `Serve` wraps the server's
/// definite verdicts; `Disconnected` is the one *indefinite* outcome —
/// the connection died without a response, so in-flight batches may or
/// may not have committed (whole, never torn).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(io::ErrorKind),
    /// The peer sent bytes that do not decode as a frame.
    Frame(FrameError),
    /// A definite server-side verdict (nothing executed).
    Serve(ServeError),
    /// The connection closed with no verdict for in-flight requests.
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(k) => write!(f, "socket error: {k:?}"),
            NetError::Frame(e) => write!(f, "protocol error: {e}"),
            NetError::Serve(e) => write!(f, "server verdict: {e}"),
            NetError::Disconnected => write!(f, "connection closed with requests in flight"),
        }
    }
}

impl std::error::Error for NetError {}

/// A handle that can abruptly kill a client connection from another
/// thread (the disconnect sweep's client-side "power cut").
pub struct NetKill(ReadHalf);

impl NetKill {
    /// Shut the connection both ways, now.
    pub fn kill(&self) {
        self.0.shutdown();
    }
}

/// A pipelined wire client: send any number of request frames, then
/// reap responses in arrival order. One instance is single-threaded by
/// design (clone the connection for concurrent clients); the open-loop
/// bench drives one of these exactly like it drives a [`Ring`].
pub struct NetClient {
    stream: ReadHalf,
    writer: FramedWriter,
    scratch: Vec<u8>,
    /// Bytes read but not yet decoded (partial frames span calls).
    acc: Vec<u8>,
    next_corr: u64,
    in_flight: usize,
}

impl NetClient {
    /// Connect to a [`NetServer`].
    pub fn connect(addr: SocketAddr) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let (stream, writer) = split(stream)?;
        Ok(NetClient {
            stream,
            writer,
            scratch: Vec::new(),
            acc: Vec::new(),
            next_corr: 1,
            in_flight: 0,
        })
    }

    /// A kill handle for the disconnect sweeps.
    pub fn kill_handle(&self) -> io::Result<NetKill> {
        Ok(NetKill(self.stream.try_clone()?))
    }

    /// Requests sent but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Send one batch under the server's default deadline; returns the
    /// correlation id its response will echo.
    pub fn send_batch(&mut self, ops: &[MapOp]) -> Result<u64, NetError> {
        self.send_batch_deadline(ops, Duration::ZERO)
    }

    /// [`NetClient::send_batch`] with an explicit deadline
    /// (`Duration::ZERO` = server default).
    pub fn send_batch_deadline(
        &mut self,
        ops: &[MapOp],
        deadline: Duration,
    ) -> Result<u64, NetError> {
        let corr = self.next_corr;
        self.next_corr += 1;
        self.scratch.clear();
        encode_request(&mut self.scratch, corr, deadline.as_micros() as u64, ops);
        self.writer
            .write_frame(&self.scratch)
            .map_err(|e| NetError::Io(e.kind()))?;
        self.in_flight += 1;
        Ok(corr)
    }

    /// Block until the next response arrives. `Disconnected` means the
    /// server went away with no verdict for whatever was in flight.
    pub fn recv(&mut self) -> Result<ResponseFrame, NetError> {
        loop {
            if let Some(r) = self.poll(true)? {
                return Ok(r);
            }
        }
    }

    /// Nonblocking reap: `Ok(None)` when no complete response has
    /// arrived yet.
    pub fn try_recv(&mut self) -> Result<Option<ResponseFrame>, NetError> {
        self.poll(false)
    }

    /// The next response, from the accumulator while it holds a whole
    /// one, else read off the socket; `Ok(None)` when a nonblocking read
    /// finds nothing.
    fn poll(&mut self, block: bool) -> Result<Option<ResponseFrame>, NetError> {
        loop {
            if let Some(r) = self.take_buffered()? {
                return Ok(Some(r));
            }
            match self.stream.read_into(&mut self.acc, !block) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(NetError::Io(e.kind())),
            }
        }
    }

    /// Decode one response out of the accumulator, if whole.
    fn take_buffered(&mut self) -> Result<Option<ResponseFrame>, NetError> {
        match decode_frame(&self.acc) {
            Ok((Frame::Response(r), used)) => {
                self.acc.drain(..used);
                self.in_flight = self.in_flight.saturating_sub(1);
                Ok(Some(r))
            }
            Ok((Frame::Request(_), _)) => Err(NetError::Frame(FrameError::BadKind(KIND_REQUEST))),
            Err(FrameError::Closed) | Err(FrameError::Truncated) => Ok(None),
            Err(e) => Err(NetError::Frame(e)),
        }
    }

    /// Blocking convenience mirroring [`Service::batch`]: send one
    /// batch, wait for its response, retry transparently on `Busy`.
    /// Any other server verdict comes back as `NetError::Serve`.
    pub fn batch(&mut self, ops: &[MapOp]) -> Result<Vec<Option<u64>>, NetError> {
        loop {
            let corr = self.send_batch(ops)?;
            let resp = self.recv_for(corr)?;
            match resp {
                Ok(vals) => return Ok(vals),
                Err(ServeError::Overloaded { retry_after }) => std::thread::sleep(retry_after),
                Err(e) => return Err(NetError::Serve(e)),
            }
        }
    }

    /// Receive until the response for `corr` arrives (responses for
    /// other correlation ids are dropped — only sound for callers that
    /// keep one request in flight, like [`NetClient::batch`]).
    fn recv_for(&mut self, corr: u64) -> Result<Reply, NetError> {
        loop {
            let r = self.recv()?;
            if r.corr == corr {
                return Ok(r.reply);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `try_recv` leaves the client's socket nonblocking. Sends that then
    /// meet full socket buffers must wait for the peer to read, not fail
    /// with a torn frame on the wire.
    #[test]
    fn send_after_try_recv_waits_out_a_full_socket_buffer() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = NetClient::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        assert!(client.try_recv().unwrap().is_none());
        let ops: Vec<MapOp> = (0..4096).map(|k| MapOp::Insert(k, k)).collect();
        let mut frame = Vec::new();
        encode_request(&mut frame, 1, 0, &ops);
        // 64 MiB: more than loopback socket buffers hold.
        let frames = (64 << 20) / frame.len();
        let (sent_tx, sent_rx) = std::sync::mpsc::channel::<()>();
        let reader = std::thread::spawn(move || {
            // Read nothing until the sender finishes or stalls on the
            // full buffers.
            let _ = sent_rx.recv_timeout(Duration::from_millis(300));
            io::copy(&mut peer, &mut io::sink()).unwrap()
        });
        for _ in 0..frames {
            client.send_batch(&ops).expect("a full buffer waits");
        }
        drop(client);
        let _ = sent_tx.send(());
        assert_eq!(reader.join().unwrap(), (frames * frame.len()) as u64);
    }

    fn roundtrip_request(corr: u64, deadline: u64, ops: Vec<MapOp>) {
        let mut buf = Vec::new();
        encode_request(&mut buf, corr, deadline, &ops);
        let (frame, used) = decode_frame(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(
            frame,
            Frame::Request(RequestFrame {
                corr,
                deadline_micros: deadline,
                ops
            })
        );
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(0, 0, vec![]);
        roundtrip_request(
            7,
            1_000_000,
            vec![MapOp::Get(1), MapOp::Insert(2, 3), MapOp::Remove(u64::MAX)],
        );
    }

    #[test]
    fn response_roundtrips() {
        let replies: Vec<Reply> = vec![
            Ok(vec![]),
            Ok(vec![None, Some(0), Some(u64::MAX)]),
            Err(ServeError::Timeout),
            Err(ServeError::Aborted),
            Err(ServeError::Stopped),
            Err(ServeError::Overloaded {
                retry_after: Duration::from_micros(250),
            }),
        ];
        for reply in replies {
            let mut buf = Vec::new();
            encode_response(&mut buf, 42, &reply);
            let (frame, used) = decode_frame(&buf).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(frame, Frame::Response(ResponseFrame { corr: 42, reply }));
        }
        // Statuses 4 and 6 (retired verdicts) are no longer statuses at
        // all.
        for retired in [4, 6] {
            let mut buf = Vec::new();
            encode_response(&mut buf, 42, &Err(ServeError::Timeout));
            buf[HEADER_LEN + 8] = retired;
            assert_eq!(
                decode_frame(&buf).unwrap_err(),
                FrameError::BadStatus(retired)
            );
        }
    }

    #[test]
    fn ring_full_crosses_as_busy() {
        let mut buf = Vec::new();
        encode_response(&mut buf, 1, &Err(ServeError::RingFull));
        let (frame, _) = decode_frame(&buf).unwrap();
        let Frame::Response(r) = frame else {
            panic!("not a response")
        };
        assert_eq!(
            r.reply,
            Err(ServeError::Overloaded {
                retry_after: Duration::ZERO
            })
        );
    }

    #[test]
    fn truncation_is_clean_at_every_length() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 9, 17, &[MapOp::Insert(1, 2), MapOp::Get(3)]);
        for cut in 0..buf.len() {
            let err = decode_frame(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Closed | FrameError::Truncated),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn hostile_headers_reject_before_allocation() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, 0, &[MapOp::Get(5)]);
        let mut oversized = buf.clone();
        oversized[..4].copy_from_slice(&(MAX_BODY + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&oversized).unwrap_err(),
            FrameError::Oversized(MAX_BODY + 1)
        );
        let mut bad_ver = buf.clone();
        bad_ver[4] = 99;
        assert_eq!(
            decode_frame(&bad_ver).unwrap_err(),
            FrameError::BadVersion(99)
        );
        let mut bad_kind = buf.clone();
        bad_kind[5] = 7;
        assert_eq!(decode_frame(&bad_kind).unwrap_err(), FrameError::BadKind(7));
        let mut bad_flags = buf.clone();
        bad_flags[6] = 1;
        assert_eq!(
            decode_frame(&bad_flags).unwrap_err(),
            FrameError::BadFlags(1)
        );
        let mut bad_tag = buf;
        bad_tag[HEADER_LEN + 20] = 9;
        assert_eq!(decode_frame(&bad_tag).unwrap_err(), FrameError::BadTag(9));
    }

    #[test]
    fn count_length_disagreement_is_a_size_mismatch() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, 0, &[MapOp::Get(5)]);
        // Claim two ops but carry one.
        let mut lie = buf.clone();
        lie[HEADER_LEN + 16..HEADER_LEN + 20].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(decode_frame(&lie).unwrap_err(), FrameError::SizeMismatch);
    }
}
