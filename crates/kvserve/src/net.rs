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
//! (`Timeout`, `Aborted`, `Stopped`, `Rerouted`, `Busy`: nothing
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
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
const STATUS_REROUTED: u8 = 4;
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
    /// The underlying socket failed mid-frame.
    Io(io::ErrorKind),
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
            FrameError::Io(k) => write!(f, "socket error: {k:?}"),
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
        Err(ServeError::Rerouted) => buf.push(STATUS_REROUTED),
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
        STATUS_REROUTED => Err(ServeError::Rerouted),
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
    if matches!(
        status,
        STATUS_TIMEOUT | STATUS_ABORTED | STATUS_STOPPED | STATUS_REROUTED
    ) && !rest.is_empty()
    {
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

/// Blocking read of exactly one frame from `r`. Distinguishes a clean
/// close on a frame boundary ([`FrameError::Closed`]) from a stream
/// that dies mid-frame ([`FrameError::Truncated`]) — the latter is how
/// a client sees a `MidWrite` crash: a partial response is *not* an ack.
pub fn read_frame(r: &mut impl Read, scratch: &mut Vec<u8>) -> Result<Frame, FrameError> {
    let mut hdr = [0u8; HEADER_LEN];
    let mut at = 0;
    while at < HEADER_LEN {
        match r.read(&mut hdr[at..]) {
            Ok(0) => {
                return Err(if at == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                })
            }
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    let (kind, len) = decode_header(&hdr)?;
    scratch.clear();
    scratch.resize(len, 0);
    let mut at = 0;
    while at < len {
        match r.read(&mut scratch[at..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    match kind {
        KIND_REQUEST => Ok(Frame::Request(decode_request_body(scratch)?)),
        _ => Ok(Frame::Response(decode_response_body(scratch)?)),
    }
}

use wire::{split, FramedWriter, ReadHalf};

/// The only code that holds a writable socket. A connected socket is
/// [`split`] into a [`ReadHalf`], which can read, switch blocking mode
/// and shut down but has no write method, and a [`FramedWriter`], whose
/// only writes are whole frames or the `MidWrite` crash injection's
/// torn prefix. Every connection, client and kill handle outside this
/// module holds one of the two, so a raw socket write anywhere else in
/// the layer — an ack leaked around the dead-connection suppression, or
/// a whole frame past a `MidWrite` crash — does not compile.
mod wire {
    use std::io::{self, Read, Write};
    use std::net::{Shutdown, TcpStream};
    use std::time::Duration;

    /// Split a connected socket into its read half and its writer.
    pub(super) fn split(stream: TcpStream) -> io::Result<(ReadHalf, FramedWriter)> {
        let writer = FramedWriter {
            stream: stream.try_clone()?,
        };
        Ok((ReadHalf(stream), writer))
    }

    /// A socket that can be read but never written.
    pub(super) struct ReadHalf(TcpStream);

    impl ReadHalf {
        pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
            self.0.set_nonblocking(on)
        }

        /// Shut the connection both ways, now (both halves).
        pub fn shutdown(&self) {
            let _ = self.0.shutdown(Shutdown::Both);
        }

        pub fn try_clone(&self) -> io::Result<ReadHalf> {
            self.0.try_clone().map(ReadHalf)
        }
    }

    impl Read for ReadHalf {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }

    /// The single funnel for socket writes.
    pub(super) struct FramedWriter {
        stream: TcpStream,
    }

    impl FramedWriter {
        /// Write one whole encoded frame. A [`super::NetClient`]'s socket
        /// is left nonblocking by `try_recv` (its reader and writer share
        /// one file description), so a full send buffer waits for room
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

/// Everything a connection needs to mint its ring without holding the
/// (crash-consumable) [`Service`].
struct RingSource {
    router: Arc<Router>,
    metrics: Arc<RingMetrics>,
    slots: usize,
    default_deadline: Duration,
}

impl RingSource {
    fn mint(&self) -> Ring {
        Ring::attach(
            self.slots,
            self.router.clone(),
            self.metrics.clone(),
            self.default_deadline,
        )
    }
}

/// One accepted connection's shared handle, kept by the server so a
/// crash (or stop) can shut every socket abruptly.
struct ConnShared {
    stream: ReadHalf,
    /// Once set, no thread writes another byte to this socket.
    dead: AtomicBool,
}

impl ConnShared {
    fn kill(&self) {
        self.dead.store(true, Ordering::Release);
        self.stream.shutdown();
    }
}

struct NetShared {
    stop: AtomicBool,
    crashed: AtomicBool,
    /// The service's probe cell, asked at every [`Point::NET`] step.
    probe: Arc<ProbeCell>,
    conns: parking_lot::Mutex<Vec<Arc<ConnShared>>>,
    live: AtomicUsize,
    metrics: Arc<NetMetrics>,
    cfg: NetConfig,
    rings: RingSource,
}

impl NetShared {
    /// The network layer's power-failure instant: every socket is shut
    /// both ways, nothing further is read or written. Ring slots the
    /// connections still hold resolve through the ring's own crash
    /// semantics when the service is crashed.
    fn crash(&self) {
        self.crashed.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        for c in self.conns.lock().iter() {
            c.kill();
        }
    }
}

/// The TCP front end: an accept loop plus two threads per connection
/// (a reader that decodes and submits, a writer that reaps and
/// responds). Start with [`Service::serve_net`] or [`NetServer::start`].
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<NetShared>,
    accept: Option<JoinHandle<()>>,
    workers: Arc<parking_lot::Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind a loopback listener and start serving `svc`'s rings.
    pub fn start(svc: &Service, cfg: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(NetShared {
            stop: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            probe: svc.engine.probe.clone(),
            conns: parking_lot::Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
            metrics: Arc::default(),
            cfg,
            rings: RingSource {
                router: svc.engine.router.clone(),
                metrics: svc.ring_metrics.clone(),
                slots: svc.engine.cfg.ring_slots,
                default_deadline: svc.engine.cfg.default_deadline,
            },
        });
        shared.conns.locksan_label("net::conns", false);
        let workers = Arc::new(parking_lot::Mutex::new(Vec::new()));
        workers.locksan_label("net::workers", false);
        let accept = {
            let shared = shared.clone();
            let workers = workers.clone();
            std::thread::Builder::new()
                .name("kvserve-net-accept".into())
                .spawn(move || accept_loop(listener, shared, workers))
                .expect("spawn accept loop")
        };
        Ok(NetServer {
            addr,
            shared,
            accept: Some(accept),
            workers,
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
        self.shared.live.load(Ordering::Acquire)
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
        self.shared.stop.store(true, Ordering::Release);
        for c in self.shared.conns.lock().iter() {
            c.kill();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
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

fn accept_loop(
    listener: TcpListener,
    shared: Arc<NetShared>,
    workers: Arc<parking_lot::Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                shared.metrics.accepted.inc();
                spawn_conn(stream, &shared, &workers);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(_) => std::thread::sleep(Duration::from_micros(500)),
        }
    }
}

/// Per-connection state shared by its reader and writer threads.
struct Conn {
    net: Arc<NetShared>,
    cs: Arc<ConnShared>,
    ring: Ring,
    /// Ticket → correlation id for in-flight requests. Submission
    /// inserts under this lock *around* the ring submit, so the writer
    /// can never reap a ticket it cannot correlate.
    pending: parking_lot::Mutex<HashMap<Ticket, u64>>,
    outstanding: AtomicUsize,
    reader_done: AtomicBool,
    writer: parking_lot::Mutex<FramedWriter>,
}

impl Conn {
    /// Write one whole response frame unless the socket is dead; a
    /// failed write marks it dead so nothing is ever written after.
    fn respond(&self, frame: &[u8]) {
        if self.cs.dead.load(Ordering::Acquire) {
            self.net.metrics.dead_socket_suppressed.inc();
            return;
        }
        let mut w = self.writer.lock();
        // Re-check under the writer lock: a kill between the check and
        // the lock must still suppress the write.
        if self.cs.dead.load(Ordering::Acquire) {
            self.net.metrics.dead_socket_suppressed.inc();
            return;
        }
        match w.write_frame(frame) {
            Ok(()) => {
                self.net.metrics.frames_out.inc();
                self.net.metrics.bytes_out.add(frame.len() as u64);
            }
            Err(_) => self.cs.dead.store(true, Ordering::Release),
        }
    }
}

fn spawn_conn(
    stream: TcpStream,
    shared: &Arc<NetShared>,
    workers: &Arc<parking_lot::Mutex<Vec<JoinHandle<()>>>>,
) {
    let Ok((stream, writer)) = split(stream) else {
        return;
    };
    let cs = Arc::new(ConnShared {
        stream: match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        },
        dead: AtomicBool::new(false),
    });
    shared.conns.lock().push(cs.clone());
    shared.live.fetch_add(1, Ordering::AcqRel);
    let conn = Arc::new(Conn {
        net: shared.clone(),
        cs,
        ring: shared.rings.mint(),
        pending: parking_lot::Mutex::new(HashMap::new()),
        outstanding: AtomicUsize::new(0),
        reader_done: AtomicBool::new(false),
        writer: parking_lot::Mutex::new(writer),
    });
    conn.pending.locksan_label("net::pending", false);
    conn.writer.locksan_label("net::writer", false);
    let mut guard = workers.lock();
    {
        let conn = conn.clone();
        guard.push(
            std::thread::Builder::new()
                .name("kvserve-net-read".into())
                .spawn(move || reader_loop(stream, conn))
                .expect("spawn conn reader"),
        );
    }
    guard.push(
        std::thread::Builder::new()
            .name("kvserve-net-write".into())
            .spawn(move || writer_loop(conn))
            .expect("spawn conn writer"),
    );
}

fn reader_loop(mut stream: ReadHalf, conn: Arc<Conn>) {
    let net = conn.net.clone();
    let mut scratch = Vec::new();
    let cap = {
        let slots = conn.ring.capacity();
        if net.cfg.max_in_flight == 0 {
            slots
        } else {
            net.cfg.max_in_flight.min(slots)
        }
    };
    while !net.stop.load(Ordering::Acquire) {
        let frame = match read_frame(&mut stream, &mut scratch) {
            Ok(f) => f,
            Err(FrameError::Closed) => break,
            Err(FrameError::Truncated) | Err(FrameError::Io(_)) => break,
            Err(_) => {
                // Malformed bytes: frame sync is unrecoverable, drop
                // the connection (the codec consumed nothing partial).
                net.metrics.protocol_errors.inc();
                break;
            }
        };
        net.metrics.frames_in.inc();
        net.metrics
            .bytes_in
            .add((HEADER_LEN + scratch.len()) as u64);
        if net.probe.fires(Point::AfterReadFrame) {
            net.crash();
            break;
        }
        let req = match frame {
            Frame::Request(r) => r,
            Frame::Response(_) => {
                // Clients must not send responses.
                net.metrics.protocol_errors.inc();
                break;
            }
        };
        if conn.outstanding.load(Ordering::Acquire) >= cap {
            let mut busy = Vec::new();
            encode_response(
                &mut busy,
                req.corr,
                &Err(ServeError::Overloaded {
                    retry_after: CAP_RETRY_HINT,
                }),
            );
            net.metrics.busy.inc();
            conn.respond(&busy);
            continue;
        }
        if net.probe.fires(Point::BeforeSubmit) {
            net.crash();
            break;
        }
        let deadline = if req.deadline_micros == 0 {
            net.rings.default_deadline
        } else {
            Duration::from_micros(req.deadline_micros)
        };
        // Insert-under-lock around the submit: a completion cannot be
        // reaped before its correlation id is recorded.
        let verdict = {
            let mut pending = conn.pending.lock();
            match conn.ring.submit_batch_deadline(req.ops, deadline) {
                Ok(ticket) => {
                    pending.insert(ticket, req.corr);
                    conn.outstanding.fetch_add(1, Ordering::AcqRel);
                    None
                }
                Err(e) => Some(e),
            }
        };
        if let Some(e) = verdict {
            match e {
                // Structural backpressure surfaces as Busy frames.
                ServeError::RingFull | ServeError::Overloaded { .. } => {
                    let mut busy = Vec::new();
                    encode_response(&mut busy, req.corr, &Err(e));
                    net.metrics.busy.inc();
                    conn.respond(&busy);
                }
                // The service is torn down: a definite no-op verdict,
                // then the connection closes.
                other => {
                    let mut f = Vec::new();
                    encode_response(&mut f, req.corr, &Err(other));
                    conn.respond(&f);
                    break;
                }
            }
        }
    }
    conn.reader_done.store(true, Ordering::Release);
}

fn writer_loop(conn: Arc<Conn>) {
    let net = conn.net.clone();
    let mut frame = Vec::new();
    loop {
        if net.crashed.load(Ordering::Acquire) {
            break;
        }
        let Some(completion) = conn.ring.complete() else {
            let reader_done = conn.reader_done.load(Ordering::Acquire);
            if reader_done && conn.outstanding.load(Ordering::Acquire) == 0 {
                break;
            }
            if net.stop.load(Ordering::Acquire) && conn.ring.in_flight() == 0 {
                // Stopping and nothing left to resolve for anyone.
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
            continue;
        };
        let corr = conn.pending.lock().remove(&completion.ticket);
        conn.outstanding.fetch_sub(1, Ordering::AcqRel);
        let Some(corr) = corr else {
            // Cannot happen (insertion is under the pending lock around
            // the submit), but never write an uncorrelatable response.
            continue;
        };
        if net.probe.fires(Point::AfterComplete) {
            net.crash();
            break;
        }
        if net.probe.fires(Point::BeforeWriteResponse) {
            net.crash();
            break;
        }
        frame.clear();
        encode_response(&mut frame, corr, &completion.result);
        if net.probe.fires(Point::MidWrite) {
            net.crash();
            // The injected torn write: flush a strict prefix of the
            // response, then die. The client must read this as no-ack.
            let upto = HEADER_LEN + (frame.len() - HEADER_LEN) / 2;
            let _ = conn.writer.lock().write_partial(&frame, upto);
            break;
        }
        conn.respond(&frame);
    }
    // Reap-or-die: past this point the connection is closing. If the
    // layer is still alive (client disconnect, graceful stop), drain
    // the connection's remaining completions so every ring slot is
    // freed — without ever writing to the (possibly dead) socket.
    if !net.crashed.load(Ordering::Acquire) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while conn.outstanding.load(Ordering::Acquire) > 0 {
            if net.crashed.load(Ordering::Acquire) || std::time::Instant::now() >= deadline {
                break;
            }
            match conn.ring.complete() {
                Some(c) => {
                    if conn.pending.lock().remove(&c.ticket).is_some() {
                        conn.outstanding.fetch_sub(1, Ordering::AcqRel);
                        net.metrics.reaped_after_disconnect.inc();
                    }
                }
                None => std::thread::sleep(Duration::from_micros(100)),
            }
        }
    }
    conn.cs.kill();
    net.live.fetch_sub(1, Ordering::AcqRel);
    net.metrics.closed.inc();
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
    /// Accumulator for nonblocking reads (partial frames span calls).
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
        // Serve from the accumulator first (a blocking read may have
        // been preceded by nonblocking reads that buffered frames).
        if let Some(r) = self.take_buffered()? {
            return Ok(r);
        }
        self.stream
            .set_nonblocking(false)
            .map_err(|e| NetError::Io(e.kind()))?;
        loop {
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => self.acc.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e.kind())),
            }
            if let Some(r) = self.take_buffered()? {
                return Ok(r);
            }
        }
    }

    /// Nonblocking reap: `Ok(None)` when no complete response has
    /// arrived yet.
    pub fn try_recv(&mut self) -> Result<Option<ResponseFrame>, NetError> {
        if let Some(r) = self.take_buffered()? {
            return Ok(Some(r));
        }
        self.stream
            .set_nonblocking(true)
            .map_err(|e| NetError::Io(e.kind()))?;
        loop {
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => {
                    self.acc.extend_from_slice(&chunk[..n]);
                    if let Some(r) = self.take_buffered()? {
                        return Ok(Some(r));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
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
            Err(ServeError::Rerouted),
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
        // Status 6 (a retired rejection) is no longer a status at all.
        let mut buf = Vec::new();
        encode_response(&mut buf, 42, &Err(ServeError::Timeout));
        buf[HEADER_LEN + 8] = 6;
        assert_eq!(decode_frame(&buf).unwrap_err(), FrameError::BadStatus(6));
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
