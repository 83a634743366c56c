//! Client side of the staging wire: a pooled, retrying [`RemoteClient`]
//! for one service. Workflows reach it through
//! [`crate::cluster::ShardedClient`], which is also the asynchronous
//! transport's backend. Frames come off the socket through
//! [`crate::frame`]'s reader and chunked objects move through
//! `crate::stream`; this module adds the exchange shapes and the policy:
//! any fault mid-exchange drops the socket and the retry loop classifies
//! it.
//!
//! Retry policy, in one sentence: transient transport faults (refused or
//! reset connections, timeouts, short reads, corrupted frames, `Busy`
//! refusals) are retried with bounded exponential backoff on a fresh
//! connection; **`OutOfMemory` is never retried** — it is the paper's
//! memory-pressure policy signal (Eq. 10), and hiding it behind retries
//! would blind the adaptation engine that must react to it. Nor is
//! **`Unreadable`**, a service's answer to a read it cannot serve whole:
//! the same read would meet the same unreadable extent. Both arrive on a
//! healthy, in-step connection, which goes back to the pool.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use xlayer_amr::boxes::IBox;
use xlayer_staging::{DataObject, ObjectDesc};

use crate::frame::RecvError;
use crate::iovec::write_vectored_all;
use crate::pool::{BufferPool, MAX_CLASS_BYTES};
use crate::stream::{recv_header, recv_payload, send_stream, Assembler, Fault, Step};
use crate::wire::{
    checksum, frame_header, put_frame_parts, ErrorFrame, Request, Response, ServiceSnapshot,
    WireError, CHUNK,
};

/// Configuration of a [`RemoteClient`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Timeout for establishing a connection.
    pub connect_timeout: Duration,
    /// Read/write timeout on an established connection.
    pub io_timeout: Duration,
    /// Idle connections kept for reuse.
    pub pool_size: usize,
    /// Retries after the first attempt (so `max_retries = 3` means up to
    /// four attempts).
    pub max_retries: u32,
    /// First backoff sleep; doubles per retry, capped at
    /// [`ClientConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(5),
            pool_size: 4,
            max_retries: 3,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

/// Why a remote operation failed.
#[derive(Debug)]
pub enum RemoteError {
    /// Transport failure that survived every retry.
    Io(std::io::Error),
    /// The peer's frame could not be decoded (survived every retry).
    Wire(WireError),
    /// The staging space rejected the put — the memory-pressure policy
    /// signal. Deliberately NOT retried; mirrors
    /// [`xlayer_staging::StagingError::OutOfMemory`].
    OutOfMemory {
        /// Space capacity in bytes.
        cap: u64,
        /// Bytes already resident.
        used: u64,
        /// Size of the rejected object.
        requested: u64,
    },
    /// The service refused the request for a non-transient reason
    /// (`BadRequest`, `ShuttingDown`, `Unreadable`), or `Busy` outlasted
    /// the retries.
    Refused(ErrorFrame),
    /// The service answered with a response type that does not match the
    /// request (protocol violation).
    Protocol(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Io(e) => write!(f, "remote staging I/O error: {e}"),
            RemoteError::Wire(e) => write!(f, "remote staging wire error: {e}"),
            RemoteError::OutOfMemory {
                cap,
                used,
                requested,
            } => write!(
                f,
                "remote staging out of memory: cap {cap} B, used {used} B, requested {requested} B"
            ),
            RemoteError::Refused(e) => write!(f, "remote staging refused request: {e}"),
            RemoteError::Protocol(d) => write!(f, "remote staging protocol violation: {d}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<RecvError> for RemoteError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Io(e) => RemoteError::Io(e),
            RecvError::Wire(e) => RemoteError::Wire(e),
        }
    }
}

/// A get stream's fault in the retry loop's terms: corrupted or short
/// bytes may be connection-local and are retried as wire errors; a peer
/// that breaks the stream's sequencing is a protocol violation.
impl From<Fault> for RemoteError {
    fn from(fault: Fault) -> Self {
        match fault.wire {
            Some(e) => RemoteError::Wire(e),
            None => RemoteError::Protocol(fault.detail),
        }
    }
}

/// Split a decoded response into what `call_with` classifies: the typed
/// refusal, or any other response.
fn refusal(resp: Response) -> Result<Response, ErrorFrame> {
    match resp {
        Response::Error(e) => Err(e),
        other => Ok(other),
    }
}

/// Is this I/O failure worth a fresh connection and another attempt?
fn transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::Interrupted
    )
}

/// Point-in-time copy of a client's retry counters, by cause. Each field
/// counts one retryable-failure classification inside the
/// [`RemoteClient`] retry loop — including the failure that exhausts the
/// budget — so `busy + io + wire` is the number of extra attempts the
/// client made beyond the first try of each op. Feed it to a
/// retry-amplification metric as `1 + retries / completed_ops`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Retries triggered by a `Busy` refusal frame from the service.
    pub retries_busy: u64,
    /// Retries triggered by a transient transport failure (refused or
    /// reset connection, timeout, short read, …).
    pub retries_io: u64,
    /// Retries triggered by an undecodable or corrupted response frame.
    pub retries_wire: u64,
}

impl ClientStats {
    /// Total retries across all causes.
    pub fn total(&self) -> u64 {
        self.retries_busy
            .saturating_add(self.retries_io)
            .saturating_add(self.retries_wire)
    }

    /// Field-wise sum (aggregating per-shard clients into a cluster view).
    pub fn add(&mut self, other: &ClientStats) {
        self.retries_busy = self.retries_busy.saturating_add(other.retries_busy);
        self.retries_io = self.retries_io.saturating_add(other.retries_io);
        self.retries_wire = self.retries_wire.saturating_add(other.retries_wire);
    }
}

/// Atomic backing store for [`ClientStats`]. Pure event counters: Relaxed
/// everywhere, nothing is ordered against them.
#[derive(Default)]
struct RetryCounters {
    busy: AtomicU64,
    io: AtomicU64,
    wire: AtomicU64,
}

struct ClientInner {
    addr: SocketAddr,
    cfg: ClientConfig,
    pool: Mutex<Vec<TcpStream>>,
    bufs: Arc<BufferPool>,
    next_id: AtomicU64,
    retries: RetryCounters,
}

/// A client of a [`crate::service::StagingService`]. Cheap to clone (all
/// clones share the connection pool); safe to use from many threads.
#[derive(Clone)]
pub struct RemoteClient {
    inner: Arc<ClientInner>,
}

impl RemoteClient {
    /// Resolve `addr` (e.g. `"127.0.0.1:7001"`) and build a client. No
    /// connection is opened until the first request.
    pub fn connect(addr: &str, cfg: ClientConfig) -> std::io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "address resolved empty",
            )
        })?;
        Ok(RemoteClient {
            inner: Arc::new(ClientInner {
                addr,
                cfg,
                pool: Mutex::new(Vec::new()),
                bufs: Arc::new(BufferPool::new()),
                next_id: AtomicU64::new(1),
                retries: RetryCounters::default(),
            }),
        })
    }

    /// The resolved service address.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The client-side buffer pool (scratch for frame bodies and received
    /// payloads; all clones of this client share it).
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.inner.bufs
    }

    fn checkout(&self) -> std::io::Result<TcpStream> {
        if let Some(s) = self.inner.pool.lock().pop() {
            return Ok(s);
        }
        let s = TcpStream::connect_timeout(&self.inner.addr, self.inner.cfg.connect_timeout)?;
        s.set_read_timeout(Some(self.inner.cfg.io_timeout))?;
        s.set_write_timeout(Some(self.inner.cfg.io_timeout))?;
        let _ = s.set_nodelay(true);
        Ok(s)
    }

    fn checkin(&self, s: TcpStream) {
        let mut pool = self.inner.pool.lock();
        if pool.len() < self.inner.cfg.pool_size {
            pool.push(s);
        }
    }

    /// Send one request frame: body encoded into pooled scratch, header +
    /// body written vectored. For `Put`, the payload bytes are written as
    /// their own segment straight from the object — never copied into the
    /// frame.
    fn send_request(
        &self,
        stream: &mut TcpStream,
        req: &Request,
        id: u64,
    ) -> Result<(), RemoteError> {
        let mut scratch = self.inner.bufs.acquire(0);
        if let Request::Put(obj) = req {
            let header = put_frame_parts(obj, id, &mut scratch);
            write_vectored_all(stream, &[&header, &scratch, obj.payload.as_ref()])
                .map_err(RemoteError::Io)
        } else {
            req.encode_body(&mut scratch);
            let header = frame_header(req.opcode(), id, scratch.len() as u32, checksum(&scratch));
            write_vectored_all(stream, &[&header, &scratch]).map_err(RemoteError::Io)
        }
    }

    /// Read one response frame into pooled scratch and decode it.
    fn read_response(&self, stream: &mut TcpStream, id: u64) -> Result<Response, RemoteError> {
        let header = recv_header(stream)?;
        let payload = recv_payload(stream, &self.inner.bufs, &header)?;
        if header.request_id != id && header.request_id != 0 {
            return Err(RemoteError::Protocol(format!(
                "response id {} for request id {id}",
                header.request_id
            )));
        }
        Response::decode_body(header.opcode, &payload).map_err(RemoteError::Wire)
    }

    /// One request/response exchange on one connection. Any error means the
    /// connection is dropped, not returned to the pool.
    fn exchange(&self, stream: &mut TcpStream, req: &Request) -> Result<Response, RemoteError> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.send_request(stream, req, id)?;
        self.read_response(stream, id)
    }

    /// Run one-attempt exchanges under the retry policy: transient
    /// transport failures retry with bounded exponential backoff on a
    /// fresh connection; `OutOfMemory`, `Unreadable`, `BadRequest` and
    /// `ShuttingDown` responses return immediately — only the transport is
    /// retried, never policy. An attempt yields what the exchange was for,
    /// or the typed refusal the service answered it with.
    fn call_with<T>(
        &self,
        attempt_once: impl Fn(&Self, &mut TcpStream) -> Result<Result<T, ErrorFrame>, RemoteError>,
    ) -> Result<T, RemoteError> {
        let cfg = &self.inner.cfg;
        let mut backoff = cfg.backoff_base;
        let mut last_err = None;
        for attempt in 0..=cfg.max_retries {
            if attempt > 0 {
                std::thread::sleep(backoff.min(cfg.backoff_cap));
                backoff = backoff.saturating_mul(2);
            }
            let mut stream = match self.checkout() {
                Ok(s) => s,
                Err(e) if transient(e.kind()) => {
                    self.inner.retries.io.fetch_add(1, Ordering::Relaxed);
                    last_err = Some(RemoteError::Io(e));
                    continue;
                }
                Err(e) => return Err(RemoteError::Io(e)),
            };
            match attempt_once(self, &mut stream) {
                Ok(Err(ErrorFrame::OutOfMemory {
                    cap,
                    used,
                    requested,
                })) => {
                    // Policy signal: surface it, keep the healthy connection.
                    self.checkin(stream);
                    return Err(RemoteError::OutOfMemory {
                        cap,
                        used,
                        requested,
                    });
                }
                Ok(Err(lost @ ErrorFrame::Unreadable { .. })) => {
                    // The version is lost on the service's side, answered
                    // before any descriptor: the connection is in step.
                    self.checkin(stream);
                    return Err(RemoteError::Refused(lost));
                }
                Ok(Err(busy @ ErrorFrame::Busy { .. })) => {
                    // Transient service-side condition; retry with backoff.
                    self.inner.retries.busy.fetch_add(1, Ordering::Relaxed);
                    last_err = Some(RemoteError::Refused(busy));
                }
                // `BadRequest` / `ShuttingDown`: the stream may be out of
                // step, so the connection is dropped.
                Ok(Err(e)) => return Err(RemoteError::Refused(e)),
                Ok(Ok(done)) => {
                    self.checkin(stream);
                    return Ok(done);
                }
                Err(RemoteError::Io(e)) if transient(e.kind()) => {
                    // Stale pooled connection or flaky link: fresh socket
                    // next attempt.
                    self.inner.retries.io.fetch_add(1, Ordering::Relaxed);
                    last_err = Some(RemoteError::Io(e));
                }
                Err(RemoteError::Wire(e)) => {
                    // A corrupted or short frame may be connection-local.
                    self.inner.retries.wire.fetch_add(1, Ordering::Relaxed);
                    last_err = Some(RemoteError::Wire(e));
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            RemoteError::Io(std::io::Error::other(
                "retries exhausted without a recorded error",
            ))
        }))
    }

    /// Send a request under the retry policy (see [`Self::call_with`]).
    pub fn call(&self, req: &Request) -> Result<Response, RemoteError> {
        self.call_with(|me, stream| me.exchange(stream, req).map(refusal))
    }

    /// Store one object; returns the shard it landed on. Picks the
    /// transfer protocol by size: a payload that reaches the buffer pool's
    /// largest size class ([`MAX_CLASS_BYTES`]) streams as chunks — as one
    /// frame the service could not receive it into a recycled buffer (and
    /// past `MAX_PAYLOAD` it could not be framed at all) — and a smaller
    /// one goes as a single frame.
    pub fn put(&self, obj: &DataObject) -> Result<u32, RemoteError> {
        if obj.desc.bytes >= MAX_CLASS_BYTES as u64 {
            self.put_chunked(obj)
        } else {
            self.put_whole(obj)
        }
    }

    /// Store one object as a single `Put` frame.
    fn put_whole(&self, obj: &DataObject) -> Result<u32, RemoteError> {
        match self.call(&Request::Put(obj.clone()))? {
            Response::PutOk { shard } => Ok(shard),
            other => Err(RemoteError::Protocol(format!(
                "put answered with {:?}",
                other.opcode()
            ))),
        }
    }

    /// Store one object as a chunked stream: a `PutChunked` descriptor
    /// frame, the payload as checksummed chunk frames sliced straight from
    /// the object (never copied), and a terminal frame — then one
    /// response. No object size ceiling; retried like any other call. The
    /// payload is hashed chunk by chunk as it goes out, while the service
    /// verifies the chunk before — unless `obj` already knows its sums.
    pub fn put_chunked(&self, obj: &DataObject) -> Result<u32, RemoteError> {
        let resp =
            self.call_with(|me, stream| me.exchange_put_chunked(stream, obj).map(refusal))?;
        match resp {
            Response::PutChunkedOk { shard } => Ok(shard),
            other => Err(RemoteError::Protocol(format!(
                "chunked put answered with {:?}",
                other.opcode()
            ))),
        }
    }

    fn exchange_put_chunked(
        &self,
        stream: &mut TcpStream,
        obj: &DataObject,
    ) -> Result<Response, RemoteError> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let head = Request::PutChunked {
            desc: obj.desc.clone(),
        };
        self.send_request(stream, &head, id)?;
        send_stream(stream, id, CHUNK, [obj]).map_err(RemoteError::Io)?;
        self.read_response(stream, id)
    }

    /// Fetch the objects under `(name, version)`, optionally clipped to a
    /// query box.
    pub fn get(
        &self,
        name: &str,
        version: u64,
        query: Option<IBox>,
    ) -> Result<Vec<DataObject>, RemoteError> {
        self.get_crossing(name, version, query, None)
    }

    /// [`Self::get`] of only the objects an isosurface at `crossing` can
    /// cross (`ObjectDesc::may_cross`; all of them if `None`): the service
    /// filters on descriptors and sends nothing else. A get is always a
    /// chunked stream — the wire has no other form: the service serves it
    /// zero-copy, it has no object size ceiling, and each payload is
    /// assembled straight into its destination buffer.
    pub fn get_crossing(
        &self,
        name: &str,
        version: u64,
        query: Option<IBox>,
        crossing: Option<f64>,
    ) -> Result<Vec<DataObject>, RemoteError> {
        let req = Request::GetChunked {
            name: name.to_string(),
            version,
            query,
            crossing,
        };
        self.call_with(|me, stream| me.exchange_get_chunked(stream, &req))
    }

    fn exchange_get_chunked(
        &self,
        stream: &mut TcpStream,
        req: &Request,
    ) -> Result<Result<Vec<DataObject>, ErrorFrame>, RemoteError> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.send_request(stream, req, id)?;
        let descs = match self.read_response(stream, id)? {
            Response::GetChunkedOk { descs } => descs,
            // Typed refusals surface to the retry loop's classification.
            Response::Error(e) => return Ok(Err(e)),
            other => {
                return Err(RemoteError::Protocol(format!(
                    "chunked get answered with {:?}",
                    other.opcode()
                )))
            }
        };
        let mut assembler = Assembler::new(descs, CHUNK);
        // Abort on the first fault: the socket is dropped with the stream
        // half-read and `call_with` classifies what went wrong.
        let end = loop {
            match assembler.recv(stream, &self.inner.bufs, id)? {
                Step::Chunk => {}
                Step::End(end) => break end,
                Step::Fault(fault) => return Err(fault.into()),
            }
        };
        Ok(Ok(assembler.finish(end)?))
    }

    /// Fetch descriptors under `(name, version)` — metadata only.
    pub fn describe(&self, name: &str, version: u64) -> Result<Vec<ObjectDesc>, RemoteError> {
        let req = Request::Query {
            name: name.to_string(),
            version,
        };
        match self.call(&req)? {
            Response::QueryOk(descs) => Ok(descs),
            other => Err(RemoteError::Protocol(format!(
                "query answered with {:?}",
                other.opcode()
            ))),
        }
    }

    /// Evict versions of `name` older than `before_version`; returns bytes
    /// freed.
    pub fn evict_before(&self, name: &str, before_version: u64) -> Result<u64, RemoteError> {
        let req = Request::Delete {
            name: name.to_string(),
            before_version,
        };
        match self.call(&req)? {
            Response::DeleteOk { bytes_freed } => Ok(bytes_freed),
            other => Err(RemoteError::Protocol(format!(
                "delete answered with {:?}",
                other.opcode()
            ))),
        }
    }

    /// Point-in-time copy of the retry counters, by cause (shared by all
    /// clones of this client).
    pub fn client_stats(&self) -> ClientStats {
        ClientStats {
            retries_busy: self.inner.retries.busy.load(Ordering::Relaxed),
            retries_io: self.inner.retries.io.load(Ordering::Relaxed),
            retries_wire: self.inner.retries.wire.load(Ordering::Relaxed),
        }
    }

    /// Fetch the service's operation counters and occupancy.
    pub fn service_stats(&self) -> Result<ServiceSnapshot, RemoteError> {
        match self.call(&Request::Stats)? {
            Response::StatsOk(s) => Ok(s),
            other => Err(RemoteError::Protocol(format!(
                "stats answered with {:?}",
                other.opcode()
            ))),
        }
    }

    /// Ask the service to shut down gracefully. Not retried: a lost ack
    /// after the service acted would otherwise re-send into a closed
    /// listener and mask the success.
    pub fn shutdown(&self) -> Result<(), RemoteError> {
        let mut stream = self.checkout().map_err(RemoteError::Io)?;
        match self.exchange(&mut stream, &Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            Response::Error(e) => Err(RemoteError::Refused(e)),
            other => Err(RemoteError::Protocol(format!(
                "shutdown answered with {:?}",
                other.opcode()
            ))),
        }
    }
}
