//! `StagingService`: the staging space behind a TCP listener.
//!
//! One accept thread owns the listener; each accepted connection gets a
//! worker thread (DART's one-server-thread-per-client model) under a
//! bounded pool — when the pool is full, the peer receives a typed `Busy`
//! error frame instead of a silently dropped connection. Reads carry a
//! short timeout used as an idle tick so workers observe the stop flag;
//! graceful shutdown is: set the flag, poke the listener with a loopback
//! connect to unblock `accept`, join everything.
//!
//! A worker reads its socket through `Conn`, a `Read`/`Write` adapter that
//! owns that tick (and the byte counters); everything above it is
//! [`crate::frame`]'s reader and `crate::stream`'s sender and assembler.
//! What stays here is the service's failure policy: a frame whose header
//! does not decode ends the connection after one `BadRequest`; anything
//! wrong *inside* a framed request or chunk stream is drained to its end
//! and answered with one typed error on a connection that keeps serving.
//!
//! Memory-cap rejections from the space ([`StagingError::OutOfMemory`])
//! are answered with `OutOfMemory` error frames carrying cap/used/requested
//! — the paper's Eq. 10 pressure signal crosses the wire intact instead of
//! killing the connection. A read the space cannot serve whole
//! ([`StagingError::Unreadable`]: a spilled extent failed its read) is
//! answered with one `Unreadable` error frame, before any descriptor.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use xlayer_staging::{
    DataObject, DataSpace, ObjectDesc, ShardError, Sharding, Staging, StagingError,
};

use crate::frame::RecvError;
use crate::iovec::write_vectored_all;
use crate::pool::{BufferPool, PooledBuf};
use crate::stream::{recv_header, recv_payload, send_stream, Assembler, Step};
use crate::wire::{
    checksum, frame_header, ErrorFrame, Header, Request, Response, ServiceSnapshot, CHUNK,
    MAX_CHUNKED_OBJECT,
};

/// Configuration for a [`StagingService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of staging servers (shards) in the backing space.
    pub servers: usize,
    /// Memory cap per staging server in bytes (paper Eq. 10).
    pub memory_per_server: u64,
    /// Maximum concurrently served connections; excess peers get a `Busy`
    /// error frame and are closed.
    pub max_connections: u32,
    /// Socket read timeout. Doubles as the idle tick at which worker
    /// threads re-check the stop flag, so it bounds shutdown latency.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Directory for the disk spill tier's per-server object logs. `None`
    /// disables the tier (puts beyond the memory cap are rejected, the
    /// pre-tier behaviour). Each service instance logs under its own
    /// `svc-<port>` subdirectory, so shards of a cluster can share one
    /// template directory without colliding. The tier starts empty: a
    /// `svc-<port>` where a log segment is left (a crashed life's, on a
    /// reused port) fails [`StagingService::start`], and a service that
    /// stopped cleanly leaves no segment there.
    pub disk_dir: Option<std::path::PathBuf>,
    /// Per staging server, the cap on live spilled payload bytes (only
    /// meaningful with `disk_dir` set).
    pub disk_budget: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            servers: 2,
            memory_per_server: 64 << 20,
            max_connections: 32,
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(5),
            disk_dir: None,
            disk_budget: u64::MAX,
        }
    }
}

/// Per-operation counters, updated atomically by worker threads and
/// surfaced to clients through the `Stats` opcode.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// `Put` and `PutChunked` requests served (accepted and rejected).
    pub puts: AtomicU64,
    /// `GetChunked` requests served.
    pub gets: AtomicU64,
    /// `Query` requests served.
    pub queries: AtomicU64,
    /// `Delete` requests served.
    pub deletes: AtomicU64,
    /// `Stats` requests served.
    pub stats_calls: AtomicU64,
    /// Frames that failed to decode.
    pub wire_errors: AtomicU64,
    /// Puts rejected by the space's memory cap.
    pub rejected_oom: AtomicU64,
    /// Connections accepted into the pool.
    pub conns_accepted: AtomicU64,
    /// Connections refused with `Busy` because the pool was full.
    pub conns_refused: AtomicU64,
    /// Bytes read off served connections (headers + payloads), counted at
    /// the socket.
    pub bytes_in: AtomicU64,
    /// Bytes written to served connections (headers + payloads), counted
    /// at the socket.
    pub bytes_out: AtomicU64,
    /// Objects streamed by a chunked get whose per-chunk sums were already
    /// known when the stream began (learned from the put stream that
    /// delivered the object, an earlier get, or the disk tier).
    pub chunksum_hits: AtomicU64,
    /// Objects streamed by a chunked get that had to be hashed on the way
    /// out.
    pub chunksum_misses: AtomicU64,
    /// `Busy` error frames actually written to refused peers. Differs from
    /// `conns_refused` (which counts refusal decisions) when the refusal
    /// frame itself fails to send — this one is what load generators can
    /// reconcile against client-side Busy retries.
    pub busy_frames: AtomicU64,
}

impl ServiceStats {
    /// Snapshot the counters together with the space's occupancy, the wire
    /// buffer pool's hit/miss/outstanding counts, and the disk tier's
    /// spill/promote/hit counters (zeros when no tier is attached).
    pub fn snapshot(&self, space: &DataSpace, pool: &BufferPool) -> ServiceSnapshot {
        let tier = space.tier_stats();
        ServiceSnapshot {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            stats_calls: self.stats_calls.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            rejected_oom: self.rejected_oom.load(Ordering::Relaxed),
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_refused: self.conns_refused.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            used: space.used(),
            capacity: space.capacity(),
            pool_hits: pool.hits(),
            pool_misses: pool.misses(),
            pool_outstanding: pool.outstanding(),
            tier_spilled: tier.spilled,
            tier_promoted: tier.promoted,
            tier_disk_used: tier.disk_used,
            tier_disk_hits: tier.disk_hits,
            tier_disk_budget: tier.disk_budget,
            tier_disk_headroom: tier.disk_budget.saturating_sub(tier.disk_used),
            chunksum_hits: self.chunksum_hits.load(Ordering::Relaxed),
            chunksum_misses: self.chunksum_misses.load(Ordering::Relaxed),
            busy_frames: self.busy_frames.load(Ordering::Relaxed),
        }
    }
}

struct Inner {
    space: Arc<DataSpace>,
    stats: Arc<ServiceStats>,
    pool: Arc<BufferPool>,
    stop: AtomicBool,
    active: AtomicU32,
    addr: SocketAddr,
    cfg: ServiceConfig,
}

impl Inner {
    /// Unblock a thread parked in `accept` by completing one connection.
    fn poke(&self) {
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// Decrements the active-connection count when a worker exits, however it
/// exits.
struct ActiveGuard(Arc<Inner>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running staging service. Dropping the handle without calling
/// [`StagingService::shutdown`] leaves the background threads serving until
/// the process exits; tests and the standalone binary shut down explicitly.
pub struct StagingService {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

impl StagingService {
    /// Bind a listener and start serving a freshly constructed space sized
    /// by the config. With `disk_dir` set, the space gets a disk spill tier
    /// logging under `disk_dir/svc-<port>` — the listener is bound first so
    /// the port disambiguates shards sharing one template directory — and
    /// the tier reads extents through the same buffer pool the wire path
    /// recycles scratch from. A `svc-<port>` where a log segment is left
    /// fails the start with the tier's error, which names the file.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let pool = Arc::new(BufferPool::new());
        let space = match &cfg.disk_dir {
            None => Arc::new(DataSpace::new(
                cfg.servers.max(1),
                cfg.memory_per_server,
                Sharding::BboxHash,
            )),
            Some(dir) => {
                let tier =
                    xlayer_staging::TierConfig::new(dir.join(format!("svc-{}", addr.port())))
                        .with_budget(cfg.disk_budget);
                let space = DataSpace::new_tiered(
                    cfg.servers.max(1),
                    cfg.memory_per_server,
                    Sharding::BboxHash,
                    &tier,
                    Arc::clone(&pool),
                )
                .map_err(std::io::Error::other)?;
                Arc::new(space)
            }
        };
        let inner = Arc::new(Inner {
            space,
            stats: Arc::new(ServiceStats::default()),
            pool,
            stop: AtomicBool::new(false),
            active: AtomicU32::new(0),
            addr,
            cfg,
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("xlayer-net-accept".to_string())
            .spawn(move || accept_loop(accept_inner, listener))?;
        Ok(StagingService {
            inner,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves ephemeral port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The backing staging space.
    pub fn space(&self) -> &Arc<DataSpace> {
        &self.inner.space
    }

    /// The service's operation counters.
    pub fn stats(&self) -> &Arc<ServiceStats> {
        &self.inner.stats
    }

    /// The buffer pool connection workers recycle wire scratch through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.inner.pool
    }

    /// Request a graceful stop and wait for the accept loop and every
    /// worker to finish. The space goes with the last handle to it — at
    /// the end of this call, unless a caller still holds
    /// [`Self::space`] — and its disk tier's segments with it.
    pub fn shutdown(mut self) {
        self.inner.stop.store(true, Ordering::Release);
        self.inner.poke();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Block until the service stops (e.g. a client sent `Shutdown`).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !inner.stop.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if inner.stop.load(Ordering::Acquire) {
            // This accept was (or raced with) the shutdown poke.
            refuse(&inner, stream, ErrorFrame::ShuttingDown);
            break;
        }
        let active = inner.active.load(Ordering::Acquire);
        if active >= inner.cfg.max_connections {
            inner.stats.conns_refused.fetch_add(1, Ordering::Relaxed);
            refuse(
                &inner,
                stream,
                ErrorFrame::Busy {
                    active,
                    max: inner.cfg.max_connections,
                },
            );
            continue;
        }
        inner.active.fetch_add(1, Ordering::AcqRel);
        inner.stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
        let conn_inner = Arc::clone(&inner);
        let spawned = std::thread::Builder::new()
            .name("xlayer-net-conn".to_string())
            .spawn(move || {
                let guard = ActiveGuard(Arc::clone(&conn_inner));
                serve_connection(&conn_inner, stream);
                drop(guard);
            });
        match spawned {
            Ok(h) => workers.push(h),
            Err(_) => {
                // Spawn failed: undo the reservation and drop the peer.
                inner.active.fetch_sub(1, Ordering::AcqRel);
            }
        }
        // Reap finished workers so the handle list stays bounded on
        // long-running services.
        workers.retain(|h| !h.is_finished());
    }
    for h in workers {
        let _ = h.join();
    }
}

/// Best-effort typed refusal on a connection we will not serve.
fn refuse(inner: &Inner, mut stream: TcpStream, err: ErrorFrame) {
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let is_busy = matches!(err, ErrorFrame::Busy { .. });
    if stream.write_all(&Response::Error(err).encode(0)).is_ok() && is_busy {
        inner.stats.busy_frames.fetch_add(1, Ordering::Relaxed);
    }
}

/// A worker's socket. Reads treat the socket's read timeout as an idle tick
/// at which to re-check the stop flag — the timeout error only surfaces once
/// the service is stopping, which ends the connection wherever it stood —
/// and both directions are counted into the service's byte counters.
struct Conn<'a> {
    stream: TcpStream,
    inner: &'a Inner,
}

impl Read for Conn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(n) => {
                    self.inner
                        .stats
                        .bytes_in
                        .fetch_add(n as u64, Ordering::Relaxed);
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) && !self.inner.stop.load(Ordering::Acquire) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

impl Write for Conn<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[std::io::IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        let n = self.stream.write_vectored(bufs)?;
        self.inner
            .stats
            .bytes_out
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Outcome of one attempt to pull a request frame off a worker's socket.
enum Recv {
    /// A checksum-verified frame, its payload in a pooled buffer.
    Frame(Header, PooledBuf),
    /// EOF, fatal I/O, lost framing or a stop tick: drop the connection.
    Closed,
    /// The header was framed correctly but the body failed verification;
    /// stream sync is intact, answer `BadRequest` and keep serving.
    Malformed(String),
}

fn recv_frame(conn: &mut Conn) -> Recv {
    let header = match recv_header(conn) {
        Ok(h) => h,
        Err(RecvError::Io(_)) => return Recv::Closed,
        Err(RecvError::Wire(e)) => {
            // Framing is lost; answer once and drop the connection.
            conn.inner.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
            let refusal = Response::Error(ErrorFrame::BadRequest {
                detail: e.to_string(),
            });
            let _ = send_response(conn, 0, &refusal);
            return Recv::Closed;
        }
    };
    let pool = &conn.inner.pool;
    match recv_payload(conn, pool, &header) {
        Ok(payload) => Recv::Frame(header, payload),
        Err(RecvError::Wire(e)) => Recv::Malformed(e.to_string()),
        Err(RecvError::Io(_)) => Recv::Closed,
    }
}

/// Encode `response` into pooled scratch and send it header+body vectored.
fn send_response(conn: &mut Conn, request_id: u64, response: &Response) -> std::io::Result<()> {
    let mut scratch = conn.inner.pool.acquire(0);
    response.encode_body(&mut scratch);
    let header = frame_header(
        response.opcode(),
        request_id,
        scratch.len() as u32,
        checksum(&scratch),
    );
    write_vectored_all(conn, &[&header, &scratch])
}

fn serve_connection(inner: &Inner, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let conn = &mut Conn { stream, inner };
    loop {
        let (request_id, response, shutdown) = match recv_frame(conn) {
            Recv::Closed => return,
            Recv::Malformed(detail) => {
                inner.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                (0, Response::Error(ErrorFrame::BadRequest { detail }), false)
            }
            Recv::Frame(header, payload) => {
                let request_id = header.request_id;
                let decoded = Request::decode_body(header.opcode, &payload);
                drop(payload); // back to the pool before serving
                match decoded {
                    Err(e) => {
                        inner.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                        (
                            request_id,
                            Response::Error(ErrorFrame::BadRequest {
                                detail: e.to_string(),
                            }),
                            false,
                        )
                    }
                    Ok(Request::PutChunked { desc }) => {
                        if serve_put_chunked(conn, request_id, desc) {
                            continue;
                        }
                        return;
                    }
                    Ok(Request::GetChunked {
                        name,
                        version,
                        query,
                        crossing,
                    }) => {
                        if serve_get_chunked(conn, request_id, &name, version, query, crossing) {
                            continue;
                        }
                        return;
                    }
                    Ok(req) => {
                        let shutdown = matches!(req, Request::Shutdown);
                        (request_id, handle_request(inner, req), shutdown)
                    }
                }
            }
        };
        if send_response(conn, request_id, &response).is_err() {
            return;
        }
        if shutdown {
            inner.stop.store(true, Ordering::Release);
            inner.poke();
            return;
        }
    }
}

/// Serve one inbound `PutChunked` stream: the assembler lands chunks
/// directly in the destination payload buffer, then the object —
/// carrying the per-chunk sums it was verified with, so a later chunked
/// get or spill never re-hashes it — is committed to the space. Returns
/// `false` when the connection must close.
///
/// The failure policy is the service's own: whatever goes wrong inside
/// the stream, keep draining to its `ChunkEnd` — the client is already
/// committed to sending all of it — so the connection stays framed, then
/// answer one typed error and keep serving.
fn serve_put_chunked(conn: &mut Conn, request_id: u64, desc: ObjectDesc) -> bool {
    let inner = conn.inner;
    inner.stats.puts.fetch_add(1, Ordering::Relaxed);
    // Head-of-stream rejections refuse before the declared size is
    // allocated: a hostile descriptor must not size the allocation.
    let refused = if !desc.is_consistent() || desc.bytes > MAX_CHUNKED_OBJECT {
        Some(ErrorFrame::BadRequest {
            detail: "inconsistent chunked object descriptor".to_string(),
        })
    } else if desc.bytes
        > inner
            .space
            .capacity()
            .saturating_add(Staging::headroom(inner.space.as_ref()).1)
    {
        // With a disk tier attached, an object larger than RAM can still
        // land on the spill log, so the bound is memory capacity plus the
        // tier's remaining disk budget (headroom is 0 without a tier);
        // MAX_CHUNKED_OBJECT stays the absolute ceiling when the disk
        // budget is unbounded.
        inner.stats.rejected_oom.fetch_add(1, Ordering::Relaxed);
        Some(ErrorFrame::OutOfMemory {
            cap: inner.space.capacity(),
            used: inner.space.used(),
            requested: desc.bytes,
        })
    } else {
        None
    };
    // A refused stream drains through an assembler that expects nothing.
    let expected = if refused.is_none() {
        vec![desc]
    } else {
        vec![]
    };
    let mut assembler = Assembler::new(expected, CHUNK);
    let mut failed: Option<String> = None;
    let end = loop {
        match assembler.recv(conn, &inner.pool, request_id) {
            Ok(Step::Chunk) => {}
            Ok(Step::End(end)) => break end,
            Ok(Step::Fault(fault)) => {
                if failed.is_none() {
                    failed = Some(fault.detail);
                    assembler.abandon();
                }
            }
            Err(RecvError::Wire(_)) => {
                inner.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Err(RecvError::Io(_)) => return false,
        }
    };
    let assembled = match failed {
        Some(detail) => Err(detail),
        None => match assembler.finish(end) {
            Ok(mut objs) => objs.pop().ok_or_else(|| "empty chunk stream".to_string()),
            Err(fault) => Err(fault.detail),
        },
    };
    let response = match (refused, assembled) {
        (Some(refusal), _) => Response::Error(refusal),
        (None, Ok(obj)) => match commit_put(inner, Arc::new(obj)) {
            Ok(shard) => Response::PutChunkedOk { shard },
            Err(rejection) => Response::Error(rejection),
        },
        (None, Err(detail)) => {
            inner.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
            Response::Error(ErrorFrame::BadRequest { detail })
        }
    };
    send_response(conn, request_id, &response).is_ok()
}

/// Serve one `GetChunked`: answer with the descriptors that pass both
/// filters — the box and the `crossing` predicate, judged on descriptors
/// alone — then stream those objects' payloads as chunk frames sliced
/// straight out of the `Arc`-held objects: no payload copy, and for an
/// object that knows its per-chunk sums no pass over the payload but the
/// socket write. Returns `false` when the connection must close.
fn serve_get_chunked(
    conn: &mut Conn,
    request_id: u64,
    name: &str,
    version: u64,
    query: Option<xlayer_amr::boxes::IBox>,
    crossing: Option<f64>,
) -> bool {
    let inner = conn.inner;
    inner.stats.gets.fetch_add(1, Ordering::Relaxed);
    let objs = match inner
        .space
        .get_crossing(name, version, query.as_ref(), crossing)
    {
        Ok(objs) => objs,
        Err(e) => {
            let refusal = Response::Error(error_frame(e));
            return send_response(conn, request_id, &refusal).is_ok();
        }
    };
    let head = Response::GetChunkedOk {
        descs: objs.iter().map(|o| o.desc.clone()).collect(),
    };
    if send_response(conn, request_id, &head).is_err() {
        return false;
    }
    for obj in &objs {
        let counter = match obj.known_sums(CHUNK) {
            Some(_) => &inner.stats.chunksum_hits,
            None => &inner.stats.chunksum_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
    send_stream(conn, request_id, CHUNK, objs.iter().map(Arc::as_ref)).is_ok()
}

/// Store `obj`; a rejection comes back as the typed error frame that
/// carries the space's pressure signal across the wire.
fn commit_put(inner: &Inner, obj: Arc<DataObject>) -> Result<u32, ErrorFrame> {
    let rejection = match inner.space.put(obj) {
        Ok(shard) => return Ok(shard as u32),
        Err(rejection) => rejection,
    };
    inner.stats.rejected_oom.fetch_add(1, Ordering::Relaxed);
    Err(error_frame(rejection))
}

/// The error frame a staging server's failure travels as.
fn error_frame(e: ShardError<StagingError>) -> ErrorFrame {
    match e.source {
        StagingError::OutOfMemory {
            cap,
            used,
            requested,
        } => ErrorFrame::OutOfMemory {
            cap,
            used,
            requested,
        },
        StagingError::Unreadable { .. } => ErrorFrame::Unreadable {
            detail: e.source.to_string(),
        },
    }
}

fn handle_request(inner: &Inner, req: Request) -> Response {
    let stats = &inner.stats;
    match req {
        Request::Put(obj) => {
            stats.puts.fetch_add(1, Ordering::Relaxed);
            match commit_put(inner, Arc::new(obj)) {
                Ok(shard) => Response::PutOk { shard },
                Err(rejection) => Response::Error(rejection),
            }
        }
        Request::Query { name, version } => {
            stats.queries.fetch_add(1, Ordering::Relaxed);
            match inner.space.describe(&name, version) {
                Ok(descs) => Response::QueryOk(descs),
                Err(e) => Response::Error(error_frame(e)),
            }
        }
        Request::Delete {
            name,
            before_version,
        } => {
            stats.deletes.fetch_add(1, Ordering::Relaxed);
            match inner.space.evict(&name, before_version) {
                Ok(bytes_freed) => Response::DeleteOk { bytes_freed },
                Err(e) => Response::Error(error_frame(e)),
            }
        }
        Request::Stats => {
            stats.stats_calls.fetch_add(1, Ordering::Relaxed);
            Response::StatsOk(stats.snapshot(&inner.space, &inner.pool))
        }
        Request::Shutdown => Response::ShutdownOk,
        // Chunked streams never reach here — serve_connection owns the
        // socket for the stream's lifetime and intercepts them.
        Request::PutChunked { .. } | Request::GetChunked { .. } => {
            Response::Error(ErrorFrame::BadRequest {
                detail: "chunked request outside a connection stream".to_string(),
            })
        }
    }
}
