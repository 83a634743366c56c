//! Networked staging: the paper's DataSpaces/DART transport made literal.
//!
//! The in-process reproduction models staging as a function call —
//! [`xlayer_staging::AsyncStager`] drains a channel into a
//! [`xlayer_staging::DataSpace`] in the same address space. This crate puts
//! the space behind a socket, the way DART puts it behind the interconnect,
//! and hands the same stager the same [`xlayer_staging::Staging`] interface
//! to drive it through:
//!
//! - `frame` (crate-private) — the 24-byte frame header (magic, version,
//!   opcode, request id, payload length, the four-lane
//!   `xlayer_staging::sum` checksum) and the one frame reader (header,
//!   then a pooled, checksum-verified payload, off any `Read`) under every
//!   socket loop of the crate.
//! - [`wire`] — the staging protocol on those frames: versioned opcodes
//!   and bodies with total, panic-free codecs for every request/response,
//!   written with `xlayer_staging::codec`'s cursors and descriptor
//!   encoding — the bytes the disk tier's spill log writes too.
//! - `stream` (crate-private) — the chunk stream, once: the sender that
//!   slices a payload into `ChunkData` frames and the assembler that lands
//!   them in place, shared by the client's and the service's put and get
//!   directions. It reports what is wrong with a stream; client and
//!   service each keep their own policy for what to do about it.
//! - [`service`] — [`StagingService`], a multi-threaded TCP server wrapping
//!   a `DataSpace`: one worker thread per connection under a bounded accept
//!   pool, read/write timeouts, graceful shutdown, and per-op counters
//!   surfaced through the `Stats` opcode. Memory-cap rejections travel as
//!   typed `OutOfMemory` error frames — the policy signal stays visible.
//! - [`client`] — [`RemoteClient`], a pooled connection client for one
//!   service with bounded exponential-backoff retry on transient I/O
//!   errors (never on the `OutOfMemory` policy signal).
//! - [`cluster`] — the sharded staging cluster: [`StagingCluster`] spawns
//!   N services (one listener + `DataSpace` + memory cap each), and
//!   [`ShardedClient`] routes puts by object region through a
//!   `ShardMap` and serves every read by asking every shard in shard
//!   order, with a deterministic merge order, so aggregate staging capacity
//!   scales in servers (paper Eq. 9–10) with per-shard accounting. It is
//!   the crate's `Staging` implementation — one address is a one-shard
//!   cluster — so `workflow::native` runs in-transit analysis against a
//!   remote service or a shard list through the handle it uses in process.
//! - [`pool`] — [`BufferPool`], a bounded size-classed buffer recycler
//!   shared by service workers and clients so steady-state put/get traffic
//!   allocates nothing per op (hit/miss counters travel in `Stats`). The
//!   implementation lives in `xlayer_staging::pool` — the disk tier reads
//!   extents through the same pool — and is re-exported here.
//! - [`iovec`] — [`iovec::write_vectored_all`], the short-write-safe
//!   vectored send loop both hot paths use to put header and payload on
//!   the wire in one syscall without concatenating them.
//!
//! Large objects stream as chunked sub-frames (`PutChunked`/`GetChunked`,
//! always 1 MiB chunks): receivers assemble directly into the buffer
//! that becomes the payload and senders write straight out of the
//! `Arc`-held payload, so the chunked path has no whole-object copies and
//! no 256 MiB frame ceiling.
//!
//! Everything is `std::net` — the build is offline and the workspace has no
//! async runtime; blocking sockets plus threads match the paper's
//! one-server-process-per-staging-node model anyway.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
mod frame;
pub mod iovec;
pub use xlayer_staging::pool;
pub mod service;
mod stream;
pub mod wire;

pub use client::{ClientConfig, ClientStats, RemoteClient, RemoteError};
pub use cluster::{ShardedClient, ShardedError, StagingCluster};
pub use pool::{BufferPool, PooledBuf};
pub use service::{ServiceConfig, ServiceStats, StagingService};
pub use wire::{ErrorFrame, Opcode, Request, Response, ServiceSnapshot, WireError};
