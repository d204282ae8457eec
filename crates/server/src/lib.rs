//! # busytime-server
//!
//! A multi-tenant, sharded scheduling service over the `busytime` online engine.
//!
//! The offline solvers answer one instance per call; the online engine (PR 4) absorbs
//! event streams at millions of events per second — but only from a single in-process
//! caller.  This crate turns that engine into a **long-lived service**: every tenant
//! keeps a live [`busytime::OnlineScheduler`] in the server across requests, so each
//! arrival, departure or query is an incremental `O(log m)` mutation of standing
//! state, never a re-solve.
//!
//! Four layers, bottom up:
//!
//! * [`protocol`] — the wire format: newline-delimited JSON, one `{"op": …}` request
//!   object per line, one `{"ok": …}` response per line.  `PROTOCOL.md` at the
//!   repository root documents every operation with worked examples, and a test
//!   round-trips those exact examples through the serde impls here.
//! * [`frame`] — the compact binary framing negotiated per message on the same
//!   listener: a `0xB5` magic byte opens a length-prefixed frame with a
//!   fixed-layout fast path for `arrive`/`depart`/`query` (tenant id + job ticks
//!   as raw little-endian integers) and a JSON-payload frame for the rare ops.
//!   `PROTOCOL.md`'s byte-level worked example is decoded and re-encoded by the
//!   real codec in a test, and a proptest pins binary round-trip ≡ JSON
//!   round-trip for every operation.
//! * [`registry`] — the sharded multi-tenant state: tenants hash onto `N` worker
//!   shards, each shard a single thread owning its tenants' schedulers outright (no
//!   locks on the hot path); requests travel over bounded channels, so a busy shard
//!   applies backpressure rather than buffering without limit.  Every request takes
//!   one path, [`Engine::call_many`] ([`Engine::call`] is a batch of one): one match
//!   routes the registry-wide operations, tenant operations pass admission and go
//!   to their shard as one sub-batch, and the shard applies the batch and replies.
//!   Admission, the shard loop, `apply` and recovery (with the journal format,
//!   [`JournalRecord`]) each live in a module of their own under the registry.
//!   Batch solves bypass the shards entirely and fan out through
//!   [`busytime::Solver::solve_batch`] on the thread pool.
//! * [`server`] — the std-only TCP front end ([`std::net::TcpListener`], one thread
//!   per connection) plus the matching blocking [`Client`], including the
//!   [`Client::drive_trace`] helper the CLI `client` subcommand and the CI smoke use.
//!   Both sides pipeline: the handler batches every request buffered on the socket
//!   into one [`Engine::call_many`] shard handoff and flushes once the read side
//!   goes idle, and [`Client::pipeline`] keeps a window of `k` requests in flight.
//!
//! Snapshot/restore rides on [`busytime::OnlineSnapshot`]: `{"op": "snapshot"}`
//! serializes a tenant's live schedule to JSON, `{"op": "restore"}` rebuilds it —
//! on the same server, another server, or under another tenant name — and the
//! restored scheduler's future decisions match the never-snapshotted run exactly
//! (pinned by the snapshot oracle tests).
//!
//! **Durability** is opt-in: [`Registry::with_durability`] points the registry at a
//! data directory and every shard then journals applied mutations through the
//! `busytime-durability` write-ahead log before acknowledging them, rebuilds its
//! tenants from disk at startup, and compacts each tenant's log behind a snapshot
//! once it crosses a threshold.  `{"op": "persist"}` forces a compaction,
//! `{"op": "wal_stats"}` reads the log counters.  Without a config the registry is
//! byte-for-byte the in-memory server it always was.
//!
//! ```
//! use busytime_server::{Engine, Registry, Request, Response};
//!
//! let registry = Registry::new(4);
//! let engine: Engine = registry.engine();
//! engine.call(Request::Open {
//!     tenant: "acme".into(),
//!     capacity: 2,
//!     policy: None,
//! });
//! let response = engine.call(Request::Arrive {
//!     tenant: "acme".into(),
//!     id: 1,
//!     job: (0, 10),
//! });
//! assert!(matches!(
//!     response,
//!     Response::Event { machine: 0, cost_delta: 10, cost: 10 }
//! ));
//! drop(engine);
//! registry.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod faults;
pub mod frame;
pub mod protocol;
pub mod registry;
pub mod server;

pub use faults::{FaultKind, FaultPlan, FaultSpec};
pub use frame::{FrameRequest, FrameResponse, RequestFrame, ResponseFrame};
pub use protocol::{
    BatchOutcome, ErrorCode, HealthReport, Request, Response, ShardHealth, TenantHealth, WireError,
};
pub use registry::{
    audit_data_dir, AdmissionConfig, DurabilityConfig, Engine, JournalRecord, Registry,
    RegistryConfig, TenantAudit,
};
pub use server::{serve, spawn, Client, Framing, RetryPolicy, ServerHandle};
