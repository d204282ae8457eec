//! Append-only per-tenant durability for the busytime scheduling server.
//!
//! The crate is deliberately std-only and payload-agnostic: records are
//! opaque byte strings (the server logs its own NDJSON wire requests), and
//! snapshot restoration is delegated to a caller-supplied closure, so this
//! layer knows nothing about schedulers.  What it does know:
//!
//! - **Framing**: length-prefixed journal frames, each protected by an IEEE
//!   CRC-32.  Appends hit the kernel with one `write(2)` per frame (a
//!   `SIGKILL` never loses an acknowledged-and-written frame); `fsync` is
//!   batched over `fsync_batch` appends (group commit).
//! - **Generations** ([`Store`], [`TenantLog`]): each tenant directory
//!   holds one live `snapshot.<gen>.json` + `journal.<gen>.log` pair.
//!   Compaction writes generation `g+1`'s snapshot atomically (temp file +
//!   rename), starts an empty journal, then deletes generation `g`; a crash
//!   at any point leaves at least one restorable generation.
//! - **Recovery** ([`Store::read_tenant`], [`Store::commit_tenant`]): the read
//!   prefers the newest generation whose snapshot restores, scans its journal
//!   front to back and stops at the first torn or CRC-failing frame, writing
//!   nothing; the commit truncates the journal there, deletes the other
//!   generations and reopens the log.  A corrupt tail costs the un-synced
//!   suffix, never the log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frame;
mod inject;
mod store;

pub use frame::Corruption;
pub use inject::{FaultInjector, IoPoint};
pub use store::{Commit, Store, TenantLog, TenantRead, WalStats};
