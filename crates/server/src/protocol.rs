//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! Every protocol message is one JSON object on one line.  Requests carry an `"op"`
//! discriminant naming the operation and, for tenant-scoped operations, a `"tenant"`
//! key; responses always carry `"ok"` (`true`/`false`) plus the operation's payload, so
//! a client can route on two fixed keys without knowing the full schema.  The complete
//! schema — every operation with a worked request/response example — is documented in
//! `PROTOCOL.md` at the repository root, and the `protocol_doc` test round-trips every
//! example from that document through the types here, so the document cannot drift from
//! the implementation.
//!
//! Plain named-field structs use the serde derive.  The enums' serde impls are written
//! by hand against the vendored `serde::Value` tree (the derive stub does not cover
//! enums), which also buys the protocol two properties the derive would not give:
//! *missing* optional keys are accepted (not just `null`), and unknown `"op"` names
//! produce a descriptive error naming the valid operations.

use busytime::online::{Event, OnlineSnapshot};
use busytime::report::{InstanceFile, ScheduleReport, SimulationReport};
use busytime_durability::WalStats;
use serde::{Deserialize, Error, Serialize, Value};

/// A stable machine-readable classification for error responses.
///
/// Clients branch on codes, never on message strings: the code decides whether a
/// request is retryable (`Overloaded`, `Unavailable`), a caller bug (`Malformed`,
/// `UnknownTenant`, `AlreadyOpen`, `Rejected`, `Unsupported`) or a server fault
/// (`Internal`).  Codes travel as snake_case strings in the JSON framing and as a
/// single byte in the binary framing; both mappings are pinned by tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The server shed the request under load; retry after the hinted delay.
    Overloaded,
    /// The owning shard is temporarily gone (being respawned); retry is safe
    /// only for requests that provably did not reach the shard.
    Unavailable,
    /// The named tenant does not exist on this server.
    UnknownTenant,
    /// An `open` named a tenant that already exists.
    AlreadyOpen,
    /// The request could not be parsed or referenced an unbound binary id.
    Malformed,
    /// The request parsed but the operation refused it (bad policy name,
    /// out-of-range window, duplicate arrival, unknown job id, …).
    Rejected,
    /// The operation needs a feature this server was not started with
    /// (e.g. `persist` without `--data-dir`).
    Unsupported,
    /// The server failed while applying the request.
    Internal,
}

impl ErrorCode {
    /// Every code, for exhaustive tests and documentation checks.
    pub const ALL: [ErrorCode; 8] = [
        ErrorCode::Overloaded,
        ErrorCode::Unavailable,
        ErrorCode::UnknownTenant,
        ErrorCode::AlreadyOpen,
        ErrorCode::Malformed,
        ErrorCode::Rejected,
        ErrorCode::Unsupported,
        ErrorCode::Internal,
    ];

    /// The wire string for the JSON framing (`"code"` key).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::UnknownTenant => "unknown_tenant",
            ErrorCode::AlreadyOpen => "already_open",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Rejected => "rejected",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parse the wire string; unknown strings map to [`ErrorCode::Internal`] so
    /// old clients keep working against servers that grow new codes.
    pub fn parse(text: &str) -> Self {
        match text {
            "overloaded" => ErrorCode::Overloaded,
            "unavailable" => ErrorCode::Unavailable,
            "unknown_tenant" => ErrorCode::UnknownTenant,
            "already_open" => ErrorCode::AlreadyOpen,
            "malformed" => ErrorCode::Malformed,
            "rejected" => ErrorCode::Rejected,
            "unsupported" => ErrorCode::Unsupported,
            _ => ErrorCode::Internal,
        }
    }

    /// The single-byte encoding used by the binary error frame.
    pub fn as_byte(self) -> u8 {
        match self {
            ErrorCode::Internal => 0,
            ErrorCode::Overloaded => 1,
            ErrorCode::Unavailable => 2,
            ErrorCode::UnknownTenant => 3,
            ErrorCode::AlreadyOpen => 4,
            ErrorCode::Malformed => 5,
            ErrorCode::Rejected => 6,
            ErrorCode::Unsupported => 7,
        }
    }

    /// Decode the binary error-frame byte; unknown bytes map to
    /// [`ErrorCode::Internal`] (same forward-compatibility rule as [`Self::parse`]).
    pub fn from_byte(byte: u8) -> Self {
        match byte {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::Unavailable,
            3 => ErrorCode::UnknownTenant,
            4 => ErrorCode::AlreadyOpen,
            5 => ErrorCode::Malformed,
            6 => ErrorCode::Rejected,
            7 => ErrorCode::Unsupported,
            _ => ErrorCode::Internal,
        }
    }

    /// `true` for codes where retrying the same request can succeed.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::Unavailable)
    }
}

/// A structured wire error: a stable [`ErrorCode`], a human-readable message, and
/// (for [`ErrorCode::Overloaded`]) a retry-after hint in milliseconds.
///
/// `Display` prints the message alone, so diagnostics that format an error keep
/// reading naturally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The machine-readable classification.
    pub code: ErrorCode,
    /// The human-readable explanation.
    pub message: String,
    /// For shed requests: how long the client should wait before retrying.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// Build an error with the given code and no retry hint.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Per-shard figures inside a [`Response::Health`] report.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ShardHealth {
    /// The shard's index.
    pub shard: usize,
    /// Requests currently queued or being applied on the shard.
    pub queue_depth: usize,
    /// Requests shed by admission control or queue timeouts since startup.
    pub shed: u64,
    /// Times the shard worker died and was respawned in-process.
    pub respawns: u64,
    /// Live tenants owned by the shard.
    pub tenants: usize,
    /// Journal records appended but not yet fsynced, summed over the shard's
    /// tenants (zero on non-durable servers).
    pub wal_backlog: u64,
}

/// Per-tenant degradation figures inside a [`Response::Health`] report.  Only
/// tenants that have been shed at least once appear.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantHealth {
    /// The tenant's name.
    pub tenant: String,
    /// Requests shed for this tenant since startup.
    pub shed: u64,
    /// The tenant's requests currently in flight.
    pub inflight: usize,
}

/// A `health` result: per-shard load figures plus tenants degraded by shedding.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HealthReport {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardHealth>,
    /// Tenants that have had requests shed, sorted by name.
    pub degraded: Vec<TenantHealth>,
}

/// Build a JSON object from `(key, value)` pairs.
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Read an optional key: absent and `null` both mean `None`.
fn optional<T: Deserialize>(value: &Value, key: &str) -> Result<Option<T>, Error> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => T::deserialize(v).map(Some),
    }
}

/// A request to the scheduling daemon.
///
/// Tenant-scoped operations (everything except [`Request::Batch`] and
/// [`Request::Stats`]) are routed to the shard owning the tenant and applied to its
/// live [`busytime::OnlineScheduler`] single-threaded, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create a tenant: an empty live schedule with the given capacity and policy.
    Open {
        /// The tenant's name (the sharding key).
        tenant: String,
        /// The machine capacity `g` for this tenant's schedulers.
        capacity: usize,
        /// Online policy name (`first-fit` when omitted).
        policy: Option<String>,
    },
    /// Place one job on the tenant's live schedule.
    Arrive {
        /// The tenant.
        tenant: String,
        /// The job's stable id (shared with its later departure).
        id: u64,
        /// The job's `[start, end)` window in ticks.
        job: (i64, i64),
    },
    /// Remove a live job from the tenant's schedule (its machine slot reopens).
    Depart {
        /// The tenant.
        tenant: String,
        /// The id the job arrived under.
        id: u64,
    },
    /// Read the tenant's current state as a [`SimulationReport`].
    Query {
        /// The tenant.
        tenant: String,
    },
    /// Serialize the tenant's live schedule into an [`OnlineSnapshot`].
    Snapshot {
        /// The tenant.
        tenant: String,
    },
    /// Rebuild a tenant from a snapshot (replacing any existing state).
    Restore {
        /// The tenant.
        tenant: String,
        /// The snapshot to rebuild from.
        snapshot: OnlineSnapshot,
    },
    /// Drop a tenant and all its state.
    Close {
        /// The tenant.
        tenant: String,
    },
    /// Force a snapshot + log compaction for the tenant now (durable servers
    /// only).  Responds with the post-compaction [`Response::Wal`] counters.
    Persist {
        /// The tenant.
        tenant: String,
    },
    /// Read the tenant's write-ahead-log counters (durable servers only).
    WalStats {
        /// The tenant.
        tenant: String,
    },
    /// Run one budgeted background-defragmentation pass on the tenant's live
    /// schedule: migrate up to `budget` jobs to strictly cheaper machines (see
    /// [`busytime::online::OnlineScheduler::compact`]).  Journaled like any other
    /// mutation on durable servers, so recovery replays it deterministically.
    Compact {
        /// The tenant.
        tenant: String,
        /// Maximum number of migrations to commit in this pass.
        budget: usize,
    },
    /// Solve a batch of offline instances through `Solver::solve_batch` on the
    /// thread pool (MaxThroughput under `budget` when given, MinBusy otherwise).  Not tenant-scoped: batches run beside the shards.
    Batch {
        /// The instances to solve, in order, in the shape of the CLI's instance
        /// files: one [`InstanceFile`] type serves both.
        instances: Vec<InstanceFile>,
        /// Busy-time budget; `null`/absent solves MinBusy.
        budget: Option<i64>,
    },
    /// Server-wide counters (shards, tenants, requests served).
    Stats,
    /// Per-shard load and degradation figures (queue depth, shed counts, WAL
    /// backlog, respawns, degraded tenants).  Not tenant-scoped.
    Health,
}

impl Request {
    /// The request driving one online [`Event`] against `tenant` — the single point
    /// where an event stream becomes wire requests (the trace-driving client, the
    /// benchmarks and the fuzz tests all convert through here).
    pub fn from_event(tenant: &str, event: &Event) -> Self {
        match *event {
            Event::Arrival { id, interval } => Request::Arrive {
                tenant: tenant.to_string(),
                id,
                job: (interval.start().ticks(), interval.end().ticks()),
            },
            Event::Departure { id } => Request::Depart {
                tenant: tenant.to_string(),
                id,
            },
        }
    }

    /// The wire JSON of [`Request::from_event`], formatted directly.
    ///
    /// This is the write-ahead log's record format, serialized on every applied
    /// mutation on a shard's hot path — formatting the two event shapes by hand
    /// skips the generic value-tree serializer (about 5x less time per record).
    /// A unit test pins it byte-for-byte to `from_event(...).to_json()`.
    pub fn event_record_json(tenant: &str, event: &Event) -> String {
        let name = serde_json::to_string(tenant).expect("strings always serialize");
        // Ids travel as `i64` on the wire (the value tree's integer type); the
        // cast round-trips every `u64` bit pattern and matches the generic
        // serializer bit for bit.
        match *event {
            Event::Arrival { id, interval } => format!(
                "{{\"op\": \"arrive\",\"tenant\": {name},\"id\": {},\"job\": [{},{}]}}",
                id as i64,
                interval.start().ticks(),
                interval.end().ticks()
            ),
            Event::Departure { id } => {
                format!(
                    "{{\"op\": \"depart\",\"tenant\": {name},\"id\": {}}}",
                    id as i64
                )
            }
        }
    }

    /// The request's `"op"` discriminant.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Arrive { .. } => "arrive",
            Request::Depart { .. } => "depart",
            Request::Query { .. } => "query",
            Request::Snapshot { .. } => "snapshot",
            Request::Restore { .. } => "restore",
            Request::Close { .. } => "close",
            Request::Persist { .. } => "persist",
            Request::WalStats { .. } => "wal_stats",
            Request::Compact { .. } => "compact",
            Request::Batch { .. } => "batch",
            Request::Stats => "stats",
            Request::Health => "health",
        }
    }

    /// The tenant the request is scoped to, when it is tenant-scoped.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Request::Open { tenant, .. }
            | Request::Arrive { tenant, .. }
            | Request::Depart { tenant, .. }
            | Request::Query { tenant }
            | Request::Snapshot { tenant }
            | Request::Restore { tenant, .. }
            | Request::Close { tenant }
            | Request::Persist { tenant }
            | Request::WalStats { tenant }
            | Request::Compact { tenant, .. } => Some(tenant),
            Request::Batch { .. } | Request::Stats | Request::Health => None,
        }
    }

    /// Parse one line of the wire format.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid request: {e}"))
    }

    /// Serialize to one compact line of the wire format (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("requests always serialize")
    }
}

impl Serialize for Request {
    fn serialize(&self) -> Value {
        let mut fields = vec![("op", Value::Str(self.op().into()))];
        match self {
            Request::Open {
                tenant,
                capacity,
                policy,
            } => {
                fields.push(("tenant", tenant.serialize()));
                fields.push(("capacity", capacity.serialize()));
                if let Some(policy) = policy {
                    fields.push(("policy", policy.serialize()));
                }
            }
            Request::Arrive { tenant, id, job } => {
                fields.push(("tenant", tenant.serialize()));
                fields.push(("id", id.serialize()));
                fields.push(("job", job.serialize()));
            }
            Request::Depart { tenant, id } => {
                fields.push(("tenant", tenant.serialize()));
                fields.push(("id", id.serialize()));
            }
            Request::Query { tenant }
            | Request::Snapshot { tenant }
            | Request::Close { tenant }
            | Request::Persist { tenant }
            | Request::WalStats { tenant } => {
                fields.push(("tenant", tenant.serialize()));
            }
            Request::Restore { tenant, snapshot } => {
                fields.push(("tenant", tenant.serialize()));
                fields.push(("snapshot", snapshot.serialize()));
            }
            Request::Compact { tenant, budget } => {
                fields.push(("tenant", tenant.serialize()));
                fields.push(("budget", budget.serialize()));
            }
            Request::Batch { instances, budget } => {
                fields.push(("instances", instances.serialize()));
                if let Some(budget) = budget {
                    fields.push(("budget", budget.serialize()));
                }
            }
            Request::Stats | Request::Health => {}
        }
        obj(fields)
    }
}

impl Deserialize for Request {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let op = String::deserialize(value.field("op")?)?;
        let tenant = || -> Result<String, Error> { String::deserialize(value.field("tenant")?) };
        match op.as_str() {
            "open" => Ok(Request::Open {
                tenant: tenant()?,
                capacity: usize::deserialize(value.field("capacity")?)?,
                policy: optional(value, "policy")?,
            }),
            "arrive" => Ok(Request::Arrive {
                tenant: tenant()?,
                id: u64::deserialize(value.field("id")?)?,
                job: <(i64, i64)>::deserialize(value.field("job")?)?,
            }),
            "depart" => Ok(Request::Depart {
                tenant: tenant()?,
                id: u64::deserialize(value.field("id")?)?,
            }),
            "query" => Ok(Request::Query { tenant: tenant()? }),
            "snapshot" => Ok(Request::Snapshot { tenant: tenant()? }),
            "restore" => Ok(Request::Restore {
                tenant: tenant()?,
                snapshot: OnlineSnapshot::deserialize(value.field("snapshot")?)?,
            }),
            "close" => Ok(Request::Close { tenant: tenant()? }),
            "persist" => Ok(Request::Persist { tenant: tenant()? }),
            "wal_stats" => Ok(Request::WalStats { tenant: tenant()? }),
            "compact" => Ok(Request::Compact {
                tenant: tenant()?,
                budget: usize::deserialize(value.field("budget")?)?,
            }),
            "batch" => Ok(Request::Batch {
                instances: Vec::<InstanceFile>::deserialize(value.field("instances")?)?,
                budget: optional(value, "budget")?,
            }),
            "stats" => Ok(Request::Stats),
            "health" => Ok(Request::Health),
            other => Err(Error::custom(format!(
                "unknown op '{other}' (expected open, arrive, depart, query, snapshot, \
                 restore, close, persist, wal_stats, compact, batch, stats or health)"
            ))),
        }
    }
}

/// The outcome of one instance of a `batch` request: the solved schedule, or the
/// per-instance failure (a malformed instance, or a policy refusing to solve it).
#[derive(Debug, Clone)]
pub enum BatchOutcome {
    /// The instance solved; the report uses the shared schema.
    Solved(ScheduleReport),
    /// The instance failed; the sibling instances still solve.
    Failed(String),
}

impl Serialize for BatchOutcome {
    fn serialize(&self) -> Value {
        match self {
            BatchOutcome::Solved(report) => obj(vec![("schedule", report.serialize())]),
            BatchOutcome::Failed(error) => obj(vec![("error", error.serialize())]),
        }
    }
}

impl Deserialize for BatchOutcome {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        if let Some(report) = value.get("schedule") {
            Ok(BatchOutcome::Solved(ScheduleReport::deserialize(report)?))
        } else if let Some(error) = value.get("error") {
            Ok(BatchOutcome::Failed(String::deserialize(error)?))
        } else {
            Err(Error::custom(
                "a batch outcome carries either `schedule` or `error`",
            ))
        }
    }
}

/// A response from the scheduling daemon.  Every variant serializes with an `"ok"`
/// key; [`Response::Error`] is the only `"ok": false` shape.
#[derive(Debug, Clone)]
pub enum Response {
    /// The operation succeeded and has no payload (`open`, `restore`, `close`).
    Ok,
    /// An `arrive` or `depart` was applied: where, and what it did to the cost.
    Event {
        /// The global machine id the event touched.
        machine: usize,
        /// The signed busy-time change in ticks.
        cost_delta: i64,
        /// The tenant's total busy time after the event.
        cost: i64,
    },
    /// A `query` result: the tenant's state in the shared report schema.
    Query(SimulationReport),
    /// A `snapshot` result: the serialized live schedule.
    Snapshot(OnlineSnapshot),
    /// A `batch` result: one outcome per instance, in request order.
    Batch(Vec<BatchOutcome>),
    /// A `compact` result: what the defragmentation pass did.
    Compact {
        /// Strictly-improving migrations committed (at most the budget).
        moves: usize,
        /// The signed busy-time change in ticks (never positive).
        cost_delta: i64,
        /// The tenant's total busy time after the pass.
        cost: i64,
    },
    /// A `persist` or `wal_stats` result: the tenant's on-disk write-ahead
    /// counters.
    Wal(WalStats),
    /// A `stats` result: server-wide counters.
    Stats {
        /// Number of worker shards.
        shards: usize,
        /// Live tenants across all shards.
        tenants: usize,
        /// Requests served since startup (all operations, all connections).
        requests: u64,
    },
    /// A `health` result: per-shard load figures and degraded tenants.
    Health(HealthReport),
    /// The operation failed; the connection stays usable.
    Error(WireError),
}

impl Response {
    /// Shorthand for an [`ErrorCode::Internal`] error response (the unclassified
    /// default; prefer [`Response::fail`] with a specific code).
    pub fn error(message: impl Into<String>) -> Self {
        Response::Error(WireError::new(ErrorCode::Internal, message))
    }

    /// An error response with an explicit [`ErrorCode`].
    pub fn fail(code: ErrorCode, message: impl Into<String>) -> Self {
        Response::Error(WireError::new(code, message))
    }

    /// An [`ErrorCode::Overloaded`] shed response with a retry-after hint.
    pub fn overloaded(message: impl Into<String>, retry_after_ms: u64) -> Self {
        Response::Error(WireError {
            code: ErrorCode::Overloaded,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        })
    }

    /// `true` unless this is an [`Response::Error`].
    pub fn is_ok(&self) -> bool {
        !matches!(self, Response::Error(_))
    }

    /// Parse one line of the wire format.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid response: {e}"))
    }

    /// Serialize to one compact line of the wire format (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("responses always serialize")
    }
}

impl Serialize for Response {
    fn serialize(&self) -> Value {
        match self {
            Response::Ok => obj(vec![("ok", Value::Bool(true))]),
            Response::Event {
                machine,
                cost_delta,
                cost,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("machine", machine.serialize()),
                ("cost_delta", cost_delta.serialize()),
                ("cost", cost.serialize()),
            ]),
            Response::Query(report) => obj(vec![
                ("ok", Value::Bool(true)),
                ("tenant", report.serialize()),
            ]),
            Response::Snapshot(snapshot) => obj(vec![
                ("ok", Value::Bool(true)),
                ("snapshot", snapshot.serialize()),
            ]),
            Response::Batch(outcomes) => obj(vec![
                ("ok", Value::Bool(true)),
                ("results", outcomes.serialize()),
            ]),
            Response::Compact {
                moves,
                cost_delta,
                cost,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("moves", moves.serialize()),
                ("cost_delta", cost_delta.serialize()),
                ("cost", cost.serialize()),
            ]),
            Response::Wal(stats) => obj(vec![
                ("ok", Value::Bool(true)),
                (
                    "wal",
                    obj(vec![
                        ("generation", stats.generation.serialize()),
                        ("log_events", stats.log_records.serialize()),
                        ("log_bytes", stats.log_bytes.serialize()),
                        ("snapshot_bytes", stats.snapshot_bytes.serialize()),
                    ]),
                ),
            ]),
            Response::Stats {
                shards,
                tenants,
                requests,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("shards", shards.serialize()),
                ("tenants", tenants.serialize()),
                ("requests", requests.serialize()),
            ]),
            Response::Health(health) => obj(vec![
                ("ok", Value::Bool(true)),
                ("health", health.serialize()),
            ]),
            Response::Error(error) => {
                let mut fields = vec![
                    ("ok", Value::Bool(false)),
                    ("code", Value::Str(error.code.as_str().into())),
                    ("error", error.message.serialize()),
                ];
                if let Some(ms) = error.retry_after_ms {
                    fields.push(("retry_after_ms", ms.serialize()));
                }
                obj(fields)
            }
        }
    }
}

impl Deserialize for Response {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let ok = bool::deserialize(value.field("ok")?)?;
        if !ok {
            // Lenient: a missing/unknown `code` decodes as `internal`, so responses
            // from older servers still parse.
            let code = optional::<String>(value, "code")?
                .map_or(ErrorCode::Internal, |c| ErrorCode::parse(&c));
            return Ok(Response::Error(WireError {
                code,
                message: String::deserialize(value.field("error")?)?,
                retry_after_ms: optional(value, "retry_after_ms")?,
            }));
        }
        if let Some(machine) = value.get("machine") {
            return Ok(Response::Event {
                machine: usize::deserialize(machine)?,
                cost_delta: i64::deserialize(value.field("cost_delta")?)?,
                cost: i64::deserialize(value.field("cost")?)?,
            });
        }
        if let Some(moves) = value.get("moves") {
            return Ok(Response::Compact {
                moves: usize::deserialize(moves)?,
                cost_delta: i64::deserialize(value.field("cost_delta")?)?,
                cost: i64::deserialize(value.field("cost")?)?,
            });
        }
        if let Some(report) = value.get("tenant") {
            return Ok(Response::Query(SimulationReport::deserialize(report)?));
        }
        if let Some(snapshot) = value.get("snapshot") {
            return Ok(Response::Snapshot(OnlineSnapshot::deserialize(snapshot)?));
        }
        if let Some(results) = value.get("results") {
            return Ok(Response::Batch(Vec::<BatchOutcome>::deserialize(results)?));
        }
        if let Some(wal) = value.get("wal") {
            return Ok(Response::Wal(WalStats {
                generation: u64::deserialize(wal.field("generation")?)?,
                log_records: u64::deserialize(wal.field("log_events")?)?,
                log_bytes: u64::deserialize(wal.field("log_bytes")?)?,
                snapshot_bytes: u64::deserialize(wal.field("snapshot_bytes")?)?,
            }));
        }
        if let Some(health) = value.get("health") {
            return Ok(Response::Health(HealthReport::deserialize(health)?));
        }
        if let Some(shards) = value.get("shards") {
            return Ok(Response::Stats {
                shards: usize::deserialize(shards)?,
                tenants: usize::deserialize(value.field("tenants")?)?,
                requests: u64::deserialize(value.field("requests")?)?,
            });
        }
        Ok(Response::Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(request: Request) {
        let line = request.to_json();
        assert!(!line.contains('\n'), "wire lines must be single lines");
        let parsed = Request::from_json(&line).unwrap();
        assert_eq!(parsed, request);
    }

    #[test]
    fn the_fast_event_record_matches_the_generic_serializer() {
        use busytime::online::Event;
        use busytime::{Interval, Time};
        let window =
            |s: i64, e: i64| Interval::try_new(Time::new(s), Time::new(e)).expect("non-empty");
        // Exotic tenant names exercise the string escaping; negative ticks the
        // number formatting.
        for tenant in ["acme", "", "a \"quoted\"\\name", "tab\there", "ünïcode"] {
            for event in [
                Event::arrival(0, window(0, 10)),
                Event::arrival(u64::MAX, window(-55, 7)),
                Event::departure(17),
            ] {
                assert_eq!(
                    Request::event_record_json(tenant, &event),
                    Request::from_event(tenant, &event).to_json(),
                    "the hot-path record format drifted from the wire serializer"
                );
            }
        }
    }

    #[test]
    fn requests_round_trip() {
        round_trip(Request::Open {
            tenant: "acme".into(),
            capacity: 4,
            policy: Some("best-fit".into()),
        });
        round_trip(Request::Open {
            tenant: "acme".into(),
            capacity: 4,
            policy: None,
        });
        round_trip(Request::Arrive {
            tenant: "acme".into(),
            id: 17,
            job: (0, 10),
        });
        round_trip(Request::Depart {
            tenant: "acme".into(),
            id: 17,
        });
        round_trip(Request::Query {
            tenant: "acme".into(),
        });
        round_trip(Request::Snapshot {
            tenant: "acme".into(),
        });
        round_trip(Request::Close {
            tenant: "acme".into(),
        });
        round_trip(Request::Persist {
            tenant: "acme".into(),
        });
        round_trip(Request::WalStats {
            tenant: "acme".into(),
        });
        round_trip(Request::Compact {
            tenant: "acme".into(),
            budget: 64,
        });
        round_trip(Request::Batch {
            instances: vec![InstanceFile {
                capacity: 2,
                jobs: vec![(0, 10), (2, 12)],
            }],
            budget: Some(12),
        });
        round_trip(Request::Stats);
        round_trip(Request::Health);
    }

    #[test]
    fn missing_optional_keys_are_accepted() {
        let r = Request::from_json(r#"{"op":"open","tenant":"t","capacity":2}"#).unwrap();
        assert_eq!(
            r,
            Request::Open {
                tenant: "t".into(),
                capacity: 2,
                policy: None
            }
        );
        let r = Request::from_json(r#"{"op":"batch","instances":[]}"#).unwrap();
        assert_eq!(
            r,
            Request::Batch {
                instances: vec![],
                budget: None
            }
        );
        // Explicit null means the same thing as absent.
        let r = Request::from_json(r#"{"op":"batch","instances":[],"budget":null}"#).unwrap();
        assert!(matches!(r, Request::Batch { budget: None, .. }));
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        let err = Request::from_json(r#"{"op":"fly"}"#).unwrap_err();
        assert!(err.contains("unknown op 'fly'"), "{err}");
        let err = Request::from_json(r#"{"tenant":"t"}"#).unwrap_err();
        assert!(err.contains("op"), "{err}");
        let err = Request::from_json("not json").unwrap_err();
        assert!(err.contains("invalid request"), "{err}");
        let err = Request::from_json(r#"{"op":"arrive","tenant":"t","id":1}"#).unwrap_err();
        assert!(err.contains("job"), "{err}");
    }

    #[test]
    fn responses_round_trip_by_shape() {
        let cases = vec![
            Response::Ok,
            Response::Event {
                machine: 3,
                cost_delta: -7,
                cost: 40,
            },
            Response::Compact {
                moves: 5,
                cost_delta: -230,
                cost: 4180,
            },
            Response::Stats {
                shards: 4,
                tenants: 10,
                requests: 1234,
            },
            Response::Wal(WalStats {
                generation: 2,
                log_records: 48,
                log_bytes: 3120,
                snapshot_bytes: 911,
            }),
            Response::Health(HealthReport {
                shards: vec![ShardHealth {
                    shard: 0,
                    queue_depth: 3,
                    shed: 12,
                    respawns: 1,
                    tenants: 5,
                    wal_backlog: 7,
                }],
                degraded: vec![TenantHealth {
                    tenant: "flood".into(),
                    shed: 12,
                    inflight: 64,
                }],
            }),
            Response::error("unknown tenant 'x'"),
            Response::fail(ErrorCode::UnknownTenant, "unknown tenant 'x'"),
            Response::overloaded("shard 2 queue full", 25),
        ];
        for response in cases {
            let line = response.to_json();
            let parsed = Response::from_json(&line).unwrap();
            assert_eq!(parsed.to_json(), line);
            assert_eq!(parsed.is_ok(), response.is_ok());
        }
    }

    #[test]
    fn error_codes_round_trip_both_encodings() {
        let codes = [
            ErrorCode::Overloaded,
            ErrorCode::Unavailable,
            ErrorCode::UnknownTenant,
            ErrorCode::AlreadyOpen,
            ErrorCode::Malformed,
            ErrorCode::Rejected,
            ErrorCode::Unsupported,
            ErrorCode::Internal,
        ];
        for code in codes {
            assert_eq!(ErrorCode::parse(code.as_str()), code);
            assert_eq!(ErrorCode::from_byte(code.as_byte()), code);
        }
        // Forward compatibility: unknowns decode as `internal`.
        assert_eq!(ErrorCode::parse("quota_exceeded"), ErrorCode::Internal);
        assert_eq!(ErrorCode::from_byte(0xFF), ErrorCode::Internal);
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::Unavailable.is_retryable());
        assert!(!ErrorCode::Rejected.is_retryable());
    }

    #[test]
    fn error_responses_without_a_code_decode_as_internal() {
        // The pre-taxonomy wire shape (PR 5–7 servers) still parses.
        let parsed = Response::from_json(r#"{"ok": false, "error": "boom"}"#).unwrap();
        let Response::Error(error) = parsed else {
            panic!("expected an error response");
        };
        assert_eq!(error.code, ErrorCode::Internal);
        assert_eq!(error.message, "boom");
        assert_eq!(error.retry_after_ms, None);
    }

    #[test]
    fn request_metadata_accessors() {
        assert_eq!(Request::Stats.op(), "stats");
        assert_eq!(Request::Stats.tenant(), None);
        let r = Request::Query { tenant: "t".into() };
        assert_eq!(r.op(), "query");
        assert_eq!(r.tenant(), Some("t"));
    }
}
