//! The TCP front end: a std-only daemon speaking NDJSON and binary framing on the
//! same listener.
//!
//! [`serve`] accepts connections on a [`TcpListener`] and spawns one thread per
//! connection.  Each connection thread decides the framing of **every message** by
//! peeking its first byte — `0xB5` opens a binary frame ([`crate::frame`]), anything
//! else is a newline-delimited JSON line — so binary and NDJSON clients share one
//! port and one connection may mix framings; each response travels in the framing of
//! its request.
//!
//! The handler is **pipelining-aware**: it keeps decoding requests while its read
//! buffer holds more input (up to a batch cap), hands the whole decoded batch to
//! [`Engine::call_many`] — which coalesces the requests into one bounded-channel
//! send per shard — and only flushes the response buffer once the read side has no
//! further buffered input.  A lone request-per-round-trip client therefore sees one
//! flush per request, exactly as before, while a client with `k` requests in flight
//! sees the per-request syscalls, JSON costs and channel sends amortized across the
//! window.  The matching client invariant: **finish writing every request you have
//! begun before blocking on responses** (any client that writes whole requests —
//! like [`Client`] — satisfies this trivially).
//!
//! Malformed NDJSON lines get an `{"ok": false, …}` response and the connection
//! stays usable.  A line is read through a cap of [`MAX_PAYLOAD`] bytes, the binary
//! payload limit: one that reaches it without a newline is answered `malformed` and
//! the connection drops, since there is no line boundary left to resync on.  A
//! malformed **binary** frame cannot be skipped — the stream has no recoverable
//! frame boundary — so the handler answers a final error frame and drops
//! the connection; subsequent frames on *other* connections are unaffected, and the
//! fuzz suite pins that no hostile byte soup can panic the daemon or desync an
//! honest connection.  There is deliberately no protocol state on the connection
//! beyond the tenant-id bindings of the binary fast path — a client may reconnect at
//! any time and continue driving its tenants, whose schedulers live in the registry
//! shards, not in the socket handler.
//!
//! [`Client`] is the matching blocking client: NDJSON by default
//! ([`Client::connect`]), binary on request ([`Client::connect_binary`]), one
//! request in flight through [`Client::call`] or a window of them through
//! [`Client::pipeline`] / [`Client::drive_trace_pipelined`].

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use busytime::online::Trace;
use busytime::report::SimulationReport;
use busytime::OnlinePolicy;

use crate::faults::{FaultKind, FaultPlan};
use crate::frame::{
    DecodeError, FrameRequest, FrameResponse, RequestFrame, ResponseFrame, MAGIC, MAX_PAYLOAD,
};
use crate::protocol::{ErrorCode, Request, Response, WireError};
use crate::registry::Engine;

/// Most requests decoded into one [`Engine::call_many`] batch.  Bounds the
/// per-connection memory a fire-hose client can pin while still amortizing the
/// shard handoff across a deep pipeline window.
pub const MAX_BATCH: usize = 128;

/// Most tenant-id bindings one connection may hold (the binary `bind` table).
/// A connection needing more is rebinding pathologically; the cap keeps a
/// hostile client from growing the table without bound.
pub const MAX_BINDINGS: usize = 1 << 20;

/// Serve the engine on an already-bound listener, one thread per connection.
///
/// Returns only when the listener errors (callers wanting a graceful stop use
/// [`spawn`] and its [`ServerHandle`], as the in-process tests and benchmarks do).
pub fn serve(listener: TcpListener, engine: Engine) -> std::io::Result<()> {
    accept_loop(listener, engine, None)
}

/// Serve the engine on a background accept thread, returning a handle that
/// stops it.
///
/// Dropping the handle (or calling [`ServerHandle::stop`]) signals the accept
/// loop, wakes it with a loopback connection, and joins the accept thread —
/// no new connections are admitted afterwards.  Connection threads already
/// running are not interrupted; they exit when their clients hang up, and the
/// [`crate::registry::Registry::shutdown`] that typically follows blocks until
/// the engine clones they hold are gone.
pub fn spawn(listener: TcpListener, engine: Engine) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread = std::thread::Builder::new()
        .name("busytime-accept".to_string())
        .spawn({
            let stop = stop.clone();
            move || {
                // A listener error ends the accept loop; connections already
                // handed off keep running.
                let _ = accept_loop(listener, engine, Some(stop));
            }
        })?;
    Ok(ServerHandle {
        addr,
        stop,
        thread: Some(thread),
    })
}

/// A running background server (see [`spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread (also runs on drop).
    pub fn stop(self) {}
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks in `accept`; a loopback connection wakes it so
        // it can observe the flag.  An unspecified bind address (0.0.0.0 / ::)
        // is not connectable, so substitute the matching loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(500));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The shared accept loop: one handler thread per connection, with an optional
/// stop flag checked between accepts.
fn accept_loop(
    listener: TcpListener,
    engine: Engine,
    stop: Option<Arc<AtomicBool>>,
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        if stop
            .as_ref()
            .is_some_and(|stop| stop.load(Ordering::Acquire))
        {
            break;
        }
        let stream = stream?;
        let engine = engine.clone();
        std::thread::Builder::new()
            .name("busytime-conn".to_string())
            .spawn(move || {
                // A dropped connection is the client's business, not the server's.
                let _ = handle_connection(stream, engine);
            })?;
    }
    Ok(())
}

/// One decoded inbound message, waiting in the connection's dispatch batch.
/// The requests bound for the engine travel beside the batch, in the same order,
/// so a call variant keeps only how to frame its answer.
enum Pending {
    /// An NDJSON request for the engine.
    NdjsonCall,
    /// An NDJSON line already answered locally (malformed input).
    NdjsonReply(Response),
    /// A binary request for the engine.
    BinaryCall {
        /// Echoed sequence number.
        seq: u32,
    },
    /// A binary frame already answered locally (bind acks, unbound tenant ids).
    BinaryReply {
        /// Echoed sequence number.
        seq: u32,
        /// The ready response frame body.
        frame: FrameResponse,
    },
}

/// The connection-local state of the binary fast path: tenant names by id, ids by
/// name, assigned densely in bind order (the client mirrors this assignment).
#[derive(Default)]
struct Bindings {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Bindings {
    /// Bind `name`, returning its (possibly pre-existing) id, or an error once
    /// the table is full.
    fn bind(&mut self, name: String) -> Result<u32, String> {
        if let Some(&id) = self.ids.get(&name) {
            return Ok(id);
        }
        if self.names.len() >= MAX_BINDINGS {
            return Err(format!(
                "this connection already holds {MAX_BINDINGS} tenant bindings"
            ));
        }
        let id = self.names.len() as u32;
        self.ids.insert(name.clone(), id);
        self.names.push(name);
        Ok(id)
    }

    /// The name bound to `id`, if any.
    fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }
}

/// Map one decoded binary frame to a pending item, resolving tenant ids through
/// the connection's binding table (binds mutate it for the *rest of the batch*,
/// so a bind and its first use may share a window) and pushing a request for
/// the engine onto `calls`.
fn pend_binary(frame: RequestFrame, bindings: &mut Bindings, calls: &mut Vec<Request>) -> Pending {
    let RequestFrame { seq, body } = frame;
    let mut call = |request| {
        calls.push(request);
        Pending::BinaryCall { seq }
    };
    let unbound = |id: u32| Pending::BinaryReply {
        seq,
        frame: FrameResponse::Error {
            code: ErrorCode::Malformed,
            retry_after_ms: 0,
            message: format!("tenant id {id} is not bound on this connection"),
        },
    };
    match body {
        FrameRequest::Bind { name } => match bindings.bind(name) {
            Ok(tenant) => Pending::BinaryReply {
                seq,
                frame: FrameResponse::Bound { tenant },
            },
            Err(message) => Pending::BinaryReply {
                seq,
                frame: FrameResponse::Error {
                    code: ErrorCode::Rejected,
                    retry_after_ms: 0,
                    message,
                },
            },
        },
        FrameRequest::Arrive {
            tenant,
            id,
            start,
            end,
        } => match bindings.name(tenant) {
            Some(name) => call(Request::Arrive {
                tenant: name.to_string(),
                id,
                job: (start, end),
            }),
            None => unbound(tenant),
        },
        FrameRequest::Depart { tenant, id } => match bindings.name(tenant) {
            Some(name) => call(Request::Depart {
                tenant: name.to_string(),
                id,
            }),
            None => unbound(tenant),
        },
        FrameRequest::Query { tenant } => match bindings.name(tenant) {
            Some(name) => call(Request::Query {
                tenant: name.to_string(),
            }),
            None => unbound(tenant),
        },
        FrameRequest::Json { payload } => match Request::from_json(&payload) {
            Ok(request) => call(request),
            Err(error) => Pending::BinaryReply {
                seq,
                frame: FrameResponse::Error {
                    code: ErrorCode::Malformed,
                    retry_after_ms: 0,
                    message: error,
                },
            },
        },
    }
}

/// The binary shape of an engine response: `Event` and `Error` have fixed-layout
/// frames, everything else rides in a JSON frame carrying the exact NDJSON body.
fn frame_response(response: Response) -> FrameResponse {
    match response {
        Response::Event {
            machine,
            cost_delta,
            cost,
        } => FrameResponse::Event {
            machine: machine as u64,
            cost_delta,
            cost,
        },
        Response::Error(error) => FrameResponse::Error {
            code: error.code,
            retry_after_ms: error.retry_after_ms.unwrap_or(0),
            message: error.message,
        },
        other => FrameResponse::Json {
            payload: other.to_json(),
        },
    }
}

/// Dispatch one decoded batch: run the engine calls as a single
/// [`Engine::call_many`] batch, then write every response — engine answers and
/// locally answered frames alike — in arrival order and framing.
fn dispatch(
    engine: &Engine,
    batch: Vec<Pending>,
    calls: Vec<Request>,
    writer: &mut impl Write,
    scratch: &mut Vec<u8>,
) -> std::io::Result<()> {
    let mut responses = engine.call_many(calls).into_iter();
    let mut next = || {
        responses
            .next()
            .unwrap_or_else(|| Response::error("the engine returned no response"))
    };
    for pending in batch {
        match pending {
            Pending::NdjsonCall => {
                writer.write_all(next().to_json().as_bytes())?;
                writer.write_all(b"\n")?;
            }
            Pending::NdjsonReply(response) => {
                writer.write_all(response.to_json().as_bytes())?;
                writer.write_all(b"\n")?;
            }
            Pending::BinaryCall { seq } => {
                let frame = ResponseFrame {
                    seq,
                    body: frame_response(next()),
                };
                frame.write_into(scratch, writer)?;
            }
            Pending::BinaryReply { seq, frame } => {
                ResponseFrame { seq, body: frame }.write_into(scratch, writer)?;
            }
        }
    }
    Ok(())
}

/// Flush the response buffer, first consulting the fault plan: a planned
/// `SlowWrite` stalls briefly before flushing, and a planned `ConnDrop` fails
/// the flush outright — the handler returns, the socket closes, and whatever
/// the buffer held is lost exactly as a network partition would lose it.
fn gated_flush(faults: Option<&FaultPlan>, writer: &mut impl Write) -> std::io::Result<()> {
    if let Some(plan) = faults {
        if plan.fire(FaultKind::SlowWrite) {
            std::thread::sleep(Duration::from_millis(40));
        }
        if plan.fire(FaultKind::ConnDrop) {
            return Err(std::io::Error::other("injected connection drop"));
        }
    }
    writer.flush()
}

/// Drive one connection: decode buffered requests into batches, dispatch each
/// batch through the engine, and flush responses when the read side goes idle.
fn handle_connection(stream: TcpStream, engine: Engine) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let faults = engine.fault_plan().cloned();
    let mut reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
    let mut writer = BufWriter::with_capacity(64 * 1024, stream);
    let mut bindings = Bindings::default();
    let mut scratch = Vec::with_capacity(256);
    let mut line: Vec<u8> = Vec::new();
    'connection: loop {
        // Blocks only when nothing is buffered — and everything written so far
        // has been flushed by then, so the peer is never left waiting on us.
        let first = match reader.fill_buf() {
            Ok([]) => break,
            Ok(buf) => buf[0],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let mut batch: Vec<Pending> = Vec::new();
        let mut calls: Vec<Request> = Vec::new();
        let mut peek = Some(first);
        loop {
            let byte = match peek.take() {
                Some(byte) => byte,
                None => match reader.fill_buf() {
                    Ok([]) => {
                        // EOF with a batch in hand: answer it, then close.
                        dispatch(&engine, batch, calls, &mut writer, &mut scratch)?;
                        gated_flush(faults.as_ref(), &mut writer)?;
                        break 'connection;
                    }
                    Ok(buf) => buf[0],
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                },
            };
            if byte == MAGIC {
                match RequestFrame::read(&mut reader) {
                    Ok(frame) => batch.push(pend_binary(frame, &mut bindings, &mut calls)),
                    Err(error) => {
                        // No recoverable frame boundary: answer what we owe plus
                        // a final error frame, then drop the connection.
                        dispatch(&engine, batch, calls, &mut writer, &mut scratch)?;
                        if let DecodeError::Protocol { seq, message } = error {
                            let frame = ResponseFrame {
                                seq,
                                body: FrameResponse::Error {
                                    code: ErrorCode::Malformed,
                                    retry_after_ms: 0,
                                    message,
                                },
                            };
                            frame.write_into(&mut scratch, &mut writer)?;
                        }
                        gated_flush(faults.as_ref(), &mut writer)?;
                        break 'connection;
                    }
                }
            } else {
                line.clear();
                let read = (&mut reader)
                    .take(MAX_PAYLOAD as u64 + 1)
                    .read_until(b'\n', &mut line)?;
                if read == 0 {
                    dispatch(&engine, batch, calls, &mut writer, &mut scratch)?;
                    gated_flush(faults.as_ref(), &mut writer)?;
                    break 'connection;
                }
                if read > MAX_PAYLOAD && line.last() != Some(&b'\n') {
                    // No newline within the cap: like a bad binary frame, there is no
                    // boundary to resync on, so answer and drop the connection.
                    let message = format!("request line longer than {MAX_PAYLOAD} bytes");
                    batch.push(Pending::NdjsonReply(Response::fail(
                        ErrorCode::Malformed,
                        message,
                    )));
                    dispatch(&engine, batch, calls, &mut writer, &mut scratch)?;
                    gated_flush(faults.as_ref(), &mut writer)?;
                    break 'connection;
                }
                // A line that is not UTF-8 ends the connection.
                let text = std::str::from_utf8(&line)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
                    .trim();
                if !text.is_empty() {
                    batch.push(match Request::from_json(text) {
                        Ok(request) => {
                            calls.push(request);
                            Pending::NdjsonCall
                        }
                        Err(error) => {
                            Pending::NdjsonReply(Response::fail(ErrorCode::Malformed, error))
                        }
                    });
                }
            }
            if batch.len() >= MAX_BATCH || reader.buffer().is_empty() {
                break;
            }
        }
        dispatch(&engine, batch, calls, &mut writer, &mut scratch)?;
        // The flush fix: flush only when the read side has no further buffered
        // input — a pipelining client's window drains in one write.
        if reader.buffer().is_empty() {
            gated_flush(faults.as_ref(), &mut writer)?;
        }
    }
    Ok(())
}

/// Which framing a [`Client`] speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Newline-delimited JSON (the default, and the most interoperable).
    Ndjson,
    /// Binary frames with the fixed-layout fast path for `arrive`/`depart`/
    /// `query` and JSON fallback frames for everything else.
    Binary,
}

impl Framing {
    /// The name used on command lines and in benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            Framing::Ndjson => "ndjson",
            Framing::Binary => "binary",
        }
    }

    /// Parse a command-line framing name.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "ndjson" | "json" => Ok(Framing::Ndjson),
            "binary" | "bin" => Ok(Framing::Binary),
            other => Err(format!(
                "unknown framing '{other}' (expected ndjson or binary)"
            )),
        }
    }
}

/// How a resilient [`Client`] rides out connection failures.
///
/// Reconnects back off exponentially from `base_delay_ms` to `max_delay_ms`
/// with deterministic jitter drawn from `seed` (same seed, same delays — the
/// chaos tests replay byte-identical schedules).  `request_timeout_ms`, when
/// non-zero, bounds every blocking read so a stalled server surfaces as a
/// retryable transport error instead of a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Connection attempts per outage before giving up.
    pub attempts: u32,
    /// Backoff before the first reconnect attempt.
    pub base_delay_ms: u64,
    /// Backoff cap.
    pub max_delay_ms: u64,
    /// Read deadline per response; `0` waits forever.
    pub request_timeout_ms: u64,
    /// Seed for the jitter generator.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base_delay_ms: 10,
            max_delay_ms: 1000,
            request_timeout_ms: 5000,
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The backoff before reconnect `attempt` (0-based): exponential from the
    /// base, capped, with up to 50% deterministic jitter subtracted so waves
    /// of reconnecting clients spread out.
    fn delay_ms(&self, attempt: u32, jitter: &mut u64) -> u64 {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_delay_ms.max(1));
        // xorshift64*: tiny and deterministic; seeded per outage.
        let mut x = *jitter | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *jitter = x;
        exp - x.wrapping_mul(0x2545_f491_4f6c_dd1d) % (exp / 2 + 1)
    }
}

/// Total outages one logical operation will heal across before giving up —
/// a backstop against a server that drops every single connection.
const MAX_HEALS: u32 = 32;

/// A blocking protocol client over one connection, in either framing.
///
/// [`Client::call`] keeps the one-request-in-flight behaviour the CLI and the
/// smoke tests rely on.  The split [`Client::send`] / [`Client::flush`] /
/// [`Client::recv`] API underneath lets callers keep a window of requests in
/// flight; [`Client::pipeline`] packages the standard windowed loop, and the
/// load generator drives the split API directly to timestamp every request.
///
/// In binary framing the client transparently `bind`s tenant names to
/// connection-local ids on first use, mirroring the server's dense id
/// assignment, and consumes the `bound` acknowledgements inside [`Client::recv`]
/// — callers never see them.
///
/// A client built with [`Client::connect_resilient`] additionally self-heals:
/// when the connection dies it reconnects with capped, jittered exponential
/// backoff, re-binds its tenants in id order (the dense mirror survives the
/// new connection), and [`Client::drive_trace_pipelined`] resumes the trace
/// from the server's acknowledged-event count so every event applies exactly
/// once even when the failure ate in-flight responses.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    framing: Framing,
    /// Next sequence number for binary frames.
    seq: u32,
    /// Tenant name → connection-local id (binary framing only).
    bindings: HashMap<String, u32>,
    scratch: Vec<u8>,
    /// Reconnect policy; `None` fails fast on the first transport error.
    retry: Option<RetryPolicy>,
    /// The resolved address reconnects go to.
    addr: Option<SocketAddr>,
}

impl Client {
    /// Connect to a running daemon speaking NDJSON.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, Framing::Ndjson)
    }

    /// Connect to a running daemon speaking the binary framing.
    pub fn connect_binary(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, Framing::Binary)
    }

    /// Connect with an explicit framing.
    pub fn connect_with(addr: impl ToSocketAddrs, framing: Framing) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, framing, None, None)
    }

    /// Connect with an explicit framing and a self-healing [`RetryPolicy`]
    /// (the initial connect retries with the same backoff as reconnects).
    pub fn connect_resilient(
        addr: impl ToSocketAddrs,
        framing: Framing,
        policy: RetryPolicy,
    ) -> std::io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("the address resolved to nothing"))?;
        let mut jitter = policy.seed;
        let mut last = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(
                    policy.delay_ms(attempt - 1, &mut jitter),
                ));
            }
            match TcpStream::connect(addr) {
                Ok(stream) => return Self::from_stream(stream, framing, Some(policy), Some(addr)),
                Err(error) => last = Some(error),
            }
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("no connection attempts were made")))
    }

    /// Wrap a fresh stream in the buffered reader/writer pair.
    fn from_stream(
        stream: TcpStream,
        framing: Framing,
        retry: Option<RetryPolicy>,
        addr: Option<SocketAddr>,
    ) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        if let Some(policy) = &retry {
            if policy.request_timeout_ms > 0 {
                stream.set_read_timeout(Some(Duration::from_millis(policy.request_timeout_ms)))?;
            }
        }
        Ok(Client {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: BufWriter::with_capacity(64 * 1024, stream),
            framing,
            seq: 0,
            bindings: HashMap::new(),
            scratch: Vec::with_capacity(256),
            retry,
            addr,
        })
    }

    /// The framing this client speaks.
    pub fn framing(&self) -> Framing {
        self.framing
    }

    /// Whether this client heals transport failures by reconnecting.
    pub fn is_resilient(&self) -> bool {
        self.retry.is_some() && self.addr.is_some()
    }

    /// Replace the dead connection with a fresh one, backing off between
    /// attempts per the retry policy, and re-bind every tenant in id order so
    /// the dense id mirror stays valid.  `cause` is folded into the error when
    /// every attempt fails.
    fn reconnect(&mut self, cause: &str) -> Result<(), String> {
        let (Some(policy), Some(addr)) = (self.retry, self.addr) else {
            return Err(cause.to_string());
        };
        let mut jitter = policy.seed ^ 0x9e37_79b9_7f4a_7c15;
        for attempt in 0..policy.attempts.max(1) {
            std::thread::sleep(Duration::from_millis(policy.delay_ms(attempt, &mut jitter)));
            let Ok(fresh) = Self::from_stream(
                match TcpStream::connect(addr) {
                    Ok(stream) => stream,
                    Err(_) => continue,
                },
                self.framing,
                self.retry,
                self.addr,
            ) else {
                continue;
            };
            let bindings = std::mem::take(&mut self.bindings);
            *self = fresh;
            // Replay the binds in id order: the new connection's server table
            // assigns the same dense ids, and `recv` consumes the `bound`
            // acknowledgements transparently.
            let mut names: Vec<(u32, String)> =
                bindings.into_iter().map(|(name, id)| (id, name)).collect();
            names.sort_unstable();
            for (_, name) in names {
                let id = self.bind_id(&name)?;
                debug_assert_eq!(id as usize, self.bindings.len() - 1);
            }
            self.flush()?;
            return Ok(());
        }
        Err(format!(
            "the connection died ({cause}) and {} reconnect attempt(s) to {addr} failed",
            policy.attempts.max(1)
        ))
    }

    /// Send one request, healing the connection and retrying on transport
    /// errors when a retry policy is set.  Only safe for requests the caller
    /// knows are idempotent-or-refused (the drive's `open`/`close`/`query`).
    fn call_healed(&mut self, request: &Request) -> Result<Response, String> {
        let mut error = match self.call(request) {
            Ok(response) => return Ok(response),
            Err(error) => error,
        };
        for _ in 0..MAX_HEALS {
            if !self.is_resilient() {
                break;
            }
            self.reconnect(&error)?;
            match self.call(request) {
                Ok(response) => return Ok(response),
                Err(next) => error = next,
            }
        }
        Err(error)
    }

    /// Queue one request into the connection's write buffer **without flushing**.
    ///
    /// In binary framing, a fast-path request for a not-yet-bound tenant first
    /// queues a `bind` frame; the matching `bound` acknowledgement is consumed
    /// transparently by [`Client::recv`].  Call [`Client::flush`] before
    /// blocking on responses.
    pub fn send(&mut self, request: &Request) -> Result<(), String> {
        match self.framing {
            Framing::Ndjson => self
                .writer
                .write_all(request.to_json().as_bytes())
                .and_then(|()| self.writer.write_all(b"\n"))
                .map_err(|e| format!("sending the request: {e}")),
            Framing::Binary => {
                let body = match request {
                    Request::Arrive { tenant, id, job } => {
                        let tenant = self.bind_id(tenant)?;
                        FrameRequest::Arrive {
                            tenant,
                            id: *id,
                            start: job.0,
                            end: job.1,
                        }
                    }
                    Request::Depart { tenant, id } => {
                        let tenant = self.bind_id(tenant)?;
                        FrameRequest::Depart { tenant, id: *id }
                    }
                    Request::Query { tenant } => {
                        let tenant = self.bind_id(tenant)?;
                        FrameRequest::Query { tenant }
                    }
                    other => FrameRequest::Json {
                        payload: other.to_json(),
                    },
                };
                self.send_frame(body)
            }
        }
    }

    /// Queue one binary frame, assigning the next sequence number.
    fn send_frame(&mut self, body: FrameRequest) -> Result<(), String> {
        let frame = RequestFrame {
            seq: self.seq,
            body,
        };
        self.seq = self.seq.wrapping_add(1);
        self.scratch.clear();
        frame.encode_into(&mut self.scratch);
        self.writer
            .write_all(&self.scratch)
            .map_err(|e| format!("sending the request: {e}"))
    }

    /// The connection-local id for `tenant`, queueing a `bind` frame on first
    /// use (mirroring the server's dense assignment, so no round trip is
    /// needed).
    fn bind_id(&mut self, tenant: &str) -> Result<u32, String> {
        if let Some(&id) = self.bindings.get(tenant) {
            return Ok(id);
        }
        let id = self.bindings.len() as u32;
        self.bindings.insert(tenant.to_string(), id);
        self.send_frame(FrameRequest::Bind {
            name: tenant.to_string(),
        })?;
        Ok(id)
    }

    /// Flush every queued request to the socket.
    pub fn flush(&mut self) -> Result<(), String> {
        self.writer
            .flush()
            .map_err(|e| format!("flushing the connection: {e}"))
    }

    /// Read the next response, blocking.  Binary `bound` acknowledgements are
    /// validated against the client's mirrored id table and skipped.
    pub fn recv(&mut self) -> Result<Response, String> {
        match self.framing {
            Framing::Ndjson => {
                let mut line = String::new();
                let read = self
                    .reader
                    .read_line(&mut line)
                    .map_err(|e| format!("reading the response: {e}"))?;
                if read == 0 {
                    return Err("the server closed the connection".into());
                }
                Response::from_json(line.trim_end())
            }
            Framing::Binary => loop {
                let frame = ResponseFrame::read(&mut self.reader)
                    .map_err(|e| format!("reading the response: {e}"))?;
                match frame.body {
                    FrameResponse::Bound { tenant } => {
                        if tenant as usize >= self.bindings.len() {
                            return Err(format!(
                                "the server acknowledged tenant id {tenant}, which this \
                                 client never bound"
                            ));
                        }
                    }
                    FrameResponse::Event {
                        machine,
                        cost_delta,
                        cost,
                    } => {
                        let machine = usize::try_from(machine)
                            .map_err(|_| format!("machine id {machine} does not fit"))?;
                        return Ok(Response::Event {
                            machine,
                            cost_delta,
                            cost,
                        });
                    }
                    FrameResponse::Error {
                        code,
                        retry_after_ms,
                        message,
                    } => {
                        return Ok(Response::Error(WireError {
                            code,
                            message,
                            retry_after_ms: (retry_after_ms > 0).then_some(retry_after_ms),
                        }))
                    }
                    FrameResponse::Json { payload } => return Response::from_json(&payload),
                }
            },
        }
    }

    /// Send one request and wait for its response.
    ///
    /// Transport failures (connection gone) and undecodable responses are both
    /// reported as `Err`; a well-formed `{"ok": false}` response comes back as
    /// `Ok(Response::Error(..))` — the caller decides whether that fails its task.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.send(request)?;
        self.flush()?;
        self.recv()
    }

    /// Like [`Client::call`], but treats an `{"ok": false}` response as an `Err` too
    /// — for drivers where any failure aborts the run.
    pub fn call_ok(&mut self, request: &Request) -> Result<Response, String> {
        match self.call(request)? {
            Response::Error(error) => Err(format!("{}: {error}", request.op())),
            response => Ok(response),
        }
    }

    /// Apply `requests` with up to `depth` in flight, returning the responses in
    /// request order.
    ///
    /// The window refills once it half-drains and the connection is flushed
    /// before every potential block, so neither side ever waits on an unflushed
    /// buffer.  `depth` is clamped to at least 1; depth 1 is exactly the
    /// [`Client::call`] round-trip loop.
    pub fn pipeline(
        &mut self,
        requests: &[Request],
        depth: usize,
    ) -> Result<Vec<Response>, String> {
        let depth = depth.max(1);
        let mut responses = Vec::with_capacity(requests.len());
        let mut sent = 0usize;
        while responses.len() < requests.len() {
            if sent < requests.len() && sent - responses.len() <= depth / 2 {
                while sent < requests.len() && sent - responses.len() < depth {
                    self.send(&requests[sent])?;
                    sent += 1;
                }
                self.flush()?;
            }
            responses.push(self.recv()?);
        }
        Ok(responses)
    }

    /// Drive a whole trace against the server under `tenant`: open the tenant with
    /// the trace's capacity, stream every event, and return the final `query` report.
    ///
    /// A leftover tenant of the same name (e.g. from an earlier drive) is closed and
    /// reopened fresh, so driving the same trace twice produces the same report —
    /// the run replays the trace from empty state by definition.
    ///
    /// This is the CLI `client` subcommand's engine; it is also what the CI smoke
    /// runs against a freshly started daemon.
    pub fn drive_trace(
        &mut self,
        tenant: &str,
        trace: &Trace,
        policy: OnlinePolicy,
    ) -> Result<SimulationReport, String> {
        self.drive_trace_pipelined(tenant, trace, policy, 1)
    }

    /// [`Client::drive_trace`] with up to `depth` events in flight.
    ///
    /// The responses stay in event order whatever the depth, so the final report
    /// is identical at every depth — the pipeline oracle test pins this against
    /// a local replay.  An error response to any event aborts the drive (after
    /// draining the window).
    ///
    /// On a resilient client a transport failure mid-trace does not abort:
    /// the client reconnects, asks the server how many events the tenant has
    /// durably applied (`query`'s event counter — responses lost with the
    /// connection were still applied), and resumes the pipeline from exactly
    /// that event, so every trace event applies exactly once.
    pub fn drive_trace_pipelined(
        &mut self,
        tenant: &str,
        trace: &Trace,
        policy: OnlinePolicy,
        depth: usize,
    ) -> Result<SimulationReport, String> {
        let open = Request::Open {
            tenant: tenant.to_string(),
            capacity: trace.capacity,
            policy: Some(policy.name().to_string()),
        };
        if let Response::Error(error) = self.call_healed(&open)? {
            if error.code != ErrorCode::AlreadyOpen {
                return Err(format!("open: {error}"));
            }
            self.call_ok_healed(&Request::Close {
                tenant: tenant.to_string(),
            })?;
            self.call_ok_healed(&open)?;
        }
        let requests: Vec<Request> = trace
            .events
            .iter()
            .map(|event| Request::from_event(tenant, event))
            .collect();
        let mut start = 0usize;
        let mut heals = 0u32;
        while start < requests.len() || (start == 0 && requests.is_empty()) {
            match self.pipeline(&requests[start..], depth) {
                Ok(responses) => {
                    for (i, response) in responses.into_iter().enumerate() {
                        if let Response::Error(error) = response {
                            return Err(format!("{}: {error}", requests[start + i].op()));
                        }
                    }
                    break;
                }
                Err(error) if self.is_resilient() && heals < MAX_HEALS => {
                    heals += 1;
                    self.reconnect(&error)?;
                    // The applied-event counter tells us where the server
                    // actually got to — acknowledged or not.
                    start = match self.call_ok_healed(&Request::Query {
                        tenant: tenant.to_string(),
                    })? {
                        Response::Query(report) => report.events,
                        other => return Err(format!("expected a query response, got {other:?}")),
                    };
                }
                Err(error) => return Err(error),
            }
        }
        match self.call_ok_healed(&Request::Query {
            tenant: tenant.to_string(),
        })? {
            Response::Query(report) => Ok(report),
            other => Err(format!("expected a query response, got {other:?}")),
        }
    }

    /// [`Client::call_healed`] with `{"ok": false}` responses turned into `Err`.
    fn call_ok_healed(&mut self, request: &Request) -> Result<Response, String> {
        match self.call_healed(request)? {
            Response::Error(error) => Err(format!("{}: {error}", request.op())),
            response => Ok(response),
        }
    }
}
