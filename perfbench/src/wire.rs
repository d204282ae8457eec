//! The loopback daemon the waterfall's top row drives: a registry behind an
//! ephemeral port, fed over pipelined binary connections by an open-loop
//! generator that sends every request when it is due, whether or not earlier
//! ones were answered.
//!
//! Each connection owns a share of the tenant *slots* and interleaves them
//! round-robin.  A slot is one tenant for the whole run; it replays the
//! workload's instances one *chunk* after another, every job arriving at its
//! start and departing at its end.  The request sequence is a pure function
//! of the instances, however far a run gets.
//!
//! The sending side runs one thread per connection; each connection also has
//! a reader thread that sits blocked in `read` and timestamps responses as
//! they land.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use busytime::online::{Event, OnlinePolicy};
use busytime::Instance;
use busytime_server::{
    spawn, DurabilityConfig, FrameRequest, FrameResponse, Registry, RegistryConfig, Request,
    RequestFrame, Response, ResponseFrame, ServerHandle,
};
use busytime_workload::churn_trace_from_instance;

use crate::spans::{Span, Spans};
use crate::stats::sort;

/// Which of the process's CPUs every generator thread runs on (the daemon
/// may use them all: pinned to one, it would stall whenever the host takes
/// that CPU away).
pub const GENERATOR_CPU: usize = 1;

/// How long a reader waits for one response before declaring the run stuck.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Tenants of the replay, one per slot, each open for the whole replay.
pub const SLOTS: usize = 4;

/// Client connections (connection `c` owns the slots `s` with
/// `s % CONNECTIONS == c`).
pub const CONNECTIONS: usize = 2;

/// Daemon shards.
pub const SHARDS: usize = 2;

/// Machine capacity `g` of every tenant.
pub const CAPACITY: usize = 4;

/// Online policy of every tenant.
pub const POLICY: OnlinePolicy = OnlinePolicy::FirstFit;

/// The open-loop rate of the loopback row, requests/s.
pub const REFERENCE_RPS: f64 = 10_000.0;

/// The traffic the waterfall's registry, durability, protocol, frame and
/// loopback rows replay.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Workload name (also the tenant-name prefix).
    pub name: &'static str,
    /// Chunk `k` of slot `s` replays instance `(k * SLOTS + s) mod len`.
    pub instances: Arc<Vec<Instance>>,
}

impl WireConfig {
    /// The replay of `instances` under `name`.
    pub fn replay(name: &'static str, instances: Vec<Instance>) -> Self {
        WireConfig {
            name,
            instances: Arc::new(instances),
        }
    }

    /// The replay's settings as one JSON object (for provenance), with the
    /// write-ahead log defaults the durable row runs under.
    pub fn json(requests: usize) -> String {
        let wal = DurabilityConfig::new("");
        format!(
            "{{\"framing\":\"binary\",\"slots\":{SLOTS},\"connections\":{CONNECTIONS},\
             \"shards\":{SHARDS},\"capacity\":{CAPACITY},\"policy\":\"{}\",\
             \"source\":\"replay of the workload's instances\",\"requests\":{requests},\
             \"fsync_batch\":{},\"compact_threshold\":{},\"reference_rps\":{REFERENCE_RPS}}}",
            POLICY.name(),
            wal.fsync_batch,
            wal.compact_threshold,
        )
    }

    /// The wire name of tenant index `tenant`.
    pub fn tenant_name(&self, tenant: u32) -> String {
        format!("{}-t{tenant}", self.name)
    }

    /// The `open` request of tenant index `tenant`.
    pub fn open(&self, tenant: u32) -> Request {
        Request::Open {
            tenant: self.tenant_name(tenant),
            capacity: CAPACITY,
            policy: Some(POLICY.name().to_string()),
        }
    }
}

/// One generated request: an arrival or departure of a tenant.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Tenant index (the slot).
    pub tenant: u32,
    /// The event.
    pub event: Event,
}

/// The ops of chunk `chunk` of `slot`.  Every chunk's job ids live in their
/// own range, since the tenant keeps every earlier chunk's history.
fn chunk_ops(cfg: &WireConfig, slot: usize, chunk: usize) -> VecDeque<Op> {
    let instance = &cfg.instances[(chunk * SLOTS + slot) % cfg.instances.len()];
    let offset = (chunk as u64) << 32;
    churn_trace_from_instance(instance)
        .events
        .iter()
        .map(|event| Op {
            tenant: slot as u32,
            event: match *event {
                Event::Arrival { id, interval } => Event::arrival(id + offset, interval),
                Event::Departure { id } => Event::departure(id + offset),
            },
        })
        .collect()
}

/// One connection's endless, deterministic request sequence: its slots
/// interleaved round-robin, chunks generated on demand.
pub struct OpSource {
    cfg: WireConfig,
    slots: Vec<usize>,
    queues: Vec<VecDeque<Op>>,
    next_chunk: Vec<usize>,
    turn: usize,
}

impl OpSource {
    /// The source of connection `conn`, with every slot's first chunk generated.
    pub fn new(cfg: &WireConfig, conn: usize) -> Self {
        let slots: Vec<usize> = (0..SLOTS).filter(|s| s % CONNECTIONS == conn).collect();
        OpSource {
            cfg: cfg.clone(),
            queues: slots.iter().map(|&s| chunk_ops(cfg, s, 0)).collect(),
            next_chunk: vec![1; slots.len()],
            slots,
            turn: 0,
        }
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        let i = self.turn % self.slots.len();
        self.turn += 1;
        while self.queues[i].is_empty() {
            self.queues[i] = chunk_ops(&self.cfg, self.slots[i], self.next_chunk[i]);
            self.next_chunk[i] += 1;
        }
        self.queues[i].pop_front().expect("the queue was refilled")
    }
}

/// The library request `op` stands for.
pub fn request(cfg: &WireConfig, op: &Op) -> Request {
    Request::from_event(&cfg.tenant_name(op.tenant), &op.event)
}

/// Encodes ops as binary frames, binding each tenant on first use exactly
/// like the library client.
pub struct Encoder {
    bindings: HashMap<u32, u32>,
    seq: u32,
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

impl Encoder {
    /// A fresh encoder for a fresh connection.
    pub fn new() -> Self {
        Encoder {
            bindings: HashMap::new(),
            seq: 0,
        }
    }

    fn frame(&mut self, body: FrameRequest, out: &mut Vec<u8>) {
        RequestFrame {
            seq: self.seq,
            body,
        }
        .encode_into(out);
        self.seq = self.seq.wrapping_add(1);
    }

    /// Append a JSON-payload frame carrying `request`.
    pub fn encode_json(&mut self, request: &Request, out: &mut Vec<u8>) {
        self.frame(
            FrameRequest::Json {
                payload: request.to_json(),
            },
            out,
        );
    }

    /// Append `op`'s frames to `out`; returns `true` when a bind frame (whose
    /// acknowledgement the reader must skip) went out first.
    pub fn encode(&mut self, cfg: &WireConfig, op: &Op, out: &mut Vec<u8>) -> bool {
        let mut bound = false;
        let next = self.bindings.len() as u32;
        let id = *self.bindings.entry(op.tenant).or_insert_with(|| {
            bound = true;
            next
        });
        if bound {
            let name = cfg.tenant_name(op.tenant);
            self.frame(FrameRequest::Bind { name }, out);
        }
        let body = match op.event {
            Event::Arrival { id: job, interval } => FrameRequest::Arrive {
                tenant: id,
                id: job,
                start: interval.start().ticks(),
                end: interval.end().ticks(),
            },
            Event::Departure { id: job } => FrameRequest::Depart {
                tenant: id,
                id: job,
            },
        };
        self.frame(body, out);
        bound
    }
}

/// A response as the generator sees it.
enum Reply {
    Bound,
    Ok,
    Failed(String),
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<Reply, String> {
    let frame = ResponseFrame::read(reader).map_err(|e| e.to_string())?;
    Ok(match frame.body {
        FrameResponse::Bound { .. } => Reply::Bound,
        FrameResponse::Error { message, .. } => Reply::Failed(message),
        _ => Reply::Ok,
    })
}

/// One client connection: a writer half, a buffered reader half and the
/// framing state.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    encoder: Encoder,
}

impl Conn {
    /// Connect to `addr`.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            encoder: Encoder::new(),
        })
    }

    /// Send one request as JSON and wait for its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let mut bytes = Vec::new();
        self.encoder.encode_json(request, &mut bytes);
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("sending: {e}"))?;
        let frame = ResponseFrame::read(&mut self.reader).map_err(|e| e.to_string())?;
        match frame.body {
            FrameResponse::Json { payload } => Response::from_json(&payload),
            FrameResponse::Error { message, .. } => Ok(Response::error(message)),
            other => Err(format!("a JSON request was answered with {other:?}")),
        }
    }
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests answered.
    pub requests: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// First error message seen.
    pub first_error: Option<String>,
    /// Sent → response times, µs, sorted.
    pub service_us: Vec<f64>,
    /// Due → sent, µs (how late the generator ran), sorted.
    pub late_us: Vec<f64>,
}

enum Expect {
    Bind,
    Request { due: Instant, sent: Instant },
}

struct ConnSamples {
    late_us: Vec<f64>,
    service_us: Vec<f64>,
    failed: u64,
    first_error: Option<String>,
    spans: Vec<Span>,
}

/// Ask the kernel to wake this thread's sleeps within a nanosecond of the
/// deadline instead of the default 50 µs slack, so the generator sends on time
/// rather than charging its own oversleep to the daemon.  Best effort: on
/// failure the sleeps keep the default slack, which only shows as lateness.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: prctl(PR_SET_TIMERSLACK, n) only sets the calling thread's
        // timer slack; it reads no memory from us, and every argument is a
        // plain integer of the width the C prototype takes on 64-bit Linux.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}

/// Pin the calling thread to the `index`-th CPU this process may run on,
/// when it may run on at least two.  Best effort: a failure leaves the
/// thread unpinned.
pub fn pin_to_cpu(index: usize) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut allowed = [0u64; 16];
        // SAFETY: `allowed` is a live 1024-bit CPU set and `size` is its
        // exact byte length, so the kernel writes only inside it; pid 0 names
        // the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) }
            != 0
        {
            return;
        }
        let cpus: Vec<usize> = (0..allowed.len() * 64)
            .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        if cpus.len() < 2 {
            return;
        }
        let cpu = cpus[index.min(cpus.len() - 1)];
        let mut mask = [0u64; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: as above, the kernel reads only the `size` bytes of `mask`.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn drive_writer(
    cfg: &WireConfig,
    writer: &TcpStream,
    encoder: &mut Encoder,
    source: &mut OpSource,
    start: Instant,
    interval: Duration,
    count: usize,
    tx: mpsc::Sender<Expect>,
) -> Result<(), String> {
    tighten_timer_slack();
    pin_to_cpu(GENERATOR_CPU);
    let mut out = BufWriter::with_capacity(1 << 16, writer);
    let mut bytes = Vec::with_capacity(256);
    for i in 0..count {
        let due = start + interval * i as u32;
        let now = Instant::now();
        if due > now {
            out.flush().map_err(|e| format!("sending: {e}"))?;
            std::thread::sleep(due - now);
        }
        let op = source.next_op();
        bytes.clear();
        if encoder.encode(cfg, &op, &mut bytes) {
            tx.send(Expect::Bind).map_err(|_| "reader gone")?;
        }
        let sent = Instant::now();
        tx.send(Expect::Request { due, sent })
            .map_err(|_| "reader gone")?;
        out.write_all(&bytes).map_err(|e| format!("sending: {e}"))?;
    }
    out.flush().map_err(|e| format!("sending: {e}"))
}

fn drive_reader(
    reader: &mut BufReader<TcpStream>,
    rx: mpsc::Receiver<Expect>,
    spans: Option<&Spans>,
    conn: u64,
) -> Result<ConnSamples, String> {
    pin_to_cpu(GENERATOR_CPU);
    let mut samples = ConnSamples {
        late_us: Vec::new(),
        service_us: Vec::new(),
        failed: 0,
        first_error: None,
        spans: Vec::new(),
    };
    while let Ok(expect) = rx.recv() {
        let reply = read_reply(reader)?;
        let now = Instant::now();
        match (expect, reply) {
            (Expect::Bind, Reply::Bound) => {}
            (Expect::Bind, _) => return Err("expected a bind acknowledgement".into()),
            (Expect::Request { .. }, Reply::Bound) => {
                return Err("unexpected bind acknowledgement".into())
            }
            (Expect::Request { due, sent }, reply) => {
                if let Reply::Failed(message) = reply {
                    samples.failed += 1;
                    samples.first_error.get_or_insert(message);
                }
                let us = |d: Duration| d.as_secs_f64() * 1e6;
                samples
                    .late_us
                    .push(us(sent.saturating_duration_since(due)));
                samples
                    .service_us
                    .push(us(now.saturating_duration_since(sent)));
                if let Some(spans) = spans {
                    let request = (conn << 40) | samples.service_us.len() as u64;
                    let parent = spans.id();
                    let span = |id, name, a: Instant, b: Instant, parent| Span {
                        id,
                        name,
                        start_ns: spans.ns(a),
                        end_ns: spans.ns(b),
                        parent,
                        request,
                        items: 1,
                    };
                    samples
                        .spans
                        .push(span(parent, "wire.request", due, now, 0));
                    samples
                        .spans
                        .push(span(spans.id(), "loadgen.late", due, sent, parent));
                    samples
                        .spans
                        .push(span(spans.id(), "wire.roundtrip", sent, now, parent));
                }
            }
        }
    }
    Ok(samples)
}

/// Drive `count` requests at `rate` requests/s across every connection and
/// wait for every response.
pub fn run_phase(
    cfg: &WireConfig,
    conns: &mut [Conn],
    sources: &mut [OpSource],
    rate: f64,
    count: usize,
    spans: Option<&Spans>,
) -> Result<Phase, String> {
    let n_conns = conns.len() as u32;
    let per_conn = count.div_ceil(conns.len());
    let interval = Duration::from_secs_f64(conns.len() as f64 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let results: Vec<Result<ConnSamples, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(sources.iter_mut())
            .enumerate()
            .map(|(c, (conn, source))| {
                let (tx, rx) = mpsc::channel();
                let Conn {
                    writer,
                    reader,
                    encoder,
                } = conn;
                // Offset each connection by a fraction of the gap so the
                // schedules interleave instead of colliding.
                let start = start + interval * c as u32 / n_conns;
                let writer: &TcpStream = writer;
                let reading = scope.spawn(move || drive_reader(reader, rx, spans, c as u64));
                let sending = scope.spawn(move || {
                    drive_writer(cfg, writer, encoder, source, start, interval, per_conn, tx)
                });
                (sending, reading)
            })
            .collect();
        handles
            .into_iter()
            .map(|(sending, reading)| {
                let sent = sending.join().expect("writer thread panicked");
                let read = reading.join().expect("reader thread panicked");
                sent.and(read)
            })
            .collect()
    });
    let mut phase = Phase::default();
    for result in results {
        let samples = result?;
        phase.requests += samples.service_us.len() as u64;
        phase.failed += samples.failed;
        if phase.first_error.is_none() {
            phase.first_error = samples.first_error;
        }
        phase.late_us.extend(samples.late_us);
        phase.service_us.extend(samples.service_us);
        if let Some(spans) = spans {
            spans.extend(samples.spans);
        }
    }
    sort(&mut phase.late_us);
    sort(&mut phase.service_us);
    Ok(phase)
}

/// The registry config of a daemon with [`SHARDS`] shards, durable under
/// `data_dir` (at `DurabilityConfig::new` defaults) when given.
pub fn registry_config(data_dir: Option<&Path>) -> RegistryConfig {
    let mut config = RegistryConfig::new(SHARDS);
    config.durability = data_dir.map(DurabilityConfig::new);
    config
}

/// A clean directory at `dir`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Everything the loopback row drives: an in-memory daemon behind an
/// ephemeral port, the connections and their request sources.
pub struct Rig {
    server: ServerHandle,
    registry: Registry,
    /// One connection per generator.
    pub conns: Vec<Conn>,
    /// One request source per connection.
    pub sources: Vec<OpSource>,
}

impl Rig {
    /// Start the daemon, connect, and open every tenant.
    pub fn set_up(cfg: &WireConfig) -> Result<Rig, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let registry = Registry::with_config(registry_config(None))
            .map_err(|e| format!("starting the registry: {e}"))?;
        let server =
            spawn(listener, registry.engine()).map_err(|e| format!("starting the server: {e}"))?;
        let addr = server.addr().to_string();
        let mut conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(&addr))
            .collect::<Result<Vec<_>, _>>()?;
        for slot in 0..SLOTS {
            let response = conns[slot % CONNECTIONS].call(&cfg.open(slot as u32))?;
            if !response.is_ok() {
                return Err(format!("opening slot {slot}: {response:?}"));
            }
        }
        Ok(Rig {
            server,
            registry,
            conns,
            sources: (0..CONNECTIONS).map(|c| OpSource::new(cfg, c)).collect(),
        })
    }

    /// Close the connections, stop accepting, then join the shards (each
    /// connection thread holds an engine handle until its socket ends).
    pub fn tear_down(self) {
        drop(self.conns);
        drop(self.server);
        self.registry.shutdown();
    }
}
