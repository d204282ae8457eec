//! The traced layer waterfall: every layer priced from outside, bottom-up,
//! by timing calls into its public functions on the workload's own inputs.
//!
//! Rows stack: `machine.place` (the `MachinePool` slot plus insert/remove)
//! sits under `online.apply` (`OnlineScheduler::apply`), which sits under
//! `registry.call` (`Engine::call_many`, in memory), under `durability.call`
//! (the same call with the write-ahead log on), under the loopback socket.  A
//! layer's self time is its row minus the row below.  Each row is one span
//! per tenant stream (or problem, or instance) covering `items` calls.
//!
//! Every workload prices every layer, including layers its own path never
//! runs: each replays its instances as arrival/departure streams of a few
//! long-lived tenants and drives those through the same rows.  So a layer's
//! figure on a workload that bypasses it says what that layer would cost on
//! that workload's inputs, and should not move when only another layer
//! changes.  The streams are long enough that every tenant's journal passes
//! the compaction threshold several times in the durable row.
//!
//! The rows check what they run: every tenant's `query` after the in-memory
//! row, and again after a cold restart of the durable row's data directory,
//! must equal a local `OnlineScheduler` replay of its stream.

use std::collections::HashMap;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use busytime::machine::MachinePool;
use busytime::minbusy::first_fit;
use busytime::online::{Event, OnlineScheduler};
use busytime::par::ThreadPool;
use busytime::report::SimulationReport;
use busytime::{Algorithm, Duration, Instance, Interval, MachineId, Problem, Solver};
use busytime_exact::bnb::branch_and_bound;
use busytime_server::{
    DurabilityConfig, Engine, FrameResponse, Registry, Request, RequestFrame, Response,
    ResponseFrame,
};

use crate::exact::{self, ExactConfig};
use crate::offline::{self, OfflineConfig};
use crate::spans::Spans;
use crate::stats::percentile;
use crate::wire::{
    self, Encoder, Op, OpSource, Rig, WireConfig, CAPACITY, CONNECTIONS, POLICY, REFERENCE_RPS,
    SLOTS,
};
use crate::{Metric, Scale, Workload};

/// Instances in every workload's exact row (`exact.solve_s.00` …).
pub const EXACT_INSTANCES: usize = 16;

/// Requests per shard handoff in the in-process registry rows.
pub const BATCH: usize = 16;

/// The MinBusy and MaxThroughput algorithms the dispatch counts cover.
const ALGORITHMS: [Algorithm; 10] = [
    Algorithm::OneSided,
    Algorithm::ProperCliqueDp,
    Algorithm::CliqueMatching,
    Algorithm::CliqueSetCover,
    Algorithm::BestCut,
    Algorithm::FirstFit,
    Algorithm::ThroughputOneSided,
    Algorithm::ThroughputProperCliqueDp,
    Algorithm::ThroughputCliqueApprox,
    Algorithm::ThroughputGreedy,
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("machine.place_ns", "ns"),
        ("online.apply_ns", "ns"),
        ("online.self_ns", "ns"),
        ("protocol.record_ns", "ns"),
        ("protocol.decode_ns", "ns"),
        ("protocol.encode_ns", "ns"),
        ("protocol.response_bytes_mean", "bytes"),
        ("frame.decode_ns", "ns"),
        ("frame.encode_ns", "ns"),
        ("registry.call_ns", "ns"),
        ("registry.self_ns", "ns"),
        ("durability.call_ns", "ns"),
        ("durability.self_ns", "ns"),
        ("durability.fsyncs_per_kreq", "count"),
        ("durability.bytes_per_req", "bytes"),
        ("durability.compactions", "count"),
        ("durability.recover_s", "s"),
        ("server.self_ns", "ns"),
        ("loadgen.late_p99_us", "us"),
        ("instance.build_ns_per_job", "ns"),
        ("placement.ff_ns_per_job.below_cutover", "ns"),
        ("placement.ff_ns_per_job.above_cutover", "ns"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for algorithm in ALGORITHMS {
        names.push((format!("solver.count.{}", algorithm.name()), "count"));
    }
    for (name, unit) in [
        ("solver.busy_s.minbusy", "s"),
        ("solver.busy_s.maxtp", "s"),
        ("solver.maxtp_scheduled_share", "ratio"),
        ("par.efficiency", "ratio"),
        ("par.idle_s", "s"),
        ("exact.nodes", "count"),
        ("exact.nodes_per_s", "1/s"),
        ("exact.closed", "count"),
    ] {
        names.push((name.to_string(), unit));
    }
    for i in 0..EXACT_INSTANCES {
        names.push((format!("exact.solve_s.{i:02}"), "s"));
    }
    for (name, unit) in crate::E2E_METRICS {
        if name != "cost_ratio" {
            names.push((format!("trace.overhead.{name}"), unit));
        }
    }
    names
}

/// What every row runs on, derived from one workload's inputs.
struct Inputs {
    /// Wire config whose op sources feed the registry, durability, protocol,
    /// frame and loopback rows.
    wire: WireConfig,
    /// Offline problems for the solver and instance rows.
    problems: Vec<Problem>,
    /// Instances for the exact row.
    exact_set: Vec<Instance>,
    /// Jobs (ticks) the FirstFit placement rows cut their instances from.
    pool: Vec<(i64, i64)>,
}

/// `count` windows of `n` consecutive jobs (by start) from `instances`, in
/// turn, as capacity-4 instances.
fn windows(instances: &[Instance], n: usize, count: usize) -> Vec<Instance> {
    (0..count)
        .map(|k| {
            let inst = &instances[k % instances.len()];
            let ticks: Vec<(i64, i64)> = inst
                .jobs()
                .iter()
                .map(|iv| (iv.start().ticks(), iv.end().ticks()))
                .collect();
            let from = if ticks.len() > n {
                (k / instances.len() * n * 7 + k * 13) % (ticks.len() - n)
            } else {
                0
            };
            Instance::from_ticks(&ticks[from..(from + n).min(ticks.len())], 4)
        })
        .collect()
}

/// Every job of `instances`, each instance shifted past the previous one.
fn concatenated(instances: &[Instance]) -> Vec<(i64, i64)> {
    let mut pool = Vec::new();
    let mut offset = 0i64;
    for inst in instances {
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for iv in inst.jobs() {
            lo = lo.min(iv.start().ticks());
            hi = hi.max(iv.end().ticks());
        }
        for iv in inst.jobs() {
            pool.push((
                iv.start().ticks() - lo + offset,
                iv.end().ticks() - lo + offset,
            ));
        }
        if hi > lo {
            offset += hi - lo;
        }
    }
    pool
}

/// MinBusy and half-lower-bound MaxThroughput problems over `instances`.
fn problems_of(instances: &[Instance]) -> Vec<Problem> {
    let mut problems: Vec<Problem> = instances.iter().cloned().map(Problem::min_busy).collect();
    problems.extend(instances.iter().cloned().map(|inst| {
        let budget = inst.lower_bound().ticks() / 2;
        Problem::max_throughput(inst, Duration::new(budget))
    }));
    problems
}

/// Requests the registry, durability, protocol and frame rows replay: at
/// full scale three and a half compaction thresholds per tenant, so every
/// tenant's journal compacts three times in the durable row.
fn requests(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 2_000,
        Scale::Full => {
            let threshold = DurabilityConfig::new("").compact_threshold as usize;
            SLOTS * (threshold * 7 / 2)
        }
    }
}

/// The waterfall's configuration as JSON (for provenance).
pub fn config_json(scale: Scale) -> String {
    WireConfig::json(requests(scale))
}

fn inputs(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    match workload {
        Workload::OfflineBatch => {
            let cfg = OfflineConfig::new(scale);
            let problems = offline::round(&cfg, seed, 0);
            let instances: Vec<Instance> = problems
                .iter()
                .filter(|p| p.budget().is_none())
                .map(|p| p.instance().clone())
                .collect();
            let general: Vec<Instance> = instances
                .iter()
                .filter(|i| !i.is_clique() && !i.is_proper())
                .cloned()
                .collect();
            Inputs {
                exact_set: windows(&instances, 36, EXACT_INSTANCES),
                pool: concatenated(if general.is_empty() {
                    &instances
                } else {
                    &general
                }),
                wire: WireConfig::replay(workload.name(), instances),
                problems,
            }
        }
        Workload::ExactBound => {
            let cfg = ExactConfig::new(scale);
            let instances = exact::instances(&cfg, seed);
            // Every group of the set, at an even stride.
            let stride = (instances.len() / EXACT_INSTANCES).max(1);
            let exact_set = (0..EXACT_INSTANCES)
                .map(|i| instances[i * stride % instances.len()].clone())
                .collect();
            Inputs {
                problems: problems_of(&instances),
                exact_set,
                pool: concatenated(&instances),
                wire: WireConfig::replay(workload.name(), instances),
            }
        }
    }
}

/// The first `requests` ops of the config's sources, per connection.
fn ops(cfg: &WireConfig, requests: usize) -> Vec<Vec<Op>> {
    (0..CONNECTIONS)
        .map(|c| {
            let mut source = OpSource::new(cfg, c);
            (0..requests / CONNECTIONS)
                .map(|_| source.next_op())
                .collect()
        })
        .collect()
}

/// Every tenant's `open`, then the ops as library requests, the connections'
/// sequences interleaved as the daemon would see them.
fn library_requests(cfg: &WireConfig, ops: &[Vec<Op>]) -> (Vec<Request>, Vec<Request>) {
    let opens = (0..SLOTS).map(|t| cfg.open(t as u32)).collect();
    let mut body = Vec::new();
    let longest = ops.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for conn in ops {
            if let Some(op) = conn.get(i) {
                body.push(wire::request(cfg, op));
            }
        }
    }
    (opens, body)
}

/// Per-tenant event streams in the ops, by tenant index.
fn streams(ops: &[Vec<Op>]) -> Vec<Vec<Event>> {
    let mut by_tenant = vec![Vec::new(); SLOTS];
    for op in ops.iter().flatten() {
        by_tenant[op.tenant as usize].push(op.event);
    }
    by_tenant
}

/// Why the daemon's `report` of a tenant differs from `want`, the local
/// replay, if it does.  The daemon keeps only a recent window of the
/// trajectory (and restarts it at a recovered snapshot), so its trajectory
/// must be a suffix of the local one.
fn mismatch(want: &SimulationReport, report: &SimulationReport) -> Option<String> {
    let fields = [
        ("events", want.events as i64, report.events as i64),
        ("arrivals", want.arrivals as i64, report.arrivals as i64),
        (
            "departures",
            want.departures as i64,
            report.departures as i64,
        ),
        ("final_cost", want.final_cost, report.final_cost),
        ("peak_cost", want.peak_cost, report.peak_cost),
        (
            "machines_opened",
            want.machines_opened as i64,
            report.machines_opened as i64,
        ),
        ("live_jobs", want.live_jobs as i64, report.live_jobs as i64),
        ("capacity", want.capacity as i64, report.capacity as i64),
    ];
    if let Some((name, a, b)) = fields.iter().find(|(_, a, b)| a != b) {
        return Some(format!("{name}: local {a}, daemon {b}"));
    }
    if want.policy != report.policy {
        return Some(format!(
            "policy: local {}, daemon {}",
            want.policy, report.policy
        ));
    }
    if want.machine_groups != report.machine_groups {
        return Some("machine groups differ".into());
    }
    if !want.cost_trajectory.ends_with(&report.cost_trajectory) {
        return Some("cost trajectory is not a suffix of the local one".into());
    }
    None
}

/// Compare every tenant's `query` answer from `engine` with its local
/// replay; returns the first problem found.
fn check_tenants(cfg: &WireConfig, engine: &Engine, want: &[SimulationReport]) -> Option<String> {
    want.iter().enumerate().find_map(|(t, want)| {
        let name = cfg.tenant_name(t as u32);
        let problem = match engine.call(Request::Query {
            tenant: name.clone(),
        }) {
            Response::Query(report) => mismatch(want, &report),
            other => Some(format!("query answered {other:?}")),
        };
        problem.map(|p| format!("tenant {name}: {p}"))
    })
}

/// The `MachinePool` calls `OnlineScheduler::apply` makes for one first-fit
/// stream: pick a slot, insert, and remove on departure.
fn place_stream(capacity: usize, events: &[Event]) {
    let mut pool = MachinePool::new(capacity);
    let mut live: HashMap<u64, (MachineId, usize, Interval)> = HashMap::new();
    for event in events {
        match *event {
            Event::Arrival { id, interval } => {
                let (machine, thread) = pool.first_fit_slot(interval);
                pool.insert(interval, machine, thread);
                live.insert(id, (machine, thread, interval));
            }
            Event::Departure { id } => {
                if let Some((machine, thread, interval)) = live.remove(&id) {
                    pool.remove(interval, machine, thread);
                }
            }
        }
    }
    std::hint::black_box(&pool);
}

/// Repeat `f` until it has run for at least `min_s` (and at least once);
/// returns the repetitions.
fn repeat(min_s: f64, mut f: impl FnMut()) -> u64 {
    let started = Instant::now();
    let mut reps = 0;
    while reps == 0 || started.elapsed().as_secs_f64() < min_s {
        f();
        reps += 1;
    }
    reps
}

/// Price every layer on `workload`'s inputs; spans go to `spans`.
pub fn waterfall(
    workload: Workload,
    seed: u64,
    scale: Scale,
    spans: &Spans,
    out_dir: &Path,
) -> Result<Vec<Metric>, String> {
    let inputs = inputs(workload, seed, scale);
    let cfg = &inputs.wire;
    let ops = ops(cfg, requests(scale));
    let (opens, body) = library_requests(cfg, &ops);
    let streams = streams(&ops);
    let events: u64 = streams.iter().map(|e| e.len() as u64).sum();
    let min_s = if scale == Scale::Tiny { 0.0 } else { 0.1 };
    let root = spans.id();
    let root_start = Instant::now();
    let mut values: HashMap<String, f64> = HashMap::new();
    let mut set = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };

    // What every tenant's `query` must answer: a local replay of its stream.
    let want: Vec<SimulationReport> = streams
        .iter()
        .map(|stream| {
            let mut scheduler = OnlineScheduler::new(CAPACITY, POLICY).expect("valid capacity");
            let trajectory = stream
                .iter()
                .map(|event| {
                    let effect = scheduler.apply(event).expect("streams are well formed");
                    effect.cost.ticks()
                })
                .collect();
            SimulationReport::from_scheduler(&scheduler, trajectory)
        })
        .collect();

    // Placement and the online engine.
    let row = |name: &'static str, items: u64, f: &mut dyn FnMut()| {
        let start = Instant::now();
        let reps = repeat(min_s, &mut *f);
        spans.record(name, start, Instant::now(), root, 0, items * reps);
    };
    row("machine.place", events, &mut || {
        for stream in &streams {
            place_stream(CAPACITY, stream);
        }
    });
    row("online.apply", events, &mut || {
        for stream in &streams {
            let mut scheduler = OnlineScheduler::new(CAPACITY, POLICY).expect("valid capacity");
            for event in stream {
                std::hint::black_box(scheduler.apply(event).expect("streams are well formed"));
            }
        }
    });
    let place = spans.ns_per_item("machine.place");
    let apply = spans.ns_per_item("online.apply");
    set("machine.place_ns", place);
    set("online.apply_ns", apply);
    set("online.self_ns", apply - place);

    // Protocol and binary framing.
    let lines: Vec<String> = body.iter().map(Request::to_json).collect();
    let event_ops: Vec<(String, Event)> = ops
        .iter()
        .flatten()
        .map(|op| (cfg.tenant_name(op.tenant), op.event))
        .collect();
    row("protocol.record", event_ops.len() as u64, &mut || {
        for (tenant, event) in &event_ops {
            std::hint::black_box(Request::event_record_json(tenant, event));
        }
    });
    let mut decode_failed = 0u64;
    row("protocol.decode", lines.len() as u64, &mut || {
        for line in &lines {
            if Request::from_json(line).is_err() {
                decode_failed += 1;
            }
        }
    });
    let mut frames = Vec::new();
    {
        let mut encoder = Encoder::new();
        for op in ops.iter().flatten() {
            encoder.encode(cfg, op, &mut frames);
        }
    }
    let mut frames_read = 0u64;
    row("frame.decode", 0, &mut || {
        let mut cursor = Cursor::new(&frames[..]);
        while (cursor.position() as usize) < frames.len() {
            if RequestFrame::read(&mut cursor).is_err() {
                decode_failed += 1;
                break;
            }
            frames_read += 1;
        }
    });
    set("protocol.record_ns", spans.ns_per_item("protocol.record"));
    set("protocol.decode_ns", spans.ns_per_item("protocol.decode"));
    let (frame_ns, _) = spans.total("frame.decode");
    set(
        "frame.decode_ns",
        frame_ns as f64 / frames_read.max(1) as f64,
    );

    // The registry in process: in memory, then with the write-ahead log.
    let mut problems: Vec<String> = Vec::new();
    let call_rows = |name: &'static str,
                     data_dir: Option<&Path>|
     -> Result<(Vec<Response>, Registry), String> {
        let registry = Registry::with_config(wire::registry_config(data_dir))
            .map_err(|e| format!("{name}: {e}"))?;
        let engine = registry.engine();
        for response in engine.call_many(opens.clone()) {
            if !response.is_ok() {
                return Err(format!("{name}: open failed: {response:?}"));
            }
        }
        let batches: Vec<Vec<Request>> = body.chunks(BATCH).map(<[Request]>::to_vec).collect();
        let start = Instant::now();
        let mut responses = Vec::with_capacity(body.len());
        for batch in batches {
            responses.extend(engine.call_many(batch));
        }
        spans.record(name, start, Instant::now(), root, 0, body.len() as u64);
        Ok((responses, registry))
    };
    let (responses, registry) = call_rows("registry.call", None)?;
    problems.extend(
        check_tenants(cfg, &registry.engine(), &want).map(|p| format!("registry.call: {p}")),
    );
    registry.shutdown();
    let failed_calls = responses.iter().filter(|r| !r.is_ok()).count() as u64;
    let registry_ns = spans.ns_per_item("registry.call");
    set("registry.call_ns", registry_ns);
    set("registry.self_ns", registry_ns - apply);

    let encoded: Vec<String> = responses.iter().map(Response::to_json).collect();
    set(
        "protocol.response_bytes_mean",
        encoded.iter().map(String::len).sum::<usize>() as f64 / encoded.len().max(1) as f64,
    );
    row("protocol.encode", responses.len() as u64, &mut || {
        for response in &responses {
            std::hint::black_box(response.to_json());
        }
    });
    set("protocol.encode_ns", spans.ns_per_item("protocol.encode"));
    let response_frames: Vec<ResponseFrame> = responses
        .iter()
        .zip(&encoded)
        .enumerate()
        .map(|(seq, (response, json))| ResponseFrame {
            seq: seq as u32,
            body: match response {
                Response::Event {
                    machine,
                    cost_delta,
                    cost,
                } => FrameResponse::Event {
                    machine: *machine as u64,
                    cost_delta: *cost_delta,
                    cost: *cost,
                },
                _ => FrameResponse::Json {
                    payload: json.clone(),
                },
            },
        })
        .collect();
    let mut scratch = Vec::new();
    row("frame.encode", response_frames.len() as u64, &mut || {
        for frame in &response_frames {
            scratch.clear();
            frame.encode_into(&mut scratch);
        }
    });
    set("frame.encode_ns", spans.ns_per_item("frame.encode"));

    let wal_dir = out_dir.join(format!("layers-{}-{seed}", workload.name()));
    wire::fresh_dir(&wal_dir)?;
    let wal = DurabilityConfig::new(&wal_dir);
    let (wal_responses, registry) = call_rows("durability.call", Some(&wal_dir))?;
    let engine = registry.engine();
    let (mut generations, mut log_records, mut log_bytes, mut snapshot_bytes) =
        (0u64, 0u64, 0u64, 0u64);
    for t in 0..SLOTS {
        match engine.call(Request::WalStats {
            tenant: cfg.tenant_name(t as u32),
        }) {
            Response::Wal(stats) => {
                generations += stats.generation;
                log_records += stats.log_records;
                log_bytes += stats.log_bytes;
                snapshot_bytes += stats.snapshot_bytes;
            }
            other => problems.push(format!("wal_stats answered {other:?}")),
        }
    }
    drop(engine);
    registry.shutdown();
    let recover_start = Instant::now();
    let recovered = Registry::with_config(wire::registry_config(Some(&wal_dir)))
        .map_err(|e| format!("recovery: {e}"))?;
    let engine = recovered.engine();
    std::hint::black_box(engine.call(Request::Stats));
    spans.record(
        "durability.recover",
        recover_start,
        Instant::now(),
        root,
        0,
        1,
    );
    problems
        .extend(check_tenants(cfg, &engine, &want).map(|p| format!("after a cold restart: {p}")));
    drop(engine);
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
    let failed_calls = failed_calls + wal_responses.iter().filter(|r| !r.is_ok()).count() as u64;
    let durable_ns = spans.ns_per_item("durability.call");
    set("durability.call_ns", durable_ns);
    set("durability.self_ns", durable_ns - registry_ns);
    // Every request is an arrival or departure, so each one is a journal
    // record; every tenant starts at generation 0 and each compaction begins
    // the next one.
    let requests = body.len().max(1) as f64;
    let bytes_per_record = log_bytes as f64 / log_records.max(1) as f64;
    // Derived from the group-commit rule, not counted per syscall: one
    // journal sync per `fsync_batch` appends, and a snapshot plus directory
    // sync per generation.
    let fsyncs = requests / wal.fsync_batch as f64 + 2.0 * (generations + SLOTS as u64) as f64;
    set("durability.fsyncs_per_kreq", fsyncs * 1000.0 / requests);
    set(
        "durability.bytes_per_req",
        (requests * bytes_per_record + snapshot_bytes as f64) / requests,
    );
    set("durability.compactions", generations as f64);
    set(
        "durability.recover_s",
        spans.ns_per_item("durability.recover") / 1e9,
    );

    // The loopback socket at the reference rate, in memory.
    let mut rig = Rig::set_up(cfg)?;
    let rate = REFERENCE_RPS;
    let count = (rate * if scale == Scale::Tiny { 0.2 } else { 1.0 }) as usize;
    let start = Instant::now();
    let phase = wire::run_phase(
        cfg,
        &mut rig.conns,
        &mut rig.sources,
        rate,
        count,
        Some(spans),
    );
    spans.record(
        "loopback.phase",
        start,
        Instant::now(),
        root,
        0,
        count as u64,
    );
    rig.tear_down();
    let phase = phase?;
    set(
        "server.self_ns",
        percentile(&phase.service_us, 0.5) * 1e3 - registry_ns,
    );
    set("loadgen.late_p99_us", percentile(&phase.late_us, 0.99));
    problems.extend(phase.first_error);
    let failed_calls = failed_calls + phase.failed;

    // Instances and FirstFit placement either side of the tuning cutover.
    let build: Vec<(Vec<(i64, i64)>, usize)> = inputs
        .problems
        .iter()
        .map(|p| {
            let inst = p.instance();
            let ticks = inst
                .jobs()
                .iter()
                .map(|iv| (iv.start().ticks(), iv.end().ticks()))
                .collect();
            (ticks, inst.capacity())
        })
        .collect();
    let jobs: u64 = build.iter().map(|(t, _)| t.len() as u64).sum();
    row("instance.build", jobs, &mut || {
        for (ticks, g) in &build {
            std::hint::black_box(Instance::from_ticks(ticks, *g));
        }
    });
    set(
        "instance.build_ns_per_job",
        spans.ns_per_item("instance.build"),
    );
    let sized = |n: usize| -> Instance {
        let ticks: Vec<(i64, i64)> = inputs.pool.iter().cycle().take(n).copied().collect();
        Instance::from_ticks(&ticks, CAPACITY)
    };
    let (below_n, above_n) = if scale == Scale::Tiny {
        (200, 1_000)
    } else {
        (1_000, 12_000)
    };
    let below = sized(below_n);
    let above = sized(above_n);
    debug_assert!(!busytime::tuning::first_fit_use_kernel(&below));
    row(
        "placement.ff.below_cutover",
        below.len() as u64,
        &mut || {
            std::hint::black_box(first_fit(&below));
        },
    );
    row(
        "placement.ff.above_cutover",
        above.len() as u64,
        &mut || {
            std::hint::black_box(first_fit(&above));
        },
    );
    set(
        "placement.ff_ns_per_job.below_cutover",
        spans.ns_per_item("placement.ff.below_cutover"),
    );
    set(
        "placement.ff_ns_per_job.above_cutover",
        spans.ns_per_item("placement.ff.above_cutover"),
    );

    // Solver dispatch over the pool: `solve_batch`'s own path, one span per
    // solve under one span for the batch.
    let solver = Solver::new();
    let pool = ThreadPool::with_default_parallelism();
    let batch_id = spans.id();
    let batch_start = Instant::now();
    let solved = pool.map(&inputs.problems, |p| {
        let t = Instant::now();
        let result = solver.solve(p);
        let end = Instant::now();
        spans.record(
            "solver.solve",
            t,
            end,
            batch_id,
            0,
            p.instance().len() as u64,
        );
        (result, end.duration_since(t).as_secs_f64())
    });
    let batch_end = Instant::now();
    spans.record_with_id(
        batch_id,
        "solver.batch",
        batch_start,
        batch_end,
        root,
        0,
        inputs.problems.len() as u64,
    );
    let wall = batch_end.duration_since(batch_start).as_secs_f64();
    let mut counts: HashMap<&str, u64> = HashMap::new();
    let (mut busy_min, mut busy_tp, mut scheduled, mut offered) = (0.0, 0.0, 0u64, 0u64);
    let mut failed_solves = 0u64;
    for (problem, (result, secs)) in inputs.problems.iter().zip(&solved) {
        if offline::check(problem, result).is_some() {
            failed_solves += 1;
        }
        if let Ok(solution) = result {
            *counts.entry(solution.algorithm.name()).or_default() += 1;
            if problem.budget().is_some() {
                scheduled += solution.objective.scheduled().unwrap_or(0) as u64;
                offered += problem.instance().len() as u64;
            }
        }
        if problem.budget().is_some() {
            busy_tp += secs;
        } else {
            busy_min += secs;
        }
    }
    for algorithm in ALGORITHMS {
        set(
            &format!("solver.count.{}", algorithm.name()),
            counts.get(algorithm.name()).copied().unwrap_or(0) as f64,
        );
    }
    set("solver.busy_s.minbusy", busy_min);
    set("solver.busy_s.maxtp", busy_tp);
    set(
        "solver.maxtp_scheduled_share",
        scheduled as f64 / offered.max(1) as f64,
    );
    let threads = pool.threads().min(inputs.problems.len().max(1)) as f64;
    set(
        "par.efficiency",
        (busy_min + busy_tp) / (threads * wall).max(1e-12),
    );
    set("par.idle_s", threads * wall - busy_min - busy_tp);

    // Branch-and-bound under the exact workload's node budget.
    let budget = ExactConfig::new(scale).budget();
    let (mut nodes, mut closed, mut exact_secs) = (0u64, 0u64, 0.0);
    let mut bad_brackets = 0u64;
    for (i, inst) in inputs.exact_set.iter().enumerate() {
        let t = Instant::now();
        let outcome = branch_and_bound(inst, &budget);
        let end = Instant::now();
        let (lower, upper, n, done) = exact::summary(&outcome);
        spans.record("exact.bnb", t, end, root, i as u64, n);
        let secs = end.duration_since(t).as_secs_f64();
        set(&format!("exact.solve_s.{i:02}"), secs);
        nodes += n;
        closed += u64::from(done);
        exact_secs += secs;
        if lower > upper {
            bad_brackets += 1;
        }
    }
    set("exact.nodes", nodes as f64);
    set("exact.nodes_per_s", nodes as f64 / exact_secs.max(1e-12));
    set("exact.closed", closed as f64);
    spans.record_with_id(root, "waterfall", root_start, Instant::now(), 0, 0, 1);

    if decode_failed + failed_calls + failed_solves + bad_brackets > 0 || !problems.is_empty() {
        return Err(format!(
            "the waterfall's own calls failed: {decode_failed} decodes, {failed_calls} calls, \
             {failed_solves} solves, {bad_brackets} brackets; {}",
            problems.join("; ")
        ));
    }
    Ok(per_layer()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("trace.overhead."))
        .map(|(name, unit)| Metric {
            value: values.get(&name).copied().unwrap_or(f64::NAN),
            name,
            unit,
        })
        .collect())
}
