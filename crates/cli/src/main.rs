//! The `busytime` command-line tool.
//!
//! ```text
//! busytime solve <instance.json> [--algorithm NAME] [--exact-only] [--output schedule.json]
//! busytime bound <instance.json> [--max-nodes N] [--max-millis MS] [--output bound.json]
//! busytime throughput <instance.json> --budget T [--algorithm NAME] [--exact-only]
//!                     [--output schedule.json]
//! busytime batch <instances.json> [--budget T] [--threads N] [--algorithm NAME]
//!                [--exact-only] [--output results.json]
//! busytime simulate <trace.json> [--policy <first-fit|best-fit|bucket-by-length>]
//!                   [--defrag-budget K] [--output simulation.json]
//! busytime generate --class <clique|one-sided|proper|proper-clique|general|cloud|optical>
//!                   --jobs N --capacity G [--seed S] [--output instance.json]
//! busytime serve [--addr HOST:PORT] [--shards N] [--data-dir PATH]
//!                [--fsync-batch N] [--compact-every N]
//!                [--max-inflight N] [--tenant-rate R] [--defrag-budget K]
//! busytime client <trace.json> --tenant NAME [--addr HOST:PORT] [--policy POLICY]
//!                 [--binary] [--pipeline N] [--output report.json]
//! busytime fsck <data-dir>
//! ```
//!
//! Instances are JSON files of the form `{"capacity": 3, "jobs": [[0, 10], [2, 12]]}`;
//! batches are JSON arrays of such objects.  Traces are JSON files of the form
//! `{"capacity": 2, "events": [{"id": 1, "job": [0, 10]}, {"id": 1, "job": null}]}`
//! (a `null` job is the departure of the id's earlier arrival).  `--algorithm` forces
//! a specific algorithm through the solver facade (for MinBusy: `one-sided`,
//! `proper-clique-dp`, `clique-matching`, `clique-set-cover`, `best-cut`, `first-fit`,
//! plus the exponential `exact-subset-dp` and `exact-bnb` backends; for throughput the
//! `throughput-*` names); `--exact-only` refuses any approximate algorithm, routing
//! general instances to the exact backends instead of failing.  `bound` proves a
//! `lower ≤ OPT ≤ upper` bracket through the same backends — `--max-nodes` caps the
//! branch-and-bound search (default 2,000,000) and `--max-millis` adds an optional
//! wall-clock cutoff; an exhausted budget still reports a sound bracket and gap; `--threads` sets the width of the thread pool driving `batch` (default: one
//! worker per core); `--policy` selects the online placement rule driving `simulate`
//! (default: `first-fit`).  For `client`, `--binary` switches the connection to the
//! compact binary framing and `--pipeline N` keeps N requests in flight (default 1,
//! lockstep); the report is identical either way.  For `serve`, `--max-inflight`
//! caps a tenant's concurrent requests and `--tenant-rate` sets a per-tenant
//! requests/second quota; passing either turns on admission control, so floods
//! are shed with retryable `overloaded` errors instead of stalling cotenants.
//! `--defrag-budget K` (on `serve` and `simulate` alike) runs one background
//! defragmentation pass of at most K job migrations after every applied event,
//! so a `query` against such a daemon matches `simulate --defrag-budget K`.

use std::str::FromStr;

use busytime::online::OnlinePolicy;
use busytime::Algorithm;
use busytime_cli::{
    run_batch, run_bound, run_client, run_fsck, run_generate, run_serve, run_simulate, run_solve,
    run_throughput, BatchFile, CommandOutput, InstanceFile, SolveOptions, TraceFile, WorkloadClass,
};
use busytime_server::{AdmissionConfig, DurabilityConfig, RegistryConfig};

/// Default host:port of `serve` and `client` (loopback; pass `--addr` to change).
const DEFAULT_ADDR: &str = "127.0.0.1:7878";

fn usage() -> ! {
    eprintln!(
        "usage:\n  busytime solve <instance.json> [--algorithm NAME] [--exact-only] [--output schedule.json]\n  busytime bound <instance.json> [--max-nodes N] [--max-millis MS] [--output bound.json]\n  busytime throughput <instance.json> --budget T [--algorithm NAME] [--exact-only] [--output schedule.json]\n  busytime batch <instances.json> [--budget T] [--threads N] [--algorithm NAME] [--exact-only] [--output results.json]\n  busytime simulate <trace.json> [--policy POLICY] [--defrag-budget K] [--output simulation.json]\n  busytime generate --class CLASS --jobs N --capacity G [--seed S] [--output instance.json]\n  busytime serve [--addr HOST:PORT] [--shards N] [--data-dir PATH] [--fsync-batch N] [--compact-every N] [--max-inflight N] [--tenant-rate R] [--defrag-budget K]\n  busytime client <trace.json> --tenant NAME [--addr HOST:PORT] [--policy POLICY] [--binary] [--pipeline N] [--output report.json]\n  busytime fsck <data-dir>"
    );
    std::process::exit(2);
}

/// The value after a flag, parsed; a missing or unparsable value prints the usage.
fn value<T: FromStr>(it: &mut std::slice::Iter<'_, String>) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

/// [`value`] for flags that only take values above zero.
fn positive<T: FromStr + PartialOrd + Default>(it: &mut std::slice::Iter<'_, String>) -> T {
    let v = value(it);
    if v > T::default() {
        v
    } else {
        usage()
    }
}

fn read_instance(path: &str) -> InstanceFile {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    InstanceFile::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

fn parse_algorithm(value: Option<&String>) -> Algorithm {
    let text = value.unwrap_or_else(|| {
        eprintln!("--algorithm needs a value");
        std::process::exit(2);
    });
    Algorithm::parse(text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn finish(output: Result<CommandOutput, String>, output_path: Option<String>) -> ! {
    match output {
        Ok(out) => {
            println!("{}", out.report);
            if let Some(path) = output_path {
                match out.file_payload {
                    Some(payload) => {
                        if let Err(e) = std::fs::write(&path, payload) {
                            eprintln!("cannot write {path}: {e}");
                            std::process::exit(1);
                        }
                        println!("wrote {path}");
                    }
                    None => eprintln!("this command produces no file output"),
                }
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut output_path: Option<String> = None;

    match args[0].as_str() {
        "solve" => {
            let mut instance_path: Option<String> = None;
            let mut options = SolveOptions::default();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--output" => output_path = Some(value(&mut it)),
                    "--algorithm" => options.algorithm = Some(parse_algorithm(it.next())),
                    "--exact-only" => options.exact_only = true,
                    other if instance_path.is_none() => instance_path = Some(other.to_string()),
                    _ => usage(),
                }
            }
            let path = instance_path.unwrap_or_else(|| usage());
            finish(run_solve(&read_instance(&path), &options), output_path);
        }
        "bound" => {
            let mut instance_path: Option<String> = None;
            let mut max_nodes: Option<u64> = None;
            let mut max_millis: Option<u64> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--output" => output_path = Some(value(&mut it)),
                    "--max-nodes" => max_nodes = Some(value(&mut it)),
                    "--max-millis" => max_millis = Some(positive(&mut it)),
                    other if instance_path.is_none() => instance_path = Some(other.to_string()),
                    _ => usage(),
                }
            }
            let path = instance_path.unwrap_or_else(|| usage());
            finish(
                run_bound(&read_instance(&path), max_nodes, max_millis),
                output_path,
            );
        }
        "throughput" => {
            let mut instance_path: Option<String> = None;
            let mut budget: Option<i64> = None;
            let mut options = SolveOptions::default();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--output" => output_path = Some(value(&mut it)),
                    "--budget" => budget = Some(value(&mut it)),
                    "--algorithm" => options.algorithm = Some(parse_algorithm(it.next())),
                    "--exact-only" => options.exact_only = true,
                    other if instance_path.is_none() => instance_path = Some(other.to_string()),
                    _ => usage(),
                }
            }
            let path = instance_path.unwrap_or_else(|| usage());
            let budget = budget.unwrap_or_else(|| {
                eprintln!("--budget is required");
                std::process::exit(2);
            });
            finish(
                run_throughput(&read_instance(&path), budget, &options),
                output_path,
            );
        }
        "batch" => {
            let mut batch_path: Option<String> = None;
            let mut budget: Option<i64> = None;
            let mut threads: Option<usize> = None;
            let mut options = SolveOptions::default();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--output" => output_path = Some(value(&mut it)),
                    // A malformed budget must not silently demote the batch to
                    // MinBusy: reject it like any other unparsable flag value.
                    "--budget" => budget = Some(value(&mut it)),
                    "--threads" => threads = Some(value(&mut it)),
                    "--algorithm" => options.algorithm = Some(parse_algorithm(it.next())),
                    "--exact-only" => options.exact_only = true,
                    other if batch_path.is_none() => batch_path = Some(other.to_string()),
                    _ => usage(),
                }
            }
            let path = batch_path.unwrap_or_else(|| usage());
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let batch = BatchFile::from_json(&text).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            finish(run_batch(&batch, budget, &options, threads), output_path);
        }
        "simulate" => {
            let mut trace_path: Option<String> = None;
            let mut policy = OnlinePolicy::FirstFit;
            let mut defrag_budget: Option<usize> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--output" => output_path = Some(value(&mut it)),
                    "--defrag-budget" => defrag_budget = Some(positive(&mut it)),
                    "--policy" => {
                        policy = it
                            .next()
                            .map(|v| {
                                OnlinePolicy::parse(v).unwrap_or_else(|e| {
                                    eprintln!("{e}");
                                    std::process::exit(2);
                                })
                            })
                            .unwrap_or_else(|| {
                                eprintln!("--policy needs a value");
                                std::process::exit(2);
                            })
                    }
                    other if trace_path.is_none() => trace_path = Some(other.to_string()),
                    _ => usage(),
                }
            }
            let path = trace_path.unwrap_or_else(|| usage());
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let trace = TraceFile::from_json(&text).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            finish(run_simulate(&trace, policy, defrag_budget), output_path);
        }
        "generate" => {
            let mut class: Option<WorkloadClass> = None;
            let mut jobs = 50usize;
            let mut capacity = 4usize;
            let mut seed = 2012u64;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--class" => {
                        class = it.next().map(|v| {
                            WorkloadClass::parse(v).unwrap_or_else(|e| {
                                eprintln!("{e}");
                                std::process::exit(2);
                            })
                        })
                    }
                    "--jobs" => jobs = value(&mut it),
                    "--capacity" => capacity = value(&mut it),
                    "--seed" => seed = value(&mut it),
                    "--output" => output_path = Some(value(&mut it)),
                    _ => usage(),
                }
            }
            let class = class.unwrap_or_else(|| {
                eprintln!("--class is required");
                std::process::exit(2);
            });
            finish(run_generate(class, jobs, capacity, seed), output_path);
        }
        "serve" => {
            let mut addr = DEFAULT_ADDR.to_string();
            let mut shards = std::thread::available_parallelism().map_or(1, |n| n.get());
            let mut data_dir: Option<String> = None;
            let mut fsync_batch: Option<usize> = None;
            let mut compact_every: Option<u64> = None;
            let mut max_inflight: Option<usize> = None;
            let mut tenant_rate: Option<f64> = None;
            let mut defrag_budget: Option<usize> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--addr" => addr = value(&mut it),
                    "--shards" => shards = positive(&mut it),
                    "--data-dir" => data_dir = Some(value(&mut it)),
                    "--fsync-batch" => fsync_batch = Some(positive(&mut it)),
                    "--compact-every" => compact_every = Some(positive(&mut it)),
                    "--max-inflight" => max_inflight = Some(positive(&mut it)),
                    "--tenant-rate" => tenant_rate = Some(positive(&mut it)),
                    "--defrag-budget" => defrag_budget = Some(positive(&mut it)),
                    _ => usage(),
                }
            }
            let mut config = RegistryConfig::new(shards);
            config.defrag_budget = defrag_budget;
            config.durability = match data_dir {
                Some(dir) => {
                    let mut durability = DurabilityConfig::new(dir);
                    if let Some(batch) = fsync_batch {
                        durability.fsync_batch = batch;
                    }
                    if let Some(threshold) = compact_every {
                        durability.compact_threshold = threshold;
                    }
                    Some(durability)
                }
                None if fsync_batch.is_some() || compact_every.is_some() => {
                    eprintln!("--fsync-batch and --compact-every need --data-dir");
                    std::process::exit(2);
                }
                None => None,
            };
            // Either admission flag opts the daemon into overload shedding;
            // the other keeps its default.
            if max_inflight.is_some() || tenant_rate.is_some() {
                let mut admission = AdmissionConfig::default();
                if let Some(cap) = max_inflight {
                    admission.max_inflight = cap;
                }
                admission.tenant_rate = tenant_rate;
                config.admission = Some(admission);
            }
            if let Err(e) = run_serve(&addr, config) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        "fsck" => {
            let mut data_dir: Option<String> = None;
            for arg in &args[1..] {
                match arg.as_str() {
                    other if data_dir.is_none() && !other.starts_with('-') => {
                        data_dir = Some(other.to_string())
                    }
                    _ => usage(),
                }
            }
            finish(run_fsck(&data_dir.unwrap_or_else(|| usage())), None);
        }
        "client" => {
            let mut trace_path: Option<String> = None;
            let mut addr = DEFAULT_ADDR.to_string();
            let mut tenant: Option<String> = None;
            let mut policy = OnlinePolicy::FirstFit;
            let mut framing = busytime_server::Framing::Ndjson;
            let mut pipeline = 1usize;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--output" => output_path = Some(value(&mut it)),
                    "--addr" => addr = value(&mut it),
                    "--tenant" => tenant = Some(value(&mut it)),
                    "--binary" => framing = busytime_server::Framing::Binary,
                    "--pipeline" => pipeline = positive(&mut it),
                    "--policy" => {
                        policy = it
                            .next()
                            .map(|v| {
                                OnlinePolicy::parse(v).unwrap_or_else(|e| {
                                    eprintln!("{e}");
                                    std::process::exit(2);
                                })
                            })
                            .unwrap_or_else(|| usage())
                    }
                    other if trace_path.is_none() => trace_path = Some(other.to_string()),
                    _ => usage(),
                }
            }
            let path = trace_path.unwrap_or_else(|| usage());
            let tenant = tenant.unwrap_or_else(|| {
                eprintln!("--tenant is required");
                std::process::exit(2);
            });
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let trace = TraceFile::from_json(&text).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            finish(
                run_client(&trace, &addr, &tenant, policy, framing, pipeline),
                output_path,
            );
        }
        "--help" | "-h" => usage(),
        _ => usage(),
    }
}
