//! The `busytime` command-line tool.  `busytime --help` (or `-h`) prints the
//! synopsis of every subcommand to stdout and exits 0; the file formats and the
//! subcommands themselves are documented on the `busytime-cli` library, which
//! implements them.
//!
//! Every subcommand declares its positional argument, its value flags and its
//! switches once, in one call to [`parse`], and the same rules then hold for all of
//! them: an undeclared flag, a flag without its value, a value that does not parse
//! and a second positional argument each print the usage and exit 2.  A repeated
//! flag has every occurrence parsed, and the last one wins.

use std::fmt::Display;
use std::str::FromStr;

use busytime::online::OnlinePolicy;
use busytime::report::InstanceFile;
use busytime::Algorithm;
use busytime_cli::{
    from_json, run_batch, run_bound, run_client, run_fsck, run_generate, run_serve, run_simulate,
    run_solve, run_throughput, CommandOutput, SolveOptions, TraceFile, WorkloadClass,
};
use busytime_server::{AdmissionConfig, DurabilityConfig, Framing, RegistryConfig};

/// Default host:port of `serve` and `client` (loopback; pass `--addr` to change).
const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// The synopsis of every subcommand.
const USAGE: &str = "usage:\n  busytime solve <instance.json> [--algorithm NAME] [--exact-only] [--output schedule.json]\n  busytime bound <instance.json> [--max-nodes N] [--max-millis MS] [--output bound.json]\n  busytime throughput <instance.json> --budget T [--algorithm NAME] [--exact-only] [--output schedule.json]\n  busytime batch <instances.json> [--budget T] [--threads N] [--algorithm NAME] [--exact-only] [--output results.json]\n  busytime simulate <trace.json> [--policy POLICY] [--defrag-budget K] [--output simulation.json]\n  busytime generate --class CLASS --jobs N --capacity G [--seed S] [--output instance.json]\n  busytime serve [--addr HOST:PORT] [--shards N] [--data-dir PATH] [--fsync-batch N] [--compact-every N] [--max-inflight N] [--tenant-rate R] [--defrag-budget K]\n  busytime client <trace.json> --tenant NAME [--addr HOST:PORT] [--policy POLICY] [--binary] [--pipeline N] [--output report.json]\n  busytime fsck <data-dir>";

/// Print the synopsis to stderr and exit 2: the answer to every usage error.
fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Print `message` to stderr and exit with `code`.
fn fail(code: i32, message: impl Display) -> ! {
    eprintln!("{message}");
    std::process::exit(code);
}

/// One subcommand's arguments, as [`parse`] split them.
struct Args {
    /// The positional argument; empty for a subcommand that declares none.
    path: String,
    /// Every `(flag, value)` pair, in command-line order.
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

/// Split `args` by one subcommand's declaration: whether it takes a (required)
/// positional argument, the flags that take a value, and the switches (each list
/// separated by whitespace).
fn parse(args: &[String], positional: bool, values: &str, switches: &str) -> Args {
    let mut parsed = Args {
        path: String::new(),
        values: Vec::new(),
        switches: Vec::new(),
    };
    let mut seen_path = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if values.split_whitespace().any(|flag| flag == arg) {
            let value = it.next().unwrap_or_else(|| usage());
            parsed.values.push((arg.clone(), value.clone()));
        } else if switches.split_whitespace().any(|flag| flag == arg) {
            parsed.switches.push(arg.clone());
        } else if positional && !seen_path && !arg.starts_with('-') {
            parsed.path = arg.clone();
            seen_path = true;
        } else {
            usage();
        }
    }
    if positional && !seen_path {
        usage();
    }
    parsed
}

impl Args {
    /// The last value of `flag`, every occurrence parsed by `parse` (so a malformed
    /// earlier one is not discarded).
    fn last<T>(&self, flag: &str, parse: impl Fn(&str) -> T) -> Option<T> {
        self.values
            .iter()
            .filter(|(name, _)| name == flag)
            .map(|(_, value)| parse(value))
            .last()
    }

    /// The value of `flag`; an unparsable one prints the usage.
    fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.last(flag, |v| v.parse().unwrap_or_else(|_| usage()))
    }

    /// [`Args::value`] for flags that only take values above zero.
    fn positive<T: FromStr + PartialOrd + Default>(&self, flag: &str) -> Option<T> {
        self.last(flag, |v| {
            v.parse()
                .ok()
                .filter(|v| *v > T::default())
                .unwrap_or_else(|| usage())
        })
    }

    /// The value of a flag that names one of a list; a name outside the list
    /// prints the list and exits 2.
    fn named<T>(&self, flag: &str, parse: fn(&str) -> Result<T, String>) -> Option<T> {
        self.last(flag, |v| parse(v).unwrap_or_else(|e| fail(2, e)))
    }

    fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|name| name == flag)
    }

    /// `--algorithm` and `--exact-only`, shared by `solve`, `throughput` and `batch`.
    fn solve_options(&self) -> SolveOptions {
        SolveOptions {
            algorithm: self.named("--algorithm", Algorithm::parse),
            exact_only: self.switch("--exact-only"),
        }
    }
}

fn required<T>(value: Option<T>, flag: &str) -> T {
    value.unwrap_or_else(|| fail(2, format!("{flag} is required")))
}

/// Read and parse a subcommand's input file; a file that cannot be read or does
/// not parse exits 1.
fn read<T: serde::Deserialize>(path: &str, what: &str) -> T {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(1, format!("cannot read {path}: {e}")));
    from_json(&text, what).unwrap_or_else(|e| fail(1, e))
}

fn finish(output: Result<CommandOutput, String>, output_path: Option<String>) -> ! {
    let out = output.unwrap_or_else(|e| fail(1, format!("error: {e}")));
    println!("{}", out.report);
    if let Some(path) = output_path {
        match out.file_payload {
            Some(payload) => {
                if let Err(e) = std::fs::write(&path, payload) {
                    fail(1, format!("cannot write {path}: {e}"));
                }
                println!("wrote {path}");
            }
            None => eprintln!("this command produces no file output"),
        }
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    match command.as_str() {
        "solve" => {
            let a = parse(rest, true, "--output --algorithm", "--exact-only");
            let options = a.solve_options();
            let file: InstanceFile = read(&a.path, "instance");
            finish(run_solve(&file, &options), a.value("--output"));
        }
        "bound" => {
            let a = parse(rest, true, "--output --max-nodes --max-millis", "");
            let (max_nodes, max_millis) = (a.value("--max-nodes"), a.positive("--max-millis"));
            let file: InstanceFile = read(&a.path, "instance");
            finish(run_bound(&file, max_nodes, max_millis), a.value("--output"));
        }
        "throughput" => {
            let a = parse(rest, true, "--output --budget --algorithm", "--exact-only");
            let options = a.solve_options();
            let budget = required(a.value("--budget"), "--budget");
            let file: InstanceFile = read(&a.path, "instance");
            finish(run_throughput(&file, budget, &options), a.value("--output"));
        }
        "batch" => {
            let a = parse(
                rest,
                true,
                "--output --budget --threads --algorithm",
                "--exact-only",
            );
            // A malformed budget must not silently demote the batch to MinBusy:
            // it is a usage error like any other unparsable flag value.
            let (budget, threads) = (a.value("--budget"), a.value("--threads"));
            let options = a.solve_options();
            let batch: Vec<InstanceFile> = read(&a.path, "batch");
            finish(
                run_batch(&batch, budget, &options, threads),
                a.value("--output"),
            );
        }
        "simulate" => {
            let a = parse(rest, true, "--output --policy --defrag-budget", "");
            let policy = a
                .named("--policy", OnlinePolicy::parse)
                .unwrap_or(OnlinePolicy::FirstFit);
            let defrag_budget = a.positive("--defrag-budget");
            let trace: TraceFile = read(&a.path, "trace");
            finish(
                run_simulate(&trace, policy, defrag_budget),
                a.value("--output"),
            );
        }
        "generate" => {
            let a = parse(rest, false, "--class --jobs --capacity --seed --output", "");
            let class = a.named("--class", WorkloadClass::parse);
            let jobs = a.value("--jobs").unwrap_or(50);
            let capacity = a.value("--capacity").unwrap_or(4);
            let seed = a.value("--seed").unwrap_or(2012);
            let class = required(class, "--class");
            finish(
                run_generate(class, jobs, capacity, seed),
                a.value("--output"),
            );
        }
        "serve" => {
            let a = parse(
                rest,
                false,
                "--addr --shards --data-dir --fsync-batch --compact-every --max-inflight \
                 --tenant-rate --defrag-budget",
                "",
            );
            let addr = a
                .value("--addr")
                .unwrap_or_else(|| DEFAULT_ADDR.to_string());
            let shards = a.positive("--shards");
            let data_dir: Option<String> = a.value("--data-dir");
            let fsync_batch = a.positive("--fsync-batch");
            let compact_every = a.positive("--compact-every");
            let max_inflight = a.positive("--max-inflight");
            let tenant_rate = a.positive("--tenant-rate");
            let mut config =
                RegistryConfig::new(shards.unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                }));
            config.defrag_budget = a.positive("--defrag-budget");
            config.durability = match data_dir {
                Some(dir) => {
                    let mut durability = DurabilityConfig::new(dir);
                    durability.fsync_batch = fsync_batch.unwrap_or(durability.fsync_batch);
                    durability.compact_threshold =
                        compact_every.unwrap_or(durability.compact_threshold);
                    Some(durability)
                }
                None if fsync_batch.is_some() || compact_every.is_some() => {
                    fail(2, "--fsync-batch and --compact-every need --data-dir")
                }
                None => None,
            };
            // Either admission flag opts the daemon into overload shedding;
            // the other keeps its default.
            if max_inflight.is_some() || tenant_rate.is_some() {
                let mut admission = AdmissionConfig::default();
                admission.max_inflight = max_inflight.unwrap_or(admission.max_inflight);
                admission.tenant_rate = tenant_rate;
                config.admission = Some(admission);
            }
            if let Err(e) = run_serve(&addr, config) {
                fail(1, format!("error: {e}"));
            }
        }
        "fsck" => {
            let a = parse(rest, true, "", "");
            finish(run_fsck(&a.path), None);
        }
        "client" => {
            let a = parse(
                rest,
                true,
                "--output --addr --tenant --pipeline --policy",
                "--binary",
            );
            let addr = a
                .value("--addr")
                .unwrap_or_else(|| DEFAULT_ADDR.to_string());
            let pipeline = a.positive("--pipeline").unwrap_or(1);
            let policy = a
                .named("--policy", OnlinePolicy::parse)
                .unwrap_or(OnlinePolicy::FirstFit);
            let framing = if a.switch("--binary") {
                Framing::Binary
            } else {
                Framing::Ndjson
            };
            let tenant: String = required(a.value("--tenant"), "--tenant");
            let trace: TraceFile = read(&a.path, "trace");
            finish(
                run_client(&trace, &addr, &tenant, policy, framing, pipeline),
                a.value("--output"),
            );
        }
        "--help" | "-h" => println!("{USAGE}"),
        _ => usage(),
    }
}
