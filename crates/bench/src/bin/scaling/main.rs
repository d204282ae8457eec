//! The `scaling` binary: measures the workspace's hot paths section by section and
//! writes the machine-readable `BENCH_scaling.json` that tracks its performance.
//!
//! Usage:
//!
//! ```text
//! cargo run -p busytime-bench --bin scaling --release [-- --output BENCH_scaling.json]
//!                                                     [--quick] [--check]
//! ```
//!
//! Each section is a module that owns its row type, its measurement and its gate,
//! and runs in this order: `rows` (kernel-backed hot paths against their scan
//! references and the adaptive FirstFit dispatch), `tuning` (the calibration grid of
//! FirstFit's scan/kernel cutover), `online`, `defrag`, `exact`,
//! `batch`, `server`, `durability`, `recovery`, `server_load` (the wire) and
//! `resilience`.  The file holds a `meta` object (revision, dirty tree, cores,
//! profile, quick flag, trial counts) and then every section, one row object per
//! line; the console shows each row's JSON line as its section finishes.
//!
//! `--quick` shrinks the grids (the CI configuration).  `--check` then runs every
//! section's gate on its rows, checks the metadata and reads the written file
//! back; it prints each failure and exits non-zero if there is any.

mod batch;
mod defrag;
mod durability;
mod exact;
mod harness;
mod online;
mod recovery;
mod resilience;
mod rows;
mod server;
mod server_load;
mod tuning;

use serde::{Serialize, Value};

/// One measured section: its rows as the file's JSON lines and as the trees the
/// read-back must find, and what its gate found wrong.
struct Section {
    name: &'static str,
    lines: Vec<String>,
    values: Vec<Value>,
    failures: Vec<String>,
}

impl Section {
    /// Record `rows` as section `name`, print each row's JSON line, and run the
    /// section's `check` on them; every section must record at least one row.
    fn new<T: Serialize>(
        name: &'static str,
        rows: Vec<T>,
        check: fn(&[T], bool) -> Vec<String>,
        quick: bool,
    ) -> Self {
        let lines: Vec<String> = rows
            .iter()
            .map(|row| serde_json::to_string(row).expect("report rows serialize"))
            .collect();
        for line in &lines {
            println!("{name}: {line}");
        }
        let mut failures = check(&rows, quick);
        if rows.is_empty() {
            failures.push(format!("no {name} rows were recorded"));
        }
        Section {
            name,
            lines,
            values: rows.iter().map(Serialize::serialize).collect(),
            failures,
        }
    }
}

/// Where the record came from.
#[derive(Debug, Serialize)]
struct Meta {
    git_rev: String,
    /// Whether tracked files differed from `git_rev` (`null` outside a git
    /// checkout).
    dirty: Option<bool>,
    threads_default: usize,
    available_parallelism: usize,
    /// Alias of `available_parallelism` under the name the wire-performance
    /// acceptance record reads — socket throughput is bounded by cores, so the
    /// `server_load` numbers are only interpretable next to this.
    parallelism: usize,
    profile: String,
    quick: bool,
    trials: usize,
    trials_small_n: usize,
}

/// The trimmed output of a successful `git` command.
fn git(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
}

impl Meta {
    fn new(quick: bool) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Meta {
            git_rev: git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            dirty: git(&["status", "--porcelain", "--untracked-files=no"])
                .map(|status| !status.is_empty()),
            threads_default: busytime::par::default_threads(),
            available_parallelism: parallelism,
            parallelism,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
            quick,
            trials: harness::trials_for(usize::MAX),
            trials_small_n: harness::trials_for(0),
        }
    }

    /// A checked record names its revision and the cores it ran on.
    fn check(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.git_rev == "unknown" {
            failures.push(
                "meta.git_rev is \"unknown\" — the checked record must name its revision"
                    .to_string(),
            );
        }
        if self.parallelism < 1 {
            failures.push("meta.parallelism is 0".to_string());
        }
        failures
    }
}

/// The record as text: `meta` on one line, then each section with one row object
/// per line, which keeps the file diffable across regenerations.
fn render(meta: &Meta, sections: &[Section]) -> String {
    let mut text = format!(
        "{{\n  \"meta\": {},\n",
        serde_json::to_string(meta).expect("meta serializes")
    );
    for (k, section) in sections.iter().enumerate() {
        text.push_str(&format!("  \"{}\": [\n", section.name));
        if !section.lines.is_empty() {
            text.push_str(&format!("    {}\n", section.lines.join(",\n    ")));
        }
        text.push_str(if k + 1 < sections.len() {
            "  ],\n"
        } else {
            "  ]\n}\n"
        });
    }
    text
}

/// A JSON document read back as its tree.
struct Tree(Value);

impl serde::Deserialize for Tree {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        Ok(Tree(value.clone()))
    }
}

/// `text` must parse as exactly the measured record: `meta`, then every section
/// in order with every row.
fn check_read_back(text: &str, meta: &Meta, sections: &[Section]) -> Vec<String> {
    let expected = Value::Object(
        std::iter::once(("meta".to_string(), meta.serialize()))
            .chain(
                sections
                    .iter()
                    .map(|s| (s.name.to_string(), Value::Array(s.values.clone()))),
            )
            .collect(),
    );
    match serde_json::from_str::<Tree>(text) {
        Ok(Tree(tree)) if tree == expected => Vec::new(),
        Ok(_) => vec!["the written record does not read back as the measured one".to_string()],
        Err(error) => vec![format!("the written record does not parse: {error}")],
    }
}

fn main() {
    let mut output = "BENCH_scaling.json".to_string();
    let mut quick = false;
    let mut check = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--output" => output = it.next().expect("--output needs a path"),
            "--quick" => quick = true,
            "--check" => check = true,
            "--help" | "-h" => {
                println!("usage: scaling [--output PATH] [--quick] [--check]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let sections = [
        Section::new("rows", rows::measure(quick), rows::check, quick),
        Section::new("tuning", tuning::measure(quick), tuning::check, quick),
        Section::new("online", online::measure(quick), online::check, quick),
        Section::new("defrag", defrag::measure(quick), defrag::check, quick),
        Section::new("exact", exact::measure(quick), exact::check, quick),
        Section::new("batch", batch::measure(quick), batch::check, quick),
        Section::new("server", server::measure(quick), server::check, quick),
        Section::new(
            "durability",
            durability::measure(quick),
            durability::check,
            quick,
        ),
        Section::new("recovery", recovery::measure(quick), recovery::check, quick),
        Section::new(
            "server_load",
            server_load::measure(quick),
            server_load::check,
            quick,
        ),
        Section::new(
            "resilience",
            resilience::measure(quick),
            resilience::check,
            quick,
        ),
    ];
    let meta = Meta::new(quick);
    std::fs::write(&output, render(&meta, &sections)).expect("write output");
    println!("wrote {output}");

    if check {
        let written = std::fs::read_to_string(&output).expect("read the output back");
        let failures: Vec<String> = meta
            .check()
            .into_iter()
            .chain(sections.iter().flat_map(|s| s.failures.iter().cloned()))
            .chain(check_read_back(&written, &meta, &sections))
            .collect();
        if failures.is_empty() {
            println!("check passed: every section's gate holds");
        } else {
            for f in &failures {
                eprintln!("check failed: {f}");
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_gate(_: &[(f64, Option<usize>)], _: bool) -> Vec<String> {
        Vec::new()
    }

    fn meta() -> Meta {
        Meta {
            git_rev: "abc1234".into(),
            ..Meta::new(true)
        }
    }

    #[test]
    fn the_metadata_names_a_revision_and_cores_and_no_section_is_empty() {
        assert_eq!(meta().check(), Vec::<String>::new());
        let unknown = Meta {
            git_rev: "unknown".into(),
            ..meta()
        };
        assert!(unknown.check()[0].contains("must name its revision"));
        let no_cores = Meta {
            parallelism: 0,
            ..meta()
        };
        assert!(no_cores.check()[0].contains("parallelism"));
        let empty = Section::new("batch", Vec::new(), no_gate, true);
        assert_eq!(empty.failures, ["no batch rows were recorded"]);
    }

    #[test]
    fn the_record_reads_back_only_as_written() {
        let rows = vec![(1.5f64, Some(2usize)), (f64::NAN, None)];
        let sections = [Section::new("first", rows, no_gate, true)];
        let text = render(&meta(), &sections);
        assert_eq!(
            check_read_back(&text, &meta(), &sections),
            Vec::<String>::new()
        );
        let edited = text.replacen("1.5", "1.25", 1);
        assert!(check_read_back(&edited, &meta(), &sections)[0].contains("does not read back"));
        let cut = &text[..text.len() - 3];
        assert!(check_read_back(cut, &meta(), &sections)[0].contains("does not parse"));
    }
}
