//! Flag values on the `busytime` binary: a missing or unparsable value prints the
//! usage and exits 2, whatever the subcommand and whatever came before it.  One
//! parser serves every subcommand, so one rule covers every flag.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A temporary directory, removed when the guard drops: at the end of a test, and
/// also when its assertion fails and the test unwinds.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh temporary directory holding a small proper-clique instance file.
fn instance_dir(name: &str) -> (TempDir, PathBuf) {
    let dir = std::env::temp_dir().join(format!("busytime-flags-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let instance = dir.join("inst.json");
    std::fs::write(
        &instance,
        r#"{"capacity": 2, "jobs": [[0, 10], [2, 12], [4, 14], [6, 16]]}"#,
    )
    .unwrap();
    (TempDir(dir), instance)
}

fn busytime(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_busytime"))
        .args(args)
        .output()
        .unwrap()
}

/// A usage error: the synopsis on stderr, exit 2.
fn assert_usage(output: &Output) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.starts_with("usage:"), "stderr: {stderr}");
}

#[test]
fn unparsable_budget_is_a_usage_error() {
    let (_dir, inst) = instance_dir("budget");
    assert_usage(&busytime(&[
        "throughput",
        inst.to_str().unwrap(),
        "--budget",
        "abc",
    ]));
}

#[test]
fn a_later_malformed_value_is_not_discarded() {
    let (_dir, inst) = instance_dir("repeat");
    let inst = inst.to_str().unwrap();
    // Every occurrence of a repeated flag is parsed, whichever one is malformed.
    for budgets in [["50", "abc"], ["abc", "50"]] {
        assert_usage(&busytime(&[
            "throughput",
            inst,
            "--budget",
            budgets[0],
            "--budget",
            budgets[1],
        ]));
    }
}

#[test]
fn a_named_flag_without_its_value_is_a_usage_error() {
    let (_dir, inst) = instance_dir("named");
    let inst = inst.to_str().unwrap();
    assert_usage(&busytime(&["solve", inst, "--algorithm"]));
    assert_usage(&busytime(&["simulate", inst, "--policy"]));
    assert_usage(&busytime(&["generate", "--class"]));
}

#[test]
fn an_unknown_name_prints_the_valid_names() {
    let (_dir, inst) = instance_dir("unknown-name");
    let inst = inst.to_str().unwrap();
    for (args, names) in [
        (
            vec!["simulate", inst, "--policy", "nope"],
            "first-fit, best-fit, bucket-by-length",
        ),
        (
            vec!["generate", "--class", "nope"],
            "clique, one-sided, proper, proper-clique, general, cloud or optical",
        ),
    ] {
        let output = busytime(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
        assert!(stderr.contains(names), "stderr: {stderr}");
    }
}

#[test]
fn missing_output_path_is_a_usage_error() {
    let (_dir, inst) = instance_dir("output");
    assert_usage(&busytime(&["solve", inst.to_str().unwrap(), "--output"]));
}

#[test]
fn valid_flags_solve_and_write_the_output() {
    let (dir, inst) = instance_dir("valid");
    let out = dir.0.join("schedule.json");
    let output = busytime(&[
        "throughput",
        inst.to_str().unwrap(),
        "--budget",
        "50",
        "--output",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let written = std::fs::read_to_string(&out).unwrap();
    assert!(written.contains("\"algorithm\""), "{written}");
}

#[test]
fn help_prints_the_synopsis_to_stdout_and_exits_0() {
    for flag in ["--help", "-h"] {
        let output = busytime(&[flag]);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(0), "{flag}: {output:?}");
        assert!(stdout.starts_with("usage:"), "{flag}: {stdout}");
        assert!(
            stdout.contains("busytime fsck <data-dir>"),
            "{flag}: {stdout}"
        );
        assert!(output.stderr.is_empty(), "{flag}: {output:?}");
    }
    // Anything else unrecognised stays a usage error on stderr.
    for args in [&[][..], &["--helpme"], &["solve", "--help"]] {
        let output = busytime(args);
        assert_usage(&output);
        assert!(output.stdout.is_empty(), "{args:?}: {output:?}");
    }
}
