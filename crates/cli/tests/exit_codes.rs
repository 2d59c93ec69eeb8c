//! Exit codes of the `netcut-cli` binary: a serve config that cannot run is
//! a flag error (exit 2, usage text on stderr), refused before any work;
//! a failure found while running is exit 1.

use std::path::Path;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn cli_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netcut-cli"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("netcut-cli starts")
}

fn cli(args: &[&str]) -> Output {
    cli_in(&std::env::temp_dir(), args)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts `out` is a flag error whose first line is `error: {message}`.
fn assert_flag_error(out: &Output, message: &str) {
    let text = stderr(out);
    assert_eq!(out.status.code(), Some(2), "{text}");
    assert_eq!(
        text.lines().next(),
        Some(format!("error: {message}").as_str())
    );
    assert!(text.contains("usage:"), "no usage text:\n{text}");
    assert!(out.stdout.is_empty());
}

#[test]
fn config_errors_exit_2_with_the_usage_text() {
    for (args, message) in [
        (&["--rps", "0"][..], "--rps must be positive"),
        (&["--deadline-us", "0"], "--deadline-us must be positive"),
        (
            &["--batch-max", "0"],
            "--batch-max must be at least 1 (1 = batching off)",
        ),
        (
            &["--recalib-cooldown-us", "0"],
            "--recalib-cooldown-us must be positive",
        ),
        (
            &["--shards", "3", "--workers", "2"],
            "--shards 3 needs at least that many workers (got --workers 2)",
        ),
        (
            &["--workers", "0"],
            "--shards 1 needs at least that many workers (got --workers 0)",
        ),
        (
            &["--batch-max", "65536"],
            "--batch-max must be at most 65535 (got 65536)",
        ),
        (
            &["--shards", "65536", "--workers", "65536"],
            "--shards must be at most 65535 (got 65536)",
        ),
    ] {
        assert_flag_error(&cli(&[&["serve"][..], args].concat()), message);
    }
}

#[test]
fn an_overlong_duration_exits_2_at_once() {
    let start = Instant::now();
    let out = cli(&["serve", "--duration", "1e15"]);
    assert_flag_error(
        &out,
        "--duration must be at most 4294.967295 seconds (got 18446744073709551615 µs)",
    );
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "took {:?}",
        start.elapsed()
    );
}

#[test]
fn a_value_flag_does_not_swallow_the_next_flag() {
    let dir = std::env::temp_dir().join(format!("netcut-cli-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = cli_in(&dir, &["serve", "--timeline-out", "--json"]);
    let created = dir.join("--json").exists();
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    assert_flag_error(&out, "--timeline-out requires a file path");
    assert!(!created, "wrote a timeline file named `--json`");
}

#[test]
fn the_removed_cache_switch_is_an_unknown_flag() {
    for command in ["explore", "sweep"] {
        assert_flag_error(&cli(&[command, "--no-cache"]), "unknown flag `--no-cache`");
    }
}

#[test]
fn an_out_of_range_exit_pin_fails_the_run_with_exit_1() {
    let out = cli(&["serve", "--exit-table", "99", "--duration", "0.01"]);
    let text = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert_eq!(
        text.lines().next(),
        Some("error: exit 99 is out of range: the exit table has 17 exit(s) (0..=16)")
    );
    assert!(!text.contains("usage:"));
}
