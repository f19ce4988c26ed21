//! Distributed campaign executor: N worker processes, one shard file
//! each, one deterministic merge. The contract under test is the hard
//! one — the merged report is **byte-identical** to the in-process
//! `--stealing --jobs 1` run, across worker counts and fault scenarios
//! — plus the failure model (a killed worker degrades its shard, a
//! malformed shard spec is a typed error).

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_wormhole-cli");

fn run_cli(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn wormhole-cli")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wormhole-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The canonical in-process report the distributed runs must hit.
fn serial_report(scale: &str, faults: &str) -> String {
    let out = run_cli(&[
        "campaign",
        scale,
        "--stealing",
        "--jobs",
        "1",
        "--faults",
        faults,
        "--emit",
        "report",
    ]);
    assert!(out.status.success(), "serial run failed: {}", stderr(&out));
    stdout(&out)
}

fn distributed_report(scale: &str, faults: &str, workers: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "campaign",
        scale,
        "--distributed",
        workers,
        "--faults",
        faults,
        "--emit",
        "report",
    ];
    args.extend_from_slice(extra);
    run_cli(&args)
}

/// Byte-identity across 1/2/4 worker processes on the clean scenario:
/// the partitioned queues, wire round-trips, and file-level merge must
/// reconstruct exactly the report the in-process stealing run prints.
#[test]
fn distributed_quick_clean_matches_serial_at_1_2_4_workers() {
    let want = serial_report("quick", "clean");
    for workers in ["1", "2", "4"] {
        let out = distributed_report("quick", "clean", workers, &[]);
        assert!(
            out.status.success(),
            "{workers}-worker run failed: {}",
            stderr(&out)
        );
        assert_eq!(
            stdout(&out),
            want,
            "{workers}-worker distributed report diverged from the serial run"
        );
    }
}

/// Fault injection crosses the process boundary intact: the fault plan
/// rides the shard spec, so hostile and paranoid campaigns distribute
/// byte-identically too.
#[test]
fn distributed_quick_hostile_and_paranoid_match_serial() {
    for faults in ["hostile", "paranoid"] {
        let want = serial_report("quick", faults);
        let out = distributed_report("quick", faults, "2", &[]);
        assert!(
            out.status.success(),
            "{faults} distributed run failed: {}",
            stderr(&out)
        );
        assert_eq!(
            stdout(&out),
            want,
            "2-worker distributed report diverged from serial under '{faults}'"
        );
    }
}

/// Tenfold-scale byte-identity — the acceptance bar. Expensive, so
/// `#[ignore]`d out of tier 1 (CI runs it in its own job).
#[test]
#[ignore = "tenfold scale: minutes of wall clock; run explicitly or in CI"]
fn distributed_tenfold_matches_serial() {
    let want = serial_report("tenfold", "clean");
    let out = distributed_report("tenfold", "clean", "2", &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        want,
        "2-worker tenfold distributed report diverged from serial"
    );
}

/// A worker that dies mid-phase (the chaos hook aborts it before it
/// writes a shard) must not fail the campaign: its vantage points
/// degrade with a typed record, the ledger shows the worker missing,
/// and every later phase redistributes over the survivors.
#[test]
fn killed_worker_degrades_its_shard_and_the_campaign_completes() {
    let out = run_cli(&[
        "campaign",
        "quick",
        "--distributed",
        "2",
        "--chaos-abort-worker",
        "1",
        "--emit",
        "summary",
    ]);
    assert!(
        out.status.success(),
        "chaos run should complete degraded, not fail: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains("missing [1]"),
        "ledger should show worker 1 missing:\n{err}"
    );
    assert!(
        err.contains("degraded shard"),
        "lost shard should surface as a degradation record:\n{err}"
    );
    assert!(
        stdout(&out).contains("snapshot:"),
        "campaign should still produce its summary"
    );
}

/// Worker CLI error paths: a malformed spec names the valid fields so
/// an operator can see what the file should have carried.
#[test]
fn worker_rejects_malformed_specs_listing_the_valid_fields() {
    let dir = scratch("bad-spec");
    let spec = dir.join("junk.spec");
    std::fs::write(&spec, b"WHSPgarbage-that-is-not-a-spec").expect("write junk spec");
    let out = run_cli(&["campaign-worker", "--shard-spec", &spec.to_string_lossy()]);
    assert!(!out.status.success(), "junk spec must fail");
    let err = stderr(&out);
    for field in ["substrate token", "phase tag", "fault plan"] {
        assert!(
            err.contains(field),
            "spec error should list the '{field}' field:\n{err}"
        );
    }
    // Missing file: still a clean CLI error, not a panic.
    let out = run_cli(&["campaign-worker", "--shard-spec", "/nonexistent/x.spec"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("campaign-worker"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}
