//! End-to-end tests for the run ledger, the heartbeat/stall watchdog and
//! the regression watch, driving the `repro` binary as CI does.
//!
//! The tentpole guarantee under test: a cache-hit replay is *byte
//! identical* to a fresh run — same stdout tables for any worker count,
//! warm or cold — and a corrupted ledger degrades to fresh runs instead
//! of wrong answers.

use manytest_bench::report::{render_prometheus, run_report_probe};
use manytest_bench::Scale;
use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("manytest-ledger-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the `repro` binary with a scrubbed environment (no inherited
/// ledger/jobs/golden variables) plus the given overrides.
fn repro(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    for var in ["MANYTEST_LEDGER_DIR", "MANYTEST_JOBS", "MANYTEST_UPDATE_GOLDEN"] {
        cmd.env_remove(var);
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn repro")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn front_door_exit_codes() {
    let help = repro(&["--help"], &[]);
    assert_eq!(help.status.code(), Some(0), "{help:?}");
    assert!(stdout_of(&help).contains("repro sim"), "usage missing from stdout");
    // Each rejection happens in the parser: exit 2, usage on stderr and
    // nothing on stdout (no sweep header, no simulation).
    for args in [&["e99"][..], &["--bogus-flag"], &["sim", "--ms", "18446744073710"]] {
        let out = repro(args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE:"), "{args:?}");
    }
}

#[test]
fn report_survives_the_wire_byte_identically() {
    let report = run_report_probe("e3", Scale::Quick).expect("e3 is a known probe");
    let decoded = manytest_core::Report::decode_wire(&report.encode_wire())
        .expect("wire round trip decodes");
    // Bit-equal floats ⇒ byte-identical rendering of every artifact.
    assert_eq!(render_prometheus("e3", &report), render_prometheus("e3", &decoded));
    assert_eq!(report.summary(), decoded.summary());
    assert_eq!(report.encode_wire(), decoded.encode_wire());
}

#[test]
fn cache_hits_replay_byte_identically_across_worker_counts() {
    let dir = temp_dir("cache");
    let ledger = &[("MANYTEST_LEDGER_DIR", dir.to_str().unwrap())];
    let cold = repro(&["e3", "--quick", "--jobs", "2"], ledger);
    assert!(cold.status.success(), "cold run failed: {cold:?}");
    let warm1 = repro(&["e3", "--quick", "--jobs", "1"], ledger);
    let warm4 = repro(&["e3", "--quick", "--jobs", "4"], ledger);
    assert!(warm1.status.success() && warm4.status.success());
    assert_eq!(cold.stdout, warm1.stdout, "warm (jobs 1) diverged from cold");
    assert_eq!(cold.stdout, warm4.stdout, "warm (jobs 4) diverged from cold");
    let list = repro(&["runs", "list"], ledger);
    let text = stdout_of(&list);
    assert!(text.contains("  ok  "), "no fresh runs listed:\n{text}");
    assert!(text.contains("cached"), "no cached runs listed:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_manifests_and_blobs_degrade_to_fresh_runs() {
    let dir = temp_dir("corrupt");
    let ledger = &[("MANYTEST_LEDGER_DIR", dir.to_str().unwrap())];
    let cold = repro(&["e3", "--quick", "--jobs", "2"], ledger);
    assert!(cold.status.success());

    // Vandalise one manifest and truncate one blob mid-token.
    let manifest = std::fs::read_dir(dir.join("manifests"))
        .expect("manifests dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("at least one manifest");
    std::fs::write(&manifest, "{ this is not a manifest").expect("corrupt manifest");
    let blob = std::fs::read_dir(dir.join("blobs"))
        .expect("blobs dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "wire"))
        .expect("at least one blob");
    let text = std::fs::read_to_string(&blob).expect("read blob");
    std::fs::write(&blob, &text[..text.len() / 2]).expect("truncate blob");

    // Listing skips the corrupt manifest instead of failing.
    let list = repro(&["runs", "list"], ledger);
    assert!(list.status.success());
    assert!(
        stdout_of(&list).contains("corrupt skipped"),
        "listing did not flag the corrupt manifest:\n{}",
        stdout_of(&list)
    );

    // A rerun falls back to a fresh simulation for the truncated blob
    // and still produces byte-identical tables.
    let rerun = repro(&["e3", "--quick", "--jobs", "2"], ledger);
    assert!(rerun.status.success());
    assert_eq!(cold.stdout, rerun.stdout, "recovery run diverged");

    // gc removes the corrupt manifest; the next listing is clean.
    let gc = repro(&["runs", "gc"], ledger);
    assert!(gc.status.success());
    assert!(
        stdout_of(&gc).contains("removed 1 corrupt/stray manifest(s)"),
        "gc summary: {}",
        stdout_of(&gc)
    );
    let relist = repro(&["runs", "list"], ledger);
    assert!(!stdout_of(&relist).contains("corrupt skipped"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stall_demo_flags_the_quiet_job_and_records_the_panicking_one() {
    let dir = temp_dir("stall");
    let out = repro(
        &["stall-demo"],
        &[
            ("MANYTEST_LEDGER_DIR", dir.to_str().unwrap()),
            ("MANYTEST_STALL_SECONDS", "0.2"),
            ("MANYTEST_STALL_DEMO_SECONDS", "1.5"),
        ],
    );
    assert!(out.status.success(), "stall-demo failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("STALLED"),
        "no stall warning in heartbeat frames:\n{stderr}"
    );
    let failed = repro(
        &["runs", "list", "--failed"],
        &[("MANYTEST_LEDGER_DIR", dir.to_str().unwrap())],
    );
    let text = stdout_of(&failed);
    assert!(text.contains("demo/panic"), "failed manifest missing:\n{text}");
    assert!(text.contains("failed"), "outcome column missing:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn regress_gate_passes_clean_and_fails_on_injected_drift() {
    let dir = temp_dir("regress");
    let ledger = &[("MANYTEST_LEDGER_DIR", dir.to_str().unwrap())];
    let clean = repro(&["regress", "--jobs", "4"], ledger);
    assert!(
        clean.status.success(),
        "regress failed against the committed baseline:\n{}",
        stdout_of(&clean)
    );
    assert!(stdout_of(&clean).contains("regress: OK"));
    // The watch never reads the cache, so the drift run re-simulates too.
    let drift = repro(&["regress", "--jobs", "4", "--inject-drift"], ledger);
    assert_eq!(drift.status.code(), Some(1), "injected drift must exit 1");
    let text = stdout_of(&drift);
    assert!(text.contains("DRIFT"), "no DRIFT verdict:\n{text}");
    assert!(text.contains("regress: FAIL"), "no FAIL summary:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
