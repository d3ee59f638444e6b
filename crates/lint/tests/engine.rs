//! Engine-level integration tests: the incremental cache and the SARIF
//! artifact, exercised against on-disk synthetic workspaces.

use manytest_lint::cache::{lint_workspace_cached, CACHE_REL_PATH};
use manytest_lint::diag::render_json;
use manytest_lint::json;
use manytest_lint::sarif::render_sarif;
use std::path::{Path, PathBuf};

/// A throwaway on-disk workspace under the test target dir; seeded with
/// one violating and one clean file.
fn scratch_workspace(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    // Stale state from a previous run would defeat the cold-run half.
    std::fs::remove_dir_all(&root).ok();
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("tmpdir");
    std::fs::write(
        src.join("bad.rs"),
        "use std::collections::HashMap;\npub type T = HashMap<u32, u32>;\n",
    )
    .expect("write");
    std::fs::write(src.join("good.rs"), "pub fn id(x: u32) -> u32 {\n    x\n}\n").expect("write");
    root
}

#[test]
fn warm_cache_replays_files_and_workspace() {
    let root = scratch_workspace("lint-cache-replay");
    let (cold, cold_stats) = lint_workspace_cached(&root).expect("cold run");
    assert_eq!(cold_stats.file_hits, 0);
    assert_eq!(cold_stats.file_misses, 2);
    assert!(!cold_stats.workspace_hit);
    assert!(root.join(CACHE_REL_PATH).is_file(), "cache file written");

    let (warm, warm_stats) = lint_workspace_cached(&root).expect("warm run");
    assert_eq!(warm_stats.file_hits, 2, "all files replayed");
    assert_eq!(warm_stats.file_misses, 0);
    assert!(warm_stats.workspace_hit, "workspace pass replayed");
    assert_eq!(cold.findings, warm.findings);
}

#[test]
fn editing_one_file_invalidates_only_that_file() {
    let root = scratch_workspace("lint-cache-invalidate");
    lint_workspace_cached(&root).expect("cold run");
    std::fs::write(
        root.join("crates/core/src/good.rs"),
        "pub fn id2(x: u32) -> u32 {\n    x\n}\n",
    )
    .expect("rewrite");
    let (_, stats) = lint_workspace_cached(&root).expect("after edit");
    assert_eq!(stats.file_hits, 1, "the untouched file replays");
    assert_eq!(stats.file_misses, 1, "the edited file re-runs");
    assert!(!stats.workspace_hit, "any content change re-runs the workspace pass");
}

#[test]
fn editing_the_baseline_reruns_the_workspace_pass() {
    let root = scratch_workspace("lint-cache-baseline");
    let baseline = root.join("crates/bench/tests/baselines/regress.quick.json");
    std::fs::create_dir_all(baseline.parent().expect("has a parent")).expect("tmpdir");
    std::fs::write(&baseline, "{\"g8.epochs\": 1}\n").expect("write");
    let (cold, _) = lint_workspace_cached(&root).expect("cold run");
    let (_, warm_stats) = lint_workspace_cached(&root).expect("warm run");
    assert!(warm_stats.workspace_hit, "an untouched baseline replays");

    // A duplicated key: only the workspace pass can see it, and only if
    // the edit invalidates the cached workspace findings.
    std::fs::write(&baseline, "{\"g8.epochs\": 1, \"g8.epochs\": 2}\n").expect("rewrite");
    let (edited, stats) = lint_workspace_cached(&root).expect("after edit");
    assert!(!stats.workspace_hit, "a baseline edit re-runs the workspace pass");
    assert_eq!(stats.file_misses, 0, "no Rust file changed");
    let duplicate = |findings: &[manytest_lint::diag::Finding]| {
        findings.iter().any(|f| f.message.contains("duplicate baseline key"))
    };
    assert!(!duplicate(&cold.findings));
    assert!(duplicate(&edited.findings), "fresh finding: {:?}", edited.findings);

    // Removing the input is an edit too.
    std::fs::remove_file(&baseline).expect("remove");
    let (removed, stats) = lint_workspace_cached(&root).expect("after removal");
    assert!(!stats.workspace_hit);
    assert!(!duplicate(&removed.findings));
}

#[test]
fn sarif_and_json_are_byte_identical_cold_vs_warm() {
    let root = scratch_workspace("lint-cache-bytes");
    let (cold, _) = lint_workspace_cached(&root).expect("cold run");
    let (warm, stats) = lint_workspace_cached(&root).expect("warm run");
    assert!(stats.workspace_hit && stats.file_misses == 0, "warm run must replay");
    // Replayed findings round-trip losslessly: both renderings match to
    // the byte, so CI artifacts never churn on cache state.
    assert_eq!(render_sarif(&cold.findings), render_sarif(&warm.findings));
    assert_eq!(
        render_json(&cold.findings, cold.files_scanned),
        render_json(&warm.findings, warm.files_scanned)
    );
}

#[test]
fn written_sarif_validates_against_the_2_1_0_shape() {
    let root = scratch_workspace("lint-sarif-shape");
    let (report, _) = lint_workspace_cached(&root).expect("run");
    assert!(!report.findings.is_empty(), "fixture must produce findings");
    let doc = json::parse(&render_sarif(&report.findings)).expect("SARIF is valid JSON");
    assert_eq!(
        doc.get("$schema").and_then(|v| v.as_str()),
        Some("https://json.schemastore.org/sarif-2.1.0.json")
    );
    assert_eq!(doc.get("version").and_then(|v| v.as_str()), Some("2.1.0"));
    let run = &doc.get("runs").and_then(|v| v.as_arr()).expect("runs array")[0];
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(driver.get("name").and_then(|v| v.as_str()), Some("manytest-lint"));
    let rules = driver.get("rules").and_then(|v| v.as_arr()).expect("rules");
    assert!(!rules.is_empty());
    for result in run.get("results").and_then(|v| v.as_arr()).expect("results") {
        // Every result points at a declared rule and a real location.
        let idx = result
            .get("ruleIndex")
            .and_then(|v| v.as_num())
            .expect("ruleIndex") as usize;
        assert_eq!(
            rules[idx].get("id").and_then(|v| v.as_str()),
            result.get("ruleId").and_then(|v| v.as_str())
        );
        let region = result.get("locations").and_then(|v| v.as_arr()).expect("locations")[0]
            .get("physicalLocation")
            .and_then(|p| p.get("region"))
            .expect("region");
        assert!(region.get("startLine").and_then(|v| v.as_num()).unwrap_or(0.0) >= 1.0);
        assert!(region.get("startColumn").and_then(|v| v.as_num()).unwrap_or(0.0) >= 1.0);
    }
}
