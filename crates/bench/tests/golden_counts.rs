//! Telemetry regression gate: the per-kind event counts of the
//! [`REGRESS_PROBES`] runs equal their `<probe>.kind.<Kind>` keys in the
//! committed numeric baseline, `tests/baselines/regress.quick.json`.
//!
//! A deterministic simulator plus a deterministic probe configuration
//! means these counts are exact constants — any drift is a real
//! behavioural change (an emission point added/removed, an RNG stream
//! perturbed, a scheduler decision reordered) and must be reviewed, not
//! absorbed. The test never writes; to accept an intentional change,
//! regenerate the baseline:
//!
//! ```sh
//! MANYTEST_UPDATE_GOLDEN=1 cargo run -p manytest-bench --bin repro -- regress
//! git diff crates/bench/tests/baselines/   # review, then commit
//! ```

use manytest_bench::regress::{self, REGRESS_PROBES};

#[test]
fn per_kind_event_counts_match_the_golden_files() {
    let verdict = regress::check_where(&REGRESS_PROBES, &[], |key| key.contains(".kind."));
    assert!(
        verdict.is_clean(),
        "{} event count(s) drifted from {}; if the change is intentional, regenerate \
         with MANYTEST_UPDATE_GOLDEN=1 repro regress and commit the diff:\n{}",
        verdict.failures,
        regress::baseline_path().display(),
        verdict.table
    );
}
