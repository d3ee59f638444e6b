//! Scaling checks for the control-loop kernels.
//!
//! The struct-of-arrays refactor made the per-epoch phase work linear in
//! the core count and the admission path independent of it. These tests
//! pin the relations between grids: growing the mesh 4× in cores must
//! grow the candidate scan by ~4× (not ~16×), the admission counters
//! must not depend on the grid, and a 64×64 run must be deterministic.
//! The absolute scan counters of the quick grids are pinned exactly by
//! the numeric baseline (`regress::GRID_COUNTERS`, checked here for the
//! 8×8 and 16×16 grids, and for every grid by the `baseline` test and
//! `repro regress`).

use manytest_bench::kernels::{kernels_builder, run_kernels};
use manytest_bench::regress::{self, GRID_COUNTERS};
use manytest_bench::Scale;

/// The scan counters of the 8×8 and 16×16 quick runs equal their
/// committed baseline values. Exact equality is stricter than "at or
/// below": a counter that drops is a reviewed baseline diff too.
#[test]
fn quick_scan_counters_stay_at_or_below_baseline() {
    let grids = [8, 16];
    let verdict = regress::check_where(&[], &grids, |key| {
        key.split_once('.').is_some_and(|(grid, name)| {
            GRID_COUNTERS.contains(&name) && grids.iter().any(|g| grid == format!("g{g}"))
        })
    });
    assert!(
        verdict.is_clean(),
        "{} scan counter(s) drifted from {}; if the change is intentional, regenerate \
         with MANYTEST_UPDATE_GOLDEN=1 repro regress and commit the diff:\n{}",
        verdict.failures,
        regress::baseline_path().display(),
        verdict.table
    );
}

/// Quadrupling the core count must quadruple (not ×16) the per-epoch
/// candidate scan: the testable-core walk is linear in N. The bound is
/// deliberately loose (6×) — it fails the O(N²) world, not noise.
#[test]
fn candidate_scan_grows_linearly_with_core_count() {
    let runs = run_kernels(&[8, 16], Scale::Quick);
    let per_epoch: Vec<f64> = runs
        .iter()
        .map(|r| r.profile.candidates_scanned as f64 / r.profile.epochs as f64)
        .collect();
    let growth = per_epoch[1] / per_epoch[0];
    assert!(
        growth < 6.0,
        "candidate scan grew {growth:.1}x for 4x cores — superlinear scan work"
    );
    assert!(
        growth > 1.5,
        "candidate scan barely grew ({growth:.1}x) for 4x cores — \
         the sweep is not exercising scale"
    );
}

/// The admission path must not scale with the mesh: the free-core count
/// is maintained, not rescanned, so its query and rebuild counters are
/// identical across grids running the same workload.
#[test]
fn admission_counters_are_independent_of_grid_size() {
    let runs = run_kernels(&[8, 16], Scale::Quick);
    assert_eq!(
        runs[0].profile.free_set_queries, runs[1].profile.free_set_queries,
        "free-set queries changed with grid size"
    );
    assert_eq!(
        runs[0].profile.ctx_rebuilds, runs[1].profile.ctx_rebuilds,
        "map-context rebuilds changed with grid size"
    );
}

/// The 64×64 configuration runs to completion and is bit-deterministic:
/// two identical runs produce identical reports.
#[test]
fn grid64_quick_run_is_deterministic() {
    let run = || {
        kernels_builder(64, Scale::Quick)
            .build()
            .expect("valid config")
            .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "two identical 64x64 runs diverged");
    assert!(a.profile.epochs > 0, "run did not complete any epochs");
    assert_eq!(a.summary(), b.summary());
}
