//! `repro regress` — the one numeric baseline engine.
//!
//! Re-runs a small deterministic probe set (plus the quick kernels
//! grids) and compares every watched value against the one committed
//! baseline, `tests/baselines/regress.quick.json`, emitting a drift
//! table. The watched keys are:
//!
//! * `<probe>.kind.<SimEvent kind>` — per-kind event counts of each
//!   [`REGRESS_PROBES`] run, zeros kept so a kind that stops firing shows
//!   up as a `N -> 0` diff;
//! * `<probe>.<aggregate>` — the [`PROBE_AGGREGATES`] of each probe run;
//! * `g<edge>.<counter>` — the [`GRID_COUNTERS`] scan counters of each
//!   [`REGRESS_GRIDS`] kernels run, plus the [`GRID_EXTRAS`] of the
//!   smallest grid.
//!
//! One rule, typed by value: integer counts ([`Value::Count`]) must
//! match exactly, float aggregates ([`Value::Float`]) must stay within
//! [`REL_TOL`], which only forgives decimal round-trip noise. A key
//! missing from either side fails too. Every config is built and run
//! directly, never through the run-ledger cache, so a blob written by
//! an older build cannot hide drift; the ledger is only read for the
//! informational history lines.
//!
//! CI runs `repro regress` as a gate (nonzero exit on drift), and the
//! `baseline` test runs [`check`] under `cargo test`. Neither ever
//! writes: after a reviewed behavioural change, regenerate with
//! `MANYTEST_UPDATE_GOLDEN=1 cargo run -p manytest-bench --bin repro --
//! regress` and commit the diff.

use crate::events::probe_builder;
use crate::kernels::{kernels_builder, KERNELS_SEED};
use crate::ledger::{self, parse_flat_json, FlatValue};
use crate::runner::Batch;
use crate::Scale;
use manytest_core::prelude::*;
use manytest_sim::write_json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Probes the watch re-runs: a baseline-load run (e3), the
/// fault-response run (e11) and the core-lifecycle run (e12) — together
/// they exercise mapping, testing, quarantine and re-admission, and
/// every event kind the control loop emits.
pub const REGRESS_PROBES: [&str; 3] = ["e3", "e11", "e12"];

/// Report aggregates watched per probe, as `<probe>.<name>`.
pub const PROBE_AGGREGATES: [&str; 4] = [
    "throughput_mips",
    "tests_completed",
    "faults_detected",
    "mean_power_watts",
];

/// Kernels grid edges the watch re-runs (the quick scaling sweep).
pub const REGRESS_GRIDS: [u16; 3] = [8, 16, 32];

/// `PhaseProfile` scan counters watched per grid, as `g<edge>.<name>`.
pub const GRID_COUNTERS: [&str; 7] = [
    "epochs",
    "candidates_scanned",
    "free_set_queries",
    "ctx_rebuilds",
    "ctx_delta_updates",
    "heap_pops",
    "dirty_marks",
];

/// Run-level values watched for the smallest grid only, as
/// `g8.<name>`. These are the only `g<edge>.` names that are not
/// `PhaseProfile` fields (the golden-schema lint reads this list).
pub const GRID_EXTRAS: [&str; 3] = ["apps_completed", "tests_completed", "seed"];

/// Relative tolerance for float aggregates: forgives only decimal
/// text round-trip noise (values are deterministic bit-for-bit).
pub const REL_TOL: f64 = 1e-9;

/// The committed baseline path.
pub fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/baselines/regress.quick.json")
}

/// Whether the caller asked to regenerate committed fixtures: true only
/// for `MANYTEST_UPDATE_GOLDEN=1` (`0` or any other value checks). The
/// one place the workspace reads that variable.
pub fn update_requested() -> bool {
    std::env::var("MANYTEST_UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

/// One watched value, typed by the rule it is compared with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An integer count: must equal the baseline exactly.
    Count(u64),
    /// A float aggregate: must stay within [`REL_TOL`] of the baseline.
    Float(f64),
}

impl Value {
    /// The value as the baseline file stores it (counts fit f64 exactly).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Count(n) => n as f64,
            Value::Float(x) => x,
        }
    }

    /// Whether this value drifted from the baseline's `base`.
    pub fn drifts_from(self, base: f64) -> bool {
        match self {
            Value::Count(n) => base != n as f64,
            Value::Float(x) => drifted(base, x),
        }
    }
}

/// Whether float `current` drifted from `baseline` beyond [`REL_TOL`].
pub fn drifted(baseline: f64, current: f64) -> bool {
    let diff = (current - baseline).abs();
    diff > REL_TOL * baseline.abs().max(1.0)
}

/// Computes every watched value at quick scale, in a fixed order. Each
/// config is built and run directly (not through the ledger cache).
pub fn current_values(jobs: usize) -> Vec<(String, Value)> {
    watched_values(&REGRESS_PROBES, &REGRESS_GRIDS, jobs)
}

/// The watched values of `probes` and `grids` only, in
/// [`current_values`] order. The [`GRID_EXTRAS`] come with the smallest
/// grid, `REGRESS_GRIDS[0]`.
pub fn watched_values(probes: &[&str], grids: &[u16], jobs: usize) -> Vec<(String, Value)> {
    let run = |builder: SystemBuilder| builder.build().expect("regress configs are valid").run();
    let mut batch = Batch::new();
    for &id in probes {
        let builder = probe_builder(id, Scale::Quick).expect("regress probes are known ids");
        batch.push(format!("probe/{id}"), move || run(builder));
    }
    for &grid in grids {
        batch.push(format!("kernels/g{grid}"), move || {
            run(kernels_builder(grid, Scale::Quick))
        });
    }
    let reports = batch.run(jobs);
    let (probe_reports, grid_reports) = reports.split_at(probes.len());
    let mut values = Vec::new();
    for (id, r) in probes.iter().zip(probe_reports) {
        // In `PROBE_AGGREGATES` order.
        let aggregates = [
            Value::Float(r.throughput_mips),
            Value::Count(r.tests_completed),
            Value::Count(r.faults_detected),
            Value::Float(r.mean_power),
        ];
        for (name, value) in PROBE_AGGREGATES.iter().zip(aggregates) {
            values.push((format!("{id}.{name}"), value));
        }
        for (kind, count) in r.events.kind_counts() {
            values.push((format!("{id}.kind.{kind}"), Value::Count(count)));
        }
    }
    for (&grid, r) in grids.iter().zip(grid_reports) {
        for (name, count) in r.profile.entries() {
            if GRID_COUNTERS.contains(&name) {
                values.push((format!("g{grid}.{name}"), Value::Count(count)));
            }
        }
        if grid == REGRESS_GRIDS[0] {
            // In `GRID_EXTRAS` order.
            let extras = [r.apps_completed, r.tests_completed, KERNELS_SEED];
            for (name, count) in GRID_EXTRAS.iter().zip(extras) {
                values.push((format!("g{grid}.{name}"), Value::Count(count)));
            }
        }
    }
    values
}

/// The baseline map that records `values`.
pub fn baseline_of(values: &[(String, Value)]) -> BTreeMap<String, FlatValue> {
    values
        .iter()
        .map(|(name, value)| (name.clone(), FlatValue::Num(value.as_f64())))
        .collect()
}

/// Renders a baseline as flat JSON, one key per line in sorted order.
/// Numbers use the shortest round-trip formatting, so
/// [`parse_flat_json`] reads back exactly the map that was rendered.
pub fn render_baseline(baseline: &BTreeMap<String, FlatValue>) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in baseline.iter().enumerate() {
        out.push_str("  ");
        write_json_str(&mut out, name);
        out.push_str(": ");
        match value {
            FlatValue::Num(n) => {
                let _ = write!(out, "{n}");
            }
            FlatValue::Str(s) => write_json_str(&mut out, s),
        }
        out.push_str(if i + 1 == baseline.len() { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

/// The outcome of comparing current values against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The drift table, ending in a one-line `regress: OK|FAIL` summary.
    pub table: String,
    /// Keys that drifted, are missing from either side, or could not be
    /// compared (an unreadable baseline counts as one).
    pub failures: usize,
}

impl Verdict {
    /// Whether every watched value matched the baseline.
    pub fn is_clean(&self) -> bool {
        self.failures == 0
    }
}

/// Compares `current` against the baseline text (`None`: no file).
/// A baseline that is absent or does not parse — malformed, or a key
/// written twice — fails as a whole.
pub fn compare(current: &[(String, Value)], baseline_text: Option<&str>) -> Verdict {
    compare_where(current, baseline_text, |_| true)
}

/// [`compare`] restricted to the keys `keep` accepts, on both sides:
/// a kept key missing from either side still fails.
pub fn compare_where(
    current: &[(String, Value)],
    baseline_text: Option<&str>,
    keep: impl Fn(&str) -> bool,
) -> Verdict {
    let Some(mut baseline) = baseline_text.and_then(parse_flat_json) else {
        return Verdict {
            table: format!(
                "regress: FAIL — baseline {} is missing or does not parse (malformed \
                 JSON or a duplicate key); create it with MANYTEST_UPDATE_GOLDEN=1 repro regress\n",
                baseline_path().display()
            ),
            failures: 1,
        };
    };
    baseline.retain(|name, _| keep(name));
    let current: Vec<_> = current.iter().filter(|(name, _)| keep(name)).collect();
    let mut table = String::new();
    let _ = writeln!(
        table,
        "## regress — {} values vs committed baseline (quick scale)",
        current.len()
    );
    let _ = writeln!(table, "{:<28} {:>18} {:>18}  verdict", "key", "baseline", "current");
    let (mut drifts, mut missing) = (0usize, 0usize);
    let cell = |v: Option<&FlatValue>| match v {
        Some(FlatValue::Num(n)) => n.to_string(),
        Some(FlatValue::Str(s)) => format!("{s:?}"),
        None => "-".to_owned(),
    };
    for &(name, value) in &current {
        let base = baseline.get(name);
        let verdict = match base {
            Some(FlatValue::Num(b)) if !value.drifts_from(*b) => "ok",
            Some(_) => {
                drifts += 1;
                "DRIFT"
            }
            None => {
                missing += 1;
                "NEW (not in baseline)"
            }
        };
        let (base, value) = (cell(base), value.as_f64());
        let _ = writeln!(table, "{name:<28} {base:>18} {value:>18}  {verdict}");
    }
    for (name, base) in &baseline {
        if !current.iter().any(|(k, _)| k == name) {
            missing += 1;
            let base = cell(Some(base));
            let _ = writeln!(table, "{name:<28} {base:>18} {:>18}  GONE (baseline only)", "-");
        }
    }
    if drifts + missing == 0 {
        let _ = writeln!(table, "regress: OK — all values match the baseline");
    } else {
        let _ = writeln!(
            table,
            "regress: FAIL — {drifts} drifted, {missing} missing/new key(s)"
        );
    }
    Verdict {
        table,
        failures: drifts + missing,
    }
}

/// Runs the watch against the committed baseline without writing
/// anything: what the `baseline` test asserts is clean.
pub fn check(jobs: usize) -> Verdict {
    let text = fs::read_to_string(baseline_path()).ok();
    compare(&current_values(jobs), text.as_deref())
}

/// [`check`] for one family of keys: runs only `probes` and `grids`
/// and compares the keys `keep` accepts against the committed baseline.
pub fn check_where(probes: &[&str], grids: &[u16], keep: impl Fn(&str) -> bool) -> Verdict {
    let text = fs::read_to_string(baseline_path()).ok();
    compare_where(&watched_values(probes, grids, 0), text.as_deref(), keep)
}

/// Runs the regression watch. Prints the drift table to stdout and
/// returns `true` when every value matches (the CLI exits nonzero
/// otherwise).
///
/// `inject_drift` perturbs the first value (a float ×1.5, a count +1)
/// before the comparison — the hook CI uses to prove the gate can fail.
/// When [`update_requested`], the baseline is rewritten from the current
/// values instead and the watch passes.
pub fn run_regress(jobs: usize, inject_drift: bool) -> bool {
    let mut current = current_values(jobs);
    if update_requested() {
        let path = baseline_path();
        if let Some(parent) = path.parent() {
            let _ = fs::create_dir_all(parent);
        }
        fs::write(&path, render_baseline(&baseline_of(&current))).expect("write regress baseline");
        println!("## regress — baseline regenerated ({} values)", current.len());
        println!("# wrote {}", path.display());
        return true;
    }
    if inject_drift {
        let (name, value) = &mut current[0];
        *value = match *value {
            Value::Count(n) => Value::Count(n + 1),
            Value::Float(x) => Value::Float(x * 1.5),
        };
        println!("# drift injection: {name} perturbed");
    }
    let text = fs::read_to_string(baseline_path()).ok();
    let verdict = compare(&current, text.as_deref());
    print!("{}", verdict.table);
    print_ledger_context();
    verdict.is_clean()
}

/// Informational: how the current sweep compares with the most recent
/// ledger manifest per watched probe (skipped when no ledger is active).
fn print_ledger_context() {
    let Some(dir) = ledger::dir() else {
        return;
    };
    let (manifests, _) = ledger::load_manifests(&dir);
    for &id in &REGRESS_PROBES {
        if let Some(m) = manifests
            .iter()
            .rev()
            .find(|m| m.probe.as_deref() == Some(id) && m.outcome != "failed")
        {
            println!(
                "# ledger history: {id} last seen as run {} (outcome {}, {} MIPS, {} tests)",
                m.seq, m.outcome, m.throughput_mips, m.tests_completed
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(String, Value)> {
        vec![
            ("e3.throughput_mips".to_owned(), Value::Float(1234.567891011)),
            ("e3.kind.TestLaunched".to_owned(), Value::Count(807)),
            ("g8.epochs".to_owned(), Value::Count(250)),
        ]
    }

    fn verdict_with(edit: impl FnOnce(&mut Vec<(String, Value)>)) -> Verdict {
        let baseline = render_baseline(&baseline_of(&sample()));
        let mut current = sample();
        edit(&mut current);
        compare(&current, Some(&baseline))
    }

    #[test]
    fn baseline_rendering_round_trips() {
        let baseline = baseline_of(&sample());
        let text = render_baseline(&baseline);
        assert_eq!(parse_flat_json(&text), Some(baseline));
        assert!(text.contains("\"g8.epochs\": 250\n"), "counts render as integers:\n{text}");
    }

    #[test]
    fn drift_detection_tolerates_only_roundtrip_noise() {
        assert!(!drifted(100.0, 100.0));
        assert!(!drifted(100.0, 100.0 + 1e-8));
        assert!(drifted(100.0, 100.1));
        assert!(drifted(0.0, 0.5));
        assert!(!drifted(0.0, 0.0));
        // Injected drift (×1.5) is always caught.
        assert!(drifted(42.0, 63.0));
    }

    #[test]
    fn an_unchanged_run_is_clean() {
        let verdict = verdict_with(|_| {});
        assert!(verdict.is_clean(), "{}", verdict.table);
        assert!(verdict.table.ends_with("regress: OK — all values match the baseline\n"));
    }

    #[test]
    fn counts_compare_exactly_in_both_directions() {
        for delta in [1i64, -1] {
            let verdict = verdict_with(|v| {
                v[2].1 = Value::Count((250 + delta) as u64);
            });
            assert_eq!(verdict.failures, 1, "g8.epochs {delta:+}:\n{}", verdict.table);
            assert!(verdict.table.contains("DRIFT"));
        }
    }

    #[test]
    fn floats_drift_at_one_part_per_million() {
        let verdict = verdict_with(|v| {
            v[0].1 = Value::Float(1234.567891011 * (1.0 + 1e-6));
        });
        assert_eq!(verdict.failures, 1, "{}", verdict.table);
    }

    #[test]
    fn missing_and_extra_keys_fail() {
        let extra = verdict_with(|v| {
            v.push(("g8.heap_pops".to_owned(), Value::Count(198)));
        });
        assert_eq!(extra.failures, 1, "{}", extra.table);
        assert!(extra.table.contains("NEW (not in baseline)"));
        let missing = verdict_with(|v| {
            v.pop();
        });
        assert_eq!(missing.failures, 1, "{}", missing.table);
        assert!(missing.table.contains("GONE (baseline only)"));
    }

    #[test]
    fn a_key_filter_narrows_both_sides_but_keeps_missing_keys_failing() {
        let baseline = render_baseline(&baseline_of(&sample()));
        let counters_only = |name: &str| name.starts_with("g8.");
        let verdict = compare_where(&sample()[2..], Some(&baseline), counters_only);
        assert!(verdict.is_clean(), "{}", verdict.table);
        let verdict = compare_where(&sample()[..2], Some(&baseline), counters_only);
        assert_eq!(verdict.failures, 1, "{}", verdict.table);
        assert!(verdict.table.contains("GONE (baseline only)"));
    }

    #[test]
    fn a_duplicate_or_absent_baseline_fails() {
        let text = render_baseline(&baseline_of(&sample()));
        let duplicated = text.replacen("{\n", "{\n  \"g8.epochs\": 250,\n", 1);
        let verdict = compare(&sample(), Some(&duplicated));
        assert_eq!(verdict.failures, 1);
        assert!(verdict.table.contains("duplicate key"), "{}", verdict.table);
        assert!(!compare(&sample(), None).is_clean());
    }

    #[test]
    fn a_string_where_a_number_belongs_drifts() {
        let text = render_baseline(&baseline_of(&sample()))
            .replace("\"g8.epochs\": 250", "\"g8.epochs\": \"250\"");
        let verdict = compare(&sample(), Some(&text));
        assert_eq!(verdict.failures, 1, "{}", verdict.table);
    }
}
