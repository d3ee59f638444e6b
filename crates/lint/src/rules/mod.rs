//! The rule trait, the registry and the individual rules.

use crate::diag::Finding;
use crate::source::{SourceFile, Workspace};

mod event_coverage;
mod event_match;
mod golden_schema;
mod hot_path_purity;
mod nondet_collections;
mod rng_escape;
mod unit_suffix;
mod wall_clock;

pub use event_coverage::enum_variants;
pub use hot_path_purity::ENTRY_POINTS;

/// One static-analysis rule. File rules implement `check_file`;
/// cross-file rules implement `check_workspace` (both default to no-op).
pub trait Rule {
    /// Stable kebab-case id, used in diagnostics and `lint:allow`.
    fn id(&self) -> &'static str;
    /// One-line description for `--rules` and docs.
    fn description(&self) -> &'static str;
    /// Per-file pass.
    fn check_file(&self, _file: &SourceFile, _out: &mut Vec<Finding>) {}
    /// Whole-workspace pass (cross-file facts, non-Rust inputs).
    fn check_workspace(&self, _ws: &Workspace, _out: &mut Vec<Finding>) {}
    /// The non-Rust paths `check_workspace` reads, relative to the
    /// workspace root. A directory stands for every file directly in
    /// it. The incremental cache folds their contents into the
    /// workspace hash, so an edit to one of them re-runs the pass.
    fn workspace_inputs(&self) -> &'static [&'static str] {
        &[]
    }
}

/// Rule ids reserved for the engine's audits (not `Rule` impls — they
/// cannot themselves be allowed).
pub const META_RULES: [&str; 3] = ["unused-allow", "malformed-allow", "malformed-effect"];

/// Every registered rule, in diagnostic order.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(nondet_collections::NondetCollections),
        Box::new(wall_clock::WallClock),
        Box::new(hot_path_purity::HotPathPurity),
        Box::new(event_match::EventMatchExhaustiveness),
        Box::new(unit_suffix::UnitSuffixConsistency),
        Box::new(rng_escape::RngEscape),
        Box::new(event_coverage::EventEmissionCoverage),
        Box::new(golden_schema::GoldenSchema),
    ]
}

/// Whether `id` names a registered rule (meta rules excluded — an allow
/// for `unused-allow` would be self-defeating).
pub fn is_known_rule(id: &str) -> bool {
    registry().iter().any(|r| r.id() == id)
}

/// The simulation crates whose state feeds deterministic replay.
pub(crate) const SIM_CRATES: [&str; 9] = [
    "aging", "bench", "core", "map", "noc", "power", "sim", "test", "workload",
];
