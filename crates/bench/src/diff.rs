//! First-divergence run diffing.
//!
//! `repro diff <a> <b>` (or `repro diff <id> --seed2 S`) runs two probes,
//! aligns their event streams in lockstep, and reports the *first*
//! diverging event — the moment the two histories split — with both
//! records' causal chains side by side, followed by the downstream
//! per-kind count deltas and report-aggregate drift that flowed from that
//! split.
//!
//! The alignment key is the full rendered [`EventRecord`] JSON (id,
//! timestamp, cause link and payload), so any difference — a shifted
//! nanosecond, a different cause, a reordered emission — registers, and
//! two byte-identical logs diff to an explicit zero-divergence verdict
//! (which CI uses as a self-diff determinism gate).

use crate::events::{describe_event, probe_builder};
use crate::Scale;
use manytest_core::prelude::*;
use std::fmt::Write as _;

/// Aggregates worth surfacing as downstream drift, in render order.
/// Each entry is `(metric name, accessor)`.
const DRIFT_METRICS: &[(&str, fn(&Report) -> f64)] = &[
    ("apps_arrived", |r| r.apps_arrived as f64),
    ("apps_completed", |r| r.apps_completed as f64),
    ("apps_rejected", |r| r.apps_rejected as f64),
    ("tests_completed", |r| r.tests_completed as f64),
    ("tests_aborted", |r| r.tests_aborted as f64),
    ("tests_denied_power", |r| r.tests_denied_power as f64),
    ("fault_activations", |r| r.fault_activations as f64),
    ("fault_detections", |r| r.fault_detections as f64),
    ("cores_suspected", |r| r.cores_suspected as f64),
    ("cores_quarantined", |r| r.cores_quarantined as f64),
    ("cores_cleared", |r| r.cores_cleared as f64),
    ("apps_aborted", |r| r.apps_aborted as f64),
    ("apps_restarted", |r| r.apps_restarted as f64),
    ("apps_migrated", |r| r.apps_migrated as f64),
    ("corruption_exposure", |r| r.corruption_exposure),
    ("mean_power", |r| r.mean_power),
];

/// The second run of a diff: another probe id, or the same probe with
/// its seed overridden.
#[derive(Debug)]
pub enum DiffTarget<'a> {
    /// Diff against a different probe id.
    Probe(&'a str),
    /// Diff against the same probe re-run under another seed.
    Seed(u64),
}

/// Runs both sides and renders the diff. `None` when either probe id is
/// unknown.
pub fn run_diff(id: &str, target: DiffTarget<'_>, scale: Scale) -> Option<String> {
    let report_a = crate::ledger::run_system(&format!("diff/{id}"), probe_builder(id, scale)?);
    let (label_b, report_b) = match target {
        DiffTarget::Probe(other) => (
            other.to_owned(),
            crate::ledger::run_system(&format!("diff/{other}"), probe_builder(other, scale)?),
        ),
        DiffTarget::Seed(seed2) => (
            format!("{id} --seed2 {seed2}"),
            crate::ledger::run_system(
                &format!("diff/{id}/seed{seed2}"),
                probe_builder(id, scale)?.seed(seed2),
            ),
        ),
    };
    Some(diff_reports(id, &report_a, &label_b, &report_b))
}

/// Renders one record's full causal chain as indented `caused-by` lines
/// (unconditionally — the diff wants provenance for *any* event kind).
fn render_chain(out: &mut String, graph: &ProvenanceGraph<'_>, rec: &EventRecord) {
    let chain = graph.chain_to_root(rec.id);
    for i in 1..chain.len() {
        let Some(link) = chain[i - 1].cause else { break };
        let anc = chain[i];
        let _ = write!(
            out,
            "              caused-by [{}] {:>8.3} ms: ",
            link.kind.as_str(),
            anc.t * 1e3
        );
        describe_event(out, &anc.ev);
        out.push('\n');
    }
    if chain.len() == 1 && rec.cause.is_none() {
        out.push_str("              (root event — no cause)\n");
    }
}

/// One side of the first-divergence panel.
fn render_side(out: &mut String, label: &str, graph: &ProvenanceGraph<'_>, rec: Option<&EventRecord>) {
    match rec {
        Some(rec) => {
            let _ = write!(out, "  {label}: event #{}  ", rec.id.0);
            describe(out, rec);
            render_chain(out, graph, rec);
        }
        None => {
            let _ = writeln!(out, "  {label}: (stream ended — no further events)");
        }
    }
}

/// Timeline line without reusing the private events.rs formatting quirks.
fn describe(out: &mut String, rec: &EventRecord) {
    let _ = write!(out, "{:>10.3} ms  ", rec.t * 1e3);
    describe_event(out, &rec.ev);
    out.push('\n');
}

/// Diffs two captured runs: first diverging event with both causal
/// chains, then downstream per-kind and aggregate drift.
pub fn diff_reports(label_a: &str, a: &Report, label_b: &str, b: &Report) -> String {
    let ev_a = a.events.events();
    let ev_b = b.events.events();
    let graph_a = ProvenanceGraph::build(ev_a);
    let graph_b = ProvenanceGraph::build(ev_b);
    let mut out = String::new();
    let _ = writeln!(out, "## run diff — {label_a} vs {label_b}");
    let _ = writeln!(
        out,
        "A: {} events ({} dropped)   B: {} events ({} dropped)",
        ev_a.len(),
        a.events.dropped(),
        ev_b.len(),
        b.events.dropped()
    );
    out.push('\n');

    // Lockstep scan on the rendered record JSON: ids, times, cause links
    // and payloads all participate in the comparison.
    let mut renderer = JsonRenderer::new();
    let mut render = |rec: &EventRecord| {
        let mut s = String::new();
        rec.write_json(&mut renderer, &mut s);
        s
    };
    let common = ev_a.len().min(ev_b.len());
    let mut divergence: Option<usize> = None;
    for i in 0..common {
        if render(&ev_a[i]) != render(&ev_b[i]) {
            divergence = Some(i);
            break;
        }
    }
    if divergence.is_none() && ev_a.len() != ev_b.len() {
        divergence = Some(common);
    }

    let Some(at) = divergence else {
        let _ = writeln!(
            out,
            "no divergence: all {} events are byte-identical across both runs",
            ev_a.len()
        );
        return out;
    };

    let _ = writeln!(
        out,
        "first divergence at event index {at} ({} identical events before it):",
        at
    );
    render_side(&mut out, "A", &graph_a, ev_a.get(at));
    render_side(&mut out, "B", &graph_b, ev_b.get(at));
    out.push('\n');

    // Downstream drift: per-kind count deltas…
    let _ = writeln!(out, "per-kind event count drift (A -> B):");
    let mut any = false;
    for kind in SimEvent::KINDS {
        let ca = a.events.count(kind);
        let cb = b.events.count(kind);
        if ca != cb {
            any = true;
            let _ = writeln!(
                out,
                "  {kind:<18} {ca:>8} -> {cb:<8} ({:+})",
                cb as i64 - ca as i64
            );
        }
    }
    if !any {
        out.push_str("  (none — the runs diverge in timing/payload only)\n");
    }
    out.push('\n');

    // …and report-aggregate drift.
    let _ = writeln!(out, "report aggregate drift (A -> B):");
    any = false;
    for &(name, get) in DRIFT_METRICS {
        let va = get(a);
        let vb = get(b);
        if va != vb {
            any = true;
            let _ = writeln!(out, "  {name:<20} {va} -> {vb} ({:+})", vb - va);
        }
    }
    if !any {
        out.push_str("  (none)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::run_probe;

    fn tiny(seed: u64) -> Report {
        SystemBuilder::new(TechNode::N16)
            .seed(seed)
            .sim_time_ms(50)
            .arrival_rate(2_000.0)
            .capture_events(1 << 14)
            .injected_faults(4)
            .build()
            .expect("valid config")
            .run()
    }

    #[test]
    fn identical_runs_report_zero_divergence() {
        let a = tiny(7);
        let b = tiny(7);
        let text = diff_reports("x", &a, "x", &b);
        assert!(text.contains("no divergence"), "{text}");
    }

    #[test]
    fn reseeded_runs_name_a_first_divergence_with_chains() {
        let a = tiny(7);
        let b = tiny(8);
        let text = diff_reports("x", &a, "x --seed2 8", &b);
        assert!(text.contains("first divergence at event index"), "{text}");
        assert!(text.contains("A: event #"), "{text}");
        assert!(text.contains("B: "), "{text}");
    }

    #[test]
    fn self_diff_of_a_probe_is_clean() {
        let a = run_probe("e3", Scale::Quick).expect("known probe");
        let b = run_probe("e3", Scale::Quick).expect("known probe");
        let text = diff_reports("e3", &a, "e3", &b);
        assert!(text.contains("no divergence"), "{text}");
    }
}
