//! `event-emission-coverage`: every `SimEvent` variant must be
//! constructed in non-test code *and* reconciled in the audit layer,
//! every non-root variant must have a cause-link table entry, and
//! every emission site in the control loop must participate in the
//! provenance DAG.
//!
//! The telemetry contract is double-entry: each decision is emitted as a
//! structured event and folded into a report aggregate, and
//! `crates/core/src/audit.rs` reconciles the two. A variant that exists
//! but is never emitted is dead telemetry; one that is emitted but not
//! audited is an invariant hole — deleting an audit arm must fail the
//! lint, not just the runtime tests.
//!
//! The cause-link half reads `CauseKind::expected` in the obs file:
//! every variant without a `#[root = "…"]` marker in the `SimEvent`
//! declaration must appear as a *target* (the second `&[…]` group of an
//! arm) somewhere in that table, otherwise the runtime validator would
//! reject every emission of the kind — the lint fails closed at review
//! time instead of at run time. The marker is the declaration the
//! generated `ROOT_KINDS` and `cause_required` come from, so the lint
//! and the runtime read the same root set. Synthetic test workspaces
//! whose obs file has no `fn expected` opt out of this half.
//!
//! The provenance half guards `crates/core/src/system.rs`:
//!
//! * calling `on_event` directly is banned — raw observer calls bypass
//!   [`EventId`] minting, so the record would fall outside the DAG the
//!   audit validates;
//! * each call site of the *uncaused* emitters (`observe`, raw
//!   `emit_record`) mints a potential DAG root and must carry an audited
//!   `// lint:allow(event-emission-coverage, reason = "…")` naming why
//!   the event legitimately has no cause. Linkable sites use
//!   `observe_linked`/`emit_caused`, which need no allow.

use super::Rule;
use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::source::{SourceFile, Workspace};

pub struct EventEmissionCoverage;

/// Where the event enum lives.
const OBS_FILE: &str = "crates/sim/src/obs.rs";
/// Where every variant must be reconciled.
const AUDIT_FILE: &str = "crates/core/src/audit.rs";
/// The enum under the coverage contract.
const ENUM_NAME: &str = "SimEvent";
/// The attribute that marks a `SimEvent` variant as a provenance root.
const ROOT_MARKER: &str = "root";
/// The control loop whose emission sites are under the provenance
/// contract.
const SYSTEM_FILE: &str = "crates/core/src/system.rs";
/// Emitters that mint root events (no cause link): call sites must
/// justify root status with an audited allow.
const ROOT_EMITTERS: [&str; 2] = ["observe", "emit_record"];

impl Rule for EventEmissionCoverage {
    fn id(&self) -> &'static str {
        "event-emission-coverage"
    }

    fn description(&self) -> &'static str {
        "every SimEvent variant must be emitted in non-test code and reconciled in audit.rs"
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        if let Some(system) = ws.file(SYSTEM_FILE) {
            check_emission_sites(self.id(), system, out);
        }
        let Some(obs) = ws.file(OBS_FILE) else {
            return; // nothing to cover (synthetic workspaces opt in)
        };
        let marked = marked_enum_variants(obs, ENUM_NAME);
        if marked.is_empty() {
            return;
        }
        // Constructions anywhere outside obs.rs and audit.rs, in
        // non-test code: `SimEvent` `::` `<Variant>`.
        let mut constructed: Vec<String> = Vec::new();
        for file in &ws.files {
            if file.rel_path == OBS_FILE
                || file.rel_path == AUDIT_FILE
                || file.is_test_file()
            {
                continue;
            }
            collect_variant_refs(file, true, &mut |name| constructed.push(name.to_string()));
        }
        // Reconciliations in audit.rs: a `SimEvent::X` path *or* the
        // variant's kind string (aggregate lookups like `count("X")`).
        let mut audited: Vec<String> = Vec::new();
        if let Some(audit) = ws.file(AUDIT_FILE) {
            collect_variant_refs(audit, true, &mut |name| audited.push(name.to_string()));
            for tok in audit.code_tokens() {
                if tok.kind == TokenKind::Str && !audit.is_test_line(tok.line) {
                    audited.push(tok.text.clone());
                }
            }
        }
        for (v, _) in &marked {
            if !constructed.iter().any(|c| *c == v.text) {
                out.push(Finding {
                    rule: self.id(),
                    file: obs.rel_path.clone(),
                    line: v.line,
                    col: v.col,
                    message: format!(
                        "SimEvent::{} is never constructed in non-test code",
                        v.text
                    ),
                    rationale: "an event kind nothing emits is dead telemetry — wire it into \
                                the control loop or delete the variant",
                });
            }
            if !audited.iter().any(|a| a == &v.text) {
                out.push(Finding {
                    rule: self.id(),
                    file: obs.rel_path.clone(),
                    line: v.line,
                    col: v.col,
                    message: format!(
                        "SimEvent::{} is not reconciled in {AUDIT_FILE}",
                        v.text
                    ),
                    rationale: "every event kind needs an audit arm (a count invariant or a \
                                sequence check) so emission bugs fail CI",
                });
            }
        }
        // Cause-link half: a non-root variant absent from the
        // `CauseKind::expected` target lists can never carry a typed
        // cause, so `validate_events` would reject every emission.
        if let Some(targets) = cause_link_targets(obs) {
            for (v, is_root) in &marked {
                if *is_root || targets.iter().any(|t| t == &v.text) {
                    continue;
                }
                out.push(Finding {
                    rule: self.id(),
                    file: obs.rel_path.clone(),
                    line: v.line,
                    col: v.col,
                    message: format!(
                        "SimEvent::{} has no cause-link table entry in CauseKind::expected",
                        v.text
                    ),
                    rationale: "non-root events must be reachable through a typed cause \
                                edge; add a CauseKind arm targeting this kind or mark the \
                                variant #[root = \"why\"]",
                });
            }
        }
    }
}

/// Enforces the provenance half on the control loop: no raw `on_event`
/// calls, and an audited allow on every root-emitter call site. The
/// findings this emits are the hooks the `lint:allow` comments in
/// `system.rs` attach to — an uncaused emission without a justification
/// surfaces here, and a stale justification surfaces as `unused-allow`.
fn check_emission_sites(rule_id: &'static str, file: &SourceFile, out: &mut Vec<Finding>) {
    let code: Vec<&Token> = file.code_tokens().collect();
    for i in 0..code.len() {
        let tok = code[i];
        if tok.kind != TokenKind::Ident || file.is_test_line(tok.line) {
            continue;
        }
        if tok.text == "on_event" {
            out.push(Finding {
                rule: rule_id,
                file: file.rel_path.clone(),
                line: tok.line,
                col: tok.col,
                message: "direct `on_event` call bypasses event-id minting".into(),
                rationale: "records emitted outside observe/observe_linked/emit_caused/\
                            emit_record carry no EventId and fall outside the provenance \
                            DAG the audit validates",
            });
            continue;
        }
        // A call site of an uncaused emitter: `observe(` / `emit_record(`
        // that is not the `fn` definition itself.
        let is_call = ROOT_EMITTERS.contains(&tok.text.as_str())
            && code.get(i + 1).is_some_and(|t| t.is_punct('('))
            && !(i > 0 && code[i - 1].is_ident("fn"));
        if is_call {
            out.push(Finding {
                rule: rule_id,
                file: file.rel_path.clone(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "uncaused emission site `{}(…)` mints a provenance root",
                    tok.text
                ),
                rationale: "root events start causal chains the run-diff and trace tools \
                            anchor to; justify each with lint:allow(event-emission-coverage, \
                            reason = \"…\") or thread a cause via observe_linked/emit_caused",
            });
        }
    }
}

/// Extracts the *target* kind names from the `CauseKind::expected`
/// table: the string literals inside the second `&[…]` group of each
/// `(&[sources], &[targets])` arm. Returns `None` when the file has no
/// `fn expected` — synthetic workspaces without a cause-link table opt
/// out of this half of the rule.
fn cause_link_targets(file: &SourceFile) -> Option<Vec<String>> {
    let code: Vec<&Token> = file.code_tokens().collect();
    let mut i = 0;
    while i + 1 < code.len() {
        if code[i].is_ident("fn") && code[i + 1].is_ident("expected") {
            break;
        }
        i += 1;
    }
    if i + 1 >= code.len() {
        return None;
    }
    // Step over the signature (its return type contains `(`/`[` tokens,
    // but no `{`) to the body's opening brace.
    while i < code.len() && !code[i].is_punct('{') {
        i += 1;
    }
    let mut depth = 0i32;
    let mut bracket_group = 0u32; // ordinal of the current `[…]` in its tuple
    let mut in_bracket = false;
    let mut targets = Vec::new();
    while i < code.len() {
        let t = code[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_punct('(') {
            bracket_group = 0;
        } else if t.is_punct('[') {
            in_bracket = true;
            bracket_group += 1;
        } else if t.is_punct(']') {
            in_bracket = false;
        } else if in_bracket && bracket_group == 2 && t.kind == TokenKind::Str {
            targets.push(t.text.clone());
        }
        i += 1;
    }
    Some(targets)
}

/// Collects `SimEvent::<Variant>` path references in `file`, skipping
/// test lines when `skip_test_lines` is set.
fn collect_variant_refs(
    file: &SourceFile,
    skip_test_lines: bool,
    sink: &mut dyn FnMut(&str),
) {
    let code: Vec<&Token> = file.code_tokens().collect();
    for i in 0..code.len().saturating_sub(3) {
        if code[i].is_ident(ENUM_NAME)
            && code[i + 1].is_punct(':')
            && code[i + 2].is_punct(':')
            && code[i + 3].kind == TokenKind::Ident
            && !(skip_test_lines && file.is_test_line(code[i].line))
        {
            sink(&code[i + 3].text);
        }
    }
}

/// Extracts the variant-name tokens of `enum <name> { … }` from a file.
pub fn enum_variants(file: &SourceFile, name: &str) -> Vec<Token> {
    marked_enum_variants(file, name)
        .into_iter()
        .map(|(v, _)| v)
        .collect()
}

/// Extracts the variant-name tokens of `enum <name> { … }` from a file,
/// each paired with whether a `#[root …]` marker attribute precedes it.
///
/// Token-level walk: find `enum <name>`, then collect the identifier
/// that opens each variant at brace depth 1 (doc comments are skipped by
/// tokenization; attributes and field blocks are stepped over). The walk
/// reads the item inside a declaration-macro invocation just as well.
pub fn marked_enum_variants(file: &SourceFile, name: &str) -> Vec<(Token, bool)> {
    let code: Vec<&Token> = file.code_tokens().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    // Find `enum <name> {`.
    while i + 2 < code.len() {
        if code[i].is_ident("enum") && code[i + 1].is_ident(name) {
            break;
        }
        i += 1;
    }
    if i + 2 >= code.len() {
        return variants;
    }
    i += 2;
    while i < code.len() && !code[i].is_punct('{') {
        i += 1; // skip generics/where clauses
    }
    if i >= code.len() {
        return variants;
    }
    i += 1; // into the enum body
    let mut depth = 1i32;
    let mut awaiting_variant = true;
    let mut marked = false;
    while i < code.len() && depth > 0 {
        let t = code[i];
        match () {
            _ if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') => {
                depth += 1;
                i += 1;
            }
            _ if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') => {
                depth -= 1;
                i += 1;
            }
            _ if depth == 1 && t.is_punct('#') => {
                // Skip a `#[…]` attribute group, noting the marker.
                marked |= code.get(i + 2).is_some_and(|a| a.is_ident(ROOT_MARKER));
                i += 1;
                let mut attr_depth = 0i32;
                while i < code.len() {
                    if code[i].is_punct('[') {
                        attr_depth += 1;
                    } else if code[i].is_punct(']') {
                        attr_depth -= 1;
                        if attr_depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    i += 1;
                }
            }
            _ if depth == 1 && t.is_punct(',') => {
                awaiting_variant = true;
                i += 1;
            }
            _ if depth == 1 && awaiting_variant && t.kind == TokenKind::Ident => {
                variants.push(((*t).clone(), marked));
                awaiting_variant = false;
                marked = false;
                i += 1;
            }
            _ => i += 1,
        }
    }
    variants
}
