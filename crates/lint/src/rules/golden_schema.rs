//! `golden-schema`: the numeric baseline must parse and speak the
//! vocabulary of the code it pins, the probe ids the docs reference
//! must exist in `crates/bench/src/events.rs`, and any `manytest_*`
//! metric name the docs quote must be declared in `METRIC_KEYS`
//! (`crates/bench/src/report.rs`).
//!
//! The one numeric baseline, `crates/bench/tests/baselines/
//! regress.quick.json` (the `repro regress` gate), must be a flat JSON
//! object of finite numbers with no key written twice, and every key
//! must name something real:
//!
//! * `<probe>.kind.<Kind>`: `<probe>` in `PROBE_IDS`, `<Kind>` a
//!   `SimEvent` variant;
//! * `<probe>.<aggregate>`: `<aggregate>` in `PROBE_AGGREGATES`
//!   (`crates/bench/src/regress.rs`);
//! * `g<edge>.<name>`: `<name>` a `PhaseProfile` field or in
//!   `GRID_EXTRAS` (`regress.rs`).
//!
//! Any other JSON in the golden dir (Perfetto traces aside) is flagged:
//! numeric baselines live in that one file, and a second one would be
//! checked by nothing.
//!
//! Perfetto exports (`*.trace.json`, in the golden dir or a generated
//! `report/` directory) speak the Chrome trace-event schema instead:
//! every entry needs `name`/`ph`/`pid`/`tid`, the phase letter must be
//! one of `M`/`X`/`i`/`s`/`f` with its letter-specific fields (`dur` on
//! slices, `id` on flows, `bp` on flow finishes), and every flow start
//! must pair with a finish — a half-arrow renders as nothing in the UI,
//! silently hiding a causal link.
//!
//! Run-ledger manifests (committed fixtures under
//! `crates/bench/tests/fixtures/manifests/` and any locally generated
//! `runs/manifests/` ledger) must carry every key in
//! `MANIFEST_REQUIRED_KEYS` (`crates/bench/src/ledger.rs`), declare the
//! current manifest schema string, use a 16-digit lowercase-hex
//! `config_hash`, a known `outcome`, and — when they name a `probe` —
//! one that exists in `PROBE_IDS`. A malformed manifest silently
//! disappears from `runs list`/`runs show` and from the regress watch's
//! ledger history, so the lint fails loudly instead.
//!
//! The baseline gate only protects the repo while its file is
//! well-formed and speaks the same schema as the code — a key renamed on
//! one side fails the gate as missing/new, but a duplicated key would
//! silently check one of its values. The doc halves catch drift the
//! other way: `repro explain e11`-style commands quoted in
//! README/EXPERIMENTS must name probes the binary actually knows, and a
//! documented Prometheus metric that the report renderer no longer emits
//! would silently break scrapes.

use super::event_coverage::enum_variants;
use super::Rule;
use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::source::Workspace;

pub struct GoldenSchema;

const OBS_FILE: &str = "crates/sim/src/obs.rs";
const EVENTS_FILE: &str = "crates/bench/src/events.rs";
const REPORT_FILE: &str = "crates/bench/src/report.rs";
const LEDGER_FILE: &str = "crates/bench/src/ledger.rs";
const REGRESS_FILE: &str = "crates/bench/src/regress.rs";
const BASELINE_FILE: &str = "crates/bench/tests/baselines/regress.quick.json";
const GOLDEN_DIR: &str = "crates/bench/tests/golden";
const MANIFEST_DIRS: [&str; 2] = ["crates/bench/tests/fixtures/manifests", "runs/manifests"];
const DOC_FILES: [&str; 2] = ["README.md", "EXPERIMENTS.md"];
/// Directory of generated Perfetto exports the trace check also reads.
const REPORT_DIR: &str = "report";
/// Every non-Rust path the rule reads.
const INPUTS: [&str; 7] = [
    BASELINE_FILE,
    GOLDEN_DIR,
    REPORT_DIR,
    MANIFEST_DIRS[0],
    MANIFEST_DIRS[1],
    DOC_FILES[0],
    DOC_FILES[1],
];

/// Workspace crate names in path form — `manytest_sim::…` in a doc is a
/// Rust path, not a metric reference.
const CRATE_NAMES: [&str; 10] = [
    "manytest_sim",
    "manytest_core",
    "manytest_bench",
    "manytest_lint",
    "manytest_power",
    "manytest_noc",
    "manytest_aging",
    "manytest_map",
    "manytest_sbst",
    "manytest_workload",
];

impl Rule for GoldenSchema {
    fn id(&self) -> &'static str {
        "golden-schema"
    }

    fn description(&self) -> &'static str {
        "the regress baseline must parse with real probe/kind/counter keys; \
         doc probe ids and metric names must exist"
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let kinds: Vec<String> = ws
            .file(OBS_FILE)
            .map(|obs| {
                enum_variants(obs, "SimEvent")
                    .into_iter()
                    .map(|t| t.text)
                    .collect()
            })
            .unwrap_or_default();
        let counters: Vec<String> = ws
            .file(OBS_FILE)
            .map(|obs| struct_fields(obs, "PhaseProfile"))
            .unwrap_or_default();
        let probe_ids = string_array(ws, EVENTS_FILE, "PROBE_IDS");
        let vocab = BaselineVocab {
            kinds,
            counters,
            probe_ids: probe_ids.clone(),
            aggregates: string_array(ws, REGRESS_FILE, "PROBE_AGGREGATES"),
            grid_extras: string_array(ws, REGRESS_FILE, "GRID_EXTRAS"),
        };
        self.check_baseline_file(ws, &vocab, out);
        self.check_golden_dir(ws, out);
        self.check_trace_files(ws, out);
        self.check_manifest_files(ws, &probe_ids, out);
        self.check_doc_probe_ids(ws, &probe_ids, out);
        self.check_doc_metric_keys(ws, &string_array(ws, REPORT_FILE, "METRIC_KEYS"), out);
    }

    fn workspace_inputs(&self) -> &'static [&'static str] {
        &INPUTS
    }
}

impl GoldenSchema {
    /// Validates the numeric baseline: it parses as a flat object of
    /// finite numbers, no key repeats, and every key names a real probe,
    /// event kind, aggregate or counter.
    fn check_baseline_file(&self, ws: &Workspace, vocab: &BaselineVocab, out: &mut Vec<Finding>) {
        let Ok(text) = std::fs::read_to_string(ws.root.join(BASELINE_FILE)) else {
            return; // no baseline gate in this tree
        };
        let finding = |line, col, message| Finding {
            rule: self.id(),
            file: BASELINE_FILE.to_string(),
            line,
            col,
            message,
            rationale: GOLDEN_RATIONALE,
        };
        let entries = match parse_flat_object(&text) {
            Ok(entries) => entries,
            Err((line, col, msg)) => {
                out.push(finding(line, col, format!("baseline does not parse: {msg}")));
                return;
            }
        };
        let mut seen: Vec<&str> = Vec::with_capacity(entries.len());
        for (key, value, line, col) in &entries {
            if seen.contains(&key.as_str()) {
                out.push(finding(*line, *col, format!("duplicate baseline key `{key}`")));
            }
            seen.push(key);
            if value.is_some() {
                let message = format!("baseline value of `{key}` is not a number");
                out.push(finding(*line, *col, message));
            }
            if let Some(problem) = vocab.problem_with(key) {
                out.push(finding(*line, *col, format!("baseline key `{key}`: {problem}")));
            }
        }
    }

    /// Flags any JSON in the golden dir other than a Perfetto trace:
    /// numeric baselines live in [`BASELINE_FILE`] only.
    fn check_golden_dir(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let Ok(entries) = std::fs::read_dir(ws.root.join(GOLDEN_DIR)) else {
            return;
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
            .filter(|n| n.ends_with(".json") && !n.ends_with(".trace.json"))
            .collect();
        names.sort();
        for name in names {
            out.push(Finding {
                rule: self.id(),
                file: format!("{GOLDEN_DIR}/{name}"),
                line: 1,
                col: 1,
                message: format!(
                    "numeric golden file outside the one baseline ({BASELINE_FILE}); \
                     nothing checks it — move its keys into the baseline"
                ),
                rationale: GOLDEN_RATIONALE,
            });
        }
    }

    /// Validates every Perfetto export (`*.trace.json`) found in the
    /// golden dir or a generated `report/` directory against the Chrome
    /// trace-event schema the `repro trace` writer promises.
    fn check_trace_files(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for dir in [GOLDEN_DIR, REPORT_DIR] {
            let Ok(entries) = std::fs::read_dir(ws.root.join(dir)) else {
                continue;
            };
            let mut paths: Vec<_> = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .is_some_and(|n| n.to_string_lossy().ends_with(".trace.json"))
                })
                .collect();
            paths.sort();
            for path in paths {
                let file_name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let rel = format!("{dir}/{file_name}");
                let Ok(text) = std::fs::read_to_string(&path) else {
                    out.push(Finding {
                        rule: self.id(),
                        file: rel,
                        line: 1,
                        col: 1,
                        message: "trace file is unreadable".into(),
                        rationale: TRACE_RATIONALE,
                    });
                    continue;
                };
                for (line, msg) in validate_perfetto(&text) {
                    out.push(Finding {
                        rule: self.id(),
                        file: rel.clone(),
                        line,
                        col: 1,
                        message: msg,
                        rationale: TRACE_RATIONALE,
                    });
                }
            }
        }
    }

    /// Validates every run-ledger manifest found in the committed
    /// fixture directory or a locally generated `runs/manifests/`
    /// ledger: required key set, schema string, config-hash format,
    /// outcome vocabulary, and probe ids.
    fn check_manifest_files(
        &self,
        ws: &Workspace,
        probe_ids: &Option<Vec<String>>,
        out: &mut Vec<Finding>,
    ) {
        let required = string_array(ws, LEDGER_FILE, "MANIFEST_REQUIRED_KEYS");
        let schema = string_const(ws, LEDGER_FILE, "MANIFEST_SCHEMA");
        for dir in MANIFEST_DIRS {
            let Ok(entries) = std::fs::read_dir(ws.root.join(dir)) else {
                continue;
            };
            let mut paths: Vec<_> = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|e| e == "json"))
                .collect();
            paths.sort();
            for path in paths {
                let file_name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let rel = format!("{dir}/{file_name}");
                let Ok(text) = std::fs::read_to_string(&path) else {
                    out.push(Finding {
                        rule: self.id(),
                        file: rel,
                        line: 1,
                        col: 1,
                        message: "manifest is unreadable".into(),
                        rationale: MANIFEST_RATIONALE,
                    });
                    continue;
                };
                let entries = match parse_flat_object(&text) {
                    Err((line, col, msg)) => {
                        out.push(Finding {
                            rule: self.id(),
                            file: rel,
                            line,
                            col,
                            message: format!("manifest does not parse: {msg}"),
                            rationale: MANIFEST_RATIONALE,
                        });
                        continue;
                    }
                    Ok(entries) => entries,
                };
                let value_of = |name: &str| {
                    entries
                        .iter()
                        .find(|(k, _, _, _)| k == name)
                        .map(|(_, v, line, col)| (v.clone(), *line, *col))
                };
                if let Some(req) = &required {
                    for key in req {
                        if value_of(key).is_none() {
                            out.push(Finding {
                                rule: self.id(),
                                file: rel.clone(),
                                line: 1,
                                col: 1,
                                message: format!("manifest is missing required key `{key}`"),
                                rationale: MANIFEST_RATIONALE,
                            });
                        }
                    }
                }
                if let (Some(want), Some((got, line, col))) = (&schema, value_of("schema")) {
                    if got.as_deref() != Some(want.as_str()) {
                        out.push(Finding {
                            rule: self.id(),
                            file: rel.clone(),
                            line,
                            col,
                            message: format!(
                                "manifest schema is {got:?}, expected `{want}` \
                                 (MANIFEST_SCHEMA in {LEDGER_FILE})"
                            ),
                            rationale: MANIFEST_RATIONALE,
                        });
                    }
                }
                if let Some((Some(hash), line, col)) = value_of("config_hash") {
                    let ok = hash.len() == 16
                        && hash
                            .chars()
                            .all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c));
                    if !ok {
                        out.push(Finding {
                            rule: self.id(),
                            file: rel.clone(),
                            line,
                            col,
                            message: format!(
                                "config_hash `{hash}` is not 16 lowercase hex digits"
                            ),
                            rationale: MANIFEST_RATIONALE,
                        });
                    }
                }
                if let Some((Some(outcome), line, col)) = value_of("outcome") {
                    if !["ok", "cached", "failed"].contains(&outcome.as_str()) {
                        out.push(Finding {
                            rule: self.id(),
                            file: rel.clone(),
                            line,
                            col,
                            message: format!(
                                "manifest outcome `{outcome}` is not one of ok/cached/failed"
                            ),
                            rationale: MANIFEST_RATIONALE,
                        });
                    }
                }
                if let (Some(ids), Some((Some(probe), line, col))) =
                    (probe_ids, value_of("probe"))
                {
                    if !ids.iter().any(|i| *i == probe) {
                        out.push(Finding {
                            rule: self.id(),
                            file: rel.clone(),
                            line,
                            col,
                            message: format!(
                                "manifest probe `{probe}` is not in PROBE_IDS ({EVENTS_FILE})"
                            ),
                            rationale: MANIFEST_RATIONALE,
                        });
                    }
                }
            }
        }
    }

    /// `explain`/`report`/`trace`/`diff <id>` commands quoted in the
    /// docs must name real probes. `diff` takes up to two ids, so after
    /// a valid first id the following word is checked too.
    fn check_doc_probe_ids(
        &self,
        ws: &Workspace,
        probe_ids: &Option<Vec<String>>,
        out: &mut Vec<Finding>,
    ) {
        const PROBE_COMMANDS: [&str; 4] = ["explain ", "report ", "trace ", "diff "];
        let Some(ids) = probe_ids else { return };
        for doc in DOC_FILES {
            let Ok(text) = std::fs::read_to_string(ws.root.join(doc)) else {
                continue;
            };
            for (line_no, line) in text.lines().enumerate() {
                for command in PROBE_COMMANDS {
                    let mut search_from = 0usize;
                    while let Some(pos) = line[search_from..].find(command) {
                        let mut word_start = search_from + pos + command.len();
                        // `diff <a> <b>`: keep consuming words while they
                        // look like probe ids, flagging each unknown one.
                        loop {
                            let word: String = line[word_start..]
                                .chars()
                                .take_while(|c| c.is_ascii_alphanumeric())
                                .collect();
                            if !looks_like_probe_id(&word) {
                                break;
                            }
                            if !ids.iter().any(|i| *i == word) {
                                out.push(Finding {
                                    rule: self.id(),
                                    file: doc.to_string(),
                                    line: (line_no + 1) as u32,
                                    col: (word_start + 1) as u32,
                                    message: format!(
                                        "doc references probe id `{word}` which is not in \
                                         PROBE_IDS ({EVENTS_FILE})"
                                    ),
                                    rationale: "a quoted `repro <subcommand> <id>` command must \
                                                keep working; update the doc or add the probe",
                                });
                            }
                            let after = word_start + word.len();
                            if command == "diff " && line[after..].starts_with(' ') {
                                word_start = after + 1;
                            } else {
                                break;
                            }
                        }
                        search_from = word_start;
                    }
                }
            }
        }
    }

    /// Any `manytest_*` metric name the docs quote must be declared in
    /// `METRIC_KEYS` — a scrape config copied from the README must keep
    /// matching what `metrics.prom` actually emits.
    fn check_doc_metric_keys(
        &self,
        ws: &Workspace,
        metric_keys: &Option<Vec<String>>,
        out: &mut Vec<Finding>,
    ) {
        let Some(keys) = metric_keys else { return };
        for doc in DOC_FILES {
            let Ok(text) = std::fs::read_to_string(ws.root.join(doc)) else {
                continue;
            };
            for (line_no, line) in text.lines().enumerate() {
                let mut search_from = 0usize;
                while let Some(pos) = line[search_from..].find("manytest_") {
                    let start = search_from + pos;
                    let token: String = line[start..]
                        .chars()
                        .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                        .collect();
                    search_from = start + token.len();
                    // Rust paths (`manytest_sim::obs`) and bare crate
                    // names are not metric references.
                    if line[search_from..].starts_with("::")
                        || CRATE_NAMES.iter().any(|c| *c == token)
                    {
                        continue;
                    }
                    if !keys.iter().any(|k| *k == token) {
                        out.push(Finding {
                            rule: self.id(),
                            file: doc.to_string(),
                            line: (line_no + 1) as u32,
                            col: (start + 1) as u32,
                            message: format!(
                                "doc references metric `{token}` which is not in METRIC_KEYS \
                                 ({REPORT_FILE})"
                            ),
                            rationale: "a documented Prometheus metric must exist in \
                                        metrics.prom; update the doc or add the metric",
                        });
                    }
                }
            }
        }
    }
}

const GOLDEN_RATIONALE: &str =
    "the regress baseline gate only bites when its one file parses, holds each key once \
     and names real probes, SimEvent kinds and counters; regenerate with \
     `MANYTEST_UPDATE_GOLDEN=1 repro regress` rather than editing by hand";

const TRACE_RATIONALE: &str =
    "Perfetto silently drops malformed trace entries, so a schema slip hides telemetry \
     instead of failing; regenerate with `repro trace <id>` rather than editing by hand";

const MANIFEST_RATIONALE: &str =
    "runs list/show and the regress watch's ledger history skip manifests they cannot \
     parse or trust, so a schema slip silently erases run provenance; regenerate with \
     `repro --ledger` rather than editing by hand";

/// Minimal Chrome trace-event schema validation, exploiting the
/// writer's line-oriented layout (one entry per line inside `[` … `]`).
/// Returns `(line, message)` pairs.
fn validate_perfetto(text: &str) -> Vec<(u32, String)> {
    let mut errors = Vec::new();
    let mut flow_starts: Vec<String> = Vec::new();
    let mut flow_ends: Vec<String> = Vec::new();
    let trimmed = text.trim();
    if !trimmed.starts_with('[') || !trimmed.ends_with(']') {
        return vec![(1, "trace is not a JSON array".into())];
    }
    for (idx, raw) in text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let entry = raw.trim().trim_end_matches(',');
        if entry.is_empty() || entry == "[" || entry == "]" {
            continue;
        }
        if !entry.starts_with('{') || !entry.ends_with('}') {
            errors.push((line_no, "trace entry is not one object per line".into()));
            continue;
        }
        let field = |name: &str| -> Option<String> {
            let pat = format!("\"{name}\":");
            let start = entry.find(&pat)? + pat.len();
            let rest = &entry[start..];
            Some(if let Some(quoted) = rest.strip_prefix('"') {
                quoted.chars().take_while(|&c| c != '"').collect()
            } else {
                rest.chars()
                    .take_while(|&c| c != ',' && c != '}')
                    .collect()
            })
        };
        for required in ["name", "ph", "pid", "tid"] {
            if field(required).is_none() {
                errors.push((line_no, format!("trace entry is missing `{required}`")));
            }
        }
        let Some(ph) = field("ph") else { continue };
        match ph.as_str() {
            "M" => {}
            "X" => {
                if field("dur").is_none() {
                    errors.push((line_no, "duration slice (`ph`:`X`) is missing `dur`".into()));
                }
            }
            "i" => {} // instants only need the shared `ts` check below
            "s" | "f" => match field("id") {
                Some(id) => {
                    if ph == "s" {
                        flow_starts.push(id);
                    } else {
                        if field("bp") != Some("e".into()) {
                            errors.push((
                                line_no,
                                "flow finish (`ph`:`f`) is missing `\"bp\":\"e\"`".into(),
                            ));
                        }
                        flow_ends.push(id);
                    }
                }
                None => errors.push((line_no, format!("flow event (`ph`:`{ph}`) is missing `id`"))),
            },
            other => errors.push((line_no, format!("unknown trace phase letter `{other}`"))),
        }
        if ph != "M" && field("ts").is_none() {
            errors.push((line_no, format!("`ph`:`{ph}` entry is missing `ts`")));
        }
    }
    flow_starts.sort();
    flow_ends.sort();
    if flow_starts != flow_ends {
        errors.push((
            1,
            format!(
                "flow starts and finishes do not pair up ({} starts, {} finishes)",
                flow_starts.len(),
                flow_ends.len()
            ),
        ));
    }
    errors
}

/// The names a baseline key may use, read from the source files that
/// declare them. An absent source (a synthetic workspace) leaves that
/// part of the key unchecked.
struct BaselineVocab {
    kinds: Vec<String>,
    counters: Vec<String>,
    probe_ids: Option<Vec<String>>,
    aggregates: Option<Vec<String>>,
    grid_extras: Option<Vec<String>>,
}

impl BaselineVocab {
    /// What is wrong with `key`, or `None` when it names real things.
    fn problem_with(&self, key: &str) -> Option<String> {
        let Some((head, rest)) = key.split_once('.') else {
            return Some("no `<probe>.` or `g<edge>.` prefix".into());
        };
        let known = |list: &[String], name: &str| list.iter().any(|item| item == name);
        if let Some(edge) = head.strip_prefix('g') {
            if !edge.is_empty() && edge.chars().all(|c| c.is_ascii_digit()) {
                let extras = self.grid_extras.as_deref().unwrap_or_default();
                let checkable = !self.counters.is_empty() || self.grid_extras.is_some();
                return (checkable && !known(&self.counters, rest) && !known(extras, rest)).then(|| {
                    format!(
                        "`{rest}` is neither a PhaseProfile counter nor in GRID_EXTRAS \
                         ({REGRESS_FILE})"
                    )
                });
            }
        }
        if let Some(ids) = &self.probe_ids {
            if !known(ids, head) {
                return Some(format!("unknown probe id `{head}` (PROBE_IDS in {EVENTS_FILE})"));
            }
        }
        if let Some(kind) = rest.strip_prefix("kind.") {
            return (!self.kinds.is_empty() && !known(&self.kinds, kind))
                .then(|| format!("kind `{kind}` is not a SimEvent variant"));
        }
        let aggregates = self.aggregates.as_deref()?;
        (!known(aggregates, rest))
            .then(|| format!("`{rest}` is not in PROBE_AGGREGATES ({REGRESS_FILE})"))
    }
}

/// Extracts the field names of `struct <name> { … }` from `file`: every
/// identifier directly followed by `:` inside the braces. Good enough
/// for flat counter structs (no nested braced types). Empty when the
/// struct is absent.
fn struct_fields(file: &crate::source::SourceFile, name: &str) -> Vec<String> {
    let code: Vec<_> = file.code_tokens().collect();
    let mut i = 0;
    while i + 1 < code.len() {
        if code[i].is_ident("struct") && code[i + 1].is_ident(name) {
            break;
        }
        i += 1;
    }
    if i + 1 >= code.len() {
        return Vec::new();
    }
    while i < code.len() && !code[i].is_punct('{') {
        i += 1;
    }
    let mut fields = Vec::new();
    while i + 1 < code.len() && !code[i + 1].is_punct('}') {
        i += 1;
        if code[i].kind == TokenKind::Ident
            && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
        {
            fields.push(code[i].text.clone());
        }
    }
    fields
}

/// A probe id is a short letter+digits token (`e3`, `a6`, `e11`).
fn looks_like_probe_id(word: &str) -> bool {
    let mut chars = word.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_lowercase())
        && chars.clone().next().is_some()
        && chars.all(|c| c.is_ascii_digit())
}

/// Extracts a `const NAME: [&str; N] = ["…", …]` string-array literal
/// from `path`. `None` when the file or array is absent (synthetic
/// workspaces without that crate).
fn string_array(ws: &Workspace, path: &str, name: &str) -> Option<Vec<String>> {
    let file = ws.file(path)?;
    let code: Vec<_> = file.code_tokens().collect();
    let start = code.iter().position(|t| t.is_ident(name))?;
    // Skip the type annotation (`: [&str; 17]`): the literal starts at
    // the first `[` after the `=`.
    let eq = code[start..].iter().position(|t| t.is_punct('='))? + start;
    let open = code[eq..].iter().position(|t| t.is_punct('['))? + eq;
    let mut items = Vec::new();
    for tok in &code[open + 1..] {
        if tok.is_punct(']') {
            return Some(items);
        }
        if tok.kind == TokenKind::Str {
            items.push(tok.text.clone());
        }
    }
    None
}

/// Extracts a `const NAME: &str = "…"` string-literal constant from
/// `path`. `None` when the file or constant is absent.
fn string_const(ws: &Workspace, path: &str, name: &str) -> Option<String> {
    let file = ws.file(path)?;
    let code: Vec<_> = file.code_tokens().collect();
    let start = code.iter().position(|t| t.is_ident(name))?;
    let eq = code[start..].iter().position(|t| t.is_punct('='))? + start;
    code[eq..]
        .iter()
        .find(|t| t.kind == TokenKind::Str)
        .map(|t| t.text.clone())
}

/// Parses a flat JSON object whose values are strings or finite
/// numbers — the run-manifest and baseline shape. Returns `(key, string
/// value if quoted, line, col)` per entry, positioned at the *value*.
#[allow(clippy::type_complexity)]
fn parse_flat_object(
    text: &str,
) -> Result<Vec<(String, Option<String>, u32, u32)>, (u32, u32, String)> {
    let mut p = JsonScanner::new(text);
    p.skip_ws();
    p.expect('{')?;
    let mut entries = Vec::new();
    p.skip_ws();
    if p.peek() == Some('}') {
        p.next();
        return Ok(entries);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        let (line, col) = (p.line, p.col);
        let value = if p.peek() == Some('"') {
            Some(p.string()?)
        } else {
            p.number()?;
            None
        };
        entries.push((key, value, line, col));
        p.skip_ws();
        match p.next() {
            Some(',') => continue,
            Some('}') => break,
            other => {
                return Err((
                    p.line,
                    p.col,
                    format!("expected `,` or `}}`, found {other:?}"),
                ))
            }
        }
    }
    Ok(entries)
}

struct JsonScanner<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    col: u32,
}

impl<'a> JsonScanner<'a> {
    fn new(text: &'a str) -> Self {
        JsonScanner {
            chars: text.chars().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), (u32, u32, String)> {
        let (line, col) = (self.line, self.col);
        match self.next() {
            Some(c) if c == want => Ok(()),
            other => Err((line, col, format!("expected `{want}`, found {other:?}"))),
        }
    }

    fn string(&mut self) -> Result<String, (u32, u32, String)> {
        self.expect('"')?;
        let mut s = String::new();
        loop {
            let (line, col) = (self.line, self.col);
            match self.next() {
                Some('"') => return Ok(s),
                Some('\\') => {
                    s.push(self.next().ok_or((line, col, "unterminated escape".to_string()))?);
                }
                Some(c) => s.push(c),
                None => return Err((line, col, "unterminated string".into())),
            }
        }
    }

    /// Accepts any finite JSON number (sign, decimals, exponent).
    fn number(&mut self) -> Result<(), (u32, u32, String)> {
        let (line, col) = (self.line, self.col);
        let mut digits = String::new();
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || "+-.eE".contains(c))
        {
            digits.push(self.next().unwrap_or('0'));
        }
        if digits.parse::<f64>().is_ok_and(f64::is_finite) {
            Ok(())
        } else {
            Err((line, col, "expected a finite JSON number".into()))
        }
    }
}
