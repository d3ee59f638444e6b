//! The run ledger: a persistent on-disk index of completed simulations.
//!
//! When enabled (via `--ledger[=DIR]` or `MANYTEST_LEDGER_DIR`), every
//! simulation the harness runs flows through [`run_system`], which
//! fingerprints the full `SystemBuilder` configuration (FNV-1a 64 over
//! the `Debug` rendering of config + workload mix) and keeps two stores
//! under the ledger directory:
//!
//! * `blobs/<hash>.wire` — a content-addressed [`Report`] cache in the
//!   `manytest-wire` text format. A cache hit decodes to a report equal
//!   to a cold run down to f64 bit patterns, so every table, JSONL dump
//!   and Prometheus file rendered from it is byte-identical.
//! * `manifests/run-<seq>-<hash>.json` — one flat JSON manifest per
//!   completed (or failed, or cache-served) run: outcome, wall/busy
//!   seconds, key report aggregates and the blob path. `repro runs
//!   list|show|gc` browse these; the `golden-schema` lint validates
//!   their key set, hash format and probe ids.
//!
//! The ledger is strictly best-effort: any I/O or decode problem falls
//! back to a fresh run (and `gc` cleans the debris) — a corrupt cache
//! must never fail a sweep. With no directory configured every call is
//! a plain build-and-run, byte-identical to the pre-ledger harness.

use crate::events::PROBE_IDS;
use crate::progress;
use manytest_core::prelude::*;
use manytest_sim::write_json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Schema tag every manifest carries (checked by the lint rule).
pub const MANIFEST_SCHEMA: &str = "manytest-run-manifest-v1";

/// Keys every manifest must contain, in emission order. `probe`,
/// `blob` and `panic` are optional and appear after the required set.
pub const MANIFEST_REQUIRED_KEYS: [&str; 16] = [
    "schema",
    "seq",
    "config_hash",
    "label",
    "seed",
    "jobs",
    "outcome",
    "wall_seconds",
    "busy_seconds",
    "sim_seconds",
    "apps_completed",
    "throughput_mips",
    "mean_power_watts",
    "tests_completed",
    "faults_detected",
    "events_dropped",
];

// Process-wide configuration: an explicit CLI override wins over the
// environment; tests drive different directories through subprocess env
// so no `std::env::set_var` is ever needed.
static DIR_OVERRIDE: Mutex<Option<Option<PathBuf>>> = Mutex::new(None);
static JOBS_HINT: AtomicU64 = AtomicU64::new(0);

/// Overrides the ledger directory for this process: `Some(dir)` enables
/// the ledger there, `None` disables it even if `MANYTEST_LEDGER_DIR`
/// is set. The `repro` CLI calls this for `--ledger[=DIR]`.
pub fn set_dir(dir: Option<PathBuf>) {
    *DIR_OVERRIDE.lock().expect("ledger dir lock") = Some(dir);
}

/// Records the worker count for manifests (`repro` calls this once).
pub fn set_jobs(jobs: u64) {
    JOBS_HINT.store(jobs, Ordering::Relaxed);
}

/// The active ledger directory: the [`set_dir`] override if one was
/// made, else `MANYTEST_LEDGER_DIR`, else disabled.
pub fn dir() -> Option<PathBuf> {
    if let Some(over) = DIR_OVERRIDE.lock().expect("ledger dir lock").clone() {
        return over;
    }
    std::env::var_os("MANYTEST_LEDGER_DIR").map(PathBuf::from)
}

/// FNV-1a 64 fingerprint of a builder's full deterministic identity
/// (configuration + workload mix, via their `Debug` renderings — both
/// list every field, so any config change moves the hash).
pub fn config_hash(builder: &SystemBuilder) -> u64 {
    let text = format!("{:?}|{:?}", builder.config(), builder.mix());
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Renders a config hash the way manifests and blob names spell it.
pub fn hash_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Runs `builder` through the ledger funnel: consult the cache, else
/// build and run, then record the outcome. This is the single entry
/// point every experiment, probe and ablation run goes through — except
/// the `repro regress` gate, which must see fresh runs because the cache
/// key is the config, not the code that runs it.
///
/// `fallback_label` names the run in manifests when the call is not
/// inside a batch job (batch jobs use their push label). With no ledger
/// directory configured this is exactly `builder.build().run()` plus
/// progress-counter plumbing.
pub fn run_system(fallback_label: &str, builder: SystemBuilder) -> Report {
    let hash = config_hash(&builder);
    let label = progress::with_current(|slot| {
        slot.set_config_hash(hash);
        slot.label().to_owned()
    })
    .unwrap_or_else(|| fallback_label.to_owned());
    let seed = builder.config().seed;
    let Some(dir) = dir() else {
        return run_fresh(builder);
    };
    let t0 = Instant::now();
    let blob_rel = format!("blobs/{}.wire", hash_hex(hash));
    let blob_path = dir.join(&blob_rel);
    if let Ok(text) = fs::read_to_string(&blob_path) {
        if let Ok(report) = Report::decode_wire(&text) {
            // Cache hit: the decoded report is bit-equal to the cold
            // run's, so downstream rendering is byte-identical.
            progress::with_current(|slot| {
                slot.mark_cached();
                let c = slot.counters();
                c.begin(report.profile.epochs);
                c.tick(report.profile.epochs, report.events.total(), report.events.dropped());
                c.finish(report.events.dropped());
            });
            write_manifest(
                &dir,
                &ManifestDraft {
                    hash,
                    label: &label,
                    seed,
                    outcome: "cached",
                    wall_seconds: t0.elapsed().as_secs_f64(),
                    busy_seconds: 0.0,
                    report: Some(&report),
                    blob: Some(&blob_rel),
                    panic: None,
                },
            );
            return report;
        }
        // Corrupt blob: fall through to a fresh run that rewrites it.
    }
    let run0 = Instant::now();
    let report = run_fresh(builder);
    let busy_seconds = run0.elapsed().as_secs_f64();
    if write_blob(&blob_path, &report.encode_wire()).is_ok() {
        write_manifest(
            &dir,
            &ManifestDraft {
                hash,
                label: &label,
                seed,
                outcome: "ok",
                wall_seconds: t0.elapsed().as_secs_f64(),
                busy_seconds,
                report: Some(&report),
                blob: Some(&blob_rel),
                panic: None,
            },
        );
    }
    report
}

/// Builds and runs, attaching the surrounding batch job's progress
/// counters (if any) so `--progress` heartbeats see live epoch counts.
fn run_fresh(builder: SystemBuilder) -> Report {
    let mut system = builder.build().expect("ledger funnel requires a valid config");
    if let Some(counters) = progress::with_current(|slot| slot.counters()) {
        system.set_progress(counters);
    }
    system.run()
}

/// Records a panicked batch job in the ledger (called by the runner on
/// the job's own thread, so the config hash the funnel deposited is
/// still reachable). No-op without a ledger directory.
pub fn note_failed_job(label: &str, payload: &str) {
    let Some(dir) = dir() else {
        return;
    };
    let hash = progress::with_current(|slot| slot.config_hash())
        .flatten()
        .unwrap_or(0);
    write_manifest(
        &dir,
        &ManifestDraft {
            hash,
            label,
            seed: 0,
            outcome: "failed",
            wall_seconds: 0.0,
            busy_seconds: 0.0,
            report: None,
            blob: None,
            panic: Some(payload.lines().next().unwrap_or("<empty panic payload>")),
        },
    );
}

/// Writes `text` to `path` atomically (temp file + rename), creating
/// parent directories as needed.
fn write_blob(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Manifests.
// ---------------------------------------------------------------------------

struct ManifestDraft<'a> {
    hash: u64,
    label: &'a str,
    seed: u64,
    outcome: &'a str,
    wall_seconds: f64,
    busy_seconds: f64,
    report: Option<&'a Report>,
    blob: Option<&'a str>,
    panic: Option<&'a str>,
}

/// The probe id a label refers to, when one of its first two
/// `/`-segments is a known probe id (`probe/e3` → `e3`, `e1/...` → `e1`).
pub fn probe_of_label(label: &str) -> Option<&'static str> {
    label
        .split('/')
        .take(2)
        .find_map(|seg| PROBE_IDS.iter().copied().find(|id| *id == seg))
}

/// Serialises one manifest as flat JSON (one key per line; the lint's
/// manifest rule and [`parse_flat_json`] both consume this shape).
fn render_manifest(seq: u64, draft: &ManifestDraft<'_>) -> String {
    let mut out = String::from("{\n");
    let s = |out: &mut String, key: &str, val: &str| {
        let _ = write!(out, "  \"{key}\": ");
        write_json_str(out, val);
        out.push_str(",\n");
    };
    s(&mut out, "schema", MANIFEST_SCHEMA);
    let _ = writeln!(out, "  \"seq\": {seq},");
    s(&mut out, "config_hash", &hash_hex(draft.hash));
    s(&mut out, "label", draft.label);
    if let Some(probe) = probe_of_label(draft.label) {
        s(&mut out, "probe", probe);
    }
    let _ = writeln!(out, "  \"seed\": {},", draft.seed);
    let _ = writeln!(out, "  \"jobs\": {},", JOBS_HINT.load(Ordering::Relaxed));
    s(&mut out, "outcome", draft.outcome);
    let _ = writeln!(out, "  \"wall_seconds\": {},", draft.wall_seconds);
    let _ = writeln!(out, "  \"busy_seconds\": {},", draft.busy_seconds);
    let (sim, apps, mips, power, tests, faults, dropped) = match draft.report {
        Some(r) => (
            r.sim_seconds,
            r.apps_completed,
            r.throughput_mips,
            r.mean_power,
            r.tests_completed,
            r.faults_detected,
            r.events.dropped(),
        ),
        None => (0.0, 0, 0.0, 0.0, 0, 0, 0),
    };
    let _ = writeln!(out, "  \"sim_seconds\": {sim},");
    let _ = writeln!(out, "  \"apps_completed\": {apps},");
    let _ = writeln!(out, "  \"throughput_mips\": {mips},");
    let _ = writeln!(out, "  \"mean_power_watts\": {power},");
    let _ = writeln!(out, "  \"tests_completed\": {tests},");
    let _ = writeln!(out, "  \"faults_detected\": {faults},");
    let _ = writeln!(out, "  \"events_dropped\": {dropped},");
    if let Some(blob) = draft.blob {
        s(&mut out, "blob", blob);
    }
    if let Some(panic) = draft.panic {
        s(&mut out, "panic", panic);
    }
    // Strip the trailing comma to keep the JSON strict.
    let trimmed = out.trim_end_matches(|c| c == ',' || c == '\n').len();
    out.truncate(trimmed);
    out.push_str("\n}\n");
    out
}

/// Serialises writes so in-process concurrent jobs get distinct seqs.
static MANIFEST_LOCK: Mutex<()> = Mutex::new(());

fn write_manifest(dir: &Path, draft: &ManifestDraft<'_>) {
    let _guard = MANIFEST_LOCK.lock().expect("manifest write lock");
    let manifests = dir.join("manifests");
    if fs::create_dir_all(&manifests).is_err() {
        return; // best-effort: the ledger never fails a run
    }
    let seq = next_seq(&manifests);
    let name = format!("run-{seq:06}-{}.json", hash_hex(draft.hash));
    let _ = write_blob(&manifests.join(name), &render_manifest(seq, draft));
}

/// One past the largest seq currently on disk (1 for an empty ledger).
fn next_seq(manifests: &Path) -> u64 {
    let mut max = 0;
    if let Ok(entries) = fs::read_dir(manifests) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name.strip_prefix("run-") {
                if let Some(seq) = rest.split('-').next().and_then(|s| s.parse::<u64>().ok()) {
                    max = max.max(seq);
                }
            }
        }
    }
    max + 1
}

// ---------------------------------------------------------------------------
// Flat-JSON parsing (the workspace serde is a no-op shim, so manifests
// are read back with a purpose-built scanner).
// ---------------------------------------------------------------------------

/// A parsed flat-JSON value: manifests hold only numbers and strings.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatValue {
    /// A JSON number (all manifest numbers fit f64 exactly as written).
    Num(f64),
    /// A JSON string, unescaped.
    Str(String),
}

impl FlatValue {
    /// The numeric value, if this is a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            FlatValue::Num(v) => Some(*v),
            FlatValue::Str(_) => None,
        }
    }

    /// The string value, if this is a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            FlatValue::Num(_) => None,
            FlatValue::Str(s) => Some(s),
        }
    }
}

/// Parses one flat JSON object (`{"key": value, ...}` with only string
/// and finite number values — no nesting). Returns `None` on any
/// malformation, a number that overflows f64, or a key written twice
/// (a merge-conflicted file must not silently keep one of its values);
/// manifest consumers treat that as "corrupt, skip".
pub fn parse_flat_json(text: &str) -> Option<BTreeMap<String, FlatValue>> {
    let mut chars = text.char_indices().peekable();
    let mut map = BTreeMap::new();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while chars.next_if(|&(_, c)| c.is_whitespace()).is_some() {}
    };
    let parse_str = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| -> Option<String> {
        let (_, open) = chars.next()?;
        if open != '"' {
            return None;
        }
        let mut out = String::new();
        loop {
            let (_, c) = chars.next()?;
            match c {
                '"' => return Some(out),
                '\\' => {
                    let (_, esc) = chars.next()?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, h) = chars.next()?;
                                code = code * 16 + h.to_digit(16)?;
                            }
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                _ => out.push(c),
            }
        }
    };
    skip_ws(&mut chars);
    let (_, open) = chars.next()?;
    if open != '{' {
        return None;
    }
    skip_ws(&mut chars);
    if chars.peek().map(|&(_, c)| c) == Some('}') {
        chars.next();
        return Some(map);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_str(&mut chars)?;
        skip_ws(&mut chars);
        let (_, colon) = chars.next()?;
        if colon != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let value = match chars.peek().map(|&(_, c)| c)? {
            '"' => FlatValue::Str(parse_str(&mut chars)?),
            _ => {
                let mut num = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                        num.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let num: f64 = num.parse().ok()?;
                if !num.is_finite() {
                    return None;
                }
                FlatValue::Num(num)
            }
        };
        if map.insert(key, value).is_some() {
            return None; // duplicate key
        }
        skip_ws(&mut chars);
        match chars.next()?.1 {
            ',' => continue,
            '}' => break,
            _ => return None,
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return None; // trailing garbage
    }
    Some(map)
}

// ---------------------------------------------------------------------------
// Browsing: `repro runs list|show|gc`.
// ---------------------------------------------------------------------------

/// One parsed, validated manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Manifest file name (inside `manifests/`).
    pub file: String,
    /// Write sequence number.
    pub seq: u64,
    /// Config fingerprint, 16 hex digits.
    pub config_hash: String,
    /// Run label.
    pub label: String,
    /// Probe id, when the label names one.
    pub probe: Option<String>,
    /// Run outcome: `ok`, `cached` or `failed`.
    pub outcome: String,
    /// Wall seconds of the funnel call.
    pub wall_seconds: f64,
    /// Key aggregate: workload throughput.
    pub throughput_mips: f64,
    /// Key aggregate: SBST sessions completed.
    pub tests_completed: u64,
    /// Blob path relative to the ledger dir, when a report was stored.
    pub blob: Option<String>,
    /// First panic line, for failed runs.
    pub panic: Option<String>,
    /// Every raw key/value pair, for `runs show`.
    pub raw: BTreeMap<String, FlatValue>,
}

/// Validates a parsed manifest map into a [`Manifest`]; `None` when a
/// required key is missing, mistyped, or the schema/hash is wrong.
pub fn manifest_from_map(file: &str, map: BTreeMap<String, FlatValue>) -> Option<Manifest> {
    if map.get("schema")?.str()? != MANIFEST_SCHEMA {
        return None;
    }
    let hash = map.get("config_hash")?.str()?.to_owned();
    if hash.len() != 16 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    Some(Manifest {
        file: file.to_owned(),
        seq: map.get("seq")?.num()? as u64,
        config_hash: hash,
        label: map.get("label")?.str()?.to_owned(),
        probe: map.get("probe").and_then(|v| v.str()).map(str::to_owned),
        outcome: map.get("outcome")?.str()?.to_owned(),
        wall_seconds: map.get("wall_seconds")?.num()?,
        throughput_mips: map.get("throughput_mips")?.num()?,
        tests_completed: map.get("tests_completed")?.num()? as u64,
        blob: map.get("blob").and_then(|v| v.str()).map(str::to_owned),
        panic: map.get("panic").and_then(|v| v.str()).map(str::to_owned),
        raw: map,
    })
}

/// Loads every parseable manifest under `dir`, sorted by seq, plus the
/// count of corrupt files skipped. Never fails: an unreadable ledger is
/// an empty one.
pub fn load_manifests(dir: &Path) -> (Vec<Manifest>, usize) {
    let mut out = Vec::new();
    let mut corrupt = 0;
    if let Ok(entries) = fs::read_dir(dir.join("manifests")) {
        let mut names: Vec<String> = entries
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_owned))
            .filter(|n| n.ends_with(".json"))
            .collect();
        names.sort();
        for name in names {
            let path = dir.join("manifests").join(&name);
            let parsed = fs::read_to_string(&path)
                .ok()
                .and_then(|text| parse_flat_json(&text))
                .and_then(|map| manifest_from_map(&name, map));
            match parsed {
                Some(m) => out.push(m),
                None => corrupt += 1,
            }
        }
    }
    out.sort_by_key(|m| m.seq);
    (out, corrupt)
}

/// Renders `repro runs list [--failed]`.
pub fn render_runs_list(dir: &Path, failed_only: bool) -> String {
    let (manifests, corrupt) = load_manifests(dir);
    let rows: Vec<&Manifest> = manifests
        .iter()
        .filter(|m| !failed_only || m.outcome == "failed")
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## runs — {} manifest(s){}{} in {}",
        rows.len(),
        if failed_only { " (failed only)" } else { "" },
        if corrupt > 0 {
            format!(", {corrupt} corrupt skipped")
        } else {
            String::new()
        },
        dir.display()
    );
    if rows.is_empty() {
        out.push_str("(none)\n");
        return out;
    }
    let _ = writeln!(
        out,
        "{:>6}  {:<7}  {:<6}  {:<16}  {:>8}  label",
        "seq", "outcome", "probe", "config_hash", "wall_s"
    );
    for m in rows {
        let _ = writeln!(
            out,
            "{:>6}  {:<7}  {:<6}  {:<16}  {:>8.3}  {}{}",
            m.seq,
            m.outcome,
            m.probe.as_deref().unwrap_or("-"),
            m.config_hash,
            m.wall_seconds,
            m.label,
            m.panic
                .as_deref()
                .map(|p| format!("  [{p}]"))
                .unwrap_or_default()
        );
    }
    out
}

/// Renders `repro runs show <ref>`; `ref` is a seq number, a config-hash
/// prefix, or a probe id / label (latest matching manifest wins).
pub fn render_runs_show(dir: &Path, reference: &str) -> Option<String> {
    let (manifests, _) = load_manifests(dir);
    let found = manifests.iter().rev().find(|m| {
        reference.parse::<u64>().map_or(false, |seq| m.seq == seq)
            || m.config_hash.starts_with(reference)
            || m.probe.as_deref() == Some(reference)
            || m.label == reference
    })?;
    let mut out = String::new();
    let _ = writeln!(out, "## run {} ({})", found.seq, found.file);
    for (key, value) in &found.raw {
        match value {
            FlatValue::Num(v) => {
                let _ = writeln!(out, "{key:<18} {v}");
            }
            FlatValue::Str(s) => {
                let _ = writeln!(out, "{key:<18} {s}");
            }
        }
    }
    if let Some(blob) = &found.blob {
        match fs::read_to_string(dir.join(blob)).map(|t| Report::decode_wire(&t)) {
            Ok(Ok(report)) => {
                let _ = writeln!(out, "\n# cached report\n{}", report.summary());
            }
            _ => {
                let _ = writeln!(out, "\n# cached report: blob missing or corrupt ({blob})");
            }
        }
    }
    Some(out)
}

/// `repro runs gc`: deletes corrupt manifests and unreferenced blobs.
/// Returns a human-readable summary.
pub fn gc(dir: &Path) -> String {
    let mut removed_manifests = 0;
    let mut removed_blobs = 0;
    let manifests_dir = dir.join("manifests");
    let mut referenced: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = fs::read_dir(&manifests_dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                // Stray temp files from interrupted writes.
                if fs::remove_file(&path).is_ok() {
                    removed_manifests += 1;
                }
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let parsed = fs::read_to_string(&path)
                .ok()
                .and_then(|text| parse_flat_json(&text))
                .and_then(|map| manifest_from_map(&name, map));
            match parsed {
                Some(m) => {
                    if let Some(blob) = m.blob {
                        referenced.push(dir.join(blob));
                    }
                }
                None => {
                    if fs::remove_file(&path).is_ok() {
                        removed_manifests += 1;
                    }
                }
            }
        }
    }
    if let Ok(entries) = fs::read_dir(dir.join("blobs")) {
        for entry in entries.flatten() {
            let path = entry.path();
            let keep = path.extension().and_then(|e| e.to_str()) == Some("wire")
                && referenced.iter().any(|r| r == &path);
            if !keep && fs::remove_file(&path).is_ok() {
                removed_blobs += 1;
            }
        }
    }
    format!(
        "ledger gc: removed {removed_manifests} corrupt/stray manifest(s) and {removed_blobs} unreferenced blob(s) from {}\n",
        dir.display()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_hash_is_stable_and_config_sensitive() {
        let a = SystemBuilder::new(TechNode::N16).seed(1);
        let b = SystemBuilder::new(TechNode::N16).seed(2);
        assert_eq!(config_hash(&a), config_hash(&a.clone()));
        assert_ne!(config_hash(&a), config_hash(&b));
        assert_eq!(hash_hex(0xab).len(), 16);
    }

    #[test]
    fn flat_json_round_trips_manifest_values() {
        let map = parse_flat_json(
            "{\n  \"schema\": \"manytest-run-manifest-v1\",\n  \"seq\": 3,\n  \"wall_seconds\": 0.25,\n  \"label\": \"probe\\/e3 \\\"x\\\"\"\n}\n",
        )
        .expect("parses");
        assert_eq!(map.get("seq").and_then(FlatValue::num), Some(3.0));
        assert_eq!(map.get("wall_seconds").and_then(FlatValue::num), Some(0.25));
        assert_eq!(
            map.get("label").and_then(|v| v.str()),
            Some("probe/e3 \"x\"")
        );
    }

    #[test]
    fn flat_json_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "{\"a\": }",
            "{\"a\": 1} trailing",
            "{\"a\": {\"nested\": 1}}",
            "not json at all",
            "{\"a\": 1, \"a\": 1}",
            "{\"a\": 1e999}",
        ] {
            assert!(parse_flat_json(bad).is_none(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn probe_extraction_from_labels() {
        assert_eq!(probe_of_label("probe/e3"), Some("e3"));
        assert_eq!(probe_of_label("e11/seed0"), Some("e11"));
        assert_eq!(probe_of_label("e1"), Some("e1"));
        assert_eq!(probe_of_label("kernels/g8"), None);
        assert_eq!(probe_of_label("square/3"), None);
    }

    #[test]
    fn rendered_manifest_parses_and_validates() {
        let report = Report::default();
        let draft = ManifestDraft {
            hash: 0x1234_5678_9abc_def0,
            label: "probe/e3",
            seed: 21,
            outcome: "ok",
            wall_seconds: 0.5,
            busy_seconds: 0.5,
            report: Some(&report),
            blob: Some("blobs/123456789abcdef0.wire"),
            panic: None,
        };
        let text = render_manifest(7, &draft);
        let map = parse_flat_json(&text).expect("manifest is valid flat JSON");
        for key in MANIFEST_REQUIRED_KEYS {
            assert!(map.contains_key(key), "missing {key} in:\n{text}");
        }
        let m = manifest_from_map("run-000007-123456789abcdef0.json", map)
            .expect("manifest validates");
        assert_eq!(m.seq, 7);
        assert_eq!(m.probe.as_deref(), Some("e3"));
        assert_eq!(m.config_hash, "123456789abcdef0");
        assert_eq!(m.outcome, "ok");
    }

    #[test]
    fn failed_manifest_carries_the_panic_line() {
        let draft = ManifestDraft {
            hash: 0,
            label: "sweep/broken",
            seed: 0,
            outcome: "failed",
            wall_seconds: 0.0,
            busy_seconds: 0.0,
            report: None,
            blob: None,
            panic: Some("index out of bounds: the len is 4"),
        };
        let text = render_manifest(1, &draft);
        let map = parse_flat_json(&text).expect("valid flat JSON");
        assert_eq!(map.get("outcome").and_then(|v| v.str()), Some("failed"));
        assert_eq!(
            map.get("panic").and_then(|v| v.str()),
            Some("index out of bounds: the len is 4")
        );
        assert_eq!(
            map.get("config_hash").and_then(|v| v.str()),
            Some("0000000000000000")
        );
    }
}
