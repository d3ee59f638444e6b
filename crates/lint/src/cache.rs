//! Incremental cache: `target/lint-cache.json`.
//!
//! Per-file rule results are pure in the file's content, and the
//! workspace pass is pure in the contents of every input — so both are
//! keyed by FNV-1a content hashes and reused verbatim when the hash
//! matches. Only the allow audit re-runs every time (it is the one pass
//! whose output couples findings to suppressions across files, and it
//! is cheap). A warm run on an unchanged tree re-lexes but re-analyzes
//! nothing; findings replayed from the cache render byte-identically to
//! a cold run.
//!
//! The cache is strictly best-effort: an unreadable, unparseable or
//! version-skewed file is treated as absent, and write failures are
//! swallowed (CI may run on a read-only checkout).

use crate::diag::{escape, Finding};
use crate::json::{self, Value};
use crate::source::Workspace;
use crate::LintReport;
use std::path::Path;

/// Cache location, relative to the workspace root. Lives under
/// `target/` so `cargo clean` clears it.
pub const CACHE_REL_PATH: &str = "target/lint-cache.json";

/// Bump when the cache schema or any rule semantics change in a way
/// the content hash cannot see.
const VERSION: u64 = 1;

/// FNV-1a, 64-bit: tiny, dependency-free, and plenty for a same-machine
/// content-equality check (this is not an integrity boundary).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What the warm path reused, for `--verbose`-style reporting and the
/// cache tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheStats {
    /// Files whose per-file findings were replayed from the cache.
    pub file_hits: usize,
    /// Files that were re-analyzed.
    pub file_misses: usize,
    /// Whether the workspace pass was replayed.
    pub workspace_hit: bool,
}

struct CachedRun {
    workspace_hash: u64,
    workspace_findings: Vec<Finding>,
    /// `(rel_path, content hash, findings)` per file.
    files: Vec<(String, u64, Vec<Finding>)>,
}

/// Lints `root` through the cache: replays per-file and workspace
/// findings whose content hashes match, re-runs the rest, re-audits
/// allows unconditionally, and rewrites the cache.
pub fn lint_workspace_cached(root: &Path) -> std::io::Result<(LintReport, CacheStats)> {
    let ws = Workspace::load(root)?;
    let cache_path = root.join(CACHE_REL_PATH);
    let old = std::fs::read_to_string(&cache_path)
        .ok()
        .and_then(|text| parse_cache(&text));

    let hashes: Vec<u64> = ws.files.iter().map(|f| fnv1a64(f.text.as_bytes())).collect();
    let ws_hash = workspace_hash(&ws, &hashes);

    let mut stats = CacheStats::default();
    let mut per_file: Vec<(String, u64, Vec<Finding>)> = Vec::with_capacity(ws.files.len());
    for (file, &hash) in ws.files.iter().zip(&hashes) {
        let cached = old.as_ref().and_then(|c| {
            c.files
                .iter()
                .find(|(path, h, _)| *h == hash && path == &file.rel_path)
        });
        let findings = match cached {
            Some((_, _, findings)) => {
                stats.file_hits += 1;
                findings.clone()
            }
            None => {
                stats.file_misses += 1;
                crate::run_file_rules(file)
            }
        };
        per_file.push((file.rel_path.clone(), hash, findings));
    }
    let workspace_findings = match old.as_ref().filter(|c| c.workspace_hash == ws_hash) {
        Some(c) => {
            stats.workspace_hit = true;
            c.workspace_findings.clone()
        }
        None => crate::run_workspace_rules(&ws),
    };

    let _ = write_cache(&cache_path, ws_hash, &workspace_findings, &per_file);

    let mut findings: Vec<Finding> =
        per_file.into_iter().flat_map(|(_, _, f)| f).collect();
    findings.extend(workspace_findings);
    let findings = crate::audit_allows(&ws, findings, None);
    Ok((
        LintReport {
            findings,
            files_scanned: ws.files.len(),
        },
        stats,
    ))
}

/// Hash of every workspace input: the sorted `(path, content hash)`
/// sequence of the Rust sources, then of every non-Rust file a
/// workspace rule reads ([`Rule::workspace_inputs`](crate::rules::Rule::workspace_inputs)).
/// Any input added, removed, renamed or edited changes it.
fn workspace_hash(ws: &Workspace, hashes: &[u64]) -> u64 {
    let mut acc = Vec::new();
    let mut fold = |path: &str, hash: Option<u64>| {
        acc.extend_from_slice(path.as_bytes());
        acc.push(0);
        // An absent input hashes apart from any content.
        acc.push(u8::from(hash.is_some()));
        acc.extend_from_slice(&hash.unwrap_or(0).to_le_bytes());
    };
    for (file, &h) in ws.files.iter().zip(hashes) {
        fold(&file.rel_path, Some(h));
    }
    for rule in crate::rules::registry() {
        for &input in rule.workspace_inputs() {
            let path = ws.root.join(input);
            match std::fs::read_dir(&path) {
                Ok(entries) => {
                    let mut files: Vec<_> = entries
                        .filter_map(|e| e.ok().map(|e| e.path()))
                        .filter(|p| p.is_file())
                        .collect();
                    files.sort();
                    for file in files {
                        let name = file.file_name().unwrap_or_default().to_string_lossy();
                        let hash = std::fs::read(&file).ok().map(|b| fnv1a64(&b));
                        fold(&format!("{input}/{name}"), hash);
                    }
                }
                Err(_) => fold(input, std::fs::read(&path).ok().map(|b| fnv1a64(&b))),
            }
        }
    }
    fnv1a64(&acc)
}

fn write_cache(
    path: &Path,
    ws_hash: u64,
    ws_findings: &[Finding],
    per_file: &[(String, u64, Vec<Finding>)],
) -> std::io::Result<()> {
    let out = render_cache(ws_hash, ws_findings, per_file);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn render_cache(
    ws_hash: u64,
    ws_findings: &[Finding],
    per_file: &[(String, u64, Vec<Finding>)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"version\": {VERSION},\n"));
    out.push_str(&format!("  \"workspace_hash\": \"{ws_hash:016x}\",\n"));
    out.push_str("  \"workspace_findings\": [");
    write_findings(&mut out, ws_findings, "    ");
    out.push_str("],\n  \"files\": [");
    for (i, (rel_path, hash, findings)) in per_file.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"path\": \"{}\", \"hash\": \"{hash:016x}\", \"findings\": [",
            escape(rel_path)
        ));
        write_findings(&mut out, findings, "      ");
        out.push_str("]}");
    }
    out.push_str(if per_file.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

fn write_findings(out: &mut String, findings: &[Finding], indent: &str) {
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "{indent}{{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \
             \"message\": \"{}\", \"rationale\": \"{}\"}}",
            escape(f.rule),
            escape(&f.file),
            f.line,
            f.col,
            escape(&f.message),
            escape(f.rationale)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
        out.push_str(&indent[..indent.len() - 2]);
    }
}

/// Reads a cache file's text; `None` for anything but a well-formed
/// cache of the current version.
fn parse_cache(text: &str) -> Option<CachedRun> {
    json::parse(text).ok().and_then(|doc| load(&doc))
}

fn load(doc: &Value) -> Option<CachedRun> {
    if doc.get("version")?.as_num()? as u64 != VERSION {
        return None;
    }
    let workspace_hash = u64::from_str_radix(doc.get("workspace_hash")?.as_str()?, 16).ok()?;
    let workspace_findings = load_findings(doc.get("workspace_findings")?)?;
    let mut files = Vec::new();
    for entry in doc.get("files")?.as_arr()? {
        files.push((
            entry.get("path")?.as_str()?.to_string(),
            u64::from_str_radix(entry.get("hash")?.as_str()?, 16).ok()?,
            load_findings(entry.get("findings")?)?,
        ));
    }
    Some(CachedRun {
        workspace_hash,
        workspace_findings,
        files,
    })
}

fn load_findings(value: &Value) -> Option<Vec<Finding>> {
    let mut findings = Vec::new();
    for entry in value.as_arr()? {
        findings.push(Finding {
            // Rule ids and rationales are `&'static str` in a live run;
            // replayed ones leak their (small, deduplicated-per-run)
            // strings for the life of the process.
            rule: intern(entry.get("rule")?.as_str()?),
            file: entry.get("file")?.as_str()?.to_string(),
            line: entry.get("line")?.as_num()? as u32,
            col: entry.get("col")?.as_num()? as u32,
            message: entry.get("message")?.as_str()?.to_string(),
            rationale: intern(entry.get("rationale")?.as_str()?),
        });
    }
    Some(findings)
}

/// Leaks `s` as `&'static str`, deduplicating within the process so a
/// thousand replayed findings of one rule cost one allocation.
fn intern(s: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(Vec::new()));
    let mut pool = pool.lock().expect("intern pool poisoned");
    if let Some(hit) = pool.iter().find(|&&p| p == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.push(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_sim::SimRng;

    #[test]
    fn fnv_is_stable_and_content_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
    }

    #[test]
    fn cache_round_trips_findings_bytewise() {
        let findings = vec![Finding {
            rule: "hot-path-purity",
            file: "crates/core/src/system.rs".into(),
            line: 7,
            col: 3,
            message: "hot path `control → probe`: `vec` allocates (alloc)".into(),
            rationale: "say \"why\"\nor refactor",
        }];
        let dir = std::env::temp_dir().join(format!(
            "manytest-lint-cache-{}-{:x}",
            std::process::id(),
            fnv1a64(b"round-trip")
        ));
        let path = dir.join("lint-cache.json");
        write_cache(&path, 0xabcd, &findings, &[("a.rs".into(), 1, findings.clone())])
            .expect("write cache");
        let text = std::fs::read_to_string(&path).expect("read back");
        let run = load(&json::parse(&text).expect("parse")).expect("load");
        assert_eq!(run.workspace_hash, 0xabcd);
        assert_eq!(run.workspace_findings, findings);
        assert_eq!(run.files.len(), 1);
        assert_eq!(run.files[0].2, findings);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A cache file written by a real run over the lint's own violating
    /// fixtures (findings of every file rule, escapes and non-ASCII
    /// messages included).
    fn real_cache_text() -> String {
        let root = std::env::temp_dir().join(format!(
            "manytest-lint-cache-fuzz-{}",
            std::process::id()
        ));
        let src = root.join("crates/core/src");
        std::fs::create_dir_all(&src).expect("tmpdir");
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        let mut names: Vec<_> = std::fs::read_dir(&fixtures)
            .expect("fixture dir")
            .filter_map(|e| e.ok().map(|e| e.file_name()))
            .filter(|n| n.to_string_lossy().ends_with("_violating.rs"))
            .collect();
        names.sort();
        for name in names {
            std::fs::copy(fixtures.join(&name), src.join(&name)).expect("copy fixture");
        }
        lint_workspace_cached(&root).expect("lint the fixture workspace");
        let text = std::fs::read_to_string(root.join(CACHE_REL_PATH)).expect("cache written");
        std::fs::remove_dir_all(&root).ok();
        text
    }

    fn truncate(rng: &mut SimRng, text: &str) -> String {
        let mut at = rng.gen_range(text.len() as u64) as usize;
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        text[..at].to_owned()
    }

    /// XORs a few ASCII bytes with values below 128, so the text stays
    /// valid UTF-8 while tokens change, split or merge.
    fn flip(rng: &mut SimRng, text: &str) -> String {
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..rng.gen_range_inclusive(1, 4) {
            let at = rng.gen_range(bytes.len() as u64) as usize;
            if bytes[at].is_ascii() {
                bytes[at] ^= rng.gen_range_inclusive(1, 127) as u8;
            }
        }
        String::from_utf8(bytes).expect("ASCII flips keep the text UTF-8")
    }

    /// Replaces a short run of lines (one finding or file entry each)
    /// with a run copied from elsewhere in the file.
    fn splice(rng: &mut SimRng, text: &str) -> String {
        let mut lines: Vec<&str> = text.split('\n').collect();
        let from = lines.clone();
        let at = rng.gen_range(lines.len() as u64) as usize;
        let cut = (rng.gen_range(4) as usize).min(lines.len() - at);
        let src = rng.gen_range(from.len() as u64) as usize;
        let take = (rng.gen_range(4) as usize).min(from.len() - src);
        lines.splice(at..at + cut, from[src..src + take].iter().copied());
        lines.join("\n")
    }

    fn render(run: &CachedRun) -> String {
        render_cache(run.workspace_hash, &run.workspace_findings, &run.files)
    }

    /// Loads a mutant; one that loads must re-render to a fixed point.
    fn check(mutant: &str) -> bool {
        let Some(run) = parse_cache(mutant) else {
            return false;
        };
        let once = render(&run);
        let again = parse_cache(&once).expect("a re-rendered cache loads");
        assert_eq!(render(&again), once, "re-rendering is not a fixed point:\n{mutant}");
        true
    }

    #[test]
    fn loader_survives_truncation_flips_and_splices() {
        let text = real_cache_text();
        assert!(text.contains("\"findings\": [\n"), "the seed cache carries findings");
        assert!(check(&text), "the seed cache must load");
        let mut rng = SimRng::seed_from(0x11a7_cace);
        let mutants = 300;
        let mut loaded = 0;
        for _ in 0..mutants {
            loaded += usize::from(check(&truncate(&mut rng, &text)));
            loaded += usize::from(check(&flip(&mut rng, &text)));
            loaded += usize::from(check(&splice(&mut rng, &text)));
        }
        // Both paths are exercised: some mutants load, most do not.
        assert!(loaded > 0, "no mutant loaded; the fixed-point property went unchecked");
        assert!(loaded < 3 * mutants, "mutations must not all load");
    }

    #[test]
    fn version_skew_discards_the_cache() {
        let doc = json::parse(
            "{\"version\": 999, \"workspace_hash\": \"0\", \
             \"workspace_findings\": [], \"files\": []}",
        )
        .unwrap();
        assert!(load(&doc).is_none());
    }
}
