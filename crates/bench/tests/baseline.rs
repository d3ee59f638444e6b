//! The numeric baseline gate under `cargo test`, plus the totality of
//! the flat-JSON codec it (and the run ledger) reads.
//!
//! The gate re-runs every watched config and asserts that
//! `regress::check` finds no drift against the committed
//! `tests/baselines/regress.quick.json`. It never writes: after a
//! reviewed behavioural change, regenerate the baseline with
//!
//! ```sh
//! MANYTEST_UPDATE_GOLDEN=1 cargo run -p manytest-bench --bin repro -- regress
//! git diff crates/bench/tests/baselines/   # review, then commit
//! ```
//!
//! The fuzz half mutates the committed baseline and a committed run
//! manifest with `SimRng`-driven truncations, ASCII byte flips and line
//! splices: `parse_flat_json` and `manifest_from_map` must never panic,
//! and any mutant that parses must re-render and re-parse to the same
//! map.

use manytest_bench::events::probe_builder;
use manytest_bench::ledger::{self, manifest_from_map, parse_flat_json};
use manytest_bench::regress::{self, render_baseline};
use manytest_bench::Scale;
use manytest_sim::SimRng;
use std::path::PathBuf;

#[test]
fn committed_baseline_matches_a_fresh_run() {
    let verdict = regress::check(0);
    assert!(
        verdict.is_clean(),
        "{} value(s) drifted from {}; if the change is intentional, regenerate with \
         MANYTEST_UPDATE_GOLDEN=1 repro regress and commit the diff:\n{}",
        verdict.failures,
        regress::baseline_path().display(),
        verdict.table
    );
}

/// A ledger blob written by an older build must not stand in for a
/// fresh run: the engine runs its configs directly, so a poisoned e3
/// blob under the active ledger changes nothing.
#[test]
fn gate_ignores_a_poisoned_ledger_blob() {
    let dir = std::env::temp_dir().join(format!("manytest-poisoned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let builder = probe_builder("e3", Scale::Quick).expect("e3 is a known probe");
    let blob = dir
        .join("blobs")
        .join(format!("{}.wire", ledger::hash_hex(ledger::config_hash(&builder))));
    let mut stale = builder.build().expect("probe config is valid").run();
    stale.throughput_mips *= 2.0;
    std::fs::create_dir_all(blob.parent().expect("blob dir")).expect("create blob dir");
    std::fs::write(&blob, stale.encode_wire()).expect("write poisoned blob");
    ledger::set_dir(Some(dir.clone()));
    let verdict = regress::check(0);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(verdict.is_clean(), "served from the ledger:\n{}", verdict.table);
}

/// Mutants per seed file and mutation family (parsing is cheap).
const MUTANTS: usize = 200;

fn truncate(rng: &mut SimRng, text: &str) -> String {
    text[..rng.gen_range(text.len() as u64) as usize].to_owned()
}

/// XORs a few bytes with values below 128, so the ASCII text stays
/// ASCII (and valid UTF-8) while tokens change, split or merge.
fn flip(rng: &mut SimRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range_inclusive(1, 4) {
        let at = rng.gen_range(bytes.len() as u64) as usize;
        bytes[at] ^= rng.gen_range_inclusive(1, 127) as u8;
    }
    String::from_utf8(bytes).expect("ASCII flips keep the text UTF-8")
}

/// Replaces a short run of lines (one `"key": value` each) with a run
/// copied from a donor file.
fn splice(rng: &mut SimRng, text: &str, donor: &str) -> String {
    let mut lines: Vec<&str> = text.split('\n').collect();
    let from: Vec<&str> = donor.split('\n').collect();
    let at = rng.gen_range(lines.len() as u64) as usize;
    let cut = (rng.gen_range(4) as usize).min(lines.len() - at);
    let src = rng.gen_range(from.len() as u64) as usize;
    let take = (rng.gen_range(4) as usize).min(from.len() - src);
    lines.splice(at..at + cut, from[src..src + take].iter().copied());
    lines.join("\n")
}

/// Parses a mutant; one that parses must survive manifest validation
/// and re-render to a text that parses to the same map.
fn check(mutant: &str) -> bool {
    let Some(map) = parse_flat_json(mutant) else {
        return false;
    };
    let _ = manifest_from_map("mutant.json", map.clone());
    assert_eq!(
        parse_flat_json(&render_baseline(&map)).as_ref(),
        Some(&map),
        "re-rendering changed the map of:\n{mutant}"
    );
    true
}

#[test]
fn flat_json_reader_survives_truncation_flips_and_splices() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/manifests/run-000001-8735f11164b18c04.json");
    let seeds = [
        std::fs::read_to_string(regress::baseline_path()).expect("committed baseline"),
        std::fs::read_to_string(manifest).expect("committed manifest fixture"),
    ];
    for seed in &seeds {
        assert!(check(seed), "seed file must parse:\n{seed}");
    }
    let mut rng = SimRng::seed_from(0xba5e_1105);
    let mut parsed = 0;
    for (i, text) in seeds.iter().enumerate() {
        let donor = &seeds[1 - i];
        for _ in 0..MUTANTS {
            parsed += usize::from(check(&truncate(&mut rng, text)));
            parsed += usize::from(check(&flip(&mut rng, text)));
            parsed += usize::from(check(&splice(&mut rng, text, donor)));
            parsed += usize::from(check(&splice(&mut rng, text, text)));
        }
    }
    // Both paths are exercised: some mutants parse, most do not.
    assert!(parsed > 0, "no mutant parsed; the round-trip property went unchecked");
    assert!(parsed < 4 * 2 * MUTANTS, "mutations must not all parse");
}
