//! Mutation fuzzing of the `manytest-wire` report decoder.
//!
//! Ledger blobs may be truncated or corrupted on disk, so decoding must
//! be total: arbitrary input yields a `WireError`, never a panic. The
//! seeds are the e11 and e12 report probes, whose reports carry every
//! record type (events with and without cause links, state snapshots,
//! trace series, the phase profile). `SimRng` drives three mutation
//! families — truncation, byte flips and token splices — and any mutant
//! that still decodes must re-encode to a fixed point.

use manytest_bench::report::report_builder;
use manytest_bench::Scale;
use manytest_core::Report;
use manytest_sim::obs::{AbortReason, CauseKind, HealthCode, SimEvent};
use manytest_sim::wire::{decode_from_str, encode_to_string, Wire, WireError};
use manytest_sim::SimRng;

/// Mutants per seed report and mutation family. Each decode walks a
/// multi-megabyte stream up to its mutation, so the count stays small
/// enough for debug-build test runs.
const MUTANTS: usize = 8;

fn seed_stream(id: &str) -> String {
    let report = report_builder(id, Scale::Quick)
        .expect("known probe")
        .build()
        .expect("probe config is valid")
        .run();
    assert!(!report.events.is_empty() && !report.state.is_empty(), "{id} seeds every record type");
    encode_to_string(&report)
}

/// Decodes a mutant; a mutant that decodes must re-encode to a stream
/// that decodes and re-encodes to itself.
fn check(mutant: &str) -> bool {
    let Ok(report) = decode_from_str::<Report>(mutant) else {
        return false;
    };
    let once = encode_to_string(&report);
    let again: Report = decode_from_str(&once).expect("a re-encoded report decodes");
    assert_eq!(encode_to_string(&again), once, "re-encoding is not a fixed point");
    true
}

fn truncate(rng: &mut SimRng, text: &str) -> String {
    text[..rng.gen_range(text.len() as u64) as usize].to_owned()
}

/// XORs a few bytes with values below 128, so the ASCII stream stays
/// ASCII (and valid UTF-8) while tokens change, split or merge.
fn flip(rng: &mut SimRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range_inclusive(1, 4) {
        let at = rng.gen_range(bytes.len() as u64) as usize;
        bytes[at] ^= rng.gen_range_inclusive(1, 127) as u8;
    }
    String::from_utf8(bytes).expect("ASCII flips keep the stream UTF-8")
}

/// Replaces a short run of tokens with a run copied from a donor stream.
fn splice(rng: &mut SimRng, text: &str, donor: &str) -> String {
    let mut toks: Vec<&str> = text.split('\n').collect();
    let from: Vec<&str> = donor.split('\n').collect();
    let at = rng.gen_range_inclusive(1, toks.len() as u64 - 1) as usize;
    let cut = (rng.gen_range(4) as usize).min(toks.len() - at);
    let src = rng.gen_range_inclusive(1, from.len() as u64 - 1) as usize;
    let take = (rng.gen_range(4) as usize).min(from.len() - src);
    toks.splice(at..at + cut, from[src..src + take].iter().copied());
    toks.join("\n")
}

#[test]
fn report_decoder_survives_truncation_flips_and_splices() {
    let seeds = [seed_stream("e11"), seed_stream("e12")];
    for (text, id) in seeds.iter().zip(["e11", "e12"]) {
        assert!(check(text), "{id} seed stream must decode");
    }
    let mut rng = SimRng::seed_from(0x5eed_f022);
    let mut decoded = 0;
    for (i, text) in seeds.iter().enumerate() {
        let donor = &seeds[1 - i];
        for _ in 0..MUTANTS {
            decoded += usize::from(check(&truncate(&mut rng, text)));
            decoded += usize::from(check(&flip(&mut rng, text)));
            decoded += usize::from(check(&splice(&mut rng, text, donor)));
            decoded += usize::from(check(&splice(&mut rng, text, text)));
        }
    }
    // Most mutants are rejected; the property above covers the rest.
    assert!(decoded < 4 * 2 * MUTANTS, "mutations must not all decode");
}

fn index_error<T: Wire + std::fmt::Debug>(index: u64) -> WireError {
    decode_from_str::<T>(&format!("manytest-wire 1\n{index}")).expect_err("out-of-range index")
}

#[test]
fn out_of_range_enum_indices_are_errors() {
    let kinds = SimEvent::KIND_COUNT as u64;
    assert_eq!(kinds, 22);
    assert_eq!(index_error::<SimEvent>(kinds).expected, "SimEvent kind index");
    assert_eq!(index_error::<CauseKind>(17).expected, "CauseKind index");
    assert_eq!(index_error::<HealthCode>(4).expected, "HealthCode index");
    assert_eq!(index_error::<AbortReason>(2).expected, "AbortReason index");
    // The last valid index of each still decodes.
    assert_eq!(decode_from_str::<CauseKind>("manytest-wire 1\n16"), Ok(CauseKind::Checkpoint));
    assert_eq!(decode_from_str::<HealthCode>("manytest-wire 1\n3"), Ok(HealthCode::Probation));
    assert_eq!(decode_from_str::<AbortReason>("manytest-wire 1\n1"), Ok(AbortReason::TaskPreempted));
    assert_eq!(
        decode_from_str::<SimEvent>("manytest-wire 1\n21\n7\n4\n4096"),
        Ok(SimEvent::AppCheckpointed { app: 7, tasks: 4, bytes: 4096 })
    );
}
