//! Byte pin of both event encodings: one record of every `SimEvent` kind,
//! rendered as JSON Lines and as a `manytest-wire` stream, compared
//! against literal text. Any change to a kind name, field order, number
//! formatting or wire token breaks this test.

use manytest_sim::obs::{AbortReason, CauseKind, CauseLink, EventId, EventLog, SimEvent};
use manytest_sim::wire::{decode_from_str, encode_to_string};

/// One record per kind, in kind-index order, mixing roots and caused
/// records, with values whose text forms are easy to get wrong:
/// `0.1 + 0.2`, `1e-7`, `-0.0`, an `i16` of −1 and a negative interval.
fn every_kind() -> EventLog {
    let third = 0.1 + 0.2;
    let tiny = 1e-7;
    let neg_zero = -0.0;
    let link = |kind, id| Some(CauseLink::new(kind, EventId(id)));
    let records: [(f64, Option<CauseLink>, SimEvent); SimEvent::KIND_COUNT] = [
        (0.0, None, SimEvent::AppArrived { app: 0, tasks: 4 }),
        (tiny, link(CauseKind::Arrival, 0), SimEvent::AppRejected { app: 1, tasks: 300 }),
        (
            third,
            link(CauseKind::Arrival, 0),
            SimEvent::AppMapped {
                app: 0,
                tasks: 4,
                first_node: 17,
                region_w: 2,
                region_h: 3,
                level: 4,
                hop_cost: third,
                queue_wait: tiny,
                headroom: neg_zero,
            },
        ),
        (0.5, link(CauseKind::Mapping, 2), SimEvent::AppCompleted { app: 0, latency: third }),
        (
            0.5,
            None,
            SimEvent::TestLaunched { core: 3, routine: 1, level: 0, power: 0.25, headroom: tiny },
        ),
        (
            neg_zero,
            link(CauseKind::CapMove, 8),
            SimEvent::TestDeniedPower { core: 5, needed: 1.5, headroom: neg_zero },
        ),
        (
            0.75,
            link(CauseKind::Session, 4),
            SimEvent::TestAborted { core: 3, reason: AbortReason::MappedOver },
        ),
        (
            1.0,
            link(CauseKind::Session, 4),
            SimEvent::TestCompleted {
                core: 3,
                routine: 1,
                level: 0,
                covered_levels: 1,
                interval: -1.0,
            },
        ),
        (
            1.0,
            None,
            SimEvent::CapAdjusted { cap: 50.0, measured: third, headroom: tiny, reservations: 2 },
        ),
        (1.25, None, SimEvent::DvfsTransition { core: 7, from: -1, to: 3 }),
        (1.5, None, SimEvent::FaultActivated { core: 9 }),
        (2.0, link(CauseKind::Activation, 10), SimEvent::FaultDetected { core: 9, latency: tiny }),
        (2.0, link(CauseKind::Detection, 11), SimEvent::CoreSuspected { core: 9, level: 2 }),
        (2.5, link(CauseKind::Suspicion, 12), SimEvent::CoreQuarantined { core: 9, retests: 3 }),
        (2.5, link(CauseKind::RetestPassed, 7), SimEvent::CoreCleared { core: 5, retests: 0 }),
        (2.5, link(CauseKind::Quarantine, 13), SimEvent::AppAborted { app: 1, core: 9 }),
        (2.5, link(CauseKind::Quarantine, 13), SimEvent::AppRestarted { app: 2, core: 9 }),
        (
            2.5,
            link(CauseKind::Quarantine, 13),
            SimEvent::AppMigrated { app: 3, core: 9, moved_tasks: 4, delay: neg_zero },
        ),
        (
            3.0,
            link(CauseKind::ProbeLane, 13),
            SimEvent::CoreProbeLaunched { core: 9, streak: 0, inflight: 1 },
        ),
        (
            3.5,
            link(CauseKind::ProbePassed, 18),
            SimEvent::CoreReadmitted { core: 9, probes: u32::MAX },
        ),
        (
            3.5,
            link(CauseKind::ProbeFailed, 18),
            SimEvent::CoreRequarantined { core: 9, backoff: 1 },
        ),
        (
            4.0,
            link(CauseKind::Checkpoint, 2),
            SimEvent::AppCheckpointed { app: u64::MAX, tasks: 4, bytes: 1 << 40 },
        ),
    ];
    let mut log = EventLog::new();
    for (t, cause, ev) in records {
        log.push_caused(t, cause, ev);
    }
    log
}

#[test]
fn records_cover_every_kind_in_index_order() {
    let log = every_kind();
    for (i, rec) in log.events().iter().enumerate() {
        assert_eq!(rec.ev.kind_index(), i);
        assert_eq!(rec.ev.kind(), SimEvent::KINDS[i]);
    }
}

#[test]
fn jsonl_bytes_are_pinned() {
    assert_eq!(every_kind().to_jsonl(), JSONL);
}

/// The pinned wire stream: the header, then every token on its own
/// line. [`WIRE_TOKENS`] lists the tokens one record per source line.
fn pinned_wire() -> String {
    let tokens: Vec<&str> = WIRE_TOKENS.split(' ').collect();
    format!("manytest-wire 1\n{}", tokens.join("\n"))
}

#[test]
fn wire_bytes_are_pinned_and_round_trip() {
    let log = every_kind();
    let text = encode_to_string(&log);
    assert_eq!(text, pinned_wire());
    let back: EventLog = decode_from_str(&text).expect("pinned stream decodes");
    assert_eq!(back, log);
    assert_eq!(encode_to_string(&back), text);
    assert_eq!(back.to_jsonl(), JSONL);
}

const JSONL: &str = r#"{"t":0,"id":0,"kind":"AppArrived","app":0,"tasks":4}
{"t":0.0000001,"id":1,"cause":0,"link":"arrival","kind":"AppRejected","app":1,"tasks":300}
{"t":0.30000000000000004,"id":2,"cause":0,"link":"arrival","kind":"AppMapped","app":0,"tasks":4,"first_node":17,"region_w":2,"region_h":3,"level":4,"hop_cost":0.30000000000000004,"queue_wait":0.0000001,"headroom":-0}
{"t":0.5,"id":3,"cause":2,"link":"mapping","kind":"AppCompleted","app":0,"latency":0.30000000000000004}
{"t":0.5,"id":4,"kind":"TestLaunched","core":3,"routine":1,"level":0,"power":0.25,"headroom":0.0000001}
{"t":-0,"id":5,"cause":8,"link":"cap_move","kind":"TestDeniedPower","core":5,"needed":1.5,"headroom":-0}
{"t":0.75,"id":6,"cause":4,"link":"session","kind":"TestAborted","core":3,"reason":"mapped_over"}
{"t":1,"id":7,"cause":4,"link":"session","kind":"TestCompleted","core":3,"routine":1,"level":0,"covered_levels":1,"interval":-1}
{"t":1,"id":8,"kind":"CapAdjusted","cap":50,"measured":0.30000000000000004,"headroom":0.0000001,"reservations":2}
{"t":1.25,"id":9,"kind":"DvfsTransition","core":7,"from":-1,"to":3}
{"t":1.5,"id":10,"kind":"FaultActivated","core":9}
{"t":2,"id":11,"cause":10,"link":"activation","kind":"FaultDetected","core":9,"latency":0.0000001}
{"t":2,"id":12,"cause":11,"link":"detection","kind":"CoreSuspected","core":9,"level":2}
{"t":2.5,"id":13,"cause":12,"link":"suspicion","kind":"CoreQuarantined","core":9,"retests":3}
{"t":2.5,"id":14,"cause":7,"link":"retest_passed","kind":"CoreCleared","core":5,"retests":0}
{"t":2.5,"id":15,"cause":13,"link":"quarantine","kind":"AppAborted","app":1,"core":9}
{"t":2.5,"id":16,"cause":13,"link":"quarantine","kind":"AppRestarted","app":2,"core":9}
{"t":2.5,"id":17,"cause":13,"link":"quarantine","kind":"AppMigrated","app":3,"core":9,"moved_tasks":4,"delay":-0}
{"t":3,"id":18,"cause":13,"link":"probe_lane","kind":"CoreProbeLaunched","core":9,"streak":0,"inflight":1}
{"t":3.5,"id":19,"cause":18,"link":"probe_passed","kind":"CoreReadmitted","core":9,"probes":4294967295}
{"t":3.5,"id":20,"cause":18,"link":"probe_failed","kind":"CoreRequarantined","core":9,"backoff":1}
{"t":4,"id":21,"cause":2,"link":"checkpoint","kind":"AppCheckpointed","app":18446744073709551615,"tasks":4,"bytes":1099511627776}
"#;

/// Event count; one line per record (id, t bits, cause option, kind
/// index, fields); capacity and dropped; the 22 exact per-kind counts;
/// the next id.
const WIRE_TOKENS: &str = "\
22 \
0 0000000000000000 0 0 0 4 \
1 3e7ad7f29abcaf48 1 0 0 1 1 300 \
2 3fd3333333333334 1 0 0 2 0 4 17 2 3 4 3fd3333333333334 3e7ad7f29abcaf48 8000000000000000 \
3 3fe0000000000000 1 2 2 3 0 3fd3333333333334 \
4 3fe0000000000000 0 4 3 1 0 3fd0000000000000 3e7ad7f29abcaf48 \
5 8000000000000000 1 3 8 5 5 3ff8000000000000 8000000000000000 \
6 3fe8000000000000 1 5 4 6 3 0 \
7 3ff0000000000000 1 5 4 7 3 1 0 1 bff0000000000000 \
8 3ff0000000000000 0 8 4049000000000000 3fd3333333333334 3e7ad7f29abcaf48 2 \
9 3ff4000000000000 0 9 7 -1 3 \
10 3ff8000000000000 0 10 9 \
11 4000000000000000 1 6 10 11 9 3e7ad7f29abcaf48 \
12 4000000000000000 1 7 11 12 9 2 \
13 4004000000000000 1 11 12 13 9 3 \
14 4004000000000000 1 10 7 14 5 0 \
15 4004000000000000 1 12 13 15 1 9 \
16 4004000000000000 1 12 13 16 2 9 \
17 4004000000000000 1 12 13 17 3 9 4 8000000000000000 \
18 4008000000000000 1 13 13 18 9 0 1 \
19 400c000000000000 1 14 18 19 9 4294967295 \
20 400c000000000000 1 15 18 20 9 1 \
21 4010000000000000 1 16 2 21 18446744073709551615 4 1099511627776 \
18446744073709551615 0 \
1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 \
22";
