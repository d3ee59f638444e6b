//! Holds the telemetry back half (audit, JSONL, wire) to its work
//! bound, counted in heap allocations rather than wall time:
//!
//! * `encode_to_string` and `EventLog::write_jsonl` allocate only to
//!   grow their output buffers, never per token or per line;
//! * `validate_events` allocates the same number of times on a log and
//!   on that log with its records doubled.
//!
//! This file contains exactly one test: the counting allocator is
//! shared, and a concurrent test in the same binary would pollute the
//! measurement. Only allocations made by the measured thread inside a
//! measured window are counted.

use manytest_bench::events::probe_builder;
use manytest_bench::Scale;
use manytest_core::{validate_events, Report};
use manytest_sim::{encode_to_string, CauseKind, CauseLink, SimEvent};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-init keeps the flag itself off the heap: a `Cell<bool>` needs
    // no drop registration, so reading it from the allocator can't recurse.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    // `try_with` instead of `with`: allocations during thread teardown
    // (after TLS destruction) must not panic inside the allocator.
    MEASURED.try_with(Cell::get).unwrap_or(false)
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    MEASURED.with(|m| m.set(true));
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let out = std::hint::black_box(f());
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    MEASURED.with(|m| m.set(false));
    (out, calls)
}

/// Allocations a buffer growing by doubling makes to reach `len` bytes:
/// one per power of two up to `len`.
fn growth_allocs(len: usize) -> u64 {
    u64::from(usize::BITS - len.leading_zeros())
}

/// A valid report of `chains` power denials, each caused by its own
/// cap move — the chain shape behind most of the audit's root walks —
/// with every counter the audit reconciles set to match.
fn denials(chains: u64) -> Report {
    let mut r = Report::default();
    for k in 0..chains {
        let t = k as f64 * 1e-3;
        let cap = r.events.push(
            t,
            SimEvent::CapAdjusted { cap: 50.0, measured: 45.0, headroom: 5.0, reservations: 0 },
        );
        r.events.push_caused(
            t,
            Some(CauseLink::new(CauseKind::CapMove, cap)),
            SimEvent::TestDeniedPower { core: (k % 64) as u32, needed: 1.5, headroom: 0.5 },
        );
    }
    r.cap_adjustments = chains;
    r.tests_denied_power = chains;
    r.profile.epochs = chains;
    r.profile.pid_updates = chains;
    r.profile.fault_sweeps = chains;
    r.profile.sched_denials = chains;
    r
}

#[test]
fn telemetry_back_half_allocates_for_buffer_growth_only() {
    let report = probe_builder("e11", Scale::Quick)
        .expect("e11 is a probe")
        .build()
        .expect("valid probe config")
        .run();
    let records = report.events.len();
    assert!(records > 10_000, "e11 captures a long stream ({records} records)");

    // Wire: one header allocation plus the doublings of the buffer.
    let (text, calls) = allocs_during(|| encode_to_string(&report));
    assert!(
        calls <= growth_allocs(text.len()) + 1,
        "encode_to_string made {calls} allocations for {} bytes",
        text.len()
    );

    // JSONL into a sink that never allocates: the renderer's memo and a
    // line buffer that grows to the longest line, independent of the
    // record count.
    let (written, calls) = allocs_during(|| report.events.write_jsonl(&mut std::io::sink()));
    written.expect("a sink never fails");
    assert!(calls <= 4, "write_jsonl made {calls} allocations for {records} records");

    // The audit: the same count on a log and on that log doubled.
    let (once, twice) = (denials(20_000), denials(40_000));
    let (valid, once_calls) = allocs_during(|| validate_events(&once));
    valid.expect("the denial log reconciles");
    let (valid, twice_calls) = allocs_during(|| validate_events(&twice));
    valid.expect("the doubled denial log reconciles");
    assert_eq!(
        twice_calls, once_calls,
        "validate_events allocations grew with the record count"
    );
    // On a real run: the graph's two CSR arrays and the sequence
    // checker's two per-core flag vectors.
    let (valid, e11_calls) = allocs_during(|| validate_events(&report));
    valid.expect("e11 reconciles");
    assert!(e11_calls <= 4, "validate_events made {e11_calls} allocations on e11");
}
