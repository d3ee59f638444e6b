//! manytest-perfbench: end-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! manytest-perfbench --workload <probe_sweep|mesh128_admit|dark64_idle>
//!     [--seed N] [--seconds S] [--trace 0|1] [--spans-out FILE] [--digests]
//! ```
//!
//! With `--trace 0` it repeats the workload's ops untraced for `S` seconds
//! and reports the end-to-end metrics (medians over passes). With
//! `--trace 1` it times untraced passes for a third of `S`, then traced
//! passes, and reports the per-layer metrics. Every op's wire-encoded
//! `Report` is hashed (FNV-1a 64) and compared with the committed digest
//! for the seed, or, for a seed without one, with its first execution.
//! The last stdout line is one JSON object; the exit code is 1 when any
//! op failed. `--digests` runs each op once and prints digest-table lines.
//! See `README.md` beside this package for the metric definitions.

mod ops;
mod spans;

use manytest_core::Report;
use manytest_sim::{encode_to_string, EventLog, Phase, PhaseProfile};
use ops::{execute, Executed, Op, Step, Workload};
use spans::{child_ns, Span, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
// lint:allow(wall-clock, reason = "benchmark harness: times host-side simulator calls, never read by the simulation")
use std::time::{Duration, Instant};

/// Expected per-op digests: `seed workload op fnv1a64-hex` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// Fewest timed passes per measured phase, however long one pass takes.
const MIN_PASSES: usize = 3;

/// Build-only rounds behind `setup_s`. A build takes milliseconds, so
/// one per pass gives too few samples for a steady median.
const SETUP_ROUNDS: usize = 64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
    digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut spans_out = None;
    let mut digests = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            "--digests" => digests = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans_out,
        digests,
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Committed digests for `(workload, seed)`, by op name.
fn committed_digests(workload: Workload, seed: u64) -> BTreeMap<String, u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f[..] {
                [s, w, op, hex] if s.parse() == Ok(seed) && w == workload.name() => {
                    Some((op.to_owned(), u64::from_str_radix(hex, 16).ok()?))
                }
                _ => None,
            }
        })
        .collect()
}

/// What one op produced, beyond its host time.
#[derive(Clone)]
struct OpRecord {
    profile: PhaseProfile,
    events_captured: u64,
    events_dropped: u64,
    jsonl_bytes: u64,
    wire_bytes: u64,
    digest: u64,
}

struct Bench {
    workload: Workload,
    ops: Vec<Op>,
    /// Expected digest per op: committed, or the op's first result.
    expected: Vec<Option<u64>>,
    committed: bool,
    last: Vec<Option<OpRecord>>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> Self {
        let ops = workload.ops(seed);
        let committed = committed_digests(workload, seed);
        let expected = if committed.is_empty() {
            vec![None; ops.len()]
        } else {
            // An op missing from a committed table gets a digest no
            // FNV-1a output is expected to equal, and fails.
            ops.iter()
                .map(|op| Some(committed.get(&op.name).copied().unwrap_or(0)))
                .collect()
        };
        Bench {
            workload,
            last: vec![None; ops.len()],
            committed: !committed.is_empty(),
            expected,
            ops,
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs every op once. Their outputs stay alive until the pass ends,
    /// as a batch of `repro` runs keeps its reports, so peak memory
    /// reflects the whole workload's output rather than its largest op.
    /// Returns the host seconds of the ops that passed.
    fn pass(&mut self, tracer: Option<&Tracer>, pass: u32) -> f64 {
        let mut wall_s = 0.0;
        let mut outputs = Vec::with_capacity(self.ops.len());
        for i in 0..self.ops.len() {
            if let Some((secs, output)) = self.run_op(i, tracer, pass) {
                wall_s += secs;
                outputs.push(output);
            }
        }
        drop(outputs);
        wall_s
    }

    fn run_op(&mut self, i: usize, tracer: Option<&Tracer>, pass: u32) -> Option<(f64, Output)> {
        self.attempted += 1;
        let op_id = pass * self.ops.len() as u32 + i as u32;
        let outcome = catch_unwind(AssertUnwindSafe(|| checked_op(&self.ops[i], tracer, op_id)));
        let result = match outcome {
            Ok(result) => result,
            Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
        };
        let result = result.and_then(|(rec, secs, output)| match self.expected[i] {
            Some(want) if want != rec.digest => Err(format!(
                "output digest {:016x} != expected {want:016x}",
                rec.digest
            )),
            _ => Ok((rec, secs, output)),
        });
        match result {
            Ok((rec, secs, output)) => {
                self.expected[i] = Some(rec.digest);
                self.last[i] = Some(rec);
                Some((secs, output))
            }
            Err(msg) => {
                self.failed += 1;
                eprintln!(
                    "FAIL {} op {} pass {pass}: {msg}",
                    self.workload.name(),
                    self.ops[i].name
                );
                None
            }
        }
    }

    /// FNV-1a over the ops' digests in order, once every op has one.
    fn workload_digest(&self) -> Option<u64> {
        let mut bytes = Vec::new();
        for rec in &self.last {
            bytes.extend_from_slice(&rec.as_ref()?.digest.to_le_bytes());
        }
        Some(fnv1a(&bytes))
    }

    /// Sum of a counter over the ops' latest records.
    fn counter(&self, f: impl Fn(&OpRecord) -> u64) -> f64 {
        self.last.iter().flatten().map(f).sum::<u64>() as f64
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// An op's outputs: the report and, for telemetry ops, its JSONL and
/// wire exports.
type Output = (Report, Vec<u8>, String);

/// Runs one op (with its ladder steps when traced) and checks its outputs.
/// Returns the op's host seconds with its record and outputs.
fn checked_op(
    op: &Op,
    tracer: Option<&Tracer>,
    op_id: u32,
) -> Result<(OpRecord, f64, Output), String> {
    let mut ladder: Vec<(Step, Report)> = Vec::new();
    let run_step = |step| {
        let from = tracer.map_or(0, Tracer::len);
        let executed = execute(op, step, tracer, op_id)?;
        if let Some(t) = tracer {
            reconcile(t, from, &executed.report.profile)
                .map_err(|e| format!("{}: {e}", step.root()))?;
        }
        Ok::<_, String>(executed)
    };
    if tracer.is_some() && op.telemetry {
        for step in Step::LADDER {
            ladder.push((step, run_step(step)?.report));
        }
    }
    let Executed {
        report,
        wire,
        decoded,
        total_s,
        jsonl,
    } = run_step(Step::Full)?;
    let text = wire.unwrap_or_else(|| encode_to_string(&report));
    if let Some(decoded) = decoded {
        if encode_to_string(&decoded) != text {
            return Err("wire round trip is not bit-exact".to_owned());
        }
    }
    if !ladder.is_empty() {
        let mut stripped = report.clone();
        stripped.events = EventLog::default();
        let stripped = encode_to_string(&stripped);
        for (step, r) in &ladder {
            let want = if *step == Step::Null {
                &stripped
            } else {
                &text
            };
            if encode_to_string(r) != *want {
                return Err(format!("{} report differs from the op's", step.root()));
            }
        }
    }
    let rec = OpRecord {
        profile: report.profile,
        events_captured: if op.telemetry {
            report.events.len() as u64
        } else {
            0
        },
        events_dropped: report.events.dropped(),
        jsonl_bytes: jsonl.len() as u64,
        wire_bytes: if op.telemetry { text.len() as u64 } else { 0 },
        digest: fnv1a(text.as_bytes()),
    };
    Ok((rec, total_s, (report, jsonl, text)))
}

/// Phase spans must match the profile: one `schedule` span per
/// scheduler call, one span of every other phase per epoch.
fn reconcile(tracer: &Tracer, from: usize, profile: &PhaseProfile) -> Result<(), String> {
    let counts = tracer.phase_counts(from);
    for phase in Phase::ALL {
        let want = if phase == Phase::Schedule {
            profile.sched_calls
        } else {
            profile.epochs
        };
        let got = counts[phase.index()];
        if got != want {
            return Err(format!(
                "{got} {} spans, profile says {want}",
                phase.as_str()
            ));
        }
    }
    Ok(())
}

const PHASE_METRICS: [&str; Phase::COUNT] = [
    "core.pid_s",
    "core.fault_s",
    "core.map_s",
    "core.schedule_s",
    "core.events_s",
    "core.thermal_s",
];

const TIME_METRICS: [&str; 18] = [
    "core.build_s",
    "core.run_s",
    "core.other_s",
    "core.pid_s",
    "core.fault_s",
    "core.map_s",
    "core.schedule_s",
    "core.events_s",
    "core.thermal_s",
    "audit.validate_s",
    "obs.jsonl_s",
    "wire.encode_s",
    "wire.decode_s",
    "obs.ladder_null_s",
    "obs.ladder_capture_s",
    "obs.ladder_jsonl_s",
    "obs.ladder_full_s",
    "obs.capture_overhead_s",
];

/// Per-layer host seconds of one traced pass, from its spans (`spans[i]`
/// has id `base + i`). Layer times come from the spans under `op` roots;
/// the ladder roots give the observability cost steps.
fn pass_layers(spans: &[Span], base: usize) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = TIME_METRICS.iter().map(|&k| (k, 0.0)).collect();
    let covered = child_ns(spans, base);
    let mut roots = Vec::with_capacity(spans.len());
    let mut ladder_run: BTreeMap<&str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let root = s.parent.map_or(i, |p| roots[p as usize - base]);
        roots.push(root);
        let root_name = spans[root].name;
        let secs = s.secs();
        if s.parent.is_none() {
            let key = match root_name {
                "ladder.null" => "obs.ladder_null_s",
                "ladder.capture" => "obs.ladder_capture_s",
                "ladder.jsonl" => "obs.ladder_jsonl_s",
                _ => "obs.ladder_full_s",
            };
            *m.get_mut(key).expect("key is in TIME_METRICS") += secs;
            continue;
        }
        if s.name == "run" {
            *ladder_run.entry(root_name).or_default() += secs;
        }
        if root_name != "op" {
            continue;
        }
        let key = match s.name {
            "build" => "core.build_s",
            "run" => {
                let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered[i]);
                *m.get_mut("core.other_s").expect("key is in TIME_METRICS") +=
                    self_ns as f64 * 1e-9;
                "core.run_s"
            }
            "validate" => "audit.validate_s",
            "jsonl" => "obs.jsonl_s",
            "wire.encode" => "wire.encode_s",
            "wire.decode" => "wire.decode_s",
            name => match Phase::ALL.iter().find(|p| p.as_str() == name) {
                Some(p) => PHASE_METRICS[p.index()],
                None => continue,
            },
        };
        *m.get_mut(key).expect("key is in TIME_METRICS") += secs;
    }
    let run = |root| ladder_run.get(root).copied().unwrap_or(0.0);
    m.insert(
        "obs.capture_overhead_s",
        run("ladder.capture") - run("ladder.null"),
    );
    m
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Host seconds of [`SETUP_ROUNDS`] rounds that only build every op. A
/// build error here already failed the op in its passes.
fn setup_rounds(bench: &Bench) -> Vec<f64> {
    (0..SETUP_ROUNDS)
        .map(|_| {
            bench
                .ops
                .iter()
                .map(|op| {
                    let builder = op.builder.clone();
                    // lint:allow(wall-clock, reason = "benchmark harness: times host-side simulator calls, never read by the simulation")
                    let start = Instant::now();
                    let system = builder.build();
                    let secs = start.elapsed().as_secs_f64();
                    drop(system);
                    secs
                })
                .sum()
        })
        .collect()
}

/// Runs passes until `budget` has elapsed and at least [`MIN_PASSES`] ran.
fn timed_passes(
    bench: &mut Bench,
    tracer: Option<&Tracer>,
    budget: Duration,
    next_pass: &mut u32,
    mut each: impl FnMut(f64),
) {
    // lint:allow(wall-clock, reason = "benchmark harness: times host-side simulator calls, never read by the simulation")
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed() < budget {
        each(bench.pass(tracer, *next_pass));
        *next_pass += 1;
        passes += 1;
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let mut bench = Bench::new(args.workload, args.seed);
    if args.digests {
        bench.pass(None, 0);
        for (op, rec) in bench.ops.iter().zip(&bench.last) {
            if let Some(rec) = rec {
                println!(
                    "{} {} {} {:016x}",
                    args.seed,
                    args.workload.name(),
                    op.name,
                    rec.digest
                );
            }
        }
        return Ok(if bench.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let mut pass = 0;
    // Warm-up: fills allocator pools and page tables before timing. Its
    // outputs are still checked.
    bench.pass(None, pass);
    pass += 1;

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut tracer = None;
    if !args.trace {
        let mut wall = Vec::new();
        timed_passes(&mut bench, None, budget, &mut pass, |secs| wall.push(secs));
        metrics.push(("wall_s", median(&wall), "s"));
        metrics.push(("setup_s", median(&setup_rounds(&bench)), "s"));
        metrics.push(("peak_rss_mb", peak_rss_mb()?, "MiB"));
    } else {
        let mut wall = Vec::new();
        timed_passes(&mut bench, None, budget / 3, &mut pass, |secs| {
            wall.push(secs)
        });
        let t = Tracer::new();
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        // lint:allow(wall-clock, reason = "benchmark harness: times host-side simulator calls, never read by the simulation")
        let start = Instant::now();
        let mut passes = 0;
        while passes < MIN_PASSES || start.elapsed() < budget * 2 / 3 {
            let from = t.len();
            bench.pass(Some(&t), pass);
            for (k, v) in pass_layers(&t.spans_from(from), from) {
                samples.entry(k).or_default().push(v);
            }
            pass += 1;
            passes += 1;
        }
        let time = |k: &str| median(&samples[k]);
        per_layer_metrics(&bench, &time, median(&wall), &mut metrics);
        tracer = Some(t);
    }

    if let (Some(t), Some(path)) = (&tracer, &args.spans_out) {
        write_spans(t, path, &bench).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let digest = bench.workload_digest();
    println!(
        "digest {} seed={} {} ({})",
        args.workload.name(),
        args.seed,
        digest.map_or_else(
            || "none: an op failed every pass".to_owned(),
            |d| format!("{d:016x}")
        ),
        if bench.committed {
            "checked against the committed per-op digests"
        } else {
            "no committed digests for this seed; checked for repeatability only"
        },
    );
    let correct = bench.failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        bench.attempted, bench.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn per_layer_metrics(
    bench: &Bench,
    time: &dyn Fn(&str) -> f64,
    untraced_wall: f64,
    out: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let c = |f: fn(&PhaseProfile) -> u64| bench.counter(|r| f(&r.profile));
    let epochs = c(|p| p.epochs);
    let events = c(|p| p.events_processed);
    let admitted = c(|p| p.apps_admitted);
    let calls = c(|p| p.sched_calls);
    let launches = c(|p| p.sched_launches);
    let denials = c(|p| p.sched_denials);
    let batch_high = bench
        .last
        .iter()
        .flatten()
        .map(|r| r.profile.batch_high_water)
        .max()
        .unwrap_or(0) as f64;
    for (name, unit) in [
        ("core.build_s", "s"),
        ("core.run_s", "s"),
        ("core.pid_s", "s"),
        ("core.fault_s", "s"),
        ("core.map_s", "s"),
        ("core.schedule_s", "s"),
        ("core.events_s", "s"),
        ("core.thermal_s", "s"),
        ("core.other_s", "s"),
    ] {
        out.push((name, time(name), unit));
    }
    out.extend([
        ("core.epochs", epochs, "count"),
        (
            "core.thermal_us_per_epoch",
            ratio(time("core.thermal_s") * 1e6, epochs),
            "us",
        ),
        (
            "core.ns_per_event",
            ratio(time("core.run_s") * 1e9, events),
            "ns",
        ),
        ("map.apps_admitted", admitted, "count"),
        (
            "map.us_per_admit",
            ratio(time("core.map_s") * 1e6, admitted),
            "us",
        ),
        ("map.ctx_rebuilds", c(|p| p.ctx_rebuilds), "count"),
        ("map.ctx_delta_updates", c(|p| p.ctx_delta_updates), "count"),
        ("map.free_set_queries", c(|p| p.free_set_queries), "count"),
        ("sbst.sched_calls", calls, "count"),
        (
            "sbst.us_per_call",
            ratio(time("core.schedule_s") * 1e6, calls),
            "us",
        ),
        (
            "sbst.candidates_scanned",
            c(|p| p.candidates_scanned),
            "count",
        ),
        ("sbst.heap_pops", c(|p| p.heap_pops), "count"),
        ("sbst.sched_launches", launches, "count"),
        ("sbst.sched_denials", denials, "count"),
        (
            "sbst.launch_ratio",
            ratio(launches, launches + denials),
            "ratio",
        ),
        ("aging.thermal_steps", c(|p| p.thermal_steps), "count"),
        ("sim.events_processed", events, "count"),
        (
            "sim.ns_per_event",
            ratio(time("core.events_s") * 1e9, events),
            "ns",
        ),
        ("sim.queue_batches", c(|p| p.queue_batches), "count"),
        ("sim.batch_high_water", batch_high, "count"),
        ("audit.validate_s", time("audit.validate_s"), "s"),
        (
            "obs.events_captured",
            bench.counter(|r| r.events_captured),
            "count",
        ),
        (
            "obs.events_dropped",
            bench.counter(|r| r.events_dropped),
            "count",
        ),
        ("obs.jsonl_s", time("obs.jsonl_s"), "s"),
        ("obs.jsonl_bytes", bench.counter(|r| r.jsonl_bytes), "bytes"),
        (
            "obs.capture_overhead_s",
            time("obs.capture_overhead_s"),
            "s",
        ),
        ("obs.ladder_null_s", time("obs.ladder_null_s"), "s"),
        ("obs.ladder_capture_s", time("obs.ladder_capture_s"), "s"),
        ("obs.ladder_jsonl_s", time("obs.ladder_jsonl_s"), "s"),
        ("obs.ladder_full_s", time("obs.ladder_full_s"), "s"),
        ("wire.encode_s", time("wire.encode_s"), "s"),
        ("wire.decode_s", time("wire.decode_s"), "s"),
        ("wire.bytes", bench.counter(|r| r.wire_bytes), "bytes"),
        (
            "trace.overhead_ratio",
            ratio(time("obs.ladder_full_s"), untraced_wall),
            "ratio",
        ),
    ]);
}

fn write_spans(tracer: &Tracer, path: &PathBuf, bench: &Bench) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    let n = bench.ops.len() as u32;
    tracer.write_jsonl(&mut w, &|op| bench.ops[(op % n) as usize].name.clone())?;
    w.flush()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("manytest-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("manytest-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
