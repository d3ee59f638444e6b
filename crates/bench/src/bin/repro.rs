//! Regenerates every figure/table of the (reconstructed) evaluation, and
//! runs single simulations from the command line.
//!
//! ```sh
//! cargo run -p manytest-bench --bin repro --release            # everything
//! cargo run -p manytest-bench --bin repro --release -- e1 e5   # a subset (e1..e12, a1..a6)
//! cargo run -p manytest-bench --bin repro --release -- --quick --jobs 4
//! cargo run -p manytest-bench --bin repro --release -- explain e3
//! cargo run -p manytest-bench --bin repro --release -- diff e11 --seed2 111
//! cargo run -p manytest-bench --bin repro --release -- sim --node 16 --rate 800 --faults 10
//! cargo run -p manytest-bench --bin repro --release -- --help   # every subcommand and flag
//! ```
//!
//! One table-driven parser ([`parse`]) knows the flags of every
//! subcommand. Unknown flags, unknown experiment ids, flags of another
//! subcommand and unparsable values exit 2 with usage on stderr before
//! any simulation starts; `--help` (or `-h`) prints usage to stdout.
//!
//! Worker count: `--jobs N` (or `--jobs=N`) > the `MANYTEST_JOBS`
//! environment variable > the machine's available parallelism. Tables go
//! to stdout and are byte-identical for every worker count; the timing
//! footer goes to stderr.
//!
//! `--events DIR` additionally runs one instrumented probe per selected
//! experiment and writes its decision telemetry to `DIR/<id>.jsonl`,
//! after validating the event counts against the run's report.
//! `explain <id>` replaces the tables entirely: it runs the probe for
//! one experiment and prints a human-readable decision timeline plus
//! counter/histogram summaries.
//! `report <id> [--out DIR]` runs the probe with the flight recorder on
//! and renders `DIR/<id>.html` (SVG panels) plus `DIR/metrics.prom`,
//! both byte-identical across worker counts; per-phase wall times land
//! on stderr.
//! `trace <id> [--out DIR]` exports the probe's event stream as a
//! Perfetto/Chrome trace (`DIR/<id>.trace.json`): one track per core,
//! one per control-loop phase, SBST sessions as duration slices, and a
//! flow arrow along every cause link. Byte-identical across worker
//! counts.
//! `diff <a> <b>` (or `diff <id> --seed2 S`) runs two probes and reports
//! the first diverging event with both causal chains, then the
//! downstream per-kind and aggregate drift. Identical runs print an
//! explicit zero-divergence verdict (CI's self-diff gate).
//! `sim` runs one freely configured simulation and prints its report;
//! with `--trace-csv` the epoch traces go to stdout as CSV and the
//! report to stderr.
//!
//! `--ledger` (or `--ledger=DIR`, or the `MANYTEST_LEDGER_DIR`
//! environment variable) switches on the run ledger: every simulation
//! run writes a manifest under the ledger directory and its full report
//! into a content-addressed cache, and identical configurations replay
//! from cache byte-identically instead of re-simulating. `runs list`
//! (add `--failed` for failures only), `runs show <ref>` and `runs gc`
//! inspect and clean the ledger. `--progress` streams heartbeat frames
//! to stderr (percent/ETA per running job, event counts, and a STALLED
//! verdict for jobs silent longer than `MANYTEST_STALL_SECONDS`).
//! `regress` re-runs the baseline probes and kernels grids at quick
//! scale (fresh, never from the ledger) and exits nonzero if any watched
//! count or aggregate drifted from the one committed baseline;
//! `MANYTEST_UPDATE_GOLDEN=1` rewrites that baseline instead.

use manytest_bench::diff::{run_diff, DiffTarget};
use manytest_bench::events::{explain, write_event_logs, PROBE_IDS};
use manytest_bench::kernels::{
    kernels_json, print_kernels, run_kernels, wall_kernels_table, DEFAULT_GRIDS, QUICK_GRIDS,
};
use manytest_bench::report::{run_report_probe_timed, wall_phase_table, write_report_files};
use manytest_bench::runner::{
    default_jobs, job_stats, jobs_executed, panic_message, Batch, JobStats,
};
use manytest_bench::trace::{run_trace, write_trace_file};
use manytest_bench::*;
use manytest_bench::{ledger, progress, regress};
use manytest_core::prelude::*;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

const USAGE: &str = "\
repro — regenerate the DATE 2015 power-aware online testing evaluation

USAGE:
    repro [IDS...] [--events DIR] [RUN]      tables (no ids = all: e1..e12, a1..a6)
    repro explain <ID> [RUN]                 decision timeline of one probe
    repro report <ID> [--out DIR] [RUN]      HTML report + metrics.prom
    repro trace <ID> [--out DIR] [RUN]       Perfetto/Chrome trace
    repro diff <ID> [<ID> | --seed2 S] [RUN] first divergence of two runs
    repro runs <list [--failed] | show <REF> | gc> [--ledger[=DIR]]
    repro regress [--inject-drift] [RUN]     numeric baseline gate
    repro bench kernels [--grids N,N] [RUN]  control-loop scaling sweep
    repro stall-demo [RUN]                   stall watchdog fixture
    repro sim [SIM]                          one configurable simulation
    repro --help

RUN:
    --quick                     short horizons
    --jobs <N>                  workers [default: MANYTEST_JOBS, else all cores]
    --ledger[=DIR]              record and replay runs [default DIR: runs]
    --progress                  heartbeat frames on stderr

SIM:
    --node <45|32|22|16>        technology node            [default: 16]
    --rate <APPS_PER_SEC>       application arrival rate   [default: 500]
    --ms <MILLISECONDS>         simulated horizon          [default: 300]
    --seed <SEED>               RNG seed                   [default: 1]
    --no-test                   disable online testing
    --governor <pid|naive|fixed> power governor            [default: pid]
    --mapper <tum|baseline>     runtime mapper             [default: tum]
    --faults <N>                inject N latent faults     [default: 0]
    --windowed-faults <FRAC>    fraction of faults that are V/f dependent
    --intrusive                 tests preempt tasks (ablation)
    --trace-csv                 dump epoch traces as CSV on stdout
";

/// The flags every simulating subcommand accepts (`+run` below).
const RUN: &str = "--quick --jobs= --ledger[=] --progress";

/// Each subcommand (`""` is the experiment sweep) with the flags it
/// accepts: `--x=` takes a value (`--x V` or `--x=V`), `--x[=]` an
/// optional inline one, a bare `--x` none.
const SUBCOMMANDS: [(&str, &str); 10] = [
    ("", "+run --events="),
    ("explain", "+run"),
    ("report", "+run --out="),
    ("trace", "+run --out="),
    ("diff", "+run --seed2="),
    ("runs", "--ledger[=] --failed"),
    ("regress", "+run --inject-drift"),
    ("bench", "+run --grids="),
    ("stall-demo", "+run"),
    ("sim", SIM),
];
const SIM: &str = "--node= --rate= --ms= --seed= --no-test --governor= --mapper= --faults= \
                   --windowed-faults= --intrusive --trace-csv";

/// An experiment id with the function that runs and prints it.
type Experiment = (&'static str, fn(Scale, usize));

/// The sweep. Ids equal [`PROBE_IDS`], in the same order.
const EXPERIMENTS: [Experiment; 18] = [
    ("e1", |s, j| print_e1(&e1_tech_sweep(s, j))),
    ("e2", |s, j| print_e2(&e2_power_trace(s, j))),
    ("e3", |s, j| print_e3(&e3_test_power_share(s, j))),
    ("e4", |s, j| print_e4(&e4_test_interval_vs_load(s, j))),
    ("e5", |s, j| print_e5(&e5_mapping_compare(s, j))),
    ("e6", |s, j| print_e6(&e6_criticality_adaptation(s, j))),
    ("e7", |s, j| print_e7(&e7_vf_coverage(s, j))),
    ("e8", |s, j| print_e8(&e8_pid_vs_naive(s, j))),
    ("e9", |s, j| print_e9(&e9_dark_silicon(s, j))),
    ("e10", |s, j| print_e10(&e10_lifetime(s, j))),
    ("e11", |s, j| print_e11(&e11_fault_response(s, j))),
    ("e12", |s, j| print_e12(&e12_core_lifecycle(s, j))),
    ("a1", |s, j| print_a1(&a1_intrusiveness(s, j))),
    ("a2", |s, j| print_a2(&a2_criticality_weights(s, j))),
    ("a3", |s, j| print_a3(&a3_abort_overhead(s, j))),
    ("a4", |s, j| print_a4(&a4_level_rotation(s, j))),
    ("a5", |s, j| print_a5(&a5_thermal_model(s, j))),
    ("a6", |s, j| print_a6(&a6_contention(s, j))),
];

/// A rejected command line: the reason, printed above the usage.
#[derive(Debug)]
struct Usage(String);

/// A parsed command line.
#[derive(Debug, Default)]
struct Command {
    action: Action,
    quick: bool,
    /// `None` defers to `MANYTEST_JOBS` / available parallelism.
    jobs: Option<NonZeroUsize>,
    /// `--ledger[=DIR]`; `None` defers to `MANYTEST_LEDGER_DIR`.
    ledger: Option<PathBuf>,
    progress: bool,
}

#[derive(Debug, Default)]
enum Action {
    #[default]
    Help,
    /// Tables of the given experiments (none = all), then optionally
    /// their telemetry into the directory.
    Sweep(Vec<&'static str>, Option<PathBuf>),
    Explain(&'static str),
    Report(&'static str, PathBuf),
    Trace(&'static str, PathBuf),
    Diff(&'static str, DiffTarget<'static>),
    /// `runs list`, failures only if set.
    RunsList(bool),
    RunsShow(String),
    RunsGc,
    /// `regress`, with a deliberate drift injected if set.
    Regress(bool),
    BenchKernels(Vec<u16>),
    StallDemo,
    /// One simulation: its configuration, report header and `--trace-csv`.
    Sim(Box<SystemBuilder>, String, bool),
}

fn usage<T>(message: String) -> Result<T, Usage> {
    Err(Usage(message))
}

fn probe_id(raw: &str) -> Result<&'static str, Usage> {
    match PROBE_IDS.iter().find(|id| **id == raw) {
        Some(id) => Ok(id),
        None => usage(format!(
            "unknown experiment id '{raw}'; known ids: {}",
            PROBE_IDS.join(" ")
        )),
    }
}

fn number<T: FromStr>(flag: &str, raw: &str, what: &str) -> Result<T, Usage> {
    raw.parse()
        .or_else(|_| usage(format!("{flag} wants {what}, got '{raw}'")))
}

/// The flags of one [`SUBCOMMANDS`] spec as `(name, arity)` pairs, with
/// `+run` expanded to [`RUN`].
fn flag_specs(spec: &'static str) -> impl Iterator<Item = (&'static str, &'static str)> {
    spec.split_whitespace()
        .flat_map(|token| if token == "+run" { RUN } else { token }.split_whitespace())
        .map(|token| token.split_at(token.find(['=', '[']).unwrap_or(token.len())))
}

/// Parses `repro`'s arguments (without the program name). Pure: it
/// starts nothing and reads no environment.
fn parse(args: &[String]) -> Result<Command, Usage> {
    let mut flags: Vec<(&str, Option<&str>)> = Vec::new();
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            positional.push(arg);
            continue;
        }
        if arg == "--help" || arg == "-h" {
            return Ok(Command::default());
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let mut known = SUBCOMMANDS.iter().flat_map(|(_, spec)| flag_specs(spec));
        let Some((_, arity)) = known.find(|(flag, _)| *flag == name) else {
            return usage(format!("unknown flag '{arg}'"));
        };
        let value = match (arity, inline) {
            ("", Some(_)) => return usage(format!("{name} takes no value")),
            (_, Some("")) => return usage(format!("{name}= wants a value")),
            ("=", None) => match it.next() {
                Some(value) => Some(value.as_str()),
                None => return usage(format!("{name} wants a value")),
            },
            (_, inline) => inline,
        };
        if flags.iter().any(|(seen, _)| *seen == name) {
            return usage(format!("{name} given twice"));
        }
        flags.push((name, value));
    }

    let (sub, spec) = SUBCOMMANDS
        .into_iter()
        .find(|(sub, _)| !sub.is_empty() && positional.first() == Some(sub))
        .unwrap_or(SUBCOMMANDS[0]);
    let accepted = |name: &str| flag_specs(spec).any(|(known, _)| known == name);
    if let Some((name, _)) = flags.iter().find(|(name, _)| !accepted(name)) {
        let what = if sub.is_empty() {
            "the experiment sweep".to_owned()
        } else {
            format!("`{sub}`")
        };
        return usage(format!("{name} is not an option of {what}"));
    }
    let operands = &positional[usize::from(!sub.is_empty())..];
    let value = |name: &str| {
        flags
            .iter()
            .find(|(seen, _)| *seen == name)
            .map(|(_, v)| *v)
    };
    let has = |name: &str| value(name).is_some();
    let text = |name: &str| value(name).flatten();
    let out = || PathBuf::from(text("--out").unwrap_or("report"));
    let one_id = || match operands {
        [id] => probe_id(id),
        _ => usage(format!(
            "`{sub}` wants one experiment id, got {}",
            operands.len()
        )),
    };

    let action = match (sub, operands) {
        ("", ids) => Action::Sweep(
            ids.iter()
                .map(|id| probe_id(id))
                .collect::<Result<_, _>>()?,
            text("--events").map(PathBuf::from),
        ),
        ("explain", _) => Action::Explain(one_id()?),
        ("report", _) => Action::Report(one_id()?, out()),
        ("trace", _) => Action::Trace(one_id()?, out()),
        ("diff", ids) => {
            let seed2 = text("--seed2").map(|s| number("--seed2", s, "an unsigned integer seed"));
            match (ids, seed2.transpose()?) {
                ([a], Some(seed)) => Action::Diff(probe_id(a)?, DiffTarget::Seed(seed)),
                ([a, b], None) => Action::Diff(probe_id(a)?, DiffTarget::Probe(probe_id(b)?)),
                ([a], None) => Action::Diff(probe_id(a)?, DiffTarget::Probe(probe_id(a)?)),
                _ => return usage("`diff` wants <id a> [<id b>] or <id a> --seed2 S".to_owned()),
            }
        }
        ("runs", ["list"]) => Action::RunsList(has("--failed")),
        ("runs", ["show", reference]) if !has("--failed") => {
            Action::RunsShow(reference.to_string())
        }
        ("runs", ["gc"]) if !has("--failed") => Action::RunsGc,
        ("runs", _) => return usage("`runs` wants list [--failed], show <ref> or gc".to_owned()),
        ("bench", ["kernels"]) => Action::BenchKernels(match text("--grids") {
            None if has("--quick") => QUICK_GRIDS.to_vec(),
            None => DEFAULT_GRIDS.to_vec(),
            Some(list) => match list
                .split(',')
                .map(|g| g.trim().parse())
                .collect::<Result<Vec<u16>, _>>()
            {
                Ok(edges) if edges.iter().all(|&e| e >= 2) => edges,
                _ => {
                    return usage(format!(
                        "--grids wants mesh edges >= 2 like 8,16, got '{list}'"
                    ))
                }
            },
        }),
        ("bench", _) => return usage("`bench` wants `kernels`".to_owned()),
        (_, [first, ..]) => return usage(format!("`{sub}` takes no operand, got '{first}'")),
        ("regress", []) => Action::Regress(has("--inject-drift")),
        ("stall-demo", []) => Action::StallDemo,
        _ => {
            let (builder, header) = sim(|flag, default| text(flag).unwrap_or(default), has)?;
            Action::Sim(Box::new(builder), header, has("--trace-csv"))
        }
    };
    Ok(Command {
        action,
        quick: has("--quick"),
        jobs: text("--jobs")
            .map(|n| number("--jobs", n, "a positive worker count"))
            .transpose()?,
        ledger: value("--ledger").map(|dir| PathBuf::from(dir.unwrap_or("runs"))),
        progress: has("--progress"),
    })
}

/// `repro sim`'s system and report header. `flag(name, default)` reads a
/// value flag, `has(name)` a switch.
fn sim<'a>(
    flag: impl Fn(&str, &'a str) -> &'a str,
    has: impl Fn(&str) -> bool,
) -> Result<(SystemBuilder, String), Usage> {
    let ms: u64 = number("--ms", flag("--ms", "300"), "a horizon in milliseconds")?;
    // Longer horizons overflow the simulator's u64 nanosecond clock.
    let max_ms = u64::MAX / 1_000_000;
    if ms > max_ms {
        return usage(format!(
            "--ms {ms} exceeds the longest horizon, {max_ms} ms"
        ));
    }
    let node = flag("--node", "16")
        .parse::<TechNode>()
        .or_else(|e| usage(e.to_string()))?;
    let rate: f64 = number("--rate", flag("--rate", "500"), "an arrival rate in apps/s")?;
    let seed: u64 = number("--seed", flag("--seed", "1"), "an unsigned integer seed")?;
    let builder = SystemBuilder::new(node)
        .seed(seed)
        .arrival_rate(rate)
        .sim_time_ms(ms)
        .testing(!has("--no-test"))
        .governor(match flag("--governor", "pid") {
            "pid" => GovernorKind::Pid,
            "naive" => GovernorKind::Naive,
            "fixed" => GovernorKind::FixedTdp,
            other => return usage(format!("unknown governor `{other}`")),
        })
        .mapper(match flag("--mapper", "tum") {
            "tum" | "test-aware" => MapperKind::TestAware,
            "baseline" | "cona" => MapperKind::Baseline,
            other => return usage(format!("unknown mapper `{other}`")),
        })
        .injected_faults(number("--faults", flag("--faults", "0"), "a fault count")?)
        .vf_windowed_faults(number(
            "--windowed-faults",
            flag("--windowed-faults", "0"),
            "a fraction",
        )?)
        .intrusive_testing(has("--intrusive"));
    // The header wording is part of the byte-stable single-run output.
    Ok((
        builder,
        format!("# mtsim: {node} mesh, {rate} apps/s, {ms} ms, seed {seed}"),
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = parse(&args).unwrap_or_else(|Usage(reason)| {
        eprintln!("error: {reason}");
        eprint!("{USAGE}");
        std::process::exit(2);
    });
    // Resolved once so the footer names the worker count used everywhere.
    let jobs = command.jobs.map_or_else(default_jobs, NonZeroUsize::get);
    if let Some(dir) = command.ledger {
        ledger::set_dir(Some(dir));
    }
    ledger::set_jobs(jobs as u64);
    if command.progress {
        progress::enable();
    }
    let scale = if command.quick {
        Scale::Quick
    } else {
        Scale::Full
    };
    const KNOWN: &str = "the parser admits known experiment ids only";

    match command.action {
        Action::Help => print!("{USAGE}"),
        Action::Sweep(ids, events) => sweep(&ids, events, scale, jobs),
        Action::Explain(id) => print!("{}", explain(id, scale).expect(KNOWN)),
        // One flight-recorded probe rendered as a self-contained HTML
        // report plus Prometheus-style metrics. The files are
        // byte-identical across worker counts and reruns; the per-phase
        // wall-clock table goes to stderr only.
        Action::Report(id, dir) => {
            let (report, wall) = run_report_probe_timed(id, scale).expect(KNOWN);
            match write_report_files(&dir, id, &report) {
                Ok((html, prom)) => {
                    println!("{}", report.summary());
                    eprintln!("# report -> {}", html.display());
                    eprintln!("# metrics -> {}", prom.display());
                    eprint!("{}", wall_phase_table(&wall));
                }
                Err(e) => {
                    eprintln!("error: report generation failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        // One probe exported as a Perfetto/Chrome trace with flow arrows
        // along the cause links; byte-identical across worker counts.
        Action::Trace(id, dir) => {
            let (report, _json) = run_trace(id, scale).expect(KNOWN);
            match write_trace_file(&dir, id, &report) {
                Ok((path, flows)) => {
                    println!("{}", report.summary());
                    let events = report.events.len();
                    eprintln!(
                        "# trace -> {} ({events} events, {flows} cause-link flows)",
                        path.display()
                    );
                    eprintln!("# open in https://ui.perfetto.dev or chrome://tracing");
                }
                Err(e) => {
                    eprintln!("error: trace export failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        Action::Diff(id, target) => print!("{}", run_diff(id, target, scale).expect(KNOWN)),
        Action::RunsList(_) | Action::RunsShow(_) | Action::RunsGc => {
            let Some(dir) = ledger::dir() else {
                eprintln!(
                    "error: no ledger directory — pass --ledger[=DIR] or set MANYTEST_LEDGER_DIR"
                );
                std::process::exit(2);
            };
            match command.action {
                Action::RunsList(failed_only) => {
                    print!("{}", ledger::render_runs_list(&dir, failed_only))
                }
                Action::RunsShow(reference) => match ledger::render_runs_show(&dir, &reference) {
                    Some(text) => print!("{text}"),
                    None => {
                        eprintln!("error: no run matching '{reference}' in {}", dir.display());
                        std::process::exit(1);
                    }
                },
                _ => print!("{}", ledger::gc(&dir)),
            }
        }
        // The cross-run regression watch. Exits nonzero on drift so CI can
        // gate on it; `--inject-drift` proves the gate can fail.
        Action::Regress(inject_drift) => {
            let ok = regress::run_regress(jobs, inject_drift);
            std::process::exit(if ok { 0 } else { 1 });
        }
        // The control-loop scaling sweep. The stdout table carries only
        // the deterministic phase-profile counters; wall-clock lands on
        // stderr and in BENCH_kernels.json.
        Action::BenchKernels(grids) => {
            let runs = run_kernels(&grids, scale);
            print_kernels(&runs, scale);
            eprint!("{}", wall_kernels_table(&runs));
            if let Err(e) = std::fs::write("BENCH_kernels.json", kernels_json(&runs, scale)) {
                eprintln!("warning: could not write BENCH_kernels.json: {e}");
            } else {
                eprintln!("# counters + wall -> BENCH_kernels.json");
            }
        }
        Action::StallDemo => stall_demo(jobs),
        Action::Sim(builder, header, trace_csv) => {
            let report = builder.build().map(System::run).unwrap_or_else(|e| {
                eprintln!("error: invalid configuration: {e}");
                std::process::exit(1);
            });
            // With --trace-csv the CSV owns stdout and the report moves
            // to stderr.
            let out = |line: &str| {
                if trace_csv {
                    eprintln!("{line}")
                } else {
                    println!("{line}")
                }
            };
            out(&header);
            out(&report.summary());
            out(&format!(
                "apps: {} arrived / {} completed / {} in flight / {} rejected",
                report.apps_arrived,
                report.apps_completed,
                report.apps_in_flight,
                report.apps_rejected
            ));
            if report.faults_injected > 0 {
                out(&format!(
                    "faults: {}/{} detected, mean latency {:.1} ms",
                    report.faults_detected,
                    report.faults_injected,
                    report.mean_detection_latency * 1e3
                ));
            }
            if trace_csv {
                print!("{}", report.trace.to_csv());
            }
        }
    }
}

/// Per-experiment timing record for the stderr footer.
struct Timing {
    id: &'static str,
    /// Serial-equivalent simulation runs the experiment submitted.
    runs: u64,
    wall_seconds: f64,
    /// Summed per-job wall-clock seconds (serial-equivalent busy time).
    busy_seconds: f64,
    /// Mean number of jobs queued behind each job as it started.
    mean_queue_depth: f64,
}

/// The tables of the experiments in `ids` (all when empty), then the
/// optional telemetry dump, then the timing footer on stderr.
fn sweep(ids: &[&str], events_dir: Option<PathBuf>, scale: Scale, jobs: usize) {
    let want = |id: &str| ids.is_empty() || ids.contains(&id);
    println!("# manytest reproduction — DATE 2015 power-aware online testing");
    println!(
        "# scale: {:?} (pass --quick for short runs; select with ids e1..e12 and a1..a6)\n",
        scale
    );

    let mut timings: Vec<Timing> = Vec::new();
    // Panic isolation at the experiment level: a panicking experiment is
    // recorded here and the remaining experiments still run; the failure
    // table prints after the tables and the process exits nonzero. The
    // table is byte-identical across worker counts because the batch
    // runner re-raises the first panic in *submission* order.
    let mut failures: Vec<(&'static str, String)> = Vec::new();
    for &(id, run) in EXPERIMENTS.iter().filter(|(id, _)| want(id)) {
        let jobs_before = jobs_executed();
        let stats_before: JobStats = job_stats();
        let start = Instant::now();
        if let Err(payload) = std::panic::catch_unwind(|| run(scale, jobs)) {
            failures.push((id, panic_message(payload.as_ref())));
        }
        let stats_after = job_stats();
        let runs = jobs_executed() - jobs_before;
        timings.push(Timing {
            id,
            runs,
            wall_seconds: start.elapsed().as_secs_f64(),
            busy_seconds: stats_after.busy_seconds - stats_before.busy_seconds,
            mean_queue_depth: if runs == 0 {
                0.0
            } else {
                (stats_after.queue_depth_sum - stats_before.queue_depth_sum) / runs as f64
            },
        });
    }

    // Telemetry dump: one instrumented probe per selected experiment.
    // Runs after the tables so stdout stays byte-identical with and
    // without --events (the determinism test diffs stdout).
    if let Some(dir) = events_dir {
        let ids: Vec<&str> = PROBE_IDS.iter().copied().filter(|id| want(id)).collect();
        match write_event_logs(&dir, &ids, scale, jobs) {
            Ok(written) => {
                eprintln!("# event logs -> {}", dir.display());
                for (id, count) in written {
                    eprintln!("#   {id}.jsonl: {count} events (validated)");
                }
            }
            Err(e) => {
                eprintln!("error: event telemetry failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // Timing lands on stderr so stdout stays byte-identical across
    // worker counts (the determinism test diffs stdout).
    let total_runs: u64 = timings.iter().map(|t| t.runs).sum();
    let total_wall: f64 = timings.iter().map(|t| t.wall_seconds).sum();
    let total_busy: f64 = timings.iter().map(|t| t.busy_seconds).sum();
    eprintln!("# timing (jobs = {jobs})");
    eprintln!("# id    runs  wall_s   busy_s  mean_qdepth");
    for t in &timings {
        eprintln!(
            "# {:<5} {:>4}  {:>7.3}  {:>7.3}  {:>11.2}",
            t.id, t.runs, t.wall_seconds, t.busy_seconds, t.mean_queue_depth
        );
    }
    eprintln!("# total {total_runs:>4}  {total_wall:>7.3}  {total_busy:>7.3}");
    if !failures.is_empty() {
        println!(
            "## failed experiments ({} of {})",
            failures.len(),
            timings.len()
        );
        for (id, msg) in &failures {
            println!(
                "{id:<5}  {}",
                msg.lines().next().unwrap_or("<empty panic payload>")
            );
        }
        std::process::exit(1);
    }
}

/// A deliberately quiet job plus a deliberately panicking one, with the
/// heartbeat renderer forced on — exercises the stall watchdog and
/// failure manifests end to end. Exits 0 by design (the panic is the
/// fixture, not a failure of the demo).
fn stall_demo(jobs: usize) {
    progress::enable();
    let sleep_s: f64 = std::env::var("MANYTEST_STALL_DEMO_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let mut batch = Batch::new();
    batch.push("demo/sleeper", move || {
        std::thread::sleep(std::time::Duration::from_secs_f64(sleep_s));
        Report::default()
    });
    batch.push("demo/panic", || -> Report {
        panic!("deliberate stall-demo failure")
    });
    let (outcomes, _) = batch.run_outcomes(jobs.max(2));
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    println!(
        "stall-demo: {} job(s), {failed} failed as scripted",
        outcomes.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse_line(line: &str) -> Result<Command, Usage> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&args)
    }

    fn rejection(line: &str) -> String {
        match parse_line(line) {
            Ok(command) => panic!("`{line}` parsed as {command:?}"),
            Err(Usage(reason)) => reason,
        }
    }

    #[test]
    fn experiment_table_ids_equal_probe_ids() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, PROBE_IDS);
    }

    #[test]
    fn a_flag_has_one_arity_everywhere() {
        let all: Vec<_> = SUBCOMMANDS
            .iter()
            .flat_map(|(_, spec)| flag_specs(spec))
            .collect();
        for (name, arity) in &all {
            assert!(
                name.starts_with("--") && ["", "=", "[=]"].contains(arity),
                "{name}{arity}"
            );
            assert!(
                all.iter().all(|(n, a)| n != name || a == arity),
                "{name} differs"
            );
        }
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(
            rejection("--bogus-flag e2 --quick"),
            "unknown flag '--bogus-flag'"
        );
        assert_eq!(rejection("--grid 8 bench kernels"), "unknown flag '--grid'");
        assert_eq!(rejection("e3 -q"), "unknown flag '-q'");
    }

    #[test]
    fn rejects_unknown_ids() {
        for line in [
            "e99",
            "e1 e13",
            "explain e99",
            "report x",
            "trace a7",
            "diff e3 e99",
        ] {
            assert!(
                rejection(line).starts_with("unknown experiment id"),
                "{line}"
            );
        }
    }

    #[test]
    fn rejects_flags_of_another_subcommand() {
        assert_eq!(
            rejection("e3 --grids 8"),
            "--grids is not an option of the experiment sweep"
        );
        assert_eq!(
            rejection("explain e3 --seed2 1"),
            "--seed2 is not an option of `explain`"
        );
        assert_eq!(
            rejection("sim --quick"),
            "--quick is not an option of `sim`"
        );
        assert_eq!(
            rejection("runs list --jobs 2"),
            "--jobs is not an option of `runs`"
        );
        assert_eq!(
            rejection("--node 16"),
            "--node is not an option of the experiment sweep"
        );
        assert!(rejection("runs gc --failed").starts_with("`runs` wants"));
    }

    #[test]
    fn rejects_bad_values() {
        assert_eq!(
            rejection("--jobs abc"),
            "--jobs wants a positive worker count, got 'abc'"
        );
        assert_eq!(
            rejection("--jobs=0"),
            "--jobs wants a positive worker count, got '0'"
        );
        assert_eq!(rejection("--jobs"), "--jobs wants a value");
        assert!(rejection("bench kernels --grids 1").starts_with("--grids wants"));
        assert!(rejection("bench kernels --grids 8,x").starts_with("--grids wants"));
        assert!(rejection("diff e3 --seed2 -1").starts_with("--seed2 wants"));
        assert_eq!(rejection("--quick=yes"), "--quick takes no value");
        assert_eq!(rejection("--ledger="), "--ledger= wants a value");
        assert_eq!(rejection("--quick e3 --quick"), "--quick given twice");
        assert!(rejection("sim --node 7").contains("technology node"));
        assert_eq!(rejection("sim --mapper best"), "unknown mapper `best`");
        assert!(rejection("sim --rate fast").starts_with("--rate wants"));
    }

    #[test]
    fn rejects_malformed_operands() {
        assert!(rejection("diff e1 e2 e3").starts_with("`diff` wants"));
        assert!(rejection("diff e1 e2 --seed2 3").starts_with("`diff` wants"));
        assert!(rejection("diff").starts_with("`diff` wants"));
        assert_eq!(
            rejection("explain"),
            "`explain` wants one experiment id, got 0"
        );
        assert_eq!(
            rejection("report e1 e2"),
            "`report` wants one experiment id, got 2"
        );
        assert!(rejection("runs show").starts_with("`runs` wants"));
        assert_eq!(rejection("bench micro"), "`bench` wants `kernels`");
        assert_eq!(
            rejection("regress e3"),
            "`regress` takes no operand, got 'e3'"
        );
        assert_eq!(rejection("sim e3"), "`sim` takes no operand, got 'e3'");
    }

    #[test]
    fn sim_horizon_stops_at_the_clock_limit() {
        let max_ms = u64::MAX / 1_000_000;
        let Action::Sim(_, header, _) = parse_line(&format!("sim --ms {max_ms}")).unwrap().action
        else {
            panic!("not a sim");
        };
        assert!(header.contains(&format!(" {max_ms} ms")), "{header}");
        assert_eq!(
            rejection(&format!("sim --ms {}", max_ms + 1)),
            format!(
                "--ms {} exceeds the longest horizon, {max_ms} ms",
                max_ms + 1
            )
        );
    }

    #[test]
    fn parses_into_the_intended_command() {
        let command = parse_line("e5 e1 --quick --jobs=3 --ledger").unwrap();
        assert!(matches!(command.action, Action::Sweep(ref ids, None) if ids == &["e5", "e1"]));
        assert_eq!((command.quick, command.jobs), (true, NonZeroUsize::new(3)));
        assert_eq!(command.ledger, Some(PathBuf::from("runs")));
        let command = parse_line("diff e11 --seed2 111 --ledger=cache").unwrap();
        assert!(matches!(
            command.action,
            Action::Diff("e11", DiffTarget::Seed(111))
        ));
        assert_eq!(command.ledger, Some(PathBuf::from("cache")));
        let command = parse_line("report e11 --out r1").unwrap();
        assert!(matches!(command.action, Action::Report("e11", ref out) if out == Path::new("r1")));
        let command = parse_line("bench kernels --quick").unwrap();
        assert!(matches!(command.action, Action::BenchKernels(ref g) if g == &QUICK_GRIDS));
        assert!(matches!(
            parse_line("runs list --failed").unwrap().action,
            Action::RunsList(true)
        ));
        assert!(parse_line("e3 --bogus --help").is_err());
        assert!(matches!(parse_line("sim -h").unwrap().action, Action::Help));
    }

    #[test]
    fn sim_defaults_and_flags_configure_the_builder() {
        let sim = |line: &str| match parse_line(line).unwrap().action {
            Action::Sim(builder, header, csv) => (format!("{builder:?}"), header, csv),
            other => panic!("`{line}` parsed as {other:?}"),
        };
        let defaults = SystemBuilder::new(TechNode::N16)
            .seed(1)
            .arrival_rate(500.0)
            .sim_time_ms(300)
            .testing(true)
            .governor(GovernorKind::Pid)
            .mapper(MapperKind::TestAware)
            .injected_faults(0)
            .vf_windowed_faults(0.0)
            .intrusive_testing(false);
        let header = "# mtsim: 16nm mesh, 500 apps/s, 300 ms, seed 1".to_owned();
        assert_eq!(sim("sim"), (format!("{defaults:?}"), header, false));
        let line = "sim --node 45 --rate 800 --ms 50 --seed 7 --no-test --governor naive \
                    --mapper baseline --faults 3 --windowed-faults 0.5 --intrusive --trace-csv";
        let custom = SystemBuilder::new(TechNode::N45)
            .seed(7)
            .arrival_rate(800.0)
            .sim_time_ms(50)
            .testing(false)
            .governor(GovernorKind::Naive)
            .mapper(MapperKind::Baseline)
            .injected_faults(3)
            .vf_windowed_faults(0.5)
            .intrusive_testing(true);
        let header = "# mtsim: 45nm mesh, 800 apps/s, 50 ms, seed 7".to_owned();
        assert_eq!(sim(line), (format!("{custom:?}"), header, true));
    }

    /// Every `--bin repro … -- <args>` line in the fenced blocks of
    /// README.md and EXPERIMENTS.md and in the CI workflow, cut at the
    /// first shell redirection, pipe, comment or separator.
    fn committed_invocations() -> Vec<String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |file: &str| std::fs::read_to_string(root.join(file)).expect(file);
        let mut lines: Vec<String> = Vec::new();
        for doc in ["README.md", "EXPERIMENTS.md"] {
            let mut fenced = false;
            for line in read(doc).lines() {
                if line.trim_start().starts_with("```") {
                    fenced = !fenced;
                } else if fenced {
                    lines.push(line.to_owned());
                }
            }
        }
        lines.extend(read(".github/workflows/ci.yml").lines().map(str::to_owned));
        lines
            .iter()
            .filter_map(|line| line.split_once("--bin repro").map(|(_, rest)| rest))
            .map(|rest| {
                let rest = &rest[..rest.find(" 2>").unwrap_or(rest.len())];
                let rest = rest.split(['>', '|', '#', ';', '&']).next().unwrap_or("");
                match rest.split_once(" -- ") {
                    Some((_, args)) => args.trim().to_owned(),
                    None => String::new(),
                }
            })
            .collect()
    }

    #[test]
    fn committed_command_lines_parse() {
        let invocations = committed_invocations();
        assert!(
            invocations.len() >= 40,
            "only {} invocations found",
            invocations.len()
        );
        for args in &invocations {
            if let Err(Usage(reason)) = parse_line(args) {
                panic!("committed `repro {args}` is rejected: {reason}");
            }
        }
        for needle in [
            "sim ",
            "--help",
            "regress",
            "diff e11 --seed2 111",
            "--ledger=runs",
        ] {
            assert!(
                invocations.iter().any(|a| a.contains(needle)),
                "no committed `{needle}`"
            );
        }
    }
}
