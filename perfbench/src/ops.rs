//! The three workloads and the execution of one op.
//!
//! An op is one `SystemBuilder::build` plus `System::run`, and for
//! telemetry ops also `validate_events`, `EventLog::write_jsonl` and a
//! wire round trip of the `Report`. Systems are built and run here, on
//! the calling thread, never through the run ledger, so no cached
//! `Report` can stand in for a fresh run.

use crate::spans::{PhaseSpans, Tracer};
use manytest_bench::events::{probe_builder, PROBE_IDS};
use manytest_bench::kernels::{kernels_builder, KERNELS_SEED};
use manytest_bench::Scale;
use manytest_core::{validate_events, Report, SystemBuilder};
use manytest_sim::{decode_from_str, encode_to_string};
// lint:allow(wall-clock, reason = "benchmark harness: times host-side simulator calls, never read by the simulation")
use std::time::Instant;

/// Systems per `mesh128_admit` pass, with consecutive seeds.
const MESH128_SYSTEMS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every `repro` probe config, with the telemetry steps.
    ProbeSweep,
    /// The kernels config on a 128×128 mesh: few admissions, huge mesh.
    Mesh128Admit,
    /// A mostly idle 64×64 mesh with transient thermal, 3 s simulated.
    Dark64Idle,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ProbeSweep,
        Workload::Mesh128Admit,
        Workload::Dark64Idle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProbeSweep => "probe_sweep",
            Workload::Mesh128Admit => "mesh128_admit",
            Workload::Dark64Idle => "dark64_idle",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's ops for `seed`. A probe's or `g64_idle`'s simulator
    /// seed is its base seed plus `seed`; `mesh128_admit` runs seeds
    /// `42 + 4 * seed + k`. Seed 0 thus reproduces the configs `repro` and
    /// `repro bench kernels` run.
    pub fn ops(self, seed: u64) -> Vec<Op> {
        let reseed = |b: SystemBuilder| {
            let base = b.config().seed;
            b.seed(base.wrapping_add(seed))
        };
        match self {
            Workload::ProbeSweep => PROBE_IDS
                .iter()
                .map(|&id| Op {
                    name: id.to_owned(),
                    builder: reseed(
                        probe_builder(id, Scale::Quick).expect("every PROBE_IDS entry has a probe"),
                    ),
                    telemetry: true,
                })
                .collect(),
            // Arrivals are Poisson, so one system's admission count, and
            // with it the map time, moves by about 14% from seed to seed.
            // Four systems per pass average that out of the seed spread.
            Workload::Mesh128Admit => (0..MESH128_SYSTEMS)
                .map(|k| Op {
                    name: format!("g128.{k}"),
                    builder: kernels_builder(128, Scale::Quick).seed(
                        KERNELS_SEED
                            .wrapping_add(seed.wrapping_mul(MESH128_SYSTEMS))
                            .wrapping_add(k),
                    ),
                    telemetry: false,
                })
                .collect(),
            Workload::Dark64Idle => vec![Op {
                name: "g64_idle".to_owned(),
                builder: reseed(
                    kernels_builder(64, Scale::Quick)
                        .arrival_rate(10.0)
                        .transient_thermal(true)
                        .sim_time_ms(3000),
                ),
                telemetry: false,
            }],
        }
    }
}

pub struct Op {
    pub name: String,
    pub builder: SystemBuilder,
    /// Captures events and runs the audit, JSONL and wire steps.
    pub telemetry: bool,
}

/// The observability cost ladder. `Full` is the op itself; the other
/// steps run only in the traced pass of telemetry ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Step {
    /// Null observer (`event_capacity = None`).
    Null,
    /// `EventLog` capture.
    Capture,
    /// Capture plus JSONL export.
    Jsonl,
    /// Capture, audit, JSONL export and the wire round trip.
    Full,
}

impl Step {
    pub const LADDER: [Step; 3] = [Step::Null, Step::Capture, Step::Jsonl];

    /// Name of the root span of one execution of this step.
    pub fn root(self) -> &'static str {
        match self {
            Step::Null => "ladder.null",
            Step::Capture => "ladder.capture",
            Step::Jsonl => "ladder.jsonl",
            Step::Full => "op",
        }
    }
}

pub struct Executed {
    pub report: Report,
    /// The JSONL export, empty unless the step has one.
    pub jsonl: Vec<u8>,
    /// The wire encoding made by the op's own round trip, if it has one.
    pub wire: Option<String>,
    /// The report decoded from `wire`.
    pub decoded: Option<Report>,
    /// Host seconds for the whole execution.
    pub total_s: f64,
}

/// Runs one step of `op`. Checks that are part of the op (audit, dropped
/// events, JSONL write) fail it here; output identity is the caller's.
pub fn execute(
    op: &Op,
    step: Step,
    tracer: Option<&Tracer>,
    op_id: u32,
) -> Result<Executed, String> {
    let builder = if step == Step::Null {
        let mut config = op.builder.config().clone();
        config.event_capacity = None;
        SystemBuilder::from_config(config).workload(op.builder.mix().clone())
    } else {
        op.builder.clone()
    };
    let telemetry = op.telemetry && step != Step::Null;
    // lint:allow(wall-clock, reason = "benchmark harness: times host-side simulator calls, never read by the simulation")
    let start = Instant::now();
    let mut executed = Tracer::scoped(tracer, op_id, None, step.root(), |root| {
        let system = Tracer::scoped(tracer, op_id, root, "build", |_| builder.build())
            .map_err(|e| format!("build failed: {e}"))?;
        let report = Tracer::scoped(tracer, op_id, root, "run", |run| {
            let mut system = system;
            if let (Some(t), Some(run)) = (tracer, run) {
                system.set_phase_observer(Box::new(PhaseSpans::new(t.clone(), op_id, run)));
            }
            system.run()
        });
        let mut executed = Executed {
            report,
            jsonl: Vec::new(),
            wire: None,
            decoded: None,
            total_s: 0.0,
        };
        if !telemetry {
            return Ok(executed);
        }
        let report = &executed.report;
        if step == Step::Full {
            Tracer::scoped(tracer, op_id, root, "validate", |_| validate_events(report))
                .map_err(|e| format!("validate_events: {e}"))?;
        }
        let dropped = report.events.dropped();
        if dropped > 0 {
            return Err(format!("event log dropped {dropped} records"));
        }
        if step >= Step::Jsonl {
            let mut buf = Vec::new();
            Tracer::scoped(tracer, op_id, root, "jsonl", |_| {
                report.events.write_jsonl(&mut buf)
            })
            .map_err(|e| format!("write_jsonl: {e}"))?;
            let lines = buf.iter().filter(|&&b| b == b'\n').count();
            if lines != report.events.len() {
                return Err(format!(
                    "JSONL has {lines} lines for {} events",
                    report.events.len()
                ));
            }
            executed.jsonl = buf;
        }
        if step == Step::Full {
            let report = &executed.report;
            let text = Tracer::scoped(tracer, op_id, root, "wire.encode", |_| {
                encode_to_string(report)
            });
            let decoded = Tracer::scoped(tracer, op_id, root, "wire.decode", |_| {
                decode_from_str::<Report>(&text)
            })
            .map_err(|e| format!("wire decode: {e}"))?;
            executed.wire = Some(text);
            executed.decoded = Some(decoded);
        }
        Ok(executed)
    })?;
    executed.total_s = start.elapsed().as_secs_f64();
    Ok(executed)
}
