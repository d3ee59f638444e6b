//! In-memory span recording for the traced run.
//!
//! A span is a named host-time interval with an op id and a parent. The
//! bench opens spans around its own calls into the simulator (build, run,
//! audit, JSONL, wire) and, through [`PhaseSpans`], one child span of `run`
//! per control-loop phase entry. Nothing is written until the run ends.

use manytest_sim::{Phase, PhaseObserver};
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;
// lint:allow(wall-clock, reason = "benchmark harness: times host-side simulator calls, never read by the simulation")
use std::time::Instant;

/// One closed (or, after a panic, unclosed) interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id shared by every span of one op execution.
    pub op: u32,
    /// Index of the parent span, `None` for an op's root spans.
    pub parent: Option<u32>,
    /// Layer boundary this span covers.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Shared span sink. Clones append to the same list.
#[derive(Clone)]
pub struct Tracer {
    spans: Rc<RefCell<Vec<Span>>>,
    // lint:allow(wall-clock, reason = "benchmark harness: times host-side simulator calls, never read by the simulation")
    epoch: Instant,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            spans: Rc::new(RefCell::new(Vec::new())),
            // lint:allow(wall-clock, reason = "benchmark harness: times host-side simulator calls, never read by the simulation")
            epoch: Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id (its index in the sink).
    pub fn open(&self, op: u32, parent: Option<u32>, name: &'static str) -> u32 {
        let now = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            op,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        u32::try_from(spans.len() - 1).expect("fewer than 2^32 spans per run")
    }

    pub fn close(&self, id: u32) {
        let now = self.now_ns();
        self.spans.borrow_mut()[id as usize].end_ns = now;
    }

    /// Number of spans recorded so far (the id the next span gets).
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Runs `f` inside a span when `tracer` is set, passing it the span id.
    pub fn scoped<T>(
        tracer: Option<&Tracer>,
        op: u32,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        match tracer {
            None => f(None),
            Some(t) => {
                let id = t.open(op, parent, name);
                let out = f(Some(id));
                t.close(id);
                out
            }
        }
    }

    /// A copy of the spans from index `from` on.
    pub fn spans_from(&self, from: usize) -> Vec<Span> {
        self.spans.borrow()[from..].to_vec()
    }

    /// Phase spans recorded from index `from` on, per [`Phase::index`].
    pub fn phase_counts(&self, from: usize) -> [u64; Phase::COUNT] {
        let mut counts = [0; Phase::COUNT];
        for s in &self.spans.borrow()[from..] {
            if let Some(p) = Phase::ALL.iter().find(|p| p.as_str() == s.name) {
                counts[p.index()] += 1;
            }
        }
        counts
    }

    /// Writes every span as one JSON line, with its self time (duration
    /// minus the time its children cover) and the name of its op.
    pub fn write_jsonl(
        &self,
        w: &mut impl Write,
        op_names: &dyn Fn(u32) -> String,
    ) -> io::Result<()> {
        let spans = self.spans.borrow();
        let child_ns = child_ns(&spans, 0);
        for (id, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"op\":{},\"op_name\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{dur},\"self_ns\":{}}}",
                s.op,
                op_names(s.op),
                s.name,
                s.start_ns,
                dur.saturating_sub(child_ns[id]),
            )?;
        }
        Ok(())
    }
}

/// Nanoseconds covered by each span's direct children. `spans[i]` has
/// id `base + i`; children always follow their parent.
pub fn child_ns(spans: &[Span], base: usize) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(slot) = (p as usize)
                .checked_sub(base)
                .and_then(|i| covered.get_mut(i))
            {
                *slot += s.end_ns.saturating_sub(s.start_ns);
            }
        }
    }
    covered
}

/// Bench-owned phase observer: one span per phase entry, parented to the
/// op's `run` span. Each phase's span count is reconciled against the
/// report's deterministic profile afterwards.
pub struct PhaseSpans {
    tracer: Tracer,
    op: u32,
    parent: u32,
    open: [Option<u32>; Phase::COUNT],
}

impl PhaseSpans {
    pub fn new(tracer: Tracer, op: u32, parent: u32) -> Self {
        PhaseSpans {
            tracer,
            op,
            parent,
            open: [None; Phase::COUNT],
        }
    }
}

impl PhaseObserver for PhaseSpans {
    fn enter(&mut self, phase: Phase) {
        let id = self.tracer.open(self.op, Some(self.parent), phase.as_str());
        self.open[phase.index()] = Some(id);
    }

    fn exit(&mut self, phase: Phase) {
        if let Some(id) = self.open[phase.index()].take() {
            self.tracer.close(id);
        }
    }
}
