//! Tracing from outside the program: forwarding adapters around the
//! simulator's trait objects, and an in-memory span recorder written out
//! as Chrome `trace_event` JSON.
//!
//! The adapters wrap the `Box<dyn Balancer>` and every `Box<dyn OpStream>`
//! a run hands to `Simulation::new*`. Each forwards every trait method to
//! the wrapped object — including the ones with default bodies, so a
//! batched override such as Lunule's `record_access_n` is still the code
//! that runs — and counts calls and host nanoseconds per layer. Per-op
//! calls are only accumulated; the run loop turns each tick's totals into
//! one span per layer, because a span per call (about a million per pass)
//! would measure the tracer instead of the program.

use lunule_core::{Access, Balancer, EpochStats, MigrationPlan};
use lunule_namespace::{InodeId, Namespace, SubtreeMap};
use lunule_sim::{MetaOp, OpStream};
use lunule_telemetry::Telemetry;
use lunule_util::codec::{CodecError, Decoder, Encoder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Call count, unit count and busy time of one adapter method group.
/// Relaxed atomics: each is a standalone statistic that publishes no other
/// data. Updates are a relaxed load and store rather than a locked
/// read-modify-write, which keeps the adapters cheap on the per-op path;
/// that is exact because the simulator runs with `jobs = 1`, so one thread
/// makes every call.
#[derive(Debug, Default)]
pub struct Meter {
    calls: AtomicU64,
    units: AtomicU64,
    ns: AtomicU64,
}

/// A point-in-time copy of a [`Meter`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeterReading {
    /// Calls made.
    pub calls: u64,
    /// Units of work those calls carried (ops for `record_access_n`).
    pub units: u64,
    /// Host nanoseconds spent inside the calls.
    pub ns: u64,
}

impl MeterReading {
    /// Component-wise difference `self - earlier`.
    pub fn since(self, earlier: MeterReading) -> MeterReading {
        MeterReading {
            calls: self.calls - earlier.calls,
            units: self.units - earlier.units,
            ns: self.ns - earlier.ns,
        }
    }
}

impl Meter {
    fn time<T>(&self, units: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let dt = elapsed_ns(t0);
        let add = |a: &AtomicU64, v: u64| a.store(a.load(Ordering::Relaxed) + v, Ordering::Relaxed);
        add(&self.calls, 1);
        add(&self.units, units);
        add(&self.ns, dt);
        out
    }

    /// Current totals.
    pub fn read(&self) -> MeterReading {
        MeterReading {
            calls: self.calls.load(Ordering::Relaxed),
            units: self.units.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

/// One `Balancer::on_epoch` call, timed.
#[derive(Clone, Copy, Debug)]
pub struct EpochCall {
    /// Call start.
    pub start: Instant,
    /// Call end.
    pub end: Instant,
    /// Subtrees in the returned plan.
    pub plan_subtrees: u64,
}

/// Counters shared by every adapter of one pass.
#[derive(Debug, Default)]
pub struct Layers {
    /// `OpStream::next_op`.
    pub next_op: Meter,
    /// The other stream methods the simulator calls while stepping
    /// (`on_created`, `len_hint`, `try_clone_box`, state save/load).
    pub stream_other: Meter,
    /// `Balancer::record_access` and `record_access_n` (units = ops).
    pub record_access: Meter,
    /// `Balancer::setup`.
    pub balancer_setup: Meter,
    /// The other balancer methods (`set_knob`, `attach_telemetry`, state
    /// save/load).
    pub balancer_other: Meter,
    /// `Balancer::on_epoch` calls not yet collected by the run loop.
    epochs: Mutex<Vec<EpochCall>>,
}

impl Layers {
    /// A fresh, shareable set of counters.
    pub fn new() -> Arc<Layers> {
        Arc::new(Layers::default())
    }

    /// Takes the `on_epoch` calls recorded since the last call.
    pub fn take_epochs(&self) -> Vec<EpochCall> {
        std::mem::take(&mut *self.epochs.lock().expect("epoch log poisoned by a panic"))
    }
}

/// Wraps a balancer so every call is forwarded and metered.
pub struct TracedBalancer {
    inner: Box<dyn Balancer>,
    layers: Arc<Layers>,
}

impl TracedBalancer {
    /// Boxes `inner` behind a metering adapter.
    pub fn wrap(inner: Box<dyn Balancer>, layers: &Arc<Layers>) -> Box<dyn Balancer> {
        Box::new(TracedBalancer {
            inner,
            layers: Arc::clone(layers),
        })
    }
}

impl Balancer for TracedBalancer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn setup(&mut self, ns: &Namespace, map: &mut SubtreeMap, n_mds: usize) {
        let inner = &mut self.inner;
        self.layers
            .balancer_setup
            .time(1, || inner.setup(ns, map, n_mds));
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        let inner = &mut self.inner;
        self.layers
            .balancer_other
            .time(1, || inner.attach_telemetry(telemetry));
    }

    fn set_knob(&mut self, name: &str, value: f64) -> bool {
        let inner = &mut self.inner;
        self.layers
            .balancer_other
            .time(1, || inner.set_knob(name, value))
    }

    fn record_access(&mut self, ns: &Namespace, access: Access) {
        let inner = &mut self.inner;
        self.layers
            .record_access
            .time(1, || inner.record_access(ns, access));
    }

    fn record_access_n(&mut self, ns: &Namespace, access: Access, n: u64) {
        let inner = &mut self.inner;
        self.layers
            .record_access
            .time(n, || inner.record_access_n(ns, access, n));
    }

    fn on_epoch(&mut self, ns: &Namespace, map: &SubtreeMap, stats: &EpochStats) -> MigrationPlan {
        let start = Instant::now();
        let plan = self.inner.on_epoch(ns, map, stats);
        let end = Instant::now();
        self.layers
            .epochs
            .lock()
            .expect("epoch log poisoned by a panic")
            .push(EpochCall {
                start,
                end,
                plan_subtrees: plan.subtree_count() as u64,
            });
        plan
    }

    fn save_state(&self, e: &mut Encoder) {
        let inner = &self.inner;
        self.layers.balancer_other.time(1, || inner.save_state(e));
    }

    fn load_state(&mut self, d: &mut Decoder<'_>) -> Result<(), CodecError> {
        let inner = &mut self.inner;
        self.layers.balancer_other.time(1, || inner.load_state(d))
    }
}

/// Wraps an op stream so every call is forwarded and metered. Clones made
/// by the cohort engine (`try_clone_box`) are wrapped too and share the
/// same counters.
pub struct TracedStream {
    inner: Box<dyn OpStream>,
    layers: Arc<Layers>,
}

impl TracedStream {
    /// Boxes `inner` behind a metering adapter.
    pub fn wrap(inner: Box<dyn OpStream>, layers: &Arc<Layers>) -> Box<dyn OpStream> {
        Box::new(TracedStream {
            inner,
            layers: Arc::clone(layers),
        })
    }
}

impl OpStream for TracedStream {
    fn next_op(&mut self, ns: &Namespace) -> Option<MetaOp> {
        let inner = &mut self.inner;
        self.layers.next_op.time(1, || inner.next_op(ns))
    }

    fn on_created(&mut self, id: InodeId) {
        let inner = &mut self.inner;
        self.layers.stream_other.time(1, || inner.on_created(id));
    }

    fn len_hint(&self) -> Option<u64> {
        let inner = &self.inner;
        self.layers.stream_other.time(1, || inner.len_hint())
    }

    fn save_state(&self, e: &mut Encoder) {
        let inner = &self.inner;
        self.layers.stream_other.time(1, || inner.save_state(e));
    }

    fn load_state(&mut self, d: &mut Decoder<'_>) -> Result<(), CodecError> {
        let inner = &mut self.inner;
        self.layers.stream_other.time(1, || inner.load_state(d))
    }

    fn try_clone_box(&self) -> Option<Box<dyn OpStream>> {
        let inner = &self.inner;
        let layers = &self.layers;
        self.layers.stream_other.time(1, || {
            inner.try_clone_box().map(|s| TracedStream::wrap(s, layers))
        })
    }
}

/// Nanoseconds since `t0`, saturating at `u64::MAX`.
pub fn elapsed_ns(t0: Instant) -> u64 {
    ns_between(t0, Instant::now())
}

/// Nanoseconds from `start` to `end` (0 if `end` is earlier), saturating at
/// `u64::MAX`.
pub fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span id, unique within a recorder.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Pass the span belongs to.
    pub pass: u32,
    /// Layer-qualified name, e.g. `core.on_epoch`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Calls the span aggregates (1 for a single call).
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store for one traced invocation.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t` (0 if `t` precedes it).
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        pass: u32,
        (start_ns, end_ns): (u64, u64),
        calls: u64,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent,
            pass,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            calls,
        });
        id
    }

    /// Sets the bounds of an already recorded span (for a span opened
    /// before its end was known).
    pub fn set_bounds(&mut self, id: u32, start_ns: u64, end_ns: u64) {
        let span = &mut self.spans[id as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns.max(start_ns);
    }

    /// Every span recorded, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` JSON ("X" complete events, microsecond
    /// timestamps) that Perfetto and `chrome://tracing` open. Each event
    /// carries its span id, parent id, pass and call count in `args`;
    /// passes appear as separate threads so their spans never interleave.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"pass\":{},\"calls\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.pass + 1,
                s.id,
                parent,
                s.pass,
                s.calls
            ));
        }
        out.push_str("]}");
        out
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Self time of every span: its duration minus its children's. Children
/// are disjoint calls nested inside their parent's interval, so a negative
/// value means the recorder is wrong; it is returned as such (signed) for
/// the caller to count as a failure.
pub fn self_times(spans: &[Span]) -> Vec<i128> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.dur_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= i128::from(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_is_never_negative() {
        let mut r = Recorder::new();
        let step = r.push("sim.step", None, 0, (100, 1_100), 1);
        r.push("core.record_access", Some(step), 0, (100, 400), 500);
        r.push("workloads.next_op", Some(step), 0, (400, 500), 500);
        let ep = r.push("core.on_epoch", Some(step), 0, (600, 1_000), 1);
        r.push("inner", Some(ep), 0, (700, 800), 1);
        let own = self_times(r.spans());
        assert_eq!(own, vec![200, 300, 100, 300, 100]);
        assert!(own.iter().all(|&t| t >= 0));
        // The step's self time plus its children's durations is the step.
        assert_eq!(own[0] + 300 + 100 + 400, 1_000);
    }

    #[test]
    fn chrome_json_parses_and_carries_parents() {
        let mut r = Recorder::new();
        let a = r.push("sim.step", None, 0, (0, 2_000), 1);
        r.push("core.on_epoch", Some(a), 0, (500, 1_500), 1);
        let doc = lunule_util::json::Json::parse(&r.chrome_json()).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(child.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(child.get("ts").and_then(|v| v.as_f64()), Some(0.5));
        assert_eq!(child.get("dur").and_then(|v| v.as_f64()), Some(1.0));
        let parent = child.get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(|v| v.as_f64()), Some(0.0));
    }
}
