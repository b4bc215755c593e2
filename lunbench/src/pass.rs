//! One pass: build the inputs, construct the simulation, step it to the
//! end, finish it, and check its outputs. A traced pass wraps the balancer
//! and every op stream in the metering adapters and records spans.

use crate::trace::{
    elapsed_ns, ns_between, Layers, MeterReading, Recorder, TracedBalancer, TracedStream,
};
use crate::workload::{Size, Workload};
use lunule_core::{make_balancer, BalancerKind};
use lunule_sim::{MigrationCounters, RunResult, Simulation};
use lunule_telemetry::export::events_jsonl;
use lunule_util::codec::fnv1a64;
use std::sync::Arc;
use std::time::Instant;

/// What a step did besides advancing the clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// No epoch closed.
    Plain,
    /// An epoch closed and the balancer's plan was empty.
    Epoch,
    /// An epoch closed and the balancer's plan offered the migrator at
    /// least one subtree (it started or rejected one).
    PlanEpoch,
}

/// Host times of one pass, nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Timings {
    /// Dataset + stream + settings construction.
    pub build_ns: u64,
    /// `Simulation::new_grouped`, balancer construction and setup included.
    pub new_ns: u64,
    /// One entry per `step()` call that advanced the clock.
    pub step_ns: Vec<u64>,
    /// What each of those steps did.
    pub kind: Vec<StepKind>,
    /// `Simulation::finish`.
    pub finish_ns: u64,
}

impl Timings {
    /// Build + construction, the benchmark's set-up time.
    pub fn setup_ns(&self) -> u64 {
        self.build_ns + self.new_ns
    }

    /// Time inside the `step()` loop.
    pub fn loop_ns(&self) -> u64 {
        self.step_ns.iter().sum()
    }
}

/// The journal of a journaled pass.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    /// Events recorded.
    pub events: u64,
    /// Length of the JSONL export, when it was exported.
    pub bytes: u64,
    /// FNV-1a of the JSONL export, when it was exported.
    pub digest: u64,
    /// Host time of the export, when it was exported.
    pub export_ns: u64,
}

/// Per-layer totals of a traced pass.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// `next_op` inside steps.
    pub next_op: MeterReading,
    /// Other stream calls inside steps.
    pub stream_other: MeterReading,
    /// `record_access[_n]` inside steps.
    pub record_access: MeterReading,
    /// Other balancer calls inside steps.
    pub balancer_other: MeterReading,
    /// `Balancer::setup`.
    pub balancer_setup_ns: u64,
    /// `on_epoch` durations (ns) inside steps, in call order.
    pub on_epoch_ns: Vec<u64>,
    /// `on_epoch` calls made by `finish` (a partial last epoch).
    pub on_epoch_in_finish: u64,
    /// Subtrees across every plan `on_epoch` returned.
    pub plan_subtrees: u64,
    /// Sum over steps of the step's duration minus its adapter calls.
    pub sim_self_ns: u64,
    /// Steps whose adapter time exceeded the step (must stay 0).
    pub negative_self: u64,
}

/// The simulated outputs a pass reports. The full `RunResult` is dropped
/// once hashed, so a long run's memory does not grow with its passes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outputs {
    /// `RunResult::mean_iops`.
    pub mean_iops: f64,
    /// `RunResult::mean_if`.
    pub mean_if: f64,
    /// `RunResult::migrated_inodes`.
    pub migrated_inodes: u64,
    /// `RunResult::total_ops`.
    pub total_ops: u64,
    /// `RunResult::total_forwards`.
    pub total_forwards: u64,
    /// `RunResult::final_inodes`.
    pub final_inodes: u64,
}

impl Outputs {
    fn of(r: &RunResult) -> Outputs {
        Outputs {
            mean_iops: r.mean_iops(),
            mean_if: r.mean_if(),
            migrated_inodes: r.migrated_inodes(),
            total_ops: r.total_ops,
            total_forwards: r.total_forwards(),
            final_inodes: r.final_inodes as u64,
        }
    }
}

/// What one pass measured and produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Host times.
    pub timings: Timings,
    /// The simulated outputs the benchmark reports.
    pub outputs: Outputs,
    /// FNV-1a over the full `RunResult`'s `Debug` form: equal digests mean
    /// bit-identical results.
    pub digest: u64,
    /// Output checks that failed, described.
    pub failures: Vec<String>,
    /// Inodes when the simulation started.
    pub inodes_start: u64,
    /// Subtree-map entries after the last step.
    pub subtrees_end: u64,
    /// Client flows (cohorts) after the last step.
    pub flows_end: u64,
    /// Migrator counters read before `finish`.
    pub migration: MigrationCounters,
    /// The journal, on journaled workloads.
    pub journal: Option<Journal>,
    /// Layer totals, on traced passes.
    pub layers: Option<LayerTotals>,
}

/// How to run a pass.
pub struct PassSpec<'a> {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// Export the journal to JSONL (digest, size and time).
    pub export_journal: bool,
    /// Wrap trait objects and record spans into this recorder, tagged
    /// with the pass id.
    pub trace: Option<(&'a mut Recorder, u32)>,
}

/// Runs one pass.
pub fn run(spec: PassSpec<'_>) -> Outcome {
    let PassSpec {
        workload,
        seed,
        size,
        export_journal,
        mut trace,
    } = spec;
    let layers = trace.as_ref().map(|_| Layers::new());
    let mut timings = Timings::default();

    let t_pass = Instant::now();
    let inputs = workload.build(seed, size);
    let t_new = Instant::now();
    timings.build_ns = ns_between(t_pass, t_new);
    let telemetry = inputs.cfg.telemetry.clone();
    let epoch_secs = inputs.cfg.epoch_secs;
    let mut balancer = make_balancer(BalancerKind::Lunule, inputs.cfg.mds_capacity);
    let mut groups = inputs.groups;
    if let Some(l) = &layers {
        balancer = TracedBalancer::wrap(balancer, l);
        groups = groups
            .into_iter()
            .map(|(s, n)| (TracedStream::wrap(s, l), n))
            .collect();
    }
    let mut sim = Simulation::new_grouped(inputs.cfg, inputs.ns, balancer, groups);
    let t_built = Instant::now();
    timings.new_ns = ns_between(t_new, t_built);
    let inodes_start = sim.namespace().len() as u64;

    let mut totals = LayerTotals::default();
    let mut spans = SpanSink::new(&mut trace, layers.as_ref(), [t_pass, t_new, t_built]);
    if let Some(l) = &layers {
        totals.balancer_setup_ns = l.balancer_setup.read().ns;
    }
    let t_loop = Instant::now();
    let offered = |m: MigrationCounters| m.started_jobs + m.rejected_choices;
    loop {
        let before = spans.readings();
        let offered_before = offered(sim.migration_counters());
        let t0 = Instant::now();
        let stepped = sim.step();
        let dt = elapsed_ns(t0);
        if !stepped {
            break;
        }
        let kind = if !sim.now().is_multiple_of(epoch_secs) {
            StepKind::Plain
        } else if offered(sim.migration_counters()) > offered_before {
            StepKind::PlanEpoch
        } else {
            StepKind::Epoch
        };
        timings.step_ns.push(dt);
        timings.kind.push(kind);
        spans.step(t0, dt, before, &mut totals);
    }
    spans.span_loop(t_loop);

    let subtrees_end = sim.subtree_map().entry_count() as u64;
    let flows_end = sim.n_flows() as u64;
    let migration = sim.migration_counters();
    let inflight = sim.inflight_migrations();
    let journal_counts = telemetry.is_enabled().then(|| {
        ["migration_start", "migration_commit", "migration_abandon"]
            .map(|k| telemetry.count_kind(k))
    });
    let t_fin = Instant::now();
    let result = sim.finish();
    timings.finish_ns = elapsed_ns(t_fin);
    spans.finish(t_fin, timings.finish_ns, &mut totals);

    let mut failures = Vec::new();
    check_result(workload, inodes_start, &result, &mut failures);
    if migration.started_jobs != migration.completed_jobs + migration.abandoned_jobs + inflight {
        failures.push(format!(
            "migration ledger: started {} != completed {} + abandoned {} + in flight {}",
            migration.started_jobs, migration.completed_jobs, migration.abandoned_jobs, inflight
        ));
    }
    let journal = journal_counts.map(|counts| {
        check_journal(
            &telemetry,
            counts,
            &migration,
            export_journal,
            &mut failures,
        )
    });
    if totals.negative_self > 0 {
        failures.push(format!(
            "{} steps had negative self time",
            totals.negative_self
        ));
    }
    spans.close_pass(t_pass);
    Outcome {
        timings,
        digest: fnv1a64(format!("{result:?}").as_bytes()),
        outputs: Outputs::of(&result),
        failures,
        inodes_start,
        subtrees_end,
        flows_end,
        migration,
        journal,
        layers: layers.map(|_| totals),
    }
}

/// Checks that hold for every pass of every workload.
fn check_result(workload: Workload, inodes_start: u64, r: &RunResult, failures: &mut Vec<String>) {
    let served: u64 = r.per_mds_requests_total.iter().sum();
    if r.total_ops == 0 || served != r.total_ops {
        failures.push(format!(
            "served per rank sums to {served}, total ops {}",
            r.total_ops
        ));
    }
    let expected = if workload.creates() {
        inodes_start + r.total_ops
    } else {
        inodes_start
    };
    if r.final_inodes as u64 != expected {
        failures.push(format!(
            "final inodes {} != expected {expected} (start {inodes_start})",
            r.final_inodes
        ));
    }
}

/// Journal checks: `(t, seq)` stamps strictly increase, and the migration
/// event counts (read before `finish`) equal the migrator's counters.
fn check_journal(
    telemetry: &lunule_telemetry::Telemetry,
    [starts, commits, abandons]: [u64; 3],
    m: &MigrationCounters,
    export: bool,
    failures: &mut Vec<String>,
) -> Journal {
    let snap = telemetry
        .snapshot()
        .expect("a journaled workload runs with telemetry enabled");
    let stamps_ok = snap
        .events
        .windows(2)
        .all(|w| (w[0].t, w[0].seq) < (w[1].t, w[1].seq));
    if !stamps_ok {
        failures.push("journal (t, seq) stamps do not strictly increase".to_string());
    }
    if (starts, commits, abandons) != (m.started_jobs, m.completed_jobs, m.abandoned_jobs) {
        failures.push(format!(
            "journal migration events start/commit/abandon {starts}/{commits}/{abandons} != \
             migrator {}/{}/{}",
            m.started_jobs, m.completed_jobs, m.abandoned_jobs
        ));
    }
    let mut journal = Journal {
        events: snap.events.len() as u64,
        ..Journal::default()
    };
    if export {
        let t0 = Instant::now();
        let text = events_jsonl(&snap);
        journal.export_ns = elapsed_ns(t0);
        journal.bytes = text.len() as u64;
        journal.digest = fnv1a64(text.as_bytes());
    }
    journal
}

/// Turns a traced pass's meter readings into spans. Inert on untraced
/// passes, so the untraced loop does no more than read the clock.
struct SpanSink<'r, 'a> {
    rec: Option<(&'r mut Recorder, u32)>,
    layers: Option<&'a Arc<Layers>>,
    pass_span: Option<u32>,
    loop_span: Option<u32>,
}

/// Meter readings at one instant: next_op, stream_other, record_access,
/// balancer_other.
type Readings = [MeterReading; 4];

impl<'r, 'a> SpanSink<'r, 'a> {
    fn new(
        trace: &'r mut Option<(&'a mut Recorder, u32)>,
        layers: Option<&'a Arc<Layers>>,
        [t_pass, t_new, t_built]: [Instant; 3],
    ) -> Self {
        let rec = trace.as_mut().map(|(r, p)| (&mut **r, *p));
        let mut sink = SpanSink {
            rec,
            layers,
            pass_span: None,
            loop_span: None,
        };
        if let (Some((rec, pass)), Some(l)) = (sink.rec.as_mut(), layers) {
            let pass = *pass;
            let (p0, n0, now) = (rec.at(t_pass), rec.at(t_new), rec.at(t_built));
            // The pass span's end is patched in `close_pass`.
            let root = rec.push("pass", None, pass, (p0, p0), 1);
            let setup = rec.push("setup", Some(root), pass, (p0, now), 1);
            rec.push("workloads.build", Some(setup), pass, (p0, n0), 1);
            let new = rec.push("sim.new", Some(setup), pass, (n0, now), 1);
            let s = l.balancer_setup.read().ns;
            rec.push("core.setup", Some(new), pass, (n0, n0 + s), 1);
            sink.pass_span = Some(root);
            let loop_span = rec.push("sim.run", Some(root), pass, (now, now), 1);
            sink.loop_span = Some(loop_span);
        }
        sink
    }

    fn readings(&self) -> Readings {
        match self.layers {
            Some(l) => [
                l.next_op.read(),
                l.stream_other.read(),
                l.record_access.read(),
                l.balancer_other.read(),
            ],
            None => Readings::default(),
        }
    }

    /// Records one step and its children, and adds its layer times to
    /// `totals`.
    fn step(&mut self, t0: Instant, dt: u64, before: Readings, totals: &mut LayerTotals) {
        let after = self.readings();
        let (Some((rec, pass)), Some(l)) = (self.rec.as_mut(), self.layers) else {
            return;
        };
        let pass = *pass;
        let d: Vec<MeterReading> = after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.since(*b))
            .collect();
        let epochs = l.take_epochs();
        let start = rec.at(t0);
        let step = rec.push("sim.step", self.loop_span, pass, (start, start + dt), 1);
        // Per-op calls precede the epoch close within a tick, so their
        // aggregate spans are laid end to end from the step's start.
        let mut at = start;
        for (name, r) in [
            ("core.record_access", d[2]),
            ("workloads.next_op", d[0]),
            ("workloads.stream_other", d[1]),
            ("core.other", d[3]),
        ] {
            if r.calls > 0 {
                rec.push(name, Some(step), pass, (at, at + r.ns), r.calls);
                at += r.ns;
            }
        }
        let mut epoch_ns = 0;
        for e in &epochs {
            let span = (rec.at(e.start), rec.at(e.end));
            rec.push("core.on_epoch", Some(step), pass, span, 1);
            epoch_ns += span.1 - span.0;
            totals.on_epoch_ns.push(span.1 - span.0);
            totals.plan_subtrees += e.plan_subtrees;
        }
        let adds = |acc: &mut MeterReading, r: MeterReading| {
            acc.calls += r.calls;
            acc.units += r.units;
            acc.ns += r.ns;
        };
        adds(&mut totals.next_op, d[0]);
        adds(&mut totals.stream_other, d[1]);
        adds(&mut totals.record_access, d[2]);
        adds(&mut totals.balancer_other, d[3]);
        let children = d.iter().map(|r| r.ns).sum::<u64>() + epoch_ns;
        match dt.checked_sub(children) {
            Some(own) => totals.sim_self_ns += own,
            None => totals.negative_self += 1,
        }
    }

    fn span_loop(&mut self, t_loop: Instant) {
        if let (Some((rec, _)), Some(id)) = (self.rec.as_mut(), self.loop_span) {
            let (start, end) = (rec.at(t_loop), rec.at(Instant::now()));
            rec.set_bounds(id, start, end);
        }
    }

    fn finish(&mut self, t_fin: Instant, dt: u64, totals: &mut LayerTotals) {
        let (Some((rec, pass)), Some(l), Some(root)) =
            (self.rec.as_mut(), self.layers, self.pass_span)
        else {
            return;
        };
        let pass = *pass;
        let start = rec.at(t_fin);
        let fin = rec.push("sim.finish", Some(root), pass, (start, start + dt), 1);
        for e in l.take_epochs() {
            rec.push(
                "core.on_epoch",
                Some(fin),
                pass,
                (rec.at(e.start), rec.at(e.end)),
                1,
            );
            totals.on_epoch_in_finish += 1;
            totals.plan_subtrees += e.plan_subtrees;
        }
    }

    fn close_pass(&mut self, t_pass: Instant) {
        if let (Some((rec, _)), Some(id)) = (self.rec.as_mut(), self.pass_span) {
            let (start, end) = (rec.at(t_pass), rec.at(Instant::now()));
            rec.set_bounds(id, start, end);
        }
    }
}
