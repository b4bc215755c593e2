//! Turning pass outcomes into the benchmark's metrics.

use crate::pass::{LayerTotals, Outcome, StepKind};
use crate::stats::{median, quartiles, tail, Tail};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Value.
    pub value: f64,
    /// How the value was formed (sample count, quartiles, percentile).
    pub note: String,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, better: Better, value: f64) -> Metric {
        Metric {
            name,
            unit,
            better,
            value,
            note: String::new(),
        }
    }

    fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    /// The human-readable line the benchmark prints.
    pub fn line(&self) -> String {
        let mut s = format!(
            "{:<32} {:>16.6} {:<8} ({} is better)",
            self.name,
            self.value,
            self.unit,
            self.better.word()
        );
        if !self.note.is_empty() {
            s.push_str("  ");
            s.push_str(&self.note);
        }
        s
    }
}

/// The result line: every metric's value with its unit, as one JSON
/// object. Values print with all their digits (shortest round-trip form).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

fn spread_note(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some((q1, q3)) => format!("median of {} passes, q1 {q1:.6} q3 {q3:.6}", xs.len()),
        None => format!("median of {} passes", xs.len()),
    }
}

fn tail_note(t: &Tail) -> String {
    format!(
        "p{} of {} samples, {} beyond",
        t.percentile, t.count, t.beyond
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

/// Host times (ms) of the steps whose kind satisfies `want`, pooled over
/// `passes`.
fn step_ms(passes: &[Outcome], want: impl Fn(StepKind) -> bool) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|o| o.timings.step_ns.iter().zip(&o.timings.kind))
        .filter(|(_, k)| want(**k))
        .map(|(ns, _)| ns_to_ms(*ns))
        .collect()
}

/// Host-probe time of the reference host state, ms.
pub const PROBE_REF_MS: f64 = 40.0;

/// How strongly the simulator's host time follows the host probe. Over two
/// sets of ten runs per workload, the run-level elasticity against the
/// run's median probe was 1.4–2.0 for `ticks_per_s` and 1.0–1.6 for
/// `plan_tick_p50_ms` (see README.md).
pub const HOST_EXPONENT: f64 = 1.5;

/// How much slower than the reference state a run's host was, from the
/// run's median probe.
pub fn host_slowdown(probe_median_ms: f64) -> f64 {
    (probe_median_ms / PROBE_REF_MS).powf(HOST_EXPONENT)
}

fn host_note(raw: &[f64], how: &str, slowdown: f64) -> String {
    format!(
        "raw {}; {how} host slowdown {slowdown:.4}",
        spread_note(raw)
    )
}

/// The end-to-end metrics of an untraced invocation. `measured` excludes
/// the warm-up pass; `peak_rss_kb` is the process's high-water mark;
/// `probe_median_ms` is the median host probe of the run. Host times are
/// medians over passes, expressed at the reference host state: divided by
/// [`host_slowdown`] (rates multiplied by it).
pub fn end_to_end(measured: &[Outcome], peak_rss_kb: u64, probe_median_ms: f64) -> Vec<Metric> {
    let slowdown = host_slowdown(probe_median_ms);
    let tps: Vec<f64> = measured
        .iter()
        .map(|o| o.timings.step_ns.len() as f64 / ns_to_s(o.timings.loop_ns()))
        .collect();
    let setup: Vec<f64> = measured
        .iter()
        .map(|o| ns_to_s(o.timings.setup_ns()))
        .collect();
    let plan_ms = step_ms(measured, |k| k == StepKind::PlanEpoch);
    // The simulated outputs are identical on every pass (checked), so the
    // first pass speaks for all.
    let r = &measured[0].outputs;
    vec![
        Metric::new("ticks_per_s", "1/s", Better::Higher, med(&tps) * slowdown).note(host_note(
            &tps,
            "multiplied by",
            slowdown,
        )),
        Metric::new(
            "plan_tick_p50_ms",
            "ms",
            Better::Lower,
            med(&plan_ms) / slowdown,
        )
        .note(format!(
            "raw median {:.6} of {} steps closing an epoch with a migration plan; \
             divided by host slowdown {slowdown:.4}",
            med(&plan_ms),
            plan_ms.len()
        )),
        Metric::new("setup_s", "s", Better::Lower, med(&setup) / slowdown).note(host_note(
            &setup,
            "divided by",
            slowdown,
        )),
        Metric::new(
            "peak_rss_mb",
            "MB",
            Better::Lower,
            peak_rss_kb as f64 / 1024.0,
        )
        .note("VmHWM, includes the 16 MiB host probe"),
        Metric::new("sim_iops", "ops/s", Better::Higher, r.mean_iops)
            .note("simulated, exact for the seed"),
        Metric::new("mean_if", "ratio", Better::Lower, r.mean_if)
            .note("simulated, exact for the seed"),
        Metric::new(
            "migrated_inodes",
            "count",
            Better::Lower,
            r.migrated_inodes as f64,
        )
        .note("simulated, exact for the seed"),
        Metric::new(
            "mds_requests_per_op",
            "ratio",
            Better::Lower,
            (r.total_ops + r.total_forwards) as f64 / r.total_ops as f64,
        )
        .note(format!(
            "simulated: ({} ops + {} forwards) / {} ops",
            r.total_ops, r.total_forwards, r.total_ops
        )),
    ]
}

/// The split of one traced pass's step time into self time and the
/// layers its adapters measured. The parts sum to `step_ns` exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Split {
    /// Total `step()` time.
    pub step_ns: u64,
    /// Simulator self time.
    pub sim_self_ns: u64,
    /// `on_epoch`.
    pub on_epoch_ns: u64,
    /// `record_access[_n]`.
    pub record_access_ns: u64,
    /// `next_op` and the other stream calls.
    pub streams_ns: u64,
    /// Other balancer calls made while stepping.
    pub balancer_other_ns: u64,
}

impl Split {
    /// The split of a traced pass.
    pub fn of(o: &Outcome) -> Option<Split> {
        let l: &LayerTotals = o.layers.as_ref()?;
        Some(Split {
            step_ns: o.timings.loop_ns(),
            sim_self_ns: l.sim_self_ns,
            on_epoch_ns: l.on_epoch_ns.iter().sum(),
            record_access_ns: l.record_access.ns,
            streams_ns: l.next_op.ns + l.stream_other.ns,
            balancer_other_ns: l.balancer_other.ns,
        })
    }

    /// Sum of the parts.
    pub fn parts_sum(&self) -> u64 {
        self.sim_self_ns
            + self.on_epoch_ns
            + self.record_access_ns
            + self.streams_ns
            + self.balancer_other_ns
    }

    /// Printable lines, one per part with its share.
    pub fn lines(&self) -> Vec<String> {
        let share = |ns: u64| 100.0 * ns as f64 / self.step_ns.max(1) as f64;
        let mut out = vec![format!(
            "split of sim.step_s = {:.6} s (median traced pass):",
            ns_to_s(self.step_ns)
        )];
        for (name, ns) in [
            ("sim self", self.sim_self_ns),
            ("core.on_epoch", self.on_epoch_ns),
            ("core.record_access", self.record_access_ns),
            ("workloads.next_op + stream calls", self.streams_ns),
            ("core other calls", self.balancer_other_ns),
        ] {
            out.push(format!(
                "  {name:<34} {:>12.6} s {:>6.2}%",
                ns_to_s(ns),
                share(ns)
            ));
        }
        out.push(format!(
            "  parts sum {:.6} s == sim.step_s {:.6} s: {}",
            ns_to_s(self.parts_sum()),
            ns_to_s(self.step_ns),
            self.parts_sum() == self.step_ns
        ));
        out
    }
}

/// The traced pass with the median step time (lower median).
pub fn median_pass(traced: &[Outcome]) -> &Outcome {
    let mut idx: Vec<usize> = (0..traced.len()).collect();
    idx.sort_by_key(|&i| traced[i].timings.loop_ns());
    &traced[idx[(idx.len() - 1) / 2]]
}

/// The per-layer metrics of a traced invocation. `traced` are the traced
/// passes, `plain` the untraced measured passes interleaved with them,
/// `probes_ms` every host-probe reading of the invocation.
pub fn per_layer(traced: &[Outcome], plain: &[Outcome], probes_ms: &[f64]) -> Vec<Metric> {
    let lay = |o: &Outcome| o.layers.clone().unwrap_or_default();
    let per = |f: &dyn Fn(&Outcome) -> f64| -> Vec<f64> { traced.iter().map(f).collect() };
    let m = |name, unit, better, xs: Vec<f64>| {
        Metric::new(name, unit, better, med(&xs)).note(spread_note(&xs))
    };
    let first = &traced[0];
    let fl = lay(first);
    let r = &first.outputs;
    let ops = r.total_ops as f64;
    let mid = median_pass(traced);
    let split = Split::of(mid).unwrap_or_default();

    let on_epoch_ms: Vec<f64> = traced
        .iter()
        .flat_map(|o| lay(o).on_epoch_ns.into_iter().map(ns_to_ms))
        .collect();
    let tail_metric = |name, xs: &[f64]| match tail(xs) {
        Some(t) => Metric::new(name, "ms", Better::Lower, t.value).note(tail_note(&t)),
        None => Metric::new(name, "ms", Better::Lower, 0.0).note("no samples"),
    };
    let plain_tick_us: Vec<f64> = step_ms(traced, |k| k == StepKind::Plain)
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let count = |kind: StepKind| first.timings.kind.iter().filter(|k| **k == kind).count() as f64;
    let mig = first.migration;
    let journal = first.journal.clone().unwrap_or_default();
    let loop_traced: Vec<f64> = traced.iter().map(|o| o.timings.loop_ns() as f64).collect();
    let loop_plain: Vec<f64> = plain.iter().map(|o| o.timings.loop_ns() as f64).collect();

    use Better::{Higher, Lower};
    vec![
        // workloads
        m(
            "workloads.build_s",
            "s",
            Lower,
            per(&|o| ns_to_s(o.timings.build_ns)),
        ),
        Metric::new(
            "workloads.next_op_calls",
            "count",
            Lower,
            fl.next_op.calls as f64,
        ),
        m(
            "workloads.next_op_ns",
            "ns",
            Lower,
            per(&|o| {
                let l = lay(o);
                ratio(l.next_op.ns as f64, l.next_op.calls as f64)
            }),
        ),
        Metric::new(
            "workloads.calls_per_op",
            "ratio",
            Lower,
            ratio(fl.next_op.calls as f64, ops),
        ),
        // namespace
        Metric::new(
            "namespace.inodes_start",
            "count",
            Lower,
            first.inodes_start as f64,
        ),
        Metric::new(
            "namespace.inodes_end",
            "count",
            Lower,
            r.final_inodes as f64,
        ),
        Metric::new(
            "namespace.subtrees_end",
            "count",
            Lower,
            first.subtrees_end as f64,
        ),
        Metric::new(
            "namespace.forwards",
            "count",
            Lower,
            r.total_forwards as f64,
        ),
        // core
        m(
            "core.setup_s",
            "s",
            Lower,
            per(&|o| ns_to_s(lay(o).balancer_setup_ns)),
        ),
        Metric::new(
            "core.record_access_calls",
            "count",
            Lower,
            fl.record_access.calls as f64,
        ),
        Metric::new(
            "core.record_access_ops",
            "count",
            Lower,
            fl.record_access.units as f64,
        ),
        Metric::new(
            "core.ops_per_record_call",
            "ratio",
            Higher,
            ratio(fl.record_access.units as f64, fl.record_access.calls as f64),
        ),
        m(
            "core.record_access_ns_per_op",
            "ns",
            Lower,
            per(&|o| {
                let l = lay(o);
                ratio(l.record_access.ns as f64, l.record_access.units as f64)
            }),
        ),
        Metric::new(
            "core.on_epoch_calls",
            "count",
            Lower,
            (fl.on_epoch_ns.len() as u64 + fl.on_epoch_in_finish) as f64,
        )
        .note(format!("{} in finish", fl.on_epoch_in_finish)),
        Metric::new("core.on_epoch_s", "s", Lower, ns_to_s(split.on_epoch_ns))
            .note("median traced pass"),
        Metric::new("core.on_epoch_p50_ms", "ms", Lower, med(&on_epoch_ms))
            .note(format!("median of {} calls", on_epoch_ms.len())),
        tail_metric("core.on_epoch_tail_ms", &on_epoch_ms),
        Metric::new(
            "core.on_epoch_share",
            "ratio",
            Lower,
            split.on_epoch_ns as f64 / split.step_ns.max(1) as f64,
        )
        .note("of sim.step_s, median traced pass"),
        Metric::new(
            "core.plan_subtrees",
            "count",
            Lower,
            fl.plan_subtrees as f64,
        ),
        // sim
        m("sim.new_s", "s", Lower, per(&|o| ns_to_s(o.timings.new_ns))),
        Metric::new(
            "sim.ticks",
            "count",
            Lower,
            first.timings.step_ns.len() as f64,
        ),
        Metric::new(
            "sim.epoch_ticks",
            "count",
            Lower,
            count(StepKind::Epoch) + count(StepKind::PlanEpoch),
        ),
        Metric::new("sim.plan_ticks", "count", Lower, count(StepKind::PlanEpoch)),
        Metric::new("sim.step_s", "s", Lower, ns_to_s(split.step_ns)).note("median traced pass"),
        Metric::new("sim.self_s", "s", Lower, ns_to_s(split.sim_self_ns))
            .note("median traced pass"),
        Metric::new(
            "sim.self_ns_per_op",
            "ns",
            Lower,
            split.sim_self_ns as f64 / ops,
        )
        .note("median traced pass"),
        Metric::new("sim.plain_tick_p50_us", "us", Lower, med(&plain_tick_us))
            .note(format!("median of {} steps", plain_tick_us.len())),
        tail_metric(
            "sim.epoch_tick_tail_ms",
            &step_ms(traced, |k| k != StepKind::Plain),
        ),
        tail_metric("sim.tick_tail_ms", &step_ms(traced, |_| true)),
        m(
            "sim.finish_ms",
            "ms",
            Lower,
            per(&|o| ns_to_ms(o.timings.finish_ns)),
        ),
        Metric::new("sim.flows_end", "count", Lower, first.flows_end as f64),
        Metric::new("sim.ops", "count", Higher, ops),
        // migration
        Metric::new("migration.started", "count", Lower, mig.started_jobs as f64),
        Metric::new(
            "migration.completed",
            "count",
            Lower,
            mig.completed_jobs as f64,
        ),
        Metric::new(
            "migration.abandoned",
            "count",
            Lower,
            mig.abandoned_jobs as f64,
        ),
        Metric::new(
            "migration.rejected_choices",
            "count",
            Lower,
            mig.rejected_choices as f64,
        ),
        Metric::new(
            "migration.commit_ratio",
            "ratio",
            Higher,
            ratio(mig.completed_jobs as f64, mig.started_jobs as f64),
        )
        .note("completed / started; 1 when none started"),
        Metric::new(
            "migration.accept_ratio",
            "ratio",
            Higher,
            ratio(
                mig.started_jobs as f64,
                (mig.started_jobs + mig.rejected_choices) as f64,
            ),
        )
        .note("started / (started + rejected); 1 when none offered"),
        // telemetry
        Metric::new("telemetry.events", "count", Lower, journal.events as f64),
        Metric::new(
            "telemetry.journal_bytes",
            "bytes",
            Lower,
            journal.bytes as f64,
        ),
        m(
            "telemetry.export_ms",
            "ms",
            Lower,
            per(&|o| ns_to_ms(o.journal.as_ref().map_or(0, |j| j.export_ns))),
        ),
        // host / trace
        Metric::new("host.probe_ms", "ms", Lower, med(probes_ms)).note(spread_note(probes_ms)),
        Metric::new(
            "trace.overhead",
            "ratio",
            Lower,
            med(&loop_traced) / med(&loop_plain),
        )
        .note(format!(
            "median traced loop over median untraced loop, {} / {} passes",
            loop_traced.len(),
            loop_plain.len()
        )),
    ]
}
