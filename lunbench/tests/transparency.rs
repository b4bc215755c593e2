//! The tracing adapters must be transparent: a traced pass of every
//! workload yields the same simulated results (and, on `create_md`, the same
//! journal bytes) as an untraced one. An adapter that fell back to a trait
//! default — `record_access_n` looping over `record_access` instead of
//! reaching Lunule's batched override, or `try_clone_box` returning `None`
//! so `new_grouped` cannot split cohorts — is caught here.

use lunbench::pass::{run, Outcome, PassSpec};
use lunbench::report::Split;
use lunbench::trace::{self_times, Recorder};
use lunbench::workload::{Size, Workload};

const SEED: u64 = 7;

fn plain_and_traced(workload: Workload) -> (Outcome, Outcome, Recorder) {
    let plain = run(PassSpec {
        workload,
        seed: SEED,
        size: Size::Small,
        export_journal: true,
        trace: None,
    });
    let mut rec = Recorder::new();
    let traced = run(PassSpec {
        workload,
        seed: SEED,
        size: Size::Small,
        export_journal: true,
        trace: Some((&mut rec, 1)),
    });
    (plain, traced, rec)
}

fn assert_transparent(workload: Workload) -> Outcome {
    let (plain, traced, rec) = plain_and_traced(workload);
    assert!(plain.failures.is_empty(), "{:?}", plain.failures);
    assert!(traced.failures.is_empty(), "{:?}", traced.failures);
    assert_eq!(plain.digest, traced.digest, "{}", workload.name());
    assert_eq!(plain.outputs, traced.outputs);

    let split = Split::of(&traced).expect("traced pass has layer totals");
    assert_eq!(split.parts_sum(), split.step_ns);
    assert!(self_times(rec.spans()).iter().all(|&t| t >= 0));
    let layers = traced.layers.as_ref().expect("traced");
    assert_eq!(
        layers.record_access.units, traced.outputs.total_ops,
        "every served op reaches the balancer through the adapter"
    );
    assert!(layers.next_op.calls > 0);
    traced
}

#[test]
fn zipf_read_is_unchanged_by_tracing() {
    assert_transparent(Workload::ZipfRead);
}

#[test]
fn create_md_is_unchanged_by_tracing_journal_included() {
    let (plain, traced, _) = plain_and_traced(Workload::CreateMd);
    let (pj, tj) = (plain.journal.unwrap(), traced.journal.unwrap());
    assert!(pj.bytes > 0 && pj.events > 0);
    assert_eq!((pj.bytes, pj.digest), (tj.bytes, tj.digest));
    let traced = assert_transparent(Workload::CreateMd);
    let layers = traced.layers.unwrap();
    assert!(
        layers.stream_other.calls > 0,
        "on_created reaches the streams"
    );
}

#[test]
fn wide_m128_is_unchanged_by_tracing() {
    let traced = assert_transparent(Workload::WideM128);
    let layers = traced.layers.unwrap();
    // Cohorts batch their accesses: fewer calls than ops proves the
    // adapter forwards `record_access_n` to the balancer's override.
    assert!(
        layers.record_access.calls < layers.record_access.units,
        "{:?}",
        layers.record_access
    );
    // Cohort splits clone streams through the adapter.
    assert!(layers.stream_other.calls > 0);
    assert!(traced.outputs.total_forwards > 0);
}
