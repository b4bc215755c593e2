//! Differential equivalence of the cohort client engine.
//!
//! The cohort engine's correctness claim is *byte-identity*, twice over:
//!
//! 1. **Cohort vs golden table** — for every case of the matrix below, the
//!    engine must reproduce exactly the telemetry journal, metrics export
//!    and headline results recorded in [`GOLDEN`]. The table is the
//!    differential oracle; see its provenance note.
//! 2. **Live cohort-vs-cohort comparisons** — the sharded route-resolution
//!    fan-out may change wall time only, never a journal byte (jobs 1 vs
//!    N), and a population built as shared-stream cohorts must journal
//!    exactly like the same population expanded one client at a time.
//!
//! The matrix runs seeds × fault schedules × simulator knobs (memory
//! pressure, data path) over a mixed read/create/remove workload, a wide
//! population past the parallel-resolve cutoff, grouped construction, and
//! grouped populations that creates or a starved data path split apart.

use lunule_core::{make_balancer, BalancerKind};
use lunule_faults::FaultPlan;
use lunule_namespace::{InodeId, MdsRank, Namespace};
use lunule_sim::{DataPathConfig, FixedStream, MetaOp, OpStream, SimConfig, Simulation};
use lunule_telemetry::{events_jsonl, metrics_csv, Telemetry};
use lunule_util::codec::fnv1a64;

const DIRS: usize = 6;
const FILES: usize = 12;
/// File slots 0..REMOVE_POOL are reserved as per-client removal victims;
/// reads only ever touch slots at or above it. Removes must be
/// client-unique AND never read afterwards: a second remove (or a read of
/// the tombstone) is stale and trips debug asserts.
const REMOVE_POOL: usize = 4;

/// One recorded outcome: FNV-1a and byte length of the events JSONL,
/// FNV-1a of the metrics CSV, total ops served, and per-rank requests.
struct Golden {
    case: &'static str,
    journal_fnv: u64,
    journal_len: usize,
    metrics_fnv: u64,
    total_ops: u64,
    per_mds_requests: &'static [u64],
}

/// The oracle.
///
/// Provenance: recorded at commit f433756 from the one-struct-per-client
/// engine, which this crate then carried beside the cohort engine (one
/// `Client` stepped per client per round, with its own data-path and stall
/// loops). At that commit the cohort engine matched every row
/// byte-for-byte, and the per-client engine was then deleted. The metrics
/// digests were collected through the telemetry crate's SPSC ring path,
/// which has since been replaced by direct recording.
///
/// Re-capturing after an intentional behaviour change: run
/// `cargo test --release -p lunule-sim --test cohort_equivalence`. The
/// failing golden test prints the whole recomputed table in this source
/// form. Paste it over the rows below, and record in CHANGES.md why the
/// behaviour changed and that the new rows come from the cohort engine,
/// not from an independent one.
#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    row("seed7/quiet/plain", 0xeaa35c8d2c2ac35d, 5534, 0xeae5c80b4563be8d, 200, &[180, 20, 0]),
    row("seed7/quiet/memory", 0x039e03a28cd0695b, 6005, 0xeb0ad75efc181e2e, 200, &[90, 90, 20]),
    row("seed7/quiet/datapath", 0xeaa35c8d2c2ac35d, 5534, 0xeae5c80b4563be8d, 200, &[180, 20, 0]),
    row("seed7/chaotic/plain", 0xe54f43a947b63841, 5786, 0x61564d427327008e, 200, &[200, 0, 0]),
    row("seed7/chaotic/memory", 0x51d80155ab036fce, 6036, 0x0524d6be7881a87a, 200, &[200, 0, 0]),
    row("seed7/chaotic/datapath", 0xe54f43a947b63841, 5786, 0x61564d427327008e, 200, &[200, 0, 0]),
    row("seed42/quiet/plain", 0xeaa35c8d2c2ac35d, 5534, 0x9406dde73d6b1024, 200, &[180, 20, 0]),
    row("seed42/quiet/memory", 0xdddfe40daa1a22f7, 6001, 0xd189dc46d993c864, 200, &[90, 90, 20]),
    row("seed42/quiet/datapath", 0xeaa35c8d2c2ac35d, 5534, 0x9406dde73d6b1024, 200, &[180, 20, 0]),
    row("seed42/chaotic/plain", 0xe54f43a947b63841, 5786, 0x68747f5f09e8caed, 200, &[200, 0, 0]),
    row("seed42/chaotic/memory", 0x51d80155ab036fce, 6036, 0x501fdae9476c8cbb, 200, &[200, 0, 0]),
    row("seed42/chaotic/datapath", 0xe54f43a947b63841, 5786, 0x68747f5f09e8caed, 200, &[200, 0, 0]),
    row("wide320/seed13", 0xf044b98ee35b2919, 7514, 0xbe7ca2c000dca06a, 1680, &[373, 691, 616]),
    row("grouped_vs_expanded/seed7", 0x45348254bc797e5e, 5480, 0x6c34e13887aee209, 54, &[54, 0, 0]),
    row("grouped_creates/seed11", 0x02490833d5f3a9b2, 5032, 0xacf3f989c7a8c773, 30, &[30, 0, 0]),
    row("grouped_datapath/bw20_win8", 0x2d8134ddfb82edd7, 5343, 0xcfc999d3baaccc5d, 54, &[54, 0, 0]),
    row("grouped_datapath/bw37_win16", 0xf022c7305e70f636, 5178, 0x42cd5050d1e0f4ea, 54, &[54, 0, 0]),
];

const fn row(
    case: &'static str,
    journal_fnv: u64,
    journal_len: usize,
    metrics_fnv: u64,
    total_ops: u64,
    per_mds_requests: &'static [u64],
) -> Golden {
    Golden {
        case,
        journal_fnv,
        journal_len,
        metrics_fnv,
        total_ops,
        per_mds_requests,
    }
}

/// An op stream replaying an explicit script of mixed metadata ops —
/// `FixedStream` only reads, and equivalence wants creates and removes in
/// the mix too.
#[derive(Clone, Debug)]
struct ScriptStream {
    ops: Vec<MetaOp>,
    pos: usize,
}

impl ScriptStream {
    fn new(ops: Vec<MetaOp>) -> Self {
        ScriptStream { ops, pos: 0 }
    }
}

impl OpStream for ScriptStream {
    fn next_op(&mut self, _ns: &Namespace) -> Option<MetaOp> {
        let op = self.ops.get(self.pos).copied();
        if op.is_some() {
            self.pos += 1;
        }
        op
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.ops.len() as u64)
    }

    fn try_clone_box(&self) -> Option<Box<dyn OpStream>> {
        Some(Box::new(self.clone()))
    }
}

/// `DIRS` directories with `FILES` files each; returns the dir ids and
/// the file ids grouped by directory. Deterministic, so separate calls
/// yield id-compatible namespaces.
fn fixture() -> (Namespace, Vec<InodeId>, Vec<Vec<InodeId>>) {
    let mut ns = Namespace::new();
    let mut dirs = Vec::new();
    let files = (0..DIRS)
        .map(|d| {
            let dir = ns.mkdir(InodeId::ROOT, &format!("d{d}")).unwrap();
            dirs.push(dir);
            (0..FILES)
                .map(|f| ns.create_file(dir, &format!("f{f}"), 8).unwrap())
                .collect()
        })
        .collect();
    (ns, dirs, files)
}

/// A mixed per-client script: reads spread over the shared pool, a few
/// creates under live directories, and one remove of a file only this
/// client ever touches.
fn script_for(client: usize, dirs: &[InodeId], files: &[Vec<InodeId>], seed: u64) -> Vec<MetaOp> {
    let mut ops = Vec::new();
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(((client as u64) << 7) | 1);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for k in 0..16 {
        let d = (next() as usize) % DIRS;
        let f = REMOVE_POOL + (next() as usize) % (FILES - REMOVE_POOL);
        ops.push(MetaOp::Read(files[d][f]));
        if k % 5 == 3 {
            ops.push(MetaOp::Create {
                parent: dirs[(next() as usize) % DIRS],
                size: 64,
            });
        }
    }
    // Client c's victim: dir (c mod DIRS), file slot (c div DIRS) — unique
    // per client for populations up to DIRS * REMOVE_POOL members.
    let d = client % DIRS;
    let f = client / DIRS;
    assert!(f < REMOVE_POOL, "population too large for the victim pool");
    ops.push(MetaOp::Remove(files[d][f]));
    ops
}

fn base_cfg(seed: u64) -> SimConfig {
    SimConfig {
        n_mds: 3,
        mds_capacity: 60.0,
        epoch_secs: 3,
        duration_secs: 21,
        stop_when_done: false,
        migration_bw: 1_000.0,
        migration_freeze_secs: 1,
        client_rate: 6.0,
        client_cache_cap: 8,
        seed,
        telemetry: Telemetry::enabled(),
        ..SimConfig::default()
    }
}

fn streams_for(n: usize, seed: u64) -> Vec<Box<dyn OpStream>> {
    let (_, dirs, files) = fixture();
    (0..n)
        .map(|c| {
            Box::new(ScriptStream::new(script_for(c, &dirs, &files, seed))) as Box<dyn OpStream>
        })
        .collect()
}

/// What one run produced: the exported journal and metrics, the headline
/// result numbers, and how the population ended up aggregated.
struct Outcome {
    journal: String,
    metrics: String,
    total_ops: u64,
    per_mds_requests: Vec<u64>,
    n_clients: usize,
    final_flows: usize,
}

impl Outcome {
    /// This outcome as a [`GOLDEN`] row, in source form.
    fn as_row(&self, case: &str) -> String {
        format!(
            "    row({case:?}, {:#018x}, {}, {:#018x}, {}, &{:?}),",
            fnv1a64(self.journal.as_bytes()),
            self.journal.len(),
            fnv1a64(self.metrics.as_bytes()),
            self.total_ops,
            self.per_mds_requests,
        )
    }

    fn matches(&self, g: &Golden) -> bool {
        fnv1a64(self.journal.as_bytes()) == g.journal_fnv
            && self.journal.len() == g.journal_len
            && fnv1a64(self.metrics.as_bytes()) == g.metrics_fnv
            && self.total_ops == g.total_ops
            && self.per_mds_requests == g.per_mds_requests
    }
}

/// Runs one simulation to its configured duration. Each group is
/// `(stream, member count)`; telemetry is always on.
fn run(cfg: SimConfig, jobs: usize, groups: Vec<(Box<dyn OpStream>, u64)>) -> Outcome {
    let (ns, _, _) = fixture();
    let cfg = SimConfig {
        jobs,
        telemetry: Telemetry::enabled(),
        ..cfg
    };
    let tel = cfg.telemetry.clone();
    let balancer = make_balancer(BalancerKind::Lunule, cfg.mds_capacity);
    let mut sim = Simulation::new_grouped(cfg, ns, balancer, groups);
    sim.run_until(u64::MAX);
    let snap = tel.snapshot().unwrap();
    let (n_clients, final_flows) = (sim.n_clients(), sim.n_flows());
    let r = sim.finish();
    Outcome {
        journal: events_jsonl(&snap),
        metrics: metrics_csv(&snap),
        total_ops: r.total_ops,
        per_mds_requests: r.per_mds_requests_total,
        n_clients,
        final_flows,
    }
}

/// One client per stream, as [`Simulation::new`] builds them.
fn singletons(streams: Vec<Box<dyn OpStream>>) -> Vec<(Box<dyn OpStream>, u64)> {
    streams.into_iter().map(|s| (s, 1)).collect()
}

/// A wide population of read-only clients, every script distinct so no two
/// cohorts ever merge. Read-only keeps multi-member explosion out of the
/// way: the point is a *large* per-round resolve batch.
fn wide_streams(n: usize, seed: u64) -> Vec<Box<dyn OpStream>> {
    let (_, _, files) = fixture();
    (0..n)
        .map(|c| {
            let mut x = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(((c as u64) << 9) | 1);
            let ops: Vec<MetaOp> = (0..20)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let d = (x as usize) % DIRS;
                    let f = REMOVE_POOL + ((x >> 32) as usize) % (FILES - REMOVE_POOL);
                    MetaOp::Read(files[d][f])
                })
                .collect();
            Box::new(ScriptStream::new(ops)) as Box<dyn OpStream>
        })
        .collect()
}

/// The two read lists of the grouped population: five readers of one
/// file per directory, three readers of the second directory's files.
fn grouped_lists() -> (Vec<InodeId>, Vec<InodeId>) {
    let (_, _, files) = fixture();
    let read_list = files.iter().map(|d| d[REMOVE_POOL]).collect();
    let second_list = files[1][REMOVE_POOL..].to_vec();
    (read_list, second_list)
}

/// The grouped population as two shared-stream groups (5 + 3 members).
fn grouped() -> Vec<(Box<dyn OpStream>, u64)> {
    let (read_list, second_list) = grouped_lists();
    vec![
        (
            Box::new(FixedStream::new(read_list)) as Box<dyn OpStream>,
            5,
        ),
        (
            Box::new(FixedStream::new(second_list)) as Box<dyn OpStream>,
            3,
        ),
    ]
}

/// The same population, expanded one stream per client.
fn expanded() -> Vec<(Box<dyn OpStream>, u64)> {
    let (read_list, second_list) = grouped_lists();
    singletons(
        (0..8)
            .map(|c| {
                let list = if c < 5 {
                    read_list.clone()
                } else {
                    second_list.clone()
                };
                Box::new(FixedStream::new(list)) as Box<dyn OpStream>
            })
            .collect(),
    )
}

/// Six members sharing one script whose creates force them apart (created
/// names derive from the true client id, so members diverge at the moment
/// of creation).
fn grouped_creates() -> Vec<(Box<dyn OpStream>, u64)> {
    let (_, dirs, files) = fixture();
    let script = vec![
        MetaOp::Read(files[0][REMOVE_POOL]),
        MetaOp::Create {
            parent: dirs[2],
            size: 16,
        },
        MetaOp::Read(files[3][REMOVE_POOL + 1]),
        MetaOp::Create {
            parent: dirs[4],
            size: 16,
        },
        MetaOp::Read(files[5][REMOVE_POOL + 2]),
    ];
    vec![(Box::new(ScriptStream::new(script)) as Box<dyn OpStream>, 6)]
}

/// The grouped population behind a data path too slow for its demand, so
/// the fair-share split cuts through multi-member cohorts.
fn datapath_cfg(osd_bandwidth: u64, client_window: u64) -> SimConfig {
    SimConfig {
        data_path: Some(DataPathConfig {
            osd_bandwidth,
            client_window,
        }),
        ..base_cfg(7)
    }
}

/// Every golden case, run through the cohort engine at one worker.
fn golden_cases() -> Vec<(String, Outcome)> {
    type KnobFn = fn(SimConfig) -> SimConfig;
    let plain: KnobFn = |c| c;
    let memory: KnobFn = |c| SimConfig {
        mds_memory_inodes: 40,
        memory_thrash_factor: 0.5,
        ..c
    };
    let datapath: KnobFn = |c| SimConfig {
        data_path: Some(DataPathConfig {
            osd_bandwidth: 4_096,
            client_window: 1_024,
        }),
        ..c
    };
    let knobs: [(&str, KnobFn); 3] = [("plain", plain), ("memory", memory), ("datapath", datapath)];
    let schedules = [
        ("quiet", FaultPlan::new().build()),
        (
            "chaotic",
            FaultPlan::new()
                .crash(4, MdsRank(1), 5)
                .limp(8, MdsRank(2), 0.5, 6)
                .build(),
        ),
    ];
    let mut out = Vec::new();
    for seed in [7u64, 42] {
        for (sched_label, schedule) in &schedules {
            for (knob_label, knob) in &knobs {
                let cfg = knob(SimConfig {
                    faults: schedule.clone(),
                    ..base_cfg(seed)
                });
                out.push((
                    format!("seed{seed}/{sched_label}/{knob_label}"),
                    run(cfg, 1, singletons(streams_for(10, seed))),
                ));
            }
        }
    }
    out.push((
        "wide320/seed13".into(),
        run(base_cfg(13), 1, singletons(wide_streams(320, 13))),
    ));
    out.push((
        "grouped_vs_expanded/seed7".into(),
        run(base_cfg(7), 1, grouped()),
    ));
    out.push((
        "grouped_creates/seed11".into(),
        run(base_cfg(11), 1, grouped_creates()),
    ));
    for (bw, win) in [(20u64, 8u64), (37, 16)] {
        out.push((
            format!("grouped_datapath/bw{bw}_win{win}"),
            run(datapath_cfg(bw, win), 1, grouped()),
        ));
    }
    out
}

/// The headline check: every case reproduces its golden row. On any
/// mismatch the whole recomputed table is printed in source form (the
/// re-capture workflow in [`GOLDEN`]'s note).
#[test]
fn cohort_engine_reproduces_the_golden_table() {
    let cases = golden_cases();
    let names: Vec<&str> = cases.iter().map(|(c, _)| c.as_str()).collect();
    let golden: Vec<&str> = GOLDEN.iter().map(|g| g.case).collect();
    assert_eq!(names, golden, "every golden row has exactly one case");
    let mismatched: Vec<&str> = cases
        .iter()
        .zip(GOLDEN)
        .filter(|((_, o), g)| !o.matches(g))
        .map(|((c, _), _)| c.as_str())
        .collect();
    if !mismatched.is_empty() {
        let table: Vec<String> = cases.iter().map(|(c, o)| o.as_row(c)).collect();
        panic!(
            "{} case(s) differ from the golden table: {mismatched:?}\n\
             recomputed table:\n{}",
            mismatched.len(),
            table.join("\n")
        );
    }
}

/// The worker count may never change a journal byte, with or without
/// faults in play.
#[test]
fn jobs_one_vs_n_is_byte_identical() {
    let schedules = [
        FaultPlan::new().build(),
        FaultPlan::new().crash(4, MdsRank(0), 4).build(),
    ];
    for seed in [7u64, 42] {
        for schedule in &schedules {
            let cfg = SimConfig {
                faults: schedule.clone(),
                ..base_cfg(seed)
            };
            let a = run(cfg.clone(), 1, singletons(streams_for(10, seed)));
            let b = run(cfg, 3, singletons(streams_for(10, seed)));
            assert_eq!(
                a.journal, b.journal,
                "seed {seed}: jobs 1 vs 3 journals differ"
            );
            assert_eq!(
                a.metrics, b.metrics,
                "seed {seed}: jobs 1 vs 3 metrics differ"
            );
            assert_eq!(a.total_ops, b.total_ops);
        }
    }
}

/// The small-population jobs test above never leaves the engine's serial
/// fast path (batches under its cutoff resolve inline). This one runs 320
/// distinct single-member cohorts — past the cutoff — so the sharded
/// worker-pool fan-out itself is what must reproduce the serial journal
/// (which the golden table pins in turn).
#[test]
fn wide_population_engages_the_parallel_resolver() {
    let a = run(base_cfg(13), 1, singletons(wide_streams(320, 13)));
    let b = run(base_cfg(13), 3, singletons(wide_streams(320, 13)));
    assert_eq!(
        a.journal, b.journal,
        "pooled resolve must reproduce the serial journal"
    );
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.total_ops, b.total_ops);
    assert_eq!(a.per_mds_requests, b.per_mds_requests);
}

/// Grouped construction (one shared cloneable stream carrying a member
/// count) must journal identically to the same population handed over as
/// per-client streams. This pins the cohort model's aggregation semantics
/// end to end: a group of identical readers is *exactly* k copies of that
/// reader.
#[test]
fn grouped_population_matches_expanded_population() {
    let g = run(base_cfg(7), 1, grouped());
    let e = run(base_cfg(7), 1, expanded());
    assert_eq!(
        g.journal, e.journal,
        "grouped population must journal like the expanded one"
    );
    assert_eq!(g.metrics, e.metrics);
    assert_eq!(g.total_ops, e.total_ops);
    assert_eq!(g.per_mds_requests, e.per_mds_requests);
    assert_eq!((g.n_clients, e.n_clients), (8, 8));
    assert_eq!(e.final_flows, 8, "distinct groups never merge");
}

/// Creates force multi-member cohorts apart, yet once the six members'
/// scripts re-converge they must merge back into one flow at the next
/// epoch close (the golden table pins the journal of the same run).
#[test]
fn grouped_creates_split_then_remerge() {
    let o = run(base_cfg(11), 1, grouped_creates());
    assert_eq!(o.n_clients, 6);
    assert_eq!(o.total_ops, 30);
    assert_eq!(o.final_flows, 1, "re-converged members must merge");
}
