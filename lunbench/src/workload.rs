//! The three benchmark workloads and how each is built from a seed.
//!
//! Every run uses the Lunule balancer, no faults, and `jobs = 1`: the
//! simulator's default of 0 spawns a worker per core, which on a small
//! shared host would measure the scheduler rather than the program.

use lunule_bench::{build_namespace, default_sim, ScaleSpec};
use lunule_namespace::{InodeId, Namespace};
use lunule_sim::{FixedStream, OpStream, SimConfig};
use lunule_telemetry::Telemetry;
use lunule_util::DetRng;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

/// Benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Filebench-Zipfian reads on the paper's 5-rank setup, run to
    /// completion: the per-op read path.
    ZipfRead,
    /// mdtest creates beside a static tree no client touches, with the
    /// telemetry journal on: the per-op write path and namespace growth.
    CreateMd,
    /// A cohort population on 128 ranks over a ~5x10^5-inode namespace:
    /// the balancer epoch at a high rank count, and forwarding.
    WideM128,
}

/// Input size: the benchmark's own, or a reduced one for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// A reduced size that runs in well under a second.
    Small,
}

/// Everything a pass hands to `Simulation::new_grouped`, minus the
/// balancer.
pub struct Inputs {
    /// Simulator settings.
    pub cfg: SimConfig,
    /// The dataset.
    pub ns: Namespace,
    /// Client groups: an op stream and how many identical members run it.
    pub groups: Vec<(Box<dyn OpStream>, u64)>,
}

impl Workload {
    /// All workloads, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::ZipfRead, Workload::CreateMd, Workload::WideM128];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfRead => "zipf_read",
            Workload::CreateMd => "create_md",
            Workload::WideM128 => "wide_m128",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when clients create files (every op is a create).
    pub fn creates(self) -> bool {
        self == Workload::CreateMd
    }

    /// Builds the dataset, the client streams and the simulator settings
    /// for `seed`. The same seed always gives the same inputs.
    pub fn build(self, seed: u64, size: Size) -> Inputs {
        match self {
            Workload::ZipfRead => zipf_read(seed, size),
            Workload::CreateMd => create_md(seed, size),
            Workload::WideM128 => wide_m128(seed, size),
        }
    }
}

fn singletons(streams: Vec<Box<dyn OpStream>>) -> Vec<(Box<dyn OpStream>, u64)> {
    streams.into_iter().map(|s| (s, 1)).collect()
}

/// The paper's Filebench-Zipfian at the experiment defaults (100 clients,
/// scale 0.1); the seed drives every client's random reads.
fn zipf_read(seed: u64, size: Size) -> Inputs {
    let spec = WorkloadSpec {
        seed,
        ..match size {
            Size::Full => WorkloadSpec::new(WorkloadKind::ZipfRead),
            Size::Small => WorkloadSpec {
                clients: 10,
                scale: 0.01,
                ..WorkloadSpec::new(WorkloadKind::ZipfRead)
            },
        }
    };
    let (ns, streams) = spec.build();
    Inputs {
        cfg: SimConfig {
            jobs: 1,
            seed,
            ..default_sim()
        },
        ns,
        groups: singletons(streams),
    }
}

/// mdtest create: 100 clients x 5 000 creates into private directories,
/// next to a static tree of ~10^5 inodes whose shape the seed draws. The
/// tree is never read or written by a client, but the namespace build and
/// every balancer epoch's candidate walk see it.
fn create_md(seed: u64, size: Size) -> Inputs {
    let (clients, scale, static_dirs) = match size {
        Size::Full => (100, 0.05, 128),
        Size::Small => (10, 0.002, 8),
    };
    let mut ns = Namespace::new();
    let mut rng = DetRng::seed_from_u64(seed);
    let top = ns.mkdir_total(InodeId::ROOT, "static");
    for d in 0..static_dirs {
        let dir = ns.mkdir_total(top, &format!("s{d:04}"));
        for f in 0..rng.gen_range(400..1_200) {
            ns.create_file_total(dir, &format!("f{f:05}"), 4_096);
        }
    }
    let spec = WorkloadSpec {
        kind: WorkloadKind::MdCreate,
        clients,
        scale,
        seed,
    };
    let streams = spec.build_into(&mut ns);
    Inputs {
        cfg: SimConfig {
            jobs: 1,
            seed,
            telemetry: Telemetry::enabled(),
            ..default_sim()
        },
        ns,
        groups: singletons(streams),
    }
}

/// The shape of the wide workload: 1 024 dirs x 512 files on 128 ranks,
/// 4-s epochs, 512 cohort groups. The seed draws the population size.
fn wide_spec(seed: u64, size: Size) -> ScaleSpec {
    let mut rng = DetRng::seed_from_u64(seed);
    let base = match size {
        Size::Full => ScaleSpec {
            clients: 100_000,
            groups: 512,
            dirs: 1_024,
            files_per_dir: 512,
            n_mds: 128,
            duration_secs: 40,
            epoch_secs: 4,
            seed,
        },
        Size::Small => ScaleSpec {
            clients: 4_000,
            groups: 32,
            dirs: 64,
            files_per_dir: 32,
            n_mds: 16,
            duration_secs: 12,
            epoch_secs: 4,
            seed,
        },
    };
    ScaleSpec {
        clients: base.clients + rng.gen_range(0..1_024) as u64,
        ..base
    }
}

/// A `ScaleSpec` cohort population built exactly as
/// `lunule_bench::build_sim` builds it (same namespace builder, streams,
/// population split and settings), except that the benchmark keeps the
/// streams and balancer so a traced pass can wrap them, and `jobs = 1`.
fn wide_m128(seed: u64, size: Size) -> Inputs {
    let spec = wide_spec(seed, size);
    let (ns, targets) = build_namespace(&spec);
    let cfg = SimConfig {
        n_mds: spec.n_mds,
        mds_capacity: 500.0,
        epoch_secs: spec.epoch_secs,
        duration_secs: spec.duration_secs,
        stop_when_done: false,
        migration_bw: 50_000.0,
        migration_freeze_secs: 1,
        migration_op_cost: 0.02,
        client_rate: 5.0,
        client_cache_cap: 256,
        seed: spec.seed,
        jobs: 1,
        ..SimConfig::default()
    };
    let n_groups = targets.len() as u64;
    let per_group = spec.clients / n_groups;
    let groups = targets
        .into_iter()
        .enumerate()
        .map(|(g, ids)| {
            let count = if g as u64 + 1 == n_groups {
                spec.clients - per_group * (n_groups - 1)
            } else {
                per_group
            };
            (Box::new(FixedStream::new(ids)) as Box<dyn OpStream>, count)
        })
        .collect();
    Inputs { cfg, ns, groups }
}
