//! Benchmark entry point: `lunbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--out <dir>]`.
//!
//! Runs passes of one workload until `--seconds` have elapsed (at least a
//! warm-up plus the minimum measured passes), checks every pass's outputs,
//! prints each metric on its own line, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced passes,
//! reports the per-layer metrics and writes a Chrome trace into `--out`.

use lunbench::pass::{self, Outcome, PassSpec};
use lunbench::probe::Probe;
use lunbench::report::{self, Metric, Split};
use lunbench::trace::Recorder;
use lunbench::workload::{Size, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Measured passes an untraced run makes at the least, after its warm-up.
const MIN_MEASURED: usize = 3;

/// Traced (and, interleaved, untraced) passes a traced run makes at the
/// least, after its warm-up.
const MIN_TRACED: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut out = ".bench_out".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--out" => out = value()?,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        out,
    })
}

/// The process's resident-set high-water mark, KiB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Outcome bookkeeping shared by both modes: per-pass lines, failure
/// counting, and the digest every pass must reproduce.
struct Ledger {
    attempted: u64,
    failed: u64,
    reference: Option<(u64, u64)>,
}

impl Ledger {
    fn record(&mut self, i: usize, kind: &str, probe_ms: f64, o: &Outcome) {
        self.attempted += 1;
        let journal = o.journal.as_ref().map_or(0, |j| j.digest);
        let mut failures = o.failures.clone();
        match self.reference {
            None => self.reference = Some((o.digest, journal)),
            Some((d, j)) => {
                if o.digest != d {
                    failures.push(format!("result digest {:016x} != {d:016x}", o.digest));
                }
                if journal != j {
                    failures.push(format!("journal digest {journal:016x} != {j:016x}"));
                }
            }
        }
        println!(
            "pass {i:>3} {kind:<7} host.probe_ms {probe_ms:8.3}  setup {:9.3} ms  loop {:10.3} ms  \
             ticks {:5}  digest {:016x}{}",
            o.timings.setup_ns() as f64 / 1e6,
            o.timings.loop_ns() as f64 / 1e6,
            o.timings.step_ns.len(),
            o.digest,
            if failures.is_empty() { "" } else { "  FAILED" }
        );
        for f in &failures {
            println!("    check failed: {f}");
        }
        if !failures.is_empty() {
            self.failed += 1;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lunbench: {e}");
            eprintln!(
                "usage: lunbench --workload <zipf_read|create_md|wide_m128> --seed <n> \
                 --seconds <s> --trace <0|1> [--out <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let probe = Probe::new();
    let budget = Duration::from_secs(args.seconds);
    let mut ledger = Ledger {
        attempted: 0,
        failed: 0,
        reference: None,
    };
    let mut probes = Vec::new();
    let mut plain: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Outcome> = Vec::new();
    let mut recorder = Recorder::new();
    println!(
        "lunbench workload={} seed={} seconds={} trace={} jobs=1 balancer=Lunule",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );

    let start = Instant::now();
    for i in 0.. {
        let enough = if args.traced {
            traced.len() >= MIN_TRACED && plain.len() >= MIN_TRACED
        } else {
            plain.len() >= MIN_MEASURED
        };
        if enough && start.elapsed() >= budget {
            break;
        }
        let probe_ms = probe.run_ms();
        probes.push(probe_ms);
        // Pass 0 warms caches and the allocator; it is checked but not
        // timed. A traced run then alternates traced and untraced passes so
        // both see the same host conditions.
        let trace_this = args.traced && i % 2 == 1;
        let o = pass::run(PassSpec {
            workload: args.workload,
            seed: args.seed,
            size: Size::Full,
            export_journal: args.traced,
            trace: trace_this.then_some((&mut recorder, i as u32)),
        });
        let kind = match (i, trace_this) {
            (0, _) => "warm-up",
            (_, true) => "traced",
            _ => "plain",
        };
        ledger.record(i, kind, probe_ms, &o);
        match (i, trace_this) {
            (0, _) => {}
            (_, true) => traced.push(o),
            _ => plain.push(o),
        }
    }

    let metrics: Vec<Metric> = if args.traced {
        let mid = report::median_pass(&traced);
        // The split sums to the step time by construction unless a step's
        // self time went negative, which already failed that pass.
        for line in Split::of(mid).map(|s| s.lines()).unwrap_or_default() {
            println!("{line}");
        }
        let path = std::path::Path::new(&args.out).join(format!(
            "{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, recorder.chrome_json()));
        match written {
            Ok(()) => println!(
                "trace: {} ({} spans; open in https://ui.perfetto.dev)",
                path.display(),
                recorder.spans().len()
            ),
            Err(e) => {
                eprintln!("lunbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        report::per_layer(&traced, &plain, &probes)
    } else {
        let Some(rss) = peak_rss_kb() else {
            eprintln!("lunbench: cannot read VmHWM from /proc/self/status");
            return ExitCode::FAILURE;
        };
        let probe_median = lunbench::stats::median(&probes).unwrap_or(f64::NAN);
        println!(
            "host.probe_ms median {probe_median:.3} over {} probes",
            probes.len()
        );
        report::end_to_end(&plain, rss, probe_median)
    };

    for m in &metrics {
        println!("{}", m.line());
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("check failed: a metric is not a finite number");
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        report::result_json(
            ledger.failed == 0,
            ledger.attempted,
            ledger.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
