//! Round-trip validator for telemetry exports: parses every
//! `*.events.jsonl` back through the typed event decoder and structurally
//! validates every `*.trace.json` as Chrome `trace_event` JSON (the format
//! Perfetto loads). CI runs this against the artifacts a `--telemetry-out`
//! run produced; a malformed file fails the build.
//!
//! Usage: `telemetry_check <dir>`

use lunule_telemetry::{parse_events_jsonl, validate_chrome_trace, Event};
use std::path::Path;

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: telemetry_check <dir>");
        std::process::exit(2);
    });
    match check_dir(Path::new(&dir)) {
        Ok((events, traces)) => {
            println!(
                "telemetry_check: ok — {events} event(s) across JSONL logs, \
                 {traces} Chrome trace entr(ies) validated in {dir}"
            );
        }
        Err(msg) => {
            eprintln!("telemetry_check: FAILED — {msg}");
            std::process::exit(1);
        }
    }
}

/// Validates every telemetry file under `dir`; returns (total events
/// round-tripped, total trace entries validated).
fn check_dir(dir: &Path) -> Result<(usize, usize), String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    names.sort();
    let (mut n_events, mut n_trace, mut n_files) = (0usize, 0usize, 0usize);
    for path in &names {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".events.jsonl") {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let events = parse_events_jsonl(&text)
                .map_err(|e| format!("{}: bad event log: {e}", path.display()))?;
            check_fault_events(&events).map_err(|e| format!("{}: {e}", path.display()))?;
            check_stamps(&events).map_err(|e| format!("{}: {e}", path.display()))?;
            n_events += events.len();
            n_files += 1;
        } else if name.ends_with(".trace.json") {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            n_trace += validate_chrome_trace(&text)
                .map_err(|e| format!("{}: bad Chrome trace: {e}", path.display()))?;
            n_files += 1;
        }
    }
    if n_files == 0 {
        return Err(format!("no telemetry files found in {}", dir.display()));
    }
    Ok((n_events, n_trace))
}

/// Validates the `(t, seq)` stamping discipline the deterministic clock
/// guarantees: ticks never go backwards, the first event of each tick has
/// `seq == 0`, and within a tick `seq` is contiguous. An uninterrupted run
/// satisfies this by construction; a journal stitched together across a
/// crash/restore (`--restore`) must satisfy it too — a duplicate, dropped,
/// or out-of-order record at the stitch point fails here.
fn check_stamps(events: &[lunule_telemetry::EventRecord]) -> Result<(), String> {
    let mut prev: Option<(u64, u64)> = None;
    for rec in events {
        let ok = match prev {
            None => true,
            Some((t, seq)) if rec.t == t => rec.seq == seq + 1,
            Some((t, _)) => rec.t > t && rec.seq == 0,
        };
        if !ok {
            return Err(format!(
                "stamp ({}, {}) after {:?} breaks (t, seq) monotonicity",
                rec.t, rec.seq, prev
            ));
        }
        prev = Some((rec.t, rec.seq));
    }
    Ok(())
}

/// Structural validation of the fault-injection event family: every
/// `FaultInjected` must carry a known kind label, crash/recovery events
/// must pair up (recoveries never exceed crashes), and migration retries
/// never exceed timeouts — a journal violating these was not produced by
/// the simulator's fault path.
fn check_fault_events(events: &[lunule_telemetry::EventRecord]) -> Result<(), String> {
    const KNOWN_KINDS: [&str; 4] = ["crash", "limp", "report_loss", "migration_stall"];
    let (mut injected, mut crashes, mut recoveries) = (0u64, 0u64, 0u64);
    let (mut timeouts, mut retries) = (0u64, 0u64);
    for rec in events {
        match &rec.event {
            Event::FaultInjected { kind, .. } => {
                if !KNOWN_KINDS.contains(&kind.as_str()) {
                    return Err(format!("unknown fault kind '{kind}' in event log"));
                }
                injected += 1;
            }
            Event::RankCrashed { .. } => crashes += 1,
            Event::RankRecovered { .. } => recoveries += 1,
            Event::MigrationTimedOut { .. } => timeouts += 1,
            Event::MigrationRetried { .. } => retries += 1,
            _ => {}
        }
    }
    if crashes > injected {
        return Err(format!(
            "{crashes} rank_crashed events but only {injected} fault_injected"
        ));
    }
    if recoveries > crashes {
        return Err(format!("{recoveries} recoveries exceed {crashes} crashes"));
    }
    if retries > timeouts {
        return Err(format!(
            "{retries} migration retries exceed {timeouts} timeouts"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory under the system temp dir, unique per test.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("telemetry_check-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every journal gets the full stamp discipline, whatever its name: a
    /// file named like a per-shard slice (`run.shard0.events.jsonl`) with
    /// a seq gap is a broken journal, not a slice to be validated with its
    /// siblings.
    #[test]
    fn shard_named_journal_with_a_seq_gap_is_rejected() {
        use lunule_telemetry::{events_jsonl, EventRecord, Snapshot};
        let rec = |t, seq| EventRecord {
            t,
            seq,
            event: Event::TickStart,
        };
        let journal = |events| {
            events_jsonl(&Snapshot {
                events,
                ..Snapshot::default()
            })
        };
        let dir = scratch_dir("gap");
        let path = dir.join("run.shard0.events.jsonl");
        std::fs::write(&path, journal(vec![rec(0, 0), rec(0, 2), rec(1, 0)])).unwrap();
        let err = check_dir(&dir).unwrap_err();
        assert!(err.contains("breaks (t, seq) monotonicity"), "{err}");
        std::fs::write(&path, journal(vec![rec(0, 0), rec(0, 1), rec(1, 0)])).unwrap();
        assert_eq!(check_dir(&dir), Ok((3, 0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stamps_must_be_contiguous_within_a_tick() {
        use lunule_telemetry::EventRecord;
        let rec = |t, seq| EventRecord {
            t,
            seq,
            event: Event::TickStart,
        };
        assert!(check_stamps(&[rec(0, 0), rec(0, 1), rec(2, 0)]).is_ok());
        assert!(check_stamps(&[rec(0, 0), rec(0, 2)]).is_err(), "gap");
        assert!(check_stamps(&[rec(1, 0), rec(1, 0)]).is_err(), "duplicate");
        assert!(check_stamps(&[rec(1, 0), rec(0, 1)]).is_err(), "backwards");
        assert!(
            check_stamps(&[rec(0, 0), rec(1, 1)]).is_err(),
            "tick starts past 0"
        );
    }
}
