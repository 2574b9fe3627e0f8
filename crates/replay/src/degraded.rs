//! Degraded-mode replay: quantified partial results from damaged
//! bundles.
//!
//! The fault model of the extraction stage (`tit-extract`'s
//! fault-injection harness) produces four damage classes: truncated
//! trace files, bit-flipped actions, dropped ranks, and short bundle
//! transfers. A strict replay correctly refuses all of them — but a
//! campaign that burned hours acquiring a trace often wants *whatever
//! the damage left intact*, quantified, instead of nothing.
//!
//! Degraded mode pre-scans each per-rank trace file and keeps the
//! longest parseable prefix (damage in a text trace is always a
//! suffix-killer: a truncated file ends mid-line, a flipped bit turns
//! one line into garbage and everything after it is untrusted). Missing
//! ranks are stubbed as immediately-terminating processes. The replay
//! then runs to completion or to the first failure — a deadlock or
//! protocol violation caused by the damage is *expected* here and is
//! downgraded into the outcome rather than returned as an error. The
//! result carries a **completeness ratio** (actions replayed / actions
//! expected) and a per-rank degradation report, so "90 % of the run
//! replayed, ranks 3 and 7 damaged" replaces a bare failure.

use crate::error::ReplayError;
use crate::process::{ActionSource, Sources, VecSource};
use crate::simulator::{start, ReplayConfig};
use simkern::observer::Observer;
use simkern::resource::HostId;
use simkern::Platform;
use std::path::Path;
use tit_core::trace::process_trace_filename;
use tit_core::{parse_line, Action};

/// Why a rank's stream was degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationReason {
    /// The rank's trace file does not exist (dropped by the gather
    /// stage); the rank is stubbed as an immediately-terminating
    /// process.
    MissingFile,
    /// The file exists but its tail is unparseable (truncation or bit
    /// rot); only the leading parseable prefix is replayed.
    TrimmedTail,
    /// A TIB2 store segment failed verification (checksum mismatch,
    /// short read, contradictory header); the rank is replayed up to
    /// the last verified segment boundary. Segment granularity means
    /// one flipped bit costs `seg_actions` actions of one rank, not the
    /// whole rank (`lines_trimmed` counts the trimmed actions exactly,
    /// from the footer index).
    DamagedSegment,
}

impl std::fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradationReason::MissingFile => "missing-file",
            DegradationReason::TrimmedTail => "trimmed-tail",
            DegradationReason::DamagedSegment => "damaged-segment",
        })
    }
}

/// One damaged rank's report.
#[derive(Debug, Clone)]
pub struct RankDegradation {
    /// The damaged rank.
    pub rank: usize,
    /// What kind of damage.
    pub reason: DegradationReason,
    /// Actions salvaged from the leading prefix.
    pub actions_kept: u64,
    /// Trace lines discarded (the damaged line and everything after it;
    /// for a missing file, the estimated action count).
    pub lines_trimmed: u64,
    /// Human-readable diagnosis (parse error, file error).
    pub detail: String,
}

/// Result of a degraded replay: always a quantified partial answer,
/// never an error, once the bundle directory itself is readable.
#[derive(Debug)]
pub struct DegradedOutcome {
    /// Simulated time reached — the full makespan when the salvaged
    /// trace still completes, else the time progress stopped.
    pub simulated_time: f64,
    /// Actions actually consumed by the replay.
    pub actions_replayed: u64,
    /// Actions the undamaged bundle is estimated to have carried:
    /// kept + trimmed lines of present ranks, plus the per-rank maximum
    /// for each missing rank.
    pub actions_expected: u64,
    /// Wall-clock time of the simulation.
    pub wall_time: std::time::Duration,
    /// Per-rank damage reports (empty for a clean bundle).
    pub ranks: Vec<RankDegradation>,
    /// The downgraded stop reason, when the salvaged trace could not
    /// run to completion (deadlock from a half-trimmed exchange, etc.).
    pub failure: Option<String>,
}

impl DegradedOutcome {
    /// Actions replayed over actions expected, in `[0, 1]`. Exactly
    /// `1.0` for an undamaged bundle that replays to completion.
    pub fn completeness(&self) -> f64 {
        if self.actions_expected == 0 {
            return if self.failure.is_none() { 1.0 } else { 0.0 };
        }
        // A replay can only consume what the scan kept, and the scan
        // keeps at most what it expected — the ratio stays in [0, 1].
        (self.actions_replayed as f64 / self.actions_expected as f64).min(1.0)
    }

    /// True when anything at all was lost: damage found in the scan or
    /// a downgraded run failure.
    pub fn is_partial(&self) -> bool {
        !self.ranks.is_empty() || self.failure.is_some() || self.completeness() < 1.0
    }
}

/// One rank's salvaged stream.
struct ScannedRank {
    actions: Vec<Action>,
    degradation: Option<RankDegradation>,
}

/// Reads `rank`'s trace file, keeping the longest parseable prefix.
/// Damage (unreadable bytes, a parse error, a line owned by another
/// pid) trims the stream at that point.
fn scan_rank(dir: &Path, rank: usize) -> std::io::Result<ScannedRank> {
    let path = dir.join(process_trace_filename(rank));
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(ScannedRank {
                actions: Vec::new(),
                degradation: Some(RankDegradation {
                    rank,
                    reason: DegradationReason::MissingFile,
                    actions_kept: 0,
                    lines_trimmed: 0,
                    detail: format!("{}: not found", path.display()),
                }),
            });
        }
        Err(e) => return Err(e),
    };
    let mut actions = Vec::new();
    let mut trim: Option<String> = None;
    let mut lines_trimmed = 0u64;
    for (idx, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        let line_no = idx + 1;
        if trim.is_some() {
            // Count the untrusted tail (non-empty payload lines only).
            if !raw.iter().all(u8::is_ascii_whitespace) {
                lines_trimmed += 1;
            }
            continue;
        }
        let Ok(text) = std::str::from_utf8(raw) else {
            trim = Some(format!("line {line_no}: not valid UTF-8"));
            lines_trimmed += 1;
            continue;
        };
        match parse_line(text, line_no) {
            Ok(None) => {}
            Ok(Some((pid, a))) if pid == rank => actions.push(a),
            Ok(Some((pid, _))) => {
                trim = Some(format!("line {line_no}: belongs to p{pid}, not p{rank}"));
                lines_trimmed += 1;
            }
            Err(e) => {
                trim = Some(e.to_string());
                lines_trimmed += 1;
            }
        }
    }
    let degradation = trim.map(|detail| RankDegradation {
        rank,
        reason: DegradationReason::TrimmedTail,
        actions_kept: actions.len() as u64,
        lines_trimmed,
        detail: format!("{}: {detail}", path.display()),
    });
    Ok(ScannedRank { actions, degradation })
}

/// Replays whatever a (possibly damaged) per-process trace directory
/// still carries. Hard failures are downgraded into the outcome; the
/// only remaining errors are environmental (an unreadable directory, a
/// deployment mismatch).
pub fn replay_files_degraded(
    dir: &Path,
    nproc: usize,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
    observer: Option<Box<dyn Observer>>,
) -> Result<DegradedOutcome, ReplayError> {
    let mut scanned = Vec::with_capacity(nproc);
    for rank in 0..nproc {
        let s = scan_rank(dir, rank).map_err(|source| ReplayError::MissingRank {
            rank,
            path: dir.join(process_trace_filename(rank)),
            source,
        })?;
        scanned.push(s);
    }

    // Expected volume: what present ranks carried (kept + trimmed
    // lines), and for each missing rank the maximum over present ranks
    // — SPMD traces are near-uniform per rank, so the max is a
    // conservative (ratio-lowering) stand-in for the lost file.
    let mut per_rank_total = Vec::with_capacity(nproc);
    let mut ranks: Vec<RankDegradation> = Vec::new();
    for s in &scanned {
        match &s.degradation {
            Some(d) if d.reason == DegradationReason::MissingFile => per_rank_total.push(None),
            Some(d) => per_rank_total.push(Some(d.actions_kept + d.lines_trimmed)),
            None => per_rank_total.push(Some(s.actions.len() as u64)),
        }
    }
    let max_present = per_rank_total.iter().flatten().copied().max().unwrap_or(0);
    let actions_expected: u64 =
        per_rank_total.iter().map(|t| t.unwrap_or(max_present)).sum();
    for s in &mut scanned {
        if let Some(mut d) = s.degradation.take() {
            if d.reason == DegradationReason::MissingFile {
                d.lines_trimmed = max_present;
            }
            ranks.push(d);
        }
    }

    let sources = Sources::from_ranks(
        scanned
            .into_iter()
            .map(|s| Box::new(VecSource::new(s.actions)) as Box<dyn ActionSource>)
            .collect(),
    );
    replay_salvage(sources, actions_expected, ranks, platform, hosts, cfg, observer)
}

/// The damage-tolerant tail both degraded drivers share once their
/// format-specific scan has built the salvaged `sources`: replays them
/// to completion or to the first damage-induced stop, which becomes
/// part of the outcome instead of an error.
pub(crate) fn replay_salvage(
    sources: Sources,
    actions_expected: u64,
    ranks: Vec<RankDegradation>,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
    observer: Option<Box<dyn Observer>>,
) -> Result<DegradedOutcome, ReplayError> {
    let mut run = start(sources, platform, hosts, cfg, observer)?;
    let t0 = std::time::Instant::now();
    let (simulated_time, failure) = match run.engine.run_checked() {
        Ok(t) => (t, None),
        Err(e) => {
            let (t, detail) = run.downgrade(e)?;
            (t, Some(detail))
        }
    };
    Ok(DegradedOutcome {
        simulated_time,
        actions_replayed: run.actions(),
        actions_expected,
        wall_time: t0.elapsed(),
        ranks,
        failure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkern::netmodel::NetworkConfig;
    use std::path::PathBuf;
    use tit_core::TiTrace;
    use tit_platform::desc::{ClusterSpec, ClusterTopology, PlatformDesc};

    fn mycluster(n: usize) -> (Platform, Vec<HostId>) {
        let spec = ClusterSpec {
            id: "mycluster".into(),
            prefix: "mycluster-".into(),
            suffix: ".mysite.fr".into(),
            count: n,
            power: 1.17e9,
            cores: 1,
            bw: 1.25e8,
            lat: 16.67e-6,
            bb_bw: 1.25e9,
            bb_lat: 16.67e-6,
            topology: ClusterTopology::Flat,
        };
        let p = PlatformDesc::single(spec).build();
        let hosts = (0..n as u32).map(HostId).collect();
        (p, hosts)
    }

    fn plain_cfg() -> ReplayConfig {
        ReplayConfig { network: NetworkConfig::default(), ..Default::default() }
    }

    fn ring_trace() -> TiTrace {
        let mut t = TiTrace::new(4);
        t.push(0, Action::Compute { flops: 1e6 });
        t.push(0, Action::Send { dst: 1, bytes: 1e6 });
        t.push(0, Action::Recv { src: 3, bytes: None });
        for p in 1..4usize {
            t.push(p, Action::Recv { src: p - 1, bytes: None });
            t.push(p, Action::Compute { flops: 1e6 });
            t.push(p, Action::Send { dst: (p + 1) % 4, bytes: 1e6 });
        }
        t
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("titr-degr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn clean_bundle_is_complete_and_matches_strict_replay() {
        let d = tmp_dir("clean");
        ring_trace().save_per_process(&d).unwrap();
        let (p1, hosts) = mycluster(4);
        let (p2, _) = mycluster(4);
        let strict = crate::replay_files(&d, 4, p1, &hosts, &plain_cfg()).unwrap();
        let out = replay_files_degraded(&d, 4, p2, &hosts, &plain_cfg(), None).unwrap();
        assert_eq!(out.completeness(), 1.0);
        assert!(!out.is_partial());
        assert!(out.ranks.is_empty());
        assert_eq!(out.simulated_time.to_bits(), strict.simulated_time.to_bits());
        assert_eq!(out.actions_replayed, 12);
        assert_eq!(out.actions_expected, 12);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn missing_rank_is_stubbed_and_quantified() {
        let d = tmp_dir("missing");
        ring_trace().save_per_process(&d).unwrap();
        std::fs::remove_file(d.join("SG_process2.trace")).unwrap();
        let (p, hosts) = mycluster(4);
        let out = replay_files_degraded(&d, 4, p, &hosts, &plain_cfg(), None).unwrap();
        assert!(out.is_partial());
        assert!(out.completeness() < 1.0, "ratio {}", out.completeness());
        assert_eq!(out.ranks.len(), 1);
        assert_eq!(out.ranks[0].rank, 2);
        assert_eq!(out.ranks[0].reason, DegradationReason::MissingFile);
        // The ring blocks without rank 2 — downgraded, not an error.
        assert!(out.failure.is_some());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn truncated_tail_is_trimmed_and_quantified() {
        let d = tmp_dir("trunc");
        ring_trace().save_per_process(&d).unwrap();
        let path = d.join("SG_process1.trace");
        let bytes = std::fs::read(&path).unwrap();
        // Cut mid-way through the second line.
        let cut = bytes.iter().position(|&b| b == b'\n').unwrap() + 5;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (p, hosts) = mycluster(4);
        let out = replay_files_degraded(&d, 4, p, &hosts, &plain_cfg(), None).unwrap();
        assert!(out.is_partial());
        assert!(out.completeness() < 1.0);
        assert_eq!(out.ranks.len(), 1);
        assert_eq!(out.ranks[0].reason, DegradationReason::TrimmedTail);
        assert_eq!(out.ranks[0].actions_kept, 1);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn garbage_line_trims_everything_after_it() {
        let d = tmp_dir("flip");
        ring_trace().save_per_process(&d).unwrap();
        let path = d.join("SG_process3.trace");
        std::fs::write(&path, "p3 recv p2\np3 c\u{f6}mpute 1e6\np3 send p0 1e6\n").unwrap();
        let (p, hosts) = mycluster(4);
        let out = replay_files_degraded(&d, 4, p, &hosts, &plain_cfg(), None).unwrap();
        let d3 = out.ranks.iter().find(|r| r.rank == 3).expect("rank 3 degraded");
        assert_eq!(d3.actions_kept, 1);
        assert_eq!(d3.lines_trimmed, 2, "damaged line + untrusted tail");
        assert!(out.completeness() < 1.0);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn fully_damaged_bundle_never_panics() {
        let d = tmp_dir("allbad");
        for r in 0..4 {
            std::fs::write(
                d.join(format!("SG_process{r}.trace")),
                [0xFFu8, 0xFE, 0x00, b'\n', b'x'],
            )
            .unwrap();
        }
        let (p, hosts) = mycluster(4);
        let out = replay_files_degraded(&d, 4, p, &hosts, &plain_cfg(), None).unwrap();
        assert_eq!(out.actions_replayed, 0);
        assert!(out.completeness() < 1.0);
        assert_eq!(out.ranks.len(), 4);
        std::fs::remove_dir_all(&d).unwrap();
    }
}
