//! Memory-governance scale experiment: generator-fed `TIB2` stores of
//! growing length replayed under one fixed `--mem-budget`.
//!
//! The claim under test (DESIGN.md §5i): replay memory is O(ranks +
//! resident segments), **independent of trace length**. The sweep
//! streams ring-pattern stores of ×1/×2/×4 action counts straight to
//! disk (never materializing a trace), replays each under the same
//! small segment budget, and records decode throughput (bytes/s of
//! store payload), replay throughput (actions/s), the governor's
//! segment high-water mark, and the process peak RSS from
//! [`tit_core::rss`].
//!
//! `scripts/check_bench.py` gates the record: every run's segment peak
//! must sit under the budget, every run's peak RSS under the stated
//! cap, and the largest run's RSS must stay within a constant factor
//! of the smallest's while the store grows ×4 — a replay whose memory
//! follows trace length fails the flatness gate long before it OOMs.
//!
//! Peak RSS (`VmHWM`) is a process-lifetime high-water mark, so runs
//! execute smallest-first: a later, larger run can only raise it,
//! never launder an earlier spill.

use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tit_core::atomicio::AtomicFile;
use tit_core::tib2::{Tib2Store, Tib2Summary, Tib2Writer};
use tit_core::{Action, MemBudget};
use tit_platform::desc::PlatformDesc;
use tit_platform::presets;
use tit_platform::deployment::Deployment;
use tit_replay::{replay, ReplayConfig, Sources};

/// Fixed segment budget for every run: small enough that even the
/// smallest store overflows it (so eviction governs every run, not
/// just the largest), large enough to hold one replay pass's working
/// set (one resident segment per rank).
pub const BUDGET_BYTES: u64 = 4 << 20;

/// Allowance for everything that is not decoded segments: binary,
/// platform, engine state, allocator slack. The RSS cap each run is
/// gated against is `BUDGET_BYTES + OVERHEAD_ALLOWANCE`.
pub const OVERHEAD_ALLOWANCE: u64 = 192 << 20;

/// Ranks in every generated store.
pub const RANKS: usize = 32;

/// Ring iterations of the largest run at `scale = 1.0` (a ≥ 1 GiB
/// store: ~65 M actions at ~16.6 bytes each).
const FULL_ITERS: usize = 484_000;

/// One sweep measurement, emitted to `BENCH_scale.json`.
#[derive(Debug, Clone)]
pub struct ScaleRecord {
    /// What was measured, e.g. `"ring32 x4"`.
    pub label: String,
    /// Ranks in the store.
    pub ranks: usize,
    /// Actions replayed.
    pub actions: u64,
    /// On-disk store size, bytes.
    pub store_bytes: u64,
    /// The segment budget the replay ran under.
    pub budget_bytes: u64,
    /// Governor high-water mark of decoded segment bytes.
    pub segment_peak_bytes: u64,
    /// Process peak RSS after the run (`VmHWM`; 0 when unreadable).
    pub peak_rss_bytes: u64,
    /// The cap `peak_rss_bytes` is gated against.
    pub rss_cap_bytes: u64,
    /// Replay wall-clock, seconds.
    pub wall: f64,
    /// Simulated time produced (a determinism anchor across runs).
    pub simulated_time: f64,
}

impl ScaleRecord {
    /// Replay throughput, actions per wall-clock second.
    #[must_use]
    pub fn records_per_sec(&self) -> f64 {
        if self.wall > 0.0 { self.actions as f64 / self.wall } else { 0.0 }
    }

    /// Decode throughput, store bytes per wall-clock second.
    #[must_use]
    pub fn bytes_per_sec(&self) -> f64 {
        if self.wall > 0.0 { self.store_bytes as f64 / self.wall } else { 0.0 }
    }
}

/// Streams a deadlock-free ring-pipeline store straight to `dest` —
/// one rank at a time, one segment in memory, never a whole trace.
pub fn stream_ring_store(
    dest: &Path,
    ranks: usize,
    iters: usize,
    seg_actions: usize,
) -> std::io::Result<Tib2Summary> {
    let af = AtomicFile::create(dest)?;
    let mut w = Tib2Writer::new(BufWriter::with_capacity(1 << 16, af), seg_actions)?;
    for rank in 0..ranks {
        w.begin_rank()?;
        w.push(&Action::CommSize { nproc: ranks })?;
        for i in 0..iters {
            w.push(&Action::Compute { flops: 1e5 + i as f64 })?;
            w.push(&Action::Isend { dst: (rank + 1) % ranks, bytes: 1024.0 })?;
            w.push(&Action::Recv { src: (rank + ranks - 1) % ranks, bytes: None })?;
            w.push(&Action::Wait)?;
            if i % 5 == 2 {
                w.push(&Action::AllReduce { vcomm: 64.0, vcomp: 1e4 })?;
            }
        }
    }
    let (out, summary) = w.finish()?;
    out.into_inner().map_err(|e| std::io::Error::other(e.to_string()))?.commit()?;
    Ok(summary)
}

fn replay_one(path: &Path, label: &str) -> ScaleRecord {
    // panics: the store was just written by this experiment
    let store = Arc::new(Tib2Store::open(path).expect("open generated store"));
    let budget = Arc::new(MemBudget::new(BUDGET_BYTES));
    let spec = presets::bordereau_one_core(RANKS);
    let desc = PlatformDesc::single(spec);
    let platform = desc.build();
    let hosts = Deployment::round_robin(&desc.host_names(), RANKS).host_ids(&platform);
    let cfg = ReplayConfig::default();
    let t0 = std::time::Instant::now();
    let out = replay(Sources::store(&store, Arc::clone(&budget)), platform, &hosts, &cfg, None)
        // panics: the store is clean by construction, so failure is a bench bug
        .expect("replay generated store");
    let wall = t0.elapsed().as_secs_f64();
    // panics: the store was just written by this experiment
    let store_bytes = std::fs::metadata(path).expect("stat store").len();
    ScaleRecord {
        label: label.to_owned(),
        ranks: RANKS,
        actions: out.actions_replayed,
        store_bytes,
        budget_bytes: BUDGET_BYTES,
        segment_peak_bytes: budget.peak(),
        peak_rss_bytes: tit_core::rss::peak_rss_bytes().unwrap_or(0),
        rss_cap_bytes: BUDGET_BYTES + OVERHEAD_ALLOWANCE,
        wall,
        simulated_time: out.simulated_time,
    }
}

/// Runs the ×1/×2/×4 sweep at `scale` (1.0 ≈ a 1 GiB largest store)
/// and returns the text report plus the JSON records.
pub fn sweep(scale: f64) -> (String, Vec<ScaleRecord>) {
    let dir = crate::scratch_dir("scale");
    let base = ((FULL_ITERS / 4) as f64 * scale).max(64.0) as usize;
    let mut out = String::new();
    out.push_str(&format!(
        "Memory-governance scale sweep: ring pipeline, {RANKS} ranks, segment budget {} MiB (scale {scale})\n\n",
        BUDGET_BYTES >> 20,
    ));
    out.push_str(
        "label        store MiB   actions/s     MiB/s   seg peak MiB   peak RSS MiB   sim time\n",
    );
    let mut records = Vec::new();
    for mult in [1usize, 2, 4] {
        let label = format!("ring{RANKS} x{mult}");
        let path: PathBuf = dir.join(format!("ring-x{mult}.tib2"));
        // panics: experiment inputs are generated, so failure is a bench bug
        stream_ring_store(&path, RANKS, base * mult, 4096).expect("stream store");
        let rec = replay_one(&path, &label);
        out.push_str(&format!(
            "{:<12} {:>9.1} {:>11.0} {:>9.1} {:>14.1} {:>14.1} {:>10.4}\n",
            rec.label,
            rec.store_bytes as f64 / (1 << 20) as f64,
            rec.records_per_sec(),
            rec.bytes_per_sec() / (1 << 20) as f64,
            rec.segment_peak_bytes as f64 / (1 << 20) as f64,
            rec.peak_rss_bytes as f64 / (1 << 20) as f64,
            rec.simulated_time,
        ));
        // The store is consumed; drop it before the next, larger one
        // so disk usage stays one store deep.
        let _ = std::fs::remove_file(&path);
        records.push(rec);
    }
    out.push_str(&format!(
        "\nRSS cap per run: {} MiB (budget + {} MiB overhead allowance)\n",
        (BUDGET_BYTES + OVERHEAD_ALLOWANCE) >> 20,
        OVERHEAD_ALLOWANCE >> 20,
    ));
    let _ = std::fs::remove_dir_all(&dir);
    (out, records)
}
