//! End-to-end replay driver: trace + platform + deployment → simulated
//! time (Figure 4 of the paper).

use crate::collectives::CollectiveAlgo;
use crate::error::ReplayError;
use crate::handlers::Registry;
use crate::process::{ReplayActor, Sources};
use crate::store::SegmentCache;
use simkern::netmodel::NetworkConfig;
use simkern::observer::{Fanout, Observer, OpRecord};
use simkern::resource::HostId;
use simkern::{Engine, KernelMode, Platform, SimError};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tit_core::TiTrace;

/// Replay-tool configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Network model (the paper's default is the contention-aware
    /// piece-wise-linear MPI model).
    pub network: NetworkConfig,
    /// Collective decomposition shape.
    pub algo: CollectiveAlgo,
    /// Record one timed entry per completed operation (Figure 4's
    /// "timed trace" output). Costs memory proportional to trace size.
    pub collect_records: bool,
    /// Enable kernel self-profiling: the engine counts hot-loop work
    /// (LMM solves, heap traffic) and attributes wall time to phases.
    /// The simulated outcome is byte-identical either way; see
    /// [`simkern::KernelProfile`].
    pub kernel_profile: bool,
    /// Kernel implementation. `Incremental` (default) is the
    /// scale-invariant production path; `Reference` is the full-solve
    /// oracle it is differentially tested against — both simulate
    /// bit-identically (see [`simkern::KernelMode`] and
    /// docs/KERNEL.md).
    pub kernel: KernelMode,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            network: NetworkConfig::mpi_cluster(),
            algo: CollectiveAlgo::Binomial,
            collect_records: false,
            kernel_profile: false,
            kernel: KernelMode::Incremental,
        }
    }
}

/// Results of a replay.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Simulated execution time of the application, seconds.
    pub simulated_time: f64,
    /// Number of trace actions consumed.
    pub actions_replayed: u64,
    /// Wall-clock time of the simulation itself (Figure 9's metric).
    pub wall_time: std::time::Duration,
    /// Timed trace when `collect_records` was set.
    pub records: Option<Vec<OpRecord>>,
    /// Kernel self-profile when `cfg.kernel_profile` was set.
    pub kernel_profile: Option<simkern::KernelProfile>,
}

/// Observer pushing into a shared vector (so the caller keeps access
/// after the engine consumes the box).
struct SharedCollector(Arc<Mutex<Vec<OpRecord>>>);

impl Observer for SharedCollector {
    fn record(&mut self, rec: OpRecord) {
        // panics: mutex poisoned only if another thread already panicked
        self.0.lock().unwrap().push(rec);
    }
}

/// An engine with every rank's actor spawned, configured from the whole
/// [`ReplayConfig`], ready for `run_checked` / `run_until` (or a
/// snapshot restore first).
pub(crate) struct Started {
    pub(crate) engine: Engine,
    /// Actions pulled from the sources so far (shared by all actors).
    pub(crate) counter: Arc<AtomicU64>,
    records: Option<Arc<Mutex<Vec<OpRecord>>>>,
    cache: Option<Arc<SegmentCache>>,
}

impl Started {
    /// Actions replayed so far.
    pub(crate) fn actions(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// The timed trace, when `cfg.collect_records` was set.
    pub(crate) fn take_records(&self) -> Option<Vec<OpRecord>> {
        // panics: mutex poisoned only if another thread already panicked
        self.records.as_ref().map(|r| std::mem::take(&mut *r.lock().unwrap()))
    }

    /// Upgrades a failure caused by a recorded segment-cache fault back
    /// into its typed form ([`ReplayError::Store`] /
    /// [`ReplayError::Memory`]): the engine only carries stringly actor
    /// failures, but the cache remembers what actually went wrong.
    pub(crate) fn retype(&self, err: ReplayError) -> ReplayError {
        self.cache.as_ref().and_then(|c| c.take_fault()).unwrap_or(err)
    }

    /// The damage-tolerant reading of an engine stop, shared by the
    /// degraded drivers and tolerant requests: a deadlock, actor
    /// failure or protocol violation caused by damage becomes part of
    /// the answer as `(time reached, detail)`. A budget refusal is an
    /// environment problem, not damage, and stays a typed error.
    pub(crate) fn downgrade(&self, e: SimError) -> Result<(f64, String), ReplayError> {
        match e {
            SimError::Deadlock { .. }
            | SimError::ActorFailure { .. }
            | SimError::Protocol { .. } => match self.cache.as_ref().and_then(|c| c.take_fault()) {
                Some(m @ ReplayError::Memory(_)) => Err(m),
                _ => Ok((e.time(), e.to_string())),
            },
        }
    }
}

/// The one engine setup behind every driver: checks the deployment,
/// applies the whole [`ReplayConfig`] (kernel mode, network model,
/// kernel profiling, timed-trace collection fanned out with
/// `observer`) and spawns one [`ReplayActor`] per rank.
pub(crate) fn start(
    sources: Sources,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
    observer: Option<Box<dyn Observer>>,
) -> Result<Started, ReplayError> {
    let Sources { ranks, cache, .. } = sources;
    if ranks.len() != hosts.len() {
        return Err(ReplayError::Deployment { procs: ranks.len(), hosts: hosts.len() });
    }
    let mut engine = Engine::new(platform);
    engine.set_kernel_mode(cfg.kernel);
    engine.set_network_config(cfg.network.clone());
    if cfg.kernel_profile {
        engine.enable_kernel_profiling();
    }
    let records = cfg.collect_records.then(|| Arc::new(Mutex::new(Vec::new())));
    let collector = records
        .as_ref()
        .map(|r| Box::new(SharedCollector(Arc::clone(r))) as Box<dyn Observer>);
    match (collector, observer) {
        (Some(c), Some(obs)) => engine.set_observer(Box::new(Fanout::new().with(c).with(obs))),
        (Some(obs), None) | (None, Some(obs)) => engine.set_observer(obs),
        (None, None) => {}
    }
    let registry = Arc::new(Registry::with_defaults());
    let counter = Arc::new(AtomicU64::new(0));
    for (rank, src) in ranks.into_iter().enumerate() {
        let actor = ReplayActor::new(rank, src, registry.clone(), cfg.algo, counter.clone());
        engine.spawn(Box::new(actor), hosts[rank]);
    }
    Ok(Started { engine, counter, records, cache })
}

/// Replays `sources` to completion: the strict driver. `hosts[rank]` is
/// rank's host; `observer` (a `titobs` timeline, profile or metrics
/// sink, or several through [`Fanout`]) streams every completed
/// operation and is composed with the timed-trace collector when
/// `cfg.collect_records` is set.
pub fn replay(
    sources: Sources,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
    observer: Option<Box<dyn Observer>>,
) -> Result<ReplayOutcome, ReplayError> {
    let mut run = start(sources, platform, hosts, cfg, observer)?;
    let t0 = Instant::now();
    let simulated_time = run.engine.run_checked().map_err(|e| run.retype(e.into()))?;
    let wall_time = t0.elapsed();
    Ok(ReplayOutcome {
        simulated_time,
        actions_replayed: run.actions(),
        wall_time,
        records: run.take_records(),
        kernel_profile: run.engine.take_kernel_profile(),
    })
}

/// Replays an in-memory trace. `hosts[rank]` is rank's host.
pub fn replay_memory(
    trace: &TiTrace,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, ReplayError> {
    replay(Sources::memory(trace), platform, hosts, cfg, None)
}

/// Replays per-process trace files `SG_process<rank>.trace` from `dir`,
/// streaming them (see [`Sources::files`]).
pub fn replay_files(
    dir: &Path,
    nproc: usize,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, ReplayError> {
    replay(Sources::files(dir, nproc)?, platform, hosts, cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tit_core::Action;
    use tit_platform::desc::{ClusterSpec, ClusterTopology, PlatformDesc};

    fn mycluster(n: usize) -> (Platform, Vec<HostId>) {
        // The Figure 5 platform, scaled to n nodes.
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
        // Identity network model for analytically-checkable timings.
        ReplayConfig { network: NetworkConfig::default(), ..Default::default() }
    }

    /// The paper's Figure 1 ring (single iteration).
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

    #[test]
    fn figure_1_ring_replays_to_analytic_time() {
        let (p, hosts) = mycluster(4);
        let out = replay_memory(&ring_trace(), p, &hosts, &plain_cfg()).unwrap();
        // Four sequential hops: compute 1e6/1.17e9 + transfer 1e6/1.25e8
        // + 3 hop latencies each.
        let hop = 1e6 / 1.17e9 + 1e6 / 1.25e8 + 3.0 * 16.67e-6;
        let expect = 4.0 * hop;
        let rel = (out.simulated_time - expect).abs() / expect;
        assert!(
            rel < 1e-9,
            "ring: expected {expect}, got {} (rel {rel})",
            out.simulated_time
        );
        assert_eq!(out.actions_replayed, 12);
    }

    #[test]
    fn replay_is_deterministic() {
        let (p1, hosts) = mycluster(4);
        let (p2, _) = mycluster(4);
        let a = replay_memory(&ring_trace(), p1, &hosts, &plain_cfg()).unwrap();
        let b = replay_memory(&ring_trace(), p2, &hosts, &plain_cfg()).unwrap();
        assert_eq!(a.simulated_time, b.simulated_time);
    }

    #[test]
    fn exchange_with_irecv_wait_does_not_deadlock() {
        // Two ranks post Irecv first, then a (rendezvous) send, then wait:
        // the LU benchmark's exchange pattern.
        let mut t = TiTrace::new(2);
        for (me, other) in [(0usize, 1usize), (1, 0)] {
            t.push(me, Action::Irecv { src: other, bytes: None });
            t.push(me, Action::Send { dst: other, bytes: 1e6 });
            t.push(me, Action::Wait);
        }
        let (p, hosts) = mycluster(2);
        let out = replay_memory(&t, p, &hosts, &plain_cfg()).unwrap();
        // Both transfers share both NICs; either way it takes at least one
        // transfer time.
        assert!(out.simulated_time >= 1e6 / 1.25e8);
    }

    #[test]
    fn collectives_replay_on_all_ranks() {
        let n = 8;
        let mut t = TiTrace::new(n);
        for r in 0..n {
            t.push(r, Action::CommSize { nproc: n });
            t.push(r, Action::Bcast { bytes: 1e5 });
            t.push(r, Action::AllReduce { vcomm: 1e4, vcomp: 1e6 });
            t.push(r, Action::Barrier);
        }
        let (p, hosts) = mycluster(n);
        let out = replay_memory(&t, p, &hosts, &plain_cfg()).unwrap();
        assert!(out.simulated_time > 0.0);
        assert_eq!(out.actions_replayed, (n * 4) as u64);
    }

    #[test]
    fn binomial_beats_flat_bcast() {
        let n = 16;
        let mut t = TiTrace::new(n);
        for r in 0..n {
            t.push(r, Action::CommSize { nproc: n });
            t.push(r, Action::Bcast { bytes: 1e6 });
        }
        let (p1, hosts) = mycluster(n);
        let (p2, _) = mycluster(n);
        let bino = replay_memory(&t, p1, &hosts, &plain_cfg()).unwrap();
        let flat_cfg = ReplayConfig { algo: CollectiveAlgo::Flat, ..plain_cfg() };
        let flat = replay_memory(&t, p2, &hosts, &flat_cfg).unwrap();
        assert!(
            bino.simulated_time < flat.simulated_time,
            "binomial {} vs flat {}",
            bino.simulated_time,
            flat.simulated_time
        );
    }

    #[test]
    fn file_replay_matches_memory_replay() {
        let dir = std::env::temp_dir().join(format!("titr-replayf-{}", std::process::id()));
        let t = ring_trace();
        t.save_per_process(&dir).unwrap();
        let (p1, hosts) = mycluster(4);
        let (p2, _) = mycluster(4);
        let mem = replay_memory(&t, p1, &hosts, &plain_cfg()).unwrap();
        let fil = replay_files(&dir, 4, p2, &hosts, &plain_cfg()).unwrap();
        assert_eq!(mem.simulated_time, fil.simulated_time);
        assert_eq!(mem.actions_replayed, fil.actions_replayed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_replay_matches_memory_replay() {
        let t = ring_trace();
        let compact = Arc::new(tit_core::CompactTrace::from_trace(&t).unwrap());
        let (p1, hosts) = mycluster(4);
        let (p2, _) = mycluster(4);
        let mem = replay_memory(&t, p1, &hosts, &plain_cfg()).unwrap();
        let cmp = replay(Sources::compact(&compact), p2, &hosts, &plain_cfg(), None).unwrap();
        assert_eq!(mem.simulated_time, cmp.simulated_time);
        assert_eq!(mem.actions_replayed, cmp.actions_replayed);
    }

    #[test]
    fn parallel_file_replay_matches_streaming_replay() {
        let dir = std::env::temp_dir().join(format!("titr-pjobs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = ring_trace();
        t.save_per_process(&dir).unwrap();
        let (p1, hosts) = mycluster(4);
        let (p2, _) = mycluster(4);
        let streaming = replay_files(&dir, 4, p1, &hosts, &plain_cfg()).unwrap();
        let compact = Arc::new(tit_core::load_compact_exact(&dir, 4, 3).unwrap());
        let parallel = replay(Sources::compact(&compact), p2, &hosts, &plain_cfg(), None).unwrap();
        assert_eq!(streaming.simulated_time, parallel.simulated_time);
        assert_eq!(streaming.actions_replayed, parallel.actions_replayed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The `--jobs N` path: parallel ingest into a compact trace, then
    /// replay; ingest failures convert into typed replay errors.
    fn jobs_replay(
        dir: &Path,
        nproc: usize,
        jobs: usize,
        platform: Platform,
        hosts: &[HostId],
    ) -> Result<ReplayOutcome, ReplayError> {
        let compact = Arc::new(tit_core::load_compact_exact(dir, nproc, jobs)?);
        replay(Sources::compact(&compact), platform, hosts, &plain_cfg(), None)
    }

    #[test]
    fn parallel_file_replay_reports_missing_and_defective_ranks() {
        let dir = std::env::temp_dir().join(format!("titr-pjobs-err-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ring_trace().save_per_process(&dir).unwrap();
        let (p1, hosts5) = mycluster(5);
        let err = jobs_replay(&dir, 5, 2, p1, &hosts5).unwrap_err();
        match err {
            ReplayError::MissingRank { rank, .. } => assert_eq!(rank, 4),
            other => panic!("expected MissingRank, got {other}"),
        }
        std::fs::write(dir.join("SG_process2.trace"), "p2 frobnicate\n").unwrap();
        let (p2, hosts4) = mycluster(4);
        let err = jobs_replay(&dir, 4, 2, p2, &hosts4).unwrap_err();
        match err {
            ReplayError::Trace { rank, detail } => {
                assert_eq!(rank, 2);
                assert!(detail.contains("frobnicate"), "{detail}");
            }
            other => panic!("expected Trace, got {other}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn start_applies_the_whole_config() {
        // Every driver goes through `start`, so this pins that none of
        // them can silently drop a ReplayConfig field.
        for kernel in [KernelMode::Incremental, KernelMode::Reference] {
            for flag in [false, true] {
                let cfg = ReplayConfig {
                    network: NetworkConfig::constant(),
                    kernel,
                    kernel_profile: flag,
                    collect_records: flag,
                    ..Default::default()
                };
                let (p, hosts) = mycluster(4);
                let mut run = start(Sources::memory(&ring_trace()), p, &hosts, &cfg, None).unwrap();
                assert_eq!(run.engine.kernel_mode(), kernel);
                assert_eq!(
                    format!("{:?}", run.engine.network_config()),
                    format!("{:?}", cfg.network)
                );
                run.engine.run_checked().unwrap();
                assert_eq!(run.engine.take_kernel_profile().is_some(), flag, "kprof");
                assert_eq!(run.take_records().map(|r| r.len()), flag.then_some(12));
            }
        }
    }

    #[test]
    fn timed_trace_records_cover_all_ops() {
        let (p, hosts) = mycluster(4);
        let cfg = ReplayConfig { collect_records: true, ..plain_cfg() };
        let out = replay_memory(&ring_trace(), p, &hosts, &cfg).unwrap();
        let recs = out.records.unwrap();
        // 12 actions, each one kernel op.
        assert_eq!(recs.len(), 12);
        // Records end no later than the simulated time and are plausible.
        for r in &recs {
            assert!(r.start >= 0.0 && r.end <= out.simulated_time + 1e-12);
            assert!(r.start <= r.end);
        }
    }

    #[test]
    fn extra_observer_composes_with_record_collection() {
        struct Count(Arc<Mutex<(u64, f64)>>);
        impl Observer for Count {
            fn record(&mut self, _rec: OpRecord) {
                // panics: mutex poisoned only if another thread already panicked
                self.0.lock().unwrap().0 += 1;
            }
            fn engine_ended(&mut self, time: f64) {
                // panics: mutex poisoned only if another thread already panicked
                self.0.lock().unwrap().1 = time;
            }
        }
        let state = Arc::new(Mutex::new((0u64, 0.0f64)));
        let (p, hosts) = mycluster(4);
        let cfg = ReplayConfig { collect_records: true, ..plain_cfg() };
        let out = replay(
            Sources::memory(&ring_trace()),
            p,
            &hosts,
            &cfg,
            Some(Box::new(Count(state.clone()))),
        )
        .unwrap();
        let (seen, ended) = *state.lock().unwrap();
        // Both sinks saw every record, and the collector still filled.
        assert_eq!(seen, out.records.unwrap().len() as u64);
        assert_eq!(ended, out.simulated_time);
    }

    #[test]
    fn kernel_profiling_does_not_perturb_simulation() {
        let (p1, hosts) = mycluster(4);
        let (p2, _) = mycluster(4);
        let plain = replay_memory(&ring_trace(), p1, &hosts, &plain_cfg()).unwrap();
        let cfg = ReplayConfig { kernel_profile: true, ..plain_cfg() };
        let prof = replay_memory(&ring_trace(), p2, &hosts, &cfg).unwrap();
        assert_eq!(plain.simulated_time, prof.simulated_time);
        assert!(plain.kernel_profile.is_none(), "off by default");
        let kp = prof.kernel_profile.expect("profile present when requested");
        assert!(kp.ops_completed > 0);
        assert!(kp.solver.solves > 0);
        assert!(kp.heap_pushes >= kp.heap_pops);
        assert!(kp.wall.total_s > 0.0);
    }

    #[test]
    fn unbalanced_trace_deadlocks_with_diagnostic() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Recv { src: 1, bytes: None });
        let (p, hosts) = mycluster(2);
        let err = replay_memory(&t, p, &hosts, &plain_cfg()).unwrap_err();
        match &err {
            ReplayError::Sim(simkern::SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].actor, 0, "rank 0 is the one left hanging");
                assert_eq!(blocked[0].kind, Some(simkern::OpKind::Recv));
            }
            other => panic!("expected a deadlock, got {other}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("p0"), "diagnostic must name the rank: {msg}");
    }

    #[test]
    fn mpi_cluster_model_slows_bulk_transfers() {
        let mut t = TiTrace::new(2);
        t.push(0, Action::Send { dst: 1, bytes: 1e7 });
        t.push(1, Action::Recv { src: 0, bytes: None });
        let (p1, hosts) = mycluster(2);
        let (p2, _) = mycluster(2);
        let plain = replay_memory(&t, p1, &hosts, &plain_cfg()).unwrap();
        let mpi = replay_memory(&t, p2, &hosts, &ReplayConfig::default()).unwrap();
        assert!(mpi.simulated_time > plain.simulated_time);
    }
}
