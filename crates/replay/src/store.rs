//! Replaying straight out of a `TIB2` segmented store (DESIGN.md §5i).
//!
//! PR 4's [`CompactSource`](crate::process::CompactSource) streams from
//! a fully-resident [`tit_core::CompactTrace`]; this module's
//! [`SegmentedSource`] streams from disk instead, faulting 40-byte
//! footer entries into decoded segments on demand through a shared
//! [`SegmentCache`]. Peak memory is O(ranks + resident segments)
//! regardless of trace length: each rank pins at most its *current*
//! segment, and everything else is cache that the
//! [`MemBudget`] governor can evict and re-fault at will. Under
//! `--mem-budget` the cap is *hard* — when the pinned working set alone
//! exceeds it, replay stops with a typed [`ReplayError::Memory`],
//! never an OOM kill.
//!
//! Verification is fail-closed per read ([`tit_core::tib2::Tib2Store`]
//! checks the FNV-1a checksum before decoding), so a strict replay
//! that touches a damaged segment stops with a typed
//! [`ReplayError::Store`] naming rank, segment and offset. Degraded
//! replay ([`replay_store_degraded`]) runs the full verification sweep
//! first and trims each damaged rank at its last verified segment
//! boundary — the footer index knows exactly how many actions every
//! trimmed segment held, so the completeness ratio is exact, not
//! estimated.
//!
//! The two replay paths are bit-identical on a clean store: the same
//! action stream reaches the same kernel, so `--store` simulated times
//! equal `--trace-dir` simulated times to the last bit (the
//! differential test in `tests/store.rs` holds this line).

use crate::degraded::{replay_salvage, DegradationReason, DegradedOutcome, RankDegradation};
use crate::error::ReplayError;
use crate::process::{ActionSource, Sources};
use crate::simulator::ReplayConfig;
use simkern::observer::Observer;
use simkern::resource::HostId;
use simkern::Platform;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tit_core::membudget::{MemBudget, MemoryExceeded};
use tit_core::tib2::{SegmentColumns, StoreError, Tib2Store};
use tit_core::Action;

/// Why a segment could not be served to a source — the typed fault the
/// cache records so the replay driver can surface it instead of a
/// stringly actor failure.
#[derive(Debug)]
enum Fault {
    Store(StoreError),
    Memory(MemoryExceeded),
}

impl Fault {
    fn to_replay_error(&self) -> ReplayError {
        match self {
            // StoreError is not Clone (it can wrap io::Error); rebuild
            // the typed variant from its parts.
            Fault::Store(StoreError::SegmentDamaged { rank, segment, offset, detail }) => {
                ReplayError::Store(StoreError::SegmentDamaged {
                    rank: *rank,
                    segment: *segment,
                    offset: *offset,
                    detail: detail.clone(),
                })
            }
            Fault::Store(e) => ReplayError::Store(StoreError::FooterDamaged {
                detail: e.to_string(),
            }),
            Fault::Memory(e) => ReplayError::Memory(*e),
        }
    }
}

struct Entry {
    seg: Arc<SegmentColumns>,
    bytes: u64,
    touched: u64,
}

struct Inner {
    map: HashMap<(usize, usize), Entry>,
    clock: u64,
}

/// Shared segment residency: one per replay, feeding every rank's
/// [`SegmentedSource`]. Decoded segments are interned as
/// `Arc<SegmentColumns>`; a source holding its current segment pins it
/// (Arc refcount > 1), everything else is evictable. Residency is
/// charged against the [`MemBudget`] *before* each read, and eviction
/// is least-recently-touched-first among unpinned segments.
pub struct SegmentCache {
    store: Arc<Tib2Store>,
    budget: Arc<MemBudget>,
    inner: Mutex<Inner>,
    fault: Mutex<Option<Fault>>,
    faults: AtomicU64,
    evictions: AtomicU64,
}

impl SegmentCache {
    /// A cache over `store` governed by `budget`.
    pub fn new(store: Arc<Tib2Store>, budget: Arc<MemBudget>) -> Self {
        SegmentCache {
            store,
            budget,
            inner: Mutex::new(Inner { map: HashMap::new(), clock: 0 }),
            fault: Mutex::new(None),
            faults: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<Tib2Store> {
        &self.store
    }

    /// The governing budget.
    pub fn budget(&self) -> &Arc<MemBudget> {
        &self.budget
    }

    /// Segment reads that went to disk (cache misses).
    pub fn fault_count(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Segments dropped to stay under budget.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Takes the first typed fault recorded by a source, if any — the
    /// replay drivers use this to upgrade a stringly actor failure back
    /// into [`ReplayError::Store`] / [`ReplayError::Memory`].
    pub(crate) fn take_fault(&self) -> Option<ReplayError> {
        // panics: mutex poisoned only if another thread already panicked
        self.fault.lock().unwrap().take().map(|f| f.to_replay_error())
    }

    fn record_fault(&self, f: Fault) {
        // panics: mutex poisoned only if another thread already panicked
        let mut slot = self.fault.lock().unwrap();
        if slot.is_none() {
            *slot = Some(f);
        }
    }

    /// Evicts the least-recently-touched segment nobody holds; returns
    /// false when everything resident is pinned.
    fn evict_one(&self) -> bool {
        // panics: mutex poisoned only if another thread already panicked
        let mut inner = self.inner.lock().unwrap();
        let victim = inner
            .map
            .iter()
            .filter(|(_, e)| Arc::strong_count(&e.seg) == 1)
            .min_by_key(|(_, e)| e.touched)
            .map(|(&k, _)| k);
        match victim {
            Some(k) => {
                // panics: the key was just found in the map
                let e = inner.map.remove(&k).unwrap();
                self.budget.release(e.bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Returns one decoded segment, faulting it in under the budget.
    /// Fail-closed on damage; typed refusal when the budget cannot be
    /// met even with every evictable segment dropped.
    pub fn segment(
        &self,
        rank: usize,
        seg: usize,
    ) -> Result<Arc<SegmentColumns>, ReplayError> {
        {
            // panics: mutex poisoned only if another thread already panicked
            let mut inner = self.inner.lock().unwrap();
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(e) = inner.map.get_mut(&(rank, seg)) {
                e.touched = clock;
                return Ok(Arc::clone(&e.seg));
            }
        }
        let meta = *self
            .store
            .segment_meta(rank, seg)
            .ok_or(ReplayError::Store(StoreError::OutOfRange { rank, segment: seg }))?;
        let bytes = meta.decoded_bytes();
        loop {
            match self.budget.try_charge(bytes) {
                Ok(()) => break,
                Err(e) => {
                    if !self.evict_one() {
                        return Err(ReplayError::Memory(e));
                    }
                }
            }
        }
        let seg_cols = match self.store.read_segment(rank, seg) {
            Ok(c) => Arc::new(c),
            Err(e) => {
                self.budget.release(bytes);
                return Err(ReplayError::Store(e));
            }
        };
        self.faults.fetch_add(1, Ordering::Relaxed);
        // panics: mutex poisoned only if another thread already panicked
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        // Two sources racing on the same uncached segment may both read
        // it (same tradeoff as the serve trace cache: a wasted read,
        // never a blocked one); the loser's charge is returned.
        if let Some(e) = inner.map.get_mut(&(rank, seg)) {
            e.touched = clock;
            self.budget.release(bytes);
            return Ok(Arc::clone(&e.seg));
        }
        inner.map.insert((rank, seg), Entry { seg: Arc::clone(&seg_cols), bytes, touched: clock });
        Ok(seg_cols)
    }
}

/// One rank's on-demand action stream out of a [`SegmentCache`]. Holds
/// (pins) exactly one decoded segment at a time; crossing a segment
/// boundary unpins the old one before faulting the next.
pub struct SegmentedSource {
    cache: Arc<SegmentCache>,
    rank: usize,
    /// Segments to serve; `< num_segments(rank)` when degraded replay
    /// trimmed the rank at a damaged segment boundary.
    limit: usize,
    seg: usize,
    idx: usize,
    cur: Option<Arc<SegmentColumns>>,
}

impl SegmentedSource {
    /// A source over all of `rank`'s segments.
    pub fn new(cache: Arc<SegmentCache>, rank: usize) -> Self {
        let limit = cache.store().num_segments(rank);
        SegmentedSource { cache, rank, limit, seg: 0, idx: 0, cur: None }
    }

    /// A source trimmed to the first `limit` segments (degraded mode).
    pub fn trimmed(cache: Arc<SegmentCache>, rank: usize, limit: usize) -> Self {
        let limit = limit.min(cache.store().num_segments(rank));
        SegmentedSource { cache, rank, limit, seg: 0, idx: 0, cur: None }
    }
}

impl ActionSource for SegmentedSource {
    fn next_action(&mut self) -> io::Result<Option<Action>> {
        loop {
            if let Some(cur) = &self.cur {
                if self.idx < cur.len() {
                    let a = cur.action(self.idx);
                    self.idx += 1;
                    return Ok(Some(a));
                }
                self.cur = None;
                self.seg += 1;
                self.idx = 0;
            }
            if self.seg >= self.limit {
                return Ok(None);
            }
            match self.cache.segment(self.rank, self.seg) {
                Ok(c) => self.cur = Some(c),
                Err(e) => {
                    let msg = e.to_string();
                    self.cache.record_fault(match e {
                        ReplayError::Store(s) => Fault::Store(s),
                        ReplayError::Memory(m) => Fault::Memory(m),
                        // panics: SegmentCache::segment only returns the
                        // two variants above
                        other => unreachable!("unexpected cache error {other}"),
                    });
                    return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
                }
            }
        }
    }
}

/// Builds one [`SegmentedSource`] per rank over a shared cache.
#[must_use]
pub fn store_sources(cache: &Arc<SegmentCache>) -> Vec<Box<dyn ActionSource>> {
    (0..cache.store().num_ranks())
        .map(|rank| {
            Box::new(SegmentedSource::new(Arc::clone(cache), rank)) as Box<dyn ActionSource>
        })
        .collect()
}

/// Segment-granular degraded replay: verifies every segment first
/// (O(one segment) memory), trims each damaged rank at its last
/// verified segment boundary, and replays the salvage. The footer
/// index gives the exact action count of every trimmed segment, so
/// [`DegradedOutcome::completeness`] is exact. The store must open
/// (head, trailer, footer intact) — an index-less store has no salvage
/// boundary and fails closed upstream.
pub fn replay_store_degraded(
    store: &Arc<Tib2Store>,
    budget: Arc<MemBudget>,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
    observer: Option<Box<dyn Observer>>,
) -> Result<DegradedOutcome, ReplayError> {
    let nproc = store.num_ranks();

    // Verification sweep: first damaged segment per rank, if any.
    let mut limits = Vec::with_capacity(nproc);
    let mut ranks: Vec<RankDegradation> = Vec::new();
    for rank in 0..nproc {
        let nsegs = store.num_segments(rank);
        let mut limit = nsegs;
        for seg in 0..nsegs {
            if let Err(e) = store.verify_segment(rank, seg) {
                limit = seg;
                let kept: u64 = (0..seg)
                    .map(|s| {
                        // panics: `s < seg <= nsegs`, the index exists
                        u64::from(store.segment_meta(rank, s).unwrap().n_actions)
                    })
                    .sum();
                ranks.push(RankDegradation {
                    rank,
                    reason: DegradationReason::DamagedSegment,
                    actions_kept: kept,
                    lines_trimmed: store.rank_actions(rank) - kept,
                    detail: e.to_string(),
                });
                break;
            }
        }
        limits.push(limit);
    }
    let cache = Arc::new(SegmentCache::new(Arc::clone(store), budget));
    let sources = Sources {
        ranks: limits
            .iter()
            .enumerate()
            .map(|(rank, &limit)| {
                Box::new(SegmentedSource::trimmed(Arc::clone(&cache), rank, limit))
                    as Box<dyn ActionSource>
            })
            .collect(),
        cache: Some(cache),
        salt: store.fingerprint(),
    };
    replay_salvage(sources, store.num_actions(), ranks, platform, hosts, cfg, observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::replay;
    use simkern::netmodel::NetworkConfig;
    use tit_core::tib2::write_compact_atomic;
    use tit_core::{CompactTrace, TiTrace};
    use tit_platform::desc::{ClusterSpec, ClusterTopology, PlatformDesc};

    fn ring_trace(np: usize, iters: usize) -> CompactTrace {
        let mut t = TiTrace::new(np);
        for rank in 0..np {
            t.push(rank, Action::CommSize { nproc: np });
            for i in 0..iters {
                t.push(rank, Action::Compute { flops: 1e5 + i as f64 });
                t.push(rank, Action::Isend { dst: (rank + 1) % np, bytes: 1024.0 });
                t.push(rank, Action::Recv { src: (rank + np - 1) % np, bytes: None });
                t.push(rank, Action::Wait);
                if i % 7 == 3 {
                    t.push(rank, Action::AllReduce { vcomm: 64.0, vcomp: 1e4 });
                }
            }
        }
        CompactTrace::from_trace(&t).unwrap()
    }

    fn testbed(np: usize) -> (Platform, Vec<HostId>) {
        let spec = ClusterSpec {
            id: "mycluster".into(),
            prefix: "mycluster-".into(),
            suffix: ".mysite.fr".into(),
            count: np,
            power: 1.17e9,
            cores: 1,
            bw: 1.25e8,
            lat: 16.67e-6,
            bb_bw: 1.25e9,
            bb_lat: 16.67e-6,
            topology: ClusterTopology::Flat,
        };
        let p = PlatformDesc::single(spec).build();
        let hosts = (0..np as u32).map(HostId).collect();
        (p, hosts)
    }

    fn tmp_store(trace: &CompactTrace, seg: usize) -> (std::path::PathBuf, Arc<Tib2Store>) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "store-test-{}-{}.tib2",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        write_compact_atomic(&path, trace, seg).unwrap();
        let store = Arc::new(Tib2Store::open(&path).unwrap());
        (path, store)
    }

    #[test]
    fn store_replay_is_bit_identical_to_compact() {
        let trace = Arc::new(ring_trace(4, 200));
        let (path, store) = tmp_store(&trace, 64);
        let cfg = ReplayConfig { network: NetworkConfig::default(), ..Default::default() };
        let (p1, h1) = testbed(4);
        let a = replay(Sources::compact(&trace), p1, &h1, &cfg, None).unwrap();
        let (p2, h2) = testbed(4);
        let b = replay(Sources::store(&store, Arc::new(MemBudget::unlimited())), p2, &h2, &cfg, None)
            .unwrap();
        assert_eq!(a.simulated_time.to_bits(), b.simulated_time.to_bits());
        assert_eq!(a.actions_replayed, b.actions_replayed);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn tight_budget_still_replays_exactly() {
        let trace = Arc::new(ring_trace(4, 300));
        let (path, store) = tmp_store(&trace, 32);
        let cfg = ReplayConfig { network: NetworkConfig::default(), ..Default::default() };
        let (p1, h1) = testbed(4);
        let a = replay(Sources::compact(&trace), p1, &h1, &cfg, None).unwrap();
        // Budget for ~6 decoded segments: forces heavy evict/re-fault.
        let budget = Arc::new(MemBudget::new(6 * 700));
        let (p2, h2) = testbed(4);
        let cache = Arc::new(SegmentCache::new(Arc::clone(&store), Arc::clone(&budget)));
        let sources = store_sources(&cache);
        let b = replay(Sources::from_ranks(sources), p2, &h2, &cfg, None).unwrap();
        assert_eq!(a.simulated_time.to_bits(), b.simulated_time.to_bits());
        assert!(cache.eviction_count() > 0, "budget never forced an eviction");
        let total_segments: u64 =
            (0..store.num_ranks()).map(|r| store.num_segments(r) as u64).sum();
        // A replay is one pass per rank: every segment faults exactly
        // once even as the budget churns the cache behind the cursor.
        assert_eq!(cache.fault_count(), total_segments);
        assert!(budget.peak() <= budget.cap());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn evicted_segments_refault_and_reverify() {
        let trace = Arc::new(ring_trace(1, 200));
        let (path, store) = tmp_store(&trace, 32);
        assert!(store.num_segments(0) >= 4);
        let one_seg = store.segment_meta(0, 0).unwrap().decoded_bytes();
        // Room for about two decoded segments.
        let budget = Arc::new(MemBudget::new(2 * one_seg + one_seg / 2));
        let cache = SegmentCache::new(Arc::clone(&store), budget);
        drop(cache.segment(0, 0).unwrap());
        drop(cache.segment(0, 1).unwrap());
        drop(cache.segment(0, 2).unwrap()); // evicts segment 0
        assert!(cache.eviction_count() > 0);
        drop(cache.segment(0, 0).unwrap()); // dropped: must re-fault
        assert_eq!(cache.fault_count(), 4, "3 distinct segments + 1 re-fault");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn impossible_budget_is_typed_refusal() {
        let trace = Arc::new(ring_trace(4, 100));
        let (path, store) = tmp_store(&trace, 32);
        let cfg = ReplayConfig { network: NetworkConfig::default(), ..Default::default() };
        let (p, h) = testbed(4);
        // Fewer bytes than one segment: nothing can ever be resident.
        let err = replay(Sources::store(&store, Arc::new(MemBudget::new(64))), p, &h, &cfg, None)
            .unwrap_err();
        match err {
            ReplayError::Memory(m) => assert_eq!(m.budget, 64),
            other => panic!("expected Memory, got {other}"),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn damaged_segment_is_typed_and_fail_closed() {
        let trace = Arc::new(ring_trace(4, 200));
        let (path, store) = tmp_store(&trace, 64);
        let m = *store.segment_meta(2, 1).unwrap();
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[m.offset as usize + 20] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let store = Arc::new(Tib2Store::open(&path).unwrap());
        let cfg = ReplayConfig { network: NetworkConfig::default(), ..Default::default() };
        let (p, h) = testbed(4);
        let err = replay(Sources::store(&store, Arc::new(MemBudget::unlimited())), p, &h, &cfg, None)
            .unwrap_err();
        match err {
            ReplayError::Store(StoreError::SegmentDamaged { rank, segment, offset, .. }) => {
                assert_eq!((rank, segment, offset), (2, 1, m.offset));
            }
            other => panic!("expected SegmentDamaged, got {other}"),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn degraded_trims_at_segment_granularity_with_exact_ratio() {
        let trace = Arc::new(ring_trace(4, 200));
        let (path, store) = tmp_store(&trace, 64);
        let m = *store.segment_meta(2, 3).unwrap();
        let kept_exact: u64 =
            (0..3).map(|s| u64::from(store.segment_meta(2, s).unwrap().n_actions)).sum();
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[m.offset as usize + 24] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let store = Arc::new(Tib2Store::open(&path).unwrap());
        let cfg = ReplayConfig { network: NetworkConfig::default(), ..Default::default() };
        let (p, h) = testbed(4);
        let out = replay_store_degraded(
            &store,
            Arc::new(MemBudget::unlimited()),
            p,
            &h,
            &cfg,
            None,
        )
        .unwrap();
        assert!(out.is_partial());
        assert!(out.completeness() < 1.0);
        assert_eq!(out.ranks.len(), 1);
        let d = &out.ranks[0];
        assert_eq!(d.rank, 2);
        assert_eq!(d.reason, DegradationReason::DamagedSegment);
        assert_eq!(d.actions_kept, kept_exact);
        assert_eq!(d.actions_kept + d.lines_trimmed, store.rank_actions(2));
        assert_eq!(out.actions_expected, store.num_actions());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn degraded_clean_store_is_complete() {
        let trace = Arc::new(ring_trace(3, 50));
        let (path, store) = tmp_store(&trace, 32);
        let cfg = ReplayConfig { network: NetworkConfig::default(), ..Default::default() };
        let (p, h) = testbed(3);
        let out = replay_store_degraded(
            &store,
            Arc::new(MemBudget::unlimited()),
            p,
            &h,
            &cfg,
            None,
        )
        .unwrap();
        assert!(!out.is_partial());
        assert_eq!(out.completeness(), 1.0);
        assert_eq!(out.actions_replayed, store.num_actions());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn store_checkpoint_binds_to_footer_hash() {
        use crate::resume::{
            run_checkpointed, CheckpointPolicy, CheckpointedStatus, ReplayCheckpoint,
        };
        use tit_core::Budget;

        let trace = Arc::new(ring_trace(4, 120));
        let (path_a, store_a) = tmp_store(&trace, 64);
        // Same platform/config, different trace content.
        let other = Arc::new(ring_trace(4, 121));
        let (path_b, store_b) = tmp_store(&other, 64);
        assert_ne!(store_a.fingerprint(), store_b.fingerprint());

        let cfg = ReplayConfig { network: NetworkConfig::default(), ..Default::default() };
        let ckpath = std::env::temp_dir()
            .join(format!("store-ck-{}.tick", std::process::id()));
        let policy = CheckpointPolicy {
            path: ckpath.clone(),
            every_actions: 50,
            max_wall: Budget::unlimited(),
            stop_after_checkpoints: Some(1),
        };
        let (p, h) = testbed(4);
        let first = run_checkpointed(
            Sources::store(&store_a, Arc::new(MemBudget::unlimited())),
            p,
            &h,
            &cfg,
            None,
            Some(&policy),
            None,
        )
        .unwrap();
        assert!(matches!(first.status, CheckpointedStatus::Paused { .. }));
        let ck = ReplayCheckpoint::load(&ckpath).unwrap();

        // Resuming against the other store fails closed.
        let (p, h) = testbed(4);
        let err = run_checkpointed(
            Sources::store(&store_b, Arc::new(MemBudget::unlimited())),
            p,
            &h,
            &cfg,
            None,
            None,
            Some(&ck),
        )
        .unwrap_err();
        assert!(matches!(err, ReplayError::Checkpoint { .. }), "{err}");

        // Resuming against the original store finishes bit-identically
        // to the uninterrupted store replay.
        let (p, h) = testbed(4);
        let reference =
            replay(Sources::store(&store_a, Arc::new(MemBudget::unlimited())), p, &h, &cfg, None)
                .unwrap();
        let (p, h) = testbed(4);
        let resumed = run_checkpointed(
            Sources::store(&store_a, Arc::new(MemBudget::unlimited())),
            p,
            &h,
            &cfg,
            None,
            None,
            Some(&ck),
        )
        .unwrap();
        assert!(resumed.resumed);
        match resumed.status {
            CheckpointedStatus::Finished { simulated_time } => {
                assert_eq!(simulated_time.to_bits(), reference.simulated_time.to_bits());
            }
            other => panic!("expected Finished, got {other:?}"),
        }
        let _ = std::fs::remove_file(path_a);
        let _ = std::fs::remove_file(path_b);
        let _ = std::fs::remove_file(ckpath);
    }
}
