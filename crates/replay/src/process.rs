//! The per-process replaying actor.
//!
//! One [`ReplayActor`] per MPI rank streams actions from its source (an
//! in-memory list or a per-process trace file), expands them through the
//! handler [`Registry`] and executes the resulting micro-ops on the
//! simulation kernel. Non-blocking operations enqueue their kernel op in
//! a FIFO request queue; `wait` completes the oldest one — the format has
//! no request identifiers, and the paper's prototype behaves the same
//! way.

use crate::collectives::CollectiveAlgo;
use crate::error::ReplayError;
use crate::handlers::{ExpandCtx, MicroOp, Registry};
use crate::store::{store_sources, SegmentCache};
use simkern::engine::{Ctx, MailboxKey, OpId};
use simkern::{Actor, Step, Wake};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::path::Path;
use tit_core::checkpoint::{Dec, Enc};
use tit_core::trace::{process_trace_filename, RankReader};
use tit_core::{Action, CompactTrace, MemBudget, TiTrace, Tib2Store};

/// Supplies the action stream of one process.
pub trait ActionSource: Send {
    /// Next action, or `None` at end of trace.
    fn next_action(&mut self) -> std::io::Result<Option<Action>>;
}

/// In-memory action list.
pub struct VecSource(std::vec::IntoIter<Action>);

impl VecSource {
    /// Wraps an owned action list.
    pub fn new(actions: Vec<Action>) -> Self {
        VecSource(actions.into_iter())
    }
}

impl ActionSource for VecSource {
    fn next_action(&mut self) -> std::io::Result<Option<Action>> {
        Ok(self.0.next())
    }
}

/// One rank's slice of a shared interned [`tit_core::CompactTrace`] — the
/// zero-copy source behind [`Sources::compact`].
/// Cloning the `Arc` per rank lets all actors stream from one
/// struct-of-arrays allocation.
pub struct CompactSource {
    trace: Arc<tit_core::CompactTrace>,
    rank: usize,
    index: usize,
}

impl CompactSource {
    /// A source over `rank`'s actions in `trace`. Ranks beyond
    /// `trace.num_processes()` simply yield an empty stream.
    pub fn new(trace: Arc<tit_core::CompactTrace>, rank: usize) -> Self {
        CompactSource { trace, rank, index: 0 }
    }
}

impl ActionSource for CompactSource {
    fn next_action(&mut self) -> std::io::Result<Option<Action>> {
        let a = self.trace.get(self.rank, self.index);
        if a.is_some() {
            self.index += 1;
        }
        Ok(a)
    }
}

/// Streaming per-process trace file (`SG_process<N>.trace`), read by
/// [`RankReader`]: the first faulty line ends the stream with an error
/// naming the file and line.
pub struct FileSource {
    reader: RankReader,
    path: std::path::PathBuf,
}

impl FileSource {
    /// Opens `rank`'s trace file in `dir`.
    pub fn open(dir: &Path, rank: usize) -> std::io::Result<Self> {
        Ok(FileSource {
            reader: RankReader::open(dir, rank)?,
            path: dir.join(process_trace_filename(rank)),
        })
    }
}

impl ActionSource for FileSource {
    fn next_action(&mut self) -> std::io::Result<Option<Action>> {
        match self.reader.next() {
            None => Ok(None),
            Some((_, Ok(a))) => Ok(Some(a)),
            Some((line, Err(fault))) => {
                let e = fault.into_io(line);
                Err(std::io::Error::new(e.kind(), format!("{}: {e}", self.path.display())))
            }
        }
    }
}

/// The per-rank action streams of one replay — what every driver
/// ([`crate::replay`], [`crate::run_checkpointed`],
/// [`crate::run_request`]) consumes. Besides the streams it remembers
/// two facts about their origin: the segment cache whose recorded
/// fault turns a stringly actor failure back into a typed
/// [`ReplayError::Store`] / [`ReplayError::Memory`], and the trace salt
/// a checkpoint is keyed on (a `TIB2` store's footer hash, `0` for
/// every other source; see [`crate::resume::keyed_fingerprint`]).
pub struct Sources {
    pub(crate) ranks: Vec<Box<dyn ActionSource>>,
    pub(crate) cache: Option<Arc<SegmentCache>>,
    pub(crate) salt: u64,
}

impl Sources {
    /// Streams `SG_process<rank>.trace` from `dir` for ranks
    /// `0..nproc` (constant memory in trace size). A rank whose file is
    /// missing is a [`ReplayError::MissingRank`] naming the rank.
    pub fn files(dir: &Path, nproc: usize) -> Result<Self, ReplayError> {
        let ranks = (0..nproc)
            .map(|rank| {
                match FileSource::open(dir, rank) {
                    Ok(src) => Ok(Box::new(src) as Box<dyn ActionSource>),
                    Err(source) => Err(ReplayError::MissingRank {
                        rank,
                        path: dir.join(process_trace_filename(rank)),
                        source,
                    }),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Sources::from_ranks(ranks))
    }

    /// Streams an in-memory trace (one copy of each rank's actions).
    pub fn memory(trace: &TiTrace) -> Self {
        Sources::from_ranks(
            trace
                .actions
                .iter()
                .map(|a| Box::new(VecSource::new(a.clone())) as Box<dyn ActionSource>)
                .collect(),
        )
    }

    /// Streams every rank straight out of a shared interned
    /// [`CompactTrace`] (~16 bytes/action, no per-rank copies): the
    /// fast path for repeated or memory-bound replays.
    pub fn compact(trace: &Arc<CompactTrace>) -> Self {
        Sources::from_ranks(
            (0..trace.num_processes())
                .map(|rank| {
                    Box::new(CompactSource::new(Arc::clone(trace), rank)) as Box<dyn ActionSource>
                })
                .collect(),
        )
    }

    /// Pages every rank out of a `TIB2` store through one shared
    /// [`SegmentCache`] governed by `budget`. Cache faults surface as
    /// typed errors, and checkpoints bind to the store's footer hash.
    pub fn store(store: &Arc<Tib2Store>, budget: Arc<MemBudget>) -> Self {
        let cache = Arc::new(SegmentCache::new(Arc::clone(store), budget));
        Sources { ranks: store_sources(&cache), cache: Some(cache), salt: store.fingerprint() }
    }

    /// Replaces the listed ranks' streams with empty ones (the
    /// dropped-rank subset a what-if request asks for). Ranks out of
    /// range are ignored.
    #[must_use]
    pub fn drop_ranks(mut self, ranks: &[usize]) -> Self {
        for &rank in ranks {
            if let Some(slot) = self.ranks.get_mut(rank) {
                *slot = Box::new(VecSource::new(Vec::new()));
            }
        }
        self
    }

    /// Unsalted streams without a segment cache.
    pub(crate) fn from_ranks(ranks: Vec<Box<dyn ActionSource>>) -> Self {
        Sources { ranks, cache: None, salt: 0 }
    }
}

/// The replaying state machine for one rank.
pub struct ReplayActor {
    rank: usize,
    nproc: usize,
    src: Box<dyn ActionSource>,
    registry: Arc<Registry>,
    algo: CollectiveAlgo,
    micro: VecDeque<MicroOp>,
    expand_buf: Vec<MicroOp>,
    requests: VecDeque<OpId>,
    actions_replayed: Arc<AtomicU64>,
    /// Actions this actor itself has pulled from `src` — the resume
    /// cursor. Unlike the shared `actions_replayed` counter this is
    /// per-rank, so a restored actor knows how far to fast-forward its
    /// own stream.
    cursor: u64,
}

impl ReplayActor {
    /// Builds the actor for `rank`, incrementing `actions_replayed`
    /// once per action pulled from `src`.
    pub fn new(
        rank: usize,
        src: Box<dyn ActionSource>,
        registry: Arc<Registry>,
        algo: CollectiveAlgo,
        actions_replayed: Arc<AtomicU64>,
    ) -> Self {
        ReplayActor {
            rank,
            nproc: 0,
            src,
            registry,
            algo,
            micro: VecDeque::new(),
            expand_buf: Vec::new(),
            requests: VecDeque::new(),
            actions_replayed,
            cursor: 0,
        }
    }

    /// Serializes one queued micro-op (checkpoint payload).
    fn enc_micro(e: &mut Enc, op: &MicroOp) {
        match *op {
            MicroOp::Exec { flops, tag } => {
                e.u8(0);
                e.f64(flops);
                e.u32(tag);
            }
            MicroOp::Send { dst, bytes, tag } => {
                e.u8(1);
                e.usize(dst);
                e.f64(bytes);
                e.u32(tag);
            }
            MicroOp::Recv { src, tag } => {
                e.u8(2);
                e.usize(src);
                e.u32(tag);
            }
            MicroOp::CollSend { dst, bytes, tag } => {
                e.u8(3);
                e.usize(dst);
                e.f64(bytes);
                e.u32(tag);
            }
            MicroOp::CollRecv { src, tag } => {
                e.u8(4);
                e.usize(src);
                e.u32(tag);
            }
            MicroOp::IsendReq { dst, bytes, tag } => {
                e.u8(5);
                e.usize(dst);
                e.f64(bytes);
                e.u32(tag);
            }
            MicroOp::IrecvReq { src, tag } => {
                e.u8(6);
                e.usize(src);
                e.u32(tag);
            }
            MicroOp::WaitReq { tag } => {
                e.u8(7);
                e.u32(tag);
            }
            MicroOp::SetCommSize { nproc } => {
                e.u8(8);
                e.usize(nproc);
            }
        }
    }

    /// Deserializes one micro-op written by [`Self::enc_micro`].
    fn dec_micro(d: &mut Dec<'_>) -> Result<MicroOp, String> {
        Ok(match d.u8()? {
            0 => MicroOp::Exec { flops: d.f64()?, tag: d.u32()? },
            1 => MicroOp::Send { dst: d.usize()?, bytes: d.f64()?, tag: d.u32()? },
            2 => MicroOp::Recv { src: d.usize()?, tag: d.u32()? },
            3 => MicroOp::CollSend { dst: d.usize()?, bytes: d.f64()?, tag: d.u32()? },
            4 => MicroOp::CollRecv { src: d.usize()?, tag: d.u32()? },
            5 => MicroOp::IsendReq { dst: d.usize()?, bytes: d.f64()?, tag: d.u32()? },
            6 => MicroOp::IrecvReq { src: d.usize()?, tag: d.u32()? },
            7 => MicroOp::WaitReq { tag: d.u32()? },
            8 => MicroOp::SetCommSize { nproc: d.usize()? },
            k => return Err(format!("unknown micro-op discriminant {k}")),
        })
    }

    /// Runs one micro-op; `Ok(Some(step))` when it blocks the actor,
    /// `Err` when the trace is structurally impossible at this point.
    fn run_micro(&mut self, ctx: &mut Ctx<'_>, op: MicroOp) -> Result<Option<Step>, String> {
        match op {
            MicroOp::Exec { flops, tag } => Ok(Some(Step::Wait(ctx.execute_tagged(flops, tag)))),
            MicroOp::Send { dst, bytes, tag } => {
                let mb = MailboxKey::p2p(self.rank, dst);
                Ok(Some(Step::Wait(ctx.isend_tagged(mb, bytes, tag))))
            }
            MicroOp::Recv { src, tag } => {
                let mb = MailboxKey::p2p(src, self.rank);
                Ok(Some(Step::Wait(ctx.irecv_tagged(mb, tag))))
            }
            MicroOp::CollSend { dst, bytes, tag } => {
                let mb = MailboxKey::coll(self.rank, dst);
                Ok(Some(Step::Wait(ctx.isend_tagged(mb, bytes, tag))))
            }
            MicroOp::CollRecv { src, tag } => {
                let mb = MailboxKey::coll(src, self.rank);
                Ok(Some(Step::Wait(ctx.irecv_tagged(mb, tag))))
            }
            MicroOp::IsendReq { dst, bytes, tag } => {
                let mb = MailboxKey::p2p(self.rank, dst);
                let op = ctx.isend_tagged(mb, bytes, tag);
                self.requests.push_back(op);
                Ok(None)
            }
            MicroOp::IrecvReq { src, tag } => {
                let mb = MailboxKey::p2p(src, self.rank);
                let op = ctx.irecv_tagged(mb, tag);
                self.requests.push_back(op);
                Ok(None)
            }
            MicroOp::WaitReq { .. } => match self.requests.pop_front() {
                Some(op) => Ok(Some(Step::Wait(op))),
                None => Err("wait with no pending request (malformed trace)".into()),
            },
            MicroOp::SetCommSize { nproc } => {
                self.nproc = nproc;
                Ok(None)
            }
        }
    }
}

impl Actor for ReplayActor {
    fn step(&mut self, ctx: &mut Ctx<'_>, _wake: Wake) -> Step {
        loop {
            if let Some(op) = self.micro.pop_front() {
                match self.run_micro(ctx, op) {
                    Ok(Some(step)) => return step,
                    Ok(None) => continue,
                    // Failure channel: report instead of unwinding —
                    // the engine aborts the run with a typed error
                    // naming this rank.
                    Err(reason) => return Step::Fail { reason },
                }
            }
            let action = match self.src.next_action() {
                Ok(Some(a)) => a,
                Ok(None) => return Step::Done,
                Err(e) => return Step::Fail { reason: format!("trace read failed: {e}") },
            };
            self.actions_replayed.fetch_add(1, Ordering::Relaxed);
            self.cursor += 1;
            let ectx = ExpandCtx { rank: self.rank, nproc: self.nproc, algo: self.algo };
            self.expand_buf.clear();
            if let Err(e) = self.registry.expand(&ectx, &action, &mut self.expand_buf) {
                return Step::Fail { reason: e.to_string() };
            }
            self.micro.extend(self.expand_buf.drain(..));
        }
    }

    fn export_state(&self) -> Option<Vec<u8>> {
        let mut e = Enc::new();
        e.usize(self.rank);
        e.usize(self.nproc);
        e.u64(self.cursor);
        e.usize(self.micro.len());
        for op in &self.micro {
            Self::enc_micro(&mut e, op);
        }
        e.usize(self.requests.len());
        for &op in &self.requests {
            e.usize(op.to_raw());
        }
        Some(e.finish())
    }

    fn import_state(&mut self, state: &[u8]) -> Result<(), String> {
        let mut d = Dec::new(state);
        let rank = d.usize()?;
        if rank != self.rank {
            return Err(format!(
                "checkpointed state for rank {rank} restored into rank {}",
                self.rank
            ));
        }
        let nproc = d.usize()?;
        let cursor = d.u64()?;
        let n_micro = d.usize()?;
        let mut micro = VecDeque::with_capacity(n_micro.min(1 << 16));
        for _ in 0..n_micro {
            micro.push_back(Self::dec_micro(&mut d)?);
        }
        let n_req = d.usize()?;
        let mut requests = VecDeque::with_capacity(n_req.min(1 << 16));
        for _ in 0..n_req {
            requests.push_back(OpId::from_raw(d.usize()?));
        }
        d.expect_done()?;
        // Fast-forward the action stream to the cursor without touching
        // the shared counter — the resumed total is restored from the
        // checkpoint, not re-counted.
        for i in 0..cursor {
            match self.src.next_action() {
                Ok(Some(_)) => {}
                Ok(None) => {
                    return Err(format!(
                        "rank {}: trace ended at action {i} but the checkpoint \
                         consumed {cursor} — trace changed since the checkpoint",
                        self.rank
                    ));
                }
                Err(e) => {
                    return Err(format!(
                        "rank {}: trace read failed while fast-forwarding to \
                         action {cursor}: {e}",
                        self.rank
                    ));
                }
            }
        }
        self.nproc = nproc;
        self.cursor = cursor;
        self.micro = micro;
        self.requests = requests;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_source_yields_in_order() {
        let mut s = VecSource::new(vec![Action::Wait, Action::Barrier]);
        assert_eq!(s.next_action().unwrap(), Some(Action::Wait));
        assert_eq!(s.next_action().unwrap(), Some(Action::Barrier));
        assert_eq!(s.next_action().unwrap(), None);
    }

    #[test]
    fn compact_source_streams_one_rank() {
        let mut c = tit_core::CompactTrace::new();
        c.begin_process();
        c.push(&Action::Barrier).unwrap();
        c.begin_process();
        c.push(&Action::Wait).unwrap();
        c.push(&Action::Compute { flops: 2.0 }).unwrap();
        let c = Arc::new(c);
        let mut s1 = CompactSource::new(Arc::clone(&c), 1);
        assert_eq!(s1.next_action().unwrap(), Some(Action::Wait));
        assert_eq!(s1.next_action().unwrap(), Some(Action::Compute { flops: 2.0 }));
        assert_eq!(s1.next_action().unwrap(), None);
        let mut beyond = CompactSource::new(c, 9);
        assert_eq!(beyond.next_action().unwrap(), None);
    }

    #[test]
    fn file_source_rejects_foreign_ranks() {
        let dir = std::env::temp_dir().join(format!("titr-fsrc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("SG_process0.trace"), "p1 wait\n").unwrap();
        let mut s = FileSource::open(&dir, 0).unwrap();
        let e = s.next_action().unwrap_err().to_string();
        assert!(e.ends_with("SG_process0.trace: trace parse error at line 1: belongs to p1, not p0"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
