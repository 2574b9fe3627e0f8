//! Checkpoint/resume replay: interruptible runs with bit-identical
//! continuation.
//!
//! A long replay periodically pauses at a kernel *safe point*
//! ([`simkern::Engine::run_until`]), exports the full engine state
//! ([`simkern::EngineSnapshot`]) and writes it — together with the
//! per-rank replay-actor state and the action counter — into a `TICK1`
//! container ([`tit_core::checkpoint`]). A later run restores the
//! snapshot, fast-forwards each rank's trace stream to its cursor and
//! continues to the **bit-identical** final simulated time the
//! uninterrupted run would have produced (the snapshot captures raw
//! solver/heap/slab layouts verbatim; see [`simkern::snapshot`]).
//!
//! The checkpoint payload is keyed by a [`fingerprint`] of the
//! platform, network model, collective algorithm and process count:
//! resuming against a different configuration fails closed instead of
//! silently diverging.
//!
//! [`simkern::snapshot`]: simkern::EngineSnapshot

use crate::error::ReplayError;
use crate::process::Sources;
use crate::simulator::{start, ReplayConfig, Started};
use simkern::engine::MailboxKey;
use simkern::lmm::{CnstSnap, LmmSnapshot, VarSnap};
use simkern::observer::Observer;
use simkern::resource::{HostId, Sharing};
use simkern::snapshot::{
    ActivitySnap, ActorSnap, CommSnap, CommStateSnap, EngineSnapshot, EventKindSnap,
    EventSnap, MailboxSnap, OpSnap, OwnerSnap, SlabSnap,
};
use simkern::{Engine, OpKind, Platform, RunStatus};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use tit_core::checkpoint::{fnv1a, read_checkpoint, write_checkpoint, Dec, Enc};
use tit_core::{Budget, Deadline};

/// When and where to write checkpoints during a replay.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (each write atomically replaces the last).
    pub path: PathBuf,
    /// Write a checkpoint every this many replayed actions (`0` = only
    /// on watchdog expiry).
    pub every_actions: u64,
    /// Watchdog: when the wall-clock [`Budget`] expires, write a final
    /// checkpoint at the next safe point and stop. The budget starts
    /// ticking when the replay does, not when the policy is built.
    pub max_wall: Budget,
    /// Stop (successfully, with state saved) after this many checkpoint
    /// writes — the deterministic stand-in for `kill -9` used by the
    /// resume differential tests.
    pub stop_after_checkpoints: Option<u64>,
}

/// Why a checkpointed run stopped before the trace ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PauseReason {
    /// The `max_wall` watchdog expired.
    WallLimit,
    /// `stop_after_checkpoints` was reached.
    StopAfter,
}

/// How a checkpointed run ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointedStatus {
    /// The trace replayed to completion.
    Finished {
        /// Simulated execution time, seconds.
        simulated_time: f64,
    },
    /// The run paused with its state saved in the checkpoint file;
    /// rerun with `--resume` to continue.
    Paused {
        /// Simulated time at the pause safe point.
        simulated_time: f64,
        /// What stopped the run.
        reason: PauseReason,
    },
}

/// Result of a checkpointed (or resumed) replay.
#[derive(Debug)]
pub struct CheckpointedOutcome {
    /// Finished or paused-with-state.
    pub status: CheckpointedStatus,
    /// Total trace actions consumed, including those replayed before a
    /// resume (restored from the checkpoint, not re-counted).
    pub actions_replayed: u64,
    /// Wall-clock time of *this* run only.
    pub wall_time: Duration,
    /// Checkpoints written by this run.
    pub checkpoints_written: u64,
    /// True when this run started from a checkpoint.
    pub resumed: bool,
}

/// The decoded contents of a replay checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayCheckpoint {
    /// [`fingerprint`] of the configuration the snapshot was taken
    /// under; resume refuses a mismatch.
    pub fingerprint: u64,
    /// Shared action counter at the safe point.
    pub actions_replayed: u64,
    /// Raw engine state.
    pub engine: EngineSnapshot,
}

fn ck_err(detail: impl std::fmt::Display) -> ReplayError {
    ReplayError::Checkpoint { detail: detail.to_string() }
}

/// Hashes everything a snapshot's validity depends on: process count,
/// collective algorithm, network model and the platform's hosts and
/// links. Trace *content* is covered separately — each rank's stream is
/// fast-forwarded by its cursor on resume and fails if the trace got
/// shorter.
pub fn fingerprint(platform: &Platform, cfg: &ReplayConfig, nproc: usize) -> u64 {
    let mut e = Enc::new();
    e.usize(nproc);
    e.u8(match cfg.algo {
        crate::collectives::CollectiveAlgo::Binomial => 0,
        crate::collectives::CollectiveAlgo::Flat => 1,
    });
    e.u8(u8::from(cfg.network.contention));
    match cfg.network.tcp_gamma {
        Some(g) => {
            e.u8(1);
            e.f64(g);
        }
        None => e.u8(0),
    }
    e.f64(cfg.network.eager_threshold);
    let segs = cfg.network.piecewise.segments();
    e.usize(segs.len());
    for s in segs {
        e.f64(s.max_size);
        e.f64(s.lat_factor);
        e.f64(s.bw_factor);
    }
    e.usize(platform.hosts.len());
    for h in &platform.hosts {
        e.bytes(h.name.as_bytes());
        e.f64(h.speed);
        e.u32(h.cores);
    }
    e.usize(platform.links.len());
    for l in &platform.links {
        e.bytes(l.name.as_bytes());
        e.f64(l.bandwidth);
        e.f64(l.latency);
        e.u8(u8::from(matches!(l.sharing, Sharing::FatPipe)));
    }
    e.f64(platform.loopback.bandwidth);
    e.f64(platform.loopback.latency);
    fnv1a(&e.finish())
}

fn enc_bool(e: &mut Enc, v: bool) {
    e.u8(u8::from(v));
}

fn dec_bool(d: &mut Dec<'_>) -> Result<bool, String> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        k => Err(format!("invalid bool byte {k}")),
    }
}

fn enc_mailbox_key(e: &mut Enc, k: MailboxKey) {
    e.u32(k.src);
    e.u32(k.dst);
    e.u8(k.chan);
}

fn dec_mailbox_key(d: &mut Dec<'_>) -> Result<MailboxKey, String> {
    Ok(MailboxKey { src: d.u32()?, dst: d.u32()?, chan: d.u8()? })
}

fn enc_usize_list(e: &mut Enc, v: &[usize]) {
    e.usize(v.len());
    for &x in v {
        e.usize(x);
    }
}

fn dec_usize_list(d: &mut Dec<'_>) -> Result<Vec<usize>, String> {
    let n = d.usize()?;
    let mut v = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        v.push(d.usize()?);
    }
    Ok(v)
}

fn enc_slab<T>(e: &mut Enc, s: &SlabSnap<T>, enc_item: impl Fn(&mut Enc, &T)) {
    e.usize(s.slots.len());
    for slot in &s.slots {
        match slot {
            Some(item) => {
                e.u8(1);
                enc_item(e, item);
            }
            None => e.u8(0),
        }
    }
    enc_usize_list(e, &s.free);
}

fn dec_slab<T>(
    d: &mut Dec<'_>,
    dec_item: impl Fn(&mut Dec<'_>) -> Result<T, String>,
) -> Result<SlabSnap<T>, String> {
    let n = d.usize()?;
    let mut slots = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        slots.push(if dec_bool(d)? { Some(dec_item(d)?) } else { None });
    }
    let free = dec_usize_list(d)?;
    Ok(SlabSnap { slots, free })
}

fn enc_op_kind(e: &mut Enc, k: OpKind) {
    e.u8(match k {
        OpKind::Compute => 0,
        OpKind::Send => 1,
        OpKind::Recv => 2,
        OpKind::Sleep => 3,
    });
}

fn dec_op_kind(d: &mut Dec<'_>) -> Result<OpKind, String> {
    Ok(match d.u8()? {
        0 => OpKind::Compute,
        1 => OpKind::Send,
        2 => OpKind::Recv,
        3 => OpKind::Sleep,
        k => return Err(format!("unknown op kind {k}")),
    })
}

fn enc_engine(e: &mut Enc, s: &EngineSnapshot) {
    e.f64(s.clock);
    e.u64(s.seq);
    e.u64(s.ops_completed);

    e.usize(s.events.len());
    for ev in &s.events {
        e.f64(ev.time);
        e.u64(ev.seq);
        match ev.kind {
            EventKindSnap::LatencyDone { comm } => {
                e.u8(0);
                e.usize(comm);
            }
            EventKindSnap::SleepDone { op } => {
                e.u8(1);
                e.usize(op);
            }
        }
    }

    e.usize(s.completions.len());
    for &(t, k) in &s.completions {
        e.f64(t);
        e.usize(k);
    }

    enc_slab(e, &SlabSnap { slots: s.lmm.cnsts.clone(), free: s.lmm.cnst_free.clone() }, |e, c: &CnstSnap| {
        e.f64(c.capacity);
        enc_usize_list(e, &c.vars);
    });
    enc_slab(e, &SlabSnap { slots: s.lmm.vars.clone(), free: s.lmm.var_free.clone() }, |e, v: &VarSnap| {
        e.f64(v.bound);
        enc_usize_list(e, &v.cnsts);
        e.f64(v.value);
    });

    enc_slab(e, &s.activities, |e, a: &ActivitySnap| {
        e.usize(a.var);
        e.f64(a.remaining);
        e.f64(a.rate);
        e.f64(a.t_last);
        match a.owner {
            OwnerSnap::Exec { op } => {
                e.u8(0);
                e.usize(op);
            }
            OwnerSnap::Comm { comm } => {
                e.u8(1);
                e.usize(comm);
            }
        }
    });

    enc_slab(e, &s.ops, |e, o: &OpSnap| {
        e.usize(o.actor);
        enc_op_kind(e, o.kind);
        e.u32(o.tag);
        e.f64(o.t_start);
        e.f64(o.volume);
        match o.mailbox {
            Some(k) => {
                e.u8(1);
                enc_mailbox_key(e, k);
            }
            None => e.u8(0),
        }
        enc_bool(e, o.complete);
    });

    enc_slab(e, &s.comms, |e, c: &CommSnap| {
        e.f64(c.size);
        e.u32(c.src_host);
        e.u32(c.dst_host);
        e.usize(c.send_op);
        e.opt_usize(c.recv_op);
        enc_bool(e, c.eager);
        e.u8(match c.state {
            CommStateSnap::Unlaunched => 0,
            CommStateSnap::InFlight => 1,
            CommStateSnap::Arrived => 2,
        });
    });

    e.usize(s.mailboxes.len());
    for m in &s.mailboxes {
        enc_mailbox_key(e, m.key);
        enc_usize_list(e, &m.comms);
        e.usize(m.recvs.len());
        for &(op, actor) in &m.recvs {
            e.usize(op);
            e.usize(actor);
        }
    }

    e.usize(s.actors.len());
    for a in &s.actors {
        e.u32(a.host);
        e.opt_usize(a.waiting);
        enc_bool(e, a.alive);
        e.u64(a.phase);
        match &a.state {
            Some(b) => {
                e.u8(1);
                e.bytes(b);
            }
            None => e.u8(0),
        }
    }
}

fn dec_engine(d: &mut Dec<'_>) -> Result<EngineSnapshot, String> {
    let clock = d.f64()?;
    let seq = d.u64()?;
    let ops_completed = d.u64()?;

    let n_events = d.usize()?;
    let mut events = Vec::with_capacity(n_events.min(1 << 16));
    for _ in 0..n_events {
        let time = d.f64()?;
        let ev_seq = d.u64()?;
        let kind = match d.u8()? {
            0 => EventKindSnap::LatencyDone { comm: d.usize()? },
            1 => EventKindSnap::SleepDone { op: d.usize()? },
            k => return Err(format!("unknown event kind {k}")),
        };
        events.push(EventSnap { time, seq: ev_seq, kind });
    }

    let n_comp = d.usize()?;
    let mut completions = Vec::with_capacity(n_comp.min(1 << 16));
    for _ in 0..n_comp {
        let t = d.f64()?;
        let k = d.usize()?;
        completions.push((t, k));
    }

    let cnst_slab = dec_slab(d, |d| {
        Ok(CnstSnap { capacity: d.f64()?, vars: dec_usize_list(d)? })
    })?;
    let var_slab = dec_slab(d, |d| {
        Ok(VarSnap { bound: d.f64()?, cnsts: dec_usize_list(d)?, value: d.f64()? })
    })?;
    let lmm = LmmSnapshot {
        cnsts: cnst_slab.slots,
        cnst_free: cnst_slab.free,
        vars: var_slab.slots,
        var_free: var_slab.free,
    };

    let activities = dec_slab(d, |d| {
        let var = d.usize()?;
        let remaining = d.f64()?;
        let rate = d.f64()?;
        let t_last = d.f64()?;
        let owner = match d.u8()? {
            0 => OwnerSnap::Exec { op: d.usize()? },
            1 => OwnerSnap::Comm { comm: d.usize()? },
            k => return Err(format!("unknown activity owner {k}")),
        };
        Ok(ActivitySnap { var, remaining, rate, t_last, owner })
    })?;

    let ops = dec_slab(d, |d| {
        let actor = d.usize()?;
        let kind = dec_op_kind(d)?;
        let tag = d.u32()?;
        let t_start = d.f64()?;
        let volume = d.f64()?;
        let mailbox = if dec_bool(d)? { Some(dec_mailbox_key(d)?) } else { None };
        let complete = dec_bool(d)?;
        Ok(OpSnap { actor, kind, tag, t_start, volume, mailbox, complete })
    })?;

    let comms = dec_slab(d, |d| {
        let size = d.f64()?;
        let src_host = d.u32()?;
        let dst_host = d.u32()?;
        let send_op = d.usize()?;
        let recv_op = d.opt_usize()?;
        let eager = dec_bool(d)?;
        let state = match d.u8()? {
            0 => CommStateSnap::Unlaunched,
            1 => CommStateSnap::InFlight,
            2 => CommStateSnap::Arrived,
            k => return Err(format!("unknown comm state {k}")),
        };
        Ok(CommSnap { size, src_host, dst_host, send_op, recv_op, eager, state })
    })?;

    let n_mb = d.usize()?;
    let mut mailboxes = Vec::with_capacity(n_mb.min(1 << 16));
    for _ in 0..n_mb {
        let key = dec_mailbox_key(d)?;
        let comms_q = dec_usize_list(d)?;
        let n_recv = d.usize()?;
        let mut recvs = Vec::with_capacity(n_recv.min(1 << 16));
        for _ in 0..n_recv {
            let op = d.usize()?;
            let actor = d.usize()?;
            recvs.push((op, actor));
        }
        mailboxes.push(MailboxSnap { key, comms: comms_q, recvs });
    }

    let n_actors = d.usize()?;
    let mut actors = Vec::with_capacity(n_actors.min(1 << 16));
    for _ in 0..n_actors {
        let host = d.u32()?;
        let waiting = d.opt_usize()?;
        let alive = dec_bool(d)?;
        let phase = d.u64()?;
        let state = if dec_bool(d)? { Some(d.bytes()?.to_vec()) } else { None };
        actors.push(ActorSnap { host, waiting, alive, phase, state });
    }

    Ok(EngineSnapshot {
        clock,
        seq,
        ops_completed,
        events,
        completions,
        lmm,
        activities,
        ops,
        comms,
        mailboxes,
        actors,
    })
}

impl ReplayCheckpoint {
    /// Serializes into a `TICK1` payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.fingerprint);
        e.u64(self.actions_replayed);
        enc_engine(&mut e, &self.engine);
        e.finish()
    }

    /// Parses a `TICK1` payload; structurally validates the embedded
    /// engine snapshot before returning.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut d = Dec::new(payload);
        let fingerprint = d.u64()?;
        let actions_replayed = d.u64()?;
        let engine = dec_engine(&mut d)?;
        d.expect_done()?;
        engine.validate()?;
        Ok(ReplayCheckpoint { fingerprint, actions_replayed, engine })
    }

    /// Loads and decodes a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, ReplayError> {
        let payload = read_checkpoint(path)
            .map_err(|e| ck_err(format!("cannot read {}: {e}", path.display())))?;
        Self::decode(&payload)
            .map_err(|e| ck_err(format!("{} is not a valid replay checkpoint: {e}", path.display())))
    }

    /// Encodes and writes a checkpoint file atomically.
    pub fn save(&self, path: &Path) -> Result<(), ReplayError> {
        write_checkpoint(path, &self.encode())
            .map_err(|e| ck_err(format!("cannot write {}: {e}", path.display())))
    }
}

/// Combines the platform/config fingerprint with a trace-content salt
/// (e.g. a TIB2 store's footer hash, [`tit_core::Tib2Store::fingerprint`]).
/// A salt of `0` means "no trace binding" and leaves the fingerprint
/// unchanged, so plain-file checkpoints stay readable across versions.
pub fn keyed_fingerprint(fp: u64, trace_salt: u64) -> u64 {
    if trace_salt == 0 {
        return fp;
    }
    let mut e = Enc::new();
    e.u64(fp);
    e.u64(trace_salt);
    fnv1a(&e.finish())
}

/// Replays `sources` under a checkpoint policy, optionally resuming
/// from a prior checkpoint. The core loop: run to the next safe point
/// where a checkpoint is due (action quota or watchdog), export + write,
/// and either continue or stop with state saved. The checkpoint
/// fingerprint is keyed on the sources' trace salt
/// ([`keyed_fingerprint`]): a checkpoint taken over a `TIB2` store
/// refuses to resume against a store whose content changed, not just a
/// different platform or config.
pub fn run_checkpointed(
    sources: Sources,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
    observer: Option<Box<dyn Observer>>,
    policy: Option<&CheckpointPolicy>,
    resume: Option<&ReplayCheckpoint>,
) -> Result<CheckpointedOutcome, ReplayError> {
    let fp = keyed_fingerprint(fingerprint(&platform, cfg, sources.ranks.len()), sources.salt);
    let mut run = start(sources, platform, hosts, cfg, observer)?;
    checkpoint_loop(&mut run, fp, policy, resume).map_err(|e| run.retype(e))
}

fn checkpoint_loop(
    run: &mut Started,
    fp: u64,
    policy: Option<&CheckpointPolicy>,
    resume: Option<&ReplayCheckpoint>,
) -> Result<CheckpointedOutcome, ReplayError> {
    let Started { engine, counter, .. } = run;
    let resumed = if let Some(ck) = resume {
        if ck.fingerprint != fp {
            return Err(ck_err(format!(
                "checkpoint fingerprint {:#018x} does not match this \
                 platform/config/deployment ({fp:#018x})",
                ck.fingerprint
            )));
        }
        engine.restore_state(&ck.engine).map_err(ck_err)?;
        counter.store(ck.actions_replayed, Ordering::Relaxed);
        true
    } else {
        false
    };

    let t0 = Instant::now();
    let deadline = policy.map_or_else(Deadline::unlimited, |p| p.max_wall.start());
    let limited = !deadline.is_unlimited();
    let every = policy.map_or(0, |p| p.every_actions);
    let mut written: u64 = 0;
    let mut last_mark = counter.load(Ordering::Relaxed);
    loop {
        let status = {
            let counter = counter.clone();
            let mark = last_mark;
            let mut guard = move |_: &Engine| {
                (every > 0 && counter.load(Ordering::Relaxed).saturating_sub(mark) >= every)
                    || (limited && deadline.expired())
            };
            engine.run_until(&mut guard).map_err(ReplayError::from)?
        };
        match status {
            RunStatus::Completed(simulated_time) => {
                return Ok(CheckpointedOutcome {
                    status: CheckpointedStatus::Finished { simulated_time },
                    actions_replayed: counter.load(Ordering::Relaxed),
                    wall_time: t0.elapsed(),
                    checkpoints_written: written,
                    resumed,
                });
            }
            RunStatus::Paused(simulated_time) => {
                // panics: the guard only fires when a policy supplied a quota
                let p = policy.expect("paused without a checkpoint policy");
                let ck = ReplayCheckpoint {
                    fingerprint: fp,
                    actions_replayed: counter.load(Ordering::Relaxed),
                    engine: engine.export_state().map_err(ck_err)?,
                };
                ck.save(&p.path)?;
                written += 1;
                last_mark = counter.load(Ordering::Relaxed);
                let finish = |reason| {
                    Ok(CheckpointedOutcome {
                        status: CheckpointedStatus::Paused { simulated_time, reason },
                        actions_replayed: last_mark,
                        wall_time: t0.elapsed(),
                        checkpoints_written: written,
                        resumed,
                    })
                };
                if limited && deadline.expired() {
                    return finish(PauseReason::WallLimit);
                }
                if p.stop_after_checkpoints.is_some_and(|k| written >= k) {
                    return finish(PauseReason::StopAfter);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkern::netmodel::NetworkConfig;
    use tit_core::{Action, TiTrace};
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

    /// A trace with enough structure to exercise p2p, nonblocking and
    /// collective paths across many safe points.
    fn busy_trace(iters: usize) -> TiTrace {
        let n = 4;
        let mut t = TiTrace::new(n);
        for r in 0..n {
            t.push(r, Action::CommSize { nproc: n });
        }
        for _ in 0..iters {
            t.push(0, Action::Compute { flops: 1e6 });
            t.push(0, Action::Send { dst: 1, bytes: 1e6 });
            t.push(0, Action::Recv { src: 3, bytes: None });
            for p in 1..n {
                t.push(p, Action::Irecv { src: p - 1, bytes: None });
                t.push(p, Action::Compute { flops: 5e5 });
                t.push(p, Action::Wait);
                t.push(p, Action::Send { dst: (p + 1) % n, bytes: 1e6 });
            }
            for r in 0..n {
                t.push(r, Action::AllReduce { vcomm: 1e4, vcomp: 1e5 });
            }
        }
        t
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("titr-resume-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let d = tmp_dir("match");
        let t = busy_trace(3);
        t.save_per_process(&d).unwrap();
        let (p1, hosts) = mycluster(4);
        let (p2, _) = mycluster(4);
        let plain = crate::replay_files(&d, 4, p1, &hosts, &plain_cfg()).unwrap();
        let policy = CheckpointPolicy {
            path: d.join("state.tick"),
            every_actions: 7,
            max_wall: Budget::unlimited(),
            stop_after_checkpoints: None,
        };
        let ck = run_checkpointed(Sources::files(&d, 4).unwrap(), p2, &hosts, &plain_cfg(), None, Some(&policy), None)
            .unwrap();
        match ck.status {
            CheckpointedStatus::Finished { simulated_time } => {
                assert_eq!(simulated_time.to_bits(), plain.simulated_time.to_bits());
            }
            other => panic!("expected Finished, got {other:?}"),
        }
        assert_eq!(ck.actions_replayed, plain.actions_replayed);
        assert!(ck.checkpoints_written > 0, "quota must have fired");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn kill_and_resume_is_bit_identical_at_every_boundary() {
        let d = tmp_dir("diff");
        let t = busy_trace(2);
        t.save_per_process(&d).unwrap();
        let (pref, hosts) = mycluster(4);
        let reference = crate::replay_files(&d, 4, pref, &hosts, &plain_cfg()).unwrap();

        for every in [1u64, 3, 5, 11, 17] {
            let ckpath = d.join(format!("state-{every}.tick"));
            let mut stop_at = 1u64;
            loop {
                // "Kill" the run after `stop_at` checkpoints...
                let (p1, _) = mycluster(4);
                let policy = CheckpointPolicy {
                    path: ckpath.clone(),
                    every_actions: every,
                    max_wall: Budget::unlimited(),
                    stop_after_checkpoints: Some(stop_at),
                };
                let first =
                    run_checkpointed(Sources::files(&d, 4).unwrap(), p1, &hosts, &plain_cfg(), None, Some(&policy), None)
                        .unwrap();
                match first.status {
                    CheckpointedStatus::Finished { simulated_time } => {
                        // Ran out of boundaries before the stop quota:
                        // the whole interval is covered.
                        assert_eq!(
                            simulated_time.to_bits(),
                            reference.simulated_time.to_bits()
                        );
                        break;
                    }
                    CheckpointedStatus::Paused { .. } => {}
                }
                // ...then resume and run to the end.
                let (p2, _) = mycluster(4);
                let resumed = run_checkpointed(
                    Sources::files(&d, 4).unwrap(),
                    p2,
                    &hosts,
                    &plain_cfg(),
                    None,
                    None,
                    Some(&ReplayCheckpoint::load(&ckpath).unwrap()),
                )
                .unwrap();
                assert!(resumed.resumed);
                match resumed.status {
                    CheckpointedStatus::Finished { simulated_time } => {
                        assert_eq!(
                            simulated_time.to_bits(),
                            reference.simulated_time.to_bits(),
                            "every={every} stop_at={stop_at}: resume diverged"
                        );
                        assert_eq!(resumed.actions_replayed, reference.actions_replayed);
                    }
                    other => panic!("resume must finish, got {other:?}"),
                }
                stop_at += 1;
            }
        }
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_configuration() {
        let d = tmp_dir("fp");
        busy_trace(1).save_per_process(&d).unwrap();
        let (p1, hosts) = mycluster(4);
        let ckpath = d.join("state.tick");
        let policy = CheckpointPolicy {
            path: ckpath.clone(),
            every_actions: 3,
            max_wall: Budget::unlimited(),
            stop_after_checkpoints: Some(1),
        };
        run_checkpointed(Sources::files(&d, 4).unwrap(), p1, &hosts, &plain_cfg(), None, Some(&policy), None).unwrap();
        // Different network model → different fingerprint → refused.
        let (p2, _) = mycluster(4);
        let err = run_checkpointed(
                    Sources::files(&d, 4).unwrap(),
                    p2,
                    &hosts,
                    &ReplayConfig::default(),
                    None,
                    None,
                    Some(&ReplayCheckpoint::load(&ckpath).unwrap()),
                )
        .unwrap_err();
        assert!(matches!(err, ReplayError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn keyed_fingerprint_binds_trace_content() {
        // Salt 0 is the identity, so legacy checkpoints stay valid.
        assert_eq!(keyed_fingerprint(0xdead_beef, 0), 0xdead_beef);
        // Distinct salts separate, and keying is not a plain XOR/add.
        let a = keyed_fingerprint(0xdead_beef, 1);
        let b = keyed_fingerprint(0xdead_beef, 2);
        assert_ne!(a, b);
        assert_ne!(a, 0xdead_beef ^ 1);
        assert_ne!(a, 0xdead_beef + 1);
    }

    #[test]
    fn keyed_checkpoint_refuses_other_salt() {
        let d = tmp_dir("salt");
        busy_trace(1).save_per_process(&d).unwrap();
        let (p1, hosts) = mycluster(4);
        let ckpath = d.join("state.tick");
        let policy = CheckpointPolicy {
            path: ckpath.clone(),
            every_actions: 3,
            max_wall: Budget::unlimited(),
            stop_after_checkpoints: Some(1),
        };
        let srcs = Sources { salt: 0x5eed, ..Sources::files(&d, 4).unwrap() };
        let first = run_checkpointed(srcs, p1, &hosts, &plain_cfg(), None, Some(&policy), None)
        .unwrap();
        assert!(matches!(first.status, CheckpointedStatus::Paused { .. }));
        let ck = ReplayCheckpoint::load(&ckpath).unwrap();
        // Same platform/config, different store content → refused.
        let (p2, _) = mycluster(4);
        let srcs = Sources { salt: 0x0bad, ..Sources::files(&d, 4).unwrap() };
        let err = run_checkpointed(srcs, p2, &hosts, &plain_cfg(), None, None, Some(&ck))
        .unwrap_err();
        assert!(matches!(err, ReplayError::Checkpoint { .. }), "{err}");
        // The matching salt resumes and finishes.
        let (p3, _) = mycluster(4);
        let srcs = Sources { salt: 0x5eed, ..Sources::files(&d, 4).unwrap() };
        let done = run_checkpointed(srcs, p3, &hosts, &plain_cfg(), None, None, Some(&ck))
        .unwrap();
        assert!(done.resumed);
        assert!(matches!(done.status, CheckpointedStatus::Finished { .. }));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_fails_closed() {
        let d = tmp_dir("corrupt");
        busy_trace(1).save_per_process(&d).unwrap();
        let (p1, hosts) = mycluster(4);
        let ckpath = d.join("state.tick");
        let policy = CheckpointPolicy {
            path: ckpath.clone(),
            every_actions: 3,
            max_wall: Budget::unlimited(),
            stop_after_checkpoints: Some(1),
        };
        run_checkpointed(Sources::files(&d, 4).unwrap(), p1, &hosts, &plain_cfg(), None, Some(&policy), None).unwrap();
        let mut bytes = std::fs::read(&ckpath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&ckpath, &bytes).unwrap();
        let err = ReplayCheckpoint::load(&ckpath).unwrap_err();
        assert!(matches!(err, ReplayError::Checkpoint { .. }), "{err}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn watchdog_writes_final_checkpoint_and_pauses() {
        let d = tmp_dir("wall");
        busy_trace(4).save_per_process(&d).unwrap();
        let (p1, hosts) = mycluster(4);
        let ckpath = d.join("state.tick");
        let policy = CheckpointPolicy {
            path: ckpath.clone(),
            every_actions: 0,
            max_wall: Budget::limited(Duration::ZERO),
            stop_after_checkpoints: None,
        };
        let out = run_checkpointed(Sources::files(&d, 4).unwrap(), p1, &hosts, &plain_cfg(), None, Some(&policy), None)
            .unwrap();
        match out.status {
            CheckpointedStatus::Paused { reason, .. } => {
                assert_eq!(reason, PauseReason::WallLimit);
            }
            other => panic!("expected watchdog pause, got {other:?}"),
        }
        assert!(ckpath.exists(), "final checkpoint must be on disk");
        // And the saved state resumes to the same result as a plain run.
        let (p2, _) = mycluster(4);
        let (p3, _) = mycluster(4);
        let reference = crate::replay_files(&d, 4, p2, &hosts, &plain_cfg()).unwrap();
        let resumed =
            run_checkpointed(
                    Sources::files(&d, 4).unwrap(),
                    p3,
                    &hosts,
                    &plain_cfg(),
                    None,
                    None,
                    Some(&ReplayCheckpoint::load(&ckpath).unwrap()),
                ).unwrap();
        match resumed.status {
            CheckpointedStatus::Finished { simulated_time } => {
                assert_eq!(simulated_time.to_bits(), reference.simulated_time.to_bits());
            }
            other => panic!("expected Finished, got {other:?}"),
        }
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// A real mid-run `TICK1` payload (busy trace, paused after its
    /// first checkpoint), built once for the decoder proptests.
    fn sample_payload() -> &'static [u8] {
        static PAYLOAD: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        PAYLOAD.get_or_init(|| {
            let d = tmp_dir("fuzz");
            busy_trace(2).save_per_process(&d).unwrap();
            let (p, hosts) = mycluster(4);
            let policy = CheckpointPolicy {
                path: d.join("state.tick"),
                every_actions: 5,
                max_wall: Budget::unlimited(),
                stop_after_checkpoints: Some(1),
            };
            run_checkpointed(Sources::files(&d, 4).unwrap(), p, &hosts, &plain_cfg(), None, Some(&policy), None)
                .unwrap();
            let payload = tit_core::checkpoint::read_checkpoint(&policy.path).unwrap();
            std::fs::remove_dir_all(&d).unwrap();
            assert!(ReplayCheckpoint::decode(&payload).is_ok());
            payload
        })
    }

    proptest::proptest! {
        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512)
        ) {
            let _ = ReplayCheckpoint::decode(&data);
        }

        #[test]
        fn decode_never_panics_on_a_damaged_checkpoint(
            pos in proptest::prelude::any::<usize>(),
            flip in 1u8..=255,
            cut in proptest::prelude::any::<usize>()
        ) {
            let mut payload = sample_payload().to_vec();
            let at = pos % payload.len();
            payload[at] ^= flip;
            let _ = ReplayCheckpoint::decode(&payload);
            let _ = ReplayCheckpoint::decode(&payload[..cut % payload.len()]);
        }
    }
}
