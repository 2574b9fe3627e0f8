//! Request-scoped replay: deadline-bounded, cooperatively preemptible
//! simulations for the serving layer.
//!
//! `tit-serve` answers many concurrent what-if replay requests from one
//! process. Two things distinguish a *request* from a batch run:
//!
//! * **a deadline** — a request carries a wall-clock
//!   [`Budget`](tit_core::Budget); when it expires the request returns
//!   a *partial* result with a quantified completeness ratio (the same
//!   `replayed / expected` semantics as degraded mode), not an error
//!   and not a hung worker;
//! * **preemption** — when the admission queue backs up, a long-running
//!   simulation is asked to yield: at the next safe point its full
//!   engine state is exported ([`simkern::EngineSnapshot`]), the
//!   request is re-queued, and a later slice resumes it
//!   **bit-identically** (same machinery as PR 5's checkpoint files,
//!   minus the disk round-trip).
//!
//! Both are driven through the kernel's safe-point pause guard: the
//! replay runs in slices of `slice_actions` trace actions, and at every
//! slice boundary the deadline and the preemption flag are consulted.
//! A request with no deadline and no preemption runs exactly like
//! [`crate::replay`] — the guard never fires.

use crate::error::ReplayError;
use crate::process::Sources;
use crate::resume::fingerprint;
use crate::simulator::{start, ReplayConfig, Started};
use simkern::observer::Observer;
use simkern::resource::HostId;
use simkern::snapshot::EngineSnapshot;
use simkern::{Engine, Platform, RunStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tit_core::Deadline;

/// How a request-scoped replay is paced.
#[derive(Debug, Clone, Copy)]
pub struct RequestPolicy {
    /// Pause-check granularity in replayed trace actions: the deadline
    /// and the preemption flag are consulted every this many actions.
    /// `0` disables slicing (the replay runs to completion untouched).
    pub slice_actions: u64,
    /// The request's running wall-clock deadline (from
    /// [`tit_core::Budget::start`]).
    pub deadline: Deadline,
    /// Degraded-subset mode: damage-induced engine stops (a deadlock
    /// against a rank whose actions were dropped, an actor failure, a
    /// protocol error) become a [`RequestStatus::DamagedPartial`]
    /// outcome instead of an error — the same downgrade PR 5's
    /// degraded replay applies to trimmed trace files.
    pub tolerate_damage: bool,
}

impl Default for RequestPolicy {
    fn default() -> Self {
        RequestPolicy {
            slice_actions: 0,
            deadline: Deadline::unlimited(),
            tolerate_damage: false,
        }
    }
}

/// How a request-scoped replay ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestStatus {
    /// The trace replayed to completion.
    Finished {
        /// Simulated execution time, seconds.
        simulated_time: f64,
    },
    /// The deadline expired: the result is partial, quantified by
    /// [`RequestOutcome::completeness`].
    DeadlinePartial {
        /// Simulated time reached when the budget ran out.
        simulated_time: f64,
    },
    /// The preemption flag was honored at a slice boundary; the
    /// outcome's [`RequestOutcome::paused`] state resumes the replay.
    Preempted {
        /// Simulated time at the preemption safe point.
        simulated_time: f64,
    },
    /// With [`RequestPolicy::tolerate_damage`], the engine stopped on
    /// damage (deadlock / actor failure / protocol violation); the
    /// detail is in [`RequestOutcome::failure`].
    DamagedPartial {
        /// Simulated time when the damage stopped the replay.
        simulated_time: f64,
    },
}

/// The in-memory state of a preempted replay: everything a later
/// [`run_request`] call needs to continue bit-identically. Unlike a
/// PR 5 checkpoint this never touches disk — it lives in the daemon's
/// queue while the request waits its next turn.
#[derive(Debug)]
pub struct PausedReplay {
    /// [`fingerprint`] of the platform/config/deployment the snapshot
    /// was taken under; resuming against anything else fails closed.
    config_fp: u64,
    /// Total actions the trace carries — must match on resume.
    actions_expected: u64,
    /// Shared action counter at the safe point.
    actions_replayed: u64,
    /// Raw engine state.
    engine: EngineSnapshot,
}

impl PausedReplay {
    /// Actions consumed up to the preemption point.
    #[must_use]
    pub fn actions_replayed(&self) -> u64 {
        self.actions_replayed
    }
}

/// Result of a request-scoped replay.
#[derive(Debug)]
pub struct RequestOutcome {
    /// Finished, deadline-partial, or preempted-with-state.
    pub status: RequestStatus,
    /// Total trace actions consumed, including before a resume.
    pub actions_replayed: u64,
    /// Actions the full trace carries.
    pub actions_expected: u64,
    /// Wall-clock time of *this* slice only.
    pub wall_time: Duration,
    /// The resumable state, set if and only if the status is
    /// [`RequestStatus::Preempted`].
    pub paused: Option<PausedReplay>,
    /// The damage detail, set if and only if the status is
    /// [`RequestStatus::DamagedPartial`].
    pub failure: Option<String>,
}

impl RequestOutcome {
    /// Actions replayed over actions expected, in `[0, 1]` — the same
    /// quantified-partial semantics as degraded mode. Exactly `1.0`
    /// for a finished replay of a non-empty trace.
    #[must_use]
    pub fn completeness(&self) -> f64 {
        if self.actions_expected == 0 {
            return match self.status {
                RequestStatus::Finished { .. } => 1.0,
                _ => 0.0,
            };
        }
        (self.actions_replayed as f64 / self.actions_expected as f64).min(1.0)
    }
}

fn req_err(detail: impl std::fmt::Display) -> ReplayError {
    ReplayError::Checkpoint { detail: detail.to_string() }
}

/// Replays `sources` under a request policy. `actions_expected` is the
/// total action count of the undamaged input (used for the
/// completeness ratio of partial results). `preempt` is consulted at
/// every slice boundary; when it reads `true` the engine state is
/// exported and returned for a later resume. `resume` continues a
/// previously preempted request — the sources must be rebuilt
/// identically (same trace, same order); configuration mismatches fail
/// closed. The resume fingerprint is unsalted: the expected-action
/// check stands in for the trace binding.
#[allow(clippy::too_many_arguments)] // one parameter per request input, mirroring run_checkpointed
pub fn run_request(
    sources: Sources,
    actions_expected: u64,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
    observer: Option<Box<dyn Observer>>,
    policy: &RequestPolicy,
    preempt: Option<&AtomicBool>,
    resume: Option<PausedReplay>,
) -> Result<RequestOutcome, ReplayError> {
    let fp = fingerprint(&platform, cfg, sources.ranks.len());
    let mut run = start(sources, platform, hosts, cfg, observer)?;
    request_loop(&mut run, fp, actions_expected, policy, preempt, resume)
        .map_err(|e| run.retype(e))
}

fn request_loop(
    run: &mut Started,
    fp: u64,
    actions_expected: u64,
    policy: &RequestPolicy,
    preempt: Option<&AtomicBool>,
    resume: Option<PausedReplay>,
) -> Result<RequestOutcome, ReplayError> {
    if let Some(p) = resume {
        if p.config_fp != fp {
            return Err(req_err(format!(
                "preempted request resumed under a different \
                 platform/config/deployment ({:#018x} vs {fp:#018x})",
                p.config_fp
            )));
        }
        if p.actions_expected != actions_expected {
            return Err(req_err(format!(
                "preempted request resumed against a different trace \
                 ({} vs {actions_expected} expected actions)",
                p.actions_expected
            )));
        }
        run.engine.restore_state(&p.engine).map_err(req_err)?;
        run.counter.store(p.actions_replayed, Ordering::Relaxed);
    }

    let t0 = Instant::now();
    let slice = policy.slice_actions;
    let limited = !policy.deadline.is_unlimited();
    let deadline = policy.deadline;
    let mut mark = run.actions();
    loop {
        let result = {
            let counter = run.counter.clone();
            let from = mark;
            let mut guard = move |_: &Engine| {
                (slice > 0 && counter.load(Ordering::Relaxed).saturating_sub(from) >= slice)
                    || (limited && deadline.expired())
            };
            run.engine.run_until(&mut guard)
        };
        let status = match result {
            Ok(s) => s,
            Err(e) if policy.tolerate_damage => {
                // Degraded-subset semantics: the stop is part of the
                // answer, quantified by the completeness ratio.
                let (simulated_time, detail) = run.downgrade(e)?;
                return Ok(RequestOutcome {
                    status: RequestStatus::DamagedPartial { simulated_time },
                    actions_replayed: run.actions(),
                    actions_expected,
                    wall_time: t0.elapsed(),
                    paused: None,
                    failure: Some(detail),
                });
            }
            Err(e) => return Err(ReplayError::from(e)),
        };
        let actions_replayed = run.actions();
        match status {
            RunStatus::Completed(simulated_time) => {
                return Ok(RequestOutcome {
                    status: RequestStatus::Finished { simulated_time },
                    actions_replayed,
                    actions_expected,
                    wall_time: t0.elapsed(),
                    paused: None,
                    failure: None,
                });
            }
            RunStatus::Paused(simulated_time) => {
                if limited && deadline.expired() {
                    return Ok(RequestOutcome {
                        status: RequestStatus::DeadlinePartial { simulated_time },
                        actions_replayed,
                        actions_expected,
                        wall_time: t0.elapsed(),
                        paused: None,
                        failure: None,
                    });
                }
                if preempt.is_some_and(|p| p.load(Ordering::Relaxed)) {
                    let snapshot = run.engine.export_state().map_err(req_err)?;
                    return Ok(RequestOutcome {
                        status: RequestStatus::Preempted { simulated_time },
                        actions_replayed,
                        actions_expected,
                        wall_time: t0.elapsed(),
                        paused: Some(PausedReplay {
                            config_fp: fp,
                            actions_expected,
                            actions_replayed,
                            engine: snapshot,
                        }),
                        failure: None,
                    });
                }
                mark = actions_replayed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkern::netmodel::NetworkConfig;
    use std::sync::Arc;
    use tit_core::{Action, Budget, CompactTrace, TiTrace};
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

    /// [`run_request`] over every rank of a shared compact trace.
    #[allow(clippy::too_many_arguments)]
    fn compact_request(
        trace: &Arc<CompactTrace>,
        platform: Platform,
        hosts: &[HostId],
        cfg: &ReplayConfig,
        observer: Option<Box<dyn Observer>>,
        policy: &RequestPolicy,
        preempt: Option<&AtomicBool>,
        resume: Option<PausedReplay>,
    ) -> Result<RequestOutcome, ReplayError> {
        let expected = trace.num_actions() as u64;
        let sources = Sources::compact(trace);
        run_request(sources, expected, platform, hosts, cfg, observer, policy, preempt, resume)
    }

    fn busy_trace(iters: usize) -> Arc<CompactTrace> {
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
        Arc::new(CompactTrace::from_trace(&t).unwrap())
    }

    #[test]
    fn unsliced_request_matches_plain_compact_replay() {
        let trace = busy_trace(3);
        let (p1, hosts) = mycluster(4);
        let (p2, _) = mycluster(4);
        let plain = crate::replay(Sources::compact(&trace), p1, &hosts, &plain_cfg(), None).unwrap();
        let out = compact_request(
            &trace,
            p2,
            &hosts,
            &plain_cfg(),
            None,
            &RequestPolicy::default(),
            None,
            None,
        )
        .unwrap();
        match out.status {
            RequestStatus::Finished { simulated_time } => {
                assert_eq!(simulated_time.to_bits(), plain.simulated_time.to_bits());
            }
            other => panic!("expected Finished, got {other:?}"),
        }
        assert_eq!(out.actions_replayed, plain.actions_replayed);
        assert_eq!(out.completeness(), 1.0);
    }

    #[test]
    fn preempt_and_resume_is_bit_identical() {
        let trace = busy_trace(2);
        let (pref, hosts) = mycluster(4);
        let reference = crate::replay(Sources::compact(&trace), pref, &hosts, &plain_cfg(), None).unwrap();

        for slice in [1u64, 3, 7, 19] {
            // Preempt at every slice boundary; each resumed run is
            // itself preempted again at its next boundary, walking the
            // whole trace through snapshots.
            let always = AtomicBool::new(true);
            let policy = RequestPolicy { slice_actions: slice, deadline: Deadline::unlimited(), ..Default::default() };
            let (p0, _) = mycluster(4);
            let mut out = compact_request(
                &trace, p0, &hosts, &plain_cfg(), None, &policy, Some(&always), None,
            )
            .unwrap();
            let mut hops = 0;
            let final_time = loop {
                match out.status {
                    RequestStatus::Finished { simulated_time } => break simulated_time,
                    RequestStatus::Preempted { .. } => {
                        hops += 1;
                        assert!(hops < 10_000, "preemption livelock at slice {slice}");
                        let paused = out.paused.take().expect("preempted without state");
                        let (p, _) = mycluster(4);
                        out = compact_request(
                            &trace,
                            p,
                            &hosts,
                            &plain_cfg(),
                            None,
                            &policy,
                            Some(&always),
                            Some(paused),
                        )
                        .unwrap();
                    }
                    RequestStatus::DeadlinePartial { .. }
                    | RequestStatus::DamagedPartial { .. } => {
                        panic!("no deadline was set and the trace is undamaged")
                    }
                }
            };
            assert!(hops > 0, "slice {slice} never preempted");
            assert_eq!(
                final_time.to_bits(),
                reference.simulated_time.to_bits(),
                "slice {slice}: preempt/resume diverged after {hops} hops"
            );
            assert_eq!(out.actions_replayed, reference.actions_replayed);
        }
    }

    #[test]
    fn expired_deadline_returns_quantified_partial() {
        let trace = busy_trace(50);
        let (p, hosts) = mycluster(4);
        let policy = RequestPolicy {
            slice_actions: 4,
            deadline: Budget::limited(Duration::ZERO).start(),
            ..Default::default()
        };
        let out = compact_request(
            &trace, p, &hosts, &plain_cfg(), None, &policy, None, None,
        )
        .unwrap();
        match out.status {
            RequestStatus::DeadlinePartial { simulated_time } => {
                assert!(simulated_time >= 0.0);
            }
            other => panic!("expected DeadlinePartial, got {other:?}"),
        }
        let ratio = out.completeness();
        assert!(ratio < 1.0, "a zero budget cannot finish 50 iterations: {ratio}");
        assert!(ratio >= 0.0);
        assert!(out.paused.is_none(), "deadline partials are final");
    }

    #[test]
    fn dropped_rank_subset_becomes_quantified_damage_not_error() {
        let trace = busy_trace(3);
        let (p, hosts) = mycluster(4);
        // Rank 2's actions are dropped: its peers eventually deadlock.
        let sources = Sources::compact(&trace).drop_ranks(&[2]);
        let policy = RequestPolicy { tolerate_damage: true, ..Default::default() };
        let out = run_request(
            sources,
            trace.num_actions() as u64,
            p,
            &hosts,
            &plain_cfg(),
            None,
            &policy,
            None,
            None,
        )
        .unwrap();
        match out.status {
            RequestStatus::DamagedPartial { .. } => {}
            other => panic!("expected DamagedPartial, got {other:?}"),
        }
        assert!(out.completeness() < 1.0);
        let detail = out.failure.expect("damage detail");
        assert!(!detail.is_empty());

        // Without tolerance the same subset is a hard error.
        let sources = Sources::compact(&trace).drop_ranks(&[2]);
        let (p2, _) = mycluster(4);
        run_request(
            sources,
            trace.num_actions() as u64,
            p2,
            &hosts,
            &plain_cfg(),
            None,
            &RequestPolicy::default(),
            None,
            None,
        )
        .unwrap_err();
    }

    #[test]
    fn resume_rejects_mismatched_configuration_and_trace() {
        let trace = busy_trace(2);
        let always = AtomicBool::new(true);
        let policy = RequestPolicy { slice_actions: 2, deadline: Deadline::unlimited(), ..Default::default() };
        let (p0, hosts) = mycluster(4);
        let out = compact_request(
            &trace, p0, &hosts, &plain_cfg(), None, &policy, Some(&always), None,
        )
        .unwrap();
        let paused = out.paused.expect("must preempt");

        // Different network model → different fingerprint → refused.
        let (p1, _) = mycluster(4);
        let err = compact_request(
            &trace,
            p1,
            &hosts,
            &ReplayConfig::default(),
            None,
            &policy,
            None,
            Some(paused),
        )
        .unwrap_err();
        assert!(err.to_string().contains("different"), "{err}");

        // Different trace length → refused.
        let (p2, _) = mycluster(4);
        let out = compact_request(
            &trace, p2, &hosts, &plain_cfg(), None, &policy, Some(&always), None,
        )
        .unwrap();
        let paused = out.paused.expect("must preempt");
        let other_trace = busy_trace(3);
        let (p3, _) = mycluster(4);
        let err = compact_request(
            &other_trace,
            p3,
            &hosts,
            &plain_cfg(),
            None,
            &policy,
            None,
            Some(paused),
        )
        .unwrap_err();
        assert!(err.to_string().contains("different trace"), "{err}");
    }
}
