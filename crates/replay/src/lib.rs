//! `tit-replay` — the time-independent trace replay tool.
//!
//! This is the paper's simulator (Section 5): it takes a time-independent
//! trace, a platform description and a deployment, and replays the trace
//! on top of the simulation kernel, producing the simulated execution
//! time (plus optional timed-trace and profile outputs, Figure 4).
//!
//! Mirroring the MSG-based prototype, every action keyword is bound to a
//! handler through a [`handlers::Registry`] (the analogue of
//! `MSG_action_register`); handlers expand an action into a short
//! sequence of kernel micro-operations executed by the per-process
//! [`process::ReplayActor`]. Collective operations are decomposed into
//! point-to-point messages rooted at process 0 ([`collectives`]), and
//! non-blocking operations feed a FIFO request queue consumed by `wait`
//! ([`process`]).
//!
//! One engine setup serves every mode. A run pairs a [`Sources`] value
//! (per-rank streams from trace files, memory, a compact trace or a
//! `TIB2` store) with a driver: [`replay`] (strict), [`run_checkpointed`]
//! (checkpoint/resume), [`run_request`] (deadline/preemption, for the
//! serving layer) or the degraded salvage drivers
//! [`replay_files_degraded`] and [`replay_store_degraded`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod collectives;
pub mod degraded;
pub mod error;
pub mod handlers;
pub mod output;
pub mod process;
pub mod request;
pub mod resume;
pub mod simulator;
pub mod store;
pub mod tags;

pub use degraded::{
    replay_files_degraded, DegradationReason, DegradedOutcome, RankDegradation,
};
pub use error::ReplayError;
pub use handlers::{ExpandError, MicroOp, Registry};
pub use process::Sources;
pub use request::{run_request, PausedReplay, RequestOutcome, RequestPolicy, RequestStatus};
pub use resume::{
    keyed_fingerprint, run_checkpointed, CheckpointPolicy, CheckpointedOutcome,
    CheckpointedStatus, PauseReason, ReplayCheckpoint,
};
pub use simulator::{replay, replay_files, replay_memory, ReplayConfig, ReplayOutcome};
pub use store::{replay_store_degraded, store_sources, SegmentCache, SegmentedSource};
