//! The `tau2simgrid` extractor: TFR callbacks → time-independent actions.
//!
//! Per MPI call, TAU records the sequence of Figure 3: `EnterState`, a
//! `PAPI_FP_OPS` trigger (ending the preceding CPU burst), message
//! triggers/records, a second counter trigger (starting the next burst),
//! and `LeaveState`. The extractor:
//!
//! * emits a `compute` action for every positive counter delta *between*
//!   MPI calls (flops inside an MPI call are ignored — "they are
//!   accounted for by the network model");
//! * maps `SendMessage` records inside `MPI_Send`/`MPI_Isend` states to
//!   `send`/`Isend` actions;
//! * maps `RecvMessage` inside `MPI_Recv` to `recv`; for `MPI_Irecv` the
//!   source is unknown at post time, so a placeholder is kept and filled
//!   by the `RecvMessage` that appears inside the matching `MPI_Wait`
//!   (the paper's "lookup techniques");
//! * recovers collective volumes from the message-size trigger and their
//!   compute volumes from the counter delta across the call.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use tau_sim::edf::EventRegistry;
use tau_sim::reader::{read_trace_file, TraceCallbacks};
use tit_core::trace::ProcessTraceWriter;
use tit_core::Action;

/// Extraction statistics (inputs of the Figure 7 cost model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// TAU records read through the TFR callbacks.
    pub records_read: u64,
    /// Time-independent actions formatted and written.
    pub actions_written: u64,
    /// Bytes of the produced time-independent traces.
    pub ti_bytes: u64,
}

/// What the current `EntryExit` state maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MpiState {
    Send,
    Isend,
    Recv,
    Irecv,
    Wait,
    Bcast,
    Reduce,
    Allreduce,
    Barrier,
    CommSize,
    Other,
}

fn classify(name: &str) -> MpiState {
    match name.trim() {
        "MPI_Send()" => MpiState::Send,
        "MPI_Isend()" => MpiState::Isend,
        "MPI_Recv()" => MpiState::Recv,
        "MPI_Irecv()" => MpiState::Irecv,
        "MPI_Wait()" => MpiState::Wait,
        "MPI_Bcast()" => MpiState::Bcast,
        "MPI_Reduce()" => MpiState::Reduce,
        "MPI_Allreduce()" => MpiState::Allreduce,
        "MPI_Barrier()" => MpiState::Barrier,
        "MPI_Comm_size()" => MpiState::CommSize,
        _ => MpiState::Other,
    }
}

struct Extractor<'a> {
    registry: &'a EventRegistry,
    fp_ev: Option<i32>,
    msgsize_ev: Option<i32>,
    commsize_ev: Option<i32>,
    /// Counter value at the last state boundary (end of last MPI call).
    burst_base: i64,
    /// Counter value at entry of the current state.
    enter_value: i64,
    state: Option<MpiState>,
    /// Triggers seen since entering the current state.
    fp_triggers_in_state: u32,
    /// Message-size trigger value inside the current state.
    pending_volume: Option<i64>,
    /// Message record seen inside the current state.
    pending_send: Option<(usize, f64)>,
    pending_recv: Option<(usize, f64)>,
    pending_commsize: Option<usize>,
    /// Indices (into `actions`) of Irecv placeholders not yet resolved.
    open_irecvs: std::collections::VecDeque<usize>,
    actions: Vec<Action>,
}

impl<'a> Extractor<'a> {
    fn new(registry: &'a EventRegistry) -> Self {
        Extractor {
            registry,
            fp_ev: registry.id_of("PAPI_FP_OPS"),
            msgsize_ev: registry.id_of("Message size sent to all nodes"),
            commsize_ev: registry.id_of("MPI communicator size"),
            burst_base: 0,
            enter_value: 0,
            state: None,
            fp_triggers_in_state: 0,
            pending_volume: None,
            pending_send: None,
            pending_recv: None,
            pending_commsize: None,
            open_irecvs: std::collections::VecDeque::new(),
            actions: Vec::new(),
        }
    }

    /// Emits the CPU burst that ended when the current MPI call began.
    fn flush_burst(&mut self, counter_at_enter: i64) {
        let delta = counter_at_enter - self.burst_base;
        if delta > 0 {
            self.actions.push(Action::Compute { flops: delta as f64 });
        }
    }

    fn finish_state(&mut self, state: MpiState, leave_value: i64) {
        let vcomp = (leave_value - self.enter_value).max(0) as f64;
        match state {
            MpiState::Send => {
                let (dst, bytes) = self
                    .pending_send
                    .take()
                    // panics: record pairing is guaranteed by the acquisition tracer
                    .expect("MPI_Send state without SendMessage record");
                self.actions.push(Action::Send { dst, bytes });
            }
            MpiState::Isend => {
                let (dst, bytes) = self
                    .pending_send
                    .take()
                    // panics: record pairing is guaranteed by the acquisition tracer
                    .expect("MPI_Isend state without SendMessage record");
                self.actions.push(Action::Isend { dst, bytes });
            }
            MpiState::Recv => {
                let (src, _) = self
                    .pending_recv
                    .take()
                    // panics: record pairing is guaranteed by the acquisition tracer
                    .expect("MPI_Recv state without RecvMessage record");
                self.actions.push(Action::Recv { src, bytes: None });
            }
            MpiState::Irecv => {
                // Source unknown here: placeholder, resolved by the
                // RecvMessage inside the matching MPI_Wait.
                self.open_irecvs.push_back(self.actions.len());
                self.actions.push(Action::Irecv { src: usize::MAX, bytes: None });
            }
            MpiState::Wait => {
                if let Some((src, _)) = self.pending_recv.take() {
                    let idx = self
                        .open_irecvs
                        .pop_front()
                        // panics: record pairing is guaranteed by the acquisition tracer
                        .expect("RecvMessage in MPI_Wait with no pending MPI_Irecv");
                    self.actions[idx] = Action::Irecv { src, bytes: None };
                }
                self.actions.push(Action::Wait);
            }
            MpiState::Bcast => {
                let bytes = self.pending_volume.take().unwrap_or(0) as f64;
                self.actions.push(Action::Bcast { bytes });
            }
            MpiState::Reduce => {
                let vcomm = self.pending_volume.take().unwrap_or(0) as f64;
                self.actions.push(Action::Reduce { vcomm, vcomp });
            }
            MpiState::Allreduce => {
                let vcomm = self.pending_volume.take().unwrap_or(0) as f64;
                self.actions.push(Action::AllReduce { vcomm, vcomp });
            }
            MpiState::Barrier => self.actions.push(Action::Barrier),
            MpiState::CommSize => {
                let nproc = self
                    .pending_commsize
                    .take()
                    // panics: record pairing is guaranteed by the acquisition tracer
                    .expect("MPI_Comm_size state without size trigger");
                self.actions.push(Action::CommSize { nproc });
            }
            MpiState::Other => {}
        }
    }
}

impl TraceCallbacks for Extractor<'_> {
    fn enter_state(&mut self, _t: f64, _nid: u16, _tid: u16, ev: i32) {
        let name = self.registry.def(ev).map(|d| d.name.as_str()).unwrap_or("");
        self.state = Some(classify(name));
        self.fp_triggers_in_state = 0;
        self.pending_volume = None;
        self.pending_send = None;
        self.pending_recv = None;
        self.pending_commsize = None;
    }

    fn leave_state(&mut self, _t: f64, _nid: u16, _tid: u16, _ev: i32) {
        if let Some(state) = self.state.take() {
            // The last fp trigger before leave is the new burst base; if
            // the writer produced none (untracked function), keep base.
            self.finish_state(state, self.burst_base);
        }
    }

    fn event_trigger(&mut self, _t: f64, _nid: u16, _tid: u16, ev: i32, value: i64) {
        if Some(ev) == self.fp_ev {
            if self.state.is_some() {
                self.fp_triggers_in_state += 1;
                if self.fp_triggers_in_state == 1 {
                    // Snapshot at call entry: closes the app burst.
                    self.flush_burst(value);
                    self.enter_value = value;
                } else {
                    // Snapshot at call exit: flops inside the MPI call are
                    // not part of any app burst.
                    self.burst_base = value;
                }
            }
            // Triggers outside any state do not occur in TAU traces.
        } else if Some(ev) == self.msgsize_ev {
            self.pending_volume = Some(value);
        } else if Some(ev) == self.commsize_ev {
            self.pending_commsize = Some(value as usize);
        }
    }

    fn send_message(
        &mut self,
        _t: f64,
        _nid: u16,
        _tid: u16,
        dst_nid: u16,
        _dst_tid: u16,
        size: u32,
        _tag: u8,
        _comm: u8,
    ) {
        self.pending_send = Some((dst_nid as usize, size as f64));
    }

    fn recv_message(
        &mut self,
        _t: f64,
        _nid: u16,
        _tid: u16,
        src_nid: u16,
        _src_tid: u16,
        size: u32,
        _tag: u8,
        _comm: u8,
    ) {
        self.pending_recv = Some((src_nid as usize, size as f64));
    }
}

/// Extracts one rank's actions from its TAU trace/edf pair.
pub fn extract_process(trc: &Path, edf: &Path) -> std::io::Result<(Vec<Action>, u64)> {
    let registry = EventRegistry::load(edf)?;
    let mut ex = Extractor::new(&registry);
    let records = read_trace_file(trc, &registry, &mut ex)?;
    if !ex.open_irecvs.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{} MPI_Irecv without a resolving MPI_Wait", ex.open_irecvs.len()),
        ));
    }
    Ok((ex.actions, records))
}

/// Extracts all ranks from `tau_dir`, writing `SG_process<N>.trace` files
/// into `out_dir`. Runs `threads` extraction workers (the paper's
/// `tau2simgrid` is itself a parallel MPI program).
pub fn tau2ti(
    tau_dir: &Path,
    nproc: usize,
    out_dir: &Path,
    threads: usize,
) -> std::io::Result<ExtractStats> {
    std::fs::create_dir_all(out_dir)?;
    let records = AtomicU64::new(0);
    let actions = AtomicU64::new(0);
    let bytes = AtomicU64::new(0);
    let next = AtomicU64::new(0);
    let threads = threads.clamp(1, nproc.max(1));
    let errors: std::sync::Mutex<Vec<std::io::Error>> = std::sync::Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let rank = next.fetch_add(1, Ordering::Relaxed) as usize;
                if rank >= nproc {
                    return;
                }
                let work = (|| -> std::io::Result<()> {
                    let trc = tau_dir.join(tau_sim::trace_filename(rank));
                    let edf = tau_dir.join(tau_sim::edf_filename(rank));
                    let (acts, recs) = extract_process(&trc, &edf)?;
                    let mut w = ProcessTraceWriter::create(out_dir, rank)?;
                    for a in &acts {
                        w.write(a)?;
                    }
                    let written = w.actions_written();
                    w.finish()?;
                    let sz = std::fs::metadata(
                        out_dir.join(tit_core::trace::process_trace_filename(rank)),
                    )?
                    .len();
                    records.fetch_add(recs, Ordering::Relaxed);
                    actions.fetch_add(written, Ordering::Relaxed);
                    bytes.fetch_add(sz, Ordering::Relaxed);
                    Ok(())
                })();
                if let Err(e) = work {
                    // panics: mutex poisoned only if another thread already panicked
                    errors.lock().unwrap().push(e);
                    return;
                }
            });
        }
    });

    // panics: record pairing is guaranteed by the acquisition tracer
    if let Some(e) = errors.into_inner().unwrap().into_iter().next() {
        return Err(e);
    }
    Ok(ExtractStats {
        records_read: records.into_inner(),
        actions_written: actions.into_inner(),
        ti_bytes: bytes.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_emul::acquisition::{acquire, AcquisitionMode};
    use mpi_emul::runtime::EmulConfig;
    use npb::ring::RingConfig;

    fn tmp(tagname: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("titr-x-{tagname}-{}", std::process::id()))
    }

    fn exact_cfg() -> EmulConfig {
        EmulConfig { papi_jitter: 0.0, ..Default::default() }
    }

    #[test]
    fn ring_extraction_recovers_figure_1_trace() {
        let dir = tmp("ring");
        let tau = dir.join("tau");
        let ti = dir.join("ti");
        let ring = RingConfig::figure_1();
        acquire(&ring.program(), 4, AcquisitionMode::Regular, &exact_cfg(), &tau).unwrap();
        let stats = tau2ti(&tau, 4, &ti, 2).unwrap();
        assert_eq!(stats.actions_written, 12, "Figure 1 has 12 actions");
        let got = tit_core::load_exact(&ti, 4, 1).unwrap();
        let want = ring.trace();
        assert_eq!(got, want, "extracted trace must match the program's");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn irecv_wait_lookup_resolves_sources() {
        use mpi_emul::ops::{MpiOp, VecOpStream};
        // Rank 0 posts two Irecvs (from 1 then 2), then waits twice.
        let prog = |rank: usize, _n: usize| -> Box<dyn mpi_emul::ops::OpStream> {
            Box::new(VecOpStream::new(match rank {
                0 => vec![
                    MpiOp::Irecv { src: 1, bytes: 100.0 },
                    MpiOp::Irecv { src: 2, bytes: 200.0 },
                    MpiOp::compute(1e6),
                    MpiOp::Wait,
                    MpiOp::Wait,
                ],
                r => vec![MpiOp::Send { dst: 0, bytes: (r * 100) as f64 }],
            }))
        };
        let dir = tmp("irecv");
        let tau = dir.join("tau");
        let ti = dir.join("ti");
        acquire(&prog, 3, AcquisitionMode::Regular, &exact_cfg(), &tau).unwrap();
        tau2ti(&tau, 3, &ti, 1).unwrap();
        let got = tit_core::load_exact(&ti, 3, 1).unwrap();
        let p0 = &got.actions[0];
        assert_eq!(p0[0], Action::Irecv { src: 1, bytes: None });
        assert_eq!(p0[1], Action::Irecv { src: 2, bytes: None });
        assert_eq!(p0[2], Action::Compute { flops: 1e6 });
        assert_eq!(p0[3], Action::Wait);
        assert_eq!(p0[4], Action::Wait);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn collectives_extract_volumes() {
        use mpi_emul::ops::{MpiOp, VecOpStream};
        let prog = |_r: usize, _n: usize| -> Box<dyn mpi_emul::ops::OpStream> {
            Box::new(VecOpStream::new(vec![
                MpiOp::CommSize,
                MpiOp::Bcast { bytes: 4096.0 },
                MpiOp::Reduce { vcomm: 64.0, vcomp: 1000.0 },
                MpiOp::Allreduce { vcomm: 40.0, vcomp: 500.0 },
                MpiOp::Barrier,
            ]))
        };
        let dir = tmp("coll");
        let tau = dir.join("tau");
        let ti = dir.join("ti");
        acquire(&prog, 4, AcquisitionMode::Regular, &exact_cfg(), &tau).unwrap();
        tau2ti(&tau, 4, &ti, 1).unwrap();
        let got = tit_core::load_exact(&ti, 4, 1).unwrap();
        for rank in 0..4 {
            let a = &got.actions[rank];
            assert_eq!(a[0], Action::CommSize { nproc: 4 }, "rank {rank}");
            assert_eq!(a[1], Action::Bcast { bytes: 4096.0 });
            assert_eq!(a[2], Action::Reduce { vcomm: 64.0, vcomp: 1000.0 });
            assert_eq!(a[3], Action::AllReduce { vcomm: 40.0, vcomp: 500.0 });
            assert_eq!(a[4], Action::Barrier);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn papi_jitter_perturbs_only_compute_volumes() {
        let dir = tmp("jit");
        let tau = dir.join("tau");
        let ti = dir.join("ti");
        let ring = RingConfig::figure_1();
        let cfg = EmulConfig { papi_jitter: 5e-4, ..Default::default() };
        acquire(&ring.program(), 4, AcquisitionMode::Regular, &cfg, &tau).unwrap();
        tau2ti(&tau, 4, &ti, 1).unwrap();
        let got = tit_core::load_exact(&ti, 4, 1).unwrap();
        let want = ring.trace();
        for (ga, wa) in got.actions.iter().flatten().zip(want.actions.iter().flatten()) {
            match (ga, wa) {
                (Action::Compute { flops: g }, Action::Compute { flops: w }) => {
                    let rel = (g - w).abs() / w;
                    assert!(rel < 1e-3, "jitter must stay below 0.1%: {rel}");
                }
                _ => assert_eq!(ga, wa, "non-compute actions must be exact"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_files_error_cleanly() {
        let dir = tmp("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(tau2ti(&dir, 2, &dir.join("out"), 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
