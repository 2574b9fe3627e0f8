//! Conservation oracle for the time-resolved metrics engine
//! (docs/OBSERVABILITY.md): windowing must only *partition* the run,
//! never create or lose work.
//!
//! Every test replays a trace with a whole-run [`titr::obs::Profile`]
//! and a [`titr::obs::TimeResolved`] sink attached to the same engine,
//! then checks
//!
//! * the report's cumulative per-rank totals equal the profile's
//!   **bit for bit** (both fold the identical record stream in the
//!   identical order — any divergence is an accounting bug, so no
//!   epsilon is tolerated);
//! * per-window op counts are exact `u64` partitions of `total_ops`;
//! * per-window times/volumes sum back to the totals within float
//!   re-association slop only;
//! * the CSV stream agrees with the JSON report after a parse-back
//!   (floats are shortest-roundtrip, so parsing is lossless);
//!
//! under both windowing modes — fixed width plus phase boundaries, and
//! phase boundaries alone — on ring, stencil, allreduce-heavy, and LU
//! traces, and on proptest-generated deadlock-free round mixes.

use proptest::prelude::*;
use titr::npb::ring::RingConfig;
use titr::npb::stencil::StencilConfig;
use titr::npb::{program_trace, Class, LuConfig};
use titr::obs::{Profile, ProfileReport, TimeResReport, TimeResolved, WindowSpec};
use titr::platform::desc::PlatformDesc;
use titr::platform::presets;
use titr::replay::{replay, tags, ReplayConfig, Sources};
use titr::simkern::observer::Fanout;
use titr::simkern::resource::HostId;
use titr::trace::{Action, TiTrace};

/// Replays `trace` with a whole-run profile and a time-resolved sink on
/// the same engine; returns both reports plus the CSV stream.
fn replay_with(trace: &TiTrace, spec: WindowSpec) -> (ProfileReport, TimeResReport, String) {
    let np = trace.num_processes();
    let platform = PlatformDesc::single(presets::bordereau_one_core(np)).build();
    let hosts: Vec<HostId> = (0..np as u32).map(HostId).collect();
    let prof = Profile::new(np, tags::name, tags::is_comm);
    let tr = TimeResolved::new(Some(Vec::new()), np, spec, tags::is_comm, tags::is_collective)
        .expect("Vec<u8> writer cannot fail");
    let fan = Fanout::new().with(prof.sink()).with(tr.sink());
    replay(Sources::memory(trace), platform, &hosts, &ReplayConfig::default(), Some(Box::new(fan)))
        .expect("replay of a well-formed test trace");
    let report = tr.finish().expect("Vec<u8> writer cannot fail");
    let csv = String::from_utf8(tr.into_writer().expect("all sinks dropped after the run"))
        .expect("CSV is UTF-8");
    (prof.snapshot(), report, csv)
}

/// The conservation contract (see the module docs).
fn assert_conserved(prof: &ProfileReport, rep: &TimeResReport, csv: &str, tag: &str) {
    assert_eq!(rep.num_ranks, prof.ranks.len(), "{tag}: rank count");
    assert_eq!(rep.total_ops, prof.total_ops, "{tag}: total ops");

    // Cumulative per-rank totals: bit-for-bit against the profile.
    for (r, (t, p)) in rep.ranks.iter().zip(&prof.ranks).enumerate() {
        assert_eq!(
            t.compute_time.to_bits(),
            p.compute_time.to_bits(),
            "{tag}: rank {r} compute_time {} vs profile {}",
            t.compute_time,
            p.compute_time
        );
        assert_eq!(
            t.comm_time.to_bits(),
            p.comm_time.to_bits(),
            "{tag}: rank {r} comm_time {} vs profile {}",
            t.comm_time,
            p.comm_time
        );
        assert_eq!(t.flops.to_bits(), p.flops.to_bits(), "{tag}: rank {r} flops");
        assert_eq!(t.bytes.to_bits(), p.bytes.to_bits(), "{tag}: rank {r} bytes");
        assert_eq!(t.compute_ops, p.compute_ops, "{tag}: rank {r} compute_ops");
        assert_eq!(t.comm_ops, p.comm_ops, "{tag}: rank {r} comm_ops");
    }

    // Per-window op counts partition total_ops exactly.
    let win_ops: u64 = rep.windows.iter().map(|w| w.compute_ops + w.comm_ops).sum();
    assert_eq!(win_ops, rep.total_ops, "{tag}: window ops partition");

    // Per-window times/volumes re-sum to the totals (re-association
    // slop only — the adds happen in a different grouping).
    let total_busy: f64 = prof.ranks.iter().map(|p| p.compute_time + p.comm_time).sum();
    let win_busy: f64 = rep.windows.iter().map(|w| w.compute_time + w.comm_time).sum();
    assert!(
        (win_busy - total_busy).abs() <= 1e-9 * total_busy.max(1.0),
        "{tag}: window busy {win_busy} != total busy {total_busy}"
    );

    // Windows are in time order and internally consistent.
    let mut prev_start = f64::NEG_INFINITY;
    for w in &rep.windows {
        assert!(w.start <= w.end, "{tag}: window {} start > end", w.index);
        assert!(w.start >= prev_start, "{tag}: window {} out of order", w.index);
        prev_start = w.start;
    }

    // The CSV stream carries the same mass: floats are printed
    // shortest-roundtrip, so a parse-back is lossless and the summed
    // ops/volumes must match the JSON report exactly.
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(titr::obs::CSV_HEADER), "{tag}: CSV header");
    let mut csv_rows = 0usize;
    let mut csv_ops = 0u64;
    let mut csv_busy = 0.0f64;
    for line in lines {
        let f: Vec<&str> = line.split(',').collect();
        assert_eq!(f.len(), 12, "{tag}: CSV arity in {line:?}");
        let t_comp: f64 = f[5].parse().expect("compute_time parses");
        let t_comm: f64 = f[6].parse().expect("comm_time parses");
        csv_ops += f[7].parse::<u64>().expect("compute_ops parses")
            + f[8].parse::<u64>().expect("comm_ops parses");
        csv_busy += t_comp + t_comm;
        csv_rows += 1;
    }
    assert_eq!(csv_rows, rep.windows.len() * rep.num_ranks, "{tag}: CSV row count");
    assert_eq!(csv_ops, rep.total_ops, "{tag}: CSV ops partition");
    assert!(
        (csv_busy - total_busy).abs() <= 1e-9 * total_busy.max(1.0),
        "{tag}: CSV busy {csv_busy} != total busy {total_busy}"
    );
}

/// Both windowing modes, against a width derived from a first pass (so
/// fixed windows actually subdivide the run).
fn assert_conserved_both_modes(trace: &TiTrace, tag: &str) {
    let (prof, rep, csv) = replay_with(trace, WindowSpec::phases_only());
    assert_conserved(&prof, &rep, &csv, &format!("{tag}/phases"));
    let width = (rep.simulated_time / 7.0).max(1e-9);
    let (prof, rep, csv) = replay_with(trace, WindowSpec { width: Some(width), phases: true });
    assert!(rep.windows.len() > 1, "{tag}/fixed: width {width} produced one window");
    assert_conserved(&prof, &rep, &csv, &format!("{tag}/fixed"));
}

#[test]
fn ring_traces_conserve() {
    for (nproc, iters) in [(2, 2), (4, 4)] {
        let cfg = RingConfig { nproc, iters, ..Default::default() };
        assert_conserved_both_modes(&cfg.trace(), &format!("ring{nproc}x{iters}"));
    }
}

#[test]
fn stencil_traces_conserve() {
    let cfg = StencilConfig { n: 64, px: 2, py: 2, iters: 3, check_every: 1, ..Default::default() };
    assert_conserved_both_modes(&cfg.trace(), "stencil2x2");
}

#[test]
fn allreduce_heavy_trace_conserves_and_opens_phase_windows() {
    let np = 6;
    let mut t = TiTrace::new(np);
    for rank in 0..np {
        t.push(rank, Action::CommSize { nproc: np });
        for i in 0..4 {
            t.push(rank, Action::Compute { flops: 1e7 * (rank + i + 1) as f64 });
            t.push(rank, Action::AllReduce { vcomm: 1e5, vcomp: 1e4 });
        }
        t.push(rank, Action::Barrier);
    }
    let (prof, rep, csv) = replay_with(&t, WindowSpec::phases_only());
    // Four allreduces + a barrier: phase detection must actually fire.
    assert!(rep.windows.len() >= 4, "phase windows missing: {}", rep.windows.len());
    assert_conserved(&prof, &rep, &csv, "allreduce/phases");
    assert_conserved_both_modes(&t, "allreduce");
}

#[test]
fn lu_trace_conserves() {
    let lu = LuConfig::new(Class::S, 4).with_itmax(2);
    let trace = program_trace(&lu.program(), 4);
    assert_conserved_both_modes(&trace, "lu.S.4");
}

#[test]
fn report_and_csv_are_deterministic_across_runs() {
    let cfg = RingConfig { nproc: 4, iters: 3, ..Default::default() };
    let trace = cfg.trace();
    let spec = WindowSpec { width: Some(1e-3), phases: true };
    let (_, rep_a, csv_a) = replay_with(&trace, spec);
    let (_, rep_b, csv_b) = replay_with(&trace, spec);
    assert_eq!(rep_a.to_json(), rep_b.to_json());
    assert_eq!(csv_a, csv_b);
}

/// One deadlock-free "round" of activity shared by every rank (the
/// analyze_oracle generator, reused for windowing).
#[derive(Debug, Clone)]
enum Round {
    Compute(Vec<f64>),
    Bcast(f64),
    AllReduce(f64, f64),
    Barrier,
    /// Ring shift: Irecv from prev (pre-posted), send to next, wait.
    Shift(f64),
}

fn arb_round(np: usize) -> impl Strategy<Value = Round> {
    let vol = 0.0..1e7f64;
    prop_oneof![
        proptest::collection::vec(0.0..1e8f64, np..np + 1).prop_map(Round::Compute),
        vol.clone().prop_map(Round::Bcast),
        (vol.clone(), vol.clone()).prop_map(|(c, f)| Round::AllReduce(c, f)),
        Just(Round::Barrier),
        vol.prop_map(Round::Shift),
    ]
}

fn trace_of_rounds(np: usize, rounds: &[Round]) -> TiTrace {
    let mut t = TiTrace::new(np);
    for rank in 0..np {
        t.push(rank, Action::CommSize { nproc: np });
    }
    for round in rounds {
        for rank in 0..np {
            match round {
                Round::Compute(flops) => t.push(rank, Action::Compute { flops: flops[rank] }),
                Round::Bcast(b) => t.push(rank, Action::Bcast { bytes: *b }),
                Round::AllReduce(c, f) => t.push(rank, Action::AllReduce { vcomm: *c, vcomp: *f }),
                Round::Barrier => t.push(rank, Action::Barrier),
                Round::Shift(b) => {
                    t.push(rank, Action::Irecv { src: (rank + np - 1) % np, bytes: None });
                    t.push(rank, Action::Send { dst: (rank + 1) % np, bytes: *b });
                    t.push(rank, Action::Wait);
                }
            }
        }
    }
    t
}

proptest! {
    /// Random deadlock-free traces conserve under both windowing modes.
    #[test]
    fn random_traces_conserve(
        np in 2usize..5,
        seed_rounds in proptest::collection::vec(arb_round(8), 1..6),
    ) {
        let rounds: Vec<Round> = seed_rounds
            .into_iter()
            .map(|r| match r {
                Round::Compute(mut v) => {
                    v.truncate(np);
                    v.resize(np, 0.0);
                    Round::Compute(v)
                }
                other => other,
            })
            .collect();
        let trace = trace_of_rounds(np, &rounds);
        let (prof, rep, csv) = replay_with(&trace, WindowSpec::phases_only());
        assert_conserved(&prof, &rep, &csv, "proptest/phases");
        let width = (rep.simulated_time / 5.0).max(1e-9);
        let (prof, rep, csv) =
            replay_with(&trace, WindowSpec { width: Some(width), phases: true });
        assert_conserved(&prof, &rep, &csv, "proptest/fixed");
    }
}
