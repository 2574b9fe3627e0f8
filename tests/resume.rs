//! Differential kill-and-resume property: a replay that is paused at
//! every checkpoint boundary and resumed from disk each time must be
//! indistinguishable from an uninterrupted run — same final simulated
//! time (bit for bit), same per-rank profile totals (accumulated in the
//! same order, so bit-identical JSON), and a timed-trace CSV whose
//! per-segment pieces stitch into the uninterrupted file byte for byte.
//! This is DESIGN.md §5f's core guarantee, checked over random balanced
//! traces and random checkpoint intervals.

use proptest::prelude::*;
use titr::obs::{Profile, SharedBuf, Timeline, TimelineFormat};
use titr::platform::desc::PlatformDesc;
use titr::platform::presets;
use titr::replay::{
    replay, run_checkpointed, tags, CheckpointPolicy, CheckpointedStatus, ReplayCheckpoint,
    ReplayConfig, Sources,
};
use titr::simkern::KernelMode;
use titr::simkern::observer::{Fanout, Observer};
use titr::simkern::resource::HostId;
use titr::trace::{Action, TiTrace};

/// Generates a random *balanced* trace (every send matched by a posted
/// receive, FIFO per ordered pair, every Irecv waited on) — the same
/// generator shape as `tests/proptests.rs`.
fn balanced_trace(nproc: usize, ops: &[(usize, usize, u32, bool)]) -> TiTrace {
    let mut t = TiTrace::new(nproc);
    for r in 0..nproc {
        t.push(r, Action::CommSize { nproc });
    }
    for &(src, dst, vol, nonblocking) in ops {
        let src = src % nproc;
        let dst = dst % nproc;
        if src == dst {
            t.push(src, Action::Compute { flops: f64::from(vol) });
            continue;
        }
        let bytes = f64::from(vol);
        t.push(src, Action::Send { dst, bytes });
        if nonblocking {
            t.push(dst, Action::Irecv { src, bytes: None });
            t.push(dst, Action::Wait);
        } else {
            t.push(dst, Action::Recv { src, bytes: None });
        }
    }
    for r in 0..nproc {
        t.push(r, Action::Barrier);
    }
    t
}

fn platform_hosts(nproc: usize) -> (titr::simkern::resource::Platform, Vec<HostId>) {
    let desc = PlatformDesc::single(presets::bordereau_one_core(nproc));
    let hosts = (0..nproc as u32).map(HostId).collect();
    (desc.build(), hosts)
}

/// A CSV timeline + shared profile observer pair for one engine run.
fn observers(nproc: usize, profile: &Profile) -> (SharedBuf, Timeline<SharedBuf>, Box<dyn Observer>) {
    let buf = SharedBuf::new();
    let tl = Timeline::new(buf.clone(), nproc, TimelineFormat::Csv, tags::name)
        .expect("SharedBuf cannot fail");
    let fan = Fanout::new().with(tl.sink()).with(profile.sink());
    (buf, tl, Box::new(fan))
}

const CSV_HEADER: &str = "rank,action,start,end,volume\n";

proptest! {
    #[test]
    fn kill_and_resume_matches_uninterrupted(
        nproc in 2usize..5,
        ops in proptest::collection::vec(
            (0usize..6, 0usize..6, 1u32..500_000, proptest::bool::ANY),
            1..25,
        ),
        every in 1u64..40,
    ) {
        let trace = balanced_trace(nproc, &ops);
        let dir = std::env::temp_dir().join(format!(
            "titr-resume-prop-{}-{nproc}-{every}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        trace.save_per_process(&dir).unwrap();
        let cfg = ReplayConfig::default();

        // Uninterrupted reference run.
        let ref_profile = Profile::new(nproc, tags::name, tags::is_comm);
        let (ref_buf, ref_tl, extra) = observers(nproc, &ref_profile);
        let (platform, hosts) = platform_hosts(nproc);
        let reference =
            replay(Sources::files(&dir, nproc).unwrap(), platform, &hosts, &cfg, Some(extra))
                .expect("reference replay");
        ref_tl.finish().unwrap();
        let ref_csv = String::from_utf8(ref_buf.contents()).unwrap();
        let ref_profile_json = ref_profile.snapshot().to_json();

        // Killed sequence: pause at *every* checkpoint boundary
        // (stop_after_checkpoints = 1 restarts the process each time),
        // resuming from the on-disk TICK1 file. One Profile accumulates
        // across all segments — completion order is preserved, so float
        // accumulation matches the reference bit for bit.
        let ck = dir.join("ck.tick");
        let policy = CheckpointPolicy {
            path: ck.clone(),
            every_actions: every,
            max_wall: tit_core::Budget::unlimited(),
            stop_after_checkpoints: Some(1),
        };
        let profile = Profile::new(nproc, tags::name, tags::is_comm);
        let mut stitched = String::from(CSV_HEADER);
        let mut segments = 0u32;
        let final_time = loop {
            let (buf, tl, extra) = observers(nproc, &profile);
            let (platform, hosts) = platform_hosts(nproc);
            let resume = (segments > 0).then(|| ReplayCheckpoint::load(&ck).unwrap());
            let out = run_checkpointed(
                Sources::files(&dir, nproc).unwrap(),
                platform,
                &hosts,
                &cfg,
                Some(extra),
                Some(&policy),
                resume.as_ref(),
            )
            .expect("checkpointed segment");
            tl.finish().unwrap();
            let csv = String::from_utf8(buf.contents()).unwrap();
            stitched.push_str(csv.strip_prefix(CSV_HEADER).expect("segment CSV header"));
            segments += 1;
            prop_assert!(segments < 10_000, "runaway segment loop");
            match out.status {
                CheckpointedStatus::Finished { simulated_time } => break simulated_time,
                CheckpointedStatus::Paused { .. } => {}
            }
        };

        prop_assert_eq!(final_time.to_bits(), reference.simulated_time.to_bits());
        prop_assert_eq!(&stitched, &ref_csv);
        prop_assert_eq!(&profile.snapshot().to_json(), &ref_profile_json);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A checkpoint taken under the incremental kernel resumes under the
/// reference kernel (the oracle) to the bit-identical simulated time of
/// an uninterrupted run: the snapshot is kernel-mode portable, and the
/// checkpointed driver honours `cfg.kernel` like every other driver.
#[test]
fn incremental_checkpoint_resumes_under_the_reference_kernel() {
    let nproc = 4;
    let ops: Vec<(usize, usize, u32, bool)> =
        (0..40).map(|i| (i % 4, (i * 3 + 1) % 4, 500 + 37 * i as u32, i % 3 == 0)).collect();
    let trace = balanced_trace(nproc, &ops);
    let dir = std::env::temp_dir().join(format!("titr-resume-kernel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    trace.save_per_process(&dir).unwrap();
    let incremental = ReplayConfig { kernel: KernelMode::Incremental, ..ReplayConfig::default() };
    let reference = ReplayConfig { kernel: KernelMode::Reference, ..ReplayConfig::default() };

    let (platform, hosts) = platform_hosts(nproc);
    let whole = replay(Sources::files(&dir, nproc).unwrap(), platform, &hosts, &incremental, None)
        .expect("uninterrupted replay");

    let ck = dir.join("ck.tick");
    let policy = CheckpointPolicy {
        path: ck.clone(),
        every_actions: 25,
        max_wall: tit_core::Budget::unlimited(),
        stop_after_checkpoints: Some(1),
    };
    let (platform, hosts) = platform_hosts(nproc);
    let first = run_checkpointed(
        Sources::files(&dir, nproc).unwrap(),
        platform,
        &hosts,
        &incremental,
        None,
        Some(&policy),
        None,
    )
    .expect("checkpointed run");
    assert!(matches!(first.status, CheckpointedStatus::Paused { .. }), "{:?}", first.status);

    let (platform, hosts) = platform_hosts(nproc);
    let resumed = run_checkpointed(
        Sources::files(&dir, nproc).unwrap(),
        platform,
        &hosts,
        &reference,
        None,
        None,
        Some(&ReplayCheckpoint::load(&ck).unwrap()),
    )
    .expect("resume under the reference kernel");
    assert!(resumed.resumed);
    match resumed.status {
        CheckpointedStatus::Finished { simulated_time } => {
            assert_eq!(simulated_time.to_bits(), whole.simulated_time.to_bits());
        }
        other => panic!("resume must finish, got {other:?}"),
    }
    assert_eq!(resumed.actions_replayed, whole.actions_replayed);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A damaged input under `--degraded` semantics never beats the intact
/// one: the completeness ratio of a truncated trace set is below 1, the
/// ratio of the intact set is exactly 1, and neither replay panics.
#[test]
fn degraded_ratio_is_exact_on_intact_and_below_one_on_truncated() {
    let nproc = 3;
    let ops: Vec<(usize, usize, u32, bool)> =
        (0..12).map(|i| (i % 3, (i + 1) % 3, 1000 + i as u32, i % 2 == 0)).collect();
    let trace = balanced_trace(nproc, &ops);
    let dir = std::env::temp_dir().join(format!("titr-resume-deg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    trace.save_per_process(&dir).unwrap();
    let cfg = ReplayConfig::default();

    let (platform, hosts) = platform_hosts(nproc);
    let intact = titr::replay::replay_files_degraded(&dir, nproc, platform, &hosts, &cfg, None)
        .expect("intact degraded replay");
    assert!((intact.completeness() - 1.0).abs() < f64::EPSILON);
    assert!(!intact.is_partial());

    let victim = dir.join(titr::trace::trace::process_trace_filename(1));
    let body = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &body[..body.len() * 2 / 3]).unwrap();
    let (platform, hosts) = platform_hosts(nproc);
    let cut = titr::replay::replay_files_degraded(&dir, nproc, platform, &hosts, &cfg, None)
        .expect("cut degraded replay");
    assert!(cut.completeness() < 1.0, "ratio {}", cut.completeness());
    assert!(cut.is_partial());
    assert_eq!(cut.ranks.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
