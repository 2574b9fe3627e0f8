//! Differential and property tests for PR 4's ingestion fast path.
//!
//! The contract under test: the parallel loader is **indistinguishable**
//! from the serial one — identical traces (byte-identical when
//! re-serialised), identical errors on every fault-injection class the
//! pipeline can suffer — and the compact struct-of-arrays representation
//! round-trips the boxed `Action` form losslessly.

use proptest::prelude::*;
use titr::extract::faultinject::Injector;
use titr::trace::compact::{tag, CompactTrace};
use titr::trace::trace::process_trace_filename;
use titr::trace::{ingest, Action, TiTrace};

fn tmp(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("titr-ingest-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A ring trace with every keyword represented.
fn rich_trace(n: usize, iters: usize) -> TiTrace {
    let mut t = TiTrace::new(n);
    for r in 0..n {
        t.push(r, Action::CommSize { nproc: n });
    }
    for _ in 0..iters {
        for r in 0..n {
            t.push(r, Action::Compute { flops: 1.5e6 });
            t.push(r, Action::Isend { dst: (r + 1) % n, bytes: 1024.0 });
            t.push(r, Action::Irecv { src: (r + n - 1) % n, bytes: None });
            t.push(r, Action::Wait);
            t.push(r, Action::Wait);
            t.push(r, Action::Send { dst: (r + 1) % n, bytes: 2048.0 });
            t.push(r, Action::Recv { src: (r + n - 1) % n, bytes: Some(2048.0) });
            t.push(r, Action::Bcast { bytes: 4096.0 });
            t.push(r, Action::Reduce { vcomm: 8.0, vcomp: 1e5 });
            t.push(r, Action::AllReduce { vcomm: 8.0, vcomp: 1e5 });
            t.push(r, Action::Barrier);
        }
    }
    t
}

/// Serialises a trace to the merged text form, for byte-level diffing.
fn merged_bytes(t: &TiTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    t.write_merged(&mut buf).unwrap();
    buf
}

#[test]
fn parallel_load_is_byte_identical_to_serial() {
    let dir = tmp("bytes");
    rich_trace(8, 20).save_per_process(&dir).unwrap();
    let serial = TiTrace::load_per_process(&dir).unwrap();
    for jobs in [0, 2, 5, 8, 32] {
        let parallel = ingest::load_per_process_jobs(&dir, jobs).unwrap();
        assert_eq!(parallel, serial, "jobs={jobs}");
        assert_eq!(merged_bytes(&parallel), merged_bytes(&serial), "jobs={jobs}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Both loaders must fail identically on a truncated rank file (the
/// tail cut mid-line makes the last line unparseable).
#[test]
fn truncation_fails_identically_on_both_loaders() {
    let dir = tmp("trunc");
    rich_trace(6, 10).save_per_process(&dir).unwrap();
    Injector::new(0x7A).truncate_file(&dir.join(process_trace_filename(3))).unwrap();
    let serial = TiTrace::load_per_process(&dir);
    let parallel = ingest::load_per_process_jobs(&dir, 4);
    match (serial, parallel) {
        (Err(s), Err(p)) => {
            assert_eq!(s.kind(), p.kind());
            assert_eq!(s.to_string(), p.to_string());
        }
        // A truncation can land exactly on a line boundary, leaving a
        // shorter but well-formed file: then both must succeed equally.
        (Ok(s), Ok(p)) => assert_eq!(s, p),
        (s, p) => panic!("loaders disagree: serial {s:?} vs parallel {p:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flipped bit either corrupts a keyword/number (parse error on both
/// loaders, same message) or flips a digit silently (same trace on
/// both). With this seed set, both cases occur across the sweep.
#[test]
fn bit_flips_fail_or_survive_identically() {
    for seed in 0..8u64 {
        let dir = tmp(&format!("flip{seed}"));
        rich_trace(4, 6).save_per_process(&dir).unwrap();
        let victim = dir.join(process_trace_filename((seed % 4) as usize));
        Injector::new(seed).flip_bit(&victim).unwrap();
        let serial = TiTrace::load_per_process(&dir);
        let parallel = ingest::load_per_process_jobs(&dir, 3);
        match (serial, parallel) {
            (Err(s), Err(p)) => {
                assert_eq!(s.kind(), p.kind(), "seed {seed}");
                assert_eq!(s.to_string(), p.to_string(), "seed {seed}");
            }
            (Ok(s), Ok(p)) => assert_eq!(s, p, "seed {seed}"),
            (s, p) => panic!("seed {seed}: loaders disagree: {s:?} vs {p:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Dropping a rank's file ends discovery at the same point for both
/// loaders (dropping rank 0 is the NotFound case for both).
#[test]
fn dropped_ranks_fail_identically_on_both_loaders() {
    for victim in [0usize, 2, 5] {
        let dir = tmp(&format!("drop{victim}"));
        rich_trace(6, 4).save_per_process(&dir).unwrap();
        Injector::new(9).drop_rank(&dir, victim).unwrap();
        let serial = TiTrace::load_per_process(&dir);
        let parallel = ingest::load_per_process_jobs(&dir, 4);
        match (serial, parallel) {
            (Err(s), Err(p)) => {
                assert_eq!(s.kind(), p.kind(), "victim {victim}");
                assert_eq!(s.to_string(), p.to_string(), "victim {victim}");
            }
            (Ok(s), Ok(p)) => {
                assert_eq!(s, p, "victim {victim}");
                assert_eq!(s.num_processes(), victim, "discovery stops at the gap");
            }
            (s, p) => panic!("victim {victim}: loaders disagree: {s:?} vs {p:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The lint loader's parallel path produces the same report on damaged
/// directories as the serial one — total loading included.
#[test]
fn lint_reports_are_identical_on_damaged_dirs() {
    let dir = tmp("lintpar");
    rich_trace(6, 4).save_per_process(&dir).unwrap();
    let mut inj = Injector::new(0xBAD);
    inj.truncate_file(&dir.join(process_trace_filename(1))).unwrap();
    inj.drop_rank(&dir, 4).unwrap();
    let cfg = titr::lint::LintConfig::default();
    let serial = titr::lint::lint_dir(&dir, 6, &cfg);
    for jobs in [0, 2, 6] {
        let par = titr::lint::lint_dir_jobs(&dir, 6, &cfg, jobs);
        assert_eq!(par.to_json(), serial.to_json(), "jobs={jobs}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Streaming file replay and the parallel compact fast path agree on
/// the simulated time to the last bit.
#[test]
fn compact_fast_path_replays_identically_to_streaming() {
    use titr::platform::{desc::PlatformDesc, presets};
    use titr::simkern::resource::HostId;
    let dir = tmp("fastpath");
    let n = 8;
    rich_trace(n, 6).save_per_process(&dir).unwrap();
    let hosts: Vec<HostId> = (0..n as u32).map(HostId).collect();
    let cfg = titr::replay::ReplayConfig::default();
    let mk = || PlatformDesc::single(presets::bordereau_one_core(n)).build();
    let streaming = titr::replay::replay_files(&dir, n, mk(), &hosts, &cfg).unwrap();
    let compact = std::sync::Arc::new(titr::trace::load_compact_exact(&dir, n, 0).unwrap());
    let fast = titr::replay::replay(titr::replay::Sources::compact(&compact), mk(), &hosts, &cfg, None)
        .unwrap();
    assert_eq!(streaming.simulated_time, fast.simulated_time);
    assert_eq!(streaming.actions_replayed, fast.actions_replayed);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn arb_action() -> impl Strategy<Value = Action> {
    let vol = 0.0..1e9f64;
    let pid = 0usize..16;
    prop_oneof![
        vol.clone().prop_map(|flops| Action::Compute { flops }),
        (pid.clone(), vol.clone()).prop_map(|(dst, bytes)| Action::Send { dst, bytes }),
        (pid.clone(), vol.clone()).prop_map(|(dst, bytes)| Action::Isend { dst, bytes }),
        pid.clone().prop_map(|src| Action::Recv { src, bytes: None }),
        (pid.clone(), vol.clone()).prop_map(|(src, b)| Action::Recv { src, bytes: Some(b) }),
        pid.clone().prop_map(|src| Action::Irecv { src, bytes: None }),
        vol.clone().prop_map(|bytes| Action::Bcast { bytes }),
        (vol.clone(), vol.clone()).prop_map(|(vcomm, vcomp)| Action::Reduce { vcomm, vcomp }),
        (vol.clone(), vol).prop_map(|(vcomm, vcomp)| Action::AllReduce { vcomm, vcomp }),
        Just(Action::Barrier),
        (1usize..1024).prop_map(|nproc| Action::CommSize { nproc }),
        Just(Action::Wait),
    ]
}

/// `TIB2` ingestion is `--jobs`-invariant end to end: converting a
/// trace directory to a store and loading a store back are both
/// byte-identical whatever the worker count (the parallel paths fan
/// out over ranks and segments respectively, but stitch serially).
#[test]
fn tib2_conversion_and_load_are_jobs_invariant() {
    use titr::trace::tib2::{convert_dir_atomic, load_compact_store, Tib2Store};

    let trace = rich_trace(5, 40);
    let dir = tmp("tib2-jobs");
    trace.save_per_process(&dir).unwrap();

    let mut stores = Vec::new();
    for jobs in [1usize, 2, 4] {
        let dest = dir.join(format!("j{jobs}.tib2"));
        let s = convert_dir_atomic(&dir, 5, &dest, 32, jobs).unwrap();
        stores.push((dest, s.fingerprint));
    }
    let baseline = std::fs::read(&stores[0].0).unwrap();
    for (path, fp) in &stores[1..] {
        assert_eq!(std::fs::read(path).unwrap(), baseline, "conversion differs by --jobs");
        assert_eq!(*fp, stores[0].1);
    }

    // Loading back: serial and parallel decodes re-serialize to the
    // same bytes as the store itself.
    let store = Tib2Store::open(&stores[0].0).unwrap();
    for jobs in [1usize, 3, 8] {
        let loaded = load_compact_store(&store, jobs).unwrap();
        let re = dir.join(format!("re{jobs}.tib2"));
        titr::trace::tib2::write_compact_atomic(&re, &loaded, 32).unwrap();
        assert_eq!(std::fs::read(&re).unwrap(), baseline, "load differs at jobs={jobs}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// CompactTrace round-trips any boxed trace losslessly.
    #[test]
    fn compact_roundtrips_arbitrary_traces(
        actions in proptest::collection::vec((0usize..6, arb_action()), 0..300)
    ) {
        let mut t = TiTrace::new(6);
        for (pid, a) in actions {
            t.push(pid, a);
        }
        let c = CompactTrace::from_trace(&t).unwrap();
        prop_assert_eq!(c.num_actions(), t.num_actions());
        prop_assert_eq!(c.to_trace(), t);
    }

    /// Per-action access agrees with the boxed form, and every tag maps
    /// back to the action's own keyword.
    #[test]
    fn compact_get_matches_boxed_indexing(
        actions in proptest::collection::vec(arb_action(), 1..100)
    ) {
        let mut t = TiTrace::new(1);
        for a in &actions {
            t.push(0, *a);
        }
        let c = CompactTrace::from_trace(&t).unwrap();
        for (i, a) in actions.iter().enumerate() {
            prop_assert_eq!(c.get(0, i), Some(*a));
            prop_assert_eq!(tag::keyword(tag::of(a)), Some(a.keyword()));
        }
        prop_assert_eq!(c.get(0, actions.len()), None);
    }

    /// The parallel loader reproduces the serial loader on arbitrary
    /// well-formed traces, whatever the worker count.
    #[test]
    fn parallel_loader_matches_serial_on_arbitrary_traces(
        actions in proptest::collection::vec((0usize..4, arb_action()), 1..200),
        jobs in 2usize..8
    ) {
        let mut t = TiTrace::new(4);
        for (pid, a) in actions {
            t.push(pid, a);
        }
        let dir = tmp(&format!("prop{jobs}-{}", t.num_actions()));
        t.save_per_process(&dir).unwrap();
        let serial = TiTrace::load_per_process(&dir).unwrap();
        let parallel = ingest::load_per_process_jobs(&dir, jobs).unwrap();
        prop_assert_eq!(&parallel, &serial);
        prop_assert_eq!(merged_bytes(&parallel), merged_bytes(&serial));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
