//! Integration tests for the `TIB2` segmented trace store: the
//! differential identity (store replay ≡ fully-resident replay, bit
//! for bit), memory-budget governance (tight budgets page, impossible
//! budgets fail typed), and the fault-closure property — **every**
//! segment-level damage class the injector can produce is either
//! detected fail-closed (typed error naming the damage) or salvaged by
//! degraded replay with a completeness ratio strictly below 1. No
//! injected fault may ever yield a silently wrong simulated time.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use titr::extract::faultinject::Injector;
use titr::platform::desc::{ClusterSpec, ClusterTopology, PlatformDesc};
use titr::replay::{replay, replay_store_degraded, ReplayConfig, Sources};
use titr::simkern::resource::HostId;
use titr::simkern::Platform;
use titr::trace::tib2::{write_compact_atomic, Tib2Store};
use titr::trace::{Action, CompactTrace, MemBudget, TiTrace};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("titr-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
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
    (PlatformDesc::single(spec).build(), (0..np as u32).map(HostId).collect())
}

/// A deadlock-free ring trace exercising every store column: tags,
/// peers, volumes (including NaN receives) and the side table.
fn ring_trace(np: usize, iters: usize) -> CompactTrace {
    let mut t = TiTrace::new(np);
    for rank in 0..np {
        t.push(rank, Action::CommSize { nproc: np });
        for i in 0..iters {
            t.push(rank, Action::Compute { flops: 1e5 + i as f64 });
            t.push(rank, Action::Isend { dst: (rank + 1) % np, bytes: 1024.0 });
            t.push(rank, Action::Recv { src: (rank + np - 1) % np, bytes: None });
            t.push(rank, Action::Wait);
            if i % 5 == 2 {
                t.push(rank, Action::AllReduce { vcomm: 64.0, vcomp: 1e4 });
            }
        }
    }
    CompactTrace::from_trace(&t).unwrap()
}

fn write_store(dir: &Path, trace: &CompactTrace, seg: usize) -> PathBuf {
    let p = dir.join("trace.tib2");
    write_compact_atomic(&p, trace, seg).unwrap();
    p
}

/// The acceptance identity: a generator-fed store replayed under a
/// budget a fraction of its decoded size matches the fully-resident
/// CompactTrace replay bit for bit.
#[test]
fn budgeted_store_replay_is_bit_identical_to_resident_replay() {
    let d = tmp("diff");
    let trace = ring_trace(4, 400);
    let path = write_store(&d, &trace, 64);
    let cfg = ReplayConfig::default();

    let (p1, h1) = testbed(4);
    let resident = replay(Sources::compact(&Arc::new(trace)), p1, &h1, &cfg, None).unwrap();

    let store = Arc::new(Tib2Store::open(&path).unwrap());
    let (p2, h2) = testbed(4);
    // ~8 decoded segments of headroom: the replay must page, not hold.
    let out =
        replay(Sources::store(&store, Arc::new(MemBudget::new(8 * 1200))), p2, &h2, &cfg, None)
            .unwrap();

    assert_eq!(resident.simulated_time.to_bits(), out.simulated_time.to_bits());
    assert_eq!(resident.actions_replayed, out.actions_replayed);
    let _ = std::fs::remove_dir_all(&d);
}

/// A budget smaller than a single decoded segment can never make
/// progress: the replay must refuse with the typed memory error, not
/// spin or OOM.
#[test]
fn impossible_budget_is_a_typed_memory_error() {
    let d = tmp("oom");
    let trace = ring_trace(3, 200);
    let path = write_store(&d, &trace, 128);
    let store = Arc::new(Tib2Store::open(&path).unwrap());
    let (p, h) = testbed(3);
    let sources = Sources::store(&store, Arc::new(MemBudget::new(64)));
    let err = replay(sources, p, &h, &ReplayConfig::default(), None).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("memory budget"), "typed budget refusal expected: {msg}");
    let _ = std::fs::remove_dir_all(&d);
}

/// Damaging one rank's tail segment degrades exactly that rank, with
/// the completeness ratio computed from the footer index.
#[test]
fn degraded_replay_quantifies_the_salvage() {
    let d = tmp("deg");
    let trace = ring_trace(3, 300);
    let path = write_store(&d, &trace, 64);
    let clean = Tib2Store::open(&path).unwrap();
    let expected = clean.num_actions();
    // Zero the tail of rank 1's last segment (torn write).
    let meta = *clean.segment_meta(1, clean.num_segments(1) - 1).unwrap();
    drop(clean);
    let mut bytes = std::fs::read(&path).unwrap();
    let end = meta.offset as usize + 16 + meta.payload_len as usize;
    for b in &mut bytes[end - 32..end] {
        *b = 0xAA;
    }
    std::fs::write(&path, &bytes).unwrap();

    let store = Arc::new(Tib2Store::open(&path).unwrap());
    let (p, h) = testbed(3);
    let out = replay_store_degraded(
        &store,
        Arc::new(MemBudget::unlimited()),
        p,
        &h,
        &ReplayConfig::default(),
        None,
    )
    .unwrap();
    assert_eq!(out.ranks.len(), 1, "exactly one rank degraded: {:?}", out.ranks);
    assert_eq!(out.ranks[0].rank, 1);
    assert!(out.completeness() < 1.0);
    assert_eq!(out.actions_expected, expected);
    let _ = std::fs::remove_dir_all(&d);
}

proptest! {
    /// Fault closure over the injector's segment-level damage classes:
    /// for any seed and class, if the injector changed the file at
    /// all, the damage is either refused at open (typed), refused by
    /// strict replay (typed), or salvaged by degraded replay with
    /// completeness < 1 — and a strict replay that fails must never
    /// have been preceded by a clean open serving wrong data.
    #[test]
    fn every_injected_segment_fault_is_detected_or_quantified(
        seed in 1u64..5000,
        class in 0u8..3,
    ) {
        let d = tmp(&format!("closure-{seed}-{class}"));
        let trace = ring_trace(3, 150);
        let clean_path = write_store(&d, &trace, 64);
        let clean_bytes = std::fs::read(&clean_path).unwrap();
        let victim = d.join("victim.tib2");
        std::fs::write(&victim, &clean_bytes).unwrap();

        let mut inj = Injector::new(seed);
        let injected = match class {
            0 => inj.flip_segment_bit(&victim),
            1 => inj.tear_segment(&victim),
            _ => inj.truncate_footer(&victim),
        };
        prop_assert!(injected.is_ok(), "injection must not error: {injected:?}");

        let damaged = std::fs::read(&victim).unwrap() != clean_bytes;
        match Tib2Store::open(&victim) {
            Err(_) => {
                // Fail-closed at open: the footer classes land here.
                prop_assert!(damaged, "a no-op injection must not fail open");
            }
            Ok(store) => {
                let store = Arc::new(store);
                let (p, h) = testbed(3);
                let cfg = ReplayConfig::default();
                let strict = replay(
                    Sources::store(&store, Arc::new(MemBudget::unlimited())), p, &h, &cfg, None);
                let (p2, h2) = testbed(3);
                let deg = replay_store_degraded(
                    &store, Arc::new(MemBudget::unlimited()), p2, &h2, &cfg, None);
                let deg = deg.expect("an open store always has a salvage boundary");
                if damaged {
                    prop_assert!(strict.is_err(),
                        "strict replay of a damaged store must fail closed");
                    prop_assert!(deg.completeness() < 1.0,
                        "degraded replay must quantify the loss");
                } else {
                    // The injection landed on bytes already equal to
                    // the damage pattern: nothing changed, nothing may
                    // be reported.
                    prop_assert!(strict.is_ok());
                    prop_assert!((deg.completeness() - 1.0).abs() < 1e-12);
                }
            }
        }
        std::fs::remove_dir_all(&d).unwrap();
    }
}
