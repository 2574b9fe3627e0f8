//! Observer-overhead guard: what does watching a replay cost?
//!
//! The observability layer (docs/OBSERVABILITY.md) hangs off the
//! engine's `Observer` hook. Its contract is that observation is cheap:
//! a replay with **no** observer attached must not pay for the hook's
//! existence, and the streaming time-resolved sink must stay a small
//! fraction of the replay itself. This experiment measures three
//! replays of the same LU instance back to back:
//!
//! 1. **detached** — no observer at all (the baseline);
//! 2. **no-op** — an observer whose every hook is empty, isolating the
//!    pure dispatch cost (virtual call + record construction);
//! 3. **time-resolved** — a live [`titobs::TimeResolved`] sink with
//!    fixed windows and phase detection, CSV formatting included
//!    (written to `io::sink()` so the disk is not measured).
//!
//! Each variant takes the best of `repeats` runs (the container is a
//! single core, so back-to-back minima are the stable statistic), and
//! the ratios land in `BENCH_replay.json` where
//! `scripts/check_bench.py` gates them: no-op <= 2%, time-resolved
//! <= 10% — guarded by a minimum-wall floor so timer noise on tiny
//! runs cannot flake the gate.

use crate::perf::ObserverOverhead;
use crate::table::Table;
use npb::Class;
use simkern::observer::{Observer, OpRecord};
use simkern::resource::HostId;
use tit_core::TiTrace;
use tit_platform::desc::PlatformDesc;
use tit_platform::presets;
use tit_replay::{replay, replay_memory, tags, ReplayConfig, Sources};
use titobs::{TimeResolved, WindowSpec};

/// The full-hook no-op observer: every method overridden to nothing, so
/// the measured cost is exactly the engine-side dispatch.
struct Noop;

impl Observer for Noop {
    fn record(&mut self, _rec: OpRecord) {}
    fn actor_started(&mut self, _actor: usize, _time: f64) {}
    fn actor_ended(&mut self, _actor: usize, _time: f64) {}
    fn op_started(&mut self, _actor: usize, _tag: u32, _time: f64) {}
    fn engine_ended(&mut self, _time: f64) {}
}

fn replay_wall(trace: &TiTrace, nproc: usize, extra: Option<Box<dyn Observer>>) -> f64 {
    let platform = PlatformDesc::single(presets::bordereau_one_core(nproc)).build();
    let hosts: Vec<HostId> = (0..nproc as u32).map(HostId).collect();
    let cfg = ReplayConfig::default();
    let out = replay(Sources::memory(trace), platform, &hosts, &cfg, extra)
        // panics: experiment inputs are generated, so failure is a bench bug
        .expect("replay of a well-formed generated trace");
    out.wall_time.as_secs_f64()
}

fn best_of(repeats: u32, mut run: impl FnMut() -> f64) -> f64 {
    (0..repeats.max(1)).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// Measures the three variants on LU `class`×`nproc` at `scale`.
pub fn measure(class: Class, nproc: usize, scale: f64, repeats: u32) -> ObserverOverhead {
    let lu = crate::lu_instance(class, nproc, scale);
    let trace = npb::program_trace(&lu.program(), nproc);
    // One throwaway replay to learn the simulated makespan (sets the
    // fixed-window width) and warm allocators before timing anything.
    let platform = PlatformDesc::single(presets::bordereau_one_core(nproc)).build();
    let hosts: Vec<HostId> = (0..nproc as u32).map(HostId).collect();
    let warm = replay_memory(&trace, platform, &hosts, &ReplayConfig::default())
        // panics: experiment inputs are generated, so failure is a bench bug
        .expect("replay of a well-formed generated trace");
    let actions = warm.actions_replayed;
    let width = (warm.simulated_time / 64.0).max(1e-6);

    let wall_detached = best_of(repeats, || replay_wall(&trace, nproc, None));
    let wall_noop = best_of(repeats, || replay_wall(&trace, nproc, Some(Box::new(Noop))));
    let wall_timeres = best_of(repeats, || {
        let spec = WindowSpec { width: Some(width), phases: true };
        let tr = TimeResolved::new(
            Some(std::io::sink()),
            nproc,
            spec,
            tags::is_comm,
            tags::is_collective,
        )
        // panics: the io::sink() writer cannot fail
        .expect("time-resolved sink on io::sink()");
        let wall = replay_wall(&trace, nproc, Some(tr.sink()));
        // panics: the io::sink() writer cannot fail
        tr.finish().expect("finish time-resolved sink");
        wall
    });

    ObserverOverhead {
        label: format!("LU.{} x {nproc}", class.name()),
        actions,
        wall_detached,
        wall_noop,
        wall_timeres,
        repeats,
    }
}

/// Runs the guard at its default workload (LU B × 16: big enough to
/// clear the minimum-wall floor, small enough to repeat).
pub fn run(scale: f64) -> String {
    report(&measure(Class::B, 16, scale, 3))
}

/// Renders one measurement as the text exhibit.
pub fn report(o: &ObserverOverhead) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Observer overhead — {} ({} actions, best of {} runs)\n\n",
        o.label, o.actions, o.repeats
    ));
    let mut t = Table::new(&["variant", "replay wall (s)", "vs detached"]);
    t.row(&["detached (no observer)".into(), format!("{:.4}", o.wall_detached), "1.00x".into()]);
    t.row(&[
        "no-op observer".into(),
        format!("{:.4}", o.wall_noop),
        format!("{:.2}x", o.noop_ratio()),
    ]);
    t.row(&[
        "time-resolved sink".into(),
        format!("{:.4}", o.wall_timeres),
        format!("{:.2}x", o.timeres_ratio()),
    ]);
    out.push_str(&t.render());
    out.push_str(
        "\ngates (scripts/check_bench.py): no-op <= 1.02x, time-resolved <= 1.10x\n",
    );
    out
}
