//! The trace replay tool: time-independent traces + platform +
//! deployment → simulated execution time (Figure 4 of the paper).
//!
//! ```text
//! tit-replay --trace-dir DIR --np N
//!            [--platform platform.xml] [--deploy deploy.xml] [--nodes N]
//!            [--collectives binomial|flat] [--network mpi|flow|constant]
//!            [--kernel incremental|reference]
//!            [--timed-trace out.csv] [--timeline out.json]
//!            [--profile [out.json]] [--metrics out.json] [--lint]
//!            [--time-resolved out.json] [--time-resolved-csv out.csv]
//!            [--window SECS] [--kernel-profile out.json]
//!            [--jobs N]
//!            [--checkpoint ck.tick --checkpoint-every N] [--resume ck.tick]
//!            [--max-wall SECS] [--degraded]
//! ```
//!
//! Without `--platform`, a bordereau-like cluster of `--nodes` (default
//! `N`) single-core nodes is used; without `--deploy`, ranks map
//! round-robin. With `--lint`, the trace set is statically analyzed
//! first (`tit-lint`) and the replay refuses to start when error
//! findings are present — catching deadlocks and structural defects
//! before any simulation time is spent.
//!
//! The observability outputs stream during the replay (O(ranks)
//! memory, no record buffering): `--timeline` writes Chrome trace-event
//! JSON (load in `chrome://tracing` or Perfetto), `--timed-trace`
//! writes the `rank,action,start,end,volume` CSV, `--profile FILE`
//! writes the per-rank profile as JSON (a bare `--profile` prints the
//! text table), and `--metrics` writes a deterministic metrics JSON.
//! Only `--paje` still buffers records (its writer needs them sorted by
//! rank). Every file output is written atomically (tmp + rename): a
//! crash mid-replay never leaves a half-written artifact behind.
//!
//! `--time-resolved FILE` adds the windowed view: simulated time is
//! segmented at phase boundaries (every rank completed a collective)
//! and, with `--window SECS`, at fixed-width marks; each window
//! reports per-rank compute/comm time, bytes, operation counts,
//! active-flow peaks and derived comm-ratio/imbalance metrics
//! (`tit-timeres-v1` JSON; `--time-resolved-csv FILE` streams the
//! per-rank rows). `--kernel-profile FILE` turns on the simulator's
//! self-profiling — LMM solver work, event-heap traffic, wall time per
//! engine phase printed to stdout; the file holds the deterministic
//! counter core, byte-identical across runs and `--jobs` values.
//!
//! `--kernel reference` swaps the scale-invariant incremental kernel
//! (the default) for the full-solve reference kernel it is
//! differentially tested against. Both simulate bit-identically; the
//! reference path exists as an oracle and for triaging suspected
//! kernel bugs (docs/KERNEL.md).
//!
//! `--jobs N` selects the parallel ingestion fast path: the per-rank
//! trace files are parsed by N worker threads (`--jobs 0` = one per
//! CPU) into the compact struct-of-arrays form and replayed from
//! memory. The default `--jobs 1` streams the files serially during the
//! replay (constant memory). Both paths produce identical results; the
//! ingest counters (`ingest.files`, `ingest.actions`, `ingest.bytes`,
//! `ingest.jobs`, `wall.ingest`) land in `--metrics` output.
//!
//! # Checkpoint / resume (DESIGN.md §5f)
//!
//! `--checkpoint FILE --checkpoint-every N` snapshots the full replay
//! state into a versioned `TICK1` file (atomically replaced) every `N`
//! replayed actions; `--resume FILE` restarts from such a snapshot and
//! reaches the **bit-identical** final simulated time of an
//! uninterrupted run. `--max-wall SECS` is a watchdog: when the budget
//! expires the replay writes a final checkpoint and exits with code 3
//! (partial success) instead of being lost. `--stop-after-checkpoints
//! K` pauses deterministically after the K-th snapshot (the hook the
//! chaos harness uses to simulate crashes). Checkpointing requires the
//! serial path (`--jobs 1`).
//!
//! # Segmented stores (`--store`, DESIGN.md §5i)
//!
//! `--store FILE` replays a `TIB2` segmented store (docs/FORMATS.md)
//! instead of a trace directory: segments fault in on demand with
//! O(ranks + resident segments) peak memory, every segment is
//! checksum-verified before a byte of it reaches the kernel, and the
//! simulated time is bit-identical to the `--trace-dir` path. `--np`
//! is optional (the store knows its rank count) and must match when
//! given. `--mem-budget BYTES` (suffixes `K`/`M`/`G` accepted) puts a
//! hard cap on resident decoded segments: the cache evicts and
//! re-faults under pressure, and an unmeetable cap is a typed refusal
//! — never an OOM kill. The run self-reports its peak RSS (`VmHWM`)
//! next to the budget. Checkpoints taken with `--store` embed the
//! store's footer hash: `--resume` refuses a store whose content
//! changed, not just a different platform. With `--degraded`, damaged
//! segments are trimmed at segment granularity using the footer
//! index's exact per-segment action counts.
//!
//! # Degraded mode
//!
//! `--degraded` replays whatever a damaged trace directory still
//! carries instead of failing hard: unparseable file tails are trimmed,
//! missing ranks are stubbed out, and the run reports a completeness
//! ratio (actions replayed / actions expected) plus per-rank
//! degradation reasons (also in `--metrics` output). Exit code 3 when
//! the ratio is below 1.0, 0 for an undamaged input.
//!
//! # Exit codes
//!
//! `0` success — `1` runtime failure — `2` usage error — `3` partial
//! success (watchdog pause or degraded replay with completeness < 1).

use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tit_cli::Args;
use tit_core::{AtomicFile, Budget, MemBudget, Tib2Store};
use tit_platform::deployment::Deployment;
use tit_platform::desc::PlatformDesc;
use tit_platform::presets;
use tit_replay::collectives::CollectiveAlgo;
use tit_replay::{
    replay, replay_files_degraded, replay_store_degraded, run_checkpointed, tags,
    CheckpointPolicy, CheckpointedStatus, DegradationReason, PauseReason, ReplayCheckpoint,
    ReplayConfig, Sources,
};
use titobs::{KernelReport, Metrics, Profile, TimeResolved, Timeline, TimelineFormat, WindowSpec};

const USAGE: &str = "tit-replay (--trace-dir DIR --np N | --store FILE [--mem-budget BYTES]) [--platform FILE] [--deploy FILE] [--nodes N] [--collectives binomial|flat] [--network mpi|flow|constant] [--kernel incremental|reference] [--timed-trace FILE] [--timeline FILE] [--profile [FILE]] [--metrics FILE] [--time-resolved FILE] [--time-resolved-csv FILE] [--window SECS] [--kernel-profile FILE] [--paje FILE] [--lint] [--jobs N] [--checkpoint FILE] [--checkpoint-every N] [--resume FILE] [--max-wall SECS] [--stop-after-checkpoints K] [--degraded]";

/// Exit code for partial success: a watchdog pause or a degraded
/// replay that lost actions.
const EXIT_PARTIAL: i32 = 3;

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\nusage: {USAGE}");
    std::process::exit(2);
}

/// Unwraps a replay-stage result, or reports it and exits 1.
fn or_die<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("replay failed: {e}");
        std::process::exit(1);
    })
}

fn open_atomic(path: &str) -> BufWriter<AtomicFile> {
    match AtomicFile::create(Path::new(path)) {
        Ok(f) => BufWriter::with_capacity(1 << 16, f),
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Flushes and atomically publishes a streamed output file.
fn commit_atomic(w: BufWriter<AtomicFile>, path: &str) {
    let r = w.into_inner().map_err(std::io::IntoInnerError::into_error).and_then(AtomicFile::commit);
    if let Err(e) = r {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn write_atomic_or_die(path: &str, contents: &str) {
    if let Err(e) = tit_core::write_atomic(Path::new(path), contents.as_bytes()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args = Args::from_env();
    // Input selection: a per-rank trace directory or a TIB2 store.
    let store_path = args.get("store").map(str::to_owned);
    if store_path.is_some() && args.get("trace-dir").is_some() {
        usage_error("--store and --trace-dir are mutually exclusive");
    }
    let dir = match &store_path {
        Some(_) => PathBuf::new(),
        None => PathBuf::from(args.require("trace-dir", USAGE)),
    };
    let store = store_path.as_ref().map(|p| {
        match Tib2Store::open(Path::new(p)) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                // Fail closed: a store whose footer index does not
                // verify has no trustworthy salvage map.
                eprintln!("cannot open store {p}: {e}");
                std::process::exit(1);
            }
        }
    });
    let np: usize = match &store {
        Some(s) => {
            let n = s.num_ranks();
            let given: usize = args.get_or("np", n);
            if given != n {
                usage_error(&format!("--np {given} does not match the store's {n} rank(s)"));
            }
            n
        }
        None => {
            let np = args.get_or("np", 0);
            if np == 0 {
                usage_error("missing --np");
            }
            np
        }
    };
    let mem_budget: Option<u64> = args.get("mem-budget").map(|s| {
        match tit_cli::parse_byte_size(s) {
            Ok(v) if v > 0 => v,
            Ok(_) => usage_error("--mem-budget wants a positive byte size"),
            Err(e) => usage_error(&e),
        }
    });
    if mem_budget.is_some() && store.is_none() {
        usage_error("--mem-budget needs --store (directory replays stream at O(ranks) anyway)");
    }
    let budget = Arc::new(mem_budget.map_or_else(MemBudget::unlimited, MemBudget::new));

    // Robustness-mode flags and their interactions (exit 2 on misuse).
    let degraded = args.has_flag("degraded");
    let checkpoint = args.get("checkpoint").map(str::to_owned);
    let resume = args.get("resume").map(str::to_owned);
    let every: u64 = args.get_or("checkpoint-every", 0);
    let max_wall: Budget = args.get("max-wall").map_or_else(Budget::unlimited, |s| {
        match s.parse::<f64>() {
            Ok(v) if v >= 0.0 => Budget::from_secs_f64(v),
            _ => usage_error("--max-wall wants a non-negative number of seconds"),
        }
    });
    let stop_after: Option<u64> = args.get("stop-after-checkpoints").map(|s| match s.parse() {
        Ok(v) => v,
        Err(_) => usage_error("--stop-after-checkpoints wants a count"),
    });
    let jobs: usize = args.get_or("jobs", 1);
    let checkpointing = checkpoint.is_some() || resume.is_some();
    if degraded && checkpointing {
        usage_error("--degraded cannot be combined with --checkpoint/--resume");
    }
    if degraded && (every != 0 || !max_wall.is_unlimited() || stop_after.is_some()) {
        usage_error("--degraded cannot be combined with checkpointing options");
    }
    if (every != 0 || !max_wall.is_unlimited() || stop_after.is_some()) && checkpoint.is_none() {
        usage_error("--checkpoint-every/--max-wall/--stop-after-checkpoints need --checkpoint FILE");
    }
    if (degraded || checkpointing) && jobs != 1 {
        usage_error("--degraded and checkpointing require the serial path (--jobs 1)");
    }
    if (degraded || checkpointing) && args.get("paje").is_some() {
        usage_error("--paje is not available with --degraded or checkpointing");
    }
    if degraded && (args.has_flag("lint") || args.get("lint").is_some()) {
        usage_error("--lint refuses damaged traces; it cannot be combined with --degraded");
    }
    if store.is_some() && jobs != 1 {
        usage_error("--store streams segments on demand; --jobs applies to --trace-dir only");
    }
    if store.is_some() && (args.has_flag("lint") || args.get("lint").is_some()) {
        usage_error("--lint analyzes a trace directory; it is not available with --store");
    }

    // Time-resolved metrics and kernel self-profiling flags.
    let time_resolved = args.get("time-resolved").map(str::to_owned);
    let time_resolved_csv = args.get("time-resolved-csv").map(str::to_owned);
    let want_timeres = time_resolved.is_some() || time_resolved_csv.is_some();
    let window: Option<f64> = args.get("window").map(|s| match s.parse::<f64>() {
        Ok(v) if v > 0.0 && v.is_finite() => v,
        _ => usage_error("--window wants a positive number of simulated seconds"),
    });
    if window.is_some() && !want_timeres {
        usage_error("--window needs --time-resolved or --time-resolved-csv");
    }
    let kernel_profile_path = args.get("kernel-profile").map(str::to_owned);
    if kernel_profile_path.is_some() && (degraded || checkpointing) {
        usage_error("--kernel-profile is not available with --degraded or checkpointing");
    }

    let metrics = Metrics::new();
    if args.has_flag("lint") || args.get("lint").is_some() {
        let report = metrics.time("wall.lint", || {
            titlint::lint_dir(&dir, np, &titlint::LintConfig::default())
        });
        metrics.incr("lint.findings", report.findings.len() as u64);
        if !report.findings.is_empty() {
            eprint!("{}", report.render_text());
        }
        if report.has_errors() {
            eprintln!("refusing to replay: the static analysis found error(s) above");
            std::process::exit(1);
        }
    }

    let desc = match args.get("platform") {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read platform file {path:?}: {e}");
                std::process::exit(1);
            });
            PlatformDesc::from_xml_str(&text).unwrap_or_else(|e| {
                eprintln!("bad platform file: {e}");
                std::process::exit(1);
            })
        }
        None => PlatformDesc::single(presets::bordereau_one_core(args.get_or("nodes", np))),
    };
    let platform = desc.build();
    let deployment = match args.get("deploy") {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read deployment file {path:?}: {e}");
                std::process::exit(1);
            });
            Deployment::from_xml_str(&text).unwrap_or_else(|e| {
                eprintln!("bad deployment file: {e}");
                std::process::exit(1);
            })
        }
        None => Deployment::round_robin(&desc.host_names(), np),
    };
    let hosts = deployment.host_ids(&platform);

    let algo = match args.get_or("collectives", "binomial".to_string()).as_str() {
        "binomial" => CollectiveAlgo::Binomial,
        "flat" => CollectiveAlgo::Flat,
        other => {
            eprintln!("unknown collective algorithm {other:?}");
            std::process::exit(2);
        }
    };
    let network = match args.get_or("network", "mpi".to_string()).as_str() {
        "mpi" => simkern::NetworkConfig::mpi_cluster(),
        "flow" => simkern::NetworkConfig::default(),
        "constant" => simkern::NetworkConfig::constant(),
        other => {
            eprintln!("unknown network model {other:?}");
            std::process::exit(2);
        }
    };
    let kernel = match args.get_or("kernel", "incremental".to_string()).as_str() {
        "incremental" => simkern::KernelMode::Incremental,
        "reference" => simkern::KernelMode::Reference,
        other => {
            eprintln!("unknown kernel mode {other:?}");
            std::process::exit(2);
        }
    };
    // Only the paje writer needs the records buffered (it sorts by
    // rank); everything else streams through observers.
    let cfg = ReplayConfig {
        network,
        algo,
        collect_records: args.get("paje").is_some(),
        kernel_profile: kernel_profile_path.is_some(),
        kernel,
    };

    // Assemble the streaming observer set. `--profile` doubles as a
    // flag (text table to stdout) and a `--profile FILE` pair (JSON).
    let want_profile = args.has_flag("profile") || args.get("profile").is_some();
    let want_metrics_file = args.get("metrics").is_some();
    let mut fan = simkern::observer::Fanout::new();
    let timeline = match args.get("timeline") {
        Some(path) => {
            let tl = Timeline::new(open_atomic(path), np, TimelineFormat::ChromeJson, tags::name)
                .unwrap_or_else(|e| {
                    eprintln!("cannot start timeline {path}: {e}");
                    std::process::exit(1);
                });
            fan = fan.with(tl.sink());
            Some((tl, path))
        }
        None => None,
    };
    let timed = match args.get("timed-trace") {
        Some(path) => {
            let tl = Timeline::new(open_atomic(path), np, TimelineFormat::Csv, tags::name)
                .unwrap_or_else(|e| {
                    eprintln!("cannot start timed trace {path}: {e}");
                    std::process::exit(1);
                });
            fan = fan.with(tl.sink());
            Some((tl, path))
        }
        None => None,
    };
    let profile = if want_profile {
        let p = Profile::new(np, tags::name, tags::is_comm);
        fan = fan.with(p.sink());
        Some(p)
    } else {
        None
    };
    let timeres = if want_timeres {
        let csv = time_resolved_csv.as_deref().map(open_atomic);
        let spec = WindowSpec { width: window, phases: true };
        let tr = TimeResolved::new(csv, np, spec, tags::is_comm, tags::is_collective)
            .unwrap_or_else(|e| {
                eprintln!("cannot start time-resolved metrics: {e}");
                std::process::exit(1);
            });
        fan = fan.with(tr.sink());
        Some(tr)
    } else {
        None
    };
    if want_metrics_file {
        fan = fan.with(metrics.observer("replay"));
    }
    let extra: Option<Box<dyn simkern::observer::Observer>> =
        if fan.is_empty() { None } else { Some(Box::new(fan)) };

    let policy = checkpoint.as_ref().map(|p| CheckpointPolicy {
        path: PathBuf::from(p),
        every_actions: every,
        max_wall,
        stop_after_checkpoints: stop_after,
    });

    // Run the selected mode; every branch converges on the same
    // (simulated time, actions, wall, exit code) summary.
    let mut exit_code = 0;
    let mut paje_records = None;
    let mut kernel_profile_data = None;
    let (sim_time, actions, wall) = if degraded {
        let out = or_die(match &store {
            Some(s) => {
                replay_store_degraded(s, Arc::clone(&budget), platform, &hosts, &cfg, extra)
            }
            None => replay_files_degraded(&dir, np, platform, &hosts, &cfg, extra),
        });
        let ratio = out.completeness();
        metrics.set_value("degraded.completeness", ratio);
        let mut stubbed = 0;
        let mut trimmed = 0;
        for r in &out.ranks {
            if r.reason == DegradationReason::MissingFile {
                stubbed += 1;
            }
            trimmed += r.lines_trimmed;
            metrics.set_note(
                &format!("degraded.rank{}", r.rank),
                &format!("{}: {}", r.reason, r.detail),
            );
        }
        metrics.incr("degraded.ranks_stubbed", stubbed);
        metrics.incr("degraded.actions_trimmed", trimmed);
        println!(
            "completeness:     {ratio:.6} ({}/{} actions)",
            out.actions_replayed, out.actions_expected
        );
        for r in &out.ranks {
            println!(
                "degraded rank {}:  {} ({} actions kept, {} lines trimmed) {}",
                r.rank, r.reason, r.actions_kept, r.lines_trimmed, r.detail
            );
        }
        if let Some(f) = &out.failure {
            println!("replay cut short: {f}");
        }
        if out.is_partial() {
            exit_code = EXIT_PARTIAL;
        }
        (out.simulated_time, out.actions_replayed, out.wall_time)
    } else {
        let ck = resume.as_ref().map(|f| or_die(ReplayCheckpoint::load(Path::new(f))));
        // One source set for both drivers: the store, the streamed
        // files (`--jobs 1`, the default), or the parallel ingestion
        // fast path for any other `--jobs` value.
        let sources = match &store {
            Some(s) => {
                if !checkpointing {
                    metrics.incr("store.bytes", s.file_len());
                    metrics.incr("store.actions", s.num_actions());
                    metrics.set_note("store.fingerprint", &format!("{:#018x}", s.fingerprint()));
                }
                Sources::store(s, Arc::clone(&budget))
            }
            None if jobs == 1 => or_die(Sources::files(&dir, np)),
            None => {
                let compact = or_die(
                    metrics.time("wall.ingest", || tit_core::load_compact_exact(&dir, np, jobs)),
                );
                metrics.incr("ingest.files", np as u64);
                metrics.incr("ingest.actions", compact.num_actions() as u64);
                metrics.incr("ingest.bytes", compact.heap_bytes() as u64);
                metrics.set_value("ingest.jobs", tit_core::ingest::effective_jobs(jobs) as f64);
                Sources::compact(&Arc::new(compact))
            }
        };
        if checkpointing {
            let out = or_die(run_checkpointed(
                sources,
                platform,
                &hosts,
                &cfg,
                extra,
                policy.as_ref(),
                ck.as_ref(),
            ));
            metrics.incr("checkpoint.writes", out.checkpoints_written);
            if out.resumed {
                metrics.incr("checkpoint.resume", 1);
                // panics: `out.resumed` implies --resume was given
                println!("resumed from:     {}", resume.as_ref().unwrap());
            }
            if let Some(ckfile) = &checkpoint {
                println!("checkpoints:      {} written to {ckfile}", out.checkpoints_written);
            }
            let sim = match out.status {
                CheckpointedStatus::Finished { simulated_time } => simulated_time,
                CheckpointedStatus::Paused { simulated_time, reason } => {
                    let why = match reason {
                        PauseReason::WallLimit => "wall-clock budget expired",
                        PauseReason::StopAfter => "checkpoint count reached",
                    };
                    println!("paused:           {why}; resume with --resume");
                    exit_code = EXIT_PARTIAL;
                    simulated_time
                }
            };
            (sim, out.actions_replayed, out.wall_time)
        } else {
            let out = or_die(replay(sources, platform, &hosts, &cfg, extra));
            paje_records = out.records;
            kernel_profile_data = out.kernel_profile;
            (out.simulated_time, out.actions_replayed, out.wall_time)
        }
    };
    println!("simulated time:   {sim_time:.6} s");
    println!("actions replayed: {actions}");
    println!("simulation wall:  {:.3} s", wall.as_secs_f64());
    if store.is_some() {
        // Self-report ground truth (the kernel's VmHWM high-water
        // mark), not the cache's own accounting, next to the cap.
        metrics.set_value("mem.segment_peak", budget.peak() as f64);
        if let Some(cap) = mem_budget {
            metrics.set_value("mem.budget", cap as f64);
        }
        if let Some(peak) = tit_core::rss::peak_rss_bytes() {
            metrics.set_value("mem.peak_rss", peak as f64);
            match mem_budget {
                Some(cap) => println!(
                    "peak rss:         {:.1} MiB (segment budget {:.1} MiB, segment peak {:.1} MiB)",
                    peak as f64 / (1 << 20) as f64,
                    cap as f64 / (1 << 20) as f64,
                    budget.peak() as f64 / (1 << 20) as f64,
                ),
                None => println!("peak rss:         {:.1} MiB", peak as f64 / (1 << 20) as f64),
            }
        }
    }

    // The observer fanout was consumed (and dropped) by the replay, so
    // the timelines are the sole owners of their writers: finish each
    // one, reclaim the AtomicFile, and publish it. Partial runs (pause,
    // degraded) still commit — the file describes what did replay.
    if let Some((tl, path)) = timeline {
        match tl.finish() {
            Ok(summary) => {
                debug_assert!(summary.monotone, "engine emitted out-of-order records");
                println!("timeline:         {path} ({} events)", summary.events);
            }
            Err(e) => {
                eprintln!("cannot write timeline {path}: {e}");
                std::process::exit(1);
            }
        }
        match tl.into_writer() {
            Some(w) => commit_atomic(w, path),
            None => {
                eprintln!("cannot write timeline {path}: writer still shared");
                std::process::exit(1);
            }
        }
    }
    if let Some((tl, path)) = timed {
        if let Err(e) = tl.finish() {
            eprintln!("cannot write timed trace {path}: {e}");
            std::process::exit(1);
        }
        match tl.into_writer() {
            Some(w) => commit_atomic(w, path),
            None => {
                eprintln!("cannot write timed trace {path}: writer still shared");
                std::process::exit(1);
            }
        }
        println!("timed trace:      {path}");
    }
    if let Some(p) = &profile {
        let report = p.snapshot();
        match args.get("profile") {
            Some(path) => {
                write_atomic_or_die(path, &report.to_json());
                println!("profile:          {path}");
            }
            None => {
                print!("{}", report.render_text());
                print!("{}", report.render_tags_text());
            }
        }
    }
    if let Some(tr) = timeres {
        let report = tr.finish().unwrap_or_else(|e| {
            eprintln!("cannot write time-resolved metrics: {e}");
            std::process::exit(1);
        });
        if let Some(path) = &time_resolved {
            write_atomic_or_die(path, &report.to_json());
            println!("time-resolved:    {path} ({} windows)", report.windows.len());
        }
        if let Some(path) = &time_resolved_csv {
            match tr.into_writer() {
                Some(w) => commit_atomic(w, path),
                None => {
                    eprintln!("cannot write time-resolved CSV {path}: writer still shared");
                    std::process::exit(1);
                }
            }
            println!("time-resolved csv: {path}");
        }
    }
    if let Some(path) = &kernel_profile_path {
        // The engine only hands the profile back on a completed run;
        // the flag is rejected for the modes that pause early.
        let Some(kp) = kernel_profile_data else {
            eprintln!("kernel profile was not collected (replay did not complete)");
            std::process::exit(1);
        };
        let report = KernelReport {
            profile: kp,
            num_ranks: np,
            actions_replayed: actions,
            simulated_time: sim_time,
        };
        print!("{}", report.render_text());
        // The file holds the deterministic counter core (no wall
        // section) so CI can byte-diff it across runs and --jobs.
        write_atomic_or_die(path, &report.to_json());
        println!("kernel profile:   {path}");
    }
    if let Some(path) = args.get("metrics") {
        metrics.incr("replay.actions", actions);
        metrics.set_value("replay.simulated_time", sim_time);
        write_atomic_or_die(path, &metrics.to_json());
        println!("metrics:          {path}");
    }

    if let Some(records) = &paje_records {
        if let Some(path) = args.get("paje") {
            let mut w = open_atomic(path);
            if let Err(e) = tit_replay::output::write_paje(records, np, sim_time, &mut w) {
                eprintln!("cannot write paje trace {path}: {e}");
                std::process::exit(1);
            }
            commit_atomic(w, path);
            println!("paje trace:       {path}");
        }
    }
    std::process::exit(exit_code);
}
