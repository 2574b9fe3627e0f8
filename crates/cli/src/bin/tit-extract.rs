//! `tau2simgrid`: extract time-independent traces from TAU traces and
//! gather them (Figure 2, steps 3-4).
//!
//! ```text
//! tit-extract --tau TAU_DIR --np N --out TI_DIR [--threads T] [--bundle FILE] [--arity K]
//!             [--tib2 FILE [--seg-actions N]]
//! ```
//!
//! `--jobs` is accepted as a synonym for `--threads` (`0` = one worker
//! per CPU), matching `tit-replay`/`tit-lint`.
//!
//! `--tib2 FILE` additionally packs the extracted traces into a
//! checksummed `TIB2` segmented store (docs/FORMATS.md), written
//! atomically (tmp + rename — a crash never leaves a torn store
//! behind). `--seg-actions N` overrides the segment size (default
//! 4096 actions). Replay it with `tit-replay --store FILE`.

use std::path::PathBuf;
use tit_cli::Args;
use tit_extract::gather::{bundle, gather_plan};
use tit_extract::tau2ti;

const USAGE: &str =
    "tit-extract --tau DIR --np N --out DIR [--threads T | --jobs T] [--bundle FILE] [--arity K] [--tib2 FILE [--seg-actions N]]";

fn main() {
    let args = Args::from_env();
    let tau = PathBuf::from(args.require("tau", USAGE));
    let np: usize = args.get_or("np", 0);
    if np == 0 {
        eprintln!("missing --np\nusage: {USAGE}");
        std::process::exit(2);
    }
    let out = PathBuf::from(args.require("out", USAGE));
    // `--jobs` is the workspace-wide spelling; `--threads` predates it.
    let threads =
        tit_core::ingest::effective_jobs(args.get_or("threads", args.get_or("jobs", 0)));

    let t0 = std::time::Instant::now();
    let stats = match tau2ti(&tau, np, &out, threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("extraction failed: {e}");
            std::process::exit(1);
        }
    };
    let wall = t0.elapsed();
    println!("records read:     {}", stats.records_read);
    println!("actions written:  {}", stats.actions_written);
    println!("ti bytes:         {} ({:.2} MiB)", stats.ti_bytes, stats.ti_bytes as f64 / (1 << 20) as f64);
    println!("extraction wall:  {:.3} s", wall.as_secs_f64());

    // Optional TIB2 segmented store (replayed with `tit-replay
    // --store`); written atomically, parallel parse via --jobs.
    if let Some(dest) = args.get("tib2") {
        let seg_actions: usize = args.get_or("seg-actions", tit_core::tib2::DEFAULT_SEG_ACTIONS);
        if seg_actions == 0 {
            eprintln!("--seg-actions wants a positive action count\nusage: {USAGE}");
            std::process::exit(2);
        }
        let dest = PathBuf::from(dest);
        match tit_core::tib2::convert_dir_atomic(&out, np, &dest, seg_actions, threads) {
            Ok(s) => println!(
                "tib2 store:       {} ({} segments, {} bytes, fingerprint {:#018x})",
                dest.display(),
                s.segments,
                s.bytes,
                s.fingerprint
            ),
            Err(e) => {
                eprintln!("tib2 conversion failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // Gathering: physical bundle + modelled K-nomial schedule.
    let arity: usize = args.get_or("arity", 4);
    let files: Vec<PathBuf> =
        (0..np).map(|r| out.join(tit_core::trace::process_trace_filename(r))).collect();
    let sizes: Vec<f64> = files
        .iter()
        .map(|f| std::fs::metadata(f).map(|m| m.len() as f64).unwrap_or(0.0))
        .collect();
    let plan = gather_plan(&sizes, arity, 1.25e8, 5e-5);
    println!("gather steps:     {} ({}-nomial tree)", plan.steps, arity);
    println!("gather time (model): {:.3} s", plan.time);
    if let Some(b) = args.get("bundle") {
        let bpath = PathBuf::from(b);
        match bundle(&files, &bpath) {
            Ok(total) => println!("bundled {total} bytes into {}", bpath.display()),
            Err(e) => {
                eprintln!("bundling failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
