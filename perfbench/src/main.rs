//! `perfbench` — the compiled half of the repository benchmark
//! (`perfbench/run.py` drives it; see `perfbench/README.md`).
//!
//! ```text
//! perfbench trace-batch --work DIR --out FILE --mem-budget BYTES
//!                       (--tau DIR --np N [--outputs] | --stores A[,B...])
//! perfbench refs --requests FILE --out FILE
//! perfbench open-loop --addr HOST:PORT --plan FILE --out FILE
//! perfbench closed-loop --addr HOST:PORT --plan FILE --out FILE --seconds S
//! ```
//!
//! Exit codes: `0` success, `1` the work failed (message on stderr),
//! `2` usage error or a debug build.

mod batch;
mod serve;
mod spans;

use std::path::{Path, PathBuf};
use tit_cli::Args;

const USAGE: &str =
    "perfbench trace-batch|refs|open-loop|closed-loop [options] (see the module docs)";

fn write_out(args: &Args, text: &str) -> Result<(), String> {
    let out = args.require("out", USAGE);
    std::fs::write(&out, text).map_err(|e| format!("cannot write {out}: {e}"))
}

fn byte_size(args: &Args, key: &str) -> u64 {
    match tit_cli::parse_byte_size(&args.require(key, USAGE)) {
        Ok(v) if v > 0 => v,
        _ => {
            eprintln!("--{key} wants a positive byte size");
            std::process::exit(2);
        }
    }
}

fn run(cmd: &str, args: &Args) -> Result<(), String> {
    match cmd {
        "trace-batch" => {
            let tau = args
                .get("tau")
                .map(|t| (PathBuf::from(t), args.get_or("np", 0usize)));
            if matches!(tau, Some((_, 0))) {
                return Err("--tau needs --np".into());
            }
            let stores: Vec<PathBuf> = args
                .get("stores")
                .map(|s| s.split(',').map(PathBuf::from).collect())
                .unwrap_or_default();
            if tau.is_none() && stores.is_empty() {
                return Err("trace-batch needs --tau or --stores".into());
            }
            let plan = batch::BatchPlan {
                tau,
                stores,
                work: PathBuf::from(args.require("work", USAGE)),
                mem_budget: byte_size(args, "mem-budget"),
                outputs: args.has_flag("outputs"),
            };
            write_out(args, &batch::run(&plan)?)
        }
        "refs" => write_out(
            args,
            &serve::refs(Path::new(&args.require("requests", USAGE)))?,
        ),
        "open-loop" => {
            let text = serve::open_loop(
                &args.require("addr", USAGE),
                Path::new(&args.require("plan", USAGE)),
            )?;
            write_out(args, &text)
        }
        "closed-loop" => {
            let seconds: f64 = match args.require("seconds", USAGE).parse() {
                Ok(s) if s > 0.0 => s,
                _ => {
                    eprintln!("--seconds wants a positive number");
                    std::process::exit(2);
                }
            };
            let text = serve::closed_loop(
                &args.require("addr", USAGE),
                Path::new(&args.require("plan", USAGE)),
                seconds,
            )?;
            write_out(args, &text)
        }
        other => {
            eprintln!("unknown command {other:?}\nusage: {USAGE}");
            std::process::exit(2);
        }
    }
}

fn main() {
    // Timings from an unoptimized build say nothing about the program.
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to run a debug build; build with --release");
        std::process::exit(2);
    }
    let args = Args::from_env();
    let Some(cmd) = args.positional().first().cloned() else {
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
    };
    if let Err(e) = run(&cmd, &args) {
        eprintln!("perfbench {cmd}: {e}");
        std::process::exit(1);
    }
}
