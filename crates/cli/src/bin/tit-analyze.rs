//! Static trace analyzer: happens-before graph, critical path, and
//! makespan bounds — without running the replay.
//!
//! ```text
//! tit-analyze --trace-dir DIR --np N
//!             [--platform platform.xml] [--deploy deploy.xml] [--nodes N]
//!             [--collectives binomial|flat] [--network mpi|flow|constant]
//!             [--json FILE] [--metrics FILE] [--jobs N]
//! ```
//!
//! The tool loads the per-rank text trace files (`--jobs N`
//! parses them on N worker threads, `0` = one per CPU), builds the
//! cross-rank happens-before DAG under the same platform/network cost
//! model the replay engine uses, and reports:
//!
//! - **makespan bounds** — a lower bound (the weighted critical path)
//!   and an upper bound (fully serialized execution) that sandwich the
//!   simulated time of any `tit-replay` run over the same trace,
//!   platform, deployment, and network model;
//! - **the critical path** — its length, hop count, and the top
//!   path-dominating `(rank, action)` pairs, plus per-rank slack;
//! - **structure** — communication matrix, pattern classification
//!   (ring / stencil / allreduce-dominated / master-worker / …),
//!   load imbalance and comm/compute ratios.
//!
//! The text report goes to stdout; `--json FILE` writes the full
//! deterministic `tit-analyze-v1` report, `--metrics FILE` the pipeline
//! metrics (graph sizes, bounds, wall timers). Both are written
//! atomically. A trace whose blocking pattern guarantees a deadlock is
//! reported as such (exit 1) instead of producing bogus bounds.
//!
//! Exit codes: `0` success, `1` analysis failure (unreadable trace,
//! guaranteed deadlock), `2` usage error.

use std::path::{Path, PathBuf};
use tit_cli::Args;
use tit_platform::deployment::Deployment;
use tit_platform::desc::PlatformDesc;
use tit_platform::presets;
use tit_replay::collectives::CollectiveAlgo;
use titanalyze::{analyze, AnalyzeConfig};
use titobs::Metrics;

const USAGE: &str = "tit-analyze --trace-dir DIR --np N [--platform FILE] [--deploy FILE] [--nodes N] [--collectives binomial|flat] [--network mpi|flow|constant] [--json FILE] [--metrics FILE] [--jobs N]";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\nusage: {USAGE}");
    std::process::exit(2);
}

fn write_atomic_or_die(path: &str, contents: &str) {
    if let Err(e) = tit_core::write_atomic(Path::new(path), contents.as_bytes()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args = Args::from_env();
    let dir = PathBuf::from(args.require("trace-dir", USAGE));
    let np: usize = args.get_or("np", 0);
    if np == 0 {
        usage_error("missing --np");
    }
    let jobs: usize = args.get_or("jobs", 1);

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
        other => usage_error(&format!("unknown collective algorithm {other:?}")),
    };
    let network = match args.get_or("network", "mpi".to_string()).as_str() {
        "mpi" => simkern::NetworkConfig::mpi_cluster(),
        "flow" => simkern::NetworkConfig::default(),
        "constant" => simkern::NetworkConfig::constant(),
        other => usage_error(&format!("unknown network model {other:?}")),
    };
    let cfg = AnalyzeConfig { network, algo, jobs };

    let metrics = Metrics::new();
    let t0 = std::time::Instant::now();
    let trace = match metrics.time("wall.ingest", || tit_core::load_exact(&dir, np, jobs)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot load trace: {e}");
            std::process::exit(1);
        }
    };
    let ingest_wall = t0.elapsed();
    let t1 = std::time::Instant::now();
    let analysis = match metrics.time("wall.analyze", || analyze(&trace, &platform, &hosts, &cfg)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analysis failed: {e}");
            std::process::exit(1);
        }
    };
    let analyze_wall = t1.elapsed();

    print!("{}", analysis.render_text());
    println!("ingest wall:      {:.3} s", ingest_wall.as_secs_f64());
    println!("analysis wall:    {:.3} s", analyze_wall.as_secs_f64());
    if let Some(path) = args.get("json") {
        write_atomic_or_die(path, &analysis.to_json());
        println!("report:           {path}");
    }
    if let Some(path) = args.get("metrics") {
        metrics.incr("analyze.actions", analysis.actions);
        metrics.incr("analyze.nodes", analysis.nodes as u64);
        metrics.incr("analyze.edges", analysis.edges as u64);
        metrics.incr("analyze.flows", analysis.flows as u64);
        metrics.set_value("analyze.lower_s", analysis.lower_bound);
        metrics.set_value("analyze.upper_s", analysis.upper_bound);
        write_atomic_or_die(path, &metrics.to_json());
        println!("metrics:          {path}");
    }
}
