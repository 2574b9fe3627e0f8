//! The traced batch run: the same work as the CLI pipeline
//! (`tit-extract --tib2` → `tit-lint` → `tit-analyze` → `tit-replay
//! --store`), assembled in process from the library crates' public
//! functions, with a span around every call into a layer and timing
//! wrappers on the replay's action sources, handlers and observers.

use crate::spans::{timed_registry, Acc, Recorder, TimedObserver, TimedSource};
use simkern::observer::{Fanout, Observer};
use simkern::{Engine, KernelMode, NetworkConfig};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tit_core::{AtomicFile, MemBudget, Tib2Store};
use tit_platform::deployment::Deployment;
use tit_platform::desc::PlatformDesc;
use tit_platform::presets;
use tit_replay::collectives::CollectiveAlgo;
use tit_replay::process::ReplayActor;
use tit_replay::{store_sources, tags, SegmentCache};
use titobs::{Metrics, Profile, TimeResolved, Timeline, TimelineFormat, WindowSpec};

/// What to run: the full pipeline from TAU traces (`tau` set) or
/// replays of existing stores.
pub struct BatchPlan {
    /// TAU trace directory; runs extract, TIB2 write, lint and analyze
    /// first, then replays the store it wrote.
    pub tau: Option<(PathBuf, usize)>,
    /// Stores to replay when `tau` is unset.
    pub stores: Vec<PathBuf>,
    /// Scratch directory for every file the run writes.
    pub work: PathBuf,
    /// `--mem-budget` of the replay, bytes.
    pub mem_budget: u64,
    /// Write the `--profile`, `--time-resolved` and `--timed-trace`
    /// outputs, as the CLI run of the pipeline workload does.
    pub outputs: bool,
}

/// One store's replay result.
struct ReplayResult {
    store: PathBuf,
    simulated_time: f64,
    actions: u64,
}

/// Exact kernel counters summed over the run's replays. The kprof wall
/// phases are left out on purpose: they charge solver work to the
/// event and completion phases (see the benchmark's README).
#[derive(Default)]
struct Counters {
    solves: u64,
    islands: u64,
    constraints_touched: u64,
    vars_touched: u64,
    heap_pushes: u64,
    lazy_rekeys: u64,
    segment_faults: u64,
    segment_evictions: u64,
    tib2_bytes: u64,
}

/// Streamed replay outputs, mirroring `tit-replay`'s observer set.
struct Outputs {
    timed: Option<(Timeline<BufWriter<AtomicFile>>, PathBuf)>,
    profile: Option<Profile>,
    timeres: Option<TimeResolved<BufWriter<AtomicFile>>>,
    metrics: Metrics,
}

fn open_atomic(path: &Path) -> Result<BufWriter<AtomicFile>, String> {
    AtomicFile::create(path)
        .map(|f| BufWriter::with_capacity(1 << 16, f))
        .map_err(|e| format!("cannot create {}: {e}", path.display()))
}

fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    tit_core::write_atomic(path, contents.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

impl Outputs {
    fn new(np: usize, with_files: bool, work: &Path) -> Result<(Outputs, Fanout), String> {
        let mut fan = Fanout::new();
        let mut out = Outputs {
            timed: None,
            profile: None,
            timeres: None,
            metrics: Metrics::new(),
        };
        if with_files {
            let path = work.join("timed.csv");
            let tl = Timeline::new(open_atomic(&path)?, np, TimelineFormat::Csv, tags::name)
                .map_err(|e| format!("cannot start timed trace: {e}"))?;
            fan = fan.with(tl.sink());
            out.timed = Some((tl, path));
            let p = Profile::new(np, tags::name, tags::is_comm);
            fan = fan.with(p.sink());
            out.profile = Some(p);
            let spec = WindowSpec {
                width: None,
                phases: true,
            };
            let tr = TimeResolved::new(None, np, spec, tags::is_comm, tags::is_collective)
                .map_err(|e| format!("cannot start time-resolved metrics: {e}"))?;
            fan = fan.with(tr.sink());
            out.timeres = Some(tr);
        }
        fan = fan.with(out.metrics.observer("replay"));
        Ok((out, fan))
    }

    /// Finishes every stream and publishes every file, as `tit-replay`
    /// does after the engine (and with it every sink) is dropped.
    fn commit(self, work: &Path, sim: f64, actions: u64) -> Result<(), String> {
        if let Some((tl, path)) = self.timed {
            tl.finish()
                .map_err(|e| format!("cannot write timed trace: {e}"))?;
            let w = tl.into_writer().ok_or("timed trace writer still shared")?;
            w.into_inner()
                .map_err(std::io::IntoInnerError::into_error)
                .and_then(AtomicFile::commit)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        if let Some(p) = &self.profile {
            write_atomic(&work.join("profile.json"), &p.snapshot().to_json())?;
        }
        if let Some(tr) = self.timeres {
            let report = tr
                .finish()
                .map_err(|e| format!("cannot finish time-resolved: {e}"))?;
            write_atomic(&work.join("timeres.json"), &report.to_json())?;
        }
        self.metrics.incr("replay.actions", actions);
        self.metrics.set_value("replay.simulated_time", sim);
        write_atomic(&work.join("metrics.json"), &self.metrics.to_json())
    }
}

/// Replays one store under spans rooted at `parent`.
fn replay_store(
    rec: &mut Recorder,
    parent: usize,
    path: &Path,
    plan: &BatchPlan,
    counters: &mut Counters,
) -> Result<ReplayResult, String> {
    let store = Arc::new(
        Tib2Store::open(path).map_err(|e| format!("cannot open store {}: {e}", path.display()))?,
    );
    let np = store.num_ranks();
    let cache = Arc::new(SegmentCache::new(
        Arc::clone(&store),
        Arc::new(MemBudget::new(plan.mem_budget)),
    ));
    // The CLI's defaults: a bordereau-like cluster of `np` single-core
    // nodes, round-robin deployment, the MPI network model, binomial
    // collectives and the incremental kernel.
    let desc = PlatformDesc::single(presets::bordereau_one_core(np));
    let platform = desc.build();
    let hosts = Deployment::round_robin(&desc.host_names(), np).host_ids(&platform);

    let decode = Arc::new(Acc::default());
    let expand = Arc::new(Acc::default());
    let observe = Arc::new(Acc::default());
    let (outputs, fan) = Outputs::new(np, plan.outputs, &plan.work)?;
    let mut engine = Engine::new(platform);
    engine.set_kernel_mode(KernelMode::Incremental);
    engine.set_network_config(NetworkConfig::mpi_cluster());
    engine.set_observer(TimedObserver::wrap(
        Box::new(fan) as Box<dyn Observer>,
        &observe,
    ));
    engine.enable_kernel_profiling();
    let registry = Arc::new(timed_registry(&expand));
    let counter = Arc::new(AtomicU64::new(0));
    for (rank, src) in store_sources(&cache).into_iter().enumerate() {
        let actor = ReplayActor::new(
            rank,
            TimedSource::wrap(src, &decode),
            Arc::clone(&registry),
            CollectiveAlgo::Binomial,
            Arc::clone(&counter),
        );
        engine.spawn(Box::new(actor), hosts[rank]);
    }
    let sim = rec.span("run_checked", Some(parent), |rec, id| {
        let r = engine.run_checked();
        rec.aggregate("decode", id, &decode);
        rec.aggregate("expand", id, &expand);
        rec.aggregate("observe", id, &observe);
        r
    });
    let sim = sim.map_err(|e| format!("replay of {} failed: {e}", path.display()))?;
    let kp = engine
        .take_kernel_profile()
        .ok_or("kernel profile missing")?;
    // Dropping the engine drops the observer sinks, leaving each output
    // stream the sole owner of its writer.
    drop(engine);
    let actions = counter.load(Ordering::Relaxed);
    rec.span("commit", Some(parent), |_, _| {
        outputs.commit(&plan.work, sim, actions)
    })?;

    counters.solves += kp.solver.solves;
    counters.islands += kp.solver.islands;
    counters.constraints_touched += kp.solver.constraints_touched;
    counters.vars_touched += kp.solver.vars_touched;
    counters.heap_pushes += kp.heap_pushes;
    counters.lazy_rekeys += kp.lazy_rekeys;
    counters.segment_faults += cache.fault_count();
    counters.segment_evictions += cache.eviction_count();
    Ok(ReplayResult {
        store: path.to_path_buf(),
        simulated_time: sim,
        actions,
    })
}

/// Extract, TIB2 write, lint and analyze under spans; returns the store
/// written and the analyzer's makespan bounds.
fn front_end(
    rec: &mut Recorder,
    root: usize,
    tau: &Path,
    np: usize,
    plan: &BatchPlan,
    counters: &mut Counters,
) -> Result<(PathBuf, f64, f64), String> {
    let ti = plan.work.join("ti");
    let store = plan.work.join("trace.tib2");
    // `tit-extract`'s default: one worker per CPU.
    let jobs = tit_core::ingest::effective_jobs(0);
    rec.span("extract", Some(root), |_, _| {
        tit_extract::tau2ti::tau2ti(tau, np, &ti, jobs)
    })
    .map_err(|e| format!("extraction failed: {e}"))?;
    let summary = rec
        .span("tib2_write", Some(root), |_, _| {
            tit_core::tib2::convert_dir_atomic(
                &ti,
                np,
                &store,
                tit_core::tib2::DEFAULT_SEG_ACTIONS,
                jobs,
            )
        })
        .map_err(|e| format!("tib2 conversion failed: {e}"))?;
    counters.tib2_bytes += summary.bytes;
    // `tit-lint` and `tit-analyze` run with their default `--jobs 1`.
    let lint_errors = rec.span("lint", Some(root), |_, _| {
        let report = titlint::lint_dir_jobs(&ti, np, &titlint::LintConfig::default(), 1);
        std::hint::black_box(report.render_text());
        report.has_errors()
    });
    if lint_errors {
        return Err("tit-lint found errors".into());
    }
    rec.span("analyze", Some(root), |_, _| {
        let trace = tit_core::load_exact(&ti, np, 1).map_err(|e| format!("cannot load: {e}"))?;
        let desc = PlatformDesc::single(presets::bordereau_one_core(np));
        let platform = desc.build();
        let hosts = Deployment::round_robin(&desc.host_names(), np).host_ids(&platform);
        let cfg = titanalyze::AnalyzeConfig {
            network: NetworkConfig::mpi_cluster(),
            algo: CollectiveAlgo::Binomial,
            jobs: 1,
        };
        let a = titanalyze::analyze(&trace, &platform, &hosts, &cfg)
            .map_err(|e| format!("analysis failed: {e}"))?;
        std::hint::black_box(a.render_text());
        write_atomic(&plan.work.join("analysis.json"), &a.to_json())?;
        Ok((store, a.lower_bound, a.upper_bound))
    })
}

/// Runs `plan` and returns the result document (spans, replays,
/// counters) as JSON.
pub fn run(plan: &BatchPlan) -> Result<String, String> {
    std::fs::create_dir_all(&plan.work)
        .map_err(|e| format!("cannot create {}: {e}", plan.work.display()))?;
    let mut rec = Recorder::new();
    let mut counters = Counters::default();
    let (replays, bounds) = rec.span("pipeline", None, |rec, root| {
        let (stores, bounds) = match &plan.tau {
            Some((tau, np)) => {
                let (store, lo, hi) = front_end(rec, root, tau, *np, plan, &mut counters)?;
                (vec![store], Some((lo, hi)))
            }
            None => (plan.stores.clone(), None),
        };
        let mut replays = Vec::with_capacity(stores.len());
        for store in &stores {
            let r = rec.span("replay", Some(root), |rec, id| {
                replay_store(rec, id, store, plan, &mut counters)
            })?;
            replays.push(r);
        }
        Ok::<_, String>((replays, bounds))
    })?;

    let replays: Vec<String> = replays
        .iter()
        .map(|r| {
            format!(
                "{{\"store\":\"{}\",\"simulated_time\":{:?},\"actions\":{}}}",
                r.store.display(),
                r.simulated_time,
                r.actions
            )
        })
        .collect();
    let bounds = bounds.map_or_else(
        || "null".to_string(),
        |(lo, hi)| format!("{{\"lower_s\":{lo:?},\"upper_s\":{hi:?}}}"),
    );
    let c = &counters;
    Ok(format!(
        "{{\"spans\":{},\n\"replays\":[{}],\n\"bounds\":{bounds},\n\"counters\":{{\"solves\":{},\"islands\":{},\"constraints_touched\":{},\"vars_touched\":{},\"heap_pushes\":{},\"lazy_rekeys\":{},\"segment_faults\":{},\"segment_evictions\":{},\"tib2_bytes\":{}}}}}\n",
        rec.to_json(),
        replays.join(","),
        c.solves,
        c.islands,
        c.constraints_touched,
        c.vars_touched,
        c.heap_pushes,
        c.lazy_rekeys,
        c.segment_faults,
        c.segment_evictions,
        c.tib2_bytes,
    ))
}
