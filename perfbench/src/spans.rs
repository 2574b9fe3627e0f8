//! In-memory span recorder and the timing wrappers the traced run
//! installs around the replay's public extension points.
//!
//! Spans are kept in a `Vec` and serialized once, at the end of the
//! run. A span's self time is its duration minus the durations of its
//! direct children. Per-call wrappers (action decode, handler
//! expansion, observer callbacks) are far too frequent to record one
//! span per call; they accumulate into an [`Acc`] that becomes one
//! aggregated child span carrying its call count.

use simkern::observer::{Observer, OpRecord};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tit_core::Action;
use tit_replay::handlers::ExpandCtx;
use tit_replay::process::ActionSource;
use tit_replay::{ExpandError, MicroOp, Registry};

/// One recorded interval.
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    dur_s: f64,
    calls: u64,
}

/// The run's span list, relative to one time origin.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a new span named `name` under `parent`; `f`
    /// receives the recorder and the new span's id so it can nest.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Recorder, usize) -> T,
    ) -> T {
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_s: start.duration_since(self.t0).as_secs_f64(),
            dur_s: 0.0,
            calls: 1,
        });
        let out = f(self, id);
        self.spans[id].dur_s = start.elapsed().as_secs_f64();
        out
    }

    /// Adds the accumulated per-call time of `acc` as one child span.
    pub fn aggregate(&mut self, name: &str, parent: usize, acc: &Acc) {
        let start_s = self.spans[parent].start_s;
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start_s,
            dur_s: acc.secs(),
            calls: acc.calls(),
        });
    }

    fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_s)
            .sum();
        self.spans[id].dur_s - children
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{:?},\"dur_s\":{:?},\"self_s\":{:?},\"calls\":{}}}",
                    s.name,
                    s.start_s,
                    s.dur_s,
                    self.self_s(id),
                    s.calls
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

/// Accumulated time and call count of one wrapped extension point.
/// The replay engine is single-threaded; the atomics only satisfy the
/// `Send`/`Sync` bounds of the wrapped traits, so `Relaxed` suffices
/// (the values publish no other data).
#[derive(Default)]
pub struct Acc {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Acc {
    fn add(&self, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn secs(&self) -> f64 {
        Duration::from_nanos(self.ns.load(Ordering::Relaxed)).as_secs_f64()
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Times every `next_action` call of the wrapped source.
pub struct TimedSource {
    inner: Box<dyn ActionSource>,
    acc: Arc<Acc>,
}

impl TimedSource {
    pub fn wrap(inner: Box<dyn ActionSource>, acc: &Arc<Acc>) -> Box<dyn ActionSource> {
        Box::new(TimedSource {
            inner,
            acc: Arc::clone(acc),
        })
    }
}

impl ActionSource for TimedSource {
    fn next_action(&mut self) -> std::io::Result<Option<Action>> {
        let t = Instant::now();
        let out = self.inner.next_action();
        self.acc.add(t);
        out
    }
}

/// Every keyword `Registry::with_defaults` binds (the paper's Table 1).
const KEYWORDS: [&str; 11] = [
    "compute",
    "send",
    "Isend",
    "recv",
    "Irecv",
    "bcast",
    "reduce",
    "allReduce",
    "barrier",
    "comm_size",
    "wait",
];

/// A registry whose every handler delegates to the default one under
/// a timer. A keyword missing here fails the replay with a typed
/// expansion error, so the list cannot silently fall behind.
pub fn timed_registry(acc: &Arc<Acc>) -> Registry {
    let inner = Arc::new(Registry::with_defaults());
    let mut reg = Registry::empty();
    for kw in KEYWORDS {
        let inner = Arc::clone(&inner);
        let acc = Arc::clone(acc);
        reg.register(
            kw,
            move |ctx: &ExpandCtx, a: &Action, out: &mut Vec<MicroOp>| -> Result<(), ExpandError> {
                let t = Instant::now();
                let r = inner.expand(ctx, a, out);
                acc.add(t);
                r
            },
        );
    }
    reg
}

/// Times every callback into the wrapped observer.
pub struct TimedObserver {
    inner: Box<dyn Observer>,
    acc: Arc<Acc>,
}

impl TimedObserver {
    pub fn wrap(inner: Box<dyn Observer>, acc: &Arc<Acc>) -> Box<dyn Observer> {
        Box::new(TimedObserver {
            inner,
            acc: Arc::clone(acc),
        })
    }
}

impl Observer for TimedObserver {
    fn record(&mut self, rec: OpRecord) {
        let t = Instant::now();
        self.inner.record(rec);
        self.acc.add(t);
    }

    fn actor_started(&mut self, actor: usize, time: f64) {
        let t = Instant::now();
        self.inner.actor_started(actor, time);
        self.acc.add(t);
    }

    fn actor_ended(&mut self, actor: usize, time: f64) {
        let t = Instant::now();
        self.inner.actor_ended(actor, time);
        self.acc.add(t);
    }

    fn op_started(&mut self, actor: usize, tag: u32, time: f64) {
        let t = Instant::now();
        self.inner.op_started(actor, tag, time);
        self.acc.add(t);
    }

    fn engine_ended(&mut self, time: f64) {
        let t = Instant::now();
        self.inner.engine_ended(time);
        self.acc.add(t);
    }
}
