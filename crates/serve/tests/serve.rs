//! End-to-end daemon tests over real TCP sockets: protocol behavior,
//! load-shedding, deadline partials, preemption identity, drain.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;
use tit_core::{Action, ProcessTraceWriter};
use tit_serve::{Server, ServerConfig};

/// A deadlock-free ring pipeline trace (rank 0 injects, others relay).
fn write_ring(dir: &Path, n: usize, iters: usize) {
    for r in 0..n {
        let mut w = ProcessTraceWriter::create(dir, r).unwrap();
        for _ in 0..iters {
            if r == 0 {
                w.write(&Action::Compute { flops: 1e6 }).unwrap();
                w.write(&Action::Send { dst: 1, bytes: 1e6 }).unwrap();
                w.write(&Action::Recv { src: n - 1, bytes: None }).unwrap();
            } else {
                w.write(&Action::Irecv { src: r - 1, bytes: None }).unwrap();
                w.write(&Action::Compute { flops: 5e5 }).unwrap();
                w.write(&Action::Wait).unwrap();
                w.write(&Action::Send { dst: (r + 1) % n, bytes: 1e6 }).unwrap();
            }
        }
        w.finish().unwrap();
    }
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tit-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

struct Client {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Client {
    fn connect(port: u16) -> Client {
        let s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        Client { r: BufReader::new(s.try_clone().unwrap()), w: s }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.w, "{line}").unwrap();
        self.w.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut out = String::new();
        self.r.read_line(&mut out).unwrap();
        assert!(out.ends_with('\n'), "connection closed early: {out:?}");
        out.trim_end().to_owned()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn field<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    // Good enough for flat test payloads: find "key":VALUE.
    let pat = format!("\"{key}\":");
    let start = resp.find(&pat)? + pat.len();
    let rest = &resp[start..];
    let end = rest
        .char_indices()
        .scan(false, |in_str, (i, c)| {
            if c == '"' {
                *in_str = !*in_str;
            }
            if !*in_str && (c == ',' || c == '}') {
                Some(Some(i))
            } else {
                Some(None)
            }
        })
        .flatten()
        .next()?;
    Some(rest[..end].trim_matches('"'))
}

#[test]
fn ping_stats_malformed_oversized_on_one_connection() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.port());

    let pong = c.roundtrip(r#"{"op":"ping"}"#);
    assert_eq!(pong, r#"{"status":"ok","op":"ping"}"#);

    let stats = c.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "status"), Some("ok"));
    assert_eq!(field(&stats, "queue_depth"), Some("0"));
    assert_eq!(field(&stats, "draining"), Some("false"));

    let bad = c.roundtrip("this is not json");
    assert_eq!(field(&bad, "status"), Some("error"));
    assert_eq!(field(&bad, "code"), Some("bad_request"));

    let unknown = c.roundtrip(r#"{"op":"explode"}"#);
    assert_eq!(field(&unknown, "code"), Some("bad_request"));

    let oversized = c.roundtrip(&format!("{{\"pad\":\"{}\"}}", "x".repeat(2 << 20)));
    assert_eq!(field(&oversized, "code"), Some("oversized"));

    // The connection survives all of the above.
    let pong = c.roundtrip(r#"{"op":"ping"}"#);
    assert_eq!(field(&pong, "status"), Some("ok"));

    server.drain();
    server.wait().unwrap();
}

#[test]
fn burst_beyond_capacity_sheds_with_typed_responses() {
    let d = scratch("shed");
    write_ring(&d, 3, 4);
    let cfg = ServerConfig {
        workers: 1,
        queue_cap: 2,
        job_delay: Duration::from_millis(120),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg).unwrap();

    // 8 pipelined requests = 4x queue capacity on a slow single
    // worker: the first fills the worker + queue, the rest shed.
    let mut c = Client::connect(server.port());
    let dir = d.display().to_string();
    for i in 0..8 {
        c.send(&format!(
            "{{\"op\":\"replay\",\"id\":\"r{i}\",\"trace_dir\":{dir:?},\"np\":3}}"
        ));
    }
    let mut ok = 0;
    let mut shed = 0;
    let mut by_id: BTreeMap<String, String> = BTreeMap::new();
    for _ in 0..8 {
        let resp = c.recv();
        let id = field(&resp, "id").unwrap().to_owned();
        match field(&resp, "status").unwrap() {
            "ok" => ok += 1,
            "overloaded" => {
                assert_eq!(field(&resp, "code"), Some("queue_full"), "{resp}");
                assert_eq!(field(&resp, "queue_capacity"), Some("2"), "{resp}");
                shed += 1;
            }
            other => panic!("unexpected status {other}: {resp}"),
        }
        by_id.insert(id, resp);
    }
    assert_eq!(ok + shed, 8);
    assert!(shed >= 5, "a 4x burst on a 120ms worker must shed most requests: {shed}");
    assert!(ok >= 1, "admitted requests must still be served");

    // Every admitted request returned the same (deterministic) payload
    // apart from the id echo.
    let normalized: Vec<String> = by_id
        .values()
        .filter(|r| r.contains("\"status\":\"ok\""))
        .map(|r| {
            let id = field(r, "id").unwrap();
            r.replace(&format!("\"id\":\"{id}\""), "\"id\":\"X\"")
        })
        .collect();
    for w in normalized.windows(2) {
        assert_eq!(w[0], w[1]);
    }

    let shed_before = server.shared().metrics.counter("serve.shed");
    assert_eq!(shed_before, shed);
    server.drain();
    server.wait().unwrap();
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn deadline_and_degraded_requests_return_quantified_partials() {
    let d = scratch("partial");
    write_ring(&d, 3, 80);
    let server = Server::start(ServerConfig {
        slice_actions: 16,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.port());
    let dir = d.display().to_string();

    let resp = c.roundtrip(&format!(
        "{{\"op\":\"replay\",\"id\":\"dl\",\"trace_dir\":{dir:?},\"np\":3,\"max_wall_s\":0}}"
    ));
    assert_eq!(field(&resp, "status"), Some("partial"), "{resp}");
    assert_eq!(field(&resp, "code"), Some("deadline"), "{resp}");
    let completeness: f64 = field(&resp, "completeness").unwrap().parse().unwrap();
    assert!(completeness < 1.0, "{resp}");

    let resp = c.roundtrip(&format!(
        "{{\"op\":\"replay\",\"id\":\"dg\",\"trace_dir\":{dir:?},\"np\":3,\"drop_ranks\":[2]}}"
    ));
    assert_eq!(field(&resp, "status"), Some("partial"), "{resp}");
    assert_eq!(field(&resp, "code"), Some("damaged"), "{resp}");
    assert!(field(&resp, "detail").is_some(), "{resp}");

    server.drain();
    server.wait().unwrap();
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn drain_finishes_backlog_flushes_metrics_and_exits() {
    let d = scratch("drain");
    write_ring(&d, 3, 4);
    let metrics_path = d.join("serve_metrics.json");
    let cfg = ServerConfig {
        workers: 1,
        queue_cap: 8,
        job_delay: Duration::from_millis(30),
        metrics_path: Some(metrics_path.clone()),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let mut c = Client::connect(server.port());
    let dir = d.display().to_string();
    for i in 0..3 {
        c.send(&format!(
            "{{\"op\":\"replay\",\"id\":\"q{i}\",\"trace_dir\":{dir:?},\"np\":3}}"
        ));
    }
    let drain = c.roundtrip(r#"{"op":"drain"}"#);
    assert_eq!(field(&drain, "status"), Some("draining"));

    // In-flight work still completes after the drain request.
    let mut ok = 0;
    for _ in 0..3 {
        let resp = c.recv();
        assert_eq!(field(&resp, "status"), Some("ok"), "{resp}");
        ok += 1;
    }
    assert_eq!(ok, 3);
    server.wait().unwrap();

    let text = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(text.contains("\"serve.admitted\":3"), "{text}");
    assert!(text.contains("\"serve.ok\":3"), "{text}");
    assert!(text.contains("serve.queue_depth"), "{text}");
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn store_requests_match_trace_dir_and_fail_closed_when_damaged() {
    let d = scratch("store");
    write_ring(&d, 3, 6);
    // The same trace, interned as a segmented store.
    let store = d.join("ring.tib2");
    let trace = tit_core::load_compact_exact(&d, 3, 1).unwrap();
    tit_core::tib2::write_compact_atomic(&store, &trace, 8).unwrap();

    let server = Server::start(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.port());
    let dir = d.display().to_string();
    let sp = store.display().to_string();

    let via_dir = c.roundtrip(&format!(
        "{{\"op\":\"replay\",\"id\":\"x\",\"trace_dir\":{dir:?},\"np\":3}}"
    ));
    let via_store =
        c.roundtrip(&format!("{{\"op\":\"replay\",\"id\":\"x\",\"store\":{sp:?},\"np\":3}}"));
    assert_eq!(field(&via_store, "status"), Some("ok"), "{via_store}");
    assert_eq!(via_dir, via_store, "store replay must be payload-identical to trace_dir");

    // A second request is a (revalidated) handle-cache hit.
    let again =
        c.roundtrip(&format!("{{\"op\":\"replay\",\"id\":\"x\",\"store\":{sp:?},\"np\":3}}"));
    assert_eq!(again, via_store);
    assert!(server.shared().metrics.counter("serve.cache_hits") >= 1);

    // An np mismatch is a typed load error, not a crash.
    let bad_np =
        c.roundtrip(&format!("{{\"op\":\"replay\",\"id\":\"n\",\"store\":{sp:?},\"np\":4}}"));
    assert_eq!(field(&bad_np, "status"), Some("error"), "{bad_np}");
    assert_eq!(field(&bad_np, "code"), Some("trace_load"), "{bad_np}");

    // Flip a payload byte: the damaged segment must fail the request
    // closed (typed error), never return a silently wrong time.
    let mut bytes = std::fs::read(&store).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&store, &bytes).unwrap();
    let damaged =
        c.roundtrip(&format!("{{\"op\":\"replay\",\"id\":\"d\",\"store\":{sp:?},\"np\":3}}"));
    assert_eq!(field(&damaged, "status"), Some("error"), "{damaged}");
    assert_eq!(field(&damaged, "code"), Some("replay_failed"), "{damaged}");
    // The typed store error, not a stringly actor failure: the detail
    // names the damaged segment.
    let detail = field(&damaged, "detail").unwrap_or_default();
    assert!(detail.starts_with("TIB2 segment damaged: rank "), "{damaged}");

    server.drain();
    server.wait().unwrap();
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn replay_after_drain_is_refused_as_draining() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.port());
    let resp = c.roundtrip(r#"{"op":"drain"}"#);
    assert_eq!(field(&resp, "status"), Some("draining"));
    let resp = c.roundtrip(r#"{"op":"replay","id":"late","trace_dir":"/t","np":2}"#);
    assert_eq!(field(&resp, "status"), Some("draining"), "{resp}");
    assert_eq!(field(&resp, "id"), Some("late"), "{resp}");
    server.wait().unwrap();
}

/// Serial oracle: one request at a time on a plain server.
fn run_serial(port: u16, lines: &[String]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut c = Client::connect(port);
    for line in lines {
        let resp = c.roundtrip(line);
        out.insert(field(&resp, "id").unwrap().to_owned(), resp);
    }
    out
}

/// Concurrent run: one thread + connection per request.
fn run_concurrent(port: u16, lines: &[String]) -> BTreeMap<String, String> {
    let handles: Vec<_> = lines
        .iter()
        .cloned()
        .map(|line| {
            std::thread::spawn(move || {
                let mut c = Client::connect(port);
                let resp = c.roundtrip(&line);
                (field(&resp, "id").unwrap().to_owned(), resp)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

proptest! {
    /// The core identity guarantee: any mix of admitted requests
    /// (varying platform, network, collectives, remap, degraded
    /// subsets) returns byte-identical payloads whether served one at
    /// a time or concurrently across a contended worker pool with
    /// forced preempt/resume hops at tiny slice granularity.
    #[test]
    fn concurrent_responses_are_byte_identical_to_serial(
        iters in 2usize..5,
        np in 3usize..5,
        seed in 0u64..1_000_000,
    ) {
        let d = scratch(&format!("ident-{iters}-{np}-{seed}"));
        write_ring(&d, np, iters);
        let dir = d.display().to_string();

        // A deterministic little request mix derived from the seed.
        let mut lines = Vec::new();
        for i in 0..6u64 {
            let x = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            let network = ["mpi", "flow", "constant"][(x % 3) as usize];
            let coll = ["binomial", "flat"][((x >> 2) % 2) as usize];
            let mut extra = String::new();
            if x % 5 == 0 {
                // Degraded subset: drop the last rank.
                extra = format!(",\"drop_ranks\":[{}]", np - 1);
            } else if x % 5 == 1 {
                // Rank remap: reverse placement.
                let map: Vec<String> =
                    (0..np).rev().map(|h| h.to_string()).collect();
                extra = format!(",\"remap\":[{}]", map.join(","));
            }
            lines.push(format!(
                "{{\"op\":\"replay\",\"id\":\"req{i}\",\"trace_dir\":{dir:?},\"np\":{np},\
                 \"network\":\"{network}\",\"collectives\":\"{coll}\"{extra}}}"
            ));
        }

        let plain = Server::start(ServerConfig::default()).unwrap();
        let serial = run_serial(plain.port(), &lines);
        plain.drain();
        plain.wait().unwrap();

        let contended = Server::start(ServerConfig {
            workers: 4,
            slice_actions: 7,
            force_preempt: true,
            max_preemptions: 3,
            ..ServerConfig::default()
        })
        .unwrap();
        let concurrent = run_concurrent(contended.port(), &lines);
        let preemptions = contended.shared().metrics.counter("serve.preemptions");
        contended.drain();
        contended.wait().unwrap();

        prop_assert_eq!(serial.len(), concurrent.len());
        for (id, resp) in &serial {
            prop_assert_eq!(Some(resp), concurrent.get(id));
        }
        prop_assert!(preemptions > 0, "forced preemption must actually fire");
        let _ = std::fs::remove_dir_all(&d);
    }
}
