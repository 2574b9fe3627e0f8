//! The `tit-serve` side of the benchmark: reference replays of every
//! (trace, variant) pair a run will request, and the load generator.
//!
//! Client contract: every request line goes out in one `write_all` on
//! a socket with `TCP_NODELAY` set, so no request ever waits on the
//! server's delayed ACK because of how the client wrote it.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};
use tit_serve::{parse_request, Request};

/// How long a connection waits for a response before giving up on the
/// rest; a request still unanswered then is reported missing.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Closed loop: requests kept in flight on the connection.
const CLOSED_DEPTH: usize = 4;

/// Reads `key<TAB>request-json` lines and replays each request in
/// process with the library's file replay on the request's platform.
/// Returns `key<TAB>simulated_time<TAB>actions` lines.
pub fn refs(input: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(input)
        .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
    let mut out = String::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let (key, json) = line
            .split_once('\t')
            .ok_or_else(|| format!("bad line {line:?}"))?;
        let req = match parse_request(json)? {
            Request::Replay(r) => r,
            other => return Err(format!("not a replay request: {other:?}")),
        };
        let (platform, hosts) = tit_serve::exec::build_platform(&req);
        let o = tit_replay::replay_files(
            &req.trace_dir,
            req.np,
            platform,
            &hosts,
            &req.replay_config(),
        )
        .map_err(|e| format!("{key}: reference replay failed: {e}"))?;
        let _ = writeln!(out, "{key}\t{:?}\t{}", o.simulated_time, o.actions_replayed);
    }
    Ok(out)
}

/// One request to send: its id, its scheduled offset from the start of
/// the phase (open loop), and the line itself, newline included.
struct Planned {
    id: String,
    offset_s: f64,
    line: Vec<u8>,
}

fn read_plan(path: &Path) -> Result<Vec<Planned>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut it = l.splitn(3, '\t');
            let (Some(id), Some(off), Some(json)) = (it.next(), it.next(), it.next()) else {
                return Err(format!("bad plan line {l:?}"));
            };
            let offset_s = off.parse().map_err(|_| format!("bad offset in {l:?}"))?;
            Ok(Planned {
                id: id.to_string(),
                offset_s,
                line: format!("{json}\n").into_bytes(),
            })
        })
        .collect()
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    s.set_nodelay(true)
        .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
    let r = s
        .try_clone()
        .map_err(|e| format!("cannot clone socket: {e}"))?;
    r.set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("cannot set timeout: {e}"))?;
    Ok((s, BufReader::new(r)))
}

/// Reads up to `n` response lines, stamping each with its arrival time.
fn read_responses(r: &mut BufReader<TcpStream>, n: usize, t0: Instant) -> Vec<(f64, String)> {
    let mut got = Vec::with_capacity(n);
    let mut line = String::new();
    while got.len() < n {
        line.clear();
        match r.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => got.push((t0.elapsed().as_secs_f64(), line.trim_end().to_string())),
        }
    }
    got
}

/// What one load phase saw, with times in seconds from the phase start.
#[derive(Default)]
struct PhaseLog {
    /// (id, scheduled, sent) per request written.
    sends: Vec<(String, f64, f64)>,
    /// (id, reason) per request that could not be written.
    unsent: Vec<(String, String)>,
    /// One entry per connection that could not be opened.
    refused: Vec<String>,
    /// (received, response line) per response.
    recvs: Vec<(f64, String)>,
}

impl PhaseLog {
    /// `S<TAB>id<TAB>scheduled<TAB>sent` per request written,
    /// `U<TAB>id<TAB>reason` per request not written,
    /// `E<TAB>reason` per connection refused and
    /// `R<TAB>received<TAB>response` per response.
    fn render(&self) -> String {
        let mut out = String::with_capacity(
            64 * (self.sends.len() + self.unsent.len()) + 220 * self.recvs.len(),
        );
        for (id, sched, sent) in &self.sends {
            let _ = writeln!(out, "S\t{id}\t{sched:?}\t{sent:?}");
        }
        for (id, why) in &self.unsent {
            let _ = writeln!(out, "U\t{id}\t{}", one_line(why));
        }
        for why in &self.refused {
            let _ = writeln!(out, "E\t{}", one_line(why));
        }
        for (t, line) in &self.recvs {
            let _ = writeln!(out, "R\t{t:?}\t{line}");
        }
        out
    }
}

fn one_line(s: &str) -> String {
    s.replace(['\t', '\n'], " ")
}

/// Open loop: one connection, this thread sends every request at its
/// scheduled offset whatever the server does, a second thread reads.
/// Latency is later taken from the scheduled time, so a stall also
/// charges the requests it delayed. A request that cannot be written,
/// and every one after it, is reported unsent; a refused connection
/// leaves the whole plan unsent.
pub fn open_loop(addr: &str, plan: &Path) -> Result<String, String> {
    let plan = read_plan(plan)?;
    let (mut w, mut r) = match connect(addr) {
        Ok(link) => link,
        Err(e) => {
            let unsent = plan.into_iter().map(|p| (p.id, e.clone())).collect();
            return Ok(PhaseLog {
                unsent,
                ..PhaseLog::default()
            }
            .render());
        }
    };
    let t0 = Instant::now();
    let n = plan.len();
    let log = std::thread::scope(|s| {
        let reader = s.spawn(|| read_responses(&mut r, n, t0));
        let mut log = PhaseLog::default();
        let mut broken: Option<String> = None;
        for p in &plan {
            if let Some(e) = &broken {
                log.unsent.push((p.id.clone(), e.clone()));
                continue;
            }
            let due = Duration::from_secs_f64(p.offset_s);
            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            let sent = t0.elapsed().as_secs_f64();
            match w.write_all(&p.line) {
                Ok(()) => log.sends.push((p.id.clone(), p.offset_s, sent)),
                Err(e) => {
                    let e = format!("write failed: {e}");
                    log.unsent.push((p.id.clone(), e.clone()));
                    broken = Some(e);
                }
            }
        }
        if broken.is_some() {
            // Nothing more will be answered on this connection once a
            // write failed; unblock the reader instead of waiting for
            // its timeout.
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
        log.recvs = reader.join().expect("the reader thread does not panic");
        log
    });
    Ok(log.render())
}

/// Closed loop: one connection, keeping `CLOSED_DEPTH` requests in
/// flight until `seconds` have passed, then collecting what is still
/// outstanding. On a two-thread machine, one client thread leaves the
/// daemon's two workers the hardware threads instead of contending with
/// them; four in flight keep both workers busy. A connection that cannot be
/// reported refused; a request that cannot be written is reported
/// unsent and ends the phase.
pub fn closed_loop(addr: &str, plan: &Path, seconds: f64) -> Result<String, String> {
    let plan = read_plan(plan)?;
    let mut log = PhaseLog::default();
    let (mut w, mut r) = match connect(addr) {
        Ok(link) => link,
        Err(e) => {
            log.refused.push(e);
            return Ok(log.render());
        }
    };
    let t0 = Instant::now();
    let stop = Duration::from_secs_f64(seconds);
    let mut next = plan.iter();
    let mut send = |w: &mut TcpStream, log: &mut PhaseLog| {
        let Some(p) = next.next() else { return false };
        let t = t0.elapsed().as_secs_f64();
        if let Err(e) = w.write_all(&p.line) {
            log.unsent
                .push((p.id.clone(), format!("write failed: {e}")));
            return false;
        }
        log.sends.push((p.id.clone(), t, t));
        true
    };
    let mut in_flight = 0usize;
    for _ in 0..CLOSED_DEPTH {
        if !send(&mut w, &mut log) {
            break;
        }
        in_flight += 1;
    }
    while in_flight > 0 {
        let got = read_responses(&mut r, 1, t0);
        if got.is_empty() {
            break;
        }
        log.recvs.extend(got);
        in_flight -= 1;
        if t0.elapsed() < stop && send(&mut w, &mut log) {
            in_flight += 1;
        }
    }
    Ok(log.render())
}
