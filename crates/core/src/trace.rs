//! Trace containers and file IO.
//!
//! The paper stores one trace file per process
//! (`SG_process<N>.trace`, Figure 2) or, for small runs, a single merged
//! file (Figure 1). Both layouts are supported, in-memory and streaming.
//! Streaming matters: Section 6.5 acquires a 32.5 GiB trace, far beyond
//! what should be resident during replay.

use crate::action::{Action, Pid};
use crate::codec::{format_action_into, parse_line, ParseError};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Conventional per-process trace file name (`SG_process<N>.trace`).
pub fn process_trace_filename(rank: Pid) -> String {
    format!("SG_process{rank}.trace")
}

/// An in-memory time-independent trace: one action list per process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TiTrace {
    /// `actions[rank]` is the ordered action list of process `rank`.
    pub actions: Vec<Vec<Action>>,
}

impl TiTrace {
    /// An empty trace for `nproc` processes.
    pub fn new(nproc: usize) -> Self {
        TiTrace { actions: vec![Vec::new(); nproc] }
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.actions.len()
    }

    /// Total number of actions across all processes.
    pub fn num_actions(&self) -> usize {
        self.actions.iter().map(Vec::len).sum()
    }

    /// Appends an action to `rank`'s list, growing the process set if
    /// needed.
    pub fn push(&mut self, rank: Pid, action: Action) {
        if rank >= self.actions.len() {
            self.actions.resize(rank + 1, Vec::new());
        }
        self.actions[rank].push(action);
    }

    /// Parses a merged trace (one file, lines of all processes).
    ///
    /// A line whose pid would grow the process set past the number of
    /// input bytes read so far (including that line) is rejected with a
    /// [`ParseError`] naming the line, so allocation stays `O(input)`
    /// whatever pid a damaged line claims.
    pub fn from_reader<R: BufRead>(r: R) -> Result<Self, ParseError> {
        let mut lines = RankReader::new(r, 0);
        let mut t = TiTrace::default();
        while let Some((line, item)) = lines.next_line() {
            let (pid, a) = item.map_err(|fault| fault.at(line))?;
            if pid >= lines.bytes {
                return Err(ParseError {
                    line,
                    message: format!(
                        "process id p{pid} exceeds the {} input bytes read so far",
                        lines.bytes
                    ),
                });
            }
            t.push(pid, a);
        }
        Ok(t)
    }

    /// Parses a merged trace from a string.
    pub fn from_str_merged(s: &str) -> Result<Self, ParseError> {
        Self::from_reader(s.as_bytes())
    }

    /// Loads a merged trace file.
    pub fn load_merged(path: &Path) -> std::io::Result<Self> {
        let f = File::open(path)?;
        Self::from_reader(BufReader::with_capacity(1 << 20, f))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Writes the merged single-file layout.
    pub fn write_merged<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut buf = String::with_capacity(64);
        for (rank, actions) in self.actions.iter().enumerate() {
            for a in actions {
                buf.clear();
                format_action_into(&mut buf, rank, a);
                buf.push('\n');
                w.write_all(buf.as_bytes())?;
            }
        }
        Ok(())
    }

    /// Saves the merged layout to `path`.
    pub fn save_merged(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::with_capacity(1 << 20, File::create(path)?);
        self.write_merged(&mut w)?;
        w.flush()
    }

    /// Merges adjacent `compute` actions per process (summing volumes).
    ///
    /// Extraction from TAU traces cannot distinguish two back-to-back
    /// CPU bursts — the `PAPI_FP_OPS` counter is only sampled at MPI
    /// boundaries — so extracted traces are always in this coalesced
    /// form; replay timing is unaffected (durations add).
    pub fn coalesce_computes(&mut self) {
        for actions in &mut self.actions {
            let mut out: Vec<Action> = Vec::with_capacity(actions.len());
            for a in actions.drain(..) {
                match (out.last_mut(), a) {
                    (
                        Some(Action::Compute { flops: acc }),
                        Action::Compute { flops },
                    ) => *acc += flops,
                    (_, a) => out.push(a),
                }
            }
            *actions = out;
        }
    }

    /// Saves one `SG_process<N>.trace` per process under `dir`; returns
    /// the paths.
    pub fn save_per_process(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::with_capacity(self.actions.len());
        for (rank, actions) in self.actions.iter().enumerate() {
            let path = dir.join(process_trace_filename(rank));
            let mut w = BufWriter::with_capacity(1 << 20, File::create(&path)?);
            let mut buf = String::with_capacity(64);
            for a in actions {
                buf.clear();
                format_action_into(&mut buf, rank, a);
                buf.push('\n');
                w.write_all(buf.as_bytes())?;
            }
            w.flush()?;
            paths.push(path);
        }
        Ok(paths)
    }
}

/// Streaming writer for one process's trace file.
///
/// Used by the extraction stage so multi-GiB traces never live in memory.
pub struct ProcessTraceWriter {
    rank: Pid,
    w: BufWriter<File>,
    buf: String,
    actions_written: u64,
}

impl ProcessTraceWriter {
    /// Creates `dir/SG_process<rank>.trace`.
    pub fn create(dir: &Path, rank: Pid) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let f = File::create(dir.join(process_trace_filename(rank)))?;
        Ok(ProcessTraceWriter {
            rank,
            w: BufWriter::with_capacity(1 << 20, f),
            buf: String::with_capacity(64),
            actions_written: 0,
        })
    }

    /// Appends one action.
    pub fn write(&mut self, action: &Action) -> std::io::Result<()> {
        self.buf.clear();
        format_action_into(&mut self.buf, self.rank, action);
        self.buf.push('\n');
        self.actions_written += 1;
        self.w.write_all(self.buf.as_bytes())
    }

    /// Number of actions written so far.
    pub fn actions_written(&self) -> u64 {
        self.actions_written
    }

    /// Flushes and closes the file.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

/// What is wrong with one line of a per-rank trace file, as
/// [`RankReader`] reports it next to the line number.
#[derive(Debug)]
pub enum LineFault {
    /// Reading failed; the reader yields nothing after this.
    Unreadable(std::io::Error),
    /// The line's bytes are not UTF-8.
    NotUtf8,
    /// The line is not a well-formed action (the parse error's message).
    Parse(String),
    /// The line is well formed but names another process than the
    /// file's own.
    ForeignPid {
        /// The pid the line claims.
        pid: Pid,
        /// The rank whose file it is in.
        rank: Pid,
    },
}

impl LineFault {
    /// The fault as a [`ParseError`] at `line`; unreadable bytes read as
    /// `io error: …`.
    pub fn at(self, line: usize) -> ParseError {
        let message = match self {
            LineFault::Parse(message) => message,
            LineFault::ForeignPid { .. } => self.to_string(),
            io => format!("io error: {}", io.into_io(line)),
        };
        ParseError { line, message }
    }

    /// The error a line-by-line read of the file reports for the fault
    /// at `line`: the I/O failure itself, `InvalidData` with std's
    /// UTF-8 message, or `InvalidData` wrapping [`LineFault::at`].
    pub fn into_io(self, line: usize) -> std::io::Error {
        use std::io::{Error, ErrorKind};
        match self {
            LineFault::Unreadable(e) => e,
            LineFault::NotUtf8 => {
                Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
            }
            f => Error::new(ErrorKind::InvalidData, f.at(line)),
        }
    }
}

impl std::fmt::Display for LineFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineFault::Unreadable(e) => write!(f, "{e}"),
            LineFault::NotUtf8 => f.write_str("not valid UTF-8"),
            LineFault::Parse(message) => f.write_str(message),
            LineFault::ForeignPid { pid, rank } => write!(f, "belongs to p{pid}, not p{rank}"),
        }
    }
}

/// A 1-based line number with what that line holds.
type Numbered<T> = (usize, Result<T, LineFault>);

/// Streaming reader over one per-rank trace file
/// (`SG_process<rank>.trace`): the one place a line of such a file is
/// given meaning.
///
/// For each non-blank, non-comment line it yields the 1-based line
/// number with the action or a typed [`LineFault`]. It keeps going
/// after a fault (only an I/O failure ends the stream), reuses one line
/// buffer, and never indexes anything by the pid a line claims — so a
/// damaged file costs at most its own size, whatever it says.
pub struct RankReader<R = BufReader<File>> {
    r: R,
    rank: Pid,
    buf: Vec<u8>,
    line: usize,
    bytes: usize,
    done: bool,
}

impl RankReader {
    /// Opens `dir/SG_process<rank>.trace`.
    pub fn open(dir: &Path, rank: Pid) -> std::io::Result<Self> {
        let f = File::open(dir.join(process_trace_filename(rank)))?;
        Ok(RankReader::new(BufReader::with_capacity(1 << 20, f), rank))
    }
}

impl<R: BufRead> RankReader<R> {
    /// Reads `rank`'s trace from `r`.
    pub fn new(r: R, rank: Pid) -> Self {
        RankReader { r, rank, buf: Vec::with_capacity(64), line: 0, bytes: 0, done: false }
    }

    /// The next action line with whatever pid it claims.
    fn next_line(&mut self) -> Option<Numbered<(Pid, Action)>> {
        while !self.done {
            self.buf.clear();
            self.line += 1;
            let n = match self.r.read_until(b'\n', &mut self.buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) => {
                    self.done = true;
                    return Some((self.line, Err(LineFault::Unreadable(e))));
                }
            };
            self.bytes += n;
            let Ok(text) = std::str::from_utf8(&self.buf) else {
                return Some((self.line, Err(LineFault::NotUtf8)));
            };
            match parse_line(text, self.line) {
                Ok(None) => {} // comment or blank line: read on
                Ok(Some(pa)) => return Some((self.line, Ok(pa))),
                Err(e) => return Some((self.line, Err(LineFault::Parse(e.message)))),
            }
        }
        self.done = true;
        None
    }
}

impl<R: BufRead> Iterator for RankReader<R> {
    type Item = Numbered<Action>;

    fn next(&mut self) -> Option<Self::Item> {
        let (line, item) = self.next_line()?;
        Some((
            line,
            item.and_then(|(pid, a)| {
                if pid == self.rank {
                    Ok(a)
                } else {
                    Err(LineFault::ForeignPid { pid, rank: self.rank })
                }
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_trace() -> TiTrace {
        // Figure 1's ring, one loop iteration.
        let mut t = TiTrace::new(4);
        t.push(0, Action::Compute { flops: 1e6 });
        t.push(0, Action::Send { dst: 1, bytes: 1e6 });
        t.push(0, Action::Recv { src: 3, bytes: None });
        for p in 1..4 {
            t.push(p, Action::Recv { src: p - 1, bytes: None });
            t.push(p, Action::Compute { flops: 1e6 });
            t.push(p, Action::Send { dst: (p + 1) % 4, bytes: 1e6 });
        }
        t
    }

    #[test]
    fn merged_roundtrip() {
        let t = ring_trace();
        let mut buf = Vec::new();
        t.write_merged(&mut buf).unwrap();
        let t2 = TiTrace::from_reader(&buf[..]).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn merged_matches_figure_1_text() {
        let t = ring_trace();
        let mut buf = Vec::new();
        t.write_merged(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("p0 compute 1000000\n"));
        assert!(text.contains("p0 send p1 1000000\n"));
        assert!(text.contains("p0 recv p3\n"));
        assert!(text.contains("p3 send p0 1000000\n"));
    }

    #[test]
    fn per_process_files_roundtrip() {
        let dir = std::env::temp_dir().join(format!("titr-test-{}", std::process::id()));
        let t = ring_trace();
        let paths = t.save_per_process(&dir).unwrap();
        assert_eq!(paths.len(), 4);
        assert!(paths[2].file_name().unwrap().to_str().unwrap() == "SG_process2.trace");
        let t2 = crate::load_exact(&dir, 4, 1).unwrap();
        assert_eq!(t, t2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_writer_reader_roundtrip() {
        let dir =
            std::env::temp_dir().join(format!("titr-stream-{}", std::process::id()));
        let mut w = ProcessTraceWriter::create(&dir, 3).unwrap();
        let actions = [
            Action::CommSize { nproc: 8 },
            Action::Compute { flops: 5e8 },
            Action::Isend { dst: 0, bytes: 1024.0 },
            Action::Wait,
        ];
        for a in &actions {
            w.write(a).unwrap();
        }
        assert_eq!(w.actions_written(), 4);
        w.finish().unwrap();
        let got: Vec<Action> =
            RankReader::open(&dir, 3).unwrap().map(|(_, item)| item.unwrap()).collect();
        assert_eq!(got, actions);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coalesce_merges_adjacent_computes_only() {
        let mut t = TiTrace::new(1);
        t.push(0, Action::Compute { flops: 10.0 });
        t.push(0, Action::Compute { flops: 5.0 });
        t.push(0, Action::Barrier);
        t.push(0, Action::Compute { flops: 1.0 });
        t.push(0, Action::Compute { flops: 2.0 });
        t.coalesce_computes();
        assert_eq!(
            t.actions[0],
            vec![
                Action::Compute { flops: 15.0 },
                Action::Barrier,
                Action::Compute { flops: 3.0 }
            ]
        );
    }

    #[test]
    fn push_grows_process_set() {
        let mut t = TiTrace::default();
        t.push(5, Action::Barrier);
        assert_eq!(t.num_processes(), 6);
        assert_eq!(t.num_actions(), 1);
    }

    #[test]
    fn load_missing_dir_errors() {
        let dir = std::env::temp_dir().join("titr-definitely-missing-xyz");
        assert!(RankReader::open(&dir, 0).is_err());
    }

    fn read_all(text: &[u8], rank: Pid) -> Vec<(usize, Result<Action, LineFault>)> {
        RankReader::new(text, rank).collect()
    }

    #[test]
    fn rank_reader_types_every_fault_and_keeps_going() {
        let text = b"# header\np1 compute 10\n\np1 fly 3\np1 c\xf6mpute 1\np0 wait\np1 wait\n";
        let items = read_all(text, 1);
        let lines: Vec<usize> = items.iter().map(|(line, _)| *line).collect();
        assert_eq!(lines, [2, 4, 5, 6, 7], "comments and blank lines yield nothing");
        let mut items = items.into_iter();
        assert_eq!(items.next().unwrap().1.unwrap(), Action::Compute { flops: 10.0 });
        let parse = items.next().unwrap().1.unwrap_err();
        assert!(matches!(&parse, LineFault::Parse(m) if m.contains("fly")), "{parse}");
        assert!(matches!(items.next().unwrap().1, Err(LineFault::NotUtf8)));
        let foreign = items.next().unwrap().1.unwrap_err();
        assert_eq!(foreign.to_string(), "belongs to p0, not p1");
        assert_eq!(items.next().unwrap().1.unwrap(), Action::Wait);
        assert_eq!(
            foreign.into_io(6).to_string(),
            "trace parse error at line 6: belongs to p0, not p1"
        );
        assert_eq!(
            LineFault::NotUtf8.at(5).to_string(),
            "trace parse error at line 5: io error: stream did not contain valid UTF-8"
        );
    }

    #[test]
    fn rank_reader_rejects_a_pid_bomb_without_allocating_for_it() {
        let items = read_all(b"p1 wait\np900000000 compute 1e6\np18446744073709551615 wait\n", 1);
        assert!(items[0].1.is_ok());
        assert!(matches!(items[1], (2, Err(LineFault::ForeignPid { pid: 900000000, rank: 1 }))));
        assert!(matches!(items[2].1, Err(LineFault::ForeignPid { pid: usize::MAX, .. })));
    }

    #[test]
    fn merged_parser_bounds_pids_by_input_size() {
        for text in ["p0 wait\np900000000 compute 1e6\n", "p18446744073709551615 wait\n"] {
            let e = TiTrace::from_str_merged(text).unwrap_err();
            assert_eq!(e.line, text.lines().count(), "{e}");
            assert!(e.message.contains("input bytes"), "{e}");
        }
        // A pid below the bytes read so far is a legitimate sparse trace.
        let t = TiTrace::from_str_merged("p0 wait\np9 wait\n").unwrap();
        assert_eq!(t.num_processes(), 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Trace-shaped garbage: real tokens, separators and raw bytes.
    fn trace_bytes() -> impl Strategy<Value = Vec<u8>> {
        const PIECES: [&[u8]; 10] = [
            b"p1 ", b"p0 ", b"compute 1e6", b"send p0 8", b"wait", b"\n", b"# c\n", b" ",
            b"p900000000 ", b"18446744073709551616",
        ];
        proptest::collection::vec((0usize..14, any::<u8>()), 0..96).prop_map(|picks| {
            let mut out = Vec::new();
            for (i, byte) in picks {
                match PIECES.get(i) {
                    Some(piece) => out.extend_from_slice(piece),
                    None => out.push(byte),
                }
            }
            out
        })
    }

    proptest! {
        #[test]
        fn rank_reader_never_panics_and_yields_at_most_one_item_per_line(
            data in trace_bytes(),
            rank in 0usize..3
        ) {
            let lines = data.split(|&b| b == b'\n').count();
            let items = RankReader::new(&data[..], rank).count();
            prop_assert!(items <= lines, "{} items from {} lines", items, lines);
            let _ = TiTrace::from_reader(&data[..]);
        }

        #[test]
        fn rank_reader_survives_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..512)
        ) {
            let lines = data.split(|&b| b == b'\n').count();
            prop_assert!(RankReader::new(&data[..], 0).count() <= lines);
            let _ = TiTrace::from_reader(&data[..]);
        }
    }
}
