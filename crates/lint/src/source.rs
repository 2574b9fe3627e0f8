//! Loading trace directories with source locations.
//!
//! The analyzer works on in-memory [`TiTrace`]s, but when the trace set
//! comes from text files every finding should point back at a
//! `file:line`. [`load_dir`] reads the conventional per-rank layout
//! (`SG_process<N>.trace`) and builds a [`SourceMap`] from `(rank,
//! action index)` to the file and 1-based line each action was parsed
//! from. Loading is *total*: a missing rank file or an unparseable line
//! becomes a finding ([`LintCode::MissingRankFile`],
//! [`LintCode::ParseFailure`]) instead of an I/O error, so every
//! corruption the acquisition pipeline can suffer surfaces as a lint.

use crate::finding::{Finding, LintCode, Location};
use std::path::{Path, PathBuf};
use tit_core::trace::{process_trace_filename, LineFault, RankReader};
use tit_core::TiTrace;

/// Maps `(rank, action index)` back to the text source it came from.
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    files: Vec<PathBuf>,
    /// `entries[rank][index] = (file id, 1-based line)`.
    entries: Vec<Vec<(usize, usize)>>,
}

impl SourceMap {
    /// Registers `file`, returning its id for [`SourceMap::record`].
    pub fn add_file(&mut self, file: PathBuf) -> usize {
        self.files.push(file);
        self.files.len() - 1
    }

    /// Records that `rank`'s next action (index `index`) came from
    /// `line` of file `file_id`. Indices must be recorded in order.
    pub fn record(&mut self, rank: usize, index: usize, file_id: usize, line: usize) {
        if rank >= self.entries.len() {
            self.entries.resize(rank + 1, Vec::new());
        }
        let per_rank = &mut self.entries[rank];
        // Tolerate gaps defensively; `lookup` treats the filler as
        // unknown (file id out of range).
        per_rank.resize(index, (usize::MAX, 0));
        per_rank.push((file_id, line));
    }

    /// The source of `rank`'s action `index`, when known.
    pub fn lookup(&self, rank: usize, index: usize) -> Option<(&Path, usize)> {
        let &(file_id, line) = self.entries.get(rank)?.get(index)?;
        let file = self.files.get(file_id)?;
        Some((file.as_path(), line))
    }

    /// Fills the `file`/`line` fields of `loc` from this map.
    pub fn annotate(&self, loc: &mut Location) {
        if let Some(index) = loc.index {
            if let Some((file, line)) = self.lookup(loc.rank, index) {
                loc.file = Some(file.display().to_string());
                loc.line = Some(line);
            }
        }
    }
}

/// A trace directory loaded for linting.
#[derive(Debug, Default)]
pub struct LoadedDir {
    /// The parsed actions (ranks that failed to load stay empty).
    pub trace: TiTrace,
    /// Source locations for every parsed action.
    pub sources: SourceMap,
    /// Findings produced by loading itself: missing rank files,
    /// unreadable data, unparseable lines.
    pub findings: Vec<Finding>,
}

/// One rank file parsed in isolation: everything [`load_dir`] needs to
/// merge it deterministically, whatever thread produced it.
struct RankLoad {
    path: PathBuf,
    /// Whether the file opened (only opened files get a SourceMap id,
    /// matching the serial loader's numbering).
    opened: bool,
    /// This rank's parsed actions with their 1-based line numbers.
    actions: Vec<(tit_core::Action, usize)>,
    findings: Vec<Finding>,
}

/// Parses `rank`'s file totally: defects become findings, foreign-pid
/// lines are reported (never re-attributed), own lines are kept with
/// their line numbers. Each file only ever contributes to its own rank,
/// which is what makes per-file parallelism safe.
fn load_rank_file(dir: &Path, rank: usize) -> RankLoad {
    let path = dir.join(process_trace_filename(rank));
    let mut out =
        RankLoad { path: path.clone(), opened: false, actions: Vec::new(), findings: Vec::new() };
    let at = |line: Option<usize>| Location {
        rank,
        file: Some(path.display().to_string()),
        line,
        ..Location::default()
    };
    let reader = match RankReader::open(dir, rank) {
        Ok(r) => r,
        Err(e) => {
            out.findings.push(Finding::new(
                LintCode::MissingRankFile,
                at(None),
                format!("cannot open p{rank}'s trace: {e}"),
            ));
            return out;
        }
    };
    out.opened = true;
    for (line, item) in reader {
        let (code, message) = match item {
            Ok(action) => {
                out.actions.push((action, line));
                continue;
            }
            // In the per-rank layout every line must carry the file's
            // own rank; a contradicting pid means the file was damaged
            // or mis-gathered, and trusting either side of the
            // contradiction would mis-attribute the action.
            Err(LineFault::ForeignPid { pid, .. }) => (
                LintCode::RankMismatch,
                format!("line declares p{pid} inside p{rank}'s trace file"),
            ),
            Err(LineFault::Parse(message)) => (LintCode::ParseFailure, message),
            Err(fault) => {
                // Unreadable data: the stream is gone; keep what parsed.
                let message = format!("unreadable data: {}", fault.into_io(line));
                out.findings.push(Finding::new(LintCode::ParseFailure, at(Some(line)), message));
                break;
            }
        };
        out.findings.push(Finding::new(code, at(Some(line)), message));
    }
    out
}

/// Loads `SG_process0.trace` … `SG_process<nproc-1>.trace` from `dir`.
///
/// Never fails: defects become findings in [`LoadedDir::findings`] and
/// the affected lines are skipped, so the analyzer still sees everything
/// that did parse.
pub fn load_dir(dir: &Path, nproc: usize) -> LoadedDir {
    load_dir_jobs(dir, nproc, 1)
}

/// [`load_dir`] parsing up to `jobs` rank files concurrently (`0` = one
/// worker per CPU). The merge happens in rank order, so the trace, the
/// SourceMap file numbering and the finding order are identical to the
/// serial loader's whatever the thread interleaving.
pub fn load_dir_jobs(dir: &Path, nproc: usize, jobs: usize) -> LoadedDir {
    let loads = tit_core::ingest::for_each_rank(nproc, jobs, |rank| {
        Ok::<_, std::convert::Infallible>(load_rank_file(dir, rank))
    });
    let loads = loads.unwrap_or_else(|e| match e {});
    let mut out = LoadedDir { trace: TiTrace::new(nproc), ..LoadedDir::default() };
    for (rank, load) in loads.into_iter().enumerate() {
        if load.opened {
            let file_id = out.sources.add_file(load.path);
            for (action, line_no) in load.actions {
                out.trace.push(rank, action);
                let index = out.trace.actions[rank].len() - 1;
                out.sources.record(rank, index, file_id, line_no);
            }
        }
        out.findings.extend(load.findings);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("titlint-src-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn maps_actions_back_to_file_and_line() {
        let dir = tmp("map");
        std::fs::write(
            dir.join("SG_process0.trace"),
            "# header comment\np0 compute 10\n\np0 send p1 64\n",
        )
        .unwrap();
        std::fs::write(dir.join("SG_process1.trace"), "p1 recv p0\n").unwrap();
        let loaded = load_dir(&dir, 2);
        assert!(loaded.findings.is_empty(), "{:?}", loaded.findings);
        assert_eq!(loaded.trace.num_actions(), 3);
        let (file, line) = loaded.sources.lookup(0, 1).unwrap();
        assert!(file.ends_with("SG_process0.trace"));
        assert_eq!(line, 4); // comment and blank lines counted
        assert_eq!(loaded.sources.lookup(1, 0).unwrap().1, 1);
        assert!(loaded.sources.lookup(1, 5).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_pid_lines_become_rank_mismatch_findings() {
        let dir = tmp("mismatch");
        std::fs::write(
            dir.join("SG_process0.trace"),
            "p0 compute 10\np1 compute 20\np0 compute 5\n",
        )
        .unwrap();
        std::fs::write(dir.join("SG_process1.trace"), "p1 compute 1\n").unwrap();
        let loaded = load_dir(&dir, 2);
        assert_eq!(loaded.trace.actions[0].len(), 2, "own lines survive");
        assert_eq!(loaded.trace.actions[1].len(), 1, "foreign line not re-attributed");
        let mismatch = loaded
            .findings
            .iter()
            .find(|f| f.code == LintCode::RankMismatch)
            .unwrap();
        assert_eq!(mismatch.primary.line, Some(2));
        assert!(mismatch.message.contains("declares p1"), "{}", mismatch.message);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_load_is_indistinguishable_from_serial() {
        // Defects everywhere: rank 1 missing, rank 2 with a foreign pid
        // and a bad keyword — the merge must still reproduce the serial
        // trace, finding order and file:line map exactly.
        let dir = tmp("par");
        std::fs::write(
            dir.join("SG_process0.trace"),
            "p0 compute 10\np0 send p2 64\np0 recv p2\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("SG_process2.trace"),
            "p2 recv p0\np1 compute 9\np2 frobnicate\np2 send p0 64\n",
        )
        .unwrap();
        std::fs::write(dir.join("SG_process3.trace"), "p3 barrier\n").unwrap();
        let serial = load_dir(&dir, 4);
        for jobs in [0, 2, 4, 16] {
            let par = load_dir_jobs(&dir, 4, jobs);
            assert_eq!(par.trace, serial.trace, "jobs={jobs}");
            assert_eq!(par.findings, serial.findings, "jobs={jobs}");
            for rank in 0..4 {
                for index in 0..=serial.trace.actions[rank].len() {
                    assert_eq!(
                        par.sources.lookup(rank, index),
                        serial.sources.lookup(rank, index),
                        "jobs={jobs} rank={rank} index={index}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_rank_and_bad_lines_become_findings() {
        let dir = tmp("defects");
        std::fs::write(
            dir.join("SG_process0.trace"),
            "p0 compute 10\np0 frobnicate 3\np0 compute 5\n",
        )
        .unwrap();
        let loaded = load_dir(&dir, 2);
        assert_eq!(loaded.trace.actions[0].len(), 2, "good lines survive");
        let codes: Vec<_> = loaded.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&LintCode::ParseFailure), "{codes:?}");
        assert!(codes.contains(&LintCode::MissingRankFile), "{codes:?}");
        let parse = loaded
            .findings
            .iter()
            .find(|f| f.code == LintCode::ParseFailure)
            .unwrap();
        assert_eq!(parse.primary.line, Some(2));
        assert!(parse.message.contains("frobnicate"), "{}", parse.message);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
