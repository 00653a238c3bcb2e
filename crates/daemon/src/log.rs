//! What an `ftsimd` process keeps of each job between claims: its
//! parsed spec and experiment, the index of its streamed `cells.csv`,
//! and the programs its claims share.
//!
//! Every scheduling pass, claim and finalization asks the same questions
//! of the same growing file: which grid cells have a record, and which
//! record? [`JobLog`] answers them from an in-memory index that each
//! look brings up to date by reading and parsing only the bytes appended
//! since the previous one ([`CellsTail`]). The claim's writer repairs
//! only the file's tail past the index's boundary
//! ([`Entry::trusted_prefix`]), and the index takes the bytes that repair
//! read instead of reading them again ([`Entry::family_plan`]). A claim
//! therefore costs O(new rows + family) in bytes read and parsed, not
//! O(job).
//!
//! The index is an optimisation only. Any doubt about the bytes behind
//! its boundary rebuilds it from offset 0 with a full tolerant parse:
//! the file shrank (a peer's torn-tail repair, GC), vanished or was
//! replaced (another device/inode), or no longer ends the consumed
//! prefix with the bytes it did. A failed read leaves the index as it
//! was. Either way the index can only lag the file, never run ahead of
//! it — and a lagging index costs at worst a byte-identical re-run of a
//! cell, never a wrong record.
//!
//! The rest of a job's state follows the files it came from, by their
//! [`Stamp`] (identity, length, modification time):
//! - `spec.json` is parsed once, and again only when its stamp changes.
//!   A spec that then differs rebuilds the whole [`Entry`]: experiment,
//!   index and programs.
//! - `status.json` is read again only when its stamp changes
//!   ([`status`]).
//! - Each (workload, budget) program is built by the first claim that
//!   needs it and shared by the claims after it, so the digest memos of
//!   its data image stay warm. It is dropped once every family that runs
//!   it is complete. Claims go in family order, so about one program per
//!   budget is alive at a time.
//!
//! The state lives in one process-wide map shared by the worker threads
//! of a `serve`, one slot per job directory, dropped when the job reaches
//! a terminal state ([`forget`]). No state outlives its job: a new job
//! in the same directory starts from nothing.

use crate::failpoints as fp;
use crate::spec::JobSpec;
use crate::store::{DaemonError, Job, JobStatus, JobStore};
use ftsim::harness::{from_csv_tolerant_prefix, Experiment, FamilyId, Grid, RunRecord, SweepPlan};
use ftsim::isa::Program;
use ftsim_obs::metrics;
use ftsim_stats::csv::{file_id, Opened, TrustedPrefix};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::SystemTime;

/// Bytes before the consumed boundary a [`CellsTail`] keeps to recognise
/// the prefix it parsed: about a row's worth, so a file cut back and
/// regrown past the boundary between two reads is caught as surely as
/// one that is still shorter.
const GUARD_BYTES: usize = 256;

/// `cells.csv` lines parsed by this process, whether they yielded a
/// record or were dropped as damaged.
fn rows_parsed() -> &'static metrics::Counter {
    static ROWS: OnceLock<metrics::Counter> = OnceLock::new();
    ROWS.get_or_init(|| metrics::counter("ftsimd_cells_rows_parsed_total", &[]))
}

/// `cells.csv` bytes read by this process: by the index, and by the
/// writer's tail repair.
fn bytes_read() -> &'static metrics::Counter {
    static BYTES: OnceLock<metrics::Counter> = OnceLock::new();
    BYTES.get_or_init(|| metrics::counter("ftsimd_cells_bytes_read_total", &[]))
}

/// A file's identity on its filesystem (device, inode), where the
/// platform has one.
type FileId = (u64, u64);

/// What tells one version of a small file from another without reading
/// it: its identity, length and modification time. An atomic rewrite is
/// a new inode; an in-place one moves the length or the mtime (on a
/// filesystem whose mtimes are fine enough to tell two writes apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    file: Option<FileId>,
    len: u64,
    modified: Option<SystemTime>,
}

impl Stamp {
    /// The stamp of the file at `path`, if there is one.
    fn of(path: &Path) -> Option<Self> {
        let meta = std::fs::metadata(path).ok()?;
        Some(Self {
            file: file_id(&meta),
            len: meta.len(),
            modified: meta.modified().ok(),
        })
    }
}

/// The bytes of `path` from `offset` on; a missing file reads as empty.
fn read_from(path: &Path, offset: usize) -> io::Result<Vec<u8>> {
    let bytes = match ftsim_chaos::io().read_from(fp::FABRIC_CELLS_READ, path, offset as u64) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    bytes_read().add(bytes.len() as u64);
    Ok(bytes)
}

/// An incremental reader of a growing `cells.csv`: it remembers how far
/// it has parsed and, on the next read, reads and parses only what lies
/// past that boundary — or the whole file again when the bytes before
/// the boundary are not the ones it parsed.
#[derive(Debug, Default)]
pub(crate) struct CellsTail {
    /// Bytes settled for good (parsed or dropped as damaged); 0 or just
    /// past a row-ending newline.
    consumed: usize,
    /// The file the boundary belongs to.
    file: Option<FileId>,
    /// The last (up to [`GUARD_BYTES`]) bytes before the boundary.
    guard: Vec<u8>,
    /// Every line settled since the last parse from offset 0 parsed into
    /// a record, so the CSV grammar accepts the whole consumed prefix.
    clean: bool,
}

/// What one [`CellsTail::read`] found.
pub(crate) struct Tail {
    /// The parse started at offset 0 — a first read or a rebuild — so
    /// `records` covers the whole file rather than only new rows.
    pub from_start: bool,
    /// The records of the lines settled by this read, in file order.
    pub records: Vec<RunRecord>,
    /// Lines settled by this read that did not parse into a record.
    pub damaged: usize,
}

impl CellsTail {
    /// Reads what is new in `path` and parses it: the bytes from the
    /// guard before the boundary on, or the whole file when the file is
    /// another one, shorter than the boundary, or no longer holds the
    /// guard bytes there. A missing file reads as an empty one.
    ///
    /// # Errors
    ///
    /// Any other read error — including one injected at the
    /// `fabric.cells.read` failpoint. The tail is left as it was.
    pub(crate) fn read(&mut self, path: &Path) -> io::Result<Tail> {
        // Identify the file before reading it: if it is replaced in
        // between, the next read sees a new identity and starts over.
        let stamp = Stamp::of(path);
        let (file, len) = (stamp.and_then(|s| s.file), stamp.map(|s| s.len));
        if self.consumed > 0 && file == self.file && len >= Some(self.consumed as u64) {
            let offset = self.consumed - self.guard.len();
            if let Some(tail) = self.advance(file, offset, &read_from(path, offset)?) {
                return Ok(tail);
            }
        }
        Ok(self.rebuild(file, &read_from(path, 0)?))
    }

    /// Parses what lies past the boundary in `bytes` — the file `file`'s
    /// content from byte `offset` on — when `bytes` holds the guard
    /// bytes just before the boundary. `None`, with the tail unchanged,
    /// when the boundary cannot be trusted.
    fn advance(&mut self, file: Option<FileId>, offset: usize, bytes: &[u8]) -> Option<Tail> {
        let at = self.consumed.checked_sub(offset)?;
        let guard = at
            .checked_sub(self.guard.len())
            .and_then(|from| bytes.get(from..at));
        if self.consumed == 0 || file != self.file || guard != Some(&self.guard[..]) {
            return None;
        }
        Some(self.settle(file, offset, bytes, at))
    }

    /// Parses `bytes`, the whole content of the file `file`, from the
    /// start.
    fn rebuild(&mut self, file: Option<FileId>, bytes: &[u8]) -> Tail {
        self.clean = true;
        self.settle(file, 0, bytes, 0)
    }

    /// Parses `bytes[at..]` — the file `file`'s content from byte
    /// `offset + at` on, where `offset + at` is the boundary or 0 — and
    /// moves the boundary past the lines it settled.
    fn settle(&mut self, file: Option<FileId>, offset: usize, bytes: &[u8], at: usize) -> Tail {
        let from_start = offset + at == 0;
        let (records, damaged, settled) = parse_settled(&bytes[at..], !from_start);
        let end = at + settled;
        self.consumed = offset + end;
        self.file = file;
        self.guard = bytes[end.saturating_sub(GUARD_BYTES)..end].to_vec();
        self.clean &= damaged == 0;
        rows_parsed().add((records.len() + damaged) as u64);
        Tail {
            from_start,
            records,
            damaged,
        }
    }

    /// The consumed prefix, for the writer's repair to resume past: only
    /// while every line in it parsed into a record, which makes it a
    /// prefix the repair keeps whole.
    fn trusted(&self) -> Option<TrustedPrefix> {
        (self.clean && self.consumed > 0).then(|| TrustedPrefix {
            len: self.consumed,
            file: self.file,
            guard: self.guard.clone(),
        })
    }
}

/// Parses the settled lines of `raw` — a whole `cells.csv`, or
/// (`headless`) the part of one after a row boundary — returning the
/// records, the damaged settled lines and the settled byte length.
fn parse_settled(raw: &[u8], headless: bool) -> (Vec<RunRecord>, usize, usize) {
    // Invalid UTF-8 from a write torn mid-character is decoded lossily,
    // which keeps the damage inside the line that carries it.
    let text = String::from_utf8_lossy(raw);
    let (records, dropped, consumed) = if headless {
        // Re-prefix the header so the suffix parses standalone.
        let header = RunRecord::csv_header();
        let (records, dropped, consumed) = from_csv_tolerant_prefix(&format!("{header}\n{text}"));
        (records, dropped, consumed - header.len() - 1)
    } else {
        from_csv_tolerant_prefix(&text)
    };
    // The tolerant parser also counts an unsettled trailing fragment (and
    // everything under an unreadable header) as dropped; only settled
    // lines are damage.
    let damaged = if consumed == 0 && !headless {
        0
    } else {
        dropped - usize::from(consumed < text.len())
    };
    let settled = match text {
        Cow::Borrowed(_) => consumed,
        // Lossy decoding moved byte offsets; the settled part ends just
        // past its last newline in the raw bytes as in the decoded text.
        Cow::Owned(decoded) => {
            let lines = decoded.as_bytes()[..consumed]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            raw.iter()
                .enumerate()
                .filter(|&(_, &b)| b == b'\n')
                .nth(lines.wrapping_sub(1))
                .map_or(0, |(i, _)| i + 1)
        }
    };
    (records, damaged, settled)
}

/// One job's record index: its grid, and the newest streamed record of
/// every grid cell that has one.
pub(crate) struct JobLog {
    tail: CellsTail,
    /// The job's grid: which cells a record stands for (a repeated axis
    /// value gives one record several), and the families.
    grid: Grid,
    /// Per cell, in grid order: its newest streamed record.
    latest: Vec<Option<RunRecord>>,
    /// Per family: its cells with a record.
    family_done: Vec<usize>,
    /// The families with a cell that has no record, kept up to date as
    /// rows arrive, so a scheduling pass finds the next one without
    /// walking every family.
    incomplete: BTreeSet<usize>,
}

impl JobLog {
    /// An empty index over `grid`.
    pub(crate) fn new(grid: Grid) -> Self {
        let families = grid.family_count();
        Self {
            tail: CellsTail::default(),
            latest: vec![None; grid.cells()],
            family_done: vec![0; families],
            incomplete: (0..families).collect(),
            grid,
        }
    }

    /// Brings the index up to date with the file at `path`.
    ///
    /// # Errors
    ///
    /// The read error; the index is left as it was.
    fn refresh(&mut self, path: &Path) -> io::Result<()> {
        let tail = self.tail.read(path)?;
        self.absorb(path, tail);
        Ok(())
    }

    /// Brings the index up to date from `opened`: the content of the file
    /// at `path` from `opened.offset` on, as an
    /// [`AppendWriter::open_after`](ftsim_stats::csv::AppendWriter::open_after)
    /// just read it. Only when those bytes do not extend what the index
    /// parsed does it read the file itself.
    fn take_opened(&mut self, path: &Path, opened: &Opened) {
        let tail = match self.tail.advance(opened.file, opened.offset, &opened.bytes) {
            None if opened.offset == 0 => Some(self.tail.rebuild(opened.file, &opened.bytes)),
            tail => tail,
        };
        match tail {
            Some(tail) => self.absorb(path, tail),
            None => {
                let _ = self.refresh(path);
            }
        }
    }

    fn absorb(&mut self, path: &Path, tail: Tail) {
        if tail.from_start {
            self.latest.iter_mut().for_each(|r| *r = None);
            self.family_done.iter_mut().for_each(|n| *n = 0);
            self.incomplete = (0..self.family_done.len()).collect();
        }
        if tail.damaged > 0 {
            eprintln!(
                "ftsimd: {}: dropped {} torn line(s); re-simulating those cells",
                path.display(),
                tail.damaged
            );
        }
        for record in tail.records {
            // A record of another grid stands for no cell of this one; a
            // repeated axis value gives it several, the last of which
            // takes the record and the others a copy.
            let mut cells = self.grid.cells_of(&record).peekable();
            let mut record = Some(record);
            while let Some(i) = cells.next() {
                if self.latest[i].is_none() {
                    let f = self.grid.family_of(i);
                    self.family_done[f] += 1;
                    if self.family_done[f] == self.grid.family_cells(f).len() {
                        self.incomplete.remove(&f);
                    }
                }
                // Later rows overwrite earlier: a cell re-run (after a
                // failure, or by a second claimant in a lost-lease
                // window) keeps its newest record.
                self.latest[i] = match cells.peek() {
                    Some(_) => record.clone(),
                    None => record.take(),
                };
            }
        }
    }

    /// Cells with a record.
    pub(crate) fn done(&self) -> usize {
        self.family_done.iter().sum()
    }

    /// Cells in the grid.
    pub(crate) fn total(&self) -> usize {
        self.latest.len()
    }

    /// Whether every cell has a record.
    pub(crate) fn complete(&self) -> bool {
        self.incomplete.is_empty()
    }

    /// The first family after family `after` (from the start for `None`)
    /// with a cell that has no record.
    pub(crate) fn next_incomplete(&self, after: Option<usize>) -> Option<usize> {
        let from = after.map_or(Bound::Unbounded, Bound::Excluded);
        self.incomplete
            .range((from, Bound::Unbounded))
            .next()
            .copied()
    }

    /// Each family's cells-done count and size, in grid order; a
    /// family's position here is its index in the other family methods.
    pub(crate) fn families(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let size = |f| self.grid.family_cells(f).len();
        (0..self.family_done.len()).map(move |f| (self.family_done[f], size(f)))
    }

    /// Family `f`'s id.
    pub(crate) fn family(&self, f: usize) -> FamilyId {
        self.grid.family(f)
    }

    /// The records present, in grid order.
    pub(crate) fn records(&self) -> Vec<RunRecord> {
        self.latest.iter().flatten().cloned().collect()
    }

    /// The records present for family `f`'s cells, in grid order.
    pub(crate) fn family_records(&self, f: usize) -> Vec<RunRecord> {
        self.grid
            .family_cells(f)
            .filter_map(|i| self.latest[i].clone())
            .collect()
    }
}

/// The grid of `spec`.
///
/// # Errors
///
/// [`DaemonError`] when the spec does not resolve to a grid.
pub(crate) fn grid_of(spec: &JobSpec) -> Result<Grid, DaemonError> {
    Ok(Grid::new(&spec.to_experiment()?)?)
}

/// One job's state in this process: its spec and experiment, its record
/// index and the programs its claims share.
pub(crate) struct Entry {
    spec: JobSpec,
    /// The spec's experiment, which each claim narrows to its family.
    exp: Experiment,
    log: Mutex<JobLog>,
    /// Programs by number ([`Grid::program_of`]), each built by the first
    /// claim that needs it.
    programs: Mutex<HashMap<usize, Arc<Program>>>,
}

impl Entry {
    /// An entry for `spec`, with an empty index and no programs.
    ///
    /// # Errors
    ///
    /// [`DaemonError`] when the spec does not resolve to a grid.
    fn new(spec: JobSpec) -> Result<Self, DaemonError> {
        let exp = spec.to_experiment()?;
        let grid = Grid::new(&exp)?;
        Ok(Self {
            spec,
            exp,
            log: Mutex::new(JobLog::new(grid)),
            programs: Mutex::default(),
        })
    }

    /// The job's spec.
    pub(crate) fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Cells in the job's grid.
    pub(crate) fn cells(&self) -> usize {
        self.exp.cells()
    }

    fn lock_log(&self) -> MutexGuard<'_, JobLog> {
        self.log.lock().expect("job log lock")
    }

    fn lock_programs(&self) -> MutexGuard<'_, HashMap<usize, Arc<Program>>> {
        self.programs.lock().expect("program cache lock")
    }

    /// Brings the index up to date with `job`'s `cells.csv` and runs `f`
    /// on it. A failed read leaves the index lagging, which every caller
    /// tolerates.
    pub(crate) fn with_log<T>(&self, job: &Job, f: impl FnOnce(&JobLog) -> T) -> T {
        let mut log = self.lock_log();
        let _ = log.refresh(&job.cells_path());
        f(&log)
    }

    /// The first family after family `after` with a cell that has no
    /// record, and its id, as the index last saw the file.
    pub(crate) fn next_incomplete(&self, after: usize) -> Option<(usize, FamilyId)> {
        let log = self.lock_log();
        let f = log.next_incomplete(Some(after))?;
        Some((f, log.family(f)))
    }

    /// The prefix of the job's `cells.csv` that the writer's tail repair
    /// may skip
    /// ([`AppendWriter::open_after`](ftsim_stats::csv::AppendWriter::open_after)):
    /// the index's consumed prefix, while every line in it parsed into a
    /// record. The index is not brought up to date first: the open
    /// re-checks the prefix's guard bytes and reads what follows them
    /// anyway. The prefix is a copy, so the open runs without the index's
    /// lock held.
    pub(crate) fn trusted_prefix(&self) -> Option<TrustedPrefix> {
        self.lock_log().tail.trusted()
    }

    /// Plans family `f` of `job`, resumed from its recorded rows, after the
    /// caller's
    /// [`AppendWriter::open_after`](ftsim_stats::csv::AppendWriter::open_after)
    /// of the job's `cells.csv` returned `opened`. The index takes the
    /// bytes the open read ([`JobLog::take_opened`]). The plan narrows the
    /// job's experiment to the family ([`Experiment::family`]) and runs
    /// the family's program from this entry, built here when no earlier
    /// claim built it. Programs whose families are all complete are
    /// dropped first.
    ///
    /// # Errors
    ///
    /// [`DaemonError`] when the family's experiment does not plan.
    pub(crate) fn family_plan(
        &self,
        job: &Job,
        f: usize,
        opened: &Opened,
    ) -> Result<SweepPlan, DaemonError> {
        bytes_read().add(opened.read as u64);
        let (exp, p, kept) = {
            let mut log = self.lock_log();
            log.take_opened(&job.cells_path(), opened);
            let exp = self
                .exp
                .family(&log.grid, f)
                .resume_from(log.family_records(f));
            let p = log.grid.program_of(f);
            let mut programs = self.lock_programs();
            programs.retain(|&q, _| {
                log.grid
                    .program_families(q)
                    .any(|g| log.incomplete.contains(&g))
            });
            (exp, p, programs.get(&p).cloned())
        };
        let mut built = None;
        let plan = exp.plan_with(|workload, budget| match &kept {
            Some(program) => Arc::clone(program),
            None => Arc::clone(built.insert(Arc::new(workload.program_for(budget)))),
        })?;
        if let Some(program) = built {
            self.lock_programs().entry(p).or_insert(program);
        }
        Ok(plan)
    }
}

/// What this process keeps of one job.
#[derive(Default)]
struct Slot {
    /// `status.json` as last read, under the stamp the file had then.
    status: Option<(Stamp, JobStatus)>,
    /// The job's entry, under the stamp of the `spec.json` it was parsed
    /// from (`None`: built from a spec a reader passed in).
    entry: Option<(Option<Stamp>, Arc<Entry>)>,
}

/// The process's job state, by job directory.
fn cache() -> MutexGuard<'static, HashMap<PathBuf, Slot>> {
    static CACHE: OnceLock<Mutex<HashMap<PathBuf, Slot>>> = OnceLock::new();
    CACHE
        .get_or_init(Mutex::default)
        .lock()
        .expect("job state lock")
}

/// The job's status for a scheduling pass: as last read while
/// `status.json` keeps its stamp, read again otherwise.
///
/// # Errors
///
/// As [`JobStore::load_status`].
pub(crate) fn status(store: &JobStore, job: &Job) -> Result<JobStatus, DaemonError> {
    let stamp = Stamp::of(&job.status_path());
    if let Some((_, status)) = cache()
        .get(job.dir())
        .and_then(|slot| slot.status.as_ref())
        .filter(|(kept, _)| Some(*kept) == stamp)
    {
        return Ok(status.clone());
    }
    // Stamped before the read: a file replaced in between is kept under
    // the older stamp, so the next pass reads it again.
    let status = store.load_status(job)?;
    if let Some(stamp) = stamp {
        cache().entry(job.dir().to_path_buf()).or_default().status = Some((stamp, status.clone()));
    }
    Ok(status)
}

/// The job's entry for a scheduling pass: the one kept while `spec.json`
/// keeps the stamp it was parsed under. Otherwise the spec is read again,
/// and the entry, index and programs included, is rebuilt when the spec
/// differs from the one it holds.
///
/// # Errors
///
/// As [`JobStore::load_spec`], and [`DaemonError`] when the spec does not
/// resolve to a grid.
pub(crate) fn entry(store: &JobStore, job: &Job) -> Result<Arc<Entry>, DaemonError> {
    let stamp = Stamp::of(&job.spec_path());
    if let Some((_, entry)) = cache()
        .get(job.dir())
        .and_then(|slot| slot.entry.as_ref())
        .filter(|(kept, _)| kept.is_some() && *kept == stamp)
    {
        return Ok(Arc::clone(entry));
    }
    let spec = store.load_spec(job)?;
    let mut cache = cache();
    let slot = cache.entry(job.dir().to_path_buf()).or_default();
    let entry = match slot.entry.take() {
        Some((_, entry)) if entry.spec == spec => entry,
        _ => Arc::new(Entry::new(spec)?),
    };
    slot.entry = Some((stamp, Arc::clone(&entry)));
    Ok(entry)
}

/// Brings the job's index up to date and runs `f` on it, for a reader
/// that loaded `spec` itself: the kept entry when it holds that spec, a
/// new one otherwise. A failed read leaves the index lagging, which every
/// caller tolerates.
///
/// # Errors
///
/// [`DaemonError`] when the spec does not resolve to a grid.
pub(crate) fn with_log<T>(
    job: &Job,
    spec: &JobSpec,
    f: impl FnOnce(&JobLog) -> T,
) -> Result<T, DaemonError> {
    let entry = {
        let mut cache = cache();
        match cache
            .get(job.dir())
            .and_then(|slot| slot.entry.as_ref())
            .filter(|(_, entry)| entry.spec == *spec)
        {
            Some((_, entry)) => Arc::clone(entry),
            None => {
                let entry = Arc::new(Entry::new(spec.clone())?);
                cache.entry(job.dir().to_path_buf()).or_default().entry =
                    Some((None, Arc::clone(&entry)));
                entry
            }
        }
    };
    Ok(entry.with_log(job, f))
}

/// Drops what this process keeps of the job: it reached a terminal state.
pub(crate) fn forget(job: &Job) {
    cache().remove(job.dir());
}

/// The job's kept entry and the numbers of the programs it holds, if this
/// process keeps one.
#[cfg(test)]
pub(crate) fn kept(job: &Job) -> Option<(Arc<Entry>, Vec<usize>)> {
    let entry = Arc::clone(&cache().get(job.dir())?.entry.as_ref()?.1);
    let mut programs: Vec<usize> = entry.lock_programs().keys().copied().collect();
    programs.sort_unstable();
    Some((entry, programs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::JobStore;
    use ftsim::harness::{from_csv_tolerant, to_csv};
    use ftsim_stats::csv::AppendWriter;

    fn spec() -> JobSpec {
        let mut spec = JobSpec::new("log");
        spec.workloads = vec!["gcc".to_string(), "fpppp".to_string()];
        spec.models = vec!["SS-2".to_string()];
        spec.fault_rates_pm = vec![0.0, 1_000.0];
        spec.budgets = vec![400];
        spec.seeds = vec![1, 2];
        spec
    }

    fn temp_job(tag: &str) -> (JobStore, Job) {
        let dir = std::env::temp_dir().join(format!("ftsimd-log-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = JobStore::open(dir).unwrap();
        let (id, _) = store.submit(&spec()).unwrap();
        let job = store.job(&id).unwrap();
        (store, job)
    }

    /// The newest record of grid cell `idx`, if it has one.
    fn record(log: &JobLog, idx: usize) -> Option<&RunRecord> {
        log.latest[idx].as_ref()
    }

    /// The identity half of every grid cell's record, in grid order.
    fn identities() -> Vec<RunRecord> {
        let plan = spec().to_experiment().unwrap().plan().unwrap();
        (0..plan.len()).map(|idx| plan.identity(idx)).collect()
    }

    /// The family of a record.
    fn family_of(r: &RunRecord) -> FamilyId {
        FamilyId {
            workload: r.workload.clone(),
            budget: r.budget,
            model: r.model.clone(),
        }
    }

    /// Distinct records for every grid cell (outcomes are made up: the
    /// index only reads identities).
    fn records() -> Vec<RunRecord> {
        identities()
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.cycles = 1_000 + i as u64;
                r
            })
            .collect()
    }

    fn row(r: &RunRecord) -> String {
        format!("{}\n", r.to_csv_row())
    }

    fn append(path: &Path, bytes: &[u8]) {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(bytes).unwrap();
    }

    /// Asserts the index equals a fresh full tolerant parse of the file,
    /// newest row winning.
    fn assert_matches_fresh_parse(log: &mut JobLog, path: &Path) {
        log.refresh(path).unwrap();
        let text = String::from_utf8_lossy(&std::fs::read(path).unwrap_or_default()).into_owned();
        let (streamed, _) = from_csv_tolerant(&text);
        let mut done = 0;
        for (i, id) in identities().iter().enumerate() {
            let want = streamed.iter().rev().find(|r| r.same_identity(id));
            assert_eq!(record(log, i), want, "cell {i}");
            done += usize::from(want.is_some());
        }
        assert_eq!(log.done(), done);
        let by_family: usize = log.families().map(|(d, _)| d).sum();
        assert_eq!(by_family, done);
    }

    #[test]
    fn index_tracks_appends_repairs_damage_and_replacement() {
        let (store, job) = temp_job("track");
        let path = job.cells_path();
        let recs = records();
        let mut log = JobLog::new(grid_of(&spec()).unwrap());
        assert_matches_fresh_parse(&mut log, &path); // no file yet

        std::fs::write(&path, to_csv(&recs[..2])).unwrap();
        assert_matches_fresh_parse(&mut log, &path);

        // A peer's append.
        append(&path, row(&recs[2]).as_bytes());
        assert_matches_fresh_parse(&mut log, &path);

        // A torn tail is not settled; the repairing open cuts it and the
        // next appends land after the repair.
        let torn = row(&recs[3]);
        append(&path, &torn.as_bytes()[..torn.len() / 2]);
        assert_matches_fresh_parse(&mut log, &path);
        let (mut writer, _) = AppendWriter::open(&path, &RunRecord::csv_header()).unwrap();
        writer.append_row(&recs[4].to_csv_row()).unwrap();
        assert_matches_fresh_parse(&mut log, &path);

        // Interior damage: a torn fragment concatenated onto by a peer's
        // row, then more rows behind it, plus a re-run (newest wins).
        append(&path, &torn.as_bytes()[..torn.len() / 3]);
        append(&path, row(&recs[5]).as_bytes());
        let mut rerun = recs[0].clone();
        rerun.cycles = 7;
        append(
            &path,
            format!("{}{}", row(&recs[6]), row(&rerun)).as_bytes(),
        );
        assert_matches_fresh_parse(&mut log, &path);
        assert_eq!(record(&log, 0).unwrap().cycles, 7);

        // Invalid UTF-8 in a damaged interior line shifts lossy offsets.
        append(&path, b"gcc,caf\xC3");
        append(&path, row(&recs[7]).as_bytes());
        assert_matches_fresh_parse(&mut log, &path);
        append(&path, row(&recs[3]).as_bytes());
        assert_matches_fresh_parse(&mut log, &path);

        // A shrunk file (cut back inside the consumed prefix).
        let bytes = std::fs::read(&path).unwrap();
        let cut = to_csv(&recs[..2]).len();
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert_matches_fresh_parse(&mut log, &path);

        // Cut back and regrown past the old boundary between two reads.
        std::fs::write(&path, to_csv(&recs[..7])).unwrap();
        assert_matches_fresh_parse(&mut log, &path);
        let old_len = std::fs::metadata(&path).unwrap().len();
        let mut regrown = to_csv(&recs[4..]);
        for r in &recs[..4] {
            regrown.push_str(&row(r));
        }
        assert!(regrown.len() as u64 > old_len);
        std::fs::write(&path, &regrown).unwrap();
        assert_matches_fresh_parse(&mut log, &path);

        // A replaced file: same length and tail, another inode and rows.
        let mut current = to_csv(&recs[..1]);
        let mut swapped = to_csv(&recs[1..2]);
        for r in &recs[4..] {
            current.push_str(&row(r));
            swapped.push_str(&row(r));
        }
        std::fs::write(&path, &current).unwrap();
        assert_matches_fresh_parse(&mut log, &path);
        assert_eq!(swapped.len(), current.len());
        let staging = path.with_extension("new");
        std::fs::write(&staging, &swapped).unwrap();
        std::fs::rename(&staging, &path).unwrap();
        assert_matches_fresh_parse(&mut log, &path);
        assert!(record(&log, 0).is_none() && record(&log, 1).is_some());

        // A vanished file.
        std::fs::remove_file(&path).unwrap();
        assert_matches_fresh_parse(&mut log, &path);
        assert_eq!(log.done(), 0);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn appends_parse_only_the_new_rows() {
        let (store, job) = temp_job("incremental");
        let path = job.cells_path();
        let recs = records();
        std::fs::write(&path, to_csv(&recs[..4])).unwrap();
        let mut tail = CellsTail::default();
        let first = tail.read(&path).unwrap();
        assert!(first.from_start);
        assert_eq!(first.records, recs[..4]);
        assert!(tail.read(&path).unwrap().records.is_empty());
        append(
            &path,
            format!("{}{}", row(&recs[4]), row(&recs[5])).as_bytes(),
        );
        let next = tail.read(&path).unwrap();
        assert!(!next.from_start);
        assert_eq!(next.records, recs[4..6]);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn the_writer_resumes_past_a_clean_boundary_only() {
        let (store, job) = temp_job("trusted");
        let path = job.cells_path();
        let recs = records();
        std::fs::write(&path, to_csv(&recs[..3])).unwrap();
        let mut tail = CellsTail::default();
        tail.read(&path).unwrap();
        let prefix = tail.trusted().expect("a clean file is trusted");
        assert_eq!(prefix.len, to_csv(&recs[..3]).len());

        // A torn row past the boundary: the open reads only the guard and
        // the tail, and cuts the fragment.
        let torn = row(&recs[3]);
        append(&path, &torn.as_bytes()[..torn.len() / 2]);
        let header = RunRecord::csv_header();
        let (_, opened) = AppendWriter::open_after(&path, &header, Some(prefix.clone())).unwrap();
        assert_eq!(opened.offset, prefix.len - GUARD_BYTES);
        assert_eq!(opened.bytes, prefix.guard);
        assert_eq!(opened.read, GUARD_BYTES + torn.len() / 2);
        assert_eq!(std::fs::read(&path).unwrap(), to_csv(&recs[..3]).as_bytes());

        // A damaged settled line withdraws the trust until a rebuild.
        append(&path, format!("gcc,torn\n{}", row(&recs[4])).as_bytes());
        let next = tail.read(&path).unwrap();
        assert_eq!((next.from_start, next.damaged), (false, 1));
        assert!(tail.trusted().is_none());
        std::fs::write(&path, to_csv(&recs[..2])).unwrap();
        assert!(tail.read(&path).unwrap().from_start);
        assert!(tail.trusted().is_some());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn the_index_takes_what_the_open_read() {
        let (store, job) = temp_job("opened");
        let path = job.cells_path();
        let recs = records();
        std::fs::write(&path, to_csv(&recs[..2])).unwrap();
        let fam = family_of(&recs[0]);
        let members = |n: usize| {
            recs[..n]
                .iter()
                .filter(|r| family_of(r) == fam)
                .cloned()
                .collect::<Vec<_>>()
        };
        let mut log = JobLog::new(grid_of(&spec()).unwrap());
        log.refresh(&path).unwrap();
        let header = RunRecord::csv_header();
        append(
            &path,
            format!("{}{}", row(&recs[2]), row(&recs[3])).as_bytes(),
        );
        let (_, opened) = AppendWriter::open_after(&path, &header, log.tail.trusted()).unwrap();
        assert!(opened.offset > 0);

        // The open's bytes extend the boundary: the index takes them and
        // reads nothing, so it holds the rows of a file now gone.
        std::fs::remove_file(&path).unwrap();
        log.take_opened(&path, &opened);
        assert_eq!(log.family(0), fam);
        assert_eq!(log.family_records(0), members(4));
        assert_eq!(log.done(), 4);

        // Bytes from a later offset than the boundary's guard do not.
        let at = opened.offset + opened.bytes.len();
        assert!(log.tail.advance(opened.file, at, b"").is_none());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn cache_follows_the_spec_and_forgets_finished_jobs() {
        let (store, job) = temp_job("cache");
        let recs = records();
        std::fs::write(job.cells_path(), to_csv(&recs)).unwrap();
        assert!(with_log(&job, &spec(), JobLog::complete).unwrap());
        let fam = family_of(&recs[0]);
        let members = recs
            .iter()
            .filter(|r| family_of(r) == fam)
            .cloned()
            .collect::<Vec<_>>();
        // A scheduling pass takes the entry a reader built for the same
        // spec, index and all.
        let kept_entry = entry(&store, &job).unwrap();
        assert!(Arc::ptr_eq(&kept_entry, &kept(&job).unwrap().0));
        assert_eq!(
            kept_entry.with_log(&job, |log| log.family_records(0)),
            members
        );

        // A different spec in the same directory gets a fresh index.
        let mut other = spec();
        other.seeds = vec![1, 2, 3];
        let (done, total) = with_log(&job, &other, |log| (log.done(), log.total())).unwrap();
        assert_eq!((done, total), (recs.len(), recs.len() * 3 / 2));
        forget(&job);
        assert!(kept(&job).is_none());
        std::fs::remove_dir_all(store.root()).ok();
    }
}
