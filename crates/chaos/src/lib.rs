//! Deterministic I/O failpoint layer for the ftsim daemon fabric.
//!
//! The paper's premise is that faults are inevitable and must be recovered
//! from without corrupting architectural state. This crate applies the same
//! discipline to our own service layer: every filesystem and socket
//! operation in the daemon routes through the [`IoEnv`] trait, and the
//! chaos implementation — enabled by setting `FTSIM_CHAOS=<seed>:<spec>` —
//! injects faults at named **failpoint sites** according to a seeded,
//! reproducible plan.
//!
//! Injectable faults (see [`plan`] for the grammar):
//!
//! * `EIO` / `ENOSPC` errors at a site, deterministically or by probability;
//! * torn writes (a seeded prefix of the payload persists, then EIO);
//! * dropped renames (the destination is lost after the unlink-visible
//!   moment);
//! * per-operation delays, to widen race windows in concurrency tests;
//! * lease-clock skew;
//! * `process::abort()` at the N-th hit of a site, for crash-matrix tests;
//! * NFS-grade primitive weakening (`nfs@GLOB`): `create_new` silently
//!   loses `O_EXCL` (every racing creator "wins", last writer's bytes
//!   stick), `rename` degrades to copy-then-delete, and mtimes coarsen
//!   to whole seconds — the failure model of a lowest-common-denominator
//!   network filesystem, used to prove the daemon's relaxed lease mode.
//!
//! Production code calls [`io()`] once per operation; without `FTSIM_CHAOS`
//! in the environment this resolves to [`RealIo`], a zero-cost pass-through
//! to `std::fs` / `std::time`. The companion [`retry::Backoff`] policy gives
//! callers a bounded, jittered retry schedule for the transient errors this
//! layer (or a real flaky filesystem) produces.

#![warn(missing_docs)]

pub mod plan;
pub mod retry;

use std::fmt::Debug;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use plan::{glob_matches, Clause, Plan};

/// Raw OS error code for `ENOSPC` ("no space left on device").
///
/// `io::ErrorKind::StorageFull` is not stable at our MSRV, so callers that
/// need to special-case disk-full detection compare
/// `error.raw_os_error() == Some(ftsim_chaos::ENOSPC)`.
pub const ENOSPC: i32 = 28;

/// Raw OS error code for `EIO` (generic I/O error).
pub const EIO: i32 = 5;

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_path(path: &Path) -> PathBuf {
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp.{}.{}", std::process::id(), seq))
}

/// The bytes of the file at `path` from `offset` to its end.
fn read_range(path: &Path, offset: u64) -> io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    file.seek(SeekFrom::Start(offset))?;
    let mut bytes = Vec::with_capacity(len.saturating_sub(offset) as usize);
    file.read_to_end(&mut bytes)?;
    Ok(bytes)
}

fn wall_clock_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The injectable I/O surface the daemon's persistence and network layers
/// run on.
///
/// Every method takes a `site` — a stable, dotted failpoint name from the
/// daemon's failpoint catalog (e.g. `fabric.claim.renew`). [`RealIo`]
/// ignores the site; [`ChaosIo`] uses it to decide which fault, if any, to
/// inject before (or instead of) performing the operation.
pub trait IoEnv: Send + Sync + Debug {
    /// Reads an entire file to a string (lossy conversion is the caller's
    /// concern; this fails on invalid UTF-8 like `fs::read_to_string`).
    fn read_to_string(&self, site: &str, path: &Path) -> io::Result<String>;

    /// Reads a file's bytes from `offset` to its end (none when the file
    /// is shorter); offset 0 reads the whole file.
    fn read_from(&self, site: &str, path: &Path, offset: u64) -> io::Result<Vec<u8>>;

    /// Writes `data` to `path`, truncating, without durability guarantees.
    fn write_file(&self, site: &str, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Durably replaces `path` with `data`: writes a unique sibling temp
    /// file, `sync_data`s it, then renames over `path`.
    ///
    /// Under chaos, a `torn` clause tears the temp-file write and a
    /// `drop-rename` clause loses the destination at the rename step.
    fn write_atomic(&self, site: &str, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Exclusively creates `path` with `data` (`O_CREAT|O_EXCL` semantics),
    /// without syncing it. Returns `Ok(false)` if the path already exists.
    ///
    /// The daemon creates its claim leases here. A lease is a throughput
    /// hint, never a correctness mechanism, and only a machine crash can
    /// lose an unsynced one. That crash kills every holder too, so the
    /// worst it leaves is a torn lease, which peers steal once it is two
    /// leases old instead of one.
    fn create_new(&self, site: &str, path: &Path, data: &[u8]) -> io::Result<bool>;

    /// Creates a single directory (fails with `AlreadyExists` if present).
    fn create_dir(&self, site: &str, path: &Path) -> io::Result<()>;

    /// Creates a directory and all missing parents.
    fn create_dir_all(&self, site: &str, path: &Path) -> io::Result<()>;

    /// Renames `from` to `to`.
    fn rename(&self, site: &str, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    fn remove_file(&self, site: &str, path: &Path) -> io::Result<()>;

    /// Removes a directory tree.
    fn remove_dir_all(&self, site: &str, path: &Path) -> io::Result<()>;

    /// Lists the entries of a directory, sorted by path for determinism.
    fn list_dir(&self, site: &str, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Appends `data` to an open file and `sync_data`s it: a write that
    /// is durable when it returns. Under chaos a `torn` clause persists a
    /// seeded prefix of `data` before failing.
    ///
    /// The daemon's `cells.csv` rows do not take this path: they are
    /// written with [`IoEnv::append`] and synced once per claim with
    /// [`IoEnv::sync`] (group commit).
    fn append_sync(&self, site: &str, file: &mut File, data: &[u8]) -> io::Result<()>;

    /// Appends `data` to an open file without syncing it. The bytes reach
    /// the page cache, so they outlive the writing process but not the
    /// machine; a later [`IoEnv::sync`] makes them durable. Under chaos a
    /// `torn` clause persists a seeded prefix of `data` before failing.
    fn append(&self, site: &str, file: &mut File, data: &[u8]) -> io::Result<()>;

    /// `sync_data`s an open file: every byte appended to it so far is
    /// durable when this returns.
    fn sync(&self, site: &str, file: &File) -> io::Result<()>;

    /// Bare failpoint gate for operations without a dedicated primitive
    /// (socket accept/read/write, file opens). Returns an injected error
    /// (or aborts) per the plan; [`RealIo`] always succeeds.
    fn gate(&self, site: &str) -> io::Result<()>;

    /// Milliseconds since the Unix epoch, as seen by the lease clock.
    /// Chaos plans may skew this.
    fn now_ms(&self) -> u64;

    /// Whether an `nfs@GLOB` clause weakens the primitives at `site`.
    /// Callers that *depend* on `create_new`/`rename` atomicity (the
    /// fabric's strict lease mode) can consult this to warn; correctness
    /// must never require it. Always `false` for [`RealIo`].
    fn nfs_weak(&self, site: &str) -> bool {
        let _ = site;
        false
    }
}

/// Pass-through [`IoEnv`]: plain `std::fs` / `std::time` with no faults.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl IoEnv for RealIo {
    fn read_to_string(&self, _site: &str, path: &Path) -> io::Result<String> {
        fs::read_to_string(path)
    }

    fn read_from(&self, _site: &str, path: &Path, offset: u64) -> io::Result<Vec<u8>> {
        read_range(path, offset)
    }

    fn write_file(&self, _site: &str, path: &Path, data: &[u8]) -> io::Result<()> {
        fs::write(path, data)
    }

    fn write_atomic(&self, _site: &str, path: &Path, data: &[u8]) -> io::Result<()> {
        let tmp = temp_path(path);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(data)?;
            file.sync_data()?;
        }
        match fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    fn create_new(&self, _site: &str, path: &Path, data: &[u8]) -> io::Result<bool> {
        let mut file = match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => return Ok(false),
            Err(e) => return Err(e),
        };
        file.write_all(data)?;
        Ok(true)
    }

    fn create_dir(&self, _site: &str, path: &Path) -> io::Result<()> {
        fs::create_dir(path)
    }

    fn create_dir_all(&self, _site: &str, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn rename(&self, _site: &str, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, _site: &str, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn remove_dir_all(&self, _site: &str, path: &Path) -> io::Result<()> {
        fs::remove_dir_all(path)
    }

    fn list_dir(&self, _site: &str, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries = Vec::new();
        for entry in fs::read_dir(path)? {
            entries.push(entry?.path());
        }
        entries.sort();
        Ok(entries)
    }

    fn append_sync(&self, _site: &str, file: &mut File, data: &[u8]) -> io::Result<()> {
        file.write_all(data)?;
        file.sync_data()
    }

    fn append(&self, _site: &str, file: &mut File, data: &[u8]) -> io::Result<()> {
        file.write_all(data)
    }

    fn sync(&self, _site: &str, file: &File) -> io::Result<()> {
        file.sync_data()
    }

    fn gate(&self, _site: &str) -> io::Result<()> {
        Ok(())
    }

    fn now_ms(&self) -> u64 {
        wall_clock_ms()
    }
}

/// What a chaos plan decided for one hit of one failpoint site.
#[derive(Debug)]
enum Verdict {
    /// Perform the operation normally.
    Pass,
    /// Fail with the given raw OS error.
    Fail(i32),
    /// Persist `keep` bytes of the payload, then fail with EIO.
    Tear { keep: usize },
    /// Remove the rename destination, then fail with EIO.
    DropRename,
}

#[derive(Debug)]
struct ChaosState {
    rng: u64,
    hits: std::collections::HashMap<String, u64>,
}

impl ChaosState {
    fn next_f64(&mut self) -> f64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
    }
}

/// Fault-injecting [`IoEnv`] driven by a parsed [`Plan`].
///
/// Hit counters are tracked per site; probabilistic clauses draw from a
/// seeded xorshift stream, so a given `(seed, spec, operation sequence)` is
/// fully reproducible.
#[derive(Debug)]
pub struct ChaosIo {
    plan: Plan,
    skew_ms: i64,
    state: Mutex<ChaosState>,
}

impl ChaosIo {
    /// Builds a chaos environment from a parsed plan.
    pub fn new(plan: Plan) -> ChaosIo {
        let skew_ms = plan
            .clauses
            .iter()
            .filter_map(|c| match c {
                Clause::Skew { ms } => Some(*ms),
                _ => None,
            })
            .sum();
        ChaosIo {
            skew_ms,
            state: Mutex::new(ChaosState {
                rng: plan.seed | 1,
                hits: std::collections::HashMap::new(),
            }),
            plan,
        }
    }

    /// Parses `spec` (the `FTSIM_CHAOS` value) and builds the environment.
    pub fn from_spec(spec: &str) -> Result<ChaosIo, plan::ParseError> {
        Ok(ChaosIo::new(Plan::parse(spec)?))
    }

    /// Number of times `site` has been hit so far.
    pub fn hits(&self, site: &str) -> u64 {
        let state = self.state.lock().unwrap();
        state.hits.get(site).copied().unwrap_or(0)
    }

    /// Records a hit of `site` and evaluates the plan's clauses against it.
    ///
    /// `payload_len` bounds the kept prefix for `torn` clauses; sites that
    /// carry no payload pass 0. Delays sleep here; `abort` clauses do not
    /// return.
    fn gate(&self, site: &str, payload_len: usize) -> Verdict {
        let mut state = self.state.lock().unwrap();
        let hit = state.hits.entry(site.to_string()).or_insert(0);
        *hit += 1;
        let hit = *hit;
        let mut sleep_ms = 0u64;
        let mut verdict = Verdict::Pass;
        for clause in &self.plan.clauses {
            match clause {
                Clause::Abort { site: s, nth } if s == site && *nth == hit => {
                    eprintln!("ftsim-chaos: abort at failpoint {site}#{hit}");
                    std::process::abort();
                }
                Clause::Torn { site: s, nth } if s == site && *nth == hit => {
                    let keep = state.below(payload_len as u64) as usize;
                    verdict = Verdict::Tear { keep };
                    break;
                }
                Clause::DropRename { site: s, nth } if s == site && *nth == hit => {
                    verdict = Verdict::DropRename;
                    break;
                }
                Clause::Eio { glob, prob }
                    if glob_matches(glob, site) && (*prob >= 1.0 || state.next_f64() < *prob) =>
                {
                    verdict = Verdict::Fail(EIO);
                    break;
                }
                Clause::Enospc { glob, prob }
                    if glob_matches(glob, site) && (*prob >= 1.0 || state.next_f64() < *prob) =>
                {
                    verdict = Verdict::Fail(ENOSPC);
                    break;
                }
                Clause::Delay { glob, prob, ms }
                    if glob_matches(glob, site) && (*prob >= 1.0 || state.next_f64() < *prob) =>
                {
                    sleep_ms = sleep_ms.max(*ms);
                }
                Clause::DelayNth { site: s, nth, ms } if s == site && *nth == hit => {
                    sleep_ms = sleep_ms.max(*ms);
                }
                _ => {}
            }
        }
        drop(state);
        if sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(sleep_ms));
        }
        verdict
    }

    /// Whether an `nfs@GLOB` clause covers `site`.
    fn nfs_site(&self, site: &str) -> bool {
        self.plan.clauses.iter().any(|c| match c {
            Clause::Nfs { glob } => glob_matches(glob, site),
            _ => false,
        })
    }

    /// Coarsens `path`'s mtime to whole seconds, the granularity a
    /// hostile NFS server reports. Best-effort: a racing unlink loses
    /// nothing (the staleness heuristics already treat missing files as
    /// resolved).
    fn coarsen_mtime(path: &Path) {
        let Ok(file) = OpenOptions::new().write(true).open(path) else {
            return;
        };
        let Ok(modified) = file.metadata().and_then(|m| m.modified()) else {
            return;
        };
        if let Ok(d) = modified.duration_since(UNIX_EPOCH) {
            let coarse = UNIX_EPOCH + Duration::from_secs(d.as_secs());
            let _ = file.set_times(fs::FileTimes::new().set_modified(coarse));
        }
    }

    fn injected(code: i32, site: &str) -> io::Error {
        // Keep the raw OS code intact (callers detect ENOSPC via
        // `raw_os_error`); the site context goes to stderr instead.
        eprintln!("ftsim-chaos: injected fault at {site} (os error {code})");
        if let Some(observer) = INJECTION_OBSERVER.get() {
            observer(code, site);
        }
        io::Error::from_raw_os_error(code)
    }

    fn check(&self, site: &str) -> io::Result<()> {
        match self.gate(site, 0) {
            Verdict::Pass => Ok(()),
            Verdict::Fail(code) => Err(Self::injected(code, site)),
            // Tear/drop-rename clauses degrade to plain EIO at sites that
            // carry no payload or rename.
            Verdict::Tear { .. } | Verdict::DropRename => Err(Self::injected(EIO, site)),
        }
    }
}

impl IoEnv for ChaosIo {
    fn read_to_string(&self, site: &str, path: &Path) -> io::Result<String> {
        self.check(site)?;
        fs::read_to_string(path)
    }

    fn read_from(&self, site: &str, path: &Path, offset: u64) -> io::Result<Vec<u8>> {
        self.check(site)?;
        read_range(path, offset)
    }

    fn write_file(&self, site: &str, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.gate(site, data.len()) {
            Verdict::Pass => fs::write(path, data),
            Verdict::Fail(code) => Err(Self::injected(code, site)),
            Verdict::Tear { keep } => {
                let _ = fs::write(path, &data[..keep]);
                Err(Self::injected(EIO, site))
            }
            Verdict::DropRename => Err(Self::injected(EIO, site)),
        }
    }

    fn write_atomic(&self, site: &str, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.gate(site, data.len()) {
            Verdict::Pass if self.nfs_site(site) => {
                // No atomic replace on this mount: a plain truncating
                // write, leaving the usual torn window, then a coarse
                // mtime.
                fs::write(path, data)?;
                Self::coarsen_mtime(path);
                Ok(())
            }
            Verdict::Pass => RealIo.write_atomic(site, path, data),
            Verdict::Fail(code) => Err(Self::injected(code, site)),
            Verdict::Tear { keep } => {
                // The temp-file write tears: a prefix survives under the
                // temp name, the destination is never replaced.
                let tmp = temp_path(path);
                let _ = fs::write(&tmp, &data[..keep]);
                Err(Self::injected(EIO, site))
            }
            Verdict::DropRename => {
                // The rename happens after the unlink-visible moment on a
                // hostile filesystem: the old destination is gone and the
                // new contents never land.
                let _ = fs::remove_file(path);
                Err(Self::injected(EIO, site))
            }
        }
    }

    fn create_new(&self, site: &str, path: &Path, data: &[u8]) -> io::Result<bool> {
        match self.gate(site, data.len()) {
            Verdict::Pass if self.nfs_site(site) => {
                // O_EXCL is silently ignored (NFSv2 semantics): every
                // racing creator "succeeds" and the last writer's bytes
                // stick. Exclusivity consumers must verify after write.
                fs::write(path, data)?;
                Self::coarsen_mtime(path);
                Ok(true)
            }
            Verdict::Pass => RealIo.create_new(site, path, data),
            Verdict::Fail(code) => Err(Self::injected(code, site)),
            Verdict::Tear { keep } => {
                match OpenOptions::new().write(true).create_new(true).open(path) {
                    Ok(mut file) => {
                        let _ = file.write_all(&data[..keep]);
                        Err(Self::injected(EIO, site))
                    }
                    Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
                    Err(e) => Err(e),
                }
            }
            Verdict::DropRename => Err(Self::injected(EIO, site)),
        }
    }

    fn create_dir(&self, site: &str, path: &Path) -> io::Result<()> {
        self.check(site)?;
        fs::create_dir(path)
    }

    fn create_dir_all(&self, site: &str, path: &Path) -> io::Result<()> {
        self.check(site)?;
        fs::create_dir_all(path)
    }

    fn rename(&self, site: &str, from: &Path, to: &Path) -> io::Result<()> {
        match self.gate(site, 0) {
            Verdict::Pass if self.nfs_site(site) => {
                // Cross-directory rename degrades to copy-then-delete: a
                // window exists where both paths are visible, and a crash
                // inside it leaves two copies.
                let data = fs::read(from)?;
                fs::write(to, &data)?;
                Self::coarsen_mtime(to);
                fs::remove_file(from)
            }
            Verdict::Pass => fs::rename(from, to),
            Verdict::Fail(code) => Err(Self::injected(code, site)),
            Verdict::Tear { .. } => Err(Self::injected(EIO, site)),
            Verdict::DropRename => {
                let _ = fs::remove_file(to);
                let _ = fs::remove_file(from);
                Err(Self::injected(EIO, site))
            }
        }
    }

    fn remove_file(&self, site: &str, path: &Path) -> io::Result<()> {
        self.check(site)?;
        fs::remove_file(path)
    }

    fn remove_dir_all(&self, site: &str, path: &Path) -> io::Result<()> {
        self.check(site)?;
        fs::remove_dir_all(path)
    }

    fn list_dir(&self, site: &str, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.check(site)?;
        RealIo.list_dir(site, path)
    }

    fn append_sync(&self, site: &str, file: &mut File, data: &[u8]) -> io::Result<()> {
        match self.gate(site, data.len()) {
            Verdict::Pass => RealIo.append_sync(site, file, data),
            Verdict::Fail(code) => Err(Self::injected(code, site)),
            Verdict::Tear { keep } => {
                let _ = file.write_all(&data[..keep]);
                let _ = file.sync_data();
                Err(Self::injected(EIO, site))
            }
            Verdict::DropRename => Err(Self::injected(EIO, site)),
        }
    }

    fn append(&self, site: &str, file: &mut File, data: &[u8]) -> io::Result<()> {
        match self.gate(site, data.len()) {
            Verdict::Pass => RealIo.append(site, file, data),
            Verdict::Fail(code) => Err(Self::injected(code, site)),
            Verdict::Tear { keep } => {
                let _ = file.write_all(&data[..keep]);
                Err(Self::injected(EIO, site))
            }
            Verdict::DropRename => Err(Self::injected(EIO, site)),
        }
    }

    fn sync(&self, site: &str, file: &File) -> io::Result<()> {
        self.check(site)?;
        file.sync_data()
    }

    fn gate(&self, site: &str) -> io::Result<()> {
        self.check(site)
    }

    fn now_ms(&self) -> u64 {
        let now = wall_clock_ms() as i64 + self.skew_ms;
        now.max(0) as u64
    }

    fn nfs_weak(&self, site: &str) -> bool {
        self.nfs_site(site)
    }
}

static GLOBAL: OnceLock<Box<dyn IoEnv>> = OnceLock::new();

/// Called with `(os error code, site)` on every injected fault.
type InjectionObserver = Box<dyn Fn(i32, &str) + Send + Sync>;

static INJECTION_OBSERVER: OnceLock<InjectionObserver> = OnceLock::new();

/// Registers a process-wide callback invoked on every fault this layer
/// injects (after the stderr note, before the error is returned to the
/// faulted call site). First registration wins; later calls are ignored.
///
/// This exists so the observability layer can count and trace injections
/// without this crate depending on it (the dependency arrow runs
/// metrics → stats → chaos). The observer must be cheap and must not
/// perform I/O through chaos-gated paths — it runs inside those paths.
pub fn set_injection_observer(observer: impl Fn(i32, &str) + Send + Sync + 'static) {
    let _ = INJECTION_OBSERVER.set(Box::new(observer));
}

/// Returns the process-wide [`IoEnv`].
///
/// On first call, reads `FTSIM_CHAOS`; if set and non-empty the value must
/// parse as a chaos plan (a malformed plan panics — silently running clean
/// would defeat the point of an explicitly requested fault schedule).
/// Otherwise resolves to [`RealIo`].
pub fn io() -> &'static dyn IoEnv {
    GLOBAL
        .get_or_init(|| match std::env::var("FTSIM_CHAOS") {
            Ok(spec) if !spec.trim().is_empty() => match ChaosIo::from_spec(&spec) {
                Ok(chaos) => Box::new(chaos),
                Err(e) => panic!("{e}"),
            },
            _ => Box::new(RealIo),
        })
        .as_ref()
}

/// Returns true if `error` is a disk-full condition (`ENOSPC`), injected
/// or real.
pub fn is_enospc(error: &io::Error) -> bool {
    error.raw_os_error() == Some(ENOSPC)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ftsim-chaos-{tag}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_write_atomic_roundtrip() {
        let dir = tmp_dir("atomic");
        let path = dir.join("x.json");
        RealIo.write_atomic("t", &path, b"one").unwrap();
        RealIo.write_atomic("t", &path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ranged_reads_start_at_the_offset_and_are_gated() {
        let dir = tmp_dir("range");
        let path = dir.join("f");
        fs::write(&path, b"0123456789").unwrap();
        assert_eq!(RealIo.read_from("t", &path, 0).unwrap(), b"0123456789");
        assert_eq!(RealIo.read_from("t", &path, 4).unwrap(), b"456789");
        assert!(RealIo.read_from("t", &path, 11).unwrap().is_empty());
        let chaos = ChaosIo::from_spec("1:eio@a.b").unwrap();
        assert_eq!(chaos.read_from("c.d", &path, 9).unwrap(), b"9");
        let err = chaos.read_from("a.b", &path, 0).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(EIO));
        assert_eq!(chaos.hits("a.b"), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eio_fires_deterministically_and_counts_hits() {
        let chaos = ChaosIo::from_spec("1:eio@a.b").unwrap();
        let dir = tmp_dir("eio");
        let path = dir.join("f");
        let err = chaos.write_file("a.b", &path, b"x").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(EIO));
        assert!(!path.exists());
        chaos.write_file("other.site", &path, b"x").unwrap();
        assert_eq!(chaos.hits("a.b"), 1);
        assert_eq!(chaos.hits("other.site"), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_is_detectable() {
        let chaos = ChaosIo::from_spec("1:enospc@csv.append").unwrap();
        let dir = tmp_dir("enospc");
        let mut file = File::create(dir.join("cells.csv")).unwrap();
        let err = chaos
            .append_sync("csv.append", &mut file, b"row\n")
            .unwrap_err();
        assert!(is_enospc(&err));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_persists_strict_prefix() {
        let chaos = ChaosIo::from_spec("9:torn@csv.append#2").unwrap();
        let dir = tmp_dir("torn");
        let path = dir.join("cells.csv");
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)
            .unwrap();
        chaos
            .append_sync("csv.append", &mut file, b"first-row\n")
            .unwrap();
        let err = chaos
            .append_sync("csv.append", &mut file, b"second-row\n")
            .unwrap_err();
        assert_eq!(err.raw_os_error(), Some(EIO));
        let bytes = fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"first-row\n"));
        assert!(bytes.len() < b"first-row\nsecond-row\n".len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_rename_loses_destination() {
        let chaos = ChaosIo::from_spec("3:drop-rename@store.write_status#2").unwrap();
        let dir = tmp_dir("droprename");
        let path = dir.join("status.json");
        chaos
            .write_atomic("store.write_status", &path, b"v1")
            .unwrap();
        assert!(path.exists());
        let err = chaos
            .write_atomic("store.write_status", &path, b"v2")
            .unwrap_err();
        assert_eq!(err.raw_os_error(), Some(EIO));
        assert!(!path.exists(), "destination must be lost");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn skew_shifts_clock() {
        let chaos = ChaosIo::from_spec("1:skew=60000,eio@nothing").unwrap();
        let real = RealIo.now_ms();
        let skewed = chaos.now_ms();
        assert!(skewed >= real + 59_000, "skewed {skewed} vs real {real}");
    }

    #[test]
    fn probability_stream_is_reproducible() {
        let run = || {
            let chaos = ChaosIo::from_spec("77:eio@s=0.5").unwrap();
            (0..64)
                .map(|_| IoEnv::gate(&chaos, "s").is_err())
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|x| *x), "some ops must fail at p=0.5");
        assert!(a.iter().any(|x| !*x), "some ops must pass at p=0.5");
    }

    #[test]
    fn nfs_create_new_loses_exclusivity() {
        let chaos = ChaosIo::from_spec("1:nfs@fabric.claim.*").unwrap();
        let dir = tmp_dir("nfs-create");
        let path = dir.join("claim.lease");
        // Both creators "win"; the second writer's bytes stick.
        assert!(chaos
            .create_new("fabric.claim.create", &path, b"owner-a")
            .unwrap());
        assert!(chaos
            .create_new("fabric.claim.create", &path, b"owner-b")
            .unwrap());
        assert_eq!(fs::read(&path).unwrap(), b"owner-b");
        // Sites outside the glob keep O_EXCL semantics.
        let other = dir.join("other.lease");
        assert!(chaos.create_new("store.write_spec", &other, b"a").unwrap());
        assert!(!chaos.create_new("store.write_spec", &other, b"b").unwrap());
        assert!(chaos.nfs_weak("fabric.claim.create"));
        assert!(!chaos.nfs_weak("store.write_spec"));
        assert!(!RealIo.nfs_weak("fabric.claim.create"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nfs_rename_copies_then_deletes_and_coarsens_mtime() {
        let chaos = ChaosIo::from_spec("1:nfs@fabric.*").unwrap();
        let dir = tmp_dir("nfs-rename");
        let from = dir.join("a.lease");
        let to = dir.join("a.stale");
        fs::write(&from, b"payload").unwrap();
        chaos.rename("fabric.claim.steal", &from, &to).unwrap();
        assert!(!from.exists());
        assert_eq!(fs::read(&to).unwrap(), b"payload");
        let mtime = fs::metadata(&to)
            .unwrap()
            .modified()
            .unwrap()
            .duration_since(UNIX_EPOCH)
            .unwrap();
        assert_eq!(mtime.subsec_nanos(), 0, "mtime coarsened to seconds");
        // A missing source still reports NotFound, like a real rename.
        assert!(chaos.rename("fabric.claim.steal", &from, &to).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nfs_write_atomic_degrades_to_plain_write() {
        let chaos = ChaosIo::from_spec("1:nfs@fabric.claim.renew").unwrap();
        let dir = tmp_dir("nfs-atomic");
        let path = dir.join("claim.lease");
        chaos
            .write_atomic("fabric.claim.renew", &path, b"v1")
            .unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"v1");
        // No temp-file dance: the directory holds only the target.
        let entries = fs::read_dir(&dir).unwrap().count();
        assert_eq!(entries, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_new_reports_existing() {
        let chaos = ChaosIo::from_spec("1:delay@none=1:0").unwrap();
        let dir = tmp_dir("createnew");
        let path = dir.join("claim.json");
        assert!(chaos
            .create_new("fabric.claim.create", &path, b"a")
            .unwrap());
        assert!(!chaos
            .create_new("fabric.claim.create", &path, b"b")
            .unwrap());
        assert_eq!(fs::read(&path).unwrap(), b"a");
        fs::remove_dir_all(&dir).unwrap();
    }
}
