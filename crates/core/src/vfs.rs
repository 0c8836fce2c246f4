//! Deterministic storage fault-injection substrate.
//!
//! Every durable artifact in the pipeline — the corpus cache
//! ([`crate::cache`]), the cell journal ([`crate::journal`]) and the
//! predictor snapshot store ([`crate::modelstore`]) — used to hand-roll
//! `std::fs` with temp+rename and *no fsync anywhere*, and crash behavior
//! was only probed by ad-hoc process kills. This module puts a [`Vfs`]
//! trait between those writers and the disk, with two implementations:
//!
//! - [`RealFs`] — passthrough to `std::fs`, with real fsyncs for the
//!   fsync-file-then-fsync-parent-dir discipline of
//!   [`crate::durable::publish`]. Counted: `vfs.ops`, `vfs.sync_file`,
//!   `vfs.sync_dir`.
//! - [`SimFs`] — an in-memory filesystem that models the page cache:
//!   every file carries **visible** bytes (what any reader sees now; what
//!   survives a process SIGKILL) and **durable** bytes (what survives a
//!   power loss — the content at the last `sync_file`), and every
//!   directory entry is likewise buffered until `sync_dir` on its parent.
//!   [`SimFs::crash_image`] drops all non-durable state and hands back
//!   the exact post-power-loss disk, which the crash-enumeration oracle
//!   (`tests/crash_enum.rs`) restarts the recovery code on. Faults
//!   (EIO / ENOSPC / torn write / short read) inject deterministically,
//!   either by seeded per-op rates ([`FaultPlan`]) or by targeted rules
//!   ([`FaultRule`]), and `vfs.injected` counts every one.
//!
//! Crash-point enumeration rests on two [`SimFs`] affordances: a
//! monotone mutating-op counter ([`SimFs::mut_ops`]) and
//! [`SimFs::set_crash_after`], which makes every mutating op past the
//! N-th fail with a `simfs: crashed` error — the workload unwinds through
//! its normal `Result` paths exactly as a dying process would stop
//! issuing syscalls, and the image at that moment is what the disk holds.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Every operation issued through any [`Vfs`] (reads included).
static VFS_OPS: obs::LazyCounter = obs::LazyCounter::new("vfs.ops");
/// Faults injected by [`SimFs`].
static VFS_INJECTED: obs::LazyCounter = obs::LazyCounter::new("vfs.injected");
/// File syncs (fsync) issued — nonzero on every durable write path.
static VFS_SYNC_FILE: obs::LazyCounter = obs::LazyCounter::new("vfs.sync_file");
/// Directory syncs issued — nonzero on every temp+rename publish.
static VFS_SYNC_DIR: obs::LazyCounter = obs::LazyCounter::new("vfs.sync_dir");
/// ENOSPC errors surfaced to callers (injected or real). The serve path
/// degrades around these instead of dying; `/metrics` exposes the count.
static VFS_ENOSPC: obs::LazyCounter = obs::LazyCounter::new("vfs.errors.enospc");

/// An open append handle (the journal's segment writer).
pub trait VfsFile: Send {
    /// Append `buf` to the file's visible bytes (the page cache).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Push userspace buffers to the page cache (no durability).
    fn flush(&mut self) -> io::Result<()>;
    /// Make everything written so far durable (fsync).
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem surface the persistence layers are allowed to touch.
///
/// Everything is path-based except appends, which hand out a [`VfsFile`]
/// so the journal can keep one segment open across records.
pub trait Vfs: Send + Sync {
    /// Open `path` for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Read the entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create-or-truncate `path` with `data` (buffered, not durable).
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// fsync the file's content.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// fsync a directory, making its entries (creates, renames, removes)
    /// durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to` (visible immediately; durable
    /// after `sync_dir` on the parent).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Names (not paths) of entries directly under `dir`.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Create `dir` and all parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Does `path` exist (file or directory)?
    fn exists(&self, path: &Path) -> bool;

    /// Read the entire file as UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let bytes = self.read(path)?;
        String::from_utf8(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("not utf-8: {e}")))
    }
}

/// Count an ENOSPC surfaced to a caller, whichever impl produced it.
fn note_enospc(e: &io::Error) {
    if e.kind() == io::ErrorKind::StorageFull {
        VFS_ENOSPC.inc();
    }
}

// ---------------------------------------------------------------------------
// RealFs
// ---------------------------------------------------------------------------

/// Passthrough to `std::fs`, with real fsync for the sync ops.
#[derive(Debug, Default)]
pub struct RealFs;

/// The shared process-wide [`RealFs`] handle every default constructor
/// uses.
pub fn real_fs() -> Arc<dyn Vfs> {
    static REAL: OnceLock<Arc<RealFs>> = OnceLock::new();
    REAL.get_or_init(|| Arc::new(RealFs)).clone() as Arc<dyn Vfs>
}

struct RealFile(fs::File);

impl VfsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        VFS_OPS.inc();
        io::Write::write_all(&mut self.0, buf).inspect_err(note_enospc)
    }
    fn flush(&mut self) -> io::Result<()> {
        VFS_OPS.inc();
        io::Write::flush(&mut self.0)
    }
    fn sync(&mut self) -> io::Result<()> {
        VFS_OPS.inc();
        VFS_SYNC_FILE.inc();
        self.0.sync_all().inspect_err(note_enospc)
    }
}

impl Vfs for RealFs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        VFS_OPS.inc();
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        VFS_OPS.inc();
        fs::read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        VFS_OPS.inc();
        fs::write(path, data).inspect_err(note_enospc)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        VFS_OPS.inc();
        VFS_SYNC_FILE.inc();
        fs::File::open(path)?.sync_all().inspect_err(note_enospc)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        VFS_OPS.inc();
        VFS_SYNC_DIR.inc();
        // opening a directory read-only and fsyncing it is the portable
        // way to make its entries durable on Linux
        fs::File::open(dir)?.sync_all().inspect_err(note_enospc)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        VFS_OPS.inc();
        fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        VFS_OPS.inc();
        fs::remove_file(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        VFS_OPS.inc();
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        VFS_OPS.inc();
        fs::create_dir_all(dir).inspect_err(note_enospc)
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------------
// SimFs
// ---------------------------------------------------------------------------

/// Fault kinds [`SimFs`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The op fails with EIO; no state changes.
    Eio,
    /// The op fails with ENOSPC; no state changes.
    Enospc,
    /// A write/append applies only a prefix of its bytes, then fails
    /// with EIO — the torn file is visible to later readers.
    TornWrite,
    /// A read silently returns only a prefix of the file.
    ShortRead,
}

/// The operations [`SimFs`] classifies for fault targeting and crash
/// enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Append,
    Read,
    Write,
    SyncFile,
    SyncDir,
    Rename,
    Remove,
    ReadDir,
    CreateDir,
}

impl OpKind {
    /// Mutating ops are the crash points: each one is a moment the
    /// process could die with the disk in a distinct state.
    fn mutating(self) -> bool {
        !matches!(self, OpKind::Read | OpKind::ReadDir)
    }
}

/// A targeted injection: the next `remaining` ops matching `op` /
/// `path_substr` fail with `kind`.
#[derive(Debug, Clone)]
pub struct FaultRule {
    pub kind: FaultKind,
    /// Restrict to one op kind (`None` = any).
    pub op: Option<OpKind>,
    /// Restrict to paths containing this substring (`None` = any).
    pub path_substr: Option<String>,
    /// How many times this rule may fire before it is exhausted.
    pub remaining: u32,
}

impl FaultRule {
    pub fn new(kind: FaultKind) -> Self {
        FaultRule {
            kind,
            op: None,
            path_substr: None,
            remaining: u32::MAX,
        }
    }
    pub fn on_op(mut self, op: OpKind) -> Self {
        self.op = Some(op);
        self
    }
    pub fn on_path(mut self, substr: &str) -> Self {
        self.path_substr = Some(substr.to_string());
        self
    }
    pub fn times(mut self, n: u32) -> Self {
        self.remaining = n;
        self
    }
}

/// Seeded per-op fault rates (deterministic: one LCG draw per op).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    pub seed: u64,
    pub eio_rate: f64,
    pub enospc_rate: f64,
    pub torn_rate: f64,
    pub short_read_rate: f64,
}

impl FaultPlan {
    /// No probabilistic faults.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            eio_rate: 0.0,
            enospc_rate: 0.0,
            torn_rate: 0.0,
            short_read_rate: 0.0,
        }
    }
}

/// How a [`SimFs::crash_image`] resolves state that was never fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashStyle {
    /// Worst case: only fsynced state survives. Unsynced directory
    /// entries vanish, unsynced bytes vanish — a file whose name was made
    /// durable (dir fsync) before its content was (file fsync) comes back
    /// with its last-synced bytes, possibly **empty**.
    Strict,
    /// Metadata-journaled filesystem: every visible directory entry
    /// survives, but unsynced file bytes are torn to a seeded prefix —
    /// the post-crash litter of tmp files and half-written tails.
    Torn,
}

#[derive(Debug, Clone, Default)]
struct Inode {
    /// Page-cache view: what readers see, what survives SIGKILL.
    visible: Vec<u8>,
    /// Content at the last `sync_file`: what survives power loss.
    durable: Vec<u8>,
}

#[derive(Default)]
struct SimState {
    /// Inode table; directory entries point into it.
    inodes: Vec<Inode>,
    /// Visible directory entries (path -> inode index).
    files: BTreeMap<PathBuf, usize>,
    /// Durable directory entries (what `sync_dir` has committed).
    durable_files: BTreeMap<PathBuf, usize>,
    /// Known directories (always durable: mkdir metadata is not the
    /// failure mode under study).
    dirs: Vec<PathBuf>,
    /// Targeted fault rules, checked in order.
    rules: Vec<FaultRule>,
    /// LCG state for the probabilistic plan and torn-prefix lengths.
    rng: u64,
    /// Mutating ops executed so far.
    mut_ops: u64,
    /// Mutating ops after which every op fails with `simfs: crashed`.
    crash_after: Option<u64>,
    /// Per-kind mutating-op counts (crash-coverage assertions).
    op_counts: BTreeMap<&'static str, u64>,
}

/// The in-memory page-cache-modeling filesystem. Cheap to clone state
/// out of; share one behind an `Arc` exactly like [`RealFs`].
pub struct SimFs {
    plan: FaultPlan,
    state: Mutex<SimState>,
    injected: AtomicU64,
}

impl fmt::Debug for SimFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.lock();
        f.debug_struct("SimFs")
            .field("files", &st.files.len())
            .field("mut_ops", &st.mut_ops)
            .finish()
    }
}

/// Normalize `.` / `..`-free relative components so `a/b` and `./a/b`
/// hit the same entry.
fn norm(path: &Path) -> PathBuf {
    let mut out = PathBuf::new();
    for c in path.components() {
        match c {
            Component::CurDir => {}
            other => out.push(other.as_os_str()),
        }
    }
    out
}

fn eio(msg: &str) -> io::Error {
    io::Error::other(format!("simfs: {msg}"))
}

fn enospc() -> io::Error {
    io::Error::new(io::ErrorKind::StorageFull, "simfs: no space left on device")
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("simfs: {} not found", path.display()),
    )
}

impl SimFs {
    /// A fresh, empty, fault-free filesystem.
    pub fn new(seed: u64) -> Arc<SimFs> {
        SimFs::with_faults(FaultPlan::none(seed))
    }

    /// A fresh filesystem with a probabilistic fault plan.
    pub fn with_faults(plan: FaultPlan) -> Arc<SimFs> {
        let rng = plan.seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        Arc::new(SimFs {
            plan,
            state: Mutex::new(SimState {
                rng,
                ..SimState::default()
            }),
            injected: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SimState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// This filesystem as a `Vfs` handle (the trait is implemented on
    /// `Arc<SimFs>` so one simulated disk can back several stores).
    pub fn handle(self: &Arc<Self>) -> Arc<dyn Vfs> {
        Arc::new(Arc::clone(self)) as Arc<dyn Vfs>
    }

    /// Add a targeted fault rule (checked before the probabilistic plan).
    pub fn inject(&self, rule: FaultRule) {
        self.lock().rules.push(rule);
    }

    /// Mutating ops executed so far — the number of distinct crash points
    /// a workload on this filesystem has passed through.
    pub fn mut_ops(&self) -> u64 {
        self.lock().mut_ops
    }

    /// Per-kind mutating-op counts (e.g. to assert a workload issued
    /// `SyncFile` and `SyncDir` ops at all).
    pub fn op_count(&self, kind: OpKind) -> u64 {
        *self.lock().op_counts.get(kind_name(kind)).unwrap_or(&0)
    }

    /// Faults this instance has injected.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// After `n` more mutating ops succeed, every subsequent op fails
    /// with a `simfs: crashed` error — the workload unwinds exactly as a
    /// process that stopped being scheduled.
    pub fn set_crash_after(&self, n: u64) {
        let mut st = self.lock();
        let at = st.mut_ops + n;
        st.crash_after = Some(at);
    }

    /// The exact post-power-loss disk: a fresh fault-free [`SimFs`]
    /// holding only what `style` says survives. `seed` drives torn-prefix
    /// lengths deterministically.
    pub fn crash_image(&self, style: CrashStyle, seed: u64) -> Arc<SimFs> {
        let st = self.lock();
        let image = SimFs::new(seed);
        {
            let mut img = image.lock();
            img.dirs = st.dirs.clone();
            let mut tear_rng = seed.wrapping_mul(0x2545f4914f6cdd1d).max(1);
            let entries: Vec<(PathBuf, usize)> = match style {
                CrashStyle::Strict => st
                    .durable_files
                    .iter()
                    .map(|(p, i)| (p.clone(), *i))
                    .collect(),
                CrashStyle::Torn => st.files.iter().map(|(p, i)| (p.clone(), *i)).collect(),
            };
            for (path, idx) in entries {
                let inode = &st.inodes[idx];
                let content = match style {
                    CrashStyle::Strict => inode.durable.clone(),
                    CrashStyle::Torn => torn_content(inode, &mut tear_rng),
                };
                let id = img.inodes.len();
                img.inodes.push(Inode {
                    visible: content.clone(),
                    durable: content,
                });
                img.files.insert(path.clone(), id);
                img.durable_files.insert(path, id);
            }
        }
        image
    }

    /// Visible file contents (test/debug visibility).
    pub fn dump(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        let st = self.lock();
        st.files
            .iter()
            .map(|(p, i)| (p.clone(), st.inodes[*i].visible.clone()))
            .collect()
    }

    /// Check crash gate, bump counters, and roll the injection dice for
    /// one operation. Returns an injected fault to apply, if any.
    fn op(&self, kind: OpKind, path: &Path) -> io::Result<Option<FaultKind>> {
        VFS_OPS.inc();
        let mut st = self.lock();
        if kind.mutating() {
            if let Some(limit) = st.crash_after {
                if st.mut_ops >= limit {
                    return Err(eio("crashed (power lost)"));
                }
            }
            st.mut_ops += 1;
            *st.op_counts.entry(kind_name(kind)).or_insert(0) += 1;
        }
        // targeted rules first, in order
        let path_s = path.to_string_lossy().into_owned();
        for rule in st.rules.iter_mut() {
            if rule.remaining == 0 {
                continue;
            }
            if rule.op.is_some_and(|k| k != kind) {
                continue;
            }
            if rule
                .path_substr
                .as_ref()
                .is_some_and(|s| !path_s.contains(s.as_str()))
            {
                continue;
            }
            if !fault_applies(rule.kind, kind) {
                continue;
            }
            rule.remaining -= 1;
            self.injected.fetch_add(1, Ordering::Relaxed);
            VFS_INJECTED.inc();
            return Ok(Some(rule.kind));
        }
        // then the seeded probabilistic plan: one draw per op
        let draw = next_f64(&mut st.rng);
        let plan = &self.plan;
        let injected = if draw < plan.eio_rate && fault_applies(FaultKind::Eio, kind) {
            Some(FaultKind::Eio)
        } else if draw < plan.eio_rate + plan.enospc_rate && fault_applies(FaultKind::Enospc, kind)
        {
            Some(FaultKind::Enospc)
        } else if draw < plan.eio_rate + plan.enospc_rate + plan.torn_rate
            && fault_applies(FaultKind::TornWrite, kind)
        {
            Some(FaultKind::TornWrite)
        } else if draw < plan.eio_rate + plan.enospc_rate + plan.torn_rate + plan.short_read_rate
            && fault_applies(FaultKind::ShortRead, kind)
        {
            Some(FaultKind::ShortRead)
        } else {
            None
        };
        if injected.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
            VFS_INJECTED.inc();
        }
        Ok(injected)
    }

    /// A seeded prefix length in `[0, len]` for torn writes/short reads.
    fn tear_len(&self, len: usize) -> usize {
        let mut st = self.lock();
        let r = next_u64(&mut st.rng);
        if len == 0 {
            0
        } else {
            (r % (len as u64 + 1)) as usize
        }
    }
}

fn kind_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Append => "append",
        OpKind::Read => "read",
        OpKind::Write => "write",
        OpKind::SyncFile => "sync_file",
        OpKind::SyncDir => "sync_dir",
        OpKind::Rename => "rename",
        OpKind::Remove => "remove",
        OpKind::ReadDir => "read_dir",
        OpKind::CreateDir => "create_dir",
    }
}

/// Which fault kinds are meaningful for which ops.
fn fault_applies(fault: FaultKind, op: OpKind) -> bool {
    match fault {
        FaultKind::Eio => true,
        FaultKind::Enospc => matches!(
            op,
            OpKind::Write | OpKind::Append | OpKind::CreateDir | OpKind::SyncFile
        ),
        FaultKind::TornWrite => matches!(op, OpKind::Write | OpKind::Append),
        FaultKind::ShortRead => matches!(op, OpKind::Read),
    }
}

fn next_u64(state: &mut u64) -> u64 {
    // xorshift64*: deterministic, cheap, good enough for fault dice
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545f4914f6cdd1d)
}

fn next_f64(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Post-crash content of an inode under [`CrashStyle::Torn`]: the durable
/// bytes plus a seeded prefix of the unsynced delta (or a seeded prefix
/// of the visible bytes when the file was overwritten in place).
fn torn_content(inode: &Inode, rng: &mut u64) -> Vec<u8> {
    if inode.visible.starts_with(&inode.durable) {
        let delta = inode.visible.len() - inode.durable.len();
        let keep = if delta == 0 {
            0
        } else {
            (next_u64(rng) % (delta as u64 + 1)) as usize
        };
        inode.visible[..inode.durable.len() + keep].to_vec()
    } else {
        let keep = if inode.visible.is_empty() {
            0
        } else {
            (next_u64(rng) % (inode.visible.len() as u64 + 1)) as usize
        };
        inode.visible[..keep].to_vec()
    }
}

struct SimFile {
    fs: Arc<SimFs>,
    inode: usize,
}

impl VfsFile for SimFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let fault = self.fs.op(OpKind::Append, Path::new("<handle>"))?;
        match fault {
            Some(FaultKind::Eio) => Err(eio("injected EIO on append")).inspect_err(note_enospc),
            Some(FaultKind::Enospc) => {
                let e = enospc();
                note_enospc(&e);
                Err(e)
            }
            Some(FaultKind::TornWrite) => {
                let keep = self.fs.tear_len(buf.len());
                let mut st = self.fs.lock();
                let inode = &mut st.inodes[self.inode];
                inode.visible.extend_from_slice(&buf[..keep]);
                Err(eio("injected torn append"))
            }
            _ => {
                let mut st = self.fs.lock();
                st.inodes[self.inode].visible.extend_from_slice(buf);
                Ok(())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // appends land in the modeled page cache immediately; flushing
        // userspace buffers is not a crash point
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let fault = self.fs.op(OpKind::SyncFile, Path::new("<handle>"))?;
        VFS_SYNC_FILE.inc();
        if let Some(FaultKind::Eio | FaultKind::Enospc) = fault {
            let e = if fault == Some(FaultKind::Enospc) {
                enospc()
            } else {
                eio("injected EIO on fsync")
            };
            note_enospc(&e);
            return Err(e);
        }
        let mut st = self.fs.lock();
        let inode = &mut st.inodes[self.inode];
        inode.durable = inode.visible.clone();
        Ok(())
    }
}

/// `Vfs` for `Arc<SimFs>` so a single simulated disk can be handed to
/// several stores at once (journal + cache + modelstore in one image).
impl Vfs for Arc<SimFs> {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let path = norm(path);
        // opening is a metadata mutation only when it creates the file
        let fault = self.op(OpKind::Write, &path)?;
        if let Some(FaultKind::Eio) = fault {
            return Err(eio("injected EIO on open"));
        }
        if let Some(FaultKind::Enospc) = fault {
            let e = enospc();
            note_enospc(&e);
            return Err(e);
        }
        let mut st = self.lock();
        let inode = match st.files.get(&path) {
            Some(i) => *i,
            None => {
                let id = st.inodes.len();
                st.inodes.push(Inode::default());
                st.files.insert(path.clone(), id);
                id
            }
        };
        Ok(Box::new(SimFile {
            fs: Arc::clone(self),
            inode,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let path = norm(path);
        let fault = self.op(OpKind::Read, &path)?;
        if let Some(FaultKind::Eio) = fault {
            return Err(eio("injected EIO on read"));
        }
        let st = self.lock();
        let inode = st
            .files
            .get(&path)
            .copied()
            .ok_or_else(|| not_found(&path))?;
        let content = st.inodes[inode].visible.clone();
        drop(st);
        if let Some(FaultKind::ShortRead) = fault {
            let keep = self.tear_len(content.len());
            return Ok(content[..keep].to_vec());
        }
        Ok(content)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let path = norm(path);
        let fault = self.op(OpKind::Write, &path)?;
        match fault {
            Some(FaultKind::Eio) => return Err(eio("injected EIO on write")),
            Some(FaultKind::Enospc) => {
                let e = enospc();
                note_enospc(&e);
                return Err(e);
            }
            Some(FaultKind::TornWrite) => {
                let keep = self.tear_len(data.len());
                let mut st = self.lock();
                let id = st.inodes.len();
                st.inodes.push(Inode {
                    visible: data[..keep].to_vec(),
                    durable: Vec::new(),
                });
                st.files.insert(path, id);
                return Err(eio("injected torn write"));
            }
            _ => {}
        }
        let mut st = self.lock();
        // truncate-in-place keeps the inode (and its durable snapshot)
        match st.files.get(&path).copied() {
            Some(i) => st.inodes[i].visible = data.to_vec(),
            None => {
                let id = st.inodes.len();
                st.inodes.push(Inode {
                    visible: data.to_vec(),
                    durable: Vec::new(),
                });
                st.files.insert(path, id);
            }
        }
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let path = norm(path);
        let fault = self.op(OpKind::SyncFile, &path)?;
        VFS_SYNC_FILE.inc();
        if let Some(FaultKind::Eio | FaultKind::Enospc) = fault {
            let e = if fault == Some(FaultKind::Enospc) {
                enospc()
            } else {
                eio("injected EIO on fsync")
            };
            note_enospc(&e);
            return Err(e);
        }
        let mut st = self.lock();
        let inode = st
            .files
            .get(&path)
            .copied()
            .ok_or_else(|| not_found(&path))?;
        let visible = st.inodes[inode].visible.clone();
        st.inodes[inode].durable = visible;
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let dir = norm(dir);
        let fault = self.op(OpKind::SyncDir, &dir)?;
        VFS_SYNC_DIR.inc();
        if let Some(FaultKind::Eio) = fault {
            return Err(eio("injected EIO on dir fsync"));
        }
        let mut st = self.lock();
        // commit this directory's visible entries to the durable namespace
        let visible: Vec<(PathBuf, usize)> = st
            .files
            .iter()
            .filter(|(p, _)| p.parent() == Some(dir.as_path()))
            .map(|(p, i)| (p.clone(), *i))
            .collect();
        let stale: Vec<PathBuf> = st
            .durable_files
            .keys()
            .filter(|p| p.parent() == Some(dir.as_path()) && !st.files.contains_key(*p))
            .cloned()
            .collect();
        for (p, i) in visible {
            st.durable_files.insert(p, i);
        }
        for p in stale {
            st.durable_files.remove(&p);
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (from, to) = (norm(from), norm(to));
        let fault = self.op(OpKind::Rename, &from)?;
        if let Some(FaultKind::Eio) = fault {
            return Err(eio("injected EIO on rename"));
        }
        let mut st = self.lock();
        let inode = st.files.remove(&from).ok_or_else(|| not_found(&from))?;
        st.files.insert(to, inode);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let path = norm(path);
        let fault = self.op(OpKind::Remove, &path)?;
        if let Some(FaultKind::Eio) = fault {
            return Err(eio("injected EIO on remove"));
        }
        let mut st = self.lock();
        st.files.remove(&path).ok_or_else(|| not_found(&path))?;
        Ok(())
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let dir = norm(dir);
        let fault = self.op(OpKind::ReadDir, &dir)?;
        if let Some(FaultKind::Eio) = fault {
            return Err(eio("injected EIO on read_dir"));
        }
        let st = self.lock();
        if !st.dirs.contains(&dir) {
            return Err(not_found(&dir));
        }
        let mut names: Vec<String> = st
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir.as_path()))
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
            .collect();
        for d in &st.dirs {
            if d.parent() == Some(dir.as_path()) {
                if let Some(n) = d.file_name().and_then(|n| n.to_str()) {
                    names.push(n.to_string());
                }
            }
        }
        names.sort();
        names.dedup();
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let dir = norm(dir);
        let fault = self.op(OpKind::CreateDir, &dir)?;
        if let Some(FaultKind::Enospc) = fault {
            let e = enospc();
            note_enospc(&e);
            return Err(e);
        }
        if let Some(FaultKind::Eio) = fault {
            return Err(eio("injected EIO on mkdir"));
        }
        let mut st = self.lock();
        let mut cur = PathBuf::new();
        for c in dir.components() {
            cur.push(c.as_os_str());
            if !st.dirs.contains(&cur) {
                st.dirs.push(cur.clone());
            }
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let path = norm(path);
        let st = self.lock();
        st.files.contains_key(&path) || st.dirs.contains(&path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn write_is_visible_but_not_durable_until_sync() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("d")).unwrap();
        fs.write(&p("d/f"), b"hello").unwrap();
        assert_eq!(fs.read(&p("d/f")).unwrap(), b"hello");
        // no syncs: a strict crash loses everything
        let img = fs.crash_image(CrashStyle::Strict, 7);
        assert!(!img.exists(&p("d/f")), "unsynced file must not survive");
        // file fsync alone does not make the *name* durable
        fs.sync_file(&p("d/f")).unwrap();
        let img = fs.crash_image(CrashStyle::Strict, 7);
        assert!(
            !img.exists(&p("d/f")),
            "unsynced dir entry must not survive"
        );
        // file + dir fsync: fully durable
        fs.sync_dir(&p("d")).unwrap();
        let img = fs.crash_image(CrashStyle::Strict, 7);
        assert_eq!(img.read(&p("d/f")).unwrap(), b"hello");
    }

    #[test]
    fn dir_synced_before_file_gives_zero_length_survivor() {
        // the classic bug: publish the name, never fsync the content
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("d")).unwrap();
        fs.write(&p("d/f"), b"payload").unwrap();
        fs.sync_dir(&p("d")).unwrap();
        let img = fs.crash_image(CrashStyle::Strict, 7);
        assert_eq!(
            img.read(&p("d/f")).unwrap(),
            b"",
            "name durable, content not: the zero-length-file crash"
        );
    }

    #[test]
    fn rename_is_visible_immediately_durable_after_dir_sync() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("d")).unwrap();
        fs.write(&p("d/old"), b"v1").unwrap();
        fs.sync_file(&p("d/old")).unwrap();
        fs.sync_dir(&p("d")).unwrap();
        fs.write(&p("d/new.tmp"), b"v2").unwrap();
        fs.sync_file(&p("d/new.tmp")).unwrap();
        fs.rename(&p("d/new.tmp"), &p("d/old")).unwrap();
        assert_eq!(fs.read(&p("d/old")).unwrap(), b"v2", "rename visible");
        // crash before dir sync: the durable namespace still has v1
        let img = fs.crash_image(CrashStyle::Strict, 7);
        assert_eq!(img.read(&p("d/old")).unwrap(), b"v1");
        fs.sync_dir(&p("d")).unwrap();
        let img = fs.crash_image(CrashStyle::Strict, 7);
        assert_eq!(img.read(&p("d/old")).unwrap(), b"v2");
        assert!(!img.exists(&p("d/new.tmp")));
    }

    #[test]
    fn torn_crash_keeps_names_and_tears_unsynced_bytes() {
        let fs = SimFs::new(5);
        fs.create_dir_all(&p("d")).unwrap();
        fs.write(&p("d/f"), b"0123456789").unwrap();
        let img = fs.crash_image(CrashStyle::Torn, 11);
        assert!(img.exists(&p("d/f")), "torn style keeps visible names");
        let got = img.read(&p("d/f")).unwrap();
        assert!(
            b"0123456789".starts_with(got.as_slice()),
            "torn content must be a prefix, got {got:?}"
        );
    }

    #[test]
    fn append_handle_tracks_durability() {
        let fs = SimFs::new(9);
        fs.create_dir_all(&p("d")).unwrap();
        let mut f = fs.open_append(&p("d/log")).unwrap();
        f.write_all(b"line1\n").unwrap();
        f.sync().unwrap();
        f.write_all(b"line2\n").unwrap();
        fs.sync_dir(&p("d")).unwrap();
        let img = fs.crash_image(CrashStyle::Strict, 1);
        assert_eq!(
            img.read(&p("d/log")).unwrap(),
            b"line1\n",
            "only the synced prefix survives"
        );
        assert_eq!(fs.read(&p("d/log")).unwrap(), b"line1\nline2\n");
    }

    #[test]
    fn targeted_enospc_rule_fires_and_counts() {
        let fs = SimFs::new(2);
        fs.create_dir_all(&p("d")).unwrap();
        fs.inject(
            FaultRule::new(FaultKind::Enospc)
                .on_op(OpKind::Write)
                .on_path("victim")
                .times(1),
        );
        let err = fs.write(&p("d/victim"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(fs.injected(), 1);
        // rule exhausted: the retry succeeds
        fs.write(&p("d/victim"), b"x").unwrap();
        // unrelated paths were never affected
        fs.write(&p("d/other"), b"y").unwrap();
    }

    #[test]
    fn crash_gate_fails_everything_past_the_point() {
        let fs = SimFs::new(4);
        fs.create_dir_all(&p("d")).unwrap();
        fs.set_crash_after(1);
        fs.write(&p("d/a"), b"1").unwrap();
        assert!(fs.write(&p("d/b"), b"2").is_err(), "past the crash point");
        assert!(fs.sync_dir(&p("d")).is_err());
        // reads still work (the enumeration harness inspects state)
        assert_eq!(fs.read(&p("d/a")).unwrap(), b"1");
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        let run = || {
            let fs = SimFs::with_faults(FaultPlan {
                seed: 77,
                eio_rate: 0.2,
                enospc_rate: 0.1,
                torn_rate: 0.1,
                short_read_rate: 0.1,
            });
            fs.create_dir_all(&p("d")).unwrap();
            let mut outcomes = Vec::new();
            for i in 0..50 {
                outcomes.push(fs.write(&p(&format!("d/f{i}")), b"data").is_ok());
            }
            (outcomes, fs.injected())
        };
        assert_eq!(run(), run(), "same seed, same fault schedule");
    }
}
