//! The database: open/recover, read & write paths, background flush and
//! compaction, shutdown.

use crate::batch::WriteBatch;
use crate::bgerror::{BackgroundOp, ErrorHandler, ErrorSeverity};
use crate::cache::BlockCache;
use crate::compaction::{pick_compaction, run_compaction, CompactionCursors};
use crate::controller::{StallSignals, WriteController};
use crate::costs;
use crate::error::{DbError, DbResult};
use crate::integrity;
use crate::iterator::{DbIterator, InternalIterator, LevelIterator, MergingIterator};
use crate::memtable::MemTable;
use crate::options::{DbOptions, WalRecoveryMode};
use crate::scheduler::{BgIoLimiter, BgIoPriority};
use crate::space::{DeleteScheduler, SpaceManager};
use crate::sst::{
    sst_file_name, verify_table_file, TableBuilder, TableOptions, TableProbe, TableReader,
};
use crate::stall::PreprocessStalls;
use crate::stats::{DbStats, Metrics, Ticker};
use crate::types::{self, SequenceNumber, ValueType};
use crate::version::{FileMetaData, Version, VersionEdit, VersionSet};
use crate::wal::{read_wal, scan_wal, wal_file_name, WalWriter};
use crate::write::{WriteBackend, WriteQueue};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use xlsm_sim::sync::{channel, Receiver, Semaphore, Sender};
use xlsm_sim::JoinHandle;
use xlsm_simfs::{FsError, SimFs};

/// Flush worker threads (the high-priority pool).
const MAX_BACKGROUND_FLUSHES: usize = 1;

/// Maximum bytes gathered into one write batch group.
const MAX_WRITE_BATCH_GROUP_SIZE: usize = 1 << 20;

/// Bounded retries for a retryable (transient) background I/O error before
/// it escalates to hard and the database goes read-only.
const MAX_BACKGROUND_ERROR_RETRIES: u32 = 6;

/// Backoff before the first background-error retry (1 ms); doubles on each
/// subsequent attempt.
const BACKGROUND_ERROR_RETRY_BACKOFF_NS: u64 = 1_000_000;

// ---------------------------------------------------------------------------
// Table cache
// ---------------------------------------------------------------------------

/// LRU state for the open-reader map: recency is a logical tick with a
/// lazily-invalidated queue, mirroring the block-cache shards so eviction
/// stays deterministic.
struct ReaderMap {
    map: std::collections::HashMap<u64, (Arc<TableReader>, u64)>,
    queue: std::collections::VecDeque<(u64, u64)>,
    tick: u64,
    /// Maximum cached readers (`0` = unbounded).
    cap: usize,
}

impl ReaderMap {
    fn touch(&mut self, number: u64) -> Option<Arc<TableReader>> {
        self.tick += 1;
        let tick = self.tick;
        let r = self.map.get_mut(&number).map(|(r, last)| {
            *last = tick;
            Arc::clone(r)
        });
        if r.is_some() {
            self.queue.push_back((number, tick));
            self.drain_stale();
        }
        r
    }

    fn insert(&mut self, number: u64, reader: Arc<TableReader>) -> Arc<TableReader> {
        self.tick += 1;
        let tick = self.tick;
        let out = Arc::clone(
            &self
                .map
                .entry(number)
                .or_insert_with(|| (reader, tick))
                // A racing open may have beaten us here; keep the first
                // reader, but refresh its recency either way.
                .0,
        );
        self.map.get_mut(&number).unwrap().1 = tick;
        self.queue.push_back((number, tick));
        while self.cap > 0 && self.map.len() > self.cap {
            match self.queue.pop_front() {
                Some((n, t)) => {
                    if matches!(self.map.get(&n), Some((_, last)) if *last == t) {
                        self.map.remove(&n);
                    }
                }
                None => break,
            }
        }
        self.drain_stale();
        out
    }

    /// Compacts the recency queue once stale entries dominate; afterwards
    /// it holds exactly one entry per cached reader. Amortized O(1).
    fn drain_stale(&mut self) {
        if self.queue.len() > 2 * self.map.len() {
            self.queue
                .retain(|(n, t)| matches!(self.map.get(n), Some((_, last)) if last == t));
        }
    }
}

/// One table-cache shard: its own LRU reader map plus a simulated critical
/// section. Under the cooperative virtual clock a `parking_lot` lock never
/// shows contention, so the serialized lookup cost the paper observes is
/// modeled explicitly: every lookup holds the shard's `gate` semaphore while
/// charging [`costs::TABLE_CACHE_FIND_NS`].
struct TableCacheShard {
    gate: Semaphore,
    readers: parking_lot::Mutex<ReaderMap>,
}

impl TableCacheShard {
    /// Runs `f` on the reader map inside the shard's simulated critical
    /// section, charging one lookup of CPU while the gate is held.
    fn locked<T>(&self, f: impl FnOnce(&mut ReaderMap) -> T) -> T {
        self.gate.acquire(1);
        xlsm_sim::sleep_nanos(costs::TABLE_CACHE_FIND_NS);
        let out = f(&mut self.readers.lock());
        self.gate.release(1);
        out
    }
}

/// Caches open [`TableReader`]s (bounded by `max_open_files`, LRU) and owns
/// the shared block cache. Sharded by file number so concurrent
/// `multi_get` probes do not serialize on a single lookup lock.
pub struct TableCache {
    fs: Arc<SimFs>,
    db_path: String,
    block_cache: Arc<BlockCache>,
    shards: Vec<TableCacheShard>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Verify the whole-file CRC recorded in the manifest on every
    /// cache-miss open (`DbOptions::paranoid_file_checks`).
    paranoid_file_checks: bool,
}

impl std::fmt::Debug for TableCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCache")
            .field("shards", &self.shards.len())
            .field("open_tables", &self.open_readers())
            .finish_non_exhaustive()
    }
}

impl TableCache {
    /// Creates a table cache over `fs` with a block cache of
    /// `block_cache_capacity` bytes, keeping at most `max_open_files`
    /// readers open (`0` = unbounded) across `shards` independent shards.
    /// With `paranoid_file_checks`, every cache-miss open re-reads the
    /// whole file and verifies it against the manifest-recorded CRC.
    pub fn new(
        fs: Arc<SimFs>,
        db_path: &str,
        block_cache_capacity: usize,
        max_open_files: usize,
        shards: usize,
        paranoid_file_checks: bool,
    ) -> Arc<TableCache> {
        let shards = shards.max(1);
        // Split the open-file budget evenly; each shard keeps at least one
        // reader so a tiny budget never thrashes to zero.
        let per_shard_cap = if max_open_files == 0 {
            0
        } else {
            (max_open_files / shards).max(1)
        };
        Arc::new(TableCache {
            fs,
            db_path: db_path.to_owned(),
            block_cache: BlockCache::new(block_cache_capacity),
            shards: (0..shards)
                .map(|_| TableCacheShard {
                    gate: Semaphore::new("table-cache-shard", 1),
                    readers: parking_lot::Mutex::new(ReaderMap {
                        map: std::collections::HashMap::new(),
                        queue: std::collections::VecDeque::new(),
                        tick: 0,
                        cap: per_shard_cap,
                    }),
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            paranoid_file_checks,
        })
    }

    fn shard_of(&self, number: u64) -> &TableCacheShard {
        // Fibonacci multiplicative hash: file numbers are sequential, so a
        // plain modulus would put consecutive L0 files in adjacent shards
        // but stripe badly once levels skip numbers.
        let mixed = number.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 32) as usize % self.shards.len()]
    }

    /// Opens (or returns the cached) reader for `meta`.
    ///
    /// # Errors
    ///
    /// Filesystem or corruption errors from opening the table.
    pub fn reader(&self, meta: &Arc<FileMetaData>) -> DbResult<Arc<TableReader>> {
        let shard = self.shard_of(meta.number);
        if let Some(r) = shard.locked(|m| m.touch(meta.number)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(r);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Open outside the shard gate (it performs reads).
        let file = self.fs.open(&sst_file_name(&self.db_path, meta.number))?;
        if self.paranoid_file_checks {
            if let Some(expected) = meta.file_crc {
                let actual = integrity::file_crc32c(&file, &mut |_| {})?;
                if actual != expected {
                    return Err(DbError::corruption_in(
                        sst_file_name(&self.db_path, meta.number),
                        format!(
                            "whole-file checksum mismatch at open: \
                             manifest {expected:#010x}, disk {actual:#010x}"
                        ),
                    ));
                }
            }
        }
        let reader = Arc::new(TableReader::open(
            file,
            meta.number,
            Arc::clone(&self.block_cache),
        )?);
        Ok(shard.locked(|m| m.insert(meta.number, reader)))
    }

    /// Currently cached open readers.
    pub fn open_readers(&self) -> usize {
        self.shards.iter().map(|s| s.readers.lock().map.len()).sum()
    }

    /// Lifetime `(hits, misses)` of reader lookups.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Drops cached state for a deleted file.
    pub fn evict(&self, number: u64) {
        self.shard_of(number).readers.lock().map.remove(&number);
        self.block_cache.remove_file(number);
    }

    /// The shared decoded-block cache.
    pub fn block_cache(&self) -> &Arc<BlockCache> {
        &self.block_cache
    }
}

// ---------------------------------------------------------------------------
// Memtable state
// ---------------------------------------------------------------------------

/// Builds a memtable configured from `opts`: whole-key memtable bloom bits
/// plus an expected-entry estimate derived from the write buffer size.
fn new_memtable(opts: &DbOptions, id: u64) -> Arc<MemTable> {
    // ≈ 48 bytes per skiplist entry (key + node overhead) is a deliberately
    // low per-entry estimate: overshooting `expected_entries` only rounds
    // the bloom up, it can never cause a false negative.
    let expected = (opts.write_buffer_size / 48).max(1);
    MemTable::with_options(
        id,
        opts.memtable_bloom_bits,
        expected,
        opts.protection_bytes_per_key > 0,
    )
}

/// Probes one memtable for `key`, consulting its whole-key bloom first when
/// enabled: a bloom rejection answers without walking the skiplist at all,
/// which is the entire point of `memtable_bloom_bits`.
fn mem_probe(
    m: &MemTable,
    key: &[u8],
    snapshot: SequenceNumber,
    stats: &DbStats,
) -> DbResult<Option<Option<Vec<u8>>>> {
    if m.bloom_enabled() {
        xlsm_sim::sleep_nanos(costs::BLOOM_CHECK_NS);
        if !m.may_contain(key) {
            stats.bump(Ticker::MemtableBloomUseful);
            return Ok(None);
        }
    }
    xlsm_sim::sleep_nanos(costs::skiplist_search_ns(
        m.num_entries().max(1),
        m.approximate_bytes().max(1) as u64,
    ));
    m.get(key, snapshot)
}

struct MemState {
    mutable: Arc<MemTable>,
    /// WAL backing the mutable memtable (None when WAL disabled).
    wal: Option<Arc<WalWriter>>,
    wal_number: u64,
    /// Immutable memtables with their WAL numbers, oldest first.
    immutables: Vec<(Arc<MemTable>, u64)>,
    next_mem_id: u64,
}

// ---------------------------------------------------------------------------
// Db
// ---------------------------------------------------------------------------

/// Summary of the LSM shape, for experiments and reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LsmShape {
    /// Files per level.
    pub files_per_level: Vec<usize>,
    /// Bytes per level.
    pub bytes_per_level: Vec<u64>,
    /// Immutable memtable count.
    pub immutables: usize,
    /// Mutable memtable fill in bytes.
    pub mutable_bytes: usize,
}

/// What [`Db::verify_checksums`] covered, for experiments and reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntegrityReport {
    /// Live SSTs verified block-by-block.
    pub sst_files: u64,
    /// Total SST bytes read and checksummed.
    pub sst_bytes: u64,
    /// Sealed WALs verified against their manifest-recorded CRCs.
    pub wal_files: u64,
    /// Total WAL bytes read and checksummed.
    pub wal_bytes: u64,
    /// MANIFEST records whose framing CRCs were verified.
    pub manifest_records: u64,
}

struct DbInner {
    opts: DbOptions,
    fs: Arc<SimFs>,
    wal_fs: Arc<SimFs>,
    versions: VersionSet,
    mem: parking_lot::Mutex<MemState>,
    table_cache: Arc<TableCache>,
    stats: Arc<DbStats>,
    controller: WriteController,
    /// Shared background-I/O budget flushes and compactions draw from
    /// (`bg_io_rate_bytes_per_sec`; disabled at rate 0).
    io_limiter: BgIoLimiter,
    queue: WriteQueue,
    write_buffer_size: AtomicUsize,
    snapshots: parking_lot::Mutex<Vec<SequenceNumber>>,
    shutdown: AtomicBool,
    l0_trigger_override: AtomicUsize,
    install_lock: Semaphore,
    flush_serial: Semaphore,
    flush_tx: Sender<()>,
    compact_tx: Sender<()>,
    compact_queued: AtomicUsize,
    in_compaction: parking_lot::Mutex<HashSet<u64>>,
    cursors: parking_lot::Mutex<CompactionCursors>,
    obsolete: parking_lot::Mutex<Vec<u64>>,
    bg: ErrorHandler,
    /// Background scrubber position (see [`DbInner::scrub_one`]).
    scrub: parking_lot::Mutex<ScrubState>,
    /// Space cap + background-output reservations
    /// (`max_allowed_space_bytes`).
    space: SpaceManager,
    /// Trash queue + pacing for rate-limited obsolete-SST deletion
    /// (`sst_delete_rate_bytes_per_sec`).
    trash: DeleteScheduler,
    /// Virtual time the current soft ENOSPC stall began (0 = not stalled);
    /// feeds the `enospc_stall` histogram when the `SpaceWatcher` resumes.
    enospc_stall_start: AtomicU64,
}

/// Cursor state for the background scrubber: it walks live SSTs in file-number
/// order, wrapping around at the end of each pass.
#[derive(Default)]
struct ScrubState {
    /// Highest file number verified so far in the current pass.
    cursor: u64,
    /// Virtual time the current pass started (0 = not started).
    pass_start_ns: u64,
    /// Files verified in the current pass.
    files_scanned: u64,
}

/// The key-value store handle. Cheap to clone via `Arc` semantics? No —
/// share by reference or wrap in `Arc<Db>`; the struct owns background
/// worker handles and must be [`Db::close`]d before the sim runtime exits.
pub struct Db {
    inner: Arc<DbInner>,
    workers: parking_lot::Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("path", &self.inner.opts.db_path)
            .finish_non_exhaustive()
    }
}

/// Write-path callbacks bound to the database.
struct DbBackend {
    inner: Arc<DbInner>,
}

impl DbInner {
    fn current_write_buffer_size(&self) -> usize {
        self.write_buffer_size.load(Ordering::Relaxed)
    }

    /// Options with any runtime overrides applied (currently the L0
    /// compaction trigger, used by the dynamic-L0 case study).
    fn effective_opts(&self) -> DbOptions {
        let mut opts = self.opts.clone();
        let trig = self.l0_trigger_override.load(Ordering::Relaxed);
        if trig > 0 {
            opts.level0_file_num_compaction_trigger = trig;
        }
        opts
    }

    fn stall_signals(&self) -> StallSignals {
        let version = self.versions.current();
        let (imm, mutable_full) = {
            let mem = self.mem.lock();
            (
                mem.immutables.len(),
                mem.mutable.approximate_bytes() >= self.current_write_buffer_size(),
            )
        };
        StallSignals {
            l0_files: version.num_l0_files(),
            // Memtables counted against the budget: immutables, plus the
            // mutable one once full (switching it would add an immutable).
            // The policy stops at `>= max_write_buffer_number`.
            memtables: imm + usize::from(mutable_full),
            pending_compaction_bytes: version.pending_compaction_bytes(&self.effective_opts()),
            compacted_bytes: self.stats.ticker(Ticker::FlushBytes)
                + self.stats.ticker(Ticker::CompactWriteBytes),
            bg_io_budget_bytes_per_sec: self.io_limiter.current_rate(),
        }
    }

    fn update_stall_conditions(&self) {
        let mut sig = self.stall_signals();
        // Auto-tune the background budget from the debt this update
        // measured, so the signals handed to the throttle policy carry the
        // budget actually in effect.
        self.io_limiter.retune(sig.pending_compaction_bytes);
        sig.bg_io_budget_bytes_per_sec = self.io_limiter.current_rate();
        self.controller.update(&sig, &self.effective_opts());
    }

    /// Draws `bytes` from the shared background-I/O budget and attributes
    /// the wait to `BgIoThrottledNs` + the `bg_io_wait` histogram.
    fn charge_bg_io(&self, bytes: u64, pri: BgIoPriority) {
        if !self.io_limiter.enabled() {
            return;
        }
        let waited = self.io_limiter.acquire(bytes, pri);
        self.stats.add(Ticker::BgIoThrottledNs, waited);
        self.stats.bg_io_wait.record(waited);
    }

    fn schedule_flush(&self) {
        let _ = self.flush_tx.send(());
    }

    fn maybe_schedule_compaction(&self) {
        if self.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let version = self.versions.current();
        let (_, score) = version.compaction_score(&self.effective_opts());
        if score >= 1.0 {
            let queued = self.compact_queued.load(Ordering::Relaxed);
            if queued < self.opts.max_background_compactions * 2 {
                self.compact_queued.fetch_add(1, Ordering::Relaxed);
                let _ = self.compact_tx.send(());
            }
        }
    }

    /// Rotates the mutable memtable to immutable, creating a fresh memtable
    /// and WAL. Caller must be the (serialized) write leader.
    fn switch_memtable(self: &Arc<Self>) -> DbResult<()> {
        // Create the new WAL outside any lock.
        let (new_wal, new_number) = if self.opts.enable_wal {
            let number = self.versions.new_file_number();
            let wal = WalWriter::create(
                &self.wal_fs,
                &self.opts.db_path,
                number,
                self.opts.wal_bytes_per_sync,
            )?;
            (Some(Arc::new(wal)), number)
        } else {
            (None, self.versions.new_file_number())
        };
        // Hold the memtable-stage permit across the swap: a concurrent
        // write group's members each apply straight into `mutable`, and
        // rotating it mid-group would strand part of the group in a
        // memtable that flush is already iterating. Callers (preprocess,
        // Db::flush) never hold the permit here, so this cannot deadlock.
        self.queue.lock_mem_stage();
        let (new_mem, old_wal) = {
            let mut mem = self.mem.lock();
            mem.next_mem_id += 1;
            let new_mem = new_memtable(&self.opts, mem.next_mem_id);
            let old_mem = std::mem::replace(&mut mem.mutable, Arc::clone(&new_mem));
            let old_wal_number = mem.wal_number;
            let old_wal = std::mem::replace(&mut mem.wal, new_wal);
            mem.wal_number = new_number;
            mem.immutables.push((old_mem, old_wal_number));
            (new_mem, old_wal.map(|w| (old_wal_number, w)))
        };
        self.queue.unlock_mem_stage();
        let _ = new_mem;
        // The sealed log will never be appended to again (the mem-stage
        // permit serialized us against in-flight groups), so its whole-file
        // CRC is final. Record it in the manifest for recovery to check.
        if let Some((old_number, wal)) = old_wal {
            let edit = VersionEdit {
                wal_crcs: vec![(old_number, wal.file_crc())],
                ..VersionEdit::default()
            };
            self.install_lock.acquire(1);
            let install = self.versions.log_and_apply(edit);
            self.install_lock.release(1);
            install.map_err(harden_install_error)?;
        }
        self.update_stall_conditions();
        self.schedule_flush();
        Ok(())
    }

    /// Bytes the database is accountable for under the space cap: live SST
    /// bytes in the current version plus the `trash/` backlog whose extents
    /// are still allocated while they await rate-limited deletion.
    fn accounted_space_bytes(&self) -> u64 {
        let version = self.versions.current();
        let live: u64 = (0..version.levels.len())
            .map(|l| version.level_bytes(l))
            .sum();
        live.saturating_add(self.trash.queued_bytes())
    }

    /// Disposes of one obsolete SST. With the delete scheduler enabled the
    /// file is renamed into `trash/` — atomic, crash-durable, and invisible
    /// to the live set from that instant, while its extents stay allocated
    /// until the paced reaper gets to it. Otherwise it is deleted inline
    /// (the legacy path).
    fn dispose_obsolete_sst(&self, number: u64) -> Result<(), FsError> {
        let path = sst_file_name(&self.opts.db_path, number);
        if !self.trash.enabled() {
            return match self.fs.delete(&path) {
                Ok(()) | Err(FsError::NotFound(_)) => Ok(()),
                Err(e) => Err(e),
            };
        }
        let bytes = match self.fs.open(&path) {
            Ok(f) => f.len(),
            Err(FsError::NotFound(_)) => return Ok(()), // already gone
            Err(e) => return Err(e),
        };
        let dest = trash_file_name(&self.opts.db_path, number);
        match self.fs.rename(&path, &dest) {
            Ok(()) => {
                self.stats.add(Ticker::TrashedBytes, bytes);
                self.trash.schedule(dest, bytes);
                Ok(())
            }
            Err(FsError::NotFound(_)) => Ok(()),
            // A crash between a rename and its obsolete-queue entry being
            // dropped can leave the destination occupied; the trash sweep
            // at open owns that copy, so delete ours directly.
            Err(FsError::AlreadyExists(_)) => match self.fs.delete(&path) {
                Ok(()) | Err(FsError::NotFound(_)) => Ok(()),
                Err(e) => Err(e),
            },
            Err(e) => Err(e),
        }
    }

    /// Deletes (or trashes) SSTs queued as obsolete that no live version
    /// references. A failed disposal re-queues the file and records the
    /// error; it is retried at the next purge and never makes data unsafe,
    /// so the database stays writable.
    fn purge_obsolete(&self) {
        let candidates: Vec<u64> = std::mem::take(&mut *self.obsolete.lock());
        if candidates.is_empty() {
            return;
        }
        let live = self.versions.live_files();
        let mut still_pinned = Vec::new();
        let mut had_error = false;
        for n in candidates {
            if live.contains(&n) {
                still_pinned.push(n);
            } else {
                self.table_cache.evict(n);
                match self.dispose_obsolete_sst(n) {
                    Ok(()) => {}
                    Err(e) => {
                        had_error = true;
                        still_pinned.push(n);
                        self.stats.bump(Ticker::BackgroundErrors);
                        let _ = self.bg.record(BackgroundOp::ObsoletePurge, e.into(), 0);
                    }
                }
            }
        }
        self.obsolete.lock().extend(still_pinned);
        if !had_error && !self.bg.is_read_only() {
            // A fully clean purge resolves an earlier purge failure.
            if matches!(self.bg.current(), Some(b) if b.op == BackgroundOp::ObsoletePurge) {
                self.bg.clear();
            }
        }
    }

    /// Deletes one file from the trash queue, paced to
    /// `sst_delete_rate_bytes_per_sec`. Returns `Ok(false)` when the queue
    /// is empty. A failed delete re-queues the entry; the file is disposed
    /// of exactly once either way.
    fn reap_trash_one(&self) -> DbResult<bool> {
        if self.fs.is_powered_off() {
            // A dead device owns its contents; the sweep at reopen will
            // re-queue whatever is still in trash/.
            return Ok(false);
        }
        let Some(entry) = self.trash.pop() else {
            return Ok(false);
        };
        self.trash.pace(entry.bytes);
        match self.fs.delete(&entry.path) {
            Ok(()) | Err(FsError::NotFound(_)) => {
                self.stats.add(Ticker::SpaceReclaimedBytes, entry.bytes);
                Ok(true)
            }
            Err(e) => {
                self.trash.schedule(entry.path, entry.bytes);
                Err(e.into())
            }
        }
    }

    /// Deletes WAL files with number < the version set's log watermark.
    /// Failures are recorded (`WalPurgeFailures` + the background-error
    /// state) and the file is retried at the next purge pass; they were
    /// previously swallowed silently.
    fn purge_old_wals(&self) {
        let watermark = self.versions.log_number();
        let prefix = format!("{}/", self.opts.db_path);
        let mut had_error = false;
        for path in self.wal_fs.list(&prefix) {
            if path[prefix.len()..].contains('/') {
                continue; // files archived under lost/ are not ours to reap
            }
            if let Some(number) = parse_file_number(&path, ".log") {
                if number < watermark {
                    match self.wal_fs.delete(&path) {
                        Ok(()) | Err(FsError::NotFound(_)) => {}
                        Err(e) => {
                            had_error = true;
                            self.stats.bump(Ticker::WalPurgeFailures);
                            self.stats.bump(Ticker::BackgroundErrors);
                            let _ = self.bg.record(BackgroundOp::WalPurge, e.into(), 0);
                        }
                    }
                }
            }
        }
        if !had_error && !self.bg.is_read_only() {
            // A fully clean pass resolves an earlier purge failure.
            if matches!(self.bg.current(), Some(b) if b.op == BackgroundOp::WalPurge) {
                self.bg.clear();
            }
        }
    }

    // -- space watcher ------------------------------------------------------

    /// One `SpaceWatcher` poll: while the database is soft-stalled on
    /// ENOSPC, check whether headroom has returned (the cap was raised,
    /// trash was reaped, or device space freed) and auto-resume — clear the
    /// error, lift the external writer stop, and reschedule the stalled
    /// work. A power cut observed mid-stall ends the incarnation instead:
    /// the stall escalates to read-only so parked writers fail fast rather
    /// than hang on a dead device.
    fn space_watch_tick(self: &Arc<Self>) {
        if !self.bg.is_soft_stalled() {
            return;
        }
        if self.fs.is_powered_off() {
            self.bg.escalate();
            self.enter_read_only_mode();
            return;
        }
        // Headroom test: the next flush's estimated output must fit both
        // under the cap and in the device's actual free space.
        let needed = {
            let mem = self.mem.lock();
            mem.immutables
                .first()
                .map(|(m, _)| m.approximate_bytes() as u64)
                .unwrap_or_else(|| mem.mutable.approximate_bytes() as u64)
        };
        let page = xlsm_device::PAGE_SIZE as u64;
        let device_free = self.fs.free_space_pages().saturating_mul(page);
        if self.space.would_fit(needed, self.accounted_space_bytes()) && device_free >= needed {
            let t0 = self.enospc_stall_start.swap(0, Ordering::Relaxed);
            if t0 > 0 {
                self.stats
                    .enospc_stall
                    .record(xlsm_sim::now_nanos().saturating_sub(t0));
            }
            self.bg.clear();
            self.controller.set_external_stop(false);
            self.stats.bump(Ticker::BackgroundAutoResumes);
            self.update_stall_conditions();
            self.schedule_flush();
            self.maybe_schedule_compaction();
        }
    }

    // -- scrubbing ---------------------------------------------------------

    /// Verifies one live SST against its recorded checksums and advances the
    /// scrub cursor (file-number order, wrapping at the end of a pass).
    ///
    /// Reads are paced to `scrub_rate_bytes_per_sec` so the scrubber's I/O
    /// cost is honest but bounded. Returns `Ok(false)` when scrubbing is
    /// disabled or there is nothing to scan; corruption errors propagate to
    /// [`DbInner::run_background_job`], which counts them and flips the
    /// database read-only.
    fn scrub_one(self: &Arc<Self>) -> DbResult<bool> {
        let rate = self.opts.scrub_rate_bytes_per_sec;
        if rate == 0 {
            return Ok(false);
        }
        let version = self.versions.current();
        let mut metas: Vec<Arc<FileMetaData>> = version.levels.iter().flatten().cloned().collect();
        metas.sort_by_key(|m| m.number);
        metas.dedup_by_key(|m| m.number);
        if metas.is_empty() {
            return Ok(false);
        }
        let meta = {
            let mut state = self.scrub.lock();
            if state.pass_start_ns == 0 {
                state.pass_start_ns = xlsm_sim::now_nanos();
            }
            match metas.iter().find(|m| m.number > state.cursor) {
                Some(m) => {
                    state.cursor = m.number;
                    state.files_scanned += 1;
                    Arc::clone(m)
                }
                None => {
                    // Pass complete: record its duration, wrap around.
                    if state.files_scanned > 0 {
                        self.stats
                            .scrub_pass
                            .record(xlsm_sim::now_nanos() - state.pass_start_ns);
                    }
                    state.pass_start_ns = xlsm_sim::now_nanos();
                    state.files_scanned = 1;
                    let m = Arc::clone(&metas[0]);
                    state.cursor = m.number;
                    m
                }
            }
        };
        let path = sst_file_name(&self.opts.db_path, meta.number);
        let file = match self.fs.open(&path) {
            Ok(f) => f,
            // Compacted away between the version snapshot and the open.
            Err(FsError::NotFound(_)) => return Ok(true),
            Err(e) => return Err(e.into()),
        };
        let mut pacer = |bytes: u64| {
            xlsm_sim::sleep_nanos(bytes.saturating_mul(1_000_000_000) / rate);
        };
        let result = (|| {
            if let Some(expected) = meta.file_crc {
                let actual = integrity::file_crc32c(&file, &mut pacer)?;
                if actual != expected {
                    // Localize the damage: a block-level walk usually pins
                    // the corrupt offset; if every block passes (e.g. the
                    // flip is in a spot the whole-file CRC alone covers),
                    // report the file-level mismatch.
                    verify_table_file(&file, meta.number, &mut pacer)?;
                    return Err(DbError::corruption_in(
                        path.clone(),
                        format!(
                            "whole-file checksum mismatch: \
                             manifest {expected:#010x}, disk {actual:#010x}"
                        ),
                    ));
                }
                Ok(file.len())
            } else {
                verify_table_file(&file, meta.number, &mut pacer)
            }
        })();
        match result {
            Ok(bytes) => {
                self.stats.add(Ticker::ScrubBytesVerified, bytes);
                Ok(true)
            }
            Err(e) => {
                if matches!(e, DbError::Corruption(_)) {
                    self.stats.bump(Ticker::ScrubCorruptionsFound);
                }
                Err(e)
            }
        }
    }

    // -- flush ------------------------------------------------------------

    fn flush_one(self: &Arc<Self>) -> DbResult<bool> {
        // Serialize flush jobs (RocksDB flushes one memtable at a time).
        self.flush_serial.acquire(1);
        let result = self.flush_one_locked();
        self.flush_serial.release(1);
        result
    }

    fn flush_one_locked(self: &Arc<Self>) -> DbResult<bool> {
        let (mem, _wal_number) = {
            let state = self.mem.lock();
            match state.immutables.first() {
                Some((m, w)) => (Arc::clone(m), *w),
                None => return Ok(false),
            }
        };
        let t0 = xlsm_sim::now_nanos();
        // Pre-reserve the flush's estimated output under the space cap
        // before writing a byte: with the cap held below device capacity,
        // the WAL (which shares the device) is never the thing that hits
        // ENOSPC — the flush is, here, before any I/O, and the failure
        // takes the soft stall-and-resume path.
        let space_reserve = mem.approximate_bytes() as u64;
        if !self
            .space
            .try_reserve(space_reserve, self.accounted_space_bytes())
        {
            return Err(DbError::Fs(FsError::DeviceFull));
        }
        let number = self.versions.new_file_number();
        let sst_path = sst_file_name(&self.opts.db_path, number);
        let build = (|| {
            let file = self.fs.create(&sst_path)?;
            let mut builder = TableBuilder::with_options(file, TableOptions::from(&self.opts));
            let mut iter = mem.iter();
            let mut ok = InternalIterator::seek_to_first(&mut iter)?;
            let mut cpu = 0u64;
            while ok {
                iter.verify_entry()?;
                builder.add(iter.key(), iter.value())?;
                cpu += costs::FLUSH_ENTRY_NS;
                if cpu >= 256 * costs::FLUSH_ENTRY_NS {
                    xlsm_sim::sleep_nanos(cpu);
                    cpu = 0;
                }
                ok = InternalIterator::next(&mut iter)?;
            }
            if cpu > 0 {
                xlsm_sim::sleep_nanos(cpu);
            }
            builder.finish()
        })();
        let props = match build {
            Ok(props) => props,
            Err(e) => {
                // Drop the partial output so a retried flush starts clean;
                // the immutable memtable stays queued for the retry.
                let _ = self.fs.delete(&sst_path);
                self.space.release(space_reserve);
                return Err(e);
            }
        };
        // Settle the flush's bytes against the shared background budget at
        // flush priority: queued compactions must leave room for it.
        self.charge_bg_io(props.file_size, BgIoPriority::Flush);

        // Install.
        self.install_lock.acquire(1);
        let log_watermark = {
            let state = self.mem.lock();
            state
                .immutables
                .iter()
                .skip(1)
                .map(|(_, w)| *w)
                .chain(std::iter::once(state.wal_number))
                .min()
                .unwrap_or(state.wal_number)
        };
        let mut edit = VersionEdit::default();
        edit.added.push((
            0,
            FileMetaData {
                number,
                file_size: props.file_size,
                smallest: props.smallest,
                largest: props.largest,
                num_entries: props.num_entries,
                file_crc: Some(props.file_crc),
            },
        ));
        edit.log_number = Some(log_watermark);
        let install = self.versions.log_and_apply(edit);
        self.install_lock.release(1);
        // Installed (or abandoned) output stops being a reservation — on
        // success it is counted as live bytes from here on.
        self.space.release(space_reserve);
        if let Err(e) = install {
            // The manifest record may or may not be durable — its state is
            // unknown, so the error is never retryable. The built SST stays
            // on disk: if the edit did land, deleting it would leave the
            // manifest pointing at a missing file.
            return Err(harden_install_error(e));
        }

        {
            let mut state = self.mem.lock();
            debug_assert!(Arc::ptr_eq(&state.immutables[0].0, &mem));
            state.immutables.remove(0);
        }
        self.stats.bump(Ticker::FlushCount);
        self.stats.add(Ticker::FlushBytes, props.file_size);
        self.stats.flush_duration.record(xlsm_sim::now_nanos() - t0);
        self.purge_old_wals();
        self.update_stall_conditions();
        self.maybe_schedule_compaction();
        Ok(true)
    }

    // -- compaction --------------------------------------------------------

    fn compact_one(self: &Arc<Self>) -> DbResult<bool> {
        let effective = self.effective_opts();
        // Headroom rule: a compaction whose estimated output (bounded by
        // its input bytes — merging only shrinks) cannot fit under the
        // space cap never starts. The picker masks that level and falls
        // back to smaller eligible work instead.
        let accounted = self.accounted_space_bytes();
        let fits = |t: &crate::compaction::CompactionTask| {
            if t.is_trivial_move || self.space.would_fit(t.input_bytes(), accounted) {
                true
            } else {
                self.stats.bump(Ticker::SpaceCompactionsDeferred);
                false
            }
        };
        let task = {
            let version = self.versions.current();
            let in_progress = self.in_compaction.lock();
            let mut cursors = self.cursors.lock();
            pick_compaction(
                &version,
                &effective,
                &in_progress,
                &mut cursors,
                &*self.opts.compaction_scheduler,
                &fits,
            )
        };
        let Some(task) = task else {
            return Ok(false);
        };
        // Reserve the estimated output for real (the pick-time check was
        // advisory; a concurrent flush may have claimed the headroom).
        let space_reserve = if task.is_trivial_move {
            0
        } else {
            task.input_bytes()
        };
        if space_reserve > 0
            && !self
                .space
                .try_reserve(space_reserve, self.accounted_space_bytes())
        {
            self.stats.bump(Ticker::SpaceCompactionsDeferred);
            return Ok(false);
        }
        match self.opts.compaction_scheduler.name() {
            "greedy" => self.stats.bump(Ticker::CompactionsScheduledGreedy),
            "round-robin" => self.stats.bump(Ticker::CompactionsScheduledRoundRobin),
            "fair" => self.stats.bump(Ticker::CompactionsScheduledFair),
            _ => {}
        }
        {
            let mut in_progress = self.in_compaction.lock();
            for n in task.input_numbers() {
                in_progress.insert(n);
            }
        }
        let t0 = xlsm_sim::now_nanos();
        let min_snapshot = self
            .snapshots
            .lock()
            .iter()
            .min()
            .copied()
            .unwrap_or_else(|| self.versions.last_sequence());
        // A real merge reads every input byte; settle that against the
        // shared budget before touching the device (trivial moves are
        // metadata-only and free). Compaction priority: any flush that has
        // registered bytes overtakes us at the bucket.
        if !task.is_trivial_move {
            self.charge_bg_io(task.input_bytes(), BgIoPriority::Compaction);
        }
        let inner = Arc::clone(self);
        let result = run_compaction(
            &task,
            &self.fs,
            &self.opts.db_path,
            &self.table_cache,
            &self.stats,
            &self.opts,
            Arc::new(move || inner.versions.new_file_number()),
            min_snapshot,
        );
        let edit = match result {
            Ok(edit) => edit,
            Err(e) => {
                let mut in_progress = self.in_compaction.lock();
                for n in task.input_numbers() {
                    in_progress.remove(&n);
                }
                drop(in_progress);
                self.space.release(space_reserve);
                return Err(e);
            }
        };
        if !task.is_trivial_move {
            // …and the bytes the merge wrote back out.
            let out_bytes: u64 = edit.added.iter().map(|(_, f)| f.file_size).sum();
            self.charge_bg_io(out_bytes, BgIoPriority::Compaction);
        }
        self.install_lock.acquire(1);
        let install = self.versions.log_and_apply(edit);
        self.install_lock.release(1);
        {
            let mut in_progress = self.in_compaction.lock();
            for n in task.input_numbers() {
                in_progress.remove(&n);
            }
        }
        // Installed (or abandoned) outputs count as live bytes, not a
        // reservation, from here on.
        self.space.release(space_reserve);
        // Manifest state is unknown after an install failure: hard error,
        // and the outputs stay on disk in case the edit landed.
        install.map_err(harden_install_error)?;
        if !task.is_trivial_move {
            self.obsolete.lock().extend(task.input_numbers());
            self.purge_obsolete();
        }
        self.stats.bump(Ticker::CompactionCount);
        self.stats
            .compaction_duration
            .record(xlsm_sim::now_nanos() - t0);
        self.update_stall_conditions();
        self.maybe_schedule_compaction();
        Ok(true)
    }

    // -- background-error handling ------------------------------------------

    /// Runs one background job with RocksDB-style error handling: transient
    /// I/O errors are retried with bounded exponential backoff (auto-resume
    /// on success); hard errors — corruption, power loss, exhausted retries
    /// — transition the database to read-only, where writes fail fast with
    /// [`DbError::ReadOnly`] while reads keep serving. Workers never panic.
    fn run_background_job(self: &Arc<Self>, op: BackgroundOp) {
        let mut retries = 0u32;
        loop {
            if self.shutdown.load(Ordering::Relaxed) || self.bg.is_read_only() {
                return;
            }
            let result = match op {
                BackgroundOp::Flush => self.flush_one().map(|_| ()),
                BackgroundOp::Compaction => self.compact_one().map(|_| ()),
                BackgroundOp::ObsoletePurge => {
                    self.purge_obsolete();
                    Ok(())
                }
                BackgroundOp::WalPurge => {
                    self.purge_old_wals();
                    Ok(())
                }
                BackgroundOp::TrashReap => self.reap_trash_one().map(|_| ()),
                BackgroundOp::Scrub => self.scrub_one().map(|_| ()),
            };
            let e = match result {
                Ok(()) => {
                    if retries > 0 && !self.bg.is_read_only() {
                        self.bg.clear();
                        self.stats.bump(Ticker::BackgroundAutoResumes);
                        self.update_stall_conditions();
                    }
                    return;
                }
                Err(e) => e,
            };
            if matches!(e, DbError::Corruption(_)) {
                self.stats.bump(Ticker::CorruptionDetected);
                if !self.opts.paranoid_checks && op == BackgroundOp::Compaction {
                    // Without paranoid checks a corrupt compaction input
                    // abandons that compaction but keeps the database
                    // writable (the inputs stay in place).
                    self.stats.bump(Ticker::BackgroundErrors);
                    return;
                }
            }
            self.stats.bump(Ticker::BackgroundErrors);
            let severity = self.bg.record(op, e, retries);
            if severity == ErrorSeverity::Soft {
                // Soft ENOSPC: park writers behind the controller's
                // external stop — they stall, never fail — and leave the
                // job queued (the immutable memtable stays in place). The
                // SpaceWatcher clears the stop once headroom returns and
                // reschedules this work.
                if self
                    .enospc_stall_start
                    .compare_exchange(
                        0,
                        xlsm_sim::now_nanos().max(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    self.stats.bump(Ticker::EnospcStalls);
                }
                self.controller.set_external_stop(true);
                return;
            }
            if severity == ErrorSeverity::Retryable && retries < MAX_BACKGROUND_ERROR_RETRIES {
                self.stats.bump(Ticker::BackgroundErrorRetries);
                let backoff =
                    BACKGROUND_ERROR_RETRY_BACKOFF_NS.saturating_mul(1u64 << retries.min(20));
                retries += 1;
                xlsm_sim::sleep_nanos(backoff.max(1));
                continue;
            }
            self.bg.escalate();
            self.enter_read_only_mode();
            return;
        }
    }

    /// Transitions to read-only mode and force-releases any writers stalled
    /// inside the controller so they can observe the error and fail fast.
    fn enter_read_only_mode(&self) {
        if !self.bg.is_read_only() {
            self.bg.enter_read_only();
            self.stats.bump(Ticker::ReadOnlyTransitions);
        }
        self.controller.force_release(true);
    }
}

/// One file's worth of a MultiGet batch: the SST to open plus every probe
/// it must answer.
struct ProbeJob {
    level: usize,
    file: Arc<FileMetaData>,
    probes: Vec<TableProbe>,
}

/// A MultiGet probe hit: `(batch slot, level, internal key, value)`.
type ProbeHit = (usize, usize, Vec<u8>, Vec<u8>);

/// Probes each job's table once with its whole probe set, returning
/// `(slot, level, ikey, value)` hits. Runs on a MultiGet probe thread (or
/// inline when the batch doesn't warrant fan-out).
fn run_probe_jobs(
    table_cache: &Arc<TableCache>,
    stats: &Arc<DbStats>,
    jobs: &[ProbeJob],
) -> DbResult<Vec<ProbeHit>> {
    let mut hits = Vec::new();
    for job in jobs {
        if job.level == 0 {
            stats.add(Ticker::L0FilesSearched, job.probes.len() as u64);
        }
        let reader = table_cache.reader(&job.file)?;
        for (slot, (ikey, value)) in reader.get_many(&job.probes, stats)? {
            hits.push((slot, job.level, ikey, value));
        }
    }
    Ok(hits)
}

/// Maps a failed MANIFEST install to a non-retryable error: the record may
/// or may not have become durable, so blindly re-running the job could
/// apply the same edit twice.
fn harden_install_error(e: DbError) -> DbError {
    match e {
        DbError::Io { source, .. } => DbError::Io {
            retryable: false,
            source,
        },
        other => other,
    }
}

fn parse_file_number(path: &str, suffix: &str) -> Option<u64> {
    let name = path.rsplit('/').next()?;
    name.strip_suffix(suffix)?.parse().ok()
}

/// Where an obsolete SST lives between being trashed and being reaped.
fn trash_file_name(db_path: &str, number: u64) -> String {
    format!("{db_path}/trash/{number:06}.sst")
}

/// The smallest user key greater than *every* key starting with `prefix`
/// (`None` when no upper bound exists, i.e. `prefix` is empty or all
/// `0xff`). Together with `prefix` itself this brackets exactly the
/// starts-with set: `k` starts with `prefix` ⇔ `prefix ≤ k < successor`.
fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last == 0xff {
            out.pop();
        } else {
            *last += 1;
            return Some(out);
        }
    }
    None
}

impl WriteBackend for DbBackend {
    fn preprocess(&self, group_bytes: u64) -> DbResult<PreprocessStalls> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Relaxed) {
            return Err(DbError::ShuttingDown);
        }
        if let Some(e) = inner.bg.read_only_error() {
            return Err(e);
        }
        let mut stalls = PreprocessStalls::default();
        loop {
            // Stop conditions (Algorithm 1's stop threshold, memtable limit).
            let stopped_ns = inner.controller.wait_while_stopped();
            if stopped_ns > 0 {
                inner.stats.bump(Ticker::StallStoppedWrites);
                inner.stats.add(Ticker::StallMicros, stopped_ns / 1_000);
                stalls.stop_wait_ns += stopped_ns;
            }
            // A hard background error force-releases stalled writers; they
            // must fail fast rather than re-enter the stall loop.
            if let Some(e) = inner.bg.read_only_error() {
                return Err(e);
            }
            // Delay (Algorithm 1's DELAYWRITE pacing).
            let delay = inner.controller.delay_for_write(group_bytes);
            if delay > 0 {
                inner.stats.bump(Ticker::StallDelayedWrites);
                inner.stats.add(Ticker::StallMicros, delay / 1_000);
                xlsm_sim::sleep_nanos(delay);
                stalls.delay_sleep_ns += delay;
            }
            // Room in the mutable memtable.
            let (mutable_full, imm_count) = {
                let mem = inner.mem.lock();
                (
                    mem.mutable.approximate_bytes() >= inner.current_write_buffer_size(),
                    mem.immutables.len(),
                )
            };
            if !mutable_full {
                return Ok(stalls);
            }
            if imm_count + 1 >= inner.opts.max_write_buffer_number {
                // Switching now would exceed the memtable budget: raise the
                // stop condition and wait for a flush.
                inner.update_stall_conditions();
                if !inner.controller.is_stopped() {
                    // Flush just finished between our check and update;
                    // retry.
                    continue;
                }
                continue;
            }
            inner.switch_memtable()?;
        }
    }

    fn allocate_seq(&self, count: u64) -> u64 {
        self.inner.versions.allocate_sequences(count)
    }

    fn reserve_seq(&self, count: u64) -> u64 {
        self.inner.versions.reserve_sequences(count)
    }

    fn publish_seq(&self, last: u64) {
        self.inner.versions.publish_sequence(last);
    }

    fn write_wal(&self, group: &WriteBatch) -> DbResult<()> {
        if !self.inner.opts.enable_wal {
            return Ok(());
        }
        let wal = {
            let mem = self.inner.mem.lock();
            mem.wal.clone()
        };
        let Some(wal) = wal else {
            return Ok(());
        };
        let t0 = xlsm_sim::now_nanos();
        let written = wal.append(group.data(), self.inner.opts.wal_sync)?;
        self.inner.stats.add(Ticker::WalBytes, written);
        if self.inner.opts.wal_sync {
            self.inner.stats.bump(Ticker::WalSyncs);
        }
        self.inner
            .stats
            .wal_append
            .record(xlsm_sim::now_nanos() - t0);
        Ok(())
    }

    fn write_memtable(&self, group: &WriteBatch) -> DbResult<()> {
        let mem = {
            let state = self.inner.mem.lock();
            Arc::clone(&state.mutable)
        };
        let entries = mem.num_entries();
        let bytes = mem.approximate_bytes() as u64;
        let per_insert = costs::skiplist_insert_ns(entries.max(1), bytes.max(1));
        xlsm_sim::sleep_nanos(per_insert * group.count() as u64);
        group.apply_to(&mem)
    }

    fn write_memtable_member(&self, batch: &WriteBatch) -> DbResult<()> {
        let mem = {
            let state = self.inner.mem.lock();
            Arc::clone(&state.mutable)
        };
        let entries = mem.num_entries();
        let bytes = mem.approximate_bytes() as u64;
        let per_insert = costs::skiplist_insert_ns(entries.max(1), bytes.max(1));
        for (i, (seq, op)) in (batch.sequence()..).zip(batch.iter()).enumerate() {
            let (t, key, value) = op?;
            batch.verify_entry(i, t, key, value, "concurrent memtable insert")?;
            // The per-insert CPU cost is charged inside the concurrent
            // insert, between splice location and CAS linking, so members'
            // costs overlap in virtual time (and CAS retries are real).
            mem.add_concurrent(seq, t, key, value, per_insert);
        }
        Ok(())
    }
}

impl Db {
    /// Opens (creating or recovering) a database on `fs`.
    ///
    /// # Errors
    ///
    /// Option validation, filesystem, or corruption errors.
    pub fn open(fs: Arc<SimFs>, opts: DbOptions) -> DbResult<Db> {
        opts.validate().map_err(DbError::InvalidArgument)?;
        let wal_fs = opts.wal_fs.clone().unwrap_or_else(|| Arc::clone(&fs));
        let db_path = opts.db_path.clone();
        let existing = fs.exists(&format!("{db_path}/CURRENT"));
        let versions = if existing {
            VersionSet::recover(Arc::clone(&fs), &db_path, &opts)?
        } else {
            VersionSet::create_new(Arc::clone(&fs), &db_path, &opts)?
        };
        let table_cache = TableCache::new(
            Arc::clone(&fs),
            &db_path,
            opts.block_cache_capacity,
            opts.max_open_files,
            opts.table_cache_shards,
            opts.paranoid_file_checks,
        );
        let stats = DbStats::shared();

        // A power cut between a file's creation and the durable MANIFEST
        // record of its number leaves the file on disk with the recovered
        // counter still pointing at (or below) it; re-claim every number
        // found so the recovery flush and fresh WAL never collide with a
        // leftover the orphan sweep has yet to collect.
        if existing {
            let prefix = format!("{db_path}/");
            for path in fs.list(&prefix) {
                if let Some(n) = parse_file_number(&path, ".sst") {
                    versions.mark_file_number_used(n);
                }
            }
            for path in wal_fs.list(&prefix) {
                if let Some(n) = parse_file_number(&path, ".log") {
                    versions.mark_file_number_used(n);
                }
            }
        }

        // --- WAL recovery ---------------------------------------------------
        let mut recovered = Vec::new();
        if existing {
            let prefix = format!("{db_path}/");
            let mut wals: Vec<(u64, String)> = wal_fs
                .list(&prefix)
                .into_iter()
                .filter_map(|p| parse_file_number(&p, ".log").map(|n| (n, p)))
                .filter(|(n, _)| *n >= versions.log_number())
                .collect();
            wals.sort();
            recovered = wals;
        }
        let mode = opts.wal_recovery_mode;
        let recovery_mem = MemTable::with_options(0, 0, 1, opts.protection_bytes_per_key > 0);
        let mut max_seq = versions.last_sequence();
        // Sequence the next replayed batch must start at: logs concatenate
        // into one contiguous sequence stream, so a jump means a record
        // between two intact ones was lost.
        let mut expected_next: Option<u64> = None;
        // Point-in-time stop: once set, every remaining record and log is
        // beyond the recovered point in time and is discarded wholesale.
        let mut replay_stopped = false;
        'logs: for (number, path) in &recovered {
            if replay_stopped {
                let remaining = match wal_fs.open(path) {
                    Ok(f) => f.len(),
                    Err(_) => 0,
                };
                stats.add(Ticker::WalDroppedTailBytes, remaining);
                continue;
            }
            // A sealed log carries a whole-file CRC in the manifest. Under
            // AbsoluteConsistency a mismatch fails recovery outright; the
            // lenient modes fall through to the per-record scan, whose own
            // CRCs then decide what survives.
            if let Some(expected) = versions.wal_crc(*number) {
                let file = wal_fs.open(path)?;
                let actual = integrity::file_crc32c(&file, &mut |_| {})?;
                if actual != expected && mode == WalRecoveryMode::AbsoluteConsistency {
                    return Err(DbError::corruption_in(
                        path.clone(),
                        format!(
                            "whole-file checksum mismatch: \
                             manifest {expected:#010x}, disk {actual:#010x}"
                        ),
                    ));
                }
            }
            let scan = scan_wal(&wal_fs, path, mode)?;
            stats.add(Ticker::WalDroppedTailBytes, scan.dropped_tail_bytes);
            stats.add(
                Ticker::WalSkippedCorruptRecords,
                scan.skipped_corrupt_records,
            );
            for (i, payload) in scan.records.iter().enumerate() {
                let corrupt = |what: &str| {
                    DbError::corruption_in(path.clone(), format!("{what} (record {i})"))
                };
                // Count the records a point-in-time stop abandons, so the
                // drop is surfaced instead of silent.
                let stop_here = |stats: &DbStats| {
                    let dropped: u64 = scan.records[i..].iter().map(|r| 8 + r.len() as u64).sum();
                    stats.add(Ticker::WalDroppedTailBytes, dropped);
                };
                let batch = match WriteBatch::from_data(payload) {
                    // The record CRC vouched for these bytes; re-enabling
                    // protection recomputes the per-entry sidecar so the
                    // memtable insert below verifies and stores checksums.
                    Ok(mut b) => {
                        b.enable_protection(opts.protection_bytes_per_key);
                        b
                    }
                    Err(_) => match mode {
                        WalRecoveryMode::AbsoluteConsistency => {
                            return Err(corrupt("undecodable write batch"));
                        }
                        WalRecoveryMode::PointInTimeRecovery => {
                            stop_here(&stats);
                            replay_stopped = true;
                            continue 'logs;
                        }
                        WalRecoveryMode::TolerateCorruptedTailRecords => {
                            // Treat like a corrupt tail of this log.
                            stop_here(&stats);
                            continue 'logs;
                        }
                        WalRecoveryMode::SkipAnyCorruptedRecords => {
                            stats.bump(Ticker::WalSkippedCorruptRecords);
                            continue;
                        }
                    },
                };
                let seq = batch.sequence();
                if let Some(expected) = expected_next {
                    if seq != expected && mode != WalRecoveryMode::TolerateCorruptedTailRecords {
                        match mode {
                            WalRecoveryMode::AbsoluteConsistency => {
                                return Err(DbError::corruption_in(
                                    path.clone(),
                                    format!("sequence gap: expected {expected}, found {seq}"),
                                ));
                            }
                            WalRecoveryMode::PointInTimeRecovery => {
                                // The prefix before the gap is the
                                // recovered point in time.
                                stop_here(&stats);
                                replay_stopped = true;
                                continue 'logs;
                            }
                            WalRecoveryMode::SkipAnyCorruptedRecords => {
                                // The lost records are counted; this one
                                // still applies.
                                stats.bump(Ticker::WalSkippedCorruptRecords);
                            }
                            WalRecoveryMode::TolerateCorruptedTailRecords => unreachable!(),
                        }
                    }
                }
                batch.apply_to(&recovery_mem)?;
                stats.bump(Ticker::WalRecoveredRecords);
                max_seq = max_seq.max(seq + batch.count() as u64 - 1);
                expected_next = Some(seq + batch.count() as u64);
            }
            if mode == WalRecoveryMode::PointInTimeRecovery && !scan.is_clean() {
                // This log lost its tail: anything in later logs is past
                // the recovered point in time.
                replay_stopped = true;
            }
        }
        while versions.last_sequence() < max_seq {
            versions.allocate_sequences(max_seq - versions.last_sequence());
        }

        // Flush recovered entries straight to L0.
        if !recovery_mem.is_empty() {
            let number = versions.new_file_number();
            let file = fs.create(&sst_file_name(&db_path, number))?;
            let mut builder = TableBuilder::with_options(file, TableOptions::from(&opts));
            let mem_arc = recovery_mem;
            let mut iter = mem_arc.iter();
            let mut ok = InternalIterator::seek_to_first(&mut iter)?;
            while ok {
                iter.verify_entry()?;
                builder.add(iter.key(), iter.value())?;
                ok = InternalIterator::next(&mut iter)?;
            }
            let props = builder.finish()?;
            let mut edit = VersionEdit::default();
            edit.added.push((
                0,
                FileMetaData {
                    number,
                    file_size: props.file_size,
                    smallest: props.smallest,
                    largest: props.largest,
                    num_entries: props.num_entries,
                    file_crc: Some(props.file_crc),
                },
            ));
            versions.log_and_apply(edit)?;
        }

        // --- Fresh WAL + memtable --------------------------------------------
        let wal_number = versions.new_file_number();
        let wal = if opts.enable_wal {
            Some(Arc::new(WalWriter::create(
                &wal_fs,
                &db_path,
                wal_number,
                opts.wal_bytes_per_sync,
            )?))
        } else {
            None
        };
        // Old WALs are fully represented in L0 now.
        let edit = VersionEdit {
            log_number: Some(wal_number),
            ..VersionEdit::default()
        };
        versions.log_and_apply(edit)?;

        let (flush_tx, flush_rx) = channel::<()>("flush-jobs");
        let (compact_tx, compact_rx) = channel::<()>("compaction-jobs");

        let controller = WriteController::new(&opts);
        controller.attach_accounting(Arc::clone(&stats.stall));
        // Auto-tune reference: debt equal to 4× the L1 target doubles the
        // budget; the scale caps at 4× base (see `BgIoLimiter::retune`).
        let io_limiter = BgIoLimiter::new(
            opts.bg_io_rate_bytes_per_sec,
            opts.bg_io_auto_tune
                .then(|| 4 * opts.max_bytes_for_level_base),
        );
        let inner = Arc::new(DbInner {
            controller,
            io_limiter,
            queue: WriteQueue::new(opts.pipelined_write, MAX_WRITE_BATCH_GROUP_SIZE)
                .with_concurrent_apply(
                    opts.allow_concurrent_memtable_write,
                    opts.concurrent_apply_min_batches,
                ),
            write_buffer_size: AtomicUsize::new(opts.write_buffer_size),
            l0_trigger_override: AtomicUsize::new(0),
            mem: parking_lot::Mutex::new(MemState {
                mutable: new_memtable(&opts, 1),
                wal,
                wal_number,
                immutables: Vec::new(),
                next_mem_id: 1,
            }),
            table_cache,
            stats,
            versions,
            snapshots: parking_lot::Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            install_lock: Semaphore::new("manifest-install", 1),
            flush_serial: Semaphore::new("flush-serial", 1),
            flush_tx,
            compact_tx,
            compact_queued: AtomicUsize::new(0),
            in_compaction: parking_lot::Mutex::new(HashSet::new()),
            cursors: parking_lot::Mutex::new(CompactionCursors::new(opts.num_levels)),
            obsolete: parking_lot::Mutex::new(Vec::new()),
            bg: ErrorHandler::new(),
            scrub: parking_lot::Mutex::new(ScrubState::default()),
            space: SpaceManager::new(opts.max_allowed_space_bytes),
            trash: DeleteScheduler::new(opts.sst_delete_rate_bytes_per_sec),
            enospc_stall_start: AtomicU64::new(0),
            wal_fs,
            fs,
            opts,
        });
        // With the SpaceWatcher polling, DeviceFull from background jobs is
        // a soft, self-clearing stall; without it the legacy contract holds
        // (full disk ⇒ permanent read-only until Db::resume).
        inner
            .bg
            .set_soft_device_full(inner.opts.space_poll_interval_ns > 0);
        inner.purge_old_wals();

        // --- Trash recovery -------------------------------------------------
        // Files renamed into trash/ before a crash were already dropped
        // from the live set (the rename is atomic and survives power cuts),
        // but their extents are still allocated. Re-queue each for the
        // paced reaper — or delete inline when the reaper is disabled — so
        // every trashed file is reclaimed exactly once and never
        // resurrected.
        if existing {
            let trash_prefix = format!("{}/trash/", inner.opts.db_path);
            let mut pending: Vec<String> = inner.fs.list(&trash_prefix);
            pending.sort();
            for path in pending {
                let bytes = match inner.fs.open(&path) {
                    Ok(f) => f.len(),
                    Err(_) => 0,
                };
                if inner.trash.enabled() {
                    inner.stats.add(Ticker::TrashedBytes, bytes);
                    inner.trash.schedule(path, bytes);
                } else {
                    match inner.fs.delete(&path) {
                        Ok(()) | Err(FsError::NotFound(_)) => {
                            inner.stats.add(Ticker::SpaceReclaimedBytes, bytes);
                        }
                        Err(e) => {
                            inner.stats.bump(Ticker::BackgroundErrors);
                            let _ = inner.bg.record(BackgroundOp::TrashReap, e.into(), 0);
                        }
                    }
                }
            }
        }

        // --- Orphan sweep ---------------------------------------------------
        // A crash between a flush/compaction output being written and its
        // manifest install strands `.sst` files no version references (old
        // logs are the WAL purge's job, just above). Queue every
        // unreferenced table through the ordinary obsolete purge so cache
        // eviction and error handling are shared with the steady state.
        if existing {
            let live = inner.versions.live_files();
            let prefix = format!("{}/", inner.opts.db_path);
            let orphans: Vec<u64> = inner
                .fs
                .list(&prefix)
                .into_iter()
                .filter(|p| !p[prefix.len()..].contains('/'))
                .filter_map(|p| parse_file_number(&p, ".sst"))
                .filter(|n| !live.contains(n))
                .collect();
            if !orphans.is_empty() {
                inner.obsolete.lock().extend(orphans.iter().copied());
                inner.purge_obsolete();
                let deleted = orphans
                    .iter()
                    .filter(|n| !inner.fs.exists(&sst_file_name(&inner.opts.db_path, **n)))
                    .count() as u64;
                inner.stats.add(Ticker::OrphanFilesDeleted, deleted);
            }
        }

        // --- Background workers ----------------------------------------------
        let mut workers = Vec::new();
        for i in 0..MAX_BACKGROUND_FLUSHES {
            let rx: Receiver<()> = flush_rx.clone();
            let inner2 = Arc::clone(&inner);
            workers.push(xlsm_sim::spawn(&format!("flush-{i}"), move || {
                while rx.recv().is_some() {
                    if inner2.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    inner2.run_background_job(BackgroundOp::Flush);
                }
            }));
        }
        for i in 0..inner.opts.max_background_compactions {
            let rx: Receiver<()> = compact_rx.clone();
            let inner2 = Arc::clone(&inner);
            workers.push(xlsm_sim::spawn(&format!("compact-{i}"), move || {
                while rx.recv().is_some() {
                    inner2.compact_queued.fetch_sub(1, Ordering::Relaxed);
                    if inner2.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    inner2.run_background_job(BackgroundOp::Compaction);
                }
            }));
        }
        if inner.opts.scrub_rate_bytes_per_sec > 0 {
            let inner2 = Arc::clone(&inner);
            workers.push(xlsm_sim::spawn("scrub-0", move || {
                while !inner2.shutdown.load(Ordering::Relaxed) {
                    inner2.run_background_job(BackgroundOp::Scrub);
                    // Idle tick between files; also the shutdown poll
                    // interval (and the only wait while read-only).
                    xlsm_sim::sleep_nanos(10_000_000);
                }
            }));
        }
        if inner.trash.enabled() {
            let inner2 = Arc::clone(&inner);
            workers.push(xlsm_sim::spawn("trash-reaper-0", move || {
                while !inner2.shutdown.load(Ordering::Relaxed) {
                    match inner2.reap_trash_one() {
                        // Drained one entry; go straight for the next (the
                        // pace() inside already spent the virtual time).
                        Ok(true) => {}
                        // Empty queue: idle tick, also the shutdown poll.
                        Ok(false) => xlsm_sim::sleep_nanos(10_000_000),
                        // A failed delete was re-queued; record it and back
                        // off. Reap failures never escalate to read-only —
                        // the data is already obsolete.
                        Err(e) => {
                            inner2.stats.bump(Ticker::BackgroundErrors);
                            let _ = inner2.bg.record(BackgroundOp::TrashReap, e, 0);
                            xlsm_sim::sleep_nanos(10_000_000);
                        }
                    }
                }
            }));
        }
        if inner.opts.space_poll_interval_ns > 0 {
            let inner2 = Arc::clone(&inner);
            workers.push(xlsm_sim::spawn("space-watcher-0", move || {
                while !inner2.shutdown.load(Ordering::Relaxed) {
                    inner2.space_watch_tick();
                    xlsm_sim::sleep_nanos(inner2.opts.space_poll_interval_ns);
                }
            }));
        }

        Ok(Db {
            inner,
            workers: parking_lot::Mutex::new(workers),
        })
    }

    /// Rebuilds the database's MANIFEST from surviving files alone — the
    /// last-resort path when [`Db::open`] fails because the manifest (or
    /// CURRENT) is torn, missing, or corrupt. See [`crate::repair`] for
    /// the full contract.
    ///
    /// # Errors
    ///
    /// Option validation and filesystem errors; damaged tables and logs
    /// are salvaged or archived rather than reported.
    pub fn repair(fs: Arc<SimFs>, opts: &DbOptions) -> DbResult<crate::repair::RepairReport> {
        crate::repair::repair_db(fs, opts)
    }

    /// Writes a batch (group-committed).
    ///
    /// # Errors
    ///
    /// Shutdown or I/O failures.
    pub fn write(&self, mut batch: WriteBatch) -> DbResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let t0 = xlsm_sim::now_nanos();
        xlsm_sim::sleep_nanos(costs::WRITE_SETUP_NS);
        // Seal every entry with protection info before it enters the write
        // pipeline; the checksums travel with the batch through group merge,
        // the WAL, and the memtable insert. Charged per key, like the WAL
        // CRC, because it hashes the full key+value.
        let width = self.inner.opts.protection_bytes_per_key;
        if width > 0 && batch.protection_width() != width {
            xlsm_sim::sleep_nanos(costs::KV_PROTECTION_NS * batch.count() as u64);
            batch.enable_protection(width);
        }
        self.inner.stats.add(Ticker::Puts, batch.count() as u64);
        let backend = DbBackend {
            inner: Arc::clone(&self.inner),
        };
        let r = self.inner.queue.submit(batch, &backend, &self.inner.stats);
        self.inner
            .stats
            .write_latency
            .record(xlsm_sim::now_nanos() - t0);
        r
    }

    /// Puts one key-value pair.
    ///
    /// # Errors
    ///
    /// See [`Db::write`].
    pub fn put(&self, key: &[u8], value: &[u8]) -> DbResult<()> {
        let mut b = WriteBatch::new();
        b.put(key, value);
        self.write(b)
    }

    /// Deletes one key.
    ///
    /// # Errors
    ///
    /// See [`Db::write`].
    pub fn delete(&self, key: &[u8]) -> DbResult<()> {
        let mut b = WriteBatch::new();
        b.delete(key);
        self.inner.stats.bump(Ticker::Deletes);
        self.write(b)
    }

    /// Reads the newest visible value for `key`.
    ///
    /// # Errors
    ///
    /// I/O or corruption failures.
    pub fn get(&self, key: &[u8]) -> DbResult<Option<Vec<u8>>> {
        self.get_at(key, self.inner.versions.last_sequence())
    }

    /// Reads `key` as of `snapshot`.
    ///
    /// # Errors
    ///
    /// I/O or corruption failures.
    pub fn get_at(&self, key: &[u8], snapshot: SequenceNumber) -> DbResult<Option<Vec<u8>>> {
        let t0 = xlsm_sim::now_nanos();
        xlsm_sim::sleep_nanos(costs::GET_SETUP_NS);
        let inner = &self.inner;
        inner.stats.bump(Ticker::Gets);
        let result = self.get_inner(key, snapshot);
        inner.stats.get_latency.record(xlsm_sim::now_nanos() - t0);
        result
    }

    fn get_inner(&self, key: &[u8], snapshot: SequenceNumber) -> DbResult<Option<Vec<u8>>> {
        let inner = &self.inner;
        let (mutable, immutables) = {
            let mem = inner.mem.lock();
            (
                Arc::clone(&mem.mutable),
                mem.immutables
                    .iter()
                    .map(|(m, _)| Arc::clone(m))
                    .collect::<Vec<_>>(),
            )
        };
        // Memtable.
        if let Some(found) = mem_probe(&mutable, key, snapshot, &inner.stats)? {
            inner.stats.bump(Ticker::GetHitMemtable);
            return Ok(found);
        }
        // Immutables, newest first.
        for m in immutables.iter().rev() {
            if let Some(found) = mem_probe(m, key, snapshot, &inner.stats)? {
                inner.stats.bump(Ticker::GetHitImmutable);
                return Ok(found);
            }
        }
        // SSTs.
        let version = inner.versions.current();
        let lookup = types::make_lookup_key(key, snapshot);
        // L0: newest-first, all covering files (the paper's Finding #2).
        for f in &version.levels[0] {
            if !f.may_contain_user_key(key) {
                continue;
            }
            inner.stats.bump(Ticker::L0FilesSearched);
            let reader = inner.table_cache.reader(f)?;
            if let Some((ikey, value)) = reader.get(&lookup, key, &inner.stats)? {
                let (_, _, t) = types::parse_internal_key(&ikey);
                inner.stats.bump(Ticker::GetHitL0);
                return Ok(match t {
                    ValueType::Value => Some(value),
                    ValueType::Deletion => None,
                });
            }
        }
        // Deeper levels: binary search for the single candidate file.
        for level in 1..version.levels.len() {
            let Some(f) = version.file_for_key(level, key) else {
                continue;
            };
            let reader = inner.table_cache.reader(&f)?;
            if let Some((ikey, value)) = reader.get(&lookup, key, &inner.stats)? {
                let (_, _, t) = types::parse_internal_key(&ikey);
                inner.stats.bump(Ticker::GetHitLn);
                return Ok(match t {
                    ValueType::Value => Some(value),
                    ValueType::Deletion => None,
                });
            }
        }
        inner.stats.bump(Ticker::GetMiss);
        Ok(None)
    }

    /// Batched point lookups at the current snapshot: the batch pins one
    /// sequence number, consults the memtables inline, then fans the
    /// unresolved keys out across table readers in parallel (grouped so
    /// each SST is probed once per batch) — the read-side analogue of the
    /// device's internal channel parallelism. Results are positionally
    /// aligned with `keys`.
    ///
    /// # Errors
    ///
    /// I/O or corruption failures from any probe thread.
    pub fn multi_get(&self, keys: &[&[u8]]) -> DbResult<Vec<Option<Vec<u8>>>> {
        self.multi_get_at(keys, self.inner.versions.last_sequence())
    }

    /// [`Db::multi_get`] as of `snapshot`.
    ///
    /// # Errors
    ///
    /// I/O or corruption failures from any probe thread.
    pub fn multi_get_at(
        &self,
        keys: &[&[u8]],
        snapshot: SequenceNumber,
    ) -> DbResult<Vec<Option<Vec<u8>>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let t0 = xlsm_sim::now_nanos();
        // Batch setup (key hashing, version pinning) is paid once.
        xlsm_sim::sleep_nanos(costs::GET_SETUP_NS);
        let inner = &self.inner;
        inner.stats.bump(Ticker::MultiGetBatches);
        inner.stats.add(Ticker::MultiGetKeys, keys.len() as u64);
        inner.stats.add(Ticker::Gets, keys.len() as u64);
        let result = self.multi_get_inner(keys, snapshot);
        inner
            .stats
            .multi_get_latency
            .record(xlsm_sim::now_nanos() - t0);
        result
    }

    fn multi_get_inner(
        &self,
        keys: &[&[u8]],
        snapshot: SequenceNumber,
    ) -> DbResult<Vec<Option<Vec<u8>>>> {
        let inner = &self.inner;
        let (mutable, immutables) = {
            let mem = inner.mem.lock();
            (
                Arc::clone(&mem.mutable),
                mem.immutables
                    .iter()
                    .map(|(m, _)| Arc::clone(m))
                    .collect::<Vec<_>>(),
            )
        };
        // Memtables are strictly newer than any SST: resolve inline first.
        // Outer None = unresolved; `Some(found)` carries hit-or-tombstone.
        let mut out: Vec<Option<Option<Vec<u8>>>> = vec![None; keys.len()];
        for (i, key) in keys.iter().enumerate() {
            if let Some(found) = mem_probe(&mutable, key, snapshot, &inner.stats)? {
                inner.stats.bump(Ticker::GetHitMemtable);
                out[i] = Some(found);
                continue;
            }
            for m in immutables.iter().rev() {
                if let Some(found) = mem_probe(m, key, snapshot, &inner.stats)? {
                    inner.stats.bump(Ticker::GetHitImmutable);
                    out[i] = Some(found);
                    break;
                }
            }
        }
        let unresolved: Vec<(usize, &[u8])> = keys
            .iter()
            .enumerate()
            .filter(|(i, _)| out[*i].is_none())
            .map(|(i, k)| (i, *k))
            .collect();
        if unresolved.is_empty() {
            return Ok(out.into_iter().map(Option::unwrap).collect());
        }

        // Group unresolved keys per SST, then probe files concurrently.
        // Sequence numbers are unique per key version and only ever move
        // *down* the tree, so the visible value is simply the hit with the
        // highest sequence ≤ snapshot across all probed files — no
        // level-by-level short-circuit needed.
        let version = inner.versions.current();
        let jobs: Vec<ProbeJob> = version
            .probe_groups(&unresolved)
            .into_iter()
            .map(|(level, file, slots)| ProbeJob {
                level,
                file,
                probes: slots
                    .into_iter()
                    .map(|slot| TableProbe {
                        slot,
                        lookup: types::make_lookup_key(keys[slot], snapshot),
                        user_key: keys[slot].to_vec(),
                    })
                    .collect(),
            })
            .collect();
        let threads = inner.opts.multi_get_parallelism.min(jobs.len());
        let hits = if threads <= 1 {
            run_probe_jobs(&inner.table_cache, &inner.stats, &jobs)?
        } else {
            inner
                .stats
                .add(Ticker::MultiGetProbeThreads, threads as u64);
            let mut buckets: Vec<Vec<ProbeJob>> = (0..threads).map(|_| Vec::new()).collect();
            for (i, job) in jobs.into_iter().enumerate() {
                buckets[i % threads].push(job);
            }
            let mut handles = Vec::with_capacity(threads);
            for (i, bucket) in buckets.into_iter().enumerate() {
                let table_cache = Arc::clone(&inner.table_cache);
                let stats = Arc::clone(&inner.stats);
                handles.push(xlsm_sim::spawn(&format!("multiget-{i}"), move || {
                    run_probe_jobs(&table_cache, &stats, &bucket)
                }));
            }
            let mut hits = Vec::new();
            let mut first_err = None;
            for h in handles {
                match h.join() {
                    Ok(hs) => hits.extend(hs),
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
            hits
        };

        type BestVersion = (SequenceNumber, ValueType, Vec<u8>, usize);
        let mut best: Vec<Option<BestVersion>> = vec![None; keys.len()];
        for (slot, level, ikey, value) in hits {
            let (_, seq, t) = types::parse_internal_key(&ikey);
            if best[slot].as_ref().is_none_or(|(bs, ..)| seq > *bs) {
                best[slot] = Some((seq, t, value, level));
            }
        }
        for (i, o) in out.iter_mut().enumerate() {
            if o.is_some() {
                continue;
            }
            *o = Some(match best[i].take() {
                Some((_, t, value, level)) => {
                    inner.stats.bump(if level == 0 {
                        Ticker::GetHitL0
                    } else {
                        Ticker::GetHitLn
                    });
                    match t {
                        ValueType::Value => Some(value),
                        ValueType::Deletion => None,
                    }
                }
                None => {
                    inner.stats.bump(Ticker::GetMiss);
                    None
                }
            });
        }
        Ok(out.into_iter().map(Option::unwrap).collect())
    }

    /// A full-database scan cursor at the current snapshot.
    ///
    /// # Errors
    ///
    /// I/O failures opening tables.
    pub fn scan(&self) -> DbResult<DbScanner> {
        let inner = &self.inner;
        let snapshot = inner.versions.last_sequence();
        let (mutable, immutables) = {
            let mem = inner.mem.lock();
            (
                Arc::clone(&mem.mutable),
                mem.immutables
                    .iter()
                    .map(|(m, _)| Arc::clone(m))
                    .collect::<Vec<_>>(),
            )
        };
        let version = inner.versions.current();
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        children.push(Box::new(mutable.iter()));
        for m in immutables.iter().rev() {
            children.push(Box::new(m.iter()));
        }
        for f in &version.levels[0] {
            let reader = inner.table_cache.reader(f)?;
            children.push(Box::new(reader.iter(Arc::clone(&inner.stats))));
        }
        for level in 1..version.levels.len() {
            if !version.levels[level].is_empty() {
                children.push(Box::new(LevelIterator::new(
                    version.levels[level].clone(),
                    Arc::clone(&inner.table_cache),
                    Arc::clone(&inner.stats),
                )));
            }
        }
        Ok(DbScanner {
            iter: DbIterator::new(MergingIterator::new(children), snapshot),
            _version: version,
            upper_bound: None,
        })
    }

    /// A scan cursor restricted to user keys starting with `prefix`,
    /// already positioned on the first match.
    ///
    /// Two layers of pruning make this cheaper than [`Db::scan`]: SST files
    /// whose key range cannot intersect `[prefix, successor(prefix))` are
    /// never opened, and — when [`DbOptions::prefix_extractor`] is set to
    /// exactly `prefix.len()` — files whose prefix bloom rules the prefix
    /// out are skipped without touching a data block.
    ///
    /// # Errors
    ///
    /// I/O failures opening tables.
    pub fn scan_prefix(&self, prefix: &[u8]) -> DbResult<DbScanner> {
        let inner = &self.inner;
        let snapshot = inner.versions.last_sequence();
        let upper = prefix_successor(prefix);
        let in_range = |f: &FileMetaData| {
            types::user_key(&f.largest) >= prefix
                && upper
                    .as_deref()
                    .is_none_or(|u| types::user_key(&f.smallest) < u)
        };
        let (mutable, immutables) = {
            let mem = inner.mem.lock();
            (
                Arc::clone(&mem.mutable),
                mem.immutables
                    .iter()
                    .map(|(m, _)| Arc::clone(m))
                    .collect::<Vec<_>>(),
            )
        };
        let version = inner.versions.current();
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        // Memtable blooms are whole-key, so the skiplists always join in.
        children.push(Box::new(mutable.iter()));
        for m in immutables.iter().rev() {
            children.push(Box::new(m.iter()));
        }
        for level in 0..version.levels.len() {
            let mut kept = Vec::new();
            for f in &version.levels[level] {
                if !in_range(f) {
                    continue;
                }
                let reader = inner.table_cache.reader(f)?;
                if !reader.may_contain_prefix(prefix) {
                    inner.stats.bump(Ticker::PrefixBloomUseful);
                    continue;
                }
                kept.push(Arc::clone(f));
            }
            if level == 0 {
                // L0 files overlap; each needs its own merge child.
                for f in kept {
                    let reader = inner.table_cache.reader(&f)?;
                    children.push(Box::new(reader.iter(Arc::clone(&inner.stats))));
                }
            } else if !kept.is_empty() {
                children.push(Box::new(LevelIterator::new(
                    kept,
                    Arc::clone(&inner.table_cache),
                    Arc::clone(&inner.stats),
                )));
            }
        }
        let mut scanner = DbScanner {
            iter: DbIterator::new(MergingIterator::new(children), snapshot),
            _version: version,
            upper_bound: upper,
        };
        scanner.seek(prefix)?;
        Ok(scanner)
    }

    /// Takes a consistent snapshot; reads through [`Db::get_at`] with
    /// [`Snapshot::sequence`] see a frozen view, and compaction preserves
    /// the versions it needs.
    pub fn snapshot(&self) -> Snapshot {
        let seq = self.inner.versions.last_sequence();
        self.inner.snapshots.lock().push(seq);
        Snapshot {
            inner: Arc::clone(&self.inner),
            seq,
        }
    }

    /// Forces a memtable switch + flush and waits until no immutables
    /// remain (test/diagnostic helper).
    ///
    /// # Errors
    ///
    /// Background flush failures surface here instead of panicking the
    /// worker: a transient I/O error is retried with exponential backoff
    /// and, once it resolves, this returns `Ok`; a hard error (or an
    /// exhausted retry budget) transitions the database to read-only and
    /// this returns [`DbError::ReadOnly`]. See [`Db::resume`].
    pub fn flush(&self) -> DbResult<()> {
        if let Some(e) = self.inner.bg.read_only_error() {
            return Err(e);
        }
        {
            let state = self.inner.mem.lock();
            if state.mutable.is_empty() && state.immutables.is_empty() {
                return Ok(());
            }
            if state.mutable.is_empty() {
                drop(state);
                self.inner.schedule_flush();
            }
        }
        if !{ self.inner.mem.lock().mutable.is_empty() } {
            self.inner.switch_memtable()?;
        }
        while !{ self.inner.mem.lock().immutables.is_empty() } {
            if let Some(e) = self.inner.bg.read_only_error() {
                return Err(e);
            }
            xlsm_sim::sleep_nanos(100_000);
        }
        Ok(())
    }

    /// Blocks until no compaction is warranted and none is running
    /// (test/diagnostic helper). Returns immediately once the database is
    /// read-only — no further compactions will run until [`Db::resume`].
    pub fn wait_for_compactions(&self) {
        loop {
            if self.inner.bg.is_read_only() {
                return;
            }
            // Score against the *effective* options: with a runtime L0
            // trigger override in place (deferred compactions), the
            // scheduler will not pick work the configured trigger would,
            // and waiting on the configured score would spin forever.
            let score = self
                .inner
                .versions
                .current()
                .compaction_score(&self.inner.effective_opts())
                .1;
            let busy = !self.inner.in_compaction.lock().is_empty()
                || self.inner.compact_queued.load(Ordering::Relaxed) > 0;
            if score < 1.0 && !busy {
                return;
            }
            self.inner.maybe_schedule_compaction();
            xlsm_sim::sleep_nanos(200_000);
        }
    }

    /// Clears the background-error state and re-runs the failed work — the
    /// RocksDB `DB::Resume()` analogue. Pending immutable memtables are
    /// flushed in the caller's thread; on success the read-only flag lifts,
    /// stalled writers are re-admitted, and compactions reschedule.
    ///
    /// # Errors
    ///
    /// The error hit while re-running the work; the database stays
    /// read-only in that case.
    pub fn resume(&self) -> DbResult<()> {
        if self.inner.bg.current().is_none() && !self.inner.bg.is_read_only() {
            return Ok(());
        }
        loop {
            match self.inner.flush_one() {
                Ok(true) => continue,
                Ok(false) => break,
                Err(e) => return Err(e),
            }
        }
        self.inner.bg.clear();
        let t0 = self.inner.enospc_stall_start.swap(0, Ordering::Relaxed);
        if t0 > 0 {
            self.inner
                .stats
                .enospc_stall
                .record(xlsm_sim::now_nanos().saturating_sub(t0));
        }
        self.inner.controller.set_external_stop(false);
        self.inner.controller.force_release(false);
        self.inner.stats.bump(Ticker::BackgroundAutoResumes);
        self.inner.update_stall_conditions();
        self.inner.maybe_schedule_compaction();
        Ok(())
    }

    /// Verifies every live file in the foreground — the
    /// `DB::VerifyChecksums()` analogue, and the exhaustive counterpart of
    /// the paced background scrubber.
    ///
    /// Checks, in order: every live SST (whole-file CRC against the
    /// manifest record when one exists, then every block's CRC), every
    /// sealed WAL with a recorded CRC that is still on disk, and the
    /// MANIFEST's own record framing.
    ///
    /// # Errors
    ///
    /// The first corruption or I/O failure found; the error names the file
    /// (and block offset where known). Unlike the background scrubber this
    /// does **not** transition the database to read-only — the caller
    /// decides what to do.
    pub fn verify_checksums(&self) -> DbResult<IntegrityReport> {
        let inner = &self.inner;
        let mut report = IntegrityReport::default();
        let mut no_pace = |_: u64| {};
        let version = inner.versions.current();
        let mut seen = std::collections::HashSet::new();
        for meta in version.levels.iter().flatten() {
            if !seen.insert(meta.number) {
                continue;
            }
            let path = sst_file_name(&inner.opts.db_path, meta.number);
            let file = inner.fs.open(&path)?;
            if let Some(expected) = meta.file_crc {
                let actual = integrity::file_crc32c(&file, &mut no_pace)?;
                if actual != expected {
                    // Pin the offset if a block-level walk can.
                    verify_table_file(&file, meta.number, &mut no_pace)?;
                    return Err(DbError::corruption_in(
                        path,
                        format!(
                            "whole-file checksum mismatch: \
                             manifest {expected:#010x}, disk {actual:#010x}"
                        ),
                    ));
                }
            }
            report.sst_bytes += verify_table_file(&file, meta.number, &mut no_pace)?;
            report.sst_files += 1;
        }
        for (number, expected) in inner.versions.recorded_wal_crcs() {
            let path = wal_file_name(&inner.opts.db_path, number);
            let file = match inner.wal_fs.open(&path) {
                Ok(f) => f,
                // Already reaped by the WAL purge; its data lives in L0.
                Err(FsError::NotFound(_)) => continue,
                Err(e) => return Err(e.into()),
            };
            let actual = integrity::file_crc32c(&file, &mut no_pace)?;
            if actual != expected {
                return Err(DbError::corruption_in(
                    path,
                    format!(
                        "whole-file checksum mismatch: \
                         manifest {expected:#010x}, disk {actual:#010x}"
                    ),
                ));
            }
            report.wal_bytes += file.len();
            report.wal_files += 1;
        }
        // The MANIFEST is itself a log; reading it verifies every record's
        // framing CRC.
        let manifest = crate::version::manifest_path(&inner.opts.db_path);
        report.manifest_records = read_wal(&inner.fs, &manifest)?.len() as u64;
        Ok(report)
    }

    /// Statistics sink.
    pub fn stats(&self) -> &Arc<DbStats> {
        &self.inner.stats
    }

    /// Write-controller state (stall level, current delayed write rate).
    pub fn controller_snapshot(&self) -> crate::controller::ControllerSnapshot {
        self.inner.controller.snapshot()
    }

    /// One cheap cross-layer snapshot: tickers, latency histograms, the
    /// write-stall breakdown totals, the controller-transition log since
    /// the previous call (draining), controller state, and device-side
    /// queue/GC accounting.
    pub fn metrics(&self) -> Metrics {
        let stats = &self.inner.stats;
        let fs_stats = self.inner.fs.stats();
        let data_dev = self.inner.fs.device();
        let wal_dev = self.inner.wal_fs.device();
        let wal_device = if Arc::ptr_eq(data_dev, wal_dev) {
            None
        } else {
            Some(xlsm_device::Device::stats(&**wal_dev))
        };
        Metrics {
            tickers: stats.ticker_snapshot(),
            get_latency: stats.get_latency.summary(),
            write_latency: stats.write_latency.summary(),
            write_queue_wait: stats.write_queue_wait.summary(),
            write_group_batches: stats.write_group_batches.summary(),
            write_group_bytes: stats.write_group_bytes.summary(),
            scrub_pass: stats.scrub_pass.summary(),
            bg_io_wait: stats.bg_io_wait.summary(),
            enospc_stall: stats.enospc_stall.summary(),
            free_space_bytes: fs_stats
                .free_space_pages
                .saturating_mul(xlsm_device::PAGE_SIZE as u64),
            largest_free_extent_bytes: fs_stats
                .largest_free_extent_pages
                .saturating_mul(xlsm_device::PAGE_SIZE as u64),
            live_sst_bytes: {
                let version = self.inner.versions.current();
                (0..version.levels.len())
                    .map(|l| version.level_bytes(l))
                    .sum()
            },
            trash_queue_bytes: self.inner.trash.queued_bytes(),
            space_reserved_bytes: self.inner.space.reserved_bytes(),
            compaction_debt_bytes: self
                .inner
                .versions
                .current()
                .pending_compaction_bytes(&self.inner.effective_opts()),
            bg_io_budget_bytes_per_sec: self.inner.io_limiter.current_rate(),
            wal_append: stats.wal_append.summary(),
            flush_duration: stats.flush_duration.summary(),
            compaction_duration: stats.compaction_duration.summary(),
            subcompaction_duration: stats.subcompaction_duration.summary(),
            multi_get_latency: stats.multi_get_latency.summary(),
            avg_waiting_writers: stats.avg_waiting_writers(),
            stall: stats.stall.snapshot(),
            stall_events: stats.stall.drain_events(),
            controller: self.inner.controller.snapshot(),
            device: xlsm_device::Device::stats(&**data_dev),
            wal_device,
            background_error: self.inner.bg.current(),
            read_only: self.inner.bg.is_read_only(),
        }
    }

    /// Point-in-time LSM shape.
    pub fn shape(&self) -> LsmShape {
        let version = self.inner.versions.current();
        let mem = self.inner.mem.lock();
        LsmShape {
            files_per_level: version.levels.iter().map(Vec::len).collect(),
            bytes_per_level: (0..version.levels.len())
                .map(|l| version.level_bytes(l))
                .collect(),
            immutables: mem.immutables.len(),
            mutable_bytes: mem.mutable.approximate_bytes(),
        }
    }

    /// Current Level-0 file count.
    pub fn num_l0_files(&self) -> usize {
        self.inner.versions.current().num_l0_files()
    }

    /// Writers currently queued in the write thread queue.
    pub fn queued_writers(&self) -> usize {
        self.inner.queue.queued()
    }

    /// Adjusts `max_allowed_space_bytes` at runtime (`0` disables the
    /// cap). Raising the cap frees headroom immediately: a soft-stalled
    /// database auto-resumes at the `SpaceWatcher`'s next poll.
    pub fn set_max_allowed_space_bytes(&self, bytes: u64) {
        self.inner.space.set_max_allowed_space_bytes(bytes);
    }

    /// Bytes of trashed SSTs still awaiting rate-limited deletion.
    pub fn trash_queued_bytes(&self) -> u64 {
        self.inner.trash.queued_bytes()
    }

    /// Adjusts the memtable size at runtime (the dynamic Level-0 case study
    /// V-B uses this to trade L0 file count against file size).
    pub fn set_write_buffer_size(&self, bytes: usize) {
        self.inner
            .write_buffer_size
            .store(bytes.max(64 << 10), Ordering::Relaxed);
    }

    /// Overrides the Level-0 compaction trigger at runtime (`0` restores
    /// the configured value). Together with
    /// [`Db::set_write_buffer_size`] this trades L0 file count against
    /// file size at constant aggregate volume — case study V-B.
    pub fn set_l0_compaction_trigger(&self, files: usize) {
        self.inner
            .l0_trigger_override
            .store(files, Ordering::Relaxed);
        self.inner.maybe_schedule_compaction();
    }

    /// The currently effective Level-0 compaction trigger.
    pub fn l0_compaction_trigger(&self) -> usize {
        self.inner
            .effective_opts()
            .level0_file_num_compaction_trigger
    }

    /// Currently configured memtable size.
    pub fn write_buffer_size(&self) -> usize {
        self.inner.current_write_buffer_size()
    }

    /// The options this database was opened with.
    pub fn options(&self) -> &DbOptions {
        &self.inner.opts
    }

    /// The filesystem hosting the SSTs.
    pub fn fs(&self) -> &Arc<SimFs> {
        &self.inner.fs
    }

    /// Block cache counters `(hits, misses)`.
    pub fn block_cache_counters(&self) -> (u64, u64) {
        self.inner.table_cache.block_cache().counters()
    }

    /// Table cache reader-lookup counters `(hits, misses)`.
    pub fn table_cache_counters(&self) -> (u64, u64) {
        self.inner.table_cache.counters()
    }

    /// Currently cached open table readers (bounded by
    /// `DbOptions::max_open_files`).
    pub fn open_table_readers(&self) -> usize {
        self.inner.table_cache.open_readers()
    }

    /// A multi-line human-readable statistics report (the
    /// `GetProperty("rocksdb.stats")` analogue).
    pub fn stats_report(&self) -> String {
        use std::fmt::Write as _;
        let stats = &self.inner.stats;
        let shape = self.shape();
        let ctl = self.controller_snapshot();
        let (cache_hits, cache_misses) = self.block_cache_counters();
        let mut out = String::new();
        let _ = writeln!(out, "== xlsm stats: {} ==", self.inner.opts.db_path);
        let _ = writeln!(
            out,
            "ops: puts={} deletes={} gets={} (mem {} / imm {} / L0 {} / Ln {} / miss {})",
            stats.ticker(Ticker::Puts),
            stats.ticker(Ticker::Deletes),
            stats.ticker(Ticker::Gets),
            stats.ticker(Ticker::GetHitMemtable),
            stats.ticker(Ticker::GetHitImmutable),
            stats.ticker(Ticker::GetHitL0),
            stats.ticker(Ticker::GetHitLn),
            stats.ticker(Ticker::GetMiss),
        );
        let _ = writeln!(
            out,
            "latency us: get p50/p90/p99 = {:.0}/{:.0}/{:.0}  write p50/p90/p99 = {:.0}/{:.0}/{:.0}",
            stats.get_latency.quantile(0.5) as f64 / 1e3,
            stats.get_latency.quantile(0.9) as f64 / 1e3,
            stats.get_latency.quantile(0.99) as f64 / 1e3,
            stats.write_latency.quantile(0.5) as f64 / 1e3,
            stats.write_latency.quantile(0.9) as f64 / 1e3,
            stats.write_latency.quantile(0.99) as f64 / 1e3,
        );
        let _ = writeln!(
            out,
            "shape: files/level={:?} bytes/level={:?} imm={} mutable={}KB",
            shape.files_per_level,
            shape.bytes_per_level,
            shape.immutables,
            shape.mutable_bytes / 1024,
        );
        let _ = writeln!(
            out,
            "flush: n={} bytes={}  compaction: n={} read={} written={} trivial={}",
            stats.ticker(Ticker::FlushCount),
            stats.ticker(Ticker::FlushBytes),
            stats.ticker(Ticker::CompactionCount),
            stats.ticker(Ticker::CompactReadBytes),
            stats.ticker(Ticker::CompactWriteBytes),
            stats.ticker(Ticker::TrivialMoves),
        );
        let _ = writeln!(
            out,
            "stalls: delayed={} stopped={} total={}ms  controller: {:?} rate={}MB/s",
            stats.ticker(Ticker::StallDelayedWrites),
            stats.ticker(Ticker::StallStoppedWrites),
            stats.ticker(Ticker::StallMicros) / 1_000,
            ctl.level,
            ctl.delayed_write_rate >> 20,
        );
        let _ = writeln!(
            out,
            "caches: block hit/miss = {cache_hits}/{cache_misses}  bloom useful={}  wal bytes={}",
            stats.ticker(Ticker::BloomUseful),
            stats.ticker(Ticker::WalBytes),
        );
        let _ = writeln!(
            out,
            "write groups: led={} joined={} avg waiting writers={:.2}",
            stats.ticker(Ticker::WriteGroupsLed),
            stats.ticker(Ticker::WritesJoinedGroup),
            stats.avg_waiting_writers(),
        );
        out
    }

    /// Shuts down: stops background workers and joins them. Unflushed
    /// memtables remain recoverable through the WAL.
    pub fn close(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.inner.flush_tx.close();
        self.inner.compact_tx.close();
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            w.join();
        }
    }
}

/// Pinned scan cursor returned by [`Db::scan`]; holds the version alive so
/// compaction cannot delete the files underneath it.
pub struct DbScanner {
    iter: DbIterator,
    _version: Arc<Version>,
    /// Exclusive user-key upper bound (`None` = unbounded); set by
    /// [`Db::scan_prefix`] so the cursor ends exactly where the prefix does.
    upper_bound: Option<Vec<u8>>,
}

impl std::fmt::Debug for DbScanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.iter.fmt(f)
    }
}

impl DbScanner {
    /// Positions at the first visible entry.
    ///
    /// # Errors
    ///
    /// Read failures.
    pub fn seek_to_first(&mut self) -> DbResult<bool> {
        self.iter.seek_to_first()?;
        Ok(self.valid())
    }

    /// Positions at the first visible entry with user key ≥ `key`.
    ///
    /// # Errors
    ///
    /// Read failures.
    pub fn seek(&mut self, key: &[u8]) -> DbResult<bool> {
        self.iter.seek(key)?;
        Ok(self.valid())
    }

    /// Advances to the next visible user key.
    ///
    /// # Errors
    ///
    /// Read failures.
    #[allow(clippy::should_implement_trait)] // fallible cursor, not an Iterator
    pub fn next(&mut self) -> DbResult<bool> {
        self.iter.next()?;
        Ok(self.valid())
    }

    /// Whether positioned on an entry (inside the upper bound, if any).
    pub fn valid(&self) -> bool {
        self.iter.valid()
            && self
                .upper_bound
                .as_deref()
                .is_none_or(|u| self.iter.key() < u)
    }

    /// Current user key.
    pub fn key(&self) -> &[u8] {
        self.iter.key()
    }

    /// Current value.
    pub fn value(&self) -> &[u8] {
        self.iter.value()
    }
}

/// An RAII snapshot handle; dropping it releases the pinned sequence.
pub struct Snapshot {
    inner: Arc<DbInner>,
    seq: SequenceNumber,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot").field("seq", &self.seq).finish()
    }
}

impl Snapshot {
    /// The pinned sequence number, for [`Db::get_at`].
    pub fn sequence(&self) -> SequenceNumber {
        self.seq
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut snaps = self.inner.snapshots.lock();
        if let Some(pos) = snaps.iter().position(|s| *s == self.seq) {
            snaps.swap_remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::StallLevel;
    use xlsm_device::{profiles, SimDevice};
    use xlsm_sim::Runtime;
    use xlsm_simfs::FsOptions;

    fn small_opts() -> DbOptions {
        DbOptions {
            write_buffer_size: 64 << 10,
            target_file_size_base: 64 << 10,
            max_bytes_for_level_base: 256 << 10,
            block_cache_capacity: 256 << 10,
            ..DbOptions::default()
        }
    }

    fn open_db(opts: DbOptions) -> (Db, Arc<SimFs>) {
        let fs = SimFs::new(
            SimDevice::shared(profiles::optane_900p()),
            FsOptions::default(),
        );
        let db = Db::open(Arc::clone(&fs), opts).unwrap();
        (db, fs)
    }

    #[test]
    fn put_get_delete_roundtrip() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            db.put(b"alpha", b"1").unwrap();
            db.put(b"beta", b"2").unwrap();
            assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()));
            db.put(b"alpha", b"1b").unwrap();
            assert_eq!(db.get(b"alpha").unwrap(), Some(b"1b".to_vec()));
            db.delete(b"alpha").unwrap();
            assert_eq!(db.get(b"alpha").unwrap(), None);
            assert_eq!(db.get(b"beta").unwrap(), Some(b"2".to_vec()));
            assert_eq!(db.get(b"gamma").unwrap(), None);
            db.close();
        });
    }

    #[test]
    fn values_survive_flush_to_l0() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            for i in 0..100u32 {
                db.put(format!("key{i:04}").as_bytes(), &[b'v'; 100])
                    .unwrap();
            }
            db.flush().unwrap();
            assert!(db.num_l0_files() >= 1);
            for i in 0..100u32 {
                assert_eq!(
                    db.get(format!("key{i:04}").as_bytes()).unwrap(),
                    Some(vec![b'v'; 100]),
                    "key{i:04} lost after flush"
                );
            }
            assert!(db.stats().ticker(Ticker::GetHitL0) > 0);
            db.close();
        });
    }

    #[test]
    fn heavy_writes_trigger_compaction_and_stay_readable() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            // ~4 MiB of data through a 64 KiB memtable => many flushes and
            // at least one compaction into L1.
            let value = vec![b'x'; 512];
            for i in 0..8000u32 {
                db.put(format!("key{:06}", i % 2000).as_bytes(), &value)
                    .unwrap();
            }
            db.flush().unwrap();
            db.wait_for_compactions();
            let shape = db.shape();
            assert!(
                shape.files_per_level[1..].iter().any(|&n| n > 0),
                "compaction should have populated deeper levels: {shape:?}"
            );
            assert!(db.stats().ticker(Ticker::CompactionCount) > 0);
            for i in 0..2000u32 {
                assert_eq!(
                    db.get(format!("key{i:06}").as_bytes()).unwrap(),
                    Some(value.clone()),
                    "key{i:06} lost after compaction"
                );
            }
            db.close();
        });
    }

    #[test]
    fn table_cache_bounded_by_max_open_files() {
        Runtime::new().run(|| {
            let opts = DbOptions {
                max_open_files: 16,
                ..small_opts()
            };
            let (db, _fs) = open_db(opts);
            let value = vec![b'v'; 512];
            for i in 0..4000u32 {
                db.put(format!("key{i:06}").as_bytes(), &value).unwrap();
            }
            db.flush().unwrap();
            db.wait_for_compactions();
            assert!(
                db.shape().files_per_level.iter().sum::<usize>() > 16,
                "need more live SSTs than the cap for the test to bite"
            );
            // Touch every file's key range; the cache must stay at the cap.
            for i in (0..4000u32).step_by(7) {
                assert_eq!(
                    db.get(format!("key{i:06}").as_bytes()).unwrap(),
                    Some(value.clone())
                );
            }
            assert!(
                db.open_table_readers() <= 16,
                "table cache holds {} readers, cap is 16",
                db.open_table_readers()
            );
            db.close();
        });
    }

    #[test]
    fn prefix_successor_brackets_starts_with_set() {
        assert_eq!(prefix_successor(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_successor(&[0x61, 0xff]), Some(vec![0x62]));
        assert_eq!(prefix_successor(&[0xff, 0xff]), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn memtable_bloom_rejects_misses_without_skiplist_walks() {
        Runtime::new().run(|| {
            let opts = DbOptions {
                memtable_bloom_bits: 10,
                ..small_opts()
            };
            let (db, _fs) = open_db(opts);
            for i in 0..200u32 {
                db.put(format!("key{i:04}").as_bytes(), b"v").unwrap();
            }
            // Present keys must never be filtered.
            for i in 0..200u32 {
                assert_eq!(
                    db.get(format!("key{i:04}").as_bytes()).unwrap(),
                    Some(b"v".to_vec())
                );
            }
            assert_eq!(db.stats().ticker(Ticker::MemtableBloomUseful), 0);
            for i in 0..200u32 {
                assert_eq!(db.get(format!("abs{i:04}").as_bytes()).unwrap(), None);
            }
            let useful = db.stats().ticker(Ticker::MemtableBloomUseful);
            assert!(
                useful > 180,
                "memtable bloom should reject most absent keys, got {useful}"
            );
            db.close();
        });
    }

    #[test]
    fn scan_prefix_matches_filtered_full_scan_and_prunes_files() {
        Runtime::new().run(|| {
            let opts = DbOptions {
                bloom_bits_per_key: 10,
                prefix_extractor: Some(4),
                ..small_opts()
            };
            let (db, _fs) = open_db(opts);
            // Three prefix families spread over several SSTs plus the
            // memtable; one key later deleted.
            for round in 0..3u32 {
                for i in 0..120u32 {
                    let p = ["aaaa", "bbbb", "cccc"][(i % 3) as usize];
                    db.put(format!("{p}{:04}", i + round).as_bytes(), &[b'v'; 64])
                        .unwrap();
                }
                db.flush().unwrap();
            }
            db.delete(b"bbbb0004").unwrap();
            db.put(b"bbbb9999", b"mem-only").unwrap();

            let mut expect = Vec::new();
            let mut full = db.scan().unwrap();
            let mut ok = full.seek_to_first().unwrap();
            while ok {
                if full.key().starts_with(b"bbbb") {
                    expect.push((full.key().to_vec(), full.value().to_vec()));
                }
                ok = full.next().unwrap();
            }
            assert!(!expect.is_empty());

            let mut got = Vec::new();
            let mut scan = db.scan_prefix(b"bbbb").unwrap();
            let mut ok = scan.valid();
            while ok {
                got.push((scan.key().to_vec(), scan.value().to_vec()));
                ok = scan.next().unwrap();
            }
            assert_eq!(got, expect, "prefix scan diverged from filtered scan");
            assert!(got.iter().all(|(k, _)| !k.starts_with(b"bbbb0004")));
            db.close();
        });
    }

    #[test]
    fn sharded_table_cache_speeds_up_multi_get_fanout() {
        // Identical workloads, 1 shard vs 8: results must match and the
        // sharded run must spend less virtual time in the fan-out phase.
        let run = |shards: usize| {
            let mut elapsed = 0u64;
            let mut results = Vec::new();
            let mut counters = (0, 0);
            Runtime::new().run(|| {
                let opts = DbOptions {
                    table_cache_shards: shards,
                    multi_get_parallelism: 8,
                    ..small_opts()
                };
                let (db, _fs) = open_db(opts);
                let value = vec![b'v'; 256];
                for i in 0..3000u32 {
                    db.put(format!("key{i:06}").as_bytes(), &value).unwrap();
                }
                db.flush().unwrap();
                db.wait_for_compactions();
                let t0 = xlsm_sim::now_nanos();
                for batch in 0..20u32 {
                    let keys: Vec<String> = (0..32u32)
                        .map(|i| format!("key{:06}", (batch * 151 + i * 89) % 3000))
                        .collect();
                    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
                    results.push(db.multi_get(&refs).unwrap());
                }
                elapsed = xlsm_sim::now_nanos() - t0;
                counters = db.table_cache_counters();
                db.close();
            });
            (elapsed, results, counters)
        };
        let (t1, r1, _) = run(1);
        let (t8, r8, c8) = run(8);
        assert_eq!(r1, r8, "sharding must not change read results");
        assert!(c8.0 + c8.1 > 0, "table cache counters should move");
        assert!(
            t8 < t1,
            "8 shards ({t8} ns) should beat 1 shard ({t1} ns) at fan-out 8"
        );
    }

    #[test]
    fn multi_get_resolves_across_memtable_ssts_and_tombstones() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            for i in 0..400u32 {
                db.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
            db.delete(b"key0003").unwrap(); // tombstone over an SST value
            db.put(b"key0001", b"fresh").unwrap(); // memtable shadows SST
            let keys: Vec<&[u8]> = vec![b"key0001", b"key0002", b"key0003", b"nope"];
            let got = db.multi_get(&keys).unwrap();
            assert_eq!(got[0], Some(b"fresh".to_vec()));
            assert_eq!(got[1], Some(b"v2".to_vec()));
            assert_eq!(got[2], None, "tombstone must win over older SST value");
            assert_eq!(got[3], None);
            assert_eq!(db.stats().ticker(Ticker::MultiGetBatches), 1);
            assert_eq!(db.stats().ticker(Ticker::MultiGetKeys), 4);
            db.close();
        });
    }

    #[test]
    fn reopen_recovers_from_wal() {
        Runtime::new().run(|| {
            let (db, fs) = open_db(small_opts());
            db.put(b"durable", b"yes").unwrap();
            db.put(b"another", b"val").unwrap();
            // No flush: data only in memtable + WAL.
            db.close();
            let db2 = Db::open(Arc::clone(&fs), small_opts()).unwrap();
            assert_eq!(db2.get(b"durable").unwrap(), Some(b"yes".to_vec()));
            assert_eq!(db2.get(b"another").unwrap(), Some(b"val".to_vec()));
            // New writes still work and sequences did not regress.
            db2.put(b"post", b"recovery").unwrap();
            assert_eq!(db2.get(b"post").unwrap(), Some(b"recovery".to_vec()));
            db2.close();
        });
    }

    #[test]
    fn reopen_recovers_ssts_and_wal_together() {
        Runtime::new().run(|| {
            let (db, fs) = open_db(small_opts());
            for i in 0..200u32 {
                db.put(format!("sst{i:04}").as_bytes(), b"on-disk").unwrap();
            }
            db.flush().unwrap();
            db.put(b"wal-only", b"in-log").unwrap();
            db.close();
            let db2 = Db::open(Arc::clone(&fs), small_opts()).unwrap();
            assert_eq!(db2.get(b"sst0100").unwrap(), Some(b"on-disk".to_vec()));
            assert_eq!(db2.get(b"wal-only").unwrap(), Some(b"in-log".to_vec()));
            db2.close();
        });
    }

    #[test]
    fn orphan_sst_is_swept_on_reopen() {
        Runtime::new().run(|| {
            let (db, fs) = open_db(small_opts());
            for i in 0..100u32 {
                db.put(format!("key{i:04}").as_bytes(), b"live").unwrap();
            }
            db.flush().unwrap();
            db.close();
            // Strand an SST the way a crash between table build and
            // MANIFEST install would: on disk, never referenced.
            let stray = sst_file_name("db", 900_000);
            let f = fs.create(&stray).unwrap();
            f.append(b"half-built table").unwrap();
            f.sync().unwrap();
            drop(f);
            let db2 = Db::open(Arc::clone(&fs), small_opts()).unwrap();
            assert!(!fs.exists(&stray), "orphan sst must be swept at open");
            assert!(db2.stats().ticker(Ticker::OrphanFilesDeleted) >= 1);
            // The sweep only reaps what the recovered version does not own.
            assert_eq!(db2.get(b"key0042").unwrap(), Some(b"live".to_vec()));
            db2.close();
        });
    }

    #[test]
    fn leftover_sst_numbers_are_reclaimed_before_recovery_allocates() {
        Runtime::new().run(|| {
            let (db, fs) = open_db(small_opts());
            for i in 0..10u32 {
                db.put(format!("key{i:02}").as_bytes(), b"walv").unwrap();
            }
            db.close(); // keys live only in the WAL: reopen must flush them
                        // Strand SSTs at the numbers recovery would allocate next, the
                        // way a power cut between a flush output's creation and its
                        // durable MANIFEST install leaves them.
            let max = fs
                .list("db/")
                .into_iter()
                .filter_map(|p| {
                    parse_file_number(&p, ".sst").or_else(|| parse_file_number(&p, ".log"))
                })
                .max()
                .unwrap();
            for n in max + 1..max + 12 {
                let f = fs.create(&sst_file_name("db", n)).unwrap();
                f.append(b"half-built flush output").unwrap();
                f.sync().unwrap();
            }
            let db2 = Db::open(Arc::clone(&fs), small_opts())
                .expect("reopen must not collide with leftover file numbers");
            for i in 0..10u32 {
                assert_eq!(
                    db2.get(format!("key{i:02}").as_bytes()).unwrap(),
                    Some(b"walv".to_vec())
                );
            }
            db2.close();
        });
    }

    #[test]
    fn torn_wal_tail_fails_absolute_but_not_point_in_time() {
        Runtime::new().run(|| {
            let (db, fs) = open_db(small_opts());
            db.put(b"k1", b"v1").unwrap();
            db.put(b"k2", b"v2").unwrap();
            db.close();
            // Append a torn frame to the live WAL: a header promising 255
            // payload bytes that never made it to disk.
            let log = fs
                .list("db/")
                .into_iter()
                .filter(|p| p.ends_with(".log"))
                .max()
                .unwrap();
            let f = fs.open(&log).unwrap();
            f.append(&[0xde, 0xad, 0xbe, 0xef, 0xff, 0x00, 0x00, 0x00])
                .unwrap();
            drop(f);
            let abs = DbOptions {
                wal_recovery_mode: WalRecoveryMode::AbsoluteConsistency,
                ..small_opts()
            };
            let err = Db::open(Arc::clone(&fs), abs).unwrap_err();
            assert!(err.is_corruption(), "got {err:?}");
            // Default point-in-time recovery drops the tail and keeps the
            // committed prefix.
            let db2 = Db::open(Arc::clone(&fs), small_opts()).unwrap();
            assert_eq!(db2.get(b"k1").unwrap(), Some(b"v1".to_vec()));
            assert_eq!(db2.get(b"k2").unwrap(), Some(b"v2".to_vec()));
            assert!(db2.stats().ticker(Ticker::WalDroppedTailBytes) >= 8);
            assert!(db2.stats().ticker(Ticker::WalRecoveredRecords) >= 2);
            db2.close();
        });
    }

    /// Builds a db whose only WAL holds puts `a`, `b`, `c` — then rewrites
    /// the log without the middle record, so every frame is CRC-valid but
    /// the sequence stream has an interior hole.
    fn fs_with_gapped_wal() -> Arc<SimFs> {
        let (db, fs) = open_db(small_opts());
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        db.put(b"c", b"3").unwrap();
        db.close();
        let log = fs
            .list("db/")
            .into_iter()
            .filter(|p| p.ends_with(".log"))
            .max()
            .unwrap();
        let records = scan_wal(&fs, &log, WalRecoveryMode::TolerateCorruptedTailRecords)
            .unwrap()
            .records;
        assert_eq!(records.len(), 3, "one record per serial put");
        let number = parse_file_number(&log, ".log").unwrap();
        fs.delete(&log).unwrap();
        let w = WalWriter::create(&fs, "db", number, 0).unwrap();
        for (i, rec) in records.iter().enumerate() {
            if i != 1 {
                w.append(rec, true).unwrap();
            }
        }
        fs
    }

    #[test]
    fn sequence_gap_fails_absolute_consistency_open() {
        Runtime::new().run(|| {
            let fs = fs_with_gapped_wal();
            let abs = DbOptions {
                wal_recovery_mode: WalRecoveryMode::AbsoluteConsistency,
                ..small_opts()
            };
            let err = Db::open(Arc::clone(&fs), abs).unwrap_err();
            assert!(err.is_corruption(), "got {err:?}");
            assert!(format!("{err}").contains("sequence gap"), "{err}");
        });
    }

    #[test]
    fn sequence_gap_stops_point_in_time_recovery() {
        Runtime::new().run(|| {
            let fs = fs_with_gapped_wal();
            let db = Db::open(Arc::clone(&fs), small_opts()).unwrap();
            // The consistent prefix ends before the hole: only `a` is
            // recovered; the record *after* the gap must not be replayed
            // even though its checksum is fine.
            assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
            assert_eq!(db.get(b"b").unwrap(), None);
            assert_eq!(db.get(b"c").unwrap(), None);
            assert_eq!(db.stats().ticker(Ticker::WalRecoveredRecords), 1);
            assert!(db.stats().ticker(Ticker::WalDroppedTailBytes) > 0);
            db.close();
        });
    }

    #[test]
    fn sequence_gap_is_counted_but_replayed_under_skip_any() {
        Runtime::new().run(|| {
            let fs = fs_with_gapped_wal();
            let opts = DbOptions {
                wal_recovery_mode: WalRecoveryMode::SkipAnyCorruptedRecords,
                ..small_opts()
            };
            let db = Db::open(Arc::clone(&fs), opts).unwrap();
            // Salvage-everything mode: both surviving records apply, and
            // the hole is surfaced through the skip ticker.
            assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
            assert_eq!(db.get(b"b").unwrap(), None);
            assert_eq!(db.get(b"c").unwrap(), Some(b"3".to_vec()));
            assert!(db.stats().ticker(Ticker::WalSkippedCorruptRecords) >= 1);
            db.close();
        });
    }

    #[test]
    fn sequence_gap_is_invisible_to_tolerate_mode() {
        Runtime::new().run(|| {
            let fs = fs_with_gapped_wal();
            let opts = DbOptions {
                wal_recovery_mode: WalRecoveryMode::TolerateCorruptedTailRecords,
                ..small_opts()
            };
            // The legacy mode has no sequence checks at all: both records
            // replay and nothing is reported.
            let db = Db::open(Arc::clone(&fs), opts).unwrap();
            assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
            assert_eq!(db.get(b"c").unwrap(), Some(b"3".to_vec()));
            assert_eq!(db.stats().ticker(Ticker::WalSkippedCorruptRecords), 0);
            db.close();
        });
    }

    #[test]
    fn wal_disabled_loses_unflushed_data_on_reopen() {
        Runtime::new().run(|| {
            let opts = DbOptions {
                enable_wal: false,
                ..small_opts()
            };
            let (db, fs) = open_db(opts.clone());
            db.put(b"volatile", b"gone").unwrap();
            db.close();
            let db2 = Db::open(Arc::clone(&fs), opts).unwrap();
            assert_eq!(db2.get(b"volatile").unwrap(), None);
            db2.close();
        });
    }

    #[test]
    fn scan_sees_merged_view() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            for i in 0..300u32 {
                db.put(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
            // Overwrite some in the new memtable, delete others.
            db.put(b"k0000", b"fresh").unwrap();
            db.delete(b"k0001").unwrap();
            let mut scan = db.scan().unwrap();
            assert!(scan.seek_to_first().unwrap());
            assert_eq!(scan.key(), b"k0000");
            assert_eq!(scan.value(), b"fresh");
            assert!(scan.next().unwrap());
            assert_eq!(scan.key(), b"k0002", "deleted key skipped");
            let mut count = 2;
            while scan.next().unwrap() {
                count += 1;
            }
            assert_eq!(count, 299, "300 keys minus 1 deletion");
            // Seek.
            assert!(scan.seek(b"k0150").unwrap());
            assert_eq!(scan.key(), b"k0150");
            drop(scan);
            db.close();
        });
    }

    #[test]
    fn snapshot_isolation() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            db.put(b"k", b"v1").unwrap();
            let snap = db.snapshot();
            db.put(b"k", b"v2").unwrap();
            assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
            assert_eq!(
                db.get_at(b"k", snap.sequence()).unwrap(),
                Some(b"v1".to_vec())
            );
            drop(snap);
            db.close();
        });
    }

    #[test]
    fn concurrent_clients() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            let db = Arc::new(db);
            let mut handles = Vec::new();
            for t in 0..8u32 {
                let db = Arc::clone(&db);
                handles.push(xlsm_sim::spawn(&format!("client{t}"), move || {
                    for i in 0..200u32 {
                        let key = format!("t{t}-k{i:04}");
                        db.put(key.as_bytes(), key.as_bytes()).unwrap();
                        if i % 3 == 0 {
                            let read_key = format!("t{t}-k{:04}", i / 2);
                            let v = db.get(read_key.as_bytes()).unwrap();
                            assert_eq!(v, Some(read_key.into_bytes()));
                        }
                    }
                }));
            }
            for h in handles {
                h.join();
            }
            assert_eq!(db.stats().ticker(Ticker::Puts), 8 * 200);
            db.close();
        });
    }

    #[test]
    fn write_stalls_under_memtable_pressure() {
        Runtime::new().run(|| {
            // Tiny memtables, very slow device for flushing: writes must
            // stall on the memtable budget but still complete correctly.
            let fs = SimFs::new(
                SimDevice::shared(profiles::intel_530_sata()),
                FsOptions::default(),
            );
            let opts = DbOptions {
                write_buffer_size: 64 << 10,
                target_file_size_base: 64 << 10,
                max_bytes_for_level_base: 256 << 10,
                ..DbOptions::default()
            };
            let db = Db::open(Arc::clone(&fs), opts).unwrap();
            let value = vec![b'x'; 1024];
            for i in 0..512u32 {
                db.put(format!("k{i:05}").as_bytes(), &value).unwrap();
            }
            assert!(
                db.stats().ticker(Ticker::StallMicros) > 0
                    || db.stats().ticker(Ticker::FlushCount) > 0,
                "expected stall or flush activity"
            );
            db.flush().unwrap();
            db.wait_for_compactions();
            assert_eq!(db.get(b"k00000").unwrap(), Some(value.clone()));
            db.close();
        });
    }

    #[test]
    fn l0_slowdown_throttles_writes() {
        Runtime::new().run(|| {
            // Very low slowdown trigger and no compaction workers able to
            // keep up (0 is invalid; use 1 worker + huge compaction debt).
            let opts = DbOptions {
                write_buffer_size: 64 << 10,
                target_file_size_base: 64 << 10,
                level0_file_num_compaction_trigger: 2,
                level0_slowdown_writes_trigger: 3,
                level0_stop_writes_trigger: 8,
                max_background_compactions: 1,
                ..DbOptions::default()
            };
            let fs = SimFs::new(
                SimDevice::shared(profiles::intel_530_sata()),
                FsOptions::default(),
            );
            let db = Db::open(Arc::clone(&fs), opts).unwrap();
            let value = vec![b'z'; 1024];
            for i in 0..1500u32 {
                db.put(format!("k{i:06}").as_bytes(), &value).unwrap();
            }
            assert!(
                db.stats().ticker(Ticker::StallDelayedWrites) > 0,
                "L0 slowdown should have delayed some writes"
            );
            db.flush().unwrap();
            db.wait_for_compactions();
            db.close();
        });
    }

    #[test]
    fn stall_breakdown_reconciles_with_write_latency() {
        // The tentpole's self-check: under a throttle-prone workload, the
        // summed per-op components (queue wait + WAL + memtable + delay +
        // stop) must explain the observed end-to-end write latency to
        // within 10%. The unattributed remainder is the fixed per-write
        // setup cost plus memtable-switch bookkeeping.
        Runtime::new().run(|| {
            let opts = DbOptions {
                write_buffer_size: 64 << 10,
                target_file_size_base: 64 << 10,
                level0_file_num_compaction_trigger: 2,
                level0_slowdown_writes_trigger: 3,
                level0_stop_writes_trigger: 8,
                max_background_compactions: 1,
                ..DbOptions::default()
            };
            let fs = SimFs::new(
                SimDevice::shared(profiles::intel_530_sata()),
                FsOptions::default(),
            );
            let db = Db::open(Arc::clone(&fs), opts).unwrap();
            let value = vec![b'z'; 1024];
            for i in 0..1500u32 {
                db.put(format!("k{i:06}").as_bytes(), &value).unwrap();
            }
            let m = db.metrics();
            assert_eq!(m.stall.ops, 1500);
            assert!(
                m.stall.delay_sleep_ns > 0,
                "workload must actually throttle: {:?}",
                m.stall
            );
            let coverage = m.stall_coverage();
            assert!(
                (coverage - 1.0).abs() <= 0.10,
                "breakdown must reconcile with observed latency within 10%: \
                 coverage={coverage:.4} totals={:?}",
                m.stall
            );
            // The event log saw the controller move.
            assert!(
                m.stall_events.iter().any(|e| e.level != StallLevel::Clear),
                "expected throttling transitions in the event log"
            );
            // Device-side time is threaded into the same snapshot.
            assert!(m.device.writes > 0);
            db.flush().unwrap();
            db.wait_for_compactions();
            db.close();
        });
    }

    #[test]
    fn metrics_drain_stall_events_once() {
        Runtime::new().run(|| {
            let fs = SimFs::new(
                SimDevice::shared(profiles::intel_530_sata()),
                FsOptions::default(),
            );
            let opts = DbOptions {
                write_buffer_size: 64 << 10,
                target_file_size_base: 64 << 10,
                level0_file_num_compaction_trigger: 2,
                level0_slowdown_writes_trigger: 3,
                level0_stop_writes_trigger: 8,
                ..DbOptions::default()
            };
            let db = Db::open(Arc::clone(&fs), opts).unwrap();
            let value = vec![b'q'; 1024];
            for i in 0..600u32 {
                db.put(format!("k{i:06}").as_bytes(), &value).unwrap();
            }
            let first = db.metrics();
            assert!(
                !first.stall_events.is_empty(),
                "throttled run must log events"
            );
            let second = db.metrics();
            assert!(
                second.stall_events.is_empty(),
                "drained events must not repeat"
            );
            assert_eq!(second.stall.events_pushed, first.stall.events_pushed);
            assert_eq!(second.tickers.get(Ticker::Puts), 600);
            assert!(second.wal_device.is_none(), "shared device: no WAL split");
            db.flush().unwrap();
            db.wait_for_compactions();
            db.close();
        });
    }

    #[test]
    fn batched_writes_are_atomic() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            let mut batch = WriteBatch::new();
            batch.put(b"a", b"1");
            batch.put(b"b", b"2");
            batch.delete(b"a");
            db.write(batch).unwrap();
            assert_eq!(db.get(b"a").unwrap(), None);
            assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
            db.close();
        });
    }

    #[test]
    fn stats_report_mentions_key_sections() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            for i in 0..200u32 {
                db.put(format!("k{i:04}").as_bytes(), &[b'v'; 200]).unwrap();
            }
            db.flush().unwrap();
            let _ = db.get(b"k0001").unwrap();
            let report = db.stats_report();
            for needle in [
                "ops:",
                "latency us:",
                "shape:",
                "flush:",
                "stalls:",
                "caches:",
                "write groups:",
            ] {
                assert!(report.contains(needle), "missing {needle} in:\n{report}");
            }
            db.close();
        });
    }

    #[test]
    fn shutdown_rejects_new_writes() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            db.put(b"k", b"v").unwrap();
            db.close();
            assert!(matches!(db.put(b"k2", b"v"), Err(DbError::ShuttingDown)));
        });
    }

    #[test]
    fn set_write_buffer_size_changes_l0_geometry() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            assert_eq!(db.write_buffer_size(), 64 << 10);
            db.set_write_buffer_size(256 << 10);
            assert_eq!(db.write_buffer_size(), 256 << 10);
            // Below the floor clamps.
            db.set_write_buffer_size(1);
            assert_eq!(db.write_buffer_size(), 64 << 10);
            db.close();
        });
    }

    #[test]
    fn dropped_tombstone_must_not_resurrect_older_value() {
        // Regression: when a droppable tombstone is the FIRST version of a
        // key seen by a compaction, the older value beneath it must still
        // be shadowed (the per-key state reset must precede the drop
        // decision).
        Runtime::new().run(|| {
            let (db, _fs) = open_db(DbOptions {
                // Trigger compaction with few files so the tombstone file
                // and the value file merge.
                level0_file_num_compaction_trigger: 2,
                ..small_opts()
            });
            for i in 0..300u32 {
                db.put(format!("k{i:05}").as_bytes(), &[b'v'; 128]).unwrap();
            }
            db.flush().unwrap();
            for i in 0..300u32 {
                db.delete(format!("k{i:05}").as_bytes()).unwrap();
            }
            db.flush().unwrap();
            db.wait_for_compactions();
            assert!(
                db.stats().ticker(Ticker::CompactionCount) > 0,
                "test requires a real compaction"
            );
            for i in 0..300u32 {
                assert_eq!(
                    db.get(format!("k{i:05}").as_bytes()).unwrap(),
                    None,
                    "key k{i:05} resurrected after compaction"
                );
            }
            let mut scan = db.scan().unwrap();
            assert!(!scan.seek_to_first().unwrap(), "scan must be empty");
            drop(scan);
            db.close();
        });
    }

    #[test]
    fn tombstones_collapse_at_bottom_level() {
        Runtime::new().run(|| {
            let (db, _fs) = open_db(small_opts());
            for i in 0..400u32 {
                db.put(format!("k{i:05}").as_bytes(), &vec![b'v'; 256])
                    .unwrap();
            }
            db.flush().unwrap();
            for i in 0..400u32 {
                db.delete(format!("k{i:05}").as_bytes()).unwrap();
            }
            db.flush().unwrap();
            db.wait_for_compactions();
            for i in (0..400u32).step_by(37) {
                assert_eq!(db.get(format!("k{i:05}").as_bytes()).unwrap(), None);
            }
            let mut scan = db.scan().unwrap();
            assert!(!scan.seek_to_first().unwrap(), "everything was deleted");
            drop(scan);
            db.close();
        });
    }
}
