//! The get/put object-store abstraction and its cost model.
//!
//! The paper's applications "make use of simple get/put storage primitives"
//! (Section 4): allocate an object, read it, replace it atomically with a safe
//! write, delete it.  [`ObjectStore`] is that interface; one store shell
//! (`shell.rs`) implements it over the filesystem, database and segment-log
//! simulators and charges every operation to a simulated disk plus a
//! host-side [`CostModel`], so that throughput can be measured exactly the
//! way the paper measures it: bytes moved divided by the time the storage
//! system needed.

use lor_alloc::{BandOccupancy, FragmentationSummary, FreeSpaceReport};
use lor_disksim::{ByteRun, ServiceTime, SimDuration};
use lor_obs::Obs;
use serde::{Deserialize, Serialize};

use crate::error::StoreError;

/// Which storage system backs a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StoreKind {
    /// One file per object on the NTFS-like volume ("Filesystem" in the
    /// paper's figures).
    Filesystem,
    /// One out-of-row BLOB per object in the SQL-Server-like engine
    /// ("Database" in the paper's figures).
    Database,
    /// Append-only segment log with a cost-benefit cleaner (`lor-logstore`)
    /// — the third substrate the paper's FS/DB bracket is missing.
    LogStructured,
}

impl StoreKind {
    /// The label the paper's figures use for this system.
    pub fn label(&self) -> &'static str {
        match self {
            StoreKind::Filesystem => "Filesystem",
            StoreKind::Database => "Database",
            StoreKind::LogStructured => "Log",
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What one store operation cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpReceipt {
    /// Application payload bytes moved (object bytes, not pages/clusters).
    pub payload_bytes: u64,
    /// Bytes physically transferred to or from the disk.
    pub transferred_bytes: u64,
    /// Mechanical disk time (seek + rotation + transfer + controller).
    pub disk_time: ServiceTime,
    /// Host-side time (opens, lookups, per-page processing, client chunking).
    pub host_time: SimDuration,
    /// Physical fragments the object's data occupied at the time of the
    /// operation (for reads) or was written into (for writes).
    pub fragments: u64,
}

impl OpReceipt {
    /// Total time charged to the operation.
    pub fn total_time(&self) -> SimDuration {
        self.disk_time.total() + self.host_time
    }
}

/// Host-side cost model: everything that is not the disk mechanism.
///
/// Defaults are calibrated so that a clean store reproduces the orderings of
/// the paper's Figure 1 and Figure 4 (database faster below ~1 MB and during
/// bulk load; filesystem faster for 10 MB objects), on top of the
/// [`lor_disksim`] mechanical model.  The constants are deliberately exposed
/// so ablation benches can explore them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Metadata I/Os (directory + MFT-style record fetches) charged per file
    /// open.  Each costs [`CostModel::metadata_io_time`].
    pub fs_open_metadata_ios: u32,
    /// Cost of one metadata I/O (an uncached small random read).
    pub metadata_io_time: SimDuration,
    /// Extra metadata I/Os charged when a file is created or replaced
    /// (directory update, MFT record allocation, log force).
    pub fs_create_metadata_ios: u32,
    /// Host CPU cost of a database lookup (the metadata table and the BLOB
    /// root are assumed cached, per the paper's out-of-row setup).
    pub db_lookup_time: SimDuration,
    /// Per-page processing cost on the database path (buffer pool, record
    /// assembly, network marshalling) — the "client interfaces are not
    /// designed for large objects" folklore made concrete.
    pub db_per_page_time: SimDuration,
    /// The database client streams objects in chunks of at most this many
    /// bytes; each chunk costs [`CostModel::db_per_chunk_time`].
    pub db_client_chunk_bytes: u64,
    /// Per-chunk request/response overhead on the database path.
    pub db_per_chunk_time: SimDuration,
    /// Per-write-request host cost on the filesystem path (system call and
    /// cache management per append).
    pub fs_per_write_request_time: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            fs_open_metadata_ios: 2,
            metadata_io_time: SimDuration::from_millis_f64(12.0),
            fs_create_metadata_ios: 1,
            db_lookup_time: SimDuration::from_millis_f64(1.0),
            db_per_page_time: SimDuration::from_micros(50),
            db_client_chunk_bytes: 256 * 1024,
            db_per_chunk_time: SimDuration::from_millis_f64(1.0),
            fs_per_write_request_time: SimDuration::from_micros(100),
        }
    }
}

impl CostModel {
    /// Host time for opening/looking up a file and reading it.
    pub fn fs_read_host_time(&self) -> SimDuration {
        self.metadata_io_time * u64::from(self.fs_open_metadata_ios)
    }

    /// Host time for creating (or safe-writing) a file of `write_requests`
    /// chunks.
    pub fn fs_write_host_time(&self, write_requests: u64) -> SimDuration {
        self.metadata_io_time * u64::from(self.fs_open_metadata_ios + self.fs_create_metadata_ios)
            + self.fs_per_write_request_time * write_requests
    }

    /// Host time for reading `pages` database pages holding `payload_bytes`.
    pub fn db_read_host_time(&self, pages: u64, payload_bytes: u64) -> SimDuration {
        let chunks = payload_bytes
            .div_ceil(self.db_client_chunk_bytes.max(1))
            .max(1);
        self.db_lookup_time + self.db_per_page_time * pages + self.db_per_chunk_time * chunks
    }

    /// Host time for writing `pages` database pages holding `payload_bytes`.
    pub fn db_write_host_time(&self, pages: u64, payload_bytes: u64) -> SimDuration {
        // Same shape as the read path; bulk-logged mode means there is no
        // second log copy of the data.
        self.db_read_host_time(pages, payload_bytes)
    }

    /// Host time for looking up an object in the log store's memory-resident
    /// index and planning the read — one lookup, no metadata I/O (the log's
    /// index is rebuilt at mount and pinned).
    pub fn log_read_host_time(&self) -> SimDuration {
        self.db_lookup_time
    }

    /// Host time for appending an object of `write_requests` chunks to the
    /// log head: the index update plus per-request submission cost.
    pub fn log_write_host_time(&self, write_requests: u64) -> SimDuration {
        self.db_lookup_time + self.fs_per_write_request_time * write_requests
    }
}

/// A large-object repository with get/put semantics.
///
/// All mutating operations are charged to the store's internal clock; the
/// experiment harness resets the clock around each measurement phase and
/// computes throughput as payload bytes divided by elapsed clock time.
///
/// Stores are `Send` so a sharded fleet can drain each shard's
/// sub-stream on its own worker thread (`lor-shard`'s parallel
/// execution); each store is still driven by exactly one thread at a
/// time — nothing here is `Sync`.
pub trait ObjectStore: Send {
    /// Which system backs this store.
    fn kind(&self) -> StoreKind;

    /// Stores a new object of `size_bytes` under `key`.
    fn put(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError>;

    /// Reads the whole object stored under `key`.
    fn get(&mut self, key: &str) -> Result<OpReceipt, StoreError>;

    /// Atomically replaces the object under `key` with a new version of
    /// `size_bytes` (safe write / wholesale BLOB replacement).
    fn safe_write(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError>;

    /// Replaces several objects whose writes are in flight concurrently, so
    /// that their write requests interleave on disk (the behaviour of a web
    /// application serving parallel uploads).
    ///
    /// Which operations form a batch is decided in exactly one place — the
    /// request scheduler ([`crate::StoreServer`]) groups the safe writes
    /// that are queued together when the spindle frees up — so every
    /// substrate shares one batching path and only implements the
    /// interleaved allocation itself.  (The filesystem and the database have
    /// deliberately no sequential fallback: a batch that did not interleave
    /// would silently under-report fragmentation.  The segment log
    /// serializes appends, so its batch is the items' safe writes in order.)
    fn safe_write_batch(&mut self, items: &[(String, u64)]) -> Result<Vec<OpReceipt>, StoreError>;

    /// Deletes the object stored under `key`.
    fn delete(&mut self, key: &str) -> Result<OpReceipt, StoreError>;

    /// `true` if an object with this key exists.
    fn contains(&self, key: &str) -> bool;

    /// Number of live objects.
    fn object_count(&self) -> usize;

    /// Keys of all live objects, in unspecified but deterministic order.
    fn keys(&self) -> Vec<String>;

    /// Logical size of the object under `key`.
    fn size_of(&self, key: &str) -> Result<u64, StoreError>;

    /// Physical layout (byte runs on the simulated disk) of the object under
    /// `key`, in logical order.
    fn layout_of(&self, key: &str) -> Result<Vec<ByteRun>, StoreError>;

    /// Fragments-per-object summary over all live objects.
    fn fragmentation(&self) -> FragmentationSummary;

    /// Bytes of capacity available to object data.
    fn data_capacity_bytes(&self) -> u64;

    /// Bytes of live object payload currently stored.
    fn live_bytes(&self) -> u64;

    /// Simulated time accumulated since the last [`ObjectStore::reset_measurements`].
    fn elapsed(&self) -> SimDuration;

    /// Clears the clock and disk statistics (not the stored data).
    fn reset_measurements(&mut self);

    /// Runs the store's maintenance / defragmentation procedure (the online
    /// defragmenter for the filesystem, the table rebuild for the database).
    /// Returns the payload bytes that had to be copied.
    fn maintenance(&mut self) -> Result<u64, StoreError>;

    /// The store's write-request (append chunk) size in bytes.
    fn write_request_size(&self) -> u64;

    /// Statistics of the background maintenance scheduler, when the store was
    /// built with a [`lor_maint::MaintenanceConfig`] (`None` otherwise).
    fn maintenance_stats(&self) -> Option<lor_maint::MaintenanceStats> {
        None
    }

    /// The maintenance configuration the store was built with, if any.  The
    /// request scheduler reads this to decide whether it owns the
    /// maintenance drive (`server_driven` configs).
    fn maintenance_config(&self) -> Option<lor_maint::MaintenanceConfig> {
        None
    }

    /// Runs one budgeted background-maintenance slice (the store's task
    /// queue: checkpoint, ghost cleanup, incremental defragmentation) and
    /// returns the background I/O it performed — **without** charging the
    /// store's own measurement clock.  The caller (the request scheduler)
    /// owns the interference model: it decides when the slice occupies the
    /// spindle and which foreground requests overlap it.  `now` is the
    /// caller's simulated clock at the slice, so time-based maintenance
    /// state (the substrate-aware ghost deferral) ages with the workload
    /// instead of with the slice rate.  Returns
    /// [`lor_maint::MaintIo::NONE`] when no scheduler is attached or there
    /// is nothing to do.
    fn maintenance_slice(&mut self, budget_bytes: u64, now: SimDuration) -> lor_maint::MaintIo {
        let _ = (budget_bytes, now);
        lor_maint::MaintIo::NONE
    }

    /// Stores a new object under `key` as **background migration traffic**:
    /// placement goes through the allocator's `Maintenance` consumer, so an
    /// incoming rebalanced object can only land in space the placement
    /// policy has ceded to maintenance and can never consume the contiguous
    /// runs the destination's foreground writes depend on.  Under a banded
    /// or reserve policy the write *fails* (out of space) rather than
    /// spilling into the foreground band — that refusal is the guarantee.
    ///
    /// Unlike [`ObjectStore::put`], a migration write does not count as a
    /// foreground operation: it must not tick the store's own maintenance
    /// scheduler (migration *is* maintenance).  The default implementation
    /// falls back to a plain put for stores without a placement-aware
    /// allocator.
    fn migrate_in(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.put(key, size_bytes)
    }

    /// Attaches an observability handle: the store passes it down to its
    /// disk model (per-request disk spans) and maintenance scheduler
    /// (per-task spans and budget gauges).  The default store ignores it —
    /// observability is strictly opt-in and a [`lor_obs::Obs::null`] handle
    /// costs nothing.
    fn set_obs(&mut self, obs: Obs) {
        let _ = obs;
    }

    /// Free-space shape of the underlying volume / data file, for the probe
    /// tick's gauges.  `None` when the store has no meaningful free-space map.
    fn free_space_report(&self) -> Option<FreeSpaceReport> {
        None
    }

    /// Occupancy of the placement bands, for the probe tick's gauges.
    /// `None` when the store has no placement bands.
    fn band_occupancy(&self) -> Option<BandOccupancy> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_kind_labels_match_the_figures() {
        assert_eq!(StoreKind::Filesystem.label(), "Filesystem");
        assert_eq!(StoreKind::Database.label(), "Database");
        assert_eq!(StoreKind::LogStructured.label(), "Log");
        assert_eq!(StoreKind::Database.to_string(), "Database");
    }

    #[test]
    fn receipt_totals_combine_disk_and_host_time() {
        let receipt = OpReceipt {
            payload_bytes: 100,
            transferred_bytes: 128,
            disk_time: ServiceTime {
                transfer: SimDuration::from_millis(2),
                ..Default::default()
            },
            host_time: SimDuration::from_millis(3),
            fragments: 1,
        };
        assert_eq!(receipt.total_time(), SimDuration::from_millis(5));
    }

    #[test]
    fn default_cost_model_favours_db_for_small_and_fs_for_large() {
        let model = CostModel::default();
        // Per-object host overhead at 256 KB: the database path is cheaper.
        let fs_small = model.fs_read_host_time();
        let db_small = model.db_read_host_time(32, 256 * 1024);
        assert!(db_small < fs_small);
        // At 10 MB the database's per-page and per-chunk costs dominate the
        // filesystem's fixed open cost.
        let fs_large = model.fs_read_host_time();
        let db_large = model.db_read_host_time(1280, 10 << 20);
        assert!(db_large > fs_large);
    }

    #[test]
    fn chunk_counts_round_up() {
        let model = CostModel::default();
        let just_over = model.db_read_host_time(1, model.db_client_chunk_bytes + 1);
        let exactly_one = model.db_read_host_time(1, model.db_client_chunk_bytes);
        assert!(just_over > exactly_one);
        // Zero-byte objects still cost one chunk and the lookup.
        assert!(model.db_read_host_time(0, 0) >= model.db_lookup_time);
    }
}
