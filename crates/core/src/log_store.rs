//! The log-structured object store (append-only segments, cleaner
//! reclamation).
//!
//! The third substrate next to [`crate::FsObjectStore`] and
//! [`crate::DbObjectStore`]: objects append head-first into fixed-size
//! segments of a [`SegmentLog`], updates append a fresh version and deaden the
//! old one, and space comes back **only** through the segment cleaner.
//! Background cleaning runs as the `lor-maint` defragmentation task
//! (cost-benefit victim selection, survivors compacted through the
//! maintenance placement consumer); allocation-pressure *emergency* cleaning
//! happens inside the substrate and its copy I/O is charged to the foreground
//! operation that forced it — exactly like the filesystem's emergency
//! checkpoints, but far more expensive, which is the log's trade-off.

use std::collections::BTreeMap;

use lor_alloc::{
    BandOccupancy, Extent, FragmentationSummary, FreeSpace, FreeSpaceReport, PlacementPolicy,
};
use lor_disksim::{ByteRun, DiskConfig, IoRequest, SimDuration};
use lor_logstore::{AppendOutcome, LogConfig, LogError, SegmentLog};
use lor_maint::{MaintIo, MaintSubstrate, MaintenanceConfig};
use lor_obs::Obs;
use serde::{Deserialize, Serialize};

use crate::error::StoreError;
use crate::shell::{Costs, IoPlan, Store, Substrate, WriteKind};
use crate::store::{CostModel, StoreKind};

/// Configuration of a log-structured store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogStoreConfig {
    /// The simulated segment log.
    pub log: LogConfig,
    /// The simulated disk the log lives on.
    pub disk: DiskConfig,
    /// Size of the write requests used to append object data (the paper's
    /// experiments use 64 KB).
    pub write_request_size: u64,
    /// Host-side cost model.
    pub cost: CostModel,
    /// Background maintenance scheduler, if any.  When set, the `lor-maint`
    /// scheduler drives the segment cleaner as its defragmentation task
    /// (allocation-pressure emergency cleaning remains in the substrate).
    pub maintenance: Option<MaintenanceConfig>,
}

impl LogStoreConfig {
    /// A store on a log of `capacity_bytes`, using the paper's defaults
    /// (64 KB write requests, a scaled slice of the 400 GB reference disk).
    pub fn new(capacity_bytes: u64) -> Self {
        LogStoreConfig {
            log: LogConfig::new(capacity_bytes),
            disk: DiskConfig::seagate_400gb_2005().scaled(capacity_bytes),
            write_request_size: 64 * 1024,
            cost: CostModel::default(),
            maintenance: None,
        }
    }
}

/// Objects stored as versioned records in an append-only segment log.
pub type LogObjectStore = Store<LogSubstrate>;

/// The append-only segment log as a store substrate.
#[derive(Debug)]
pub struct LogSubstrate {
    pub(crate) log: SegmentLog,
    /// Key-to-record index (memory-resident, like the blob index the paper's
    /// repositories keep in their metadata tier).
    names: BTreeMap<String, u64>,
    next_id: u64,
}

impl LogObjectStore {
    /// Creates a store from an explicit configuration.
    pub fn with_config(config: LogStoreConfig) -> Result<Self, StoreError> {
        Store::build(
            config.log,
            config.disk,
            config.write_request_size,
            config.cost,
            config.maintenance,
        )
    }

    /// Creates a store on a log of `capacity_bytes` with default settings.
    pub fn new(capacity_bytes: u64) -> Result<Self, StoreError> {
        Self::with_config(LogStoreConfig::new(capacity_bytes))
    }

    /// The underlying segment log (read-only), for segment statistics and
    /// test fixtures.
    pub fn log(&self) -> &SegmentLog {
        &self.substrate.log
    }
}

/// What an append leaves for its receipt.
#[derive(Debug)]
pub struct Appended {
    /// Coalesced fragment count of the new version.
    fragments: u64,
    /// Whether the append forced emergency cleaning.
    emergency: bool,
}

/// Maps a substrate error onto the store error for `key`.
fn log_err(err: LogError, key: &str) -> StoreError {
    match err {
        LogError::ObjectExists(_) => StoreError::ObjectExists(key.to_string()),
        LogError::NoSuchObject(_) => StoreError::NoSuchObject(key.to_string()),
        LogError::OutOfSpace => StoreError::OutOfSpace(format!(
            "segment log full appending {key:?} (cleaning found no dead bytes)"
        )),
        LogError::BadConfig(detail) => StoreError::BadConfig(detail.to_string()),
    }
}

fn byte_runs(extents: &[Extent]) -> impl Iterator<Item = ByteRun> + '_ {
    extents
        .iter()
        .map(|extent| ByteRun::new(extent.start, extent.len))
}

/// Prices a completed append: the new version's runs, the index update, and
/// any emergency cleaning the append forced, which is charged to this
/// operation (its bytes show up in `transferred_bytes`, making the write
/// amplification visible).
fn append_plan(size_bytes: u64, outcome: AppendOutcome, costs: Costs<'_>) -> IoPlan<Appended> {
    let emergency = !outcome.emergency.is_empty();
    let copies = if emergency {
        costs.copy(
            outcome.emergency.bytes_copied,
            outcome.emergency.objects_moved,
        )
    } else {
        MaintIo::NONE
    };
    IoPlan {
        request: IoRequest::write_runs(byte_runs(&outcome.extents)),
        extra_bytes: copies.bytes,
        payload_bytes: size_bytes,
        host_time: costs
            .cost
            .log_write_host_time(costs.write_requests(size_bytes))
            + copies.time,
        placement: Appended {
            fragments: outcome.fragments,
            emergency,
        },
    }
}

impl LogSubstrate {
    fn lookup(&self, key: &str) -> Result<u64, StoreError> {
        self.names
            .get(key)
            .copied()
            .ok_or_else(|| StoreError::NoSuchObject(key.to_string()))
    }
}

impl Substrate for LogSubstrate {
    type Config = LogConfig;
    type Placement = Appended;

    const KIND: StoreKind = StoreKind::LogStructured;
    const DISK_LABEL: &'static str = "log-store";
    // Dead bytes never come back on their own: the cleaner frees whole
    // segments or nothing.
    const MAINT_SUBSTRATE: MaintSubstrate = MaintSubstrate::LogStructured;

    fn open(config: LogConfig) -> Result<Self, StoreError> {
        Ok(LogSubstrate {
            log: SegmentLog::new(config).map_err(|err| StoreError::BadConfig(err.to_string()))?,
            names: BTreeMap::new(),
            next_id: 1,
        })
    }

    fn write(
        &mut self,
        kind: WriteKind,
        key: &str,
        size_bytes: u64,
        costs: Costs<'_>,
    ) -> Result<IoPlan<Appended>, StoreError> {
        let outcome = match kind {
            // Append-then-deaden *is* the log's safe write: the old version
            // stays readable until the new one is fully on disk, no temp file
            // needed.
            WriteKind::SafeWrite => {
                let id = self.lookup(key)?;
                self.log.update(id, size_bytes)
            }
            _ if self.names.contains_key(key) => {
                return Err(StoreError::ObjectExists(key.to_string()))
            }
            WriteKind::Put => self.log.insert(self.next_id, size_bytes),
            WriteKind::MigrateIn => self.log.insert_as_maintenance(self.next_id, size_bytes),
        }
        .map_err(|e| log_err(e, key))?;
        if kind != WriteKind::SafeWrite {
            self.names.insert(key.to_string(), self.next_id);
            self.next_id += 1;
        }
        Ok(append_plan(size_bytes, outcome, costs))
    }

    // Group commit: a log serializes appends, so concurrent safe writes land
    // whole and contiguous in batch order at the head — the log never
    // interleaves a batch the way the filesystem's round-robin temp-file
    // writes do.  The default `safe_write_batch` (one safe write per item)
    // is exactly that.

    fn written_fragments(
        &self,
        write: &IoPlan<Appended>,
        obs: Option<&Obs>,
        now: SimDuration,
    ) -> u64 {
        if let (true, Some(obs)) = (write.placement.emergency, obs) {
            obs.counter(
                "cleaner.emergency_bytes",
                now.as_nanos(),
                self.log.emergency_totals().bytes_copied as f64,
            );
        }
        write.placement.fragments
    }

    fn delete(&mut self, key: &str, cost: &CostModel) -> Result<SimDuration, StoreError> {
        let id = self.lookup(key)?;
        self.log.remove(id).map_err(|e| log_err(e, key))?;
        self.names.remove(key);
        Ok(cost.metadata_io_time)
    }

    fn read(&self, key: &str, cost: &CostModel) -> Result<IoPlan, StoreError> {
        let id = self.lookup(key)?;
        let extents = self.log.extents_of(id).map_err(|e| log_err(e, key))?;
        Ok(IoPlan {
            request: IoRequest::read_runs(byte_runs(extents)),
            extra_bytes: 0,
            payload_bytes: self.log.size_of(id).map_err(|e| log_err(e, key))?,
            host_time: cost.log_read_host_time(),
            placement: (),
        })
    }

    fn object_count(&self) -> usize {
        self.names.len()
    }

    fn keys(&self) -> Vec<String> {
        self.names.keys().cloned().collect()
    }

    fn fragmentation(&self) -> FragmentationSummary {
        self.log.fragmentation()
    }

    fn data_capacity_bytes(&self) -> u64 {
        self.log.data_capacity_bytes()
    }

    fn live_bytes(&self) -> u64 {
        self.log.live_bytes()
    }

    fn free_space_report(&self) -> FreeSpaceReport {
        // The log's allocation granule is the segment, so the report's
        // "clusters" are segments: `largest_run` is the longest contiguous
        // free-segment run, the resource the cleaner must replenish.
        FreeSpaceReport::from_free_space(self.log.free_map())
    }

    fn band_occupancy(&self) -> BandOccupancy {
        let map = self.log.free_map();
        let total = map.total_clusters();
        let boundary = self.log.config().placement.boundary_cluster(total);
        BandOccupancy::from_runs(total, boundary, &map.free_runs())
    }

    fn placement(&self) -> PlacementPolicy {
        self.log.config().placement
    }

    fn reclaimable_bytes(&self) -> u64 {
        self.log.dead_bytes()
    }

    fn checkpoint(&mut self, costs: Costs<'_>) -> MaintIo {
        // Force the segment-usage table / index log tail, like the
        // database's bulk-logged log force.
        costs.log_force()
    }

    // No ghost cleanup: cleaning is the only reclamation, and there is no
    // ghost backlog that could be released short of running the cleaner.

    fn defragment_step(&mut self, budget_bytes: u64, costs: Costs<'_>) -> Option<MaintIo> {
        // Each survivor byte is read once and written once.
        let copy_budget = (budget_bytes / 2).max(1);
        let Ok(report) = self.log.clean_step(copy_budget) else {
            return Some(MaintIo::NONE);
        };
        // Survivor copies plus the segment-table updates for freed victims.
        (!report.is_empty()).then(|| {
            costs
                .copy(report.bytes_copied, report.objects_moved)
                .combined(&costs.metadata_sweep(report.segments_freed))
        })
    }

    fn maintenance(&mut self) -> Result<(u64, u64), StoreError> {
        let report = self
            .log
            .clean_all()
            .map_err(|err| StoreError::Filesystem(err.to_string()))?;
        // Cleaning a segment moves its survivors, a pair of positioning
        // delays per object moved.
        Ok((report.bytes_copied, 2 * report.objects_moved))
    }

    fn observe_slice(
        &mut self,
        obs: Option<&Obs>,
        now: SimDuration,
        slice: impl FnOnce(&mut Self) -> MaintIo,
    ) -> MaintIo {
        let before = self.log.cleaner_totals();
        let io = slice(self);
        if let Some(obs) = obs {
            let after = self.log.cleaner_totals();
            let stats = self.log.segment_stats();
            obs.gauge(
                "log.segment_utilization",
                now.as_nanos(),
                stats.mean_utilization,
            );
            obs.counter(
                "cleaner.bytes_moved",
                now.as_nanos(),
                after.bytes_copied as f64,
            );
            if after.bytes_copied > before.bytes_copied {
                obs.span(
                    lor_obs::Track::Cleaner,
                    "clean",
                    now.as_nanos(),
                    io.time.as_nanos(),
                    &[
                        (
                            "bytes_copied",
                            lor_obs::ArgValue::U64(after.bytes_copied - before.bytes_copied),
                        ),
                        (
                            "segments_freed",
                            lor_obs::ArgValue::U64(after.segments_freed - before.segments_freed),
                        ),
                    ],
                );
            }
        }
        io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shell::contract::{self, Case};
    use crate::store::ObjectStore;
    use lor_maint::MaintenancePolicy;

    const MB: u64 = 1 << 20;

    fn store() -> LogObjectStore {
        LogObjectStore::new(256 * MB).unwrap()
    }

    fn case() -> Case<LogSubstrate> {
        Case {
            kind: StoreKind::LogStructured,
            new: LogObjectStore::new,
            zero_write_size: || {
                LogObjectStore::with_config(LogStoreConfig {
                    write_request_size: 0,
                    ..LogStoreConfig::new(MB)
                })
            },
            footprint: |size| size,
        }
    }

    #[test]
    fn put_get_safe_write_delete_cycle() {
        contract::put_get_safe_write_delete_cycle(case());
    }

    #[test]
    fn clock_accumulates_and_resets() {
        contract::clock_accumulates_and_resets(case());
    }

    #[test]
    fn errors_map_to_store_errors() {
        contract::errors_map_to_store_errors(case());
    }

    #[test]
    fn kind_and_capacity() {
        contract::kind_capacity_and_keys(case());
    }

    #[test]
    fn layout_covers_the_object() {
        contract::layout_covers_the_object(case());
    }

    #[test]
    fn reads_are_index_lookups_and_rewrites_leave_dead_bytes() {
        let mut store = store();
        store.put("a", MB).unwrap();
        let get = store.get("a").unwrap();
        assert!(get.host_time >= CostModel::default().log_read_host_time());
        store.safe_write("a", 2 * MB).unwrap();
        // The old version's bytes are dead, waiting for the cleaner.
        assert!(store.log().dead_bytes() >= MB);
    }

    #[test]
    fn maintenance_cleans_dead_segments() {
        let mut store = store();
        for i in 0..8 {
            store.put(&format!("o{i}"), MB).unwrap();
        }
        // A freshly loaded log has no dead bytes: nothing to clean.
        assert_eq!(store.maintenance().unwrap(), 0);
        // Rewriting every other object leaves each original segment half
        // dead; a full clean copies the survivors out and reclaims all of it.
        for i in (0..8).step_by(2) {
            store.safe_write(&format!("o{i}"), MB).unwrap();
        }
        let before = store.elapsed();
        let copied = store.maintenance().unwrap();
        assert!(copied > 0, "survivors of half-dead segments must move");
        assert_eq!(store.log().dead_bytes(), 0, "a full clean reclaims all");
        assert!(store.elapsed() > before, "cleaning costs foreground time");
    }

    #[test]
    fn migrate_in_uses_the_maintenance_head() {
        let mut store = store();
        store.put("fg", MB).unwrap();
        let receipt = store.migrate_in("moved", MB).unwrap();
        assert_eq!(receipt.payload_bytes, MB);
        assert!(store.contains("moved"));
        assert_eq!(store.size_of("moved").unwrap(), MB);
        // Migration must not count as a foreground op for the scheduler.
        assert!(store.maintenance_stats().is_none());
    }

    #[test]
    fn maintenance_scheduler_runs_and_charges_the_foreground_clock() {
        let mut config = LogStoreConfig::new(128 * MB);
        config.maintenance = Some(MaintenanceConfig::fixed_budget(16));
        let mut store = LogObjectStore::with_config(config).unwrap();
        assert!(store.maintenance_stats().is_some());

        for i in 0..16 {
            store.put(&format!("o{i}"), MB).unwrap();
        }
        for round in 0..3 {
            for i in 0..16 {
                store
                    .safe_write(&format!("o{}", (i * 5 + round) % 16), MB)
                    .unwrap();
            }
        }
        let stats = store.maintenance_stats().unwrap();
        assert!(stats.ticks > 0);
        assert!(stats.foreground_ops >= 64);
        assert!(
            stats.background_bytes > 0,
            "rewrites leave dead segments for the budgeted cleaner"
        );
        assert!(
            stats.background_time > SimDuration::ZERO,
            "background work must cost time"
        );
        // The interference was charged to the store's clock.
        assert!(store.elapsed() > stats.background_time);

        // An invalid maintenance config is rejected.
        let mut bad = LogStoreConfig::new(64 * MB);
        bad.maintenance = Some(MaintenanceConfig::new(MaintenancePolicy::Threshold {
            frag_per_object: 0.0,
        }));
        assert!(matches!(
            LogObjectStore::with_config(bad),
            Err(StoreError::BadConfig(_))
        ));
    }
}
