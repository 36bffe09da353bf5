//! The database-backed object store (one out-of-row BLOB per object).

use lor_alloc::{BandOccupancy, FragmentationSummary, FreeSpaceReport, PlacementPolicy};
use lor_blobkit::{Database, DbWriteReceipt, EngineConfig};
use lor_disksim::{DiskConfig, IoRequest, SimDuration};
use lor_maint::{MaintIo, MaintSubstrate, MaintenanceConfig};
use serde::{Deserialize, Serialize};

use crate::error::StoreError;
use crate::maintenance::UNITS_PER_METADATA_IO;
use crate::shell::{Costs, IoPlan, Store, Substrate, WriteKind};
use crate::store::{CostModel, StoreKind};

/// Configuration of a database-backed store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbStoreConfig {
    /// The storage engine and its data file.
    pub engine: EngineConfig,
    /// The simulated disk the data file lives on.
    pub disk: DiskConfig,
    /// Size of the client write requests used to stream object data in (the
    /// paper's experiments use 64 KB).
    pub write_request_size: u64,
    /// Host-side cost model.
    pub cost: CostModel,
    /// Background maintenance scheduler, if any.  When set, the engine's own
    /// interval-driven ghost cleanup is disabled and the `lor-maint`
    /// scheduler owns cleanup, checkpointing and incremental compaction
    /// (allocation-pressure emergency cleanups remain in the substrate).
    pub maintenance: Option<MaintenanceConfig>,
}

impl DbStoreConfig {
    /// A store with a data file of `capacity_bytes`, using the paper's
    /// defaults.
    pub fn new(capacity_bytes: u64) -> Self {
        DbStoreConfig {
            engine: EngineConfig::new(capacity_bytes),
            disk: DiskConfig::seagate_400gb_2005().scaled(capacity_bytes),
            write_request_size: 64 * 1024,
            cost: CostModel::default(),
            maintenance: None,
        }
    }
}

/// Objects stored as out-of-row BLOBs in the SQL-Server-like engine.
pub type DbObjectStore = Store<DbSubstrate>;

/// The SQL-Server-like engine as a store substrate: one out-of-row BLOB per
/// object, wholesale BLOB replacement as the safe write.
#[derive(Debug)]
pub struct DbSubstrate {
    pub(crate) db: Database,
}

impl DbObjectStore {
    /// Creates a store from an explicit configuration.
    pub fn with_config(config: DbStoreConfig) -> Result<Self, StoreError> {
        Store::build(
            config.engine,
            config.disk,
            config.write_request_size,
            config.cost,
            config.maintenance,
        )
    }

    /// Creates a store with a data file of `capacity_bytes` and defaults.
    pub fn new(capacity_bytes: u64) -> Result<Self, StoreError> {
        Self::with_config(DbStoreConfig::new(capacity_bytes))
    }

    /// The underlying engine (read-only).
    pub fn database(&self) -> &Database {
        &self.substrate.db
    }

    /// Mutable access to the underlying engine, for fixtures.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.substrate.db
    }
}

/// The write of `receipt`, priced per page and client chunk.
fn write_plan(receipt: DbWriteReceipt, costs: Costs<'_>) -> IoPlan {
    IoPlan {
        request: IoRequest::write_runs(receipt.runs),
        extra_bytes: 0,
        payload_bytes: receipt.bytes_written,
        host_time: costs
            .cost
            .db_write_host_time(receipt.pages_written, receipt.bytes_written),
        placement: (),
    }
}

impl Substrate for DbSubstrate {
    type Config = EngineConfig;
    type Placement = ();

    const KIND: StoreKind = StoreKind::Database;
    const DISK_LABEL: &'static str = "db-store";
    // The engine's lowest-first page reuse recycles released ghost space
    // immediately — the eager-cleanup pathology the `SubstrateAware`
    // policy's deferred release exists to break.
    const MAINT_SUBSTRATE: MaintSubstrate = MaintSubstrate::EagerReuse;

    fn open(config: EngineConfig) -> Result<Self, StoreError> {
        Ok(DbSubstrate {
            db: Database::create(config)?,
        })
    }

    fn hand_interval_duties_to_scheduler(config: &mut EngineConfig) {
        // The scheduler owns ghost cleanup; only the allocation-pressure
        // emergency path stays in the engine.
        config.ghost_cleanup_interval_ops = 0;
    }

    fn write(
        &mut self,
        kind: WriteKind,
        key: &str,
        size_bytes: u64,
        costs: Costs<'_>,
    ) -> Result<IoPlan, StoreError> {
        let receipt = match kind {
            WriteKind::Put => self.db.insert(key, size_bytes)?,
            WriteKind::SafeWrite => self.db.update(key, size_bytes)?,
            WriteKind::MigrateIn => self.db.insert_as_maintenance(key, size_bytes)?,
        };
        Ok(write_plan(receipt, costs))
    }

    fn safe_write_batch(
        &mut self,
        items: &[(String, u64)],
        costs: Costs<'_>,
    ) -> Option<Result<Vec<IoPlan>, StoreError>> {
        let borrowed: Vec<(&str, u64)> = items.iter().map(|(k, s)| (k.as_str(), *s)).collect();
        Some(
            self.db
                .update_batch(&borrowed, costs.write_request_size)
                .map(|receipts| {
                    receipts
                        .into_iter()
                        .map(|receipt| write_plan(receipt, costs))
                        .collect()
                })
                .map_err(StoreError::from),
        )
    }

    fn delete(&mut self, key: &str, cost: &CostModel) -> Result<SimDuration, StoreError> {
        self.db.delete(key)?;
        Ok(cost.db_lookup_time)
    }

    fn read(&self, key: &str, cost: &CostModel) -> Result<IoPlan, StoreError> {
        let record = self.db.get(key)?;
        let config = self.db.config();
        Ok(IoPlan {
            request: IoRequest::read_runs(record.byte_runs(config.page_size, config.base_offset)),
            extra_bytes: 0,
            payload_bytes: record.size_bytes,
            host_time: cost.db_read_host_time(record.page_count(), record.size_bytes),
            placement: (),
        })
    }

    fn object_count(&self) -> usize {
        self.db.object_count()
    }

    fn keys(&self) -> Vec<String> {
        self.db.iter_blobs().map(|b| b.key.clone()).collect()
    }

    fn fragmentation(&self) -> FragmentationSummary {
        self.db.fragmentation()
    }

    fn data_capacity_bytes(&self) -> u64 {
        self.db.data_capacity_bytes()
    }

    fn live_bytes(&self) -> u64 {
        self.db.iter_blobs().map(|b| b.size_bytes).sum()
    }

    fn free_space_report(&self) -> FreeSpaceReport {
        self.db.free_space_report()
    }

    fn band_occupancy(&self) -> BandOccupancy {
        self.db.band_occupancy()
    }

    fn placement(&self) -> PlacementPolicy {
        self.db.config().placement
    }

    fn reclaimable_bytes(&self) -> u64 {
        self.db.ghost_page_count() * self.db.config().page_size
    }

    fn checkpoint(&mut self, costs: Costs<'_>) -> MaintIo {
        // Bulk-logged mode: the periodic checkpoint is a log force.
        costs.log_force()
    }

    fn ghost_cleanup(&mut self, budget_bytes: u64, costs: Costs<'_>) -> MaintIo {
        if self.db.ghost_page_count() == 0 {
            return MaintIo::NONE;
        }
        let page_size = self.db.config().page_size.max(1);
        // The cleanup task *visits* each ghosted page (a read-modify-write
        // clearing the ghost record and its PFS/IAM bits), so a budgeted pass
        // reclaims at most the budget's worth of page visits — at least one,
        // so a pass always makes progress — and a big backlog drains over
        // several passes.  The engine releases the selected pages tail-first
        // (highest offsets), keeping the backlog's low-offset holes away from
        // its lowest-first reuse; see `ghost_cleanup_limited` and the
        // small-budget pathology recorded in EXPERIMENTS.md.
        let max_pages = (budget_bytes / page_size).max(1);
        let reclaimed = self.db.ghost_cleanup_limited(max_pages);
        let visit_bytes = reclaimed.saturating_mul(page_size);
        let visits = costs
            .disk
            .background_copy_time(visit_bytes, 1 + reclaimed / UNITS_PER_METADATA_IO);
        let sweep = costs.metadata_sweep(reclaimed);
        MaintIo::new(visit_bytes + sweep.bytes, visits + sweep.time)
    }

    fn defragment_step(&mut self, budget_bytes: u64, costs: Costs<'_>) -> Option<MaintIo> {
        let page_size = self.db.config().page_size.max(1);
        // Each moved page is read once and written once.
        let page_budget = (budget_bytes / (2 * page_size)).max(1);
        let report = self.db.compact_step(page_budget);
        (report.pages_moved > 0)
            .then(|| costs.copy(report.pages_moved * page_size, report.blobs_moved))
    }

    fn maintenance(&mut self) -> Result<(u64, u64), StoreError> {
        let objects = self.db.object_count() as u64;
        // The rebuild reads every object and writes it back sequentially,
        // one positioning delay per object.
        let copied = self.db.rebuild_into_new_filegroup()?;
        Ok((copied, objects))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shell::contract::{self, Case};
    use crate::store::ObjectStore;

    const MB: u64 = 1 << 20;

    fn store() -> DbObjectStore {
        DbObjectStore::new(256 * MB).unwrap()
    }

    fn case() -> Case<DbSubstrate> {
        Case {
            kind: StoreKind::Database,
            new: DbObjectStore::new,
            zero_write_size: || {
                DbObjectStore::with_config(DbStoreConfig {
                    write_request_size: 0,
                    ..DbStoreConfig::new(MB)
                })
            },
            // Whole LOB pages, each holding a page's payload share.
            footprint: |size| {
                let engine = EngineConfig::new(256 * MB);
                engine.pages_for(size) * engine.page_size
            },
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
    fn kind_capacity_and_keys() {
        contract::kind_capacity_and_keys(case());
    }

    #[test]
    fn layout_covers_the_object() {
        contract::layout_covers_the_object(case());
    }

    #[test]
    fn substrate_aware_slices_defer_ghost_release_but_still_compact() {
        // A server-driven substrate-aware store: the store itself never
        // ticks (the request scheduler owns the drive), but budgeted slices
        // must respect the deferral — early slices may compact and
        // checkpoint while the ghost backlog is young, and the backlog is
        // only released once it has aged past the configured hold of
        // simulated time.
        let mut config = DbStoreConfig::new(256 * MB);
        config.maintenance = Some(MaintenanceConfig::substrate_aware(5.0, 60_000.0));
        let mut store = DbObjectStore::with_config(config).unwrap();
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
        let ghosts_before = store.database().ghost_page_count();
        assert!(ghosts_before > 0, "aging must leave a ghost backlog");
        // Slices within the first seconds: far younger than the 60 s hold
        // (the scheduler's own background time stays well below it too).
        for second in 1..=6u64 {
            store.maintenance_slice(1 << 22, SimDuration::from_secs(second));
            assert_eq!(
                store.database().ghost_page_count(),
                ghosts_before,
                "ghost release must be deferred while the backlog is young"
            );
        }
        // The aged backlog drains (over several budgeted passes: cleanup is
        // due every 8th tick and each 4 MB budget visits at most 512 pages).
        for second in 0..256u64 {
            if store.database().ghost_page_count() == 0 {
                break;
            }
            store.maintenance_slice(1 << 22, SimDuration::from_secs(120 + second));
        }
        assert_eq!(store.database().ghost_page_count(), 0);
        let stats = store.maintenance_stats().unwrap();
        assert!(stats.ghost_cleanup.runs > 0);
        assert!(
            stats.background_bytes > 0,
            "compaction/checkpoint work ran even while ghosts were held"
        );
    }

    #[test]
    fn maintenance_scheduler_cleans_ghosts_and_charges_the_clock() {
        let mut config = DbStoreConfig::new(128 * MB);
        config.maintenance = Some(MaintenanceConfig::fixed_budget(16));
        let mut store = DbObjectStore::with_config(config).unwrap();
        assert!(store.maintenance_stats().is_some());
        assert_eq!(
            store.database().config().ghost_cleanup_interval_ops,
            0,
            "the scheduler owns ghost cleanup"
        );

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
        assert!(stats.ghost_cleanup.runs > 0, "ghosts must get reclaimed");
        assert!(stats.background_time > SimDuration::ZERO);
        assert!(store.elapsed() > stats.background_time);
        assert_eq!(
            store.database().stats().ghost_cleanups,
            stats.ghost_cleanup.runs,
            "every engine cleanup was scheduler-driven"
        );
    }

    #[test]
    fn maintenance_rebuild_leaves_objects_contiguous() {
        let mut store = store();
        for i in 0..16 {
            store.put(&format!("o{i}"), MB).unwrap();
        }
        // Age it a little so the rebuild has something to repair.
        for round in 0..4 {
            for i in 0..16 {
                store
                    .safe_write(&format!("o{}", (i * 5 + round) % 16), MB)
                    .unwrap();
            }
        }
        let copied = store.maintenance().unwrap();
        assert_eq!(copied, 16 * MB);
        let summary = store.fragmentation();
        assert!((summary.fragments_per_object - 1.0).abs() < 1e-9);
    }
}
