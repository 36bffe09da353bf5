//! The filesystem-backed object store (one file per object, safe writes).

use lor_alloc::{BandOccupancy, FragmentationSummary, FreeSpaceReport, PlacementPolicy};
use lor_disksim::{DiskConfig, IoRequest, SimDuration};
use lor_fskit::{DefragCursor, Defragmenter, FileId, Volume, VolumeConfig, WriteReceipt};
use lor_maint::{MaintIo, MaintSubstrate, MaintenanceConfig};
use lor_obs::Obs;
use serde::{Deserialize, Serialize};

use crate::error::StoreError;
use crate::shell::{Costs, IoPlan, Store, Substrate, WriteKind};
use crate::store::{CostModel, StoreKind};

/// Configuration of a filesystem-backed store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FsStoreConfig {
    /// The simulated volume.
    pub volume: VolumeConfig,
    /// The simulated disk the volume lives on.
    pub disk: DiskConfig,
    /// Size of the write requests used to append object data (the paper's
    /// experiments use 64 KB).
    pub write_request_size: u64,
    /// Host-side cost model.
    pub cost: CostModel,
    /// Background maintenance scheduler, if any.  When set, the volume's own
    /// interval-driven checkpoint is disabled and the `lor-maint` scheduler
    /// owns checkpointing and incremental defragmentation (allocation-pressure
    /// emergency checkpoints remain in the substrate).
    pub maintenance: Option<MaintenanceConfig>,
}

impl FsStoreConfig {
    /// A store on a volume of `capacity_bytes`, using the paper's defaults
    /// (64 KB write requests, a scaled slice of the 400 GB reference disk).
    pub fn new(capacity_bytes: u64) -> Self {
        FsStoreConfig {
            volume: VolumeConfig::new(capacity_bytes),
            disk: DiskConfig::seagate_400gb_2005().scaled(capacity_bytes),
            write_request_size: 64 * 1024,
            cost: CostModel::default(),
            maintenance: None,
        }
    }
}

/// Objects stored as one file each on the NTFS-like volume.
pub type FsObjectStore = Store<FsSubstrate>;

/// The NTFS-like volume as a store substrate: one file per object, safe
/// writes through a temporary file.
#[derive(Debug)]
pub struct FsSubstrate {
    pub(crate) volume: Volume,
    /// Resumable position of the incremental defragmentation pass.
    cursor: DefragCursor,
}

impl FsObjectStore {
    /// Creates a store from an explicit configuration.
    pub fn with_config(config: FsStoreConfig) -> Result<Self, StoreError> {
        Store::build(
            config.volume,
            config.disk,
            config.write_request_size,
            config.cost,
            config.maintenance,
        )
    }

    /// Creates a store on a volume of `capacity_bytes` with default settings.
    pub fn new(capacity_bytes: u64) -> Result<Self, StoreError> {
        Self::with_config(FsStoreConfig::new(capacity_bytes))
    }

    /// The underlying volume (read-only), for fragmentation reports and test
    /// fixtures.
    pub fn volume(&self) -> &Volume {
        &self.substrate.volume
    }

    /// Mutable access to the underlying volume, for fixtures such as the
    /// pathological fragmenter.
    pub fn volume_mut(&mut self) -> &mut Volume {
        &mut self.substrate.volume
    }
}

/// The write of `receipt`, priced as a file create of its size.
fn write_plan(receipt: WriteReceipt, costs: Costs<'_>) -> IoPlan<FileId> {
    IoPlan {
        request: IoRequest::write_runs(receipt.runs),
        extra_bytes: 0,
        payload_bytes: receipt.bytes_written,
        host_time: costs
            .cost
            .fs_write_host_time(costs.write_requests(receipt.bytes_written)),
        placement: receipt.file_id,
    }
}

impl Substrate for FsSubstrate {
    type Config = VolumeConfig;
    type Placement = FileId;

    const KIND: StoreKind = StoreKind::Filesystem;
    const DISK_LABEL: &'static str = "fs-store";
    // Freed clusters are quarantined in the pending-free queue until a
    // checkpoint, so eager release has no reuse pathology to trigger.
    const MAINT_SUBSTRATE: MaintSubstrate = MaintSubstrate::DeferredReuse;

    fn open(config: VolumeConfig) -> Result<Self, StoreError> {
        Ok(FsSubstrate {
            volume: Volume::format(config)?,
            cursor: DefragCursor::new(),
        })
    }

    fn hand_interval_duties_to_scheduler(config: &mut VolumeConfig) {
        // The scheduler owns checkpointing; only the allocation-pressure
        // emergency path stays interval-free in the volume.
        config.checkpoint_interval_ops = 0;
    }

    fn write(
        &mut self,
        kind: WriteKind,
        key: &str,
        size_bytes: u64,
        costs: Costs<'_>,
    ) -> Result<IoPlan<FileId>, StoreError> {
        let request_size = costs.write_request_size;
        let receipt = match kind {
            WriteKind::Put => self.volume.write_file(key, size_bytes, request_size)?,
            WriteKind::SafeWrite => self.volume.safe_write(key, size_bytes, request_size)?,
            WriteKind::MigrateIn => self.volume.ingest_as_maintenance(key, size_bytes)?,
        };
        Ok(write_plan(receipt, costs))
    }

    fn safe_write_batch(
        &mut self,
        items: &[(String, u64)],
        costs: Costs<'_>,
    ) -> Option<Result<Vec<IoPlan<FileId>>, StoreError>> {
        let borrowed: Vec<(&str, u64)> = items.iter().map(|(k, s)| (k.as_str(), *s)).collect();
        Some(
            self.volume
                .safe_write_batch(&borrowed, costs.write_request_size)
                .map(|receipts| {
                    receipts
                        .into_iter()
                        .map(|receipt| write_plan(receipt, costs))
                        .collect()
                })
                .map_err(StoreError::from),
        )
    }

    fn written_fragments(
        &self,
        write: &IoPlan<FileId>,
        _obs: Option<&Obs>,
        _now: SimDuration,
    ) -> u64 {
        // Count the committed file.  When one batch names the same key
        // twice, the later duplicate's commit replaces (and removes) the
        // earlier item's file — last writer wins; the earlier write still hit
        // the disk, so count the fragments it physically produced.
        match self.volume.file(write.placement) {
            Ok(record) => record.fragment_count() as u64,
            Err(_) => write.request.coalesced().fragment_count() as u64,
        }
    }

    fn delete(&mut self, key: &str, cost: &CostModel) -> Result<SimDuration, StoreError> {
        self.volume.delete_by_name(key)?;
        Ok(cost.metadata_io_time)
    }

    fn read(&self, key: &str, cost: &CostModel) -> Result<IoPlan, StoreError> {
        let id = self.volume.lookup(key)?;
        Ok(IoPlan {
            request: IoRequest::read_runs(self.volume.read_plan(id)?),
            extra_bytes: 0,
            payload_bytes: self.volume.file(id)?.size_bytes,
            host_time: cost.fs_read_host_time(),
            placement: (),
        })
    }

    fn object_count(&self) -> usize {
        self.volume.file_count()
    }

    fn keys(&self) -> Vec<String> {
        self.volume.iter_files().map(|f| f.name.clone()).collect()
    }

    fn fragmentation(&self) -> FragmentationSummary {
        self.volume.fragmentation()
    }

    fn data_capacity_bytes(&self) -> u64 {
        self.volume.data_capacity_bytes()
    }

    fn live_bytes(&self) -> u64 {
        self.volume.iter_files().map(|f| f.size_bytes).sum()
    }

    fn free_space_report(&self) -> FreeSpaceReport {
        self.volume.free_space_report()
    }

    fn band_occupancy(&self) -> BandOccupancy {
        self.volume.band_occupancy()
    }

    fn placement(&self) -> PlacementPolicy {
        self.volume.placement()
    }

    fn reclaimable_bytes(&self) -> u64 {
        self.volume.pending_clusters() * self.volume.cluster_size()
    }

    fn checkpoint(&mut self, costs: Costs<'_>) -> MaintIo {
        // Deferred frees are released by the log commit; NTFS has no
        // separate ghost mechanism, so ghost cleanup is folded in here.
        let pending = self.volume.pending_clusters();
        if pending == 0 {
            return MaintIo::NONE;
        }
        self.volume.checkpoint();
        costs.metadata_sweep(pending)
    }

    fn defragment_step(&mut self, budget_bytes: u64, costs: Costs<'_>) -> Option<MaintIo> {
        if self.cursor.is_done() {
            // The previous pass finished; start a fresh one so newly aged
            // files become candidates again.
            self.cursor.reset();
        }
        // Each copied byte is read once and written once.
        let copy_budget = (budget_bytes / 2).max(1);
        let Ok(report) =
            Defragmenter::new().defragment_step(&mut self.volume, &mut self.cursor, copy_budget)
        else {
            return Some(MaintIo::NONE);
        };
        (report.bytes_copied > 0).then(|| costs.copy(report.bytes_copied, report.files_moved))
    }

    fn maintenance(&mut self) -> Result<(u64, u64), StoreError> {
        let report = Defragmenter::new().defragment_volume(&mut self.volume, 0)?;
        // Moving a file costs a pair of positioning delays.
        Ok((report.bytes_copied, 2 * report.files_moved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shell::contract::{self, Case};
    use crate::store::ObjectStore;
    use lor_maint::MaintenancePolicy;

    const MB: u64 = 1 << 20;

    fn store() -> FsObjectStore {
        FsObjectStore::new(256 * MB).unwrap()
    }

    fn case() -> Case<FsSubstrate> {
        Case {
            kind: StoreKind::Filesystem,
            new: FsObjectStore::new,
            zero_write_size: || {
                FsObjectStore::with_config(FsStoreConfig {
                    write_request_size: 0,
                    ..FsStoreConfig::new(MB)
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
    fn a_read_pays_the_file_open() {
        let mut store = store();
        store.put("a", MB).unwrap();
        let get = store.get("a").unwrap();
        assert!(get.host_time >= CostModel::default().fs_read_host_time());
    }

    #[test]
    fn duplicate_keys_in_one_batch_degenerate_to_last_writer_wins() {
        let mut store = store();
        store.put("a", MB).unwrap();
        store.put("b", MB).unwrap();
        // The volume commits duplicates sequentially (last writer wins), so
        // the first "a" receipt names a file the second "a" already replaced;
        // the store must still produce a receipt for the I/O it performed.
        let receipts = store
            .safe_write_batch(&[
                ("a".to_string(), MB),
                ("b".to_string(), 2 * MB),
                ("a".to_string(), 3 * MB),
            ])
            .unwrap();
        assert_eq!(receipts.len(), 3);
        for receipt in &receipts {
            assert!(receipt.fragments >= 1);
            assert!(receipt.transferred_bytes >= receipt.payload_bytes);
        }
        assert_eq!(store.size_of("a").unwrap(), 3 * MB);
        assert_eq!(store.size_of("b").unwrap(), 2 * MB);
        assert_eq!(store.object_count(), 2);
    }

    #[test]
    fn maintenance_reports_copied_bytes() {
        let mut store = store();
        for i in 0..8 {
            store.put(&format!("o{i}"), MB).unwrap();
        }
        // A clean store has nothing to defragment.
        assert_eq!(store.maintenance().unwrap(), 0);
    }

    #[test]
    fn maintenance_scheduler_runs_and_charges_the_foreground_clock() {
        let mut config = FsStoreConfig::new(128 * MB);
        config.maintenance = Some(MaintenanceConfig::fixed_budget(16));
        let mut store = FsObjectStore::with_config(config).unwrap();
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
            stats.checkpoint.runs > 0,
            "the scheduler owns checkpointing now"
        );
        assert!(
            stats.background_time > SimDuration::ZERO,
            "background work must cost time"
        );
        // The interference was charged to the store's clock.
        assert!(store.elapsed() > stats.background_time);

        // An invalid maintenance config is rejected.
        let mut bad = FsStoreConfig::new(64 * MB);
        bad.maintenance = Some(MaintenanceConfig::new(MaintenancePolicy::Threshold {
            frag_per_object: 0.0,
        }));
        assert!(matches!(
            FsObjectStore::with_config(bad),
            Err(StoreError::BadConfig(_))
        ));
    }

    #[test]
    fn adaptive_maintenance_engages_only_while_the_volume_degrades() {
        let mut config = FsStoreConfig::new(128 * MB);
        config.maintenance = Some(MaintenanceConfig::adaptive(64.0));
        let mut store = FsObjectStore::with_config(config).unwrap();

        // Bulk load is contiguous: excess fragments stay at zero, so the
        // rate estimator must not trigger any background work.
        for i in 0..24 {
            store.put(&format!("o{i}"), MB).unwrap();
        }
        let stats = store.maintenance_stats().unwrap();
        assert_eq!(
            stats.background_bytes, 0,
            "a contiguous bulk load must not trigger adaptive work"
        );

        // Aging rounds of 4-way interleaved batches fragment the volume
        // (serial rewrites would stay contiguous under the run cache); the
        // rate estimator engages.
        for round in 0..4 {
            let keys: Vec<(String, u64)> = (0..24)
                .map(|i| (format!("o{}", (i * 7 + round) % 24), MB))
                .collect();
            for batch in keys.chunks(4) {
                store.safe_write_batch(batch).unwrap();
            }
        }
        let stats = store.maintenance_stats().unwrap();
        assert!(
            stats.background_bytes > 0,
            "fragmentation growth must engage the adaptive budget"
        );
        assert!(stats.background_time > SimDuration::ZERO);
    }

    #[test]
    fn substrate_aware_requires_the_server_drive() {
        let mut config = FsStoreConfig::new(64 * MB);
        let mut maintenance = MaintenanceConfig::substrate_aware(5.0, 2000.0);
        maintenance.server_driven = false;
        config.maintenance = Some(maintenance);
        assert!(matches!(
            FsObjectStore::with_config(config),
            Err(StoreError::BadConfig(_))
        ));
        // With the server drive (the constructor's default) it builds, and
        // the server reads the config off the store.
        let mut config = FsStoreConfig::new(64 * MB);
        config.maintenance = Some(MaintenanceConfig::substrate_aware(5.0, 2000.0));
        let store = FsObjectStore::with_config(config).unwrap();
        assert!(store.maintenance_config().unwrap().server_driven);
    }
}
