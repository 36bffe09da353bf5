//! One get/put store shell over a narrow [`Substrate`] trait.
//!
//! [`Store`] is the only implementation of [`ObjectStore`] in this crate.
//! It owns, once, what the paper's get/put interface needs around a storage
//! system: the simulated disk, the measurement clock, the host
//! [`CostModel`], the write-request size, the observability handle and the
//! background maintenance scheduler.  It turns what a substrate placed or
//! planned into a disk request, charges it and hands back an [`OpReceipt`],
//! and it drives maintenance (store-attached after each foreground
//! mutation, or one server-driven slice on request).
//!
//! A [`Substrate`] decides only what differs between storage systems, which
//! is where the paper locates every difference worth measuring: placement
//! of writes and deletes, the read plan of a get (which is also the object's
//! layout), host costs, and its maintenance duties, driven by the generic
//! scheduler adapter in `maintenance.rs`.  The substrates are the NTFS-like
//! volume ([`crate::FsObjectStore`]), the SQL-Server-like engine
//! ([`crate::DbObjectStore`]) and the segment log ([`crate::LogObjectStore`]).

use lor_alloc::{BandOccupancy, FragmentationSummary, FreeSpaceReport, PlacementPolicy};
use lor_disksim::{ByteRun, Disk, DiskConfig, IoRequest, ServiceTime, SimClock, SimDuration};
use lor_maint::{
    MaintIo, MaintSubstrate, MaintenanceConfig, MaintenanceScheduler, MaintenanceStats,
};
use lor_obs::Obs;

use crate::error::StoreError;
use crate::maintenance::{MaintenanceState, METADATA_IO_BYTES, UNITS_PER_METADATA_IO};
use crate::store::{CostModel, ObjectStore, OpReceipt, StoreKind};

/// What a store charges with: its disk geometry, host cost model and
/// write-request size.  Substrates price their host work and background
/// copies through it.
#[derive(Debug, Clone, Copy)]
pub struct Costs<'a> {
    /// The simulated disk's geometry (background copies stream at its
    /// mid-platter rate).
    pub disk: &'a DiskConfig,
    /// Host-side cost model.
    pub cost: &'a CostModel,
    /// Size of the write requests object data is appended in.
    pub write_request_size: u64,
}

impl Costs<'_> {
    /// Write requests needed to append `size_bytes` (at least one).
    pub fn write_requests(&self, size_bytes: u64) -> u64 {
        size_bytes.div_ceil(self.write_request_size).max(1)
    }

    /// Background copy of `payload_bytes` spread over `objects_moved`
    /// relocated objects: every byte is read once and written once, with a
    /// pair of repositioning delays per object.
    pub fn copy(&self, payload_bytes: u64, objects_moved: u64) -> MaintIo {
        let bytes = payload_bytes.saturating_mul(2);
        MaintIo::new(
            bytes,
            self.disk.background_copy_time(bytes, objects_moved * 2),
        )
    }

    /// A metadata sweep updating the allocation state of `units` pages,
    /// clusters or segments: one metadata I/O per metadata page touched.
    pub fn metadata_sweep(&self, units: u64) -> MaintIo {
        let ios = 1 + units / UNITS_PER_METADATA_IO;
        MaintIo::new(ios * METADATA_IO_BYTES, self.cost.metadata_io_time * ios)
    }

    /// One log force (a single metadata I/O).
    pub fn log_force(&self) -> MaintIo {
        MaintIo::new(METADATA_IO_BYTES, self.cost.metadata_io_time)
    }
}

/// Which write a substrate places.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// A new object ([`ObjectStore::put`]).
    Put,
    /// An atomic replacement ([`ObjectStore::safe_write`]).
    SafeWrite,
    /// A new object placed as background migration traffic
    /// ([`ObjectStore::migrate_in`]).
    MigrateIn,
}

/// One disk request a substrate planned: a read of a whole object, or the
/// placement of one write.
#[derive(Debug)]
pub struct IoPlan<P = ()> {
    /// The request over the object's runs, in logical order (for a read,
    /// the object's physical layout).
    pub request: IoRequest,
    /// Bytes moved on top of `request` (copies a write forced, such as the
    /// log's emergency cleaning).
    pub extra_bytes: u64,
    /// Application payload bytes read or written.
    pub payload_bytes: u64,
    /// Host-side time of the operation, including any copies it forced.
    pub host_time: SimDuration,
    /// What [`Substrate::written_fragments`] counts a written object's
    /// fragments from once the write is charged.
    pub placement: P,
}

/// A storage system under the get/put shell: placement, host costs and
/// maintenance duties, nothing else.
///
/// Every method that changes placement returns what the shell needs to charge
/// it; the shell owns the disk, the clock and the scheduler.
pub trait Substrate: Send + Sized {
    /// The substrate's own configuration (volume, engine or log).
    type Config;
    /// What a write's [`IoPlan`] carries for [`Substrate::written_fragments`].
    type Placement;

    /// Which system this is.
    const KIND: StoreKind;
    /// The consumer label of the store's disk spans (`"fs-store"`, …).
    const DISK_LABEL: &'static str;
    /// How the substrate reacts to eager space release (for the
    /// substrate-aware maintenance policy).
    const MAINT_SUBSTRATE: MaintSubstrate;

    /// Formats / creates the substrate.
    fn open(config: Self::Config) -> Result<Self, StoreError>;

    /// Disables the substrate's own interval-driven duties in `config`,
    /// because a maintenance scheduler owns them.  Allocation-pressure
    /// emergency work stays in the substrate.
    fn hand_interval_duties_to_scheduler(_config: &mut Self::Config) {}

    /// Places one write of `size_bytes` under `key`.
    fn write(
        &mut self,
        kind: WriteKind,
        key: &str,
        size_bytes: u64,
        costs: Costs<'_>,
    ) -> Result<IoPlan<Self::Placement>, StoreError>;

    /// Places concurrent safe writes so that their requests interleave on
    /// disk.  `None` when the substrate serializes concurrent writes; the
    /// shell then replaces the items one at a time, each a complete
    /// foreground operation.
    fn safe_write_batch(
        &mut self,
        _items: &[(String, u64)],
        _costs: Costs<'_>,
    ) -> Option<Result<Vec<IoPlan<Self::Placement>>, StoreError>> {
        None
    }

    /// Fragments of the object a charged write produced; by default, those
    /// of the request as written.  `now` is the store's clock before the
    /// write is charged, for substrates that report the write to `obs`.
    fn written_fragments(
        &self,
        write: &IoPlan<Self::Placement>,
        _obs: Option<&Obs>,
        _now: SimDuration,
    ) -> u64 {
        write.request.coalesced().fragment_count() as u64
    }

    /// Deletes an object; returns the host time it cost.
    fn delete(&mut self, key: &str, cost: &CostModel) -> Result<SimDuration, StoreError>;

    /// Plans a whole-object read.
    fn read(&self, key: &str, cost: &CostModel) -> Result<IoPlan, StoreError>;

    /// Number of live objects.
    fn object_count(&self) -> usize;
    /// Keys of all live objects, in the substrate's deterministic order.
    fn keys(&self) -> Vec<String>;
    /// Fragments-per-object summary over all live objects.
    fn fragmentation(&self) -> FragmentationSummary;
    /// Bytes of capacity available to object data.
    fn data_capacity_bytes(&self) -> u64;
    /// Bytes of live object payload.
    fn live_bytes(&self) -> u64;
    /// Free-space shape, for the probe tick's gauges.
    fn free_space_report(&self) -> FreeSpaceReport;
    /// Occupancy of the placement bands, for the probe tick's gauges.
    fn band_occupancy(&self) -> BandOccupancy;

    /// The placement policy maintenance relocations honour.
    fn placement(&self) -> PlacementPolicy;
    /// Bytes a cleanup pass could make reusable.
    fn reclaimable_bytes(&self) -> u64;
    /// Checkpoint duty (see [`lor_maint::MaintTarget::checkpoint`]).
    fn checkpoint(&mut self, costs: Costs<'_>) -> MaintIo;
    /// Ghost-cleanup duty, at most about `budget_bytes` of I/O.  None by
    /// default: reclamation happens elsewhere.
    fn ghost_cleanup(&mut self, _budget_bytes: u64, _costs: Costs<'_>) -> MaintIo {
        MaintIo::NONE
    }
    /// One defragmentation increment of at most about `budget_bytes` of I/O.
    /// `None` when the pass found nothing to move: the scheduler adapter
    /// then backs the duty off for a while instead of re-scanning.  A step
    /// that fails costs nothing and is retried next tick
    /// (`Some(MaintIo::NONE)`).
    fn defragment_step(&mut self, budget_bytes: u64, costs: Costs<'_>) -> Option<MaintIo>;
    /// The full maintenance pass (defragmenter, table rebuild, full clean).
    /// Returns the payload bytes it copied and the repositioning delays it
    /// paid; every copied byte is read once and written once.
    fn maintenance(&mut self) -> Result<(u64, u64), StoreError>;

    /// Runs one server-driven maintenance `slice` over the substrate and
    /// reports it to `obs` at `now`.  The default just runs it.
    fn observe_slice(
        &mut self,
        _obs: Option<&Obs>,
        _now: SimDuration,
        slice: impl FnOnce(&mut Self) -> MaintIo,
    ) -> MaintIo {
        slice(self)
    }
}

/// A get/put object store over substrate `S`.
#[derive(Debug)]
pub struct Store<S> {
    pub(crate) substrate: S,
    disk: Disk,
    cost: CostModel,
    clock: SimClock,
    write_request_size: u64,
    maintenance: Option<MaintenanceState>,
    obs: Option<Obs>,
}

fn costs<'a>(disk: &'a Disk, cost: &'a CostModel, write_request_size: u64) -> Costs<'a> {
    Costs {
        disk: disk.config(),
        cost,
        write_request_size,
    }
}

impl<S: Substrate> Store<S> {
    /// Validates the shell's settings, hands the substrate's interval duties
    /// to the scheduler when there is one, and opens the substrate.
    pub(crate) fn build(
        mut substrate: S::Config,
        disk: DiskConfig,
        write_request_size: u64,
        cost: CostModel,
        maintenance: Option<MaintenanceConfig>,
    ) -> Result<Self, StoreError> {
        if write_request_size == 0 {
            return Err(StoreError::BadConfig(
                "write request size must be non-zero".into(),
            ));
        }
        let maintenance = match maintenance {
            Some(config) => {
                config
                    .validate()
                    .map_err(|message| StoreError::BadConfig(message.into()))?;
                S::hand_interval_duties_to_scheduler(&mut substrate);
                Some(MaintenanceState {
                    scheduler: MaintenanceScheduler::new(config),
                    defrag_backoff: 0,
                })
            }
            None => None,
        };
        Ok(Store {
            substrate: S::open(substrate)?,
            disk: Disk::new(disk),
            cost,
            clock: SimClock::new(),
            write_request_size,
            maintenance,
            obs: None,
        })
    }

    /// The underlying disk model (read-only).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Charges a serviced plan's disk and host time to the clock and writes
    /// its receipt.
    fn receipt<P>(
        &mut self,
        plan: &IoPlan<P>,
        disk_time: ServiceTime,
        fragments: u64,
    ) -> OpReceipt {
        let receipt = OpReceipt {
            payload_bytes: plan.payload_bytes,
            transferred_bytes: plan.request.total_bytes() + plan.extra_bytes,
            disk_time,
            host_time: plan.host_time,
            fragments,
        };
        self.clock.advance(receipt.total_time());
        receipt
    }

    /// Places a write and charges it.
    fn write(
        &mut self,
        kind: WriteKind,
        key: &str,
        size_bytes: u64,
    ) -> Result<OpReceipt, StoreError> {
        let costs = costs(&self.disk, &self.cost, self.write_request_size);
        let write = self.substrate.write(kind, key, size_bytes, costs)?;
        // Migration *is* maintenance, so it must not tick the destination's
        // own maintenance scheduler.
        Ok(self.charge_write(write, kind != WriteKind::MigrateIn))
    }

    /// Services a placed write on the disk and charges it; a `foreground`
    /// write is also reported to the scheduler.
    fn charge_write(&mut self, write: IoPlan<S::Placement>, foreground: bool) -> OpReceipt {
        let disk_time = self.disk.service(&write.request);
        let fragments =
            self.substrate
                .written_fragments(&write, self.obs.as_ref(), self.clock.now());
        let receipt = self.receipt(&write, disk_time, fragments);
        if foreground {
            self.after_mutating_op(receipt.total_time());
        }
        receipt
    }

    /// Reports a completed mutating operation of duration `op_time` to the
    /// store-attached scheduler (if any) and charges whatever background I/O
    /// it performed to the foreground clock — the single spindle serializes
    /// foreground and maintenance work.
    fn after_mutating_op(&mut self, op_time: SimDuration) {
        let Some(state) = self.maintenance.as_mut() else {
            return;
        };
        if state.scheduler.config().server_driven {
            // The request scheduler owns the drive: it calls
            // `maintenance_slice` and models the overlap itself.
            return;
        }
        let costs = costs(&self.disk, &self.cost, self.write_request_size);
        let interference = state.drive(&mut self.substrate, costs, |scheduler, target| {
            scheduler.on_foreground_op(op_time, target)
        });
        self.clock.advance(interference);
    }
}

impl<S: Substrate> ObjectStore for Store<S> {
    fn kind(&self) -> StoreKind {
        S::KIND
    }

    fn put(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.write(WriteKind::Put, key, size_bytes)
    }

    fn get(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        let read = self.substrate.read(key, &self.cost)?;
        let fragments = read.request.coalesced().fragment_count() as u64;
        let disk_time = self.disk.service(&read.request);
        Ok(self.receipt(&read, disk_time, fragments))
    }

    fn safe_write(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.write(WriteKind::SafeWrite, key, size_bytes)
    }

    fn safe_write_batch(&mut self, items: &[(String, u64)]) -> Result<Vec<OpReceipt>, StoreError> {
        let costs = costs(&self.disk, &self.cost, self.write_request_size);
        match self.substrate.safe_write_batch(items, costs) {
            Some(writes) => Ok(writes?
                .into_iter()
                .map(|write| self.charge_write(write, true))
                .collect()),
            None => items
                .iter()
                .map(|(key, size)| self.safe_write(key, *size))
                .collect(),
        }
    }

    fn delete(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        // A delete moves no data: it never reaches the disk.
        let plan = IoPlan {
            request: IoRequest::write_runs([]),
            extra_bytes: 0,
            payload_bytes: 0,
            host_time: self.substrate.delete(key, &self.cost)?,
            placement: (),
        };
        let receipt = self.receipt(&plan, ServiceTime::default(), 0);
        self.after_mutating_op(receipt.total_time());
        Ok(receipt)
    }

    fn migrate_in(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.write(WriteKind::MigrateIn, key, size_bytes)
    }

    fn contains(&self, key: &str) -> bool {
        self.substrate.read(key, &self.cost).is_ok()
    }

    fn object_count(&self) -> usize {
        self.substrate.object_count()
    }

    fn keys(&self) -> Vec<String> {
        self.substrate.keys()
    }

    fn size_of(&self, key: &str) -> Result<u64, StoreError> {
        Ok(self.substrate.read(key, &self.cost)?.payload_bytes)
    }

    fn layout_of(&self, key: &str) -> Result<Vec<ByteRun>, StoreError> {
        Ok(self.substrate.read(key, &self.cost)?.request.segments)
    }

    fn fragmentation(&self) -> FragmentationSummary {
        self.substrate.fragmentation()
    }

    fn data_capacity_bytes(&self) -> u64 {
        self.substrate.data_capacity_bytes()
    }

    fn live_bytes(&self) -> u64 {
        self.substrate.live_bytes()
    }

    fn elapsed(&self) -> SimDuration {
        self.clock.now()
    }

    fn reset_measurements(&mut self) {
        self.clock.reset();
        self.disk.reset_measurements();
    }

    fn maintenance(&mut self) -> Result<u64, StoreError> {
        let (copied, repositions) = self.substrate.maintenance()?;
        self.clock.advance(
            self.disk
                .config()
                .background_copy_time(copied.saturating_mul(2), repositions),
        );
        Ok(copied)
    }

    fn write_request_size(&self) -> u64 {
        self.write_request_size
    }

    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        self.maintenance
            .as_ref()
            .map(|state| *state.scheduler.stats())
    }

    fn maintenance_config(&self) -> Option<MaintenanceConfig> {
        self.maintenance
            .as_ref()
            .map(|state| *state.scheduler.config())
    }

    fn maintenance_slice(&mut self, budget_bytes: u64, now: SimDuration) -> MaintIo {
        let Some(state) = self.maintenance.as_mut() else {
            return MaintIo::NONE;
        };
        let costs = costs(&self.disk, &self.cost, self.write_request_size);
        self.substrate
            .observe_slice(self.obs.as_ref(), now, |substrate| {
                state.drive(substrate, costs, |scheduler, target| {
                    scheduler.run_budgeted_slice(target, budget_bytes, now)
                })
            })
    }

    fn set_obs(&mut self, obs: Obs) {
        self.disk.set_obs(obs.clone(), S::DISK_LABEL);
        if let Some(state) = self.maintenance.as_mut() {
            state.scheduler.set_obs(obs.clone());
        }
        self.obs = Some(obs);
    }

    fn free_space_report(&self) -> Option<FreeSpaceReport> {
        Some(self.substrate.free_space_report())
    }

    fn band_occupancy(&self) -> Option<BandOccupancy> {
        Some(self.substrate.band_occupancy())
    }
}

/// The store contract every substrate keeps, written once: each substrate's
/// test module runs these checks on its own store.
#[cfg(test)]
pub(crate) mod contract {
    use super::*;

    const MB: u64 = 1 << 20;

    /// How the contract builds one substrate's store.
    pub struct Case<S> {
        pub kind: StoreKind,
        /// A store with default settings on `capacity` bytes.
        pub new: fn(u64) -> Result<Store<S>, StoreError>,
        /// A store configured with a zero write-request size.
        pub zero_write_size: fn() -> Result<Store<S>, StoreError>,
        /// Disk bytes an object of the given size occupies.
        pub footprint: fn(u64) -> u64,
    }

    pub fn put_get_safe_write_delete_cycle<S: Substrate>(case: Case<S>) {
        let mut store = (case.new)(256 * MB).unwrap();
        let put = store.put("a", MB).unwrap();
        assert_eq!(put.payload_bytes, MB);
        assert!(put.transferred_bytes >= MB);
        assert!(store.contains("a"));
        assert_eq!(store.object_count(), 1);
        assert_eq!(store.size_of("a").unwrap(), MB);

        let get = store.get("a").unwrap();
        assert_eq!(get.payload_bytes, MB);
        assert!(get.transferred_bytes >= MB);
        assert_eq!(get.fragments, 1, "a clean store keeps objects contiguous");

        let rewrite = store.safe_write("a", 2 * MB).unwrap();
        assert_eq!(rewrite.payload_bytes, 2 * MB);
        assert_eq!(store.size_of("a").unwrap(), 2 * MB);

        store.delete("a").unwrap();
        assert!(!store.contains("a"));
        assert_eq!(store.object_count(), 0);
        assert!(store.get("a").is_err());
    }

    pub fn clock_accumulates_and_resets<S: Substrate>(case: Case<S>) {
        let mut store = (case.new)(256 * MB).unwrap();
        assert_eq!(store.elapsed(), SimDuration::ZERO);
        store.put("a", MB).unwrap();
        let after_put = store.elapsed();
        assert!(after_put > SimDuration::ZERO);
        store.get("a").unwrap();
        assert!(store.elapsed() > after_put);
        store.reset_measurements();
        assert_eq!(store.elapsed(), SimDuration::ZERO);
        assert_eq!(store.disk().stats().total_requests(), 0);
    }

    pub fn errors_map_to_store_errors<S: Substrate>(case: Case<S>) {
        let mut store = (case.new)(256 * MB).unwrap();
        assert!(matches!(
            store.get("missing"),
            Err(StoreError::NoSuchObject(_))
        ));
        store.put("a", MB).unwrap();
        assert!(matches!(
            store.put("a", MB),
            Err(StoreError::ObjectExists(_))
        ));
        assert!(matches!(
            store.safe_write("missing", MB),
            Err(StoreError::NoSuchObject(_))
        ));
        let mut tiny = (case.new)(8 * MB).unwrap();
        assert!(matches!(
            tiny.put("big", 64 * MB),
            Err(StoreError::OutOfSpace(_))
        ));
        assert!(matches!(
            (case.zero_write_size)(),
            Err(StoreError::BadConfig(_))
        ));
    }

    pub fn kind_capacity_and_keys<S: Substrate>(case: Case<S>) {
        let mut store = (case.new)(256 * MB).unwrap();
        assert_eq!(store.kind(), case.kind);
        assert!(store.data_capacity_bytes() <= 256 * MB);
        assert!(store.data_capacity_bytes() > 200 * MB);
        assert_eq!(store.live_bytes(), 0);
        assert_eq!(store.write_request_size(), 64 * 1024);
        assert!(store.free_space_report().is_some());
        assert!(store.band_occupancy().is_some());
        store.put("x", MB).unwrap();
        store.put("y", MB).unwrap();
        assert_eq!(store.keys().len(), 2);
        assert_eq!(store.live_bytes(), 2 * MB);
    }

    pub fn layout_covers_the_object<S: Substrate>(case: Case<S>) {
        let mut store = (case.new)(256 * MB).unwrap();
        store.put("a", 3 * MB).unwrap();
        let layout = store.layout_of("a").unwrap();
        assert_eq!(
            layout.iter().map(|r| r.len).sum::<u64>(),
            (case.footprint)(3 * MB)
        );
    }
}
