//! Golden digests of seeded aging runs on all three substrates.
//!
//! Each case bulk-loads and ages a store through the request scheduler
//! exactly as `age_store` does, then folds two things into FNV-1a digests:
//!
//! * **layout** — every key's physical layout (`layout_of`), the
//!   `fragmentation()` summary and the substrate's reclamation backlog (the
//!   database's ghost pages, the filesystem's pending-free clusters, the
//!   log's dead bytes).  Placement is the simulated result, so these digests
//!   must survive any change to how a substrate represents layouts or free
//!   space: a change that moves a single page is a behaviour change and has
//!   to be explained as one.
//! * **cost** — the store's accounting: `elapsed()`, the disk's request
//!   count, the maintenance scheduler's ticks, background bytes and
//!   background time, and finally the bytes and clock charge of one full
//!   `maintenance()` pass.  This pins the get/put shell that turns substrate
//!   runs into disk requests, host time and maintenance interference.

use lor_core::lor_disksim::SimDuration;
use lor_core::{
    DbObjectStore, DbStoreConfig, ExperimentConfig, FsObjectStore, FsStoreConfig, LogObjectStore,
    LogStoreConfig, MaintenanceConfig, ObjectStore, SizeDistribution, StoreServer,
    WorkloadGenerator,
};

const MB: u64 = 1 << 20;

/// 64-bit FNV-1a, fed with little-endian integers.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

/// Bulk loads `store` and ages it `rounds` overwrite rounds.
fn age<S: ObjectStore>(mut store: S, config: &ExperimentConfig, rounds: u32) -> S {
    let mut generator = WorkloadGenerator::new(config.workload());
    let mut server = StoreServer::new(&mut store);
    server
        .run_closed_loop(generator.bulk_load(), 1, SimDuration::ZERO)
        .expect("bulk load fits");
    for _ in 0..rounds {
        server
            .run_closed_loop(
                generator.overwrite_round(),
                config.concurrency,
                SimDuration::ZERO,
            )
            .expect("aging round fits");
    }
    store
}

/// The database store `ExperimentConfig::build_store` would build, aged.
fn aged_db(config: &ExperimentConfig, rounds: u32) -> DbObjectStore {
    let mut store_config = DbStoreConfig::new(config.volume_bytes);
    store_config.write_request_size = config.write_request_size;
    store_config.cost = config.cost;
    store_config.engine.allocation_policy = config.allocation_policy;
    store_config.engine.placement = config.placement;
    store_config.maintenance = config.maintenance;
    age(
        DbObjectStore::with_config(store_config).expect("store builds"),
        config,
        rounds,
    )
}

/// The filesystem store `ExperimentConfig::build_store` would build, aged.
fn aged_fs(config: &ExperimentConfig, rounds: u32) -> FsObjectStore {
    let mut store_config = FsStoreConfig::new(config.volume_bytes);
    store_config.write_request_size = config.write_request_size;
    store_config.cost = config.cost;
    store_config.volume.allocation_policy = config.allocation_policy;
    store_config.volume.placement = config.placement;
    store_config.maintenance = config.maintenance;
    age(
        FsObjectStore::with_config(store_config).expect("store builds"),
        config,
        rounds,
    )
}

/// The segment-log store `ExperimentConfig::build_store` would build, aged.
fn aged_log(config: &ExperimentConfig, rounds: u32) -> LogObjectStore {
    let mut store_config = LogStoreConfig::new(config.volume_bytes);
    store_config.write_request_size = config.write_request_size;
    store_config.cost = config.cost;
    store_config.log.placement = config.placement;
    store_config.maintenance = config.maintenance;
    age(
        LogObjectStore::with_config(store_config).expect("store builds"),
        config,
        rounds,
    )
}

/// Digest of every key's layout (in key order), the fragmentation summary
/// and the substrate's reclamation `backlog`.
fn layout_digest(store: &impl ObjectStore, backlog: u64) -> u64 {
    let mut hash = Fnv::new();
    let mut keys = store.keys();
    keys.sort();
    for key in &keys {
        hash.bytes(key.as_bytes());
        let layout = store.layout_of(key).expect("live key has a layout");
        hash.u64(layout.len() as u64);
        for run in layout {
            hash.u64(run.offset);
            hash.u64(run.len);
        }
    }
    let summary = store.fragmentation();
    hash.u64(summary.objects as u64);
    hash.u64(summary.total_fragments);
    hash.u64(summary.fragments_per_object.to_bits());
    hash.u64(summary.min_fragments);
    hash.u64(summary.max_fragments);
    hash.u64(summary.median_fragments.to_bits());
    hash.u64(summary.contiguous_fraction.to_bits());
    hash.u64(backlog);
    hash.0
}

/// Digest of the store's cost accounting (`disk_requests` is the disk's
/// total request count), then of one full `maintenance()` pass: the bytes it
/// copied and the clock it charged.
fn cost_digest(store: &mut impl ObjectStore, disk_requests: u64) -> u64 {
    let mut hash = Fnv::new();
    hash.u64(store.elapsed().as_nanos());
    hash.u64(disk_requests);
    match store.maintenance_stats() {
        Some(stats) => {
            hash.u64(stats.ticks);
            hash.u64(stats.background_bytes);
            hash.u64(stats.background_time.as_nanos());
        }
        None => hash.u64(u64::MAX),
    }
    let before = store.elapsed();
    hash.u64(store.maintenance().expect("full maintenance pass"));
    hash.u64((store.elapsed() - before).as_nanos());
    hash.0
}

fn config(
    volume_bytes: u64,
    occupancy: f64,
    sizes: SizeDistribution,
    seed: u64,
) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(sizes);
    config.volume_bytes = volume_bytes;
    config.occupancy = occupancy;
    config.seed = seed;
    config
}

/// 256 KB objects at 50% of 256 MB, six overwrite rounds.
fn small_objects() -> ExperimentConfig {
    config(256 * MB, 0.5, SizeDistribution::Constant(256 << 10), 301)
}

/// Uniform ~10 MB objects at 90% of 1 GB, two overwrite rounds.
fn large_objects() -> ExperimentConfig {
    config(1 << 30, 0.9, SizeDistribution::uniform_around(10 * MB), 302)
}

/// The small-object run under `fixed_budget(16)` store-attached maintenance:
/// it drives each substrate's budgeted cleanup and incremental
/// defragmentation (for the database, the tail-first ghost cleanup and the
/// compactor, the two paths that split ghost runs and relocate blobs into
/// several free runs).
fn maintained_small_objects() -> ExperimentConfig {
    let mut config = config(256 * MB, 0.5, SizeDistribution::Constant(256 << 10), 303);
    config.maintenance = Some(MaintenanceConfig::fixed_budget(16));
    config
}

fn check_db(mut store: DbObjectStore, layout: u64, cost: u64) {
    let backlog = store.database().ghost_page_count();
    assert_eq!(layout_digest(&store, backlog), layout);
    let requests = store.disk().stats().total_requests();
    assert_eq!(cost_digest(&mut store, requests), cost);
}

fn check_fs(mut store: FsObjectStore, layout: u64, cost: u64) {
    let backlog = store.volume().pending_clusters();
    assert_eq!(layout_digest(&store, backlog), layout);
    let requests = store.disk().stats().total_requests();
    assert_eq!(cost_digest(&mut store, requests), cost);
}

fn check_log(mut store: LogObjectStore, layout: u64, cost: u64) {
    let backlog = store.log().dead_bytes();
    assert_eq!(layout_digest(&store, backlog), layout);
    let requests = store.disk().stats().total_requests();
    assert_eq!(cost_digest(&mut store, requests), cost);
}

#[test]
fn aged_256k_layouts_match_the_golden_digest() {
    let store = aged_db(&small_objects(), 6);
    assert!(store.fragmentation().fragments_per_object > 1.0);
    check_db(store, 15925602680353131215, 15806529380113296166);
}

#[test]
fn aged_10m_layouts_match_the_golden_digest() {
    let store = aged_db(&large_objects(), 2);
    assert!(store.fragmentation().fragments_per_object > 1.0);
    check_db(store, 17622992921014093589, 9028601345903811433);
}

#[test]
fn maintained_256k_layouts_match_the_golden_digest() {
    let store = aged_db(&maintained_small_objects(), 6);
    let maintenance = store.maintenance_stats().expect("maintained store");
    assert!(maintenance.ghost_cleanup.runs > 0 && maintenance.defrag.runs > 0);
    check_db(store, 1112974716001511110, 7161253066509186455);
}

#[test]
fn fs_aged_256k_layouts_match_the_golden_digest() {
    let store = aged_fs(&small_objects(), 6);
    check_fs(store, 15801843409263610990, 17956993517643710365);
}

#[test]
fn fs_aged_10m_layouts_match_the_golden_digest() {
    let store = aged_fs(&large_objects(), 2);
    assert!(store.fragmentation().fragments_per_object > 1.0);
    check_fs(store, 15054327884381381401, 6811199607555829440);
}

#[test]
fn fs_maintained_256k_layouts_match_the_golden_digest() {
    let store = aged_fs(&maintained_small_objects(), 6);
    let maintenance = store.maintenance_stats().expect("maintained store");
    assert!(maintenance.checkpoint.runs > 0);
    check_fs(store, 15430707051708007908, 11645972737092380615);
}

#[test]
fn log_aged_256k_layouts_match_the_golden_digest() {
    let store = aged_log(&small_objects(), 6);
    check_log(store, 13752275042319563104, 8898706629443783386);
}

#[test]
fn log_aged_10m_layouts_match_the_golden_digest() {
    let store = aged_log(&large_objects(), 2);
    check_log(store, 16323571624761541403, 4689153313588095976);
}

#[test]
fn log_maintained_256k_layouts_match_the_golden_digest() {
    let store = aged_log(&maintained_small_objects(), 6);
    let maintenance = store.maintenance_stats().expect("maintained store");
    assert!(maintenance.defrag.runs > 0);
    check_log(store, 8152003286672485093, 17158831859961711563);
}
