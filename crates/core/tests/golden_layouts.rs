//! Golden layout digests of seeded database aging runs.
//!
//! Each case bulk-loads and ages a database store through the request
//! scheduler exactly as `age_store` does, then folds every key's physical
//! layout (`layout_of`), the `fragmentation()` summary and the engine's
//! ghost backlog into one FNV-1a digest.  Placement is the simulated result,
//! so these digests must survive any change to how the engine represents
//! layouts, free space or the ghost backlog: a change that moves a single
//! page is a behaviour change and has to be explained as one.

use lor_core::lor_disksim::SimDuration;
use lor_core::{
    DbObjectStore, DbStoreConfig, ExperimentConfig, MaintenanceConfig, ObjectStore,
    SizeDistribution, StoreServer, WorkloadGenerator,
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

/// Builds the database store `ExperimentConfig::build_store` would, bulk
/// loads it and ages it `rounds` overwrite rounds.
fn aged_db(config: &ExperimentConfig, rounds: u32) -> DbObjectStore {
    let mut store_config = DbStoreConfig::new(config.volume_bytes);
    store_config.write_request_size = config.write_request_size;
    store_config.cost = config.cost;
    store_config.engine.allocation_policy = config.allocation_policy;
    store_config.engine.placement = config.placement;
    store_config.maintenance = config.maintenance;
    let mut store = DbObjectStore::with_config(store_config).expect("store builds");
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

/// Digest of every key's layout (in key order), the fragmentation summary
/// and the ghost backlog.
fn digest(store: &DbObjectStore) -> u64 {
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
    hash.u64(store.database().ghost_page_count());
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

#[test]
fn aged_256k_layouts_match_the_golden_digest() {
    let config = config(256 * MB, 0.5, SizeDistribution::Constant(256 << 10), 301);
    let store = aged_db(&config, 6);
    assert!(store.fragmentation().fragments_per_object > 1.0);
    assert_eq!(digest(&store), 15925602680353131215);
}

#[test]
fn aged_10m_layouts_match_the_golden_digest() {
    let config = config(1 << 30, 0.9, SizeDistribution::uniform_around(10 * MB), 302);
    let store = aged_db(&config, 2);
    assert!(store.fragmentation().fragments_per_object > 1.0);
    assert_eq!(digest(&store), 17622992921014093589);
}

/// The maintained case drives the budgeted (tail-first) ghost cleanup and
/// the incremental compactor, the two paths that split ghost runs and
/// relocate blobs into several free runs.
#[test]
fn maintained_256k_layouts_match_the_golden_digest() {
    let mut config = config(256 * MB, 0.5, SizeDistribution::Constant(256 << 10), 303);
    config.maintenance = Some(MaintenanceConfig::fixed_budget(16));
    let store = aged_db(&config, 6);
    let maintenance = store.maintenance_stats().expect("maintained store");
    assert!(maintenance.ghost_cleanup.runs > 0 && maintenance.defrag.runs > 0);
    assert_eq!(digest(&store), 1112974716001511110);
}
