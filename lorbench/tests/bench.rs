//! The benchmark's own tests: the decorator is result-transparent, the
//! checks catch a planted fault, a near-full run is reported rather than
//! crashing, and `BENCHMARK.json` names every metric the benchmark prints.

use lor_core::lor_alloc::FragmentationSummary;
use lor_core::lor_disksim::{ByteRun, Disk, SimDuration};
use lor_core::{
    run_aging_experiment, DbObjectStore, ExperimentConfig, FsObjectStore, LogObjectStore,
    ObjectStore, OpReceipt, SizeDistribution, StoreError, StoreKind,
};
use lorbench::episode::{
    aging, fleet, workload, AgingShape, FleetShape, Shape, Sub, Substrate, WORKLOADS,
};
use lorbench::run::{episode, Run};

const MB: u64 = 1 << 20;

fn tiny_aging() -> AgingShape {
    AgingShape {
        volume_bytes: 64 * MB,
        occupancy: 0.5,
        sizes: SizeDistribution::Constant(256 << 10),
        clients: 4,
        rounds: 3,
    }
}

fn tiny_fleet() -> FleetShape {
    FleetShape {
        volume_bytes: 4 * 64 * MB,
        occupancy: 0.5,
        object_size: 256 << 10,
        shards: 4,
        vnodes: 16,
        maint_io_per_tick: 64,
        pre_age_rounds: 1,
        ops: 2_000,
        write_fraction: 0.1,
        rates: [40.0, 30.0, 60.0],
    }
}

fn tiny(shape: Shape) -> lorbench::episode::Workload {
    lorbench::episode::Workload {
        name: "tiny",
        shape,
    }
}

#[test]
fn tracing_changes_no_simulated_result() {
    for shape in [Shape::Aging(tiny_aging()), Shape::Fleet(tiny_fleet())] {
        let workload = tiny(shape);
        for sub in Sub::ALL {
            for seed in [1, 2] {
                let plain = episode(&workload, sub, seed, false);
                let traced = episode(&workload, sub, seed, true);
                assert!(plain.failures.is_empty(), "{sub:?}: {:?}", plain.failures);
                assert!(traced.failures.is_empty(), "{sub:?}: {:?}", traced.failures);
                assert!(plain.same_results(&traced), "{sub:?} seed {seed}");
                assert!(!traced.spans.is_empty());
                assert!(
                    traced.store.is_some(),
                    "{sub:?}: traced episodes see the store layer"
                );
            }
        }
    }
}

#[test]
fn the_decorated_store_ages_exactly_like_the_undecorated_harness() {
    let shape = tiny_aging();
    for (sub, kind) in [
        (Sub::Db, StoreKind::Database),
        (Sub::Fs, StoreKind::Filesystem),
        (Sub::Log, StoreKind::LogStructured),
    ] {
        let measured = episode(&tiny(Shape::Aging(shape.clone())), sub, 7, true);
        let reference = run_aging_experiment(kind, &shape.config(7), &[shape.rounds], false)
            .expect("the reference harness runs");
        assert_eq!(
            measured.outcome.frag_per_object, reference.points[0].fragments_per_object,
            "{sub:?}"
        );
    }
}

/// Forwards every call, but reports every object one byte larger than it is.
struct Liar<S>(S);

impl<S: ObjectStore> ObjectStore for Liar<S> {
    fn kind(&self) -> StoreKind {
        self.0.kind()
    }
    fn put(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.0.put(key, size_bytes)
    }
    fn get(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        self.0.get(key)
    }
    fn safe_write(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.0.safe_write(key, size_bytes)
    }
    fn safe_write_batch(&mut self, items: &[(String, u64)]) -> Result<Vec<OpReceipt>, StoreError> {
        self.0.safe_write_batch(items)
    }
    fn delete(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        self.0.delete(key)
    }
    fn contains(&self, key: &str) -> bool {
        self.0.contains(key)
    }
    fn object_count(&self) -> usize {
        self.0.object_count()
    }
    fn keys(&self) -> Vec<String> {
        self.0.keys()
    }
    fn size_of(&self, key: &str) -> Result<u64, StoreError> {
        self.0.size_of(key).map(|size| size + 1)
    }
    fn layout_of(&self, key: &str) -> Result<Vec<ByteRun>, StoreError> {
        self.0.layout_of(key)
    }
    fn fragmentation(&self) -> FragmentationSummary {
        self.0.fragmentation()
    }
    fn data_capacity_bytes(&self) -> u64 {
        self.0.data_capacity_bytes()
    }
    fn live_bytes(&self) -> u64 {
        self.0.live_bytes()
    }
    fn elapsed(&self) -> SimDuration {
        self.0.elapsed()
    }
    fn reset_measurements(&mut self) {
        self.0.reset_measurements()
    }
    fn maintenance(&mut self) -> Result<u64, StoreError> {
        self.0.maintenance()
    }
    fn write_request_size(&self) -> u64 {
        self.0.write_request_size()
    }
}

impl<S: Substrate> Substrate for Liar<S> {
    fn build(config: &ExperimentConfig) -> Result<Self, StoreError> {
        S::build(config).map(Liar)
    }
    fn disk(&self) -> &Disk {
        self.0.disk()
    }
}

#[test]
fn a_store_that_misreports_sizes_fails_the_checks() {
    let shape = tiny_aging();
    let honest = aging::<FsObjectStore>(Sub::Fs, &shape, 3, false);
    assert!(honest.failures.is_empty(), "{:?}", honest.failures);
    for failures in [
        aging::<Liar<FsObjectStore>>(Sub::Fs, &shape, 3, false).failures,
        aging::<Liar<DbObjectStore>>(Sub::Db, &shape, 3, false).failures,
        aging::<Liar<LogObjectStore>>(Sub::Log, &shape, 3, false).failures,
    ] {
        assert!(
            failures.iter().any(|f| f.contains("last acknowledged")),
            "{failures:?}"
        );
    }
    // The fleet is checked through each shard's own store.
    assert!(fleet::<FsObjectStore>(Sub::Fs, &tiny_fleet(), 3, false)
        .failures
        .is_empty());
}

#[test]
fn a_near_full_volume_is_reported_in_the_error_rate_not_a_crash() {
    // 97.5% full with uniform ~10 MB objects: a safe write needs room for
    // the new version before the old one is freed, so writes are refused
    // as out of space.  Today the server propagates the first refusal and
    // aborts the run, so every op after it counts as failed too.  Each
    // substrate still runs after the one before it aborted.
    let shape = AgingShape {
        volume_bytes: 1 << 30,
        occupancy: 0.975,
        sizes: SizeDistribution::uniform_around(10 * MB),
        clients: 4,
        rounds: 2,
    };
    let workload = tiny(Shape::Aging(shape));
    let episodes: Vec<_> = Sub::ALL
        .into_iter()
        .map(|sub| episode(&workload, sub, 1, false))
        .collect();
    let fs = &episodes[Sub::Fs.index()];
    assert!(
        fs.outcome.failed > 0,
        "the filesystem's out-of-space abort shows"
    );
    for episode in &episodes {
        assert!(episode.attempted > 0, "{:?} ran", episode.sub);
        assert!(episode.failed <= episode.attempted);
        assert!(
            !episode.failures.iter().any(|f| f.contains("completions")),
            "{:?}: {:?}",
            episode.sub,
            episode.failures
        );
    }
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let empty = Run {
        episodes: Vec::new(),
        traced: Vec::new(),
        failures: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let names: Vec<String> = empty
        .end_to_end()
        .into_iter()
        .chain(empty.per_layer())
        .map(|metric| metric.name)
        .chain(WORKLOADS.iter().map(|name| name.to_string()))
        .collect();
    for name in &names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing"
        );
    }
    assert_eq!(json.matches("\"name\":").count(), names.len());
    for name in WORKLOADS {
        assert!(workload(name).is_some());
    }
}
