//! Workload shapes and episodes.
//!
//! An *episode* builds one repository from nothing, brings it to the
//! workload's starting state (set-up), runs the measured phase, and checks
//! the outputs.  Everything simulated in an episode is a pure function of
//! the workload shape and the seed, so repeated episodes — and the traced
//! episode — must agree bit for bit; only host times differ.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use lor_core::lor_disksim::{throughput_mb_per_sec, Disk, SimDuration};
use lor_core::{
    Completion, DbObjectStore, DbStoreConfig, ExperimentConfig, FleetParallelism, FsObjectStore,
    FsStoreConfig, LogObjectStore, LogStoreConfig, MaintenanceConfig, MixedOpenLoop, ObjectKey,
    ObjectStore, SizeDistribution, StoreError, StoreKind, StoreRequest, StoreServer,
    WorkloadGenerator, WorkloadOp,
};
use lor_shard::{RouterPolicy, ShardedStore};

use crate::calib::HostTimer;
use crate::check::{check_store, walk_completions, Model};
use crate::probe::{traced, Probe, Span, Tracer};

/// One of the three substrates every workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sub {
    /// SQL-Server-like BLOB engine.
    Db,
    /// NTFS-like volume.
    Fs,
    /// Append-only segment log.
    Log,
}

impl Sub {
    /// Every substrate, in report order.
    pub const ALL: [Sub; 3] = [Sub::Db, Sub::Fs, Sub::Log];

    /// Metric-name suffix.
    pub fn tag(self) -> &'static str {
        match self {
            Sub::Db => "db",
            Sub::Fs => "fs",
            Sub::Log => "log",
        }
    }

    /// The store kind behind this substrate.
    pub fn kind(self) -> StoreKind {
        match self {
            Sub::Db => StoreKind::Database,
            Sub::Fs => StoreKind::Filesystem,
            Sub::Log => StoreKind::LogStructured,
        }
    }

    /// Position in [`Sub::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A closed-loop aging workload: bulk load (set-up), overwrite rounds and
/// one randomized full read pass, all driven by `clients` closed-loop
/// clients with zero think time.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingShape {
    /// Volume capacity per substrate.
    pub volume_bytes: u64,
    /// Fraction of the usable capacity holding live objects.
    pub occupancy: f64,
    /// Object sizes.
    pub sizes: SizeDistribution,
    /// Closed-loop clients.
    pub clients: usize,
    /// Overwrite rounds in the measured phase (each advances storage age
    /// by one).
    pub rounds: u32,
}

impl AgingShape {
    /// The experiment configuration this shape induces for `seed`.
    pub fn config(&self, seed: u64) -> ExperimentConfig {
        let mut config = ExperimentConfig::paper_default(self.sizes);
        config.volume_bytes = self.volume_bytes;
        config.occupancy = self.occupancy;
        config.seed = seed;
        config.with_clients(self.clients, 0.0)
    }
}

/// An open-loop mixed workload on a sharded fleet with server-driven
/// maintenance on every shard.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetShape {
    /// Aggregate capacity, split evenly across shards.
    pub volume_bytes: u64,
    /// Fraction of the usable capacity holding live objects.
    pub occupancy: f64,
    /// Constant object size.
    pub object_size: u64,
    /// Shards in the fleet.
    pub shards: u32,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: u32,
    /// Fixed maintenance budget per tick, in 64 KB I/O units.
    pub maint_io_per_tick: u64,
    /// Overwrite rounds applied during set-up.
    pub pre_age_rounds: u32,
    /// Operations in the measured schedule.
    pub ops: usize,
    /// Fraction of the schedule that is safe writes (the rest are reads).
    pub write_fraction: f64,
    /// Offered load per substrate, ops per simulated second, in
    /// [`Sub::ALL`] order.
    pub rates: [f64; 3],
}

impl FleetShape {
    /// The aggregate experiment configuration for `seed`.
    pub fn config(&self, seed: u64) -> ExperimentConfig {
        let mut config =
            ExperimentConfig::paper_default(SizeDistribution::Constant(self.object_size));
        config.volume_bytes = self.volume_bytes;
        config.occupancy = self.occupancy;
        config.seed = seed;
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get() as u32)
            .min(self.shards);
        config
            .with_maintenance(
                MaintenanceConfig::fixed_budget(self.maint_io_per_tick).with_server_drive(),
            )
            .with_fleet_parallelism(FleetParallelism::Threads(workers))
    }
}

/// What a workload runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// Closed-loop aging on one store per substrate.
    Aging(AgingShape),
    /// Open-loop mixed load on a sharded fleet per substrate.
    Fleet(FleetShape),
}

/// A named workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its shape.
    pub shape: Shape,
}

const MB: u64 = 1 << 20;

/// The benchmark's workloads, by name.
pub fn workload(name: &str) -> Option<Workload> {
    let shape = match name {
        // Figures 1 and 3: constant 256 KB objects, 50% of 4 GB (7,247
        // objects), about 8,000 objects' worth of free space.
        "age-256k" => Shape::Aging(AgingShape {
            volume_bytes: 4_000_000_000,
            occupancy: 0.5,
            sizes: SizeDistribution::Constant(256 << 10),
            clients: 4,
            rounds: 10,
        }),
        // Figures 5 and 6: uniform sizes around 10 MB, 90% of 10 GB (815
        // objects), about 100 objects' worth of free space.
        "age-10m-full" => Shape::Aging(AgingShape {
            volume_bytes: 10_000_000_000,
            occupancy: 0.9,
            sizes: SizeDistribution::uniform_around(10 * MB),
            clients: 4,
            rounds: 2,
        }),
        // Reads beside writes on a 16-shard fleet: 256 KB objects at 50%
        // of 8 GB in aggregate (14,495 objects).
        "fleet-mixed" => Shape::Fleet(FleetShape {
            volume_bytes: 8_000_000_000,
            occupancy: 0.5,
            object_size: 256 << 10,
            shards: 16,
            vnodes: 16,
            maint_io_per_tick: 64,
            pre_age_rounds: 2,
            ops: 200_000,
            write_fraction: 0.1,
            rates: [200.0, 150.0, 300.0],
        }),
        _ => return None,
    };
    Some(Workload {
        name: WORKLOADS.iter().find(|w| **w == name)?,
        shape,
    })
}

/// Every workload name, in report order.
pub const WORKLOADS: [&str; 3] = ["age-256k", "age-10m-full", "fleet-mixed"];

/// A concrete store the benchmark can build and read counters from.
pub trait Substrate: ObjectStore + Sized {
    /// Builds the store with the mapping `ExperimentConfig::build_store`
    /// uses.
    fn build(config: &ExperimentConfig) -> Result<Self, StoreError>;
    /// The simulated drive.
    fn disk(&self) -> &Disk;
    /// Substrate work counters: allocation events and forced checkpoints
    /// (fs), pages allocated and forced cleanups (db).
    fn work(&self) -> [u64; 2] {
        [0, 0]
    }
    /// Mean live fraction of occupied log segments (log only).
    fn utilization(&self) -> f64 {
        0.0
    }
}

impl Substrate for FsObjectStore {
    fn build(config: &ExperimentConfig) -> Result<Self, StoreError> {
        let mut store = FsStoreConfig::new(config.volume_bytes);
        store.write_request_size = config.write_request_size;
        store.cost = config.cost;
        store.volume.allocation_policy = config.allocation_policy;
        store.volume.placement = config.placement;
        store.maintenance = config.maintenance;
        FsObjectStore::with_config(store)
    }
    fn disk(&self) -> &Disk {
        FsObjectStore::disk(self)
    }
    fn work(&self) -> [u64; 2] {
        let stats = self.volume().stats();
        [stats.allocation_events, stats.forced_checkpoints]
    }
}

impl Substrate for DbObjectStore {
    fn build(config: &ExperimentConfig) -> Result<Self, StoreError> {
        let mut store = DbStoreConfig::new(config.volume_bytes);
        store.write_request_size = config.write_request_size;
        store.cost = config.cost;
        store.engine.allocation_policy = config.allocation_policy;
        store.engine.placement = config.placement;
        store.maintenance = config.maintenance;
        DbObjectStore::with_config(store)
    }
    fn disk(&self) -> &Disk {
        DbObjectStore::disk(self)
    }
    fn work(&self) -> [u64; 2] {
        let stats = self.database().stats();
        [stats.pages_allocated, stats.forced_cleanups]
    }
}

impl Substrate for LogObjectStore {
    fn build(config: &ExperimentConfig) -> Result<Self, StoreError> {
        let mut store = LogStoreConfig::new(config.volume_bytes);
        store.write_request_size = config.write_request_size;
        store.cost = config.cost;
        store.log.placement = config.placement;
        store.maintenance = config.maintenance;
        LogObjectStore::with_config(store)
    }
    fn disk(&self) -> &Disk {
        LogObjectStore::disk(self)
    }
    fn utilization(&self) -> f64 {
        self.log().segment_stats().mean_utilization
    }
}

/// Simulated results of an episode's measured phase: deterministic for a
/// workload and seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    /// Foreground operations attempted in the measured phase.
    pub ops: u64,
    /// Of those, failed or never executed.
    pub failed: u64,
    /// Fragments per live object at the end.
    pub frag_per_object: f64,
    /// `Get` payload over summed `Get` service time, MB/s (10^6 bytes).
    pub read_mb_s: f64,
    /// Client-observed latency (finish − arrival) percentiles, ms.
    pub p99_ms: f64,
    /// Median of the same latencies.
    pub p50_ms: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Mean queue delay (start − arrival), ms.
    pub queue_ms: f64,
    /// Mean wait behind a maintenance slice, ms.
    pub maint_wait_ms: f64,
    /// Last finish minus last arrival, ms.
    pub backlog_ms: f64,
    /// Maintenance ticks, background time and bytes in the measured phase,
    /// summed over every store.
    pub maint_ticks: u64,
    /// Background maintenance time, simulated seconds.
    pub maint_background_s: f64,
    /// Background maintenance bytes.
    pub maint_bytes: u64,
    /// Fleet only: max ÷ mean live objects per shard.
    pub shard_imbalance: f64,
    /// Fleet only: max ÷ median per-shard p99 latency.
    pub shard_p99_skew: f64,
}

/// Deterministic counters at and below the `ObjectStore` boundary, over the
/// measured phase.  For the fleet they come from a replay of shard 0.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StoreLayer {
    /// Safe writes per `safe_write_batch` call.
    pub batch_mean: f64,
    /// Store calls that returned an error.
    pub failed: u64,
    /// Substrate work counters (see [`Substrate::work`]).
    pub work: [u64; 2],
    /// Mean log-segment utilization (log only).
    pub utilization: f64,
    /// Free runs in the free-space map, where the store has one.
    pub free_runs: u64,
    /// External fragmentation of the free space.
    pub ext_frag: f64,
    /// Disk requests serviced.
    pub disk_requests: u64,
    /// Simulated seek plus rotation time, seconds.
    pub disk_seek_s: f64,
    /// Sequential hits ÷ requests.
    pub disk_seq_ratio: f64,
    /// Disk bytes written ÷ payload bytes acknowledged.
    pub disk_write_amp: f64,
    /// `maintenance_slice` calls.
    pub maint_slices: u64,
}

/// One episode's results.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Substrate.
    pub sub: Sub,
    /// Host seconds from nothing to the starting state.
    pub setup_s: f64,
    /// The same, scaled to the reference host (see [`crate::calib`]).
    pub setup_ref_s: f64,
    /// Host seconds of the measured phase.  Neither this nor `setup_s`
    /// counts the reference passes run between its pieces of work.
    pub measure_s: f64,
    /// The same, scaled to the reference host.
    pub measure_ref_s: f64,
    /// Host seconds spent in the output checks.
    pub check_s: f64,
    /// Mean host seconds of the episode's reference passes.
    pub reference_s: f64,
    /// Operations submitted, set-up included.
    pub attempted: u64,
    /// Operations that failed or were never executed, set-up included.
    pub failed: u64,
    /// Simulated results.
    pub outcome: Outcome,
    /// Store-boundary counters (fleet: traced episodes only).
    pub store: Option<StoreLayer>,
    /// Failed checks; empty is a pass.
    pub failures: Vec<String>,
    /// Recorded spans (traced episodes only).
    pub spans: Vec<Span>,
    /// Router calls timed in the traced fleet episode.
    pub route_calls: u64,
}

impl Episode {
    fn new(sub: Sub) -> Self {
        Episode {
            sub,
            setup_s: 0.0,
            setup_ref_s: 0.0,
            measure_s: 0.0,
            measure_ref_s: 0.0,
            reference_s: 0.0,
            check_s: 0.0,
            attempted: 0,
            failed: 0,
            outcome: Outcome::default(),
            store: None,
            failures: Vec::new(),
            spans: Vec::new(),
            route_calls: 0,
        }
    }

    /// Whether the simulated results of two episodes agree bit for bit.
    pub fn same_results(&self, other: &Episode) -> bool {
        self.outcome == other.outcome
            && (self.store.is_none() || other.store.is_none() || self.store == other.store)
    }
}

/// One phase of requests, served by a fresh [`StoreServer`] (as each fleet
/// call serves each shard).
#[derive(Debug, Clone)]
enum Phase {
    Closed(Vec<WorkloadOp>, usize),
    Schedule(Vec<StoreRequest>),
}

impl Phase {
    fn server_span(&self) -> &'static str {
        match self {
            Phase::Closed(..) => "server.run_closed_loop",
            Phase::Schedule(_) => "server.run_schedule",
        }
    }

    fn ops(&self) -> Vec<WorkloadOp> {
        match self {
            Phase::Closed(ops, _) => ops.clone(),
            Phase::Schedule(requests) => requests.iter().map(|r| r.op).collect(),
        }
    }
}

/// Serves one phase on a fresh server over `store`.
fn serve(store: &mut dyn ObjectStore, phase: Phase) -> Result<Vec<Completion>, StoreError> {
    let mut server = StoreServer::new(store);
    match phase {
        Phase::Closed(ops, clients) => server.run_closed_loop(ops, clients, SimDuration::ZERO),
        Phase::Schedule(requests) => server.run_schedule(requests),
    }
}

/// Op accounting across an episode's phases.  After the first phase that
/// returns an error, later phases are not run and count as failed.
struct Phases<'t> {
    tracer: Option<&'t Tracer>,
    attempted: u64,
    failed: u64,
    completed: u64,
    aborted: Option<String>,
    /// Ops of the phase that aborted: their outcome is unknown.
    unsure: Vec<WorkloadOp>,
}

impl<'t> Phases<'t> {
    fn new(tracer: Option<&'t Tracer>) -> Self {
        Phases {
            tracer,
            attempted: 0,
            failed: 0,
            completed: 0,
            aborted: None,
            unsure: Vec::new(),
        }
    }

    /// Serves `phase` on a single store through a fresh server.
    fn serve<S: ObjectStore>(
        &mut self,
        probe: &mut Probe<S>,
        phase: Phase,
    ) -> Option<Vec<Completion>> {
        let ops = phase.ops();
        let acked_before = probe.counts().acked_ops;
        let was_aborted = self.aborted.is_some();
        let done = self.run(phase.server_span(), &ops, || serve(probe, phase));
        if done.is_none() && !was_aborted {
            // Ops the store acknowledged before the phase aborted did run.
            let ran = probe.counts().acked_ops - acked_before;
            self.failed -= ran;
            self.completed += ran;
        }
        done
    }

    /// Runs one phase: counts its ops, and on an error records the abort.
    fn run<R>(
        &mut self,
        name: &'static str,
        ops: &[WorkloadOp],
        work: impl FnOnce() -> Result<R, StoreError>,
    ) -> Option<R> {
        let total = ops.len() as u64;
        self.attempted += total;
        if self.aborted.is_some() {
            self.failed += total;
            return None;
        }
        match traced(self.tracer, name, work) {
            Ok(out) => {
                self.completed += total;
                Some(out)
            }
            Err(err) => {
                self.failed += total;
                self.aborted = Some(format!("{name}: {err}"));
                self.unsure = ops.to_vec();
                None
            }
        }
    }
}

fn nearest_rank(sorted: &[u64], quantile: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (quantile * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Latency, read-throughput and queueing figures over measured completions.
fn latency_outcome(completions: &[Completion], outcome: &mut Outcome) {
    let mut latencies: Vec<u64> = completions.iter().map(|c| c.latency().as_nanos()).collect();
    latencies.sort_unstable();
    outcome.samples = latencies.len() as u64;
    outcome.p99_ms = ms(nearest_rank(&latencies, 0.99));
    outcome.p50_ms = ms(nearest_rank(&latencies, 0.50));
    let n = completions.len().max(1) as f64;
    outcome.queue_ms = completions
        .iter()
        .map(|c| ms(c.queue_delay().as_nanos()))
        .sum::<f64>()
        / n;
    outcome.maint_wait_ms = completions
        .iter()
        .map(|c| ms(c.maint_delay.as_nanos()))
        .sum::<f64>()
        / n;
    let last_finish = completions.iter().map(|c| c.finish).max();
    let last_arrival = completions.iter().map(|c| c.request.arrival).max();
    if let (Some(finish), Some(arrival)) = (last_finish, last_arrival) {
        outcome.backlog_ms = ms(finish.saturating_sub(arrival).as_nanos());
    }
    let (bytes, service) = completions
        .iter()
        .filter(|c| matches!(c.request.op, WorkloadOp::Get { .. }))
        .fold((0u64, SimDuration::ZERO), |(bytes, time), c| {
            (
                bytes + c.receipt.payload_bytes,
                time + c.finish.saturating_sub(c.start),
            )
        });
    outcome.read_mb_s = if service.is_zero() {
        0.0
    } else {
        throughput_mb_per_sec(bytes, service)
    };
}

fn written_payload(completions: &[Completion]) -> u64 {
    completions
        .iter()
        .filter(|c| !matches!(c.request.op, WorkloadOp::Get { .. }))
        .map(|c| c.receipt.payload_bytes)
        .sum()
}

/// Ticks, background seconds and bytes summed over stores.
fn maint_totals<'a>(stores: impl Iterator<Item = &'a dyn ObjectStore>) -> (u64, f64, u64) {
    stores.filter_map(|store| store.maintenance_stats()).fold(
        (0, 0.0, 0),
        |(ticks, secs, bytes), stats| {
            (
                ticks + stats.ticks,
                secs + stats.background_time.as_secs_f64(),
                bytes + stats.background_bytes,
            )
        },
    )
}

/// Store-boundary counters over the measured phase.
fn store_layer<S: Substrate>(
    probe: &Probe<S>,
    work_before: [u64; 2],
    counts_before: crate::probe::ProbeCounts,
    payload_written: u64,
) -> StoreLayer {
    let store = probe.inner();
    let counts = probe.counts();
    let stats = store.disk().stats();
    let requests = stats.total_requests();
    let work = store.work();
    let batches = counts.batches - counts_before.batches;
    let report = store.free_space_report();
    StoreLayer {
        batch_mean: ratio(
            (counts.batch_items - counts_before.batch_items) as f64,
            batches as f64,
        ),
        failed: counts.failed_ops - counts_before.failed_ops,
        work: [work[0] - work_before[0], work[1] - work_before[1]],
        utilization: store.utilization(),
        free_runs: report.as_ref().map_or(0, |r| r.free_runs as u64),
        ext_frag: report.as_ref().map_or(0.0, |r| r.external_fragmentation),
        disk_requests: requests,
        disk_seek_s: (stats.reads.seek_time
            + stats.reads.rotation_time
            + stats.writes.seek_time
            + stats.writes.rotation_time)
            .as_secs_f64(),
        disk_seq_ratio: ratio(stats.sequential_hits as f64, requests as f64),
        disk_write_amp: ratio(stats.writes.bytes as f64, payload_written as f64),
        maint_slices: counts.slices - counts_before.slices,
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Runs one aging episode on substrate `S`.
pub fn aging<S: Substrate>(sub: Sub, shape: &AgingShape, seed: u64, trace: bool) -> Episode {
    let tracer = trace.then(Tracer::new);
    let t = tracer.as_deref();
    let config = shape.config(seed);
    let mut episode = Episode::new(sub);
    let mut host = HostTimer::new(1);
    let started = Instant::now();
    let store = match S::build(&config) {
        Ok(store) => store,
        Err(err) => {
            episode
                .failures
                .push(format!("building the store failed: {err}"));
            return episode;
        }
    };
    let mut probe = Probe::new(store, tracer.clone());
    let mut generator = WorkloadGenerator::new(config.workload());
    let mut phases = Phases::new(t);
    let mut model = Model::default();

    let bulk = traced(t, "workload.bulk_load", || generator.bulk_load());
    if let Some(done) = phases.serve(&mut probe, Phase::Closed(bulk, shape.clients)) {
        done.iter().for_each(|c| model.ack(&c.request.op));
    }
    probe.reset_measurements();
    let work_before = probe.inner().work();
    let counts_before = probe.counts();
    let setup_attempted = phases.attempted;
    let setup_failed = phases.failed;
    host.add(started);
    (episode.setup_s, episode.setup_ref_s) = host.take();

    let mut measured: Vec<Completion> = Vec::new();
    traced(t, "bench.measure", || {
        for round in 0..=shape.rounds {
            let step = Instant::now();
            let ops = if round < shape.rounds {
                traced(t, "workload.overwrite_round", || {
                    generator.overwrite_round()
                })
            } else {
                traced(t, "workload.read_all", || generator.read_all())
            };
            if let Some(done) = phases.serve(&mut probe, Phase::Closed(ops, shape.clients)) {
                measured.extend(done);
            }
            host.add(step);
        }
    });
    (episode.measure_s, episode.measure_ref_s) = host.take();
    episode.reference_s = host.mean_pass_s();

    let checking = Instant::now();
    let outcome = &mut episode.outcome;
    outcome.ops = phases.attempted - setup_attempted;
    outcome.failed = phases.failed - setup_failed;
    outcome.frag_per_object = probe.fragmentation().fragments_per_object;
    latency_outcome(&measured, outcome);
    episode.store = Some(store_layer(
        &probe,
        work_before,
        counts_before,
        written_payload(&measured),
    ));
    walk_completions(&mut model, &measured, &mut episode.failures);
    phases.unsure.iter().for_each(|op| model.unsure(op));
    check_store(sub.tag(), &probe, &model, &|_| true, &mut episode.failures);
    finish(&mut episode, &phases);
    episode.check_s = checking.elapsed().as_secs_f64();
    episode.spans = tracer.map(|t| t.spans()).unwrap_or_default();
    episode
}

/// Closes the op accounting: completions plus failures must equal the ops
/// submitted.
fn finish(episode: &mut Episode, phases: &Phases<'_>) {
    episode.attempted = phases.attempted;
    episode.failed = phases.failed;
    if phases.completed + phases.failed != phases.attempted {
        episode.failures.push(format!(
            "{} completions + {} failures != {} ops submitted",
            phases.completed, phases.failed, phases.attempted
        ));
    }
    if let Some(reason) = &phases.aborted {
        eprintln!("{}: run aborted at {reason}", episode.sub.tag());
    }
}

/// Runs one fleet episode on substrate `S`.
pub fn fleet<S: Substrate>(sub: Sub, shape: &FleetShape, seed: u64, trace: bool) -> Episode {
    let tracer = trace.then(Tracer::new);
    let t = tracer.as_deref();
    let config = shape.config(seed);
    let mut episode = Episode::new(sub);
    let workers = config
        .fleet_parallelism
        .resolved()
        .workers(shape.shards as usize);
    let mut host = HostTimer::new(workers);
    let mut step = Instant::now();
    let policy = RouterPolicy::ConsistentHash {
        vnodes: shape.vnodes,
    };
    let mut store = match ShardedStore::new(sub.kind(), &config, shape.shards, policy) {
        Ok(store) => store,
        Err(err) => {
            episode
                .failures
                .push(format!("building the fleet failed: {err}"));
            return episode;
        }
    };
    let mut generator = WorkloadGenerator::new(config.workload());
    let mut phases = Phases::new(t);
    let mut model = Model::default();
    // The phases as each shard saw them, for the traced shard-0 replay.
    let mut replay: Vec<Phase> = Vec::new();

    let bulk = traced(t, "workload.bulk_load", || generator.bulk_load());
    let mut setup = vec![bulk];
    for _ in 0..shape.pre_age_rounds {
        setup.push(traced(t, "workload.overwrite_round", || {
            generator.overwrite_round()
        }));
    }
    for ops in setup {
        if trace {
            replay.push(Phase::Closed(ops.clone(), 1));
        }
        if phases
            .run("shard.load", &ops, || store.load(ops.clone()))
            .is_some()
        {
            ops.iter().for_each(|op| model.ack(op));
        }
        host.add(step);
        step = Instant::now();
    }
    store.reset_measurements();
    let fleet_maint = |store: &ShardedStore| {
        maint_totals((0..store.shard_count() as usize).map(|i| store.shard(i)))
    };
    let maint_before = fleet_maint(&store);
    let setup_attempted = phases.attempted;
    let setup_failed = phases.failed;
    host.add(step);
    (episode.setup_s, episode.setup_ref_s) = host.take();

    let rate = shape.rates[sub.index()];
    let writes = (shape.ops as f64 * shape.write_fraction).round() as usize;
    // The arrivals draw from their own stream, derived from the workload seed.
    let load = MixedOpenLoop::from_total(rate, shape.write_fraction, seed ^ 0x9e37_79b9_7f4a_7c15);
    let measuring = Instant::now();
    let mut schedule_copy: Vec<StoreRequest> = Vec::new();
    let measured: Vec<Completion> = traced(t, "bench.measure", || {
        let reads = traced(t, "workload.read_sample", || {
            generator.read_sample(shape.ops - writes)
        });
        let writes = traced(t, "workload.safe_write_sample", || {
            generator.safe_write_sample(writes)
        });
        let schedule = traced(t, "workload.schedule", || {
            load.schedule(SimDuration::ZERO, reads, writes)
        });
        let schedule = match schedule {
            Ok(schedule) => schedule,
            Err(err) => {
                episode
                    .failures
                    .push(format!("building the schedule failed: {err}"));
                Vec::new()
            }
        };
        if trace {
            schedule_copy = schedule.clone();
        }
        let ops: Vec<WorkloadOp> = schedule.iter().map(|r| r.op).collect();
        phases
            .run("shard.run_schedule", &ops, || store.run_schedule(schedule))
            .unwrap_or_default()
    });
    host.add(measuring);
    (episode.measure_s, episode.measure_ref_s) = host.take();
    episode.reference_s = host.mean_pass_s();

    let checking = Instant::now();
    let owner: HashMap<ObjectKey, u32> = model
        .entries()
        .map(|(key, _)| key)
        .chain(model.doubts().map(|(key, _)| key))
        .filter_map(|key| store.locate(key).map(|shard| (key, shard)))
        .collect();
    let outcome = &mut episode.outcome;
    outcome.ops = phases.attempted - setup_attempted;
    outcome.failed = phases.failed - setup_failed;
    outcome.frag_per_object = store.fragmentation().fragments_per_object;
    latency_outcome(&measured, outcome);
    let maint_after = fleet_maint(&store);
    outcome.maint_ticks = maint_after.0 - maint_before.0;
    outcome.maint_background_s = maint_after.1 - maint_before.1;
    outcome.maint_bytes = maint_after.2 - maint_before.2;
    let counts: Vec<f64> = (0..store.shard_count() as usize)
        .map(|i| store.shard(i).object_count() as f64)
        .collect();
    let max = counts.iter().cloned().fold(0.0, f64::max);
    outcome.shard_imbalance = ratio(max, counts.iter().sum::<f64>() / counts.len() as f64);
    outcome.shard_p99_skew = p99_skew(&measured, &owner, store.shard_count());

    walk_completions(&mut model, &measured, &mut episode.failures);
    phases.unsure.iter().for_each(|op| model.unsure(op));
    if owner.len() != model.entries().count() + model.doubts().count() {
        episode
            .failures
            .push("some acknowledged keys have no shard in the directory".into());
    }
    for shard in 0..store.shard_count() {
        let label = format!("{} shard {shard}", sub.tag());
        let owns = |key: ObjectKey| owner.get(&key) == Some(&shard);
        check_store(
            &label,
            store.shard(shard as usize),
            &model,
            &owns,
            &mut episode.failures,
        );
    }
    finish(&mut episode, &phases);
    episode.check_s = checking.elapsed().as_secs_f64();

    if let Some(tracer) = &tracer {
        traced(t, "shard.route", || {
            let router = store.router();
            for request in &schedule_copy {
                let (key, size) = match request.op {
                    WorkloadOp::Put { key, size } | WorkloadOp::SafeWrite { key, size } => {
                        (key, size)
                    }
                    WorkloadOp::Get { key } | WorkloadOp::Delete { key } => (key, 0),
                };
                std::hint::black_box(router.route(std::hint::black_box(key), size));
            }
        });
        episode.route_calls = schedule_copy.len() as u64;
        let mut per_shard = config.clone();
        per_shard.volume_bytes = config.volume_bytes / u64::from(shape.shards);
        let on_shard0 = |key: ObjectKey| owner.get(&key) == Some(&0);
        let expected: Vec<Completion> = measured
            .iter()
            .filter(|c| on_shard0(key_of(&c.request.op)))
            .cloned()
            .collect();
        traced(t, "bench.replay", || {
            replay.push(Phase::Schedule(schedule_copy));
            let phases: Vec<Phase> = replay
                .into_iter()
                .map(|phase| match phase {
                    Phase::Closed(ops, clients) => Phase::Closed(
                        ops.into_iter().filter(|op| on_shard0(key_of(op))).collect(),
                        clients,
                    ),
                    Phase::Schedule(requests) => Phase::Schedule(
                        requests
                            .into_iter()
                            .filter(|r| on_shard0(key_of(&r.op)))
                            .collect(),
                    ),
                })
                .collect();
            match replay_shard::<S>(&per_shard, phases, Arc::clone(tracer)) {
                Ok((completions, layer)) => {
                    if completions != expected {
                        episode.failures.push(format!(
                            "{}: the traced replay of shard 0 diverged from the fleet",
                            sub.tag()
                        ));
                    }
                    episode.store = Some(layer);
                }
                Err(err) => episode
                    .failures
                    .push(format!("{}: replaying shard 0 failed: {err}", sub.tag())),
            }
        });
        episode.spans = tracer.spans();
    }
    episode
}

fn key_of(op: &WorkloadOp) -> ObjectKey {
    match *op {
        WorkloadOp::Put { key, .. }
        | WorkloadOp::SafeWrite { key, .. }
        | WorkloadOp::Get { key }
        | WorkloadOp::Delete { key } => key,
    }
}

/// Max ÷ median of per-shard p99 latency.
fn p99_skew(completions: &[Completion], owner: &HashMap<ObjectKey, u32>, shards: u32) -> f64 {
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); shards as usize];
    for completion in completions {
        if let Some(&shard) = owner.get(&key_of(&completion.request.op)) {
            per_shard[shard as usize].push(completion.latency().as_nanos());
        }
    }
    let mut p99s: Vec<u64> = per_shard
        .into_iter()
        .filter(|latencies| !latencies.is_empty())
        .map(|mut latencies| {
            latencies.sort_unstable();
            nearest_rank(&latencies, 0.99)
        })
        .collect();
    p99s.sort_unstable();
    let max = p99s.last().copied().unwrap_or(0) as f64;
    ratio(max, nearest_rank(&p99s, 0.5) as f64)
}

/// Replays one shard's phases on a decorated copy of that shard, traced:
/// the fleet builds its stores internally, so this is how the store and
/// server layers of the fleet are seen from outside.  Returns the measured
/// (last) phase's completions and the store-boundary counters over it.
fn replay_shard<S: Substrate>(
    config: &ExperimentConfig,
    mut phases: Vec<Phase>,
    tracer: Arc<Tracer>,
) -> Result<(Vec<Completion>, StoreLayer), StoreError> {
    let mut probe = Probe::new(S::build(config)?, Some(Arc::clone(&tracer)));
    let t = Some(&*tracer);
    let measured_phase = phases.pop().unwrap_or(Phase::Schedule(Vec::new()));
    for phase in phases {
        serve(&mut probe, phase)?;
    }
    probe.reset_measurements();
    let work_before = probe.inner().work();
    let counts_before = probe.counts();
    let completions = traced(t, "bench.measure", || {
        traced(t, measured_phase.server_span(), || {
            serve(&mut probe, measured_phase)
        })
    })?;
    let layer = store_layer(
        &probe,
        work_before,
        counts_before,
        written_payload(&completions),
    );
    Ok((completions, layer))
}
