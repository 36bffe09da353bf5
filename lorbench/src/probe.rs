//! Outside-in instrumentation: an in-memory span recorder and a decorator
//! that implements [`ObjectStore`] by forwarding every call to the real
//! store.
//!
//! The decorator always counts acknowledged and failed operations (two
//! integer adds per call); only when a [`Tracer`] is attached does it read
//! the host clock and keep one span per call.  It never alters an argument
//! or a result, so a run through it is bit-identical to a run without it —
//! the transparency check in `episode` and the crate tests pin that.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use lor_core::lor_alloc::{BandOccupancy, FragmentationSummary, FreeSpaceReport};
use lor_core::lor_disksim::{ByteRun, SimDuration};
use lor_core::lor_maint::{MaintIo, MaintenanceConfig, MaintenanceStats};
use lor_core::lor_obs::Obs;
use lor_core::{ObjectStore, OpReceipt, StoreError, StoreKind};

/// Parent index of a span opened outside every other span.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `store.get` or `server.run_schedule`.
    pub name: &'static str,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Request identifier: the object key's number for store calls (the
    /// first key of a batch), zero for phase spans.
    pub request: u64,
    /// Operations the call carried (batch length for a batched write).
    pub items: u32,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Buffer {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// In-memory span recorder shared by the episode runner (phase spans) and
/// the store decorator (call spans).  Spans nest by a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    buffer: Mutex<Buffer>,
}

impl Tracer {
    /// A fresh recorder whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            buffer: Mutex::new(Buffer::default()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Buffer> {
        self.buffer
            .lock()
            .expect("the span buffer is only poisoned after a panic")
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn begin(&self, name: &'static str) -> u32 {
        let start_ns = self.offset_ns(Instant::now());
        let mut buffer = self.lock();
        let parent = buffer.open.last().copied().unwrap_or(ROOT);
        let index = buffer.spans.len() as u32;
        buffer.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: 0,
            items: 0,
        });
        buffer.open.push(index);
        index
    }

    /// Closes the span `index`, which must be the innermost open one.
    pub fn end(&self, index: u32) {
        let end_ns = self.offset_ns(Instant::now());
        let mut buffer = self.lock();
        buffer.spans[index as usize].end_ns = end_ns;
        let closed = buffer.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close innermost first");
    }

    /// Records a finished call that started at `start`.
    fn leaf(&self, name: &'static str, start: Instant, request: u64, items: u32) {
        let end_ns = self.offset_ns(Instant::now());
        let start_ns = self.offset_ns(start);
        let mut buffer = self.lock();
        let parent = buffer.open.last().copied().unwrap_or(ROOT);
        buffer.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            items,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Runs `f` inside a span named `name` when a tracer is attached.
pub fn traced<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => {
            let index = tracer.begin(name);
            let out = f();
            tracer.end(index);
            out
        }
        None => f(),
    }
}

/// The number in a canonical `object-NNNNNNNN` key, or `u64::MAX`.
fn key_number(key: &str) -> u64 {
    key.rsplit('-')
        .next()
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(u64::MAX)
}

/// Operation tallies kept by the decorator whether or not it traces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Operations whose call returned `Ok` (each batch item counts).
    pub acked_ops: u64,
    /// Operations whose call returned `Err`.
    pub failed_ops: u64,
    /// `safe_write_batch` calls.
    pub batches: u64,
    /// Safe writes carried by those calls.
    pub batch_items: u64,
    /// `maintenance_slice` calls.
    pub slices: u64,
}

/// The store decorator.
#[derive(Debug)]
pub struct Probe<S> {
    inner: S,
    tracer: Option<Arc<Tracer>>,
    counts: ProbeCounts,
}

impl<S: ObjectStore> Probe<S> {
    /// Wraps `inner`; spans are kept only when `tracer` is given.
    pub fn new(inner: S, tracer: Option<Arc<Tracer>>) -> Self {
        Probe {
            inner,
            tracer,
            counts: ProbeCounts::default(),
        }
    }

    /// The wrapped store, for its own counters.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Tallies since construction.
    pub fn counts(&self) -> ProbeCounts {
        self.counts
    }

    fn call<T>(
        &mut self,
        name: &'static str,
        key: &str,
        items: u64,
        f: impl FnOnce(&mut S) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let start = self.tracer.is_some().then(Instant::now);
        let out = f(&mut self.inner);
        match out {
            Ok(_) => self.counts.acked_ops += items,
            Err(_) => self.counts.failed_ops += items,
        }
        if let (Some(tracer), Some(start)) = (&self.tracer, start) {
            tracer.leaf(name, start, key_number(key), items as u32);
        }
        out
    }
}

impl<S: ObjectStore> ObjectStore for Probe<S> {
    fn kind(&self) -> StoreKind {
        self.inner.kind()
    }

    fn put(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.call("store.put", key, 1, |s| s.put(key, size_bytes))
    }

    fn get(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        self.call("store.get", key, 1, |s| s.get(key))
    }

    fn safe_write(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.call("store.safe_write", key, 1, |s| {
            s.safe_write(key, size_bytes)
        })
    }

    fn safe_write_batch(&mut self, items: &[(String, u64)]) -> Result<Vec<OpReceipt>, StoreError> {
        self.counts.batches += 1;
        self.counts.batch_items += items.len() as u64;
        let first = items.first().map_or("", |(key, _)| key.as_str());
        self.call("store.safe_write_batch", first, items.len() as u64, |s| {
            s.safe_write_batch(items)
        })
    }

    fn delete(&mut self, key: &str) -> Result<OpReceipt, StoreError> {
        self.call("store.delete", key, 1, |s| s.delete(key))
    }

    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }

    fn object_count(&self) -> usize {
        self.inner.object_count()
    }

    fn keys(&self) -> Vec<String> {
        self.inner.keys()
    }

    fn size_of(&self, key: &str) -> Result<u64, StoreError> {
        self.inner.size_of(key)
    }

    fn layout_of(&self, key: &str) -> Result<Vec<ByteRun>, StoreError> {
        self.inner.layout_of(key)
    }

    fn fragmentation(&self) -> FragmentationSummary {
        self.inner.fragmentation()
    }

    fn data_capacity_bytes(&self) -> u64 {
        self.inner.data_capacity_bytes()
    }

    fn live_bytes(&self) -> u64 {
        self.inner.live_bytes()
    }

    fn elapsed(&self) -> SimDuration {
        self.inner.elapsed()
    }

    fn reset_measurements(&mut self) {
        self.inner.reset_measurements()
    }

    fn maintenance(&mut self) -> Result<u64, StoreError> {
        self.call("store.maintenance", "", 1, |s| s.maintenance())
    }

    fn write_request_size(&self) -> u64 {
        self.inner.write_request_size()
    }

    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        self.inner.maintenance_stats()
    }

    fn maintenance_config(&self) -> Option<MaintenanceConfig> {
        self.inner.maintenance_config()
    }

    fn maintenance_slice(&mut self, budget_bytes: u64, now: SimDuration) -> MaintIo {
        self.counts.slices += 1;
        let start = self.tracer.is_some().then(Instant::now);
        let io = self.inner.maintenance_slice(budget_bytes, now);
        if let (Some(tracer), Some(start)) = (&self.tracer, start) {
            tracer.leaf("store.maintenance_slice", start, 0, 1);
        }
        io
    }

    fn migrate_in(&mut self, key: &str, size_bytes: u64) -> Result<OpReceipt, StoreError> {
        self.call("store.migrate_in", key, 1, |s| {
            s.migrate_in(key, size_bytes)
        })
    }

    fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs)
    }

    fn free_space_report(&self) -> Option<FreeSpaceReport> {
        self.inner.free_space_report()
    }

    fn band_occupancy(&self) -> Option<BandOccupancy> {
        self.inner.band_occupancy()
    }
}
