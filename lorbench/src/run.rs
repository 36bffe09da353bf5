//! One benchmark run: repeated untraced episodes per substrate, an optional
//! traced episode per substrate, the repeatability checks, and the metrics.

use std::fmt::Write as _;
use std::time::Instant;

use lor_core::{DbObjectStore, FsObjectStore, LogObjectStore};

use crate::episode::{aging, fleet, Episode, Shape, Sub, Substrate, Workload};
use crate::probe::{Span, ROOT};

/// Timed untraced episodes each substrate runs at least, so set-up time and
/// host throughput are medians of several.
pub const MIN_REPEATS: usize = 3;

/// Runs one episode of `workload` on `sub`.
pub fn episode(workload: &Workload, sub: Sub, seed: u64, trace: bool) -> Episode {
    fn on<S: Substrate>(shape: &Shape, sub: Sub, seed: u64, trace: bool) -> Episode {
        match shape {
            Shape::Aging(shape) => aging::<S>(sub, shape, seed, trace),
            Shape::Fleet(shape) => fleet::<S>(sub, shape, seed, trace),
        }
    }
    match sub {
        Sub::Db => on::<DbObjectStore>(&workload.shape, sub, seed, trace),
        Sub::Fs => on::<FsObjectStore>(&workload.shape, sub, seed, trace),
        Sub::Log => on::<LogObjectStore>(&workload.shape, sub, seed, trace),
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    /// Untraced episodes, in the order they ran.
    pub episodes: Vec<Episode>,
    /// One traced episode per substrate (traced runs only).
    pub traced: Vec<Episode>,
    /// Failed run-level checks (repeatability, trace transparency).
    pub failures: Vec<String>,
    /// Peak resident memory once every substrate has run one episode: the
    /// workload's own peak, before repeats can only add heap fragmentation.
    pub peak_rss_mb: f64,
}

/// Runs rounds of untraced episodes, one per substrate each, until
/// `seconds` have passed and every substrate has a warm-up
/// episode plus [`MIN_REPEATS`] timed ones; then, with `trace`, one traced
/// episode each.  Every substrate thus gets as many repeats as the slowest,
/// spread evenly over the run.  The warm-up episode (cold heap, cold CPU)
/// is checked like the others but left out of the host-time estimates.
pub fn run(workload: &Workload, seed: u64, seconds: f64, trace: bool) -> Run {
    let started = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut rounds = 0;
    let mut peak_rss_mb = 0.0;
    while started.elapsed().as_secs_f64() < seconds || rounds < MIN_REPEATS + 1 {
        for sub in Sub::ALL {
            let episode = episode(workload, sub, seed, false);
            eprintln!(
                "episode {:<3} set-up {:.4} s, measured {:.4} s, checks {:.4} s, reference pass {:.2} ms",
                sub.tag(),
                episode.setup_s,
                episode.measure_s,
                episode.check_s,
                1e3 * episode.reference_s
            );
            episodes.push(episode);
        }
        rounds += 1;
        if peak_rss_mb == 0.0 {
            peak_rss_mb = peak_rss();
        }
    }
    let traced: Vec<Episode> = if trace {
        Sub::ALL
            .into_iter()
            .map(|sub| episode(workload, sub, seed, true))
            .collect()
    } else {
        Vec::new()
    };

    let mut failures = Vec::new();
    for sub in Sub::ALL {
        let mut runs = episodes.iter().filter(|e| e.sub == sub);
        let Some(first) = runs.next() else { continue };
        if runs.any(|e| !e.same_results(first)) {
            failures.push(format!(
                "{}: repeated episodes of one seed gave different simulated results",
                sub.tag()
            ));
        }
        if let Some(t) = traced.iter().find(|e| e.sub == sub) {
            if !t.same_results(first) {
                failures.push(format!(
                    "{}: the traced episode's simulated results differ from the untraced ones",
                    sub.tag()
                ));
            }
        }
    }
    Run {
        episodes,
        traced,
        failures,
        peak_rss_mb,
    }
}

impl Run {
    fn of(&self, sub: Sub) -> impl Iterator<Item = &Episode> {
        self.episodes.iter().filter(move |e| e.sub == sub)
    }

    /// Median over the timed episodes, each substrate's warm-up skipped.
    /// Every episode of a substrate does bit-identical simulated work, so
    /// the differences between their host times are host noise, which the
    /// scaled times (`*_ref_s`) mostly take out.
    fn median_of(&self, sub: Sub, f: impl Fn(&Episode) -> f64) -> f64 {
        median(self.of(sub).skip(1).map(f).collect())
    }

    fn first(&self, sub: Sub) -> Option<&Episode> {
        self.of(sub).next()
    }

    /// Latency samples behind `p99_ms.<tag>`.
    pub fn end_to_end_samples(&self, tag: &str) -> Option<u64> {
        let sub = Sub::ALL.into_iter().find(|sub| sub.tag() == tag)?;
        self.first(sub).map(|e| e.outcome.samples)
    }

    fn traced(&self, sub: Sub) -> Option<&Episode> {
        self.traced.iter().find(|e| e.sub == sub)
    }

    /// `true` when every check of every episode and of the run passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
            && self
                .episodes
                .iter()
                .chain(&self.traced)
                .all(|e| e.failures.is_empty())
    }

    /// Operations submitted and failed over every episode of the run.
    pub fn tally(&self) -> (u64, u64) {
        self.episodes
            .iter()
            .chain(&self.traced)
            .fold((0, 0), |(a, f), e| (a + e.attempted, f + e.failed))
    }

    /// Pass/fail verdict lines, one per substrate, then the run's own.
    pub fn verdicts(&self, workload: &str) -> String {
        let mut out = String::new();
        for sub in Sub::ALL {
            let episodes: Vec<&Episode> = self.of(sub).chain(self.traced(sub)).collect();
            let failures: Vec<&String> = episodes.iter().flat_map(|e| &e.failures).collect();
            let verdict = if failures.is_empty() { "PASS" } else { "FAIL" };
            let (attempted, failed) = episodes
                .iter()
                .fold((0, 0), |(a, f), e| (a + e.attempted, f + e.failed));
            let _ = writeln!(
                out,
                "check {workload}/{}: {verdict} ({} episodes, {attempted} ops, {failed} failed)",
                sub.tag(),
                episodes.len()
            );
            for failure in failures.iter().take(5) {
                let _ = writeln!(out, "  {failure}");
            }
        }
        let verdict = if self.failures.is_empty() {
            "PASS"
        } else {
            "FAIL"
        };
        let _ = writeln!(out, "check {workload}/repeatability: {verdict}");
        for failure in &self.failures {
            let _ = writeln!(out, "  {failure}");
        }
        out
    }

    /// The end-to-end metrics (untraced episodes).
    pub fn end_to_end(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for sub in Sub::ALL {
            out.push(Metric::new(
                format!("ops_per_s.{}", sub.tag()),
                self.first(sub).map_or(0.0, |e| {
                    (e.outcome.ops - e.outcome.failed) as f64
                        / self.median_of(sub, |e| e.measure_ref_s).max(1e-9)
                }),
                "ops/s",
            ));
        }
        let setup: f64 = Sub::ALL
            .into_iter()
            .map(|sub| self.median_of(sub, |e| e.setup_ref_s))
            .sum();
        out.push(Metric::new("setup_s".into(), setup, "s"));
        out.push(Metric::new("peak_rss_mb".into(), self.peak_rss_mb, "MB"));
        for (name, unit, value) in [
            (
                "frag_per_object",
                "frag/obj",
                (|e: &Episode| e.outcome.frag_per_object) as fn(&Episode) -> f64,
            ),
            ("read_mb_s", "MB/s", |e| e.outcome.read_mb_s),
            ("p99_ms", "ms", |e| e.outcome.p99_ms),
        ] {
            for sub in Sub::ALL {
                out.push(Metric::new(
                    format!("{name}.{}", sub.tag()),
                    self.first(sub).map_or(0.0, value),
                    unit,
                ));
            }
        }
        out
    }

    /// The per-layer metrics (traced episodes, plus untraced medians for
    /// the benchmark's own costs).
    pub fn per_layer(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        let layers: Vec<(Sub, Option<&Episode>, HostLayer)> = Sub::ALL
            .into_iter()
            .map(|sub| {
                let traced = self.traced(sub);
                let host = traced.map_or_else(HostLayer::default, |e| HostLayer::of(&e.spans));
                (sub, traced, host)
            })
            .collect();
        out.push(Metric::new(
            "workload.gen_s".into(),
            layers.iter().map(|(_, _, host)| host.gen_s).sum(),
            "s",
        ));
        let mut per_sub =
            |name: &str, unit: &'static str, f: &dyn Fn(&Episode, &HostLayer) -> f64| {
                for (sub, traced, host) in &layers {
                    out.push(Metric::new(
                        format!("{name}.{}", sub.tag()),
                        traced.map_or(0.0, |e| f(e, host)),
                        unit,
                    ));
                }
            };
        let store = |e: &Episode| e.store.clone().unwrap_or_default();
        per_sub("server.self_s", "s", &|_, h| h.server_self_s);
        per_sub("server.batch_mean", "writes", &|e, _| store(e).batch_mean);
        per_sub("server.p50_ms", "ms", &|e, _| e.outcome.p50_ms);
        per_sub("server.queue_ms", "ms", &|e, _| e.outcome.queue_ms);
        per_sub("server.maint_wait_ms", "ms", &|e, _| {
            e.outcome.maint_wait_ms
        });
        per_sub("server.backlog_ms", "ms", &|e, _| e.outcome.backlog_ms);
        per_sub("store.write_us", "us", &|_, h| h.write_us);
        per_sub("store.put_us", "us", &|_, h| h.put_us);
        per_sub("store.get_us", "us", &|_, h| h.get_us);
        per_sub("store.failed", "count", &|e, _| store(e).failed as f64);
        per_sub("alloc.free_runs", "count", &|e, _| {
            store(e).free_runs as f64
        });
        per_sub("alloc.ext_frag", "ratio", &|e, _| store(e).ext_frag);
        per_sub("disk.requests", "count", &|e, _| {
            store(e).disk_requests as f64
        });
        per_sub("disk.seek_s", "s", &|e, _| store(e).disk_seek_s);
        per_sub("disk.seq_ratio", "ratio", &|e, _| store(e).disk_seq_ratio);
        per_sub("disk.write_amp", "ratio", &|e, _| store(e).disk_write_amp);
        per_sub("maint.ticks", "count", &|e, _| e.outcome.maint_ticks as f64);
        per_sub("maint.slice_us", "us", &|_, h| h.slice_us);
        per_sub("maint.background_s", "s", &|e, _| {
            e.outcome.maint_background_s
        });
        per_sub("maint.bytes", "bytes", &|e, _| e.outcome.maint_bytes as f64);
        per_sub("shard.run_s", "s", &|_, h| h.shard_run_s);
        per_sub("shard.p99_skew", "ratio", &|e, _| e.outcome.shard_p99_skew);
        per_sub("p99_samples", "count", &|e, _| e.outcome.samples as f64);

        let traced = |sub: Sub| self.traced(sub).map(store).unwrap_or_default();
        let (db, fs) = (traced(Sub::Db), traced(Sub::Fs));
        out.push(Metric::new(
            "fs.alloc_events".into(),
            fs.work[0] as f64,
            "count",
        ));
        out.push(Metric::new(
            "fs.forced_checkpoints".into(),
            fs.work[1] as f64,
            "count",
        ));
        out.push(Metric::new(
            "db.pages_allocated".into(),
            db.work[0] as f64,
            "count",
        ));
        out.push(Metric::new(
            "db.forced_cleanups".into(),
            db.work[1] as f64,
            "count",
        ));
        out.push(Metric::new(
            "log.mean_utilization".into(),
            traced(Sub::Log).utilization,
            "ratio",
        ));
        let route_s: f64 = layers.iter().map(|(_, _, h)| h.route_s).sum();
        let route_calls: u64 = self.traced.iter().map(|e| e.route_calls).sum();
        out.push(Metric::new(
            "shard.route_us".into(),
            1e6 * route_s / (route_calls.max(1) as f64),
            "us",
        ));
        out.push(Metric::new(
            "shard.route_calls".into(),
            route_calls as f64,
            "count",
        ));
        out.push(Metric::new(
            "shard.imbalance".into(),
            self.traced(Sub::Db)
                .map_or(0.0, |e| e.outcome.shard_imbalance),
            "ratio",
        ));
        let check_s: f64 = Sub::ALL
            .into_iter()
            .map(|sub| self.median_of(sub, |e| e.check_s))
            .sum();
        out.push(Metric::new("check_s".into(), check_s, "s"));
        let traced_s: f64 = self.traced.iter().map(|e| e.measure_ref_s).sum();
        let untraced_s: f64 = Sub::ALL
            .into_iter()
            .filter(|sub| self.traced(*sub).is_some())
            .map(|sub| self.median_of(sub, |e| e.measure_ref_s))
            .sum();
        out.push(Metric::new(
            "trace_overhead".into(),
            if untraced_s > 0.0 {
                traced_s / untraced_s
            } else {
                0.0
            },
            "ratio",
        ));
        // The host's speed during the run; the per-layer host times above
        // are as measured, not scaled.
        out.push(Metric::new(
            "host.reference_ms".into(),
            1e3 * median(self.episodes.iter().map(|e| e.reference_s).collect()),
            "ms",
        ));
        out
    }

    /// Writes every traced episode's spans as tab-separated lines.
    pub fn write_spans(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(
            out,
            "substrate\tindex\tname\tstart_ns\tend_ns\tparent\trequest\titems"
        )?;
        for episode in &self.traced {
            for (index, span) in episode.spans.iter().enumerate() {
                let parent = if span.parent == ROOT {
                    -1
                } else {
                    i64::from(span.parent)
                };
                writeln!(
                    out,
                    "{}\t{index}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                    episode.sub.tag(),
                    span.name,
                    span.start_ns,
                    span.end_ns,
                    span.request,
                    span.items
                )?;
            }
        }
        Ok(())
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: String, value: f64, unit: &'static str) -> Self {
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name, value, unit }
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Host time per layer, from one traced episode's spans.  Phase totals
/// (generator, server self time, fleet run) cover the measured phase;
/// per-call means cover every call of their kind.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct HostLayer {
    /// Workload-generator seconds in the measured phase.
    pub gen_s: f64,
    /// Server seconds not spent inside store calls, measured phase.
    pub server_self_s: f64,
    /// Host µs per safe-written object.
    pub write_us: f64,
    /// Host µs per `put`.
    pub put_us: f64,
    /// Host µs per `get`.
    pub get_us: f64,
    /// Host µs per `maintenance_slice`.
    pub slice_us: f64,
    /// Seconds inside `ShardedStore::run_schedule`.
    pub shard_run_s: f64,
    /// Seconds of the separate router pass.
    pub route_s: f64,
}

impl HostLayer {
    /// Aggregates `spans`; a span's self time is its duration minus its
    /// children's.
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        let mut measured = vec![false; spans.len()];
        for (index, span) in spans.iter().enumerate() {
            if span.parent != ROOT {
                child_ns[span.parent as usize] += span.duration_ns();
                measured[index] = measured[span.parent as usize];
            }
            measured[index] |= span.name == "bench.measure";
        }
        let mut layer = HostLayer::default();
        let mut calls = [0u64; 4];
        let mut call_ns = [0u64; 4];
        for (index, span) in spans.iter().enumerate() {
            let secs = span.duration_ns() as f64 / 1e9;
            let slot = match span.name {
                "store.safe_write_batch" | "store.safe_write" => Some(0),
                "store.put" => Some(1),
                "store.get" => Some(2),
                "store.maintenance_slice" => Some(3),
                _ => None,
            };
            if let Some(slot) = slot {
                calls[slot] += u64::from(span.items);
                call_ns[slot] += span.duration_ns();
            }
            if span.name == "shard.route" {
                layer.route_s += secs;
            }
            if !measured[index] {
                continue;
            }
            if span.name.starts_with("workload.") {
                layer.gen_s += secs;
            } else if span.name.starts_with("server.") {
                layer.server_self_s +=
                    span.duration_ns().saturating_sub(child_ns[index]) as f64 / 1e9;
            } else if span.name == "shard.run_schedule" {
                layer.shard_run_s += secs;
            }
        }
        let us = |slot: usize| call_ns[slot] as f64 / 1e3 / calls[slot].max(1) as f64;
        layer.write_us = us(0);
        layer.put_us = us(1);
        layer.get_us = us(2);
        layer.slice_us = us(3);
        layer
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 where the
/// platform does not report it.
fn peak_rss() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, metric) in metrics.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    out.push_str("}}");
    out
}
