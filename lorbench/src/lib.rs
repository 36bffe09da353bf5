//! # lorbench — one benchmark for the simulator and the simulated repository
//!
//! Each named workload runs on all three substrates (database, filesystem,
//! segment log).  The benchmark measures two programs at once:
//!
//! * the **simulator** — host throughput of the measured phase, set-up
//!   time and peak memory;
//! * the **simulated repository** — fragments per object, read MB/s and
//!   p99 latency, which are deterministic for a seed.
//!
//! It checks every output against its own key → size model ([`check`]),
//! and a separate traced run times each layer from outside ([`probe`]):
//! a decorator over the `ObjectStore` boundary, spans around the workload
//! generator, the request server and the fleet.
//!
//! Host times that end-to-end metrics report are scaled to a reference host
//! by a fixed reference task timed between pieces of work ([`calib`]), so
//! that neighbours on a shared host move them less than code changes do.

pub mod calib;
pub mod check;
pub mod episode;
pub mod probe;
pub mod run;
