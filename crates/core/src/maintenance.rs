//! Binding the `lor-maint` background scheduler to the store shell.
//!
//! The scheduler is substrate-agnostic: it budgets bytes and accumulates
//! time.  This module supplies the one [`MaintTarget`] adapter, generic over
//! the shell's [`Substrate`], that forwards the scheduler's three duties to
//! the substrate's native mechanisms, prices them with the store's own disk
//! geometry ([`Costs`]) and backs an idle defragmentation duty off:
//!
//! | duty            | filesystem (`FsSubstrate`)          | database (`DbSubstrate`)            | segment log (`LogSubstrate`)          |
//! |-----------------|-------------------------------------|-------------------------------------|---------------------------------------|
//! | checkpoint      | drain the pending-free queue        | force the log (bulk-logged mode)    | force the segment-usage table         |
//! | ghost cleanup   | (folded into the checkpoint)        | reclaim ghost pages / empty extents | none — cleaning is the only reclamation |
//! | defragmentation | `Defragmenter::defragment_step`     | `Database::compact_step`            | `SegmentLog::clean_step`              |

use lor_maint::{MaintIo, MaintSubstrate, MaintTarget, MaintenanceScheduler};

use crate::shell::{Costs, Substrate};

/// Bytes charged per metadata I/O when costing maintenance passes (one small
/// random read-modify-write of a bitmap / PFS / log page).
pub(crate) const METADATA_IO_BYTES: u64 = 4096;

/// Pages (or clusters) whose allocation state one metadata page covers, so a
/// cleanup pass over `n` units costs `1 + n / UNITS_PER_METADATA_IO` I/Os.
pub(crate) const UNITS_PER_METADATA_IO: u64 = 512;

/// Ticks the defragmentation task sleeps after a pass that found nothing to
/// move, so a converged store is not re-scanned (an O(objects) walk) on every
/// single tick.
const DEFRAG_BACKOFF_TICKS: u64 = 15;

/// A scheduler plus the per-store state its tasks need between ticks.
#[derive(Debug)]
pub(crate) struct MaintenanceState {
    pub scheduler: MaintenanceScheduler,
    /// Remaining ticks of the post-convergence defragmentation back-off.
    pub defrag_backoff: u64,
}

impl MaintenanceState {
    /// Runs `drive` (the store-attached or the server-driven drive) on the
    /// scheduler with `substrate` as its target.
    pub fn drive<S: Substrate, R>(
        &mut self,
        substrate: &mut S,
        costs: Costs<'_>,
        drive: impl FnOnce(&mut MaintenanceScheduler, &mut dyn MaintTarget) -> R,
    ) -> R {
        let mut target = Target {
            substrate,
            costs,
            defrag_backoff: &mut self.defrag_backoff,
        };
        drive(&mut self.scheduler, &mut target)
    }
}

/// [`MaintTarget`] over any substrate.
struct Target<'a, S> {
    substrate: &'a mut S,
    costs: Costs<'a>,
    defrag_backoff: &'a mut u64,
}

impl<S: Substrate> MaintTarget for Target<'_, S> {
    fn substrate(&self) -> MaintSubstrate {
        S::MAINT_SUBSTRATE
    }

    fn placement(&self) -> lor_alloc::PlacementPolicy {
        self.substrate.placement()
    }

    fn reclaimable_bytes(&self) -> u64 {
        self.substrate.reclaimable_bytes()
    }

    fn fragments_per_object(&self) -> f64 {
        self.substrate.fragmentation().fragments_per_object
    }

    fn excess_fragments(&self) -> u64 {
        self.substrate.fragmentation().excess_fragments()
    }

    fn ghost_cleanup(&mut self, budget_bytes: u64) -> MaintIo {
        self.substrate.ghost_cleanup(budget_bytes, self.costs)
    }

    fn checkpoint(&mut self) -> MaintIo {
        self.substrate.checkpoint(self.costs)
    }

    fn defragment_step(&mut self, budget_bytes: u64) -> MaintIo {
        if *self.defrag_backoff > 0 {
            *self.defrag_backoff -= 1;
            return MaintIo::NONE;
        }
        match self.substrate.defragment_step(budget_bytes, self.costs) {
            Some(io) => io,
            None => {
                // The pass found nothing to move: the layout is as good as
                // the substrate can make it right now, so back off instead
                // of re-scanning every tick.
                *self.defrag_backoff = DEFRAG_BACKOFF_TICKS;
                MaintIo::NONE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db_store::DbSubstrate;
    use crate::fs_store::FsSubstrate;
    use crate::log_store::LogSubstrate;
    use crate::store::CostModel;
    use lor_disksim::{DiskConfig, SimDuration};
    use lor_fskit::VolumeConfig;

    const MB: u64 = 1 << 20;

    fn costs<'a>(disk: &'a DiskConfig, cost: &'a CostModel) -> Costs<'a> {
        Costs {
            disk,
            cost,
            write_request_size: 64 * 1024,
        }
    }

    fn target<'a, S>(
        substrate: &'a mut S,
        costs: Costs<'a>,
        backoff: &'a mut u64,
    ) -> Target<'a, S> {
        Target {
            substrate,
            costs,
            defrag_backoff: backoff,
        }
    }

    #[test]
    fn fs_target_checkpoint_drains_the_pending_queue() {
        let mut config = VolumeConfig::new(64 * MB);
        config.checkpoint_interval_ops = 0;
        let mut fs = FsSubstrate::open(config).unwrap();
        fs.volume.write_file("a", MB, 64 * 1024).unwrap();
        fs.volume.delete_by_name("a").unwrap();
        let disk = DiskConfig::seagate_400gb_2005().scaled(64 * MB);
        let cost = CostModel::default();
        let mut backoff = 0u64;
        let mut target = target(&mut fs, costs(&disk, &cost), &mut backoff);
        assert!(target.reclaimable_bytes() >= MB);
        let io = target.checkpoint();
        assert!(!io.is_none());
        assert_eq!(target.reclaimable_bytes(), 0);
        assert!(target.checkpoint().is_none(), "nothing left to drain");
    }

    #[test]
    fn substrate_declarations_match_each_engines_reuse_behaviour() {
        let disk = DiskConfig::seagate_400gb_2005().scaled(64 * MB);
        let cost = CostModel::default();
        let mut backoff = 0u64;
        let mut fs = FsSubstrate::open(VolumeConfig::new(64 * MB)).unwrap();
        let fs = target(&mut fs, costs(&disk, &cost), &mut backoff);
        assert_eq!(fs.substrate(), MaintSubstrate::DeferredReuse);

        let mut db = DbSubstrate::open(lor_blobkit::EngineConfig::new(64 * MB)).unwrap();
        let db = target(&mut db, costs(&disk, &cost), &mut backoff);
        assert_eq!(db.substrate(), MaintSubstrate::EagerReuse);

        let mut log = LogSubstrate::open(lor_logstore::LogConfig::new(64 * MB)).unwrap();
        let log = target(&mut log, costs(&disk, &cost), &mut backoff);
        assert_eq!(log.substrate(), MaintSubstrate::LogStructured);
    }

    #[test]
    fn db_target_cleanup_and_compaction_report_io() {
        let mut engine_config = lor_blobkit::EngineConfig::new(64 * MB);
        engine_config.ghost_cleanup_interval_ops = 0;
        let mut db = DbSubstrate::open(engine_config).unwrap();
        for i in 0..16 {
            db.db.insert(&format!("o{i}"), MB).unwrap();
        }
        for round in 0..6 {
            for i in 0..16 {
                db.db
                    .update(&format!("o{}", (i * 5 + round) % 16), MB)
                    .unwrap();
            }
        }
        let disk = DiskConfig::seagate_400gb_2005().scaled(64 * MB);
        let cost = CostModel::default();
        let mut backoff = 0u64;
        let mut target = target(&mut db, costs(&disk, &cost), &mut backoff);
        assert!(target.reclaimable_bytes() > 0);
        // A one-I/O budget reclaims at most its metadata page's worth of
        // ghosts; repeated budgeted passes drain the rest.
        let before = target.reclaimable_bytes();
        let first = target.ghost_cleanup(METADATA_IO_BYTES);
        assert!(!first.is_none());
        let after = target.reclaimable_bytes();
        assert!(after < before);
        assert!(
            before - after <= 512 * 8192,
            "a one-I/O budget reclaims at most 512 pages"
        );
        while target.reclaimable_bytes() > 0 {
            assert!(!target.ghost_cleanup(1 << 20).is_none());
        }
        assert_eq!(target.reclaimable_bytes(), 0);
        assert!(!target.checkpoint().is_none(), "log force always costs");

        let before = target.fragments_per_object();
        assert!(before > 1.0, "fixture must be fragmented");
        let mut moved = MaintIo::NONE;
        for _ in 0..256 {
            let step = target.defragment_step(512 * 1024);
            if step.is_none() {
                break;
            }
            moved = moved.combined(&step);
        }
        assert!(moved.bytes > 0);
        assert!(moved.time > SimDuration::ZERO);
        assert!(target.fragments_per_object() < before);
    }

    #[test]
    fn log_target_cleans_and_reports_io() {
        let mut config = lor_logstore::LogConfig::new(64 * MB);
        config.segment_bytes = MB;
        let mut log = LogSubstrate::open(config).unwrap();
        // Two half-MB objects per segment, every other one deleted: every
        // sealed segment is half dead.
        for id in 0..16 {
            log.log.insert(id, MB / 2).unwrap();
        }
        for id in (0..16).step_by(2) {
            log.log.remove(id).unwrap();
        }
        let disk = DiskConfig::seagate_400gb_2005().scaled(64 * MB);
        let cost = CostModel::default();
        let mut backoff = 0u64;
        let mut target = target(&mut log, costs(&disk, &cost), &mut backoff);
        assert_eq!(target.substrate(), MaintSubstrate::LogStructured);
        assert!(target.reclaimable_bytes() > 0);
        assert!(
            target.ghost_cleanup(1 << 20).is_none(),
            "cleaning is the only reclamation"
        );
        assert!(!target.checkpoint().is_none(), "table force always costs");
        let step = target.defragment_step(4 * MB);
        assert!(!step.is_none());
        assert!(step.bytes > 0);
        while target.reclaimable_bytes() > 0 {
            if target.defragment_step(4 * MB).is_none() {
                break;
            }
        }
        assert_eq!(target.reclaimable_bytes(), 0);
        // A converged log backs the task off instead of re-scoring segments.
        assert!(target.defragment_step(4 * MB).is_none());
        assert!(*target.defrag_backoff > 0);
    }
}
