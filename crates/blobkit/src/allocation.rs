//! GAM/IAM-style space management for the data file, on the shared
//! `lor-alloc` mechanism/policy split.
//!
//! SQL Server tracks which 64 KB extents of a data file are allocated (the
//! Global Allocation Map) and which extents belong to each allocation unit
//! (the Index Allocation Map chain).  The reproduction keeps the same
//! two-level structure because it is what produces the database's
//! characteristic fragmentation behaviour:
//!
//! * space is reused **lowest page first** (first fit over the page space), so
//!   pages freed by deleted BLOBs anywhere in the file are filled before the
//!   file's tail is touched — which is what gradually interleaves objects as
//!   the store ages;
//! * an object being streamed in keeps **appending to the page that follows
//!   its previous one** whenever that page is free (or its extent can be
//!   assigned), so a bulk load onto a clean file lays every object out
//!   contiguously;
//! * pages freed inside an extent are only reusable by the same allocation
//!   unit until the whole extent empties, at which point the extent returns to
//!   the GAM.
//!
//! Both levels are free-space bookkeeping, so both sit on
//! [`lor_alloc::RunIndexMap`] — the same mechanism the filesystem volume's
//! allocators use — rather than on private sets: the [`Gam`] is a run map at
//! extent granularity (free = unassigned), and each [`AllocationUnit`] holds a
//! run map at page granularity in which exactly the free pages *inside the
//! unit's assigned extents* are free.  Where a run must be *chosen* (a fresh
//! extent from the GAM, the start of a new page run inside the unit) the
//! choice is delegated to the shared [`FitPolicy`] implementation, selected
//! through [`AllocationPolicy`]: the paper-faithful native behaviour is
//! [`FitPolicy::FirstFit`] — lowest first — at both granularities, and the
//! ablation benches can swap in any other fit without touching the mechanism.
//!
//! Space moves in runs, never a page at a time: allocations return page runs
//! ([`Extent`]s in page units, coalesced, in logical order), consecutive
//! unassigned extents join a unit in one GAM reservation, and freeing a run
//! hands every extent it empties back to the GAM as one span.  Each of these
//! leaves the maps, the IAM chain and the fit cursors in exactly the state
//! the page-at-a-time rules the module describes would.

use lor_alloc::{
    AllocationPolicy, BitmapMap, Extent, FitPicker, FitPolicy, FreeSpace, PlacementConsumer,
    PlacementPolicy, RunIndexMap,
};
use serde::{Deserialize, Serialize};

use crate::error::DbError;
use crate::page::{coalesce, extent_pages, ExtentId, PageId, PageKind, PAGES_PER_EXTENT};

/// The fit the database's native policy applies: SQL Server reuses the lowest
/// free page / extent first.
const NATIVE_FIT: FitPolicy = FitPolicy::FirstFit;

/// The Global Allocation Map: which extents of the data file are unassigned.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gam {
    /// Extent-granular free-space map; free means unassigned.
    map: RunIndexMap,
    /// Shared policy/next-fit-cursor implementation, in extent units.
    picker: FitPicker,
}

impl Gam {
    /// Creates a GAM over a data file of `total_extents` extents, all free,
    /// applying the native lowest-first policy.
    pub fn new(total_extents: u64) -> Self {
        Self::with_policy(total_extents, AllocationPolicy::Native)
    }

    /// Creates a GAM with an explicit allocation policy and unrestricted
    /// placement.
    pub fn with_policy(total_extents: u64, policy: AllocationPolicy) -> Self {
        Self::with_placement(total_extents, policy, PlacementPolicy::Unrestricted)
    }

    /// Creates a GAM with explicit allocation and placement policies.
    pub fn with_placement(
        total_extents: u64,
        policy: AllocationPolicy,
        placement: PlacementPolicy,
    ) -> Self {
        Gam {
            map: RunIndexMap::new_free(total_extents),
            picker: FitPicker::with_placement(policy, NATIVE_FIT, placement),
        }
    }

    /// Total extents in the data file.
    pub fn total_extents(&self) -> u64 {
        self.map.total_clusters()
    }

    /// Unassigned extents remaining.
    pub fn free_extent_count(&self) -> u64 {
        self.map.free_clusters()
    }

    /// The policy in effect.
    pub fn policy(&self) -> AllocationPolicy {
        self.picker.policy()
    }

    /// Read-only access to the extent-granular free-space map.
    pub fn free_space(&self) -> &RunIndexMap {
        &self.map
    }

    /// Assigns the policy-chosen free extent (for the native policy: the
    /// lowest-numbered one, i.e. first fit at extent granularity).
    pub fn assign_next(&mut self) -> Option<ExtentId> {
        let extent = self.peek_next()?;
        let taken = self.assign_specific(extent);
        debug_assert!(taken, "peeked extent must be assignable");
        Some(extent)
    }

    /// Assigns a specific extent if it is free.  Used to continue an object's
    /// layout into the physically next extent.
    pub fn assign_specific(&mut self, extent: ExtentId) -> bool {
        self.assign_run(Extent::new(extent.0, 1))
    }

    /// Assigns a run of consecutive extents (in extent units) in one
    /// reservation if every one of them is free; assigns nothing otherwise.
    /// The state afterwards is exactly that of assigning the extents one
    /// [`Gam::assign_specific`] at a time in ascending order.
    pub(crate) fn assign_run(&mut self, extents: Extent) -> bool {
        let taken = !extents.is_empty() && self.map.reserve(extents).is_ok();
        if taken {
            self.picker.advance(extents);
        }
        taken
    }

    /// The extent [`Gam::assign_next`] would assign, without assigning it.
    pub fn peek_next(&self) -> Option<ExtentId> {
        self.picker
            .pick(&self.map, 1)
            .map(|run| ExtentId(run.start))
    }

    /// Assigns the highest-numbered free extent.  Used for metadata pages so
    /// that the clustered index does not decluster the BLOB data it describes
    /// (the paper's out-of-row rationale, Section 4.2).
    pub fn assign_highest(&mut self) -> Option<ExtentId> {
        let run = self.map.last_run()?;
        let extent = ExtentId(run.end() - 1);
        let taken = self.map.reserve(Extent::new(extent.0, 1)).is_ok();
        debug_assert!(taken, "the last run's final extent must be reservable");
        Some(extent)
    }

    /// Returns a run of consecutive extents (in extent units) to the free
    /// pool in one release.
    ///
    /// # Panics
    /// Panics if any of them is already free (double release is an engine
    /// bug) or lies outside the data file.
    pub fn release_run(&mut self, extents: Extent) {
        assert!(
            extents.end() <= self.total_extents(),
            "extents {extents:?} outside the data file"
        );
        self.map
            .release(extents)
            .unwrap_or_else(|_| panic!("extents {extents:?} released twice"));
    }

    /// `true` if the extent is currently unassigned.
    pub fn is_free(&self, extent: ExtentId) -> bool {
        self.map.is_free(Extent::new(extent.0, 1))
    }
}

/// One allocation unit (e.g. the LOB_DATA unit of the object table).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocationUnit {
    kind: PageKind,
    /// The IAM chain: a bitmap over the data file's extents in which an
    /// extent is allocated exactly while it belongs to this unit.
    extents: BitmapMap,
    /// Page-granular free-space map over the whole data file in which exactly
    /// the data-free pages of assigned extents are free; pages of unassigned
    /// extents count as allocated until the extent joins the unit.
    map: RunIndexMap,
    /// Shared policy/next-fit-cursor implementation, in page units.
    picker: FitPicker,
}

impl AllocationUnit {
    /// Creates an empty allocation unit over a data file of `total_pages`
    /// pages, applying the native lowest-first policy.
    pub fn new(kind: PageKind, total_pages: u64) -> Self {
        Self::with_policy(kind, total_pages, AllocationPolicy::Native)
    }

    /// Creates an empty allocation unit with an explicit allocation policy
    /// and unrestricted placement.
    pub fn with_policy(kind: PageKind, total_pages: u64, policy: AllocationPolicy) -> Self {
        Self::with_placement(kind, total_pages, policy, PlacementPolicy::Unrestricted)
    }

    /// Creates an empty allocation unit with explicit allocation and
    /// placement policies.
    pub fn with_placement(
        kind: PageKind,
        total_pages: u64,
        policy: AllocationPolicy,
        placement: PlacementPolicy,
    ) -> Self {
        AllocationUnit {
            kind,
            extents: BitmapMap::new_free(total_pages.div_ceil(PAGES_PER_EXTENT)),
            map: RunIndexMap::new_allocated(total_pages),
            // The page space overlays the GAM's extent space: aligning the
            // band boundary to whole extents keeps the two granularities in
            // exact agreement on where the maintenance band starts (rounding
            // the fraction independently per granularity could let the
            // foreground and maintenance bands overlap by a few pages).
            picker: FitPicker::with_placement(policy, NATIVE_FIT, placement)
                .with_band_granule(PAGES_PER_EXTENT),
        }
    }

    /// The page kind stored in this unit.
    pub fn kind(&self) -> PageKind {
        self.kind
    }

    /// Number of extents assigned to the unit.
    pub fn extent_count(&self) -> u64 {
        self.extents.allocated_clusters()
    }

    /// Pages holding data.
    pub fn used_pages(&self) -> u64 {
        self.extent_count() * PAGES_PER_EXTENT - self.free_page_count()
    }

    /// Free pages inside assigned extents.
    pub fn free_page_count(&self) -> u64 {
        self.map.free_clusters()
    }

    /// Read-only access to the page-granular free-space map (free = data-free
    /// page inside an assigned extent).
    pub fn free_space(&self) -> &RunIndexMap {
        &self.map
    }

    /// Pages the caller could still allocate without growing the file:
    /// free pages in assigned extents plus every page of every unassigned
    /// extent in the GAM.
    pub fn available_pages(&self, gam: &Gam) -> u64 {
        self.free_page_count() + gam.free_extent_count() * PAGES_PER_EXTENT
    }

    /// Allocates `count` pages for one object streamed into the store,
    /// returning them as coalesced page runs in logical order.
    ///
    /// Strategy (see module docs): keep extending the run that ends at the
    /// previously allocated page — taking the next free page, or assigning the
    /// physically next extent when it is still unassigned — and when the run
    /// cannot be extended, start a new run at the policy-chosen free page in
    /// the file (natively: the lowest, first fit), assigning a fresh extent
    /// from the GAM only when the unit has no free page of its own.
    pub fn allocate_pages(&mut self, gam: &mut Gam, count: u64) -> Result<Vec<Extent>, DbError> {
        let available = self.available_pages(gam);
        if count > available {
            return Err(DbError::OutOfSpace {
                requested_pages: count,
                free_pages: available,
            });
        }
        let mut runs: Vec<Extent> = Vec::new();
        let mut remaining = count;
        while remaining > 0 {
            // 1. Try to continue the current run, taking the whole reachable
            //    stretch after its last page in one reservation.
            if let Some(last) = runs.last_mut() {
                let took = self.take_run_at(gam, last.end(), remaining);
                if took > 0 {
                    last.len += took;
                    remaining -= took;
                    continue;
                }
            }
            // 2. Start a new run.  Free pages inside already-assigned extents
            //    are consumed before any fresh extent is assigned (the engine
            //    does not waste partially used extents), at the policy-chosen
            //    position — natively the lowest page first; only when no such
            //    page exists is a policy-chosen unassigned extent taken from
            //    the GAM.  This ordering is what seeds the paper's
            //    "constant-size objects still fragment" behaviour: the
            //    partially used extents left at object boundaries are soaked
            //    up by later allocations, which therefore start away from the
            //    extents that hold their bulk.
            let start = self
                .pick_page()
                .or_else(|| gam.peek_next().map(|extent| extent.first_page()))
                .expect("available_pages() guaranteed enough space");
            let took = self.take_run_at(gam, start.0, remaining);
            debug_assert!(took > 0, "the picked free position must be takeable");
            runs.push(Extent::new(start.0, took));
            remaining -= took;
        }
        Ok(runs)
    }

    /// Allocates `count` pages from the high end of the file: free pages in
    /// assigned extents highest-first, then the highest unassigned extents.
    /// Returns the page runs taken, highest first.
    ///
    /// Used for the metadata table's clustered-index pages so that the small,
    /// cached metadata structures never interrupt the BLOB data laid out from
    /// the front of the file.
    pub fn allocate_pages_high(
        &mut self,
        gam: &mut Gam,
        count: u64,
    ) -> Result<Vec<Extent>, DbError> {
        let available = self.available_pages(gam);
        if count > available {
            return Err(DbError::OutOfSpace {
                requested_pages: count,
                free_pages: available,
            });
        }
        let mut runs = Vec::new();
        let mut remaining = count;
        while remaining > 0 {
            if let Some(run) = self.map.last_run() {
                let take = run.len.min(remaining);
                let taken = Extent::new(run.end() - take, take);
                self.map
                    .reserve(taken)
                    .expect("the last run's tail is free");
                runs.push(taken);
                remaining -= take;
                continue;
            }
            let extent = gam
                .assign_highest()
                .expect("available_pages() guaranteed enough space");
            self.adopt(Extent::new(extent.0, 1));
        }
        Ok(runs)
    }

    /// Allocates `count` pages greedily from the largest free runs (the
    /// unit's own free space and unassigned GAM extent runs, whichever is
    /// larger), minimizing the number of physical runs in the result.
    ///
    /// This is the engine compaction's best-effort mode: when no single run
    /// can hold a whole blob, the largest-first allocation still yields far
    /// fewer runs than the native lowest-first reuse, so an incremental
    /// compactor keeps making progress instead of stalling until cleanup
    /// happens to coalesce a big run.  Returns `None` — leaving all state
    /// untouched — only when the unit plus GAM cannot supply `count` pages at
    /// all.
    pub fn allocate_largest_runs(&mut self, gam: &mut Gam, count: u64) -> Option<Vec<Extent>> {
        self.allocate_greedy(gam, count, |unit, gam| {
            (unit.map.largest(), gam.free_space().largest())
        })
    }

    /// Allocates `count` pages for a **maintenance relocation** (the
    /// engine's incremental compactor) under the unit's placement policy.
    ///
    /// * [`PlacementPolicy::Unrestricted`] delegates to
    ///   [`AllocationUnit::allocate_largest_runs`] unchanged — the
    ///   pre-placement behaviour, bit-identical (the oracle tests pin this).
    /// * [`PlacementPolicy::Banded`] runs the same largest-first greedy loop
    ///   but only over runs inside the maintenance band, at both
    ///   granularities (unit pages and unassigned GAM extents).  It never
    ///   spills into the foreground band: when the band cannot supply
    ///   `count` pages the allocation is refused.
    /// * [`PlacementPolicy::Reserve`] considers only runs no longer than
    ///   `foreground_watermark_pages` (for GAM runs, in page terms), leaving
    ///   every larger run reserved for foreground writes.
    ///
    /// Returns `None` — rolling back any partial progress — when the
    /// placement-eligible runs cannot supply `count` pages.
    pub fn allocate_maintenance_runs(
        &mut self,
        gam: &mut Gam,
        count: u64,
        foreground_watermark_pages: u64,
    ) -> Option<Vec<Extent>> {
        let placement = self.picker.placement();
        if placement.is_unrestricted() {
            return self.allocate_largest_runs(gam, count);
        }
        self.allocate_greedy(gam, count, |unit, gam| {
            (
                unit.maintenance_unit_candidate(placement, foreground_watermark_pages),
                Self::maintenance_gam_candidate(gam, placement, foreground_watermark_pages),
            )
        })
    }

    /// The largest-first loop behind [`AllocationUnit::allocate_largest_runs`]
    /// and [`AllocationUnit::allocate_maintenance_runs`]: repeatedly takes
    /// the larger of the two candidate runs `candidates` offers — a free page
    /// run of the unit, a run of unassigned GAM extents — preferring the
    /// unit's on ties.  When both candidates run out first the allocation is
    /// refused and undone (frees restore the GAM exactly — coalescing is
    /// deterministic).
    fn allocate_greedy(
        &mut self,
        gam: &mut Gam,
        count: u64,
        candidates: impl Fn(&Self, &Gam) -> (Option<Extent>, Option<Extent>),
    ) -> Option<Vec<Extent>> {
        if count > self.available_pages(gam) {
            return None;
        }
        let mut runs: Vec<Extent> = Vec::new();
        let mut remaining = count;
        while remaining > 0 {
            let (unit_run, gam_run) = candidates(self, gam);
            let unit_pages = unit_run.map_or(0, |run| run.len);
            let gam_pages = gam_run.map_or(0, |run| run.len * PAGES_PER_EXTENT);
            let taken = if unit_pages == 0 && gam_pages == 0 {
                for run in runs {
                    self.free_run(gam, run);
                }
                return None;
            } else if unit_pages >= gam_pages {
                let run = unit_run.expect("unit run exists when unit_pages > 0");
                Extent::new(run.start, run.len.min(remaining))
            } else {
                let run = gam_run.expect("gam run exists when gam_pages > 0");
                let extents =
                    Extent::new(run.start, remaining.div_ceil(PAGES_PER_EXTENT).min(run.len));
                let assigned = gam.assign_run(extents);
                debug_assert!(assigned, "extents of a free GAM run are assignable");
                self.adopt(extents);
                extent_pages(extents).take(remaining).0
            };
            self.map.reserve(taken).expect("candidate pages are free");
            self.picker.advance(taken);
            runs.push(taken);
            remaining -= taken.len;
        }
        coalesce(&mut runs);
        Some(runs)
    }

    /// The largest placement-eligible free run inside the unit for a
    /// maintenance allocation, if any.  The band boundary is aligned to
    /// whole extents so the page and extent granularities agree on it.
    fn maintenance_unit_candidate(
        &self,
        placement: PlacementPolicy,
        foreground_watermark_pages: u64,
    ) -> Option<Extent> {
        let consumer = PlacementConsumer::Maintenance {
            foreground_watermark: foreground_watermark_pages,
        };
        placement.largest_eligible(&self.map, consumer, PAGES_PER_EXTENT)
    }

    /// The largest placement-eligible free run of unassigned GAM extents for
    /// a maintenance allocation, if any.  This is the one consumer that
    /// cannot use [`PlacementPolicy::largest_eligible`] verbatim: the
    /// watermark arrives in pages but GAM runs are measured in extents, so
    /// the `Reserve` cap must be converted — and a watermark below one
    /// extent admits no GAM run at all (rather than rounding up to one).
    fn maintenance_gam_candidate(
        gam: &Gam,
        placement: PlacementPolicy,
        foreground_watermark_pages: u64,
    ) -> Option<Extent> {
        let consumer = PlacementConsumer::Maintenance {
            foreground_watermark: foreground_watermark_pages,
        };
        if placement.run_cap(consumer).is_some() {
            // A GAM run of L extents is L × PAGES_PER_EXTENT contiguous
            // pages; it is eligible only if that stays within the watermark.
            let cap_extents = foreground_watermark_pages / PAGES_PER_EXTENT;
            if cap_extents == 0 {
                return None;
            }
            return gam.free_space().largest_run_at_most(cap_extents);
        }
        placement.largest_eligible(gam.free_space(), consumer, 1)
    }

    /// The policy-chosen free page at which to start a new run, if the unit
    /// has any free page.
    fn pick_page(&self) -> Option<PageId> {
        self.picker.pick(&self.map, 1).map(|run| PageId(run.start))
    }

    /// Registers freshly assigned extents (in extent units) with the unit,
    /// marking their pages free for data.
    fn adopt(&mut self, extents: Extent) {
        self.extents
            .reserve(extents)
            .expect("newly assigned extents were not in the chain");
        self.map
            .release(extent_pages(extents))
            .expect("pages of newly assigned extents were not free before");
    }

    /// Takes up to `max_len` contiguous free pages starting exactly at page
    /// `page`, first adopting from the GAM the unassigned extents the take
    /// reaches when `page`'s own extent is unassigned.  Returns how many
    /// pages were taken — 0 when the position is neither free nor adoptable.
    ///
    /// Taking `n` pages this way leaves the unit, GAM and both pickers in
    /// exactly the state `n` single-page takes of consecutive pages would:
    /// each adopted extent receives at least one of the taken pages, so the
    /// page-at-a-time rule would have adopted the same extents in order.
    fn take_run_at(&mut self, gam: &mut Gam, page: u64, max_len: u64) -> u64 {
        if !self.map.is_free(Extent::new(page, 1)) {
            let extent = page / PAGES_PER_EXTENT;
            if self.owns(extent) {
                return 0;
            }
            let Some(unassigned) = gam.free_space().run_at(extent) else {
                return 0;
            };
            let reach = (page + max_len - 1) / PAGES_PER_EXTENT + 1;
            let extents = Extent::new(extent, unassigned.end().min(reach) - extent);
            let assigned = gam.assign_run(extents);
            debug_assert!(assigned, "a free GAM run is assignable");
            self.adopt(extents);
        }
        let run = self
            .map
            .run_at(page)
            .expect("the position was just checked or adopted free");
        let taken = Extent::new(page, (run.end() - page).min(max_len));
        self.map.reserve(taken).expect("the run's pages are free");
        self.picker.advance(taken);
        taken.len
    }

    /// Frees a contiguous run of pages in one free-map release, returning
    /// every extent the run empties to the GAM in one span.
    ///
    /// An extent is empty exactly when all of its pages lie in the coalesced
    /// free run that now contains `run`, so the emptied extents are
    /// consecutive: those the freed run touches that fit inside that free
    /// run.  The end state is identical to freeing the run's pages one at a
    /// time and returning each extent the moment it empties.
    ///
    /// # Panics
    /// Panics if a page of the run is already free or lies outside the
    /// unit's extents (both are engine bugs).
    pub fn free_run(&mut self, gam: &mut Gam, run: Extent) {
        if run.is_empty() {
            return;
        }
        let first = run.start / PAGES_PER_EXTENT;
        let end = (run.end() - 1) / PAGES_PER_EXTENT + 1;
        assert!(
            (first..end).all(|extent| self.owns(extent)),
            "run {run:?} freed outside the unit's extents"
        );
        self.map
            .release(run)
            .unwrap_or_else(|_| panic!("run {run:?} freed twice"));

        let free = self.map.run_at(run.start).expect("the run was just freed");
        let empty_first = first.max(free.start.div_ceil(PAGES_PER_EXTENT));
        let empty_end = end.min(free.end() / PAGES_PER_EXTENT);
        if empty_first < empty_end {
            let empty = Extent::new(empty_first, empty_end - empty_first);
            self.map
                .reserve(extent_pages(empty))
                .expect("a fully free extent's pages can be withdrawn");
            self.extents
                .release(empty)
                .expect("emptied extents were in the chain");
            gam.release_run(empty);
        }
    }

    /// `true` if the extent is in the unit's IAM chain (an extent beyond
    /// the data file is in no chain).
    fn owns(&self, extent: u64) -> bool {
        extent < self.extents.total_clusters() && !self.extents.is_free(Extent::new(extent, 1))
    }

    /// The extents currently assigned to this unit, ascending.
    pub fn extents(&self) -> impl Iterator<Item = ExtentId> + '_ {
        (0..self.extents.total_clusters())
            .filter(|&extent| self.owns(extent))
            .map(ExtentId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_PAGES: u64 = 100 * PAGES_PER_EXTENT;

    /// Pages across a layout's runs.
    fn page_total(runs: &[Extent]) -> u64 {
        runs.iter().map(|run| run.len).sum()
    }

    /// Frees `pages` one single-page run at a time.
    fn free_each(unit: &mut AllocationUnit, gam: &mut Gam, pages: impl IntoIterator<Item = u64>) {
        for page in pages {
            unit.free_run(gam, Extent::new(page, 1));
        }
    }

    #[test]
    fn gam_assigns_lowest_first() {
        let mut gam = Gam::new(10);
        assert_eq!(gam.free_extent_count(), 10);
        assert_eq!(gam.assign_next(), Some(ExtentId(0)));
        assert_eq!(gam.assign_next(), Some(ExtentId(1)));
        gam.release_run(Extent::new(0, 1));
        assert_eq!(
            gam.assign_next(),
            Some(ExtentId(0)),
            "freed extents are reused before the file grows"
        );
        assert!(gam.is_free(ExtentId(5)));
        assert!(!gam.is_free(ExtentId(1)));
        assert_eq!(gam.peek_next(), Some(ExtentId(2)));
        assert_eq!(gam.policy(), AllocationPolicy::Native);
    }

    #[test]
    fn gam_policies_choose_different_extents() {
        // Free runs of different lengths: assign everything then free
        // [2, 3) (length 1) and [5, 8) (length 3).
        let fragmented_gam = |policy| {
            let mut gam = Gam::with_policy(10, policy);
            assert!(gam.assign_run(Extent::new(0, 10)));
            gam.release_run(Extent::new(2, 1));
            gam.release_run(Extent::new(5, 3));
            gam
        };
        assert_eq!(
            fragmented_gam(AllocationPolicy::Fit(FitPolicy::FirstFit)).peek_next(),
            Some(ExtentId(2))
        );
        assert_eq!(
            fragmented_gam(AllocationPolicy::Fit(FitPolicy::BestFit)).peek_next(),
            Some(ExtentId(2)),
            "the snuggest hole is the single extent"
        );
        assert_eq!(
            fragmented_gam(AllocationPolicy::Fit(FitPolicy::WorstFit)).peek_next(),
            Some(ExtentId(5)),
            "the largest hole starts at extent 5"
        );
        let mut next_fit = fragmented_gam(AllocationPolicy::Fit(FitPolicy::NextFit));
        assert_eq!(next_fit.assign_next(), Some(ExtentId(2)));
        assert_eq!(
            next_fit.assign_next(),
            Some(ExtentId(5)),
            "the cursor moved past extent 2"
        );
    }

    #[test]
    fn gam_assign_specific() {
        let mut gam = Gam::new(10);
        assert!(gam.assign_specific(ExtentId(4)));
        assert!(!gam.assign_specific(ExtentId(4)), "already assigned");
        assert!(!gam.is_free(ExtentId(4)));
        // A run is assigned whole or not at all.
        assert!(!gam.assign_run(Extent::new(2, 3)), "extent 4 is taken");
        assert!(gam.is_free(ExtentId(2)) && gam.is_free(ExtentId(3)));
        assert!(gam.assign_run(Extent::new(5, 3)));
        assert_eq!(gam.free_extent_count(), 6);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn gam_double_release_panics() {
        let mut gam = Gam::new(4);
        gam.release_run(Extent::new(0, 1));
    }

    #[test]
    fn clean_file_allocations_are_contiguous() {
        let mut gam = Gam::new(100);
        let mut unit = AllocationUnit::new(PageKind::LobData, TEST_PAGES);
        let a = unit.allocate_pages(&mut gam, 20).unwrap();
        assert_eq!(page_total(&a), 20);
        assert_eq!(a.len(), 1);
        // The next object continues right after the previous one, sharing its
        // partially used extent.
        let b = unit.allocate_pages(&mut gam, 20).unwrap();
        assert_eq!(b.len(), 1);
        assert!(a[0].is_followed_by(&b[0]));
        assert_eq!(unit.used_pages(), 40);
        // 40 pages span extents 0..=4.
        assert_eq!(unit.extent_count(), 5);
        assert_eq!(
            unit.extents().collect::<Vec<_>>(),
            (0..5).map(ExtentId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn freed_low_pages_are_reused_before_the_tail() {
        let mut gam = Gam::new(100);
        let mut unit = AllocationUnit::new(PageKind::LobData, TEST_PAGES);
        let a = unit.allocate_pages(&mut gam, 16).unwrap();
        let _b = unit.allocate_pages(&mut gam, 16).unwrap();
        // Delete `a` a page at a time: its two extents return to the GAM.
        free_each(&mut unit, &mut gam, a[0].start..a[0].end());
        // A new 8-page object lands in the freed low extent, not at the tail.
        let c = unit.allocate_pages(&mut gam, 8).unwrap();
        assert_eq!(c[0].start, 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn scattered_free_pages_fragment_new_objects() {
        let mut gam = Gam::new(100);
        let mut unit = AllocationUnit::new(PageKind::LobData, TEST_PAGES);
        let a = unit.allocate_pages(&mut gam, 64).unwrap();
        assert_eq!(a, vec![Extent::new(0, 64)]);
        // Free the first 4 pages of every 8-page group, leaving 4-page holes.
        for group in (0..64).step_by(8) {
            free_each(&mut unit, &mut gam, group..group + 4);
        }
        // A 16-page object must span at least four of those holes.
        let b = unit.allocate_pages(&mut gam, 16).unwrap();
        assert!(b.len() >= 4, "got {} fragments", b.len());
        // And it fills the lowest holes first.
        assert_eq!(b[0].start, 0);
    }

    #[test]
    fn freeing_a_whole_extent_returns_it_to_the_gam() {
        let mut gam = Gam::new(10);
        let mut unit = AllocationUnit::new(PageKind::LobData, 10 * PAGES_PER_EXTENT);
        let runs = unit.allocate_pages(&mut gam, 8).unwrap();
        assert_eq!(unit.extent_count(), 1);
        let before = gam.free_extent_count();
        free_each(&mut unit, &mut gam, runs[0].start..runs[0].end());
        assert_eq!(unit.extent_count(), 0);
        assert_eq!(unit.used_pages(), 0);
        assert_eq!(gam.free_extent_count(), before + 1);
    }

    #[test]
    fn freeing_a_run_returns_every_emptied_extent_in_one_span() {
        let mut gam = Gam::new(10);
        let mut unit = AllocationUnit::new(PageKind::LobData, 10 * PAGES_PER_EXTENT);
        assert_eq!(
            unit.allocate_pages(&mut gam, 48).unwrap(),
            vec![Extent::new(0, 48)]
        );
        // Pages 4..6 and 42..44 stay live; freeing 6..42 empties extents
        // 1..=4 but neither end extent.
        free_each(&mut unit, &mut gam, [0, 1, 2, 3, 44, 45, 46, 47]);
        unit.free_run(&mut gam, Extent::new(6, 36));
        assert_eq!(
            unit.extents().collect::<Vec<_>>(),
            vec![ExtentId(0), ExtentId(5)]
        );
        assert_eq!(gam.free_extent_count(), 8);
        assert_eq!(
            unit.free_space().free_runs(),
            vec![
                Extent::new(0, 4),
                Extent::new(6, 2),
                Extent::new(40, 2),
                Extent::new(44, 4)
            ]
        );
    }

    #[test]
    fn partially_freed_extents_stay_with_the_unit() {
        let mut gam = Gam::new(10);
        let mut unit = AllocationUnit::new(PageKind::LobData, 10 * PAGES_PER_EXTENT);
        let runs = unit.allocate_pages(&mut gam, 8).unwrap();
        unit.free_run(&mut gam, Extent::new(runs[0].start, 1));
        assert_eq!(unit.extent_count(), 1);
        assert_eq!(unit.free_page_count(), 1);
        // The freed page is reused before any new extent is assigned.
        let next = unit.allocate_pages(&mut gam, 1).unwrap();
        assert_eq!(next, vec![Extent::new(runs[0].start, 1)]);
    }

    #[test]
    fn out_of_space_is_detected() {
        let mut gam = Gam::new(2); // 16 pages total
        let mut unit = AllocationUnit::new(PageKind::LobData, 2 * PAGES_PER_EXTENT);
        assert!(unit.allocate_pages(&mut gam, 17).is_err());
        let runs = unit.allocate_pages(&mut gam, 10).unwrap();
        assert_eq!(page_total(&runs), 10);
        let err = unit.allocate_pages(&mut gam, 7).unwrap_err();
        assert!(matches!(
            err,
            DbError::OutOfSpace {
                requested_pages: 7,
                free_pages: 6
            }
        ));
        // The failed allocation must not have leaked anything.
        assert_eq!(unit.used_pages(), 10);
        assert_eq!(unit.available_pages(&gam), 6);
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn double_free_panics() {
        let mut gam = Gam::new(2);
        let mut unit = AllocationUnit::new(PageKind::LobData, 2 * PAGES_PER_EXTENT);
        let runs = unit.allocate_pages(&mut gam, 4).unwrap();
        let page = Extent::new(runs[0].start, 1);
        unit.free_run(&mut gam, page);
        unit.free_run(&mut gam, page);
    }

    #[test]
    fn zero_page_allocations_are_empty() {
        let mut gam = Gam::new(2);
        let mut unit = AllocationUnit::new(PageKind::RowData, 2 * PAGES_PER_EXTENT);
        assert!(unit.allocate_pages(&mut gam, 0).unwrap().is_empty());
        assert_eq!(unit.kind(), PageKind::RowData);
        assert_eq!(unit.extents().count(), 0);
    }

    #[test]
    fn best_fit_starts_new_runs_in_the_snuggest_hole() {
        let mut gam = Gam::with_policy(100, AllocationPolicy::Fit(FitPolicy::BestFit));
        let mut unit = AllocationUnit::with_policy(
            PageKind::LobData,
            TEST_PAGES,
            AllocationPolicy::Fit(FitPolicy::BestFit),
        );
        let a = unit.allocate_pages(&mut gam, 32).unwrap();
        assert_eq!(a, vec![Extent::new(0, 32)]);
        // Carve two holes: a 1-page hole at page 5 and a 3-page hole at 16..19.
        unit.free_run(&mut gam, Extent::new(5, 1));
        free_each(&mut unit, &mut gam, 16..19);
        // A 1-page object goes to the snuggest hole (page 5), not the lowest
        // eligible position of first fit.
        let b = unit.allocate_pages(&mut gam, 1).unwrap();
        assert_eq!(b, vec![Extent::new(5, 1)]);
    }

    #[test]
    fn allocate_largest_runs_is_contiguous_when_a_run_fits() {
        let mut gam = Gam::new(100);
        let mut unit = AllocationUnit::new(PageKind::LobData, TEST_PAGES);
        let a = unit.allocate_pages(&mut gam, 16).unwrap();
        // Free a 6-page hole inside the unit's extents.
        unit.free_run(&mut gam, Extent::new(a[0].start + 4, 6));
        // The GAM's unassigned tail (98 extents) dwarfs the 6-page hole, so a
        // 4-page request lands contiguously in fresh extents...
        let from_gam = unit.allocate_largest_runs(&mut gam, 4).unwrap();
        assert_eq!(from_gam.len(), 1);
        assert_eq!(from_gam[0].start, ExtentId(2).first_page().0);
        // ...and a 20-page one is a single run of consecutive fresh extents.
        let bigger = unit.allocate_largest_runs(&mut gam, 20).unwrap();
        assert_eq!(bigger.len(), 1);
        assert_eq!(page_total(&bigger), 20);
        assert!(unit.allocate_largest_runs(&mut gam, 0).unwrap().is_empty());
    }

    #[test]
    fn allocate_largest_runs_falls_back_to_several_runs() {
        let mut gam = Gam::new(2); // 16 pages
        let mut unit = AllocationUnit::new(PageKind::LobData, 2 * PAGES_PER_EXTENT);
        let runs = unit.allocate_pages(&mut gam, 16).unwrap();
        assert_eq!(runs, vec![Extent::new(0, 16)]);
        // Free pages in two separated runs of 3 and 2.
        free_each(&mut unit, &mut gam, (2..5).chain(8..10));
        // No single 5-page run exists anywhere; the largest-first fallback
        // uses exactly the two runs, biggest first.
        let scattered = unit.allocate_largest_runs(&mut gam, 5).unwrap();
        assert_eq!(scattered.len(), 2);
        assert_eq!(scattered[0].start, 2, "the 3-page run is taken first");
        // More than the free pool refuses cleanly.
        assert!(unit.allocate_largest_runs(&mut gam, 1).is_none());
    }

    #[test]
    fn largest_runs_merge_physically_adjacent_pieces() {
        // One unit-owned extent with 6 free pages beside a 3-extent GAM run:
        // a 30-page request takes the GAM run (24 pages) first, then the
        // unit run.  Where the unit run follows the GAM run physically the
        // two pieces are one fragment; where it precedes it they are two.
        let split = |owned: u64, used: Extent| {
            let mut gam = Gam::new(4);
            let mut unit = AllocationUnit::new(PageKind::LobData, 4 * PAGES_PER_EXTENT);
            assert!(gam.assign_specific(ExtentId(owned)));
            unit.adopt(Extent::new(owned, 1));
            unit.map.reserve(used).unwrap();
            unit.allocate_largest_runs(&mut gam, 30).unwrap()
        };
        assert_eq!(
            split(3, Extent::new(30, 2)),
            vec![Extent::new(0, 30)],
            "GAM pages 0..24 continue into the unit's free pages 24..30"
        );
        assert_eq!(
            split(0, Extent::new(0, 2)),
            vec![Extent::new(8, 24), Extent::new(2, 6)]
        );
    }

    fn banded_pair(total_extents: u64, boundary: f64) -> (Gam, AllocationUnit) {
        let placement = PlacementPolicy::banded(boundary);
        (
            Gam::with_placement(total_extents, AllocationPolicy::Native, placement),
            AllocationUnit::with_placement(
                PageKind::LobData,
                total_extents * PAGES_PER_EXTENT,
                AllocationPolicy::Native,
                placement,
            ),
        )
    }

    #[test]
    fn maintenance_runs_come_from_the_maintenance_band() {
        let (mut gam, mut unit) = banded_pair(100, 0.6);
        let boundary_page = 60 * PAGES_PER_EXTENT;
        // Foreground allocations fill from the front as before...
        let foreground = unit.allocate_pages(&mut gam, 16).unwrap();
        assert_eq!(foreground[0].start, 0);
        // ...while maintenance relocations land beyond the boundary.
        let moved = unit.allocate_maintenance_runs(&mut gam, 16, 0).unwrap();
        assert!(
            moved.iter().all(|run| run.start >= boundary_page),
            "maintenance runs {moved:?} must sit at or above page {boundary_page}"
        );
        assert_eq!(moved.len(), 1);
    }

    #[test]
    fn banded_maintenance_refuses_at_full_band_occupancy_and_rolls_back() {
        let (mut gam, mut unit) = banded_pair(100, 0.6);
        // Occupy the entire maintenance band (100% band occupancy): every
        // high extent is assigned away.
        assert!(gam.assign_run(Extent::new(60, 40)));
        let free_before = gam.free_extent_count();
        let used_before = unit.used_pages();
        // Plenty of low-band space exists, but maintenance may not touch it.
        assert_eq!(unit.allocate_maintenance_runs(&mut gam, 8, 0), None);
        assert_eq!(gam.free_extent_count(), free_before, "no partial progress");
        assert_eq!(unit.used_pages(), used_before);
        // A band with *some* space still refuses (and rolls back) when the
        // request exceeds it.
        gam.release_run(Extent::new(60, 1));
        assert_eq!(
            unit.allocate_maintenance_runs(&mut gam, 2 * PAGES_PER_EXTENT, 0),
            None,
            "one free high extent cannot hold two extents' worth"
        );
        assert_eq!(gam.free_extent_count(), free_before + 1);
        assert_eq!(unit.used_pages(), used_before);
        assert_eq!(unit.extent_count(), 0, "adopted extents were returned");
        // The partial band still serves requests it can hold.
        let fits = unit
            .allocate_maintenance_runs(&mut gam, PAGES_PER_EXTENT, 0)
            .unwrap();
        assert_eq!(fits[0].start, ExtentId(60).first_page().0);
    }

    #[test]
    fn foreground_band_boundary_is_extent_aligned() {
        // 100 extents / 800 pages at boundary 0.603: raw page-granular
        // rounding would end the foreground band at page 482, but the
        // extent-granular boundary is extent 60 = page 480.  The page space
        // must use the extent-aligned boundary, or the two consumers' bands
        // would overlap on pages [480, 482): here a best-fit *foreground*
        // pick must treat the snug 1-page hole at 480 as maintenance
        // territory and place in its own band instead.
        let placement = PlacementPolicy::banded(0.603);
        let policy = AllocationPolicy::Fit(FitPolicy::BestFit);
        let mut gam = Gam::with_placement(100, policy, placement);
        let mut unit =
            AllocationUnit::with_placement(PageKind::LobData, TEST_PAGES, policy, placement);
        let all = unit.allocate_pages(&mut gam, 800).unwrap();
        assert_eq!(page_total(&all), 800);
        free_each(&mut unit, &mut gam, [480, 100, 101]);
        let pick = unit.allocate_pages(&mut gam, 1).unwrap();
        assert_eq!(
            pick,
            vec![Extent::new(100, 1)],
            "page 480 sits in the maintenance band under the aligned boundary"
        );
        // The maintenance side agrees: its candidate is exactly the hole at
        // the aligned boundary.
        let moved = unit.allocate_maintenance_runs(&mut gam, 1, 0).unwrap();
        assert_eq!(moved, vec![Extent::new(480, 1)]);
    }

    #[test]
    fn reserve_maintenance_refuses_runs_above_the_watermark() {
        let placement = PlacementPolicy::Reserve;
        let mut gam = Gam::with_placement(100, AllocationPolicy::Native, placement);
        let mut unit = AllocationUnit::with_placement(
            PageKind::LobData,
            TEST_PAGES,
            AllocationPolicy::Native,
            placement,
        );
        // The whole file is one 100-extent run; watermark 4 extents' worth
        // of pages means no GAM run is eligible at all.
        assert_eq!(
            unit.allocate_maintenance_runs(&mut gam, 8, 4 * PAGES_PER_EXTENT),
            None,
            "a 100-extent run exceeds the watermark and must be refused"
        );
        assert_eq!(gam.free_extent_count(), 100);
        // Carve an eligible 3-extent run: [10, 13) free between assignments.
        assert!(gam.assign_run(Extent::new(0, 10)));
        assert!(gam.assign_run(Extent::new(13, 87)));
        let runs = unit
            .allocate_maintenance_runs(&mut gam, 8, 4 * PAGES_PER_EXTENT)
            .unwrap();
        assert_eq!(runs[0].start, ExtentId(10).first_page().0);
        // A watermark below one extent admits no GAM run.
        assert_eq!(
            unit.allocate_maintenance_runs(&mut gam, 8, PAGES_PER_EXTENT - 1),
            None
        );
    }

    #[test]
    fn unrestricted_maintenance_is_exactly_allocate_largest_runs() {
        let mut gam_a = Gam::new(20);
        let mut unit_a = AllocationUnit::new(PageKind::LobData, 20 * PAGES_PER_EXTENT);
        let mut gam_b = gam_a.clone();
        let mut unit_b = unit_a.clone();
        let seed_a = unit_a.allocate_pages(&mut gam_a, 30).unwrap();
        let seed_b = unit_b.allocate_pages(&mut gam_b, 30).unwrap();
        assert_eq!(seed_a, seed_b);
        let holes: Vec<u64> = (seed_a[0].start..seed_a[0].end())
            .skip(4)
            .step_by(3)
            .collect();
        free_each(&mut unit_a, &mut gam_a, holes.iter().copied());
        free_each(&mut unit_b, &mut gam_b, holes.iter().copied());
        let via_maintenance = unit_a.allocate_maintenance_runs(&mut gam_a, 12, 7);
        let via_largest = unit_b.allocate_largest_runs(&mut gam_b, 12);
        assert_eq!(via_maintenance, via_largest);
        assert_eq!(gam_a.free_extent_count(), gam_b.free_extent_count());
    }

    #[test]
    fn allocate_pages_high_takes_the_tail_of_the_file() {
        let mut gam = Gam::new(10);
        let mut unit = AllocationUnit::new(PageKind::RowData, 10 * PAGES_PER_EXTENT);
        let runs = unit.allocate_pages_high(&mut gam, 3).unwrap();
        let last = 10 * PAGES_PER_EXTENT - 1;
        assert_eq!(runs, vec![Extent::new(last - 2, 3)]);
        assert_eq!(unit.extent_count(), 1);
        assert!(!gam.is_free(ExtentId(9)));
        // Crossing an extent boundary continues in the next-highest extent.
        let more = unit.allocate_pages_high(&mut gam, 7).unwrap();
        assert_eq!(more, vec![Extent::new(72, 5), Extent::new(70, 2)]);
        assert_eq!(unit.extent_count(), 2);
    }
}
