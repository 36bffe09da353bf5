//! Property tests for the BLOB storage engine: random operation sequences
//! must preserve the engine's structural invariants.

use std::collections::BTreeMap;

use lor_alloc::Extent;
use lor_blobkit::{AllocationUnit, Database, EngineConfig, Gam, PAGES_PER_EXTENT};
use lor_core_free_space_oracle::combined_free_runs;
use proptest::prelude::*;

/// Helpers for cross-validating the engine's run-indexed free-space maps
/// against the exhaustive bitmap oracle.
mod lor_core_free_space_oracle {
    use lor_alloc::{Extent, ExtentListExt, FreeSpace};
    use lor_blobkit::{extent_pages, AllocationUnit, Gam};

    /// The engine's page-granular free space, merged across its two levels:
    /// free pages inside the unit's assigned extents, plus every page of
    /// every unassigned extent in the GAM.  Returned sorted and coalesced,
    /// i.e. in the same canonical form `FreeSpace::free_runs` uses.
    pub fn combined_free_runs(unit: &AllocationUnit, gam: &Gam) -> Vec<Extent> {
        let mut runs: Vec<Extent> = unit.free_space().free_runs();
        runs.extend(gam.free_space().free_runs().into_iter().map(extent_pages));
        runs.sort_by_key(|run| run.start);
        runs.coalesced()
    }
}

const MB: u64 = 1 << 20;
const FILE_BYTES: u64 = 64 * MB;

/// Every page of a layout, in logical order.
fn pages_of(runs: &[Extent]) -> impl Iterator<Item = u64> + '_ {
    runs.iter().flat_map(|run| run.start..run.end())
}

#[derive(Debug, Clone)]
enum DbOp {
    /// Insert a new object of `size` bytes.
    Insert { size: u64 },
    /// Replace the live object at this modular index with a new version.
    Update { index: usize, size: u64 },
    /// Delete the live object at this modular index.
    Delete { index: usize },
    /// Run ghost cleanup now.
    Cleanup,
    /// Rebuild the table into a new filegroup.
    Rebuild,
}

fn arb_op() -> impl Strategy<Value = DbOp> {
    prop_oneof![
        4 => (1u64..2 * MB).prop_map(|size| DbOp::Insert { size }),
        3 => (0usize..64, 1u64..2 * MB).prop_map(|(index, size)| DbOp::Update { index, size }),
        2 => (0usize..64).prop_map(|index| DbOp::Delete { index }),
        1 => Just(DbOp::Cleanup),
        1 => Just(DbOp::Rebuild),
    ]
}

/// Verifies the engine against a shadow model (key -> size).
fn check_invariants(db: &Database, live: &BTreeMap<String, u64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(db.object_count(), live.len());
    let mut seen_pages: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for (key, &size) in live {
        let record = db.get(key).expect("live key resolves");
        prop_assert_eq!(record.size_bytes, size);
        prop_assert_eq!(record.page_count(), db.config().pages_for(size));
        prop_assert_eq!(pages_of(record.runs()).count() as u64, record.page_count());
        // The layout is coalesced: one run per fragment.
        prop_assert!(record.runs().iter().all(|run| run.len > 0));
        prop_assert!(
            record
                .runs()
                .windows(2)
                .all(|pair| !pair[0].is_followed_by(&pair[1])),
            "layout {:?} is not coalesced",
            record.runs()
        );
        prop_assert_eq!(record.fragment_count(), record.runs().len());
        // No page is shared between live objects.
        for page in pages_of(record.runs()) {
            prop_assert!(seen_pages.insert(page), "page {page} stored twice");
            prop_assert!(
                page < db.config().total_pages(),
                "page {page} outside the data file"
            );
        }
        // The read plan covers exactly the object's pages.
        let plan = db.read_plan(key).unwrap();
        let plan_bytes: u64 = plan.iter().map(|r| r.len).sum();
        prop_assert_eq!(plan_bytes, record.page_count() * db.config().page_size);
    }
    // The incremental fragmentation accounting answers exactly what a full
    // rescan of every live blob would.
    prop_assert_eq!(db.fragmentation(), db.fragmentation_rescan());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_workloads_preserve_engine_invariants(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut config = EngineConfig::new(FILE_BYTES);
        config.ghost_cleanup_interval_ops = 4;
        let mut db = Database::create(config).unwrap();
        let mut live: BTreeMap<String, u64> = BTreeMap::new();
        let mut counter = 0u64;

        for op in ops {
            match op {
                DbOp::Insert { size } => {
                    let key = format!("obj-{counter}");
                    counter += 1;
                    match db.insert(&key, size) {
                        Ok(receipt) => {
                            prop_assert_eq!(receipt.bytes_written, size);
                            prop_assert_eq!(receipt.pages_written, db.config().pages_for(size));
                            live.insert(key, size);
                        }
                        Err(_) => {
                            prop_assert!(db.get(&key).is_err(), "failed insert must leave no trace");
                        }
                    }
                }
                DbOp::Update { index, size } => {
                    if live.is_empty() { continue; }
                    let key = live.keys().nth(index % live.len()).unwrap().clone();
                    match db.update(&key, size) {
                        Ok(_) => { live.insert(key, size); }
                        Err(_) => {
                            // The old version must survive a failed update.
                            prop_assert!(db.get(&key).is_ok());
                            prop_assert_eq!(db.get(&key).unwrap().size_bytes, live[&key]);
                        }
                    }
                }
                DbOp::Delete { index } => {
                    if live.is_empty() { continue; }
                    let key = live.keys().nth(index % live.len()).unwrap().clone();
                    db.delete(&key).unwrap();
                    live.remove(&key);
                }
                DbOp::Cleanup => db.ghost_cleanup(),
                DbOp::Rebuild => {
                    let copied = db.rebuild_into_new_filegroup().unwrap();
                    prop_assert_eq!(copied, live.values().sum::<u64>());
                    // A rebuild leaves every object contiguous.
                    for key in live.keys() {
                        prop_assert_eq!(db.get(key).unwrap().fragment_count(), 1);
                    }
                }
            }
            check_invariants(&db, &live)?;
        }

        // Teardown: delete everything, clean up, and the whole file is free again.
        let keys: Vec<String> = live.keys().cloned().collect();
        for key in keys {
            db.delete(&key).unwrap();
        }
        db.ghost_cleanup();
        prop_assert_eq!(db.object_count(), 0);
        prop_assert_eq!(db.ghost_page_count(), 0);
    }

    /// Storage accounting never loses pages: live + ghost + free == capacity.
    #[test]
    fn page_accounting_is_exact(sizes in prop::collection::vec(1u64..MB, 1..40)) {
        let mut config = EngineConfig::new(FILE_BYTES);
        config.ghost_cleanup_interval_ops = 1_000_000; // manual only
        let mut db = Database::create(config).unwrap();
        let mut inserted = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let key = format!("k{i}");
            if db.insert(&key, *size).is_ok() {
                inserted.push(key);
            }
        }
        // Delete half of them (ghosts accumulate).
        for key in inserted.iter().step_by(2) {
            db.delete(key).unwrap();
        }
        let live_pages: u64 = db.iter_blobs().map(|b| b.page_count()).sum();
        prop_assert_eq!(
            db.stats().pages_allocated,
            live_pages + db.ghost_page_count(),
            "every allocated page is either live or a ghost before cleanup"
        );
        db.ghost_cleanup();
        prop_assert_eq!(db.ghost_page_count(), 0);
    }

    /// Bulk loads are laid out contiguously regardless of object size mix.
    #[test]
    fn bulk_load_is_contiguous(sizes in prop::collection::vec((64u64 * 1024)..MB, 1..32)) {
        let mut db = Database::create(EngineConfig::new(FILE_BYTES)).unwrap();
        for (i, size) in sizes.iter().enumerate() {
            db.insert(&format!("k{i}"), *size).unwrap();
        }
        let summary = db.fragmentation();
        prop_assert!(
            summary.fragments_per_object <= 1.0 + 1e-9,
            "bulk load produced {} fragments/object",
            summary.fragments_per_object
        );
    }
}

/// One operation of the engine's space-management workload, expressed at the
/// GAM/allocation-unit level so the same sequence can drive a [`BitmapMap`]
/// oracle in lock-step.
#[derive(Debug, Clone)]
enum SpaceOp {
    /// Insert: allocate pages for a new object.
    Insert { pages: u64 },
    /// Update: allocate pages for the replacement version first (as the
    /// transactional update must), then ghost-free the old version's pages.
    Update { index: usize, pages: u64 },
    /// Ghost cleanup of a deleted object: free its pages.
    Cleanup { index: usize },
}

fn arb_space_op() -> impl Strategy<Value = SpaceOp> {
    prop_oneof![
        4 => (1u64..48).prop_map(|pages| SpaceOp::Insert { pages }),
        3 => (0usize..64, 1u64..48).prop_map(|(index, pages)| SpaceOp::Update { index, pages }),
        2 => (0usize..64).prop_map(|index| SpaceOp::Cleanup { index }),
    ]
}

/// Drives one GAM + allocation unit under `policy` through an op sequence in
/// lock-step with the exhaustive [`BitmapMap`] oracle (see the proptest
/// below).
fn check_against_oracle(
    policy: lor_alloc::AllocationPolicy,
    ops: &[SpaceOp],
) -> Result<(), TestCaseError> {
    use lor_alloc::{BitmapMap, Extent, FreeSpace};

    const TOTAL_EXTENTS: u64 = 64;
    const TOTAL_PAGES: u64 = TOTAL_EXTENTS * PAGES_PER_EXTENT;

    let mut gam = Gam::with_policy(TOTAL_EXTENTS, policy);
    let mut unit = AllocationUnit::with_policy(lor_blobkit::PageKind::LobData, TOTAL_PAGES, policy);
    let mut oracle = BitmapMap::new_free(TOTAL_PAGES);
    let mut live: Vec<Vec<Extent>> = Vec::new();
    // Frees a layout run by run in the unit and page by page in the oracle.
    let free_layout = |unit: &mut AllocationUnit,
                       gam: &mut Gam,
                       oracle: &mut BitmapMap,
                       runs: Vec<Extent>|
     -> Result<(), TestCaseError> {
        for run in runs {
            unit.free_run(gam, run);
            for page in run.start..run.end() {
                prop_assert!(
                    oracle.release(Extent::new(page, 1)).is_ok(),
                    "oracle agrees page {page} was used"
                );
            }
        }
        Ok(())
    };

    for op in ops.iter().cloned() {
        match op {
            SpaceOp::Insert { pages } => {
                if let Ok(allocated) = unit.allocate_pages(&mut gam, pages) {
                    for page in pages_of(&allocated) {
                        oracle
                            .reserve(Extent::new(page, 1))
                            .expect("oracle agrees the page was free");
                    }
                    live.push(allocated);
                }
            }
            SpaceOp::Update { index, pages } => {
                if live.is_empty() {
                    continue;
                }
                let slot = index % live.len();
                if let Ok(allocated) = unit.allocate_pages(&mut gam, pages) {
                    for page in pages_of(&allocated) {
                        oracle
                            .reserve(Extent::new(page, 1))
                            .expect("oracle agrees the page was free");
                    }
                    let ghosts = std::mem::replace(&mut live[slot], allocated);
                    free_layout(&mut unit, &mut gam, &mut oracle, ghosts)?;
                }
            }
            SpaceOp::Cleanup { index } => {
                if live.is_empty() {
                    continue;
                }
                let ghosts = live.swap_remove(index % live.len());
                free_layout(&mut unit, &mut gam, &mut oracle, ghosts)?;
            }
        }

        // The two run-indexed levels, merged, must agree exactly with the
        // exhaustive bitmap.
        prop_assert_eq!(
            unit.free_page_count() + gam.free_extent_count() * PAGES_PER_EXTENT,
            oracle.free_clusters(),
            "free-page accounting diverged from the oracle"
        );
        prop_assert_eq!(combined_free_runs(&unit, &gam), oracle.free_runs());
        // Structural invariant of the split: a unit page is free only
        // inside an assigned extent, never in a GAM-free one.
        for run in unit.free_space().free_runs() {
            for extent in gam.free_space().free_runs() {
                let extent_pages = Extent::new(
                    extent.start * PAGES_PER_EXTENT,
                    extent.len * PAGES_PER_EXTENT,
                );
                prop_assert!(
                    !run.overlaps(&extent_pages),
                    "unit and GAM both claim pages free"
                );
            }
        }
    }

    // Teardown: free everything and both levels drain back to fully free.
    for object in live.drain(..) {
        free_layout(&mut unit, &mut gam, &mut oracle, object)?;
    }
    prop_assert_eq!(gam.free_extent_count(), TOTAL_EXTENTS);
    prop_assert_eq!(unit.free_page_count(), 0);
    prop_assert_eq!(oracle.free_runs(), vec![Extent::new(0, TOTAL_PAGES)]);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The run-indexed maps the engine's space management now sits on stay
    /// equivalent to the exhaustive [`BitmapMap`] oracle under blobkit's
    /// insert / update / ghost-cleanup sequences — under every selectable
    /// allocation policy, not just the native lowest-first one.
    #[test]
    fn unit_free_space_matches_bitmap_oracle(ops in prop::collection::vec(arb_space_op(), 1..80)) {
        for policy in lor_alloc::AllocationPolicy::ALL {
            check_against_oracle(policy, &ops)?;
        }
    }
}

/// Operations for the placement proptest: the foreground workload plus
/// explicit budgeted compaction steps.
#[derive(Debug, Clone)]
enum PlacedOp {
    /// Insert a new object of `size` bytes.
    Insert { size: u64 },
    /// Replace the live object at this modular index with a new version.
    Update { index: usize, size: u64 },
    /// Delete the live object at this modular index.
    Delete { index: usize },
    /// Run ghost cleanup now.
    Cleanup,
    /// Run one budgeted compaction step.
    Compact { page_budget: u64 },
}

fn arb_placed_op() -> impl Strategy<Value = PlacedOp> {
    prop_oneof![
        4 => (1u64..2 * MB).prop_map(|size| PlacedOp::Insert { size }),
        4 => (0usize..64, 1u64..2 * MB).prop_map(|(index, size)| PlacedOp::Update { index, size }),
        2 => (0usize..64).prop_map(|index| PlacedOp::Delete { index }),
        2 => Just(PlacedOp::Cleanup),
        3 => (0u64..256).prop_map(|page_budget| PlacedOp::Compact { page_budget }),
    ]
}

/// The largest free run (in pages) inside the foreground band, measured on
/// the combined page-level availability (unit free pages plus unassigned GAM
/// extents) clipped to `[0, boundary_page)`.
fn foreground_band_largest(db: &Database, boundary_page: u64) -> u64 {
    combined_free_runs(db.lob_unit(), db.gam())
        .into_iter()
        .filter_map(|run| {
            let end = run.end().min(boundary_page);
            end.checked_sub(run.start).filter(|len| *len > 0)
        })
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under [`lor_alloc::PlacementPolicy::Banded`], a compaction step never
    /// shrinks the foreground band's largest free run, whatever
    /// insert/update/ghost-cleanup/compact sequence surrounds it: the
    /// compactor reserves only inside the maintenance band (refusing rather
    /// than spilling) and its frees can only grow the foreground band.
    #[test]
    fn banded_compaction_never_shrinks_the_foreground_band(
        ops in prop::collection::vec(arb_placed_op(), 1..60),
        boundary in prop_oneof![Just(0.5f64), Just(0.75), Just(0.9)],
    ) {
        let placement = lor_alloc::PlacementPolicy::banded(boundary);
        let mut config = EngineConfig::new(FILE_BYTES);
        config.ghost_cleanup_interval_ops = 0; // cleanup only when the script says so
        config.placement = placement;
        let boundary_page =
            placement.boundary_cluster(config.total_extents()) * PAGES_PER_EXTENT;
        let mut db = Database::create(config).unwrap();
        let mut live: Vec<String> = Vec::new();
        let mut next_key = 0u64;
        for op in ops {
            match op {
                PlacedOp::Insert { size } => {
                    let key = format!("k{next_key}");
                    next_key += 1;
                    if db.insert(&key, size).is_ok() {
                        live.push(key);
                    }
                }
                PlacedOp::Update { index, size } => {
                    if !live.is_empty() {
                        let key = live[index % live.len()].clone();
                        let _ = db.update(&key, size);
                    }
                }
                PlacedOp::Delete { index } => {
                    if !live.is_empty() {
                        let key = live.remove(index % live.len());
                        db.delete(&key).unwrap();
                    }
                }
                PlacedOp::Cleanup => db.ghost_cleanup(),
                PlacedOp::Compact { page_budget } => {
                    let before = foreground_band_largest(&db, boundary_page);
                    db.compact_step(page_budget);
                    let after = foreground_band_largest(&db, boundary_page);
                    prop_assert!(
                        after >= before,
                        "compact step shrank the foreground band's largest \
                         free run ({before} -> {after} pages, boundary {boundary})"
                    );
                }
            }
        }
        // Every surviving object still reads back in full.
        for key in &live {
            let plan = db.read_plan(key).unwrap();
            prop_assert!(plan.iter().map(|r| r.len).sum::<u64>() > 0);
        }
    }
}

/// One operation of the incremental-fragmentation equivalence workload: the
/// foreground mutation mix plus every maintenance path that rewrites layouts
/// behind the tracker's back if a bookkeeping site is missed.
#[derive(Debug, Clone)]
enum FragOp {
    Insert { size: u64 },
    Update { index: usize, size: u64 },
    Delete { index: usize },
    CleanupLimited { pages: u64 },
    Compact { page_budget: u64 },
    Rebuild,
}

fn arb_frag_op() -> impl Strategy<Value = FragOp> {
    prop_oneof![
        4 => (1u64..2 * MB).prop_map(|size| FragOp::Insert { size }),
        4 => (0usize..64, 1u64..2 * MB).prop_map(|(index, size)| FragOp::Update { index, size }),
        2 => (0usize..64).prop_map(|index| FragOp::Delete { index }),
        2 => (1u64..64).prop_map(|pages| FragOp::CleanupLimited { pages }),
        2 => (1u64..64).prop_map(|page_budget| FragOp::Compact { page_budget }),
        1 => Just(FragOp::Rebuild),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any sequence of inserts, updates, deletes, budgeted ghost
    /// cleanups, budgeted compaction steps and filegroup rebuilds, the
    /// engine's O(1)-observable [`Database::fragmentation`] is bit-identical
    /// to [`Database::fragmentation_rescan`], the full walk over every live
    /// blob it replaced.
    #[test]
    fn incremental_fragmentation_matches_full_rescan(
        ops in prop::collection::vec(arb_frag_op(), 1..80)
    ) {
        let mut config = EngineConfig::new(FILE_BYTES);
        config.ghost_cleanup_interval_ops = 1_000_000; // cleanups only where the op says
        let mut db = Database::create(config).unwrap();
        let mut keys: Vec<String> = Vec::new();
        let mut counter = 0u64;

        for op in ops {
            match op {
                FragOp::Insert { size } => {
                    let key = format!("obj-{counter}");
                    counter += 1;
                    if db.insert(&key, size).is_ok() {
                        keys.push(key);
                    }
                }
                FragOp::Update { index, size } => {
                    if keys.is_empty() { continue; }
                    let key = keys[index % keys.len()].clone();
                    let _ = db.update(&key, size);
                }
                FragOp::Delete { index } => {
                    if keys.is_empty() { continue; }
                    let key = keys.swap_remove(index % keys.len());
                    db.delete(&key).unwrap();
                }
                FragOp::CleanupLimited { pages } => {
                    db.ghost_cleanup_limited(pages);
                }
                FragOp::Compact { page_budget } => {
                    db.compact_step(page_budget);
                }
                FragOp::Rebuild => {
                    db.rebuild_into_new_filegroup().unwrap();
                }
            }
            prop_assert_eq!(db.fragmentation(), db.fragmentation_rescan());
        }
    }
}

/// Page-at-a-time reference model of the engine's native placement rules,
/// on plain per-page and per-extent flags:
///
/// * an allocation continues into the page after its last one if that page
///   is free in an owned extent or its extent is unassigned;
/// * otherwise it takes the lowest free page in an owned extent;
/// * otherwise the first page of the lowest unassigned extent;
/// * a page whose extent is unassigned assigns the extent when taken, and an
///   extent returns to the GAM the moment its last page is freed.
struct NativeModel {
    /// Per page: holds data.
    used: Vec<bool>,
    /// Per extent: assigned to the unit.
    owned: Vec<bool>,
}

impl NativeModel {
    fn new(total_extents: u64) -> Self {
        NativeModel {
            used: vec![false; (total_extents * PAGES_PER_EXTENT) as usize],
            owned: vec![false; total_extents as usize],
        }
    }

    fn owned(&self, page: u64) -> bool {
        self.owned[(page / PAGES_PER_EXTENT) as usize]
    }

    /// `true` if an allocation may take `page` (free in an owned extent, or
    /// in an unassigned one).
    fn takeable(&self, page: u64) -> bool {
        (page as usize) < self.used.len() && !self.used[page as usize]
    }

    fn available(&self) -> u64 {
        (0..self.used.len() as u64)
            .filter(|&page| self.takeable(page))
            .count() as u64
    }

    fn allocate(&mut self, count: u64) -> Option<Vec<u64>> {
        if count > self.available() {
            return None;
        }
        let total = self.used.len() as u64;
        let mut pages: Vec<u64> = Vec::new();
        while (pages.len() as u64) < count {
            let page = pages
                .last()
                .map(|last| last + 1)
                .filter(|&next| self.takeable(next))
                .or_else(|| (0..total).find(|&page| self.owned(page) && self.takeable(page)))
                .or_else(|| (0..total).find(|&page| !self.owned(page)))
                .expect("available() covers the request");
            self.owned[(page / PAGES_PER_EXTENT) as usize] = true;
            self.used[page as usize] = true;
            pages.push(page);
        }
        Some(pages)
    }

    fn free(&mut self, page: u64) {
        assert!(self.used[page as usize], "page {page} freed twice");
        self.used[page as usize] = false;
        let extent = page / PAGES_PER_EXTENT;
        let first = (extent * PAGES_PER_EXTENT) as usize;
        if self.used[first..first + PAGES_PER_EXTENT as usize]
            .iter()
            .all(|used| !used)
        {
            self.owned[extent as usize] = false;
        }
    }

    /// The model's free space as coalesced page runs: free pages of owned
    /// extents plus every page of every unassigned extent.
    fn free_runs(&self) -> Vec<Extent> {
        let mut runs: Vec<Extent> = Vec::new();
        for page in (0..self.used.len() as u64).filter(|&page| self.takeable(page)) {
            match runs.last_mut() {
                Some(last) if last.end() == page => last.len += 1,
                _ => runs.push(Extent::new(page, 1)),
            }
        }
        runs
    }
}

/// One operation of the placement-oracle workload at the allocation-unit
/// level: the engine's write mix plus its ghost backlog, drained tail-first.
#[derive(Debug, Clone)]
enum PlacementOp {
    /// Allocate pages for a new object.
    Insert { pages: u64 },
    /// Allocate the replacement version, then ghost the old one.
    Update { index: usize, pages: u64 },
    /// Ghost an object's pages.
    Free { index: usize },
    /// Free the `pages` highest ghost pages (0 = the whole backlog).
    Cleanup { pages: u64 },
}

fn arb_placement_op() -> impl Strategy<Value = PlacementOp> {
    prop_oneof![
        4 => (1u64..48).prop_map(|pages| PlacementOp::Insert { pages }),
        4 => (0usize..64, 1u64..48).prop_map(|(index, pages)| PlacementOp::Update { index, pages }),
        2 => (0usize..64).prop_map(|index| PlacementOp::Free { index }),
        2 => (0u64..40).prop_map(|pages| PlacementOp::Cleanup { pages }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `AllocationUnit::allocate_pages` places every page exactly where the
    /// page-at-a-time reference model of the native rules does, and the
    /// run-granular frees (whole ghost runs, split at the budget) leave the
    /// unit, the GAM and the IAM chain exactly where page-at-a-time frees
    /// leave the model.
    #[test]
    fn native_placement_matches_the_page_at_a_time_model(
        ops in prop::collection::vec(arb_placement_op(), 1..80)
    ) {
        const TOTAL_EXTENTS: u64 = 64;
        let mut gam = Gam::new(TOTAL_EXTENTS);
        let mut unit = AllocationUnit::new(
            lor_blobkit::PageKind::LobData,
            TOTAL_EXTENTS * PAGES_PER_EXTENT,
        );
        let mut model = NativeModel::new(TOTAL_EXTENTS);
        let mut live: Vec<Vec<Extent>> = Vec::new();
        let mut ghosts: Vec<Extent> = Vec::new();

        for op in ops {
            let pages = match op {
                PlacementOp::Insert { pages } | PlacementOp::Update { pages, .. } => pages,
                PlacementOp::Free { .. } | PlacementOp::Cleanup { .. } => 0,
            };
            if pages > 0 {
                let allocated = unit.allocate_pages(&mut gam, pages).ok();
                let expected = model.allocate(pages);
                prop_assert_eq!(
                    allocated.as_ref().map(|runs| pages_of(runs).collect::<Vec<_>>()),
                    expected
                );
                let Some(runs) = allocated else { continue };
                prop_assert!(
                    runs.windows(2).all(|pair| !pair[0].is_followed_by(&pair[1])),
                    "allocation {runs:?} is not coalesced"
                );
                match op {
                    PlacementOp::Update { index, .. } if !live.is_empty() => {
                        let slot = index % live.len();
                        ghosts.extend(std::mem::replace(&mut live[slot], runs));
                    }
                    _ => live.push(runs),
                }
            }
            match op {
                PlacementOp::Free { index } if !live.is_empty() => {
                    ghosts.extend(live.swap_remove(index % live.len()));
                }
                PlacementOp::Cleanup { pages } => {
                    let backlog: u64 = ghosts.iter().map(|run| run.len).sum();
                    let mut left = if pages == 0 { backlog } else { pages.min(backlog) };
                    ghosts.sort_by_key(|run| run.start);
                    while left > 0 {
                        let last = ghosts.last_mut().expect("backlog covers the budget");
                        let freed = if last.len <= left {
                            ghosts.pop().expect("just seen")
                        } else {
                            last.len -= left;
                            Extent::new(last.end(), left)
                        };
                        unit.free_run(&mut gam, freed);
                        for page in freed.start..freed.end() {
                            model.free(page);
                        }
                        left -= freed.len;
                    }
                }
                _ => {}
            }
            prop_assert_eq!(combined_free_runs(&unit, &gam), model.free_runs());
            let owned: Vec<u64> = (0..TOTAL_EXTENTS)
                .filter(|&extent| model.owned[extent as usize])
                .collect();
            prop_assert_eq!(unit.extents().map(|extent| extent.0).collect::<Vec<_>>(), owned);
        }
    }
}
