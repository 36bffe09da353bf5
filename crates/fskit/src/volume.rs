//! The volume: files, free space, deferred reuse, and the write paths.
//!
//! The behaviours the paper attributes to NTFS (Section 2 and Section 5.4)
//! are modelled explicitly:
//!
//! * File data is allocated **as it is appended**, in write-request-sized
//!   chunks, *before* the final file size is known — "there is no way to pass
//!   the (known) object size to the file system at file creation".
//! * When sequential appends are detected the allocator **aggressively tries
//!   to extend** the file's last extent (the extension hint).
//! * Allocation is satisfied from a **run-based cache** of free extents that
//!   prefers the outer band and large runs, and fragments the file only as a
//!   last resort ([`lor_alloc::RunCacheAllocator`]).
//! * Space freed by deletion **cannot be reused until the transactional log
//!   commits**; the volume keeps a pending-free queue that is drained by
//!   [`Volume::checkpoint`] (called automatically every
//!   [`VolumeConfig::checkpoint_interval_ops`] operations, or when an
//!   allocation would otherwise fail).
//! * A small **MFT zone** is reserved for metadata so file data never starts
//!   at cluster zero, mirroring NTFS's banded metadata allocation.
//!
//! The volume also implements the interface extension the paper proposes
//! (Section 6): [`Volume::write_file_preallocated`] passes the final object
//! size to the allocator up front, letting experiments quantify how much
//! fragmentation that change removes.

use std::collections::BTreeMap;

use lor_alloc::{
    AllocError, AllocRequest, AllocationPolicy, Allocator, BandOccupancy, CountMultiset, Extent,
    FragmentationSummary, FragmentationTracker, FreeSpace, FreeSpaceReport, PlacementConsumer,
    PlacementPolicy, RunCacheConfig, SelectableAllocator,
};
use lor_disksim::ByteRun;
use serde::{Deserialize, Serialize};

use crate::error::FsError;
use crate::file::{FileId, FileRecord};

/// Configuration of a simulated NTFS-like volume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VolumeConfig {
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Cluster size in bytes (NTFS default: 4 KB).
    pub cluster_size: u64,
    /// Fraction of the volume reserved for the MFT zone (metadata band).
    pub mft_zone_fraction: f64,
    /// Number of mutating operations (writes, deletes, safe writes) between
    /// automatic checkpoints that make deleted space reusable.
    ///
    /// `0` disables the interval-driven checkpoint entirely: pending-free
    /// space then accumulates until either allocation pressure forces a
    /// checkpoint or an external scheduler (the `lor-maint` background
    /// maintenance subsystem) calls [`Volume::checkpoint`] explicitly.
    pub checkpoint_interval_ops: u64,
    /// Tuning of the run-cache allocation policy.
    pub run_cache: RunCacheConfig,
    /// How the volume places file data.  [`AllocationPolicy::Native`] is the
    /// NTFS-style run cache; the fit policies exist for the cross-substrate
    /// ablation benches.
    pub allocation_policy: AllocationPolicy,
    /// Which region of free space each consumer may draw from.
    /// [`PlacementPolicy::Unrestricted`] reproduces the pre-placement
    /// behaviour bit-identically; the banded and reserve variants confine the
    /// online defragmenter so background relocation stops consuming the
    /// contiguous runs foreground writes need.
    pub placement: PlacementPolicy,
    /// Cap, in clusters, of the speculative preallocation performed for
    /// sequentially growing files (0 disables preallocation).
    ///
    /// When sequential appends are detected, NTFS aggressively allocates
    /// contiguous space ahead of the data; the excess is released when the
    /// file is closed.  The model doubles the file's allocation on each
    /// append that needs space, up to this cap, which is what keeps a file
    /// written by one stream in a handful of extents even when other writes
    /// are in flight concurrently.
    pub preallocation_cap_clusters: u64,
}

impl VolumeConfig {
    /// A volume resembling the paper's data volume: 4 KB clusters, a modest
    /// MFT zone, and deleted space becoming reusable after a handful of
    /// operations.
    pub fn new(capacity_bytes: u64) -> Self {
        VolumeConfig {
            capacity_bytes,
            cluster_size: 4096,
            mft_zone_fraction: 0.05,
            checkpoint_interval_ops: 16,
            run_cache: RunCacheConfig::default(),
            allocation_policy: AllocationPolicy::Native,
            placement: PlacementPolicy::Unrestricted,
            preallocation_cap_clusters: 2048,
        }
    }

    /// Overrides the cluster size.
    pub fn with_cluster_size(mut self, cluster_size: u64) -> Self {
        self.cluster_size = cluster_size;
        self
    }

    /// Total clusters on the volume.
    pub fn total_clusters(&self) -> u64 {
        self.capacity_bytes / self.cluster_size
    }

    /// Clusters reserved for the MFT zone.
    pub fn mft_clusters(&self) -> u64 {
        (self.total_clusters() as f64 * self.mft_zone_fraction.clamp(0.0, 0.5)).round() as u64
    }

    fn validate(&self) -> Result<(), FsError> {
        if self.cluster_size == 0 {
            return Err(FsError::BadConfig("cluster size must be non-zero"));
        }
        if self.total_clusters() == 0 {
            return Err(FsError::BadConfig("capacity must be at least one cluster"));
        }
        if !(0.0..=0.5).contains(&self.mft_zone_fraction) {
            return Err(FsError::BadConfig("MFT zone fraction must lie in [0, 0.5]"));
        }
        self.placement.validate().map_err(FsError::BadConfig)?;
        Ok(())
    }
}

/// Counters describing everything a volume has been asked to do.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VolumeStats {
    /// Files created (including temporary safe-write files).
    pub files_created: u64,
    /// Files deleted (including temporary safe-write files that replaced
    /// their targets).
    pub files_deleted: u64,
    /// Safe-write (atomic replace) operations completed.
    pub safe_writes: u64,
    /// Individual append (write-request) operations.
    pub appends: u64,
    /// Extent-allocation events (each may return several extents).
    pub allocation_events: u64,
    /// Total bytes ever written to files (includes rewrites).
    pub bytes_written: u64,
    /// Total bytes of deleted files.
    pub bytes_deleted: u64,
    /// Checkpoints performed (deferred frees made reusable).
    pub checkpoints: u64,
    /// Allocation retries that required an early checkpoint (allocation
    /// pressure forcing a log flush).
    pub forced_checkpoints: u64,
}

/// What a write-path operation did, so callers can charge the disk model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteReceipt {
    /// The file that now holds the data.
    pub file_id: FileId,
    /// Physical byte runs written, in write order (one entry per allocation,
    /// clipped to the bytes actually written into it).
    pub runs: Vec<ByteRun>,
    /// Bytes of file data written.
    pub bytes_written: u64,
}

/// An NTFS-like volume.
#[derive(Debug, Clone)]
pub struct Volume {
    config: VolumeConfig,
    allocator: SelectableAllocator,
    files: BTreeMap<FileId, FileRecord>,
    names: BTreeMap<String, FileId>,
    next_id: u64,
    /// Extents freed by deletions that have not yet been checkpointed; they
    /// are unusable until [`Volume::checkpoint`] runs.
    pending_free: Vec<Extent>,
    ops_since_checkpoint: u64,
    stats: VolumeStats,
    /// Incremental per-file fragment-count accounting: updated at every
    /// layout mutation so [`Volume::fragmentation`] is O(1) in the file
    /// count (the maintenance scheduler observes it every tick).
    frag_tracker: FragmentationTracker,
    /// Allocated-cluster counts of every live file, so the foreground
    /// watermark (largest live allocation) is an O(1) max query instead of a
    /// full scan per defragmented file.
    alloc_tracker: CountMultiset,
}

impl Volume {
    /// Formats a new volume.
    pub fn format(config: VolumeConfig) -> Result<Self, FsError> {
        config.validate()?;
        let mut allocator = SelectableAllocator::with_placement(
            config.allocation_policy,
            config.total_clusters(),
            config.run_cache,
            config.placement,
        );
        let mft = config.mft_clusters();
        if mft > 0 {
            allocator
                .reserve_exact(Extent::new(0, mft))
                .map_err(FsError::from)?;
        }
        Ok(Volume {
            config,
            allocator,
            files: BTreeMap::new(),
            names: BTreeMap::new(),
            next_id: 1,
            pending_free: Vec::new(),
            ops_since_checkpoint: 0,
            stats: VolumeStats::default(),
            frag_tracker: FragmentationTracker::new(),
            alloc_tracker: CountMultiset::new(),
        })
    }

    /// The volume configuration.
    pub fn config(&self) -> &VolumeConfig {
        &self.config
    }

    /// Capacity available to file data (total minus the MFT zone), in bytes.
    pub fn data_capacity_bytes(&self) -> u64 {
        (self.config.total_clusters() - self.config.mft_clusters()) * self.config.cluster_size
    }

    /// Bytes currently free for file data.  Space pending checkpoint counts as
    /// free capacity (it exists) even though it is not yet reusable.
    pub fn free_bytes(&self) -> u64 {
        (self.allocator.free_clusters() + self.pending_clusters()) * self.config.cluster_size
    }

    /// Clusters held in the pending-free queue.
    pub fn pending_clusters(&self) -> u64 {
        self.pending_free.iter().map(|e| e.len).sum()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &VolumeStats {
        &self.stats
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Looks a file up by id.
    pub fn file(&self, id: FileId) -> Result<&FileRecord, FsError> {
        self.files.get(&id).ok_or(FsError::NoSuchFile(id.0))
    }

    /// Looks a file id up by name.
    pub fn lookup(&self, name: &str) -> Result<FileId, FsError> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| FsError::NoSuchName(name.to_string()))
    }

    /// Iterates over all live file records in id order.
    pub fn iter_files(&self) -> impl Iterator<Item = &FileRecord> {
        self.files.values()
    }

    /// Creates an empty file.
    pub fn create(&mut self, name: &str) -> Result<FileId, FsError> {
        if name.is_empty() {
            return Err(FsError::InvalidName(name.to_string()));
        }
        if self.names.contains_key(name) {
            return Err(FsError::NameExists(name.to_string()));
        }
        let id = FileId(self.next_id);
        self.next_id += 1;
        self.files.insert(id, FileRecord::new(id, name));
        self.names.insert(name.to_string(), id);
        self.stats.files_created += 1;
        // An empty file counts as an object with zero fragments and zero
        // allocated clusters.
        self.frag_tracker.record_insert(0);
        self.alloc_tracker.insert(0);
        Ok(id)
    }

    /// Appends `bytes` bytes to a file, allocating clusters as needed.
    ///
    /// This is the paper's append-granular allocation path: each call models
    /// one write request hitting the filesystem, which must allocate without
    /// knowing how much more data will follow.
    pub fn append(&mut self, id: FileId, bytes: u64) -> Result<Vec<ByteRun>, FsError> {
        if bytes == 0 {
            return Ok(Vec::new());
        }
        let (needed, hint, write_offset) = {
            let record = self.files.get(&id).ok_or(FsError::NoSuchFile(id.0))?;
            let allocated = record.allocated_clusters();
            let allocated_bytes = allocated * self.config.cluster_size;
            let new_size = record.size_bytes + bytes;
            let needed_bytes = new_size.saturating_sub(allocated_bytes);
            let needed = needed_bytes.div_ceil(self.config.cluster_size);
            (needed, record.extension_hint(), record.size_bytes)
        };

        let mut new_extents = Vec::new();
        if needed > 0 {
            // Speculative preallocation for sequentially growing files: double
            // the allocation (bounded) so that one writer's file stays in a
            // few large extents even when other writes are in flight.  The
            // excess is trimmed when the file is closed.  If the volume cannot
            // satisfy the speculative request, fall back to the exact need.
            let allocated = self
                .files
                .get(&id)
                .expect("checked above")
                .allocated_clusters();
            let speculative = if self.config.preallocation_cap_clusters > 0 {
                needed.max(allocated.min(self.config.preallocation_cap_clusters))
            } else {
                needed
            };
            let mut request = AllocRequest::best_effort(speculative);
            if let Some(hint) = hint {
                request = request.with_hint(hint);
            }
            new_extents = match self.allocate_with_pressure(&request) {
                Ok(extents) => extents,
                Err(_) if speculative > needed => {
                    let mut fallback = AllocRequest::best_effort(needed);
                    if let Some(hint) = hint {
                        fallback = fallback.with_hint(hint);
                    }
                    self.allocate_with_pressure(&fallback)?
                }
                Err(err) => return Err(err),
            };
            self.stats.allocation_events += 1;
        }

        self.with_layout(id, |record| {
            record.push_extents(&new_extents);
            record.size_bytes += bytes;
        })?;
        self.stats.appends += 1;
        self.stats.bytes_written += bytes;

        // Report the byte runs this append physically wrote: the region from
        // the old end-of-file to the new end-of-file, walked over the extent
        // map.  (Recomputing from the updated record keeps partially-filled
        // final clusters correct.)
        let record = self.files.get(&id).expect("checked above");
        Ok(Self::runs_for_range(
            record,
            self.config.cluster_size,
            write_offset,
            bytes,
        ))
    }

    /// Creates a file and writes `size_bytes` of data in `write_request_size`
    /// chunks — the workload's put path.
    ///
    /// A write the volume cannot hold fails whole: the partially written
    /// file is rolled back ([`Volume::discard`]), so the name stays free and
    /// the free space is what it was before the write.
    pub fn write_file(
        &mut self,
        name: &str,
        size_bytes: u64,
        write_request_size: u64,
    ) -> Result<WriteReceipt, FsError> {
        let id = self.create(name)?;
        let receipt = match self.fill(id, size_bytes, write_request_size) {
            Ok(receipt) => receipt,
            Err(err) => {
                self.discard(id);
                return Err(err);
            }
        };
        self.bump_op();
        Ok(receipt)
    }

    /// Creates a file whose final size is declared up front, allocating all of
    /// it in a single request — the interface extension the paper proposes.
    /// A refused allocation rolls the created file back, as in
    /// [`Volume::write_file`].
    pub fn write_file_preallocated(
        &mut self,
        name: &str,
        size_bytes: u64,
        write_request_size: u64,
    ) -> Result<WriteReceipt, FsError> {
        let id = self.create(name)?;
        let clusters = size_bytes.div_ceil(self.config.cluster_size);
        if clusters > 0 {
            let extents = match self.allocate_with_pressure(&AllocRequest::best_effort(clusters)) {
                Ok(extents) => extents,
                Err(err) => {
                    self.discard(id);
                    return Err(err);
                }
            };
            self.stats.allocation_events += 1;
            self.with_layout(id, |record| record.push_extents(&extents))?;
        }
        // Data is still written in write-request-sized chunks, but no further
        // allocation happens.
        let receipt = self.fill(id, size_bytes, write_request_size)?;
        self.bump_op();
        Ok(receipt)
    }

    /// Rolls back a file whose write was refused: the name is released and
    /// the clusters it received — which never held committed data — return
    /// to the free pool at once, as [`Volume::trim_excess`] returns unused
    /// preallocation, rather than waiting in the pending-free queue.
    fn discard(&mut self, id: FileId) {
        let record = self.files.remove(&id).expect("the discarded file exists");
        self.untrack(&record);
        self.names.remove(&record.name);
        self.stats.files_deleted += 1;
        if !record.extents.is_empty() {
            self.allocator
                .free(&record.extents)
                .expect("a live file's clusters are allocated");
        }
    }

    /// Creates a file for an object migrating in from another shard, placing
    /// its data as the **maintenance** consumer: under a banded or reserve
    /// [`PlacementPolicy`] the allocation is confined to the maintenance
    /// region and *fails* rather than spilling into the space foreground
    /// writes need — that refusal is the placement guarantee cross-shard
    /// rebalancing relies on.
    ///
    /// The object's size is known up front (it already exists on the source
    /// shard), so the whole allocation happens in one best-effort request,
    /// like [`Volume::write_file_preallocated`].  On allocation failure the
    /// just-created empty file is rolled back and the volume is unchanged.
    pub fn ingest_as_maintenance(
        &mut self,
        name: &str,
        size_bytes: u64,
    ) -> Result<WriteReceipt, FsError> {
        let id = self.create(name)?;
        let clusters = size_bytes.div_ceil(self.config.cluster_size);
        if clusters > 0 {
            let watermark = self.foreground_watermark();
            let request = AllocRequest::best_effort(clusters);
            let extents = match self.allocator.allocate_as(
                &request,
                PlacementConsumer::Maintenance {
                    foreground_watermark: watermark,
                },
            ) {
                Ok(extents) => extents,
                Err(err) => {
                    self.discard(id);
                    return Err(FsError::from(err));
                }
            };
            self.stats.allocation_events += 1;
            self.with_layout(id, |record| {
                record.push_extents(&extents);
                record.size_bytes = size_bytes;
            })?;
        }
        self.stats.bytes_written += size_bytes;
        let record = self.files.get(&id).expect("just created");
        let runs = Self::runs_for_range(record, self.config.cluster_size, 0, size_bytes);
        self.bump_op();
        Ok(WriteReceipt {
            file_id: id,
            runs,
            bytes_written: size_bytes,
        })
    }

    /// Appends `size_bytes` in chunks to an existing file, then trims any
    /// speculative preallocation (the "close" of the write).
    fn fill(
        &mut self,
        id: FileId,
        size_bytes: u64,
        write_request_size: u64,
    ) -> Result<WriteReceipt, FsError> {
        let chunk = write_request_size.max(1);
        let mut runs = Vec::new();
        let mut written = 0;
        while written < size_bytes {
            let this = chunk.min(size_bytes - written);
            runs.extend(self.append(id, this)?);
            written += this;
        }
        self.trim_excess(id)?;
        Ok(WriteReceipt {
            file_id: id,
            runs,
            bytes_written: written,
        })
    }

    /// Releases clusters allocated beyond the file's logical size (undoing
    /// speculative preallocation when the file is closed).
    fn trim_excess(&mut self, id: FileId) -> Result<(), FsError> {
        let cluster_size = self.config.cluster_size;
        let mut to_release: Vec<Extent> = Vec::new();
        self.with_layout(id, |record| {
            let needed = record.size_bytes.div_ceil(cluster_size);
            let mut excess = record.allocated_clusters().saturating_sub(needed);
            while excess > 0 {
                let last = record
                    .extents
                    .last_mut()
                    .expect("excess implies extents exist");
                if last.len <= excess {
                    excess -= last.len;
                    to_release.push(*last);
                    record.extents.pop();
                } else {
                    last.len -= excess;
                    to_release.push(Extent::new(last.end(), excess));
                    excess = 0;
                }
            }
        })?;
        for extent in to_release {
            // Preallocated clusters never held committed data, so they return
            // to the free pool immediately rather than via the pending queue.
            self.allocator.free(&[extent]).map_err(FsError::from)?;
        }
        Ok(())
    }

    /// Deletes a file.  Its space goes onto the pending-free queue and becomes
    /// reusable at the next checkpoint.
    pub fn delete(&mut self, id: FileId) -> Result<(), FsError> {
        let record = self.files.remove(&id).ok_or(FsError::NoSuchFile(id.0))?;
        self.untrack(&record);
        self.names.remove(&record.name);
        self.stats.files_deleted += 1;
        self.stats.bytes_deleted += record.size_bytes;
        self.pending_free.extend(record.extents);
        self.bump_op();
        Ok(())
    }

    /// Deletes a file by name.
    pub fn delete_by_name(&mut self, name: &str) -> Result<(), FsError> {
        let id = self.lookup(name)?;
        self.delete(id)
    }

    /// Atomically replaces the contents of `name` with `size_bytes` of new
    /// data, using the safe-write protocol the paper describes: write a
    /// temporary file, force it to disk, then swap it in and delete the old
    /// file.  A refused write rolls the temporary file back
    /// ([`Volume::discard`]) and leaves the old file in place.
    pub fn safe_write(
        &mut self,
        name: &str,
        size_bytes: u64,
        write_request_size: u64,
    ) -> Result<WriteReceipt, FsError> {
        let old_id = self.lookup(name)?;
        let temp_name = format!("~tmp.{}.{}", self.next_id, name);
        let temp_id = self.create(&temp_name)?;
        let receipt = match self.fill(temp_id, size_bytes, write_request_size) {
            Ok(receipt) => receipt,
            Err(err) => {
                self.discard(temp_id);
                return Err(err);
            }
        };

        // ReplaceFile(): the old file is deleted and the temporary file takes
        // over its name.  Both copies coexisted until this point, which is
        // what makes safe writes churn free space.
        let old = self.files.remove(&old_id).expect("old file exists");
        self.untrack(&old);
        self.names.remove(&old.name);
        self.stats.files_deleted += 1;
        self.stats.bytes_deleted += old.size_bytes;
        self.pending_free.extend(old.extents);

        self.names.remove(&temp_name);
        let record = self.files.get_mut(&temp_id).expect("temp file exists");
        record.name = name.to_string();
        self.names.insert(name.to_string(), temp_id);

        self.stats.safe_writes += 1;
        self.bump_op();
        Ok(WriteReceipt {
            file_id: temp_id,
            ..receipt
        })
    }

    /// Atomically replaces several objects whose writes are in flight at the
    /// same time, as a concurrent web application does.
    ///
    /// The temporary files are created together and their write requests are
    /// appended **round-robin**, so their allocations interleave on disk
    /// exactly as concurrent uploads interleave under NTFS.  This is the
    /// workload property (paper Section 3.2: "applications that concurrently
    /// process unrelated requests complicate the situation") that makes even
    /// constant-size objects fragment over time.
    pub fn safe_write_batch(
        &mut self,
        items: &[(&str, u64)],
        write_request_size: u64,
    ) -> Result<Vec<WriteReceipt>, FsError> {
        let chunk = write_request_size.max(1);
        // Validate and create every temporary file first.  Any failure before
        // the commit loop must delete the temporaries already created, or
        // their names and clusters would be stranded forever.
        let mut staged: Vec<(FileId, FileId, u64, Vec<ByteRun>, u64)> =
            Vec::with_capacity(items.len());
        for (name, size) in items {
            let staging = self.lookup(name).and_then(|old_id| {
                let temp_name = format!("~tmp.{}.{}", self.next_id, name);
                Ok((old_id, self.create(&temp_name)?))
            });
            match staging {
                Ok((old_id, temp_id)) => staged.push((old_id, temp_id, *size, Vec::new(), 0)),
                Err(err) => {
                    self.abort_batch(&staged);
                    return Err(err);
                }
            }
        }

        // Round-robin the write requests across the in-flight temporaries.
        let mut pending = true;
        while pending {
            pending = false;
            let mut failure = None;
            for (_, temp_id, size, runs, written) in staged.iter_mut() {
                if *written < *size {
                    let this = chunk.min(*size - *written);
                    match self.append(*temp_id, this) {
                        Ok(new_runs) => runs.extend(new_runs),
                        Err(err) => {
                            failure = Some(err);
                            break;
                        }
                    }
                    *written += this;
                    if *written < *size {
                        pending = true;
                    }
                }
            }
            if let Some(err) = failure {
                self.abort_batch(&staged);
                return Err(err);
            }
        }

        // Close every temporary file (trimming preallocation), then commit
        // each replacement (ReplaceFile per object).
        for (_, temp_id, _, _, _) in &staged {
            if let Err(err) = self.trim_excess(*temp_id) {
                self.abort_batch(&staged);
                return Err(err);
            }
        }
        let mut receipts = Vec::with_capacity(staged.len());
        for ((name, _), (_, temp_id, size, runs, _)) in items.iter().zip(staged) {
            // Replace whatever holds the name *now*: when one batch names the
            // same target twice, that is the previous item's just-committed
            // temporary, so the batch degenerates to sequential replacement
            // (last writer wins) — the same semantics `update_batch` has.
            let old_id = self.names[*name];
            let old = self.files.remove(&old_id).expect("old file exists");
            self.untrack(&old);
            self.names.remove(&old.name);
            self.stats.files_deleted += 1;
            self.stats.bytes_deleted += old.size_bytes;
            self.pending_free.extend(old.extents);

            let temp_name = self.files.get(&temp_id).expect("temp exists").name.clone();
            self.names.remove(&temp_name);
            let record = self.files.get_mut(&temp_id).expect("temp file exists");
            record.name = name.to_string();
            self.names.insert(name.to_string(), temp_id);

            self.stats.safe_writes += 1;
            self.bump_op();
            receipts.push(WriteReceipt {
                file_id: temp_id,
                runs,
                bytes_written: size,
            });
        }
        Ok(receipts)
    }

    /// Rolls back the temporary files of a failed
    /// [`Volume::safe_write_batch`] ([`Volume::discard`]).  The target
    /// objects themselves were never touched.
    fn abort_batch(&mut self, staged: &[(FileId, FileId, u64, Vec<ByteRun>, u64)]) {
        for (_, temp_id, _, _, _) in staged {
            self.discard(*temp_id);
        }
    }

    /// The byte runs a full sequential read of the file touches.
    pub fn read_plan(&self, id: FileId) -> Result<Vec<ByteRun>, FsError> {
        Ok(self.file(id)?.byte_runs(self.config.cluster_size))
    }

    /// Makes all pending-deleted space reusable (models the NTFS log commit).
    pub fn checkpoint(&mut self) {
        if self.pending_free.is_empty() {
            self.ops_since_checkpoint = 0;
            return;
        }
        let pending = std::mem::take(&mut self.pending_free);
        for extent in pending {
            self.allocator
                .free(&[extent])
                .expect("pending extents were allocated and are freed exactly once");
        }
        self.ops_since_checkpoint = 0;
        self.stats.checkpoints += 1;
    }

    /// Per-object fragment counts (the paper's headline metric).
    ///
    /// Answered from the incremental tracker in O(distinct fragment counts)
    /// — independent of the number of live files, so the maintenance
    /// scheduler can observe it every tick.
    pub fn fragmentation(&self) -> FragmentationSummary {
        self.frag_tracker.summary()
    }

    /// Full-scan recompute of [`Volume::fragmentation`] — the oracle the
    /// property tests compare the incremental tracker against.
    pub fn fragmentation_rescan(&self) -> FragmentationSummary {
        FragmentationSummary::from_layouts(self.files.values().map(|f| f.extents.as_slice()))
    }

    /// Free-space shape report.
    pub fn free_space_report(&self) -> FreeSpaceReport {
        FreeSpaceReport::from_free_space(self.allocator.free_space())
    }

    /// Occupancy of the placement bands over the volume's clusters — the
    /// probe-tick gauge behind "is maintenance crowding the foreground
    /// band?".  Under [`PlacementPolicy::Unrestricted`] the whole volume is
    /// the foreground band.
    pub fn band_occupancy(&self) -> BandOccupancy {
        let map = self.allocator.free_space();
        let total = map.total_clusters();
        let boundary = self.config.placement.boundary_cluster(total);
        BandOccupancy::from_runs(total, boundary, &map.free_runs())
    }

    /// Read-only access to the allocator's free-space map, for placement
    /// instrumentation (the proptests measure the foreground band's largest
    /// free run across defragmentation steps).
    pub fn free_space(&self) -> &lor_alloc::RunIndexMap {
        self.allocator.free_space()
    }

    /// The placement policy in effect.
    pub fn placement(&self) -> PlacementPolicy {
        self.config.placement
    }

    /// The largest contiguous allocation (in clusters) a single foreground
    /// operation could still need: the allocation of the largest live file,
    /// since a safe write stages a complete replacement copy of its target.
    /// The [`PlacementPolicy::Reserve`] variant forbids maintenance from
    /// consuming any free run longer than this watermark.
    pub fn foreground_watermark(&self) -> u64 {
        self.alloc_tracker.max().unwrap_or(0)
    }

    /// Direct (reserve-exact) access to the allocator for test fixtures such
    /// as the pathological fragmenter.
    pub(crate) fn allocator_mut(&mut self) -> &mut SelectableAllocator {
        &mut self.allocator
    }

    /// Mutable access to a file record, bypassing the incremental
    /// fragmentation accounting.  Only the legacy-equivalence test uses this
    /// — production extent-map mutations go through
    /// [`Volume::replace_extents`] / `with_layout` so the trackers stay in
    /// step.
    #[cfg(test)]
    pub(crate) fn file_mut(&mut self, id: FileId) -> Result<&mut FileRecord, FsError> {
        self.files.get_mut(&id).ok_or(FsError::NoSuchFile(id.0))
    }

    /// Replaces a file's extent map with a relocated copy of the same data
    /// (the defragmenter's swap), keeping the incremental accounting in
    /// step.
    pub(crate) fn replace_extents(
        &mut self,
        id: FileId,
        new_extents: Vec<Extent>,
    ) -> Result<(), FsError> {
        self.with_layout(id, |record| record.extents = new_extents)
    }

    /// Runs `mutate` over a file record and reconciles the fragmentation and
    /// allocation trackers with the record's before/after layout.  Every
    /// extent-map mutation of a live file must go through here.
    fn with_layout<R>(
        &mut self,
        id: FileId,
        mutate: impl FnOnce(&mut FileRecord) -> R,
    ) -> Result<R, FsError> {
        let record = self.files.get_mut(&id).ok_or(FsError::NoSuchFile(id.0))?;
        let old_fragments = record.fragment_count() as u64;
        let old_clusters = record.allocated_clusters();
        let result = mutate(record);
        let new_fragments = record.fragment_count() as u64;
        let new_clusters = record.allocated_clusters();
        self.frag_tracker
            .record_replace(old_fragments, new_fragments);
        self.alloc_tracker.replace(old_clusters, new_clusters);
        Ok(result)
    }

    /// Removes a just-deleted file from the incremental trackers.
    fn untrack(&mut self, record: &FileRecord) {
        self.frag_tracker
            .record_remove(record.fragment_count() as u64);
        self.alloc_tracker.remove(record.allocated_clusters());
    }

    /// Cluster size shortcut.
    pub fn cluster_size(&self) -> u64 {
        self.config.cluster_size
    }

    /// Allocates, retrying once after a forced checkpoint if the volume is
    /// under allocation pressure (the log flush NTFS would perform).
    fn allocate_with_pressure(&mut self, request: &AllocRequest) -> Result<Vec<Extent>, FsError> {
        match self.allocator.allocate(request) {
            Ok(extents) => Ok(extents),
            Err(AllocError::OutOfSpace { .. }) if !self.pending_free.is_empty() => {
                self.stats.forced_checkpoints += 1;
                self.checkpoint();
                self.allocator.allocate(request).map_err(FsError::from)
            }
            Err(err) => Err(FsError::from(err)),
        }
    }

    /// Counts a completed mutating operation and checkpoints when due.
    fn bump_op(&mut self) {
        self.ops_since_checkpoint += 1;
        if self.config.checkpoint_interval_ops > 0
            && self.ops_since_checkpoint >= self.config.checkpoint_interval_ops
        {
            self.checkpoint();
        }
    }

    /// Byte runs for the logical range `[offset, offset + len)` of a file.
    fn runs_for_range(
        record: &FileRecord,
        cluster_size: u64,
        offset: u64,
        len: u64,
    ) -> Vec<ByteRun> {
        if len == 0 {
            return Vec::new();
        }
        let mut runs = Vec::new();
        let mut logical = 0u64; // logical byte position of the current extent's start
        let end = (offset + len).min(record.size_bytes);
        for extent in &record.extents {
            let extent_bytes = extent.len * cluster_size;
            let extent_logical_end = logical + extent_bytes;
            if extent_logical_end > offset && logical < end {
                let from = offset.max(logical);
                let to = end.min(extent_logical_end);
                let physical = extent.start * cluster_size + (from - logical);
                runs.push(ByteRun::new(physical, to - from));
            }
            logical = extent_logical_end;
            if logical >= end {
                break;
            }
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lor_alloc::ExtentListExt;

    const MB: u64 = 1 << 20;

    fn small_volume() -> Volume {
        Volume::format(VolumeConfig::new(256 * MB)).unwrap()
    }

    #[test]
    fn format_reserves_the_mft_zone() {
        let volume = small_volume();
        let report = volume.free_space_report();
        assert_eq!(report.total_clusters, 256 * MB / 4096);
        assert!(report.free_clusters < report.total_clusters);
        assert_eq!(
            volume.data_capacity_bytes(),
            (report.total_clusters - volume.config().mft_clusters()) * 4096
        );
    }

    #[test]
    fn bad_configs_are_rejected() {
        assert!(Volume::format(VolumeConfig {
            cluster_size: 0,
            ..VolumeConfig::new(MB)
        })
        .is_err());
        assert!(Volume::format(VolumeConfig::new(0)).is_err());
        assert!(Volume::format(VolumeConfig {
            mft_zone_fraction: 0.9,
            ..VolumeConfig::new(MB)
        })
        .is_err());
    }

    #[test]
    fn create_write_read_delete_round_trip() {
        let mut volume = small_volume();
        let receipt = volume.write_file("object-1", MB, 64 * 1024).unwrap();
        assert_eq!(receipt.bytes_written, MB);
        let id = volume.lookup("object-1").unwrap();
        assert_eq!(id, receipt.file_id);

        let record = volume.file(id).unwrap();
        assert_eq!(record.size_bytes, MB);
        assert_eq!(record.allocated_clusters(), MB / 4096);

        let plan = volume.read_plan(id).unwrap();
        assert_eq!(plan.iter().map(|r| r.len).sum::<u64>(), MB);

        volume.delete(id).unwrap();
        assert!(volume.lookup("object-1").is_err());
        assert!(volume.read_plan(id).is_err());
    }

    #[test]
    fn refused_writes_leave_no_file_and_no_lost_space() {
        let mut volume = Volume::format(VolumeConfig::new(16 * MB)).unwrap();
        volume.write_file("resident", 8 * MB, 64 * 1024).unwrap();
        let free_before = volume.free_bytes();
        let allocator_free_before = volume.free_space().free_clusters();
        let files_before = volume.file_count();

        // The streamed write runs out of space part-way through.
        assert!(matches!(
            volume.write_file("too-big", 12 * MB, 64 * 1024),
            Err(FsError::Alloc(_))
        ));
        // The preallocated write is refused up front.
        assert!(matches!(
            volume.write_file_preallocated("too-big-too", 12 * MB, 64 * 1024),
            Err(FsError::Alloc(_))
        ));
        for name in ["too-big", "too-big-too"] {
            assert!(volume.lookup(name).is_err(), "{name} must not resolve");
        }
        assert_eq!(volume.file_count(), files_before);
        assert_eq!(volume.free_bytes(), free_before);
        assert_eq!(
            volume.free_space().free_clusters(),
            allocator_free_before,
            "the refused writes' clusters are reusable at once"
        );
        assert_eq!(volume.fragmentation(), volume.fragmentation_rescan());

        // The names and the space are genuinely free again.
        volume.write_file("too-big", 4 * MB, 64 * 1024).unwrap();
        volume
            .write_file_preallocated("too-big-too", 2 * MB, 64 * 1024)
            .unwrap();
    }

    #[test]
    fn refused_replacements_and_ingests_leave_the_volume_unchanged() {
        let mut config = VolumeConfig::new(16 * MB);
        config.checkpoint_interval_ops = 1_000_000; // effectively manual
        let mut volume = Volume::format(config).unwrap();
        volume.write_file("resident", 4 * MB, 64 * 1024).unwrap();
        volume.write_file("other", MB, 64 * 1024).unwrap();
        let pending_before = volume.pending_clusters();
        let deleted_before = volume.stats().bytes_deleted;
        let ops_before = volume.ops_since_checkpoint;
        let free_before = volume.free_space().free_clusters();
        let unchanged = |volume: &Volume| {
            assert_eq!(volume.pending_clusters(), pending_before);
            assert_eq!(volume.stats().bytes_deleted, deleted_before);
            assert_eq!(volume.ops_since_checkpoint, ops_before);
            assert_eq!(volume.free_space().free_clusters(), free_before);
            assert_eq!(volume.file_count(), 2);
            assert_eq!(volume.fragmentation(), volume.fragmentation_rescan());
        };

        // The temporary file runs out of space part-way through.
        assert!(volume.safe_write("resident", 12 * MB, 64 * 1024).is_err());
        unchanged(&volume);
        assert!(volume
            .safe_write_batch(&[("resident", MB), ("other", 12 * MB)], 64 * 1024)
            .is_err());
        unchanged(&volume);
        assert_eq!(
            volume
                .file(volume.lookup("resident").unwrap())
                .unwrap()
                .size_bytes,
            4 * MB
        );

        // A banded ingest refused for lack of maintenance space.
        let mut config = VolumeConfig::new(16 * MB);
        config.placement = PlacementPolicy::banded(0.7);
        let mut volume = Volume::format(config).unwrap();
        volume.write_file("resident", MB, 64 * 1024).unwrap();
        let deleted_before = volume.stats().bytes_deleted;
        let ops_before = volume.ops_since_checkpoint;
        let free_before = volume.free_space().free_clusters();
        assert!(volume.ingest_as_maintenance("migrant", 12 * MB).is_err());
        assert_eq!(volume.pending_clusters(), 0);
        assert_eq!(volume.stats().bytes_deleted, deleted_before);
        assert_eq!(volume.ops_since_checkpoint, ops_before);
        assert_eq!(volume.free_space().free_clusters(), free_before);
        assert!(volume.lookup("migrant").is_err());
    }

    #[test]
    fn duplicate_and_invalid_names_are_rejected() {
        let mut volume = small_volume();
        volume.create("a").unwrap();
        assert!(matches!(volume.create("a"), Err(FsError::NameExists(_))));
        assert!(matches!(volume.create(""), Err(FsError::InvalidName(_))));
    }

    #[test]
    fn sequential_appends_on_a_clean_volume_stay_contiguous() {
        let mut volume = small_volume();
        let receipt = volume.write_file("big", 10 * MB, 64 * 1024).unwrap();
        let record = volume.file(receipt.file_id).unwrap();
        assert_eq!(record.fragment_count(), 1);
        // The write receipt covers every byte exactly once.
        assert_eq!(receipt.runs.iter().map(|r| r.len).sum::<u64>(), 10 * MB);
    }

    #[test]
    fn append_write_receipt_covers_only_the_new_bytes() {
        let mut volume = small_volume();
        let id = volume.create("f").unwrap();
        let first = volume.append(id, 100_000).unwrap();
        let second = volume.append(id, 50_000).unwrap();
        assert_eq!(first.iter().map(|r| r.len).sum::<u64>(), 100_000);
        assert_eq!(second.iter().map(|r| r.len).sum::<u64>(), 50_000);
        // The second append's first byte sits right after the first append's
        // last byte (same cluster, no re-write of earlier data).
        let first_end = first.last().unwrap();
        let second_start = second.first().unwrap();
        assert_eq!(first_end.end(), second_start.offset);
    }

    #[test]
    fn ingest_as_maintenance_respects_the_placement_band() {
        // Banded placement: maintenance may only allocate in the top 30%.
        let mut config = VolumeConfig::new(64 * MB);
        config.placement = PlacementPolicy::banded(0.7);
        let mut volume = Volume::format(config).unwrap();

        let boundary = volume
            .placement()
            .boundary_cluster(volume.config().total_clusters());
        let receipt = volume.ingest_as_maintenance("migrant", 2 * MB).unwrap();
        assert_eq!(receipt.bytes_written, 2 * MB);
        assert_eq!(receipt.runs.iter().map(|r| r.len).sum::<u64>(), 2 * MB);
        let record = volume.file(receipt.file_id).unwrap();
        for extent in &record.extents {
            assert!(
                extent.start >= boundary,
                "migration wrote into the foreground band: extent at {} < boundary {}",
                extent.start,
                boundary
            );
        }

        // Exhaust the maintenance band: further migration must *fail*, not
        // spill into the foreground band, and must leave no file behind.
        let files_before = volume.file_count();
        let err = volume.ingest_as_maintenance("too-big", 60 * MB);
        assert!(err.is_err());
        assert_eq!(volume.file_count(), files_before);
        assert!(volume.lookup("too-big").is_err());
    }

    #[test]
    fn ingest_as_maintenance_unrestricted_matches_a_plain_write() {
        let mut volume = small_volume();
        let receipt = volume.ingest_as_maintenance("obj", MB).unwrap();
        assert_eq!(receipt.bytes_written, MB);
        let record = volume.file(receipt.file_id).unwrap();
        assert_eq!(record.size_bytes, MB);
        assert_eq!(record.allocated_clusters(), MB / 4096);
        // Size known up front → one allocation, contiguous on a clean volume.
        assert_eq!(record.fragment_count(), 1);
    }

    #[test]
    fn deleted_space_is_not_reusable_until_checkpoint() {
        let mut config = VolumeConfig::new(16 * MB);
        config.checkpoint_interval_ops = 1_000_000; // effectively manual
        config.mft_zone_fraction = 0.0;
        let mut volume = Volume::format(config).unwrap();

        // Fill most of the volume.
        volume.write_file("a", 12 * MB, 64 * 1024).unwrap();
        volume.delete_by_name("a").unwrap();
        assert!(volume.pending_clusters() > 0);

        // Without a checkpoint the space is unavailable, so this large write
        // is forced to trigger the allocation-pressure checkpoint.
        let before = volume.stats().forced_checkpoints;
        volume.write_file("b", 12 * MB, 64 * 1024).unwrap();
        assert_eq!(volume.stats().forced_checkpoints, before + 1);
    }

    #[test]
    fn checkpoint_makes_space_reusable() {
        let mut volume = small_volume();
        let receipt = volume.write_file("a", 4 * MB, 64 * 1024).unwrap();
        let free_before = volume.free_space_report().free_clusters;
        volume.delete(receipt.file_id).unwrap();
        volume.checkpoint();
        let free_after = volume.free_space_report().free_clusters;
        assert_eq!(free_after, free_before + 4 * MB / 4096);
        assert_eq!(volume.pending_clusters(), 0);
    }

    #[test]
    fn safe_write_replaces_contents_and_keeps_the_name() {
        let mut volume = small_volume();
        volume.write_file("doc", 2 * MB, 64 * 1024).unwrap();
        let old_id = volume.lookup("doc").unwrap();
        let receipt = volume.safe_write("doc", 3 * MB, 64 * 1024).unwrap();
        let new_id = volume.lookup("doc").unwrap();
        assert_ne!(old_id, new_id);
        assert_eq!(new_id, receipt.file_id);
        assert_eq!(volume.file(new_id).unwrap().size_bytes, 3 * MB);
        assert_eq!(volume.file_count(), 1);
        assert_eq!(volume.stats().safe_writes, 1);
        // No temporary file lingers.
        assert!(volume.iter_files().all(|f| !f.name.starts_with("~tmp.")));
    }

    #[test]
    fn batched_safe_writes_interleave_and_fragment() {
        let mut config = VolumeConfig::new(128 * MB);
        config.mft_zone_fraction = 0.0;
        let mut volume = Volume::format(config).unwrap();
        for i in 0..16 {
            volume
                .write_file(&format!("obj-{i}"), 2 * MB, 64 * 1024)
                .unwrap();
        }
        // Several rounds of concurrent (batched) replacement.
        for _ in 0..4 {
            for group in (0..16).collect::<Vec<_>>().chunks(4) {
                let names: Vec<String> = group.iter().map(|i| format!("obj-{i}")).collect();
                let items: Vec<(&str, u64)> = names.iter().map(|n| (n.as_str(), 2 * MB)).collect();
                let receipts = volume.safe_write_batch(&items, 64 * 1024).unwrap();
                assert_eq!(receipts.len(), 4);
                for receipt in &receipts {
                    assert_eq!(receipt.bytes_written, 2 * MB);
                    assert_eq!(receipt.runs.iter().map(|r| r.len).sum::<u64>(), 2 * MB);
                }
            }
        }
        assert_eq!(volume.file_count(), 16);
        // Interleaved writes fragment even though every object has the same size.
        let summary = volume.fragmentation();
        assert!(
            summary.fragments_per_object > 1.5,
            "interleaved safe writes should fragment, got {}",
            summary.fragments_per_object
        );
        // No temporary file lingers and every object reads back in full.
        for i in 0..16 {
            let id = volume.lookup(&format!("obj-{i}")).unwrap();
            assert_eq!(
                volume
                    .read_plan(id)
                    .unwrap()
                    .iter()
                    .map(|r| r.len)
                    .sum::<u64>(),
                2 * MB
            );
        }
    }

    #[test]
    fn safe_write_of_missing_file_fails() {
        let mut volume = small_volume();
        assert!(matches!(
            volume.safe_write("ghost", MB, 64 * 1024),
            Err(FsError::NoSuchName(_))
        ));
    }

    #[test]
    fn duplicate_targets_in_a_batch_degenerate_to_sequential_replacement() {
        let mut volume = small_volume();
        volume.write_file("a", MB, 64 * 1024).unwrap();
        let receipts = volume
            .safe_write_batch(&[("a", 2 * MB), ("a", 3 * MB)], 64 * 1024)
            .unwrap();
        assert_eq!(receipts.len(), 2);
        assert_eq!(volume.file_count(), 1);
        // Last writer wins; the intermediate version's space is reclaimable.
        let id = volume.lookup("a").unwrap();
        assert_eq!(volume.file(id).unwrap().size_bytes, 3 * MB);
        assert_eq!(id, receipts[1].file_id);
        assert!(volume.iter_files().all(|f| !f.name.starts_with("~tmp.")));
        assert_eq!(volume.stats().safe_writes, 2);
    }

    #[test]
    fn failed_batch_safe_write_strands_no_temporaries() {
        // Staging failure: the second name does not exist, after the first
        // item's temporary was already created.
        let mut volume = small_volume();
        volume.write_file("a", MB, 64 * 1024).unwrap();
        let free_before = volume.free_bytes();
        let err = volume
            .safe_write_batch(&[("a", MB), ("missing", MB)], 64 * 1024)
            .unwrap_err();
        assert!(matches!(err, FsError::NoSuchName(_)));
        assert_eq!(volume.file_count(), 1, "only the original object remains");
        assert!(volume.iter_files().all(|f| !f.name.starts_with("~tmp.")));
        assert_eq!(volume.free_bytes(), free_before, "no clusters may leak");

        // Allocation failure mid-round-robin: both replacements in flight
        // need more space than the volume has.
        let mut config = VolumeConfig::new(16 * MB);
        config.mft_zone_fraction = 0.0;
        let mut volume = Volume::format(config).unwrap();
        volume.write_file("x", 6 * MB, 64 * 1024).unwrap();
        volume.write_file("y", 6 * MB, 64 * 1024).unwrap();
        let err = volume
            .safe_write_batch(&[("x", 6 * MB), ("y", 6 * MB)], 64 * 1024)
            .unwrap_err();
        assert!(matches!(err, FsError::Alloc(_)));
        assert_eq!(volume.file_count(), 2, "originals intact");
        assert!(volume.iter_files().all(|f| !f.name.starts_with("~tmp.")));
        for name in ["x", "y"] {
            let id = volume.lookup(name).unwrap();
            let bytes: u64 = volume.read_plan(id).unwrap().iter().map(|r| r.len).sum();
            assert_eq!(bytes, 6 * MB, "{name} still reads back in full");
        }
    }

    #[test]
    fn preallocated_writes_are_contiguous_even_on_a_fragmented_volume() {
        let mut config = VolumeConfig::new(64 * MB);
        config.mft_zone_fraction = 0.0;
        config.checkpoint_interval_ops = 1;
        let mut volume = Volume::format(config).unwrap();

        // Fragment the free space: many small files, delete every other one.
        let ids: Vec<FileId> = (0..256)
            .map(|i| {
                volume
                    .write_file(&format!("pad{i}"), 128 * 1024, 64 * 1024)
                    .unwrap()
                    .file_id
            })
            .collect();
        for id in ids.iter().step_by(2) {
            volume.delete(*id).unwrap();
        }
        volume.checkpoint();

        // An incremental write of 4 MB has to fragment across the holes...
        let incremental = volume.write_file("incremental", 4 * MB, 64 * 1024).unwrap();
        let incremental_fragments = volume.file(incremental.file_id).unwrap().fragment_count();
        // ...while a preallocated write can grab the one large run at the end
        // of the volume in a single piece.
        let preallocated = volume
            .write_file_preallocated("preallocated", 4 * MB, 64 * 1024)
            .unwrap();
        let preallocated_fragments = volume.file(preallocated.file_id).unwrap().fragment_count();
        assert!(
            preallocated_fragments <= incremental_fragments,
            "preallocation must not fragment more ({preallocated_fragments} vs {incremental_fragments})"
        );
        assert_eq!(preallocated_fragments, 1);
    }

    #[test]
    fn stats_track_written_and_deleted_bytes() {
        let mut volume = small_volume();
        volume.write_file("a", MB, 64 * 1024).unwrap();
        volume.write_file("b", 2 * MB, 64 * 1024).unwrap();
        volume.safe_write("a", MB, 64 * 1024).unwrap();
        volume.delete_by_name("b").unwrap();
        let stats = volume.stats();
        assert_eq!(stats.bytes_written, 4 * MB);
        assert_eq!(stats.bytes_deleted, 3 * MB);
        assert_eq!(stats.files_created, 3); // a, b, and the safe-write temp
        assert_eq!(stats.files_deleted, 2); // old a, b
    }

    #[test]
    fn fragmentation_summary_counts_live_files_only() {
        let mut volume = small_volume();
        volume.write_file("a", MB, 64 * 1024).unwrap();
        volume.write_file("b", MB, 64 * 1024).unwrap();
        let summary = volume.fragmentation();
        assert_eq!(summary.objects, 2);
        assert!((summary.fragments_per_object - 1.0).abs() < 1e-9);
        volume.delete_by_name("a").unwrap();
        assert_eq!(volume.fragmentation().objects, 1);
    }

    #[test]
    fn runs_for_range_maps_logical_to_physical() {
        let mut record = FileRecord::new(FileId(1), "x");
        record.push_extents(&[Extent::new(100, 2), Extent::new(300, 2)]);
        record.size_bytes = 4 * 4096;
        // A range spanning the extent boundary.
        let runs = Volume::runs_for_range(&record, 4096, 4096, 8192);
        assert_eq!(
            runs,
            vec![
                ByteRun::new(101 * 4096, 4096),
                ByteRun::new(300 * 4096, 4096)
            ]
        );
        assert!(Volume::runs_for_range(&record, 4096, 0, 0).is_empty());
    }

    #[test]
    fn write_receipt_runs_are_within_the_allocated_extents() {
        let mut volume = small_volume();
        let receipt = volume.write_file("a", 3 * MB + 12345, 64 * 1024).unwrap();
        let record = volume.file(receipt.file_id).unwrap();
        let cluster = volume.cluster_size();
        for run in &receipt.runs {
            let covered = record
                .extents
                .iter()
                .any(|e| run.offset >= e.start * cluster && run.end() <= e.end() * cluster);
            assert!(covered, "write run {run:?} outside allocated extents");
        }
        assert_eq!(
            record.extents.total_clusters(),
            (3 * MB + 12345u64).div_ceil(cluster)
        );
    }
}
