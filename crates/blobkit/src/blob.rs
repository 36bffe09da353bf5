//! BLOB records: the page map of each stored object.
//!
//! SQL Server stores large out-of-row values as a tree of text/image pages
//! (the Exodus design the paper cites).  For fragmentation purposes what
//! matters is the *ordered sequence of physical pages* holding the object's
//! bytes; the tree's interior nodes are small and cached, so the record here
//! keeps the leaf pages as coalesced runs of physically consecutive pages,
//! in logical order, plus the object's logical size.  A run is one fragment,
//! so the record's fragment count is its run count, and a 10 MB object that
//! aging has scattered over a few hundred runs costs a few hundred entries
//! rather than one per page.

use lor_alloc::Extent;
use lor_disksim::ByteRun;
use serde::{Deserialize, Serialize};

use crate::page::coalesce;

/// Identifier of a stored BLOB.  Never reused within the lifetime of an
/// engine instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlobId(pub u64);

impl std::fmt::Display for BlobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blob#{}", self.0)
    }
}

/// One stored object: its key, logical size, and leaf page runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlobRecord {
    /// Stable identifier.
    pub id: BlobId,
    /// Application key (the metadata table's clustered-index key).
    pub key: String,
    /// Logical size in bytes.
    pub size_bytes: u64,
    /// Leaf page runs in logical order, coalesced: no run physically
    /// continues its predecessor.
    runs: Vec<Extent>,
    /// Leaf pages across all runs.
    page_count: u64,
}

impl BlobRecord {
    /// Creates a record for a freshly inserted object stored on `runs` (page
    /// runs in logical order; physically adjacent neighbours are merged).
    pub fn new(id: BlobId, key: impl Into<String>, size_bytes: u64, runs: Vec<Extent>) -> Self {
        let mut record = BlobRecord {
            id,
            key: key.into(),
            size_bytes,
            runs: Vec::new(),
            page_count: 0,
        };
        record.replace_runs(runs);
        record
    }

    /// The leaf page runs in logical order.
    pub fn runs(&self) -> &[Extent] {
        &self.runs
    }

    /// Number of physically discontiguous page runs (1 = contiguous).
    pub fn fragment_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of leaf pages.
    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    /// Moves the object onto `runs`, returning the runs it occupied before.
    pub(crate) fn replace_runs(&mut self, mut runs: Vec<Extent>) -> Vec<Extent> {
        coalesce(&mut runs);
        self.page_count = runs.iter().map(|run| run.len).sum();
        std::mem::replace(&mut self.runs, runs)
    }

    /// The runs the object occupies, consuming the record.
    pub(crate) fn into_runs(self) -> Vec<Extent> {
        self.runs
    }

    /// The byte runs a sequential scan of the object's leaf pages touches.
    ///
    /// Whole pages are transferred (the engine reads pages, not payload
    /// bytes), so the total transferred exceeds `size_bytes` by the page
    /// header/packing overhead — one of the streaming-rate disadvantages the
    /// folklore attributes to databases.
    pub fn byte_runs(&self, page_size: u64, base_offset: u64) -> Vec<ByteRun> {
        self.runs
            .iter()
            .map(|run| ByteRun::new(base_offset + run.start * page_size, run.len * page_size))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_and_page_counts() {
        let record = BlobRecord::new(
            BlobId(1),
            "k",
            100,
            vec![Extent::new(10, 1), Extent::new(11, 1), Extent::new(20, 3)],
        );
        assert_eq!(record.page_count(), 5);
        assert_eq!(record.fragment_count(), 2);
        assert_eq!(record.runs(), &[Extent::new(10, 2), Extent::new(20, 3)]);
        assert_eq!(BlobId(1).to_string(), "blob#1");
    }

    #[test]
    fn byte_runs_cover_whole_pages() {
        let record = BlobRecord::new(
            BlobId(1),
            "k",
            10_000,
            vec![Extent::new(2, 2), Extent::new(9, 1)],
        );
        let runs = record.byte_runs(8192, 1_000_000);
        assert_eq!(
            runs,
            vec![
                ByteRun::new(1_000_000 + 2 * 8192, 2 * 8192),
                ByteRun::new(1_000_000 + 9 * 8192, 8192)
            ]
        );
        let transferred: u64 = runs.iter().map(|r| r.len).sum();
        assert!(
            transferred >= record.size_bytes,
            "page reads cover at least the payload"
        );
    }

    #[test]
    fn empty_blob_has_no_runs() {
        let record = BlobRecord::new(BlobId(1), "k", 0, Vec::new());
        assert_eq!(record.fragment_count(), 0);
        assert_eq!(record.page_count(), 0);
        assert!(record.byte_runs(8192, 0).is_empty());
    }
}
