//! Pages and extents: the database engine's units of space.
//!
//! Following SQL Server's layout, the data file is an array of 8 KB pages
//! grouped into extents of 8 pages (64 KB).  BLOB data lives on dedicated
//! LOB pages whose payload is slightly smaller than the page (headers,
//! record overhead), which is one of the reasons a database BLOB occupies a
//! little more disk than the same object stored as a file.

use lor_alloc::Extent;
use serde::{Deserialize, Serialize};

/// Pages per extent (SQL Server: 8).
pub const PAGES_PER_EXTENT: u64 = 8;

/// Identifier of a page within the data file (zero-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageId(pub u64);

impl PageId {
    /// The extent this page belongs to.
    pub const fn extent(self) -> ExtentId {
        ExtentId(self.0 / PAGES_PER_EXTENT)
    }

    /// Position of the page within its extent (`0..PAGES_PER_EXTENT`).
    pub const fn slot_in_extent(self) -> u64 {
        self.0 % PAGES_PER_EXTENT
    }

    /// `true` if `other` is the page physically following `self`.
    pub const fn is_followed_by(self, other: PageId) -> bool {
        other.0 == self.0 + 1
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page:{}", self.0)
    }
}

/// Identifier of an extent (group of [`PAGES_PER_EXTENT`] pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ExtentId(pub u64);

impl ExtentId {
    /// First page of the extent.
    pub const fn first_page(self) -> PageId {
        PageId(self.0 * PAGES_PER_EXTENT)
    }

    /// Iterator over the pages of the extent.
    pub fn pages(self) -> impl Iterator<Item = PageId> {
        (0..PAGES_PER_EXTENT).map(move |slot| PageId(self.0 * PAGES_PER_EXTENT + slot))
    }
}

impl std::fmt::Display for ExtentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "extent:{}", self.0)
    }
}

/// What a page is used for.  Only the distinctions the experiments need are
/// modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageKind {
    /// Out-of-row BLOB data (SQL Server `LOB_DATA`).
    LobData,
    /// Clustered-index rows of the metadata table (`IN_ROW_DATA`).
    RowData,
    /// Allocation metadata (GAM/IAM), charged to the engine itself.
    AllocationMap,
}

/// The pages of a run of whole extents, as one page run.
pub const fn extent_pages(extents: Extent) -> Extent {
    Extent::new(
        extents.start * PAGES_PER_EXTENT,
        extents.len * PAGES_PER_EXTENT,
    )
}

/// Coalesces a layout kept in logical order in place: empty runs go, and a
/// run that physically continues its predecessor merges into it.  In a
/// coalesced layout the fragment count is the run count.
pub(crate) fn coalesce(runs: &mut Vec<Extent>) {
    runs.retain(|run| !run.is_empty());
    runs.dedup_by(|next, last| {
        let continues = last.is_followed_by(next);
        if continues {
            last.len += next.len;
        }
        continues
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_extent_mapping() {
        assert_eq!(PageId(0).extent(), ExtentId(0));
        assert_eq!(PageId(7).extent(), ExtentId(0));
        assert_eq!(PageId(8).extent(), ExtentId(1));
        assert_eq!(PageId(17).slot_in_extent(), 1);
        assert_eq!(ExtentId(2).first_page(), PageId(16));
        let pages: Vec<PageId> = ExtentId(1).pages().collect();
        assert_eq!(pages.len(), PAGES_PER_EXTENT as usize);
        assert_eq!(pages[0], PageId(8));
        assert_eq!(pages[7], PageId(15));
    }

    #[test]
    fn adjacency() {
        assert!(PageId(5).is_followed_by(PageId(6)));
        assert!(!PageId(5).is_followed_by(PageId(7)));
        assert!(!PageId(5).is_followed_by(PageId(5)));
    }

    #[test]
    fn fragment_counting() {
        let layout = |runs: &[Extent]| {
            let mut layout = runs.to_vec();
            coalesce(&mut layout);
            layout
        };
        assert!(layout(&[]).is_empty());
        assert!(layout(&[Extent::new(3, 0)]).is_empty());
        assert_eq!(layout(&[Extent::new(3, 1)]).len(), 1);
        assert_eq!(layout(&[Extent::new(3, 1), Extent::new(4, 2)]).len(), 1);
        assert_eq!(layout(&[Extent::new(3, 1), Extent::new(5, 2)]).len(), 2);
        assert_eq!(layout(&[Extent::new(9, 1), Extent::new(3, 2)]).len(), 2);
    }

    #[test]
    fn run_grouping() {
        let mut runs = vec![
            Extent::new(3, 2),
            Extent::new(7, 0),
            Extent::new(10, 1),
            Extent::new(11, 2),
            Extent::new(2, 1),
        ];
        coalesce(&mut runs);
        assert_eq!(
            runs,
            vec![Extent::new(3, 2), Extent::new(10, 3), Extent::new(2, 1)],
            "only forward-adjacent runs merge; logical order is kept"
        );
        assert_eq!(extent_pages(Extent::new(2, 3)), Extent::new(16, 24));
    }

    #[test]
    fn display_formats() {
        assert_eq!(PageId(4).to_string(), "page:4");
        assert_eq!(ExtentId(9).to_string(), "extent:9");
    }
}
