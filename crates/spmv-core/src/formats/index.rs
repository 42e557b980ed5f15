//! Index compression: 16-bit vs 32-bit column/row indices.
//!
//! The paper (Section 4.2) halves index storage by using 2-byte indices whenever a
//! cache block spans fewer than 64K rows/columns. Two mechanisms expose this:
//!
//! * [`IndexStorage`] — a compile-time index-width trait (`u16` / `u32` / `usize`).
//!   Formats and kernels generic over it are **monomorphized**: the compiler emits a
//!   separate, branch-free instantiation per width, and the width is chosen *once*
//!   (at tuning/construction time), never per element. This is the hot path.
//! * [`IndexArray`] — a runtime-width enum used by the cold formats (BCOO, GCSR)
//!   and by footprint accounting, where per-access dispatch cost is irrelevant.
//!
//! What monomorphization buys over consulting the [`IndexArray`] tag on every
//! column-index fetch is timed by `spmv-bench/benches/index_monomorphization.rs`,
//! which keeps a per-access enum-dispatch CSR of its own to compare against.

use crate::error::{Error, Result};

/// The width of the stored indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexWidth {
    /// 2-byte indices; usable when the indexed span is at most `u16::MAX + 1`.
    U16,
    /// 4-byte indices; always usable for the matrices in the evaluation suite.
    U32,
}

impl IndexWidth {
    /// Bytes per stored index.
    pub fn bytes(self) -> usize {
        match self {
            IndexWidth::U16 => 2,
            IndexWidth::U32 => 4,
        }
    }

    /// The narrowest width able to index `span` distinct positions.
    pub fn narrowest_for(span: usize) -> IndexWidth {
        if span <= (u16::MAX as usize) + 1 {
            IndexWidth::U16
        } else {
            IndexWidth::U32
        }
    }

    /// Whether `span` positions can be indexed at this width.
    pub fn fits(self, span: usize) -> bool {
        match self {
            IndexWidth::U16 => span <= (u16::MAX as usize) + 1,
            IndexWidth::U32 => span <= (u32::MAX as usize) + 1,
        }
    }
}

/// A compile-time index width.
///
/// Formats generic over `IndexStorage` (e.g. [`crate::formats::CsrMatrix`],
/// [`crate::formats::BcsrMatrix`]) store their index arrays as `Vec<I>` and widen
/// with [`IndexStorage::to_usize`], which compiles to a single zero-extending move —
/// no branch, no enum tag. The kernel ladder in [`crate::kernels`] is generic over
/// this trait, so every (kernel, width) pair gets its own machine code.
pub trait IndexStorage:
    Copy + Clone + Send + Sync + Eq + Ord + std::hash::Hash + std::fmt::Debug + 'static
{
    /// Bytes per stored index.
    const BYTES: usize;

    /// Largest number of distinct positions this width can index.
    const MAX_SPAN: usize;

    /// The runtime [`IndexWidth`] tag, when one exists (`usize` has none: it is the
    /// uncompressed native width used for row pointers and scratch indices).
    const WIDTH: Option<IndexWidth>;

    /// Short name used in benchmark/report labels.
    const NAME: &'static str;

    /// Widen to `usize`. Must compile to a zero-extension; marked `inline(always)`
    /// in every implementation because it sits in the innermost SpMV loop.
    fn to_usize(self) -> usize;

    /// Narrow from `usize`, failing when the value does not fit.
    fn try_from_usize(v: usize) -> Result<Self>;

    /// Whether `span` distinct positions can be indexed at this width.
    fn fits(span: usize) -> bool {
        span <= Self::MAX_SPAN
    }
}

impl IndexStorage for u16 {
    const BYTES: usize = 2;
    const MAX_SPAN: usize = (u16::MAX as usize) + 1;
    const WIDTH: Option<IndexWidth> = Some(IndexWidth::U16);
    const NAME: &'static str = "u16";

    #[inline(always)]
    fn to_usize(self) -> usize {
        self as usize
    }

    fn try_from_usize(v: usize) -> Result<Self> {
        u16::try_from(v).map_err(|_| Error::IndexWidthOverflow { dimension: v + 1 })
    }
}

impl IndexStorage for u32 {
    const BYTES: usize = 4;
    const MAX_SPAN: usize = (u32::MAX as usize) + 1;
    const WIDTH: Option<IndexWidth> = Some(IndexWidth::U32);
    const NAME: &'static str = "u32";

    #[inline(always)]
    fn to_usize(self) -> usize {
        self as usize
    }

    fn try_from_usize(v: usize) -> Result<Self> {
        u32::try_from(v).map_err(|_| Error::IndexWidthOverflow { dimension: v + 1 })
    }
}

impl IndexStorage for usize {
    const BYTES: usize = std::mem::size_of::<usize>();
    const MAX_SPAN: usize = usize::MAX;
    const WIDTH: Option<IndexWidth> = None;
    const NAME: &'static str = "usize";

    #[inline(always)]
    fn to_usize(self) -> usize {
        self
    }

    fn try_from_usize(v: usize) -> Result<Self> {
        Ok(v)
    }
}

/// A homogeneous array of indices stored at either 16-bit or 32-bit width.
///
/// Runtime-width storage for the cold formats (BCOO, GCSR); the hot CSR/BCSR paths
/// use `Vec<I>` with [`IndexStorage`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexArray {
    /// Compressed 16-bit storage.
    U16(Vec<u16>),
    /// Full 32-bit storage.
    U32(Vec<u32>),
}

impl IndexArray {
    /// Build an index array at the requested width, failing with
    /// [`Error::IndexWidthOverflow`] when a value does not fit.
    pub fn from_usize(values: &[usize], width: IndexWidth) -> Result<Self> {
        match width {
            IndexWidth::U16 => values
                .iter()
                .map(|&v| u16::try_from_usize(v))
                .collect::<Result<Vec<u16>>>()
                .map(IndexArray::U16),
            IndexWidth::U32 => values
                .iter()
                .map(|&v| u32::try_from_usize(v))
                .collect::<Result<Vec<u32>>>()
                .map(IndexArray::U32),
        }
    }

    /// Build an index array using the narrowest width that fits `span`.
    ///
    /// # Panics
    ///
    /// Panics if a value in `values` is `>= span` (caller contract violation).
    pub fn compressed(values: &[usize], span: usize) -> Self {
        Self::from_usize(values, IndexWidth::narrowest_for(span))
            .expect("all values fit the narrowest width for their span")
    }

    /// The width of this array.
    pub fn width(&self) -> IndexWidth {
        match self {
            IndexArray::U16(_) => IndexWidth::U16,
            IndexArray::U32(_) => IndexWidth::U32,
        }
    }

    /// Number of stored indices.
    pub fn len(&self) -> usize {
        match self {
            IndexArray::U16(v) => v.len(),
            IndexArray::U32(v) => v.len(),
        }
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the index at position `i` widened to `usize`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> usize {
        match self {
            IndexArray::U16(v) => v[i] as usize,
            IndexArray::U32(v) => v[i] as usize,
        }
    }

    /// Total bytes of index storage.
    pub fn bytes(&self) -> usize {
        self.len() * self.width().bytes()
    }

    /// Iterate over the indices widened to `usize`.
    pub fn iter(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        match self {
            IndexArray::U16(v) => Box::new(v.iter().map(|&x| x as usize)),
            IndexArray::U32(v) => Box::new(v.iter().map(|&x| x as usize)),
        }
    }

    /// Collect the indices into a `Vec<usize>` (test/debug helper).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrowest_width_selection() {
        assert_eq!(IndexWidth::narrowest_for(10), IndexWidth::U16);
        assert_eq!(IndexWidth::narrowest_for(65_536), IndexWidth::U16);
        assert_eq!(IndexWidth::narrowest_for(65_537), IndexWidth::U32);
    }

    #[test]
    fn width_bytes() {
        assert_eq!(IndexWidth::U16.bytes(), 2);
        assert_eq!(IndexWidth::U32.bytes(), 4);
    }

    #[test]
    fn fits_checks_span() {
        assert!(IndexWidth::U16.fits(65_536));
        assert!(!IndexWidth::U16.fits(65_537));
        assert!(IndexWidth::U32.fits(1 << 30));
    }

    #[test]
    fn storage_trait_constants_agree_with_width_enum() {
        assert_eq!(u16::BYTES, IndexWidth::U16.bytes());
        assert_eq!(u32::BYTES, IndexWidth::U32.bytes());
        assert_eq!(u16::WIDTH, Some(IndexWidth::U16));
        assert_eq!(u32::WIDTH, Some(IndexWidth::U32));
        assert_eq!(<usize as IndexStorage>::WIDTH, None);
        assert!(<u16 as IndexStorage>::fits(65_536));
        assert!(!<u16 as IndexStorage>::fits(65_537));
        assert!(<usize as IndexStorage>::fits(usize::MAX));
    }

    #[test]
    fn storage_round_trips() {
        assert_eq!(u16::try_from_usize(65_535).unwrap().to_usize(), 65_535);
        assert_eq!(u32::try_from_usize(1 << 20).unwrap().to_usize(), 1 << 20);
        assert_eq!(usize::try_from_usize(usize::MAX).unwrap(), usize::MAX);
        assert!(matches!(
            u16::try_from_usize(65_536),
            Err(Error::IndexWidthOverflow { .. })
        ));
        assert!(matches!(
            u32::try_from_usize(1 << 40),
            Err(Error::IndexWidthOverflow { .. })
        ));
    }

    #[test]
    fn compressed_picks_u16_for_small_span() {
        let a = IndexArray::compressed(&[0, 5, 100], 1000);
        assert_eq!(a.width(), IndexWidth::U16);
        assert_eq!(a.to_vec(), vec![0, 5, 100]);
        assert_eq!(a.bytes(), 6);
    }

    #[test]
    fn compressed_picks_u32_for_large_span() {
        let a = IndexArray::compressed(&[0, 70_000], 100_000);
        assert_eq!(a.width(), IndexWidth::U32);
        assert_eq!(a.get(1), 70_000);
        assert_eq!(a.bytes(), 8);
    }

    #[test]
    fn from_usize_errors_on_overflow() {
        assert!(matches!(
            IndexArray::from_usize(&[70_000], IndexWidth::U16),
            Err(Error::IndexWidthOverflow { .. })
        ));
    }

    #[test]
    fn iteration_matches_get() {
        let a = IndexArray::from_usize(&[3, 1, 4, 1, 5], IndexWidth::U32).unwrap();
        let collected: Vec<usize> = a.iter().collect();
        assert_eq!(collected, vec![3, 1, 4, 1, 5]);
        assert_eq!(a.get(2), 4);
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
    }

    #[test]
    fn empty_array() {
        let a = IndexArray::from_usize(&[], IndexWidth::U16).unwrap();
        assert!(a.is_empty());
        assert_eq!(a.bytes(), 0);
    }
}
