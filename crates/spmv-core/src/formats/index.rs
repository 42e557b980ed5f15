//! Index compression: 16-bit vs 32-bit column/row indices.
//!
//! The paper (Section 4.2) halves index storage by using 2-byte indices whenever a
//! cache block spans fewer than 64K rows/columns. [`IndexStorage`] is that width as
//! a compile-time parameter (`u16` / `u32` / `usize`): every storage format and
//! kernel is generic over it and **monomorphized**, so the compiler emits a
//! separate, branch-free instantiation per width. [`IndexWidth`] is the same choice
//! as a runtime tag, the one a plan records; a cache block matches it once, when
//! the block is built (`crate::blocking::BlockFormat`), never per element.

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
}
