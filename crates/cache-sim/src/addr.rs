//! Address types and memory accesses.
//!
//! The whole workspace works at 64 B cache-line granularity and 4 KB page
//! granularity. Newtypes keep byte addresses, line addresses, and page
//! numbers from being mixed up.

use core::fmt;

/// log2 of the cache line size (64 B).
pub const LINE_SHIFT: u32 = 6;

/// Cache line size in bytes.
pub const LINE_BYTES: u64 = 1 << LINE_SHIFT;

/// log2 of the page size (4 KB).
pub const PAGE_SHIFT: u32 = 12;

/// Page size in bytes.
pub const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;

/// Cache lines per 4 KB page.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;

/// The address of a 64 B cache line (a byte address shifted right by 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The line containing byte address `byte`.
    #[inline]
    pub fn from_byte_addr(byte: u64) -> Self {
        LineAddr(byte >> LINE_SHIFT)
    }

    /// First byte address of this line.
    #[inline]
    pub fn byte_addr(self) -> u64 {
        self.0 << LINE_SHIFT
    }

    /// The page this line belongs to.
    #[inline]
    pub fn page(self) -> PageId {
        PageId(self.0 >> (PAGE_SHIFT - LINE_SHIFT))
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

/// A virtual page number (byte address shifted right by 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PageId(pub u64);

impl PageId {
    /// The page containing byte address `byte`.
    #[inline]
    pub fn from_byte_addr(byte: u64) -> Self {
        PageId(byte >> PAGE_SHIFT)
    }

    /// First byte address of this page.
    #[inline]
    pub fn byte_addr(self) -> u64 {
        self.0 << PAGE_SHIFT
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page:{:#x}", self.0)
    }
}

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Why an access is traversing the hierarchy.
///
/// Paper Figure 12 separates *demand* misses from *metadata overhead*
/// misses (reuse-distance distribution fetches); stats are kept per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// A regular program load/store.
    Demand,
    /// SLIP distribution-metadata traffic.
    Metadata,
}

/// One memory reference in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Byte address referenced.
    pub addr: u64,
    /// Load or store.
    pub kind: AccessKind,
}

impl Access {
    /// A read of byte address `addr`.
    #[inline]
    pub fn read(addr: u64) -> Self {
        Access {
            addr,
            kind: AccessKind::Read,
        }
    }

    /// A write of byte address `addr`.
    #[inline]
    pub fn write(addr: u64) -> Self {
        Access {
            addr,
            kind: AccessKind::Write,
        }
    }

    /// The cache line this access touches.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr::from_byte_addr(self.addr)
    }

    /// The page this access touches.
    #[inline]
    pub fn page(self) -> PageId {
        PageId::from_byte_addr(self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_round_trip() {
        let a = LineAddr::from_byte_addr(0x12345);
        assert_eq!(a, LineAddr(0x12345 >> 6));
        assert_eq!(a.byte_addr(), 0x12345 & !0x3f);
    }

    #[test]
    fn page_of_line() {
        let a = LineAddr::from_byte_addr(0x5_4321);
        assert_eq!(a.page(), PageId(0x5_4321 >> 12));
        // 64 lines per page.
        assert_eq!(LINES_PER_PAGE, 64);
        let p = PageId(7);
        assert_eq!(LineAddr(7 * 64).page(), p);
        assert_eq!(LineAddr(7 * 64 + 63).page(), p);
    }

    #[test]
    fn access_helpers() {
        let r = Access::read(0x1000);
        let w = Access::write(0x1000);
        assert!(!r.kind.is_write());
        assert!(w.kind.is_write());
        assert_eq!(r.line(), LineAddr(0x40));
        assert_eq!(r.page(), PageId(1));
    }

    #[test]
    fn display_impls() {
        assert_eq!(LineAddr(0x10).to_string(), "line:0x10");
        assert_eq!(PageId(0x10).to_string(), "page:0x10");
    }
}
