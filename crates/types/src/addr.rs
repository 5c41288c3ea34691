//! Byte and cache-line addresses.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A byte address in the simulated GPU's global memory space.
///
/// # Example
///
/// ```
/// use gpumem_types::Addr;
///
/// let a = Addr::new(0x1040);
/// let line = a.line(128);
/// assert_eq!(line.base(128), Addr::new(0x1000));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte offset.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Raw byte offset.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache line containing this address.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line_bytes` is not a power of two.
    #[inline]
    pub const fn line(self, line_bytes: u64) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(self.0 / line_bytes)
    }

    /// Offsets the address by `delta` bytes.
    #[inline]
    pub const fn offset(self, delta: u64) -> Addr {
        Addr(self.0 + delta)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line index: a byte address divided by the line size.
///
/// All traffic below the coalescer operates at line granularity; the memory
/// hierarchy never sees sub-line addresses. Line index arithmetic is used by
/// the L2 partition hash, the cache set mapping and the DRAM bank/row
/// mapping.
///
/// # Example
///
/// ```
/// use gpumem_types::{Addr, LineAddr};
///
/// let line = Addr::new(256).line(128);
/// assert_eq!(line, LineAddr::new(2));
/// assert_eq!(line.base(128), Addr::new(256));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        LineAddr(index)
    }

    /// Raw line index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// First byte address of the line.
    #[inline]
    pub const fn base(self, line_bytes: u64) -> Addr {
        Addr(self.0 * line_bytes)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(index: u64) -> Self {
        LineAddr(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_mapping_roundtrip() {
        let a = Addr::new(0x1234);
        let line = a.line(128);
        assert_eq!(line.index(), 0x1234 / 128);
        assert!(line.base(128).raw() <= a.raw());
        assert!(a.raw() < line.base(128).raw() + 128);
    }

    #[test]
    fn offsets() {
        assert_eq!(Addr::new(10).offset(6), Addr::new(16));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Addr::new(255).to_string(), "0xff");
        assert_eq!(LineAddr::new(2).to_string(), "L0x2");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
    }

    #[test]
    fn adjacent_addresses_same_line() {
        let base = Addr::new(0x4000);
        for i in 0..128 {
            assert_eq!(base.offset(i).line(128), base.line(128));
        }
        assert_ne!(base.offset(128).line(128), base.line(128));
    }
}
