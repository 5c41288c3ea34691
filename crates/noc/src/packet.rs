//! Interconnect packets.

use gpumem_types::MemFetch;

/// A packet as components hand it to and take it from a
/// [`crate::Crossbar`].
///
/// Carries the [`MemFetch`] it transports, the destination port index and
/// its size in flits (computed once at injection from the payload size and
/// the configured flit width). Inside the crossbar the body waits in the
/// crossbar's arena and the ports move a 16-byte header instead.
///
/// # Example
///
/// ```
/// use gpumem_noc::Packet;
/// use gpumem_types::{AccessKind, CoreId, FetchId, LineAddr, MemFetch};
///
/// let fetch = MemFetch::new(FetchId::new(1), AccessKind::Load, LineAddr::new(3), CoreId::new(0));
/// // A read request: 8 control bytes at 4-byte flits = 2 flits.
/// let pkt = Packet::new(fetch, 5, 8, 4);
/// assert_eq!(pkt.flits, 2);
/// assert_eq!(pkt.dest, 5);
/// ```
#[derive(Debug, Clone)]
pub struct Packet {
    /// The transported memory request or response.
    pub fetch: MemFetch,
    /// Destination port index on the crossbar.
    pub dest: usize,
    /// Packet length in flits (≥ 1).
    pub flits: u64,
}

impl Packet {
    /// Builds a packet of `bytes` payload segmented into `flit_bytes`
    /// flits.
    ///
    /// # Panics
    ///
    /// Panics if `flit_bytes` is zero or `bytes` is zero.
    #[inline]
    pub fn new(fetch: MemFetch, dest: usize, bytes: u64, flit_bytes: u64) -> Self {
        assert!(flit_bytes > 0, "flit size must be positive");
        assert!(bytes > 0, "packet payload must be positive");
        Packet {
            fetch,
            dest,
            flits: bytes.div_ceil(flit_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_types::{AccessKind, CoreId, FetchId, LineAddr};

    fn fetch() -> MemFetch {
        MemFetch::new(
            FetchId::new(0),
            AccessKind::Load,
            LineAddr::new(0),
            CoreId::new(0),
        )
    }

    #[test]
    fn flit_rounding() {
        assert_eq!(Packet::new(fetch(), 0, 136, 4).flits, 34);
        assert_eq!(Packet::new(fetch(), 0, 136, 16).flits, 9);
        assert_eq!(Packet::new(fetch(), 0, 8, 16).flits, 1);
        assert_eq!(Packet::new(fetch(), 0, 1, 4).flits, 1);
    }

    #[test]
    #[should_panic(expected = "flit size must be positive")]
    fn zero_flit_size_panics() {
        let _ = Packet::new(fetch(), 0, 8, 0);
    }
}
