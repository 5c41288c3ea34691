//! The memory-request descriptor that flows through the hierarchy.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{CoreId, Cycle, LineAddr, PartitionId};

/// Unique identifier of a [`MemFetch`], assigned at creation and stable for
/// the fetch's whole lifetime (including merges recorded against it).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct FetchId(u64);

impl FetchId {
    /// Creates a fetch id from a raw sequence number.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        FetchId(raw)
    }

    /// Raw sequence number.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for FetchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Whether a memory access reads or writes global memory.
///
/// The simulated L1 data cache is write-through / write-no-allocate (the
/// GPGPU-Sim Fermi default), so stores never occupy L1 lines but do consume
/// miss-queue, interconnect, L2 and DRAM bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A global-memory load. Produces a data response back to the core.
    Load,
    /// A global-memory store. Acknowledged implicitly; no data response
    /// travels back up the hierarchy.
    Store,
}

impl AccessKind {
    /// True for [`AccessKind::Load`].
    #[inline]
    pub const fn is_load(self) -> bool {
        matches!(self, AccessKind::Load)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Load => write!(f, "load"),
            AccessKind::Store => write!(f, "store"),
        }
    }
}

/// An optional [`Cycle`] stamp packed into 8 bytes.
///
/// `Option<Cycle>` is 16 bytes (a `u64` has no niche), which made the ten
/// stamps of a [`FetchTimeline`] 160 of the 200 bytes every queue, heap and
/// crossbar hop moved per [`MemFetch`]. "Unset" is encoded as
/// [`Cycle::NEVER`], which no reachable cycle equals. Serializes exactly
/// like the `Option<Cycle>` it replaces (`null` or the raw cycle).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CycleStamp(u64);

impl CycleStamp {
    /// The unset stamp.
    pub const NONE: CycleStamp = CycleStamp(Cycle::NEVER.raw());

    /// A stamp set to `cycle`.
    #[inline]
    pub const fn at(cycle: Cycle) -> Self {
        debug_assert!(
            cycle.raw() != Cycle::NEVER.raw(),
            "NEVER is the unset stamp"
        );
        CycleStamp(cycle.raw())
    }

    /// The stamped cycle, if set.
    #[inline]
    pub const fn get(self) -> Option<Cycle> {
        if self.0 == Cycle::NEVER.raw() {
            None
        } else {
            Some(Cycle::new(self.0))
        }
    }

    /// True while unset.
    #[inline]
    pub const fn is_none(self) -> bool {
        self.0 == Cycle::NEVER.raw()
    }

    /// True once set.
    #[inline]
    pub const fn is_some(self) -> bool {
        !self.is_none()
    }
}

impl Default for CycleStamp {
    fn default() -> Self {
        CycleStamp::NONE
    }
}

impl From<Option<Cycle>> for CycleStamp {
    #[inline]
    fn from(cycle: Option<Cycle>) -> Self {
        cycle.map_or(CycleStamp::NONE, CycleStamp::at)
    }
}

impl fmt::Debug for CycleStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

impl Serialize for CycleStamp {
    fn to_value(&self) -> serde::Value {
        self.get().to_value()
    }
}

impl Deserialize for CycleStamp {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        Option::<Cycle>::from_value(value).map(CycleStamp::from)
    }

    fn __missing_field(_field: &str) -> Result<Self, serde::DeError> {
        Ok(CycleStamp::NONE)
    }
}

/// Timestamps collected as a fetch traverses the hierarchy.
///
/// All fields start unset and are stamped exactly once by the component
/// that owns the transition. The latency statistics of the Section II
/// experiment (`gpumem::experiments::latency_tolerance`) and the loaded
/// round-trip measurements are derived from these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FetchTimeline {
    /// The core issued the warp memory instruction into the LSU.
    pub issued: CycleStamp,
    /// The access missed in L1 and a fill request was created.
    pub l1_miss: CycleStamp,
    /// The request packet finished injecting into the interconnect.
    pub icnt_inject: CycleStamp,
    /// The request reached the L2 partition's access queue.
    pub l2_arrive: CycleStamp,
    /// The L2 popped the request out of its access queue and looked it up.
    pub l2_serve: CycleStamp,
    /// The request missed in L2 and entered the DRAM path.
    pub dram_arrive: CycleStamp,
    /// The DRAM scheduler selected the request for service (FR-FCFS pop).
    pub dram_issue: CycleStamp,
    /// The DRAM burst completed and the data left the channel.
    pub dram_data: CycleStamp,
    /// The response packet was injected into the response interconnect.
    pub resp_inject: CycleStamp,
    /// The response was delivered back to the L1 / core.
    pub returned: CycleStamp,
}

impl FetchTimeline {
    /// Latency from L1 miss to response delivery, if both ends were stamped.
    ///
    /// This is the quantity on the x-axis of the paper's Fig. 1: the L1 miss
    /// latency.
    pub fn l1_miss_latency(&self) -> Option<u64> {
        match (self.l1_miss.get(), self.returned.get()) {
            (Some(miss), Some(ret)) => Some(ret.since(miss)),
            _ => None,
        }
    }
}

/// A memory request at cache-line granularity.
///
/// One `MemFetch` is created per coalesced access (one per distinct cache
/// line touched by a warp memory instruction). It travels by value through
/// the L1, interconnect, L2 and DRAM models and, for loads, returns to the
/// issuing core where it wakes the warps recorded against its line.
///
/// # Example
///
/// ```
/// use gpumem_types::{AccessKind, CoreId, FetchId, LineAddr, MemFetch};
///
/// let f = MemFetch::new(FetchId::new(0), AccessKind::Load, LineAddr::new(7), CoreId::new(1));
/// assert!(f.kind.is_load());
/// assert_eq!(f.line, LineAddr::new(7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemFetch {
    /// Unique id.
    pub id: FetchId,
    /// Load or store.
    pub kind: AccessKind,
    /// The cache line addressed.
    pub line: LineAddr,
    /// The core that issued the access.
    pub core: CoreId,
    /// The memory partition servicing the line. Assigned when the fetch
    /// leaves the core (address-interleaved across partitions).
    pub partition: Option<PartitionId>,
    /// Set when an L2 writeback created this fetch rather than a core; such
    /// fetches terminate at DRAM and produce no response.
    pub is_writeback: bool,
    /// Hardware warp slot (on `core`) that issued the access; used to route
    /// the completion back to the right warp's scoreboard.
    pub warp_slot: u32,
    /// Per-warp tag identifying which load *instruction* this coalesced
    /// access belongs to (a gather spawns many accesses sharing one tag).
    pub load_tag: u32,
    /// Timestamps.
    pub timeline: FetchTimeline,
}

impl MemFetch {
    /// Size in bytes of a request/response control header on the
    /// interconnect (GPGPU-Sim's default).
    pub(crate) const CONTROL_BYTES: u64 = 8;

    /// Creates a new fetch originating at `core`.
    pub fn new(id: FetchId, kind: AccessKind, line: LineAddr, core: CoreId) -> Self {
        MemFetch {
            id,
            kind,
            line,
            core,
            partition: None,
            is_writeback: false,
            warp_slot: 0,
            load_tag: 0,
            timeline: FetchTimeline::default(),
        }
    }

    /// Creates a writeback (dirty-eviction) fetch from L2 towards DRAM.
    pub fn new_writeback(id: FetchId, line: LineAddr, partition: PartitionId) -> Self {
        MemFetch {
            id,
            kind: AccessKind::Store,
            line,
            core: CoreId::new(0),
            partition: Some(partition),
            is_writeback: true,
            warp_slot: 0,
            load_tag: 0,
            timeline: FetchTimeline::default(),
        }
    }

    /// Size in bytes of the *request* packet for this fetch on the
    /// core→memory interconnect: control only for loads, control + data for
    /// stores.
    pub fn request_bytes(&self, line_bytes: u64) -> u64 {
        match self.kind {
            AccessKind::Load => Self::CONTROL_BYTES,
            AccessKind::Store => Self::CONTROL_BYTES + line_bytes,
        }
    }

    /// Size in bytes of the *response* packet on the memory→core
    /// interconnect. Stores produce no response.
    pub fn response_bytes(&self, line_bytes: u64) -> Option<u64> {
        match self.kind {
            AccessKind::Load => Some(Self::CONTROL_BYTES + line_bytes),
            AccessKind::Store => None,
        }
    }
}

impl fmt::Display for MemFetch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} {} from {}]",
            self.id, self.kind, self.line, self.core
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load() -> MemFetch {
        MemFetch::new(
            FetchId::new(1),
            AccessKind::Load,
            LineAddr::new(2),
            CoreId::new(0),
        )
    }

    #[test]
    fn packet_sizes() {
        let f = load();
        assert_eq!(f.request_bytes(128), 8);
        assert_eq!(f.response_bytes(128), Some(136));

        let s = MemFetch::new(
            FetchId::new(2),
            AccessKind::Store,
            LineAddr::new(2),
            CoreId::new(0),
        );
        assert_eq!(s.request_bytes(128), 136);
        assert_eq!(s.response_bytes(128), None);
    }

    #[test]
    fn timeline_latency() {
        let mut f = load();
        assert_eq!(f.timeline.l1_miss_latency(), None);
        f.timeline.l1_miss = CycleStamp::at(Cycle::new(100));
        f.timeline.returned = CycleStamp::at(Cycle::new(340));
        assert_eq!(f.timeline.l1_miss_latency(), Some(240));
    }

    #[test]
    fn stamp_round_trips_like_option_cycle() {
        assert_eq!(CycleStamp::default().get(), None);
        assert!(CycleStamp::NONE.is_none());
        let s = CycleStamp::at(Cycle::new(7));
        assert!(s.is_some());
        assert_eq!(s.get(), Some(Cycle::new(7)));
        assert_eq!(CycleStamp::from(Some(Cycle::new(7))), s);
        assert_eq!(CycleStamp::from(None), CycleStamp::NONE);
        assert_eq!(format!("{s:?}"), format!("{:?}", Some(Cycle::new(7))));
        // Same wire shape as the Option<Cycle> fields it replaced.
        assert_eq!(s.to_value(), Some(Cycle::new(7)).to_value());
        assert_eq!(CycleStamp::NONE.to_value(), None::<Cycle>.to_value());
        assert_eq!(CycleStamp::from_value(&s.to_value()).unwrap(), s);
    }

    /// ISSUE 13: `MemFetch` moves by value through ~12 queues and both
    /// crossbars every miss; these bounds keep the hot body from silently
    /// regrowing (it was 200 bytes with `Option<Cycle>` stamps).
    #[test]
    fn fetch_body_stays_small() {
        assert!(std::mem::size_of::<CycleStamp>() == 8);
        assert!(std::mem::size_of::<MemFetch>() <= 128);
    }

    #[test]
    fn writeback_has_no_response() {
        let wb = MemFetch::new_writeback(FetchId::new(3), LineAddr::new(9), PartitionId::new(4));
        assert!(wb.is_writeback);
        assert_eq!(wb.response_bytes(128), None);
        assert_eq!(wb.partition, Some(PartitionId::new(4)));
    }

    #[test]
    fn display_is_informative() {
        let s = load().to_string();
        assert!(s.contains("load"));
        assert!(s.contains("core0"));
    }
}
