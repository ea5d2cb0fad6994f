//! Metadata-hierarchy entries: MD1, MD2 and MD3 regions, presence bits, and
//! the Table II region classification.
//!
//! A *region* covers 16 adjacent cachelines. Each node tracks regions in a
//! virtually-tagged MD1 (replacing the TLB on the L1 path) backed by a
//! physically-tagged MD2; the shared MD3 tracks which nodes track each region
//! via **presence bits** (PB) and holds master locations for regions no node
//! owns privately. Exactly one of (MD1 entry, MD2 entry) holds the *active*
//! (authoritative) LI array per node — the MD2 entry's tracking pointer (TP)
//! names the active MD1 entry, if any.
//!
//! All three entry kinds store their LI array as a [`PackedLiArray`] — two
//! `u64` words at the paper's 6-bit-per-line hardware width — so the
//! replacement-cost and validity queries below are single-word SWAR
//! operations rather than 16-element enum scans.

use d2m_common::addr::{NodeId, RegionAddr};

use crate::packed::PackedLiArray;

/// Table II: region classification from the number of presence bits set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionClass {
    /// Not in MD3 at all.
    Uncached,
    /// In MD3 with no PB set: tracked only by MD3 (LLC/memory locations).
    Untracked,
    /// Exactly one PB set: that node owns the region privately; MD3's LIs
    /// are invalid and all coherence is skipped.
    Private,
    /// More than one PB set: shared; MD3's LIs are authoritative for master
    /// locations.
    Shared,
}

/// Classifies a PB mask per Table II (for a region present in MD3).
pub fn classify_pb(pb: u8) -> RegionClass {
    match pb.count_ones() {
        0 => RegionClass::Untracked,
        1 => RegionClass::Private,
        _ => RegionClass::Shared,
    }
}

/// One MD1 entry: virtually tagged (the arena key is the virtual region),
/// carrying the physical region (replacing the TLB translation) and the
/// active LI array while resident.
#[derive(Clone, Copy, Debug)]
pub struct Md1Entry {
    /// Physical region address (MD1 provides translation, paper §II-A).
    pub region: RegionAddr,
    /// Region private bit (P).
    pub private: bool,
    /// Location information, one 6-bit field per cacheline.
    pub li: PackedLiArray,
}

/// Which MD1 a region's active entry lives in (footnote 2: an MD2 field
/// records whether the active LI array is in MD1-I or MD1-D).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Md1Side {
    /// The instruction-side MD1.
    Instruction,
    /// The data-side MD1.
    Data,
}

/// Tracking pointer from an MD2 entry to its active MD1 entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrackingPtr {
    /// Which MD1 array.
    pub side: Md1Side,
    /// Set index within that MD1.
    pub set: u16,
    /// Way within the set.
    pub way: u8,
}

/// One MD2 entry: physically tagged (the arena key is the physical region).
#[derive(Clone, Copy, Debug)]
pub struct Md2Entry {
    /// Region private bit (P).
    pub private: bool,
    /// Location information — authoritative only while `tp` is `None`.
    pub li: PackedLiArray,
    /// Tracking pointer to the active MD1 entry, if the region is active.
    pub tp: Option<TrackingPtr>,
    /// Whether this region's L1-resident lines live in the L1-I (footnote 2:
    /// MD2 records which MD1/L1 side a region is active on).
    pub is_icache: bool,
    /// Saturating count of memory fills observed for this region (cache-
    /// bypass predictor state — the paper's §I "attach properties to each
    /// region" flexibility; see `D2mFeatures::bypass`).
    pub fills: u8,
    /// Saturating count of LLC-level reuse hits for this region.
    pub reuse: u8,
}

impl Md2Entry {
    /// Bypass predictor (when the `bypass` feature is on): a region that has
    /// streamed many lines through memory without a single LLC reuse is not
    /// worth caching in the LLC.
    pub fn predicts_streaming(&self) -> bool {
        self.fills >= 8 && self.reuse == 0
    }
}

impl Md2Entry {
    /// Number of lines this entry tracks inside the node (L1/L2) — the
    /// region-aware MD2 replacement cost (paper §II-A prefers evicting
    /// regions with few cachelines present). A two-popcount SWAR query.
    pub fn node_resident_lines(&self) -> u64 {
        u64::from(self.li.count_node_local())
    }
}

/// One MD3 entry.
#[derive(Clone, Copy, Debug)]
pub struct Md3Entry {
    /// Presence bits: bit *n* set ⇔ node *n* has a valid MD2 entry.
    pub pb: u8,
    /// Master locations; invalid while the region is Private (the owner's
    /// MD1/MD2 is authoritative).
    pub li: PackedLiArray,
}

impl Md3Entry {
    /// Classification per Table II.
    pub fn class(&self) -> RegionClass {
        classify_pb(self.pb)
    }

    /// Nodes with the PB bit set. The bound comes from [`NodeId::MAX_NODES`]
    /// so this iteration cannot diverge from the config validator.
    pub fn pb_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..NodeId::MAX_NODES as u8)
            .filter(|n| self.pb & (1 << n) != 0)
            .map(NodeId::new)
    }

    /// Number of LIs pointing into the LLC — used by the MD3 replacement
    /// policy (prefer evicting regions with little LLC residency). A
    /// two-popcount SWAR query.
    pub fn llc_resident_lines(&self) -> u64 {
        u64::from(self.li.count_llc_resident())
    }
}

/// Simulator-resident metadata footprint: bytes held in the MD structures,
/// derived from entry sizes × configured capacities. Deterministic (pure
/// type-layout arithmetic), so the throughput harness can record it as a
/// comparable JSON field.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MetadataFootprint {
    /// All MD1 entries across both sides and all nodes.
    pub md1_bytes: u64,
    /// All MD2 entries across all nodes.
    pub md2_bytes: u64,
    /// The shared MD3's entries.
    pub md3_bytes: u64,
}

impl MetadataFootprint {
    /// Total metadata bytes.
    pub fn total(&self) -> u64 {
        self.md1_bytes + self.md2_bytes + self.md3_bytes
    }
}

/// Storage comparison from §III-A: per 16-line region across 8 nodes, D2M's
/// metadata (PB(8) + 16×LI(6)) is on par with a traditional fully-mapped
/// directory (16 × 9).
pub fn metadata_bits_per_region() -> (u32, u32) {
    let d2m = 8 + 16 * 6;
    let full_map_dir = 16 * 9;
    (d2m, full_map_dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::li::{Li, LiEncoding};
    use d2m_common::addr::LINES_PER_REGION;

    #[test]
    fn table_ii_classification() {
        assert_eq!(classify_pb(0b0000_0000), RegionClass::Untracked);
        assert_eq!(classify_pb(0b0000_0100), RegionClass::Private);
        assert_eq!(classify_pb(0b0000_0101), RegionClass::Shared);
        assert_eq!(classify_pb(0b1111_1111), RegionClass::Shared);
    }

    #[test]
    fn md3_pb_nodes_enumeration() {
        let e = Md3Entry {
            pb: 0b1000_0010,
            li: PackedLiArray::MEM,
        };
        let nodes: Vec<u8> = e.pb_nodes().map(|n| n.raw()).collect();
        assert_eq!(nodes, vec![1, 7]);
        assert_eq!(e.class(), RegionClass::Shared);
    }

    #[test]
    fn pb_nodes_bound_matches_pb_field_width() {
        // Every bit of the u8 PB field must be visited: a full mask names
        // exactly MAX_NODES nodes.
        let e = Md3Entry {
            pb: u8::MAX,
            li: PackedLiArray::INVALID,
        };
        assert_eq!(e.pb_nodes().count(), NodeId::MAX_NODES);
    }

    #[test]
    fn resident_line_costs() {
        let enc = LiEncoding::FarSide;
        let mut li = [Li::Mem; LINES_PER_REGION];
        li[0] = Li::L1 { way: 0 };
        li[1] = Li::L2 { way: 3 };
        li[2] = Li::LlcFs { way: 9 };
        let li = PackedLiArray::from_array(&li, enc);
        let md2 = Md2Entry {
            private: true,
            li,
            tp: None,
            is_icache: false,
            fills: 0,
            reuse: 0,
        };
        assert_eq!(md2.node_resident_lines(), 2);
        let md3 = Md3Entry { pb: 0, li };
        assert_eq!(md3.llc_resident_lines(), 1);
    }

    #[test]
    fn storage_is_on_par_with_full_map_directory() {
        let (d2m, dir) = metadata_bits_per_region();
        assert_eq!(d2m, 104);
        assert_eq!(dir, 144);
        assert!(d2m <= dir, "paper §III-A: on par or better");
    }

    #[test]
    fn entries_shrank_to_near_hardware_width() {
        // The point of the packing: entry sizes are now dominated by the two
        // LI words, not enum padding. Guard against regressions.
        assert!(std::mem::size_of::<Md2Entry>() <= 32);
        assert!(std::mem::size_of::<Md3Entry>() <= 24);
        assert!(std::mem::size_of::<Md1Entry>() <= 32);
    }
}
