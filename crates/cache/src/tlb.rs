//! TLB model.
//!
//! The baselines consult a TLB1 before every L1 access; D2M replaces TLB1
//! with the virtually-tagged MD1 and only needs a TLB2 on the MD2 path
//! (paper §II-A). Translation itself is the deterministic bijection from
//! [`d2m_common::addr::translate`]; the TLB only models reach, so the
//! hierarchy sees realistic hit/miss behaviour and energy.

use d2m_common::addr::{translate, Asid, PAddr, VAddr};

use crate::banked::Banked;

/// Per-node set-associative TLBs keyed by `(asid, virtual page)`: one bank
/// per node, each with its own entries and LRU order.
#[derive(Clone, Debug)]
pub struct Tlb {
    arr: Banked<()>,
}

impl Tlb {
    /// Creates `banks` TLBs of the given geometry.
    pub fn new(banks: usize, sets: usize, ways: usize) -> Self {
        Self {
            arr: Banked::new(banks, sets, ways),
        }
    }

    fn key(asid: Asid, va: VAddr) -> u64 {
        (va.vpage() << 16) ^ asid.0 as u64
    }

    /// Translates `va` through TLB `bank`, filling the entry on a miss.
    ///
    /// Returns `(paddr, hit)`.
    pub fn access(&mut self, bank: usize, asid: Asid, va: VAddr) -> (PAddr, bool) {
        let key = Self::key(asid, va);
        let set = self.arr.set_index(key);
        let hit = self.arr.get(bank, set, key).is_some();
        if !hit {
            let way = self.arr.victim_way(bank, set);
            self.arr.insert_at(bank, set, way, key, ());
        }
        (translate(asid, va), hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut tlb = Tlb::new(1, 16, 4);
        let va = VAddr::new(0x1234_5000);
        let (p1, h1) = tlb.access(0, Asid(0), va);
        assert!(!h1);
        let (p2, h2) = tlb.access(0, Asid(0), VAddr::new(0x1234_5040));
        assert!(h2, "same page must hit");
        assert_eq!(p1.raw() >> 12, p2.raw() >> 12);
        assert_eq!(p1, translate(Asid(0), va));
    }

    #[test]
    fn distinct_asids_do_not_alias() {
        let mut tlb = Tlb::new(1, 16, 4);
        let va = VAddr::new(0x9000);
        let _ = tlb.access(0, Asid(1), va);
        let (_, h) = tlb.access(0, Asid(2), va);
        assert!(!h, "different ASID must miss");
    }

    #[test]
    fn banks_do_not_share_entries() {
        // One entry per bank: a shared array would let bank 1 hit on bank
        // 0's entry, or let bank 1's fill evict it.
        let mut tlb = Tlb::new(2, 1, 1);
        let (a, b) = (VAddr::new(0x7000), VAddr::new(0x8000));
        assert!(!tlb.access(0, Asid(0), a).1);
        assert!(!tlb.access(1, Asid(0), a).1, "bank 1 hit on bank 0's entry");
        assert!(!tlb.access(1, Asid(0), b).1);
        assert!(tlb.access(0, Asid(0), a).1, "bank 1's fill evicted bank 0");
    }

    #[test]
    fn capacity_misses_occur() {
        let mut tlb = Tlb::new(1, 1, 2);
        for page in 0..4u64 {
            let _ = tlb.access(0, Asid(0), VAddr::new(page << 12));
        }
        // Revisit the first page: evicted by now.
        let (_, h) = tlb.access(0, Asid(0), VAddr::new(0));
        assert!(!h);
    }
}
