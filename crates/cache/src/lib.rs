//! Generic cache structures shared by the baselines and D2M.
//!
//! * [`banked`] — the one set-associative array engine: a banked arena of
//!   set-associative banks in one contiguous allocation, addressed by
//!   `(bank, set, way)` arithmetic. Per-node structures (MD1s, L1s, L2s,
//!   TLBs, NS-LLC slices) use one bank per node; global ones (a far-side
//!   LLC, MD3) use a single bank. It offers LRU replacement, cost-biased
//!   victim selection (used by the metadata stores' region-aware policies)
//!   and direct `(bank, set, way)` addressing (used by D2M's tag-less data
//!   arrays, which are never searched by key).
//! * [`tlb`] — per-node TLBs with deterministic translation.
//! * [`scramble`] — index-scrambling helpers for the paper's dynamic-indexing
//!   optimization (§IV-D).
//!
//! # Example
//!
//! ```
//! use d2m_cache::Banked;
//!
//! // Two nodes' L1s, 64 sets × 8 ways each.
//! let mut l1: Banked<u32> = Banked::new(2, 64, 8);
//! let set = l1.set_index(0x40);
//! let way = l1.victim_way(1, set);
//! l1.insert_at(1, set, way, 0x40, 7);
//! assert_eq!(l1.get(1, set, 0x40), Some(&7));
//! assert_eq!(l1.peek(0, set, 0x40), None, "node 0's bank is separate");
//! ```

pub mod banked;
pub mod scramble;
pub mod tlb;

pub use banked::Banked;
pub use tlb::Tlb;
