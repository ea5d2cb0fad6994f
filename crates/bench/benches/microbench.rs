//! Micro-benchmarks of the simulator's hot paths: set-associative lookup,
//! LI pack/unpack, RNG draws, workload generation, and single-access
//! protocol latencies for each system. Runs on the in-tree wall-clock harness
//! ([`d2m_bench::timing`]); `harness = false` in `Cargo.toml`.

use std::hint::black_box;

use d2m_bench::timing::bench;
use d2m_cache::Banked;
use d2m_common::addr::{Asid, NodeId, VAddr};
use d2m_common::{MachineConfig, SimRng};
use d2m_core::{Li, LiEncoding};
use d2m_sim::{AnySystem, SystemKind};
use d2m_workloads::{catalog, Access, AccessKind, TraceGen};

fn bench_banked() {
    let mut arr: Banked<u64> = Banked::new(1, 512, 8);
    for k in 0..4096u64 {
        let set = arr.set_index(k);
        let way = arr.victim_way(0, set);
        arr.insert_at(0, set, way, k, k);
    }
    let mut k = 0u64;
    bench("banked/keyed_lookup_hit", || {
        k = (k + 1) & 4095;
        let set = arr.set_index(k);
        black_box(arr.peek(0, set, k));
    });
    let mut s = 0usize;
    bench("banked/victim_way", || {
        s = (s + 1) & 511;
        black_box(arr.victim_way(0, s));
    });
}

fn bench_li() {
    let mut i = 0u8;
    bench("li/pack_unpack_roundtrip", || {
        i = (i + 1) & 63;
        let li = Li::unpack(i, LiEncoding::NearSide);
        black_box(li.pack(LiEncoding::NearSide).ok());
    });
}

fn bench_rng() {
    let mut rng = SimRng::from_label(1, "bench");
    bench("rng/next_u64", || {
        black_box(rng.next_u64());
    });
    // `TraceGen`'s hot-set draw for private data uses s = 0.6.
    bench("rng/zipf_s0.6", || {
        black_box(rng.zipf(black_box(4096), 0.6));
    });
}

fn bench_tracegen() {
    let spec = catalog::by_name("tpc-c").unwrap();
    let mut gen = TraceGen::new(&spec, 8, 1);
    let mut batch = Vec::new();
    bench("workloads/next_batch_tpcc", || {
        batch.clear();
        black_box(gen.next_batch(&mut batch));
    });
}

fn bench_single_access() {
    let cfg = MachineConfig::default();
    for kind in [SystemKind::Base2L, SystemKind::D2mFs, SystemKind::D2mNsR] {
        let mut sys = AnySystem::build(kind, &cfg, 1);
        // Warm one line so the benchmark measures the L1-hit fast path.
        let a = Access {
            node: NodeId::new(0),
            asid: Asid(0),
            kind: AccessKind::Load,
            vaddr: VAddr::new(0x100_0000),
        };
        sys.access(&a, 0).unwrap();
        let mut now = 1u64;
        bench(&format!("access/l1_hit/{}", kind.name()), || {
            now += 1;
            black_box(sys.access(&a, now).unwrap());
        });
    }
}

fn main() {
    bench_banked();
    bench_li();
    bench_rng();
    bench_tracegen();
    bench_single_access();
}
