//! Catalog-wide trace pinning.
//!
//! Every figure replays traces from [`TraceGen`], so any change to the
//! generator or to the `SimRng` keystream beneath it must leave each
//! workload's access stream bit-identical. This test digests 500 batches
//! (8 nodes, seed 42) of **every** catalog workload — every access field
//! plus each batch's instruction count — and compares against digests
//! recorded from the reference implementation.
//!
//! The tests under `tests/golden/` pin three short traces in full; this
//! table pins the whole catalog over a longer window, at a cost of one
//! `u64` per workload.

use d2m_common::fnv1a_64;
use d2m_workloads::{catalog, AccessKind, TraceGen};

const NODES: usize = 8;
const SEED: u64 = 42;
const BATCHES: usize = 500;

/// `(workload, fnv1a_64 of the encoded stream)`, in catalog order.
const DIGESTS: &[(&str, u64)] = &[
    ("blackscholes", 0x6c778f7364b3d9cd),
    ("bodytrack", 0xd7115703ede79cc7),
    ("canneal", 0xf1e3ffe2ea60004b),
    ("dedup", 0xb0328cdc0256fc47),
    ("facesim", 0xdcc534cf368a0ff9),
    ("ferret", 0xc356e7de0aee3976),
    ("fluidanimate", 0x7603ed90e52e7d49),
    ("freqmine", 0xc460642305d7705c),
    ("raytrace", 0xcc8ca39f62e8066e),
    ("streamcluster", 0xb8daaf62a564e910),
    ("swaptions", 0x4db7da573ffe409d),
    ("vips", 0x62f3e866b9ae6315),
    ("x264", 0xc312af684a17aa70),
    ("barnes", 0xad829ddbb18d172f),
    ("cholesky", 0x6b3d479b0dbda30b),
    ("fft", 0x9d990d0715b4bf05),
    ("fmm", 0x9cf6bd696a341ce4),
    ("lu_cb", 0xb5a35eb70804a47d),
    ("lu_ncb", 0x5babf78dac312727),
    ("ocean_cp", 0xf5a2d6e7e8c4fa76),
    ("radiosity", 0x5c8e28c2afaaa375),
    ("radix", 0xdd0e61ee13c86263),
    ("raytrace.sp", 0xa6eb1faf502153fb),
    ("volrend", 0xee1883523882a29e),
    ("water_nsquared", 0x5fedb161e9c003d5),
    ("water_spatial", 0x5f32f8c57a7a8dbf),
    ("amazon", 0x6e990c52ff712aa0),
    ("answers.yahoo", 0x60f0d3ef08ed7485),
    ("booking", 0x448561bfb3ed7af6),
    ("cnn", 0xb97e0c19ce1feac1),
    ("ebay", 0x423f18928ba451de),
    ("facebook", 0xf71743ad01503e4d),
    ("google", 0x31fbfc3a5f05eb4c),
    ("news.yahoo", 0x5bc4a584fb16465d),
    ("reddit", 0x49705800cbfd1426),
    ("sports.yahoo", 0x47a8c3c4e4e6ac3e),
    ("techcrunch", 0x4f77a0c865b8ae65),
    ("twitter", 0xfb4f9737794d6752),
    ("wikipedia", 0x0eba604b003dd5cc),
    ("youtube", 0x4b224f3e8f4c6f2a),
    ("mix1", 0xb4756f3081cb8930),
    ("mix2", 0xb67368f532c04ec7),
    ("mix3", 0x02f9a984fd98065e),
    ("mix4", 0x1dc1e50aedd47d73),
    ("tpc-c", 0x3c7f64214f1360b2),
];

/// Encodes `BATCHES` batches of `name`'s trace as bytes: per batch the
/// instruction count, then per access node, ASID, kind and address.
fn encoded_stream(name: &str) -> Vec<u8> {
    let spec = catalog::by_name(name).expect("catalog workload");
    let mut gen = TraceGen::new(&spec, NODES, SEED);
    let mut bytes = Vec::new();
    let mut batch = Vec::new();
    for _ in 0..BATCHES {
        batch.clear();
        let insts = gen.next_batch(&mut batch);
        bytes.extend_from_slice(&insts.to_le_bytes());
        for a in &batch {
            bytes.push(a.node.raw());
            bytes.extend_from_slice(&a.asid.0.to_le_bytes());
            bytes.push(match a.kind {
                AccessKind::IFetch => 0,
                AccessKind::Load => 1,
                AccessKind::Store => 2,
            });
            bytes.extend_from_slice(&a.vaddr.raw().to_le_bytes());
        }
    }
    bytes
}

#[test]
fn every_catalog_workload_matches_its_pinned_digest() {
    let names: Vec<String> = catalog::all()
        .expect("catalog builds")
        .into_iter()
        .map(|s| s.name)
        .collect();
    let got: Vec<(String, u64)> = names
        .iter()
        .map(|n| (n.clone(), fnv1a_64(&encoded_stream(n))))
        .collect();
    let table: String = got
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
        .collect();
    let pinned: Vec<&str> = DIGESTS.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names, pinned,
        "the digest table must list the catalog in order; computed table:\n{table}"
    );
    let drifted: Vec<&str> = got
        .iter()
        .zip(DIGESTS)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((n, _), _)| n.as_str())
        .collect();
    assert!(
        drifted.is_empty(),
        "trace stream drifted for {drifted:?}; computed table:\n{table}"
    );
}
