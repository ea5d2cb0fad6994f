//! A fixed reference kernel that measures how fast the host is right now.
//!
//! On a shared host, throughput drifts by ±15% over a few minutes, and the
//! two vCPUs are not always equally fast. A run of a few dozen seconds
//! cannot average that out. Every host time in the end-to-end metrics is
//! therefore measured next to this kernel and rescaled by how long the
//! kernel took, relative to its nominal time. The kernel is the benchmark's
//! own code, so no change to the simulator can make it faster or slower.

use std::time::Instant;

/// Steps and nominal host seconds of the kernel run before each sweep, on
/// as many threads as the sweep uses: the median on the host described in
/// README.md.
const SWEEP_STEPS: u64 = 6_000_000;
pub const SWEEP_NOMINAL_S: f64 = 0.12;

/// Steps and nominal host seconds of the kernel run before each set-up
/// round, on the thread that runs the round.
const SETUP_STEPS: u64 = 1_500_000;
pub const SETUP_NOMINAL_S: f64 = 0.025;

/// Lines in each thread's tag array (8 MiB of `u64` tags).
const LINES: usize = 1 << 20;
/// Capacity reserved for the tag array: 40 MiB, above glibc's largest
/// mmap threshold (32 MiB), so the array is always mapped on its own and
/// unmapped when freed. A smaller array would stay in the heap once freed
/// and add 8 MiB per thread to the peak RSS the benchmark reports.
const RESERVED: usize = 5 * LINES;
const WAYS: usize = 8;

/// One thread's share: a frozen 8-way LRU tag-array simulation over a
/// pseudo-random line stream, half of it confined to a small hot range, so
/// that it mixes cache hits and misses the way the simulator's arrays do.
/// Returns the hit count so that the work cannot be optimized away.
fn kernel(seed: u64, steps: u64) -> u64 {
    let mut tags = Vec::with_capacity(RESERVED);
    tags.resize(LINES, u64::MAX);
    let sets = LINES / WAYS;
    let mut x = seed | 1;
    let mut hits = 0;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = if x & 1 == 0 {
            (x >> 8) % 4096
        } else {
            (x >> 8) % (1 << 26)
        };
        let set = (line as usize % sets) * WAYS;
        let ways = &mut tags[set..set + WAYS];
        match ways.iter().position(|&t| t == line) {
            Some(w) => {
                hits += 1;
                ways[..=w].rotate_right(1);
            }
            None => {
                ways.rotate_right(1);
                ways[0] = line;
            }
        }
    }
    hits
}

/// Host seconds for `jobs` threads to run the sweep-sized kernel side by
/// side.
pub fn sweep_s(jobs: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|s| {
        let threads: Vec<_> = (1..=jobs as u64)
            .map(|seed| s.spawn(move || kernel(seed, SWEEP_STEPS)))
            .collect();
        for t in threads {
            std::hint::black_box(t.join().expect("reference kernel thread panicked"));
        }
    });
    started.elapsed().as_secs_f64()
}

/// Host seconds for the set-up-sized kernel on the calling thread, which
/// is the thread the next set-up round runs on.
pub fn setup_s() -> f64 {
    let started = Instant::now();
    std::hint::black_box(kernel(1, SETUP_STEPS));
    started.elapsed().as_secs_f64()
}
