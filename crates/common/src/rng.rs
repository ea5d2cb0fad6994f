//! Deterministic random number generation.
//!
//! Every stochastic component of the simulator (workload generation, random
//! replacement, the NS allocation policy's 80/20 split, …) draws from a
//! [`SimRng`] derived from a master seed plus a component label. Identical
//! configurations therefore produce bit-identical simulations on every
//! platform, which the integration tests assert.
//!
//! The generator is a self-contained ChaCha12 stream cipher in counter mode
//! (no external crates, so the workspace builds without network access); the
//! 12-round variant is the same safety/performance point `rand_chacha`
//! defaults to.

/// Number of ChaCha double-rounds (12 rounds total).
const DOUBLE_ROUNDS: usize = 6;

/// Blocks computed per keystream refill, one per SIMD lane.
const LANES: usize = 8;

/// Bytes of keystream per refill: `LANES` consecutive 64-byte blocks.
const BUF_BYTES: usize = 64 * LANES;

/// Eight ChaCha states side by side: `x[w][k]` is word `w` of lane `k`.
type Lanes = [[u32; LANES]; 16];

/// Eight-lane ChaCha12: writes blocks `c, c+1, …, c+7` of the keystream to
/// `out` in order, where `c` is the 64-bit block counter in words 12/13 of
/// `input` (wrapping at 2^64, like the one-block function advanced by 1).
///
/// Each lane runs the plain scalar block function on its own counter; the
/// word-major layout lets every `wrapping_add` / `^` / `rotate_left` of a
/// quarter-round act on all eight lanes at once, which the compiler turns
/// into 256-bit vector ops when AVX2 is enabled.
///
/// On x86-64 the same body is compiled twice — for AVX2, selected at run
/// time, and for the baseline target — and both produce the same bytes.
fn chacha12_blocks(input: &[u32; 16], out: &mut [u8; BUF_BYTES]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU supports AVX2, checked just above; that
        // is the only requirement of the `target_feature` function.
        unsafe { chacha12_blocks_avx2(input, out) };
        return;
    }
    chacha12_blocks_lanes(input, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn chacha12_blocks_avx2(input: &[u32; 16], out: &mut [u8; BUF_BYTES]) {
    chacha12_blocks_lanes(input, out);
}

#[inline(always)]
fn chacha12_blocks_lanes(input: &[u32; 16], out: &mut [u8; BUF_BYTES]) {
    #[inline(always)]
    fn add(a: [u32; LANES], b: [u32; LANES]) -> [u32; LANES] {
        std::array::from_fn(|k| a[k].wrapping_add(b[k]))
    }
    #[inline(always)]
    fn xor_rotl(a: [u32; LANES], b: [u32; LANES], n: u32) -> [u32; LANES] {
        std::array::from_fn(|k| (a[k] ^ b[k]).rotate_left(n))
    }
    #[inline(always)]
    fn qr(x: &mut Lanes, a: usize, b: usize, c: usize, d: usize) {
        let (mut va, mut vb, mut vc, mut vd) = (x[a], x[b], x[c], x[d]);
        va = add(va, vb);
        vd = xor_rotl(vd, va, 16);
        vc = add(vc, vd);
        vb = xor_rotl(vb, vc, 12);
        va = add(va, vb);
        vd = xor_rotl(vd, va, 8);
        vc = add(vc, vd);
        vb = xor_rotl(vb, vc, 7);
        (x[a], x[b], x[c], x[d]) = (va, vb, vc, vd);
    }
    let mut init: Lanes = input.map(|w| [w; LANES]);
    let counter = u64::from(input[12]) | (u64::from(input[13]) << 32);
    let lane_counter = |k: usize| counter.wrapping_add(k as u64);
    init[12] = std::array::from_fn(|k| lane_counter(k) as u32);
    init[13] = std::array::from_fn(|k| (lane_counter(k) >> 32) as u32);
    let mut x = init;
    for _ in 0..DOUBLE_ROUNDS {
        // Column round.
        qr(&mut x, 0, 4, 8, 12);
        qr(&mut x, 1, 5, 9, 13);
        qr(&mut x, 2, 6, 10, 14);
        qr(&mut x, 3, 7, 11, 15);
        // Diagonal round.
        qr(&mut x, 0, 5, 10, 15);
        qr(&mut x, 1, 6, 11, 12);
        qr(&mut x, 2, 7, 8, 13);
        qr(&mut x, 3, 4, 9, 14);
    }
    for (k, block) in out.chunks_exact_mut(64).enumerate() {
        for (w, bytes) in block.chunks_exact_mut(4).enumerate() {
            bytes.copy_from_slice(&x[w][k].wrapping_add(init[w][k]).to_le_bytes());
        }
    }
}

/// Portable one-block ChaCha12: the reference the eight-lane kernel and
/// [`SimRng`]'s stream are tested against.
#[cfg(test)]
fn chacha12_block_scalar(input: &[u32; 16], out: &mut [u8; 64]) {
    #[inline(always)]
    fn qr(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }
    let mut x = *input;
    for _ in 0..DOUBLE_ROUNDS {
        // Column round.
        qr(&mut x, 0, 4, 8, 12);
        qr(&mut x, 1, 5, 9, 13);
        qr(&mut x, 2, 6, 10, 14);
        qr(&mut x, 3, 7, 11, 15);
        // Diagonal round.
        qr(&mut x, 0, 5, 10, 15);
        qr(&mut x, 1, 6, 11, 12);
        qr(&mut x, 2, 7, 8, 13);
        qr(&mut x, 3, 4, 9, 14);
    }
    for (i, w) in x.iter().enumerate() {
        let sum = w.wrapping_add(input[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&sum.to_le_bytes());
    }
}

/// A deterministic, splittable RNG stream.
///
/// # Example
///
/// ```
/// use d2m_common::rng::SimRng;
///
/// let mut a = SimRng::from_label(42, "workload/canneal/node0");
/// let mut b = SimRng::from_label(42, "workload/canneal/node0");
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    /// ChaCha input; words 12/13 hold the counter of the next unbuffered
    /// block.
    state: [u32; 16],
    /// Eight consecutive keystream blocks.
    buf: [u8; BUF_BYTES],
    /// Next unread byte in `buf`; `BUF_BYTES` means the buffer is exhausted.
    pos: usize,
    /// Memoized Zipf normalizers (see [`SimRng::zipf`]). Inline and
    /// fixed-size so cloning an rng never allocates.
    zipf_cache: [ZipfNorm; ZIPF_CACHE_SLOTS],
    /// Round-robin replacement cursor for `zipf_cache`.
    zipf_next: usize,
}

/// One memoized Zipf normalizer: the `(n, s)` pair (with `s` compared
/// bit-exactly), the harmonic normalizer computed from it and the inverse
/// exponent `1 / (1 - s)`. `n == 0` marks an unused slot — `zipf` never
/// caches `n < 2`.
#[derive(Clone, Copy, Debug)]
struct ZipfNorm {
    n: u64,
    s_bits: u64,
    hn: f64,
    inv_e: f64,
}

const ZIPF_CACHE_SLOTS: usize = 8;

const ZIPF_NORM_EMPTY: ZipfNorm = ZipfNorm {
    n: 0,
    s_bits: 0,
    hn: 0.0,
    inv_e: 0.0,
};

impl SimRng {
    /// Creates a stream from a raw 32-byte ChaCha key.
    pub fn from_seed(key: [u8; 32]) -> Self {
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        // Words 12..16: 64-bit block counter + 64-bit nonce, all zero.
        Self {
            state,
            buf: [0; BUF_BYTES],
            pos: BUF_BYTES,
            zipf_cache: [ZIPF_NORM_EMPTY; ZIPF_CACHE_SLOTS],
            zipf_next: 0,
        }
    }

    /// Derives a stream from a master seed and a component label.
    ///
    /// Distinct labels yield statistically independent streams; the same
    /// `(seed, label)` pair always yields the same stream.
    pub fn from_label(seed: u64, label: &str) -> Self {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        // FNV-1a over the label fills the rest of the key deterministically.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        key[8..16].copy_from_slice(&h.to_le_bytes());
        let mut h2 = h.rotate_left(31) ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in label.as_bytes().iter().rev() {
            h2 ^= *b as u64;
            h2 = h2.wrapping_mul(0x100_0000_01b5);
        }
        key[16..24].copy_from_slice(&h2.to_le_bytes());
        Self::from_seed(key)
    }

    /// Splits off an independent child stream.
    pub fn split(&mut self, label: &str) -> Self {
        Self::from_label(self.next_u64(), label)
    }

    /// Computes the next eight blocks and advances the 64-bit block
    /// counter (words 12/13) past them.
    fn refill(&mut self) {
        chacha12_blocks(&self.state, &mut self.buf);
        let counter = u64::from(self.state[12]) | (u64::from(self.state[13]) << 32);
        let counter = counter.wrapping_add(LANES as u64);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.pos = 0;
    }

    /// Next 32 uniformly random bits.
    ///
    /// A word never spans two 64-byte blocks: when fewer than 4 bytes of
    /// the current block are left (only after an odd-length
    /// [`fill_bytes`](Self::fill_bytes)), they are skipped, as the
    /// one-block generator this stream is pinned to did.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let mut pos = self.pos;
        if pos % 64 > 60 {
            pos = (pos | 63) + 1;
        }
        if pos + 4 > BUF_BYTES {
            self.refill();
            pos = 0;
        }
        let v = u32::from_le_bytes(self.buf[pos..pos + 4].try_into().expect("4 bytes"));
        self.pos = pos + 4;
        v
    }

    /// Next 64 uniformly random bits: the low word first, then the high.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let pos = self.pos;
        // At a word-aligned position both words are the next 8 buffered
        // bytes, even across a block boundary (offset 60).
        if pos.is_multiple_of(4) && pos + 8 <= BUF_BYTES {
            self.pos = pos + 8;
            return u64::from_le_bytes(self.buf[pos..pos + 8].try_into().expect("8 bytes"));
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for b in dest {
            if self.pos >= BUF_BYTES {
                self.refill();
            }
            *b = self.buf[self.pos];
            self.pos += 1;
        }
    }

    /// Uniform value in `[0, bound)` (unbiased via rejection sampling).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // Widening-multiply rejection (Lemire): unbiased, one division in
        // the rare rejection path only.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli draw: true with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits, the standard conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Zipf-distributed rank in `[0, n)` with exponent `s`, computed by
    /// inverse-transform over an approximate harmonic CDF.
    ///
    /// Small ranks are most likely — callers map rank 0 to the hottest item.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        assert!(n > 0);
        if n == 1 {
            return 0;
        }
        // Approximate inverse CDF for the Zipf distribution (bounded Pareto
        // approach): good enough for locality shaping, cheap, deterministic.
        let u = self.unit().max(1e-12);
        if (s - 1.0).abs() < 1e-9 {
            let hn = self.zipf_norm(n, 1.0, |n, _| (n as f64).ln()).hn;
            return ((u * hn).exp() - 1.0).min(n as f64 - 1.0) as u64;
        }
        let e = 1.0 - s;
        let norm = self.zipf_norm(n, s, |n, s| ((n as f64).powf(1.0 - s) - 1.0) / (1.0 - s));
        let x = (1.0 + u * norm.hn * e).powf(norm.inv_e) - 1.0;
        (x.min(n as f64 - 1.0)) as u64
    }

    /// Memoized Zipf normalizer: `compute(n, s)` is a pure function, so its
    /// cached value is the bit-identical `f64` a fresh computation would
    /// produce — the draw sequence does not depend on cache hits. Workloads
    /// sample from a handful of fixed `(n, s)` pairs, which otherwise pay a
    /// second `powf` on every draw (a top profile entry). `s` is compared
    /// bit-exactly; the `s ≈ 1` branch passes a canonical `1.0` because its
    /// normalizer only depends on `n` (and it ignores the infinite
    /// `inv_e`).
    fn zipf_norm(&mut self, n: u64, s: f64, compute: impl Fn(u64, f64) -> f64) -> ZipfNorm {
        let s_bits = s.to_bits();
        for e in &self.zipf_cache {
            if e.n == n && e.s_bits == s_bits {
                return *e;
            }
        }
        let norm = ZipfNorm {
            n,
            s_bits,
            hn: compute(n, s),
            inv_e: 1.0 / (1.0 - s),
        };
        self.zipf_cache[self.zipf_next] = norm;
        self.zipf_next = (self.zipf_next + 1) % ZIPF_CACHE_SLOTS;
        norm
    }
}

/// Derives the seed for one independent stream of a multi-run sweep from a
/// master seed and the stream index.
///
/// The sweep engine gives every (config, workload) pair of a grid its own
/// stream so cells are statistically independent, yet each cell's seed is a
/// pure function of `(master_seed, index)` — results are bit-identical no
/// matter how many worker threads execute the grid or in which order.
///
/// The mix is SplitMix64 over `master_seed + index`, whose output is
/// equidistributed over consecutive indices.
pub fn derive_stream_seed(master_seed: u64, index: u64) -> u64 {
    let mut z = master_seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let mut a = SimRng::from_label(7, "x");
        let mut b = SimRng::from_label(7, "x");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = SimRng::from_label(7, "x");
        let mut b = SimRng::from_label(7, "y");
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_label(1, "x");
        let mut b = SimRng::from_label(2, "x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chacha_keystream_is_nontrivial() {
        // The raw block function must not be an identity or constant map,
        // and consecutive blocks must differ.
        let mut r = SimRng::from_seed([0u8; 32]);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        // Byte-level fill agrees with the word-level view of the stream.
        let mut r1 = SimRng::from_seed([7u8; 32]);
        let mut r2 = SimRng::from_seed([7u8; 32]);
        let mut bytes = [0u8; 8];
        r1.fill_bytes(&mut bytes);
        assert_eq!(u64::from_le_bytes(bytes), r2.next_u64());
    }

    #[test]
    fn eight_lane_kernel_matches_scalar_reference() {
        // Both builds of the eight-lane body (the dispatched one and the
        // baseline-target one) must emit exactly the eight scalar blocks
        // `c..c+8`, including counters whose low word carries into word 13
        // and counters that wrap at 2^64 inside one call.
        let mut state = [0u32; 16];
        for trial in 0u32..64 {
            for (i, w) in state.iter_mut().enumerate() {
                *w = (trial.wrapping_mul(0x9e37_79b9))
                    .wrapping_add((i as u32).wrapping_mul(0x85eb_ca6b));
            }
            state[12] = u32::MAX - (trial % 11);
            if trial % 2 == 0 {
                state[13] = u32::MAX;
            }
            let mut want = [0u8; BUF_BYTES];
            OneBlockRng::new(state).fill_bytes(&mut want);
            let mut dispatched = [0u8; BUF_BYTES];
            let mut portable = [0u8; BUF_BYTES];
            chacha12_blocks(&state, &mut dispatched);
            chacha12_blocks_lanes(&state, &mut portable);
            assert_eq!(
                dispatched, want,
                "dispatched kernel diverged on trial {trial}"
            );
            assert_eq!(portable, want, "portable kernel diverged on trial {trial}");
        }
    }

    /// The one-block generator [`SimRng`]'s stream is pinned to: one scalar
    /// ChaCha12 block per refill, counter +1, and a `next_u32` that drops
    /// the last 1–3 bytes of a block rather than span two blocks.
    struct OneBlockRng {
        state: [u32; 16],
        buf: [u8; 64],
        pos: usize,
    }

    impl OneBlockRng {
        fn new(state: [u32; 16]) -> Self {
            Self {
                state,
                buf: [0; 64],
                pos: 64,
            }
        }

        fn refill(&mut self) {
            chacha12_block_scalar(&self.state, &mut self.buf);
            let (lo, carry) = self.state[12].overflowing_add(1);
            self.state[12] = lo;
            if carry {
                self.state[13] = self.state[13].wrapping_add(1);
            }
            self.pos = 0;
        }

        fn next_u32(&mut self) -> u32 {
            if self.pos + 4 > 64 {
                self.refill();
            }
            let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
            self.pos += 4;
            v
        }

        fn next_u64(&mut self) -> u64 {
            let lo = self.next_u32() as u64;
            let hi = self.next_u32() as u64;
            lo | (hi << 32)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for b in dest {
                if self.pos >= 64 {
                    self.refill();
                }
                *b = self.buf[self.pos];
                self.pos += 1;
            }
        }

        fn below(&mut self, bound: u64) -> u64 {
            let mut x = self.next_u64();
            let mut m = (x as u128) * (bound as u128);
            let mut lo = m as u64;
            if lo < bound {
                let threshold = bound.wrapping_neg() % bound;
                while lo < threshold {
                    x = self.next_u64();
                    m = (x as u128) * (bound as u128);
                    lo = m as u64;
                }
            }
            (m >> 64) as u64
        }

        /// Uncached closed form of [`SimRng::zipf`].
        fn zipf(&mut self, n: u64, s: f64) -> u64 {
            if n == 1 {
                return 0;
            }
            let u = ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(1e-12);
            if (s - 1.0).abs() < 1e-9 {
                let hn = (n as f64).ln();
                return ((u * hn).exp() - 1.0).min(n as f64 - 1.0) as u64;
            }
            let e = 1.0 - s;
            let hn = ((n as f64).powf(e) - 1.0) / e;
            (((1.0 + u * hn * e).powf(1.0 / e) - 1.0).min(n as f64 - 1.0)) as u64
        }
    }

    /// A fresh `SimRng` and its one-block reference, both starting at block
    /// counter `counter`.
    fn twin(seed: u64, counter: u64) -> (SimRng, OneBlockRng) {
        let mut rng = SimRng::from_label(seed, "stream-equivalence");
        rng.state[12] = counter as u32;
        rng.state[13] = (counter >> 32) as u32;
        let reference = OneBlockRng::new(rng.state);
        (rng, reference)
    }

    /// Counters that start mid-stream, carry from word 12 into word 13
    /// within the first refill, or wrap at 2^64 within it.
    const COUNTERS: [u64; 5] = [
        0,
        1000,
        u32::MAX as u64 - 5,
        (7u64 << 32) | (u32::MAX as u64 - 2),
        u64::MAX - 4,
    ];

    #[test]
    fn stream_matches_one_block_reference_under_random_interleavings() {
        for (case, &counter) in COUNTERS.iter().enumerate() {
            for seed in 0..6u64 {
                let (mut rng, mut reference) = twin(seed, counter);
                let mut ops = SimRng::from_label(seed, &format!("ops-{case}"));
                for step in 0..2000 {
                    let what = format!("case {case}, seed {seed}, step {step}");
                    match ops.below(5) {
                        0 => assert_eq!(rng.next_u32(), reference.next_u32(), "next_u32 at {what}"),
                        1 => assert_eq!(rng.next_u64(), reference.next_u64(), "next_u64 at {what}"),
                        2 => {
                            // Bounds just above 2^63 reject about half the
                            // draws, so multi-draw rejection loops occur.
                            let bound = match ops.below(3) {
                                0 => 1 + ops.below(100),
                                1 => (1 << 63) + 1 + ops.below(1 << 20),
                                _ => 1 + ops.next_u64() / 2,
                            };
                            assert_eq!(rng.below(bound), reference.below(bound), "below at {what}");
                        }
                        3 => {
                            let n = 1 + ops.below(5000);
                            let s = [0.45, 0.6, 1.0, 1.15, 1.5][ops.below(5) as usize];
                            assert_eq!(rng.zipf(n, s), reference.zipf(n, s), "zipf at {what}");
                        }
                        _ => {
                            // Mostly odd lengths, to leave unaligned
                            // positions; some long enough to span a refill.
                            let len = if ops.below(8) == 0 {
                                ops.below(1100) as usize
                            } else {
                                2 * ops.below(40) as usize + 1
                            };
                            let mut got = vec![0u8; len];
                            let mut want = vec![0u8; len];
                            rng.fill_bytes(&mut got);
                            reference.fill_bytes(&mut want);
                            assert_eq!(got, want, "fill_bytes({len}) at {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stream_matches_one_block_reference_at_every_offset() {
        // Advance to every byte position of the first 17 blocks — every
        // offset of a 64-byte block, both sides of the 512-byte refill and
        // of the block counter's carry or wrap — then draw a fixed mix.
        for counter in COUNTERS {
            for skip in 0..17 * 64 {
                let (mut rng, mut reference) = twin(3, counter);
                let mut got = vec![0u8; skip];
                let mut want = vec![0u8; skip];
                rng.fill_bytes(&mut got);
                reference.fill_bytes(&mut want);
                assert_eq!(got, want, "skip {skip}, counter {counter:#x}");
                for round in 0..3 {
                    let what = format!("skip {skip}, round {round}, counter {counter:#x}");
                    assert_eq!(rng.next_u32(), reference.next_u32(), "next_u32, {what}");
                    assert_eq!(rng.next_u64(), reference.next_u64(), "next_u64, {what}");
                    let mut a = [0u8; 3];
                    let mut b = [0u8; 3];
                    rng.fill_bytes(&mut a);
                    reference.fill_bytes(&mut b);
                    assert_eq!(a, b, "fill_bytes(3), {what}");
                    assert_eq!(
                        rng.next_u64(),
                        reference.next_u64(),
                        "unaligned next_u64, {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::from_label(1, "bound");
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::from_label(3, "uniform");
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[r.below(8) as usize] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn unit_is_in_range() {
        let mut r = SimRng::from_label(1, "unit");
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_in_range_and_skewed() {
        let mut r = SimRng::from_label(1, "zipf");
        let n = 1000u64;
        let mut low = 0usize;
        for _ in 0..10_000 {
            let v = r.zipf(n, 0.9);
            assert!(v < n);
            if v < n / 10 {
                low += 1;
            }
        }
        // With s=0.9 the hottest decile should attract well over half the mass.
        assert!(low > 5_000, "zipf not skewed: {low}");
    }

    #[test]
    fn zipf_norm_cache_is_transparent() {
        // Interleave more distinct (n, s) pairs than the cache holds, forcing
        // evictions, and check every draw against the uncached closed-form
        // computation driven by a twin stream: the cache must never consume
        // randomness or change a normalizer's value.
        let mut cached = SimRng::from_label(9, "zipf-cache");
        let mut raw = SimRng::from_label(9, "zipf-cache");
        let pairs: Vec<(u64, f64)> = (0..(ZIPF_CACHE_SLOTS + 4))
            .map(|i| (50 + 10 * i as u64, 0.4 + 0.05 * i as f64))
            .collect();
        for step in 0..500 {
            let (n, s) = pairs[step % pairs.len()];
            let got = cached.zipf(n, s);
            let u = ((raw.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)).max(1e-12);
            let want = if (s - 1.0).abs() < 1e-9 {
                let hn = (n as f64).ln();
                ((u * hn).exp() - 1.0).min(n as f64 - 1.0) as u64
            } else {
                let e = 1.0 - s;
                let hn = ((n as f64).powf(e) - 1.0) / e;
                (((1.0 + u * hn * e).powf(1.0 / e) - 1.0).min(n as f64 - 1.0)) as u64
            };
            assert_eq!(got, want, "draw diverged at step {step} (n={n}, s={s})");
        }
    }

    #[test]
    fn zipf_handles_degenerate_sizes() {
        let mut r = SimRng::from_label(1, "z1");
        assert_eq!(r.zipf(1, 1.0), 0);
        assert!(r.zipf(2, 1.0) < 2);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_label(1, "c");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn stream_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| derive_stream_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| derive_stream_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "stream seeds must not collide");
        assert_ne!(derive_stream_seed(1, 0), derive_stream_seed(2, 0));
    }
}
