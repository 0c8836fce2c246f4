//! Small std-only helpers: the seeded generator behind every op list,
//! the output digest, percentiles and process CPU time.

/// SplitMix64: a tiny deterministic generator, so op lists depend on the
/// seed alone and never on a library's stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over bytes: the digest that outputs are folded into.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The tail percentile reported as `tail_ms`: the highest percentile with
/// at least ten samples beyond it, taken as p99 from 1,000 ops and p90 from
/// 100 ops; below 100 ops (`corpus-build`) it is the quantile `1 - 10/n`.
pub fn tail_quantile(ops: usize) -> f64 {
    match ops {
        n if n >= 1000 => 0.99,
        n if n >= 100 => 0.90,
        n => 1.0 - 10.0 / n as f64,
    }
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds of the whole process (every thread).
pub fn cpu_seconds() -> f64 {
    let mut r = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `r` is a writable struct with the size and layout of the
    // 64-bit Linux `struct rusage` (two timevals and fourteen longs), and
    // RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(r.utime) + tv(r.stime)
}
