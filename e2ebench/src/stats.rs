//! Order statistics and digests over measured samples.

/// Median of `values`, or 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (nearest rank) of an ascending slice.
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency summary: the median, and a tail percentile taken as the
/// median over consecutive windows of a fixed sample count of each
/// window's highest ladder percentile that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. The fixed window fixes the
/// percentile for a workload whatever the host's speed, and the median
/// over windows damps the seconds-long swings in host speed that a
/// single whole-run extreme percentile would report as the tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// The tail percentile's value, nanoseconds.
    pub tail_ns: f64,
    /// Which percentile `tail_ns` is (e.g. 99.9).
    pub tail_pct: f64,
    /// Samples beyond the tail rank in a window.
    pub beyond: usize,
    /// Windows the tail is the median over.
    pub windows: usize,
    /// Sample count.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: &[f64] = &[99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Summarizes per-unit latencies (nanoseconds, in the order measured)
/// over tail windows of `window` samples (one window of every sample
/// when there are fewer; leftovers join the last window). `None` when
/// there are no samples.
#[must_use]
pub fn latency(samples: &[u64], window: usize) -> Option<Latency> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let size = window.clamp(1, n);
    let windows = n / size;
    let tail_pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(size, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { n } else { (w + 1) * size };
            let mut win = samples[w * size..end].to_vec();
            win.sort_unstable();
            nearest_rank(&win, tail_pct) as f64
        })
        .collect();
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(Latency {
        p50_ns: nearest_rank(&sorted, 50.0),
        tail_ns: median(&tails),
        tail_pct,
        beyond: beyond(size, tail_pct),
        windows,
        samples: n,
    })
}

/// 64-bit FNV-1a of `bytes`, rendered as 16 hex digits.
#[must_use]
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=1000).collect();
        let l = latency(&samples, 1000).expect("non-empty");
        assert_eq!(l.windows, 1);
        assert_eq!(l.tail_pct, 99.0);
        assert_eq!(l.beyond, 10);
        assert_eq!(l.tail_ns, 990.0);
        assert_eq!(l.p50_ns, 500);

        // Windows of 200 fix the percentile at p95 (10 beyond); each
        // window's p95 sits 10 below its top, and the tail is their
        // median. The 50 leftover samples join the last window.
        let samples: Vec<u64> = (1..=650).collect();
        let l = latency(&samples, 200).expect("non-empty");
        assert_eq!((l.windows, l.tail_pct, l.beyond), (3, 95.0, 10));
        assert_eq!(l.tail_ns, 390.0);

        // Fewer samples than a window: one window of all of them.
        let few: Vec<u64> = (1..=15).collect();
        let l = latency(&few, 200).expect("non-empty");
        assert_eq!((l.windows, l.tail_pct), (1, 50.0));
        assert!(l.beyond < TAIL_MIN_BEYOND);
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_ne!(fnv1a_hex(b"a"), fnv1a_hex(b"b"));
    }
}
