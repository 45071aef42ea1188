//! Order statistics and bit-exact fingerprints for the benchmark reports.

use alert_workload::InputRecord;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A percentile read off a sample set, with the rank actually used and
/// the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub rank: f64,
    pub samples: usize,
}

/// Sorts samples into the order every percentile below expects.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank index of rank `rank` in `n` samples.
fn rank_index(n: usize, rank: f64) -> usize {
    ((rank * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The nearest-rank median of sorted samples.
pub fn median(sorted: &[f64]) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let k = rank_index(n, 0.5);
    Some(Percentile {
        value: sorted[k],
        rank: (k + 1) as f64 / n as f64,
        samples: n,
    })
}

/// The nearest-rank tail percentile at rank `want`, lowered to the
/// highest rank that still leaves [`TAIL_BEYOND`] samples beyond it.
/// `None` when that rank would fall below the median.
pub fn tail(sorted: &[f64], want: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let k = rank_index(n, want).min(n - 1 - TAIL_BEYOND);
    if k < rank_index(n, 0.5) {
        return None;
    }
    Some(Percentile {
        value: sorted[k],
        rank: (k + 1) as f64 / n as f64,
        samples: n,
    })
}

/// Median of a handful of per-pass values.
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values.to_vec())).map_or(f64::NAN, |p| p.value)
}

/// FNV-1a over the exact bits of everything fed to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => self.f64(x),
            None => self.u64(u64::MAX),
        }
    }

    /// Folds in every field of a record.
    pub fn record(&mut self, r: &InputRecord) {
        self.u64(r.index as u64);
        self.u64(r.device as u64);
        self.bytes(r.model.as_bytes());
        self.f64(r.cap.get());
        self.f64(r.latency.get());
        self.f64(r.deadline.get());
        self.f64(r.goal_deadline.get());
        self.f64(r.period.get());
        self.f64(r.scale);
        self.opt_f64(r.min_quality);
        self.opt_f64(r.energy_budget.map(|e| e.get()));
        self.f64(r.quality);
        self.f64(r.energy.get());
        self.opt_f64(r.slowdown);
        self.u64(u64::from(r.contention_active));
        self.u64(u64::from(r.warmup));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(5)).map(|p| p.value), Some(3.0));
        assert_eq!(median(&ramp(4)).map(|p| p.value), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_the_requested_rank_with_enough_samples() {
        // 1000 samples: p99 is sample 990 and leaves exactly 10 beyond.
        let p = tail(&ramp(1000), 0.99).expect("enough samples");
        assert_eq!(p.value, 990.0);
        assert_eq!(p.rank, 0.99);
        assert_eq!(p.samples, 1000);
    }

    #[test]
    fn tail_lowers_the_rank_to_leave_ten_samples_beyond() {
        // 200 samples: p99 would leave 2 beyond; the highest admissible
        // rank is sample 190 (10 beyond), i.e. p95.
        let p = tail(&ramp(200), 0.99).expect("enough samples");
        assert_eq!(p.value, 190.0);
        assert_eq!(p.rank, 0.95);
        let beyond = ramp(200).iter().filter(|&&v| v > p.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_refuses_ranks_below_the_median() {
        assert_eq!(tail(&ramp(10), 0.99), None);
        assert_eq!(tail(&ramp(15), 0.99), None);
        assert!(tail(&ramp(21), 0.99).is_some());
    }

    #[test]
    fn fingerprint_sees_every_bit() {
        let mut a = Fingerprint::default();
        let mut b = Fingerprint::default();
        a.f64(0.0);
        b.f64(-0.0);
        assert_ne!(a, b);
    }
}
