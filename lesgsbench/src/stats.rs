//! Order statistics for latency samples.
//!
//! A tail percentile is only reported where the data can carry it: the
//! benchmark reports the highest percentile (up to the requested one)
//! that still has at least [`TAIL_MIN_BEYOND`] samples above it, and
//! prints the percentile it actually used next to the sample count.
//! Long sample streams take their tail window by window (see
//! [`windowed_tail`]).

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A sorted set of samples.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts `samples`.
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Smallest and largest sample (0 when empty).
    pub fn range(&self) -> (f64, f64) {
        (self.at(0), self.at(self.sorted.len().saturating_sub(1)))
    }

    /// The nearest-rank median (0 when empty).
    pub fn median(&self) -> f64 {
        self.at(self.rank(0.5))
    }

    /// The tail percentile: `(p, value)` for the highest `p <= want`
    /// that has at least [`TAIL_MIN_BEYOND`] samples beyond it, never
    /// below the median. With too few samples for any tail the median
    /// is returned.
    pub fn tail(&self, want: f64) -> (f64, f64) {
        let n = self.sorted.len();
        let mut k = self.rank(want);
        if let Some(limit) = n.checked_sub(TAIL_MIN_BEYOND + 1) {
            k = k.min(limit);
        }
        k = k.max(self.rank(0.5));
        let p = if n == 0 {
            0.0
        } else {
            (k + 1) as f64 / n as f64
        };
        (p, self.at(k))
    }

    /// Nearest-rank index of quantile `q`.
    fn rank(&self, q: f64) -> usize {
        let n = self.sorted.len();
        ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
    }

    fn at(&self, k: usize) -> f64 {
        self.sorted.get(k).copied().unwrap_or(0.0)
    }
}

/// Samples per window of [`windowed_tail`]: enough that the 97th
/// percentile of a window has ten samples beyond it.
pub const WINDOW: usize = 400;

/// The tail of a time-ordered sample stream: the tail of each run of
/// [`WINDOW`] consecutive samples, and the median over those windows,
/// returned as `(p, value, windows)`. A burst of host contention
/// inflates the tail of the windows it falls in, not the median over
/// the windows. A final partial window is left out; a stream shorter
/// than two windows is taken as one.
pub fn windowed_tail(samples: &[f64], want: f64) -> (f64, f64, usize) {
    if samples.len() < 2 * WINDOW {
        let (p, v) = Dist::new(samples.to_vec()).tail(want);
        return (p, v, 1);
    }
    let tails: Vec<(f64, f64)> = samples
        .chunks_exact(WINDOW)
        .map(|w| Dist::new(w.to_vec()).tail(want))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (tails[0].0, median(&values), tails.len())
}

/// Median of a small list (e.g. of set-up repetitions).
pub fn median(samples: &[f64]) -> f64 {
    Dist::new(samples.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Dist {
        Dist::new((1..=n).rev().map(|i| i as f64).collect())
    }

    fn beyond(d: &Dist, value: f64) -> usize {
        d.sorted.iter().filter(|&&v| v > value).count()
    }

    #[test]
    fn p99_is_used_when_the_data_carries_it() {
        let d = ramp(2000);
        let (p, v) = d.tail(0.99);
        assert_eq!((p, v), (0.99, 1980.0));
        assert_eq!(beyond(&d, v), 20);
    }

    #[test]
    fn tail_backs_off_to_keep_ten_samples_beyond() {
        for n in [21, 50, 100, 999, 1000, 1099] {
            let d = ramp(n);
            let (p, v) = d.tail(0.99);
            assert!(beyond(&d, v) >= TAIL_MIN_BEYOND, "n={n}");
            // The next rank up would leave fewer than ten beyond it
            // (or would pass the requested percentile).
            let next = v + 1.0;
            assert!(beyond(&d, next) < TAIL_MIN_BEYOND || p >= 0.99, "n={n}");
        }
        assert_eq!(ramp(100).tail(0.99), (0.9, 90.0));
        assert_eq!(ramp(1000).tail(0.99), (0.99, 990.0));
        assert_eq!(ramp(100).tail(0.95), (0.9, 90.0));
        assert_eq!(ramp(1000).tail(0.95), (0.95, 950.0));
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        let d = ramp(15);
        assert_eq!(d.median(), 8.0);
        assert_eq!(d.tail(0.99), (8.0 / 15.0, 8.0));
        assert_eq!(Dist::default().tail(0.99), (0.0, 0.0));
    }

    #[test]
    fn windowed_tail_ignores_a_burst_in_one_window() {
        let window: Vec<f64> = (1..=WINDOW).map(|i| i as f64).collect();
        let mut stream: Vec<f64> = window
            .iter()
            .cycle()
            .take(5 * WINDOW + 7)
            .copied()
            .collect();
        for v in &mut stream[2 * WINDOW..3 * WINDOW] {
            *v *= 10.0;
        }
        assert_eq!(windowed_tail(&stream, 0.97), (0.97, 388.0, 5));
        let whole = Dist::new(stream.clone()).tail(0.97).1;
        assert!(
            whole > 388.0,
            "the burst does move the tail of the whole stream"
        );
        let short = &stream[..WINDOW + 50];
        let (p, v) = Dist::new(short.to_vec()).tail(0.97);
        assert_eq!(windowed_tail(short, 0.97), (p, v, 1));
    }

    #[test]
    fn p97_lands_inside_a_program_that_is_a_sixteenth_of_the_calls() {
        // Sixteen programs called equally often; the slowest takes 4 ms
        // in a fifth of its calls (fast host phases) and 7 ms otherwise.
        let mut samples = vec![1.0; 15 * 25];
        samples.extend([4.0; 5]);
        samples.extend([7.0; 20]);
        let d = Dist::new(samples);
        // The 95th percentile is the slowest program's fastest call and
        // flips with the share of fast phases; the 97th is its median.
        assert_eq!(d.tail(0.95).1, 4.0);
        assert_eq!(d.tail(0.97).1, 7.0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
