//! A Zipf(α) sampler over `{0, …, n-1}` using an inverse-CDF table.
//!
//! Word frequencies in text corpora (and thus in the Bag-of-Words trace)
//! follow Zipf's law. A precomputed cumulative table plus binary search
//! gives exact sampling in O(log n) with O(n) setup — fine for the
//! ~141 k-entry vocabularies we model.

use rand::Rng;

/// Zipf-distributed ranks: `P(rank = k) ∝ 1 / (k+1)^alpha`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `alpha` (> 0).
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "empty support");
        assert!(alpha > 0.0, "non-positive exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// The YCSB request distribution: Zipf with the benchmark's default
    /// exponent 0.99 (Cooper et al., SoCC '10).
    pub fn ycsb(n: usize) -> Self {
        Zipf::new(n, 0.99)
    }

    /// Number of ranks.
    pub fn support(&self) -> usize {
        self.cdf.len()
    }

    /// Samples a rank in `[0, n)`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First index with cdf >= u.
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ranks_in_support() {
        let z = Zipf::new(100, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn head_is_heavier_than_tail() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 should be roughly twice rank 1 and far above rank 100.
        assert!(counts[0] > counts[1]);
        assert!(counts[0] > 10 * counts[100].max(1));
        // Harmonic mass check: top-10 ranks carry ~39 % at alpha=1, n=1000.
        let top10: u32 = counts[..10].iter().sum();
        let share = top10 as f64 / 100_000.0;
        assert!((0.30..0.50).contains(&share), "top-10 share {share}");
    }

    #[test]
    fn alpha_controls_skew() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let flat = Zipf::new(100, 0.2);
        let steep = Zipf::new(100, 2.0);
        let head =
            |z: &Zipf, rng: &mut ChaCha8Rng| (0..20_000).filter(|_| z.sample(rng) == 0).count();
        let flat_head = head(&flat, &mut rng);
        let steep_head = head(&steep, &mut rng);
        assert!(steep_head > 4 * flat_head, "{steep_head} vs {flat_head}");
    }

    #[test]
    fn ycsb_exponent_is_skewed_but_not_degenerate() {
        let z = Zipf::ycsb(10_000);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut head = 0u32;
        const N: u32 = 50_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // At alpha=0.99, n=10k, the top 1% of ranks draw roughly half
        // the requests — far above uniform's 1 %, far below all of them.
        let share = head as f64 / N as f64;
        assert!((0.25..0.75).contains(&share), "top-100 share {share}");
    }

    #[test]
    fn single_rank_support() {
        let z = Zipf::new(1, 1.5);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 0);
    }
}
