//! Seeded request-key samplers: uniform over all names, or Zipf(s)
//! popularity over a seeded permutation of them.

use perils_util::rng::Rng;

/// Draws item indices in `0..n`.
pub enum Sampler {
    /// Every item equally likely.
    Uniform { n: usize },
    /// Item `perm[r]` has popularity rank `r`; rank `r` is drawn with
    /// probability proportional to `1 / (r + 1)^s`.
    Zipf { cdf: Vec<f64>, perm: Vec<usize> },
}

impl Sampler {
    /// Uniform over `n` items.
    pub fn uniform(n: usize) -> Sampler {
        assert!(n > 0, "cannot sample from an empty set");
        Sampler::Uniform { n }
    }

    /// Zipf(`s`) over `n` items, ranked by a permutation drawn from
    /// `rng` (so the hot set is not simply the first names in survey
    /// order).
    pub fn zipf(n: usize, s: f64, rng: &mut Rng) -> Sampler {
        assert!(n > 0, "cannot sample from an empty set");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below_usize(i + 1));
        }
        Sampler::Zipf { cdf, perm }
    }

    /// One draw.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        match self {
            Sampler::Uniform { n } => rng.below_usize(*n),
            Sampler::Zipf { cdf, perm } => {
                let u = rng.unit_f64();
                let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                perm[rank]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(sampler: &Sampler, seed: u64, k: usize) -> Vec<usize> {
        let mut rng = Rng::new(seed);
        (0..k).map(|_| sampler.draw(&mut rng)).collect()
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let s = Sampler::uniform(1000);
        assert_eq!(draws(&s, 7, 500), draws(&s, 7, 500));
        assert_ne!(draws(&s, 7, 500), draws(&s, 8, 500));
        assert!(draws(&s, 7, 500).iter().all(|&i| i < 1000));
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let a = Sampler::zipf(1000, 1.0, &mut Rng::new(3));
        let b = Sampler::zipf(1000, 1.0, &mut Rng::new(3));
        let c = Sampler::zipf(1000, 1.0, &mut Rng::new(4));
        assert_eq!(draws(&a, 9, 500), draws(&b, 9, 500));
        assert_ne!(draws(&a, 9, 500), draws(&c, 9, 500));
        assert_ne!(draws(&a, 9, 500), draws(&a, 10, 500));
    }

    #[test]
    fn zipf_concentrates_on_the_hot_set() {
        // s = 1 over 100k items: the top 1% take about 60% of draws.
        let s = Sampler::zipf(100_000, 1.0, &mut Rng::new(1));
        let Sampler::Zipf { cdf, perm } = &s else {
            unreachable!()
        };
        let share = cdf[999];
        assert!((0.55..0.65).contains(&share), "top-1% share {share}");
        let mut rng = Rng::new(2);
        let hot: std::collections::HashSet<usize> = perm[..1000].iter().copied().collect();
        let hits = (0..20_000)
            .filter(|_| hot.contains(&s.draw(&mut rng)))
            .count();
        let observed = hits as f64 / 20_000.0;
        assert!(
            (observed - share).abs() < 0.02,
            "observed {observed} vs {share}"
        );
    }
}
