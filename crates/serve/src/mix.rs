//! Skewed query-mix sampling over plan templates.
//!
//! A [`QueryMix`] holds a list of plan templates (SSB, TPC-H, or any
//! hand-built plans) plus a weight per template; the serving runner
//! samples one template per arrival. Weighted sampling walks a
//! cumulative table against a single uniform draw, so the draw count per
//! arrival is constant and schedules stay deterministic. Zipf weights
//! use the portable `pow` of [`crate::detmath`], keeping the skew — and
//! therefore the golden percentile fingerprints — platform-independent.

use crate::detmath::det_pow;
use rand::rngs::StdRng;
use robustq_engine::plan::PlanNode;

/// A weighted set of query templates.
#[derive(Debug, Clone)]
pub struct QueryMix {
    templates: Vec<PlanNode>,
    /// Cumulative weights, same length as `templates`; the final entry
    /// is the total mass.
    cumulative: Vec<f64>,
}

impl QueryMix {
    /// All templates equally likely.
    pub fn uniform(templates: Vec<PlanNode>) -> Self {
        let n = templates.len();
        QueryMix::weighted(templates, vec![1.0; n])
    }

    /// Explicit per-template weights (must be non-negative with a
    /// positive sum, one per template).
    pub fn weighted(templates: Vec<PlanNode>, weights: Vec<f64>) -> Self {
        assert_eq!(templates.len(), weights.len(), "one weight per template");
        assert!(!templates.is_empty(), "a mix needs at least one template");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0f64;
        for w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weights must be non-negative");
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "total weight must be positive");
        QueryMix { templates, cumulative }
    }

    /// Zipf-skewed weights: template `i` gets mass `(i+1)^(-theta)`, so
    /// earlier templates dominate. `theta = 0` degenerates to uniform;
    /// `theta ≈ 1` is the classic heavy skew.
    pub fn zipf(templates: Vec<PlanNode>, theta: f64) -> Self {
        assert!(theta >= 0.0 && theta.is_finite(), "theta must be non-negative");
        let weights =
            (0..templates.len()).map(|i| det_pow((i + 1) as f64, -theta)).collect();
        QueryMix::weighted(templates, weights)
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Always false — construction rejects empty mixes.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// The templates, in weight order.
    pub fn templates(&self) -> &[PlanNode] {
        &self.templates
    }

    /// Sample one template index.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * total;
        // First cumulative entry strictly above the draw; the final
        // entry equals `total > u`, so `partition_point` stays in range.
        self.cumulative.partition_point(|&c| c <= u).min(self.templates.len() - 1)
    }

    /// The template at `index`.
    pub fn template(&self, index: usize) -> &PlanNode {
        &self.templates[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use robustq_engine::plan::PlanNode;

    fn templates(n: usize) -> Vec<PlanNode> {
        (0..n).map(|_| PlanNode::scan("t", ["c"])).collect()
    }

    #[test]
    fn uniform_mix_covers_all_templates() {
        let mix = QueryMix::uniform(templates(5));
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [0usize; 5];
        for _ in 0..5_000 {
            seen[mix.sample(&mut rng)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 800), "roughly even: {seen:?}");
    }

    #[test]
    fn zipf_mix_skews_toward_early_templates() {
        let mix = QueryMix::zipf(templates(8), 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [0usize; 8];
        for _ in 0..10_000 {
            seen[mix.sample(&mut rng)] += 1;
        }
        assert!(seen[0] > seen[7] * 3, "skew expected: {seen:?}");
        assert!(seen.iter().all(|&c| c > 0), "tail still sampled: {seen:?}");
    }

    #[test]
    fn zero_weight_templates_are_never_sampled() {
        let mix = QueryMix::weighted(templates(3), vec![1.0, 0.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2_000 {
            assert_ne!(mix.sample(&mut rng), 1);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let mix = QueryMix::zipf(templates(6), 0.8);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100).map(|_| mix.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100).map(|_| mix.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
