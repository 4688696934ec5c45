//! Probabilistic execution plans.

use expred_udf::CostModel;

/// A per-group probabilistic plan: retrieve each tuple of group `a` with
/// probability `r[a]`, and evaluate retrieved tuples with conditional
/// probability `e[a]/r[a]` (so `e[a]` is the unconditional evaluation
/// probability). Deterministic plans are the `{0,1}` special case.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    r: Vec<f64>,
    e: Vec<f64>,
}

impl Plan {
    /// Builds a plan, validating `0 ≤ e[a] ≤ r[a] ≤ 1` for every group.
    pub fn new(r: Vec<f64>, e: Vec<f64>) -> Self {
        assert_eq!(r.len(), e.len(), "plan vectors must be parallel");
        for (i, (&ra, &ea)) in r.iter().zip(&e).enumerate() {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&ra),
                "R[{i}] = {ra} out of range"
            );
            assert!(
                ea >= -1e-9 && ea <= ra + 1e-9,
                "E[{i}] = {ea} violates 0 <= E <= R = {ra}"
            );
        }
        // Snap tiny numerical noise into the box.
        let r: Vec<f64> = r.into_iter().map(|v| v.clamp(0.0, 1.0)).collect();
        let e = e
            .into_iter()
            .zip(&r)
            .map(|(v, &ra)| v.clamp(0.0, ra))
            .collect();
        Self { r, e }
    }

    /// The plan that ignores every group.
    pub fn discard_all(num_groups: usize) -> Self {
        Self {
            r: vec![0.0; num_groups],
            e: vec![0.0; num_groups],
        }
    }

    /// The plan that retrieves and evaluates everything (always meets any
    /// satisfiable constraint, at maximum cost).
    pub fn evaluate_all(num_groups: usize) -> Self {
        Self {
            r: vec![1.0; num_groups],
            e: vec![1.0; num_groups],
        }
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.r.len()
    }

    /// Retrieval probabilities.
    pub fn r(&self) -> &[f64] {
        &self.r
    }

    /// Unconditional evaluation probabilities.
    pub fn e(&self) -> &[f64] {
        &self.e
    }

    /// Expected plan cost over `sizes` (tuples still subject to the plan,
    /// i.e. excluding already-sampled tuples).
    pub fn expected_cost(&self, sizes: &[f64], cost: &CostModel) -> f64 {
        assert_eq!(sizes.len(), self.r.len());
        sizes
            .iter()
            .zip(self.r.iter().zip(&self.e))
            .map(|(&t, (&r, &e))| t * (cost.retrieve * r + cost.evaluate * e))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_quantities() {
        let plan = Plan::new(vec![1.0, 0.5, 0.0], vec![0.5, 0.5, 0.0]);
        let sizes = [100.0, 200.0, 300.0];
        let cost = CostModel::PAPER_DEFAULT;
        // Retrievals: 100 + 100 = 200; evaluations: 50 + 100 = 150.
        assert_eq!(plan.expected_cost(&sizes, &cost), 200.0 + 450.0);
    }

    #[test]
    fn canned_plans() {
        let d = Plan::discard_all(3);
        assert_eq!(d.r(), [0.0; 3]);
        let e = Plan::evaluate_all(2);
        assert_eq!(e.e(), [1.0; 2]);
    }

    #[test]
    fn noise_is_snapped() {
        let plan = Plan::new(vec![1.0 + 1e-12], vec![1.0 + 5e-10]);
        assert!(plan.r()[0] <= 1.0);
        assert!(plan.e()[0] <= plan.r()[0]);
    }

    #[test]
    #[should_panic]
    fn e_above_r_rejected() {
        Plan::new(vec![0.5], vec![0.7]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_rejected() {
        Plan::new(vec![0.5], vec![]);
    }
}
