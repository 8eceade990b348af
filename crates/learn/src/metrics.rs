//! Impurity and rule-quality measures shared by the learners.

/// Gini impurity of a binary split node with `pos` positive and `neg`
/// negative examples: `1 - p⁺² - p⁻²`. Zero for a pure node, 0.5 for a
/// perfectly mixed one.
pub fn gini(pos: f64, neg: f64) -> f64 {
    let n = pos + neg;
    if n <= 0.0 {
        return 0.0;
    }
    let p = pos / n;
    let q = neg / n;
    1.0 - p * p - q * q
}

/// Binary entropy in bits of a node with `pos` / `neg` examples.
pub fn entropy(pos: f64, neg: f64) -> f64 {
    let n = pos + neg;
    if n <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for c in [pos, neg] {
        if c > 0.0 {
            let p = c / n;
            h -= p * p.log2();
        }
    }
    h
}

/// Weighted impurity of a two-way split under a given impurity function.
pub fn split_impurity(impurity: fn(f64, f64) -> f64, left: (f64, f64), right: (f64, f64)) -> f64 {
    let n = left.0 + left.1 + right.0 + right.1;
    if n <= 0.0 {
        return 0.0;
    }
    let nl = left.0 + left.1;
    let nr = right.0 + right.1;
    (nl / n) * impurity(left.0, left.1) + (nr / n) * impurity(right.0, right.1)
}

/// Information gain of a two-way split (entropy based).
pub fn information_gain(parent: (f64, f64), left: (f64, f64), right: (f64, f64)) -> f64 {
    entropy(parent.0, parent.1) - split_impurity(entropy, left, right)
}

/// Gain ratio: information gain normalised by the split's intrinsic
/// information, the criterion C4.5 uses (one of the "standard splitting
/// strategies" the Predicate Enumerator rotates through, §2.2.2).
pub fn gain_ratio(parent: (f64, f64), left: (f64, f64), right: (f64, f64)) -> f64 {
    let gain = information_gain(parent, left, right);
    let n = parent.0 + parent.1;
    if n <= 0.0 {
        return 0.0;
    }
    let nl = left.0 + left.1;
    let nr = right.0 + right.1;
    let mut intrinsic = 0.0;
    for part in [nl, nr] {
        if part > 0.0 {
            let p = part / n;
            intrinsic -= p * p.log2();
        }
    }
    if intrinsic <= f64::EPSILON {
        0.0
    } else {
        gain / intrinsic
    }
}

/// Gini gain of a two-way split (decrease in Gini impurity).
pub fn gini_gain(parent: (f64, f64), left: (f64, f64), right: (f64, f64)) -> f64 {
    gini(parent.0, parent.1) - split_impurity(gini, left, right)
}

/// Weighted relative accuracy of a rule covering `covered_pos` positives and
/// `covered_neg` negatives out of a population with `total_pos` / `total_neg`:
/// `WRAcc = coverage × (precision − base_rate)`. This is the quality measure
/// of CN2-SD subgroup discovery (Lavrač et al. 2004, the paper's \[4\]).
pub fn weighted_relative_accuracy(
    covered_pos: f64,
    covered_neg: f64,
    total_pos: f64,
    total_neg: f64,
) -> f64 {
    let total = total_pos + total_neg;
    let covered = covered_pos + covered_neg;
    if total <= 0.0 || covered <= 0.0 {
        return 0.0;
    }
    let coverage = covered / total;
    let precision = covered_pos / covered;
    let base = total_pos / total;
    coverage * (precision - base)
}

/// Classification accuracy from a confusion-matrix tuple
/// `(true_pos, false_pos, true_neg, false_neg)`.
pub fn accuracy(tp: f64, fp: f64, tn: f64, fn_: f64) -> f64 {
    let n = tp + fp + tn + fn_;
    if n <= 0.0 {
        return 0.0;
    }
    (tp + tn) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(10.0, 0.0), 0.0);
        assert_eq!(gini(0.0, 10.0), 0.0);
        assert!((gini(5.0, 5.0) - 0.5).abs() < 1e-12);
        assert_eq!(gini(0.0, 0.0), 0.0);
    }

    #[test]
    fn entropy_extremes() {
        assert_eq!(entropy(10.0, 0.0), 0.0);
        assert!((entropy(5.0, 5.0) - 1.0).abs() < 1e-12);
        assert_eq!(entropy(0.0, 0.0), 0.0);
        assert!(entropy(7.0, 3.0) > 0.0 && entropy(7.0, 3.0) < 1.0);
    }

    #[test]
    fn perfect_split_has_maximal_gain() {
        let parent = (5.0, 5.0);
        let ig = information_gain(parent, (5.0, 0.0), (0.0, 5.0));
        assert!((ig - 1.0).abs() < 1e-12);
        let gg = gini_gain(parent, (5.0, 0.0), (0.0, 5.0));
        assert!((gg - 0.5).abs() < 1e-12);
        let gr = gain_ratio(parent, (5.0, 0.0), (0.0, 5.0));
        assert!((gr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn useless_split_has_zero_gain() {
        let parent = (6.0, 6.0);
        let ig = information_gain(parent, (3.0, 3.0), (3.0, 3.0));
        assert!(ig.abs() < 1e-12);
        let gg = gini_gain(parent, (3.0, 3.0), (3.0, 3.0));
        assert!(gg.abs() < 1e-12);
    }

    #[test]
    fn gain_ratio_penalises_lopsided_splits() {
        let parent = (50.0, 50.0);
        // Splitting off a single positive example gives tiny gain but also a
        // tiny intrinsic value; the ratio must stay finite and small.
        let gr = gain_ratio(parent, (1.0, 0.0), (49.0, 50.0));
        assert!(gr.is_finite());
        assert!(gr < 0.2);
        // Degenerate: everything on one side.
        assert_eq!(gain_ratio(parent, (50.0, 50.0), (0.0, 0.0)), 0.0);
        assert_eq!(gain_ratio((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)), 0.0);
    }

    #[test]
    fn wracc_behaviour() {
        // A rule that covers 50 of the 100 positives and nothing else:
        // coverage 0.25, precision 1.0, base rate 0.5 -> WRAcc 0.125.
        let w = weighted_relative_accuracy(50.0, 0.0, 100.0, 100.0);
        assert!((w - 0.125).abs() < 1e-9);
        // A rule matching the base rate is worthless.
        let w = weighted_relative_accuracy(10.0, 10.0, 100.0, 100.0);
        assert!(w.abs() < 1e-12);
        // A rule covering mostly negatives is penalised.
        assert!(weighted_relative_accuracy(1.0, 20.0, 50.0, 50.0) < 0.0);
        assert_eq!(weighted_relative_accuracy(0.0, 0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn accuracy_extremes() {
        assert_eq!(accuracy(5.0, 0.0, 5.0, 0.0), 1.0);
        assert_eq!(accuracy(0.0, 5.0, 0.0, 5.0), 0.0);
        assert_eq!(accuracy(0.0, 0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn split_impurity_weighted_average() {
        let v = split_impurity(gini, (2.0, 0.0), (0.0, 2.0));
        assert_eq!(v, 0.0);
        let v = split_impurity(gini, (1.0, 1.0), (1.0, 1.0));
        assert!((v - 0.5).abs() < 1e-12);
        assert_eq!(split_impurity(gini, (0.0, 0.0), (0.0, 0.0)), 0.0);
    }
}
