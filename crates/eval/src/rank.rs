//! Ranks of returned elements in the true order — the quality measure of
//! Theorems 3.7 / Lemma 8.9 ("rank(u, V) denotes the index of u in the
//! non-increasing sorted order").

/// 1-based rank of `chosen` in the **non-increasing** order of `values`
/// (rank 1 = a true maximum). Ties resolve in `chosen`'s favour.
///
/// # Panics
/// Panics if `chosen` is out of range.
pub fn max_rank(values: &[f64], chosen: usize) -> usize {
    let v = values[chosen];
    values.iter().filter(|&&x| x > v).count() + 1
}

/// Approximation ratio of a returned maximum: `max(values) / values[chosen]`
/// (`>= 1`, exactly 1 when the true maximum was found).
///
/// # Panics
/// Panics if the chosen value is not strictly positive.
pub fn max_approx_ratio(values: &[f64], chosen: usize) -> f64 {
    let best = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(values[chosen] > 0.0, "ratio needs positive values");
    best / values[chosen]
}

/// [`max_rank`] of every element of a returned top-k list, in list order —
/// the quality readout for iterated-extraction selections (a perfect
/// selection reads `[1, 2, ..., k]` up to ties).
///
/// # Panics
/// Panics if any chosen index is out of range.
pub fn max_ranks(values: &[f64], chosen: &[usize]) -> Vec<usize> {
    chosen.iter().map(|&c| max_rank(values, c)).collect()
}

/// Per-position dislocation of a claimed **descending** ranking: the
/// absolute distance between each item's position in `order` and its
/// position in the true non-increasing order (0-based; ties resolve in
/// the item's favour, so a correctly sorted run of ties scores 0). This
/// is the quality measure noisy-sorting bounds are stated in (dislocation
/// `O(sqrt(n log n))` w.h.p. and friends).
///
/// # Panics
/// Panics if any index in `order` is out of range.
pub fn dislocation(values: &[f64], order: &[usize]) -> Vec<usize> {
    order
        .iter()
        .enumerate()
        .map(|(pos, &item)| {
            let v = values[item];
            // The item's admissible position interval in the true
            // descending order: anywhere within its tie class.
            let first = values.iter().filter(|&&x| x > v).count();
            let last = first + values.iter().filter(|&&x| x == v).count() - 1;
            if pos < first {
                first - pos
            } else {
                pos.saturating_sub(last)
            }
        })
        .collect()
}

/// Maximum entry of [`dislocation`] — 0 iff every item sits within its
/// tie class of the true descending order. Empty rankings score 0.
pub fn max_dislocation(values: &[f64], order: &[usize]) -> usize {
    dislocation(values, order).into_iter().max().unwrap_or(0)
}

/// Kendall-tau distance of a claimed **descending** ranking: the number
/// of discordant pairs — positions `i < j` in `order` whose items are
/// strictly *increasing* in value. 0 for a perfectly sorted ranking;
/// ties are never discordant. `O(len^2)`, meant for evaluation, not for
/// hot paths.
///
/// # Panics
/// Panics if any index in `order` is out of range.
pub fn kendall_tau(values: &[f64], order: &[usize]) -> u64 {
    let mut discordant = 0u64;
    for i in 0..order.len() {
        for j in i + 1..order.len() {
            if values[order[i]] < values[order[j]] {
                discordant += 1;
            }
        }
    }
    discordant
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_on_a_permutation() {
        let values = [3.0, 9.0, 1.0, 7.0];
        assert_eq!(max_rank(&values, 1), 1);
        assert_eq!(max_rank(&values, 3), 2);
        assert_eq!(max_rank(&values, 2), 4);
    }

    #[test]
    fn ties_favor_the_chosen() {
        let values = [5.0, 5.0, 5.0];
        assert_eq!(max_rank(&values, 2), 1);
    }

    #[test]
    fn approx_ratio() {
        let values = [2.0, 8.0, 4.0];
        assert_eq!(max_approx_ratio(&values, 1), 1.0);
        assert_eq!(max_approx_ratio(&values, 0), 4.0);
    }

    #[test]
    fn top_k_ranks_in_list_order() {
        let values = [3.0, 9.0, 1.0, 7.0];
        assert_eq!(max_ranks(&values, &[1, 3, 0]), vec![1, 2, 3]);
        assert_eq!(max_ranks(&values, &[0, 1]), vec![3, 1]);
    }

    #[test]
    fn dislocation_of_a_perfect_and_a_shifted_ranking() {
        let values = [3.0, 9.0, 1.0, 7.0];
        assert_eq!(dislocation(&values, &[1, 3, 0, 2]), vec![0, 0, 0, 0]);
        assert_eq!(max_dislocation(&values, &[1, 3, 0, 2]), 0);
        // Swap the middle two: both are off by one.
        assert_eq!(dislocation(&values, &[1, 0, 3, 2]), vec![0, 1, 1, 0]);
        assert_eq!(max_dislocation(&values, &[1, 0, 3, 2]), 1);
        // Fully reversed: the extremes travel the whole way.
        assert_eq!(max_dislocation(&values, &[2, 0, 3, 1]), 3);
        assert_eq!(max_dislocation(&values, &[]), 0);
    }

    #[test]
    fn dislocation_forgives_ties() {
        let values = [5.0, 5.0, 7.0];
        assert_eq!(max_dislocation(&values, &[2, 0, 1]), 0);
        assert_eq!(max_dislocation(&values, &[2, 1, 0]), 0);
    }

    #[test]
    fn kendall_tau_counts_discordant_pairs() {
        let values = [3.0, 9.0, 1.0, 7.0];
        assert_eq!(kendall_tau(&values, &[1, 3, 0, 2]), 0);
        assert_eq!(kendall_tau(&values, &[1, 0, 3, 2]), 1);
        assert_eq!(kendall_tau(&values, &[2, 0, 3, 1]), 6);
        // Ties are never discordant.
        let tied = [4.0, 4.0];
        assert_eq!(kendall_tau(&tied, &[0, 1]), 0);
        assert_eq!(kendall_tau(&tied, &[1, 0]), 0);
    }
}
