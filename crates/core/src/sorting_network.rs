//! Small sorting networks.
//!
//! The smallest local-sort configurations may use a comparison network
//! instead of an in-shared-memory radix sort (Section 4.2); the local sort
//! does so for key-only buckets of at most
//! [`NETWORK_SORT_LIMIT`](crate::local_sort::NETWORK_SORT_LIMIT) keys.  The
//! network is Batcher's odd-even merge network, generated on the fly.
//!
//! (The paper's thread-reduction histogram also sorts register runs of nine
//! digits with a 25-comparator network, Section 4.3.  The CPU histogram only
//! prices that network: it counts the `atomicAdd`s a sorted run would issue
//! without sorting, see [`histogram`](crate::histogram).)

/// Generates the compare-exchange pairs of Batcher's odd-even merge sorting
/// network for `n` elements (`n` is rounded up to the next power of two
/// internally; pairs referencing padded positions are filtered out).
pub fn batcher_network(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    if n <= 1 {
        return pairs;
    }
    let padded = n.next_power_of_two();
    let mut p = 1;
    while p < padded {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < padded {
                for i in 0..k {
                    let a = i + j;
                    let b = i + j + k;
                    if a / (p * 2) == b / (p * 2) && a < n && b < n {
                        pairs.push((a, b));
                    }
                }
                j += k * 2;
            }
            k /= 2;
        }
        p *= 2;
    }
    pairs
}

/// Sorts a slice in place with Batcher's odd-even merge network.  Intended
/// for the tiny buckets handled by the smallest local-sort class.
pub fn network_sort<T: Ord + Copy>(values: &mut [T]) {
    for (a, b) in batcher_network(values.len()) {
        if values[a] > values[b] {
            values.swap(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::SplitMix64;

    #[test]
    fn batcher_network_sorts_random_inputs() {
        let mut rng = SplitMix64::new(2);
        for &n in &[0usize, 1, 2, 3, 7, 16, 33, 100, 128] {
            let mut v: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
            let mut expected = v.clone();
            expected.sort_unstable();
            network_sort(&mut v);
            assert_eq!(v, expected, "n = {n}");
        }
    }

    #[test]
    fn batcher_zero_one_principle_small_sizes() {
        for n in 1usize..=12 {
            for mask in 0u32..(1 << n) {
                let mut v: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
                network_sort(&mut v);
                assert!(v.windows(2).all(|w| w[0] <= w[1]), "n={n} mask={mask:#b}");
            }
        }
    }

    #[test]
    fn batcher_pairs_are_in_range() {
        for n in [5usize, 9, 31] {
            for (a, b) in batcher_network(n) {
                assert!(a < n && b < n && a < b);
            }
        }
        assert!(batcher_network(0).is_empty());
        assert!(batcher_network(1).is_empty());
    }
}
