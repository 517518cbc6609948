//! The correctness gate every timed operation passes through.
//!
//! Values in every workload are row ids: `values[i] == i` in the input, so
//! "the value still follows its key" is checkable directly as
//! `input_keys[value] == key`.

use workloads::SortKey;

/// Order-independent fingerprint of a multiset of (key, value) records:
/// the wrapping sum of a mixed 64-bit hash of each record, plus the count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    sum: u64,
    count: u64,
}

impl Fingerprint {
    /// Fingerprint of `keys[i]` paired with `values[i]`.
    pub fn of<K: SortKey>(keys: &[K], values: &[u32]) -> Fingerprint {
        let sum = keys.iter().zip(values).fold(0u64, |acc, (k, &v)| {
            acc.wrapping_add(record_hash(k.to_radix(), v))
        });
        Fingerprint {
            sum,
            count: keys.len().min(values.len()) as u64,
        }
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn record_hash(key: u64, value: u32) -> u64 {
    mix64(mix64(key) ^ u64::from(value).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Checks a sorted pair output against its input: the keys are in
/// ascending order, the record multiset's fingerprint equals the input's,
/// and every value (a row id) still points at its own key.
pub fn check_pairs<K: SortKey>(
    input_keys: &[K],
    input_fp: Fingerprint,
    out_keys: &[K],
    out_values: &[u32],
) -> Result<(), String> {
    if out_keys.len() != input_keys.len() || out_values.len() != input_keys.len() {
        return Err(format!(
            "length: {} keys and {} values out, {} records in",
            out_keys.len(),
            out_values.len(),
            input_keys.len()
        ));
    }
    check_sorted(out_keys)?;
    if Fingerprint::of(out_keys, out_values) != input_fp {
        return Err("record fingerprint differs from the input's".into());
    }
    for (i, (k, &v)) in out_keys.iter().zip(out_values).enumerate() {
        match input_keys.get(v as usize) {
            Some(orig) if orig.to_radix() == k.to_radix() => {}
            _ => {
                return Err(format!(
                    "value {v} at position {i} no longer follows its key"
                ))
            }
        }
    }
    Ok(())
}

/// Checks that `keys` are in ascending order.
pub fn check_sorted<K: SortKey>(keys: &[K]) -> Result<(), String> {
    match keys
        .windows(2)
        .position(|w| w[0].to_radix() > w[1].to_radix())
    {
        Some(i) => Err(format!("keys out of order at position {i}")),
        None => Ok(()),
    }
}

/// Checks that `keys` equal the std-sorted input `expected` exactly.
pub fn check_equal<K: SortKey>(expected: &[K], keys: &[K]) -> Result<(), String> {
    if keys.len() != expected.len() {
        return Err(format!(
            "length: {} keys out, {} expected",
            keys.len(),
            expected.len()
        ));
    }
    match keys
        .iter()
        .zip(expected)
        .position(|(a, b)| a.to_radix() != b.to_radix())
    {
        Some(i) => Err(format!(
            "key at position {i} differs from the std-sorted input"
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_case(n: usize) -> (Vec<u64>, Fingerprint, Vec<u64>, Vec<u32>) {
        let keys: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % 97).collect();
        let values: Vec<u32> = (0..n as u32).collect();
        let fp = Fingerprint::of(&keys, &values);
        let mut recs: Vec<(u64, u32)> = keys.iter().copied().zip(values.iter().copied()).collect();
        recs.sort_unstable_by_key(|r| r.0);
        let (ok, ov) = recs.into_iter().unzip();
        (keys, fp, ok, ov)
    }

    #[test]
    fn a_correct_output_passes() {
        let (keys, fp, ok, ov) = sorted_case(1000);
        assert_eq!(check_pairs(&keys, fp, &ok, &ov), Ok(()));
    }

    #[test]
    fn a_corrupted_output_is_caught() {
        // A key overwritten with its neighbour's value keeps the order but
        // changes the multiset.
        let (keys, fp, mut ok, ov) = sorted_case(1000);
        let i = ok.iter().position(|&k| k != ok[0]).unwrap();
        ok[i] = ok[i - 1];
        assert!(check_pairs(&keys, fp, &ok, &ov).is_err());

        // Two values swapped between different keys: keys still sorted.
        let (keys, fp, ok, mut ov) = sorted_case(1000);
        let j = ok.iter().position(|&k| k != ok[0]).unwrap();
        ov.swap(0, j);
        assert!(check_pairs(&keys, fp, &ok, &ov).is_err());

        // Keys out of order.
        let (keys, fp, mut ok, ov) = sorted_case(1000);
        ok.swap(0, 999);
        assert!(check_pairs(&keys, fp, &ok, &ov).is_err());
    }

    #[test]
    fn a_dropped_record_is_caught() {
        let (keys, fp, mut ok, mut ov) = sorted_case(1000);
        ok.remove(500);
        ov.remove(500);
        assert!(check_pairs(&keys, fp, &ok, &ov).is_err());

        // Dropped and replaced by a duplicate of a neighbour: same length,
        // still sorted, still follows its key.
        let (keys, fp, ok, mut ov) = sorted_case(1000);
        let i = (1..1000).find(|&i| ok[i] == ok[i - 1]).unwrap();
        ov[i] = ov[i - 1];
        assert!(check_pairs(&keys, fp, &ok, &ov).is_err());
    }

    #[test]
    fn equality_against_std_sorted_input() {
        let expected: Vec<u32> = vec![1, 2, 2, 5];
        assert_eq!(check_equal(&expected, &[1u32, 2, 2, 5]), Ok(()));
        assert!(check_equal(&expected, &[1u32, 2, 5]).is_err());
        assert!(check_equal(&expected, &[1u32, 2, 3, 5]).is_err());
        assert!(check_sorted(&[2u32, 1]).is_err());
    }
}
