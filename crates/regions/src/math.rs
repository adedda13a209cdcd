//! Exact integer arithmetic for the lemma bounds.
//!
//! Every threshold in the paper is a rational inequality in `n`, `k`, `t`
//! (and sometimes `ℓ` or `f`). To keep region boundaries exact — the open
//! cells of Figures 2/4/5/6 are *single lattice points* in places — all
//! predicates here are evaluated in integer arithmetic, never floats.

/// `V(n, t, f)` from the analysis of Protocol D (before Lemma 3.16):
///
/// ```text
/// V(n,t,f) = n - f                                  if n - t - f <= 0
///          = (t + 1 - f) + f * floor((n-f)/(n-t-f)) if n - t - f >  0
/// ```
///
/// It bounds the number of distinct decisions when exactly `f` processes
/// are Byzantine: the correct broadcasters' values plus the values faulty
/// broadcasters can force different correct processes to accept.
///
/// # Panics
///
/// Panics if `f > t` or `t > n` (outside the definition's domain).
pub fn v_function(n: usize, t: usize, f: usize) -> usize {
    assert!(f <= t && t <= n, "V(n,t,f) requires f <= t <= n");
    if n <= t + f {
        n - f
    } else {
        (t + 1 - f) + f * ((n - f) / (n - t - f))
    }
}

/// `Z(n, t) = max_{0 <= f <= t} min(V(n,t,f), n-f)` — the agreement bound
/// achieved by Protocol D (Lemma 3.16) and its SIMULATION (Lemma 4.13).
///
/// # Panics
///
/// Panics if `t > n`.
pub fn z_function(n: usize, t: usize) -> usize {
    assert!(t <= n, "Z(n,t) requires t <= n");
    (0..=t)
        .map(|f| v_function(n, t, f).min(n - f))
        .max()
        .expect("f = 0 always exists")
}

/// Smallest `ℓ >= 1` for which Protocol C(ℓ) solves `SC(k, t, SV2)` in
/// MP/Byz (Lemma 3.15), or `None` if no `ℓ` works.
///
/// The two constraints are `t < (k-1)n / (2k + ℓ - 1)` (agreement) and
/// `t < ℓn / (2ℓ + 1)` (the ℓ-echo broadcast, Lemma 3.14). The first is
/// decreasing and the second increasing in `ℓ`, so a witness exists iff the
/// smallest `ℓ` satisfying the echo constraint also satisfies agreement.
pub fn protocol_c_witness(n: usize, k: usize, t: usize) -> Option<usize> {
    if t == 0 {
        // Any ℓ works when nothing fails; report the echo protocol ℓ = 1.
        return Some(1);
    }
    // Echo constraint: (2ℓ+1) t < ℓ n  <=>  ℓ (n - 2t) > t.
    if n <= 2 * t {
        return None;
    }
    let l0 = t / (n - 2 * t) + 1;
    // Agreement constraint at ℓ0: (2k + ℓ0 - 1) t < (k - 1) n.
    ((2 * k + l0 - 1) * t < (k - 1) * n).then_some(l0)
}

/// Whether Protocol C(ℓ) covers `(n, k, t)` for some `ℓ` (Lemma 3.15 /
/// Lemma 4.11).
pub fn protocol_c_covers(n: usize, k: usize, t: usize) -> bool {
    protocol_c_witness(n, k, t).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force version of [`protocol_c_witness`] scanning all ℓ.
    fn brute_c_witness(n: usize, k: usize, t: usize) -> Option<usize> {
        if t == 0 {
            return Some(1);
        }
        (1..=3 * n.max(1)).find(|&l| (2 * k + l - 1) * t < (k - 1) * n && (2 * l + 1) * t < l * n)
    }

    #[test]
    fn v_function_matches_definition_cases() {
        // n - t - f <= 0 branch.
        assert_eq!(v_function(4, 3, 1), 3); // 4-3-1 = 0 -> n-f = 3
        assert_eq!(v_function(4, 4, 2), 2);
        // n - t - f > 0 branch: (t+1-f) + f*floor((n-f)/(n-t-f)).
        assert_eq!(v_function(10, 3, 0), 4); // t+1 = 4
        assert_eq!(v_function(10, 3, 1), 3 + 9 / 6); // 3 + 1 = 4
        assert_eq!(v_function(10, 3, 3), 1 + 3); // 1 + 3 = 4
    }

    #[test]
    #[should_panic(expected = "f <= t <= n")]
    fn v_function_rejects_f_above_t() {
        let _ = v_function(10, 2, 3);
    }

    #[test]
    fn z_function_small_t_is_t_plus_one() {
        // The paper notes: for t < n/3, floor((n-f)/(n-t-f)) = 1 for all
        // 0 <= f <= t, hence Protocol D guarantees agreement for any k > t.
        for n in [10usize, 16, 64] {
            for t in 1..(n / 3 + usize::from(n % 3 != 0)) {
                if 3 * t < n {
                    assert_eq!(z_function(n, t), t + 1, "Z({n},{t})");
                }
            }
        }
    }

    #[test]
    fn z_function_is_monotone_in_t() {
        for n in [8usize, 13, 64] {
            let mut prev = 0;
            for t in 0..=n {
                let z = z_function(n, t);
                assert!(z >= prev, "Z({n},{t}) = {z} < {prev}");
                prev = z;
            }
        }
    }

    #[test]
    fn z_function_extremes() {
        // t = 0: the only decision source is the single broadcaster p1.
        assert_eq!(z_function(64, 0), 1);
        // t = n: f = 0 gives min(t+1, n) = n.
        assert_eq!(z_function(64, 64), 64);
    }

    #[test]
    fn protocol_c_witness_matches_brute_force() {
        for n in [7usize, 16, 33, 64] {
            for k in 2..n {
                for t in 0..=n {
                    assert_eq!(
                        protocol_c_witness(n, k, t),
                        brute_c_witness(n, k, t),
                        "witness mismatch at n={n} k={k} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn protocol_c_needs_minority_of_a_third_at_least() {
        // The echo constraint alone caps t below n/2 for any ℓ.
        for t in 32..=64 {
            assert_eq!(protocol_c_witness(64, 10, t), None);
        }
        // ℓ = 1 is Bracha–Toueg: works up to t < n/3 if k is large enough.
        assert_eq!(protocol_c_witness(64, 32, 21), Some(1));
    }

    #[test]
    fn protocol_c_region_is_monotone() {
        // Solvable region grows with k and shrinks with t.
        for k in 2..63 {
            for t in 1..64 {
                if protocol_c_covers(64, k, t) {
                    assert!(protocol_c_covers(64, k + 1, t), "k-monotone at ({k},{t})");
                    assert!(protocol_c_covers(64, k, t - 1), "t-monotone at ({k},{t})");
                }
            }
        }
    }
}
