//! The distortion analysis of Fibonacci spanners as executable functions.
//!
//! Lemma 9 defines *valid* pairs of sequences {C^i_λ}, {I^i_λ}: for any
//! i-segment of length λ^i, either the spanner contains a path of length at
//! most C^i_λ between its endpoints (*complete*), or the segment's start is
//! within I^i_λ (minus progress) of a level-(i+1) hilltop (*incomplete*).
//! Lemma 10 gives closed-form bounds. Theorem 7 converts C^o_λ into the
//! per-distance distortion envelope, since every o-segment must be complete
//! (V_{o+1} = ∅).
//!
//! The experiments use [`distortion_envelope`] to check measured spanner
//! distances against the guarantee — [`within_envelope`] is that check as
//! the per-pair predicate of
//! [`verify_stretch`](spanner_graph::verify_stretch) — and the tests check
//! Lemma 10's closed forms against Lemma 9's recurrences numerically.

/// The recurrences of Lemma 9, iterated exactly (in f64):
/// returns (C^i_λ, I^i_λ) for the requested `i` and `lambda ≥ 1`.
///
/// ```text
/// I^0 = 1, I^1 = λ+1, C^0 = 1, C^1 = λ+2
/// I^i = I^{i−1} + 2 I^{i−2} + λ^i + (λ−1) λ^{i−2}
/// C^i = max(λ C^{i−1}, (λ−1) C^{i−1} + 2(I^{i−1} + I^{i−2}) + λ^{i−1})
/// ```
pub fn recurrence(lambda: u64, i: u32) -> (f64, f64) {
    assert!(lambda >= 1, "lambda must be >= 1");
    let l = lambda as f64;
    let (mut c_prev, mut i_prev) = (1.0f64, 1.0f64); // i = 0
    if i == 0 {
        return (c_prev, i_prev);
    }
    let (mut c_cur, mut i_cur) = (l + 2.0, l + 1.0); // i = 1
    for k in 2..=i {
        let lk = l.powi(k as i32);
        let lk2 = l.powi(k as i32 - 2);
        let i_next = i_cur + 2.0 * i_prev + lk + (l - 1.0) * lk2;
        let c_next =
            (l * c_cur).max((l - 1.0) * c_cur + 2.0 * (i_cur + i_prev) + l.powi(k as i32 - 1));
        i_prev = i_cur;
        i_cur = i_next;
        c_prev = c_cur;
        c_cur = c_next;
    }
    let _ = c_prev;
    (c_cur, i_cur)
}

/// The closed-form bound on C^i_λ from Lemma 10.
pub fn c_closed_form(lambda: u64, i: u32) -> f64 {
    match lambda {
        0 => 0.0,
        1 => 2f64.powi(i as i32 + 1),
        2 => 3.0 * (i as f64 + 1.0) * 2f64.powi(i as i32),
        _ => {
            let l = lambda as f64;
            let c_prime = 1.0 + (2.0 * l + 1.0) / ((l + 1.0) * (l - 2.0));
            let c = 3.0 + (6.0 * l - 2.0) / (l * (l - 2.0));
            let li = l.powi(i as i32);
            (c * li).min(li + 2.0 * c_prime * i as f64 * li / l)
        }
    }
}

/// The closed-form bound on I^i_λ from Lemma 10.
pub fn i_closed_form(lambda: u64, i: u32) -> f64 {
    match lambda {
        0 => 0.0,
        1 => (2f64.powi(i as i32 + 2)) / 3.0,
        2 => (i as f64 + 2.0 / 3.0) * 2f64.powi(i as i32) + 1.0 / 3.0,
        _ => {
            let l = lambda as f64;
            let c_prime = 1.0 + (2.0 * l + 1.0) / ((l + 1.0) * (l - 2.0));
            c_prime * l.powi(i as i32)
        }
    }
}

/// The guaranteed spanner distance for host distance `d` under order `o`
/// and radius base `ell` (Theorem 7 plus Corollary 1's rounding/chopping):
///
/// * round `d` up to λ^o with λ = ⌈d^{1/o}⌉ and use C^o_λ when λ ≤ ℓ−2,
/// * chop longer distances into pieces of length (ℓ−2)^o and bound each
///   piece by C^o_{ℓ−2}.
///
/// The result is an absolute bound on δ_S(u, v), deterministically valid
/// for the construction of [`sequential`](crate::fibonacci::sequential).
pub fn distortion_envelope(o: u32, ell: u64, d: u64) -> f64 {
    assert!(o >= 1, "order must be >= 1");
    assert!(ell >= 5, "ell must be >= 5 so lambda = 3 is usable");
    if d == 0 {
        return 0.0;
    }
    let lam_max = ell - 2;
    let lambda = (d as f64).powf(1.0 / o as f64).ceil() as u64;
    if lambda <= lam_max {
        c_closed_form(lambda, o)
    } else {
        let piece = (lam_max as f64).powi(o as i32);
        let pieces = (d as f64 / piece).ceil();
        pieces * c_closed_form(lam_max, o)
    }
}

/// Whether spanner distance `in_spanner` meets the envelope at host
/// distance `d`: `in_spanner ≤ distortion_envelope(o, ell, d)`, with a
/// 1e-9 slack for the envelope's float arithmetic.
pub fn within_envelope(o: u32, ell: u64, d: u64, in_spanner: u64) -> bool {
    in_spanner as f64 <= distortion_envelope(o, ell, d) + 1e-9
}

/// The four-stage multiplicative distortion of Theorem 7, as a function of
/// distance `d = λ^o`: returns the guaranteed multiplicative stretch (the
/// envelope divided by d).
pub fn multiplicative_stretch(o: u32, ell: u64, d: u64) -> f64 {
    if d == 0 {
        return 1.0;
    }
    distortion_envelope(o, ell, d) / d as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lemma 10's closed forms dominate Lemma 9's recurrences.
    #[test]
    fn closed_forms_dominate_recurrence() {
        for lambda in 1..=30u64 {
            for i in 0..=12u32 {
                let (c, ival) = recurrence(lambda, i);
                let cb = c_closed_form(lambda, i);
                let ib = i_closed_form(lambda, i);
                assert!(
                    c <= cb * (1.0 + 1e-9),
                    "C: lambda={lambda} i={i}: {c} > {cb}"
                );
                assert!(
                    ival <= ib * (1.0 + 1e-9),
                    "I: lambda={lambda} i={i}: {ival} > {ib}"
                );
            }
        }
    }

    /// Exact small values of the recurrences.
    #[test]
    fn recurrence_base_cases() {
        assert_eq!(recurrence(5, 0), (1.0, 1.0));
        assert_eq!(recurrence(5, 1), (7.0, 6.0));
        // I^2_λ = I^1 + 2 I^0 + λ² + (λ−1) = (λ+1) + 2 + λ² + λ − 1
        let (c2, i2) = recurrence(5, 2);
        assert_eq!(i2, 6.0 + 2.0 + 25.0 + 4.0);
        // C^2 = max(5·7, 4·7 + 2(6+1) + 5) = max(35, 47) = 47
        assert_eq!(c2, 47.0);
    }

    /// λ = 1 closed forms: C^i ≤ 2^{i+1}, I^i ≤ 2^{i+2}/3 (Lemma 10).
    #[test]
    fn lambda_one_exact() {
        // Exact: C^i_1 = 2^{i+1} − 1, alternating I.
        for i in 0..10u32 {
            let (c, _) = recurrence(1, i);
            assert_eq!(c, 2f64.powi(i as i32 + 1) - 1.0, "i={i}");
        }
    }

    /// Theorem 7's headline values: multiplicative stretch tends to 3 for
    /// large λ and is ≈ λ+2 at i = 1.
    #[test]
    fn stretch_stages() {
        let o = 3;
        let ell = 40; // large enough to allow λ up to 38
                      // Stage "tending to 3": at λ = 30, stretch ≤ 3 + (6λ−2)/(λ(λ−2))
        let d = 30u64.pow(o);
        let s = multiplicative_stretch(o, ell, d);
        let c30 = 3.0 + (6.0 * 30.0 - 2.0) / (30.0 * 28.0);
        assert!(s <= c30 + 1e-9, "stretch {s}");
        assert!(s > 1.0);
        // Fourth stage: at λ = 3o/ε' the second closed form gives 1 + ε'
        // (Theorem 7's last line): stretch ≤ 1 + 2c'_λ o / λ ≤ 1 + ε'.
        let eps_p = 0.5f64;
        let lam = (3.0 * o as f64 / eps_p).ceil() as u64; // 18 ≤ ℓ − 2
        let s4 = multiplicative_stretch(o, ell, lam.pow(o));
        assert!(s4 <= 1.0 + eps_p + 1e-9, "fourth stage stretch {s4}");
        // Tiny distances: envelope ≈ 2^{o+1} · d at d = 1.
        let s1 = multiplicative_stretch(o, ell, 1);
        assert!(s1 <= 2f64.powi(o as i32 + 1));
        // λ = 2 stage: 3(o+1)2^o / 2^o = 3(o+1).
        let s2 = multiplicative_stretch(o, ell, 2u64.pow(o));
        assert!((s2 - 3.0 * (o as f64 + 1.0)).abs() < 1e-9);
    }

    /// Envelope is monotone non-decreasing in d (absolute distances).
    #[test]
    fn envelope_monotone() {
        let (o, ell) = (2, 14);
        let mut last = 0.0;
        for d in 0..2_000u64 {
            let e = distortion_envelope(o, ell, d);
            assert!(e + 1e-9 >= last, "envelope dropped at d={d}: {e} < {last}");
            assert!(e + 1e-9 >= d as f64, "envelope below identity at {d}");
            last = e;
        }
    }

    /// Chopping: far beyond (ℓ−2)^o the stretch approaches C^o_{ℓ−2}/(ℓ−2)^o.
    #[test]
    fn chopping_asymptote() {
        let (o, ell) = (2u32, 14u64);
        let lam = ell - 2;
        let asym = c_closed_form(lam, o) / (lam as f64).powi(o as i32);
        let s = multiplicative_stretch(o, ell, 1_000_000);
        assert!(s <= asym * 1.01, "{s} vs {asym}");
        assert!(s >= 1.0);
    }

    #[test]
    #[should_panic(expected = "lambda must be >= 1")]
    fn recurrence_rejects_zero() {
        recurrence(0, 3);
    }
}
