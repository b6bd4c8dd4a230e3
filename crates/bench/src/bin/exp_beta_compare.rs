//! E11 — the paper's §1.2 analytic comparison: the additive term β of the
//! sparsest Fibonacci spanner vs Elkin–Zhang's \[24\] sparsest
//! (1+ε, β)-spanner.
//!
//! The paper: *"our β is (ε⁻¹(log_φ log n + t))^{log_φ log n + t}, which
//! compares favorably with the β of Elkin and Zhang's sparsest spanner,
//! namely β = (ε⁻¹ t² log n log log n)^{t log log n}"*. Both are super-
//! polylogarithmic, so we tabulate log₂ β for a range of n, ε, t.

use spanner_bench::{deny_unknown_args, f2, Table};
use ultrasparse::fibonacci::params::PHI;

/// log2 of the Fibonacci β = (ε⁻¹(log_φ log n + t))^{log_φ log n + t}.
fn log2_beta_fib(n: f64, eps: f64, t: f64) -> f64 {
    let e = n.log2().ln() / PHI.ln() + t;
    e * (e / eps).log2()
}

/// log2 of the Elkin–Zhang β = (ε⁻¹ t² log n log log n)^{t log log n}.
fn log2_beta_ez(n: f64, eps: f64, t: f64) -> f64 {
    let loglog = n.log2().log2();
    (t * loglog) * ((t * t * n.log2() * loglog) / eps).log2()
}

fn main() {
    deny_unknown_args();
    println!(
        "E11 (Sect. 1.2): additive term beta of the sparsest spanners — this paper vs Elkin-Zhang [24]\n"
    );
    let mut table = Table::new([
        "n",
        "eps",
        "t",
        "log2 beta (Fibonacci)",
        "log2 beta (Elkin-Zhang)",
        "EZ / Fib (log ratio)",
    ]);
    for &exp in &[16u32, 20, 30, 40, 64] {
        let n = 2f64.powi(exp as i32);
        for &(eps, t) in &[(0.5, 2.0), (0.5, 4.0), (0.1, 4.0)] {
            let fib = log2_beta_fib(n, eps, t);
            let ez = log2_beta_ez(n, eps, t);
            table.row([
                format!("2^{exp}"),
                f2(eps),
                f2(t),
                f2(fib),
                f2(ez),
                f2(ez / fib),
            ]);
        }
    }
    table.print();
    println!(
        "\nShape check: the Fibonacci beta is smaller at every n (the ratio of\n\
         log-betas exceeds 1 and grows with n), reproducing the paper's claim\n\
         that its (1+eps, beta) regime strictly improves on [24]."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fibonacci_beta_always_smaller() {
        for exp in [16, 24, 32, 48, 64] {
            let n = 2f64.powi(exp);
            for &(eps, t) in &[(0.5, 2.0), (0.25, 3.0), (0.1, 6.0)] {
                assert!(
                    log2_beta_fib(n, eps, t) < log2_beta_ez(n, eps, t),
                    "n=2^{exp} eps={eps} t={t}"
                );
            }
        }
    }
}
