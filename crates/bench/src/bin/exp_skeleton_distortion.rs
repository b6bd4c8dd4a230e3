//! E3 — **Lemma 5 / Theorem 2**: skeleton distortion and round count vs n.
//!
//! The certified distortion is O(ε⁻¹ 2^{log* n} log_D n) and the
//! construction takes that many rounds (with O(log^ε n)-word messages).
//! This experiment scales n and prints, per size: the measured max/mean
//! stretch (sampled pairs), the certified envelope from the schedule, the
//! simulator round count, the planned timetable, and the max message
//! length.

use spanner_bench::{
    deny_unknown_args, f2, threads_arg, timed, workload, Scale, Table, TraceOutput,
};
use spanner_graph::distance::{PairSample, Pairs};
use spanner_netsim::Executor;
use ultrasparse::seq::log_star;
use ultrasparse::skeleton::{distributed, SkeletonParams};

fn main() {
    let traces = TraceOutput::from_args();
    let quick = Scale::from_args(&[Scale::Quick, Scale::Full]) == Scale::Quick;
    let threads = threads_arg();
    deny_unknown_args();
    let (sizes, pairs): (&[usize], _) = if quick {
        (&[500, 1_000, 2_000], 500)
    } else {
        (&[1_000, 2_000, 5_000, 10_000, 20_000, 50_000], 2_000)
    };
    let params = SkeletonParams::default();
    println!("E3 (Theorem 2): skeleton distortion/rounds vs n (D = 4, eps = 0.5)\n");

    let mut table = Table::new([
        "n",
        "m",
        "max stretch",
        "mean stretch",
        "certified",
        "rounds",
        "planned",
        "max words",
        "2^log* log n",
        "secs",
    ]);
    for &n in sizes {
        let g = workload(n, 6.0, 3);
        let csr = g.csr();
        let mut tr = traces.open(&format!("n{n}"));
        let ((spanner, rounds, words), secs) = timed(|| {
            let exec = Executor::Sequential;
            let s = distributed::build_distributed(csr, &params, 9, &exec, None, tr.sink())
                .expect("run");
            let m = s.metrics.expect("distributed metrics");
            (s, m.rounds, m.max_message_words)
        });
        tr.finish();
        assert!(spanner.is_spanning(&g));
        let sample = PairSample::new(&g, pairs, 5, threads);
        let r = spanner.stretch(&g, Pairs::Sampled(&sample), threads);
        let sched = params.schedule(n);
        let envelope =
            2f64.powi(log_star(n as f64) as i32) * (n as f64).log2() / 4f64.log2() / params.eps;
        table.row([
            n.to_string(),
            g.edge_count().to_string(),
            f2(r.max_multiplicative),
            f2(r.mean_multiplicative),
            sched.distortion_bound.to_string(),
            rounds.to_string(),
            distributed::timetable_rounds(n, &params).to_string(),
            words.to_string(),
            f2(envelope),
            f2(secs),
        ]);
    }
    table.print();
    println!(
        "\nShape check: measured stretch stays far below the certified bound and\n\
         grows slowly (log-like) with n; rounds track the planned timetable."
    );
}
