//! E4: the symbolic encoding and the exhaustive explicit-state explorer
//! must agree — identical behaviour (matching) sets and identical
//! violation verdicts — on every workload small enough to enumerate.
//! This is the soundness/completeness check for the paper's claim that the
//! SMT problem "accurately models all possible executions of the trace".

use explicit::{ExploreConfig, GraphExplorer};
use mcapi::program::Program;
use mcapi::types::DeliveryModel;
use symbolic::checker::{
    check_program, check_trace, enumerate_matchings, generate_trace, CheckConfig, MatchGen, Verdict,
};
use workloads::race::{delay_gap, race_with_winner_assert};
use workloads::random_program;
use workloads::RandomProgramConfig;
use workloads::{branchy, fig1, pipeline, race, ring, scatter};

/// Compare symbolic matchings against ground truth for one program+model.
///
/// Note: the explicit explorer enumerates matchings of *complete passing*
/// executions; enumerate_matchings asserts PProp positively, which aligns.
fn assert_matchings_agree(program: &Program, model: DeliveryModel) {
    let truth = GraphExplorer::new(program, ExploreConfig::with_matchings(model)).explore();
    assert!(!truth.truncated, "{}: ground truth truncated", program.name);
    for matchgen in [MatchGen::Precise, MatchGen::OverApprox] {
        let cfg = CheckConfig {
            delivery: model,
            matchgen,
            ..CheckConfig::default()
        };
        let trace = generate_trace(program, &cfg);
        if !trace.is_complete() || trace.violation.is_some() {
            // No clean trace exists: skip matching comparison (covered by
            // violation-verdict tests instead).
            continue;
        }
        let en = enumerate_matchings(program, &trace, &cfg, 10_000);
        assert_eq!(
            en.matchings, truth.matchings,
            "{} [{model}] {matchgen:?}: symbolic behaviours != ground truth\nsymbolic: {:?}\ntruth: {:?}",
            program.name, en.matchings, truth.matchings
        );
    }
}

/// Compare symbolic violation verdicts against ground truth.
fn assert_verdicts_agree(program: &Program, model: DeliveryModel) {
    let truth = GraphExplorer::new(program, ExploreConfig::with_model(model)).explore();
    for matchgen in [MatchGen::Precise, MatchGen::OverApprox] {
        let cfg = CheckConfig {
            delivery: model,
            matchgen,
            ..CheckConfig::default()
        };
        let report = check_program(program, &cfg);
        match (&report.verdict, truth.found_violation()) {
            (Verdict::Violation(_), true) | (Verdict::Safe, false) => {}
            (v, t) => panic!(
                "{} [{model}] {matchgen:?}: symbolic {v:?} vs ground-truth violation={t}",
                program.name
            ),
        }
    }
}

#[test]
fn fig1_matchings_agree_across_models() {
    let p = fig1();
    for model in DeliveryModel::ALL {
        assert_matchings_agree(&p, model);
    }
}

#[test]
fn race_matchings_agree() {
    for n in 2..=3 {
        let p = race(n);
        for model in DeliveryModel::ALL {
            assert_matchings_agree(&p, model);
        }
    }
}

#[test]
fn race4_unordered_has_24_behaviours() {
    let p = race(4);
    assert_matchings_agree(&p, DeliveryModel::Unordered);
    let truth =
        GraphExplorer::new(&p, ExploreConfig::with_matchings(DeliveryModel::Unordered)).explore();
    assert_eq!(truth.matchings.len(), 24);
}

#[test]
fn scatter_matchings_agree() {
    for w in 1..=3 {
        let p = scatter(w);
        assert_matchings_agree(&p, DeliveryModel::Unordered);
    }
}

#[test]
fn ring_matchings_agree_deterministic() {
    let p = ring(3, 2);
    for model in DeliveryModel::ALL {
        assert_matchings_agree(&p, model);
    }
}

#[test]
fn pipeline_verdicts_agree() {
    // Race-free under pairwise FIFO, violable under unordered.
    let p = pipeline(3, 2);
    assert_verdicts_agree(&p, DeliveryModel::PairwiseFifo);
    assert_verdicts_agree(&p, DeliveryModel::Unordered);
}

#[test]
fn race_assert_verdicts_agree() {
    for n in 2..=3 {
        let p = race_with_winner_assert(n);
        for model in DeliveryModel::ALL {
            assert_verdicts_agree(&p, model);
        }
    }
}

#[test]
fn delay_gap_verdicts_agree_and_split_by_model() {
    let p = delay_gap(1);
    // Ground truth: violation under Unordered, none under ZeroDelay.
    assert_verdicts_agree(&p, DeliveryModel::Unordered);
    assert_verdicts_agree(&p, DeliveryModel::ZeroDelay);
}

#[test]
fn branchy_per_trace_slices_union_to_ground_truth() {
    // The technique models executions "that follow the same sequence of
    // conditional branch outcomes as the provided execution trace": each
    // trace pins one branch-outcome sequence, so one symbolic enumeration
    // covers a *slice* of ground truth, and the union over traces with
    // distinct outcome sequences covers all of it.
    use mcapi::runtime::execute_random;
    use std::collections::BTreeSet;
    let p = branchy(1);
    let truth =
        GraphExplorer::new(&p, ExploreConfig::with_matchings(DeliveryModel::Unordered)).explore();

    let mut seen_outcomes = BTreeSet::new();
    let mut union = BTreeSet::new();
    for seed in 0..200 {
        let out = execute_random(&p, DeliveryModel::Unordered, seed);
        if !out.trace.is_complete() || out.trace.violation.is_some() {
            continue;
        }
        let outcomes = out.trace.branch_outcomes(0);
        if !seen_outcomes.insert(outcomes) {
            continue; // slice already covered
        }
        let cfg = CheckConfig::default();
        let en = enumerate_matchings(&p, &out.trace, &cfg, 1000);
        // Each slice is a subset of ground truth…
        assert!(
            en.matchings.is_subset(&truth.matchings),
            "slice exceeds ground truth"
        );
        union.extend(en.matchings);
    }
    // …and the slices together cover it.
    assert_eq!(union, truth.matchings);
    assert!(
        seen_outcomes.len() >= 2,
        "both branch outcomes must be exercised"
    );
}

#[test]
fn random_programs_cross_validate() {
    // Differential fuzzing at small scope: random programs, both
    // matchings and verdicts, against the exhaustive explorer.
    let cfg_small = RandomProgramConfig {
        threads: 3,
        sends_per_thread: 1,
        ..Default::default()
    };
    for seed in 0..15 {
        let p = random_program(seed, &cfg_small);
        assert_matchings_agree(&p, DeliveryModel::Unordered);
    }
}

#[test]
fn random_programs_with_nonblocking_cross_validate() {
    let cfg = RandomProgramConfig {
        threads: 3,
        sends_per_thread: 2,
        nonblocking_percent: 60,
        ..Default::default()
    };
    for seed in 0..8 {
        let p = random_program(seed, &cfg);
        assert_matchings_agree(&p, DeliveryModel::Unordered);
    }
}

#[test]
fn random_programs_with_asserts_verdicts_agree() {
    // Random program + a random property about thread 0's first received
    // value: symbolic verdict must equal the exhaustive explorer's.
    use mcapi::builder::ProgramBuilder;
    use mcapi::expr::{Cond, Expr};
    use mcapi::types::CmpOp;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 3usize;
        let mut b = ProgramBuilder::new(format!("rand-assert-{seed}"));
        let tids: Vec<_> = (0..n).map(|i| b.thread(format!("t{i}"))).collect();
        // Thread 0 receives from both others and asserts a random bound
        // on the first value.
        let v = b.recv(tids[0], 0);
        let bound = rng.gen_range(0..30i64);
        let op = match rng.gen_range(0..4) {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            _ => CmpOp::Ge,
        };
        b.assert_cond(
            tids[0],
            Cond::cmp(op, Expr::Var(v), Expr::Const(bound)),
            format!("first {op} {bound}"),
        );
        b.recv(tids[0], 0);
        for (k, &t) in tids.iter().enumerate().skip(1) {
            b.send_const(t, tids[0], 0, rng.gen_range(0..30i64) + k as i64);
        }
        let p = b.build().unwrap();
        for model in DeliveryModel::ALL {
            assert_verdicts_agree(&p, model);
        }
    }
}

#[test]
fn check_trace_on_recorded_violating_program_is_consistent() {
    // check_trace (as opposed to check_program) with an explicitly
    // generated clean trace must agree with ground truth too.
    let p = race_with_winner_assert(3);
    let cfg = CheckConfig::default();
    let trace = generate_trace(&p, &cfg);
    assert!(trace.is_complete() && trace.violation.is_none());
    let report = check_trace(&p, &trace, &cfg);
    assert!(matches!(report.verdict, Verdict::Violation(_)));
}
