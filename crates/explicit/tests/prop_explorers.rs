//! Property tests: all explorers agree with each other on random
//! programs — the graph search is the reference.

use explicit::sleepset::SleepConfig;
use explicit::{ExploreConfig, ExploreResult, GraphExplorer, SleepSetExplorer};
use mcapi::builder::ProgramBuilder;
use mcapi::expr::{Cond, Expr};
use mcapi::program::Program;
use mcapi::types::{CmpOp, DeliveryModel};
use proptest::prelude::*;

/// Random deadlock-free program (sends precede receives per thread).
fn arb_program() -> impl Strategy<Value = Program> {
    (
        2usize..4,
        prop::collection::vec((0usize..3, 1i64..20), 1..6),
    )
        .prop_map(|(n, sends)| {
            let mut b = ProgramBuilder::new("prop");
            let tids: Vec<_> = (0..n).map(|i| b.thread(format!("t{i}"))).collect();
            let mut incoming = vec![0usize; n];
            for (i, &(to_raw, val)) in sends.iter().enumerate() {
                let from = i % n;
                let mut to = to_raw % n;
                if to == from {
                    to = (to + 1) % n;
                }
                b.send_const(tids[from], tids[to], 0, val);
                incoming[to] += 1;
            }
            for (t, &cnt) in incoming.iter().enumerate() {
                for _ in 0..cnt {
                    b.recv(tids[t], 0);
                }
            }
            b.build().unwrap()
        })
}

/// Random program that may deadlock and may violate: each receive is
/// placed either after or before its thread's sends, and one thread may
/// assert that its first message is not a given value.
fn arb_verdict_program() -> impl Strategy<Value = Program> {
    (
        2usize..4,
        prop::collection::vec((0usize..3, 1i64..6, any::<bool>()), 1..6),
        (any::<bool>(), 0usize..3, 1i64..6),
    )
        .prop_map(|(n, sends, (asserts, at, bad))| {
            let mut b = ProgramBuilder::new("prop-verdict");
            let tids: Vec<_> = (0..n).map(|i| b.thread(format!("t{i}"))).collect();
            // Per thread: receives placed before the sends, sends, and
            // receives placed after them.
            let mut early = vec![0usize; n];
            let mut sends_of = vec![Vec::new(); n];
            let mut late = vec![0usize; n];
            for (i, &(to_raw, val, before)) in sends.iter().enumerate() {
                let from = i % n;
                let to = if to_raw % n == from {
                    (from + 1) % n
                } else {
                    to_raw % n
                };
                sends_of[from].push((to, val));
                if before {
                    early[to] += 1
                } else {
                    late[to] += 1
                }
            }
            let mut first = vec![None; n];
            for t in 0..n {
                for _ in 0..early[t] {
                    let v = b.recv(tids[t], 0);
                    first[t].get_or_insert(v);
                }
                for &(to, val) in &sends_of[t] {
                    b.send_const(tids[t], tids[to], 0, val);
                }
                for _ in 0..late[t] {
                    let v = b.recv(tids[t], 0);
                    first[t].get_or_insert(v);
                }
            }
            if let (true, Some(v)) = (asserts, first[at % n]) {
                let cond = Cond::cmp(CmpOp::Ne, Expr::Var(v), Expr::Const(bad));
                b.assert_cond(tids[at % n], cond, "first message differs");
            }
            b.build().unwrap()
        })
}

/// The verdict-relevant part of an exploration, violations as a set.
fn verdict(r: &ExploreResult) -> (Vec<String>, bool, bool, bool) {
    let mut violations: Vec<String> = r.violations.iter().map(|v| v.to_string()).collect();
    violations.sort();
    (
        violations,
        r.deadlocks > 0,
        r.complete_terminals > 0,
        r.truncated,
    )
}

fn model_strategy() -> impl Strategy<Value = DeliveryModel> {
    prop_oneof![
        Just(DeliveryModel::Unordered),
        Just(DeliveryModel::PairwiseFifo),
        Just(DeliveryModel::ZeroDelay),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The verdict configuration (semantic-state identity) reaches the
    /// same verdict as the matching-tracking configurations, with and
    /// without canonical pruning, under every delivery model, and visits
    /// no more states than tracking does. The canonical search can visit
    /// fewer: it skips zero-delay states that differ only in the global
    /// send stamps of independent sends, and states that follow a failing
    /// assertion in the normal form.
    #[test]
    fn verdict_config_agrees_with_tracking_and_canonical(p in arb_verdict_program()) {
        for model in DeliveryModel::ALL {
            let explore = |cfg| GraphExplorer::new(&p, cfg).explore();
            let plain = explore(ExploreConfig::with_model(model));
            let tracked = explore(ExploreConfig::with_matchings(model));
            let canonical = explore(ExploreConfig {
                use_canonical: true,
                ..ExploreConfig::with_matchings(model)
            });
            prop_assert_eq!(verdict(&plain), verdict(&tracked), "model {}", model);
            prop_assert_eq!(verdict(&plain), verdict(&canonical), "model {}", model);
            prop_assert!(plain.states <= tracked.states, "model {}", model);
        }
    }

    /// Sleep-set pruning preserves matchings, violations and deadlock
    /// existence versus the naive stateless enumeration.
    #[test]
    fn sleep_sets_preserve_semantics(p in arb_program(), model in model_strategy()) {
        let full = SleepSetExplorer::new(
            &p,
            SleepConfig { model, use_sleep_sets: false, ..SleepConfig::default() },
        )
        .explore();
        let red = SleepSetExplorer::new(
            &p,
            SleepConfig { model, use_sleep_sets: true, ..SleepConfig::default() },
        )
        .explore();
        prop_assert_eq!(&full.matchings, &red.matchings, "model {}", model);
        prop_assert_eq!(&full.violations, &red.violations);
        prop_assert_eq!(full.deadlocks > 0, red.deadlocks > 0);
        prop_assert!(red.complete_terminals <= full.complete_terminals);
    }

    /// Stateless enumeration and graph search agree on matchings.
    #[test]
    fn stateless_equals_graph_on_matchings(p in arb_program(), model in model_strategy()) {
        let graph = GraphExplorer::new(&p, ExploreConfig::with_matchings(model)).explore();
        let sleep = SleepSetExplorer::new(
            &p,
            SleepConfig { model, ..SleepConfig::default() },
        )
        .explore();
        prop_assert_eq!(&graph.matchings, &sleep.matchings);
    }

    /// Delivery-model hierarchy on arbitrary programs:
    /// zero-delay ⊆ pairwise-fifo ⊆ unordered.
    #[test]
    fn hierarchy_holds_on_random_programs(p in arb_program()) {
        let beh = |model| {
            GraphExplorer::new(&p, ExploreConfig::with_matchings(model)).explore().matchings
        };
        let un = beh(DeliveryModel::Unordered);
        let pf = beh(DeliveryModel::PairwiseFifo);
        let zd = beh(DeliveryModel::ZeroDelay);
        prop_assert!(zd.is_subset(&pf));
        prop_assert!(pf.is_subset(&un));
    }
}
