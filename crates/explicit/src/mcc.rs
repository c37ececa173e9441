//! The MCC stand-in and the ground-truth checker.
//!
//! MCC (Sharma, Gopalakrishnan, Mercer, Holt — FMCAD'09) explores thread
//! interleavings of an MCAPI application but, per the PPoPP'11 paper, "is
//! not able to consider non-deterministic delays in the communication
//! network when sending messages from two different threads to a common
//! endpoint". Concretely: its network delivers each message instantly, so
//! an endpoint's queue is FIFO in global send order. That is exactly
//! [`DeliveryModel::ZeroDelay`] in this workspace, so the MCC baseline is
//! the graph explorer pinned to that model.

use crate::explorer::{ExploreConfig, GraphExplorer};
use crate::stats::ExploreResult;
use mcapi::program::Program;
use mcapi::types::DeliveryModel;

/// Exhaustively check `program` the way MCC would: all interleavings,
/// instant in-order delivery. Misses delay-dependent behaviours (the
/// paper's Fig. 4b).
pub fn mcc_check(program: &Program) -> ExploreResult {
    GraphExplorer::new(
        program,
        ExploreConfig::with_matchings(DeliveryModel::ZeroDelay),
    )
    .explore()
}

/// Exhaustively check `program` under the full arbitrary-delay semantics —
/// the small-scope ground truth the symbolic encoding is validated against.
pub fn ground_truth_check(program: &Program) -> ExploreResult {
    GraphExplorer::new(
        program,
        ExploreConfig::with_matchings(DeliveryModel::Unordered),
    )
    .explore()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcapi::builder::ProgramBuilder;
    use mcapi::expr::{Cond, Expr};
    use mcapi::types::CmpOp;

    /// The canonical coverage-gap program — the exact shape of the paper's
    /// Fig. 1. t2 sends Y to t0 and *then* kicks t1; t1 sends X to t0 only
    /// after the kick. So in every execution Y is sent before X, and only
    /// a transit delay of Y can make recv(A) observe X first (Fig. 4b).
    fn delay_sensitive() -> Program {
        let mut b = ProgramBuilder::new("gap");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let a = b.recv(t0, 0); // A
        let _b2 = b.recv(t0, 0); // B
                                 // Property: recv(A) sees Y (value 2) — holds under zero delay.
        b.assert_cond(
            t0,
            Cond::cmp(CmpOp::Eq, Expr::Var(a), Expr::Const(2)),
            "recv(A) must see Y first",
        );
        let _kick = b.recv(t1, 0); // C
        b.send_const(t1, t0, 0, 1); // X
        b.send_const(t2, t0, 0, 2); // Y (sent before the kick)
        b.send_const(t2, t1, 0, 9); // Z (the kick)
        b.build().unwrap()
    }

    #[test]
    fn mcc_misses_delay_dependent_violation() {
        let p = delay_sensitive();

        let mcc = mcc_check(&p);
        let truth = ground_truth_check(&p);
        assert!(
            !mcc.found_violation(),
            "MCC's zero-delay network cannot reorder the sends: {:?}",
            mcc.violations
        );
        assert!(
            truth.found_violation(),
            "with arbitrary delays the violation is reachable"
        );
    }

    #[test]
    fn mcc_still_finds_schedule_only_races() {
        // When the race needs no delay (both sends unordered in time),
        // MCC finds the violation too.
        let mut b = ProgramBuilder::new("plain-race");
        let t0 = b.thread("t0");
        let t1 = b.thread("t1");
        let t2 = b.thread("t2");
        let a = b.recv(t0, 0);
        b.assert_cond(
            t0,
            Cond::cmp(CmpOp::Eq, Expr::Var(a), Expr::Const(1)),
            "first is 1",
        );
        b.send_const(t1, t0, 0, 1);
        b.send_const(t2, t0, 0, 2);
        let p = b.build().unwrap();
        assert!(mcc_check(&p).found_violation());
        assert!(ground_truth_check(&p).found_violation());
    }

    #[test]
    fn coverage_gap_is_one_sided() {
        // MCC behaviours are always a subset of ground truth.
        let p = delay_sensitive();
        let mcc = mcc_check(&p);
        let truth = ground_truth_check(&p);
        assert!(mcc.matchings.is_subset(&truth.matchings));
    }
}
