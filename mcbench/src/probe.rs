//! The traced run's per-check layer split: one check replayed through the
//! same public functions the engine path calls, with a timer around each
//! call. No span is added inside the program.

use crate::gate::Answer;
use analysis::{StaticVerdict, TriageConfig};
use driver::Engine;
use explicit::{ExploreConfig, ExploreResult, GraphExplorer};
use mcapi::program::Program;
use std::time::Instant;
use symbolic::checker::{
    check_program, check_trace_in_session, generate_trace, make_pairs, CheckConfig, CheckReport,
    MatchGen, Verdict,
};
use symbolic::encode::UniqueScope;
use symbolic::paths::{check_program_paths, PathsConfig};
use symbolic::session::CheckSession;

macro_rules! layers {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Per-layer work of one or more checks: µs spent in each layer's
        /// entry points and the counts those calls return.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Layers { $($(#[$doc])* pub $field: u64,)* }

        impl Layers {
            /// Field values in declaration order (the worker wire format).
            pub fn to_vec(self) -> Vec<u64> {
                vec![$(self.$field),*]
            }

            /// Inverse of [`Layers::to_vec`].
            pub fn from_slice(v: &[u64]) -> Option<Layers> {
                let mut it = v.iter();
                let l = Layers { $($field: *it.next()?,)* };
                it.next().is_none().then_some(l)
            }

            /// Accumulate another check's layers.
            pub fn add(&mut self, o: &Layers) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

layers! {
    /// `analysis::analyze_with`.
    triage_us,
    /// Checks the triage settled without an engine.
    settled,
    /// `symbolic::checker::generate_trace` (`mcapi::runtime` executions).
    trace_gen_us,
    /// `make_pairs` with the precise generator, its DFS states and pairs.
    precise_us,
    precise_states,
    /// `make_pairs` with the over-approximating generator.
    overapprox_us,
    pairs,
    /// Encoding: `CheckSession::new` plus group activation in the query.
    encode_us,
    sat_clauses,
    /// Time inside SMT checks, with the query's counters.
    solve_us,
    sat_checks,
    conflicts,
    refinements,
    /// Symbolic checks that ran a query, and how many of them reused an
    /// encoding built by an earlier check.
    sessions,
    reused,
    /// `symbolic::paths` enumeration plus `mcapi::sched` directed search.
    paths_us,
    paths_explored,
    paths_pruned,
    directed_transitions,
    paths_truncated,
    /// `GraphExplorer::explore`.
    explicit_us,
    explicit_states,
    explicit_transitions,
    explicit_capped,
    /// `frontend::parse_program`.
    parse_us,
    /// Wall time of the whole check.
    wall_us,
}

impl Layers {
    /// µs attributed to a named layer; `wall_us` minus this is the
    /// unattributed residual.
    pub fn attributed_us(&self) -> u64 {
        self.triage_us
            + self.trace_gen_us
            + self.precise_us
            + self.overapprox_us
            + self.encode_us
            + self.solve_us
            + self.paths_us
            + self.explicit_us
            + self.parse_us
    }

    /// Fold a symbolic report's solver and path counters in.
    pub fn add_report(&mut self, r: &CheckReport) {
        self.encode_us += r.timings.encode_us;
        self.sat_clauses += r.encode_stats.sat_clauses as u64;
        self.solve_us += r.timings.solve_us;
        self.sat_checks += r.sat_checks as u64;
        self.conflicts += r.solver_stats.conflicts;
        self.refinements += r.refinements as u64;
    }
}

/// Run `f` and return its result with the µs it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_micros() as u64)
}

pub fn answer(v: &Verdict) -> Answer {
    match v {
        Verdict::Safe => Answer::Safe,
        Verdict::Violation(_) => Answer::Violation,
        Verdict::Unknown(_) => Answer::Unknown,
    }
}

/// The configuration one check runs its engine under.
#[derive(Clone, Copy, Debug)]
pub struct EngineSetup {
    /// The static triage pre-pass (the portfolio's), or none (the CLI's).
    pub triage: Option<TriageConfig>,
    /// Single-trace engines' configuration (delivery and generator set).
    pub check: CheckConfig,
    /// The `symbolic-paths` configuration (delivery set).
    pub paths: PathsConfig,
    /// The explicit engine's configuration (delivery set).
    pub explore: ExploreConfig,
}

impl EngineSetup {
    /// Run the engine the way `mcapi-smc check` does: no triage, one call.
    pub fn run(&self, program: &Program, engine: Engine) -> Answer {
        match engine {
            Engine::Symbolic(_) => answer(&check_program(program, &self.check).verdict),
            Engine::SymbolicPaths => answer(&check_program_paths(program, &self.paths).verdict),
            Engine::Explicit => {
                explicit_answer(&GraphExplorer::new(program, self.explore).explore())
            }
        }
    }
}

fn explicit_answer(r: &ExploreResult) -> Answer {
    if r.found_violation() {
        Answer::Violation
    } else if r.truncated {
        Answer::Unknown
    } else {
        Answer::Safe
    }
}

/// Replay one check layer by layer: triage, then the engine's own calls.
pub fn probe(program: &Program, engine: Engine, setup: &EngineSetup) -> (Answer, Layers) {
    let start = Instant::now();
    let mut l = Layers::default();
    let mut answer = None;
    if let Some(t) = &setup.triage {
        let (report, us) = timed(|| analysis::analyze_with(program, t));
        l.triage_us = us;
        if let Some(v) = report.static_verdict {
            l.settled = 1;
            answer = Some(match v {
                StaticVerdict::Safe => Answer::Safe,
                StaticVerdict::Violation(_) => Answer::Violation,
            });
        }
    }
    let answer = answer.unwrap_or_else(|| match engine {
        Engine::Symbolic(_) => probe_single_trace(program, &setup.check, &mut l),
        Engine::SymbolicPaths => {
            // The call reports its own phase split; what it does beyond
            // encode, solve, enumeration and search (replay, aggregation)
            // stays in the residual.
            let r = check_program_paths(program, &setup.paths);
            l.add_report(&r);
            l.paths_us += r.timings.schedule_us + r.timings.enumerate_us;
            l.sessions += 1;
            l.paths_explored += r.paths_explored as u64;
            l.paths_pruned += r.paths_pruned as u64;
            l.directed_transitions += r.directed_transitions;
            if matches!(&r.verdict, Verdict::Unknown(why) if why.contains("truncated")) {
                l.paths_truncated += 1;
            }
            self::answer(&r.verdict)
        }
        Engine::Explicit => {
            let explorer = GraphExplorer::new(program, setup.explore);
            let (r, us) = timed(|| explorer.explore());
            l.explicit_us = us;
            l.explicit_states = r.states as u64;
            l.explicit_transitions = r.transitions as u64;
            l.explicit_capped = r.truncated as u64;
            explicit_answer(&r)
        }
    });
    l.wall_us = start.elapsed().as_micros() as u64;
    (answer, l)
}

/// The paper's single-trace pipeline, call by call, as
/// `symbolic::checker::check_program` runs it.
fn probe_single_trace(program: &Program, cfg: &CheckConfig, l: &mut Layers) -> Answer {
    let (trace, us) = timed(|| generate_trace(program, cfg));
    l.trace_gen_us = us;
    if trace.violation.is_some() {
        return Answer::Violation;
    }
    let (pairs, us) = timed(|| make_pairs(program, &trace, cfg));
    match cfg.matchgen {
        MatchGen::Precise => {
            l.precise_us = us;
            l.precise_states = pairs.states_explored as u64;
        }
        MatchGen::OverApprox => l.overapprox_us = us,
    }
    l.pairs = pairs.num_pairs() as u64;
    let (mut session, us) =
        timed(|| CheckSession::new(program, &trace, &pairs, UniqueScope::default()));
    // The query would report the core build as its own encode time; it is
    // timed here around the call instead.
    session.take_pending_encode_us();
    l.encode_us = us;
    l.sessions = 1;
    let report = check_trace_in_session(&mut session, program, &trace, cfg);
    l.add_report(&report);
    answer(&report.verdict)
}
