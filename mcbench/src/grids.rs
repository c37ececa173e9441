//! The grid workloads: `grid4`, the portfolio sweep, and `symbolic4`, the
//! same points checked one scenario at a time by the symbolic engines.

use crate::gate::{Answer, Check};
use crate::probe::{probe, timed, EngineSetup, Layers};
use analysis::TriageConfig;
use driver::pool::CancelToken;
use driver::{
    batch_by_grid_point, cross, run_batch, run_portfolio, run_portfolio_traced, run_scenario,
    Engine, PortfolioConfig, Scenario, ScenarioOutcome,
};
use explicit::ExploreConfig;
use mcapi::types::DeliveryModel;
use std::collections::BTreeMap;
use std::hint::black_box;
use symbolic::checker::{generate_trace, make_pairs, MatchGen};
use workloads::grid::{default_grid, FamilySpec};

/// The default grid at `scale`, with the `random` family's points shifted
/// by the workload seed: seed 0 keeps `random0..`, the ROADMAP grid.
pub fn points(scale: usize, seed: u64) -> Vec<FamilySpec> {
    default_grid(scale)
        .into_iter()
        .map(|p| match p {
            FamilySpec::Random { seed: i } => FamilySpec::Random {
                seed: seed.wrapping_mul(4).wrapping_add(i),
            },
            p => p,
        })
        .collect()
}

/// The workload's set-up: every grid point built into its program.
pub fn build_all(points: &[FamilySpec]) {
    for p in points {
        black_box(p.build());
    }
}

/// `grid4` scenarios: every engine.
pub fn portfolio_scenarios(points: &[FamilySpec]) -> Vec<Scenario> {
    cross(points, &DeliveryModel::ALL, &Engine::ALL)
}

/// `symbolic4` scenarios: the three symbolic engines.
pub fn symbolic_scenarios(points: &[FamilySpec]) -> Vec<Scenario> {
    let engines = [
        Engine::Symbolic(MatchGen::Precise),
        Engine::Symbolic(MatchGen::OverApprox),
        Engine::SymbolicPaths,
    ];
    cross(points, &DeliveryModel::ALL, &engines)
}

/// `symbolic4` runs every check alone under this limit.
pub const SYMBOLIC_LIMIT_MS: u64 = 1000;

pub fn symbolic_config() -> PortfolioConfig {
    PortfolioConfig {
        budget_ms: Some(SYMBOLIC_LIMIT_MS),
        ..PortfolioConfig::default()
    }
}

fn key(s: &Scenario) -> String {
    format!("{}/{}", s.spec.name(), s.delivery)
}

pub fn check(s: &Scenario, answer: Answer, ms: f64) -> Check {
    Check {
        key: key(s),
        engine: s.engine,
        answer,
        ms,
    }
}

/// One `run_portfolio` sweep with `threads` workers.
///
/// The driver reports scenario wall time in whole ms only, so the
/// 1-worker sweep, whose per-check times feed the `check_*` metrics,
/// records the driver's own per-scenario spans: about 5k ring-buffer
/// writes per pass, far below the pass-to-pass noise (traced and untraced
/// passes run back to back differ by less than either varies).
pub fn sweep(scenarios: &[Scenario], threads: usize) -> Vec<Check> {
    let cfg = PortfolioConfig {
        threads,
        ..PortfolioConfig::default()
    };
    if threads > 1 {
        let report = run_portfolio(scenarios, &cfg);
        return outcome_checks(scenarios, &report.outcomes, |o| o.wall_ms as f64);
    }
    let tracer = trace::Tracer::with_capacity(LANE_SPANS);
    let report = run_portfolio_traced(scenarios, &cfg, Some(&tracer));
    let spans = scenario_spans(&tracer, scenarios);
    outcome_checks(scenarios, &report.outcomes, |o| span_ms(&spans, o))
}

fn outcome_checks(
    scenarios: &[Scenario],
    outcomes: &[ScenarioOutcome],
    ms: impl Fn(&ScenarioOutcome) -> f64,
) -> Vec<Check> {
    scenarios
        .iter()
        .zip(outcomes)
        .map(|(s, o)| check(s, o.verdict.into(), ms(o)))
        .collect()
}

/// Scenario span durations (µs) by scenario name from a recording.
fn scenario_spans(tracer: &trace::Tracer, scenarios: &[Scenario]) -> BTreeMap<String, u64> {
    let names: std::collections::BTreeSet<String> = scenarios.iter().map(Scenario::name).collect();
    tracer
        .lanes()
        .into_iter()
        .flat_map(|l| l.events)
        .filter(|e| names.contains(&e.name))
        .map(|e| (e.name, e.dur_us))
        .collect()
}

/// A scenario's span duration, ms.
fn span_ms(spans: &BTreeMap<String, u64>, o: &ScenarioOutcome) -> f64 {
    let us = spans
        .get(&o.scenario)
        .expect("the lane holds every scenario's span");
    *us as f64 / 1e3
}

/// Span capacity per lane; the scale-4 sweep records about 5k spans.
const LANE_SPANS: usize = 1 << 16;

/// One `symbolic4` check: the scenario alone through `run_scenario`.
pub fn run_one(s: &Scenario, cfg: &PortfolioConfig) -> Check {
    let (o, us) = timed(|| run_scenario(s, cfg));
    check(s, o.verdict.into(), us as f64 / 1e3)
}

/// The engine configuration `run_scenario` uses for `s`.
fn portfolio_setup(s: &Scenario, cfg: &PortfolioConfig) -> EngineSetup {
    let explore = ExploreConfig {
        model: s.delivery,
        max_states: cfg.max_states,
        use_canonical: cfg.canonical,
        ..ExploreConfig::default()
    };
    let check = match s.engine {
        Engine::Explicit => symbolic::checker::CheckConfig::default(),
        _ => cfg.check_config(s),
    };
    let paths = match s.engine {
        Engine::SymbolicPaths => cfg.paths_config(s),
        _ => symbolic::paths::PathsConfig::default(),
    };
    EngineSetup {
        triage: cfg.static_triage.then_some(TriageConfig {
            max_static_paths: cfg.max_paths as u64,
        }),
        check,
        paths,
        explore,
    }
}

/// `symbolic4`'s traced run: each scenario replayed layer by layer.
pub fn trace_singletons(scenarios: &[Scenario], cfg: &PortfolioConfig) -> Vec<(Check, Layers)> {
    scenarios
        .iter()
        .map(|s| {
            let ((answer, mut layers), us) = timed(|| {
                let program = s.spec.build();
                probe(&program, s.engine, &portfolio_setup(s, cfg))
            });
            layers.wall_us = us;
            (check(s, answer, us as f64 / 1e3), layers)
        })
        .collect()
}

/// `grid4`'s traced run: `run_batch` per grid point with a lane
/// installed, so the driver's spans and outcome counters give the split
/// inside each batch. Trace generation and match-pair generation have no
/// span or outcome field; they are timed by calling `generate_trace` and
/// `make_pairs` again for each single-trace scenario, outside the batch.
/// Returns the checks, each batch's wall time in ms, and the triage time,
/// which runs once per batch outside every scenario span.
pub fn trace_batches(scenarios: &[Scenario]) -> (Vec<(Check, Layers)>, Vec<f64>, Layers) {
    let cfg = PortfolioConfig::default();
    let tracer = trace::Tracer::with_capacity(LANE_SPANS);
    let mut outcomes: Vec<Option<ScenarioOutcome>> = vec![None; scenarios.len()];
    let mut batch_ms = Vec::new();
    {
        let _lane = tracer.install("main");
        for batch in batch_by_grid_point(scenarios) {
            let (outs, us) = timed(|| run_batch(&batch, &cfg, &CancelToken::new()));
            batch_ms.push(us as f64 / 1e3);
            for (i, o) in outs {
                outcomes[i] = Some(o);
            }
        }
    }
    let spans = scenario_spans(&tracer, scenarios);
    let mut batch_level = Layers::default();
    for e in tracer.lanes().into_iter().flat_map(|l| l.events) {
        if e.name == "analysis.triage" {
            batch_level.triage_us += e.dur_us;
        }
    }
    let checks = scenarios
        .iter()
        .zip(outcomes)
        .map(|(s, o)| {
            let o = o.expect("every scenario lands in one batch");
            let ms = span_ms(&spans, &o);
            let layers = outcome_layers(s, &o, &cfg, (ms * 1e3) as u64);
            (check(s, o.verdict.into(), ms), layers)
        })
        .collect();
    (checks, batch_ms, batch_level)
}

/// A batched scenario's layer split, read from its outcome.
fn outcome_layers(
    s: &Scenario,
    o: &ScenarioOutcome,
    cfg: &PortfolioConfig,
    wall_us: u64,
) -> Layers {
    let mut l = Layers {
        wall_us,
        ..Layers::default()
    };
    if o.statically_decided {
        l.settled = 1;
        return l;
    }
    match s.engine {
        Engine::Explicit => {
            // The scenario span wraps only the exploration.
            l.explicit_us = wall_us;
            l.explicit_states = o.states as u64;
            l.explicit_transitions = o.transitions as u64;
            l.explicit_capped = (o.verdict == driver::VerdictKind::Unknown) as u64;
        }
        engine => {
            l.encode_us = o.encode_us;
            if !o.reused_encoding {
                l.sat_clauses = o.sat_clauses as u64;
            }
            l.solve_us = o.solve_us;
            l.sat_checks = o.sat_checks as u64;
            l.conflicts = o.conflicts;
            l.refinements = o.refinements as u64;
            l.sessions = 1;
            l.reused = o.reused_encoding as u64;
            l.pairs = o.match_pairs as u64;
            if engine == Engine::SymbolicPaths {
                l.paths_us = o.schedule_us + o.enumerate_us;
                l.paths_explored = o.paths_explored as u64;
                l.paths_pruned = o.paths_pruned as u64;
                l.directed_transitions = o.directed_transitions;
                l.paths_truncated = o.detail.contains("truncated") as u64;
            } else {
                let program = s.spec.build();
                let check_cfg = cfg.check_config(s);
                let (trace, us) = timed(|| generate_trace(&program, &check_cfg));
                l.trace_gen_us = us;
                if trace.violation.is_none() {
                    let (pairs, us) = timed(|| make_pairs(&program, &trace, &check_cfg));
                    if engine == Engine::Symbolic(MatchGen::Precise) {
                        l.precise_us = us;
                        l.precise_states = pairs.states_explored as u64;
                    } else {
                        l.overapprox_us = us;
                    }
                }
            }
        }
    }
    l
}
