//! E1: the coverage gap of delay-free models, quantified. For each
//! workload: behaviours and violation verdicts under the three delivery
//! models, explicit vs symbolic.
//!
//! Run: `cargo run --release -p bench --bin exp_delay_models`

use explicit::{ExploreConfig, GraphExplorer};
use mcapi::program::Program;
use mcapi::types::DeliveryModel;
use symbolic::checker::{check_program, CheckConfig, MatchGen, Verdict};
use workloads::race::{delay_gap, race_with_winner_assert};
use workloads::{fig1::fig1_with_assert, pipeline};

fn verdict(v: &Verdict) -> &'static str {
    match v {
        Verdict::Violation(_) => "VIOLATION",
        Verdict::Safe => "safe",
        Verdict::Unknown(_) => "unknown",
    }
}

fn main() {
    println!("# E1: behaviours and verdicts per delivery model\n");
    println!(
        "{}",
        bench::header(&[
            "workload",
            "model",
            "behaviours (explicit)",
            "violation (explicit)",
            "violation (symbolic)",
        ])
    );

    let workloads: Vec<(String, Program)> = vec![
        ("fig1+assert".into(), fig1_with_assert()),
        ("race-assert(2)".into(), race_with_winner_assert(2)),
        ("race-assert(3)".into(), race_with_winner_assert(3)),
        ("delay-gap(1)".into(), delay_gap(1)),
        ("delay-gap(2)".into(), delay_gap(2)),
        ("pipeline(3,2)".into(), pipeline(3, 2)),
    ];

    for (name, program) in &workloads {
        for model in DeliveryModel::ALL {
            let truth = GraphExplorer::new(program, ExploreConfig::with_matchings(model)).explore();
            let cfg = CheckConfig {
                delivery: model,
                matchgen: MatchGen::OverApprox,
                ..CheckConfig::default()
            };
            let report = check_program(program, &cfg);
            println!(
                "{}",
                bench::row(&[
                    name.clone(),
                    model.to_string(),
                    truth.matchings.len().to_string(),
                    if truth.found_violation() {
                        "VIOLATION".into()
                    } else {
                        "safe".into()
                    },
                    verdict(&report.verdict).into(),
                ])
            );
        }
        println!(
            "{}",
            bench::row(&["".into(), "".into(), "".into(), "".into(), "".into()])
        );
    }

    println!("\nReading: the delay-gap family is the paper's Fig. 4b phenomenon —");
    println!("violations exist under `unordered`/`pairwise-fifo` but are invisible");
    println!("under `zero-delay` (the MCC / Elwakil&Yang network model).");
}
