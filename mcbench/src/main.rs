//! End-to-end and per-layer benchmark for the mcapi-smc checker.
//!
//! ```text
//! mcbench --workload grid4|symbolic4|corpus --seed N --seconds S --trace 0|1 [--scale K]
//! ```
//!
//! Prints one line per measured pass, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`). See
//! README.md for the workloads, the metrics and the known defects they
//! expose.

mod corpus;
mod gate;
mod grids;
mod probe;
mod stats;

use gate::{Check, Known};
use probe::Layers;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Known answers for the default-seed grids, from the explicit engine and
/// cross-checked against `symbolic-paths` (regenerate with `--bless`).
const VERDICTS: &str = include_str!("../verdicts.tsv");

/// Set-up repetitions in one burst. A burst runs after every pass;
/// `setup_s` is the median of the fastest burst (see [`setup_s`]).
const SETUP_REPS: usize = 50;

/// Options from the command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{flag} needs a value")),
        }
    };
    let number = |flag: &str, default: f64| -> Result<f64, String> {
        value(flag)?.map_or(Ok(default), |v| {
            v.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or(format!("{flag}: not a number: {v}"))
        })
    };
    let workload = value("--workload")?.ok_or("--workload is required")?;
    if !["grid4", "symbolic4", "corpus"].contains(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let trace = match value("--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: workload.to_string(),
        seed: number("--seed", 0.0)? as u64,
        seconds: number("--seconds", 10.0)?,
        trace,
        scale: (number("--scale", 4.0)? as usize).max(1),
    })
}

/// One measured pass: every check of the workload, closed loop.
struct Pass {
    wall_s: f64,
    checks: Vec<Check>,
    peak_rss_mb: f64,
}

/// The traced run's result.
struct Traced {
    checks: Vec<(Check, Layers)>,
    /// Wall time of each unit the driver schedules, ms: a grid point's
    /// batch on `grid4`, a single check elsewhere.
    units_ms: Vec<f64>,
    /// Work outside every check (`grid4`'s per-batch triage).
    outside: Layers,
}

/// A workload: its set-up, its timed passes and its traced run.
trait Workload {
    /// One repetition of the set-up, in seconds.
    fn setup(&mut self) -> Result<f64, String>;
    fn pass(&mut self, workers: usize) -> Result<Pass, String>;
    fn traced(&mut self) -> Result<Traced, String>;
    fn known(&self) -> &Known;
    /// The per-check limit beyond which a check does not count as ok.
    fn limit_ms(&self) -> Option<f64>;
}

/// Time an in-process pass and its peak resident set.
fn timed_pass(f: impl FnOnce() -> Result<Vec<Check>, String>) -> Result<Pass, String> {
    stats::reset_peak_rss();
    let start = Instant::now();
    let checks = f()?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Pass {
        wall_s,
        checks,
        peak_rss_mb: stats::peak_rss_mb(),
    })
}

/// `grid4` (`portfolio`: batched sweeps) or `symbolic4` (single checks).
struct Grid {
    portfolio: bool,
    points: Vec<workloads::grid::FamilySpec>,
    scenarios: Vec<driver::Scenario>,
    known: Known,
}

impl Workload for Grid {
    fn setup(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        grids::build_all(&self.points);
        Ok(start.elapsed().as_secs_f64())
    }
    fn pass(&mut self, workers: usize) -> Result<Pass, String> {
        let scenarios = &self.scenarios;
        if self.portfolio {
            return timed_pass(|| Ok(grids::sweep(scenarios, workers)));
        }
        let cfg = grids::symbolic_config();
        let mut clients = vec![(); workers];
        timed_pass(|| {
            closed_loop(scenarios.len(), &mut clients, |_, i| {
                Ok(grids::run_one(&scenarios[i], &cfg))
            })
        })
    }
    fn traced(&mut self) -> Result<Traced, String> {
        let (checks, units_ms, outside) = if self.portfolio {
            grids::trace_batches(&self.scenarios)
        } else {
            let checks = grids::trace_singletons(&self.scenarios, &grids::symbolic_config());
            let units_ms = checks.iter().map(|(c, _)| c.ms).collect();
            (checks, units_ms, Layers::default())
        };
        Ok(Traced {
            checks,
            units_ms,
            outside,
        })
    }
    fn known(&self) -> &Known {
        &self.known
    }
    fn limit_ms(&self) -> Option<f64> {
        (!self.portfolio).then_some(grids::SYMBOLIC_LIMIT_MS as f64)
    }
}

struct Corpus {
    dir: PathBuf,
    files: Vec<corpus::CorpusFile>,
    /// (file, engine) pairs, in the order they run.
    list: Vec<(usize, usize)>,
    slots: Vec<corpus::Slot>,
    known: Known,
}

impl Corpus {
    /// Run every check with `workers` clients, each owning one worker
    /// process; returns the replies in list order.
    fn run_all(&mut self, workers: usize, probe: bool) -> Result<Vec<corpus::Reply>, String> {
        let slots = &mut self.slots[..workers];
        for s in slots.iter_mut() {
            s.ready()?;
        }
        let list = &self.list;
        closed_loop(list.len(), slots, |slot, i| {
            let (file, engine) = list[i];
            slot.run(file, engine, probe)
        })
    }
}

impl Workload for Corpus {
    fn setup(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        std::hint::black_box(corpus::load(&self.dir)?);
        Ok(start.elapsed().as_secs_f64())
    }
    fn pass(&mut self, workers: usize) -> Result<Pass, String> {
        let start = Instant::now();
        let replies = self.run_all(workers, false)?;
        let wall_s = start.elapsed().as_secs_f64();
        let peak_rss_mb = replies.iter().filter_map(|r| r.rss_mb).fold(0.0, f64::max);
        let checks = self
            .list
            .iter()
            .zip(&replies)
            .map(|(&fe, r)| corpus::to_check(&self.files, fe, r))
            .collect();
        Ok(Pass {
            wall_s,
            checks,
            peak_rss_mb,
        })
    }
    fn traced(&mut self) -> Result<Traced, String> {
        let replies = self.run_all(1, true)?;
        let checks: Vec<(Check, Layers)> = self
            .list
            .iter()
            .zip(&replies)
            .map(|(&fe, r)| {
                let c = corpus::to_check(&self.files, fe, r);
                // A killed check reports no split: all of it is residual.
                let l = r.layers.unwrap_or(Layers {
                    wall_us: (r.ms * 1e3) as u64,
                    ..Layers::default()
                });
                (c, l)
            })
            .collect();
        Ok(Traced {
            units_ms: checks.iter().map(|(c, _)| c.ms).collect(),
            checks,
            outside: Layers::default(),
        })
    }
    fn known(&self) -> &Known {
        &self.known
    }
    fn limit_ms(&self) -> Option<f64> {
        Some(corpus::LIMIT_MS as f64)
    }
}

/// Run `n` items closed loop: each client takes the next item only after
/// its previous one returned. One client runs on the calling thread.
fn closed_loop<S: Send, T: Send>(
    n: usize,
    clients: &mut [S],
    run: impl Fn(&mut S, usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let client = |state: &mut S| -> Result<Vec<(usize, T)>, String> {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return Ok(out);
            }
            out.push((i, run(state, i)?));
        }
    };
    let mut done: Vec<(usize, T)> = if let [only] = clients {
        client(only)?
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|state| s.spawn(|| client(state)))
                .collect();
            let mut all = Vec::new();
            for h in handles {
                all.extend(
                    h.join()
                        .map_err(|_| "client thread panicked".to_string())??,
                );
            }
            Ok::<_, String>(all)
        })?
    };
    done.sort_by_key(|(i, _)| *i);
    Ok(done.into_iter().map(|(_, t)| t).collect())
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../corpus"))
}

fn make_workload(args: &Args) -> Result<Box<dyn Workload>, String> {
    // The pinned table covers the default seed's points only; other seeds'
    // `random` points are gated by the cross-engine rule alone.
    let known = gate::parse_table(VERDICTS);
    Ok(match args.workload.as_str() {
        grid @ ("grid4" | "symbolic4") => {
            let portfolio = grid == "grid4";
            let points = grids::points(args.scale, args.seed);
            Box::new(Grid {
                portfolio,
                scenarios: if portfolio {
                    grids::portfolio_scenarios(&points)
                } else {
                    grids::symbolic_scenarios(&points)
                },
                points,
                known,
            })
        }
        _ => {
            let dir = corpus_dir();
            let files = corpus::load(&dir)?;
            if files.is_empty() {
                return Err(format!("no corpus files in {}", dir.display()));
            }
            let list = corpus::check_list(&files);
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            Box::new(Corpus {
                list,
                known: corpus::known(&files),
                slots: (0..2)
                    .map(|_| corpus::Slot::new(exe.clone(), dir.clone()))
                    .collect(),
                files,
                dir,
            })
        }
    })
}

/// A reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Running totals for the result line and the verdict gate.
#[derive(Default)]
struct Tally {
    attempted: usize,
    /// Checks whose answer the verdict gate rejects. A check that is only
    /// not ok (Unknown, over the limit, killed) has not failed: it lowers
    /// `ok_share`, and whether a check near the limit makes it depends on
    /// host speed.
    failed: usize,
    contradictions: Vec<String>,
}

impl Tally {
    /// Gate a pass's checks; `count` adds them to attempted/failed.
    /// Prints the checks that are not ok; returns how many are ok.
    fn gate(&mut self, w: &dyn Workload, checks: &[Check], count: bool) -> usize {
        let wrong = gate::contradictions(checks, w.known());
        if count {
            self.attempted += checks.len();
            self.failed += wrong.len().min(checks.len());
        }
        self.contradictions.extend(wrong);
        let not_ok: Vec<String> = checks
            .iter()
            .filter(|c| !gate::is_ok(c, w.known(), w.limit_ms()))
            .map(|c| format!("{} [{} {:.0} ms]", c.name(), c.answer.tag(), c.ms))
            .collect();
        if !not_ok.is_empty() {
            println!("not ok: {}", not_ok.join(", "));
        }
        checks.len() - not_ok.len()
    }
}

fn setup_burst(w: &mut dyn Workload, bursts: &mut Vec<Vec<f64>>) -> Result<(), String> {
    let burst = (0..SETUP_REPS)
        .map(|_| w.setup())
        .collect::<Result<_, _>>()?;
    bursts.push(burst);
    Ok(())
}

/// The smallest burst median. One burst takes a few ms and lands wholly
/// in a fast or a slow host phase (~0.45 or ~0.7 ms per corpus set-up),
/// so the median of all repetitions, or any mean over bursts, moves with
/// the run's share of slow phases; the fastest burst does not.
fn setup_s(bursts: &[Vec<f64>]) -> f64 {
    stats::min(&bursts.iter().map(|b| stats::median(b)).collect::<Vec<_>>())
}

/// The timed run: end-to-end metrics.
fn measure(w: &mut dyn Workload, seconds: f64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let mut setup = Vec::new();
    // Warm-up. Being the first pass in the process, it alone sees a clean
    // heap, so it gives `peak_rss_mb`: later passes reuse memory that
    // earlier ones freed but the allocator kept.
    let warm = w.pass(1)?;
    tally.gate(w, &warm.checks, false);
    println!(
        "warm-up workers=1 wall_s={:.4} peak_rss_mb={:.1}",
        warm.wall_s, warm.peak_rss_mb
    );
    let start = Instant::now();
    let (mut walls, mut walls_2w, mut oks, mut cpu) = (vec![], vec![], vec![], vec![]);
    // Each 1-worker pass's per-check times, in canonical check order.
    let mut check_ms: Vec<Vec<f64>> = Vec::new();
    let mut round = 0usize;
    loop {
        let round_start = Instant::now();
        let cpu_ms = stats::cpu_reference_ms();
        cpu.push(cpu_ms);
        // Alternate which pass goes first so drift spreads over both.
        let order: [usize; 2] = if round.is_multiple_of(2) {
            [1, 2]
        } else {
            [2, 1]
        };
        for workers in order {
            let p = w.pass(workers)?;
            let ok = tally.gate(w, &p.checks, true);
            print!(
                "pass {round} workers={workers} wall_s={:.4} ok={ok}/{} cpu_ref_ms={cpu_ms:.2}",
                p.wall_s,
                p.checks.len(),
            );
            if workers == 1 {
                walls.push(p.wall_s);
                oks.push(ok as f64 / p.checks.len() as f64);
                // A check that is not ok missed the limit, whatever it
                // measured: it counts as taking at least the limit.
                let ms: Vec<f64> = p
                    .checks
                    .iter()
                    .map(|c| match w.limit_ms() {
                        Some(l) if !gate::is_ok(c, w.known(), Some(l)) => c.ms.max(l),
                        _ => c.ms,
                    })
                    .collect();
                let q = [0.50, 0.90, 0.97].map(|q| stats::quantile(&ms, q));
                print!(" check_ms p50={:.3} p90={:.3} p97={:.3}", q[0], q[1], q[2]);
                check_ms.push(ms);
            } else {
                walls_2w.push(p.wall_s);
            }
            println!();
            setup_burst(w, &mut setup)?;
        }
        round += 1;
        let spent = start.elapsed().as_secs_f64();
        if spent + round_start.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    println!(
        "rounds={round} setup_bursts={} cpu_ref_ms median={:.2} min={:.2} max={:.2}",
        setup.len(),
        stats::median(&cpu),
        stats::min(&cpu),
        cpu.iter().copied().fold(0.0, f64::max),
    );
    // Each timing is the fastest of the run's passes. The host switches
    // between fast and slow phases lasting a fraction of a second to tens
    // of seconds, and contention from outside only ever slows a pass, so
    // the fastest pass moves least between runs. A check's time is its
    // fastest over the passes, and the percentiles are over checks.
    let per_check: Vec<f64> = (0..check_ms[0].len())
        .map(|i| stats::min(&check_ms.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect();
    Ok(vec![
        metric("setup_s", setup_s(&setup), "s"),
        metric("wall_s", stats::min(&walls), "s"),
        metric("wall_2w_s", stats::min(&walls_2w), "s"),
        metric("check_p50_ms", stats::quantile(&per_check, 0.50), "ms"),
        metric("check_p90_ms", stats::quantile(&per_check, 0.90), "ms"),
        metric("check_p97_ms", stats::quantile(&per_check, 0.97), "ms"),
        metric("ok_share", stats::mean(&oks), "share"),
        metric("peak_rss_mb", warm.peak_rss_mb, "MiB"),
    ])
}

/// The traced run: per-layer metrics, plus the verdict-equality check
/// against a timed pass.
fn trace_run(w: &mut dyn Workload, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let cpu_ms = stats::cpu_reference_ms();
    let timed = w.pass(1)?;
    tally.gate(w, &timed.checks, true);
    let wall_2w_s = w.pass(2)?.wall_s;
    let traced = w.traced()?;
    let traced_checks: Vec<Check> = traced.checks.iter().map(|(c, _)| c.clone()).collect();
    tally.gate(w, &traced_checks, true);
    for (t, c) in traced_checks.iter().zip(&timed.checks) {
        assert_eq!(
            t.name(),
            c.name(),
            "traced and timed checks run in one order"
        );
        if t.answer != c.answer {
            let note = format!(
                "traced run answered {} for {}, the timed pass {}",
                t.answer.tag(),
                t.name(),
                c.answer.tag()
            );
            // A limit that bit in one run only depends on host speed.
            if t.answer.definite() && c.answer.definite() {
                tally.failed += 1;
                tally.contradictions.push(note);
            } else {
                println!("note: {note}");
            }
        }
    }
    let mut sum = traced.outside;
    for (_, l) in &traced.checks {
        sum.add(l);
    }
    print_slowest(&traced.checks);

    let ms = |us: u64| us as f64 / 1e3;
    let n = |v: u64| v as f64;
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let units_sum: f64 = traced.units_ms.iter().sum();
    let units_max = traced.units_ms.iter().copied().fold(0.0, f64::max);
    Ok(vec![
        metric("driver.batch_max_ms", units_max, "ms"),
        metric("driver.batch_sum_ms", units_sum, "ms"),
        metric("driver.ideal_2w_ms", (units_sum / 2.0).max(units_max), "ms"),
        metric(
            "driver.idle_2w_share",
            (1.0 - timed.wall_s / (2.0 * wall_2w_s)).max(0.0),
            "share",
        ),
        metric("explicit.ms", ms(sum.explicit_us), "ms"),
        metric("explicit.states", n(sum.explicit_states), "count"),
        metric("explicit.transitions", n(sum.explicit_transitions), "count"),
        metric("explicit.capped", n(sum.explicit_capped), "count"),
        metric("matchpairs.precise_ms", ms(sum.precise_us), "ms"),
        metric("matchpairs.precise_states", n(sum.precise_states), "count"),
        metric("matchpairs.overapprox_ms", ms(sum.overapprox_us), "ms"),
        metric("matchpairs.pairs", n(sum.pairs), "count"),
        metric("encode.ms", ms(sum.encode_us), "ms"),
        metric("encode.sat_clauses", n(sum.sat_clauses), "count"),
        metric(
            "session.reused_share",
            share(sum.reused, sum.sessions),
            "share",
        ),
        metric("smt.solve_ms", ms(sum.solve_us), "ms"),
        metric("smt.sat_checks", n(sum.sat_checks), "count"),
        metric("smt.conflicts", n(sum.conflicts), "count"),
        metric(
            "smt.spurious_share",
            share(sum.refinements, sum.sat_checks),
            "share",
        ),
        metric("paths.ms", ms(sum.paths_us), "ms"),
        metric("paths.explored", n(sum.paths_explored), "count"),
        metric("paths.pruned", n(sum.paths_pruned), "count"),
        metric(
            "paths.directed_transitions",
            n(sum.directed_transitions),
            "count",
        ),
        metric("paths.truncated", n(sum.paths_truncated), "count"),
        metric("mcapi.trace_gen_ms", ms(sum.trace_gen_us), "ms"),
        metric("analysis.triage_ms", ms(sum.triage_us), "ms"),
        metric(
            "analysis.settled_share",
            share(sum.settled, traced.checks.len() as u64),
            "share",
        ),
        metric("frontend.parse_ms", ms(sum.parse_us), "ms"),
        metric("unattributed_ms", units_sum - ms(sum.attributed_us()), "ms"),
        metric("host.cpu_ref_ms", cpu_ms, "ms"),
    ])
}

/// The ten slowest traced checks with their layer split, in ms.
fn print_slowest(checks: &[(Check, Layers)]) {
    let mut by_time: Vec<&(Check, Layers)> = checks.iter().collect();
    by_time.sort_by(|a, b| b.0.ms.total_cmp(&a.0.ms));
    println!("slowest checks (ms): wall = triage + tracegen + matchpairs + encode + solve + paths + explicit + parse + other");
    for (c, l) in by_time.into_iter().take(10) {
        let ms = |us: u64| us as f64 / 1e3;
        println!(
            "  {:>9.2} = {:.2} + {:.2} + {:.2} + {:.2} + {:.2} + {:.2} + {:.2} + {:.2} + {:.2}  {} [{}]",
            c.ms,
            ms(l.triage_us),
            ms(l.trace_gen_us),
            ms(l.precise_us + l.overapprox_us),
            ms(l.encode_us),
            ms(l.solve_us),
            ms(l.paths_us),
            ms(l.explicit_us),
            ms(l.parse_us),
            c.ms - ms(l.attributed_us()),
            c.name(),
            c.answer.tag(),
        );
    }
}

fn print_result(correct: bool, tally: &Tally, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed.min(tally.attempted),
        body.join(", ")
    );
}

/// Regenerate `verdicts.tsv`: the explicit engine's answers on the
/// default-seed scale-4 grid, refusing any split with `symbolic-paths`.
fn bless() -> Result<(), String> {
    let points = grids::points(4, 0);
    let scenarios = driver::cross(
        &points,
        &mcapi::types::DeliveryModel::ALL,
        &[driver::Engine::SymbolicPaths, driver::Engine::Explicit],
    );
    // Triage off: every answer comes from the engines themselves.
    let cfg = driver::PortfolioConfig {
        static_triage: false,
        ..driver::PortfolioConfig::default()
    };
    let report = driver::run_portfolio(&scenarios, &cfg);
    let checks: Vec<Check> = scenarios
        .iter()
        .zip(&report.outcomes)
        .map(|(s, o)| grids::check(s, o.verdict.into(), 0.0))
        .collect();
    let split = gate::contradictions(&checks, &Known::new());
    if !split.is_empty() {
        return Err(split.join("\n"));
    }
    println!("# point\tdelivery\tanswer (explicit engine, default seed, scale 4)");
    for (s, c) in scenarios.iter().zip(&checks) {
        if s.engine == driver::Engine::Explicit {
            if !c.answer.definite() {
                return Err(format!(
                    "{}: explicit answered {}",
                    c.name(),
                    c.answer.tag()
                ));
            }
            println!("{}\t{}\t{}", s.spec.name(), s.delivery, c.answer.tag());
        }
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("--worker") {
        let dir = args.get(1).ok_or("--worker needs the corpus directory")?;
        return corpus::worker_main(std::path::Path::new(dir));
    }
    if args.first().map(String::as_str) == Some("--bless") {
        return bless();
    }
    let args = parse_args(args)?;
    let mut w = make_workload(&args)?;
    let mut tally = Tally::default();
    let metrics = if args.trace {
        trace_run(w.as_mut(), &mut tally)?
    } else {
        measure(w.as_mut(), args.seconds, &mut tally)?
    };
    for c in &tally.contradictions {
        println!("verdict gate: {c}");
    }
    print_result(tally.contradictions.is_empty(), &tally, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mcbench: {e}");
            ExitCode::FAILURE
        }
    }
}
