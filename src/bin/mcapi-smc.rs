//! `mcapi-smc` — command-line front end for the symbolic checker.
//!
//! Programs are exchanged either as **MCAPI-lite** source (`.mcapi`, see
//! `crates/frontend` and the grammar reference in ARCHITECTURE.md) or as
//! JSON (the DSL serialises with serde). `check`/`info`/`behaviours`/
//! `explore`/`run` accept both: files ending in `.json` — or whose first
//! non-blank character is `{` — take the JSON path, everything else is
//! parsed as MCAPI-lite with caret diagnostics on error.
//!
//! ```text
//! mcapi-smc check <program> [--delivery unordered|fifo|zero] [--engine E] [--budget-ms MS] [--max-paths N] [--unroll N] [--no-canonical]
//! mcapi-smc fmt <program|-> [--write]   # canonical MCAPI-lite (idempotent)
//! mcapi-smc lint <program|dir> [--deny warnings] [--unroll N]  # static analysis, caret diagnostics
//! mcapi-smc export <family|point> [--scale K] [--out DIR]  # grid → .mcapi
//! mcapi-smc behaviours <program> [--delivery ...] [--limit N]
//! mcapi-smc explore <program> [--delivery ...]    # explicit ground truth
//! mcapi-smc run <program> [--seed N] [--delivery ...]  # one random execution
//! mcapi-smc demo <name>          # print a workload grid point as JSON
//! mcapi-smc --list-programs      # every accepted grid-point name
//! mcapi-smc portfolio [opts]     # parallel grid, cancel on first violation
//! mcapi-smc sweep [opts]         # parallel grid, run everything
//! mcapi-smc corpus-check <dir> [--min N] [--slowest N]  # verify `// expect:` headers
//! ```
//!
//! `check` engines: `symbolic-overapprox` (default), `symbolic-precise`
//! (`--precise` is the legacy spelling), `symbolic-paths` (branch-complete:
//! enumerates every feasible control-flow path and checks each one —
//! `--max-paths N` bounds the frontier, truncation degrades to UNKNOWN),
//! `explicit`. A `.mcapi` file's `// delivery:` header supplies the
//! delivery model when no `--delivery` flag is given. `repeat` loops are
//! unrolled at compile time; `--unroll N` sets the iteration bound
//! (precedence: flag > the file's `// unroll:` header > default 64 —
//! each level replaces the bound, in either direction).
//!
//! Portfolio options: `--threads N` (default: all cores), `--scale K`
//! (grid size per family, default 2), `--families a,b,c` (default: all),
//! `--corpus DIR` (also cross every `.mcapi` file in DIR), `--delivery
//! MODEL` (default: all three), `--budget-ms MS` (per-scenario solver
//! budget), `--max-paths N` (per-scenario path budget for the
//! `symbolic-paths` engine), `--json PATH` (`-` for stdout; suppresses the
//! table), `--metrics-out PATH` (Prometheus text exposition of the run's
//! counters/gauges/histograms), `--events-out PATH` (one structured JSON
//! event per scenario, with encode/solve/schedule/enumerate timing
//! breakdowns), `--trace-out PATH` (Chrome trace-event JSON of the whole
//! run — one timeline lane per worker thread, spans down to individual
//! solver queries; load it in Perfetto or `chrome://tracing`),
//! `--no-session-reuse` (re-encode every scenario from scratch instead
//! of sharing incremental solver sessions per grid point),
//! `--no-canonical` (sweep every interleaving instead of one canonical
//! representative per Mazurkiewicz trace class in the directed searches
//! behind `symbolic-paths`; see `mcapi::canon`. The explicit engine's
//! state graph merges a trace class's interleavings on its own and
//! ignores the flag), `--no-static-triage` (skip the static
//! analysis pre-pass: scenarios it can decide soundly are normally
//! settled with zero engine work, and its branch/payload facts feed the
//! `symbolic-paths` pruner).
//!
//! `check` accepts the same `--metrics-out`/`--events-out`/`--trace-out`
//! flags: the single scenario is reported through the identical
//! portfolio plumbing, so its exposition shape matches a grid run's.

use driver::prelude::*;
use mcapi::error::McapiError;
use mcapi::program::{Program, UnrollConfig};
use mcapi::runtime::execute_random;
use mcapi::types::DeliveryModel;
use std::io::Read;
use std::path::Path;
use std::process::ExitCode;
use symbolic::checker::{
    check_program, enumerate_matchings, generate_trace, CheckConfig, MatchGen, Verdict,
};

/// The `--delivery` flag, if present. A typo is a usage error: falling
/// back to unordered here would silently override a file's
/// `// delivery:` header and can flip the verdict.
fn delivery_flag(args: &[String]) -> Result<Option<DeliveryModel>, String> {
    let Some(i) = args.iter().position(|a| a == "--delivery") else {
        return Ok(None);
    };
    match args.get(i + 1).and_then(|v| frontend::parse_delivery(v)) {
        Some(m) => Ok(Some(m)),
        None => Err(format!(
            "unknown delivery model {:?}; expected unordered|fifo|zero",
            args.get(i + 1)
        )),
    }
}

fn parse_flag_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Does this text look like a serialised JSON program rather than
/// MCAPI-lite source?
fn looks_like_json(text: &str) -> bool {
    text.trim_start().starts_with('{')
}

/// Parse program text by format: JSON (serde + re-compile) or MCAPI-lite
/// (frontend, with source-located diagnostics via [`McapiError::Parse`]).
/// An explicit `unroll` bound (the `--unroll` flag) overrides the file's
/// `// unroll:` header; without either, the default bounds apply.
fn parse_source(path: &str, text: &str, unroll: Option<u64>) -> Result<Program, McapiError> {
    let cfg = unroll.map(|n| UnrollConfig::with_max_count(n as usize));
    if path.ends_with(".json") || looks_like_json(text) {
        let program: Program = serde_json::from_str(text)
            .map_err(|e| McapiError::Builder(format!("cannot parse JSON: {e}")))?;
        match cfg {
            Some(c) => program.compile_with(&c),
            None => program.compile(),
        }
    } else {
        match cfg {
            Some(c) => frontend::parse_program_with(text, &c),
            None => frontend::parse_program(text),
        }
    }
}

/// Read and parse a program file, also returning its header directives
/// (`// delivery:` etc.; empty for JSON programs).
fn load_program(
    path: &str,
    unroll: Option<u64>,
) -> Result<(Program, frontend::Directives), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let directives = frontend::directives(&text);
    match parse_source(path, &text, unroll) {
        Ok(p) => Ok((p, directives)),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// Resolve a demo/program name: any grid-point name
/// ([`FamilySpec::from_name`]) plus the legacy unsized aliases the CLI
/// accepted before the table was derived from the grid.
fn named_program(name: &str) -> Option<FamilySpec> {
    let legacy = match name {
        "delay-gap" => Some(FamilySpec::DelayGap { chain: 1 }),
        "pipeline" => Some(FamilySpec::Pipeline {
            stages: 3,
            items: 3,
        }),
        "scatter" => Some(FamilySpec::Scatter { workers: 3 }),
        "ring" => Some(FamilySpec::Ring { nodes: 4, laps: 2 }),
        _ => None,
    };
    legacy.or_else(|| FamilySpec::from_name(name))
}

/// Print every accepted program name, derived from the live grid rather
/// than a hardcoded table (so new families can never be silently
/// omitted). Families whose programs contain conditional branches are
/// marked: on those, the trace-pinned symbolic engines scope their
/// verdict to one path and only `symbolic-paths`/`explicit` are
/// whole-program.
fn list_programs() {
    println!("program names (accepted by `demo`, `export`, and `--families` as family tags):");
    for family in FAMILIES {
        let grid = family_grid(family, 3);
        let examples: Vec<String> = grid.iter().map(|p| p.name()).collect();
        let branchy = grid.first().is_some_and(|p| p.build().has_branches());
        let mark = if branchy { " [branch-sensitive]" } else { "" };
        println!("  {family:<18} {}{mark}", examples.join(" "));
    }
    println!();
    println!("[branch-sensitive]: verdicts differ between the trace-pinned symbolic");
    println!("engines (one control-flow path) and symbolic-paths/explicit (all paths).");
    println!();
    println!("any point of a family's parameter space works, not just the examples:");
    println!("  raceN race-assertN delay-gapN scatterN branchyN randomSEED");
    println!("  pipelineSTAGESxITEMS ringNODESxLAPS");
    println!("  iterated-handshakeN credit-windowWINDOWxROUNDS");
    println!("legacy aliases: delay-gap pipeline scatter ring");
}

/// `check` with the explicit-state engine (ground truth; no encoding).
/// Returns the exploration result alongside the exit code so the caller
/// can feed the observability outputs.
fn check_explicit(
    program: &Program,
    delivery: DeliveryModel,
) -> (ExitCode, explicit::ExploreResult) {
    use explicit::{ExploreConfig, GraphExplorer};
    let r = GraphExplorer::new(program, ExploreConfig::with_model(delivery)).explore();
    println!(
        "program: {} | delivery: {delivery} | engine: explicit",
        program.name
    );
    println!("states: {} | transitions: {}", r.states, r.transitions);
    let code = if r.found_violation() {
        println!("verdict: VIOLATION");
        for v in &r.violations {
            println!("  {v}");
        }
        ExitCode::from(1)
    } else if r.truncated {
        println!("verdict: UNKNOWN (state budget exhausted at {})", r.states);
        ExitCode::from(3)
    } else {
        println!("verdict: SAFE");
        ExitCode::SUCCESS
    };
    (code, r)
}

/// The three observability output flags shared by `check` and the
/// portfolio subcommands.
struct OutputFlags {
    metrics_out: Option<String>,
    events_out: Option<String>,
    trace_out: Option<String>,
}

fn output_flags(args: &[String]) -> Result<OutputFlags, String> {
    let path = |flag: &str| match strict_value(args, flag) {
        Some(Ok(p)) => Ok(Some(p.to_string())),
        Some(Err(_)) => Err(format!("{flag} needs a file path")),
        None => Ok(None),
    };
    Ok(OutputFlags {
        metrics_out: path("--metrics-out")?,
        events_out: path("--events-out")?,
        trace_out: path("--trace-out")?,
    })
}

/// Write `check`'s observability outputs. The single scenario goes
/// through the same [`PortfolioReport`] plumbing as `portfolio`/`sweep`,
/// so the metrics and event expositions have identical shape either way.
fn write_check_outputs(
    outputs: &OutputFlags,
    outcome: ScenarioOutcome,
    tracer: Option<&trace::Tracer>,
) -> Result<(), String> {
    if outputs.metrics_out.is_none() && outputs.events_out.is_none() && outputs.trace_out.is_none()
    {
        return Ok(());
    }
    let wall_ms = outcome.wall_ms;
    let report = PortfolioReport::from_outcomes("check", 1, wall_ms, vec![outcome]);
    let write = |path: &str, data: String| {
        std::fs::write(path, data).map_err(|e| format!("cannot write {path}: {e}"))
    };
    if let Some(path) = outputs.metrics_out.as_deref() {
        write(path, report.to_prometheus())?;
    }
    if let Some(path) = outputs.events_out.as_deref() {
        write(path, report.events_jsonl())?;
    }
    if let Some(path) = outputs.trace_out.as_deref() {
        let tracer = tracer.expect("--trace-out implies a tracer was created");
        write(path, tracer.chrome_trace())?;
    }
    Ok(())
}

/// The value following `flag`, refusing to consume a `--`-prefixed token:
/// in `--json --budget-ms 100` the `--json` value is *missing*, not
/// `"--budget-ms"` (which would otherwise be interpreted twice).
fn strict_value<'a>(args: &'a [String], flag: &str) -> Option<Result<&'a str, String>> {
    let i = args.iter().position(|a| a == flag)?;
    Some(match args.get(i + 1).map(String::as_str) {
        Some(v) if !v.starts_with("--") => Ok(v),
        _ => Err(format!("{flag} needs a value")),
    })
}

/// Strict numeric flag parsing for the portfolio subcommands: a present
/// flag with a missing or unparseable value is a usage error, not a silent
/// fallback (`--budget-ms 10s` must not mean "unbounded").
fn parse_flag_strict(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    match strict_value(args, flag) {
        None => Ok(None),
        Some(Err(e)) => Err(format!("{e} (a number)")),
        Some(Ok(raw)) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag}: cannot parse {raw:?} as a number")),
    }
}

/// Build and run a scenario grid; see the module docs for the flags.
fn portfolio(args: &[String], mode: Mode) -> ExitCode {
    let numeric = |flag: &str| parse_flag_strict(args, flag);
    let (scale, threads, budget_ms) = match (
        numeric("--scale"),
        numeric("--threads"),
        numeric("--budget-ms"),
    ) {
        (Ok(s), Ok(t), Ok(b)) => (
            s.unwrap_or(2) as usize,
            t.map(|n| n as usize).unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
            b,
        ),
        (s, t, b) => {
            for e in [s.err(), t.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };

    let specs: Vec<FamilySpec> = match strict_value(args, "--families") {
        Some(Err(_)) => {
            eprintln!("--families needs a comma-separated list of {FAMILIES:?}");
            return ExitCode::from(2);
        }
        Some(Ok(list)) => {
            let mut seen = std::collections::BTreeSet::new();
            let mut specs = Vec::new();
            for f in list.split(',') {
                if !seen.insert(f) {
                    continue; // deduplicate, keeping first-mention order
                }
                let pts = family_grid(f, scale);
                if pts.is_empty() {
                    eprintln!("unknown family {f}; known families: {FAMILIES:?}");
                    return ExitCode::from(2);
                }
                specs.extend(pts);
            }
            specs
        }
        None => default_grid(scale),
    };

    let deliveries: Vec<DeliveryModel> = match strict_value(args, "--delivery") {
        Some(Ok(tag)) => match frontend::parse_delivery(tag) {
            Some(m) => vec![m],
            None => {
                // Unlike the single-program subcommands (which warn and
                // fall back), a typo here would silently drop 2/3 of the
                // grid — refuse instead.
                eprintln!("unknown delivery model {tag:?}; expected unordered|fifo|zero");
                return ExitCode::from(2);
            }
        },
        Some(Err(_)) => {
            eprintln!("--delivery needs a value (unordered|fifo|zero)");
            return ExitCode::from(2);
        }
        None => DeliveryModel::ALL.to_vec(),
    };

    let json_target = match strict_value(args, "--json") {
        Some(Ok(path)) => Some(path.to_string()),
        Some(Err(_)) => {
            eprintln!("--json needs a path (or `-` for stdout)");
            return ExitCode::from(2);
        }
        None => None,
    };

    let outputs = match output_flags(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let session_reuse = !args.iter().any(|a| a == "--no-session-reuse");
    let canonical = !args.iter().any(|a| a == "--no-canonical");
    let static_triage = !args.iter().any(|a| a == "--no-static-triage");
    let max_paths = match parse_flag_strict(args, "--max-paths") {
        Ok(m) => m.map(|n| n as usize),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let mut scenarios = cross(&specs, &deliveries, &Engine::ALL);
    match strict_value(args, "--corpus") {
        Some(Ok(dir)) => match corpus_scenarios(Path::new(dir), &deliveries, &Engine::ALL) {
            Ok(mut extra) => {
                if extra.is_empty() {
                    eprintln!("warning: no .mcapi files under {dir}");
                }
                scenarios.append(&mut extra);
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
        Some(Err(_)) => {
            eprintln!("--corpus needs a directory path");
            return ExitCode::from(2);
        }
        None => {}
    }

    let mut cfg = PortfolioConfig {
        threads,
        mode,
        budget_ms,
        session_reuse,
        canonical,
        static_triage,
        ..PortfolioConfig::default()
    };
    if let Some(n) = max_paths {
        cfg.max_paths = n;
    }
    let tracer = outputs.trace_out.as_ref().map(|_| trace::Tracer::new());
    let report = {
        // A `main` lane holds one umbrella span over the whole run; the
        // per-worker lanes are installed inside the pool.
        let _lane = tracer.as_ref().map(|t| t.install("main"));
        let mut run_span = trace::span("portfolio.run");
        let report = run_portfolio_traced(&scenarios, &cfg, tracer.as_ref());
        run_span.arg("scenarios", scenarios.len() as u64);
        report
    };

    if let Some(path) = outputs.metrics_out.as_deref() {
        if let Err(e) = std::fs::write(path, report.to_prometheus()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = outputs.events_out.as_deref() {
        if let Err(e) = std::fs::write(path, report.events_jsonl()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let (Some(path), Some(t)) = (outputs.trace_out.as_deref(), tracer.as_ref()) {
        if let Err(e) = std::fs::write(path, t.chrome_trace()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    match json_target.as_deref() {
        Some("-") => println!("{}", report.to_json()),
        Some(path) => {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            print!("{}", report.render_table());
        }
        None => print!("{}", report.render_table()),
    }

    if report.found_violation() {
        ExitCode::from(1)
    } else if report.unknown > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// `corpus-check <dir>`: verify every corpus file's `// expect:` header
/// against the branch-complete engine, in-process — the structured
/// replacement for CI's old shell loop over `mcapi-smc check`. The
/// exit-code contract matches the loop it replaced: 0 when every file
/// reproduces its header (and the corpus floor holds), 1 on any
/// mismatch, missing header, or a corpus smaller than `--min` (default
/// 21). Each file's `// delivery:`/`// unroll:` headers apply exactly as
/// they do under `check --engine symbolic-paths`.
fn corpus_check(args: &[String]) -> ExitCode {
    let Some(dir) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: mcapi-smc corpus-check <dir> [--min N] [--slowest N]");
        return ExitCode::from(2);
    };
    let min = match parse_flag_strict(args, "--min") {
        Ok(m) => m.unwrap_or(21) as usize,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let slowest = match parse_flag_strict(args, "--slowest") {
        Ok(s) => s.unwrap_or(0) as usize,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let files = match corpus_files(Path::new(dir)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("{} corpus files", files.len());
    let mut fail = false;
    if files.len() < min {
        eprintln!(
            "corpus floor violated: {} files < required {min}",
            files.len()
        );
        fail = true;
    }
    // (display name, parse + check wall-clock) for every file that ran
    // the checker, feeding the per-file column and the --slowest summary.
    let mut timings: Vec<(String, u64)> = Vec::with_capacity(files.len());
    for path in &files {
        let shown = path.display();
        let file_start = std::time::Instant::now();
        let (program, directives) = match load_program(&path.display().to_string(), None) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                fail = true;
                continue;
            }
        };
        let Some(expect) = directives.expect else {
            println!("{shown}: missing or invalid // expect: header");
            fail = true;
            continue;
        };
        let want = match expect {
            frontend::Expect::Safe => 0u8,
            frontend::Expect::Violation => 1,
            frontend::Expect::Unknown => 3,
        };
        // Mirror `check --engine symbolic-paths` defaults: header
        // delivery (or unordered), over-approximating match pairs with
        // refinement, 256-path frontier.
        let pcfg = symbolic::paths::PathsConfig {
            check: CheckConfig {
                delivery: directives.delivery.unwrap_or(DeliveryModel::Unordered),
                matchgen: MatchGen::OverApprox,
                ..CheckConfig::default()
            },
            max_paths: 256,
            ..symbolic::paths::PathsConfig::default()
        };
        let report = symbolic::paths::check_program_paths(&program, &pcfg);
        let wall_ms = file_start.elapsed().as_millis() as u64;
        timings.push((shown.to_string(), wall_ms));
        let got = match &report.verdict {
            Verdict::Safe => 0u8,
            Verdict::Violation(_) => 1,
            Verdict::Unknown(_) => 3,
        };
        if got != want {
            println!("{shown}: expected {expect} (exit {want}), got exit {got} [{wall_ms} ms]");
            fail = true;
        } else {
            println!("{shown}: {expect} (ok) [{wall_ms} ms]");
        }
    }
    if slowest > 0 && !timings.is_empty() {
        timings.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        println!(
            "slowest {} of {}:",
            slowest.min(timings.len()),
            timings.len()
        );
        for (name, ms) in timings.iter().take(slowest) {
            println!("  {ms:>6} ms  {name}");
        }
    }
    if fail {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `lint <file|dir>`: run the static communication analysis with caret
/// diagnostics against the source. Exit contract: 0 when every file is
/// clean (or every finding is declared by an `// expect-lint:` header),
/// 1 on findings (errors always; warnings only under `--deny warnings`;
/// a stale `expect-lint` header that matches nothing always fails), 2 on
/// usage errors. Files that do not compile are reported (with their
/// caret diagnostic) and count as failures.
fn lint_cmd(args: &[String]) -> ExitCode {
    let Some(target) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: mcapi-smc lint <program.mcapi|dir> [--deny warnings] [--unroll N]");
        return ExitCode::from(2);
    };
    let deny_warnings = match strict_value(args, "--deny") {
        Some(Ok("warnings")) => true,
        Some(_) => {
            eprintln!("--deny accepts exactly `warnings`");
            return ExitCode::from(2);
        }
        None => false,
    };
    let unroll_flag = match parse_flag_strict(args, "--unroll") {
        Ok(u) => u,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let path = Path::new(target);
    let files: Vec<std::path::PathBuf> = if path.is_dir() {
        match corpus_files(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    } else {
        vec![path.to_path_buf()]
    };
    if files.is_empty() {
        eprintln!("no .mcapi files under {target}");
        return ExitCode::from(2);
    }

    let mut fail = false;
    let (mut errors, mut warnings, mut expected_total) = (0usize, 0usize, 0usize);
    for file in &files {
        let shown = file.display();
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {shown}: {e}");
                errors += 1;
                fail = true;
                continue;
            }
        };
        // Unroll precedence mirrors `check`: flag > header > default.
        let unroll = match unroll_flag.or(frontend::directives(&text).unroll.map(|n| n as u64)) {
            Some(n) => UnrollConfig::with_max_count(n as usize),
            None => UnrollConfig::default(),
        };
        let report = match frontend::lint_source(&text, &unroll) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{shown}: {e}");
                errors += 1;
                fail = true;
                continue;
            }
        };
        let expected = frontend::expect_lints(&text);
        let exp = frontend::check_expectations(&report, &expected);
        for f in &report.findings {
            println!("{shown}: {}", f.rendered);
        }
        for want in &exp.missing {
            println!("{shown}: error: expected lint matching {want:?} was not produced");
        }
        errors += exp.unexpected_errors;
        warnings += exp.unexpected_warnings;
        expected_total += exp.matched;
        if !exp.pass(deny_warnings) {
            fail = true;
        }
    }
    println!(
        "{} file(s): {errors} error(s), {warnings} warning(s), {expected_total} expected finding(s)",
        files.len()
    );
    if fail {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `fmt`: canonicalise MCAPI-lite (or convert a JSON program to it).
fn fmt(args: &[String]) -> ExitCode {
    let Some(path) = args.get(1) else {
        eprintln!("usage: mcapi-smc fmt <program.mcapi|-> [--write]");
        return ExitCode::from(2);
    };
    let write_back = args.iter().any(|a| a == "--write");
    if write_back && path == "-" {
        eprintln!("fmt: --write needs a file path, not stdin (`-`)");
        return ExitCode::from(2);
    }
    let text = if path == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            eprintln!("cannot read stdin: {e}");
            return ExitCode::from(2);
        }
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let formatted = if looks_like_json(&text) {
        // JSON → canonical MCAPI-lite (a one-way migration aid).
        match parse_source("stdin.json", &text, None) {
            Ok(p) => Ok(frontend::pretty(&p)),
            Err(e) => Err(e),
        }
    } else {
        frontend::format_source(&text)
    };
    match formatted {
        Ok(out) => {
            if write_back {
                if let Err(e) = std::fs::write(path, &out) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
            } else {
                print!("{out}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::from(2)
        }
    }
}

/// `export`: dump a grid family (or a single point) as MCAPI-lite.
fn export(args: &[String]) -> ExitCode {
    let Some(target) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: mcapi-smc export <family|point> [--scale K] [--out DIR]");
        eprintln!("families: {}", FAMILIES.join(" "));
        return ExitCode::from(2);
    };
    let scale = match parse_flag_strict(args, "--scale") {
        Ok(s) => s.unwrap_or(2) as usize,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // A family tag exports the whole grid; otherwise fall back to a
    // single named point (`ring` is a family, `ring4x2` — and the legacy
    // alias spellings — a point).
    let family = family_grid(target, scale);
    let points: Vec<FamilySpec> = if family.is_empty() {
        named_program(target).into_iter().collect()
    } else {
        family
    };
    if points.is_empty() {
        eprintln!("unknown family or point `{target}`; known families: {FAMILIES:?}");
        eprintln!("(run `mcapi-smc --list-programs` for point-name patterns)");
        return ExitCode::from(2);
    }
    let render = |spec: &FamilySpec| {
        format!(
            "// family: {}\n// point: {}\n{}",
            spec.family(),
            spec.name(),
            frontend::pretty(&spec.build())
        )
    };
    match strict_value(args, "--out") {
        Some(Ok(dir)) => {
            let dir = Path::new(dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
            for spec in &points {
                let path = dir.join(format!("{}.mcapi", spec.name()));
                if let Err(e) = std::fs::write(&path, render(spec)) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                println!("wrote {}", path.display());
            }
            ExitCode::SUCCESS
        }
        Some(Err(_)) => {
            eprintln!("--out needs a directory path");
            ExitCode::from(2)
        }
        None => {
            for (i, spec) in points.iter().enumerate() {
                if i > 0 {
                    println!();
                }
                print!("{}", render(spec));
            }
            ExitCode::SUCCESS
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-programs") {
        list_programs();
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!(
            "usage: mcapi-smc <check|fmt|lint|export|behaviours|explore|run|info|demo|portfolio|sweep> ..."
        );
        eprintln!("       mcapi-smc --list-programs");
        return ExitCode::from(2);
    };

    match cmd {
        "portfolio" => return portfolio(&args, Mode::Race),
        "sweep" => return portfolio(&args, Mode::Sweep),
        "fmt" => return fmt(&args),
        "lint" => return lint_cmd(&args),
        "export" => return export(&args),
        "corpus-check" => return corpus_check(&args),
        _ => {}
    }

    match cmd {
        "demo" => {
            let Some(name) = args.get(1) else {
                eprintln!("usage: mcapi-smc demo <name>   (JSON on stdout)");
                list_programs();
                return ExitCode::from(2);
            };
            match named_program(name) {
                Some(spec) => {
                    println!("{}", serde_json::to_string_pretty(&spec.build()).unwrap());
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("unknown demo {name}; run `mcapi-smc --list-programs`");
                    ExitCode::from(2)
                }
            }
        }
        "info" => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: mcapi-smc info <program>");
                return ExitCode::from(2);
            };
            let unroll = match parse_flag_strict(&args, "--unroll") {
                Ok(u) => u,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            match load_program(path, unroll) {
                Ok((p, _)) => {
                    print!("{}", p.render());
                    println!(
                        "{} threads, {} sends, {} recvs, {} instructions",
                        p.threads.len(),
                        p.num_static_sends(),
                        p.num_static_recvs(),
                        p.code_size()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            }
        }
        "check" | "behaviours" | "explore" | "run" => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: mcapi-smc {cmd} <program> [options]");
                return ExitCode::from(2);
            };
            // `--unroll N` sets the loop-unroll bound; precedence over
            // the file's `// unroll:` header mirrors `--delivery`.
            let unroll = match parse_flag_strict(&args, "--unroll") {
                Ok(u) => u,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let (program, directives) = match load_program(path, unroll) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            // Precedence: --delivery flag, then the file's `// delivery:`
            // header, then unordered.
            let delivery = match delivery_flag(&args) {
                Ok(flag) => flag
                    .or(directives.delivery)
                    .unwrap_or(DeliveryModel::Unordered),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            match cmd {
                "check" => {
                    let engine = match strict_value(&args, "--engine") {
                        None => {
                            if args.iter().any(|a| a == "--precise") {
                                Engine::Symbolic(MatchGen::Precise)
                            } else {
                                Engine::Symbolic(MatchGen::OverApprox)
                            }
                        }
                        Some(Ok("symbolic-precise")) | Some(Ok("precise")) => {
                            Engine::Symbolic(MatchGen::Precise)
                        }
                        Some(Ok("symbolic-overapprox"))
                        | Some(Ok("overapprox"))
                        | Some(Ok("symbolic")) => Engine::Symbolic(MatchGen::OverApprox),
                        Some(Ok("symbolic-paths")) | Some(Ok("paths")) => Engine::SymbolicPaths,
                        Some(Ok("explicit")) => Engine::Explicit,
                        Some(other) => {
                            eprintln!(
                                "unknown engine {:?}; expected symbolic-precise|symbolic-overapprox|symbolic-paths|explicit",
                                other.ok()
                            );
                            return ExitCode::from(2);
                        }
                    };
                    // Validate --budget-ms/--max-paths before engine
                    // dispatch so a malformed value is a usage error on
                    // every engine.
                    let budget_ms = match parse_flag_strict(&args, "--budget-ms") {
                        Ok(b) => b,
                        Err(e) => {
                            eprintln!("{e}");
                            return ExitCode::from(2);
                        }
                    };
                    let max_paths = match parse_flag_strict(&args, "--max-paths") {
                        Ok(m) => {
                            if m.is_some() && engine != Engine::SymbolicPaths {
                                eprintln!(
                                    "note: --max-paths bounds the symbolic-paths frontier; \
                                     the {} engine analyses one trace and ignores it",
                                    engine.tag()
                                );
                            }
                            m.unwrap_or(256) as usize
                        }
                        Err(e) => {
                            eprintln!("{e}");
                            return ExitCode::from(2);
                        }
                    };
                    let canonical = !args.iter().any(|a| a == "--no-canonical");
                    let outputs = match output_flags(&args) {
                        Ok(o) => o,
                        Err(e) => {
                            eprintln!("{e}");
                            return ExitCode::from(2);
                        }
                    };
                    let tracer = outputs.trace_out.as_ref().map(|_| trace::Tracer::new());
                    let start = std::time::Instant::now();
                    let outcome_shell = || {
                        ScenarioOutcome::skipped(
                            program.name.clone(),
                            "file".to_string(),
                            delivery.to_string(),
                            engine.tag().to_string(),
                        )
                    };
                    if engine == Engine::Explicit {
                        if budget_ms.is_some() {
                            eprintln!(
                                "note: --budget-ms bounds the symbolic solve/refine loop; \
                                 the explicit engine is bounded by state count and ignores it"
                            );
                        }
                        let (code, result) = {
                            let _lane = tracer.as_ref().map(|t| t.install("main"));
                            check_explicit(&program, delivery)
                        };
                        let mut out = outcome_shell();
                        fill_explicit_outcome(&mut out, &result);
                        out.wall_ms = start.elapsed().as_millis() as u64;
                        if let Err(e) = write_check_outputs(&outputs, out, tracer.as_ref()) {
                            eprintln!("{e}");
                            return ExitCode::from(2);
                        }
                        return code;
                    }
                    let matchgen = match engine {
                        Engine::Symbolic(m) => m,
                        Engine::SymbolicPaths => MatchGen::OverApprox,
                        Engine::Explicit => unreachable!("handled above"),
                    };
                    let cfg = CheckConfig {
                        delivery,
                        matchgen,
                        budget_ms,
                        ..CheckConfig::default()
                    };
                    let (report, path_complete) = {
                        let _lane = tracer.as_ref().map(|t| t.install("main"));
                        if engine == Engine::SymbolicPaths {
                            let pcfg = symbolic::paths::PathsConfig {
                                check: cfg,
                                max_paths,
                                canonical,
                                ..symbolic::paths::PathsConfig::default()
                            };
                            (symbolic::paths::check_program_paths(&program, &pcfg), true)
                        } else {
                            (check_program(&program, &cfg), false)
                        }
                    };
                    if path_complete {
                        println!(
                            "program: {} | delivery: {delivery} | engine: symbolic-paths",
                            program.name
                        );
                    } else {
                        println!(
                            "program: {} | delivery: {delivery} | matchgen: {matchgen:?}",
                            program.name
                        );
                    }
                    println!(
                        "encoding: {} vars, {} clauses, {} atoms | match-pairs: {} ({} states)",
                        report.encode_stats.sat_vars,
                        report.encode_stats.sat_clauses,
                        report.encode_stats.theory_atoms,
                        report.matchgen_pairs,
                        report.matchgen_states,
                    );
                    if path_complete {
                        println!(
                            "paths: {} explored, {} pruned | directed: {} transitions, {} canonical-skipped",
                            report.paths_explored,
                            report.paths_pruned,
                            report.directed_transitions,
                            report.canonical_skipped,
                        );
                    }
                    let code = match &report.verdict {
                        Verdict::Safe => {
                            if path_complete {
                                println!("verdict: SAFE (all feasible control-flow paths)");
                            } else {
                                println!(
                                    "verdict: SAFE (no violation within this trace's branches)"
                                );
                            }
                            ExitCode::SUCCESS
                        }
                        Verdict::Violation(cv) => {
                            println!("verdict: VIOLATION");
                            if let Some(path) = &cv.branch_path {
                                println!("  path: {path}");
                            }
                            for m in &cv.violated_props {
                                println!("  property: {m}");
                            }
                            for (r, s) in &cv.witness.matching {
                                println!("  {r:?} <- {s:?}");
                            }
                            if let Some(v) = &cv.violation {
                                println!("  replayed: {v}");
                            }
                            ExitCode::from(1)
                        }
                        Verdict::Unknown(why) => {
                            println!("verdict: UNKNOWN ({why})");
                            ExitCode::from(3)
                        }
                    };
                    let mut out = outcome_shell();
                    fill_symbolic_outcome(&mut out, report, false);
                    out.wall_ms = start.elapsed().as_millis() as u64;
                    if let Err(e) = write_check_outputs(&outputs, out, tracer.as_ref()) {
                        eprintln!("{e}");
                        return ExitCode::from(2);
                    }
                    code
                }
                "behaviours" => {
                    let limit = parse_flag_value(&args, "--limit").unwrap_or(10_000) as usize;
                    let cfg = CheckConfig {
                        delivery,
                        matchgen: MatchGen::OverApprox,
                        ..CheckConfig::default()
                    };
                    let trace = generate_trace(&program, &cfg);
                    let en = enumerate_matchings(&program, &trace, &cfg, limit);
                    println!(
                        "{} behaviours ({} spurious blocked, {} SMT checks){}:",
                        en.matchings.len(),
                        en.spurious,
                        en.sat_checks,
                        if en.truncated {
                            " [truncated: limit/budget reached]"
                        } else {
                            ""
                        }
                    );
                    for m in &en.matchings {
                        let s: Vec<String> =
                            m.iter().map(|(r, s)| format!("{r:?}<-{s:?}")).collect();
                        println!("  {}", s.join(" "));
                    }
                    ExitCode::SUCCESS
                }
                "explore" => {
                    use explicit::{ExploreConfig, GraphExplorer};
                    let r = GraphExplorer::new(&program, ExploreConfig::with_matchings(delivery))
                        .explore();
                    println!(
                        "states: {} | transitions: {} | behaviours: {} | deadlocks: {}",
                        r.states,
                        r.transitions,
                        r.matchings.len(),
                        r.deadlocks
                    );
                    for v in &r.violations {
                        println!("violation: {v}");
                    }
                    if r.found_violation() {
                        ExitCode::from(1)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                "run" => {
                    let seed = parse_flag_value(&args, "--seed").unwrap_or(0);
                    let out = execute_random(&program, delivery, seed);
                    print!("{}", out.trace.render());
                    if out.trace.deadlock {
                        println!("deadlock");
                    }
                    ExitCode::SUCCESS
                }
                _ => unreachable!(),
            }
        }
        other => {
            eprintln!("unknown command {other}");
            ExitCode::from(2)
        }
    }
}
