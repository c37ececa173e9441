//! The `corpus` workload: every `corpus/*.mcapi` file × 4 engines at the
//! file's header delivery, run the way `mcapi-smc check <file> --engine E
//! --budget-ms 1000` runs them. Each check runs in a child worker under a
//! memory cap; a check that aborts or outlives the limit plus a fixed
//! slack answers `failed` (not ok) and the worker restarts for the next
//! one.

use crate::gate::{Answer, Check, Known};
use crate::probe::{probe, timed, EngineSetup, Layers};
use crate::stats;
use driver::Engine;
use explicit::ExploreConfig;
use frontend::Expect;
use mcapi::program::Program;
use mcapi::types::DeliveryModel;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use symbolic::checker::{CheckConfig, MatchGen};
use symbolic::paths::PathsConfig;

/// The per-check limit handed to the engines as `--budget-ms`.
pub const LIMIT_MS: u64 = 1000;
/// How far past the limit a check may run before it is killed. The two
/// `loop-storm` checks that never answer wait it out in every pass, so
/// it is kept short: a longer wait only buys fewer passes in a run.
const SLACK_MS: u64 = 100;
/// Address-space cap of a worker process, KiB.
const MEMORY_CAP_KB: u64 = 1 << 20;

/// One parsed corpus file.
pub struct CorpusFile {
    /// `corpus/<stem>`.
    pub name: String,
    pub text: String,
    pub program: Program,
    pub delivery: DeliveryModel,
    pub expect: Option<Expect>,
}

/// Read and parse every corpus file: the workload's set-up.
pub fn load(dir: &Path) -> Result<Vec<CorpusFile>, String> {
    driver::corpus_files(dir)?
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let program =
                frontend::parse_program(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let d = frontend::directives(&text);
            let stem = path.file_stem().unwrap_or_default().to_string_lossy();
            Ok(CorpusFile {
                name: format!("corpus/{stem}"),
                delivery: d.delivery.unwrap_or(DeliveryModel::Unordered),
                expect: d.expect,
                program,
                text,
            })
        })
        .collect()
}

/// The `// expect:` headers as known answers.
pub fn known(files: &[CorpusFile]) -> Known {
    files
        .iter()
        .filter_map(|f| {
            let answer = match f.expect? {
                Expect::Safe => Answer::Safe,
                Expect::Violation => Answer::Violation,
                Expect::Unknown => Answer::Unknown,
            };
            Some((format!("{}/{}", f.name, f.delivery), answer))
        })
        .collect()
}

/// What `mcapi-smc check` runs for this delivery model: header delivery,
/// 256-path frontier, canonical search, no triage, a 1000 ms budget.
pub fn cli_setup(delivery: DeliveryModel, engine: Engine) -> EngineSetup {
    let matchgen = match engine {
        Engine::Symbolic(m) => m,
        _ => MatchGen::OverApprox,
    };
    let check = CheckConfig {
        delivery,
        matchgen,
        budget_ms: Some(LIMIT_MS),
        ..CheckConfig::default()
    };
    EngineSetup {
        triage: None,
        check,
        paths: PathsConfig {
            check,
            max_paths: 256,
            canonical: true,
            ..PathsConfig::default()
        },
        explore: ExploreConfig {
            use_canonical: true,
            ..ExploreConfig::with_model(delivery)
        },
    }
}

/// A check's result as the parent sees it.
pub struct Reply {
    pub answer: Answer,
    /// Time to verdict, ms; for a failed check, the time until it died or
    /// was killed.
    pub ms: f64,
    /// The worker's peak resident set during the check, MiB (completed
    /// checks only).
    pub rss_mb: Option<f64>,
    /// The traced run's layer split (probe requests only).
    pub layers: Option<Layers>,
}

/// A live worker process and the thread reading its replies.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    replies: Receiver<String>,
    reader: JoinHandle<()>,
}

impl Worker {
    /// Start `exe --worker <dir>` under the memory cap and wait until it
    /// has parsed the corpus.
    fn spawn(exe: &Path, dir: &Path) -> Result<Worker, String> {
        let mut child = Command::new("sh")
            .arg("-c")
            .arg(r#"ulimit -v "$1" && exec "$0" --worker "$2""#)
            .arg(exe)
            .arg(MEMORY_CAP_KB.to_string())
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start worker: {e}"))?;
        let stdin = child.stdin.take().expect("worker stdin is piped");
        let stdout = child.stdout.take().expect("worker stdout is piped");
        let (tx, replies) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let w = Worker {
            child,
            stdin,
            replies,
            reader,
        };
        match w.replies.recv_timeout(Duration::from_secs(60)) {
            Ok(line) if line == "ready" => Ok(w),
            other => {
                w.stop();
                Err(format!("worker did not start: {other:?}"))
            }
        }
    }

    /// Kill the process if it still runs, and reap it and its reader.
    fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        drop(self.stdin);
        let _ = self.reader.join();
    }
}

/// A worker slot: one client's worker, restarted after a failed check.
pub struct Slot {
    exe: PathBuf,
    dir: PathBuf,
    worker: Option<Worker>,
}

impl Slot {
    pub fn new(exe: PathBuf, dir: PathBuf) -> Slot {
        Slot {
            exe,
            dir,
            worker: None,
        }
    }

    /// Start the worker now, so the next check does not pay for the spawn.
    pub fn ready(&mut self) -> Result<(), String> {
        if self.worker.is_none() {
            self.worker = Some(Worker::spawn(&self.exe, &self.dir)?);
        }
        Ok(())
    }

    /// Run one check (`probe` selects the traced split) in the worker.
    pub fn run(&mut self, file: usize, engine: usize, probe: bool) -> Result<Reply, String> {
        self.ready()?;
        let w = self.worker.as_mut().expect("worker started above");
        let mode = if probe { "probe" } else { "check" };
        let start = Instant::now();
        let sent = writeln!(w.stdin, "{mode} {file} {engine}").and_then(|_| w.stdin.flush());
        let hard = Duration::from_millis(LIMIT_MS + SLACK_MS);
        let line = match sent {
            Ok(()) => w.replies.recv_timeout(hard),
            Err(_) => Err(RecvTimeoutError::Disconnected),
        };
        match line {
            Ok(line) => parse_reply(&line),
            // Past the hard limit, or dead (the memory cap aborts it).
            Err(_) => {
                let ms = start.elapsed().as_secs_f64() * 1e3;
                self.worker.take().expect("worker present").stop();
                Ok(Reply {
                    answer: Answer::Failed,
                    ms,
                    rss_mb: None,
                    layers: None,
                })
            }
        }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        if let Some(w) = self.worker.take() {
            w.stop();
        }
    }
}

fn parse_reply(line: &str) -> Result<Reply, String> {
    let bad = || format!("bad worker reply {line:?}");
    let mut cols = line.split(' ');
    let answer = cols.next().and_then(Answer::from_tag).ok_or_else(bad)?;
    let mut num =
        || -> Result<u64, String> { cols.next().and_then(|v| v.parse().ok()).ok_or_else(bad) };
    let us = num()?;
    let rss_kb = num()?;
    let rest: Vec<u64> = cols
        .map(|v| v.parse().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    let layers = if rest.is_empty() {
        None
    } else {
        Some(Layers::from_slice(&rest).ok_or_else(bad)?)
    };
    Ok(Reply {
        answer,
        ms: us as f64 / 1e3,
        rss_mb: Some(rss_kb as f64 / 1024.0),
        layers,
    })
}

/// The worker process: parse the corpus, then answer `check|probe <file>
/// <engine>` requests until stdin closes. A check line answers `<answer>
/// <µs> <peak RSS KiB>`; a probe line appends the layer split.
pub fn worker_main(dir: &Path) -> Result<(), String> {
    let files = load(dir)?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())?;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let parts: Vec<&str> = line.split(' ').collect();
        let request = match parts[..] {
            [m @ ("check" | "probe"), f, e] => f.parse::<usize>().ok().and_then(|f| {
                let engine = e.parse::<usize>().ok().and_then(|e| Engine::ALL.get(e))?;
                Some((m == "probe", files.get(f)?, *engine))
            }),
            _ => None,
        };
        let (probe_mode, f, engine) = request.ok_or(format!("bad request {line:?}"))?;
        let setup = cli_setup(f.delivery, engine);
        stats::reset_peak_rss();
        let (answer, us, layers) = if probe_mode {
            // The CLI path parses the file on every check.
            let (program, parse_us) = timed(|| frontend::parse_program(&f.text));
            let program = program.map_err(|e| e.to_string())?;
            let (answer, mut l) = probe(&program, engine, &setup);
            l.parse_us = parse_us;
            l.wall_us += parse_us;
            (answer, l.wall_us, Some(l))
        } else {
            let (answer, us) = timed(|| setup.run(&f.program, engine));
            (answer, us, None)
        };
        let rss_kb = (stats::peak_rss_mb() * 1024.0) as u64;
        let mut reply = format!("{} {us} {rss_kb}", answer.tag());
        for v in layers.into_iter().flat_map(Layers::to_vec) {
            reply.push_str(&format!(" {v}"));
        }
        writeln!(out, "{reply}")
            .and_then(|_| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One corpus check to run: file index and engine index.
pub fn check_list(files: &[CorpusFile]) -> Vec<(usize, usize)> {
    (0..files.len())
        .flat_map(|f| (0..Engine::ALL.len()).map(move |e| (f, e)))
        .collect()
}

/// The gate's view of one corpus check.
pub fn to_check(files: &[CorpusFile], (file, engine): (usize, usize), reply: &Reply) -> Check {
    let f = &files[file];
    Check {
        key: format!("{}/{}", f.name, f.delivery),
        engine: Engine::ALL[engine],
        answer: reply.answer,
        ms: reply.ms,
    }
}
