//! The verdict gate: every check's answer against the known answer and
//! against the other engines on the same program and delivery model.
//!
//! Whole-program engines (`explicit`, `symbolic-paths`) must match the
//! known answer. A single-trace engine's Violation must match it too, but
//! its Safe covers only the branches of the one trace it analysed, so it
//! contradicts nothing.

use driver::{Engine, VerdictKind};
use std::collections::BTreeMap;

/// What one check answered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Answer {
    Safe,
    Violation,
    Unknown,
    /// The check aborted (memory cap) or was killed past the hard limit.
    Failed,
}

impl Answer {
    pub fn tag(self) -> &'static str {
        match self {
            Answer::Safe => "safe",
            Answer::Violation => "violation",
            Answer::Unknown => "unknown",
            Answer::Failed => "failed",
        }
    }

    pub fn from_tag(tag: &str) -> Option<Answer> {
        [
            Answer::Safe,
            Answer::Violation,
            Answer::Unknown,
            Answer::Failed,
        ]
        .into_iter()
        .find(|a| a.tag() == tag)
    }

    pub fn definite(self) -> bool {
        matches!(self, Answer::Safe | Answer::Violation)
    }
}

impl From<VerdictKind> for Answer {
    fn from(v: VerdictKind) -> Answer {
        match v {
            VerdictKind::Safe => Answer::Safe,
            VerdictKind::Violation => Answer::Violation,
            // A skipped scenario never answered; sweeps skip nothing.
            VerdictKind::Unknown | VerdictKind::Skipped => Answer::Unknown,
        }
    }
}

/// Does this engine decide the whole program, or only one trace?
pub fn whole_program(engine: Engine) -> bool {
    matches!(engine, Engine::Explicit | Engine::SymbolicPaths)
}

/// One timed check.
#[derive(Clone, Debug)]
pub struct Check {
    /// `program/delivery`: the key answers are compared under.
    pub key: String,
    pub engine: Engine,
    pub answer: Answer,
    /// Time to verdict, ms (censored at the kill for killed checks).
    pub ms: f64,
}

impl Check {
    pub fn name(&self) -> String {
        format!("{}/{}", self.key, self.engine.tag())
    }
}

/// Known answers by `program/delivery` key (Safe, Violation or, for a
/// corpus file that declares it, Unknown: no whole-program claim).
pub type Known = BTreeMap<String, Answer>;

/// Would `answer` from `engine` contradict the known answer `known`?
fn contradicts(engine: Engine, answer: Answer, known: Answer) -> bool {
    let opposite = match known {
        Answer::Safe => Answer::Violation,
        Answer::Violation => Answer::Safe,
        _ => return false,
    };
    answer == opposite && (whole_program(engine) || answer == Answer::Violation)
}

/// Is this check ok: a Safe or Violation within the limit (when the
/// workload has one) that contradicts no known answer?
pub fn is_ok(c: &Check, known: &Known, limit_ms: Option<f64>) -> bool {
    c.answer.definite()
        && limit_ms.is_none_or(|l| c.ms <= l)
        && !known
            .get(&c.key)
            .is_some_and(|&k| contradicts(c.engine, c.answer, k))
}

/// Every contradiction among `checks`: against the known answers, and
/// between engines on one key (a whole-program Safe next to any
/// Violation). Empty means the gate passes.
pub fn contradictions(checks: &[Check], known: &Known) -> Vec<String> {
    let mut out = Vec::new();
    let mut by_key: BTreeMap<&str, Vec<&Check>> = BTreeMap::new();
    for c in checks {
        if let Some(&k) = known.get(&c.key) {
            if contradicts(c.engine, c.answer, k) {
                out.push(format!(
                    "{}: {} but known {}",
                    c.name(),
                    c.answer.tag(),
                    k.tag()
                ));
            }
        }
        by_key.entry(&c.key).or_default().push(c);
    }
    for (key, group) in by_key {
        let whole_safe = group
            .iter()
            .any(|c| whole_program(c.engine) && c.answer == Answer::Safe);
        let violation = group.iter().find(|c| c.answer == Answer::Violation);
        if let (true, Some(v)) = (whole_safe, violation) {
            out.push(format!(
                "{key}: {} says violation, a whole-program engine says safe",
                v.engine.tag()
            ));
        }
    }
    out
}

/// Parse the committed `point<TAB>delivery<TAB>answer` table.
pub fn parse_table(text: &str) -> Known {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let cols: Vec<&str> = l.split('\t').collect();
            assert_eq!(cols.len(), 3, "bad verdict-table line {l:?}");
            let answer = Answer::from_tag(cols[2]).expect("verdict-table answer");
            (format!("{}/{}", cols[0], cols[1]), answer)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbolic::checker::MatchGen;

    fn check(engine: Engine, answer: Answer) -> Check {
        Check {
            key: "p/unordered".into(),
            engine,
            answer,
            ms: 1.0,
        }
    }

    #[test]
    fn single_trace_safe_contradicts_nothing_but_its_violation_must_match() {
        let known: Known = [("p/unordered".to_string(), Answer::Violation)].into();
        let precise = Engine::Symbolic(MatchGen::Precise);
        let checks = [
            check(precise, Answer::Safe),
            check(Engine::Explicit, Answer::Violation),
        ];
        assert!(contradictions(&checks, &known).is_empty());
        assert_eq!(checks.iter().filter(|c| is_ok(c, &known, None)).count(), 2);

        let safe: Known = [("p/unordered".to_string(), Answer::Safe)].into();
        let bad = [check(precise, Answer::Violation)];
        assert_eq!(contradictions(&bad, &safe).len(), 1);
        assert!(!is_ok(&bad[0], &safe, None));
    }

    #[test]
    fn engines_split_without_a_known_answer_is_a_contradiction() {
        let checks = [
            check(Engine::SymbolicPaths, Answer::Safe),
            check(Engine::Explicit, Answer::Violation),
        ];
        assert_eq!(contradictions(&checks, &Known::new()).len(), 1);
    }

    #[test]
    fn unknown_failed_and_over_limit_checks_are_not_ok() {
        let mut slow = check(Engine::Explicit, Answer::Safe);
        slow.ms = 1500.0;
        let checks = [
            check(Engine::SymbolicPaths, Answer::Unknown),
            check(Engine::Explicit, Answer::Failed),
            slow,
        ];
        assert!(!checks.iter().any(|c| is_ok(c, &Known::new(), Some(1000.0))));
        assert!(contradictions(&checks, &Known::new()).is_empty());
    }
}
