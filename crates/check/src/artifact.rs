//! Replayable schedule artifacts: the on-disk form of a minimal failing
//! schedule, committed under `crates/check/corpus/` as a regression test.
//!
//! The format is a deliberately boring line-based text file — diffable,
//! greppable, hand-editable:
//!
//! ```text
//! # hupc-check minimal failing schedule
//! version: 1
//! scenario: missed_notify
//! fault: 0 none
//! fast_path: on
//! decisions: 1
//! violation: deadlock
//! detail: simulation deadlock at t=10ns: ...\n...
//! log_hash: 0x9c33a1b2c4d5e6f7
//! ```
//!
//! `fast_path` is always `on`: the scheduler bypass has no off switch, so
//! the writer emits the line for format stability and the parser rejects
//! `off`. `decisions` is the minimal forced prefix (comma-separated
//! choices; `-` for the empty prefix). `log_hash` fingerprints the
//! decision log of the replay; replay fails loudly if either the violation
//! kind or the log fingerprint drifts — a corpus entry that stops
//! reproducing *must* be regenerated consciously, never silently skipped.

use crate::explore::ScheduleFailure;
use crate::policy::{log_hash, PolicyHandle};
use crate::scenario::{find_scenario, Violation, ViolationKind};

pub const ARTIFACT_VERSION: u32 = 1;
pub const ARTIFACT_EXT: &str = "schedule";

/// A parsed (or to-be-written) schedule artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifact {
    pub scenario: String,
    pub fault: usize,
    pub fault_label: String,
    pub prefix: Vec<u32>,
    pub kind: ViolationKind,
    pub detail: String,
    pub log_hash: u64,
}

impl Artifact {
    /// Build an artifact from an explorer failure (must be replay-verified).
    pub fn from_failure(f: &ScheduleFailure) -> Artifact {
        Artifact {
            scenario: f.scenario.clone(),
            fault: f.fault,
            fault_label: f.fault_label.clone(),
            prefix: f.minimal.clone(),
            kind: f.violation.kind,
            detail: f.violation.detail.clone(),
            log_hash: f.log_hash,
        }
    }

    pub fn serialize(&self) -> String {
        let decisions = if self.prefix.is_empty() {
            "-".to_string()
        } else {
            self.prefix
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "# hupc-check minimal failing schedule\n\
             version: {}\n\
             scenario: {}\n\
             fault: {} {}\n\
             fast_path: on\n\
             decisions: {}\n\
             violation: {}\n\
             detail: {}\n\
             log_hash: {:#018x}\n",
            ARTIFACT_VERSION,
            self.scenario,
            self.fault,
            self.fault_label,
            decisions,
            self.kind.as_str(),
            escape(&self.detail),
            self.log_hash,
        )
    }

    pub fn parse(text: &str) -> Result<Artifact, String> {
        let mut scenario = None;
        let mut fault = None;
        let mut fault_label = String::new();
        let mut prefix = None;
        let mut kind = None;
        let mut detail = String::new();
        let mut hash = None;
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed line: {line:?}"))?;
            let value = value.trim();
            match key.trim() {
                "version" => {
                    let v: u32 = value.parse().map_err(|_| "bad version".to_string())?;
                    if v != ARTIFACT_VERSION {
                        return Err(format!("unsupported artifact version {v}"));
                    }
                }
                "scenario" => scenario = Some(value.to_string()),
                "fault" => {
                    let mut it = value.splitn(2, ' ');
                    let idx: usize = it
                        .next()
                        .unwrap_or("")
                        .parse()
                        .map_err(|_| format!("bad fault index in {value:?}"))?;
                    fault = Some(idx);
                    fault_label = it.next().unwrap_or("").to_string();
                }
                "fast_path" if value == "on" => {}
                "fast_path" => {
                    return Err(format!(
                        "unsupported line {line:?}: the scheduler bypass cannot be turned off"
                    ))
                }
                "decisions" => {
                    let p = if value == "-" {
                        Vec::new()
                    } else {
                        value
                            .split(',')
                            .map(|c| c.trim().parse::<u32>())
                            .collect::<Result<Vec<_>, _>>()
                            .map_err(|_| format!("bad decisions {value:?}"))?
                    };
                    prefix = Some(p);
                }
                "violation" => {
                    kind = Some(
                        ViolationKind::parse(value)
                            .ok_or_else(|| format!("unknown violation kind {value:?}"))?,
                    )
                }
                "detail" => detail = unescape(value),
                "log_hash" => {
                    let v = value.trim_start_matches("0x");
                    hash = Some(
                        u64::from_str_radix(v, 16)
                            .map_err(|_| format!("bad log_hash {value:?}"))?,
                    );
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        Ok(Artifact {
            scenario: scenario.ok_or("missing scenario")?,
            fault: fault.ok_or("missing fault")?,
            fault_label,
            prefix: prefix.ok_or("missing decisions")?,
            kind: kind.ok_or("missing violation")?,
            detail,
            log_hash: hash.ok_or("missing log_hash")?,
        })
    }

    /// Canonical file name for this artifact.
    pub fn file_name(&self) -> String {
        format!(
            "{}-f{}-{:016x}.{}",
            self.scenario, self.fault, self.log_hash, ARTIFACT_EXT
        )
    }

    /// Re-run the recorded minimal schedule and check it still reproduces:
    /// same violation kind *and* the same decision-log fingerprint. Returns
    /// the fresh violation on success.
    pub fn replay(&self) -> Result<Violation, String> {
        let s = find_scenario(&self.scenario)
            .ok_or_else(|| format!("unknown scenario {:?}", self.scenario))?;
        if self.fault >= s.fault_labels().len() {
            return Err(format!(
                "fault index {} out of range for {:?}",
                self.fault, self.scenario
            ));
        }
        let policy = PolicyHandle::prefix(&self.prefix);
        let out = s.run(&policy, self.fault);
        let got_hash = log_hash(&out.decisions);
        let v = out.violation.ok_or_else(|| {
            format!(
                "schedule no longer fails: {:?} prefix {:?} ran clean \
                 (runtime change? regenerate the corpus entry)",
                self.scenario, self.prefix
            )
        })?;
        if v.kind != self.kind {
            return Err(format!(
                "violation kind drifted: recorded {}, replay produced {} ({})",
                self.kind.as_str(),
                v.kind.as_str(),
                v.detail
            ));
        }
        if got_hash != self.log_hash {
            return Err(format!(
                "decision log drifted: recorded {:#018x}, replay produced {got_hash:#018x} \
                 (the schedule space changed; regenerate the corpus entry)",
                self.log_hash
            ));
        }
        Ok(v)
    }
}

/// Escape a detail string onto one line.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n").replace('\r', "\\r")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        Artifact {
            scenario: "missed_notify".into(),
            fault: 0,
            fault_label: "none".into(),
            prefix: vec![1],
            kind: ViolationKind::Deadlock,
            detail: "deadlock at t=10ns:\n  waiter stuck".into(),
            log_hash: 0x9C33_A1B2_C4D5_E6F7,
        }
    }

    #[test]
    fn roundtrips_through_text() {
        let a = sample();
        let text = a.serialize();
        let b = Artifact::parse(&text).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_prefix_roundtrips() {
        let mut a = sample();
        a.prefix = Vec::new();
        let b = Artifact::parse(&a.serialize()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn detail_with_newlines_stays_one_record_per_line() {
        let a = sample();
        let text = a.serialize();
        // Exactly one `detail:` line despite the embedded newline.
        assert_eq!(text.lines().filter(|l| l.starts_with("detail:")).count(), 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Artifact::parse("version: 99\n").is_err());
        assert!(Artifact::parse("scenario: x\nnonsense\n").is_err());
        let mut a = sample();
        a.scenario = "no_such_scenario".into();
        assert!(a.replay().is_err());
    }

    /// The writer always records `fast_path: on`; an artifact asking for the
    /// bypass off names the offending line instead of replaying a schedule
    /// the kernel can no longer run.
    #[test]
    fn parse_rejects_fast_path_off() {
        let text = sample().serialize();
        assert!(text.contains("\nfast_path: on\n"), "{text}");
        let err = Artifact::parse(&text.replace("fast_path: on", "fast_path: off")).unwrap_err();
        assert!(err.contains("fast_path: off"), "{err}");
    }
}
