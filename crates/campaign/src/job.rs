//! Jobs — the (spec, ring size) cells of a campaign's matrix — and their
//! outcomes.

use selfstab_global::ConvergenceReport;
use serde_json::{json, Value};

/// One cell of the campaign matrix: check `spec` at ring size `k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Index of the spec in the manifest's expanded spec list.
    pub spec_index: usize,
    /// The spec's path as recorded in journal and report (relative to the
    /// manifest, forward slashes).
    pub spec: String,
    /// The ring size to check.
    pub k: usize,
}

/// The outcome lattice of a job, ordered from best to worst:
///
/// ```text
///   Verified  <  Failed ≈ Panicked  <  OverBudget  <  Error
/// ```
///
/// `Verified`/`Failed` are definite verdicts from a completed global check;
/// `Panicked` means every attempt of the job crashed (a toolchain fault,
/// reported under the `failed` tag so the sweep exits non-zero, but never
/// counted as a *verification* refutation); `OverBudget` means the job was
/// skipped or aborted by its budget (the verdict at that size is unknown
/// but the campaign is unharmed); `Error` means the spec could not even be
/// parsed or instantiated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The global check completed: strongly self-stabilizing at this size.
    Verified,
    /// The global check completed and found a counterexample.
    Failed {
        /// `true` iff `I(K)` is closed at this size.
        closure_ok: bool,
        /// Number of global deadlocks outside `I(K)`.
        deadlocks: u64,
        /// Length of the livelock cycle witness, if one was found.
        livelock_len: Option<u64>,
    },
    /// Every attempt of the job panicked; the panic was caught and the
    /// failure recorded instead of unwinding the worker pool. Degrades to
    /// the `failed` report tag (with `panic`/`attempts` detail fields), so
    /// an exhausted retry budget fails the sweep rather than aborting it.
    /// The journal records only `job_panicked` telemetry — never a
    /// `finished` event — so a resumed campaign retries the job afresh.
    Panicked {
        /// Attempts made (1 + the configured retries).
        attempts: u64,
        /// The rendered panic payload of the last attempt.
        message: String,
    },
    /// The job exceeded its state budget or wall-clock deadline.
    OverBudget {
        /// What tripped: `"states"` or `"deadline"`.
        reason: String,
    },
    /// The spec could not be parsed/instantiated.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// The outcome of a completed check: verified iff the report is strongly
/// self-stabilizing, otherwise the counterexample's shape.
impl From<&ConvergenceReport> for Outcome {
    fn from(report: &ConvergenceReport) -> Self {
        if report.self_stabilizing() {
            Outcome::Verified
        } else {
            Outcome::Failed {
                closure_ok: report.closure_violation.is_none(),
                deadlocks: report.illegitimate_deadlocks.len() as u64,
                livelock_len: report.livelock.as_ref().map(|c| c.len() as u64),
            }
        }
    }
}

impl Outcome {
    /// The canonical snake_case tag used in journal events and reports.
    /// `Panicked` deliberately shares the `failed` tag: a job that crashed
    /// on every attempt is a failure of the sweep (exit code 2), told apart
    /// in the report row by its `panic` field.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Verified => "verified",
            Outcome::Failed { .. } | Outcome::Panicked { .. } => "failed",
            Outcome::OverBudget { .. } => "over_budget",
            Outcome::Error { .. } => "error",
        }
    }
}

/// The completed result of one job, as recorded in the journal's
/// `finished` event and the report's `jobs` array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobResult {
    /// The spec path (see [`JobSpec::spec`]).
    pub spec: String,
    /// The ring size checked.
    pub k: usize,
    /// The verdict.
    pub outcome: Outcome,
    /// Global states swept (0 when the check never ran).
    pub states: u64,
    /// States in `I(K)` (0 when the check never ran).
    pub legit: u64,
}

impl JobResult {
    /// The report row for this job: canonical, no wall-clock fields.
    pub fn report_row(&self) -> Value {
        let mut row = json!({
            "spec": self.spec.as_str(),
            "k": self.k,
            "outcome": self.outcome.tag(),
            "states": self.states,
            "legit": self.legit,
        });
        let Value::Object(map) = &mut row else {
            unreachable!("json! object literal");
        };
        match &self.outcome {
            Outcome::Verified => {}
            Outcome::Failed {
                closure_ok,
                deadlocks,
                livelock_len,
            } => {
                map.insert("closure_ok".into(), json!(*closure_ok));
                map.insert("deadlocks".into(), json!(*deadlocks));
                map.insert("livelock_len".into(), json!(*livelock_len));
            }
            Outcome::Panicked { attempts, message } => {
                map.insert("attempts".into(), json!(*attempts));
                map.insert("panic".into(), json!(message.as_str()));
            }
            Outcome::OverBudget { reason } => {
                map.insert("reason".into(), json!(reason.as_str()));
            }
            Outcome::Error { message } => {
                map.insert("message".into(), json!(message.as_str()));
            }
        }
        row
    }

    /// Reconstructs a result from a journal `finished` event (the inverse
    /// of [`journal::finished_event`](crate::journal::finished_event)).
    pub fn from_event(ev: &Value) -> Option<Self> {
        let spec = ev["spec"].as_str()?.to_owned();
        let k = ev["k"].as_u64()? as usize;
        let states = ev["states"].as_u64().unwrap_or(0);
        let legit = ev["legit"].as_u64().unwrap_or(0);
        let outcome = match ev["outcome"].as_str()? {
            "verified" => Outcome::Verified,
            // `failed` covers both genuine refutations and panicked-out
            // jobs; the `panic` detail field tells them apart.
            "failed" if ev["panic"].as_str().is_some() => Outcome::Panicked {
                attempts: ev["attempts"].as_u64().unwrap_or(1),
                message: ev["panic"].as_str().unwrap_or("unknown").to_owned(),
            },
            "failed" => Outcome::Failed {
                closure_ok: ev["closure_ok"].as_bool().unwrap_or(true),
                deadlocks: ev["deadlocks"].as_u64().unwrap_or(0),
                livelock_len: ev["livelock_len"].as_u64(),
            },
            "over_budget" => Outcome::OverBudget {
                reason: ev["reason"].as_str().unwrap_or("unknown").to_owned(),
            },
            "error" => Outcome::Error {
                message: ev["message"].as_str().unwrap_or("unknown").to_owned(),
            },
            _ => return None,
        };
        Some(JobResult {
            spec,
            k,
            outcome,
            states,
            legit,
        })
    }
}

/// The local (parameterized, all-K-at-once) verdict of one spec, shared by
/// all of that spec's jobs and cross-tabulated against their global
/// outcomes in the report's soundness section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalVerdict {
    /// The local method proves strong self-stabilization for every K.
    Proven,
    /// The local method does not establish the property (which is *not* a
    /// refutation — the certificate is sufficient, not necessary).
    Unproven,
    /// The spec could not be parsed, so no local verdict exists.
    Error,
}

impl LocalVerdict {
    /// The canonical snake_case tag used in journal events and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            LocalVerdict::Proven => "proven",
            LocalVerdict::Unproven => "unproven",
            LocalVerdict::Error => "error",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_row_roundtrips_through_event_parsing() {
        let results = [
            JobResult {
                spec: "a.stab".into(),
                k: 3,
                outcome: Outcome::Verified,
                states: 8,
                legit: 2,
            },
            JobResult {
                spec: "b.stab".into(),
                k: 4,
                outcome: Outcome::Failed {
                    closure_ok: true,
                    deadlocks: 0,
                    livelock_len: Some(8),
                },
                states: 16,
                legit: 2,
            },
            JobResult {
                spec: "c.stab".into(),
                k: 20,
                outcome: Outcome::OverBudget {
                    reason: "states".into(),
                },
                states: 0,
                legit: 0,
            },
            JobResult {
                spec: "d.stab".into(),
                k: 2,
                outcome: Outcome::Error {
                    message: "parse error".into(),
                },
                states: 0,
                legit: 0,
            },
            JobResult {
                spec: "e.stab".into(),
                k: 5,
                outcome: Outcome::Panicked {
                    attempts: 3,
                    message: "index out of bounds".into(),
                },
                states: 0,
                legit: 0,
            },
        ];
        for r in &results {
            let row = r.report_row();
            assert_eq!(
                &JobResult::from_event(&row).expect("row parses back"),
                r,
                "roundtrip of {row}"
            );
        }
    }

    #[test]
    fn outcome_tags_are_stable() {
        assert_eq!(Outcome::Verified.tag(), "verified");
        assert_eq!(
            Outcome::OverBudget {
                reason: "deadline".into()
            }
            .tag(),
            "over_budget"
        );
        // Panicked degrades to the `failed` tag (the sweep must exit 2).
        assert_eq!(
            Outcome::Panicked {
                attempts: 2,
                message: "boom".into()
            }
            .tag(),
            "failed"
        );
        assert_eq!(LocalVerdict::Proven.tag(), "proven");
    }
}
