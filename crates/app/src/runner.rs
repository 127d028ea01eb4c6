//! The generic runner: one place that looks a workload up and shapes its
//! report.

use crate::params::Params;
use crate::registry::Registry;
use crate::workload::{AppError, RunEnv, Verified};

/// One workload run shaped for reporting.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub workload: String,
    /// Caller-chosen fault-plan label ("none" when the env has no plan).
    pub fault: String,
    pub verified: Verified,
}

/// Registry-keyed entry point: look up `name`, run it in `env`, shape a
/// [`RunReport`]. `fault_label` names the env's fault plan in the report.
pub fn run_by_name(
    reg: &Registry,
    name: &str,
    env: &RunEnv,
    params: &Params,
    fault_label: &str,
) -> Result<RunReport, AppError> {
    let w = reg
        .get(name)
        .ok_or_else(|| AppError::NoSuchWorkload(name.to_string()))?;
    let verified = w.run(env, params)?;
    Ok(RunReport {
        workload: name.to_string(),
        fault: fault_label.to_string(),
        verified,
    })
}
