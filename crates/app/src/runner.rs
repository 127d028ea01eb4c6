//! The generic runner: one place that owns tracing and report shaping for
//! every workload.

use crate::params::Params;
use crate::registry::Registry;
use crate::workload::{AppError, RunEnv, Verified, Workload};

/// One workload run shaped for reporting.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub workload: String,
    /// Caller-chosen fault-plan label ("none" when the env has no plan).
    pub fault: String,
    pub verified: Verified,
}

impl RunReport {
    /// One deterministic JSON object (sorted structure, metrics in
    /// workload order). Floats print via `{:?}` so they round-trip.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"workload\":\"{}\",", self.workload));
        s.push_str(&format!("\"fault\":\"{}\",", self.fault));
        s.push_str(&format!("\"passed\":{},", self.verified.passed));
        s.push_str(&format!(
            "\"oracle\":\"{}\",",
            self.verified.oracle.replace('\\', "\\\\").replace('"', "\\\"")
        ));
        s.push_str(&format!("\"end_seconds\":{:?},", self.verified.end_seconds));
        s.push_str("\"metrics\":{");
        for (i, (k, v)) in self.verified.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{v:?}"));
        }
        s.push('}');
        if let Some(mj) = &self.verified.metrics_json {
            s.push_str(&format!(",\"trace_metrics\":{mj}"));
        }
        s.push('}');
        s
    }
}

/// Run one workload under the SDK: tracer install (under the `trace`
/// feature), oracle evaluation inside the workload. The returned
/// [`Verified`] carries the `MetricsRegistry` snapshot when tracing ran.
pub fn run_workload(
    w: &dyn Workload,
    env: &RunEnv,
    params: &Params,
) -> Result<Verified, AppError> {
    #[cfg(feature = "trace")]
    {
        use std::sync::Arc;
        let t = Arc::new(hupc_trace::Tracer::new(hupc_trace::TraceLevel::Counters));
        let guard = t.install();
        let mut v = w.run(env, params)?;
        drop(guard);
        if v.metrics_json.is_none() {
            v.metrics_json = Some(t.metrics().snapshot().to_json());
        }
        Ok(v)
    }
    #[cfg(not(feature = "trace"))]
    w.run(env, params)
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
    let verified = run_workload(w.as_ref(), env, params)?;
    Ok(RunReport {
        workload: name.to_string(),
        fault: fault_label.to_string(),
        verified,
    })
}
